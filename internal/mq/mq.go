// Package mq implements the distributed queuing service of NetAlytics's
// aggregation layer (§3.2), modeled on Kafka: topics split into partitions
// hosted by brokers, batching producers, polling consumers, and bounded
// in-memory buffers that absorb bursts while the analytics engine catches up.
//
// Two behaviors from the paper are modeled explicitly:
//
//   - Persistence (§6.1): in disk mode every append is throttled to the
//     broker's simulated disk write rate (the paper measured 70 MB/s);
//     in RAM mode appends are throttled only by the broker's network ingest
//     rate, "more than an order of magnitude" faster.
//   - Back pressure (§4.2): when a partition's occupancy crosses the high
//     watermark, subscribers (monitors) receive an overload status so they
//     can lower their sampling rate; recovery is signaled when occupancy
//     falls below the low watermark.
package mq

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"netalytics/internal/telemetry"
	"netalytics/internal/tuple"
)

// Defaults for Config fields left zero.
const (
	DefaultPartitions    = 1
	DefaultBufferBatches = 1024
	DefaultHighWatermark = 0.75

	// DefaultDiskBytesPerSec is the paper's measured disk write rate.
	DefaultDiskBytesPerSec = 70 << 20
)

// ErrBufferFull is returned when a partition cannot absorb another batch.
var ErrBufferFull = errors.New("mq: partition buffer full")

// ErrUnavailable is returned when a partition rejects an operation because a
// fault made it unavailable (broker down, injected produce error). Like
// ErrBufferFull it is retryable; Producer.Send retries both up to
// Config.ProduceRetries times before surfacing the error to the caller.
var ErrUnavailable = errors.New("mq: partition unavailable")

// FaultHook lets a fault-injection layer (internal/fault) fail produce and
// consume operations. The cluster calls it on every partition append and pop;
// returning true makes the operation fail with ErrUnavailable (produce) or
// behave as if no data were ready (consume — offsets are untouched, so a
// consumer simply resumes where it left off once the fault clears).
type FaultHook interface {
	ProduceUnavailable(topic string, partition int) bool
	ConsumeUnavailable(topic string, partition int) bool
}

// PersistMode selects the durability/throughput trade-off of §6.1.
type PersistMode int

// Persistence modes.
const (
	// PersistRAM buffers batches in memory only (the paper's tuned
	// configuration: RAM disk + short retention).
	PersistRAM PersistMode = iota
	// PersistDisk throttles appends to the simulated disk write rate.
	PersistDisk
)

// Config parameterizes a Cluster.
type Config struct {
	// Partitions per topic (default 1).
	Partitions int
	// BufferBatches bounds each partition's buffer (default 1024). With
	// IngestShards > 0 the budget is split across the shard rings.
	BufferBatches int
	// IngestShards, when > 0, replaces each partition's mutex-guarded log
	// with that many single-writer ring segments appended lock-free and
	// merged at consume time (see shard.go), so concurrent producers on one
	// topic stop serializing on a partition lock. 0 keeps the legacy locked
	// path — the A/B baseline.
	IngestShards int
	// HighWatermark is the occupancy fraction that triggers overload
	// statuses (default 0.75). The low watermark is half of it.
	HighWatermark float64
	// Persist selects RAM or disk persistence.
	Persist PersistMode
	// DiskBytesPerSec is the simulated disk write rate for PersistDisk
	// (default 70 MB/s).
	DiskBytesPerSec float64
	// IngestBytesPerSec throttles each broker's network ingest in RAM mode;
	// 0 disables throttling (tests). The Fig. 6 harness sets it to model
	// per-process capacity.
	IngestBytesPerSec float64
	// ProduceRetries is how many times Producer.Send retries a failed append
	// (buffer full or partition unavailable) before counting the batch as
	// dropped and returning the error. 0 (the default) fails immediately,
	// preserving the pre-retry behavior.
	ProduceRetries int
	// RetryBackoff is the first retry's sleep; each subsequent retry doubles
	// it up to RetryBackoffMax (defaults 1ms / 50ms).
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// Metrics, when non-nil, registers per-topic counters (mq_appended,
	// mq_consumed, mq_dropped, mq_bytes, mq_overloads, mq_attempts,
	// mq_retries and the tuple-granular mq_*_tuples series) and
	// occupancy/backlog gauges in the telemetry registry, labeled
	// topic=<name>.
	Metrics *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.Partitions <= 0 {
		c.Partitions = DefaultPartitions
	}
	if c.BufferBatches <= 0 {
		c.BufferBatches = DefaultBufferBatches
	}
	if c.HighWatermark <= 0 || c.HighWatermark > 1 {
		c.HighWatermark = DefaultHighWatermark
	}
	if c.DiskBytesPerSec <= 0 {
		c.DiskBytesPerSec = DefaultDiskBytesPerSec
	}
	if c.ProduceRetries < 0 {
		c.ProduceRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = time.Millisecond
	}
	if c.RetryBackoffMax <= 0 {
		c.RetryBackoffMax = 50 * time.Millisecond
	}
	return c
}

// Status is a back-pressure report delivered to subscribers.
type Status struct {
	Topic      string
	Overloaded bool
	Occupancy  float64 // occupancy of the partition that transitioned
}

// TopicStats is a snapshot of a topic's counters. Appended/Consumed/Dropped
// count batches; the *Tuples fields count the tuples inside them, which is
// what the chaos harness's conservation ledger balances (a batch either lands
// — possibly after retries — or is dropped with its tuple count attributed).
type TopicStats struct {
	Appended  uint64
	Consumed  uint64
	Dropped   uint64
	Buffered  int
	Bytes     uint64 // wire bytes appended
	Occupancy float64

	Attempts       uint64 // Send calls (one per batch, regardless of retries)
	Retries        uint64 // individual retry attempts across all Sends
	AppendedTuples uint64
	ConsumedTuples uint64
	DroppedTuples  uint64
}

// broker models one aggregation-layer process; its throttle serializes
// simulated I/O so that broker count bounds cluster throughput.
type broker struct {
	id int

	mu     sync.Mutex
	freeAt time.Time
}

// write charges the broker for n bytes at rate bytes/sec. Time debt
// accumulates across writes and is only slept off once it exceeds a couple
// of milliseconds, so the modeled rate is honored without paying the OS
// timer granularity on every small batch.
func (b *broker) write(n int, rate float64) {
	if rate <= 0 || n <= 0 {
		return
	}
	const sleepThreshold = 2 * time.Millisecond
	dur := time.Duration(float64(n) / rate * float64(time.Second))
	b.mu.Lock()
	now := time.Now()
	start := b.freeAt
	if start.Before(now) {
		start = now
	}
	b.freeAt = start.Add(dur)
	wait := b.freeAt.Sub(now)
	b.mu.Unlock()
	if wait > sleepThreshold {
		time.Sleep(wait)
	}
}

// partition is a bounded in-memory log segment with per-consumer-group
// offsets, Kafka-style: every group reads the whole stream independently; a
// record is retained until the slowest group has consumed it. With ingest
// sharding enabled, rings is non-nil and owns the data path; the mutex-
// guarded fields below are the legacy single-owner log.
type partition struct {
	topic  *topic
	broker *broker
	idx    int // ordinal within the topic, for fault targeting

	rings *shardedLog // non-nil when Config.IngestShards > 0

	mu      sync.Mutex
	buf     []*tuple.Batch
	base    uint64 // log offset of buf[0]
	next    uint64 // log offset the next append receives
	groups  map[string]uint64
	cap     int
	over    bool
	retain  bool // retain-latest: evict oldest on full instead of rejecting
	dropped atomic.Uint64
}

// errBufferFull builds the typed, retryable full error for a topic.
func errBufferFull(topic string) error {
	return fmt.Errorf("%w: topic %q", ErrBufferFull, topic)
}

// backlog returns the records not yet consumed by the slowest group (or the
// whole buffer when no group exists yet). Caller holds the lock.
func (p *partition) backlog() int {
	slowest := p.next
	for _, off := range p.groups {
		if off < slowest {
			slowest = off
		}
	}
	if len(p.groups) == 0 {
		slowest = p.base
	}
	return int(p.next - slowest)
}

// trim retires records every group has consumed, returning the dropped
// prefix so the caller can nil its entries *outside* the critical section
// (the compaction loop was the longest lock-held work on the legacy pop
// path). The prefix's array region is unreachable through p.buf once
// resliced, so clearing it after unlock races nothing. Caller holds the lock.
func (p *partition) trim() []*tuple.Batch {
	if len(p.groups) == 0 {
		return nil
	}
	slowest := p.next
	for _, off := range p.groups {
		if off < slowest {
			slowest = off
		}
	}
	k := 0
	for p.base+uint64(k) < slowest && k < len(p.buf) {
		k++
	}
	if k == 0 {
		return nil
	}
	drop := p.buf[:k]
	p.buf = p.buf[k:]
	p.base += uint64(k)
	return drop
}

// append pushes one batch into the partition's log. It returns a typed,
// retryable error — ErrUnavailable (fault hook) or ErrBufferFull (back
// pressure) — without counting drops: drop accounting belongs to
// Producer.Send, which owns the retry policy and knows when a batch is
// finally lost rather than merely deferred. hint is the producer's home
// shard on the sharded path (ignored by the legacy path).
//
// The fault hook and the broker-throttle sleep are deliberately evaluated
// before any lock or ring claim is taken, so injected faults and modeled
// I/O never extend the producer-visible critical section.
func (p *partition) append(b *tuple.Batch, hint int) error {
	if h := p.topic.cluster.faultHook(); h != nil && h.ProduceUnavailable(p.topic.name, p.idx) {
		return fmt.Errorf("%w: topic %q partition %d", ErrUnavailable, p.topic.name, p.idx)
	}

	// Stamp the aggregation-layer arrival time for latency tracing. Written
	// by the appending producer before the batch becomes visible to
	// consumers (publication is the locked append below, or the ring's
	// atomic head store), so readers never race it.
	b.ProduceNS = time.Now().UnixNano()
	size := b.WireSize()
	cfg := p.topic.cluster.cfg
	switch cfg.Persist {
	case PersistDisk:
		p.broker.write(size, cfg.DiskBytesPerSec)
	default:
		p.broker.write(size, cfg.IngestBytesPerSec)
	}

	if p.rings != nil {
		if err := p.rings.append(b, hint); err != nil {
			return err
		}
	} else {
		lockStart := time.Now()
		p.mu.Lock()
		wait := time.Since(lockStart)
		var evicted, evictedTuples uint64
		if p.backlog() >= p.cap {
			if !p.retain {
				p.mu.Unlock()
				p.topic.lockWait.Observe(wait.Nanoseconds())
				return errBufferFull(p.topic.name)
			}
			// Retain-latest: evict the oldest records (bumping any group
			// offset that pointed into the evicted prefix) so the newest
			// record always lands. An incident stream with no consumer yet
			// must keep the latest incidents, not the first N.
			for p.backlog() >= p.cap && len(p.buf) > 0 {
				old := p.buf[0]
				p.buf[0] = nil
				p.buf = p.buf[1:]
				p.base++
				evicted++
				evictedTuples += uint64(len(old.Tuples))
				for g, off := range p.groups {
					if off < p.base {
						p.groups[g] = p.base
					}
				}
			}
		}
		p.buf = append(p.buf, b)
		p.next++
		occ := float64(p.backlog()) / float64(p.cap)
		transition := false
		if !p.over && occ >= cfg.HighWatermark {
			p.over = true
			transition = true
		}
		p.mu.Unlock()
		p.topic.lockWait.Observe(wait.Nanoseconds())
		if evicted > 0 {
			p.dropped.Add(evicted)
			p.topic.dropped.Add(evicted)
			p.topic.droppedTuples.Add(evictedTuples)
		}
		if transition {
			p.topic.overloads.Add(1)
			p.topic.cluster.notify(Status{Topic: p.topic.name, Overloaded: true, Occupancy: occ})
		}
	}

	p.topic.appended.Add(1)
	p.topic.appendedTuples.Add(uint64(len(b.Tuples)))
	p.topic.bytes.Add(uint64(size))
	p.topic.data.signal()
	return nil
}

// register ensures the group exists, starting at the earliest retained
// record (Kafka's earliest auto-offset policy) so a topology attaching just
// after its query's monitors misses nothing.
func (p *partition) register(group string) {
	if p.rings != nil {
		p.rings.cursors(group)
		return
	}
	p.mu.Lock()
	if _, ok := p.groups[group]; !ok {
		p.groups[group] = p.base
	}
	p.mu.Unlock()
}

func (p *partition) pop(group string, hint int) *tuple.Batch {
	// An unavailable partition reads as empty. The group's offset is not
	// advanced, so the consumer's reconnect after the fault clears resumes at
	// exactly the next unread record — offset preservation by construction.
	// This holds identically on the sharded path: ring cursors only move on
	// a successful claim, so a fault window leaves every cursor in place.
	if h := p.topic.cluster.faultHook(); h != nil && h.ConsumeUnavailable(p.topic.name, p.idx) {
		return nil
	}

	var b *tuple.Batch
	if p.rings != nil {
		b = p.rings.pop(group, hint)
		if b == nil {
			return nil
		}
	} else {
		cfg := p.topic.cluster.cfg
		lockStart := time.Now()
		p.mu.Lock()
		wait := time.Since(lockStart)
		off, ok := p.groups[group]
		if !ok {
			off = p.base
		}
		if off >= p.next {
			p.mu.Unlock()
			p.topic.lockWait.Observe(wait.Nanoseconds())
			return nil
		}
		b = p.buf[off-p.base]
		p.groups[group] = off + 1
		drop := p.trim()
		occ := float64(p.backlog()) / float64(p.cap)
		transition := false
		if p.over && occ <= cfg.HighWatermark/2 {
			p.over = false
			transition = true
		}
		p.mu.Unlock()
		p.topic.lockWait.Observe(wait.Nanoseconds())
		// Compaction outside the lock: the dropped prefix is unreachable
		// through p.buf now, so clearing the references for the GC cannot
		// race another append/pop.
		for i := range drop {
			drop[i] = nil
		}
		if transition {
			p.topic.cluster.notify(Status{Topic: p.topic.name, Overloaded: false, Occupancy: occ})
		}
	}

	p.topic.consumed.Add(1)
	p.topic.consumedTuples.Add(uint64(len(b.Tuples)))
	p.topic.drain.signal()
	return b
}

type topic struct {
	name       string
	cluster    *Cluster
	partitions []*partition

	// Registry-backed when the cluster config carries a telemetry registry;
	// standalone atomics otherwise. Same hot-path cost either way.
	appended  *telemetry.Counter
	consumed  *telemetry.Counter
	dropped   *telemetry.Counter
	bytes     *telemetry.Counter
	overloads *telemetry.Counter // high-watermark transitions (back-pressure events)

	// Retry/fault accounting (tentpole of the fault-injection PR): attempts
	// and retries at batch granularity, plus tuple-granular appended /
	// consumed / dropped counters for the chaos conservation ledger.
	attempts       *telemetry.Counter // mq_attempts: Send calls
	retries        *telemetry.Counter // mq_retries: retry attempts
	appendedTuples *telemetry.Counter
	consumedTuples *telemetry.Counter
	droppedTuples  *telemetry.Counter

	// lockWait records how long legacy-path producers and consumers waited
	// for a partition lock (mq_partition_lock_wait_ns) — the contention the
	// sharded ingest path exists to remove. Unused (zero observations) when
	// IngestShards > 0.
	lockWait *telemetry.Histogram

	// nextShard hands each new producer a home shard round-robin, so N
	// producers spread across the N rings before any claim contention.
	nextShard atomic.Uint64

	// data wakes consumers parked in PollWait/PollAny when a batch is
	// appended; drain wakes WaitDrained callers when one is consumed.
	data  wakeList
	drain wakeList
}

// wakeList is the set of goroutines parked on a topic event. A waiter adds
// its wake channel (capacity 1), re-checks its condition — a signal racing
// the registration may have found the list still empty — and parks on the
// channel; signal leaves a token in every registered channel. The count keeps
// the signalling hot path at a single atomic load while nobody is parked.
type wakeList struct {
	n   atomic.Int32
	mu  sync.Mutex
	chs []chan struct{}
}

func (w *wakeList) add(ch chan struct{}) {
	w.mu.Lock()
	w.chs = append(w.chs, ch)
	w.mu.Unlock()
	w.n.Add(1)
}

func (w *wakeList) remove(ch chan struct{}) {
	w.n.Add(-1)
	w.mu.Lock()
	for i, c := range w.chs {
		if c == ch {
			last := len(w.chs) - 1
			w.chs[i] = w.chs[last]
			w.chs[last] = nil
			w.chs = w.chs[:last]
			break
		}
	}
	w.mu.Unlock()
}

func (w *wakeList) signal() {
	if w.n.Load() == 0 {
		return
	}
	w.mu.Lock()
	for _, ch := range w.chs {
		select {
		case ch <- struct{}{}:
		default: // already holds a token
		}
	}
	w.mu.Unlock()
}

// Cluster is a set of brokers hosting topics.
type Cluster struct {
	cfg     Config
	brokers []*broker

	mu     sync.Mutex
	topics map[string]*topic
	subs   map[string][]chan Status
	retain map[string]bool // topics in retain-latest (drop-oldest) mode
	nextBk int

	fault atomic.Pointer[FaultHook]
}

// SetFaultHook installs (or, with nil, removes) the fault-injection hook.
// Takes effect on the next produce/consume operation.
func (c *Cluster) SetFaultHook(h FaultHook) {
	if h == nil {
		c.fault.Store(nil)
		return
	}
	c.fault.Store(&h)
}

func (c *Cluster) faultHook() FaultHook {
	if hp := c.fault.Load(); hp != nil {
		return *hp
	}
	return nil
}

// NewCluster creates a cluster with the given number of brokers (minimum 1).
func NewCluster(numBrokers int, cfg Config) *Cluster {
	if numBrokers < 1 {
		numBrokers = 1
	}
	c := &Cluster{
		cfg:    cfg.withDefaults(),
		topics: make(map[string]*topic),
		subs:   make(map[string][]chan Status),
	}
	for i := 0; i < numBrokers; i++ {
		c.brokers = append(c.brokers, &broker{id: i})
	}
	return c
}

// BrokerCount returns the number of brokers.
func (c *Cluster) BrokerCount() int { return len(c.brokers) }

// SetRetainLatest switches a topic to retain-latest mode: when its buffer
// fills, the oldest record is evicted (and counted dropped) so the newest
// always lands. Normal topics do the opposite — reject the new batch and
// retain history — which is right for query pipelines with attached
// consumers, but wrong for an always-on stream like `_incidents` that may
// have no consumer at all: without eviction it would fill once and then
// reject every incident after the first BufferBatches forever. Call before
// the topic's first use; retain-latest topics always use the legacy locked
// log (eviction needs the single-owner buffer), regardless of IngestShards.
func (c *Cluster) SetRetainLatest(name string) {
	c.mu.Lock()
	if c.retain == nil {
		c.retain = make(map[string]bool)
	}
	c.retain[name] = true
	t := c.topics[name]
	c.mu.Unlock()
	if t == nil {
		return
	}
	// Already-created topic: flip the flag on its legacy partitions (sharded
	// partitions keep reject semantics — eviction needs the locked log).
	for _, p := range t.partitions {
		if p.rings != nil {
			continue
		}
		p.mu.Lock()
		p.retain = true
		p.mu.Unlock()
	}
}

// getTopic returns the topic, creating it with partitions spread across
// brokers round-robin. Metric registration happens outside the cluster lock:
// registry snapshots evaluate the occupancy gauges (registry lock → cluster
// lock), so registering under the cluster lock (cluster lock → registry
// lock) would invert the order and risk deadlock. Registry accessors are
// idempotent, so losing a creation race just re-resolves the same series.
func (c *Cluster) getTopic(name string) *topic {
	c.mu.Lock()
	t, ok := c.topics[name]
	c.mu.Unlock()
	if ok {
		return t
	}

	reg := c.cfg.Metrics
	label := telemetry.L("topic", name)
	cand := &topic{
		name:           name,
		cluster:        c,
		appended:       reg.Counter("mq_appended", label),
		consumed:       reg.Counter("mq_consumed", label),
		dropped:        reg.Counter("mq_dropped", label),
		bytes:          reg.Counter("mq_bytes", label),
		overloads:      reg.Counter("mq_overloads", label),
		attempts:       reg.Counter("mq_attempts", label),
		retries:        reg.Counter("mq_retries", label),
		appendedTuples: reg.Counter("mq_appended_tuples", label),
		consumedTuples: reg.Counter("mq_consumed_tuples", label),
		droppedTuples:  reg.Counter("mq_dropped_tuples", label),
		lockWait:       reg.Histogram("mq_partition_lock_wait_ns", label),
	}
	if reg != nil {
		// Occupancy and backlog are sampled at snapshot time; Stats takes
		// the cluster and partition locks only, never the registry's.
		reg.GaugeFunc("mq_occupancy", func() float64 {
			return c.Stats(name).Occupancy
		}, label)
		reg.GaugeFunc("mq_buffered", func() float64 {
			return float64(c.Stats(name).Buffered)
		}, label)
		// Per-shard occupancy, so a hot ring is visible even when the
		// topic-level max hides which producer is responsible.
		for s := 0; s < c.cfg.IngestShards; s++ {
			shard := s
			reg.GaugeFunc("mq_shard_occupancy", func() float64 {
				maxOcc := 0.0
				for _, ps := range c.ShardStats(name) {
					if shard < len(ps) && ps[shard].Occupancy > maxOcc {
						maxOcc = ps[shard].Occupancy
					}
				}
				return maxOcc
			}, label, telemetry.L("shard", fmt.Sprintf("%d", shard)))
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok = c.topics[name]; ok {
		return t
	}
	retain := c.retain[name]
	for i := 0; i < c.cfg.Partitions; i++ {
		bk := c.brokers[c.nextBk%len(c.brokers)]
		c.nextBk++
		p := &partition{
			topic:  cand,
			broker: bk,
			idx:    i,
			groups: make(map[string]uint64),
			cap:    c.cfg.BufferBatches,
			retain: retain,
		}
		if c.cfg.IngestShards > 0 && !retain {
			p.rings = newShardedLog(p, c.cfg.IngestShards, c.cfg.BufferBatches)
		}
		cand.partitions = append(cand.partitions, p)
	}
	c.topics[name] = cand
	return cand
}

// ShardStats snapshots each partition's per-shard ring telemetry for a
// topic: one []ShardStats per partition. Nil for unknown topics or when
// ingest sharding is off.
func (c *Cluster) ShardStats(topicName string) [][]ShardStats {
	c.mu.Lock()
	t := c.topics[topicName]
	c.mu.Unlock()
	if t == nil {
		return nil
	}
	var out [][]ShardStats
	for _, p := range t.partitions {
		if p.rings != nil {
			out = append(out, p.rings.shardStats())
		}
	}
	return out
}

// Topics lists existing topic names.
func (c *Cluster) Topics() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.topics))
	for name := range c.topics {
		out = append(out, name)
	}
	return out
}

// DeleteTopic removes a topic and unregisters its telemetry series (every
// metric labeled topic=<name>). A session retiring its per-query topics calls
// this after its executors stop, so a long-lived cluster hosting a churn of
// queries does not accumulate dead topics and gauges forever. Back-pressure
// subscriber channels for the topic are released (not closed: notify may hold
// a reference concurrently, and receivers select with a default). Producers
// or consumers still holding the old *topic keep working against the orphaned
// partitions; a later getTopic(name) creates a fresh topic. Returns false for
// unknown topics.
func (c *Cluster) DeleteTopic(name string) bool {
	c.mu.Lock()
	_, ok := c.topics[name]
	delete(c.topics, name)
	delete(c.subs, name)
	c.mu.Unlock()
	if !ok {
		return false
	}
	if c.cfg.Metrics != nil {
		c.cfg.Metrics.DropLabeled("topic", name)
	}
	return true
}

// Subscribe registers for back-pressure statuses on a topic. The channel is
// buffered; statuses are dropped rather than blocking the data path.
func (c *Cluster) Subscribe(topicName string) <-chan Status {
	ch := make(chan Status, 16)
	c.mu.Lock()
	c.subs[topicName] = append(c.subs[topicName], ch)
	c.mu.Unlock()
	return ch
}

func (c *Cluster) notify(s Status) {
	c.mu.Lock()
	subs := c.subs[s.Topic]
	c.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- s:
		default:
		}
	}
}

// Pressure returns the topic's worst partition occupancy in [0,1].
func (c *Cluster) Pressure(topicName string) float64 {
	return c.Stats(topicName).Occupancy
}

// HighWatermark returns the configured overload threshold.
func (c *Cluster) HighWatermark() float64 { return c.cfg.HighWatermark }

// Stats snapshots a topic's counters; unknown topics return zeros.
func (c *Cluster) Stats(topicName string) TopicStats {
	c.mu.Lock()
	t := c.topics[topicName]
	c.mu.Unlock()
	if t == nil {
		return TopicStats{}
	}
	st := TopicStats{
		Appended:       t.appended.Value(),
		Consumed:       t.consumed.Value(),
		Dropped:        t.dropped.Value(),
		Bytes:          t.bytes.Value(),
		Attempts:       t.attempts.Value(),
		Retries:        t.retries.Value(),
		AppendedTuples: t.appendedTuples.Value(),
		ConsumedTuples: t.consumedTuples.Value(),
		DroppedTuples:  t.droppedTuples.Value(),
	}
	maxOcc := 0.0
	for _, p := range t.partitions {
		var occ float64
		if p.rings != nil {
			st.Buffered += p.rings.backlogTotal()
			occ = p.rings.maxOccupancy()
		} else {
			p.mu.Lock()
			st.Buffered += p.backlog()
			occ = float64(p.backlog()) / float64(p.cap)
			p.mu.Unlock()
		}
		if occ > maxOcc {
			maxOcc = occ
		}
	}
	st.Occupancy = maxOcc
	return st
}

// WaitDrained blocks until every consumer group has consumed everything
// appended to the topic, or the timeout elapses, and reports whether the topic
// drained. It parks on the topic's consume signal between checks. Unknown
// topics are drained.
func (c *Cluster) WaitDrained(topicName string, timeout time.Duration) bool {
	c.mu.Lock()
	t := c.topics[topicName]
	c.mu.Unlock()
	if t == nil || c.Stats(topicName).Buffered == 0 {
		return true
	}
	wake := make(chan struct{}, 1)
	t.drain.add(wake)
	defer t.drain.remove(wake)
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		if c.Stats(topicName).Buffered == 0 {
			return true
		}
		select {
		case <-wake:
		case <-timer.C:
			return c.Stats(topicName).Buffered == 0
		}
	}
}

// LockWaitNS returns the topic's legacy-path partition lock-wait histogram
// (mq_partition_lock_wait_ns): how long producers and consumers stalled
// acquiring partition locks. Always non-nil; empty on the sharded path.
func (c *Cluster) LockWaitNS(topicName string) *telemetry.Histogram {
	return c.getTopic(topicName).lockWait
}

// Producer publishes batches to one topic. It implements monitor.Sink.
type Producer struct {
	t     *topic
	next  atomic.Uint64
	shard int // home shard on the sharded ingest path
}

// Producer creates a producer for a topic (creating the topic on demand).
// Each producer gets a distinct home shard round-robin, so on the sharded
// path concurrent producers start on disjoint rings.
func (c *Cluster) Producer(topicName string) *Producer {
	t := c.getTopic(topicName)
	return &Producer{t: t, shard: int(t.nextShard.Add(1) - 1)}
}

// Send appends a batch to the next partition round-robin. Retryable failures
// (ErrBufferFull back pressure, ErrUnavailable faults) are retried against
// the same partition up to Config.ProduceRetries times with bounded
// exponential backoff; only when the budget is exhausted is the batch counted
// as dropped — with its tuple count attributed — and the typed error
// returned, so callers can distinguish deferred from lost.
func (p *Producer) Send(b *tuple.Batch) error {
	t := p.t
	cfg := t.cluster.cfg
	t.attempts.Add(1)
	part := t.partitions[p.next.Add(1)%uint64(len(t.partitions))]

	err := part.append(b, p.shard)
	backoff := cfg.RetryBackoff
	for tries := 0; err != nil && tries < cfg.ProduceRetries; tries++ {
		t.retries.Add(1)
		time.Sleep(backoff)
		if backoff *= 2; backoff > cfg.RetryBackoffMax {
			backoff = cfg.RetryBackoffMax
		}
		err = part.append(b, p.shard)
	}
	if err != nil {
		part.dropped.Add(1)
		t.dropped.Add(1)
		t.droppedTuples.Add(uint64(len(b.Tuples)))
	}
	return err
}

// Deliver implements the monitor sink interface.
func (p *Producer) Deliver(b *tuple.Batch) error { return p.Send(b) }

// Consumer pulls batches from a topic on behalf of a consumer group:
// consumers sharing a group split the stream between them (each batch is
// delivered once per group), while distinct groups each receive the whole
// stream — exactly Kafka's model, which lets several processing topologies
// subscribe to one query's data independently.
type Consumer struct {
	t        *topic
	group    string
	next     int
	affinity int // shard scan start on the sharded ingest path
	// wake is the channel the consumer parks on in PollAny, made on first
	// use and registered with the topics only while parked.
	wake chan struct{}
}

// SetShardAffinity gives the consumer a partition-to-core affinity hint: on
// the sharded ingest path its pops scan the rings starting at this index, so
// co-scheduled spout tasks drain the shards "their" producers fill before
// touching anyone else's. Purely a preference — every ring is still visited,
// so no data is stranded. No-op on the legacy path.
func (cs *Consumer) SetShardAffinity(hint int) {
	if hint < 0 {
		hint = 0
	}
	cs.affinity = hint
}

// DefaultGroup is the consumer group used by Consumer.
const DefaultGroup = "default"

// Consumer creates a consumer in the default group (creating the topic on
// demand).
func (c *Cluster) Consumer(topicName string) *Consumer {
	return c.GroupConsumer(topicName, DefaultGroup)
}

// GroupConsumer creates a consumer in a named group. The group's offsets
// start at the earliest retained record.
func (c *Cluster) GroupConsumer(topicName, group string) *Consumer {
	if group == "" {
		group = DefaultGroup
	}
	t := c.getTopic(topicName)
	for _, p := range t.partitions {
		p.register(group)
	}
	return &Consumer{t: t, group: group}
}

// Poll returns up to max buffered batches without blocking.
func (cs *Consumer) Poll(max int) []*tuple.Batch {
	if max <= 0 {
		max = 1
	}
	var out []*tuple.Batch
	parts := cs.t.partitions
	for tries := 0; tries < len(parts) && len(out) < max; {
		p := parts[cs.next%len(parts)]
		cs.next++
		b := p.pop(cs.group, cs.affinity)
		if b == nil {
			tries++
			continue
		}
		tries = 0
		out = append(out, b)
	}
	return out
}

// PollWait polls until at least one batch arrives, the timeout elapses or
// stop is closed (returning nil in the last two cases; a nil stop never
// fires). Waiting is wakeup-driven rather than poll-driven: the consumer
// parks on the topic's data signal and the producer's append wakes it, so an
// idle consumer costs nothing between batches and a new batch is seen within
// a scheduler hop instead of a sleep quantum.
func (cs *Consumer) PollWait(max int, timeout time.Duration, stop <-chan struct{}) []*tuple.Batch {
	return PollAny([]*Consumer{cs}, max, timeout, stop)
}

// PollAny is PollWait over several consumers owned by one goroutine, which
// is how a spout reads all of a query's topics: the consumers are polled in
// order and, while none has data, the caller parks on all of their topics at
// once, so a batch on any of them is returned within a scheduler hop however
// idle the others are.
func PollAny(consumers []*Consumer, max int, timeout time.Duration, stop <-chan struct{}) []*tuple.Batch {
	poll := func() []*tuple.Batch {
		for _, cs := range consumers {
			if out := cs.Poll(max); len(out) > 0 {
				return out
			}
		}
		return nil
	}
	if out := poll(); len(out) > 0 {
		return out
	}
	first := consumers[0]
	if first.wake == nil {
		first.wake = make(chan struct{}, 1)
	}
	wake := first.wake
	select {
	case <-wake: // token left over from the last park
	default:
	}
	for _, cs := range consumers {
		cs.t.data.add(wake)
	}
	defer func() {
		for _, cs := range consumers {
			cs.t.data.remove(wake)
		}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		// Poll after registering: an append that raced the registration saw
		// nobody parked and skipped the signal. After a wake-up another
		// consumer of the group may have taken the batch; park again if so.
		if out := poll(); len(out) > 0 {
			return out
		}
		select {
		case <-wake:
		case <-stop:
			return nil
		case <-timer.C:
			return poll()
		}
	}
}
