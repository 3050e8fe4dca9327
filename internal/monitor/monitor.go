// Package monitor implements the NFV packet monitor of §5.1–5.2: a Collector
// that polls an input queue and fans packet descriptors out to per-parser
// worker queues, pluggable parsers that extract tuples, a batching output
// interface toward the aggregation layer, and flow-hash sampling with a
// feedback-driven (AIMD) controller.
//
// The design mirrors the paper's DPDK pipeline on a virtual substrate:
//
//   - Zero-copy, lockless-style: one decoded descriptor per packet is shared
//     by every parser via a reference count; queues are Go channels.
//   - Burst mode: collectors drain their RX queue greedily (up to BurstSize,
//     like DPDK's rx_burst) and descriptors travel to workers in per-burst
//     groups, so channel synchronization is amortized over many packets.
//   - Multi-level queuing: a collector queue feeds per-worker parser queues;
//     dispatch is by flow hash, so stateful parsers see whole flows and need
//     no locks.
//   - Batching: tuples leave in per-parser batches, shipped when full or when
//     the batch's first tuple has waited out the linger. Each worker owns a
//     private output shard and its linger timer, so the emit path takes no
//     lock at all.
//   - Sampling: flows (not packets) are dropped early by hashing the
//     canonical five-tuple against the sampling threshold.
package monitor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"netalytics/internal/packet"
	"netalytics/internal/telemetry"
	"netalytics/internal/tuple"
)

// Defaults for Config fields left zero.
const (
	DefaultQueueDepth = 4096
	DefaultBatchSize  = 64
	// DefaultBurstSize matches the rx_burst size DPDK drivers conventionally
	// use (§5.1): big enough to amortize per-wakeup costs, small enough to
	// keep latency and cache footprint low.
	DefaultBurstSize = 32
)

// batchLinger bounds how long a non-full output batch may wait, counted from
// its first tuple. It is a constant, not a knob: long enough that every
// workload whose batches fill at all fills them first (64 tuples in 2 ms is
// 32k tuples/s per worker), short enough that a lone tuple's wait stays below
// the rest of the pipeline's latency.
const batchLinger = 2 * time.Millisecond

// ErrNoParsers is returned by New when the config names no parsers.
var ErrNoParsers = errors.New("monitor: config has no parsers")

// Packet is the shared descriptor handed to parsers: a decoded view plus the
// flow identity and arrival timestamp. Descriptors are pooled and reference
// counted; parsers must not retain one after Handle returns.
type Packet struct {
	Frame packet.Frame
	Tuple packet.FiveTuple
	// FlowID is the canonical (direction-independent) flow hash, the ID
	// field parsers put first in emitted tuples (§3.1).
	FlowID uint64
	TS     time.Time

	refs atomic.Int32
	mon  *Monitor
}

func (p *Packet) release() {
	if p.refs.Add(-1) == 0 {
		p.mon.putPacket(p)
	}
}

// EmitFunc delivers one tuple from a parser to the output interface.
type EmitFunc func(tuple.Tuple)

// Parser extracts data from packets. Implementations are created per worker
// (see Factory) so they may keep per-flow state without locking: the
// dispatcher routes all packets of a flow to one worker.
type Parser interface {
	// Name identifies the parser; it is stamped into emitted tuples and
	// selects the aggregation topic.
	Name() string
	// Handle inspects one packet and may emit any number of tuples.
	Handle(p *Packet, emit EmitFunc)
}

// Flusher is implemented by parsers holding aggregate state they want to
// emit when the monitor stops.
type Flusher interface {
	Flush(emit EmitFunc)
}

// Factory creates one parser instance per worker.
type Factory func() Parser

// Sink receives finished tuple batches; mq producers implement it. Batches
// hand over ownership of their tuple slice: the monitor never touches a
// shipped slice again, so sinks may retain batches without copying.
type Sink interface {
	Deliver(b *tuple.Batch) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(b *tuple.Batch) error

// Deliver implements Sink.
func (f SinkFunc) Deliver(b *tuple.Batch) error { return f(b) }

// Config parameterizes a Monitor.
type Config struct {
	// Parsers lists the parser factories to run; required.
	Parsers []Factory
	// Collectors sets the number of collector threads draining the input
	// queue (default 1). The paper's design dedicates one collector core
	// per 10 Gbps port and scales with Receive Side Scaling on faster
	// links; flow-affine worker dispatch keeps parser state correct
	// regardless of which collector decoded a frame.
	Collectors int
	// WorkersPerParser sets per-parser worker counts (default 1).
	WorkersPerParser int
	// QueueDepth bounds the collector queues and the per-worker queues, both
	// in queue slots: Deliver consumes one RX slot per frame, DeliverBurst
	// one per chunk of up to BurstSize frames, and each worker slot holds
	// one dispatched burst group.
	QueueDepth int
	// BurstSize caps how many frames a collector drains from its RX queue
	// per wakeup and how many descriptors travel per worker channel
	// operation (default 32, mirroring DPDK's rx_burst).
	BurstSize int
	// WorkSteal replaces the per-collector RX channels with per-collector
	// ring shards that idle collectors steal bursts from (steal.go), so one
	// hot RSS bucket cannot starve the other collector cores. Only
	// meaningful with Collectors > 1; the single-collector datapath is
	// already steal-free.
	WorkSteal bool
	// BatchSize is the output batch size per parser.
	BatchSize int
	// SampleRate in (0,1] is the initial fraction of flows admitted;
	// 0 means 1.0 (no sampling).
	SampleRate float64
	// Sink receives output batches; required.
	Sink Sink
	// CopyMode disables descriptor sharing: each parser gets its own copy
	// of every packet. Exists for the zero-copy ablation benchmark.
	CopyMode bool
	// Metrics, when non-nil, registers every monitor counter in the
	// telemetry registry under monitor_* names with MetricLabels attached.
	// Counters are identical atomics either way; a nil registry just leaves
	// them unexported.
	Metrics *telemetry.Registry
	// MetricLabels are attached to every registered metric (typically the
	// owning session and host), keeping per-instance series distinct.
	MetricLabels []telemetry.Label
	// Tracer, when enabled, stamps sampled tuples on the emit path with
	// capture and parse timestamps for the pipeline latency breakdown.
	Tracer *telemetry.Tracer
}

// Stats is a snapshot of monitor counters.
type Stats struct {
	Received     uint64 // packets offered to the collector queue
	CollectDrops uint64 // packets dropped at the full collector queue
	Sampled      uint64 // packets dropped by flow sampling
	Malformed    uint64 // undecodable frames
	Dispatched   uint64 // descriptor enqueues to parser workers
	ParserDrops  uint64 // descriptors dropped at full worker queues
	Tuples       uint64 // tuples shipped to the sink (flushed parser output)
	Batches      uint64 // batches delivered to the sink
	SinkErrors   uint64
	Steals       uint64 // successful steal operations (work-steal mode)
	StealFrames  uint64 // frames drained by thieves from sibling shards
	Redirects    uint64 // frames redirected to the least-loaded shard on overflow
	HotFallbacks uint64 // hot-shard steering latches (pair hash → 5-tuple hash)
}

// Monitor is one NFV monitor instance.
type Monitor struct {
	cfg Config
	// inputs holds one RX queue per collector; Deliver steers frames by an
	// RSS-style header hash so all packets of a flow stay in order on one
	// collector.
	inputs []chan rawBurst
	// stealRings replaces inputs in work-steal mode (Config.WorkSteal with
	// Collectors > 1): one claimable ring shard per collector; see steal.go.
	stealRings []*rxRing
	// parsers is a copy-on-write snapshot of the parser runtimes: collectors
	// load it once per burst, AddParsers publishes an extended copy, so a
	// shared monitor can grow its parser set while frames are in flight
	// without a lock on the dispatch path. Within one burst every packet's
	// refcount and fan-out use the same snapshot.
	parsers atomic.Pointer[[]*parserRuntime]
	out     *outputBatcher
	pool    sync.Pool
	// burstPool recycles the []*Packet group slices that carry bursts over
	// worker channels; workers return each slice after releasing its
	// descriptors.
	burstPool sync.Pool
	// framePool recycles the []rawFrame chunks DeliverBurst ships over the
	// RX queue; collectors return each chunk after decoding it.
	framePool sync.Pool
	// live audits descriptor ownership: +1 on every pool get, -1 on every
	// put. It must read 0 once the monitor has fully stopped; the parity
	// tests assert this to prove bursts leak no descriptors.
	live atomic.Int64

	// sampleThreshold is a 32-bit admission threshold compared against the
	// top 32 bits of the canonical flow hash, avoiding the precision loss
	// of a float64→uint64 conversion at rate 1.0.
	sampleThreshold atomic.Uint64

	// The pipeline counters live in the telemetry registry when one is
	// configured (standalone atomics otherwise); either way each is one
	// atomic add on the hot path.
	received     *telemetry.Counter
	collectDrops *telemetry.Counter
	sampled      *telemetry.Counter
	malformed    *telemetry.Counter
	dispatched   *telemetry.Counter
	parserDrops  *telemetry.Counter
	steals       *telemetry.Counter
	stealFrames  *telemetry.Counter
	redirects    *telemetry.Counter
	hotFallbacks *telemetry.Counter

	// hotSteer is the one-way RSS fallback latch: once the pair-hash
	// steering is caught funneling traffic into one near-full shard while
	// the least-loaded shard idles, steering switches to the port-aware
	// canonical 5-tuple hash for the rest of the monitor's life (steal.go).
	hotSteer atomic.Bool

	// Steal-mode collector parking: rxWaiters counts parked collectors,
	// rxCh is the broadcast channel the next publish closes.
	rxWaiters atomic.Int32
	rxMu      sync.Mutex
	rxCh      chan struct{}

	// deliverMu fences Deliver/DeliverBurst against Stop closing the input
	// channels: senders hold the read side only around a non-blocking send,
	// Stop sets stopping and closes under the write side, so a send can
	// never hit a closed channel.
	deliverMu sync.RWMutex
	stopping  atomic.Bool

	wg          sync.WaitGroup
	collectorWG sync.WaitGroup
	started     bool
	stopped     bool
	mu          sync.Mutex
}

type rawFrame struct {
	data []byte
	ts   time.Time
}

// rawBurst is one RX queue slot: either a single frame (the Deliver path,
// which stays allocation-free) or a pooled chunk of frames (the
// DeliverBurst path, which amortizes the channel operation over the chunk).
type rawBurst struct {
	single rawFrame
	frames []rawFrame // when non-nil, carries the chunk and single is unused
}

type parserRuntime struct {
	name    string
	workers []chan []*Packet
	insts   []Parser
}

// newParserRuntime builds one parser's worker instances and queues; probe is
// the already-constructed first instance (its Name was just read).
func newParserRuntime(probe Parser, factory Factory, cfg Config) *parserRuntime {
	rt := &parserRuntime{name: probe.Name()}
	rt.insts = append(rt.insts, probe)
	for w := 1; w < cfg.WorkersPerParser; w++ {
		rt.insts = append(rt.insts, factory())
	}
	for w := 0; w < cfg.WorkersPerParser; w++ {
		rt.workers = append(rt.workers, make(chan []*Packet, cfg.QueueDepth))
	}
	return rt
}

// New builds a monitor from the config. Call Start to begin processing.
func New(cfg Config) (*Monitor, error) {
	if len(cfg.Parsers) == 0 {
		return nil, ErrNoParsers
	}
	if cfg.Sink == nil {
		return nil, errors.New("monitor: config needs a sink")
	}
	if cfg.Collectors <= 0 {
		cfg.Collectors = 1
	}
	if cfg.WorkersPerParser <= 0 {
		cfg.WorkersPerParser = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.BurstSize <= 0 {
		cfg.BurstSize = DefaultBurstSize
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if cfg.SampleRate <= 0 || cfg.SampleRate > 1 {
		cfg.SampleRate = 1
	}

	m := &Monitor{cfg: cfg}
	// A nil registry hands back live, unregistered counters — same atomics,
	// nothing exported.
	m.received = cfg.Metrics.Counter("monitor_received", cfg.MetricLabels...)
	m.collectDrops = cfg.Metrics.Counter("monitor_collect_drops", cfg.MetricLabels...)
	m.sampled = cfg.Metrics.Counter("monitor_sampled_drops", cfg.MetricLabels...)
	m.malformed = cfg.Metrics.Counter("monitor_malformed", cfg.MetricLabels...)
	m.dispatched = cfg.Metrics.Counter("monitor_dispatched", cfg.MetricLabels...)
	m.parserDrops = cfg.Metrics.Counter("monitor_parser_drops", cfg.MetricLabels...)
	m.steals = cfg.Metrics.Counter("monitor_steals", cfg.MetricLabels...)
	m.stealFrames = cfg.Metrics.Counter("monitor_steal_frames", cfg.MetricLabels...)
	m.redirects = cfg.Metrics.Counter("monitor_steal_redirects", cfg.MetricLabels...)
	m.hotFallbacks = cfg.Metrics.Counter("monitor_hot_fallbacks", cfg.MetricLabels...)
	if cfg.WorkSteal && cfg.Collectors > 1 {
		for c := 0; c < cfg.Collectors; c++ {
			m.stealRings = append(m.stealRings, newRXRing(cfg.QueueDepth))
		}
		if cfg.Metrics != nil {
			for i := range m.stealRings {
				r := m.stealRings[i]
				cfg.Metrics.GaugeFunc("monitor_rx_backlog", func() float64 {
					return float64(r.occupied())
				}, append([]telemetry.Label{telemetry.L("shard", fmt.Sprintf("%d", i))}, cfg.MetricLabels...)...)
			}
		}
	} else {
		for c := 0; c < cfg.Collectors; c++ {
			m.inputs = append(m.inputs, make(chan rawBurst, cfg.QueueDepth))
		}
	}
	m.pool.New = func() any { return &Packet{mon: m} }
	m.burstPool.New = func() any { return make([]*Packet, 0, cfg.BurstSize) }
	m.framePool.New = func() any { return make([]rawFrame, 0, cfg.BurstSize) }
	m.SetSampleRate(cfg.SampleRate)

	names := make(map[string]bool, len(cfg.Parsers))
	var parsers []*parserRuntime
	for _, factory := range cfg.Parsers {
		probe := factory()
		if names[probe.Name()] {
			return nil, fmt.Errorf("monitor: duplicate parser %q", probe.Name())
		}
		names[probe.Name()] = true
		parsers = append(parsers, newParserRuntime(probe, factory, cfg))
	}
	m.parsers.Store(&parsers)
	m.out = newOutputBatcher(cfg.BatchSize, cfg.Sink)
	m.out.tuples = cfg.Metrics.Counter("monitor_tuples", cfg.MetricLabels...)
	m.out.batches = cfg.Metrics.Counter("monitor_batches", cfg.MetricLabels...)
	m.out.sinkErrors = cfg.Metrics.Counter("monitor_sink_errors", cfg.MetricLabels...)
	if tr := cfg.Tracer; tr.Enabled() {
		m.out.tracer = tr
	}
	return m, nil
}

func (m *Monitor) getPacket() *Packet {
	m.live.Add(1)
	return m.pool.Get().(*Packet)
}

func (m *Monitor) putPacket(p *Packet) {
	m.live.Add(-1)
	m.pool.Put(p)
}

func (m *Monitor) getBurstSlice() []*Packet {
	return m.burstPool.Get().([]*Packet)[:0]
}

func (m *Monitor) putBurstSlice(s []*Packet) {
	m.burstPool.Put(s[:0]) //nolint:staticcheck // slice header alloc amortized over the burst
}

func (m *Monitor) getFrameSlice() []rawFrame {
	return m.framePool.Get().([]rawFrame)[:0]
}

func (m *Monitor) putFrameSlice(s []rawFrame) {
	m.framePool.Put(s[:0]) //nolint:staticcheck // slice header alloc amortized over the chunk
}

// Start launches the collectors and parser workers.
func (m *Monitor) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return
	}
	m.started = true

	for _, rt := range *m.parsers.Load() {
		m.startParserWorkers(rt)
	}
	m.collectorWG.Add(m.cfg.Collectors)
	for c := 0; c < m.cfg.Collectors; c++ {
		m.wg.Add(1)
		if m.stealRings != nil {
			go m.runStealCollector(c)
		} else {
			go m.runCollector(m.inputs[c])
		}
	}
	// Parser queues close once every collector has drained.
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.collectorWG.Wait()
		m.shutdownWorkers()
	}()
}

// startParserWorkers registers output shards and launches the workers of one
// parser runtime. Caller holds m.mu with m.started set.
func (m *Monitor) startParserWorkers(rt *parserRuntime) {
	for w := range rt.workers {
		m.wg.Add(1)
		go m.runWorker(rt, w, m.out.newShard(rt.name))
	}
}

// AddParsers extends a running monitor with additional parsers, so a shared
// monitor can serve a newly attached query whose parser set is not yet
// running on this host. Parsers the monitor already runs are skipped by
// name (attach is idempotent); new ones start receiving packets from the
// next dispatched burst. Fails once the monitor has stopped.
func (m *Monitor) AddParsers(factories ...Factory) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return errors.New("monitor: stopped")
	}
	cur := *m.parsers.Load()
	have := make(map[string]bool, len(cur))
	for _, rt := range cur {
		have[rt.name] = true
	}
	next := cur
	for _, factory := range factories {
		probe := factory()
		if have[probe.Name()] {
			continue
		}
		have[probe.Name()] = true
		rt := newParserRuntime(probe, factory, m.cfg)
		if m.started {
			m.startParserWorkers(rt)
		}
		if len(next) == len(cur) { // first addition: copy before appending
			next = append(append([]*parserRuntime(nil), cur...), rt)
		} else {
			next = append(next, rt)
		}
	}
	if len(next) != len(cur) {
		m.parsers.Store(&next)
	}
	return nil
}

// ParserNames lists the parsers the monitor currently runs.
func (m *Monitor) ParserNames() []string {
	parsers := *m.parsers.Load()
	out := make([]string, 0, len(parsers))
	for _, rt := range parsers {
		out = append(out, rt.name)
	}
	return out
}

// Stop drains in-flight packets, flushes parser state and output batches,
// and waits for all goroutines. The monitor cannot be restarted. Deliver and
// DeliverBurst reject frames from the moment Stop begins, so concurrent
// producers simply observe a full NIC going away.
func (m *Monitor) Stop() {
	m.mu.Lock()
	if !m.started || m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	m.mu.Unlock()

	m.deliverMu.Lock()
	m.stopping.Store(true)
	for _, in := range m.inputs {
		close(in)
	}
	m.deliverMu.Unlock()
	// Steal-mode collectors park on the RX signal instead of a channel
	// receive; wake them so they observe stopping and drain the rings.
	if m.stealRings != nil {
		m.rxBroadcast()
	}
	m.wg.Wait()
}

// Deliver offers a frame to the monitor, returning false when the target
// collector queue is full (the frame is dropped, as a saturated NIC RX
// queue would) or the monitor is stopping. With multiple collectors the RX
// queue is chosen by hashing the frame's address bytes, like hardware RSS,
// so a flow's packets stay in order on one collector.
func (m *Monitor) Deliver(data []byte, ts time.Time) bool {
	m.received.Add(1)
	m.deliverMu.RLock()
	defer m.deliverMu.RUnlock()
	if m.stopping.Load() {
		m.collectDrops.Add(1)
		return false
	}
	if m.stealRings != nil {
		return m.stealDeliver(data, ts)
	}
	select {
	case m.rxQueue(data) <- rawBurst{single: rawFrame{data: data, ts: ts}}:
		return true
	default:
		m.collectDrops.Add(1)
		return false
	}
}

// DeliverBurst offers a burst of frames sharing one arrival timestamp, the
// software analogue of a DPDK rx_burst handoff. Frames are enqueued in
// order until the RX queue rejects one (queue full, or the monitor
// stopping); the count of frames enqueued is returned, so callers can retry
// the remainder like a short write. Per-flow ordering is preserved because
// a retried tail replays in its original order.
//
// With a single collector, the burst crosses the RX queue in pooled chunks
// of up to BurstSize frames, amortizing the channel operation; rejection
// happens at chunk granularity. With multiple collectors, RSS steering is
// per frame (batching across queues would break the short-write contract),
// so ingest parallelism comes from the collectors instead.
func (m *Monitor) DeliverBurst(frames [][]byte, ts time.Time) int {
	m.deliverMu.RLock()
	defer m.deliverMu.RUnlock()
	if m.stopping.Load() {
		m.received.Add(uint64(len(frames)))
		m.collectDrops.Add(uint64(len(frames)))
		return 0
	}
	if m.stealRings != nil {
		// Steering is per frame, like the multi-collector channel path; ring
		// publishes are a mutex-guarded slot write, so there is no channel
		// operation to amortize with chunking.
		for i, data := range frames {
			if !m.stealDeliver(data, ts) {
				m.received.Add(uint64(i + 1))
				return i
			}
		}
		m.received.Add(uint64(len(frames)))
		return len(frames)
	}
	if len(m.inputs) > 1 {
		for i, data := range frames {
			select {
			case m.rxQueue(data) <- rawBurst{single: rawFrame{data: data, ts: ts}}:
			default:
				m.received.Add(uint64(i + 1))
				m.collectDrops.Add(1)
				return i
			}
		}
		m.received.Add(uint64(len(frames)))
		return len(frames)
	}
	q := m.inputs[0]
	sent := 0
	for sent < len(frames) {
		n := m.cfg.BurstSize
		if len(frames)-sent < n {
			n = len(frames) - sent
		}
		chunk := m.getFrameSlice()
		for _, data := range frames[sent : sent+n] {
			chunk = append(chunk, rawFrame{data: data, ts: ts})
		}
		select {
		case q <- rawBurst{frames: chunk}:
			sent += n
		default:
			m.putFrameSlice(chunk)
			m.received.Add(uint64(sent + n))
			m.collectDrops.Add(uint64(n))
			return sent
		}
	}
	m.received.Add(uint64(sent))
	return sent
}

// rxQueue steers a frame to its collector's RX queue by RSS hash, with the
// same hot-shard fallback as the steal path (steal.go steerIdx): when the
// pair hash funnels traffic into one near-full queue while the least-loaded
// queue sits nearly idle, steering latches to the port-aware canonical
// 5-tuple hash so one elephant src/dst pair cannot idle every other
// collector.
func (m *Monitor) rxQueue(data []byte) chan rawBurst {
	if len(m.inputs) == 1 {
		return m.inputs[0]
	}
	n := uint64(len(m.inputs))
	if m.hotSteer.Load() {
		return m.inputs[rss5Hash(data)%n]
	}
	q := m.inputs[rssHash(data)%n]
	if occ := len(q); occ >= cap(q)/2 {
		min := occ
		for _, in := range m.inputs {
			if l := len(in); l < min {
				min = l
			}
		}
		if min*8 <= occ {
			if m.hotSteer.CompareAndSwap(false, true) {
				m.hotFallbacks.Add(1)
			}
			return m.inputs[rss5Hash(data)%n]
		}
	}
	return q
}

// rssHash hashes the IPv4 source/destination address bytes at their fixed
// offsets in an untagged Ethernet frame (what symmetric hardware RSS does).
// The two addresses are hashed independently and combined commutatively so
// both directions of a connection land on the same collector — stateful
// parsers then see each conversation in order. Each address is consumed as
// one 4-byte load fed through a multiply-shift finalizer; this runs on
// every delivered frame, before any queueing. Frames too short for an IPv4
// header hash over their whole contents.
func rssHash(data []byte) uint64 {
	const srcOff, dstOff = 26, 30
	if len(data) < dstOff+4 {
		return fnv64(data)
	}
	return mix32(binary.BigEndian.Uint32(data[srcOff:srcOff+4])) ^
		mix32(binary.BigEndian.Uint32(data[dstOff:dstOff+4]))
}

// mix32 finalizes one 32-bit word into a well-distributed 64-bit hash with
// two 64-bit multiplies (splitmix64's finalizer), replacing the former
// byte-at-a-time FNV loop on the per-frame fast path.
func mix32(v uint32) uint64 {
	h := (uint64(v) + 0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// fnv64 is the short-frame fallback hash: FNV-1a consuming 4-byte words
// while it can, then the remaining tail bytes one at a time so ordering of
// every byte still matters.
func fnv64(b []byte) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for len(b) >= 4 {
		h ^= uint64(binary.BigEndian.Uint32(b))
		h *= prime64
		b = b[4:]
	}
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// SetSampleRate updates the admitted fraction of flows, clamped to [0, 1].
func (m *Monitor) SetSampleRate(rate float64) {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	m.sampleThreshold.Store(uint64(rate * math.MaxUint32))
}

// SampleRate returns the current admitted fraction of flows.
func (m *Monitor) SampleRate() float64 {
	return float64(m.sampleThreshold.Load()) / math.MaxUint32
}

// PerParserTuples snapshots how many tuples each parser has emitted.
func (m *Monitor) PerParserTuples() map[string]uint64 {
	return m.out.perParserCounts()
}

// Stats returns a snapshot of the monitor counters.
func (m *Monitor) Stats() Stats {
	s := Stats{
		Received:     m.received.Value(),
		CollectDrops: m.collectDrops.Value(),
		Sampled:      m.sampled.Value(),
		Malformed:    m.malformed.Value(),
		Dispatched:   m.dispatched.Value(),
		ParserDrops:  m.parserDrops.Value(),
		Steals:       m.steals.Value(),
		StealFrames:  m.stealFrames.Value(),
		Redirects:    m.redirects.Value(),
		HotFallbacks: m.hotFallbacks.Value(),
	}
	s.Tuples = m.out.tuples.Value()
	s.Batches = m.out.batches.Value()
	s.SinkErrors = m.out.sinkErrors.Value()
	return s
}

// runCollector is the Collector of Fig. 3 in burst mode: it blocks for one
// RX slot, then greedily drains its queue until at least BurstSize frames
// have been decoded into a reusable descriptor scratch slice, and
// dispatches the whole burst at once.
func (m *Monitor) runCollector(input <-chan rawBurst) {
	defer m.wg.Done()
	defer m.collectorWG.Done()

	// Scratch holds up to one slot's overshoot past BurstSize, since a
	// drained chunk may carry up to BurstSize frames of its own.
	burst := make([]*Packet, 0, 2*m.cfg.BurstSize)
	groups := make([][]*Packet, m.cfg.WorkersPerParser)
	for {
		rb, ok := <-input
		if !ok {
			return
		}
		burst = m.decodeBurst(rb, burst[:0])
	drain:
		for len(burst) < m.cfg.BurstSize {
			select {
			case rb, ok := <-input:
				if !ok {
					m.dispatchBurst(burst, groups)
					return
				}
				burst = m.decodeBurst(rb, burst)
			default:
				break drain
			}
		}
		m.dispatchBurst(burst, groups)
	}
}

// decodeBurst decodes one RX slot's frames into the scratch slice,
// returning the chunk's carrier to the frame pool.
func (m *Monitor) decodeBurst(rb rawBurst, scratch []*Packet) []*Packet {
	if rb.frames == nil {
		if pkt := m.decodeFrame(rb.single); pkt != nil {
			scratch = append(scratch, pkt)
		}
		return scratch
	}
	for _, rf := range rb.frames {
		if pkt := m.decodeFrame(rf); pkt != nil {
			scratch = append(scratch, pkt)
		}
	}
	m.putFrameSlice(rb.frames)
	return scratch
}

// decodeFrame decodes one frame into a pooled descriptor, applying the
// malformed and flow-sampling filters. It returns nil when a filter consumed
// the frame.
func (m *Monitor) decodeFrame(rf rawFrame) *Packet {
	pkt := m.getPacket()
	if err := pkt.Frame.Decode(rf.data); err != nil {
		m.malformed.Add(1)
		m.putPacket(pkt)
		return nil
	}
	ft, ok := pkt.Frame.FlowTuple()
	if !ok {
		m.malformed.Add(1)
		m.putPacket(pkt)
		return nil
	}
	pkt.Tuple = ft
	pkt.FlowID = ft.CanonicalHash()
	pkt.TS = rf.ts

	if pkt.FlowID>>32 > m.sampleThreshold.Load() {
		m.sampled.Add(1)
		m.putPacket(pkt)
		return nil
	}
	return pkt
}

// dispatchBurst fans one decoded burst out to the parser workers.
// Descriptors are grouped by worker index (FlowID % workers — the same
// mapping single-packet dispatch used, so flow affinity survives burst
// grouping) and each group crosses a worker channel as one operation.
// groups is collector-owned scratch, recycled across bursts.
func (m *Monitor) dispatchBurst(burst []*Packet, groups [][]*Packet) {
	if len(burst) == 0 {
		return
	}
	// One parser-set snapshot covers the whole burst: refcounts and fan-out
	// must agree even if AddParsers publishes a new set mid-burst.
	parsers := *m.parsers.Load()
	if m.cfg.CopyMode {
		for _, pkt := range burst {
			m.dispatchCopies(pkt, parsers)
		}
		return
	}

	// Shared-descriptor fast path: one refcount store per packet covers all
	// parsers; the descriptor returns to the pool when the last worker is
	// done with it.
	nParsers := int32(len(parsers))
	if len(groups) == 1 {
		for _, pkt := range burst {
			pkt.refs.Store(nParsers)
		}
		for _, rt := range parsers {
			m.sendGroup(rt.workers[0], burst)
		}
		return
	}
	for _, pkt := range burst {
		pkt.refs.Store(nParsers)
		w := pkt.FlowID % uint64(len(groups))
		groups[w] = append(groups[w], pkt)
	}
	for w, group := range groups {
		if len(group) == 0 {
			continue
		}
		for _, rt := range parsers {
			m.sendGroup(rt.workers[w], group)
		}
		groups[w] = group[:0]
	}
}

// sendGroup ships one worker's share of a burst as a single channel
// operation. The group is copied into a pooled slice the worker returns
// after processing; a full worker queue drops the whole group, releasing
// one reference per descriptor.
func (m *Monitor) sendGroup(w chan []*Packet, group []*Packet) {
	sl := append(m.getBurstSlice(), group...)
	select {
	case w <- sl:
		m.dispatched.Add(uint64(len(group)))
	default:
		m.parserDrops.Add(uint64(len(group)))
		for _, pkt := range group {
			pkt.release()
		}
		m.putBurstSlice(sl)
	}
}

// dispatchCopies is the ablation path: each parser receives its own decoded
// copy of the frame, as a copying monitor design would. Copies that fail to
// re-decode count as malformed, like any other undecodable frame.
func (m *Monitor) dispatchCopies(pkt *Packet, parsers []*parserRuntime) {
	raw := pkt.Frame.Raw
	for _, rt := range parsers {
		cp := m.getPacket()
		data := make([]byte, len(raw))
		copy(data, raw)
		if err := cp.Frame.Decode(data); err != nil {
			m.malformed.Add(1)
			m.putPacket(cp)
			continue
		}
		cp.Tuple = pkt.Tuple
		cp.FlowID = pkt.FlowID
		cp.TS = pkt.TS
		cp.refs.Store(1)
		w := rt.workers[cp.FlowID%uint64(len(rt.workers))]
		sl := append(m.getBurstSlice(), cp)
		select {
		case w <- sl:
			m.dispatched.Add(1)
		default:
			m.parserDrops.Add(1)
			m.putPacket(cp)
			m.putBurstSlice(sl)
		}
	}
	m.putPacket(pkt)
}

func (m *Monitor) shutdownWorkers() {
	for _, rt := range *m.parsers.Load() {
		for _, w := range rt.workers {
			close(w)
		}
	}
}

// runWorker is one parser worker: it owns its parser instance, its output
// shard and the shard's linger timer, so nothing on the emit path is shared.
// It ships the shard when the linger of a non-full batch expires and at exit.
func (m *Monitor) runWorker(rt *parserRuntime, idx int, shard *outputShard) {
	defer m.wg.Done()
	inst := rt.insts[idx]
	emit := EmitFunc(shard.emit)
	in := rt.workers[idx]
	for {
		select {
		case sl, ok := <-in:
			if !ok {
				if fl, ok := inst.(Flusher); ok {
					fl.Flush(emit)
				}
				shard.linger.Stop()
				shard.flush()
				return
			}
			for _, pkt := range sl {
				inst.Handle(pkt, emit)
				pkt.release()
			}
			m.putBurstSlice(sl)
		case <-shard.linger.C:
			// The fire may belong to a batch that has since shipped full (go.mod
			// says go 1.22, so Reset leaves a fired value in the channel): then
			// the shard is empty, or holds a younger batch that ships early.
			shard.flush()
		}
	}
}

// outputBatcher is the Output Interface of Fig. 3: what the workers' output
// shards share — batch size, sink, counters — and the shard registry the
// per-parser counts are read from. Its mutex guards only that registry.
type outputBatcher struct {
	batchSize int
	sink      Sink
	// tracer, when non-nil, samples tuples on the emit path for the
	// stage-latency breakdown. It is left nil for a disabled tracer so the
	// per-tuple cost of tracing-off is a single nil check.
	tracer *telemetry.Tracer

	mu     sync.Mutex
	shards []*outputShard

	// tuples counts tuples shipped to the sink. Registry-backed (like
	// batches), so a failover replacement with the same labels resumes the
	// series and query-level stats stay cumulative across monitor restarts —
	// the property the chaos ledger's tuple equation depends on.
	tuples     *telemetry.Counter
	batches    *telemetry.Counter
	sinkErrors *telemetry.Counter
}

// outputShard is one worker's private slice of the output interface. Only
// the owning worker touches pending and linger: it appends, ships full
// batches, arms the timer on a batch's first tuple and ships what is pending
// when the timer fires. Arming at batch start rather than flushing whenever
// the worker's queue idles means the timer never fires while batches fill
// faster than the linger, so a loaded monitor ships full batches only.
type outputShard struct {
	parser string
	out    *outputBatcher

	pending []tuple.Tuple
	linger  *time.Timer

	count atomic.Uint64 // tuples emitted through this shard
}

func newOutputBatcher(batchSize int, sink Sink) *outputBatcher {
	return &outputBatcher{
		batchSize:  batchSize,
		sink:       sink,
		tuples:     &telemetry.Counter{},
		batches:    &telemetry.Counter{},
		sinkErrors: &telemetry.Counter{},
	}
}

// newShard returns a registered output shard for one worker of the parser,
// its linger timer created stopped.
func (o *outputBatcher) newShard(parser string) *outputShard {
	s := &outputShard{parser: parser, out: o, linger: time.NewTimer(time.Hour)}
	s.linger.Stop()
	o.mu.Lock()
	o.shards = append(o.shards, s)
	o.mu.Unlock()
	return s
}

// emit appends one tuple to the shard and ships the batch when it is full.
// Shipped slices are handed to the sink and never reused, so sinks may
// retain them (the mq partition buffer does).
func (s *outputShard) emit(t tuple.Tuple) {
	t.Parser = s.parser
	s.count.Add(1)
	if s.out.tracer != nil {
		s.out.tracer.MaybeStamp(&t)
	}
	if s.pending == nil {
		s.pending = make([]tuple.Tuple, 0, s.out.batchSize)
	}
	s.pending = append(s.pending, t)
	switch len(s.pending) {
	case s.out.batchSize: // first, so that a batch size of 1 ships at once
		s.flush()
	case 1:
		s.linger.Reset(batchLinger)
	}
}

// flush ships whatever the shard holds. A running linger timer is left to
// fire on the empty shard or be re-armed by the next batch's first tuple:
// that is one timer operation per batch instead of two.
func (s *outputShard) flush() {
	if len(s.pending) == 0 {
		return
	}
	pending := s.pending
	s.pending = nil
	s.out.ship(s.parser, pending)
}

func (o *outputBatcher) perParserCounts() map[string]uint64 {
	o.mu.Lock()
	shards := o.shards
	o.mu.Unlock()
	out := make(map[string]uint64)
	for _, s := range shards {
		out[s.parser] += s.count.Load()
	}
	return out
}

func (o *outputBatcher) ship(parser string, tuples []tuple.Tuple) {
	b := &tuple.Batch{Parser: parser, Tuples: tuples}
	// Counted whether or not the sink accepts: a rejected batch is still
	// attributed downstream (the mq producer books it as dropped tuples), so
	// shipped = appended + dropped holds across sink errors too.
	o.tuples.Add(uint64(len(tuples)))
	if err := o.sink.Deliver(b); err != nil {
		o.sinkErrors.Add(1)
		return
	}
	o.batches.Add(1)
}

// AIMDSampler implements the feedback-driven sampling of §4.2: on overload
// reports from the aggregation layer it halves the monitor's sample rate
// (multiplicative decrease); on healthy reports it raises the rate additively
// until sampling is effectively off again.
type AIMDSampler struct {
	mon SampleTarget
	// MinRate floors the sample rate (default 0.01).
	MinRate float64
	// Step is the additive recovery increment (default 0.05).
	Step float64
}

// SampleTarget is anything whose flow-sampling rate the AIMD controller can
// drive: a Monitor in the dedicated-tap path, or one query's demux
// subscription on a shared monitor.
type SampleTarget interface {
	SampleRate() float64
	SetSampleRate(float64)
}

// NewAIMDSampler wraps a sample target with the feedback controller.
func NewAIMDSampler(m SampleTarget) *AIMDSampler {
	return &AIMDSampler{mon: m, MinRate: 0.01, Step: 0.05}
}

// OnStatus feeds one aggregation-layer status report into the controller.
func (a *AIMDSampler) OnStatus(overloaded bool) {
	rate := a.mon.SampleRate()
	if overloaded {
		rate /= 2
		if rate < a.MinRate {
			rate = a.MinRate
		}
	} else {
		rate += a.Step
		if rate > 1 {
			rate = 1
		}
	}
	a.mon.SetSampleRate(rate)
}
