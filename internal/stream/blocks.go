package stream

import (
	"encoding/json"
	"sort"
	"time"

	"netalytics/internal/tuple"
)

// This file implements the common NetAlytics topology building blocks of
// Table 2 (top-k, max/min, sum, avg, diff, group) plus the Fig. 4 top-k
// pipeline bolts (parsing, rolling count, local/global ranking, database).

// ParseBolt is Fig. 4's parsing bolt: it normalizes raw records into
// (signature, 1) pairs for the counting stage. Tuples without a key (e.g.
// HTTP response records) carry nothing to count and are dropped.
type ParseBolt struct{}

// Execute implements Bolt.
func (b *ParseBolt) Execute(t tuple.Tuple, emit EmitFunc) {
	if t.Key == "" {
		return
	}
	t.Val = 1
	emit(t)
}

// ExecuteBatch implements BatchBolt.
func (b *ParseBolt) ExecuteBatch(ts []tuple.Tuple, emit EmitFunc) {
	for i := range ts {
		b.Execute(ts[i], emit)
	}
}

// RollingCountBolt maintains per-key rolling counts over a window of slots,
// like the Storm-Starter rolling count bolt the paper builds on. Every
// Tick advances the window one slot and emits the current total per key.
type RollingCountBolt struct {
	slots   int
	current int
	counts  map[string][]float64
}

// NewRollingCountBolt creates a counting bolt with the given number of
// window slots (min 1); one slot advances per executor tick.
func NewRollingCountBolt(slots int) *RollingCountBolt {
	if slots < 1 {
		slots = 1
	}
	return &RollingCountBolt{slots: slots, counts: make(map[string][]float64)}
}

// Execute implements Bolt: it accumulates t.Val (or 1 when zero) for t.Key.
func (b *RollingCountBolt) Execute(t tuple.Tuple, emit EmitFunc) {
	ring, ok := b.counts[t.Key]
	if !ok {
		ring = make([]float64, b.slots)
		b.counts[t.Key] = ring
	}
	v := t.Val
	if v == 0 {
		v = 1
	}
	ring[b.current] += v
}

// ExecuteBatch implements BatchBolt: adjacent tuples for the same key (the
// common case after fields grouping) reuse one ring lookup.
func (b *RollingCountBolt) ExecuteBatch(ts []tuple.Tuple, emit EmitFunc) {
	var ring []float64
	var last string
	for i := range ts {
		t := &ts[i]
		if ring == nil || t.Key != last {
			var ok bool
			ring, ok = b.counts[t.Key]
			if !ok {
				ring = make([]float64, b.slots)
				b.counts[t.Key] = ring
			}
			last = t.Key
		}
		v := t.Val
		if v == 0 {
			v = 1
		}
		ring[b.current] += v
	}
}

// Tick implements Ticker: emit totals and advance the window.
func (b *RollingCountBolt) Tick(emit EmitFunc) {
	b.flush(emit)
	b.current = (b.current + 1) % b.slots
	for key, ring := range b.counts {
		ring[b.current] = 0
		total := 0.0
		for _, v := range ring {
			total += v
		}
		if total == 0 {
			delete(b.counts, key)
		}
	}
}

// Cleanup implements Cleaner.
func (b *RollingCountBolt) Cleanup(emit EmitFunc) { b.flush(emit) }

func (b *RollingCountBolt) flush(emit EmitFunc) {
	for key, ring := range b.counts {
		total := 0.0
		for _, v := range ring {
			total += v
		}
		if total > 0 {
			emit(tuple.Tuple{Key: key, Val: total})
		}
	}
}

// RankEntry is one entry of a ranking.
type RankEntry struct {
	Key   string  `json:"key"`
	Count float64 `json:"count"`
}

// RankingsKey marks tuples whose Key field carries a JSON-encoded
// []RankEntry produced by a ranking bolt.
const RankingsKey = "__rankings__"

// EncodeRankings packs entries into a tuple understood by DatabaseBolt.
func EncodeRankings(entries []RankEntry) tuple.Tuple {
	data, err := json.Marshal(entries)
	if err != nil {
		// []RankEntry always marshals; keep the signature clean.
		panic("stream: encoding rankings: " + err.Error())
	}
	return tuple.Tuple{Key: string(data), SrcIP: RankingsKey, Val: float64(len(entries))}
}

// DecodeRankings unpacks a rankings tuple; ok is false for other tuples.
func DecodeRankings(t tuple.Tuple) ([]RankEntry, bool) {
	if t.SrcIP != RankingsKey {
		return nil, false
	}
	var entries []RankEntry
	if err := json.Unmarshal([]byte(t.Key), &entries); err != nil {
		return nil, false
	}
	return entries, true
}

// RankBolt keeps the top-k of the (key, count) pairs it has seen since the
// last tick. Intermediate rankers run with fields grouping (each sees a key
// subset); a final ranker runs with global grouping and merges.
type RankBolt struct {
	k      int
	latest map[string]float64
}

// NewRankBolt creates a ranker retaining the top k keys.
func NewRankBolt(k int) *RankBolt {
	if k < 1 {
		k = 1
	}
	return &RankBolt{k: k, latest: make(map[string]float64)}
}

// Execute implements Bolt: counts arrive either as plain (key, val) pairs
// from a counting bolt or as encoded rankings from an intermediate ranker.
func (b *RankBolt) Execute(t tuple.Tuple, emit EmitFunc) {
	if entries, ok := DecodeRankings(t); ok {
		for _, e := range entries {
			b.latest[e.Key] = e.Count
		}
		return
	}
	b.latest[t.Key] = t.Val
}

// Tick implements Ticker: emit the current top-k and reset.
func (b *RankBolt) Tick(emit EmitFunc) { b.flush(emit) }

// Cleanup implements Cleaner.
func (b *RankBolt) Cleanup(emit EmitFunc) { b.flush(emit) }

func (b *RankBolt) flush(emit EmitFunc) {
	if len(b.latest) == 0 {
		return
	}
	emit(EncodeRankings(topEntries(b.latest, b.k)))
	clear(b.latest)
}

// rankWeaker orders rank entries by selection priority: a is weaker than b
// when it ranks lower (smaller count, or equal count with the greater key —
// the inverse of the emitted count-desc/key-asc order).
func rankWeaker(a, b RankEntry) bool {
	if a.Count != b.Count {
		return a.Count < b.Count
	}
	return a.Key > b.Key
}

// topEntries selects the k strongest entries of m in emission order. It
// keeps a bounded min-heap of size k — the weakest retained entry at the
// root — so selection costs O(n log k) instead of the O(n log n) full sort
// that dominated rank flushes at large key counts.
func topEntries(m map[string]float64, k int) []RankEntry {
	if k > len(m) {
		k = len(m)
	}
	heap := make([]RankEntry, 0, k)
	for key, count := range m {
		e := RankEntry{Key: key, Count: count}
		if len(heap) < k {
			heap = append(heap, e)
			// Sift up.
			for i := len(heap) - 1; i > 0; {
				parent := (i - 1) / 2
				if !rankWeaker(heap[i], heap[parent]) {
					break
				}
				heap[i], heap[parent] = heap[parent], heap[i]
				i = parent
			}
			continue
		}
		if !rankWeaker(heap[0], e) {
			continue
		}
		// Replace the weakest retained entry and sift down.
		heap[0] = e
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < k && rankWeaker(heap[l], heap[min]) {
				min = l
			}
			if r < k && rankWeaker(heap[r], heap[min]) {
				min = r
			}
			if min == i {
				break
			}
			heap[i], heap[min] = heap[min], heap[i]
			i = min
		}
	}
	sort.Slice(heap, func(i, j int) bool {
		if heap[i].Count != heap[j].Count {
			return heap[i].Count > heap[j].Count
		}
		return heap[i].Key < heap[j].Key
	})
	return heap
}

// DatabaseBolt is Fig. 4's terminal bolt: it stores each global top-k into a
// user callback (the paper uses Redis) — the hook automation like the §7.3
// replication Updater attaches to.
type DatabaseBolt struct {
	fn func([]RankEntry)
}

// NewDatabaseBolt creates a database bolt invoking fn for every ranking.
func NewDatabaseBolt(fn func([]RankEntry)) *DatabaseBolt {
	return &DatabaseBolt{fn: fn}
}

// Execute implements Bolt.
func (b *DatabaseBolt) Execute(t tuple.Tuple, emit EmitFunc) {
	if entries, ok := DecodeRankings(t); ok && b.fn != nil {
		b.fn(entries)
	}
}

// DiffBolt pairs "start" and "end" tuples sharing a flow ID and emits their
// difference — e.g. TCP connection duration from tcp_conn_time tuples.
//
// Tuples from other parsers sharing the flow ID (e.g. an http_get URL) are
// remembered as the flow's label, and the emitted diff carries that label as
// its key. This is the §7.2 join: combining network-level timing from one
// parser with application-level data from another via the tuple ID field.
type DiffBolt struct {
	startKey, endKey string
	starts           map[uint64]tuple.Tuple
	labels           map[uint64]string
	// pending holds completed diffs still waiting for their label: tuples
	// from different parsers ride different aggregation topics, so a flow's
	// URL may arrive after its FIN. Unlabeled diffs are held for one tick
	// and then emitted with the generic "diff" key.
	pending map[uint64]pendingDiff
}

type pendingDiff struct {
	t   tuple.Tuple
	age int
}

// NewDiffBolt creates a diff bolt pairing tuples with the given keys
// (defaults "start"/"end").
func NewDiffBolt(startKey, endKey string) *DiffBolt {
	if startKey == "" {
		startKey = "start"
	}
	if endKey == "" {
		endKey = "end"
	}
	return &DiffBolt{
		startKey: startKey,
		endKey:   endKey,
		starts:   make(map[uint64]tuple.Tuple),
		labels:   make(map[uint64]string),
		pending:  make(map[uint64]pendingDiff),
	}
}

// Execute implements Bolt.
func (b *DiffBolt) Execute(t tuple.Tuple, emit EmitFunc) {
	switch t.Key {
	case b.startKey:
		b.starts[t.FlowID] = t
	case b.endKey:
		start, ok := b.starts[t.FlowID]
		if !ok {
			return
		}
		delete(b.starts, t.FlowID)
		out := t
		out.Key = "diff"
		out.Val = t.Val - start.Val
		if label, ok := b.labels[t.FlowID]; ok {
			out.Key = label
			delete(b.labels, t.FlowID)
			emit(out)
			return
		}
		b.pending[t.FlowID] = pendingDiff{t: out}
	case "":
		// Unlabeled tuple (e.g. an HTTP response): nothing to join on.
	default:
		if pd, ok := b.pending[t.FlowID]; ok {
			delete(b.pending, t.FlowID)
			pd.t.Key = t.Key
			emit(pd.t)
			return
		}
		b.labels[t.FlowID] = t.Key
	}
}

// Tick implements Ticker: pending diffs that outlived a full tick without a
// label are emitted with the generic key.
func (b *DiffBolt) Tick(emit EmitFunc) {
	for id, pd := range b.pending {
		pd.age++
		if pd.age >= 2 {
			delete(b.pending, id)
			emit(pd.t)
			continue
		}
		b.pending[id] = pd
	}
}

// Cleanup implements Cleaner: flush every pending diff.
func (b *DiffBolt) Cleanup(emit EmitFunc) {
	for id, pd := range b.pending {
		delete(b.pending, id)
		emit(pd.t)
	}
}

// Agg selects a GroupBolt aggregation.
type Agg int

// Supported aggregations.
const (
	AggSum Agg = iota + 1
	AggAvg
	AggMax
	AggMin
	AggCount
)

// GroupBolt groups tuples by an attribute and aggregates their values,
// emitting one (group, aggregate) tuple per group on every tick. It
// implements the paper's group/sum/avg/max/min blocks in one parameterized
// bolt; convenience constructors below give each block its Table 2 name.
type GroupBolt struct {
	attr    string
	agg     Agg
	rolling bool // reset accumulators after each tick

	sums   map[string]float64
	counts map[string]float64
	exts   map[string]float64
}

// NewGroupBolt creates a grouping bolt. attr "" groups everything into one
// group named "all". When rolling is true, accumulators reset at each tick;
// otherwise aggregates are cumulative and emitted on tick and cleanup.
func NewGroupBolt(attr string, agg Agg, rolling bool) *GroupBolt {
	if agg == 0 {
		agg = AggSum
	}
	return &GroupBolt{
		attr:    attr,
		agg:     agg,
		rolling: rolling,
		sums:    make(map[string]float64),
		counts:  make(map[string]float64),
		exts:    make(map[string]float64),
	}
}

// NewSumBolt returns the Table 2 "sum" block grouped by attr.
func NewSumBolt(attr string) *GroupBolt { return NewGroupBolt(attr, AggSum, false) }

// NewAvgBolt returns the Table 2 "avg" block grouped by attr.
func NewAvgBolt(attr string) *GroupBolt { return NewGroupBolt(attr, AggAvg, false) }

// NewMaxBolt returns the Table 2 "max" block grouped by attr.
func NewMaxBolt(attr string) *GroupBolt { return NewGroupBolt(attr, AggMax, false) }

// NewMinBolt returns the Table 2 "min" block grouped by attr.
func NewMinBolt(attr string) *GroupBolt { return NewGroupBolt(attr, AggMin, false) }

// Execute implements Bolt.
func (b *GroupBolt) Execute(t tuple.Tuple, emit EmitFunc) {
	group := "all"
	if b.attr != "" {
		if g := t.Attr(b.attr); g != "" {
			group = g
		}
	}
	b.counts[group]++
	b.sums[group] += t.Val
	ext, seen := b.exts[group]
	switch b.agg {
	case AggMax:
		if !seen || t.Val > ext {
			b.exts[group] = t.Val
		}
	case AggMin:
		if !seen || t.Val < ext {
			b.exts[group] = t.Val
		}
	}
}

// ExecuteBatch implements BatchBolt.
func (b *GroupBolt) ExecuteBatch(ts []tuple.Tuple, emit EmitFunc) {
	for i := range ts {
		b.Execute(ts[i], emit)
	}
}

// Tick implements Ticker.
func (b *GroupBolt) Tick(emit EmitFunc) {
	b.flush(emit)
	if b.rolling {
		clear(b.sums)
		clear(b.counts)
		clear(b.exts)
	}
}

// Cleanup implements Cleaner.
func (b *GroupBolt) Cleanup(emit EmitFunc) { b.flush(emit) }

func (b *GroupBolt) flush(emit EmitFunc) {
	for group, n := range b.counts {
		if n == 0 {
			continue
		}
		var v float64
		switch b.agg {
		case AggAvg:
			v = b.sums[group] / n
		case AggMax, AggMin:
			v = b.exts[group]
		case AggCount:
			v = n
		default:
			v = b.sums[group]
		}
		emit(tuple.Tuple{Key: group, Val: v})
	}
}

// JoinBolt correlates tuples from two parsers by flow ID — the explicit
// join operation §3.4 leaves as future work. Left tuples label the flow
// (e.g. an http_get URL); each right tuple seen for a labeled flow is
// re-emitted with the label as its key, so downstream grouping can pivot
// network-layer measurements by application-layer attributes.
type JoinBolt struct {
	leftParser  string
	rightParser string
	labels      map[uint64]string
	// pendingRight buffers right tuples whose label has not arrived yet:
	// topics are not ordered across parsers, and a short flow's packets can
	// all be batched before its label flushes. Pending tuples are evicted
	// after maxAge ticks.
	pendingRight map[uint64]*pendingJoin
	maxAge       int
}

type pendingJoin struct {
	tuples []tuple.Tuple
	age    int
}

// joinPendingTicks is how many executor ticks a right tuple waits for its
// label; it must comfortably exceed the monitors' batch flush interval.
const joinPendingTicks = 20

// NewJoinBolt creates a join of rightParser tuples against leftParser
// labels.
func NewJoinBolt(leftParser, rightParser string) *JoinBolt {
	return &JoinBolt{
		leftParser:   leftParser,
		rightParser:  rightParser,
		labels:       make(map[uint64]string),
		pendingRight: make(map[uint64]*pendingJoin),
		maxAge:       joinPendingTicks,
	}
}

// Execute implements Bolt.
func (b *JoinBolt) Execute(t tuple.Tuple, emit EmitFunc) {
	switch t.Parser {
	case b.leftParser:
		if t.Key == "" {
			return
		}
		b.labels[t.FlowID] = t.Key
		if pend, ok := b.pendingRight[t.FlowID]; ok {
			delete(b.pendingRight, t.FlowID)
			for _, rt := range pend.tuples {
				rt.Key = t.Key
				emit(rt)
			}
		}
	case b.rightParser:
		if label, ok := b.labels[t.FlowID]; ok {
			t.Key = label
			emit(t)
			return
		}
		pend, ok := b.pendingRight[t.FlowID]
		if !ok {
			pend = &pendingJoin{}
			b.pendingRight[t.FlowID] = pend
		}
		pend.tuples = append(pend.tuples, t)
	}
}

// Tick implements Ticker: right tuples that never find a label are dropped
// after maxAge ticks so state stays bounded.
func (b *JoinBolt) Tick(emit EmitFunc) {
	for id, pend := range b.pendingRight {
		pend.age++
		if pend.age >= b.maxAge {
			delete(b.pendingRight, id)
		}
	}
}

// Cleanup implements Cleaner: at shutdown, pending rights get one last
// chance against the labels that have arrived.
func (b *JoinBolt) Cleanup(emit EmitFunc) {
	for id, pend := range b.pendingRight {
		if label, ok := b.labels[id]; ok {
			for _, rt := range pend.tuples {
				rt.Key = label
				emit(rt)
			}
		}
		delete(b.pendingRight, id)
	}
}

// PercentileBolt groups tuples by an attribute and emits latency-style
// percentile summaries per group on each tick — the building block behind
// server-side CDF queries (Figs. 12–15 compute these client-side; this bolt
// moves the reduction into the topology). Each emitted tuple carries the
// group in Key, the percentile in SrcPort (e.g. 50, 95, 99) and the value
// in Val.
type PercentileBolt struct {
	attr        string
	percentiles []float64
	rolling     bool
	maxSamples  int
	rngState    uint64
	samples     map[string][]float64
	seen        map[string]uint64 // samples offered per group (reservoir index)
}

// DefaultMaxPercentileSamples caps each group's sample buffer. Past the cap,
// reservoir sampling (Vitter's Algorithm R) keeps a uniform sample of the
// group's history, so percentiles stay unbiased estimates while memory stays
// bounded — cumulative-mode bolts on long soaks used to grow without bound.
const DefaultMaxPercentileSamples = 4096

// NewPercentileBolt creates a percentile bolt over the given group attribute
// ("" = one global group) and percentile list (default 50, 95, 99).
func NewPercentileBolt(attr string, percentiles []float64) *PercentileBolt {
	if len(percentiles) == 0 {
		percentiles = []float64{50, 95, 99}
	}
	return &PercentileBolt{
		attr:        attr,
		percentiles: percentiles,
		maxSamples:  DefaultMaxPercentileSamples,
		rngState:    0x9e3779b97f4a7c15,
		samples:     make(map[string][]float64),
		seen:        make(map[string]uint64),
	}
}

// SetRolling makes each tick's summary cover only that window's samples:
// the sample buffers reset after every flush instead of accumulating for the
// query's lifetime.
func (b *PercentileBolt) SetRolling(rolling bool) { b.rolling = rolling }

// SetMaxSamples overrides the per-group reservoir capacity (min 1). Larger
// reservoirs tighten tail percentiles at the cost of memory.
func (b *PercentileBolt) SetMaxSamples(n int) {
	if n >= 1 {
		b.maxSamples = n
	}
}

// nextRand is xorshift64*: deterministic, allocation-free randomness for the
// reservoir (bolts are per-task, so no locking and no global rng contention).
func (b *PercentileBolt) nextRand() uint64 {
	x := b.rngState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	b.rngState = x
	return x * 0x2545f4914f6cdd1d
}

// Execute implements Bolt.
func (b *PercentileBolt) Execute(t tuple.Tuple, emit EmitFunc) {
	group := "all"
	if b.attr != "" {
		if g := t.Attr(b.attr); g != "" {
			group = g
		}
	}
	b.seen[group]++
	buf := b.samples[group]
	if len(buf) < b.maxSamples {
		b.samples[group] = append(buf, t.Val)
		return
	}
	// Reservoir full: replace a uniformly chosen slot with probability
	// cap/seen, keeping the retained set a uniform sample of the history.
	if j := b.nextRand() % b.seen[group]; j < uint64(b.maxSamples) {
		buf[j] = t.Val
	}
}

// Tick implements Ticker.
func (b *PercentileBolt) Tick(emit EmitFunc) { b.flush(emit) }

// Cleanup implements Cleaner.
func (b *PercentileBolt) Cleanup(emit EmitFunc) { b.flush(emit) }

func (b *PercentileBolt) flush(emit EmitFunc) {
	for group, vals := range b.samples {
		if len(vals) == 0 {
			continue
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		for _, p := range b.percentiles {
			emit(tuple.Tuple{
				Key:     group,
				SrcPort: uint16(p),
				Val:     percentileOf(sorted, p),
			})
		}
		if b.rolling {
			delete(b.samples, group)
			delete(b.seen, group)
		}
	}
}

// percentileOf returns the p-th percentile of sorted samples by linear
// interpolation.
func percentileOf(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// CallbackBolt invokes fn for every tuple; it is the usual terminal node
// delivering results to the query session.
type CallbackBolt struct {
	fn func(tuple.Tuple)
}

// NewCallbackBolt wraps fn as a bolt.
func NewCallbackBolt(fn func(tuple.Tuple)) *CallbackBolt {
	return &CallbackBolt{fn: fn}
}

// Execute implements Bolt.
func (b *CallbackBolt) Execute(t tuple.Tuple, emit EmitFunc) {
	if b.fn != nil {
		b.fn(t)
	}
}

// ExecuteBatch implements BatchBolt.
func (b *CallbackBolt) ExecuteBatch(ts []tuple.Tuple, emit EmitFunc) {
	if b.fn == nil {
		return
	}
	for i := range ts {
		b.fn(ts[i])
	}
}

// BatchPoller abstracts the aggregation layer a KafkaSpout pulls from;
// *mq.Consumer satisfies it.
type BatchPoller interface {
	Poll(max int) []*tuple.Batch
}

// WaitPoller is a BatchPoller that can block until data arrives instead of
// returning empty; *mq.Consumer satisfies it via its wakeup-driven PollWait.
type WaitPoller interface {
	BatchPoller
	PollWait(max int, timeout time.Duration, stop <-chan struct{}) []*tuple.Batch
}

// FlattenBatches copies polled batches into one contiguous tuple slice —
// the shape spouts hand to the executor's batch path.
func FlattenBatches(batches []*tuple.Batch) []tuple.Tuple {
	if len(batches) == 0 {
		return nil
	}
	n := 0
	for _, b := range batches {
		n += len(b.Tuples)
	}
	out := make([]tuple.Tuple, 0, n)
	for _, b := range batches {
		out = append(out, b.Tuples...)
	}
	return out
}

// KafkaSpout adapts an aggregation-layer consumer into a spout (the Kafka
// spouts of Fig. 4).
type KafkaSpout struct {
	poller BatchPoller
	max    int
}

// NewKafkaSpout wraps a consumer; max bounds batches per Next call.
func NewKafkaSpout(poller BatchPoller, max int) *KafkaSpout {
	if max < 1 {
		max = 16
	}
	return &KafkaSpout{poller: poller, max: max}
}

// Next implements Spout.
func (s *KafkaSpout) Next() []tuple.Tuple {
	return FlattenBatches(s.poller.Poll(s.max))
}

// NextWait implements WaitSpout: when the poller supports blocking polls
// (mq consumers do) the spout parks in it; otherwise it falls back to a
// short sleep-then-poll so behavior degrades to the old retry loop.
func (s *KafkaSpout) NextWait(stop <-chan struct{}, timeout time.Duration) []tuple.Tuple {
	if wp, ok := s.poller.(WaitPoller); ok {
		return FlattenBatches(wp.PollWait(s.max, timeout, stop))
	}
	if timeout > time.Millisecond {
		timeout = time.Millisecond
	}
	time.Sleep(timeout)
	return s.Next()
}
