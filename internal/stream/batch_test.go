package stream

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netalytics/internal/telemetry"
	"netalytics/internal/tuple"
)

// Tests for the batch-vectorized executor: routing parity with the per-tuple
// path, flush/drain guarantees, the allocation-free fields hash, the
// tuples-in-flight QueueLag, and the WaitSpout/BatchBolt fast paths.

// taskRecorder hands out recording bolts and remembers which task instance
// saw which keys. Start instantiates tasks in index order, so the n-th
// factory call is task n.
type taskRecorder struct {
	mu   sync.Mutex
	next int
	seen map[int][]string
}

func newTaskRecorder() *taskRecorder {
	return &taskRecorder{seen: make(map[int][]string)}
}

func (r *taskRecorder) factory() func() Bolt {
	return func() Bolt {
		r.mu.Lock()
		id := r.next
		r.next++
		r.mu.Unlock()
		return BoltFunc(func(t tuple.Tuple, emit EmitFunc) {
			r.mu.Lock()
			r.seen[id] = append(r.seen[id], t.Key)
			r.mu.Unlock()
		})
	}
}

// snapshot returns each task's sorted key multiset.
func (r *taskRecorder) snapshot() map[int][]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[int][]string, len(r.seen))
	for id, keys := range r.seen {
		cp := append([]string(nil), keys...)
		sort.Strings(cp)
		out[id] = cp
	}
	return out
}

// routeSnapshot runs one spout against three bolts — one per grouping — at
// the given batch size and returns the per-task key multisets.
func routeSnapshot(t *testing.T, batchSize int) map[string]map[int][]string {
	t.Helper()
	tuples := make([]tuple.Tuple, 500)
	for i := range tuples {
		tuples[i] = tuple.Tuple{FlowID: uint64(i), Key: fmt.Sprintf("key-%d", i%53), Val: 1}
	}
	recs := map[string]*taskRecorder{
		"shuffle": newTaskRecorder(),
		"fields":  newTaskRecorder(),
		"global":  newTaskRecorder(),
	}
	topo := NewTopology("parity")
	if err := topo.AddSpout("src", func() Spout { return &sliceSpout{tuples: tuples} }, 1); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddBolt("shuffle", recs["shuffle"].factory(), 3).ShuffleFrom("src").Err(); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddBolt("fields", recs["fields"].factory(), 3).FieldsFrom("src", "").Err(); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddBolt("global", recs["global"].factory(), 3).GlobalFrom("src").Err(); err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(topo, WithBatchSize(batchSize), WithTickInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ex.Start()
	time.Sleep(20 * time.Millisecond)
	ex.Stop()

	out := make(map[string]map[int][]string)
	for name, rec := range recs {
		out[name] = rec.snapshot()
	}
	return out
}

// TestBatchSingleParity pins the vectorized executor to the per-tuple
// routing semantics: for every grouping, each task must receive exactly the
// same tuple multiset regardless of batch size (batch 1 is the
// pre-vectorization behavior; 7 exercises ragged sub-batches; 32 the
// default).
func TestBatchSingleParity(t *testing.T) {
	base := routeSnapshot(t, 1)
	for _, size := range []int{7, 32} {
		got := routeSnapshot(t, size)
		for grouping, tasks := range base {
			if !reflect.DeepEqual(tasks, got[grouping]) {
				t.Errorf("batch %d: %s grouping per-task multisets differ from batch 1:\nbatch 1: %v\nbatch %d: %v",
					size, grouping, tasks, size, got[grouping])
			}
		}
	}
}

// raggedSpout emits a fixed tuple list across polls of varying sizes, so
// sub-batch buffers fill and flush at awkward boundaries.
type raggedSpout struct {
	mu     sync.Mutex
	tuples []tuple.Tuple
	off    int
	step   int
}

func (s *raggedSpout) Next() []tuple.Tuple {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.off >= len(s.tuples) {
		return nil
	}
	s.step = s.step%11 + 1 // poll sizes cycle 1..11
	end := s.off + s.step
	if end > len(s.tuples) {
		end = len(s.tuples)
	}
	out := s.tuples[s.off:end]
	s.off = end
	return out
}

// TestFieldsGroupingBatchBoundaries is the same-key-same-task property test:
// whatever the poll sizes and sub-batch boundaries, every key must land on
// exactly one task, and that task must be the one fieldHash assigns.
func TestFieldsGroupingBatchBoundaries(t *testing.T) {
	const tasks = 4
	tuples := make([]tuple.Tuple, 997)
	for i := range tuples {
		tuples[i] = tuple.Tuple{FlowID: uint64(i), Key: fmt.Sprintf("url-%d", i%89), Val: 1}
	}
	rec := newTaskRecorder()
	topo := NewTopology("fields-prop")
	if err := topo.AddSpout("src", func() Spout { return &raggedSpout{tuples: tuples} }, 1); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddBolt("count", rec.factory(), tasks).FieldsFrom("src", "").Err(); err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(topo, WithBatchSize(8), WithTickInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ex.Start()
	time.Sleep(30 * time.Millisecond)
	ex.Stop()

	owner := make(map[string]int)
	total := 0
	for id, keys := range rec.snapshot() {
		total += len(keys)
		for _, k := range keys {
			if prev, ok := owner[k]; ok && prev != id {
				t.Fatalf("key %q seen on tasks %d and %d", k, prev, id)
			}
			owner[k] = id
			tu := tuple.Tuple{Key: k}
			if want := int(fieldHash(&tu, "") % tasks); id != want {
				t.Fatalf("key %q on task %d, hash says %d", k, id, want)
			}
		}
	}
	if total != len(tuples) {
		t.Fatalf("received %d tuples, want %d", total, len(tuples))
	}
}

// TestStopDrainsPartialSubBatches checks the drain path: a tuple count that
// is not a multiple of the batch size leaves partially filled sub-batch
// buffers at both the spout and an intermediate bolt, and Stop must flush
// every one of them downstream — no tuple lost, none duplicated.
func TestStopDrainsPartialSubBatches(t *testing.T) {
	const n = 105 // 105 % 32 != 0 at every layer
	tuples := make([]tuple.Tuple, n)
	for i := range tuples {
		tuples[i] = tuple.Tuple{FlowID: uint64(i), Key: fmt.Sprintf("k%d", i)}
	}
	var mu sync.Mutex
	got := make(map[uint64]int)
	topo := NewTopology("drain")
	if err := topo.AddSpout("src", func() Spout { return &sliceSpout{tuples: tuples} }, 1); err != nil {
		t.Fatal(err)
	}
	relay := func() Bolt {
		return BoltFunc(func(t tuple.Tuple, emit EmitFunc) { emit(t) })
	}
	if err := topo.AddBolt("relay", relay, 3).ShuffleFrom("src").Err(); err != nil {
		t.Fatal(err)
	}
	sink := func() Bolt {
		return BoltFunc(func(t tuple.Tuple, emit EmitFunc) {
			mu.Lock()
			got[t.FlowID]++
			mu.Unlock()
		})
	}
	if err := topo.AddBolt("sink", sink, 2).FieldsFrom("relay", "flow").Err(); err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(topo, WithBatchSize(32), WithTickInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ex.Start()
	time.Sleep(20 * time.Millisecond)
	ex.Stop()

	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("sink saw %d distinct tuples, want %d", len(got), n)
	}
	for id, c := range got {
		if c != 1 {
			t.Fatalf("tuple %d delivered %d times", id, c)
		}
	}
}

// TestFieldHashMatchesFNV pins the inline hash to hash/fnv's FNV-1a so
// routing stays byte-for-byte compatible with the pre-vectorized executor.
func TestFieldHashMatchesFNV(t *testing.T) {
	for _, s := range []string{"", "a", "abc", "/videos/0001.mp4", strings.Repeat("x", 300)} {
		h := fnv.New64a()
		h.Write([]byte(s))
		tu := tuple.Tuple{Key: s}
		if got, want := fieldHash(&tu, ""), h.Sum64(); got != want {
			t.Errorf("fieldHash(%q) = %#x, fnv says %#x", s, got, want)
		}
	}
}

// TestFieldHashZeroAlloc is the acceptance criterion: hashing a routing key
// must not allocate (no hasher object, no string→[]byte copy).
func TestFieldHashZeroAlloc(t *testing.T) {
	tu := tuple.Tuple{Key: "/videos/0001.mp4", SrcIP: "10.0.0.1"}
	if a := testing.AllocsPerRun(200, func() { fieldHash(&tu, "") }); a != 0 {
		t.Errorf("fieldHash on Key allocates %.1f per run, want 0", a)
	}
	// Direct-field attributes (key, srcIP, ...) stay allocation-free too;
	// composite attributes like "pair" pay their own Sprintf regardless.
	if a := testing.AllocsPerRun(200, func() { fieldHash(&tu, "srcIP") }); a != 0 {
		t.Errorf("fieldHash on srcIP allocates %.1f per run, want 0", a)
	}
}

// TestQueueLagCountsTuples checks the new QueueLag semantics: it reports
// tuples in flight (queued between tasks plus executing), not channel
// occupancy, and returns to zero once the topology drains.
func TestQueueLagCountsTuples(t *testing.T) {
	const n = 64
	tuples := make([]tuple.Tuple, n)
	for i := range tuples {
		tuples[i] = tuple.Tuple{FlowID: uint64(i), Key: "k"}
	}
	gate := make(chan struct{})
	topo := NewTopology("lag")
	if err := topo.AddSpout("src", func() Spout { return &sliceSpout{tuples: tuples} }, 1); err != nil {
		t.Fatal(err)
	}
	blocked := func() Bolt {
		return BoltFunc(func(t tuple.Tuple, emit EmitFunc) { <-gate })
	}
	if err := topo.AddBolt("block", blocked, 1).ShuffleFrom("src").Err(); err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(topo, WithBatchSize(16), WithTickInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ex.Start()
	deadline := time.Now().Add(5 * time.Second)
	for ex.QueueLag() != n {
		if time.Now().After(deadline) {
			t.Fatalf("QueueLag = %d, want %d (all emitted tuples in flight)", ex.QueueLag(), n)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	ex.Stop()
	if lag := ex.QueueLag(); lag != 0 {
		t.Fatalf("QueueLag after drain = %d, want 0", lag)
	}
}

// waitOnlySpout delivers data exclusively through NextWait, so tuples
// arriving at the sink prove the executor actually used the WaitSpout path.
type waitOnlySpout struct {
	mu    sync.Mutex
	fed   bool
	waits int
}

func (s *waitOnlySpout) Next() []tuple.Tuple { return nil }

func (s *waitOnlySpout) NextWait(stop <-chan struct{}, timeout time.Duration) []tuple.Tuple {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waits++
	if !s.fed {
		s.fed = true
		return keyed("a", "b", "c")
	}
	return nil
}

func (s *waitOnlySpout) stats() (bool, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fed, s.waits
}

// TestWaitSpoutUsedWhenIdle checks the adaptive backoff's final tier: a
// spout implementing WaitSpout is parked in NextWait instead of
// sleep-retried, and tuples it returns from there flow normally.
func TestWaitSpoutUsedWhenIdle(t *testing.T) {
	spout := &waitOnlySpout{}
	g := &gather{}
	topo := NewTopology("wait")
	if err := topo.AddSpout("src", func() Spout { return spout }, 1); err != nil {
		t.Fatal(err)
	}
	sink := func() Bolt { return NewCallbackBolt(g.add) }
	if err := topo.AddBolt("sink", sink, 1).ShuffleFrom("src").Err(); err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(topo, WithTickInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ex.Start()
	deadline := time.Now().Add(5 * time.Second)
	for len(g.tuples()) < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("sink got %d tuples, want 3", len(g.tuples()))
		}
		time.Sleep(time.Millisecond)
	}
	ex.Stop()
	if fed, waits := spout.stats(); !fed || waits == 0 {
		t.Fatalf("NextWait never used (fed=%v waits=%d)", fed, waits)
	}
}

// parkedSpout never has data and parks until the executor stops: its
// NextWait ignores the timeout, so Executor.Stop can only return if the
// executor hands the spout its stop channel and closes it.
type parkedSpout struct {
	parked  chan struct{} // closed on the first park
	once    sync.Once
	stopped atomic.Bool
}

func (s *parkedSpout) Next() []tuple.Tuple { return nil }

func (s *parkedSpout) NextWait(stop <-chan struct{}, timeout time.Duration) []tuple.Tuple {
	s.once.Do(func() { close(s.parked) })
	<-stop
	s.stopped.Store(true)
	return nil
}

// TestStopWakesParkedSpout checks that Stop does not wait out a spout's park:
// the executor's stop channel reaches NextWait, and closing it releases the
// spout.
func TestStopWakesParkedSpout(t *testing.T) {
	spout := &parkedSpout{parked: make(chan struct{})}
	topo := NewTopology("park")
	if err := topo.AddSpout("src", func() Spout { return spout }, 1); err != nil {
		t.Fatal(err)
	}
	sink := func() Bolt { return NewCallbackBolt(func(tuple.Tuple) {}) }
	if err := topo.AddBolt("sink", sink, 1).ShuffleFrom("src").Err(); err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(topo, WithTickInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ex.Start()
	<-spout.parked
	done := make(chan struct{})
	go func() { ex.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not wake the spout parked in NextWait")
	}
	if !spout.stopped.Load() {
		t.Error("Stop returned without the spout having seen the stop signal")
	}
}

// batchRecorder asserts the BatchBolt fast path: when a bolt implements
// ExecuteBatch, the executor must never fall back to per-tuple Execute.
type batchRecorder struct {
	mu      sync.Mutex
	sizes   []int
	total   int
	singles int
}

func (b *batchRecorder) Execute(t tuple.Tuple, emit EmitFunc) {
	b.mu.Lock()
	b.singles++
	b.mu.Unlock()
}

func (b *batchRecorder) ExecuteBatch(ts []tuple.Tuple, emit EmitFunc) {
	b.mu.Lock()
	b.sizes = append(b.sizes, len(ts))
	b.total += len(ts)
	b.mu.Unlock()
}

func TestBatchBoltFastPath(t *testing.T) {
	const n = 100
	tuples := make([]tuple.Tuple, n)
	for i := range tuples {
		tuples[i] = tuple.Tuple{FlowID: uint64(i), Key: "k"}
	}
	rec := &batchRecorder{}
	topo := NewTopology("batchbolt")
	if err := topo.AddSpout("src", func() Spout { return &sliceSpout{tuples: tuples} }, 1); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddBolt("sink", func() Bolt { return rec }, 1).ShuffleFrom("src").Err(); err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(topo, WithBatchSize(8), WithTickInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ex.Start()
	time.Sleep(20 * time.Millisecond)
	ex.Stop()

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.singles != 0 {
		t.Errorf("BatchBolt got %d per-tuple Execute calls, want 0", rec.singles)
	}
	if rec.total != n {
		t.Fatalf("ExecuteBatch saw %d tuples, want %d", rec.total, n)
	}
	for _, s := range rec.sizes {
		if s < 1 || s > 8 {
			t.Fatalf("sub-batch of %d tuples, want 1..8", s)
		}
	}
}

// TestWithMetricsBatchHistogram checks that the executor's sub-batch-size
// histogram lands in the registry and observes every flush.
func TestWithMetricsBatchHistogram(t *testing.T) {
	reg := telemetry.NewRegistry()
	tuples := keyed("a", "b", "c", "d", "e")
	g := &gather{}
	topo := NewTopology("metrics")
	if err := topo.AddSpout("src", func() Spout { return &sliceSpout{tuples: tuples} }, 1); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddBolt("sink", func() Bolt { return NewCallbackBolt(g.add) }, 1).ShuffleFrom("src").Err(); err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(topo, WithBatchSize(2), WithTickInterval(time.Hour), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	ex.Start()
	time.Sleep(20 * time.Millisecond)
	ex.Stop()
	if got := len(g.tuples()); got != 5 {
		t.Fatalf("sink got %d tuples, want 5", got)
	}
	found := false
	for _, p := range reg.Snapshot() {
		if p.Name == "stream_batch_len" && p.Kind == telemetry.KindHistogram && p.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Error("stream_batch_len histogram missing or empty in registry snapshot")
	}
}
