package monitor

import (
	"sync"
	"testing"
	"time"

	"netalytics/internal/tuple"
)

// timedSink records every delivered batch and when it arrived.
type timedSink struct {
	mu      sync.Mutex
	batches []*tuple.Batch
	at      []time.Time
}

func (s *timedSink) Deliver(b *tuple.Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batches = append(s.batches, b)
	s.at = append(s.at, time.Now())
	return nil
}

func (s *timedSink) snapshot() ([]*tuple.Batch, []time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*tuple.Batch(nil), s.batches...), append([]time.Time(nil), s.at...)
}

// awaitBatches waits until the sink holds n batches and returns the arrival
// time of the n-th.
func (s *timedSink) awaitBatches(t *testing.T, n int) time.Time {
	t.Helper()
	waitFor(t, func() bool {
		batches, _ := s.snapshot()
		return len(batches) >= n
	})
	_, at := s.snapshot()
	return at[n-1]
}

// TestLingerShipsLoneTuple is the on-demand latency contract: one tuple,
// then silence, and the tuple still reaches the sink within the linger (plus
// scheduling slack) — nothing else has to arrive, and Stop is not needed.
// The wait is a wall-clock bound, so the best of a few trials is asserted: a
// stalled test goroutine can make one trial late, a missing timer makes them
// all late.
func TestLingerShipsLoneTuple(t *testing.T) {
	sink := &timedSink{}
	m, err := New(Config{
		Parsers: []Factory{func() Parser { return &countParser{name: "count"} }},
		Sink:    sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Stop()

	best := time.Hour
	for trial := 1; trial <= 5; trial++ {
		sent := time.Now()
		if !m.Deliver(frameWithPorts(uint16(2000+trial), 80), sent) {
			t.Fatal("Deliver rejected")
		}
		if wait := sink.awaitBatches(t, trial).Sub(sent); wait < best {
			best = wait
		}
		// Let the trial's timer fire on the empty shard before the next one.
		time.Sleep(batchLinger)
	}
	if best > batchLinger+5*time.Millisecond {
		t.Errorf("lone tuple reached the sink after %v at best, want within linger %v + 5ms", best, batchLinger)
	}
	batches, _ := sink.snapshot()
	for i, b := range batches {
		if len(b.Tuples) != 1 {
			t.Errorf("batch %d has %d tuples, want the lone one", i, len(b.Tuples))
		}
	}
}

// TestLingerShipsFullBatchesUnderLoad checks the other half of the linger
// rule: the timer is armed when a batch starts, so while batches fill faster
// than the linger it never fires and every batch leaves full. The RX queue is
// filled before Start, so the worker's input never idles. The allowance
// beyond the final partial covers a worker descheduled for longer than the
// linger in mid-batch on a loaded machine; flushing whenever the queue idles,
// or on a free-running ticker, would exceed it many times over.
func TestLingerShipsFullBatchesUnderLoad(t *testing.T) {
	const batchSize, frames = 8, 60000
	sink := &timedSink{}
	m, err := New(Config{
		Parsers:   []Factory{func() Parser { return &countParser{name: "count"} }},
		Sink:      sink,
		BatchSize: batchSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw := frameWithPorts(4000, 80)
	burst := make([][]byte, DefaultBurstSize)
	for i := range burst {
		burst[i] = raw
	}
	for sent := 0; sent < frames; {
		n := len(burst)
		if frames-sent < n {
			n = frames - sent
		}
		if got := m.DeliverBurst(burst[:n], time.Now()); got != n {
			t.Fatalf("DeliverBurst enqueued %d of %d with %d queued", got, n, sent)
		}
		sent += n
	}
	m.Start()
	m.Stop()

	st := m.Stats()
	if st.Tuples != frames {
		t.Fatalf("shipped %d tuples, want %d (stats %+v)", st.Tuples, frames, st)
	}
	batches, _ := sink.snapshot()
	if uint64(len(batches)) != st.Batches {
		t.Fatalf("sink holds %d batches, stats say %d", len(batches), st.Batches)
	}
	partial := 0
	for _, b := range batches {
		switch {
		case len(b.Tuples) == 0 || len(b.Tuples) > batchSize:
			t.Fatalf("batch of %d tuples shipped, batch size %d", len(b.Tuples), batchSize)
		case len(b.Tuples) < batchSize:
			partial++
		}
	}
	if allowed := 1 + len(batches)/50; partial > allowed {
		t.Errorf("%d of %d batches left partial under saturating input, want at most %d", partial, len(batches), allowed)
	}
	if got := m.live.Load(); got != 0 {
		t.Errorf("descriptor audit after Stop = %d, want 0", got)
	}
}

// TestLingerStaleFireHarmless walks a shard through the race the worker's
// select can lose: the timer fires while a batch is filling, the batch then
// ships full, and the next batch re-arms the timer with the old fire still
// sitting in its channel (go.mod says go 1.22: Reset does not drain it). The
// worker then sees a fire that belongs to no batch. It may ship the young
// batch early; it must not lose, repeat or reorder a tuple, nor ship an empty
// batch when the real fire finds the shard empty.
func TestLingerStaleFireHarmless(t *testing.T) {
	const batchSize = 4
	sink := &timedSink{}
	o := newOutputBatcher(batchSize, sink)
	s := o.newShard("p")
	seq := 0.0
	emit := func() { s.emit(tuple.Tuple{Val: seq}); seq++ }
	fire := func(what string) {
		t.Helper()
		select {
		case <-s.linger.C:
			s.flush()
		case <-time.After(time.Second):
			t.Fatalf("linger timer did not fire: %s", what)
		}
	}

	emit()                      // arms the timer
	time.Sleep(2 * batchLinger) // it fires; nobody is selecting
	for i := 1; i < batchSize; i++ {
		emit() // the batch ships full
	}
	emit()                // next batch: Reset on a fired, undrained timer
	fire("stale or real") // the young batch ships, early or on time
	if len(s.pending) != 0 {
		t.Fatalf("%d tuples pending after the flush", len(s.pending))
	}
	emit()
	fire("re-armed after a stale fire") // the timer still works afterwards
	s.linger.Reset(time.Microsecond)
	fire("on the empty shard") // a fire with nothing pending ships nothing

	batches, _ := sink.snapshot()
	next := 0.0
	for i, b := range batches {
		if len(b.Tuples) == 0 {
			t.Errorf("batch %d is empty", i)
		}
		for _, tu := range b.Tuples {
			if tu.Val != next {
				t.Fatalf("batch %d carries tuple %v, want %v (lost, repeated or reordered)", i, tu.Val, next)
			}
			next++
		}
	}
	if next != seq {
		t.Errorf("sink received %v tuples, %v emitted", next, seq)
	}
	if got := o.tuples.Value(); got != uint64(seq) {
		t.Errorf("tuples counter = %d, want %v", got, seq)
	}
}

// TestLingerCoversAddedParsers checks that workers started by AddParsers on
// a running monitor get a shard and a linger timer of their own: a lone frame
// yields one tuple from each parser at the sink with no further input and no
// Stop, and the descriptor audit still balances afterwards.
func TestLingerCoversAddedParsers(t *testing.T) {
	sink := &timedSink{}
	m, err := New(Config{
		Parsers: []Factory{func() Parser { return &countParser{name: "a"} }},
		Sink:    sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	if err := m.AddParsers(func() Parser { return &countParser{name: "b"} }); err != nil {
		t.Fatal(err)
	}
	if !m.Deliver(frameWithPorts(5000, 80), time.Now()) {
		t.Fatal("Deliver rejected")
	}
	sink.awaitBatches(t, 2)
	batches, _ := sink.snapshot()
	seen := map[string]int{}
	for _, b := range batches {
		seen[b.Parser] += len(b.Tuples)
	}
	if seen["a"] != 1 || seen["b"] != 1 {
		t.Errorf("tuples at the sink before Stop = %v, want one from a and one from b", seen)
	}
	m.Stop()
	if got := m.live.Load(); got != 0 {
		t.Errorf("descriptor audit after Stop = %d, want 0", got)
	}
	if batches, _ := sink.snapshot(); len(batches) != 2 {
		t.Errorf("Stop shipped %d more batches from empty shards", len(batches)-2)
	}
}
