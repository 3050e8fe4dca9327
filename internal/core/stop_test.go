package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"netalytics/internal/mq"
	"netalytics/internal/packet"
	"netalytics/internal/proto"
	"netalytics/internal/topology"
	"netalytics/internal/tuple"
)

// overflowEngine is an engine whose windowed bolts emit only in Cleanup (the
// tick never comes), so what a session delivers at Stop is exactly its final
// values.
func overflowEngine(t *testing.T, resultBuffer int) *Engine {
	t.Helper()
	e := NewEngine(topology.MustNew(4), Config{TickInterval: time.Hour, ResultBuffer: resultBuffer})
	t.Cleanup(e.Close)
	return e
}

// injectSeqGets injects n GETs for /k0 … /k<n-1> on one flow (so they stay
// in order through the monitor), never more than half a tap queue ahead of
// the session's monitors.
func injectSeqGets(t *testing.T, e *Engine, s *Session, client, server *topology.Host, n int) {
	t.Helper()
	var b packet.Builder
	for i := 0; i < n; i++ {
		raw := b.TCP(packet.TCPSpec{
			Src: client.Addr, Dst: server.Addr, SrcPort: 30000, DstPort: 80,
			Flags:   packet.TCPFlagACK,
			Payload: proto.BuildHTTPGet(fmt.Sprintf("/k%d", i), server.Name),
		})
		if err := e.Network().Inject(raw); err != nil {
			t.Fatalf("Inject: %v", err)
		}
		if i%1024 == 1023 {
			awaitCond(t, "monitors to keep up", func() bool { return s.Packets()+2048 > uint64(i) })
		}
	}
}

func awaitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stopAsync runs Stop on a goroutine of its own, as a consumer that keeps
// reading Results() does, and reports how long it took.
func stopAsync(s *Session) <-chan time.Duration {
	took := make(chan time.Duration, 1)
	go func() {
		t0 := time.Now()
		s.Stop()
		took <- time.Since(t0)
	}()
	return took
}

// TestStopDeliversFinalValuesPastChannel is the contract Stop's drain rests
// on: a group-count whose only emission is Cleanup's, over more keys than the
// result channel has slots, must still hand every key's final value to a
// consumer that reads while Stop runs — the overflow carries what the channel
// cannot, and nothing is dropped inside ResultBuffer.
func TestStopDeliversFinalValuesPastChannel(t *testing.T) {
	const keys = resultChanCap + 1500
	e := overflowEngine(t, 2*resultChanCap)
	hosts := e.Topology().Hosts()
	server, client := hosts[0], hosts[12]
	s, err := e.Submit(fmt.Sprintf("PARSE http_get FROM * TO %s:80 PROCESS (group-count: group=key)", server.Name))
	if err != nil {
		t.Fatal(err)
	}
	injectSeqGets(t, e, s, client, server, keys)
	// A second GET for the first hundred keys: their final count is 2.
	injectSeqGets(t, e, s, client, server, 100)

	took := stopAsync(s)
	counts := make(map[string]float64, keys)
	for tu := range s.Results() {
		if _, dup := counts[tu.Key]; dup {
			t.Fatalf("key %q delivered twice", tu.Key)
		}
		counts[tu.Key] = tu.Val
	}
	if d := <-took; d > drainTimeout/2 {
		t.Errorf("Stop took %v with the consumer reading", d)
	}
	if len(counts) != keys {
		t.Fatalf("%d keys delivered after Stop, want %d (drops %d)", len(counts), keys, s.ResultDrops())
	}
	for i := 0; i < keys; i++ {
		want := 1.0
		if i < 100 {
			want = 2
		}
		if got := counts[fmt.Sprintf("/k%d", i)]; got != want {
			t.Fatalf("final count of /k%d = %v, want %v", i, got, want)
		}
	}
	if d := s.ResultDrops(); d != 0 {
		t.Errorf("ResultDrops = %d, want 0 inside ResultBuffer", d)
	}
}

// TestResultOverflowOrderAndDrops checks the overflow's two promises with a
// consumer that does not read at all until the pipeline is quiet: results
// come out in the order they went in, across the channel/overflow seam, and
// only what exceeds ResultBuffer is dropped (the newest, as the channel
// alone always did).
func TestResultOverflowOrderAndDrops(t *testing.T) {
	const buffer, sent = resultChanCap + 900, resultChanCap + 2000
	e := overflowEngine(t, buffer)
	hosts := e.Topology().Hosts()
	server, client := hosts[0], hosts[12]
	s, err := e.Submit(fmt.Sprintf("PARSE http_get FROM * TO %s:80 PROCESS (passthrough)", server.Name))
	if err != nil {
		t.Fatal(err)
	}
	injectSeqGets(t, e, s, client, server, sent)
	awaitCond(t, "the surplus to be dropped", func() bool { return s.ResultDrops() == sent-buffer })

	took := stopAsync(s)
	next := 0
	for tu := range s.Results() {
		if want := fmt.Sprintf("/k%d", next); tu.Key != want {
			t.Fatalf("result %d is %q, want %q: order lost across the overflow", next, tu.Key, want)
		}
		next++
	}
	<-took
	if next != buffer {
		t.Errorf("%d results delivered, want ResultBuffer = %d", next, buffer)
	}
	if d := s.ResultDrops(); d != sent-buffer {
		t.Errorf("ResultDrops = %d, want %d", d, sent-buffer)
	}
}

// TestStopWithAbandonedConsumer: nobody reads. Stop must not wait for the
// consumer beyond drainTimeout, must count what the overflow still held as
// dropped, and must take its forwarder goroutine down with it.
func TestStopWithAbandonedConsumer(t *testing.T) {
	const spilled = 1200
	before := runtime.NumGoroutine()
	e := NewEngine(topology.MustNew(4), Config{TickInterval: time.Hour, ResultBuffer: 2 * resultChanCap})
	hosts := e.Topology().Hosts()
	server, client := hosts[0], hosts[12]
	s, err := e.Submit(fmt.Sprintf("PARSE http_get FROM * TO %s:80 PROCESS (passthrough)", server.Name))
	if err != nil {
		t.Fatal(err)
	}
	injectSeqGets(t, e, s, client, server, resultChanCap+spilled)
	awaitCond(t, "the overflow to fill", func() bool {
		s.results.mu.Lock()
		defer s.results.mu.Unlock()
		return len(s.results.spill) == spilled
	})

	t0 := time.Now()
	s.Stop()
	if d := time.Since(t0); d < drainTimeout/2 || d > drainTimeout+time.Second {
		t.Errorf("Stop took %v with an abandoned consumer, want about drainTimeout = %v", d, drainTimeout)
	}
	if d := s.ResultDrops(); d != spilled {
		t.Errorf("ResultDrops = %d, want the %d results the overflow held", d, spilled)
	}
	// What the channel held is still there for a consumer that comes back.
	n := 0
	for range s.Results() {
		n++
	}
	if n != resultChanCap {
		t.Errorf("%d results readable after Stop, want the channel's %d", n, resultChanCap)
	}
	e.Close()
	awaitCond(t, "every goroutine of the engine to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// TestStopIdleSessionPrompt asserts the spout wake-up: an idle session's
// spout is parked in NextWait, and Stop must wake it rather than sit out the
// park quantum, a tick or a sleep. The bound is wall-clock, so the best of a
// few sessions is taken; before the wake-up existed none could beat 20 ms.
func TestStopIdleSessionPrompt(t *testing.T) {
	e := newEngine(t)
	server := e.Topology().Hosts()[0]
	best := time.Hour
	for i := 0; i < 5; i++ {
		s, err := e.Submit(fmt.Sprintf("PARSE http_get, tcp_conn_time FROM * TO %s:80 PROCESS (diff-group: group=dstIP)", server.Name))
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond) // the spout finds its topics empty and parks
		t0 := time.Now()
		s.Stop()
		if d := time.Since(t0); d < best {
			best = d
		}
		if _, open := <-s.Results(); open {
			t.Fatal("an idle session produced a result")
		}
	}
	if best > 5*time.Millisecond {
		t.Errorf("Stop of an idle session took %v at best, want < 5ms", best)
	}
}

// TestMultiSpoutParksOnAllTopics is the two-parser query's spout: with its
// first topic empty, a batch on the second must be returned at once instead
// of after the first topic's share of the wait, and closing stop must release
// the park.
func TestMultiSpoutParksOnAllTopics(t *testing.T) {
	cl := mq.NewCluster(1, mq.Config{})
	sp := &multiSpout{consumers: []*mq.Consumer{cl.GroupConsumer("q/a", "g"), cl.GroupConsumer("q/b", "g")}}
	if got := sp.Next(); len(got) != 0 {
		t.Fatalf("Next on empty topics = %v", got)
	}
	type woke struct {
		tuples []tuple.Tuple
		at     time.Time
	}
	stop := make(chan struct{})
	done := make(chan woke, 1)
	park := func() {
		go func() {
			got := sp.NextWait(stop, 10*time.Second)
			done <- woke{got, time.Now()}
		}()
		time.Sleep(5 * time.Millisecond) // let it park
	}

	park()
	sent := time.Now()
	if err := cl.Producer("q/b").Send(&tuple.Batch{Parser: "b", Tuples: []tuple.Tuple{{Key: "x"}}}); err != nil {
		t.Fatal(err)
	}
	select {
	case w := <-done:
		if len(w.tuples) != 1 || w.tuples[0].Key != "x" {
			t.Fatalf("NextWait = %v, want the tuple produced on the second topic", w.tuples)
		}
		if lat := w.at.Sub(sent); lat > 2*time.Millisecond {
			t.Errorf("batch on the second topic seen after %v, want < 2ms", lat)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("NextWait did not wake for a batch on the second topic")
	}

	park()
	close(stop)
	select {
	case w := <-done:
		if len(w.tuples) != 0 {
			t.Errorf("NextWait after stop = %v, want nothing", w.tuples)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("NextWait did not return when stop closed")
	}
}
