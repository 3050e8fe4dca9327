package monitor

import (
	"math"
	"testing"
	"time"

	"netalytics/internal/sdn"
	"netalytics/internal/tuple"
)

func demuxTuple(src, dst string, dstPort uint16, flowID uint64) tuple.Tuple {
	return tuple.Tuple{FlowID: flowID, Parser: "p", SrcIP: src, DstIP: dst, DstPort: dstPort, Val: 1}
}

func TestDemuxRoutesByParserAndMatch(t *testing.T) {
	d := NewDemux(nil)
	web := &memSink{}
	all := &memSink{}
	other := &memSink{}
	d.Subscribe("web", []string{"p"}, []sdn.Match{{DstPort: 80}}, web, 1)
	d.Subscribe("all", []string{"p"}, nil, all, 1)
	d.Subscribe("other", []string{"q"}, nil, other, 1)

	batch := &tuple.Batch{Parser: "p", Tuples: []tuple.Tuple{
		demuxTuple("10.0.0.1", "10.0.0.2", 80, 1),
		demuxTuple("10.0.0.1", "10.0.0.2", 81, 2),
		{FlowID: 3, Parser: "p", Key: "aggregate", Val: 7}, // no endpoints
	}}
	if err := d.Deliver(batch); err != nil {
		t.Fatal(err)
	}

	// The match-filtered subscriber sees its port plus the aggregate tuple
	// (no endpoints to discriminate on: fail open so parser-level aggregates
	// reach every subscriber of that parser).
	if got := web.tuples(); len(got) != 2 || got[0].DstPort != 80 || got[1].Key != "aggregate" {
		t.Errorf("web sink got %+v, want port-80 tuple + aggregate", got)
	}
	if got := all.tuples(); len(got) != 3 {
		t.Errorf("unfiltered sink got %d tuples, want all 3", len(got))
	}
	if got := other.tuples(); len(got) != 0 {
		t.Errorf("sink of another parser got %d tuples, want 0", len(got))
	}
	if got := d.Len(); got != 3 {
		t.Errorf("Len = %d, want 3", got)
	}
}

func TestDemuxTraceCloning(t *testing.T) {
	d := NewDemux(nil)
	s1 := &memSink{}
	s2 := &memSink{}
	d.Subscribe("q1", []string{"p"}, nil, s1, 1)
	d.Subscribe("q2", []string{"p"}, nil, s2, 1)

	orig := &tuple.Trace{CaptureNS: 42}
	tt := demuxTuple("10.0.0.1", "10.0.0.2", 80, 1)
	tt.Trace = orig
	if err := d.Deliver(&tuple.Batch{Parser: "p", Tuples: []tuple.Tuple{tt}}); err != nil {
		t.Fatal(err)
	}

	got1, got2 := s1.tuples(), s2.tuples()
	if len(got1) != 1 || len(got2) != 1 {
		t.Fatalf("deliveries = %d/%d, want 1/1", len(got1), len(got2))
	}
	if got1[0].Trace != orig {
		t.Error("first subscriber should share the original trace record")
	}
	if got2[0].Trace == orig {
		t.Error("second subscriber must get a cloned trace record")
	}
	if got2[0].Trace == nil || got2[0].Trace.CaptureNS != 42 {
		t.Errorf("cloned trace = %+v, want CaptureNS 42 carried over", got2[0].Trace)
	}
}

func TestDemuxSubscriberSampling(t *testing.T) {
	d := NewDemux(nil)
	sampled := &memSink{}
	full := &memSink{}
	sub := d.Subscribe("sampled", []string{"p"}, nil, sampled, 1)
	d.Subscribe("full", []string{"p"}, nil, full, 1)
	sub.SetSampleRate(0.5)

	lowFlow := uint64(1)                 // top 32 bits zero: always admitted
	highFlow := uint64(0xFFFFFFFF) << 32 // top 32 bits max: dropped below rate 1
	b := &tuple.Batch{Parser: "p", Tuples: []tuple.Tuple{
		demuxTuple("10.0.0.1", "10.0.0.2", 80, lowFlow),
		demuxTuple("10.0.0.1", "10.0.0.2", 80, highFlow),
	}}
	if err := d.Deliver(b); err != nil {
		t.Fatal(err)
	}
	if got := sampled.tuples(); len(got) != 1 || got[0].FlowID != lowFlow {
		t.Errorf("sampled subscriber got %+v, want only the low-hash flow", got)
	}
	if got := full.tuples(); len(got) != 2 {
		t.Errorf("unsampled subscriber got %d tuples, want both", len(got))
	}
	if got := sub.Tuples(); got != 1 {
		t.Errorf("sub.Tuples = %d, want 1", got)
	}
}

func TestDemuxRateHookMaxOverSubscribers(t *testing.T) {
	d := NewDemux(nil)
	var last float64
	d.SetRateHook(func(max float64) { last = max })
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-6 }

	s1 := d.Subscribe("q1", []string{"p"}, nil, &memSink{}, 0.5)
	if !near(last, 0.5) {
		t.Errorf("after first subscribe max = %v, want 0.5", last)
	}
	s2 := d.Subscribe("q2", []string{"p"}, nil, &memSink{}, 1)
	if last != 1 {
		t.Errorf("after second subscribe max = %v, want 1", last)
	}
	s2.SetSampleRate(0.2)
	if !near(last, 0.5) {
		t.Errorf("after re-rate max = %v, want 0.5", last)
	}
	d.Unsubscribe(s1)
	if got := s2.SampleRate(); last != got {
		t.Errorf("after unsubscribe max = %v, want survivor's rate %v", last, got)
	}
	d.Unsubscribe(s2)
	if last != 0 {
		t.Errorf("after last unsubscribe max = %v, want 0", last)
	}
}

// TestMonitorAddParsersLive grows a running monitor's parser set mid-stream:
// frames delivered before the addition reach only the original parser,
// frames after it reach both, and Stop still flushes and leaks nothing.
func TestMonitorAddParsersLive(t *testing.T) {
	sink := &memSink{}
	m, err := New(Config{
		Parsers:   []Factory{func() Parser { return &countParser{name: "a"} }},
		Sink:      sink,
		BatchSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()

	deliverAll := func(n int) {
		for i := 0; i < n; i++ {
			for !m.Deliver(frameWithPorts(uint16(30000+i), 80), time.Now()) {
				time.Sleep(time.Millisecond)
			}
		}
	}
	deliverAll(10)
	waitFor(t, func() bool { return m.PerParserTuples()["a"] == 10 })

	if err := m.AddParsers(func() Parser { return &countParser{name: "b"} }); err != nil {
		t.Fatal(err)
	}
	// Re-adding an existing parser is an idempotent no-op.
	if err := m.AddParsers(func() Parser { return &countParser{name: "a"} }); err != nil {
		t.Fatal(err)
	}
	if got := m.ParserNames(); len(got) != 2 {
		t.Fatalf("ParserNames = %v, want [a b]", got)
	}

	deliverAll(10)
	waitFor(t, func() bool {
		per := m.PerParserTuples()
		return per["a"] == 20 && per["b"] == 10
	})

	m.Stop()
	if got := m.live.Load(); got != 0 {
		t.Errorf("descriptor audit after Stop = %d, want 0", got)
	}
	if err := m.AddParsers(func() Parser { return &countParser{name: "c"} }); err == nil {
		t.Error("AddParsers after Stop succeeded, want error")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
