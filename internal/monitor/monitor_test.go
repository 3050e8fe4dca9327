package monitor

import (
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"

	"netalytics/internal/packet"
	"netalytics/internal/tuple"
)

var (
	srcAddr = netip.MustParseAddr("10.0.0.2")
	dstAddr = netip.MustParseAddr("10.0.0.3")
)

// memSink accumulates delivered batches.
type memSink struct {
	mu      sync.Mutex
	batches []*tuple.Batch
	fail    bool
}

func (s *memSink) Deliver(b *tuple.Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail {
		return errors.New("sink down")
	}
	s.batches = append(s.batches, b)
	return nil
}

func (s *memSink) tuples() []tuple.Tuple {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []tuple.Tuple
	for _, b := range s.batches {
		out = append(out, b.Tuples...)
	}
	return out
}

// countParser emits one tuple per TCP packet.
type countParser struct{ name string }

func (p *countParser) Name() string { return p.name }
func (p *countParser) Handle(pkt *Packet, emit EmitFunc) {
	if pkt.Frame.TCP == nil {
		return
	}
	emit(tuple.Tuple{FlowID: pkt.FlowID, TS: pkt.TS.UnixNano(), Val: 1})
}

// slowParser blocks on a gate to back up its queue.
type slowParser struct{ gate chan struct{} }

func (p *slowParser) Name() string { return "slow" }
func (p *slowParser) Handle(pkt *Packet, emit EmitFunc) {
	<-p.gate
}

// flushParser counts packets and emits the count only at Flush.
type flushParser struct{ n int }

func (p *flushParser) Name() string { return "flush" }
func (p *flushParser) Handle(pkt *Packet, emit EmitFunc) {
	p.n++
}
func (p *flushParser) Flush(emit EmitFunc) {
	emit(tuple.Tuple{Key: "total", Val: float64(p.n)})
}

func frameWithPorts(srcPort, dstPort uint16) []byte {
	var b packet.Builder
	return b.TCP(packet.TCPSpec{
		Src: srcAddr, Dst: dstAddr,
		SrcPort: srcPort, DstPort: dstPort,
		Flags: packet.TCPFlagACK, Payload: []byte("data"),
	})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Sink: &memSink{}}); !errors.Is(err, ErrNoParsers) {
		t.Errorf("no parsers: err = %v", err)
	}
	if _, err := New(Config{Parsers: []Factory{func() Parser { return &countParser{name: "c"} }}}); err == nil {
		t.Error("no sink accepted")
	}
	dup := func() Parser { return &countParser{name: "dup"} }
	if _, err := New(Config{Parsers: []Factory{dup, dup}, Sink: &memSink{}}); err == nil {
		t.Error("duplicate parser names accepted")
	}
}

func TestEndToEnd(t *testing.T) {
	sink := &memSink{}
	m, err := New(Config{
		Parsers:   []Factory{func() Parser { return &countParser{name: "count"} }},
		Sink:      sink,
		BatchSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	const n = 50
	for i := 0; i < n; i++ {
		if !m.Deliver(frameWithPorts(uint16(1000+i), 80), time.Now()) {
			t.Fatalf("Deliver %d rejected", i)
		}
	}
	m.Stop()

	got := sink.tuples()
	if len(got) != n {
		t.Fatalf("sink received %d tuples, want %d", len(got), n)
	}
	for _, tu := range got {
		if tu.Parser != "count" {
			t.Fatalf("tuple parser = %q, want count (stamped by output)", tu.Parser)
		}
	}
	st := m.Stats()
	if st.Received != n || st.Dispatched != n || st.Tuples != n {
		t.Errorf("stats = %+v", st)
	}
	if st.Batches == 0 {
		t.Error("no batches recorded")
	}
}

func TestMultipleParsersShareDescriptors(t *testing.T) {
	sink := &memSink{}
	m, err := New(Config{
		Parsers: []Factory{
			func() Parser { return &countParser{name: "a"} },
			func() Parser { return &countParser{name: "b"} },
		},
		Sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	for i := 0; i < 20; i++ {
		m.Deliver(frameWithPorts(uint16(2000+i), 80), time.Now())
	}
	m.Stop()

	counts := map[string]int{}
	for _, tu := range sink.tuples() {
		counts[tu.Parser]++
	}
	if counts["a"] != 20 || counts["b"] != 20 {
		t.Errorf("per-parser counts = %v, want 20 each", counts)
	}
}

func TestPerParserTuples(t *testing.T) {
	sink := &memSink{}
	m, err := New(Config{
		Parsers: []Factory{
			func() Parser { return &countParser{name: "a"} },
			func() Parser { return &countParser{name: "b"} },
		},
		Sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	for i := 0; i < 7; i++ {
		m.Deliver(frameWithPorts(uint16(4000+i), 80), time.Now())
	}
	m.Stop()
	counts := m.PerParserTuples()
	if counts["a"] != 7 || counts["b"] != 7 {
		t.Errorf("per-parser counts = %v, want 7 each", counts)
	}
}

func TestCopyModeEquivalence(t *testing.T) {
	for _, copyMode := range []bool{false, true} {
		sink := &memSink{}
		m, err := New(Config{
			Parsers:  []Factory{func() Parser { return &countParser{name: "c"} }},
			Sink:     sink,
			CopyMode: copyMode,
		})
		if err != nil {
			t.Fatal(err)
		}
		m.Start()
		for i := 0; i < 10; i++ {
			m.Deliver(frameWithPorts(uint16(3000+i), 80), time.Now())
		}
		m.Stop()
		if got := len(sink.tuples()); got != 10 {
			t.Errorf("copyMode=%v: %d tuples, want 10", copyMode, got)
		}
	}
}

func TestSamplingByFlow(t *testing.T) {
	sink := &memSink{}
	m, err := New(Config{
		Parsers:    []Factory{func() Parser { return &countParser{name: "c"} }},
		Sink:       sink,
		SampleRate: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	// 200 flows, 2 packets each: flow-level sampling must keep or drop
	// whole flows, so every flow has 0 or 2 tuples.
	for flow := 0; flow < 200; flow++ {
		raw := frameWithPorts(uint16(5000+flow), 80)
		m.Deliver(raw, time.Now())
		m.Deliver(raw, time.Now())
	}
	m.Stop()

	perFlow := map[uint64]int{}
	for _, tu := range sink.tuples() {
		perFlow[tu.FlowID]++
	}
	for id, n := range perFlow {
		if n != 2 {
			t.Errorf("flow %d has %d tuples, want 2 (flow-atomic sampling)", id, n)
		}
	}
	admitted := len(perFlow)
	if admitted < 50 || admitted > 150 {
		t.Errorf("admitted %d/200 flows at rate 0.5, outside [50,150]", admitted)
	}
	st := m.Stats()
	if st.Sampled == 0 {
		t.Error("no packets recorded as sampled out")
	}
}

func TestSetSampleRateClamped(t *testing.T) {
	m, err := New(Config{
		Parsers: []Factory{func() Parser { return &countParser{name: "c"} }},
		Sink:    &memSink{},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.SetSampleRate(-1)
	if got := m.SampleRate(); got != 0 {
		t.Errorf("SampleRate after -1 = %v, want 0", got)
	}
	m.SetSampleRate(2)
	if got := m.SampleRate(); got < 0.999 {
		t.Errorf("SampleRate after 2 = %v, want 1", got)
	}
}

func TestCollectorQueueOverflow(t *testing.T) {
	m, err := New(Config{
		Parsers:    []Factory{func() Parser { return &countParser{name: "c"} }},
		Sink:       &memSink{},
		QueueDepth: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Not started: the collector queue fills at QueueDepth.
	raw := frameWithPorts(1, 2)
	accepted := 0
	for i := 0; i < 20; i++ {
		if m.Deliver(raw, time.Now()) {
			accepted++
		}
	}
	if accepted != 8 {
		t.Errorf("accepted %d, want 8", accepted)
	}
	if st := m.Stats(); st.CollectDrops != 12 {
		t.Errorf("CollectDrops = %d, want 12", st.CollectDrops)
	}
	m.Start()
	m.Stop()
}

func TestParserQueueOverflowDrops(t *testing.T) {
	gate := make(chan struct{})
	m, err := New(Config{
		Parsers:    []Factory{func() Parser { return &slowParser{gate: gate} }},
		Sink:       &memSink{},
		QueueDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	raw := frameWithPorts(1, 2)
	// Worker blocks on first packet; its queue holds 2 more; the rest must
	// drop at the parser queue. Retry Deliver so every frame reaches the
	// collector rather than dropping at the input queue.
	for i := 0; i < 10; i++ {
		for !m.Deliver(raw, time.Now()) {
			time.Sleep(time.Millisecond)
		}
	}
	// Wait until the collector has consumed the input queue.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		st := m.Stats()
		if st.Dispatched+st.ParserDrops == 10 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	st := m.Stats()
	if st.ParserDrops == 0 {
		t.Errorf("ParserDrops = 0, want > 0 (stats %+v)", st)
	}
	close(gate)
	m.Stop()
}

func TestMalformedFramesCounted(t *testing.T) {
	m, err := New(Config{
		Parsers: []Factory{func() Parser { return &countParser{name: "c"} }},
		Sink:    &memSink{},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	m.Deliver([]byte{1, 2, 3}, time.Now())
	m.Stop()
	if st := m.Stats(); st.Malformed != 1 {
		t.Errorf("Malformed = %d, want 1", st.Malformed)
	}
}

func TestFlusherRunsOnStop(t *testing.T) {
	sink := &memSink{}
	m, err := New(Config{
		Parsers: []Factory{func() Parser { return &flushParser{} }},
		Sink:    sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	for i := 0; i < 5; i++ {
		m.Deliver(frameWithPorts(uint16(100+i), 80), time.Now())
	}
	m.Stop()
	got := sink.tuples()
	if len(got) != 1 || got[0].Key != "total" || got[0].Val != 5 {
		t.Errorf("flush tuples = %+v, want one total=5", got)
	}
}

func TestSinkErrorsCounted(t *testing.T) {
	sink := &memSink{fail: true}
	m, err := New(Config{
		Parsers:   []Factory{func() Parser { return &countParser{name: "c"} }},
		Sink:      sink,
		BatchSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	m.Deliver(frameWithPorts(1, 2), time.Now())
	m.Stop()
	if st := m.Stats(); st.SinkErrors == 0 {
		t.Error("SinkErrors = 0, want > 0")
	}
}

func TestStopIdempotentAndStartTwice(t *testing.T) {
	m, err := New(Config{
		Parsers: []Factory{func() Parser { return &countParser{name: "c"} }},
		Sink:    &memSink{},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	m.Start() // no-op
	m.Stop()
	m.Stop() // no-op
}

func TestMultipleCollectorsRSS(t *testing.T) {
	// Four collectors, stateful per-flow parser: per-flow counts must stay
	// exact, proving RSS keeps each conversation on one ordered path.
	sink := &memSink{}
	m, err := New(Config{
		Parsers:    []Factory{func() Parser { return &flushParser{} }},
		Collectors: 4,
		Sink:       sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	const flows, perFlow = 32, 4
	for f := 0; f < flows; f++ {
		raw := frameWithPorts(uint16(8000+f), 80)
		for p := 0; p < perFlow; p++ {
			for !m.Deliver(raw, time.Now()) {
				time.Sleep(time.Millisecond)
			}
		}
	}
	m.Stop()
	total := 0.0
	for _, tu := range sink.tuples() {
		if tu.Key == "total" {
			total += tu.Val
		}
	}
	if total != flows*perFlow {
		t.Errorf("processed %v packets, want %d", total, flows*perFlow)
	}
}

func TestRSSHashSymmetric(t *testing.T) {
	var b packet.Builder
	fwd := b.TCP(packet.TCPSpec{Src: srcAddr, Dst: dstAddr, SrcPort: 1000, DstPort: 80})
	rev := b.TCP(packet.TCPSpec{Src: dstAddr, Dst: srcAddr, SrcPort: 80, DstPort: 1000})
	if rssHash(fwd) != rssHash(rev) {
		t.Error("rssHash differs across directions of one connection")
	}
	if rssHash([]byte{1, 2}) == rssHash([]byte{2, 1}) {
		t.Error("short-frame fallback hash too weak")
	}
}

func TestAIMDSampler(t *testing.T) {
	m, err := New(Config{
		Parsers: []Factory{func() Parser { return &countParser{name: "c"} }},
		Sink:    &memSink{},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAIMDSampler(m)

	a.OnStatus(true)
	if got := m.SampleRate(); got > 0.51 || got < 0.49 {
		t.Errorf("rate after one overload = %v, want ~0.5", got)
	}
	for i := 0; i < 20; i++ {
		a.OnStatus(true)
	}
	if got := m.SampleRate(); got < a.MinRate-1e-9 || got > a.MinRate+1e-6 {
		t.Errorf("rate floored at %v, want MinRate %v", got, a.MinRate)
	}
	for i := 0; i < 100; i++ {
		a.OnStatus(false)
	}
	if got := m.SampleRate(); got < 0.999 {
		t.Errorf("rate after recovery = %v, want 1", got)
	}
}

func TestWorkersPerParserFlowAffinity(t *testing.T) {
	// With per-worker instances and flow dispatch, a stateful parser must
	// see all packets of one flow on one instance. flushParser counts per
	// instance; the sum must equal total packets.
	sink := &memSink{}
	m, err := New(Config{
		Parsers:          []Factory{func() Parser { return &flushParser{} }},
		WorkersPerParser: 4,
		Sink:             sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	const flows, perFlow = 40, 3
	for f := 0; f < flows; f++ {
		raw := frameWithPorts(uint16(7000+f), 80)
		for p := 0; p < perFlow; p++ {
			m.Deliver(raw, time.Now())
		}
	}
	m.Stop()
	total := 0.0
	for _, tu := range sink.tuples() {
		if tu.Key == "total" {
			total += tu.Val
		}
	}
	if total != flows*perFlow {
		t.Errorf("workers processed %v packets total, want %d", total, flows*perFlow)
	}
}

func BenchmarkMonitorSharedVsCopy(b *testing.B) {
	for _, mode := range []struct {
		name string
		copy bool
	}{{"shared", false}, {"copy", true}} {
		b.Run(mode.name, func(b *testing.B) {
			m, err := New(Config{
				Parsers: []Factory{
					func() Parser { return &countParser{name: "a"} },
					func() Parser { return &countParser{name: "b"} },
				},
				Sink:       SinkFunc(func(*tuple.Batch) error { return nil }),
				QueueDepth: 65536,
				CopyMode:   mode.copy,
			})
			if err != nil {
				b.Fatal(err)
			}
			m.Start()
			raw := frameWithPorts(1234, 80)
			b.SetBytes(int64(len(raw)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for !m.Deliver(raw, time.Time{}) {
					time.Sleep(10 * time.Microsecond)
				}
			}
			b.StopTimer()
			m.Stop()
		})
	}
}
