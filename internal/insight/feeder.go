package insight

import (
	"strings"
	"time"

	"netalytics/internal/telemetry"
	"netalytics/internal/tuple"
)

// selfPrefix marks the tier's own metrics; the feeder never feeds them back
// into detection (an incident counter spiking because incidents fired would
// be a feedback loop).
const selfPrefix = "insight_tier_"

// Derived-series suffixes the feeder synthesizes.
const (
	// SuffixRate marks a counter's per-second derivative.
	SuffixRate = ":rate"
	// SuffixMean and SuffixP95 mark a histogram's windowed (delta between
	// consecutive snapshots) mean and 95th percentile — distribution shifts,
	// not lifetime aggregates.
	SuffixMean = ":mean"
	SuffixP95  = ":p95"
)

// DefaultFilter is the engine's default observation filter: the series the
// observation sessions write (insight_*), the pipeline's stage-latency
// histogram, and the aggregation layer's health signals. Everything else in
// the registry is operational detail whose volatility would cost detector
// state without adding diagnosable signal; pass an explicit Filter to widen.
func DefaultFilter(name string) bool {
	if strings.HasPrefix(name, "insight_") {
		return true
	}
	switch name {
	case "pipeline_latency_ns", "mq_occupancy", "mq_dropped", "session_result_drops":
		return true
	}
	return false
}

// prevSample is the feeder's memory of one instrument between snapshots.
type prevSample struct {
	counter float64
	hist    telemetry.HistSnapshot
	seen    bool
}

// Feeder is the registry spout: every period it snapshots the telemetry
// registry and emits one tuple per live series — gauges as-is, counters as
// per-second rates, histograms as windowed mean/p95 deltas — so the insight
// topology is fed through the exact spout interface query topologies use.
// It is not safe for concurrent use; run it as a single spout task.
type Feeder struct {
	reg    *telemetry.Registry
	period time.Duration
	filter func(name string) bool

	prev   map[string]*prevSample
	lastAt time.Time
	nextAt time.Time
	now    func() time.Time
}

// NewFeeder creates a feeder snapshotting reg every period. filter, when
// non-nil, restricts observation to metric names it accepts (the tier's
// self-metrics are always excluded).
func NewFeeder(reg *telemetry.Registry, period time.Duration, filter func(string) bool) *Feeder {
	if period <= 0 {
		period = time.Second
	}
	return &Feeder{
		reg:    reg,
		period: period,
		filter: filter,
		prev:   make(map[string]*prevSample),
		now:    time.Now,
	}
}

// Next implements stream.Spout: nil until the period elapses, then one
// tuple per series.
func (f *Feeder) Next() []tuple.Tuple {
	now := f.now()
	if now.Before(f.nextAt) {
		return nil
	}
	f.nextAt = now.Add(f.period)
	return f.snapshot(now)
}

// NextWait implements stream.WaitSpout: sleep toward the next snapshot
// instead of spinning through Next, unless the executor stops first.
func (f *Feeder) NextWait(stop <-chan struct{}, timeout time.Duration) []tuple.Tuple {
	if wait := time.Until(f.nextAt); wait > 0 {
		if wait > timeout {
			wait = timeout
		}
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-stop:
			return nil
		}
	}
	return f.Next()
}

// snapshot turns one registry snapshot into series tuples.
func (f *Feeder) snapshot(now time.Time) []tuple.Tuple {
	points := f.reg.Snapshot()
	nowNS := now.UnixNano()
	dt := f.period.Seconds()
	if !f.lastAt.IsZero() {
		if d := now.Sub(f.lastAt).Seconds(); d > 0 {
			dt = d
		}
	}
	first := f.lastAt.IsZero()
	f.lastAt = now

	live := make(map[string]bool, len(points))
	out := make([]tuple.Tuple, 0, len(points))
	emit := func(id string, v float64) {
		out = append(out, tuple.Tuple{Key: id, Val: v, TS: nowNS})
	}
	for _, p := range points {
		if strings.HasPrefix(p.Name, selfPrefix) {
			continue
		}
		if f.filter != nil && !f.filter(p.Name) {
			continue
		}
		id := SeriesID(p.Name, p.Labels, "")
		live[id] = true
		switch p.Kind {
		case telemetry.KindGauge:
			emit(id, p.Value)
		case telemetry.KindCounter:
			ps := f.prevFor(id)
			if ps.seen && !first {
				emit(id+SuffixRate, (p.Value-ps.counter)/dt)
			}
			ps.counter = p.Value
			ps.seen = true
		case telemetry.KindHistogram:
			if p.Hist == nil {
				continue
			}
			ps := f.prevFor(id)
			if ps.seen && !first {
				delta := p.Hist.Sub(ps.hist)
				// No observations this window means no information — stale
				// latency series must not train their baselines toward zero.
				if delta.Count > 0 {
					emit(id+SuffixMean, delta.Mean())
					emit(id+SuffixP95, delta.Quantile(0.95))
				}
			}
			ps.hist = *p.Hist
			ps.seen = true
		}
	}
	// Retired series (DropLabeled) free their feeder memory too.
	for id := range f.prev {
		if !live[id] {
			delete(f.prev, id)
		}
	}
	return out
}

func (f *Feeder) prevFor(id string) *prevSample {
	ps, ok := f.prev[id]
	if !ok {
		ps = &prevSample{}
		f.prev[id] = ps
	}
	return ps
}
