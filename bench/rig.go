package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netalytics/internal/core"
	"netalytics/internal/topology"
)

// rig is one engine with a workload's queries running on it and the
// generator that feeds it.
type rig struct {
	w        *Workload
	plan     *plan
	eng      *core.Engine
	gen      *generator
	sessions []*session
	probes   *probeTable
	lat      *samples
	rec      *Recorder
	// setup is how long newRig took: inputs built, engine started, queries
	// submitted. The warm-up pass is not part of it: it is a tenth of a
	// second of closed loop, which repeats no better than one, and it is
	// there to fill caches, which users do not wait for.
	setup time.Duration
}

// newRig is one set-up: build the workload's inputs from the seed, start the
// engine under test and submit the queries.
//
// The engine runs with core.Config's defaults apart from the tick interval,
// the result buffer, the seed and the tracer period: no A/B knob is set, so
// that a later change of a default shows as a change of the numbers.
func newRig(w *Workload, seed int64, smoke bool, traceEvery int, rec *Recorder, parent uint64) (*rig, error) {
	t0 := time.Now()
	topo := topology.MustNew(4)
	p := w.build(topo.Hosts(), rand.New(rand.NewSource(seed)), smoke)
	eng := core.NewEngine(topo, core.Config{
		TickInterval:     50 * time.Millisecond,
		ResultBuffer:     1 << 16,
		Seed:             seed,
		TraceSampleEvery: traceEvery,
	})
	r := &rig{w: w, plan: p, eng: eng, lat: &samples{}, rec: rec}
	r.probes = &probeTable{out: r.lat}
	r.gen = &generator{
		net: eng.Network(), cluster: eng.Aggregation(), plan: p,
		probes: r.probes, finDue: make([]atomic.Int64, p.conns), rec: rec,
	}
	for _, q := range p.queries {
		t0 := time.Now()
		s, err := eng.Submit(q.text)
		rec.Add(0, parent, parent, "core.submit", t0, time.Now())
		if err != nil {
			r.close()
			return nil, fmt.Errorf("submit %q: %w", q.text, err)
		}
		se := &session{spec: q, s: s, done: make(chan struct{}), counts: make(map[string]float64)}
		for _, parser := range s.Query.Parsers {
			se.topics = append(se.topics, s.ID+"/"+parser)
		}
		if q.carrier {
			r.probes.need++
		}
		r.sessions = append(r.sessions, se)
		go r.consume(se)
	}
	r.gen.sessions = r.sessions
	r.setup = time.Since(t0)
	return r, nil
}

// warmUp is one closed-loop pass over the frame pool (at least 2^17 frames),
// which also takes the engine past everything the reference model treats as
// first-pass behaviour.
func (r *rig) warmUp(smoke bool, parent uint64) error {
	warm := uint64(len(r.plan.frames))
	if !smoke && warm < 1<<17 {
		warm = 1 << 17
	}
	r.gen.closedLoop(func() bool { return r.gen.n >= warm }, parent)
	if !r.drain(2 * time.Second) {
		return fmt.Errorf("warm-up of %s did not drain", r.w.Name)
	}
	return nil
}

// newWarmRig is newRig and warmUp: a rig ready to be measured.
func newWarmRig(w *Workload, seed int64, smoke bool, traceEvery int, rec *Recorder, parent uint64) (*rig, error) {
	r, err := newRig(w, seed, smoke, traceEvery, rec, parent)
	if err != nil {
		return nil, err
	}
	if err := r.warmUp(smoke, parent); err != nil {
		r.discard()
		return nil, err
	}
	return r, nil
}

// drain waits until everything injected so far has been pumped from the
// taps and read by the spouts, so that phases do not bleed into each other.
func (r *rig) drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		idle := true
		for _, se := range r.sessions {
			frames, tuples := r.gen.expected(se)
			if se.s.Packets() < frames || se.consumed(r.gen.cluster) < tuples {
				idle = false
				break
			}
		}
		if idle {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitProbes gives the probes still in flight the second after which an
// unanswered one counts as lost.
func (r *rig) awaitProbes() {
	for wait := time.Now().Add(time.Second); r.probes.pending() > 0 && time.Now().Before(wait); {
		time.Sleep(5 * time.Millisecond)
	}
}

// stopSessions stops every session, timing each Stop, and waits for the
// result consumers to finish.
func (r *rig) stopSessions(parent uint64) {
	for _, se := range r.sessions {
		t0 := time.Now()
		se.s.Stop()
		r.rec.Add(0, parent, parent, "core.stop", t0, time.Now())
	}
	for _, se := range r.sessions {
		<-se.done
	}
}

// discard tears down a rig nobody measures: every session stopped at once
// (a Stop waits out a 50 ms tick and the engine's Close takes them one by
// one), then close.
func (r *rig) discard() {
	var wg sync.WaitGroup
	for _, se := range r.sessions {
		wg.Add(1)
		go func(se *session) {
			defer wg.Done()
			se.s.Stop()
		}(se)
	}
	wg.Wait()
	r.close()
}

// close shuts the engine down (stopping whatever still runs) and joins the
// consumers. It returns how long Engine.Close took.
func (r *rig) close() time.Duration {
	t0 := time.Now()
	r.eng.Close()
	d := time.Since(t0)
	for _, se := range r.sessions {
		<-se.done
	}
	return d
}

// throughputResult is the closed-loop phase's outcome.
type throughputResult struct {
	frames  uint64
	wall    time.Duration
	waited  time.Duration // of wall, spent waiting for credit
	mallocs uint64
}

// framesPerSec is the phase's rate: frames injected ÷ wall time.
func (t throughputResult) framesPerSec() float64 { return float64(t.frames) / t.wall.Seconds() }

// throughput runs the closed loop for d: as many frames as the engine takes
// with at most creditWindow outstanding per session.
func (r *rig) throughput(d time.Duration, parent uint64) throughputResult {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f0, w0 := r.gen.injected, r.gen.waited
	t0 := time.Now()
	deadline := t0.Add(d)
	r.gen.closedLoop(func() bool { return time.Now().After(deadline) }, parent)
	res := throughputResult{frames: r.gen.injected - f0, wall: time.Since(t0), waited: r.gen.waited - w0}
	runtime.ReadMemStats(&m1)
	res.mallocs = m1.Mallocs - m0.Mallocs
	r.drain(2 * time.Second)
	return res
}

// paced runs the open loop at the workload's fixed rate for d.
func (r *rig) paced(d time.Duration, parent uint64) pacedStats {
	st := r.gen.openLoop(r.w.PacedRate, d, nil, parent)
	r.drain(2 * time.Second)
	return st
}

// churnResult is the control-plane phase's outcome, one entry per cycle that
// completed.
type churnResult struct {
	cycles, failed        int
	submitMS, waitMS      []float64 // Engine.Submit; Submit's return → first result
	submitToFirst, stopMS []float64
	leakedRules           int
}

// churn submits, uses and stops a fresh query on an idle port, cycles times,
// while the open loop keeps offering the paced load.
func (r *rig) churn(cycles int, parent uint64) churnResult {
	res := churnResult{cycles: cycles}
	stop := make(chan struct{})
	done := make(chan pacedStats)
	go func() { done <- r.gen.openLoop(r.w.PacedRate, 0, stop, parent) }()
	for i := 0; i < cycles; i++ {
		cycle := r.rec.NewID()
		t0 := time.Now()
		cs, err := r.eng.Submit(r.plan.churnQuery)
		t1 := time.Now()
		if err != nil {
			res.failed++
			continue
		}
		ok := r.eng.Network().Inject(r.plan.churnFrame) == nil
		timeout := time.NewTimer(time.Second)
		select {
		case _, open := <-cs.Results():
			ok = ok && open
		case <-timeout.C:
			ok = false
		}
		timeout.Stop()
		t2 := time.Now()
		cs.Stop()
		t3 := time.Now()
		res.leakedRules += len(r.eng.Controller().QueryRules(cs.ID))
		r.rec.Add(cycle, parent, cycle, "churn.cycle", t0, t3)
		r.rec.Add(0, cycle, cycle, "core.submit", t0, t1)
		r.rec.Add(0, cycle, cycle, "core.first_result", t1, t2)
		r.rec.Add(0, cycle, cycle, "core.stop", t2, t3)
		if !ok {
			res.failed++
			continue
		}
		res.submitMS = append(res.submitMS, ms(t1.Sub(t0)))
		res.waitMS = append(res.waitMS, ms(t2.Sub(t1)))
		res.submitToFirst = append(res.submitToFirst, ms(t2.Sub(t0)))
		res.stopMS = append(res.stopMS, ms(t3.Sub(t2)))
	}
	close(stop)
	<-done
	r.drain(2 * time.Second)
	return res
}

// settleGoroutines waits for the goroutine count to fall to target and
// returns the last count seen.
func settleGoroutines(target int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		n := runtime.NumGoroutine()
		if n <= target || time.Now().After(deadline) {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}
