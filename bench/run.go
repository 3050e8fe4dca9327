// Package bench is nabench, the repository's benchmark: four workloads
// driven through the whole NetAlytics pipeline (core.NewEngine on a k=4 fat
// tree) by one generator goroutine, measured end to end with tracing off
// and, in a separate traced run, layer by layer. See README.md.
package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"time"
)

// Options selects one run.
type Options struct {
	Workload *Workload
	Seed     int64
	// Seconds is the measured time: closed loop, open loop and churn.
	Seconds float64
	// Trace selects the traced run, which reports the per-layer metrics.
	Trace bool
	// Smoke shrinks the pools, phases and set-up repetitions so that a run
	// takes a second or two; same code paths, same gates, no use for its
	// timings.
	Smoke bool
	// Out is where the traced run writes its spans.
	Out string
	// Log receives progress and the gates' findings.
	Log io.Writer
}

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run prints: the driver's contract.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// setupRuns is how many times an untraced run sets the rig up before it
// measures (on the last of them) and again after it has closed that rig.
const setupRuns = 5

// phases splits the measured time: 45 % closed loop, 45 % open loop, and
// the rest for the churn cycles (≈125 ms each while the open loop goes on).
func (o Options) phases() (loop time.Duration, cycles int) {
	s := o.Seconds
	loop = time.Duration(0.45 * s * float64(time.Second))
	cycles = int(0.1 * s / 0.125)
	if cycles < 2 {
		cycles = 2
	}
	return loop, cycles
}

// Run executes one benchmark run.
func Run(o Options) (Result, error) {
	if o.Log == nil {
		o.Log = io.Discard
	}
	// The generator is a thread of its own beside the engine's: with one P
	// more than there are cores its wake-ups do not queue behind the engine's
	// goroutines, and the kernel shares the cores between them.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 1))
	runtime.GC()
	baseline := settleGoroutines(runtime.NumGoroutine(), 100*time.Millisecond)
	var res Result
	var v verdict
	var err error
	if o.Trace {
		res.Metrics, v, err = runTraced(o)
	} else {
		res.Metrics, v, err = runUntraced(o)
	}
	if err != nil {
		return Result{}, err
	}
	checkGoroutines(baseline, &v)
	for _, p := range v.problems {
		fmt.Fprintf(o.Log, "GATE FAILED: %s\n", p)
	}
	res.Correct = len(v.problems) == 0
	res.Attempted, res.Failed = v.attempted, v.failed
	return res, nil
}

// timedSetups sets the rig up n times, tearing each but the last down again.
// It returns the last rig and the set-up times in seconds.
//
// Every set-up starts cold, with the heap's free memory returned to the
// system, as the first set-up of a process does. Most of a set-up is large
// allocations (a 64k-tuple result buffer per session), which cost 0.8 ms from
// memory the process still holds and 3.5 ms from fresh pages, and how much
// the scavenger had returned by the next set-up was most of the spread.
func timedSetups(o Options, n int) (*rig, []float64, error) {
	var r *rig
	var times []float64
	for i := 0; i < n; i++ {
		if r != nil {
			r.discard()
		}
		debug.FreeOSMemory()
		var err error
		if r, err = newRig(o.Workload, o.Seed, o.Smoke, -1, nil, 0); err != nil {
			return nil, nil, err
		}
		times = append(times, r.setup.Seconds())
	}
	return r, times, nil
}

// runUntraced is the end-to-end run: tracing off, no spans, no sampling.
func runUntraced(o Options) (map[string]Metric, verdict, error) {
	w := o.Workload
	loop, cycles := o.phases()
	runs := setupRuns
	if o.Smoke {
		runs = 1
	}

	r, before, err := timedSetups(o, runs)
	if err != nil {
		return nil, verdict{}, err
	}
	if err := r.warmUp(o.Smoke, 0); err != nil {
		r.discard()
		return nil, verdict{}, err
	}
	fmt.Fprintf(o.Log, "%s seed %d: %d pool frames, %d sessions\n", w.Name, o.Seed, len(r.plan.frames), len(r.sessions))

	tp := r.throughput(loop, 0)
	pc := r.paced(loop, 0)
	ch := r.churn(cycles, 0)
	r.awaitProbes()
	r.stopSessions(0)
	v := r.check(ch, pc.start, pc.end)
	final := r.counters()
	r.close()
	r.checkLeaks(&v)

	lat := r.lat.between(pc.start.UnixNano(), pc.end.UnixNano())
	logLoss(o.Log, r, final)
	r = nil // the second group of set-ups starts from the heap the first did

	// One set-up is tens of milliseconds, and this shared machine has spells
	// of a few seconds in which everything takes half as long again; one of
	// them covers a whole group of set-ups. A second group is timed here, more
	// than --seconds later, and the run reports the median of the faster
	// group: a spell can only add time.
	last, after, err := timedSetups(o, runs)
	if err != nil {
		return nil, verdict{}, err
	}
	last.discard()
	setup := math.Min(median(before), median(after))

	fmt.Fprintf(o.Log, "set-up %.3fs (medians of %d: %.3fs before, %.3fs after); closed loop %d frames in %.2fs; open loop %d frames, %d latency samples, lateness p50 %.0f p99 %.0f max %.0fµs; churn %d/%d cycles\n",
		setup, runs, median(before), median(after), tp.frames, tp.wall.Seconds(), pc.frames, len(lat),
		median(pc.lateness), quantile(pc.lateness, 0.99), quantile(pc.lateness, 1), len(ch.stopMS), ch.cycles)
	if len(lat) == 0 || len(ch.stopMS) == 0 {
		v.problemf("no latency samples (%d) or no completed churn cycle (%d)", len(lat), len(ch.stopMS))
	}
	// Every statistic is the plain one over its whole phase; medians over
	// quarter-second windows repeated no better over ten seeds. The tail is a
	// p90: host stalls of several ms take about one result in twenty, which
	// puts the p95 on the knee of the distribution (quartile distance 35 % of
	// its median over ten seeds). The traced run reports p95 and p99 unbounded.
	m := map[string]Metric{
		"setup_s":                   {setup, "s"},
		"frames_per_s":              {tp.framesPerSec(), "frames/s"},
		"latency_p50_ms":            {quantile(lat, 0.5), "ms"},
		"latency_p90_ms":            {quantile(lat, 0.9), "ms"},
		"cpu_us_per_frame":          {pc.cpuPerFrameUS(), "us"},
		"allocs_per_frame":          {float64(tp.mallocs) / float64(tp.frames), "allocs"},
		"peak_rss_mb":               {peakRSSMB(), "MB"},
		"submit_to_first_result_ms": {median(ch.submitToFirst), "ms"},
		"stop_ms":                   {median(ch.stopMS), "ms"},
	}
	return m, v, nil
}

// logLoss prints where the run's failed operations were lost, layer by layer.
func logLoss(w io.Writer, r *rig, c map[string]float64) {
	fmt.Fprintf(w, "loss: tap %v, collect %v, parser %v, sink errors %v, mq tuples %v, result buffer %v, probes %d of %d, credit stalls %d; tap guard held %d bursts\n",
		c["vnet.tap_drops"], c["monitor.collect_drops"], c["monitor.parser_drops"], c["monitor.sink_errors"],
		c["mq.dropped_tuples"], c["core.result_drops"], r.gen.lost+r.probes.pending(), r.gen.probeSeq, r.gen.stalls, r.gen.held)
}
