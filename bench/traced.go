package bench

import (
	"fmt"
	"sync"
	"time"

	"netalytics/internal/telemetry"
)

// sampler polls the engine's registry gauges while the traced run goes on,
// keeping the maxima that only exist between phase boundaries: tap backlog,
// mq occupancy, tuples in flight in the topologies.
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	max  map[string]float64 // owned by the goroutine until Stop returns
}

func startSampler(reg *telemetry.Registry) *sampler {
	s := &sampler{stop: make(chan struct{}), max: map[string]float64{}}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			for _, p := range reg.Snapshot() {
				switch p.Name {
				case "nfv_tap_depth", "mq_occupancy", "stream_queue_lag":
					if p.Value > s.max[p.Name] {
						s.max[p.Name] = p.Value
					}
				}
			}
		}
	}()
	return s
}

// Stop ends the sampling and returns the maxima.
func (s *sampler) Stop() map[string]float64 {
	close(s.stop)
	s.wg.Wait()
	return s.max
}

// delta is end minus start for one counter.
func delta(end, start map[string]float64, name string) float64 { return end[name] - start[name] }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// carrier is the session the latency is taken on: the first probe carrier,
// or the only session where latency is FIN-timed.
func (r *rig) carrier() *session {
	for _, se := range r.sessions {
		if se.spec.carrier {
			return se
		}
	}
	return r.sessions[0]
}

// failover crashes the monitor of the latency-carrying session on a rig of
// its own, under the paced load. It returns the time from the crash to the
// arrival of the first result due after the crash had been handled (Crash
// returns once the session has relaunched the monitor and re-installed its
// rules), and how long Engine.Close then took with every session running.
func failover(o Options, rec *Recorder, parent uint64) (failoverMS float64, closeT time.Duration, err error) {
	r, err := newWarmRig(o.Workload, o.Seed, o.Smoke, telemetry.DefaultSampleEvery, rec, parent)
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		t0 := time.Now()
		closeT = r.close()
		rec.Add(0, parent, parent, "core.close", t0, time.Now())
	}()
	carrier := r.carrier()
	stop := make(chan struct{})
	done := make(chan pacedStats)
	go func() { done <- r.gen.openLoop(r.w.PacedRate, 0, stop, parent) }()
	time.Sleep(200 * time.Millisecond)
	t0 := time.Now()
	if ins := r.eng.Orchestrator().Instances(carrier.s.ID); len(ins) > 0 && r.eng.Orchestrator().Crash(ins[0]) {
		t1 := time.Now()
		rec.Add(0, parent, parent, "nfv.crash", t0, t1)
		for wait := t1.Add(2 * time.Second); time.Now().Before(wait); time.Sleep(5 * time.Millisecond) {
			if at := r.lat.firstAfter(t1.UnixNano()); at != 0 {
				failoverMS = float64(at-t0.UnixNano()) / 1e6
				break
			}
		}
	}
	close(stop)
	<-done
	if failoverMS == 0 {
		return 0, 0, fmt.Errorf("%s: no result within 2s of a monitor crash", o.Workload.Name)
	}
	return failoverMS, 0, nil
}

// runTraced is the per-layer run. It measures the closed loop once without
// and once with tracing (the difference is the tracing overhead), then runs
// the traced rig through the paced and churn phases with spans around every
// call into the engine and counter snapshots at the phase boundaries, crashes
// a monitor on a third rig, replays the workload layer by layer, and writes
// the spans to o.Out.
func runTraced(o Options) (map[string]Metric, verdict, error) {
	w := o.Workload
	s := o.Seconds
	loopT := time.Duration(0.2 * s * float64(time.Second))
	pacedT := time.Duration(0.35 * s * float64(time.Second))
	cycles := int(0.05 * s / 0.125)
	if cycles < 2 {
		cycles = 2
	}

	ru, err := newWarmRig(w, o.Seed, o.Smoke, -1, nil, 0)
	if err != nil {
		return nil, verdict{}, err
	}
	untraced := ru.throughput(loopT, 0)
	ru.discard()

	rec := &Recorder{}
	root := rec.NewID()
	runStart := time.Now()
	phase := func(name string, fn func(id uint64)) {
		id := rec.NewID()
		t0 := time.Now()
		fn(id)
		rec.Add(id, root, root, "phase."+name, t0, time.Now())
	}

	var r *rig
	phase("setup", func(id uint64) {
		r, err = newWarmRig(w, o.Seed, o.Smoke, telemetry.DefaultSampleEvery, rec, id)
	})
	if err != nil {
		return nil, verdict{}, err
	}
	smp := startSampler(r.eng.Metrics())
	c0 := r.counters()
	rec.Snapshot("start", c0)

	var tp throughputResult
	var tpID uint64
	phase("throughput", func(id uint64) { tpID = id; tp = r.throughput(loopT, id) })
	c1 := r.counters()
	rec.Snapshot("throughput.end", c1)

	var pc pacedStats
	phase("paced", func(id uint64) { pc = r.paced(pacedT, id) })
	c2 := r.counters()
	rec.Snapshot("paced.end", c2)

	var ch churnResult
	phase("churn", func(id uint64) { ch = r.churn(cycles, id) })
	r.awaitProbes()
	maxima := smp.Stop()

	// The program's own 1-in-64 tracer, read where the latency is taken.
	carrier := r.carrier()
	stages := carrier.s.Telemetry().Stages

	phase("teardown", func(id uint64) { r.stopSessions(id) })
	v := r.check(ch, pc.start, pc.end)
	c3 := r.counters()
	rec.Snapshot("stop.end", c3)
	r.close()
	r.checkLeaks(&v)
	logLoss(o.Log, r, c3)

	var failoverMS float64
	var closeT time.Duration
	phase("failover", func(id uint64) { failoverMS, closeT, err = failover(o, rec, id) })
	if err != nil {
		return nil, verdict{}, err
	}

	var sheet map[string]float64
	phase("replay", func(uint64) { sheet, err = replay(r.plan, o.Seed, o.Smoke) })
	if err != nil {
		return nil, verdict{}, err
	}
	rec.Add(root, 0, root, "run", runStart, time.Now())
	if err := rec.WriteFile(o.Out, w.Name, o.Seed); err != nil {
		return nil, verdict{}, err
	}

	// Live rows: spans and counter deltas over the phase they describe.
	injectedTP := delta(c1, c0, "gen.injected")
	var injectNS float64
	for _, sp := range rec.spans {
		if sp.Name == "vnet.inject" && sp.Parent == tpID {
			injectNS += float64(sp.End - sp.Start)
		}
	}
	lookups := delta(c1, c0, "vnet.flowcache_hits") + delta(c1, c0, "vnet.flowcache_misses")
	cpuNS := pc.cpuPerFrameUS() * 1e3
	all := r.lat.between(pc.start.UnixNano(), pc.end.UnixNano())
	stage := func(name string) float64 {
		for _, st := range stages {
			if st.Stage == name {
				return st.P50NS / 1e3
			}
		}
		return 0
	}

	m := map[string]Metric{
		"vnet.inject_ns_per_frame":     {ratio(injectNS, injectedTP), "ns"},
		"vnet.inject_allocs_per_frame": {sheet["vnet.inject_allocs_per_frame"], "allocs"},
		"vnet.forward_ns_per_frame":    {sheet["vnet.forward_ns_per_frame"], "ns"},
		"vnet.mirror_overhead_frac":    {sheet["vnet.mirror_overhead_frac"], "fraction"},
		"vnet.mirrored_per_frame":      {ratio(delta(c1, c0, "vnet.mirrored"), delta(c1, c0, "vnet.frames")), "count"},
		"vnet.tap_depth_max":           {maxima["nfv_tap_depth"], "count"},
		"vnet.tap_drops":               {c3["vnet.tap_drops"], "count"},
		"vnet.flowcache_hit_ratio":     {ratio(delta(c1, c0, "vnet.flowcache_hits"), lookups), "fraction"},

		"sdn.rules":            {c1["sdn.rules"], "count"},
		"sdn.install_us":       {sheet["sdn.install_us"], "us"},
		"sdn.remove_query_us":  {sheet["sdn.remove_query_us"], "us"},
		"sdn.lookup_ns":        {sheet["sdn.lookup_ns"], "ns"},
		"sdn.flowtable_misses": {delta(c3, c0, "sdn.flowtable_misses"), "count"},
		"query.parse_us":       {sheet["query.parse_us"], "us"},
		"placement.place_us":   {sheet["placement.place_us"], "us"},

		"nfv.instances":        {c1["nfv.instances"], "count"},
		"nfv.pumped_per_frame": {ratio(delta(c1, c0, "nfv.pumped"), injectedTP), "count"},
		"nfv.failover_ms":      {failoverMS, "ms"},

		"monitor.ns_per_frame":     {sheet["monitor.ns_per_frame"], "ns"},
		"monitor.allocs_per_frame": {sheet["monitor.allocs_per_frame"], "allocs"},
		"monitor.parsed_per_frame": {ratio(delta(c1, c0, "monitor.dispatched"), injectedTP), "count"},
		"monitor.tuples_per_frame": {ratio(delta(c1, c0, "monitor.tuples"), injectedTP), "count"},
		"monitor.collect_drops":    {c3["monitor.collect_drops"], "count"},
		"monitor.parser_drops":     {c3["monitor.parser_drops"], "count"},
		"monitor.batch_fill":       {ratio(delta(c2, c1, "monitor.tuples"), delta(c2, c1, "monitor.batches")*64), "fraction"},

		"mq.send_ns_per_tuple": {sheet["mq.send_ns_per_tuple"], "ns"},
		"mq.poll_ns_per_tuple": {sheet["mq.poll_ns_per_tuple"], "ns"},
		"mq.allocs_per_tuple":  {sheet["mq.allocs_per_tuple"], "allocs"},
		"mq.occupancy_max":     {maxima["mq_occupancy"], "fraction"},
		"mq.dropped_tuples":    {c3["mq.dropped_tuples"], "count"},
		"mq.retries":           {c3["mq.retries"], "count"},

		"stream.ns_per_tuple":            {sheet["stream.ns_per_tuple"], "ns"},
		"stream.allocs_per_tuple":        {sheet["stream.allocs_per_tuple"], "allocs"},
		"stream.queue_lag_max":           {maxima["stream_queue_lag"], "count"},
		"stream.results_per_tuple":       {ratio(delta(c1, c0, "core.results"), delta(c1, c0, "mq.consumed_tuples")), "count"},
		"stream.ranking_interval_p95_ms": {quantile(v.rankIntervalsMS, 0.95), "ms"},
		"stream.rank1_match_ratio":       {v.rank1Match, "fraction"},
		"sketch.topk_offer_ns":           {sheet["sketch.topk_offer_ns"], "ns"},

		"core.submit_ms":            {median(ch.submitMS), "ms"},
		"core.first_result_wait_ms": {median(ch.waitMS), "ms"},
		"core.stop_ms":              {median(ch.stopMS), "ms"},
		"core.close_ms":             {ms(closeT), "ms"},
		"core.result_drops":         {c3["core.result_drops"], "count"},
		"core.latency_p95_ms":       {quantile(all, 0.95), "ms"},
		"core.latency_p99_ms":       {quantile(all, 0.99), "ms"},
		"core.loss_ratio":           {ratio(float64(v.failed), float64(v.attempted)), "fraction"},

		"telemetry.capture_to_parse_p50_us": {stage(telemetry.StageCaptureToParse), "us"},
		"telemetry.parse_to_mq_p50_us":      {stage(telemetry.StageParseToMQ), "us"},
		"telemetry.mq_to_stream_p50_us":     {stage(telemetry.StageMQToStream), "us"},
		"telemetry.stream_to_sink_p50_us":   {stage(telemetry.StageStreamToSink), "us"},
		"telemetry.e2e_p50_us":              {stage(telemetry.StageEndToEnd), "us"},

		"gen.lateness_p50_us":    {median(pc.lateness), "us"},
		"gen.lateness_p99_us":    {quantile(pc.lateness, 0.99), "us"},
		"gen.achieved_rate_frac": {ratio(float64(pc.frames), pc.end.Sub(pc.start).Seconds()*float64(w.PacedRate+probeRateOf(r.plan))), "fraction"},
		"gen.credit_wait_frac":   {ratio(float64(tp.waited), float64(tp.wall)), "fraction"},
		"gen.held_bursts":        {float64(r.gen.held), "count"},

		"trace_overhead_frac":     {1 - ratio(tp.framesPerSec(), untraced.framesPerSec()), "fraction"},
		"sheet.unattributed_frac": {1 - ratio(sheet["sheet.ns_per_frame"], cpuNS), "fraction"},
	}
	fmt.Fprintf(o.Log, "%s seed %d traced: closed loop %.0f frames/s traced, %.0f untraced; %d spans in %s\n",
		w.Name, o.Seed, tp.framesPerSec(), untraced.framesPerSec(), len(rec.spans), o.Out)
	return m, v, nil
}

// probeRateOf is the probe share of the open loop's offered load.
func probeRateOf(p *plan) int {
	if p.probes == nil {
		return 0
	}
	return probeRate
}
