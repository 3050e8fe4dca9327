package bench

import (
	"fmt"
	"runtime"
	"time"
)

// tuplesPerFrame is the most tuples the loss of one frame can cost a session
// in any workload: a lost SYN costs tcp_conn_time its "start" and, the
// connection never having opened, the "end" of the FIN that follows. It
// turns a frame-level drop count into the tuple loss it can explain.
const tuplesPerFrame = 2

// rank1Floor is the share of paced-phase rankings whose first entry must be
// the reference's most frequent key. It is not 1: every bolt task flushes on
// a tick of its own, so a rank bolt can flush while the count bolts are still
// streaming the tick's tens of thousands of totals to it, and a ranking built from part of
// them can miss the top key. This repository's seed leads 75–100 % of the
// rankings with the right key (reported as stream.rank1_match_ratio); the
// floor only catches a top-k that has stopped working.
const rank1Floor = 0.6

// verdict collects what the gates found.
type verdict struct {
	attempted, failed uint64
	problems          []string // any entry makes the run incorrect
	rank1Match        float64  // top-k: share of paced rankings led by the reference key
	rankIntervalsMS   []float64
}

func (v *verdict) problemf(format string, args ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

// counters reads the engine's public counters: the inputs of the loss
// attribution and of the traced run's per-phase ratios.
func (r *rig) counters() map[string]float64 {
	c := map[string]float64{"gen.injected": float64(r.gen.injected)}
	ns := r.eng.Network().Stats()
	fc := r.eng.Network().FlowCacheStats()
	c["vnet.frames"] = float64(ns.Frames)
	c["vnet.mirrored"] = float64(ns.Mirrored)
	c["vnet.tap_drops"] = float64(ns.TapDrops)
	c["vnet.flowcache_hits"] = float64(fc.Hits)
	c["vnet.flowcache_misses"] = float64(fc.Misses)
	c["sdn.rules"] = float64(r.eng.Controller().RuleCount())
	c["sdn.flowtable_misses"] = float64(r.eng.Controller().Misses())
	c["nfv.instances"] = float64(r.eng.Orchestrator().InstanceCount())
	for _, se := range r.sessions {
		c["nfv.pumped"] += float64(se.s.Packets())
		m := se.s.MonitorStats()
		c["monitor.received"] += float64(m.Received)
		c["monitor.dispatched"] += float64(m.Dispatched)
		c["monitor.tuples"] += float64(m.Tuples)
		c["monitor.batches"] += float64(m.Batches)
		c["monitor.collect_drops"] += float64(m.CollectDrops)
		c["monitor.parser_drops"] += float64(m.ParserDrops)
		c["monitor.sink_errors"] += float64(m.SinkErrors)
		for _, t := range se.topics {
			st := r.gen.cluster.Stats(t)
			c["mq.appended_tuples"] += float64(st.AppendedTuples)
			c["mq.consumed_tuples"] += float64(st.ConsumedTuples)
			c["mq.dropped_tuples"] += float64(st.DroppedTuples)
			c["mq.retries"] += float64(st.Retries)
		}
		c["core.result_drops"] += float64(se.s.ResultDrops())
		c["core.results"] += float64(se.results.Load())
	}
	return c
}

// check runs the correctness gates. The sessions are stopped and their
// consumers have finished, so every counter is final.
func (r *rig) check(ch churnResult, pacedFrom, pacedTo time.Time) verdict {
	var v verdict
	g := r.gen
	if g.errs > 0 {
		v.problemf("%d Inject calls failed", g.errs)
	}

	// Conservation, session by session: what the reference model says the
	// session is owed against what reached the end of its pipeline, the
	// difference explained by the drops the layers own up to.
	var wantCounts map[string]uint64 // group-count reference, built on first use
	for _, se := range r.sessions {
		frames, tuples := g.expected(se)
		tel := se.s.Telemetry()
		var consumed, dropped uint64
		for _, st := range tel.Topics {
			consumed += st.ConsumedTuples
			dropped += st.DroppedTuples
		}
		frameLoss := tel.TapDrops + tel.Monitor.CollectDrops + tel.Monitor.ParserDrops
		attributed := frameLoss*tuplesPerFrame + dropped + tel.Monitor.SinkErrors*64
		if tel.Packets+tel.TapDrops != frames {
			v.problemf("%s: %d frames mirrored by the reference, %d pumped + %d dropped at the tap",
				se.s.ID, frames, tel.Packets, tel.TapDrops)
		}
		delivered := consumed
		if se.spec.kind == kindPassthrough {
			delivered = se.results.Load()
			attributed += tel.ResultDrops
		}
		v.attempted += tuples
		switch {
		case delivered > tuples || consumed > tuples:
			v.problemf("%s: owed %d tuples, pipeline delivered %d (spouts read %d)", se.s.ID, tuples, delivered, consumed)
		case tuples-delivered > attributed:
			v.problemf("%s: %d of %d tuples lost, only %d attributed to drops", se.s.ID, tuples-delivered, tuples, attributed)
			fallthrough
		default:
			v.failed += tuples - delivered
		}

		switch se.spec.kind {
		case kindDiff:
			// One diff per closed connection, durations never negative.
			got := se.results.Load()
			v.attempted += g.fins
			switch {
			case got > g.fins:
				v.problemf("%s: %d connections closed, %d diff results", se.s.ID, g.fins, got)
			case g.fins-got > attributed+tel.ResultDrops:
				v.problemf("%s: %d of %d connections produced no diff result", se.s.ID, g.fins-got, g.fins)
				fallthrough
			default:
				v.failed += g.fins - got
			}
			if se.negative > 0 || se.unmatched > 0 {
				v.problemf("%s: %d negative durations, %d results naming no connection", se.s.ID, se.negative, se.unmatched)
			}
		case kindTopK:
			want := r.topKey()
			var n, hit int
			var last int64
			for _, rk := range se.rankings {
				if rk.at < pacedFrom.UnixNano() || rk.at >= pacedTo.UnixNano() {
					continue
				}
				n++
				if rk.top == want {
					hit++
				}
				if last != 0 {
					v.rankIntervalsMS = append(v.rankIntervalsMS, float64(rk.at-last)/1e6)
				}
				last = rk.at
			}
			if n == 0 {
				v.problemf("%s: no ranking during the paced phase", se.s.ID)
				break
			}
			v.rank1Match = float64(hit) / float64(n)
			if v.rank1Match < rank1Floor {
				v.problemf("%s: reference key led %d of %d rankings, floor is %.0f %%", se.s.ID, hit, n, rank1Floor*100)
			}
		case kindGroupCount:
			if !se.spec.counted || attributed > 0 {
				break
			}
			if wantCounts == nil {
				wantCounts = r.keyCounts()
			}
			want := wantCounts
			if len(se.counts) != len(want) {
				v.problemf("%s: %d groups, reference has %d", se.s.ID, len(se.counts), len(want))
			}
			for k, n := range want {
				if got := se.counts[k]; got != float64(n) {
					v.problemf("%s: count of %q is %v, reference %d", se.s.ID, k, got, n)
					break
				}
			}
		}
	}

	lost := g.lost + r.probes.pending()
	v.attempted += g.probeSeq
	v.failed += lost

	v.attempted += uint64(ch.cycles)
	v.failed += uint64(ch.failed)
	if ch.leakedRules > 0 {
		v.problemf("churned sessions left %d mirror rules behind", ch.leakedRules)
	}
	return v
}

// injections returns how often pool frame i has been injected so far.
func (g *generator) injections(i int) uint64 {
	size := uint64(len(g.plan.frames))
	n := g.n / size
	if uint64(i) < g.n%size {
		n++
	}
	if n > 0 && g.plan.frames[i].late {
		n--
	}
	return n
}

// keyCounts is the reference for the group-count sessions: how often each
// URL was requested of server A (class 0), probes included.
func (r *rig) keyCounts() map[string]uint64 {
	want := make(map[string]uint64)
	for i := range r.plan.frames {
		if f := &r.plan.frames[i]; f.class == 0 && f.key != "" {
			want[f.key] += r.gen.injections(i)
		}
	}
	if r.gen.probeSeq > 0 {
		want[probeURL] = r.gen.probeSeq
	}
	return want
}

// topKey is the reference for the top-k session: the pool's most frequent
// URL (ties to the smaller key, as the rank bolt breaks them).
func (r *rig) topKey() string {
	counts := make(map[string]int)
	for i := range r.plan.frames {
		counts[r.plan.frames[i].key]++
	}
	best, bestN := "", 0
	for k, n := range counts {
		if n > bestN || n == bestN && k < best {
			best, bestN = k, n
		}
	}
	return best
}

// checkLeaks runs after Engine.Close: nothing the engine made may be left.
func (r *rig) checkLeaks(v *verdict) {
	if n := r.eng.Controller().RuleCount(); n != 0 {
		v.problemf("%d mirror rules left after Close", n)
	}
	if n := r.eng.Network().TapCount(); n != 0 {
		v.problemf("%d taps left after Close", n)
	}
	if n := r.eng.Orchestrator().InstanceCount(); n != 0 {
		v.problemf("%d monitor instances left after Close", n)
	}
}

// checkGoroutines runs last: every goroutine the engines and the benchmark
// started must be gone.
func checkGoroutines(baseline int, v *verdict) {
	if n := settleGoroutines(baseline, 5*time.Second); n > baseline {
		buf := make([]byte, 1<<16)
		v.problemf("%d goroutines running, %d before the first engine\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}
