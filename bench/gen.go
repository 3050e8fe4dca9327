package bench

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"netalytics/internal/core"
	"netalytics/internal/mq"
	"netalytics/internal/stream"
	"netalytics/internal/vnet"
)

const (
	// creditWindow is how many frames (at the tap) and tuples (not yet read
	// by a spout) the closed loop keeps outstanding per session. It is below
	// every queue on the path (tap 4096, monitor RX and worker queues 4096,
	// mq 1024 batches of 64, stream 1024 batches of 32), so the closed loop
	// loses nothing by construction and any drop it does see is a finding.
	creditWindow = 2048
	// injectChunk is the closed loop's unit of work between credit checks
	// and the length of one vnet.inject span.
	injectChunk = 256
	// burstInterval is the open loop's schedule: one burst every 250 µs.
	burstInterval = 250 * time.Microsecond
	// tapGuard is the open loop's loss guard: a burst is held while any
	// session has more than this many frames not yet pumped from its tap
	// (4096 deep). It engages when the host stalls a pump for tens of ms
	// while the generator keeps running, which this shared machine does in
	// about one run in ten; the burst's frames keep their due time, so the
	// hold shows as latency, and held bursts are counted.
	tapGuard = 3072
	// stallAfter is how long the closed loop waits for credit that does not
	// come (every timer on the path fires within 50 ms) before it writes the
	// outstanding work off as lost and goes on.
	stallAfter = 500 * time.Millisecond

	maxClasses = 8
)

// samples is the latency log: one (due time, latency) pair per timed result.
type samples struct {
	mu       sync.Mutex
	due, lat []int64
}

func (s *samples) add(due, lat int64) {
	s.mu.Lock()
	s.due = append(s.due, due)
	s.lat = append(s.lat, lat)
	s.mu.Unlock()
}

// between returns the latencies (ms) of the results due in [from, to).
func (s *samples) between(from, to int64) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for i, d := range s.due {
		if d >= from && d < to {
			out = append(out, float64(s.lat[i])/1e6)
		}
	}
	return out
}

// firstAfter returns the earliest arrival time among results due at or
// after t, 0 when there is none.
func (s *samples) firstAfter(t int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var best int64
	for i, d := range s.due {
		if at := d + s.lat[i]; d >= t && (best == 0 || at < best) {
			best = at
		}
	}
	return best
}

// probeTable tracks the probes in flight, one slot per probe flow.
type probeTable struct {
	due    [probeSlots]atomic.Int64 // due time of the slot's probe, 0 when answered
	copies [probeSlots]atomic.Int32
	need   int32 // carrier sessions that must all deliver the probe
	out    *samples
}

func (p *probeTable) arrived(slot int, now int64) {
	if p.need > 1 && p.copies[slot].Add(1) < p.need {
		return
	}
	p.copies[slot].Store(0)
	if due := p.due[slot].Swap(0); due != 0 {
		p.out.add(due, now-due)
	}
}

// pending counts the probes still unanswered.
func (p *probeTable) pending() (n uint64) {
	for i := range p.due {
		if p.due[i].Load() != 0 {
			n++
		}
	}
	return n
}

// ranking is one top-k result as the consumer saw it.
type ranking struct {
	at  int64
	top string
}

// session is one submitted query with its result consumer's state.
type session struct {
	spec   querySpec
	s      *core.Session
	topics []string

	results atomic.Uint64 // results received

	// The generator's last read-outs and write-offs, for the credit window.
	seenTuples, seenPumped   uint64
	slackTuples, slackFrames uint64

	done chan struct{} // closed when the consumer has drained Results()

	// Owned by the consumer; read after done.
	rankings  []ranking
	counts    map[string]float64
	negative  uint64 // diff results with a negative duration
	unmatched uint64 // diff results that name no connection of the pool
}

// consumed is the session's progress as the engine's public read-outs show
// it: results handed over (or dropped at the result buffer) for a
// passthrough, tuples the spouts have polled for everything else.
func (se *session) consumed(cluster *mq.Cluster) uint64 {
	if se.spec.kind == kindPassthrough {
		return se.results.Load() + se.s.ResultDrops()
	}
	var n uint64
	for _, t := range se.topics {
		n += cluster.Stats(t).ConsumedTuples
	}
	return n
}

type classCount struct{ frames, tuples uint64 }

// generator is the load generator: one goroutine injecting pre-built frames
// and keeping the reference model's counts of what it injected.
type generator struct {
	net      *vnet.Network
	cluster  *mq.Cluster
	plan     *plan
	sessions []*session
	probes   *probeTable
	finDue   []atomic.Int64 // webtier: due time of each connection's last FIN
	rec      *Recorder

	n        uint64 // pool positions consumed
	class    [maxClasses]classCount
	injected uint64 // frames injected, probes included
	fins     uint64
	probeSeq uint64
	lost     uint64        // probes overwritten unanswered
	errs     uint64        // Inject errors
	stalls   uint64        // credit waits written off
	held     uint64        // open-loop bursts held by the tap guard
	waited   time.Duration // closed loop: time spent waiting for credit
}

// next injects the pool's next frame, due at dueNS (0 in the closed loop).
func (g *generator) next(dueNS int64) {
	for {
		first := g.n < uint64(len(g.plan.frames))
		f := &g.plan.frames[g.n%uint64(len(g.plan.frames))]
		g.n++
		if f.late && first {
			continue
		}
		if f.fin >= 0 {
			g.finDue[f.fin].Store(dueNS)
			g.fins++
		}
		if err := g.net.Inject(f.raw); err != nil {
			g.errs++
		}
		c := &g.class[f.class]
		c.frames++
		if !f.once || first {
			c.tuples += uint64(f.tuples)
		}
		g.injected++
		return
	}
}

func (g *generator) probe(dueNS int64) {
	slot := g.probeSeq % probeSlots
	g.probeSeq++
	if old := g.probes.due[slot].Swap(dueNS); old != 0 {
		g.lost++
		g.probes.copies[slot].Store(0)
	}
	if err := g.net.Inject(g.plan.probes[slot]); err != nil {
		g.errs++
	}
	c := &g.class[g.plan.probeClass]
	c.frames++
	c.tuples++
	g.injected++
}

// expected is the reference model's count of the frames mirrored to the
// session and the tuples its parsers owe for them.
func (g *generator) expected(se *session) (frames, tuples uint64) {
	for _, c := range se.spec.classes {
		frames += g.class[c].frames
		tuples += g.class[c].tuples
	}
	return frames, tuples
}

// awaitCredit blocks until every session has room for another room frames
// and tuples inside the credit window. The engine's read-outs are refreshed
// only when the cached ones no longer prove there is room.
func (g *generator) awaitCredit(room uint64) {
	for _, se := range g.sessions {
		frames, tuples := g.expected(se)
		var since time.Time
		for {
			shortTuples := tuples+room > se.seenTuples+se.slackTuples+creditWindow
			if shortTuples {
				se.seenTuples = se.consumed(g.cluster)
				shortTuples = tuples+room > se.seenTuples+se.slackTuples+creditWindow
			}
			shortFrames := frames+room > se.seenPumped+se.slackFrames+creditWindow
			if shortFrames {
				se.seenPumped = se.s.Packets()
				shortFrames = frames+room > se.seenPumped+se.slackFrames+creditWindow
			}
			if !shortTuples && !shortFrames {
				break
			}
			switch {
			case since.IsZero():
				since = time.Now()
			case time.Since(since) > stallAfter:
				// Lost work never returns its credit; the gates count it.
				g.stalls++
				if shortTuples {
					se.slackTuples = tuples - se.seenTuples
				}
				if shortFrames {
					se.slackFrames = frames - se.seenPumped
				}
				continue
			}
			t0 := time.Now()
			pause(50 * time.Microsecond)
			g.waited += time.Since(t0)
		}
	}
}

// pause sleeps the generator's thread for d with the kernel's timer
// precision. time.Sleep will not do: a Go timer that fires while a P is idle
// is noticed up to a millisecond late, four bursts of the open loop.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}

// guardTaps holds the open loop's next burst while a tap is close to
// overflowing, for at most 100 ms.
func (g *generator) guardTaps() {
	var since time.Time
	for _, se := range g.sessions {
		frames, _ := g.expected(se)
		for frames > se.seenPumped+se.slackFrames+tapGuard {
			if se.seenPumped = se.s.Packets(); frames <= se.seenPumped+se.slackFrames+tapGuard {
				break
			}
			if since.IsZero() {
				since = time.Now()
				g.held++
			} else if time.Since(since) > 100*time.Millisecond {
				return
			}
			pause(50 * time.Microsecond)
		}
	}
}

// closedLoop injects chunks under the credit window until stop reports true.
func (g *generator) closedLoop(stop func() bool, parent uint64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for !stop() {
		g.awaitCredit(injectChunk)
		var t0 time.Time
		if g.rec != nil {
			t0 = time.Now()
		}
		for i := 0; i < injectChunk; i++ {
			g.next(0)
		}
		if g.rec != nil {
			g.rec.Add(0, parent, parent, "vnet.inject", t0, time.Now())
		}
	}
}

// pacedStats is the open loop's account of itself.
type pacedStats struct {
	start, end time.Time
	frames     uint64        // pool frames and probes injected
	cpu        time.Duration // the process's CPU time over the phase
	lateness   []float64     // µs each burst started after it was due
}

// cpuPerFrameUS is the phase's CPU time per injected frame in µs.
func (st pacedStats) cpuPerFrameUS() float64 {
	return ratio(float64(st.cpu)/1e3, float64(st.frames))
}

// openLoop injects rate frames/s (plus the probes) in bursts on a fixed
// schedule for dur, or until stop is closed when dur is 0. It sleeps to the
// next burst and never spins, so the phase's CPU time is the engine's and
// not the generator's waiting. Every frame is due when its burst is.
func (g *generator) openLoop(rate int, dur time.Duration, stop <-chan struct{}, parent uint64) pacedStats {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	st := pacedStats{start: time.Now()}
	before := g.injected
	perBurst := float64(rate) * burstInterval.Seconds()
	probesPerBurst := 0.0
	if g.plan.probes != nil {
		probesPerBurst = probeRate * burstInterval.Seconds()
	}
	var owed, owedProbes float64
	startCPU := cpuTime()
loop:
	for i := 0; ; i++ {
		due := st.start.Add(time.Duration(i) * burstInterval)
		if dur > 0 && due.Sub(st.start) >= dur {
			break
		}
		select {
		case <-stop:
			break loop
		default:
		}
		if d := time.Until(due); d > 0 {
			pause(d)
		} else if i > 0 {
			// Behind schedule (the generator's own thread was stalled): catch
			// up, but sleep the shortest sleep there is (≈65 µs with the
			// timer's slack) between bursts, which holds the catch-up to about
			// twice the rate. The backlog is the generator's doing, not the
			// users'; injected at once it would be a burst of thousands of
			// frames that no tap is sized for.
			pause(time.Microsecond)
		}
		g.guardTaps()
		t0 := time.Now()
		st.lateness = append(st.lateness, float64(t0.Sub(due))/1e3)
		dueNS := due.UnixNano()
		for owed += perBurst; owed >= 1; owed-- {
			g.next(dueNS)
		}
		for owedProbes += probesPerBurst; owedProbes >= 1; owedProbes-- {
			g.probe(dueNS)
		}
		if g.rec != nil {
			g.rec.Add(0, parent, parent, "vnet.inject", t0, time.Now())
		}
	}
	st.end = time.Now()
	st.cpu = cpuTime() - startCPU
	st.frames = g.injected - before
	return st
}

// consume drains one session's results until the session stops.
func (r *rig) consume(se *session) {
	defer close(se.done)
	for t := range se.s.Results() {
		se.results.Add(1)
		switch se.spec.kind {
		case kindPassthrough:
			if !se.spec.carrier {
				continue
			}
			if slot := t.SrcPort - probePortBase; slot < probeSlots && t.Key == probeURL {
				r.probes.arrived(int(slot), time.Now().UnixNano())
			}
		case kindTopK:
			if entries, ok := stream.DecodeRankings(t); ok && len(entries) > 0 {
				se.rankings = append(se.rankings, ranking{at: time.Now().UnixNano(), top: entries[0].Key})
			}
		case kindGroupCount:
			se.counts[t.Key] = t.Val
		case kindDiff:
			if t.Val < 0 {
				se.negative++
			}
			c := r.plan.connOf(t.SrcIP, t.SrcPort)
			if c < 0 {
				se.unmatched++
				continue
			}
			if due := r.gen.finDue[c].Swap(0); due > 0 {
				r.lat.add(due, time.Now().UnixNano()-due)
			}
		}
	}
}
