package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"netalytics/internal/monitor"
	"netalytics/internal/mq"
	"netalytics/internal/nfv"
	"netalytics/internal/parsers"
	"netalytics/internal/placement"
	"netalytics/internal/query"
	"netalytics/internal/sdn"
	"netalytics/internal/stream"
	"netalytics/internal/telemetry"
	"netalytics/internal/topology"
	"netalytics/internal/tuple"
)

// drainTimeout bounds how long Stop waits for data in flight: for buffered
// aggregation data to flow through the processing topology before halting it,
// and then for the consumer to take what the result overflow holds.
const drainTimeout = 2 * time.Second

// Session is one running query.
type Session struct {
	ID    string
	Query *query.Query

	engine *Engine

	instances  []*nfv.Instance
	sharedSubs []*sharedSub // shared-tap mode: one subscription per host
	executors  []*stream.Executor
	samplers   []*monitor.AIMDSampler
	// sampleTargets parallels samplers: the control point each one drives
	// (a dedicated Monitor, or this query's DemuxSub on a shared monitor).
	sampleTargets []monitor.SampleTarget
	adaptive      *adaptiveSampler // non-nil when Config.AdaptiveSample engaged
	topics        []string
	finalTopics   map[string]mq.TopicStats // topic stats frozen at Stop (guarded by failMu)
	tracer        *telemetry.Tracer

	// failMu guards the monitor roster (instances, samplers, slots) against
	// concurrent mutation by monitor failover. Readers that walk the roster
	// take it; handleMonitorCrash swaps entries under it; Stop sets stopped
	// under it so no zombie relaunch can race teardown.
	failMu   sync.Mutex
	stopped  bool
	slots    []*monitorSlot
	restarts *telemetry.Counter // nfv_restarts{session=ID}

	results *resultQueue  // its drops are exported as session_result_drops{session=ID}
	packets atomic.Uint64 // frames delivered to monitors (all instances)

	fbStop   chan struct{}
	fbWG     sync.WaitGroup
	stopOnce sync.Once
	done     chan struct{}
}

// Results streams processed tuples to the caller, in the order the topology
// produced them. Up to Config.ResultBuffer results wait for a lagging
// consumer; beyond that they are dropped and counted in ResultDrops. Stop
// closes the channel after the last result — including the final window of
// every windowed processor — has been queued; a consumer that has stopped
// reading forfeits what the channel itself cannot hold. For top-k processors,
// decode entries with stream.DecodeRankings.
func (s *Session) Results() <-chan tuple.Tuple { return s.results.ch }

// Done is closed when the session has fully stopped.
func (s *Session) Done() <-chan struct{} { return s.done }

// Packets returns the number of mirrored frames delivered to the session's
// monitors. In shared-tap mode it is the frames its shared monitors pumped
// while this session was subscribed (deltas against attach-time baselines) —
// overlapping queries on the same host observe the same shared stream.
func (s *Session) Packets() uint64 {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	if len(s.sharedSubs) > 0 {
		var total uint64
		for _, ss := range s.sharedSubs {
			total += ss.mon.counter.Load() - ss.baseline
		}
		return total
	}
	return s.packets.Load()
}

// ResultDrops returns results discarded because the caller fell behind.
func (s *Session) ResultDrops() uint64 { return s.results.drops.Load() }

// monitorSlot is the durable record of one monitor placement: everything the
// session needs to recreate the monitor and its mirror rules after a crash —
// the launch spec (host, parsers, shared counter) and the matches whose rules
// currently point at the slot, with their live rule IDs.
type monitorSlot struct {
	host    *topology.Host
	spec    nfv.Spec
	matches []sdn.Match
	ruleIDs []uint64
}

// MonitorCount returns how many NFV monitors serve the query: dedicated
// instances in legacy mode, subscribed shared monitors in shared-tap mode.
func (s *Session) MonitorCount() int {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	if len(s.sharedSubs) > 0 {
		return len(s.sharedSubs)
	}
	return len(s.instances)
}

// MonitorRestarts returns how many monitor failovers the session performed.
func (s *Session) MonitorRestarts() uint64 { return s.restarts.Value() }

// MonitorHosts returns the hosts running this session's monitors (dedicated
// or shared).
func (s *Session) MonitorHosts() []*topology.Host {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	if len(s.sharedSubs) > 0 {
		hosts := make([]*topology.Host, len(s.sharedSubs))
		for i, ss := range s.sharedSubs {
			hosts[i] = ss.mon.host
		}
		return hosts
	}
	hosts := make([]*topology.Host, len(s.instances))
	for i, in := range s.instances {
		hosts[i] = in.Host
	}
	return hosts
}

// SampleRates returns the session's current sampling rates: per dedicated
// monitor in legacy mode, per demux subscription in shared-tap mode (the
// shared monitor itself runs at the max over its subscribers).
func (s *Session) SampleRates() []float64 {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	if len(s.sharedSubs) > 0 {
		rates := make([]float64, len(s.sharedSubs))
		for i, ss := range s.sharedSubs {
			rates[i] = ss.sub.SampleRate()
		}
		return rates
	}
	rates := make([]float64, len(s.instances))
	for i, in := range s.instances {
		rates[i] = in.Monitor.SampleRate()
	}
	return rates
}

// MonitorStats aggregates the session's monitor counters. The counters are
// registry-backed and label-addressed, so a failover replacement on the same
// host resumes the same series: the aggregate stays cumulative across
// restarts.
func (s *Session) MonitorStats() monitor.Stats {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	var total monitor.Stats
	instances := s.instances
	if len(s.sharedSubs) > 0 {
		// Shared-tap mode: the stats of every shared monitor this session
		// subscribes to. Those monitors carry all subscribers' traffic, so
		// the aggregate describes the shared datapath, not one query's slice.
		instances = make([]*nfv.Instance, 0, len(s.sharedSubs))
		for _, ss := range s.sharedSubs {
			if in := ss.mon.inst.Load(); in != nil {
				instances = append(instances, in)
			}
		}
	}
	for _, in := range instances {
		st := in.Monitor.Stats()
		total.Received += st.Received
		total.CollectDrops += st.CollectDrops
		total.Sampled += st.Sampled
		total.Malformed += st.Malformed
		total.Dispatched += st.Dispatched
		total.ParserDrops += st.ParserDrops
		total.Tuples += st.Tuples
		total.Batches += st.Batches
		total.SinkErrors += st.SinkErrors
	}
	return total
}

// start compiles and launches the query. Called once by SubmitQuery.
func (s *Session) start() error {
	e := s.engine
	s.restarts = e.cfg.Metrics.Counter("nfv_restarts", telemetry.L("session", s.ID))
	specs, err := e.compileMatches(s.Query)
	if err != nil {
		return err
	}

	// Placement: anchor flows at the concrete hosts of each match so
	// monitors land under covering ToR switches.
	flows := make([]placement.Flow, len(specs))
	for i, spec := range specs {
		src, dst := spec.srcHost, spec.dstHost
		if src == nil {
			src = spec.anchor
		}
		if dst == nil {
			dst = spec.anchor
		}
		flows[i] = placement.Flow{Src: src, Dst: dst}
	}

	// Topics: one per parser, namespaced by session.
	sink := &routingSink{producers: make(map[string]*mq.Producer, len(s.Query.Parsers))}
	for _, p := range s.Query.Parsers {
		topic := s.ID + "/" + p
		s.topics = append(s.topics, topic)
		sink.producers[p] = e.mq.Producer(topic)
	}

	// Monitors: one per placed monitor host, running every query parser.
	factories := make([]monitor.Factory, 0, len(s.Query.Parsers))
	for _, name := range s.Query.Parsers {
		f, err := parsers.Lookup(name)
		if err != nil {
			return err
		}
		factories = append(factories, f)
	}
	sampleRate := 1.0
	if s.Query.Sample.Mode == query.SampleRate {
		sampleRate = s.Query.Sample.Rate
	}

	// Telemetry: every layer of this session reports into the engine
	// registry under a session label; the tracer stamps 1-in-N tuples at
	// monitor emit so Telemetry() can digest per-stage latencies.
	reg := e.cfg.Metrics
	sessLabel := telemetry.L("session", s.ID)
	// TraceSampleEvery is resolved by Config.withDefaults (SamplePeriod
	// contract): positive period or 0 for off.
	s.tracer = telemetry.NewTracer(reg, e.cfg.TraceSampleEvery, sessLabel)
	reg.GaugeFunc("session_result_drops", func() float64 { return float64(s.ResultDrops()) }, sessLabel)

	if e.cfg.SharedTaps && s.Query.Limit.Packets == 0 {
		// Shared-tap control plane: attach to (or launch) the shared monitor
		// of each covering host and install refcounted mirror rules. Queries
		// with a packet LIMIT stay on the legacy path — a shared monitor's
		// frame counter cannot be attributed to one query.
		if err := s.startShared(specs, flows, factories, sink, sampleRate); err != nil {
			return err
		}
	} else if err := s.startDedicated(specs, flows, factories, sink, sampleRate, reg, sessLabel); err != nil {
		return err
	}

	// Stream topologies: one executor per PROCESS entry, fed by spouts
	// polling every session topic. Each processor gets its own consumer
	// group, so several PROCESS entries all see the full data stream.
	for procIdx, proc := range s.Query.Processors {
		spec := stream.ProcessorSpec{Name: proc.Name, Args: proc.Args}
		topicsCopy := append([]string(nil), s.topics...)
		group := fmt.Sprintf("%s-proc%d", s.ID, procIdx)
		// Register the group before any monitor traffic flows so no early
		// batches are missed.
		for _, topic := range topicsCopy {
			e.mq.GroupConsumer(topic, group)
		}
		// Partition-to-core affinity: spout task k starts its ring scans at
		// shard k, so co-scheduled spouts drain "their" producers' shards
		// first instead of all contending on ring 0 (no-op on legacy path).
		var spoutSeq atomic.Uint64
		spoutFactory := func() stream.Spout {
			consumers := make([]*mq.Consumer, len(topicsCopy))
			hint := int(spoutSeq.Add(1) - 1)
			for i, topic := range topicsCopy {
				consumers[i] = e.mq.GroupConsumer(topic, group)
				consumers[i].SetShardAffinity(hint)
			}
			return &multiSpout{consumers: consumers}
		}
		topo, err := stream.BuildTopologyOpts(spec, spoutFactory, e.cfg.SpoutParallelism, s.deliver, e.cfg.TickInterval,
			stream.TopologyOptions{
				Sketch:             e.cfg.SketchAnalytics,
				SketchTopKCapacity: e.cfg.SketchTopKCapacity,
			})
		if err != nil {
			return err
		}
		procLabel := telemetry.L("proc", fmt.Sprintf("proc%d-%s", procIdx, proc.Name))
		ex, err := stream.NewExecutor(topo,
			stream.WithTickInterval(e.cfg.TickInterval),
			stream.WithBatchSize(e.cfg.StreamBatchSize),
			stream.WithMetrics(reg, sessLabel, procLabel))
		if err != nil {
			return err
		}
		ex.Start()
		s.executors = append(s.executors, ex)
		// Tuples in flight inside the topology (queued between tasks or
		// executing), not channel occupancy — see Executor.QueueLag.
		reg.GaugeFunc("stream_queue_lag", func() float64 { return float64(ex.QueueLag()) },
			sessLabel, procLabel)
	}

	// Feedback-driven sampling (§4.2): aggregation-layer overload statuses
	// drive every monitor's AIMD controller.
	s.fbStop = make(chan struct{})
	if s.Query.Sample.Mode == query.SampleAuto {
		for _, tgt := range s.rateTargets() {
			s.samplers = append(s.samplers, monitor.NewAIMDSampler(tgt))
			s.sampleTargets = append(s.sampleTargets, tgt)
		}
		for _, topic := range s.topics {
			statusCh := e.mq.Subscribe(topic)
			s.fbWG.Add(1)
			go s.feedbackLoop(topic, statusCh)
		}
	}

	// Adaptive sampling: queries that didn't pin a SAMPLE policy get the
	// occupancy-driven controller when the deployment enables it (SAMPLE auto
	// keeps the legacy status-driven loop; fixed rates are respected as-is).
	if e.cfg.AdaptiveSample && s.Query.Sample.Mode == query.SampleAll {
		s.adaptive = newAdaptiveSampler(s)
		s.fbWG.Add(1)
		go s.adaptive.run(s.fbStop, 2*e.cfg.TickInterval)
	}

	// LIMIT: stop after the duration elapses (packet limits are enforced
	// inline by pump).
	if d := s.Query.Limit.Duration; d > 0 {
		s.fbWG.Add(1)
		go func() {
			defer s.fbWG.Done()
			select {
			case <-time.After(d):
				go s.Stop()
			case <-s.fbStop:
			}
		}()
	}
	return nil
}

// rateTargets lists the session's sampling control points: each dedicated
// monitor in legacy mode, each demux subscription in shared-tap mode (where
// the shared monitor itself runs at the max over its subscribers, and each
// query thins its own stream at the demux). Caller either holds failMu or is
// still inside start (rosters are fixed by then).
func (s *Session) rateTargets() []monitor.SampleTarget {
	if len(s.sharedSubs) > 0 {
		out := make([]monitor.SampleTarget, len(s.sharedSubs))
		for i, ss := range s.sharedSubs {
			out[i] = ss.sub
		}
		return out
	}
	out := make([]monitor.SampleTarget, len(s.instances))
	for i, in := range s.instances {
		out[i] = in.Monitor
	}
	return out
}

// startDedicated is the legacy control plane: one monitor NF per placed host
// owned by this session, with exclusive mirror rules recorded per slot for
// crash failover.
func (s *Session) startDedicated(specs []matchSpec, flows []placement.Flow,
	factories []monitor.Factory, sink monitor.Sink, sampleRate float64,
	reg *telemetry.Registry, sessLabel telemetry.Label) error {

	e := s.engine
	rng := randFor(e.cfg.Seed, s.ID)
	place, err := placement.Place(e.topo, flows, e.cfg.Policy, e.cfg.PlacementParams, rng)
	if err != nil {
		return err
	}

	for _, proc := range place.Monitors {
		launchSpec := nfv.Spec{
			Host: proc.Host,
			Config: monitor.Config{
				Parsers: factories,
				// With sharded ingest, each monitor runs one collector per
				// shard and idle collectors steal bursts from hot ones.
				Collectors:       e.cfg.IngestShards,
				WorkSteal:        e.cfg.IngestShards > 1,
				WorkersPerParser: e.cfg.MonitorWorkers,
				Sink:             sink,
				SampleRate:       sampleRate,
				Metrics:          reg,
				MetricLabels:     []telemetry.Label{sessLabel, telemetry.L("host", proc.Host.Name)},
				Tracer:           s.tracer,
			},
			Counter:      &s.packets,
			PacketLimit:  uint64(s.Query.Limit.Packets),
			OnLimit:      func() { go s.Stop() },
			Metrics:      reg,
			MetricLabels: []telemetry.Label{sessLabel},
		}
		in, err := e.nfv.Launch(s.ID, launchSpec)
		if err != nil {
			return err
		}
		s.instances = append(s.instances, in)
		// Retain the spec so monitor failover can relaunch an identical
		// instance on the same host (same parsers, sink and shared counter).
		s.slots = append(s.slots, &monitorSlot{host: proc.Host, spec: launchSpec})
	}

	// SDN rules: mirror each match (and its reverse, so monitors see both
	// directions of the flows) at the assigned monitor's ToR switch. Each
	// slot records its matches and live rule IDs so failover can retire and
	// re-install exactly the rules pointing at a crashed monitor.
	for i, spec := range specs {
		slot := s.slots[place.FlowMonitor[i]]
		for _, m := range []sdn.Match{spec.match, spec.match.Reverse()} {
			id := e.ctrl.InstallMirror(s.ID, slot.host.Edge, m, slot.host.ID, 100)
			slot.matches = append(slot.matches, m)
			slot.ruleIDs = append(slot.ruleIDs, id)
		}
	}
	return nil
}

// startShared is the shared-tap control plane: the incremental planner lands
// each match's flows on an existing shared monitor when one covers them
// (residuals get fresh placements), the session subscribes to each chosen
// host's demux with its match filter, and refcounted mirror rules merge with
// any other query demanding the same (switch, match, tap). The session holds
// no rule IDs: Stop's RemoveQuery releases its ownership share of every rule,
// and the controller uninstalls only those left ownerless.
func (s *Session) startShared(specs []matchSpec, flows []placement.Flow,
	factories []monitor.Factory, sink monitor.Sink, sampleRate float64) error {

	e := s.engine
	existing, hosts := e.shared.existing()
	assign, residual := placement.Incremental(existing, flows, e.cfg.PlacementParams)
	hostFor := make([]*topology.Host, len(flows))
	for i, mi := range assign {
		if mi >= 0 {
			hostFor[i] = hosts[mi]
		}
	}
	if len(residual) > 0 {
		resFlows := make([]placement.Flow, len(residual))
		for j, fi := range residual {
			resFlows[j] = flows[fi]
		}
		rng := randFor(e.cfg.Seed, s.ID)
		place, err := placement.Place(e.topo, resFlows, e.cfg.Policy, e.cfg.PlacementParams, rng)
		if err != nil {
			return err
		}
		for j, fi := range residual {
			hostFor[fi] = place.Monitors[place.FlowMonitor[j]].Host
		}
	}

	// One subscription per distinct host, filtering on the union of the
	// matches (and reverses) whose flows landed there — a tuple reaches this
	// session exactly when one of its own mirror demands admits it, even
	// when the shared monitor also carries other queries' traffic.
	byHost := make(map[topology.NodeID][]sdn.Match)
	hostOf := make(map[topology.NodeID]*topology.Host)
	order := make([]topology.NodeID, 0, len(flows))
	for i, spec := range specs {
		h := hostFor[i]
		if _, seen := byHost[h.ID]; !seen {
			order = append(order, h.ID)
			hostOf[h.ID] = h
		}
		byHost[h.ID] = append(byHost[h.ID], spec.match, spec.match.Reverse())
	}

	for _, hid := range order {
		h := hostOf[hid]
		matches := byHost[hid]
		sub, err := e.shared.acquire(s, h, matches, factories, s.Query.Parsers, sink, sampleRate)
		if err != nil {
			return err
		}
		s.sharedSubs = append(s.sharedSubs, sub)
		for _, m := range matches {
			e.ctrl.InstallSharedMirror(s.ID, h.Edge, m, h.ID, 100)
		}
	}
	return nil
}

// handleMonitorCrash is the failover path, invoked (synchronously, on the
// crashing goroutine) by the orchestrator's crash callback after the dead
// instance has been removed and torn down. It retires the SDN mirror rules
// that pointed at the dead monitor, relaunches an identical instance on the
// same host from the slot's retained spec, swaps it into the roster (with a
// fresh AIMD sampler when feedback sampling is active), and re-installs the
// mirror rules — so the query resumes producing results without operator
// intervention. No-op once the session is stopping: Stop owns teardown then.
func (s *Session) handleMonitorCrash(dead *nfv.Instance) {
	e := s.engine
	s.failMu.Lock()
	defer s.failMu.Unlock()
	if s.stopped {
		return
	}
	idx := -1
	for i, in := range s.instances {
		if in == dead {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	slot := s.slots[idx]
	for _, id := range slot.ruleIDs {
		e.ctrl.RemoveRule(slot.host.Edge, id)
	}
	in, err := e.nfv.Launch(s.ID, slot.spec)
	if err != nil {
		// Relaunch can only fail on a config the original launch accepted;
		// leave the slot dark rather than crash the pipeline.
		return
	}
	s.instances[idx] = in
	if idx < len(s.samplers) {
		s.samplers[idx] = monitor.NewAIMDSampler(in.Monitor)
		s.sampleTargets[idx] = in.Monitor
	}
	slot.ruleIDs = slot.ruleIDs[:0]
	for _, m := range slot.matches {
		slot.ruleIDs = append(slot.ruleIDs, e.ctrl.InstallMirror(s.ID, slot.host.Edge, m, slot.host.ID, 100))
	}
	s.restarts.Add(1)
}

// feedbackLoop applies aggregation-layer statuses to all samplers. When
// every monitor has already hit the AIMD floor and overload persists, the
// feedback escalates to the SDN controller (§4.2): mirror rules themselves
// start sampling flows at the switch, cutting the target→monitor bandwidth
// too. Recovery relaxes the rule-level sampling before the monitors'.
func (s *Session) feedbackLoop(topic string, statusCh <-chan mq.Status) {
	defer s.fbWG.Done()
	ruleRate := 1.0
	apply := func(overloaded bool) {
		// Under failMu: failover may swap instances/samplers concurrently.
		s.failMu.Lock()
		defer s.failMu.Unlock()
		if overloaded && s.allSamplersFloored() {
			ruleRate /= 2
			if ruleRate < 0.05 {
				ruleRate = 0.05
			}
			s.engine.ctrl.SetQuerySampling(s.ID, ruleRate)
			return
		}
		if !overloaded && ruleRate < 1 {
			ruleRate += 0.1
			if ruleRate > 1 {
				ruleRate = 1
			}
			s.engine.ctrl.SetQuerySampling(s.ID, ruleRate)
		}
		for _, a := range s.samplers {
			a.OnStatus(overloaded)
		}
	}
	// Transition statuses react immediately; the ticker re-observes the
	// aggregator's occupancy continuously, as the paper's aggregation layer
	// does, so sampling keeps adapting between transitions.
	ticker := time.NewTicker(4 * s.engine.cfg.TickInterval)
	defer ticker.Stop()
	hw := s.engine.mq.HighWatermark()
	for {
		select {
		case st := <-statusCh:
			apply(st.Overloaded)
		case <-ticker.C:
			occ := s.engine.mq.Pressure(topic)
			switch {
			case occ >= hw:
				apply(true)
			case occ <= hw/2:
				apply(false)
			}
		case <-s.fbStop:
			return
		}
	}
}

// allSamplersFloored reports whether every sampling control point is already
// at the AIMD floor, i.e. local sampling is exhausted. Caller holds failMu.
func (s *Session) allSamplersFloored() bool {
	if len(s.samplers) == 0 {
		return false
	}
	for i, a := range s.samplers {
		if s.sampleTargets[i].SampleRate() > a.MinRate+1e-9 {
			return false
		}
	}
	return true
}

// deliver pushes a processed tuple to the session's result stream, dropping
// when the consumer lags by more than Config.ResultBuffer. Traced tuples
// complete their latency record here: delivery is the sink boundary.
func (s *Session) deliver(t tuple.Tuple) {
	if t.Trace != nil {
		s.tracer.ObserveSink(t.Trace, time.Now().UnixNano())
	}
	s.results.deliver(t)
}

// Stop tears the session down in pipeline order, each step waiting on the
// event that ends it rather than on a timer: uninstall mirror rules, close
// taps, stop monitors (every parser worker ships its last batch before its
// monitor's Stop returns), wait until the processors' consumer groups have
// taken everything the topics hold, halt the topologies (spouts wake from
// their park and emit what they polled, then every bolt drains its queue and
// flushes its windows in Cleanup, upstream before downstream, so the final
// values are all delivered), and close the result stream once the consumer has
// what the overflow held. Only a wedged topic or an absent consumer makes it
// wait, for drainTimeout at most. Stop is idempotent and safe to call
// concurrently.
func (s *Session) Stop() {
	s.stopOnce.Do(func() {
		e := s.engine
		// Close the failover window first: a monitor crash arriving from here
		// on must not relaunch anything Stop is about to reclaim.
		s.failMu.Lock()
		s.stopped = true
		s.failMu.Unlock()
		// RemoveQuery releases this session's ownership share of every mirror
		// rule; shared rules survive while other queries still own them.
		e.ctrl.RemoveQuery(s.ID)
		e.nfv.StopQuery(s.ID)
		for _, ss := range s.sharedSubs {
			e.shared.detach(ss)
		}
		if s.fbStop != nil {
			close(s.fbStop)
		}
		s.fbWG.Wait()

		deadline := time.Now().Add(drainTimeout)
		for _, topic := range s.topics {
			if !e.mq.WaitDrained(topic, time.Until(deadline)) {
				break
			}
		}
		for _, ex := range s.executors {
			ex.Stop()
		}
		// Shared-taps deployments retire the session's topics, freezing their
		// final stats first so Telemetry() keeps reporting them after the
		// cluster forgets the topic. Without this a long-lived cluster
		// accumulates one dead topic (and its registry series) per query ever
		// run. The legacy mode keeps its historical leave-in-place behavior —
		// post-stop Stats lookups on the cluster still see the topic.
		if e.cfg.SharedTaps {
			final := make(map[string]mq.TopicStats, len(s.topics))
			for _, topic := range s.topics {
				final[topic] = e.mq.Stats(topic)
				e.mq.DeleteTopic(topic)
			}
			s.failMu.Lock()
			s.finalTopics = final
			s.failMu.Unlock()
		}
		s.results.close(deadline)
		close(s.done)

		e.mu.Lock()
		delete(e.sessions, s.ID)
		e.mu.Unlock()

		// Retire the session's registry series so long-lived processes don't
		// accumulate dead metrics; Telemetry() keeps working from the layer
		// pointers the session still holds.
		e.cfg.Metrics.DropLabeled("session", s.ID)
	})
}

// routingSink routes monitor output batches to per-parser topics.
type routingSink struct {
	producers map[string]*mq.Producer
}

// Deliver implements monitor.Sink.
func (r *routingSink) Deliver(b *tuple.Batch) error {
	p, ok := r.producers[b.Parser]
	if !ok {
		return fmt.Errorf("core: no topic for parser %q", b.Parser)
	}
	return p.Send(b)
}

// multiSpout reads all of a query's topics for one spout task.
type multiSpout struct {
	consumers []*mq.Consumer
	next      int
	// buf is the slice every poll is flattened into. The executor scatters
	// a spout's tuples into its own sub-batch buffers before it calls the
	// spout again (stream.Spout), so one buffer serves every poll; a fresh
	// slice per poll was a third of the bytes the pipeline allocated.
	buf []tuple.Tuple
}

// Next implements stream.Spout, polling the consumers round-robin. The poll
// is the mq→stream boundary: any traced tuples in the polled batches get
// their produce/consume stamps here (cloned per consumer group, since batches
// are shared read-only).
func (m *multiSpout) Next() []tuple.Tuple {
	for range m.consumers {
		cs := m.consumers[m.next%len(m.consumers)]
		m.next++
		if batches := cs.Poll(16); len(batches) > 0 {
			return m.flatten(batches)
		}
	}
	return nil
}

// NextWait implements stream.WaitSpout: an idle executor parks here, on all
// the topics at once, so a batch on any of them — or the executor stopping —
// wakes the spout within a scheduler hop.
func (m *multiSpout) NextWait(stop <-chan struct{}, timeout time.Duration) []tuple.Tuple {
	return m.flatten(mq.PollAny(m.consumers, 16, timeout, stop))
}

// flatten copies polled batches into the spout's buffer, stamping the
// ConsumeNS of any sampled traces at batch granularity (one clock read per
// poll) with per-trace clones preserved by PropagateBatch.
func (m *multiSpout) flatten(batches []*tuple.Batch) []tuple.Tuple {
	out := m.buf[:0]
	var nowNS int64
	for _, b := range batches {
		start := len(out)
		out = append(out, b.Tuples...)
		if b.ProduceNS != 0 {
			if nowNS == 0 {
				nowNS = time.Now().UnixNano()
			}
			telemetry.PropagateBatch(out[start:], b.ProduceNS, nowNS)
		}
	}
	m.buf = out
	return out
}

// randFor derives a deterministic rng per session.
func randFor(seed int64, id string) *rand.Rand {
	h := int64(0)
	for _, c := range id {
		h = h*31 + int64(c)
	}
	return rand.New(rand.NewSource(seed ^ h))
}
