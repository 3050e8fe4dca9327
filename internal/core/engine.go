// Package core wires the NetAlytics pipeline of Fig. 1 together: a submitted
// query is parsed and validated, monitors are placed under covering ToR
// switches (§4.1), SDN mirror rules steer copies of the matching flows to
// them (§3.4), parser output batches flow into per-parser aggregation topics
// (§3.2), and the requested Storm-style topology processes the tuples,
// delivering results back to the session. LIMIT clauses bound the query's
// lifetime and SAMPLE auto enables the feedback-driven sampling loop (§4.2).
package core

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"netalytics/internal/fault"
	"netalytics/internal/insight"
	"netalytics/internal/mq"
	"netalytics/internal/nfv"
	"netalytics/internal/parsers"
	"netalytics/internal/placement"
	"netalytics/internal/query"
	"netalytics/internal/sdn"
	"netalytics/internal/stream"
	"netalytics/internal/telemetry"
	"netalytics/internal/topology"
	"netalytics/internal/vnet"
)

// Engine errors.
var (
	ErrUnknownHost = errors.New("core: address names no host in the topology")
	ErrClosed      = errors.New("core: engine closed")
)

// Config parameterizes an Engine.
type Config struct {
	// Brokers is the aggregation-cluster size (default 2).
	Brokers int
	// MQ tunes the aggregation layer.
	MQ mq.Config
	// MonitorWorkers is the per-parser worker count in each monitor.
	MonitorWorkers int
	// SpoutParallelism is the Kafka-spout task count per topology.
	SpoutParallelism int
	// TickInterval is the stream engine's window-advance interval.
	TickInterval time.Duration
	// StreamBatchSize is the stream executor's sub-batch size: tuples per
	// channel send between topology tasks. 0 keeps the engine default
	// (stream.DefaultBatchSize); 1 disables batching.
	StreamBatchSize int
	// VnetFlowCacheSize bounds the network's per-flow forwarding-decision
	// cache (see "Forwarding fast path" in DESIGN.md). 0 keeps the default
	// (vnet.DefaultFlowCacheSize); negative disables the cache, the A/B
	// baseline where every frame re-resolves its path and mirror targets.
	VnetFlowCacheSize int
	// IngestShards enables the per-core sharded ingest path (DESIGN.md
	// "Sharded ingest & work-stealing"): each mq partition's log splits into
	// this many lock-free single-writer rings, each monitor runs this many
	// work-stealing collectors, and spout tasks get partition-to-core
	// affinity hints. 0 (the default) keeps the legacy single-owner
	// datapaths — the A/B baseline.
	IngestShards int
	// SketchAnalytics switches query topologies from exact counting to the
	// bounded-memory sketch pipelines of internal/sketch (space-saving top-k,
	// count-min group counts, HyperLogLog distinct counts — see "Sketch
	// analytics" in DESIGN.md). Individual queries can override with a
	// sketch=true/false processor argument; exact stays the A/B baseline.
	SketchAnalytics bool
	// SketchTopKCapacity pins the space-saving counter budget for top-k
	// queries. 0 derives it from each query's k (sketch.DefaultCapacity).
	SketchTopKCapacity int
	// SharedTaps enables the demand-merging shared-tap control plane
	// (DESIGN.md "Shared-tap control plane"): overlapping queries share one
	// refcounted SDN mirror rule, one monitor NF per host and one parse of
	// the mirrored stream, with a demux fanning parsed tuples out to each
	// subscribed query. false — the default — keeps the legacy
	// one-query-one-monitor control plane, the A/B baseline. Queries with a
	// packet LIMIT always take the legacy path (a shared monitor's frame
	// count is not attributable to one query), even when SharedTaps is on.
	SharedTaps bool
	// AdaptiveSample enables the per-query adaptive sampling controller:
	// queries that don't pin their own SAMPLE policy get an AIMD controller
	// driven by mq occupancy and stream queue lag, exporting its effective
	// rate and estimated error as adaptive_sample_rate /
	// adaptive_sample_error gauges (see internal/core/adaptive.go).
	AdaptiveSample bool
	// Policy selects the placement policy (default NetAlytics-Network).
	Policy placement.Policy
	// PlacementParams tunes capacities for placement.
	PlacementParams placement.Params
	// Seed drives placement randomness (default 1).
	Seed int64
	// ResultBuffer bounds how many results each session holds for a lagging
	// consumer before dropping (default 4096): the result channel takes the
	// first 4096, an overflow that is empty while the consumer keeps up the
	// rest.
	ResultBuffer int
	// Metrics is the telemetry registry every pipeline layer reports into.
	// Nil gets a fresh registry, so Engine.Metrics() is always usable.
	Metrics *telemetry.Registry
	// TraceSampleEvery sets the stage-latency trace sampling period: one
	// traced tuple per N emitted. It follows the telemetry.SamplePeriod
	// contract — 0 means the default (telemetry.DefaultSampleEvery), 1
	// traces every tuple, negative disables tracing entirely (zero hot-path
	// cost). After withDefaults the field is fully resolved: a positive
	// period or 0 for off.
	TraceSampleEvery int
	// Insight, when non-nil, runs the always-on insight tier beside the
	// query pipelines: a registry-fed anomaly-detection topology publishing
	// correlated incidents on the `_incidents` topic (see internal/insight).
	// The engine fills in the config's Registry, Cluster and Graph.
	Insight *insight.Config
	// Faults, when non-nil, wires the deterministic fault injector into
	// every layer: the vnet frame path (loss/latency/partitions), the mq
	// produce/consume paths (unavailability, errors) and the NFV
	// orchestrator (monitor crashes, answered by session failover). Nil —
	// the default — leaves the pipeline entirely fault-free.
	Faults *fault.Injector
}

func (c Config) withDefaults() Config {
	if c.Brokers <= 0 {
		c.Brokers = 2
	}
	if c.MonitorWorkers <= 0 {
		c.MonitorWorkers = 1
	}
	if c.SpoutParallelism <= 0 {
		c.SpoutParallelism = 1
	}
	if c.TickInterval <= 0 {
		c.TickInterval = stream.DefaultTickInterval
	}
	if c.Policy == (placement.Policy{}) {
		c.Policy = placement.NetalyticsNetwork
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ResultBuffer <= 0 {
		c.ResultBuffer = 4096
	}
	if c.Metrics == nil {
		c.Metrics = telemetry.NewRegistry()
	}
	c.TraceSampleEvery = telemetry.SamplePeriod(c.TraceSampleEvery, telemetry.DefaultSampleEvery)
	if c.VnetFlowCacheSize == 0 {
		c.VnetFlowCacheSize = vnet.DefaultFlowCacheSize
	}
	return c
}

// Engine is a NetAlytics deployment over one data-center network.
type Engine struct {
	cfg     Config
	topo    *topology.FatTree
	ctrl    *sdn.Controller
	net     *vnet.Network
	mq      *mq.Cluster
	nfv     *nfv.Orchestrator
	insight *insight.Tier // nil unless Config.Insight was set
	shared  *sharedTaps   // nil unless Config.SharedTaps was set

	mu       sync.Mutex
	sessions map[string]*Session
	nextID   int
	closed   bool

	obsMu       sync.Mutex
	obsSessions []*Session // standing observation sessions feeding the tier
	obsWG       sync.WaitGroup
}

// NewEngine creates an engine over the topology, with its own SDN
// controller, virtual network and aggregation cluster.
func NewEngine(topo *topology.FatTree, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	ctrl := sdn.NewController()
	ctrl.RegisterMetrics(cfg.Metrics)
	net := vnet.New(topo, ctrl)
	if cfg.VnetFlowCacheSize > 0 {
		net.SetFlowCacheSize(cfg.VnetFlowCacheSize)
	}
	net.RegisterMetrics(cfg.Metrics)
	cfg.MQ.Metrics = cfg.Metrics
	if cfg.IngestShards > 0 && cfg.MQ.IngestShards == 0 {
		cfg.MQ.IngestShards = cfg.IngestShards
	}
	e := &Engine{
		cfg:      cfg,
		topo:     topo,
		ctrl:     ctrl,
		net:      net,
		mq:       mq.NewCluster(cfg.Brokers, cfg.MQ),
		nfv:      nfv.New(net),
		sessions: make(map[string]*Session),
	}
	if cfg.SharedTaps {
		e.shared = newSharedTaps(e)
	}
	// Monitor failover: a crashed instance dispatches to its session, which
	// relaunches it and re-installs its mirror rules (see handleMonitorCrash).
	// Shared-tap instances run under the synthetic sharedOwner query and
	// dispatch to the registry instead, which relaunches the monitor and
	// re-installs the rules of every subscribed query. Wired unconditionally —
	// Crash is also reachable directly through the orchestrator, not only
	// through the fault injector.
	e.nfv.SetOnCrash(func(queryID string, in *nfv.Instance) {
		if queryID == sharedOwner {
			if e.shared != nil {
				e.shared.handleCrash(in)
			}
			return
		}
		if s := e.Session(queryID); s != nil {
			s.handleMonitorCrash(in)
		}
	})
	if inj := cfg.Faults; inj != nil {
		net.SetFaultHook(inj)
		e.mq.SetFaultHook(inj)
		inj.SetMonitorCrashFn(e.nfv.CrashOne)
		inj.SetPods(topo.K)
		parts := cfg.MQ.Partitions
		if parts <= 0 {
			parts = mq.DefaultPartitions
		}
		inj.SetMQPartitions(parts)
	}
	if cfg.Insight != nil {
		icfg := *cfg.Insight
		icfg.Registry = cfg.Metrics
		icfg.Cluster = e.mq
		if icfg.Graph == nil {
			icfg.Graph = insight.NewServiceGraph(topo)
		}
		if icfg.Filter == nil {
			icfg.Filter = insight.DefaultFilter
		}
		tier, err := insight.New(icfg)
		if err != nil {
			// Only reachable through an invalid hand-built topology; the
			// engine-assembled one is statically correct.
			panic("core: building insight tier: " + err.Error())
		}
		e.insight = tier
		tier.Start()
	}
	return e
}

// Orchestrator returns the NFV orchestrator managing monitor instances.
func (e *Engine) Orchestrator() *nfv.Orchestrator { return e.nfv }

// Topology returns the engine's fat tree.
func (e *Engine) Topology() *topology.FatTree { return e.topo }

// Network returns the virtual network applications attach to.
func (e *Engine) Network() *vnet.Network { return e.net }

// Controller returns the SDN controller.
func (e *Engine) Controller() *sdn.Controller { return e.ctrl }

// Aggregation returns the mq cluster.
func (e *Engine) Aggregation() *mq.Cluster { return e.mq }

// Metrics returns the engine's telemetry registry (never nil).
func (e *Engine) Metrics() *telemetry.Registry { return e.cfg.Metrics }

// Insight returns the running insight tier, or nil when Config.Insight was
// not set.
func (e *Engine) Insight() *insight.Tier { return e.insight }

// SharedMonitorCount returns the number of live shared monitor instances,
// 0 when Config.SharedTaps is off.
func (e *Engine) SharedMonitorCount() int {
	if e.shared == nil {
		return 0
	}
	return e.shared.MonitorCount()
}

// Sessions lists the currently running query sessions.
func (e *Engine) Sessions() []*Session {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Session, 0, len(e.sessions))
	for _, s := range e.sessions {
		out = append(out, s)
	}
	return out
}

// Session returns a running session by ID, or nil.
func (e *Engine) Session(id string) *Session {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sessions[id]
}

// Close stops all sessions (observation sessions first) and the insight
// tier.
func (e *Engine) Close() {
	e.StopObservation()
	e.mu.Lock()
	e.closed = true
	sessions := make([]*Session, 0, len(e.sessions))
	for _, s := range e.sessions {
		sessions = append(sessions, s)
	}
	e.mu.Unlock()
	for _, s := range sessions {
		s.Stop()
	}
	if e.insight != nil {
		e.insight.Stop()
	}
}

// Submit parses, validates, compiles and launches a query, returning its
// live session.
func (e *Engine) Submit(text string) (*Session, error) {
	q, err := query.Parse(text)
	if err != nil {
		return nil, err
	}
	return e.SubmitQuery(q)
}

// SubmitQuery launches an already-parsed query.
func (e *Engine) SubmitQuery(q *query.Query) (*Session, error) {
	knownParsers := make(map[string]bool, len(parsers.Registry))
	for name := range parsers.Registry {
		knownParsers[name] = true
	}
	knownProcs := make(map[string]bool)
	for _, name := range stream.ProcessorNames() {
		knownProcs[name] = true
	}
	if err := query.Validate(q, knownParsers, knownProcs); err != nil {
		return nil, err
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	e.nextID++
	id := fmt.Sprintf("q%d", e.nextID)
	e.mu.Unlock()

	s := &Session{
		ID:      id,
		Query:   q,
		engine:  e,
		results: newResultQueue(e.cfg.ResultBuffer),
		done:    make(chan struct{}),
	}
	if err := s.start(); err != nil {
		s.Stop()
		return nil, err
	}

	e.mu.Lock()
	e.sessions[id] = s
	e.mu.Unlock()
	return s, nil
}

// resolveAddress maps a query address to its topology hosts and a port.
// Wildcards resolve to nil (any host); IPs and hostnames to one host; CIDR
// subnets (10.0.2.0/24:80) to every topology host inside the prefix.
func (e *Engine) resolveAddress(a query.Address) ([]*topology.Host, uint16, error) {
	if a.Any || a.Host == "" {
		return nil, a.Port, nil
	}
	if prefix, err := netip.ParsePrefix(a.Host); err == nil {
		var hosts []*topology.Host
		for _, h := range e.topo.Hosts() {
			if prefix.Contains(h.Addr) {
				hosts = append(hosts, h)
			}
		}
		if len(hosts) == 0 {
			return nil, 0, fmt.Errorf("%w: subnet %s is empty", ErrUnknownHost, a.Host)
		}
		return hosts, a.Port, nil
	}
	if ip, err := netip.ParseAddr(a.Host); err == nil {
		h := e.topo.HostByAddr(ip)
		if h == nil {
			return nil, 0, fmt.Errorf("%w: %s", ErrUnknownHost, a.Host)
		}
		return []*topology.Host{h}, a.Port, nil
	}
	h := e.topo.HostByName(a.Host)
	if h == nil {
		return nil, 0, fmt.Errorf("%w: %s", ErrUnknownHost, a.Host)
	}
	return []*topology.Host{h}, a.Port, nil
}

// matchSpec pairs an OpenFlow-style match with the hosts anchoring it.
type matchSpec struct {
	match   sdn.Match
	anchor  *topology.Host // a concrete host whose rack can cover the flows
	srcHost *topology.Host
	dstHost *topology.Host
}

// compileMatches expands the FROM/TO lists into match specs (§3.4): the
// cartesian product of the two lists, each translated into the match portion
// of an OpenFlow rule. Subnet addresses expand to their member hosts, so
// rules stay host-granular and each gets a concrete anchor for placement.
func (e *Engine) compileMatches(q *query.Query) ([]matchSpec, error) {
	froms := q.From
	if len(froms) == 0 {
		froms = []query.Address{{Any: true}}
	}
	tos := q.To
	if len(tos) == 0 {
		tos = []query.Address{{Any: true}}
	}
	var specs []matchSpec
	for _, fa := range froms {
		fhs, fport, err := e.resolveAddress(fa)
		if err != nil {
			return nil, err
		}
		for _, ta := range tos {
			ths, tport, err := e.resolveAddress(ta)
			if err != nil {
				return nil, err
			}
			if fhs == nil && ths == nil {
				return nil, errors.New("core: FROM and TO cannot both be fully wildcarded (monitor placement needs an anchor host)")
			}
			// nil means wildcard on that side: iterate once with a nil host.
			fList := fhs
			if fList == nil {
				fList = []*topology.Host{nil}
			}
			tList := ths
			if tList == nil {
				tList = []*topology.Host{nil}
			}
			for _, fh := range fList {
				for _, th := range tList {
					m := sdn.Match{SrcPort: fport, DstPort: tport}
					if fh != nil {
						m.SrcIP = fh.Addr
					}
					if th != nil {
						m.DstIP = th.Addr
					}
					anchor := th
					if anchor == nil {
						anchor = fh
					}
					specs = append(specs, matchSpec{match: m, anchor: anchor, srcHost: fh, dstHost: th})
				}
			}
		}
	}
	return specs, nil
}
