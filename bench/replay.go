package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netalytics/internal/monitor"
	"netalytics/internal/mq"
	"netalytics/internal/packet"
	"netalytics/internal/parsers"
	"netalytics/internal/placement"
	"netalytics/internal/query"
	"netalytics/internal/sdn"
	"netalytics/internal/sketch"
	"netalytics/internal/stream"
	"netalytics/internal/topology"
	"netalytics/internal/tuple"
	"netalytics/internal/vnet"
)

// The staged replay is the second source of the per-layer sheet: the
// workload's own frames, then the batches and tuples they become, driven by
// one goroutine through each layer's public API on its own. A layer's row is
// what the layer costs with nothing contending for its locks, queues and
// cores; the live run's spans and counters say what it costs under load.

// mallocs returns the process's cumulative allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// compiled is one query as the engine would deploy it: its matches (each
// with its reverse, as sessions mirror both directions) and the host its
// monitor lands on.
type compiled struct {
	q       *query.Query
	matches []sdn.Match
	host    *topology.Host
}

// compile mirrors core's query compilation for the address forms the
// workloads use (host:port, *:port, *) and places the monitor with the
// engine's default policy. It also times query.Parse and placement.Place.
func compile(topo *topology.FatTree, text string, seed int64) (compiled, time.Duration, time.Duration, error) {
	t0 := time.Now()
	q, err := query.Parse(text)
	parse := time.Since(t0)
	if err != nil {
		return compiled{}, 0, 0, err
	}
	resolve := func(a query.Address) *topology.Host {
		if a.Any || a.Host == "" {
			return nil
		}
		return topo.HostByName(a.Host)
	}
	c := compiled{q: q}
	var flows []placement.Flow
	for _, fa := range q.From {
		for _, ta := range q.To {
			src, dst := resolve(fa), resolve(ta)
			m := sdn.Match{SrcPort: fa.Port, DstPort: ta.Port}
			anchor := dst
			if src != nil {
				m.SrcIP = src.Addr
			}
			if dst != nil {
				m.DstIP = dst.Addr
			} else {
				anchor = src
			}
			if anchor == nil {
				return compiled{}, 0, 0, fmt.Errorf("replay: query %q has no anchor host", text)
			}
			c.matches = append(c.matches, m, m.Reverse())
			f := placement.Flow{Src: src, Dst: dst}
			if f.Src == nil {
				f.Src = anchor
			}
			if f.Dst == nil {
				f.Dst = anchor
			}
			flows = append(flows, f)
		}
	}
	t0 = time.Now()
	pl, err := placement.Place(topo, flows, placement.NetalyticsNetwork, placement.Params{}, rand.New(rand.NewSource(seed)))
	place := time.Since(t0)
	if err != nil {
		return compiled{}, 0, 0, err
	}
	c.host = pl.Monitors[0].Host
	return c, parse, place, nil
}

// replay runs the staged replay for a plan and returns its rows.
func replay(p *plan, seed int64, smoke bool) (map[string]float64, error) {
	topo := topology.MustNew(4)
	row := make(map[string]float64)

	// The head of the pool, at most 64k frames.
	limit, streamTuples := 1<<16, 1<<20
	if smoke {
		limit, streamTuples = 1<<12, 1<<14
	}
	var frames [][]byte
	for i := range p.frames {
		if len(frames) == limit {
			break
		}
		frames = append(frames, p.frames[i].raw)
	}
	n := float64(len(frames))

	// query + placement + sdn: the control plane's pieces.
	queries := make([]compiled, len(p.queries))
	var parse, place time.Duration
	const reps = 20
	for rep := 0; rep < reps; rep++ {
		for i, qs := range p.queries {
			c, dp, dl, err := compile(topo, qs.text, seed)
			if err != nil {
				return nil, err
			}
			queries[i] = c
			parse += dp
			place += dl
		}
	}
	row["query.parse_us"] = float64(parse) / 1e3 / float64(reps*len(queries))
	row["placement.place_us"] = float64(place) / 1e3 / float64(reps*len(queries))

	ctrl := sdn.NewController()
	install := func() (rules int) {
		for i, c := range queries {
			for _, m := range c.matches {
				ctrl.InstallMirror(fmt.Sprintf("q%d", i), c.host.Edge, m, c.host.ID, 100)
				rules++
			}
		}
		return rules
	}
	var installT, removeT time.Duration
	var rules int
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		rules = install()
		installT += time.Since(t0)
		t0 = time.Now()
		for i := range queries {
			ctrl.RemoveQuery(fmt.Sprintf("q%d", i))
		}
		removeT += time.Since(t0)
	}
	row["sdn.install_us"] = float64(installT) / 1e3 / float64(reps*rules)
	row["sdn.remove_query_us"] = float64(removeT) / 1e3 / float64(reps*len(queries))

	// vnet without rules: bare forwarding, flow cache warmed by a first pass.
	bare := vnet.New(topo, sdn.NewController())
	bare.SetFlowCacheSize(vnet.DefaultFlowCacheSize)
	pass := func(net *vnet.Network) (time.Duration, error) {
		t0 := time.Now()
		for _, raw := range frames {
			if err := net.Inject(raw); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	if _, err := pass(bare); err != nil {
		return nil, err
	}
	forward, err := pass(bare)
	if err != nil {
		return nil, err
	}
	row["vnet.forward_ns_per_frame"] = float64(forward) / n

	// vnet with the workload's rules and one tap per session, deep enough to
	// hold a pass so that nothing has to drain it meanwhile.
	install()
	net := vnet.New(topo, ctrl)
	net.SetFlowCacheSize(vnet.DefaultFlowCacheSize)
	taps := make([]*vnet.Tap, len(queries))
	for i, c := range queries {
		taps[i] = net.OpenTap(c.host.ID, len(frames)+1)
	}
	if _, err := pass(net); err != nil {
		return nil, err
	}
	for _, t := range taps {
		for len(t.C) > 0 {
			<-t.C
		}
	}
	m0 := mallocs()
	mirror, err := pass(net)
	if err != nil {
		return nil, err
	}
	row["vnet.inject_allocs_per_frame"] = float64(mallocs()-m0) / n
	row["vnet.mirror_overhead_frac"] = 1 - float64(forward)/float64(mirror)
	vnetNS := float64(mirror) / n

	// sdn lookup on the busiest table, over the frames' own five-tuples.
	var tuples5 []packet.FiveTuple
	for _, raw := range frames {
		var f packet.Frame
		if err := f.Decode(raw); err != nil {
			return nil, err
		}
		if ft, ok := f.FlowTuple(); ok {
			tuples5 = append(tuples5, ft)
		}
	}
	table := ctrl.Table(queries[0].host.Edge)
	t0 := time.Now()
	for _, ft := range tuples5 {
		table.Lookup(ft)
	}
	row["sdn.lookup_ns"] = float64(time.Since(t0)) / float64(len(tuples5))

	// monitor: each session's mirrored frames through a monitor of its own
	// (the engine's configuration: defaults, one worker per parser) into a
	// capturing sink.
	var mirrored, parsedTuples float64
	var monT time.Duration
	var monAllocs uint64
	batches := make([][]*tuple.Batch, len(queries))
	for i, c := range queries {
		var got [][]byte
		for len(taps[i].C) > 0 {
			got = append(got, (<-taps[i].C).Raw)
		}
		net.CloseTap(taps[i])
		factories := make([]monitor.Factory, len(c.q.Parsers))
		for j, name := range c.q.Parsers {
			if factories[j], err = parsers.Lookup(name); err != nil {
				return nil, err
			}
		}
		// Parser workers and the flush timer ship batches concurrently.
		var mu sync.Mutex
		out := &batches[i]
		mon, err := monitor.New(monitor.Config{
			Parsers: factories,
			Sink: monitor.SinkFunc(func(b *tuple.Batch) error {
				mu.Lock()
				*out = append(*out, b)
				mu.Unlock()
				return nil
			}),
		})
		if err != nil {
			return nil, err
		}
		mon.Start()
		m0 := mallocs()
		t0 := time.Now()
		now := time.Now()
		for off := 0; off < len(got); off += monitor.DefaultBurstSize {
			end := off + monitor.DefaultBurstSize
			if end > len(got) {
				end = len(got)
			}
			mon.DeliverBurst(got[off:end], now)
		}
		mon.Stop()
		monT += time.Since(t0)
		monAllocs += mallocs() - m0
		if st := mon.Stats(); st.CollectDrops+st.ParserDrops > 0 {
			return nil, fmt.Errorf("replay: monitor dropped %d frames", st.CollectDrops+st.ParserDrops)
		}
		mirrored += float64(len(got))
		for _, b := range batches[i] {
			parsedTuples += float64(len(b.Tuples))
		}
	}
	if mirrored == 0 || parsedTuples == 0 {
		return nil, fmt.Errorf("replay: %v frames mirrored, %v tuples parsed", mirrored, parsedTuples)
	}
	row["monitor.ns_per_frame"] = float64(monT) / mirrored
	row["monitor.allocs_per_frame"] = float64(monAllocs) / mirrored

	// mq: every batch produced and polled back, at most 256 in the log.
	cluster := mq.NewCluster(2, mq.Config{})
	var sendT, pollT time.Duration
	m0 = mallocs()
	polled := make([][]tuple.Tuple, len(queries))
	for i := range queries {
		prod := cluster.Producer(fmt.Sprintf("replay/%d", i))
		cons := cluster.GroupConsumer(fmt.Sprintf("replay/%d", i), "replay")
		for off := 0; off < len(batches[i]); off += 256 {
			end := off + 256
			if end > len(batches[i]) {
				end = len(batches[i])
			}
			t0 := time.Now()
			for _, b := range batches[i][off:end] {
				if err := prod.Send(b); err != nil {
					return nil, fmt.Errorf("replay: mq send: %w", err)
				}
			}
			t1 := time.Now()
			got := make([]*tuple.Batch, 0, end-off)
			for len(got) < end-off {
				got = append(got, cons.Poll(16)...)
			}
			sendT += t1.Sub(t0)
			pollT += time.Since(t1)
			polled[i] = append(polled[i], stream.FlattenBatches(got)...)
		}
	}
	row["mq.allocs_per_tuple"] = float64(mallocs()-m0) / parsedTuples
	row["mq.send_ns_per_tuple"] = float64(sendT) / parsedTuples
	row["mq.poll_ns_per_tuple"] = float64(pollT) / parsedTuples

	// stream: each session's topology fed its tuples (over and over, so that
	// the windows tick as they do live) by a replay spout.
	var streamT time.Duration
	var streamAllocs uint64
	var fed float64
	share := streamTuples / len(queries)
	for i, c := range queries {
		if len(polled[i]) == 0 {
			continue
		}
		src := polled[i]
		var sent, pos int
		spout := stream.SpoutFunc(func() []tuple.Tuple {
			if sent >= share {
				return nil
			}
			end := pos + 1024
			if end > len(src) {
				end = len(src)
			}
			out := append([]tuple.Tuple(nil), src[pos:end]...)
			sent += len(out)
			if pos = end; pos == len(src) {
				pos = 0
			}
			return out
		})
		var results atomic.Uint64
		proc := c.q.Processors[0]
		topo, err := stream.BuildTopologyOpts(stream.ProcessorSpec{Name: proc.Name, Args: proc.Args},
			func() stream.Spout { return spout }, 1, func(tuple.Tuple) { results.Add(1) },
			50*time.Millisecond, stream.TopologyOptions{})
		if err != nil {
			return nil, err
		}
		ex, err := stream.NewExecutor(topo, stream.WithTickInterval(50*time.Millisecond))
		if err != nil {
			return nil, err
		}
		m0 := mallocs()
		t0 := time.Now()
		ex.Start()
		for ex.Processed("spout") < uint64(share) || ex.QueueLag() > 0 {
			time.Sleep(200 * time.Microsecond)
		}
		ex.Stop()
		streamT += time.Since(t0)
		streamAllocs += mallocs() - m0
		fed += float64(ex.Processed("spout"))
	}
	row["stream.ns_per_tuple"] = float64(streamT) / fed
	row["stream.allocs_per_tuple"] = float64(streamAllocs) / fed

	// sketch: the keys of the first session's tuples offered to a
	// space-saving summary sized for k=10.
	var keys []string
	for _, t := range polled[0] {
		if t.Key != "" {
			keys = append(keys, t.Key)
		}
	}
	if len(keys) > 0 {
		top := sketch.NewTopK(sketch.DefaultCapacity(10))
		t0 = time.Now()
		for i := 0; i < streamTuples; i++ {
			top.Offer(keys[i%len(keys)], 1)
		}
		row["sketch.topk_offer_ns"] = float64(time.Since(t0)) / float64(streamTuples)
	}

	// The sheet's rows in ns per injected frame, for the unattributed share.
	row["sheet.ns_per_frame"] = vnetNS +
		row["monitor.ns_per_frame"]*mirrored/n +
		(row["mq.send_ns_per_tuple"]+row["mq.poll_ns_per_tuple"]+row["stream.ns_per_tuple"])*parsedTuples/n
	return row, nil
}
