package netalytics

// One benchmark per evaluation table/figure of the paper, plus ablation
// benches for the design choices DESIGN.md calls out. The full series
// reproductions (exact rows per figure) live in cmd/experiments; these
// benches regenerate each figure's underlying measurement as a testing.B
// target so `go test -bench=.` sweeps the whole evaluation.

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netalytics/internal/apps"
	"netalytics/internal/core"
	"netalytics/internal/insight"
	"netalytics/internal/monitor"
	"netalytics/internal/mq"
	"netalytics/internal/packet"
	"netalytics/internal/parsers"
	"netalytics/internal/placement"
	"netalytics/internal/query"
	"netalytics/internal/sdn"
	"netalytics/internal/sketch"
	"netalytics/internal/stream"
	"netalytics/internal/telemetry"
	"netalytics/internal/topology"
	"netalytics/internal/tuple"
	"netalytics/internal/vnet"
	"netalytics/internal/workload"
)

// --- Table 1: the common parsers ---

func BenchmarkTable1Parsers(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, name := range []string{"tcp_flow_key", "tcp_conn_time", "tcp_pkt_size", "http_get", "memcached_get", "mysql_query"} {
		factory, err := parsers.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		bl := workload.NewHTTPGetBlaster(64, 100, rng)
		b.Run(name, func(b *testing.B) {
			p := factory()
			pkt := &monitor.Packet{TS: time.Now()}
			raw := bl.Next()
			if err := pkt.Frame.Decode(raw); err != nil {
				b.Fatal(err)
			}
			ft, _ := pkt.Frame.FlowTuple()
			pkt.Tuple = ft
			pkt.FlowID = ft.CanonicalHash()
			emit := func(tuple.Tuple) {}
			b.SetBytes(int64(len(raw)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Handle(pkt, emit)
			}
		})
	}
}

// --- Table 2: the topology building blocks ---

func BenchmarkTable2Blocks(b *testing.B) {
	sample := tuple.Tuple{FlowID: 7, Key: "/videos/0001.mp4", DstIP: "10.0.0.1", Val: 3}
	blocks := []struct {
		name string
		bolt stream.Bolt
	}{
		{"top-k_count", stream.NewRollingCountBolt(5)},
		{"top-k_rank", stream.NewRankBolt(10)},
		{"sum", stream.NewSumBolt("dstIP")},
		{"avg", stream.NewAvgBolt("dstIP")},
		{"max", stream.NewMaxBolt("dstIP")},
		{"min", stream.NewMinBolt("dstIP")},
		{"diff", stream.NewDiffBolt("", "")},
		{"group", stream.NewGroupBolt("dstIP", stream.AggCount, true)},
	}
	emit := func(tuple.Tuple) {}
	for _, blk := range blocks {
		b.Run(blk.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				blk.bolt.Execute(sample, emit)
			}
		})
	}
}

// --- Table 3: the query language ---

func BenchmarkTable3QueryParse(b *testing.B) {
	in := `PARSE tcp_conn_time, http_get FROM 10.0.2.8:5555 TO 10.0.2.9:80 LIMIT 90s SAMPLE auto PROCESS (top-k: k=10, w=10s)`
	for i := 0; i < b.N; i++ {
		if _, err := query.Parse(in); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 5: monitor throughput vs packet size ---

func BenchmarkFig5MonitorThroughput(b *testing.B) {
	for _, parserName := range []string{"tcp_conn_time", "http_get"} {
		for _, size := range []int{64, 256, 1024} {
			b.Run(fmt.Sprintf("%s/%dB", parserName, size), func(b *testing.B) {
				factory, err := parsers.Lookup(parserName)
				if err != nil {
					b.Fatal(err)
				}
				mon, err := monitor.New(monitor.Config{
					Parsers:    []monitor.Factory{factory},
					Sink:       monitor.SinkFunc(func(*tuple.Batch) error { return nil }),
					QueueDepth: 1 << 15,
				})
				if err != nil {
					b.Fatal(err)
				}
				bl := workload.NewBlaster(workload.BlasterConfig{FrameSize: size, Flows: 64}, rand.New(rand.NewSource(2)))
				mon.Start()
				b.SetBytes(int64(bl.FrameSize()))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for !mon.Deliver(bl.Next(), time.Time{}) {
					}
				}
				b.StopTimer()
				mon.Stop()
			})
		}
	}
}

// deliverBurstN pushes exactly total frames through DeliverBurst in chunks
// of burstSize, spinning on the undelivered tail like the single-packet
// benches spin on Deliver.
func deliverBurstN(mon *monitor.Monitor, bl *workload.Blaster, total, burstSize int) {
	for delivered := 0; delivered < total; {
		n := burstSize
		if total-delivered < n {
			n = total - delivered
		}
		frames := bl.NextBurst(n)
		for len(frames) > 0 {
			frames = frames[mon.DeliverBurst(frames, time.Time{}):]
		}
		delivered += n
	}
}

// BenchmarkFig5MonitorThroughputBurst is the Fig. 5 measurement on the
// burst datapath: frames arrive via DeliverBurst at the default burst size,
// the way the nfv pump and a DPDK rx_burst loop hand them over.
func BenchmarkFig5MonitorThroughputBurst(b *testing.B) {
	for _, parserName := range []string{"tcp_conn_time", "http_get"} {
		for _, size := range []int{64, 256, 1024} {
			b.Run(fmt.Sprintf("%s/%dB", parserName, size), func(b *testing.B) {
				factory, err := parsers.Lookup(parserName)
				if err != nil {
					b.Fatal(err)
				}
				mon, err := monitor.New(monitor.Config{
					Parsers:    []monitor.Factory{factory},
					Sink:       monitor.SinkFunc(func(*tuple.Batch) error { return nil }),
					QueueDepth: 1 << 15,
				})
				if err != nil {
					b.Fatal(err)
				}
				bl := workload.NewBlaster(workload.BlasterConfig{FrameSize: size, Flows: 64}, rand.New(rand.NewSource(2)))
				mon.Start()
				b.SetBytes(int64(bl.FrameSize()))
				b.ResetTimer()
				deliverBurstN(mon, bl, b.N, monitor.DefaultBurstSize)
				b.StopTimer()
				mon.Stop()
			})
		}
	}
}

// --- Ablation: burst size (DESIGN.md #7) ---

// BenchmarkAblationBurstSize sweeps the burst size at the Fig. 5 worst case
// (64 B frames) with two parsers, so the per-packet channel and lock costs
// the burst datapath amortizes dominate. burst-1 approximates the
// single-packet path; throughput should improve monotonically toward 32.
func BenchmarkAblationBurstSize(b *testing.B) {
	for _, burst := range []int{1, 8, 32, 128} {
		b.Run(fmt.Sprintf("burst-%d", burst), func(b *testing.B) {
			var factories []monitor.Factory
			for _, name := range []string{"tcp_flow_key", "tcp_conn_time"} {
				f, err := parsers.Lookup(name)
				if err != nil {
					b.Fatal(err)
				}
				factories = append(factories, f)
			}
			mon, err := monitor.New(monitor.Config{
				Parsers:    factories,
				BurstSize:  burst,
				Sink:       monitor.SinkFunc(func(*tuple.Batch) error { return nil }),
				QueueDepth: 1 << 15,
			})
			if err != nil {
				b.Fatal(err)
			}
			bl := workload.NewBlaster(workload.BlasterConfig{FrameSize: 64, Flows: 64}, rand.New(rand.NewSource(7)))
			mon.Start()
			b.SetBytes(int64(bl.FrameSize()))
			b.ResetTimer()
			deliverBurstN(mon, bl, b.N, burst)
			b.StopTimer()
			mon.Stop()
		})
	}
}

// --- Fig. 6: aggregation + processing scalability ---

func BenchmarkFig6AnalyticsScaling(b *testing.B) {
	batch := &tuple.Batch{Parser: "p"}
	for i := 0; i < 64; i++ {
		batch.Tuples = append(batch.Tuples, tuple.Tuple{FlowID: uint64(i), Key: "/v"})
	}
	for _, brokers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("brokers-%d", brokers), func(b *testing.B) {
			cluster := mq.NewCluster(brokers, mq.Config{Partitions: brokers, BufferBatches: 1 << 16})
			prod := cluster.Producer("bench")
			cons := cluster.Consumer("bench")
			b.SetBytes(int64(batch.WireSize()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := prod.Send(batch); err != nil {
					b.Fatal(err)
				}
				if i%64 == 63 {
					cons.Poll(64)
				}
			}
		})
	}
}

// --- Figs. 7 & 8: placement cost sweep ---

func benchPlacement(b *testing.B, pol placement.Policy) {
	topo := topology.MustNew(16)
	topo.RandomizeResources(rand.New(rand.NewSource(1)))
	all := workload.StaggeredFlows(topo, 100000, workload.FlowConfig{}, rand.New(rand.NewSource(2)))
	monitored := workload.Sample(all, 20000, rand.New(rand.NewSource(3)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := placement.Place(topo, monitored, pol, placement.Params{}, rand.New(rand.NewSource(4)))
		if err != nil {
			b.Fatal(err)
		}
		_ = placement.Evaluate(topo, monitored, p, placement.Params{}, all)
	}
}

func BenchmarkFig7PlacementNetworkCost(b *testing.B) {
	for _, pol := range []placement.Policy{placement.LocalRandom, placement.NetalyticsNode, placement.NetalyticsNetwork} {
		b.Run(pol.Name, func(b *testing.B) { benchPlacement(b, pol) })
	}
}

func BenchmarkFig8PlacementResourceCost(b *testing.B) {
	// Resource cost comes from the same placement pass as Fig. 7; this
	// target measures the counting path explicitly.
	topo := topology.MustNew(16)
	topo.RandomizeResources(rand.New(rand.NewSource(1)))
	all := workload.StaggeredFlows(topo, 100000, workload.FlowConfig{}, rand.New(rand.NewSource(2)))
	monitored := workload.Sample(all, 20000, rand.New(rand.NewSource(3)))
	p, err := placement.Place(topo, monitored, placement.NetalyticsNode, placement.Params{}, rand.New(rand.NewSource(4)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.ProcessCount() == 0 {
			b.Fatal("empty placement")
		}
	}
}

// --- Figs. 9–14 use cases: end-to-end query pipeline ---

// BenchmarkUseCaseQueryPipeline measures a full query round trip: mirrored
// frames -> monitor -> aggregation -> diff-group topology -> result, the
// data path behind Figs. 9–14.
func BenchmarkUseCaseQueryPipeline(b *testing.B) {
	topo := topology.MustNew(4)
	engine := core.NewEngine(topo, core.Config{TickInterval: 20 * time.Millisecond})
	defer engine.Close()
	hosts := topo.Hosts()
	server, client := hosts[0], hosts[12]
	web, err := apps.StartApp(engine.Network(), server, apps.AppConfig{
		Routes: map[string]apps.Route{"/": {}},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer web.Stop()

	sess, err := engine.Submit(fmt.Sprintf(
		"PARSE tcp_conn_time FROM * TO %s:80 PROCESS (diff-group: group=dstIP)", server.Name))
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Stop()
	go func() {
		for range sess.Results() {
		}
	}()
	ep := engine.Network().Endpoint(client)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := ep.Dial(server.Addr, 80)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := conn.Request([]byte("GET / HTTP/1.1\r\nHost: h\r\n\r\n"), time.Second); err != nil {
			b.Fatal(err)
		}
		conn.Close()
	}
}

// --- §7.2 comparison: MySQL query-log overhead vs passive monitoring ---

func BenchmarkMySQLQueryLogOverhead(b *testing.B) {
	for _, mode := range []struct {
		name string
		log  bool
	}{{"log-off", false}, {"log-on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			topo := topology.MustNew(4)
			engine := core.NewEngine(topo, core.Config{})
			defer engine.Close()
			hosts := topo.Hosts()
			cfg := apps.MySQLConfig{DefaultCost: 200 * time.Microsecond}
			if mode.log {
				cfg.QueryLog = discardWriter{}
				cfg.LogOverhead = 50 * time.Microsecond
			}
			srv, err := apps.StartMySQL(engine.Network(), hosts[0], cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Stop()
			cli, err := apps.DialMySQL(engine.Network(), hosts[12], hosts[0], 0)
			if err != nil {
				b.Fatal(err)
			}
			defer cli.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cli.Query("SELECT 1", time.Second); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// --- Fig. 16/17 data path: the top-k topology ---

func BenchmarkFig16TopKTopology(b *testing.B) {
	var fed int
	spout := stream.SpoutFunc(func() []tuple.Tuple {
		if fed >= b.N {
			return nil
		}
		n := 256
		if b.N-fed < n {
			n = b.N - fed
		}
		out := make([]tuple.Tuple, n)
		for i := range out {
			out[i] = tuple.Tuple{Key: workload.URL((fed + i) % 100)}
		}
		fed += n
		return out
	})
	topo, err := stream.BuildTopology(
		stream.ProcessorSpec{Name: "top-k", Args: map[string]string{"k": "10"}},
		func() stream.Spout { return spout }, 1, func(tuple.Tuple) {}, 50*time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	ex, err := stream.NewExecutor(topo, stream.WithTickInterval(50*time.Millisecond), stream.WithQueueDepth(1<<14))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	ex.Start()
	ex.Stop() // spouts drain b.N tuples, then the DAG flushes
}

// --- Ablation: stream executor sub-batch size ---

// BenchmarkStreamThroughput drives a shuffle+fields two-bolt topology
// (spout → relay, shuffle → count, fields) and sweeps the executor's
// sub-batch size. batch-1 approximates the pre-vectorization tuple-at-a-time
// channels; by batch-32 the channel sends, inflight accounting, and route
// lookups amortize across the batch. ReportAllocs pins the pooled emit path:
// the spout reuses one template slice, so steady-state allocations per tuple
// stay near zero (the fields-grouping hash itself allocates nothing).
func BenchmarkStreamThroughput(b *testing.B) {
	template := make([]tuple.Tuple, 256)
	for i := range template {
		template[i] = tuple.Tuple{FlowID: uint64(i), Key: workload.URL(i % 64), Val: 1}
	}
	for _, batch := range []int{1, 8, 32, 128} {
		b.Run(fmt.Sprintf("batch-%d", batch), func(b *testing.B) {
			var mu sync.Mutex
			fed := 0
			spout := stream.SpoutFunc(func() []tuple.Tuple {
				mu.Lock()
				defer mu.Unlock()
				if fed >= b.N {
					return nil
				}
				n := len(template)
				if b.N-fed < n {
					n = b.N - fed
				}
				fed += n
				return template[:n]
			})
			topo := stream.NewTopology("bench-batch")
			if err := topo.AddSpout("spout", func() stream.Spout { return spout }, 1); err != nil {
				b.Fatal(err)
			}
			relay := func() stream.Bolt {
				return stream.BoltFunc(func(t tuple.Tuple, emit stream.EmitFunc) { emit(t) })
			}
			if err := topo.AddBolt("relay", relay, 2).ShuffleFrom("spout").Err(); err != nil {
				b.Fatal(err)
			}
			count := func() stream.Bolt { return stream.NewGroupBolt("", stream.AggCount, true) }
			if err := topo.AddBolt("count", count, 2).FieldsFrom("relay", "").Err(); err != nil {
				b.Fatal(err)
			}
			ex, err := stream.NewExecutor(topo,
				stream.WithTickInterval(50*time.Millisecond),
				stream.WithQueueDepth(1024),
				stream.WithBatchSize(batch))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			ex.Start()
			for { // wait until the spout has fed every tuple, then drain
				mu.Lock()
				done := fed >= b.N
				mu.Unlock()
				if done {
					break
				}
				time.Sleep(100 * time.Microsecond)
			}
			ex.Stop()
		})
	}
}

// --- Ablation: shared descriptors vs per-parser copies (DESIGN.md #1) ---

func BenchmarkAblationZeroCopy(b *testing.B) {
	for _, mode := range []struct {
		name string
		copy bool
	}{{"shared-descriptors", false}, {"copy-per-parser", true}} {
		b.Run(mode.name, func(b *testing.B) {
			factories := []monitor.Factory{}
			for _, name := range []string{"tcp_flow_key", "tcp_conn_time", "tcp_pkt_size"} {
				f, err := parsers.Lookup(name)
				if err != nil {
					b.Fatal(err)
				}
				factories = append(factories, f)
			}
			mon, err := monitor.New(monitor.Config{
				Parsers:    factories,
				Sink:       monitor.SinkFunc(func(*tuple.Batch) error { return nil }),
				QueueDepth: 1 << 15,
				CopyMode:   mode.copy,
			})
			if err != nil {
				b.Fatal(err)
			}
			bl := workload.NewBlaster(workload.BlasterConfig{FrameSize: 512, Flows: 64}, rand.New(rand.NewSource(3)))
			mon.Start()
			b.SetBytes(int64(bl.FrameSize()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for !mon.Deliver(bl.Next(), time.Time{}) {
				}
			}
			b.StopTimer()
			mon.Stop()
		})
	}
}

// --- Ablation: RSS collector scaling (§5.2) ---

func BenchmarkAblationCollectors(b *testing.B) {
	for _, collectors := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("collectors-%d", collectors), func(b *testing.B) {
			factory, err := parsers.Lookup("tcp_conn_time")
			if err != nil {
				b.Fatal(err)
			}
			mon, err := monitor.New(monitor.Config{
				Parsers:    []monitor.Factory{factory},
				Collectors: collectors,
				Sink:       monitor.SinkFunc(func(*tuple.Batch) error { return nil }),
				QueueDepth: 1 << 14,
			})
			if err != nil {
				b.Fatal(err)
			}
			bl := workload.NewBlaster(workload.BlasterConfig{FrameSize: 256, Flows: 256}, rand.New(rand.NewSource(6)))
			mon.Start()
			b.SetBytes(int64(bl.FrameSize()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for !mon.Deliver(bl.Next(), time.Time{}) {
				}
			}
			b.StopTimer()
			mon.Stop()
		})
	}
}

// --- Ablation: output batching (DESIGN.md #2) ---

func BenchmarkAblationOutputBatching(b *testing.B) {
	for _, batchSize := range []int{1, 64} {
		b.Run(fmt.Sprintf("batch-%d", batchSize), func(b *testing.B) {
			cluster := mq.NewCluster(1, mq.Config{BufferBatches: 1 << 20})
			factory, err := parsers.Lookup("tcp_pkt_size")
			if err != nil {
				b.Fatal(err)
			}
			mon, err := monitor.New(monitor.Config{
				Parsers:    []monitor.Factory{factory},
				Sink:       cluster.Producer("t"),
				BatchSize:  batchSize,
				QueueDepth: 1 << 15,
			})
			if err != nil {
				b.Fatal(err)
			}
			bl := workload.NewBlaster(workload.BlasterConfig{FrameSize: 256, Flows: 64}, rand.New(rand.NewSource(4)))
			mon.Start()
			cons := cluster.Consumer("t")
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					if cons.PollWait(64, 50*time.Millisecond, nil) == nil {
						return
					}
				}
			}()
			b.SetBytes(int64(bl.FrameSize()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for !mon.Deliver(bl.Next(), time.Time{}) {
				}
			}
			b.StopTimer()
			mon.Stop()
			<-done
		})
	}
}

// --- Ablation: flow sampling rate (DESIGN.md #3) ---

func BenchmarkAblationSampling(b *testing.B) {
	for _, rate := range []float64{1.0, 0.1} {
		b.Run(fmt.Sprintf("rate-%.1f", rate), func(b *testing.B) {
			factory, err := parsers.Lookup("http_get")
			if err != nil {
				b.Fatal(err)
			}
			mon, err := monitor.New(monitor.Config{
				Parsers:    []monitor.Factory{factory},
				Sink:       monitor.SinkFunc(func(*tuple.Batch) error { return nil }),
				QueueDepth: 1 << 15,
				SampleRate: rate,
			})
			if err != nil {
				b.Fatal(err)
			}
			bl := workload.NewHTTPGetBlaster(256, 100, rand.New(rand.NewSource(5)))
			mon.Start()
			b.SetBytes(int64(bl.FrameSize()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for !mon.Deliver(bl.Next(), time.Time{}) {
				}
			}
			b.StopTimer()
			mon.Stop()
		})
	}
}

// --- Telemetry overhead: the registry + tracer cost on the hot path ---

// BenchmarkTelemetryOverhead measures the monitor datapath with telemetry
// off, at the default 1-in-64 trace sampling, and at the pathological
// trace-everything setting. "off" vs "sampled-64" is the number the tentpole
// budget constrains: the default sampling rate must stay within 5% of the
// untelemetered path, and counters alone (which "sampled-64" also carries)
// should be in the noise.
func BenchmarkTelemetryOverhead(b *testing.B) {
	for _, mode := range []struct {
		name  string
		every int // 0 = telemetry off entirely
	}{{"off", 0}, {"sampled-64", telemetry.DefaultSampleEvery}, {"sampled-1", 1}} {
		b.Run(mode.name, func(b *testing.B) {
			factory, err := parsers.Lookup("tcp_conn_time")
			if err != nil {
				b.Fatal(err)
			}
			cfg := monitor.Config{
				Parsers:    []monitor.Factory{factory},
				Sink:       monitor.SinkFunc(func(*tuple.Batch) error { return nil }),
				QueueDepth: 1 << 15,
			}
			if mode.every > 0 {
				reg := telemetry.NewRegistry()
				cfg.Metrics = reg
				cfg.Tracer = telemetry.NewTracer(reg, mode.every)
			}
			mon, err := monitor.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			bl := workload.NewBlaster(workload.BlasterConfig{FrameSize: 256, Flows: 64}, rand.New(rand.NewSource(8)))
			mon.Start()
			b.SetBytes(int64(bl.FrameSize()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for !mon.Deliver(bl.Next(), time.Time{}) {
				}
			}
			b.StopTimer()
			mon.Stop()
		})
	}
}

// --- Insight tier overhead: always-on detection vs the bare service ---

// BenchmarkInsightOverhead measures end-to-end request latency through the
// emulated service with the insight tier off and on. "insight-on" carries
// the whole always-on stack — the standing observation queries with their
// mirrored monitors, the registry feeder, per-series detectors and the
// correlator — and must stay within ~5% of the bare path: the tier samples
// on its own clock and adds no per-request work.
func BenchmarkInsightOverhead(b *testing.B) {
	for _, mode := range []struct {
		name string
		on   bool
	}{{"insight-off", false}, {"insight-on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			topo := topology.MustNew(4)
			cfg := core.Config{TickInterval: 50 * time.Millisecond}
			if mode.on {
				cfg.Insight = &insight.Config{SnapshotPeriod: 100 * time.Millisecond}
			}
			engine := core.NewEngine(topo, cfg)
			defer engine.Close()
			hosts := topo.Hosts()
			server, client := hosts[0], hosts[12]
			web, err := apps.StartApp(engine.Network(), server, apps.AppConfig{
				Routes: map[string]apps.Route{"/": {Cost: 100 * time.Microsecond}},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer web.Stop()
			if mode.on {
				if err := engine.ObserveServices(); err != nil {
					b.Fatal(err)
				}
				// Let the observation monitors place and the feeder take its
				// first snapshot before timing starts.
				time.Sleep(300 * time.Millisecond)
			}
			ep := engine.Network().Endpoint(client)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				conn, err := ep.Dial(server.Addr, 80)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := conn.Request([]byte("GET / HTTP/1.1\r\nHost: h\r\n\r\n"), time.Second); err != nil {
					b.Fatal(err)
				}
				conn.Close()
			}
			b.StopTimer()
			if mode.on {
				// A quiet benchmark run must not page anyone.
				b.ReportMetric(float64(engine.Insight().Total()), "incidents")
			}
		})
	}
}

// --- Figs. 13-14: end-to-end pipeline latency percentiles ---

// BenchmarkPipelineLatency drives the full query pipeline with tracing on
// every tuple and publishes the capture-to-sink latency percentiles as
// custom metrics (e2e-p50-ns etc.), the shape behind the paper's latency
// CDFs. benchparse picks the extra metrics up into BENCH_pipeline.json.
func BenchmarkPipelineLatency(b *testing.B) {
	topo := topology.MustNew(4)
	engine := core.NewEngine(topo, core.Config{
		TickInterval:     20 * time.Millisecond,
		TraceSampleEvery: 1,
	})
	defer engine.Close()
	hosts := topo.Hosts()
	server, client := hosts[0], hosts[12]
	web, err := apps.StartApp(engine.Network(), server, apps.AppConfig{
		Routes: map[string]apps.Route{"/": {}},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer web.Stop()

	sess, err := engine.Submit(fmt.Sprintf(
		"PARSE tcp_conn_time FROM * TO %s:80 PROCESS (passthrough)", server.Name))
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Stop()
	go func() {
		for range sess.Results() {
		}
	}()
	ep := engine.Network().Endpoint(client)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := ep.Dial(server.Addr, 80)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := conn.Request([]byte("GET / HTTP/1.1\r\nHost: h\r\n\r\n"), time.Second); err != nil {
			b.Fatal(err)
		}
		conn.Close()
	}
	b.StopTimer()
	// Let in-flight tuples reach the sink so the histograms cover the run.
	deadline := time.Now().Add(2 * time.Second)
	for sess.Telemetry().Stage(telemetry.StageEndToEnd).Count == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	e2e := sess.Telemetry().Stage(telemetry.StageEndToEnd)
	b.ReportMetric(e2e.P50NS, "e2e-p50-ns")
	b.ReportMetric(e2e.P95NS, "e2e-p95-ns")
	b.ReportMetric(e2e.P99NS, "e2e-p99-ns")
}

// --- Ablation: mq persistence mode (DESIGN.md #5) ---

func BenchmarkAblationPersistence(b *testing.B) {
	batch := &tuple.Batch{Parser: "p"}
	for i := 0; i < 64; i++ {
		batch.Tuples = append(batch.Tuples, tuple.Tuple{FlowID: uint64(i), Key: "/v"})
	}
	for _, mode := range []struct {
		name string
		cfg  mq.Config
	}{
		{"ram", mq.Config{BufferBatches: 1 << 20}},
		{"disk-70MBps", mq.Config{BufferBatches: 1 << 20, Persist: mq.PersistDisk}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cluster := mq.NewCluster(1, mode.cfg)
			prod := cluster.Producer("t")
			cons := cluster.Consumer("t")
			b.SetBytes(int64(batch.WireSize()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := prod.Send(batch); err != nil {
					b.Fatal(err)
				}
				if i%64 == 63 {
					cons.Poll(64)
				}
			}
		})
	}
}

// --- Ablation: vnet forwarding fast path (flow-decision cache) ---

// BenchmarkVnetForward measures the per-frame cost of Network.forward with
// and without the flow-decision cache, sweeping flow-table pressure (rules
// per on-path switch) and mirror fan-out. 256 flows cycle through a
// cross-pod 5-switch path; the cached configurations report their hit rate
// (~255/256: one compulsory miss per flow). CI emits this as
// BENCH_vnet.json. The destination host has no endpoint, so the numbers
// isolate the fabric: path resolution, flow-table walks, mirror dedup and
// tap delivery, not endpoint inbox handling.
func BenchmarkVnetForward(b *testing.B) {
	for _, rules := range []int{2, 8} {
		for _, mirrors := range []int{0, 2} {
			for _, cached := range []bool{false, true} {
				name := fmt.Sprintf("rules=%d/mirrors=%d/cache=%v", rules, mirrors, cached)
				b.Run(name, func(b *testing.B) {
					topo := topology.MustNew(4)
					ctrl := sdn.NewController()
					net := vnet.New(topo, ctrl)
					if cached {
						net.SetFlowCacheSize(vnet.DefaultFlowCacheSize)
					}
					hosts := topo.Hosts()
					src, dst := hosts[12], hosts[0] // cross-pod: 5-switch path
					path := topo.SwitchPath(src, dst)

					// Mirror rules on every on-path switch (the dedup worst
					// case), each tap drained by a burst reader.
					var taps []*vnet.Tap
					var wg sync.WaitGroup
					for m := 0; m < mirrors; m++ {
						mon := hosts[1+m]
						tap := net.OpenTap(mon.ID, 8192)
						taps = append(taps, tap)
						wg.Add(1)
						go func(tap *vnet.Tap) {
							defer wg.Done()
							buf := make([]vnet.TapFrame, 256)
							for tap.ReadBurst(buf) > 0 {
							}
						}(tap)
						for _, sw := range path {
							ctrl.InstallMirror("bench", sw, sdn.Match{DstIP: dst.Addr}, mon.ID, 100)
						}
					}
					// Decoy rules fill each table to the target size: higher
					// priority, never matching, so every lookup walks them.
					id := uint64(1 << 32)
					for _, sw := range path {
						for d := mirrors; d < rules; d++ {
							id++
							ctrl.Table(sw).Install(&sdn.Rule{
								ID: id, Priority: 1000 + d,
								Match: sdn.Match{DstIP: hosts[15].Addr, DstPort: 9},
							})
						}
					}

					frames := make([][]byte, 256)
					for i := range frames {
						var pb packet.Builder
						frames[i] = pb.TCP(packet.TCPSpec{
							Src: src.Addr, Dst: dst.Addr,
							SrcPort: uint16(20000 + i), DstPort: 80,
							Flags: packet.TCPFlagACK,
						})
					}
					for _, f := range frames { // warm the cache
						if err := net.Inject(f); err != nil {
							b.Fatal(err)
						}
					}

					start := net.FlowCacheStats()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := net.Inject(frames[i&255]); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					if cached {
						cs := net.FlowCacheStats()
						if lookups := (cs.Hits - start.Hits) + (cs.Misses - start.Misses); lookups > 0 {
							b.ReportMetric(float64(cs.Hits-start.Hits)/float64(lookups), "hit-rate")
						}
					}
					for _, tap := range taps {
						net.CloseTap(tap)
					}
					wg.Wait()
				})
			}
		}
	}
}

// --- Scale-out: per-core sharded ingest, GOMAXPROCS sweep 1 -> 32 ---
//
// A/B sweep of the two refactored datapaths, published by CI as
// BENCH_scaleout.json:
//
//   mq/{legacy,sharded}       N producer threads hammer one topic while one
//                             drainer per core polls a shared consumer group.
//                             legacy serializes appends behind the partition
//                             mutex; sharded gives each producer a home
//                             single-writer ring.
//   monitor/{channels,steal}  N delivery threads push one hot IP pair split
//                             across 64 port flows. RSS by IP pair pins the
//                             whole load to a single collector on the channel
//                             path; the steal path fans the backlog out to
//                             idle collectors.
//
// Each sub-bench pins GOMAXPROCS and verifies conservation (every accepted
// batch/frame accounted for) before reporting, so a scheduling bug cannot
// masquerade as throughput.

func BenchmarkScaleout(b *testing.B) {
	cores := []int{1, 2, 4, 8, 16, 32}
	for _, path := range []string{"legacy", "sharded"} {
		for _, n := range cores {
			b.Run(fmt.Sprintf("mq/%s/cores=%d", path, n), func(b *testing.B) {
				benchScaleoutMQ(b, path == "sharded", n)
			})
		}
	}
	for _, path := range []string{"channels", "steal"} {
		for _, n := range cores {
			b.Run(fmt.Sprintf("monitor/%s/cores=%d", path, n), func(b *testing.B) {
				benchScaleoutMonitor(b, path == "steal", n)
			})
		}
	}
}

func benchScaleoutMQ(b *testing.B, sharded bool, cores int) {
	prev := runtime.GOMAXPROCS(cores)
	defer runtime.GOMAXPROCS(prev)

	cfg := mq.Config{Partitions: 4, BufferBatches: 1 << 16}
	if sharded {
		cfg.IngestShards = cores
	}
	cluster := mq.NewCluster(2, cfg)

	batch := &tuple.Batch{Parser: "p"}
	for i := 0; i < 64; i++ {
		batch.Tuples = append(batch.Tuples, tuple.Tuple{FlowID: uint64(i), Key: "/v"})
	}

	var produced, consumed atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < cores; i++ {
		cons := cluster.GroupConsumer("scale", "bench")
		cons.SetShardAffinity(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				got := cons.Poll(256)
				if len(got) == 0 {
					runtime.Gosched()
					continue
				}
				consumed.Add(int64(len(got)))
			}
			for { // final sweep: claim whatever the producers left behind
				got := cons.Poll(256)
				if len(got) == 0 {
					return
				}
				consumed.Add(int64(len(got)))
			}
		}()
	}

	b.SetBytes(int64(batch.WireSize()))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		prod := cluster.Producer("scale")
		for pb.Next() {
			for {
				err := prod.Send(batch)
				if err == nil {
					break
				}
				if !errors.Is(err, mq.ErrBufferFull) && !errors.Is(err, mq.ErrUnavailable) {
					b.Error(err)
					return
				}
				runtime.Gosched()
			}
			produced.Add(1)
		}
	})
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
	if got, want := consumed.Load(), produced.Load(); got != want {
		b.Fatalf("tuple loss: produced %d batches, consumed %d", want, got)
	}
}

func benchScaleoutMonitor(b *testing.B, steal bool, cores int) {
	prev := runtime.GOMAXPROCS(cores)
	defer runtime.GOMAXPROCS(prev)

	factory, err := parsers.Lookup("tcp_pkt_size")
	if err != nil {
		b.Fatal(err)
	}
	mon, err := monitor.New(monitor.Config{
		Parsers:    []monitor.Factory{factory},
		Sink:       monitor.SinkFunc(func(*tuple.Batch) error { return nil }),
		QueueDepth: 1 << 14,
		Collectors: cores,
		WorkSteal:  steal,
	})
	if err != nil {
		b.Fatal(err)
	}

	// One hot IP pair, 64 port flows: the worst case for RSS-by-IP-pair.
	var pb packet.Builder
	frames := make([][]byte, 64)
	for i := range frames {
		frames[i] = pb.TCP(packet.TCPSpec{
			Src:     netip.AddrFrom4([4]byte{10, 9, 0, 2}),
			Dst:     netip.AddrFrom4([4]byte{10, 9, 0, 3}),
			SrcPort: uint16(10000 + i),
			DstPort: 80,
			Flags:   packet.TCPFlagACK | packet.TCPFlagPSH,
			Payload: make([]byte, 192),
		})
	}

	mon.Start()
	var accepted, idx atomic.Uint64
	b.SetBytes(int64(len(frames[0])))
	b.ResetTimer()
	b.RunParallel(func(pbb *testing.PB) {
		for pbb.Next() {
			f := frames[idx.Add(1)&63]
			for !mon.Deliver(f, time.Time{}) {
				runtime.Gosched()
			}
			accepted.Add(1)
		}
	})
	b.StopTimer()
	mon.Stop()
	st := mon.Stats()
	if got := st.Received - st.CollectDrops; got != accepted.Load() {
		b.Fatalf("frame loss: accepted %d, monitor accounts for %d", accepted.Load(), got)
	}
}

// --- Shared-tap control plane: 1 -> 128 concurrent queries ---

// BenchmarkMultiQuery sweeps concurrent query count over a k=8 fat tree (128
// hosts) with ~50% demand overlap: even-numbered queries all demand the same
// (server, port) pair, odd-numbered queries each demand their own server.
// ns/op is the per-frame fabric cost of injecting traffic while n queries
// hold their mirror rules — the legacy plane pays one tap delivery per
// subscribed monitor on each mirror host, the shared plane one per merged
// tap. The control-plane footprint lands as custom metrics: mirror-rules and
// monitors installed for the query set, plus mirrored-per-frame (fabric
// deliveries) and parsed-per-frame (monitor work) per injected frame. CI
// publishes the sweep as BENCH_multiquery.json; the tentpole acceptance bound
// (shared ≤ 0.6× legacy rules and parsed frames at 64 queries) is asserted in
// TestSharedTapsMergeRatio — the bench shows the whole curve.
func BenchmarkMultiQuery(b *testing.B) {
	for _, shared := range []bool{false, true} {
		mode := "legacy"
		if shared {
			mode = "shared"
		}
		for _, n := range []int{1, 8, 32, 64, 128} {
			b.Run(fmt.Sprintf("%s/queries=%d", mode, n), func(b *testing.B) {
				benchMultiQuery(b, shared, n)
			})
		}
	}
}

func benchMultiQuery(b *testing.B, shared bool, queries int) {
	topo := topology.MustNew(8)
	engine := core.NewEngine(topo, core.Config{
		TickInterval: 50 * time.Millisecond,
		SharedTaps:   shared,
	})
	defer engine.Close()
	hosts := topo.Hosts()
	client := hosts[len(hosts)-1]
	overlapSrv := hosts[0]
	// Distinct demands each get their own server host so the legacy plane
	// places genuinely separate monitors; port stays 80 throughout.
	distinct := hosts[1 : len(hosts)-1]

	var sessions []*core.Session
	demands := map[*topology.Host]bool{}
	for i := 0; i < queries; i++ {
		srv := overlapSrv
		if i%2 == 1 {
			srv = distinct[(i/2)%len(distinct)]
		}
		demands[srv] = true
		sess, err := engine.Submit(fmt.Sprintf(
			"PARSE http_get FROM * TO %s:80 PROCESS (passthrough)", srv.Name))
		if err != nil {
			b.Fatal(err)
		}
		sessions = append(sessions, sess)
		go func() {
			for range sess.Results() {
			}
		}()
	}

	// One crafted GET frame per unique demand; the timed loop cycles them.
	var pb packet.Builder
	var frames [][]byte
	sp := uint16(20000)
	for srv := range demands {
		sp++
		frames = append(frames, pb.TCP(packet.TCPSpec{
			Src: client.Addr, Dst: srv.Addr,
			SrcPort: sp, DstPort: 80,
			Flags:   packet.TCPFlagACK,
			Payload: []byte("GET /bench HTTP/1.1\r\nHost: h\r\n\r\n"),
		}))
	}

	parsed := func() uint64 {
		var sum uint64
		for _, in := range engine.Orchestrator().All() {
			sum += in.Monitor.Stats().Received
		}
		return sum
	}
	startMirrored := engine.Network().Stats().Mirrored
	b.SetBytes(int64(len(frames[0])))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := engine.Network().Inject(frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	// Quiesce: every mirrored frame pumped and parsed before counting.
	prev := uint64(0)
	for i := 0; i < 200; i++ {
		cur := parsed()
		if cur > 0 && cur == prev && engine.Network().TapQueueDepth() == 0 {
			break
		}
		prev = cur
		time.Sleep(10 * time.Millisecond)
	}
	injected := float64(b.N)
	b.ReportMetric(float64(engine.Controller().RuleCount()), "mirror-rules")
	b.ReportMetric(float64(engine.Orchestrator().InstanceCount()), "monitors")
	b.ReportMetric(float64(engine.Network().Stats().Mirrored-startMirrored)/injected, "mirrored-per-frame")
	b.ReportMetric(float64(parsed())/injected, "parsed-per-frame")
	for _, sess := range sessions {
		sess.Stop()
	}
}

// --- Sketch analytics: exact vs sketch at high cardinality ---

// sketchRetention is the untimed half of BenchmarkSketchTopKScaling: stream
// `distinct` unique keys (plus ten heavy keys) through each counting
// structure once and record what it retains and how far its heavy-hitter
// estimates land from the truth. Memoized because testing.B re-runs the
// benchmark body while calibrating b.N, and the exact pass at 10M keys
// builds a gigabyte-scale map.
var (
	sketchRetentionMu    sync.Mutex
	sketchRetentionCache = map[string]sketchRetentionResult{}
)

type sketchRetentionResult struct {
	retainedBytes float64
	relErr        float64
}

func sketchRetention(mode string, distinct int) sketchRetentionResult {
	sketchRetentionMu.Lock()
	defer sketchRetentionMu.Unlock()
	key := fmt.Sprintf("%s/%d", mode, distinct)
	if r, ok := sketchRetentionCache[key]; ok {
		return r
	}

	const heavyKeys = 10
	heavyWeight := float64(distinct) / 4 // well above N/m for the sketch

	var res sketchRetentionResult
	offerAll := func(offer func(k string, w float64)) {
		buf := make([]byte, 0, 32)
		for i := 0; i < distinct; i++ {
			buf = append(buf[:0], "key-"...)
			buf = strconv.AppendInt(buf, int64(i), 10)
			w := 1.0
			if i < heavyKeys {
				w = heavyWeight
			}
			offer(string(buf), w)
		}
	}

	switch mode {
	case "exact":
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		counts := make(map[string]float64)
		offerAll(func(k string, w float64) { counts[k] += w })
		runtime.GC()
		runtime.ReadMemStats(&after)
		res.retainedBytes = float64(after.HeapAlloc) - float64(before.HeapAlloc)
		res.relErr = 0 // exact is the ground truth
		runtime.KeepAlive(counts)
	case "sketch":
		sk := sketch.NewTopK(sketch.DefaultCapacity(heavyKeys))
		offerAll(sk.Offer)
		res.retainedBytes = float64(sk.Bytes())
		errSum := 0.0
		for i := 0; i < heavyKeys; i++ {
			est, _, _ := sk.Estimate("key-" + strconv.Itoa(i))
			errSum += (est - heavyWeight) / heavyWeight // overestimate-only
		}
		res.relErr = errSum / heavyKeys
	}
	sketchRetentionCache[key] = res
	return res
}

// BenchmarkSketchTopKScaling compares the exact top-k datapath (count map +
// bounded-heap rank) against the space-saving sketch at 10k, 1M and 10M
// distinct keys. ns/op times the per-tuple offer against a Zipf draw from
// the full key space; retained-B and top10-relerr come from the one-shot
// retention pass above. The sketch's retained bytes are flat across three
// orders of magnitude of cardinality; exact retention grows linearly.
func BenchmarkSketchTopKScaling(b *testing.B) {
	for _, distinct := range []int{10_000, 1_000_000, 10_000_000} {
		ring := make([]string, 1<<16)
		z := workload.NewZipfURLs(uint64(distinct), 1.2, uint64(distinct), rand.New(rand.NewSource(int64(distinct))))
		for i := range ring {
			ring[i] = z.Next()
		}
		mask := len(ring) - 1

		b.Run(fmt.Sprintf("exact/keys-%d", distinct), func(b *testing.B) {
			ret := sketchRetention("exact", distinct)
			counts := make(map[string]float64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				counts[ring[i&mask]]++
			}
			b.StopTimer()
			// Rank flush cost at realistic k, included so exact pays its
			// whole pipeline like the sketch's Top does below.
			_ = topOfCounts(counts, 10)
			// Reported after the loop: ResetTimer wipes extra metrics.
			b.ReportMetric(ret.retainedBytes, "retained-B")
			b.ReportMetric(ret.relErr, "top10-relerr")
		})
		b.Run(fmt.Sprintf("sketch/keys-%d", distinct), func(b *testing.B) {
			ret := sketchRetention("sketch", distinct)
			sk := sketch.NewTopK(sketch.DefaultCapacity(10))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sk.Offer(ring[i&mask], 1)
			}
			b.StopTimer()
			_ = sk.Top(10)
			b.ReportMetric(ret.retainedBytes, "retained-B")
			b.ReportMetric(ret.relErr, "top10-relerr")
		})
	}
}

func topOfCounts(m map[string]float64, k int) []string {
	type kv struct {
		k string
		v float64
	}
	all := make([]kv, 0, len(m))
	for key, v := range m {
		all = append(all, kv{key, v})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v > all[j].v })
	if len(all) > k {
		all = all[:k]
	}
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.k
	}
	return out
}

// BenchmarkSketchBoltParallelism drives the full sketch top-k topology
// (spout → local sketch bolts × tasks, shuffle → merge × 1) at increasing
// bolt parallelism. Because the local bolts keep partition-local sketches
// and the merge stage only sees O(tasks) encoded summaries per tick, tuple
// throughput scales with the bolt task count instead of serializing on a
// global reducer.
func BenchmarkSketchBoltParallelism(b *testing.B) {
	template := make([]tuple.Tuple, 256)
	z := workload.NewZipfURLs(1_000_000, 1.2, 1, rand.New(rand.NewSource(1)))
	for i := range template {
		template[i] = tuple.Tuple{FlowID: uint64(i), Key: z.Next(), Val: 1}
	}
	for _, tasks := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("tasks-%d", tasks), func(b *testing.B) {
			var mu sync.Mutex
			fed := 0
			spout := stream.SpoutFunc(func() []tuple.Tuple {
				mu.Lock()
				defer mu.Unlock()
				if fed >= b.N {
					return nil
				}
				n := len(template)
				if b.N-fed < n {
					n = b.N - fed
				}
				fed += n
				return template[:n]
			})
			topo, err := stream.BuildTopologyOpts(
				stream.ProcessorSpec{Name: "top-k", Args: map[string]string{
					"k": "10", "tasks": strconv.Itoa(tasks), "sketch": "true",
				}},
				func() stream.Spout { return spout }, 1, func(tuple.Tuple) {}, 50*time.Millisecond,
				stream.TopologyOptions{})
			if err != nil {
				b.Fatal(err)
			}
			ex, err := stream.NewExecutor(topo,
				stream.WithTickInterval(50*time.Millisecond), stream.WithQueueDepth(1<<14))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			ex.Start()
			ex.Stop()
		})
	}
}
