package bench

import (
	"fmt"
	"math/rand"
	"net/netip"

	"netalytics/internal/packet"
	"netalytics/internal/proto"
	"netalytics/internal/topology"
	"netalytics/internal/workload"
)

// Probe traffic. A probe is an HTTP GET for /probe on one of probeSlots
// long-lived flows from the workload's probe host; the flow's source port
// names the slot, so the result tuple identifies its probe without a unique
// URL (unique URLs would grow every group-count and top-k key map by one
// entry per probe and make the probe traffic a load of its own). A slot is
// reused after probeSlots/probeRate ≈ 1.02 s, just past the 1 s after which
// an unanswered probe counts as lost.
const (
	probeSlots    = 2048
	probeRate     = 2000 // probes per second in the open-loop phases
	probePortBase = 10000
	probeURL      = "/probe"
)

// kind is what a session's PROCESS clause turns its tuples into, which
// decides how the benchmark reads and checks its results.
type kind int

const (
	kindPassthrough kind = iota // one result per tuple
	kindTopK                    // encoded rankings every tick
	kindGroupCount              // cumulative (key, count) pairs every tick
	kindDiff                    // one result per closed connection
)

// frame is one pre-built frame of a workload's cyclic pool together with
// the reference model's knowledge of it.
type frame struct {
	raw []byte
	// class selects the sessions whose mirror rules match the frame.
	class uint8
	// tuples is how many tuples each such session's parsers emit for it.
	tuples uint8
	// once marks tuples emitted on the first pool pass only: tls_sni reports
	// a flow's server name once, and the pool reuses its flows.
	once bool
	// late frames are skipped on the first pass: they belong to a webtier
	// connection whose SYN sits later in the pool (the pool is cyclic).
	late bool
	// fin is the connection a webtier FIN closes, -1 for every other frame.
	fin int32
	// key is the URL of an HTTP GET, kept where a reference count needs it.
	key string
}

// querySpec is one query submitted at set-up.
type querySpec struct {
	text    string
	classes []uint8
	kind    kind
	// carrier sessions receive the probes; the probe's latency is taken when
	// the last carrier has delivered it.
	carrier bool
	// counted group-count sessions are compared against the reference
	// counts of class 0 keys (multiquery_overlap's sessions on server A).
	counted bool
}

// plan is a workload instance for one seed: the inputs and the reference
// facts the gates need.
type plan struct {
	frames  []frame
	queries []querySpec

	probes     [][]byte // slot-indexed probe frames; nil when latency is FIN-timed
	probeClass uint8

	clients map[string]int // webtier: client address → index
	conns   int            // webtier: connections in the pool

	churnQuery string
	churnFrame []byte
}

// Workload is one of the benchmark's fixed traffic mixes.
type Workload struct {
	Name string
	Why  string
	// PacedRate is the offered load of the open-loop phases in frames/s. It
	// is a constant, never derived at run time, so a change and its parent
	// are offered the same load: 12–31 % of the closed-loop rate this
	// repository's seed reached on 2 cores, the highest round figure at
	// which ten seeds lost nothing (see README.md for why not 35 %).
	PacedRate int
	build     func(hosts []*topology.Host, rng *rand.Rand, smoke bool) *plan
}

// Workloads lists the benchmark's workloads in their fixed order.
var Workloads = []*Workload{
	{
		Name:      "soak6_passthrough",
		Why:       "six protocols, one passthrough session each, long-lived flows: monitor parse and mq dominate, flow cache always hits, bolts idle; paced at 600k frames/s",
		PacedRate: 600000,
		build:     buildSoak6,
	},
	{
		Name:      "http_topk_zipf",
		Why:       "one hot server, exact top-k over 66k Zipf URLs: stream bolts and their key maps dominate and memory is live; paced at 100k frames/s",
		PacedRate: 100000,
		build:     buildHTTPTopK,
	},
	{
		Name:      "multiquery_overlap",
		Why:       "16 sessions, 8 with one demand on one server: mirror fan-out, rule count, repeated parsing and control-plane set-up dominate; paced at 170k frames/s",
		PacedRate: 170000,
		build:     buildMultiQuery,
	},
	{
		Name:      "webtier_shortflows",
		Why:       "5-frame connections on fresh 5-tuples through a two-parser diff join: flow-cache misses, per-flow parser state, a stateful bolt; paced at 300k frames/s",
		PacedRate: 300000,
		build:     buildWebTier,
	},
}

// WorkloadByName returns the named workload, or nil.
func WorkloadByName(name string) *Workload {
	for _, w := range Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// Host roles on the k=4 fat tree (16 hosts, two per rack, hosts[2r] and
// hosts[2r+1] in rack r). A dedicated monitor lands on the first host of its
// server's rack, and every tap on a host receives every frame mirrored to
// that host, whichever session's rule mirrored it. Sessions with different
// demands therefore get servers in different racks, so that a session's
// expected input is the same whether or not taps are shared: frames matching
// its own query.
func rackHost(hosts []*topology.Host, rack int) *topology.Host { return hosts[2*rack] }

const churnRack = 7

func tcpFrame(b *packet.Builder, src, dst netip.Addr, sport, dport uint16, flags uint8, payload []byte) []byte {
	return b.TCP(packet.TCPSpec{Src: src, Dst: dst, SrcPort: sport, DstPort: dport, Flags: flags, Payload: payload})
}

const pshAck = packet.TCPFlagACK | packet.TCPFlagPSH

// addProbes builds the probe frames from probeHost to server:80 and the
// churn query (a fresh passthrough session on an otherwise idle port).
func (p *plan) addProbes(b *packet.Builder, probeHost, server *topology.Host, class uint8) {
	p.probeClass = class
	p.probes = make([][]byte, probeSlots)
	payload := proto.BuildHTTPGet(probeURL, server.Name)
	for i := range p.probes {
		p.probes[i] = tcpFrame(b, probeHost.Addr, server.Addr, uint16(probePortBase+i), 80, pshAck, payload)
	}
}

func (p *plan) addChurn(b *packet.Builder, hosts []*topology.Host, client *topology.Host) {
	h := rackHost(hosts, churnRack)
	p.churnQuery = fmt.Sprintf("PARSE http_get FROM * TO %s:7070 PROCESS (passthrough)", h.Name)
	p.churnFrame = tcpFrame(b, client.Addr, h.Addr, 30000, 7070, pshAck, proto.BuildHTTPGet("/churn", h.Name))
}

// buildSoak6 is ROADMAP's canonical mix: one passthrough session per
// protocol, Zipf(1.2) keys over 64 values, 256 long-lived flows per protocol
// (tls_sni: 1024, each reporting once), request/reply protocols interleaved
// so the pairing parsers emit.
func buildSoak6(hosts []*topology.Host, rng *rand.Rand, smoke bool) *plan {
	var b packet.Builder
	zipf := rand.NewZipf(rng, 1.2, 1, 63)
	key := func() int { return int(zipf.Uint64()) }
	protos := []struct {
		parser string
		port   uint16
	}{
		{"http_get", 80}, {"memcached_get", 11211}, {"mysql_query", 3306},
		{"resp_command", 6379}, {"dns_query", 53}, {"tls_sni", 443},
	}
	clients := []*topology.Host{hosts[1], hosts[3], hosts[5], hosts[7], hosts[9], hosts[11], hosts[12], hosts[13]}
	probeHost := hosts[15]
	p := &plan{}
	for i, pr := range protos {
		srv := rackHost(hosts, i)
		q := querySpec{
			text:    fmt.Sprintf("PARSE %s FROM * TO %s:%d PROCESS (passthrough)", pr.parser, srv.Name, pr.port),
			classes: []uint8{uint8(i)},
		}
		if i == 0 {
			q.classes = append(q.classes, uint8(len(protos)))
			q.carrier = true
		}
		p.queries = append(p.queries, q)
	}
	units := 4096
	if smoke {
		units = 1024
	}
	const flows, tlsFlows = 256, 1024
	for u := 0; u < units; u++ {
		for i, pr := range protos {
			srv := rackHost(hosts, i)
			cl := clients[u%len(clients)]
			sport := uint16(20000 + u%flows)
			c := uint8(i)
			switch pr.parser {
			case "http_get":
				p.frames = append(p.frames, frame{class: c, tuples: 1, fin: -1,
					raw: tcpFrame(&b, cl.Addr, srv.Addr, sport, pr.port, pshAck, proto.BuildHTTPGet(fmt.Sprintf("/z%02d", key()), srv.Name))})
			case "memcached_get":
				p.frames = append(p.frames, frame{class: c, tuples: 1, fin: -1,
					raw: tcpFrame(&b, cl.Addr, srv.Addr, sport, pr.port, pshAck, proto.BuildMemcachedGet(fmt.Sprintf("obj:%02d", key())))})
			case "mysql_query":
				p.frames = append(p.frames,
					frame{class: c, fin: -1, raw: tcpFrame(&b, cl.Addr, srv.Addr, sport, pr.port, pshAck,
						proto.BuildMySQLQuery(0, fmt.Sprintf("SELECT v FROM t WHERE id=%d", key())))},
					frame{class: c, tuples: 1, fin: -1, raw: tcpFrame(&b, srv.Addr, cl.Addr, pr.port, sport, pshAck, proto.BuildMySQLOK(1, nil))})
			case "resp_command":
				p.frames = append(p.frames,
					frame{class: c, fin: -1, raw: tcpFrame(&b, cl.Addr, srv.Addr, sport, pr.port, pshAck,
						proto.BuildRESPCommand("GET", fmt.Sprintf("key:%02d", key())))},
					frame{class: c, tuples: 1, fin: -1, raw: tcpFrame(&b, srv.Addr, cl.Addr, pr.port, sport, pshAck, proto.BuildRESPBulk([]byte("v")))})
			case "dns_query":
				p.frames = append(p.frames, frame{class: c, tuples: 1, fin: -1,
					raw: b.UDP(packet.UDPSpec{Src: cl.Addr, Dst: srv.Addr, SrcPort: sport, DstPort: pr.port,
						Payload: proto.BuildDNSQuery(uint16(u), fmt.Sprintf("h%02d.example.com", key()), proto.DNSTypeA)})})
			case "tls_sni":
				// The flow's first hello in the pool is the one reported.
				f := frame{class: c, fin: -1, raw: tcpFrame(&b, cl.Addr, srv.Addr, uint16(20000+u%tlsFlows), pr.port, pshAck,
					proto.BuildTLSClientHello(fmt.Sprintf("svc-%02d.example.com", key())))}
				if u < tlsFlows {
					f.tuples, f.once = 1, true
				}
				p.frames = append(p.frames, f)
			}
		}
	}
	p.addProbes(&b, probeHost, rackHost(hosts, 0), uint8(len(protos)))
	p.addChurn(&b, hosts, clients[0])
	return p
}

// buildHTTPTopK is one hot server under an exact top-k, its 2^17 URLs drawn
// from workload.ZipfURLs (s=1.03 over 2^30 ranks) so that the pool holds
// about 66k distinct keys, over 4096 flows. Twice the pool (124k keys) is
// what issue 15 asked for, but there the closed-loop rate of one seed ranged
// from 390k to 645k frames/s over six back-to-back runs, and no bound holds
// that; probes ride a passthrough session of their own, anchored in the
// probe host's rack (FROM probe TO *:80) so its monitor is not the top-k's.
func buildHTTPTopK(hosts []*topology.Host, rng *rand.Rand, smoke bool) *plan {
	var b packet.Builder
	srv := rackHost(hosts, 5)
	probeHost := hosts[1]
	clients := []*topology.Host{hosts[2], hosts[3], hosts[4], hosts[5], hosts[6], hosts[7], hosts[8], hosts[9], hosts[12], hosts[13]}
	urls := workload.NewZipfURLs(1<<30, 1.03, uint64(rng.Int63()), rng)
	n := 1 << 17
	if smoke {
		n = 1 << 13
	}
	const flows = 4096
	p := &plan{frames: make([]frame, n)}
	for i := range p.frames {
		url := urls.Next()
		fl := i % flows
		cl := clients[fl%len(clients)]
		p.frames[i] = frame{class: 0, tuples: 1, fin: -1, key: url,
			raw: tcpFrame(&b, cl.Addr, srv.Addr, uint16(20000+fl/len(clients)), 80, pshAck, proto.BuildHTTPGet(url, srv.Name))}
	}
	p.queries = []querySpec{
		{text: fmt.Sprintf("PARSE http_get FROM * TO %s:80 PROCESS (top-k: k=10, w=1s)", srv.Name), classes: []uint8{0, 1}, kind: kindTopK},
		{text: fmt.Sprintf("PARSE http_get FROM %s TO *:80 PROCESS (passthrough)", probeHost.Name), classes: []uint8{1}, carrier: true},
	}
	p.addProbes(&b, probeHost, srv, 1)
	p.addChurn(&b, hosts, clients[0])
	return p
}

// buildMultiQuery is 16 sessions: 8 with the identical demand on server A
// (4 passthrough, 4 group-count) and 8 passthrough sessions over six other
// servers (two of them subscribed twice), http_get traffic spread evenly
// over the 7 servers. The fat tree has 8 racks and one is the churn port's,
// which is why there are 7 servers and not 9.
func buildMultiQuery(hosts []*topology.Host, rng *rand.Rand, smoke bool) *plan {
	var b packet.Builder
	const servers = 7
	zipf := rand.NewZipf(rng, 1.2, 1, 63)
	clients := []*topology.Host{hosts[1], hosts[3], hosts[5], hosts[7], hosts[9], hosts[11], hosts[13]}
	probeHost := hosts[15]
	p := &plan{}
	a := rackHost(hosts, 0)
	for i := 0; i < 8; i++ {
		q := querySpec{classes: []uint8{0, servers}}
		if i < 4 {
			q.text = fmt.Sprintf("PARSE http_get FROM * TO %s:80 PROCESS (passthrough)", a.Name)
			q.carrier = true
		} else {
			q.text = fmt.Sprintf("PARSE http_get FROM * TO %s:80 PROCESS (group-count: group=key)", a.Name)
			q.kind, q.counted = kindGroupCount, true
		}
		p.queries = append(p.queries, q)
	}
	for i := 0; i < 8; i++ {
		rack := 1 + i%(servers-1)
		p.queries = append(p.queries, querySpec{
			text:    fmt.Sprintf("PARSE http_get FROM * TO %s:80 PROCESS (passthrough)", rackHost(hosts, rack).Name),
			classes: []uint8{uint8(rack)},
		})
	}
	units := 4096
	if smoke {
		units = 512
	}
	const flows = 256
	for u := 0; u < units; u++ {
		for s := 0; s < servers; s++ {
			srv := rackHost(hosts, s)
			url := fmt.Sprintf("/z%02d", zipf.Uint64())
			fl := u % flows
			f := frame{class: uint8(s), tuples: 1, fin: -1,
				raw: tcpFrame(&b, clients[fl%len(clients)].Addr, srv.Addr, uint16(20000+fl), 80, pshAck, proto.BuildHTTPGet(url, srv.Name))}
			if s == 0 {
				f.key = url
			}
			p.frames = append(p.frames, f)
		}
	}
	p.addProbes(&b, probeHost, a, servers)
	p.addChurn(&b, hosts, clients[0])
	return p
}

// webStagger is how many connections start between two consecutive frames
// of one connection, so 4*webStagger connections are open at any time.
const webStagger = 256

// buildWebTier is the §7.1 use-case query over short connections: SYN,
// SYN-ACK, GET, 200, FIN, each connection on a 5-tuple of its own, more
// connections than the flow cache has entries. Round r of the cyclic pool
// carries stage s of connection r-s*webStagger.
func buildWebTier(hosts []*topology.Host, rng *rand.Rand, smoke bool) *plan {
	var b packet.Builder
	web := rackHost(hosts, 0)
	var clients []*topology.Host
	for _, h := range hosts[2:] {
		if h != rackHost(hosts, churnRack) {
			clients = append(clients, h)
		}
	}
	conns := 1 << 14
	if smoke {
		conns = 1 << 11
	}
	zipf := rand.NewZipf(rng, 1.2, 1, 63)
	p := &plan{conns: conns, clients: make(map[string]int, len(clients))}
	for i, c := range clients {
		p.clients[c.Addr.String()] = i
	}
	resp := proto.BuildHTTPResponse(200, []byte("ok"))
	stages := make([][5][]byte, conns)
	for i := range stages {
		cl := clients[i%len(clients)].Addr
		sport := uint16(1024 + i/len(clients))
		get := proto.BuildHTTPGet(fmt.Sprintf("/z%02d", zipf.Uint64()), web.Name)
		stages[i] = [5][]byte{
			tcpFrame(&b, cl, web.Addr, sport, 80, packet.TCPFlagSYN, nil),
			tcpFrame(&b, web.Addr, cl, 80, sport, packet.TCPFlagSYN|packet.TCPFlagACK, nil),
			tcpFrame(&b, cl, web.Addr, sport, 80, pshAck, get),
			tcpFrame(&b, web.Addr, cl, 80, sport, pshAck, resp),
			tcpFrame(&b, cl, web.Addr, sport, 80, packet.TCPFlagFIN|packet.TCPFlagACK, nil),
		}
	}
	// tcp_conn_time reports SYN and FIN, http_get the request and the reply.
	tuples := [5]uint8{1, 0, 1, 1, 1}
	p.frames = make([]frame, 0, 5*conns)
	for r := 0; r < conns; r++ {
		for s := 0; s < 5; s++ {
			c := ((r-s*webStagger)%conns + conns) % conns
			f := frame{class: 0, tuples: tuples[s], fin: -1, late: r < s*webStagger, raw: stages[c][s]}
			if s == 4 {
				f.fin = int32(c)
			}
			p.frames = append(p.frames, f)
		}
	}
	p.queries = []querySpec{{
		text:    fmt.Sprintf("PARSE tcp_conn_time, http_get FROM * TO %s:80 PROCESS (diff)", web.Name),
		classes: []uint8{0}, kind: kindDiff,
	}}
	p.addChurn(&b, hosts, clients[0])
	return p
}

// connOf maps a diff result back to its connection (see buildWebTier's
// client and port assignment); -1 when it names no connection of the pool.
func (p *plan) connOf(srcIP string, sport uint16) int {
	ci, ok := p.clients[srcIP]
	if !ok || sport < 1024 {
		return -1
	}
	c := int(sport-1024)*len(p.clients) + ci
	if c >= p.conns {
		return -1
	}
	return c
}
