// Package stream implements the real-time analytics engine of §3.2 and §5.3,
// modeled on Apache Storm: a topology is a DAG of spouts (data sources) and
// bolts (processors) connected by groupings, executed by a pool of task
// goroutines per node. Fields grouping hashes a tuple attribute so that all
// tuples sharing a key reach the same task — the property the paper's
// counting bolts rely on — while shuffle grouping balances load and global
// grouping funnels everything into a single task (the final ranking reducer).
//
// The executor is batch-vectorized: task input queues carry []tuple.Tuple,
// emitters scatter tuples into per-route per-task sub-batch buffers, and one
// channel send moves a whole sub-batch, so per-tuple synchronization
// amortizes over the batch size. Latency stays bounded at low rates by the
// flush policy: a sub-batch flushes when full, when its task is about to
// block on input, on every tick, and at task exit.
package stream

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netalytics/internal/telemetry"
	"netalytics/internal/tuple"
)

// DefaultTickInterval is how often bolts with windowed state advance.
const DefaultTickInterval = 100 * time.Millisecond

// DefaultQueueDepth bounds each task's input queue (in batches).
const DefaultQueueDepth = 1024

// DefaultBatchSize is the sub-batch size: how many tuples ride one channel
// send between tasks. 32 matches the monitor burst size — past it the sends
// are already amortized while queueing latency keeps growing.
const DefaultBatchSize = 32

// spoutWaitQuantum bounds how long a WaitSpout parks per NextWait call before
// the executor polls it again, for sources whose data can become visible
// without a wake-up (an mq partition returning from a fault). Stop does not
// wait for it: NextWait also returns when the executor's stop channel closes.
const spoutWaitQuantum = 20 * time.Millisecond

// Engine errors.
var (
	ErrCycle        = errors.New("stream: topology has a cycle")
	ErrUnknownNode  = errors.New("stream: unknown upstream node")
	ErrDuplicate    = errors.New("stream: duplicate node name")
	ErrEmptyTopo    = errors.New("stream: topology has no spouts")
	ErrNotConnected = errors.New("stream: bolt has no inputs")
)

// EmitFunc forwards a tuple to the downstream bolts of the emitting node.
type EmitFunc func(t tuple.Tuple)

// Spout is a data source. Next returns the next available tuples, or nil
// when none are ready (the executor backs off before retrying). The executor
// has copied the tuples out of the returned slice by the time it calls the
// spout again, so a spout may reuse one slice for every call.
type Spout interface {
	Next() []tuple.Tuple
}

// WaitSpout is an optional spout extension for sources that can block until
// data arrives (mq-backed spouts use Consumer.PollWait). When Next returns
// nothing the executor parks in NextWait instead of sleep-retrying, so idle
// topologies stop burning periodic wakeups. NextWait must return — possibly
// with no tuples — within roughly the given timeout, and at once when stop
// is closed (the executor is stopping).
type WaitSpout interface {
	Spout
	NextWait(stop <-chan struct{}, timeout time.Duration) []tuple.Tuple
}

// SpoutFunc adapts a function to the Spout interface.
type SpoutFunc func() []tuple.Tuple

// Next implements Spout.
func (f SpoutFunc) Next() []tuple.Tuple { return f() }

// Bolt processes tuples. Instances are per task, so implementations may keep
// state without locking.
type Bolt interface {
	Execute(t tuple.Tuple, emit EmitFunc)
}

// BatchBolt is an optional bolt fast path: the executor hands over whole
// sub-batches as they arrive instead of unrolling to per-tuple Execute
// calls. The slice belongs to the executor and is recycled as soon as
// ExecuteBatch returns — implementations must not retain it (copy tuples
// out if they need them later).
type BatchBolt interface {
	Bolt
	ExecuteBatch(ts []tuple.Tuple, emit EmitFunc)
}

// Ticker is implemented by bolts with windowed state that advances on the
// executor's tick interval (rolling counters, rankers).
type Ticker interface {
	Tick(emit EmitFunc)
}

// Cleaner is implemented by bolts that must flush state at shutdown.
type Cleaner interface {
	Cleanup(emit EmitFunc)
}

// BoltFunc adapts a function to the Bolt interface.
type BoltFunc func(t tuple.Tuple, emit EmitFunc)

// Execute implements Bolt.
func (f BoltFunc) Execute(t tuple.Tuple, emit EmitFunc) { f(t, emit) }

// Grouping selects how tuples from an upstream node are distributed across a
// bolt's tasks.
type Grouping int

// Supported groupings.
const (
	// Shuffle distributes tuples round-robin.
	Shuffle Grouping = iota + 1
	// Fields routes tuples by hashing an attribute, so equal keys reach
	// the same task.
	Fields
	// Global routes every tuple to task 0.
	Global
)

type edge struct {
	from     string
	grouping Grouping
	field    string // attribute name for Fields ("" = Key)
}

type nodeDecl struct {
	name         string
	parallelism  int
	spoutFactory func() Spout
	boltFactory  func() Bolt
	inputs       []edge
}

// Topology declares a DAG of spouts and bolts.
type Topology struct {
	name  string
	nodes map[string]*nodeDecl
	order []string
}

// NewTopology creates an empty topology.
func NewTopology(name string) *Topology {
	return &Topology{name: name, nodes: make(map[string]*nodeDecl)}
}

// Name returns the topology name.
func (t *Topology) Name() string { return t.name }

// AddSpout declares a spout with the given parallelism (min 1). The factory
// is invoked once per task.
func (t *Topology) AddSpout(name string, factory func() Spout, parallelism int) error {
	if _, dup := t.nodes[name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicate, name)
	}
	if parallelism < 1 {
		parallelism = 1
	}
	t.nodes[name] = &nodeDecl{name: name, parallelism: parallelism, spoutFactory: factory}
	t.order = append(t.order, name)
	return nil
}

// BoltBuilder connects a declared bolt to its inputs.
type BoltBuilder struct {
	topo *Topology
	node *nodeDecl
	err  error
}

// AddBolt declares a bolt with the given parallelism (min 1).
func (t *Topology) AddBolt(name string, factory func() Bolt, parallelism int) *BoltBuilder {
	if _, dup := t.nodes[name]; dup {
		return &BoltBuilder{err: fmt.Errorf("%w: %q", ErrDuplicate, name)}
	}
	if parallelism < 1 {
		parallelism = 1
	}
	n := &nodeDecl{name: name, parallelism: parallelism, boltFactory: factory}
	t.nodes[name] = n
	t.order = append(t.order, name)
	return &BoltBuilder{topo: t, node: n}
}

// ShuffleFrom subscribes the bolt to an upstream node with shuffle grouping.
func (b *BoltBuilder) ShuffleFrom(from string) *BoltBuilder {
	return b.subscribe(from, Shuffle, "")
}

// FieldsFrom subscribes with fields grouping on the given attribute
// ("" groups by Key).
func (b *BoltBuilder) FieldsFrom(from, field string) *BoltBuilder {
	return b.subscribe(from, Fields, field)
}

// GlobalFrom subscribes with global grouping.
func (b *BoltBuilder) GlobalFrom(from string) *BoltBuilder {
	return b.subscribe(from, Global, "")
}

func (b *BoltBuilder) subscribe(from string, g Grouping, field string) *BoltBuilder {
	if b.err != nil {
		return b
	}
	b.node.inputs = append(b.node.inputs, edge{from: from, grouping: g, field: field})
	return b
}

// Err returns any error accumulated while building.
func (b *BoltBuilder) Err() error { return b.err }

// validate checks the topology is a connected DAG.
func (t *Topology) validate() error {
	hasSpout := false
	for _, n := range t.nodes {
		if n.spoutFactory != nil {
			hasSpout = true
		}
		if n.boltFactory != nil && len(n.inputs) == 0 {
			return fmt.Errorf("%w: %q", ErrNotConnected, n.name)
		}
		for _, in := range n.inputs {
			if _, ok := t.nodes[in.from]; !ok {
				return fmt.Errorf("%w: %q <- %q", ErrUnknownNode, n.name, in.from)
			}
		}
	}
	if !hasSpout {
		return ErrEmptyTopo
	}
	// Kahn's algorithm for cycle detection.
	indeg := make(map[string]int, len(t.nodes))
	down := make(map[string][]string, len(t.nodes))
	for _, n := range t.nodes {
		indeg[n.name] += 0
		for _, in := range n.inputs {
			indeg[n.name]++
			down[in.from] = append(down[in.from], n.name)
		}
	}
	queue := make([]string, 0, len(t.nodes))
	for name, d := range indeg {
		if d == 0 {
			queue = append(queue, name)
		}
	}
	seen := 0
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		seen++
		for _, next := range down[name] {
			indeg[next]--
			if indeg[next] == 0 {
				queue = append(queue, next)
			}
		}
	}
	if seen != len(t.nodes) {
		return ErrCycle
	}
	return nil
}

// ExecutorOption customizes an Executor.
type ExecutorOption func(*Executor)

// WithTickInterval overrides the window-advance interval.
func WithTickInterval(d time.Duration) ExecutorOption {
	return func(e *Executor) {
		if d > 0 {
			e.tickInterval = d
		}
	}
}

// WithQueueDepth overrides each task's input queue depth (in batches).
func WithQueueDepth(n int) ExecutorOption {
	return func(e *Executor) {
		if n > 0 {
			e.queueDepth = n
		}
	}
}

// WithBatchSize overrides the sub-batch size — how many tuples one channel
// send carries between tasks. 1 disables batching (every tuple is its own
// send, the pre-vectorization behavior); values ≤ 0 keep the default.
func WithBatchSize(n int) ExecutorOption {
	return func(e *Executor) {
		if n > 0 {
			e.batchSize = n
		}
	}
}

// WithMetrics registers the executor's instruments — currently the
// stream_batch_len histogram of flushed sub-batch sizes — on a telemetry
// registry under the given labels.
func WithMetrics(reg *telemetry.Registry, labels ...telemetry.Label) ExecutorOption {
	return func(e *Executor) {
		e.batchLen = reg.Histogram("stream_batch_len", labels...)
	}
}

// Executor runs a topology: one goroutine per task.
type Executor struct {
	topo         *Topology
	tickInterval time.Duration
	queueDepth   int
	batchSize    int

	queues  map[string][]chan []tuple.Tuple
	pending map[string]*atomic.Int32 // upstream tasks still running
	counts  map[string]*atomic.Uint64

	inflight atomic.Int64         // tuples sent downstream, not yet executed
	bufPool  sync.Pool            // *[]tuple.Tuple, cap batchSize
	batchLen *telemetry.Histogram // flushed sub-batch sizes

	spoutStop chan struct{}
	wg        sync.WaitGroup
	started   bool
	stopped   bool
	mu        sync.Mutex
}

// NewExecutor validates the topology and prepares an executor.
func NewExecutor(t *Topology, opts ...ExecutorOption) (*Executor, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	e := &Executor{
		topo:         t,
		tickInterval: DefaultTickInterval,
		queueDepth:   DefaultQueueDepth,
		batchSize:    DefaultBatchSize,
		queues:       make(map[string][]chan []tuple.Tuple),
		pending:      make(map[string]*atomic.Int32),
		counts:       make(map[string]*atomic.Uint64),
		spoutStop:    make(chan struct{}),
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.batchLen == nil {
		e.batchLen = &telemetry.Histogram{} // unregistered, still observable
	}
	size := e.batchSize
	e.bufPool.New = func() any {
		b := make([]tuple.Tuple, 0, size)
		return &b
	}
	for _, name := range t.order {
		n := t.nodes[name]
		e.counts[name] = &atomic.Uint64{}
		if n.boltFactory == nil {
			continue
		}
		chans := make([]chan []tuple.Tuple, n.parallelism)
		for i := range chans {
			chans[i] = make(chan []tuple.Tuple, e.queueDepth)
		}
		e.queues[name] = chans
		p := &atomic.Int32{}
		for _, in := range n.inputs {
			p.Add(int32(t.nodes[in.from].parallelism))
		}
		e.pending[name] = p
	}
	return e, nil
}

// TaskCount returns the total number of task goroutines the executor runs —
// the paper's "#processes" unit for the analytics layer.
func (e *Executor) TaskCount() int {
	n := 0
	for _, node := range e.topo.nodes {
		n += node.parallelism
	}
	return n
}

// Nodes returns the topology's node names in declaration order — spouts
// first, then bolts — so callers can introspect which pipeline variant a
// query compiled to (e.g. the sketch merge stage vs the exact rank stage).
func (e *Executor) Nodes() []string {
	return append([]string(nil), e.topo.order...)
}

// QueueLag returns the number of tuples in flight inside the executor:
// emitted into a downstream task queue (or being executed right now) but
// not yet fully processed. Counting tuples rather than channel occupancy
// keeps the gauge's meaning independent of the batch size.
func (e *Executor) QueueLag() int {
	n := e.inflight.Load()
	if n < 0 {
		n = 0
	}
	return int(n)
}

// Processed returns how many tuples each node has handled (spouts: emitted).
func (e *Executor) Processed(node string) uint64 {
	c, ok := e.counts[node]
	if !ok {
		return 0
	}
	return c.Load()
}

// Start launches all tasks.
func (e *Executor) Start() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return
	}
	e.started = true

	for _, name := range e.topo.order {
		n := e.topo.nodes[name]
		for i := 0; i < n.parallelism; i++ {
			if n.spoutFactory != nil {
				spout := n.spoutFactory()
				e.wg.Add(1)
				go e.runSpout(n, spout, e.newEmitter(n))
			} else {
				bolt := n.boltFactory()
				e.wg.Add(1)
				go e.runBolt(n, i, bolt, e.newEmitter(n))
			}
		}
	}
}

// Stop halts the spouts, lets every queued tuple drain through the DAG,
// flushes windowed bolt state, and waits for all tasks to exit.
func (e *Executor) Stop() {
	e.mu.Lock()
	if !e.started || e.stopped {
		e.mu.Unlock()
		return
	}
	e.stopped = true
	e.mu.Unlock()

	close(e.spoutStop)
	e.wg.Wait()
}

func (e *Executor) getBuf() []tuple.Tuple {
	return (*e.bufPool.Get().(*[]tuple.Tuple))[:0]
}

func (e *Executor) putBuf(b []tuple.Tuple) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	e.bufPool.Put(&b)
}

// routeState is one downstream subscription of an emitting task: the target
// channels, the grouping that picks among them, and a sub-batch buffer per
// target task. rr and bufs are task-local (each task owns its emitter), so
// no locking is needed.
type routeState struct {
	chans    []chan []tuple.Tuple
	grouping Grouping
	field    string
	rr       uint64
	bufs     [][]tuple.Tuple
}

// emitter is the batched routing state for one task. Tuples scatter into
// per-route, per-task sub-batch buffers; each buffer is flushed as a single
// channel send when it reaches the batch size, when the owning task is
// about to block, on tick, and at task exit.
type emitter struct {
	ex     *Executor
	count  *atomic.Uint64
	routes []*routeState
}

// newEmitter builds the routing state for one task of node n.
func (e *Executor) newEmitter(n *nodeDecl) *emitter {
	em := &emitter{ex: e, count: e.counts[n.name]}
	for _, name := range e.topo.order {
		down := e.topo.nodes[name]
		for _, in := range down.inputs {
			if in.from != n.name {
				continue
			}
			em.routes = append(em.routes, &routeState{
				chans:    e.queues[down.name],
				grouping: in.grouping,
				field:    in.field,
				bufs:     make([][]tuple.Tuple, len(e.queues[down.name])),
			})
		}
	}
	return em
}

// emit routes a single tuple — the EmitFunc handed to bolts and spouts.
func (em *emitter) emit(t tuple.Tuple) {
	em.count.Add(1)
	for _, r := range em.routes {
		var idx int
		switch r.grouping {
		case Fields:
			idx = int(fieldHash(&t, r.field) % uint64(len(r.chans)))
		case Global:
			idx = 0
		default:
			idx = int(r.rr % uint64(len(r.chans)))
			r.rr++
		}
		em.push(r, idx, t)
	}
}

// emitBatch scatters a whole tuple batch. Routing runs batch-at-a-time —
// the grouping switch is hoisted out of the per-tuple loop — and produces
// the same per-task tuple sequences as per-tuple emit: tuples are visited
// in emission order within each route, so the round-robin counter and the
// per-task buffers advance identically.
func (em *emitter) emitBatch(ts []tuple.Tuple) {
	if len(ts) == 0 {
		return
	}
	em.count.Add(uint64(len(ts)))
	for _, r := range em.routes {
		switch r.grouping {
		case Fields:
			n := uint64(len(r.chans))
			for i := range ts {
				em.push(r, int(fieldHash(&ts[i], r.field)%n), ts[i])
			}
		case Global:
			for i := range ts {
				em.push(r, 0, ts[i])
			}
		default:
			n := uint64(len(r.chans))
			for i := range ts {
				em.push(r, int(r.rr%n), ts[i])
				r.rr++
			}
		}
	}
}

// push appends a tuple to a route's sub-batch buffer, flushing the buffer
// downstream when it reaches the batch size.
func (em *emitter) push(r *routeState, idx int, t tuple.Tuple) {
	buf := r.bufs[idx]
	if buf == nil {
		buf = em.ex.getBuf()
	}
	buf = append(buf, t)
	if len(buf) >= em.ex.batchSize {
		r.bufs[idx] = nil
		em.send(r.chans[idx], buf)
		return
	}
	r.bufs[idx] = buf
}

func (em *emitter) send(ch chan []tuple.Tuple, buf []tuple.Tuple) {
	em.ex.inflight.Add(int64(len(buf)))
	em.ex.batchLen.Observe(int64(len(buf)))
	ch <- buf
}

// flush sends every partially filled sub-batch buffer downstream.
func (em *emitter) flush() {
	for _, r := range em.routes {
		for idx, buf := range r.bufs {
			if len(buf) > 0 {
				r.bufs[idx] = nil
				em.send(r.chans[idx], buf)
			}
		}
	}
}

// fieldHash hashes the routing key with inline FNV-1a — bit-identical to
// hash/fnv's Sum64a but with no hasher allocation and no string→[]byte
// copy, so fields routing costs zero allocations per tuple.
func fieldHash(t *tuple.Tuple, field string) uint64 {
	key := t.Key
	if field != "" {
		key = t.Attr(field)
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

func (e *Executor) runSpout(n *nodeDecl, spout Spout, em *emitter) {
	defer e.wg.Done()
	// LIFO: flush residual sub-batches first, then cascade completion.
	defer e.taskFinished(n)
	defer em.flush()
	ws, canWait := spout.(WaitSpout)
	idle := 0
	for {
		select {
		case <-e.spoutStop:
			return
		default:
		}
		batch := spout.Next()
		if len(batch) > 0 {
			em.emitBatch(batch)
			idle = 0
			continue
		}
		// The source is idle: flush residual sub-batches so a trickle of
		// tuples doesn't wait on a buffer filling, then back off — spin,
		// then short growing sleeps, or the spout's own blocking wait.
		em.flush()
		if canWait {
			if batch := ws.NextWait(e.spoutStop, spoutWaitQuantum); len(batch) > 0 {
				em.emitBatch(batch)
				idle = 0
			}
			continue
		}
		idle++
		if idle <= 4 {
			runtime.Gosched()
			continue
		}
		d := time.Duration(idle-4) * 50 * time.Microsecond
		if d > time.Millisecond {
			d = time.Millisecond
		}
		select {
		case <-e.spoutStop:
			return
		case <-time.After(d):
		}
	}
}

func (e *Executor) runBolt(n *nodeDecl, idx int, bolt Bolt, em *emitter) {
	defer e.wg.Done()
	in := e.queues[n.name][idx]
	ticker := time.NewTicker(e.tickInterval)
	defer ticker.Stop()
	// Bind the method value once: evaluating em.emit allocates a closure,
	// which must not happen per tuple on the Execute fallback path.
	emit := EmitFunc(em.emit)
	bb, isBatch := bolt.(BatchBolt)
	exec := func(batch []tuple.Tuple) {
		if isBatch {
			bb.ExecuteBatch(batch, emit)
		} else {
			for i := range batch {
				bolt.Execute(batch[i], emit)
			}
		}
		e.inflight.Add(int64(-len(batch)))
		e.putBuf(batch)
	}
	cleanup := func() {
		if c, isCleaner := bolt.(Cleaner); isCleaner {
			c.Cleanup(emit)
		}
		em.flush()
		e.taskFinished(n)
	}
	tick := func() {
		if tk, isTicker := bolt.(Ticker); isTicker {
			tk.Tick(emit)
		}
		em.flush()
	}
	for {
		// Fast path: drain whatever is queued without flushing, but keep
		// serving ticks so windows still advance under sustained load.
		select {
		case batch, ok := <-in:
			if !ok {
				cleanup()
				return
			}
			exec(batch)
			select {
			case <-ticker.C:
				tick()
			default:
			}
			continue
		default:
		}
		// About to block: flush this task's own residual sub-batches so
		// downstream sees them before the pipeline goes quiet.
		em.flush()
		select {
		case batch, ok := <-in:
			if !ok {
				cleanup()
				return
			}
			exec(batch)
		case <-ticker.C:
			tick()
		}
	}
}

// taskFinished propagates completion downstream: when the last upstream task
// of a bolt exits, the bolt's input queues are closed so it can drain and
// clean up.
func (e *Executor) taskFinished(n *nodeDecl) {
	for _, name := range e.topo.order {
		down := e.topo.nodes[name]
		feeds := 0
		for _, in := range down.inputs {
			if in.from == n.name {
				feeds++
			}
		}
		if feeds == 0 {
			continue
		}
		if e.pending[down.name].Add(int32(-feeds)) == 0 {
			for _, ch := range e.queues[down.name] {
				close(ch)
			}
		}
	}
}
