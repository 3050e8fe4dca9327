package mq

import (
	"errors"
	"sync"
	"testing"
	"time"

	"netalytics/internal/telemetry"
	"netalytics/internal/tuple"
)

func batchOf(n int) *tuple.Batch {
	b := &tuple.Batch{Parser: "p"}
	for i := 0; i < n; i++ {
		b.Tuples = append(b.Tuples, tuple.Tuple{FlowID: uint64(i), Key: "/url"})
	}
	return b
}

func TestProduceConsume(t *testing.T) {
	c := NewCluster(2, Config{Partitions: 3})
	prod := c.Producer("http_get")
	cons := c.Consumer("http_get")

	for i := 0; i < 10; i++ {
		if err := prod.Send(batchOf(2)); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	var got int
	for {
		bs := cons.Poll(4)
		if len(bs) == 0 {
			break
		}
		got += len(bs)
	}
	if got != 10 {
		t.Errorf("consumed %d batches, want 10", got)
	}
	st := c.Stats("http_get")
	if st.Appended != 10 || st.Consumed != 10 || st.Buffered != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Bytes == 0 {
		t.Error("no bytes accounted")
	}
}

func TestTopicsAndUnknownStats(t *testing.T) {
	c := NewCluster(1, Config{})
	c.Producer("a")
	c.Producer("b")
	c.Producer("a") // same topic reused
	if got := len(c.Topics()); got != 2 {
		t.Errorf("Topics = %v", c.Topics())
	}
	if st := c.Stats("missing"); st != (TopicStats{}) {
		t.Errorf("unknown topic stats = %+v", st)
	}
}

func TestBufferFull(t *testing.T) {
	c := NewCluster(1, Config{Partitions: 1, BufferBatches: 4})
	prod := c.Producer("t")
	for i := 0; i < 4; i++ {
		if err := prod.Send(batchOf(1)); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	if err := prod.Send(batchOf(1)); !errors.Is(err, ErrBufferFull) {
		t.Errorf("err = %v, want ErrBufferFull", err)
	}
	st := c.Stats("t")
	if st.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", st.Dropped)
	}
	if st.Occupancy != 1 {
		t.Errorf("Occupancy = %v, want 1", st.Occupancy)
	}
}

func TestConsumerGroupSemantics(t *testing.T) {
	// Two consumers of one topic each receive a disjoint subset.
	c := NewCluster(1, Config{Partitions: 2})
	prod := c.Producer("t")
	const n = 40
	for i := 0; i < n; i++ {
		if err := prod.Send(batchOf(1)); err != nil {
			t.Fatal(err)
		}
	}
	c1 := c.Consumer("t")
	c2 := c.Consumer("t")
	total := len(c1.Poll(n)) + len(c2.Poll(n))
	if total != n {
		t.Errorf("both consumers saw %d batches total, want %d", total, n)
	}
}

func TestConsumerGroupsFanOut(t *testing.T) {
	// Two groups each receive the full stream; consumers within one group
	// split it.
	c := NewCluster(1, Config{Partitions: 2})
	prod := c.Producer("t")
	gA := c.GroupConsumer("t", "alpha")
	gB1 := c.GroupConsumer("t", "beta")
	gB2 := c.GroupConsumer("t", "beta")

	const n = 30
	for i := 0; i < n; i++ {
		if err := prod.Send(batchOf(1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(gA.Poll(n * 2)); got != n {
		t.Errorf("group alpha received %d batches, want %d", got, n)
	}
	betaTotal := len(gB1.Poll(n*2)) + len(gB2.Poll(n*2))
	if betaTotal != n {
		t.Errorf("group beta received %d batches total, want %d", betaTotal, n)
	}
	// Everything consumed by both groups: the log is trimmed.
	if st := c.Stats("t"); st.Buffered != 0 {
		t.Errorf("Buffered = %d after both groups drained", st.Buffered)
	}
}

func TestRetentionWaitsForSlowestGroup(t *testing.T) {
	c := NewCluster(1, Config{Partitions: 1, BufferBatches: 8})
	prod := c.Producer("t")
	fast := c.GroupConsumer("t", "fast")
	_ = c.GroupConsumer("t", "slow") // registered but never polls

	for i := 0; i < 8; i++ {
		if err := prod.Send(batchOf(1)); err != nil {
			t.Fatal(err)
		}
	}
	// Fast drains, slow does not: records stay retained and the partition
	// stays full for the slow group.
	if got := len(fast.Poll(16)); got != 8 {
		t.Fatalf("fast group got %d", got)
	}
	if st := c.Stats("t"); st.Buffered != 8 {
		t.Errorf("Buffered = %d, want 8 (slow group unconsumed)", st.Buffered)
	}
	if err := prod.Send(batchOf(1)); !errors.Is(err, ErrBufferFull) {
		t.Errorf("append despite slow group backlog: %v", err)
	}
	// A new group attaching now replays the retained history.
	late := c.GroupConsumer("t", "late")
	if got := len(late.Poll(16)); got != 8 {
		t.Errorf("late group replayed %d records, want 8", got)
	}
}

func TestEmptyGroupNameDefaults(t *testing.T) {
	c := NewCluster(1, Config{})
	prod := c.Producer("t")
	g := c.GroupConsumer("t", "")
	def := c.Consumer("t")
	if err := prod.Send(batchOf(1)); err != nil {
		t.Fatal(err)
	}
	// "" aliases the default group: the two consumers compete.
	total := len(g.Poll(4)) + len(def.Poll(4))
	if total != 1 {
		t.Errorf("default-group consumers received %d copies, want 1", total)
	}
}

func TestBackPressureStatuses(t *testing.T) {
	c := NewCluster(1, Config{Partitions: 1, BufferBatches: 10, HighWatermark: 0.5})
	sub := c.Subscribe("t")
	prod := c.Producer("t")
	cons := c.Consumer("t")

	// Fill to the high watermark: expect one overloaded=true transition.
	for i := 0; i < 6; i++ {
		if err := prod.Send(batchOf(1)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case s := <-sub:
		if !s.Overloaded || s.Topic != "t" {
			t.Errorf("status = %+v, want overloaded on t", s)
		}
	default:
		t.Fatal("no overload status emitted")
	}

	// Drain below the low watermark (0.25): expect recovery.
	for i := 0; i < 5; i++ {
		if cons.Poll(1) == nil {
			t.Fatal("unexpected empty poll")
		}
	}
	select {
	case s := <-sub:
		if s.Overloaded {
			t.Errorf("status = %+v, want recovery", s)
		}
	default:
		t.Fatal("no recovery status emitted")
	}
}

func TestStatusTransitionsNotRepeated(t *testing.T) {
	c := NewCluster(1, Config{Partitions: 1, BufferBatches: 10, HighWatermark: 0.5})
	sub := c.Subscribe("t")
	prod := c.Producer("t")
	for i := 0; i < 9; i++ {
		if err := prod.Send(batchOf(1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(sub); got != 1 {
		t.Errorf("received %d statuses while filling, want 1 transition", got)
	}
}

func TestPollWait(t *testing.T) {
	c := NewCluster(1, Config{})
	cons := c.Consumer("t")
	prod := c.Producer("t")

	start := time.Now()
	if got := cons.PollWait(1, 30*time.Millisecond, nil); got != nil {
		t.Errorf("PollWait on empty topic = %v", got)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Error("PollWait returned before timeout")
	}

	done := make(chan []*tuple.Batch, 1)
	go func() { done <- cons.PollWait(1, time.Second, nil) }()
	time.Sleep(5 * time.Millisecond)
	if err := prod.Send(batchOf(1)); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-done:
		if len(got) != 1 {
			t.Errorf("PollWait = %d batches, want 1", len(got))
		}
	case <-time.After(time.Second):
		t.Fatal("PollWait never returned after Send")
	}
}

// TestPollWaitWakeupPrompt checks that PollWait is wakeup-driven: a parked
// consumer must see a new batch well before its (long) timeout, and the
// producer path must not leave waiter state behind that breaks later waits.
func TestPollWaitWakeupPrompt(t *testing.T) {
	c := NewCluster(1, Config{})
	cons := c.Consumer("w")
	prod := c.Producer("w")

	for round := 0; round < 3; round++ {
		done := make(chan []*tuple.Batch, 1)
		go func() { done <- cons.PollWait(1, 10*time.Second, nil) }()
		time.Sleep(10 * time.Millisecond) // let the consumer park
		sent := time.Now()
		if err := prod.Send(batchOf(1)); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-done:
			if len(got) != 1 {
				t.Fatalf("round %d: PollWait = %d batches, want 1", round, len(got))
			}
			if lat := time.Since(sent); lat > 500*time.Millisecond {
				t.Errorf("round %d: wakeup took %v, want prompt", round, lat)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("round %d: PollWait never woke after Send", round)
		}
	}
	if w := c.getTopic("w").data.n.Load(); w != 0 {
		t.Errorf("parked consumers = %d after all waits returned, want 0", w)
	}
}

// TestPollAnyParksOnEveryTopic is the multi-topic spout's wait: with topic A
// empty, a batch produced on topic B must come back at once, not after A's
// share of the timeout — and the same the other way round.
func TestPollAnyParksOnEveryTopic(t *testing.T) {
	c := NewCluster(1, Config{})
	consumers := []*Consumer{c.GroupConsumer("a", "g"), c.GroupConsumer("b", "g")}
	for round, topic := range []string{"b", "a", "b"} {
		prod := c.Producer(topic)
		type polled struct {
			batches []*tuple.Batch
			at      time.Time
		}
		done := make(chan polled, 1)
		go func() {
			got := PollAny(consumers, 16, 10*time.Second, nil)
			done <- polled{got, time.Now()}
		}()
		for c.getTopic("a").data.n.Load() == 0 || c.getTopic("b").data.n.Load() == 0 {
			time.Sleep(100 * time.Microsecond) // until parked on both
		}
		sent := time.Now()
		if err := prod.Send(batchOf(3)); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-done:
			if len(got.batches) != 1 || len(got.batches[0].Tuples) != 3 {
				t.Fatalf("round %d: PollAny = %v, want the batch sent on %q", round, got.batches, topic)
			}
			if lat := got.at.Sub(sent); lat > 2*time.Millisecond {
				t.Errorf("round %d: batch on %q seen after %v, want < 2ms", round, topic, lat)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("round %d: PollAny never woke for a batch on %q", round, topic)
		}
	}
	for _, topic := range []string{"a", "b"} {
		if w := c.getTopic(topic).data.n.Load(); w != 0 {
			t.Errorf("topic %q: parked consumers = %d after all waits returned, want 0", topic, w)
		}
	}
}

// TestPollWaitStop checks that closing stop releases a parked consumer at
// once, with nothing polled.
func TestPollWaitStop(t *testing.T) {
	c := NewCluster(1, Config{})
	cons := c.Consumer("t")
	stop := make(chan struct{})
	done := make(chan []*tuple.Batch, 1)
	go func() { done <- cons.PollWait(1, 10*time.Second, stop) }()
	for c.getTopic("t").data.n.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	close(stop)
	select {
	case got := <-done:
		if got != nil {
			t.Errorf("PollWait after stop = %v, want nil", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("PollWait did not return when stop closed")
	}
}

// TestWaitDrained checks the Stop-side wait: it returns true as soon as the
// slowest group has consumed everything appended, false on timeout with a
// backlog left, and true for a topic that does not exist.
func TestWaitDrained(t *testing.T) {
	c := NewCluster(1, Config{})
	if !c.WaitDrained("nope", time.Millisecond) {
		t.Error("unknown topic not drained")
	}
	fast, slow := c.GroupConsumer("t", "fast"), c.GroupConsumer("t", "slow")
	prod := c.Producer("t")
	for i := 0; i < 4; i++ {
		if err := prod.Send(batchOf(1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(fast.Poll(16)); got != 4 {
		t.Fatalf("fast group polled %d, want 4", got)
	}
	start := time.Now()
	if c.WaitDrained("t", 20*time.Millisecond) {
		t.Error("drained with the slow group 4 batches behind")
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Error("WaitDrained gave up before its timeout")
	}
	done := make(chan bool, 1)
	go func() { done <- c.WaitDrained("t", 10*time.Second) }()
	for c.getTopic("t").drain.n.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	if got := len(slow.Poll(3)); got != 3 {
		t.Fatalf("slow group polled %d, want 3", got)
	}
	select {
	case <-done:
		t.Fatal("drained with one batch still unconsumed")
	case <-time.After(5 * time.Millisecond):
	}
	slow.Poll(1)
	select {
	case ok := <-done:
		if !ok {
			t.Error("WaitDrained = false after the last batch was consumed")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitDrained never woke after the last batch was consumed")
	}
	if w := c.getTopic("t").drain.n.Load(); w != 0 {
		t.Errorf("drain waiters = %d after WaitDrained returned, want 0", w)
	}
}

func TestDiskModeSlowerThanRAM(t *testing.T) {
	const batches = 200
	big := batchOf(64)

	measure := func(cfg Config) time.Duration {
		c := NewCluster(1, cfg)
		prod := c.Producer("t")
		start := time.Now()
		for i := 0; i < batches; i++ {
			if err := prod.Send(big); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}

	ram := measure(Config{BufferBatches: batches + 1})
	disk := measure(Config{BufferBatches: batches + 1, Persist: PersistDisk, DiskBytesPerSec: 10 << 20})
	if disk < 10*ram {
		t.Errorf("disk mode (%v) not an order of magnitude slower than RAM (%v)", disk, ram)
	}
}

func TestIngestThrottleBoundsThroughput(t *testing.T) {
	// 1 MB/s ingest, ~5KB batches: 20 batches should take ~100ms.
	c := NewCluster(1, Config{BufferBatches: 64, IngestBytesPerSec: 1 << 20})
	prod := c.Producer("t")
	size := batchOf(64).WireSize()
	start := time.Now()
	for i := 0; i < 20; i++ {
		if err := prod.Send(batchOf(64)); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	want := time.Duration(float64(20*size) / float64(1<<20) * float64(time.Second))
	if elapsed < want/2 {
		t.Errorf("throttled send took %v, want >= %v", elapsed, want/2)
	}
}

func TestConcurrentProducersAndConsumers(t *testing.T) {
	c := NewCluster(4, Config{Partitions: 4, BufferBatches: 10000})
	const producers, perProducer = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prod := c.Producer("t")
			for i := 0; i < perProducer; i++ {
				if err := prod.Send(batchOf(1)); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	cons := c.Consumer("t")
	total := 0
	for {
		bs := cons.Poll(64)
		if len(bs) == 0 {
			break
		}
		total += len(bs)
	}
	if total != producers*perProducer {
		t.Errorf("consumed %d, want %d", total, producers*perProducer)
	}
}

func BenchmarkProduceConsumeRAM(b *testing.B) {
	c := NewCluster(2, Config{Partitions: 4, BufferBatches: 1 << 20})
	prod := c.Producer("bench")
	cons := c.Consumer("bench")
	batch := batchOf(64)
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
}

// scriptedHook is a FaultHook whose produce path fails a fixed number of
// times and whose consume path is toggled explicitly — deterministic stand-in
// for the fault injector in retry/reconnect tests.
type scriptedHook struct {
	mu          sync.Mutex
	produceFail int
	consumeDown bool
}

func (h *scriptedHook) ProduceUnavailable(topic string, partition int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.produceFail > 0 {
		h.produceFail--
		return true
	}
	return false
}

func (h *scriptedHook) ConsumeUnavailable(topic string, partition int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.consumeDown
}

func (h *scriptedHook) setConsumeDown(v bool) {
	h.mu.Lock()
	h.consumeDown = v
	h.mu.Unlock()
}

// TestProducerRetriesUnavailable: transient unavailability is absorbed by the
// producer's bounded backoff retry — the batch lands, the retries are
// counted, nothing is dropped.
func TestProducerRetriesUnavailable(t *testing.T) {
	hook := &scriptedHook{produceFail: 3}
	c := NewCluster(1, Config{Partitions: 1, ProduceRetries: 5, RetryBackoff: 100 * time.Microsecond})
	c.SetFaultHook(hook)
	prod := c.Producer("t")
	if err := prod.Send(batchOf(4)); err != nil {
		t.Fatalf("Send with retry budget: %v", err)
	}
	st := c.Stats("t")
	if st.Appended != 1 || st.Dropped != 0 {
		t.Errorf("stats = %+v, want 1 appended 0 dropped", st)
	}
	if st.Attempts != 1 || st.Retries != 3 {
		t.Errorf("attempts=%d retries=%d, want 1/3", st.Attempts, st.Retries)
	}
	if st.AppendedTuples != 4 {
		t.Errorf("appended tuples = %d, want 4", st.AppendedTuples)
	}
}

// TestProducerUnavailableTypedError: when the retry budget is exhausted the
// caller sees the typed ErrUnavailable — not a silent drop — and the drop is
// attributed in both batch and tuple counters.
func TestProducerUnavailableTypedError(t *testing.T) {
	hook := &scriptedHook{produceFail: 100}
	c := NewCluster(1, Config{Partitions: 1, ProduceRetries: 2, RetryBackoff: 50 * time.Microsecond})
	c.SetFaultHook(hook)
	prod := c.Producer("t")
	err := prod.Send(batchOf(3))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	st := c.Stats("t")
	if st.Appended != 0 || st.Dropped != 1 || st.DroppedTuples != 3 {
		t.Errorf("stats = %+v, want 0 appended, 1 dropped, 3 dropped tuples", st)
	}
	if st.Attempts != 1 || st.Retries != 2 {
		t.Errorf("attempts=%d retries=%d, want 1/2", st.Attempts, st.Retries)
	}
}

// TestProducerRetriesBufferFull: back pressure is retryable too — a Send
// racing a draining consumer succeeds once capacity frees up.
func TestProducerRetriesBufferFull(t *testing.T) {
	c := NewCluster(1, Config{Partitions: 1, BufferBatches: 2, ProduceRetries: 50, RetryBackoff: 200 * time.Microsecond})
	prod := c.Producer("t")
	cons := c.Consumer("t")
	if err := prod.Send(batchOf(1)); err != nil {
		t.Fatal(err)
	}
	if err := prod.Send(batchOf(1)); err != nil {
		t.Fatal(err)
	}
	// Partition full. Drain one batch shortly after the blocked Send begins
	// retrying; the retry must then land.
	go func() {
		time.Sleep(2 * time.Millisecond)
		cons.Poll(1)
	}()
	if err := prod.Send(batchOf(1)); err != nil {
		t.Fatalf("Send under back pressure with retries: %v", err)
	}
	st := c.Stats("t")
	if st.Appended != 3 || st.Dropped != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Retries == 0 {
		t.Error("no retries counted for the back-pressured Send")
	}
}

// TestConsumerOffsetPreservingReconnect: a consume-side outage reads as "no
// data"; once it clears the same group resumes at the exact next offset — no
// loss, no duplicates, order preserved.
func TestConsumerOffsetPreservingReconnect(t *testing.T) {
	hook := &scriptedHook{}
	c := NewCluster(1, Config{Partitions: 1})
	c.SetFaultHook(hook)
	prod := c.Producer("t")
	cons := c.GroupConsumer("t", "g")

	for i := 0; i < 10; i++ {
		b := batchOf(1)
		b.Tuples[0].FlowID = uint64(i)
		if err := prod.Send(b); err != nil {
			t.Fatal(err)
		}
	}
	var seen []uint64
	drain := func(want int) {
		t.Helper()
		for _, b := range cons.Poll(want) {
			seen = append(seen, b.Tuples[0].FlowID)
		}
	}
	drain(4)
	if len(seen) != 4 {
		t.Fatalf("pre-fault consumed %d, want 4", len(seen))
	}

	hook.setConsumeDown(true)
	if got := cons.Poll(4); len(got) != 0 {
		t.Fatalf("unavailable partition returned %d batches", len(got))
	}
	hook.setConsumeDown(false)

	drain(100)
	if len(seen) != 10 {
		t.Fatalf("total consumed %d, want 10 (offset lost or duplicated)", len(seen))
	}
	for i, id := range seen {
		if id != uint64(i) {
			t.Fatalf("order broken at %d: got flow %d; all=%v", i, id, seen)
		}
	}
	st := c.Stats("t")
	if st.Consumed != 10 || st.ConsumedTuples != 10 || st.Buffered != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDeleteTopic(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewCluster(1, Config{Partitions: 2, Metrics: reg})
	prod := c.Producer("doomed")
	if err := prod.Send(batchOf(3)); err != nil {
		t.Fatal(err)
	}
	c.Producer("survivor")
	before := reg.Len()
	if before == 0 {
		t.Fatal("no metrics registered for topics")
	}

	if !c.DeleteTopic("doomed") {
		t.Fatal("DeleteTopic(doomed) = false, want true")
	}
	if c.DeleteTopic("doomed") {
		t.Error("second DeleteTopic(doomed) = true, want false")
	}
	for _, name := range c.Topics() {
		if name == "doomed" {
			t.Error("deleted topic still listed")
		}
	}
	// Every topic=doomed series is gone; survivor's series remain.
	for _, p := range reg.Snapshot() {
		if p.Labels["topic"] == "doomed" {
			t.Fatalf("leaked series %s{%v}", p.Name, p.Labels)
		}
	}
	if reg.Len() >= before {
		t.Errorf("registry len %d not reduced from %d", reg.Len(), before)
	}
	if got := c.Stats("survivor"); got.Appended != 0 {
		t.Errorf("survivor stats disturbed: %+v", got)
	}
	// Recreating the name yields a fresh, working topic.
	if err := c.Producer("doomed").Send(batchOf(1)); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats("doomed").Appended; got != 1 {
		t.Errorf("recreated topic Appended = %d, want 1", got)
	}
}
