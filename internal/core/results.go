package core

import (
	"sync"
	"sync/atomic"
	"time"

	"netalytics/internal/tuple"
)

// resultChanCap caps the result channel itself. A channel's slots are
// allocated (and zeroed) when it is made, so a session pays for them at
// Submit whether or not its consumer ever lags; whatever Config.ResultBuffer
// allows beyond this is held in the overflow, which costs nothing until used.
const resultChanCap = 4096

// resultQueue is a session's result stream: the channel Results() hands out,
// plus a bounded overflow that takes deliveries while the channel is full and
// a forwarder goroutine that moves them into the channel, in order, as the
// consumer catches up. Together they hold Config.ResultBuffer results;
// deliveries beyond that are dropped and counted. The forwarder exists only
// while the overflow is non-empty.
type resultQueue struct {
	ch    chan tuple.Tuple
	limit int // overflow capacity: ResultBuffer - cap(ch)
	drops atomic.Uint64

	// spilling is set while the overflow is non-empty: deliveries must then
	// queue behind it rather than overtake it through the channel. It is
	// written under mu and read without it on the delivery fast path.
	spilling atomic.Bool
	mu       sync.Mutex
	spill    []tuple.Tuple // spill[0] is the tuple the forwarder is sending
	idle     chan struct{} // closed by the forwarder when it exits
	abort    chan struct{} // closed by close when the consumer has gone away
}

func newResultQueue(buffer int) *resultQueue {
	n := buffer
	if n > resultChanCap {
		n = resultChanCap
	}
	return &resultQueue{
		ch:    make(chan tuple.Tuple, n),
		limit: buffer - n,
		abort: make(chan struct{}),
	}
}

// deliver queues one result without ever blocking the topology: into the
// channel while the consumer keeps up, into the overflow while it lags, and
// nowhere (counted in drops) once both are full.
func (q *resultQueue) deliver(t tuple.Tuple) {
	if !q.spilling.Load() {
		select {
		case q.ch <- t:
			return
		default:
		}
	}
	q.mu.Lock()
	if len(q.spill) >= q.limit {
		q.mu.Unlock()
		q.drops.Add(1)
		return
	}
	q.spill = append(q.spill, t)
	if !q.spilling.Load() {
		q.spilling.Store(true)
		q.idle = make(chan struct{})
		go q.forward(q.idle)
	}
	q.mu.Unlock()
}

// forward moves the overflow into the channel until it is empty. The head
// stays in the overflow while it is being sent, so it counts against the
// limit and spilling stays set until the consumer has it.
func (q *resultQueue) forward(idle chan struct{}) {
	defer close(idle)
	for {
		q.mu.Lock()
		if len(q.spill) == 0 {
			q.spill = nil
			q.spilling.Store(false)
			q.mu.Unlock()
			return
		}
		head := q.spill[0]
		q.mu.Unlock()
		select {
		case q.ch <- head:
		case <-q.abort:
			return
		}
		q.mu.Lock()
		q.spill[0] = tuple.Tuple{} // release the strings to the collector
		q.spill = q.spill[1:]
		q.mu.Unlock()
	}
}

// close ends the stream once no more deliveries can arrive: it gives the
// consumer until the deadline to take what the overflow holds, counts what is
// left then as dropped, and closes the channel. Results already in the
// channel stay readable after the close.
func (q *resultQueue) close(deadline time.Time) {
	q.mu.Lock()
	idle := q.idle
	q.mu.Unlock()
	if idle != nil {
		timer := time.NewTimer(time.Until(deadline))
		select {
		case <-idle:
		case <-timer.C:
			close(q.abort)
			<-idle
			q.mu.Lock()
			q.drops.Add(uint64(len(q.spill)))
			q.spill = nil
			q.mu.Unlock()
		}
		timer.Stop()
	}
	close(q.ch)
}
