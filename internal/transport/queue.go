package transport

import "sync"

// frameQueue is an unbounded MPSC queue of frames. Senders never block,
// which prevents protocol deadlocks where two components send to each
// other through bounded channels. The consumer side is exposed as a
// channel fed by a pump goroutine so that receivers can select over it.
type frameQueue struct {
	mu   sync.Mutex
	cond *sync.Cond
	// ring holds the queued frames: n of them starting at head, in a
	// power-of-two buffer that doubles when full. Unlike a slice that
	// slides forward as it is consumed, the ring reuses its slots, so a
	// steady stream allocates nothing.
	ring   [][]byte
	head   int
	n      int
	closed bool

	out  chan []byte
	stop chan struct{} // closed by close(), unblocks the pump
	done chan struct{} // closed by the pump on exit
}

func newFrameQueue() *frameQueue {
	q := &frameQueue{
		// A buffered output channel amortises scheduler wake-ups under
		// load; the queue behind it is still unbounded.
		out:  make(chan []byte, 512),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	q.cond = sync.NewCond(&q.mu)
	go q.pump()
	return q
}

// push enqueues one frame. It reports false if the queue is closed.
func (q *frameQueue) push(frame []byte) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	if q.n == len(q.ring) {
		q.grow()
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = frame
	q.n++
	q.cond.Signal()
	return true
}

// queueInitCap is the ring's first size; queueShrinkCap is the size
// above which a drained ring is released, so a burst does not pin its
// peak buffer forever.
const (
	queueInitCap   = 64
	queueShrinkCap = 1024
)

// grow doubles the ring (or allocates the first one), unwrapping the
// queued frames to the front of the new buffer.
func (q *frameQueue) grow() {
	ring := make([][]byte, max(queueInitCap, 2*len(q.ring)))
	for i := 0; i < q.n; i++ {
		ring[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
	}
	q.ring, q.head = ring, 0
}

// close stops the queue, discards pending frames, closes the output
// channel, and waits for the pump goroutine to exit.
func (q *frameQueue) close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.stop)
		q.cond.Signal()
	}
	q.mu.Unlock()
	<-q.done
}

// pump moves frames from the internal slice to the output channel.
func (q *frameQueue) pump() {
	defer close(q.done)
	defer close(q.out)
	for {
		q.mu.Lock()
		for q.n == 0 && !q.closed {
			q.cond.Wait()
		}
		if q.closed {
			q.mu.Unlock()
			return
		}
		frame := q.ring[q.head]
		q.ring[q.head] = nil
		q.head = (q.head + 1) & (len(q.ring) - 1)
		q.n--
		if q.n == 0 {
			q.head = 0
			if len(q.ring) > queueShrinkCap {
				q.ring = nil
			}
		}
		q.mu.Unlock()

		select {
		case q.out <- frame:
		case <-q.stop:
			return
		}
	}
}
