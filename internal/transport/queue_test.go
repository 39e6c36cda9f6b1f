package transport

import (
	"encoding/binary"
	"testing"
	"time"
)

// TestFrameQueueRing pushes bursts that wrap the ring and force it to
// grow while the consumer lags, checks strict FIFO delivery, and checks
// that a drained ring larger than queueShrinkCap is released.
func TestFrameQueueRing(t *testing.T) {
	q := newFrameQueue()
	defer q.close()
	var next, want uint64
	push := func(n int) {
		for i := 0; i < n; i++ {
			q.push(binary.LittleEndian.AppendUint64(nil, next))
			next++
		}
	}
	pop := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			select {
			case f := <-q.out:
				if got := binary.LittleEndian.Uint64(f); got != want {
					t.Fatalf("frame %d arrived in position %d", got, want)
				}
				want++
			case <-time.After(2 * time.Second):
				t.Fatalf("frame %d never arrived", want)
			}
		}
	}
	push(queueInitCap / 2)
	pop(queueInitCap / 4)
	push(queueInitCap) // wraps, then grows
	pop(int(next - want))
	push(4 * queueShrinkCap) // a burst past the shrink threshold
	pop(int(next - want))

	deadline := time.Now().Add(2 * time.Second)
	for {
		q.mu.Lock()
		size, n := len(q.ring), q.n
		q.mu.Unlock()
		if n == 0 && size <= queueShrinkCap {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drained queue still holds a %d-slot ring (%d queued)", size, n)
		}
		time.Sleep(time.Millisecond)
	}
}
