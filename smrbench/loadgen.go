package main

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/psmr/psmr/internal/core"
	"github.com/psmr/psmr/internal/workload"
)

// drainLimit is how long a phase waits for its outstanding calls once
// it stops issuing new ones. A call still unanswered when the sessions
// close counts as failed and, in the open loop, as missing every
// latency limit.
const drainLimit = 3 * time.Second

// loadgen drives one cluster's client sessions and tallies what every
// call came to. Calls go through Client.Submit and Call.Wait, the path
// users take, so retransmission and its timer are part of the cost.
type loadgen struct {
	clients []*core.Client
	led     *ledger // nil outside the traced run

	attempted, failed atomic.Int64
	calls             sync.WaitGroup // goroutines that may still wait on a call

	mu  sync.Mutex
	bad error // the first reply that failed its check
}

// settle accounts for one finished call and reports whether it was
// answered with the reply its command must produce. A wrong reply is
// a correctness failure, never an error counted in the error rate.
func (g *loadgen) settle(op workload.Op, out []byte, err error) bool {
	if err != nil {
		g.failed.Add(1)
		return false
	}
	if err := checkReply(op, out); err != nil {
		g.mu.Lock()
		if g.bad == nil {
			g.bad = err
		}
		g.mu.Unlock()
		return false
	}
	return true
}

func (g *loadgen) badReply() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.bad
}

// Noise on a shared host comes in bursts of seconds (a neighbour's CPU
// steal, a descheduled vCPU). The phases are cut into windows: the
// throughput is the median over the closed loop's windows, so a burst
// moves the windows it hits, not the result, and the open loop's
// per-window p99s are printed to show where its tail came from.
const (
	closedWindow = time.Second
	openWindow   = time.Second
)

// closedResult is a closed-loop phase's outcome.
type closedResult struct {
	committed  int64         // calls answered inside the measured window
	elapsed    time.Duration // the measured window's length
	windowKcps []float64     // throughput of each closedWindow
}

// closedLoop keeps len(streams)/len(clients) calls outstanding per
// session, each slot cycling through its own stream of operations:
// first for warm, then for d rounded down to whole closedWindows. mark
// runs at the start and the end of the measured window.
func (g *loadgen) closedLoop(streams [][]workload.Op, warm, d time.Duration, mark func(start bool)) closedResult {
	perSession := len(streams) / len(g.clients)
	var measuring, stop atomic.Bool
	var committed atomic.Int64
	var slots sync.WaitGroup
	for i, ops := range streams {
		c := g.clients[i/perSession]
		slots.Add(1)
		g.calls.Add(1)
		go func() {
			defer g.calls.Done()
			defer slots.Done()
			for n := 0; !stop.Load(); n++ {
				op := ops[n%len(ops)]
				g.attempted.Add(1)
				due := time.Now()
				call, err := c.Submit(op.Cmd, op.Input)
				sent := time.Now()
				if err != nil {
					g.failed.Add(1)
					continue
				}
				out, err := call.Wait()
				answered := time.Now()
				if !g.settle(op, out, err) {
					continue
				}
				if measuring.Load() {
					committed.Add(1)
				}
				g.led.record(callTiming{due: due, submitted: due, sent: sent, waiting: sent, answered: answered})
			}
		}()
	}
	time.Sleep(warm)
	mark(true)
	res := closedResult{}
	start := time.Now()
	measuring.Store(true)
	last, lastAt := int64(0), start
	for w := 1; w <= max(int(d/closedWindow), 1); w++ {
		time.Sleep(time.Until(start.Add(time.Duration(w) * closedWindow)))
		n, now := committed.Load(), time.Now()
		res.windowKcps = append(res.windowKcps, float64(n-last)/now.Sub(lastAt).Seconds()/1e3)
		last, lastAt = n, now
	}
	measuring.Store(false)
	res.elapsed = time.Since(start)
	mark(false)
	res.committed = committed.Load()
	stop.Store(true)
	waitTimeout(&slots, drainLimit)
	return res
}

// openRun is an open-loop phase's schedule and outcome: per session,
// one latency per scheduled request (negative while it has no answer).
type openRun struct {
	start    time.Time
	interval time.Duration // between one session's requests
	offsets  []time.Duration
	latency  [][]time.Duration
	late     [][]time.Duration
}

func (r *openRun) due(s, i int) time.Time {
	return r.start.Add(r.offsets[s] + time.Duration(i)*r.interval)
}

// openLoop submits on a fixed schedule at rate commands per second for
// d, split evenly over the sessions with their schedules interleaved.
// Each request is timed from when it was due, not from when it was
// sent, so a stall delays every request due during it (no coordinated
// omission). It returns once the schedule is over and the calls have
// drained or drainLimit passed; finish settles the rest.
func (g *loadgen) openLoop(streams [][]workload.Op, rate float64, d time.Duration) *openRun {
	nSessions := len(g.clients)
	r := &openRun{interval: time.Duration(float64(time.Second) * float64(nSessions) / rate)}
	for s := 0; s < nSessions; s++ {
		off := time.Duration(s) * r.interval / time.Duration(nSessions)
		n := int((d - off + r.interval - 1) / r.interval)
		r.offsets = append(r.offsets, off)
		r.latency = append(r.latency, make([]time.Duration, n))
		r.late = append(r.late, make([]time.Duration, n))
	}
	var pacers, waiters sync.WaitGroup
	r.start = time.Now()
	for s, c := range g.clients {
		pacers.Add(1)
		go func() {
			defer pacers.Done()
			ops, lat, late := streams[s], r.latency[s], r.late[s]
			for i := range lat {
				lat[i] = -1
				due := r.due(s, i)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				op := ops[i%len(ops)]
				g.attempted.Add(1)
				submitted := time.Now()
				late[i] = submitted.Sub(due)
				call, err := c.Submit(op.Cmd, op.Input)
				sent := time.Now()
				if err != nil {
					g.failed.Add(1)
					continue
				}
				waiters.Add(1)
				g.calls.Add(1)
				go func() {
					defer g.calls.Done()
					defer waiters.Done()
					waiting := time.Now()
					out, err := call.Wait()
					answered := time.Now()
					if g.settle(op, out, err) {
						lat[i] = answered.Sub(due)
						g.led.record(callTiming{due: due, submitted: submitted, sent: sent, waiting: waiting, answered: answered, open: true})
					}
				}()
			}
		}()
	}
	pacers.Wait()
	waitTimeout(&waiters, drainLimit)
	return r
}

// finish closes the sessions, which fails every call still waiting,
// and waits until no goroutine of the load generator is left. It
// returns the instant the benchmark gave up on unanswered calls.
func (g *loadgen) finish() time.Time {
	giveUp := time.Now()
	for _, c := range g.clients {
		_ = c.Close() // closing a client only fails its pending calls
	}
	g.calls.Wait()
	return giveUp
}

// openStats summarizes an open-loop phase: latency in ms from each
// request's due time, and how late the generator sent.
type openStats struct {
	p50, p99  percentile
	windowP99 []percentile // each openWindow's p99
	lateP99   percentile
}

// stats summarizes the run once finish has returned. A request without
// an answer enters the latency percentiles with the time from its due
// instant until the benchmark gave up on it, which exceeds drainLimit:
// it misses every latency limit below that.
func (r *openRun) stats(giveUp time.Time) openStats {
	var all, late []float64
	var windows [][]float64
	for s := range r.latency {
		for i, d := range r.latency[s] {
			due := r.due(s, i)
			if d < 0 {
				d = giveUp.Sub(due)
			}
			ms := float64(d) / 1e6
			all = append(all, ms)
			late = append(late, float64(r.late[s][i])/1e6)
			w := int(due.Sub(r.start) / openWindow)
			for len(windows) <= w {
				windows = append(windows, nil)
			}
			windows[w] = append(windows[w], ms)
		}
	}
	var st openStats
	for _, w := range windows {
		st.windowP99 = append(st.windowP99, percentiles(w, 0.99)[0])
	}
	p := percentiles(all, 0.5, 0.99)
	st.p50, st.p99 = p[0], p[1]
	st.lateP99 = percentiles(late, 0.99)[0]
	return st
}

// waitTimeout waits for wg at most d. On timeout the helper goroutine
// lingers until wg finishes, which finish guarantees by closing the
// sessions.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
	}
}
