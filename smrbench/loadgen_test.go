package main

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/psmr/psmr"
	"github.com/psmr/psmr/internal/kvstore"
	"github.com/psmr/psmr/internal/transport"
	"github.com/psmr/psmr/internal/workload"
)

// faultyTransport stalls or drops the frames sent to one address.
type faultyTransport struct {
	transport.Transport
	to         transport.Addr
	stallUntil atomic.Int64 // UnixNano; a Send to `to` before it blocks until it
	drop       atomic.Bool  // frames to `to` are lost
}

func (f *faultyTransport) Send(to transport.Addr, frame []byte) error {
	if to == f.to {
		if d := time.Until(time.Unix(0, f.stallUntil.Load())); d > 0 {
			time.Sleep(d)
		}
		if f.drop.Load() {
			return nil
		}
	}
	return f.Transport.Send(to, frame)
}

// openLoopWithFault runs a one-second open loop at 2000 commands per
// second against a small SMR cluster and applies fault 300 ms in.
func openLoopWithFault(t *testing.T, fault func(*faultyTransport)) (openStats, *loadgen) {
	t.Helper()
	net := &faultyTransport{Transport: transport.NewMemNetwork(1), to: "g0/coord0"}
	cl, err := psmr.StartCluster(psmr.Config{
		Mode: psmr.ModeSMR, Spec: kvstore.Spec(), NewService: smallStore, Transport: net,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	g := &loadgen{}
	var streams [][]workload.Op
	for s := 0; s < sessions; s++ {
		c, err := cl.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		g.clients = append(g.clients, c)
		streams = append(streams, []workload.Op{{Cmd: kvstore.CmdRead, Input: kvstore.EncodeKey(uint64(s))}})
	}
	// One answered call first, so the fault is the only slow part.
	if _, err := g.clients[0].Invoke(kvstore.CmdRead, kvstore.EncodeKey(0)); err != nil {
		t.Fatal(err)
	}
	timer := time.AfterFunc(300*time.Millisecond, func() { fault(net) })
	defer timer.Stop()
	run := g.openLoop(streams, 2000, time.Second)
	stats := run.stats(g.finish())
	if stats.p50.N != 2000 || stats.p99.N != 2000 || stats.lateP99.N != 2000 {
		t.Fatalf("sample counts %d/%d/%d, want one per scheduled request (2000)",
			stats.p50.N, stats.p99.N, stats.lateP99.N)
	}
	return stats, g
}

// TestOpenLoopCountsStalls injects a 400 ms stall into the path the
// sessions submit through. Requests due during it are sent late, and
// their latency counts from when they were due, so both the p99 and
// loadgen.late_p99_ms show the stall; without it neither does.
func TestOpenLoopCountsStalls(t *testing.T) {
	const stallMs = 400
	base, _ := openLoopWithFault(t, func(*faultyTransport) {})
	stalled, g := openLoopWithFault(t, func(f *faultyTransport) {
		f.stallUntil.Store(time.Now().Add(stallMs * time.Millisecond).UnixNano())
	})
	if g.failed.Load() != 0 {
		t.Fatalf("%d calls failed", g.failed.Load())
	}
	if base.p99.Value >= stallMs/2 || base.lateP99.Value >= stallMs/2 {
		t.Fatalf("no stall: p99 %.1f ms, late p99 %.1f ms; the host is too busy for this test",
			base.p99.Value, base.lateP99.Value)
	}
	// 40% of the requests fall due during the stall, late by up to its
	// length: the 99th percentile sits near its end.
	if stalled.lateP99.Value < stallMs/2 {
		t.Errorf("late p99 = %.1f ms after a %d ms stall", stalled.lateP99.Value, stallMs)
	}
	if stalled.p99.Value < stallMs/2 {
		t.Errorf("latency p99 = %.1f ms after a %d ms stall", stalled.p99.Value, stallMs)
	}
}

// TestOpenLoopCountsLostRequestsAsMissing drops every request from 300
// ms on. They are never answered: they count as failed and enter the
// percentiles with at least drainLimit, missing every latency limit.
func TestOpenLoopCountsLostRequestsAsMissing(t *testing.T) {
	stats, g := openLoopWithFault(t, func(f *faultyTransport) { f.drop.Store(true) })
	if failed := g.failed.Load(); failed < 1000 {
		t.Errorf("%d calls failed, want the ~1400 dropped ones", failed)
	}
	if limit := float64(drainLimit / time.Millisecond); stats.p99.Value < limit || stats.p50.Value < limit {
		t.Errorf("p50 %.1f ms, p99 %.1f ms; lost requests must count as at least %v", stats.p50.Value, stats.p99.Value, drainLimit)
	}
}
