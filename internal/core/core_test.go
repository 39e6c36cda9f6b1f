package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/psmr/psmr/internal/cdep"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/kvstore"
	"github.com/psmr/psmr/internal/multicast"
	"github.com/psmr/psmr/internal/paxos"
	"github.com/psmr/psmr/internal/transport"
)

// testDeployment is a hand-wired single-replica P-SMR deployment: k
// parallel groups plus one serial group (k > 1), each with its own
// acceptors and coordinator, one replica, and client proxies — the
// same wiring the top-level Cluster performs, assembled here so the
// package's replica and client are exercised directly.
type testDeployment struct {
	t       *testing.T
	net     *transport.MemNetwork
	groups  []multicast.GroupConfig
	replica *Replica
	cg      *cdep.Compiled
}

func startDeployment(t *testing.T, workers int, keys int) *testDeployment {
	t.Helper()
	net := transport.NewMemNetwork(1)
	t.Cleanup(func() { _ = net.Close() })

	nGroups := workers
	if workers > 1 {
		nGroups = workers + 1 // serial group last
	}
	d := &testDeployment{t: t, net: net}
	const mergeWeight = 64
	for g := 0; g < nGroups; g++ {
		gid := uint32(g)
		accAddrs := make([]transport.Addr, 3)
		for i := range accAddrs {
			accAddrs[i] = transport.Addr(fmt.Sprintf("g%d/acc%d", g, i))
		}
		candAddrs := []transport.Addr{transport.Addr(fmt.Sprintf("g%d/coord0", g))}
		for i := range accAddrs {
			a, err := paxos.StartAcceptor(paxos.AcceptorConfig{
				GroupID: gid, ID: uint32(i), Addr: accAddrs[i], Transport: net,
			})
			if err != nil {
				t.Fatalf("StartAcceptor: %v", err)
			}
			t.Cleanup(func() { _ = a.Close() })
		}
		// Multi-stream merges stall without skip padding on idle groups.
		skip := time.Duration(0)
		if nGroups > 1 {
			skip = time.Millisecond
		}
		co, err := paxos.StartCoordinator(paxos.CoordinatorConfig{
			GroupID:      gid,
			CandidateIdx: 0,
			Candidates:   candAddrs,
			Acceptors:    accAddrs,
			Learners:     []transport.Addr{LearnerAddr(0, gid)},
			Transport:    net,
			SkipInterval: skip,
			SkipSlots:    mergeWeight,
		})
		if err != nil {
			t.Fatalf("StartCoordinator: %v", err)
		}
		t.Cleanup(func() { _ = co.Close() })
		d.groups = append(d.groups, multicast.GroupConfig{
			ID: gid, Coordinators: candAddrs, Acceptors: accAddrs,
		})
	}

	st := kvstore.New()
	st.Preload(keys)
	rep, err := StartReplica(ReplicaConfig{
		ReplicaID:   0,
		Workers:     workers,
		Service:     st,
		Groups:      d.groups,
		Transport:   net,
		MergeWeight: mergeWeight,
	})
	if err != nil {
		t.Fatalf("StartReplica: %v", err)
	}
	t.Cleanup(func() { _ = rep.Close() })
	d.replica = rep

	cg, err := cdep.Compile(kvstore.Spec(), workers)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	d.cg = cg
	return d
}

func (d *testDeployment) newClient(id uint64) *Client {
	d.t.Helper()
	c, err := NewClient(ClientConfig{
		ID:            id,
		Sender:        multicast.NewSender(d.net, d.groups),
		CG:            d.cg,
		Transport:     d.net,
		RetryInterval: 2 * time.Second,
		Seed:          int64(id),
	})
	if err != nil {
		d.t.Fatalf("NewClient: %v", err)
	}
	d.t.Cleanup(func() { _ = c.Close() })
	return c
}

// Parallel mode: keyed commands multicast to one group and execute on
// its worker; values must read back.
func TestClientInvokeParallelMode(t *testing.T) {
	d := startDeployment(t, 2, 100)
	c := d.newClient(1)

	for key := uint64(0); key < 8; key++ {
		value := []byte(fmt.Sprintf("value%03d", key))
		out, err := c.Invoke(kvstore.CmdUpdate, kvstore.EncodeKeyValue(key, value))
		if err != nil {
			t.Fatalf("update key %d: %v", key, err)
		}
		if out[0] != kvstore.OK {
			t.Fatalf("update key %d: code %d", key, out[0])
		}
	}
	for key := uint64(0); key < 8; key++ {
		out, err := c.Invoke(kvstore.CmdRead, kvstore.EncodeKey(key))
		if err != nil {
			t.Fatalf("read key %d: %v", key, err)
		}
		value, code := kvstore.DecodeReadOutput(out)
		if want := fmt.Sprintf("value%03d", key); code != kvstore.OK || string(value) != want {
			t.Fatalf("read key %d = %q code %d, want %q", key, value, code, want)
		}
	}
}

// Synchronous mode: inserts are Global, so they multicast to every
// group and rendezvous all workers (Algorithm 1 lines 14-26).
func TestClientInvokeSynchronousMode(t *testing.T) {
	d := startDeployment(t, 2, 10)
	c := d.newClient(1)

	out, err := c.Invoke(kvstore.CmdInsert, kvstore.EncodeKeyValue(500, []byte("inserted")))
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if out[0] != kvstore.OK {
		t.Fatalf("insert code %d", out[0])
	}
	out, err = c.Invoke(kvstore.CmdRead, kvstore.EncodeKey(500))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	value, code := kvstore.DecodeReadOutput(out)
	if code != kvstore.OK || string(value) != "inserted" {
		t.Fatalf("read back %q code %d", value, code)
	}
}

// Classic SMR is the k=1 degeneration: one group, one worker.
func TestSingleWorkerSMR(t *testing.T) {
	d := startDeployment(t, 1, 10)
	c := d.newClient(1)

	if out, err := c.Invoke(kvstore.CmdUpdate, kvstore.EncodeKeyValue(3, []byte("smr-val1"))); err != nil || out[0] != kvstore.OK {
		t.Fatalf("update: %v %v", out, err)
	}
	out, err := c.Invoke(kvstore.CmdRead, kvstore.EncodeKey(3))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if value, code := kvstore.DecodeReadOutput(out); code != kvstore.OK || string(value) != "smr-val1" {
		t.Fatalf("read back %q code %d", value, code)
	}
}

// Concurrent clients across keys: the window of outstanding calls the
// workload runner keeps in real benchmarks.
func TestConcurrentClients(t *testing.T) {
	d := startDeployment(t, 2, 64)
	const clients = 3
	done := make(chan error, clients)
	for i := 0; i < clients; i++ {
		c := d.newClient(uint64(i + 1))
		go func(c *Client, base uint64) {
			for j := uint64(0); j < 20; j++ {
				key := (base*20 + j) % 64
				out, err := c.Invoke(kvstore.CmdUpdate, kvstore.EncodeKeyValue(key, []byte("cccccccc")))
				if err != nil {
					done <- err
					return
				}
				if out[0] != kvstore.OK {
					done <- fmt.Errorf("update key %d: code %d", key, out[0])
					return
				}
			}
			done <- nil
		}(c, uint64(i))
	}
	for i := 0; i < clients; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("timed out")
		}
	}
}

func TestClientSubmitAfterClose(t *testing.T) {
	d := startDeployment(t, 1, 10)
	c := d.newClient(9)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := c.Submit(kvstore.CmdRead, kvstore.EncodeKey(1)); err != ErrClientClosed {
		t.Fatalf("Submit after close: %v, want ErrClientClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestClientCloseFailsPendingCalls(t *testing.T) {
	net := transport.NewMemNetwork(1)
	t.Cleanup(func() { _ = net.Close() })
	// No replicas behind the group: the call can never complete.
	groups := []multicast.GroupConfig{{ID: 0, Coordinators: []transport.Addr{"void"}}}
	cg, err := cdep.Compile(kvstore.Spec(), 1)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	c, err := NewClient(ClientConfig{
		ID:        1,
		Sender:    multicast.NewSender(net, groups),
		CG:        cg,
		Transport: net,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	call, err := c.Submit(kvstore.CmdRead, kvstore.EncodeKey(1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitErr := make(chan error, 1)
	go func() {
		_, err := call.Wait()
		waitErr <- err
	}()
	time.Sleep(10 * time.Millisecond)
	_ = c.Close()
	select {
	case err := <-waitErr:
		if err != ErrClientClosed {
			t.Fatalf("Wait after close: %v, want ErrClientClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait not unblocked by Close")
	}
}

func TestStartReplicaValidation(t *testing.T) {
	net := transport.NewMemNetwork(1)
	defer net.Close()
	if _, err := StartReplica(ReplicaConfig{Workers: 0}); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, err := StartReplica(ReplicaConfig{
		Workers:   2,
		Groups:    make([]multicast.GroupConfig, 5),
		Transport: net,
	}); err == nil {
		t.Fatal("wrong group count accepted")
	}
}

// TestClientRetransmitsKeptFrame drives a client against a bare
// coordinator endpoint that never orders anything: every retry resends
// the very frame the call encoded at submit (byte-identical, same
// backing array on the in-process network), the answered call returns
// its retransmit timer to the client's free list, and the next call
// reuses it.
func TestClientRetransmitsKeptFrame(t *testing.T) {
	net := transport.NewMemNetwork(1)
	t.Cleanup(func() { _ = net.Close() })
	coord, err := net.Listen("coord")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	groups := []multicast.GroupConfig{{ID: 3, Coordinators: []transport.Addr{"coord"}}}
	cg, err := cdep.Compile(kvstore.Spec(), 1)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	c, err := NewClient(ClientConfig{
		ID:            5,
		Sender:        multicast.NewSender(net, groups),
		CG:            cg,
		Transport:     net,
		RetryInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })

	recv := func() []byte {
		t.Helper()
		select {
		case f := <-coord.Recv():
			return f
		case <-time.After(2 * time.Second):
			t.Fatal("no frame at the coordinator")
			return nil
		}
	}
	for round := 0; round < 2; round++ {
		call, err := c.Submit(kvstore.CmdRead, kvstore.EncodeKey(1))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		got := make(chan []byte, 1)
		go func() {
			out, err := call.Wait()
			if err != nil {
				t.Errorf("Wait: %v", err)
			}
			got <- out
		}()
		first := recv()
		group, value, ok := paxos.ParsePropose(first)
		if !ok || group != 3 {
			t.Fatalf("submitted frame is not a group-3 proposal: %x", first)
		}
		req, _, err := command.DecodeRequest(value)
		if err != nil {
			t.Fatalf("DecodeRequest: %v", err)
		}
		for retry := 0; retry < 2; retry++ {
			again := recv()
			if &again[0] != &first[0] || !bytes.Equal(again, first) {
				t.Fatalf("retry %d sent a different frame", retry)
			}
		}
		resp := command.AppendResponse(nil, &command.Response{Client: req.Client, Seq: req.Seq, Output: []byte{kvstore.OK}})
		if err := net.Send(req.Reply, resp); err != nil {
			t.Fatalf("Send response: %v", err)
		}
		if out := <-got; !bytes.Equal(out, []byte{kvstore.OK}) {
			t.Fatalf("Wait returned %x", out)
		}
		// A retry may have raced the response: drain it before the next
		// round's first frame.
		for drained := false; !drained; {
			select {
			case <-coord.Recv():
			case <-time.After(30 * time.Millisecond):
				drained = true
			}
		}
		c.mu.Lock()
		timers := len(c.timers)
		c.mu.Unlock()
		if timers != 1 {
			t.Fatalf("round %d: %d free timers, want the one reused timer", round, timers)
		}
	}
}
