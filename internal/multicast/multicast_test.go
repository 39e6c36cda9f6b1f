package multicast

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/obs"
	"github.com/psmr/psmr/internal/paxos"
	"github.com/psmr/psmr/internal/transport"
)

// newInjectedLearner starts a learner whose decisions the test injects
// directly (no coordinator), giving full control over stream contents
// and arrival order.
func newInjectedLearner(t *testing.T, net *transport.MemNetwork, group uint32, addr transport.Addr) *paxos.Learner {
	t.Helper()
	l, err := paxos.StartLearner(paxos.LearnerConfig{
		GroupID:    group,
		Addr:       addr,
		Transport:  net,
		GapTimeout: time.Hour, // no retransmission source in these tests
	})
	if err != nil {
		t.Fatalf("StartLearner: %v", err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return l
}

func inject(t *testing.T, net *transport.MemNetwork, addr transport.Addr, group uint32, instance uint64, b *paxos.Batch) {
	t.Helper()
	if err := net.Send(addr, paxos.NewDecisionFrame(group, instance, paxos.EncodeBatch(b))); err != nil {
		t.Fatalf("inject: %v", err)
	}
}

func normalBatch(items ...string) *paxos.Batch {
	b := &paxos.Batch{}
	for _, s := range items {
		b.Items = append(b.Items, []byte(s))
	}
	return b
}

func skipBatch(slots uint32) *paxos.Batch {
	return &paxos.Batch{Skip: true, SkipSlots: slots}
}

// collect reads n items from the merger with a timeout.
func collect(t *testing.T, m *Merger, n int) []Item {
	t.Helper()
	out := make(chan []Item, 1)
	go func() {
		items := make([]Item, 0, n)
		for len(items) < n {
			it, ok := m.Next()
			if !ok {
				break
			}
			items = append(items, it)
		}
		out <- items
	}()
	select {
	case items := <-out:
		if len(items) != n {
			t.Fatalf("collected %d of %d items", len(items), n)
		}
		return items
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out collecting %d items", n)
		return nil
	}
}

func TestMergerSingleStream(t *testing.T) {
	net := transport.NewMemNetwork(1)
	defer net.Close()
	l := newInjectedLearner(t, net, 1, "l1")

	for i := uint64(0); i < 5; i++ {
		inject(t, net, "l1", 1, i, normalBatch(fmt.Sprintf("v%d", i)))
	}
	m := NewMerger([]*paxos.Cursor{l.NewCursor()}, 4)
	items := collect(t, m, 5)
	for i, it := range items {
		if want := fmt.Sprintf("v%d", i); string(it.Payload) != want {
			t.Fatalf("item %d = %q, want %q", i, it.Payload, want)
		}
		if it.Stream != 0 {
			t.Fatalf("stream = %d", it.Stream)
		}
	}
}

func TestMergerRoundRobinWeight(t *testing.T) {
	net := transport.NewMemNetwork(1)
	defer net.Close()
	la := newInjectedLearner(t, net, 1, "la")
	lb := newInjectedLearner(t, net, 2, "lb")

	// Stream A: a0..a5 (one item per batch); stream B: b0..b5.
	for i := uint64(0); i < 6; i++ {
		inject(t, net, "la", 1, i, normalBatch(fmt.Sprintf("a%d", i)))
		inject(t, net, "lb", 2, i, normalBatch(fmt.Sprintf("b%d", i)))
	}
	m := NewMerger([]*paxos.Cursor{la.NewCursor(), lb.NewCursor()}, 2)
	items := collect(t, m, 12)
	var got []string
	for _, it := range items {
		got = append(got, string(it.Payload))
	}
	want := []string{"a0", "a1", "b0", "b1", "a2", "a3", "b2", "b3", "a4", "a5", "b4", "b5"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged[%d] = %s, want %s (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestMergerSkipAdvancesIdleStream(t *testing.T) {
	net := transport.NewMemNetwork(1)
	defer net.Close()
	la := newInjectedLearner(t, net, 1, "la")
	lb := newInjectedLearner(t, net, 2, "lb")

	// Stream A busy; stream B only skips (covering a full round each).
	const w = 4
	for i := uint64(0); i < 8; i++ {
		inject(t, net, "la", 1, i, normalBatch(fmt.Sprintf("a%d", i)))
	}
	inject(t, net, "lb", 2, 0, skipBatch(w))
	inject(t, net, "lb", 2, 1, skipBatch(w))
	m := NewMerger([]*paxos.Cursor{la.NewCursor(), lb.NewCursor()}, w)
	items := collect(t, m, 8)
	for i, it := range items {
		if want := fmt.Sprintf("a%d", i); string(it.Payload) != want {
			t.Fatalf("item %d = %q, want %q", i, it.Payload, want)
		}
	}
}

func TestMergerSkipCarryAcrossRounds(t *testing.T) {
	net := transport.NewMemNetwork(1)
	defer net.Close()
	la := newInjectedLearner(t, net, 1, "la")
	lb := newInjectedLearner(t, net, 2, "lb")

	// One big skip on B covers three full rounds (weight 2 → 6 slots).
	inject(t, net, "lb", 2, 0, skipBatch(6))
	for i := uint64(0); i < 6; i++ {
		inject(t, net, "la", 1, i, normalBatch(fmt.Sprintf("a%d", i)))
	}
	m := NewMerger([]*paxos.Cursor{la.NewCursor(), lb.NewCursor()}, 2)
	items := collect(t, m, 6)
	for i, it := range items {
		if want := fmt.Sprintf("a%d", i); string(it.Payload) != want {
			t.Fatalf("item %d = %q, want %q", i, it.Payload, want)
		}
	}
}

// The core correctness property: the merged order is a pure function of
// the per-stream contents, independent of arrival timing. Two mergers
// fed the same streams with different interleavings and delays must
// produce identical output.
func TestMergerDeterministicAcrossArrivalOrders(t *testing.T) {
	type injected struct {
		group    uint32
		instance uint64
		batch    *paxos.Batch
	}
	rng := rand.New(rand.NewSource(99))
	// Build random stream contents: 3 groups, 40 batches each.
	const (
		groups  = 3
		batches = 40
		weight  = 3
	)
	var all []injected
	itemCount := 0
	for g := uint32(1); g <= groups; g++ {
		for i := uint64(0); i < batches; i++ {
			var b *paxos.Batch
			if rng.Intn(3) == 0 {
				b = skipBatch(uint32(1 + rng.Intn(2*weight)))
			} else {
				n := 1 + rng.Intn(3)
				for j := 0; j < n; j++ {
					s := fmt.Sprintf("g%d-i%d-%d", g, i, j)
					if b == nil {
						b = normalBatch(s)
					} else {
						b.Items = append(b.Items, []byte(s))
					}
				}
				itemCount += n
			}
			all = append(all, injected{group: g, instance: i, batch: b})
		}
	}
	// Trailer skips on every stream stand in for the live skip padding
	// a real coordinator emits: without them a finite stream exhausts
	// its slots mid-round and the (intentionally blocking) merge waits
	// forever.
	for g := uint32(1); g <= groups; g++ {
		for i := uint64(batches); i < batches+100; i++ {
			all = append(all, injected{group: g, instance: i, batch: skipBatch(weight)})
		}
	}

	run := func(seed int64) []string {
		net := transport.NewMemNetwork(seed)
		defer net.Close()
		var cursors []*paxos.Cursor
		addrs := make(map[uint32]transport.Addr)
		for g := uint32(1); g <= groups; g++ {
			addr := transport.Addr(fmt.Sprintf("l%d-%d", g, seed))
			l := newInjectedLearner(t, net, g, addr)
			addrs[g] = addr
			cursors = append(cursors, l.NewCursor())
		}
		// Shuffle arrival order across groups (per-group instance order
		// preserved by the learner's reordering anyway).
		shuffled := make([]injected, len(all))
		copy(shuffled, all)
		r := rand.New(rand.NewSource(seed))
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		go func() {
			for _, in := range shuffled {
				_ = net.Send(addrs[in.group], paxos.NewDecisionFrame(in.group, in.instance, paxos.EncodeBatch(in.batch)))
				if r.Intn(4) == 0 {
					time.Sleep(time.Microsecond)
				}
			}
		}()
		m := NewMerger(cursors, weight)
		items := collect(t, m, itemCount)
		out := make([]string, len(items))
		for i, it := range items {
			out[i] = string(it.Payload)
		}
		return out
	}

	a := run(1)
	b := run(2)
	c := run(3)
	for i := range a {
		if a[i] != b[i] || a[i] != c[i] {
			t.Fatalf("merge diverges at %d: %q / %q / %q", i, a[i], b[i], c[i])
		}
	}
}

func TestMergerStreamProvenance(t *testing.T) {
	net := transport.NewMemNetwork(1)
	defer net.Close()
	la := newInjectedLearner(t, net, 1, "la")
	lb := newInjectedLearner(t, net, 2, "lb")

	inject(t, net, "la", 1, 0, normalBatch("a"))
	inject(t, net, "lb", 2, 0, normalBatch("b"))
	m := NewMerger([]*paxos.Cursor{la.NewCursor(), lb.NewCursor()}, 1)
	items := collect(t, m, 2)
	if items[0].Stream != 0 || string(items[0].Payload) != "a" {
		t.Fatalf("first item %+v", items[0])
	}
	if items[1].Stream != 1 || string(items[1].Payload) != "b" {
		t.Fatalf("second item %+v", items[1])
	}
}

func TestMergerClosesWithStream(t *testing.T) {
	net := transport.NewMemNetwork(1)
	defer net.Close()
	l := newInjectedLearner(t, net, 1, "l1")
	m := NewMerger([]*paxos.Cursor{l.NewCursor()}, 2)

	done := make(chan bool, 1)
	go func() {
		_, ok := m.Next()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	_ = l.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Next returned ok after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("merger not unblocked by learner close")
	}
}

func TestSenderMulticastReachesCoordinator(t *testing.T) {
	net := transport.NewMemNetwork(1)
	defer net.Close()

	ep, err := net.Listen("coord0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	s := NewSender(net, []GroupConfig{{ID: 7, Coordinators: []transport.Addr{"coord0", "coord1"}}})
	if s.Groups() != 1 {
		t.Fatalf("Groups = %d", s.Groups())
	}
	if err := s.Multicast(0, []byte("payload")); err != nil {
		t.Fatalf("Multicast: %v", err)
	}
	select {
	case frame := <-ep.Recv():
		if len(frame) == 0 {
			t.Fatal("empty frame")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no frame at coordinator")
	}
}

func TestSenderRotateLeader(t *testing.T) {
	net := transport.NewMemNetwork(1)
	defer net.Close()

	ep0, err := net.Listen("c0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	ep1, err := net.Listen("c1")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	s := NewSender(net, []GroupConfig{{ID: 1, Coordinators: []transport.Addr{"c0", "c1"}}})
	if err := s.Multicast(0, []byte("x")); err != nil {
		t.Fatalf("Multicast: %v", err)
	}
	<-ep0.Recv()
	s.RotateLeader(0)
	if err := s.Multicast(0, []byte("y")); err != nil {
		t.Fatalf("Multicast after rotate: %v", err)
	}
	select {
	case <-ep1.Recv():
	case <-time.After(2 * time.Second):
		t.Fatal("rotated multicast did not reach second candidate")
	}
}

func TestSenderBadGroup(t *testing.T) {
	s := NewSender(transport.NewMemNetwork(1), nil)
	if err := s.Multicast(0, []byte("x")); err == nil {
		t.Fatal("Multicast to missing group succeeded")
	}
	s.RotateLeader(5) // must not panic
}

// End-to-end: two full Paxos groups with skip padding, two replicas
// merging both; identical delivery.
func TestEndToEndTwoGroupsTwoReplicas(t *testing.T) {
	net := transport.NewMemNetwork(1)
	defer net.Close()

	const (
		nGroups   = 2
		nReplicas = 2
		weight    = 8
	)
	groups := make([]GroupConfig, nGroups)
	var closers []func()
	defer func() {
		for _, c := range closers {
			c()
		}
	}()

	learnerAddrs := make([][]transport.Addr, nGroups) // [group][replica]
	for g := 0; g < nGroups; g++ {
		coord := transport.Addr(fmt.Sprintf("g%d/coord", g))
		accs := make([]transport.Addr, 3)
		for i := range accs {
			accs[i] = transport.Addr(fmt.Sprintf("g%d/acc%d", g, i))
			a, err := paxos.StartAcceptor(paxos.AcceptorConfig{
				GroupID: uint32(g), ID: uint32(i), Addr: accs[i], Transport: net,
			})
			if err != nil {
				t.Fatalf("StartAcceptor: %v", err)
			}
			closers = append(closers, func() { _ = a.Close() })
		}
		learnerAddrs[g] = make([]transport.Addr, nReplicas)
		for r := 0; r < nReplicas; r++ {
			learnerAddrs[g][r] = transport.Addr(fmt.Sprintf("g%d/r%d", g, r))
		}
		c, err := paxos.StartCoordinator(paxos.CoordinatorConfig{
			GroupID:      uint32(g),
			CandidateIdx: 0,
			Candidates:   []transport.Addr{coord},
			Acceptors:    accs,
			Learners:     learnerAddrs[g],
			Transport:    net,
			SkipInterval: time.Millisecond,
			SkipSlots:    weight,
		})
		if err != nil {
			t.Fatalf("StartCoordinator: %v", err)
		}
		closers = append(closers, func() { _ = c.Close() })
		groups[g] = GroupConfig{ID: uint32(g), Coordinators: []transport.Addr{coord}, Acceptors: accs}
	}

	mergers := make([]*Merger, nReplicas)
	for r := 0; r < nReplicas; r++ {
		var cursors []*paxos.Cursor
		for g := 0; g < nGroups; g++ {
			l, err := paxos.StartLearner(paxos.LearnerConfig{
				GroupID:      uint32(g),
				Addr:         learnerAddrs[g][r],
				Transport:    net,
				Coordinators: groups[g].Coordinators,
			})
			if err != nil {
				t.Fatalf("StartLearner: %v", err)
			}
			closers = append(closers, func() { _ = l.Close() })
			cursors = append(cursors, l.NewCursor())
		}
		mergers[r] = NewMerger(cursors, weight)
	}

	sender := NewSender(net, groups)
	const n = 400
	go func() {
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < n; i++ {
			_ = sender.Multicast(rng.Intn(nGroups), []byte(fmt.Sprintf("m%04d", i)))
		}
	}()

	seq0 := collect(t, mergers[0], n)
	seq1 := collect(t, mergers[1], n)
	for i := range seq0 {
		if string(seq0[i].Payload) != string(seq1[i].Payload) {
			t.Fatalf("replicas diverge at %d: %q vs %q", i, seq0[i].Payload, seq1[i].Payload)
		}
	}
}

// TestSenderKeptFrameStaysUntagged sends one caller-built frame twice
// through a sender that traces every command: each sent copy carries
// the submit-stage wire tag, while the caller's kept frame — the one a
// client retransmits — is never written to.
func TestSenderKeptFrameStaysUntagged(t *testing.T) {
	net := transport.NewMemNetwork(1)
	defer net.Close()
	ep, err := net.Listen("coord0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	s := NewSender(net, []GroupConfig{{ID: 4, Coordinators: []transport.Addr{"coord0"}}})
	s.SetTracer(obs.NewTracer(obs.TracerConfig{Sample: 1, Final: obs.StageExecEnd}))
	payload := command.AppendRequest(nil, &command.Request{Client: 1, Seq: 1, Input: []byte("in"), Reply: "client/1"})
	frame, window := s.NewFrame(0, len(payload))
	copy(window, payload)
	kept := bytes.Clone(frame)
	for i := 0; i < 2; i++ {
		if err := s.Send(0, frame); err != nil {
			t.Fatalf("Send: %v", err)
		}
		var got []byte
		select {
		case got = <-ep.Recv():
		case <-time.After(2 * time.Second):
			t.Fatal("no frame at the coordinator")
		}
		if _, rest, ok := obs.SplitWireTag(got); !ok || !bytes.Equal(rest, kept) {
			t.Fatalf("send %d: frame %x is not the kept frame plus a wire tag", i, got)
		}
	}
	if !bytes.Equal(frame, kept) {
		t.Fatal("Send modified the caller's frame")
	}
}
