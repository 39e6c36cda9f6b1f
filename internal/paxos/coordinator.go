package paxos

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"github.com/psmr/psmr/internal/bench"
	"github.com/psmr/psmr/internal/obs"
	"github.com/psmr/psmr/internal/transport"
)

// CoordinatorConfig configures one coordinator candidate of one group.
type CoordinatorConfig struct {
	GroupID uint32
	// CandidateIdx is this candidate's position in Candidates. The
	// candidate at index 0 assumes leadership on startup; others take
	// over (in order) when heartbeats stop.
	CandidateIdx int
	// Candidates are the coordinator endpoints in take-over order.
	Candidates []transport.Addr
	// Acceptors are the group's acceptor endpoints.
	Acceptors []transport.Addr
	// Learners receive Decision pushes. Coordinator candidates should
	// also be listed here (the constructor adds them automatically) so
	// standbys can serve retransmission after a fail-over.
	Learners []transport.Addr
	// Relays, when non-empty, compartmentalize the decision broadcast:
	// instead of sending every decision to every learner itself, the
	// leader stripes decisions across the relays (instance mod relay
	// count) and each relay re-broadcasts to all learners. The leader's
	// per-decision send work becomes O(1) regardless of learner count.
	// Learners re-sequence the cross-stripe arrivals through their
	// out-of-order buffer, so decided order is unaffected; gap
	// retransmission still flows learner -> coordinator directly.
	Relays []transport.Addr
	// Transport carries the coordinator's traffic.
	Transport transport.Transport

	// BatchMaxBytes flushes a batch when its payload reaches this size.
	// Default 8192, the paper's 8 KB (§VI-A).
	BatchMaxBytes int
	// FlushInterval bounds how long a non-empty batch may wait before
	// being proposed. Default 200µs.
	FlushInterval time.Duration
	// SkipInterval, when positive, makes the leader pad the group's
	// sequence with skip batches so the group produces at least
	// SkipSlots merge slots per interval even when idle or slow
	// (Multi-Ring Paxos's rate matching). Deterministic merges over
	// multiple groups stall without it. Default 0 (disabled).
	SkipInterval time.Duration
	// SkipSlots is the target number of merge slots (one slot = one
	// command) per SkipInterval; it must equal the merge weight used
	// by receivers. Default 256.
	SkipSlots uint32
	// HeartbeatInterval is the leader's heartbeat period. Default 20ms.
	HeartbeatInterval time.Duration
	// TakeoverTimeout is how long a standby waits without heartbeats
	// before attempting to lead; it is scaled by the candidate's
	// distance from the believed leader to avoid duels. Default 250ms.
	TakeoverTimeout time.Duration
	// Optimistic makes the leader push every flushed batch to the
	// learners BEFORE running phase 2 on it (optimistic atomic
	// broadcast): learners gain an unordered best-effort stream that
	// usually predicts the decided order, letting replicas execute
	// speculatively while consensus is still in flight. Decisions are
	// pushed exactly as without it; the optimistic stream is purely
	// additive.
	Optimistic bool
	// Window bounds the number of in-flight (proposed, undecided)
	// instances. Default 64.
	Window int
	// RetainDecisions bounds the retransmission log. Default 16384.
	RetainDecisions int
	// CPU optionally meters the coordinator's busy time.
	CPU *bench.RoleMeter
	// Trace optionally stamps sampled commands at the leader-admit and
	// decided stage boundaries (and carries trace context across the
	// wire: inbound proposal tags are absorbed, outbound decision/
	// optimistic frames are re-tagged).
	Trace *obs.Tracer
	// Journal optionally records flush/decide events in the flight
	// recorder.
	Journal *obs.Journal
}

func (c *CoordinatorConfig) fillDefaults() {
	if c.BatchMaxBytes <= 0 {
		c.BatchMaxBytes = 8192
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 200 * time.Microsecond
	}
	if c.SkipSlots == 0 {
		c.SkipSlots = 256
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 20 * time.Millisecond
	}
	if c.TakeoverTimeout <= 0 {
		c.TakeoverTimeout = 250 * time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.RetainDecisions <= 0 {
		c.RetainDecisions = 16384
	}
}

type pendingInstance struct {
	value []byte
	acks  map[uint32]bool
}

// ProtoAddr derives the protocol (priority) endpoint address of a
// coordinator candidate from its public proposal address. Acceptor
// replies and heartbeats use this endpoint so that floods of client
// proposals can never delay consensus completions or fail-over
// detection.
func ProtoAddr(candidate transport.Addr) transport.Addr {
	return candidate + "!proto"
}

// Coordinator is a group's proposer/leader role: it batches client
// proposals, runs Paxos phase 2 (phase 1 on ballot changes), pushes
// decisions to learners, serves retransmission requests, and
// participates in leader fail-over.
//
// It listens on two endpoints: the public one (client proposals,
// retransmission requests, decision gossip) and a protocol one
// (acceptor replies, heartbeats) that the event loop drains with
// priority.
type Coordinator struct {
	cfg     CoordinatorConfig
	ep      transport.Endpoint
	protoEP transport.Endpoint

	// propBatch is the decode target of every proxy-sealed batch
	// (run() only).
	propBatch Batch

	// Leadership state (goroutine-confined to run()).
	leader         bool
	preparing      bool
	ballot         Ballot
	highestSeen    Ballot
	believedLeader int
	lastHeartbeat  time.Time

	// Phase 1 state.
	p1Acks    map[uint32]bool
	p1Entries map[uint64]acceptedEntry

	// Instance state.
	nextInstance uint64
	pending      map[uint64]*pendingInstance
	backlog      [][]byte // encoded batch values awaiting window space

	// Current batch being accumulated.
	curItems [][]byte
	curBytes int

	// Decision log for learner retransmission.
	decisions  map[uint64][]byte
	frontier   uint64 // all instances < frontier are in decisions (until trimmed)
	trimBelow  uint64
	sinceSweep int
	// slotsSinceTick counts merge slots produced by real batches since
	// the last skip tick; the tick pads the difference to SkipSlots.
	slotsSinceTick uint32
	// optSeq numbers this leader's optimistic deliveries within its
	// current ballot (Optimistic only).
	optSeq uint64

	flushTimer *time.Timer
	stop       chan struct{}
	done       chan struct{}

	// statusCh serves Status() queries without data races.
	statusCh chan chan Status

	// Inbound admission counters (atomics: read concurrently by
	// Counters()). A proxy tier shows up here as frames-per-command
	// falling below 1. decided counts decision pushes, the activity
	// signal the relay-staleness watchdog compares stripes against.
	inFrames   atomic.Uint64
	inCommands atomic.Uint64
	decided    atomic.Uint64
}

// CoordinatorCounters reports a coordinator's inbound admission work:
// how many proposal frames it received versus how many commands those
// frames carried. Direct client submission costs one frame per
// command; a proxy tier amortizes one frame over a whole proxy batch.
type CoordinatorCounters struct {
	InboundFrames   uint64
	InboundCommands uint64
	// Decided counts the decision pushes this coordinator performed as
	// leader (0 on a standby).
	Decided uint64
}

// FramesPerCommand is the admission cost ratio; 0 when no commands
// were admitted.
func (c CoordinatorCounters) FramesPerCommand() float64 {
	if c.InboundCommands == 0 {
		return 0
	}
	return float64(c.InboundFrames) / float64(c.InboundCommands)
}

// Counters returns the coordinator's admission counters. Safe to call
// concurrently with the event loop.
func (c *Coordinator) Counters() CoordinatorCounters {
	return CoordinatorCounters{
		InboundFrames:   c.inFrames.Load(),
		InboundCommands: c.inCommands.Load(),
		Decided:         c.decided.Load(),
	}
}

// Status is a snapshot of coordinator state, for tests and monitoring.
type Status struct {
	Leader       bool
	Ballot       Ballot
	NextInstance uint64
	Pending      int
	Backlog      int
}

// StartCoordinator launches a coordinator candidate.
func StartCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg.fillDefaults()
	if cfg.CandidateIdx < 0 || cfg.CandidateIdx >= len(cfg.Candidates) {
		return nil, fmt.Errorf("coordinator: candidate index %d outside candidates[%d]",
			cfg.CandidateIdx, len(cfg.Candidates))
	}
	ep, err := cfg.Transport.Listen(cfg.Candidates[cfg.CandidateIdx])
	if err != nil {
		return nil, fmt.Errorf("coordinator %d/%d listen: %w", cfg.GroupID, cfg.CandidateIdx, err)
	}
	protoEP, err := cfg.Transport.Listen(ProtoAddr(cfg.Candidates[cfg.CandidateIdx]))
	if err != nil {
		_ = ep.Close()
		return nil, fmt.Errorf("coordinator %d/%d listen proto: %w", cfg.GroupID, cfg.CandidateIdx, err)
	}
	c := &Coordinator{
		cfg:            cfg,
		ep:             ep,
		protoEP:        protoEP,
		pending:        make(map[uint64]*pendingInstance),
		decisions:      make(map[uint64][]byte),
		believedLeader: 0,
		lastHeartbeat:  time.Now(),
		flushTimer:     time.NewTimer(time.Hour),
		stop:           make(chan struct{}),
		done:           make(chan struct{}),
		statusCh:       make(chan chan Status),
	}
	if !c.flushTimer.Stop() {
		<-c.flushTimer.C
	}
	go c.run()
	return c, nil
}

// Close stops the coordinator and waits for its goroutine.
func (c *Coordinator) Close() error {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	err := c.ep.Close()
	_ = c.protoEP.Close()
	<-c.done
	return err
}

// Status returns a consistent snapshot of the coordinator's state.
func (c *Coordinator) Status() Status {
	reply := make(chan Status, 1)
	select {
	case c.statusCh <- reply:
		return <-reply
	case <-c.done:
		return Status{}
	}
}

func (c *Coordinator) run() {
	defer close(c.done)

	hbTicker := time.NewTicker(c.cfg.HeartbeatInterval)
	defer hbTicker.Stop()

	var skipC <-chan time.Time
	if c.cfg.SkipInterval > 0 {
		skipTicker := time.NewTicker(c.cfg.SkipInterval)
		defer skipTicker.Stop()
		skipC = skipTicker.C
	}

	// Candidate 0 leads from the start; standbys wait for silence.
	if c.cfg.CandidateIdx == 0 {
		c.startPhase1()
	}

	for {
		// Protocol traffic (acceptor replies, heartbeats) is drained
		// with priority so client-proposal floods cannot delay
		// consensus completion or fail-over detection.
		select {
		case frame, ok := <-c.protoEP.Recv():
			if !ok {
				return
			}
			t0 := time.Now()
			c.handle(frame)
			c.cfg.CPU.Add(time.Since(t0))
			continue
		default:
		}
		select {
		case <-c.stop:
			return
		case reply := <-c.statusCh:
			reply <- Status{
				Leader:       c.leader,
				Ballot:       c.ballot,
				NextInstance: c.nextInstance,
				Pending:      len(c.pending),
				Backlog:      len(c.backlog),
			}
		case frame, ok := <-c.protoEP.Recv():
			if !ok {
				return
			}
			t0 := time.Now()
			c.handle(frame)
			c.cfg.CPU.Add(time.Since(t0))
		case frame, ok := <-c.ep.Recv():
			if !ok {
				return
			}
			t0 := time.Now()
			c.handle(frame)
			c.cfg.CPU.Add(time.Since(t0))
		case <-c.flushTimer.C:
			t0 := time.Now()
			c.flush()
			c.cfg.CPU.Add(time.Since(t0))
		case <-skipC:
			t0 := time.Now()
			c.skipTick()
			c.cfg.CPU.Add(time.Since(t0))
		case <-hbTicker.C:
			t0 := time.Now()
			c.heartbeatTick()
			c.cfg.CPU.Add(time.Since(t0))
		}
	}
}

func (c *Coordinator) handle(frame []byte) {
	// Fold wire-shipped trace tags into the local tracer before
	// decoding. Only proposal/decision frames carry tags; gating on
	// the type byte keeps every other message off the magic-byte scan.
	if len(frame) > 0 {
		switch msgType(frame[0]) {
		case msgPropose, msgProposeBatch, msgDecision:
			frame = c.cfg.Trace.AbsorbTags(frame)
		}
	}
	m, err := decodeMessage(frame)
	if err != nil || m.Group != c.cfg.GroupID {
		return
	}
	switch m.Type {
	case msgPropose:
		c.handlePropose(m)
	case msgProposeBatch:
		c.handleProposeBatch(m)
	case msgPhase1b:
		c.handlePhase1b(m)
	case msgPhase2b:
		c.handlePhase2b(m)
	case msgNack:
		c.handleNack(m)
	case msgDecision:
		c.storeDecision(m.Instance, m.Value)
	case msgLearnReq:
		c.handleLearnReq(m)
	case msgHeartbeat:
		c.handleHeartbeat(m)
	default:
	}
}

func (c *Coordinator) handlePropose(m *message) {
	if !c.leader && !c.preparing {
		// Forward once to the believed leader; afterwards the value is
		// dropped and client-level retransmission recovers it.
		if m.Flags&flagForwarded != 0 {
			return
		}
		target := c.cfg.Candidates[c.believedLeader%len(c.cfg.Candidates)]
		if target == c.cfg.Candidates[c.cfg.CandidateIdx] {
			return
		}
		fwd := *m
		fwd.Flags |= flagForwarded
		_ = c.cfg.Transport.Send(target, encodeMessage(&fwd))
		return
	}
	// Leaders (and candidates mid-phase-1) buffer the value.
	c.inFrames.Add(1)
	c.inCommands.Add(1)
	c.admit(m.Value)
}

// handleProposeBatch admits a proxy-sealed batch: the frame's value is
// a batch encoding whose items are individual proposal values. The
// leader unpacks it into the current consensus batch, so admission
// cost per command shrinks to decode-plus-append while flush
// thresholds, slot accounting (per command, in flush), optimistic
// delivery and skip suppression behave exactly as if the commands had
// arrived one frame each.
func (c *Coordinator) handleProposeBatch(m *message) {
	if !c.leader && !c.preparing {
		if m.Flags&flagForwarded != 0 {
			return
		}
		target := c.cfg.Candidates[c.believedLeader%len(c.cfg.Candidates)]
		if target == c.cfg.Candidates[c.cfg.CandidateIdx] {
			return
		}
		fwd := *m
		fwd.Flags |= flagForwarded
		_ = c.cfg.Transport.Send(target, encodeMessage(&fwd))
		return
	}
	b := &c.propBatch
	if err := decodeBatchInto(b, m.Value); err != nil || b.Skip {
		return
	}
	c.inFrames.Add(1)
	c.inCommands.Add(uint64(len(b.Items)))
	for _, item := range b.Items {
		c.admit(item)
	}
	clear(b.Items) // the items alias the frame: do not keep it alive
}

// admit buffers one proposal value into the current batch, flushing on
// the size threshold.
func (c *Coordinator) admit(value []byte) {
	c.cfg.Trace.Stamp(obs.StageLeaderAdmit, value)
	if len(c.curItems) == 0 {
		c.flushTimer.Reset(c.cfg.FlushInterval)
	}
	c.curItems = append(c.curItems, value)
	c.curBytes += len(value)
	if c.curBytes >= c.cfg.BatchMaxBytes {
		c.flush()
	}
}

// flush encodes the current batch and proposes it (or backlogs it when
// the window is full).
func (c *Coordinator) flush() {
	if len(c.curItems) == 0 {
		return
	}
	value := EncodeBatch(&Batch{Items: c.curItems})
	c.cfg.Journal.Emit(obs.EvLeaderFlush, uint64(len(c.curItems)), uint64(c.curBytes))
	// One merge slot per command (not per batch): slot accounting must
	// match the receivers' command-granular merge.
	c.slotsSinceTick += uint32(len(c.curItems))
	// EncodeBatch copied the items: reuse the slice, dropping the
	// references so flushed frames are not kept alive.
	clear(c.curItems)
	c.curItems = c.curItems[:0]
	c.curBytes = 0
	c.flushTimer.Stop()
	c.proposeValue(value)
}

func (c *Coordinator) proposeValue(value []byte) {
	if !c.leader {
		c.backlog = append(c.backlog, value)
		return
	}
	if len(c.pending) >= c.cfg.Window {
		c.backlog = append(c.backlog, value)
		return
	}
	inst := c.nextInstance
	c.nextInstance++
	c.pending[inst] = &pendingInstance{value: value, acks: make(map[uint32]bool, len(c.cfg.Acceptors))}
	// Optimistic delivery: push the value to the learners BEFORE phase 2
	// runs on it. Emitting at instance-assignment time means the
	// optimistic sequence is exactly the leader's proposal order
	// (backlogged values included), so under a stable leader the
	// optimistic stream predicts the decided order. Skip batches carry
	// no commands and are not announced.
	if c.cfg.Optimistic && len(value) > 0 && value[0] == batchKindNormal {
		m := &message{
			Type:     msgOptimistic,
			Group:    c.cfg.GroupID,
			Ballot:   c.ballot,
			Instance: c.optSeq,
			Value:    value,
		}
		frame := encodeMessage(m)
		frame = appendBatchTags(c.cfg.Trace, frame, value)
		if n := len(c.cfg.Relays); n > 0 {
			_ = c.cfg.Transport.Send(c.cfg.Relays[c.optSeq%uint64(n)], frame)
		} else {
			for _, l := range c.cfg.Learners {
				_ = c.cfg.Transport.Send(l, frame)
			}
		}
		c.optSeq++
	}
	c.sendPhase2a(inst, value)
}

func (c *Coordinator) sendPhase2a(inst uint64, value []byte) {
	m := &message{
		Type:     msgPhase2a,
		Group:    c.cfg.GroupID,
		Ballot:   c.ballot,
		Instance: inst,
		Addr:     ProtoAddr(c.cfg.Candidates[c.cfg.CandidateIdx]),
		Value:    value,
	}
	frame := encodeMessage(m)
	for _, acc := range c.cfg.Acceptors {
		_ = c.cfg.Transport.Send(acc, frame)
	}
}

func (c *Coordinator) handlePhase2b(m *message) {
	if !c.leader || m.Ballot != c.ballot {
		return
	}
	p, ok := c.pending[m.Instance]
	if !ok {
		return
	}
	p.acks[m.Acceptor] = true
	if len(p.acks) < c.quorum() {
		return
	}
	delete(c.pending, m.Instance)
	c.decide(m.Instance, p.value)
	c.drainBacklog()
}

func (c *Coordinator) decide(inst uint64, value []byte) {
	if tr := c.cfg.Trace; tr != nil {
		WalkBatchItems(value, func(item []byte) { tr.Stamp(obs.StageDecided, item) })
	}
	c.decided.Add(1)
	c.cfg.Journal.Emit(obs.EvDecide, uint64(c.cfg.GroupID), inst)
	c.storeDecision(inst, value)
	m := &message{
		Type:     msgDecision,
		Group:    c.cfg.GroupID,
		Instance: inst,
		Value:    value,
	}
	frame := encodeMessage(m)
	frame = appendBatchTags(c.cfg.Trace, frame, value)
	// Striped fan-out: with relays configured the leader hands each
	// decision to exactly one relay, which re-broadcasts to all
	// learners. Learners tolerate the resulting cross-stripe reordering
	// (out-of-order buffer) and recover a lost stripe through gap
	// retransmission against the coordinator.
	if n := len(c.cfg.Relays); n > 0 {
		_ = c.cfg.Transport.Send(c.cfg.Relays[inst%uint64(n)], frame)
		return
	}
	for _, l := range c.cfg.Learners {
		_ = c.cfg.Transport.Send(l, frame)
	}
}

// appendBatchTags appends the trace-context tag of every sampled
// command in the batch-encoded value to frame, so decision/optimistic
// frames carry the accumulated stamps to out-of-process learners. A
// no-op with a nil tracer or when nothing in the batch is sampled.
func appendBatchTags(tr *obs.Tracer, frame, value []byte) []byte {
	if tr == nil {
		return frame
	}
	WalkBatchItems(value, func(item []byte) {
		frame = tr.AppendTagForValue(frame, item)
	})
	return frame
}

func (c *Coordinator) storeDecision(inst uint64, value []byte) {
	if inst < c.trimBelow {
		return
	}
	if _, ok := c.decisions[inst]; ok {
		return
	}
	c.decisions[inst] = value
	for {
		if _, ok := c.decisions[c.frontier]; !ok {
			break
		}
		c.frontier++
	}
	if c.nextInstance < c.frontier {
		c.nextInstance = c.frontier
	}
	// Amortised sweep of entries older than the retention window.
	c.sinceSweep++
	if c.sinceSweep >= 1024 {
		c.sinceSweep = 0
		if c.frontier > uint64(c.cfg.RetainDecisions) {
			newTrim := c.frontier - uint64(c.cfg.RetainDecisions)
			if newTrim > c.trimBelow {
				for inst := range c.decisions {
					if inst < newTrim {
						delete(c.decisions, inst)
					}
				}
				c.trimBelow = newTrim
			}
		}
	}
}

func (c *Coordinator) drainBacklog() {
	for len(c.backlog) > 0 && len(c.pending) < c.cfg.Window && c.leader {
		value := c.backlog[0]
		c.backlog[0] = nil
		c.backlog = c.backlog[1:]
		if len(c.backlog) == 0 {
			c.backlog = nil
		}
		c.proposeValue(value)
	}
}

func (c *Coordinator) handleNack(m *message) {
	if m.Ballot > c.highestSeen {
		c.highestSeen = m.Ballot
	}
	if (c.leader || c.preparing) && m.Ballot > c.ballot {
		// Deposed: another candidate holds a higher ballot.
		c.leader = false
		c.preparing = false
		c.believedLeader = m.Ballot.Candidate()
		c.lastHeartbeat = time.Now()
	}
}

func (c *Coordinator) handleHeartbeat(m *message) {
	if m.Ballot > c.highestSeen {
		c.highestSeen = m.Ballot
	}
	if m.Ballot >= c.ballot {
		c.lastHeartbeat = time.Now()
		c.believedLeader = m.Ballot.Candidate()
		if (c.leader || c.preparing) && m.Ballot > c.ballot {
			c.leader = false
			c.preparing = false
		}
	}
}

func (c *Coordinator) handleLearnReq(m *message) {
	const maxResend = 1024
	to := m.To
	if to >= m.Instance+maxResend {
		to = m.Instance + maxResend - 1
	}
	for inst := m.Instance; inst <= to; inst++ {
		value, ok := c.decisions[inst]
		if !ok {
			continue
		}
		_ = c.cfg.Transport.Send(m.Addr, encodeMessage(&message{
			Type:     msgDecision,
			Group:    c.cfg.GroupID,
			Instance: inst,
			Value:    value,
		}))
	}
}

// skipTick pads the group's slot rate: if fewer than SkipSlots merge
// slots were produced by real traffic since the last tick, a skip batch
// covers the deficit. Busy groups (or groups with queued work) produce
// slots on their own and are not padded.
func (c *Coordinator) skipTick() {
	produced := c.slotsSinceTick
	c.slotsSinceTick = 0
	if !c.leader || len(c.backlog) > 0 || len(c.pending) >= c.cfg.Window {
		return
	}
	if produced >= c.cfg.SkipSlots {
		return
	}
	// Flush any half-built batch first so its commands are not delayed
	// behind the skip.
	c.flush()
	value := EncodeBatch(&Batch{Skip: true, SkipSlots: c.cfg.SkipSlots - produced})
	c.proposeValue(value)
}

func (c *Coordinator) heartbeatTick() {
	if c.leader {
		m := &message{
			Type:     msgHeartbeat,
			Group:    c.cfg.GroupID,
			Ballot:   c.ballot,
			Instance: c.nextInstance,
		}
		frame := encodeMessage(m)
		for i, cand := range c.cfg.Candidates {
			if i == c.cfg.CandidateIdx {
				continue
			}
			_ = c.cfg.Transport.Send(ProtoAddr(cand), frame)
		}
		return
	}
	if c.preparing || len(c.cfg.Candidates) == 1 {
		return
	}
	// Standby: take over when the leader has been silent for the
	// timeout, scaled by this candidate's distance from the believed
	// leader so closer standbys move first.
	n := len(c.cfg.Candidates)
	dist := (c.cfg.CandidateIdx - c.believedLeader + n) % n
	if dist == 0 {
		dist = n
	}
	timeout := c.cfg.TakeoverTimeout * time.Duration(dist)
	if time.Since(c.lastHeartbeat) >= timeout {
		c.startPhase1()
	}
}

func (c *Coordinator) startPhase1() {
	round := c.highestSeen.Round() + 1
	if r := c.ballot.Round() + 1; r > round {
		round = r
	}
	c.ballot = MakeBallot(round, c.cfg.CandidateIdx)
	c.highestSeen = c.ballot
	c.preparing = true
	c.leader = false
	c.p1Acks = make(map[uint32]bool, len(c.cfg.Acceptors))
	c.p1Entries = make(map[uint64]acceptedEntry)
	m := &message{
		Type:     msgPhase1a,
		Group:    c.cfg.GroupID,
		Ballot:   c.ballot,
		Instance: c.frontier, // learn everything at or past our decided frontier
		Addr:     ProtoAddr(c.cfg.Candidates[c.cfg.CandidateIdx]),
	}
	frame := encodeMessage(m)
	for _, acc := range c.cfg.Acceptors {
		_ = c.cfg.Transport.Send(acc, frame)
	}
}

func (c *Coordinator) handlePhase1b(m *message) {
	if !c.preparing || m.Ballot != c.ballot {
		return
	}
	if c.p1Acks[m.Acceptor] {
		return
	}
	c.p1Acks[m.Acceptor] = true
	for _, e := range m.Entries {
		cur, ok := c.p1Entries[e.Instance]
		if !ok || e.Ballot > cur.Ballot {
			c.p1Entries[e.Instance] = e
		}
	}
	if len(c.p1Acks) < c.quorum() {
		return
	}
	// Quorum promised: become leader and complete in-flight instances.
	c.preparing = false
	c.leader = true
	c.believedLeader = c.cfg.CandidateIdx
	c.pending = make(map[uint64]*pendingInstance)

	insts := make([]uint64, 0, len(c.p1Entries))
	for inst := range c.p1Entries {
		if inst >= c.frontier {
			insts = append(insts, inst)
		}
	}
	sort.Slice(insts, func(i, j int) bool { return insts[i] < insts[j] })
	c.nextInstance = c.frontier
	for _, inst := range insts {
		if inst+1 > c.nextInstance {
			c.nextInstance = inst + 1
		}
	}
	for _, inst := range insts {
		e := c.p1Entries[inst]
		c.pending[inst] = &pendingInstance{value: e.Value, acks: make(map[uint32]bool, len(c.cfg.Acceptors))}
		c.sendPhase2a(inst, e.Value)
	}
	// Fill holes left between re-proposed instances with empty batches
	// so learners do not stall forever on gaps.
	have := make(map[uint64]bool, len(insts))
	for _, inst := range insts {
		have[inst] = true
	}
	for inst := c.frontier; inst < c.nextInstance; inst++ {
		if have[inst] {
			continue
		}
		if _, decided := c.decisions[inst]; decided {
			continue
		}
		value := EncodeBatch(&Batch{Items: nil})
		c.pending[inst] = &pendingInstance{value: value, acks: make(map[uint32]bool, len(c.cfg.Acceptors))}
		c.sendPhase2a(inst, value)
	}
	c.p1Entries = nil
	c.p1Acks = nil
	c.drainBacklog()
}

func (c *Coordinator) quorum() int { return len(c.cfg.Acceptors)/2 + 1 }
