// Package multicast implements the atomic multicast library of paper
// §VI-A: the abstraction of multicast groups built by composing
// parallel, independent Paxos instance sequences — one per group — plus
// a deterministic merge at the receivers.
//
// A message is addressed to a single group (exactly like the paper's
// prototype). Receivers that subscribe to several groups consume them
// through a Merger, which interleaves the groups' decision sequences by
// weighted round-robin. Because the interleaving is a pure function of
// the per-group sequences — never of arrival timing — every receiver
// with the same subscription set delivers the same merged order, which
// is the property P-SMR's correctness argument relies on (§IV-E).
//
// Idle or slow groups would stall the merge, so group coordinators pad
// their sequences with skip batches up to the merge weight per skip
// interval (the Multi-Ring Paxos mechanism, reference [9] of the
// paper). The merger consumes and discards skips.
package multicast

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/psmr/psmr/internal/obs"
	"github.com/psmr/psmr/internal/paxos"
	"github.com/psmr/psmr/internal/transport"
)

// ErrProxyDown reports that a multicast could not be handed to any
// configured proxy: every proxy send failed. It is distinct from the
// best-effort nil of a successful (but possibly lost) send so clients
// can fail fast — and retry elsewhere — when the whole proxy tier is
// unreachable.
var ErrProxyDown = errors.New("multicast: no proxy reachable")

// GroupConfig names the endpoints of one multicast group.
type GroupConfig struct {
	// ID is the group's Paxos group id (unique across the deployment).
	ID uint32
	// Coordinators are the group's coordinator candidates in take-over
	// order.
	Coordinators []transport.Addr
	// Acceptors are the group's acceptors.
	Acceptors []transport.Addr
}

// Sender multicasts payloads to groups. It is safe for concurrent use.
// Sending is best-effort (like the underlying transport); end-to-end
// retry lives in the client proxy, which also calls RotateLeader when
// responses stop arriving.
type Sender struct {
	tr       transport.Transport
	groups   []GroupConfig
	believed []atomic.Int32 // believed leader per group

	// Proxy tier (optional): when set, proposals go to a proxy instead
	// of a coordinator; the proxy batches and forwards them. curProxy
	// tracks the proxy currently in use.
	proxies  []transport.Addr
	curProxy atomic.Uint32

	// trace optionally stamps sampled payloads at the submit stage.
	trace *obs.Tracer
}

// NewSender builds a sender over the given groups. Group g in Multicast
// refers to groups[g].
func NewSender(tr transport.Transport, groups []GroupConfig) *Sender {
	return &Sender{
		tr:       tr,
		groups:   groups,
		believed: make([]atomic.Int32, len(groups)),
	}
}

// UseProxies routes all subsequent multicasts through the proxy tier:
// each proposal is sent to one proxy (rotating to a survivor when a
// send fails) instead of directly to a group coordinator. Call before
// the sender is shared across goroutines.
func (s *Sender) UseProxies(proxies []transport.Addr) {
	s.proxies = proxies
}

// SetTracer attaches a pipeline tracer: every multicast payload (an
// encoded request) is stamped at the submit stage. Call before the
// sender is shared across goroutines.
func (s *Sender) SetTracer(t *obs.Tracer) { s.trace = t }

// Groups returns the number of configured groups.
func (s *Sender) Groups() int { return len(s.groups) }

// Multicast proposes payload for total ordering within group g. With a
// proxy tier configured it tries every proxy (starting from the one
// last known good) before giving up with ErrProxyDown; without one the
// send goes straight to the group's believed coordinator.
func (s *Sender) Multicast(g int, payload []byte) error {
	if g < 0 || g >= len(s.groups) {
		return fmt.Errorf("multicast: group %d outside [0,%d)", g, len(s.groups))
	}
	frame, value := s.NewFrame(g, len(payload))
	copy(value, payload)
	return s.Send(g, frame)
}

// NewFrame allocates an exactly-sized Propose frame for a payload of n
// bytes addressed to group g, and returns it with the payload window
// inside it. Callers encode the payload straight into the window and
// hand the frame to Send — as often as they retransmit it: frames given
// to the transport belong to the receiver, so the frame must not be
// modified or reused for anything else afterwards. g must be a valid
// group index.
func (s *Sender) NewFrame(g, n int) (frame, payload []byte) {
	return paxos.AllocProposeFrame(s.groups[g].ID, n)
}

// Send multicasts a frame built by NewFrame for the same group g (see
// Multicast for the routing and error behaviour).
func (s *Sender) Send(g int, frame []byte) error {
	if g < 0 || g >= len(s.groups) {
		return fmt.Errorf("multicast: group %d outside [0,%d)", g, len(s.groups))
	}
	grp := &s.groups[g]
	if s.trace != nil {
		if _, payload, ok := paxos.ParsePropose(frame); ok {
			// Submit-stage stamp: first-write-wins in the tracer, so the
			// retransmission path keeps the original submit time.
			s.trace.Stamp(obs.StageSubmit, payload)
			// Ship the submit stamp on the wire so out-of-process
			// proxies and coordinators fold this hop into the same
			// trace (no-op when the request is not sampled). The clip
			// makes a tagged frame a copy: the caller keeps the
			// untagged one for retransmission.
			frame = s.trace.AppendTagForValue(frame[:len(frame):len(frame)], payload)
		}
	}
	if n := len(s.proxies); n > 0 {
		start := s.curProxy.Load()
		var lastErr error
		for i := 0; i < n; i++ {
			idx := int((start + uint32(i)) % uint32(n))
			if err := s.tr.Send(s.proxies[idx], frame); err == nil {
				if i > 0 {
					s.curProxy.Store(uint32(idx))
				}
				return nil
			} else {
				lastErr = err
			}
		}
		return fmt.Errorf("%w: %v", ErrProxyDown, lastErr)
	}
	leader := int(s.believed[g].Load()) % len(grp.Coordinators)
	return s.tr.Send(grp.Coordinators[leader], frame)
}

// RotateLeader switches the believed leader of group g to the next
// candidate; client proxies call it when requests time out. With a
// proxy tier it also rotates the proxy in use, covering the case of a
// proxy that accepts frames but no longer forwards them.
func (s *Sender) RotateLeader(g int) {
	if g < 0 || g >= len(s.groups) {
		return
	}
	s.believed[g].Add(1)
	if len(s.proxies) > 0 {
		s.curProxy.Add(1)
	}
}

// Item is one delivered payload with its provenance, used by receivers
// and tests.
type Item struct {
	// Payload is the multicast message.
	Payload []byte
	// Stream is the index (within the merger's subscription list) of
	// the group the payload arrived on.
	Stream int
	// Instance is the Paxos instance of the batch that carried it.
	Instance uint64
	// Last marks the final payload of its batch — the consensus-log
	// position boundary coordinated checkpoints snapshot at.
	Last bool
}

// Merger deterministically interleaves the decision streams of several
// groups: up to Weight slots from stream 0, then up to Weight from
// stream 1, and so on, cyclically. One slot is one command — not one
// batch — so a large batch spans turns and a busy stream cannot hold
// the merge for longer than Weight commands; this bounds how stale a
// worker's view of the shared serial group can get, which in turn
// bounds synchronous-mode rendezvous latency. Skip batches consume
// SkipSlots slots and deliver nothing; an empty batch (a recovery
// hole-filler) consumes one slot.
//
// Merger is not safe for concurrent use: each worker owns one.
type Merger struct {
	cursors []*paxos.Cursor
	weight  uint32

	cur     int      // current stream
	quota   uint32   // slots left in the current stream's turn
	carry   []uint32 // per-stream leftover skip slots
	pending [][]Item // per-stream items of partially consumed batches
}

// NewMerger builds a merger over cursors (one per subscribed group, in
// a fixed order that must be identical at every replica — use ascending
// group id). weight is the number of command slots per stream per
// round and must match the coordinators' skip slot rate.
func NewMerger(cursors []*paxos.Cursor, weight int) *Merger {
	if weight < 1 {
		weight = 1
	}
	return &Merger{
		cursors: cursors,
		weight:  uint32(weight),
		quota:   uint32(weight),
		carry:   make([]uint32, len(cursors)),
		pending: make([][]Item, len(cursors)),
	}
}

// Next blocks until the next payload in merged order is available. ok
// is false once any subscribed stream closes.
func (m *Merger) Next() (Item, bool) {
	for {
		if m.quota == 0 {
			m.quota = m.weight
			m.cur = (m.cur + 1) % len(m.cursors)
		}
		// Deliver queued items of the current stream first.
		if q := m.pending[m.cur]; len(q) > 0 {
			it := q[0]
			q[0] = Item{}
			m.pending[m.cur] = q[1:]
			m.quota--
			return it, true
		}
		// Consume leftover skip slots.
		if m.carry[m.cur] > 0 {
			used := m.carry[m.cur]
			if used > m.quota {
				used = m.quota
			}
			m.carry[m.cur] -= used
			m.quota -= used
			continue
		}
		b, instance, ok := m.cursors[m.cur].Next()
		if !ok {
			return Item{}, false
		}
		if b.Skip {
			slots := b.SkipSlots
			if slots == 0 {
				slots = 1
			}
			m.carry[m.cur] += slots
			continue
		}
		if len(b.Items) == 0 {
			// Recovery hole-filler: costs one slot so a stream of them
			// cannot capture the merge.
			if m.quota > 0 {
				m.quota--
			}
			continue
		}
		items := make([]Item, len(b.Items))
		for i, payload := range b.Items {
			items[i] = Item{Payload: payload, Stream: m.cur, Instance: instance}
		}
		items[len(items)-1].Last = true
		m.pending[m.cur] = items
	}
}
