// Package command defines the service abstraction shared by every
// replication technique in this repository (P-SMR, sP-SMR, SMR, no-rep,
// lockstore) plus the wire formats for client requests and responses.
//
// A replicated service is a deterministic state machine: Execute must
// depend only on the current state and the command, never on wall-clock
// time, randomness, or goroutine identity (paper §III).
//
// Buffer ownership on the wire path:
//
//   - A decoded Request aliases the frame it was decoded from: Input is
//     a sub-slice of the frame, so the frame must stay unmodified for as
//     long as the request (or anything the service retained from its
//     input) is live. Decoders slab-allocate requests per decided batch
//     or reuse one per worker; a Request is never shared across frames.
//   - Reply may be interned: DecodeRequestInto with an Interner returns
//     a cached string equal to the frame's address bytes instead of
//     copying them, so a decoder that keeps seeing the same clients
//     converts each address once.
//   - A frame handed to Transport.Send belongs to the receiver from then
//     on (the in-process network delivers the same backing array, and
//     senders keep request frames for retransmission). Send buffers are
//     therefore allocated once, exactly sized, and never pooled, and no
//     decoder aliases frame bytes as a string through unsafe.
package command

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"github.com/psmr/psmr/internal/mvstore"
	"github.com/psmr/psmr/internal/transport"
)

// ID identifies a command type of a service (e.g. kvstore read).
type ID uint16

// Service is a deterministic state machine. Implementations must be safe
// for the concurrency promised by their dependency specification: two
// commands declared independent may run concurrently on different worker
// threads, while dependent commands are never concurrent.
type Service interface {
	// Execute applies one command and returns its response payload.
	Execute(cmd ID, input []byte) []byte
}

// Versioned is a state machine whose state lives behind multi-version
// stores (internal/mvstore): speculative executions land their writes
// as uncommitted versions tagged with a speculation epoch, reads
// resolve through (newest uncommitted | committed tip), Commit
// promotes an epoch's versions into committed state and Abort drops
// them — in O(keys the epoch touched), independent of store size.
//
// Optimistic execution uses it to speculate on the unordered stream
// and roll back the minimal conflicting suffix when the decided order
// disagrees: the executor assigns each admitted command a fresh epoch,
// runs it via SpeculateAt, then Commits the epoch when the decided
// order confirms the speculation or Aborts it (newest-first across the
// tainted suffix) when it does not. Epoch mvstore.Committed executes
// directly against committed state — the non-speculative path.
//
// Callers guarantee conflict-serial execution: two commands touching
// the same key never run SpeculateAt concurrently, and Abort only runs
// on a quiesced machine, newest-epoch-first. See the mvstore package
// doc for why that makes the read rule and commit/abort sound.
type Versioned interface {
	Service
	// SpeculateAt applies cmd at epoch e and returns its output.
	// SpeculateAt(Committed, ...) must be equivalent to Execute.
	SpeculateAt(e mvstore.Epoch, cmd ID, input []byte) []byte
	// Commit promotes epoch e's uncommitted versions into the
	// committed state.
	Commit(e mvstore.Epoch)
	// Abort drops epoch e's uncommitted versions.
	Abort(e mvstore.Epoch)
	// Uncommitted reports the total number of uncommitted versions
	// across the service's stores (0 on a fully reconciled machine).
	Uncommitted() int
}

// Snapshotter is a state machine whose whole state can be serialized
// and restored. The checkpoint subsystem uses it for coordinated
// checkpoints (a snapshot taken while every worker thread is quiesced
// at one deterministic log position) and for replica recovery (a
// restarted or freshly added replica restores a peer's snapshot and
// replays the decided suffix).
//
// Snapshot is only called on a quiescent state machine and its
// encoding must be DETERMINISTIC: two replicas that applied the same
// command prefix must produce byte-identical snapshots, so a
// snapshot's hash doubles as a state fingerprint. Restore replaces the
// entire state with the snapshot's; a restored machine followed by the
// decided suffix must be indistinguishable from one that executed the
// whole log.
type Snapshotter interface {
	Service
	// Snapshot serializes the complete current state.
	Snapshot() []byte
	// Restore replaces the state with a previously taken snapshot.
	Restore(snap []byte) error
}

// Gamma is a destination set of worker threads encoded as a bitset:
// bit i set means worker/group i is a destination. The paper caps the
// multiprogramming level well below 64 (experiments use 8), so a single
// word suffices.
type Gamma uint64

// GammaOf builds a Gamma from worker indices.
func GammaOf(workers ...int) Gamma {
	var g Gamma
	for _, w := range workers {
		g |= 1 << uint(w)
	}
	return g
}

// AllWorkers returns the Gamma containing workers 0..k-1.
func AllWorkers(k int) Gamma {
	if k >= 64 {
		k = 64
	}
	return Gamma(1)<<uint(k) - 1
}

// Has reports whether worker i is a destination.
func (g Gamma) Has(i int) bool { return g&(1<<uint(i)) != 0 }

// Count returns the number of destination workers.
func (g Gamma) Count() int { return bits.OnesCount64(uint64(g)) }

// Min returns the lowest destination worker index; this is the thread
// the paper's Algorithm 1 picks deterministically to execute a
// synchronous-mode command (line 16). Min on the empty set returns -1.
func (g Gamma) Min() int {
	if g == 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(g))
}

// Member returns the (idx mod Count)-th destination in ascending
// order, or -1 on the empty set. It maps key hashes and random draws
// onto arbitrary worker sets, which is how the compiled route table
// drives the client-side C-G function for restricted sets.
func (g Gamma) Member(idx uint64) int {
	c := g.Count()
	if c == 0 {
		return -1
	}
	v := uint64(g)
	for idx %= uint64(c); idx > 0; idx-- {
		v &= v - 1
	}
	return bits.TrailingZeros64(v)
}

// Workers returns the destination indices in ascending order.
func (g Gamma) Workers() []int {
	ws := make([]int, 0, g.Count())
	for v := uint64(g); v != 0; v &= v - 1 {
		ws = append(ws, bits.TrailingZeros64(v))
	}
	return ws
}

// String renders the bitset as {i,j,...}.
func (g Gamma) String() string {
	return fmt.Sprintf("γ%v", g.Workers())
}

// Request is the unit a client proxy multicasts: one command invocation.
// Client+Seq form the request id used for response matching and
// at-most-once execution.
type Request struct {
	Client uint64
	Seq    uint64
	Cmd    ID
	Gamma  Gamma
	Input  []byte
	Reply  transport.Addr
}

// Response carries a command's output back to the client proxy.
type Response struct {
	Client uint64
	Seq    uint64
	Output []byte
}

var (
	// ErrShortBuffer reports a truncated or corrupt encoding.
	ErrShortBuffer = errors.New("command: short buffer")
)

// AppendRequest appends the wire encoding of r to buf, growing buf at
// most once (to exactly EncodedRequestSize(r) spare bytes).
func AppendRequest(buf []byte, r *Request) []byte {
	buf = slices.Grow(buf, EncodedRequestSize(r))
	buf = binary.LittleEndian.AppendUint64(buf, r.Client)
	buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(r.Cmd))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Gamma))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Input)))
	buf = append(buf, r.Input...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Reply)))
	buf = append(buf, r.Reply...)
	return buf
}

// EncodedRequestSize returns the encoded size of r without encoding it.
func EncodedRequestSize(r *Request) int {
	return requestHeader + len(r.Input) + 2 + len(r.Reply)
}

// requestHeader is the fixed prefix of an encoded request: client, seq,
// command id, γ and the input length.
const requestHeader = 8 + 8 + 2 + 8 + 4

// PeekRequestID reads the request id (Client, Seq) off an encoded
// Request without decoding the rest of the frame. ok is false when buf
// is shorter than the minimum request encoding — callers treating
// arbitrary values (which may not be request encodings at all) should
// pass such values through untouched rather than treat them as ids.
func PeekRequestID(buf []byte) (client, seq uint64, ok bool) {
	if len(buf) < requestHeader {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(buf[0:8]), binary.LittleEndian.Uint64(buf[8:16]), true
}

// DecodeRequest decodes one request from buf into a new Request,
// returning the remainder. The decoded request aliases buf; callers
// that retain it must not modify the buffer.
func DecodeRequest(buf []byte) (*Request, []byte, error) {
	r := new(Request)
	rest, err := DecodeRequestInto(r, buf, nil)
	if err != nil {
		return nil, nil, err
	}
	return r, rest, nil
}

// DecodeRequestInto decodes one request from buf into r and returns
// the remainder. Input aliases buf. Reply is interned through in when
// in is non-nil (see Interner) and copied otherwise, so with a warm
// interner the decode allocates nothing. On error r is left unchanged.
func DecodeRequestInto(r *Request, buf []byte, in *Interner) ([]byte, error) {
	if len(buf) < requestHeader {
		return nil, ErrShortBuffer
	}
	inLen := uint64(binary.LittleEndian.Uint32(buf[26:30]))
	body := buf[requestHeader:]
	if uint64(len(body)) < inLen+2 {
		return nil, ErrShortBuffer
	}
	replyLen := uint64(binary.LittleEndian.Uint16(body[inLen : inLen+2]))
	if uint64(len(body)) < inLen+2+replyLen {
		return nil, ErrShortBuffer
	}
	*r = Request{
		Client: binary.LittleEndian.Uint64(buf[0:8]),
		Seq:    binary.LittleEndian.Uint64(buf[8:16]),
		Cmd:    ID(binary.LittleEndian.Uint16(buf[16:18])),
		Gamma:  Gamma(binary.LittleEndian.Uint64(buf[18:26])),
		Input:  body[:inLen:inLen],
		Reply:  in.addr(body[inLen+2 : inLen+2+replyLen]),
	}
	return body[inLen+2+replyLen:], nil
}

// internSlot maps an address to its Interner slot (FNV-1a).
func internSlot(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	return h % internSlots
}

// internSlots sizes an Interner: a deployment's decoders see one reply
// address per client session, so a few dozen slots cover it.
const internSlots = 64

// Interner caches decoded reply addresses so a decoder that keeps
// seeing the same clients turns each address into a string once
// instead of once per request. It is a small direct-mapped table: a
// hit requires the cached string to equal the frame's bytes exactly, so
// two addresses sharing a slot only evict each other. The zero value is
// ready to use; an Interner is owned by one decoding goroutine and is
// not safe for concurrent use.
type Interner struct {
	slots [internSlots]transport.Addr
}

// addr returns b as an address, from the cache when possible. A nil
// interner always copies.
func (in *Interner) addr(b []byte) transport.Addr {
	if in == nil || len(b) == 0 {
		return transport.Addr(b)
	}
	slot := &in.slots[internSlot(b)]
	if string(*slot) == string(b) {
		return *slot
	}
	*slot = transport.Addr(b)
	return *slot
}

// AppendResponse appends the wire encoding of resp to buf, growing
// buf at most once (to exactly the encoded size).
func AppendResponse(buf []byte, resp *Response) []byte {
	buf = slices.Grow(buf, responseHeader+len(resp.Output))
	buf = binary.LittleEndian.AppendUint64(buf, resp.Client)
	buf = binary.LittleEndian.AppendUint64(buf, resp.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(resp.Output)))
	buf = append(buf, resp.Output...)
	return buf
}

// responseHeader is the fixed prefix of an encoded response: client,
// seq and the output length.
const responseHeader = 8 + 8 + 4

// DecodeResponse decodes a response frame. The output aliases buf.
func DecodeResponse(buf []byte) (*Response, error) {
	if len(buf) < responseHeader {
		return nil, ErrShortBuffer
	}
	resp := &Response{
		Client: binary.LittleEndian.Uint64(buf[0:8]),
		Seq:    binary.LittleEndian.Uint64(buf[8:16]),
	}
	outLen := int(binary.LittleEndian.Uint32(buf[16:20]))
	if len(buf) < 20+outLen {
		return nil, ErrShortBuffer
	}
	resp.Output = buf[20 : 20+outLen : 20+outLen]
	return resp, nil
}
