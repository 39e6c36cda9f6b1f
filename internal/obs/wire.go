package obs

import (
	"encoding/binary"
	"math/bits"
	"time"

	"github.com/psmr/psmr/internal/command"
)

// Wire-level trace-context propagation (Dapper-style): a sampled
// command's trace must survive process boundaries, so the stamping
// process folds its per-stage timestamps into origin-relative DURATIONS
// and ships them as a compact tag appended to the carrying frame. The
// receiving process reconstructs the stamps against its own clock
// (durations are clock-skew-free; only the network hop between the last
// shipped stamp and the absorb point is folded out), so every stage a
// command crossed — client submit, proxy seal, leader admit, decide,
// delivery, execution, confirmation — lands in ONE trace even when
// client, proxies, coordinators and replicas are separate OS processes.
//
// Tag layout, appended after the complete frame:
//
//	frame || ctx || ctxLen(u16 BE) || 0xB7 0x5C
//	ctx = client(u64 LE) || seq(u64 LE) || stageBits(u16 LE)
//	      || one u64 LE duration (ns since trace origin) per set stage
//	      bit, ascending stage order
//
// The tag is strictly a trailer: every frame codec in the stack reads
// its payload by explicit lengths and ignores trailing bytes, so tagged
// frames parse identically everywhere, including processes that predate
// (or disabled) tracing. False positives are impossible on the frame
// types that carry tags: untagged Propose/ProposeBatch/Decision/
// Optimistic frames all end in a zero u32 entry count, which can never
// match the nonzero magic bytes; SplitWireTag additionally validates
// the stage bitmap range and the exact bitmap↔length correspondence.
const (
	wireMagic0 = 0xB7
	wireMagic1 = 0x5C
	// wireCtxFixed is the fixed ctx prefix: client + seq + stage bitmap.
	wireCtxFixed = 8 + 8 + 2
	// wireTrailer is the non-ctx suffix: ctxLen + the two magic bytes.
	wireTrailer = 2 + 2
)

// WireTag is the decoded trace-context tag of one frame: the request
// identity plus the origin-relative durations of every stage the
// stamping process saw.
type WireTag struct {
	Client, Seq uint64
	// Stages is the stage bitmap: bit i set means Durations[i] is
	// valid.
	Stages uint16
	// Durations are nanoseconds since the trace's origin (its first
	// stamp); only entries whose Stages bit is set are meaningful.
	Durations [NumStages]int64
}

// AppendWireTag appends tag to frame and returns the extended slice.
// Tags with an empty stage bitmap are not appended (nothing to ship).
func AppendWireTag(frame []byte, tag WireTag) []byte {
	if tag.Stages == 0 || tag.Stages >= 1<<NumStages {
		return frame
	}
	ctxLen := wireCtxFixed + 8*bits.OnesCount16(tag.Stages)
	out := frame
	out = binary.LittleEndian.AppendUint64(out, tag.Client)
	out = binary.LittleEndian.AppendUint64(out, tag.Seq)
	out = binary.LittleEndian.AppendUint16(out, tag.Stages)
	for i := 0; i < NumStages; i++ {
		if tag.Stages&(1<<uint(i)) != 0 {
			out = binary.LittleEndian.AppendUint64(out, uint64(tag.Durations[i]))
		}
	}
	out = binary.BigEndian.AppendUint16(out, uint16(ctxLen))
	return append(out, wireMagic0, wireMagic1)
}

// SplitWireTag detects and strips a trace-context tag: it returns the
// decoded tag and the frame without its trailer, or ok=false (frame
// returned unchanged as rest) when no structurally valid tag is
// present.
func SplitWireTag(frame []byte) (tag WireTag, rest []byte, ok bool) {
	n := len(frame)
	if n < wireCtxFixed+wireTrailer {
		return WireTag{}, frame, false
	}
	if frame[n-2] != wireMagic0 || frame[n-1] != wireMagic1 {
		return WireTag{}, frame, false
	}
	ctxLen := int(binary.BigEndian.Uint16(frame[n-4 : n-2]))
	if ctxLen < wireCtxFixed || ctxLen+wireTrailer > n {
		return WireTag{}, frame, false
	}
	ctx := frame[n-wireTrailer-ctxLen : n-wireTrailer]
	stages := binary.LittleEndian.Uint16(ctx[16:18])
	if stages == 0 || stages >= 1<<NumStages {
		return WireTag{}, frame, false
	}
	if ctxLen != wireCtxFixed+8*bits.OnesCount16(stages) {
		return WireTag{}, frame, false
	}
	tag = WireTag{
		Client: binary.LittleEndian.Uint64(ctx[0:8]),
		Seq:    binary.LittleEndian.Uint64(ctx[8:16]),
		Stages: stages,
	}
	off := wireCtxFixed
	for i := 0; i < NumStages; i++ {
		if stages&(1<<uint(i)) != 0 {
			tag.Durations[i] = int64(binary.LittleEndian.Uint64(ctx[off : off+8]))
			off += 8
		}
	}
	return tag, frame[:n-wireTrailer-ctxLen], true
}

// SampledID reports whether the request id is selected by the tracer's
// deterministic sampling. False on a nil tracer.
func (t *Tracer) SampledID(client, seq uint64) bool {
	if t == nil {
		return false
	}
	h := traceHash(client, seq)
	return t.sample <= 1 || h%t.sample == 0
}

// AppendTag appends the trace-context tag of a sampled in-flight trace
// to frame and returns the (possibly extended) slice. Non-sampled ids,
// traces with no local stamps, and nil tracers return frame unchanged.
//
// The slot read races with concurrent stamping and (rarely) slot
// reuse; a torn read can at worst ship a stray duration, which the
// receiver's first-write-wins seeding bounds to one bogus stamp on a
// diagnostics-grade path.
func (t *Tracer) AppendTag(frame []byte, client, seq uint64) []byte {
	if t == nil {
		return frame
	}
	h := traceHash(client, seq)
	if t.sample > 1 && h%t.sample != 0 {
		return frame
	}
	s := t.findSlot(h | 1)
	if s == nil {
		return frame
	}
	origin := s.origin.Load()
	tag := WireTag{Client: client, Seq: seq}
	for i := range s.ts {
		ts := s.ts[i].Load()
		if ts == 0 || ts < origin {
			continue
		}
		tag.Stages |= 1 << uint(i)
		tag.Durations[i] = ts - origin
	}
	if tag.Stages == 0 {
		return frame
	}
	return AppendWireTag(frame, tag)
}

// AppendTagForValue tags frame with the trace context of the request
// encoded in value (a frame payload or batch item starting with an
// encoded command.Request). Non-request values return frame unchanged.
func (t *Tracer) AppendTagForValue(frame, value []byte) []byte {
	if t == nil {
		return frame
	}
	client, seq, ok := command.PeekRequestID(value)
	if !ok {
		return frame
	}
	return t.AppendTag(frame, client, seq)
}

// AbsorbTag detects a trace-context tag on frame, merges the shipped
// stamps into the local tracer, and returns the frame with the tag
// stripped. Frames without a valid tag (and all frames on a nil
// tracer) are returned unchanged — the tag parses as ignorable
// trailing bytes everywhere, so absorbing is an optimization of
// fidelity, never a requirement of correctness.
//
// Reconstruction: the shipped durations are origin-relative, so the
// absorber anchors the NEWEST shipped stamp at its own "now" and seeds
// earlier stamps behind it (first-write-wins, like direct stamping).
// Durations between shipped stamps are exact; the network hop between
// the last remote stamp and this absorb collapses to zero — the
// unavoidable price of not assuming synchronized clocks.
func (t *Tracer) AbsorbTag(frame []byte) []byte {
	if t == nil {
		return frame
	}
	tag, rest, ok := SplitWireTag(frame)
	if !ok {
		return frame
	}
	h := traceHash(tag.Client, tag.Seq)
	if t.sample > 1 && h%t.sample != 0 {
		// A peer with a different sampling divisor tagged this frame;
		// strip the tag but keep the local table consistent with local
		// sampling.
		return rest
	}
	now := int64(time.Since(t.base))
	s, fresh := t.claimSlot(h|1, now)
	if s == nil {
		return rest
	}
	if fresh {
		// Anchor the trace's origin so the newest shipped stamp maps to
		// the absorb instant; clamp to 1 so a reconstructed stamp can
		// never collide with the 0 "never crossed" sentinel.
		var maxD int64
		for i := range tag.Durations {
			if tag.Stages&(1<<uint(i)) != 0 && tag.Durations[i] > maxD {
				maxD = tag.Durations[i]
			}
		}
		origin := now - maxD
		if origin < 1 {
			origin = 1
		}
		s.origin.Store(origin)
	}
	origin := s.origin.Load()
	for i := range tag.Durations {
		if tag.Stages&(1<<uint(i)) == 0 || tag.Durations[i] < 0 {
			continue
		}
		s.ts[i].CompareAndSwap(0, origin+tag.Durations[i])
	}
	return rest
}

// AbsorbTags absorbs every stacked trace-context tag on frame (batch
// frames carry one tag per sampled command) and returns the frame
// with all of them stripped. Nil-tracer and untagged frames return
// unchanged.
func (t *Tracer) AbsorbTags(frame []byte) []byte {
	for {
		out := t.AbsorbTag(frame)
		if len(out) == len(frame) {
			return out
		}
		frame = out
	}
}
