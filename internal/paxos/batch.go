package paxos

import (
	"encoding/binary"
	"errors"
)

// Batch is the unit of consensus: a coordinator groups proposals into
// batches of up to BatchMaxBytes and order is established on batches
// (paper §VI-A). A skip batch carries no payload; it only advances the
// group's sequence so deterministic merges over multiple groups never
// stall behind an idle group (Multi-Ring Paxos).
type Batch struct {
	// Skip marks an idle-group filler batch.
	Skip bool
	// SkipSlots is the number of logical merge slots the skip covers
	// (>= 1). Only meaningful when Skip is true.
	SkipSlots uint32
	// Items are the proposed values, in proposal order. Only meaningful
	// when Skip is false.
	Items [][]byte
}

const (
	batchKindNormal byte = 0
	batchKindSkip   byte = 1
)

// errBadBatch reports a corrupt batch encoding.
var errBadBatch = errors.New("paxos: bad batch encoding")

// EncodeBatch renders a batch as a consensus value.
func EncodeBatch(b *Batch) []byte {
	if b.Skip {
		buf := make([]byte, 5)
		buf[0] = batchKindSkip
		binary.LittleEndian.PutUint32(buf[1:], b.SkipSlots)
		return buf
	}
	size := 1 + 4
	for _, item := range b.Items {
		size += 4 + len(item)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, batchKindNormal)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.Items)))
	for _, item := range b.Items {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(item)))
		buf = append(buf, item...)
	}
	return buf
}

// WalkBatchItems calls fn for each item of an encoded normal batch
// without allocating (items alias buf). Skip batches and corrupt
// encodings walk zero items. Instrumentation paths that only need to
// peek at each item (e.g. pipeline-stage stamping on the decide path)
// use this instead of DecodeBatch, which allocates the item slice.
func WalkBatchItems(buf []byte, fn func(item []byte)) {
	if len(buf) < 5 || buf[0] != batchKindNormal {
		return
	}
	count := int(binary.LittleEndian.Uint32(buf[1:5]))
	rest := buf[5:]
	for i := 0; i < count; i++ {
		if len(rest) < 4 {
			return
		}
		l := int(binary.LittleEndian.Uint32(rest[:4]))
		rest = rest[4:]
		if len(rest) < l {
			return
		}
		fn(rest[:l:l])
		rest = rest[l:]
	}
}

// DecodeBatch parses a consensus value into a batch. Item slices alias
// the input buffer.
func DecodeBatch(buf []byte) (*Batch, error) {
	b := new(Batch)
	if err := decodeBatchInto(b, buf); err != nil {
		return nil, err
	}
	return b, nil
}

// decodeBatchInto parses a consensus value into b, reusing b.Items'
// capacity, so a run loop that unpacks one batch at a time decodes
// without allocating. Item slices alias buf. On error b holds no
// meaningful value.
func decodeBatchInto(b *Batch, buf []byte) error {
	items := b.Items[:0]
	*b = Batch{}
	if len(buf) < 1 {
		return errBadBatch
	}
	switch buf[0] {
	case batchKindSkip:
		if len(buf) < 5 {
			return errBadBatch
		}
		slots := binary.LittleEndian.Uint32(buf[1:5])
		if slots == 0 {
			slots = 1
		}
		b.Skip, b.SkipSlots = true, slots
		return nil
	case batchKindNormal:
		if len(buf) < 5 {
			return errBadBatch
		}
		count := int(binary.LittleEndian.Uint32(buf[1:5]))
		rest := buf[5:]
		if count > len(rest)/4 {
			return errBadBatch // more items than the value can hold
		}
		if items == nil {
			items = make([][]byte, 0, count)
		}
		for i := 0; i < count; i++ {
			if len(rest) < 4 {
				return errBadBatch
			}
			l := int(binary.LittleEndian.Uint32(rest[:4]))
			rest = rest[4:]
			if len(rest) < l {
				return errBadBatch
			}
			items = append(items, rest[:l:l])
			rest = rest[l:]
		}
		b.Items = items
		return nil
	default:
		return errBadBatch
	}
}
