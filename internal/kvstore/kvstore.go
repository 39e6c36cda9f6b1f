// Package kvstore implements the paper's key-value store service
// (§V-A/§VI-B): an in-memory B+-tree of 8-byte integer keys and 8-byte
// values with insert, delete, read, update and two-key transfer
// commands.
//
// The dependency structure follows the paper exactly: inserts and
// deletes may restructure the tree (splitting and joining cells), so
// they depend on all commands; an update on key k depends on updates
// and reads on k (and on inserts and deletes). Reads never conflict
// with reads. The transfer extension is a same-key dependency over the
// key SET {from, to} (cdep.KeySetFunc), so two-key transactions ride
// the keyed path instead of serializing globally.
package kvstore

import (
	"encoding/binary"
	"fmt"

	"github.com/psmr/psmr/internal/btree"
	"github.com/psmr/psmr/internal/cdep"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/mvstore"
)

// Command identifiers of the key-value store service.
const (
	CmdInsert command.ID = iota + 1
	CmdDelete
	CmdRead
	CmdUpdate
	// CmdTransfer is the two-key transaction: it moves an amount from
	// one key's 8-byte counter value to another's. Its C-Dep entry is a
	// same-key dependency over the key SET {from, to}, so it rides the
	// keyed path (class MultiKeyed) instead of falling back to a global
	// barrier.
	CmdTransfer
	// CmdMultiRead is the snapshot read over a key set: it returns the
	// values of up to MaxMultiReadKeys keys as one atomic observation.
	// It is MultiKeyed like the transfer but READ-ONLY (no self-dep,
	// every same-key partner is a writer), so the schedulers latch each
	// key's reader set instead of rendezvousing the keys' owner workers
	// — concurrent snapshots over overlapping sets never serialize.
	CmdMultiRead
)

// MaxMultiReadKeys bounds one snapshot read's key set.
const MaxMultiReadKeys = 32

// Error codes returned in the first output byte.
const (
	OK byte = iota
	ErrNotFound
)

// statusOK and statusNotFound are the shared outputs of commands that
// answer with a status byte only. They are read-only: len == cap == 1,
// so a caller that appends to an output copies it instead of writing
// through, and nothing writes into outputs in place.
var (
	statusOK       = []byte{OK}
	statusNotFound = []byte{ErrNotFound}
)

// Store is the replicated key-value store state machine. It must be
// driven under the concurrency contract of its Spec: reads/updates on
// distinct keys may run concurrently, inserts/deletes run exclusively
// (P-SMR, sP-SMR and the lock-based baseline all guarantee this in
// their own way).
type Store struct {
	tree *btree.Tree
	// mv overlays the tree with per-key version chains for optimistic
	// execution (command.Versioned). Non-speculative execution
	// addresses the tree directly and never touches the overlay, so
	// plain P-SMR/sP-SMR deployments keep the unsynchronized hot path.
	mv *mvstore.Store[uint64, []byte]
}

// treeBase adapts the B+-tree to mvstore.Base so committed versions
// promote straight into the tree.
type treeBase struct{ t *btree.Tree }

func (b treeBase) Get(k uint64) ([]byte, bool) { return b.t.Get(k) }
func (b treeBase) Put(k uint64, v []byte)      { b.t.Insert(k, v) }
func (b treeBase) Delete(k uint64) bool        { return b.t.Delete(k) }
func (b treeBase) Len() int                    { return b.t.Len() }
func (b treeBase) Range(fn func(k uint64, v []byte) bool) {
	b.t.Ascend(fn)
}

// New creates an empty store.
func New() *Store {
	t := btree.New(btree.DefaultOrder)
	return &Store{tree: t, mv: mvstore.New[uint64, []byte](treeBase{t}, nil)}
}

// Preload fills the store with n sequential keys (0..n-1), each mapped
// to an 8-byte value, reproducing the paper's initial database of 10
// million keys (§VI-B).
func (s *Store) Preload(n int) {
	for i := 0; i < n; i++ {
		s.tree.Insert(uint64(i), encodeValue(uint64(i)))
	}
}

// Len returns the number of keys.
func (s *Store) Len() int { return s.tree.Len() }

// Fingerprint folds the whole database into one value (for replica
// convergence checks in tests). Only call on a quiescent store.
func (s *Store) Fingerprint() uint64 {
	var h uint64 = 14695981039346656037 // FNV-64 offset basis
	s.tree.Ascend(func(k uint64, v []byte) bool {
		h = fnvMix(h, k)
		for _, b := range v {
			h = (h ^ uint64(b)) * 1099511628211
		}
		return true
	})
	return h
}

func fnvMix(h, k uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (k & 0xff)) * 1099511628211
		k >>= 8
	}
	return h
}

// Execute implements command.Service.
func (s *Store) Execute(cmd command.ID, input []byte) []byte {
	switch cmd {
	case CmdInsert:
		key, value, ok := decodeKeyValue(input)
		if !ok {
			return statusNotFound
		}
		s.tree.Insert(key, value)
		return statusOK
	case CmdDelete:
		key, ok := decodeKey(input)
		if !ok || !s.tree.Delete(key) {
			return statusNotFound
		}
		return statusOK
	case CmdRead:
		key, ok := decodeKey(input)
		if !ok {
			return statusNotFound
		}
		value, found := s.tree.Get(key)
		if !found {
			return statusNotFound
		}
		out := make([]byte, 1+len(value))
		out[0] = OK
		copy(out[1:], value)
		return out
	case CmdUpdate:
		key, value, ok := decodeKeyValue(input)
		if !ok || !s.tree.Update(key, value) {
			return statusNotFound
		}
		return statusOK
	case CmdMultiRead:
		var buf [MaxMultiReadKeys]uint64
		keys, ok := appendMultiReadKeys(buf[:0], input)
		if !ok {
			return statusNotFound
		}
		// The scheduler holds every key's reader latch for the whole
		// invocation, so the values form one consistent snapshot.
		out := []byte{OK}
		for _, key := range keys {
			value, found := s.tree.Get(key)
			if !found {
				out = append(out, ErrNotFound)
				out = binary.LittleEndian.AppendUint32(out, 0)
				continue
			}
			out = append(out, OK)
			out = binary.LittleEndian.AppendUint32(out, uint32(len(value)))
			out = append(out, value...)
		}
		return out
	case CmdTransfer:
		from, to, amount, ok := decodeTransfer(input)
		if !ok {
			return statusNotFound
		}
		// The scheduler serializes this invocation against every
		// command touching from or to, so the two-step read-modify-
		// write is atomic under the service's concurrency contract.
		vf, okF := s.tree.Get(from)
		vt, okT := s.tree.Get(to)
		if !okF || !okT || len(vf) < 8 || len(vt) < 8 {
			return statusNotFound
		}
		if from == to {
			return statusOK // self-transfer: balance unchanged
		}
		s.tree.Update(from, encodeValue(binary.LittleEndian.Uint64(vf)-amount))
		s.tree.Update(to, encodeValue(binary.LittleEndian.Uint64(vt)+amount))
		return statusOK
	default:
		return statusNotFound
	}
}

var _ command.Service = (*Store)(nil)
var _ command.Versioned = (*Store)(nil)
var _ command.Snapshotter = (*Store)(nil)

// snapshotVersion tags the store's snapshot encoding.
const snapshotVersion = 1

// Snapshot implements command.Snapshotter: the whole tree in ascending
// key order, which is deterministic — replicas holding the same state
// produce byte-identical snapshots. Only call on a quiescent store.
func (s *Store) Snapshot() []byte {
	buf := make([]byte, 0, 1+8+16*s.tree.Len())
	buf = append(buf, snapshotVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.tree.Len()))
	s.tree.Ascend(func(k uint64, v []byte) bool {
		buf = binary.LittleEndian.AppendUint64(buf, k)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
		buf = append(buf, v...)
		return true
	})
	return buf
}

// Restore implements command.Snapshotter: it replaces the store's
// contents with the snapshot's. The ascending insert order rebuilds
// the B+-tree deterministically.
func (s *Store) Restore(snap []byte) error {
	if len(snap) < 9 || snap[0] != snapshotVersion {
		return fmt.Errorf("kvstore: bad snapshot header")
	}
	count := binary.LittleEndian.Uint64(snap[1:9])
	rest := snap[9:]
	tree := btree.New(btree.DefaultOrder)
	for i := uint64(0); i < count; i++ {
		if len(rest) < 12 {
			return fmt.Errorf("kvstore: truncated snapshot entry %d/%d", i, count)
		}
		key := binary.LittleEndian.Uint64(rest[:8])
		vl := int(binary.LittleEndian.Uint32(rest[8:12]))
		rest = rest[12:]
		if len(rest) < vl {
			return fmt.Errorf("kvstore: truncated snapshot value %d/%d", i, count)
		}
		tree.Insert(key, append([]byte(nil), rest[:vl]...))
		rest = rest[vl:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("kvstore: %d trailing snapshot bytes", len(rest))
	}
	s.tree = tree
	s.mv.Reset(treeBase{tree})
	return nil
}

// SpeculateAt implements command.Versioned: it applies cmd exactly
// like Execute but lands every write as an uncommitted version owned
// by epoch e, reading through (newest uncommitted | committed tip).
// Commit(e) then promotes the versions into the tree; Abort(e) drops
// them — either way in O(keys the command touched).
func (s *Store) SpeculateAt(e mvstore.Epoch, cmd command.ID, input []byte) []byte {
	if e == mvstore.Committed {
		return s.Execute(cmd, input)
	}
	switch cmd {
	case CmdInsert:
		key, value, ok := decodeKeyValue(input)
		if !ok {
			return statusNotFound
		}
		s.mv.Put(e, key, value)
		return statusOK
	case CmdDelete:
		key, ok := decodeKey(input)
		if !ok || !s.mv.Delete(e, key) {
			return statusNotFound
		}
		return statusOK
	case CmdRead:
		key, ok := decodeKey(input)
		if !ok {
			return statusNotFound
		}
		value, found := s.mv.Get(e, key)
		if !found {
			return statusNotFound
		}
		out := make([]byte, 1+len(value))
		out[0] = OK
		copy(out[1:], value)
		return out
	case CmdUpdate:
		key, value, ok := decodeKeyValue(input)
		if !ok {
			return statusNotFound
		}
		if _, found := s.mv.Get(e, key); !found {
			return statusNotFound
		}
		s.mv.Put(e, key, value)
		return statusOK
	case CmdMultiRead:
		var buf [MaxMultiReadKeys]uint64
		keys, ok := appendMultiReadKeys(buf[:0], input)
		if !ok {
			return statusNotFound
		}
		out := []byte{OK}
		for _, key := range keys {
			value, found := s.mv.Get(e, key)
			if !found {
				out = append(out, ErrNotFound)
				out = binary.LittleEndian.AppendUint32(out, 0)
				continue
			}
			out = append(out, OK)
			out = binary.LittleEndian.AppendUint32(out, uint32(len(value)))
			out = append(out, value...)
		}
		return out
	case CmdTransfer:
		from, to, amount, ok := decodeTransfer(input)
		if !ok {
			return statusNotFound
		}
		vf, okF := s.mv.Get(e, from)
		vt, okT := s.mv.Get(e, to)
		if !okF || !okT || len(vf) < 8 || len(vt) < 8 {
			return statusNotFound
		}
		if from == to {
			return statusOK
		}
		s.mv.Put(e, from, encodeValue(binary.LittleEndian.Uint64(vf)-amount))
		s.mv.Put(e, to, encodeValue(binary.LittleEndian.Uint64(vt)+amount))
		return statusOK
	default:
		return statusNotFound
	}
}

// Commit implements command.Versioned: promote epoch e's versions into
// the B+-tree.
func (s *Store) Commit(e mvstore.Epoch) { s.mv.Commit(e) }

// Abort implements command.Versioned: drop epoch e's versions.
func (s *Store) Abort(e mvstore.Epoch) { s.mv.Abort(e) }

// Uncommitted implements command.Versioned.
func (s *Store) Uncommitted() int { return s.mv.Uncommitted() }

// Spec returns the service's C-Dep (paper §V-A, extended): "inserts and
// deletes depend on all commands; an update on key k depends on other
// updates on k, on reads on k, and on inserts and deletes." A transfer
// over {from, to} depends on updates, reads and transfers touching
// either key (same-key over the key set) and on inserts and deletes.
func Spec() cdep.Spec {
	return cdep.Spec{
		Commands: []cdep.Command{
			{ID: CmdInsert, Name: "insert", Key: KeyOf},
			{ID: CmdDelete, Name: "delete", Key: KeyOf},
			{ID: CmdRead, Name: "read", Key: KeyOf},
			{ID: CmdUpdate, Name: "update", Key: KeyOf},
			{ID: CmdTransfer, Name: "transfer", KeySet: TransferKeysOf},
			{ID: CmdMultiRead, Name: "mread", KeySet: MultiReadKeysOf},
		},
		Deps: []cdep.Dep{
			{A: CmdInsert, B: CmdInsert}, {A: CmdInsert, B: CmdDelete},
			{A: CmdInsert, B: CmdRead}, {A: CmdInsert, B: CmdUpdate},
			{A: CmdDelete, B: CmdDelete}, {A: CmdDelete, B: CmdRead},
			{A: CmdDelete, B: CmdUpdate},
			{A: CmdInsert, B: CmdTransfer}, {A: CmdDelete, B: CmdTransfer},
			{A: CmdInsert, B: CmdMultiRead}, {A: CmdDelete, B: CmdMultiRead},
			{A: CmdUpdate, B: CmdUpdate, SameKey: true},
			{A: CmdUpdate, B: CmdRead, SameKey: true},
			{A: CmdTransfer, B: CmdTransfer, SameKey: true},
			{A: CmdTransfer, B: CmdRead, SameKey: true},
			{A: CmdTransfer, B: CmdUpdate, SameKey: true},
			// The snapshot read conflicts with same-key writers only:
			// no self-dep and no dep on CmdRead, so it compiles to a
			// READ-ONLY multi-key route.
			{A: CmdMultiRead, B: CmdUpdate, SameKey: true},
			{A: CmdMultiRead, B: CmdTransfer, SameKey: true},
		},
	}
}

// KeyOf extracts the key from a command input (the cdep.KeyFunc of
// every single-key kvstore command).
func KeyOf(input []byte) (uint64, bool) {
	return decodeKey(input)
}

// TransferKeysOf extracts the {from, to} key set of a transfer (the
// cdep.KeySetFunc of CmdTransfer).
func TransferKeysOf(dst []uint64, input []byte) ([]uint64, bool) {
	if len(input) < 16 {
		return dst, false
	}
	return append(dst,
		binary.LittleEndian.Uint64(input[:8]),
		binary.LittleEndian.Uint64(input[8:16])), true
}

// MultiReadKeysOf extracts the key set of a snapshot read (the
// cdep.KeySetFunc of CmdMultiRead).
func MultiReadKeysOf(dst []uint64, input []byte) ([]uint64, bool) {
	return appendMultiReadKeys(dst, input)
}

// EncodeMultiRead builds the input of a snapshot read over a key set.
func EncodeMultiRead(keys ...uint64) []byte {
	buf := make([]byte, 0, 2+8*len(keys))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(keys)))
	for _, key := range keys {
		buf = binary.LittleEndian.AppendUint64(buf, key)
	}
	return buf
}

// DecodeMultiReadOutput splits a snapshot-read response into per-key
// (value, code) pairs, in the key order of the request input.
func DecodeMultiReadOutput(out []byte) (values [][]byte, codes []byte, ok bool) {
	if len(out) == 0 || out[0] != OK {
		return nil, nil, false
	}
	rest := out[1:]
	for len(rest) > 0 {
		if len(rest) < 5 {
			return nil, nil, false
		}
		code := rest[0]
		vl := int(binary.LittleEndian.Uint32(rest[1:5]))
		rest = rest[5:]
		if len(rest) < vl {
			return nil, nil, false
		}
		codes = append(codes, code)
		values = append(values, rest[:vl:vl])
		rest = rest[vl:]
	}
	return values, codes, true
}

// EncodeKey builds the input of a read or delete.
func EncodeKey(key uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, key)
}

// EncodeKeyValue builds the input of an insert or update.
func EncodeKeyValue(key uint64, value []byte) []byte {
	buf := make([]byte, 8, 8+len(value))
	binary.LittleEndian.PutUint64(buf, key)
	return append(buf, value...)
}

// EncodeTransfer builds the input of a transfer: move amount from one
// key's counter to another's.
func EncodeTransfer(from, to, amount uint64) []byte {
	buf := make([]byte, 24)
	binary.LittleEndian.PutUint64(buf, from)
	binary.LittleEndian.PutUint64(buf[8:], to)
	binary.LittleEndian.PutUint64(buf[16:], amount)
	return buf
}

// DecodeReadOutput splits a read response into its error code and
// value.
func DecodeReadOutput(out []byte) (value []byte, code byte) {
	if len(out) == 0 {
		return nil, ErrNotFound
	}
	return out[1:], out[0]
}

func decodeKey(input []byte) (uint64, bool) {
	if len(input) < 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(input[:8]), true
}

func decodeKeyValue(input []byte) (uint64, []byte, bool) {
	if len(input) < 8 {
		return 0, nil, false
	}
	return binary.LittleEndian.Uint64(input[:8]), input[8:], true
}

func appendMultiReadKeys(dst []uint64, input []byte) ([]uint64, bool) {
	if len(input) < 2 {
		return dst, false
	}
	count := int(binary.LittleEndian.Uint16(input[:2]))
	if count == 0 || count > MaxMultiReadKeys || len(input) < 2+8*count {
		return dst, false
	}
	for i := 0; i < count; i++ {
		dst = append(dst, binary.LittleEndian.Uint64(input[2+8*i:]))
	}
	return dst, true
}

func decodeTransfer(input []byte) (from, to, amount uint64, ok bool) {
	if len(input) < 24 {
		return 0, 0, 0, false
	}
	return binary.LittleEndian.Uint64(input[:8]),
		binary.LittleEndian.Uint64(input[8:16]),
		binary.LittleEndian.Uint64(input[16:24]), true
}

func encodeValue(v uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, v)
}
