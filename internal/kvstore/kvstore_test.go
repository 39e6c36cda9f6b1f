package kvstore

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/psmr/psmr/internal/cdep"
	"github.com/psmr/psmr/internal/command"
)

func TestInsertReadUpdateDelete(t *testing.T) {
	s := New()

	// Read of a missing key errs.
	out := s.Execute(CmdRead, EncodeKey(5))
	if out[0] != ErrNotFound {
		t.Fatalf("read missing: %v", out)
	}
	// Insert then read.
	out = s.Execute(CmdInsert, EncodeKeyValue(5, []byte("12345678")))
	if out[0] != OK {
		t.Fatalf("insert: %v", out)
	}
	out = s.Execute(CmdRead, EncodeKey(5))
	value, code := DecodeReadOutput(out)
	if code != OK || !bytes.Equal(value, []byte("12345678")) {
		t.Fatalf("read: %v %q", code, value)
	}
	// Update then read.
	if out := s.Execute(CmdUpdate, EncodeKeyValue(5, []byte("abcdefgh"))); out[0] != OK {
		t.Fatalf("update: %v", out)
	}
	value, _ = DecodeReadOutput(s.Execute(CmdRead, EncodeKey(5)))
	if !bytes.Equal(value, []byte("abcdefgh")) {
		t.Fatalf("read after update: %q", value)
	}
	// Delete then read.
	if out := s.Execute(CmdDelete, EncodeKey(5)); out[0] != OK {
		t.Fatalf("delete: %v", out)
	}
	if out := s.Execute(CmdRead, EncodeKey(5)); out[0] != ErrNotFound {
		t.Fatalf("read after delete: %v", out)
	}
}

func TestErrorPaths(t *testing.T) {
	s := New()
	if out := s.Execute(CmdUpdate, EncodeKeyValue(9, []byte("x"))); out[0] != ErrNotFound {
		t.Fatalf("update missing: %v", out)
	}
	if out := s.Execute(CmdDelete, EncodeKey(9)); out[0] != ErrNotFound {
		t.Fatalf("delete missing: %v", out)
	}
	// Truncated inputs.
	for _, cmd := range []command.ID{CmdInsert, CmdDelete, CmdRead, CmdUpdate} {
		if out := s.Execute(cmd, []byte{1, 2}); out[0] != ErrNotFound {
			t.Fatalf("cmd %d short input: %v", cmd, out)
		}
	}
	// Unknown command.
	if out := s.Execute(99, EncodeKey(1)); out[0] != ErrNotFound {
		t.Fatalf("unknown cmd: %v", out)
	}
}

func TestPreload(t *testing.T) {
	s := New()
	s.Preload(1000)
	if s.Len() != 1000 {
		t.Fatalf("Len = %d", s.Len())
	}
	value, code := DecodeReadOutput(s.Execute(CmdRead, EncodeKey(999)))
	if code != OK || len(value) != 8 {
		t.Fatalf("preloaded read: %v %v", code, value)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	a, b := New(), New()
	a.Preload(100)
	b.Preload(100)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical stores differ")
	}
	b.Execute(CmdUpdate, EncodeKeyValue(7, []byte("differen")))
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("diverged stores match")
	}
}

func TestSpecCompiles(t *testing.T) {
	for _, k := range []int{1, 2, 8} {
		c, err := cdep.Compile(Spec(), k)
		if err != nil {
			t.Fatalf("Compile k=%d: %v", k, err)
		}
		if c.Class(CmdInsert) != cdep.Global || c.Class(CmdDelete) != cdep.Global {
			t.Fatal("insert/delete must be global")
		}
		if c.Class(CmdRead) != cdep.Keyed || c.Class(CmdUpdate) != cdep.Keyed {
			t.Fatal("read/update must be keyed")
		}
	}
}

func TestSpecConflictSemantics(t *testing.T) {
	c, err := cdep.Compile(Spec(), 8)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	in5 := EncodeKeyValue(5, []byte("v"))
	in6 := EncodeKeyValue(6, []byte("v"))
	if !c.Conflicts(CmdUpdate, in5, CmdUpdate, in5) {
		t.Fatal("update/update same key must conflict")
	}
	if c.Conflicts(CmdUpdate, in5, CmdUpdate, in6) {
		t.Fatal("update/update different keys must not conflict")
	}
	if c.Conflicts(CmdRead, EncodeKey(5), CmdRead, EncodeKey(5)) {
		t.Fatal("read/read must not conflict")
	}
	if !c.Conflicts(CmdInsert, in5, CmdRead, EncodeKey(6)) {
		t.Fatal("insert must conflict with everything")
	}
}

// Sequential random workload against a model map.
func TestRandomAgainstModel(t *testing.T) {
	s := New()
	model := make(map[uint64][]byte)
	rng := rand.New(rand.NewSource(8))
	const ops = 30000
	for i := 0; i < ops; i++ {
		k := uint64(rng.Intn(500))
		v := make([]byte, 8)
		rng.Read(v)
		switch rng.Intn(4) {
		case 0:
			s.Execute(CmdInsert, EncodeKeyValue(k, v))
			model[k] = v
		case 1:
			out := s.Execute(CmdDelete, EncodeKey(k))
			_, existed := model[k]
			if (out[0] == OK) != existed {
				t.Fatalf("op %d: delete(%d) = %v, existed %v", i, k, out[0], existed)
			}
			delete(model, k)
		case 2:
			out := s.Execute(CmdUpdate, EncodeKeyValue(k, v))
			_, existed := model[k]
			if (out[0] == OK) != existed {
				t.Fatalf("op %d: update(%d) = %v, existed %v", i, k, out[0], existed)
			}
			if existed {
				model[k] = v
			}
		case 3:
			value, code := DecodeReadOutput(s.Execute(CmdRead, EncodeKey(k)))
			want, existed := model[k]
			if (code == OK) != existed || (existed && !bytes.Equal(value, want)) {
				t.Fatalf("op %d: read(%d) = %v/%q, want %v/%q", i, k, code, value, existed, want)
			}
		}
	}
	if s.Len() != len(model) {
		t.Fatalf("Len = %d, model %d", s.Len(), len(model))
	}
}

func TestTransfer(t *testing.T) {
	s := New()
	s.Preload(10) // key i → value i
	out := s.Execute(CmdTransfer, EncodeTransfer(7, 2, 5))
	if out[0] != OK {
		t.Fatalf("transfer: %v", out)
	}
	read := func(key uint64) uint64 {
		out := s.Execute(CmdRead, EncodeKey(key))
		value, code := DecodeReadOutput(out)
		if code != OK || len(value) < 8 {
			t.Fatalf("read %d: %v %v", key, code, value)
		}
		return binary.LittleEndian.Uint64(value)
	}
	if got := read(7); got != 2 { // 7 - 5
		t.Fatalf("from balance = %d, want 2", got)
	}
	if got := read(2); got != 7 { // 2 + 5
		t.Fatalf("to balance = %d, want 7", got)
	}
	// Self-transfer is a deterministic no-op.
	if out := s.Execute(CmdTransfer, EncodeTransfer(3, 3, 100)); out[0] != OK {
		t.Fatalf("self transfer: %v", out)
	}
	if got := read(3); got != 3 {
		t.Fatalf("self transfer changed balance to %d", got)
	}
	// Missing endpoints fail without mutating either side.
	if out := s.Execute(CmdTransfer, EncodeTransfer(7, 99, 1)); out[0] != ErrNotFound {
		t.Fatalf("transfer to missing key: %v", out)
	}
	if got := read(7); got != 2 {
		t.Fatalf("failed transfer mutated from balance: %d", got)
	}
	// Short input.
	if out := s.Execute(CmdTransfer, []byte{1, 2}); out[0] != ErrNotFound {
		t.Fatalf("short transfer input: %v", out)
	}
}

func TestTransferSpec(t *testing.T) {
	c, err := cdep.Compile(Spec(), 8)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if got := c.Class(CmdTransfer); got != cdep.MultiKeyed {
		t.Fatalf("transfer class = %v, want MultiKeyed", got)
	}
	if got := c.Route(CmdTransfer).Kind; got != cdep.RouteMultiKey {
		t.Fatalf("transfer route = %v, want multikey", got)
	}
	// Insert/delete stay global, read/update keyed (TestSpecCompiles
	// covers this; re-assert here so the extension cannot silently
	// shift them).
	if c.Class(CmdInsert) != cdep.Global || c.Class(CmdUpdate) != cdep.Keyed {
		t.Fatal("transfer extension shifted existing classes")
	}
	xfer := EncodeTransfer(5, 11, 1)
	if keys, ok := c.KeySet(CmdTransfer, xfer); !ok || len(keys) != 2 || keys[0] != 5 || keys[1] != 11 {
		t.Fatalf("transfer key set = %v, %v", keys, ok)
	}
	if !c.Conflicts(CmdTransfer, xfer, CmdUpdate, EncodeKeyValue(11, []byte("v"))) {
		t.Fatal("transfer must conflict with update of an endpoint")
	}
	if c.Conflicts(CmdTransfer, xfer, CmdRead, EncodeKey(12)) {
		t.Fatal("transfer must not conflict with a disjoint read")
	}
	// γ is the union of both endpoints' groups.
	if g := c.Groups(CmdTransfer, xfer, nil); g != command.GammaOf(5, 3) {
		t.Fatalf("transfer γ = %v, want %v", g, command.GammaOf(5, 3))
	}
}

func TestMultiRead(t *testing.T) {
	s := New()
	s.Preload(10) // key i → value i
	out := s.Execute(CmdMultiRead, EncodeMultiRead(3, 7, 99))
	values, codes, ok := DecodeMultiReadOutput(out)
	if !ok || len(values) != 3 {
		t.Fatalf("multi-read output: %v %v %v", values, codes, ok)
	}
	for i, want := range []uint64{3, 7} {
		if codes[i] != OK || binary.LittleEndian.Uint64(values[i]) != want {
			t.Fatalf("key %d: code %d value %v", want, codes[i], values[i])
		}
	}
	if codes[2] != ErrNotFound || len(values[2]) != 0 {
		t.Fatalf("missing key 99: code %d value %v", codes[2], values[2])
	}
	// Malformed inputs fail deterministically.
	if out := s.Execute(CmdMultiRead, []byte{1}); out[0] != ErrNotFound {
		t.Fatalf("short input: %v", out)
	}
	if out := s.Execute(CmdMultiRead, EncodeMultiRead()); out[0] != ErrNotFound {
		t.Fatalf("empty key set: %v", out)
	}
	tooMany := make([]uint64, MaxMultiReadKeys+1)
	if out := s.Execute(CmdMultiRead, EncodeMultiRead(tooMany...)); out[0] != ErrNotFound {
		t.Fatalf("oversized key set: %v", out)
	}
}

func TestMultiReadSpec(t *testing.T) {
	c, err := cdep.Compile(Spec(), 8)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if got := c.Class(CmdMultiRead); got != cdep.MultiKeyed {
		t.Fatalf("multi-read class = %v, want MultiKeyed", got)
	}
	r := c.Route(CmdMultiRead)
	if r.Kind != cdep.RouteMultiKey || !r.ReadOnly {
		t.Fatalf("multi-read route = %v readonly=%v, want read-only multikey", r.Kind, r.ReadOnly)
	}
	// The snapshot must still interlock with same-key writers but not
	// with plain reads or disjoint keys.
	in := EncodeMultiRead(4, 9)
	if !c.Conflicts(CmdMultiRead, in, CmdUpdate, EncodeKeyValue(9, []byte("v"))) {
		t.Fatal("multi-read must conflict with update of a member key")
	}
	if !c.Conflicts(CmdMultiRead, in, CmdTransfer, EncodeTransfer(1, 4, 1)) {
		t.Fatal("multi-read must conflict with transfer touching a member key")
	}
	if c.Conflicts(CmdMultiRead, in, CmdRead, EncodeKey(4)) {
		t.Fatal("multi-read must not conflict with a same-key read")
	}
	if c.Conflicts(CmdMultiRead, in, CmdMultiRead, EncodeMultiRead(4, 9)) {
		t.Fatal("two snapshots must not conflict")
	}
	// Existing classes unchanged by the extension.
	if c.Class(CmdInsert) != cdep.Global || c.Class(CmdUpdate) != cdep.Keyed ||
		c.Route(CmdTransfer).ReadOnly {
		t.Fatal("multi-read extension shifted existing classes")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	src := New()
	src.Preload(500)
	src.Execute(CmdUpdate, EncodeKeyValue(42, []byte("hello")))
	src.Execute(CmdDelete, EncodeKey(7))
	src.Execute(CmdInsert, EncodeKeyValue(9999, []byte("new")))
	src.Execute(CmdTransfer, EncodeTransfer(1, 2, 1))

	snap := src.Snapshot()
	dst := New()
	dst.Preload(3) // restore must discard pre-existing state
	if err := dst.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if dst.Len() != src.Len() {
		t.Fatalf("restored %d keys, want %d", dst.Len(), src.Len())
	}
	if dst.Fingerprint() != src.Fingerprint() {
		t.Fatalf("restored fingerprint %x != source %x", dst.Fingerprint(), src.Fingerprint())
	}
	// Determinism: same state, byte-identical snapshot (the checkpoint
	// key derives a fingerprint from these bytes).
	if !bytes.Equal(dst.Snapshot(), snap) {
		t.Fatal("snapshot of restored store differs from original snapshot")
	}
	// A restored store keeps executing.
	if out := dst.Execute(CmdRead, EncodeKey(42)); out[0] != OK || string(out[1:]) != "hello" {
		t.Fatalf("read after restore = %v", out)
	}
}

func TestSnapshotRestoreRejectsCorrupt(t *testing.T) {
	src := New()
	src.Preload(10)
	snap := src.Snapshot()
	dst := New()
	for _, bad := range [][]byte{nil, {0xff}, snap[:len(snap)-3], append(append([]byte(nil), snap...), 1)} {
		if err := dst.Restore(bad); err == nil {
			t.Fatalf("Restore accepted corrupt snapshot of %d bytes", len(bad))
		}
	}
	if err := dst.Restore(snap); err != nil {
		t.Fatalf("Restore after rejections: %v", err)
	}
	if dst.Fingerprint() != src.Fingerprint() {
		t.Fatal("fingerprint mismatch after corrupt-then-good restore")
	}
}

// TestStatusOutputsShared checks the shared status-only outputs: they
// are one read-only byte with no spare capacity, so an append by a
// caller copies instead of corrupting the next command's output.
func TestStatusOutputsShared(t *testing.T) {
	s := New()
	s.Preload(4)
	a := s.Execute(CmdUpdate, EncodeKeyValue(1, encodeValue(10)))
	b := s.Execute(CmdUpdate, EncodeKeyValue(2, encodeValue(20)))
	if len(a) != 1 || cap(a) != 1 || a[0] != OK || &a[0] != &b[0] {
		t.Fatalf("update outputs %x (cap %d) and %x are not the shared OK status", a, cap(a), b)
	}
	_ = append(a, 0xff)
	if c := s.Execute(CmdUpdate, EncodeKeyValue(3, encodeValue(30))); len(c) != 1 || c[0] != OK {
		t.Fatalf("status output corrupted by an append: %x", c)
	}
	if out := s.Execute(CmdRead, EncodeKey(99)); len(out) != 1 || out[0] != ErrNotFound {
		t.Fatalf("missing-key read = %x", out)
	}
}

// TestKeySetExtractorsAppend checks that the key-set extractors append
// into the caller's buffer instead of allocating their own.
func TestKeySetExtractorsAppend(t *testing.T) {
	buf := make([]uint64, 1, 8)
	buf[0] = 42
	keys, ok := TransferKeysOf(buf, EncodeTransfer(3, 5, 1))
	if !ok || len(keys) != 3 || keys[0] != 42 || keys[1] != 3 || keys[2] != 5 || &keys[0] != &buf[0] {
		t.Fatalf("TransferKeysOf appended %v (ok %v)", keys, ok)
	}
	keys, ok = MultiReadKeysOf(buf[:0], EncodeMultiRead(7, 8, 9))
	if !ok || len(keys) != 3 || keys[2] != 9 || &keys[0] != &buf[0] {
		t.Fatalf("MultiReadKeysOf appended %v (ok %v)", keys, ok)
	}
	if _, ok := TransferKeysOf(buf[:0], []byte("short")); ok {
		t.Fatal("short transfer input yielded a key set")
	}
}
