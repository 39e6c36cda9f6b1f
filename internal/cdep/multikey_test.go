package cdep

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/psmr/psmr/internal/command"
)

const cmdXferT command.ID = 5

func xferKeysFromInput(dst []uint64, input []byte) ([]uint64, bool) {
	if len(input) < 16 {
		return dst, false
	}
	return append(dst,
		binary.LittleEndian.Uint64(input),
		binary.LittleEndian.Uint64(input[8:16])), true
}

func xferInput(from, to uint64) []byte {
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf, from)
	binary.LittleEndian.PutUint64(buf[8:], to)
	return buf
}

// kvSpecWithTransfer extends the paper's kv C-Dep with a two-key
// transfer: same-key over {from, to} against reads/updates/transfers,
// always-conflicting with inserts and deletes.
func kvSpecWithTransfer() Spec {
	spec := kvSpec()
	spec.Commands = append(spec.Commands,
		Command{ID: cmdXferT, Name: "transfer", KeySet: xferKeysFromInput})
	spec.Deps = append(spec.Deps,
		Dep{A: cmdInsert, B: cmdXferT}, Dep{A: cmdDelete, B: cmdXferT},
		Dep{A: cmdXferT, B: cmdXferT, SameKey: true},
		Dep{A: cmdXferT, B: cmdRead, SameKey: true},
		Dep{A: cmdXferT, B: cmdUpdate, SameKey: true},
	)
	return spec
}

func TestMultiKeyClassification(t *testing.T) {
	c, err := Compile(kvSpecWithTransfer(), 8)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if got := c.Class(cmdXferT); got != MultiKeyed {
		t.Fatalf("transfer class = %v, want MultiKeyed", got)
	}
	if got := c.Route(cmdXferT).Kind; got != RouteMultiKey {
		t.Fatalf("transfer route = %v, want multikey", got)
	}
	if c.Route(cmdXferT).ReadOnly {
		t.Fatal("multi-key command marked read-only")
	}
	// Existing classes are untouched by the extension.
	if c.Class(cmdInsert) != Global || c.Class(cmdUpdate) != Keyed {
		t.Fatal("extension shifted existing classes")
	}
	if MultiKeyed.String() != "multikey" || RouteMultiKey.String() != "multikey" {
		t.Fatal("String() mismatch for multi-key class/route")
	}
}

// KeySet canonicalises extractor output: sorted ascending, duplicates
// removed, singleton adapter for single-key commands.
func TestKeySetCanonical(t *testing.T) {
	c, err := Compile(kvSpecWithTransfer(), 8)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	keys, ok := c.KeySet(cmdXferT, xferInput(9, 3))
	if !ok || len(keys) != 2 || keys[0] != 3 || keys[1] != 9 {
		t.Fatalf("KeySet(9,3) = %v, %v; want [3 9]", keys, ok)
	}
	keys, ok = c.KeySet(cmdXferT, xferInput(4, 4))
	if !ok || len(keys) != 1 || keys[0] != 4 {
		t.Fatalf("KeySet(4,4) = %v, %v; want [4]", keys, ok)
	}
	// Single-key adapter.
	keys, ok = c.KeySet(cmdUpdate, keyInput(7))
	if !ok || len(keys) != 1 || keys[0] != 7 {
		t.Fatalf("KeySet(update 7) = %v, %v; want [7]", keys, ok)
	}
	// No extractor / short input.
	if _, ok := c.KeySet(cmdXferT, []byte{1}); ok {
		t.Fatal("short transfer input produced a key set")
	}
	if _, ok := c.KeySet(command.ID(99), nil); ok {
		t.Fatal("unknown command produced a key set")
	}
}

// Conflicts intersects key sets: a transfer conflicts with anything
// touching either endpoint, with transfers sharing one endpoint, and
// with nothing disjoint.
func TestMultiKeyConflicts(t *testing.T) {
	c, err := Compile(kvSpecWithTransfer(), 8)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	tests := []struct {
		name string
		a    command.ID
		ia   []byte
		b    command.ID
		ib   []byte
		want bool
	}{
		{"xfer vs read from", cmdXferT, xferInput(1, 2), cmdRead, keyInput(1), true},
		{"xfer vs read to", cmdXferT, xferInput(1, 2), cmdRead, keyInput(2), true},
		{"xfer vs read other", cmdXferT, xferInput(1, 2), cmdRead, keyInput(3), false},
		{"xfer vs update to", cmdXferT, xferInput(1, 2), cmdUpdate, keyInput(2), true},
		{"xfer vs xfer shared", cmdXferT, xferInput(1, 2), cmdXferT, xferInput(2, 3), true},
		{"xfer vs xfer disjoint", cmdXferT, xferInput(1, 2), cmdXferT, xferInput(3, 4), false},
		{"xfer vs insert always", cmdXferT, xferInput(1, 2), cmdInsert, keyInput(9), true},
		{"xfer keyless conservative", cmdXferT, []byte{1}, cmdXferT, xferInput(3, 4), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := c.Conflicts(tt.a, tt.ia, tt.b, tt.ib); got != tt.want {
				t.Fatalf("Conflicts = %v, want %v", got, tt.want)
			}
			if rev := c.Conflicts(tt.b, tt.ib, tt.a, tt.ia); rev != tt.want {
				t.Fatalf("Conflicts not symmetric")
			}
		})
	}
}

// The C-G function multicasts a multi-key command to the UNION of its
// keys' groups, and the safety property (dependent invocations share a
// group) holds across single- and multi-key commands.
func TestMultiKeyGroupsUnion(t *testing.T) {
	const k = 8
	c, err := Compile(kvSpecWithTransfer(), k)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	g := c.Groups(cmdXferT, xferInput(3, 12), nil)
	want := command.GammaOf(3%k, 12%k)
	if g != want {
		t.Fatalf("transfer γ = %v, want %v", g, want)
	}
	// Same group for both keys → singleton γ.
	if g := c.Groups(cmdXferT, xferInput(1, 1+k), nil); g.Count() != 1 {
		t.Fatalf("same-group transfer γ = %v, want singleton", g)
	}
	// Keyless invocation: synchronous mode.
	if g := c.Groups(cmdXferT, []byte{1}, nil); g != command.AllWorkers(k) {
		t.Fatalf("keyless transfer γ = %v, want all", g)
	}
	// Placement pins steer the union exactly like keyed commands.
	cp, err := Compile(kvSpecWithTransfer(), k, WithPlacement(map[uint64]int{3: 6}))
	if err != nil {
		t.Fatalf("Compile placed: %v", err)
	}
	if g := cp.Groups(cmdXferT, xferInput(3, 12), nil); g != command.GammaOf(6, 12%k) {
		t.Fatalf("placed transfer γ = %v, want %v", g, command.GammaOf(6, 12%k))
	}
	// Safety: random dependent pairs always share a group.
	rng := rand.New(rand.NewSource(21))
	cmds := []command.ID{cmdInsert, cmdDelete, cmdRead, cmdUpdate, cmdXferT}
	inputFor := func(cmd command.ID) []byte {
		if cmd == cmdXferT {
			return xferInput(uint64(rng.Intn(40)), uint64(rng.Intn(40)))
		}
		return keyInput(uint64(rng.Intn(40)))
	}
	for i := 0; i < 3000; i++ {
		ca, cb := cmds[rng.Intn(len(cmds))], cmds[rng.Intn(len(cmds))]
		ia, ib := inputFor(ca), inputFor(cb)
		if !c.Conflicts(ca, ia, cb, ib) {
			continue
		}
		ga, gb := c.Groups(ca, ia, rng.Intn), c.Groups(cb, ib, rng.Intn)
		if ga&gb == 0 {
			t.Fatalf("dependent (%d,%x) γ=%v and (%d,%x) γ=%v share no group", ca, ia, ga, cb, ib, gb)
		}
	}
}

// Compile error cases of the key-set extension.
func TestMultiKeyCompileErrors(t *testing.T) {
	// A same-key dep on a command with NEITHER extractor.
	noExtractor := Spec{
		Commands: []Command{
			{ID: 1, Name: "xfer"}, // multi-key intent, extractor missing
			{ID: 2, Name: "read", Key: keyFromInput},
		},
		Deps: []Dep{{A: 1, B: 2, SameKey: true}},
	}
	if _, err := Compile(noExtractor, 4); err == nil {
		t.Fatal("same-key dep on extractor-less command accepted")
	}
	// Key and KeySet on the same command are ambiguous.
	both := Spec{
		Commands: []Command{
			{ID: 1, Name: "xfer", Key: keyFromInput, KeySet: xferKeysFromInput},
		},
	}
	if _, err := Compile(both, 4); err == nil {
		t.Fatal("command with both Key and KeySet accepted")
	}
	// Disjoint worker sets across a same-key dep involving a multi-key
	// command would route same-key invocations to disjoint workers.
	if _, err := Compile(kvSpecWithTransfer(), 4,
		WithWorkerSet(cmdXferT, 0, 1),
		WithWorkerSet(cmdRead, 2, 3), WithWorkerSet(cmdUpdate, 2, 3)); err == nil {
		t.Fatal("disjoint worker sets across a multi-key same-key dep accepted")
	}
	// Shared sets compile, restrict the route, and keep placement pins
	// inside the set validated.
	if _, err := Compile(kvSpecWithTransfer(), 4,
		WithWorkerSet(cmdXferT, 1, 3), WithWorkerSet(cmdRead, 1, 3), WithWorkerSet(cmdUpdate, 1, 3),
		WithPlacement(map[uint64]int{7: 0})); err == nil {
		t.Fatal("placement pin outside a multi-key command's worker set accepted")
	}
	c, err := Compile(kvSpecWithTransfer(), 4,
		WithWorkerSet(cmdXferT, 1, 3), WithWorkerSet(cmdRead, 1, 3), WithWorkerSet(cmdUpdate, 1, 3))
	if err != nil {
		t.Fatalf("shared worker sets rejected: %v", err)
	}
	if got := c.Route(cmdXferT).Workers; got != command.GammaOf(1, 3) {
		t.Fatalf("transfer route workers = %v, want {1,3}", got)
	}
	// The union γ stays inside the restricted set.
	for i := uint64(0); i < 50; i++ {
		g := c.Groups(cmdXferT, xferInput(i, i*7+1), nil)
		if g&^command.GammaOf(1, 3) != 0 {
			t.Fatalf("transfer γ %v escaped worker set {1,3}", g)
		}
	}
}
