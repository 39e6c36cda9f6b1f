package paxos

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBallot(t *testing.T) {
	b := MakeBallot(7, 3)
	if b.Round() != 7 || b.Candidate() != 3 {
		t.Fatalf("ballot round/candidate = %d/%d", b.Round(), b.Candidate())
	}
	if MakeBallot(1, 0) <= 0 {
		t.Fatal("round-1 ballot should be positive")
	}
	// Higher rounds dominate regardless of candidate.
	if MakeBallot(2, 0) <= MakeBallot(1, 9) {
		t.Fatal("round ordering broken")
	}
	// Same round, different candidates are distinct and ordered.
	if MakeBallot(1, 1) <= MakeBallot(1, 0) {
		t.Fatal("candidate ordering broken")
	}
	if b.String() != "b7.3" {
		t.Fatalf("String = %q", b.String())
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := &message{
		Type:     msgPhase2a,
		Group:    9,
		Ballot:   MakeBallot(4, 1),
		Instance: 77,
		Instance2: Instance2{
			To: 99,
		},
		Acceptor: 2,
		Flags:    flagForwarded,
		Addr:     "node/coord0",
		Value:    []byte("batch bytes"),
	}
	got, err := decodeMessage(encodeMessage(m))
	if err != nil {
		t.Fatalf("decodeMessage: %v", err)
	}
	if got.Type != m.Type || got.Group != m.Group || got.Ballot != m.Ballot ||
		got.Instance != m.Instance || got.To != m.To || got.Acceptor != m.Acceptor ||
		got.Flags != m.Flags || got.Addr != m.Addr || !bytes.Equal(got.Value, m.Value) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestMessageWithEntriesRoundTrip(t *testing.T) {
	m := &message{
		Type:   msgPhase1b,
		Group:  1,
		Ballot: MakeBallot(2, 0),
		Entries: []acceptedEntry{
			{Instance: 3, Ballot: MakeBallot(1, 0), Value: []byte("v3")},
			{Instance: 9, Ballot: MakeBallot(2, 1), Value: nil},
			{Instance: 10, Ballot: MakeBallot(1, 1), Value: []byte("")},
		},
	}
	got, err := decodeMessage(encodeMessage(m))
	if err != nil {
		t.Fatalf("decodeMessage: %v", err)
	}
	if len(got.Entries) != 3 {
		t.Fatalf("entries = %d", len(got.Entries))
	}
	for i, e := range got.Entries {
		want := m.Entries[i]
		if e.Instance != want.Instance || e.Ballot != want.Ballot || !bytes.Equal(e.Value, want.Value) {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, e, want)
		}
	}
}

func TestMessageDecodeShort(t *testing.T) {
	m := &message{Type: msgDecision, Group: 1, Instance: 5, Value: []byte("abc")}
	frame := encodeMessage(m)
	for cut := 0; cut < len(frame); cut++ {
		if _, err := decodeMessage(frame[:cut]); err == nil {
			t.Fatalf("decode of %d-byte prefix succeeded", cut)
		}
	}
}

func TestMessageQuick(t *testing.T) {
	f := func(typ uint8, group uint32, ballot, inst, to uint64, acc uint32, flags uint8, addr string, value []byte) bool {
		if len(addr) > 500 {
			addr = addr[:500]
		}
		m := &message{
			Type: msgType(typ), Group: group, Ballot: Ballot(ballot),
			Instance: inst, Instance2: Instance2{To: to},
			Acceptor: acc, Flags: flags,
			Addr: transportAddr(addr), Value: value,
		}
		got, err := decodeMessage(encodeMessage(m))
		if err != nil {
			return false
		}
		return got.Type == m.Type && got.Group == m.Group && got.Ballot == m.Ballot &&
			got.Instance == m.Instance && got.To == m.To && got.Acceptor == m.Acceptor &&
			got.Flags == m.Flags && got.Addr == m.Addr && bytes.Equal(got.Value, m.Value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	b := &Batch{Items: [][]byte{[]byte("one"), nil, []byte("three")}}
	got, err := DecodeBatch(EncodeBatch(b))
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if got.Skip {
		t.Fatal("normal batch decoded as skip")
	}
	if len(got.Items) != 3 {
		t.Fatalf("items = %d", len(got.Items))
	}
	for i := range b.Items {
		if !bytes.Equal(got.Items[i], b.Items[i]) {
			t.Fatalf("item %d mismatch", i)
		}
	}
}

func TestSkipBatchRoundTrip(t *testing.T) {
	got, err := DecodeBatch(EncodeBatch(&Batch{Skip: true, SkipSlots: 64}))
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if !got.Skip || got.SkipSlots != 64 {
		t.Fatalf("skip round trip: %+v", got)
	}
	// Zero slots normalises to one so merges always advance.
	got, err = DecodeBatch(EncodeBatch(&Batch{Skip: true, SkipSlots: 0}))
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if got.SkipSlots != 1 {
		t.Fatalf("zero slots → %d, want 1", got.SkipSlots)
	}
}

func TestBatchDecodeErrors(t *testing.T) {
	if _, err := DecodeBatch(nil); err == nil {
		t.Fatal("nil decode succeeded")
	}
	if _, err := DecodeBatch([]byte{99}); err == nil {
		t.Fatal("unknown kind decode succeeded")
	}
	b := EncodeBatch(&Batch{Items: [][]byte{[]byte("payload")}})
	for cut := 1; cut < len(b); cut++ {
		if _, err := DecodeBatch(b[:cut]); err == nil {
			t.Fatalf("decode of %d-byte prefix succeeded", cut)
		}
	}
}

func TestBatchQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		n := rng.Intn(20)
		items := make([][]byte, n)
		for j := range items {
			items[j] = make([]byte, rng.Intn(100))
			rng.Read(items[j])
		}
		got, err := DecodeBatch(EncodeBatch(&Batch{Items: items}))
		if err != nil {
			t.Fatalf("DecodeBatch: %v", err)
		}
		if len(got.Items) != n {
			t.Fatalf("items = %d, want %d", len(got.Items), n)
		}
		for j := range items {
			if !bytes.Equal(got.Items[j], items[j]) {
				t.Fatalf("item %d mismatch", j)
			}
		}
	}
}

func TestMsgTypeString(t *testing.T) {
	types := []msgType{msgPropose, msgPhase1a, msgPhase1b, msgPhase2a,
		msgPhase2b, msgNack, msgDecision, msgLearnReq, msgHeartbeat}
	seen := make(map[string]bool)
	for _, typ := range types {
		s := typ.String()
		if seen[s] {
			t.Fatalf("duplicate string %q", s)
		}
		seen[s] = true
	}
	if msgType(200).String() == "" {
		t.Fatal("unknown type has empty string")
	}
}

// TestAllocProposeFrame checks the proposer's exactly-sized frame: it
// encodes exactly like the generic message encoder, its value window is
// the frame's value field with no spare capacity, and ParsePropose
// reads the value back.
func TestAllocProposeFrame(t *testing.T) {
	for _, value := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte("payload"), 40)} {
		frame, window := AllocProposeFrame(7, len(value))
		if len(window) != len(value) || cap(window) != len(value) {
			t.Fatalf("window len %d cap %d, want %d", len(window), cap(window), len(value))
		}
		copy(window, value)
		want := encodeMessage(&message{Type: msgPropose, Group: 7, Value: value})
		if !bytes.Equal(frame, want) || cap(frame) != len(frame) {
			t.Fatalf("frame %x (cap %d), want %x", frame, cap(frame), want)
		}
		if !bytes.Equal(NewProposeFrame(7, value), want) {
			t.Fatal("NewProposeFrame differs from the generic encoding")
		}
		group, got, ok := ParsePropose(frame)
		if !ok || group != 7 || !bytes.Equal(got, value) {
			t.Fatalf("ParsePropose = %d %q %v", group, got, ok)
		}
	}
}

// TestDecodeRejectsOversizedCounts feeds item and entry counts larger
// than the frame could hold: the decoders must reject them instead of
// sizing an allocation from the untrusted count.
func TestDecodeRejectsOversizedCounts(t *testing.T) {
	if _, err := DecodeBatch([]byte{batchKindNormal, 0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Fatal("batch claiming 2^32-1 items decoded")
	}
	frame := encodeMessage(&message{Type: msgPhase1b, Group: 1})
	frame[len(frame)-4], frame[len(frame)-3], frame[len(frame)-2], frame[len(frame)-1] = 0xff, 0xff, 0xff, 0x7f
	if _, err := decodeMessage(frame); err == nil {
		t.Fatal("message claiming 2^31-1 entries decoded")
	}
}

// TestDecodeBatchIntoReuse decodes different batches into one target:
// nothing of an earlier decode may leak into a later one.
func TestDecodeBatchIntoReuse(t *testing.T) {
	var b Batch
	if err := decodeBatchInto(&b, EncodeBatch(&Batch{Items: [][]byte{[]byte("a"), []byte("b")}})); err != nil {
		t.Fatalf("batch decode: %v", err)
	}
	if err := decodeBatchInto(&b, EncodeBatch(&Batch{Skip: true, SkipSlots: 3})); err != nil {
		t.Fatalf("skip decode: %v", err)
	}
	if !b.Skip || b.SkipSlots != 3 || len(b.Items) != 0 {
		t.Fatalf("skip decode kept stale fields: %+v", b)
	}
	if err := decodeBatchInto(&b, EncodeBatch(&Batch{Items: [][]byte{[]byte("c")}})); err != nil {
		t.Fatalf("batch re-decode: %v", err)
	}
	if b.Skip || len(b.Items) != 1 || string(b.Items[0]) != "c" {
		t.Fatalf("batch re-decode: %+v", b)
	}
}
