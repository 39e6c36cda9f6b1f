package command

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/psmr/psmr/internal/transport"
)

// sharingReply returns an address different from reply that maps to
// the same Interner slot, so two clients evict each other.
func sharingReply(reply string) string {
	for i := 0; ; i++ {
		other := fmt.Sprintf("%s#%d", reply, i)
		if internSlot([]byte(other)) == internSlot([]byte(reply)) {
			return other
		}
	}
}

// FuzzDecodeRequestInto feeds arbitrary frames to the replica-side
// decoder. It must never panic; a frame it accepts must re-encode to
// exactly the bytes it consumed; and the Reply it returns — interned or
// not — must equal the frame's address bytes, including after another
// client's address has taken the same interner slot and back.
func FuzzDecodeRequestInto(f *testing.F) {
	// Seeds: the round-trip cases of command_test.go, a concatenation,
	// truncations, and a pair of clients that share an interner slot.
	seeds := []*Request{
		{Client: 42, Seq: 7, Cmd: 3, Gamma: GammaOf(0, 2), Input: []byte("payload bytes"), Reply: "client/42"},
		{Client: 1, Seq: 2, Cmd: 3, Input: []byte("abcdef"), Reply: "x"},
		{Client: 9, Seq: 1, Input: nil, Reply: ""},
		{Client: 5, Seq: 3, Cmd: 1, Input: make([]byte, 64), Reply: transport.Addr(sharingReply("client/5"))},
	}
	var concat []byte
	for _, r := range seeds {
		frame := AppendRequest(nil, r)
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
		concat = AppendRequest(concat, r)
	}
	f.Add(concat)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, frame []byte) {
		var in Interner
		var r Request
		rest, err := DecodeRequestInto(&r, frame, &in)
		if err != nil {
			return
		}
		consumed := frame[:len(frame)-len(rest)]
		if got := AppendRequest(nil, &r); !bytes.Equal(got, consumed) {
			t.Fatalf("accepted frame re-encodes to %x, consumed %x", got, consumed)
		}
		if r.Reply == "" {
			return
		}
		want := string(r.Reply)
		// A second client whose address shares the slot, then the first
		// frame again: each decode must return its own frame's bytes.
		other := &Request{Client: r.Client + 1, Seq: r.Seq, Reply: transport.Addr(sharingReply(want))}
		var o Request
		if _, err := DecodeRequestInto(&o, AppendRequest(nil, other), &in); err != nil {
			t.Fatalf("decode of the sharing client: %v", err)
		}
		if o.Reply != other.Reply {
			t.Fatalf("sharing client decoded reply %q, frame says %q", o.Reply, other.Reply)
		}
		if _, err := DecodeRequestInto(&r, frame, &in); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if string(r.Reply) != want {
			t.Fatalf("re-decoded reply %q, frame says %q", r.Reply, want)
		}
	})
}
