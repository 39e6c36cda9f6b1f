//go:build !race

package command

import (
	"testing"

	"github.com/psmr/psmr/internal/transport"
)

// sink keeps encoded frames observable so the encoders cannot be
// optimized away.
var sink []byte

// The codec operations the microbenchmarks time and
// TestCodecAllocsPerOp counts. Each returns one invocation over a
// kvstore-update-sized request (8-byte key, 8-byte value).

// appendRequestOp encodes one request into a fresh frame: the single
// owned allocation the client pays per command.
func appendRequestOp() func() {
	req := &Request{
		Client: 7, Cmd: 3, Gamma: GammaOf(2),
		Input: make([]byte, 16),
		Reply: transport.Addr("client/7"),
	}
	return func() {
		req.Seq++
		sink = AppendRequest(nil, req)
	}
}

// appendResponseOp encodes one reply into a fresh frame: the single
// owned allocation a replica pays per answered command.
func appendResponseOp() func() {
	resp := &Response{Client: 7, Output: []byte{0}}
	return func() {
		resp.Seq++
		sink = AppendResponse(nil, resp)
	}
}

// decodeRequestIntoOp decodes one request into a reused target with a
// warm interner: the replica side's per-command decode, which
// allocates nothing.
func decodeRequestIntoOp() func() {
	frame := AppendRequest(nil, &Request{
		Client: 7, Cmd: 3, Input: make([]byte, 16), Reply: "client/7",
	})
	var (
		in  Interner
		req Request
	)
	return func() {
		if _, err := DecodeRequestInto(&req, frame, &in); err != nil {
			panic(err)
		}
	}
}

func benchOp(b *testing.B, op func()) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkAppendRequest(b *testing.B)     { benchOp(b, appendRequestOp()) }
func BenchmarkAppendResponse(b *testing.B)    { benchOp(b, appendResponseOp()) }
func BenchmarkDecodeRequestInto(b *testing.B) { benchOp(b, decodeRequestIntoOp()) }

// TestCodecAllocsPerOp pins the codec microbenchmarks' allocation
// counts: one exactly-sized frame per encode, none per decode once the
// interner holds the reply address.
func TestCodecAllocsPerOp(t *testing.T) {
	for _, c := range []struct {
		name string
		op   func()
		want float64
	}{
		{"AppendRequest", appendRequestOp(), 1},
		{"AppendResponse", appendResponseOp(), 1},
		{"DecodeRequestInto", decodeRequestIntoOp(), 0},
	} {
		if got := testing.AllocsPerRun(1000, c.op); got != c.want {
			t.Errorf("%s: %.2f allocs/op, want %v", c.name, got, c.want)
		}
	}
}
