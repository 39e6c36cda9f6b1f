package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"strconv"

	"github.com/psmr/psmr"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/kvstore"
	"github.com/psmr/psmr/internal/workload"
)

// workloadSpec is one benchmark input: a deployment, the keys every
// replica preloads and the command mix the sessions draw from. Why each
// workload exists is recorded in NOTES.md and in BENCHMARK.json.
type workloadSpec struct {
	name string
	// deploy holds the deployment fields; the run fills in the service,
	// the transport and, in the traced run, the CPU meter and tracing.
	deploy psmr.Config
	// keys are preloaded as 0..keys-1 with value = key on every replica.
	keys int
	// mix builds the command mix over the preloaded keys.
	mix func(preloaded workload.KeyGen) workload.Generator
	// rate is the open-loop phase's offered load in commands per
	// second. It is fixed here and stated in BENCHMARK.json's "why",
	// which must agree (see checkSpecRate).
	rate int
	// hotSum: the mix's only writes are transfers over the hot keys
	// 0..hotKeys-1, so their balances must keep their preloaded sum.
	hotSum bool
}

// hotKeys is the hot set workload.KVCollisionMix transfers over.
const hotKeys = 16

// Inserts and deletes of kv-psmr-mixed stay in a key range disjoint
// from the preloaded keys, so reads and updates of preloaded keys
// always find their key.
const (
	churnBase = 1 << 32
	churnKeys = 1024
)

// churnKeyGen draws keys uniformly from [churnBase, churnBase+churnKeys).
type churnKeyGen struct{}

func (churnKeyGen) Key(rng *rand.Rand) uint64 { return churnBase + uint64(rng.Intn(churnKeys)) }

func weighted(weight int, g workload.Generator) workload.MixEntry {
	return workload.MixEntry{Weight: weight, Make: g.Next}
}

// writeMix is the write-heavy mix of kv-spsmr-write and kv-smr-write:
// 80% updates, 10% two-key transfers, 10% reads.
func writeMix(keys workload.KeyGen) workload.Generator {
	return workload.NewMix(
		weighted(80, workload.KVUpdates(keys)),
		weighted(10, workload.KVTransfers(keys)),
		weighted(10, workload.KVReads(keys)),
	)
}

var workloads = []workloadSpec{
	{
		name: "kv-spsmr-write",
		deploy: psmr.Config{
			Mode: psmr.ModeSPSMR, Scheduler: psmr.SchedIndex, Workers: 4, Replicas: 2,
			Proxies: 1, FanoutDegree: 1,
		},
		keys: 1_000_000,
		mix:  writeMix,
		rate: 4000,
	},
	{
		name:   "kv-smr-write",
		deploy: psmr.Config{Mode: psmr.ModeSMR, Workers: 1, Replicas: 2},
		keys:   1_000_000,
		mix:    writeMix,
		rate:   4000,
	},
	{
		name:   "kv-psmr-mixed",
		deploy: psmr.Config{Mode: psmr.ModePSMR, Workers: 4, Replicas: 2},
		keys:   100_000,
		mix: func(keys workload.KeyGen) workload.Generator {
			return workload.NewMix(
				weighted(95, workload.KVReadUpdate(keys)),
				weighted(5, workload.KVInsertsDeletes(churnKeyGen{})),
			)
		},
		rate: 4000,
	},
	{
		name: "kv-optimistic-hot",
		deploy: psmr.Config{
			Mode: psmr.ModeSPSMR, Scheduler: psmr.SchedIndex, Optimistic: true, Workers: 4, Replicas: 2,
		},
		keys: 100_000,
		mix: func(keys workload.KeyGen) workload.Generator {
			return workload.KVCollisionMix(keys, 10)
		},
		rate:   4000,
		hotSum: true,
	},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// ops generates n operations of stream number stream from the seed:
// the same seed and stream always give the same operations.
func (w *workloadSpec) ops(seed int64, stream, n int) []workload.Op {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
	gen := w.mix(workload.Uniform{N: uint64(w.keys)})
	out := make([]workload.Op, n)
	for i := range out {
		out[i] = gen.Next(rng)
	}
	return out
}

// checkReply reports whether a reply decodes with the code its command
// must produce. Every command of every mix addresses a preloaded key,
// except kv-psmr-mixed's inserts and deletes, whose keys come and go.
func checkReply(op workload.Op, out []byte) error {
	switch op.Cmd {
	case kvstore.CmdRead:
		if value, code := kvstore.DecodeReadOutput(out); code != kvstore.OK || len(value) != 8 {
			return fmt.Errorf("read %x: reply %x, want OK and an 8-byte value", op.Input, out)
		}
	case kvstore.CmdDelete:
		if len(out) != 1 || (out[0] != kvstore.OK && out[0] != kvstore.ErrNotFound) {
			return fmt.Errorf("delete %x: reply %x, want one status byte", op.Input, out)
		}
	default:
		if len(out) != 1 || out[0] != kvstore.OK {
			return fmt.Errorf("command %d %x: reply %x, want OK", op.Cmd, op.Input, out)
		}
	}
	return nil
}

// hotBalanceSum is the preloaded sum of the hot balances (value = key).
const hotBalanceSum = hotKeys * (hotKeys - 1) / 2

// readHotSum reads the hot balances through the replicated path and
// returns their sum (mod 2^64, as transfers wrap).
func readHotSum(invoke func(command.ID, []byte) ([]byte, error)) (uint64, error) {
	var sum uint64
	for k := uint64(0); k < hotKeys; k++ {
		out, err := invoke(kvstore.CmdRead, kvstore.EncodeKey(k))
		if err != nil {
			return 0, fmt.Errorf("read hot key %d: %w", k, err)
		}
		value, code := kvstore.DecodeReadOutput(out)
		if code != kvstore.OK || len(value) != 8 {
			return 0, fmt.Errorf("read hot key %d: reply %x", k, out)
		}
		sum += binary.LittleEndian.Uint64(value)
	}
	return sum, nil
}

// rateInWhy is how a workload's "why" in BENCHMARK.json states its
// open-loop rate.
var rateInWhy = regexp.MustCompile(`open loop at ([0-9]+) cmd/s`)

// checkSpecRate verifies that BENCHMARK.json states the workload's
// open-loop rate as the code fixes it. A workload the file does not
// list runs with the rate fixed in the code.
func checkSpecRate(path string, w workloadSpec) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read benchmark spec: %w", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	for _, sw := range spec.Workloads {
		if sw.Name != w.name {
			continue
		}
		m := rateInWhy.FindStringSubmatch(sw.Why)
		if m == nil {
			return fmt.Errorf("%s: workload %s does not state %q", path, w.name, rateInWhy)
		}
		if rate, _ := strconv.Atoi(m[1]); rate != w.rate {
			return fmt.Errorf("%s: workload %s states %d cmd/s, the benchmark runs %d", path, w.name, rate, w.rate)
		}
	}
	return nil
}
