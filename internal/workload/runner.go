package workload

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/psmr/psmr/internal/bench"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/kvstore"
)

// Op is one generated command invocation.
type Op struct {
	Cmd   command.ID
	Input []byte
}

// Generator produces a stream of operations. Generators are shared
// across goroutines and must be stateless apart from the caller's rng.
type Generator interface {
	Next(rng *rand.Rand) Op
}

// MixEntry weights one operation maker inside a Mix.
type MixEntry struct {
	// Weight is the entry's relative frequency (parts per total).
	Weight int
	// Make builds one operation.
	Make func(rng *rand.Rand) Op
}

// Mix is a weighted mixture of operation makers.
type Mix struct {
	entries []MixEntry
	total   int
}

// NewMix builds a mixture; entries with non-positive weight are
// dropped.
func NewMix(entries ...MixEntry) *Mix {
	m := &Mix{}
	for _, e := range entries {
		if e.Weight > 0 {
			m.entries = append(m.entries, e)
			m.total += e.Weight
		}
	}
	return m
}

// Next implements Generator.
func (m *Mix) Next(rng *rand.Rand) Op {
	pick := rng.Intn(m.total)
	for _, e := range m.entries {
		pick -= e.Weight
		if pick < 0 {
			return e.Make(rng)
		}
	}
	return m.entries[len(m.entries)-1].Make(rng)
}

// KVReads generates read commands with the given key distribution.
func KVReads(keys KeyGen) Generator {
	return genFunc(func(rng *rand.Rand) Op {
		return Op{Cmd: kvstore.CmdRead, Input: kvstore.EncodeKey(keys.Key(rng))}
	})
}

// KVUpdates generates update commands with 8-byte values.
func KVUpdates(keys KeyGen) Generator {
	return genFunc(func(rng *rand.Rand) Op {
		value := make([]byte, 8)
		rng.Read(value)
		return Op{Cmd: kvstore.CmdUpdate, Input: kvstore.EncodeKeyValue(keys.Key(rng), value)}
	})
}

// KVInsertsDeletes alternates inserts and deletes (the paper's
// dependent-command workload, §VII-D), keeping the database size
// roughly stable.
func KVInsertsDeletes(keys KeyGen) Generator {
	return genFunc(func(rng *rand.Rand) Op {
		key := keys.Key(rng)
		if rng.Intn(2) == 0 {
			value := make([]byte, 8)
			rng.Read(value)
			return Op{Cmd: kvstore.CmdInsert, Input: kvstore.EncodeKeyValue(key, value)}
		}
		return Op{Cmd: kvstore.CmdDelete, Input: kvstore.EncodeKey(key)}
	})
}

// KVMixed generates the paper's mixed workload (§VII-F): dependentPct
// percent inserts+deletes, the rest reads.
func KVMixed(keys KeyGen, dependentPct float64) Generator {
	return genFunc(func(rng *rand.Rand) Op {
		if rng.Float64()*100 < dependentPct {
			return KVInsertsDeletes(keys).Next(rng)
		}
		return Op{Cmd: kvstore.CmdRead, Input: kvstore.EncodeKey(keys.Key(rng))}
	})
}

// KVReadUpdate generates the paper's skewed workload (§VII-G): 50%
// reads, 50% updates.
func KVReadUpdate(keys KeyGen) Generator {
	reads, updates := KVReads(keys), KVUpdates(keys)
	return genFunc(func(rng *rand.Rand) Op {
		if rng.Intn(2) == 0 {
			return reads.Next(rng)
		}
		return updates.Next(rng)
	})
}

// KVTransfers generates two-key transfer commands between distinct
// keys (the multi-key workload).
func KVTransfers(keys KeyGen) Generator {
	return genFunc(func(rng *rand.Rand) Op {
		from := keys.Key(rng)
		to := keys.Key(rng)
		if to == from {
			to = keys.Key(rng) // one redraw keeps self-transfers rare
		}
		return Op{Cmd: kvstore.CmdTransfer, Input: kvstore.EncodeTransfer(from, to, uint64(rng.Intn(100)))}
	})
}

// KVTransferMix generates the multi-key ablation workload: 50% two-key
// transfers, 50% reads. Under the barrier C-G every transfer is an
// all-worker barrier; under key-set C-Dep it holds only its two keys'
// owners.
func KVTransferMix(keys KeyGen) Generator {
	transfers, reads := KVTransfers(keys), KVReads(keys)
	return genFunc(func(rng *rand.Rand) Op {
		if rng.Intn(2) == 0 {
			return transfers.Next(rng)
		}
		return reads.Next(rng)
	})
}

// KVCollisionMix generates the optimistic-execution ablation workload:
// collisionPct percent of operations are two-key transfers over a
// small hot key set (heavily conflicting — exactly the commands whose
// speculative order matters), the rest are reads over the full key
// space (conflict-free). At 0% the workload carries no conflicting
// pairs at all, so a speculation can never be contradicted and the
// optimistic hit rate measures pure stream fidelity.
func KVCollisionMix(keys KeyGen, collisionPct float64) Generator {
	return genFunc(func(rng *rand.Rand) Op {
		if rng.Float64()*100 < collisionPct {
			const hot = 16
			from := rng.Uint64() % hot
			to := rng.Uint64() % hot
			if to == from {
				to = (to + 1) % hot
			}
			return Op{Cmd: kvstore.CmdTransfer, Input: kvstore.EncodeTransfer(from, to, uint64(rng.Intn(3)))}
		}
		return Op{Cmd: kvstore.CmdRead, Input: kvstore.EncodeKey(keys.Key(rng))}
	})
}

type genFunc func(rng *rand.Rand) Op

func (f genFunc) Next(rng *rand.Rand) Op { return f(rng) }

// Invoker abstracts the client proxies (core.Client, direct.Client).
type Invoker interface {
	Invoke(cmd command.ID, input []byte) ([]byte, error)
}

// RunnerConfig drives a closed-loop measurement.
type RunnerConfig struct {
	// Clients are the per-client proxies; each runs Window outstanding
	// requests (the paper's window is 50).
	Clients []Invoker
	// Window is the per-client outstanding-request limit. Default 50.
	Window int
	// Gen produces each slot's operation stream.
	Gen Generator
	// Duration is the measured interval (after Warmup). Default 2s.
	Duration time.Duration
	// Warmup is discarded lead-in time. Default 200ms.
	Warmup time.Duration
	// Seed drives per-slot rngs.
	Seed int64
	// OnMeasureStart, if set, runs when the warmup ends (e.g. to reset
	// CPU meters).
	OnMeasureStart func()
}

// Run executes the workload and returns the operation count within the
// measured interval, the measured wall time and the latency histogram.
func Run(cfg RunnerConfig) (ops int64, elapsed time.Duration, hist *bench.Histogram) {
	if cfg.Window <= 0 {
		cfg.Window = 50
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = 200 * time.Millisecond
	}
	hist = &bench.Histogram{}
	var (
		measuring atomic.Bool
		stopped   atomic.Bool
		count     atomic.Int64
		wg        sync.WaitGroup
	)
	for ci, client := range cfg.Clients {
		for s := 0; s < cfg.Window; s++ {
			wg.Add(1)
			go func(client Invoker, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for !stopped.Load() {
					op := cfg.Gen.Next(rng)
					start := time.Now()
					if _, err := client.Invoke(op.Cmd, op.Input); err != nil {
						return
					}
					if measuring.Load() {
						hist.Record(time.Since(start))
						count.Add(1)
					}
				}
			}(client, cfg.Seed^int64(ci*1024+s+1))
		}
	}
	time.Sleep(cfg.Warmup)
	if cfg.OnMeasureStart != nil {
		cfg.OnMeasureStart()
	}
	measuring.Store(true)
	start := time.Now()
	time.Sleep(cfg.Duration)
	measuring.Store(false)
	elapsed = time.Since(start)
	stopped.Store(true)
	wg.Wait()
	return count.Load(), elapsed, hist
}
