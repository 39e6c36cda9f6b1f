# Tier-1 gate and developer shortcuts. `make verify` is the one
# command CI and sessions run before shipping.

GO ?= go

.PHONY: verify fmt vet build test no-retired allocs-gate obs-gate flight-gate race paxos-stress bench sched-ablation admit-ablation multikey-ablation optimistic-ablation rollback-ablation recovery-ablation compartment-ablation obs-ablation

verify: fmt vet build test no-retired allocs-gate obs-gate flight-gate

# Every Go file is gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Retired designs stay retired: non-test code must not reference
#   - the undo-record/clone-replay rollback model (command.Undoable,
#     command.Cloneable); speculation rolls back through versioned
#     stores (internal/mvstore);
#   - the parked multi-key rendezvous (Tuning.NoMKHandoff,
#     rendezvousMulti); the deposit-and-continue handoff is the only
#     multi-key protocol;
#   - per-command admission (Tuning.NoBatchAdmit); the delivery paths
#     always admit whole batches;
#   - re-speculation of rollback collateral (ReSpeculate and its
#     counters).
no-retired:
	@if git ls-files '*.go' | grep -v '_test\.go$$' | xargs grep -nE 'command\.(Undoable|Cloneable)|NoMKHandoff|NoBatchAdmit|ReSpeculat|rendezvousMulti' 2>/dev/null; then \
		echo "verify: non-test code references a retired design (see the no-retired target)"; \
		exit 1; \
	fi

# Allocation gates, bottom-up and end to end:
#   - the two admission hot paths — the index engine's batched keyed
#     admission and the proxy-proposer's frame admission — report 0
#     allocs/op (pooled inodes/tokens/reader groups and pooled group
#     buffers recycle everything they touch; warm-up growth is excluded
#     by the benchmarks' own design);
#   - the request/response codecs cost one exactly-sized frame per
#     encode and nothing per decode with a warm reply interner;
#   - the whole decided path stays within its allocs-per-command budget
#     on an sP-SMR/index cluster behind a proxy and relay and on a
#     classic-SMR cluster (TestDecidedPathAllocsPerCommand).
# A regression that re-introduces per-command garbage fails verify, not
# just a benchmark diff.
allocs-gate:
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkAdmitKeyedIndexBatch$$' -benchmem -benchtime 100000x ./internal/sched/); \
	echo "$$out"; \
	echo "$$out" | grep -q 'BenchmarkAdmitKeyedIndexBatch.* 0 allocs/op' || \
		{ echo "allocs-gate: BenchmarkAdmitKeyedIndexBatch no longer 0 allocs/op"; exit 1; }
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkProxySubmit$$' -benchmem -benchtime 100000x ./internal/proxy/); \
	echo "$$out"; \
	echo "$$out" | grep -q 'BenchmarkProxySubmit.* 0 allocs/op' || \
		{ echo "allocs-gate: BenchmarkProxySubmit no longer 0 allocs/op"; exit 1; }
	@out=$$($(GO) test -run '^$$' -bench 'Benchmark(AppendRequest|AppendResponse|DecodeRequestInto)$$' -benchmem -benchtime 100000x ./internal/command/); \
	echo "$$out"; \
	echo "$$out" | grep -q 'BenchmarkAppendRequest.* 1 allocs/op' && \
	echo "$$out" | grep -q 'BenchmarkAppendResponse.* 1 allocs/op' && \
	echo "$$out" | grep -q 'BenchmarkDecodeRequestInto.* 0 allocs/op' || \
		{ echo "allocs-gate: request/response codec allocations regressed"; exit 1; }
	$(GO) test -count=1 -run 'TestDecidedPathAllocsPerCommand$$' -v .

# Sampled-tracing overhead gate: on the e2e sP-SMR/index kv workload,
# the median of interleaved per-pair throughput ratios with 1-in-1024
# stage tracing over tracing-off must stay >= 0.97 (the observability
# layer's "free when sampled" claim). The pair count is fixed in
# psmr-bench (overheadPairs); short measured intervals keep verify
# fast.
obs-gate:
	$(GO) run ./cmd/psmr-bench -exp obsgate -duration 2s -warmup 300ms

# Flight-recorder gate, two halves of the "always-on black box" claim:
# (1) a journal emit that loses the sampling coin-flip must cost 0
# allocs/op (the common case on the per-command paths), and (2) e2e
# throughput with the journal on (the default) must stay within 3% of
# journal-off, as the median of interleaved pair ratios on the same
# workload as the obs gate.
flight-gate:
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkJournalEmitSampledOut$$' -benchmem -benchtime 100000x ./internal/obs/); \
	echo "$$out"; \
	echo "$$out" | grep -q 'BenchmarkJournalEmitSampledOut.* 0 allocs/op' || \
		{ echo "flight-gate: BenchmarkJournalEmitSampledOut no longer 0 allocs/op"; exit 1; }
	$(GO) run ./cmd/psmr-bench -exp flightgate -duration 2s -warmup 300ms

# Race-detector pass over the whole module (the root e2e suite scales
# its workloads down under -race; see raceEnabled in race_test.go).
race:
	$(GO) test -race ./...

# The paxos suite had a teardown flake once; keep it honest.
paxos-stress:
	$(GO) test -count=5 ./internal/paxos/

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Scan vs index-based scheduler ablation (update-heavy kvstore).
sched-ablation:
	$(GO) run ./cmd/psmr-bench -exp sched

# Admission ablation on the index engine: reader sets x work stealing
# (50/50 read/update kvstore). Decided batches are always admitted
# whole; per-command admission was retired.
admit-ablation:
	$(GO) run ./cmd/psmr-bench -exp admit

# Barrier-vs-multikey ablation: the two-key kvstore transfer under a
# single-key C-G (all-worker barrier) vs the key-set C-Dep (multi-key
# tokens on the touched keys' owners only), on both scheduling engines.
multikey-ablation:
	$(GO) run ./cmd/psmr-bench -exp multikey

# Optimistic-execution ablation: speculate on the coordinators'
# pre-consensus stream and reconcile on the decided order, off/on x
# scan/index engines x workload collision rate; reports speculation
# hit-rate and rollback counters.
optimistic-ablation:
	$(GO) run ./cmd/psmr-bench -exp optimistic

# Rollback-model ablation: decided-path baseline vs mvstore epoch
# abort under forced optimistic reordering at 0/10/50% collision;
# emits BENCH_rollback.json alongside the printed rows. The netfs abort-cost-vs-store-size half of the story is
# BenchmarkRollbackDepth (`make bench`).
rollback-ablation:
	$(GO) run ./cmd/psmr-bench -exp rollback

# Checkpoint/recovery ablation: coordinated on-barrier snapshots at
# interval off/1k/8k/64k decided commands x scan/index engines;
# reports throughput plus the quiesce pause and snapshot size. The
# crash-recovery e2e itself runs in the `race` gate
# (recovery_e2e_test.go).
recovery-ablation:
	$(GO) run ./cmd/psmr-bench -exp checkpoint

# Compartmentalized-ordering ablation: proxy-proposer tier size
# (0/1/2/4 ingress proxies) x learner fan-out off/2 delivery stripes
# per group; reports throughput, the leader's inbound frames-per-
# command compression and the proxies' batch fill, and emits
# BENCH_compartment.json alongside the printed rows.
compartment-ablation:
	$(GO) run ./cmd/psmr-bench -exp compartment

# Observability ablation: pipeline-stage tracing off / 1-in-1024
# sampled / every command x scan/index engines; prints the per-stage
# latency breakdown for the traced rows and emits BENCH_obs.json with
# the stage histograms and the full registry snapshot embedded.
obs-ablation:
	$(GO) run ./cmd/psmr-bench -exp obs
