# Tier-1 gate and developer shortcuts. `make verify` is the one
# command CI and sessions run before shipping.

GO ?= go

.PHONY: verify fmt vet build test no-retired allocs-gate obs-gate flight-gate race paxos-stress bench

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
#     counters);
#   - the second experiment runner and its setup type (RunKVAblation,
#     AblationSetup) and the per-row knobs the experiment table made
#     redundant (EmbedObs, TagTuning); every row runs through
#     experiment.RunKV and carries the full registry.
no-retired:
	@if git ls-files '*.go' | grep -v '_test\.go$$' | xargs grep -nE 'command\.(Undoable|Cloneable)|NoMKHandoff|NoBatchAdmit|ReSpeculat|rendezvousMulti|RunKVAblation|AblationSetup|EmbedObs|TagTuning' 2>/dev/null; then \
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

# The paper's figures and the ablations have no targets of their own:
# each is one entry of the experiment table (internal/experiment),
# run as `go run ./cmd/psmr-bench -exp <name>` (`-exp all` for every
# entry but the gates). Each run writes BENCH_<name>.json into the
# working directory.
