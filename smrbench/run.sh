#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash smrbench/run.sh --workload kv-spsmr-write --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# the traced runs' ledgers stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout; nothing is written elsewhere.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod \
	GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false

commit=unknown
if [ -d .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd smrbench && go build -o "$out/smrbench" .)
exec "$out/smrbench" -commit "$commit" -out "$out" "$@"
