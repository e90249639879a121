#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root;
# every argument passes through, e.g.
#
#   bash perfbench/run.sh --workload serve-miss --seed 7 --seconds 10 --trace 0
#
# Build outputs, the Go build and module caches, the go command's config
# (and its local telemetry counters) and traced-run span files all stay
# inside the checkout, under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
