#!/bin/sh
# Profiling hot-path micro-benchmark driver (the benchmark profiles
# blocksPerOp blocks per op; all numbers below are per block).
#
# Usage:
#   scripts/bench_profiler.sh [output.json]
#       Refresh mode: run the benchmark and rewrite output.json (default
#       BENCH_profiler.json), tagged with the host it ran on (CPU model,
#       nproc, GOMAXPROCS, Go version). The previous committed entry is
#       preserved in the new file as "previous", so the committed history
#       forms a chain back to the seed baseline.
#   scripts/bench_profiler.sh check
#       Check mode (CI perf smoke): run the benchmark and compare it with
#       the committed BENCH_profiler.json. On the committed entry's host it
#       fails when ns_per_block regresses more than MAX_REGRESSION_PCT
#       (default 15). On any other host the numbers are not comparable, so
#       it prints the comparison and exits 0. Nothing is written.
set -eu

cd "$(dirname "$0")/.."

mode=refresh
out="BENCH_profiler.json"
case "${1:-}" in
check) mode=check ;;
"") ;;
*) out="$1" ;;
esac
max_pct="${MAX_REGRESSION_PCT:-15}"

# This host, in the exact form the committed file stores it.
cpu_model="$(awk -F': *' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)"
nproc="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
host="{\"cpu\": \"${cpu_model:-unknown}\", \"nproc\": $nproc, \"gomaxprocs\": ${GOMAXPROCS:-$nproc}, \"go\": \"$(go env GOVERSION)\"}"

raw="$(go test -bench BenchmarkProfileHotPath -benchmem -run '^$' -benchtime 2s . | tee /dev/stderr)"

# Per-block cost of this run.
set -- $(echo "$raw" | awk '
/^BenchmarkProfileHotPath/ {
    ns = ""; allocs = ""; blocks = 1
    for (i = 1; i <= NF; i++) {
        if ($(i+1) == "ns/op")       ns = $i
        if ($(i+1) == "allocs/op")   allocs = $i
        if ($(i+1) == "blocksPerOp") blocks = $i
    }
    printf "%.0f %.1f %d\n", ns / blocks, allocs / blocks, blocks
}')
ns_block="$1"; allocs_block="$2"; blocks="$3"

committed_ns="$(awk -F'[:,]' '/"ns_per_block"/ { gsub(/ /, "", $2); print $2; exit }' BENCH_profiler.json)"
committed_allocs="$(awk -F'[:,]' '/"allocs_per_block"/ { gsub(/ /, "", $2); print $2; exit }' BENCH_profiler.json)"
committed_host="$(sed -n 's/^ *"host": *\({.*}\),$/\1/p' BENCH_profiler.json)"

if [ "$mode" = "check" ]; then
    if [ "$host" != "$committed_host" ]; then
        echo "perf check: committed host ${committed_host:-(untagged)}"
        echo "perf check: this host      $host"
        awk -v now="$ns_block" -v base="$committed_ns" 'BEGIN {
            printf "perf check: %d ns/block vs committed %d (%+.1f%%); hosts differ, not gated\n", now, base, 100 * (now - base) / base
        }'
        exit 0
    fi
    awk -v now="$ns_block" -v base="$committed_ns" -v max="$max_pct" 'BEGIN {
        pct = 100 * (now - base) / base
        printf "perf check: %d ns/block vs committed %d (%+.1f%%, limit +%d%%)\n", now, base, pct, max
        exit pct > max ? 1 : 0
    }' || {
        echo "perf check FAILED: ns/block regressed more than ${max_pct}% over BENCH_profiler.json" >&2
        exit 1
    }
    exit 0
fi

awk -v ns="$ns_block" -v allocs="$allocs_block" -v blocks="$blocks" -v host="$host" \
    -v prev_ns="$committed_ns" -v prev_allocs="$committed_allocs" -v out="$out" 'BEGIN {
    printf "{\n" > out
    printf "  \"benchmark\": \"BenchmarkProfileHotPath\",\n" >> out
    printf "  \"host\": %s,\n", host >> out
    printf "  \"ns_per_block\": %d,\n", ns >> out
    printf "  \"allocs_per_block\": %.1f,\n", allocs >> out
    printf "  \"blocks_per_op\": %d,\n", blocks >> out
    printf "  \"previous\": {\"ns_per_block\": %d, \"allocs_per_block\": %.1f},\n", prev_ns, prev_allocs >> out
    printf "  \"seed_baseline\": {\"ns_per_block\": 470958, \"allocs_per_block\": 4704.5},\n" >> out
    printf "  \"speedup_vs_seed\": %.2f,\n", 470958 / ns >> out
    printf "  \"alloc_reduction_vs_seed\": %.1f\n", 4704.5 / allocs >> out
    printf "}\n" >> out
}'
cat "$out"
