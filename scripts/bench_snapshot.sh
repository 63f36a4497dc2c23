#!/usr/bin/env sh
# Snapshot the benchmark suites (K-BLAS, K-COMM, K-KERN, K-SOLVE) as JSON.
#
# Builds the bench targets if needed, runs bench_cpu_blas, bench_comm,
# bench_kernels and bench_solver, and leaves BENCH_{blas,comm,kernels,
# solver}.json in the chosen output directory. Use it to record
# before/after numbers for a perf PR:
#
#   scripts/bench_snapshot.sh              # -> ./BENCH_*.json
#   scripts/bench_snapshot.sh out/after    # -> out/after/BENCH_*.json
#   MIN_TIME=0.5 scripts/bench_snapshot.sh # longer, steadier runs
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
build="${BUILD_DIR:-$repo/build}"
out="${1:-$repo}"
min_time="${MIN_TIME:-0.2}"

mkdir -p "$out"
out=$(cd "$out" && pwd)

cmake -B "$build" -S "$repo" >/dev/null
cmake --build "$build" --target bench_cpu_blas bench_comm bench_kernels \
  bench_solver -j >/dev/null

cd "$out"
# run <bench binary> <json suffix> [benchmark filter]
run() {
  "$build/bench/$1" \
    ${3:+--benchmark_filter="$3"} \
    --benchmark_min_time="$min_time" \
    --benchmark_out="$out/BENCH_$2.json" \
    --benchmark_out_format=json
}
run bench_cpu_blas blas
run bench_comm comm
run bench_kernels kernels
# bench_solver, one JSON per benchmark family: <json suffix>:<family>.
for entry in solver:BM_Solver streams:BM_SolverStreams \
  rowswap:BM_SolverRowswap mxp:BM_SolverMxp variants:BM_SolverVariants \
  alloc:BM_SolverAlloc commcheck:BM_SolverCommcheck; do
  run bench_solver "${entry%%:*}" "${entry#*:}/"
done

echo "wrote $out/BENCH_{blas,comm,kernels,solver,streams,rowswap,mxp,variants,alloc,commcheck}.json"
