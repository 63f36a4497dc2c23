#!/usr/bin/env sh
# One-command tier-1 gate: configure + build + full ctest in the default
# build (warnings-as-errors for src/), then rebuild the concurrency-heavy
# suites (ctest label "tsan": util/blas/comm/device + the chunked-transport
# stress, driver (core + hpl) and mixed-precision suites) under
# ThreadSanitizer, then the allocation-heavy suites (ctest label "asan":
# util/blas/grid/rng/trace + the hazard-checker, transport, chunked-transport,
# driver and mixed-precision suites, and the simulator suite, the one place
# device kernels are billed at the fp16 curve) under AddressSanitizer+
# LeakSanitizer+UBSan (the BLAS suite rides along so UBSan sees every kernel version's
# vector loads and stores, the util suite so it sees the team barrier's
# spin and park paths, the transport suite so it sees a mailbox receive
# spin with its stack-held posted receive still reachable by senders). The
# driver suites hold every pipeline/stream bitwise sweep, so both
# legs run the real solve schedules. The mixed-precision suite also
# carries the "mxp" label, surfaced as its own tier-1 step so a red MxP
# gate is visible at a glance (ctest -L mxp re-runs only those tests); the
# solver-variant matrix (pfact variants × pivoting × nrhs × precision)
# likewise carries "variants" and gets its own step and both sanitizer
# legs, as does the unified-allocator suite ("alloc": size-class/stats
# unit tests plus the zero-steady-state-allocation solve gates) and the
# comm-verifier suite ("commcheck": adversarial injection tests for the
# collective-matching/deadlock/leak checker plus clean solver sweeps), and
# the byte-for-byte golden files ("golden": the pure-model figure series
# and the 79-line residual oracle, once as resolved and once pinned to
# each BLAS kernel version, golden.hpl_oracle.<isa>, skipped where the CPU
# lacks the ISA), so a moved bit is visible at a glance. Tier-1 also runs
# blas.fma_rule, the static guard that the avx512f/avx2 gemm bodies fuse
# their k steps and nothing else in libhplx_blas.a fuses.
# A checker-env gate re-runs the driver suites (hazard, hpl, core,
# variants) and the mixed-precision suite with every solve under
# HPLX_HAZARD=1 and then under HPLX_COMM_CHECK=1, the sweeps an overlap,
# transport or refinement change owes.
# A gcc -fanalyzer pass over the transport layer (scripts/analyze.sh,
# baseline-gated) closes out the default build's steps.
# This is what CI runs and what a perf PR must keep green.
#
#   scripts/check.sh             # build/ + build-tsan/ + build-asan/
#   SKIP_TSAN=1 scripts/check.sh # skip the TSan leg (e.g. no TSan runtime)
#   SKIP_ASAN=1 scripts/check.sh # skip the ASan leg
#   SKIP_ANALYZE=1 scripts/check.sh # skip the gcc -fanalyzer pass
#   JOBS=4 scripts/check.sh
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
build="${BUILD_DIR:-$repo/build}"
build_tsan="${TSAN_BUILD_DIR:-$repo/build-tsan}"
build_asan="${ASAN_BUILD_DIR:-$repo/build-asan}"
jobs="${JOBS:-2}"

echo "== tier-1: build + ctest ($build)"
cmake -B "$build" -S "$repo" -DHPLX_WERROR=ON >/dev/null
cmake --build "$build" -j "$jobs"
ctest --test-dir "$build" --output-on-failure -j "$jobs"

echo "== mxp gate: ctest -L mxp ($build)"
ctest --test-dir "$build" --output-on-failure -j "$jobs" -L mxp

echo "== variants gate: ctest -L variants ($build)"
ctest --test-dir "$build" --output-on-failure -j "$jobs" -L variants

echo "== alloc gate: ctest -L alloc ($build)"
ctest --test-dir "$build" --output-on-failure -j "$jobs" -L alloc

echo "== commcheck gate: ctest -L commcheck ($build)"
ctest --test-dir "$build" --output-on-failure -j "$jobs" -L commcheck

echo "== golden gate: ctest -L golden ($build)"
ctest --test-dir "$build" --output-on-failure -j "$jobs" -L golden

for checker in HPLX_HAZARD HPLX_COMM_CHECK; do
  echo "== checker-env gate: driver suites under $checker=1 ($build)"
  for suite in test_hazard test_hpl test_core test_variants test_mxp; do
    env "$checker=1" "$build/tests/$suite" --gtest_brief=1
  done
done

if [ "${SKIP_ANALYZE:-0}" = "1" ]; then
  echo "== skipping static-analyzer pass (SKIP_ANALYZE=1)"
else
  echo "== static analysis: gcc -fanalyzer over the transport layer"
  "$repo/scripts/analyze.sh"
fi

if [ "${SKIP_TSAN:-0}" = "1" ]; then
  echo "== skipping TSan pass (SKIP_TSAN=1)"
else
  echo "== tsan: build + ctest -L tsan ($build_tsan)"
  cmake -B "$build_tsan" -S "$repo" -DHPLX_SANITIZE=thread \
    -DHPLX_WERROR=ON >/dev/null
  cmake --build "$build_tsan" -j "$jobs" \
    --target test_util test_blas test_comm test_comm_chunked test_device \
             test_core test_hpl test_alloc test_mxp test_variants \
             test_commcheck
  ctest --test-dir "$build_tsan" --output-on-failure -j "$jobs" -L tsan
fi

if [ "${SKIP_ASAN:-0}" = "1" ]; then
  echo "== skipping ASan pass (SKIP_ASAN=1)"
else
  echo "== asan: build + ctest -L asan ($build_asan)"
  cmake -B "$build_asan" -S "$repo" -DHPLX_SANITIZE=address,undefined \
    -DHPLX_WERROR=ON >/dev/null
  cmake --build "$build_asan" -j "$jobs" \
    --target test_util test_blas test_grid test_rng test_trace test_hazard \
             test_comm test_comm_chunked test_device test_core test_hpl \
             test_alloc test_mxp test_variants test_commcheck test_sim
  # LSan rides along with ASan by default on Linux; halt_on_error keeps UB
  # findings fatal so the leg cannot silently pass over them.
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
    ctest --test-dir "$build_asan" --output-on-failure -j "$jobs" -L asan
fi

echo "== check.sh: all green"
