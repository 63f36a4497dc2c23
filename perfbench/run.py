#!/usr/bin/env python3
"""The hplx benchmark.

Builds perfbench/ (which compiles the checkout's src/ through the root
CMake project), runs one workload or all three, checks every solve, and
prints each metric by name with its unit. The last line of standard
output is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

    python3 perfbench/run.py --workload fp64_1x1 --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py                  # every workload, seed 42
    python3 perfbench/run.py --held-out       # every workload, held-out seed

--trace 0 reports the end-to-end metrics; --trace 1 runs the layer probes
and reports the per-layer metrics. perfbench/README.md defines each one.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
PROGRAM = BUILD / "hplx_perfbench"

# The configurations live in hplx_perfbench.cpp; these are their names.
WORKLOADS = ("fp64_1x1", "fp64_2x2", "mxp32_1x1")
DEV_SEED = 42
# Confirm a gain found with DEV_SEED on this seed, which no tuning used.
HELD_OUT_SEED = 7919
# A run must end within 180 s once the program is built.
RUN_LIMIT_S = 170.0
# Timings report their median and the worst percentile that still has
# this many samples beyond it.
TAIL_SAMPLES = 10

# name -> (unit, lower is better)
END_TO_END = {
    "gflops": ("GF/s", False),
    "time_to_solution_s": ("s", True),
    "setup_s": ("s", True),
    "peak_pool_mib": ("MiB", True),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    # HPLX_* switches (hazard or comm checking, debug dumps) change what a
    # solve does; the benchmark measures the shipping configuration.
    return {k: v for k, v in os.environ.items() if not k.startswith("HPLX_")}


def build():
    """Configure once, then build incrementally. Build output goes to
    stderr so standard output carries only the report."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            cwd=ROOT, env=child_env()).returncode
        if rc != 0:
            log(f"perfbench: build failed: {' '.join(cmd)}")
            sys.exit(1)


def measure(workload, seed, seconds, trace):
    """Run the program once. Returns its records and whether it ended
    cleanly; a hung or crashed run keeps the records it printed."""
    cmd = [str(PROGRAM), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, env=child_env())
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
        clean = proc.returncode == 0
        if not clean:
            log(f"perfbench: {workload} exited with code {proc.returncode}")
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        clean = False
        log(f"perfbench: {workload} did not finish within {RUN_LIMIT_S:.0f} s")
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            pass
    return records, clean


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values, lower_is_better):
    """(percentile, value) of the worst percentile that still has
    TAIL_SAMPLES samples beyond it; None when there are too few."""
    n = len(values)
    if n <= TAIL_SAMPLES:
        return None
    ordered = sorted(values, reverse=not lower_is_better)
    pct = math.floor(100.0 * (n - TAIL_SAMPLES) / n)
    return (pct if lower_is_better else 100 - pct), ordered[n - TAIL_SAMPLES - 1]


def end_to_end(solves):
    """Per-solve samples of the user-facing metrics."""
    return {
        "gflops": [s["gflops"] for s in solves],
        "time_to_solution_s": [s["wall_s"] for s in solves],
        "setup_s": [s["wall_s"] - s["hpl_s"] for s in solves],
        "peak_pool_mib": [s["pool_hwm_bytes"] / 2**20 for s in solves],
    }


def per_layer(records, solves):
    """Per-layer metrics of a traced run, name -> (value, unit, applies):
    the probes' values plus the solves' own HplResult counters. Wall and
    modeled seconds stay apart: every modeled number ends in _model."""
    m = {p["name"]: (p["value"], p["unit"], p["applicable"])
         for p in records if p["kind"] == "probe"}
    traced = [s for s in solves if s["traced"]]
    plain = [s for s in solves if not s["traced"]]

    def put(name, value, unit):
        m[name] = (value, unit, True)

    put("blas.dgemm_gflops", median([s["dgemm_gflops"] for s in traced]), "GF/s")
    for name, key in (("core.fact_s", "fact_s"), ("core.mpi_s", "mpi_s"),
                      ("core.transfer_s", "transfer_s"),
                      ("core.rs_wire_s", "rs_wire_s"),
                      ("core.update_busy_s", "update_busy_s"),
                      ("core.update_busy_model_s", "update_busy_model_s")):
        put(name, median([s[key] for s in solves]), "s")
    put("core.update_idle_s",
        median([s["hpl_s"] - s["update_busy_s"] for s in solves]), "s")
    put("core.e2e_over_dgemm",
        median([s["gflops"] / s["dgemm_gflops"] for s in traced]), "ratio")
    put("core.rs_wire_bytes", median([s["rs_wire_bytes"] for s in solves]), "bytes")
    put("core.steady_allocs", max([s["steady_allocs"] for s in solves], default=0),
        "count")
    put("core.ir_iters", median([s["ir_iters"] for s in solves]), "count")
    put("core.ir_fallbacks", sum(1 for s in solves if s["ir_fallback"]), "count")
    put("trace.gflops", median([s["gflops"] for s in traced]), "GF/s")
    put("trace.overhead_gflops",
        median([s["gflops"] for s in plain]) - m["trace.gflops"][0], "GF/s")
    return m


def kib(n):
    return f"{n // 1024} KiB"


def run_workload(workload, seed, seconds, trace):
    """Measure one workload, print its report, return its result dict."""
    records, clean = measure(workload, seed, seconds, trace)
    machine = next((r for r in records if r["kind"] == "machine"), None)
    cfg = next((r for r in records if r["kind"] == "config"), None)
    solves = [r for r in records if r["kind"] == "solve"]
    probes = [r for r in records if r["kind"] == "probe"]
    # Every solve counts, the warm-up too; an unfinished run counts one
    # more failed solve, the one it died in.
    attempted = len(solves) + (0 if clean else 1)
    failed = sum(1 for s in solves if not s["ok"]) + (0 if clean else 1)
    timed = [s for s in solves if s["ok"] and not s["warmup"]]
    bad_probes = [p["name"] for p in probes if not p["ok"]]
    correct = failed == 0 and not bad_probes and bool(timed)

    print(f"hplx benchmark: {workload}, seed {seed}, {seconds:g} s measured, "
          f"{'traced' if trace else 'untraced'}")
    if machine:
        print(f"  machine  nproc {machine['nproc']}, L1d {kib(machine['l1d_bytes'])}, "
              f"L2 {kib(machine['l2_bytes'])}, L3 {kib(machine['l3_bytes'])}, "
              f"{machine['compiler']}, {machine['build_type']} "
              f"({machine['cxx_flags']})")
    if cfg:
        print(f"  knobs    N {cfg['n']}, NB {cfg['nb']}, grid {cfg['p']}x{cfg['q']}, "
              f"{cfg['precision']}, pivoting {cfg['pivoting']}, {cfg['pipeline']}, "
              f"fact_threads {cfg['fact_threads']}, blas_threads {cfg['blas_threads']}, "
              f"update_streams {cfg['update_streams']}, "
              f"kernel_threads {cfg['kernel_threads']}")
    print(f"  solves   {attempted} attempted, {failed} failed"
          + ("" if clean else " (the program did not finish)"))
    for s in solves:
        if not s["ok"]:
            print(f"  FAILED   residual {s['residual']} {s.get('error', '')}")
    for name in bad_probes:
        print(f"  FAILED   probe {name} computed a wrong result")

    samples = end_to_end(timed)
    metrics = {}
    for name, (unit, lower) in END_TO_END.items():
        value = median(samples[name])
        metrics[name] = {"value": value, "unit": unit}
        t = tail(samples[name], lower)
        spread = (f"p{t[0]} {t[1]:.4g} ({TAIL_SAMPLES} beyond)" if t
                  else "too few for a tail percentile")
        print(f"  {name:<20} {value:10.4f} {unit:<5} median of {len(timed)}; {spread}")

    if trace:  # the traced run reports the per-layer metrics instead
        layers = per_layer(records, timed)
        metrics = {}
        print("  solve    GF/s   next to dgemm GF/s")
        for s in timed:
            if s["traced"]:
                print(f"           {s['gflops']:6.3f} {s['dgemm_gflops']:6.3f}")
        for name in sorted(layers):
            value, unit, applies = layers[name]
            note = "" if applies else \
                "  n/a: a 1x1 solve sends no messages (2x2 probe world)"
            print(f"  {name:<28} {value:14.6g} {unit}{note}")
            metrics[name] = {"value": value, "unit": unit}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEV_SEED)
    ap.add_argument("--held-out", action="store_true",
                    help=f"use the held-out seed {HELD_OUT_SEED}")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    seed = HELD_OUT_SEED if args.held_out else args.seed
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build()
    if args.workload != "all":
        result = run_workload(args.workload, seed, args.seconds, args.trace == 1)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for w in WORKLOADS:
            r = run_workload(w, seed, args.seconds, args.trace == 1)
            result["correct"] = result["correct"] and r["correct"]
            result["attempted"] += r["attempted"]
            result["failed"] += r["failed"]
            for name, v in r["metrics"].items():
                result["metrics"][f"{w}.{name}"] = v
    print(json.dumps(result))


if __name__ == "__main__":
    main()
