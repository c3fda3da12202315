#!/usr/bin/env python3
"""Benchmark harness for lgtree.

    python3 bench/run.py --workload soft_covering --seed 1 --seconds 55 --trace 0

Runs one workload (see ``workloads.py``) in this process against the
library in ``src/`` next to this directory, with BLAS pinned to one thread
through lgtree's own ``LTS_THREADS``.  It repeats whole rounds of the
workload's operations until ``--seconds`` have passed (at least two rounds),
checks the outputs, and prints one JSON object as the last line of stdout:
``correct``, ``attempted``, ``failed`` and ``metrics`` (every metric with its
unit).  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics,
including the tracing overhead.  Results and spans are written under
``bench/results/``.

End-to-end metrics:
  setup_s      fresh process start to ready for the first timed operation
               (import, fixture loads, warm-up); median over child processes,
               one started after every other round of an untraced run, so
               that the samples spread over the whole run
  wall_s       wall time of one round, median over the untraced rounds
  cpu_s        process CPU time of one round, median over the untraced rounds
  peak_rss_mb  peak resident set of this process over the run
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
READY = "ready"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

PER_LAYER = (
    "trees.joint_covariance.calls", "trees.joint_covariance.self_s",
    "trees.load_tree.calls", "trees.load_tree.self_s",
    "signs.enumerate_equivalent_trees.self_s", "signs.verify_equivalence.self_s",
    "signs.variants",
    "info.mixture_mi_profile.calls", "info.mixture_mi_profile.self_s",
    "info.optimize_pi.self_s", "info.grid_points", "info.samples_per_s",
    "info.block_mi_mixture.calls", "info.block_mi_mixture.self_s",
    "info.mi_sign_marginal.self_s",
    "synthesis.gaussian_codeword.calls", "synthesis.gaussian_codeword.self_s",
    "synthesis.synthesize.calls", "synthesis.synthesize.self_s",
    "synthesis.estimate_divergence.self_s",
    "synthesis.rate_region_check.calls", "synthesis.rate_region_check.self_s",
    "synthesis.frontier_rates.self_s", "synthesis.build_codebooks.self_s",
    "synthesis.verify_encoding_constraints.self_s",
    "cli.main.calls", "cli.main.self_s",
)


def unit_of(metric: str) -> str:
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    return "count"


def _import_library():
    """Pin BLAS to one thread via LTS_THREADS, then import lgtree from src/."""
    if not os.path.isfile(os.path.join(SRC, "lgtree", "__init__.py")):
        raise SystemExit(f"bench: no lgtree sources under {SRC}")
    for var in THREAD_VARS:
        os.environ.pop(var, None)
    os.environ["LTS_THREADS"] = "1"
    sys.path.insert(0, SRC)
    import lgtree

    if os.path.dirname(os.path.dirname(os.path.abspath(lgtree.__file__))) != SRC:
        raise SystemExit(f"bench: imported lgtree from {lgtree.__file__}, not {SRC}")


def setup(workload: str, seed: int):
    _import_library()
    from workloads import WORKLOADS

    return WORKLOADS[workload](seed)


def measure_setup(workload: str, seed: int) -> float:
    """Spawn a fresh process that sets up and reports ready; time it."""
    t0 = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        stdout=subprocess.PIPE, text=True)
    line = child.stdout.readline()
    elapsed = time.perf_counter() - t0
    child.stdout.close()
    if child.wait() != 0 or line.strip() != READY:
        raise SystemExit("bench: set-up child process failed")
    return elapsed


def machine() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout differs across numpy versions
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in ("LTS_THREADS",) + THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def run_round(work):
    """Run every operation once; return outputs and (wall, cpu) per operation."""
    from workloads import attempt

    out, times = {}, {}
    for key, fn in work.operations():
        w0, c0 = time.perf_counter(), time.process_time()
        out[key] = attempt(fn)
        times[key] = (time.perf_counter() - w0, time.process_time() - c0)
    return out, times


def round_median(rounds, which: int) -> float:
    """Median over ``rounds`` of the round's total time (``which``: 0 wall,
    1 cpu)."""
    return statistics.median(sum(t[which] for t in times.values()) for times in rounds)


def run(args) -> dict:
    work = setup(args.workload, args.seed)
    from checks import Check
    from spans import Tracer
    from workloads import Failed

    setup_times = []
    tracer = Tracer() if args.trace else None

    rounds = []          # (traced, {operation: (wall, cpu)})
    first = None
    identical = True
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while len(rounds) < 2 or time.perf_counter() < deadline:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.patch()
        try:
            out, times = (tracer.span("round", run_round, work) if traced
                          else run_round(work))
        finally:
            if traced:
                tracer.restore()
        rounds.append((traced, times))
        attempted += len(out)
        failed += sum(isinstance(v, Failed) for v in out.values())
        if first is None:
            first = out
        else:
            identical &= out == first
        if tracer is None and len(rounds) % 2 == 1:
            setup_times.append(measure_setup(args.workload, args.seed))

    found = work.check(first)
    found.append(Check("rounds_identical", identical, float(identical), 1.0,
                       "every round reproduces the first round's outputs"))
    plain = [times for traced, times in rounds if not traced]
    result = {
        "correct": all(c.passed for c in found),
        "attempted": attempted,
        "failed": failed,
    }
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": round_median(plain, 0),
            "cpu_s": round_median(plain, 1),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        metrics = tracer.per_layer(PER_LAYER)
        metrics["trace.overhead_s"] = (
            round_median([times for traced, times in rounds if traced], 0)
            - round_median(plain, 0))
    result["metrics"] = {k: {"value": v, "unit": "MB" if k == "peak_rss_mb" else unit_of(k)}
                         for k, v in metrics.items()}

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, args.workload + (".trace" if args.trace else ""))
    detail = {
        "args": vars(args),
        "machine": machine(),
        "setup_times": setup_times,
        "rounds": [{"traced": traced, "operations": times} for traced, times in rounds],
        "checks": [c.as_dict() for c in found],
        "failed_ops": sorted({k: v.reason for k, v in first.items()
                              if isinstance(v, Failed)}.items()),
        "notes": work.notes(first) if hasattr(work, "notes") else {},
        **result,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    if tracer is not None:
        tracer.dump(stem + ".spans.json")
    for c in found:
        status = "ok  " if c.passed else "FAIL"
        print(f"{status} {c.name}: {c.observed:.6g} (limit {c.threshold:.6g}) {c.detail}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("soft_covering", "cli_report"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_only:
        setup(args.workload, args.seed)
        print(READY, flush=True)
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
