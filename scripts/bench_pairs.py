#!/usr/bin/env python3
"""Alternating parent/change pairs of benchmark runs.

    python3 scripts/bench_pairs.py PARENT --workload cli_report --seed 7 \\
        --seconds 55 --pairs 10

Exports the commit PARENT with ``git archive`` into a temporary directory
and runs

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

PAIRS times in that export and PAIRS times in this checkout, alternating
which side runs first from pair to pair.  Each run's result is the JSON
object on the last line of its stdout.  The script prints, for each
end-to-end metric, the median of each side, the parent's quartiles and
interquartile range, and the number of pairs in which the change reads
lower (ties count for neither side), then each side's failed operations and
correct runs.  With ``--record PATH`` it then makes one ``--trace 1`` run on
each side, and writes the summary, with the seed, the seconds per run, the
parent's commit, the ``machine`` block of this checkout's last untraced run
(``bench/results/W.json``) and each side's per-layer metrics from its traced
run, as JSON under the workload's name in PATH, keeping the other
workloads' entries:

    python3 scripts/bench_pairs.py HEAD~1 --workload soft_covering --seed 7 \\
        --pairs 5 --record pairs.json

Each run is waited for, and the export is removed at exit, so no process or
directory is left behind.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")


def last_json(stdout: str) -> dict:
    """The JSON result on the last non-empty line of a run's stdout."""
    return json.loads(stdout.strip().splitlines()[-1])


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated between the
    sorted values (``statistics.quantiles``' inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(parent: list[dict], change: list[dict]) -> dict:
    """For runs paired by position in the two lists: per end-to-end metric,
    both medians, the parent's quartiles and interquartile range and the
    pairs in which the change reads lower (ties count for neither side);
    per side, the failed and attempted operations and the correct runs."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    metrics = {}
    for name in METRICS:
        old = [run["metrics"][name]["value"] for run in parent]
        new = [run["metrics"][name]["value"] for run in change]
        q1, median, q3 = quartiles(old)
        metrics[name] = {"unit": parent[0]["metrics"][name]["unit"],
                         "parent_median": median, "change_median": statistics.median(new),
                         "parent_q1": q1, "parent_q3": q3, "parent_iqr": q3 - q1,
                         "change_lower": sum(b < a for a, b in zip(old, new)),
                         "pairs": len(old)}
    sides = {side: {"failed": sum(run["failed"] for run in runs),
                    "attempted": sum(run["attempted"] for run in runs),
                    "correct_runs": sum(bool(run["correct"]) for run in runs),
                    "runs": len(runs)}
             for side, runs in (("parent", parent), ("change", change))}
    return {"metrics": metrics, "sides": sides}


def summarize(parent: list[dict], change: list[dict]) -> str:
    """The comparison table of :func:`summary`."""
    found = summary(parent, change)
    rows = [f"{'metric':12s} {'unit':4s} {'parent':>10s} {'change':>10s} "
            f"{'parent quartiles (IQR)':>32s} {'change lower':>12s}"]
    for name, m in found["metrics"].items():
        band = f"{m['parent_q1']:.4f}-{m['parent_q3']:.4f} ({m['parent_iqr']:.4f})"
        won = f"{m['change_lower']}/{m['pairs']}"
        rows.append(f"{name:12s} {m['unit']:4s} {m['parent_median']:10.4f} "
                    f"{m['change_median']:10.4f} {band:>32s} {won:>12s}")
    for side, c in found["sides"].items():
        rows.append(f"{side}: {c['failed']}/{c['attempted']} operations failed, "
                    f"{c['correct_runs']}/{c['runs']} runs correct")
    return "\n".join(rows)


def record(path: str, workload: str, entry: dict) -> None:
    """Set ``workload``'s entry in the JSON object at ``path``, keeping the
    other workloads' entries of an existing file."""
    found = {}
    if os.path.exists(path):
        with open(path) as fh:
            found = json.load(fh)
    found[workload] = entry
    with open(path, "w") as fh:
        json.dump(found, fh, indent=2, sort_keys=True)
        fh.write("\n")


def export(commit: str, into: str) -> None:
    """Write the files of ``commit`` into the directory ``into``."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", commit],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def commit_of(ref: str) -> str:
    """The full hash of the commit ``ref`` names."""
    return subprocess.run(["git", "-C", ROOT, "rev-parse", ref],
                          capture_output=True, text=True, check=True).stdout.strip()


def bench(root: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One benchmark run in the checkout ``root``, untraced unless ``trace``."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py failed in {root}:\n{proc.stderr}")
    return last_json(proc.stdout)


def machine_of(root: str, workload: str) -> dict:
    """The ``machine`` block of the last untraced run of ``workload`` in the
    checkout ``root``, which bench/run.py writes to bench/results/."""
    with open(os.path.join(root, "bench", "results", workload + ".json")) as fh:
        return json.load(fh)["machine"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", help="the commit to compare this checkout against")
    ap.add_argument("--workload", required=True, choices=("soft_covering", "cli_report"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--record", metavar="PATH",
                    help="also write the summary as JSON, under the workload's name, to PATH")
    args = ap.parse_args(argv)
    parent = commit_of(args.parent)
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    per_layer = {}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_root:
        export(args.parent, parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        for pair in range(args.pairs):
            for side in (("parent", "change") if pair % 2 == 0 else ("change", "parent")):
                runs[side].append(bench(roots[side], args.workload, args.seed, args.seconds))
                wall = runs[side][-1]["metrics"]["wall_s"]["value"]
                print(f"pair {pair + 1} {side}: wall_s {wall:.4f}", file=sys.stderr, flush=True)
        if args.record:
            for side in ("parent", "change"):
                traced = bench(roots[side], args.workload, args.seed, args.seconds, trace=1)
                per_layer[side] = traced["metrics"]
    print(f"{args.workload}: {args.pairs} pairs, seed {args.seed}, {args.seconds:g} s per run, "
          f"parent {parent}")
    print(summarize(runs["parent"], runs["change"]))
    if args.record:
        record(args.record, args.workload,
               {"seed": args.seed, "seconds": args.seconds, "parent": parent,
                **summary(runs["parent"], runs["change"]),
                "machine": machine_of(ROOT, args.workload), "per_layer": per_layer})
    return 0


if __name__ == "__main__":
    sys.exit(main())
