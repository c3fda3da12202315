import ast
import importlib.util
import json
import math
import pathlib
import subprocess
import sys

import pytest

from lgtree import cli

PKG = pathlib.Path(__file__).resolve().parent.parent


def test_divergence_trend_script_writes_a_finite_csv_row():
    proc = subprocess.run(
        [sys.executable, "scripts/divergence_trend.py", "trees/star.tree", "--lengths", "2",
         "--samples", "200", "--frontier-samples", "1000"],
        capture_output=True, text=True, cwd=PKG,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header == "block_length,kl_estimate,kl_std_error,tv_upper_bound,components"
    assert len(rows) == 1
    values = [float(v) for v in rows[0].split(",")]
    assert values[0] == 2 and all(math.isfinite(v) for v in values)


def test_cli_digests_script_prints_one_reproducible_line_per_subcommand():
    def digests():
        proc = subprocess.run([sys.executable, "scripts/cli_digests.py", "star"],
                              capture_output=True, text=True, cwd=PKG)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    first = digests()
    lines = [line.split() for line in first.splitlines()]
    assert len(lines) == 11
    assert all(fixture == "star" and code == "0" and len(sha) == 64
               for _, fixture, code, sha in lines)
    assert len({command for command, *_ in lines}) == 11
    assert digests() == first


def test_cli_digests_script_runs_every_subcommand():
    # a subcommand missing from ARGS would drop out of the byte-identity diff
    script = ast.parse((PKG / "scripts" / "cli_digests.py").read_text())
    args = next(node.value for node in script.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "ARGS" for t in node.targets))
    assert [ast.literal_eval(key) for key in args.keys] == list(cli._COMMANDS)


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", PKG / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result_line(wall, correct=True, failed=0):
    units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
    metrics = {name: {"value": wall if name in ("wall_s", "cpu_s") else 1.0, "unit": unit}
               for name, unit in units.items()}
    result = {"correct": correct, "attempted": 8, "failed": failed, "metrics": metrics}
    return "ok   some check: 1 (limit 2) detail\n" + json.dumps(result) + "\n"


def test_bench_pairs_summary_reads_the_last_line_of_each_run():
    # canned run outputs: no benchmark runs here
    pairs = _bench_pairs()
    parent = [pairs.last_json(_result_line(w)) for w in (0.50, 0.40, 0.45, 0.60, 0.55)]
    change = [pairs.last_json(_result_line(w, failed=f))
              for w, f in ((0.41, 0), (0.42, 1), (0.40, 0), (0.50, 0), (0.55, 0))]
    rows = {line.split()[0]: line.split() for line in pairs.summarize(parent, change).splitlines()}
    # parent wall_s sorted: 0.40 0.45 0.50 0.55 0.60; inclusive quartiles 0.45 and 0.55
    assert rows["wall_s"][2:] == ["0.5000", "0.4200", "0.4500-0.5500", "(0.1000)", "3/5"]
    assert rows["setup_s"][-1] == "0/5"          # ties count for neither side
    assert rows["parent:"][1:] == ["0/40", "operations", "failed,", "5/5", "runs", "correct"]
    assert rows["change:"][1] == "1/40"
    with pytest.raises(ValueError):
        pairs.summarize(parent, change[:4])


def test_bench_pairs_record_writes_the_summary_as_json_per_workload(tmp_path):
    # canned run outputs: no benchmark runs here
    pairs = _bench_pairs()
    parent = [pairs.last_json(_result_line(w)) for w in (0.50, 0.40, 0.45, 0.60, 0.55)]
    change = [pairs.last_json(_result_line(w, correct=w < 0.5, failed=f))
              for w, f in ((0.41, 0), (0.42, 1), (0.40, 0), (0.50, 0), (0.55, 0))]
    path = tmp_path / "bench.json"
    for workload in ("soft_covering", "cli_report"):
        pairs.record(str(path), workload, {"seed": 3, "seconds": 20.0, "parent": "abc",
                                           **pairs.summary(parent, change)})
    found = json.loads(path.read_text())
    assert sorted(found) == ["cli_report", "soft_covering"]
    entry = found["cli_report"]
    assert (entry["seed"], entry["seconds"], entry["parent"]) == (3, 20.0, "abc")
    wall = entry["metrics"]["wall_s"]
    assert wall == {"unit": "s", "parent_median": 0.5, "change_median": 0.42,
                    "parent_q1": 0.45, "parent_q3": 0.55, "parent_iqr": pytest.approx(0.1),
                    "change_lower": 3, "pairs": 5}
    assert entry["metrics"]["setup_s"]["change_lower"] == 0   # ties count for neither side
    assert entry["sides"] == {
        "parent": {"failed": 0, "attempted": 40, "correct_runs": 5, "runs": 5},
        "change": {"failed": 1, "attempted": 40, "correct_runs": 3, "runs": 5},
    }
