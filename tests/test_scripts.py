import ast
import math
import pathlib
import subprocess
import sys

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
