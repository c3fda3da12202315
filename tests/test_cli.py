import json
import math
import pathlib
import subprocess
import sys

import pytest

import lgtree as lg

PKG = pathlib.Path(__file__).resolve().parent.parent


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "lgtree.cli", *args],
        capture_output=True, text=True, cwd=PKG,
    )
    return proc


def load_result(proc):
    return json.loads(proc.stdout)["result"]


def test_validate_ok():
    proc = run_cli("validate", "trees/star.tree", "--deterministic")
    assert proc.returncode == 0
    result = load_result(proc)
    assert result["hidden"] == 1 and result["observed"] == 3


def test_validate_missing_file_exit_1():
    proc = run_cli("validate", "trees/missing.tree")
    assert proc.returncode == 1
    assert "does not exist" in proc.stderr


def test_validate_invalid_tree_exit_1(tmp_path):
    bad = tmp_path / "bad.tree"
    bad.write_text("node x1 observed\nnode y hidden\nedge y x1 0.5\n")
    proc = run_cli("validate", str(bad))
    assert proc.returncode == 1
    assert "NonMinimal" in proc.stderr


def test_unknown_command_exit_1():
    proc = run_cli("frobnicate", "trees/star.tree")
    assert proc.returncode == 1


def test_bad_flag_value_exit_1():
    proc = run_cli("mi", "trees/star.tree", "--samples", "0")
    assert proc.returncode == 1
    assert "samples" in proc.stderr


def test_mi_cross_method():
    proc = run_cli("mi", "trees/star.tree", "--method", "both", "--deterministic")
    result = load_result(proc)
    assert result["abs_difference_nats"] < 1e-9
    assert result["direct"]["value_nats"] == pytest.approx(0.7294309951122713, abs=1e-12)


def test_mi_units_bits():
    proc = run_cli("mi", "trees/star.tree", "--method", "direct", "--units", "bits", "--deterministic")
    result = load_result(proc)
    assert result["direct"]["value"] == pytest.approx(
        result["direct"]["value_nats"] / math.log(2), abs=1e-12
    )


def test_enumerate_writes_variant_files(tmp_path):
    out = tmp_path / "variants"
    proc = run_cli("enumerate-signs", "trees/dumbbell.tree", "--out", str(out), "--deterministic")
    assert proc.returncode == 0
    report = json.loads((out / "report.json").read_text())["result"]
    assert report["count"] == 4 and report["all_equivalent"]
    files = sorted(out.glob("variant_*.tree"))
    assert len(files) == 4
    variants = [lg.load_tree(f) for f in files]
    assert lg.verify_equivalence(variants)


def test_sign_report_two_layer():
    proc = run_cli("sign-report", "trees/two_layer.tree", "--deterministic")
    result = load_result(proc)
    assert result["edge_sign_variables"] == 9
    assert result["constraint_count"] == 3
    assert result["free_variables"] == 6


def test_optimize_pi_csv(tmp_path):
    csv = tmp_path / "curve.csv"
    proc = run_cli(
        "optimize-pi", "trees/star.tree", "--grid", "0.25", "--samples", "5000",
        "--seed", "7", "--csv", str(csv), "--deterministic",
    )
    result = load_result(proc)
    assert abs(result["pi_star"]["y"] - 0.5) <= 0.25
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "pi,value,std_error"
    assert len(lines) == 6


def test_optimize_pi_two_layer_strict_json():
    # every sign row of a chunk can carry zero prior at pi in {0, 1}; the
    # sweep must stay finite and find the peak, identically on a repeat
    args = ("optimize-pi", "trees/two_layer.tree", "--grid", "0.25", "--samples", "2000",
            "--seed", "1", "--deterministic")
    proc = run_cli(*args)
    assert proc.returncode == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    result = json.loads(proc.stdout, parse_constant=reject)["result"]
    assert len(result["pi_star"]) == 6
    for node, val in result["pi_star"].items():
        assert abs(val - 0.5) <= 0.25
    assert run_cli(*args).stdout == proc.stdout


def test_rate_check_margins():
    proc = run_cli(
        "rate-check", "trees/star.tree", "--ry", "0.93", "--rb", "0.1",
        "--samples", "5000", "--deterministic",
    )
    margins = load_result(proc)["margins"][0]
    assert margins["sum_rate_margin"] == pytest.approx(
        1.03 - 0.7294309951122713, abs=1e-9
    )


def test_config_file_merge(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"samples": 4000, "seed": 5, "deterministic": True}))
    proc = run_cli(
        "mi-conditional", "trees/star.tree", "--config", str(config), "--seed", "9"
    )
    assert proc.returncode == 0
    echo = json.loads(proc.stdout)["config"]
    assert echo["samples"] == 4000      # from file
    assert echo["seed"] == 9            # flag overrides file


def test_unknown_config_field(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"samplez": 10}))
    proc = run_cli("mi", "trees/star.tree", "--config", str(config))
    assert proc.returncode == 1
    assert "samplez" in proc.stderr


def test_synthesize_deterministic_bytes(tmp_path):
    out = tmp_path / "report.json"
    args = (
        "synthesize", "trees/star.tree", "--ry", "0.55", "--rb", "0.6",
        "--blocklen", "4", "--samples", "500", "--seed", "11",
        "--deterministic", "--out", str(out),
    )
    assert run_cli(*args).returncode == 0
    first = out.read_bytes()
    assert run_cli(*args).returncode == 0
    assert out.read_bytes() == first


def test_synthesize_dump_csv(tmp_path):
    out = tmp_path / "report.json"
    csv = tmp_path / "samples.csv"
    proc = run_cli(
        "synthesize", "trees/star.tree", "--ry", "0.55", "--rb", "0.6",
        "--blocklen", "4", "--samples", "300", "--seed", "11",
        "--deterministic", "--out", str(out), "--dump-csv", str(csv),
    )
    assert proc.returncode == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "run,t,node,value"
    # 200 dumped runs x 4 symbols x 3 nodes
    assert len(lines) == 1 + 200 * 4 * 3


def test_verify_constraints_cli():
    proc = run_cli(
        "verify-constraints", "trees/star.tree", "--ry", "0.55", "--rb", "0.6",
        "--blocklen", "4", "--samples", "500", "--seed", "11", "--deterministic",
    )
    result = load_result(proc)
    assert result["all_passed"] is True
    assert len(result["checks"]) == 6


def test_report_all_star():
    proc = run_cli(
        "report-all", "trees/star.tree", "--samples", "5000", "--seed", "7",
        "--deterministic",
    )
    assert proc.returncode == 0
    result = load_result(proc)
    assert result["enumeration"]["count"] == 2
    assert result["constraints"]["all_passed"] is True


def test_report_all_invalid_tree_exit_1(tmp_path):
    bad = tmp_path / "bad.tree"
    bad.write_text("node x1 observed\nnode x2 observed\nedge x1 x2 1.5\n")
    proc = run_cli("report-all", str(bad))
    assert proc.returncode == 1


def test_pi_per_node_form():
    proc = run_cli(
        "mi-conditional", "trees/dumbbell.tree", "--pi", "y1=0.4,y2=0.6",
        "--samples", "3000", "--deterministic",
    )
    assert proc.returncode == 0
    assert load_result(proc)["pi"] == {"y1": 0.4, "y2": 0.6}


def test_pi_missing_node_exit_1():
    proc = run_cli("mi-conditional", "trees/dumbbell.tree", "--pi", "y1=0.4", "--samples", "2000")
    assert proc.returncode == 1
    assert "y2" in proc.stderr


def test_rate_units_bits():
    nats = load_result(run_cli(
        "rate-check", "trees/star.tree", "--ry", "0.6931471805599453", "--rb", "0.5",
        "--samples", "3000", "--deterministic",
    ))["margins"][0]
    bits = load_result(run_cli(
        "rate-check", "trees/star.tree", "--ry", "1.0", "--rb", "0.7213475204444817",
        "--units", "bits", "--samples", "3000", "--deterministic",
    ))["margins"][0]
    assert bits["gaussian_rate"] == pytest.approx(nats["gaussian_rate"], abs=1e-12)
    assert bits["sum_rate_margin"] == pytest.approx(nats["sum_rate_margin"], abs=1e-12)


def test_lts_threads_env(monkeypatch):
    import os
    proc = subprocess.run(
        [sys.executable, "-m", "lgtree.cli", "validate", "trees/star.tree", "--deterministic"],
        capture_output=True, text=True, cwd=PKG, env={**os.environ, "LTS_THREADS": "1"},
    )
    assert proc.returncode == 0


def test_enumerate_embeds_sign_report():
    proc = run_cli("enumerate-signs", "trees/dumbbell.tree", "--deterministic")
    result = load_result(proc)
    assert result["sign_report"]["free_variables"] == 2
    assert len(result["variants"]) == 4
