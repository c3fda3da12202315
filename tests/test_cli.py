import contextlib
import dataclasses
import io
import itertools
import json
import math
import pathlib
import re
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, seed, settings, strategies as st

import lgtree as lg
import lgtree.cli

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


@pytest.mark.parametrize("case", ["tree is a directory", "tree is not UTF-8",
                                  "config is a directory", "out lies in no directory"])
def test_unreadable_input_files_exit_1(case, tmp_path):
    undecodable = tmp_path / "bytes.tree"
    undecodable.write_bytes(b"\xff\n")
    argv = {
        "tree is a directory": ["validate", tmp_path],
        "tree is not UTF-8": ["validate", undecodable],
        "config is a directory": ["validate", PKG / "trees" / "star.tree", "--config", tmp_path],
        "out lies in no directory": ["rate-check", PKG / "trees" / "star.tree", "--ry", "0.3",
                                     "--rb", "0.3", "--out", tmp_path / "missing" / "x.json"],
    }[case]
    code, out, err = run_in_process(*argv)
    assert (code, out) == (1, ""), err
    assert "ValidationError: cli: " in err


def test_hidden_free_tree_exits_1(tmp_path):
    tree = tmp_path / "pair.tree"
    tree.write_text("node x1 observed\nnode x2 observed\nedge x1 x2 0.5\n")
    for argv in (["rate-check", tree, "--ry", "0.1", "--rb", "0.1"],
                 ["optimize-pi", tree, "--samples", "1000"]):
        code, out, err = run_in_process(*argv)
        assert (code, out) == (1, ""), err
        assert "tree has no hidden nodes" in err


def test_hidden_free_tree_has_exactly_zero_sign_information(tmp_path):
    tree = tmp_path / "pair.tree"
    tree.write_text("node x1 observed\nnode x2 observed\nedge x1 x2 0.5\n")
    code, out, err = run_in_process("mi-conditional", tree, "--samples", "1000",
                                    "--deterministic")
    assert code == 0, err
    result = json.loads(out)["result"]
    for key in ("signs_given_inputs", "signs_marginal"):
        assert result[key]["value_nats"] == 0.0 and result[key]["std_error"] == 0.0


@pytest.mark.parametrize("name", ["star", "dumbbell", "lowcorr", "two_layer"])
def test_mi_conditional_reports_the_closed_form_sign_marginal(name):
    code, out, err = run_in_process("mi-conditional", PKG / "trees" / f"{name}.tree",
                                    "--samples", "1000", "--deterministic")
    assert code == 0, err
    marginal = json.loads(out)["result"]["signs_marginal"]
    assert marginal["method"] == "closed_form" and marginal["samples"] == 0
    assert abs(marginal["value_nats"]) <= 1e-12 and marginal["std_error"] == 0.0
    assert "seed" not in marginal


@pytest.mark.parametrize("k", [lg.info.MIXTURE_ENUM_CAP, lg.info.MIXTURE_ENUM_CAP + 1])
def test_mi_conditional_leaves_out_the_sign_marginal_past_the_enumeration_cap(
    k, tmp_path, monkeypatch
):
    from test_info import _hidden_chain

    tree = tmp_path / "chain.tree"
    tree.write_text(lg.format_tree(_hidden_chain(k)))
    if k <= lg.info.MIXTURE_ENUM_CAP:
        # the gate is under test here, not the seconds-long 2^12-variant enumeration
        monkeypatch.setattr(lg.info, "mi_sign_marginal",
                            lambda *args: lg.info.MIResult(0.0, 0.0, "closed_form", 0))
    code, out, err = run_in_process("mi-conditional", tree, "--samples", "20000", "--seed", "7",
                                    "--deterministic")
    assert code == 0, err
    result = strict_json(out)["result"]
    assert ("signs_marginal" in result) == (k <= lg.info.MIXTURE_ENUM_CAP)
    se = math.hypot(result["inputs"]["std_error"], result["signs_given_inputs"]["std_error"])
    assert abs(result["chain_gap_nats"]) <= 3 * se


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
    proc = run_cli("mi-conditional", "trees/star.tree", "--samples", "0")
    assert proc.returncode == 1
    assert "ValidationError: cli: field 'samples'" in proc.stderr


def test_mi_cross_method():
    proc = run_cli("mi", "trees/star.tree", "--method", "both", "--deterministic")
    result = load_result(proc)
    assert result["abs_difference_nats"] < 1e-9
    assert result["direct"]["value_nats"] == pytest.approx(0.7294309951122713, abs=1e-12)


def test_mi_both_reports_direct_alone_on_a_tree_with_inner_observed_nodes():
    code, out, err = run_in_process("mi", PKG / "trees" / "two_layer.tree", "--deterministic")
    assert code == 0, err
    result = json.loads(out)["result"]
    assert set(result) == {"direct"}
    assert result["direct"]["value_nats"] == lg.mi_direct(lg.load_tree(PKG / "trees" / "two_layer.tree")).value


def test_mi_closed_form_on_a_tree_with_inner_observed_nodes_exit_1():
    code, out, err = run_in_process("mi", PKG / "trees" / "two_layer.tree", "--method", "closed")
    assert (code, out) == (1, "")
    assert "NotLeafOnly" in err


def test_mi_on_a_tree_with_no_hidden_nodes_reports_direct_alone(tmp_path):
    tree = tmp_path / "pair.tree"
    tree.write_text("node a observed\nnode b observed\nedge a b 0.5\n")
    code, out, err = run_in_process("mi", tree, "--deterministic")
    assert code == 0, err
    result = strict_json(out)["result"]
    assert set(result) == {"direct"} and result["direct"]["value_nats"] == 0.0
    code, out, err = run_in_process("mi", tree, "--method", "closed")
    assert (code, out) == (1, "")
    assert "NotLeafOnly" in err


def test_covariance_reports_the_determinant_error_when_both_determinants_underflow(tmp_path):
    # prod (1 - rho^2) over 400 edges at rho = 0.95 underflows to 0.0
    tree = tmp_path / "wide.tree"
    tree.write_text("node y hidden\n" + "".join(f"node x{i} observed\n" for i in range(400))
                    + "".join(f"edge y x{i} 0.95\n" for i in range(400)))
    code, out, err = run_in_process("covariance", tree, "--deterministic")
    assert code == 0, err
    result = strict_json(out)["result"]
    assert result["determinant_product"] == 0.0
    assert result["determinant_rel_err"] <= 1e-9


def test_mi_takes_no_seed():
    # mi draws nothing random, so a seed would change nothing
    code, out, err = run_in_process("mi", PKG / "trees" / "star.tree", "--seed", "3")
    assert (code, out) == (1, "")
    assert "ParseError: unrecognized arguments: --seed 3" in err


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


@pytest.mark.parametrize("case", ["out is a file", "out lies under a file"])
def test_enumerate_out_under_a_file_exits_1(case, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = taken if case == "out is a file" else taken / "sub"
    code, stdout, err = run_in_process("enumerate-signs", PKG / "trees" / "dumbbell.tree",
                                       "--out", out)
    assert (code, stdout) == (1, ""), err
    assert "ValidationError: cli: field 'out' must name a directory" in err
    assert taken.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


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


def test_optimize_pi_grid_past_one_is_clipped_to_one():
    # 1 / 0.15 rounds up to 7 steps, so the lattice alone would end on 1.05
    proc = run_cli("optimize-pi", "trees/star.tree", "--grid", "0.15", "--samples", "1000",
                   "--deterministic")
    assert proc.returncode == 0, proc.stderr
    points = [pt["pi"][0] for pt in load_result(proc)["curve"]]
    assert points == [0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 1.0]


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
    margins = load_result(proc)["margins"]
    assert margins["sum_rate_margin"] == pytest.approx(
        1.03 - 0.7294309951122713, abs=1e-9
    )


def test_rate_flags_take_the_top_layer_pair_alone():
    # only the top layer is coded: one number per flag, one margin object
    tree = PKG / "trees" / "two_layer.tree"
    code, out, err = run_in_process("rate-check", tree, "--ry", "0.3,0.4", "--rb", "0.2",
                                    "--samples", "1000")
    assert (code, out) == (1, "")
    assert "ValidationError" in err
    code, out, _ = run_in_process("rate-check", tree, "--ry", "0.4", "--rb", "0.2",
                                  "--samples", "1000", "--deterministic")
    assert code == 0
    m = json.loads(out)["result"]["margins"]
    assert (m["layer"], m["gaussian_rate"], m["sign_rate"]) == (2, 0.4, 0.2)


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
    ))["margins"]
    bits = load_result(run_cli(
        "rate-check", "trees/star.tree", "--ry", "1.0", "--rb", "0.7213475204444817",
        "--units", "bits", "--samples", "3000", "--deterministic",
    ))["margins"]
    assert bits["gaussian_rate"] == pytest.approx(nats["gaussian_rate"], abs=1e-12)
    assert bits["sum_rate_margin"] == pytest.approx(nats["sum_rate_margin"], abs=1e-12)


def test_lts_threads_env(monkeypatch):
    import os
    proc = subprocess.run(
        [sys.executable, "-m", "lgtree.cli", "validate", "trees/star.tree", "--deterministic"],
        capture_output=True, text=True, cwd=PKG, env={**os.environ, "LTS_THREADS": "1"},
    )
    assert proc.returncode == 0


def test_lts_threads_warns_only_when_numpy_was_imported_first():
    # BLAS reads its thread count when numpy loads, so LTS_THREADS can take
    # effect only if lgtree is imported first; the other order says so on the
    # lgtree logger (stderr) and prints the same report
    import os
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    code = ("import sys\n{}\nimport lgtree.cli\n"
            "sys.exit(lgtree.cli.main(['mi-conditional', 'trees/dumbbell.tree', '--samples',"
            " '20000', '--deterministic']))\n")
    procs = {first: subprocess.run([sys.executable, "-c", code.format(f"import {first}")],
                                   capture_output=True, text=True, cwd=PKG,
                                   env={**env, "LTS_THREADS": "1"})
             for first in ("lgtree", "numpy")}
    assert all(proc.returncode == 0 for proc in procs.values())
    assert procs["lgtree"].stderr == ""
    assert "LTS_THREADS" in procs["numpy"].stderr and "import lgtree first" in procs["numpy"].stderr
    assert procs["lgtree"].stdout and procs["lgtree"].stdout == procs["numpy"].stdout


@pytest.mark.parametrize("name", ["star", "dumbbell", "lowcorr", "two_layer"])
def test_report_all_bytes_do_not_depend_on_the_blas_thread_count(name):
    # star at seed 2 printed kl_estimate ...8667 at one thread and ...86666 at two
    import os
    argv = [sys.executable, "-m", "lgtree.cli", "report-all", f"trees/{name}.tree", "--seed", "2",
            "--deterministic"]
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    outputs = [subprocess.run(argv, capture_output=True, cwd=PKG,
                              env={**env, "LTS_THREADS": threads}).stdout
               for threads in ("1", "2")]
    assert outputs[0] and outputs[0] == outputs[1]


def test_enumerate_embeds_sign_report():
    proc = run_cli("enumerate-signs", "trees/dumbbell.tree", "--deterministic")
    result = load_result(proc)
    assert result["sign_report"]["free_variables"] == 2
    assert len(result["variants"]) == 4


def run_in_process(*args):
    """Exit code, stdout and stderr of ``lgtree.cli.main`` run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lgtree.cli.main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


def test_in_process_calls_print_what_separate_processes_print():
    # the parser is built once per process and shared by every main() call,
    # so a call must not leave anything behind for the next subcommand
    runs = [("mi-conditional", PKG / "trees" / "star.tree", "--samples", "1000"),
            ("optimize-pi", PKG / "trees" / "dumbbell.tree", "--grid", "0.25",
             "--samples", "1000", "--seed", "4")]
    assert lgtree.cli._build_parser() is lgtree.cli._build_parser()
    in_process = [run_in_process(*argv, "--deterministic") for argv in runs]
    for argv, (code, out, err) in zip(runs, in_process):
        proc = run_cli(*map(str, argv), "--deterministic")
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr)
        assert code == 0, err


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


# the flags each subcommand takes, besides COMMON_FLAGS
COMMON_FLAGS = ("--config", "--out", "--deterministic")
RATE_FLAGS = ("--pi", "--ry", "--rb", "--units", "--blocklen", "--samples", "--seed")
OWN_FLAGS = {
    "validate": (),
    "covariance": (),
    "enumerate-signs": (),
    "sign-report": (),
    "mi": ("--method", "--units"),
    "mi-conditional": ("--pi", "--samples", "--seed", "--units"),
    "optimize-pi": ("--grid", "--samples", "--seed", "--csv"),
    "rate-check": RATE_FLAGS,
    "synthesize": RATE_FLAGS + ("--dump-csv",),
    "verify-constraints": RATE_FLAGS + ("--tv-threshold",),
    "report-all": ("--pi", "--units", "--blocklen", "--samples", "--seed", "--tv-threshold",
                   "--margin"),
}
ALL_FLAGS = sorted({f for flags in OWN_FLAGS.values() for f in flags}.union(COMMON_FLAGS))


def flag_values(tmp_path):
    """A valid, cheap value for every flag."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"deterministic": True}))
    return {"--config": config, "--out": tmp_path / "out", "--deterministic": None,
            "--seed": 7, "--method": "both", "--units": "bits", "--pi": 0.5, "--samples": 1000,
            "--grid": 0.25, "--csv": tmp_path / "curve.csv", "--ry": 0.3, "--rb": 0.3,
            "--blocklen": 2, "--tv-threshold": 0.5, "--dump-csv": tmp_path / "dump.csv",
            "--margin": 0.2}


def test_help_lists_exactly_the_command_flags():
    pairs = 0
    for command, own in OWN_FLAGS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            lgtree.cli.main([command, "--help"])
        listed = set(re.findall(r"--[a-z][a-z-]*", out.getvalue())) - {"--help"}
        assert listed == set(own + COMMON_FLAGS), command
        pairs += len(listed)
    assert pairs == 73


@pytest.mark.parametrize("command", OWN_FLAGS)
def test_each_command_accepts_its_full_flag_set(command, tmp_path):
    values = flag_values(tmp_path)
    argv = [command, PKG / "trees" / "star.tree"]
    for flag in OWN_FLAGS[command] + COMMON_FLAGS:
        argv += [flag] if values[flag] is None else [flag, values[flag]]
    code, out, err = run_in_process(*argv)
    assert (code, out) == (0, ""), err
    report = tmp_path / "out" / "report.json" if command == "enumerate-signs" else tmp_path / "out"
    strict_json(report.read_text())


def test_every_foreign_flag_is_a_parse_error(tmp_path):
    values = flag_values(tmp_path)
    foreign = [(command, flag) for command, own in OWN_FLAGS.items()
               for flag in ALL_FLAGS if flag not in own + COMMON_FLAGS]
    assert len(foreign) == 176 - 73
    for command, flag in foreign:
        code, out, err = run_in_process(command, PKG / "trees" / "star.tree", flag, values[flag])
        assert (code, out) == (1, ""), (command, flag)
        assert "ParseError: unrecognized arguments: " + flag in err, (command, flag)


@pytest.mark.parametrize("command, flags, prefixes", [
    ("rate-check", ["--ry", "0.3", "--rb", "0.3"], ["--bl", "2", "--sa", "1000"]),
    ("mi", [], ["--me", "both"]),
])
def test_flag_abbreviations_are_parse_errors(command, flags, prefixes):
    # each prefix is unambiguous: --blocklen, --samples, --method
    code, out, err = run_in_process(command, PKG / "trees" / "star.tree", *flags, *prefixes)
    assert (code, out) == (1, "")
    assert "ParseError: unrecognized arguments: " + " ".join(prefixes) in err


def test_synthesize_result_keys_are_the_report_fields():
    code, out, err = run_in_process("synthesize", PKG / "trees" / "star.tree", "--ry", "0.3",
                                    "--rb", "0.3", "--blocklen", "2", "--samples", "200",
                                    "--deterministic")
    assert code == 0, err
    fields = [f.name for f in dataclasses.fields(lg.synthesis.SynthesisReport)]
    assert sorted(strict_json(out)["result"]) == sorted(fields)


def test_readme_commands_parse():
    readme = (PKG / "README.md").read_text(encoding="utf-8")
    lines = []
    for section in ("## CLI", "## Experiments"):
        block = readme.split(section, 1)[1].split("```", 2)[1]
        lines += [line for line in block.splitlines() if line.startswith("lgtree ")]
    assert len(lines) >= 12
    parser = lgtree.cli._build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


@pytest.mark.parametrize("command, flags", [
    ("rate-check", ["--pi", "y=1.5"]),
    ("rate-check", ["--pi", "y=nan"]),
    ("rate-check", ["--pi", "y=abc"]),
    ("rate-check", ["--ry", "nan"]),
    ("rate-check", ["--ry", "inf"]),
    ("rate-check", ["--ry", "1e308", "--rb", "1e308"]),
    ("rate-check", ["--ry", "abc"]),
    ("synthesize", ["--tv-threshold", "nan"]),
    ("synthesize", ["--margin", "nan"]),
    ("synthesize", ["--ry", "1e5"]),
    ("report-all", ["--margin", "nan"]),
    ("synthesize", ["--samples", "1"]),          # one sample has no standard error
    ("verify-constraints", ["--samples", "1"]),
    ("optimize-pi", ["--grid", "1e-5"]),         # 100,001 grid points
    ("mi-conditional", ["--pi", "y=0.5,zz=0.3"]),   # not a node of the tree
    ("mi-conditional", ["--pi", "x1=0.5,y=0.9"]),   # an observed node
    ("mi-conditional", ["--pi", "y=0.5,y=0.9"]),    # a hidden node twice
])
def test_non_finite_or_out_of_range_fields_exit_1(command, flags):
    rates = ["--ry", "0.5", "--rb", "0.5"] if "--ry" in OWN_FLAGS[command] else []
    code, out, err = run_in_process(
        command, PKG / "trees" / "star.tree", *rates, "--samples", "1000", "--deterministic",
        *flags,
    )
    assert code == 1 and out == ""
    # synthesize reads no margin or TV threshold, so those flags stop at the parser
    assert ("ValidationError" if flags[0] in OWN_FLAGS[command] else "ParseError") in err


@pytest.mark.parametrize("spec, node", [("y=0.5,zz=0.3", "'zz'"), ("x1=0.5,y=0.9", "'x1'"),
                                        ("y=0.5,y=0.9", "'y' twice")])
def test_pi_names_each_hidden_node_once(spec, node):
    code, out, err = run_in_process("mi-conditional", PKG / "trees" / "star.tree", "--pi", spec,
                                    "--samples", "1000")
    assert (code, out) == (1, "")
    assert node in err


@pytest.mark.parametrize("command, config", [
    ("report-all", {"margin": "x"}),
    ("mi", {"method": 3}),
    ("optimize-pi", {"grid_step": "0.1"}),
    ("mi-conditional", {"samples": 2000.5}),
    ("mi-conditional", {"seed": 1.5, "samples": 2000}),
    ("mi-conditional", {"seed": True, "samples": 2000}),
    ("rate-check", {"block_length": 2.5, "ry": 0.5, "rb": 0.5, "samples": 2000}),
    ("rate-check", {"ry": [0.5], "rb": 0.5, "samples": 2000}),
    ("optimize-pi", {"csv": None}),
    ("validate", {"deterministic": "yes"}),
    ("validate", {"deterministic": 1}),
    ("mi", {"ry": 0.5}),
    ("synthesize", {"margin": 0.2, "ry": 0.5, "rb": 0.5, "samples": 2000}),
    ("validate", {"command": "mi"}),
    ("validate", [1, 2]),
])
def test_mistyped_or_foreign_config_fields_exit_1(command, config, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_in_process(command, PKG / "trees" / "star.tree", "--config", path)
    assert (code, out) == (1, "")
    assert "ValidationError: cli: " in err


def test_numeric_rates_and_pi_in_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"ry": 0.5, "rb": 0.5, "samples": 2000}))
    code, out, err = run_in_process("rate-check", PKG / "trees" / "star.tree", "--config", path)
    assert code == 0, err
    assert json.loads(out)["config"]["ry"] == 0.5

    path.write_text(json.dumps({"pi": 0.25, "samples": 2000, "deterministic": True}))
    from_file = run_in_process("mi-conditional", PKG / "trees" / "star.tree", "--config", path)
    from_flag = run_in_process("mi-conditional", PKG / "trees" / "star.tree", "--pi", "0.25",
                               "--samples", 2000, "--deterministic")
    assert from_file[0] == from_flag[0] == 0, from_file[2]
    assert json.loads(from_file[1])["result"] == json.loads(from_flag[1])["result"]
    assert json.loads(from_file[1])["result"]["pi"] == {"y": 0.25}


NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, 1e5, -0.5, 1.5, 0.0, 1.0]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0.0, 1.0),
)
VALID = {"ry": 0.3, "rb": 0.3, "pi": 0.5, "tv-threshold": 0.5, "margin": 0.2, "grid": 0.05,
         "blocklen": 4, "seed": 7, "samples": 1000}
FLOAT_FLAGS = ["ry", "rb", "pi", "tv-threshold", "margin", "grid"]
INT_FLAGS = ["blocklen", "seed", "samples"]
FIELDS = {"ry": "ry", "rb": "rb", "pi": "pi", "tv-threshold": "tv_threshold",
          "margin": "margin", "grid": "grid_step", "blocklen": "block_length", "seed": "seed",
          "samples": "samples"}
# JSON types a --config file may give each field
JSON_TYPES = {**{f: (int, float) for f in FLOAT_FLAGS}, **{f: (int,) for f in INT_FLAGS},
              "ry": (str, int, float), "rb": (str, int, float), "pi": (str, int, float)}


def own_valid(command):
    return {k: v for k, v in VALID.items() if f"--{k}" in OWN_FLAGS[command]}


def test_every_non_finite_numeric_field_exits_1():
    commands = ["rate-check", "synthesize", "optimize-pi", "report-all"]
    checked = set()
    for command in commands:
        names = [k for k in FLOAT_FLAGS if f"--{k}" in OWN_FLAGS[command]]
        for name, value in itertools.product(names, [math.nan, math.inf, -math.inf]):
            flags = {**own_valid(command), name: value}
            code, out, err = run_in_process(
                command, PKG / "trees" / "star.tree",
                *(f"--{k}={v!r}" for k, v in flags.items()),
            )
            assert (code, out) == (1, ""), (command, name, value, err)
            assert "ValidationError" in err
            checked.add(name)
    assert checked == set(FLOAT_FLAGS)


def field_cases(command):
    floats = [k for k in FLOAT_FLAGS if f"--{k}" in OWN_FLAGS[command]]
    ints = [k for k in INT_FLAGS if f"--{k}" in OWN_FLAGS[command]]
    return st.tuples(st.just(command), st.one_of(
        st.tuples(st.sampled_from(floats), NUMBERS),
        st.tuples(st.sampled_from(ints), st.integers(-3, 6)),
    ))


# any JSON value a config file could hold for one field
JSON_VALUES = st.one_of(NUMBERS, st.integers(-3, 6), st.text(max_size=4), st.booleans(),
                        st.none(), st.just([0.5]))


@seed(20161018)
@settings(max_examples=100, deadline=None, database=None)
@given(
    case=st.sampled_from(["rate-check", "synthesize", "report-all"]).flatmap(field_cases),
    per_node_pi=st.booleans(),
    config_value=st.one_of(st.none(), st.tuples(JSON_VALUES)),
)
def test_numeric_fields_exit_0_or_1_with_strict_json(case, per_node_pi, config_value,
                                                     tmp_path_factory):
    # one field takes any value at all, the others keep valid ones; with a
    # config_value, every field comes from a config file and that field takes
    # any JSON value
    command, (name, value) = case
    fields = {**own_valid(command), name: value}
    if config_value is not None:
        fields[name] = config_value[0]
    if per_node_pi and type(fields["pi"]) in (str, int, float):
        fields["pi"] = "y=" + (fields["pi"] if type(fields["pi"]) is str else repr(fields["pi"]))
    tree = PKG / "trees" / "star.tree"
    by_flag = run_in_process(command, tree, *(f"--{k}={v if type(v) is str else repr(v)}"
                                               for k, v in fields.items()), "--deterministic")
    runs = [by_flag]
    if config_value is not None:
        path = tmp_path_factory.mktemp("config") / "config.json"
        path.write_text(json.dumps({FIELDS[k]: v for k, v in fields.items()}))
        by_file = run_in_process(command, tree, "--config", path, "--deterministic")
        if type(fields[name]) not in JSON_TYPES[name]:
            assert by_file[0] == 1 and "ValidationError: cli: " in by_file[2], by_file[2]
        else:
            # a config value behaves like the same value given as a flag
            assert by_file[0] == by_flag[0], (by_file[2], by_flag[2])
            if by_flag[0] == 0:
                assert strict_json(by_file[1])["result"] == strict_json(by_flag[1])["result"]
        runs.append(by_file)
    for code, out, err in runs:
        assert code in (0, 1), err
        if code == 0:
            strict_json(out)
        else:
            assert out == ""


def test_running_the_cli_imports_no_scipy():
    code = (
        "import contextlib, io, sys\n"
        "import lgtree, lgtree.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = lgtree.cli.main(['report-all', 'trees/star.tree', '--samples', '1000',"
        " '--deterministic'])\n"
        "assert code == 0, code\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=PKG)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
