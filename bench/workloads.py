"""The benchmark's workloads.

Each workload has a fixed list of operations per round.  The constructor
loads the fixtures and warms every code path the round uses;
``operations()`` lists (key, callable) in the order a round runs them;
``check`` compares the outputs of one round with references computed apart
from lgtree.  Every round of a run repeats the same operations on the same
inputs, so later rounds are checked only for being identical to the first.

An operation fails when it raises or returns a non-finite number, or, for
a CLI command, exits non-zero or prints output that is not strict JSON; its
outputs are then not checked.  Inputs derive from the run's ``--seed``
except where noted.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os

import numpy as np

import checks as C
import oracles

import lgtree
import lgtree.cli
from lgtree import synthesis, trees
from lgtree.info import BernoulliParams
from lgtree.synthesis import RateTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def derive(seed: int, tag: int) -> int:
    """Library seed for one purpose of a run."""
    return int(np.random.SeedSequence([int(seed), int(tag)]).generate_state(1)[0])


def tree_path(name: str) -> str:
    return os.path.join(ROOT, "trees", f"{name}.tree")


class Failed:
    """Output of an operation that raised or returned a non-finite value."""

    def __init__(self, reason: str):
        self.reason = reason

    def __eq__(self, other):
        return isinstance(other, Failed) and other.reason == self.reason


def attempt(fn, *args):
    """Run one operation; an exception becomes a Failed output."""
    try:
        return fn(*args)
    except Exception as exc:  # the benchmark keeps running and counts it
        return Failed(f"{type(exc).__name__}: {exc}")


def _finite_or_failed(output, *numbers):
    if all(math.isfinite(v) for v in numbers):
        return output
    return Failed("non-finite value in the output")


# -- soft_covering ------------------------------------------------------------

class SoftCovering:
    """The soft-covering experiment on star at sign bias 1/2.

    Rates 0.2 nats above the frontier (100k frontier samples) at N = 2, 4, 6
    and 8, each with a 3000-sample divergence estimate; rates (0.01, 0.01)
    at N = 8 below the frontier; the degenerate 2^14-codeword codebook at
    N = 1 (2000-sample divergence estimate, and 100k emitted blocks for its
    second moment); the six encoding constraints at N = 8 (2000 runs).

    Every codebook uses the fixed seed 11.  With the codebook seed drawn per
    run, the N = 2 block KL varies with the 12-pair codebook far beyond its
    Monte Carlo standard error (0.16 to 0.52 nats over 20 seeds), so the
    trend check would test the codebook draw rather than the program.
    """

    LENGTHS = (2, 4, 6, 8)
    MARGIN = 0.2
    FRONTIER_SAMPLES = 100000
    DIVERGENCE_SAMPLES = 3000
    DEGENERATE_SAMPLES = 2000
    MOMENT_RUNS = 100000
    CONSTRAINT_RUNS = 2000
    CODEBOOK_SEED = 11
    # The program's output-independence verdict compares its statistic with
    # 3 x the spread of 16 permutations; it failed on 5 of 250 seeds at
    # N = 8, so it is recorded in ``notes`` rather than checked.  The two
    # max-|z| constraints are judged on the program's observed z at this
    # benchmark's family-wise level (see checks.py), the rest on its verdict.
    UNGATED = ("output_independent_of_signs",)

    def __init__(self, seed: int):
        self.tree = trees.load_tree(tree_path("star"))
        self.pi = BernoulliParams.uniform(self.tree, 0.5)
        self.frontier_seed = derive(seed, 10)
        self.divergence_seed = derive(seed, 11)
        self.moment_seed = derive(seed, 12)
        self.constraint_seed = derive(seed, 13)
        self.books = {}     # this round's (codebook, report) per divergence operation
        rates = synthesis.frontier_rates(self.tree, self.pi, self.MARGIN, 2, samples=1000)
        book = synthesis.build_codebooks(self.tree, rates, self.pi, 0)
        report = synthesis.estimate_divergence(self.tree, book, 100, 0, rate_margin_samples=1000)
        synthesis.verify_encoding_constraints(self.tree, book, report, runs=100)

    def operations(self):
        ops = [(f"trend:{n}", functools.partial(self._divergence, f"trend:{n}",
                                                functools.partial(self._frontier, n),
                                                self.DIVERGENCE_SAMPLES))
               for n in self.LENGTHS]
        ops.append(("below", functools.partial(
            self._divergence, "below", lambda: RateTuple.make([(0.01, 0.01)], 8),
            self.DIVERGENCE_SAMPLES)))
        ops.append(("degenerate", functools.partial(
            self._divergence, "degenerate",
            lambda: RateTuple.make([(math.log(2**14), 0.0)], 1), self.DEGENERATE_SAMPLES)))
        ops.append(("second_moment", self._second_moment))
        ops.append(("constraints", self._constraints))
        return ops

    def _frontier(self, n):
        return synthesis.frontier_rates(self.tree, self.pi, self.MARGIN, n,
                                        samples=self.FRONTIER_SAMPLES, seed=self.frontier_seed)

    def _divergence(self, key, make_rates, samples):
        self.books.pop(key, None)
        rates = make_rates()
        book = synthesis.build_codebooks(self.tree, rates, self.pi, self.CODEBOOK_SEED)
        report = synthesis.estimate_divergence(self.tree, book, samples, self.divergence_seed)
        self.books[key] = (book, report)
        sizes = [(layer.gauss_count, layer.sign_count) for layer in book.layers]
        return _finite_or_failed(
            (sizes, [list(l) for l in rates.layers], rates.block_length,
             report.kl_estimate, report.kl_std_error),
            report.kl_estimate, report.kl_std_error)

    def _second_moment(self):
        x = synthesis.synthesize(self.tree, self.books["degenerate"][0], self.MOMENT_RUNS,
                                 self.moment_seed)
        flat = x.reshape(-1, x.shape[-1])
        moment = (flat.T @ flat / len(flat)).tolist()
        return _finite_or_failed(moment, *(v for row in moment for v in row))

    def _constraints(self):
        book, report = self.books["trend:8"]
        found = synthesis.verify_encoding_constraints(
            self.tree, book, report, runs=self.CONSTRAINT_RUNS, seed=self.constraint_seed)
        return [(c.name, bool(c.passed), c.observed, c.threshold) for c in found]

    def check(self, out):
        if any(isinstance(v, Failed) for v in out.values()):
            return []
        found = []
        entries = [out[f"trend:{n}"] for n in self.LENGTHS] + [out["below"], out["degenerate"]]
        worst = 0
        for sizes, layers, n_uses, _, _ in entries:
            expected = [(math.ceil(math.exp(n_uses * ry)), math.ceil(math.exp(n_uses * rb)))
                        for ry, rb in layers]
            worst = max([worst] + [abs(a - b) for got, want in zip(sizes, expected)
                                   for a, b in zip(got, want)])
        found.append(C.at_most("codebook_sizes", worst, 0,
                               "max |size - ceil(exp(N R))| over all codebooks"))
        kl = [out[f"trend:{n}"][3] for n in self.LENGTHS]
        se = [out[f"trend:{n}"][4] for n in self.LENGTHS]
        found.append(C.kl_trend("kl_falls_with_n", kl, se))
        worst_neg = max(-e[3] / e[4] for e in entries)
        found.append(C.at_most("kl_not_negative", worst_neg, 3.0,
                               "largest -KL / SE over all estimates"))
        below_kl, below_se = out["below"][3], out["below"][4]
        found.append(C.at_least("below_frontier_separation",
                                (below_kl - kl[-1]) / math.hypot(below_se, se[-1]), 3.0,
                                "(KL below frontier - KL at N=8) in sigma"))
        sigma_x, _ = oracles.blocks(oracles.read_tree(tree_path("star")))
        err = float(np.linalg.norm(np.array(out["second_moment"]) - sigma_x))
        found.append(C.at_most("degenerate_second_moment", err, 0.05,
                               "Frobenius |E[x x^T] - path-product Sigma_x|"))
        n = len(oracles.read_tree(tree_path("star")).observed)
        comparisons = {"conditional_independence_given_inputs": n * (n - 1) // 2,
                       "iid_across_channel_uses": n * n}
        gated = [c for c in out["constraints"] if c[0] not in self.UNGATED]
        failing = [name for name, passed, observed, _ in gated
                   if not (observed <= C.family_z(comparisons[name])
                           if name in comparisons else passed)]
        found.append(C.Check("constraints_at_n8", len(gated) == 5 and not failing,
                             float(len(failing)), 0.0,
                             "failing constraints: " + (", ".join(failing) or "none")))
        return found


    def notes(self, out):
        if isinstance(out.get("constraints"), Failed):
            return {}
        return {f"n8.{name}": {"passed": passed, "observed": observed, "threshold": threshold}
                for name, passed, observed, threshold in out["constraints"]
                if name in self.UNGATED}


# -- cli_report ---------------------------------------------------------------

def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def _chain_gap(key, gap, profile):
    """MC input MI + MC sign MI - fixed total MI, in combined SE."""
    se = math.hypot(profile["inputs"]["std_error"], profile["signs_given_inputs"]["std_error"])
    return C.z_family(f"{key}.chain_gap", [(gap, se)], "chain gap in combined SE")


QUADRATURE_FIXTURES = ("star", "dumbbell")


def _sweep_checks(key, tf, result):
    """The argmax lies within one grid step of 1/2, the curve is mirror
    symmetric, and on the leaf-group trees (star, dumbbell) every point
    agrees with quadrature."""
    curve = [(tuple(p["pi"]), p["value_nats"], p["std_error"]) for p in result["curve"]]
    found = [C.argmax_near_half(f"{key}.argmax", result["pi_star"], result["grid_step"]),
             C.mirror_symmetry(f"{key}.mirror_symmetry", curve)]
    if key.split(":")[1] in QUADRATURE_FIXTURES:
        def exact(pt):
            return oracles.sign_mi_quadrature(
                tf, dict(zip(tf.hidden, pt * len(tf.hidden) if len(pt) == 1 else pt)))
        found.append(C.curve_vs_oracle(f"{key}.curve_vs_quadrature", curve, exact))
    return found


class CliReport:
    """In-process ``lgtree.cli.main``, all with ``--deterministic``:
    ``report-all`` on the four fixtures at 50k samples, ``mi-conditional`` on
    dumbbell at 1M samples, and the sign-bias sweeps ``optimize-pi`` on star
    (grid 0.05, 50k samples per point), dumbbell (2-D grid 0.1, 20k samples
    per point) and two_layer (symmetric grid 0.25 over its 6 hidden nodes,
    8192 samples: one full sample batch, so its 64 sign rows span six
    evaluation chunks of 11, at the fixed seed 1).  The two_layer sweep fails
    every time (NaN at pi in {0, 1}, so the output is not strict JSON) and is
    counted as a failed operation."""

    FIXTURES = ("star", "dumbbell", "lowcorr", "two_layer")
    REPORT_SAMPLES = 50000
    LARGE_SAMPLES = 1000000
    SWEEPS = (("star", 0.05, 50000), ("dumbbell", 0.1, 20000), ("two_layer", 0.25, 8192))
    TWO_LAYER_SEED = 1

    def __init__(self, seed: int):
        for name in self.FIXTURES:
            trees.load_tree(tree_path(name))
        s = str(derive(seed, 20))
        self.commands = {
            f"report-all:{name}": ["report-all", tree_path(name), "--samples",
                                   str(self.REPORT_SAMPLES), "--seed", s, "--deterministic"]
            for name in self.FIXTURES
        }
        self.commands["mi-conditional:dumbbell"] = [
            "mi-conditional", tree_path("dumbbell"), "--samples", str(self.LARGE_SAMPLES),
            "--seed", s, "--deterministic"]
        for i, (name, step, samples) in enumerate(self.SWEEPS):
            sweep_seed = self.TWO_LAYER_SEED if name == "two_layer" else derive(seed, i)
            self.commands[f"optimize-pi:{name}"] = [
                "optimize-pi", tree_path(name), "--grid", str(step), "--samples",
                str(samples), "--seed", str(sweep_seed), "--deterministic"]
        self._call(["report-all", tree_path("star"), "--samples", "1000", "--deterministic"])
        for name, _, _ in self.SWEEPS:
            self._call(["optimize-pi", tree_path(name), "--grid", "0.25", "--samples", "1000",
                        "--seed", "0", "--deterministic"])

    @staticmethod
    def _call(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lgtree.cli.main(argv)
        return code, buf.getvalue()

    def operations(self):
        return [(key, functools.partial(self._command, argv))
                for key, argv in self.commands.items()]

    def _command(self, argv):
        code, text = self._call(argv)
        if code != 0:
            return Failed(f"exit code {code}")
        try:
            _strict_json(text)
        except ValueError as exc:
            return Failed(f"not strict JSON: {exc}")
        return text

    def check(self, out):
        found = []
        for key, text in out.items():
            if isinstance(text, Failed):
                continue
            command, name = key.split(":")
            result = _strict_json(text)["result"]
            tf = oracles.read_tree(tree_path(name))
            if command == "mi-conditional":
                found.append(_chain_gap(key, result["chain_gap_nats"], result))
                continue
            if command == "optimize-pi":
                found.extend(_sweep_checks(key, tf, result))
                continue
            cov = oracles.path_product_covariance(tf)
            cov_err = float(np.max(np.abs(np.array(result["covariance"]["joint"]) - cov)))
            found.append(C.at_most(f"{key}.covariance", cov_err, 1e-12,
                                   "max |joint - path-product oracle|"))
            found.append(C.equal(f"{key}.variants", result["enumeration"]["count"],
                                 2 ** len(tf.hidden), "2^k sign-equivalent variants"))
            found.append(C.equal(f"{key}.all_equivalent",
                                 result["enumeration"]["all_equivalent"], True))
            mi_err = abs(result["mi"]["direct"]["value_nats"] - oracles.determinant_mi(tf))
            found.append(C.at_most(f"{key}.mi_direct", mi_err, 1e-9,
                                   "|mi.direct - determinant-identity oracle|"))
            mc = result["mi_conditional"]
            found.append(_chain_gap(key, mc["chain_gap_nats"], mc))
        return found

    @staticmethod
    def notes(out):
        """The program's own constraint verdicts at short blocks; recorded,
        not checked."""
        return {key: [c["name"] for c in json.loads(text)["result"]["constraints"]["checks"]
                      if not c["passed"]]
                for key, text in out.items()
                if key.startswith("report-all") and not isinstance(text, Failed)}


WORKLOADS = {"soft_covering": SoftCovering, "cli_report": CliReport}
