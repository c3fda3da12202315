"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run pytest with
``-s`` or ``-rA`` to see them) and asserts both the criterion and its runtime
budget.  All Monte Carlo runs use pinned seeds and are deterministic.
"""

import dataclasses
import importlib.util
import json
import math
import pathlib
import subprocess
import sys
import time
from statistics import NormalDist

import numpy as np
import pytest

import lgtree as lg
from lgtree.info import BernoulliParams
from lgtree.synthesis import RateTuple

PKG = pathlib.Path(__file__).resolve().parent.parent
STAR_MI = 0.7294309951122713   # frozen from the direct-determinant oracle

FRONTIER_SEED = 5
CODEBOOK_SEED = 11
DIVERGENCE_SEED = 17
THREE_SIGMA_MASS = 2.0 * NormalDist().cdf(-3.0)   # two-sided mass beyond 3 sigma


def _oracles():
    """The benchmark's Gauss-Hermite oracles, which read the tree files
    themselves and share no code with lgtree."""
    spec = importlib.util.spec_from_file_location("bench_oracles", PKG / "bench" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _finish(num: int, desc: str, t0: float, ok: bool, budget: float | None = None):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {status} {desc} ({elapsed:.1f}s"
    line += f" / budget {budget:.0f}s)" if budget else ")"
    print(line)
    assert ok, f"criterion {num} failed"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def combined(*results):
    return math.sqrt(sum(r.std_error**2 for r in results))


def test_criterion_1_sign_equivalence_counts(star, dumbbell, two_layer):
    t0 = time.perf_counter()
    ok = True
    for tree, count in ((star, 2), (dumbbell, 4), (two_layer, 64)):
        variants = lg.enumerate_equivalent_trees(tree)
        ok &= len(variants) == count
        ok &= lg.verify_equivalence(variants)
    rep_d = lg.sign_class_report(dumbbell)
    ok &= (rep_d.edge_sign_variables, rep_d.constraint_count, rep_d.free_variables) == (3, 1, 2)
    rep_t = lg.sign_class_report(two_layer)
    ok &= (rep_t.edge_sign_variables, rep_t.constraint_count, rep_t.free_variables) == (9, 3, 6)
    _finish(1, "sign-equivalence counts 2/4/64 and class reports (3,1,2)/(9,3,6)", t0, ok, 1.0)


def test_criterion_2_determinant_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(200):
        tree = lg.random_tree(rng)
        det = lg.tree_determinant(tree)
        direct = float(np.linalg.det(np.asarray(lg.joint_covariance(tree).joint)))
        worst = max(worst, abs(direct - det) / abs(det))
    _finish(2, f"determinant identity on 200 random trees (worst rel err {worst:.2e})",
            t0, worst < 1e-12, 5.0)


def test_criterion_3_closed_form_mi(star):
    from lgtree.trees import squared_gain_ratios

    t0 = time.perf_counter()
    rng = np.random.default_rng(4321)
    worst_gap, worst_spread = 0.0, 0.0
    for _ in range(100):
        tree = lg.random_tree(rng)
        sigma = lg.joint_covariance(tree).observed_block
        gap = abs(lg.mi_closed_form(sigma, tree).value - lg.mi_direct(tree).value)
        worst_gap = max(worst_gap, gap)
        for o in tree.observed:
            ratios = squared_gain_ratios(sigma, tree, o, tree.adjacency[o][0][0])
            if len(ratios) > 1:
                worst_spread = max(worst_spread, max(ratios) - min(ratios))
    sigma_s = lg.joint_covariance(star).observed_block
    star_closed = lg.mi_closed_form(sigma_s, star).value
    star_direct = lg.mi_direct(star).value
    ok = worst_gap < 1e-9 and worst_spread <= 1e-12
    ok &= abs(star_closed - STAR_MI) < 1e-9 and abs(star_direct - STAR_MI) < 1e-9
    _finish(3, f"closed-form vs direct MI on 100 trees (gap {worst_gap:.1e}, "
               f"triple spread {worst_spread:.1e}), star at 0.7294", t0, ok, 5.0)


def test_criterion_4_sign_marginal_mi(star, dumbbell):
    t0 = time.perf_counter()
    ok = True
    for tree in (star, dumbbell):
        for p in (0.3, 0.5, 0.9):
            res = lg.mi_sign_marginal(tree, BernoulliParams.uniform(tree, p), 100000)
            # 1e-12 floor absorbs log-sum float noise when all components tie
            ok &= abs(res.value) <= max(3 * res.std_error, 1e-12)
    _finish(4, "sign-marginal MI consistent with zero on star/dumbbell, pi in {.3,.5,.9}",
            t0, ok, 30.0)


def test_criterion_5_optimal_sign_bias(star, dumbbell):
    oracles = _oracles()
    t0 = time.perf_counter()
    ok = True
    details = []
    for tree, name in ((star, "star"), (dumbbell, "dumbbell")):
        best, curve = lg.optimize_pi(tree, 0.05, 100000, 11)
        for node, val in best.as_dict().items():
            ok &= abs(val - 0.5) <= 0.05 + 1e-12
        vals = {tuple(pt): est for pt, est in curve}
        worst_z = 0.0
        for pt, est in vals.items():
            mirror = vals[tuple(round(1 - v, 12) for v in pt)]
            se = combined(est, mirror)
            if se > 0:
                worst_z = max(worst_z, abs(est.value - mirror.value) / se)
        ok &= worst_z <= 3.0
        # the sweep shares one draw, so mirror points are correlated and the
        # symmetry test above loses power; every point must also match the
        # quadrature oracle at a family-wise 3-sigma level over the grid
        # (the oracle sums one term per hidden node, each zero at pi = 0, so
        # every node's term is evaluated once per grid value)
        tf = oracles.read_tree(PKG / "trees" / f"{name}.tree")
        axis = {v for pt, _ in curve for v in pt}
        term = {(h, v): oracles.sign_mi_quadrature(tf, {g: v if g == h else 0.0 for g in tree.hidden})
                for h in tree.hidden for v in axis}
        level = NormalDist().inv_cdf(1.0 - THREE_SIGMA_MASS / (2 * len(curve)))
        worst_q = 0.0
        for pt, est in curve:
            probs = pt * tree.k if len(pt) == 1 else pt
            diff = est.value - sum(term[h, v] for h, v in zip(tree.hidden, probs))
            if est.std_error > 0:
                worst_q = max(worst_q, abs(diff) / est.std_error)
            else:
                ok &= abs(diff) <= 1e-12
        ok &= worst_q <= level
        details.append(f"{name} pi*={tuple(best.as_dict().values())} sym z={worst_z:.2f} "
                       f"quadrature z={worst_q:.2f}/{level:.2f}")
    _finish(5, "sign-bias argmax at 1/2, symmetric curves matching quadrature: "
               + "; ".join(details), t0, ok, 120.0)


def test_criterion_6_chain_identity(star, dumbbell):
    t0 = time.perf_counter()
    ok = True
    details = []
    for tree, name in ((star, "star"), (dumbbell, "dumbbell")):
        pi = BernoulliParams.uniform(tree, 0.5)
        prof = lg.mixture_mi_profile(tree, pi, 100000, 29)
        sigma = lg.joint_covariance(tree).observed_block
        fixed = lg.mi_closed_form(sigma, tree).value
        total = prof["inputs"].value + prof["signs_given_inputs"].value
        z = (total - fixed) / combined(prof["inputs"], prof["signs_given_inputs"])
        ok &= abs(z) <= 3.0
        details.append(f"{name} z={z:+.2f}")
    _finish(6, "chain identity: MC input MI + MC sign MI = fixed total; " + "; ".join(details),
            t0, ok, 60.0)


def test_criterion_7_decomposition(dumbbell):
    t0 = time.perf_counter()
    ok = True
    details = []
    for pis in ((0.5, 0.5), (0.5, 1.0)):
        pi = BernoulliParams.make(dict(zip(dumbbell.hidden, pis)))
        lhs, rhs = lg.decomposition_check(dumbbell, pi, 100000, 31)
        z = abs(lhs.value - rhs.value) / max(combined(lhs, rhs), 1e-300)
        ok &= z <= 3.0
        details.append(f"pi={pis}: z={z:.3f}")
    _finish(7, "conditional sign MI splits across leaf groups; " + "; ".join(details),
            t0, ok, 60.0)


@pytest.fixture(scope="module")
def star_trend(star):
    pi = BernoulliParams.uniform(star, 0.5)
    out = {}
    for n_uses in (2, 4, 6, 8):
        rates = lg.frontier_rates(star, pi, 0.2, n_uses, samples=100000, seed=FRONTIER_SEED)
        codebook = lg.build_codebooks(star, rates, pi, CODEBOOK_SEED)
        out[n_uses] = (codebook, lg.estimate_divergence(star, codebook, 3000, DIVERGENCE_SEED))
    return pi, out


def test_criterion_8_synthesis_trend(star, star_trend):
    t0 = time.perf_counter()
    pi, by_n = star_trend
    kl = {n: rep.kl_estimate for n, (_, rep) in by_n.items()}
    se = {n: rep.kl_std_error for n, (_, rep) in by_n.items()}
    inversions = [
        (a, b) for a, b in ((2, 4), (4, 6), (6, 8)) if kl[b] > kl[a]
    ]
    tolerable = all(
        kl[b] - kl[a] <= 3 * math.hypot(se[a], se[b]) for a, b in inversions
    )
    ok = len(inversions) <= 1 and tolerable

    below = lg.build_codebooks(star, RateTuple.make([(0.01, 0.01)], 8), pi, CODEBOOK_SEED)
    rep_below = lg.estimate_divergence(star, below, 3000, DIVERGENCE_SEED)
    sep = (rep_below.kl_estimate - kl[8]) / math.hypot(rep_below.kl_std_error, se[8])
    ok &= sep >= 3.0

    degenerate = lg.build_codebooks(
        star, RateTuple.make([(math.log(2**14), 0.0)], 1), pi, CODEBOOK_SEED
    )
    rep_deg = lg.estimate_divergence(star, degenerate, 50000, DIVERGENCE_SEED)
    ok &= rep_deg.empirical_cov_error < 0.05

    trend = " -> ".join(f"{kl[n]:.3f}" for n in (2, 4, 6, 8))
    _finish(8, f"soft-covering trend {trend} ({len(inversions)} inversion(s)), "
               f"below-frontier separation {sep:.0f} sigma, "
               f"degenerate cov err {rep_deg.empirical_cov_error:.3f}", t0, ok, 300.0)


def test_criterion_9_constraint_checklist(star, star_trend):
    t0 = time.perf_counter()
    _, by_n = star_trend
    codebook, report = by_n[8]
    checks = lg.verify_encoding_constraints(star, codebook, report, runs=2000, seed=99)
    ok = all(c.passed for c in checks) and len(checks) == 6

    # tamper 1: drop one Gaussian codeword -> only the gaussian cardinality fails
    layer = dataclasses.replace(codebook.top, gauss_count=codebook.top.gauss_count - 1)
    tampered = dataclasses.replace(codebook, top=layer)
    t_checks = {c.name: c for c in lg.verify_encoding_constraints(star, tampered, report, runs=2000, seed=99)}
    ok &= not t_checks["gaussian_codebook_cardinality"].passed
    ok &= t_checks["sign_codebook_cardinality"].passed

    # tamper 2: hard-wire signs to +1 with pi=0.5 declared -> independence is
    # trivially clean but the sign cardinality no longer matches
    lay = codebook.top
    ones = dataclasses.replace(
        lay,
        signs=np.ones((1,) + lay.signs.shape[1:]),
        pattern_codes=np.zeros((1, lay.signs.shape[1]), dtype=np.int64),
    )
    wired = dataclasses.replace(codebook, top=ones)
    rep_w = lg.estimate_divergence(star, wired, 1500, DIVERGENCE_SEED)
    w_checks = {c.name: c for c in lg.verify_encoding_constraints(star, wired, rep_w, runs=2000, seed=99)}
    ok &= w_checks["output_independent_of_signs"].passed
    ok &= not w_checks["sign_codebook_cardinality"].passed
    _finish(9, "all six constraints pass above frontier; tampering fails its own check",
            t0, ok, 60.0)


def test_criterion_10_determinism(star, star_trend, tmp_path):
    t0 = time.perf_counter()
    pi, by_n = star_trend
    codebook, report = by_n[4]
    ok = lg.estimate_divergence(star, codebook, 500, 3) == lg.estimate_divergence(star, codebook, 500, 3)
    ok &= np.array_equal(lg.synthesize(star, codebook, 64, 3), lg.synthesize(star, codebook, 64, 3))

    out = tmp_path / "det.json"
    args = [
        sys.executable, "-m", "lgtree.cli", "mi-conditional", "trees/star.tree",
        "--samples", "2000", "--seed", "13", "--deterministic", "--out", str(out),
    ]
    assert subprocess.run(args, cwd=PKG, capture_output=True).returncode == 0
    first = out.read_bytes()
    assert subprocess.run(args, cwd=PKG, capture_output=True).returncode == 0
    ok &= out.read_bytes() == first

    args = [
        sys.executable, "-m", "lgtree.cli", "synthesize", "trees/star.tree",
        "--ry", "0.55", "--rb", "0.6", "--blocklen", "4", "--samples", "400",
        "--seed", "11", "--deterministic", "--out", str(out),
    ]
    assert subprocess.run(args, cwd=PKG, capture_output=True).returncode == 0
    first = out.read_bytes()
    assert subprocess.run(args, cwd=PKG, capture_output=True).returncode == 0
    ok &= out.read_bytes() == first
    _finish(10, "repeated runs with the same seed are byte-identical", t0, ok)
