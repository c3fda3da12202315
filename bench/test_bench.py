"""Self-tests of the benchmark's oracles, checks and tracer.

    python3 -m pytest bench/test_bench.py -q

Each check must pass on the program's real output and fail once a value is
perturbed; each oracle must agree with lgtree where both are exact.
"""

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import lgtree  # noqa: E402
from lgtree.info import BernoulliParams  # noqa: E402

import checks as C  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

FIXTURES = ("star", "dumbbell", "lowcorr", "two_layer")


def _perturbed(tf, delta=0.01):
    u, v, rho = tf.edges[0]
    return oracles.TreeFile(tf.nodes, tf.observed, tf.hidden,
                            ((u, v, rho + delta),) + tf.edges[1:])


@pytest.mark.parametrize("name", FIXTURES)
def test_covariance_and_mi_oracles_match_lgtree(name):
    tf = oracles.read_tree(workloads.tree_path(name))
    tree = lgtree.load_tree(workloads.tree_path(name))
    cov = np.asarray(lgtree.joint_covariance(tree).joint)
    assert np.max(np.abs(oracles.path_product_covariance(tf) - cov)) <= 1e-12
    assert abs(oracles.determinant_mi(tf) - lgtree.mi_direct(tree).value) <= 1e-9

    bent = _perturbed(tf)
    assert np.max(np.abs(oracles.path_product_covariance(bent) - cov)) > 1e-3
    assert abs(oracles.determinant_mi(bent) - lgtree.mi_direct(tree).value) > 1e-4


def test_quadrature_needs_leaf_groups():
    with pytest.raises(ValueError):
        oracles.leaf_groups(oracles.read_tree(workloads.tree_path("two_layer")))


def test_quadrature_limits():
    tf = oracles.read_tree(workloads.tree_path("star"))
    assert oracles.sign_mi_quadrature(tf, {"y": 0.0}) == 0.0
    # at pi = 1/2 the sign MI is below the binary entropy ln 2 and rises with pi
    vals = [oracles.sign_mi_quadrature(tf, {"y": p}) for p in (0.1, 0.3, 0.5)]
    assert 0.0 < vals[0] < vals[1] < vals[2] < math.log(2.0)
    assert abs(oracles.sign_mi_quadrature(tf, {"y": 0.3})
               - oracles.sign_mi_quadrature(tf, {"y": 0.7})) < 1e-12


def _curve(name, step, samples, seed):
    tree = lgtree.load_tree(workloads.tree_path(name))
    best, curve = lgtree.optimize_pi(tree, step, samples, seed)
    return best.as_dict(), [(tuple(pt), e.value, e.std_error) for pt, e in curve]


@pytest.mark.parametrize("name", ["star", "dumbbell"])
def test_curve_checks_pass_and_fail_on_perturbation(name):
    tf = oracles.read_tree(workloads.tree_path(name))
    best, curve = _curve(name, 0.25, 20000, 5)

    def exact(pt):
        return oracles.sign_mi_quadrature(
            tf, dict(zip(tf.hidden, pt * len(tf.hidden) if len(pt) == 1 else pt)))

    assert C.curve_vs_oracle("c", curve, exact).passed
    assert C.mirror_symmetry("m", curve).passed
    assert C.argmax_near_half("a", best, 0.25).passed

    i = next(i for i, (_, _, se) in enumerate(curve) if se > 0)
    pt, v, se = curve[i]
    bumped = curve[:i] + [(pt, v + 10 * se, se)] + curve[i + 1:]
    assert not C.curve_vs_oracle("c", bumped, exact).passed
    assert not C.mirror_symmetry("m", bumped).passed
    # an estimate with zero standard error must match the oracle exactly
    zero = next(i for i, (_, _, se) in enumerate(curve) if se == 0)
    pt, v, se = curve[zero]
    assert not C.curve_vs_oracle("c", curve[:zero] + [(pt, v + 1e-9, 0.0)] + curve[zero + 1:],
                                 exact).passed
    assert not C.argmax_near_half("a", {h: 0.0 for h in best}, 0.25).passed


def test_quadrature_agrees_with_100k_estimates():
    for name in ("star", "dumbbell"):
        tf = oracles.read_tree(workloads.tree_path(name))
        tree = lgtree.load_tree(workloads.tree_path(name))
        for p in (0.1, 0.3, 0.5):
            est = lgtree.mixture_mi_profile(tree, BernoulliParams.uniform(tree, p),
                                            100000, 11)["signs_given_inputs"]
            exact = oracles.sign_mi_quadrature(tf, {h: p for h in tf.hidden})
            assert abs(est.value - exact) <= 3.0 * est.std_error


def test_family_level():
    assert C.family_z(121) > C.family_z(21) > C.family_z(1) > 3.0
    single = C.NormalDist().cdf(-C.family_z(1)) * 2
    assert abs(single * C.CAMPAIGN_RUNS - C.THREE_SIGMA_MASS) < 1e-12
    assert not C.z_family("z", [(0.1, 0.01)]).passed
    assert not C.z_family("z", [(float("nan"), 0.01)]).passed


def test_kl_trend():
    se = [0.01] * 4
    assert C.kl_trend("t", [0.33, 0.27, 0.20, 0.17], se).passed
    assert C.kl_trend("t", [0.33, 0.27, 0.28, 0.17], se).passed       # one small inversion
    assert not C.kl_trend("t", [0.33, 0.27, 0.33, 0.17], se).passed   # 4.2 sigma
    assert not C.kl_trend("t", [0.33, 0.34, 0.20, 0.21], se).passed   # two inversions


def test_strict_json_rejects_nan():
    assert workloads._strict_json('{"a": 1.5}') == {"a": 1.5}
    with pytest.raises(ValueError):
        workloads._strict_json('{"a": NaN}')


def _divergence_entry(layers, n_uses, kl, se):
    sizes = [(math.ceil(math.exp(n_uses * ry)), math.ceil(math.exp(n_uses * rb)))
             for ry, rb in layers]
    return sizes, layers, n_uses, kl, se


def test_soft_covering_checks_fail_on_perturbation():
    work = workloads.SoftCovering.__new__(workloads.SoftCovering)
    out = {f"trend:{n}": _divergence_entry([[0.5, 0.6]], n, kl, 0.01)
           for n, kl in zip((2, 4, 6, 8), (0.33, 0.27, 0.20, 0.17))}
    out["below"] = _divergence_entry([[0.01, 0.01]], 8, 5.0, 0.1)
    out["degenerate"] = _divergence_entry([[math.log(2**14), 0.0]], 1, 0.001, 0.001)
    sigma_x, _ = oracles.blocks(oracles.read_tree(workloads.tree_path("star")))
    out["second_moment"] = (sigma_x + 0.01).tolist()
    names = ("conditional_independence_given_inputs", "output_independent_of_signs",
             "iid_across_channel_uses", "gaussian_codebook_cardinality",
             "sign_codebook_cardinality", "tv_bound_within_threshold")
    out["constraints"] = [(name, True, 0.0, 1.0) for name in names]
    ok = {c.name: c.passed for c in work.check(out)}
    assert all(ok.values()), ok

    def fails(key, value, check):
        bad = dict(out, **{key: value})
        return not {c.name: c.passed for c in work.check(bad)}[check]

    sizes, layers, n_uses, kl, se = out["below"]
    assert fails("below", ([(sizes[0][0] + 1, sizes[0][1])], layers, n_uses, kl, se),
                 "codebook_sizes")
    assert fails("below", (sizes, layers, n_uses, 0.2, se), "below_frontier_separation")
    assert fails("below", (sizes, layers, n_uses, -0.5, se), "kl_not_negative")
    assert fails("trend:6", _divergence_entry([[0.5, 0.6]], 6, 0.35, 0.01), "kl_falls_with_n")
    assert fails("second_moment", (sigma_x + 0.03).tolist(), "degenerate_second_moment")
    held = out["constraints"]
    assert fails("constraints", held[:1] + held[2:5], "constraints_at_n8")
    assert fails("constraints", [(names[0], False, 9.0, 3.0)] + held[1:], "constraints_at_n8")
    assert not fails("constraints", held[:1] + [(names[1], False, 9.0, 3.0)] + held[2:],
                     "constraints_at_n8")
    # max-|z| constraints are judged on their z at the benchmark's level
    assert not fails("constraints", [(names[0], False, 4.0, 3.3)] + held[1:],
                     "constraints_at_n8")
    assert fails("constraints", held[:2] + [(names[2], True, 5.0, 3.6)] + held[3:],
                 "constraints_at_n8")


def test_cli_checks_fail_on_perturbation():
    work = workloads.CliReport(seed=3)
    argv = work.commands["report-all:star"][:]
    argv[argv.index("--samples") + 1] = "5000"
    code, text = work._call(argv)
    assert code == 0
    out = {"report-all:star": text}
    assert all(c.passed for c in work.check(out))

    def fails(edit, check):
        doc = json.loads(text)
        edit(doc["result"])
        found = {c.name: c.passed for c in work.check({"report-all:star": json.dumps(doc)})}
        return not found["report-all:star." + check]

    assert fails(lambda r: r["enumeration"].update(count=3), "variants")
    assert fails(lambda r: r["mi"]["direct"].update(value_nats=r["mi"]["direct"]["value_nats"]
                                                    + 1e-8), "mi_direct")
    assert fails(lambda r: r["covariance"]["joint"][0].__setitem__(1, 0.5), "covariance")
    assert fails(lambda r: r["mi_conditional"].update(chain_gap_nats=0.1), "chain_gap")


def test_cli_sweep_checks_fail_on_perturbation():
    work = workloads.CliReport(seed=3)
    argv = work.commands["optimize-pi:star"][:]
    argv[argv.index("--grid") + 1] = "0.25"
    argv[argv.index("--samples") + 1] = "5000"
    code, text = work._call(argv)
    assert code == 0
    found = {c.name: c.passed for c in work.check({"optimize-pi:star": text})}
    assert set(found) == {"optimize-pi:star." + n
                          for n in ("argmax", "mirror_symmetry", "curve_vs_quadrature")}
    assert all(found.values())

    doc = json.loads(text)
    point = next(p for p in doc["result"]["curve"] if p["std_error"] > 0)
    point["value_nats"] += 10 * point["std_error"]
    doc["result"]["pi_star"] = {h: 0.0 for h in doc["result"]["pi_star"]}
    found = {c.name: c.passed for c in work.check({"optimize-pi:star": json.dumps(doc)})}
    assert not any(found.values())


def test_tracer_wraps_every_binding_and_restores():
    import lgtree.info
    import lgtree.synthesis
    import lgtree.trees

    original = lgtree.trees.joint_covariance
    tree = lgtree.load_tree(workloads.tree_path("star"))
    tracer = Tracer()
    tracer.patch()
    try:
        assert lgtree.info.joint_covariance is not original
        assert lgtree.synthesis.joint_covariance is lgtree.trees.joint_covariance
        assert lgtree.synthesis.block_mi_mixture is lgtree.info.block_mi_mixture
        tracer.span("round", lgtree.info.mixture_mi_profile, tree,
                    BernoulliParams.uniform(tree, 0.5), 2000, 1)
    finally:
        tracer.restore()
    assert lgtree.info.joint_covariance is original
    assert lgtree.joint_covariance is original

    rounds = list(tracer.per_root().values())
    assert len(rounds) == 1
    agg = rounds[0]
    assert agg["info.mixture_mi_profile.calls"] == 1
    assert agg["trees.joint_covariance.calls"] == 1
    assert agg["samples"] == 2000
    profile = agg["info.mixture_mi_profile.total_s"]
    assert abs(agg["info.mixture_mi_profile.self_s"]
               - (profile - agg["trees.joint_covariance.total_s"])) < 1e-12
    assert abs(sum(v for k, v in agg.items() if k.endswith(".self_s"))
               - agg["round.total_s"]) < 1e-9


def test_tracer_counts_method_calls():
    from lgtree.synthesis import RateTuple

    tree = lgtree.load_tree(workloads.tree_path("star"))
    pi = BernoulliParams.uniform(tree, 0.5)
    book = lgtree.build_codebooks(tree, RateTuple.make([(0.5, 0.5)], 2), pi, 1)
    tracer = Tracer()
    tracer.patch()
    try:
        tracer.span("round", lgtree.synthesize, tree, book, 50, 2)
    finally:
        tracer.restore()
    agg = list(tracer.per_root().values())[0]
    assert 0 < agg["synthesis.gaussian_codeword.calls"] <= 50
    assert agg["synthesis.synthesize.calls"] == 1
