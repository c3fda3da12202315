import math

import numpy as np
import pytest

import lgtree as lg
from lgtree.errors import InconsistentCovariance, NotLeafOnly, WrongShape
from lgtree.info import SAMPLE_BATCH, BernoulliParams
from lgtree.trees import random_tree

STAR_MI = 0.7294309951122713  # frozen from the direct-determinant oracle


def combined_sigma(*results):
    return math.sqrt(sum(r.std_error**2 for r in results))


def test_mi_direct_star_golden(star):
    res = lg.mi_direct(star)
    assert res.method == "direct_gaussian"
    assert res.value == pytest.approx(STAR_MI, abs=1e-12)


def test_mi_direct_near_independence(lowcorr):
    assert lg.mi_direct(lowcorr).value < 1e-3


def test_mi_closed_form_star_golden(star):
    sigma = lg.joint_covariance(star).observed_block
    res = lg.mi_closed_form(sigma, star)
    assert res.value == pytest.approx(STAR_MI, abs=1e-12)


def test_cross_method_dumbbell(dumbbell):
    sigma = lg.joint_covariance(dumbbell).observed_block
    closed = lg.mi_closed_form(sigma, dumbbell)
    direct = lg.mi_direct(dumbbell)
    assert abs(closed.value - direct.value) < 1e-9


def test_closed_form_rejects_perturbed(star):
    sigma = np.array(lg.joint_covariance(star).observed_block)
    sigma[1, 2] = sigma[2, 1] = 0.10
    with pytest.raises(InconsistentCovariance):
        lg.mi_closed_form(sigma, star)


def test_closed_form_rejects_internal_observed(two_layer):
    sigma = lg.joint_covariance(two_layer).observed_block
    with pytest.raises(NotLeafOnly):
        lg.mi_closed_form(sigma, two_layer)


def test_closed_form_reads_only_sigma(star):
    # the structure's stored weights must not matter, only its shape
    sigma = lg.joint_covariance(star).observed_block
    other = lg.validate_tree(
        lg.TreeSpec.make(star.spec.nodes, [(u, v, 0.5) for u, v, _ in star.spec.edges])
    )
    assert lg.mi_closed_form(sigma, other).value == pytest.approx(STAR_MI, abs=1e-12)


def test_closed_form_invariant_over_sign_class(dumbbell):
    sigma = lg.joint_covariance(dumbbell).observed_block
    values = {
        lg.mi_closed_form(sigma, variant).value
        for variant in lg.enumerate_equivalent_trees(dumbbell)
    }
    assert len(values) == 1


def test_cross_method_random_leaf_trees():
    rng = np.random.default_rng(404)
    for _ in range(30):
        tree = random_tree(rng)
        sigma = lg.joint_covariance(tree).observed_block
        closed = lg.mi_closed_form(sigma, tree)
        direct = lg.mi_direct(tree)
        assert abs(closed.value - direct.value) < 1e-9


@pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
def test_sign_marginal_mi_is_zero(star, p):
    res = lg.mi_sign_marginal(star, BernoulliParams.uniform(star, p), 20000, 3)
    assert abs(res.value) <= max(3 * res.std_error, 1e-12)


@pytest.mark.parametrize("name", ["star", "dumbbell", "two_layer"])
def test_sign_marginal_mi_streams_exact_zero(request, name):
    tree = request.getfixturevalue(name)
    pi = BernoulliParams.make({h: 0.2 + 0.1 * i for i, h in enumerate(tree.hidden)})
    res = lg.mi_sign_marginal(tree, pi, 3 * SAMPLE_BATCH + 17, 5)
    assert res.samples_used == 3 * SAMPLE_BATCH + 17
    assert abs(res.value) <= 1e-12 and res.std_error <= 1e-12


def test_sign_marginal_mi_degenerate(star):
    res = lg.mi_sign_marginal(star, BernoulliParams.uniform(star, 1.0), 2000, 3)
    assert res.value == 0.0 and res.std_error == 0.0


def test_sign_conditional_degenerate_pi(star):
    res = lg.mixture_mi_profile(star, BernoulliParams.uniform(star, 1.0), 2000, 3)[
        "signs_given_inputs"
    ]
    assert res.value == 0.0


def test_chain_identity_star(star):
    pi = BernoulliParams.uniform(star, 0.5)
    prof = lg.mixture_mi_profile(star, pi, 50000, 11)
    total = prof["inputs"].value + prof["signs_given_inputs"].value
    assert abs(total - STAR_MI) <= 3 * combined_sigma(prof["inputs"], prof["signs_given_inputs"])


def test_chain_identity_every_pi_on_grid(star):
    fixed = lg.mi_direct(star).value
    for i, p in enumerate((0.1, 0.3, 0.5, 0.7)):
        prof = lg.mixture_mi_profile(star, BernoulliParams.uniform(star, p), 30000, 100 + i)
        total = prof["inputs"].value + prof["signs_given_inputs"].value
        assert abs(total - fixed) <= 3 * combined_sigma(prof["inputs"], prof["signs_given_inputs"])


def test_estimator_determinism(star):
    pi = BernoulliParams.uniform(star, 0.5)
    a = lg.mixture_mi_profile(star, pi, 5000, 17)["signs_given_inputs"]
    b = lg.mixture_mi_profile(star, pi, 5000, 17)["signs_given_inputs"]
    assert a == b


def test_std_error_scaling(star):
    pi = BernoulliParams.uniform(star, 0.5)
    ses = []
    for samples in (20000, 40000):
        reps = [
            lg.mixture_mi_profile(star, pi, samples, 1000 + 7 * r)["signs_given_inputs"].std_error
            for r in range(4)
        ]
        ses.append(np.mean(reps))
    ratio = ses[1] / ses[0]
    assert abs(ratio - 1 / math.sqrt(2)) < 0.2 / math.sqrt(2)


def test_non_negativity(star, dumbbell):
    for tree in (star, dumbbell):
        pi = BernoulliParams.uniform(tree, 0.4)
        prof = lg.mixture_mi_profile(tree, pi, 30000, 5)
        for res in prof.values():
            assert res.value >= -3 * res.std_error


def test_decomposition_split_exact(dumbbell):
    pi = BernoulliParams.uniform(dumbbell, 0.5)
    lhs, rhs = lg.decomposition_check(dumbbell, pi, 20000, 11)
    assert abs(lhs.value - rhs.value) <= 3 * combined_sigma(lhs, rhs)
    assert lhs.std_error > 0


def test_decomposition_degenerate_pi(dumbbell):
    lhs, rhs = lg.decomposition_check(
        dumbbell, BernoulliParams.make({"y1": 1.0, "y2": 1.0}), 5000, 11
    )
    assert abs(lhs.value) <= max(3 * lhs.std_error, 1e-12)
    assert abs(rhs.value) <= max(3 * rhs.std_error, 1e-12)


def test_decomposition_half_degenerate(dumbbell):
    lhs, rhs = lg.decomposition_check(
        dumbbell, BernoulliParams.make({"y1": 0.5, "y2": 1.0}), 20000, 11
    )
    assert abs(lhs.value - rhs.value) <= 3 * combined_sigma(lhs, rhs)


def test_decomposition_rejects_wrong_shape(star, two_layer):
    pi = BernoulliParams.uniform(star, 0.5)
    with pytest.raises(WrongShape):
        lg.decomposition_check(star, pi, 1000, 0)
    with pytest.raises(WrongShape):
        lg.decomposition_check(two_layer, BernoulliParams.uniform(two_layer, 0.5), 1000, 0)


def test_optimize_pi_coarse(star):
    best, curve = lg.optimize_pi(star, 0.25, 20000, 7)
    assert best.as_dict()["y"] == pytest.approx(0.5, abs=0.25)
    values = {pt[0]: est for pt, est in curve}
    assert values[0.0].value == 0.0 and values[1.0].value == 0.0
    for p in (0.0, 0.25):
        a, b = values[p], values[round(1 - p, 12)]
        assert abs(a.value - b.value) <= 3 * combined_sigma(a, b) + 1e-12


def test_block_mi_matches_tree_level(star):
    block = lg.block_mi_fixed(star, star.observed, star.hidden)
    assert block.value == pytest.approx(STAR_MI, abs=1e-12)


def test_mi_result_json_fields(star):
    res = lg.mi_direct(star)
    d = res.as_dict()
    assert set(d) == {"value_nats", "std_error", "method", "samples"}


def test_mc_sample_floor(star):
    from lgtree.errors import ValidationError

    pi = BernoulliParams.uniform(star, 0.5)
    with pytest.raises(ValidationError):
        lg.mixture_mi_profile(star, pi, 500, 1)
    with pytest.raises(ValidationError):
        lg.mi_sign_marginal(star, pi, 999, 1)


HIGH_CORRELATION_TREE = """
node x1 observed
node x2 observed
node x3 observed
node x4 observed
node y1 hidden
node y2 hidden
edge y1 y2 0.99
edge y1 x1 0.99
edge y1 x2 0.995
edge y2 x3 0.99
edge y2 x4 0.995
"""


@pytest.fixture(scope="module")
def high_corr():
    return lg.validate_tree(lg.parse_tree_text(HIGH_CORRELATION_TREE))


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_sign_conditional_degenerate_pi_two_layer(two_layer, p):
    # 64 sign rows: a zero-prior component must drop out, not turn into NaN
    prof = lg.mixture_mi_profile(two_layer, BernoulliParams.uniform(two_layer, p), 2000, 1)
    assert prof["signs_given_inputs"].value == 0.0
    assert prof["signs_given_inputs"].std_error == 0.0
    assert prof["inputs"] == prof["total"]


@pytest.mark.parametrize("name", ["star", "dumbbell", "two_layer", "high_corr"])
def test_optimize_pi_curve_matches_profile(request, name):
    # one shared draw per sweep: each curve point is the single-pi profile at
    # the same (samples, seed); 20000 samples span three draw batches
    tree = request.getfixturevalue(name)
    samples, seed = 20000, 3
    best, curve = lg.optimize_pi(tree, 0.25, samples, seed)
    coords = {c for pt, _ in curve for c in pt}
    assert {0.0, 1.0} <= coords
    for pt, est in curve:
        probs = pt * tree.k if len(pt) == 1 else pt
        ref = lg.mixture_mi_profile(
            tree, BernoulliParams.make(dict(zip(tree.hidden, probs))), samples, seed
        )["signs_given_inputs"]
        assert math.isfinite(est.value) and math.isfinite(est.std_error)
        assert abs(est.value - ref.value) <= 1e-12
        assert abs(est.std_error - ref.std_error) <= 1e-9 * ref.std_error
        assert est.samples_used == samples
    for node, val in best.as_dict().items():
        assert abs(val - 0.5) <= 0.25


@pytest.mark.parametrize("name", ["two_layer", "high_corr"])
def test_reweighted_mixture_matches_enumeration(request, name):
    # reference: the log-sum-exp over every full sign vector, with the
    # prior-weighted density of x given each signed copy of the inputs
    from scipy.special import logsumexp

    from lgtree import info

    tree = request.getfixturevalue(name)
    model = info._BlockModel(tree, tree.observed, tree.hidden)
    rng = np.random.default_rng(8)
    priors = [rng.uniform(0.05, 0.95, tree.k), np.r_[0.0, 1.0, rng.uniform(size=tree.k - 2)]]
    enum = info._enumerate_signs(tree.k)
    for chunk in info._mixture_chunks(model, 500, info._rng(4, 0)):
        for p in priors:
            y = chunk.signs(p) * chunk.g
            with np.errstate(divide="ignore"):
                log_prior = np.log(np.where(enum > 0, p, 1.0 - p)).sum(axis=1)
            comp = np.stack(
                [model.noise.logpdf(chunk.x - (s * y) @ model.gain.T) for s in enum], axis=1
            )
            expected = logsumexp(comp + log_prior, axis=1) - model.noise.logpdf(
                chunk.x - chunk.g @ model.gain.T
            )
            got = chunk.log_ratio(p)
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - expected)) <= 1e-9


def test_zero_prior_component_drops_out(star):
    # at pi in {0, 1} the flipped component has prior 0 and must contribute
    # exactly nothing, however much likelier than the drawn one it is
    from lgtree import info

    model = info._BlockModel(star, star.observed, star.hidden)
    chunk = next(info._mixture_chunks(model, 1000, info._rng(0, 0)))
    chunk.dens[1] = 1e300
    for p in (0.0, 1.0):
        assert np.all(chunk.log_ratio(np.array([p])) == 0.0)


def test_sliced_evaluation_matches_whole_batches(two_layer, monkeypatch):
    # beyond 7 sources a draw batch is evaluated in slices of samples
    from lgtree import info

    pi = BernoulliParams.uniform(two_layer, 0.3)
    whole = lg.mixture_mi_profile(two_layer, pi, 3000, 2)
    monkeypatch.setattr(info, "EVAL_CELLS", 64 * 700)
    sliced = lg.mixture_mi_profile(two_layer, pi, 3000, 2)
    for key, est in whole.items():
        assert abs(sliced[key].value - est.value) <= 1e-12
        assert abs(sliced[key].std_error - est.std_error) <= 1e-9 * est.std_error


@pytest.mark.parametrize("p", [1.5, -0.1, math.nan, math.inf])
def test_sign_bias_outside_unit_interval_is_rejected(star, p):
    from lgtree.errors import ValidationError

    with pytest.raises(ValidationError):
        BernoulliParams.make({"y": p})
    with pytest.raises(ValidationError):
        BernoulliParams.uniform(star, p)
