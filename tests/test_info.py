import contextlib
import io
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import lgtree as lg
from lgtree import info
from lgtree.errors import (
    InconsistentCovariance, NotLeafOnly, TooManyHidden, ValidationError, WrongShape,
)
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
    assert type(res.value) is float


def test_closed_form_rejects_a_block_of_the_wrong_shape(star):
    # the whole 4 x 4 joint matrix once gave 0.0, and a 2 x 2 block an IndexError
    cov = lg.joint_covariance(star)
    for sigma in (cov.joint, cov.observed_block[:2, :2]):
        with pytest.raises(InconsistentCovariance, match="does not match 3 observed nodes"):
            lg.mi_closed_form(sigma, star)


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
    res = lg.mi_sign_marginal(star, BernoulliParams.uniform(star, p), 20000)
    assert abs(res.value) <= max(3 * res.std_error, 1e-12)


@pytest.mark.parametrize("name", ["star", "dumbbell", "two_layer"])
def test_sign_marginal_mi_streams_exact_zero(request, name):
    tree = request.getfixturevalue(name)
    pi = BernoulliParams.make({h: 0.2 + 0.1 * i for i, h in enumerate(tree.hidden)})
    res = lg.mi_sign_marginal(tree, pi, 3 * SAMPLE_BATCH + 17)
    assert abs(res.value) <= 1e-12 and res.std_error == 0.0
    assert res.samples_used == 0 and res.method == "closed_form"


def test_sign_marginal_mi_degenerate(star):
    res = lg.mi_sign_marginal(star, BernoulliParams.uniform(star, 1.0), 2000)
    assert res.value == 0.0 and res.std_error == 0.0


@pytest.mark.parametrize("p", [0.5, 0.3])
@pytest.mark.parametrize("name", ["star", "dumbbell"])
def test_sign_marginal_mi_detects_a_tampered_variant(request, monkeypatch, name, p):
    # lowcorr is left out: its weak first edge moves U by only ~2.5e-13
    tree = request.getfixturevalue(name)
    build = info.apply_sign_assignment

    def tampered(t, assignment):
        out = build(t, assignment)
        if [assignment.value(h) for h in t.hidden] == [-1] + [1] * (t.k - 1):
            (u, v, rho), *rest = out.spec.edges
            out = lg.validate_tree(lg.TreeSpec.make(out.spec.nodes, [(u, v, 1.01 * rho), *rest]))
        return out

    monkeypatch.setattr(info, "apply_sign_assignment", tampered)
    res = lg.mi_sign_marginal(tree, BernoulliParams.uniform(tree, p), 100000)
    assert not abs(res.value) <= max(3 * res.std_error, 1e-12)   # criterion 4's predicate


def _normal_entropy(var):
    return 0.5 * math.log(2.0 * math.pi * math.e * var)


@pytest.mark.parametrize("s, w", [(0.5, 0.5), (2.0, 0.2), (2.0, 0.9), (3.0, 0.5), (1.1, 0.3)])
def test_entropy_gap_bounds_a_quadrature_mixture_mi(s, w):
    x = np.linspace(-40.0 * s - 40.0, 40.0 * s + 40.0, 400001)
    log_f = np.logaddexp(math.log(w) - 0.5 * x**2 - 0.5 * math.log(2.0 * math.pi),
                         math.log(1.0 - w) - 0.5 * (x / s) ** 2 - math.log(s)
                         - 0.5 * math.log(2.0 * math.pi))
    h_mix = -np.trapezoid(np.exp(log_f) * log_f, x)
    mi = h_mix - w * _normal_entropy(1.0) - (1.0 - w) * _normal_entropy(s * s)
    bound = info._mixture_entropy_gap([w, 1.0 - w], [[[1.0]], [[s * s]]])
    assert 0.0 < mi <= bound


@pytest.mark.parametrize("w", [0.1, 0.3, 0.5])
def test_entropy_gap_is_exactly_zero_for_equal_laws(w):
    assert info._mixture_entropy_gap([w, 1.0 - w], [[[1.0]], [[1.0]]]) == 0.0


def _hidden_chain(k):
    """k hidden nodes in a chain, each with two observed leaves."""
    lines = []
    for i in range(k):
        lines += [f"node x{i}a observed", f"node x{i}b observed", f"node y{i} hidden",
                  f"edge y{i} x{i}a 0.7", f"edge y{i} x{i}b 0.6"]
        if i:
            lines.append(f"edge y{i - 1} y{i} 0.5")
    return lg.validate_tree(lg.parse_tree_text("\n".join(lines) + "\n"))


def test_sign_marginal_mi_refuses_past_the_enumeration_cap():
    tree = _hidden_chain(info.MIXTURE_ENUM_CAP + 1)
    with pytest.raises(TooManyHidden):
        lg.mi_sign_marginal(tree, BernoulliParams.uniform(tree, 0.5), 1000)


def test_signal_basis_ignores_rounding_noise_in_the_gain():
    # the chain's whitened gain has exact zeros where Householder reads a
    # column's sign, so without a sign convention on diag(R) noise of 1e-17
    # flips basis columns
    tree = _hidden_chain(12)
    block = info._block(tree, tree.observed, tree.hidden)
    assert len(block.groups) == tree.k     # every source is coupled
    basis = info._signal_basis(block.noise.inv_chol, block.gain)[0]
    rng = np.random.default_rng(0)
    for _ in range(20):
        noise = 1e-17 * rng.standard_normal(block.gain.shape)
        noisy = info._signal_basis(block.noise.inv_chol, block.gain + noise)[0]
        assert np.max(np.abs(noisy - basis)) <= 1e-12


def test_mixture_profile_runs_past_the_cap_with_small_coupling_groups():
    # every source of a leaf-observed chain is its own coupling group, so
    # the per-group cap does not bind at k = 30
    tree = _hidden_chain(30)
    prof = lg.mixture_mi_profile(tree, BernoulliParams.uniform(tree, 0.5), 100_000, 3)
    total = prof["total"]
    assert abs(total.value - lg.mi_direct(tree).value) <= 3 * total.std_error


def test_a_coupling_group_past_the_cap_is_refused():
    # the inner observed node x joins 13 hidden nodes into one coupling group
    k = info.MIXTURE_ENUM_CAP + 1
    lines = ["node x observed"]
    for i in range(k):
        lines += [f"node y{i} hidden", f"node x{i}a observed", f"node x{i}b observed",
                  f"edge x y{i} 0.3", f"edge y{i} x{i}a 0.7", f"edge y{i} x{i}b 0.6"]
    tree = lg.validate_tree(lg.parse_tree_text("\n".join(lines) + "\n"))
    assert info._block(tree, tree.observed, tree.hidden).groups == (tuple(range(k)),)
    with pytest.raises(TooManyHidden):
        lg.mixture_mi_profile(tree, BernoulliParams.uniform(tree, 0.5), 1000, 1)


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


@pytest.mark.parametrize("name, step, message", [
    ("star", 0.0, "must lie in"), ("star", -0.1, "must lie in"), ("star", 0.5, "must lie in"),
    ("star", math.nan, "must lie in"), ("star", 1e-4, "grid points"),
    ("star", 1e-9, "grid points"), ("star", 5e-324, "grid points"),
    ("dumbbell", 1 / 64, "grid points"),   # 65^2 points for two hidden nodes
    ("dumbbell", 1 / 63.4, "grid points"),  # 63 steps end on 0.994, so 1.0 makes 65^2
])
def test_optimize_pi_rejects_bad_grids_before_building_them(request, monkeypatch, name, step,
                                                             message):
    # a range longer than the cap would mean the grid axis is being listed;
    # at 1e-9 that is 1e9 points
    def short_range(*args):
        assert len(range(*args)) <= info.GRID_CAP, "grid built before the cap check"
        return range(*args)

    monkeypatch.setattr(info, "range", short_range, raising=False)
    with pytest.raises(ValidationError, match=message):
        lg.optimize_pi(request.getfixturevalue(name), step, 1000, 1)


@pytest.mark.parametrize("step", [0.05, 0.07, 0.1, 0.125, 0.13, 0.15, 0.2, 0.22, 0.24, 0.25])
def test_optimize_pi_axis_is_the_step_lattice_below_one_then_one(star, step):
    # 1 / step rounds up for 0.13, 0.15 and 0.22, so the last of their
    # round(1 / step) multiples lies past 1 and must not be swept
    _, curve = lg.optimize_pi(star, step, info.MIN_MC_SAMPLES, 1)
    assert len(curve) <= info.GRID_CAP
    below = itertools.takewhile(lambda a: a < 1.0, (round(i * step, 12) for i in itertools.count()))
    assert [pt[0] for pt, _ in curve] == [*below, 1.0]


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
        lg.mi_sign_marginal(star, pi, 999)


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
    # 6 sign inputs: a zero-prior component must drop out, not turn into NaN
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


def test_stream_tags_are_pairwise_distinct_prefixes():
    tags = info.STREAMS
    assert len(set(tags.values())) == len(tags)
    for a, b in itertools.combinations(tags, 2):
        n = min(len(tags[a]), len(tags[b]))
        if tags[a][:n] == tags[b][:n]:
            # only the layer-indexed rate-bound seed begins other entries'
            # tuples, and all of them seed nested calls that take their own
            # entries; the one draw shared on purpose is one entry,
            # "mixture" (test_optimize_pi_curve_matches_profile)
            assert "rate_bound_seed" in (a, b) and a.endswith("_seed") and b.endswith("_seed")


def test_every_seeded_draw_takes_an_entry_of_the_table(tree_dir, dumbbell, monkeypatch):
    from lgtree import cli

    names, built = [], []
    real_stream, real_sequence, real_rng = info._stream, np.random.SeedSequence, np.random.default_rng

    def recording(seed, name, *index):
        names.append(name)
        return real_stream(seed, name, *index)

    def counted(entropy):
        built.append(entropy)
        return real_sequence(entropy)

    def named_only(seed):
        assert isinstance(seed, real_sequence), f"a generator seeded by {seed!r}, not by the table"
        return real_rng(seed)

    # synthesis draws through info's accessors, so this sees its draws too
    monkeypatch.setattr(info, "_stream", recording)
    monkeypatch.setattr(np.random, "SeedSequence", counted)
    monkeypatch.setattr(np.random, "default_rng", named_only)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["report-all", str(tree_dir / "two_layer.tree"), "--deterministic",
                         "--samples", "2000", "--blocklen", "3"]) == 0
    info.decomposition_check(dumbbell, BernoulliParams.uniform(dumbbell, 0.5), 1000, 1)
    # every entry is used, and every SeedSequence is built by the accessor
    assert set(names) == set(info.STREAMS)
    assert len(built) == len(names)


def _full_space_targets(model, chunk, rng):
    # the targets x = gain g + L (Q e + z_perp) that the signal-subspace draw
    # stands for, with z_perp drawn here, orthogonal to Q
    z = rng.standard_normal((len(chunk.g), len(model.targets)))
    z_perp = z - (z @ model.basis) @ model.basis.T
    return chunk.g @ model.gain.T + (chunk.e @ model.basis.T + z_perp) @ model.noise.chol.T


def _rows(chunk):
    # the log ratio of each planned prior on ``chunk``, one row each, copied
    # out of the block buffer that the executor reuses
    return np.vstack([block.copy() for block in chunk.log_ratios()])


def _assert_log_ratio_matches_enumeration(model, rng):
    # reference: the log-sum-exp over every full sign vector of the sources,
    # with the prior-weighted density of x given each signed copy of them
    from scipy.special import logsumexp

    ks = len(model.sources)
    priors = [rng.uniform(0.05, 0.95, ks),
              np.r_[0.0, 1.0, rng.uniform(size=ks)][:ks],
              np.r_[1.0, 0.0, rng.uniform(size=ks)][:ks]]
    enum = info._enumerate_signs(ks)
    for chunk in info._mixture_chunks(model, 500, info._rng(4, "mixture"), priors):
        x = _full_space_targets(model, chunk, rng)
        log_cond = model.noise.logpdf(x - chunk.g @ model.gain.T)
        assert np.max(np.abs(chunk.tot - (log_cond - model.marg_t.logpdf(x)))) <= 1e-12
        for p, got in zip(priors, _rows(chunk)):
            y = chunk.signs(p) * chunk.g
            with np.errstate(divide="ignore"):
                log_prior = np.log(np.where(enum > 0, p, 1.0 - p)).sum(axis=1)
            comp = np.stack(
                [model.noise.logpdf(x - (s * y) @ model.gain.T) for s in enum], axis=1
            )
            expected = logsumexp(comp + log_prior, axis=1) - log_cond
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - expected)) <= 1e-9


def _mixture_blocks(tree):
    from lgtree.synthesis import _channel, _layer_blocks

    # the coded channel observed | top layer, which the rate bounds read, is
    # the first layer block itself on a one-layer tree
    blocks = _layer_blocks(tree) + [_channel(tree), info._block(tree, tree.observed, tree.hidden)]
    return list(dict.fromkeys(blocks))


@pytest.mark.parametrize("name", ["star", "dumbbell", "two_layer", "four_hidden", "high_corr"])
def test_reweighted_mixture_matches_enumeration(request, name):
    # the grouped sum over flips equals the joint one on every block
    tree = request.getfixturevalue(name)
    rng = np.random.default_rng(8)
    for model in _mixture_blocks(tree):
        _assert_log_ratio_matches_enumeration(model, rng)


def test_grouped_mixture_matches_enumeration_on_random_multilayer_trees():
    rng = np.random.default_rng(12)
    trees = []
    while len(trees) < 6:
        tree = random_tree(rng, max_hidden=6)
        if tree.num_layers >= 2:
            trees.append(tree)
    for tree in trees:
        for model in _mixture_blocks(tree):
            _assert_log_ratio_matches_enumeration(model, rng)


def _three_and_two_tree():
    """Groups (y1, y2, y3) through x0, (y4, y5) through x1 and (y6, y7)
    through x2, joined by the hidden edges y3-y4 and y5-y6: one stack of
    three sources and one of two groups of two."""
    lines = ["node x0 observed", "node x1 observed", "node x2 observed"]
    for i in range(1, 8):
        lines += [f"node y{i} hidden", f"node a{i} observed", f"node b{i} observed",
                  f"edge y{i} a{i} 0.{6 + i % 3}", f"edge y{i} b{i} 0.{5 + i % 4}"]
    lines += ["edge y1 x0 0.7", "edge y2 x0 0.6", "edge y3 x0 0.65", "edge y4 x1 0.7",
              "edge y5 x1 0.6", "edge y6 x2 0.7", "edge y7 x2 0.55", "edge y3 y4 0.5",
              "edge y5 y6 0.45"]
    return lg.validate_tree(lg.parse_tree_text("\n".join(lines) + "\n"))


def test_stacks_of_larger_groups_match_enumeration_and_single_priors():
    # every flip of a three-source group and of two stacked pairs against the
    # joint enumeration; then a run of priors that recontracts one pair of
    # the stack alone, or drops it to exactly 0, reads as each prior does alone
    tree = _three_and_two_tree()
    model = info._block(tree, tree.observed, tree.hidden)
    assert [list(g) for g in model.groups] == [[0, 1, 2], [3, 4], [5, 6]]
    _assert_log_ratio_matches_enumeration(model, np.random.default_rng(5))
    base = np.array([0.3, 0.6, 0.45, 0.2, 0.7, 0.35, 0.8])
    priors = [base, base.copy(), base.copy(), base.copy(), base]
    priors[1][3:5] = [0.5, 0.1]          # the first pair alone changes
    priors[2][3:5] = [0.0, 1.0]          # and then weights only its drawn flip
    priors[3][5:7] = [1.0, 0.25]         # one entry of the second pair in {0, 1}
    chunk = next(info._mixture_chunks(model, 600, info._rng(2, "mixture"), priors))
    assert sorted(len(s.stack.groups) for s in chunk.stacks) == [1, 2]
    rows = _rows(chunk)
    for p, row in zip(priors, rows):
        alone = next(info._mixture_chunks(model, 600, info._rng(2, "mixture"), [p]))
        assert np.array_equal(row, _rows(alone)[0])
    assert not np.array_equal(rows[0], rows[1])


def _enumerated_rows(chunk):
    # the 2^|group| flip rows of each group, in the order of the groups
    rows = {group: s.dens.shape[1] for s in chunk.stacks for group in s.stack.groups}
    return [rows[group] for group in sorted(rows)]


@pytest.mark.parametrize("name, block, rows", [
    ("two_layer", "observed|hidden", [4, 2, 2, 2]),   # y1 and y5 share x0; u is dropped
    ("two_layer", "observed|layer 1", [4, 2, 2, 2]),
    ("two_layer", "layer 1|layer 2", [2]),
    ("star", "observed|hidden", [2]),
    ("dumbbell", "observed|hidden", [2, 2]),
])
def test_flips_are_enumerated_per_coupling_group(request, name, block, rows):
    tree = request.getfixturevalue(name)
    side = {"observed": tree.observed, "hidden": tree.hidden,
            "layer 1": tree.layer_nodes(1), "layer 2": tree.layer_nodes(2)}
    targets, sources = block.split("|")
    model = info._block(tree, side[targets], side[sources])
    chunk = next(info._mixture_chunks(model, 1000, info._rng(0, "mixture"), []))
    assert _enumerated_rows(chunk) == rows


def test_decomposition_enumerates_both_signs_jointly(dumbbell, monkeypatch):
    # criterion 7 compares the joint sum over flips with the per-group one
    seen = []

    class Recording(info._MixtureChunk):
        def __init__(self, *args):
            super().__init__(*args)
            seen.append(_enumerated_rows(self))

    monkeypatch.setattr(info, "_MixtureChunk", Recording)
    lg.decomposition_check(dumbbell, BernoulliParams.uniform(dumbbell, 0.5), 1000, 11)
    assert seen == [[4]]


def test_mixture_profile_memory_is_bounded_by_the_groups(two_layer, star, dumbbell):
    # two_layer: 10 enumerated rows per sample; the joint 64 rows peaked at
    # about 24 MB.  Many batches must peak like one: holding the previous
    # batch while the next is drawn took 7.3 MB against 4.6 MB.  On every
    # tree the in-place buffers are sized by the batch, never by ``samples``
    for tree, many in ((two_layer, 50000), (star, 100000), (dumbbell, 100000)):
        pi = BernoulliParams.uniform(tree, 0.5)
        lg.mixture_mi_profile(tree, pi, 1000, 1)   # builds the block model
        peaks = {}
        for samples in (SAMPLE_BATCH, many):
            tracemalloc.start()
            try:
                lg.mixture_mi_profile(tree, pi, samples, 1)
                peaks[samples] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[many] <= 1.1 * peaks[SAMPLE_BATCH], (tree.observed, peaks)


class _Scripted:
    """A stand-in generator that returns the given draws in order."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self, shape):
        assert self.draws[0].shape == shape
        return self.draws.pop(0)

    standard_normal = random


def test_flip_ratio_above_the_exp_ceiling(star):
    # a drawn source far from the flipped one that the targets sit next to:
    # the flip's log density ratio is 2 g^2 |a|^2, far past EXP_CEILING
    model = info._BlockModel(star, star.observed, star.hidden)
    a = model.signal_gain
    w = np.array([[20.0], [0.5], [-15.0], [1.0]])
    g = w @ model.marg_s.chol.T
    e = -2.0 * g @ a.T + 0.1
    u = np.array([[0.2], [0.7], [0.4], [0.9]])
    priors = [np.array([0.3]), np.array([0.5])]
    chunk = next(info._mixture_chunks(model, 4, _Scripted(u, w, e), priors))
    assert chunk.stacks[0].hot.any()                # a cell is contracted as logs
    x = _full_space_targets(model, chunk, np.random.default_rng(6))

    def log_cond(signs):
        resid = x - (signs * g) @ model.gain.T
        white = np.linalg.solve(model.noise.chol, resid.T)
        return -0.5 * np.sum(white * white, axis=0)

    assert np.max(log_cond(-1.0) - log_cond(1.0)) > 1500.0
    for (p,), got in zip(priors, _rows(chunk)):
        r = np.where(u[:, 0] < p, p, 1.0 - p)       # prior of the drawn sign
        want = np.logaddexp(np.log(r) + log_cond(1.0), np.log1p(-r) + log_cond(-1.0))
        assert got == pytest.approx(want - log_cond(1.0), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("name", ["star", "dumbbell", "two_layer"])
def test_a_shift_moves_only_the_samples_past_the_exp_ceiling(request, name):
    # one sample's flip ratio far past EXP_CEILING: its cells are hot and
    # contracted as logs, and every other sample's log ratio is, bit for bit,
    # that of the same draw with the outlier removed, which has no hot cell
    # at all (the name predates the hot cells: a max shift once did this).
    # The priors run as one planned sweep, with a prior that puts an entry of
    # the first group in {0, 1} and one that repeats that group's entries two
    # priors on, so a held term is summed from a stack with a hot cell; each
    # row is, bit for bit, that prior's own single-prior evaluation
    tree = request.getfixturevalue(name)
    model = info._BlockModel(tree, tree.observed, tree.hidden)
    ks, r = len(model.sources), len(model.signal_gain)
    rng = np.random.default_rng(9)
    u, w, e = rng.random((7, ks)), rng.standard_normal((7, ks)), rng.standard_normal((7, r))
    out = 3
    w[out] = 25.0 * np.sign(w[out])
    e[out] = -2.0 * (w[out] @ model.marg_s.chol.T) @ model.signal_gain.T
    keep = np.arange(7) != out
    priors = [np.full(ks, 0.5), rng.uniform(0.05, 0.95, ks)]
    first = list(model.groups[0])
    edge, repeat = priors[1].copy(), rng.uniform(0.05, 0.95, ks)
    edge[first[0]] = 1.0
    repeat[first] = priors[1][first]
    priors += [edge, repeat]

    chunk = next(info._mixture_chunks(model, 7, _Scripted(u, w, e), priors))
    hots = [s.hot for s in chunk.stacks]           # (groups, samples) once a cell is hot
    assert any(hot is not None and hot[:, out].any() for hot in hots)
    assert all(hot is None or not hot[:, keep].any() for hot in hots)
    stack = next(s for s in chunk.stacks if model.groups[0] in s.stack.groups)
    assert stack.hot is not None                   # the held term's stack has a hot cell
    rows = _rows(chunk)
    for p, row in zip(priors, rows):
        alone = next(info._mixture_chunks(model, 7, _Scripted(u, w, e), [p]))
        assert np.array_equal(_rows(alone)[0], row)

    clean = next(info._mixture_chunks(model, 6, _Scripted(u[keep], w[keep], e[keep]), priors))
    assert all(s.hot is None for s in clean.stacks)
    assert np.array_equal(_rows(clean), rows[:, keep])


def test_zero_prior_component_drops_out(star):
    # at pi in {0, 1} the flipped component has prior 0 and must contribute
    # exactly nothing, however much likelier than the drawn one it is
    from lgtree import info

    model = info._BlockModel(star, star.observed, star.hidden)
    chunk = next(info._mixture_chunks(model, 1000, info._rng(0, "mixture"), [[0.0], [1.0]]))
    chunk.stacks[0].step[0, 0] = 1e300     # the flipped row less the drawn one
    assert np.all(_rows(chunk) == 0.0)


def test_zero_prior_term_is_exact_past_the_exp_ceiling(star):
    # a source 25 sigma from zero with its noise along the gain: the flip's
    # log ratio is about 14,000, so the cell is hot, and at pi in {0, 1} the
    # drawn row alone carries prior weight (a max shift of 13,342 once
    # underflowed that row here)
    model = info._BlockModel(star, star.observed, star.hidden)
    a = model.signal_gain
    w = np.array([[-25.0], [0.5]])                  # the source has unit variance
    e = np.array([200.0 * np.sign(a[:, 0]), [0.1]])
    chunk = next(info._mixture_chunks(model, 2, _Scripted(np.array([[0.3], [0.6]]), w, e),
                                      [[0.0], [1.0]]))
    assert chunk.stacks[0].logs[0, 1, 0] > 13000.0 and chunk.stacks[0].hot[0, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(_rows(chunk), np.zeros((2, 2)))


def _x0_pair_model():
    # one group (y1, y2), coupled through the inner observed x0
    tree = lg.validate_tree(lg.parse_tree_text(
        "node x0 observed\nnode a1 observed\nnode a2 observed\n"
        "node b1 observed\nnode b2 observed\nnode y1 hidden\nnode y2 hidden\n"
        "edge y1 x0 0.8\nedge y1 a1 0.7\nedge y1 a2 0.6\n"
        "edge y2 x0 0.75\nedge y2 b1 0.7\nedge y2 b2 0.65\n"))
    model = info._BlockModel(tree, tree.observed, tree.hidden)
    assert [list(g) for g in model.groups] == [[0, 1]]
    return model


def _brute_force_rows(model, chunk, u, priors):
    # log sum_c pi(b o c) p(x | c o g) / p(x | g) by logsumexp over every
    # flip c of all the sources, with the targets in the full space; u holds
    # the scripted uniforms, sample-major
    from scipy.special import logsumexp

    x = _full_space_targets(model, chunk, np.random.default_rng(6))
    flips = info._enumerate_signs(len(model.sources))
    log_cond = np.array([model.noise.logpdf(x - (c * chunk.g) @ model.gain.T) for c in flips])
    rows = []
    for p in priors:
        drawn = np.where(u < p, p, 1.0 - p)             # prior of each drawn sign
        with np.errstate(divide="ignore"):
            log_w = np.log(np.where(flips[:, None] > 0, drawn, 1.0 - drawn)).sum(axis=2)
        rows.append(logsumexp(log_w + log_cond, axis=0) - log_cond[0])
    return np.array(rows)


def test_partly_zero_prior_term_is_finite_past_the_exp_ceiling():
    # y1's source 25 sigma from zero with the noise along its gain gives its
    # own flip a log ratio of about 22,000, so the cell is hot, and a prior
    # that gives that flip weight 0 must still give a finite term (a max
    # shift set by that flip once underflowed every weighted row here)
    model = _x0_pair_model()
    u, w = np.array([[0.3, 0.6]]), np.array([[-25.0, 0.3]])
    e = 200.0 * np.sign(model.signal_gain[:, :1].T)
    priors = [np.array([0.0, 0.5]), np.array([0.5, 0.0])]
    chunk = next(info._mixture_chunks(model, 1, _Scripted(u, w, e), priors))
    assert chunk.stacks[0].logs[0].max() > 20000.0 and chunk.stacks[0].hot[0, 0]
    got = _rows(chunk)
    assert np.all(np.isfinite(got))
    assert got == pytest.approx(_brute_force_rows(model, chunk, u, priors), rel=1e-9)


def test_hot_two_source_term_matches_brute_force_at_interior_priors():
    # the (y1, y2) group with one hot sample among three: at priors inside
    # (0, 1) every one of the four flips carries weight, and the hot cell's
    # log-domain term, like the others, is the logsumexp over the flips
    model = _x0_pair_model()
    u = np.array([[0.3, 0.6], [0.8, 0.1], [0.45, 0.55]])
    w = np.array([[0.4, -1.1], [-25.0, 0.3], [1.2, 0.7]])
    e = np.array([[0.2, -0.5], [0.0, 0.0], [-0.9, 1.3]])
    e[1] = 200.0 * np.sign(model.signal_gain[:, 0])
    priors = [np.array([0.3, 0.6]), np.array([0.85, 0.2]), np.array([0.5, 0.5])]
    chunk = next(info._mixture_chunks(model, 3, _Scripted(u, w, e), priors))
    assert chunk.stacks[0].hot.tolist() == [[False, True, False]]
    got = _rows(chunk)
    assert got[:, 1].min() > 10000.0
    assert got == pytest.approx(_brute_force_rows(model, chunk, u, priors), rel=1e-9, abs=1e-9)


def test_a_sweep_holds_a_term_of_a_hot_stack(dumbbell):
    # a 3 x 3 dumbbell sweep, as optimize_pi plans it: y1's term is held
    # across three priors and y2's recurs every third, both from the one
    # stack of singletons, whose cells are hot at two samples, y2's at one
    # of them; y2 alone is contracted at most priors.  Every row is the
    # brute-force logsumexp over the four flips
    model = info._BlockModel(dumbbell, dumbbell.observed, dumbbell.hidden)
    rng = np.random.default_rng(3)
    u, w, e = rng.random((5, 2)), rng.standard_normal((5, 2)), rng.standard_normal((5, 2))
    w[2], w[4] = [25.0, 25.0], [25.0, -0.4]
    e[[2, 4]] = -2.0 * (w[[2, 4]] @ model.marg_s.chol.T) @ model.signal_gain.T
    axis = [0.2, 0.5, 0.9]
    priors = [np.array([a, b]) for a in axis for b in axis]
    chunk = next(info._mixture_chunks(model, 5, _Scripted(u, w, e), priors))
    (stack,) = chunk.stacks
    assert stack.hot.tolist() == [[False, False, True, False, True],
                                  [False, False, True, False, False]]
    assert chunk.priors.steps[1][0][0][1] == [1]    # the second prior contracts y2 alone
    got = _rows(chunk)
    assert got[:, [2, 4]].min() > 1000.0
    assert got == pytest.approx(_brute_force_rows(model, chunk, u, priors), rel=1e-9, abs=1e-9)


def test_sliced_evaluation_matches_whole_batches(two_layer, monkeypatch):
    # past EVAL_CELLS enumerated cells a draw batch is evaluated in slices of
    # samples; here 3000 samples in slices of 700
    from lgtree import info

    pi = BernoulliParams.uniform(two_layer, 0.3)
    whole = lg.mixture_mi_profile(two_layer, pi, 3000, 2)
    model = info._block(two_layer, two_layer.observed, two_layer.hidden)
    rows = sum(2 ** len(g) for g in model.groups)
    monkeypatch.setattr(info, "EVAL_CELLS", rows * 700)
    chunks = info._mixture_chunks(model, 3000, info._rng(2, "mixture"), [])
    widths = [chunk.u.shape[1] for chunk in chunks]
    assert widths == [700, 700, 700, 700, 200]
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


def _assert_exact_triangular_inverse(gauss):
    from scipy.linalg import solve_triangular

    ref = solve_triangular(gauss.chol, np.eye(len(gauss.chol)), lower=True)
    assert np.all(np.triu(gauss.inv_chol, 1) == 0.0)
    assert np.max(np.abs(gauss.inv_chol - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", ["star", "dumbbell", "two_layer", "lowcorr"])
def test_inv_chol_is_the_triangular_inverse_on_every_block(request, name):
    from lgtree import info
    from lgtree.synthesis import _layer_blocks

    tree = request.getfixturevalue(name)
    _layer_blocks(tree)
    info._block(tree, tree.observed, tree.hidden)
    for model in tree._blocks.values():
        for gauss in (model.marg_t, model.marg_s, model.noise):
            _assert_exact_triangular_inverse(gauss)


def test_inv_chol_is_the_triangular_inverse_of_a_random_matrix():
    from lgtree import info

    a = np.random.default_rng(3).standard_normal((11, 11))
    _assert_exact_triangular_inverse(info._Gauss(a @ a.T + 0.1 * np.eye(11), "random"))


class _RecordingGenerator:
    """A generator that records the shape of every draw it makes."""

    def __init__(self, seed):
        self.rng, self.shapes = np.random.default_rng(seed), []

    def random(self, shape):
        self.shapes.append(("random", shape))
        return self.rng.random(shape)

    def standard_normal(self, shape):
        self.shapes.append(("standard_normal", shape))
        return self.rng.standard_normal(shape)


@pytest.mark.parametrize("name, block, r", [
    ("star", "observed|hidden", 1),
    ("dumbbell", "observed|hidden", 2),
    ("two_layer", "observed|hidden", 5),      # u is coupled to no target
    ("two_layer", "layer 1|layer 2", 1),
])
def test_target_noise_is_drawn_in_the_signal_subspace(request, name, block, r):
    # per batch: sign uniforms (m, k_s), sources (m, k_s), then r target
    # normals, r = min(n_t, #coupled sources), not n_t
    tree = request.getfixturevalue(name)
    side = {"observed": tree.observed, "hidden": tree.hidden,
            "layer 1": tree.layer_nodes(1), "layer 2": tree.layer_nodes(2)}
    targets, sources = block.split("|")
    model = info._block(tree, side[targets], side[sources])
    ks = len(model.sources)
    assert model.basis.shape == (len(model.targets), r)
    rng = _RecordingGenerator(0)
    for _ in info._mixture_chunks(model, SAMPLE_BATCH + 100, rng, []):
        pass
    assert rng.shapes == [draw for m in (SAMPLE_BATCH, 100) for draw in (
        ("random", (m, ks)), ("standard_normal", (m, ks)), ("standard_normal", (m, r)))]


def test_hidden_free_tree_draws_no_target_noise_and_gives_exact_zeros():
    tree = lg.validate_tree(lg.parse_tree_text(
        "node x1 observed\nnode x2 observed\nedge x1 x2 0.5\n"))
    model = info._block(tree, tree.observed, tree.hidden)
    assert model.basis.shape == (2, 0)
    rng = _RecordingGenerator(0)
    for _ in info._mixture_chunks(model, 1000, rng, []):
        pass
    assert rng.shapes == [("random", (1000, 0)), ("standard_normal", (1000, 0)),
                          ("standard_normal", (1000, 0))]
    prof = lg.mixture_mi_profile(tree, BernoulliParams.uniform(tree), 1000, 1)
    for res in prof.values():
        assert res.value == 0.0 and res.std_error == 0.0


def test_a_sweep_contracts_a_group_only_when_its_prior_entries_change(dumbbell, monkeypatch):
    # the 11 x 11 grid steps y2's bias fastest: each group is contracted once
    # per distinct value of its own bias, and the biases 0 and 1 need none,
    # so 18 in all instead of 242
    calls = []
    contract = info._MixtureChunk._contract

    def counting(self, s, need, *args):
        # one contraction call scores the groups ``need`` of a stack at once
        calls.extend(s.stack.groups[i] for i in need)
        return contract(self, s, need, *args)

    monkeypatch.setattr(info._MixtureChunk, "_contract", counting)
    _, curve = lg.optimize_pi(dumbbell, 0.1, 1000, 3)
    assert len(curve) == 121
    assert (calls.count((0,)), calls.count((1,)), len(calls)) == (9, 9, 18)


def test_each_estimate_plans_its_priors_once(dumbbell, monkeypatch):
    # the priors are fixed before the first batch, so a 1M-sample profile
    # (123 chunks) and a 20k-sample sweep (3 chunks) build one plan each,
    # and every chunk of an estimate runs that one plan
    plans, read = [], []

    class CountingPlan(info._PriorPlan):
        def __init__(self, *args):
            super().__init__(*args)
            plans.append(self)

    class CountingChunk(info._MixtureChunk):
        def __init__(self, *args):
            super().__init__(*args)
            read.append(self.priors)

    monkeypatch.setattr(info, "_PriorPlan", CountingPlan)
    monkeypatch.setattr(info, "_MixtureChunk", CountingChunk)
    lg.mixture_mi_profile(dumbbell, BernoulliParams.uniform(dumbbell, 0.3), 10**6, 1)
    assert (len(plans), len(read)) == (1, 123)
    lg.optimize_pi(dumbbell, 0.1, 20000, 3)
    assert (len(plans), len(read)) == (2, 126)
    assert all(p is plans[0] for p in read[:123]) and all(p is plans[1] for p in read[123:])


def test_a_sweep_holds_no_group_term_that_does_not_recur(star):
    # star's one group sees each of the 1001 priors once; keeping every term
    # of a chunk would hold 1001 x SAMPLE_BATCH floats, 66 MB
    lg.optimize_pi(star, 0.25, 1000, 3)
    tracemalloc.start()
    try:
        _, curve = lg.optimize_pi(star, 0.001, SAMPLE_BATCH, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(curve) == 1001
    assert peak < 2**23


# Estimates of the mixture core, recorded before its row layout: star,
# dumbbell and two_layer at pi = 1/2 (20000 samples, seed 7), two_layer's
# layer 1 | layer 2 block (same draw settings) and the dumbbell sweep
# optimize_pi(dumbbell, 0.25, 5000, 3), as (value, std_error) pairs.  The
# dumbbell and two_layer entries were recorded again when the signal basis
# took its sign convention, diag(R) < 0
GOLDEN_PROFILES = {
    "star": {"inputs": (0.33578820963426786, 0.004969053071057421),
             "signs_given_inputs": (0.39417371824230235, 0.003134827921726834),
             "total": (0.7299619278765702, 0.006090707500201602)},
    "dumbbell": {"inputs": (0.29678995194904073, 0.005424990278211408),
                 "signs_given_inputs": (0.5878825692188065, 0.0048396935554347225),
                 "total": (0.8846725211678472, 0.007528028844274009)},
    "two_layer": {"inputs": (0.8351329143904823, 0.008955154052395883),
                  "signs_given_inputs": (1.5350852836340723, 0.0076810943297164124),
                  "total": (2.3702181980245545, 0.012136891884263836)},
    "two_layer layer 1|layer 2": {
        "inputs": (0.225947607132859, 0.004354966610279768),
        "signs_given_inputs": (0.3273792744661098, 0.0034009752061614365),
        "total": (0.5533268815989688, 0.005835445230403636)},
}
GOLDEN_DUMBBELL_CURVE = {
    (0.0, 0.0): (0.0, 0.0),
    (0.0, 0.25): (0.2330219268067137, 0.006980839800179768),
    (0.0, 0.5): (0.29095609419238344, 0.0065686161197775015),
    (0.0, 0.75): (0.23467438155938644, 0.006966313187033235),
    (0.0, 1.0): (0.0, 0.0),
    (0.25, 0.0): (0.238878386173921, 0.006904018740528528),
    (0.25, 0.25): (0.4719003129806347, 0.010037988158220634),
    (0.25, 0.5): (0.5298344803663044, 0.009831292519214897),
    (0.25, 0.75): (0.4735527677333074, 0.010047279409821456),
    (0.25, 1.0): (0.238878386173921, 0.006904018740528528),
    (0.5, 0.0): (0.2941462031636406, 0.0065576202554537485),
    (0.5, 0.25): (0.5271681299703543, 0.009819885592160299),
    (0.5, 0.5): (0.585102297356024, 0.009605150543628925),
    (0.5, 0.75): (0.5288205847230271, 0.009864822484399138),
    (0.5, 1.0): (0.2941462031636406, 0.0065576202554537485),
    (0.75, 0.0): (0.23537422438321082, 0.006969754395260077),
    (0.75, 0.25): (0.46839615118992445, 0.010071687095957634),
    (0.75, 0.5): (0.5263303185755943, 0.009876306050651954),
    (0.75, 0.75): (0.4700486059425973, 0.010145896017891665),
    (0.75, 1.0): (0.23537422438321082, 0.006969754395260077),
    (1.0, 0.0): (0.0, 0.0),
    (1.0, 0.25): (0.2330219268067137, 0.006980839800179768),
    (1.0, 0.5): (0.29095609419238344, 0.0065686161197775015),
    (1.0, 0.75): (0.23467438155938644, 0.006966313187033235),
    (1.0, 1.0): (0.0, 0.0),
}


def _assert_golden(got, want):
    # to rounding: 1e-13 relative, and an exact 0.0 stays exactly 0.0
    for value, golden in zip((got.value, got.std_error), want):
        assert abs(value - golden) <= 1e-13 * abs(golden), (value, golden)


def test_mixture_core_estimates_match_the_golden_values(star, dumbbell, two_layer):
    for name, tree in (("star", star), ("dumbbell", dumbbell), ("two_layer", two_layer)):
        prof = lg.mixture_mi_profile(tree, BernoulliParams.uniform(tree, 0.5), 20000, 7)
        for key, want in GOLDEN_PROFILES[name].items():
            _assert_golden(prof[key], want)
    prof = lg.block_mi_mixture(two_layer, two_layer.layer_nodes(1), two_layer.layer_nodes(2),
                               BernoulliParams.uniform(two_layer, 0.5), 20000, 7)
    for key, want in GOLDEN_PROFILES["two_layer layer 1|layer 2"].items():
        _assert_golden(prof[key], want)
    _, curve = lg.optimize_pi(dumbbell, 0.25, 5000, 3)
    assert [pt for pt, _ in curve] == list(GOLDEN_DUMBBELL_CURVE)
    for pt, est in curve:
        _assert_golden(est, GOLDEN_DUMBBELL_CURVE[pt])


# The two consumers of the mixture core that the goldens above miss, recorded
# before the batch evaluation was stacked: the symmetric sweep
# optimize_pi(two_layer, 0.25, 5000, 3), the only sweep over a multi-source
# group (y1, y5), and the joint-enumeration path of
# decomposition_check(dumbbell, uniform 1/2, 20000, 11), as (lhs, rhs)
GOLDEN_TWO_LAYER_CURVE = {
    (0.0,): (0.0, 0.0),
    (0.25,): (1.2293434348792756, 0.016530183642442665),
    (0.5,): (1.5218394559778243, 0.01563003953893112),
    (0.75,): (1.1921361224756672, 0.016149406232846678),
    (1.0,): (0.0, 0.0),
}
GOLDEN_DUMBBELL_DECOMPOSITION = ((0.586009055866308, 0.004871067320132728),
                                 (0.586009055866308, 0.004871067320132728))


def test_sweep_and_decomposition_match_the_golden_values(dumbbell, two_layer):
    _, curve = lg.optimize_pi(two_layer, 0.25, 5000, 3)
    assert [pt for pt, _ in curve] == list(GOLDEN_TWO_LAYER_CURVE)
    for pt, est in curve:
        _assert_golden(est, GOLDEN_TWO_LAYER_CURVE[pt])
    sides = lg.decomposition_check(dumbbell, BernoulliParams.uniform(dumbbell, 0.5), 20000, 11)
    for est, want in zip(sides, GOLDEN_DUMBBELL_DECOMPOSITION):
        _assert_golden(est, want)
