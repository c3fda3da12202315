import dataclasses
import math

import numpy as np
import pytest
from scipy.special import ndtri

import lgtree as lg
from lgtree import synthesis
from lgtree.errors import CapExceeded, MixtureTooLarge, ValidationError
from lgtree.info import BernoulliParams
from lgtree.synthesis import RateTuple, _layer_blocks, _mixture_components


@pytest.fixture(scope="module")
def star_codebook(star):
    pi = BernoulliParams.uniform(star, 0.5)
    rates = RateTuple.make([(0.55, 0.6)], 6)
    return lg.build_codebooks(star, rates, pi, 11), rates, pi


def test_codeword_counts_arithmetic():
    rates = RateTuple.make([(1.0, 0.5)], 8)
    assert rates.codeword_counts() == [(2981, 55)]


def test_rate_validation():
    with pytest.raises(ValidationError):
        RateTuple.make([(1.0, -0.1)], 8)
    with pytest.raises(ValidationError):
        RateTuple.make([(1.0, 0.5)], 0)


def test_codebook_cap(star):
    pi = BernoulliParams.uniform(star, 0.5)
    with pytest.raises(CapExceeded):
        lg.build_codebooks(star, RateTuple.make([(2.0, 0.5)], 8), pi, 0)


def test_layer_count_mismatch(two_layer):
    pi = BernoulliParams.uniform(two_layer, 0.5)
    with pytest.raises(ValidationError):
        lg.build_codebooks(two_layer, RateTuple.make([(0.5, 0.5)], 4), pi, 0)


def test_sub_block_counts(star, dumbbell, two_layer):
    pi_s = BernoulliParams.uniform(star, 0.5)
    cb = lg.build_codebooks(star, RateTuple.make([(0.5, 0.5)], 4), pi_s, 1)
    assert cb.layer(1).sub_block_count == 1

    pi_d = BernoulliParams.uniform(dumbbell, 0.5)
    cb = lg.build_codebooks(dumbbell, RateTuple.make([(0.5, 0.5)], 4), pi_d, 1)
    assert cb.layer(1).sub_block_count == 2

    pi_t = BernoulliParams.uniform(two_layer, 0.5)
    cb = lg.build_codebooks(
        two_layer, RateTuple.make([(0.5, 0.5), (0.5, 0.5)], 4), pi_t, 1
    )
    assert cb.layer(1).sub_block_count == 16
    assert cb.layer(2).sub_block_count == 1
    assert sum(cb.layer(1).realized_sub_block_sizes()) == cb.layer(1).signs.shape[0] * 4


def test_codebook_determinism(star_codebook, star):
    cb, rates, pi = star_codebook
    again = lg.build_codebooks(star, rates, pi, 11)
    assert np.array_equal(cb.layer(1).signs, again.layer(1).signs)
    assert np.array_equal(
        cb.layer(1).gaussian_codeword(3, 5), again.layer(1).gaussian_codeword(3, 5)
    )


def test_synthesize_determinism(star_codebook, star):
    cb, _, _ = star_codebook
    a = lg.synthesize(star, cb, 40, 9)
    b = lg.synthesize(star, cb, 40, 9)
    assert np.array_equal(a, b)
    assert a.shape == (40, 6, 3)


def test_zero_noise_identity(star):
    y = np.array([[1.3], [0.4]])
    b = np.array([[1.0], [-1.0]])
    x = (b * y) @ _layer_blocks(star)[0].gain.T
    want = np.array([[0.6 * 1.3, 0.7 * 1.3, 0.8 * 1.3],
                     [-0.6 * 0.4, -0.7 * 0.4, -0.8 * 0.4]])
    assert np.allclose(x, want, atol=1e-15)


def test_synthesize_noise_free_matches_signal_model(star, star_codebook):
    cb, _, _ = star_codebook
    x, internals = lg.synthesize(star, cb, 25, 3, noise=False, return_internals=True)
    want = (internals["b"][1] * internals["y"][1]) @ _layer_blocks(star)[0].gain.T
    assert np.allclose(x, want, atol=1e-14)


def test_emitted_variance(star, star_codebook):
    cb, _, _ = star_codebook
    x = lg.synthesize(star, cb, 10000, 3)
    var = x.reshape(-1, 3).var(axis=0)
    assert np.all(np.abs(var - 1.0) < 0.05)


def _layer_cov(tree, nodes):
    idx = [tree.node_order[n] for n in nodes]
    return lg.joint_covariance(tree).joint[np.ix_(idx, idx)]


def _canonical_pattern(code, k):
    """The sign pattern (first entry +1) with index ``code``; the second
    entry is the most significant bit, and a set bit means -1."""
    bits = [(code >> (k - 2 - i)) & 1 for i in range(k - 1)]
    return np.array([1.0] + [-1.0 if bit else 1.0 for bit in bits])


def test_sub_block_law_dumbbell(dumbbell):
    pi = BernoulliParams.uniform(dumbbell, 0.5)
    cb = lg.build_codebooks(dumbbell, RateTuple.make([(0.8, 0.8)], 6), pi, 3)
    lay = cb.layer(1)
    _, internals = lg.synthesize(dumbbell, cb, 4000, 5, return_internals=True)
    y = internals["y"][1]
    codes = lay.pattern_codes[internals["sign_index"][1]]        # (runs, N)
    base = _layer_cov(dumbbell, lay.nodes)
    for code in range(lay.sub_block_count):
        pattern = _canonical_pattern(code, len(lay.nodes))
        want = (np.outer(pattern, pattern) * base)[0, 1]
        # average within each run first: runs are independent, symbols are not
        sel = np.where((codes == code).all(axis=1))[0]
        per_run = (y[sel, :, 0] * y[sel, :, 1]).mean(axis=1)
        se = per_run.std(ddof=1) / math.sqrt(len(per_run))
        assert abs(per_run.mean() - want) <= 5 * se


def test_mixture_density_matches_bruteforce(star):
    from scipy.stats import multivariate_normal

    pi = BernoulliParams.uniform(star, 0.5)
    rates = RateTuple.make([(0.4, 0.3)], 3)
    cb = lg.build_codebooks(star, rates, pi, 2)
    means, cov = _mixture_components(star, cb)
    x = lg.synthesize(star, cb, 6, 8)
    from lgtree.synthesis import _block_log_density

    got = _block_log_density(x, means, cov)
    for s in range(len(x)):
        comps = []
        for c in range(means.shape[0]):
            lp = sum(
                multivariate_normal.logpdf(x[s, t], mean=means[c, t], cov=cov)
                for t in range(x.shape[1])
            )
            comps.append(lp)
        mx = max(comps)
        want = mx + math.log(sum(math.exp(v - mx) for v in comps)) - math.log(len(comps))
        assert got[s] == pytest.approx(want, abs=1e-9)


def test_divergence_report_fields(star, star_codebook):
    cb, rates, pi = star_codebook
    rep = lg.estimate_divergence(star, cb, 600, 5)
    assert rep.samples == 600
    assert rep.kl_estimate >= -3 * rep.kl_std_error
    assert rep.tv_upper_bound == pytest.approx(
        math.sqrt(max(rep.kl_estimate, 0.0) / 2.0), abs=1e-15
    )
    assert rep.sub_blocks[0]["pattern_count"] == 1
    assert len(rep.bound_check) == 1


def test_divergence_determinism(star, star_codebook):
    cb, _, _ = star_codebook
    a = lg.estimate_divergence(star, cb, 300, 5)
    b = lg.estimate_divergence(star, cb, 300, 5)
    assert a == b


def test_mixture_cap(star):
    pi = BernoulliParams.uniform(star, 0.5)
    rates = RateTuple.make([(1.0, 1.0)], 10)   # 22027^2 pairs
    cb = lg.build_codebooks(star, rates, pi, 0)
    with pytest.raises(MixtureTooLarge):
        lg.estimate_divergence(star, cb, 10, 0)


def test_rate_region_margins_by_construction(star):
    pi = BernoulliParams.uniform(star, 0.5)
    probe = lg.rate_region_check(star, RateTuple.make([(0.0, 0.0)], 4), pi, samples=20000, seed=3)
    base_y = probe[0]["gaussian_mi"]
    base_sum = probe[0]["total_mi"]
    rates = RateTuple.make([(base_y + 0.2, base_sum - base_y + 0.2)], 4)
    margins = lg.rate_region_check(star, rates, pi, samples=20000, seed=3)[0]
    assert margins["gaussian_rate_margin"] == pytest.approx(0.2, abs=1e-12)
    assert margins["sum_rate_margin"] == pytest.approx(0.4, abs=1e-12)

    low = lg.rate_region_check(star, RateTuple.make([(base_y - 0.1, 1.0)], 4), pi, samples=20000, seed=3)[0]
    assert low["gaussian_rate_margin"] == pytest.approx(-0.1, abs=1e-12)


def test_frontier_rates_zero_margin(dumbbell):
    pi = BernoulliParams.uniform(dumbbell, 0.5)
    rates = lg.frontier_rates(dumbbell, pi, 0.0, 4, samples=20000, seed=9)
    margins = lg.rate_region_check(dumbbell, rates, pi, samples=20000, seed=9)
    # matched (pi, samples, seed) on both sides: frontier margins vanish
    for m in margins:
        assert abs(m["sum_rate_margin"]) < 1e-9
        assert abs(m["gaussian_rate_margin"]) < 1e-9


def test_constraint_checklist_passes(star, star_codebook):
    cb, _, _ = star_codebook
    rep = lg.estimate_divergence(star, cb, 1000, 5)
    checks = lg.verify_encoding_constraints(star, cb, rep, runs=1500, seed=21)
    assert [c.name for c in checks] == [
        "conditional_independence_given_inputs",
        "output_independent_of_signs",
        "iid_across_channel_uses",
        "gaussian_codebook_cardinality",
        "sign_codebook_cardinality",
        "tv_bound_within_threshold",
    ]
    assert all(c.passed for c in checks)


def test_tampered_gaussian_cardinality_fails(star, star_codebook):
    cb, _, _ = star_codebook
    rep = lg.estimate_divergence(star, cb, 800, 5)
    layer = dataclasses.replace(cb.layer(1), gauss_count=cb.layer(1).gauss_count - 1)
    tampered = dataclasses.replace(cb, layers=(layer,))
    checks = {c.name: c for c in lg.verify_encoding_constraints(star, tampered, rep, runs=1000, seed=21)}
    assert not checks["gaussian_codebook_cardinality"].passed
    assert checks["sign_codebook_cardinality"].passed
    assert checks["output_independent_of_signs"].passed


def test_hardwired_signs_fail_cardinality_only(star, star_codebook):
    cb, _, _ = star_codebook
    lay = cb.layer(1)
    ones = np.ones((1,) + lay.signs.shape[1:])
    layer = dataclasses.replace(
        lay, signs=ones, pattern_codes=np.zeros((1, lay.signs.shape[1]), dtype=np.int64)
    )
    tampered = dataclasses.replace(cb, layers=(layer,))
    rep = lg.estimate_divergence(star, tampered, 800, 5)
    checks = {c.name: c for c in lg.verify_encoding_constraints(star, tampered, rep, runs=1000, seed=21)}
    assert checks["output_independent_of_signs"].passed      # single class: trivially independent
    assert not checks["sign_codebook_cardinality"].passed
    assert checks["gaussian_codebook_cardinality"].passed


def test_two_layer_synthesis_moments(two_layer):
    pi = BernoulliParams.uniform(two_layer, 0.5)
    rates = RateTuple.make([(1.2, 1.2), (1.0, 0.6)], 4)
    cb = lg.build_codebooks(two_layer, rates, pi, 3)
    x = lg.synthesize(two_layer, cb, 8000, 5)
    emp = x.reshape(-1, two_layer.n)
    emp = emp.T @ emp / len(emp)
    target = np.asarray(lg.joint_covariance(two_layer).observed_block)
    assert np.linalg.norm(emp - target, "fro") < 0.12


def test_two_layer_rate_check_has_one_entry_per_layer(two_layer):
    pi = BernoulliParams.uniform(two_layer, 0.5)
    rates = RateTuple.make([(1.2, 1.2), (1.0, 0.6)], 4)
    out = lg.rate_region_check(two_layer, rates, pi, samples=10000, seed=1)
    assert [m["layer"] for m in out] == [1, 2]
    for m in out:
        assert m["total_mi"] >= m["gaussian_mi"] - 3 * m["gaussian_mi_se"]


def test_independence_stat_null_for_skewed_pi(star):
    # the per-symbol emitted law is sign-invariant for any bias
    pi = BernoulliParams.uniform(star, 0.3)
    cb = lg.build_codebooks(star, RateTuple.make([(0.55, 0.6)], 6), pi, 11)
    rep = lg.estimate_divergence(star, cb, 1200, 5)
    assert abs(rep.independence_stat) <= 3 * rep.independence_se


def _words(value: int) -> np.ndarray:
    return np.array([(value >> (64 * i)) % 2**64 for i in range(4)], dtype=np.uint64)


def test_philox_matches_numpy():
    rng = np.random.default_rng(5)
    counters = [int.from_bytes(rng.bytes(32), "little") for _ in range(40)]
    counters += [0, 2**64 - 1, 2**128 - 1, 2**256 - 1, 3 << 192]
    for counter in counters:
        key = rng.integers(0, 2**64, size=2, dtype=np.uint64)
        want = np.random.Philox(key=key, counter=_words(counter)).random_raw(4)
        got = synthesis.philox4x64(_words((counter + 1) % 2**256)[:, None], key)
        assert np.array_equal(np.concatenate(got), want)


def test_white_noise_is_the_documented_stream(two_layer):
    pi = BernoulliParams.uniform(two_layer, 0.5)
    cb = lg.build_codebooks(two_layer, RateTuple.make([(0.5, 0.5), (0.6, 0.4)], 3), pi, 7)
    for lay in cb.layers:
        n_uses, k = lay.signs.shape[1:]
        key = np.random.SeedSequence((7, 13, lay.depth)).generate_state(2, np.uint64)
        for g, s in [(0, 0), (lay.gauss_count - 1, lay.sign_count - 1), (1, 2)]:
            pair = g * lay.sign_count + s
            # numpy's Philox steps the counter before each block: start one below (0, pair, 0, 0)
            start = _words((pair << 64) - 1 + 2**256)
            raw = np.random.Philox(key=key, counter=start).random_raw(4 * -(-n_uses * k // 4))
            uniform = ((raw[:n_uses * k] >> np.uint64(11)) + 0.5) * 2.0**-53
            want = ndtri(uniform).reshape(n_uses, k)
            assert np.array_equal(lay.white_noise(g, s), want)


def test_codeword_batch_matches_single(two_layer, monkeypatch):
    pi = BernoulliParams.uniform(two_layer, 0.5)
    cb = lg.build_codebooks(two_layer, RateTuple.make([(0.5, 0.5), (0.6, 0.4)], 3), pi, 7)
    lay = cb.layer(1)                     # four nodes: eight covariance patterns
    g = np.arange(lay.gauss_count)[:, None]
    s = np.arange(lay.sign_count)
    batch = lay.gaussian_codeword(g, s)
    assert batch.shape == (lay.gauss_count, lay.sign_count) + lay.signs.shape[1:]
    for gi in range(lay.gauss_count):
        for si in range(lay.sign_count):
            assert np.array_equal(lay.gaussian_codeword(gi, si), batch[gi, si])
    monkeypatch.setattr(synthesis, "CODEWORD_ROWS", 3)
    assert np.array_equal(lay.gaussian_codeword(g, s), batch)


def test_mixture_means_are_codewords_through_the_chain(two_layer):
    pi = BernoulliParams.uniform(two_layer, 0.5)
    cb = lg.build_codebooks(two_layer, RateTuple.make([(0.5, 0.5), (0.6, 0.4)], 3), pi, 7)
    means, _ = _mixture_components(two_layer, cb)
    top = cb.layer(2)
    assert len(means) == top.gauss_count * top.sign_count
    x, internals = lg.synthesize(two_layer, cb, 60, 4, noise=False, return_internals=True)
    comp = internals["gauss_index"] * top.sign_count + internals["sign_index"][2]
    assert np.allclose(x, means[comp], rtol=0, atol=1e-12)


def test_white_noise_is_standard_normal(star_codebook):
    from scipy.stats import kstest

    cb, _, _ = star_codebook
    lay = cb.layer(1)
    xi = lay.white_noise(np.arange(lay.gauss_count)[:, None], np.arange(lay.sign_count))
    assert xi.size == lay.gauss_count * lay.sign_count * 6
    assert kstest(xi.ravel(), "norm").pvalue > 0.01


@pytest.mark.parametrize("which", ["gauss", "sign"])
def test_codeword_index_validation(star_codebook, which):
    cb, _, _ = star_codebook
    lay = cb.layer(1)
    count = lay.gauss_count if which == "gauss" else lay.sign_count
    for bad in (-1, count, np.array([0, -1]), np.array([[count]]), 1.0):
        pair = (bad, 0) if which == "gauss" else (0, bad)
        with pytest.raises(ValidationError):
            lay.gaussian_codeword(*pair)


def _lagged(real, rho):
    """Wrap ``synthesize`` so consecutive emitted symbols correlate by ``rho``."""
    c = (1.0 - math.sqrt(1.0 - 4.0 * rho * rho)) / (2.0 * rho)   # c / (1 + c^2) = rho

    def synthesize(*args, **kwargs):
        x, internals = real(*args, **kwargs)
        mixed = x.copy()
        mixed[:, 1:] = (x[:, 1:] + c * x[:, :-1]) / math.hypot(1.0, c)
        return mixed, internals
    return synthesize


@pytest.fixture(scope="module")
def iid_setup(star):
    # the 10 x 12 codebook of the verify-constraints CLI test
    pi = BernoulliParams.uniform(star, 0.5)
    rates = RateTuple.make([(0.55, 0.6)], 4)
    cb = lg.build_codebooks(star, rates, pi, 11)
    return pi, rates, lg.estimate_divergence(star, cb, 500, 11, rate_margin_samples=1000)


def _iid_check(star, cb, report, seed):
    checks = lg.verify_encoding_constraints(star, cb, report, runs=2000, seed=seed)
    return {c.name: c for c in checks}["iid_across_channel_uses"]


def test_iid_check_false_alarms(star, iid_setup):
    # runs share few pair codewords; a standard error that treats the runs
    # as independent fails on 20 of these 60 codebook seeds
    pi, rates, report = iid_setup
    failed = [s for s in range(60)
              if not _iid_check(star, lg.build_codebooks(star, rates, pi, s), report, s).passed]
    assert len(failed) <= 1, failed


def test_iid_check_detects_lag_correlation(star, iid_setup, monkeypatch):
    pi, rates, report = iid_setup
    cb = lg.build_codebooks(star, rates, pi, 11)
    assert _iid_check(star, cb, report, 11).passed
    monkeypatch.setattr(synthesis, "synthesize", _lagged(synthesis.synthesize, 0.2))
    check = _iid_check(star, cb, report, 11)
    assert not check.passed and check.observed > 2 * check.threshold


@pytest.mark.parametrize("name, rates", [
    ("dumbbell", [(0.5, 1.0)]),
    ("two_layer", [(0.5, 1.0), (0.5, 0.5)]),
])
def test_codewords_equal_per_pattern_cholesky_colouring(tree_dir, name, rates):
    # the reference colours each symbol with cholesky(outer(p, p) * Sigma),
    # one factor per canonical pattern p of the layer
    tree = lg.load_tree(tree_dir / f"{name}.tree")
    pi = BernoulliParams.uniform(tree, 0.5)
    cb = lg.build_codebooks(tree, RateTuple.make(rates, 4), pi, 5)
    for lay in cb.layers:
        k = len(lay.nodes)
        base = _layer_cov(tree, lay.nodes)
        chols = np.stack([np.linalg.cholesky(np.outer(p, p) * base)
                          for p in (_canonical_pattern(c, k) for c in range(lay.sub_block_count))])
        assert set(np.unique(lay.pattern_codes)) == set(range(lay.sub_block_count))
        g = np.arange(lay.gauss_count)[:, None]
        s = np.arange(lay.sign_count)
        want = np.einsum("gstij,gstj->gsti", chols[lay.pattern_codes[s]][None],
                         lay.white_noise(g, s))
        assert np.array_equal(lay.gaussian_codeword(g, s), want)


def test_each_regression_is_built_once_per_tree(tree_dir, monkeypatch):
    from lgtree import info

    built = {}

    class CountingBlock(info._BlockModel):
        def __init__(self, tree, targets, sources):
            key = (tuple(targets), tuple(sources))
            built[key] = built.get(key, 0) + 1
            super().__init__(tree, targets, sources)

    monkeypatch.setattr(info, "_BlockModel", CountingBlock)
    tree = lg.load_tree(tree_dir / "two_layer.tree")
    pi = BernoulliParams.uniform(tree, 0.5)
    rates = lg.frontier_rates(tree, pi, 0.2, 2, samples=1000, seed=1)
    cb = lg.build_codebooks(tree, rates, pi, 1)
    report = lg.estimate_divergence(tree, cb, 200, 2, rate_margin_samples=1000)
    lg.verify_encoding_constraints(tree, cb, report, runs=200, seed=3)
    layers = [tree.observed] + [tree.layer_nodes(d) for d in range(1, tree.num_layers + 1)]
    assert built == {(t, s): 1 for t, s in zip(layers, layers[1:])}
    assert not any(lay.chol.flags.writeable for lay in cb.layers)   # shared with the memo


@pytest.mark.parametrize("rate", [math.nan, math.inf, 1e308, 1e5])
def test_rates_without_finite_codebook_sizes_are_rejected(rate):
    with pytest.raises(ValidationError):
        RateTuple.make([(rate, 0.5)], 8)
    with pytest.raises(ValidationError):
        RateTuple.make([(0.5, rate)], 8)


def test_largest_rate_has_finite_codebook_sizes():
    rate = synthesis.LOG_FLOAT_MAX / 8
    counts = RateTuple.make([(rate, rate)], 8).codeword_counts()
    assert all(math.isfinite(c) for pair in counts for c in pair)


def test_non_finite_margin_and_tv_threshold_are_rejected(star, star_codebook):
    cb, _, pi = star_codebook
    with pytest.raises(ValidationError):
        lg.frontier_rates(star, pi, math.nan, 4, samples=1000)
    with pytest.raises(ValidationError):
        lg.estimate_divergence(star, cb, 100, 1, tv_threshold=math.nan)
