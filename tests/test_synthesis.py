import dataclasses
import hashlib
import importlib.util
import itertools
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import types
from statistics import NormalDist

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from scipy.special import logsumexp, ndtri
from scipy.stats import multivariate_normal

import lgtree as lg
from lgtree import synthesis
from lgtree.errors import CapExceeded, ValidationError
from lgtree.info import EVAL_CELLS, BernoulliParams, _Gauss
from lgtree.synthesis import RateTuple, _channel, _mixture_components

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def no_innovation(monkeypatch):
    """Emission with the "innovation" substream swapped for a generator of
    zeros, so every layer is the signed regression of the one above."""

    class Zeros:
        def standard_normal(self, shape):
            return np.zeros(shape)

    def zero_innovation(seed, name, *index):
        return Zeros() if name == "innovation" else real(seed, name, *index)

    real = synthesis._rng
    monkeypatch.setattr(synthesis, "_rng", zero_innovation)


@pytest.fixture(scope="module")
def star_codebook(star):
    pi = BernoulliParams.uniform(star, 0.5)
    rates = RateTuple.make([(0.55, 0.6)], 6)
    return lg.build_codebooks(star, rates, pi, 11), rates, pi


def test_codeword_counts_arithmetic():
    rates = RateTuple.make([(1.0, 0.5)], 8)
    assert rates.codeword_counts() == (2981, 55)


def test_rate_validation():
    with pytest.raises(ValidationError):
        RateTuple.make([(1.0, -0.1)], 8)
    with pytest.raises(ValidationError):
        RateTuple.make([(1.0, 0.5)], 0)


@pytest.mark.parametrize("pairs", [[(1, 2, 3)], [("a", 1)], [0.5], None, [(1, None)]])
def test_malformed_rate_pairs_are_rejected(pairs):
    with pytest.raises(ValidationError, match="pairs of numbers"):
        RateTuple.make(pairs, 4)


@pytest.mark.parametrize("block_length", [2.5, 2.0, True, "2", None])
def test_non_integer_block_length_is_rejected(block_length):
    # int() would truncate 2.5 to 2 and count True as 1
    with pytest.raises(ValidationError, match="block length must be a positive integer"):
        RateTuple.make([(0.1, 0.1)], block_length)


def test_integer_types_are_accepted_as_block_length():
    assert RateTuple.make([(0.1, 0.1)], np.int64(3)).block_length == 3


def test_codebook_cap(star):
    pi = BernoulliParams.uniform(star, 0.5)
    with pytest.raises(CapExceeded):
        lg.build_codebooks(star, RateTuple.make([(2.0, 0.5)], 8), pi, 0)


def test_layer_count_mismatch(two_layer):
    # only the top layer is coded, so the rates are one pair on every tree
    for pairs in ([], [(0.5, 0.5)] * two_layer.num_layers):
        with pytest.raises(ValidationError, match="one .R_Y, R_B. pair"):
            RateTuple.make(pairs, 4)
    pi = BernoulliParams.uniform(two_layer, 0.5)
    cb = lg.build_codebooks(two_layer, RateTuple.make([(0.5, 0.5)], 4), pi, 0)
    assert cb.top.depth == two_layer.num_layers


def test_sub_block_counts(star, dumbbell, four_hidden, two_layer):
    pi_s = BernoulliParams.uniform(star, 0.5)
    cb = lg.build_codebooks(star, RateTuple.make([(0.5, 0.5)], 4), pi_s, 1)
    assert cb.top.sub_block_count == 1

    pi_d = BernoulliParams.uniform(dumbbell, 0.5)
    cb = lg.build_codebooks(dumbbell, RateTuple.make([(0.5, 0.5)], 4), pi_d, 1)
    assert cb.top.sub_block_count == 2

    pi_f = BernoulliParams.uniform(four_hidden, 0.5)
    cb = lg.build_codebooks(four_hidden, RateTuple.make([(0.5, 0.5)], 4), pi_f, 1)
    assert cb.top.sub_block_count == 8
    assert sum(cb.top.realized_sub_block_sizes()) == cb.top.signs.shape[0] * 4

    pi_t = BernoulliParams.uniform(two_layer, 0.5)
    cb = lg.build_codebooks(two_layer, RateTuple.make([(0.5, 0.5)], 4), pi_t, 1)
    assert cb.top.depth == 2
    assert cb.top.sub_block_count == 1


def test_sign_patterns_follow_replaced_signs(dumbbell):
    # the patterns are derived from the signs, so a replaced sign table
    # cannot leave its old sub-block sizes behind
    pi = BernoulliParams.uniform(dumbbell, 0.5)
    cb = lg.build_codebooks(dumbbell, RateTuple.make([(0.5, 0.5)], 3), pi, 7)
    top = cb.top
    flipped = dataclasses.replace(top, signs=top.signs * np.array([1.0, -1.0]))   # y2 flipped
    assert top.nodes == ("y1", "y2") and top.realized_sub_block_sizes() == [6, 9]
    assert flipped.realized_sub_block_sizes() == [9, 6]
    report = lg.estimate_divergence(dumbbell, dataclasses.replace(cb, top=flipped), 200, 3,
                                    rate_margin_samples=1000)
    assert report.sub_blocks["realized_sizes"] == [9, 6]


def test_codebook_determinism(star_codebook, star):
    cb, rates, pi = star_codebook
    again = lg.build_codebooks(star, rates, pi, 11)
    assert np.array_equal(cb.top.signs, again.top.signs)
    assert np.array_equal(
        cb.top.gaussian_codeword(3, 5), again.top.gaussian_codeword(3, 5)
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
    x = (b * y) @ _channel(star).gain.T
    want = np.array([[0.6 * 1.3, 0.7 * 1.3, 0.8 * 1.3],
                     [-0.6 * 0.4, -0.7 * 0.4, -0.8 * 0.4]])
    assert np.allclose(x, want, atol=1e-15)


def test_synthesize_noise_free_matches_signal_model(star, star_codebook, no_innovation):
    cb, _, _ = star_codebook
    x, internals = lg.synthesize(star, cb, 25, 3, return_internals=True)
    g, s = internals["gauss_index"], internals["sign_index"]
    want = (cb.top.signs[s] * cb.top.gaussian_codeword(g, s)) @ _channel(star).gain.T
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
    lay = cb.top
    _, internals = lg.synthesize(dumbbell, cb, 4000, 5, return_internals=True)
    y = lay.gaussian_codeword(internals["gauss_index"], internals["sign_index"])
    codes = lay.pattern_codes[internals["sign_index"]]           # (runs, N)
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
    inputs, model = _mixture_components(star, cb)
    means, cov = inputs @ model.gain.T, model.noise.cov
    x = lg.synthesize(star, cb, 6, 8)
    from lgtree.synthesis import _block_log_density

    got = _block_log_density(x, inputs, model)
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


def _two_pass_log_density(x, means, cov):
    """Reference for ``_block_log_density``: every cell's
    -|x_w - m_w|^2 / 2 + const is expanded by broadcast adds, then
    log-sum-exp'd through freshly allocated arrays."""
    comp = _Gauss(cov, "component covariance")
    comp_count = means.shape[0]
    const = -0.5 * x.shape[1] * (comp.logdet + cov.shape[0] * math.log(2.0 * math.pi))
    xw = (x @ comp.inv_chol.T).reshape(len(x), -1)
    mw = (means @ comp.inv_chol.T).reshape(comp_count, -1)
    m_sq = np.einsum("ij,ij->i", mw, mw)
    out = np.empty(len(x))
    batch = max(1, 2**20 // comp_count)
    for start in range(0, len(x), batch):
        xb = xw[start:start + batch]
        x_sq = np.einsum("ij,ij->i", xb, xb)
        logcomp = -0.5 * (x_sq[:, None] - 2.0 * xb @ mw.T + m_sq[None, :]) + const
        mx = logcomp.max(axis=1)
        out[start:start + batch] = mx + np.log(
            np.exp(logcomp - mx[:, None]).sum(axis=1)
        ) - math.log(comp_count)
    return out


@pytest.fixture(scope="module")
def degenerate_codebook(star):
    # criterion 8's degenerate codebook: 2^14 Gaussian codewords at N = 1
    pi = BernoulliParams.uniform(star, 0.5)
    return lg.build_codebooks(star, RateTuple.make([(math.log(2**14), 0.0)], 1), pi, 11)


@pytest.fixture(scope="module")
def frontier_n8_codebook(star):
    pi = BernoulliParams.uniform(star, 0.5)
    rates = lg.frontier_rates(star, pi, 0.2, 8, samples=20000, seed=1)
    return lg.build_codebooks(star, rates, pi, 11)


@pytest.mark.parametrize("book", ["degenerate_codebook", "frontier_n8_codebook"])
def test_block_log_density_matches_two_pass_formula(request, star, book):
    cb = request.getfixturevalue(book)
    inputs, model = _mixture_components(star, cb)
    means = inputs @ model.gain.T
    x = lg.synthesize(star, cb, 300, 8)
    got = synthesis._block_log_density(x, inputs, model)
    np.testing.assert_allclose(got, _two_pass_log_density(x, means, model.noise.cov),
                               rtol=0, atol=1e-12)


def test_block_log_density_is_finite_and_exact_in_the_far_tail(star, frontier_n8_codebook):
    inputs, model = _mixture_components(star, frontier_n8_codebook)
    means = inputs @ model.gain.T
    x = 30 * lg.synthesize(star, frontier_n8_codebook, 300, 8)
    want = _two_pass_log_density(x, means, model.noise.cov)
    # log q >= max_c log N(x; m_c) - log C: every component underflows exp
    assert (want + math.log(len(means)) < -745).all()
    got = synthesis._block_log_density(x, inputs, model)
    assert np.isfinite(got).all()
    # |log q| reaches ~1e4 here, where one ulp is ~2e-12: compare in ulps
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-12)


@pytest.mark.filterwarnings("error")
def test_far_tail_rows_are_recomputed_without_warnings(star, frontier_n8_codebook):
    # every row's unshifted sum underflows to 0 here, and its log is -inf
    inputs, model = _mixture_components(star, frontier_n8_codebook)
    x = 30 * lg.synthesize(star, frontier_n8_codebook, 300, 8)
    assert np.isfinite(synthesis._block_log_density(x, inputs, model)).all()


def test_block_log_density_bytes_do_not_depend_on_the_blas_thread_count():
    # unpadded, the 6,710 component columns gave other bytes at two threads
    script = (
        "import hashlib, lgtree as lg\n"
        "from lgtree import synthesis\n"
        "tree = lg.load_tree('trees/star.tree')\n"
        "pi = lg.BernoulliParams.uniform(tree, 0.5)\n"
        "cb = lg.build_codebooks(tree, synthesis.RateTuple.make([(0.6, 0.5)], 8), pi, 3)\n"
        "x = lg.synthesize(tree, cb, 1500, 5)\n"
        "log_q = synthesis._block_log_density(x, *synthesis._mixture_components(tree, cb))\n"
        "print(hashlib.sha1(log_q.tobytes()).hexdigest())\n"
    )
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    digests = [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              cwd=ROOT,
                              env={**env, "LTS_THREADS": threads}).stdout
               for threads in ("1", "2")]
    assert digests[0] and digests[0] == digests[1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, rates, block_length, dims", [
    ("dumbbell", [(0.8, 0.7)], 4, (16, 8)),              # k_top = 2
    ("two_layer", [(0.6, 0.5)], 4, (44, 4)),
])
def test_projected_log_density_matches_two_pass_formula(request, name, rates, block_length, dims):
    tree = request.getfixturevalue(name)
    pi = BernoulliParams.uniform(tree, 0.5)
    cb = lg.build_codebooks(tree, RateTuple.make(rates, block_length), pi, 11)
    inputs, model = _mixture_components(tree, cb)
    gain, cov = model.gain, model.noise.cov
    basis = np.linalg.qr(np.linalg.solve(np.linalg.cholesky(cov), gain))[0]
    assert (block_length * gain.shape[0], block_length * basis.shape[1]) == dims
    x = lg.synthesize(tree, cb, 400, 8)
    got = synthesis._block_log_density(x, inputs, model)
    want = _two_pass_log_density(x, inputs @ gain.T, cov)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("comp_count", [
    1, synthesis.BLOCK_COLUMNS - 1, synthesis.BLOCK_COLUMNS, synthesis.BLOCK_COLUMNS + 1, 1000,
])
def test_block_log_density_matches_two_pass_formula_across_column_blocks(
        star, comp_count, monkeypatch):
    # 1000 components are not a multiple of GEMM_COLUMNS; 1300 rows span
    # three slabs, and every third row sits 60 gains out along the signal,
    # so its unshifted sum underflows and its slab sums it again shifted
    model = synthesis._channel(star)
    rng = np.random.default_rng(comp_count)
    inputs = rng.standard_normal((comp_count, 2, len(model.sources)))
    x = rng.standard_normal((1300, 2, len(star.observed)))
    x[::3] += model.gain @ np.full(len(model.sources), 60.0)
    shifted = []
    real = synthesis._sum_exp

    def recording(rows, m_aug, count, buf, shift=None):
        if shift is not None:
            shifted.append(len(rows))
        return real(rows, m_aug, count, buf, shift)

    monkeypatch.setattr(synthesis, "_sum_exp", recording)
    got = synthesis._block_log_density(x, inputs, model)
    assert len(x) > 2 * (synthesis.SLAB_CELLS // synthesis.BLOCK_COLUMNS)
    assert len(shifted) == 3 and sum(shifted) == len(x[::3])
    want = _two_pass_log_density(x, inputs @ model.gain.T, model.noise.cov)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-12)


def test_block_log_density_memory_is_bounded_by_one_slab(star, degenerate_codebook):
    inputs, model = _mixture_components(star, degenerate_codebook)
    x = lg.synthesize(star, degenerate_codebook, 5000, 8)
    tracemalloc.start()
    try:
        synthesis._block_log_density(x, inputs, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two float64 slabs of EVAL_CELLS cells; 5000 x 2^14 cells at once is 625 MB
    assert peak < 2 * 8 * EVAL_CELLS


def test_block_log_density_peak_memory_stays_within_two_slabs(star, degenerate_codebook):
    # the name predates the bound: the density may hold one slab, its
    # augmented samples and components, and three per-sample vectors (the
    # log-sums, the orthogonal term and the output); 5000 x 2^14 cells at
    # once would be 625 MB
    inputs, model = _mixture_components(star, degenerate_codebook)
    x = lg.synthesize(star, degenerate_codebook, 5000, 8)
    tracemalloc.start()
    try:
        synthesis._block_log_density(x, inputs, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dim = x.shape[1] * model.basis.shape[1] + 2
    columns = -(-len(inputs) // synthesis.GEMM_COLUMNS) * synthesis.GEMM_COLUMNS
    held = 8 * (synthesis.SLAB_CELLS + len(x) * dim + dim * columns + 3 * len(x))
    assert peak < held


def _bench_oracles():
    """``bench/oracles.py``, which reads the tree files itself and shares no
    code with lgtree."""
    spec = importlib.util.spec_from_file_location("bench_oracles", ROOT / "bench" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _block_kl_quadrature(tree_path, top_nodes, inputs, nodes=60):
    """KL(q || p) of one emitted block, computed apart from lgtree.

    q is the equal-weight mixture over the codeword inputs y (C, N, k) of
    N(chain y_t, S_c) at each channel use, with chain = S_xt S_t^-1 and
    S_c = S_x - chain S_tx from the path-product covariance, and p is
    N(0, S_x) at each use.  Whitened by S_c, q and p agree on the complement
    of U, the left singular vectors of W = L_c^-1 chain, where q is a
    mixture of N(mu_c, I) with mu_c = U^T W y_c and p is N(0, I + a S_t a^T)
    with a = U^T W.  So KL is the mean over components of
    E[log q - log p](mu_c + z), z ~ N(0, I), a tensor Gauss-Hermite sum over
    the N r <= 2 projected coordinates.
    """
    oracles = _bench_oracles()
    tree = oracles.read_tree(tree_path)
    cov = oracles.path_product_covariance(tree)
    index = {v: i for i, v in enumerate(tree.nodes)}
    obs, top = [index[v] for v in tree.observed], [index[v] for v in top_nodes]
    s_xt, s_t = cov[np.ix_(obs, top)], cov[np.ix_(top, top)]
    chain = s_xt @ np.linalg.inv(s_t)
    white = np.linalg.solve(np.linalg.cholesky(cov[np.ix_(obs, obs)] - chain @ s_xt.T), chain)
    a = np.linalg.svd(white, full_matrices=False)[0].T @ white
    mu = (inputs @ a.T).reshape(len(inputs), -1)                     # (C, N r)
    dim = mu.shape[1]
    p_cov = np.kron(np.eye(inputs.shape[1]), np.eye(len(a)) + a @ s_t @ a.T)
    t, w = hermegauss(nodes)
    z = np.array(list(itertools.product(t, repeat=dim)))
    wz = np.prod(list(itertools.product(w / w.sum(), repeat=dim)), axis=1)
    y = (mu[:, None, :] + z).reshape(-1, dim)
    sq = ((y[:, None, :] - mu[None]) ** 2).sum(axis=-1)
    log_q = logsumexp(-0.5 * sq, axis=1) - math.log(len(mu)) - 0.5 * dim * math.log(2 * math.pi)
    log_p = multivariate_normal(np.zeros(dim), p_cov).logpdf(y).reshape(len(y))
    return float(((log_q - log_p).reshape(len(mu), -1) @ wz).mean())


# (tree, rates, block length): 2 Gaussian x 3 sign codewords each, N r <= 2
BLOCK_KL_CASES = {"star-N1": ("star", (0.4, 0.7), 1), "star-N2": ("star", (0.2, 0.35), 2),
                  "dumbbell-N1": ("dumbbell", (0.4, 0.7), 1)}
BLOCK_KL_Z = NormalDist().inv_cdf(1.0 - 0.0026997960632601866 / (2 * len(BLOCK_KL_CASES)))


@pytest.fixture(scope="module", params=list(BLOCK_KL_CASES))
def block_kl_case(request):
    """A codebook's (tree path, top nodes, codeword inputs y) and its
    300k-sample divergence report."""
    name, rates, block_length = BLOCK_KL_CASES[request.param]
    tree = request.getfixturevalue(name)
    pi = BernoulliParams.uniform(tree, 0.5)
    cb = lg.build_codebooks(tree, RateTuple.make([rates], block_length), pi, 11)
    top = cb.top
    y = top.signs * top.gaussian_codeword(np.arange(top.gauss_count)[:, None],
                                           np.arange(top.sign_count))
    inputs = y.reshape((-1,) + y.shape[2:])
    assert len(inputs) == 6
    report = lg.estimate_divergence(tree, cb, 300_000, 17, rate_margin_samples=1000)
    return (ROOT / "trees" / f"{name}.tree", top.nodes, inputs), report


def test_block_kl_matches_the_quadrature_oracle(block_kl_case):
    case, report = block_kl_case
    z = (report.kl_estimate - _block_kl_quadrature(*case)) / report.kl_std_error
    assert abs(z) <= BLOCK_KL_Z


def _block_kl_gradient(path, nodes, inputs, step=1e-3):
    """The central-difference gradient of :func:`_block_kl_quadrature` in
    the codeword inputs."""
    grad = np.empty_like(inputs)
    for i in np.ndindex(inputs.shape):
        bump = np.zeros_like(inputs)
        bump[i] = step
        grad[i] = (_block_kl_quadrature(path, nodes, inputs + bump)
                   - _block_kl_quadrature(path, nodes, inputs - bump)) / (2 * step)
    return grad


def test_block_kl_check_fails_when_the_oracle_codewords_move_by_1e_2(block_kl_case):
    # the name is kept from an earlier tamper that moved every symbol by
    # 1e-2.  The codeword inputs now step up the quadrature KL's gradient by
    # a length that moves the KL by 3 BLOCK_KL_Z standard errors to first
    # order, so
    # the check's power follows from the report's SE, not from where one
    # codebook's codewords fell.  The step's quadrature effect must exceed
    # 2 BLOCK_KL_Z SE: a library estimate within BLOCK_KL_Z SE of the
    # untampered oracle then lies more than BLOCK_KL_Z SE from the tampered one
    (path, nodes, inputs), report = block_kl_case
    se = report.kl_std_error
    grad = _block_kl_gradient(path, nodes, inputs)
    step = 3 * BLOCK_KL_Z * se * grad / np.sum(grad**2)
    tampered = _block_kl_quadrature(path, nodes, inputs + step)
    assert tampered - _block_kl_quadrature(path, nodes, inputs) > 2 * BLOCK_KL_Z * se
    assert abs(report.kl_estimate - tampered) / se > BLOCK_KL_Z


def test_divergence_report_fields(star, star_codebook):
    cb, rates, pi = star_codebook
    rep = lg.estimate_divergence(star, cb, 600, 5)
    assert rep.samples == 600
    assert rep.kl_estimate >= -3 * rep.kl_std_error
    assert rep.tv_upper_bound == pytest.approx(
        math.sqrt(max(rep.kl_estimate, 0.0) / 2.0), abs=1e-15
    )
    patterns, bound = rep.sub_blocks, rep.bound_check     # one each, the top layer's
    assert (patterns["layer"], patterns["pattern_count"], bound["layer"]) == (1, 1, 1)


def test_divergence_determinism(star, star_codebook):
    cb, _, _ = star_codebook
    a = lg.estimate_divergence(star, cb, 300, 5)
    b = lg.estimate_divergence(star, cb, 300, 5)
    assert a == b


def test_mixture_cap(star):
    # a codebook past the mixture cap is refused when it is built, not
    # after its blocks are emitted
    pi = BernoulliParams.uniform(star, 0.5)
    rates = RateTuple.make([(1.0, 1.0)], 10)   # 22027^2 pairs
    with pytest.raises(CapExceeded, match="22027 x 22027 pairs exceeds the cap of 16384"):
        lg.build_codebooks(star, rates, pi, 0)


def test_the_pair_cap_is_checked_before_any_draw(star, degenerate_codebook, monkeypatch):
    # exactly MIXTURE_CAP pairs build a whole table; one pair more is
    # refused before the sign table or any codeword noise is drawn
    top = degenerate_codebook.top
    assert (top.gauss_count, top.sign_count) == (synthesis.MIXTURE_CAP, 1)
    assert top.table.shape == (synthesis.MIXTURE_CAP, 1, 1)        # N = 1, one top node
    drawn = []
    real_rng = synthesis._rng

    def spy_rng(seed, name, *index):
        drawn.append(name)
        return real_rng(seed, name, *index)

    monkeypatch.setattr(synthesis, "_rng", spy_rng)
    pi = BernoulliParams.uniform(star, 0.5)
    one_more = RateTuple.make([(math.log(2**14 + 0.5), 0.0)], 1)
    assert one_more.codeword_counts() == (2**14 + 1, 1)
    with pytest.raises(CapExceeded, match="16385 x 1 pairs"):
        lg.build_codebooks(star, one_more, pi, 11)
    with pytest.raises(CapExceeded, match="16385 x 1 pairs"):
        dataclasses.replace(top, gauss_count=2**14 + 1)
    assert drawn == []


def test_rate_region_margins_by_construction(star):
    pi = BernoulliParams.uniform(star, 0.5)
    probe = lg.rate_region_check(star, RateTuple.make([(0.0, 0.0)], 4), pi, samples=20000, seed=3)
    base_y = probe["gaussian_mi"]
    base_sum = probe["total_mi"]
    rates = RateTuple.make([(base_y + 0.2, base_sum - base_y + 0.2)], 4)
    margins = lg.rate_region_check(star, rates, pi, samples=20000, seed=3)
    assert margins["gaussian_rate_margin"] == pytest.approx(0.2, abs=1e-12)
    assert margins["sum_rate_margin"] == pytest.approx(0.4, abs=1e-12)

    low = lg.rate_region_check(star, RateTuple.make([(base_y - 0.1, 1.0)], 4), pi, samples=20000, seed=3)
    assert low["gaussian_rate_margin"] == pytest.approx(-0.1, abs=1e-12)


def test_frontier_rates_zero_margin(dumbbell):
    pi = BernoulliParams.uniform(dumbbell, 0.5)
    rates = lg.frontier_rates(dumbbell, pi, 0.0, 4, samples=20000, seed=9)
    m = lg.rate_region_check(dumbbell, rates, pi, samples=20000, seed=9)
    # matched (pi, samples, seed) on both sides: frontier margins vanish
    assert abs(m["sum_rate_margin"]) < 1e-9
    assert abs(m["gaussian_rate_margin"]) < 1e-9


def test_a_margin_below_the_frontier_is_named_with_the_smallest_that_works(star):
    # the error names the margin the caller gave, not the rate it produced
    pi = BernoulliParams.uniform(star, 0.5)
    bound = lg.rate_region_check(star, RateTuple.make([(0.0, 0.0)], 2), pi, 2000, 0)
    mix, fixed = bound["gaussian_mi"], bound["total_mi"]
    smallest = -min(max(mix, 0.0), max(fixed - mix, 0.0))
    with pytest.raises(ValidationError, match=f"margin -5.0 .* is {smallest!r}$"):
        lg.frontier_rates(star, pi, -5.0, 2, samples=2000, seed=0)
    rates = lg.frontier_rates(star, pi, smallest, 2, samples=2000, seed=0)
    assert min(rates.gaussian_rate, rates.sign_rate) == 0.0


def test_a_zero_frontier_rate_names_the_smallest_margin_as_zero(lowcorr):
    # lowcorr's Gaussian-rate bound is clipped to 0 here, and a negated 0.0
    # read "-0.0"
    pi = BernoulliParams.uniform(lowcorr, 0.5)
    bound = lg.rate_region_check(lowcorr, RateTuple.make([(0.0, 0.0)], 1), pi, 1000, 0)
    assert bound["gaussian_mi"] <= 0.0
    with pytest.raises(ValidationError, match=r"is 0\.0$"):
        lg.frontier_rates(lowcorr, pi, -1e-4, 1, samples=1000, seed=0)


def test_a_margin_above_the_rate_limit_is_named_with_the_margins_that_work(star):
    pi = BernoulliParams.uniform(star, 0.5)
    with pytest.raises(ValidationError, match=r"margin 100000.0 .* up to (\S+) keep") as caught:
        lg.frontier_rates(star, pi, 1e5, 2, samples=2000, seed=0)
    largest = float(caught.value.args[0].split(" up to ")[1].split()[0])
    rates = lg.frontier_rates(star, pi, largest, 2, samples=2000, seed=0)
    assert max(rates.gaussian_rate, rates.sign_rate) * 2 <= synthesis.LOG_FLOAT_MAX
    assert max(rates.gaussian_rate, rates.sign_rate) * 2 > synthesis.LOG_FLOAT_MAX - 1e-12
    with pytest.raises(ValidationError, match="up to"):
        lg.frontier_rates(star, pi, largest + 1e-9, 2, samples=2000, seed=0)


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
    layer = dataclasses.replace(cb.top, gauss_count=cb.top.gauss_count - 1)
    tampered = dataclasses.replace(cb, top=layer)
    checks = {c.name: c for c in lg.verify_encoding_constraints(star, tampered, rep, runs=1000, seed=21)}
    assert not checks["gaussian_codebook_cardinality"].passed
    assert checks["sign_codebook_cardinality"].passed
    assert checks["output_independent_of_signs"].passed


def test_hardwired_signs_fail_cardinality_only(star, star_codebook):
    cb, _, _ = star_codebook
    lay = cb.top
    ones = np.ones((1,) + lay.signs.shape[1:])
    layer = dataclasses.replace(lay, signs=ones)
    tampered = dataclasses.replace(cb, top=layer)
    rep = lg.estimate_divergence(star, tampered, 800, 5)
    checks = {c.name: c for c in lg.verify_encoding_constraints(star, tampered, rep, runs=1000, seed=21)}
    assert checks["output_independent_of_signs"].passed      # single class: trivially independent
    assert not checks["sign_codebook_cardinality"].passed
    assert checks["gaussian_codebook_cardinality"].passed


def test_two_layer_synthesis_moments(two_layer):
    pi = BernoulliParams.uniform(two_layer, 0.5)
    rates = RateTuple.make([(1.0, 0.6)], 4)
    cb = lg.build_codebooks(two_layer, rates, pi, 3)
    x = lg.synthesize(two_layer, cb, 8000, 5)
    emp = x.reshape(-1, two_layer.n)
    emp = emp.T @ emp / len(emp)
    target = np.asarray(lg.joint_covariance(two_layer).observed_block)
    assert np.linalg.norm(emp - target, "fro") < 0.12


def test_two_layer_rate_check_has_the_top_layer_entry_only(two_layer):
    pi = BernoulliParams.uniform(two_layer, 0.5)
    rates = RateTuple.make([(1.0, 0.6)], 4)
    m = lg.rate_region_check(two_layer, rates, pi, samples=10000, seed=1)
    assert m["layer"] == 2
    assert (m["gaussian_rate"], m["sign_rate"]) == (1.0, 0.6)
    assert m["total_mi"] >= m["gaussian_mi"] - 3 * m["gaussian_mi_se"]


def test_two_layer_rate_bounds_match_the_channel_oracle(two_layer):
    # the bounds are those of the channel observed | u, apart from lgtree: u
    # reaches x through a whitened gain of squared norm a^2, so the total is
    # 1/2 log(1 + a^2), and a +/-1 sign on u at prior 1/2 is seen as the
    # binary input C(1/2, y a), y ~ N(0, 1), which the Gaussian-input MI
    # leaves out
    oracles = _bench_oracles()
    tree = oracles.read_tree(ROOT / "trees" / "two_layer.tree")
    cov = oracles.path_product_covariance(tree)
    obs = [tree.nodes.index(v) for v in tree.observed]
    top = tree.nodes.index("u")
    s_xu = cov[obs, top]
    a_sq = s_xu @ np.linalg.solve(cov[np.ix_(obs, obs)] - np.outer(s_xu, s_xu), s_xu)
    total = 0.5 * math.log1p(a_sq)
    pi = BernoulliParams.uniform(two_layer, 0.5)
    bound = lg.rate_region_check(two_layer, RateTuple.make([(0.5, 0.5)], 4), pi)
    assert bound["total_mi"] == pytest.approx(total, rel=0, abs=1e-12)
    want = total - oracles._group_sign_mi(0.5, a_sq)
    assert abs(bound["gaussian_mi"] - want) <= 3 * bound["gaussian_mi_se"]


def test_two_layer_frontier_matches_the_recorded_top_pair(two_layer):
    # recorded from the bounds of the channel observed | top layer; the pair
    # must not move by a bit
    pi = BernoulliParams.uniform(two_layer, 0.5)
    rates = lg.frontier_rates(two_layer, pi, 0.2, 6, samples=50000, seed=3)
    assert (rates.gaussian_rate, rates.sign_rate) == (0.31199291710922217, 0.44490763490384355)


def test_independence_stat_null_for_skewed_pi(star):
    # the per-symbol emitted law is sign-invariant for any bias
    pi = BernoulliParams.uniform(star, 0.3)
    cb = lg.build_codebooks(star, RateTuple.make([(0.55, 0.6)], 6), pi, 11)
    rep = lg.estimate_divergence(star, cb, 1200, 5)
    checks = {c.name: c for c in lg.verify_encoding_constraints(star, cb, rep, runs=1200, seed=5)}
    assert checks["output_independent_of_signs"].passed


def test_codeword_batch_matches_single(four_hidden, monkeypatch):
    pi = BernoulliParams.uniform(four_hidden, 0.5)
    cb = lg.build_codebooks(four_hidden, RateTuple.make([(0.5, 0.5)], 3), pi, 7)
    lay = cb.top                    # four nodes: eight covariance patterns
    g = np.arange(lay.gauss_count)[:, None]
    s = np.arange(lay.sign_count)
    batch = lay.gaussian_codeword(g, s)
    assert batch.shape == (lay.gauss_count, lay.sign_count) + lay.signs.shape[1:]
    for gi in range(lay.gauss_count):
        for si in range(lay.sign_count):
            assert np.array_equal(lay.gaussian_codeword(gi, si), batch[gi, si])
    # a table built three pairs a slice holds the same codewords
    monkeypatch.setattr(synthesis, "CODEWORD_ROWS", 3)
    assert np.array_equal(dataclasses.replace(lay).gaussian_codeword(g, s), batch)
    # repeated pairs, out of order
    rng = np.random.default_rng(0)
    g_rep = rng.integers(0, lay.gauss_count, size=(5, 40))
    s_rep = rng.integers(0, lay.sign_count, size=(5, 40))
    assert np.array_equal(lay.gaussian_codeword(g_rep, s_rep), batch[g_rep, s_rep])


def test_emission_gathers_every_codeword_from_the_table(star, degenerate_codebook, monkeypatch):
    # even at MIXTURE_CAP pairs emission draws no codeword noise
    drawn = []
    real_rng = synthesis._rng

    def spy_rng(seed, name, *index):
        drawn.append(name)
        return real_rng(seed, name, *index)

    monkeypatch.setattr(synthesis, "_rng", spy_rng)
    below = degenerate_codebook.top
    assert (below.gauss_count, below.sign_count) == (2**14, 1)
    lg.synthesize(star, degenerate_codebook, 100000, 3)
    assert sorted(drawn) == ["innovation", "lower_signs", "pair_index"]


def _reference_codewords(tree, layer):
    """The (M_Y, M_B, N, k) pair codewords, built apart from the table: the
    layer's "codeword_noise" substream drawn here in pair order g M_B + s,
    and each symbol coloured by cholesky(outer(p, p) * Sigma), one factor
    per canonical pattern p of the layer."""
    k = len(layer.nodes)
    base = _layer_cov(tree, layer.nodes)
    chols = np.stack([np.linalg.cholesky(np.outer(p, p) * base)
                      for p in (_canonical_pattern(c, k) for c in range(layer.sub_block_count))])
    noise = synthesis._rng(layer.seed, "codeword_noise", layer.depth).standard_normal(
        (layer.gauss_count,) + layer.signs.shape)
    return np.einsum("gstij,gstj->gsti", chols[layer.pattern_codes][None], noise)


def test_table_gathers_equal_regeneration(four_hidden):
    pi = BernoulliParams.uniform(four_hidden, 0.5)
    lay = lg.build_codebooks(four_hidden, RateTuple.make([(0.5, 0.5)], 3), pi, 7).top
    assert lay.table.shape == (lay.gauss_count * lay.sign_count,) + lay.signs.shape[1:]
    assert not lay.table.flags.writeable
    want = _reference_codewords(four_hidden, lay)
    assert np.array_equal(lay.gaussian_codeword(2, 3), want[2, 3])
    rng = np.random.default_rng(4)
    g_rep = rng.integers(0, lay.gauss_count, size=(6, 1))
    s_rep = rng.integers(0, lay.sign_count, size=50)        # (6, 50) pairs, with repeats
    assert np.array_equal(lay.gaussian_codeword(g_rep, s_rep), want[g_rep, s_rep])

    # replace rebuilds the table: one node's signs flipped moves the
    # canonical patterns, and one Gaussian codeword fewer drops its rows
    flipped = dataclasses.replace(lay, signs=lay.signs * np.array([1.0, -1.0, 1.0, 1.0]))
    fewer = dataclasses.replace(lay, gauss_count=lay.gauss_count - 1)
    assert not np.array_equal(flipped.table, lay.table)
    # the table is drawn in pair order, so the fewer codewords are a prefix
    assert np.array_equal(fewer.table, lay.table[:(lay.gauss_count - 1) * lay.sign_count])
    for changed in (flipped, fewer):
        g = np.arange(changed.gauss_count)[:, None]
        s = np.arange(changed.sign_count)
        want = _reference_codewords(four_hidden, changed)
        assert len(changed.table) == changed.gauss_count * changed.sign_count
        assert np.array_equal(changed.gaussian_codeword(g, s), want)
        g_in = g_rep[:2] % changed.gauss_count
        assert np.array_equal(changed.gaussian_codeword(g_in, s_rep), want[g_in, s_rep])
    with pytest.raises(ValidationError, match="out of range"):
        fewer.gaussian_codeword(lay.gauss_count - 1, 0)


def _emission_digest(x, internals=None) -> str:
    h = hashlib.sha256(x.tobytes())
    if internals is not None:
        h.update(internals["gauss_index"].tobytes())
        h.update(internals["sign_index"].tobytes())
    return h.hexdigest()


# sha256 of 9000 emitted blocks, then of the same call's blocks and drawn
# pair indices, recorded with each table's noise drawn from its substream in
# pair order and each layer's innovation noise drawn in one piece: rates
# (0.6, 0.4) at N = 3, codebook seed 7, seed 5
EMISSION_DIGESTS = {
    "star": ("4978b11aa7866430e3f32e8db340fd955018deef6901a6ca4abb7b626ae7b34e",
             "d32e1916ef747076474f2aeb802fc5b0f12a686b05d57b207c76b99cbe757a35"),
    "dumbbell": ("7dcbd499992d41ef71572766d4714f55966d4456504c3c6ef2746ad8be03b6e6",
                 "86507389e000cf3e961e84c5a17faacf3560a9355094576d01d74d24991d21ec"),
    "lowcorr": ("4fad4cca369f1ced7cc3d2bdb05c945eacb0faaa0cbdb46cd6cfc73f73b18929",
                "e9d0b55ed5ee13b96ef27b5aa70bafe2199dc0475cceb23bfb77c4f5c6d4d727"),
    "two_layer": ("bdb53546c3873035577fd0e050985d72af509928dd2fb810c33df3abb911e40c",
                  "61ed80cdeb0716b2040ae2b0ae13a3c7a624d12182ce8fed77e4404f1396fad1"),
}


@pytest.mark.parametrize("name", sorted(EMISSION_DIGESTS))
def test_emission_keeps_its_recorded_bytes(request, name):
    tree = request.getfixturevalue(name)
    pi = BernoulliParams.uniform(tree, 0.5)
    cb = lg.build_codebooks(tree, RateTuple.make([(0.6, 0.4)], 3), pi, 7)
    x = lg.synthesize(tree, cb, 9000, 5)
    x_int, internals = lg.synthesize(tree, cb, 9000, 5, return_internals=True)
    assert (_emission_digest(x), _emission_digest(x_int, internals)) == EMISSION_DIGESTS[name]


def test_emission_peak_memory_is_a_small_multiple_of_the_output(star, degenerate_codebook):
    # 100,000 runs: the 2.4 MB output once peaked at 10.4 MB, with each
    # run's codeword regenerated and the output noise added out of place
    lg.synthesize(star, degenerate_codebook, 100, 3)
    tracemalloc.start()
    try:
        x = lg.synthesize(star, degenerate_codebook, 100000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * x.nbytes


def test_mixture_means_are_codewords_through_the_chain(four_hidden, two_layer, no_innovation):
    # eight covariance patterns in one layer; one top node above a second layer
    for tree, rates in ((four_hidden, [(0.5, 0.5)]), (two_layer, [(0.6, 0.4)])):
        pi = BernoulliParams.uniform(tree, 0.5)
        cb = lg.build_codebooks(tree, RateTuple.make(rates, 3), pi, 7)
        inputs, model = _mixture_components(tree, cb)
        means = inputs @ model.gain.T
        top = cb.top
        assert len(means) == top.gauss_count * top.sign_count
        x, internals = lg.synthesize(tree, cb, 60, 4, return_internals=True)
        comp = internals["gauss_index"] * top.sign_count + internals["sign_index"]
        assert np.allclose(x, means[comp], rtol=0, atol=1e-12)


@pytest.mark.parametrize("comparisons", [1, 3, 9, 121, 10**4])
def test_family_z_is_the_normal_quantile(comparisons):
    level = 1.0 - 0.0026997960632601866 / (2 * comparisons)
    assert synthesis._family_z(comparisons) == pytest.approx(float(ndtri(level)), rel=0, abs=1e-12)


@pytest.mark.parametrize("df", [3, 9, 42, 81, 2387])
def test_chi2_upper_is_the_chi2_quantile(df):
    from scipy.stats import chi2

    # Wilson-Hilferty is 1.05 % high at df 3 and within 0.1 % from df 42
    want = chi2.ppf(1.0 - synthesis.THREE_SIGMA_MASS, df)
    assert synthesis._chi2_upper(df) == pytest.approx(want, rel=0.011, abs=0)


@pytest.mark.parametrize("classes, n_dim, rows, reps", [(2, 3, 40, 1000), (32, 11, 1920, 100)])
def test_independence_stat_mean_is_its_degrees_of_freedom(classes, n_dim, rows, reps):
    # with these draws the mean reads -0.1 and +0.2 SE from df, and without
    # the small-sample factor +7.5 and +28 SE
    rng = np.random.default_rng(3)
    stats = []
    for _ in range(reps):
        labels = rng.integers(classes, size=rows)
        stat, df = synthesis._independence_stat(rng.standard_normal((rows, n_dim)), labels)
        stats.append(stat)
    assert df == (classes - 1) * (n_dim + n_dim * (n_dim + 1) // 2)
    se = np.std(stats, ddof=1) / math.sqrt(reps)
    assert abs(np.mean(stats) - df) <= 3 * se


def _recording(real, seen):
    def synthesize(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append(out)
        return out
    return synthesize


def test_conditional_independence_z_matches_triangular_solve(monkeypatch):
    from scipy.linalg import solve_triangular

    # x4 hangs off the observed x3, so the observed noise given the layer is
    # correlated and its whitening is not a diagonal scaling
    tree = lg.validate_tree(lg.parse_tree_text(
        "node x1 observed\nnode x2 observed\nnode x3 observed\nnode x4 observed\n"
        "node y hidden\nedge y x1 0.8\nedge y x2 0.7\nedge y x3 0.6\nedge x3 x4 0.75\n"))
    obs = _channel(tree)
    assert obs.noise.chol[3, 2] != 0.0
    pi = BernoulliParams.uniform(tree, 0.5)
    cb = lg.build_codebooks(tree, RateTuple.make([(0.55, 0.6)], 4), pi, 11)
    report = lg.estimate_divergence(tree, cb, 300, 11, rate_margin_samples=1000)
    seen = []
    monkeypatch.setattr(synthesis, "synthesize", _recording(synthesis.synthesize, seen))
    checks = lg.verify_encoding_constraints(tree, cb, report, runs=1500, seed=21)
    (x, internals), = seen
    g, s = internals["gauss_index"], internals["sign_index"]
    signed = cb.top.signs[s] * cb.top.gaussian_codeword(g, s)
    resid = x - np.einsum("ij,rtj->rti", obs.gain, signed)
    flat = resid.reshape(-1, resid.shape[-1])
    white = solve_triangular(obs.noise.chol, flat.T, lower=True).T
    corr = np.corrcoef(white.T)
    want = np.max(np.abs(corr[np.triu_indices_from(corr, k=1)])) * math.sqrt(len(white))
    got = {c.name: c for c in checks}["conditional_independence_given_inputs"].observed
    assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_white_noise_is_standard_normal(star_codebook):
    from scipy.stats import kstest

    # each symbol solved against its colouring D L D gives back its noise
    cb, _, _ = star_codebook
    lay = cb.top
    canon = lay.signs * lay.signs[..., :1]
    dld = canon[..., :, None] * lay.chol * canon[..., None, :]             # (M_B, N, k, k)
    y = lay.table.reshape((lay.gauss_count,) + lay.signs.shape)
    xi = np.linalg.solve(dld, y[..., None])[..., 0]
    assert xi.size == lay.gauss_count * lay.sign_count * 6
    assert kstest(xi.ravel(), "norm").pvalue > 0.01


@pytest.mark.parametrize("which", ["gauss", "sign"])
def test_codeword_index_validation(star_codebook, which):
    cb, _, _ = star_codebook
    lay = cb.top
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


def _checks(star, cb, report, seed):
    checks = lg.verify_encoding_constraints(star, cb, report, runs=2000, seed=seed)
    return {c.name: c for c in checks}


def test_iid_check_false_alarms(star, iid_setup):
    # runs share few pair codewords; a standard error that treats the runs
    # as independent fails on 20 of these 60 codebook seeds, and a sign
    # independence null that ignores the sharing on 37
    pi, rates, report = iid_setup
    found = [_checks(star, lg.build_codebooks(star, rates, pi, s), report, s) for s in range(60)]
    for name in ("iid_across_channel_uses", "output_independent_of_signs"):
        failed = [s for s, checks in enumerate(found) if not checks[name].passed]
        assert len(failed) <= 1, (name, failed)


def test_iid_check_detects_lag_correlation(star, iid_setup, monkeypatch):
    pi, rates, report = iid_setup
    cb = lg.build_codebooks(star, rates, pi, 11)
    assert _checks(star, cb, report, 11)["iid_across_channel_uses"].passed
    monkeypatch.setattr(synthesis, "synthesize", _lagged(synthesis.synthesize, 0.2))
    check = _checks(star, cb, report, 11)["iid_across_channel_uses"]
    assert not check.passed and check.observed > 2 * check.threshold


@pytest.mark.parametrize("name, rates", [
    ("dumbbell", [(0.5, 1.0)]),
    ("two_layer", [(0.5, 0.5)]),
    ("four_hidden", [(0.5, 1.0)]),
])
def test_codewords_equal_per_pattern_cholesky_colouring(request, name, rates):
    tree = request.getfixturevalue(name)
    pi = BernoulliParams.uniform(tree, 0.5)
    cb = lg.build_codebooks(tree, RateTuple.make(rates, 4), pi, 5)
    lay = cb.top
    assert set(np.unique(lay.pattern_codes)) == set(range(lay.sub_block_count))
    g = np.arange(lay.gauss_count)[:, None]
    s = np.arange(lay.sign_count)
    assert np.array_equal(lay.gaussian_codeword(g, s), _reference_codewords(tree, lay))


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
    want = {(t, s): 1 for t, s in zip(layers, layers[1:])}
    want[(tree.observed, layers[-1])] = 1         # the coded channel
    assert built == want
    assert not cb.top.chol.flags.writeable   # shared with the memo


@pytest.mark.parametrize("rate", [math.nan, math.inf, 1e308, 1e5])
def test_rates_without_finite_codebook_sizes_are_rejected(rate):
    with pytest.raises(ValidationError):
        RateTuple.make([(rate, 0.5)], 8)
    with pytest.raises(ValidationError):
        RateTuple.make([(0.5, rate)], 8)


def test_largest_rate_has_finite_codebook_sizes():
    rate = synthesis.LOG_FLOAT_MAX / 8
    counts = RateTuple.make([(rate, rate)], 8).codeword_counts()
    assert all(math.isfinite(c) for c in counts)


def test_fewer_than_two_runs_are_rejected(star):
    # at N = 1 a single run leaves one residual row, whose correlations are
    # nan, so the checklist needs at least two runs
    pi = BernoulliParams.uniform(star, 0.5)
    cb = lg.build_codebooks(star, RateTuple.make([(0.5, 0.5)], 1), pi, 3)
    report = lg.estimate_divergence(star, cb, 100, 3, rate_margin_samples=1000)
    for runs in (0, 1):
        with pytest.raises(ValidationError, match="runs"):
            lg.verify_encoding_constraints(star, cb, report, runs=runs)
    checks = lg.verify_encoding_constraints(star, cb, report, runs=2)
    assert all(math.isfinite(c.observed) for c in checks)


def test_non_finite_margin_and_tv_threshold_are_rejected(star, star_codebook):
    cb, _, pi = star_codebook
    with pytest.raises(ValidationError):
        lg.frontier_rates(star, pi, math.nan, 4, samples=1000)
    report = lg.estimate_divergence(star, cb, 100, 1, rate_margin_samples=1000)
    with pytest.raises(ValidationError):
        lg.verify_encoding_constraints(star, cb, report, runs=100, tv_threshold=math.nan)


def test_independence_statistic_is_computed_only_by_the_check(star, iid_setup, monkeypatch):
    calls = []
    real = synthesis._independence_stat

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(synthesis, "_independence_stat", counting)
    pi, rates, _ = iid_setup
    cb = lg.build_codebooks(star, rates, pi, 11)
    report = lg.estimate_divergence(star, cb, 200, 11, rate_margin_samples=1000)
    assert len(calls) == 0
    lg.verify_encoding_constraints(star, cb, report, runs=200, seed=21)
    assert len(calls) == 1


def _sign_leak(real, c):
    """synthesize, with c times the first top-layer sign of each run's drawn
    pair added to every output."""
    def synthesize(tree, codebook, *args, **kwargs):
        x, internals = real(tree, codebook, *args, **kwargs)
        return x + c * codebook.top.signs[internals["sign_index"]][..., :1], internals
    return synthesize


def test_sign_independence_check_detects_a_sign_leak(star, star_codebook, monkeypatch):
    # the 28 x 37 codebook: 1500 runs draw about 800 distinct pairs, where
    # the 10 x 12 codebook of iid_setup has only 120
    cb, _, _ = star_codebook
    report = lg.estimate_divergence(star, cb, 500, 11, rate_margin_samples=1000)

    def check():
        checks = lg.verify_encoding_constraints(star, cb, report, runs=1500, seed=21)
        return {c.name: c for c in checks}["output_independent_of_signs"]

    assert check().passed
    monkeypatch.setattr(synthesis, "synthesize", _sign_leak(synthesis.synthesize, 0.1))
    leaked = check()
    assert not leaked.passed and leaked.observed > 2 * leaked.threshold


@pytest.fixture(scope="module")
def two_layer_report_all(two_layer):
    # report-all's synthesis settings: the frontier + 0.2 at N = 6 (a 7 x 15
    # codebook) and 1500 runs; the report feeds only the TV constraint
    pi = BernoulliParams.uniform(two_layer, 0.5)
    rates = lg.frontier_rates(two_layer, pi, 0.2, 6, samples=20000, seed=0)
    report = lg.estimate_divergence(two_layer, lg.build_codebooks(two_layer, rates, pi, 0),
                                    300, 0, rate_margin_samples=1000)
    return pi, rates, report


def _two_layer_failures(tree, setup, seeds):
    """Each constraint's failing seeds, one codebook and one run per seed."""
    pi, rates, report = setup
    failed = {}
    for s in seeds:
        cb = lg.build_codebooks(tree, rates, pi, s)
        for c in lg.verify_encoding_constraints(tree, cb, report, runs=1500, seed=s):
            failed.setdefault(c.name, [])
            if not c.passed:
                failed[c.name].append(s)
    return failed


def test_two_layer_constraints_1_and_2_hold_their_level(two_layer, two_layer_report_all):
    # labelled by the cancelling layer-1 signs, constraint 2 failed 21 of
    # these seeds; at the 0.27 % level more than 2 failures has odds 2.7e-3
    failed = _two_layer_failures(two_layer, two_layer_report_all, range(100))
    for name in ("conditional_independence_given_inputs", "output_independent_of_signs"):
        assert len(failed[name]) <= 2, (name, failed[name])


def test_conditional_independence_detects_a_lower_layer_gain(
        two_layer, two_layer_report_all, monkeypatch):
    # emission's layer 1 | layer 2 gain doubled.  Over these 20 codebook
    # seeds it failed at 20 with |z| at 3.2-4.1 times the threshold; x1.5
    # failed at 19 (0.96-1.7 times) and x1.25 at none
    real = synthesis._layer_blocks

    def doubled(tree):
        blocks = list(real(tree))
        b = blocks[1]
        blocks[1] = types.SimpleNamespace(gain=2.0 * b.gain, noise=b.noise, sources=b.sources)
        return blocks

    monkeypatch.setattr(synthesis, "_layer_blocks", doubled)
    failed = _two_layer_failures(two_layer, two_layer_report_all, range(1000, 1020))
    assert len(failed["conditional_independence_given_inputs"]) == 20


def test_sign_independence_detects_a_top_sign_leak_on_two_layer(
        two_layer, two_layer_report_all, monkeypatch):
    # 0.3 times the top sign added to every output.  Over these 20 codebook
    # seeds it failed at 20 with the statistic at 2.0-2.8 times the
    # threshold; 0.2 failed at 20 (1.2-1.8 times) and 0.15 at 17
    monkeypatch.setattr(synthesis, "synthesize", _sign_leak(synthesis.synthesize, 0.3))
    failed = _two_layer_failures(two_layer, two_layer_report_all, range(1000, 1020))
    assert len(failed["output_independent_of_signs"]) == 20


def test_two_layer_frontier_codebook_builds_at_block_length_8(two_layer):
    # the frontier names the top layer alone, and its table is the one built
    pi = BernoulliParams.uniform(two_layer, 0.5)
    rates = lg.frontier_rates(two_layer, pi, 0.2, 8, samples=20000, seed=7)
    cb = lg.build_codebooks(two_layer, rates, pi, 7)
    assert (cb.top.gauss_count, cb.top.sign_count) == rates.codeword_counts()
    report = lg.estimate_divergence(two_layer, cb, 300, 7, rate_margin_samples=1000)
    assert math.isfinite(report.kl_estimate) and report.kl_std_error > 0
    patterns, bound = report.sub_blocks, report.bound_check
    assert patterns["layer"] == bound["layer"] == 2
    checks = {c.name: c for c in lg.verify_encoding_constraints(two_layer, cb, report, runs=300)}
    assert checks["gaussian_codebook_cardinality"].passed
    assert checks["sign_codebook_cardinality"].passed


def test_only_the_top_sign_table_is_drawn(two_layer, monkeypatch):
    tags = []

    def recording(seed, name, *index):
        tags.append((seed, name) + index)
        return real(seed, name, *index)

    real = synthesis._rng
    monkeypatch.setattr(synthesis, "_rng", recording)
    pi = BernoulliParams.uniform(two_layer, 0.5)
    cb = lg.build_codebooks(two_layer, RateTuple.make([(0.6, 0.4)], 3), pi, 7)
    assert tags == [(7, "codebook_signs", 2), (7, "codeword_noise", 2)]
    assert cb.top.depth == 2
    assert cb.top.nodes == two_layer.layer_nodes(2)


def test_emitted_blocks_ignore_the_lower_layer_signs(two_layer, monkeypatch):
    # emission draws the layer-1 signs from the "lower_signs" substream; a
    # shifted substream gives other signs and the same bytes
    p = {h: 0.3 if two_layer.layer[h] == 1 else 0.5 for h in two_layer.hidden}
    pi = BernoulliParams.make(p)
    cb = lg.build_codebooks(two_layer, RateTuple.make([(0.8, 0.8)], 4), pi, 11)
    signs = {}

    class Recording:
        def __init__(self, rng, shift):
            self.rng, self.shift = rng, shift

        def random(self, shape):
            draws = self.rng.random(shape)
            signs[self.shift] = np.where(draws < 0.3, 1.0, -1.0)
            return draws

    def lower_signs_shifted_by(shift):
        def rng(seed, name, *index):
            if name != "lower_signs":
                return real(seed, name, *index)
            return Recording(real(seed + shift, name, *index), shift)
        return rng

    real = synthesis._rng
    x = {}
    for shift in (0, 1):
        monkeypatch.setattr(synthesis, "_rng", lower_signs_shifted_by(shift))
        x[shift] = lg.synthesize(two_layer, cb, 3000, 3)
    assert signs[0].shape == (3000, 4, len(two_layer.layer_nodes(1)))
    assert not np.array_equal(signs[0], signs[1])
    assert np.array_equal(x[0], x[1])


def test_the_benchmark_reads_the_one_pair_and_the_one_table(monkeypatch):
    # bench/workloads.py reads the codebook sizes and the rates through its
    # own accessors, so renaming what it reads fails here, not in a
    # benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    rates = RateTuple.make([(0.01, 0.01)], 8)
    out = workloads.SoftCovering(1)._divergence("below", lambda: rates, 300)
    assert not isinstance(out, workloads.Failed)
    sizes, pairs, block_length, _, _ = out
    assert sizes == [rates.codeword_counts()]
    assert pairs == [[rates.gaussian_rate, rates.sign_rate]]
    assert block_length == 8
