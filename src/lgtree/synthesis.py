"""Layered random-codebook synthesis of the observed Gaussian vector.

Per layer, a codebook holds Bernoulli sign codewords (one +/-1 symbol per
hidden node per channel use) and Gaussian codewords.  A Gaussian codeword
exists per (gaussian index, sign index) pair: at each channel use its
symbol follows the Gaussian law fixed by the sign codeword's realisation
there, so for every fixed sign codeword the Gaussian sub-codebook is an
i.i.d. sample of the conditional input law.  Pair codewords are never
stored.  Their white noise comes from a counter-based stream (Philox4x64-10)
keyed by (seed, layer) and counted by (pair, block), so any set of pairs
regenerates in one vectorised call with the same values as one pair at a
time, and desk-scale codebooks stay within memory.  A symbol with sign
realisation b is coloured by D L D, where L is the Cholesky factor of the
layer covariance and D = diag(b b_1) the canonical pattern (b up to a global
flip); D L D is the Cholesky factor of D Sigma D.  Sub-blocks are keyed by
that pattern, and their sizes follow the empirical sign-codeword
realisations.

Emission walks the layers top-down: the deepest layer is read from its
codebook, every lower layer is the sign-modulated regression of the layer
above plus fresh Gaussian innovation noise, and the observed vector is the
final regression step.  These regressions (observed | layer 1, layer 1 |
layer 2, ...) are built once per tree and also give the codeword colouring
and the per-layer rate bounds.  Flipping a middle layer's signs flips both its
incoming and outgoing edge groups, so only the deepest layer's codewords
shape the emitted law; lower sign codebooks are still drawn, sized, and
checked, as the scheme prescribes.

The synthesized block density q is a finite, exactly evaluable Gaussian
mixture over codeword pairs, which gives a direct Monte Carlo estimate of
KL(q || product of targets) and, through Pinsker's inequality, an upper
bound on total variation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import ndtri

from .errors import CapExceeded, MixtureTooLarge, ValidationError
from .info import BernoulliParams, _BlockModel, _Gauss, _block, _chol, _rng, block_mi_mixture
from .trees import GaussianTree, joint_covariance

CODEBOOK_CAP = 2**16       # per-table codeword count cap
MIXTURE_CAP = 2**14        # cap on exactly evaluated mixture components
PATTERN_CAP = 2**12        # cap on per-layer covariance sign patterns
CODEWORD_ROWS = 2**12      # pair codewords generated per slice
LOG_FLOAT_MAX = math.log(np.finfo(float).max)  # largest N R with a finite exp(N R)


@dataclass(frozen=True)
class RateTuple:
    """Per-layer (gaussian_rate, sign_rate) in nats per channel use, plus the
    block length.  Codebook sizes are ceil(exp(N * R)), so N * R may not
    exceed the log of the largest float."""

    layers: tuple[tuple[float, float], ...]
    block_length: int

    @staticmethod
    def make(layers, block_length: int) -> "RateTuple":
        layers = tuple((float(ry), float(rb)) for ry, rb in layers)
        if block_length < 1:
            raise ValidationError("block length must be a positive integer")
        for rate in itertools.chain.from_iterable(layers):
            if not 0.0 <= rate * block_length <= LOG_FLOAT_MAX:
                raise ValidationError(
                    f"rate {rate} must be non-negative with N R at most {LOG_FLOAT_MAX:.2f}"
                )
        return RateTuple(layers, int(block_length))

    def codeword_counts(self) -> list[tuple[int, int]]:
        out = []
        for ry, rb in self.layers:
            my = math.ceil(math.exp(self.block_length * ry))
            mb = math.ceil(math.exp(self.block_length * rb))
            out.append((my, mb))
        return out


PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)   # round multipliers
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)   # key increments per round
_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products of a constant m and x."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    mid_a, mid_b = m_lo * x_hi, m_hi * x_lo
    carry = ((m_lo * x_lo) >> _SHIFT32) + (mid_a & _LOW32) + (mid_b & _LOW32)
    hi = m_hi * x_hi + (mid_a >> _SHIFT32) + (mid_b >> _SHIFT32) + (carry >> _SHIFT32)
    return hi, np.uint64(m) * x


def philox4x64(counter, key) -> tuple[np.ndarray, ...]:
    """Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1,
    2, 3", SC'11) over arrays of counters.

    ``counter`` holds four same-shape uint64 arrays, word 0 the lowest, and
    ``key`` two 64-bit words; returns the four output words.  This is the
    block that ``numpy.random.Philox(key=key, counter=c)`` yields first for
    c = counter - 1, since numpy increments the counter before each block."""
    c0, c1, c2, c3 = (np.asarray(c, dtype=np.uint64) for c in counter)
    k0, k1 = int(key[0]), int(key[1])
    for rnd in range(10):
        if rnd:
            k0, k1 = (k0 + PHILOX_W[0]) % 2**64, (k1 + PHILOX_W[1]) % 2**64
        hi0, lo0 = _mulhilo(PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
    return c0, c1, c2, c3


@dataclass(frozen=True)
class LayerCodebook:
    depth: int
    nodes: tuple[str, ...]
    seed: int
    gauss_count: int           # number of Gaussian codewords per sign codeword
    signs: np.ndarray          # (M_B, N, k) +/-1 sign codewords
    pattern_codes: np.ndarray  # (M_B, N) canonical pattern index per sign symbol
    chol: np.ndarray           # (k, k) Cholesky factor L of the layer covariance

    @property
    def sign_count(self) -> int:
        return len(self.signs)

    @property
    def sub_block_count(self) -> int:
        return 2 ** max(len(self.nodes) - 1, 0)

    def realized_sub_block_sizes(self) -> list[int]:
        counts = np.bincount(self.pattern_codes.ravel(), minlength=self.sub_block_count)
        return [int(c) for c in counts]

    def white_noise(self, gauss_index, sign_index) -> np.ndarray:
        """The (..., N, k) white-noise sources behind the pair codewords of
        broadcast index arrays; a scalar pair gives one (N, k) source.

        Pair (g, s) reads Philox4x64-10 keyed by (seed, layer) at counters
        (j, g M_B + s, 0, 0) for blocks j = 0, 1, ...; each output word w
        becomes the uniform ((w >> 11) + 1/2) 2^-53 and then a normal through
        ndtri.  A pair's noise is a pure function of its indices, so one pair
        and a batch holding it give the same values."""
        g, s = self._pairs(gauss_index, sign_index)
        n_uses, k = self.signs.shape[1:]
        size = n_uses * k
        blocks = -(-size // 4)
        pair = g.astype(np.uint64).ravel() * np.uint64(self.sign_count) + s.astype(np.uint64).ravel()
        shape = (pair.size, blocks)
        zero = np.zeros(shape, dtype=np.uint64)
        counter = (np.broadcast_to(np.arange(blocks, dtype=np.uint64), shape),
                   np.broadcast_to(pair[:, None], shape), zero, zero)
        key = np.random.SeedSequence((self.seed, 13, self.depth)).generate_state(2, np.uint64)
        words = np.stack(philox4x64(counter, key), axis=-1).reshape(pair.size, 4 * blocks)
        uniform = ((words[:, :size] >> np.uint64(11)) + 0.5) * 2.0**-53
        return ndtri(uniform).reshape(g.shape + (n_uses, k))

    def gaussian_codeword(self, gauss_index, sign_index) -> np.ndarray:
        """Pair codewords (..., N, k) for broadcast index arrays; a scalar
        pair gives one (N, k) codeword.  At each channel use the white noise
        is coloured by D L D, the Cholesky factor of D Sigma D, where D is
        the sign codeword's canonical pattern there (its realisation times
        its first entry) and L the Cholesky factor of the layer covariance
        Sigma.  Evaluated CODEWORD_ROWS pairs at a time, so transient memory
        does not grow with the number of pairs."""
        g, s = self._pairs(gauss_index, sign_index)
        shape = self.signs.shape[1:]
        out = np.empty(g.shape + shape)
        g, s, rows = g.ravel(), s.ravel(), out.reshape((-1,) + shape)
        for lo in range(0, len(rows), CODEWORD_ROWS):
            sl = slice(lo, lo + CODEWORD_ROWS)
            signs = self.signs[s[sl]]
            canon = signs * signs[..., :1]
            w = self.white_noise(g[sl], s[sl])
            rows[sl] = canon * np.einsum("ij,rtj->rti", self.chol, canon * w)
        return out

    def _pairs(self, gauss_index, sign_index) -> tuple[np.ndarray, ...]:
        """Both pair indices, range-checked and broadcast together."""
        checked = []
        for index, count, what in ((gauss_index, self.gauss_count, "gaussian"),
                                   (sign_index, self.sign_count, "sign")):
            idx = np.asarray(index)
            if idx.dtype.kind not in "iu":
                raise ValidationError(f"{what} index must be an integer, got {idx.dtype}")
            bad = idx[(idx < 0) | (idx >= count)]
            if bad.size:
                raise ValidationError(f"{what} index {bad.flat[0]} out of range [0, {count})")
            checked.append(idx)
        return np.broadcast_arrays(*checked)


@dataclass(frozen=True)
class Codebook:
    rates: RateTuple
    pi: BernoulliParams
    seed: int
    layers: tuple[LayerCodebook, ...]   # depth 1 .. L

    def layer(self, depth: int) -> LayerCodebook:
        return self.layers[depth - 1]


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    passed: bool
    observed: float
    threshold: float
    detail: str


@dataclass(frozen=True)
class SynthesisReport:
    rates: RateTuple
    pi: dict[str, float]
    seed: int
    samples: int
    kl_estimate: float
    kl_std_error: float
    tv_upper_bound: float
    tv_threshold: float
    empirical_cov_error: float
    independence_stat: float
    independence_se: float
    bound_check: tuple[dict, ...]
    sub_blocks: tuple[dict, ...]
    batch_plan: str = "single-stream vectorised; substreams per (seed, purpose)"

    def as_dict(self) -> dict:
        return {
            "rates": {
                "layers": [list(l) for l in self.rates.layers],
                "block_length": self.rates.block_length,
            },
            "pi": dict(self.pi),
            "seed": self.seed,
            "samples": self.samples,
            "kl_estimate": self.kl_estimate,
            "kl_std_error": self.kl_std_error,
            "tv_upper_bound": self.tv_upper_bound,
            "tv_threshold": self.tv_threshold,
            "empirical_cov_error": self.empirical_cov_error,
            "independence_stat": self.independence_stat,
            "independence_se": self.independence_se,
            "bound_check": [dict(b) for b in self.bound_check],
            "sub_blocks": [dict(s) for s in self.sub_blocks],
            "batch_plan": self.batch_plan,
        }


# -- codebook construction ---------------------------------------------------

def _pattern_codes(signs: np.ndarray) -> np.ndarray:
    """Index of the canonical pattern (sign vector modulo global flip)."""
    canon = signs * signs[..., :1]
    k = signs.shape[-1]
    if k <= 1:
        return np.zeros(signs.shape[:-1], dtype=np.int64)
    bits = (canon[..., 1:] < 0).astype(np.int64)
    weights = 2 ** np.arange(k - 1, dtype=np.int64)[::-1]
    return bits @ weights


def _layer_blocks(tree: GaussianTree) -> list[_BlockModel]:
    """The regression of each layer's targets on the layer, from the bottom:
    observed | layer 1, layer 1 | layer 2, ..., layer L-1 | layer L."""
    below = [tree.observed] + [tree.layer_nodes(d) for d in range(1, tree.num_layers)]
    return [_block(tree, t, tree.layer_nodes(d)) for d, t in enumerate(below, start=1)]


def build_codebooks(
    tree: GaussianTree, rates: RateTuple, pi: BernoulliParams, seed: int
) -> Codebook:
    """Draw the per-layer sign codeword tables and pin the Gaussian pair
    ensembles.  Deterministic given the seed: each layer draws its sign
    codewords from its own substream, and the white noise of pair codeword
    (g, s) is block j of a Philox4x64-10 stream keyed by (seed, layer) at
    counter (j, g M_B + s, 0, 0); see :meth:`LayerCodebook.white_noise`.
    Raises CapExceeded when a table would exceed 2^16 codewords.
    """
    depth_count = tree.num_layers
    if depth_count == 0:
        raise ValidationError("tree has no hidden nodes; nothing to synthesize")
    if len(rates.layers) != depth_count:
        raise ValidationError(
            f"rates cover {len(rates.layers)} layers but the tree has {depth_count}"
        )
    n_uses = rates.block_length
    counts = rates.codeword_counts()
    layers = []
    for depth, block in enumerate(_layer_blocks(tree), start=1):
        nodes = block.sources
        k = len(nodes)
        my, mb = counts[depth - 1]
        if my > CODEBOOK_CAP or mb > CODEBOOK_CAP:
            raise CapExceeded(
                f"layer {depth} codebook sizes ({my}, {mb}) exceed the cap {CODEBOOK_CAP}"
            )
        p = pi.vector_for(nodes)
        if 2 ** (k - 1) > PATTERN_CAP:
            raise CapExceeded(f"layer with {k} nodes needs too many covariance patterns")
        sign_rng = _rng(seed, 11, depth)
        signs = np.where(sign_rng.random((mb, n_uses, k)) < p, 1.0, -1.0)
        layers.append(
            LayerCodebook(
                depth=depth,
                nodes=nodes,
                seed=int(seed),
                gauss_count=my,
                signs=signs,
                pattern_codes=_pattern_codes(signs),
                chol=block.marg_s.chol,
            )
        )
    return Codebook(rates=rates, pi=pi, seed=int(seed), layers=tuple(layers))


# -- emission ----------------------------------------------------------------

def synthesize(
    tree: GaussianTree,
    codebook: Codebook,
    runs: int,
    seed: int,
    noise: bool = True,
    return_internals: bool = False,
):
    """Emit ``runs`` observed blocks of shape (N, n).

    Every run draws one Gaussian pair index from the deepest layer and one
    sign codeword index per layer, all uniform, then walks the layers down
    with fresh innovation noise per run and channel use.
    """
    if runs < 1:
        raise ValidationError("runs must be >= 1")
    depth_count = tree.num_layers
    idx_rng = _rng(seed, 21)
    noise_rng = _rng(seed, 22)

    top = codebook.layer(depth_count)
    gauss_index = idx_rng.integers(0, top.gauss_count, size=runs)
    sign_index = {
        d: idx_rng.integers(0, codebook.layer(d).sign_count, size=runs)
        for d in range(1, depth_count + 1)
    }

    y = top.gaussian_codeword(gauss_index, sign_index[depth_count])
    cur_b = top.signs[sign_index[depth_count]]
    internals = {"gauss_index": gauss_index, "sign_index": sign_index,
                 "y": {depth_count: y}, "b": {depth_count: cur_b}}

    blocks = _layer_blocks(tree)
    for depth in range(depth_count - 1, 0, -1):
        mean = np.einsum("ij,rtj->rti", blocks[depth].gain, cur_b * y)
        if noise:
            mean = mean + noise_rng.standard_normal(mean.shape) @ blocks[depth].noise.chol.T
        cur_b = codebook.layer(depth).signs[sign_index[depth]]
        y = cur_b * mean
        internals["y"][depth] = y
        internals["b"][depth] = cur_b

    x = np.einsum("ij,rtj->rti", blocks[0].gain, cur_b * y)
    if noise:
        x = x + noise_rng.standard_normal(x.shape) @ blocks[0].noise.chol.T

    if return_internals:
        return x, internals
    return x


# -- divergence estimation ----------------------------------------------------

def _mixture_components(tree: GaussianTree, codebook: Codebook):
    """Means and shared covariance of the emitted-block mixture.

    Sign codewords below the deepest layer flip both edge groups incident to
    their layer and cancel from the emitted law, so the mixture collapses to
    the deepest layer's (gaussian, sign) codeword pairs.
    """
    depth_count = tree.num_layers
    top = codebook.layer(depth_count)
    my, mb = top.gauss_count, top.sign_count
    if my * mb > MIXTURE_CAP:
        raise MixtureTooLarge(
            f"{my} x {mb} mixture components exceed the cap {MIXTURE_CAP}"
        )
    # accumulate covariance and mean chain from the observed side upwards
    blocks = _layer_blocks(tree)
    chain, cov = blocks[0].gain, blocks[0].noise.cov
    for model in blocks[1:]:
        cov = cov + chain @ model.noise.cov @ chain.T
        chain = chain @ model.gain

    y = top.gaussian_codeword(np.arange(my)[:, None], np.arange(mb))  # (M_Y, M_B, N, k)
    means = np.einsum("ij,gstj->gsti", chain, top.signs * y)
    return means.reshape((my * mb,) + means.shape[2:]), cov     # (C, N, n)


def _block_log_density(x: np.ndarray, means: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """log q for each sample block in x: (S, N, n) against (C, N, n) means."""
    chol = _chol(cov, "component covariance")
    inv_chol = solve_triangular(chol, np.eye(len(cov)), lower=True, check_finite=False)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    n_dim = cov.shape[0]
    n_uses = x.shape[1]
    comp_count = means.shape[0]
    const = -0.5 * n_uses * (logdet + n_dim * math.log(2.0 * math.pi))

    xw = x @ inv_chol.T                                          # (S, N, n)
    mw = means @ inv_chol.T                                      # (C, N, n)
    m_flat = mw.reshape(comp_count, -1)
    m_sq = np.einsum("ij,ij->i", m_flat, m_flat)

    out = np.empty(len(x))
    batch = max(1, int(2**20 // max(comp_count, 1)))
    for start in range(0, len(x), batch):
        xb = xw[start:start + batch].reshape(len(xw[start:start + batch]), -1)
        x_sq = np.einsum("ij,ij->i", xb, xb)
        quad = x_sq[:, None] - 2.0 * xb @ m_flat.T + m_sq[None, :]
        logcomp = -0.5 * quad + const
        mx = logcomp.max(axis=1)
        out[start:start + batch] = mx + np.log(
            np.exp(logcomp - mx[:, None]).sum(axis=1)
        ) - math.log(comp_count)
    return out


def _gaussian_label_mi(z: np.ndarray, labels: np.ndarray) -> float:
    """Gaussian plug-in MI between rows of z and a discrete label."""
    mu = z.mean(axis=0)
    cov = np.cov(z.T, bias=True) + 1e-12 * np.eye(z.shape[1])
    prec = np.linalg.inv(cov)
    _, logdet = np.linalg.slogdet(cov)
    total = 0.0
    for v in np.unique(labels):
        sel = z[labels == v]
        w = len(sel) / len(z)
        if len(sel) < z.shape[1] + 2:
            continue
        mu_v = sel.mean(axis=0) - mu
        cov_v = np.cov(sel.T, bias=True) + 1e-12 * np.eye(z.shape[1])
        _, logdet_v = np.linalg.slogdet(cov_v)
        kl = 0.5 * (
            np.trace(prec @ cov_v) + mu_v @ prec @ mu_v - z.shape[1] + logdet - logdet_v
        )
        total += w * kl
    return float(total)


def _independence_stat(x: np.ndarray, b1: np.ndarray, rng) -> tuple[float, float]:
    """Per-symbol independence statistic between emitted symbols and the
    layer-1 sign symbols, calibrated against a permutation null."""
    s, n_uses, n_dim = x.shape
    z = x.reshape(s * n_uses, n_dim)
    k1 = b1.shape[-1]
    bits = (b1.reshape(s * n_uses, k1) < 0).astype(np.int64)
    labels = bits @ (2 ** np.arange(k1, dtype=np.int64))
    stat = _gaussian_label_mi(z, labels)
    perms = 16
    null = np.empty(perms)
    for i in range(perms):
        null[i] = _gaussian_label_mi(z, rng.permutation(labels))
    return stat - float(null.mean()), float(null.std(ddof=1))


def rate_region_check(
    tree: GaussianTree,
    rates: RateTuple,
    pi: BernoulliParams,
    samples: int = 20000,
    seed: int = 0,
) -> list[dict]:
    """Signed margins of the per-layer achievability inequalities.

    Layer 1 compares against the MI between the observed block and the
    layer-1 inputs; deeper layers compare against the MI between consecutive
    hidden layers, conditioned on the shallower signs.  The Gaussian-rate
    margin uses the mixture MI (Monte Carlo); the sum-rate margin uses the
    fixed Gaussian MI.
    """
    depth_count = tree.num_layers
    if len(rates.layers) != depth_count:
        raise ValidationError(
            f"rates cover {len(rates.layers)} layers but the tree has {depth_count}"
        )
    out = []
    for depth, block in enumerate(_layer_blocks(tree), start=1):
        profile = block_mi_mixture(
            tree, block.targets, block.sources, pi, samples, _point_seed(seed, depth)
        )
        mix = profile["inputs"]
        ry, rb = rates.layers[depth - 1]
        fixed = block.gaussian_mi()
        out.append({
            "layer": depth,
            "gaussian_rate": ry,
            "sign_rate": rb,
            "gaussian_mi": mix.value,
            "gaussian_mi_se": mix.std_error,
            "total_mi": fixed,
            "gaussian_rate_margin": ry - mix.value,
            "sum_rate_margin": ry + rb - fixed,
        })
    return out


def _family_z(comparisons: int) -> float:
    """z threshold giving a 3-sigma family-wise level over many comparisons."""
    alpha = 0.0026997960632601866  # two-sided mass beyond 3 sigma
    return float(ndtri(1.0 - alpha / (2 * comparisons)))


def _point_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence((int(seed), 31, tag)).generate_state(1)[0])


def frontier_rates(
    tree: GaussianTree,
    pi: BernoulliParams,
    margin: float,
    block_length: int,
    samples: int = 100000,
    seed: int = 0,
) -> RateTuple:
    """Rates sitting ``margin`` nats above the per-layer frontier.

    The frontier is :func:`rate_region_check` at zero rates, so checking the
    returned rates with matching (pi, samples, seed) reports margins of
    exactly ``margin``.
    """
    if not math.isfinite(margin):
        raise ValidationError(f"margin must be a finite number, got {margin}")
    zero = RateTuple.make([(0.0, 0.0)] * tree.num_layers, block_length)
    layers = []
    for bound in rate_region_check(tree, zero, pi, samples, seed):
        mix, fixed = bound["gaussian_mi"], bound["total_mi"]
        layers.append((max(mix, 0.0) + margin, max(fixed - mix, 0.0) + margin))
    return RateTuple.make(layers, block_length)


def estimate_divergence(
    tree: GaussianTree,
    codebook: Codebook,
    samples_count: int,
    seed: int,
    tv_threshold: float = 0.5,
    rate_margin_samples: int = 20000,
) -> SynthesisReport:
    """Sample the synthesized channel and compare against the target.

    KL(q || product target) is estimated by averaging the exact log-density
    ratio over draws from q; the total-variation bound is Pinsker's.  Also
    reports the Frobenius error of the pooled empirical covariance, the
    per-symbol sign-independence statistic, and the rate margins.
    """
    if not math.isfinite(tv_threshold):
        raise ValidationError(f"tv_threshold must be a finite number, got {tv_threshold}")
    x, internals = synthesize(
        tree, codebook, samples_count, _point_seed(seed, 1), return_internals=True
    )
    means, cov = _mixture_components(tree, codebook)
    log_q = _block_log_density(x, means, cov)

    sigma_x = np.asarray(joint_covariance(tree).observed_block)
    target = _Gauss(sigma_x, "target covariance")
    flat = x.reshape(-1, x.shape[-1])
    log_p = target.logpdf(flat).reshape(x.shape[0], x.shape[1]).sum(axis=1)

    kl_values = log_q - log_p
    kl = float(kl_values.mean())
    kl_se = float(kl_values.std(ddof=1) / math.sqrt(len(kl_values)))

    second_moment = flat.T @ flat / len(flat)
    cov_err = float(np.linalg.norm(second_moment - sigma_x, ord="fro"))

    stat, stat_se = _independence_stat(x, internals["b"][1], _rng(seed, 41))

    bounds = rate_region_check(
        tree, codebook.rates, codebook.pi,
        samples=rate_margin_samples, seed=_point_seed(seed, 2),
    )
    sub_blocks = tuple(
        {
            "layer": layer.depth,
            "pattern_count": layer.sub_block_count,
            "realized_sizes": layer.realized_sub_block_sizes(),
            "sizing": "empirical sign-codeword realisations",
        }
        for layer in codebook.layers
    )
    return SynthesisReport(
        rates=codebook.rates,
        pi=codebook.pi.as_dict(),
        seed=int(seed),
        samples=int(samples_count),
        kl_estimate=kl,
        kl_std_error=kl_se,
        tv_upper_bound=float(math.sqrt(max(kl, 0.0) / 2.0)),
        tv_threshold=float(tv_threshold),
        empirical_cov_error=cov_err,
        independence_stat=float(stat),
        independence_se=float(stat_se),
        bound_check=tuple(bounds),
        sub_blocks=sub_blocks,
    )


def verify_encoding_constraints(
    tree: GaussianTree,
    codebook: Codebook,
    report: SynthesisReport,
    runs: int = 2000,
    seed: int = 977,
) -> list[ConstraintCheck]:
    """Checklist of the six encoding-scheme constraints.

    1. outputs conditionally independent given the layer-1 inputs and signs
       (whitened residual correlations vanish);
    2. emitted blocks independent of the sign inputs (report statistic);
    3. symbols i.i.d. across channel uses (lag-1 cross-covariance vanishes);
    4. Gaussian codebook cardinality matches ceil(exp(N R_Y)) per layer;
    5. sign codebook cardinality matches ceil(exp(N R_B)) per layer;
    6. the total-variation upper bound meets the configured threshold.
    """
    checks: list[ConstraintCheck] = []
    x, internals = synthesize(
        tree, codebook, runs, _point_seed(seed, 3), return_internals=True
    )
    obs_model = _layer_blocks(tree)[0]
    resid = x - np.einsum(
        "ij,rtj->rti", obs_model.gain, internals["b"][1] * internals["y"][1]
    )
    flat = resid.reshape(-1, resid.shape[-1])
    white = solve_triangular(obs_model.noise.chol, flat.T, lower=True, check_finite=False).T
    m = len(white)
    corr = np.corrcoef(white.T)
    off = corr[np.triu_indices_from(corr, k=1)]
    z_max = float(np.max(np.abs(off)) * math.sqrt(m)) if off.size else 0.0
    thr = _family_z(max(off.size, 1))
    checks.append(ConstraintCheck(
        name="conditional_independence_given_inputs",
        passed=z_max <= thr,
        observed=z_max,
        threshold=thr,
        detail="max |z| of whitened residual correlations, family-adjusted 3-sigma level",
    ))

    se = report.independence_se
    ok = abs(report.independence_stat) <= 3.0 * se if se > 0 else report.independence_stat == 0.0
    checks.append(ConstraintCheck(
        name="output_independent_of_signs",
        passed=bool(ok),
        observed=report.independence_stat,
        threshold=3.0 * se,
        detail="per-symbol Gaussian MI statistic vs permutation null",
    ))

    n_uses = x.shape[1]
    n_dim = x.shape[-1]
    if n_uses >= 2:
        # average lag-1 products within each run first; runs that drew the
        # same top-layer pair share its codeword, so the standard error is
        # cluster-robust over those pairs rather than over runs
        prods = np.einsum("rti,rtj->rij", x[:, :-1, :], x[:, 1:, :]) / (n_uses - 1)
        mean = prods.mean(axis=0)
        top = codebook.layer(tree.num_layers)
        pair = internals["gauss_index"] * top.sign_count + internals["sign_index"][tree.num_layers]
        clusters, cluster = np.unique(pair, return_inverse=True)
        groups = len(clusters)
        dev = np.zeros((groups,) + mean.shape)
        np.add.at(dev, cluster, prods - mean)
        var = np.einsum("gij,gij->ij", dev, dev) * groups / max(groups - 1, 1)
        se_mat = np.sqrt(var) / len(prods)
        z_lag = float(np.max(np.abs(mean) / np.maximum(se_mat, 1e-300)))
    else:
        z_lag = 0.0
    thr_lag = _family_z(n_dim * n_dim)
    checks.append(ConstraintCheck(
        name="iid_across_channel_uses",
        passed=z_lag <= thr_lag,
        observed=z_lag,
        threshold=thr_lag,
        detail="max |z| of lag-1 symbol cross-covariance, family-adjusted 3-sigma level"
        + ("" if n_uses >= 2 else " (single symbol per block)"),
    ))

    counts = codebook.rates.codeword_counts()
    depths = range(1, tree.num_layers + 1)
    worst_gauss = max(abs(codebook.layer(d).gauss_count - counts[d - 1][0]) for d in depths)
    checks.append(ConstraintCheck(
        name="gaussian_codebook_cardinality",
        passed=worst_gauss == 0,
        observed=float(worst_gauss),
        threshold=0.0,
        detail="max |codeword count - ceil(exp(N R_Y))| over layers",
    ))
    worst_sign = max(abs(codebook.layer(d).sign_count - counts[d - 1][1]) for d in depths)
    checks.append(ConstraintCheck(
        name="sign_codebook_cardinality",
        passed=worst_sign == 0,
        observed=float(worst_sign),
        threshold=0.0,
        detail="max |codeword count - ceil(exp(N R_B))| over layers",
    ))

    checks.append(ConstraintCheck(
        name="tv_bound_within_threshold",
        passed=report.tv_upper_bound <= report.tv_threshold,
        observed=report.tv_upper_bound,
        threshold=report.tv_threshold,
        detail="Pinsker bound sqrt(max(KL, 0) / 2)",
    ))
    return checks
