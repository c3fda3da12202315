"""Layered random-codebook synthesis of the observed Gaussian vector.

The top (deepest) layer's codebook holds Bernoulli sign codewords (one +/-1
symbol per top-layer node per channel use) and Gaussian codewords.  A
Gaussian codeword exists per (gaussian index, sign index) pair: at each
channel use its symbol follows the Gaussian law fixed by the sign codeword's
realisation there, so for every fixed sign codeword the Gaussian sub-codebook
is an i.i.d. sample of the conditional input law.  Pair codewords are never
stored.  Their white noise comes from a counter-based stream (Philox4x64-10)
keyed by the top layer's "codeword_noise" substream and counted by (pair,
block), so any set of pairs regenerates in one vectorised call with the
same values as one pair at a time, and desk-scale codebooks stay within
memory.  A call regenerates each distinct pair once and gathers its
repeats, so emission pays for the pairs drawn, not for the runs, and adds
each layer's innovation noise to its output in place.  Every seeded draw
here takes a named substream of the caller's seed from the one table in
``info.STREAMS``.  A symbol with sign realisation b is coloured by D L D,
where L is the Cholesky factor of the layer covariance and D = diag(b b_1)
the canonical pattern (b up to a global flip); D L D is the Cholesky factor
of D Sigma D.  Sub-blocks are keyed by that pattern, and their sizes follow
the empirical sign-codeword realisations.

Emission walks the layers top-down: the deepest layer is read from its
codebook, every lower layer is the sign-modulated regression of the layer
above plus fresh Gaussian innovation noise, and the observed vector is the
final regression step.  Flipping every edge at a hidden node is a
sign-equivalence: a lower layer's sign multiplies the layer on its way in
and again on its way out, and b^2 = 1 cancels it.  Only the top layer's
codebook shapes the emitted law, so it is the only one built, and its
(R_Y, R_B) pair is the only rate the scheme takes; lower-layer signs and
Gaussians are local randomness drawn afresh at emission, which costs no
rate.  Every lower layer thus belongs to the coded channel p(x | top-layer
inputs), the regression of the observed block on the top layer
(:func:`_channel`).  That one regression, built once per tree, gives the
codeword colouring, the block density, the target law, the rate bounds and
the frontier.

The synthesized block density q is a finite, exactly evaluable Gaussian
mixture over codeword pairs, which gives a direct Monte Carlo estimate of
KL(q || product of targets) and, through Pinsker's inequality, an upper
bound on total variation.  Its components share the channel's noise
covariance S_c = L L^T and have means G y, where G is the channel's gain
and y a pair's signed top-layer symbols.  Whitened by L, every mean lies in
the span of the channel's signal basis Q, the reduced-QR basis of L^-1 G
with r = min(n, k_top) columns per channel use, read off the structure.  So
log N(x; m) = -|x_p - m_p|^2/2 - (|x_w|^2 - |x_p|^2)/2 + const with
x_w = L^-1 x, x_p = Q^T x_w and m_p = Q^T L^-1 m, and q is evaluated on the
N r projected coordinates: r = 1 on star, lowcorr and two_layer (44 -> 4
coordinates at N = 4), 2 on dumbbell.  The target density log p is
evaluated in the full space.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import CapExceeded, MixtureTooLarge, ValidationError
from .info import BernoulliParams, _BlockModel, _block, _rng, _seed, _stream, block_mi_mixture
from .trees import GaussianTree, joint_covariance  # noqa: F401 (bench's tracer test asserts it)

CODEBOOK_CAP = 2**16       # per-table codeword count cap
MIXTURE_CAP = 2**14        # cap on exactly evaluated mixture components
PATTERN_CAP = 2**12        # cap on the top layer's covariance sign patterns
CODEWORD_ROWS = 2**12      # pair codewords generated per slice
# (sample, component) cells per log-density slab: 1 MiB of float64, so the
# slab stays in a core's 2 MiB L2 between its GEMM, exp and sum.  On the
# star divergence estimates at N = 1 to 8 (one BLAS thread, Xeon with AVX-512)
# the evaluations took 158 ms at 2^17 cells, 208 ms at 2^20 and 268 ms at 2^14.
SLAB_CELLS = 2**17
UNDERFLOW_LOG = -700.0     # a row's log-sum below this is recomputed with a max shift
GEMM_COLUMNS = 16          # log-density components are padded to a multiple of this
LOG_FLOAT_MAX = math.log(np.finfo(float).max)  # largest N R with a finite exp(N R)
THREE_SIGMA_MASS = 0.0026997960632601866       # two-sided normal mass beyond 3 sigma


@dataclass(frozen=True)
class RateTuple:
    """The top layer's Gaussian and sign rates R_Y and R_B, in nats per
    channel use, and the block length N.  Only the top layer is coded, so no
    other layer takes a rate.  Codebook sizes are ceil(exp(N * R)), so N * R
    may not exceed the log of the largest float."""

    gaussian_rate: float
    sign_rate: float
    block_length: int

    @staticmethod
    def make(pairs, block_length: int) -> "RateTuple":
        """The rates from ``pairs``, which must hold exactly one (R_Y, R_B)
        pair: the top layer's."""
        try:
            pairs = tuple((float(ry), float(rb)) for ry, rb in pairs)
        except (TypeError, ValueError):
            raise ValidationError(
                f"rates must be (R_Y, R_B) pairs of numbers, got {pairs!r}"
            ) from None
        if len(pairs) != 1:
            raise ValidationError(
                f"rates must be one (R_Y, R_B) pair, the top layer's, got {len(pairs)} pairs"
            )
        if (not isinstance(block_length, numbers.Integral) or isinstance(block_length, bool)
                or block_length < 1):
            raise ValidationError(f"block length must be a positive integer, got {block_length!r}")
        for rate in pairs[0]:
            if not 0.0 <= rate * block_length <= LOG_FLOAT_MAX:
                raise ValidationError(
                    f"rate {rate} must be non-negative with N R at most {LOG_FLOAT_MAX:.2f}"
                )
        return RateTuple(*pairs[0], int(block_length))

    @property
    def layers(self) -> tuple[tuple[float, float]]:
        """The pair as a one-element tuple.  Its only reader is
        ``bench/workloads.py``; remove it when the benchmark may change."""
        return ((self.gaussian_rate, self.sign_rate),)

    def codeword_counts(self) -> tuple[int, int]:
        """(M_Y, M_B) = (ceil(exp(N R_Y)), ceil(exp(N R_B)))."""
        n = self.block_length
        return math.ceil(math.exp(n * self.gaussian_rate)), math.ceil(math.exp(n * self.sign_rate))


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


# Wichura's AS241 ("The percentage points of the normal distribution",
# Applied Statistics 37(3), 1988), with the coefficients of the stdlib's
# statistics.NormalDist.inv_cdf; each polynomial lists its highest power first.
_AS241_CENTRAL = (
    (2.50908_09287_30122_6727e+3, 3.34305_75583_58812_8105e+4, 6.72657_70927_00870_0853e+4,
     4.59219_53931_54987_1457e+4, 1.37316_93765_50946_1125e+4, 1.97159_09503_06551_4427e+3,
     1.33141_66789_17843_7745e+2, 3.38713_28727_96366_6080e+0),
    (5.22649_52788_52854_5610e+3, 2.87290_85735_72194_2674e+4, 3.93078_95800_09271_0610e+4,
     2.12137_94301_58659_5867e+4, 5.39419_60214_24751_1077e+3, 6.87187_00749_20579_0830e+2,
     4.23133_30701_60091_1252e+1, 1.0),
)
_AS241_NEAR = (
    (7.74545_01427_83414_07640e-4, 2.27238_44989_26918_45833e-2, 2.41780_72517_74506_11770e-1,
     1.27045_82524_52368_38258e+0, 3.64784_83247_63204_60504e+0, 5.76949_72214_60691_40550e+0,
     4.63033_78461_56545_29590e+0, 1.42343_71107_49683_57734e+0),
    (1.05075_00716_44416_84324e-9, 5.47593_80849_95344_94600e-4, 1.51986_66563_61645_71966e-2,
     1.48103_97642_74800_74590e-1, 6.89767_33498_51000_04550e-1, 1.67638_48301_83803_84940e+0,
     2.05319_16266_37758_82187e+0, 1.0),
)
_AS241_FAR = (
    (2.01033_43992_92288_13265e-7, 2.71155_55687_43487_57815e-5, 1.24266_09473_88078_43860e-3,
     2.65321_89526_57612_30930e-2, 2.96560_57182_85048_91230e-1, 1.78482_65399_17291_33580e+0,
     5.46378_49111_64114_36990e+0, 6.65790_46435_01103_77720e+0),
    (2.04426_31033_89939_78564e-15, 1.42151_17583_16445_88870e-7, 1.84631_83175_10054_68180e-5,
     7.86869_13114_56132_59100e-4, 1.48753_61290_85061_48525e-2, 1.36929_88092_27358_05310e-1,
     5.99832_20655_58879_37690e-1, 1.0),
)


def _horner(coeffs, r: np.ndarray) -> np.ndarray:
    """The polynomial with ``coeffs`` (highest power first) at r, in a new
    array, in the stdlib's evaluation order."""
    acc = r * coeffs[0]
    acc += coeffs[1]
    for c in coeffs[2:]:
        acc *= r
        acc += c
    return acc


def _rational(coeffs, r: np.ndarray, scale=1.0) -> np.ndarray:
    """AS241's (numerator * scale) / denominator at r, in a new array."""
    num = _horner(coeffs[0], r)
    num *= scale
    num /= _horner(coeffs[1], r)
    return num


def _ndtri(q: np.ndarray) -> np.ndarray:
    """Standard normal quantiles of the probabilities 1/2 + q, flattened, for
    centred uniforms q in (-1/2, 1/2), by AS241.

    Taking q rather than the probability keeps the upper tail exact: its
    argument 1/2 - |q| is computed without rounding, and q and -q give exact
    negatives.  The central rational runs on every value; only the tail
    entries (|q| > 0.425) are then recomputed."""
    q = np.ravel(q)
    r = q * q
    np.subtract(0.180625, r, out=r)
    x = _rational(_AS241_CENTRAL, r, q)
    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size:
        qt = q[tail]
        t = np.sqrt(-np.log(0.5 - np.abs(qt)))
        far = np.flatnonzero(t > 5.0)
        tail_x = _rational(_AS241_NEAR, t - 1.6)
        if far.size:
            tail_x[far] = _rational(_AS241_FAR, t[far] - 5.0)
        x[tail] = np.copysign(tail_x, qt)
    return x


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

        Pair (g, s) reads Philox4x64-10 keyed by the first two 64-bit words
        of the layer's "codeword_noise" substream of the seed (``info.STREAMS``)
        at counters (j, g M_B + s, 0, 0) for blocks j = 0, 1, ...; each
        output word w becomes the centred uniform
        q = ((w >> 11) - 2^52 + 1/2) 2^-53, which is exact and lies strictly
        inside (-1/2, 1/2), and then the normal quantile of 1/2 + q (AS241,
        :func:`_ndtri`).  Every word gives a finite
        value, and words w and 2^64 - 1 - w give exact negatives.  A pair's
        noise is a pure function of its indices, so one pair and a batch
        holding it give the same values."""
        g, s = self._pairs(gauss_index, sign_index)
        n_uses, k = self.signs.shape[1:]
        size = n_uses * k
        blocks = -(-size // 4)
        pair = g.astype(np.uint64).ravel() * np.uint64(self.sign_count) + s.astype(np.uint64).ravel()
        shape = (pair.size, blocks)
        zero = np.zeros(shape, dtype=np.uint64)
        counter = (np.broadcast_to(np.arange(blocks, dtype=np.uint64), shape),
                   np.broadcast_to(pair[:, None], shape), zero, zero)
        key = _stream(self.seed, "codeword_noise", self.depth).generate_state(2, np.uint64)
        words = np.stack(philox4x64(counter, key), axis=-1).reshape(pair.size, 4 * blocks)
        centred = ((words[:, :size] >> np.uint64(11)).view(np.int64) - 2**52 + 0.5) * 2.0**-53
        return _ndtri(centred).reshape(g.shape + (n_uses, k))

    def gaussian_codeword(self, gauss_index, sign_index) -> np.ndarray:
        """Pair codewords (..., N, k) for broadcast index arrays; a scalar
        pair gives one (N, k) codeword.  At each channel use the white noise
        is coloured by D L D, the Cholesky factor of D Sigma D, where D is
        the sign codeword's canonical pattern there (its realisation times
        its first entry) and L the Cholesky factor of the layer covariance
        Sigma.  Each distinct pair of a call is regenerated once and its
        repeats are gathered from it, so a call costs the distinct pairs, not
        the requested ones; a pair's codeword is a pure function of its
        indices, so the values are those of one pair at a time."""
        g, s = self._pairs(gauss_index, sign_index)
        pair = g.astype(np.int64) * self.sign_count + s.astype(np.int64)
        ids, inverse = np.unique(pair.ravel(), return_inverse=True)
        distinct = self._distinct_codewords(*np.divmod(ids, self.sign_count))
        out = np.empty(g.shape + distinct.shape[1:])
        np.take(distinct, inverse, axis=0, out=out.reshape((-1,) + distinct.shape[1:]))
        return out

    def _distinct_codewords(self, g: np.ndarray, s: np.ndarray) -> np.ndarray:
        """The codewords (P, N, k) of the pairs (g[i], s[i]), regenerated
        CODEWORD_ROWS pairs at a time, so transient memory does not grow with
        the number of pairs."""
        rows = np.empty((len(g),) + self.signs.shape[1:])
        for lo in range(0, len(rows), CODEWORD_ROWS):
            sl = slice(lo, lo + CODEWORD_ROWS)
            signs = self.signs[s[sl]]
            canon = signs * signs[..., :1]
            w = self.white_noise(g[sl], s[sl])
            rows[sl] = canon * np.einsum("ij,rtj->rti", self.chol, canon * w)
        return rows

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
    top: LayerCodebook          # the top layer's table, the only one coded

    @property
    def layers(self) -> tuple[LayerCodebook]:
        """The top table as a one-element tuple.  Its only reader is
        ``bench/workloads.py``; remove it when the benchmark may change."""
        return (self.top,)


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
    empirical_cov_error: float
    bound_check: dict
    sub_blocks: dict


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
    observed | layer 1, layer 1 | layer 2, ..., layer L-1 | layer L.
    Emission walks them, and constraints 1 and 2 read the first."""
    below = [tree.observed] + [tree.layer_nodes(d) for d in range(1, tree.num_layers)]
    return [_block(tree, t, tree.layer_nodes(d)) for d, t in enumerate(below, start=1)]


def _channel(tree: GaussianTree) -> _BlockModel:
    """The coded channel: the regression of the observed block on the top
    layer L, built once per tree (observed | layer 1 itself when L = 1)."""
    if tree.num_layers == 0:
        raise ValidationError("tree has no hidden nodes, so it has no layer to code")
    return _block(tree, tree.observed, tree.layer_nodes(tree.num_layers))


def build_codebooks(
    tree: GaussianTree, rates: RateTuple, pi: BernoulliParams, seed: int
) -> Codebook:
    """Draw the top layer's sign codeword table and pin its Gaussian pair
    ensemble.  Deterministic given the seed: the sign codewords come from
    the seed's "codebook_signs" substream at layer L (``info.STREAMS``), and
    the white noise of pair codeword (g, s) is block j of a Philox4x64-10
    stream keyed by its "codeword_noise" substream at layer L, at counter
    (j, g M_B + s, 0, 0); see :meth:`LayerCodebook.white_noise`.  Lower
    layers get no table: their signs cancel from the emitted law, and
    :func:`synthesize` draws them i.i.d.  Raises CapExceeded when the table
    would exceed 2^16 codewords or 2^12 covariance patterns.
    """
    channel = _channel(tree)
    depth = tree.num_layers
    nodes = channel.sources
    k = len(nodes)
    my, mb = rates.codeword_counts()
    if my > CODEBOOK_CAP or mb > CODEBOOK_CAP:
        raise CapExceeded(f"layer {depth} codebook sizes ({my}, {mb}) exceed the cap {CODEBOOK_CAP}")
    if 2 ** (k - 1) > PATTERN_CAP:
        raise CapExceeded(f"layer with {k} nodes needs too many covariance patterns")
    draws = _rng(seed, "codebook_signs", depth).random((mb, rates.block_length, k))
    signs = np.where(draws < pi.vector_for(nodes), 1.0, -1.0)
    top = LayerCodebook(
        depth=depth,
        nodes=nodes,
        seed=int(seed),
        gauss_count=my,
        signs=signs,
        pattern_codes=_pattern_codes(signs),
        chol=channel.marg_s.chol,
    )
    return Codebook(rates=rates, pi=pi, top=top)


# -- emission ----------------------------------------------------------------

def synthesize(
    tree: GaussianTree,
    codebook: Codebook,
    runs: int,
    seed: int,
    return_internals: bool = False,
):
    """Emit ``runs`` observed blocks of shape (N, n).

    Every run draws one uniform (Gaussian, sign) pair index from the top
    layer's codebook (substream "pair_index"), then walks the layers down
    with fresh innovation noise ("innovation") and i.i.d. Bernoulli(pi)
    signs ("lower_signs") per run and channel use.  The lower-layer signs
    cancel from the output (see the module docstring).  With
    ``return_internals`` it returns (x, internals): ``gauss_index`` and
    ``sign_index`` hold each run's top-layer pair indices, and ``y`` and
    ``b`` map each depth to that layer's inputs and signs.

    Each distinct pair drawn is regenerated once
    (:meth:`LayerCodebook.gaussian_codeword`).  Each layer's innovation
    noise is drawn and added in place, CODEWORD_ROWS runs at a time in run
    order, so the stream is read as by one draw of the whole layer.
    Without ``return_internals`` the pair indices, codewords and signs are
    released before the output step.
    """
    if runs < 1:
        raise ValidationError("runs must be >= 1")
    depth_count = tree.num_layers
    idx_rng = _rng(seed, "pair_index")
    noise_rng = _rng(seed, "innovation")
    sign_rng = _rng(seed, "lower_signs")

    top = codebook.top
    gauss_index = idx_rng.integers(0, top.gauss_count, size=runs)
    sign_index = idx_rng.integers(0, top.sign_count, size=runs)

    y = top.gaussian_codeword(gauss_index, sign_index)
    cur_b = top.signs[sign_index]
    internals = {"gauss_index": gauss_index, "sign_index": sign_index,
                 "y": {depth_count: y}, "b": {depth_count: cur_b}}

    blocks = _layer_blocks(tree)
    for depth in range(depth_count - 1, 0, -1):
        y = np.einsum("ij,rtj->rti", blocks[depth].gain, cur_b * y)
        _add_innovation(y, blocks[depth].noise.chol, noise_rng)
        bias = codebook.pi.vector_for(blocks[depth - 1].sources)
        cur_b = np.where(sign_rng.random(y.shape) < bias, 1.0, -1.0)
        y *= cur_b
        internals["y"][depth] = y
        internals["b"][depth] = cur_b

    signed = cur_b * y
    if not return_internals:
        del internals, gauss_index, sign_index, y, cur_b
    x = np.einsum("ij,rtj->rti", blocks[0].gain, signed)
    del signed
    _add_innovation(x, blocks[0].noise.chol, noise_rng)

    if return_internals:
        return x, internals
    return x


def _add_innovation(out: np.ndarray, chol: np.ndarray, rng) -> None:
    """Add N(0, chol chol^T) noise to every (run, channel use) row of ``out``
    in place, drawn from ``rng`` CODEWORD_ROWS runs at a time in run order."""
    for lo in range(0, len(out), CODEWORD_ROWS):
        rows = out[lo:lo + CODEWORD_ROWS]
        rows += rng.standard_normal(rows.shape) @ chol.T


# -- divergence estimation ----------------------------------------------------

def _mixture_components(tree: GaussianTree, codebook: Codebook):
    """The emitted-block mixture as (inputs, model): component (g, s) has
    mean inputs[g M_B + s] @ model.gain.T and covariance model.noise.cov at
    every channel use.

    Signs below the top layer flip both edge groups incident to their layer
    and cancel from the emitted law, so the mixture is over the top layer's
    (gaussian, sign) codeword pairs; ``inputs`` (C, N, k) holds their signed
    symbols b y, and ``model`` is the coded channel (:func:`_channel`).
    """
    top = codebook.top
    my, mb = top.gauss_count, top.sign_count
    if my * mb > MIXTURE_CAP:
        raise MixtureTooLarge(
            f"{my} x {mb} mixture components exceed the cap {MIXTURE_CAP}"
        )
    y = top.gaussian_codeword(np.arange(my)[:, None], np.arange(mb))  # (M_Y, M_B, N, k)
    inputs = top.signs * y
    return inputs.reshape((my * mb,) + inputs.shape[2:]), _channel(tree)


def _log_sum_exp_rows(x_aug: np.ndarray, m_aug: np.ndarray, count: int, shift: bool) -> np.ndarray:
    """log sum_c exp((x_aug @ m_aug)[i, c]) over the first ``count`` columns
    c, for each row i, one slab of at most SLAB_CELLS cells at a time; with
    ``shift`` each row's cells are first shifted by their maximum.  A sum of
    0 gives -inf."""
    rows = max(1, SLAB_CELLS // m_aug.shape[1])
    slab = np.empty((min(rows, len(x_aug)), m_aug.shape[1]))
    sums, shifts = np.empty(len(x_aug)), np.zeros(len(x_aug))
    for start in range(0, len(x_aug), rows):
        stop = min(start + rows, len(x_aug))
        part = slab[:stop - start]
        np.matmul(x_aug[start:stop], m_aug, out=part)
        if shift:
            shifts[start:stop] = part.max(axis=1)
            part -= shifts[start:stop, None]
        np.exp(part, out=part)
        part[:, :count].sum(axis=1, out=sums[start:stop])
    with np.errstate(divide="ignore"):
        return np.log(sums) + shifts


def _block_log_density(x: np.ndarray, inputs: np.ndarray, model: _BlockModel) -> np.ndarray:
    """log q for each sample block in x (S, N, n) under the mixture of
    :func:`_mixture_components`, whose means are inputs @ model.gain.T and
    whose covariance is model.noise.cov at every channel use.

    Whitened by that covariance L L^T, every mean lies in the span of the
    channel's signal basis Q = ``model.basis``, with coordinates m_p = a y
    for a = ``model.signal_gain``.  With x_p = Q^T x_w, the part of x_w
    orthogonal to Q enters only as -(|x_w|^2 - |x_p|^2)/2.  One GEMM of
    [x_p, 1, -|x_p|^2/2] against [m_p; -|m_p|^2/2; 1] fills a slab with each
    cell's -|x_p - m_p|^2/2 <= 0, so exp cannot overflow and the slab needs
    no max shift; a row whose log-sum falls below UNDERFLOW_LOG, where its
    terms leave exp's normal range, is recomputed with its own shift.

    The component columns are padded with copies of the first to a multiple
    of GEMM_COLUMNS and left out of the sums.  Without it, OpenBLAS computed
    a trailing partial block of columns with an edge kernel that rounded
    some of them differently depending on how the rows were split among
    threads, and the output changed with the BLAS thread count.
    """
    comp, basis, gain = model.noise, model.basis, model.signal_gain
    s_count, n_uses, n_dim = x.shape
    comp_count = inputs.shape[0]
    dim = n_uses * basis.shape[1]
    const = -0.5 * n_uses * (comp.logdet + n_dim * math.log(2.0 * math.pi)) - math.log(comp_count)

    xw = x @ comp.inv_chol.T                                        # (S, N, n)
    x_aug = np.empty((s_count, dim + 2))                            # [x_p, 1, -|x_p|^2/2]
    xp = x_aug[:, :dim]
    xp[...] = (xw @ basis).reshape(s_count, dim)
    x_aug[:, dim] = 1.0
    x_aug[:, dim + 1] = -0.5 * np.einsum("ij,ij->i", xp, xp)
    perp = 0.5 * np.einsum("stj,stj->s", xw, xw) + x_aug[:, dim + 1]
    del xw                                  # freed before the slabs are allocated
    m_aug = np.empty((dim + 2, -(-comp_count // GEMM_COLUMNS) * GEMM_COLUMNS))
    mp = m_aug[:dim, :comp_count]                                   # [m_p; -|m_p|^2/2; 1]
    mp[...] = (inputs @ gain.T).reshape(comp_count, dim).T
    m_aug[dim, :comp_count] = -0.5 * np.einsum("ij,ij->j", mp, mp)
    m_aug[dim + 1, :comp_count] = 1.0
    m_aug[:, comp_count:] = m_aug[:, :1]                            # the padding

    out = _log_sum_exp_rows(x_aug, m_aug, comp_count, shift=False)
    low = np.flatnonzero(out < UNDERFLOW_LOG)
    if low.size:
        out[low] = _log_sum_exp_rows(x_aug[low], m_aug, comp_count, shift=True)
    return out + const - perp


def _independence_stat(z: np.ndarray, labels: np.ndarray) -> tuple[float, int]:
    """Corrected likelihood-ratio statistic that every label class of the
    rows of z has one Gaussian law, and its chi^2 degrees of freedom.

    Classes with fewer than n + 2 rows are dropped.  For maximum-likelihood
    covariances, 2 M times the Gaussian plug-in MI is M logdet S -
    sum_v M_v logdet S_v, whose limit is chi^2 with (L - 1)(n + n(n + 1)/2)
    degrees of freedom (Wilks 1938); rho is Anderson's small-sample factor
    (An Introduction to Multivariate Statistical Analysis, 2003, ch. 10).
    """
    n = z.shape[1]
    classes = [c for c in (z[labels == v] for v in np.unique(labels)) if len(c) >= n + 2]
    if len(classes) < 2:
        return 0.0, 0

    def scaled_logdet(rows):
        dev = rows - rows.mean(axis=0)
        return len(rows) * np.linalg.slogdet(dev.T @ dev / len(rows))[1]

    pooled = np.concatenate(classes)
    lr = scaled_logdet(pooled) - sum(scaled_logdet(c) for c in classes)
    groups = len(classes) - 1
    rho = 1.0 - (sum(1.0 / len(c) for c in classes) - 1.0 / len(pooled)) * (
        2 * n * n + 9 * n + 11) / (6.0 * groups * (n + 3))
    return float(rho * lr), groups * (n + n * (n + 1) // 2)


def _chi2_upper(df: int) -> float:
    """Upper chi^2_df quantile at the 3-sigma tail mass (Wilson-Hilferty)."""
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + NormalDist().inv_cdf(1.0 - THREE_SIGMA_MASS) * math.sqrt(h)) ** 3


def rate_region_check(
    tree: GaussianTree,
    rates: RateTuple,
    pi: BernoulliParams,
    samples: int = 20000,
    seed: int = 0,
) -> dict:
    """Signed margins of the top layer L's achievability inequalities, as
    one dict: its inputs against the observed block, through the coded
    channel (:func:`_channel`) that emission realises.  The Gaussian-rate
    margin uses the mixture MI I(X; top-layer inputs) (Monte Carlo); the
    sum-rate margin uses the fixed Gaussian MI.  Only the top
    layer is coded (module docstring), so the paper's pair per layer, which
    belongs to a scheme coding every layer, is not checked.
    """
    channel = _channel(tree)
    depth = tree.num_layers
    mix = block_mi_mixture(
        tree, channel.targets, channel.sources, pi, samples, _seed(seed, "rate_bound_seed", depth)
    )["inputs"]
    ry, rb = rates.gaussian_rate, rates.sign_rate
    fixed = channel.gaussian_mi()
    return {
        "layer": depth,
        "gaussian_rate": ry,
        "sign_rate": rb,
        "gaussian_mi": mix.value,
        "gaussian_mi_se": mix.std_error,
        "total_mi": fixed,
        "gaussian_rate_margin": ry - mix.value,
        "sum_rate_margin": ry + rb - fixed,
    }


def _family_z(comparisons: int) -> float:
    """z threshold giving a 3-sigma family-wise level over many comparisons."""
    return NormalDist().inv_cdf(1.0 - THREE_SIGMA_MASS / (2 * comparisons))


def frontier_rates(
    tree: GaussianTree,
    pi: BernoulliParams,
    margin: float,
    block_length: int,
    samples: int = 100000,
    seed: int = 0,
) -> RateTuple:
    """The top layer's rates sitting ``margin`` nats above its frontier.

    The frontier is :func:`rate_region_check` at zero rates, the bounds of
    the coded channel observed | top layer, so checking the returned rates
    with matching (pi, samples, seed) reports margins of exactly ``margin``.
    """
    if not math.isfinite(margin):
        raise ValidationError(f"margin must be a finite number, got {margin}")
    zero = RateTuple.make([(0.0, 0.0)], block_length)
    bound = rate_region_check(tree, zero, pi, samples, seed)
    mix, fixed = bound["gaussian_mi"], bound["total_mi"]
    return RateTuple.make([(max(mix, 0.0) + margin, max(fixed - mix, 0.0) + margin)], block_length)


def estimate_divergence(
    tree: GaussianTree,
    codebook: Codebook,
    samples_count: int,
    seed: int,
    rate_margin_samples: int = 20000,
) -> SynthesisReport:
    """Sample the synthesized channel and compare against the target.

    KL(q || product target) is estimated by averaging the exact log-density
    ratio over ``samples_count`` >= 2 draws from q; the total-variation bound
    is Pinsker's.  Also reports the Frobenius error of the pooled empirical
    covariance and the top layer's rate margins.  It gives no verdict: the
    encoding constraints are judged by :func:`verify_encoding_constraints`.
    """
    if samples_count < 2:
        raise ValidationError(f"samples_count must be at least 2, got {samples_count}")
    x = synthesize(tree, codebook, samples_count, _seed(seed, "emission_seed"))
    inputs, channel = _mixture_components(tree, codebook)
    log_q = _block_log_density(x, inputs, channel)

    target = channel.marg_t
    sigma_x = target.cov
    flat = x.reshape(-1, x.shape[-1])
    log_p = target.logpdf(flat).reshape(x.shape[0], x.shape[1]).sum(axis=1)

    kl_values = log_q - log_p
    kl = float(kl_values.mean())
    kl_se = float(kl_values.std(ddof=1) / math.sqrt(len(kl_values)))

    second_moment = flat.T @ flat / len(flat)
    cov_err = float(np.linalg.norm(second_moment - sigma_x, ord="fro"))

    bounds = rate_region_check(
        tree, codebook.rates, codebook.pi,
        samples=rate_margin_samples, seed=_seed(seed, "rate_check_seed"),
    )
    top = codebook.top
    sub_blocks = {
        "layer": top.depth,
        "pattern_count": top.sub_block_count,
        "realized_sizes": top.realized_sub_block_sizes(),
    }
    return SynthesisReport(
        rates=codebook.rates,
        pi=codebook.pi.as_dict(),
        seed=int(seed),
        samples=int(samples_count),
        kl_estimate=kl,
        kl_std_error=kl_se,
        tv_upper_bound=float(math.sqrt(max(kl, 0.0) / 2.0)),
        empirical_cov_error=cov_err,
        bound_check=bounds,
        sub_blocks=sub_blocks,
    )


def verify_encoding_constraints(
    tree: GaussianTree,
    codebook: Codebook,
    report: SynthesisReport,
    runs: int = 2000,
    seed: int = 977,
    tv_threshold: float = 0.5,
) -> list[ConstraintCheck]:
    """Checklist of the six encoding-scheme constraints, judged on ``runs``
    >= 2 blocks emitted here from ``codebook`` and on the report's TV bound.

    1. outputs conditionally independent given the layer-1 inputs and signs
       (whitened residual correlations vanish);
    2. emitted symbols independent of the layer-1 sign symbols (on one run
       per drawn top-layer pair, a corrected Gaussian likelihood ratio by
       sign class against its upper chi^2 3-sigma quantile; 0 against 0
       with fewer than two classes of n + 2 symbols);
    3. symbols i.i.d. across channel uses (lag-1 cross-covariance vanishes);
    4. and 5. the top layer's Gaussian and sign codebook cardinalities match
       ceil(exp(N R_Y)) and ceil(exp(N R_B)), by the same codeword_counts()
       arithmetic build_codebooks used, so only a codebook it did not build fails;
    6. the report's total-variation upper bound is at most ``tv_threshold``.
    """
    if runs < 2:
        raise ValidationError(f"runs must be at least 2, got {runs}")
    if not math.isfinite(tv_threshold):
        raise ValidationError(f"tv_threshold must be a finite number, got {tv_threshold}")
    checks: list[ConstraintCheck] = []
    top = codebook.top
    x, internals = synthesize(
        tree, codebook, runs, _seed(seed, "constraint_seed"), return_internals=True
    )
    obs_model = _layer_blocks(tree)[0]
    resid = x - np.einsum(
        "ij,rtj->rti", obs_model.gain, internals["b"][1] * internals["y"][1]
    )
    flat = resid.reshape(-1, resid.shape[-1])
    white = flat @ obs_model.noise.inv_chol.T
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

    # one run per drawn top-layer pair, since runs sharing a pair share its codeword
    pair = internals["gauss_index"] * top.sign_count + internals["sign_index"]
    clusters, first, cluster = np.unique(pair, return_index=True, return_inverse=True)
    b1 = internals["b"][1][first]
    labels = (b1 < 0).reshape(-1, b1.shape[-1]) @ (2 ** np.arange(b1.shape[-1]))
    stat, df = _independence_stat(x[first].reshape(len(labels), -1), labels)
    thr_sign = _chi2_upper(df) if df else 0.0
    checks.append(ConstraintCheck(
        name="output_independent_of_signs",
        passed=stat <= thr_sign,
        observed=stat,
        threshold=thr_sign,
        detail="corrected Gaussian likelihood ratio of symbols by layer-1 signs, "
               "one run per codeword pair, upper chi-square 3-sigma quantile",
    ))

    n_uses = x.shape[1]
    n_dim = x.shape[-1]
    if n_uses >= 2:
        # average lag-1 products within each run first; the standard error
        # is cluster-robust over the drawn pairs rather than over runs
        prods = np.einsum("rti,rtj->rij", x[:, :-1, :], x[:, 1:, :]) / (n_uses - 1)
        mean = prods.mean(axis=0)
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

    my, mb = codebook.rates.codeword_counts()
    for name, count, want, rate in (("gaussian", top.gauss_count, my, "R_Y"),
                                    ("sign", top.sign_count, mb, "R_B")):
        gap = abs(count - want)
        checks.append(ConstraintCheck(
            name=f"{name}_codebook_cardinality",
            passed=gap == 0,
            observed=float(gap),
            threshold=0.0,
            detail=f"|codeword count - ceil(exp(N {rate}))|, top layer",
        ))

    checks.append(ConstraintCheck(
        name="tv_bound_within_threshold",
        passed=report.tv_upper_bound <= tv_threshold,
        observed=report.tv_upper_bound,
        threshold=float(tv_threshold),
        detail="Pinsker bound sqrt(max(KL, 0) / 2)",
    ))
    return checks
