"""Layered random-codebook synthesis of the observed Gaussian vector.

The top (deepest) layer's codebook holds Bernoulli sign codewords (one +/-1
symbol per top-layer node per channel use) and Gaussian codewords.  A
Gaussian codeword exists per (gaussian index, sign index) pair: at each
channel use its symbol follows the Gaussian law fixed by the sign codeword's
realisation there, so for every fixed sign codeword the Gaussian sub-codebook
is an i.i.d. sample of the conditional input law.  Every codebook holds at
most MIXTURE_CAP pairs, so the mixture over them can be evaluated exactly,
and stores them all in a table built with it, which the mixture density and
emission read.  The table's white noise is one standard normal draw from
the top layer's "codeword_noise" substream, in pair order g M_B + s, so a
codebook with fewer Gaussian codewords holds a prefix of the rows.
Emission adds each layer's innovation noise to its output in place.  Every
seeded draw here takes a named substream of the caller's seed from the one
table in ``info.STREAMS``.  A symbol with sign realisation b is coloured by
D L D, where L is the Cholesky factor of the layer covariance and
D = diag(b b_1) the canonical pattern (b up to a global flip); D L D is the
Cholesky factor of D Sigma D.  Sub-blocks are keyed by that pattern, and
their sizes follow the empirical sign-codeword realisations.

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
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .errors import CapExceeded, ValidationError
from .info import BernoulliParams, _BlockModel, _block, _rng, _seed, block_mi_mixture
from .trees import GaussianTree, joint_covariance  # noqa: F401 (bench's tracer test asserts it)

MIXTURE_CAP = 2**14        # cap on a codebook's pairs, each a mixture component and a table row
PATTERN_CAP = 2**12        # cap on the top layer's covariance sign patterns
CODEWORD_ROWS = 2**12      # pair codewords drawn per slice, and innovation rows per draw
# (sample, component) cells per log-density slab: 1 MiB of float64, so the
# slab stays in a core's 2 MiB L2 between its GEMM, exp and sum.  A slab is
# SLAB_CELLS // BLOCK_COLUMNS samples by BLOCK_COLUMNS components.  On the
# star divergence estimates at N = 1 to 8 (3000 samples each, one BLAS
# thread, Xeon with AVX-512, median of 25) the evaluations took 74 ms in
# blocks of 256 columns, 75, 78 and 81 ms in blocks of 128, 512 and 1024,
# 68 and 80 ms with 2^16 and 2^18 cells, and 80 ms in slabs of whole rows
# of components.  2^16 against 2^17 is not settled: interleaved timings of
# the soft_covering benchmark's six star estimates (one BLAS thread, same
# bytes) read 2^16 once as 10 % slower in total and twice, on a 2-core
# Xeon with 2 MiB of L2 per core, as 9 and 15 % faster, led by N = 8.
SLAB_CELLS = 2**17
UNDERFLOW_LOG = -700.0     # a row's log-sum below this is recomputed with a max shift
GEMM_COLUMNS = 16          # log-density components are padded to a multiple of this
BLOCK_COLUMNS = 256        # log-density components per GEMM, a multiple of GEMM_COLUMNS
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


def _check_pair_count(depth: int, gauss_count: int, sign_count: int) -> None:
    """Refuse a codebook of more than MIXTURE_CAP (Gaussian, sign) pairs."""
    if gauss_count * sign_count > MIXTURE_CAP:
        raise CapExceeded(f"layer {depth} codebook of {gauss_count} x {sign_count} pairs "
                          f"exceeds the cap of {MIXTURE_CAP} pairs")


@dataclass(frozen=True)
class LayerCodebook:
    depth: int
    nodes: tuple[str, ...]
    seed: int
    gauss_count: int           # number of Gaussian codewords per sign codeword
    signs: np.ndarray          # (M_B, N, k) +/-1 sign codewords
    chol: np.ndarray           # (k, k) Cholesky factor L of the layer covariance
    # (M_Y M_B, N, k) read-only pair codewords, row g M_B + s; built from the
    # fields above
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Refuse more than MIXTURE_CAP pairs, then draw the pair-codeword
        table.  ``dataclasses.replace`` calls this too, so a table always
        matches the signs and counts it sits with.

        The white noise is ``standard_normal`` from the layer's
        "codeword_noise" substream of the seed (``info.STREAMS``), drawn
        CODEWORD_ROWS pairs at a time in pair order g M_B + s, so a codebook
        with fewer Gaussian codewords holds a prefix of the rows.  Each slice
        is coloured by D L D (see :meth:`gaussian_codeword`)."""
        _check_pair_count(self.depth, self.gauss_count, self.sign_count)
        rng = _rng(self.seed, "codeword_noise", self.depth)
        table = np.empty((self.gauss_count * self.sign_count,) + self.signs.shape[1:])
        for lo in range(0, len(table), CODEWORD_ROWS):
            rows = table[lo:lo + CODEWORD_ROWS]
            signs = self.signs[np.arange(lo, lo + len(rows)) % self.sign_count]
            canon = signs * signs[..., :1]
            w = rng.standard_normal(rows.shape)
            rows[...] = canon * np.einsum("ij,rtj->rti", self.chol, canon * w)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @property
    def sign_count(self) -> int:
        return len(self.signs)

    @property
    def sub_block_count(self) -> int:
        return 2 ** max(len(self.nodes) - 1, 0)

    @property
    def pattern_codes(self) -> np.ndarray:
        """(M_B, N) index of each sign symbol's canonical pattern (its signs
        up to a global flip): node j of k adds 2^(k-1-j) when its sign
        differs from node 0's.  Derived from ``signs``, so it follows them
        through ``dataclasses.replace``."""
        k = self.signs.shape[-1]
        bits = (self.signs[..., 1:] != self.signs[..., :1]).astype(np.int64)
        return bits @ (2 ** np.arange(k - 1, dtype=np.int64)[::-1])

    def realized_sub_block_sizes(self) -> list[int]:
        counts = np.bincount(self.pattern_codes.ravel(), minlength=self.sub_block_count)
        return [int(c) for c in counts]

    def gaussian_codeword(self, gauss_index, sign_index) -> np.ndarray:
        """Pair codewords (..., N, k) for broadcast index arrays; a scalar
        pair gives one (N, k) codeword.  At each channel use the white noise
        is coloured by D L D, the Cholesky factor of D Sigma D, where D is
        the sign codeword's canonical pattern there (its realisation times
        its first entry) and L the Cholesky factor of the layer covariance
        Sigma.  Both indices are range-checked, and the codewords are
        gathered from the table, so a batch and one pair at a time give the
        same values."""
        g, s = self._pairs(gauss_index, sign_index)
        return np.take(self.table, g.astype(np.int64) * self.sign_count + s.astype(np.int64),
                       axis=0)

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

def _layer_blocks(tree: GaussianTree) -> list[_BlockModel]:
    """The regression of each layer's targets on the layer, from the bottom:
    observed | layer 1, layer 1 | layer 2, ..., layer L-1 | layer L.
    Emission walks them and is their only reader; everything that judges or
    scores emission reads the coded channel (:func:`_channel`)."""
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
    """Draw the top layer's sign codeword table and its pair-codeword
    table.  Deterministic given the seed: the sign codewords come from the
    seed's "codebook_signs" substream at layer L (``info.STREAMS``), and the
    pair codewords' white noise from its "codeword_noise" substream at layer
    L, drawn in pair order g M_B + s (:class:`LayerCodebook`).  Lower
    layers get no table: their signs cancel from the emitted law, and
    :func:`synthesize` draws them i.i.d.  Raises CapExceeded, before any
    draw, when the codebook would hold more than MIXTURE_CAP pairs or its
    layer more than PATTERN_CAP covariance patterns.
    """
    channel = _channel(tree)
    depth = tree.num_layers
    nodes = channel.sources
    k = len(nodes)
    my, mb = rates.codeword_counts()
    _check_pair_count(depth, my, mb)
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
    cancel from the output (see the module docstring), so the drawn pairs
    are all that the output law depends on: with ``return_internals`` it
    returns (x, internals), where ``gauss_index`` and ``sign_index`` hold
    each run's top-layer pair indices and are all that internals holds.

    The drawn pairs' codewords are gathered from the codebook's table
    (:meth:`LayerCodebook.gaussian_codeword`).  Each layer's innovation
    noise is drawn and added in place, CODEWORD_ROWS runs at a time in run
    order, so the stream is read as by one draw of the whole layer.  The
    codewords and signs are released before the output step, and the pair
    indices too without ``return_internals``.
    """
    if runs < 1:
        raise ValidationError("runs must be >= 1")
    depth_count = tree.num_layers
    idx_rng = _rng(seed, "pair_index")
    noise_rng = _rng(seed, "innovation")
    sign_rng = _rng(seed, "lower_signs")

    top = codebook.top
    internals = {"gauss_index": idx_rng.integers(0, top.gauss_count, size=runs),
                 "sign_index": idx_rng.integers(0, top.sign_count, size=runs)}
    y = top.gaussian_codeword(internals["gauss_index"], internals["sign_index"])
    cur_b = top.signs[internals["sign_index"]]
    if not return_internals:
        del internals

    blocks = _layer_blocks(tree)
    for depth in range(depth_count - 1, 0, -1):
        y = np.einsum("ij,rtj->rti", blocks[depth].gain, cur_b * y)
        _add_innovation(y, blocks[depth].noise.chol, noise_rng)
        bias = codebook.pi.vector_for(blocks[depth - 1].sources)
        cur_b = np.where(sign_rng.random(y.shape) < bias, 1.0, -1.0)
        y *= cur_b

    signed = cur_b * y
    del y, cur_b
    x = np.einsum("ij,rtj->rti", blocks[0].gain, signed)
    del signed
    _add_innovation(x, blocks[0].noise.chol, noise_rng)
    return (x, internals) if return_internals else x


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
    symbols b y, read from the top layer's pair-codeword table, which holds
    at most MIXTURE_CAP pairs, and ``model`` is the coded channel
    (:func:`_channel`).
    """
    top = codebook.top
    inputs = top.table.reshape((top.gauss_count,) + top.signs.shape) * top.signs
    return inputs.reshape(top.table.shape), _channel(tree)


def _column_blocks(rows: np.ndarray, m_aug: np.ndarray, count: int, buf: np.ndarray):
    """Yield rows @ m_aug one block of BLOCK_COLUMNS columns at a time, in
    column order, each in the front of the flat buffer ``buf`` and cut to
    the columns below ``count``.  Every block starts below ``count``: the
    padding is narrower than GEMM_COLUMNS, which divides BLOCK_COLUMNS."""
    for lo in range(0, m_aug.shape[1], BLOCK_COLUMNS):
        block = m_aug[:, lo:lo + BLOCK_COLUMNS]
        cells = buf[:len(rows) * block.shape[1]].reshape(len(rows), block.shape[1])
        np.matmul(rows, block, out=cells)
        yield cells[:, :count - lo]


def _sum_exp(rows: np.ndarray, m_aug: np.ndarray, count: int, buf: np.ndarray,
             shift: np.ndarray | None = None) -> np.ndarray:
    """sum_c exp((rows @ m_aug)[i, c] - shift[i]) over the first ``count``
    columns c, for each row i.  Each block's row sums (einsum, no BLAS) are
    added to the totals block by block in column order, so a row's total
    does not depend on which rows share its slab."""
    total = np.zeros(len(rows))
    part = np.empty(len(rows))
    for cells in _column_blocks(rows, m_aug, count, buf):
        if shift is not None:
            cells -= shift[:, None]
        np.exp(cells, out=cells)
        np.einsum("ij->i", cells, out=part)
        total += part
    return total


def _log_sum_exp_rows(x_aug: np.ndarray, m_aug: np.ndarray, count: int) -> np.ndarray:
    """log sum_c exp((x_aug @ m_aug)[i, c]) over the first ``count`` columns
    c, for each row i, whose cells must all be <= 0.

    The rows go SLAB_CELLS // BLOCK_COLUMNS at a time, and each slab of rows
    meets the columns in blocks of BLOCK_COLUMNS (:func:`_sum_exp`), so one
    slab of SLAB_CELLS cells is the only buffer whatever the component
    count.  A row whose log-sum falls below UNDERFLOW_LOG, where its terms
    leave exp's normal range, is summed again within its slab: a max pass
    over the same blocks finds its shift, and a second pass sums the
    shifted terms."""
    rows = SLAB_CELLS // BLOCK_COLUMNS
    buf = np.empty(min(rows, len(x_aug)) * min(BLOCK_COLUMNS, m_aug.shape[1]))
    out = np.empty(len(x_aug))
    for start in range(0, len(x_aug), rows):
        slab = x_aug[start:start + rows]
        logs = out[start:start + len(slab)]
        with np.errstate(divide="ignore"):
            np.log(_sum_exp(slab, m_aug, count, buf), out=logs)
        low = np.flatnonzero(logs < UNDERFLOW_LOG)
        if low.size:
            far = slab[low]
            shift = np.full(len(far), -np.inf)
            for cells in _column_blocks(far, m_aug, count, buf):
                np.maximum(shift, cells.max(axis=1), out=shift)
            logs[low] = np.log(_sum_exp(far, m_aug, count, buf, shift)) + shift
    return out


def _block_log_density(x: np.ndarray, inputs: np.ndarray, model: _BlockModel) -> np.ndarray:
    """log q for each sample block in x (S, N, n) under the mixture of
    :func:`_mixture_components`, whose means are inputs @ model.gain.T and
    whose covariance is model.noise.cov at every channel use.

    Whitened by that covariance L L^T, every mean lies in the span of the
    channel's signal basis Q = ``model.basis``, with coordinates m_p = a y
    for a = ``model.signal_gain``.  With x_p = Q^T x_w, the part of x_w
    orthogonal to Q enters only as -(|x_w|^2 - |x_p|^2)/2.  GEMMs of
    [x_p, 1, -|x_p|^2/2] against column blocks of [m_p; -|m_p|^2/2; 1] fill
    slabs with each cell's -|x_p - m_p|^2/2 <= 0, so exp cannot overflow
    and needs no max shift; a row whose log-sum falls below UNDERFLOW_LOG,
    where its terms leave exp's normal range, is summed again with its own
    shift (:func:`_log_sum_exp_rows`).

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

    return _log_sum_exp_rows(x_aug, m_aug, comp_count) + const - perp


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
    # rows grouped by a stable sort of their labels: np.unique would import
    # numpy.ma, 8-9 ms in every process that checks the constraints
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    cuts = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
    classes = [c for c in np.split(z[order], cuts) if len(c) >= n + 2]
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


def _family_t(comparisons: int, df: int) -> float:
    """The Student-t counterpart of :func:`_family_z` on ``df`` degrees of
    freedom: the same family-wise tail, so it tends to the z threshold as
    ``df`` grows."""
    return _student_t_isf(THREE_SIGMA_MASS / (2 * comparisons), df)


def _student_t_sf(t: float, df: int) -> float:
    """P(T > t) for t >= 0: I_x(df/2, 1/2) / 2 at x = df / (df + t^2), the
    regularized incomplete beta function by its continued fraction
    (modified Lentz; Press et al., *Numerical Recipes*, 3rd ed., 6.4), with
    x and 1 - x each formed without cancellation."""
    a, b = df / 2.0, 0.5
    x, y = df / (df + t * t), t * t / (df + t * t)
    swap = x > (a + 1.0) / (a + b + 2.0)      # the fraction converges fast below this
    if swap:
        a, b, x, y = b, a, y, x
    front = math.exp(a * math.log(x) + b * math.log(y)
                     + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)) / a
    tiny, f, c, d = 1e-300, 1.0, 1.0, 0.0
    for i in range(10_000):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(c * d - 1.0) < 1e-16:
            break
    ibeta = front * (f - 1.0)
    return (1.0 - ibeta if swap else ibeta) / 2.0


def _student_t_isf(tail: float, df: int) -> float:
    """The t with P(T > t) = ``tail`` < 1/2 on ``df`` >= 1 degrees of freedom.

    Newton steps on log P(T > e^u) - log tail in u = log t, whose slope
    -t p(t) / P(T > t) tends to -df in the tail, start from the normal
    quantile, below the root since t has the heavier tail; a step that
    leaves the bracket found so far bisects it instead."""
    lo, hi = NormalDist().inv_cdf(1.0 - tail), math.inf
    log_norm = (math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)
                - 0.5 * math.log(df * math.pi))
    t = lo
    for _ in range(200):
        sf = _student_t_sf(t, df)
        if sf > tail:
            lo = t
        else:
            hi = t
        pdf = math.exp(log_norm - (df + 1) / 2.0 * math.log1p(t * t / df))
        step = (math.log(sf) - math.log(tail)) * sf / (t * pdf)
        nxt = t * math.exp(step)
        if not lo < nxt < hi:
            nxt = 2.0 * lo if hi == math.inf else math.sqrt(lo * hi)
        if abs(nxt - t) <= 4e-16 * t:
            return nxt
        t = nxt
    return t


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
    A margin that puts a rate below 0, or N times a rate above
    LOG_FLOAT_MAX, is refused, and the error names the margins that work.
    """
    if not math.isfinite(margin):
        raise ValidationError(f"margin must be a finite number, got {margin}")
    zero = RateTuple.make([(0.0, 0.0)], block_length)
    bound = rate_region_check(tree, zero, pi, samples, seed)
    mix, fixed = bound["gaussian_mi"], bound["total_mi"]
    gaussian, sign = max(mix, 0.0), max(fixed - mix, 0.0)
    smallest = 0.0 - min(gaussian, sign)        # 0.0, not -0.0, at a zero rate
    if margin < smallest:
        raise ValidationError(
            f"margin {margin} puts a frontier rate below 0; the smallest margin that keeps "
            f"both rates non-negative is {smallest!r}"
        )
    # a rate and a margin that RateTuple.make accepts, within an ulp of its
    # limit: each is stepped down past the rounding of the division and
    # subtraction, which takes at most a step or two
    rate_cap = LOG_FLOAT_MAX / block_length
    while rate_cap * block_length > LOG_FLOAT_MAX:
        rate_cap = math.nextafter(rate_cap, -math.inf)
    top = float(max(gaussian, sign))
    largest = rate_cap - top
    while top + largest > rate_cap:
        largest = math.nextafter(largest, -math.inf)
    if margin > largest:
        raise ValidationError(
            f"margin {margin} puts N R above {LOG_FLOAT_MAX:.2f} for a frontier rate at "
            f"N = {block_length}; margins up to {largest!r} keep both rates within it"
        )
    return RateTuple.make([(gaussian + margin, sign + margin)], block_length)


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

    1. outputs conditionally independent given the top-layer inputs: each
       run's residual from its drawn pair's mixture component mean (the
       coded channel's gain times the signed codeword, as scored by
       :func:`estimate_divergence`), whitened by the channel noise, has
       vanishing correlations;
    2. emitted symbols independent of the top-layer sign symbols (on one
       run per drawn pair, a corrected Gaussian likelihood ratio by sign
       class against its upper chi^2 3-sigma quantile; 0 against 0 with
       fewer than two classes of n + 2 symbols);
    3. symbols i.i.d. across channel uses (lag-1 cross-covariance vanishes);
    4. and 5. the numbers of Gaussian and sign codewords whose rows
       emission reads in the top layer's tables match ceil(exp(N R_Y)) and
       ceil(exp(N R_B)), computed here from the rates;
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
    g, s = internals["gauss_index"], internals["sign_index"]
    channel = _channel(tree)
    resid = x - np.einsum("ij,rtj->rti", channel.gain, top.signs[s] * top.gaussian_codeword(g, s))
    flat = resid.reshape(-1, resid.shape[-1])
    white = flat @ channel.noise.inv_chol.T
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
    clusters, first, cluster = np.unique(g * top.sign_count + s, return_index=True,
                                         return_inverse=True)
    b = top.signs[s[first]]
    labels = (b < 0).reshape(-1, b.shape[-1]) @ (2 ** np.arange(b.shape[-1]))
    stat, df = _independence_stat(x[first].reshape(len(labels), -1), labels)
    thr_sign = _chi2_upper(df) if df else 0.0
    checks.append(ConstraintCheck(
        name="output_independent_of_signs",
        passed=stat <= thr_sign,
        observed=stat,
        threshold=thr_sign,
        detail=f"corrected Gaussian likelihood ratio of symbols by layer-{top.depth} signs, "
               "one run per codeword pair, upper chi-square 3-sigma quantile",
    ))

    n_uses = x.shape[1]
    n_dim = x.shape[-1]
    if n_uses >= 2:
        # average lag-1 products within each run first; the standard error
        # is cluster-robust over the drawn pairs rather than over runs.  The
        # runs are stably sorted by pair first, so each pair's runs lie
        # together in run order, the products are centred in place and one
        # reduceat sums the deviations of every pair
        by_pair = np.argsort(cluster, kind="stable")
        sorted_runs = x[by_pair]
        prods = np.einsum("rti,rtj->rij", sorted_runs[:, :-1, :], sorted_runs[:, 1:, :])
        del sorted_runs
        prods /= n_uses - 1
        mean = prods.mean(axis=0)
        prods -= mean
        groups = len(clusters)
        dev = np.add.reduceat(prods, np.searchsorted(cluster[by_pair], np.arange(groups)), axis=0)
        var = np.einsum("gij,gij->ij", dev, dev) * groups / max(groups - 1, 1)
        se_mat = np.sqrt(var) / len(prods)
        z_lag = float(np.max(np.abs(mean) / np.maximum(se_mat, 1e-300)))
        # over G clusters the robust ratio is referred to t on G - 1 degrees
        # of freedom (Cameron and Miller, *J. Human Resources* 50(2), 2015);
        # the normal quantile over-rejects when few pairs are drawn
        lag_df = max(groups - 1, 1)
        thr_lag = _family_t(n_dim * n_dim, lag_df)
        detail = ("max |t| of lag-1 symbol cross-covariance, cluster-robust over the drawn "
                  f"pairs, family-adjusted 3-sigma Student-t level on {lag_df} df")
    else:
        z_lag, thr_lag = 0.0, _family_z(n_dim * n_dim)
        detail = ("max |z| of lag-1 symbol cross-covariance, family-adjusted 3-sigma level "
                  "(single symbol per block)")
    checks.append(ConstraintCheck(
        name="iid_across_channel_uses",
        passed=z_lag <= thr_lag,
        observed=z_lag,
        threshold=thr_lag,
        detail=detail,
    ))

    # the rows emission reads, against sizes worked out here from the rates
    # alone, not by the codeword_counts() that build_codebooks sized them with
    rates = codebook.rates
    for name, count, r, rate in (("gaussian", len(top.table) // len(top.signs),
                                  rates.gaussian_rate, "R_Y"),
                                 ("sign", len(top.signs), rates.sign_rate, "R_B")):
        gap = abs(count - math.ceil(math.exp(rates.block_length * r)))
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
