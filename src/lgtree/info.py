"""Information measures on latent Gaussian trees.

Four kinds of quantities live here:

* closed-form Gaussian mutual information between the observed block and
  the hidden block, either from three determinants or, for leaf-observed
  trees, from the observed covariance alone via triple ratios;
* the sign-marginal MI, computed exactly from the observed laws of the
  sign variants (the Gaussian maximum-entropy bound, which is tight at the
  zero that sign equivalence implies);
* Monte Carlo estimates for the mixture model in which each hidden node's
  sign is an independent +/-1 Bernoulli input: the sign MI conditioned on
  the Gaussian inputs and the Gaussian-input MI;
* a grid search for the sign bias that maximises the conditional sign MI.

All values are in nats.  Mixture log densities are exact sums over sign
flips, factorised over coupling groups of sources.  Removing the sources
from the tree leaves components that are independent given the sources
(the global Markov property of the tree, Lauritzen, *Graphical Models*,
1996, section 3.2), each seeing only the sources next to it; with the
signs independent a priori, the prior-weighted sum over the 2^k flips is
the product over groups of sums over the 2^|group| flips of each group.
A source next to no target leaves the target law unchanged and is not
enumerated.  The inner mixtures are pi-weighted: the conditional density
given the Gaussian inputs is approximated by sum_b pi(b) p(x | y, b), the
prior-weighted average rather than the sign-posterior one.  The two
coincide whenever the sign posterior given the inputs is flat (in
particular for a single hidden node), the chain identity with the fixed
total holds for either choice, and the pi-weighted form is what makes the
conditional sign MI split exactly across leaf groups.

One Monte Carlo core serves every mixture estimator.  It draws sign
uniforms u, source values g and target noise in fixed batches; the targets
see only g, so the density ratio of every relative sign flip is evaluated
once per batch, independent of the prior.  A prior pi then sets the signs
b = (u < pi) and reweights those ratios, one source at a time.  The
estimates accumulate as running sums, so memory does not grow with
``samples``, and a whole pi grid is evaluated on one draw.  Every estimator
is deterministic given (seed, samples).

The core keeps sources, signal coordinates and enumerated flips along the
rows of its arrays and samples along the columns.  Every product is then a
small (k, k) matrix times a (k, m) block of contiguous rows, written in
place into buffers sized once per draw, so no batch allocates its
intermediates afresh.  In each group's flip table the drawn flip has log
ratio exactly 0, so only the other 2^|group| - 1 rows are computed and the
drawn row is exp(-shift).  The max shift that keeps exp() finite runs only
when some log ratio in the chunk exceeds EXP_CEILING; otherwise the shift is
0 and the table is exp() of the log ratios as they are.

The target noise is drawn only in the block's signal subspace.  Whitened by
the conditional covariance L L^T, the targets are L^-1 x = W g + z with
W = L^-1 gain and z ~ N(0, I).  Let Q be an orthonormal basis of the
columns of W that belong to coupled sources (a source in no coupling group
has a zero gain column), so r = min(n_t, #coupled), and a = Q^T W.  Then
z = Q e + z_perp, and z_perp is N(0, I) both given g and marginally, so it
cancels from log p(x | g) - log p(x) = log N(e; 0, I) -
log N(a g + e; 0, I + a S_s a^T), and it never meets a flip, because
z . W_j = e . a_j.  Each sample therefore draws k_s + r normals, not
k_s + n_t, and the estimates are those of the full draw sample by sample:
r = 1 on star, 2 on dumbbell, 5 on two_layer's observed | hidden block (its
top node u is coupled to no target) and 1 on its observed | layer 2 block,
the channel that synthesis codes.

MIXTURE_ENUM_CAP caps each coupling group, not the block: a leaf-observed
tree has one source per group and runs at any k.  The sign-marginal MI,
which builds one covariance per joint sign vector, keeps the cap on k.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IllConditioned,
    MissingAssignment,
    NotLeafOnly,
    TooManyHidden,
    ValidationError,
    WrongShape,
)
from .signs import SignAssignment, apply_sign_assignment
from .trees import GaussianTree, PD_EIG_FLOOR, checked_observed_block, joint_covariance, squared_gain

CLOSED_FORM = "closed_form"
DIRECT_GAUSSIAN = "direct_gaussian"
MONTE_CARLO = "monte_carlo"

MIXTURE_ENUM_CAP = 12   # cap on jointly enumerated signs: per group, and mi_sign_marginal's k
MIN_MC_SAMPLES = 1000   # below this the error bars are not worth reporting
GRID_CAP = 2**12        # cap on optimize_pi grid points


@dataclass(frozen=True)
class MIResult:
    value: float
    std_error: float
    method: str
    samples_used: int

    def as_dict(self) -> dict:
        return {
            "value_nats": self.value,
            "std_error": self.std_error,
            "method": self.method,
            "samples": self.samples_used,
        }


@dataclass(frozen=True)
class BernoulliParams:
    """Probability that each hidden node's sign input is +1."""

    probs: tuple[tuple[str, float], ...]

    @staticmethod
    def make(mapping) -> "BernoulliParams":
        items = tuple((str(h), float(p)) for h, p in dict(mapping).items())
        bad = [h for h, p in items if not 0.0 <= p <= 1.0]
        if bad:
            raise ValidationError(f"sign bias of {bad} must lie in [0, 1]")
        return BernoulliParams(items)

    @staticmethod
    def uniform(tree: GaussianTree, p: float = 0.5) -> "BernoulliParams":
        return BernoulliParams.make({h: p for h in tree.hidden})

    def as_dict(self) -> dict[str, float]:
        return dict(self.probs)

    def vector_for(self, nodes) -> np.ndarray:
        table = self.as_dict()
        missing = [n for n in nodes if n not in table]
        if missing:
            raise MissingAssignment(f"no sign bias for hidden node(s) {missing}")
        return np.array([table[n] for n in nodes], dtype=float)


def _require_samples(samples: int):
    if samples < MIN_MC_SAMPLES:
        raise ValidationError(
            f"field 'samples' must be at least {MIN_MC_SAMPLES}, got {samples}"
        )


def _chol(mat: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise IllConditioned(f"{what} is not numerically positive definite")


class _Gauss:
    """Zero-mean multivariate normal with cached factorizations."""

    def __init__(self, cov: np.ndarray, what: str):
        self.cov = np.asarray(cov, dtype=float)
        self.chol = _chol(self.cov, what)
        self.inv_chol = np.tril(np.linalg.inv(self.chol))
        self.logdet = 2.0 * float(np.sum(np.log(np.diag(self.chol))))
        self._const = -0.5 * (self.logdet + len(self.cov) * math.log(2.0 * math.pi))
        for arr in (self.cov, self.chol, self.inv_chol):
            arr.setflags(write=False)   # memoised blocks share them with every caller

    def logpdf(self, z: np.ndarray) -> np.ndarray:
        w = z @ self.inv_chol.T
        return -0.5 * np.einsum("ij,ij->i", w, w) + self._const


class _BlockModel:
    """Gaussian regression of a target node block on a source node block.

    Built from the marginal path-product covariance over the union; the
    sign flips of the source nodes enter as a diagonal +/-1 conjugation of
    the cross block, so the regression gain for flips b is G0 @ diag(b).
    ``groups`` holds the positions in ``sources`` of each coupling group
    (:func:`_coupling_groups`).  ``basis`` is Q, the orthonormal basis of
    the signal subspace, ``signal_gain`` the gain a within it and
    ``signal`` the law N(0, I + a S_s a^T) of a g + e (module docstring).
    Build it through :func:`_block`, once per tree.
    """

    def __init__(self, tree: GaussianTree, targets, sources):
        self.targets = tuple(targets)
        self.sources = tuple(sources)
        cov = joint_covariance(tree).joint
        t_idx = [tree.node_order[v] for v in self.targets]
        s_idx = [tree.node_order[v] for v in self.sources]
        self.sigma_t = cov[np.ix_(t_idx, t_idx)]
        self.sigma_s = cov[np.ix_(s_idx, s_idx)]
        self.cross = cov[np.ix_(t_idx, s_idx)]
        self.marg_t = _Gauss(self.sigma_t, "target covariance")
        self.marg_s = _Gauss(self.sigma_s, "source covariance")
        self.gain = np.linalg.solve(self.sigma_s, self.cross.T).T
        resid = self.sigma_t - self.gain @ self.cross.T
        resid = (resid + resid.T) / 2.0
        if np.min(np.linalg.eigvalsh(resid)) <= PD_EIG_FLOOR:
            raise IllConditioned("conditional covariance of the target block is singular")
        self.noise = _Gauss(resid, "conditional covariance")
        self.groups = _coupling_groups(tree, self.targets, self.sources)
        # the signal subspace: an orthonormal basis Q of the whitened gain
        # columns of the coupled sources, so r = min(n_t, #coupled), and the
        # gain a = Q^T L^-1 gain within it (zero columns for uncoupled sources)
        coupled = sorted(itertools.chain.from_iterable(self.groups))
        self.basis, coupled_gain = _signal_basis(self.noise.inv_chol, self.gain[:, coupled])
        self.signal_gain = np.zeros((self.basis.shape[1], len(self.sources)))
        self.signal_gain[:, coupled] = coupled_gain
        a = self.signal_gain
        self.signal = _Gauss(np.eye(len(a)) + a @ self.sigma_s @ a.T, "signal covariance")

    def gaussian_mi(self) -> float:
        """MI between the blocks with signs held fixed (they drop out)."""
        sign_t, ld_t = np.linalg.slogdet(self.sigma_t)
        sign_s, ld_s = np.linalg.slogdet(self.sigma_s)
        joint = np.block([[self.sigma_t, self.cross], [self.cross.T, self.sigma_s]])
        sign_j, ld_j = np.linalg.slogdet(joint)
        if min(sign_t, sign_s, sign_j) <= 0:
            raise IllConditioned("block covariances are not positive definite")
        return 0.5 * (ld_t + ld_s - ld_j)


def _signal_basis(inv_chol: np.ndarray, gain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q, the reduced-QR basis of the whitened gain W = L^-1 gain, and the
    gain a = Q^T W within it.  Q has min(n, k) columns for an (n, k) gain:
    its size is read off the structure, never off numerical zeros, and every
    W g lies in its span.  Each column's sign is fixed so that diag(R) < 0,
    which makes the QR unique (Golub and Van Loan, *Matrix Computations*,
    5.2); Householder would otherwise take it from rounding noise wherever
    a column's leading entry is an exact zero."""
    white_gain = inv_chol @ gain
    basis, r = np.linalg.qr(white_gain)
    basis = basis * np.where(np.diag(r) > 0.0, -1.0, 1.0)
    return basis, basis.T @ white_gain


def _coupling_groups(tree: GaussianTree, targets, sources) -> tuple[tuple[int, ...], ...]:
    """Positions in ``sources`` of the groups whose sign flips must be
    enumerated jointly, read off the tree's adjacency.

    Removing the sources splits the tree into components.  Given the
    sources, the targets of different components are independent, and those
    of one component see only the sources next to it; so sources next to a
    common target-holding component are coupled, and the groups are the
    classes of that relation (union-find).  A source next to no
    target-holding component is in no group: its flip leaves the target law
    unchanged.  Groups list positions in increasing order and are ordered by
    their first position.
    """
    pos = {s: i for i, s in enumerate(sources)}
    targets = set(targets)
    parent = list(range(len(sources)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    coupled: set[int] = set()
    seen = set(sources)
    for start in tree.nodes:
        if start in seen:
            continue
        seen.add(start)
        stack, near, holds_target = [start], set(), False
        while stack:
            node = stack.pop()
            holds_target = holds_target or node in targets
            for nbr, _ in tree.adjacency[node]:
                if nbr in pos:
                    near.add(pos[nbr])
                elif nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        if holds_target and near:
            first = find(min(near))
            for j in near:
                parent[find(j)] = first
            coupled |= near
    groups: dict[int, list[int]] = {}
    for j in sorted(coupled):
        groups.setdefault(find(j), []).append(j)
    return tuple(tuple(g) for g in groups.values())


def _block(tree: GaussianTree, targets, sources) -> _BlockModel:
    """The regression of ``targets`` on ``sources``, built once per tree."""
    key = (tuple(targets), tuple(sources))
    if key not in tree._blocks:
        tree._blocks[key] = _BlockModel(tree, *key)
    return tree._blocks[key]


def _enumerate_signs(count: int) -> np.ndarray:
    if count > MIXTURE_ENUM_CAP:
        raise TooManyHidden(
            f"mixture enumeration over {count} sign inputs exceeds the cap of "
            f"{MIXTURE_ENUM_CAP}"
        )
    return np.array(list(itertools.product((1.0, -1.0), repeat=count)))


def _log_prior(signs: np.ndarray, p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        lp = np.where(signs > 0, np.log(p), np.log1p(-p))
    return lp.sum(axis=1)


# Every seeded draw in the library takes one named substream of the caller's
# seed: SeedSequence((seed,) + STREAMS[name] + index).  The tuples fix every
# seeded output, so an entry never changes.  "mixture" is shared on purpose:
# optimize_pi reweights the draw of mixture_mi_profile, so each curve point
# equals the profile.  The "*_seed" entries give the integer seed of a nested
# seeded call, which then takes entries of its own; "rate_bound_seed" at
# layers 1 to 3 spells the same tuples as the other three, but each feeds a
# different nested call, so no draw is shared.
STREAMS = {
    "mixture": (0,),             # mixture_mi_profile and optimize_pi
    "block_mixture": (2,),       # block_mi_mixture
    "decomposition": (3,),       # decomposition_check
    "codebook_signs": (11,),     # + layer: build_codebooks' sign table
    "codeword_noise": (13,),     # + layer: Philox key of the pair codewords
    "pair_index": (21,),         # synthesize: the top-layer pair of each run
    "innovation": (22,),         # synthesize: lower layers' and outputs' noise
    "lower_signs": (23,),        # synthesize: signs below the top layer
    "emission_seed": (31, 1),    # estimate_divergence -> synthesize
    "rate_check_seed": (31, 2),  # estimate_divergence -> rate_region_check
    "constraint_seed": (31, 3),  # verify_encoding_constraints -> synthesize
    "rate_bound_seed": (31,),    # + layer: rate_region_check -> block_mi_mixture
}


def _stream(seed: int, name: str, *index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((int(seed),) + STREAMS[name] + index)


def _rng(seed: int, name: str, *index: int) -> np.random.Generator:
    return np.random.default_rng(_stream(seed, name, *index))


def _seed(seed: int, name: str, *index: int) -> int:
    """The integer seed handed to a nested seeded call."""
    return int(_stream(seed, name, *index).generate_state(1)[0])


SAMPLE_BATCH = 8192    # samples drawn per batch; the draw order is part of the contract
EVAL_CELLS = 2**20     # (sample, enumerated flip) cells evaluated at once
EXP_CEILING = 700.0    # log density ratios are shifted below this before exp()


class _Running:
    """Count, mean and sum of squared deviations of a per-sample estimate,
    merged chunk by chunk (Chan et al.), so no estimate keeps its samples."""

    def __init__(self):
        self.n, self.mean, self.m2 = 0, 0.0, 0.0

    def add(self, values: np.ndarray) -> "_Running":
        m = values.size
        mean = float(values.sum()) / m
        dev = values - mean
        n = self.n + m
        delta = mean - self.mean
        self.mean += delta * (m / n)
        self.m2 += float(dev @ dev) + delta * delta * (self.n * m / n)
        self.n = n
        return self

    def result(self, negated: bool = False) -> MIResult:
        """The mean and its standard error; ``negated`` gives those of the
        negated estimate, which negation carries exactly through every merge."""
        se = math.sqrt(self.m2 / (self.n - 1) / self.n) if self.n > 1 else 0.0
        return MIResult(0.0 - self.mean if negated else self.mean, se, MONTE_CARLO, self.n)


class _Buffers:
    """Flat scratch arrays kept for the whole of one draw, so that every
    batch and chunk writes its intermediates in place instead of allocating
    them anew.  ``rows(key, n, m)`` views the leading n * m entries of the
    buffer named ``key`` as a contiguous (n, m) array.  No later chunk is
    wider than the first, so every buffer is allocated during the first."""

    def __init__(self):
        self._flat: dict = {}

    def rows(self, key, n: int, m: int) -> np.ndarray:
        flat = self._flat.get(key)
        if flat is None or flat.size < n * m:
            flat = self._flat[key] = np.empty(n * m)
        return flat[:n * m].reshape(n, m)


class _MixtureChunk:
    """A slice of the mixture draw with its prior-free per-sample terms.

    The draw is (u, g, e): uniforms that set the sign inputs b = (u < pi)
    for any prior pi, the source values g = b * y that the targets actually
    see, and the target noise e in the r-dimensional signal subspace of the
    block.  The whitened targets are L^-1 x = Q (a g + e) + z_perp
    (:class:`_BlockModel`), and z_perp has the same law N(0, I) given g
    and alone, so it cancels from every density ratio; ``v`` = a g + e is
    all of x that any estimate reads.  ``tot`` is
    log p(x | g) - log p(x) = log N(e; 0, I_r) - log N(v; 0, I_r + a S_s a^T).
    Since v does not involve b, neither does the density ratio of each
    relative flip c of the sources.  The ratio is a product over the
    coupling groups, so ``factors`` holds one (positions, shift, dens) per
    group, where dens[c] = exp(-shift) p(x | c o g) / p(x | g) for the flips
    c of that group alone.

    Layout: sources, signal coordinates and flips index the rows and samples
    the columns, so every product is a small (k, k) matrix times a (k, m)
    block of contiguous rows, written in place into the draw's
    :class:`_Buffers`; ``g``, ``e`` and ``v`` are sample-major (transposed)
    views of those rows.  The products go through ``np.dot``: ``np.matmul``
    leaves BLAS for a slow generic loop when the inner dimension is 1, as it
    is for a singleton group or a block with r = 1.  The drawn flip c = +1, row 0 of ``dens``, has log
    ratio exactly 0, so only the other 2^|group| - 1 rows are computed and
    row 0 is exp(-shift).  The shift brings every log ratio of a sample
    below EXP_CEILING; the max-shift pass runs only when some ratio in the
    chunk exceeds the ceiling, and otherwise ``shift`` is the scalar 0.0.
    A chunk's arrays alias the draw's buffers: read them before the next
    chunk is drawn.
    """

    def __init__(self, model: _BlockModel, enumerated, u, g, e, buf: _Buffers):
        r, m = e.shape
        a = model.signal_gain
        self.u = u
        v = np.dot(a, g, out=buf.rows("v", r, m))
        v += e
        self.g, self.e, self.v = g.T, e.T, v.T
        # tot = 1/2 (log det + |W v|^2 - |e|^2), W = signal.inv_chol, each
        # squared norm summed over the rows in turn
        sq = np.dot(model.signal.inv_chol, v, out=buf.rows("sq", r, m))
        sums = buf.rows("sums", 2, m)
        self.tot = np.add.reduce(np.square(sq, out=sq), axis=0, out=sums[0])
        self.tot += model.signal.logdet
        self.tot -= np.add.reduce(np.square(e, out=sq), axis=0, out=sums[1])
        self.tot *= 0.5
        # whitened, x - gain (c o g) = z + 2 W (f o g) with f = (1 - c) / 2, and
        # z . W_j = e . a_j, W_j . W_l = a_j . a_l, so the log ratio of flip f
        # is -2 [f . (g o a^T e) + (f o g)^T a^T a (f o g)], taken over the
        # rows g_j (a^T e)_j and g_j g_l of the group
        ea = np.dot(a.T, e, out=buf.rows("ea", len(a.T), m))
        self.factors = []
        for i, (idx, flips, pair_gram) in enumerate(enumerated):
            k = len(idx)
            gs = g[idx]
            linear = np.multiply(gs, ea[idx], out=buf.rows("linear", k, m))
            quad = buf.rows("quad", k * k, m)
            np.multiply(gs[:, None], gs[None, :], out=quad.reshape(k, k, m))
            dens = buf.rows(("dens", i), len(flips) + 1, m)
            log_dens = np.dot(flips, linear, out=dens[1:])
            log_dens += np.dot(pair_gram, quad, out=buf.rows("pairs", len(flips), m))
            if log_dens.max() > EXP_CEILING:
                shift = np.maximum(log_dens.max(axis=0) - EXP_CEILING, 0.0)
                log_dens -= shift
                np.exp(-shift, out=dens[0])
            else:
                shift = 0.0
                dens[0] = 1.0
            np.exp(log_dens, out=log_dens)
            self.factors.append((idx, shift, dens))

    def _group_term(self, idx, shift, s, p: np.ndarray) -> np.ndarray:
        """One group's log sum_c pi(b o c) p(x | c o g) / p(x | g).

        The prior is a product over sources, so the sum contracts one source
        at a time, weighting the drawn sign by its prior r and the flipped
        one by 1 - r.  A zero-prior component gets weight exactly 0, so a
        group whose prior entries are all 0 or 1 weights only the drawn flip,
        of ratio 1: its term is exactly 0 whatever the shift.  With only some
        entries in {0, 1}, a shift set by a zero-weight flip can underflow
        every weighted row, and the term is -inf."""
        if all(p[j] in (0.0, 1.0) for j in idx):
            return np.zeros(s.shape[-1])
        for j in reversed(idx):
            r = np.where(self.u[j] < p[j], p[j], 1.0 - p[j])
            s = s.reshape(-1, 2, s.shape[-1])
            s = s[:, 0] * r + s[:, 1] * (1.0 - r)
        term = np.log(s[0])
        if np.ndim(shift):      # the max shift ran on this chunk
            term += shift
        return term

    def log_ratios(self, priors):
        """log sum_c pi(b o c) p(x | c o g) - log p(x | g) at each sign prior
        in ``priors`` in turn: the sum of the groups' terms, and exactly 0 at
        p in {0, 1}.  A group's term is kept while a later prior has the same
        entries for that group, so a grid contracts each group once per
        distinct value of its own entries (11 times for each of dumbbell's two
        groups on an 11 x 11 sweep), and a sweep whose entries never recur
        holds no terms.  With a single group the yielded array is that
        group's term itself: read it, do not write it."""
        priors = list(priors)
        keys = [[tuple(p[idx]) for p in priors] for idx, _, _ in self.factors]
        last = [{key: n for n, key in enumerate(col)} for col in keys]   # last use
        held = [{} for _ in self.factors]      # prior entries -> term, per group
        for n, p in enumerate(priors):
            terms = []
            for col, ends, kept, (idx, shift, s) in zip(keys, last, held, self.factors):
                key = col[n]
                term = kept.pop(key) if key in kept else self._group_term(idx, shift, s, p)
                if ends[key] > n:
                    kept[key] = term
                terms.append(term)
            yield sum(terms[1:], terms[0]) if terms else np.zeros(self.u.shape[1])

    def log_ratio(self, p: np.ndarray) -> np.ndarray:
        """:meth:`log_ratios` at the single prior ``p``."""
        return next(self.log_ratios([p]))

    def signs(self, p: np.ndarray) -> np.ndarray:
        """The +/-1 sign inputs drawn at prior ``p``."""
        return np.where(self.u.T < p, 1.0, -1.0)


def _mixture_chunks(model: _BlockModel, samples: int, rng, groups=None):
    """Stream a deterministic draw of the (signs, sources, targets) model.

    Each batch of SAMPLE_BATCH samples draws the sign uniforms, the source
    values and the signal-subspace target noise, in that order, off one
    generator; each draw is copied into the rows of the draw's buffers and
    freed before the next is made.  The batch is evaluated in slices of at
    most EVAL_CELLS (sample, enumerated flip) cells, counting the 2^|group|
    flips of every group.  ``groups`` lists the source positions enumerated
    jointly, by default the model's coupling groups; a group of more than
    MIXTURE_ENUM_CAP sources raises TooManyHidden.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    ks, r = len(model.sources), len(model.signal_gain)
    coupling = model.signal_gain.T @ model.signal_gain
    enumerated = []
    for idx in model.groups if groups is None else groups:
        idx = list(idx)
        flips = (1.0 - _enumerate_signs(len(idx))) / 2.0  # 1 marks a flipped source
        pair_gram = (flips[:, :, None] * flips[:, None, :]
                     * coupling[np.ix_(idx, idx)]).reshape(len(flips), -1)
        # row 0 is the drawn flip, whose log ratio is exactly 0; the factor -2
        # of the log ratio is a power of two, so scaling the tables by it
        # scales every product exactly
        enumerated.append((idx, -2.0 * flips[1:], -2.0 * pair_gram[1:]))
    rows = max(1, EVAL_CELLS // max(1, sum(len(flips) + 1 for _, flips, _ in enumerated)))
    buf = _Buffers()
    for start in range(0, samples, SAMPLE_BATCH):
        m = min(SAMPLE_BATCH, samples - start)
        u = buf.rows("u", ks, m)
        u[...] = rng.random((m, ks)).T
        g = buf.rows("g", ks, m)
        np.dot(model.marg_s.chol, rng.standard_normal((m, ks)).T, out=g)
        e = buf.rows("e", r, m)
        e[...] = rng.standard_normal((m, r)).T
        for lo in range(0, m, rows):
            sl = slice(lo, lo + rows)
            yield _MixtureChunk(model, enumerated, u[:, sl], g[:, sl], e[:, sl], buf)


def _mixture_profile(model: _BlockModel, p: np.ndarray, samples: int, rng) -> dict[str, MIResult]:
    """Gaussian-input MI, conditional sign MI and their total under the sign
    prior vector ``p``, from one draw."""
    total, inputs, ratios = _Running(), _Running(), _Running()
    for chunk in _mixture_chunks(model, samples, rng):
        ratio = chunk.log_ratio(p)
        total.add(chunk.tot)
        inputs.add(chunk.tot + ratio)         # log_pred - log p(x)
        ratios.add(ratio)
    # the sign term is -ratio, whose running sums are those of ratio negated
    return {"inputs": inputs.result(), "signs_given_inputs": ratios.result(negated=True),
            "total": total.result()}


def mixture_mi_profile(
    tree: GaussianTree, pi: BernoulliParams, samples: int, seed: int
) -> dict[str, MIResult]:
    """Joint Monte Carlo estimates, from shared draws, of the Gaussian-input
    MI, the conditional sign MI, and their total (which has a fixed
    closed-form value)."""
    _require_samples(samples)
    model = _block(tree, tree.observed, tree.hidden)
    return _mixture_profile(model, pi.vector_for(model.sources), samples, _rng(seed, "mixture"))


def mi_direct(tree: GaussianTree) -> MIResult:
    """MI between observed and hidden blocks from the three determinants."""
    if tree.k == 0:
        return MIResult(0.0, 0.0, DIRECT_GAUSSIAN, 0)
    return block_mi_fixed(tree, tree.observed, tree.hidden)


def mi_closed_form(
    sigma_x: np.ndarray,
    structure: GaussianTree,
) -> MIResult:
    """MI between observed and hidden blocks from the observed covariance
    alone, for trees whose observed nodes are all leaves.

    For each observed node the squared correlation to its adjacent hidden
    node is a triple ratio of observed correlations; every valid witness
    triple must agree.  The structure argument supplies only the tree shape;
    its stored edge weights are never read.
    """
    sigma_x = checked_observed_block(sigma_x, structure)
    hid = set(structure.hidden)
    for o in structure.observed:
        if len(structure.adjacency[o]) != 1:
            raise NotLeafOnly(f"observed node {o!r} is not a leaf")
        if structure.adjacency[o][0][0] not in hid:
            raise NotLeafOnly(f"observed node {o!r} has no adjacent hidden node")

    log_den = 0.0
    for o in structure.observed:
        log_den += math.log1p(-squared_gain(sigma_x, structure, o, structure.adjacency[o][0][0]))

    sign, logdet = np.linalg.slogdet(sigma_x)
    if sign <= 0:
        raise IllConditioned("observed covariance is not positive definite")
    return MIResult(float(0.5 * (logdet - log_den)), 0.0, CLOSED_FORM, 0)


def _mixture_entropy_gap(weights, covs) -> float:
    """U = 1/2 [log det S - sum_b w_b log det S_b] for the zero-mean laws
    N(0, S_b) mixed with weights w_b (normalised here), S = sum_b w_b S_b.

    S is the mixture's covariance, and no law of a given covariance has more
    entropy than the Gaussian (Cover and Thomas, *Elements of Information
    Theory*, 2nd ed., Thm 8.6.5), so U bounds the MI between a draw and its
    component label: 0 <= I <= U.  log det is strictly concave, so with
    positive weights U = 0 only when every S_b is the same.  S is
    accumulated as S_0 + sum_b w_b (S_b - S_0) and each log det S_b is
    subtracted from log det S before weighting, so identical laws give
    exactly 0.0.
    """
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    covs = np.asarray(covs, dtype=float)
    mean = covs[0] + np.einsum("b,bij->ij", w, covs - covs[0])
    sign, logdet = np.linalg.slogdet(np.concatenate([mean[None], covs]))
    if np.any(sign <= 0):
        raise IllConditioned("mixture component covariance is not positive definite")
    return 0.5 * float(w @ (logdet[0] - logdet[1:]))


def mi_sign_marginal(
    tree: GaussianTree, pi: BernoulliParams, samples: int, seed: int
) -> MIResult:
    """MI between the observed vector and the sign vector, in closed form.

    Each sign vector b with prior pi(b) > 0 is applied to the tree with
    :func:`apply_sign_assignment`, and the observed block S_b of that
    variant's :func:`joint_covariance` is its observed law N(0, S_b); the
    observed vector is their pi-mixture.  The result is the entropy gap
    U = 1/2 [log det S - sum_b pi(b) log det S_b], S = sum_b pi(b) S_b, an
    upper bound with 0 <= I(X; B) <= U (:func:`_mixture_entropy_gap`).  Sign
    flips leave the observed covariance unchanged, so on a valid tree every
    S_b is the same, U is exactly 0 and so is I(X; B); U turns positive as
    soon as one variant's observed law differs.  A prior with all its mass
    on one sign vector (pi in {0, 1}, or no hidden nodes) builds a single
    variant and gives exactly 0.0.  More than MIXTURE_ENUM_CAP hidden nodes
    raise TooManyHidden.

    ``samples`` and ``seed`` keep the signature of the Monte Carlo
    estimators, which the benchmark's span tracer (``bench/spans.py``) binds
    by name; ``samples`` must still reach MIN_MC_SAMPLES, and ``seed`` is
    not read.
    """
    _require_samples(samples)
    signs = _enumerate_signs(tree.k)
    log_prior = _log_prior(signs, pi.vector_for(tree.hidden))
    keep = log_prior > -np.inf
    covs = []
    for row in signs[keep]:
        flips = SignAssignment.make(dict(zip(tree.hidden, row.astype(int))))
        covs.append(joint_covariance(apply_sign_assignment(tree, flips)).observed_block)
    return MIResult(_mixture_entropy_gap(np.exp(log_prior[keep]), covs), 0.0, CLOSED_FORM, 0)


def block_mi_fixed(tree: GaussianTree, targets, sources) -> MIResult:
    """Gaussian MI between two node blocks with signs held fixed."""
    return MIResult(_block(tree, targets, sources).gaussian_mi(), 0.0, DIRECT_GAUSSIAN, 0)


def block_mi_mixture(
    tree: GaussianTree, targets, sources, pi: BernoulliParams, samples: int, seed: int
) -> dict[str, MIResult]:
    """Mixture MI profile between arbitrary node blocks, with sign inputs on
    the source block only.  Used for the top layer's rate bounds."""
    _require_samples(samples)
    model = _block(tree, targets, sources)
    return _mixture_profile(model, pi.vector_for(model.sources), samples, _rng(seed, "block_mixture"))


def _dumbbell_groups(tree: GaussianTree) -> tuple[str, str, tuple, tuple]:
    if tree.k != 2:
        raise WrongShape("decomposition check needs exactly two hidden nodes")
    h1, h2 = tree.hidden
    if tree.layer[h1] != 1 or tree.layer[h2] != 1:
        raise WrongShape("both hidden nodes must sit next to observed leaves")
    if not any({u, v} == {h1, h2} for u, v, _ in tree.spec.edges):
        raise WrongShape("the two hidden nodes must be adjacent")
    g1 = tuple(nbr for nbr, _ in tree.adjacency[h1] if nbr in tree.observed)
    g2 = tuple(nbr for nbr, _ in tree.adjacency[h2] if nbr in tree.observed)
    if len(g1) < 2 or len(g2) < 2:
        raise WrongShape("each hidden node needs at least two observed leaves")
    if set(g1) | set(g2) != set(tree.observed):
        raise WrongShape("every observed node must attach to one of the two hidden nodes")
    return h1, h2, g1, g2


def decomposition_check(
    tree: GaussianTree, pi: BernoulliParams, samples: int, seed: int
) -> tuple[MIResult, MIResult]:
    """Check the split of the conditional sign MI across the two leaf groups
    of a two-hidden-node tree.

    Returns (lhs, rhs): the full conditional sign MI and the sum of the two
    per-group conditional MIs, estimated from shared draws.
    """
    _require_samples(samples)
    h1, h2, g1, g2 = _dumbbell_groups(tree)
    model = _block(tree, tree.observed, tree.hidden)
    p = pi.vector_for(model.sources)
    lhs, rhs = _Running(), _Running()
    # a group's log likelihood given its hidden value h is, up to terms free
    # of h, h T_h - h^2 S_h / 2 with T_h = sum_o rho_o x_o / sigma_o^2 = a_h . v
    # and S_h = sum_o rho_o^2 / sigma_o^2, sigma_o^2 = 1 - rho_o^2
    groups = []
    for h, group in ((h1, g1), (h2, g2)):
        rho = np.array([tree.edge_rho(h, o) for o in group])
        j = model.sources.index(h)
        groups.append((j, model.signal_gain[:, j], float(np.sum(rho**2 / (1.0 - rho**2)))))
    # the left side enumerates both signs jointly, so the split is tested
    # here, not assumed by the coupling groups
    joint = (tuple(range(len(model.sources))),)
    for chunk in _mixture_chunks(model, samples, _rng(seed, "decomposition"), joint):
        lhs.add(0.0 - chunk.log_ratio(p))
        y = chunk.signs(p) * chunk.g
        rhs_vals = np.zeros(len(y))
        for j, a_h, s_h in groups:
            t_h = chunk.v @ a_h

            def group_loglik(hidden_vals: np.ndarray) -> np.ndarray:
                return hidden_vals * t_h - 0.5 * s_h * hidden_vals**2

            num = group_loglik(chunk.g[:, j])
            lse_pred = np.full(len(y), -np.inf)
            for sign, prob in ((1.0, p[j]), (-1.0, 1.0 - p[j])):
                if prob == 0.0:
                    continue
                lse_pred = np.logaddexp(lse_pred, math.log(prob) + group_loglik(sign * y[:, j]))
            rhs_vals += num - lse_pred
        rhs.add(rhs_vals)
    return lhs.result(), rhs.result()


def optimize_pi(
    tree: GaussianTree,
    grid_step: float,
    samples: int,
    seed: int,
) -> tuple[BernoulliParams, list[tuple[tuple[float, ...], MIResult]]]:
    """Grid search for the sign bias maximising the conditional sign MI.

    Sweeps a shared grid for one hidden node, a per-node grid for two, and a
    symmetric (all-equal) sweep beyond that; a grid of more than GRID_CAP
    points is refused before it is built.  The objective is a Monte Carlo
    estimate, so the argmax is resolved to grid resolution only.  The whole
    sweep shares one draw of ``samples`` from the master seed, reweighted at
    each grid point: every curve point equals
    ``mixture_mi_profile(tree, pi, samples, seed)`` at that point, and
    neighbouring points (mirror images too) carry correlated errors.
    """
    if tree.k == 0:
        raise ValidationError("tree has no hidden nodes, so it has no sign bias to optimise")
    if not (0.0 < grid_step <= 0.25):
        raise ValidationError(f"grid_step must lie in (0, 0.25], got {grid_step}")
    _require_samples(samples)
    # the axis is every multiple of the step below 1, then 1 itself; as
    # 1 / grid_step may round either way, the last multiple may lie past 1
    steps = int(round(min(1.0 / grid_step, GRID_CAP)))   # 1 / 5e-324 is inf
    points = steps + 1 + (round(steps * grid_step, 12) < 1.0)
    if points ** (2 if tree.k == 2 else 1) > GRID_CAP:
        raise ValidationError(f"grid_step {grid_step} gives more than {GRID_CAP} grid points")
    axis = [a for a in (round(i * grid_step, 12) for i in range(steps + 1)) if a < 1.0]
    axis.append(1.0)

    if tree.k == 2:
        grid = [(a, b) for a in axis for b in axis]
    else:
        grid = [(a,) * tree.k for a in axis]

    model = _block(tree, tree.observed, tree.hidden)
    params = [BernoulliParams.make(dict(zip(tree.hidden, point))) for point in grid]
    priors = [pi.vector_for(model.sources) for pi in params]
    # the sweep reads only the sign term, so it keeps only the ratio sums
    sums = [_Running() for _ in priors]
    for chunk in _mixture_chunks(model, samples, _rng(seed, "mixture")):
        for ratio, running in zip(chunk.log_ratios(priors), sums):
            running.add(ratio)
    curve = []
    best_idx = 0
    for idx, (point, running) in enumerate(zip(grid, sums)):
        est = running.result(negated=True)
        curve.append((point if tree.k == 2 else (point[0],), est))
        if est.value > curve[best_idx][1].value:
            best_idx = idx
    return params[best_idx], curve
