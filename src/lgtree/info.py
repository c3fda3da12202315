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

Each batch is scored in a few wide passes.  The core keeps sources, signal
coordinates and enumerated flips along the rows of its arrays and samples
along the columns, in buffers sized once per draw, so no batch allocates
its intermediates afresh.  One matrix product of the drawn rows gives every
row that the scores read (:class:`_DrawPlan`).  The coupling groups of one
size are stacked and scored as one block (:class:`_Stack`): in each
group's flip table the drawn flip has log ratio exactly 0, so only the
other 2^|group| - 1 rows are computed and the drawn row is 1.0.  The table
is exp() of the log ratios as they are and is contracted linearly, except
in the (group, sample) cells where some log ratio passes EXP_CEILING: those
are contracted exactly in the log domain, from the log ratios, and no
other cell's value depends on them.  Each estimate plans its priors once per
draw (:class:`_PriorPlan`): which groups each prior contracts, and with
which entries, which held group terms it sums and which it then releases.
One executor runs that plan on every chunk (:meth:`_MixtureChunk.log_ratios`)
for the profile, the decomposition check and the pi sweep alike, and the
estimates are running sums over (estimates, samples) blocks: one update of
the pair (tot, ratio) per batch for a profile, and one per block of up to
16 grid points for a sweep.

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
    "codeword_noise": (13,),     # + layer: the pair codewords' white noise, in pair order
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
EXP_CEILING = 700.0    # past this log density ratio a cell skips exp(), contracted as logs
_SWEEP_POINTS = 16     # sweep points per block: 16 x SAMPLE_BATCH floats, 1 MiB


class _Running:
    """Count, means and centred second moments of the rows of (rows,
    samples) blocks of per-sample estimates, merged block by block (Chan et
    al.), so no estimate keeps its samples.  ``m2`` holds each row's sum of
    squared deviations; with ``cross`` it holds the sums of products of
    every pair of rows, from which the moments of a sum of rows follow."""

    def __init__(self, rows: int, cross: bool = False):
        self.n = 0
        self.mean = np.zeros(rows)
        self.m2 = np.zeros((rows, rows) if cross else rows)

    def add(self, block: np.ndarray) -> None:
        """Merge the samples along the columns of ``block``: one row sum,
        one centring (in place) and one call for the row dot products."""
        m = block.shape[1]
        mean = block.sum(axis=1) / m
        block -= mean[:, None]
        if self.m2.ndim == 2:
            m2, outer = np.einsum("ij,kj->ik", block, block), np.multiply.outer
        else:
            m2, outer = np.einsum("ij,ij->i", block, block), np.multiply
        n = self.n + m
        delta = mean - self.mean
        self.mean += delta * (m / n)
        self.m2 += m2 + outer(delta, delta) * (self.n * m / n)
        self.n = n

    def result(self, row: int, negated: bool = False) -> MIResult:
        """The mean of one row and its standard error; ``negated`` gives those
        of the negated estimate, which negation carries exactly through every
        merge."""
        m2 = self.m2[row, row] if self.m2.ndim == 2 else self.m2[row]
        mean = float(self.mean[row])
        return self._result(0.0 - mean if negated else mean, float(m2))

    def result_of_sum(self) -> MIResult:
        """The estimate whose per-sample value is the sum of rows 0 and 1: its
        squared deviations are those of the two rows and twice their products."""
        m2 = self.m2[0, 0] + self.m2[1, 1] + 2.0 * self.m2[0, 1]
        return self._result(float(self.mean[0] + self.mean[1]), float(m2))

    def _result(self, mean: float, m2: float) -> MIResult:
        se = math.sqrt(m2 / (self.n - 1) / self.n) if self.n > 1 else 0.0
        return MIResult(mean, se, MONTE_CARLO, self.n)


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


class _Stack:
    """The coupling groups of one size k, scored together as one block.

    ``groups`` holds their source positions, also as the (n, k) array
    ``pos``.  Their sources take the rows ``rows`` of the product's g and h
    rows, group after group, so each of those is an (n, k, samples) view;
    the sign uniforms, kept in the sources' order, are gathered at ``pos``.
    The log ratio of flip f (f_j = 1 flips source j) is
    sum_j f_j g_j h_j - 4 sum_{j<l} f_j f_l (a^T a)_jl g_j g_l
    (:class:`_MixtureChunk`); ``mix`` (n, 2^k - 1, k + pairs) maps each
    group's k single-flip terms g_j h_j and its cross products g_j g_l, for
    the source pairs (``first``, ``second``), to the log ratios of every
    flip but the drawn one.  A singleton's one flip is its single-flip term.
    """

    def __init__(self, groups, lo: int, coupling: np.ndarray):
        self.groups = tuple(groups)
        self.pos = np.array(self.groups, dtype=int).reshape(len(self.groups), -1)
        n, k = self.pos.shape
        self.rows = slice(lo, lo + n * k)
        flips = (1.0 - _enumerate_signs(k)[1:]) / 2.0   # row 0, the drawn flip, is left out
        pairs = list(itertools.combinations(range(k), 2))
        self.first = np.array([j for j, _ in pairs], dtype=int)
        self.second = np.array([l for _, l in pairs], dtype=int)
        cross = -4.0 * coupling[self.pos[:, self.first], self.pos[:, self.second]]
        both = flips[:, self.first] * flips[:, self.second]     # flips that move both
        self.mix = np.concatenate([np.broadcast_to(flips, (n,) + flips.shape),
                                   cross[:, None, :] * both], axis=2)


class _DrawPlan:
    """What a draw of one block model evaluates, fixed before its first batch.

    The coupling groups are stacked by size (:class:`_Stack`).  The
    product's rows g and h list the grouped sources stack by stack and group
    by group, g then the sources in no group, and ``inverse`` maps the rows
    of g back to the sources' order.
    ``product`` is the one matrix that takes a batch's drawn rows, the k_s
    source normals n and then the r signal normals e, to the rows g = C n
    (C the Cholesky factor of the source covariance), h_j = -2 (a^T e +
    diag(a^T a) g)_j for each grouped source j, and (W v - e) / 2 and
    W v + e, with v = a g + e and W = signal.inv_chol, whose product gives
    |W v|^2 - |e|^2 without cancelling two squares.  ``cells`` counts the
    2^|group| flips of every group.
    """

    def __init__(self, model: _BlockModel, groups):
        a, chol = model.signal_gain, model.marg_s.chol
        self.ks, self.r = len(model.sources), len(a)
        coupling = a.T @ a
        by_size: dict[int, list] = {}
        for idx in groups:
            by_size.setdefault(len(idx), []).append(tuple(idx))
        self.stacks, order = [], []
        for k in sorted(by_size):
            self.stacks.append(_Stack(by_size[k], len(order), coupling))
            order.extend(itertools.chain.from_iterable(by_size[k]))
        self.kc = len(order)
        self.cells = sum(len(s.groups) << s.pos.shape[1] for s in self.stacks)
        grouped = order[:]
        order.extend(j for j in range(self.ks) if j not in set(grouped))
        self.inverse = np.argsort(order)
        ks, kc, r = self.ks, self.kc, self.r
        self.product = np.zeros((ks + kc + 2 * r, ks + r))
        self.product[:ks, :ks] = chol[order]
        # the factors -2 and 1/2 are powers of two, so they scale exactly
        self.product[ks:ks + kc, :ks] = -2.0 * np.diag(coupling)[grouped, None] * chol[grouped]
        self.product[ks:ks + kc, ks:] = -2.0 * a[:, grouped].T
        inv_chol, white = model.signal.inv_chol, model.signal.inv_chol @ a @ chol
        self.product[ks + kc:ks + kc + r] = np.hstack([white, inv_chol - np.eye(r)]) / 2.0
        self.product[ks + kc + r:] = np.hstack([white, inv_chol + np.eye(r)])


class _PriorPlan:
    """What each prior of one estimate reads of a chunk, fixed before the
    draw's first batch from the stacks of its :class:`_DrawPlan`.

    A group's term depends on the prior only through the group's own
    entries.  A group whose entries all lie in {0, 1} weights only the drawn
    flip, of ratio 1, so its term is exactly 0, and it is left out of the
    sum.  Every other term is contracted at the first prior with its
    entries and held in a slot until the last, so a grid contracts
    each group once per distinct value of its own entries outside {0, 1}
    (9 times for each of dumbbell's two groups on an 11 x 11 sweep), and a
    sweep whose entries never recur holds no terms.  ``steps`` holds, for
    each prior in turn, the contractions, each (stack position, groups,
    their (groups, k) entries, their slots); the slots to sum, stack by
    stack and group by group; and the slots to release after that prior.
    """

    def __init__(self, plan: _DrawPlan, priors):
        table = np.array(priors, dtype=float).reshape(len(priors), plan.ks)
        self.steps = [([], [], []) for _ in table]
        slots, last = {}, []            # (stack, group, entries) -> slot; slot -> last prior
        for at, s in enumerate(plan.stacks):
            entries = table[:, s.pos]                       # (priors, n, k)
            live = ~np.all((entries == 0.0) | (entries == 1.0), axis=2)
            for n, (contract, total, _) in enumerate(self.steps):
                need, fresh = [], []
                for i in np.flatnonzero(live[n]).tolist():
                    slot = slots.setdefault((at, i, tuple(entries[n, i].tolist())), len(last))
                    if slot == len(last):                   # first read: contract it here
                        last.append(n)
                        need.append(i)
                        fresh.append(slot)
                    last[slot] = n
                    total.append(slot)
                if need:
                    contract.append((at, need, entries[n, need], fresh))
        for slot, n in enumerate(last):
            self.steps[n][2].append(slot)
        self.slots = len(last)


class _StackScores:
    """One stack's flip table on a chunk: ``dens[i, c]`` is
    p(x | c o g) / p(x | g) for the flips c of its group i, and ``u`` the
    sign uniforms of its sources, an (n, k, samples) array.  The drawn flip,
    row 0, has log ratio exactly 0, so only the other rows are computed and
    row 0 is 1.0.  A (group, sample) cell whose largest log ratio passes
    EXP_CEILING is ``hot``: exp() could overflow there, so its log ratios
    are zeroed before exp() and it is contracted from ``logs``, the log
    table with the drawn row, in the log domain instead
    (:meth:`_MixtureChunk._log_terms`).  ``hot`` (n, samples) and ``logs``
    are kept only when some cell of the stack is hot, and are None
    otherwise.  The contraction over the last source of each group pairs
    the rows that differ in its flip: ``low`` holds the rows where it is
    not flipped and ``step`` the flipped rows minus those, both
    prior-free."""

    def __init__(self, stack: _Stack, u, g, h, buf: _Buffers):
        n, k = stack.pos.shape
        w = g.shape[1]
        self.stack = stack
        self.u = np.take(u, stack.pos.ravel(), axis=0, mode="clip",
                         out=buf.rows(("u", stack.rows.start), n * k, w)).reshape(n, k, w)
        gs = g[stack.rows].reshape(n, k, w)
        hs = h[stack.rows].reshape(n, k, w)
        self.dens = buf.rows(("dens", stack.rows.start), n << k, w).reshape(n, 1 << k, w)
        logs = self.dens[:, 1:]
        if k == 1:
            np.multiply(gs, hs, out=logs)
        else:
            terms = buf.rows(("terms", stack.rows.start), n * stack.mix.shape[2], w)
            terms = terms.reshape(n, -1, w)
            np.multiply(gs, hs, out=terms[:, :k])
            np.multiply(gs[:, stack.first], gs[:, stack.second], out=terms[:, k:])
            np.matmul(stack.mix, terms, out=logs)
        self.hot, self.logs = None, None
        if logs.max() > EXP_CEILING:
            self.hot = logs.max(axis=1) > EXP_CEILING
            self.logs = np.concatenate([np.zeros((n, 1, w)), logs], axis=1)
            np.copyto(logs, 0.0, where=self.hot[:, None])
        self.dens[:, 0] = 1.0
        np.exp(logs, out=logs)
        self.low = self.dens[:, 0::2]
        self.step = buf.rows(("step", stack.rows.start), n << (k - 1), w).reshape(n, -1, w)
        np.subtract(self.dens[:, 1::2], self.low, out=self.step)


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
    relative flip c of the sources.  Whitened, x - gain (c o g) =
    z + 2 W (f o g) with f = (1 - c) / 2, and z . W_j = e . a_j,
    W_j . W_l = a_j . a_l, so the log ratio of flip f is
    -2 [f . (g o a^T e) + (f o g)^T a^T a (f o g)]
    = sum_j f_j g_j h_j - 4 sum_{j<l} f_j f_l (a^T a)_jl g_j g_l.
    The ratio is a product over the coupling groups, and ``stacks`` holds
    one :class:`_StackScores` per group size.  The estimate's priors are
    read through ``priors``, its :class:`_PriorPlan`, by one executor,
    :meth:`log_ratios`.

    Layout: sources, signal coordinates and flips index the rows and samples
    the columns.  One matrix product of the drawn rows gives g, h and the
    two factors of ``tot`` at once (:class:`_DrawPlan`), written into the
    draw's :class:`_Buffers`; ``scores`` is a (1 + rows, samples) buffer
    whose row 0 is ``tot`` and whose other rows take the log ratios of up
    to _SWEEP_POINTS priors.  ``u`` holds the sign uniforms as rows;
    ``g``, ``e`` and ``v`` are sample-major, in the sources' order.
    A chunk's arrays alias the draw's buffers: read them before the next
    chunk is drawn.
    """

    def __init__(self, model: _BlockModel, plan: _DrawPlan, priors: _PriorPlan, u, drawn,
                 buf: _Buffers):
        ks, kc = plan.ks, plan.kc
        self.model, self.plan, self.priors, self.u = model, plan, priors, u
        self.width = w = drawn.shape[1]
        prod = np.dot(plan.product, drawn, out=buf.rows("product", len(plan.product), w))
        self._g, self._e = prod[:ks], drawn[ks:]
        # tot = 1/2 (log det + |W v|^2 - |e|^2), the difference of squares
        # summed per sample as (W v - e) / 2 . (W v + e)
        r = plan.r
        self.scores = buf.rows("scores", 1 + min(_SWEEP_POINTS, len(priors.steps)), w)
        self.tot = np.einsum("ij,ij->j", prod[ks + kc:ks + kc + r], prod[ks + kc + r:],
                             out=self.scores[0])
        self.tot += 0.5 * model.signal.logdet
        self.stacks = [_StackScores(s, u, self._g, prod[ks:ks + kc], buf) for s in plan.stacks]

    @property
    def g(self) -> np.ndarray:
        return self._g[self.plan.inverse].T

    @property
    def e(self) -> np.ndarray:
        return self._e.T

    @property
    def v(self) -> np.ndarray:
        return (self.model.signal_gain @ self._g[self.plan.inverse] + self._e).T

    def _contract(self, s: _StackScores, need, entries: np.ndarray) -> np.ndarray:
        """The terms log sum_c pi(b o c) p(x | c o g) / p(x | g) of the
        groups ``need`` of the stack ``s``, one row each, given their prior
        entries, a (len(need), k) array with some entry outside {0, 1} in
        each row (:class:`_PriorPlan`).

        The prior is a product over sources, so the sum contracts one source
        at a time, for all the groups at once: with weight r on the drawn
        sign and q = 1 - r on the flipped one, the pair (t0, t1) of rows
        that differ in that flip becomes t0 + q (t1 - t0).  A zero-prior
        component gets weight q = 0 exactly, and so contributes exactly
        nothing.  The hot cells of the stack (:class:`_StackScores`), whose
        table exp() leaves at 1.0, are then contracted again, exactly, in
        the log domain (:meth:`_log_terms`)."""
        if len(need) == len(s.stack.groups):                # the whole stack: views
            u, low, step = s.u, s.low, s.step
        else:
            u, low, step = s.u[need], s.low[need], s.step[need]
        q = _flip_weight(u, entries[:, :, None])
        k = u.shape[1]
        t = np.multiply(step, q[:, k - 1, None])
        t += low
        for j in reversed(range(k - 1)):
            t = t.reshape(len(need), -1, 2, self.width)
            low = t[:, :, 0]
            t = np.subtract(t[:, :, 1], low)
            t *= q[:, j, None]
            t += low
        t = t[:, 0]
        np.log(t, out=t)
        if s.hot is not None:
            rows, cols = np.nonzero(s.hot[need])
            if len(rows):
                t[rows, cols] = self._log_terms(s, np.asarray(need)[rows], cols, entries[rows])
        return t

    def _log_terms(self, s: _StackScores, groups, cols, entries: np.ndarray) -> np.ndarray:
        """:meth:`_contract` of the (group, sample) cells (``groups``,
        ``cols``) of a stack with hot cells, whose prior entries are the rows
        of ``entries``: logaddexp over each source's pair of rows, from the
        log table, so no ratio is exponentiated and a zero-prior flip adds
        log 0 = -inf, exactly nothing."""
        t = s.logs[groups, :, cols]
        q = _flip_weight(s.u[groups, :, cols], entries)
        with np.errstate(divide="ignore"):      # a zero-prior weight is log 0 = -inf
            for j in reversed(range(q.shape[1])):
                t = t.reshape(len(cols), -1, 2)
                t = np.logaddexp(t[:, :, 0] + np.log1p(-q[:, j, None]),
                                 t[:, :, 1] + np.log(q[:, j, None]))
        return t[:, 0]

    def log_ratios(self):
        """log sum_c pi(b o c) p(x | c o g) - log p(x | g) at each prior of
        the chunk's :class:`_PriorPlan` in turn, the sum of the groups'
        terms and exactly 0 where every entry is 0 or 1, written into rows
        1 on of ``scores`` and yielded as blocks of up to _SWEEP_POINTS rows
        (fewer in the last).  Each block is a view of that one buffer: use
        it before asking for the next."""
        block = self.scores[1:]
        held = [None] * self.priors.slots
        filled = 0
        for contract, total, release in self.priors.steps:
            for stack, need, entries, slots in contract:
                for slot, term in zip(slots, self._contract(self.stacks[stack], need, entries)):
                    held[slot] = term
            row = block[filled]
            row[...] = held[total[0]] if total else 0.0
            for slot in total[1:]:
                row += held[slot]
            for slot in release:
                held[slot] = None
            filled += 1
            if filled == len(block):
                yield block
                filled = 0
        if filled:
            yield block[:filled]

    def signs(self, p: np.ndarray) -> np.ndarray:
        """The +/-1 sign inputs drawn at prior ``p``, sample-major."""
        return np.where(self.u.T < p, 1.0, -1.0)


def _flip_weight(u: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The prior q = 1 - r of each flipped sign, where r, the prior of the
    drawn sign, is p where u < p and 1 - p elsewhere: q = p - (2 p - 1)
    [u < p], a multiply and a subtraction where np.where would broadcast p.
    It is exactly 0 at p in {0, 1}, since u < 0 never holds and u < 1 always
    does."""
    q = np.multiply(u < p, 2.0 * p - 1.0)
    return np.subtract(p, q, out=q)


def _mixture_chunks(model: _BlockModel, samples: int, rng, priors, groups=None):
    """Stream a deterministic draw of the (signs, sources, targets) model,
    whose chunks evaluate the sign prior vectors ``priors`` (in the order of
    ``model.sources``), planned once for the whole draw.

    Each batch of SAMPLE_BATCH samples draws the sign uniforms, the source
    normals and the signal-subspace target noise, in that order, off one
    generator; each draw is copied into the rows of the draw's buffers and
    freed before the next is made.  The batch is evaluated in slices of at most EVAL_CELLS
    (sample, enumerated flip) cells, counting the 2^|group| flips of every
    group.  ``groups`` lists the source positions enumerated jointly, by
    default the model's coupling groups; a group of more than
    MIXTURE_ENUM_CAP sources raises TooManyHidden.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    plan = _DrawPlan(model, model.groups if groups is None else groups)
    prior_plan = _PriorPlan(plan, priors)
    ks, r = plan.ks, plan.r
    rows = max(1, EVAL_CELLS // max(1, plan.cells))
    buf = _Buffers()
    for start in range(0, samples, SAMPLE_BATCH):
        m = min(SAMPLE_BATCH, samples - start)
        u = buf.rows("u", ks, m)
        u[...] = rng.random((m, ks)).T
        drawn = buf.rows("drawn", ks + r, m)
        drawn[:ks] = rng.standard_normal((m, ks)).T
        drawn[ks:] = rng.standard_normal((m, r)).T
        for lo in range(0, m, rows):
            sl = slice(lo, lo + rows)
            yield _MixtureChunk(model, plan, prior_plan, u[:, sl], drawn[:, sl], buf)


def _mixture_profile(model: _BlockModel, p: np.ndarray, samples: int, rng) -> dict[str, MIResult]:
    """Gaussian-input MI, conditional sign MI and their total under the sign
    prior vector ``p``, from one draw.  Each chunk makes one update of the
    pair (tot, ratio); the inputs' per-sample value is tot + ratio, and the
    sign term is -ratio, whose running sums are those of ratio negated."""
    running = _Running(2, cross=True)
    for chunk in _mixture_chunks(model, samples, rng, [p]):
        for _ in chunk.log_ratios():        # one prior: one block, row 1 of scores
            running.add(chunk.scores)
    return {"inputs": running.result_of_sum(),
            "signs_given_inputs": running.result(1, negated=True),
            "total": running.result(0)}


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


def mi_sign_marginal(tree: GaussianTree, pi: BernoulliParams, samples: int) -> MIResult:
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

    ``samples`` keeps the signature of the Monte Carlo estimators, whose
    ``samples`` the benchmark's span tracer (``bench/spans.py``) binds by
    name, and must still reach MIN_MC_SAMPLES.
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
    # a group's log likelihood given its hidden value h is, up to terms free
    # of h, h T_h - h^2 S_h / 2 with T_h = sum_o rho_o x_o / sigma_o^2 = a_h . v
    # and S_h = sum_o rho_o^2 / sigma_o^2, sigma_o^2 = 1 - rho_o^2
    groups = []
    for h, group in ((h1, g1), (h2, g2)):
        rho = np.array([tree.edge_rho(h, o) for o in group])
        j = model.sources.index(h)
        groups.append((j, model.signal_gain[:, j], float(np.sum(rho**2 / (1.0 - rho**2)))))
    # the left side enumerates both signs jointly, so the split is tested
    # here, not assumed by the coupling groups; row 0 holds its log ratio,
    # whose negation is the left side, and row 1 the right side
    joint = (tuple(range(len(model.sources))),)
    running = _Running(2)
    for chunk in _mixture_chunks(model, samples, _rng(seed, "decomposition"), [p], joint):
        (ratio,) = chunk.log_ratios()           # one prior: one (1, samples) block
        g, v = chunk.g, chunk.v
        y = chunk.signs(p) * g
        rhs_vals = np.zeros(chunk.width)
        for j, a_h, s_h in groups:
            t_h = v @ a_h

            def group_loglik(hidden_vals: np.ndarray) -> np.ndarray:
                return hidden_vals * t_h - 0.5 * s_h * hidden_vals**2

            num = group_loglik(g[:, j])
            lse_pred = np.full(len(y), -np.inf)
            for sign, prob in ((1.0, p[j]), (-1.0, 1.0 - p[j])):
                if prob == 0.0:
                    continue
                lse_pred = np.logaddexp(lse_pred, math.log(prob) + group_loglik(sign * y[:, j]))
            rhs_vals += num - lse_pred
        running.add(np.vstack([ratio, rhs_vals]))
    return running.result(0, negated=True), running.result(1)


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
    neighbouring points (mirror images too) carry correlated errors.  Each
    grid point is already its prior vector, in the order of ``tree.hidden``,
    and the draw plans them once (:class:`_PriorPlan`); only the argmax
    becomes a :class:`BernoulliParams`.  Each batch writes the sign term of
    _SWEEP_POINTS consecutive points into one (points, samples) block, and
    each block makes one running update.
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

    # the model's sources are tree.hidden, so each grid point is its prior
    # vector; the sweep reads only the sign term, so it keeps only the ratio
    # sums, one running update per block of _SWEEP_POINTS points
    model = _block(tree, tree.observed, tree.hidden)
    sums = [_Running(len(grid[lo:lo + _SWEEP_POINTS]))
            for lo in range(0, len(grid), _SWEEP_POINTS)]
    for chunk in _mixture_chunks(model, samples, _rng(seed, "mixture"), grid):
        for block, running in zip(chunk.log_ratios(), sums):
            running.add(block)
    curve = []
    best_idx = 0
    for idx, point in enumerate(grid):
        est = sums[idx // _SWEEP_POINTS].result(idx % _SWEEP_POINTS, negated=True)
        curve.append((point if tree.k == 2 else (point[0],), est))
        if est.value > curve[best_idx][1].value:
            best_idx = idx
    return BernoulliParams.make(dict(zip(tree.hidden, grid[best_idx]))), curve
