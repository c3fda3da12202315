"""Information measures on latent Gaussian trees.

Three kinds of quantities live here:

* closed-form Gaussian mutual information between the observed block and
  the hidden block, either from three determinants or, for leaf-observed
  trees, from the observed covariance alone via triple ratios;
* Monte Carlo estimates for the mixture model in which each hidden node's
  sign is an independent +/-1 Bernoulli input: the sign-marginal MI, the
  sign MI conditioned on the Gaussian inputs, and the Gaussian-input MI;
* a grid search for the sign bias that maximises the conditional sign MI.

All values are in nats.  Mixture log densities are evaluated with exact
enumeration over the 2^k sign vectors and log-sum-exp accumulation.  The
inner mixtures are pi-weighted: the conditional density given the Gaussian
inputs is approximated by sum_b pi(b) p(x | y, b), the prior-weighted
average rather than the sign-posterior one.  The two coincide whenever the
sign posterior given the inputs is flat (in particular for a single hidden
node), the chain identity with the fixed total holds for either choice,
and the pi-weighted form is what makes the conditional sign MI split
exactly across leaf groups.

One Monte Carlo core serves every mixture estimator.  It draws sign
uniforms u, source values g and target noise in fixed batches; the targets
see only g, so the density ratio of every relative sign flip is evaluated
once per batch, independent of the prior.  A prior pi then sets the signs
b = (u < pi) and reweights those ratios, one source at a time.  The
estimates accumulate as running sums, so memory does not grow with
``samples``, and a whole pi grid is evaluated on one draw.  Every estimator
is deterministic given (seed, samples).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import (
    IllConditioned,
    InconsistentCovariance,
    MissingAssignment,
    NotLeafOnly,
    TooManyHidden,
    ValidationError,
    WrongShape,
)
from .trees import (
    GaussianTree,
    PD_EIG_FLOOR,
    TRIPLE_RTOL,
    _consistent_ratio,
    joint_covariance,
    squared_gain_ratios,
)

CLOSED_FORM = "closed_form"
DIRECT_GAUSSIAN = "direct_gaussian"
MONTE_CARLO = "monte_carlo"

MIXTURE_ENUM_CAP = 12   # exact mixtures enumerate 2^k sign vectors
MIN_MC_SAMPLES = 1000   # below this the error bars are not worth reporting


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
        self.inv_chol = solve_triangular(
            self.chol, np.eye(len(self.cov)), lower=True, check_finite=False
        )
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

    def gaussian_mi(self) -> float:
        """MI between the blocks with signs held fixed (they drop out)."""
        sign_t, ld_t = np.linalg.slogdet(self.sigma_t)
        sign_s, ld_s = np.linalg.slogdet(self.sigma_s)
        joint = np.block([[self.sigma_t, self.cross], [self.cross.T, self.sigma_s]])
        sign_j, ld_j = np.linalg.slogdet(joint)
        if min(sign_t, sign_s, sign_j) <= 0:
            raise IllConditioned("block covariances are not positive definite")
        return 0.5 * (ld_t + ld_s - ld_j)


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


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(tags)))


SAMPLE_BATCH = 8192    # samples drawn per batch; the draw order is part of the contract
EVAL_CELLS = 2**20     # (sample, sign component) cells evaluated at once
EXP_CEILING = 700.0    # log density ratios are shifted below this before exp()


class _Running:
    """Count, mean and sum of squared deviations of a per-sample estimate,
    merged chunk by chunk (Chan et al.), so no estimate keeps its samples."""

    def __init__(self):
        self.n, self.mean, self.m2 = 0, 0.0, 0.0

    def add(self, values: np.ndarray) -> "_Running":
        m = values.size
        mean = float(values.mean())
        dev = values - mean
        n = self.n + m
        delta = mean - self.mean
        self.mean += delta * (m / n)
        self.m2 += float(dev @ dev) + delta * delta * (self.n * m / n)
        self.n = n
        return self

    def result(self) -> MIResult:
        se = math.sqrt(self.m2 / (self.n - 1) / self.n) if self.n > 1 else 0.0
        return MIResult(self.mean, se, MONTE_CARLO, self.n)


class _MixtureChunk:
    """A slice of the mixture draw with its prior-free per-sample terms.

    The draw is (u, g, noise): uniforms that set the sign inputs b = (u < pi)
    for any prior pi, the source values g = b * y that the targets actually
    see, and the target noise.  Since x = gain g + noise does not involve b,
    neither does the density ratio of each relative flip c of the sources,
    dens[c] = p(x | c o g) / p(x | g); row 0 is c = +1, the drawn component,
    whose log density is ``log_cond``.  Sources and components index the
    rows of ``u`` and ``dens`` and samples their columns, so the per-source
    contractions run over contiguous rows.
    """

    def __init__(self, model: _BlockModel, flips, gw, pair_gram, u, g, z, x):
        self.u, self.g, self.x = np.ascontiguousarray(u.T), g, x
        self.log_cond = -0.5 * np.einsum("ij,ij->i", z, z) + model.noise._const
        self.log_marg = model.marg_t.logpdf(x)
        # whitened, x - gain (c o g) = z + 2 (f o g) gw with f = (1 - c) / 2, so
        # log dens = -2 [f . (g o (z gw^T)) + (f o g) gw gw^T (f o g)]
        linear = g * (z @ gw.T)
        quad = (g[:, :, None] * g[:, None, :]).reshape(len(g), -1)
        log_dens = -2.0 * (flips @ linear.T + pair_gram @ quad.T)
        self.shift = np.maximum(log_dens.max(axis=0) - EXP_CEILING, 0.0)
        self.dens = np.exp(log_dens - self.shift)

    def log_ratio(self, p: np.ndarray) -> np.ndarray:
        """log sum_c pi(b o c) p(x | c o g) - log p(x | g) at sign prior ``p``.

        The prior is a product over sources, so the sum contracts one source
        at a time, weighting the drawn sign by its prior r and the flipped
        one by 1 - r.  A zero-prior component gets weight exactly 0, and at
        p in {0, 1} the ratio is exactly 0."""
        s = self.dens
        for j in reversed(range(len(p))):
            r = np.where(self.u[j] < p[j], p[j], 1.0 - p[j])
            s = s.reshape(-1, 2, s.shape[-1])
            s = s[:, 0] * r + s[:, 1] * (1.0 - r)
        return np.log(s[0]) + self.shift

    def signs(self, p: np.ndarray) -> np.ndarray:
        """The +/-1 sign inputs drawn at prior ``p``."""
        return np.where(self.u.T < p, 1.0, -1.0)


def _mixture_chunks(model: _BlockModel, samples: int, rng):
    """Stream a deterministic draw of the (signs, sources, targets) model.

    Each batch of SAMPLE_BATCH samples draws the sign uniforms, the source
    values and the target noise, in that order, off one generator; it is
    evaluated in slices of at most EVAL_CELLS (sample, component) cells.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    ks, nt = len(model.sources), len(model.targets)
    flips = (1.0 - _enumerate_signs(ks)) / 2.0           # 1 marks a flipped source
    gw = (model.noise.inv_chol @ model.gain).T            # (ks, nt) whitened gain
    pair_gram = (flips[:, :, None] * flips[:, None, :] * (gw @ gw.T)).reshape(len(flips), -1)
    rows = max(1, EVAL_CELLS // len(flips))
    for start in range(0, samples, SAMPLE_BATCH):
        m = min(SAMPLE_BATCH, samples - start)
        u = rng.random((m, ks))
        g = rng.standard_normal((m, ks)) @ model.marg_s.chol.T
        z = rng.standard_normal((m, nt))
        x = g @ model.gain.T + z @ model.noise.chol.T
        for lo in range(0, m, rows):
            sl = slice(lo, lo + rows)
            yield _MixtureChunk(model, flips, gw, pair_gram, u[sl], g[sl], z[sl], x[sl])


def _mixture_profiles(model: _BlockModel, priors, samples: int, rng) -> list[dict[str, MIResult]]:
    """Gaussian-input MI, conditional sign MI and their total under each sign
    prior vector in ``priors``, all from one draw."""
    total = _Running()
    sums = [(_Running(), _Running()) for _ in priors]
    for chunk in _mixture_chunks(model, samples, rng):
        tot = chunk.log_cond - chunk.log_marg
        total.add(tot)
        for p, (inputs, signs) in zip(priors, sums):
            ratio = chunk.log_ratio(p)            # log_pred - log_cond
            inputs.add(tot + ratio)
            signs.add(0.0 - ratio)
    total_mi = total.result()
    return [
        {"inputs": inputs.result(), "signs_given_inputs": signs.result(), "total": total_mi}
        for inputs, signs in sums
    ]


def mixture_mi_profile(
    tree: GaussianTree, pi: BernoulliParams, samples: int, seed: int
) -> dict[str, MIResult]:
    """Joint Monte Carlo estimates, from shared draws, of the Gaussian-input
    MI, the conditional sign MI, and their total (which has a fixed
    closed-form value)."""
    _require_samples(samples)
    model = _block(tree, tree.observed, tree.hidden)
    return _mixture_profiles(model, [pi.vector_for(model.sources)], samples, _rng(seed, 0))[0]


def mi_direct(tree: GaussianTree) -> MIResult:
    """MI between observed and hidden blocks from the three determinants."""
    if tree.k == 0:
        return MIResult(0.0, 0.0, DIRECT_GAUSSIAN, 0)
    return block_mi_fixed(tree, tree.observed, tree.hidden)


def mi_closed_form(
    sigma_x: np.ndarray,
    structure: GaussianTree,
    rtol: float = TRIPLE_RTOL,
) -> MIResult:
    """MI between observed and hidden blocks from the observed covariance
    alone, for trees whose observed nodes are all leaves.

    For each observed node the squared correlation to its adjacent hidden
    node is a triple ratio of observed correlations; every valid witness
    triple must agree.  The structure argument supplies only the tree shape;
    its stored edge weights are never read.
    """
    sigma_x = np.asarray(sigma_x, dtype=float)
    hid = set(structure.hidden)
    for o in structure.observed:
        if len(structure.adjacency[o]) != 1:
            raise NotLeafOnly(f"observed node {o!r} is not a leaf")
        if structure.adjacency[o][0][0] not in hid:
            raise NotLeafOnly(f"observed node {o!r} has no adjacent hidden node")

    log_den = 0.0
    for o in structure.observed:
        h = structure.adjacency[o][0][0]
        ratios = squared_gain_ratios(sigma_x, structure, o, h)
        if not ratios:
            raise InconsistentCovariance(f"no witness triple for observed {o!r}")
        log_den += math.log1p(-_consistent_ratio(ratios, repr(o), rtol))

    sign, logdet = np.linalg.slogdet(sigma_x)
    if sign <= 0:
        raise IllConditioned("observed covariance is not positive definite")
    return MIResult(0.5 * (logdet - log_den), 0.0, CLOSED_FORM, 0)


def mi_sign_marginal(
    tree: GaussianTree, pi: BernoulliParams, samples: int, seed: int
) -> MIResult:
    """Monte Carlo estimate of the MI between the observed vector and the
    sign vector.  Sign flips leave the observed covariance untouched, so
    every mixture component coincides and the estimate is exactly zero.
    Samples are drawn and scored SAMPLE_BATCH at a time."""
    _require_samples(samples)
    p = pi.vector_for(tree.hidden)
    marg = _Gauss(np.asarray(joint_covariance(tree).observed_block), "observed covariance")
    log_prior = _log_prior(_enumerate_signs(tree.k), p)
    log_prior = log_prior[log_prior > -np.inf]
    rng = _rng(seed, 1)
    total = _Running()
    for start in range(0, samples, SAMPLE_BATCH):
        m = min(SAMPLE_BATCH, samples - start)
        lp_x = marg.logpdf(rng.standard_normal((m, tree.n)) @ marg.chol.T)
        # observed-block conditional given any sign vector: identical by the
        # sign-equivalence property, so evaluate the density once
        lse = np.full(m, -np.inf)
        for lp in log_prior:
            lse = np.logaddexp(lse, lp + lp_x)
        total.add(lp_x - lse)
    return total.result()


def block_mi_fixed(tree: GaussianTree, targets, sources) -> MIResult:
    """Gaussian MI between two node blocks with signs held fixed."""
    return MIResult(_block(tree, targets, sources).gaussian_mi(), 0.0, DIRECT_GAUSSIAN, 0)


def block_mi_mixture(
    tree: GaussianTree, targets, sources, pi: BernoulliParams, samples: int, seed: int
) -> dict[str, MIResult]:
    """Mixture MI profile between arbitrary node blocks, with sign inputs on
    the source block only.  Used for the per-layer rate bounds."""
    _require_samples(samples)
    model = _block(tree, targets, sources)
    return _mixture_profiles(model, [pi.vector_for(model.sources)], samples, _rng(seed, 2))[0]


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
    obs_pos = {o: i for i, o in enumerate(tree.observed)}
    hid_pos = {h: i for i, h in enumerate(tree.hidden)}
    lhs, rhs = _Running(), _Running()
    for chunk in _mixture_chunks(model, samples, _rng(seed, 3)):
        lhs.add(0.0 - chunk.log_ratio(p))
        y = chunk.signs(p) * chunk.g
        rhs_vals = np.zeros(len(y))
        for h, group in ((h1, g1), (h2, g2)):
            xg = chunk.x[:, [obs_pos[o] for o in group]]
            gains = np.array([tree.edge_rho(h, o) for o in group])
            sd = np.sqrt(1.0 - gains**2)

            def group_logpdf(hidden_vals: np.ndarray) -> np.ndarray:
                z = (xg - hidden_vals[:, None] * gains[None, :]) / sd[None, :]
                return -0.5 * np.sum(z * z, axis=1) - np.sum(np.log(sd)) \
                    - 0.5 * len(group) * math.log(2.0 * math.pi)

            num = group_logpdf(chunk.g[:, hid_pos[h]])
            lse_pred = np.full(len(y), -np.inf)
            p_h = p[hid_pos[h]]
            for sign, prob in ((1.0, p_h), (-1.0, 1.0 - p_h)):
                if prob == 0.0:
                    continue
                lp_xg = group_logpdf(sign * y[:, hid_pos[h]])
                lse_pred = np.logaddexp(lse_pred, math.log(prob) + lp_xg)
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
    symmetric (all-equal) sweep beyond that.  The objective is a Monte Carlo
    estimate, so the argmax is resolved to grid resolution only.  The whole
    sweep shares one draw of ``samples`` from the master seed, reweighted at
    each grid point: every curve point equals
    ``mixture_mi_profile(tree, pi, samples, seed)`` at that point, and
    neighbouring points (mirror images too) carry correlated errors.
    """
    if not (0.0 < grid_step <= 0.25):
        raise ValueError("grid_step must lie in (0, 0.25]")
    _require_samples(samples)
    steps = int(round(1.0 / grid_step))
    axis = [round(i * grid_step, 12) for i in range(steps + 1)]
    if axis[-1] != 1.0:
        axis.append(1.0)

    if tree.k == 2:
        grid = [(a, b) for a in axis for b in axis]
    else:
        grid = [(a,) * tree.k for a in axis]

    model = _block(tree, tree.observed, tree.hidden)
    params = [BernoulliParams.make(dict(zip(tree.hidden, point))) for point in grid]
    profiles = _mixture_profiles(
        model, [pi.vector_for(model.sources) for pi in params], samples, _rng(seed, 0)
    )
    curve = []
    best_idx = 0
    for idx, (point, profile) in enumerate(zip(grid, profiles)):
        est = profile["signs_given_inputs"]
        curve.append((point if tree.k == 2 else (point[0],), est))
        if est.value > curve[best_idx][1].value:
            best_idx = idx
    return params[best_idx], curve
