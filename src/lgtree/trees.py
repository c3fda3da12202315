"""Latent Gaussian trees with signed edge correlations.

A tree couples observed and hidden unit-variance, zero-mean Gaussian
variables; the correlation between any two variables is the product of the
edge correlations along the unique path joining them.  Minimality (every
hidden node has at least three neighbours) rules out redundant hidden
variables.  Hidden nodes are organised into layers by their graph distance
to the closest observed node; the layering drives the synthesis engine.

The module also owns the on-disk tree format used by the CLI and fixtures::

    # comment
    node <id> observed|hidden
    edge <u> <v> <rho>
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadCorrelation,
    DanglingEdge,
    IllConditioned,
    InconsistentCovariance,
    NotATree,
    NonMinimal,
    ParseError,
    RatioOutOfRange,
    UnknownNode,
)

OBSERVED = "observed"
HIDDEN = "hidden"

PD_EIG_FLOOR = 1e-10      # smallest eigenvalue accepted as positive definite
TRIPLE_RTOL = 1e-8        # relative spread tolerance for triple-ratio checks


@dataclass(frozen=True)
class TreeSpec:
    """Raw node/edge description, prior to validation.

    ``nodes`` is a sequence of ``(id, kind)`` with kind ``observed`` or
    ``hidden``; ``edges`` a sequence of ``(u, v, rho)`` with ``|rho|`` in
    (0, 1).  Order of appearance fixes the canonical node order everywhere.
    """

    nodes: tuple[tuple[str, str], ...]
    edges: tuple[tuple[str, str, float], ...]

    @staticmethod
    def make(nodes, edges) -> "TreeSpec":
        return TreeSpec(
            nodes=tuple((str(n), str(k)) for n, k in nodes),
            edges=tuple((str(u), str(v), float(r)) for u, v, r in edges),
        )


@dataclass(frozen=True)
class GaussianTree:
    """A validated latent Gaussian tree.

    Immutable after construction; all operations on it are pure functions,
    so instances are safe to share across threads.  ``_blocks`` memoises the
    block regressions built on the tree (``info._block``); two threads that
    race on a block build the same values.
    """

    spec: TreeSpec
    node_order: dict[str, int] = field(repr=False)
    observed: tuple[str, ...]
    hidden: tuple[str, ...]
    adjacency: dict[str, tuple[tuple[str, float], ...]] = field(repr=False)
    layer: dict[str, int]
    _blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.observed)

    @property
    def k(self) -> int:
        return len(self.hidden)

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.spec.nodes)

    @property
    def num_layers(self) -> int:
        return max(self.layer.values()) if self.layer else 0

    def layer_nodes(self, depth: int) -> tuple[str, ...]:
        """Hidden nodes at a given distance from the observed boundary."""
        return tuple(h for h in self.hidden if self.layer[h] == depth)

    def edge_rho(self, u: str, v: str) -> float:
        for nbr, rho in self.adjacency[u]:
            if nbr == v:
                return rho
        raise UnknownNode(f"no edge between {u!r} and {v!r}")

    def hidden_hidden_edges(self) -> tuple[tuple[str, str, float], ...]:
        hid = set(self.hidden)
        return tuple(e for e in self.spec.edges if e[0] in hid and e[1] in hid)


@dataclass(frozen=True)
class CovarianceModel:
    """Joint covariance of a tree plus its observed restriction.

    Entries are path products of edge correlations; the diagonal is 1.
    Arrays are read-only.
    """

    joint: np.ndarray
    observed_block: np.ndarray
    node_order: dict[str, int]


def validate_tree(spec: TreeSpec) -> GaussianTree:
    """Check a tree description and derive adjacency and layers.

    Raises NotATree for cycles/disconnection, NonMinimal when a hidden node
    has fewer than three neighbours, BadCorrelation for correlations outside
    (0,1) in magnitude, and DanglingEdge for unknown endpoints.
    """
    ids = [n for n, _ in spec.nodes]
    if len(set(ids)) != len(ids):
        raise NotATree("duplicate node ids in tree description")
    kinds = dict(spec.nodes)
    for n, k in spec.nodes:
        if k not in (OBSERVED, HIDDEN):
            raise ParseError(f"node {n!r} has unknown kind {k!r}")

    seen = set()
    adj: dict[str, list[tuple[str, float]]] = {n: [] for n in ids}
    for u, v, rho in spec.edges:
        if u not in kinds or v not in kinds:
            raise DanglingEdge(f"edge ({u!r}, {v!r}) references an unknown node")
        if u == v:
            raise NotATree(f"self-loop on node {u!r}")
        key = (u, v) if u <= v else (v, u)
        if key in seen:
            raise NotATree(f"duplicate edge between {u!r} and {v!r}")
        seen.add(key)
        if not (0.0 < abs(rho) < 1.0):
            raise BadCorrelation(
                f"edge ({u!r}, {v!r}) has rho={rho}; |rho| must lie strictly in (0, 1)"
            )
        adj[u].append((v, rho))
        adj[v].append((u, rho))

    if len(spec.edges) != len(ids) - 1:
        raise NotATree(
            f"{len(spec.edges)} edges for {len(ids)} nodes; a tree needs exactly n-1"
        )

    # connectivity; with |E| = |V|-1 this also excludes cycles
    if ids:
        reached = {ids[0]}
        queue = deque([ids[0]])
        while queue:
            cur = queue.popleft()
            for nbr, _ in adj[cur]:
                if nbr not in reached:
                    reached.add(nbr)
                    queue.append(nbr)
        if len(reached) != len(ids):
            raise NotATree("tree description is disconnected")

    observed = tuple(n for n, k in spec.nodes if k == OBSERVED)
    hidden = tuple(n for n, k in spec.nodes if k == HIDDEN)

    for h in hidden:
        if len(adj[h]) < 3:
            raise NonMinimal(
                f"hidden node {h!r} has degree {len(adj[h])}; minimality needs >= 3"
            )

    # layers: multi-source BFS from the observed boundary
    layer: dict[str, int] = {}
    if hidden:
        if not observed:
            raise NotATree("a tree with hidden nodes needs at least one observed node")
        dist = {n: 0 for n in observed}
        queue = deque(observed)
        while queue:
            cur = queue.popleft()
            for nbr, _ in adj[cur]:
                if nbr not in dist:
                    dist[nbr] = dist[cur] + 1
                    queue.append(nbr)
        layer = {h: dist[h] for h in hidden}

    return GaussianTree(
        spec=spec,
        node_order={n: i for i, n in enumerate(ids)},
        observed=observed,
        hidden=hidden,
        adjacency={n: tuple(nbrs) for n, nbrs in adj.items()},
        layer=layer,
    )


def pairwise_correlation(tree: GaussianTree, i: str, j: str) -> float:
    """Correlation between two distinct nodes: the path product between them."""
    if i not in tree.node_order:
        raise UnknownNode(f"node {i!r} is not part of the tree")
    if j not in tree.node_order:
        raise UnknownNode(f"node {j!r} is not part of the tree")
    if i == j:
        raise UnknownNode("pairwise correlation needs two distinct nodes")
    return float(joint_covariance(tree).joint[tree.node_order[i], tree.node_order[j]])


def joint_covariance(tree: GaussianTree) -> CovarianceModel:
    """Assemble the full path-product covariance and its observed block.

    One breadth-first pass from the first node: when node i joins through
    the edge (parent p, rho), every node placed so far lies on p's side of
    that edge, so i's row over them is rho times p's row.  Written to the
    row and the column together, the matrix is symmetric with a unit
    diagonal by construction.  It is filled in the order nodes are placed,
    so that those rows are slices, and then permuted to node order.
    """
    placed = [tree.nodes[0]]
    pos = {placed[0]: 0}
    cov = np.eye(len(tree.node_order))
    for p, parent in enumerate(placed):     # the loop reaches nodes placed in it
        for node, rho in tree.adjacency[parent]:
            if node in pos:
                continue
            i = pos[node] = len(placed)
            cov[i, :i] = rho * cov[p, :i]
            cov[:i, i] = cov[i, :i]
            placed.append(node)
    perm = [pos[n] for n in tree.nodes]
    cov = cov.take(perm, axis=0).take(perm, axis=1)
    try:
        np.linalg.cholesky(cov + 0.0)
    except np.linalg.LinAlgError:
        raise IllConditioned("joint covariance is not numerically positive definite")
    cov.setflags(write=False)
    obs_idx = tuple(tree.node_order[o] for o in tree.observed)
    obs = cov[np.ix_(obs_idx, obs_idx)].copy()
    obs.setflags(write=False)
    return CovarianceModel(
        joint=cov,
        observed_block=obs,
        node_order=dict(tree.node_order),
    )


def tree_determinant(tree: GaussianTree) -> float:
    """Determinant of the joint covariance: the product of (1 - rho^2) over edges."""
    out = 1.0
    for _, _, rho in tree.spec.edges:
        out *= 1.0 - rho * rho
    return out


# -- triple-ratio machinery --------------------------------------------------

def _branch_ids(tree: GaussianTree, h: str) -> dict[str, int]:
    """Label every node (except ``h``) with the index of the branch of ``h``
    it falls in when ``h`` is removed."""
    label: dict[str, int] = {}
    for b_idx, (nbr, _) in enumerate(tree.adjacency[h]):
        if nbr in label:
            continue
        label[nbr] = b_idx
        queue = deque([nbr])
        while queue:
            cur = queue.popleft()
            for nxt, _ in tree.adjacency[cur]:
                if nxt != h and nxt not in label:
                    label[nxt] = b_idx
                    queue.append(nxt)
    return label


def squared_gain_ratios(
    sigma_x: np.ndarray,
    tree: GaussianTree,
    x: str,
    h: str,
) -> list[float]:
    """All triple-ratio estimates of the squared path gain between observed
    ``x`` and hidden ``h``, ordered by the (j, k) witness pair indices.

    Each witness pair (j, k) consists of observed nodes in two different
    branches of ``h``, both outside the branch containing ``x``; then
    ``rho_xj * rho_xk / rho_jk`` equals the squared product of edge
    correlations on the x-h path.
    """
    branches = _branch_ids(tree, h)
    obs_pos = {o: i for i, o in enumerate(tree.observed)}
    own = branches[x]
    candidates = [o for o in tree.observed if o != x and branches[o] != own]
    ratios = []
    for a, b in itertools.combinations(candidates, 2):
        if branches[a] == branches[b]:
            continue
        r_xa = sigma_x[obs_pos[x], obs_pos[a]]
        r_xb = sigma_x[obs_pos[x], obs_pos[b]]
        r_ab = sigma_x[obs_pos[a], obs_pos[b]]
        if r_ab == 0.0:
            raise InconsistentCovariance(
                f"zero correlation between witnesses {a!r} and {b!r}"
            )
        ratios.append(r_xa * r_xb / r_ab)
    return ratios


def _consistent_ratio(ratios: list[float], what: str) -> float:
    value = ratios[0]
    for r in ratios[1:]:
        if abs(r - value) > TRIPLE_RTOL * max(abs(value), 1e-30):
            raise InconsistentCovariance(
                f"triple ratios for {what} disagree: {value!r} vs {r!r}"
            )
    if not (0.0 < value < 1.0):
        raise RatioOutOfRange(f"squared gain for {what} is {value!r}, outside (0, 1)")
    return value


def squared_gain(sigma_x: np.ndarray, tree: GaussianTree, x: str, h: str) -> float:
    """The squared path gain between observed ``x`` and hidden ``h``: the
    first triple ratio, with every other one checked against it."""
    ratios = squared_gain_ratios(sigma_x, tree, x, h)
    if not ratios:
        raise InconsistentCovariance(f"no witness triple for observed {x!r} and hidden {h!r}")
    return _consistent_ratio(ratios, f"({x!r}, {h!r})")


def checked_observed_block(sigma_x, structure: GaussianTree) -> np.ndarray:
    """``sigma_x`` as a float array, checked to be n x n for the n observed
    nodes of ``structure``; raises InconsistentCovariance otherwise."""
    sigma_x = np.asarray(sigma_x, dtype=float)
    if sigma_x.shape != (structure.n, structure.n):
        raise InconsistentCovariance(
            f"covariance shape {sigma_x.shape} does not match {structure.n} observed nodes"
        )
    return sigma_x


def recover_edge_magnitudes(
    sigma_x: np.ndarray,
    structure: GaussianTree,
) -> dict[tuple[str, str], float]:
    """Recover |rho| for every edge of ``structure`` from the observed
    covariance alone.  Signs are not recoverable.

    Observed-hidden edges come from triple ratios; hidden-hidden edges from
    ratios of squared path gains; observed-observed edges are read off
    directly.  The first valid witness triple supplies the value and every
    other one is used as a consistency check.
    """
    sigma_x = checked_observed_block(sigma_x, structure)
    obs_pos = {o: i for i, o in enumerate(structure.observed)}
    hid = set(structure.hidden)
    out: dict[tuple[str, str], float] = {}
    for u, v, _ in structure.spec.edges:
        if u in hid and v in hid:
            # pick an observed witness on u's side (path to v runs through u)
            branches_v = _branch_ids(structure, v)
            side_u = branches_v[u]
            witness = next(
                o for o in structure.observed if branches_v.get(o) == side_u
            )
            g_near = squared_gain(sigma_x, structure, witness, u)
            g_far = squared_gain(sigma_x, structure, witness, v)
            val = g_far / g_near
            if not (0.0 < val < 1.0):
                raise RatioOutOfRange(
                    f"squared gain for edge ({u!r}, {v!r}) is {val!r}, outside (0, 1)"
                )
            out[(u, v)] = float(np.sqrt(val))
        elif u in hid or v in hid:
            x, h = (v, u) if u in hid else (u, v)
            out[(u, v)] = float(np.sqrt(squared_gain(sigma_x, structure, x, h)))
        else:
            out[(u, v)] = float(abs(sigma_x[obs_pos[u], obs_pos[v]]))
    return out


# -- random trees for property tests ----------------------------------------

def random_tree(
    rng: np.random.Generator,
    max_observed: int = 8,
    max_hidden: int = 4,
) -> GaussianTree:
    """Generate a random valid leaf-observed tree.

    Hidden nodes form a random subtree; observed leaves are attached until
    every hidden node reaches degree three, then a few extra leaves are
    spread at random.  Magnitudes are uniform on [0.2, 0.9], to keep
    determinants and Monte Carlo estimators well conditioned, with random
    signs.
    """
    while True:
        k = int(rng.integers(1, max_hidden + 1))
        hidden = [f"y{i+1}" for i in range(k)]
        edges = []
        deg = {h: 0 for h in hidden}
        for i in range(1, k):
            j = int(rng.integers(0, i))
            edges.append((hidden[j], hidden[i]))
            deg[hidden[j]] += 1
            deg[hidden[i]] += 1
        need = sum(max(0, 3 - deg[h]) for h in hidden)
        if need > max_observed:
            continue
        n = int(rng.integers(need, max_observed + 1)) if need < max_observed else need
        n = max(n, 3) if k == 1 else n
        owners = []
        for h in hidden:
            owners.extend([h] * max(0, 3 - deg[h]))
        while len(owners) < n:
            owners.append(hidden[int(rng.integers(0, k))])
        nodes = [(f"x{i+1}", OBSERVED) for i in range(len(owners))]
        nodes += [(h, HIDDEN) for h in hidden]
        for i, owner in enumerate(owners):
            edges.append((owner, f"x{i+1}"))
        signs_and_mags = []
        for u, v in edges:
            mag = rng.uniform(0.2, 0.9)
            sign = rng.choice([-1.0, 1.0])
            signs_and_mags.append((u, v, sign * mag))
        return validate_tree(TreeSpec.make(nodes, signs_and_mags))


# -- tree file format --------------------------------------------------------

def parse_tree_text(text: str) -> TreeSpec:
    """Parse the line-oriented tree format (see module docstring)."""
    nodes = []
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "node":
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: 'node' takes <id> <observed|hidden>")
            if parts[2] not in (OBSERVED, HIDDEN):
                raise ParseError(
                    f"line {lineno}: node kind must be observed or hidden, got {parts[2]!r}"
                )
            nodes.append((parts[1], parts[2]))
        elif parts[0] == "edge":
            if len(parts) != 4:
                raise ParseError(f"line {lineno}: 'edge' takes <u> <v> <rho>")
            try:
                rho = float(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: rho {parts[3]!r} is not a number")
            edges.append((parts[1], parts[2], rho))
        else:
            raise ParseError(f"line {lineno}: unknown record {parts[0]!r}")
    return TreeSpec.make(nodes, edges)


def load_tree(path) -> GaussianTree:
    with open(path, "r", encoding="utf-8") as fh:
        return validate_tree(parse_tree_text(fh.read()))


def format_tree(tree: GaussianTree) -> str:
    lines = [f"node {n} {kind}" for n, kind in tree.spec.nodes]
    lines += [f"edge {u} {v} {rho!r}" for u, v, rho in tree.spec.edges]
    return "\n".join(lines) + "\n"
