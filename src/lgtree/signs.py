"""Sign-equivalence classes of latent Gaussian trees.

Flipping all edges incident to a hidden node leaves every observed pairwise
correlation unchanged, so a tree with k hidden nodes has exactly 2^k signed
variants with identical observed covariance.  The canonical parametrisation
is one flip per hidden node (observed nodes are pinned to +1); the per-edge
view, with one sign variable per observed-facing edge class and per
hidden-hidden edge, is derived from it and comes with product constraints
tying the edge variables to the node classes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import MismatchedNodeSets, MissingAssignment, TooManyHidden
from .trees import GaussianTree, TreeSpec, joint_covariance, validate_tree

ENUMERATION_CAP = 20     # 2^20 signed variants is the largest list we will build
EQUIVALENCE_TOL = 1e-12  # largest elementwise gap between equivalent observed blocks


@dataclass(frozen=True)
class SignAssignment:
    """A +/-1 value per hidden node."""

    flips: tuple[tuple[str, int], ...]

    @staticmethod
    def make(mapping) -> "SignAssignment":
        items = tuple((str(h), int(v)) for h, v in dict(mapping).items())
        for h, v in items:
            if v not in (-1, 1):
                raise MissingAssignment(f"flip for {h!r} must be +1 or -1, got {v}")
        return SignAssignment(items)

    def value(self, node: str) -> int:
        for h, v in self.flips:
            if h == node:
                return v
        raise MissingAssignment(f"no sign assigned to hidden node {node!r}")

    def as_dict(self) -> dict[str, int]:
        return dict(self.flips)


@dataclass(frozen=True)
class SignClassReport:
    """Count of per-edge sign variables and the constraints among them.

    ``constraints`` pairs two variable groups whose products must agree;
    variables are labelled ``("class", h)`` for the shared sign of the
    observed-facing edges of hidden node h, and ``("edge", u, v)`` for a
    hidden-hidden edge.
    """

    edge_sign_variables: int
    constraints: tuple[tuple[tuple, tuple], ...]
    free_variables: int

    @property
    def constraint_count(self) -> int:
        return len(self.constraints)


def apply_sign_assignment(tree: GaussianTree, assignment: SignAssignment) -> GaussianTree:
    """Multiply every edge correlation by the flips of its endpoints.

    Observed nodes carry an implicit +1.  The returned tree is structurally
    identical to the input.
    """
    flips = assignment.as_dict()
    missing = [h for h in tree.hidden if h not in flips]
    if missing:
        raise MissingAssignment(f"no sign assigned to hidden node(s) {missing}")
    new_edges = []
    for u, v, rho in tree.spec.edges:
        s = flips.get(u, 1) * flips.get(v, 1)
        new_edges.append((u, v, s * rho))
    return validate_tree(TreeSpec.make(tree.spec.nodes, new_edges))


def enumerate_equivalent_trees(tree: GaussianTree) -> list[GaussianTree]:
    """All 2^k sign-equivalent variants, in lexicographic flip order
    (+1 before -1, hidden nodes in declaration order).  More than
    ENUMERATION_CAP hidden nodes raise TooManyHidden."""
    if tree.k > ENUMERATION_CAP:
        raise TooManyHidden(
            f"tree has {tree.k} hidden nodes; enumeration is capped at {ENUMERATION_CAP}"
        )
    out = []
    for combo in itertools.product((1, -1), repeat=tree.k):
        assignment = SignAssignment.make(dict(zip(tree.hidden, combo)))
        out.append(apply_sign_assignment(tree, assignment))
    return out


def verify_equivalence(trees: list[GaussianTree]) -> bool:
    """True iff every tree's observed covariance matches the first's
    elementwise within EQUIVALENCE_TOL."""
    if not trees:
        raise MismatchedNodeSets("need at least one tree to verify")
    first = trees[0]
    ref_nodes = first.spec.nodes
    for t in trees[1:]:
        if t.spec.nodes != ref_nodes:
            raise MismatchedNodeSets("trees do not share a common node set")
    ref = joint_covariance(first).observed_block
    for t in trees[1:]:
        other = joint_covariance(t).observed_block
        if np.max(np.abs(other - ref)) > EQUIVALENCE_TOL:
            return False
    return True


def _gf2_left_nullspace(a: np.ndarray) -> list[np.ndarray]:
    """Basis of {r : r^T A = 0} over GF(2); A is (m, k) with 0/1 entries."""
    m, k = a.shape
    # Row-reduce [A | I_m]; rows whose A-part vanishes give the relations.
    work = np.concatenate([a.copy() % 2, np.eye(m, dtype=np.int64)], axis=1)
    row = 0
    for col in range(k):
        pivot = None
        for r in range(row, m):
            if work[r, col] == 1:
                pivot = r
                break
        if pivot is None:
            continue
        work[[row, pivot]] = work[[pivot, row]]
        for r in range(m):
            if r != row and work[r, col] == 1:
                work[r] ^= work[row]
        row += 1
    return [work[r, k:] for r in range(row, m)]


def sign_class_report(tree: GaussianTree) -> SignClassReport:
    """Derive the per-edge sign-variable view from the node flips.

    One ``class`` variable per hidden node with at least one observed
    neighbour (all of its observed-facing edges flip together), one ``edge``
    variable per hidden-hidden edge, and one product constraint per
    independent relation among them.  The free count always equals the
    number of hidden nodes.
    """
    hid = set(tree.hidden)
    class_owners = [
        h
        for h in tree.hidden
        if any(nbr not in hid for nbr, _ in tree.adjacency[h])
    ]
    hh_edges = [(u, v) for u, v, _ in tree.hidden_hidden_edges()]

    labels: list[tuple] = [("class", h) for h in class_owners]
    labels += [("edge", u, v) for u, v in hh_edges]

    hidden_pos = {h: i for i, h in enumerate(tree.hidden)}
    a = np.zeros((len(labels), tree.k), dtype=np.int64)
    for row, lab in enumerate(labels):
        if lab[0] == "class":
            a[row, hidden_pos[lab[1]]] = 1
        else:
            a[row, hidden_pos[lab[1]]] ^= 1
            a[row, hidden_pos[lab[2]]] ^= 1

    relations = _gf2_left_nullspace(a)
    constraints = []
    for r in relations:
        involved = [labels[i] for i in np.flatnonzero(r)]
        lhs = tuple(lab for lab in involved if lab[0] == "edge")
        rhs = tuple(lab for lab in involved if lab[0] == "class")
        constraints.append((lhs, rhs))

    rank = len(labels) - len(relations)
    return SignClassReport(
        edge_sign_variables=len(labels),
        constraints=tuple(constraints),
        free_variables=rank,
    )
