"""Reference values computed apart from lgtree.

Everything here reads the tree text format itself and uses numpy only, so a
fault in lgtree's parser, covariance assembly or Monte Carlo estimators
cannot hide in the value it is compared against.

* ``path_product_covariance``: the joint covariance as products of edge
  correlations along tree paths.
* ``determinant_mi``: MI between the observed and hidden blocks from the
  determinant identity 0.5 * (log det S_x + log det S_y - sum log(1 - rho^2)).
* ``sign_mi_quadrature``: the pi-weighted conditional sign MI of a tree whose
  observed nodes are leaves of hidden nodes.  Given the hidden values the
  leaf groups are independent, and hidden node h's sign is seen only through
  T = sum rho_i x_i / (1 - rho_i^2), with T | b, y ~ N(b y S, S) and
  S = sum rho_i^2 / (1 - rho_i^2).  Each group then contributes
  E_y[C(p_h, y sqrt(S))], where C(p, mu) is the MI of a +/-mu binary input
  with prior p in unit Gaussian noise; both expectations are Gauss-Hermite
  sums, accurate to about 1e-9 at QUAD_NODES nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

QUAD_NODES = 200


@dataclass(frozen=True)
class TreeFile:
    nodes: tuple[str, ...]
    observed: tuple[str, ...]
    hidden: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]

    def neighbours(self, node: str) -> list[tuple[str, float]]:
        out = []
        for u, v, rho in self.edges:
            if u == node:
                out.append((v, rho))
            elif v == node:
                out.append((u, rho))
        return out


def read_tree(path) -> TreeFile:
    nodes, kinds, edges = [], {}, []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            if parts[0] == "node":
                nodes.append(parts[1])
                kinds[parts[1]] = parts[2]
            elif parts[0] == "edge":
                edges.append((parts[1], parts[2], float(parts[3])))
            else:
                raise ValueError(f"{path}: unknown record {parts[0]!r}")
    return TreeFile(
        nodes=tuple(nodes),
        observed=tuple(n for n in nodes if kinds[n] == "observed"),
        hidden=tuple(n for n in nodes if kinds[n] == "hidden"),
        edges=tuple(edges),
    )


def path_product_covariance(tree: TreeFile) -> np.ndarray:
    """Joint covariance in ``tree.nodes`` order."""
    index = {n: i for i, n in enumerate(tree.nodes)}
    cov = np.eye(len(tree.nodes))
    for start in tree.nodes:
        stack = [(start, 1.0)]
        seen = {start}
        while stack:
            cur, prod = stack.pop()
            cov[index[start], index[cur]] = prod
            for nbr, rho in tree.neighbours(cur):
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append((nbr, prod * rho))
    return cov


def blocks(tree: TreeFile) -> tuple[np.ndarray, np.ndarray]:
    """(observed block, hidden block) of the path-product covariance."""
    cov = path_product_covariance(tree)
    obs = [tree.nodes.index(o) for o in tree.observed]
    hid = [tree.nodes.index(h) for h in tree.hidden]
    return cov[np.ix_(obs, obs)], cov[np.ix_(hid, hid)]


def determinant_mi(tree: TreeFile) -> float:
    sigma_x, sigma_y = blocks(tree)
    log_edges = sum(math.log1p(-rho * rho) for _, _, rho in tree.edges)
    return 0.5 * (np.linalg.slogdet(sigma_x)[1] + np.linalg.slogdet(sigma_y)[1] - log_edges)


def leaf_groups(tree: TreeFile) -> dict[str, tuple[float, ...]]:
    """Edge correlations of each hidden node's observed leaves; raises
    ValueError unless every observed node is a leaf of a hidden node."""
    groups: dict[str, list[float]] = {h: [] for h in tree.hidden}
    for o in tree.observed:
        nbrs = tree.neighbours(o)
        if len(nbrs) != 1 or nbrs[0][0] not in groups:
            raise ValueError(f"observed node {o!r} is not a leaf of a hidden node")
        groups[nbrs[0][0]].append(nbrs[0][1])
    return {h: tuple(r) for h, r in groups.items()}


_T, _W = hermegauss(QUAD_NODES)
_W = _W / math.sqrt(2.0 * math.pi)


def _group_sign_mi(p: float, snr: float) -> float:
    """E_y[C(p, y sqrt(snr))] for y ~ N(0, 1)."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    mu = _T[:, None] * math.sqrt(snr)                  # outer nodes: y
    a = -2.0 * mu * (mu + _T[None, :])                 # inner nodes: noise w
    lp, lq = math.log(p), math.log1p(-p)
    inner = -p * np.logaddexp(lp, lq + a) - (1.0 - p) * np.logaddexp(lq, lp + a)
    return float(_W @ inner @ _W)


def sign_mi_quadrature(tree: TreeFile, probs: dict[str, float]) -> float:
    """Conditional sign MI (nats) at per-node sign biases ``probs``."""
    total = 0.0
    for h, rhos in leaf_groups(tree).items():
        if rhos:
            snr = sum(r * r / (1.0 - r * r) for r in rhos)
            total += _group_sign_mi(probs[h], snr)
    return total
