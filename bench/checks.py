"""Output checks.  Each returns a ``Check``; none of them reads lgtree.

Statistical checks compare a Monte Carlo estimate with a reference through
its own standard error, at a family-wise 3-sigma level: the Bonferroni z
for the two-sided 3-sigma mass split over every comparison the check makes
in CAMPAIGN_RUNS runs.  Comparing two commits takes two sets of at least ten
runs per workload, and tuning takes more, so a campaign makes on the order
of a hundred runs of each workload; at a per-run 3-sigma level one false
alarm somewhere in it would be likely (the chain-gap check alone, five
comparisons per run at about 0.3 % each, would raise one in most
campaigns).  Spanning the campaign keeps the chance that a check raises any
false alarm in it at the 3-sigma mass, 0.27 %.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

THREE_SIGMA_MASS = 2.0 * NormalDist().cdf(-3.0)   # two-sided mass beyond 3 sigma
CAMPAIGN_RUNS = 100
EXACT_ZERO = 1e-12   # an estimate with zero standard error must match exactly


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    observed: float
    threshold: float
    detail: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed),
                "observed": float(self.observed), "threshold": float(self.threshold),
                "detail": self.detail}


def family_z(comparisons: int) -> float:
    """z giving a family-wise 3-sigma level over ``comparisons`` tests per
    run, across CAMPAIGN_RUNS runs."""
    tests = max(comparisons, 1) * CAMPAIGN_RUNS
    return NormalDist().inv_cdf(1.0 - THREE_SIGMA_MASS / (2 * tests))


def z_family(name: str, pairs, detail: str = "") -> Check:
    """``pairs`` is a list of (difference, standard error).  Passes when every
    |difference / se| is within the family-wise level; a pair with se == 0
    must have |difference| <= EXACT_ZERO."""
    pairs = list(pairs)
    thr = family_z(len(pairs))
    worst = 0.0
    exact_ok = True
    for diff, se in pairs:
        if not (math.isfinite(diff) and math.isfinite(se)):
            return Check(name, False, math.inf, thr, detail + " (non-finite value)")
        if se > 0:
            worst = max(worst, abs(diff) / se)
        elif abs(diff) > EXACT_ZERO:
            exact_ok = False
    return Check(name, exact_ok and worst <= thr, worst, thr,
                 f"{detail}; max |z| over {len(pairs)} comparisons")


def curve_vs_oracle(name: str, curve, oracle) -> Check:
    """``curve``: list of (point, value, se); ``oracle``: point -> exact value."""
    return z_family(name, [(v - oracle(pt), se) for pt, v, se in curve],
                    "Monte Carlo curve vs Gauss-Hermite quadrature")


def mirror_symmetry(name: str, curve) -> Check:
    """The sign MI at pi and at 1 - pi agree (per point, every coordinate)."""
    table = {tuple(round(p, 9) for p in pt): (v, se) for pt, v, se in curve}
    pairs, seen = [], set()
    for pt, (v, se) in table.items():
        mirror = tuple(round(1.0 - p, 9) for p in pt)
        if mirror == pt or mirror in seen:
            continue
        seen.add(pt)
        if mirror not in table:
            return Check(name, False, math.inf, 0.0, f"grid lacks the mirror of {pt}")
        mv, mse = table[mirror]
        pairs.append((v - mv, math.hypot(se, mse)))
    return z_family(name, pairs, "curve at pi vs at 1 - pi")


def argmax_near_half(name: str, best: dict, step: float) -> Check:
    worst = max(abs(p - 0.5) for p in best.values())
    return Check(name, worst <= step + 1e-12, worst, step,
                 "max |pi* - 1/2| over hidden nodes, one grid step allowed")


def kl_trend(name: str, kl, se) -> Check:
    """KL falls with block length: at most one inversion, within 3 sigma."""
    worst, inversions = 0.0, 0
    for a, b in zip(range(len(kl) - 1), range(1, len(kl))):
        if kl[b] > kl[a]:
            inversions += 1
            worst = max(worst, (kl[b] - kl[a]) / math.hypot(se[a], se[b]))
    return Check(name, inversions <= 1 and worst <= 3.0, worst, 3.0,
                 f"{inversions} inversion(s); largest inversion in sigma")


def at_least(name: str, observed: float, threshold: float, detail: str = "") -> Check:
    return Check(name, observed >= threshold, observed, threshold, detail)


def at_most(name: str, observed: float, threshold: float, detail: str = "") -> Check:
    return Check(name, observed <= threshold, observed, threshold, detail)


def equal(name: str, observed, expected, detail: str = "") -> Check:
    """For counts and flags (bools read as 0 / 1, anything else as NaN)."""
    number = float(observed) if isinstance(observed, (int, float)) else math.nan
    return Check(name, observed == expected, number, float(expected), detail)
