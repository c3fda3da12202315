#!/usr/bin/env python3
"""Soft-covering trend experiment.

For a tree and sign bias, sweep the block length at rates a fixed margin
above the top layer's frontier and record the block KL estimate, its standard
error, and the Pinsker bound.  Writes a CSV to stdout or --out.

Example:
    python3 scripts/divergence_trend.py trees/star.tree --lengths 2,4,6,8 \
        --margin 0.2 --samples 3000 --seed 11
"""

import argparse
import sys

import lgtree as lg
from lgtree.info import BernoulliParams


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("tree_path")
    ap.add_argument("--lengths", default="2,4,6,8")
    ap.add_argument("--margin", type=float, default=0.2)
    ap.add_argument("--pi", type=float, default=0.5)
    ap.add_argument("--samples", type=int, default=3000)
    ap.add_argument("--frontier-samples", type=int, default=100000)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    tree = lg.load_tree(args.tree_path)
    pi = BernoulliParams.uniform(tree, args.pi)
    rows = ["block_length,kl_estimate,kl_std_error,tv_upper_bound,components"]
    for n_uses in (int(v) for v in args.lengths.split(",")):
        rates = lg.frontier_rates(
            tree, pi, args.margin, n_uses, samples=args.frontier_samples, seed=5
        )
        codebook = lg.build_codebooks(tree, rates, pi, args.seed)
        report = lg.estimate_divergence(tree, codebook, args.samples, 17)
        my, mb = rates.codeword_counts()
        rows.append(
            f"{n_uses},{report.kl_estimate!r},{report.kl_std_error!r},"
            f"{report.tv_upper_bound!r},{my * mb}"
        )
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
