import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lgtree as lg
from lgtree.errors import MismatchedNodeSets, MissingAssignment, TooManyHidden
from lgtree.signs import SignAssignment
from lgtree.trees import random_tree


def signed_edges(tree):
    return tuple((u, v, rho) for u, v, rho in tree.spec.edges)


def test_apply_flip_star(star):
    flipped = lg.apply_sign_assignment(star, SignAssignment.make({"y": -1}))
    assert all(rho < 0 for _, _, rho in flipped.spec.edges)
    same = lg.apply_sign_assignment(star, SignAssignment.make({"y": 1}))
    assert signed_edges(same) == signed_edges(star)


def test_apply_flip_dumbbell(dumbbell):
    flipped = lg.apply_sign_assignment(
        dumbbell, SignAssignment.make({"y1": -1, "y2": 1})
    )
    rho = {(u, v): r for u, v, r in flipped.spec.edges}
    assert rho[("y1", "y2")] == -0.5
    assert rho[("y1", "x1")] == -0.6 and rho[("y1", "x2")] == -0.7
    assert rho[("y2", "x3")] == 0.6 and rho[("y2", "x4")] == 0.7


def test_apply_requires_full_assignment(dumbbell):
    with pytest.raises(MissingAssignment):
        lg.apply_sign_assignment(dumbbell, SignAssignment.make({"y1": -1}))


def test_enumeration_counts(star, dumbbell, two_layer):
    assert len(lg.enumerate_equivalent_trees(star)) == 2
    assert len(lg.enumerate_equivalent_trees(dumbbell)) == 4
    assert len(lg.enumerate_equivalent_trees(two_layer)) == 64


def test_enumeration_cap(two_layer, monkeypatch):
    monkeypatch.setattr(lg.signs, "ENUMERATION_CAP", 5)
    with pytest.raises(TooManyHidden):
        lg.enumerate_equivalent_trees(two_layer)


def test_enumeration_distinct_and_equivalent(dumbbell):
    variants = lg.enumerate_equivalent_trees(dumbbell)
    seen = {signed_edges(t) for t in variants}
    assert len(seen) == 4
    assert lg.verify_equivalence(variants)


def test_verify_detects_single_edge_flip(star):
    edges = list(star.spec.edges)
    edges[0] = (edges[0][0], edges[0][1], -edges[0][2])
    broken = lg.validate_tree(lg.TreeSpec.make(star.spec.nodes, edges))
    assert not lg.verify_equivalence([star, broken])


def test_verify_singleton_and_mismatch(star, dumbbell):
    assert lg.verify_equivalence([star])
    with pytest.raises(MismatchedNodeSets):
        lg.verify_equivalence([star, dumbbell])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(bits=st.lists(st.booleans(), min_size=2, max_size=2), bits2=st.lists(st.booleans(), min_size=2, max_size=2))
def test_flip_group_property(dumbbell, bits, bits2):
    a = SignAssignment.make({h: 1 if v else -1 for h, v in zip(dumbbell.hidden, bits)})
    b = SignAssignment.make({h: 1 if v else -1 for h, v in zip(dumbbell.hidden, bits2)})
    ab = SignAssignment.make(
        {h: a.value(h) * b.value(h) for h in dumbbell.hidden}
    )
    seq = lg.apply_sign_assignment(lg.apply_sign_assignment(dumbbell, a), b)
    once = lg.apply_sign_assignment(dumbbell, ab)
    assert signed_edges(seq) == signed_edges(once)


def test_hidden_edge_sign_law_random():
    import itertools

    rng = np.random.default_rng(31)
    for _ in range(25):
        tree = random_tree(rng, max_hidden=3)
        base = {(u, v): rho for u, v, rho in tree.spec.edges}
        for combo in itertools.product((1, -1), repeat=tree.k):
            flips = dict(zip(tree.hidden, combo))
            variant = lg.apply_sign_assignment(tree, SignAssignment.make(flips))
            for u, v, rho in variant.spec.edges:
                want = base[(u, v)] * flips.get(u, 1) * flips.get(v, 1)
                assert rho == want


def test_random_suite_enumeration_invariants():
    rng = np.random.default_rng(7)
    for _ in range(15):
        tree = random_tree(rng, max_hidden=3, max_observed=7)
        variants = lg.enumerate_equivalent_trees(tree)
        assert len(variants) == 2 ** tree.k
        assert len({signed_edges(t) for t in variants}) == len(variants)
        assert lg.verify_equivalence(variants)


def test_sign_class_report_star(star):
    rep = lg.sign_class_report(star)
    assert (rep.edge_sign_variables, rep.constraint_count, rep.free_variables) == (1, 0, 1)


def test_sign_class_report_dumbbell(dumbbell):
    rep = lg.sign_class_report(dumbbell)
    assert (rep.edge_sign_variables, rep.constraint_count, rep.free_variables) == (3, 1, 2)
    (lhs, rhs), = rep.constraints
    assert lhs == (("edge", "y1", "y2"),)
    assert set(rhs) == {("class", "y1"), ("class", "y2")}


def test_sign_class_report_two_layer(two_layer):
    rep = lg.sign_class_report(two_layer)
    assert (rep.edge_sign_variables, rep.constraint_count, rep.free_variables) == (9, 3, 6)
    for lhs, rhs in rep.constraints:
        assert len(lhs) == 2 and len(rhs) == 2  # edge pair tied to a class pair


def test_sign_class_report_random_invariants():
    rng = np.random.default_rng(13)
    for _ in range(40):
        tree = random_tree(rng)
        rep = lg.sign_class_report(tree)
        assert rep.free_variables == tree.k
        assert rep.constraint_count == rep.edge_sign_variables - tree.k
