import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lgtree as lg
from lgtree.errors import (
    BadCorrelation,
    DanglingEdge,
    InconsistentCovariance,
    NotATree,
    NonMinimal,
    ParseError,
    UnknownNode,
)
from lgtree.trees import TreeSpec, random_tree

STAR_NODES = [("x1", "observed"), ("x2", "observed"), ("x3", "observed"), ("y", "hidden")]
STAR_EDGES = [("y", "x1", 0.6), ("y", "x2", 0.7), ("y", "x3", 0.8)]


def test_validate_star(star):
    assert star.k == 1 and star.n == 3
    assert star.layer == {"y": 1}
    assert star.num_layers == 1


def test_validate_rejects_non_minimal():
    # star with the (y, x3) edge removed: hidden degree drops to two
    spec = TreeSpec.make(STAR_NODES[:2] + [("y", "hidden")], STAR_EDGES[:2])
    with pytest.raises(NonMinimal):
        lg.validate_tree(spec)


def test_validate_rejects_cycle():
    nodes = [("x1", "observed"), ("x2", "observed"), ("y", "hidden"), ("x3", "observed")]
    edges = [("x1", "y", 0.5), ("y", "x2", 0.5), ("y", "x3", 0.5), ("x1", "x2", 0.3)]
    with pytest.raises(NotATree):
        lg.validate_tree(TreeSpec.make(nodes, edges))


def test_validate_rejects_disconnected():
    nodes = STAR_NODES + [("x4", "observed"), ("x5", "observed")]
    edges = STAR_EDGES + [("x4", "x5", 0.4)]
    with pytest.raises(NotATree):
        lg.validate_tree(TreeSpec.make(nodes, edges))


def test_validate_rejects_duplicate_edge():
    edges = STAR_EDGES + [("x1", "y", 0.6)]
    with pytest.raises(NotATree):
        lg.validate_tree(TreeSpec.make(STAR_NODES, edges))


@pytest.mark.parametrize("rho", [0.0, 1.0, -1.0, 1.2])
def test_validate_rejects_bad_correlation(rho):
    edges = [("y", "x1", rho)] + STAR_EDGES[1:]
    with pytest.raises(BadCorrelation):
        lg.validate_tree(TreeSpec.make(STAR_NODES, edges))


def test_validate_rejects_dangling_edge():
    edges = STAR_EDGES + [("y", "nope", 0.5)]
    with pytest.raises(DanglingEdge):
        lg.validate_tree(TreeSpec.make(STAR_NODES, edges))


def test_pairwise_correlation(star, dumbbell):
    assert lg.pairwise_correlation(star, "x1", "x2") == pytest.approx(0.42, abs=1e-15)
    assert lg.pairwise_correlation(star, "x1", "y") == pytest.approx(0.6, abs=1e-15)
    assert lg.pairwise_correlation(dumbbell, "x1", "x3") == pytest.approx(0.18, abs=1e-15)
    assert lg.pairwise_correlation(star, "x2", "x1") == lg.pairwise_correlation(star, "x1", "x2")
    with pytest.raises(UnknownNode):
        lg.pairwise_correlation(star, "x1", "zz")


def test_joint_covariance_star(star):
    model = lg.joint_covariance(star)
    obs = np.asarray(model.observed_block)
    assert obs[0, 1] == pytest.approx(0.42, abs=1e-15)
    assert obs[0, 2] == pytest.approx(0.48, abs=1e-15)
    assert obs[1, 2] == pytest.approx(0.56, abs=1e-15)
    joint = np.asarray(model.joint)
    iy, ix1 = model.node_order["y"], model.node_order["x1"]
    assert joint[iy, ix1] == pytest.approx(0.6, abs=1e-15)
    assert np.all(np.diag(joint) == 1.0)
    assert np.min(np.linalg.eigvalsh(joint)) > 1e-10


def test_joint_covariance_dumbbell_entry(dumbbell):
    model = lg.joint_covariance(dumbbell)
    i, j = model.node_order["x2"], model.node_order["x4"]
    assert np.asarray(model.joint)[i, j] == pytest.approx(0.245, abs=1e-15)


def test_joint_covariance_is_exactly_symmetric(request):
    # each new row is written to the row and the column together, so the
    # matrix is symmetric bit for bit by construction
    fixtures = [request.getfixturevalue(n) for n in ("star", "dumbbell", "lowcorr", "two_layer")]
    rng = np.random.default_rng(20)
    for tree in fixtures + [random_tree(rng) for _ in range(200)]:
        joint = lg.joint_covariance(tree).joint
        assert np.array_equal(joint, joint.T), tree.spec


def test_joint_covariance_matches_the_path_product_oracle(request):
    from test_synthesis import _bench_oracles

    oracles = _bench_oracles()
    fixtures = [request.getfixturevalue(n) for n in ("star", "dumbbell", "lowcorr", "two_layer")]
    rng = np.random.default_rng(24)
    trees = fixtures + [random_tree(rng) for _ in range(150)]
    trees += [random_tree(rng, max_observed=30, max_hidden=12) for _ in range(50)]
    for tree in trees:
        want = oracles.path_product_covariance(
            oracles.TreeFile(tree.nodes, tree.observed, tree.hidden, tree.spec.edges))
        joint = np.asarray(lg.joint_covariance(tree).joint)
        assert np.max(np.abs(joint - want)) <= 1e-15, tree.spec
        assert np.all(np.diag(joint) == 1.0)
        i, j = rng.choice(len(tree.nodes), size=2, replace=False)
        assert lg.pairwise_correlation(tree, tree.nodes[i], tree.nodes[j]) == joint[i, j]


def test_tree_determinant_star(star):
    det = lg.tree_determinant(star)
    assert det == pytest.approx(0.117504, rel=1e-12)
    direct = np.linalg.det(np.asarray(lg.joint_covariance(star).joint))
    assert abs(direct - det) / det < 1e-12


def test_tree_determinant_dumbbell(dumbbell):
    # frozen from the direct 6x6 determinant oracle
    det = lg.tree_determinant(dumbbell)
    assert det == pytest.approx(0.07990272, rel=1e-12)
    direct = np.linalg.det(np.asarray(lg.joint_covariance(dumbbell).joint))
    assert abs(direct - det) / det < 1e-12


def test_recover_edge_magnitudes_star(star):
    sigma = lg.joint_covariance(star).observed_block
    mags = lg.recover_edge_magnitudes(sigma, star)
    assert mags[("y", "x1")] == pytest.approx(0.6, abs=1e-12)
    assert mags[("y", "x2")] == pytest.approx(0.7, abs=1e-12)
    assert mags[("y", "x3")] == pytest.approx(0.8, abs=1e-12)


def test_recover_rejects_perturbed_covariance(star):
    sigma = np.array(lg.joint_covariance(star).observed_block)
    sigma[1, 2] = sigma[2, 1] = 0.10
    with pytest.raises(InconsistentCovariance):
        lg.recover_edge_magnitudes(sigma, star)


def test_recover_hidden_hidden_magnitude(dumbbell):
    sigma = lg.joint_covariance(dumbbell).observed_block
    mags = lg.recover_edge_magnitudes(sigma, dumbbell)
    assert mags[("y1", "y2")] == pytest.approx(0.5, abs=1e-12)


def test_recover_roundtrip_random_trees():
    rng = np.random.default_rng(2024)
    for _ in range(120):
        tree = random_tree(rng)
        sigma = lg.joint_covariance(tree).observed_block
        mags = lg.recover_edge_magnitudes(sigma, tree)
        for u, v, rho in tree.spec.edges:
            assert mags[(u, v)] == pytest.approx(abs(rho), rel=1e-9)


def test_triple_ratio_consistency_random_trees():
    from lgtree.trees import squared_gain_ratios

    rng = np.random.default_rng(5)
    for _ in range(40):
        tree = random_tree(rng)
        sigma = lg.joint_covariance(tree).observed_block
        for o in tree.observed:
            h = tree.adjacency[o][0][0]
            ratios = squared_gain_ratios(sigma, tree, o, h)
            if len(ratios) > 1:
                assert max(ratios) - min(ratios) <= 1e-12


def test_layer_structure_random_trees():
    rng = np.random.default_rng(99)
    for _ in range(60):
        tree = random_tree(rng)
        for h in tree.hidden:
            nbr_kinds = [n for n, _ in tree.adjacency[h]]
            if any(n in tree.observed for n in nbr_kinds):
                assert tree.layer[h] == 1
            for n in nbr_kinds:
                if n in tree.layer:
                    assert abs(tree.layer[h] - tree.layer[n]) <= 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6))
def test_determinant_identity_random(seed):
    tree = random_tree(np.random.default_rng(seed))
    det = lg.tree_determinant(tree)
    direct = np.linalg.det(np.asarray(lg.joint_covariance(tree).joint))
    assert abs(direct - det) <= 1e-12 * abs(det)


def test_two_layer_fixture_layers(two_layer):
    assert two_layer.k == 6 and two_layer.n == 11
    assert len(two_layer.layer_nodes(1)) == 5
    assert two_layer.layer_nodes(2) == ("u",)
    assert two_layer.num_layers == 2


def test_parse_format_roundtrip(star):
    text = lg.format_tree(star)
    spec = lg.parse_tree_text(text)
    assert spec == star.spec


@pytest.mark.parametrize("line", ["node x1", "edge a b", "edge a b zz", "what x1 observed", "node x1 latent"])
def test_parse_errors(line):
    with pytest.raises(ParseError):
        lg.parse_tree_text(line)


def test_parse_ignores_comments_and_blanks():
    text = "# header\n\nnode a observed\nnode b observed  # trailing\nnode y hidden\nedge y a 0.5\nedge y b 0.5\n"
    spec = lg.parse_tree_text(text)
    assert len(spec.nodes) == 3 and len(spec.edges) == 2


def test_ratio_out_of_range_is_inconsistent(star):
    from lgtree.errors import RatioOutOfRange

    sigma = np.array(lg.joint_covariance(star).observed_block)
    sigma[1, 2] = sigma[2, 1] = 0.10   # pushes one squared gain above 1
    with pytest.raises(RatioOutOfRange):
        lg.recover_edge_magnitudes(sigma, star)
    assert issubclass(RatioOutOfRange, InconsistentCovariance)
