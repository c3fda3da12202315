import pathlib

import pytest

import lgtree as lg

TREES = pathlib.Path(__file__).resolve().parent.parent / "trees"


@pytest.fixture(scope="session")
def star():
    return lg.load_tree(TREES / "star.tree")


@pytest.fixture(scope="session")
def dumbbell():
    return lg.load_tree(TREES / "dumbbell.tree")


@pytest.fixture(scope="session")
def two_layer():
    return lg.load_tree(TREES / "two_layer.tree")


@pytest.fixture(scope="session")
def lowcorr():
    return lg.load_tree(TREES / "lowcorr.tree")


@pytest.fixture(scope="session")
def four_hidden():
    # one layer of four hidden nodes in a chain, each with its own observed
    # leaves: a top layer with eight covariance sign patterns
    return lg.validate_tree(lg.parse_tree_text(
        "".join(f"node x{i} observed\n" for i in range(1, 9))
        + "".join(f"node y{h} hidden\n" for h in range(1, 5))
        + "edge y1 y2 0.5\nedge y2 y3 0.55\nedge y3 y4 0.6\n"
        + "".join(f"edge y{h} x{2 * h - 1} 0.6\nedge y{h} x{2 * h} 0.7\n" for h in range(1, 5))
    ))


@pytest.fixture(scope="session")
def tree_dir():
    return TREES
