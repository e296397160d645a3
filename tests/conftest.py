import numpy as np
import pytest
from hypothesis import strategies as st

from ominsim import Message, build_network, full_permutation, make_permutation, path_table, shared_pairs

# 8-input full permutation used as the worked example throughout the suite:
# sources 0..7 mapped to 7 0 5 2 3 6 1 4.
SHOWCASE_DESTS = (7, 0, 5, 2, 3, 6, 1, 4)


@pytest.fixture
def omega8():
    return build_network(8, "omega")


@pytest.fixture
def omega4():
    return build_network(4, "omega")


@pytest.fixture
def showcase(omega8):
    return full_permutation(omega8, SHOWCASE_DESTS)


def draw_map(data, net):
    """A full map, or a partial map that may repeat destinations."""
    size = net.size
    if data.draw(st.booleans()):
        return full_permutation(net, data.draw(st.permutations(tuple(range(size)))))
    sources = data.draw(st.lists(st.integers(0, size - 1), unique=True, max_size=size - 1))
    dests = data.draw(st.lists(st.integers(0, size - 1), min_size=len(sources), max_size=len(sources)))
    return make_permutation([Message(s, d) for s, d in zip(sources, dests)], size)


def conflict_pairs(net, perm):
    """The map's conflicting pairs as `shared_pairs` returns them: arrays
    a, b, stage, link over its path table."""
    return shared_pairs(*path_table(net, perm.sources, perm.dests))


def degrees(pairs, count):
    """Each message's number of conflicting partners, as Welsh-Powell counts it."""
    a, b, _, _ = pairs
    return np.bincount(np.r_[a, b], minlength=count)


def as_rows(pairs):
    """The four arrays as a list of (a, b, stage, link) tuples."""
    return list(zip(*(x.tolist() for x in pairs)))


@st.composite
def networks(draw, sizes=(4, 8, 16, 32)):
    return build_network(draw(st.sampled_from(sizes)), draw(st.sampled_from(["omega", "baseline"])))


@st.composite
def fixed_maps(draw, net):
    """A full or partial map, its pairs listed in a shuffled order."""
    dests = draw(st.permutations(range(net.size)))
    keep = draw(st.lists(st.booleans(), min_size=net.size, max_size=net.size))
    if draw(st.booleans()):
        keep = [True] * net.size
    pairs = [Message(s, d) for s, d, k in zip(range(net.size), dests, keep) if k]
    return make_permutation(draw(st.permutations(pairs)), net.size)
