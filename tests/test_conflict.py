from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ominsim import (
    Message,
    SameSourceError,
    Topology,
    build_network,
    conflict_stages,
    edges_csv,
    full_permutation,
    make_permutation,
    path_table,
    shared_pairs,
    trace_path,
)

from .conftest import as_rows, conflict_pairs, degrees, draw_map


def test_conflict_examples(omega8, omega4):
    assert conflict_stages(omega8, Message(0, 7), Message(4, 3)) == [(1, False)]
    assert conflict_stages(omega8, Message(0, 7), Message(1, 0)) == []
    # both want stage-1 switch 0 with routing bit 0: a hard line collision,
    # and the merged paths are not compared past it
    assert conflict_stages(omega4, Message(0, 1), Message(2, 0)) == [(1, True)]


def test_same_source_rejected(omega8):
    with pytest.raises(SameSourceError):
        conflict_stages(omega8, Message(3, 1), Message(3, 2))


def test_showcase_graph_shape(omega8, showcase):
    pairs = conflict_pairs(omega8, showcase)
    a, _, stages, link = pairs
    assert a.size == 12
    assert (degrees(pairs, 8) == 3).all()
    assert not link.any()
    # every switch at every stage carries exactly two of the eight messages
    for stage in range(1, 4):
        occupancy = Counter(trace_path(omega8, m)[stage - 1].switch for m in showcase.pairs)
        assert sorted(occupancy.values()) == [2, 2, 2, 2]
        assert (stages == stage).sum() == 4


def test_identity_graph_is_four_cycle(omega4):
    perm = full_permutation(omega4, [0, 1, 2, 3])
    a, b, _, link = conflict_pairs(omega4, perm)
    assert set(zip(a.tolist(), b.tolist())) == {(0, 1), (0, 2), (1, 3), (2, 3)}
    assert not link.any()


def test_single_message_graph(omega4):
    perm = make_permutation([Message(0, 0)], 4)
    assert as_rows(conflict_pairs(omega4, perm)) == []


@settings(max_examples=100)
@given(st.data())
def test_conflict_symmetry(data):
    net = build_network(8, Topology.OMEGA)
    s1 = data.draw(st.integers(0, 7))
    s2 = data.draw(st.integers(0, 7).filter(lambda s: s != s1))
    d1, d2 = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7))
    a, b = Message(s1, d1), Message(s2, d2)
    assert conflict_stages(net, a, b) == conflict_stages(net, b, a)


@settings(max_examples=60)
@given(st.permutations(tuple(range(8))))
def test_last_stage_conflicts_never_link_in_full_permutations(dests):
    """Distinct destinations force distinct routing bits wherever the final
    switch is shared."""
    net = build_network(8, Topology.OMEGA)
    perm = full_permutation(net, dests)
    for i, j in combinations(range(8), 2):
        for stage, link in conflict_stages(net, perm.pairs[i], perm.pairs[j]):
            if stage == net.stages:
                assert not link


@settings(max_examples=60)
@given(st.permutations(tuple(range(8))))
def test_full_permutations_have_no_isolated_vertices(dests):
    net = build_network(8, Topology.OMEGA)
    pairs = conflict_pairs(net, full_permutation(net, dests))
    assert (degrees(pairs, 8) >= 1).all()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(Topology)), st.sampled_from([4, 8, 16, 32, 64]), st.data())
def test_graph_equals_all_pairs_oracle(topology, size, data):
    """The switch-bucketed pair finder reports exactly the pairs that
    conflict_stages finds over every pair, on full maps and on partial maps
    that may repeat destinations; the traces of any pair meet at one stage
    at most."""
    net = build_network(size, topology)
    perm = draw_map(data, net)
    pairs = conflict_pairs(net, perm)
    expected = []
    for a, b in combinations(range(len(perm.pairs)), 2):
        shared = conflict_stages(net, perm.pairs[a], perm.pairs[b])
        assert len(shared) <= 1
        expected.extend((a, b, stage, link) for stage, link in shared)
    assert as_rows(pairs) == expected
    found = degrees(pairs, len(perm.pairs))
    for v in range(len(perm.pairs)):
        assert found[v] == sum(1 for a, b, _, _ in expected if v in (a, b))


def test_baseline_conflicts_use_trace():
    net = build_network(8, Topology.BASELINE)
    found = conflict_stages(net, Message(0, 0), Message(1, 1))
    assert found and all(isinstance(stage, int) for stage, _ in found)


def test_edges_csv(omega8, showcase):
    csv = edges_csv(*conflict_pairs(omega8, showcase))
    lines = csv.strip().split("\n")
    assert lines[0] == "indexA,indexB,stages,kinds"
    assert lines[1] == "0,2,2,crosstalk"
    assert len(lines) == 13


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(Topology)), st.sampled_from([4, 8, 16, 32, 64]), st.data())
def test_edges_csv_equals_all_pairs_oracle(topology, size, data):
    """The CSV equals one written from conflict_stages over every pair,
    `link` labels included: partial maps that repeat a destination end in
    link conflicts.  The pair finder's arrays are one row per pair."""
    net = build_network(size, topology)
    perm = draw_map(data, net)
    pairs = conflict_pairs(net, perm)
    lines = ["indexA,indexB,stages,kinds"]
    for a, b in combinations(range(len(perm.pairs)), 2):
        shared = conflict_stages(net, perm.pairs[a], perm.pairs[b])
        if shared:
            stages = ";".join(str(s) for s, _ in shared)
            kinds = ";".join("link" if link else "crosstalk" for _, link in shared)
            lines.append(f"{a},{b},{stages},{kinds}")
    assert edges_csv(*pairs) == "\n".join(lines) + "\n"
    assert len({len(x) for x in pairs}) == 1


def test_shared_pairs_of_fewer_than_two_rows():
    for rows in (0, 1):
        assert as_rows(shared_pairs(np.zeros((rows, 3), dtype=np.intp))) == []


def test_shared_pairs_pairs_every_member_of_a_crowded_switch():
    """Three of four rows sit on switch 5 at stage 1; two of them also share
    out-line 11 there."""
    lines = np.array([[10, 0], [11, 2], [4, 4], [11, 6]])
    assert as_rows(shared_pairs(lines)) == [
        (0, 1, 1, False),
        (0, 3, 1, False),
        (1, 3, 1, True),
    ]


def test_shared_pairs_of_one_destination_are_every_pair_once(omega8):
    """Five messages to destination 0 end on one out-line, so each pair of
    them meets at least at the last stage, and every pair ends in a link
    conflict."""
    a, b, _, link = shared_pairs(path_table(omega8, range(5), [0] * 5))
    assert list(zip(a.tolist(), b.tolist())) == list(combinations(range(5), 2))
    assert link.all()


def test_a_link_conflict_is_one_edge_at_its_stage(omega8):
    """0->0 and 4->1 sit on switch 0 at all three stages of the path table,
    on one out-line at stages 1 and 2: they collide at stage 1, and that is
    their one edge."""
    lines = path_table(omega8, [0, 4], [0, 1])
    assert (lines >> 1 == 0).all()
    assert (lines[0] == lines[1]).tolist() == [True, True, False]
    assert as_rows(shared_pairs(lines)) == [(0, 1, 1, True)]
    perm = make_permutation([Message(0, 0), Message(4, 1)], 8)
    assert edges_csv(*conflict_pairs(omega8, perm)).split("\n")[1] == "0,1,1,link"
