from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ominsim import (
    ConflictEdge,
    ConflictKind,
    Message,
    SameSourceError,
    Topology,
    build_conflict_graph,
    build_network,
    conflict_stages,
    edges_csv,
    full_permutation,
    make_permutation,
    path_table,
    shared_pairs,
    trace_path,
)

from .conftest import draw_map


def test_conflict_examples(omega8, omega4):
    assert conflict_stages(omega8, Message(0, 7), Message(4, 3)) == [(1, ConflictKind.SWITCH_CROSSTALK)]
    assert conflict_stages(omega8, Message(0, 7), Message(1, 0)) == []
    # both want stage-1 switch 0 with routing bit 0: a hard line collision,
    # and the merged paths are not compared past it
    assert conflict_stages(omega4, Message(0, 1), Message(2, 0)) == [(1, ConflictKind.LINK_CONFLICT)]


def test_same_source_rejected(omega8):
    with pytest.raises(SameSourceError):
        conflict_stages(omega8, Message(3, 1), Message(3, 2))


def test_showcase_graph_shape(omega8, showcase):
    graph = build_conflict_graph(omega8, showcase)
    assert len(graph.edges) == 12
    assert all(graph.degree(v) == 3 for v in range(8))
    assert not any(e.has_link_conflict for e in graph.edges)
    # every switch at every stage carries exactly two of the eight messages
    for stage in range(1, 4):
        occupancy = Counter(trace_path(omega8, m).switches()[stage - 1] for m in showcase.pairs)
        assert sorted(occupancy.values()) == [2, 2, 2, 2]
        assert sum(1 for e in graph.edges if e.stage == stage) == 4


def test_identity_graph_is_four_cycle(omega4):
    perm = full_permutation(omega4, [0, 1, 2, 3])
    graph = build_conflict_graph(omega4, perm)
    assert {(e.a, e.b) for e in graph.edges} == {(0, 1), (0, 2), (1, 3), (2, 3)}
    assert all(e.kind is ConflictKind.SWITCH_CROSSTALK for e in graph.edges)


def test_single_message_graph(omega4):
    perm = make_permutation([Message(0, 0)], 4)
    assert build_conflict_graph(omega4, perm).edges == []


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
        for stage, kind in conflict_stages(net, perm.pairs[i], perm.pairs[j]):
            if stage == net.stages:
                assert kind is ConflictKind.SWITCH_CROSSTALK


@settings(max_examples=60)
@given(st.permutations(tuple(range(8))))
def test_full_permutations_have_no_isolated_vertices(dests):
    net = build_network(8, Topology.OMEGA)
    graph = build_conflict_graph(net, full_permutation(net, dests))
    assert all(graph.degree(v) >= 1 for v in range(8))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(Topology)), st.sampled_from([4, 8, 16, 32, 64]), st.data())
def test_graph_equals_all_pairs_oracle(topology, size, data):
    """The switch-bucketed graph has exactly the edges that conflict_stages
    finds over every pair, on full maps and on partial maps that may repeat
    destinations; the traces of any pair meet at one stage at most."""
    net = build_network(size, topology)
    perm = draw_map(data, net)
    graph = build_conflict_graph(net, perm)
    expected = []
    for a, b in combinations(range(len(perm.pairs)), 2):
        shared = conflict_stages(net, perm.pairs[a], perm.pairs[b])
        assert len(shared) <= 1
        expected.extend((a, b, stage, kind) for stage, kind in shared)
    assert [(e.a, e.b, e.stage, e.kind) for e in graph.edges] == expected
    for v in range(len(perm.pairs)):
        assert graph.degree(v) == sum(1 for e in graph.edges if v in (e.a, e.b))


def test_baseline_conflicts_use_trace():
    net = build_network(8, Topology.BASELINE)
    found = conflict_stages(net, Message(0, 0), Message(1, 1))
    assert found and all(isinstance(stage, int) for stage, _ in found)


def test_edges_csv(omega8, showcase):
    csv = edges_csv(build_conflict_graph(omega8, showcase))
    lines = csv.strip().split("\n")
    assert lines[0] == "indexA,indexB,stages,kinds"
    assert lines[1] == "0,2,2,crosstalk"
    assert len(lines) == 13


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(Topology)), st.sampled_from([4, 8, 16, 32, 64]), st.data())
def test_edges_csv_equals_all_pairs_oracle(topology, size, data):
    """The CSV equals one written from conflict_stages over every pair,
    `link` labels included: partial maps that repeat a destination end in
    link conflicts.  The graph stores the ConflictEdge records shared_pairs
    made."""
    net = build_network(size, topology)
    perm = draw_map(data, net)
    graph = build_conflict_graph(net, perm)
    lines = ["indexA,indexB,stages,kinds"]
    for a, b in combinations(range(len(perm.pairs)), 2):
        shared = conflict_stages(net, perm.pairs[a], perm.pairs[b])
        if shared:
            stages = ";".join(str(s) for s, _ in shared)
            kinds = ";".join(k.value for _, k in shared)
            lines.append(f"{a},{b},{stages},{kinds}")
    assert edges_csv(graph) == "\n".join(lines) + "\n"
    assert all(isinstance(e, ConflictEdge) for e in graph.edges)


def test_shared_pairs_of_fewer_than_two_rows():
    for rows in (0, 1):
        table = np.zeros((rows, 3), dtype=np.intp)
        assert shared_pairs(table, table) == []


def test_shared_pairs_pairs_every_member_of_a_crowded_switch():
    """Three of four rows sit on switch 5 at stage 1; two of them also share
    out-line 11 there."""
    switches = np.array([[5, 0], [5, 1], [2, 2], [5, 3]])
    out_lines = np.array([[10, 0], [11, 2], [4, 4], [11, 6]])
    assert shared_pairs(switches, out_lines) == [
        (0, 1, 1, False),
        (0, 3, 1, False),
        (1, 3, 1, True),
    ]


def test_shared_pairs_of_one_destination_are_every_pair_once(omega8):
    """Five messages to destination 0 end on one out-line, so each pair of
    them meets at least at the last stage, and every pair ends in a link
    conflict."""
    pairs = shared_pairs(*path_table(omega8, range(5), [0] * 5))
    assert [(a, b) for a, b, _, _ in pairs] == list(combinations(range(5), 2))
    assert all(link for _, _, _, link in pairs)


def test_a_link_conflict_is_one_edge_at_its_stage(omega8):
    """0->0 and 4->1 sit on switch 0 at all three stages of the path table,
    on one out-line at stages 1 and 2: they collide at stage 1, and that is
    their one edge."""
    switches, out_lines = path_table(omega8, [0, 4], [0, 1])
    assert (switches == 0).all()
    assert (out_lines[0] == out_lines[1]).tolist() == [True, True, False]
    assert shared_pairs(switches, out_lines) == [(0, 1, 1, True)]
    perm = make_permutation([Message(0, 0), Message(4, 1)], 8)
    assert edges_csv(build_conflict_graph(omega8, perm)).split("\n")[1] == "0,1,1,link"
