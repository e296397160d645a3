"""Pairwise conflict detection and the conflict graph scheduling colors.

Two messages conflict at a stage when their paths occupy the same switching
element there.  Sharing only the switch degrades both signals (crosstalk);
also sharing the output port means both need the same inter-stage line,
which no amount of tolerated crosstalk can fix.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import SameSourceError
from .routing import Message, PermutationMap, path_table, trace_path
from .topology import NetworkSpec


class ConflictKind(Enum):
    SWITCH_CROSSTALK = "crosstalk"
    LINK_CONFLICT = "link"


class ConflictEdge(NamedTuple):
    """Messages a < b share a switch at each of `stages` (1-based, cut after
    the first link conflict); `has_link_conflict` says whether the last of
    them is one."""

    a: int
    b: int
    stages: tuple[int, ...]
    has_link_conflict: bool

    @property
    def kinds(self) -> tuple[ConflictKind, ...]:
        """One label per stage: crosstalk, except a link conflict at the last."""
        last = ConflictKind.LINK_CONFLICT if self.has_link_conflict else ConflictKind.SWITCH_CROSSTALK
        return (ConflictKind.SWITCH_CROSSTALK,) * (len(self.stages) - 1) + (last,)


@dataclass
class ConflictGraph:
    """Messages as vertices; neighbours[v] maps each neighbour of v to the
    edge joining them."""

    vertex_count: int
    edges: list[ConflictEdge]
    neighbours: list[dict[int, ConflictEdge]] = field(init=False, repr=False)

    def __post_init__(self):
        self.neighbours = [{} for _ in range(self.vertex_count)]
        for e in self.edges:
            self.neighbours[e.a][e.b] = e
            self.neighbours[e.b][e.a] = e

    def edge(self, a: int, b: int) -> ConflictEdge | None:
        return self.neighbours[a].get(b)

    def degree(self, v: int) -> int:
        return len(self.neighbours[v])

    def max_degree(self) -> int:
        return max(map(len, self.neighbours), default=0)


def conflict_stages(net: NetworkSpec, a: Message, b: Message) -> list[tuple[int, ConflictKind]]:
    """Stages where the two traced paths share a switch, with the conflict kind.

    A link conflict merges the two paths onto one line, so comparison stops
    there: whatever the traces do afterwards is an artifact of a collision
    that already ended one of the messages.
    """
    if a.source == b.source:
        raise SameSourceError(f"both messages start at source {a.source}")
    found: list[tuple[int, ConflictKind]] = []
    for ha, hb in zip(trace_path(net, a).hops, trace_path(net, b).hops):
        if ha.switch != hb.switch:
            continue
        if ha.out_port == hb.out_port:
            found.append((ha.stage, ConflictKind.LINK_CONFLICT))
            break
        found.append((ha.stage, ConflictKind.SWITCH_CROSSTALK))
    return found


def shared_pairs(switches: np.ndarray, out_lines: np.ndarray) -> list[ConflictEdge]:
    """Every pair of rows of a path table that meets at a switch, as a
    ConflictEdge (a, b, stages, has_link_conflict) with a < b, in
    lexicographic (a, b) order.

    A link conflict puts both rows on one out-line.  Each stage column is
    sorted by switch, and rows d apart in that order are paired for
    d = 1, 2, ... while any of them still share a switch, so a bucket of any
    size yields all its pairs.
    """
    if len(switches) < 2:
        return []
    order = np.argsort(switches, axis=0, kind="stable")
    ordered = np.take_along_axis(switches, order, axis=0)
    firsts, seconds, columns = [], [], []
    for d in range(1, len(switches)):
        rows, cols = np.nonzero(ordered[:-d] == ordered[d:])
        if not rows.size:
            break
        firsts.append(order[rows, cols])
        seconds.append(order[rows + d, cols])  # stable: equal switches keep row order, so b > a
        columns.append(cols)
    if not firsts:
        return []
    a, b, k = np.concatenate(firsts), np.concatenate(seconds), np.concatenate(columns)
    by_pair = np.lexsort((k, b, a))
    a, b, k = a[by_pair], b[by_pair], k[by_pair]
    link = out_lines[a, k] == out_lines[b, k]
    first = np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])]
    # keep a stage only if no link conflict comes before it in its pair
    links_before = np.cumsum(link) - link
    keep = links_before == np.maximum.accumulate(np.where(first, links_before, 0))
    a, b, k, link, first = a[keep], b[keep], k[keep], link[keep], first[keep]
    starts = np.flatnonzero(first)
    ends = np.r_[starts[1:], a.size]
    stages = (k + 1).tolist()
    return [
        ConflictEdge(a_i, b_i, tuple(stages[start:end]), link_i)
        for a_i, b_i, start, end, link_i in zip(
            a[starts].tolist(), b[starts].tolist(), starts.tolist(), ends.tolist(), link[ends - 1].tolist()
        )
    ]


def build_conflict_graph(net: NetworkSpec, perm: PermutationMap) -> ConflictGraph:
    """Edges in lexicographic (a, b) order, a < b message indices, from the
    pairs of the path table that share a switch (`shared_pairs`)."""
    tables = path_table(net, [m.source for m in perm.pairs], perm.destinations())
    return ConflictGraph(vertex_count=len(perm.pairs), edges=shared_pairs(*tables))


def edges_csv(graph: ConflictGraph) -> str:
    """Edge list as CSV: indexA,indexB,stages,kinds with ';'-joined fields."""
    lines = ["indexA,indexB,stages,kinds"]
    for e in graph.edges:
        stages = ";".join(str(s) for s in e.stages)
        kinds = ";".join(k.value for k in e.kinds)
        lines.append(f"{e.a},{e.b},{stages},{kinds}")
    return "\n".join(lines) + "\n"
