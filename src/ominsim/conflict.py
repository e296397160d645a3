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
    """Messages a < b share a switch at `stage` (1-based), the one stage at
    which their paths meet; `has_link_conflict` says whether they also share
    the out-line there."""

    a: int
    b: int
    stage: int
    has_link_conflict: bool

    @property
    def kind(self) -> ConflictKind:
        return ConflictKind.LINK_CONFLICT if self.has_link_conflict else ConflictKind.SWITCH_CROSSTALK


@dataclass
class ConflictGraph:
    """Messages as vertices and one ConflictEdge per pair that meets, with
    the degree of each vertex counted once over the edges."""

    vertex_count: int
    edges: list[ConflictEdge]
    _degrees: list[int] = field(init=False, repr=False)

    def __post_init__(self):
        self._degrees = [0] * self.vertex_count
        for a, b, _, _ in self.edges:
            self._degrees[a] += 1
            self._degrees[b] += 1

    def degree(self, v: int) -> int:
        return self._degrees[v]

    def max_degree(self) -> int:
        return max(self._degrees, default=0)


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
    ConflictEdge (a, b, stage, has_link_conflict) with a < b, in
    lexicographic (a, b) order.

    Each output has one path from each input, so two paths that leave a
    switch on different out-lines never meet again, and two that leave it
    on one out-line (a link conflict) have collided there: each pair meets
    at its first shared stage only.  Each stage column is sorted by switch,
    and rows d apart in that order are paired for d = 1, 2, ... while any of
    them still share a switch, so a bucket of any size yields all its pairs.
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
    count, stages = switches.shape
    # one key per meeting, ordered by pair and then by stage
    pairs = np.concatenate(firsts) * count + np.concatenate(seconds)
    key = np.sort(pairs * stages + np.concatenate(columns))
    pair, k = np.divmod(key, stages)
    first = np.r_[True, pair[1:] != pair[:-1]]
    a, b = np.divmod(pair[first], count)
    k = k[first]
    link = out_lines[a, k] == out_lines[b, k]
    return list(map(ConflictEdge, a.tolist(), b.tolist(), (k + 1).tolist(), link.tolist()))


def build_conflict_graph(net: NetworkSpec, perm: PermutationMap) -> ConflictGraph:
    """Edges in lexicographic (a, b) order, a < b message indices, from the
    pairs of the path table that share a switch (`shared_pairs`)."""
    tables = path_table(net, [m.source for m in perm.pairs], perm.destinations())
    return ConflictGraph(vertex_count=len(perm.pairs), edges=shared_pairs(*tables))


def edges_csv(graph: ConflictGraph) -> str:
    """Edge list as CSV: indexA,indexB,stages,kinds, one stage and its kind
    per edge."""
    lines = ["indexA,indexB,stages,kinds"]
    for e in graph.edges:
        lines.append(f"{e.a},{e.b},{e.stage},{e.kind.value}")
    return "\n".join(lines) + "\n"
