"""Pairwise conflict detection and the conflict graph scheduling colors.

Two messages conflict at a stage when their paths occupy the same switching
element there.  Sharing only the switch degrades both signals (crosstalk);
also sharing the output port means both need the same inter-stage line,
which no amount of tolerated crosstalk can fix.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations

from .errors import SameSourceError
from .routing import Message, PermutationMap, path_table, trace_path
from .topology import NetworkSpec


class ConflictKind(Enum):
    SWITCH_CROSSTALK = "crosstalk"
    LINK_CONFLICT = "link"


@dataclass(frozen=True)
class ConflictEdge:
    a: int
    b: int
    stages: tuple[int, ...]
    kinds: tuple[ConflictKind, ...]

    @property
    def has_link_conflict(self) -> bool:
        return ConflictKind.LINK_CONFLICT in self.kinds


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


def build_conflict_graph(net: NetworkSpec, perm: PermutationMap) -> ConflictGraph:
    """Edges in lexicographic (a, b) order, a < b message indices.

    Only messages on one switch at one stage are compared: each stage
    buckets the messages by switch, and a pair's shared stages are collected
    from the buckets in stage order.
    """
    switches, out_lines = path_table(net, [m.source for m in perm.pairs], perm.destinations())
    out_lines = out_lines.tolist()
    shared: dict[tuple[int, int], list[int]] = {}
    for k, column in enumerate(switches.T.tolist()):
        buckets: dict[int, list[int]] = {}
        for i, switch in enumerate(column):
            buckets.setdefault(switch, []).append(i)
        for members in buckets.values():
            for pair in combinations(members, 2):
                shared.setdefault(pair, []).append(k)
    edges = []
    for a, b in sorted(shared):
        kinds = []
        for k in shared[a, b]:
            if out_lines[a][k] == out_lines[b][k]:
                kinds.append(ConflictKind.LINK_CONFLICT)
                break
            kinds.append(ConflictKind.SWITCH_CROSSTALK)
        stages = tuple(k + 1 for k in shared[a, b][: len(kinds)])
        edges.append(ConflictEdge(a=a, b=b, stages=stages, kinds=tuple(kinds)))
    return ConflictGraph(vertex_count=len(perm.pairs), edges=edges)


def edges_csv(graph: ConflictGraph) -> str:
    """Edge list as CSV: indexA,indexB,stages,kinds with ';'-joined fields."""
    lines = ["indexA,indexB,stages,kinds"]
    for e in graph.edges:
        stages = ";".join(str(s) for s in e.stages)
        kinds = ";".join(k.value for k in e.kinds)
        lines.append(f"{e.a},{e.b},{stages},{kinds}")
    return "\n".join(lines) + "\n"
