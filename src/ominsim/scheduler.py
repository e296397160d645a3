"""Time-division scheduling: partition messages into passes under a
crosstalk budget.

The budget k caps, per message and per pass, the number of stages at which
its switch is shared with any other member of the pass.  k = 0 demands
switch-disjoint passes (semi-permutations); budget None ("unlimited") only
rules out link conflicts, which are forbidden at every budget because two
signals cannot occupy one line.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

from .conflict import ConflictGraph, build_conflict_graph, shared_pairs
from .errors import CoverageError, IndexOutOfRangeError, TooLargeError
from .routing import PermutationMap, path_table
from .topology import NetworkSpec

EXACT_CAP = 20  # most messages schedule_exact will search


class Algorithm(Enum):
    GREEDY_ORDER = "greedy"
    WELSH_POWELL = "welsh-powell"
    EXACT = "exact"


@dataclass(frozen=True)
class ScheduleConfig:
    budget: int | None = 0  # None means unlimited crosstalk
    algorithm: Algorithm = Algorithm.GREEDY_ORDER


@dataclass
class Schedule:
    passes: list[list[int]]
    config: ScheduleConfig
    shared_counts: list[dict[int, int]]  # per pass: message -> shared-stage count

    @property
    def pass_count(self) -> int:
        return len(self.passes)


@dataclass(frozen=True)
class Violation:
    kind: str  # "link" or "budget"
    pass_index: int
    messages: tuple[int, ...]
    stages: tuple[int, ...]


@dataclass
class ValidationReport:
    violations: list[Violation]
    semi_permutation_passes: list[bool]

    @property
    def ok(self) -> bool:
        return not self.violations


def _message_order(perm: PermutationMap, graph: ConflictGraph, config: ScheduleConfig) -> list[int]:
    by_source = sorted(range(len(perm.pairs)), key=lambda i: perm.pairs[i].source)
    if config.algorithm is not Algorithm.WELSH_POWELL:
        return by_source
    return sorted(by_source, key=lambda i: -graph.degree(i))


def _admission(
    candidate: int,
    stage_set: dict[int, set[int]],
    graph: ConflictGraph,
    budget: int | None,
) -> dict[int, tuple[int, ...]] | None:
    """Stages the candidate would share with each of its neighbours in the
    pass (stage_set: member -> its shared stages), or None if adding it
    breaks the pass.  Re-checks those neighbours: one more message can push
    an existing one over budget."""
    added: dict[int, tuple[int, ...]] = {}
    for m, edge in graph.neighbours[candidate].items():
        if m not in stage_set:
            continue
        if edge.has_link_conflict:
            return None
        added[m] = edge.stages
    if budget is not None:
        mine: set[int] = set()
        for stages in added.values():
            mine.update(stages)
        if len(mine) > budget:
            return None
        for m, stages in added.items():
            if len(stage_set[m] | set(stages)) > budget:
                return None
    return added


def _join(stage_set: dict[int, set[int]], candidate: int, added: dict[int, tuple[int, ...]]) -> dict[int, set[int]]:
    """Put an admitted candidate into the pass.  Returns, per neighbour, the
    stages of `added` it already shared, which must survive an undo."""
    stage_set[candidate] = set()
    kept = {}
    for other, stages in added.items():
        kept[other] = stage_set[other] & set(stages)
        stage_set[other].update(stages)
        stage_set[candidate].update(stages)
    return kept


def _schedule(stage_sets: list[dict[int, set[int]]], config: ScheduleConfig) -> Schedule:
    return Schedule(
        passes=[sorted(s) for s in stage_sets],
        config=config,
        shared_counts=[{m: len(s[m]) for m in sorted(s)} for s in stage_sets],
    )


def schedule_greedy(net: NetworkSpec, perm: PermutationMap, config: ScheduleConfig) -> Schedule:
    """First-fit pass assignment in the configured message order.

    Welsh-Powell is the same first-fit rule over a degree-descending order
    (ties broken by ascending source).  A singleton pass is always feasible,
    so this never fails.
    """
    if config.algorithm not in (Algorithm.GREEDY_ORDER, Algorithm.WELSH_POWELL):
        raise ValueError(f"greedy scheduler got algorithm {config.algorithm}")
    graph = build_conflict_graph(net, perm)
    stage_sets: list[dict[int, set[int]]] = []
    for m in _message_order(perm, graph, config):
        for stage_set in stage_sets:
            added = _admission(m, stage_set, graph, config.budget)
            if added is None:
                continue
            _join(stage_set, m, added)
            break
        else:
            stage_sets.append({m: set()})
    return _schedule(stage_sets, config)


def schedule_exact(net: NetworkSpec, perm: PermutationMap, config: ScheduleConfig) -> Schedule:
    """Minimal pass count by iterative deepening over the pass budget.

    For each candidate count m the search assigns messages in index order,
    trying pass 0, 1, ... and opening at most one new pass per step; the
    first complete assignment found this way is the lexicographically
    smallest feasible assignment vector, which makes the output byte-stable.
    A map with no messages gets no passes.
    """
    count = len(perm.pairs)
    if count > EXACT_CAP:
        raise TooLargeError(f"{count} messages exceed the exact-solver cap of {EXACT_CAP}")
    graph = build_conflict_graph(net, perm)
    budget = config.budget
    stage_sets: list[dict[int, set[int]]] = []

    def assign(i: int, limit: int) -> bool:
        if i == count:
            return True
        opened = len(stage_sets)
        for c in range(min(opened + 1, limit)):
            if c == opened:
                stage_sets.append({i: set()})
                if assign(i + 1, limit):
                    return True
                stage_sets.pop()
                continue
            stage_set = stage_sets[c]
            added = _admission(i, stage_set, graph, budget)
            if added is None:
                continue
            kept = _join(stage_set, i, added)
            if assign(i + 1, limit):
                return True
            del stage_set[i]
            for other, stages in added.items():
                stage_set[other].difference_update(set(stages) - kept[other])
        return False

    for limit in range(1, count + 1):
        stage_sets.clear()
        if assign(0, limit):
            break
    return _schedule(stage_sets, config)


def validate_schedule(
    net: NetworkSpec,
    perm: PermutationMap,
    schedule: Schedule,
    config: ScheduleConfig | None = None,
) -> ValidationReport:
    """Check the schedule against conflicts recomputed pass by pass.

    Each pass's rows of the path table are paired by shared switch
    (`shared_pairs`); nothing is read from the conflict graph the schedulers
    used.  Coverage errors (an index missing, duplicated, or out of range)
    raise; semantic problems are returned as violations: link conflicts in
    (a, b) order, then budget overruns in member order, per pass.
    """
    config = config or schedule.config
    count = len(perm.pairs)
    seen: set[int] = set()
    for members in schedule.passes:
        for m in members:
            if not 0 <= m < count:
                raise IndexOutOfRangeError(f"message index {m} outside [0, {count})")
            if m in seen:
                raise CoverageError(f"message index {m} scheduled twice")
            seen.add(m)
    if len(seen) != count:
        missing = sorted(set(range(count)) - seen)
        raise CoverageError(f"messages {missing} missing from the schedule")

    switches, out_lines = path_table(net, [m.source for m in perm.pairs], perm.destinations())
    violations: list[Violation] = []
    semi: list[bool] = []
    for pi, members in enumerate(schedule.passes):
        rows = sorted(members)
        pairs = shared_pairs(switches[rows], out_lines[rows])
        shared: dict[int, set[int]] = {m: set() for m in rows}
        for a, b, stages, link in pairs:
            a, b = rows[a], rows[b]
            shared[a].update(stages)
            shared[b].update(stages)
            if link:
                violations.append(Violation("link", pi, (a, b), stages[-1:]))
        if config.budget is not None:
            for m in rows:
                if len(shared[m]) > config.budget:
                    violations.append(Violation("budget", pi, (m,), tuple(sorted(shared[m]))))
        semi.append(not pairs)
    return ValidationReport(violations=violations, semi_permutation_passes=semi)


def schedule_json(net: NetworkSpec, perm: PermutationMap, schedule: Schedule) -> str:
    """Stable JSON form; passes list member sources in ascending index order."""
    doc = {
        "size": net.size,
        "topology": net.topology.value,
        "budget": "unlimited" if schedule.config.budget is None else schedule.config.budget,
        "algorithm": schedule.config.algorithm.value,
        "passes": [[perm.pairs[m].source for m in p] for p in schedule.passes],
        "violations": [],
    }
    return json.dumps(doc, indent=2) + "\n"
