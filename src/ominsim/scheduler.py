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
from typing import NamedTuple

import numpy as np

from .conflict import shared_pairs
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


class _Pass(NamedTuple):
    """One pass under construction: the member that first took each (stage,
    switch) cell it occupies, keyed k·N/2 + switch for stage k + 1, and each
    member's shared-stage count."""

    owner: dict[int, int]
    shared: dict[int, int]


class _Occupancy:
    """Passes under construction, and the admission rule both schedulers use.

    A pass is legal exactly when no two members share an out-line and no
    member shares more than `budget` stages.  In a legal pass a switch holds
    at most two members: a third would enter on a line a member already
    uses, which is a link conflict one stage earlier (or, at stage 1, the
    same source).  So each cell a candidate would share has one owner to
    check.  Two messages that leave a switch on different lines never meet
    again (each output has one path from each input), so a candidate shares
    at most one cell with each owner, and each shared cell adds one stage to
    the owner's count and one to the candidate's.
    """

    def __init__(self, net: NetworkSpec, perm: PermutationMap, budget: int | None):
        self.table = path_table(net, [m.source for m in perm.pairs], perm.destinations())
        switches, out_lines = self.table
        self.cells = (switches + net.size // 2 * np.arange(net.stages)).tolist()
        self.out_lines = out_lines.tolist()
        # no message has more than net.stages stages to share
        self.budget = net.stages if budget is None else budget
        self.passes: list[_Pass] = []

    def shared_cells(self, p: _Pass, m: int) -> dict[int, int] | None:
        """The cells m would share in pass p, each with its owner, or None if
        m cannot join p."""
        cells = self.cells[m]
        owners = p.owner
        if owners.keys().isdisjoint(cells):
            return {}
        budget = self.budget
        if budget == 0:  # any shared cell is one too many
            return None
        lines = self.out_lines[m]
        found = {}
        for stage, cell in enumerate(cells):
            owner = owners.get(cell)
            if owner is None:
                continue
            if self.out_lines[owner][stage] == lines[stage]:
                return None
            # one more shared stage for both m and the owner
            if len(found) >= budget or p.shared[owner] >= budget:
                return None
            found[cell] = owner
        return found

    def join(self, p: _Pass, m: int, shared: dict[int, int]) -> None:
        p.owner.update(dict.fromkeys(self.cells[m], m))
        p.owner.update(shared)
        for o in shared.values():
            p.shared[o] += 1
        p.shared[m] = len(shared)

    def leave(self, p: _Pass, m: int, shared: dict[int, int]) -> None:
        """Undo join(p, m, shared)."""
        for cell in self.cells[m]:
            if cell not in shared:
                del p.owner[cell]
        for o in shared.values():
            p.shared[o] -= 1
        del p.shared[m]

    def open(self, m: int) -> None:
        p = _Pass({}, {})
        self.join(p, m, {})
        self.passes.append(p)

    def schedule(self, config: ScheduleConfig) -> Schedule:
        return Schedule(
            passes=[sorted(p.shared) for p in self.passes],
            config=config,
            shared_counts=[dict(sorted(p.shared.items())) for p in self.passes],
        )


def schedule_greedy(net: NetworkSpec, perm: PermutationMap, config: ScheduleConfig) -> Schedule:
    """First-fit pass assignment in ascending source order.

    Welsh-Powell is the same first-fit rule over a degree-descending order
    (ties broken by ascending source); it is the only scheduler that finds
    the conflicting pairs (`shared_pairs`), for the degrees.  A singleton
    pass is always feasible, so this never fails.
    """
    if config.algorithm not in (Algorithm.GREEDY_ORDER, Algorithm.WELSH_POWELL):
        raise ValueError(f"greedy scheduler got algorithm {config.algorithm}")
    state = _Occupancy(net, perm, config.budget)
    order = sorted(range(len(perm.pairs)), key=lambda i: perm.pairs[i].source)
    if config.algorithm is Algorithm.WELSH_POWELL:
        a, b, _, _ = shared_pairs(*state.table)
        degree = np.bincount(np.r_[a, b], minlength=len(order)).tolist()
        order.sort(key=lambda i: -degree[i])
    for m in order:
        for p in state.passes:
            shared = state.shared_cells(p, m)
            if shared is not None:
                state.join(p, m, shared)
                break
        else:
            state.open(m)
    return state.schedule(config)


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
    state = _Occupancy(net, perm, config.budget)
    passes = state.passes

    def assign(i: int, limit: int) -> bool:
        if i == count:
            return True
        opened = len(passes)
        for c in range(min(opened + 1, limit)):
            if c == opened:
                state.open(i)
                if assign(i + 1, limit):
                    return True
                passes.pop()
                continue
            p = passes[c]
            shared = state.shared_cells(p, i)
            if shared is None:
                continue
            state.join(p, i, shared)
            if assign(i + 1, limit):
                return True
            state.leave(p, i, shared)
        return False

    for limit in range(1, count + 1):
        passes.clear()
        if assign(0, limit):
            break
    return state.schedule(config)


def validate_schedule(
    net: NetworkSpec,
    perm: PermutationMap,
    schedule: Schedule,
    config: ScheduleConfig | None = None,
) -> ValidationReport:
    """Check the schedule against conflicts recomputed pass by pass.

    Each pass's rows of the path table are paired by shared switch
    (`shared_pairs`); nothing is read from the occupancy the schedulers
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
        rows = np.sort(np.asarray(members, dtype=np.intp))
        a, b, stage, link = shared_pairs(switches[rows], out_lines[rows])
        semi.append(not a.size)
        if not a.size:
            continue
        a, b = rows[a], rows[b]
        for x, y, s in zip(a[link].tolist(), b[link].tolist(), stage[link].tolist()):
            violations.append(Violation("link", pi, (x, y), (s,)))
        if config.budget is not None:
            # each member's distinct shared stages, in member then stage order;
            # sorted by hand, as np.unique imports numpy.ma on its first call
            width = net.stages + 1
            keys = np.sort(np.concatenate([a, b]) * width + np.concatenate([stage, stage]))
            member, at = np.divmod(keys[np.concatenate([[True], keys[1:] != keys[:-1]])], width)
            counts = np.bincount(member)
            over = np.flatnonzero(counts > config.budget)
            starts = np.searchsorted(member, over)
            for m, s, e in zip(over.tolist(), starts.tolist(), (starts + counts[over]).tolist()):
                violations.append(Violation("budget", pi, (m,), tuple(at[s:e].tolist())))
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
