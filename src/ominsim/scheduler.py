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
from itertools import chain
from typing import NamedTuple

import numpy as np

from .conflict import shared_pairs
from .errors import CoverageError, IndexOutOfRangeError, OutOfRangeError, TooLargeError
from .routing import PermutationMap, first_outside, first_repeat, int_array, path_table
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

    def __post_init__(self):
        if self.budget is not None and self.budget < 0:
            raise OutOfRangeError(f"budget must be >= 0, got {self.budget}")


@dataclass
class Schedule:
    passes: list[list[int]]
    config: ScheduleConfig
    shared_counts: list[dict[int, int]]  # per pass: message -> shared-stage count


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


class _Pass(NamedTuple):
    """One pass under construction: each member's shared-stage count and the
    member holding each key of `_Occupancy.keys`.  An entry is read only at
    budget ≥ 1, where a key is a (stage, out-line), and only while the
    pass's bit in `_Occupancy.used` is set for it."""

    shared: dict[int, int]
    member: list[int]


class _Occupancy:
    """Passes under construction, and the admission rule all schedulers use.

    A pass is legal exactly when no two members share an out-line and no
    member shares more than `budget` stages.  Passes are bits of integer
    masks, one mask in `used` per key, with bit i set when a member of pass
    i holds that key.  `lines` numbers each (stage, out-line) k·N + line for
    stage k + 1, and its half, k·N/2 + switch, numbers each (stage, switch).
    At budget 0, where any shared switch is one too many, a message's keys
    are its switches; at budget ≥ 1 they are its out-lines, and a switch's
    mask is the OR of its two out-lines'.  OR-ing a message's masks gives
    the passes it would share a switch in and those it would share a line
    in, which it cannot join.  The lowest pass it shares no switch in
    always takes it, so only the unblocked passes below that one need a
    closer look.

    In a pass a message shares no line in, each switch it would share holds
    exactly one member, the one leaving on the other out-line: a second
    member there would enter on a line the message or the first member
    uses, a link conflict one stage earlier (or, at stage 1, the same
    source).  Two messages that leave a switch on different lines never
    meet again (each output has one path from each input), so each shared
    switch is one stage for the message and one for a different member.
    """

    def __init__(self, net: NetworkSpec, perm: PermutationMap, budget: int | None):
        self.lines = path_table(net, perm.sources, perm.dests) + net.size * np.arange(net.stages)
        # no message has more than net.stages stages to share
        self.budget = net.stages if budget is None else budget
        self.keys = (self.lines if self.budget else self.lines >> 1).tolist()
        self.used = [0] * (net.size * net.stages if self.budget else net.size // 2 * net.stages)
        self.passes: list[_Pass] = []

    def masks(self, m: int) -> tuple[int, int]:
        """The passes m would share a switch in, and the passes it cannot
        join because it would share a line in them (any switch, at budget 0)."""
        used = self.used
        if not self.budget:
            occupied = 0
            for key in self.keys[m]:
                occupied |= used[key]
            return occupied, occupied
        blocked = beside = 0
        for line in self.keys[m]:
            blocked |= used[line]
            beside |= used[line ^ 1]
        return blocked | beside, blocked

    def partners(self, i: int, m: int) -> list[int] | None:
        """The member m would meet at each switch it shares in pass i, or None
        if m or one of them would go over the budget.  Asked only at budget
        ≥ 1, of a pass m shares no line in."""
        p = self.passes[i]
        bit, used, budget = 1 << i, self.used, self.budget
        found = []
        for line in self.keys[m]:
            if not used[line ^ 1] & bit:
                continue
            # one more shared stage for both m and the member beside it
            other = p.member[line ^ 1]
            if len(found) >= budget or p.shared[other] >= budget:
                return None
            found.append(other)
        return found

    def first_fit(self, m: int) -> tuple[int, list[int]]:
        """The first pass m can join, and the members it would meet there."""
        occupied, blocked = self.masks(m)
        free = ((occupied + 1) & ~occupied).bit_length() - 1
        check = occupied & ~blocked & ((1 << free) - 1)
        while check:
            i = (check & -check).bit_length() - 1
            met = self.partners(i, m)
            if met is not None:
                return i, met
            check &= check - 1
        return free, []

    def join(self, i: int, m: int, met: list[int]) -> None:
        """Add m to pass i, opening it when i is one past the last pass."""
        if i == len(self.passes):
            self.passes.append(_Pass({}, [0] * len(self.used)))
        p = self.passes[i]
        bit = 1 << i
        used, member = self.used, p.member
        for key in self.keys[m]:
            used[key] |= bit
            member[key] = m
        p.shared[m] = len(met)
        for other in met:
            p.shared[other] += 1

    def leave(self, i: int, m: int, met: list[int]) -> None:
        """Undo join(i, m, met), closing pass i if m was its only member."""
        p = self.passes[i]
        keep = ~(1 << i)
        used = self.used
        for key in self.keys[m]:
            used[key] &= keep
        for other in met:
            p.shared[other] -= 1
        del p.shared[m]
        if not p.shared:
            self.passes.pop()

    def lower_bound(self) -> int:
        """Passes every legal schedule needs: the most messages on one
        (stage, out-line), and the most on one (stage, switch), or half that
        rounded up at budget ≥ 1, as a legal pass holds at most two members
        on a switch."""
        if not self.lines.size:
            return 0
        on_line = np.bincount(self.lines.ravel()).max()
        on_cell = np.bincount((self.lines >> 1).ravel()).max()
        return int(max(on_line, -(-on_cell // 2) if self.budget else on_cell))

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
    order = np.argsort(perm.sources, kind="stable").tolist()
    if config.algorithm is Algorithm.WELSH_POWELL:
        a, b, _, _ = shared_pairs(state.lines)
        degree = np.bincount(np.r_[a, b], minlength=len(order)).tolist()
        order.sort(key=lambda i: -degree[i])
    for m in order:
        i, met = state.first_fit(m)
        state.join(i, m, met)
    return state.schedule(config)


def schedule_exact(net: NetworkSpec, perm: PermutationMap, config: ScheduleConfig) -> Schedule:
    """Minimal pass count by iterative deepening over the pass budget.

    For each candidate count m the search assigns messages in index order,
    trying pass 0, 1, ... and opening at most one new pass per step; the
    first complete assignment found this way is the lexicographically
    smallest feasible assignment vector, which makes the output byte-stable.
    The deepening starts at the occupancy's lower bound, as every smaller
    count fails anyway.  A map with no messages gets no passes.
    """
    if config.algorithm is not Algorithm.EXACT:
        raise ValueError(f"exact scheduler got algorithm {config.algorithm}")
    count = len(perm)
    if count > EXACT_CAP:
        raise TooLargeError(f"{count} messages exceed the exact-solver cap of {EXACT_CAP}")
    state = _Occupancy(net, perm, config.budget)
    passes = state.passes

    def assign(i: int, limit: int) -> bool:
        if i == count:
            return True
        occupied, blocked = state.masks(i)
        for c in range(min(len(passes) + 1, limit)):
            if blocked >> c & 1:
                continue
            met = state.partners(c, i) if occupied >> c & 1 else []
            if met is None:
                continue
            state.join(c, i, met)
            if assign(i + 1, limit):
                return True
            state.leave(c, i, met)
        return False

    # a failed search undoes every join, so each limit starts from no passes
    for limit in range(state.lower_bound(), count + 1):
        if assign(0, limit):
            break
    return state.schedule(config)


def validate_schedule(
    net: NetworkSpec,
    perm: PermutationMap,
    schedule: Schedule,
    config: ScheduleConfig | None = None,
) -> ValidationReport:
    """Check the schedule against conflicts recomputed from the path table.

    One `shared_pairs` call pairs the rows of every pass by shared switch,
    each pass's out-lines offset by pass · N so that its rows meet only
    each other; nothing is read from the occupancy the schedulers used.
    Coverage errors (an index missing, duplicated, or out of range) raise;
    semantic problems are returned as violations: link conflicts in (a, b)
    order, then budget overruns in member order, per pass.
    """
    config = config or schedule.config
    count = len(perm)
    # the members in the order a loop over the passes would meet them
    members = int_array(chain.from_iterable(schedule.passes))
    end = first_outside(count, members)
    twice = first_repeat(members[:end], count)
    if twice is not None:
        raise CoverageError(f"message index {twice} scheduled twice")
    if end < members.size:
        raise IndexOutOfRangeError(f"message index {members[end]} outside [0, {count})")
    if members.size != count:
        missing = np.flatnonzero(np.bincount(members, minlength=count) == 0).tolist()
        raise CoverageError(f"messages {missing} missing from the schedule")

    # every pass's sorted rows in one table, each pass's lines moved past
    # the last pass's so that rows of different passes never meet; lane is
    # ascending, so sorting lane * count + member sorts within each pass
    sizes = [len(p) for p in schedule.passes]
    lane = np.repeat(np.arange(len(sizes)), sizes)
    order = np.sort(lane * count + members) - lane * count
    lines = path_table(net, perm.sources, perm.dests)[order] + (net.size * lane)[:, None]
    a, b, stage, link = shared_pairs(lines)
    # a pass's pairs are those whose row a is one of its rows
    cuts = np.searchsorted(a, np.cumsum([0, *sizes]))
    semi = (cuts[:-1] == cuts[1:]).tolist()
    if not a.size:
        return ValidationReport(violations=[], semi_permutation_passes=semi)
    at_pass = lane[a]
    a, b = order[a], order[b]
    links = zip(at_pass[link].tolist(), a[link].tolist(), b[link].tolist(), stage[link].tolist())
    violations = [Violation("link", pi, (x, y), (s,)) for pi, x, y, s in links]
    if config.budget is not None:
        # each member's distinct shared stages, in member then stage order;
        # sorted by hand, as np.unique imports numpy.ma on its first call
        width = net.stages + 1
        keys = np.sort(np.concatenate([a, b]) * width + np.concatenate([stage, stage]))
        member, at = np.divmod(keys[np.concatenate([[True], keys[1:] != keys[:-1]])], width)
        counts = np.bincount(member)
        over = np.flatnonzero(counts > config.budget)
        starts = np.searchsorted(member, over)
        member_pass = np.empty(count, dtype=np.intp)
        member_pass[order] = lane
        found = zip(member_pass[over].tolist(), over.tolist(), starts.tolist(), (starts + counts[over]).tolist())
        for pi, m, s, e in found:
            violations.append(Violation("budget", pi, (m,), tuple(at[s:e].tolist())))
        # per pass, link violations first; the sort is stable, so each kind keeps its order
        violations.sort(key=lambda v: (v.pass_index, v.kind == "budget"))
    return ValidationReport(violations=violations, semi_permutation_passes=semi)


def schedule_json(net: NetworkSpec, perm: PermutationMap, schedule: Schedule) -> str:
    """Stable JSON form; passes list member sources in ascending index order.

    The text is that of json.dumps(doc, indent=2) plus a newline, with the
    passes written here: the standard encoder indents in pure Python."""
    head = {
        "size": net.size,
        "topology": net.topology.value,
        "budget": "unlimited" if schedule.config.budget is None else schedule.config.budget,
        "algorithm": schedule.config.algorithm.value,
    }
    sources = perm.sources
    passes = [
        "[\n      " + ",\n      ".join(map(str, sources[p].tolist())) + "\n    ]" if len(p) else "[]"
        for p in schedule.passes
    ]
    passes_text = "[\n    " + ",\n    ".join(passes) + "\n  ]" if passes else "[]"
    fields = "".join(f"  {json.dumps(key)}: {json.dumps(value)},\n" for key, value in head.items())
    return f'{{\n{fields}  "passes": {passes_text},\n  "violations": []\n}}\n'
