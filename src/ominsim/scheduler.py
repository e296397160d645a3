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

import numpy as np

from .conflict import shared_pairs
from .errors import CoverageError, OutOfRangeError
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
    shared_counts: list[int]  # per message: shared-stage count in its pass


@dataclass(frozen=True)
class Violation:
    kind: str  # "link" or "budget"
    pass_index: int
    messages: tuple[int, ...]
    stages: tuple[int, ...]


@dataclass
class ValidationReport:
    violations: list[Violation]


class _Occupancy:
    """Passes under construction, and the admission rule all schedulers use.

    A pass is legal exactly when no two members share an out-line and no
    member shares more than `budget` stages.  Passes are bits of integer
    masks, one mask in `used` per key, with bit i set when a member of pass
    i holds that key.  `lines` numbers each (stage, out-line) k·N + line for
    stage k + 1, and its half, k·N/2 + switch, numbers each (stage, switch).
    At budget 0, where any shared switch is one too many, a message's keys
    are its switches; at budget ≥ 1 they are its out-lines, and a switch's
    mask is the OR of its two out-lines'.  `first_fit(m, start)` is the one
    admission rule, which `fill` runs inline over a whole order: OR-ing m's
    masks once gives the passes it cannot join (a shared switch at budget
    0, a shared line at budget ≥ 1) and, at budget ≥ 1, those in which it
    would share a switch; only the latter are checked against the budget.

    In a pass a message shares no line in, each switch it would share holds
    exactly one member, the one leaving on the other out-line: a second
    member there would enter on a line the message or the first member
    uses, a link conflict one stage earlier (or, at stage 1, the same
    source).  Two messages that leave a switch on different lines never
    meet again (each output has one path from each input), so each shared
    switch is one stage for the message and one for a different member.
    `shared` is each message's shared-stage count (it sits in one pass),
    `passes` each pass's members in join order, and `holders` each pass's
    member on a key, read while the pass's bit is set for it: a list over
    every key at budget ≥ 1 in `fill` (none at budget 0), and in `join`,
    the exact solver's, a dict of its members' keys, which grows with M·n.
    """

    def __init__(self, net: NetworkSpec, perm: PermutationMap, budget: int | None):
        self.lines = path_table(net, perm.sources, perm.dests) + net.size * np.arange(net.stages)
        # no message has more than net.stages stages to share
        self.budget = net.stages if budget is None else budget
        # switch keys at budget 0: one OR per stage, faster than out-line keys plus `beside` (ROADMAP aim 2)
        self.keys = (self.lines if self.budget else self.lines >> 1).tolist()
        self.used = [0] * (net.size * net.stages if self.budget else net.size // 2 * net.stages)
        self.shared = [0] * len(perm)
        self.passes: list[list[int]] = []
        self.holders: list[list[int] | dict[int, int]] = []

    def first_fit(self, m: int, start: int = 0) -> tuple[int, list[int]]:
        """The first pass from `start` on that m can join, and the members it
        would meet there; len(passes), a new pass, when no open one takes m."""
        keys, used, budget, shared = self.keys[m], self.used, self.budget, self.shared
        blocked = beside = 0
        if budget:
            for line in keys:
                blocked |= used[line]
                beside |= used[line ^ 1]
        else:
            for key in keys:
                blocked |= used[key]
        # bit len(passes) is clear in every mask, so the walk ends there at the latest
        free = ~blocked & -(1 << start)
        while True:
            bit = free & -free
            i = bit.bit_length() - 1
            if not beside & bit:
                return i, []
            holder = self.holders[i]
            met = []
            for line in keys:
                if not used[line ^ 1] & bit:
                    continue
                # one more shared stage for both m and the member beside it
                other = holder[line ^ 1]
                if len(met) >= budget or shared[other] >= budget:
                    break
                met.append(other)
            else:
                return i, met
            free ^= bit

    def fill(self, order: list[int]) -> None:
        """Admit each message of `order` in turn to its first-fit pass: a loop
        of first_fit(m) and join, inlined."""
        # inlined: admission 50 %/22 % faster at b0/b1, against 11 %/10 % for one find-and-join call (ROADMAP aim 2)
        keys, used, budget, shared = self.keys, self.used, self.budget, self.shared
        passes, holders = self.passes, self.holders
        if not budget:
            for m in order:
                held = keys[m]
                blocked = 0
                for key in held:
                    blocked |= used[key]
                # the lowest pass m shares no switch in
                bit = ~blocked & (blocked + 1)
                for key in held:
                    used[key] |= bit
                if bit >> len(passes):
                    passes.append([m])
                else:
                    passes[bit.bit_length() - 1].append(m)
            return
        for m in order:
            held = keys[m]
            blocked = beside = 0
            for line in held:
                blocked |= used[line]
                beside |= used[line ^ 1]
            free = ~blocked
            while True:
                bit = free & -free
                if not beside & bit:
                    met = ()
                    break
                holder = holders[bit.bit_length() - 1]
                met = []
                for line in held:
                    if not used[line ^ 1] & bit:
                        continue
                    other = holder[line ^ 1]
                    if len(met) >= budget or shared[other] >= budget:
                        break
                    met.append(other)
                else:
                    break
                free ^= bit
            i = bit.bit_length() - 1
            if i == len(passes):
                passes.append([])
                # a list, not join's dict: dicts made budget-1 greedy 17 % slower (ROADMAP aim 2)
                holders.append([0] * len(used))
            passes[i].append(m)
            holder = holders[i]
            for line in held:
                used[line] |= bit
                holder[line] = m
            shared[m] = len(met)
            for other in met:
                shared[other] += 1

    def join(self, i: int, m: int, met: list[int]) -> None:
        """Add m to pass i, opening it when i is one past the last pass."""
        if i == len(self.passes):
            self.passes.append([])
            self.holders.append({})
        self.passes[i].append(m)
        holder, used, shared, bit = self.holders[i], self.used, self.shared, 1 << i
        for key in self.keys[m]:
            used[key] |= bit
            holder[key] = m
        shared[m] = len(met)
        for other in met:
            shared[other] += 1

    def leave(self, i: int, m: int, met: list[int]) -> None:
        """Undo join(i, m, met) for m, the latest join: pop m from pass i and
        close the pass when it empties."""
        keep = ~(1 << i)
        used, shared = self.used, self.shared
        for key in self.keys[m]:
            used[key] &= keep
        for other in met:
            shared[other] -= 1
        self.passes[i].pop()
        if not self.passes[i]:
            self.passes.pop()
            self.holders.pop()

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
        return Schedule([sorted(members) for members in self.passes], config, self.shared)


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
    state.fill(order)
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
        raise OutOfRangeError(f"{count} messages exceed the exact-solver cap of {EXACT_CAP}")
    state = _Occupancy(net, perm, config.budget)

    def assign(i: int, limit: int) -> bool:
        if i == count:
            return True
        c, met = state.first_fit(i)
        while c < limit:
            state.join(c, i, met)
            if assign(i + 1, limit):
                return True
            state.leave(c, i, met)
            if c == len(state.passes):  # the new pass, the last one to try
                break
            c, met = state.first_fit(i, c + 1)
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

    Each pass's out-lines are offset by pass · N, so that its rows meet only
    each other, and the holders of every line are counted; only when a line
    is held twice or a member goes over the budget does one `shared_pairs`
    call pair the rows of every pass by shared switch.  Nothing is read
    from the occupancy the schedulers used.
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
        raise OutOfRangeError(f"message index {members[end]} outside [0, {count})")
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
    # count the holders of every (pass, stage, out-line) first, unless the
    # counts (N·P·n) outgrow the table (M·n) by far, as for a few messages
    # in a large network: with no line held twice no switch holds three, so
    # a member's shared stages are those whose switch is held twice, and
    # the pairs are needed only for a violation
    span = net.size * len(sizes)
    if span <= 64 * count:
        cells = lines + span * np.arange(net.stages)
        held = np.bincount(cells.ravel(), minlength=span * net.stages)
        if held.max(initial=0) < 2:
            shared = (held[0::2] + held[1::2] == 2)[cells >> 1].sum(axis=1)
            if config.budget is None or not (shared > config.budget).any():
                return ValidationReport(violations=[])
    a, b, stage, link = shared_pairs(lines)
    if not a.size:
        return ValidationReport(violations=[])
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
    return ValidationReport(violations=violations)


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
    sources = perm.sources.tolist()
    passes = [
        "[\n      " + ",\n      ".join([str(sources[m]) for m in p]) + "\n    ]" if len(p) else "[]"
        for p in schedule.passes
    ]
    passes_text = "[\n    " + ",\n    ".join(passes) + "\n  ]" if passes else "[]"
    fields = "".join(f"  {json.dumps(key)}: {json.dumps(value)},\n" for key, value in head.items())
    return f'{{\n{fields}  "passes": {passes_text},\n  "violations": []\n}}\n'
