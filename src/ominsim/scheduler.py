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


def _first_fit(net: NetworkSpec, lines: np.ndarray, budget: int | None, order: list[int]) -> tuple[list, list[int]]:
    """First fit of the path table `lines` over `order`, for greedy and
    Welsh-Powell: each message joins the first pass it may, or a new one.

    A pass is legal exactly when no two members share an out-line and no
    member shares more than `budget` stages.  Passes are bits of integer
    masks, one mask in `used` per key, with bit i set when a member of pass
    i holds that key.  The keys number the (stage, switch) cells the map
    uses densely, 0, 1, ..., so their masks grow with the map, not with N.
    At budget 0, where any shared switch is one too many, a message's keys
    are its cells; at budget ≥ 1 they are its out-lines, 2·cell + port, so
    that `line ^ 1` is the switch's other out-line and a cell's mask is the
    OR of its two out-lines'.  OR-ing a message's masks once gives the
    passes it cannot join (a shared switch at budget 0, a shared line at
    budget ≥ 1) and, at budget ≥ 1, those in which it would share a switch;
    only the latter are checked against the budget.

    In a pass a message shares no line in, each switch it would share holds
    exactly one member, the one leaving on the other out-line: a second
    member there would enter on a line the message or the first member
    uses, a link conflict one stage earlier (or, at stage 1, the same
    source).  Two messages that leave a switch on different lines never
    meet again (each output has one path from each input), so each shared
    switch is one stage for the message and one for a different member.
    Returns each pass's members in join order and each message's shared-
    stage count (it sits in one pass).  `holders` is each pass's member on
    every key, read while the pass's bit is set for it (budget ≥ 1 only).
    """
    # no message has more than net.stages stages to share
    budget = net.stages if budget is None else budget
    cells = (lines >> 1) + net.size // 2 * np.arange(net.stages)
    upto = np.zeros(net.size // 2 * net.stages, dtype=np.intp)
    upto[cells] = 1
    # in place, so that upto becomes the count of used cells up to each cell
    number = np.cumsum(upto, out=upto)[cells] - 1
    # switch keys at budget 0: one OR per stage, faster than out-line keys plus `beside` (ROADMAP aim 2)
    keys = (2 * number + (lines & 1) if budget else number).tolist()
    used = [0] * (2 if budget else 1) * int(upto[-1])
    shared = [0] * len(lines)
    passes: list[list[int]] = []
    holders: list[list[int]] = []
    # inlined: admission 50 %/22 % faster at b0/b1, against 11 %/10 % for one find-and-join call (ROADMAP aim 2)
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
        return passes, shared
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
            # a list over every key: a dict of the members' keys made budget-1 greedy 17 % slower (ROADMAP aim 2)
            holders.append([0] * len(used))
        passes[i].append(m)
        holder = holders[i]
        for line in held:
            used[line] |= bit
            holder[line] = m
        shared[m] = len(met)
        for other in met:
            shared[other] += 1
    return passes, shared


def schedule_greedy(net: NetworkSpec, perm: PermutationMap, config: ScheduleConfig) -> Schedule:
    """First-fit pass assignment in ascending source order.

    Welsh-Powell is the same first-fit rule over a degree-descending order
    (ties broken by ascending source); it finds the conflicting pairs
    (`shared_pairs`) for the degrees, which plain greedy never does.  A
    singleton pass is always feasible, so this never fails.
    """
    if config.algorithm not in (Algorithm.GREEDY_ORDER, Algorithm.WELSH_POWELL):
        raise ValueError(f"greedy scheduler got algorithm {config.algorithm}")
    lines = path_table(net, perm.sources, perm.dests)
    order = np.argsort(perm.sources, kind="stable").tolist()
    if config.algorithm is Algorithm.WELSH_POWELL:
        a, b, _, _ = shared_pairs(lines)
        degree = np.bincount(np.r_[a, b], minlength=len(order)).tolist()
        order.sort(key=lambda i: -degree[i])
    passes, shared = _first_fit(net, lines, config.budget, order)
    return Schedule([sorted(members) for members in passes], config, shared)


def _lower_bound(net: NetworkSpec, lines: np.ndarray, budget: int | None) -> int:
    """Passes every legal schedule of the path table `lines` needs: the most
    messages on one (stage, out-line), and the most on one (stage, switch),
    or half that rounded up at budget ≥ 1 and unlimited, as a legal pass
    holds at most two members on a switch."""
    if not lines.size:
        return 0
    keys = lines + net.size * np.arange(net.stages)
    on_line = np.bincount(keys.ravel()).max()
    on_cell = np.bincount((keys >> 1).ravel()).max()
    return int(max(on_line, on_cell if budget == 0 else -(-on_cell // 2)))


def schedule_exact(net: NetworkSpec, perm: PermutationMap, config: ScheduleConfig) -> Schedule:
    """Minimal pass count by iterative deepening over the pass budget.

    For each candidate count m the search assigns messages in index order,
    trying pass 0, 1, ... and opening at most one new pass per step; the
    first complete assignment found this way is the lexicographically
    smallest feasible assignment vector, which makes the output byte-stable.
    The deepening starts at `_lower_bound`, as every smaller count fails
    anyway.  A map with no messages gets no passes.

    The search reads only the conflicting pairs (`shared_pairs`).  A pair
    that meets on an out-line never shares a pass; one that meets on a
    switch only shares exactly one stage, as paths that part at a switch
    never meet again.  So a message may join a pass when none of its
    earlier line partners is there and at most `budget` of its earlier
    switch partners are, none of them already at the budget.  `bit` holds
    each placed message's pass as a bit, `shared` each message's
    shared-stage count, and `passes` each pass's members, ascending, as
    messages are placed in index order.
    """
    if config.algorithm is not Algorithm.EXACT:
        raise ValueError(f"exact scheduler got algorithm {config.algorithm}")
    count = len(perm)
    if count > EXACT_CAP:
        raise OutOfRangeError(f"{count} messages exceed the exact-solver cap of {EXACT_CAP}")
    lines = path_table(net, perm.sources, perm.dests)
    # no message has more than net.stages stages to share
    budget = net.stages if config.budget is None else config.budget
    on_line: list[list[int]] = [[] for _ in range(count)]
    on_switch: list[list[int]] = [[] for _ in range(count)]
    a, b, _, link = shared_pairs(lines)
    for x, y, same in zip(a.tolist(), b.tolist(), link.tolist()):
        (on_line if same else on_switch)[y].append(x)
    bit = [0] * count
    shared = [0] * count
    passes: list[list[int]] = []

    def assign(m: int, limit: int) -> bool:
        if m == count:
            return True
        blocked = beside = 0
        for other in on_line[m]:
            blocked |= bit[other]
        for other in on_switch[m]:
            beside |= bit[other]
        # the open passes m shares no line in, and the new pass, below limit
        free = ~blocked & ((1 << min(limit, len(passes) + 1)) - 1)
        while free:
            here = free & -free
            free ^= here
            met = [other for other in on_switch[m] if bit[other] == here] if beside & here else []
            if len(met) > budget or any(shared[other] >= budget for other in met):
                continue
            c = here.bit_length() - 1
            if c == len(passes):
                passes.append([])
            passes[c].append(m)
            bit[m] = here
            shared[m] = len(met)
            for other in met:
                shared[other] += 1
            if assign(m + 1, limit):
                return True
            for other in met:
                shared[other] -= 1
            passes[c].pop()
            if not passes[c]:
                passes.pop()
        return False

    # a failed search undoes every placement, so each limit starts from no passes
    for limit in range(_lower_bound(net, lines, config.budget), count + 1):
        if assign(0, limit):
            break
    return Schedule(passes, config, shared)


def validate_schedule(
    net: NetworkSpec,
    perm: PermutationMap,
    schedule: Schedule,
    config: ScheduleConfig | None = None,
) -> ValidationReport:
    """Check the schedule against conflicts recomputed from the path table.

    Each message's out-lines are offset by N times its pass, so that rows of
    different passes never meet, and the holders of every line are counted
    in message order.  The pass and stage offsets are even, so `cell ^ 1` is
    the other out-line of a member's switch, and where no line is held twice
    a member's shared stages are those where that line is held.  Only when a
    line is held twice or a member goes over the budget are the rows sorted
    by pass and paired by shared switch, in one `shared_pairs` call.
    Nothing is read from the occupancy the schedulers used.
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

    sizes = [len(p) for p in schedule.passes]
    member_pass = np.empty(count, dtype=np.intp)
    member_pass[members] = np.repeat(np.arange(len(sizes)), sizes)
    lines = path_table(net, perm.sources, perm.dests) + (net.size * member_pass)[:, None]
    # count the holders of every (pass, stage, out-line) first, unless the
    # counts (N·P·n) outgrow the table (M·n) by far, as for a few messages
    # in a large network; the pairs are needed only for a violation
    span = net.size * len(sizes)
    if span <= 64 * count:
        cells = lines + span * np.arange(net.stages)
        held = np.bincount(cells.ravel(), minlength=span * net.stages)
        if held.max(initial=0) < 2:
            shared = held[cells ^ 1].sum(axis=1)
            if config.budget is None or not (shared > config.budget).any():
                return ValidationReport(violations=[])
    # the rows by pass, each pass's in member order, as pairs are reported
    order = np.argsort(member_pass, kind="stable")
    a, b, stage, link = shared_pairs(lines[order])
    if not a.size:
        return ValidationReport(violations=[])
    a, b = order[a], order[b]
    at_pass = member_pass[a]
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
