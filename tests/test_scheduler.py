import json
import random
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ominsim import (
    Algorithm,
    CoverageError,
    Message,
    OutOfRangeError,
    Schedule,
    ScheduleConfig,
    Topology,
    Violation,
    build_network,
    conflict_stages,
    full_permutation,
    make_permutation,
    parse_permutation,
    path_table,
    schedule_exact,
    schedule_greedy,
    schedule_json,
    trace_path,
    validate_schedule,
)
from ominsim import scheduler

from .conftest import SHOWCASE_DESTS, conflict_pairs, degrees, draw_map


def exact_cfg(budget):
    return ScheduleConfig(budget=budget, algorithm=Algorithm.EXACT)


def test_greedy_showcase_k0(omega8, showcase):
    schedule = schedule_greedy(omega8, showcase, ScheduleConfig(budget=0))
    assert schedule.passes == [[0, 1, 7], [2, 3, 5], [4], [6]]
    assert not validate_schedule(omega8, showcase, schedule).violations


def test_greedy_showcase_k1_matches_half_split(omega8, showcase):
    schedule = schedule_greedy(omega8, showcase, ScheduleConfig(budget=1))
    assert schedule.passes == [[0, 1, 2, 3], [4, 5, 6, 7]]


def test_welsh_powell_showcase(omega8, showcase):
    # all degrees tie at 3, so the source-ascending tie-break reproduces the
    # plain greedy order
    schedule = schedule_greedy(
        omega8, showcase, ScheduleConfig(budget=0, algorithm=Algorithm.WELSH_POWELL)
    )
    assert schedule.passes == [[0, 1, 7], [2, 3, 5], [4], [6]]


def test_greedy_single_message(omega4):
    perm = full_permutation(omega4, [0, 1, 2, 3])
    single = make_permutation(perm.pairs[:1], 4)
    assert len(single) < omega4.size and len(perm) == omega4.size
    for budget in (0, 1, None):
        assert len(schedule_greedy(omega4, single, ScheduleConfig(budget=budget)).passes) == 1


def test_exact_showcase_k0(omega8, showcase):
    schedule = schedule_exact(omega8, showcase, exact_cfg(0))
    assert schedule.passes == [[0, 1, 7], [2, 4, 5], [3, 6]]
    assert not validate_schedule(omega8, showcase, schedule).violations


def test_exact_showcase_k1(omega8, showcase):
    schedule = schedule_exact(omega8, showcase, exact_cfg(1))
    assert schedule.passes == [[0, 1, 2, 3], [4, 5, 6, 7]]
    # the half split shares every message's middle-stage switch, and nothing else
    assert schedule.shared_counts == [1] * len(showcase)


def test_exact_showcase_unlimited(omega8, showcase):
    schedule = schedule_exact(omega8, showcase, exact_cfg(None))
    assert len(schedule.passes) == 1


def test_exact_identity_two_passes(omega4):
    schedule = schedule_exact(omega4, full_permutation(omega4, [0, 1, 2, 3]), exact_cfg(0))
    assert schedule.passes == [[0, 3], [1, 2]]


def test_exact_cap(omega8):
    net = build_network(32, Topology.OMEGA)
    perm = full_permutation(net, list(range(32)))
    with pytest.raises(OutOfRangeError, match=r"^32 messages exceed the exact-solver cap of 20$"):
        schedule_exact(net, perm, exact_cfg(0))


def test_validator_flags_middle_stage_budget_violations(omega8, showcase):
    """The half/half split leaves every message sharing its middle-stage
    switch, which a zero budget must reject message by message."""
    forced = Schedule(
        passes=[[0, 1, 2, 3], [4, 5, 6, 7]],
        config=ScheduleConfig(budget=0),
        shared_counts=[],
    )
    report = validate_schedule(omega8, showcase, forced)
    budget_violations = [v for v in report.violations if v.kind == "budget"]
    assert len(budget_violations) == 8
    assert all(v.stages == (2,) for v in budget_violations)
    assert not [v for v in report.violations if v.kind == "link"]
    # the same split is clean under budget 1
    assert not validate_schedule(omega8, showcase, forced, ScheduleConfig(budget=1)).violations


@pytest.mark.parametrize(
    "passes, error, message",
    [
        ([[0, 1, 2, 3, 4, 5, 6]], CoverageError, "messages [7] missing from the schedule"),
        ([[0, 1], [], [1, 2, 3, 4, 5, 6, 7]], CoverageError, "message index 1 scheduled twice"),
        ([[0, 99]], OutOfRangeError, "message index 99 outside [0, 8)"),
        ([[-1], [0, 1, 2, 3, 4, 5, 6, 7]], OutOfRangeError, "message index -1 outside [0, 8)"),
        # the first offender in pass order wins, whatever its kind
        ([[0, 2], [2, 8]], CoverageError, "message index 2 scheduled twice"),
        ([[0, 8], [2, 2]], OutOfRangeError, "message index 8 outside [0, 8)"),
        ([[3, 8, 3]], OutOfRangeError, "message index 8 outside [0, 8)"),
        ([[5], [1 << 70]], OutOfRangeError, f"message index {1 << 70} outside [0, 8)"),
        ([[1, 6], [], [4]], CoverageError, "messages [0, 2, 3, 5, 7] missing from the schedule"),
        ([], CoverageError, "messages [0, 1, 2, 3, 4, 5, 6, 7] missing from the schedule"),
    ],
)
def test_validator_coverage_errors(omega8, showcase, passes, error, message):
    cfg = ScheduleConfig(budget=0)
    with pytest.raises(error) as info:
        validate_schedule(omega8, showcase, Schedule(passes, cfg, []))
    assert type(info.value) is error and str(info.value) == message


def _brute_force_chromatic(pairs, count):
    """Smallest m admitting a proper coloring, by trying every canonical
    assignment vector in lexicographic order."""
    a, b, _, _ = pairs
    conflicting = set(zip(a.tolist(), b.tolist()))
    for m in range(1, count + 1):
        for assign in product(range(m), repeat=count):
            seen = 0
            canonical = True
            for c in assign:
                if c > seen:
                    canonical = False
                    break
                seen = max(seen, c + 1)
            if not canonical or seen != m:
                continue
            if all(assign[a] != assign[b] for a, b in conflicting):
                return m
    return count


@settings(max_examples=20, deadline=None)
@given(st.permutations(tuple(range(8))))
def test_exact_k0_equals_brute_force_chromatic_number(dests):
    net = build_network(8, Topology.OMEGA)
    perm = full_permutation(net, dests)
    schedule = schedule_exact(net, perm, exact_cfg(0))
    assert len(schedule.passes) == _brute_force_chromatic(conflict_pairs(net, perm), 8)


@settings(max_examples=30, deadline=None)
@given(st.permutations(tuple(range(8))))
def test_exact_pass_count_dominance_over_budgets(dests):
    net = build_network(8, Topology.OMEGA)
    perm = full_permutation(net, dests)
    counts = [len(schedule_exact(net, perm, exact_cfg(k)).passes) for k in (0, 1, 2, None)]
    assert counts[0] >= counts[1] >= counts[2] >= counts[3]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([8, 16]), st.data())
def test_greedy_schedules_always_validate(size, data):
    net = build_network(size, Topology.OMEGA)
    perm = full_permutation(net, data.draw(st.permutations(tuple(range(size)))))
    budget = data.draw(st.sampled_from([0, 1, 2, None]))
    algorithm = data.draw(st.sampled_from([Algorithm.GREEDY_ORDER, Algorithm.WELSH_POWELL]))
    config = ScheduleConfig(budget=budget, algorithm=algorithm)
    schedule = schedule_greedy(net, perm, config)
    assert not validate_schedule(net, perm, schedule, config).violations
    if budget == 0:
        assert len(schedule.passes) >= 2
        assert len(schedule.passes) <= degrees(conflict_pairs(net, perm), size).max() + 1


def test_source_pair_decomposition_is_crosstalk_free(omega8, showcase):
    """Splitting the showcase by source pairs {0,1},{2,3},{4,5},{6,7} yields
    four valid crosstalk-free passes, one more than the exact minimum."""
    forced = Schedule(
        passes=[[0, 1], [2, 3], [4, 5], [6, 7]],
        config=ScheduleConfig(budget=0),
        shared_counts=[],
    )
    assert not validate_schedule(omega8, showcase, forced).violations
    assert len(schedule_exact(omega8, showcase, exact_cfg(0)).passes) == 3


def test_greedy_rejects_exact_algorithm(omega8, showcase):
    with pytest.raises(ValueError):
        schedule_greedy(omega8, showcase, exact_cfg(0))


@pytest.mark.parametrize("algorithm", [Algorithm.GREEDY_ORDER, Algorithm.WELSH_POWELL])
def test_exact_rejects_greedy_algorithms(omega8, showcase, algorithm):
    """The exact scheduler's output is labelled with its config's
    algorithm, so a config naming a greedy order is refused."""
    with pytest.raises(ValueError):
        schedule_exact(omega8, showcase, ScheduleConfig(budget=0, algorithm=algorithm))


def test_negative_budget_rejected():
    with pytest.raises(OutOfRangeError, match=r"^budget must be >= 0, got -1$"):
        ScheduleConfig(budget=-1)


def test_degree_descending_order_is_deterministic(omega8, showcase):
    config = ScheduleConfig(budget=0, algorithm=Algorithm.WELSH_POWELL)
    first = schedule_greedy(omega8, showcase, config)
    second = schedule_greedy(omega8, showcase, config)
    assert first.passes == second.passes


def test_schedule_json_field_order(omega8, showcase):
    schedule = schedule_exact(omega8, showcase, exact_cfg(0))
    doc = json.loads(schedule_json(omega8, showcase, schedule))
    assert list(doc) == ["size", "topology", "budget", "algorithm", "passes", "violations"]
    assert doc["passes"] == [[0, 1, 7], [2, 4, 5], [3, 6]]
    assert doc["budget"] == 0 and doc["violations"] == []
    unlimited = schedule_exact(omega8, showcase, exact_cfg(None))
    assert json.loads(schedule_json(omega8, showcase, unlimited))["budget"] == "unlimited"


@settings(max_examples=100, deadline=None)
@example(SHOWCASE_DESTS, [], 0, Algorithm.GREEDY_ORDER)
@example(SHOWCASE_DESTS, [[]], None, Algorithm.EXACT)
@example(SHOWCASE_DESTS, [[3], [], [0, 1]], 2, Algorithm.WELSH_POWELL)
@given(
    st.permutations(range(8)),
    st.lists(st.lists(st.integers(0, 7), max_size=8), max_size=5),
    st.sampled_from([0, 1, 2, None]),
    st.sampled_from(list(Algorithm)),
)
def test_schedule_json_equals_indented_dumps(dests, passes, budget, algorithm):
    """schedule_json writes the passes itself; its text must be that of
    json.dumps(doc, indent=2) plus a newline."""
    net = build_network(8, "baseline")
    perm = full_permutation(net, dests)
    config = ScheduleConfig(budget=budget, algorithm=algorithm)
    doc = {
        "size": 8,
        "topology": "baseline",
        "budget": "unlimited" if budget is None else budget,
        "algorithm": algorithm.value,
        "passes": [[perm.pairs[m].source for m in p] for p in passes],
        "violations": [],
    }
    assert schedule_json(net, perm, Schedule(passes, config, [])) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("budget", [0, 1])
def test_schedule_call_builds_no_messages(budget):
    """Parse, greedy, validate and JSON read the map's arrays: the derived
    `pairs` tuple is never built."""
    net = build_network(512, "omega")
    dests = random.Random(512).sample(range(512), 512)
    perm = parse_permutation("".join(f"{s} {d}\n" for s, d in enumerate(dests)), net)
    config = ScheduleConfig(budget=budget)
    schedule = schedule_greedy(net, perm, config)
    assert not validate_schedule(net, perm, schedule, config).violations
    schedule_json(net, perm, schedule)
    assert "pairs" not in vars(perm)
    assert perm.pairs[5] == Message(5, dests[5]) and "pairs" in vars(perm)


def _all_pairs_validation(net, perm, passes, budget, paths=None):
    """The all-pairs check on traced paths that validate_schedule replaced:
    (violations, semi), where semi[i] says whether pass i shares no switch,
    i.e. is a semi-permutation.  `paths` are the map's traces, when the
    caller already has them."""
    paths = paths or [trace_path(net, msg) for msg in perm.pairs]
    violations = []
    semi = []
    for pi, members in enumerate(passes):
        shared = {m: set() for m in members}
        switch_shared = False
        for a, b in combinations(sorted(members), 2):
            for stage in range(1, net.stages + 1):
                ha, hb = paths[a][stage - 1], paths[b][stage - 1]
                if ha.switch != hb.switch:
                    continue
                switch_shared = True
                shared[a].add(stage)
                shared[b].add(stage)
                if ha.out_port == hb.out_port:
                    violations.append(Violation("link", pi, (a, b), (stage,)))
                    break
        if budget is not None:
            for m in sorted(members):
                if len(shared[m]) > budget:
                    violations.append(Violation("budget", pi, (m,), tuple(sorted(shared[m]))))
        semi.append(not switch_shared)
    return violations, semi


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(list(Topology)), st.sampled_from([4, 8, 16, 32, 64]), st.data())
def test_validator_equals_all_pairs_oracle(topology, size, data):
    """Any partition, valid or not, of a full map or of a partial map that
    may repeat destinations gets the oracle's violations, in its order.
    Random partitions are seldom valid above N=8, so greedy's schedule is
    drawn too, sometimes with one message moved to another pass: the
    holder counts then settle most reports, and the pairs the rest.  A
    pass of greedy's own schedule is a semi-permutation, by the oracle,
    exactly when its members' shared counts are all 0."""
    net = build_network(size, topology)
    perm = draw_map(data, net)
    count = len(perm.pairs)
    budget = data.draw(st.sampled_from([0, 1, 2, None]))
    schedule = None
    if data.draw(st.booleans()):
        labels = data.draw(st.lists(st.integers(0, 3), min_size=count, max_size=count))
        order = data.draw(st.permutations(range(count)))
        passes = [[m for m in order if labels[m] == p] for p in range(max(labels, default=0) + 1)]
    else:
        schedule = schedule_greedy(net, perm, ScheduleConfig(budget=budget))
        passes = schedule.passes
        if count and data.draw(st.booleans()):
            m = data.draw(st.integers(0, count - 1))
            passes = [[q for q in p if q != m] for p in passes] + [[]]
            passes[data.draw(st.integers(0, len(passes) - 1))].append(m)
            schedule = None
    report = validate_schedule(net, perm, Schedule(passes, ScheduleConfig(budget=budget), []))
    violations, semi = _all_pairs_validation(net, perm, passes, budget)
    assert report.violations == violations
    if schedule is not None:
        assert [not any(schedule.shared_counts[m] for m in p) for p in passes] == semi


def test_empty_pass_among_crosstalk_free_passes_validates(omega8, showcase):
    passes = [[0, 1], [], [2, 3], [4, 5], [6, 7]]
    assert not validate_schedule(omega8, showcase, Schedule(passes, ScheduleConfig(budget=0), [])).violations


def test_pair_path_with_no_pairs_found():
    """Two messages bound for one destination at N=1024: the holder counts
    (N·P·n) outgrow the table (M·n) by far, so the validator pairs the
    rows, and greedy's two passes give it no pair at all."""
    net = build_network(1024, Topology.OMEGA)
    perm = make_permutation([Message(0, 0), Message(1, 0)], 1024)
    schedule = schedule_greedy(net, perm, ScheduleConfig(budget=0))
    assert schedule.passes == [[0], [1]]
    assert net.size * len(schedule.passes) > 64 * len(perm)
    for budget in (0, 1, None):
        assert not validate_schedule(net, perm, schedule, ScheduleConfig(budget=budget)).violations
    forced = Schedule([[0, 1]], ScheduleConfig(budget=None), [])
    assert validate_schedule(net, perm, forced).violations == [Violation("link", 0, (0, 1), (10,))]


@pytest.mark.parametrize("topology", list(Topology))
@pytest.mark.parametrize("size", [8, 32, 128, 1024])
def test_shared_counts_equal_the_validators_budget_report(topology, size):
    """Below a first-fit schedule's largest shared-stage count, the
    validator reports exactly the members over the budget, each with as
    many stages as the schedule counted, and no link; at that count it
    reports nothing.  Full and half maps take the holder count; a few
    messages bound for four destinations at N=1024 take the pair path."""
    net = build_network(size, topology)
    rng = random.Random(size)
    maps = []
    for _ in range(3):
        half = rng.sample(range(size), size // 2)
        sources = rng.sample(range(size), max(2, size // 128))
        targets = rng.sample(range(size), 4)
        maps += [
            full_permutation(net, rng.sample(range(size), size)),
            make_permutation([Message(s, rng.randrange(size)) for s in half], size),
            make_permutation([Message(s, rng.choice(targets)) for s in sources], size),
        ]
    counted = set()
    for perm, budget, algorithm in product(maps, [1, 2, 3, None], [Algorithm.GREEDY_ORDER, Algorithm.WELSH_POWELL]):
        schedule = schedule_greedy(net, perm, ScheduleConfig(budget, algorithm))
        counts = schedule.shared_counts
        counted.add(net.size * len(schedule.passes) <= 64 * len(perm))
        pass_of = {m: i for i, p in enumerate(schedule.passes) for m in p}
        for lower in range(max(counts) + 1):
            report = validate_schedule(net, perm, schedule, ScheduleConfig(lower))
            over = sorted((pass_of[m], m, c) for m, c in enumerate(counts) if c > lower)
            assert [(v.kind, v.pass_index, v.messages, len(v.stages)) for v in report.violations] == [
                ("budget", pi, (m,), c) for pi, m, c in over
            ]
    if size == 1024:
        assert counted == {True, False}


def test_empty_map_schedules_to_no_passes(omega8):
    empty = make_permutation([], 8)
    for config in (ScheduleConfig(budget=0), exact_cfg(0), exact_cfg(None)):
        scheduler = schedule_exact if config.algorithm is Algorithm.EXACT else schedule_greedy
        schedule = scheduler(omega8, empty, config)
        assert schedule.passes == [] and schedule.shared_counts == []
        assert not validate_schedule(omega8, empty, schedule).violations


def _first_fit_reference(net, perm, config, order=None):
    """First-fit over all pairs of traced paths (`conflict_stages`): each
    message of `order` (when None, by ascending source or, for Welsh-Powell,
    by descending degree first) joins the first pass where it meets no
    member on a line and no member's shared stages, its own included,
    exceed the budget.  Returns (passes, shared_counts), one count per
    message."""
    count = len(perm.pairs)
    met = {}
    for a, b in combinations(range(count), 2):
        found = conflict_stages(net, perm.pairs[a], perm.pairs[b])
        if found:
            met[a, b] = met[b, a] = found
    if order is None:
        order = sorted(range(count), key=lambda i: perm.pairs[i].source)
        if config.algorithm is Algorithm.WELSH_POWELL:
            degree = Counter(a for a, _ in met)
            order.sort(key=lambda i: -degree[i])
    passes = []  # per pass: member -> the stages it shares
    for m in order:
        for index, shared in enumerate(passes):
            trial = {q: set(stages) for q, stages in shared.items()}
            trial[m] = set()
            link = False
            for q in shared:
                for stage, shares_line in met.get((m, q), ()):
                    link |= shares_line
                    trial[q].add(stage)
                    trial[m].add(stage)
            if not link and (config.budget is None or all(len(s) <= config.budget for s in trial.values())):
                passes[index] = trial
                break
        else:
            passes.append({m: set()})
    counts = [0] * count
    for p in passes:
        for m, stages in p.items():
            counts[m] = len(stages)
    return [sorted(p) for p in passes], counts


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(list(Topology)), st.sampled_from([4, 8, 16, 32, 64]), st.data())
def test_greedy_equals_first_fit_reference(topology, size, data):
    """Passes and shared-stage counts equal those of first-fit over all pairs
    of traced paths, for both built-in message orders and for `_first_fit`
    over any order, on full and partial maps."""
    net = build_network(size, topology)
    perm = draw_map(data, net)
    budget = data.draw(st.sampled_from([0, 1, 2, None]))
    algorithm = data.draw(st.sampled_from([Algorithm.GREEDY_ORDER, Algorithm.WELSH_POWELL]))
    config = ScheduleConfig(budget=budget, algorithm=algorithm)
    schedule = schedule_greedy(net, perm, config)
    assert (schedule.passes, schedule.shared_counts) == _first_fit_reference(net, perm, config)
    order = data.draw(st.permutations(range(len(perm))))
    passes, shared = scheduler._first_fit(net, path_table(net, perm.sources, perm.dests), budget, order)
    passes = [sorted(members) for members in passes]
    assert (passes, shared) == _first_fit_reference(net, perm, config, order)
    assert not validate_schedule(net, perm, Schedule(passes, config, shared)).violations


def _canonical_assignments(count, limit):
    """Every assignment of `count` messages to at most `limit` passes in
    which pass c first appears after pass c - 1, in lexicographic order."""

    def extend(prefix, opened):
        if len(prefix) == count:
            yield prefix
            return
        for c in range(min(opened + 1, limit)):
            yield from extend(prefix + (c,), max(opened, c + 1))

    return extend((), 0)


def _smallest_valid_assignment(net, perm, budget):
    """Passes of the lexicographically smallest canonical assignment, among
    those with the fewest passes, that `_all_pairs_validation` accepts."""
    paths = [trace_path(net, msg) for msg in perm.pairs]
    count = len(perm.pairs)
    for limit in range(1, count + 1):
        for assign in _canonical_assignments(count, limit):
            passes = [[m for m in range(count) if assign[m] == p] for p in range(max(assign) + 1)]
            if not _all_pairs_validation(net, perm, passes, budget, paths)[0]:
                return passes
    return []


def _pass_mates_met(net, perm, passes):
    """Per message, how many of its pass-mates its traced path meets at a
    switch (`conflict_stages`); in a legal pass each meets it at one stage."""
    counts = [0] * len(perm.pairs)
    for members in passes:
        for a, b in combinations(members, 2):
            if conflict_stages(net, perm.pairs[a], perm.pairs[b]):
                counts[a] += 1
                counts[b] += 1
    return counts


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(Topology)), st.sampled_from([4, 8, 16, 32, 64]), st.data())
def test_exact_equals_smallest_valid_assignment(topology, size, data):
    net = build_network(size, topology)
    perm = draw_map(data, net)
    if len(perm) > 8:
        perm = make_permutation(perm.pairs[:8], size)
    budget = data.draw(st.sampled_from([0, 1, None]))
    schedule = schedule_exact(net, perm, exact_cfg(budget))
    assert schedule.passes == _smallest_valid_assignment(net, perm, budget)
    assert schedule.shared_counts == _pass_mates_met(net, perm, schedule.passes)


@pytest.mark.parametrize("topology", list(Topology))
def test_exact_equals_smallest_valid_assignment_on_full_8_maps(topology):
    """Full 8-input maps make the search undo admissions into passes that
    share switches, which sparse maps seldom do."""
    net = build_network(8, topology)
    rng = random.Random(8)
    for _ in range(40):
        perm = full_permutation(net, rng.sample(range(8), 8))
        for budget in (0, 1, None):
            schedule = schedule_exact(net, perm, exact_cfg(budget))
            assert schedule.passes == _smallest_valid_assignment(net, perm, budget)
            assert schedule.shared_counts == _pass_mates_met(net, perm, schedule.passes)


def test_greedy_alone_never_builds_the_conflict_graph(omega8, showcase, monkeypatch):
    """Greedy admits by occupancy and never looks for conflicting pairs;
    the exact solver looks for them once, for its search, and Welsh-Powell
    once, for its degrees.  The validator pairs every pass itself, so it
    runs with the spy removed."""
    pair_finder = scheduler.shared_pairs
    calls = []

    def spy(*args):
        calls.append(args)
        return pair_finder(*args)

    monkeypatch.setattr(scheduler, "shared_pairs", spy)
    schedules = []
    for budget in (0, 1, None):
        schedules.append(schedule_greedy(omega8, showcase, ScheduleConfig(budget=budget)))
        assert not calls
        schedules.append(schedule_exact(omega8, showcase, exact_cfg(budget)))
        assert len(calls) == 1
        config = ScheduleConfig(budget=budget, algorithm=Algorithm.WELSH_POWELL)
        schedules.append(schedule_greedy(omega8, showcase, config))
        assert len(calls) == 2
        calls.clear()
    monkeypatch.undo()
    for schedule in schedules:
        assert not validate_schedule(omega8, showcase, schedule).violations


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(Topology)), st.data())
def test_exact_needs_two_passes_exactly_when_the_pairs_are_two_colourable(topology, data):
    """At budget 0 a pass is a set of messages no two of which share a switch,
    so two passes suffice exactly when the graph on the conflicting pairs is
    two-colourable (Shen, Yang & Pan, IEEE/ACM ToN 2001)."""
    net = build_network(8, topology)
    perm = draw_map(data, net)
    a, b, _, _ = conflict_pairs(net, perm)
    edges = list(zip(a.tolist(), b.tolist()))
    two = any(all(side >> x & 1 != side >> y & 1 for x, y in edges) for side in range(1 << len(perm)))
    assert (len(schedule_exact(net, perm, exact_cfg(0)).passes) <= 2) == two


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(Topology)), st.sampled_from([4, 8, 16]), st.data())
def test_lower_bound_never_exceeds_the_fewest_passes(topology, size, data):
    net = build_network(size, topology)
    perm = draw_map(data, net)
    if len(perm) > 8:
        perm = make_permutation(perm.pairs[:8], size)
    budget = data.draw(st.sampled_from([0, 1, 2, None]))
    bound = scheduler._lower_bound(net, path_table(net, perm.sources, perm.dests), budget)
    assert bound <= len(_smallest_valid_assignment(net, perm, budget))


def test_exact_starts_at_the_lower_bound():
    """Seven of these 19 messages go to destination 9, so every schedule
    needs 7 passes; proving that from 1 pass up took the search ~20 s."""
    net = build_network(32, Topology.OMEGA)
    ends = (
        "29 9, 22 9, 18 9, 1 25, 2 9, 31 9, 7 9, 13 19, 5 21, 12 21, "
        "26 2, 4 25, 10 2, 16 0, 30 0, 28 2, 17 2, 0 9, 15 26"
    )
    perm = make_permutation([Message(*map(int, e.split())) for e in ends.split(", ")], 32)
    lines = path_table(net, perm.sources, perm.dests)
    for budget in (0, 1, None):
        assert scheduler._lower_bound(net, lines, budget) == 7
        schedule = schedule_exact(net, perm, exact_cfg(budget))
        assert len(schedule.passes) == 7
        assert not validate_schedule(net, perm, schedule).violations


def test_exact_on_a_large_network_gives_each_hot_message_a_pass():
    """Eighteen messages bound for one destination at N=65536 need a pass
    each; the exact solver keeps its messages' pairs and passes, nothing
    that grows with N."""
    net = build_network(65536, Topology.OMEGA)
    perm = make_permutation([Message(s, 0) for s in range(0, 65536, 3641)], net.size)
    for budget in (0, 1, None):
        assert schedule_exact(net, perm, exact_cfg(budget)).passes == [[m] for m in range(18)]
