"""Acceptance suite: one test per release criterion with pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
status lines.
"""
import itertools
import json
import math
import time
from contextlib import contextmanager

from ominsim import (
    Algorithm,
    Message,
    ScheduleConfig,
    Topology,
    build_network,
    conflict_stages,
    full_permutation,
    monte_carlo,
    resolve_single_pass,
    schedule_exact,
    schedule_greedy,
    substream,
    switch_at_stage,
    trace_path,
    validate_schedule,
)
from ominsim.analysis import generate_random_permutation
from ominsim.cli import run

from .conftest import SHOWCASE_DESTS, conflict_pairs, degrees

SIZES = (4, 8, 16, 32, 64)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [FAIL] {description}")
        raise
    print(f"ACCEPTANCE {number} [PASS] {description}")


def test_criterion_1_delivery():
    with criterion(1, "delivery correct for all pairs, both topologies, N=4..64, <5s"):
        started = time.perf_counter()
        for size in SIZES:
            for topology in (Topology.OMEGA, Topology.BASELINE):
                net = build_network(size, topology)
                for s in range(size):
                    for d in range(size):
                        last = trace_path(net, Message(s, d))[-1]
                        assert (last.switch << 1) | last.out_port == d
        assert time.perf_counter() - started < 5.0


def test_criterion_2_window_equals_trace():
    with criterion(2, "window formula matches traced switches for all pairs, N<=64"):
        for size in SIZES:
            net = build_network(size, Topology.OMEGA)
            for s in range(size):
                for d in range(size):
                    traced = [h.switch for h in trace_path(net, Message(s, d))]
                    for stage in range(1, net.stages + 1):
                        assert switch_at_stage(net, Message(s, d), stage) == traced[stage - 1]


def test_criterion_3_showcase_fixture():
    with criterion(3, "8-input fixture: 3-regular graph, 3/2/1 passes at k=0/1/unlimited, <1s"):
        started = time.perf_counter()
        net = build_network(8, Topology.OMEGA)
        perm = full_permutation(net, SHOWCASE_DESTS)

        pairs = conflict_pairs(net, perm)
        assert pairs[0].size == 12
        assert (degrees(pairs, 8) == 3).all()

        exact0 = schedule_exact(net, perm, ScheduleConfig(budget=0, algorithm=Algorithm.EXACT))
        assert len(exact0.passes) == 3
        assert not validate_schedule(net, perm, exact0).violations

        exact1 = schedule_exact(net, perm, ScheduleConfig(budget=1, algorithm=Algorithm.EXACT))
        assert exact1.passes == [[0, 1, 2, 3], [4, 5, 6, 7]]
        for members in exact1.passes:
            for i, j in itertools.combinations(members, 2):
                shared = conflict_stages(net, perm.pairs[i], perm.pairs[j])
                # residual sharing sits at the middle stage only, and is tolerable
                assert all(stage == 2 for stage, _ in shared)
                assert not any(link for _, link in shared)
        assert any(
            conflict_stages(net, perm.pairs[i], perm.pairs[j])
            for members in exact1.passes
            for i, j in itertools.combinations(members, 2)
        )

        unlimited = schedule_exact(net, perm, ScheduleConfig(budget=None, algorithm=Algorithm.EXACT))
        assert len(unlimited.passes) == 1
        assert time.perf_counter() - started < 1.0


def test_criterion_4_scheduling_soundness():
    with criterion(4, "1000 random permutations per size: schedules validate, bounds hold"):
        for size in (8, 16):
            net = build_network(size, Topology.OMEGA)
            for index in range(1000):
                perm = generate_random_permutation(net, substream(2024, index))
                max_degree = degrees(conflict_pairs(net, perm), size).max()
                for budget in (0, 1):
                    config = ScheduleConfig(budget=budget)
                    schedule = schedule_greedy(net, perm, config)
                    assert not validate_schedule(net, perm, schedule, config).violations
                    if budget == 0:
                        assert len(schedule.passes) >= 2
                        assert len(schedule.passes) <= max_degree + 1
                        if size == 8:
                            exact = schedule_exact(
                                net, perm, ScheduleConfig(budget=0, algorithm=Algorithm.EXACT)
                            )
                            assert len(schedule.passes) >= len(exact.passes)


def test_criterion_5_analytic_bandwidth():
    from ominsim import analytic_bandwidth

    with criterion(5, "analytic bandwidth values within 1e-3; growth in N; budget monotone"):
        expected = {4: 2.4375, 8: 4.1323, 16: 7.1974, 32: 12.7757, 64: 23.0015}
        values = []
        for size, want in expected.items():
            curve = analytic_bandwidth(size.bit_length() - 1, 1.0)
            assert abs(curve.bandwidth - want) <= 1e-3, (size, curve.bandwidth)
            values.append(curve.bandwidth)
        assert values == sorted(values)

        net = build_network(16, Topology.OMEGA)
        report = monte_carlo(net, 1.0, [None, 2, 1, 0], trials=2000, seed=77)
        means = [stat.mean_matured for stat in report.modes]
        assert means[0] >= means[1] >= means[2] >= means[3]


def test_criterion_6_coupled_mode_dominance():
    with criterion(6, "free survivors nest inside allow on every trial; gap >= 5 stderr"):
        for size in (8, 16, 32):
            net = build_network(size, Topology.OMEGA)
            diffs = []
            for trial in range(10_000):
                stream = substream(606, trial)
                requests = [
                    Message(s, stream.below(size))
                    for s in range(size)
                    if stream.bernoulli(1.0)
                ]
                survivors = resolve_single_pass(net, requests, budgets=[0])
                assert survivors[0] <= survivors[None]
                diffs.append(len(survivors[None]) - len(survivors[0]))
            mean = sum(diffs) / len(diffs)
            variance = sum((d - mean) ** 2 for d in diffs) / (len(diffs) - 1)
            stderr = math.sqrt(variance / len(diffs))
            assert mean > 0 and mean >= 5 * stderr, (size, mean, stderr)


def _reference_shuffle_resolver(size, destinations):
    """Test-local single-pass resolver, independent of the package internals.

    Walks all requests stage by stage over explicit line occupancy maps,
    keeping the lowest source whenever an outgoing line is contested.
    """
    stage_count = size.bit_length() - 1
    carriers = {s: s for s in range(size)}  # line -> source currently on it
    for stage in range(1, stage_count + 1):
        claimed = {}
        for line, src in sorted(carriers.items()):
            shuffled = ((line << 1) | (line >> (stage_count - 1))) & (size - 1)
            bit = (destinations[src] >> (stage_count - stage)) & 1
            target = ((shuffled >> 1) << 1) | bit
            if target not in claimed or src < claimed[target]:
                claimed[target] = src
        carriers = {line: src for line, src in claimed.items()}
    return len(carriers)


def test_criterion_7_exhaustive_oracle_n4():
    with criterion(7, "N=4 Monte Carlo mean within 3 stderr of exhaustive expectation, <10s"):
        started = time.perf_counter()
        total = 0
        for destinations in itertools.product(range(4), repeat=4):
            total += _reference_shuffle_resolver(4, destinations)
        exact_mean = total / 4**4

        net = build_network(4, Topology.OMEGA)
        report = monte_carlo(net, 1.0, [None], trials=100_000, seed=31415)
        stat = report.modes[0]
        assert abs(stat.mean_matured - exact_mean) <= 3 * stat.stderr, (
            stat.mean_matured,
            exact_mean,
            stat.stderr,
        )
        assert time.perf_counter() - started < 10.0


def test_criterion_8_reproducibility(tmp_path):
    with criterion(8, "identical (seed, config) gives byte-identical CSV/JSON"):
        perm_path = tmp_path / "showcase.perm"
        perm_path.write_text("".join(f"{s} {d}\n" for s, d in enumerate(SHOWCASE_DESTS)))
        jobs = [
            ["bandwidth", "--sizes", "8,16", "--mode", "simulate", "--crosstalk",
             "allow,budget=1,free", "--trials", "300", "--seed", "12", "--format", "csv"],
            ["bandwidth", "--sizes", "8", "--mode", "simulate", "--crosstalk", "free",
             "--trials", "300", "--seed", "12", "--format", "json"],
            ["schedule", "--size", "8", "--perm", str(perm_path), "--budget", "1",
             "--algorithm", "exact"],
            ["simulate", "--size", "8", "--random-perms", "100", "--seed", "8", "--budget", "1"],
            ["conflicts", "--size", "8", "--perm", str(perm_path)],
        ]
        for index, argv in enumerate(jobs):
            first = tmp_path / f"first_{index}.out"
            second = tmp_path / f"second_{index}.out"
            assert run(argv + ["--output", str(first)]) == 0
            assert run(argv + ["--output", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes(), argv
            doc = first.read_text()
            if argv[0] in ("simulate",) or "json" in argv:
                json.loads(doc)
