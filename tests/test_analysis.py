import re
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ominsim import (
    Algorithm,
    DuplicateSourceError,
    Message,
    OutOfRangeError,
    ScheduleConfig,
    Topology,
    analytic_bandwidth,
    build_network,
    full_permutation,
    make_permutation,
    mode_label,
    monte_carlo,
    passability,
    resolve_single_pass,
    schedule_exact,
    schedule_greedy,
    splitmix64,
    substream,
    trace_path,
)
from ominsim import mc_kernel
from ominsim.analysis import generate_random_permutation, random_permutation_study

from .conftest import SHOWCASE_DESTS, fixed_maps, networks


def sources(perm, indices):
    return sorted(perm.pairs[i].source for i in indices)


class TestAnalyticBandwidth:
    def test_two_stage_curve(self):
        curve = analytic_bandwidth(2, 1.0)
        assert curve.stage_probabilities == (0.75, 0.609375)
        assert curve.bandwidth == 2.4375

    def test_three_stage_bandwidth(self):
        assert analytic_bandwidth(3, 1.0).bandwidth == pytest.approx(4.1323, abs=1e-3)

    def test_zero_load_is_fixed_point(self):
        curve = analytic_bandwidth(5, 0.0)
        assert curve.bandwidth == 0.0
        assert all(p == 0.0 for p in curve.stage_probabilities)

    def test_rejects_bad_inputs(self):
        with pytest.raises(OutOfRangeError):
            analytic_bandwidth(3, 1.5)
        with pytest.raises(OutOfRangeError):
            analytic_bandwidth(0, 0.5)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=8))
    def test_curve_is_monotone_non_increasing(self, load, stages):
        curve = analytic_bandwidth(stages, load)
        probs = (load,) + curve.stage_probabilities
        assert all(later <= earlier + 1e-12 for earlier, later in zip(probs, probs[1:]))

    def test_bandwidth_grows_with_size(self):
        values = [analytic_bandwidth(n, 1.0).bandwidth for n in range(2, 9)]
        assert values == sorted(values)


class TestResolveSinglePass:
    def test_showcase_allow_all_mature(self, omega8, showcase):
        survivors = resolve_single_pass(omega8, showcase.pairs)
        assert sources(showcase, survivors[None]) == list(range(8))

    def test_showcase_crosstalk_free_survivors(self, omega8, showcase):
        survivors = resolve_single_pass(omega8, showcase.pairs, budgets=[0])
        assert sources(showcase, survivors[0]) == [0, 1]

    def test_small_batch_with_line_collisions(self, omega4):
        # 0->1 vs 2->0 contest the stage-1 line 0; 1->2 vs 3->3 contest line 3
        perm = full_permutation(omega4, [1, 2, 0, 3])
        survivors = resolve_single_pass(omega4, perm.pairs)
        assert sources(perm, survivors[None]) == [0, 1]

    def test_duplicate_sources_rejected(self, omega4):
        with pytest.raises(DuplicateSourceError):
            resolve_single_pass(omega4, [Message(1, 0), Message(1, 2)])

    def test_negative_budget_rejected(self, omega4):
        perm = full_permutation(omega4, [0, 1, 2, 3])
        with pytest.raises(OutOfRangeError):
            resolve_single_pass(omega4, perm.pairs, budgets=[-1])

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([8, 16]), st.data())
    def test_survivor_sets_nest_across_budgets(self, size, data):
        net = build_network(size, Topology.OMEGA)
        dests = [data.draw(st.integers(0, size - 1)) for _ in range(size)]
        requests = [Message(s, d) for s, d in enumerate(dests)]
        survivors = resolve_single_pass(net, requests, budgets=[2, 1, 0])
        assert survivors[0] <= survivors[1] <= survivors[2] <= survivors[None]

    @settings(max_examples=40, deadline=None)
    @given(st.permutations(tuple(range(8))))
    def test_crosstalk_free_survivors_are_switch_disjoint(self, dests):
        net = build_network(8, Topology.OMEGA)
        perm = full_permutation(net, dests)
        survivors = resolve_single_pass(net, perm.pairs, budgets=[0])[0]
        for stage in range(net.stages):
            seen = set()
            for m in survivors:
                switch = trace_path(net, perm.pairs[m])[stage].switch
                assert switch not in seen
                seen.add(switch)


class TestPassability:
    def test_showcase_values(self, omega8, showcase):
        assert passability(omega8, showcase, None) == 1.0
        assert passability(omega8, showcase, 0) == 0.25
        assert type(passability(omega8, showcase, 0)) is float

    def test_identity_allow(self, omega4):
        assert passability(omega4, full_permutation(omega4, [0, 1, 2, 3]), None) == 1.0

    @settings(max_examples=120, deadline=None)
    @given(st.data(), networks(), st.sampled_from([None, 0, 1, 2]))
    def test_matches_reference_resolver(self, data, net, mode):
        perm = data.draw(fixed_maps(net))
        budgets = [] if mode is None else [mode]
        survivors = resolve_single_pass(net, perm.pairs, budgets)[mode]
        expected = len(survivors) / len(perm.pairs) if perm.pairs else 0.0
        assert passability(net, perm, mode) == expected

    @pytest.mark.parametrize("pairs", [SHOWCASE_DESTS, ()], ids=["showcase", "empty"])
    def test_negative_mode_rejected(self, omega8, pairs):
        perm = make_permutation([Message(s, d) for s, d in enumerate(pairs)], 8)
        with pytest.raises(OutOfRangeError):
            passability(omega8, perm, -1)


class TestMonteCarlo:
    def test_zero_load_means_zero_matured(self, omega4):
        report = monte_carlo(omega4, 0.0, [None], trials=100, seed=1)
        assert report.modes[0].mean_matured == 0.0
        assert report.modes[0].passability == 0.0

    @pytest.mark.parametrize("load", [1.0, 0.0])
    def test_statistics_are_floats(self, omega8, load):
        """Every statistic is a Python float, passability too, whether or
        not anything was offered."""
        for stat in monte_carlo(omega8, load, [None, 1, 0], trials=6, seed=4).modes:
            assert type(stat.mean_matured) is float
            assert type(stat.stderr) is float
            assert type(stat.passability) is float

    def test_zero_trials_rejected(self, omega4):
        with pytest.raises(OutOfRangeError, match=r"^need at least one trial, got 0$"):
            monte_carlo(omega4, 1.0, [None], trials=0, seed=1)

    def test_determinism(self, omega8):
        a = monte_carlo(omega8, 0.7, [None, 1, 0], trials=300, seed=42)
        b = monte_carlo(omega8, 0.7, [None, 1, 0], trials=300, seed=42)
        assert a == b

    def test_mode_means_follow_budget_order(self, omega8):
        report = monte_carlo(omega8, 1.0, [None, 2, 1, 0], trials=500, seed=3)
        means = [stat.mean_matured for stat in report.modes]
        assert means == sorted(means, reverse=True)

    def test_stderr_scales_with_root_trials(self, omega4):
        errors = [
            monte_carlo(omega4, 1.0, [None], trials=t, seed=99).modes[0].stderr
            for t in (1_000, 10_000, 100_000)
        ]
        assert 2.5 < errors[0] / errors[1] < 4.0
        assert 2.5 < errors[1] / errors[2] < 4.0

    @pytest.mark.parametrize("load", [-0.1, 1.5, float("nan"), float("inf")])
    def test_bad_load_rejected(self, omega4, load):
        """The load is checked first, so a bad load's error comes before a
        bad trial count's; NaN fails the range test too."""
        with pytest.raises(OutOfRangeError, match=re.escape(f"load must lie in [0, 1], got {load}")):
            monte_carlo(omega4, load, [None], trials=0, seed=1)

    @pytest.mark.parametrize("load", [0.0, 1.0])
    def test_closed_load_range_accepted(self, omega4, load):
        assert monte_carlo(omega4, load, [None], trials=2, seed=1).load == load


class TestRandomPermutationStudy:
    @pytest.mark.parametrize(
        "budget, labels",
        [(0, ["allow", "free"]), (1, ["allow", "budget=1", "free"]), (None, ["allow", "free"])],
        ids=["budget-0", "budget-1", "unlimited"],
    )
    @pytest.mark.parametrize("per_chunk", [None, 3], ids=["one-chunk", "chunks-of-3"])
    @pytest.mark.parametrize("algorithm", [Algorithm.GREEDY_ORDER, Algorithm.EXACT], ids=lambda a: a.value)
    @pytest.mark.parametrize("topology", ["omega", "baseline"])
    def test_report_matches_per_permutation_replay(self, budget, labels, topology, algorithm, per_chunk):
        net = build_network(8, topology)
        config = ScheduleConfig(budget=budget, algorithm=algorithm)
        solve = schedule_exact if algorithm is Algorithm.EXACT else schedule_greedy
        cells = mc_kernel.CHUNK_CELLS if per_chunk is None else per_chunk * net.size
        with mock.patch.object(mc_kernel, "CHUNK_CELLS", cells):
            report = random_permutation_study(net, 40, 5, config)
        assert (report.trials, report.seed, report.load) == (40, 5, 1.0)
        assert [mode_label(stat.mode) for stat in report.modes] == labels
        matured = {mode: [] for mode in (None, budget, 0)}
        histogram = Counter()
        for t in range(40):
            perm = generate_random_permutation(net, substream(5, t))
            survivors = resolve_single_pass(net, perm.pairs, budgets=[budget, 0])
            for mode, values in matured.items():
                values.append(len(survivors[mode]))
            histogram[len(solve(net, perm, config).passes)] += 1
        assert report.pass_histogram == dict(sorted(histogram.items()))
        for stat in report.modes:
            values = matured[stat.mode]
            mean = sum(values) / 40
            assert stat.mean_matured == mean
            assert stat.passability == mean / 8
            var = sum((v - mean) ** 2 for v in values) / 39
            assert stat.stderr == pytest.approx((var / 40) ** 0.5, rel=1e-12)

    def test_each_chunk_scheduled_before_it_is_resolved(self, omega8):
        """Chunk by chunk, the study resolves exactly the permutations it has
        just scheduled, all of them."""
        events = []

        def solve(net, perm, config):
            events.append(("solve", perm.dests.tolist()))
            return schedule_greedy(net, perm, config)

        def resolve(net, dests, lowest):
            events.append(("resolve", dests.tolist()))
            return mc_kernel.resolve_batch(net, dests, lowest)

        with mock.patch.object(mc_kernel, "CHUNK_CELLS", 3 * 8), \
                mock.patch("ominsim.analysis.schedule_greedy", solve), \
                mock.patch("ominsim.analysis.resolve_batch", resolve):
            random_permutation_study(omega8, 7, 2, ScheduleConfig(budget=1))
        expected = []
        for first, stop in [(0, 3), (3, 6), (6, 7)]:
            rows = [generate_random_permutation(omega8, substream(2, t)).dests.tolist() for t in range(first, stop)]
            expected += [("solve", row) for row in rows] + [("resolve", rows)]
        assert events == expected

    def test_statistics_are_floats(self, omega8):
        for stat in random_permutation_study(omega8, 5, 2, ScheduleConfig(budget=1)).modes:
            assert type(stat.mean_matured) is float
            assert type(stat.stderr) is float
            assert type(stat.passability) is float

    def test_zero_permutations_rejected(self, omega8):
        with pytest.raises(OutOfRangeError, match=r"^need at least one permutation, got 0$"):
            random_permutation_study(omega8, 0, 5, ScheduleConfig())

    @pytest.mark.parametrize("size", [4, 8, 64, 256])
    def test_generated_map_equals_checked_map(self, size):
        """The shuffle's map skips make_permutation's checks; rebuilding it
        through them must accept it and give an equal map."""
        net = build_network(size, "omega")
        for seed in range(5):
            perm = generate_random_permutation(net, substream(seed, size))
            assert perm == make_permutation(perm.pairs, size)


def test_mode_labels():
    assert mode_label(None) == "allow"
    assert mode_label(0) == "free"
    assert mode_label(3) == "budget=3"


def test_splitmix64_reference_value():
    # first output of the published SplitMix64 sequence for seed 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF


def test_substreams_are_reproducible_and_distinct():
    assert [substream(7, 2).next_u64() for _ in range(3)] == [substream(7, 2).next_u64() for _ in range(3)]
    draws = {substream(7, t).next_u64() for t in range(64)}
    assert len(draws) == 64


def test_stream_below_is_in_range():
    s = substream(11, 0)
    values = [s.below(12) for _ in range(200)]
    assert all(0 <= v < 12 for v in values)
    assert len(set(values)) > 1
    for bound in (0, -1):
        with pytest.raises(ValueError, match=f"^bound must be positive, got {bound}$"):
            s.below(bound)
