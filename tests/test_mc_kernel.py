"""The vectorised Monte Carlo kernel against resolve_single_pass, trial by trial.

The reference here samples each trial with a Python loop over its own
substream, in the documented draw order, and resolves it with
resolve_single_pass; the kernel must agree on every trial.
"""
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ominsim import (
    Message,
    OutOfRangeError,
    Schedule,
    ScheduleConfig,
    TrafficModel,
    build_network,
    full_permutation,
    make_permutation,
    monte_carlo,
    resolve_single_pass,
    substream,
    validate_schedule,
)
from ominsim import mc_kernel
from ominsim.mc_kernel import permutation_dests, resolve_batch, sample_requests

from .conftest import fixed_maps, networks

MODES = [None, 0, 1, 2, 3]


def reference_requests(net, traffic, stream):
    """One Bernoulli(load) per input line, then one destination per active
    line for uniform traffic, or the map's requests of the active lines."""
    active = [stream.bernoulli(traffic.load) for _ in range(net.size)]
    if traffic.permutation is not None:
        return [msg for msg in traffic.permutation.pairs if active[msg.source]]
    return [Message(s, stream.below(net.size)) for s in range(net.size) if active[s]]


def reference_counts(net, traffic, budgets, trials, seed):
    """Per trial: (offered, {mode: survivors}) through resolve_single_pass."""
    rows = []
    for trial in range(trials):
        stream = substream(seed, trial)
        requests = reference_requests(net, traffic, stream)
        survivors = resolve_single_pass(net, requests, budgets)
        rows.append((len(requests), {m: len(v) for m, v in survivors.items()}))
    return rows


def kernel_counts(net, traffic, budgets, trials, seed):
    perm = traffic.permutation
    perm_dests = None if perm is None else permutation_dests(net, perm)
    dests = sample_requests(net, traffic.load, perm_dests, seed, 0, trials)
    survivors = resolve_batch(net, dests, budgets)
    return [
        (int(np.count_nonzero(dests[t] >= 0)), {m: int(alive[t].sum()) for m, alive in survivors.items()})
        for t in range(trials)
    ]


def assert_report_matches(report, rows, modes):
    """monte_carlo's statistics, recomputed from reference per-trial counts."""
    offered = sum(r[0] for r in rows)
    assert [s.mode for s in report.modes] == list(dict.fromkeys(modes))
    for stat in report.modes:
        arr = np.asarray([r[1][stat.mode] for r in rows], dtype=float)
        assert stat.mean_matured == float(arr.mean())
        assert stat.stderr == (float(np.std(arr, ddof=1) / np.sqrt(len(rows))) if len(rows) > 1 else 0.0)
        assert stat.passability == ((arr.sum() / offered) if offered else 0.0)


loads = st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=0.99), st.just(1.0))
chains = st.lists(st.sampled_from(MODES), min_size=1, max_size=5)
seeds = st.integers(min_value=0, max_value=(1 << 64) - 1)


@st.composite
def traffics(draw, net):
    load = draw(loads)
    perm = draw(st.one_of(st.none(), fixed_maps(net)))
    return TrafficModel(load=load, permutation=perm)


@settings(max_examples=150, deadline=None)
@given(st.data(), networks(), chains, st.integers(min_value=1, max_value=8), seeds)
def test_kernel_matches_reference_trial_by_trial(data, net, modes, trials, seed):
    traffic = data.draw(traffics(net))
    budgets = [m for m in modes if m is not None]
    assert kernel_counts(net, traffic, budgets, trials, seed) == reference_counts(
        net, traffic, budgets, trials, seed
    )


@settings(max_examples=60, deadline=None)
@given(
    st.data(), networks(sizes=(4, 8, 16)), chains, st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=5), seeds,
)
def test_monte_carlo_spanning_chunks_matches_reference(data, net, modes, trials, per_chunk, seed):
    traffic = data.draw(traffics(net))
    budgets = [m for m in dict.fromkeys(modes) if m is not None]
    rows = reference_counts(net, traffic, budgets, trials, seed)
    with mock.patch.object(mc_kernel, "CHUNK_CELLS", per_chunk * net.size):
        report = monte_carlo(net, traffic, modes, trials, seed)
    assert_report_matches(report, rows, modes)


@pytest.mark.parametrize("topology", ["omega", "baseline"])
@pytest.mark.parametrize("budgets", [[1, 0], [0], [2, 1, 0], [3], list(range(8))], ids=str)
def test_workload_shaped_batch(topology, budgets):
    """n = 8 stages: a free sweep straight from the allow survivors, budgets
    whose stages below the budget need no fixed point, chains that read one
    pair list, and the full chain of every budget 0 .. n - 1."""
    net = build_network(256, topology)
    traffic = TrafficModel(load=1.0)
    assert kernel_counts(net, traffic, budgets, 20, 0x5EED) == reference_counts(net, traffic, budgets, 20, 0x5EED)


@settings(max_examples=60, deadline=None)
@given(st.data(), networks(), st.integers(min_value=0, max_value=3), seeds)
def test_budget_of_at_least_stages_keeps_allow_survivors(data, net, extra, seed):
    """A message meets at most one switch per stage, so it shares at most
    n stages and a budget >= n never binds."""
    traffic = data.draw(traffics(net))
    budget = net.stages + extra
    perm = traffic.permutation
    perm_dests = None if perm is None else permutation_dests(net, perm)
    dests = sample_requests(net, traffic.load, perm_dests, seed, 0, 4)
    survivors = resolve_batch(net, dests, [budget])
    assert np.array_equal(survivors[budget], survivors[None])
    for trial in range(4):
        requests = [Message(s, int(d)) for s, d in enumerate(dests[trial]) if d >= 0]
        reference = resolve_single_pass(net, requests, [budget])
        assert reference[budget] == reference[None]


def test_lower_switch_drop_flips_higher_switch_decision():
    """Omega N=8, budget 1.  Every message shares its stage-1 switch, so all
    counts are 1.  At stage 2, switch 0 holds sources 4 and 6, which tie, so
    6 drops and its stage-1 share with source 2 dissolves.  Switch 1 holds
    sources 0 (count 1) and 2 (count now 0), so 0 drops alone.  With counts
    frozen at the start of the stage, 0 and 2 would tie and 2 would drop."""
    net = build_network(8, "omega")
    dests = [4, 5, 7, 3, 2, 0, 1, 6]
    perm = full_permutation(net, dests)
    reference = resolve_single_pass(net, perm.pairs, budgets=[1])[1]
    assert sorted(reference) == [1, 2, 3, 4]
    kernel = resolve_batch(net, np.array([dests]), [1])[1]
    assert np.flatnonzero(kernel[0]).tolist() == [1, 2, 3, 4]


@pytest.mark.parametrize("topology", ["omega", "baseline"])
@pytest.mark.parametrize("size, passing", [(4, 16), (8, 4096)])
def test_full_permutations_passing_in_one_pass(topology, size, passing):
    """Of the N! full permutations exactly 2^(nN/2) pass whole in one allow
    pass, one per setting of the nN/2 switches.  None passes at a budget
    below n, as every switch holds two messages at every stage."""
    net = build_network(size, topology)
    assert passing == 2 ** (net.stages * size // 2)
    dests = np.array(list(permutations(range(size))))
    budgets = list(range(net.stages))
    whole = {mode: alive.all(axis=1) for mode, alive in resolve_batch(net, dests, budgets).items()}
    assert whole[None].sum() == passing
    for budget in budgets:
        assert not whole[budget].any()
    if size == 4:
        for row, passes in zip(dests.tolist(), whole[None].tolist()):
            survivors = resolve_single_pass(net, full_permutation(net, row).pairs, budgets)
            assert (len(survivors[None]) == size) == passes
            assert all(len(survivors[budget]) < size for budget in budgets)


@pytest.mark.parametrize("topology", ["omega", "baseline"])
def test_batch_takes_modes_as_held(topology):
    """None and repeats may appear among the modes: the masks are those of
    the distinct budgets, keyed by None plus every mode asked for."""
    net = build_network(16, topology)
    dests = sample_requests(net, 1.0, None, 7, 0, 50)
    held = resolve_batch(net, dests, [None, 0, 1, 0])
    plain = resolve_batch(net, dests, [1, 0])
    assert held.keys() == plain.keys() == {None, 0, 1}
    for mode, alive in plain.items():
        assert np.array_equal(held[mode], alive)


def test_monte_carlo_rows_in_first_seen_order(omega8):
    """Repeated and reordered modes give one row per distinct mode, in the
    order first asked for, with the statistics of the distinct request."""
    traffic = TrafficModel(load=0.8)
    repeated = monte_carlo(omega8, traffic, [0, None, 0, 1], trials=40, seed=9)
    distinct = {s.mode: s for s in monte_carlo(omega8, traffic, [None, 1, 0], trials=40, seed=9).modes}
    assert [s.mode for s in repeated.modes] == [0, None, 1]
    assert list(repeated.modes) == [distinct[0], distinct[None], distinct[1]]


@settings(max_examples=80, deadline=None)
@given(st.data(), networks(sizes=(8, 16, 32)), chains)
def test_survivors_pass_validate_schedule_as_one_pass(data, net, modes):
    """Survivors of mode k form one valid pass at budget k (allow: unlimited)."""
    dests = data.draw(st.permutations(range(net.size)))
    perm = full_permutation(net, dests)
    for mode, alive in resolve_batch(net, np.array([dests]), modes).items():
        members = make_permutation([perm.pairs[s] for s in np.flatnonzero(alive[0])], net.size)
        config = ScheduleConfig(budget=mode)
        report = validate_schedule(net, members, Schedule([list(range(len(members)))], config, []))
        assert not report.violations, (mode, report.violations)


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_out_of_range_seed_rejected(omega8, seed):
    with pytest.raises(OutOfRangeError):
        monte_carlo(omega8, TrafficModel(), [None], trials=3, seed=seed)


@pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
def test_extreme_seeds_match_reference(omega8, seed):
    traffic = TrafficModel(load=0.6)
    rows = reference_counts(omega8, traffic, [1, 0], 30, seed)
    assert_report_matches(monte_carlo(omega8, traffic, [None, 1, 0], 30, seed), rows, [None, 1, 0])


def test_map_outside_network_rejected(omega4):
    perm = make_permutation([Message(0, 5)], 8)
    with pytest.raises(OutOfRangeError):
        monte_carlo(omega4, TrafficModel(permutation=perm), [None], trials=2, seed=1)


def test_negative_budget_rejected(omega4):
    with pytest.raises(OutOfRangeError):
        monte_carlo(omega4, TrafficModel(), [None, -1], trials=2, seed=1)
