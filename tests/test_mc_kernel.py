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
    analytic_bandwidth,
    build_network,
    full_permutation,
    make_permutation,
    monte_carlo,
    passability,
    resolve_single_pass,
    substream,
    validate_schedule,
)
from ominsim import mc_kernel
from ominsim.mc_kernel import resolve_batch, sample_requests

from .conftest import fixed_maps, networks

MODES = [None, 0, 1, 2, 3]
HUGE = 10**30  # a budget far past any int64


def reference_requests(net, traffic, stream):
    """traffic is (load, map or None).  One Bernoulli(load) per input line,
    then one destination per active line for uniform traffic, or the map's
    requests of the active lines."""
    load, perm = traffic
    active = [stream.bernoulli(load) for _ in range(net.size)]
    if perm is not None:
        return [msg for msg in perm.pairs if active[msg.source]]
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


def sampled(net, traffic, seed, trials):
    """The kernel's requests of trials 0 .. trials - 1.  A map's rows keep
    the sources whose activity draws, 1 .. N, came up, as the reference's
    do."""
    load, perm = traffic
    dests = sample_requests(net, load, seed, 0, trials)
    if perm is None:
        return dests
    row = np.full(net.size, -1)
    row[perm.sources] = perm.dests
    return np.where(dests >= 0, row, -1)


def mode_level(net, mode):
    """The level of mode's survivors: level <= min(mode, n), allow's n."""
    return net.stages if mode is None else min(mode, net.stages)


def kernel_masks(net, dests, modes):
    """Survivor masks by source, keyed by None plus every mode, all read
    from one level array."""
    levels = {m: mode_level(net, m) for m in (None, *modes)}
    level = resolve_batch(net, dests, min(levels.values()))
    return {m: level <= k for m, k in levels.items()}


def kernel_counts(net, traffic, budgets, trials, seed):
    dests = sampled(net, traffic, seed, trials)
    survivors = kernel_masks(net, dests, budgets)
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
    return load, perm


@settings(max_examples=150, deadline=None)
@given(st.data(), networks(), chains, st.integers(min_value=1, max_value=8), seeds)
def test_kernel_matches_reference_trial_by_trial(data, net, modes, trials, seed):
    traffic = data.draw(traffics(net))
    assert kernel_counts(net, traffic, modes, trials, seed) == reference_counts(net, traffic, modes, trials, seed)


@settings(max_examples=60, deadline=None)
@given(
    st.data(), networks(sizes=(4, 8, 16)), chains, st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=5), seeds,
)
def test_monte_carlo_spanning_chunks_matches_reference(data, net, modes, trials, per_chunk, seed):
    """Chunk boundaries change no statistic, and a budget past any int64
    reads the allow level."""
    load = data.draw(loads)
    modes = modes + [HUGE]
    rows = reference_counts(net, (load, None), modes, trials, seed)
    with mock.patch.object(mc_kernel, "CHUNK_CELLS", per_chunk * net.size):
        report = monte_carlo(net, load, modes, trials, seed)
    assert_report_matches(report, rows, modes)


@pytest.mark.parametrize("topology", ["omega", "baseline"])
@pytest.mark.parametrize("budgets", [[1, 0], [0], [2, 1, 0], [3], list(range(8))], ids=str)
def test_workload_shaped_batch(topology, budgets):
    """n = 8 stages: a free sweep straight from the allow survivors, budgets
    that skip the stages below them (at stage k a count is at most k),
    chains that read one pair list, and the full chain of every budget
    0 .. n - 1."""
    net = build_network(256, topology)
    traffic = (1.0, None)
    assert kernel_counts(net, traffic, budgets, 20, 0x5EED) == reference_counts(net, traffic, budgets, 20, 0x5EED)


@pytest.mark.parametrize("topology", ["omega", "baseline"])
def test_kernel_matches_reference_at_n65536(topology):
    """N = 2^16, n = 16: at the last stage the allow sweep shifts every key
    by n + 1 + k = 32 bits to move its routing bit up to the empty bit, and
    the keys of sources >= 2^15 lose their high bits in the shift.  Every
    mode's survivors equal the reference's, source by source."""
    net = build_network(1 << 16, topology)
    traffic, modes, seed = (0.02, None), [None, 1, 0], 0xB16
    dests = sampled(net, traffic, seed, 2)
    kernel = kernel_masks(net, dests, modes)
    for trial in range(2):
        requests = reference_requests(net, traffic, substream(seed, trial))
        assert requests == [Message(s, int(d)) for s, d in enumerate(dests[trial]) if d >= 0]
        assert max(m.source for m in requests) >= 1 << 15
        reference = resolve_single_pass(net, requests, modes)
        for mode in modes:
            sources = sorted(requests[m].source for m in reference[mode])
            assert np.flatnonzero(kernel[mode][trial]).tolist() == sources, mode


@pytest.mark.parametrize("topology", ["omega", "baseline"])
@pytest.mark.parametrize("load", [1.0, 0.5])
def test_kernel_matches_reference_at_n32768(topology, load):
    """N = 2^15, n = 15: the largest network whose keys, up to the empty
    key N << n = 2^30, fit 32 bits.  With the N=65536 test this pins both
    sides of the key-width rule.  Every mode's survivors equal the
    reference's, source by source."""
    net = build_network(1 << 15, topology)
    traffic, modes, seed = (load, None), [None, 2, 1, 0], 0x8000
    dests = sampled(net, traffic, seed, 1)
    kernel = kernel_masks(net, dests, modes)
    requests = reference_requests(net, traffic, substream(seed, 0))
    assert requests == [Message(s, int(d)) for s, d in enumerate(dests[0]) if d >= 0]
    reference = resolve_single_pass(net, requests, modes)
    for mode in modes:
        sources = sorted(requests[m].source for m in reference[mode])
        assert np.flatnonzero(kernel[mode][0]).tolist() == sources, mode


@pytest.mark.parametrize("size", [4, 256])
def test_full_load_sampling_replays_the_destination_draws(size):
    """At load 1 every line is active and sample_requests computes only
    draws N + 1 .. 2N: trial t's row is substream(seed, t) with N draws
    skipped, then below(N) once per source, for trials that do not start
    at 0 too."""
    net = build_network(size, "omega")
    seed, first, count = 0xF11, 7, 5
    expected = []
    for trial in range(first, first + count):
        stream = substream(seed, trial)
        for _ in range(size):
            stream.next_u64()
        expected.append([stream.below(size) for _ in range(size)])
    dests = sample_requests(net, 1.0, seed, first, count)
    assert dests.dtype == np.int64
    assert dests.tolist() == expected


@settings(max_examples=60, deadline=None)
@given(st.data(), networks(), st.integers(min_value=0, max_value=3), seeds)
def test_budget_of_at_least_stages_keeps_allow_survivors(data, net, extra, seed):
    """A message meets at most one switch per stage, so it shares at most
    n stages and a budget >= n never binds: from the kernel, whose levels
    are then n for the allow survivors and n + 1 for the rest, and from the
    reference alike."""
    traffic = data.draw(traffics(net))
    budget = net.stages + extra
    dests = sampled(net, traffic, seed, 4)
    level = resolve_batch(net, dests, budget)
    assert np.array_equal(level, resolve_batch(net, dests, net.stages))
    assert set(np.unique(level).tolist()) <= {net.stages, net.stages + 1}
    for trial in range(4):
        requests = [Message(s, int(d)) for s, d in enumerate(dests[trial]) if d >= 0]
        reference = resolve_single_pass(net, requests, [budget])
        assert reference[budget] == reference[None]
        sources = sorted(requests[m].source for m in reference[budget])
        assert np.flatnonzero(level[trial] <= net.stages).tolist() == sources


def test_stage_decides_from_counts_at_its_start():
    """Omega N=8.  Every message shares its switch at stages 0 and 1, so the
    four switches of stage 2 each hold two messages of count 2, and
    budget=2 drops the higher source at each: 1, 4, 6 and 7.  Deciding switch
    by switch in ascending order would let 6's drop at switch 0 lower 4's
    count before switch 1 decides, and drop 3 there instead.  Every earlier
    partner of the four survivors is gone, so budget=1 keeps them, and free
    drops 2 and 5, where they meet 0 and 3 at stage 1."""
    net = build_network(8, "omega")
    dests = [4, 5, 7, 3, 2, 0, 1, 6]
    expected = {None: list(range(8)), 2: [0, 2, 3, 5], 1: [0, 2, 3, 5], 0: [0, 3]}
    perm = full_permutation(net, dests)
    reference = resolve_single_pass(net, perm.pairs, budgets=[2, 1, 0])
    assert {m: sorted(v) for m, v in reference.items()} == expected
    assert resolve_batch(net, np.array([dests]), 0).tolist() == [[0, 3, 1, 0, 3, 1, 3, 3]]
    kernel = kernel_masks(net, np.array([dests]), [2, 1, 0])
    assert {m: np.flatnonzero(v[0]).tolist() for m, v in kernel.items()} == expected


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
    whole = {mode: alive.all(axis=1) for mode, alive in kernel_masks(net, dests, budgets).items()}
    assert whole[None].sum() == passing
    for budget in budgets:
        assert not whole[budget].any()
    if size == 4:
        for row, passes in zip(dests.tolist(), whole[None].tolist()):
            survivors = resolve_single_pass(net, full_permutation(net, row).pairs, budgets)
            assert (len(survivors[None]) == size) == passes
            assert all(len(survivors[budget]) < size for budget in budgets)


@settings(max_examples=60, deadline=None)
@given(st.data(), networks(), chains, seeds)
def test_batch_takes_modes_as_held(data, net, modes, seed):
    """Each mode's survivors are the same whatever else is asked for.  In
    the kernel a chain run down to L gives the full chain's levels with
    every level below L raised to L.  The reference takes its budgets as
    held: None and repeats may appear, the result is keyed by None plus
    every mode, and a budget of 10**30 keeps the allow survivors."""
    traffic = data.draw(traffics(net))
    dests = sampled(net, traffic, seed, 4)
    full = resolve_batch(net, dests, 0)
    for lowest in range(net.stages + 1):
        assert np.array_equal(resolve_batch(net, dests, lowest), np.maximum(full, lowest)), lowest
    for row in dests:
        requests = [Message(s, int(d)) for s, d in enumerate(row) if d >= 0]
        reference = resolve_single_pass(net, requests, modes + [HUGE])
        assert reference[HUGE] == reference[None]
        for mode in modes:
            assert reference[mode] == resolve_single_pass(net, requests, [mode])[mode]


@settings(max_examples=60, deadline=None)
@given(st.data(), networks(), seeds)
def test_destination_xor_keeps_every_survivor(data, net, seed):
    """XOR-ing every destination with one constant c maps the network onto
    itself: each stage's routing bit flips for every message alike, so the
    same messages meet on the same lines and switches.  Contests look only
    at sources and counts, so no mode's survivors change."""
    traffic = data.draw(traffics(net))
    c = data.draw(st.integers(min_value=1, max_value=net.size - 1))
    dests = sampled(net, traffic, seed, 4)
    moved = np.where(dests >= 0, dests ^ c, -1)
    modes = [None, *range(net.stages)]
    assert np.array_equal(resolve_batch(net, dests, 0), resolve_batch(net, moved, 0))
    for row, moved_row in zip(dests, moved):
        requests = [[Message(s, int(d)) for s, d in enumerate(r) if d >= 0] for r in (row, moved_row)]
        assert resolve_single_pass(net, requests[0], modes) == resolve_single_pass(net, requests[1], modes)


# Per mode, survivors: maps over all 40,320 full N=8 maps.  Allow and
# budget=2 are the same on both topologies.
ALLOW_8 = {2: 128, 3: 512, 4: 6912, 5: 12288, 6: 16384, 8: 4096}
BUDGET2_8 = {2: 128, 3: 512, 4: 25344, 5: 12288, 6: 2048}
SURVIVORS_8 = {
    "omega": {
        None: ALLOW_8, 2: BUDGET2_8, 1: {2: 384, 3: 3584, 4: 36352}, 0: {1: 128, 2: 4992, 3: 20736, 4: 14464},
    },
    "baseline": {
        None: ALLOW_8, 2: BUDGET2_8, 1: {2: 4224, 3: 2560, 4: 33536}, 0: {1: 4096, 2: 4992, 3: 19456, 4: 11776},
    },
}


@pytest.mark.parametrize("topology", ["omega", "baseline"])
def test_exhaustive_n8_survivor_distribution(topology):
    """Every full N=8 map through the chain 2, 1, 0: the number of maps with
    each survivor count, per mode, equals a table derived once from
    resolve_single_pass, which takes about 7 s per topology against about
    0.1 s here."""
    net = build_network(8, topology)
    dests = np.array(list(permutations(range(8))))
    level = resolve_batch(net, dests, 0)
    for mode in SURVIVORS_8[topology]:
        counts, maps = np.unique(np.count_nonzero(level <= mode_level(net, mode), axis=1), return_counts=True)
        assert dict(zip(counts.tolist(), maps.tolist())) == SURVIVORS_8[topology][mode], mode


# Survivor totals over every uniform load-1 pattern at N=4 (4^4 of them),
# and at N=8 over the 8^7 patterns in which source 0 is bound for 0.
EXACT = {
    ("omega", 4): {None: 624, 1: 496, 0: 448},
    ("baseline", 4): {None: 624, 1: 496, 0: 416},
    ("omega", 8): {None: 8_666_112, 2: 8_110_240, 1: 7_031_168, 0: 5_957_376},
    ("baseline", 8): {None: 8_666_112, 2: 8_084_992, 1: 6_736_384, 0: 5_641_728},
}


def uniform_patterns(size, free, chunk=1 << 16):
    """Every request array in which sources size - free .. size - 1 each pick
    any destination and the others are bound for 0, in chunks of rows."""
    n = size.bit_length() - 1
    for first in range(0, size**free, chunk):
        index = np.arange(first, min(first + chunk, size**free))
        dests = np.zeros((index.size, size), dtype=np.int64)
        for j in range(free):
            dests[:, size - free + j] = (index >> (n * j)) & (size - 1)
        yield dests


@pytest.mark.parametrize("topology", ["omega", "baseline"])
@pytest.mark.parametrize("size", [4, 8])
def test_exact_single_pass_bandwidth(topology, size):
    """Exact expected survivors per mode at uniform load 1.  XOR-ing every
    destination with c keeps every survivor, and each XOR orbit holds one
    pattern with source 0 bound for 0, so at N=8 the 8^7 such patterns give
    the exact means.  Allow equals Patel's recurrence exactly; Monte Carlo
    means lie within 4 stderr of the exact ones."""
    net = build_network(size, topology)
    free = size if size == 4 else size - 1
    modes = list(range(net.stages))
    totals = dict.fromkeys([None, *modes], 0)
    for dests in uniform_patterns(size, free):
        level = resolve_batch(net, dests, 0)
        for mode in totals:
            totals[mode] += int(np.count_nonzero(level <= mode_level(net, mode)))
    assert totals == EXACT[topology, size]
    exact = {mode: total / size**free for mode, total in totals.items()}
    assert exact[None] == analytic_bandwidth(net.stages, 1.0).bandwidth
    for stat in monte_carlo(net, 1.0, [None, *modes], trials=4000, seed=17).modes:
        assert abs(stat.mean_matured - exact[stat.mode]) <= 4 * stat.stderr, stat


def test_monte_carlo_rows_in_first_seen_order(omega8):
    """Repeated and reordered modes give one row per distinct mode, in the
    order first asked for, with the statistics of the distinct request."""
    repeated = monte_carlo(omega8, 0.8, [0, None, 0, 1], trials=40, seed=9)
    distinct = {s.mode: s for s in monte_carlo(omega8, 0.8, [None, 1, 0], trials=40, seed=9).modes}
    assert [s.mode for s in repeated.modes] == [0, None, 1]
    assert list(repeated.modes) == [distinct[0], distinct[None], distinct[1]]


def test_monte_carlo_without_modes_reports_none(omega8):
    """An empty mode list resolves the allow pass alone and reports no row."""
    report = monte_carlo(omega8, 1.0, [], 5, 1)
    assert report.modes == ()
    assert report.trials == 5


@settings(max_examples=100, deadline=None)
@given(st.data(), networks(), seeds)
def test_level_is_the_lowest_surviving_budget(data, net, seed):
    """level[t, s] is the lowest budget >= lowest at which source s
    survives, n when only the allow pass keeps it and n + 1 for an allow
    loser or an idle source, as derived trial by trial from one
    resolve_single_pass call over every budget."""
    n = net.stages
    traffic = data.draw(traffics(net))
    lowest = data.draw(st.integers(min_value=0, max_value=n))
    dests = sampled(net, traffic, seed, 4)
    level = resolve_batch(net, dests, lowest)
    assert level.dtype == np.int8
    assert level.shape == dests.shape
    assert ((lowest <= level) & (level <= n + 1)).all()
    assert (level[dests < 0] == n + 1).all()
    for row, got in zip(dests, level):
        requests = [Message(s, int(d)) for s, d in enumerate(row) if d >= 0]
        survivors = resolve_single_pass(net, requests, range(n))
        expected = [n + 1] * net.size
        # survivor sets nest, so the last budget to keep a message is its level
        for mode in (None, *range(n - 1, lowest - 1, -1)):
            for m in survivors[mode]:
                expected[requests[m].source] = mode_level(net, mode)
        assert got.tolist() == expected


@settings(max_examples=80, deadline=None)
@given(st.data(), networks(sizes=(8, 16, 32)), chains)
def test_survivors_pass_validate_schedule_as_one_pass(data, net, modes):
    """Survivors of mode k form one valid pass at budget k (allow: unlimited)."""
    dests = data.draw(st.permutations(range(net.size)))
    perm = full_permutation(net, dests)
    for mode, alive in kernel_masks(net, np.array([dests]), modes).items():
        members = make_permutation([perm.pairs[s] for s in np.flatnonzero(alive[0])], net.size)
        config = ScheduleConfig(budget=mode)
        report = validate_schedule(net, members, Schedule([list(range(len(members)))], config, []))
        assert not report.violations, (mode, report.violations)


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_out_of_range_seed_rejected(omega8, seed):
    with pytest.raises(OutOfRangeError):
        monte_carlo(omega8, 1.0, [None], trials=3, seed=seed)


@pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
def test_extreme_seeds_match_reference(omega8, seed):
    rows = reference_counts(omega8, (0.6, None), [1, 0], 30, seed)
    assert_report_matches(monte_carlo(omega8, 0.6, [None, 1, 0], 30, seed), rows, [None, 1, 0])


def test_map_outside_network_rejected(omega4):
    perm = make_permutation([Message(0, 5)], 8)
    with pytest.raises(OutOfRangeError, match=r"^endpoints of 0->5 outside \[0, 4\)$"):
        passability(omega4, perm, None)
    # the mode is checked before the map
    with pytest.raises(OutOfRangeError, match=r"^crosstalk budget must be >= 0, got -1$"):
        passability(omega4, perm, -1)


def test_larger_map_inside_network_accepted(omega4):
    """A map built for N=8 whose endpoints all lie below 4 fits N=4."""
    messages = [Message(s, d) for s, d in enumerate([0, 2, 3, 1])]
    perm = make_permutation(messages, 8)
    survivors = resolve_single_pass(omega4, messages, [0])
    assert passability(omega4, perm, None) == len(survivors[None]) / 4 == 1.0
    assert passability(omega4, perm, 0) == len(survivors[0]) / 4 == 0.5


def test_negative_budget_rejected(omega4):
    with pytest.raises(OutOfRangeError):
        monte_carlo(omega4, 1.0, [None, -1], trials=2, seed=1)
