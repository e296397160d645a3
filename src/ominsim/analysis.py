"""Bandwidth analysis: the analytic stage recurrence, seeded Monte Carlo
simulation with coupled crosstalk modes, and the random-permutation study.

A "mode" names how much switch sharing a single pass tolerates:

* ``None``  (allow)     only line collisions drop messages;
* ``k``     (budget=k)  a surviving message may share its switch at up to k
  stages within the pass;
* ``0``     (free)      no sharing at all, i.e. a crosstalk-free pass.

Modes are resolved per trial as a chain of drop phases, each starting from
the previous (more permissive) survivor set, so survivor sets are nested by
construction and with/without-crosstalk comparisons are variance-free.
Every contest keeps the lowest source.  resolve_single_pass is the Python
reference; monte_carlo and the random-permutation study resolve through
the vectorised mc_kernel.resolve_batch, which matches it trial by trial,
and passability is one load-1 trial of monte_carlo over its map.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DuplicateSourceError, NotPowerOfTwoError, OutOfRangeError, ZeroTrialsError
from .mc_kernel import chunk_trials, permutation_dests, resolve_batch, sample_requests
from .routing import Message, PermutationMap, path_table
from .scheduler import Algorithm, ScheduleConfig, schedule_exact, schedule_greedy
from .streams import Stream, check_seed, substream
from .topology import NetworkSpec


POLICY = "lowest-source"
"""The drop rule every resolution applies, recorded in each SimReport."""

Mode = int | None  # None = allow (link conflicts only), k >= 0 = crosstalk budget


def check_mode(mode: Mode) -> Mode:
    """A mode is allow (None) or a budget >= 0.  Returns the mode, so that a
    list is checked as it is passed on: resolve_batch takes modes unchecked,
    and at -1 it would drop every contested message."""
    if mode is not None and mode < 0:
        raise OutOfRangeError(f"crosstalk budget must be >= 0, got {mode}")
    return mode


def mode_label(mode: Mode) -> str:
    if mode is None:
        return "allow"
    if mode == 0:
        return "free"
    return f"budget={mode}"


@dataclass(frozen=True)
class TrafficModel:
    """Offered traffic: per-cycle request probability and destination choice.

    With ``permutation`` unset each active input draws an independent uniform
    destination; otherwise requests follow the fixed map, restricted to the
    sources that woke up this cycle.
    """

    load: float = 1.0
    permutation: PermutationMap | None = None

    def __post_init__(self):
        if not 0.0 <= self.load <= 1.0:
            raise OutOfRangeError(f"load must lie in [0, 1], got {self.load}")


@dataclass(frozen=True)
class BandwidthCurve:
    size: int
    load: float
    stage_probabilities: tuple[float, ...]

    @property
    def bandwidth(self) -> float:
        return self.stage_probabilities[-1] * self.size


@dataclass(frozen=True)
class ModeStats:
    mode: Mode
    mean_matured: float
    stderr: float
    passability: float


@dataclass(frozen=True)
class SimReport:
    size: int
    topology: str
    load: float
    trials: int
    seed: int
    policy: str
    modes: tuple[ModeStats, ...]
    pass_histogram: dict[int, int] | None = None  # pass count -> permutations, from random_permutation_study


def analytic_bandwidth(stages: int, load: float) -> BandwidthCurve:
    """Iterate the 2x2-element output activity recurrence.

    With both inputs of a switch active independently with probability p,
    each output is requested by neither with probability (1 - p/2)^2, so

        p_next = 1 - (1 - p/2)^2

    applied once per stage from p_0 = load.  Bandwidth is the final activity
    times the network size.
    """
    if stages < 1:
        raise OutOfRangeError(f"stage count must be >= 1, got {stages}")
    if not 0.0 <= load <= 1.0:
        raise OutOfRangeError(f"load must lie in [0, 1], got {load}")
    probs = []
    p = load
    for _ in range(stages):
        p = 1.0 - (1.0 - p / 2.0) ** 2
        probs.append(p)
    return BandwidthCurve(size=1 << stages, load=load, stage_probabilities=tuple(probs))


def _allow_sweep(requests: Sequence[Message], outlines: list[list[int]], stages: int) -> set[int]:
    """Drop all but one of every group contesting an output line, stage by stage."""
    alive = set(range(len(requests)))
    for stage in range(stages):
        groups: dict[int, list[int]] = {}
        for m in sorted(alive):
            groups.setdefault(outlines[m][stage], []).append(m)
        for line in sorted(groups):
            group = sorted(groups[line], key=lambda m: requests[m].source)
            alive.difference_update(group[1:])
    return alive


def _budget_sweep(
    requests: Sequence[Message],
    outlines: list[list[int]],
    stages: int,
    start: set[int],
    budget: int,
) -> set[int]:
    """Stage-by-stage enforcement of a shared-stage budget, grouping the
    survivors by switch (out-line >> 1).

    At each contested switch the share is tolerated while every occupant
    stays within budget; otherwise the occupant with the largest excess is
    dropped (the highest source on a tie) and its earlier shares dissolve.
    """
    alive = set(start)
    shared: dict[int, set[int]] = {m: set() for m in alive}
    partners: dict[int, dict[int, list[int]]] = {m: {} for m in alive}

    def drop(victim: int) -> None:
        alive.discard(victim)
        for stage_j, plist in partners[victim].items():
            for x in plist:
                if x in alive:
                    partners[x][stage_j].remove(victim)
                    if not partners[x][stage_j]:
                        del partners[x][stage_j]
                        shared[x].discard(stage_j)

    for stage in range(stages):
        groups: dict[int, list[int]] = {}
        for m in sorted(alive):
            groups.setdefault(outlines[m][stage] >> 1, []).append(m)
        for switch in sorted(groups):
            group = sorted(groups[switch], key=lambda m: requests[m].source)
            while True:
                group = [m for m in group if m in alive]
                if len(group) < 2:
                    break
                counts = {m: len(shared[m]) + 1 for m in group}
                worst = max(counts.values())
                if worst <= budget:
                    for m in group:
                        shared[m].add(stage)
                        partners[m][stage] = [x for x in group if x != m]
                    break
                candidates = [m for m in group if counts[m] == worst]
                drop(candidates[-1])
    return alive


def resolve_single_pass(
    net: NetworkSpec,
    requests: Sequence[Message],
    budgets: Sequence[int] = (),
) -> dict[Mode, set[int]]:
    """Resolve one simultaneous batch and report nested survivor sets.

    The allow phase keeps one message per contested line (dropped requests
    cannot reroute, so they vanish).  Each requested budget then prunes the
    previous phase's survivors, largest budget first, which guarantees
    survivors(k) is a subset of survivors(k') whenever k < k'.  Keys of the
    result: None for the allow phase plus every entry of ``budgets``.
    """
    seen = set()
    for msg in requests:
        if msg.source in seen:
            raise DuplicateSourceError(f"source {msg.source} requested twice")
        seen.add(msg.source)
    for budget in budgets:
        check_mode(budget)
    outlines = path_table(net, [m.source for m in requests], [m.destination for m in requests]).tolist()
    alive = _allow_sweep(requests, outlines, net.stages)
    result: dict[Mode, set[int]] = {None: set(alive)}
    for budget in sorted(set(budgets), reverse=True):
        alive = _budget_sweep(requests, outlines, net.stages, alive, budget)
        result[budget] = set(alive)
    return result


def _mode_stats(mode: Mode, matured: np.ndarray, offered: int) -> ModeStats:
    """Mean, standard error and passability of per-trial survivor counts."""
    arr = matured.astype(float)
    stderr = float(np.std(arr, ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return ModeStats(
        mode=mode,
        mean_matured=float(arr.mean()),
        stderr=stderr,
        passability=(arr.sum() / offered) if offered else 0.0,
    )


def monte_carlo(
    net: NetworkSpec,
    traffic: TrafficModel,
    modes: Sequence[Mode],
    trials: int,
    seed: int,
) -> SimReport:
    """Seeded simulation of single-pass delivery under the given modes.

    Trial t draws everything from substream(seed, t), so results do not
    depend on execution order and rerunning with the same arguments is
    byte-identical.  Trials are sampled and resolved in chunks by the
    vectorised kernel (mc_kernel), which matches resolve_single_pass trial
    by trial.
    """
    if trials < 1:
        raise ZeroTrialsError(f"need at least one trial, got {trials}")
    check_seed(seed)
    wanted = list(dict.fromkeys(map(check_mode, modes)))
    perm = traffic.permutation
    perm_dests = None if perm is None else permutation_dests(net, perm)
    matured: dict[Mode, list] = {m: [] for m in wanted}
    offered = 0
    chunk = chunk_trials(net)
    for first in range(0, trials, chunk):
        count = min(chunk, trials - first)
        dests = sample_requests(net, traffic.load, perm_dests, seed, first, count)
        offered += int(np.count_nonzero(dests >= 0))
        survivors = resolve_batch(net, dests, wanted)
        for m in wanted:
            matured[m].append(survivors[m].sum(axis=1))
    stats = [_mode_stats(m, np.concatenate(matured[m]), offered) for m in wanted]
    return SimReport(
        size=net.size,
        topology=net.topology.value,
        load=traffic.load,
        trials=trials,
        seed=seed,
        policy=POLICY,
        modes=tuple(stats),
    )


def passability(net: NetworkSpec, perm: PermutationMap, mode: Mode = None) -> float:
    """Fraction of the map's requests that mature in a single pass: one
    trial of monte_carlo at load 1, where every source of the map requests."""
    report = monte_carlo(net, TrafficModel(permutation=perm), [mode], trials=1, seed=0)
    return float(report.modes[0].passability)


def generate_random_permutation(size: int, stream: Stream) -> PermutationMap:
    """Uniform random full permutation via a stream-driven Fisher-Yates shuffle.

    A shuffle of range(size) cannot repeat a source or a destination, so the
    map is built without full_permutation's checks."""
    if size < 4 or size & (size - 1):
        raise NotPowerOfTwoError(f"permutation size must be a power of two >= 4, got {size}")
    dest = list(range(size))
    for i in range(size - 1, 0, -1):
        j = stream.below(i + 1)
        dest[i], dest[j] = dest[j], dest[i]
    return PermutationMap(np.arange(size), dest, size)


def random_permutation_study(net: NetworkSpec, trials: int, seed: int, config: ScheduleConfig) -> SimReport:
    """Single-pass maturation and pass counts over random full permutations.

    Permutation t is drawn from substream(seed, t).  Each one is resolved
    in the modes allow, budget=k (for a finite config.budget k > 0) and
    free, chunk by chunk through the vectorised kernel, and scheduled under
    config; the report's pass_histogram counts permutations by pass count.
    """
    if trials < 1:
        raise ZeroTrialsError(f"need at least one permutation, got {trials}")
    modes = list(dict.fromkeys([None, config.budget, 0]))
    solve = schedule_exact if config.algorithm is Algorithm.EXACT else schedule_greedy
    matured: dict[Mode, list] = {m: [] for m in modes}
    histogram: dict[int, int] = {}
    chunk = chunk_trials(net)
    for first in range(0, trials, chunk):
        stop = min(first + chunk, trials)
        perms = [generate_random_permutation(net.size, substream(seed, t)) for t in range(first, stop)]
        survivors = resolve_batch(net, np.stack([perm.dests for perm in perms]), modes)
        for m in modes:
            matured[m].append(survivors[m].sum(axis=1))
        for perm in perms:
            passes = len(solve(net, perm, config).passes)
            histogram[passes] = histogram.get(passes, 0) + 1
    return SimReport(
        size=net.size,
        topology=net.topology.value,
        load=1.0,
        trials=trials,
        seed=seed,
        policy=POLICY,
        modes=tuple(_mode_stats(m, np.concatenate(matured[m]), trials * net.size) for m in modes),
        pass_histogram=dict(sorted(histogram.items())),
    )
