"""Bandwidth analysis: the analytic stage recurrence, seeded Monte Carlo
simulation with coupled crosstalk modes, and the random-permutation study.

A "mode" names how much switch sharing a single pass tolerates:

* ``None``  (allow)     only line collisions drop messages;
* ``k``     (budget=k)  a surviving message may share its switch at up to k
  stages within the pass;
* ``0``     (free)      no sharing at all, i.e. a crosstalk-free pass.

Every trial runs one canonical chain of drop phases: allow, then budgets
n - 1, n - 2, ... down to the lowest one requested, each pruning the
survivors of the one before.  The requested modes only pick the rows
reported, so a mode's survivors do not depend on the others asked for,
survivor sets nest, and with/without-crosstalk comparisons are
variance-free.  In a budget phase every switch of a stage decides at once,
from the counts at the start of the stage.  A line contest keeps the lowest
source; a budget contest drops the larger count, the higher source on a
tie.  resolve_single_pass is the Python reference.  monte_carlo,
passability and the random-permutation study count survivors through one
loop, _single_pass, over the vectorised mc_kernel.resolve_batch, which
matches the reference trial by trial.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DuplicateSourceError, NotPowerOfTwoError, OutOfRangeError, ZeroTrialsError
from .mc_kernel import permutation_dests, resolve_batch, sample_requests, trial_chunks
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
    and at -1 it would index its per-stage lists from the end and drop
    messages that no rule names."""
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


def _switch_pairs(outlines: list[list[int]], stages: int, alive: set[int]) -> list[list[tuple[int, int]]]:
    """Per stage, the pairs of `alive` messages that meet at one switch
    (out-line >> 1).  Allow survivors never share a line, so a switch holds
    at most two of them."""
    pairs = []
    for stage in range(stages):
        groups: dict[int, list[int]] = {}
        for m in sorted(alive):
            groups.setdefault(outlines[m][stage] >> 1, []).append(m)
        pairs.append([tuple(group) for group in groups.values() if len(group) == 2])
    return pairs


def _budget_sweep(
    requests: Sequence[Message],
    pairs: list[list[tuple[int, int]]],
    start: set[int],
    budget: int,
) -> set[int]:
    """Stage-by-stage enforcement of a shared-stage budget on `start`, a
    subset of the allow survivors, whose switch pairs per stage are `pairs`;
    a pair with a member no longer alive is no contest.

    A message's count is the number of stages at which it shares a switch
    with a partner still alive.  Every contested switch of a stage decides
    once, from the counts at the start of the stage: a share within budget
    stands; otherwise the occupant with the larger count drops (the higher
    source on a tie), and its shares stop counting for its partners.
    """
    alive = set(start)
    shares: dict[int, list[int]] = {m: [] for m in alive}
    for stage_pairs in pairs:
        before = set(alive)
        for a, b in stage_pairs:
            if a not in before or b not in before:
                continue
            counts = {m: sum(x in before for x in shares[m]) + 1 for m in (a, b)}
            if max(counts.values()) <= budget:
                shares[a].append(b)
                shares[b].append(a)
            else:
                alive.discard(max(counts, key=lambda m: (counts[m], requests[m].source)))
    return alive


def resolve_single_pass(
    net: NetworkSpec,
    requests: Sequence[Message],
    budgets: Sequence[Mode] = (),
) -> dict[Mode, set[int]]:
    """Resolve one simultaneous batch and report nested survivor sets.

    The allow phase keeps one message per contested line (dropped requests
    cannot reroute, so they vanish).  Budgets n - 1, n - 2, ... down to the
    lowest one requested then prune in turn, as the module docstring says,
    so survivors(k) is a subset of survivors(k') whenever k < k'; a budget
    >= n keeps the allow survivors.  ``budgets`` are taken as resolve_batch
    takes its modes: None (allow) and repeats may appear.  Keys of the
    result: None for the allow phase plus every entry of ``budgets``.
    """
    seen = set()
    for msg in requests:
        if msg.source in seen:
            raise DuplicateSourceError(f"source {msg.source} requested twice")
        seen.add(msg.source)
    lowest = min((check_mode(m) for m in budgets if m is not None), default=net.stages)
    outlines = path_table(net, [m.source for m in requests], [m.destination for m in requests]).tolist()
    alive = _allow_sweep(requests, outlines, net.stages)
    result: dict[Mode, set[int]] = {None: alive}
    pairs = _switch_pairs(outlines, net.stages, alive) if lowest < net.stages else []
    for budget in range(net.stages - 1, lowest - 1, -1):
        alive = _budget_sweep(requests, pairs, alive, budget)
        result[budget] = alive
    return {m: set(result.get(m, result[None])) for m in (None, *budgets)}


def _single_pass(net: NetworkSpec, modes: Sequence[Mode], chunks: Iterable[np.ndarray]) -> tuple[ModeStats, ...]:
    """Resolve every (trials, N) request array of `chunks` (-1 where a source
    is idle) with resolve_batch, and return the mean, standard error and
    passability of the per-trial survivor counts in each distinct mode, in
    first-seen order.  The caller checks the modes."""
    wanted = list(dict.fromkeys(modes))
    matured: dict[Mode, list] = {m: [] for m in wanted}
    offered = 0
    for dests in chunks:
        offered += int(np.count_nonzero(dests >= 0))
        survivors = resolve_batch(net, dests, wanted)
        for m in wanted:
            matured[m].append(survivors[m].sum(axis=1))
    stats = []
    for m in wanted:
        arr = np.concatenate(matured[m]).astype(float)
        stderr = float(np.std(arr, ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
        stats.append(ModeStats(m, float(arr.mean()), stderr, (arr.sum() / offered) if offered else 0.0))
    return tuple(stats)


def monte_carlo(net: NetworkSpec, load: float, modes: Sequence[Mode], trials: int, seed: int) -> SimReport:
    """Seeded simulation of single-pass delivery under the given modes, with
    each input requesting a uniform random destination with probability load.

    Trial t draws everything from substream(seed, t), so results do not
    depend on execution order and rerunning with the same arguments is
    byte-identical.  Trials are sampled and resolved in chunks by the
    vectorised kernel (mc_kernel), which matches resolve_single_pass trial
    by trial.
    """
    if not 0.0 <= load <= 1.0:
        raise OutOfRangeError(f"load must lie in [0, 1], got {load}")
    if trials < 1:
        raise ZeroTrialsError(f"need at least one trial, got {trials}")
    check_seed(seed)
    modes = list(map(check_mode, modes))
    ranges = trial_chunks(net, trials)
    chunks = (sample_requests(net, load, seed, first, stop - first) for first, stop in ranges)
    return SimReport(
        size=net.size, topology=net.topology.value, load=load, trials=trials, seed=seed, policy=POLICY,
        modes=_single_pass(net, modes, chunks),
    )


def passability(net: NetworkSpec, perm: PermutationMap, mode: Mode = None) -> float:
    """Fraction of the map's requests that mature in a single pass, resolved
    as one trial in which every source of the map requests."""
    stats = _single_pass(net, [check_mode(mode)], [permutation_dests(net, perm)[None]])
    return float(stats[0].passability)


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
    solve = schedule_exact if config.algorithm is Algorithm.EXACT else schedule_greedy
    histogram: Counter[int] = Counter()

    def chunks():
        # a chunk is scheduled before it is yielded, so a solver's error comes before any resolving
        for first, stop in trial_chunks(net, trials):
            perms = [generate_random_permutation(net.size, substream(seed, t)) for t in range(first, stop)]
            histogram.update(len(solve(net, perm, config).passes) for perm in perms)
            yield np.stack([perm.dests for perm in perms])

    stats = _single_pass(net, [None, config.budget, 0], chunks())
    return SimReport(
        size=net.size, topology=net.topology.value, load=1.0, trials=trials, seed=seed, policy=POLICY,
        modes=stats, pass_histogram=dict(sorted(histogram.items())),
    )
