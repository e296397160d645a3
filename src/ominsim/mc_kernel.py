"""Vectorised kernel: sampling and lowest-source-wins resolution for a whole
chunk of trials at once, equal trial by trial to resolve_single_pass.

monte_carlo and the random-permutation study cut their trials into the
chunks of trial_chunks, CHUNK_CELLS // N trials each, and passability hands
its one map over as a single trial.  A chunk is sampled in one pass
(sample_requests draws uniform requests at a load; the study stacks
random permutations), and one loop, the analysis module's _single_pass,
resolves it stage by stage across all of its trials (resolve_batch):

* The allow sweep works in line space.  A line carries at most one live
  message, keyed source << n | destination, so each switch is one pair
  comparison, and of two keys bound for the same out-line the smaller one,
  the lower source, wins.
* Budgets run as one chain, n - 1, n - 2, ... down to the lowest one
  requested, each pruning the survivors of the one above, so a mode's mask
  does not depend on which other modes were asked for.
* Allow survivors never share a line, so during a budget sweep a switch
  holds at most two of them.  resolve_batch finds the switches where two
  allow survivors meet, and each member's partner at every earlier stage,
  once per chunk, and every budget sweep reads that list.  A message's
  count is its number of partners still alive: one dropped by a larger
  budget or at an earlier stage reads as dead, so nothing is decremented.
* Every switch of a stage decides at once, from the counts at the start of
  the stage.  A message meets one switch per stage, so the decisions of a
  stage are independent and the order of the switches never enters.
* At stage k (from 0) a count is at most k, and at most the number of
  earlier stages at which the message was contested in the allow pass, its
  hot count.  So budget b visits only the stages k >= b, and there only the
  switches where a member's hot count reaches b.  At budget 0 no share ever
  stands, so that sweep reads no counts.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import OutOfRangeError
from .routing import PermutationMap, first_outside
from .streams import MASK64, stream_draws, trial_states
from .topology import NetworkSpec, wiring

CHUNK_CELLS = 1 << 16
"""Trials times input lines per chunk, which bounds the kernel's memory."""


def trial_chunks(net: NetworkSpec, trials: int) -> list[tuple[int, int]]:
    """(first, stop) of each run of CHUNK_CELLS // N trials, the last cut short."""
    chunk = max(1, CHUNK_CELLS // net.size)
    return [(first, min(first + chunk, trials)) for first in range(0, trials, chunk)]


def permutation_dests(net: NetworkSpec, perm: PermutationMap) -> np.ndarray:
    """Destination of every source under a fixed map; -1 where it has none.
    The map's endpoints lie in [0, perm.size); one built for a larger
    network must also fit this one."""
    if perm.size > net.size:
        i = first_outside(net.size, perm.sources, perm.dests)
        if i < len(perm):
            raise OutOfRangeError(f"endpoints of {perm.sources[i]}->{perm.dests[i]} outside [0, {net.size})")
    dests = np.full(net.size, -1, dtype=np.int64)
    dests[perm.sources] = perm.dests
    return dests


def sample_requests(net: NetworkSpec, load: float, seed: int, first: int, count: int) -> np.ndarray:
    """Uniform requests of trials first .. first + count - 1, drawn as documented.

    Draws 1 .. N are the input lines' Bernoulli(load) draws, and draw
    N + 1 + r is the destination of the r-th active line: N is a power of
    two, so below(N) never rejects and keeps the draw's low n bits.  Returns
    a (count, N) array of each source's destination, -1 when idle.
    """
    size = net.size
    draws = stream_draws(trial_states(seed, first, count), 2 * size)
    threshold = int(load * (1 << 64))
    if threshold > MASK64:
        active = np.ones((count, size), dtype=bool)
    else:
        active = draws[:, :size] < np.uint64(threshold)
    rank = np.maximum(np.cumsum(active, axis=1) - 1, 0)
    picks = np.take_along_axis(draws[:, size:], rank, axis=1) & np.uint64(size - 1)
    return np.where(active, picks.astype(np.int64), -1)


def _allow_sweep(net: NetworkSpec, dests: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Allow survivors and the sources entering every switch.

    Returns a (trials, N + 1) boolean array of survivors by source (column N
    stands for an empty line and is never set) and an (n, trials, N) array
    of the source on every line entering each stage, N where it is empty.
    """
    n, size = net.stages, net.size
    empty = size << n
    lines = np.arange(size)
    keys = np.where(dests >= 0, (lines << n) | dests, empty)
    entering = np.empty((n,) + keys.shape, dtype=np.intp)
    feeder = np.empty(size, dtype=np.intp)
    for k, row in enumerate(wiring(net)):
        # row sends line i to row[i]: scattering the line numbers through it
        # names the feeder of every entering line, and the keys are gathered
        # through that (on a full chunk, 3x faster than scattering the keys)
        feeder[row] = lines
        keys = keys[:, feeder]
        entering[k] = keys >> n
        upper, lower = keys[:, 0::2], keys[:, 1::2]
        upper_bit, lower_bit = (upper >> (n - 1 - k)) & 1, (lower >> (n - 1 - k)) & 1
        out = np.empty_like(keys)
        out[:, 0::2] = np.minimum(np.where(upper_bit, empty, upper), np.where(lower_bit, empty, lower))
        out[:, 1::2] = np.minimum(np.where(upper_bit, upper, empty), np.where(lower_bit, lower, empty))
        keys = out
    alive = np.zeros((keys.shape[0], size + 1), dtype=bool)
    np.put_along_axis(alive, keys >> n, True, axis=1)
    alive[:, size] = False
    return alive, entering


def _contested(
    net: NetworkSpec, alive: np.ndarray, entering: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray, list[int]]]:
    """Per stage k, the switches where two allow survivors meet: a (2,
    switches) array of their slots; the (k, 2, switches) array of the
    members' partners at the stages before k (slot N where they had none);
    and for each b = 0 .. k the number of these switches whose larger hot
    count reaches b.  The switches run in falling order of that count, so
    the ones budget b visits come first.  Messages are flat slots
    trial * (N + 1) + source; slot N is never alive.
    """
    n, size = net.stages, net.size
    # Row r of `inputs` holds the two lines entering switch r % (N/2) of
    # stage r // (trials * N/2).
    inputs = entering.reshape(-1, 2)
    both = alive[inputs]
    contested = np.flatnonzero(both[:, 0] & both[:, 1])
    pair = inputs[contested].T
    bounds = np.searchsorted(contested, np.arange(n + 1) * (entering[0].size // 2)).tolist()
    partner = np.full((n, alive.size), size, dtype=np.intp)
    seen = np.zeros(alive.size, dtype=np.intp)
    stages = []
    for k in range(n):
        pair_k = pair[:, bounds[k]:bounds[k + 1]]
        hot = seen[pair_k].max(axis=0)
        seen[pair_k] += 1
        pair_k = pair_k[:, np.argsort(-hot)]
        at_least = np.bincount(hot, minlength=k + 1)[::-1].cumsum()[::-1]
        stages.append((pair_k, partner[:k, pair_k], at_least.tolist()))
        partner[k, pair_k] = pair_k[::-1]
    return stages


def _budget_sweep(stages: list, start: np.ndarray, budget: int) -> np.ndarray:
    """Enforce a shared-stage budget on `start`, a subset of the allow
    survivors, as the module docstring describes: at a contested switch the
    share stands while both counts stay within budget; otherwise the message
    with the larger count drops, the higher source on a tie."""
    alive = start.copy()
    for pair, partners, at_least in stages[budget:]:
        hot = at_least[budget]
        if not hot:
            continue
        pair, partners = pair[:, :hot], partners[:, :, :hot]
        live = alive[pair[0]] & alive[pair[1]]
        # no share stands at budget 0, so there every count is 0
        count = alive[partners].sum(axis=0) if budget else 0
        # (count, slot) as one key: the larger key is the member that drops,
        # and slots of one trial are ordered by source
        worst = np.maximum(*(count * alive.size + pair))
        alive[worst[live & (worst >= budget * alive.size)] % alive.size] = False
    return alive


def resolve_batch(
    net: NetworkSpec, dests: np.ndarray, modes: Sequence[int | None] = ()
) -> dict[int | None, np.ndarray]:
    """resolve_single_pass for many trials at once.

    dests is a (trials, N) array of each source's destination, -1 where the
    source is idle.  modes are taken as the caller holds them: None (allow)
    and repeats may appear, and every budget must be >= 0.  Returns
    (trials, N) boolean survivor masks by source, keyed by None plus every
    requested mode.  Budgets n - 1, n - 2, ... down to the lowest one
    requested run in turn, each pruning the survivors of the one above; a
    budget >= n keeps the allow survivors.
    """
    trials, size = dests.shape
    alive, entering = _allow_sweep(net, dests)
    entering += (np.arange(trials) * (size + 1))[:, None]
    masks = {None: alive}
    lowest = min((m for m in modes if m is not None), default=net.stages)
    if lowest < net.stages:
        flat = alive.reshape(-1)
        stages = _contested(net, flat, entering)
        for budget in range(net.stages - 1, lowest - 1, -1):
            flat = _budget_sweep(stages, flat, budget)
            masks[budget] = flat.reshape(trials, size + 1)
    return {m: masks.get(m, alive)[:, :size] for m in (None, *modes)}
