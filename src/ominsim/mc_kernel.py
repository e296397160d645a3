"""Vectorised kernel: sampling and lowest-source-wins resolution for a whole
chunk of trials at once, equal trial by trial to resolve_single_pass.

monte_carlo and the random-permutation study cut their trials into the
chunks of trial_chunks, CHUNK_CELLS // N trials each, and passability hands
its one map over as a single trial.  A chunk is sampled in one pass
(sample_requests, or stacked permutations), and one loop, the analysis
module's _single_pass, resolves it stage by stage across all of its
trials (resolve_batch):

* The allow sweep works in line space.  A line carries at most one live
  message, keyed source << n | destination, so each switch is one pair
  comparison, and of two keys bound for the same out-line the smaller one,
  the lower source, wins.
* Allow survivors never share a line, so during a budget sweep a switch
  holds at most two of them.  resolve_batch finds the switches where two
  allow survivors meet once per chunk, for all stages in one gather, and
  every budget sweep reads that list, keeping the pairs whose two messages
  it still has alive.
* The reference visits the switches in order, stage by stage, so each
  switch has a position k * N/2 + switch.  The budget sweep records, for
  every message, its partner at each stage and the position at which it
  dropped (past the last position while it lives).  A message's shared
  count at a position is the number of its partners whose drop position
  lies beyond it, so a drop needs nothing decremented or undone.
* A message meets one switch per stage, so at stage k (from 0) its shared
  count is at most k and no stage below the budget can drop: there every
  share stands.  At budget 0 every contested pair drops its higher source,
  so that sweep keeps no counts; at budget >= 1 only the stages k >= budget
  need the fixed point below.
* A drop at a lower switch can lower a count at a higher switch of the
  same stage.  Each stage therefore writes its victims' positions, reads
  the counts again, and resets and rewrites the victims until they stop
  changing.  A decision depends only on drops at lower switches, so the
  fixed point is unique and equals the sequential result.
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


def sample_requests(
    net: NetworkSpec,
    load: float,
    perm_dests: np.ndarray | None,
    seed: int,
    first: int,
    count: int,
) -> np.ndarray:
    """Requests of trials first .. first + count - 1, drawn as documented.

    Draws 1 .. N are the input lines' Bernoulli(load) draws.  With uniform
    traffic (perm_dests None) draw N + 1 + r is the destination of the r-th
    active line: N is a power of two, so below(N) never rejects and keeps
    the draw's low n bits.  Returns a (count, N) array of each source's
    destination, -1 when idle.
    """
    size = net.size
    draws = stream_draws(trial_states(seed, first, count), size if perm_dests is not None else 2 * size)
    threshold = int(load * (1 << 64))
    if threshold > MASK64:
        active = np.ones((count, size), dtype=bool)
    else:
        active = draws[:, :size] < np.uint64(threshold)
    if perm_dests is not None:
        return np.where(active, perm_dests, -1)
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


def _budget_sweep(
    net: NetworkSpec, pairs: list[tuple[np.ndarray, np.ndarray, np.ndarray]], start: np.ndarray, budget: int
) -> np.ndarray:
    """Enforce a shared-stage budget on `start`, a subset of the allow survivors.

    Messages are flat slots trial * (N + 1) + source.  pairs[k] holds the
    contested switches of stage k, found once by resolve_batch, as (upper
    slot, lower slot, switch within the trial); the sweep keeps those whose
    two messages it still has alive.  At a contested switch the share stands
    while both counts stay within budget; otherwise the message with the
    larger count drops, the higher source on a tie.  A message meets one
    switch per stage, so at stage k its count is at most k: no stage below
    the budget can drop, and only stages k >= budget run the fixed point.
    """
    if budget == 0:
        alive = start.copy()
        for a, b, _ in pairs:
            live = alive[a] & alive[b]
            alive[np.maximum(a[live], b[live])] = False
        return alive
    n, half = net.stages, net.size // 2
    # The position k * N/2 + switch at which each slot dropped: `never` while
    # it lives, -1 outside start, which covers slot N, the "no partner".
    never = n * half
    dropped = np.where(start, never, -1)
    partner = np.full((n, start.size), net.size, dtype=np.intp)
    for k, (a, b, switch) in enumerate(pairs):
        live = (dropped[a] == never) & (dropped[b] == never)
        a, b, switch = a[live], b[live], switch[live]
        if k >= budget:
            at = k * half + switch
            partners_a, partners_b = partner[:k, a], partner[:k, b]
            victims = np.full(a.size, -1, dtype=np.intp)
            # A drop at a lower switch of this stage lowers counts at higher
            # ones: recompute the victims until they stop changing.
            while True:
                ca = (dropped[partners_a] > at).sum(axis=0)
                cb = (dropped[partners_b] > at).sum(axis=0)
                over = np.maximum(ca, cb) >= budget
                drop_a = (ca > cb) | ((ca == cb) & (a > b))
                update = np.where(over, np.where(drop_a, a, b), -1)
                if np.array_equal(update, victims):
                    break
                dropped[victims[victims >= 0]] = never
                victims = update
                dropped[victims[over]] = at[over]
            a, b = a[~over], b[~over]
        partner[k, a], partner[k, b] = b, a
    return dropped == never


def resolve_batch(
    net: NetworkSpec, dests: np.ndarray, modes: Sequence[int | None] = ()
) -> dict[int | None, np.ndarray]:
    """resolve_single_pass for many trials at once.

    dests is a (trials, N) array of each source's destination, -1 where the
    source is idle.  modes are taken as the caller holds them: None (allow)
    and repeats may appear, and every budget must be >= 0.  Returns
    (trials, N) boolean survivor masks by source, keyed by None plus every
    requested mode; the distinct budgets run largest first, each pruning the
    survivors of the next larger one.
    """
    trials, size = dests.shape
    alive, entering = _allow_sweep(net, dests)
    entering += (np.arange(trials) * (size + 1))[:, None]
    result = {None: alive[:, :size]}
    flat = alive.reshape(-1)
    chain = sorted({m for m in modes if m is not None}, reverse=True)
    if chain:
        # Every budget sweep works on a subset of the allow survivors, so all
        # of them read the switches where two allow survivors meet.
        # Row r of `inputs` holds the two lines entering switch r % (N/2) of
        # stage r // (trials * N/2).
        inputs = entering.reshape(-1, 2)
        both = flat[inputs]
        contested = np.flatnonzero(both[:, 0] & both[:, 1])
        a, b = inputs[contested].T
        bounds = np.searchsorted(contested, np.arange(net.stages + 1) * (trials * size // 2))
        switch = contested % (size // 2)
        pairs = [(a[i:j], b[i:j], switch[i:j]) for i, j in zip(bounds[:-1], bounds[1:])]
    for budget in chain:
        flat = _budget_sweep(net, pairs, flat, budget)
        result[budget] = flat.reshape(trials, size + 1)[:, :size]
    return result
