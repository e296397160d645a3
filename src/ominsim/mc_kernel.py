"""Vectorised kernel: sampling and lowest-source-wins resolution for a whole
chunk of trials at once, equal trial by trial to resolve_single_pass.

monte_carlo and the random-permutation study cut their trials into the
chunks of trial_chunks, CHUNK_CELLS // N trials each, and passability
scatters its one map into one row.  A chunk is sampled in one pass
(sample_requests draws uniform requests at a load; the study stacks
random permutations), and one loop, the analysis module's _single_pass,
resolves it stage by stage across all of its trials (resolve_batch):

* The allow sweep works in line space.  A line carries at most one live
  message, keyed source << n | destination, and an empty line the key
  N << n, the empty bit 2n alone, above every message's.  Keys take the
  narrowest signed type that holds the empty key: int32 while
  2n + 1 <= 31 (N <= 32768), int64 above.  They are held one row per line,
  the trials of the chunk side by side.  At stage k a shift moves each
  key's routing bit, destination bit n - 1 - k, up to the empty bit (an
  empty key has none there): the maximum of the key and that bit is its
  bid for out-port 0, and with the bit flipped its bid for out-port 1, the
  empty key for the port it is not bound for.  Each stage gathers the rows
  in in-port halves, in-port 0 of every switch and then in-port 1, so every
  out-line takes the smaller bid of its switch with one np.minimum per
  out-port over two contiguous halves, and of two keys bound for it the
  lower source wins.
* Budgets run as one chain, n - 1, n - 2, ... down to the lowest one
  asked for, each pruning the survivors of the one above, so survivor sets
  nest and one level per message, the lowest budget at which it survives,
  carries every mode's mask: mode k's is level <= min(k, n), allow's n.
  A level is n + 1 less the passes the message survives, the allow pass
  and each budget sweep of the chain.
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

import numpy as np

from .streams import _GOLDEN, MASK64, stream_draws, trial_states
from .topology import NetworkSpec, wiring

CHUNK_CELLS = 1 << 16
"""Trials times input lines per chunk, which bounds the kernel's memory."""


def trial_chunks(net: NetworkSpec, trials: int) -> list[tuple[int, int]]:
    """(first, stop) of each run of CHUNK_CELLS // N trials, the last cut short."""
    chunk = max(1, CHUNK_CELLS // net.size)
    return [(first, min(first + chunk, trials)) for first in range(0, trials, chunk)]


def sample_requests(net: NetworkSpec, load: float, seed: int, first: int, count: int) -> np.ndarray:
    """Uniform requests of trials first .. first + count - 1, drawn as documented.

    Draws 1 .. N are the input lines' Bernoulli(load) draws, and draw
    N + 1 + r is the destination of the r-th active line: N is a power of
    two, so below(N) never rejects and keeps the draw's low n bits.  At
    load 1 every line is active, so draws 1 .. N are not computed: the
    states are advanced N steps and draws N + 1 .. 2N taken in order.
    Returns a (count, N) array of each source's destination, -1 when idle.
    """
    size = net.size
    states = trial_states(seed, first, count)
    threshold = int(load * (1 << 64))
    if threshold > MASK64:
        states += np.uint64(size * _GOLDEN & MASK64)
        return (stream_draws(states, size) & np.uint64(size - 1)).astype(np.int64)
    draws = stream_draws(states, 2 * size)
    active = draws[:, :size] < np.uint64(threshold)
    rank = np.maximum(np.cumsum(active, axis=1) - 1, 0)
    picks = np.take_along_axis(draws[:, size:], rank, axis=1) & np.uint64(size - 1)
    return np.where(active, picks.astype(np.int64), -1)


def _allow_sweep(net: NetworkSpec, dests: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Allow survivors and the sources entering every switch.

    Returns a flat boolean array of survivors by slot, trial * (N + 1) +
    source (slot N of a trial stands for an empty line and is never set),
    and an (n, N, trials) array of the source on every line entering each
    stage, N where it is empty, in in-port halves: in-port 0 of every
    switch, then in-port 1.
    """
    n, size = net.stages, net.size
    half, empty = size >> 1, size << n
    # the narrowest signed type that holds the empty key
    key = np.int32 if empty <= np.iinfo(np.int32).max else np.int64
    lines = np.arange(size)
    # one row of keys per line, its trials side by side
    keys = np.where(dests.T >= 0, (lines[:, None] << n) | dests.T, empty).astype(key)
    # filled even when allow runs alone: skipping it was faster or slower by glibc's mmap threshold (ROADMAP aim 2)
    entering = np.empty((n,) + keys.shape, dtype=np.intp)
    feeder = np.empty(size, dtype=np.intp)
    # where each line's keys are held: in line order on entry, then in port
    # halves, port 0 of every switch followed by port 1
    place, by_port = lines, ((lines & 1) << (n - 1)) | (lines >> 1)
    for k, row in enumerate(wiring(net)):
        # row sends line i to row[i], which in-port halves hold at
        # by_port[row[i]]: scattering where each line's keys are held through
        # that names the row every entering line takes, and the rows are
        # gathered through it (np.take of whole rows: at N=32768 x 2 trials,
        # 10x faster than a gather along the trial rows' second axis).  A
        # cached table of these gathers gained 1 % at N=256 (ROADMAP aim 2).
        feeder[by_port[row]] = place
        keys = np.take(keys, feeder, axis=0)
        np.right_shift(keys, n, out=entering[k])
        # the routing bit, moved up to the empty bit; an empty key has none
        bit = np.left_shift(keys, n + 1 + k)
        bit &= empty
        port0 = np.maximum(keys, bit)
        bit ^= empty
        port1 = np.maximum(keys, bit, out=keys)
        keys = bit
        np.minimum(port0[:half], port0[half:], out=keys[:half])
        np.minimum(port1[:half], port1[half:], out=keys[half:])
        place = by_port
    trials, slots = keys.shape[1], size + 1
    alive = np.zeros(trials * slots, dtype=bool)
    alive[(keys >> n) + np.arange(trials) * slots] = True
    alive[size::slots] = False
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
    # per stage, in-port 0 of every switch in every trial, then in-port 1
    inputs = entering.reshape(n, 2, -1)
    block = inputs.shape[2]
    both = alive[inputs]
    contested = np.flatnonzero(both[:, 0] & both[:, 1])
    # contested switch k * block + j entered stage k at in-port 0 from
    # entering's flat index 2k * block + j, and at in-port 1 a block later
    port0 = contested + contested // block * block
    pair = entering.reshape(-1)[np.stack((port0, port0 + block))]
    bounds = np.searchsorted(contested, np.arange(n + 1) * block).tolist()
    # slots fit 32 bits (2^31 of them would take 16n GB of `entering`),
    # which halves the table and the time to fill it; an intp table, though
    # cheaper per gathered index, slowed N=256 x 20 by 16 % (ROADMAP aim 2)
    partner = np.full((n, alive.size), size, dtype=np.int32)
    # a message's hot count is at most n
    seen = np.zeros(alive.size, dtype=np.int8)
    stages = []
    # one pass per stage: ranking every contest with one cumsum, sorting and scattering
    # once was 6 % slower at N=256 x 20 (ROADMAP aim 2)
    for k in range(n):
        pair_k = pair[:, bounds[k]:bounds[k + 1]]
        count = seen[pair_k]
        hot = np.maximum(count[0], count[1])
        count += 1
        seen[pair_k] = count
        # the sort lets each budget visit a prefix, which pays at every size measured (ROADMAP aim 2);
        # np.take gathers whole rows, where indexing the second axis copies one column at a time
        pair_k = np.take(pair_k, np.argsort(-hot, kind="stable"), axis=1)
        at_least = np.bincount(hot, minlength=k + 1)[::-1].cumsum()[::-1]
        stages.append((pair_k, np.take(partner[:k], pair_k, axis=1), at_least.tolist()))
        partner[k, pair_k] = pair_k[::-1]
    return stages


def _budget_sweep(stages: list, alive: np.ndarray, budget: int) -> None:
    """Enforce a shared-stage budget on `alive`, a subset of the allow
    survivors, in place, as the module docstring describes: at a contested
    switch the share stands while both counts stay within budget; otherwise
    the message with the larger count drops, the higher source on a tie."""
    for pair, partners, at_least in stages[budget:]:
        hot = at_least[budget]
        if not hot:
            continue
        pair, partners = pair[:, :hot], partners[:, :, :hot]
        both = alive[pair]
        live = both[0] & both[1]
        if budget:
            # (count, slot) as one key: the larger key is the member that
            # drops, and slots of one trial are ordered by source
            key = np.add.reduce(alive[partners], axis=0)
            key *= alive.size
            key += pair
            worst = np.maximum(key[0], key[1])
            drop = worst[live & (worst >= budget * alive.size)] % alive.size
        else:
            # no share stands at budget 0: the higher source drops
            drop = np.maximum(pair[0], pair[1])[live]
        alive[drop] = False


def resolve_batch(net: NetworkSpec, dests: np.ndarray, lowest: int) -> np.ndarray:
    """resolve_single_pass for many trials at once.

    dests is a (trials, N) array of each source's destination, -1 where the
    source is idle.  Budgets n - 1, n - 2, ... down to `lowest` run in turn,
    each pruning the survivors of the one above; lowest >= n runs the allow
    pass alone, as a budget >= n never binds.  lowest must be >= 0.
    Returns a (trials, N) int8 array of each source's level: the lowest
    budget >= lowest at which it survives, n when only the allow pass keeps
    it, n + 1 for an allow loser or an idle source.  A level is n + 1 less
    the passes the source survives: the allow pass, then each budget sweep.
    """
    trials, size = dests.shape
    n = net.stages
    alive, entering = _allow_sweep(net, dests)
    level = np.full(alive.size, n + 1, dtype=np.int8)
    level -= alive
    if lowest < n:
        entering += np.arange(trials) * (size + 1)
        stages = _contested(net, alive, entering)
        for budget in range(n - 1, lowest - 1, -1):
            _budget_sweep(stages, alive, budget)
            level -= alive
    return level.reshape(trials, size + 1)[:, :size]
