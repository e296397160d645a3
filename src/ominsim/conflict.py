"""Pairwise conflict detection: the conflict stages of two traced messages,
and the shared-switch pair finder over a path table.

Two messages conflict at a stage when their paths occupy the same switching
element there.  Sharing only the switch degrades both signals (crosstalk);
also sharing the output port means both need the same inter-stage line,
which no amount of tolerated crosstalk can fix.  An out-line answers both,
as its switch is `line >> 1`, so a path table of out-lines is all the pair
finder reads.  The pairs `shared_pairs` finds are the edges of the
conflict graph: the `conflicts` CSV lists them, Welsh-Powell orders
messages by their degree in it, and the validator recomputes them pass by
pass.
"""
from __future__ import annotations

import numpy as np

from .errors import DuplicateSourceError
from .routing import Message, trace_path
from .topology import NetworkSpec


def conflict_stages(net: NetworkSpec, a: Message, b: Message) -> list[tuple[int, bool]]:
    """Stages where the two traced paths share a switch, each with `link`:
    whether they also share the out-line there, as in `shared_pairs`.

    A link conflict merges the two paths onto one line, so comparison stops
    there: whatever the traces do afterwards is an artifact of a collision
    that already ended one of the messages.
    """
    if a.source == b.source:
        raise DuplicateSourceError(f"both messages start at source {a.source}")
    found: list[tuple[int, bool]] = []
    for ha, hb in zip(trace_path(net, a), trace_path(net, b)):
        if ha.switch != hb.switch:
            continue
        link = ha.out_port == hb.out_port
        found.append((ha.stage, link))
        if link:
            break
    return found


def shared_pairs(lines: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of rows of a path table of out-lines that meets at a
    switch (out-line >> 1), as four arrays a, b, stage, link with one entry
    per pair: rows a < b in lexicographic (a, b) order, the 1-based stage at
    which they meet, and whether they also share the out-line there.  Only
    equality within a column counts, so adding an even number to a whole
    column changes nothing.

    Each output has one path from each input, so two paths that leave a
    switch on different out-lines never meet again, and two that leave it
    on one out-line (a link conflict) enter one switch at the next stage: a
    pair's meetings are one run of stages, and it is reported at the first.
    Each stage column is sorted by switch, and rows d apart in that order
    are paired for d = 1, 2, ... while any of them still share a switch, so
    a bucket of any size yields all its pairs.  A meeting is kept only where
    the two rows sat on different switches one stage earlier.
    """
    count, stages = lines.shape
    switches = lines >> 1
    order = np.argsort(switches, axis=0, kind="stable")
    ordered = np.take_along_axis(switches, order, axis=0)
    keys = [np.empty(0, dtype=np.intp)]
    for d in range(1, count):
        rows, cols = np.nonzero(ordered[:-d] == ordered[d:])
        if not rows.size:
            break
        a = order[rows, cols]
        b = order[rows + d, cols]  # stable: equal switches keep row order, so b > a
        first = (cols == 0) | (switches[a, cols - 1] != switches[b, cols - 1])
        keys.append((a[first] * count + b[first]) * stages + cols[first])
    pair, k = np.divmod(np.sort(np.concatenate(keys)), stages)
    a, b = np.divmod(pair, count)
    return a, b, k + 1, lines[a, k] == lines[b, k]


def edges_csv(a: np.ndarray, b: np.ndarray, stage: np.ndarray, link: np.ndarray) -> str:
    """The pairs of `shared_pairs` as CSV: indexA,indexB,stages,kinds, one
    stage per pair and its kind, `link` or `crosstalk`."""
    kinds = ("crosstalk", "link")
    rows = zip(a.tolist(), b.tolist(), stage.tolist(), link.tolist())
    return "".join(["indexA,indexB,stages,kinds\n", *(f"{x},{y},{s},{kinds[l]}\n" for x, y, s, l in rows)])
