"""Destination-tag routing: path traces, the sliding-window switch formula,
the path table, and the permutation file format.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DuplicateDestinationError, DuplicateSourceError, OutOfRangeError, ParseError
from .topology import NetworkSpec, Topology, interconnect, wiring


@dataclass(frozen=True)
class Message:
    source: int
    destination: int


@dataclass(frozen=True)
class Hop:
    stage: int
    switch: int
    in_port: int
    out_port: int


@dataclass(frozen=True, eq=False)
class PermutationMap:
    """An ordered set of messages with distinct sources, held as two
    read-only integer arrays: message i runs sources[i] -> dests[i].

    A map with one entry per input of its network is a full permutation
    (destinations are then distinct as well); anything shorter is partial
    and may repeat destinations.  make_permutation, full_permutation and
    parse_permutation check a map once, as they build it, against the
    network's size; the constructor trusts its arrays.
    """

    sources: np.ndarray
    dests: np.ndarray

    def __post_init__(self):
        for name in ("sources", "dests"):
            values = np.array(getattr(self, name), dtype=np.intp)
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    @cached_property
    def pairs(self) -> tuple[Message, ...]:
        """The messages as records, built on first use, for the traced
        oracles (`trace_path` and its callers)."""
        return tuple(map(Message, self.sources.tolist(), self.dests.tolist()))

    def __len__(self) -> int:
        return len(self.sources)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.sources, other.sources) and np.array_equal(self.dests, other.dests)

    def __hash__(self) -> int:
        return hash((self.sources.tobytes(), self.dests.tobytes()))


def int_array(values: Iterable[int]) -> np.ndarray:
    """Endpoints or indices as an integer array.  A value too large for
    one, which no network has, stays a Python int in an object array, so
    that the range check reports it like any other."""
    values = list(values)
    try:
        return np.array(values, dtype=np.intp)
    except OverflowError:
        return np.array(values, dtype=object)


def first_outside(size: int, *columns: np.ndarray) -> int:
    """Index of the first row where one of the equal-length `columns` holds
    a value outside [0, size), or their length when there is none."""
    bad = np.zeros(len(columns[0]), dtype=bool)
    for values in columns:
        bad = bad | (values < 0) | (values >= size)
    return int(np.argmax(bad)) if bad.any() else len(bad)


def first_repeat(values: np.ndarray, size: int) -> int | None:
    """The first of `values`, in order, that equals an earlier one, or None.
    Every value lies in [0, size)."""
    values = np.asarray(values, dtype=np.intp)
    if not values.size or np.bincount(values, minlength=size).max() < 2:
        return None
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    # stable: of two equal values the later index sorts second
    return int(values[order[1:][ordered[1:] == ordered[:-1]].min()])


def _checked(sources: np.ndarray, dests: np.ndarray, size: int) -> PermutationMap:
    """The map sources[i] -> dests[i], checked in message order as one loop
    would check it: a source repeated before the first endpoint outside
    [0, size) is reported first, then that endpoint."""
    count = len(sources)
    end = first_outside(size, sources, dests)
    source = first_repeat(sources[:end], size)
    if source is not None:
        raise DuplicateSourceError(f"source {source} listed twice")
    if end < count:
        raise OutOfRangeError(f"endpoints of {sources[end]}->{dests[end]} outside [0, {size})")
    if count == size:
        dest = first_repeat(dests, size)
        if dest is not None:
            raise DuplicateDestinationError(f"destination {dest} listed twice in a full permutation")
    return PermutationMap(sources, dests)


def make_permutation(pairs: Iterable[Message], size: int) -> PermutationMap:
    pairs = tuple(pairs)
    sources = int_array(m.source for m in pairs)
    dests = int_array(m.destination for m in pairs)
    return _checked(sources, dests, size)


def full_permutation(net: NetworkSpec, destinations: Sequence[int]) -> PermutationMap:
    """Build the full map source i -> destinations[i]."""
    if len(destinations) != net.size:
        raise OutOfRangeError(f"expected {net.size} destinations, got {len(destinations)}")
    dests = int_array(destinations)
    return _checked(np.arange(net.size), dests, net.size)


def routing_bit(net: NetworkSpec, destination: int, stage: int) -> int:
    """Destination bit consumed at `stage`: the MSB first, the LSB last."""
    return (destination >> (net.stages - stage)) & 1


def trace_path(net: NetworkSpec, msg: Message) -> tuple[Hop, ...]:
    """Follow a message line by line through every switch column: one hop
    per stage, in stage order."""
    if not (0 <= msg.source < net.size and 0 <= msg.destination < net.size):
        raise OutOfRangeError(f"endpoints of {msg.source}->{msg.destination} outside [0, {net.size})")
    hops = []
    line = msg.source
    for stage in range(1, net.stages + 1):
        line = interconnect(net, stage, line)
        switch, in_port = line >> 1, line & 1
        out_port = routing_bit(net, msg.destination, stage)
        hops.append(Hop(stage=stage, switch=switch, in_port=in_port, out_port=out_port))
        line = (switch << 1) | out_port
    return tuple(hops)


def switch_at_stage(net: NetworkSpec, msg: Message, stage: int) -> int:
    """Closed-form switch lookup for omega networks.

    The switch visited at stage k is the (n-1)-bit window starting at offset
    k-1 of the 2n-2 bit string formed by the low n-1 source bits followed by
    the high n-1 destination bits.  Must agree with trace_path everywhere.
    """
    if net.topology is not Topology.OMEGA:
        raise OutOfRangeError("the window formula is omega-specific; use trace_path")
    n = net.stages
    if not 1 <= stage <= n:
        raise OutOfRangeError(f"stage {stage} outside [1, {n}]")
    if not (0 <= msg.source < net.size and 0 <= msg.destination < net.size):
        raise OutOfRangeError(f"endpoints of {msg.source}->{msg.destination} outside [0, {net.size})")
    half = (1 << (n - 1)) - 1
    window = ((msg.source & half) << (n - 1)) | (msg.destination >> 1)
    return (window >> (n - stage)) & half


def path_table(net: NetworkSpec, sources: Sequence[int], dests: Sequence[int]) -> np.ndarray:
    """Out-line of every message at every stage, as an (M, n) integer array
    found by walking the wiring table; the switch is the out-line >> 1.
    Row i follows sources[i] -> dests[i]; entry [i, k - 1] belongs to stage k."""
    sources = np.asarray(sources, dtype=np.intp)
    dests = np.asarray(dests, dtype=np.intp)
    i = first_outside(net.size, sources, dests)
    if i < sources.size:
        raise OutOfRangeError(f"endpoints of {sources[i]}->{dests[i]} outside [0, {net.size})")
    n = net.stages
    # built stage by stage, one contiguous row each, then transposed
    bits = (dests >> np.arange(n - 1, -1, -1)[:, None]) & 1
    lines = np.empty((n, sources.size), dtype=np.intp)
    line = sources
    for k, row in enumerate(wiring(net)):
        line = lines[k] = (row[line] & ~1) | bits[k]
    return lines.T.copy()


# Lines of two ASCII numbers of at most 18 digits, so no value overflows
# int64, with no comment, sign, blank line or carriage return.
_CANONICAL = re.compile(r"(?:[0-9]{1,18}[ \t]+[0-9]{1,18}[ \t]*\n)*(?:[0-9]{1,18}[ \t]+[0-9]{1,18}[ \t]*)?")
# A field of the line loop: int() alone would also read "1_0" and non-ASCII digits.
_FIELD = re.compile(r"[+-]?[0-9]+")


def parse_permutation(text: str, net: NetworkSpec) -> PermutationMap:
    """Parse `SOURCE DESTINATION` lines, split by spaces or tabs and ended
    by LF, CRLF or CR; `#` starts a comment line.

    Errors come in line order: a malformed line or an endpoint outside the
    network, whichever comes first, then a repeated source, then a repeated
    destination in a full map.

    Canonical text, as format_permutation writes it, is read by numpy in
    one call; any other text, and canonical text with an endpoint outside
    the network, goes through the line loop, which alone raises the
    line-numbered errors."""
    if _CANONICAL.fullmatch(text):
        ends = np.fromstring(text, dtype=np.intp, sep=" ")
        sources, dests = ends[0::2], ends[1::2]
        if first_outside(net.size, sources, dests) == sources.size:
            return _checked(sources, dests, net.size)
    sources, dests, linenos = [], [], []
    malformed = None
    # str.splitlines() and str.split() would also break on U+2028, \x0c and any Unicode space
    for lineno, raw in enumerate(re.split(r"\r\n?|\n", text), start=1):
        line = raw.strip(" \t")
        if not line or line.startswith("#"):
            continue
        tokens = re.split(r"[ \t]+", line)
        if len(tokens) != 2:
            malformed = ParseError(f"expected 'SOURCE DESTINATION', got {line!r}", lineno)
            break
        if not (_FIELD.fullmatch(tokens[0]) and _FIELD.fullmatch(tokens[1])):
            malformed = ParseError(f"non-integer field in {line!r}", lineno)
            break
        sources.append(int(tokens[0]))
        dests.append(int(tokens[1]))
        linenos.append(lineno)
    source_array, dest_array = int_array(sources), int_array(dests)
    i = first_outside(net.size, source_array, dest_array)
    if i < len(sources):
        raise OutOfRangeError(f"line {linenos[i]}: {sources[i]} {dests[i]} outside [0, {net.size})")
    if malformed is not None:
        raise malformed
    return _checked(source_array, dest_array, net.size)


def format_permutation(perm: PermutationMap) -> str:
    """Inverse of parse_permutation (modulo comments)."""
    return "".join(f"{s} {d}\n" for s, d in zip(perm.sources.tolist(), perm.dests.tolist()))
