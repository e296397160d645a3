"""Destination-tag routing: path traces, the sliding-window switch formula,
the path table, and the permutation file format.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateDestinationError,
    DuplicateSourceError,
    OutOfRangeError,
    ParseError,
    UnsupportedTopologyError,
)
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

    @property
    def out_line(self) -> int:
        return (self.switch << 1) | self.out_port


@dataclass(frozen=True)
class Path:
    hops: tuple[Hop, ...]

    def switches(self) -> tuple[int, ...]:
        return tuple(h.switch for h in self.hops)

    def out_ports(self) -> tuple[int, ...]:
        return tuple(h.out_port for h in self.hops)


@dataclass(frozen=True)
class PermutationMap:
    """An ordered set of messages with distinct sources.

    A map with exactly `size` entries is a full permutation (destinations
    are then distinct as well); anything shorter is partial and may
    repeat destinations.
    """

    pairs: tuple[Message, ...]
    size: int

    @property
    def partial(self) -> bool:
        return len(self.pairs) < self.size

    def __len__(self) -> int:
        return len(self.pairs)

    def destinations(self) -> tuple[int, ...]:
        return tuple(m.destination for m in self.pairs)


def make_permutation(pairs: Iterable[Message], size: int) -> PermutationMap:
    pairs = tuple(pairs)
    seen_sources: set[int] = set()
    for msg in pairs:
        if not (0 <= msg.source < size and 0 <= msg.destination < size):
            raise OutOfRangeError(f"endpoints of {msg.source}->{msg.destination} outside [0, {size})")
        if msg.source in seen_sources:
            raise DuplicateSourceError(f"source {msg.source} listed twice")
        seen_sources.add(msg.source)
    if len(pairs) == size:
        dests = set()
        for msg in pairs:
            if msg.destination in dests:
                raise DuplicateDestinationError(f"destination {msg.destination} listed twice in a full permutation")
            dests.add(msg.destination)
    return PermutationMap(pairs=pairs, size=size)


def full_permutation(net: NetworkSpec, destinations: Sequence[int]) -> PermutationMap:
    """Build the full map source i -> destinations[i]."""
    if len(destinations) != net.size:
        raise OutOfRangeError(f"expected {net.size} destinations, got {len(destinations)}")
    return make_permutation((Message(s, d) for s, d in enumerate(destinations)), net.size)


def routing_bit(net: NetworkSpec, destination: int, stage: int) -> int:
    """Destination bit consumed at `stage`: the MSB first, the LSB last."""
    return (destination >> (net.stages - stage)) & 1


def trace_path(net: NetworkSpec, msg: Message) -> Path:
    """Follow a message line by line through every switch column."""
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
    return Path(hops=tuple(hops))


def switch_at_stage(net: NetworkSpec, msg: Message, stage: int) -> int:
    """Closed-form switch lookup for omega networks.

    The switch visited at stage k is the (n-1)-bit window starting at offset
    k-1 of the 2n-2 bit string formed by the low n-1 source bits followed by
    the high n-1 destination bits.  Must agree with trace_path everywhere.
    """
    if net.topology is not Topology.OMEGA:
        raise UnsupportedTopologyError("the window formula is omega-specific; use trace_path")
    n = net.stages
    if not 1 <= stage <= n:
        raise OutOfRangeError(f"stage {stage} outside [1, {n}]")
    if not (0 <= msg.source < net.size and 0 <= msg.destination < net.size):
        raise OutOfRangeError(f"endpoints of {msg.source}->{msg.destination} outside [0, {net.size})")
    half = (1 << (n - 1)) - 1
    window = ((msg.source & half) << (n - 1)) | (msg.destination >> 1)
    return (window >> (n - stage)) & half


def path_table(net: NetworkSpec, sources: Sequence[int], dests: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Switch and out-line of every message at every stage, as two (M, n)
    integer arrays, found by walking the wiring table.  Row i follows
    sources[i] -> dests[i]; entry [i, k - 1] belongs to stage k."""
    sources = np.asarray(sources, dtype=np.intp)
    dests = np.asarray(dests, dtype=np.intp)
    bad = (sources < 0) | (sources >= net.size) | (dests < 0) | (dests >= net.size)
    if bad.any():
        i = int(np.argmax(bad))
        raise OutOfRangeError(f"endpoints of {sources[i]}->{dests[i]} outside [0, {net.size})")
    n = net.stages
    switches = np.empty((sources.size, n), dtype=np.intp)
    out_lines = np.empty_like(switches)
    line = sources
    for k, row in enumerate(wiring(net)):
        line = row[line]
        switches[:, k] = line >> 1
        line = (line & ~1) | ((dests >> (n - 1 - k)) & 1)
        out_lines[:, k] = line
    return switches, out_lines


def parse_permutation(text: str, net: NetworkSpec) -> PermutationMap:
    """Parse `SOURCE DESTINATION` lines; `#` starts a comment line."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise ParseError(f"expected 'SOURCE DESTINATION', got {stripped!r}", lineno)
        try:
            source, destination = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"non-integer field in {stripped!r}", lineno) from None
        if not (0 <= source < net.size and 0 <= destination < net.size):
            raise OutOfRangeError(f"line {lineno}: {source} {destination} outside [0, {net.size})")
        pairs.append(Message(source, destination))
    return make_permutation(pairs, net.size)


def format_permutation(perm: PermutationMap) -> str:
    """Inverse of parse_permutation (modulo comments)."""
    return "".join(f"{m.source} {m.destination}\n" for m in perm.pairs)
