"""Network geometry: stage/switch/line addressing and inter-stage wiring.

An N-input network (N = 2^n) has n columns of N/2 two-by-two switching
elements.  A line address is an integer in [0, N); its high n-1 bits name
the switch it touches and its low bit the port within that switch.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import OutOfRangeError


class Topology(Enum):
    OMEGA = "omega"
    BASELINE = "baseline"


@dataclass(frozen=True)
class NetworkSpec:
    """Immutable geometry shared by every operation in the package."""

    size: int
    stages: int
    topology: Topology


def parse_topology(name: str) -> Topology:
    try:
        return Topology(name.strip().lower())
    except ValueError:
        raise OutOfRangeError(f"unknown topology {name!r}: expected 'omega' or 'baseline'") from None


def build_network(size: int, topology: Topology | str) -> NetworkSpec:
    """Validate a network size and return its geometry.

    Raises OutOfRangeError unless size is a power of two >= 4.
    """
    if isinstance(topology, str):
        topology = parse_topology(topology)
    if size < 4 or size & (size - 1):
        raise OutOfRangeError(f"network size must be a power of two >= 4, got {size}")
    return NetworkSpec(size=size, stages=size.bit_length() - 1, topology=topology)


def interconnect(net: NetworkSpec, stage: int, line: int) -> int:
    """Map a line leaving stage-1 (or the inputs) onto the line entering `stage`.

    Omega wiring is the perfect shuffle (left rotation of the n-bit address)
    in front of every switch column.  Baseline wiring feeds the inputs
    straight into the first column and then applies an inverse shuffle
    (right rotation) local to blocks that halve after each column, so the
    rotation entering stage k acts on the low n-k+2 bits.
    """
    n = net.stages
    if not 1 <= stage <= n:
        raise OutOfRangeError(f"stage {stage} outside [1, {n}]")
    if not 0 <= line < net.size:
        raise OutOfRangeError(f"line {line} outside [0, {net.size})")
    if net.topology is Topology.OMEGA:
        return ((line << 1) | (line >> (n - 1))) & (net.size - 1)
    if stage == 1:
        return line
    width = n - stage + 2
    mask = (1 << width) - 1
    local = line & mask
    return (line & ~mask) | (local >> 1) | ((local & 1) << (width - 1))


@lru_cache(maxsize=16)
def wiring(net: NetworkSpec) -> np.ndarray:
    """(n, N) read-only wiring table: row k - 1 maps every line leaving
    stage k - 1 (or the inputs) onto interconnect(net, k, line)."""
    n = net.stages
    lines = np.arange(net.size, dtype=np.intp)
    table = np.empty((n, net.size), dtype=np.intp)
    if net.topology is Topology.OMEGA:
        table[:] = ((lines << 1) | (lines >> (n - 1))) & (net.size - 1)
    else:
        table[0] = lines
        for stage in range(2, n + 1):
            width = n - stage + 2
            mask = (1 << width) - 1
            local = lines & mask
            table[stage - 1] = (lines & ~mask) | (local >> 1) | ((local & 1) << (width - 1))
    table.flags.writeable = False
    return table
