import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ominsim import (
    NotPowerOfTwoError,
    OutOfRangeError,
    Topology,
    UnknownTopologyError,
    build_network,
    interconnect,
    parse_topology,
)
from ominsim.topology import wiring

SIZES = [4, 8, 16, 32, 64]


def test_build_network_examples():
    net = build_network(8, Topology.OMEGA)
    assert (net.size, net.stages) == (8, 3)
    net = build_network(4, "baseline")
    assert (net.size, net.stages) == (4, 2)


@pytest.mark.parametrize("bad", [6, 2, 0, -8, 12, 1023])
def test_build_network_rejects_non_powers(bad):
    with pytest.raises(NotPowerOfTwoError):
        build_network(bad, Topology.OMEGA)


def test_unknown_topology():
    with pytest.raises(UnknownTopologyError):
        parse_topology("mesh")
    with pytest.raises(UnknownTopologyError):
        build_network(8, "torus")


def test_omega_shuffle_examples():
    net = build_network(8, Topology.OMEGA)
    assert interconnect(net, 1, 4) == 1  # 100b left-rotates to 001b
    assert interconnect(net, 2, 5) == 3  # 101b -> 011b
    for stage in (1, 2, 3):
        assert interconnect(net, stage, 0) == 0


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("topology", list(Topology))
def test_interconnect_is_bijection_per_stage(size, topology):
    net = build_network(size, topology)
    for stage in range(1, net.stages + 1):
        image = {interconnect(net, stage, line) for line in range(size)}
        assert image == set(range(size))


@pytest.mark.parametrize("size", SIZES + [1 << 12])
@pytest.mark.parametrize("topology", list(Topology))
def test_wiring_table_is_read_only_interconnect(size, topology):
    net = build_network(size, topology)
    table = wiring(net)
    assert table.tolist() == [
        [interconnect(net, stage, line) for line in range(size)] for stage in range(1, net.stages + 1)
    ]
    assert not table.flags.writeable


@pytest.mark.parametrize("size", SIZES)
def test_omega_rotation_has_order_n(size):
    net = build_network(size, Topology.OMEGA)
    for line in range(size):
        current = line
        for _ in range(net.stages):
            current = interconnect(net, 1, current)
        assert current == line


@settings(max_examples=30)
@given(st.sampled_from(SIZES), st.sampled_from(list(Topology)))
def test_interconnect_range_checks(size, topology):
    net = build_network(size, topology)
    with pytest.raises(OutOfRangeError):
        interconnect(net, 0, 0)
    with pytest.raises(OutOfRangeError):
        interconnect(net, net.stages + 1, 0)
    with pytest.raises(OutOfRangeError):
        interconnect(net, 1, size)
    with pytest.raises(OutOfRangeError):
        interconnect(net, 1, -1)
