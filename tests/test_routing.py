import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ominsim import (
    DuplicateDestinationError,
    DuplicateSourceError,
    Message,
    OutOfRangeError,
    ParseError,
    SimulatorError,
    Topology,
    build_network,
    format_permutation,
    full_permutation,
    make_permutation,
    parse_permutation,
    path_table,
    switch_at_stage,
    trace_path,
)

from ominsim import routing

from .conftest import SHOWCASE_DESTS, draw_map


def test_trace_example_0_to_7(omega8):
    hops = trace_path(omega8, Message(0, 7))
    assert [(h.stage, h.switch, h.in_port, h.out_port) for h in hops] == [
        (1, 0, 0, 1),
        (2, 1, 0, 1),
        (3, 3, 0, 1),
    ]


def test_trace_example_7_to_4(omega8):
    hops = trace_path(omega8, Message(7, 4))
    assert [h.switch for h in hops] == [3, 3, 2]
    assert [h.out_port for h in hops] == [1, 0, 0]


def test_trace_example_identity_hop(omega4):
    hops = trace_path(omega4, Message(2, 2))
    assert [h.switch for h in hops] == [0, 1]
    assert (hops[-1].switch << 1) | hops[-1].out_port == 2


def test_trace_rejects_bad_endpoints(omega8):
    with pytest.raises(OutOfRangeError):
        trace_path(omega8, Message(0, 8))
    with pytest.raises(OutOfRangeError):
        trace_path(omega8, Message(-1, 0))
    with pytest.raises(OutOfRangeError, match=r"^endpoints of 0->8 outside \[0, 8\)$"):
        switch_at_stage(omega8, Message(0, 8), 1)
    with pytest.raises(OutOfRangeError, match="endpoints of -1->0"):
        switch_at_stage(omega8, Message(-1, 0), 1)
    with pytest.raises(OutOfRangeError, match="endpoints of 1->8"):
        path_table(omega8, [0, 1], [7, 8])
    with pytest.raises(OutOfRangeError):
        path_table(omega8, [-1], [0])


@pytest.mark.parametrize("size", [4, 8, 16])
@pytest.mark.parametrize("topology", list(Topology))
def test_delivery_exhaustive_small(size, topology):
    net = build_network(size, topology)
    for s in range(size):
        for d in range(size):
            last = trace_path(net, Message(s, d))[-1]
            assert (last.switch << 1) | last.out_port == d


@settings(max_examples=200)
@given(st.sampled_from([4, 8, 16, 32, 64]), st.data())
def test_out_port_sequence_spells_destination(size, data):
    net = build_network(size, Topology.OMEGA)
    s = data.draw(st.integers(0, size - 1))
    d = data.draw(st.integers(0, size - 1))
    value = 0
    for hop in trace_path(net, Message(s, d)):
        value = (value << 1) | hop.out_port
    assert value == d


def test_window_examples(omega8):
    assert switch_at_stage(omega8, Message(2, 5), 3) == 2
    assert switch_at_stage(omega8, Message(0, 7), 2) == 1
    assert switch_at_stage(omega8, Message(7, 4), 1) == 3


@settings(max_examples=200)
@given(st.sampled_from([4, 8, 16, 32, 64]), st.data())
def test_window_equals_trace(size, data):
    net = build_network(size, Topology.OMEGA)
    s = data.draw(st.integers(0, size - 1))
    d = data.draw(st.integers(0, size - 1))
    traced = [h.switch for h in trace_path(net, Message(s, d))]
    for stage in range(1, net.stages + 1):
        assert switch_at_stage(net, Message(s, d), stage) == traced[stage - 1]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(Topology)), st.sampled_from([4, 8, 16, 32, 64, 128, 256]), st.data())
def test_path_table_equals_trace(topology, size, data):
    """Rows of path_table are the traced out-lines, (switch << 1) | out_port,
    whose halves are the traced switches, for full maps and for partial maps
    that may repeat destinations."""
    net = build_network(size, topology)
    if data.draw(st.booleans()):
        sources = list(range(size))
        dests = data.draw(st.permutations(sources))
    else:
        sources = data.draw(st.lists(st.integers(0, size - 1), unique=True, max_size=size - 1))
        dests = data.draw(st.lists(st.integers(0, size - 1), min_size=len(sources), max_size=len(sources)))
    lines = path_table(net, sources, dests)
    assert lines.shape == (len(sources), net.stages)
    for row, (s, d) in enumerate(zip(sources, dests)):
        hops = trace_path(net, Message(s, d))
        assert (lines[row] >> 1).tolist() == [h.switch for h in hops]
        assert lines[row].tolist() == [(h.switch << 1) | h.out_port for h in hops]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(Topology)), st.sampled_from([4, 8, 16, 32, 64]), st.data())
def test_paths_that_part_at_a_switch_never_meet_again(topology, size, data):
    """Two rows of path_table on one switch at stage j but on different
    out-lines share no switch after j: each output has one path from each
    input.  Two rows on one out-line at stage j share the switch at stage
    j + 1.  So a pair's shared stages are one run: the pair finder reports
    the first, and the schedulers' admission rule and the Monte Carlo sweeps
    count each pair once."""
    net = build_network(size, topology)
    perm = draw_map(data, net)
    lines = path_table(net, perm.sources, perm.dests)
    same_switch = lines[:, None, :] >> 1 == lines[None, :, :] >> 1
    same_line = lines[:, None, :] == lines[None, :, :]
    parted = same_switch & ~same_line
    parted_before = np.cumsum(parted, axis=2) - parted > 0
    assert not (same_switch & parted_before).any()
    assert not (same_line[:, :, :-1] & ~same_switch[:, :, 1:]).any()


def test_window_rejects_baseline_and_bad_stage():
    baseline = build_network(8, Topology.BASELINE)
    with pytest.raises(OutOfRangeError, match=r"^the window formula is omega-specific; use trace_path$"):
        switch_at_stage(baseline, Message(0, 7), 1)
    omega = build_network(8, Topology.OMEGA)
    with pytest.raises(OutOfRangeError):
        switch_at_stage(omega, Message(0, 7), 4)


@pytest.mark.parametrize("size", [8, 16])
def test_extreme_stage_sharing_criteria(size):
    """Stage-1 switches coincide iff sources differ only in the MSB; stage-n
    switches coincide iff destinations differ only in the LSB."""
    net = build_network(size, Topology.OMEGA)
    for s1 in range(size):
        for s2 in range(size):
            if s1 == s2:
                continue
            share = switch_at_stage(net, Message(s1, 0), 1) == switch_at_stage(net, Message(s2, 0), 1)
            assert share == (s1 ^ s2 == size // 2)
    last = net.stages
    for d1 in range(size):
        for d2 in range(size):
            if d1 == d2:
                continue
            share = switch_at_stage(net, Message(0, d1), last) == switch_at_stage(net, Message(1, d2), last)
            assert share == (d1 ^ d2 == 1)


def test_parse_showcase_file(omega8):
    text = "".join(f"{s} {d}\n" for s, d in enumerate(SHOWCASE_DESTS))
    perm = parse_permutation(text, omega8)
    assert len(perm) == omega8.size
    assert perm.dests.tolist() == list(SHOWCASE_DESTS)


def test_parse_partial_and_comments(omega4):
    perm = parse_permutation("# one message\n0 0\n", omega4)
    assert len(perm) < omega4.size
    assert perm.pairs == (Message(0, 0),)


def test_parse_out_of_range(omega8):
    with pytest.raises(OutOfRangeError):
        parse_permutation("0 9\n", omega8)


def test_parse_errors_carry_line_numbers(omega8):
    with pytest.raises(ParseError) as excinfo:
        parse_permutation("0 1\n2 x\n", omega8)
    assert excinfo.value.line_number == 2
    with pytest.raises(ParseError):
        parse_permutation("0 1 2\n", omega8)
    # int() alone reads underscores and non-ASCII digits; a field is ASCII digits with an optional sign
    for line in ("1_0 2", "\uff10 1", "1 \u0662", "+-1 2"):
        with pytest.raises(ParseError, match="^line 2: non-integer field in " + re.escape(repr(line)) + "$"):
            parse_permutation(f"0 1\n{line}\n", omega8)
    assert parse_permutation("+1 2\n", omega8).pairs == (Message(1, 2),)

    # lines end at LF, CRLF or CR alone, and fields are split by spaces and tabs alone
    for text, error in [
        ("0 1\n1 2\u20282 x\n", "line 2: expected 'SOURCE DESTINATION', got '1 2\\u20282 x'"),
        ("0\u30001\n", "line 1: expected 'SOURCE DESTINATION', got '0\\u30001'"),
        ("0 1\r1 2\r\n2 x\n", "line 3: non-integer field in '2 x'"),
    ]:
        with pytest.raises(ParseError, match="^" + re.escape(error) + "$"):
            parse_permutation(text, omega8)


def test_duplicate_checks(omega8, omega4):
    with pytest.raises(DuplicateSourceError):
        parse_permutation("0 1\n0 2\n", omega8)
    full = "\n".join(f"{s} {d}" for s, d in enumerate([0, 0, 2, 3, 4, 5, 6, 7]))
    with pytest.raises(DuplicateDestinationError):
        parse_permutation(full, omega8)
    # partial maps may repeat destinations
    perm = parse_permutation("0 3\n1 3\n", omega4)
    assert len(perm) == 2 < omega4.size


def test_full_permutation_requires_all_sources(omega8):
    with pytest.raises(OutOfRangeError):
        full_permutation(omega8, [0, 1, 2])


@settings(max_examples=50)
@given(st.permutations(tuple(range(8))))
def test_roundtrip_format_parse(dests):
    net = build_network(8, Topology.OMEGA)
    perm = full_permutation(net, dests)
    assert parse_permutation(format_permutation(perm), net) == perm


def reference_parse(text, size):
    """The scalar parser: one line, then one message, at a time.  Returns
    the (source, destination) pairs or raises as parse_permutation must.
    A line ends at LF, CRLF or CR, and fields are split by spaces and tabs
    alone."""
    pairs = []
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip(" \t")
        if not stripped or stripped.startswith("#"):
            continue
        tokens = [token for token in stripped.replace("\t", " ").split(" ") if token]
        if len(tokens) != 2:
            raise ParseError(f"expected 'SOURCE DESTINATION', got {stripped!r}", lineno)
        # a field is ASCII digits with an optional sign
        digits = [token[1:] if token[0] in "+-" else token for token in tokens]
        if not all(d.isascii() and d.isdigit() for d in digits):
            raise ParseError(f"non-integer field in {stripped!r}", lineno)
        source, destination = int(tokens[0]), int(tokens[1])
        if not (0 <= source < size and 0 <= destination < size):
            raise OutOfRangeError(f"line {lineno}: {source} {destination} outside [0, {size})")
        pairs.append((source, destination))
    seen = set()
    for source, _ in pairs:
        if source in seen:
            raise DuplicateSourceError(f"source {source} listed twice")
        seen.add(source)
    if len(pairs) == size:
        seen = set()
        for _, destination in pairs:
            if destination in seen:
                raise DuplicateDestinationError(f"destination {destination} listed twice in a full permutation")
            seen.add(destination)
    return pairs


@st.composite
def permutation_texts(draw, size):
    """Message lines, mostly in range, from a shuffle (a full map when
    nothing is dropped) or from free draws.  About half the texts are
    canonical, the lines alone; the others have leading whitespace,
    comments, blank lines and malformed lines mixed in."""
    inside = st.integers(0, size - 1)
    endpoint = inside if draw(st.booleans()) else st.one_of(inside, st.integers(-2, size + 1), st.just(10**20))
    if draw(st.booleans()):
        sources = draw(st.permutations(range(size)))
        dests = draw(st.one_of(st.permutations(range(size)), st.lists(endpoint, min_size=size, max_size=size)))
    else:
        sources = draw(st.lists(endpoint, max_size=size + 1))
        dests = draw(st.lists(endpoint, min_size=len(sources), max_size=len(sources)))
    space = st.sampled_from([" ", "  ", "\t"])
    if draw(st.booleans()):
        lines = [f"{s}{draw(space)}{d}" for s, d in zip(sources, dests)]
        return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    lines = [f"{draw(st.sampled_from(['', ' ']))}{s}{draw(space)}{d}" for s, d in zip(sources, dests)]
    blank = st.sampled_from(["", "   ", "# comment", "  #x 1 2", "#"])
    noise = st.one_of(
        blank,
        blank,
        st.lists(inside.map(str), min_size=1, max_size=3).map(" ".join),
        st.sampled_from(["1 x", "x 1", "1.5 2", "0x1 2", "1 2 # tail", "1_0 2", "\uff10 1", "+ 1"]),
        # separators that str.splitlines() or str.split() would honour
        st.sampled_from(["1 2\u20282 x", "0\u30001", "1\x0c2", "\u3000", "1 2\x85"]),
    )
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(noise))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([4, 8]), st.data())
def test_parse_equals_scalar_reference(size, data):
    """The array parser returns the reference's map, or raises what the
    reference raises: same class, message and line number."""
    net = build_network(size, Topology.OMEGA)
    text = data.draw(permutation_texts(size))
    try:
        expected = reference_parse(text, size)
    except SimulatorError as exc:
        with pytest.raises(SimulatorError) as info:
            parse_permutation(text, net)
        assert type(info.value) is type(exc)
        assert str(info.value) == str(exc)
        assert getattr(info.value, "line_number", None) == getattr(exc, "line_number", None)
    else:
        perm = parse_permutation(text, net)
        assert perm.pairs == tuple(Message(s, d) for s, d in expected)


def test_canonical_and_messy_texts_parse_alike(omega8):
    """A canonical map, read by numpy, equals the same map with a comment,
    CRLF endings and leading spaces, read line by line; a canonical map
    with an endpoint outside the network gets the line loop's message."""
    canonical = format_permutation(full_permutation(omega8, SHOWCASE_DESTS))
    messy = "# header\r\n" + "".join(f"  {line}\r\n" for line in canonical.splitlines())
    assert routing._CANONICAL.fullmatch(canonical) and not routing._CANONICAL.fullmatch(messy)
    assert parse_permutation(canonical, omega8) == parse_permutation(messy, omega8)
    with pytest.raises(OutOfRangeError, match=r"^line 3: 2 8 outside \[0, 8\)$"):
        parse_permutation("0 1\n1 2\n2 8\n3 4\n", omega8)


def test_map_holds_read_only_arrays(omega8):
    perm = full_permutation(omega8, SHOWCASE_DESTS)
    assert perm.sources.tolist() == list(range(8)) and perm.dests.tolist() == list(SHOWCASE_DESTS)
    assert not perm.sources.flags.writeable and not perm.dests.flags.writeable
    rebuilt = make_permutation(perm.pairs, 8)
    assert rebuilt == perm and hash(rebuilt) == hash(perm)
    assert rebuilt != make_permutation(perm.pairs[:7], 8)
    # a map holds no size of its own: the same messages checked against N=16 are the same map
    wider = make_permutation(perm.pairs, 16)
    assert wider == perm and hash(wider) == hash(perm)
    assert perm.__eq__(object()) is NotImplemented and perm != object()



@pytest.mark.parametrize("dests", [SHOWCASE_DESTS, (1, 1, 6)], ids=["full", "partial"])
def test_hash_reads_the_arrays(omega8, dests):
    """Equal maps hash equal however they were built, and hashing builds no
    Message records."""
    pairs = [Message(s, d) for s, d in enumerate(dests)]
    text = "".join(f"{s} {d}\n" for s, d in enumerate(dests))
    maps = [parse_permutation(text, omega8), make_permutation(pairs, 8)]
    if len(dests) == 8:
        maps.append(full_permutation(omega8, dests))
    assert len({hash(perm) for perm in maps}) == 1
    assert all("pairs" not in vars(perm) for perm in maps)


def test_make_permutation_range_check():
    with pytest.raises(OutOfRangeError):
        make_permutation([Message(0, 4)], 4)
