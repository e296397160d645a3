import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ominsim
from ominsim import (
    OutOfRangeError,
    ValidationReport,
    Violation,
    build_network,
    format_permutation,
    make_permutation,
    monte_carlo,
    parse_permutation,
    trace_path,
)
from ominsim.analysis import generate_random_permutation
from ominsim.cli import build_parser, run
from ominsim.streams import substream

from .conftest import SHOWCASE_DESTS, draw_map, networks


@pytest.fixture
def perm_file(tmp_path):
    path = tmp_path / "showcase.perm"
    path.write_text("".join(f"{s} {d}\n" for s, d in enumerate(SHOWCASE_DESTS)))
    return str(path)


def test_schedule_exact_pass_count(perm_file, capsys):
    code = run(["schedule", "--size", "8", "--perm", perm_file, "--budget", "0", "--algorithm", "exact"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.rstrip().endswith("passes: 3")
    doc = json.loads(out[: out.rindex("passes:")])
    assert doc["passes"] == [[0, 1, 7], [2, 4, 5], [3, 6]]
    assert list(doc) == ["size", "topology", "budget", "algorithm", "passes", "violations"]


def test_python_dash_m_runs_the_cli(perm_file):
    """`python -m ominsim` reaches cli.main; the package is found through
    its own location, not through the caller's environment."""
    env = dict(os.environ, PYTHONPATH=str(Path(ominsim.__file__).parents[1]))
    argv = ["schedule", "--size", "8", "--perm", perm_file, "--budget", "0", "--algorithm", "exact"]
    done = subprocess.run([sys.executable, "-m", "ominsim", *argv], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.rstrip().endswith("passes: 3")


def test_schedule_unlimited(perm_file, capsys):
    code = run(["schedule", "--size", "8", "--perm", perm_file, "--budget", "unlimited", "--algorithm", "exact"])
    assert code == 0
    assert "passes: 1" in capsys.readouterr().out


@pytest.mark.parametrize("algorithm", ["greedy", "welsh-powell", "exact"])
def test_schedule_comment_only_file(tmp_path, capsys, algorithm):
    path = tmp_path / "empty.perm"
    path.write_text("# no messages\n")
    code = run(["schedule", "--size", "8", "--perm", str(path), "--algorithm", algorithm])
    out = capsys.readouterr().out
    assert code == 0
    assert out.endswith("passes: 0\n")
    assert json.loads(out[: out.rindex("passes:")])["passes"] == []


def test_bandwidth_analytic_row(capsys):
    code = run(["bandwidth", "--sizes", "4", "--mode", "analytic", "--load", "1.0"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "size,mode,bw,stderr\n4,analytic,2.4375,0\n"


def test_bandwidth_simulate_csv_and_json(capsys):
    argv = [
        "bandwidth", "--sizes", "8", "--mode", "simulate", "--crosstalk", "allow,free",
        "--trials", "200", "--seed", "11",
    ]
    assert run(argv) == 0
    csv_out = capsys.readouterr().out
    lines = csv_out.strip().split("\n")
    assert lines[0] == "size,mode,bw,stderr"
    assert len(lines) == 3 and lines[1].startswith("8,allow,") and lines[2].startswith("8,free,")

    assert run(argv + ["--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [list(r) for r in rows] == [
        ["size", "topology", "load", "mode", "trials", "seed", "mean_bw", "stderr", "passability"]
    ] * 2
    assert rows[0]["mode"] == "allow" and rows[1]["mode"] == "free"
    assert rows[0]["mean_bw"] >= rows[1]["mean_bw"]


def test_bandwidth_output_is_byte_stable(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["bandwidth", "--sizes", "8,16", "--mode", "simulate", "--crosstalk", "free",
            "--trials", "150", "--seed", "5"]
    assert run(argv + ["--output", str(out_a)]) == 0
    assert run(argv + ["--output", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_rejected_argv_leaves_the_shared_parser_unchanged(capsys):
    valid = ["bandwidth", "--sizes", "8", "--mode", "simulate", "--crosstalk", "allow,budget=1,free",
             "--trials", "50", "--seed", "7", "--format", "json"]
    build_parser.cache_clear()
    assert run(valid) == 0
    alone = capsys.readouterr()
    build_parser.cache_clear()
    assert run(["bandwidth", "--sizes", "16", "--mode", "simulate", "--format", "xml"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert run(valid) == 0
    assert capsys.readouterr() == alone


def test_conflicts_csv(perm_file, capsys):
    assert run(["conflicts", "--size", "8", "--perm", perm_file]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "indexA,indexB,stages,kinds"
    assert len(lines) == 13


def test_route_table(perm_file, capsys):
    assert run(["route", "--size", "8", "--perm", perm_file]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "source,destination,stage,switch,in_port,out_port"
    assert lines[1] == "0,7,1,0,0,1"
    assert len(lines) == 1 + 8 * 3


def _route_rows(net, perm, folder):
    """`route` run on the map through files in `folder`: its header and its
    rows as integer tuples."""
    folder.mkdir(exist_ok=True)
    (folder / "map.perm").write_text(format_permutation(perm))
    argv = ["route", "--size", str(net.size), "--topology", net.topology.value]
    assert run(argv + ["--perm", str(folder / "map.perm"), "--output", str(folder / "route.csv")]) == 0
    header, *rows = (folder / "route.csv").read_text().splitlines()
    return header, [tuple(map(int, row.split(","))) for row in rows]


def _traced_rows(net, perm):
    """The reference rows: every traced hop, in message then stage order."""
    return [
        (msg.source, msg.destination, hop.stage, hop.switch, hop.in_port, hop.out_port)
        for msg in perm.pairs
        for hop in trace_path(net, msg)
    ]


@settings(max_examples=60, deadline=None)
@given(st.data(), networks(sizes=(4, 8, 16, 32, 64)))
def test_route_rows_equal_traced_hops(tmp_path_factory, data, net):
    """`route` reads the path table; trace_path walks the wiring one line at
    a time.  Full and partial maps, repeated destinations included."""
    perm = draw_map(data, net)
    header, rows = _route_rows(net, perm, tmp_path_factory.getbasetemp() / "route-vs-trace")
    assert header == "source,destination,stage,switch,in_port,out_port"
    assert rows == _traced_rows(net, perm)


@pytest.mark.parametrize("topology", ["omega", "baseline"])
def test_route_of_an_empty_map_is_its_header(topology, tmp_path):
    net = build_network(16, topology)
    header, rows = _route_rows(net, make_permutation([], net.size), tmp_path)
    assert header == "source,destination,stage,switch,in_port,out_port"
    assert rows == []


def test_simulate_report(capsys):
    assert run(["simulate", "--size", "8", "--random-perms", "40", "--seed", "3", "--budget", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trials"] == 40 and doc["size"] == 8
    assert [row["mode"] for row in doc["modes"]] == ["allow", "free"]
    assert min(int(k) for k in doc["pass_histogram"]) >= 2
    assert sum(doc["pass_histogram"].values()) == 40


def test_simulate_with_positive_budget(capsys):
    assert run(["simulate", "--size", "8", "--random-perms", "10", "--seed", "3", "--budget", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [row["mode"] for row in doc["modes"]] == ["allow", "budget=2", "free"]


def test_exit_codes(tmp_path, capsys):
    assert run(["schedule", "--size", "8", "--perm", str(tmp_path / "missing.perm")]) == 2
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.perm"
    bad.write_text("0 9\n")
    assert run(["route", "--size", "8", "--perm", str(bad)]) == 2

    good = tmp_path / "good.perm"
    good.write_text("0 1\n")
    assert run(["route", "--size", "6", "--perm", str(good)]) == 2
    assert run(["route", "--size", "8", "--topology", "torus", "--perm", str(good)]) == 2
    assert run(["schedule", "--size", "8", "--perm", str(good), "--budget", "-1"]) == 2
    assert run(["bandwidth", "--sizes", "8", "--mode", "simulate", "--crosstalk", "sometimes"]) == 2
    assert run(["nope"]) == 2


def test_out_of_memory_exits_2(perm_file, monkeypatch, capsys):
    """A network too large to allocate is bad input, not an internal error:
    exit 2 with one error line."""

    def too_large(*args):
        raise MemoryError("Unable to allocate 8.00 TiB")

    monkeypatch.setattr("ominsim.cli.path_table", too_large)
    assert run(["route", "--size", "8", "--perm", perm_file]) == 2
    assert capsys.readouterr() == ("", "error: out of memory: Unable to allocate 8.00 TiB\n")


def test_invalid_emitted_schedule_exits_1(perm_file, monkeypatch, capsys):
    """A schedule that fails its own validation is a bug, not bad input:
    exit 1, nothing on stdout."""
    violation = Violation("link", 0, (0, 1), (3,))
    monkeypatch.setattr("ominsim.cli.validate_schedule", lambda *args: ValidationReport([violation]))
    assert run(["schedule", "--size", "8", "--perm", perm_file]) == 1
    assert capsys.readouterr() == ("", "internal error: emitted schedule has 1 violations\n")


def test_unexpected_exception_exits_1(perm_file, monkeypatch, capsys):
    """Any other exception is an internal error: exit 1 with one line."""

    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr("ominsim.cli.path_table", broken)
    assert run(["route", "--size", "8", "--perm", perm_file]) == 1
    assert capsys.readouterr() == ("", "internal error: boom\n")



@pytest.mark.parametrize("command", ["route", "conflicts", "schedule"])
def test_non_utf8_map_exits_2(command, tmp_path, capsys):
    """A map that is not UTF-8 is a bad file: exit 2 with one error line."""
    path = tmp_path / "latin.perm"
    path.write_bytes(b"0 1\n\xff\xfe 2\n")
    assert run([command, "--size", "8", "--perm", str(path)]) == 2
    assert capsys.readouterr() == (
        "",
        f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 4: invalid start byte\n",
    )


def test_map_with_a_byte_order_mark_schedules_as_without(tmp_path, capsys):
    """A UTF-8 map saved with a byte-order mark is read as the same map."""
    text = "".join(f"{s} {d}\n" for s, d in enumerate(SHOWCASE_DESTS))
    plain, marked = tmp_path / "plain.perm", tmp_path / "marked.perm"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    outputs = []
    for path in (plain, marked):
        assert run(["schedule", "--size", "8", "--perm", str(path), "--budget", "1"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["schedule", "--size", "8", "--perm", "PERM"],
        ["bandwidth", "--sizes", "8"],
        ["simulate", "--size", "8", "--random-perms", "2"],
        ["route", "--size", "8", "--perm", "PERM"],
        ["conflicts", "--size", "8", "--perm", "PERM"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_output_exits_2(argv, target, perm_file, tmp_path, capsys):
    """A report that cannot be written is a bad file, like one that cannot be
    read: exit 2, one error line naming the path, nothing on stdout."""
    output = str(tmp_path / "absent" / "out.txt") if target == "missing-dir" else str(tmp_path)
    assert run([perm_file if a == "PERM" else a for a in argv] + ["--output", output]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot write {output}: ") and err.count("\n") == 1


def test_generate_random_permutation_contract():
    net = build_network(8, "omega")
    first = generate_random_permutation(net, substream(17, 0))
    again = generate_random_permutation(net, substream(17, 0))
    assert first == again
    assert sorted(first.dests.tolist()) == list(range(8))
    assert len(first) == net.size


def test_written_permutation_reparses(tmp_path, capsys):
    net = build_network(16, "omega")
    perm = generate_random_permutation(net, substream(23, 4))
    path = tmp_path / "random.perm"
    path.write_text(format_permutation(perm))
    assert parse_permutation(path.read_text(), net) == perm


@pytest.mark.parametrize("sizes", ["8,x", "8,-4", ",", ""])
def test_malformed_sizes_exit_2(sizes, capsys):
    assert run(["bandwidth", "--sizes", sizes]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("crosstalk", [",", ""])
def test_empty_crosstalk_exits_2(crosstalk, capsys):
    assert run(["bandwidth", "--sizes", "8", "--mode", "simulate", "--crosstalk", crosstalk, "--trials", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --crosstalk must list at least one mode")


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ["schedule", "--size", "8", "--perm", "PERM", "--budget", "x"],
            "error: budget must be an integer or 'unlimited', got 'x'\n",
        ),
        (
            ["bandwidth", "--sizes", "8", "--mode", "simulate", "--crosstalk", "budget=x"],
            "error: bad crosstalk mode 'budget=x'\n",
        ),
        (
            ["bandwidth", "--sizes", "8", "--mode", "simulate", "--trials", "0"],
            "error: need at least one trial, got 0\n",
        ),
        (["simulate", "--size", "8", "--random-perms", "0"], "error: need at least one permutation, got 0\n"),
        (
            ["bandwidth", "--sizes", "8", "--crosstalk", "bogus"],
            "error: bad crosstalk mode 'bogus': expected allow, free, or budget=K\n",
        ),
        (["bandwidth", "--sizes", "8", "--mode", "simulate", "--load", "nan"], "error: load must lie in [0, 1], got nan\n"),
        (
            ["bandwidth", "--sizes", "8", "--mode", "simulate", "--load", "2", "--trials", "0"],
            "error: load must lie in [0, 1], got 2.0\n",
        ),
        (["bandwidth", "--sizes", "6"], "error: network size must be a power of two >= 4, got 6\n"),
        (
            ["route", "--size", "8", "--topology", "torus", "--perm", "PERM"],
            "error: unknown topology 'torus': expected 'omega' or 'baseline'\n",
        ),
        (
            ["simulate", "--size", "64", "--algorithm", "exact", "--random-perms", "1"],
            "error: 64 messages exceed the exact-solver cap of 20\n",
        ),
        # int() alone would read "1_0" as 10 and "\u0661" as 1: a value is a map field
        (
            ["schedule", "--size", "8", "--perm", "PERM", "--budget", "1_0"],
            "error: budget must be an integer or 'unlimited', got '1_0'\n",
        ),
        (
            ["schedule", "--size", "8", "--perm", "PERM", "--budget", "\u0661"],
            "error: budget must be an integer or 'unlimited', got '\u0661'\n",
        ),
        (
            ["bandwidth", "--sizes", "8", "--mode", "simulate", "--crosstalk", "budget=1_0"],
            "error: bad crosstalk mode 'budget=1_0'\n",
        ),
        (["bandwidth", "--sizes", "8,1_6"], "error: --sizes must be comma-separated integers, got '8,1_6'\n"),
    ],
    ids=[
        "schedule-budget", "crosstalk-budget", "zero-trials", "zero-perms", "analytic-crosstalk", "nan-load",
        "load-before-trials", "size-not-power-of-two", "unknown-topology", "exact-cap",
        "budget-underscore", "budget-arabic-digit", "crosstalk-underscore", "sizes-underscore",
    ],
)
def test_bad_value_exits_2_with_one_line(argv, err, perm_file, capsys):
    """Each count, budget, mode, size or topology has one check, in the
    library or the parser, and its error is the only line written:
    `--crosstalk` is checked in analytic mode too, though only simulate
    reads it, and a bad load, NaN included, is reported before a bad trial
    count."""
    assert run([perm_file if a == "PERM" else a for a in argv]) == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["route", "--size", "1_6", "--perm", "PERM"], "--size", "1_6"),
        (["bandwidth", "--sizes", "8", "--trials", "1_0"], "--trials", "1_0"),
        (["bandwidth", "--sizes", "8", "--seed", "\u0663"], "--seed", "\u0663"),
        (["simulate", "--size", "8", "--random-perms", "1_0"], "--random-perms", "1_0"),
        (["simulate", "--size", "x"], "--size", "x"),
    ],
    ids=["size-underscore", "trials-underscore", "seed-arabic-digit", "random-perms-underscore", "size-word"],
)
def test_integer_flags_follow_the_map_field_rule(argv, flag, value, perm_file, capsys):
    """argparse names the flag and the value, and exits 2."""
    assert run([perm_file if a == "PERM" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f": error: argument {flag}: invalid int value: {value!r}\n")


@pytest.mark.parametrize(
    "load, outcome",
    [
        ("0_5", "invalid"),
        ("\u0660.\u0665", "invalid"),
        ("1e0", "1.0"),
        (" 0.5 ", "0.5"),
        ("nan", "error: load must lie in [0, 1], got nan\n"),
    ],
    ids=["underscore", "arabic-indic-digits", "exponent", "spaces", "nan"],
)
def test_load_follows_the_field_rule(load, outcome, capsys):
    """A load is ASCII decimal text, or nan or inf, between spaces or tabs:
    float() alone would also read "0_5" and non-ASCII digits.  Text that
    reads is a load, which NaN fails by range; any other text is an
    argparse error, with no row."""
    argv = ["bandwidth", "--sizes", "8", "--load"]
    if outcome == "invalid":
        assert run(argv + [load]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f": error: argument --load: invalid float value: {load!r}\n")
    elif outcome.startswith("error"):
        assert run(argv + [load]) == 2
        assert capsys.readouterr() == ("", outcome)
    else:
        assert run(argv + [outcome]) == 0
        expected = capsys.readouterr()
        assert run(argv + [load]) == 0
        assert capsys.readouterr() == expected


@pytest.mark.parametrize("budget, plain", [(" unlimited", "unlimited"), (" 1 ", "1"), ("\t+0", "0")])
def test_budget_between_spaces_and_tabs(budget, plain, perm_file, capsys):
    """A budget reads alike with spaces and tabs around it, "unlimited" too."""
    argv = ["schedule", "--size", "8", "--perm", perm_file, "--budget"]
    assert run(argv + [plain]) == 0
    expected = capsys.readouterr()
    assert run(argv + [budget]) == 0
    assert capsys.readouterr() == expected


def test_public_errors():
    """The package exports six exception classes, all caught by `run` as
    SimulatorError, and every exported name resolves."""
    errors = {name for name in ominsim.__all__ if name.endswith("Error")}
    assert errors == {
        "SimulatorError", "OutOfRangeError", "ParseError", "DuplicateSourceError", "DuplicateDestinationError",
        "CoverageError",
    }
    assert all(issubclass(getattr(ominsim, name), ominsim.SimulatorError) for name in errors)
    assert all(hasattr(ominsim, name) for name in ominsim.__all__)


@pytest.mark.parametrize("load", [[], ["--load", "2"]], ids=["good-load", "bad-load"])
def test_negative_crosstalk_budget_has_one_message(load, capsys):
    """The parser and the library share one check: the same words, and the
    mode error comes before a bad load's."""
    argv = ["bandwidth", "--sizes", "8", "--mode", "simulate", "--crosstalk", "allow,budget=-1", "--trials", "5"]
    assert run(argv + load) == 2
    assert capsys.readouterr().err == "error: crosstalk budget must be >= 0, got -1\n"
    with pytest.raises(OutOfRangeError, match=r"^crosstalk budget must be >= 0, got -1$"):
        monte_carlo(build_network(8, "omega"), 1.0, [None, -1], trials=2, seed=1)


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_out_of_range_seed_exits_2(seed, capsys):
    assert run(["bandwidth", "--sizes", "8", "--mode", "simulate", "--trials", "5", "--seed", seed]) == 2
    assert run(["bandwidth", "--sizes", "8", "--seed", seed]) == 2
    assert run(["simulate", "--size", "8", "--random-perms", "2", "--seed", seed]) == 2
    assert capsys.readouterr().err.count("error: seed must lie in [0, 2^64)") == 3


def test_largest_seed_accepted(capsys):
    seed = str((1 << 64) - 1)
    assert run(["bandwidth", "--sizes", "8", "--mode", "simulate", "--trials", "5", "--seed", seed]) == 0
    assert run(["simulate", "--size", "8", "--random-perms", "2", "--seed", seed]) == 0
