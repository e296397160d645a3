import json

import pytest

from ominsim import NotPowerOfTwoError, OutOfRangeError, TrafficModel, build_network, monte_carlo, parse_permutation
from ominsim.analysis import generate_random_permutation
from ominsim.cli import build_parser, run
from ominsim.streams import substream

from .conftest import SHOWCASE_DESTS


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


def test_generate_random_permutation_contract():
    first = generate_random_permutation(8, substream(17, 0))
    again = generate_random_permutation(8, substream(17, 0))
    assert first == again
    assert sorted(first.destinations()) == list(range(8))
    assert not first.partial
    with pytest.raises(NotPowerOfTwoError):
        generate_random_permutation(6, substream(17, 0))


def test_written_permutation_reparses(tmp_path, capsys):
    from ominsim import format_permutation

    perm = generate_random_permutation(16, substream(23, 4))
    path = tmp_path / "random.perm"
    path.write_text(format_permutation(perm))
    net = build_network(16, "omega")
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


@pytest.mark.parametrize("load", [[], ["--load", "2"]], ids=["good-load", "bad-load"])
def test_negative_crosstalk_budget_has_one_message(load, capsys):
    """The parser and the library share one check: the same words, and the
    mode error comes before a bad load's."""
    argv = ["bandwidth", "--sizes", "8", "--mode", "simulate", "--crosstalk", "allow,budget=-1", "--trials", "5"]
    assert run(argv + load) == 2
    assert capsys.readouterr().err == "error: crosstalk budget must be >= 0, got -1\n"
    with pytest.raises(OutOfRangeError, match=r"^crosstalk budget must be >= 0, got -1$"):
        monte_carlo(build_network(8, "omega"), TrafficModel(), [None, -1], trials=2, seed=1)


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
