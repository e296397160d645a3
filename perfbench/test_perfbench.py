"""Tests of the benchmark itself: python3 -m pytest perfbench"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

sys.path.insert(0, str(run.SRC))
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def om():
    return run.load_ominsim()


def _inputs(om, name, seed, tmp_path):
    tmp_path.mkdir()
    wl = workloads.WORKLOADS[name](om, seed, tmp_path)
    wl.prepare()
    files = {p.name: p.read_text() for p in sorted(tmp_path.glob("*.perm"))}
    return [wl.argv(i) for i in range(2 * wl.core_calls)], files


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(om, name, tmp_path):
    a = _inputs(om, name, 7, tmp_path / "a")
    b = _inputs(om, name, 7, tmp_path / "b")
    c = _inputs(om, name, 8, tmp_path / "c")
    assert [[t.replace(str(tmp_path / "a"), "") for t in argv] for argv in a[0]] == [
        [t.replace(str(tmp_path / "b"), "") for t in argv] for argv in b[0]
    ]
    assert a[1] == b[1]
    assert a != c


def test_splitmix_matches_the_documented_rule(om):
    ours, theirs = workloads.trial_stream(12345, 6), om.streams.substream(12345, 6)
    assert [ours.next_u64() for _ in range(5)] == [theirs.next_u64() for _ in range(5)]
    assert [ours.below(13) for _ in range(50)] == [theirs.below(13) for _ in range(50)]


def _call(om, wl, i):
    code, out, err, _ = run.call_cli(om.cli, wl.argv(i))
    assert code == 0, err
    return out


def test_corrupted_schedule_is_a_failure(om, tmp_path):
    wl = workloads.Schedule(om, 3, tmp_path)
    wl.prepare()
    out = _call(om, wl, 0)
    assert wl.check(0, out) == []
    body, _, last = out.rstrip("\n").rpartition("\n")
    doc = json.loads(body)

    def render(passes, last=last):
        return json.dumps({**doc, "passes": passes}, indent=2) + "\n" + last + "\n"

    first, second = doc["passes"][0], doc["passes"][1]
    merged = [sorted(first + second)] + doc["passes"][2:]
    assert wl.check(0, render(merged, f"passes: {len(merged)}"))  # conflicting messages share a pass
    assert wl.check(0, render([first[1:]] + doc["passes"][1:]))  # a message is missing
    assert wl.check(0, render([first + first[:1]] + doc["passes"][1:]))  # a message twice
    assert wl.check(0, render(doc["passes"], "passes: 1"))  # passes line disagrees
    assert wl.check(0, out.replace('"budget": 0', '"budget": 1'))

    ledger = run.Ledger()
    ledger.workload = wl
    ledger.settle(0, 0, out, "")
    ledger.settle(1, 0, render(merged, f"passes: {len(merged)}"), "")
    ledger.settle(2, 2, "", "error: boom")
    assert (ledger.attempted, ledger.failed) == (3, 2)


def test_wrong_mean_is_a_failure(om, tmp_path):
    mc = workloads.MonteCarlo(om, 4, tmp_path)
    out = _call(om, mc, 0)
    assert mc.check(0, out) == [] and mc.oracle(0, out) == []
    rows = json.loads(out)
    rows[2]["mean_bw"] = round(rows[2]["mean_bw"] + 0.02, 6)
    assert mc.check(0, json.dumps(rows)) == []  # still well formed and nested
    assert mc.oracle(0, json.dumps(rows))

    study = workloads.Study(om, 4, tmp_path)
    out = _call(om, study, 0)
    assert study.check(0, out) == [] and study.oracle(0, out) == []
    doc = json.loads(out)
    doc["modes"][0]["mean_matured"] += 1
    assert study.oracle(0, json.dumps(doc))


def test_repeated_input_with_other_output_is_a_failure(om, tmp_path):
    wl = workloads.Schedule(om, 5, tmp_path)
    wl.prepare()
    out = _call(om, wl, 0)
    ledger = run.Ledger()
    ledger.workload = wl
    ledger.settle(0, 0, out, "")
    ledger.settle(wl.core_calls, 0, out.replace("\n", "\n ", 1), "")
    assert ledger.failed == 1


def _small(monkeypatch):
    monkeypatch.setattr(run, "MIN_CALLS", 10)
    monkeypatch.setattr(workloads.MonteCarlo, "core_calls", 2)
    monkeypatch.setattr(workloads.MonteCarlo, "trials", 5)
    monkeypatch.setattr(workloads.MonteCarlo, "units_per_call", 5)
    monkeypatch.setattr(workloads.Schedule, "perms", 2)
    monkeypatch.setattr(workloads.Schedule, "core_calls", 4)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(name, trace, monkeypatch, capsys):
    _small(monkeypatch)
    assert run.main(["--workload", name, "--seed", "1", "--seconds", "1", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, lines[-2]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for m in declared:
        assert f"{name} {m['name']} " in "\n".join(lines[:-2])
    info = json.loads(lines[-2])["info"]
    assert info["outputs_sha256"] and info["provenance"]["seed"] == 1
    if trace:
        metrics = {n: m["value"] for n, m in result["metrics"].items()}
        assert metrics["scheduler.violations"] == 0
        if name == "mc_omega_n256":
            assert metrics["analysis.offered"] == 2 * 5 * 256


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "mc_omega_n256", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
