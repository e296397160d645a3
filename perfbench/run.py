"""Benchmark of the ominsim CLI, end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc_omega_n256 --seed 1 --seconds 40 --trace 0

The workloads (see workloads.py) drive the in-process entry point
ominsim.cli.run(argv) with argv and permutation files generated from --seed,
in one process with no extra threads: a closed loop with one caller, each
call starting when the previous one has returned.

--trace 0 measures, with tracing off, per workload:
  setup_s      median of five or more set-ups: import ominsim, build the
               network, generate the inputs, one warm-up call
  throughput   work units per second of CLI-call time (unit in the info line)
  op_p50_ms    median per-call wall time over at least 50 calls
  peak_rss_mb  peak resident set size of the process
Every timed call is run several times, a pass apart, and timed by its
fastest run (see measure), so a run lasts --seconds or until each of at
least 50 calls has had all its runs, whichever is longer.  The p90 over
those calls, with the count of calls above it, is printed in the info line
but not gated: on a host whose speed drifts it flips between the fast and
the slow state from run to run.
--trace 1 runs each core call untraced and then traced, for the tracing
overhead, then keeps making traced calls for --seconds.  Spans go around
the public functions the CLI calls (spans.py); it prints the per-layer
metrics.

Every call's output is checked (workloads.py); calls with one input must
print the same bytes.  After the loop, one Monte Carlo call and ten study
calls are re-derived trial by trial through resolve_single_pass.  A failed
check counts the call as failed.  The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it carries
provenance, the output digest and fail_frac.  Spans and results are also
written to .perfbench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("analysis", "cli", "errors", "routing", "scheduler", "streams", "topology")
SETUPS = 5
MIN_CALLS = 50
DEADLINE_S = 150.0
END_TO_END_UNITS = {"setup_s": "s", "throughput": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def load_ominsim() -> SimpleNamespace:
    """Import ominsim afresh from the checkout's src/."""
    for name in [n for n in sys.modules if n == "ominsim" or n.startswith("ominsim.")]:
        del sys.modules[name]
    om = SimpleNamespace(**{m: importlib.import_module(f"ominsim.{m}") for m in MODULES})
    if not Path(om.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ominsim was imported from {om.cli.__file__}, not from {SRC}")
    return om


def call_cli(cli, argv: list[str]) -> tuple[int | str, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.run(argv)
        except Exception as exc:  # a crash is a failed call, not a failed benchmark
            code = f"raised {exc!r}"
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


class Ledger:
    """Attempted and failed calls, first outputs per input and their digest."""

    def __init__(self):
        self.workload: workloads.Workload | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.outputs: dict[int, str] = {}

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems.append(f"{what}: {'; '.join(problems)}")

    def settle(self, i: int, code, out: str, err: str, extra: list[str] = ()) -> None:
        """Check the output of call i in full."""
        wl = self.workload
        problems = wl.check(i, out) if code == 0 else [f"exit {code}: {err.strip()[-300:]}"]
        problems += extra
        key = wl.key(i)
        if key < wl.core_calls and self.outputs.setdefault(key, out) != out:
            problems.append("output differs from an earlier call with the same input")
        self.attempted += 1
        if problems:
            self.fail(f"call {i}", problems)

    def repeat(self, i: int, code, digest: bytes, first: bytes) -> None:
        """A repeat of call i must print what the first run printed."""
        self.attempted += 1
        if code != 0 or digest != first:
            self.fail(f"call {i} repeated", [f"exit {code}" if code != 0 else "output changed"])

    def digest(self) -> str | None:
        keys = range(self.workload.core_calls)
        if any(k not in self.outputs for k in keys):
            return None
        h = hashlib.sha256()
        for k in keys:
            h.update(f"{k}\n".encode())
            h.update(self.outputs[k].encode())
        return h.hexdigest()


def set_up(name: str, seed: int, workdir: Path, ledger: Ledger, warm_up: int):
    """One timed set-up: import ominsim afresh, build the network, generate
    the inputs and make call `warm_up`, whose output is then checked.
    Returns the workload and the set-up time."""
    start = time.perf_counter()
    om = load_ominsim()
    wl = workloads.WORKLOADS[name](om, seed, workdir)
    wl.prepare()
    code, out, err, _ = call_cli(om.cli, wl.argv(warm_up))
    elapsed = time.perf_counter() - start
    ledger.workload = wl
    ledger.settle(warm_up, code, out, err)
    return wl, elapsed


def done(started: float, seconds: float, calls: int, min_calls: int) -> bool:
    elapsed = time.perf_counter() - started
    return elapsed >= DEADLINE_S or (calls >= min_calls and elapsed >= seconds)


def measure(name, seed, workdir, ledger, seconds) -> tuple[workloads.Workload, dict, dict]:
    """The first pass makes calls 0, 1, ... for seconds / wl.repeats, and at
    least MIN_CALLS of them; further passes repeat those calls in order.  A
    call's time is its fastest run: slowdowns from other tenants of a shared
    machine come and go over seconds to minutes, and the runs of one call
    lie a pass apart.  For the same reason the set-ups are spread out: one
    before each pass, each pass using the workload of the set-up before it,
    and the rest of the SETUPS after the last pass."""
    setup_times: list[float] = []

    def fresh_set_up():
        wl, elapsed = set_up(name, seed, workdir, ledger, len(setup_times))
        setup_times.append(elapsed)
        return wl

    wl = fresh_set_up()
    started = time.perf_counter()
    first: list[bytes] = []
    best: list[float] = []
    while not done(started, seconds / wl.repeats, len(best), max(MIN_CALLS, wl.core_calls)):
        i = len(best)
        code, out, err, elapsed = call_cli(wl.om.cli, wl.argv(i))
        ledger.settle(i, code, out, err)
        first.append(hashlib.sha256(out.encode()).digest())
        best.append(elapsed)
    for _ in range(wl.repeats - 1):
        wl = fresh_set_up()
        for i in range(len(best)):
            if time.perf_counter() - started >= DEADLINE_S:
                break
            code, out, _, elapsed = call_cli(wl.om.cli, wl.argv(i))
            ledger.repeat(i, code, hashlib.sha256(out.encode()).digest(), first[i])
            best[i] = min(best[i], elapsed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup_times) < SETUPS:
        wl = fresh_set_up()
    deciles = statistics.quantiles(best, n=10)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "throughput": wl.units_per_call * len(best) / sum(best),
        "op_p50_ms": 1000 * deciles[4],
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "calls": len(best),
        "runs_per_call": wl.repeats,
        "op_p90_ms": 1000 * deciles[8],
        "calls_above_p90": sum(1 for t in best if t > deciles[8]),
        "throughput_unit": wl.unit,
        "setup_s_samples": setup_times,
    }
    return wl, {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in metrics.items()}, info


def trace(name, seed, workdir, ledger, seconds) -> tuple[workloads.Workload, dict, dict, list]:
    """Each core call untraced and then traced, for the tracing overhead;
    then traced calls until `seconds` have passed."""
    wl, _ = set_up(name, seed, workdir, ledger, 0)
    om = wl.om
    started = time.perf_counter()
    tracer = spans.Tracer()

    def traced_call(i):
        tracer.op, tracer.counting = i, i < wl.core_calls
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), tracer.span(spans.ROOT) as root:
            try:
                code = om.cli.run(wl.argv(i))
            except Exception as exc:  # a crash is a failed call, not a failed benchmark
                code = f"raised {exc!r}"
        extra = probe(wl, i, out.getvalue(), tracer) if code == 0 else []
        ledger.settle(i, code, out.getvalue(), err.getvalue(), extra)
        if isinstance(wl, workloads.Schedule):
            tracer.count("scheduler.violations", wl.last_violations)
        return root[5] - root[4]

    untraced, traced = [], []
    while not done(started, seconds, len(traced), wl.core_calls):
        i = len(traced)
        if i < wl.core_calls:
            code, out, err, elapsed = call_cli(om.cli, wl.argv(i))
            ledger.settle(i, code, out, err)
            untraced.append(elapsed)
        with spans.instrumented(tracer, om):
            traced.append(traced_call(i))
    overhead = sum(traced[: len(untraced)]) / sum(untraced) - 1
    metrics = spans.layer_metrics(tracer, len(traced), overhead)
    info = {"calls": len(traced), "spans": len(tracer.spans)}
    return wl, {n: {"value": v, "unit": spans.UNITS[n]} for n, v in metrics.items()}, info, tracer.spans


def cross_check(name: str, seed: int, workdir: Path, om, ledger: Ledger) -> None:
    """Replay one Monte Carlo call and ten study calls trial by trial through
    resolve_single_pass.  A Monte Carlo run reuses its own output of call 0;
    the other calls are made here, untimed, and checked as well."""
    for other, calls in ((workloads.MonteCarlo, 1), (workloads.Study, workloads.Study.oracle_calls)):
        wl = other(om, seed, workdir)
        for i in range(calls):
            if other.name == name:
                problems = wl.oracle(i, ledger.outputs[i])
            else:
                code, out, err, _ = call_cli(om.cli, wl.argv(i))
                ledger.attempted += 1
                problems = wl.check(i, out) + wl.oracle(i, out) if code == 0 else [f"exit {code}: {err.strip()[-300:]}"]
            if problems:
                ledger.fail(f"{other.name} call {i}", problems)


def probe(wl, i: int, out: str, tracer: spans.Tracer) -> list[str]:
    """Direct calls after a traced op: the Monte Carlo trial-by-trial
    decomposition, which must match the CLI's means, or trace_path over
    every message of a scheduled permutation."""
    if isinstance(wl, workloads.MonteCarlo):
        try:
            totals = workloads.rederive_bandwidth(
                wl.om, wl.net, wl.om.streams.substream, wl.call_seed(i), wl.trials, wl.load, tracer.span
            )
        except ValueError as exc:
            return [str(exc)]
        tracer.count("analysis.offered", totals["offered"])
        for label, counter in zip(workloads.MODES, ("allow", "budget1", "free")):
            tracer.count(f"analysis.matured.{counter}", totals[label])
        return wl.compare(out, totals)
    if isinstance(wl, workloads.Schedule):
        perm = wl.maps[wl.key(i) // 2]
        with tracer.span("routing.trace"):
            for msg in perm.pairs:
                wl.om.routing.trace_path(wl.net, msg)
    return []


def git_commit() -> str:
    """HEAD's commit, read from .git without running git; "unknown" outside
    a git checkout or when the branch ref is packed."""
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(name: str, seed: int, seconds: int, wl) -> dict:
    import numpy

    source = hashlib.sha256()
    for path in sorted((SRC / "ominsim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "argv_shape": wl.argv_shape(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ominsim" / "__init__.py").is_file():
        print(f"perfbench: no ominsim sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  numpy's own import is not ominsim's set-up

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    try:
        ledger = Ledger()
        if args.trace:
            wl, metrics, info, span_list = trace(args.workload, args.seed, workdir, ledger, args.seconds)
        else:
            wl, metrics, info = measure(args.workload, args.seed, workdir, ledger, args.seconds)
            span_list = None
        cross_check(args.workload, args.seed, workdir, wl.om, ledger)
        digest = ledger.digest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info.update(
        outputs_sha256=digest,
        outputs_sha256_calls=wl.core_calls,
        fail_frac=ledger.failed / ledger.attempted,
        problems=ledger.problems[:10],
        provenance=provenance(args.workload, args.seed, args.seconds, wl),
    )
    result = {
        "correct": ledger.failed == 0 and digest is not None,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"info": info, "result": result, "spans": span_list}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    for metric, entry in metrics.items():
        print(f"{args.workload} {metric} {entry['value']:.6g} {entry['unit']}")
    print(f"{args.workload} fail_frac {info['fail_frac']:.6g} ratio")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
