"""Workloads of the ominsim benchmark: generated inputs, output checks and
trial-by-trial oracles.

Every input is a pure function of the benchmark seed.  Per-call seeds and
permutations come from this file's own SplitMix64, which follows the rule
documented in the ominsim README, so the program under test only ever sees
the argv and the permutation files made here.

Checks test invariants, never golden values: a change to how modes are
resolved may move the numbers without failing the benchmark, as long as the
output stays well formed, the modes nest and the oracle agrees.
"""
from __future__ import annotations

import json
import re
from contextlib import nullcontext
from pathlib import Path

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
MODES = ("allow", "budget=1", "free")


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def splitmix64(x: int) -> int:
    return _mix((x + _GOLDEN) & MASK64)


class SplitMix:
    """SplitMix64 with the draw rules of the ominsim README."""

    def __init__(self, state: int):
        self.state = state & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & MASK64
        return _mix(self.state)

    def below(self, bound: int) -> int:
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound

    def bernoulli(self, p: float) -> bool:
        return self.next_u64() < int(p * (1 << 64))


def trial_stream(seed: int, index: int) -> SplitMix:
    """state_0 = splitmix64(splitmix64(seed) XOR index), as documented."""
    return SplitMix(splitmix64(splitmix64(seed & MASK64) ^ (index & MASK64)))


def call_seed(seed: int, salt: int, index: int) -> int:
    """The --seed of call `index` of a workload: 62 bits, so any CLI accepts it."""
    return trial_stream(seed ^ salt, index).next_u64() >> 2


def shuffled(size: int, stream: SplitMix) -> list[int]:
    """Fisher-Yates from the top, one below(i + 1) draw per position."""
    dest = list(range(size))
    for i in range(size - 1, 0, -1):
        j = stream.below(i + 1)
        dest[i], dest[j] = dest[j], dest[i]
    return dest


def _no_span(name: str):
    return nullcontext()


def rederive_bandwidth(om, net, make_stream, seed: int, trials: int, load: float, span=_no_span) -> dict:
    """Replay a `bandwidth --mode simulate` call trial by trial.

    Each trial draws one Bernoulli(load) per input line, then one destination
    per active line, and resolves the batch with the public
    resolve_single_pass, once for allow alone and once for the budget chain.
    Returns the totals over all trials; raises ValueError when the two
    resolutions disagree on the allow survivors.
    """
    resolve, message = om.analysis.resolve_single_pass, om.routing.Message
    size = net.size
    totals = dict.fromkeys(("offered",) + MODES, 0)
    for t in range(trials):
        with span("streams.sample"):
            stream = make_stream(seed, t)
            active = [stream.bernoulli(load) for _ in range(size)]
            requests = [message(s, stream.below(size)) for s in range(size) if active[s]]
        with span("analysis.allow"):
            allow = resolve(net, requests)[None]
        with span("analysis.chain"):
            chain = resolve(net, requests, budgets=[1, 0])
        if chain[None] != allow:
            raise ValueError(f"trial {t}: allow survivors differ between resolutions")
        totals["offered"] += len(requests)
        for label, mode in zip(MODES, (None, 1, 0)):
            totals[label] += len(chain[mode])
    return totals


def rederive_study(om, net, seed: int) -> dict:
    """Replay a one-permutation `simulate` call: Fisher-Yates on the trial-0
    stream, then the budget chain through resolve_single_pass."""
    dest = shuffled(net.size, trial_stream(seed, 0))
    requests = [om.routing.Message(s, d) for s, d in enumerate(dest)]
    chain = om.analysis.resolve_single_pass(net, requests, budgets=[1, 0])
    return {label: len(chain[mode]) for label, mode in zip(MODES, (None, 1, 0))}


def _rounded(x: float) -> float:
    """The CLI renders floats with six significant digits."""
    return float(f"{x:.6g}")


def _nested(values: list[float]) -> bool:
    return all(a >= b for a, b in zip(values, values[1:]))


class Workload:
    """A deterministic infinite sequence of CLI calls.

    Call i runs argv(i).  Calls with the same key(i) have the same input and
    must print the same bytes.  The outputs of keys 0 .. core_calls - 1 make
    the output digest; every run makes at least that many calls.  A timed
    call is run `repeats` times; cheaper calls afford more runs.
    """

    name = ""
    salt = 0
    unit = ""
    units_per_call = 1
    core_calls = 1
    repeats = 3

    def __init__(self, om, seed: int, workdir: Path):
        self.om = om
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        """Generate and write the inputs that calls read from files."""

    def key(self, i: int) -> int:
        return i

    def argv(self, i: int) -> list[str]:
        raise NotImplementedError

    def argv_shape(self) -> list[str]:
        raise NotImplementedError

    def check(self, i: int, out: str) -> list[str]:
        """Problems found in the output of call i; empty when it is correct."""
        raise NotImplementedError


class MonteCarlo(Workload):
    """`bandwidth --mode simulate` at N=256, one fresh seed per call.

    Time goes to request sampling and the allow and budget sweeps; there is
    no conflict graph and no scheduler.  A vectorised Monte Carlo kernel
    should move this workload and leave the other two alone.  Twenty trials
    a call keep the per-call overhead of the CLI small beside the trials.
    """

    name = "mc_omega_n256"
    salt = 0x6D63
    unit = "trials/s"
    size = 256
    trials = 20
    units_per_call = trials
    core_calls = 8
    repeats = 6
    load = 1.0

    def __init__(self, om, seed, workdir):
        super().__init__(om, seed, workdir)
        self.net = om.topology.build_network(self.size, "omega")

    def call_seed(self, i: int) -> int:
        return call_seed(self.seed, self.salt, i)

    def _argv(self, seed: str) -> list[str]:
        return [
            "bandwidth", "--mode", "simulate", "--sizes", str(self.size), "--topology", "omega",
            "--crosstalk", ",".join(MODES), "--load", str(self.load),
            "--trials", str(self.trials), "--seed", seed, "--format", "json",
        ]

    def argv(self, i):
        return self._argv(str(self.call_seed(i)))

    def argv_shape(self):
        return self._argv("<call seed>")

    def check(self, i, out):
        try:
            rows = json.loads(out)
            problems = []
            if [r["mode"] for r in rows] != list(MODES):
                problems.append(f"modes {[r['mode'] for r in rows]} != {list(MODES)}")
            for r in rows:
                echo = (r["size"], r["topology"], r["load"], r["trials"], r["seed"])
                if echo != (self.size, "omega", self.load, self.trials, self.call_seed(i)):
                    problems.append(f"row {r['mode']} echoes {echo}")
                if not (0 <= r["mean_bw"] <= self.size and r["stderr"] >= 0 and 0 <= r["passability"] <= 1):
                    problems.append(f"row {r['mode']} out of range: {r}")
            if not _nested([r["mean_bw"] for r in rows]):
                problems.append("mean_bw not nested allow >= budget=1 >= free")
            return problems
        except (ValueError, KeyError, TypeError) as exc:
            return [f"malformed bandwidth output: {exc!r}"]

    def compare(self, out: str, totals: dict) -> list[str]:
        """CLI means and passabilities against re-derived totals, digit for digit."""
        try:
            rows = {r["mode"]: r for r in json.loads(out)}
            problems = []
            for label in MODES:
                want = (_rounded(totals[label] / self.trials), _rounded(totals[label] / totals["offered"]))
                got = (rows[label]["mean_bw"], rows[label]["passability"])
                if got != want:
                    problems.append(f"{label}: CLI reports {got}, trial-by-trial replay gives {want}")
            return problems
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            return [f"cannot compare bandwidth output: {exc!r}"]

    def oracle(self, i: int, out: str) -> list[str]:
        """Problems found by replaying call i with this file's SplitMix64."""
        try:
            totals = rederive_bandwidth(self.om, self.net, trial_stream, self.call_seed(i), self.trials, self.load)
        except ValueError as exc:
            return [str(exc)]
        return self.compare(out, totals)


class Schedule(Workload):
    """`schedule --algorithm greedy` at N=512 over random full permutations
    written in set-up, budget 0 and 1 alternating.

    The all-pairs conflict graph, first-fit admission and the trace-based
    validator do the work; Monte Carlo is not touched.  Conflict detection
    by switch should move this workload.
    """

    name = "schedule_omega_n512"
    salt = 0x7363
    unit = "messages/s"
    size = 512
    units_per_call = size
    perms = 64
    core_calls = 32

    def __init__(self, om, seed, workdir):
        super().__init__(om, seed, workdir)
        self.net = om.topology.build_network(self.size, "omega")
        self.maps = []
        self.last_violations = 0

    def _path(self, p: int) -> Path:
        return self.workdir / f"perm{p:02d}.perm"

    def prepare(self):
        self.maps = []
        for p in range(self.perms):
            dest = shuffled(self.size, trial_stream(self.seed ^ self.salt, p))
            self._path(p).write_text("".join(f"{s} {d}\n" for s, d in enumerate(dest)), encoding="utf-8")
            self.maps.append(self.om.routing.full_permutation(self.net, dest))

    def key(self, i):
        return i % (2 * self.perms)

    def _argv(self, budget: str, perm: str) -> list[str]:
        return [
            "schedule", "--size", str(self.size), "--topology", "omega", "--algorithm", "greedy",
            "--budget", budget, "--perm", perm,
        ]

    def argv(self, i):
        key = self.key(i)
        return self._argv(str(key % 2), str(self._path(key // 2)))

    def argv_shape(self):
        return self._argv("<0 on even calls, 1 on odd>", f"<one of {self.perms} set-up .perm files>")

    def check(self, i, out):
        """Re-validate the printed schedule with validate_schedule, mapping
        sources back to message indices.  The number of violations found is
        kept in self.last_violations for the trace."""
        self.last_violations = 0
        key = self.key(i)
        budget, perm = key % 2, self.maps[key // 2]
        sch, errors = self.om.scheduler, self.om.errors
        body, _, last = out.rstrip("\n").rpartition("\n")
        match = re.fullmatch(r"passes: (\d+)", last)
        if not match:
            return [f"last line {last!r} is not 'passes: N'"]
        try:
            doc = json.loads(body)
            echo = (doc["size"], doc["topology"], doc["budget"], doc["algorithm"], doc["violations"])
            if echo != (self.size, "omega", budget, "greedy", []):
                return [f"schedule echoes {echo}"]
            if len(doc["passes"]) != int(match.group(1)):
                return [f"{len(doc['passes'])} passes in JSON, {match.group(1)} on the passes line"]
            index = {m.source: k for k, m in enumerate(perm.pairs)}
            passes = [[index[s] for s in members] for members in doc["passes"]]
            config = sch.ScheduleConfig(budget=budget, algorithm=sch.Algorithm.GREEDY_ORDER)
            report = sch.validate_schedule(self.net, perm, sch.Schedule(passes, config, []), config)
        except (ValueError, KeyError, TypeError, errors.SimulatorError) as exc:
            return [f"invalid schedule: {exc!r}"]
        self.last_violations = len(report.violations)
        return [f"{v.kind} violation in pass {v.pass_index}" for v in report.violations[:3]]


class Study(Workload):
    """`simulate --algorithm exact` on one N=16 baseline permutation per call.

    Not a timed workload: on a host whose speed drifts, its ~2 ms calls and
    the exact solver's heavy tail made throughput spread too widely from run
    to run.  Every run still checks and replays ten of these calls, which
    covers fixed-permutation traffic on traced baseline paths.
    """

    name = "study_baseline_n16"
    salt = 0x7374
    size = 16
    oracle_calls = 10

    def __init__(self, om, seed, workdir):
        super().__init__(om, seed, workdir)
        self.net = om.topology.build_network(self.size, "baseline")

    def call_seed(self, i: int) -> int:
        return call_seed(self.seed, self.salt, i)

    def argv(self, i):
        return [
            "simulate", "--size", str(self.size), "--topology", "baseline", "--budget", "1",
            "--algorithm", "exact", "--random-perms", "1", "--seed", str(self.call_seed(i)),
        ]

    def check(self, i, out):
        try:
            doc = json.loads(out)
            echo = (doc["size"], doc["topology"], doc["trials"], doc["seed"], doc["budget"], doc["algorithm"])
            if echo != (self.size, "baseline", 1, self.call_seed(i), 1, "exact"):
                return [f"study echoes {echo}"]
            rows = doc["modes"]
            problems = []
            if [r["mode"] for r in rows] != list(MODES):
                problems.append(f"modes {[r['mode'] for r in rows]} != {list(MODES)}")
            matured = [r["mean_matured"] for r in rows]
            if not (_nested(matured) and 0 <= matured[-1] and matured[0] <= self.size):
                problems.append(f"matured counts {matured} do not nest within [0, {self.size}]")
            histogram = {int(k): v for k, v in doc["pass_histogram"].items()}
            if sum(histogram.values()) != 1 or min(histogram) < 1:
                problems.append(f"pass histogram {histogram} does not cover one permutation")
            elif doc["mean_passes"] != _rounded(sum(k * v for k, v in histogram.items())):
                problems.append(f"mean_passes {doc['mean_passes']} disagrees with {histogram}")
            return problems
        except (ValueError, KeyError, TypeError) as exc:
            return [f"malformed study output: {exc!r}"]

    def oracle(self, i: int, out: str) -> list[str]:
        """Problems found by replaying call i with this file's SplitMix64."""
        counts = rederive_study(self.om, self.net, self.call_seed(i))
        try:
            got = {r["mode"]: r["mean_matured"] for r in json.loads(out)["modes"]}
        except (ValueError, KeyError, TypeError) as exc:
            return [f"cannot compare study output: {exc!r}"]
        want = {label: float(n) for label, n in counts.items()}
        return [] if got == want else [f"CLI reports {got}, replay gives {want}"]


WORKLOADS = {w.name: w for w in (MonteCarlo, Schedule)}
