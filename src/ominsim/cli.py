"""Command-line front end: routing tables, conflict edge lists, schedules,
and bandwidth experiments with byte-stable CSV/JSON output.

Exit status: 0 on success, 2 on bad input (flags, files, ranges), a network
too large to allocate included, 1 when an internal invariant fails.
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .analysis import (
    Mode,
    analytic_bandwidth,
    check_mode,
    mode_label,
    monte_carlo,
    random_permutation_study,
)
from .conflict import edges_csv, shared_pairs
from .errors import ParseError, SimulatorError
from .routing import _FIELD, parse_permutation, path_table
from .scheduler import (
    Algorithm,
    ScheduleConfig,
    schedule_exact,
    schedule_greedy,
    schedule_json,
    validate_schedule,
)
from .streams import check_seed
from .topology import build_network, wiring


def _fmt(x: float) -> str:
    """Floats rendered with up to six significant decimals, locale-free."""
    return f"{x:.6g}"


def _jnum(x: float) -> float:
    return float(_fmt(x))


def _read_text(path: str) -> str:
    """The file as UTF-8 text, less one leading byte-order mark."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None


def _integer(token: str) -> int:
    """The argparse type of the integer flags: token, less spaces and tabs
    around it, read by the map-field rule (ASCII digits with an optional
    sign); int() alone would also read "1_0" and non-ASCII digits."""
    field = token.strip(" \t")
    if not _FIELD.fullmatch(field):
        raise argparse.ArgumentTypeError(f"invalid int value: {token!r}")
    return int(field)


# The text of a --load: ASCII decimal, or nan and inf in any case, which
# the range check then names; float() alone would also read "0_5" and
# non-ASCII digits.
_DECIMAL = re.compile(r"[+-]?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|nan|inf)", re.IGNORECASE)


def _decimal(token: str) -> float:
    """The argparse type of --load: token, less spaces and tabs around it,
    read by the field rule of the integer flags widened to decimals."""
    field = token.strip(" \t")
    if not _DECIMAL.fullmatch(field):
        raise argparse.ArgumentTypeError(f"invalid float value: {token!r}")
    return float(field)


def _parse_budget(token: str) -> int | None:
    if token.strip(" \t").lower() == "unlimited":
        return None
    try:
        value = _integer(token)
    except argparse.ArgumentTypeError:
        raise ParseError(f"budget must be an integer or 'unlimited', got {token!r}") from None
    return value


def _parse_mode(token: str) -> Mode:
    token = token.strip(" \t").lower()
    if token == "allow":
        return None
    if token == "free":
        return 0
    if token.startswith("budget="):
        try:
            value = _integer(token[len("budget="):])
        except argparse.ArgumentTypeError:
            raise ParseError(f"bad crosstalk mode {token!r}") from None
        return check_mode(value)
    raise ParseError(f"bad crosstalk mode {token!r}: expected allow, free, or budget=K")


def _cmd_route(args) -> int:
    net = build_network(args.size, args.topology)
    perm = parse_permutation(_read_text(args.perm), net)
    out = path_table(net, perm.sources, perm.dests)
    stage = np.arange(1, net.stages + 1)
    # the line entering each stage: the source or the previous out-line, rewired
    into = wiring(net)[stage - 1, np.c_[perm.sources, out[:, :-1]]]
    columns = np.broadcast_arrays(perm.sources[:, None], perm.dests[:, None], stage, out >> 1, into & 1, out & 1)
    rows = map("{},{},{},{},{},{}".format, *(column.ravel().tolist() for column in columns))
    _emit("\n".join(["source,destination,stage,switch,in_port,out_port", *rows]) + "\n", args.output)
    return 0


def _cmd_conflicts(args) -> int:
    net = build_network(args.size, args.topology)
    perm = parse_permutation(_read_text(args.perm), net)
    _emit(edges_csv(*shared_pairs(path_table(net, perm.sources, perm.dests))), args.output)
    return 0


def _cmd_schedule(args) -> int:
    net = build_network(args.size, args.topology)
    perm = parse_permutation(_read_text(args.perm), net)
    config = ScheduleConfig(
        budget=_parse_budget(args.budget),
        algorithm=Algorithm(args.algorithm),
    )
    if config.algorithm is Algorithm.EXACT:
        schedule = schedule_exact(net, perm, config)
    else:
        schedule = schedule_greedy(net, perm, config)
    report = validate_schedule(net, perm, schedule, config)
    if report.violations:
        print(f"internal error: emitted schedule has {len(report.violations)} violations", file=sys.stderr)
        return 1
    _emit(schedule_json(net, perm, schedule), args.output)
    print(f"passes: {len(schedule.passes)}")
    return 0


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [_integer(tok) for tok in text.split(",") if tok]
    except argparse.ArgumentTypeError:
        raise ParseError(f"--sizes must be comma-separated integers, got {text!r}") from None
    if not sizes:
        raise ParseError(f"--sizes must list at least one size, got {text!r}")
    return sizes


def _parse_modes(text: str) -> list[Mode]:
    modes = [_parse_mode(tok) for tok in text.split(",") if tok]
    if not modes:
        raise ParseError(f"--crosstalk must list at least one mode, got {text!r}")
    return modes


def _bandwidth_rows(args) -> list[dict]:
    sizes = _parse_sizes(args.sizes)
    check_seed(args.seed)
    modes = _parse_modes(args.crosstalk)
    rows: list[dict] = []
    for size in sizes:
        net = build_network(size, args.topology)
        # (mode, trials, mean_bw, stderr, passability) per row; the analytic
        # row keeps integer trials and stderr
        if args.mode == "analytic":
            curve = analytic_bandwidth(net.stages, args.load)
            passability = _jnum(curve.stage_probabilities[-1] / args.load) if args.load else 0.0
            results = [("analytic", 0, _jnum(curve.bandwidth), 0, passability)]
        else:
            report = monte_carlo(net, args.load, modes, args.trials, args.seed)
            results = [
                (mode_label(s.mode), args.trials, _jnum(s.mean_matured), _jnum(s.stderr), _jnum(s.passability))
                for s in report.modes
            ]
        for mode, trials, mean_bw, stderr, passability in results:
            rows.append(
                {
                    "size": size,
                    "topology": net.topology.value,
                    "load": args.load,
                    "mode": mode,
                    "trials": trials,
                    "seed": args.seed,
                    "mean_bw": mean_bw,
                    "stderr": stderr,
                    "passability": passability,
                }
            )
    return rows


def _cmd_bandwidth(args) -> int:
    rows = _bandwidth_rows(args)
    if args.format == "json":
        _emit(json.dumps(rows, indent=2) + "\n", args.output)
    else:
        lines = ["size,mode,bw,stderr"]
        lines += [f"{r['size']},{r['mode']},{_fmt(r['mean_bw'])},{_fmt(r['stderr'])}" for r in rows]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_simulate(args) -> int:
    net = build_network(args.size, args.topology)
    config = ScheduleConfig(budget=_parse_budget(args.budget), algorithm=Algorithm(args.algorithm))
    report = random_permutation_study(net, args.random_perms, args.seed, config)
    histogram = report.pass_histogram
    doc = {
        "size": report.size,
        "topology": report.topology,
        "load": report.load,
        "trials": report.trials,
        "seed": report.seed,
        "policy": report.policy,
        "budget": "unlimited" if config.budget is None else config.budget,
        "algorithm": config.algorithm.value,
        "modes": [
            {
                "mode": mode_label(stat.mode),
                "mean_matured": _jnum(stat.mean_matured),
                "stderr": _jnum(stat.stderr),
                "passability": _jnum(stat.passability),
            }
            for stat in report.modes
        ],
        "pass_histogram": {str(count): n for count, n in histogram.items()},
        "mean_passes": _jnum(sum(count * n for count, n in histogram.items()) / report.trials),
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.output)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parse_args
    leaves it unchanged, and building it costs more than parsing."""
    parser = argparse.ArgumentParser(
        prog="ominsim",
        description="Simulate and analyze optical multistage interconnection networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--size", type=_integer, required=True, help="network size (power of two >= 4)")
        p.add_argument("--topology", default="omega", help="omega or baseline")
        p.add_argument("--perm", required=True, help="permutation file (SOURCE DESTINATION lines)")
        p.add_argument("--output", default=None, help="output file (default: stdout)")

    p = sub.add_parser("route", help="per-message hop table")
    common(p)
    p.set_defaults(handler=_cmd_route)

    p = sub.add_parser("conflicts", help="conflict-graph edge list CSV")
    common(p)
    p.set_defaults(handler=_cmd_conflicts)

    p = sub.add_parser("schedule", help="partition messages into passes")
    common(p)
    p.add_argument("--budget", default="0", help="crosstalk budget K or 'unlimited'")
    p.add_argument("--algorithm", default="greedy", choices=[a.value for a in Algorithm])
    p.set_defaults(handler=_cmd_schedule)

    p = sub.add_parser("bandwidth", help="analytic or simulated bandwidth table")
    p.add_argument("--sizes", required=True, help="comma-separated network sizes")
    p.add_argument("--topology", default="omega")
    p.add_argument("--mode", default="analytic", choices=["analytic", "simulate"])
    p.add_argument("--crosstalk", default="free", help="comma list of allow|free|budget=K")
    p.add_argument("--load", type=_decimal, default=1.0)
    p.add_argument("--trials", type=_integer, default=10000)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--output", default=None)
    p.set_defaults(handler=_cmd_bandwidth)

    p = sub.add_parser("simulate", help="random-permutation study: maturation and pass counts")
    p.add_argument("--size", type=_integer, required=True)
    p.add_argument("--topology", default="omega")
    p.add_argument("--random-perms", type=_integer, default=100)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--budget", default="0")
    p.add_argument("--algorithm", default="greedy", choices=[a.value for a in Algorithm])
    p.add_argument("--output", default=None)
    p.set_defaults(handler=_cmd_simulate)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except SimulatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
