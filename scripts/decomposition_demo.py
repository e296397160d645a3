#!/usr/bin/env python3
"""Walk the 8-input showcase permutation through the whole pipeline:
conflict graph, schedules at several crosstalk budgets, and single-pass
maturation per mode.
"""
import argparse

from ominsim import (
    Algorithm,
    ScheduleConfig,
    build_conflict_graph,
    build_network,
    full_permutation,
    mode_label,
    passability,
    schedule_exact,
    schedule_greedy,
    validate_schedule,
)

SHOWCASE_DESTS = (7, 0, 5, 2, 3, 6, 1, 4)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--topology", default="omega")
    args = parser.parse_args()

    net = build_network(8, args.topology)
    perm = full_permutation(net, SHOWCASE_DESTS)
    print(f"network: N={net.size}, {net.stages} stages of {net.switches_per_stage} switches")
    print("permutation:", " ".join(f"{m.source}->{m.destination}" for m in perm.pairs))

    graph = build_conflict_graph(net, perm)
    print(f"\nconflict graph: {len(graph.edges)} edges, max degree {graph.max_degree()}")
    for edge in graph.edges:
        print(f"  {edge.a} -- {edge.b}  stages {edge.stage} ({edge.kind.value})")

    for budget in (0, 1, None):
        conf_exact = ScheduleConfig(budget=budget, algorithm=Algorithm.EXACT)
        exact = schedule_exact(net, perm, conf_exact)
        greedy = schedule_greedy(net, perm, ScheduleConfig(budget=budget))
        assert validate_schedule(net, perm, exact, conf_exact).ok
        label = "unlimited" if budget is None else f"k={budget}"
        print(f"\nbudget {label}:")
        print(f"  exact  : {exact.pass_count} passes {exact.passes}")
        print(f"  greedy : {greedy.pass_count} passes {greedy.passes}")

    print("\nsingle-pass maturation (lowest source wins):")
    for mode in (None, 1, 0):
        frac = passability(net, perm, mode)
        print(f"  {mode_label(mode):9s} {frac * len(perm.pairs):.0f}/{len(perm.pairs)} mature ({frac:.2f})")


if __name__ == "__main__":
    main()
