#!/usr/bin/env python3
"""Bandwidth across network sizes: the analytic recurrence next to seeded
Monte Carlo estimates with and without tolerated crosstalk.  Emits a
plot-ready CSV table to stdout.
"""
import argparse

from ominsim import analytic_bandwidth, build_network, monte_carlo


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="4,8,16,32,64")
    parser.add_argument("--load", type=float, default=1.0)
    parser.add_argument("--trials", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--budget", type=int, default=1, help="tolerated shared stages per message")
    args = parser.parse_args()

    modes = [None, args.budget, 0]
    print("size,analytic,sim_allow,sim_budget,sim_free")
    for token in args.sizes.split(","):
        size = int(token)
        net = build_network(size, "omega")
        curve = analytic_bandwidth(net.stages, args.load)
        report = monte_carlo(net, args.load, modes, args.trials, args.seed)
        by_mode = {stat.mode: stat.mean_matured for stat in report.modes}
        print(
            f"{size},{curve.bandwidth:.6g},{by_mode[None]:.6g},"
            f"{by_mode[args.budget]:.6g},{by_mode[0]:.6g}"
        )


if __name__ == "__main__":
    main()
