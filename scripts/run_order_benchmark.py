#!/usr/bin/env python3
"""Benchmark disclosure-order strategies on seeded synthetic instances.

For each seed this builds a small population, fits the pairwise correlation
model, and compares three ways of choosing the disclosure order for one row:
the exact adaptive optimum (backward induction), the one-step greedy heuristic,
and a uniformly random order.  It reports mean per-SNP utility gaps with 95%
confidence intervals, then the exact solver's cost: total solve seconds and
the mean and max number of memoized states per solve.
"""

import argparse
import statistics
import sys
import time

from corrldp.data import SyntheticSpec, compute_correlation_model, generate_synthetic_population
from corrldp.mechanism import MechanismConfig, SharingMode
from corrldp.ordering import (
    expected_utility_of_order,
    greedy_share,
    optimal_order_value_iteration,
    random_order,
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=100,
                        help="number of seeded instances (default 100)")
    parser.add_argument("--n", type=int, default=10, help="individuals per instance")
    parser.add_argument("--l", type=int, default=10, help="SNPs per instance")
    parser.add_argument("--maf", type=float, default=0.2, help="minor allele frequency")
    parser.add_argument("--rho", type=float, default=0.8,
                        help="adjacent-SNP correlation of the synthetic chain")
    parser.add_argument("--epsilon", type=float, default=1.0, help="privacy budget")
    parser.add_argument("--tau-hat", type=float, default=0.2,
                        help="mechanism conditional-probability threshold")
    parser.add_argument("--gamma-hat", type=float, default=0.8,
                        help="mechanism elimination fraction")
    parser.add_argument("--mode", choices=["plain", "beacon"], default="beacon")
    return parser.parse_args(argv)


def mean_ci(values):
    mean = statistics.fmean(values)
    if len(values) < 2:
        return mean, float("nan")
    return mean, 1.96 * statistics.stdev(values) / len(values) ** 0.5


def main(argv=None):
    args = parse_args(argv if argv is not None else sys.argv[1:])
    mode = SharingMode.BEACON if args.mode == "beacon" else SharingMode.PLAIN
    cfg = MechanismConfig(
        epsilon=args.epsilon, tau_hat=args.tau_hat, gamma_hat=args.gamma_hat, mode=mode
    )
    gaps, greedy_vs_random, states = [], [], []
    solve_s = 0.0
    started = time.perf_counter()
    for seed in range(args.instances):
        data = generate_synthetic_population(
            SyntheticSpec(n=args.n, l=args.l, maf=args.maf, rho=args.rho), seed
        )
        corr = compute_correlation_model(data)
        row = data.row(seed % data.n)
        solve_started = time.perf_counter()
        policy, v_opt = optimal_order_value_iteration(row, corr, cfg)
        solve_s += time.perf_counter() - solve_started
        states.append(len(policy._solver.memo))
        order_g = greedy_share(row, corr, cfg, rng_seed=1000 + seed)[0]
        v_greedy = expected_utility_of_order(row, order_g, corr, cfg)
        order_r = random_order(len(row), 2000 + seed)
        v_random = expected_utility_of_order(row, order_r, corr, cfg)
        gaps.append((v_opt - v_greedy) / args.l)
        greedy_vs_random.append((v_greedy - v_random) / args.l)
        done = seed + 1
        if done % 10 == 0 or done == args.instances:
            print(f"  {done}/{args.instances} instances "
                  f"({time.perf_counter() - started:.0f}s)", flush=True)
    gap_mean, gap_ci = mean_ci(gaps)
    adv_mean, adv_ci = mean_ci(greedy_vs_random)
    print(f"mean per-SNP gap optimal-greedy : {gap_mean:.4f} +/- {gap_ci:.4f}")
    print(f"mean per-SNP greedy-random      : {adv_mean:.4f} +/- {adv_ci:.4f}")
    print(f"gap within 0.05                 : {'yes' if gap_mean <= 0.05 else 'NO'}")
    print(f"greedy at least random          : {'yes' if adv_mean >= 0.0 else 'NO'}")
    print(f"exact solve                     : {solve_s:.2f}s total, memo states "
          f"mean {statistics.fmean(states):.0f} max {max(states)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
