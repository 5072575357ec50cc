"""Command-line front end.

One executable, one subcommand per pipeline stage:

* ``gen``        synthesize a genotype file
* ``corr``       estimate the pairwise correlation model -> JSON
* ``perturb``    share a dataset (randomized response or the
                 correlation-aware mechanism) -> genotype file
* ``attack``     run the correlation attack on a reported file -> belief CSV
* ``eval``       score a reported file against the truth
* ``order``      pick a processing order for one row
* ``kinship``    family privacy-budget calculators
* ``leakage``    the analytic posterior upper bound
* ``experiment`` the full seeded comparison grid -> detail/summary CSVs

All randomness derives from ``--seed``; identical invocations write
byte-identical outputs.  Exit codes: 0 success, 1 I/O or data-format
failure (the offending path is named), 2 flag/usage errors.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import ordering
from .attack import AttackConfig, attack_population, population_estimation_error, rr_belief_population
from .beacon import DecisionRule, beacon_accuracy
from .data import (
    CorrelationModel,
    GenotypeMatrix,
    GenotypeParseError,
    SyntheticSpec,
    child_seeds,
    compute_correlation_model,
    generate_synthetic_population,
    load_genotype_matrix,
    repr_each,
    save_genotype_matrix,
)
from .experiments import ExperimentConfig, OrderStrategy, _fmt, run_experiment, write_results
from .kinship import (
    FamilyState,
    indirect_budget_one_child,
    indirect_budget_two_children,
    max_budget_general,
    max_budget_one_child,
    max_budget_second_child,
)
from .leakage import LeakageQuery, leakage_upper_bound
from .mechanism import MechanismConfig, SharingMode, _validate_order, perturb_population
from .ordering import (
    expected_utility_of_order,
    greedy_share,
    optimal_order_value_iteration,
    random_order,
)
from .rr import rr_perturb


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise ValueError(f"{flag} expects comma-separated numbers, got {text!r}") from exc
    if not values:
        raise ValueError(f"{flag} must list at least one number")
    return values


def _mode(text: str) -> SharingMode:
    return SharingMode(text)


def _load_corr(args, matrix: GenotypeMatrix | None = None) -> CorrelationModel:
    if getattr(args, "corr", None):
        return CorrelationModel.from_json(args.corr)
    if matrix is None:
        matrix = load_genotype_matrix(args.data)
    return compute_correlation_model(matrix, getattr(args, "pseudo_count", 0.0))


def _cmd_gen(args) -> int:
    maf = _parse_float_list(args.maf, "--maf")
    spec = SyntheticSpec(n=args.n, l=args.l, maf=maf[0] if len(maf) == 1 else maf, rho=args.rho)
    matrix = generate_synthetic_population(spec, args.seed)
    save_genotype_matrix(matrix, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_corr(args) -> int:
    matrix = load_genotype_matrix(args.data)
    model = compute_correlation_model(matrix, args.pseudo_count)
    model.to_json(args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_perturb(args) -> int:
    matrix = load_genotype_matrix(args.data)
    seed = np.random.SeedSequence(args.seed)
    if args.mechanism == "rr":
        if args.order_out:
            raise ValueError("--order-out needs --mechanism proposed")
        out = rr_perturb(matrix, args.epsilon, seed)
    else:
        corr = _load_corr(args, matrix)
        config = MechanismConfig(
            epsilon=args.epsilon, tau_hat=args.tau_hat, gamma_hat=args.gamma_hat,
            mode=_mode(args.mode),
        )
        order_seed, noise_seed = child_seeds(seed, 2)
        order = random_order(matrix.l, order_seed)
        out = perturb_population(matrix, order, corr, config, noise_seed).matrix()
        if args.order_out:
            Path(args.order_out).write_text(" ".join(str(i) for i in order) + "\n", encoding="utf-8")
            print(f"wrote {args.order_out}")
    save_genotype_matrix(out, args.out)
    print(f"wrote {args.out}")
    return 0


def _read_order(path, l: int) -> tuple[int, ...]:
    """A processing order written by ``perturb --order-out``."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        order = [int(token) for token in text.split()]
    except ValueError as exc:
        raise ValueError(f"{path}: an order is space-separated SNP indices") from exc
    return _validate_order(order, l)


def _cmd_attack(args) -> int:
    reported = load_genotype_matrix(args.data)
    corr = CorrelationModel.from_json(args.corr)
    known = order = None
    if args.tau_hat is not None or args.gamma_hat is not None:
        if args.tau_hat is None or args.gamma_hat is None:
            raise ValueError("--tau-hat and --gamma-hat must be given together")
        if args.order is None:
            raise ValueError(
                "--tau-hat/--gamma-hat replay the mechanism and need the order it "
                "shared in: pass --order FILE (written by perturb --order-out)"
            )
        known = (args.tau_hat, args.gamma_hat)
        order = _read_order(args.order, reported.l)
    elif args.order is not None:
        raise ValueError("--order is only used by the replay; give --tau-hat and --gamma-hat")
    config = AttackConfig(
        epsilon_known=args.epsilon, tau=args.tau, gamma=args.gamma,
        mechanism_params_known=known,
    )
    belief = attack_population(reported.values, corr, config, assumed_order=order)
    with open(args.out, "w", newline="") as fh:
        fh.write("row,snp,p0,p1,p2,elim0,elim1,elim2,fallback\n")
        fh.write(_belief_csv_body(belief.probs, belief.eliminated, belief.fallback))
    print(f"wrote {args.out}")
    return 0


def _belief_csv_body(probs: np.ndarray, eliminated: np.ndarray, fallback: np.ndarray) -> str:
    """One line ``row,snp,p0,p1,p2,elim0,elim1,elim2,fallback`` per cell, rows
    then SNPs, each probability as its ``repr``."""
    n, l = fallback.shape
    pieces = np.empty((n, l, 8), dtype=object)
    pieces[..., 0] = np.array([f"{j}," for j in range(n)], dtype=object)[:, None]
    pieces[..., 1] = np.array([f"{i}," for i in range(l)], dtype=object)
    pieces[..., 2:7:2] = repr_each(probs)
    pieces[..., 3:7:2] = ","
    # The four 0/1 flags as one of 16 line endings.
    flags = np.concatenate([eliminated, fallback[..., None]], axis=2).astype(np.intp)
    endings = np.array(
        [f",{c >> 3 & 1},{c >> 2 & 1},{c >> 1 & 1},{c & 1}\n" for c in range(16)], dtype=object
    )
    pieces[..., 7] = endings[flags @ np.array([8, 4, 2, 1])]
    return "".join(pieces.ravel().tolist())


def _read_belief_csv(path, n: int, l: int) -> np.ndarray:
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        try:
            usecols = [header.index(name) for name in ("row", "snp", "p0", "p1", "p2")]
        except ValueError:
            raise GenotypeParseError(
                f"{path}: belief header must name row, snp, p0, p1 and p2, got {header}"
            ) from None
        try:
            with warnings.catch_warnings():  # a table with no rows fails the cover check below
                warnings.simplefilter("ignore", UserWarning)
                records = np.loadtxt(
                    fh, delimiter=",", usecols=usecols, comments=None, ndmin=1,
                    dtype=[("row", np.int64), ("snp", np.int64), ("p", np.float64, 3)],
                )
        except ValueError as exc:
            raise GenotypeParseError(f"{path}: malformed belief table: {exc}") from None
    rows, snps = records["row"], records["snp"]
    outside = (rows < 0) | (rows >= n) | (snps < 0) | (snps >= l)
    if outside.any():
        k = np.argmax(outside)
        raise GenotypeParseError(f"{path}: belief row ({rows[k]}, {snps[k]}) outside {n}x{l}")
    probs = np.full((n, l, 3), np.nan)
    probs[rows, snps] = records["p"]
    if np.isnan(probs).any():
        raise GenotypeParseError(f"{path}: belief table does not cover all {n}x{l} SNPs")
    return probs


def _cmd_eval(args) -> int:
    truth = load_genotype_matrix(args.truth)
    reported = load_genotype_matrix(args.reported)
    probs = _read_belief_csv(args.beliefs, truth.n, truth.l) if args.beliefs else None
    print(
        "e_rr="
        + _fmt(
            population_estimation_error(
                rr_belief_population(reported.values, args.epsilon), truth.values
            )
        )
    )
    if probs is not None:
        dist = np.abs(truth.values[:, :, None] - np.arange(3)[None, None, :])
        e_attack = float((probs * dist).sum(axis=(1, 2)).mean() / truth.l)
        print("e_attack=" + _fmt(e_attack))
    direct = beacon_accuracy(truth, reported, DecisionRule.DIRECT)
    estimated = beacon_accuracy(truth, reported, DecisionRule.RR_ESTIMATED, epsilon=args.epsilon)
    for name, report in (("a_direct", direct), ("a_rr_estimated", estimated)):
        print(f"{name}={_fmt(report.overall)}")
        print(f"{name}_yes={_fmt(report.yes_accuracy)}")
        print(f"{name}_no={_fmt(report.no_accuracy)}")
    return 0


def _cmd_order(args) -> int:
    matrix = load_genotype_matrix(args.data)
    if not 0 <= args.row < matrix.n:
        raise ValueError(f"--row must be in [0, {matrix.n}), got {args.row}")
    row = matrix.row(args.row)
    corr = _load_corr(args, matrix)
    config = MechanismConfig(
        epsilon=args.epsilon, tau_hat=args.tau_hat, gamma_hat=args.gamma_hat,
        mode=_mode(args.mode),
    )
    value = None
    if args.order == "random":
        order = random_order(matrix.l, args.seed)
    elif args.order == "greedy":
        order = greedy_share(row, corr, config, args.seed)[0]
    else:
        policy, value = optimal_order_value_iteration(row, corr, config)
        order = _policy_modal_order(policy, matrix.l)
    print(" ".join(str(i) for i in order))
    if value is None and matrix.l <= ordering.EXACT_METHOD_MAX_SNPS:
        value = expected_utility_of_order(row, order, corr, config, method="exact")
    if value is not None:
        print("expected_utility=" + _fmt(value))
    return 0


def _policy_modal_order(policy, l: int) -> tuple[int, ...]:
    """Static preview of an adaptive policy: the order it follows when every
    report comes back 0.  The real policy reacts to actual reports, so this
    is a deterministic illustration, not the policy itself."""
    prefix: list[tuple[int, int]] = []
    for _ in range(l):
        i = policy.action(prefix)
        prefix.append((i, 0))
    return tuple(k for k, _ in prefix)


def _cmd_kinship(args) -> int:
    if args.scenario == "one-child":
        print(_fmt(max_budget_one_child(args.parent_budget)))
    elif args.scenario == "second-child":
        print(_fmt(max_budget_second_child(args.epsilon)))
    elif args.scenario == "indirect":
        if args.children == 1:
            print(_fmt(indirect_budget_one_child(args.epsilon, args.share)))
        else:
            print(_fmt(indirect_budget_two_children(args.epsilon)))
    else:  # general
        family = FamilyState.from_json(Path(args.family).read_text(encoding="utf-8"))
        print(_fmt(max_budget_general(family, args.snp, args.next_sharer)))
    return 0


def _cmd_leakage(args) -> int:
    print(_fmt(leakage_upper_bound(LeakageQuery(zeta=args.zeta, epsilon=args.epsilon))))
    return 0


def _cmd_experiment(args) -> int:
    synthetic = None
    if args.data is None:
        maf = _parse_float_list(args.maf, "--maf")
        synthetic = SyntheticSpec(
            n=args.n, l=args.l, maf=maf[0] if len(maf) == 1 else maf, rho=args.rho
        )
    config = ExperimentConfig(
        epsilon_grid=_parse_float_list(args.epsilon_grid, "--epsilon-grid"),
        trials=args.trials,
        seed=args.seed,
        synthetic=synthetic,
        dataset_path=args.data,
        tau_hat=args.tau_hat,
        gamma_hat=args.gamma_hat,
        mode=_mode(args.mode),
        tau=args.tau,
        gamma=args.gamma,
        attacker_knows_mechanism=args.attacker_knows_mechanism,
        order_strategy=OrderStrategy(args.order),
        include_postprocess=not args.no_postprocess,
        pseudo_count=args.pseudo_count,
    )
    result = run_experiment(config, jobs=args.jobs)
    detail_path, summary_path = write_results(result, args.out)
    print(f"wrote {detail_path}")
    print(f"wrote {summary_path}")
    return 0


def _add_mechanism_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", type=float, required=True, help="privacy budget")
    p.add_argument("--tau-hat", type=float, default=0.2, help="mechanism elimination threshold")
    p.add_argument("--gamma-hat", type=float, default=0.5, help="mechanism elimination fraction")
    p.add_argument("--mode", choices=["plain", "beacon"], default="beacon")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrldp",
        description="Correlation-aware local differential privacy for genotype sharing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="synthesize a genotype file")
    p.add_argument("--n", type=int, required=True, help="individuals")
    p.add_argument("--l", type=int, required=True, help="SNPs per individual")
    p.add_argument("--maf", default="0.2", help="minor-allele frequency, single or comma list")
    p.add_argument("--rho", type=float, default=0.0, help="adjacent-column copy probability")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("corr", help="estimate the correlation model")
    p.add_argument("--data", required=True, help="genotype file")
    p.add_argument("--pseudo-count", type=float, default=0.0)
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=_cmd_corr)

    p = sub.add_parser("perturb", help="share a dataset")
    p.add_argument("--data", required=True, help="genotype file (the truth)")
    p.add_argument("--corr", help="correlation JSON; estimated from --data when omitted")
    p.add_argument("--pseudo-count", type=float, default=0.0)
    p.add_argument("--mechanism", choices=["rr", "proposed"], default="proposed")
    _add_mechanism_flags(p)
    p.add_argument("--order", choices=["random"], default="random")
    p.add_argument("--order-out", help="write the processing order used (proposed mechanism)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("attack", help="correlation attack on a reported file")
    p.add_argument("--data", required=True, help="reported genotype file")
    p.add_argument("--corr", required=True, help="correlation JSON")
    p.add_argument("--epsilon", type=float, required=True, help="budget the attacker assumes")
    p.add_argument("--tau", type=float, default=0.2, help="attacker elimination threshold")
    p.add_argument("--gamma", type=float, default=0.5, help="attacker elimination fraction")
    p.add_argument("--tau-hat", type=float, help="mechanism threshold, if known to the attacker")
    p.add_argument("--gamma-hat", type=float, help="mechanism fraction, if known to the attacker")
    p.add_argument("--order", help="processing order file from perturb --order-out (for the replay)")
    p.add_argument("--out", required=True, help="belief CSV path")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("eval", help="score a reported file against the truth")
    p.add_argument("--truth", required=True)
    p.add_argument("--reported", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--beliefs", help="belief CSV from the attack command")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("order", help="choose a processing order for one row")
    p.add_argument("--data", required=True)
    p.add_argument("--row", type=int, default=0)
    p.add_argument("--corr", help="correlation JSON; estimated from --data when omitted")
    p.add_argument("--pseudo-count", type=float, default=0.0)
    _add_mechanism_flags(p)
    p.add_argument("--order", choices=["random", "greedy", "optimal"], default="greedy")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("kinship", help="family budget calculators")
    ksub = p.add_subparsers(dest="scenario", required=True)
    k = ksub.add_parser("one-child", help="max child budget for a parent budget")
    k.add_argument("--parent-budget", type=float, required=True)
    k = ksub.add_parser("second-child", help="max second-child budget after the first shared")
    k.add_argument("--epsilon", type=float, required=True)
    k = ksub.add_parser("indirect", help="budget imposed on the parent by sharing")
    k.add_argument("--epsilon", type=float, required=True)
    k.add_argument("--share", type=int, choices=[0, 1, 2], default=0)
    k.add_argument("--children", type=int, choices=[1, 2], default=1)
    k = ksub.add_parser("general", help="solver over a family-state JSON")
    k.add_argument("--family", required=True, help="family JSON path")
    k.add_argument("--snp", type=int, required=True)
    k.add_argument("--next-sharer", required=True)
    p.set_defaults(func=_cmd_kinship)

    p = sub.add_parser("leakage", help="posterior upper bound")
    p.add_argument("--zeta", type=float, required=True, help="attacker prior ratio")
    p.add_argument("--epsilon", type=float, required=True)
    p.set_defaults(func=_cmd_leakage)

    p = sub.add_parser("experiment", help="seeded comparison grid")
    src = p.add_argument_group("data source (synthetic unless --data is given)")
    src.add_argument("--data", help="genotype file; replaces synthetic generation")
    src.add_argument("--n", type=int, default=150)
    src.add_argument("--l", type=int, default=50)
    src.add_argument("--maf", default="0.2")
    src.add_argument("--rho", type=float, default=0.8)
    p.add_argument("--epsilon-grid", default="0.4,0.8,1.2,1.6,2.0")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tau-hat", type=float, default=0.2)
    p.add_argument("--gamma-hat", type=float, default=0.5)
    p.add_argument("--mode", choices=["plain", "beacon"], default="beacon")
    p.add_argument("--tau", type=float, default=0.2)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--attacker-knows-mechanism", action="store_true")
    p.add_argument("--order", choices=["random", "greedy", "optimal"], default="random")
    p.add_argument("--no-postprocess", action="store_true")
    p.add_argument("--pseudo-count", type=float, default=0.0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GenotypeParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        name = getattr(exc, "filename", None)
        detail = exc.strerror or str(exc)
        print(f"error: {name or 'I/O'}: {detail}", file=sys.stderr)
        return 1
    except (ValueError, NotImplementedError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
