"""Seeded comparison harness for the sharing mechanisms.

For every trial one dataset is produced (or loaded) and fitted, and every
budget of the grid runs on it: both sharing schemes run against the same
attacker, and each budget gives one row of:

* estimation error of plain randomized response with no attack, with the
  correlation attack, and of the correlation-aware mechanism under the
  attack (higher = more privacy kept);
* beacon accuracy of randomized response under the count-compensating
  decision rule, of the correlation-aware mechanism under the direct rule,
  and (optionally) of randomized response repaired by consistency
  post-processing (higher = more utility kept).

Randomness fans out from the master seed through fixed spawn keys —
(trial, 0) for data, and (trial, purpose, round(eps * 1e6)) with purpose
1/2/3 for ordering, randomized-response noise, and mechanism noise — so
adding trials or grid points never changes existing rows.  A trial is the
unit of work handed to a worker, and rows are emitted in (grid index, trial)
order no matter how many workers ran.

Results are plain CSV: a detail file with one row per (epsilon, trial) and
a summary file with per-epsilon means and standard errors.  Every cell is
populated; undefined values (an empty beacon class, a standard error over
one trial) are written as ``nan``.
"""

from __future__ import annotations

import csv
import enum
import functools
import math
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attack import (
    AttackConfig,
    attack_population,
    population_estimation_error,
    rr_belief_population,
    rr_postprocess_population,
)
from .beacon import AccuracyReport, DecisionRule, beacon_accuracy
from .data import (
    GenotypeMatrix,
    SyntheticSpec,
    child_seeds,
    compute_correlation_model,
    generate_synthetic_population,
    load_genotype_matrix,
)
from .mechanism import MechanismConfig, SharingMode, perturb_population
from .ordering import _greedy_rows, _optimal_rows, random_order
from .rr import rr_perturb


class OrderStrategy(enum.Enum):
    RANDOM = "random"
    GREEDY = "greedy"
    OPTIMAL = "optimal"


_DATA_PURPOSE = 0
_ORDER_PURPOSE = 1
_RR_PURPOSE = 2
_MECH_PURPOSE = 3


def _eps_key(epsilon: float) -> int:
    return int(round(epsilon * 1e6))


def _sub_seed(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=tuple(key))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run depends on; fully determines its output."""

    epsilon_grid: tuple[float, ...]
    trials: int
    seed: int
    synthetic: SyntheticSpec | None = None
    dataset_path: str | None = None
    tau_hat: float = 0.2
    gamma_hat: float = 0.5
    mode: SharingMode = SharingMode.BEACON
    tau: float = 0.2
    gamma: float = 0.5
    attacker_knows_mechanism: bool = False
    order_strategy: OrderStrategy = OrderStrategy.RANDOM
    include_postprocess: bool = True
    pseudo_count: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "epsilon_grid", tuple(float(e) for e in self.epsilon_grid))
        if not self.epsilon_grid:
            raise ValueError("epsilon grid must be nonempty")
        for k, eps in enumerate(self.epsilon_grid):
            if not math.isfinite(eps) or eps < 0:
                raise ValueError(f"grid epsilons must be finite and >= 0, got {eps}")
            # a repeated budget would count each of its trials twice
            if eps in self.epsilon_grid[:k]:
                raise ValueError(f"epsilon grid repeats the budget {eps}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if (self.synthetic is None) == (self.dataset_path is None):
            raise ValueError("exactly one of synthetic spec or dataset path is required")
        if not isinstance(self.order_strategy, OrderStrategy):
            raise ValueError(f"order_strategy must be an OrderStrategy, got {self.order_strategy!r}")
        if self.pseudo_count < 0:
            raise ValueError(f"pseudo_count must be >= 0, got {self.pseudo_count}")
        # range checks for thresholds/mode live in the component configs
        MechanismConfig(
            epsilon=self.epsilon_grid[0],
            tau_hat=self.tau_hat,
            gamma_hat=self.gamma_hat,
            mode=self.mode,
        )
        AttackConfig(epsilon_known=self.epsilon_grid[0], tau=self.tau, gamma=self.gamma)

    def metric_names(self) -> tuple[str, ...]:
        names = [
            "e_rr",
            "e_rr_attack",
            "e_prop_attack",
            "a_rr",
            "a_rr_yes",
            "a_rr_no",
            "a_prop",
            "a_prop_yes",
            "a_prop_no",
        ]
        if self.include_postprocess:
            names += ["a_rr_post", "a_rr_post_yes", "a_rr_post_no"]
        return tuple(names)


@dataclass(frozen=True)
class TrialResult:
    epsilon: float
    trial: int
    metrics: dict[str, float]


def _load_data(config: ExperimentConfig, trial: int) -> GenotypeMatrix:
    if config.dataset_path is not None:
        return load_genotype_matrix(config.dataset_path)
    return generate_synthetic_population(
        config.synthetic, _sub_seed(config.seed, trial, _DATA_PURPOSE)
    )


def _accuracy_metrics(prefix: str, report: AccuracyReport) -> dict[str, float]:
    return {
        prefix: report.overall,
        f"{prefix}_yes": report.yes_accuracy,
        f"{prefix}_no": report.no_accuracy,
    }


def _run_budget(
    config: ExperimentConfig,
    matrix: GenotypeMatrix,
    corr,
    epsilon: float,
    trial: int,
) -> TrialResult:
    """One budget of one trial: all configured metrics on the trial's data."""
    ek = _eps_key(epsilon)
    mech_config = MechanismConfig(
        epsilon=epsilon, tau_hat=config.tau_hat, gamma_hat=config.gamma_hat, mode=config.mode
    )
    # the replay augmentation only makes sense against mechanism output, so
    # the plain randomized-response arm is always attacked without it
    attack_rr = AttackConfig(epsilon_known=epsilon, tau=config.tau, gamma=config.gamma)
    attack_prop = AttackConfig(
        epsilon_known=epsilon,
        tau=config.tau,
        gamma=config.gamma,
        mechanism_params_known=(
            (config.tau_hat, config.gamma_hat) if config.attacker_knows_mechanism else None
        ),
    )

    rr_matrix = rr_perturb(matrix, epsilon, _sub_seed(config.seed, trial, _RR_PURPOSE, ek))
    Y_rr = rr_matrix.values
    # the proposed mechanism shares under one order for every row with the
    # random strategy, and under an (n, l) array of per-row orders otherwise
    mech_seed = _sub_seed(config.seed, trial, _MECH_PURPOSE, ek)
    if config.order_strategy is OrderStrategy.RANDOM:
        prop_order = random_order(matrix.l, _sub_seed(config.seed, trial, _ORDER_PURPOSE, ek))
        prop_values = perturb_population(matrix, prop_order, corr, mech_config, mech_seed).values
    else:
        rows = _greedy_rows if config.order_strategy is OrderStrategy.GREEDY else _optimal_rows
        prop_values, _, prop_order = rows(
            matrix.values, corr, mech_config, child_seeds(mech_seed, matrix.n)
        )

    metrics: dict[str, float] = {}
    metrics["e_rr"] = population_estimation_error(
        rr_belief_population(Y_rr, epsilon), matrix.values
    )
    metrics["e_rr_attack"] = population_estimation_error(
        attack_population(Y_rr, corr, attack_rr), matrix.values
    )
    assumed = prop_order if config.attacker_knows_mechanism else None
    metrics["e_prop_attack"] = population_estimation_error(
        attack_population(prop_values, corr, attack_prop, assumed_order=assumed),
        matrix.values,
    )

    metrics.update(
        _accuracy_metrics(
            "a_rr",
            beacon_accuracy(matrix, rr_matrix, DecisionRule.RR_ESTIMATED, epsilon=epsilon),
        )
    )
    metrics.update(
        _accuracy_metrics(
            "a_prop",
            beacon_accuracy(matrix, GenotypeMatrix(prop_values), DecisionRule.DIRECT),
        )
    )
    if config.include_postprocess:
        repaired = rr_postprocess_population(Y_rr, corr, config.tau, config.gamma)
        metrics.update(
            _accuracy_metrics(
                "a_rr_post",
                beacon_accuracy(
                    matrix, GenotypeMatrix(repaired), DecisionRule.RR_ESTIMATED, epsilon=epsilon
                ),
            )
        )
    return TrialResult(epsilon=epsilon, trial=trial, metrics=metrics)


def run_single_trial(config: ExperimentConfig, trial: int) -> list[TrialResult]:
    """One trial: its dataset is produced (or loaded) and fitted once, then
    every budget of the grid runs on it.  Returns one row per budget, in grid
    order."""
    matrix = _load_data(config, trial)
    corr = compute_correlation_model(matrix, config.pseudo_count)
    return [_run_budget(config, matrix, corr, eps, trial) for eps in config.epsilon_grid]


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    results: tuple[TrialResult, ...]

    def detail_table(self) -> tuple[list[str], list[list[str]]]:
        header = ["epsilon", "trial", *self.config.metric_names()]
        rows = [
            [_fmt(r.epsilon), str(r.trial), *(_fmt(r.metrics[m]) for m in self.config.metric_names())]
            for r in self.results
        ]
        return header, rows

    def summary_table(self) -> tuple[list[str], list[list[str]]]:
        names = self.config.metric_names()
        header = ["epsilon", "trials"]
        for m in names:
            header += [f"mean_{m}", f"se_{m}"]
        rows = []
        for eps in self.config.epsilon_grid:
            group = [r for r in self.results if r.epsilon == eps]
            row = [_fmt(eps), str(len(group))]
            for m in names:
                vals = [r.metrics[m] for r in group if not math.isnan(r.metrics[m])]
                se = statistics.stdev(vals) / math.sqrt(len(vals)) if len(vals) >= 2 else math.nan
                row += [_fmt(self.mean_metric(m, eps)), _fmt(se)]
            rows.append(row)
        return header, rows

    def mean_metric(self, name: str, epsilon: float) -> float:
        vals = [
            r.metrics[name]
            for r in self.results
            if r.epsilon == epsilon and not math.isnan(r.metrics[name])
        ]
        return statistics.fmean(vals) if vals else math.nan


def _fmt(x: float) -> str:
    return repr(float(x))


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Run the full grid, one trial per task on at most ``jobs`` workers (never
    more than there are trials); rows come back in (grid order, trial) order."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    run_trial = functools.partial(run_single_trial, config)
    workers = min(jobs, config.trials)
    if workers == 1:
        per_trial = list(map(run_trial, range(config.trials)))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_trial = list(pool.map(run_trial, range(config.trials)))
    results = tuple(row for budget in zip(*per_trial) for row in budget)
    return ExperimentResult(config=config, results=results)


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_results(result: ExperimentResult, out_dir) -> tuple[Path, Path]:
    """Write detail.csv and summary.csv under out_dir; returns both paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    detail_path = out / "detail.csv"
    summary_path = out / "summary.csv"
    header, rows = result.detail_table()
    _write_csv(detail_path, header, rows)
    header, rows = result.summary_table()
    _write_csv(summary_path, header, rows)
    return detail_path, summary_path
