"""The four workloads: grid, population, order and cli-files.

Each workload draws its inputs from the workload seed alone: the timed
rounds use ``SeedSequence([seed, TAG, 0, ...])``, the warm-up
``SeedSequence([seed, TAG, 1, ...])`` and the end-of-run checks
``SeedSequence([seed, TAG, 2, ...])``, where TAG is the workload's index in
``WORKLOADS``.  corrldp receives only the generated inputs (seeds for its
own generators included), through its public functions or through
``corrldp.cli.main``.

Every round of a run repeats the same work on the same inputs, so rounds
differ only in how fast the host ran them.  ``run_round`` runs one round and
times the program's part of it step by step: it returns ``{"steps": {name:
seconds}}`` with the same step names in every round.  The first round's outputs are checked
against ``checks``; every later round must reproduce them exactly.  Input
generation and checks are left out of the timed part.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import time
from pathlib import Path

import numpy as np

from corrldp import cli
from corrldp.attack import (
    AttackConfig,
    attack_population,
    population_estimation_error,
    recover_possible_inputs,
)
from corrldp.data import (
    GenotypeMatrix,
    SyntheticSpec,
    compute_correlation_model,
    generate_synthetic_population,
)
from corrldp.mechanism import MechanismConfig, SharingMode, perturb_population, perturb_sequence
from corrldp.ordering import (
    expected_utility_of_order,
    greedy_share,
    optimal_order_value_iteration,
    random_order,
)

from . import checks
from .checks import require

ROUND, WARM_UP, CHECK = 0, 1, 2
MAF, RHO = 0.2, 0.8


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``corrldp.cli.main`` in this process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def synth(n: int, l: int, seed) -> GenotypeMatrix:
    return generate_synthetic_population(SyntheticSpec(n=n, l=l, maf=MAF, rho=RHO), seed)


def median_seconds(rounds: list[dict], *steps: str) -> float:
    """Median over the rounds of the named steps' summed time (all steps if none named)."""
    return float(np.median([sum(t for k, t in r["steps"].items() if not steps or k in steps) for r in rounds]))


def digest(*parts) -> str:
    """One hash over arrays, strings and file contents, to compare repeated rounds."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.tobytes())
        elif isinstance(part, Path):
            h.update(part.read_bytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


class Workload:
    name = ""
    ops_per_round = 1
    # seconds one round takes on the reference host (see README); it fixes how
    # many rounds a run of --seconds makes, so every run does the same work
    NOMINAL_ROUND_S = 1.0

    def __init__(self, seed: int, tracer, workdir: Path):
        self.seed = seed
        self.tracer = tracer
        self.workdir = Path(workdir)
        self._first = None

    def seeds(self, *key: int) -> np.random.SeedSequence:
        return np.random.SeedSequence([self.seed, WORKLOADS.index(type(self)), *key])

    def ints(self, count: int, *key: int) -> list[int]:
        return [int(v) for v in self.seeds(*key).generate_state(count)]

    def rounds_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.NOMINAL_ROUND_S))

    @contextlib.contextmanager
    def step(self, steps: dict, name: str, span: str | None = None):
        """Time a call of the program as step ``name`` inside a span."""
        with self.tracer.span(span or name) as record:
            start = time.perf_counter()
            yield record
            steps[name] = time.perf_counter() - start

    def same_as_first(self, outputs: str) -> bool:
        """True on the first round; later rounds must reproduce its outputs."""
        if self._first is None:
            self._first = outputs
            return True
        require(outputs == self._first, f"{self.name}: a repeated round gave other outputs")
        return False

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_round(self) -> dict:
        raise NotImplementedError

    def final_check(self) -> None:
        """Checks made once per run, after the timed rounds."""

    def figures(self, rounds: list[dict]) -> dict:
        """The workload's own throughput figures, at the median round."""
        return {}


class Grid(Workload):
    """The CLI ``experiment`` path: one trial on each of two synthetic
    datasets, shared and attacked with post-processing on and the attacker
    knowing the mechanism's parameters."""

    name = "grid"
    NOMINAL_ROUND_S = 1.7
    # a trial's cost depends on its data; two datasets per round halve the
    # share of that dependence in the spread between seeds
    DATASETS = 2
    ops_per_round = DATASETS
    # the middle of the CLI's default grid; a trial costs about the same at
    # every budget of that grid
    EPSILON = 1.2
    TAU_HAT, GAMMA_HAT, TAU, GAMMA = 0.2, 0.5, 0.2, 0.5

    def __init__(self, seed, tracer, workdir, n=150, l=200):
        super().__init__(seed, tracer, workdir)
        self.n, self.l = n, l
        self.cells_changed = {}  # experiment seed -> cells the benchmark's repair changed

    def _experiment(self, steps: dict, name: str, exp_seed: int) -> dict:
        out = self.workdir / "grid"
        argv = [
            "experiment", "--n", str(self.n), "--l", str(self.l),
            "--maf", str(MAF), "--rho", str(RHO),
            "--epsilon-grid", str(self.EPSILON), "--trials", "1", "--seed", str(exp_seed),
            "--tau-hat", str(self.TAU_HAT), "--gamma-hat", str(self.GAMMA_HAT),
            "--tau", str(self.TAU), "--gamma", str(self.GAMMA), "--mode", "beacon",
            "--order", "random", "--attacker-knows-mechanism", "--out", str(out),
        ]
        with self.step(steps, name, "cli.experiment"):
            code, _, err = run_cli(argv)
        require(code == 0, f"grid: experiment exited {code}: {err.strip()}")
        with open(out / "detail.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        require(len(rows) == 1, f"grid: {len(rows)} detail rows for one trial")
        return rows[0]

    def warm_up(self):
        (exp_seed,) = self.ints(1, WARM_UP)
        self._experiment({}, "experiment", exp_seed)

    def run_round(self):
        steps, rows = {}, []
        exp_seeds = self.ints(self.DATASETS, ROUND)
        for k, exp_seed in enumerate(exp_seeds):
            rows.append(self._experiment(steps, f"experiment-{k}", exp_seed))
        if self.same_as_first(digest(rows)):
            for exp_seed, row in zip(exp_seeds, rows):
                self.check_row(exp_seed, row)
            # the end-of-run checks replay the first dataset's trial
            self.exp_seed, self.row = exp_seeds[0], rows[0]
        return {"steps": steps}

    def check_row(self, exp_seed: int, row: dict) -> None:
        """Metric ranges, and e_rr, e_rr_attack, a_rr and a_rr_post recomputed
        from the trial's regenerated inputs (spawn keys (trial, 0) for the data
        and (trial, 2, round(eps * 1e6)) for the randomized-response noise)."""
        eps, trial = float(row["epsilon"]), int(row["trial"])
        metrics = {k: float(v) for k, v in row.items() if k not in ("epsilon", "trial")}
        X = synth(self.n, self.l, np.random.SeedSequence(exp_seed, spawn_key=(trial, 0))).values
        truth_yes = X.max(axis=0) > 0
        for key, value in metrics.items():
            if key.startswith("e_"):
                require(0.0 <= value <= 2.0, f"grid: {key}={value} outside [0, 2]")
            elif np.isnan(value):
                empty = (key.endswith("_yes") and not truth_yes.any()) or (
                    key.endswith("_no") and truth_yes.all()
                )
                require(empty, f"grid: {key} is nan but its beacon class is not empty")
            else:
                require(0.0 <= value <= 1.0, f"grid: {key}={value} outside [0, 1]")
        ek = int(round(eps * 1e6))
        Y = checks.rr_reports(X, eps, np.random.SeedSequence(exp_seed, spawn_key=(trial, 2, ek)))
        none = np.zeros(Y.shape + (3,), dtype=bool)
        e_rr = checks.estimation_error(checks.attack_belief(Y, none, eps), X)
        require(checks.close(metrics["e_rr"], e_rr), f"grid: e_rr {metrics['e_rr']} != {e_rr}")
        cond = checks.fit_conditionals(X)
        elim = checks.attack_eliminations(Y, cond, self.TAU, self.GAMMA)
        e_att = checks.estimation_error(checks.attack_belief(Y, elim, eps), X)
        require(
            checks.close(metrics["e_rr_attack"], e_att),
            f"grid: e_rr_attack {metrics['e_rr_attack']} != {e_att}",
        )
        repaired = checks.rr_postprocess(Y, cond, self.TAU, self.GAMMA)
        self.cells_changed[exp_seed] = int(np.count_nonzero(repaired != Y))
        for prefix, reports in (("a_rr", Y), ("a_rr_post", repaired)):
            accuracy = checks.beacon_accuracy(X, checks.rr_estimated_answers(reports, eps))
            for key, value in zip((prefix, f"{prefix}_yes", f"{prefix}_no"), accuracy):
                require(checks.close(metrics[key], value), f"grid: {key} {metrics[key]} != {value}")

    def final_check(self):
        """Replay under the true order equals the mechanism's eliminations,
        e_prop_attack and a_prop match the recomputation from the shared
        matrix, and a traced run counted as many post-processed cells as the
        recomputation changed."""
        exp_seed, row = self.exp_seed, self.row
        eps, trial = float(row["epsilon"]), int(row["trial"])
        ek = int(round(eps * 1e6))
        matrix = synth(self.n, self.l, np.random.SeedSequence(exp_seed, spawn_key=(trial, 0)))
        corr = compute_correlation_model(matrix)
        order = random_order(self.l, np.random.SeedSequence(exp_seed, spawn_key=(trial, 1, ek)))
        config = MechanismConfig(eps, self.TAU_HAT, self.GAMMA_HAT, SharingMode.BEACON)
        share = perturb_population(
            matrix, order, corr, config, np.random.SeedSequence(exp_seed, spawn_key=(trial, 3, ek))
        )
        X, Y = matrix.values, share.values
        checks.check_share(X, Y, share.eliminated, order, corr.cond, self.TAU_HAT, self.GAMMA_HAT)
        self.check_replay(Y, share.eliminated, corr, order)
        elim = checks.attack_eliminations(Y, corr.cond, self.TAU, self.GAMMA) | share.eliminated
        e_prop = checks.estimation_error(checks.attack_belief(Y, elim, eps), X)
        reported = float(row["e_prop_attack"])
        require(checks.close(reported, e_prop), f"grid: e_prop_attack {reported} != {e_prop}")
        accuracy = checks.beacon_accuracy(X, Y.max(axis=0) > 0)
        for key, value in zip(("a_prop", "a_prop_yes", "a_prop_no"), accuracy):
            require(checks.close(float(row[key]), value), f"grid: {key} {row[key]} != {value}")
        counted = self.tracer.counts(self.name, "attack.postprocess", "cells_changed")
        expected = list(self.cells_changed.values()) * (len(counted) // len(self.cells_changed))
        require(
            not counted or counted == expected,
            f"grid: post-processing changed {counted} cells, the recomputation {expected}",
        )

    def check_replay(self, Y, eliminated, corr, order) -> None:
        for j in range(Y.shape[0]):
            possible = recover_possible_inputs(Y[j], corr, self.TAU_HAT, self.GAMMA_HAT, order)
            require(
                np.array_equal(possible, ~eliminated[j]),
                f"grid: replay of row {j} under the true order differs from the mechanism",
            )

    def figures(self, rounds):
        return {"grid_trials_per_s": self.DATASETS / median_seconds(rounds)}


class Population(Workload):
    """One cohort: fit, share under a random order, attack, score."""

    name = "population"
    NOMINAL_ROUND_S = 2.5
    EPSILON, TAU_HAT, GAMMA_HAT, TAU, GAMMA = 1.0, 0.2, 0.5, 0.2, 0.5
    FIT_PAIRS = 64

    def __init__(self, seed, tracer, workdir, n=1000, l=1000):
        super().__init__(seed, tracer, workdir)
        self.n, self.l = n, l
        self.mechanism = MechanismConfig(self.EPSILON, self.TAU_HAT, self.GAMMA_HAT, SharingMode.BEACON)
        self.attack = AttackConfig(epsilon_known=self.EPSILON, tau=self.TAU, gamma=self.GAMMA)

    def _pass(self, ss: np.random.SeedSequence):
        data_ss, order_ss, noise_ss = ss.spawn(3)
        with self.tracer.span("data.synth"):
            matrix = synth(self.n, self.l, data_ss)
        order = random_order(self.l, order_ss)
        steps = {}
        with self.step(steps, "data.fit"):
            corr = compute_correlation_model(matrix)
        with self.step(steps, "data.low_mask"):
            corr.low_mask(self.TAU_HAT)
        with self.step(steps, "mechanism.perturb_population"):
            share = perturb_population(matrix, order, corr, self.mechanism, noise_ss)
        with self.step(steps, "attack.attack_population"):
            belief = attack_population(share.values, corr, self.attack)
        with self.step(steps, "attack.score"):
            score = population_estimation_error(belief, matrix.values)
        return steps, matrix, order, corr, share, belief, score

    def warm_up(self):
        self._pass(self.seeds(WARM_UP))

    def run_round(self):
        steps, matrix, order, corr, share, belief, score = self._pass(self.seeds(ROUND))
        outputs = digest(corr.cond, share.values, share.eliminated, belief.probs, belief.eliminated, score)
        if self.same_as_first(outputs):
            X = matrix.values
            pairs = np.random.default_rng(self.seeds(CHECK)).integers(self.l, size=(self.FIT_PAIRS, 2))
            checks.check_fit_pairs(X, corr.cond, pairs)
            checks.check_share(X, share.values, share.eliminated, order, corr.cond, self.TAU_HAT, self.GAMMA_HAT)
            checks.check_belief(
                share.values, belief.probs, belief.eliminated, belief.fallback, corr.cond,
                self.TAU, self.GAMMA, self.EPSILON,
            )
            expected = checks.estimation_error(belief.probs, X)
            require(checks.close(score, expected), f"population: score {score} != {expected}")
        return {"steps": steps}

    def figures(self, rounds):
        return {"population_cells_per_s": self.n * self.l / median_seconds(rounds)}


class Order(Workload):
    """Exact adaptive solves at gate 04's configuration, each followed by
    exact evaluation of the greedy and a random order; then greedy_share on
    one row of a longer cohort."""

    name = "order"
    NOMINAL_ROUND_S = 2.7
    CONFIG = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.8, mode=SharingMode.BEACON)
    EXACT_N = 10
    EXPECTIMAX_LENGTHS = (4, 5, 5)

    # an instance's cost varies several-fold with its data; thirty of them keep
    # that variation to a few percent of a round
    def __init__(self, seed, tracer, workdir, exact_l=7, instances=30, greedy_n=50, greedy_l=150):
        super().__init__(seed, tracer, workdir)
        self.exact_l, self.instances = exact_l, instances
        self.greedy_n, self.greedy_l = greedy_n, greedy_l
        self.ops_per_round = instances + 1

    def _instance(self, l: int, *key: int):
        data_seed, pick, greedy_seed, random_seed = self.ints(4, *key)
        data = synth(self.EXACT_N, l, data_seed)
        return data.row(pick % self.EXACT_N), compute_correlation_model(data), greedy_seed, random_seed

    def _exact(self, steps: dict, name: str, *key: int) -> tuple[float, float, float]:
        """One exact instance as step ``name``: solve, then score the greedy and a random order."""
        row, corr, greedy_seed, random_seed = self._instance(self.exact_l, *key)
        shuffled = random_order(row.size, random_seed)
        span = self.tracer.span
        with self.step(steps, name, "ordering.exact_instance"):
            with span("ordering.exact_solve") as record:
                policy, optimum = optimal_order_value_iteration(row, corr, self.CONFIG)
            with span("ordering.greedy_order"):
                greedy, _ = greedy_share(row, corr, self.CONFIG, greedy_seed)
            with span("ordering.exact_eval"):
                greedy_value = expected_utility_of_order(row, greedy, corr, self.CONFIG)
            with span("ordering.exact_eval"):
                random_value = expected_utility_of_order(row, shuffled, corr, self.CONFIG)
        memo = getattr(getattr(policy, "_solver", None), "memo", None)
        if "id" in record and memo is not None:
            record["counts"] = {"exact_states": len(memo)}
        checks.check_order_values(row.size, optimum, greedy_value, random_value)
        return optimum, greedy_value, random_value

    def _greedy(self, steps: dict, *key: int):
        cohort_seed, share_seed = self.ints(2, *key)
        cohort = synth(self.greedy_n, self.greedy_l, cohort_seed)
        corr = compute_correlation_model(cohort)
        row = cohort.row(0)
        with self.step(steps, "ordering.greedy_share"):
            order, seq = greedy_share(row, corr, self.CONFIG, share_seed)
        return row, corr, share_seed, order, seq.values

    def check_greedy(self, row, corr, share_seed, order, values) -> None:
        """greedy_share's documented replay (perturb_sequence on the seed's
        first spawned child) reproduces its reports, and each pick is greedy."""
        replay = perturb_sequence(
            row, order, corr, self.CONFIG, np.random.SeedSequence(share_seed, spawn_key=(0,))
        )
        require(np.array_equal(replay.values, values), "order: greedy_share's replay gives other reports")
        checks.check_greedy_steps(
            row, order, replay.values, corr.cond, self.CONFIG.tau_hat, self.CONFIG.gamma_hat,
            self.CONFIG.epsilon, self.CONFIG.mode is SharingMode.BEACON,
        )

    def warm_up(self):
        self._exact({}, "exact", WARM_UP, 0)
        self._greedy({}, WARM_UP, 1)

    def run_round(self):
        steps = {}
        exact = [self._exact(steps, f"exact-{k}", ROUND, 0, k) for k in range(self.instances)]
        row, corr, share_seed, order, values = self._greedy(steps, ROUND, 1)
        if self.same_as_first(digest(exact, np.asarray(order), values)):
            self.check_greedy(row, corr, share_seed, order, values)
        return {"steps": steps}

    def final_check(self):
        """The solver's optimum equals the raw-prefix expectimax on small rows."""
        for k, l in enumerate(self.EXPECTIMAX_LENGTHS):
            row, corr, _, _ = self._instance(l, CHECK, k)
            _, optimum = optimal_order_value_iteration(row, corr, self.CONFIG)
            expected = checks.expectimax(
                row, corr.cond, self.CONFIG.tau_hat, self.CONFIG.gamma_hat,
                self.CONFIG.epsilon, self.CONFIG.mode is SharingMode.BEACON,
            )
            require(abs(optimum - expected) <= 1e-9, f"order: optimum {optimum} != expectimax {expected} at l={l}")

    def figures(self, rounds):
        return {
            "exact_instances_per_s": self.instances
            / median_seconds(rounds, *(f"exact-{k}" for k in range(self.instances))),
            "greedy_rows_per_s": 1.0 / median_seconds(rounds, "ordering.greedy_share"),
        }


class CliFiles(Workload):
    """gen -> corr -> perturb -> attack -> eval through files, in-process."""

    name = "cli-files"
    NOMINAL_ROUND_S = 2.5
    ops_per_round = 5
    EPSILON, TAU_HAT, GAMMA_HAT, TAU, GAMMA = 1.0, 0.2, 0.5, 0.2, 0.5

    def __init__(self, seed, tracer, workdir, n=400, l=150):
        super().__init__(seed, tracer, workdir)
        self.n, self.l = n, l

    def _chain(self, n: int, l: int, gen_seed: int, share_seed: int) -> dict:
        d = self.workdir / "cli"
        d.mkdir(parents=True, exist_ok=True)
        truth, model, reported, beliefs = d / "truth.txt", d / "model.json", d / "reported.txt", d / "beliefs.csv"
        eps = str(self.EPSILON)
        steps = [
            ("gen", ["gen", "--n", str(n), "--l", str(l), "--maf", str(MAF), "--rho", str(RHO),
                     "--seed", str(gen_seed), "--out", str(truth)]),
            ("corr", ["corr", "--data", str(truth), "--out", str(model)]),
            ("perturb", ["perturb", "--data", str(truth), "--corr", str(model), "--mechanism", "proposed",
                         "--epsilon", eps, "--tau-hat", str(self.TAU_HAT), "--gamma-hat", str(self.GAMMA_HAT),
                         "--mode", "beacon", "--order", "random", "--seed", str(share_seed),
                         "--out", str(reported)]),
            ("attack", ["attack", "--data", str(reported), "--corr", str(model), "--epsilon", eps,
                        "--tau", str(self.TAU), "--gamma", str(self.GAMMA), "--out", str(beliefs)]),
            ("eval", ["eval", "--truth", str(truth), "--reported", str(reported), "--epsilon", eps,
                      "--beliefs", str(beliefs)]),
        ]
        times, stdout = {}, {}
        for name, argv in steps:
            with self.step(times, f"cli.{name}") as record:
                code, stdout[name], err = run_cli(argv)
            require(code == 0, f"cli-files: {name} exited {code}: {err.strip()}")
            if name == "corr":
                model_bytes = os.path.getsize(model)
                record["counts"] = {"model_file_bytes": model_bytes}
        outputs = digest(truth, model, reported, beliefs, stdout["eval"])
        return {"steps": times, "model_file_bytes": model_bytes, "outputs": outputs,
                "files": (truth, model, reported, beliefs), "eval": stdout["eval"]}

    def check_chain(self, n, l, gen_seed, truth, model, reported, beliefs, eval_out) -> None:
        """The truth file holds the generated matrix, the model file holds the
        in-memory fit bit for bit, the belief file is the attack on the
        reported file, and eval's e_attack is the error of those beliefs."""
        matrix = synth(n, l, gen_seed)
        X = matrix.values
        require(np.array_equal(read_genotypes(truth), X), "cli-files: truth file differs from gen's matrix")
        fit = compute_correlation_model(matrix)
        cond, marginals = read_model(model)
        require(
            cond.tobytes() == fit.cond.tobytes() and marginals.tobytes() == fit.marginals.tobytes(),
            "cli-files: model file differs from the in-memory fit",
        )
        Y = read_genotypes(reported)
        require(Y.shape == X.shape, "cli-files: reported file has the wrong shape")
        probs, eliminated, fallback = read_beliefs(beliefs, n, l)
        checks.check_belief(Y, probs, eliminated, fallback, cond, self.TAU, self.GAMMA, self.EPSILON)
        printed = dict(line.split("=", 1) for line in eval_out.split())
        require("e_attack" in printed, "cli-files: eval printed no e_attack")
        expected = checks.estimation_error(probs, X)
        require(
            checks.close(float(printed["e_attack"]), expected),
            f"cli-files: e_attack {printed['e_attack']} != {expected}",
        )

    def warm_up(self):
        gen_seed, share_seed = self.ints(2, WARM_UP)
        self._chain(100, 40, gen_seed, share_seed)

    def run_round(self):
        gen_seed, share_seed = self.ints(2, ROUND)
        result = self._chain(self.n, self.l, gen_seed, share_seed)
        if self.same_as_first(result["outputs"]):
            with self.tracer.paused():
                self.check_chain(self.n, self.l, gen_seed, *result["files"], result["eval"])
        return {"steps": result["steps"], "model_file_bytes": result["model_file_bytes"]}

    def figures(self, rounds):
        return {
            "cli_pipeline_s": median_seconds(rounds),
            "model_file_bytes": rounds[0]["model_file_bytes"],
        }


def read_genotypes(path) -> np.ndarray:
    """Parse a genotype text file: header 'n l', then n rows of l values."""
    with open(path, encoding="utf-8") as fh:
        n, l = (int(v) for v in fh.readline().split())
        values = np.array(fh.read().split(), dtype=np.int8)
    require(values.size == n * l, f"{path}: {values.size} values for a {n}x{l} header")
    return values.reshape(n, l)


def read_model(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse the model JSON; null conditionals become NaN."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    cond = np.array(payload["cond"], dtype=np.float64)
    l = payload["l"]
    require(cond.shape == (l, l, 3, 3), f"{path}: conditional table has shape {cond.shape}")
    return cond, np.array(payload["marginals"], dtype=np.float64)


def read_beliefs(path, n: int, l: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse the belief CSV into (probs, eliminated, fallback) arrays."""
    with open(path, newline="") as fh:
        header = fh.readline().strip().split(",")
        require(
            header == ["row", "snp", "p0", "p1", "p2", "elim0", "elim1", "elim2", "fallback"],
            f"{path}: unexpected header {header}",
        )
        table = np.array([line.split(",") for line in fh.read().split()], dtype=np.float64)
    require(table.shape == (n * l, 9), f"{path}: {table.shape[0]} rows for {n}x{l} cells")
    index = table[:, 0].astype(np.int64) * l + table[:, 1].astype(np.int64)
    require(np.array_equal(np.sort(index), np.arange(n * l)), f"{path}: cells missing or repeated")
    table = table[np.argsort(index)].reshape(n, l, 9)
    return table[:, :, 2:5], table[:, :, 5:8] == 1, table[:, :, 8] == 1


WORKLOADS = (Grid, Population, Order, CliFiles)
BY_NAME = {w.name: w for w in WORKLOADS}
