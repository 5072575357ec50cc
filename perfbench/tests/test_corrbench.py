"""The benchmark's own tests: every workload runs at a tiny size, and every
correctness check rejects a deliberately corrupted output.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from corrbench import checks, layers, workloads
from corrbench.checks import CheckError
from corrbench.tracing import NullTracer, Tracer
from corrldp.attack import AttackConfig, attack_population
from corrldp.data import compute_correlation_model
from corrldp.mechanism import MechanismConfig, SharingMode, perturb_population
from corrldp.ordering import random_order

RUN = Path(__file__).resolve().parents[1] / "run.py"


def tiny(cls, tmp_path, tracer=None):
    sizes = {
        "grid": dict(n=30, l=20),
        "population": dict(n=40, l=30),
        "order": dict(exact_l=5, instances=2, greedy_n=20, greedy_l=15),
        "cli-files": dict(n=30, l=12),
    }[cls.name]
    return cls(3, tracer or NullTracer(), tmp_path, **sizes)


@pytest.mark.parametrize("cls", workloads.WORKLOADS, ids=lambda c: c.name)
def test_workload_runs_and_checks_at_tiny_size(cls, tmp_path):
    workload = tiny(cls, tmp_path)
    workload.warm_up()
    rounds = [workload.run_round() for _ in range(2)]
    workload.final_check()
    assert rounds[0]["steps"].keys() == rounds[1]["steps"].keys()
    assert all(t > 0 for r in rounds for t in r["steps"].values())
    assert workload.figures(rounds)


def test_fastest_round_sums_each_steps_fastest_time():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    rounds = [{"steps": {"a": 1.0, "b": 3.0}}, {"steps": {"a": 2.0, "b": 2.5}}, {"steps": {"a": 1.5, "b": 4.0}}]
    assert run.fastest_round(rounds) == 3.5


def test_inputs_depend_only_on_the_seed(tmp_path):
    a, b = (tiny(workloads.Population, tmp_path) for _ in range(2))
    assert a.seeds(0, 5).generate_state(4).tolist() == b.seeds(0, 5).generate_state(4).tolist()
    assert a.ints(2, 0, 1) != a.ints(2, 0, 2)


def test_traced_round_reports_home_layers(tmp_path):
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        for cls in workloads.WORKLOADS:
            workload = tiny(cls, tmp_path, tracer)
            tracer.workload = cls.name
            workload.run_round()
    finally:
        tracer.restore()
    metrics = layers.per_layer_metrics(tracer)
    assert set(metrics) == set(layers.PER_LAYER)
    spans = tracer.spans
    assert all(s["end"] >= s["start"] for s in spans)
    replay = [s for s in spans if s["name"] == "attack.replay"]
    assert replay and all(spans[s["parent"]]["name"] == "attack.attack_population" for s in replay)


def test_restore_puts_originals_back():
    import importlib

    experiments = importlib.import_module("corrldp.experiments")
    before = experiments.run_single_trial
    tracer = Tracer()
    layers.instrument(tracer)
    assert experiments.run_single_trial is not before
    tracer.restore()
    assert experiments.run_single_trial is before


# --- population: share, belief and fit checks -------------------------------------------


@pytest.fixture(scope="module")
def shared():
    matrix = workloads.synth(60, 40, 7)
    corr = compute_correlation_model(matrix)
    config = MechanismConfig(1.0, 0.2, 0.5, SharingMode.BEACON)
    order = random_order(40, 8)
    share = perturb_population(matrix, order, corr, config, 9)
    belief = attack_population(share.values, corr, AttackConfig(epsilon_known=1.0, tau=0.2, gamma=0.5))
    return matrix.values, corr, order, share, belief


def _check_share(X, corr, order, values, eliminated):
    checks.check_share(X, values, eliminated, order, corr.cond, 0.2, 0.5)


def test_share_check_accepts_the_mechanism(shared):
    X, corr, order, share, _ = shared
    _check_share(X, corr, order, share.values, share.eliminated)


def test_share_check_rejects_a_flipped_sole_survivor(shared):
    X, corr, order, share, _ = shared
    sole = np.argwhere(share.eliminated.sum(axis=2) == 2)
    assert len(sole), "fixture has no sole-survivor cell"
    j, i = sole[0]
    values = share.values.copy()
    values[j, i] = (values[j, i] + 1) % 3
    with pytest.raises(CheckError):
        _check_share(X, corr, order, values, share.eliminated)


def test_share_check_rejects_a_report_of_an_eliminated_state(shared):
    X, corr, order, share, _ = shared
    eliminated = share.eliminated.copy()
    j, i = np.argwhere(~eliminated.all(axis=2))[0]
    eliminated[j, i, share.values[j, i]] = True
    with pytest.raises(CheckError):
        _check_share(X, corr, order, share.values, eliminated)


def test_share_check_rejects_a_flipped_elimination_bit(shared):
    X, corr, order, share, _ = shared
    eliminated = share.eliminated.copy()
    eliminated[0, order[-1], 0] ^= True
    with pytest.raises(CheckError):
        _check_share(X, corr, order, share.values, eliminated)


def _check_belief(share, belief, corr, probs=None):
    probs = belief.probs if probs is None else probs
    checks.check_belief(share.values, probs, belief.eliminated, belief.fallback, corr.cond, 0.2, 0.5, 1.0)


def test_belief_check_accepts_the_attack(shared):
    _, corr, _, share, belief = shared
    _check_belief(share, belief, corr)


def test_belief_check_rejects_mass_moved_onto_an_eliminated_state(shared):
    _, corr, _, share, belief = shared
    cells = np.argwhere(belief.eliminated.any(axis=2) & ~belief.fallback)
    assert len(cells), "fixture has no partly eliminated cell"
    j, i = cells[0]
    v = int(np.argmax(belief.eliminated[j, i]))
    w = int(np.argmax(belief.probs[j, i]))
    probs = belief.probs.copy()
    probs[j, i, w] -= 0.01
    probs[j, i, v] += 0.01
    with pytest.raises(CheckError):
        _check_belief(share, belief, corr, probs)


def test_belief_check_rejects_a_row_that_does_not_sum_to_one(shared):
    _, corr, _, share, belief = shared
    probs = belief.probs.copy()
    probs[2, 3] *= 1.001
    with pytest.raises(CheckError):
        _check_belief(share, belief, corr, probs)


def test_belief_check_rejects_survivors_weighted_off_the_profile(shared):
    _, corr, _, share, belief = shared
    cells = np.argwhere(belief.eliminated.sum(axis=2) == 1)
    assert len(cells), "fixture has no cell with two survivors"
    j, i = cells[0]
    probs = belief.probs.copy()
    probs[j, i] = np.where(belief.eliminated[j, i], 0.0, 0.5)
    with pytest.raises(CheckError, match="differ from the method"):
        _check_belief(share, belief, corr, probs)


def test_fit_check_rejects_a_changed_conditional(shared):
    X, corr, _, _, _ = shared
    checks.check_fit_pairs(X, corr.cond, [(3, 5), (5, 3), (0, 0)])
    cond = corr.cond.copy()
    cond[3, 5, 0, 1] = np.nextafter(cond[3, 5, 0, 1], 2.0)
    with pytest.raises(CheckError):
        checks.check_fit_pairs(X, cond, [(3, 5)])


# --- grid -----------------------------------------------------------------------------------


@pytest.fixture
def grid_round(tmp_path):
    grid = tiny(workloads.Grid, tmp_path)
    grid.run_round()
    return grid


def test_grid_check_rejects_a_wrong_e_rr(grid_round):
    row = dict(grid_round.row, e_rr=repr(float(grid_round.row["e_rr"]) + 1e-9))
    with pytest.raises(CheckError, match="e_rr"):
        grid_round.check_row(grid_round.exp_seed, row)


def test_grid_check_rejects_an_accuracy_outside_the_unit_interval(grid_round):
    with pytest.raises(CheckError, match="outside"):
        grid_round.check_row(grid_round.exp_seed, dict(grid_round.row, a_prop="1.5"))


def test_grid_check_rejects_a_wrong_post_processed_accuracy(grid_round):
    row = grid_round.row
    assert grid_round.cells_changed[grid_round.exp_seed] > 0, "fixture repairs no cell"
    keys = [k for k in ("a_rr_post", "a_rr_post_yes", "a_rr_post_no") if row[k] != "nan"]
    assert len(keys) >= 2
    for key in keys:
        value = float(row[key])
        wrong = value - 0.05 if value >= 0.05 else value + 0.05
        with pytest.raises(CheckError, match=key):
            grid_round.check_row(grid_round.exp_seed, dict(row, **{key: repr(wrong)}))


def test_postprocess_check_repairs_like_the_program(shared):
    from corrldp.attack import rr_postprocess_population

    X, corr, _, _, _ = shared
    Y = checks.rr_reports(X, 0.8, 5)
    repaired = checks.rr_postprocess(Y, corr.cond, 0.2, 0.5)
    assert np.count_nonzero(repaired != Y) > 0
    assert np.array_equal(repaired, rr_postprocess_population(Y.astype(np.int8), corr, 0.2, 0.5))


def test_grid_check_rejects_a_wrong_count_of_post_processed_cells(grid_round):
    class Counted(NullTracer):
        def __init__(self, shift):
            self.shift = shift

        def counts(self, workload, name, key):
            # two rounds of the two datasets, the second dataset's count shifted
            return [c + self.shift * k for k, c in enumerate(grid_round.cells_changed.values())] * 2

    grid_round.tracer = Counted(0)
    grid_round.final_check()
    grid_round.tracer = Counted(1)
    with pytest.raises(CheckError, match="post-processing changed"):
        grid_round.final_check()


def test_grid_check_rejects_a_wrong_e_prop_attack(grid_round):
    grid_round.row = dict(grid_round.row, e_prop_attack=repr(float(grid_round.row["e_prop_attack"]) * 0.99))
    with pytest.raises(CheckError, match="e_prop_attack"):
        grid_round.final_check()


def test_a_repeated_round_must_reproduce_the_first(grid_round, monkeypatch):
    experiment = grid_round._experiment

    def changed(steps, name, exp_seed):
        row = experiment(steps, name, exp_seed)
        return dict(row, e_rr=repr(float(row["e_rr"]) + 1e-9))

    monkeypatch.setattr(grid_round, "_experiment", changed)
    with pytest.raises(CheckError, match="repeated round"):
        grid_round.run_round()


def test_replay_check_rejects_a_flipped_elimination(shared):
    _, corr, order, share, _ = shared
    grid = workloads.Grid(0, NullTracer(), Path("."), n=60, l=40)
    grid.check_replay(share.values, share.eliminated, corr, order)
    eliminated = share.eliminated.copy()
    eliminated[4, order[10]] ^= True
    with pytest.raises(CheckError, match="replay"):
        grid.check_replay(share.values, eliminated, corr, order)


# --- order ----------------------------------------------------------------------------------


def test_order_check_rejects_an_optimum_below_greedy():
    checks.check_order_values(5, 3.0, 2.9, 2.5)
    with pytest.raises(CheckError, match="below greedy"):
        checks.check_order_values(5, 2.8, 2.9, 2.5)
    with pytest.raises(CheckError, match="exceeds"):
        checks.check_order_values(5, 5.1, 2.9, 2.5)


def test_expectimax_check_rejects_a_shifted_optimum(tmp_path, monkeypatch):
    order = tiny(workloads.Order, tmp_path)
    order.final_check()
    solve = workloads.optimal_order_value_iteration

    def shifted(row, corr, config):
        policy, value = solve(row, corr, config)
        return policy, value - 1e-6

    monkeypatch.setattr(workloads, "optimal_order_value_iteration", shifted)
    with pytest.raises(CheckError, match="expectimax"):
        order.final_check()


def test_greedy_check_rejects_a_changed_report_and_a_non_greedy_order(tmp_path):
    order = tiny(workloads.Order, tmp_path)
    cohort = workloads.synth(20, 15, 4)
    corr = compute_correlation_model(cohort)
    row = cohort.row(0)
    picks, seq = workloads.greedy_share(row, corr, order.CONFIG, 11)
    order.check_greedy(row, corr, 11, picks, seq.values)
    values = seq.values.copy()
    values[picks[3]] = (values[picks[3]] + 1) % 3
    with pytest.raises(CheckError, match="replay"):
        order.check_greedy(row, corr, 11, picks, values)
    table = checks.utility_table(1.0, True)
    worst_first = sorted(range(15), key=lambda i: table[int(row[i]), 0])
    assert table[int(row[worst_first[0]]), 0] < table[int(row[worst_first[-1]]), 0]
    with pytest.raises(CheckError, match="greedy: step 1"):
        checks.check_greedy_steps(row, worst_first, seq.values, corr.cond, 0.2, 0.8, 1.0, True)


# --- cli-files ------------------------------------------------------------------------------


@pytest.fixture
def chain(tmp_path):
    cli = tiny(workloads.CliFiles, tmp_path)
    cli.run_round()
    d = tmp_path / "cli"
    gen_seed, _ = cli.ints(2, workloads.ROUND)
    files = [d / "truth.txt", d / "model.json", d / "reported.txt", d / "beliefs.csv"]
    return cli, gen_seed, files


def _eval(files):
    code, out, _ = workloads.run_cli(
        ["eval", "--truth", str(files[0]), "--reported", str(files[2]), "--epsilon", "1.0",
         "--beliefs", str(files[3])]
    )
    assert code == 0
    return out


def _check_chain(chain, eval_out=None):
    cli, gen_seed, files = chain
    cli.check_chain(cli.n, cli.l, gen_seed, *files, eval_out if eval_out is not None else _eval(files))


def test_chain_check_accepts_the_cli(chain):
    _check_chain(chain)


def test_chain_check_rejects_a_dropped_model_entry(chain):
    model = chain[2][1]
    payload = json.loads(model.read_text())
    cell = payload["cond"][2][7]
    a, b = next((a, b) for a in range(3) for b in range(3) if cell[a][b] is not None)
    cell[a][b] = None
    model.write_text(json.dumps(payload))
    with pytest.raises(CheckError, match="model file"):
        _check_chain(chain)


def test_chain_check_rejects_a_wrong_e_attack(chain):
    out = _eval(chain[2]).replace("e_attack=", "e_attack=1")
    with pytest.raises(CheckError, match="e_attack"):
        _check_chain(chain, out)


def test_chain_check_rejects_a_skewed_belief_row(chain):
    beliefs = chain[2][3]
    lines = beliefs.read_text().splitlines()
    # a cell with one eliminated state: its two survivors are set to even odds,
    # so the row still sums to 1 and puts no mass on the eliminated state
    k = next(k for k, line in enumerate(lines[1:], 1) if sorted(line.split(",")[5:9]) == ["0", "0", "0", "1"])
    fields = lines[k].split(",")
    fields[2:5] = ["0" if fields[5 + v] == "1" else "0.5" for v in range(3)]
    lines[k] = ",".join(fields)
    beliefs.write_text("\n".join(lines) + "\n")
    # eval reads the corrupted file, so its e_attack agrees with it
    with pytest.raises(CheckError, match="differ from the method"):
        _check_chain(chain)


def test_chain_rejects_a_failed_command(tmp_path, monkeypatch):
    cli = tiny(workloads.CliFiles, tmp_path)
    monkeypatch.setattr(workloads, "run_cli", lambda argv: (2, "", "usage error: boom"))
    with pytest.raises(CheckError, match="exited 2"):
        cli.run_round()


# --- the entry point ------------------------------------------------------------------------


def test_run_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(RUN.parent, bench, ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "order", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
