"""Seeded comparison harness: determinism, seeding structure, output files."""

import csv
import math

import pytest

from corrldp.data import SyntheticSpec
from corrldp.experiments import (
    ExperimentConfig,
    OrderStrategy,
    run_experiment,
    run_single_trial,
    write_results,
)


def _config(**overrides):
    base = dict(
        epsilon_grid=(0.5, 1.5),
        trials=3,
        seed=42,
        synthetic=SyntheticSpec(n=12, l=6, maf=0.3, rho=0.8),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _same_row(a, b) -> bool:
    """TrialResult equality that treats NaN metrics as equal to NaN."""
    if (a.epsilon, a.trial) != (b.epsilon, b.trial) or set(a.metrics) != set(b.metrics):
        return False
    return all(
        va == b.metrics[k] or (math.isnan(va) and math.isnan(b.metrics[k]))
        for k, va in a.metrics.items()
    )


def test_config_validation():
    with pytest.raises(ValueError, match="nonempty"):
        _config(epsilon_grid=())
    with pytest.raises(ValueError, match="trials"):
        _config(trials=0)
    with pytest.raises(ValueError, match="exactly one"):
        _config(dataset_path="also.txt")
    with pytest.raises(ValueError, match="exactly one"):
        ExperimentConfig(epsilon_grid=(1.0,), trials=1, seed=0)
    with pytest.raises(ValueError):
        _config(tau_hat=1.5)  # delegated range check
    with pytest.raises(ValueError):
        _config(gamma=7.0)
    with pytest.raises(ValueError, match="repeats the budget 1.0"):
        _config(epsilon_grid=(1.0, 0.5, 1.0))


def test_metric_names_follow_postprocess_flag():
    with_post = _config().metric_names()
    without = _config(include_postprocess=False).metric_names()
    assert "a_rr_post" in with_post and "a_rr_post_yes" in with_post
    assert not any(m.startswith("a_rr_post") for m in without)
    assert set(without) < set(with_post)


def test_rows_cover_grid_and_have_all_metrics():
    config = _config(include_postprocess=False)
    result = run_experiment(config)
    assert [(r.epsilon, r.trial) for r in result.results] == [
        (eps, t) for eps in config.epsilon_grid for t in range(config.trials)
    ]
    for r in result.results:
        assert set(r.metrics) == set(config.metric_names())
        for name, value in r.metrics.items():
            assert math.isnan(value) or value >= 0.0, (name, value)


def test_runs_are_deterministic():
    config = _config(include_postprocess=False)
    a = run_experiment(config)
    b = run_experiment(config)
    for ra, rb in zip(a.results, b.results):
        assert _same_row(ra, rb)


def test_adding_trials_keeps_existing_rows():
    short = run_experiment(_config(trials=2, include_postprocess=False))
    longer = run_experiment(_config(trials=4, include_postprocess=False))
    by_key = {(r.epsilon, r.trial): r for r in longer.results}
    for r in short.results:
        assert _same_row(by_key[(r.epsilon, r.trial)], r)


def test_adding_grid_points_keeps_existing_rows():
    narrow = run_experiment(_config(epsilon_grid=(0.5,), include_postprocess=False))
    wide = run_experiment(_config(epsilon_grid=(0.5, 2.0), include_postprocess=False))
    by_key = {(r.epsilon, r.trial): r for r in wide.results}
    for r in narrow.results:
        assert _same_row(by_key[(r.epsilon, r.trial)], r)


def test_parallel_equals_serial(tmp_path):
    config = _config(include_postprocess=False)
    serial = run_experiment(config, jobs=1)
    parallel = run_experiment(config, jobs=2)
    assert all(_same_row(s, p) for s, p in zip(serial.results, parallel.results))
    assert len(serial.results) == len(parallel.results)
    serial_files = write_results(serial, tmp_path / "serial")
    parallel_files = write_results(parallel, tmp_path / "parallel")
    for a, b in zip(serial_files, parallel_files):
        assert a.read_bytes() == b.read_bytes()
    with pytest.raises(ValueError, match="jobs"):
        run_experiment(config, jobs=0)


def test_pool_never_outnumbers_the_trials(monkeypatch):
    from corrldp import experiments

    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size, starts nothing."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    serial = run_experiment(_config(epsilon_grid=(1.0,), include_postprocess=False))
    for trials, jobs, pools in ((1, 5, []), (3, 5, [3]), (3, 2, [2])):
        sizes.clear()
        config = _config(epsilon_grid=(1.0,), trials=trials, include_postprocess=False)
        result = run_experiment(config, jobs=jobs)
        assert sizes == pools, (trials, jobs)
        assert len(result.results) == trials
        assert all(_same_row(a, b) for a, b in zip(result.results, serial.results))


def test_one_dataset_and_one_fit_per_trial(monkeypatch, tmp_path):
    from corrldp import experiments
    from corrldp.data import GenotypeMatrix, save_genotype_matrix
    import numpy as np

    calls = {}

    def counted(name):
        inner = getattr(experiments, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(experiments, name, wrapper)

    for name in (
        "generate_synthetic_population", "load_genotype_matrix", "compute_correlation_model"
    ):
        counted(name)
    grid = dict(epsilon_grid=(0.5, 1.0, 1.5), trials=3, include_postprocess=False)
    assert len(run_experiment(_config(**grid)).results) == 9
    assert calls == {"generate_synthetic_population": 3, "compute_correlation_model": 3}

    calls.clear()
    path = tmp_path / "fixed.txt"
    rng = np.random.default_rng(0)
    save_genotype_matrix(GenotypeMatrix(rng.integers(0, 3, size=(10, 5))), path)
    config = ExperimentConfig(seed=7, dataset_path=str(path), **grid)
    assert len(run_experiment(config).results) == 9
    assert calls == {"load_genotype_matrix": 3, "compute_correlation_model": 3}


def test_single_trial_matches_harness_row():
    config = _config(include_postprocess=False)
    result = run_experiment(config)
    lone = run_single_trial(config, 2)
    assert [(r.epsilon, r.trial) for r in lone] == [(eps, 2) for eps in config.epsilon_grid]
    for row in lone:
        assert _same_row(
            row, [r for r in result.results if r.epsilon == row.epsilon and r.trial == 2][0]
        )


def test_order_strategies_all_run():
    for strategy in OrderStrategy:
        config = _config(
            trials=1,
            epsilon_grid=(1.0,),
            order_strategy=strategy,
            include_postprocess=False,
        )
        result = run_experiment(config)
        assert len(result.results) == 1
        assert not math.isnan(result.results[0].metrics["e_prop_attack"])


def test_capacity_guidance_for_exact_strategy():
    config = _config(
        synthetic=SyntheticSpec(n=4, l=13, maf=0.3, rho=0.8),
        epsilon_grid=(1.0,),
        trials=1,
        order_strategy=OrderStrategy.OPTIMAL,
        include_postprocess=False,
    )
    with pytest.raises(ValueError, match="random or greedy"):
        run_experiment(config)


def test_replay_augmented_attack_arm_runs():
    config = _config(
        trials=1,
        epsilon_grid=(1.0,),
        attacker_knows_mechanism=True,
        order_strategy=OrderStrategy.GREEDY,
        include_postprocess=False,
    )
    result = run_experiment(config)
    assert not math.isnan(result.results[0].metrics["e_prop_attack"])


def test_mean_metric_and_summary_agree_with_detail(tmp_path):
    config = _config()
    result = run_experiment(config)
    detail_path, summary_path = write_results(result, tmp_path)
    with open(detail_path, newline="") as fh:
        detail = list(csv.DictReader(fh))
    with open(summary_path, newline="") as fh:
        summary = list(csv.DictReader(fh))

    assert len(detail) == len(config.epsilon_grid) * config.trials
    assert len(summary) == len(config.epsilon_grid)
    for row in summary:
        eps = float(row["epsilon"])
        assert int(row["trials"]) == config.trials
        group = [r for r in detail if float(r["epsilon"]) == eps]
        for name in config.metric_names():
            vals = [float(r[name]) for r in group if not math.isnan(float(r[name]))]
            got_mean = float(row[f"mean_{name}"])
            if not vals:
                assert math.isnan(got_mean)
                continue
            assert got_mean == pytest.approx(sum(vals) / len(vals), abs=1e-12)
            assert min(vals) - 1e-12 <= got_mean <= max(vals) + 1e-12
            assert got_mean == pytest.approx(result.mean_metric(name, eps), abs=1e-15)
            se = float(row[f"se_{name}"])
            if len(vals) >= 2:
                import statistics

                assert se == pytest.approx(
                    statistics.stdev(vals) / math.sqrt(len(vals)), abs=1e-12
                )
            else:
                assert math.isnan(se)


def test_written_files_are_byte_stable(tmp_path):
    config = _config(trials=2, include_postprocess=False)
    a_detail, a_summary = write_results(run_experiment(config), tmp_path / "a")
    b_detail, b_summary = write_results(run_experiment(config), tmp_path / "b")
    assert a_detail.read_bytes() == b_detail.read_bytes()
    assert a_summary.read_bytes() == b_summary.read_bytes()


def test_dataset_path_mode(tmp_path):
    from corrldp.data import GenotypeMatrix, save_genotype_matrix
    import numpy as np

    path = tmp_path / "fixed.txt"
    rng = np.random.default_rng(0)
    save_genotype_matrix(GenotypeMatrix(rng.integers(0, 3, size=(10, 5))), path)
    config = ExperimentConfig(
        epsilon_grid=(1.0,),
        trials=2,
        seed=7,
        dataset_path=str(path),
        include_postprocess=False,
    )
    result = run_experiment(config)
    # same data both trials, but fresh noise: metrics exist and rows differ
    # somewhere with overwhelming probability
    assert len(result.results) == 2
    assert result.results[0].metrics != result.results[1].metrics


def test_greedy_replay_error_is_the_mean_of_per_row_errors(monkeypatch):
    import numpy as np

    from corrldp import experiments
    from corrldp.attack import AttackConfig, attack_population, estimation_error
    from corrldp.data import child_seeds, compute_correlation_model
    from corrldp.mechanism import MechanismConfig
    from corrldp.ordering import greedy_share

    config = _config(
        trials=1,
        epsilon_grid=(1.0,),
        attacker_knows_mechanism=True,
        order_strategy=OrderStrategy.GREEDY,
        include_postprocess=False,
    )
    shared = []

    def spy(values, corr, attack_config, assumed_order=None):
        if assumed_order is not None:  # the mechanism arm, attacked with its orders
            shared.append((values, assumed_order))
        return attack_population(values, corr, attack_config, assumed_order=assumed_order)

    monkeypatch.setattr(experiments, "attack_population", spy)
    (result,) = run_single_trial(config, 0)
    ((values, orders),) = shared
    matrix = experiments._load_data(config, 0)
    corr = compute_correlation_model(matrix)
    mech = MechanismConfig(1.0, config.tau_hat, config.gamma_hat, config.mode)
    assert len({tuple(o) for o in orders}) > 1
    # each row is what greedy_share gives it on the row's own child seed
    seeds = child_seeds(experiments._sub_seed(config.seed, 0, experiments._MECH_PURPOSE, 10**6), matrix.n)
    for j in range(matrix.n):
        order, seq = greedy_share(matrix.row(j), corr, mech, seeds[j])
        assert order == tuple(orders[j]) and np.array_equal(seq.values, values[j])
    known = AttackConfig(1.0, config.tau, config.gamma, (config.tau_hat, config.gamma_hat))
    errors = [
        estimation_error(
            attack_population(values[j][None], corr, known, assumed_order=orders[j]).probs[0],
            matrix.row(j),
        )
        for j in range(matrix.n)
    ]
    assert abs(result.metrics["e_prop_attack"] - float(np.mean(errors))) <= 1e-12
