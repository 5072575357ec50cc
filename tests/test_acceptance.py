"""Acceptance gate: one test per headline requirement, at stated tolerances.

Each test is self-contained, pins its own seeds, and asserts its runtime
budget where one applies.  Run with ``pytest -v tests/test_acceptance.py``
for one pass/fail line per requirement.
"""

import itertools
import math
import statistics
import time
from fractions import Fraction

import numpy as np

from support import MdpSpec, brute_force_order, reference_optimal_value

from corrldp.attack import (
    AttackConfig,
    attack_population,
    population_estimation_error,
    rr_belief_population,
)
from corrldp.cli import main as cli_main
from corrldp.data import (
    GenotypeMatrix,
    SyntheticSpec,
    compute_correlation_model,
    generate_synthetic_population,
)
from corrldp.experiments import ExperimentConfig, OrderStrategy, run_experiment
from corrldp.kinship import (
    FamilyShape,
    FamilyState,
    ShareRecord,
    max_budget_general,
    max_budget_one_child,
    max_budget_second_child,
)
from corrldp.leakage import LeakageQuery, leakage_upper_bound
from corrldp.mechanism import (
    MechanismConfig,
    SharingMode,
    perturb_population,
    sharing_probs,
)
from corrldp.ordering import (
    expected_utility_of_order,
    greedy_share,
    optimal_order_value_iteration,
    random_order,
)
from corrldp.rr import PerturbParams, rr_estimate_frequencies, rr_perturb


def test_criterion_01_report_ratio_within_budget_exact_rationals():
    """Over every branch of the report table, the likelihood ratio between two
    non-eliminated inputs never exceeds the budget's ratio — exact rational
    arithmetic, all five budgets, under one second."""
    start = time.perf_counter()
    for epsilon in (0.1, 0.5, 1.0, 2.0, 5.0):
        ratio = Fraction(math.exp(epsilon))
        params = PerturbParams.from_likelihood_ratio(ratio)
        for mode in SharingMode:
            for bits in range(8):
                eliminated = {v for v in range(3) if bits >> v & 1}
                survivors = [v for v in range(3) if v not in eliminated]
                dists = {
                    x: sharing_probs(x, eliminated, params, mode)[0] for x in survivors
                }
                for a, b in itertools.permutations(survivors, 2):
                    for y in range(3):
                        num, den = dists[a][y], dists[b][y]
                        if num == 0 and den == 0:
                            continue
                        assert den > 0, (
                            f"one-sided zero breaks the ratio bound: eps={epsilon} "
                            f"mode={mode} elim={eliminated} inputs=({a},{b}) y={y}"
                        )
                        assert Fraction(num, den) <= ratio, (
                            f"ratio exceeded: eps={epsilon} mode={mode} "
                            f"elim={eliminated} inputs=({a},{b}) y={y}"
                        )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_criterion_02_family_budget_closed_forms_and_solver():
    """Closed-form family budgets hit their reference values, and the generic
    solver reproduces both closed forms across a budget grid, under 5 s."""
    start = time.perf_counter()
    assert abs(max_budget_one_child(1.0) - math.log((3 * math.e - 1) / 2)) <= 1e-9
    assert abs(max_budget_second_child(0.5) - 0.259) <= 1e-3
    for eps in np.arange(0.1, 3.01, 0.1):
        eps = float(eps)
        one_child = FamilyState(
            shape=FamilyShape.ONE_CHILD_TO_PARENT,
            budgets={"parent": eps, "child": math.inf},
        )
        got = max_budget_general(one_child, 0, "child")
        assert abs(got - max_budget_one_child(eps)) <= 1e-3, f"one-child at eps={eps}"
        two_children = FamilyState(
            shape=FamilyShape.TWO_CHILDREN_TO_PARENT,
            budgets={"parent": eps, "child1": math.inf, "child2": math.inf},
            shares=(ShareRecord("child1", 0, 0, eps),),
        )
        got = max_budget_general(two_children, 0, "child2")
        assert abs(got - max_budget_second_child(eps)) <= 1e-3, f"second-child at eps={eps}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


def test_criterion_03_exact_order_optimum_dominates_static():
    """On 20 random small instances, the exact solver's value equals an
    independent full-tree optimum to 1e-9 and weakly dominates the best
    static order, under one minute."""
    start = time.perf_counter()
    checked = 0
    for t in range(20):
        l = 4 if t % 3 else 3
        m = generate_synthetic_population(
            SyntheticSpec(n=18, l=l, maf=0.3, rho=0.75), 700 + t
        )
        corr = compute_correlation_model(m)
        cfg = MechanismConfig(
            epsilon=(0.5, 1.0, 2.0)[t % 3],
            tau_hat=(0.15, 0.25)[t % 2],
            gamma_hat=(0.3, 0.5, 0.8)[t % 3],
            mode=SharingMode.BEACON if t % 2 == 0 else SharingMode.PLAIN,
        )
        row = m.row(t % m.n)
        _, value = optimal_order_value_iteration(row, corr, cfg)
        spec = MdpSpec(row=tuple(int(v) for v in row), corr=corr, config=cfg)
        assert abs(value - reference_optimal_value(spec)) <= 1e-9, f"instance {t}"
        _, best_static = brute_force_order(row, corr, cfg)
        assert value >= best_static - 1e-9, f"instance {t}"
        checked += 1
    assert checked == 20
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_criterion_04_greedy_order_near_optimal_beats_random():
    """On 100 seeded 10-SNP/10-individual instances at budget 1, the mean
    per-SNP utility gap optimal minus greedy stays within 0.05 and greedy is
    at least as good as a random order on average, under ten minutes."""
    start = time.perf_counter()
    gaps, greedy_vs_random = [], []
    for seed in range(100):
        data = generate_synthetic_population(
            SyntheticSpec(n=10, l=10, maf=0.2, rho=0.8), seed
        )
        corr = compute_correlation_model(data)
        cfg = MechanismConfig(
            epsilon=1.0, tau_hat=0.2, gamma_hat=0.8, mode=SharingMode.BEACON
        )
        row = data.row(seed % data.n)
        _, v_opt = optimal_order_value_iteration(row, corr, cfg)
        g = greedy_share(row, corr, cfg, rng_seed=1000 + seed)[0]
        v_greedy = expected_utility_of_order(row, g, corr, cfg)
        r = random_order(len(row), 2000 + seed)
        v_random = expected_utility_of_order(row, r, corr, cfg)
        gaps.append((v_opt - v_greedy) / 10)
        greedy_vs_random.append((v_greedy - v_random) / 10)
    mean_gap = statistics.fmean(gaps)
    mean_adv = statistics.fmean(greedy_vs_random)
    elapsed = time.perf_counter() - start
    assert mean_gap <= 0.05, f"mean per-SNP gap optimal-greedy {mean_gap:.4f} > 0.05"
    assert mean_adv >= 0.0, f"greedy behind random by {mean_adv:.4f} on average"
    assert elapsed < 600.0, f"took {elapsed:.1f}s, budget 600s"


def test_criterion_05_mechanism_beats_rr_on_privacy_and_utility():
    """On correlated synthetic data (150 individuals, 200 SNPs, one strongly
    chained block plus rare-variant columns), across the whole budget grid the
    correlation-aware mechanism keeps more privacy under attack AND more
    beacon accuracy than plain randomized response, with non-overlapping 95%
    confidence intervals over 50 seeds, under fifteen minutes."""
    start = time.perf_counter()
    maf = tuple(0.3 if t < 150 else 0.0005 for t in range(200))
    rho = tuple(0.999 if 0 < t < 150 else 0.0 for t in range(200))
    config = ExperimentConfig(
        epsilon_grid=(0.4, 0.8, 1.2, 1.6, 2.0),
        trials=50,
        seed=0,
        synthetic=SyntheticSpec(n=150, l=200, maf=maf, rho=rho),
        tau_hat=0.15,
        gamma_hat=0.01,
        mode=SharingMode.BEACON,
        tau=0.15,
        gamma=0.5,
        attacker_knows_mechanism=False,
        order_strategy=OrderStrategy.RANDOM,
        include_postprocess=False,
    )
    result = run_experiment(config)

    def mean_and_ci(name, eps):
        vals = [r.metrics[name] for r in result.results if r.epsilon == eps]
        return statistics.fmean(vals), 1.96 * statistics.stdev(vals) / math.sqrt(len(vals))

    for eps in config.epsilon_grid:
        e_rr, e_rr_ci = mean_and_ci("e_rr_attack", eps)
        e_prop, e_prop_ci = mean_and_ci("e_prop_attack", eps)
        a_rr, a_rr_ci = mean_and_ci("a_rr", eps)
        a_prop, a_prop_ci = mean_and_ci("a_prop", eps)
        assert e_prop - e_prop_ci > e_rr + e_rr_ci, (
            f"privacy not separated at eps={eps}: "
            f"{e_prop:.4f}±{e_prop_ci:.4f} vs {e_rr:.4f}±{e_rr_ci:.4f}"
        )
        assert a_prop - a_prop_ci > a_rr + a_rr_ci, (
            f"accuracy not separated at eps={eps}: "
            f"{a_prop:.4f}±{a_prop_ci:.4f} vs {a_rr:.4f}±{a_rr_ci:.4f}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0, f"took {elapsed:.1f}s, budget 900s"


def test_criterion_06_rr_frequency_estimator_within_two_percent():
    """Frequency estimates on 10,000-individual columns, averaged over 1000
    perturbation trials, land within 2% absolute of the true frequencies,
    under one minute."""
    start = time.perf_counter()
    n = 10_000
    trials = 1000
    truth_freq = np.array([0.6, 0.3, 0.1])
    column = np.repeat(np.arange(3), (truth_freq * n).astype(int))
    assert column.size == n
    tiled = GenotypeMatrix(np.tile(column, (trials, 1)))
    perturbed = rr_perturb(tiled, 1.0, 12345)
    estimates = np.empty((trials, 3))
    for t in range(trials):
        estimates[t] = rr_estimate_frequencies(perturbed.values[t], 1.0).estimates
    mean_freq = estimates.mean(axis=0) / n
    deviation = np.abs(mean_freq - truth_freq)
    assert np.all(deviation <= 0.02), f"mean estimate off by {deviation}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_criterion_07_attack_endpoints_match_rr_profile():
    """With the elimination fraction at zero (everything ruled out, fallback)
    and at one (nothing ever ruled out), the attacker's beliefs and scores
    equal the no-attack profile to 1e-9 on the same data."""
    m = generate_synthetic_population(SyntheticSpec(n=30, l=10, maf=0.3, rho=0.8), 7)
    corr = compute_correlation_model(m)
    reported = rr_perturb(m, 1.0, 8)
    baseline = rr_belief_population(reported.values, 1.0)
    e_baseline = population_estimation_error(baseline, m.values)
    for gamma in (0.0, 1.0):
        config = AttackConfig(epsilon_known=1.0, tau=0.2, gamma=gamma)
        belief = attack_population(reported.values, corr, config)
        assert np.max(np.abs(belief.probs - baseline.probs)) <= 1e-9, f"gamma={gamma}"
        e_attack = population_estimation_error(belief, m.values)
        assert abs(e_attack - e_baseline) <= 1e-9, f"gamma={gamma}"


def test_criterion_08_posterior_bound_hand_values_and_empirical():
    """The posterior ceiling matches its hand values exactly, and on 20 seeded
    instances no per-SNP attack posterior over surviving states exceeds it."""
    assert leakage_upper_bound(LeakageQuery(zeta=1.0, epsilon=0.0)) == 0.5
    assert leakage_upper_bound(LeakageQuery(zeta=1.0, epsilon=math.log(2))) == 2 / 3

    epsilon = 1.0
    bound_two_survivors = leakage_upper_bound(LeakageQuery(zeta=1.0, epsilon=epsilon))
    pair_cells = 0
    for seed in range(20):
        m = generate_synthetic_population(
            SyntheticSpec(n=15, l=8, maf=0.3, rho=0.85), seed
        )
        corr = compute_correlation_model(m)
        cfg = MechanismConfig(epsilon=epsilon, tau_hat=0.2, gamma_hat=0.3)
        order = random_order(m.l, 100 + seed)
        share = perturb_population(m, order, corr, cfg, 200 + seed)
        attack_cfg = AttackConfig(epsilon_known=epsilon, tau=0.2, gamma=0.3)
        belief = attack_population(share.values, corr, attack_cfg)
        survivors = np.where(
            belief.fallback[:, :, None], True, ~belief.eliminated
        ).sum(axis=2)
        top = belief.probs.max(axis=2)
        sole = survivors == 1
        assert np.all(top[sole] <= 1.0 + 1e-12)
        assert np.all(top[~sole] <= bound_two_survivors + 1e-12), (
            f"seed {seed}: posterior {top[~sole].max()} exceeds "
            f"bound {bound_two_survivors}"
        )
        pair_cells += int((survivors == 2).sum())
    assert pair_cells > 0, "no SNP ever reached a two-survivor posterior; no teeth"


def test_criterion_09_cli_outputs_byte_identical_across_runs(tmp_path, capsys):
    """Every CLI command, run twice with the same seed and the same paths,
    prints identical text and writes byte-identical files."""
    work = tmp_path
    family = FamilyState(
        shape=FamilyShape.TWO_CHILDREN_TO_PARENT,
        budgets={"parent": 0.8, "child1": math.inf, "child2": math.inf},
        shares=(ShareRecord("child1", 0, 0, 0.8),),
    )
    family_path = work / "family.json"
    family_path.write_text(family.to_json(), encoding="utf-8")

    truth = work / "truth.txt"
    model = work / "model.json"
    rr_out = work / "rr.txt"
    prop_out = work / "prop.txt"
    beliefs = work / "beliefs.csv"
    expdir = work / "exp"

    commands = {
        "gen": ["gen", "--n", "12", "--l", "6", "--maf", "0.3", "--rho", "0.7",
                "--seed", "5", "--out", str(truth)],
        "corr": ["corr", "--data", str(truth), "--out", str(model)],
        "perturb-rr": ["perturb", "--data", str(truth), "--mechanism", "rr",
                       "--epsilon", "1.0", "--seed", "3", "--out", str(rr_out)],
        "perturb-proposed": ["perturb", "--data", str(truth), "--mechanism", "proposed",
                             "--epsilon", "1.0", "--tau-hat", "0.2", "--gamma-hat", "0.4",
                             "--seed", "3", "--out", str(prop_out)],
        "attack": ["attack", "--data", str(prop_out), "--corr", str(model),
                   "--epsilon", "1.0", "--tau", "0.2", "--gamma", "0.4",
                   "--out", str(beliefs)],
        "eval": ["eval", "--truth", str(truth), "--reported", str(prop_out),
                 "--epsilon", "1.0", "--beliefs", str(beliefs)],
        "order-random": ["order", "--data", str(truth), "--epsilon", "0.8",
                         "--order", "random", "--seed", "2"],
        "order-greedy": ["order", "--data", str(truth), "--epsilon", "0.8",
                         "--order", "greedy", "--seed", "2"],
        "order-optimal": ["order", "--data", str(truth), "--epsilon", "0.8",
                          "--order", "optimal", "--seed", "2"],
        "kinship-one-child": ["kinship", "one-child", "--parent-budget", "1.0"],
        "kinship-second-child": ["kinship", "second-child", "--epsilon", "0.5"],
        "kinship-indirect-1": ["kinship", "indirect", "--epsilon", "0.7", "--share", "0"],
        "kinship-indirect-2": ["kinship", "indirect", "--epsilon", "0.7", "--children", "2"],
        "kinship-general": ["kinship", "general", "--family", str(family_path),
                            "--snp", "0", "--next-sharer", "child2"],
        "leakage": ["leakage", "--zeta", "1.0", "--epsilon", "0.5"],
        "experiment": ["experiment", "--n", "10", "--l", "5", "--maf", "0.3",
                       "--rho", "0.8", "--epsilon-grid", "0.5,1.0", "--trials", "2",
                       "--seed", "9", "--no-postprocess", "--out", str(expdir)],
    }
    files = {
        "gen": [truth],
        "corr": [model],
        "perturb-rr": [rr_out],
        "perturb-proposed": [prop_out],
        "attack": [beliefs],
        "experiment": [expdir / "detail.csv", expdir / "summary.csv"],
    }

    def run_all():
        record = {}
        for name, argv in commands.items():
            code = cli_main(argv)
            captured = capsys.readouterr()
            assert code == 0, f"{name} exited {code}: {captured.err}"
            record[name] = (
                captured.out,
                tuple(path.read_bytes() for path in files.get(name, [])),
            )
        return record

    first = run_all()
    second = run_all()
    for name in commands:
        assert first[name][0] == second[name][0], f"{name}: stdout differs"
        assert first[name][1] == second[name][1], f"{name}: output file bytes differ"
