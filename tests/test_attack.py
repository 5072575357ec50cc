"""Correlation-based inference attack, estimation error, RR post-processing."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import custom_corr, uniform_corr

from corrldp import attack
from corrldp.attack import (
    AttackConfig,
    attack_population,
    estimation_error,
    population_estimation_error,
    recover_possible_inputs,
    rr_belief_population,
    rr_postprocess_population,
)
from corrldp.data import (
    STATES,
    CorrelationModel,
    SyntheticSpec,
    compute_correlation_model,
    generate_synthetic_population,
)
from corrldp.mechanism import MechanismConfig, perturb_population
from corrldp.ordering import random_order

LN2 = math.log(2)


def test_config_validation():
    AttackConfig(epsilon_known=1.0, tau=0.2, gamma=0.5)
    with pytest.raises(ValueError):
        AttackConfig(epsilon_known=-1.0, tau=0.2, gamma=0.5)
    with pytest.raises(ValueError):
        AttackConfig(epsilon_known=1.0, tau=0.0, gamma=0.5)
    with pytest.raises(ValueError):
        AttackConfig(epsilon_known=1.0, tau=0.2, gamma=1.5)
    with pytest.raises(ValueError):
        AttackConfig(epsilon_known=1.0, tau=0.2, gamma=0.5, mechanism_params_known=(0.2, 0.0))


def test_rr_belief_is_likelihood_profile():
    belief = rr_belief_population(np.array([[0, 1, 2]]), LN2)
    assert belief.probs.shape == (1, 3, 3)
    assert belief.probs[0, 0] == pytest.approx([0.5, 0.25, 0.25])
    assert belief.probs[0, 1] == pytest.approx([0.25, 0.5, 0.25])
    assert belief.probs[0, 2] == pytest.approx([0.25, 0.25, 0.5])
    assert not belief.eliminated.any()
    assert not belief.fallback.any()


def test_elimination_renormalizes_profile():
    # SNP 0 state 2 is implausible given report y_1 = 0; with gamma 0.5 and
    # l = 2 a single vote suffices, so the (1/2, 1/4, 1/4) profile becomes
    # (2/3, 1/3, 0)
    corr = custom_corr(2, {(0, 1, 0): (0.5, 0.499, 0.001)})
    config = AttackConfig(epsilon_known=LN2, tau=0.02, gamma=0.5)
    belief = attack_population(np.array([[0, 0]]), corr, config)
    assert belief.eliminated[0, 0].tolist() == [False, False, True]
    assert belief.probs[0, 0] == pytest.approx([2 / 3, 1 / 3, 0.0])
    assert belief.probs[0, 1] == pytest.approx([0.5, 0.25, 0.25])
    assert not belief.fallback.any()


def test_gamma_zero_rules_out_everything_and_falls_back():
    corr = uniform_corr(4)
    y = np.array([0, 1, 2, 0])
    config = AttackConfig(epsilon_known=1.0, tau=0.2, gamma=0.0)
    belief = attack_population(y[None], corr, config)
    assert belief.eliminated.all()
    assert belief.fallback.all()
    baseline = rr_belief_population(y, 1.0)
    assert np.allclose(belief.probs, baseline.probs, atol=1e-9)


def test_large_gamma_never_triggers():
    # uniform conditionals sit above tau, so no state collects any votes
    corr = uniform_corr(4)
    y = np.array([2, 0, 1, 1])
    config = AttackConfig(epsilon_known=0.7, tau=0.2, gamma=1.0)
    belief = attack_population(y[None], corr, config)
    assert not belief.eliminated.any()
    baseline = rr_belief_population(y, 0.7)
    assert np.allclose(belief.probs, baseline.probs, atol=1e-9)


def test_single_row_matches_population_call():
    m = generate_synthetic_population(SyntheticSpec(n=5, l=6, maf=0.3, rho=0.9), 0)
    corr = compute_correlation_model(m)
    config = AttackConfig(epsilon_known=1.0, tau=0.2, gamma=0.3)
    pop = attack_population(m.values, corr, config)
    for j in range(5):
        single = attack_population(m.values[j][None], corr, config)
        assert np.allclose(single.probs[0], pop.probs[j])
        assert np.array_equal(single.eliminated[0], pop.eliminated[j])
        assert np.array_equal(single.fallback[0], pop.fallback[j])


def test_estimation_error_hand_values():
    # point mass on the truth: zero error
    point = np.array([[0.0, 1.0, 0.0]])
    assert estimation_error(point, [1]) == pytest.approx(0.0)
    # uniform belief against a middle truth: (1 + 0 + 1) / 3
    uniform = np.full((1, 3), 1 / 3)
    assert estimation_error(uniform, [1]) == pytest.approx(2 / 3)
    # uniform belief against an extreme truth: (0 + 1 + 2) / 3
    assert estimation_error(uniform, [0]) == pytest.approx(1.0)
    assert estimation_error(uniform, [2]) == pytest.approx(1.0)


def test_estimation_error_averages_over_snps():
    probs = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    # SNP 0 exact, SNP 1 off by two -> mean 1
    assert estimation_error(probs, [0, 0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        estimation_error(probs, [0, 0, 0])


def test_estimation_error_row_equals_one_row_matrix():
    rng = np.random.default_rng(12)
    for l in (1, 2, 7, 40, 513):
        raw = rng.random((l, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        truth = rng.integers(0, 3, size=l)
        assert estimation_error(probs, truth) == estimation_error(probs[None], truth[None])
    with pytest.raises(ValueError, match=r"beliefs cover shape \(1, 4\), truth is \(4,\)"):
        estimation_error(np.zeros((1, 4, 3)), [0, 0, 0, 0])


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 5),
    st.lists(st.integers(0, 2), min_size=1, max_size=5),
    st.integers(0, 2**32 - 1),
)
def test_estimation_error_bounds(rows, truth, seed):
    rng = np.random.default_rng(seed)
    raw = rng.random((len(truth), 3))
    probs = raw / raw.sum(axis=1, keepdims=True)
    e = estimation_error(probs, truth)
    assert 0.0 <= e <= 2.0


def test_population_error_is_mean_of_rows():
    m = generate_synthetic_population(SyntheticSpec(n=6, l=5, maf=0.3, rho=0.5), 1)
    corr = compute_correlation_model(m)
    config = AttackConfig(epsilon_known=1.0, tau=0.2, gamma=0.4)
    belief = attack_population(m.values, corr, config)
    per_row = [estimation_error(belief.probs[j], m.values[j]) for j in range(m.n)]
    assert population_estimation_error(belief, m.values) == pytest.approx(np.mean(per_row))


# -------------------------------------------------------------------- replay


def test_replay_reproduces_mechanism_elimination():
    m = generate_synthetic_population(SyntheticSpec(n=40, l=8, maf=0.3, rho=0.8), 2)
    corr = compute_correlation_model(m)
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.3)
    order = random_order(8, 5)
    share = perturb_population(m, order, corr, cfg, 7)
    for j in range(m.n):
        possible = recover_possible_inputs(share.values[j], corr, 0.2, 0.3, order)
        assert np.array_equal(possible, ~share.eliminated[j]), f"row {j}"


def test_replay_of_a_block_matches_rows_and_mechanism():
    m = generate_synthetic_population(SyntheticSpec(n=30, l=10, maf=0.3, rho=0.85), 6)
    corr = compute_correlation_model(m)
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.3)
    order = random_order(10, 8)
    share = perturb_population(m, order, corr, cfg, 3)
    block = recover_possible_inputs(share.values, corr, 0.2, 0.3, order)
    assert block.shape == (30, 10, 3)
    assert np.array_equal(block, ~share.eliminated)
    for j in range(m.n):
        row = recover_possible_inputs(share.values[j], corr, 0.2, 0.3, order)
        assert np.array_equal(block[j], row), f"row {j}"


def test_attack_under_per_row_orders_matches_row_by_row():
    m = generate_synthetic_population(SyntheticSpec(n=12, l=9, maf=0.3, rho=0.85), 13)
    corr = compute_correlation_model(m)
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.3)
    orders = np.array([random_order(9, 40 + j) for j in range(12)])
    values = np.array([
        perturb_population(m, orders[j], corr, cfg, 5).values[j] for j in range(12)
    ])
    known = AttackConfig(epsilon_known=1.0, tau=0.15, gamma=0.4, mechanism_params_known=(0.2, 0.3))
    block = attack_population(values, corr, known, assumed_order=orders)
    for j in range(12):
        row = attack_population(values[j][None], corr, known, assumed_order=orders[j])
        assert np.array_equal(block.probs[j], row.probs[0]), f"row {j}"
        assert np.array_equal(block.eliminated[j], row.eliminated[0]), f"row {j}"
        assert np.array_equal(block.fallback[j], row.fallback[0]), f"row {j}"
    with pytest.raises(ValueError, match=r"int64 \(5, 9\)"):
        recover_possible_inputs(values, corr, 0.2, 0.3, orders[:5])
    with pytest.raises(ValueError, match="in row 3"):
        bad = orders.copy()
        bad[3, 0] = bad[3, 1]
        recover_possible_inputs(values, corr, 0.2, 0.3, bad)


def test_replay_default_order_is_identity():
    m = generate_synthetic_population(SyntheticSpec(n=3, l=6, maf=0.3, rho=0.9), 3)
    corr = compute_correlation_model(m)
    y = m.values[0]
    with pytest.raises(ValueError, match="permutation"):
        recover_possible_inputs(y, corr, 0.2, 0.3, (0, 0, 1, 2, 3, 4))


def test_replay_without_an_order_raises():
    m = generate_synthetic_population(SyntheticSpec(n=3, l=6, maf=0.3, rho=0.9), 3)
    corr = compute_correlation_model(m)
    with pytest.raises(ValueError, match="order=None"):
        recover_possible_inputs(m.values[0], corr, 0.2, 0.3, None)
    known = AttackConfig(epsilon_known=1.0, tau=0.15, gamma=0.4, mechanism_params_known=(0.2, 0.3))
    with pytest.raises(ValueError, match="order=None"):
        attack_population(m.values, corr, known)
    with pytest.raises(TypeError):
        recover_possible_inputs(m.values, corr, 0.2, 0.3)


def test_replay_augmented_attack_unions_eliminations():
    m = generate_synthetic_population(SyntheticSpec(n=25, l=8, maf=0.3, rho=0.8), 4)
    corr = compute_correlation_model(m)
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.3)
    order = random_order(8, 9)
    share = perturb_population(m, order, corr, cfg, 11)
    plain_cfg = AttackConfig(epsilon_known=1.0, tau=0.15, gamma=0.4)
    aug_cfg = AttackConfig(
        epsilon_known=1.0, tau=0.15, gamma=0.4, mechanism_params_known=(0.2, 0.3)
    )
    plain = attack_population(share.values, corr, plain_cfg)
    aug = attack_population(share.values, corr, aug_cfg, assumed_order=order)
    expected = plain.eliminated | share.eliminated
    assert np.array_equal(aug.eliminated, expected)
    # renormalization still holds after the union
    assert np.allclose(aug.probs.sum(axis=2), 1.0, atol=1e-12)


# ------------------------------------------------------------ postprocessing


def test_postprocess_keeps_consistent_rows():
    corr = uniform_corr(5)
    y = np.array([0, 2, 1, 0, 1])
    assert np.array_equal(rr_postprocess_population(y, corr, 0.2, 0.4)[0], y)


def test_postprocess_hand_case():
    # report 0 at SNP 0 is ruled out by report 0 at SNP 1; the surviving
    # state with the highest average conditional is 1 (0.5 beats 0.499)
    corr = custom_corr(2, {(0, 1, 0): (0.001, 0.5, 0.499)})
    out = rr_postprocess_population(np.array([0, 0]), corr, 0.02, 0.5)[0]
    assert out.tolist() == [1, 0]


def test_postprocess_tie_prefers_lower_state():
    corr = custom_corr(2, {(0, 1, 0): (0.001, 0.4995, 0.4995)})
    out = rr_postprocess_population(np.array([0, 0]), corr, 0.02, 0.5)[0]
    assert out.tolist() == [1, 0]


def _postprocess_reference(y, corr, tau, gamma, max_sweeps=3):
    """Same sweep semantics as rr_postprocess_population on one row, with
    counts recomputed from scratch before every single decision."""
    y = np.array(y, dtype=np.int64)
    l = y.size
    low = corr.low_mask(tau)
    cond = corr.cond
    defined = ~np.isnan(cond)
    idx = np.arange(l)
    defined_od = defined.copy()
    defined_od[idx, idx] = False
    cond_filled = np.where(defined_od, cond, 0.0)
    threshold = gamma * l
    for _ in range(max_sweeps):
        changed = False
        for i in range(l):
            counts_i = low[i][idx, :, y].sum(axis=0)
            if counts_i[y[i]] < threshold:
                continue
            survivors = [v for v in STATES if counts_i[v] < threshold]
            if not survivors:
                continue
            sums = cond_filled[i][idx, :, y].sum(axis=0)
            support = defined_od[i][idx, :, y].sum(axis=0)
            means = np.where(support > 0, sums / np.maximum(support, 1), -1.0)
            best = max(survivors, key=lambda v: (means[v], -v))
            if best != y[i]:
                y[i] = best
                changed = True
        if not changed:
            break
    return y


def test_postprocess_matches_scratch_reference():
    rng = np.random.default_rng(0)
    for trial in range(20):
        m = generate_synthetic_population(
            SyntheticSpec(n=30, l=7, maf=0.25, rho=0.9), 100 + trial
        )
        corr = compute_correlation_model(m)
        y = rng.integers(0, 3, size=7)
        for gamma in (0.15, 0.3, 0.6):
            got = rr_postprocess_population(y, corr, 0.12, gamma, max_sweeps=4)[0]
            want = _postprocess_reference(y, corr, 0.12, gamma, max_sweeps=4)
            assert np.array_equal(got, want), f"trial {trial} gamma {gamma}"


def test_postprocess_population_is_rowwise():
    m = generate_synthetic_population(SyntheticSpec(n=8, l=6, maf=0.25, rho=0.9), 5)
    corr = compute_correlation_model(m)
    rng = np.random.default_rng(1)
    Y = rng.integers(0, 3, size=(4, 6))
    pop = rr_postprocess_population(Y, corr, 0.15, 0.3)
    for j in range(4):
        assert np.array_equal(pop[j], rr_postprocess_population(Y[j], corr, 0.15, 0.3)[0])


def test_postprocess_reruns_are_stable_once_converged():
    # a second full pass over a row whose sweeps converged changes nothing
    m = generate_synthetic_population(SyntheticSpec(n=30, l=6, maf=0.25, rho=0.9), 6)
    corr = compute_correlation_model(m)
    rng = np.random.default_rng(2)
    converged = 0
    for _ in range(10):
        y = rng.integers(0, 3, size=6)
        once = rr_postprocess_population(y, corr, 0.12, 0.3, max_sweeps=10)[0]
        if not np.array_equal(once, rr_postprocess_population(y, corr, 0.12, 0.3, 11)[0]):
            continue  # still changing at the sweep cap; stability not promised
        converged += 1
        assert np.array_equal(rr_postprocess_population(once, corr, 0.12, 0.3, 10)[0], once)
    assert converged >= 5


def _sweeps_to_converge(y, corr, tau, gamma, cap=10):
    """Fewest sweeps after which the reference stops changing the row."""
    final = _postprocess_reference(y, corr, tau, gamma, max_sweeps=cap)
    for sweeps in range(cap + 1):
        if np.array_equal(_postprocess_reference(y, corr, tau, gamma, max_sweeps=sweeps), final):
            return sweeps
    return cap


@pytest.mark.parametrize(
    "n, l, data_seed", [(12, 9, 0), (8, 16, 1), (20, 5, 2), (5, 24, 3), (4, 200, 4)]
)
def test_postprocess_population_matches_reference_row_by_row(n, l, data_seed):
    m = generate_synthetic_population(SyntheticSpec(n=40, l=l, maf=0.25, rho=0.9), 200 + data_seed)
    corr = compute_correlation_model(m)
    Y = np.random.default_rng(data_seed).integers(0, 3, size=(n, l))
    for tau, gamma in ((0.12, 0.3), (0.2, 0.15)):
        for max_sweeps in (1, 3, 10):
            pop = rr_postprocess_population(Y, corr, tau, gamma, max_sweeps)
            assert pop.dtype == np.int8 and pop.shape == (n, l)
            for j in range(n):
                want = _postprocess_reference(Y[j], corr, tau, gamma, max_sweeps)
                assert np.array_equal(pop[j], want), f"{tau} {gamma} sweeps {max_sweeps} row {j}"


def test_postprocess_population_rows_converging_in_different_sweeps():
    m = generate_synthetic_population(SyntheticSpec(n=40, l=12, maf=0.25, rho=0.9), 7)
    corr = compute_correlation_model(m)
    Y = np.random.default_rng(7).integers(0, 3, size=(30, 12))
    sweeps = {_sweeps_to_converge(Y[j], corr, 0.12, 0.15) for j in range(30)}
    assert 0 in sweeps and max(sweeps) >= 3 and len(sweeps) >= 3  # rows stop at different sweeps
    for max_sweeps in (1, 3, 10):
        pop = rr_postprocess_population(Y, corr, 0.12, 0.15, max_sweeps)
        for j in range(30):
            assert np.array_equal(pop[j], _postprocess_reference(Y[j], corr, 0.12, 0.15, max_sweeps))


def test_postprocess_counts_once_per_call(monkeypatch):
    # each rewrite moves its row's counts along, so the counts are taken once
    # per call however many sweeps run
    m = generate_synthetic_population(SyntheticSpec(n=40, l=12, maf=0.25, rho=0.9), 7)
    corr = compute_correlation_model(m)
    Y = np.random.default_rng(7).integers(0, 3, size=(30, 12))
    one_sweep = rr_postprocess_population(Y, corr, 0.12, 0.15, max_sweeps=1)
    count = attack._attack_counts
    calls = []

    def counted(*args):
        calls.append(args)
        return count(*args)

    monkeypatch.setattr(attack, "_attack_counts", counted)
    out = rr_postprocess_population(Y, corr, 0.12, 0.15, max_sweeps=10)
    assert not np.array_equal(out, one_sweep)  # more than one sweep ran
    assert len(calls) == 1
    for j in range(30):
        assert np.array_equal(out[j], _postprocess_reference(Y[j], corr, 0.12, 0.15, max_sweeps=10))


def test_postprocess_population_leaves_cells_with_no_survivor():
    # with threshold gamma * l = 1, report 0 at SNP 1 rules out states 0 and 1
    # of SNP 0 and report 0 at SNP 2 rules out 1 and 2: nothing survives in
    # row 0, so its report stays; in row 1 SNP 2 reports 1, state 2 survives
    corr = custom_corr(
        3, {(0, 1, 0): (0.001, 0.001, 0.998), (0, 2, 0): (0.998, 0.001, 0.001)}
    )
    Y = np.array([[0, 0, 0], [0, 0, 1]])
    out = rr_postprocess_population(Y, corr, 0.02, 1 / 3)
    assert out.tolist() == [[0, 0, 0], [2, 0, 1]]
    # gamma = 0 rules out every state of every cell: nothing changes
    m = generate_synthetic_population(SyntheticSpec(n=20, l=6, maf=0.3, rho=0.9), 1)
    Y = np.random.default_rng(4).integers(0, 3, size=(7, 6))
    assert np.array_equal(rr_postprocess_population(Y, compute_correlation_model(m), 0.2, 0.0), Y)


def test_postprocess_population_tie_prefers_lower_state():
    # report 0 at SNP 0 leaves 1 and 2 tied; report 1 leaves 0 and 2 tied;
    # report 2 is not ruled out
    corr = custom_corr(
        2, {(0, 1, 0): (0.001, 0.4995, 0.4995), (0, 1, 1): (0.4995, 0.001, 0.4995)}
    )
    Y = np.array([[0, 0], [1, 1], [2, 0], [0, 0]])
    out = rr_postprocess_population(Y, corr, 0.02, 0.5)
    assert out.tolist() == [[1, 0], [0, 1], [2, 0], [1, 0]]


def test_postprocess_population_leaves_the_self_pair_out_of_the_means():
    # report 0 at SNP 1 rules out state 0 of SNP 0.  In row 0, column (0, 2, 0) is
    # defined for state 1 only, so the survivors' means are 1.6 / 2 for
    # state 1 and 0.399 / 1 for state 2.  The self-pair column (0, 0, 0) is
    # undefined for state 0; counted, it would make them 1.6 / 3 and 1.399 / 2
    cond = np.full((3, 3, 3, 3), 1.0 / 3)
    cond[0, 1, :, 0] = (0.001, 0.6, 0.399)
    cond[0, 2, :, 0] = (np.nan, 1.0, np.nan)
    cond[0, 0, :, 0] = (np.nan, 0.0, 1.0)
    corr = CorrelationModel(cond=cond, marginals=np.full((3, 3), 1.0 / 3))
    Y = np.array([[0, 0, 0], [0, 0, 1]])
    out = rr_postprocess_population(Y, corr, 0.02, 1 / 3)
    assert out.tolist() == [[1, 0, 0], [1, 0, 1]]
    for j in range(2):
        assert np.array_equal(out[j], _postprocess_reference(Y[j], corr, 0.02, 1 / 3))


def test_postprocess_population_adds_k_in_index_order():
    # reports 0 at SNPs 2 and 5 rule out state 0 of SNP 0 (conditionals
    # below tau).  In exact arithmetic states 1 and 2 tie at 2.75 over SNPs
    # 1-7, and a tie goes to state 1; adding k = 1, ..., 7 in order gives
    # 2.75 for state 1 and 2.7500000000000004 for state 2, so state 2 wins.
    # Adding in reverse, in halves, k innermost or as a matrix product gives
    # a tie or state 1 ahead
    p1 = (0.55, 0.55, 0.35, 0.3, 0.5, 0.4, 0.1)
    p2 = (0.25, 0.4, 0.45, 0.55, 0.5, 0.15, 0.45)
    cond = np.full((8, 8, 3, 3), 1.0 / 3)
    for k in range(1, 8):
        cond[0, k, :, 0] = (1.0 - p1[k - 1] - p2[k - 1], p1[k - 1], p2[k - 1])
    corr = CorrelationModel(cond=cond, marginals=np.full((8, 3), 1.0 / 3))
    Y = np.zeros((2, 8), dtype=int)
    Y[1, 0] = 1  # a consistent report stays
    out = rr_postprocess_population(Y, corr, 0.08, 0.25)
    assert out.tolist() == [[2] + [0] * 7, [1] + [0] * 7]
    assert np.array_equal(out[0], _postprocess_reference(Y[0], corr, 0.08, 0.25))


def test_postprocess_builds_no_dense_copy_of_the_model():
    # the model itself is 72 * l**2 bytes of float64; post-processing reads one
    # SNP's conditionals at a time, so its peak stays below one such copy
    l = 400
    m = generate_synthetic_population(SyntheticSpec(n=40, l=l, maf=0.25, rho=0.9), 3)
    corr = compute_correlation_model(m)
    Y = np.random.default_rng(3).integers(0, 3, size=(40, l))
    tracemalloc.start()
    try:
        out = rr_postprocess_population(Y, corr, 0.12, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out != Y).any()  # the sweep rewrote cells, so it read the model
    assert peak < 72 * l**2, peak


def test_attack_peak_memory():
    # the increment table is 9 * l**2 bytes; the attack multiplies the
    # reports' state planes by one float32 (2l, 3l) operand, built from an
    # int8 difference of the table's planes
    l = 400
    m = generate_synthetic_population(SyntheticSpec(n=200, l=l, maf=0.2, rho=0.8), 1)
    corr = compute_correlation_model(m)
    config = AttackConfig(epsilon_known=1.0, tau=0.2, gamma=0.5)
    corr.increments(config.tau)
    Y = np.random.default_rng(1).integers(0, 3, size=(200, l))
    tracemalloc.start()
    try:
        belief = attack_population(Y, corr, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert belief.probs.shape == (200, l, 3)
    assert peak < 48 * l**2, peak


def test_postprocess_empty_matrix_and_model_size():
    corr = uniform_corr(4)
    out = rr_postprocess_population(np.zeros((0, 4), dtype=int), corr, 0.2, 0.5)
    assert out.shape == (0, 4) and out.dtype == np.int8
    with pytest.raises(ValueError, match="correlation model covers 4 SNPs"):
        rr_postprocess_population(np.zeros((2, 3), dtype=int), corr, 0.2, 0.5)
    with pytest.raises(ValueError, match="correlation model covers 4 SNPs"):
        rr_postprocess_population(np.zeros(5, dtype=int), corr, 0.2, 0.5)


def test_replay_rejects_a_model_of_another_width():
    corr = uniform_corr(6)
    Y = np.zeros((20, 4), dtype=int)
    with pytest.raises(ValueError, match="correlation model covers 6 SNPs, data has 4"):
        recover_possible_inputs(Y, corr, 0.2, 0.5, list(range(4)))
    config = AttackConfig(epsilon_known=1.0, tau=0.2, gamma=0.5, mechanism_params_known=(0.2, 0.5))
    with pytest.raises(ValueError, match="correlation model covers 6 SNPs, data has 4"):
        attack_population(Y, corr, config, list(range(4)))
