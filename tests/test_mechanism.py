"""Correlation-aware sequential mechanism: case table, elimination, sampling."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import (
    custom_corr,
    eliminate_states,
    exact_params,
    reference_counts,
    reference_greedy,
    reference_share,
    sharing_distribution,
    uniform_corr,
)

from corrldp import attack, mechanism
from corrldp.attack import recover_possible_inputs
from corrldp.beacon import per_snp_expected_utility
from corrldp.data import (
    GenotypeMatrix,
    SyntheticSpec,
    child_seeds,
    compute_correlation_model,
    generate_synthetic_population,
)
from corrldp.mechanism import (
    Branch,
    MechanismConfig,
    SharingMode,
    _validate_order,
    branch_tables,
    perturb_population,
    perturb_sequence,
    sharing_probs,
)
from corrldp.ordering import greedy_share
from corrldp.rr import rr_params

LN2 = math.log(2)


def test_config_validation():
    MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.5)
    with pytest.raises(ValueError):
        MechanismConfig(epsilon=-1.0, tau_hat=0.2, gamma_hat=0.5)
    with pytest.raises(ValueError):
        MechanismConfig(epsilon=1.0, tau_hat=0.0, gamma_hat=0.5)
    with pytest.raises(ValueError):
        MechanismConfig(epsilon=1.0, tau_hat=1.0, gamma_hat=0.5)
    with pytest.raises(ValueError):
        MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.0)
    # values above 1 are allowed: they simply disable elimination
    MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=1.5)


# ---------------------------------------------------------------- case table


def test_no_elimination_is_plain_rr():
    cfg = MechanismConfig(epsilon=LN2, tau_hat=0.2, gamma_hat=0.5, mode=SharingMode.PLAIN)
    dist = sharing_distribution(0, set(), cfg)
    assert dist.branch is Branch.RR
    assert dist.probs == pytest.approx((0.5, 0.25, 0.25))


def test_one_eliminated_truth_survives_both_modes():
    for mode in SharingMode:
        cfg = MechanismConfig(epsilon=LN2, tau_hat=0.2, gamma_hat=0.5, mode=mode)
        dist = sharing_distribution(0, {1}, cfg)
        assert dist.branch is Branch.PAIR_TRUTH_KEPT
        assert dist.probs == pytest.approx((2 / 3, 0.0, 1 / 3))


def test_one_eliminated_truth_dropped_plain_splits_evenly():
    cfg = MechanismConfig(epsilon=LN2, tau_hat=0.2, gamma_hat=0.5, mode=SharingMode.PLAIN)
    for x in (0, 1, 2):
        dist = sharing_distribution(x, {x}, cfg)
        assert dist.branch is Branch.PAIR_TRUTH_DROPPED
        expected = [0.5, 0.5, 0.5]
        expected[x] = 0.0
        assert dist.probs == pytest.approx(tuple(expected))


def test_one_eliminated_truth_dropped_beacon_keeps_class():
    cfg = MechanismConfig(epsilon=LN2, tau_hat=0.2, gamma_hat=0.5, mode=SharingMode.BEACON)
    # truth 1 dropped: the non-zero class is preserved via state 2
    assert sharing_distribution(1, {1}, cfg).probs == pytest.approx((1 / 3, 0.0, 2 / 3))
    # truth 2 dropped: preserved via state 1
    assert sharing_distribution(2, {2}, cfg).probs == pytest.approx((1 / 3, 2 / 3, 0.0))
    # truth 0 dropped: no class-preserving survivor exists; even split
    assert sharing_distribution(0, {0}, cfg).probs == pytest.approx((0.0, 0.5, 0.5))


def test_two_eliminated_reports_survivor():
    cfg = MechanismConfig(epsilon=LN2, tau_hat=0.2, gamma_hat=0.5)
    dist = sharing_distribution(2, {0, 1}, cfg)
    assert dist.branch is Branch.SOLE_SURVIVOR
    assert dist.probs == (0.0, 0.0, 1.0)
    # ... even when the survivor is not the truth
    dist = sharing_distribution(0, {0, 1}, cfg)
    assert dist.probs == (0.0, 0.0, 1.0)


def test_all_eliminated_falls_back_to_rr():
    cfg = MechanismConfig(epsilon=LN2, tau_hat=0.2, gamma_hat=0.5)
    dist = sharing_distribution(1, {0, 1, 2}, cfg)
    assert dist.branch is Branch.ALL_ELIMINATED_FALLBACK
    assert dist.probs == pytest.approx((0.25, 0.5, 0.25))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2),
    st.sets(st.integers(0, 2)),
    st.floats(0.0, 8.0),
    st.sampled_from(list(SharingMode)),
)
def test_distribution_sums_to_one_and_respects_elimination(x, elim, epsilon, mode):
    cfg = MechanismConfig(epsilon=epsilon, tau_hat=0.2, gamma_hat=0.5, mode=mode)
    dist = sharing_distribution(x, elim, cfg)
    assert sum(dist.probs) == pytest.approx(1.0, abs=1e-12)
    assert all(p >= 0 for p in dist.probs)
    if dist.branch is not Branch.ALL_ELIMINATED_FALLBACK:
        for v in elim:
            assert dist.probs[v] == 0.0


def test_case_table_exact_rational():
    # the full table at likelihood ratio 2 (eps = ln 2), exact arithmetic
    params = exact_params(Fraction(2))
    half, third, two_thirds, quarter = (
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(2, 3),
        Fraction(1, 4),
    )
    probs, branch = sharing_probs(0, set(), params, SharingMode.BEACON)
    assert probs == (half, quarter, quarter) and branch is Branch.RR
    probs, _ = sharing_probs(1, {2}, params, SharingMode.BEACON)
    assert probs == (third, two_thirds, 0)
    probs, _ = sharing_probs(1, {1}, params, SharingMode.BEACON)
    assert probs == (third, 0, two_thirds)
    probs, _ = sharing_probs(2, {2}, params, SharingMode.BEACON)
    assert probs == (third, two_thirds, 0)
    probs, _ = sharing_probs(1, {1}, params, SharingMode.PLAIN)
    assert probs == (half, 0, half)
    for x in range(3):
        for bits in range(8):
            elim = {v for v in range(3) if bits >> v & 1}
            probs, _ = sharing_probs(x, elim, params, SharingMode.BEACON)
            assert sum(probs) == 1  # exact


def test_likelihood_ratio_bound_all_branches():
    # for every eliminated set and every pair of surviving inputs, the output
    # likelihood ratio never exceeds the budget's ratio (exact arithmetic)
    ratio = Fraction(7, 3)
    params = exact_params(ratio)
    for mode in SharingMode:
        for bits in range(8):
            elim = {v for v in range(3) if bits >> v & 1}
            survivors = [v for v in range(3) if v not in elim]
            dists = {x: sharing_probs(x, elim, params, mode)[0] for x in survivors}
            for da, db in itertools.permutations(survivors, 2):
                for y in range(3):
                    num, den = dists[da][y], dists[db][y]
                    if num == 0 and den == 0:
                        continue
                    assert den > 0, f"one-sided zero at {mode} {elim} {da}/{db} y={y}"
                    assert Fraction(num, den) <= ratio


# --------------------------------------------------------------- elimination


def test_empty_prefix_eliminates_nothing():
    corr = uniform_corr(3)
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.01)
    outcome = eliminate_states(0, [], corr, cfg)
    assert outcome.position == 1
    assert outcome.counters == (0, 0, 0)
    assert outcome.eliminated == frozenset()


def test_single_low_conditional_eliminates_at_low_gamma():
    # Pr(SNP_0 = 2 | SNP_1 = 0) = 0.001 < tau 0.02; at position 2 the
    # counter 1 meets the threshold 0.03 * 2
    corr = custom_corr(2, {(0, 1, 0): (0.5, 0.499, 0.001)})
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.02, gamma_hat=0.03)
    outcome = eliminate_states(0, [(1, 0)], corr, cfg)
    assert outcome.counters == (0, 0, 1)
    assert outcome.eliminated == frozenset({2})


def test_no_low_conditionals_never_eliminates():
    corr = uniform_corr(4)
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.001)
    outcome = eliminate_states(0, [(1, 0), (2, 1), (3, 2)], corr, cfg)
    assert outcome.eliminated == frozenset()


def test_undefined_conditionals_do_not_count():
    values = np.array([[0, 0], [0, 1]])  # column 0 constant: cond(1,0,.,1/2) undefined
    corr = compute_correlation_model(GenotypeMatrix(values))
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.5, gamma_hat=0.01)
    outcome = eliminate_states(1, [(0, 1)], corr, cfg)  # conditioning on unseen value
    assert outcome.counters == (0, 0, 0)
    assert outcome.eliminated == frozenset()


def test_threshold_is_inclusive_on_counts():
    # counter == gamma_hat * position exactly -> eliminated
    corr = custom_corr(2, {(0, 1, 0): (0.001, 0.5, 0.499)})
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.02, gamma_hat=0.5)
    outcome = eliminate_states(0, [(1, 0)], corr, cfg)  # threshold 0.5 * 2 = 1
    assert outcome.eliminated == frozenset({0})


# ------------------------------------------------------------------ sequence


def test_sequence_deterministic_and_positions_original():
    m = generate_synthetic_population(SyntheticSpec(n=10, l=6, maf=0.3, rho=0.7), 0)
    corr = compute_correlation_model(m)
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.3)
    order = (3, 1, 5, 0, 2, 4)
    a = perturb_sequence(m.row(0), order, corr, cfg, 11)
    b = perturb_sequence(m.row(0), order, corr, cfg, 11)
    assert np.array_equal(a.values, b.values)
    assert a.order == order
    # eliminations are indexed by original SNP id, and SNP i's test consulted
    # exactly the prefix processed before it
    for pos, i in enumerate(order):
        prefix = [(k, int(a.values[k])) for k in order[:pos]]
        outcome = eliminate_states(i, prefix, corr, cfg)
        assert outcome.position == pos + 1
        assert a.eliminated[i].tolist() == [v in outcome.eliminated for v in range(3)]


def test_single_snp_is_plain_rr():
    corr = uniform_corr(1)
    cfg = MechanismConfig(epsilon=LN2, tau_hat=0.2, gamma_hat=0.5)
    seq = perturb_sequence([1], (0,), corr, cfg, 0)
    eliminated = {v for v in range(3) if seq.eliminated[0, v]}
    assert eliminated == set()
    assert sharing_distribution(1, eliminated, cfg).branch is Branch.RR


def test_gamma_above_one_matches_rr_distribution():
    # elimination disabled: the mechanism's output distribution equals plain
    # randomized response; compare per-state frequencies over many trials
    epsilon = 1.0
    m = generate_synthetic_population(SyntheticSpec(n=2000, l=5, maf=0.3, rho=0.9), 1)
    corr = compute_correlation_model(m)
    cfg = MechanismConfig(epsilon=epsilon, tau_hat=0.2, gamma_hat=1.1)
    share = perturb_population(m, tuple(range(5)), corr, cfg, 2)
    assert not share.eliminated.any()
    p = rr_params(epsilon).p
    truthful = np.mean(share.values == m.values)
    cells = m.n * m.l
    assert abs(truthful - p) < 3 * math.sqrt(p * (1 - p) / cells)


def test_population_matches_scalar_path():
    m = generate_synthetic_population(SyntheticSpec(n=7, l=6, maf=0.3, rho=0.8), 3)
    corr = compute_correlation_model(m)
    cfg = MechanismConfig(epsilon=0.8, tau_hat=0.25, gamma_hat=0.4)
    order = (2, 0, 4, 1, 5, 3)
    seed = np.random.SeedSequence(17)
    share = perturb_population(m, order, corr, cfg, seed)
    children = np.random.SeedSequence(17).spawn(m.n)
    for j in range(m.n):
        seq = perturb_sequence(m.row(j), order, corr, cfg, children[j])
        assert np.array_equal(share.values[j], seq.values), f"row {j}"
        for i in range(m.l):
            assert np.array_equal(share.eliminated[j, i], seq.eliminated[i])


def test_sequence_and_population_match_scalar_reference():
    # the scalar reference recomputes every elimination test from the whole
    # prefix; the kernel keeps incremental counters
    m = generate_synthetic_population(SyntheticSpec(n=6, l=12, maf=0.3, rho=0.85), 4)
    corr = compute_correlation_model(m)
    configs = (
        MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.4),
        MechanismConfig(epsilon=0.6, tau_hat=0.25, gamma_hat=0.3, mode=SharingMode.PLAIN),
        MechanismConfig(epsilon=1.5, tau_hat=0.15, gamma_hat=0.01),
    )
    order = (5, 0, 11, 3, 7, 1, 9, 2, 10, 4, 8, 6)
    for cfg in configs:
        share = perturb_population(m, order, corr, cfg, 21)
        children = np.random.SeedSequence(21).spawn(m.n)
        for j in range(m.n):
            values, eliminated = reference_share(m.row(j), order, corr, cfg, children[j])
            seq = perturb_sequence(m.row(j), order, corr, cfg, children[j])
            assert np.array_equal(seq.values, values) and np.array_equal(seq.eliminated, eliminated)
            assert np.array_equal(share.values[j], values), f"row {j}"
            assert np.array_equal(share.eliminated[j], eliminated), f"row {j}"


def test_branch_tables_agree_with_sharing_probs():
    for mode in SharingMode:
        cfg = MechanismConfig(epsilon=0.7, tau_hat=0.2, gamma_hat=0.5, mode=mode)
        cum, probs, util = tables = branch_tables(cfg)
        # built once per config, and read-only
        assert all(again is table for again, table in zip(branch_tables(cfg), tables))
        assert [t.shape for t in tables] == [(3, 8, 3), (3, 8, 3), (3, 8)]
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0.5
        for x in range(3):
            for bits in range(8):
                elim = {v for v in range(3) if bits >> v & 1}
                expect, _ = sharing_probs(x, elim, cfg.params, cfg.mode)
                assert probs[x, bits] == pytest.approx([float(v) for v in expect])
                assert cum[x, bits, 2] == pytest.approx(1.0)
                assert util[x, bits] == per_snp_expected_utility(x, probs[x, bits])


def test_sequence_validates_inputs():
    corr = uniform_corr(3)
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.5)
    with pytest.raises(ValueError, match="permutation"):
        perturb_sequence([0, 1, 2], (0, 1, 1), corr, cfg, 0)
    with pytest.raises(ValueError, match="covers 3"):
        perturb_sequence([0, 1], (0, 1), corr, cfg, 0)


def test_population_share_does_not_depend_on_seed_reuse():
    m = generate_synthetic_population(SyntheticSpec(n=8, l=10, maf=0.3, rho=0.8), 12)
    corr = compute_correlation_model(m)
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.4)
    seed = np.random.SeedSequence(21)
    first = perturb_population(m, range(10), corr, cfg, seed)
    second = perturb_population(m, range(10), corr, cfg, seed)
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.values, perturb_population(m, range(10), corr, cfg, 21).values)
    a = perturb_sequence(m.row(0), range(10), corr, cfg, seed)
    b = perturb_sequence(m.row(0), range(10), corr, cfg, seed)
    assert np.array_equal(a.values, b.values)


def test_order_errors_name_the_problem_briefly():
    corr = uniform_corr(1000)
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.5)
    row = [0] * 1000
    cases = (
        ([0] * 1000, "index 0 repeats"),
        (list(range(1, 1000)) + [1000], "index 0 is missing"),
        (list(range(999)) + [1000], "index 1000 is outside 0..999"),
        ([-1] + list(range(1, 1000)), "index -1 is outside 0..999"),
        (list(range(999)), "int64 (999,)"),
        ([float(i) for i in range(1000)], "float64 (1000,)"),
    )
    for order, problem in cases:
        with pytest.raises(ValueError, match="permutation") as err:
            perturb_sequence(row, order, corr, cfg, 0)
        assert problem in str(err.value) and len(str(err.value)) < 200, str(err.value)
    # per-row orders name the first bad row
    orders = np.tile(np.arange(6), (4, 1))
    orders[2, 3] = 0
    orders[3, 0] = 9
    with pytest.raises(ValueError, match="in row 2: index 0 repeats"):
        _validate_order(orders, 6, rows=4)
    with pytest.raises(ValueError, match=r"\(4, 6\)"):
        _validate_order(np.tile(np.arange(6), (4, 1)), 6, rows=5)
    with pytest.raises(ValueError, match=r"\(4, 6\)"):
        _validate_order(np.tile(np.arange(6), (4, 1)), 6)


# ------------------------------------------------------------ blocked kernel


def _block_case(l, seed, n=4):
    m = generate_synthetic_population(SyntheticSpec(n=n, l=l, maf=0.3, rho=0.85), seed)
    order = tuple(np.random.default_rng(seed).permutation(l).tolist())
    return m, compute_correlation_model(m), order


@pytest.mark.parametrize("l", [1, mechanism.B - 1, mechanism.B, mechanism.B + 1, 2 * mechanism.B + 1])
def test_blocked_share_and_replay_match_the_scalar_reference(l):
    m, corr, order = _block_case(l, 800 + l)
    per_row = np.tile(order, (m.n, 1))
    for gamma_hat, mode in itertools.product((0.05, 0.5, 1.5), SharingMode):
        cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=gamma_hat, mode=mode)
        share = perturb_population(m, order, corr, cfg, 31)
        children = child_seeds(31, m.n)
        for j in range(m.n):
            values, eliminated = reference_share(m.row(j), order, corr, cfg, children[j])
            seq = perturb_sequence(m.row(j), order, corr, cfg, children[j])
            assert np.array_equal(seq.values, values) and np.array_equal(seq.eliminated, eliminated)
            assert np.array_equal(share.values[j], values), f"{cfg} row {j}"
            assert np.array_equal(share.eliminated[j], eliminated), f"{cfg} row {j}"
        # one order for every row replays in blocks; per-row orders, one step at a time
        possible = recover_possible_inputs(share.values, corr, 0.2, gamma_hat, order)
        assert np.array_equal(possible, ~share.eliminated)
        assert np.array_equal(recover_possible_inputs(share.values, corr, 0.2, gamma_hat, per_row), possible)


@pytest.mark.parametrize("block", [1, 2, 7, "l"])
def test_block_size_changes_no_byte(monkeypatch, block):
    m, corr, order = _block_case(45, 3, n=6)
    seeds = child_seeds(5, m.n)

    def run():
        out = []
        for gamma_hat in (0.05, 0.5):
            cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=gamma_hat)
            values, eliminated, orders = mechanism._share_rows(m.values, order, corr, cfg, seeds)
            _, replayed, replay_orders = mechanism._sequential_share(
                corr.increments(0.2), gamma_hat, order, reports=values
            )
            out += [values, eliminated, orders, replayed, replay_orders]
        return out

    default = run()
    monkeypatch.setattr(mechanism, "B", m.l if block == "l" else block)
    for got, want in zip(run(), default):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_per_row_orders_and_greedy_match_their_reference_past_one_block():
    l = mechanism.B + 8
    m, corr, _ = _block_case(l, 21, n=3)
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.3)
    orders = np.stack([np.random.default_rng(j).permutation(l) for j in range(m.n)])
    seeds = child_seeds(8, m.n)
    values, eliminated, taken = mechanism._share_rows(m.values, orders, corr, cfg, seeds)
    assert np.array_equal(taken, orders)
    for j in range(m.n):
        ref_values, ref_eliminated = reference_share(m.row(j), orders[j], corr, cfg, seeds[j])
        assert np.array_equal(values[j], ref_values) and np.array_equal(eliminated[j], ref_eliminated)
        order, seq = greedy_share(m.row(j), corr, cfg, seeds[j])
        ref_order, ref_greedy = reference_greedy(m.row(j), corr, cfg, seeds[j])
        assert order == ref_order and np.array_equal(seq.values, ref_greedy), f"row {j}"


# --------------------------------------------------- exact counter products

# (n, l): one row, one SNP, and both sides of one and two blocks
COUNT_CASES = [
    (1, mechanism.B + 1), (5, 1), (5, mechanism.B - 1), (5, mechanism.B),
    (5, mechanism.B + 1), (5, 2 * mechanism.B + 1),
]


def _count_case(n, l):
    """A cohort whose column 0 never takes state 0 and whose last column, past
    one SNP, never takes state 2, with its model."""
    m = generate_synthetic_population(SyntheticSpec(n=n, l=l, maf=0.3, rho=0.7), 60 + l)
    values = m.values.copy()
    rng = np.random.default_rng(l)
    values[:, 0] = rng.integers(1, 3, size=n)
    if l > 1:
        values[:, -1] = rng.integers(0, 2, size=n)
    m = GenotypeMatrix(values)
    return m, compute_correlation_model(m)


@pytest.mark.parametrize("n, l", COUNT_CASES)
def test_attack_counts_equal_the_float64_one_hot_product(n, l):
    m, corr = _count_case(n, l)
    inc = corr.increments(0.3)
    Y = np.random.default_rng(n + l).integers(0, 3, size=(n, l))
    for reports in (m.values, Y):
        got = attack._attack_counts(reports, mechanism._count_operand(inc))
        assert got.dtype == np.int32 and np.array_equal(got, reference_counts(reports, inc))


class _CounterSpy:
    """A threshold that keeps the counters the sharing loop compares with it."""

    __array_ufunc__ = None  # so `counters >= spy` calls spy.__le__(counters)

    def __init__(self, need, seen):
        self.need, self.seen = need, seen

    def __le__(self, counters):
        self.seen.append(np.array(counters))
        return counters >= self.need


@pytest.mark.parametrize("n, l", COUNT_CASES)
def test_fixed_order_counters_equal_the_float64_one_hot_product(monkeypatch, n, l):
    # at step a, the counters of SNP order[a - 1] count the reports of the
    # SNPs shared before it, whether the loop shares or replays
    m, corr = _count_case(n, l)
    inc = corr.increments(0.3)
    order = tuple(np.random.default_rng(n * l).permutation(l).tolist())
    seen = []
    thresholds = mechanism._thresholds
    monkeypatch.setattr(
        mechanism, "_thresholds", lambda g, size: [_CounterSpy(t, seen) for t in thresholds(g, size)]
    )
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.3, gamma_hat=0.2)
    share = perturb_population(m, order, corr, cfg, 9)
    mechanism._sequential_share(inc, 0.2, order, reports=share.values)
    assert len(seen) == 2 * l
    for a, i in enumerate(order):
        prefix = list(order[:a])
        want = reference_counts(share.values[:, prefix], inc[prefix])[:, i]
        assert np.array_equal(seen[a], want) and np.array_equal(seen[l + a], want), f"step {a + 1}"
    assert l == 1 or any(counters.any() for counters in seen)


def test_share_peak_memory_holds_no_copy_of_the_table():
    # the increment table is 9 * l**2 bytes; the share gathers each block's
    # rows of it, never a permuted copy of the whole, and multiplies by a
    # (2B, 3l) operand per block
    l = 400
    m = generate_synthetic_population(SyntheticSpec(n=200, l=l, maf=0.2, rho=0.8), 1)
    corr = compute_correlation_model(m)
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.5)
    corr.increments(cfg.tau_hat)
    order = np.random.default_rng(1).permutation(l)
    tracemalloc.start()
    try:
        share = perturb_population(m, order, corr, cfg, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert share.values.shape == (200, l)
    assert peak < 33 * l**2, peak
