"""Order selection: exact solver, greedy policy, random baseline, caps."""

import itertools
import math

import numpy as np
import pytest

from support import (
    BRUTE_FORCE_MAX_SNPS,
    MdpSpec,
    brute_force_order,
    custom_corr,
    reference_greedy,
    reference_optimal_value,
    uniform_corr,
)

from corrldp.attack import recover_possible_inputs
from corrldp.data import (
    GenotypeMatrix,
    SyntheticSpec,
    child_seeds,
    compute_correlation_model,
    generate_synthetic_population,
)
from corrldp.mechanism import MechanismConfig, SharingMode, perturb_population, perturb_sequence
from corrldp.ordering import (
    EXACT_METHOD_MAX_SNPS,
    _greedy_rows,
    _optimal_rows,
    expected_utility_of_order,
    greedy_share,
    optimal_order_value_iteration,
    random_order,
)
from corrldp.rr import rr_params

LN2 = math.log(2)


# ------------------------------------------------------- reference oracles


def _reference_order_value(spec: MdpSpec, order) -> float:
    def walk(state, pos):
        if pos == len(order):
            return 0.0
        return sum(
            p * (r + walk(nxt, pos + 1)) for p, nxt, r in spec.transition(state, order[pos])
        )

    return walk(spec.initial_state(), 0)


def _reference_policy_value(spec: MdpSpec, policy) -> float:
    def walk(state):
        if not spec.actions(state):
            return 0.0
        a = policy.action(state)
        return sum(p * (r + walk(nxt)) for p, nxt, r in spec.transition(state, a))

    return walk(spec.initial_state())


def _instances(count, l=4, seed0=200, gammas=(0.3, 0.5, 0.8)):
    for t in range(count):
        m = generate_synthetic_population(
            SyntheticSpec(n=20, l=l, maf=0.3, rho=0.75), seed0 + t
        )
        corr = compute_correlation_model(m)
        cfg = MechanismConfig(
            epsilon=(0.5, 1.0, 2.0)[t % 3],
            tau_hat=(0.15, 0.25)[t % 2],
            gamma_hat=gammas[t % 3],
            mode=SharingMode.BEACON if t % 2 == 0 else SharingMode.PLAIN,
        )
        yield m.row(t % m.n), corr, cfg


# --------------------------------------------------------------- primitives


def test_random_order_determinism_and_support():
    assert random_order(5, 3) == random_order(5, 3)
    assert sorted(random_order(9, 0)) == list(range(9))
    assert random_order(1, 7) == (0,)
    with pytest.raises(ValueError):
        random_order(0, 1)


def test_random_order_close_to_uniform():
    counts = {perm: 0 for perm in itertools.permutations(range(3))}
    for seed in range(600):
        counts[random_order(3, seed)] += 1
    assert all(abs(c - 100) < 40 for c in counts.values()), counts


def test_mdp_spec_shape():
    corr = uniform_corr(2)
    cfg = MechanismConfig(epsilon=LN2, tau_hat=0.2, gamma_hat=0.5)
    spec = MdpSpec(row=(0, 1), corr=corr, config=cfg)
    assert spec.initial_state() == ()
    assert spec.actions(()) == (0, 1)
    steps = spec.transition((), 0)
    assert sum(p for p, _, _ in steps) == pytest.approx(1.0)
    assert [s for _, s, _ in steps] == [((0, 0),), ((0, 1),), ((0, 2),)]
    # truth is 0, so only the y = 0 report earns the reward
    assert [r for _, _, r in steps] == [1, 0, 0]
    assert spec.actions(((0, 1),)) == (1,)
    assert spec.actions(((0, 1), (1, 0))) == ()


# ------------------------------------------------------------- exact solver


def test_exact_solver_matches_reference_on_small_instances():
    for row, corr, cfg in _instances(12):
        spec = MdpSpec(row=tuple(int(v) for v in row), corr=corr, config=cfg)
        policy, value = optimal_order_value_iteration(row, corr, cfg)
        assert value == pytest.approx(reference_optimal_value(spec), abs=1e-9)
        # realizing the policy on raw prefixes achieves exactly that value
        assert _reference_policy_value(spec, policy) == pytest.approx(value, abs=1e-9)


def test_exact_solver_matches_reference_where_dead_counters_collapse():
    # at l = 5 and these gamma_hat, counters can fall below the position's
    # floor, so the solver merges states the raw-prefix references keep apart;
    # six instances cover each gamma_hat in both modes, and two more take
    # gamma_hat * p past every field's top bit (4 * 5 >= 16)
    orders = ((0, 1, 2, 3, 4), (4, 2, 0, 3, 1), (1, 3, 4, 0, 2))
    instances = itertools.chain(
        _instances(6, l=5, seed0=250, gammas=(0.8, 1.0, 1.5)),
        _instances(2, l=5, seed0=260, gammas=(4.0,) * 3),
    )
    for row, corr, cfg in instances:
        spec = MdpSpec(row=tuple(int(v) for v in row), corr=corr, config=cfg)
        policy, value = optimal_order_value_iteration(row, corr, cfg)
        assert value == pytest.approx(reference_optimal_value(spec), abs=1e-9)
        assert _reference_policy_value(spec, policy) == pytest.approx(value, abs=1e-9)
        if cfg.gamma_hat >= 1:
            # no counter can reach gamma_hat * p at position p: one state per
            # nonempty remaining set
            assert len(policy._solver.memo) == 2**5 - 1
        for order in orders:
            got = expected_utility_of_order(row, order, corr, cfg)
            assert got == pytest.approx(_reference_order_value(spec, order), abs=1e-9)


def _dead_floor(p, l, gamma_hat):
    """The smallest counter at 1-based position p that some later position
    q >= p could see reach its threshold, one bump per share, capped at 16."""
    return min(16, min(math.ceil(gamma_hat * q) - (q - p) for q in range(p, l + 1)))


def test_memo_keys_hold_no_counter_below_the_floor():
    # gate 04's instance size and configuration
    l = 10
    m = generate_synthetic_population(SyntheticSpec(n=10, l=l, maf=0.2, rho=0.8), 0)
    corr = compute_correlation_model(m)
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.8)
    policy, _ = optimal_order_value_iteration(m.row(0), corr, cfg)
    seen = set()
    for mask, counters in policy._solver.memo:
        p = l - mask.bit_count() + 1
        floor = _dead_floor(p, l, cfg.gamma_hat)
        fields = [(counters >> (5 * slot)) & 31 for slot in range(3 * l)]
        assert counters >> (5 * 3 * l) == 0
        for slot, c in enumerate(fields):
            if not mask >> (slot // 3) & 1:
                assert c == 0, "a shared SNP keeps a counter"
            assert c == 0 or floor <= c < 16, (p, floor, c)
            seen.add((p, c))
    # the check is not vacuous: live counters at and above a positive floor
    assert any(c > 0 and _dead_floor(p, l, cfg.gamma_hat) > 1 for p, c in seen)


def test_policy_on_raw_prefixes_looks_up_the_solved_states():
    # gamma_hat 0.5 and 0.8 make the cap bind; 1.5 and 4.0 leave no counter
    # that can reach a threshold, so every live one is zeroed as dead
    instances = itertools.chain(
        _instances(4, l=6, seed0=260, gammas=(0.8, 0.5, 1.0)),
        _instances(2, l=6, seed0=270, gammas=(1.5, 4.0, 4.0)),
    )
    for row, corr, cfg in instances:
        spec = MdpSpec(row=tuple(int(v) for v in row), corr=corr, config=cfg)
        policy, _ = optimal_order_value_iteration(row, corr, cfg)
        solver = policy._solver
        solved = dict(solver.memo)
        inc = corr.increments(cfg.tau_hat)
        assert solver.key((), np.zeros((len(row), 3), dtype=int)) == solver.root

        def walk(prefix):
            if len(prefix) == len(row):
                return
            shared = [k for k, _ in prefix]
            counters = inc[shared, [y for _, y in prefix]].sum(axis=0)
            assert solver.key(shared, counters) in solved, prefix
            for _, nxt, _ in spec.transition(prefix, policy.action(prefix)):
                walk(nxt)

        walk(())
        assert solver.memo == solved  # no lookup solved a state anew


def test_fixed_order_evaluation_matches_reference():
    for row, corr, cfg in _instances(6, seed0=300):
        spec = MdpSpec(row=tuple(int(v) for v in row), corr=corr, config=cfg)
        for order in ((0, 1, 2, 3), (3, 1, 0, 2), (2, 3, 1, 0)):
            got = expected_utility_of_order(row, order, corr, cfg)
            assert got == pytest.approx(_reference_order_value(spec, order), abs=1e-9)


def test_adaptive_optimum_dominates_static_orders():
    for row, corr, cfg in _instances(8, seed0=400):
        _, value = optimal_order_value_iteration(row, corr, cfg)
        best_order, best_static = brute_force_order(row, corr, cfg)
        assert sorted(best_order) == [0, 1, 2, 3]
        assert value >= best_static - 1e-9
        # brute force really is the max over all static orders
        for order in itertools.permutations(range(4)):
            v = expected_utility_of_order(row, order, corr, cfg)
            assert best_static >= v - 1e-12


def test_independent_snps_make_order_irrelevant():
    corr = uniform_corr(4)
    cfg = MechanismConfig(epsilon=LN2, tau_hat=0.2, gamma_hat=0.5)
    row = [0, 1, 2, 0]
    params = rr_params(LN2)
    per_snp = [params.p if x == 0 else params.p + params.q for x in row]
    expected = sum(per_snp)
    _, value = optimal_order_value_iteration(row, corr, cfg)
    assert value == pytest.approx(expected, abs=1e-12)
    for order in itertools.permutations(range(4)):
        v = expected_utility_of_order(row, order, corr, cfg)
        assert v == pytest.approx(expected, abs=1e-12)


def test_disabled_elimination_makes_order_irrelevant():
    m = generate_synthetic_population(SyntheticSpec(n=20, l=4, maf=0.3, rho=0.9), 500)
    corr = compute_correlation_model(m)
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=1.01)
    row = m.row(0)
    params = rr_params(1.0)
    expected = sum(params.p if x == 0 else params.p + params.q for x in row)
    _, value = optimal_order_value_iteration(row, corr, cfg)
    assert value == pytest.approx(expected, abs=1e-12)
    assert expected_utility_of_order(row, (2, 0, 3, 1), corr, cfg) == pytest.approx(
        expected, abs=1e-12
    )


def test_policy_tie_breaks_to_lowest_index():
    corr = uniform_corr(3)
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.5)
    policy, _ = optimal_order_value_iteration([1, 1, 1], corr, cfg)
    assert policy.action(()) == 0
    assert policy.action(((0, 2),)) == 1
    with pytest.raises(ValueError):
        policy.action(((0, 0), (1, 0), (2, 0)))


@pytest.mark.parametrize(
    "prefix, message",
    [
        (((0, 0), (3, 0)), r"prefix entry 1 \(3, 0\): SNP 3 is outside 0\.\.2"),
        (((-1, 0),), r"prefix entry 0 \(-1, 0\): SNP -1 is outside 0\.\.2"),
        (((0, 0), (1, 3)), r"prefix entry 1 \(1, 3\): value 3 is not one of \(0, 1, 2\)"),
        (((0, 0), (0, 1)), r"prefix entry 1 \(0, 1\): SNP 0 appears twice in the prefix"),
    ],
    ids=["snp-past-l", "negative-snp", "value-past-2", "repeat"],
)
def test_policy_action_names_a_malformed_prefix_entry(prefix, message):
    corr = uniform_corr(3)
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.5)
    policy, _ = optimal_order_value_iteration([1, 1, 1], corr, cfg)
    with pytest.raises(ValueError, match=message):
        policy.action(prefix)


def test_monte_carlo_agrees_with_exact():
    m = generate_synthetic_population(SyntheticSpec(n=25, l=5, maf=0.3, rho=0.8), 501)
    corr = compute_correlation_model(m)
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.4)
    row = m.row(1)
    order = (4, 0, 2, 1, 3)
    exact = expected_utility_of_order(row, order, corr, cfg)

    def monte_carlo():
        # trial t is row t of the tiled matrix, shared on the seed's t-th child
        share = perturb_population(GenotypeMatrix(np.tile(row, (4000, 1))), order, corr, cfg, 7)
        return np.count_nonzero((share.values > 0) == (row > 0)) / 4000

    mc = monte_carlo()
    # conservative bound: per-trial utility lies in [0, 5]
    assert abs(mc - exact) < 3 * 2.5 / math.sqrt(4000)
    assert mc == monte_carlo()


def test_capacity_limits():
    l_big = EXACT_METHOD_MAX_SNPS + 1
    corr = uniform_corr(l_big)
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.5)
    row = [0] * l_big
    with pytest.raises(ValueError, match="supports at most"):
        optimal_order_value_iteration(row, corr, cfg)
    with pytest.raises(ValueError, match="supports at most"):
        expected_utility_of_order(row, tuple(range(l_big)), corr, cfg)
    l_brute = BRUTE_FORCE_MAX_SNPS + 1
    with pytest.raises(ValueError, match="supports at most"):
        brute_force_order([0] * l_brute, uniform_corr(l_brute), cfg)


def test_exact_evaluation_checks_the_row_against_the_model():
    corr = uniform_corr(8)
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.5)
    for row in ([0] * 5, [0] * 9):
        message = f"correlation model covers 8 SNPs, row has {len(row)}"
        with pytest.raises(ValueError, match=message):
            expected_utility_of_order(row, tuple(range(len(row))), corr, cfg)
        with pytest.raises(ValueError, match=message):
            brute_force_order(row, corr, cfg)
        with pytest.raises(ValueError, match=message):
            optimal_order_value_iteration(row, corr, cfg)


# ------------------------------------------------------------------- greedy


def test_greedy_prefers_guaranteed_class_preservation():
    # sharing SNP 0 makes both non-zero states of SNP 1 implausible whatever
    # value lands, so after the first pick SNP 1 is a certain utility-1 share
    # while SNP 2 stays a coin flip; the unique greedy order is (0, 1, 2)
    triples = {(1, 0, y): (0.998, 0.001, 0.001) for y in range(3)}
    corr = custom_corr(3, triples)
    cfg = MechanismConfig(epsilon=LN2, tau_hat=0.02, gamma_hat=0.5)
    row = [1, 0, 0]
    for seed in range(5):
        assert greedy_share(row, corr, cfg, seed)[0] == (0, 1, 2)
    _, value = optimal_order_value_iteration(row, corr, cfg)
    assert value == pytest.approx(0.75 + 1.0 + 0.5, abs=1e-12)


def test_greedy_is_deterministic_per_seed_and_randomizes_ties():
    corr = uniform_corr(4)
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.5)
    row = [1, 1, 1, 1]  # identical utilities everywhere: pure tie-breaking
    orders = {greedy_share(row, corr, cfg, seed)[0] for seed in range(20)}
    assert len(orders) > 1
    for seed in (0, 11):
        a = greedy_share(row, corr, cfg, seed)
        b = greedy_share(row, corr, cfg, seed)
        assert a[0] == b[0]
        assert np.array_equal(a[1].values, b[1].values)


def test_greedy_share_is_replayable():
    m = generate_synthetic_population(SyntheticSpec(n=10, l=6, maf=0.3, rho=0.8), 502)
    corr = compute_correlation_model(m)
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.4)
    for seed in (0, 1, 2):
        row = m.row(seed)
        order, seq = greedy_share(row, corr, cfg, seed)
        replay = perturb_sequence(
            row, order, corr, cfg, np.random.SeedSequence(seed, spawn_key=(0,))
        )
        assert np.array_equal(seq.values, replay.values)
        assert seq.order == replay.order == order


def test_greedy_share_matches_reference_greedy():
    m = generate_synthetic_population(SyntheticSpec(n=12, l=15, maf=0.3, rho=0.85), 504)
    corr = compute_correlation_model(m)
    configs = (
        MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.4),
        MechanismConfig(epsilon=0.6, tau_hat=0.25, gamma_hat=0.3, mode=SharingMode.PLAIN),
        MechanismConfig(epsilon=1.5, tau_hat=0.15, gamma_hat=0.01),
    )
    for seed in range(6):
        cfg = configs[seed % 3]
        order, seq = greedy_share(m.row(seed), corr, cfg, seed)
        ref_order, ref_values = reference_greedy(m.row(seed), corr, cfg, seed)
        assert order == seq.order == ref_order, f"seed {seed}"
        assert np.array_equal(seq.values, ref_values), f"seed {seed}"
    # an all-tie row: every pick comes from the tie stream
    corr = uniform_corr(6)
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.5)
    for seed in range(5):
        order, seq = greedy_share([2] * 6, corr, cfg, seed)
        ref_order, ref_values = reference_greedy([2] * 6, corr, cfg, seed)
        assert order == ref_order and np.array_equal(seq.values, ref_values)


# --------------------------------------------------------- population orders


def _greedy_block(seed, n=10, l=12, rho=0.85):
    m = generate_synthetic_population(SyntheticSpec(n=n, l=l, maf=0.3, rho=rho), seed)
    return m.values, compute_correlation_model(m)


def test_population_greedy_matches_reference_row_by_row():
    configs = (
        MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.4),
        MechanismConfig(epsilon=0.6, tau_hat=0.25, gamma_hat=0.3, mode=SharingMode.PLAIN),
        MechanismConfig(epsilon=1.5, tau_hat=0.15, gamma_hat=0.01),
    )
    for seed in range(6):
        X, corr = _greedy_block(600 + seed)
        cfg = configs[seed % 3]
        seeds = child_seeds(seed, X.shape[0])
        values, eliminated, orders = _greedy_rows(X, corr, cfg, seeds)
        for j in range(X.shape[0]):
            ref_order, ref_values = reference_greedy(X[j], corr, cfg, seeds[j])
            assert tuple(orders[j]) == ref_order, f"seed {seed} row {j}"
            assert np.array_equal(values[j], ref_values), f"seed {seed} row {j}"
            one_order, seq = greedy_share(X[j], corr, cfg, seeds[j])
            assert one_order == ref_order and np.array_equal(seq.eliminated, eliminated[j])


def test_population_greedy_breaks_each_rows_ties_from_its_own_stream():
    corr = uniform_corr(6)
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.5)
    X = np.array([[2] * 6, [1] * 6, [0, 1, 2, 0, 1, 2], [2] * 6])
    seeds = child_seeds(9, 4)
    values, _, orders = _greedy_rows(X, corr, cfg, seeds)
    for j in range(4):
        ref_order, ref_values = reference_greedy(X[j], corr, cfg, seeds[j])
        assert tuple(orders[j]) == ref_order and np.array_equal(values[j], ref_values)
    # rows 0 and 3 hold the same data but draw their ties from different streams
    assert tuple(orders[0]) != tuple(orders[3])


def test_replay_under_per_row_orders_reproduces_greedy_elimination():
    X, corr = _greedy_block(700, n=25, l=15)
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.3)
    values, eliminated, orders = _greedy_rows(X, corr, cfg, child_seeds(4, 25))
    assert len({tuple(o) for o in orders}) > 1
    possible = recover_possible_inputs(values, corr, 0.2, 0.3, orders)
    assert np.array_equal(possible, ~eliminated)


def test_perturb_with_policy_follows_policy():
    # sharing one row under its exact policy is the one-row case of _optimal_rows
    m = generate_synthetic_population(SyntheticSpec(n=15, l=5, maf=0.3, rho=0.85), 503)
    corr = compute_correlation_model(m)
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.4)
    row = m.row(2)
    policy, _ = optimal_order_value_iteration(row, corr, cfg)
    a_values, _, a_orders = _optimal_rows(row[None, :], corr, cfg, [9])
    b_values, _, b_orders = _optimal_rows(row[None, :], corr, cfg, [9])
    assert np.array_equal(a_values, b_values)
    assert np.array_equal(a_orders, b_orders)
    # the realized order replays the policy decision at every prefix
    prefix = []
    for i in a_orders[0]:
        assert policy.action(prefix) == i
        prefix.append((int(i), int(a_values[0, i])))


def test_population_optimal_matches_policy_row_by_row():
    X, corr = _greedy_block(701, n=6, l=6)
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.4)
    seeds = child_seeds(5, 6)
    values, eliminated, orders = _optimal_rows(X, corr, cfg, seeds)
    again = _optimal_rows(X, corr, cfg, seeds)
    assert all(np.array_equal(a, b) for a, b in zip((values, eliminated, orders), again))
    for j in range(6):
        # the realized order replays the policy decision at every prefix
        policy, _ = optimal_order_value_iteration(X[j], corr, cfg)
        prefix = []
        for i in orders[j]:
            assert policy.action(prefix) == i, f"row {j}"
            prefix.append((int(i), int(values[j, i])))
        # and sharing the row in that order on its seed gives the same reports
        seq = perturb_sequence(X[j], orders[j], corr, cfg, seeds[j])
        assert np.array_equal(seq.values, values[j]), f"row {j}"
        assert np.array_equal(seq.eliminated, eliminated[j]), f"row {j}"


def test_seeded_calls_do_not_depend_on_seed_reuse():
    X, corr = _greedy_block(702, n=4, l=10)
    cfg = MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.4)
    seed = np.random.SeedSequence(17)
    first_order, first = greedy_share(X[0], corr, cfg, seed)
    second_order, second = greedy_share(X[0], corr, cfg, seed)
    assert first_order == second_order and np.array_equal(first.values, second.values)
    # and a fresh seed gives what the int seed gives
    int_order, int_seq = greedy_share(X[0], corr, cfg, 17)
    assert first_order == int_order and np.array_equal(first.values, int_seq.values)
