"""Genotype matrices, file round-trips, synthetic populations, correlation models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrldp.data import (
    CorrelationModel,
    GenotypeError,
    GenotypeMatrix,
    GenotypeParseError,
    SyntheticSpec,
    child_seeds,
    compute_correlation_model,
    generate_synthetic_population,
    hardy_weinberg_triple,
    load_genotype_matrix,
    save_genotype_matrix,
)


# ---------------------------------------------------------------- matrices


def test_matrix_basic_properties():
    m = GenotypeMatrix(np.array([[0, 1], [2, 0]]))
    assert (m.n, m.l) == (2, 2)
    assert list(m.row(1)) == [2, 0]
    assert list(m.column(1)) == [1, 0]


def test_matrix_rejects_out_of_domain_values():
    with pytest.raises(GenotypeError, match="3"):
        GenotypeMatrix(np.array([[0, 3]]))
    with pytest.raises(GenotypeError):
        GenotypeMatrix(np.array([[0.5, 1.0]]))
    with pytest.raises(GenotypeError):
        GenotypeMatrix(np.array([0, 1]))  # 1-D
    with pytest.raises(GenotypeError):
        GenotypeMatrix(np.empty((0, 3), dtype=np.int8))


# ---------------------------------------------------------------- file I/O


def test_load_two_by_two(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# comment\n2 2\n0 1\n2 0\n", encoding="utf-8")
    m = load_genotype_matrix(path)
    assert m == GenotypeMatrix(np.array([[0, 1], [2, 0]]))


def test_load_rejects_bad_cell(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("1 2\n0 3\n", encoding="utf-8")
    with pytest.raises(GenotypeParseError, match=r"line 2, column 2"):
        load_genotype_matrix(path)


def test_load_rejects_dimension_mismatch(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("1 2\n", encoding="utf-8")
    with pytest.raises(GenotypeParseError, match="declares 1 rows"):
        load_genotype_matrix(path)
    path.write_text("1 3\n0 1\n", encoding="utf-8")
    with pytest.raises(GenotypeParseError, match="expected 3 values"):
        load_genotype_matrix(path)
    path.write_text("", encoding="utf-8")
    with pytest.raises(GenotypeParseError, match="empty file"):
        load_genotype_matrix(path)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_save_load_round_trip(tmp_path_factory, n, l, seed):
    rng = np.random.default_rng(seed)
    m = GenotypeMatrix(rng.integers(0, 3, size=(n, l)))
    path = tmp_path_factory.mktemp("rt") / "g.txt"
    save_genotype_matrix(m, path)
    assert load_genotype_matrix(path) == m


# ---------------------------------------------------------------- synthetic


def test_hardy_weinberg_triple_values():
    triple = hardy_weinberg_triple(0.2)
    assert np.allclose(triple, [0.64, 0.32, 0.04])
    with pytest.raises(GenotypeError):
        hardy_weinberg_triple(0.0)
    with pytest.raises(GenotypeError):
        hardy_weinberg_triple(0.6)


def test_synthetic_determinism():
    spec = SyntheticSpec(n=20, l=10, maf=0.3, rho=0.5)
    a = generate_synthetic_population(spec, 7)
    b = generate_synthetic_population(spec, 7)
    c = generate_synthetic_population(spec, 8)
    assert a == b
    assert a != c


def test_child_seeds_are_a_fresh_spawn_and_leave_the_parent_alone():
    for parent in (5, np.random.SeedSequence(5, spawn_key=(3, 1)), np.random.SeedSequence(9, pool_size=8)):
        fresh = parent if isinstance(parent, np.random.SeedSequence) else np.random.SeedSequence(parent)
        expected = [c.generate_state(4).tolist() for c in np.random.SeedSequence(
            fresh.entropy, spawn_key=fresh.spawn_key, pool_size=fresh.pool_size).spawn(3)]
        for _ in range(2):
            assert [c.generate_state(4).tolist() for c in child_seeds(parent, 3)] == expected
        assert fresh.n_children_spawned == 0


def test_synthetic_independent_frequencies():
    # rho = 0: the empirical frequency of value 2 stays within 3 standard
    # errors of maf^2
    n = 100_000
    f = 0.2
    m = generate_synthetic_population(SyntheticSpec(n=n, l=2, maf=f, rho=0.0), 0)
    p2 = f * f
    se = math.sqrt(p2 * (1 - p2) / n)
    for i in range(2):
        emp = np.mean(m.column(i) == 2)
        assert abs(emp - p2) < 3 * se


def test_synthetic_strong_chain_agreement():
    rho = 0.999
    m = generate_synthetic_population(SyntheticSpec(n=5000, l=3, maf=0.3, rho=rho), 1)
    for t in (1, 2):
        agree = np.mean(m.column(t) == m.column(t - 1))
        assert agree >= rho - 0.01


def test_synthetic_per_column_maf_and_rho():
    # rho[t] chains column t to t-1; a zero at the block boundary decouples
    # the blocks, and per-column maf drives each block's own frequencies.
    spec = SyntheticSpec(n=40_000, l=4, maf=(0.3, 0.3, 0.01, 0.01), rho=(0.0, 1.0, 0.0, 1.0))
    m = generate_synthetic_population(spec, 3)
    assert np.array_equal(m.column(1), m.column(0))
    assert np.array_equal(m.column(3), m.column(2))
    # block boundary: columns 1 and 2 are independent draws with different maf
    assert abs(np.mean(m.column(0) == 0) - 0.49) < 0.02
    assert abs(np.mean(m.column(2) == 0) - 0.9801) < 0.01
    corr = np.mean((m.column(1) > 0) & (m.column(2) > 0))
    assert abs(corr - np.mean(m.column(1) > 0) * np.mean(m.column(2) > 0)) < 0.02


def test_synthetic_spec_validation():
    with pytest.raises(GenotypeError):
        SyntheticSpec(n=0, l=5)
    with pytest.raises(GenotypeError):
        SyntheticSpec(n=5, l=3, maf=(0.2, 0.2))  # wrong length
    with pytest.raises(GenotypeError):
        SyntheticSpec(n=5, l=3, rho=(0.0, 0.5))  # wrong length
    with pytest.raises(GenotypeError):
        SyntheticSpec(n=5, l=2, rho=(0.0, 1.5))  # out of range
    with pytest.raises(GenotypeError):
        SyntheticSpec(n=5, l=2, maf=0.7)


# ------------------------------------------------------- correlation model


def test_copy_column_conditionals_are_deterministic():
    values = np.array([[0, 0], [1, 1], [2, 2], [1, 1], [0, 0]])
    corr = compute_correlation_model(GenotypeMatrix(values))
    for v in range(3):
        assert corr.value(1, 0, v, v) == 1.0
        for u in range(3):
            if u != v:
                assert corr.value(1, 0, u, v) == 0.0


def test_hand_counted_conditional():
    # three individuals, column pair values (0,0), (0,1), (1,1):
    # Pr(first = 0 | second = 1) = 1/2
    values = np.array([[0, 0], [0, 1], [1, 1]])
    corr = compute_correlation_model(GenotypeMatrix(values))
    assert corr.value(0, 1, 0, 1) == pytest.approx(0.5)
    assert corr.value(0, 1, 1, 1) == pytest.approx(0.5)
    assert corr.value(0, 1, 2, 1) == 0.0


def test_zero_support_conditioning_is_undefined():
    values = np.array([[0, 0], [0, 1]])  # column 0 is constant 0
    corr = compute_correlation_model(GenotypeMatrix(values))
    for a in range(3):
        assert corr.value(1, 0, a, 1) is None
        assert corr.value(1, 0, a, 2) is None
    assert corr.value(1, 0, 0, 0) == pytest.approx(0.5)


def test_pseudo_count_removes_undefined_and_smooths():
    values = np.array([[0, 0], [0, 1]])
    corr = compute_correlation_model(GenotypeMatrix(values), pseudo_count=1.0)
    assert not np.isnan(corr.cond).any()
    # zero-support column: (0 + 1) / (0 + 3) = 1/3
    assert corr.value(1, 0, 0, 1) == pytest.approx(1 / 3)
    # supported cell: one joint hit over one conditioning hit, (1+1)/(1+3)
    assert corr.value(0, 1, 0, 0) == pytest.approx(0.5)


def test_marginals_and_row_sums():
    m = generate_synthetic_population(SyntheticSpec(n=50, l=5, maf=0.3, rho=0.4), 2)
    corr = compute_correlation_model(m)
    assert np.allclose(corr.marginals.sum(axis=1), 1.0, atol=1e-9)
    defined = ~np.isnan(corr.cond)
    sums = np.nansum(corr.cond, axis=2)
    assert np.all(np.abs(sums[defined.any(axis=2)] - 1.0) < 1e-9)


def test_independence_recovery():
    # rho = 0 population: every defined conditional sits near its marginal
    m = generate_synthetic_population(SyntheticSpec(n=100_000, l=4, maf=0.2, rho=0.0), 5)
    corr = compute_correlation_model(m)
    for i in range(4):
        for k in range(4):
            if i == k:
                continue
            for a in range(3):
                for b in range(3):
                    v = corr.value(i, k, a, b)
                    if v is not None:
                        assert abs(v - corr.marginals[i, a]) < 0.02


def test_low_mask_semantics():
    values = np.array([[0, 0], [0, 1], [1, 1]])
    corr = compute_correlation_model(GenotypeMatrix(values))
    mask = corr.low_mask(0.6)
    # diagonal never counts
    assert not mask[0, 0].any() and not mask[1, 1].any()
    # Pr(first = 2 | second = 1) = 0 < 0.6 counts; undefined cells never count
    assert mask[0, 1, 2, 1]
    assert not mask[0, 1, 2, 2]  # column 1 never equals 2: undefined


def test_correlation_model_json_round_trip(tmp_path):
    values = np.array([[0, 0], [0, 1]])  # includes undefined cells
    corr = compute_correlation_model(GenotypeMatrix(values))
    path = tmp_path / "corr.json"
    corr.to_json(path)
    loaded = CorrelationModel.from_json(path)
    assert np.array_equal(np.isnan(corr.cond), np.isnan(loaded.cond))
    defined = ~np.isnan(corr.cond)
    assert np.allclose(corr.cond[defined], loaded.cond[defined])
    assert np.allclose(corr.marginals, loaded.marginals)


def test_correlation_model_validation():
    bad = np.full((2, 2, 3, 3), 1.0 / 3)
    bad[0, 1, :, 0] = (0.5, 0.5, 0.5)  # column sums to 1.5
    with pytest.raises(GenotypeError, match="sum to 1"):
        CorrelationModel(cond=bad, marginals=np.full((2, 3), 1.0 / 3))
    with pytest.raises(GenotypeError, match="marginals"):
        CorrelationModel(
            cond=np.full((2, 2, 3, 3), 1.0 / 3), marginals=np.full((3, 3), 1.0 / 3)
        )


@settings(max_examples=20, deadline=None)
@given(
    st.integers(2, 10),
    st.integers(2, 5),
    st.floats(0.0, 2.0),
    st.integers(0, 2**32 - 1),
)
def test_correlation_model_invariants_hold_for_random_data(n, l, pc, seed):
    rng = np.random.default_rng(seed)
    m = GenotypeMatrix(rng.integers(0, 3, size=(n, l)))
    corr = compute_correlation_model(m, pseudo_count=pc)
    if pc > 0:
        assert not np.isnan(corr.cond).any()
    defined = ~np.isnan(corr.cond)
    assert np.all(corr.cond[defined] >= 0.0) and np.all(corr.cond[defined] <= 1.0)
    assert np.allclose(corr.marginals.sum(axis=1), 1.0, atol=1e-9)
