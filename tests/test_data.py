"""Genotype matrices, file round-trips, synthetic populations, correlation models."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrldp import data
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
from support import (
    reference_fit,
    reference_model_json,
    reference_read_model,
    reference_save_genotypes,
    reference_synthetic_population,
    with_first_conditional,
)


# ---------------------------------------------------------------- matrices


def test_matrix_basic_properties():
    m = GenotypeMatrix(np.array([[0, 1], [2, 0]]))
    assert (m.n, m.l) == (2, 2)
    assert list(m.row(1)) == [2, 0]
    assert list(m.values[:, 1]) == [1, 0]


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


@pytest.mark.parametrize("n, l", [(1, 1), (1, 9), (9, 1), (40, 30)])
def test_genotype_file_matches_token_writer(tmp_path, n, l):
    values = np.random.default_rng(n * 100 + l).integers(0, 3, size=(n, l))
    path, reference = tmp_path / "g.txt", tmp_path / "ref.txt"
    save_genotype_matrix(GenotypeMatrix(values), path)
    reference_save_genotypes(values, reference)
    assert path.read_bytes() == reference.read_bytes()
    loaded = load_genotype_matrix(path).values
    assert loaded.dtype == np.int8 and loaded.tobytes() == values.astype(np.int8).tobytes()


def test_load_names_the_first_bad_token_of_a_line(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("2 4\n0 1 2 0\n\n# note\n1 x 3 0\n", encoding="utf-8")
    with pytest.raises(GenotypeParseError, match=r"line 5, column 2: invalid genotype 'x'"):
        load_genotype_matrix(path)


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
        emp = np.mean(m.values[:, i] == 2)
        assert abs(emp - p2) < 3 * se


def test_synthetic_strong_chain_agreement():
    rho = 0.999
    m = generate_synthetic_population(SyntheticSpec(n=5000, l=3, maf=0.3, rho=rho), 1)
    for t in (1, 2):
        agree = np.mean(m.values[:, t] == m.values[:, t - 1])
        assert agree >= rho - 0.01


def test_synthetic_per_column_maf_and_rho():
    # rho[t] chains column t to t-1; a zero at the block boundary decouples
    # the blocks, and per-column maf drives each block's own frequencies.
    spec = SyntheticSpec(n=40_000, l=4, maf=(0.3, 0.3, 0.01, 0.01), rho=(0.0, 1.0, 0.0, 1.0))
    m = generate_synthetic_population(spec, 3)
    assert np.array_equal(m.values[:, 1], m.values[:, 0])
    assert np.array_equal(m.values[:, 3], m.values[:, 2])
    # block boundary: columns 1 and 2 are independent draws with different maf
    assert abs(np.mean(m.values[:, 0] == 0) - 0.49) < 0.02
    assert abs(np.mean(m.values[:, 2] == 0) - 0.9801) < 0.01
    corr = np.mean((m.values[:, 1] > 0) & (m.values[:, 2] > 0))
    assert abs(corr - np.mean(m.values[:, 1] > 0) * np.mean(m.values[:, 2] > 0)) < 0.02


@pytest.mark.parametrize("draw_block", [None, 1], ids=["default-calls", "one-column-per-call"])
@pytest.mark.parametrize(
    "spec",
    [
        SyntheticSpec(n=150, l=200, maf=0.2, rho=0.8),
        SyntheticSpec(n=1, l=1),
        SyntheticSpec(n=5, l=2, maf=0.5, rho=1.0),
        SyntheticSpec(n=40, l=4, maf=(0.3, 0.3, 0.01, 0.01), rho=(0.0, 1.0, 0.0, 1.0)),
        SyntheticSpec(n=3, l=1, maf=0.4, rho=0.5),
        SyntheticSpec(
            n=17, l=12, maf=tuple(np.linspace(0.01, 0.5, 12)), rho=tuple(np.linspace(0.0, 1.0, 12))
        ),
        SyntheticSpec(n=64, l=33, maf=1e-9, rho=0.0),
        SyntheticSpec(n=100, l=50, maf=0.1, rho=(0.9,) * 25 + (0.0,) + (0.9,) * 24),
    ],
    ids=["grid", "one-cell", "two-columns", "alternating", "one-column", "per-column", "rare", "rho-zero-mid"],
)
def test_synthetic_population_matches_the_column_loop(spec, draw_block, monkeypatch):
    # with a draw block of 1 every column is its own rng.random call, so each
    # copy chain crosses a block boundary
    if draw_block is not None:
        monkeypatch.setattr(data, "_DRAW_BLOCK", draw_block)
    for seed in range(12):
        got = generate_synthetic_population(spec, seed).values
        want = reference_synthetic_population(spec, seed)
        assert got.flags.c_contiguous
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), seed


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
        assert corr.cond[1, 0, v, v] == 1.0
        for u in range(3):
            if u != v:
                assert corr.cond[1, 0, u, v] == 0.0


def test_hand_counted_conditional():
    # three individuals, column pair values (0,0), (0,1), (1,1):
    # Pr(first = 0 | second = 1) = 1/2
    values = np.array([[0, 0], [0, 1], [1, 1]])
    corr = compute_correlation_model(GenotypeMatrix(values))
    assert corr.cond[0, 1, 0, 1] == pytest.approx(0.5)
    assert corr.cond[0, 1, 1, 1] == pytest.approx(0.5)
    assert corr.cond[0, 1, 2, 1] == 0.0


def test_zero_support_conditioning_is_undefined():
    values = np.array([[0, 0], [0, 1]])  # column 0 is constant 0
    corr = compute_correlation_model(GenotypeMatrix(values))
    for a in range(3):
        assert np.isnan(corr.cond[1, 0, a, 1])
        assert np.isnan(corr.cond[1, 0, a, 2])
    assert corr.cond[1, 0, 0, 0] == pytest.approx(0.5)


def test_pseudo_count_removes_undefined_and_smooths():
    values = np.array([[0, 0], [0, 1]])
    corr = compute_correlation_model(GenotypeMatrix(values), pseudo_count=1.0)
    assert not np.isnan(corr.cond).any()
    # zero-support column: (0 + 1) / (0 + 3) = 1/3
    assert corr.cond[1, 0, 0, 1] == pytest.approx(1 / 3)
    # supported cell: one joint hit over one conditioning hit, (1+1)/(1+3)
    assert corr.cond[0, 1, 0, 0] == pytest.approx(0.5)


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
                    v = corr.cond[i, k, a, b]
                    if not np.isnan(v):
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


_NULL_CELLS = np.array([[0, 0], [0, 1], [1, 1]])  # column 1 never equals 2
_CHAIN = generate_synthetic_population(SyntheticSpec(n=40, l=6, maf=0.2, rho=0.9), 3).values


@pytest.mark.parametrize(
    "values, pseudo_count, tau",
    [
        (_NULL_CELLS, 0.0, 0.6),
        (_CHAIN, 0.0, 0.3),
        (_CHAIN, 0.5, 0.3),
        (_CHAIN[:, :1], 0.0, 0.5),
        (_CHAIN[:, :1], 0.5, 0.5),
    ],
    ids=["null-cells", "chain", "chain-pc0.5", "l1", "l1-pc0.5"],
)
def test_increments_is_the_low_test_laid_out_k_b_i_v(values, pseudo_count, tau):
    corr = compute_correlation_model(GenotypeMatrix(values), pseudo_count=pseudo_count)
    l = corr.l
    with np.errstate(invalid="ignore"):
        expected = ~np.isnan(corr.cond) & (corr.cond < tau)  # [i, k, v, b]
    expected[np.arange(l), np.arange(l)] = False
    inc = corr.increments(tau)
    assert inc.dtype == bool and inc.shape == (l, 3, l, 3) and inc.flags.c_contiguous
    assert np.array_equal(inc, expected.transpose(1, 3, 0, 2))
    assert np.array_equal(corr.low_mask(tau), expected)
    if values is _NULL_CELLS:
        assert np.isnan(corr.cond).any()


def test_increments_is_one_read_only_table_per_tau():
    corr = compute_correlation_model(GenotypeMatrix(np.array([[0, 0], [0, 1], [1, 1]])))
    inc = corr.increments(0.6)
    with pytest.raises(ValueError, match="read-only"):
        inc[0, 0, 1, 0] = True
    with pytest.raises(ValueError, match="read-only"):
        corr.low_mask(0.6)[0, 1, 2, 1] = False
    assert np.shares_memory(corr.low_mask(0.6), inc)
    assert corr.increments(0.6) is inc and corr.increments(np.float64(0.6)) is inc
    corr.increments(0.3)
    corr.low_mask(0.3)
    assert sorted(corr._increments_cache) == [0.3, 0.6]


def test_correlation_model_json_round_trip(tmp_path):
    values = np.array([[0, 0], [0, 1]])  # includes undefined cells
    corr = compute_correlation_model(GenotypeMatrix(values))
    path = tmp_path / "corr.json"
    corr.to_json(path)
    loaded = CorrelationModel.from_json(path)
    assert np.isnan(corr.cond).any()
    assert np.array_equal(corr.cond, loaded.cond, equal_nan=True)
    assert np.array_equal(corr.marginals, loaded.marginals)


@pytest.mark.parametrize(
    "n, l, maf, pseudo_count",
    [(7, 1, 0.3, 0.0), (6, 9, 0.05, 0.0), (30, 12, 0.3, 0.5), (80, 40, 0.2, 0.0), (2, 3, 0.5, 1.0)],
)
def test_model_file_matches_json_dump(tmp_path, n, l, maf, pseudo_count):
    matrix = generate_synthetic_population(SyntheticSpec(n=n, l=l, maf=maf, rho=0.7), n + l)
    corr = compute_correlation_model(matrix, pseudo_count)
    path, reference = tmp_path / "model.json", tmp_path / "ref.json"
    corr.to_json(path)
    reference_model_json(corr, reference)
    assert path.read_bytes() == reference.read_bytes()
    loaded = CorrelationModel.from_json(path)
    assert loaded.cond.tobytes() == corr.cond.tobytes()
    assert loaded.marginals.tobytes() == corr.marginals.tobytes()


def _missing_state_two(n=30, l=12, seed=0):
    # columns 0-2 never hold state 2 and column 3 never holds state 0, so
    # every conditional given those states is undefined at pseudo-count 0
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 3, size=(n, l))
    values[:, :3] = rng.integers(0, 2, size=(n, 3))
    values[:, 3] = rng.integers(1, 3, size=n)
    return values


def _fitted_model_file(values, pseudo_count):
    return lambda path: compute_correlation_model(GenotypeMatrix(values), pseudo_count).to_json(path)


def _spaced_model_file(path):
    _fitted_model_file(_missing_state_two(n=9, l=5, seed=2), 0.0)(path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace(",", " ,\n  ").replace("[", "[ \t"), encoding="utf-8")


def _hand_written_model_file(cond: str, marginals: str):
    text = f'{{"l": 1, "cond": [[{cond}]], "marginals": [{marginals}]}}'
    return lambda path: path.write_text(text, encoding="utf-8")


# each case is a function writing one model file; in the hand-written ones,
# row a of cond[0][0] holds Pr(SNP_0 = a | SNP_0 = b) for b = 0, 1, 2, so
# each column sums to 1
_MODEL_FILES = {
    "canonical-with-nulls": _fitted_model_file(_missing_state_two(n=9, l=5, seed=2), 0.0),
    "canonical-pseudo-count": _fitted_model_file(_missing_state_two(n=9, l=5, seed=2), 0.5),
    "canonical-one-snp-with-nulls": _fitted_model_file(np.array([[0], [2], [2]]), 0.0),
    "spaced-with-nulls": _spaced_model_file,
    "integer-tokens": _hand_written_model_file(
        "[[1, 0, 0.5], [0, 1, 0.5], [0, 0, 0]]", "[1, 0, 0]"
    ),
    "exponent-tokens": _hand_written_model_file(
        "[[5E-1, 1e-05, 0.3], [0.49999, 0.99999, 0.7], [1e-05, 0, 0E0]]", "[5E-1, 0.49999, 1e-05]"
    ),
    "one-value-three-texts": _hand_written_model_file(
        "[[0.5, 0.50, 0], [5e-1, 0, 0.50], [0, 5e-1, 0.5]]", "[0.50, 0.5, 5e-1]"
    ),
    "negative-zero": _hand_written_model_file(
        "[[-0.0, 0.0, 1.0], [1.0, -0.0, 0.0], [0.0, 1.0, -0.0]]", "[-0.0, 0.0, 1.0]"
    ),
}


@pytest.mark.parametrize("case", list(_MODEL_FILES))
def test_model_reader_is_bit_identical_to_plain_json_load(tmp_path, case):
    # the reader converts each distinct number text once; every array must
    # still be what converting every token on its own gives
    path = tmp_path / "model.json"
    _MODEL_FILES[case](path)
    cond, marginals = reference_read_model(path)
    loaded = CorrelationModel.from_json(path)
    assert loaded.cond.dtype == cond.dtype and loaded.cond.tobytes() == cond.tobytes()
    assert loaded.marginals.dtype == marginals.dtype
    assert loaded.marginals.tobytes() == marginals.tobytes()
    assert np.isnan(cond).any() == case.endswith("with-nulls")
    # -0.0 keeps its sign bit beside 0.0, though the two compare equal
    assert np.signbit(loaded.cond).any() == (case == "negative-zero")


def test_empty_model_file_matches_json_dump(tmp_path):
    corr = CorrelationModel(cond=np.empty((0, 0, 3, 3)), marginals=np.empty((0, 3)))
    path, reference = tmp_path / "model.json", tmp_path / "ref.json"
    corr.to_json(path)
    reference_model_json(corr, reference)
    assert path.read_bytes() == reference.read_bytes()


def test_malformed_model_file_names_its_path(tmp_path):
    corr = compute_correlation_model(GenotypeMatrix(np.array([[0, 1], [2, 1], [1, 0]])))
    path = tmp_path / "model.json"
    corr.to_json(path)
    text = path.read_text(encoding="utf-8")
    payload = json.loads(text)
    wrong_marginals = dict(payload, marginals=[[1.0, 0.0, 0.0]])
    unnormalized = dict(payload, cond=(np.nan_to_num(corr.cond) / 2).tolist())
    for bad, message in (
        (text[: len(text) // 2], "malformed correlation model"),
        (json.dumps(wrong_marginals), "marginals must be"),
        (json.dumps(unnormalized), "must sum to 1"),
        ('{"l": 2, "cond": [[1, 2], [3]], "marginals": []}', "malformed correlation model"),
        ('{"l": 3, "marginals": []}', "malformed correlation model"),
        # tokens that parse, to a value the range check refuses
        (with_first_conditional(text, "1e999"), r"must lie in \[0, 1\]"),
        (with_first_conditional(text, "-1e-5"), r"must lie in \[0, 1\]"),
        (with_first_conditional(text, "Infinity"), r"must lie in \[0, 1\]"),
    ):
        path.write_text(bad, encoding="utf-8")
        with pytest.raises(GenotypeParseError, match=message) as exc:
            CorrelationModel.from_json(path)
        assert str(exc.value).startswith(f"{path}: ")


def test_correlation_model_validation(monkeypatch):
    bad = np.full((2, 2, 3, 3), 1.0 / 3)
    bad[0, 1, :, 0] = (0.5, 0.5, 0.5)  # column sums to 1.5
    with pytest.raises(GenotypeError, match="sum to 1"):
        CorrelationModel(cond=bad, marginals=np.full((2, 3), 1.0 / 3))
    # the checks take one SNP per slice here; a table failing both, the range
    # fault in a later slice than the sum fault, gets the range message
    monkeypatch.setattr(data, "_CHECK_CELLS", 9 * 3)
    bad = np.full((3, 3, 3, 3), 1.0 / 3)
    bad[0, 1, :, 0] = (0.5, 0.5, 0.5)
    with pytest.raises(GenotypeError, match="sum to 1"):
        CorrelationModel(cond=bad, marginals=np.full((3, 3), 1.0 / 3))
    bad[2, 0, :, 2] = (-0.5, 1.0, 0.5)
    with pytest.raises(GenotypeError, match=r"must lie in \[0, 1\]"):
        CorrelationModel(cond=bad, marginals=np.full((3, 3), 1.0 / 3))
    with pytest.raises(GenotypeError, match="marginals"):
        CorrelationModel(
            cond=np.full((2, 2, 3, 3), 1.0 / 3), marginals=np.full((3, 3), 1.0 / 3)
        )


def test_model_checks_sum_only_the_defined_conditionals(monkeypatch):
    # one SNP per slice; the cells with an undefined conditional take the
    # second, NaN-skipping sum
    monkeypatch.setattr(data, "_CHECK_CELLS", 9 * 3)
    marginals = np.full((3, 3), 1.0 / 3)
    cond = np.full((3, 3, 3, 3), 1.0 / 3)
    cond[1, 2, :, 0] = (0.25, np.nan, 0.75)  # partly undefined, sums to 1
    cond[2, 0, :, 1] = np.nan  # nothing defined, nothing to sum
    CorrelationModel(cond=cond.copy(), marginals=marginals)
    off = cond.copy()
    off[1, 2, 2, 0] += 2e-9
    with pytest.raises(GenotypeError, match="must sum to 1"):
        CorrelationModel(cond=off, marginals=marginals)
    # a range fault beside an undefined conditional, in a slice after a sum
    # fault, still gets the range message
    for value in (-0.25, 1.25, np.inf, -np.inf):
        bad = off.copy()
        bad[2, 0, 0, 1] = value
        with pytest.raises(GenotypeError, match=r"must lie in \[0, 1\]"):
            CorrelationModel(cond=bad, marginals=marginals)


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


# ----------------------------------------------------------------- lean fit


@pytest.mark.parametrize("pseudo_count", [0.0, 0.5])
@pytest.mark.parametrize(
    "values",
    [_missing_state_two(), _missing_state_two(n=7, l=40, seed=1), np.array([[0], [2], [2]])],
    ids=["missing-states", "wide", "one-snp"],
)
def test_fit_is_bit_identical_to_the_float64_formula(values, pseudo_count):
    corr = compute_correlation_model(GenotypeMatrix(values), pseudo_count)
    cond, marginals = reference_fit(values, pseudo_count)
    assert corr.cond.dtype == cond.dtype and corr.cond.tobytes() == cond.tobytes()
    assert corr.marginals.dtype == marginals.dtype and corr.marginals.tobytes() == marginals.tobytes()
    # the undefined cells are exactly the conditionals given an unseen state
    unseen = np.stack([(values == b).sum(axis=0) == 0 for b in range(3)], axis=1)  # [k, b]
    assert np.array_equal(np.isnan(corr.cond), np.broadcast_to(
        (unseen & (pseudo_count == 0))[None, :, None, :], corr.cond.shape
    ))


@pytest.mark.parametrize("pseudo_count", [0.0, 0.5])
@pytest.mark.parametrize("width", [1, 3])
def test_fit_is_bit_identical_across_fill_slices(monkeypatch, pseudo_count, width):
    # 40 SNPs over slices of one, then of three (the last holding one)
    values = _missing_state_two(n=9, l=40, seed=4)
    monkeypatch.setattr(data, "_FILL_CELLS", 9 * 40 * width)
    corr = compute_correlation_model(GenotypeMatrix(values), pseudo_count)
    cond, marginals = reference_fit(values, pseudo_count)
    assert corr.cond.tobytes() == cond.tobytes()
    assert corr.marginals.tobytes() == marginals.tobytes()


def test_fit_peak_memory_stays_below_three_models():
    # the model is 72 * l**2 bytes of float64; the fit holds one float32 Gram
    # product of the state-1 and state-2 planes, (2l, 2l), beside it and frees
    # that before the model checks itself
    l = 400
    m = generate_synthetic_population(SyntheticSpec(n=200, l=l, maf=0.2, rho=0.8), 1)
    tracemalloc.start()
    try:
        corr = compute_correlation_model(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert corr.l == l
    assert peak < 3 * 72 * l**2, peak


def test_model_checks_build_no_table_sized_temporaries():
    # the range and sum checks run over slices of SNPs, so the peak stays a
    # fraction of the 72 * l**2 bytes of the table itself
    l = 400
    m = generate_synthetic_population(SyntheticSpec(n=200, l=l, maf=0.2, rho=0.8), 1)
    corr = compute_correlation_model(m)
    tracemalloc.start()
    try:
        checked = CorrelationModel(cond=corr.cond, marginals=corr.marginals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checked.cond is corr.cond
    assert peak < 24 * l**2, peak


def test_model_read_peak_memory(tmp_path):
    # the read holds the file's text, json's nested lists and the arrays; one
    # float object per distinct number text, not per token, keeps the lists
    # small (about 778 * l**2 bytes when every token made its own float)
    l = 150
    m = generate_synthetic_population(SyntheticSpec(n=200, l=l, maf=0.2, rho=0.8), 1)
    path = tmp_path / "model.json"
    compute_correlation_model(m).to_json(path)
    tracemalloc.start()
    try:
        loaded = CorrelationModel.from_json(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.l == l
    assert peak < 680 * l**2, peak
