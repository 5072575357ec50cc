"""Presence queries: answers, decision rules, accuracy, per-SNP utility."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import exact_params

from corrldp.beacon import (
    DecisionRule,
    beacon_accuracy,
    per_snp_expected_utility,
)
from corrldp.data import GenotypeMatrix
from corrldp.mechanism import SharingMode, sharing_probs
from corrldp.rr import rr_params

LN2 = math.log(2)


def _answers_yes(column, rule=DecisionRule.DIRECT, epsilon=None) -> bool:
    """The beacon answer a column gets under ``rule``, read off
    beacon_accuracy: against an all-Yes original it is preserved iff Yes."""
    col = GenotypeMatrix(np.asarray(column).reshape(-1, 1))
    original = GenotypeMatrix(np.ones_like(col.values))
    return beacon_accuracy(original, col, rule, epsilon=epsilon).preserved == 1


def test_response_definition():
    assert not _answers_yes([0, 0, 0])
    assert _answers_yes([0, 1, 0])
    assert _answers_yes([2])
    assert not _answers_yes([0])


def test_rr_decision_threshold():
    # at eps = ln 2, p = 1/2, so 100 reports flip at 50 zeros
    rule = DecisionRule.RR_ESTIMATED
    col = np.zeros(100, dtype=int)
    col[:51] = 1  # 49 zeros
    assert _answers_yes(col, rule, LN2)
    col[:50] = 1
    col[50:] = 0  # 50 zeros: threshold reached -> No
    assert not _answers_yes(col, rule, LN2)
    assert not _answers_yes(np.zeros(100, dtype=int), rule, LN2)


def test_rr_decision_extremes():
    rule = DecisionRule.RR_ESTIMATED
    # eps = 0: p = 1/3, all-ones column is a Yes regardless
    assert _answers_yes(np.ones(30, dtype=int), rule, 0.0)
    # huge eps: p -> 1, a single non-zero already defeats the threshold
    col = np.zeros(1000, dtype=int)
    col[0] = 2
    assert _answers_yes(col, rule, 20.0)


def test_accuracy_direct_hand_case():
    original = GenotypeMatrix(np.array([[0, 1, 0, 2], [0, 0, 0, 1]]))
    # truth answers: No, Yes, No, Yes
    perturbed = GenotypeMatrix(np.array([[0, 0, 1, 2], [0, 0, 0, 0]]))
    # direct answers: No, No, Yes, Yes -> preserved on SNPs 0 and 3
    report = beacon_accuracy(original, perturbed)
    assert report.overall == pytest.approx(0.5)
    assert report.yes_total == 2 and report.no_total == 2
    assert report.yes_accuracy == pytest.approx(0.5)
    assert report.no_accuracy == pytest.approx(0.5)
    assert report.preserved == 2
    assert report.yes_total + report.no_total == 4


def test_accuracy_identity_and_empty_class():
    original = GenotypeMatrix(np.array([[1, 2], [0, 1]]))  # both answers Yes
    perturbed = GenotypeMatrix(np.array([[0, 1], [0, 0]]))
    report = beacon_accuracy(original, perturbed)
    assert report.no_total == 0
    assert math.isnan(report.no_accuracy)
    assert report.yes_accuracy == pytest.approx(0.5)
    assert report.overall == pytest.approx(0.5)


def test_accuracy_rr_estimated_rule():
    # 4 individuals, eps = ln 2 -> zero threshold 4 * 0.5 = 2
    original = GenotypeMatrix(np.array([[0, 1], [0, 1], [0, 1], [0, 1]]))
    perturbed = GenotypeMatrix(np.array([[0, 0], [0, 0], [1, 1], [1, 1]]))
    # zeros per column: 2 and 2 -> both No; truth: No, Yes
    report = beacon_accuracy(original, perturbed, DecisionRule.RR_ESTIMATED, epsilon=LN2)
    assert report.no_accuracy == pytest.approx(1.0)
    assert report.yes_accuracy == pytest.approx(0.0)
    assert report.overall == pytest.approx(0.5)
    with pytest.raises(ValueError, match="epsilon"):
        beacon_accuracy(original, perturbed, DecisionRule.RR_ESTIMATED)


def test_accuracy_shape_mismatch():
    a = GenotypeMatrix(np.zeros((2, 3), dtype=int))
    b = GenotypeMatrix(np.zeros((2, 4), dtype=int))
    with pytest.raises(ValueError, match="shape"):
        beacon_accuracy(a, b)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.sampled_from(list(DecisionRule)),
)
def test_accuracy_identity_holds(n, l, seed, rule):
    rng = np.random.default_rng(seed)
    original = GenotypeMatrix(rng.integers(0, 3, size=(n, l)))
    perturbed = GenotypeMatrix(rng.integers(0, 3, size=(n, l)))
    report = beacon_accuracy(original, perturbed, rule, epsilon=1.0)
    total = report.preserved
    recomputed = 0.0
    if report.yes_total:
        recomputed += report.yes_accuracy * report.yes_total
    if report.no_total:
        recomputed += report.no_accuracy * report.no_total
    assert recomputed == pytest.approx(total)
    assert report.overall == pytest.approx(total / l)
    assert 0.0 <= report.overall <= 1.0


def test_per_snp_utility_hand_values():
    # truth 0 with distribution (1/2, 1/4, 1/4): utility 1/2
    assert per_snp_expected_utility(0, (0.5, 0.25, 0.25)) == pytest.approx(0.5)
    # truth 1 with the same distribution: 1/4 + 1/4 = 1/2
    assert per_snp_expected_utility(1, (0.5, 0.25, 0.25)) == pytest.approx(0.5)
    # truth 1 whose class is fully preserved: (0, 2/3, 1/3) -> 1
    assert per_snp_expected_utility(1, (0.0, 2 / 3, 1 / 3)) == pytest.approx(1.0)
    # sole-survivor on the truth: certainty
    assert per_snp_expected_utility(2, (0.0, 0.0, 1.0)) == pytest.approx(1.0)


def test_class_preserving_branch_beats_plain_split():
    # when a non-zero truth is itself eliminated, the class-aware mode puts
    # the pair weight on the other non-zero state (utility p-pair = 2/3 at
    # likelihood ratio 2) while the plain mode splits evenly (utility 1/2)
    params = exact_params(Fraction(2))
    for x in (1, 2):
        probs, _ = sharing_probs(x, {x}, params, SharingMode.BEACON)
        assert per_snp_expected_utility(x, probs) == pytest.approx(2 / 3)
        plain_probs = sharing_probs(x, {x}, params, SharingMode.PLAIN)[0]
        assert per_snp_expected_utility(x, plain_probs) == pytest.approx(0.5)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2), st.floats(0.0, 6.0), st.sets(st.integers(0, 2), max_size=2))
def test_utility_bounds(x, epsilon, elim):
    probs, _ = sharing_probs(x, elim, rr_params(epsilon), SharingMode.BEACON)
    u = per_snp_expected_utility(x, probs)
    assert 0.0 <= u <= 1.0 + 1e-12


def test_rr_estimated_accuracy_applies_the_column_decision():
    rng = np.random.default_rng(3)
    original = GenotypeMatrix(np.ones((40, 25), dtype=int))  # every truth answer is Yes
    for epsilon in (0.0, LN2, 1.5):
        # the share of zeros grows across the columns, so both answers occur
        zero = rng.random((40, 25)) < np.linspace(0.1, 0.95, 25)
        perturbed = GenotypeMatrix(np.where(zero, 0, rng.integers(1, 3, size=(40, 25))))
        report = beacon_accuracy(original, perturbed, DecisionRule.RR_ESTIMATED, epsilon=epsilon)
        p = rr_params(epsilon).p
        yes = [np.count_nonzero(perturbed.values[:, i] == 0) < 40 * p for i in range(25)]
        assert 0 < sum(yes) < 25
        assert report.preserved == sum(yes)
