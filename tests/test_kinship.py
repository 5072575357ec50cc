"""Family budget accounting: transition tables, posteriors, budget planning."""

import math
from fractions import Fraction

import pytest

from support import reference_posterior_one_share, reference_posterior_two_shares

from corrldp.kinship import (
    PARENT_GIVEN_CHILD,
    PARENT_GIVEN_TWO_CHILDREN,
    FamilyShape,
    FamilyState,
    ShareRecord,
    indirect_budget_one_child,
    indirect_budget_two_children,
    max_budget_general,
    max_budget_one_child,
    max_budget_second_child,
    posterior_parent_given_share,
    posterior_parent_given_two_shares,
    select_donor_budget,
)

LN2 = math.log(2)


# ----------------------------------------------------- table re-derivation


def _child_given_parents(m: int, f: int) -> list[Fraction]:
    """Exact minor-allele-count law of a child of parents with m and f copies."""
    pm, pf = Fraction(m, 2), Fraction(f, 2)
    probs = [Fraction(0)] * 3
    for a_m in (0, 1):
        for a_f in (0, 1):
            w = (pm if a_m else 1 - pm) * (pf if a_f else 1 - pf)
            probs[a_m + a_f] += w
    return probs


def test_one_child_table_matches_exact_derivation():
    # uniform independent priors on both parents; posterior of one of them
    for c in range(3):
        joint = [
            sum(_child_given_parents(v, f)[c] for f in range(3)) for v in range(3)
        ]
        total = sum(joint)
        for v in range(3):
            assert PARENT_GIVEN_CHILD[c][v] == joint[v] / total, (c, v)
        assert sum(PARENT_GIVEN_CHILD[c]) == 1


def test_two_children_table_matches_exact_derivation():
    # children conditionally independent given both parents
    for (c1, c2), row in PARENT_GIVEN_TWO_CHILDREN.items():
        joint = [
            sum(
                _child_given_parents(v, f)[c1] * _child_given_parents(v, f)[c2]
                for f in range(3)
            )
            for v in range(3)
        ]
        total = sum(joint)
        for v in range(3):
            assert row[v] == joint[v] / total, (c1, c2, v)
        assert sum(row) == 1


def test_two_children_table_is_symmetric_and_complete():
    assert set(PARENT_GIVEN_TWO_CHILDREN) == {(a, b) for a in range(3) for b in range(3)}
    for (c1, c2), row in PARENT_GIVEN_TWO_CHILDREN.items():
        assert PARENT_GIVEN_TWO_CHILDREN[c2, c1] == row


# ----------------------------------------------------------------- posterior


def test_posterior_one_share_hand_value():
    assert posterior_parent_given_share(0, LN2) == pytest.approx(
        (5 / 12, 1 / 3, 1 / 4), abs=1e-12
    )


def test_posterior_heterozygous_report_is_uninformative():
    for eps in (0.0, 0.7, 3.0):
        assert posterior_parent_given_share(1, eps) == pytest.approx(
            (1 / 3, 1 / 3, 1 / 3), abs=1e-12
        )


def test_posterior_zero_budget_recovers_prior_marginal():
    # an eps = 0 report carries nothing: posterior = marginal of the table
    for y in range(3):
        assert posterior_parent_given_share(y, 0.0) == pytest.approx(
            (1 / 3, 1 / 3, 1 / 3), abs=1e-12
        )


def test_posterior_two_shares_is_symmetric():
    a = posterior_parent_given_two_shares(0, 0.5, 2, 1.5)
    b = posterior_parent_given_two_shares(2, 1.5, 0, 0.5)
    assert a == pytest.approx(b, abs=1e-15)
    assert sum(a) == pytest.approx(1.0, abs=1e-12)


def test_posterior_two_confident_opposite_reports_pin_heterozygous():
    post = posterior_parent_given_two_shares(0, 30.0, 2, 30.0)
    assert post[1] == pytest.approx(1.0, abs=1e-9)


def test_posteriors_bit_equal_per_shape_references():
    budgets = (0.0, 1e-9, 0.5, 1.0, 3.3, 31.9)
    for y in range(3):
        for eps in budgets:
            assert posterior_parent_given_share(y, eps) == reference_posterior_one_share(y, eps)
    for y1 in range(3):
        for y2 in range(3):
            for e1 in budgets:
                for e2 in budgets:
                    got = posterior_parent_given_two_shares(y1, e1, y2, e2)
                    assert got == reference_posterior_two_shares(y1, e1, y2, e2), (y1, e1, y2, e2)


def test_posterior_validation():
    with pytest.raises(ValueError):
        posterior_parent_given_share(3, 1.0)
    with pytest.raises(ValueError):
        posterior_parent_given_share(0, -0.1)
    with pytest.raises(ValueError):
        posterior_parent_given_two_shares(0, 1.0, 4, 1.0)


# ------------------------------------------------------------ closed forms


def test_indirect_budget_one_child_values():
    assert indirect_budget_one_child(1.0, 1) == 0.0
    assert indirect_budget_one_child(LN2, 0) == pytest.approx(math.log(5 / 3), abs=1e-12)
    assert indirect_budget_one_child(0.0, 0) == pytest.approx(0.0, abs=1e-15)
    # the two homozygous reports leak the same amount
    for eps in (0.3, 1.0, 2.5):
        assert indirect_budget_one_child(eps, 0) == indirect_budget_one_child(eps, 2)


def test_indirect_budget_matches_posterior_ratio():
    for eps in (0.1, 0.5, 1.0, 2.0, 3.0):
        z = posterior_parent_given_share(0, eps)
        assert indirect_budget_one_child(eps, 0) == pytest.approx(
            math.log(z[0] / z[2]), abs=1e-12
        )


def test_max_budget_one_child_values():
    assert max_budget_one_child(1.0) == pytest.approx(
        math.log((3 * math.e - 1) / 2), abs=1e-12
    )
    assert max_budget_one_child(1.0) == pytest.approx(1.274642636880155, abs=1e-12)
    assert max_budget_one_child(0.0) == pytest.approx(0.0, abs=1e-15)
    assert max_budget_one_child(math.inf) == math.inf
    # the child may always spend more than the parent's cap itself
    for eps in (0.2, 1.0, 2.0):
        assert max_budget_one_child(eps) > eps


def test_one_child_budget_round_trip():
    for eps_f in (0.05, 0.3, 1.0, 2.0, 4.0):
        spent = max_budget_one_child(eps_f)
        assert indirect_budget_one_child(spent, 0) == pytest.approx(eps_f, abs=1e-12)


def test_indirect_budget_two_children_matches_posterior_ratio():
    for eps in (0.1, 0.5, 1.0, 2.0):
        z = posterior_parent_given_two_shares(0, eps, 0, eps)
        assert indirect_budget_two_children(eps) == pytest.approx(
            math.log(z[0] / z[2]), abs=1e-12
        )
    # two shares leak strictly more than one child's own budget when eps > 0
    assert indirect_budget_two_children(0.0) == pytest.approx(0.0, abs=1e-12)
    for eps in (0.5, 1.0, 2.0):
        assert indirect_budget_two_children(eps) > eps


def test_max_budget_second_child_values():
    assert max_budget_second_child(0.5) == pytest.approx(0.2593631642522605, abs=1e-12)
    assert max_budget_second_child(math.inf) == math.inf
    # the second child's headroom is strictly below the first's spend
    for eps in (0.3, 0.5, 1.0, 2.0):
        assert 0.0 < max_budget_second_child(eps) < eps


def test_second_child_budget_composes_back_to_parent_budget():
    for eps in (0.25, 0.5, 1.0, 2.0):
        b2 = max_budget_second_child(eps)
        z = posterior_parent_given_two_shares(0, eps, 0, b2)
        assert math.log(z[0] / z[2]) == pytest.approx(eps, abs=1e-12)


def test_budget_validation():
    for fn in (max_budget_one_child, indirect_budget_two_children, max_budget_second_child):
        with pytest.raises(ValueError):
            fn(-0.5)
    with pytest.raises(ValueError):
        indirect_budget_one_child(1.0, 5)


# ---------------------------------------------------------- generic solver


def _one_child_family(parent_budget):
    return FamilyState(
        shape=FamilyShape.ONE_CHILD_TO_PARENT,
        budgets={"parent": parent_budget, "child": math.inf},
    )


def _two_children_family(parent_budget, shares=()):
    return FamilyState(
        shape=FamilyShape.TWO_CHILDREN_TO_PARENT,
        budgets={"parent": parent_budget, "child1": math.inf, "child2": math.inf},
        shares=shares,
    )


def test_solver_matches_one_child_closed_form():
    for eps_f in (0.05, 0.1, 0.5, 1.0, 2.0, 3.0):
        got = max_budget_general(_one_child_family(eps_f), 0, "child")
        assert got == pytest.approx(max_budget_one_child(eps_f), abs=1e-8)


def test_solver_matches_second_child_closed_form():
    for eps in (0.1, 0.5, 1.0, 2.0, 3.0):
        fam = _two_children_family(eps, shares=(ShareRecord("child1", 0, 0, eps),))
        got = max_budget_general(fam, 0, "child2")
        assert got == pytest.approx(max_budget_second_child(eps), abs=1e-8)


def test_solver_edges():
    assert max_budget_general(_one_child_family(math.inf), 0, "child") == math.inf
    assert max_budget_general(_one_child_family(0.0), 0, "child") == pytest.approx(
        0.0, abs=1e-6
    )
    # shares on other SNPs do not constrain this SNP
    fam = _two_children_family(0.8, shares=(ShareRecord("child1", 3, 0, 5.0),))
    first = max_budget_general(fam, 0, "child1")
    fresh = max_budget_general(_two_children_family(0.8), 0, "child1")
    assert first == pytest.approx(fresh, abs=1e-12)


def test_solver_unsupported_shapes():
    fam = _one_child_family(1.0)
    with pytest.raises(NotImplementedError, match="parent"):
        max_budget_general(fam, 0, "parent")
    with pytest.raises(ValueError, match="unknown member"):
        max_budget_general(fam, 0, "cousin")
    shared = FamilyState(fam.shape, fam.budgets, (ShareRecord("child", 0, 1, 0.4),))
    with pytest.raises(NotImplementedError, match="already shared"):
        max_budget_general(shared, 0, "child")
    both = _two_children_family(
        1.0,
        shares=(ShareRecord("child1", 0, 0, 0.4), ShareRecord("child2", 0, 0, 0.4)),
    )
    # nobody is left who may share SNP 0: both children repeat, parent untabled
    with pytest.raises(NotImplementedError):
        max_budget_general(both, 0, "child1")


def test_select_donor_budget():
    assert select_donor_budget([0.5, 0.3, 0.9], 1.0) == pytest.approx(0.3)
    assert select_donor_budget([0.5, 0.3], 0.1) == pytest.approx(0.1)
    assert select_donor_budget([math.inf], 2.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        select_donor_budget([], 1.0)
    with pytest.raises(ValueError):
        select_donor_budget([0.5], -1.0)


# ------------------------------------------------------------- family state


def test_family_state_validation():
    with pytest.raises(ValueError, match="budgets"):
        FamilyState(FamilyShape.ONE_CHILD_TO_PARENT, {"parent": 1.0})
    with pytest.raises(ValueError, match="budgets"):
        FamilyState(
            FamilyShape.ONE_CHILD_TO_PARENT,
            {"parent": 1.0, "child": 1.0, "child2": 1.0},
        )
    with pytest.raises(ValueError, match=">= 0"):
        FamilyState(FamilyShape.ONE_CHILD_TO_PARENT, {"parent": -1.0, "child": 1.0})
    with pytest.raises(ValueError, match="only children share"):
        FamilyState(
            FamilyShape.ONE_CHILD_TO_PARENT,
            {"parent": 1.0, "child": 1.0},
            shares=(ShareRecord("parent", 0, 0, 0.5),),
        )


def test_share_record_validation():
    with pytest.raises(ValueError):
        ShareRecord("child", 0, 3, 0.5)
    with pytest.raises(ValueError):
        ShareRecord("child", 0, 1, -0.5)
    with pytest.raises(ValueError):
        ShareRecord("child", -1, 1, 0.5)


def test_family_state_json_round_trip():
    fam = FamilyState(
        shape=FamilyShape.TWO_CHILDREN_TO_PARENT,
        budgets={"parent": 0.75, "child1": math.inf, "child2": 1.5},
        shares=(ShareRecord("child1", 2, 0, 0.4), ShareRecord("child2", 5, 1, 0.2)),
    )
    back = FamilyState.from_json(fam.to_json())
    assert back == fam
    assert back.budgets["child1"] == math.inf
    assert back.shares_for_snp(2) == (fam.shares[0],)
    assert back.shares_for_snp(9) == ()


def test_family_state_from_json_rejects_malformed_input():
    with pytest.raises(ValueError, match="malformed"):
        FamilyState.from_json('{"shape": "one_child_to_parent"}')
    with pytest.raises(ValueError):
        FamilyState.from_json('{"shape": "nonsense", "budgets": {}}')


def test_family_state_built_with_a_share_keeps_it():
    fam = _one_child_family(1.0)
    rec = ShareRecord("child", 0, 2, 0.3)
    assert FamilyState(fam.shape, fam.budgets, fam.shares + (rec,)).shares == (rec,)
    assert fam.shares == ()
