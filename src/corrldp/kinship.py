"""Privacy-budget accounting across family members.

A relative's genotype is statistically tied to the sharer's through Mendelian
inheritance, so a perturbed share leaks about the relative too.  This module
quantifies that leak as an *indirect budget* — the log of the worst posterior
ratio an attacker can reach over the relative's homozygous states — and
inverts it to answer the planning question: how large a budget may the next
family member spend so that every relative stays within their own budget?

Two family shapes have exact transition tables (rational arithmetic): a
parent's genotype given one child's, and given two children's.  The budgets
for those shapes also have closed forms, which the generic solver reproduces;
the solver additionally handles mixed prior shares and any candidate share
value by monotone bisection on the posterior ratio.

Posteriors mix the tables with plain randomized-response likelihoods
(p for a matching report, q otherwise), i.e. they assume all three states
remain possible for the sharer — elimination-adjusted reports are out of
scope for budget planning, which must be decided before sharing happens.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .data import STATES
from .rr import rr_params

#: Pr(parent = v | child = c), indexed [c][v].  Both parents of the child are
#: taken a-priori uniform over {0, 1, 2}; rows follow from allele transmission.
PARENT_GIVEN_CHILD: tuple[tuple[Fraction, ...], ...] = (
    (Fraction(2, 3), Fraction(1, 3), Fraction(0)),
    (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
    (Fraction(0), Fraction(1, 3), Fraction(2, 3)),
)

#: Pr(parent = v | children = (c1, c2)), indexed [(c1, c2)][v]; children are
#: conditionally independent given both parents.
PARENT_GIVEN_TWO_CHILDREN: Mapping[tuple[int, int], tuple[Fraction, ...]] = {
    (0, 0): (Fraction(4, 5), Fraction(1, 5), Fraction(0)),
    (0, 1): (Fraction(2, 5), Fraction(3, 5), Fraction(0)),
    (1, 0): (Fraction(2, 5), Fraction(3, 5), Fraction(0)),
    (0, 2): (Fraction(0), Fraction(1), Fraction(0)),
    (2, 0): (Fraction(0), Fraction(1), Fraction(0)),
    (1, 1): (Fraction(5, 13), Fraction(3, 13), Fraction(5, 13)),
    (1, 2): (Fraction(0), Fraction(3, 5), Fraction(2, 5)),
    (2, 1): (Fraction(0), Fraction(3, 5), Fraction(2, 5)),
    (2, 2): (Fraction(0), Fraction(1, 5), Fraction(4, 5)),
}


class FamilyShape(enum.Enum):
    ONE_CHILD_TO_PARENT = "one_child_to_parent"
    TWO_CHILDREN_TO_PARENT = "two_children_to_parent"


_CHILD_ROLES: dict[FamilyShape, tuple[str, ...]] = {
    FamilyShape.ONE_CHILD_TO_PARENT: ("child",),
    FamilyShape.TWO_CHILDREN_TO_PARENT: ("child1", "child2"),
}

_PARENT_ROLE = "parent"

BISECTION_HIGH = 32.0
BISECTION_TOL = 1e-9


@dataclass(frozen=True)
class ShareRecord:
    """One past share: who reported which value for which SNP, at what budget."""

    member: str
    snp: int
    value: int
    epsilon: float

    def __post_init__(self):
        if self.value not in STATES:
            raise ValueError(f"shared value must be in {{0, 1, 2}}, got {self.value}")
        if not self.epsilon >= 0:
            raise ValueError(f"share budget must be >= 0, got {self.epsilon}")
        if self.snp < 0:
            raise ValueError(f"snp index must be >= 0, got {self.snp}")


@dataclass(frozen=True)
class FamilyState:
    """Family shape, per-member budgets, and the shares made so far.

    Member names are fixed by the shape: ``parent``/``child`` for the
    one-child shape, ``parent``/``child1``/``child2`` for two children.
    Budgets may be ``math.inf`` for members who impose no constraint.
    """

    shape: FamilyShape
    budgets: Mapping[str, float]
    shares: tuple[ShareRecord, ...] = ()

    def __post_init__(self):
        if not isinstance(self.shape, FamilyShape):
            raise ValueError(f"shape must be a FamilyShape, got {self.shape!r}")
        expected = {_PARENT_ROLE, *_CHILD_ROLES[self.shape]}
        if set(self.budgets) != expected:
            raise ValueError(
                f"{self.shape.value} needs budgets for exactly {sorted(expected)}, "
                f"got {sorted(self.budgets)}"
            )
        for member, eps in self.budgets.items():
            if math.isnan(eps) or eps < 0:
                raise ValueError(f"budget for {member!r} must be >= 0, got {eps}")
        object.__setattr__(self, "shares", tuple(self.shares))
        for record in self.shares:
            if record.member not in _CHILD_ROLES[self.shape]:
                raise ValueError(
                    f"only children share in shape {self.shape.value}; "
                    f"got a share by {record.member!r}"
                )

    @property
    def members(self) -> tuple[str, ...]:
        return (_PARENT_ROLE, *_CHILD_ROLES[self.shape])

    def shares_for_snp(self, snp: int) -> tuple[ShareRecord, ...]:
        return tuple(r for r in self.shares if r.snp == snp)

    def to_json(self) -> str:
        def enc(x: float):
            return "inf" if math.isinf(x) else x

        payload = {
            "shape": self.shape.value,
            "budgets": {m: enc(b) for m, b in self.budgets.items()},
            "shares": [
                {"member": r.member, "snp": r.snp, "value": r.value, "epsilon": r.epsilon}
                for r in self.shares
            ],
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FamilyState":
        payload = json.loads(text)
        try:
            shape = FamilyShape(payload["shape"])
            budgets = {
                str(m): math.inf if b == "inf" else float(b)
                for m, b in payload["budgets"].items()
            }
            shares = tuple(
                ShareRecord(
                    member=str(r["member"]),
                    snp=int(r["snp"]),
                    value=int(r["value"]),
                    epsilon=float(r["epsilon"]),
                )
                for r in payload.get("shares", ())
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed family description: {exc}") from exc
        return cls(shape=shape, budgets=budgets, shares=shares)


def _rr_weights(y: int, epsilon: float) -> tuple[float, float, float]:
    """Attacker's weight over the sharer's true value given report y."""
    params = rr_params(epsilon)
    return tuple(params.p if c == y else params.q for c in STATES)


def posterior_parent_given_share(y: int, epsilon: float) -> tuple[float, float, float]:
    """Parent posterior after one child reports y under budget epsilon."""
    return _posterior_for_shares([(y, epsilon)])


def posterior_parent_given_two_shares(
    y1: int, epsilon1: float, y2: int, epsilon2: float
) -> tuple[float, float, float]:
    """Parent posterior after both children report, each at their own budget."""
    return _posterior_for_shares([(y1, epsilon1), (y2, epsilon2)])


def indirect_budget_one_child(epsilon_j: float, y: int) -> float:
    """Effective budget imposed on a parent by one child's report.

    A heterozygous report is uninformative about the parent (its posterior
    row is uniform), so it leaks nothing; homozygous reports leak
    ln((2 e^eps + 1) / 3).
    """
    if y not in STATES:
        raise ValueError(f"report must be in {{0, 1, 2}}, got {y}")
    if not epsilon_j >= 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon_j}")
    if y == 1:
        return 0.0
    return math.log((2.0 * math.exp(epsilon_j) + 1.0) / 3.0)


def max_budget_one_child(epsilon_f: float) -> float:
    """Largest child budget keeping the parent within epsilon_f.

    Inverse of indirect_budget_one_child on homozygous reports:
    ln((3 e^{eps_f} - 1) / 2).
    """
    if not epsilon_f >= 0:
        raise ValueError(f"epsilon_f must be >= 0, got {epsilon_f}")
    if math.isinf(epsilon_f):
        return math.inf
    return math.log((3.0 * math.exp(epsilon_f) - 1.0) / 2.0)


def indirect_budget_two_children(epsilon: float) -> float:
    """Parent budget consumed when both children report 0 at equal budgets.

    ln((52 e^{2 eps} + 52 e^eps + 25) / 129); meets the child budget from
    below only at eps = 0 and exceeds it afterwards — two correlated shares
    leak more about the parent than either child leaked about themselves.
    """
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    r = math.exp(epsilon)
    return math.log((52.0 * r * r + 52.0 * r + 25.0) / 129.0)


def max_budget_second_child(epsilon: float) -> float:
    """Budget for the second child after the first spent epsilon, keeping the
    parent's total indirect budget at epsilon: ln((103 e^eps - 25) / (52 e^eps + 26))."""
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if math.isinf(epsilon):
        return math.inf
    r = math.exp(epsilon)
    num = 103.0 * r - 25.0
    den = 52.0 * r + 26.0
    if num <= 0:
        raise ValueError(f"no positive budget exists for epsilon={epsilon}")
    return math.log(num / den)


def _homozygous_ratio(z: Sequence[float]) -> float:
    """Worst posterior ratio over the parent's homozygous states.

    The heterozygous state is excluded: its posterior mass is elevated by the
    inheritance tables themselves (before any share carries information), so
    comparing it against the homozygous states would charge the attacker's
    prior to the sharer's budget.  The homozygous pair starts at ratio 1 and
    moves only with shared evidence, which is exactly what a budget bounds —
    and what the closed forms above measure.
    """
    lo, hi = min(z[0], z[2]), max(z[0], z[2])
    if lo <= 0.0:
        return math.inf
    return hi / lo


# Pr(parent = v | the sharing children's values), keyed by the tuple of
# those values: one child's or two children's.
_PARENT_GIVEN_VALUES: Mapping[tuple[int, ...], tuple[Fraction, ...]] = {
    **{(c,): row for c, row in enumerate(PARENT_GIVEN_CHILD)},
    **PARENT_GIVEN_TWO_CHILDREN,
}


def _posterior_for_shares(shares: Sequence[tuple[int, float]]) -> tuple[float, ...]:
    """Parent posterior after one or two children's (report, budget) pairs."""
    for y, _ in shares:
        if y not in STATES:
            raise ValueError(f"report must be in {{0, 1, 2}}, got {y}")
    for _, eps in shares:
        if not eps >= 0:
            raise ValueError(f"epsilon must be >= 0, got {eps}")
    weights = [_rr_weights(y, eps) for y, eps in shares]
    # sum in the children's lexicographic order, multiply each term left to
    # right: the posteriors' bits, and every budget bisected from them, follow
    z = [0.0, 0.0, 0.0]
    for children in itertools.product(STATES, repeat=len(shares)):
        row = _PARENT_GIVEN_VALUES[children]
        for v in STATES:
            z[v] += math.prod([w[c] for w, c in zip(weights, children)], start=float(row[v]))
    total = sum(z)
    return tuple(val / total for val in z)


def _bisect_budget(ratio_at, target: float) -> float:
    """Largest eps in [0, BISECTION_HIGH] with ratio_at(eps) <= target.

    ratio_at must be nondecreasing.  Returns 0.0 when even eps = 0 violates
    the target and +inf when the constraint never binds on the interval.
    """
    lo, hi = 0.0, BISECTION_HIGH
    if ratio_at(lo) > target:
        return 0.0
    if ratio_at(hi) <= target:
        return math.inf
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if ratio_at(mid) <= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def max_budget_general(family: FamilyState, snp_index: int, next_sharer: str) -> float:
    """Largest budget the next sharer may spend on one SNP without pushing
    any relative past their own budget.

    For every candidate report value the sharer might emit, the parent's
    posterior (prior recorded shares plus the candidate at the budget under
    test) is solved for the largest budget whose homozygous posterior ratio
    stays within e^{parent budget}; the candidate answers are combined by
    minimum, since the mechanism may emit any value and the budget must be
    safe for all of them.  Candidates whose ratio never reaches the cap
    contribute +inf (no constraint); if every candidate is unconstrained the
    result is +inf.  A parent budget of math.inf short-circuits to +inf.
    """
    children = _CHILD_ROLES[family.shape]
    if next_sharer not in family.members:
        raise ValueError(f"unknown member {next_sharer!r}; family has {family.members}")
    if next_sharer == _PARENT_ROLE:
        raise NotImplementedError(
            "no tabled transition law constrains a parent's own share"
        )
    prior = family.shares_for_snp(snp_index)
    if any(r.member == next_sharer for r in prior):
        raise NotImplementedError(
            f"{next_sharer!r} already shared SNP {snp_index}; repeated shares by "
            "the same member have no tabled transition law"
        )
    if len(prior) + 1 > len(children):
        raise NotImplementedError(
            f"shape {family.shape.value} supports at most {len(children)} sharing children"
        )
    parent_budget = family.budgets[_PARENT_ROLE]
    if math.isinf(parent_budget):
        return math.inf
    target = math.exp(parent_budget)
    fixed = [(r.value, r.epsilon) for r in prior]

    best = math.inf
    for a in STATES:
        def ratio_at(eps: float, a: int = a) -> float:
            return _homozygous_ratio(_posterior_for_shares(fixed + [(a, eps)]))

        best = min(best, _bisect_budget(ratio_at, target))
    return best


def select_donor_budget(per_snp_maxima: Sequence[float], own_budget: float) -> float:
    """Budget a donor actually uses: their own, capped by every SNP's maximum."""
    maxima = list(per_snp_maxima)
    if not maxima:
        raise ValueError("need at least one per-SNP maximum")
    if not own_budget >= 0:
        raise ValueError(f"own budget must be >= 0, got {own_budget}")
    return min(min(maxima), own_budget)
