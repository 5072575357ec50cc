"""Beacon-style membership queries and their accuracy under perturbation.

A beacon answers, per SNP, whether any individual in the population carries
at least one copy of the minor allele (any value > 0).  When answers are
computed from perturbed data there are two decision rules:

* DIRECT: answer straight from the reported values;
* RR_ESTIMATED: for plain randomized response, answer No exactly when the
  number of reported zeros reaches n * p, the expected zero count of an
  all-zero column.

Accuracy over a query set is the fraction of SNPs whose answer is preserved,
also split by the original answer.  The per-SNP expected utility of a report
distribution is the probability that the report stays in the truth's
zero/non-zero class.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .data import GenotypeMatrix
from .rr import rr_params


class DecisionRule(enum.Enum):
    DIRECT = "direct"
    RR_ESTIMATED = "rr-estimated"


@dataclass(frozen=True)
class AccuracyReport:
    """Per-class beacon accuracy of perturbed answers against originals.

    ``yes_accuracy``/``no_accuracy`` are NaN when the corresponding class is
    empty; the identity overall * l == yes_accuracy * yes_total +
    no_accuracy * no_total then holds with the empty class contributing 0.
    """

    overall: float
    yes_accuracy: float
    no_accuracy: float
    yes_total: int
    no_total: int
    preserved: int


def beacon_accuracy(
    original: GenotypeMatrix,
    perturbed: GenotypeMatrix,
    rule: DecisionRule = DecisionRule.DIRECT,
    epsilon: float | None = None,
) -> AccuracyReport:
    """Fraction of per-SNP answers preserved by the perturbed matrix."""
    if original.values.shape != perturbed.values.shape:
        raise ValueError(
            f"shape mismatch: original {original.values.shape}, "
            f"perturbed {perturbed.values.shape}"
        )
    if rule is DecisionRule.RR_ESTIMATED:
        if epsilon is None:
            raise ValueError("RR_ESTIMATED needs the randomized-response epsilon")
        answers = np.sum(perturbed.values == 0, axis=0) < perturbed.n * rr_params(epsilon).p
    else:
        answers = np.any(perturbed.values > 0, axis=0)
    truth = np.any(original.values > 0, axis=0)

    match = answers == truth
    yes_total = int(truth.sum())
    no_total = int((~truth).sum())
    preserved = int(match.sum())
    yes_acc = float(match[truth].mean()) if yes_total else math.nan
    no_acc = float(match[~truth].mean()) if no_total else math.nan
    return AccuracyReport(
        overall=preserved / truth.size,
        yes_accuracy=yes_acc,
        no_accuracy=no_acc,
        yes_total=yes_total,
        no_total=no_total,
        preserved=preserved,
    )


def per_snp_expected_utility(x: int, probs) -> float:
    """Probability that a report drawn from ``probs`` keeps x's beacon class."""
    p = [float(v) for v in probs]
    if x == 0:
        return p[0]
    return p[1] + p[2]
