"""Generalized randomized response over the three genotype states.

Each value is reported truthfully with probability p = e^eps / (e^eps + 2)
and flipped to either other state with probability q = 1 / (e^eps + 2).
Frequency estimation inverts the expected confusion:  for observed count c_v
of state v among n reports, the estimate is (c_v - n q) / (p - q), clamped to
[0, n] with the raw value kept alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import GenotypeMatrix, NUM_STATES, as_seed_sequence


@dataclass(frozen=True)
class PerturbParams:
    """Randomized-response probabilities for one privacy budget.

    ``p``/``q`` are the keep/flip probabilities over the full 3-state domain;
    ``p_pair``/``q_pair`` are the same odds renormalized to a 2-state domain
    (p' = p/(p+q), q' = q/(p+q)), used once a state has been ruled out.
    Arithmetic is generic so exact types (fractions) can flow through.
    """

    p: object
    q: object
    p_pair: object
    q_pair: object

    def __post_init__(self):
        if not (self.p >= self.q > 0):
            raise ValueError(f"require p >= q > 0, got p={self.p}, q={self.q}")

    @classmethod
    def from_likelihood_ratio(cls, ratio) -> "PerturbParams":
        """Build params from e^eps directly; preserves exact numeric types."""
        if ratio < 1:
            raise ValueError(f"likelihood ratio e^eps must be >= 1, got {ratio}")
        one = ratio / ratio  # 1 in the caller's numeric type
        p = ratio / (ratio + 2 * one)
        q = one / (ratio + 2 * one)
        return cls(p=p, q=q, p_pair=ratio / (ratio + one), q_pair=one / (ratio + one))


def rr_params(epsilon: float) -> PerturbParams:
    """Float randomized-response parameters for privacy budget eps >= 0."""
    if not math.isfinite(epsilon) or epsilon < 0:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    return PerturbParams.from_likelihood_ratio(math.exp(epsilon))


def rr_perturb(matrix: GenotypeMatrix, epsilon: float, seed) -> GenotypeMatrix:
    """Perturb every cell independently by generalized randomized response."""
    params = rr_params(epsilon)
    X = matrix.values
    # one draw per cell in row-major order: the uniform cell (r, c) gets depends
    # only on the seed and its flat index, never on which cells are perturbed
    u = np.random.default_rng(as_seed_sequence(seed)).random(X.shape)
    first_other = (X + 1) % NUM_STATES
    second_other = (X + 2) % NUM_STATES
    out = np.where(u < params.p, X, np.where(u < params.p + params.q, first_other, second_other))
    return GenotypeMatrix(out.astype(np.int8))


@dataclass(frozen=True)
class FrequencyEstimate:
    """Per-state frequency estimates for one SNP column.

    ``estimates`` are clamped to [0, n]; ``raw`` keeps the unclamped
    inversions (they can be negative or exceed n at small samples).
    """

    estimates: np.ndarray
    raw: np.ndarray
    n: int


def rr_estimate_frequencies(column, epsilon: float) -> FrequencyEstimate:
    """Invert randomized response on one reported column of states.

    Raises ValueError at epsilon = 0 where p = q and the inversion is
    undefined.
    """
    params = rr_params(epsilon)
    if params.p == params.q:
        raise ValueError("epsilon = 0 gives p = q; frequencies are unidentifiable")
    col = np.asarray(column)
    if col.ndim != 1 or col.size == 0:
        raise ValueError(f"column must be non-empty 1-D, got shape {col.shape}")
    n = col.size
    counts = np.bincount(col, minlength=NUM_STATES).astype(np.float64)
    raw = (counts - n * params.q) / (params.p - params.q)
    estimates = np.clip(raw, 0.0, float(n))
    return FrequencyEstimate(estimates=estimates, raw=raw, n=n)
