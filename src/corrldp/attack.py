"""Correlation-based inference against a shared genotype row.

The attacker sees a reported row y, the pairwise correlation model, and the
privacy budget.  For every SNP i it counts, over all other reported SNPs
k != i, how often Pr(SNP_i = v | SNP_k = y_k) is defined and strictly below
tau; a state v whose count reaches gamma * l is ruled out.  The belief over
the true value starts from the randomized-response likelihood profile
(p on the reported value, q elsewhere), zeroes ruled-out states, and
renormalizes.  If every state is ruled out, the unmodified profile is kept —
total inconsistency carries no usable direction.

Also here: the estimation-error score that summarizes how close beliefs sit
to the truth, and a consistency post-processing pass for plain randomized
response reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import CorrelationModel, _as_genotype_array, _planes
from .mechanism import _count_operand, _sequential_share, _validate_order
from .rr import rr_params


@dataclass(frozen=True)
class AttackConfig:
    """Attacker knowledge: the budget, its own thresholds, and (optionally)
    the mechanism's elimination parameters for a replay-augmented attack."""

    epsilon_known: float
    tau: float
    gamma: float
    mechanism_params_known: tuple[float, float] | None = None

    def __post_init__(self):
        if not math.isfinite(self.epsilon_known) or self.epsilon_known < 0:
            raise ValueError(f"epsilon_known must be finite and >= 0, got {self.epsilon_known}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {self.tau}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.mechanism_params_known is not None:
            tau_hat, gamma_hat = self.mechanism_params_known
            if not 0.0 < tau_hat < 1.0:
                raise ValueError(f"known tau_hat must be in (0, 1), got {tau_hat}")
            if not math.isfinite(gamma_hat) or gamma_hat <= 0:
                raise ValueError(f"known gamma_hat must be finite and > 0, got {gamma_hat}")


@dataclass(frozen=True)
class AttackerBelief:
    """Per-SNP posterior over true values for one attacked row."""

    probs: np.ndarray  # (l, 3)
    eliminated: np.ndarray  # (l, 3) bool
    fallback: np.ndarray  # (l,) bool, True where every state was ruled out


def _rr_profile(Y: np.ndarray, epsilon: float) -> np.ndarray:
    """p on each reported value, q on the other states; shape Y.shape + (3,)."""
    params = rr_params(epsilon)
    return np.where(Y[..., None] == np.arange(3), params.p, params.q)


def _attack_counts(Y: np.ndarray, operand: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """counts[j, i, v] = #{k != i : Pr(SNP_i=v | SNP_k=Y[j,k]) defined, < tau},
    ``operand`` being ``_count_operand(corr.increments(tau))``."""
    base, change = operand
    counts = _planes(Y) @ change
    counts += base
    return np.rint(counts.reshape(Y.shape + (3,))).astype(np.int32)


def rr_belief_population(Y, epsilon: float) -> AttackerBelief:
    """Beliefs of an attacker who ignores correlations entirely.

    Pure randomized-response likelihood profiles (p on each reported value,
    q elsewhere), nothing eliminated; the no-attack baseline for estimation
    error comparisons.
    """
    Y = np.atleast_2d(_as_genotype_array(Y, "reported values"))
    n, l = Y.shape
    return AttackerBelief(
        probs=_rr_profile(Y, epsilon),
        eliminated=np.zeros((n, l, 3), dtype=bool),
        fallback=np.zeros((n, l), dtype=bool),
    )


def attack_population(
    Y, corr: CorrelationModel, config: AttackConfig, assumed_order=None
) -> AttackerBelief:
    """Attack every row of a reported matrix at once.

    When the config carries the mechanism's (tau_hat, gamma_hat), states the
    mechanism could not have reported under ``assumed_order`` (one order for
    every row or one per row, required then) are additionally ruled out
    before renormalizing.
    """
    Y = np.atleast_2d(_as_genotype_array(Y, "reported values"))
    l = Y.shape[1]
    if corr.l != l:
        raise ValueError(f"correlation model covers {corr.l} SNPs, data has {l}")
    counts = _attack_counts(Y, _count_operand(corr.increments(config.tau)))
    eliminated = counts >= config.gamma * l
    if config.mechanism_params_known is not None:
        tau_hat, gamma_hat = config.mechanism_params_known
        eliminated |= ~recover_possible_inputs(Y, corr, tau_hat, gamma_hat, assumed_order)
    profile = _rr_profile(Y, config.epsilon_known)
    fallback = eliminated.all(axis=2)
    kept = np.where(fallback[:, :, None], True, ~eliminated)
    probs = profile * kept
    probs /= probs.sum(axis=2, keepdims=True)
    return AttackerBelief(probs=probs, eliminated=eliminated, fallback=fallback)


def recover_possible_inputs(
    y, corr: CorrelationModel, tau_hat: float, gamma_hat: float, order
) -> np.ndarray:
    """Replay the mechanism's elimination rule on reported values.

    ``y`` is one reported row of length l, or an (n, l) matrix whose rows
    were shared in ``order``: one order (l,) for every row, or (n, l), one
    per row.  Returns a boolean array, (l, 3) or (n, l, 3), of states the
    mechanism could still have reported at each SNP.  With the true
    parameters and the true processing orders this reproduces the
    mechanism's own elimination outcomes exactly, because those depended
    only on the shared values.
    """
    Y = _as_genotype_array(y, "reported values")
    if Y.ndim not in (1, 2):
        raise ValueError(f"reported values must be a row or a matrix, got shape {Y.shape}")
    Y2 = np.atleast_2d(Y)
    l = Y2.shape[1]
    if order is None:
        raise ValueError("the replay needs the order the rows were shared in; got order=None")
    if corr.l != l:
        raise ValueError(f"correlation model covers {corr.l} SNPs, data has {l}")
    order = _validate_order(order, l, rows=Y2.shape[0])
    if not math.isfinite(gamma_hat) or gamma_hat <= 0:
        raise ValueError(f"gamma_hat must be finite and > 0, got {gamma_hat}")
    _, eliminated, _ = _sequential_share(
        corr.increments(tau_hat), gamma_hat, order, reports=Y2
    )
    return np.logical_not(eliminated, out=eliminated).reshape(Y.shape + (3,))


def estimation_error(belief_probs, truth) -> float:
    """Mean belief-weighted distance to the truth: (1/l) sum_k sum_v
    Pr(x_k = v) |x_k - v|, in [0, 2].  ``truth`` is one row (l,) scored
    against (l, 3) beliefs, or a matrix (n, l) against (n, l, 3), whose rows
    are scored alike and averaged."""
    probs = np.asarray(belief_probs, dtype=np.float64)
    X = _as_genotype_array(truth, "truth")
    if X.ndim not in (1, 2) or probs.shape != X.shape + (3,):
        raise ValueError(f"beliefs cover shape {probs.shape[:-1]}, truth is {X.shape}")
    dist = np.abs(X[..., None] - np.arange(3))
    return float((probs * dist).sum(axis=(-2, -1)).mean() / X.shape[-1])


def population_estimation_error(belief: AttackerBelief, truth_matrix) -> float:
    """Mean per-row estimation error over a population."""
    return estimation_error(belief.probs, np.atleast_2d(truth_matrix))


def rr_postprocess_population(
    Y, corr: CorrelationModel, tau: float, gamma: float, max_sweeps: int = 3
) -> np.ndarray:
    """Rewrite randomized-response rows so they pass the consistency check.

    Each sweep visits the SNPs in index order, for all rows at once; where a
    row's reported value is ruled out by the attack-style count over that
    row's other current reports, it is replaced by the surviving state with
    the highest average defined conditional given those reports (lowest
    state on ties; left alone if nothing survives).  Stops when a sweep
    changes no row or after ``max_sweeps`` sweeps: a row that a sweep leaves
    unchanged is at a fixed point, so further sweeps leave it alone too.
    Returns an int8 (n, l) matrix.
    """
    Y = np.atleast_2d(_as_genotype_array(Y, "reported values")).copy()
    n, l = Y.shape
    if corr.l != l:
        raise ValueError(f"correlation model covers {corr.l} SNPs, data has {l}")
    inc = corr.increments(tau)
    threshold = gamma * l
    # counted once: each rewrite below moves its row's counts with it
    counts = _attack_counts(Y, _count_operand(inc))  # (n, l, 3)
    flat_counts = counts.reshape(n, 3 * l)  # a view: column 3k + v
    # row 3k + b: Pr(SNP_i = . | SNP_k = b) with NaN as 0, then its defined flags
    table = np.empty((l, 3, 6))
    offsets = 3 * np.arange(l)[:, None]

    for _ in range(max_sweeps):
        changed = False
        for i in range(l):
            ruled_out = counts[:, i] >= threshold  # (n, 3)
            rows = np.flatnonzero(ruled_out[np.arange(n), Y[:, i]] & ~ruled_out.all(axis=1))
            if rows.size == 0:
                continue
            cond_i = corr.cond[i].transpose(0, 2, 1)  # [k, b, v]
            defined = ~np.isnan(cond_i)
            table[:, :, :3] = np.where(defined, cond_i, 0.0)
            table[:, :, 3:] = defined
            table[i] = 0.0  # the self-pair stays out of the averages
            picked = table.reshape(3 * l, 6).take(Y[rows].T + offsets, axis=0)  # (l, R, 6)
            # a sum over the outer axis adds k = 0, 1, ... in order; a matmul or
            # a sum along a contiguous k axis would reorder the float additions,
            # and that order decides ties between states
            totals = picked.sum(axis=0)
            sums, support = totals[:, :3], totals[:, 3:]
            means = np.where(support > 0, sums / np.maximum(support, 1), -1.0)
            means[ruled_out[rows]] = -np.inf
            best = means.argmax(axis=1)  # a survivor, so never the ruled-out report
            inc_i = inc[i].reshape(3, 3 * l).view(np.int8)
            flat_counts[rows] += inc_i[best] - inc_i[Y[rows, i]]
            Y[rows, i] = best
            changed = True
        if not changed:
            break
    return Y
