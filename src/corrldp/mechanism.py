"""Correlation-aware sequential perturbation of a genotype row.

SNPs are processed in a chosen order.  Before sharing SNP i at (1-based)
position a, each state v accumulates an inconsistency counter over the
already-shared prefix: a previously shared (k, y_k) increments the counter
when Pr(SNP_i = v | SNP_k = y_k) is defined and falls strictly below the
threshold tau_hat (each state tested independently), i.e. when the model's
increment table ``inc[k, y_k, i, v]`` is set (``CorrelationModel.increments``).
States whose counter reaches gamma_hat * a are eliminated, and the report for
SNP i is drawn from a distribution adjusted to the surviving states:

* nothing eliminated      -> plain randomized response (p on the truth, q
                             elsewhere);
* one state eliminated,
  truth survives          -> truth gets p' = p/(p+q), the other survivor q';
* one state eliminated,
  truth eliminated        -> plain mode splits 1/2-1/2 over the survivors;
                             beacon mode keeps the truth's zero/non-zero
                             class likely: truth 0 splits 1/2-1/2, truth 1
                             sends p' to state 2, truth 2 sends p' to state 1;
* two states eliminated   -> the lone survivor is reported outright;
* all three eliminated    -> fall back to plain randomized response on the
                             truth.

The adjusted distributions preserve the e^eps likelihood-ratio bound between
any two states that remain possible given the shared prefix.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .beacon import per_snp_expected_utility
from .data import STATES, CorrelationModel, GenotypeMatrix, _as_genotype_array, _planes, child_seeds
from .rr import PerturbParams, rr_params


class SharingMode(enum.Enum):
    PLAIN = "plain"
    BEACON = "beacon"


class Branch(enum.Enum):
    """Which case of the adjusted-distribution table produced a report."""

    RR = "rr"
    PAIR_TRUTH_KEPT = "pair_truth_kept"
    PAIR_TRUTH_DROPPED = "pair_truth_dropped"
    SOLE_SURVIVOR = "sole_survivor"
    ALL_ELIMINATED_FALLBACK = "all_eliminated_fallback"


@dataclass(frozen=True)
class MechanismConfig:
    """Budget and elimination thresholds for the sequential mechanism.

    gamma_hat is the per-position elimination fraction; values >= 1 can never
    fire (counters stay below the position index) and effectively disable
    elimination, which is occasionally useful for baselines.
    """

    epsilon: float
    tau_hat: float
    gamma_hat: float
    mode: SharingMode = SharingMode.BEACON

    def __post_init__(self):
        if not math.isfinite(self.epsilon) or self.epsilon < 0:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not 0.0 < self.tau_hat < 1.0:
            raise ValueError(f"tau_hat must be in (0, 1), got {self.tau_hat}")
        if not math.isfinite(self.gamma_hat) or self.gamma_hat <= 0:
            raise ValueError(f"gamma_hat must be finite and > 0, got {self.gamma_hat}")
        if not isinstance(self.mode, SharingMode):
            raise ValueError(f"mode must be a SharingMode, got {self.mode!r}")

    @cached_property
    def params(self) -> PerturbParams:
        return rr_params(self.epsilon)


def sharing_probs(
    x: int, eliminated: Iterable[int], params: PerturbParams, mode: SharingMode
) -> tuple[tuple, Branch]:
    """Adjusted report distribution for true value x given eliminated states.

    Arithmetic stays in the numeric type of ``params`` (floats or exact
    fractions), so the returned probabilities can be checked exactly.
    """
    if x not in STATES:
        raise ValueError(f"true value must be in {{0, 1, 2}}, got {x}")
    elim = frozenset(eliminated)
    if not elim <= set(STATES):
        raise ValueError(f"eliminated states must be a subset of {{0, 1, 2}}, got {elim}")
    if len(elim) in (0, 3):
        rr = tuple(params.p if v == x else params.q for v in STATES)
        return rr, Branch.RR if not elim else Branch.ALL_ELIMINATED_FALLBACK
    zero = params.p - params.p
    one = params.p / params.p if params.p != 0 else 1.0
    half = one / 2
    probs = [zero, zero, zero]

    if len(elim) == 2:
        (survivor,) = set(STATES) - elim
        probs[survivor] = one
        return tuple(probs), Branch.SOLE_SURVIVOR

    # exactly one state eliminated
    survivors = [v for v in STATES if v not in elim]
    if x not in elim:
        other = survivors[0] if survivors[1] == x else survivors[1]
        probs[x] = params.p_pair
        probs[other] = params.q_pair
        return tuple(probs), Branch.PAIR_TRUTH_KEPT
    # the truth itself was eliminated (elim == {x})
    if mode is SharingMode.PLAIN or x == 0:
        for v in survivors:
            probs[v] = half
    elif x == 1:
        probs[0] = params.q_pair
        probs[2] = params.p_pair
    else:  # x == 2
        probs[0] = params.q_pair
        probs[1] = params.p_pair
    return tuple(probs), Branch.PAIR_TRUTH_DROPPED


@functools.lru_cache(maxsize=None)
def branch_tables(config: MechanismConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The report distributions and their beacon utility, indexed by (true
    value, eliminated bits); bit v of the second index says state v is
    eliminated.

    Returns read-only (cum, probs, util), built once per config: ``probs`` and
    its cumulative sum ``cum`` are (3, 8, 3), and ``util`` (3, 8) is the chance
    that a report drawn from ``probs[x, bits]`` keeps x's beacon class.
    """
    probs = np.zeros((3, 8, 3))
    util = np.empty((3, 8))
    for x in STATES:
        for bits in range(8):
            elim = {v for v in STATES if bits >> v & 1}
            p, _ = sharing_probs(x, elim, config.params, config.mode)
            probs[x, bits] = [float(val) for val in p]
            util[x, bits] = per_snp_expected_utility(x, probs[x, bits])
    tables = np.cumsum(probs, axis=2), probs, util
    for table in tables:
        table.flags.writeable = False
    return tables


def _thresholds(gamma_hat: float, l: int) -> list[int]:
    """need[a]: the counter that eliminates a state at 1-based position a.

    An integer counter reaches gamma_hat * a iff it reaches the ceiling, and
    never exceeds l - 1, so every threshold stops at l.
    """
    return [math.ceil(min(gamma_hat * a, l)) for a in range(l + 1)]


def _elimination_bits(elim: np.ndarray) -> np.ndarray:
    """The branch-table index of boolean (..., 3) eliminations."""
    return elim[..., 0] * 1 + elim[..., 1] * 2 + elim[..., 2] * 4


@dataclass(frozen=True)
class PerturbedSequence:
    """One individual's shared row, the order it was shared in, and the states
    elimination had ruled out for each SNP when it was shared."""

    values: np.ndarray  # (l,) int8
    order: tuple[int, ...]
    eliminated: np.ndarray  # (l, 3) bool


@dataclass(frozen=True)
class PopulationShare:
    """Vectorized share of a whole population under one processing order."""

    values: np.ndarray  # (n, l) int8
    eliminated: np.ndarray  # (n, l, 3) bool
    order: tuple[int, ...]


# Picks the next SNP from (the (n, a - 1) orders so far, counters (n, l, 3),
# values (n, l)): one index for every row, or an (n,) array of one per row.
_NextSnp = Callable[[np.ndarray, np.ndarray, np.ndarray], "int | np.ndarray"]


def _validate_order(order, l: int, rows: int | None = None):
    """A permutation of 0..l-1, returned as a tuple; when ``rows`` is given,
    an (rows, l) array of per-row permutations is accepted and returned too."""
    orders = np.asarray(order)
    shape = (rows, l) if rows is not None and orders.ndim == 2 else (l,)
    if orders.dtype.kind not in "iu" or orders.shape != shape:
        raise ValueError(
            f"order must be a permutation of 0..{l - 1}, got {orders.dtype} {orders.shape}"
        )
    # the first place a row's sorted order leaves 0..l-1 names its first fault
    ranked = np.sort(orders.reshape(-1, l), axis=1)
    bad = np.argwhere(ranked != np.arange(l))
    if bad.size:
        j, p = bad[0]
        v = ranked[j, p]
        fault = (
            f"{v} is outside 0..{l - 1}" if not 0 <= v < l
            else f"{v} repeats" if v < p else f"{p} is missing"
        )
        where = f" in row {j}" if orders.ndim == 2 else ""
        raise ValueError(f"order must be a permutation of 0..{l - 1}{where}: index {fault}")
    return tuple(orders.tolist()) if orders.ndim == 1 else orders


# Steps per block when one order is shared by every row (see _sequential_share).
B = 32


def _count_operand(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A (k, 3, i, 3) slice of an increment table as float32 (base, change),
    which turn reports' state planes (``_planes``) into counters as
    ``planes @ change + base``: ``base`` (3i,) counts every SNP k reported 0,
    and row 2k + b - 1 of ``change`` (2k, 3i) is ``table[k, b] - table[k, 0]``.
    Every value is an integer below l < 2^24, so the product is exact."""
    k, _, i, _ = table.shape
    flags = table.view(np.int8)
    base = flags[:, 0].sum(axis=0, dtype=np.float32).reshape(3 * i)
    change = (flags[:, 1:] - flags[:, :1]).reshape(2 * k, 3 * i).astype(np.float32)
    return base, change


def _sequential_share(
    inc: np.ndarray,
    gamma_hat: float,
    order,
    *,
    reports: np.ndarray | None = None,
    truth: np.ndarray | None = None,
    uniforms: np.ndarray | None = None,
    cum: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mechanism's sequential rule over an (n, l) block of rows.

    ``order`` is a validated order, (l,) for every row or (n, l) one per row,
    or a chooser (``_NextSnp``).  At step a (1-based) SNP i is next, for all
    rows or per row, and state v of a row's SNP i is eliminated when its
    counter reaches gamma_hat * a, i.e. ``_thresholds(gamma_hat, l)[a]``.  The
    report is then the inverse-CDF draw of ``uniforms[:, a - 1]`` from
    ``cum[truth[:, i], bits]``, or, when ``reports`` is given, the reported
    value replayed.  Sharing SNP k as b adds ``inc[k, b]``, the model's
    increment table at tau_hat, to the row's (l, 3) counters: one to state v
    of SNP i where ``inc[k, b, i, v]`` is set.
    Returns (values, eliminated, orders), orders being (n, l).

    One order for every row is taken in blocks of B steps, counters in
    processing order.  Within a block only its own counters are bumped, by
    its rows of the table as stored at its own columns; after it, one float32
    product of its reports' state planes with the ``_count_operand`` of those
    rows at the later columns adds its shares to every SNP still to come.  A
    chooser or per-row orders need every counter at every step: the share is
    then one block, the table as stored, each step adding the row ``inc[i, y]``.
    """
    n, l = (truth if reports is None else reports).shape
    values = np.empty((n, l), dtype=np.int8) if reports is None else reports
    eliminated = np.empty((n, l, 3), dtype=bool)
    orders = np.empty((n, l), dtype=np.intp)
    rows = np.arange(n)
    need = _thresholds(gamma_hat, l)
    if callable(order):
        next_snp, shared = order, False
    else:
        steps = np.asarray(order).T
        next_snp, shared = (lambda taken, *_: steps[taken.shape[1]]), steps.ndim == 1
    size = B if shared else l
    # a shared block's own counters are int16 copies that take on the bases of
    # the blocks before it, which are the same for every row
    counters = np.zeros((n, l, 3), dtype=np.float32 if shared else np.int16)
    bases = np.zeros((l, 3), dtype=np.float32)
    for s in range(0, l, size):
        e = min(s + size, l)
        if shared:  # the block's rows of the table, then their own columns; take
            # copies in C order, where [:, :, idx] made the share twice as slow
            block = inc[steps[s:e]]
            sub = block.take(steps[s:e], axis=2)
            own = (counters[:, s:e] + bases[s:e]).astype(np.int16)
        else:
            sub, own = inc, counters
        for a in range(s + 1, e + 1):
            i = next_snp(orders[:, : a - 1], counters, values)
            # one SNP for every row indexes its column as a basic slice (cheaper
            # than a gather); per-row SNPs index cell [j, i[j]] of each row
            at = (rows, i) if np.ndim(i) else (slice(None), i)
            # the SNP's slot among the block's own counters
            here = (slice(None), a - 1 - s) if shared else at
            elim = own[here] >= need[a]
            if reports is None:
                c = cum[truth[at], _elimination_bits(elim)]
                y = (uniforms[:, a - 1, None] >= c[:, :2]).sum(axis=1).astype(np.int8)
                values[at] = y
            else:
                y = reports[at]
            eliminated[at] = elim
            own += sub[here[1], y]
            orders[:, a - 1] = i
        if e < l:
            base, change = _count_operand(block.take(steps[e:], axis=2))
            counters[:, e:] += (_planes(values[:, steps[s:e]]) @ change).reshape(n, l - e, 3)
            bases[e:] += base.reshape(l - e, 3)
    return values, eliminated, orders


def _as_row(row, corr: CorrelationModel) -> np.ndarray:
    row = _as_genotype_array(row, "row")
    if row.ndim != 1:
        raise ValueError(f"row must be 1-D, got shape {row.shape}")
    if corr.l != row.size:
        raise ValueError(f"correlation model covers {corr.l} SNPs, row has {row.size}")
    return row


def _share_rows(
    X: np.ndarray, order, corr: CorrelationModel, config: MechanismConfig, row_seeds
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Share validated rows in ``order``, an order or a chooser as
    ``_sequential_share`` takes it; row j draws one uniform per step from
    ``row_seeds[j]``'s own stream."""
    cum = branch_tables(config)[0]
    uniforms = np.empty(X.shape)
    for j, seed in enumerate(row_seeds):
        uniforms[j] = np.random.default_rng(seed).random(X.shape[1])
    return _sequential_share(
        corr.increments(config.tau_hat), config.gamma_hat, order,
        truth=X, uniforms=uniforms, cum=cum,
    )


def _first_row(shared: tuple[np.ndarray, np.ndarray, np.ndarray]) -> PerturbedSequence:
    values, eliminated, orders = shared
    return PerturbedSequence(
        values=values[0], order=tuple(orders[0].tolist()), eliminated=eliminated[0]
    )


def perturb_sequence(
    row,
    order: Sequence[int],
    corr: CorrelationModel,
    config: MechanismConfig,
    rng_seed,
) -> PerturbedSequence:
    """Share one genotype row through the sequential mechanism.

    One uniform draw is consumed per processing step, so a fixed seed pins
    the entire output.  Reported values land at their original positions.
    """
    row = _as_row(row, corr)
    order = _validate_order(order, row.size)
    return _first_row(_share_rows(row[None, :], order, corr, config, [rng_seed]))


def perturb_population(
    matrix: GenotypeMatrix,
    order: Sequence[int],
    corr: CorrelationModel,
    config: MechanismConfig,
    rng_seed,
) -> PopulationShare:
    """Share every row of a matrix under one order; row j draws its uniforms
    from the seed's j-th child (see child_seeds), making the output identical
    to calling perturb_sequence row by row with those sub-streams."""
    X = matrix.values
    n, l = X.shape
    if corr.l != l:
        raise ValueError(f"correlation model covers {corr.l} SNPs, matrix has {l}")
    order = _validate_order(order, l)
    values, eliminated, _ = _share_rows(
        X, order, corr, config, child_seeds(rng_seed, n)
    )
    return PopulationShare(values=values, eliminated=eliminated, order=order)
