"""Choosing the order in which a row's SNPs are shared.

The order matters because elimination looks at the already-shared prefix:
an order that front-loads informative SNPs changes which states later SNPs
can drop, and with them the chance that each report stays in the truth's
zero/non-zero class (its beacon utility).

Order selection is a finite-horizon decision process: a state is the prefix
of (snp, value) reports, an action is the next SNP to share, and the reward
for a step is 1 when the sampled report preserves the SNP's beacon class.
The exact optimum comes from one backward pass of memoized recursion (the
horizon is finite, so no iterate-to-convergence loop is needed); the greedy
policy takes the best immediate expected utility and samples as it goes;
``random_order`` is the baseline.

The exact solver is exponential in the worst case, so it caps at
EXACT_METHOD_MAX_SNPS.  It collapses prefixes that no future elimination test
can tell apart: same remaining set, and same counters after saturating each at
the largest threshold any position can demand and zeroing each dead one (a
counter too low to reach any threshold before its SNP is shared).  That keeps
realistic instances small.  The memo key is a function of what was shared
alone: ``_ExactSolver.key`` builds it from the shared SNPs and the row's raw
counters, so a policy's action is looked up from the counters the sharing loop
keeps.  The thresholds and the report/utility table are the mechanism's
(``_thresholds``, ``branch_tables``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .data import STATES, CorrelationModel, as_seed_sequence, child_seeds
from .mechanism import (
    MechanismConfig,
    PerturbedSequence,
    _as_row,
    _elimination_bits,
    _first_row,
    _share_rows,
    _thresholds,
    _validate_order,
    branch_tables,
)

ProcessingOrder = tuple[int, ...]

EXACT_METHOD_MAX_SNPS = 12


def random_order(l: int, rng_seed) -> ProcessingOrder:
    """A uniformly random permutation of 0..l-1, pinned by the seed."""
    if l < 1:
        raise ValueError(f"need at least one SNP, got l={l}")
    rng = np.random.default_rng(as_seed_sequence(rng_seed))
    return tuple(int(i) for i in rng.permutation(l))


# Counters pack into one int: slot 3*i + v (state v of SNP i) is a field of
# _FIELD bits.  A field holds at most 15 (a counter never exceeds l - 1 <= 11),
# and adding 16 - k to it, for a threshold k <= l <= 12, sets its top bit
# exactly when it is >= k, so one addition, shift and mask compares every
# counter with the same threshold.
_FIELD = 5
_TOP = _FIELD - 1
_FIELD_MASK = (1 << _FIELD) - 1
_BITS_OF_CHUNK = {
    sum(1 << (_FIELD * v) for v in STATES if bits >> v & 1): bits for bits in range(8)
}
_CHUNK = (1 << (3 * _FIELD)) - 1
_CHUNK_LOWS = sum(1 << (_FIELD * v) for v in STATES)


class _ExactSolver:
    """Backward-induction solver over (remaining set, counters).

    Each memo key's counters are saturated at cap and have their dead fields
    zeroed (see ``alive_at``), so prefixes that no later elimination can tell
    apart share one entry.

    With a fixed ``order`` the only action at position a is ``order[a - 1]``,
    so ``value`` is that order's expected utility instead of the optimum.
    """

    def __init__(
        self,
        row: np.ndarray,
        corr: CorrelationModel,
        config: MechanismConfig,
        order: tuple[int, ...] | None = None,
    ):
        self.row = [int(x) for x in row]
        self.order = order
        self.l = l = len(self.row)
        if l > EXACT_METHOD_MAX_SNPS:
            if order is None:
                raise ValueError(
                    f"exact solve supports at most {EXACT_METHOD_MAX_SNPS} SNPs, got {l}; "
                    "switch the ordering strategy to random or greedy for this size"
                )
            raise ValueError(f"exact evaluation supports at most {EXACT_METHOD_MAX_SNPS} SNPs, got {l}")
        _, probs, util = branch_tables(config)
        # branches[x][bits]: (expected utility, ((y, P(y)) for each possible y))
        self.branches = [
            [
                (
                    float(util[x, bits]),
                    tuple((y, float(probs[x, bits, y])) for y in STATES if probs[x, bits, y] > 0),
                )
                for bits in range(8)
            ]
            for x in STATES
        ]
        self.ones = sum(1 << (_FIELD * s) for s in range(3 * l))
        need = _thresholds(config.gamma_hat, l)
        # a counter at cap already clears every threshold, so it stops there
        self.at_cap = ((1 << _TOP) - need[l]) * self.ones
        # ge_threshold[p]: added to the counters, tops the fields that reach need[p]
        self.ge_threshold = [((1 << _TOP) - t) * self.ones for t in need]
        # A share bumps a field by at most one, so a field below
        # floor[p] = min over q >= p of need[q] - (q - p), at the next share's
        # position p, stays below every threshold until its SNP is shared: it
        # is dead, and zeroing it changes no later elimination.  alive_at[p]:
        # added to the counters, tops the fields at or above floor[p]; 0 where
        # no nonzero field can be dead (floor[p] <= 1), and at p = l + 1,
        # where nothing is left.
        self.cap = need[l]
        self.floor = [0] * (l + 1) + [need[l] + 1]
        self.alive_at = [0] * (l + 2)
        for p in range(l, 0, -1):
            self.floor[p] = floor = min(self.floor[p + 1] - 1, need[p])
            if floor > 1:
                self.alive_at[p] = ((1 << _TOP) - floor) * self.ones
        self.keep = [~(_CHUNK << (3 * _FIELD * i)) for i in range(l)]
        # live[mask]: the low bit of every field of an unshared SNP
        self.live = [0] * (1 << l)
        for mask in range(1, 1 << l):
            low = mask & -mask
            shift = 3 * _FIELD * (low.bit_length() - 1)
            self.live[mask] = self.live[mask ^ low] | _CHUNK_LOWS << shift
        # delta[k][y]: sharing (k, y) bumps slot 3*i + v where inc[k, y, i, v]
        self.inc = inc = corr.increments(config.tau_hat)
        self.delta = [
            [sum(1 << (_FIELD * s) for s in np.flatnonzero(inc[k, y]).tolist()) for y in STATES]
            for k in range(l)
        ]
        self.memo: dict[tuple[int, int], tuple[float, int]] = {}
        # the key before any share: every SNP remains, every counter is 0
        self.root = (1 << l) - 1, 0

    def key(self, shared: Sequence[int], counters: np.ndarray) -> tuple[int, int]:
        """The memo key of a row that has shared the SNPs ``shared``, from its
        raw (l, 3) counters: the remaining set, and the unshared SNPs'
        counters saturated at cap, those below the next position's floor
        zeroed.  A dead field stays dead (floor rises by at least one per
        position), so this is the state that ``value`` steps to."""
        shared = [int(k) for k in shared]
        fields = np.minimum(counters, self.cap)
        fields[fields < self.floor[len(shared) + 1]] = 0
        fields[shared] = 0
        packed = sum(int(c) << (_FIELD * s) for s, c in enumerate(fields.ravel().tolist()))
        return (1 << self.l) - 1 - sum(1 << k for k in shared), packed

    def value(self, mask: int, counters: int) -> tuple[float, int]:
        """(best expected remaining utility, best next SNP; -1 when done)."""
        if mask == 0:
            return 0.0, -1
        key = (mask, counters)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        # the transition is inlined: this loop is the solver's hot path
        memo, ones, keep, live, delta = self.memo, self.ones, self.keep, self.live, self.delta
        row, branches, at_cap = self.row, self.branches, self.at_cap
        position = self.l - mask.bit_count() + 1
        reached = ((counters + self.ge_threshold[position]) >> _TOP) & ones
        alive = self.alive_at[position + 1]
        best_val, best_act = -1.0, -1
        rest = mask if self.order is None else 1 << self.order[position - 1]
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            shift = 3 * _FIELD * i
            val, report = branches[row[i]][_BITS_OF_CHUNK[(reached >> shift) & _CHUNK]]
            cm = mask ^ low
            if cm:  # an empty remaining set is worth 0
                # the shared SNP's own counters reset; every other live
                # counter below cap may be bumped, then dead fields zeroed
                cc = counters & keep[i]
                room = live[cm] & ~(((cc + at_cap) >> _TOP) & ones)
                for y, p in report:
                    cv = cc + (delta[i][y] & room)
                    if alive:
                        cv &= (((cv + alive) >> _TOP) & ones) * _FIELD_MASK
                    val += p * (memo.get((cm, cv)) or self.value(cm, cv))[0]
            if val > best_val:
                best_val, best_act = val, i
        memo[key] = (best_val, best_act)
        return best_val, best_act


class OrderPolicy:
    """Adaptive optimal policy: maps a realized prefix to the next SNP."""

    def __init__(self, solver: _ExactSolver):
        self._solver = solver
        self.expected_utility = solver.value(*solver.root)[0]

    def action(self, prefix: Sequence[tuple[int, int]] = ()) -> int:
        """The next SNP after the (snp, reported value) pairs of ``prefix``."""
        solver = self._solver
        ks, ys = [], []
        for n, (k, y) in enumerate(prefix):
            entry = f"prefix entry {n} ({k}, {y})"
            if not isinstance(k, (int, np.integer)) or not 0 <= k < solver.l:
                raise ValueError(f"{entry}: SNP {k} is outside 0..{solver.l - 1}")
            if not isinstance(y, (int, np.integer)) or y not in STATES:
                raise ValueError(f"{entry}: value {y} is not one of {STATES}")
            if k in ks:
                raise ValueError(f"{entry}: SNP {k} appears twice in the prefix")
            ks.append(k)
            ys.append(y)
        act = solver.value(*solver.key(ks, solver.inc[ks, ys].sum(axis=0)))[1]
        if act < 0:
            raise ValueError("every SNP has already been shared")
        return act


def optimal_order_value_iteration(
    row, corr: CorrelationModel, config: MechanismConfig
) -> tuple[OrderPolicy, float]:
    """Exact adaptive optimum of the expected per-row beacon utility.

    Returns the policy and its expected total utility.  Ties between SNPs
    resolve to the lowest index.  Capped at EXACT_METHOD_MAX_SNPS.
    """
    solver = _ExactSolver(_as_row(row, corr), corr, config)
    policy = OrderPolicy(solver)
    return policy, policy.expected_utility


def expected_utility_of_order(
    row, order: Sequence[int], corr: CorrelationModel, config: MechanismConfig
) -> float:
    """Expected total beacon utility of sharing ``row`` in a fixed order,
    over the full outcome tree (memoized, capped at EXACT_METHOD_MAX_SNPS)."""
    row = _as_row(row, corr)
    solver = _ExactSolver(row, corr, config, _validate_order(order, row.size))
    return solver.value(*solver.root)[0]


def _greedy_rows(
    X: np.ndarray, corr: CorrelationModel, config: MechanismConfig, row_seeds
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy-share every row of X at once.  At each step each row picks its
    unshared SNP with the highest immediate expected utility; ties go
    uniformly at random from the second child of ``row_seeds[j]``, drawn
    only when row j has a tie, and reports come from its first child.
    Returns the kernel's (values, eliminated, orders)."""
    streams = [child_seeds(seed, 2) for seed in row_seeds]
    tie_streams = [np.random.default_rng(tie) for _, tie in streams]
    util = branch_tables(config)[2]
    need = _thresholds(config.gamma_hat, X.shape[1])
    unshared = np.ones(X.shape, dtype=bool)
    rows = np.arange(X.shape[0])

    def next_snp(taken, counters, values) -> np.ndarray:
        elim = counters >= need[taken.shape[1] + 1]
        gain = np.where(unshared, util[X, _elimination_bits(elim)], -np.inf)
        ties = gain == gain.max(axis=1, keepdims=True)
        pick = ties.argmax(axis=1)
        for j in np.flatnonzero(ties.sum(axis=1) > 1):
            options = np.flatnonzero(ties[j])
            pick[j] = options[tie_streams[j].integers(options.size)]
        unshared[rows, pick] = False
        return pick

    return _share_rows(X, next_snp, corr, config, [share for share, _ in streams])


def greedy_share(
    row, corr: CorrelationModel, config: MechanismConfig, rng_seed
) -> tuple[ProcessingOrder, PerturbedSequence]:
    """Greedy order plus the sequence realized while choosing it.

    At each step the unshared SNP with the highest immediate expected utility
    is picked (ties uniformly at random from a dedicated sub-stream) and its
    report is sampled before the next pick.  Shares come from the seed's
    first child (spawn_key=(0,) for an int seed), so
    perturb_sequence(row, order, corr, config, SeedSequence(rng_seed,
    spawn_key=(0,))) replays the identical sequence.
    """
    row = _as_row(row, corr)
    seq = _first_row(_greedy_rows(row[None, :], corr, config, [rng_seed]))
    return seq.order, seq


def _policy_chooser(policy: OrderPolicy):
    """The next SNP is ``policy``'s action, looked up from the row's shared
    SNPs and the counters the sharing loop keeps."""
    solver = policy._solver

    def next_snp(taken, counters, values) -> np.ndarray:
        return np.array([solver.value(*solver.key(taken[0], counters[0]))[1]])

    return next_snp


def _optimal_rows(
    X: np.ndarray, corr: CorrelationModel, config: MechanismConfig, row_seeds
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve each row's exact policy and share the row under it, one row at a
    time, so only one policy's states are held; returns the kernel's
    (values, eliminated, orders)."""
    shares = []
    for row, seed in zip(X, row_seeds):
        policy, _ = optimal_order_value_iteration(row, corr, config)
        shares.append(_share_rows(row[None, :], _policy_chooser(policy), corr, config, [seed]))
        del policy  # free this row's states before the next row's solve
    return tuple(np.concatenate(parts) for parts in zip(*shares))
