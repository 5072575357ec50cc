"""Correctness checks for the benchmark, written apart from corrldp.

Every check recomputes what the program produced from its inputs with the
benchmark's own numpy code, or tests a property the method must have.  None
of them calls into corrldp: the elimination rule, the report distributions,
the attack's belief, the error score, the beacon rules and the exact
expectimax are written out again here from the method's definition.  A
failed check raises ``CheckError`` naming what disagreed.
"""

from __future__ import annotations

import math

import numpy as np


class CheckError(Exception):
    """An output of the program disagrees with its recomputation."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def rr_keep_flip(epsilon: float) -> tuple[float, float]:
    """Randomized-response keep/flip probabilities over three states."""
    ratio = math.exp(epsilon)
    return ratio / (ratio + 2.0), 1.0 / (ratio + 2.0)


def low_mask(cond: np.ndarray, tau: float) -> np.ndarray:
    """[i, k, v, b]: Pr(SNP_i = v | SNP_k = b) is defined and below tau; i != k."""
    with np.errstate(invalid="ignore"):
        low = ~np.isnan(cond) & (cond < tau)
    idx = np.arange(cond.shape[0])
    low[idx, idx] = False
    return low


def fit_conditionals(X) -> np.ndarray:
    """[i, k, a, b] = #{x_i = a, x_k = b} / #{x_k = b}, NaN where x_k = b never occurs."""
    X = np.asarray(X)
    n, l = X.shape
    onehot = _onehot(X).astype(np.float64)
    joint = (onehot.T @ onehot).reshape(l, 3, l, 3).transpose(0, 2, 1, 3)
    base = joint.sum(axis=2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(base > 0, joint / np.where(base > 0, base, 1.0), np.nan)


def _onehot(Y: np.ndarray) -> np.ndarray:
    n, l = Y.shape
    out = np.zeros((n, l, 3), dtype=np.float32)
    out[np.arange(n)[:, None], np.arange(l)[None, :], Y] = 1.0
    return out.reshape(n, 3 * l)


def _counts(Y: np.ndarray, low: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """counts[j, i, v] = #{k : pairs[i, k] and low[i, k, v, Y[j, k]]}.

    One float32 product of the one-hot reports with the masked table; the
    sums are small integers, so float32 holds them exactly.
    """
    n, l = Y.shape
    table = (low & pairs[:, :, None, None]).transpose(1, 3, 0, 2).reshape(3 * l, 3 * l)
    return (_onehot(Y) @ table.astype(np.float32)).reshape(n, l, 3)


def mechanism_eliminations(Y, order, cond, tau_hat: float, gamma_hat: float) -> np.ndarray:
    """States the mechanism eliminates, recomputed from the reported prefix.

    SNP i at 1-based position a(i) counts, for each state v, the SNPs k
    shared before it whose report makes v implausible; v is eliminated when
    that count reaches gamma_hat * a(i).
    """
    Y = np.asarray(Y)
    l = Y.shape[1]
    position = np.empty(l, dtype=np.int64)
    position[np.asarray(order)] = np.arange(1, l + 1)
    earlier = position[None, :] < position[:, None]  # [i, k]: k shared before i
    counts = _counts(Y, low_mask(cond, tau_hat), earlier)
    return counts >= (gamma_hat * position)[None, :, None]


def attack_eliminations(Y, cond, tau: float, gamma: float) -> np.ndarray:
    """States the correlation attack rules out: count over all k != i >= gamma * l."""
    Y = np.asarray(Y)
    l = Y.shape[1]
    counts = _counts(Y, low_mask(cond, tau), np.ones((l, l), dtype=bool))
    return counts >= gamma * l


def attack_belief(Y, eliminated: np.ndarray, epsilon: float) -> np.ndarray:
    """The attacker's belief: RR profile, eliminated states zeroed, renormalized;
    rows where every state is eliminated keep the profile."""
    Y = np.asarray(Y)
    p, q = rr_keep_flip(epsilon)
    profile = np.where(np.arange(3) == Y[:, :, None], p, q)
    fallback = eliminated.all(axis=2, keepdims=True)
    kept = profile * np.where(fallback, True, ~eliminated)
    return kept / kept.sum(axis=2, keepdims=True)


def rr_reports(X, epsilon: float, seed_sequence) -> np.ndarray:
    """Randomized response with one uniform per cell in row-major order."""
    X = np.asarray(X, dtype=np.int64)
    p, q = rr_keep_flip(epsilon)
    u = np.random.default_rng(seed_sequence).random(X.shape)
    return np.where(u < p, X, np.where(u < p + q, (X + 1) % 3, (X + 2) % 3))


def estimation_error(probs: np.ndarray, X) -> float:
    """Mean over rows of (1/l) sum_i sum_v Pr(x_i = v) |x_i - v|."""
    X = np.asarray(X, dtype=np.int64)
    dist = np.abs(X[:, :, None] - np.arange(3))
    return float((probs * dist).sum(axis=(1, 2)).mean() / X.shape[1])


def beacon_accuracy(X, answers_yes: np.ndarray) -> tuple[float, float, float]:
    """(overall, yes-class, no-class) share of per-SNP answers preserved."""
    truth = np.asarray(X).max(axis=0) > 0
    match = answers_yes == truth
    yes = float(match[truth].mean()) if truth.any() else math.nan
    no = float(match[~truth].mean()) if (~truth).any() else math.nan
    return float(match.mean()), yes, no


def rr_estimated_answers(Y, epsilon: float) -> np.ndarray:
    """Beacon answer Yes unless the reported zero count reaches n * p."""
    Y = np.asarray(Y)
    p, _ = rr_keep_flip(epsilon)
    return (Y == 0).sum(axis=0) < Y.shape[0] * p


def sharing_probs(x: int, bits: int, epsilon: float, beacon: bool) -> tuple[float, float, float]:
    """Report distribution for truth x when bit v of ``bits`` eliminates state v."""
    p, q = rr_keep_flip(epsilon)
    p_pair, q_pair = p / (p + q), q / (p + q)
    elim = [bool(bits >> v & 1) for v in range(3)]
    survivors = [v for v in range(3) if not elim[v]]
    probs = [0.0, 0.0, 0.0]
    if len(survivors) in (0, 3):
        for v in range(3):
            probs[v] = p if v == x else q
    elif len(survivors) == 1:
        probs[survivors[0]] = 1.0
    elif not elim[x]:
        (other,) = [v for v in survivors if v != x]
        probs[x], probs[other] = p_pair, q_pair
    elif not beacon or x == 0:
        for v in survivors:
            probs[v] = 0.5
    else:
        # beacon mode keeps a dropped non-zero truth in the non-zero class
        probs[0], probs[3 - x] = q_pair, p_pair
    return probs[0], probs[1], probs[2]


def keeps_class(x: int, y: int) -> bool:
    return (x > 0) == (y > 0)


def utility_table(epsilon: float, beacon: bool) -> np.ndarray:
    """[x, bits]: probability that the report keeps x's zero/non-zero class."""
    table = np.empty((3, 8))
    for x in range(3):
        for bits in range(8):
            probs = sharing_probs(x, bits, epsilon, beacon)
            table[x, bits] = sum(probs[y] for y in range(3) if keeps_class(x, y))
    return table


def expectimax(row, cond, tau_hat: float, gamma_hat: float, epsilon: float, beacon: bool) -> float:
    """Optimal expected number of class-keeping reports over adaptive orders.

    Memoized on the raw prefix of (snp, report) pairs, with no merging of
    prefixes, so it shares nothing with a solver that compresses states.
    """
    row = [int(v) for v in row]
    l = len(row)
    low = low_mask(cond, tau_hat)
    memo: dict[tuple, float] = {}

    def best(prefix: tuple) -> float:
        if len(prefix) == l:
            return 0.0
        hit = memo.get(prefix)
        if hit is not None:
            return hit
        shared = {k for k, _ in prefix}
        threshold = gamma_hat * (len(prefix) + 1)
        value = -1.0
        for i in range(l):
            if i in shared:
                continue
            bits = 0
            for v in range(3):
                if sum(bool(low[i, k, v, y]) for k, y in prefix) >= threshold:
                    bits |= 1 << v
            probs = sharing_probs(row[i], bits, epsilon, beacon)
            total = sum(
                probs[y] * (keeps_class(row[i], y) + best(prefix + ((i, y),)))
                for y in range(3)
                if probs[y] > 0
            )
            value = max(value, total)
        memo[prefix] = value
        return value

    return best(())


def check_fit_pairs(X, cond: np.ndarray, pairs) -> None:
    """On the sampled (i, k) pairs, cond[i, k, a, b] = #{x_i=a, x_k=b} / #{x_k=b}."""
    X = np.asarray(X, dtype=np.int64)
    for i, k in pairs:
        joint = np.bincount(3 * X[:, i] + X[:, k], minlength=9).reshape(3, 3).astype(np.float64)
        base = joint.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = np.where(base > 0, joint / np.where(base > 0, base, 1.0), np.nan)
        require(
            np.array_equal(cond[i, k], expected, equal_nan=True),
            f"fit: conditionals of pair ({i}, {k}) differ from the pair counts",
        )


def check_share(X, values, eliminated, order, cond, tau_hat: float, gamma_hat: float) -> None:
    """The mechanism's elimination bits match the recomputation from the
    reported prefix, and every report is a surviving state unless all three
    states were eliminated."""
    values = np.asarray(values)
    require(values.shape == np.asarray(X).shape, "share: reported matrix has the wrong shape")
    require(values.min() >= 0 and values.max() <= 2, "share: a report lies outside {0, 1, 2}")
    expected = mechanism_eliminations(values, order, cond, tau_hat, gamma_hat)
    wrong = np.argwhere(expected != eliminated)
    require(len(wrong) == 0, f"share: {len(wrong)} elimination bits differ, first at {wrong[:1].tolist()}")
    reported_eliminated = np.take_along_axis(eliminated, values[:, :, None].astype(np.intp), 2)[:, :, 0]
    bad = np.argwhere(reported_eliminated & ~eliminated.all(axis=2))
    require(len(bad) == 0, f"share: {len(bad)} reports are eliminated states, first at {bad[:1].tolist()}")


def check_belief(Y, probs, eliminated, fallback, cond, tau: float, gamma: float, epsilon: float) -> None:
    """Belief rows sum to 1, put no mass on eliminated states outside fallback
    rows, the attack's eliminations match the recomputed counts, and every
    row equals the RR profile renormalized over the surviving states."""
    require(np.all(np.abs(probs.sum(axis=2) - 1.0) <= 1e-12), "belief: a row does not sum to 1")
    require(np.all(probs >= 0), "belief: negative probability")
    require(np.array_equal(fallback, eliminated.all(axis=2)), "belief: fallback flags disagree")
    leaked = eliminated & ~fallback[:, :, None] & (probs != 0)
    require(not leaked.any(), f"belief: {int(leaked.sum())} eliminated states carry mass")
    expected = attack_eliminations(Y, cond, tau, gamma)
    require(np.array_equal(expected, eliminated), "belief: eliminations differ from the attack counts")
    wrong = np.argwhere(np.abs(probs - attack_belief(Y, expected, epsilon)).max(axis=2) > 1e-12)
    require(len(wrong) == 0, f"belief: {len(wrong)} rows differ from the method, first at {wrong[:1].tolist()}")


def rr_postprocess(Y, cond, tau: float, gamma: float, sweeps: int = 3) -> np.ndarray:
    """Randomized-response rows repaired by the documented consistency rule.

    Each sweep visits the SNPs in index order.  Where the attack-style count
    over the row's current reports rules out the reported state, the report
    becomes the surviving state with the highest mean defined conditional
    Pr(SNP_i = v | SNP_k = y_k) over k != i (-1 without support; the lowest
    state on ties); nothing changes where no state survives.  All rows are
    repaired at once, one SNP at a time.  A sweep that changes nothing leaves
    a row at a fixed point, so running every sweep gives the same result as
    stopping early.
    """
    Y = np.array(Y, dtype=np.int64)
    n, l = Y.shape
    low = low_mask(cond, tau)
    defined = ~np.isnan(cond)
    snps = np.arange(l)
    defined[snps, snps] = False
    filled = np.where(defined, cond, 0.0)
    rows = np.arange(n)
    for _ in range(sweeps):
        for i in range(l):
            ruled = low[i][snps[None, :], :, Y].sum(axis=1) >= gamma * l  # [row, state]
            repair = ruled[rows, Y[:, i]] & ~ruled.all(axis=1)
            if not repair.any():
                continue
            reports = Y[repair]
            # summed over k in index order, as a reduction over the leading axis adds
            sums = filled[i][snps[None, :], :, reports].sum(axis=1)
            support = defined[i][snps[None, :], :, reports].sum(axis=1)
            means = np.where(support > 0, sums / np.maximum(support, 1), -1.0)
            means[ruled[repair]] = -np.inf
            Y[repair, i] = np.argmax(means, axis=1)
    return Y


def close(a: float, b: float, tol: float = 1e-12) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol


def check_order_values(l: int, optimum: float, greedy: float, random: float) -> None:
    """The adaptive optimum is at least every static order's value and at most l."""
    tol = 1e-9
    require(0.0 <= random <= l + tol and 0.0 <= greedy <= l + tol, "order: value outside [0, l]")
    require(optimum <= l + tol, f"order: optimum {optimum} exceeds l = {l}")
    require(optimum >= greedy - tol, f"order: optimum {optimum} below greedy {greedy}")
    require(optimum >= random - tol, f"order: optimum {optimum} below random {random}")


def check_greedy_steps(row, order, values, cond, tau_hat, gamma_hat, epsilon, beacon) -> None:
    """Each pick of the greedy order has the highest immediate expected utility
    among the unshared SNPs, given the reports shared before it."""
    row = np.asarray(row, dtype=np.int64)
    l = row.size
    require(sorted(int(i) for i in order) == list(range(l)), "greedy: order is not a permutation")
    low = low_mask(cond, tau_hat)
    table = utility_table(epsilon, beacon)
    counters = np.zeros((l, 3), dtype=np.int64)
    remaining = np.ones(l, dtype=bool)
    for a, pick in enumerate(order, start=1):
        elim = counters >= gamma_hat * a
        bits = elim[:, 0] * 1 + elim[:, 1] * 2 + elim[:, 2] * 4
        utility = table[row, bits]
        best = utility[remaining].max()
        require(
            utility[pick] >= best - 1e-12,
            f"greedy: step {a} picked SNP {pick} at utility {utility[pick]}, best is {best}",
        )
        remaining[pick] = False
        counters += low[:, pick, :, int(values[pick])]
