"""Shared helpers for the test suite: handcrafted correlation models,
exact-arithmetic randomized-response parameters, the exact-order oracles
(expectimax over raw prefixes and brute force over static orders), the model
fit's formula on float64 counts, the elimination counts as a float64
one-hot product, the column-by-column synthetic
generator, scalar references for the sequential mechanism that the
vectorized code is checked against, the per-family-shape parent posteriors,
and value-by-value writers and readers for the file formats."""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from corrldp.beacon import per_snp_expected_utility
from corrldp.data import (
    STATES,
    CorrelationModel,
    SyntheticSpec,
    as_seed_sequence,
    hardy_weinberg_triple,
)
from corrldp.kinship import PARENT_GIVEN_CHILD, PARENT_GIVEN_TWO_CHILDREN
from corrldp.mechanism import Branch, MechanismConfig, _as_row, sharing_probs
from corrldp.ordering import expected_utility_of_order
from corrldp.rr import PerturbParams, rr_params

UNIFORM = (1.0 / 3, 1.0 / 3, 1.0 / 3)


def uniform_corr(l: int) -> CorrelationModel:
    """Every conditional and marginal is 1/3: no pair carries any signal."""
    cond = np.full((l, l, 3, 3), 1.0 / 3)
    marginals = np.full((l, 3), 1.0 / 3)
    return CorrelationModel(cond=cond, marginals=marginals)


def custom_corr(l: int, triples: dict[tuple[int, int, int], tuple[float, float, float]]) -> CorrelationModel:
    """Uniform model with selected conditional columns overridden.

    ``triples[(i, k, b)]`` replaces the probability triple
    (Pr(SNP_i = 0 | SNP_k = b), Pr(... = 1 | ...), Pr(... = 2 | ...)).
    Each triple must sum to 1.
    """
    cond = np.full((l, l, 3, 3), 1.0 / 3)
    for (i, k, b), triple in triples.items():
        if abs(sum(triple) - 1.0) > 1e-12:
            raise ValueError(f"override for {(i, k, b)} must sum to 1, got {triple}")
        cond[i, k, :, b] = triple
    marginals = np.full((l, 3), 1.0 / 3)
    return CorrelationModel(cond=cond, marginals=marginals)


def exact_params(ratio: Fraction) -> PerturbParams:
    """Randomized-response parameters with exact rational arithmetic, for a
    likelihood ratio standing in for e^epsilon."""
    return PerturbParams.from_likelihood_ratio(Fraction(ratio))


def reference_optimal_value(spec) -> float:
    """Independent expectimax over raw prefix states of an order-selection
    decision process, memoized on the exact prefix (no state compression)."""
    memo: dict = {}

    def best(state):
        actions = spec.actions(state)
        if not actions:
            return 0.0
        hit = memo.get(state)
        if hit is not None:
            return hit
        val = max(
            sum(p * (r + best(nxt)) for p, nxt, r in spec.transition(state, a))
            for a in actions
        )
        memo[state] = val
        return val

    return best(spec.initial_state())


BRUTE_FORCE_MAX_SNPS = 6


def brute_force_order(row, corr: CorrelationModel, config: MechanismConfig) -> tuple[tuple[int, ...], float]:
    """Best static order by exhaustive enumeration (lexicographically first
    among ties).  Capped at BRUTE_FORCE_MAX_SNPS."""
    row = _as_row(row, corr)
    l = row.size
    if l > BRUTE_FORCE_MAX_SNPS:
        raise ValueError(f"brute force supports at most {BRUTE_FORCE_MAX_SNPS} SNPs, got {l}")
    best_order, best_val = None, -1.0
    for perm in itertools.permutations(range(l)):
        val = expected_utility_of_order(row, perm, corr, config)
        if val > best_val:
            best_order, best_val = perm, val
    return best_order, best_val


# ---------------------------------------------------------- model fit reference


def reference_fit(values: np.ndarray, pseudo_count: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(cond, marginals) by the fit's formula on float64 counts, each cell
    divided where its denominator is positive and NaN elsewhere."""
    n, l = values.shape
    onehot = np.zeros((n, l, 3))
    onehot[np.arange(n)[:, None], np.arange(l)[None, :], values] = 1.0
    flat = onehot.reshape(n, l * 3)
    joint = (flat.T @ flat).reshape(l, 3, l, 3).transpose(0, 2, 1, 3)  # [i, k, a, b]
    num = joint + pseudo_count
    den = joint.sum(axis=2, keepdims=True) + 3.0 * pseudo_count
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(den > 0, num / np.where(den > 0, den, 1.0), np.nan)
    marginals = (onehot.sum(axis=0) + pseudo_count) / (n + 3.0 * pseudo_count)
    return cond, marginals


def reference_synthetic_population(spec: SyntheticSpec, seed) -> np.ndarray:
    """The int8 (n, l) matrix drawn column by column: ``rng.choice`` from
    column 0's triple, then for each later column a ``rng.choice`` from its
    triple and ``rng.random`` copy draws against ``rho[t]``."""
    rng = np.random.default_rng(as_seed_sequence(seed))
    mafs = spec.maf_per_column()
    rhos = spec.rho_per_column()
    out = np.empty((spec.n, spec.l), dtype=np.int8)
    out[:, 0] = rng.choice(3, size=spec.n, p=hardy_weinberg_triple(mafs[0]))
    for t in range(1, spec.l):
        fresh = rng.choice(3, size=spec.n, p=hardy_weinberg_triple(mafs[t]))
        copy = rng.random(spec.n) < rhos[t]
        out[:, t] = np.where(copy, out[:, t - 1], fresh)
    return out


# ------------------------------------------- scalar mechanism references


def reference_counts(Y: np.ndarray, inc: np.ndarray) -> np.ndarray:
    """counts[j, i, v] = sum over k of inc[k, Y[j, k], i, v]: the float64
    product of (n, 3k) one-hot reports with the (k, 3, i, 3) table as a
    (3k, 3i) matrix, for a table whose k axis runs over Y's columns."""
    n, k = Y.shape
    onehot = np.zeros((n, k, 3))
    onehot[np.arange(n)[:, None], np.arange(k)[None, :], Y] = 1.0
    i = inc.shape[2]
    return (onehot.reshape(n, 3 * k) @ inc.reshape(3 * k, 3 * i).astype(np.float64)).reshape(n, i, 3)


@dataclass(frozen=True)
class EliminationOutcome:
    """Counters and eliminated states for one SNP at its processing position."""

    snp: int
    position: int
    counters: tuple[int, int, int]
    eliminated: frozenset[int]


@dataclass(frozen=True)
class SharingDistribution:
    """Report distribution over states for one SNP, with its table branch."""

    probs: tuple[float, float, float]
    branch: Branch


def sharing_distribution(
    x: int, eliminated: Iterable[int], config: MechanismConfig
) -> SharingDistribution:
    probs, branch = sharing_probs(x, eliminated, config.params, config.mode)
    return SharingDistribution(probs=tuple(float(v) for v in probs), branch=branch)


def eliminate_states(
    snp: int,
    prefix: Sequence[tuple[int, int]],
    corr: CorrelationModel,
    config: MechanismConfig,
) -> EliminationOutcome:
    """Run the inconsistency test for one SNP against the shared prefix.

    ``prefix`` holds (snp_index, shared_value) pairs for everything already
    reported, in processing order; the SNP under test sits at position
    ``len(prefix) + 1``.  Undefined conditionals never count as evidence.
    """
    position = len(prefix) + 1
    mask = corr.low_mask(config.tau_hat)
    if prefix:
        ks = np.fromiter((k for k, _ in prefix), dtype=np.intp, count=len(prefix))
        ys = np.fromiter((y for _, y in prefix), dtype=np.intp, count=len(prefix))
        counters = mask[snp, ks, :, ys].sum(axis=0)
    else:
        counters = np.zeros(3, dtype=np.int64)
    threshold = config.gamma_hat * position
    eliminated = frozenset(v for v in STATES if counters[v] >= threshold)
    return EliminationOutcome(
        snp=snp,
        position=position,
        counters=tuple(int(c) for c in counters),
        eliminated=eliminated,
    )


def _sample_state(probs: Sequence[float], u: float) -> int:
    cum = np.cumsum(probs)
    return int(u >= cum[0]) + int(u >= cum[1])


def reference_share(row, order, corr, config, rng_seed) -> tuple[np.ndarray, np.ndarray]:
    """Share one row in a fixed order, recomputing every elimination test
    from the whole prefix; returns (values (l,), eliminated (l, 3))."""
    gen = np.random.default_rng(as_seed_sequence(rng_seed))
    l = len(row)
    values = np.empty(l, dtype=np.int8)
    eliminated = np.zeros((l, 3), dtype=bool)
    prefix: list[tuple[int, int]] = []
    for i in order:
        outcome = eliminate_states(i, prefix, corr, config)
        dist = sharing_distribution(int(row[i]), outcome.eliminated, config)
        y = _sample_state(dist.probs, gen.random())
        values[i] = y
        eliminated[i, list(outcome.eliminated)] = True
        prefix.append((i, y))
    return values, eliminated


def reference_greedy(row, corr, config, rng_seed) -> tuple[tuple[int, ...], np.ndarray]:
    """Greedy share by the definition: at each step score every unshared SNP
    by its immediate expected utility, pick the best (ties uniformly from the
    seed's second child), and sample its report from the first child.
    Returns (order, values)."""
    share_ss, tie_ss = as_seed_sequence(rng_seed).spawn(2)
    share_stream = np.random.default_rng(share_ss)
    tie_stream = np.random.default_rng(tie_ss)
    l = len(row)
    values = np.empty(l, dtype=np.int8)
    prefix: list[tuple[int, int]] = []
    remaining = list(range(l))
    for _ in range(l):
        dists = [
            sharing_distribution(int(row[i]), eliminate_states(i, prefix, corr, config).eliminated, config)
            for i in remaining
        ]
        utilities = [per_snp_expected_utility(int(row[i]), d.probs) for i, d in zip(remaining, dists)]
        best = max(utilities)
        ties = [k for k, u in enumerate(utilities) if u == best]
        pick = ties[0] if len(ties) == 1 else ties[int(tie_stream.integers(len(ties)))]
        i = remaining.pop(pick)
        y = _sample_state(dists[pick].probs, share_stream.random())
        values[i] = y
        prefix.append((i, y))
    return tuple(i for i, _ in prefix), values


@dataclass(frozen=True)
class MdpSpec:
    """Semantic view of the order-selection decision process.

    States are prefixes of (snp, value) pairs in processing order; actions
    are unshared SNP indices; transitions sample the sharing distribution
    induced by elimination against the prefix, with reward 1 when the report
    preserves the beacon class of the true value.
    """

    row: tuple[int, ...]
    corr: CorrelationModel
    config: MechanismConfig

    def initial_state(self) -> tuple:
        return ()

    def actions(self, state: tuple) -> tuple[int, ...]:
        taken = {k for k, _ in state}
        return tuple(i for i in range(len(self.row)) if i not in taken)

    def transition(self, state: tuple, action: int) -> list[tuple[float, tuple, int]]:
        """(probability, next state, reward) for each possible report."""
        outcome = eliminate_states(action, list(state), self.corr, self.config)
        dist = sharing_distribution(self.row[action], outcome.eliminated, self.config)
        x_class = self.row[action] > 0
        result = []
        for y in STATES:
            if dist.probs[y] > 0:
                reward = int((y > 0) == x_class)
                result.append((dist.probs[y], state + ((action, y),), reward))
        return result


# ------------------------------------------------- posterior references


def _rr_weights(y: int, epsilon: float) -> tuple[float, ...]:
    params = rr_params(epsilon)
    return tuple(params.p if c == y else params.q for c in STATES)


def reference_posterior_one_share(y: int, epsilon: float) -> tuple[float, ...]:
    """Parent posterior after one child's report, summed over the child's value."""
    w = _rr_weights(y, epsilon)
    z = [sum(float(PARENT_GIVEN_CHILD[c][v]) * w[c] for c in STATES) for v in STATES]
    total = sum(z)
    return tuple(val / total for val in z)


def reference_posterior_two_shares(y1: int, epsilon1: float, y2: int, epsilon2: float) -> tuple[float, ...]:
    """Parent posterior after both children's reports, summed over their values."""
    w1 = _rr_weights(y1, epsilon1)
    w2 = _rr_weights(y2, epsilon2)
    z = [
        sum(
            float(PARENT_GIVEN_TWO_CHILDREN[c1, c2][v]) * w1[c1] * w2[c2]
            for c1 in STATES
            for c2 in STATES
        )
        for v in STATES
    ]
    total = sum(z)
    return tuple(val / total for val in z)


# ------------------------------------------------ file format references


def reference_model_json(model: CorrelationModel, path) -> None:
    """The model file through ``json.dump`` of nested lists, None for NaN."""
    payload = {
        "l": model.l,
        "cond": np.where(np.isnan(model.cond), None, model.cond).tolist(),
        "marginals": model.marginals.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))


def reference_read_model(path) -> tuple[np.ndarray, np.ndarray]:
    """The model file's (cond, marginals) through plain ``json.load``, every
    number token converted on its own and null read as NaN."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    cond = np.array(payload["cond"], dtype=np.float64)
    return cond, np.asarray(payload["marginals"], dtype=np.float64)


def with_first_conditional(text: str, token: str) -> str:
    """A model file's text as ``to_json`` writes it, with its first
    conditional, ``cond[0][0][0][0]``, written as ``token``."""
    head, _, tail = text.partition('"cond":[[[[')
    return head + '"cond":[[[[' + token + tail[tail.index(","):]


def reference_save_genotypes(values: np.ndarray, path) -> None:
    """The genotype text format, one token at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{values.shape[0]} {values.shape[1]}\n")
        for row in values:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


def reference_belief_csv(path, probs, eliminated, fallback) -> None:
    """The attack's belief CSV, one ``csv.writer`` row per cell."""
    n, l = fallback.shape
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["row", "snp", "p0", "p1", "p2", "elim0", "elim1", "elim2", "fallback"])
        for j in range(n):
            for i in range(l):
                writer.writerow(
                    [j, i]
                    + [repr(float(probs[j, i, v])) for v in range(3)]
                    + [int(eliminated[j, i, v]) for v in range(3)]
                    + [int(fallback[j, i])]
                )


def reference_read_belief_csv(path, n: int, l: int) -> np.ndarray:
    """The (n, l, 3) probabilities of a belief CSV, one ``DictReader`` record per cell."""
    probs = np.full((n, l, 3), np.nan)
    with open(path, newline="") as fh:
        for record in csv.DictReader(fh):
            probs[int(record["row"]), int(record["snp"])] = [float(record[f"p{v}"]) for v in range(3)]
    return probs
