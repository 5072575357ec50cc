"""Shared helpers for the test suite: handcrafted correlation models,
exact-arithmetic randomized-response parameters, scalar references for
the sequential mechanism that the vectorized code is checked against, and
value-by-value writers and readers for the file formats."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from corrldp.beacon import per_snp_expected_utility
from corrldp.data import STATES, CorrelationModel, as_seed_sequence
from corrldp.mechanism import Branch, MechanismConfig, sharing_probs
from corrldp.rr import PerturbParams

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


# ------------------------------------------- scalar mechanism references


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
