"""Genotype data: matrices, file I/O, synthetic populations, correlation models.

A genotype matrix holds minor-allele counts (0, 1 or 2) for n individuals at
l SNP positions.  Synthetic populations draw each column from a Hardy-Weinberg
triple and chain adjacent columns together so that nearby SNPs are correlated,
mimicking linkage structure.  A correlation model stores the pairwise
conditional probabilities Pr(SNP_i = a | SNP_k = b) estimated from a matrix,
which both the sharing mechanism and the inference attack consume.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

STATES = (0, 1, 2)
NUM_STATES = 3
_DIGITS = frozenset("012")


class GenotypeError(ValueError):
    """Malformed genotype data (bad values, shapes, or file contents)."""


class GenotypeParseError(GenotypeError):
    """A genotype file failed to parse; message pinpoints row/column."""


def _as_genotype_array(values, name: str = "values") -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        if arr.dtype.kind == "f" and np.all(arr == np.floor(arr)):
            arr = arr.astype(np.int64)
        else:
            raise GenotypeError(f"{name} must be integers in {{0, 1, 2}}")
    if arr.size and (arr.min() < 0 or arr.max() > 2):
        bad = arr[(arr < 0) | (arr > 2)].flat[0]
        raise GenotypeError(f"{name} contains {bad}; allowed values are 0, 1, 2")
    return arr.astype(np.int8)


@dataclass(frozen=True)
class GenotypeMatrix:
    """n x l matrix of minor-allele counts, one row per individual."""

    values: np.ndarray

    def __post_init__(self):
        arr = _as_genotype_array(self.values, "genotype matrix")
        if arr.ndim != 2:
            raise GenotypeError(f"genotype matrix must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise GenotypeError(f"genotype matrix must be non-empty, got shape {arr.shape}")
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def l(self) -> int:
        return self.values.shape[1]

    def row(self, j: int) -> np.ndarray:
        return self.values[j]

    def column(self, i: int) -> np.ndarray:
        return self.values[:, i]

    def __eq__(self, other) -> bool:
        return isinstance(other, GenotypeMatrix) and np.array_equal(self.values, other.values)


def load_genotype_matrix(path) -> GenotypeMatrix:
    """Read a genotype matrix from a text file.

    Format: a header line ``n l``, then n lines of l whitespace-separated
    values from {0, 1, 2}.  Lines starting with ``#`` are comments.
    """
    rows = []
    header = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                parts = line.split()
                if len(parts) != 2:
                    raise GenotypeParseError(
                        f"{path}: line {lineno}: header must be 'n l', got {line!r}"
                    )
                try:
                    header = (int(parts[0]), int(parts[1]))
                except ValueError:
                    raise GenotypeParseError(
                        f"{path}: line {lineno}: header must hold two integers, got {line!r}"
                    ) from None
                if header[0] < 1 or header[1] < 1:
                    raise GenotypeParseError(
                        f"{path}: line {lineno}: header dimensions must be positive, got {line!r}"
                    )
                continue
            fields = line.split()
            if len(fields) != header[1]:
                raise GenotypeParseError(
                    f"{path}: line {lineno}: expected {header[1]} values, got {len(fields)}"
                )
            if not _DIGITS.issuperset(fields):
                col, tok = next((c, t) for c, t in enumerate(fields) if t not in _DIGITS)
                raise GenotypeParseError(
                    f"{path}: line {lineno}, column {col + 1}: "
                    f"invalid genotype {tok!r} (must be 0, 1 or 2)"
                )
            rows.append("".join(fields))
    if header is None:
        raise GenotypeParseError(f"{path}: empty file (missing 'n l' header)")
    if len(rows) != header[0]:
        raise GenotypeParseError(
            f"{path}: header declares {header[0]} rows but file holds {len(rows)}"
        )
    digits = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8)
    return GenotypeMatrix((digits - ord("0")).astype(np.int8).reshape(header))


def save_genotype_matrix(matrix: GenotypeMatrix, path) -> None:
    """Write a genotype matrix in the text format read by load_genotype_matrix."""
    # Each row is its digits with a space after each, the last space a newline.
    text = np.full((matrix.n, matrix.l, 2), ord(" "), dtype=np.uint8)
    text[:, :, 0] = matrix.values + ord("0")
    text[:, -1, 1] = ord("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{matrix.n} {matrix.l}\n")
        fh.write(text.tobytes().decode("ascii"))


def hardy_weinberg_triple(maf: float) -> np.ndarray:
    """Genotype distribution ((1-f)^2, 2f(1-f), f^2) for minor-allele frequency f."""
    if not 0.0 < maf <= 0.5:
        raise GenotypeError(f"minor-allele frequency must be in (0, 0.5], got {maf}")
    return np.array([(1.0 - maf) ** 2, 2.0 * maf * (1.0 - maf), maf**2])


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for a chained Hardy-Weinberg synthetic population.

    Column 0 is drawn from its Hardy-Weinberg triple; every later column
    copies the previous column's value with probability ``rho`` and otherwise
    redraws from its own triple.  ``maf`` is a single frequency applied to all
    columns or one frequency per column.  ``rho`` may likewise be a single
    copy probability or one per column, where ``rho[t]`` is the probability
    that column ``t`` copies column ``t - 1`` (``rho[0]`` is ignored); a zero
    at a block boundary makes the blocks statistically independent.
    """

    n: int
    l: int
    maf: float | Sequence[float] = 0.2
    rho: float | Sequence[float] = 0.0

    def __post_init__(self):
        if self.n < 1 or self.l < 1:
            raise GenotypeError(f"population shape must be positive, got n={self.n}, l={self.l}")
        rhos = self.rho_per_column()
        if len(rhos) != self.l:
            raise GenotypeError(f"expected {self.l} per-column copy probabilities, got {len(rhos)}")
        for r in rhos:
            if not 0.0 <= r <= 1.0:
                raise GenotypeError(f"rho must be in [0, 1], got {r}")
        mafs = self.maf_per_column()
        if len(mafs) != self.l:
            raise GenotypeError(f"expected {self.l} per-column frequencies, got {len(mafs)}")
        for f in mafs:
            hardy_weinberg_triple(f)  # validates range

    def maf_per_column(self) -> tuple[float, ...]:
        if isinstance(self.maf, (int, float)):
            return (float(self.maf),) * self.l
        return tuple(float(f) for f in self.maf)

    def rho_per_column(self) -> tuple[float, ...]:
        if isinstance(self.rho, (int, float)):
            return (float(self.rho),) * self.l
        return tuple(float(r) for r in self.rho)


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """Accept an int seed or a SeedSequence; return a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def child_seeds(seed, n: int) -> list[np.random.SeedSequence]:
    """The n children a fresh ``seed.spawn(n)`` gives (spawn keys extended by
    0..n-1), derived without advancing the parent, so reusing a SeedSequence
    gives the same children every time."""
    ss = as_seed_sequence(seed)
    return [
        np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (j,), pool_size=ss.pool_size)
        for j in range(n)
    ]


def generate_synthetic_population(spec: SyntheticSpec, seed) -> GenotypeMatrix:
    """Draw a synthetic genotype matrix; identical seeds give identical matrices."""
    rng = np.random.default_rng(as_seed_sequence(seed))
    mafs = spec.maf_per_column()
    rhos = spec.rho_per_column()
    out = np.empty((spec.n, spec.l), dtype=np.int8)
    triple = hardy_weinberg_triple(mafs[0])
    out[:, 0] = rng.choice(3, size=spec.n, p=triple)
    for t in range(1, spec.l):
        fresh = rng.choice(3, size=spec.n, p=hardy_weinberg_triple(mafs[t]))
        copy = rng.random(spec.n) < rhos[t]
        out[:, t] = np.where(copy, out[:, t - 1], fresh)
    return GenotypeMatrix(out)


@dataclass
class CorrelationModel:
    """Pairwise conditionals Pr(SNP_i = a | SNP_k = b) plus per-SNP marginals.

    ``cond[i, k, a, b]`` holds the conditional probability, or NaN where the
    conditioning event had no support (undefined).  ``marginals[i, a]`` holds
    Pr(SNP_i = a).  Undefined entries never count as evidence anywhere.
    """

    cond: np.ndarray
    marginals: np.ndarray
    _low_mask_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        cond = np.asarray(self.cond, dtype=np.float64)
        marg = np.asarray(self.marginals, dtype=np.float64)
        if cond.ndim != 4 or cond.shape[2:] != (3, 3) or cond.shape[0] != cond.shape[1]:
            raise GenotypeError(f"conditional table must be (l, l, 3, 3), got {cond.shape}")
        if marg.shape != (cond.shape[0], 3):
            raise GenotypeError(
                f"marginals must be ({cond.shape[0]}, 3), got {marg.shape}"
            )
        defined = ~np.isnan(cond)
        if np.any((cond[defined] < -1e-12) | (cond[defined] > 1.0 + 1e-12)):
            raise GenotypeError("conditional probabilities must lie in [0, 1]")
        # Defined conditionals for a fixed (i, k, b) must sum to 1.
        colsums = np.nansum(cond, axis=2)
        anydef = defined.any(axis=2)
        if np.any(np.abs(colsums[anydef] - 1.0) > 1e-9):
            raise GenotypeError("defined conditionals Pr(. | SNP_k = b) must sum to 1")
        self.cond = cond
        self.marginals = marg

    @property
    def l(self) -> int:
        return self.cond.shape[0]

    def value(self, i: int, k: int, a: int, b: int) -> float | None:
        """Pr(SNP_i = a | SNP_k = b), or None when undefined."""
        v = self.cond[i, k, a, b]
        return None if np.isnan(v) else float(v)

    def low_mask(self, tau: float) -> np.ndarray:
        """Boolean (l, l, 3, 3): defined and strictly below tau; diagonal cleared.

        ``low_mask(tau)[i, k, a, b]`` says "seeing SNP_k = b makes SNP_i = a
        implausible at threshold tau".  Self-pairs never count.
        """
        key = float(tau)
        cached = self._low_mask_cache.get(key)
        if cached is not None:
            return cached
        with np.errstate(invalid="ignore"):
            mask = ~np.isnan(self.cond) & (self.cond < tau)
        idx = np.arange(self.l)
        mask[idx, idx] = False
        self._low_mask_cache[key] = mask
        return mask

    def to_json(self, path) -> None:
        """Write ``{"l": l, "cond": [...], "marginals": [...]}`` with no spaces,
        each float as its ``repr`` and ``null`` for an undefined conditional."""
        cond = "[]" if self.cond.size == 0 else _json_nested_list(repr_each(self.cond, nan="null"))
        marginals = json.dumps(self.marginals.tolist(), separators=(",", ":"))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f'{{"l":{self.l},"cond":')
            fh.write(cond)
            fh.write(f',"marginals":{marginals}}}')

    @classmethod
    def from_json(cls, path) -> "CorrelationModel":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            l = payload["l"]
            cond = np.array(payload["cond"], dtype=np.float64)  # null -> nan
            marginals = np.asarray(payload["marginals"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise GenotypeParseError(f"{path}: malformed correlation model: {exc}") from None
        if cond.shape[:2] != (l, l):
            raise GenotypeParseError(
                f"{path}: header l={l} disagrees with table shape {cond.shape}"
            )
        try:
            return cls(cond=cond, marginals=marginals)
        except GenotypeError as exc:
            raise GenotypeParseError(f"{path}: malformed correlation model: {exc}") from None


def repr_each(values: np.ndarray, nan: str = "nan") -> np.ndarray:
    """Object array of ``repr(float(v))`` for every v in ``values``, with ``nan``
    for NaN.  Each distinct bit pattern is formatted once, which is what makes
    the model and belief writers fast: their values repeat a lot."""
    values = np.asarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.uint64).ravel(), return_inverse=True)
    texts = np.array(
        [nan if math.isnan(v) else repr(v) for v in bits.view(np.float64).tolist()], dtype=object
    )
    return texts[inverse].reshape(values.shape)


def _json_nested_list(texts: np.ndarray) -> str:
    """What ``json.dumps(texts.tolist(), separators=(",", ":"))`` would write if
    each element of the non-empty array ``texts`` were written as its text."""
    pieces = np.empty(texts.shape + (2,), dtype=object)
    pieces[..., 0] = texts
    pieces[..., 1] = ","
    # An element closing `depth` nested lists is followed by "],[" at that depth.
    for depth in range(1, texts.ndim):
        pieces[(Ellipsis,) + (-1,) * depth + (1,)] = "]" * depth + "," + "[" * depth
    pieces.flat[-1] = "]" * texts.ndim
    return "[" * texts.ndim + "".join(pieces.ravel().tolist())


def compute_correlation_model(
    matrix: GenotypeMatrix, pseudo_count: float = 0.0
) -> CorrelationModel:
    """Estimate the pairwise conditional model from a genotype matrix.

    cond(i, k, a, b) = (#{x_i=a and x_k=b} + pc) / (#{x_k=b} + 3 pc), left
    undefined (NaN) when the denominator is zero.  Marginals use the same
    smoothing against the row count.
    """
    if pseudo_count < 0:
        raise GenotypeError(f"pseudo_count must be >= 0, got {pseudo_count}")
    X = matrix.values
    n, l = X.shape
    onehot = np.zeros((n, l, 3), dtype=np.float64)
    onehot[np.arange(n)[:, None], np.arange(l)[None, :], X] = 1.0
    flat = onehot.reshape(n, l * 3)
    joint = (flat.T @ flat).reshape(l, 3, l, 3).transpose(0, 2, 1, 3)  # [i, k, a, b]
    base = joint.sum(axis=2, keepdims=True)  # #{x_k = b}, same for every i
    num = joint + pseudo_count
    den = base + 3.0 * pseudo_count
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(den > 0, num / np.where(den > 0, den, 1.0), np.nan)
    counts = onehot.sum(axis=0)  # [l, 3]
    marginals = (counts + pseudo_count) / (n + 3.0 * pseudo_count)
    return CorrelationModel(cond=cond, marginals=marginals)
