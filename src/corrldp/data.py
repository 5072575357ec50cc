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
_CHECK_CELLS = 1 << 18  # conditionals per slice of the model checks
_FILL_CELLS = 1 << 16  # conditionals per slice of the fit's fill
_DRAW_BLOCK = 8192  # uniforms per call of the synthetic generator


class GenotypeError(ValueError):
    """Malformed genotype data (bad values, shapes, or file contents)."""


class GenotypeParseError(GenotypeError):
    """An input file failed to parse; the message names the path and the fault
    (for a genotype file, its row and column)."""


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


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``rng.choice(3, p=triple)``'s rule for an (m, 2, 1) stack of normalized
    cumulative weights and (m, n) uniforms: the count of weights <= u."""
    return (cdf[:, 0] <= u).view(np.int8) + (cdf[:, 1] <= u).view(np.int8)


def generate_synthetic_population(spec: SyntheticSpec, seed) -> GenotypeMatrix:
    """Draw a synthetic genotype matrix; identical seeds give identical matrices."""
    rng = np.random.default_rng(as_seed_sequence(seed))
    n, l = spec.n, spec.l
    cdf = np.array([hardy_weinberg_triple(f) for f in spec.maf_per_column()]).cumsum(axis=1)
    cdf = (cdf / cdf[:, -1:])[:, :2, None]
    rho = np.array(spec.rho_per_column())[:, None]
    out = np.empty((n, l), dtype=np.int8)
    out[:, 0] = _inverse_cdf(cdf[:1], rng.random((1, n)))[0]
    # the stream that rng.choice(3, n, p=triple) then rng.random(n) per later
    # column would read, taken in blocks of columns of at most _DRAW_BLOCK draws
    width = max(1, _DRAW_BLOCK // (2 * n))
    for a in range(1, l, width):
        b = min(a + width, l)
        u = rng.random((b - a, 2, n))  # per column: n choice, then n copy draws
        fresh = np.empty((b - a + 1, n), dtype=np.int8)
        fresh[0] = out[:, a - 1]
        fresh[1:] = _inverse_cdf(cdf[a:b], u[:, 0])
        # a cell takes the fresh draw of the last column at or before it that
        # did not copy its predecessor; row 0 stands for column a - 1
        source = np.where(u[:, 1] < rho[a:b], 0, np.arange(1, b - a + 1)[:, None])
        np.maximum.accumulate(source, axis=0, out=source)
        out[:, a:b] = np.take_along_axis(fresh, source, axis=0).T
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
    _increments_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        cond = np.asarray(self.cond, dtype=np.float64)
        marg = np.asarray(self.marginals, dtype=np.float64)
        if cond.ndim != 4 or cond.shape[2:] != (3, 3) or cond.shape[0] != cond.shape[1]:
            raise GenotypeError(f"conditional table must be (l, l, 3, 3), got {cond.shape}")
        if marg.shape != (cond.shape[0], 3):
            raise GenotypeError(
                f"marginals must be ({cond.shape[0]}, 3), got {marg.shape}"
            )
        # both checks run over slices of SNPs i of at most _CHECK_CELLS
        # conditionals, so no temporary is table-sized; the range test covers
        # the whole table first, so a table failing both gets the range message
        width = max(1, _CHECK_CELLS // (9 * max(1, cond.shape[0])))
        blocks = [cond[s : s + width] for s in range(0, cond.shape[0], width)]
        for block in blocks:
            # fmin and fmax skip an undefined (NaN) conditional, not +-inf
            lo, hi = np.fmin.reduce(block, axis=None), np.fmax.reduce(block, axis=None)
            if lo < -1e-12 or hi > 1.0 + 1e-12:
                raise GenotypeError("conditional probabilities must lie in [0, 1]")
        # Defined conditionals for a fixed (i, k, b) must sum to 1: the plain
        # sum over state a, redone without the undefined ones where it is NaN
        for block in blocks:
            sums = block[:, :, 0] + block[:, :, 1] + block[:, :, 2]
            partial = np.isnan(sums)
            if partial.any():
                cells = block.transpose(0, 1, 3, 2)[partial]  # [cell, a]
                v = np.nan_to_num(cells)  # no infinity passed the range check
                empty = np.isnan(cells).all(axis=1)  # nothing defined, nothing to sum
                sums[partial] = np.where(empty, 1.0, v[:, 0] + v[:, 1] + v[:, 2])
            if np.any(np.abs(sums - 1.0) > 1e-9):
                raise GenotypeError("defined conditionals Pr(. | SNP_k = b) must sum to 1")
        self.cond = cond
        self.marginals = marg

    @property
    def l(self) -> int:
        return self.cond.shape[0]

    def increments(self, tau: float) -> np.ndarray:
        """Read-only boolean (l, 3, l, 3), built once per tau.

        ``increments(tau)[k, b, i, v]`` says "sharing SNP k as b counts against
        SNP_i = v": Pr(SNP_i = v | SNP_k = b) is defined and strictly below tau.
        Self-pairs never count.  Every counter update reads this table as stored.
        """
        key = float(tau)
        table = self._increments_cache.get(key)
        if table is None:
            # an undefined (NaN) conditional compares False, so never counts
            table = np.ascontiguousarray((self.cond < tau).transpose(1, 3, 0, 2))
            idx = np.arange(self.l)
            table[idx, :, idx] = False
            table.flags.writeable = False
            self._increments_cache[key] = table
        return table

    def low_mask(self, tau: float) -> np.ndarray:
        """``low_mask(tau)[i, k, a, b]``, a view of ``increments(tau)[k, b, i, a]``:
        seeing SNP_k = b makes SNP_i = a implausible at threshold tau."""
        return self.increments(tau).transpose(2, 0, 3, 1)

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
                # the conditionals are count ratios, so their texts repeat:
                # each distinct text becomes a float once, by the float(text)
                # call json makes for every number token by default
                payload = json.load(fh, parse_float=_FloatMemo().__getitem__)
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


class _FloatMemo(dict):
    """Number text -> ``float(text)``, converting each distinct text once."""

    def __missing__(self, text: str) -> float:
        value = self[text] = float(text)
        return value


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


def _planes(Y: np.ndarray, dtype=np.float32) -> np.ndarray:
    """(n, 2l) indicators of states 1 and 2 of an (n, l) genotype matrix:
    column 2i + v - 1 is 1 where Y[:, i] == v.  State 0 is what is left."""
    n, l = Y.shape
    planes = np.empty((n, l, 2), dtype=dtype)
    np.equal(Y, 1, out=planes[:, :, 0])
    np.equal(Y, 2, out=planes[:, :, 1])
    return planes.reshape(n, 2 * l)


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
    # float32 counts pair by pair are exact below 2^24 rows
    planes = _planes(X, np.float32 if n < 1 << 24 else np.float64)
    counts = np.empty((l, 3))  # #{x_k = b}
    counts[:, 1:] = planes.sum(axis=0, dtype=np.float64).reshape(l, 2)
    counts[:, 0] = n - counts[:, 1] - counts[:, 2]
    gram = (planes.T @ planes).reshape(l, 2, l, 2)  # #{x_i = a, x_k = b}, a, b > 0
    del planes
    den = counts + 3.0 * pseudo_count  # [k, b]
    scale = np.repeat(np.where(den > 0, den, 1.0)[:, None], 3, axis=1).reshape(9 * l)  # [k, a, b]
    cond = np.empty((l, l, 3, 3))  # [i, k, a, b]
    # a count with state 0 is a marginal count minus the pair's other counts;
    # the table is filled over slices of SNPs i that stay in cache while
    # they are completed and divided
    width = max(1, _FILL_CELLS // (9 * l))
    for s in range(0, l, width):
        c = cond[s : s + width]
        c[:, :, 1:, 1:] = gram[s : s + width].transpose(0, 2, 1, 3)
        for b in (1, 2):  # one op over both b would step two cells at a time
            np.subtract(counts[:, b], c[:, :, 1, b], out=c[:, :, 0, b])
            c[:, :, 0, b] -= c[:, :, 2, b]
        np.subtract(counts[s : s + width, None], c[:, :, :, 1], out=c[:, :, :, 0])
        c[:, :, :, 0] -= c[:, :, :, 2]
        c = c.reshape(-1, 9 * l)
        c += pseudo_count
        c /= scale
    del gram
    empty_k, empty_b = np.nonzero(den == 0)
    cond[:, empty_k, :, empty_b] = np.nan
    marginals = (counts + pseudo_count) / (n + 3.0 * pseudo_count)
    return CorrelationModel(cond=cond, marginals=marginals)
