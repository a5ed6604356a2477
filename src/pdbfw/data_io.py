"""Dataset ingestion: sparse text format parsing, row normalization, and
seeded synthetic problem generators.

The text format is one sample per line: a label followed by
whitespace-separated index:value pairs with 1-based, strictly increasing
indices. Labels {0,1} and {1,2} are remapped to {-1,+1} with a logged
notice; anything else must already be -1/+1 (classification) or is kept
as-is (regression targets).

Random numbers come from PortableRng, a counter-based splitmix64 generator
written out in full here so streams are reproducible across numpy versions
and platforms.
"""

from __future__ import annotations

import logging
import math
import operator
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Optional, TextIO, Union

import numpy as np
import scipy.sparse as sp

from .core_linalg import SparseDesignMatrix
from .metrics import check_integer

logger = logging.getLogger(__name__)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# largest column index the int64 buffers and a design's shape can hold
_MAX_INDEX = int(np.iinfo(np.int64).max)


class PortableRng:
    """Counter-based splitmix64. Draw i of a given seed is a pure function
    of (seed, i), so streams never depend on call batching."""

    def __init__(self, seed: int = 0):
        self._seed = np.uint64(operator.index(seed) & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    def raw(self, count: int) -> np.ndarray:
        """Next `count` raw uint64 draws."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        idx = np.arange(self._counter + 1, self._counter + count + 1,
                        dtype=np.uint64)
        self._counter += count
        z = self._seed + idx * _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))

    def uniforms(self, count: int) -> np.ndarray:
        """Uniform floats in (0, 1]: (raw >> 11 + 1) * 2^-53."""
        bits = (self.raw(count) >> np.uint64(11)) + np.uint64(1)
        return bits.astype(np.float64) * (2.0 ** -53)

    def normals(self, count: int) -> np.ndarray:
        """Standard normals via Box-Muller on consecutive uniform pairs:
        sqrt(-2 log u1) * (cos, sin)(2 pi u2), worked out in place."""
        pairs = (count + 1) // 2
        radius = self.uniforms(pairs)
        angle = self.uniforms(pairs)
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        angle *= 2.0 * np.pi
        out = np.empty(2 * pairs)
        for half, wave in ((out[0::2], np.cos), (out[1::2], np.sin)):
            wave(angle, out=half)
            half *= radius
        return out[:count]

    def integers(self, count: int, upper: int) -> np.ndarray:
        """Integers in [0, upper) by modular reduction of raw draws."""
        if upper <= 0:
            raise ValueError(f"upper must be positive, got {upper}")
        return (self.raw(count) % np.uint64(upper)).astype(np.int64)


@dataclass
class Dataset:
    """A design matrix with per-sample targets.

    labels is 1-D of length n for scalar losses, or 2-D (n, c) for matrix
    targets; either way labels.shape[0] == matrix.n_rows.
    """

    matrix: SparseDesignMatrix
    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.labels.shape[0] != self.matrix.n_rows:
            raise ValueError(
                f"got {self.labels.shape[0]} labels for "
                f"{self.matrix.n_rows} rows")


class ParseError(ValueError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


# Tokens (labels and index:value pairs) that numpy casts in one batch
_BATCH_TOKENS = 4096
_NOT_MARKS = bytes(set(range(256)) - set(b" :"))


def _check_line(lineno: int, fields: list, n_cols: Optional[int]) -> None:
    """Check one line token by token; raise its first ParseError."""
    try:
        label = float(fields[0])
    except ValueError:
        raise ParseError(lineno, f"bad label {fields[0]!r}") from None
    if not math.isfinite(label):
        raise ParseError(lineno, f"non-finite label {fields[0]!r}")
    prev_index = 0
    for token in fields[1:]:
        head, sep, tail = token.partition(":")
        if not sep:
            raise ParseError(lineno, f"expected index:value, got {token!r}")
        try:
            index, value = int(head), float(tail)
        except ValueError:
            raise ParseError(lineno, f"bad index:value pair {token!r}") from None
        if index < 1:
            raise ParseError(lineno, f"index {index} is not 1-based")
        if index > _MAX_INDEX:
            raise ParseError(lineno, f"index {index} exceeds the int64 range")
        if n_cols is not None and index > n_cols:
            raise ParseError(lineno, f"index {index} exceeds n_cols={n_cols}")
        if index <= prev_index:
            raise ParseError(lineno, f"index {index} not strictly "
                             f"increasing after {prev_index}")
        if not math.isfinite(value):
            raise ParseError(lineno, f"non-finite value in {token!r}")
        prev_index = index


def _convert(batch: list, n_cols: Optional[int], name: str, buffers) -> None:
    """Append a batch's labels, pairs per line, 0-based columns and values to
    `buffers`, cast and checked as arrays, or raise its first bad line's
    ParseError from the line-by-line checks."""
    rows = [fields for _, fields in batch if fields]
    counts = np.fromiter(map(len, rows), np.int64, len(rows)) - 1
    parsed = None
    try:
        labels = np.array([fields[0] for fields in rows], dtype=np.float64)
        # each pair then a space: with one ':' a pair, ':' and ' ' alternate
        text = " ".join([*chain.from_iterable(f[1:] for f in rows), ""])
        if text.encode().translate(None, _NOT_MARKS) == b": " * counts.sum():
            parts = text.replace(" ", ":").split(":")
            index = np.array(parts[0:-1:2], dtype=np.int64)
            values = np.array(parts[1::2], dtype=np.float64)
            prev = np.roll(index, 1)  # each line's first index follows a 0
            prev[(np.cumsum(counts) - counts)[counts > 0]] = 0
            if (np.isfinite(labels).all() and (index > prev).all()
                    and (n_cols is None or (index <= n_cols).all())
                    and np.isfinite(values).all()):
                parsed = labels, counts, index - 1, values
    except (ValueError, OverflowError):
        pass
    for lineno, fields in batch:
        if not fields:
            logger.info("%s: skipping empty line %d", name, lineno)
        elif parsed is None:
            _check_line(lineno, fields, n_cols)
    if parsed is None:
        raise RuntimeError("a batch failed the array checks, not the rescan")
    for buffer, part in zip(buffers, parsed):
        buffer.frombytes(memoryview(part).cast("B"))


def parse_libsvm(source: Union[str, TextIO], n_cols: Optional[int] = None,
                 name: str = "stdin") -> Dataset:
    """Parse the index:value text format into a Dataset.

    source is a path or an open text handle. n_cols forces the column count
    (errors on the line of an index that exceeds it); otherwise the max seen
    index is used. Lines are converted `_BATCH_TOKENS` tokens at a time into
    typed buffers, from which the design is built as CSR and held without
    a copy.
    """
    if n_cols is not None:
        check_integer("n_cols", n_cols, 0)
    if isinstance(source, str):
        handle, owned, name = open(source, "r"), True, source
    else:
        handle, owned = source, False
    buffers = labels, counts, cols, vals = [array(t) for t in "dqqd"]
    batch, tokens = [], 0
    try:
        for lineno, line in enumerate(handle, start=1):
            batch.append((lineno, line.split()))
            tokens += len(batch[-1][1])
            if tokens >= _BATCH_TOKENS:
                _convert(batch, n_cols, name, buffers)
                batch, tokens = [], 0
        _convert(batch, n_cols, name, buffers)
    except (OSError, UnicodeDecodeError):
        _convert(batch, n_cols, name, buffers)  # a bad line before it first
        raise
    finally:
        batch = None  # the tokens go before the design is built
        if owned:
            handle.close()
    if not labels:
        raise ParseError(1, "no samples in input")
    index = np.frombuffer(cols, dtype=np.int64)
    d = int(index.max(initial=-1)) + 1 if n_cols is None else n_cols
    label_arr = np.frombuffer(labels)
    distinct = set(np.unique(label_arr).tolist())
    if distinct == {0.0, 1.0}:
        logger.info("%s: remapping labels {0,1} -> {-1,+1}", name)
        label_arr = np.where(label_arr == 0.0, -1.0, 1.0)
    elif distinct == {1.0, 2.0}:
        logger.info("%s: remapping labels {1,2} -> {+1,-1}", name)
        label_arr = np.where(label_arr == 1.0, 1.0, -1.0)
    indptr = np.concatenate(([0], np.cumsum(np.frombuffer(counts, np.int64))))
    matrix = SparseDesignMatrix(sp.csr_matrix(
        (np.frombuffer(vals), index, indptr), shape=(len(counts), d)),
        _owned=True)
    return Dataset(matrix=matrix, labels=label_arr)


def normalize_rows(dataset: Dataset) -> Dataset:
    """Scale every nonzero row to unit Euclidean norm. Idempotent.

    Works on the nonzeros alone, with the norms cached at construction; a
    row whose squared norm overflows or underflows is rescaled first
    (`SparseDesignMatrix.row_norms`), so no nonzero row is zeroed or skipped.
    """
    norms = dataset.matrix.row_norms()
    matrix = dataset.matrix.divide_rows(np.where(norms > 0.0, norms, 1.0))
    return Dataset(matrix=matrix, labels=dataset.labels.copy())


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a seeded synthetic problem instance."""

    kind: str  # "sparse_regression" or "trace_sensing"
    n: int
    d: int
    c: Optional[int] = None
    true_sparsity_or_rank: int = 1
    noise_level: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("sparse_regression", "trace_sensing"):
            raise ValueError(f"unknown synthetic kind {self.kind!r}")
        for name in ("n", "d", "true_sparsity_or_rank"):
            check_integer(name, getattr(self, name), 1)
        check_integer("seed", self.seed)
        if self.kind == "sparse_regression" and self.true_sparsity_or_rank > self.d:
            raise ValueError("true sparsity exceeds dimension")
        if self.kind == "trace_sensing":
            check_integer("trace_sensing's column count c", self.c, 1)
            if self.true_sparsity_or_rank > min(self.d, self.c):
                raise ValueError("true rank exceeds min(d, c)")
        if isinstance(self.noise_level, (bool, np.bool_)) or \
                not 0.0 <= self.noise_level < math.inf:
            raise ValueError(
                f"noise level must be >= 0 and finite, got {self.noise_level}")


def generate_synthetic(spec: SyntheticSpec):
    """Build a synthetic instance; returns (dataset, ground_truth).

    Draw order per seed is frozen: design entries first, then ground truth,
    then noise. Rows of the design are normalized to unit norm before targets
    are computed, so the per-row norm bound is exactly 1.
    """
    rng = PortableRng(spec.seed)
    n, d, s = spec.n, spec.d, spec.true_sparsity_or_rank
    A = rng.normals(n * d).reshape(n, d)
    norms = np.linalg.norm(A, axis=1)
    A /= np.where(norms > 0.0, norms, 1.0)[:, None]
    if spec.kind == "sparse_regression":
        support = np.argsort(rng.uniforms(d))[:s]
        x0 = np.zeros(d)
        x0[support] = rng.normals(s)
        targets = A @ x0
        if spec.noise_level > 0.0:
            targets = targets + spec.noise_level * rng.normals(n)
        truth = x0
    else:
        c = spec.c
        U = rng.normals(d * s).reshape(d, s)
        V = rng.normals(c * s).reshape(c, s)
        X0 = U @ V.T / math.sqrt(s)
        targets = A @ X0
        if spec.noise_level > 0.0:
            targets = targets + spec.noise_level * rng.normals(n * c).reshape(n, c)
        truth = X0
    return Dataset(matrix=SparseDesignMatrix(A, _owned=True),
                   labels=targets), truth
