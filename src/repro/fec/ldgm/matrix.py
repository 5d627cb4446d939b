"""Sparse parity-check matrices for the LDGM code family.

The matrix ``H`` has ``n - k`` rows (one per check node / parity packet) and
``n`` columns (one per message node: ``k`` source packets followed by
``n - k`` parity packets).  It is stored sparsely as, for every check row,
the array of source columns and the array of parity columns it touches,
plus a CSR-style column-to-row adjacency used by the decoders.

Construction rules
------------------

* **Left part H1** -- every source column receives exactly ``left_degree``
  (default 3, the value used in the paper) distinct check rows.  Rows are
  drawn from a balanced pool so check-node degrees stay as even as possible,
  mirroring the "evenboth" construction of the reference LDPC codec.
* **Right part H2**:

  - ``LDGM``: identity -- check ``i`` involves parity packet ``i`` only.
  - ``LDGM Staircase``: dual diagonal -- check ``i`` involves parity packets
    ``i`` and ``i - 1``.
  - ``LDGM Triangle``: the staircase plus extra entries below the diagonal.
    The reference codec fills the triangle "progressively"; here every check
    row ``i >= 2`` additionally involves one parity packet drawn uniformly
    from the columns strictly below the staircase (``[0, i - 2]``).  This
    keeps check rows sparse (which the iterative decoder needs), keeps
    encoding a short XOR cascade, and reproduces the paper's qualitative
    behaviour (Triangle at least as good as Staircase except when only a
    small share of the packets is received).  The approximation is recorded
    in DESIGN.md.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import validate_k_n, validate_positive_int

#: Left (source-node) degree used throughout the paper.
DEFAULT_LEFT_DEGREE = 3


class LDGMVariant(enum.Enum):
    """The three LDGM parity structures compared in the paper."""

    LDGM = "ldgm"
    STAIRCASE = "staircase"
    TRIANGLE = "triangle"


@dataclass
class ParityCheckMatrix:
    """Sparse representation of ``H = [H1 | H2]``.

    Attributes
    ----------
    k, n:
        Code dimensions; there are ``n - k`` check rows.
    variant:
        Which parity structure the matrix follows.
    source_cols:
        ``source_cols[i]`` is the array of source columns (``< k``) of row i.
    parity_cols:
        ``parity_cols[i]`` is the array of *global* parity columns
        (``>= k``) of row i; it always contains ``k + i``.
    """

    k: int
    n: int
    variant: LDGMVariant
    source_cols: list[np.ndarray]
    parity_cols: list[np.ndarray]

    @property
    def num_checks(self) -> int:
        return self.n - self.k

    @property
    def num_edges(self) -> int:
        """Total number of "1"s in the matrix."""
        return sum(row.size for row in self.source_cols) + sum(
            row.size for row in self.parity_cols
        )

    @property
    def density(self) -> float:
        """Fraction of non-zero entries."""
        return self.num_edges / (self.num_checks * self.n)

    def row_columns(self, row: int) -> np.ndarray:
        """All (global) columns of check row ``row``."""
        return np.concatenate([self.source_cols[row], self.parity_cols[row]])

    def row_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style (indptr, cols) adjacency from check rows to columns.

        ``cols[indptr[r]:indptr[r + 1]]`` lists the (global) message nodes of
        check row ``r``, source columns first.  Cached after the first call;
        this flat form is what the vectorised decoders operate on.
        """
        cached = getattr(self, "_row_csr_cache", None)
        if cached is not None:
            return cached
        row_lengths = np.fromiter(
            (
                self.source_cols[row].size + self.parity_cols[row].size
                for row in range(self.num_checks)
            ),
            dtype=np.int64,
            count=self.num_checks,
        )
        indptr = np.zeros(self.num_checks + 1, dtype=np.int64)
        np.cumsum(row_lengths, out=indptr[1:])
        pairs = [
            array
            for row in range(self.num_checks)
            for array in (self.source_cols[row], self.parity_cols[row])
        ]
        cols = (
            np.concatenate(pairs).astype(np.int64, copy=False)
            if pairs
            else np.zeros(0, dtype=np.int64)
        )
        self._row_csr_cache = (indptr, cols)
        return self._row_csr_cache

    def row_degrees(self) -> np.ndarray:
        """Degree of every check row, length ``num_checks``."""
        indptr, _cols = self.row_csr()
        return np.diff(indptr)

    def column_degrees(self) -> np.ndarray:
        """Degree of every message node (column), length ``n``.

        Cached after the first call and built with one ``np.bincount`` over
        the flattened row arrays instead of a per-row Python loop.
        """
        cached = getattr(self, "_column_degrees_cache", None)
        if cached is not None:
            return cached
        _indptr, cols = self.row_csr()
        self._column_degrees_cache = np.bincount(cols, minlength=self.n).astype(
            np.int64, copy=False
        )
        return self._column_degrees_cache

    def column_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style (indptr, rows) adjacency from columns to check rows.

        ``rows[indptr[v]:indptr[v + 1]]`` lists the check rows that involve
        message node ``v``, in increasing row order.  Cached after the first
        call and built by one stable argsort over the flattened row arrays
        (the concatenation enumerates rows in order, so the stable sort by
        column preserves the per-column row ordering of the historical
        nested-loop construction).
        """
        cached = getattr(self, "_adjacency_cache", None)
        if cached is not None:
            return cached
        row_ptr, cols = self.row_csr()
        degrees = self.column_degrees()
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        row_ids = np.repeat(
            np.arange(self.num_checks, dtype=np.int64), np.diff(row_ptr)
        )
        order = np.argsort(cols, kind="stable")
        self._adjacency_cache = (indptr, row_ids[order])
        return self._adjacency_cache

    def initial_row_state(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-row (unknown count, XOR of unknown columns) before any packet.

        This is the decoder state the symbolic peeling decoder starts from;
        it is computed once per matrix (``np.add.reduceat`` /
        ``np.bitwise_xor.reduceat`` over the row CSR) and *copied* by every
        decoder instance instead of being rebuilt with Python loops.
        """
        cached = getattr(self, "_initial_row_state_cache", None)
        if cached is not None:
            return cached
        indptr, cols = self.row_csr()
        unknowns = self.row_degrees()
        if cols.size:
            xor_unknown = np.bitwise_xor.reduceat(cols, indptr[:-1])
            # reduceat misbehaves on empty segments (it returns the element
            # *at* the segment start); force those rows to the empty XOR, 0.
            xor_unknown[unknowns == 0] = 0
        else:
            xor_unknown = np.zeros(self.num_checks, dtype=np.int64)
        self._initial_row_state_cache = (unknowns, xor_unknown)
        return self._initial_row_state_cache

    def to_dense(self) -> np.ndarray:
        """Dense 0/1 matrix, for tests and small examples only."""
        dense = np.zeros((self.num_checks, self.n), dtype=np.uint8)
        for row in range(self.num_checks):
            dense[row, self.source_cols[row]] = 1
            dense[row, self.parity_cols[row]] = 1
        return dense


def build_parity_check_matrix(
    k: int,
    n: int,
    variant: LDGMVariant | str = LDGMVariant.STAIRCASE,
    *,
    left_degree: int = DEFAULT_LEFT_DEGREE,
    seed: RandomState = None,
) -> ParityCheckMatrix:
    """Build the parity-check matrix of an LDGM-family code.

    Parameters
    ----------
    k, n:
        Source / total packet counts; ``n - k`` check rows are created.
    variant:
        ``LDGMVariant`` or its string value.
    left_degree:
        Number of check equations each source packet participates in
        (3 in the paper).  Capped at ``n - k``.
    seed:
        Seed or generator controlling the random H1 construction.
    """
    k, n = validate_k_n(k, n)
    if isinstance(variant, str):
        variant = LDGMVariant(variant.lower())
    left_degree = validate_positive_int(left_degree, "left_degree")
    num_checks = n - k
    effective_degree = min(left_degree, num_checks)
    rng = ensure_rng(seed)

    source_cols = _build_left_part(k, num_checks, effective_degree, rng)
    parity_cols = _build_right_part(k, num_checks, variant, rng)
    return ParityCheckMatrix(
        k=k, n=n, variant=variant, source_cols=source_cols, parity_cols=parity_cols
    )


def _build_left_part(
    k: int, num_checks: int, left_degree: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Assign ``left_degree`` distinct check rows to every source column.

    A balanced pool (every check row repeated ``ceil(left_degree * k /
    num_checks)`` times) is shuffled and consumed column by column so check
    degrees stay within one of each other; duplicates within a column are
    re-drawn, column by column in column order (the generator order).
    """
    edges_needed = left_degree * k
    repeats = -(-edges_needed // num_checks)  # ceil division
    pool = np.tile(np.arange(num_checks, dtype=np.int64), repeats)[:edges_needed]
    rng.shuffle(pool)
    assignment = pool.reshape(k, left_degree)
    columns = np.sort(assignment, axis=1)
    for col in np.flatnonzero((columns[:, 1:] == columns[:, :-1]).any(axis=1)):
        columns[col] = np.sort(_deduplicate_rows(assignment[col].copy(), num_checks, rng))

    # Stable sort by row keeps every row's columns in increasing order.
    rows = columns.ravel()
    order = np.argsort(rows, kind="stable")
    sources = np.repeat(np.arange(k, dtype=np.int64), left_degree)[order]
    counts = np.bincount(rows, minlength=num_checks)
    source_cols = np.split(sources, np.cumsum(counts)[:-1])
    if counts.all():
        return source_cols
    per_row = [cols.tolist() for cols in source_cols]
    _fill_empty_rows(per_row, rng)
    return [np.array(sorted(cols), dtype=np.int64) for cols in per_row]


def _deduplicate_rows(
    rows: np.ndarray, num_checks: int, rng: np.random.Generator
) -> np.ndarray:
    """Replace duplicate check rows within one column by fresh random rows."""
    seen: set[int] = set()
    for i in range(rows.size):
        value = int(rows[i])
        attempts = 0
        while value in seen:
            value = int(rng.integers(num_checks))
            attempts += 1
            if attempts > 10 * num_checks:
                raise RuntimeError("unable to build a duplicate-free column")
        rows[i] = value
        seen.add(value)
    return rows


def _fill_empty_rows(per_row: list[list[int]], rng: np.random.Generator) -> None:
    """Guarantee every check row touches at least one source packet.

    A check row with no source edge would create a parity packet carrying no
    information (for plain LDGM) and makes the graph needlessly weak; the
    reference codec avoids this too.  Edges are stolen from the rows with
    the highest degree.
    """
    empty_rows = [row for row, cols in enumerate(per_row) if not cols]
    if not empty_rows:
        return
    for empty_row in empty_rows:
        donor_row = max(range(len(per_row)), key=lambda r: len(per_row[r]))
        if len(per_row[donor_row]) <= 1:
            # Not enough edges to share; leave the row empty (harmless but
            # weaker).  This only happens for degenerate tiny codes.
            continue
        moved_col = per_row[donor_row].pop(int(rng.integers(len(per_row[donor_row]))))
        per_row[empty_row].append(moved_col)


def _build_right_part(
    k: int, num_checks: int, variant: LDGMVariant, rng: np.random.Generator
) -> list[np.ndarray]:
    """Build H2 according to the variant (identity, staircase, triangle).

    LDGM Triangle: check ``row >= 2`` additionally involves one parity
    packet drawn uniformly from the columns strictly below the staircase
    (``[0, row - 2]``), creating the "progressive dependency between check
    nodes" described in the paper while keeping every check row sparse
    enough for the iterative decoder.  All rows draw in one call, in row
    order -- the stream of one ``rng.integers(0, row - 1)`` per row.
    """
    rows = np.arange(num_checks, dtype=np.int64)
    if variant is LDGMVariant.LDGM:
        return list((k + rows)[:, None])
    staircase = k + np.stack([rows - 1, rows], axis=1)
    parity_cols = [staircase[0, 1:]]
    if variant is LDGMVariant.STAIRCASE or num_checks < 3:
        return parity_cols + list(staircase[1:])
    extras = k + rng.integers(0, rows[2:] - 1)
    # extra <= row - 2, so each triple is already sorted and distinct.
    return parity_cols + [staircase[1]] + list(np.column_stack([extras, staircase[2:]]))


__all__ = [
    "LDGMVariant",
    "ParityCheckMatrix",
    "build_parity_check_matrix",
    "DEFAULT_LEFT_DEGREE",
]
