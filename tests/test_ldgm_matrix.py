"""Unit tests for LDGM parity-check-matrix construction."""

import hashlib

import numpy as np
import pytest

from repro.fec.ldgm import matrix as matrix_module
from repro.fec.ldgm.matrix import (
    DEFAULT_LEFT_DEGREE,
    LDGMVariant,
    ParityCheckMatrix,
    build_parity_check_matrix,
)


class TestDimensions:
    @pytest.mark.parametrize("variant", list(LDGMVariant))
    def test_shapes(self, variant):
        matrix = build_parity_check_matrix(100, 250, variant, seed=0)
        assert matrix.k == 100 and matrix.n == 250
        assert matrix.num_checks == 150
        assert len(matrix.source_cols) == 150
        assert len(matrix.parity_cols) == 150

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            build_parity_check_matrix(100, 100, "staircase")
        with pytest.raises(ValueError):
            build_parity_check_matrix(0, 10, "staircase")

    def test_string_variant_accepted(self):
        matrix = build_parity_check_matrix(50, 100, "triangle", seed=1)
        assert matrix.variant is LDGMVariant.TRIANGLE

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            build_parity_check_matrix(50, 100, "diagonal")


class TestLeftPart:
    def test_every_source_column_has_left_degree_edges(self):
        matrix = build_parity_check_matrix(200, 500, "staircase", seed=3)
        degrees = matrix.column_degrees()[:200]
        assert np.all(degrees == DEFAULT_LEFT_DEGREE)

    def test_custom_left_degree(self):
        matrix = build_parity_check_matrix(100, 250, "staircase", left_degree=5, seed=3)
        degrees = matrix.column_degrees()[:100]
        assert np.all(degrees == 5)

    def test_left_degree_capped_for_tiny_codes(self):
        # Only 2 check nodes exist, so the degree cannot exceed 2.
        matrix = build_parity_check_matrix(10, 12, "staircase", seed=0)
        degrees = matrix.column_degrees()[:10]
        assert np.all(degrees <= 2)

    def test_no_duplicate_edges_within_a_column(self):
        matrix = build_parity_check_matrix(300, 750, "triangle", seed=7)
        membership = [set() for _ in range(matrix.n)]
        for row in range(matrix.num_checks):
            for col in matrix.source_cols[row]:
                assert row not in membership[col], "duplicate edge"
                membership[col].add(row)

    def test_check_rows_balanced(self):
        matrix = build_parity_check_matrix(600, 1500, "staircase", seed=11)
        row_degrees = np.array([cols.size for cols in matrix.source_cols])
        # Balanced pool construction keeps source-edge counts within a small band.
        assert row_degrees.min() >= 1
        assert row_degrees.max() - row_degrees.min() <= 3

    def test_reproducible_for_same_seed(self):
        first = build_parity_check_matrix(100, 250, "staircase", seed=42)
        second = build_parity_check_matrix(100, 250, "staircase", seed=42)
        for row in range(first.num_checks):
            assert np.array_equal(first.source_cols[row], second.source_cols[row])

    def test_different_seeds_differ(self):
        first = build_parity_check_matrix(100, 250, "staircase", seed=1)
        second = build_parity_check_matrix(100, 250, "staircase", seed=2)
        assert any(
            not np.array_equal(first.source_cols[row], second.source_cols[row])
            for row in range(first.num_checks)
        )


class TestRightPart:
    def test_ldgm_identity(self):
        matrix = build_parity_check_matrix(50, 100, "ldgm", seed=0)
        for row in range(matrix.num_checks):
            assert matrix.parity_cols[row].tolist() == [50 + row]

    def test_staircase_dual_diagonal(self):
        matrix = build_parity_check_matrix(50, 100, "staircase", seed=0)
        assert matrix.parity_cols[0].tolist() == [50]
        for row in range(1, matrix.num_checks):
            assert matrix.parity_cols[row].tolist() == [50 + row - 1, 50 + row]

    def test_triangle_adds_one_entry_below_staircase(self):
        matrix = build_parity_check_matrix(50, 150, "triangle", seed=0)
        assert matrix.parity_cols[0].tolist() == [50]
        assert matrix.parity_cols[1].tolist() == [50, 51]
        for row in range(2, matrix.num_checks):
            cols = matrix.parity_cols[row].tolist()
            assert 50 + row in cols and 50 + row - 1 in cols
            extras = [c for c in cols if c < 50 + row - 1]
            assert len(extras) == 1
            assert 50 <= extras[0] <= 50 + row - 2

    def test_triangle_denser_than_staircase(self):
        staircase = build_parity_check_matrix(100, 250, "staircase", seed=5)
        triangle = build_parity_check_matrix(100, 250, "triangle", seed=5)
        assert triangle.num_edges > staircase.num_edges


class TestAccessors:
    def test_row_columns_concatenates(self):
        matrix = build_parity_check_matrix(20, 50, "staircase", seed=0)
        row = matrix.row_columns(3)
        assert set(matrix.source_cols[3]) <= set(row.tolist())
        assert set(matrix.parity_cols[3]) <= set(row.tolist())

    def test_column_adjacency_consistent_with_rows(self):
        matrix = build_parity_check_matrix(40, 100, "triangle", seed=0)
        indptr, rows = matrix.column_adjacency()
        assert indptr.shape == (matrix.n + 1,)
        assert rows.size == matrix.num_edges
        # Rebuild membership from the adjacency and compare with the rows.
        for node in range(matrix.n):
            adjacent = set(rows[indptr[node] : indptr[node + 1]].tolist())
            expected = {
                row
                for row in range(matrix.num_checks)
                if node in matrix.row_columns(row)
            }
            assert adjacent == expected

    def test_adjacency_is_cached(self):
        matrix = build_parity_check_matrix(20, 50, "staircase", seed=0)
        first = matrix.column_adjacency()
        second = matrix.column_adjacency()
        assert first[0] is second[0] and first[1] is second[1]

    def test_to_dense_matches_sparse(self):
        matrix = build_parity_check_matrix(15, 40, "triangle", seed=0)
        dense = matrix.to_dense()
        assert dense.shape == (25, 40)
        assert dense.sum() == matrix.num_edges

    def test_density(self):
        matrix = build_parity_check_matrix(100, 250, "staircase", seed=0)
        assert 0 < matrix.density < 0.1


# ---------------------------------------------------------------------------
# Exact-matrix goldens: construction consumes the generator in a pinned
# order, so the matrices and the generator state after a build never move.
# ---------------------------------------------------------------------------

#: (variant, k, n, left_degree) -> sha256 of every row's source and parity
#: columns plus the generator's next draw after the build.
GOLDEN_MATRICES = {
    ("ldgm", 20000, 30000, 3): "5154d8b048bb2b1d9217bf162a606c3d300a33ab3a1024954810869bc916ee2c",
    ("ldgm", 20000, 50000, 3): "e268c42882d43a8fddd42699caaccacf326ebb214e4bd9e33bb22a0ca22e0109",
    ("staircase", 20000, 30000, 3): "27e7aa22ce7f5590cc0d6e8d94c13ec17c5938be6b0622a877eb9adc5bca3c7c",
    ("staircase", 20000, 50000, 3): "fa0d9e5179787bece1ef18cd3c7f6e8e6a9a43cf5324f541561268a5ac0af451",
    ("triangle", 20000, 30000, 3): "c7a13e521dfa82f1f5d84a98cbd4f390fbb25627ad8f8963ea2cd7bc0d6dff15",
    ("triangle", 20000, 50000, 3): "07bb00d4963e105e4918f3989d9732f7b254d317f74ca4ec96cc4941e32c91ee",
    # Two check rows: the left degree is capped below its nominal 3.
    ("staircase", 40, 42, 3): "856703e824550ed886fb6510ec3a611e3af49d98065ee8d9abd516792555e0f3",
    ("triangle", 60, 66, 3): "f315aa84bffd4026c620cec8df45f932542c4346cbd6fc7f6eab37bdf10224a6",
    ("ldgm", 2, 12, 3): "f715966dacccfb9967432fc47401f30e5a9eb04b836f7ace9f3c888c86b6e65c",
}

#: Plain LDGM on 2 sources leaves most of its 10 check rows empty.
EMPTY_ROWS_CASE = ("ldgm", 2, 12, 3)
#: Six check rows for degree-3 columns: duplicate draws are routine.
DUPLICATES_CASE = ("triangle", 60, 66, 3)


def _matrix_digest(variant, k, n, left_degree):
    rng = np.random.Generator(np.random.PCG64(2005))
    matrix = build_parity_check_matrix(k, n, variant, left_degree=left_degree, seed=rng)
    digest = hashlib.sha256()
    for rows in (matrix.source_cols, matrix.parity_cols):
        for row in rows:
            digest.update(np.int64(row.size).tobytes())
            digest.update(np.asarray(row, dtype=np.int64).tobytes())
    digest.update(str(int(rng.integers(1 << 62))).encode())
    return digest.hexdigest()


class TestExactMatrices:
    @pytest.mark.parametrize(
        "case", sorted(GOLDEN_MATRICES), ids=lambda case: "-".join(map(str, case))
    )
    def test_matrix_and_generator_state_pinned(self, case):
        variant, k, n, left_degree = case
        assert _matrix_digest(variant, k, n, left_degree) == GOLDEN_MATRICES[case]

    def test_duplicates_case_reaches_deduplication(self, monkeypatch):
        duplicated = []
        original = matrix_module._deduplicate_rows

        def spy(rows, num_checks, rng):
            duplicated.append(np.unique(rows).size < rows.size)
            return original(rows, num_checks, rng)

        monkeypatch.setattr(matrix_module, "_deduplicate_rows", spy)
        _matrix_digest(*DUPLICATES_CASE)
        assert any(duplicated)

    def test_empty_rows_case_reaches_fill(self, monkeypatch):
        empty = []
        original = matrix_module._fill_empty_rows

        def spy(per_row, *args):
            empty.append(any(not cols for cols in per_row))
            return original(per_row, *args)

        monkeypatch.setattr(matrix_module, "_fill_empty_rows", spy)
        _matrix_digest(*EMPTY_ROWS_CASE)
        assert any(empty)
