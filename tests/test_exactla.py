from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from sdforms.exactla import nullspace, rref


def fraction_nullspace(rows, n_cols):
    """Reference kernel basis by Fraction Gauss-Jordan, v[free] = 1, and the free columns."""
    work = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = 1 / work[r][c]
        work[r] = [v * inv for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for row, pc in enumerate(pivots):
            v[pc] = -work[row][fc]
        basis.append(v)
    return basis, free


def integer_matrix(rng, n_rows, n_cols, rank):
    """Seeded integer matrix of the given shape and rank at most ``rank``."""
    if rank == 0:
        return [[0] * n_cols for _ in range(n_rows)]
    left = rng.integers(-4, 5, size=(n_rows, rank))
    right = rng.integers(-4, 5, size=(rank, n_cols))
    right[:, rng.integers(n_cols)] = 0  # a zero column, skipped by elimination
    return (left @ right).tolist()


CASES = [
    ("rank_deficient", 7, 7, 4),
    ("all_zero", 4, 5, 0),
    ("wide", 3, 8, 3),
    ("tall", 9, 4, 3),
    ("full_rank_square", 5, 5, 5),
    ("single_row", 1, 6, 1),
]


@pytest.mark.parametrize("name,n_rows,n_cols,rank", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("seed", range(5))
def test_nullspace_matches_fraction_oracle(name, n_rows, n_cols, rank, seed):
    rng = np.random.default_rng(1000 * seed + n_rows * n_cols + rank)
    A = integer_matrix(rng, n_rows, n_cols, rank)
    ref, free = fraction_nullspace(A, n_cols)
    basis = nullspace(A)
    assert len(basis) == len(ref) == n_cols - np.linalg.matrix_rank(np.array(A, dtype=float))
    for v, w, fc in zip(basis, ref, free):
        assert all(type(x) is int for x in v)
        assert gcd(*v) == 1
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in A)
        # the oracle's vector scaled by a positive integer
        assert v[fc] > 0
        assert [Fraction(x, v[fc]) for x in v] == w


def test_rref_scales_reduced_echelon_form():
    rows = [[2, 4, 1, 3], [1, 2, 0, 1], [3, 6, 1, 4]]
    pivots = rref(rows)
    assert pivots == [0, 2]
    d = rows[0][0]
    assert d != 0 and rows[1][2] == d
    assert rows[1][0] == rows[0][2] == 0
    assert rows[2] == [0, 0, 0, 0]


def test_nullspace_without_rows_is_identity():
    assert nullspace([], n_cols=3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert nullspace([]) == []
