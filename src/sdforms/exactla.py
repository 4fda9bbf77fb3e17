"""Exact rational linear algebra: nullspace by fraction-free pivoting.

Small dense solver over ``fractions.Fraction`` used for the rational-ring
spectrum certificates, where float eigensolvers are replaced by exact kernel
ranks of integer shifts.
"""

from fractions import Fraction

__all__ = ["rref", "nullspace"]


def rref(rows):
    """Reduced row echelon form in place; returns the list of pivot columns."""
    if not rows:
        return []
    n_rows = len(rows)
    n_cols = len(rows[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1, 1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return pivots


def nullspace(rows, n_cols=None):
    """Basis of the right nullspace, one Fraction vector per free column."""
    if not rows:
        return [] if not n_cols else [
            [Fraction(int(i == j)) for i in range(n_cols)] for j in range(n_cols)
        ]
    n_cols = len(rows[0])
    work = [list(r) for r in rows]
    pivots = rref(work)
    pivot_set = set(pivots)
    free = [c for c in range(n_cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -work[r][fc]
        basis.append(v)
    return basis
