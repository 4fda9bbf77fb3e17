"""Exact integer linear algebra: fraction-free elimination and nullspace.

Small dense solver on Python ints used for the exact-ring spectrum
certificates, where float eigensolvers are replaced by exact kernel ranks of
integer shifts.  Elimination is fraction-free Gauss-Jordan (Bareiss 1968,
Math. Comp. 22): every update ``(p*a - f*b) // prev`` divides exactly, so the
entries stay integer minors of the input and no rational arithmetic is
needed.
"""

from math import gcd

__all__ = ["rref", "nullspace"]


def rref(rows):
    """Fraction-free reduced row echelon form of integer rows, in place.

    Returns the list of pivot columns.  On return every pivot column holds
    the same nonzero integer d (the last pivot) in its own row and zero in
    every other row, so the rows are the reduced row echelon form scaled
    by d.
    """
    if not rows:
        return []
    n_rows = len(rows)
    n_cols = len(rows[0])
    pivots = []
    prev = 1
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r]
        p = pivot[c]
        for i in range(n_rows):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                rows[i] = [(p * a - f * b) // prev for a, b in zip(rows[i], pivot)]
            elif p != prev:
                rows[i] = [p * a // prev for a in rows[i]]
        prev = p
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return pivots


def nullspace(rows, n_cols=None):
    """Basis of the right nullspace of integer rows, one vector per free column.

    Each vector is a primitive integer vector (its entries have gcd one)
    whose free-column entry is positive.  With no rows, ``n_cols`` gives the
    dimension and the basis is the identity.
    """
    if not rows:
        return [[int(i == j) for i in range(n_cols or 0)] for j in range(n_cols or 0)]
    n_cols = len(rows[0])
    work = [list(r) for r in rows]
    pivots = rref(work)
    d = work[0][pivots[0]] if pivots else 1
    pivot_set = set(pivots)
    basis = []
    for fc in range(n_cols):
        if fc in pivot_set:
            continue
        v = [0] * n_cols
        v[fc] = d
        for r, pc in enumerate(pivots):
            v[pc] = -work[r][fc]
        g = gcd(*v) if d > 0 else -gcd(*v)
        basis.append([x // g for x in v])
    return basis
