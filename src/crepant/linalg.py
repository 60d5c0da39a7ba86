"""Small dense exact linear algebra.

Plain Gauss-Jordan elimination over an exact field.  Entries may be
`fractions.Fraction` or `crepant.exactnum.Cyclotomic` (anything with field
operators and a truthiness test for "nonzero"); there is no pivoting strategy
beyond "first nonzero", which is the right choice when arithmetic is exact.
"""

from __future__ import annotations


def solve_exact(rows, rhs, *, zero):
    """Solve A x = b for an exactly determined or overdetermined system.

    Returns the unique solution vector, or None when the system is
    inconsistent.  Raises ValueError when the solution is not unique
    (rank < number of unknowns).
    """
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = _eliminate(aug, ncols)
    for row in aug:
        if all(not x for x in row[:ncols]) and row[ncols]:
            return None
    if len(pivots) < ncols:
        raise ValueError("system is underdetermined")
    solution = [zero] * ncols
    for r, c in enumerate(pivots):
        solution[c] = aug[r][ncols]
    return solution


def _eliminate(aug, ncols):
    """Reduce aug to reduced row echelon form on its first ncols columns.

    Returns the list of pivot columns, in row order.
    """
    nrows = len(aug)
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if aug[r][col]), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        pivval = aug[row][col]
        aug[row] = [x / pivval for x in aug[row]]
        for r in range(nrows):
            if r != row and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return pivots
