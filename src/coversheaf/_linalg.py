"""Exact rank and null-space routines for small integer matrices.

Coboundary and incidence matrices in this package have entries in
{-1, 0, 1}, so ranks and kernels can be certified exactly with integer
row operations instead of floating-point thresholds.  Both come from
one sparse integer Gauss-Jordan elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np


def _to_rows(matrix) -> list[dict[int, int]]:
    """Convert a dense array-like of integers into sparse row dicts."""
    a = np.asarray(matrix)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    flat = np.flatnonzero(a)  # one pass, faster than a 2-d nonzero
    r, c = np.divmod(flat, a.shape[1])
    rows: dict[int, dict[int, int]] = {}
    for i, j, v in zip(r.tolist(), c.tolist(), a.ravel()[flat].tolist()):
        rows.setdefault(i, {})[j] = int(v)
    return list(rows.values())


def _clear(row: dict[int, int], col: int, pivot_row: dict[int, int]) -> bool:
    """In place ``row = a*row - b*pivot_row`` with the smallest a > 0 that
    makes ``row[col]`` zero; ``pivot_row[col]`` must be positive.
    Returns whether a != 1, that is whether ``row`` was scaled."""
    g = gcd(pivot_row[col], row[col])
    a, b = pivot_row[col] // g, row[col] // g
    if a != 1:
        for c in row:
            row[c] *= a
    for c, v in pivot_row.items():
        nv = row.get(c, 0) - v * b
        if nv:
            row[c] = nv
        else:
            del row[c]
    return a != 1


def _make_primitive(row: dict[int, int]) -> None:
    """Divide ``row`` in place by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g


def _reduced_rows(matrix) -> dict[int, dict[int, int]]:
    """Sparse integer Gauss-Jordan elimination of an integer matrix.

    Rows are taken in input order.  The result maps each pivot column to
    one integer row whose pivot, its smallest nonzero column, is
    positive, and which is zero at every other pivot column; dividing
    each row by its pivot therefore gives exactly the rows of the unique
    reduced row echelon form.  A row is divided by the gcd of its
    entries only after it has been scaled by a pivot other than 1, which
    bounds entry growth without paying for a gcd after every operation.
    """
    reduced: dict[int, dict[int, int]] = {}
    for row in _to_rows(matrix):
        # reduced rows are zero at each other's pivots: one pass clears all
        scaled = False
        for p in [c for c in row if c in reduced]:
            scaled |= _clear(row, p, reduced[p])
        if not row:
            continue
        pcol = min(row)
        if row[pcol] < 0:
            for c in row:
                row[c] = -row[c]
        if scaled:
            _make_primitive(row)
        for other in reduced.values():
            if pcol in other and _clear(other, pcol, row):
                _make_primitive(other)
        reduced[pcol] = row
    return reduced


def exact_rank(matrix) -> int:
    """Rank over the rationals: the number of pivots of the elimination."""
    return len(_reduced_rows(matrix))


def nullspace_basis(matrix) -> list[dict[int, Fraction]]:
    """Exact rational basis of the right null space of an integer matrix.

    The basis is the canonical one of the reduced row echelon form, in
    increasing free-column order: vec[f] = 1 and vec[p] = -rref[p][f] at
    each pivot column p.  Each vector is a ``{column: Fraction}`` dict
    sorted by column, with zero entries omitted.
    """
    reduced = _reduced_rows(matrix)
    ncols = np.shape(matrix)[1]
    basis = {f: {f: Fraction(1)} for f in range(ncols) if f not in reduced}
    for p, row in reduced.items():
        for c, v in row.items():
            if c != p:
                basis[c][p] = Fraction(-v, row[p])
    return [dict(sorted(vec.items())) for vec in basis.values()]
