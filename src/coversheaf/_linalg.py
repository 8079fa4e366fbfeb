"""Exact rank and null-space routines for small integer matrices.

Coboundary and incidence matrices in this package have entries in
{-1, 0, 1}, so ranks can be certified exactly with integer row
operations instead of floating-point thresholds.  A floating SVD rank
is kept as an independent cross-check route; verdicts that feed
acceptance checks always use the exact route.
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
    rows = []
    for r in range(a.shape[0]):
        row = {int(c): int(a[r, c]) for c in np.nonzero(a[r])[0]}
        if row:
            rows.append(row)
    return rows


def _row_gcd(row: dict[int, int]) -> int:
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
        if g == 1:
            break
    return g


def exact_rank(matrix) -> int:
    """Rank over the rationals, computed by integer elimination.

    Rows are kept as sparse dicts; pivots prefer entries of magnitude 1
    so that the update ``row*p - pivot*v`` stays integral with small
    entries.  Rows are re-normalized by their gcd, which bounds growth
    on the selection-pattern matrices used here.
    """
    rows = _to_rows(matrix)
    rank = 0
    while rows:
        rows.sort(key=len)
        pivot = rows.pop(0)
        pcol, pval = min(pivot.items(), key=lambda kv: (abs(kv[1]), kv[0]))
        rank += 1
        updated = []
        for row in rows:
            v = row.get(pcol)
            if v is None:
                updated.append(row)
                continue
            g = gcd(pval, v)
            a, b = pval // g, v // g
            merged = {c: val * a for c, val in row.items()}
            for c, val in pivot.items():
                nv = merged.get(c, 0) - val * b
                if nv:
                    merged[c] = nv
                elif c in merged:
                    del merged[c]
            if merged:
                rg = _row_gcd(merged)
                if rg > 1:
                    merged = {c: val // rg for c, val in merged.items()}
                updated.append(merged)
        rows = updated
    return rank


def float_rank(matrix, tol: float = 1e-9) -> int:
    """Rank estimate from singular values above ``tol``."""
    a = np.asarray(matrix, dtype=float)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > tol))


def _subtract(target: dict[int, Fraction], factor: Fraction,
              row: dict[int, Fraction]) -> None:
    """In place ``target -= factor * row`` on sparse rows, dropping zeros."""
    for c, v in row.items():
        nv = target.get(c, 0) - factor * v
        if nv:
            target[c] = nv
        else:
            target.pop(c, None)


def nullspace_basis(matrix) -> list[dict[int, Fraction]]:
    """Exact rational basis of the right null space of an integer matrix.

    Sparse Gauss-Jordan elimination over the rationals keeps the reduced
    row echelon form as one row per pivot column: each row has a 1 at
    its pivot, which is its smallest column, and a 0 at every other
    pivot column, so the rows are exactly those of the unique RREF.
    The basis is the canonical one in increasing free-column order:
    vec[f] = 1 and vec[p] = -rref[p][f] at each pivot column p.  Each
    vector is a ``{column: Fraction}`` dict sorted by column, with
    zero entries omitted.
    """
    rows = _to_rows(matrix)
    ncols = np.shape(matrix)[1]
    rref: dict[int, dict[int, Fraction]] = {}  # pivot column -> reduced row
    for int_row in rows:
        row = {c: Fraction(v) for c, v in int_row.items()}
        # reduced rows are zero at each other's pivots: one pass clears all
        for p in [c for c in row if c in rref]:
            _subtract(row, row[p], rref[p])
        if not row:
            continue
        pcol = min(row)
        pval = row[pcol]
        row = {c: v / pval for c, v in row.items()}
        for other in rref.values():
            f = other.get(pcol)
            if f is not None:
                _subtract(other, f, row)
        rref[pcol] = row
    basis = {f: {f: Fraction(1)} for f in range(ncols) if f not in rref}
    for p, row in rref.items():
        for c, v in row.items():
            if c != p:
                basis[c][p] = -v
    return [dict(sorted(vec.items())) for vec in basis.values()]
