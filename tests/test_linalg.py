"""The one exact elimination against the routes it replaced.

``exact_rank`` and ``nullspace_basis`` share one sparse integer
Gauss-Jordan elimination.  Its oracles are a forward-only integer
elimination (rank), a sparse Gauss-Jordan over ``Fraction`` rows and a
dense rational RREF (reduced rows and the canonical kernel basis).
"""

from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from coversheaf._linalg import (_reduced_rows, _to_rows, exact_rank,
                                nullspace_basis)
from coversheaf.cech import _simplex_block
from coversheaf.network import InclusionLayer, build_cnn
from coversheaf.witnesses import _incidence

from test_acceptance import _partition_net


def fraction_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Dense reduced row echelon form over the rationals, with pivots."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def dense_nullspace_basis(matrix) -> list[list[Fraction]]:
    """The canonical RREF kernel basis, built densely: vec[f] = 1 and
    vec[p] = -rref[p][f] for each free column f in increasing order."""
    a = np.asarray(matrix)
    nrows, ncols = a.shape
    if ncols == 0:
        return []
    rows = [[Fraction(int(a[r, c])) for c in range(ncols)] for r in range(nrows)]
    rref, pivots = fraction_rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -rref[r][f]
        basis.append(vec)
    return basis


def forward_integer_rank(matrix) -> int:
    """Rank by forward-only integer elimination: the sparsest row is the
    next pivot row, its pivot an entry of least magnitude, and every
    updated row is divided by the gcd of its entries."""
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
            merged = {c: val * (pval // g) for c, val in row.items()}
            for c, val in pivot.items():
                nv = merged.get(c, 0) - val * (v // g)
                if nv:
                    merged[c] = nv
                else:
                    merged.pop(c, None)
            if merged:
                rg = gcd(*merged.values())
                updated.append({c: val // rg for c, val in merged.items()})
        rows = updated
    return rank


def fraction_gauss_jordan(matrix) -> dict[int, dict[int, Fraction]]:
    """Sparse Gauss-Jordan over the rationals: pivot column -> RREF row."""
    rref: dict[int, dict[int, Fraction]] = {}

    def subtract(target, factor, row):
        for c, v in row.items():
            nv = target.get(c, 0) - factor * v
            if nv:
                target[c] = nv
            else:
                target.pop(c, None)

    for int_row in _to_rows(matrix):
        row = {c: Fraction(v) for c, v in int_row.items()}
        for p in [c for c in row if c in rref]:
            subtract(row, row[p], rref[p])
        if not row:
            continue
        pcol = min(row)
        row = {c: v / row[pcol] for c, v in row.items()}
        for other in rref.values():
            f = other.get(pcol)
            if f is not None:
                subtract(other, f, row)
        rref[pcol] = row
    return rref


def assert_matches_old_routes(matrix) -> None:
    """Reduced rows, rank and kernel size against both old eliminations."""
    reduced = _reduced_rows(matrix)
    for p, row in reduced.items():
        assert p == min(row) and row[p] > 0
        assert all(type(v) is int for v in row.values())
    assert {p: {c: Fraction(v, row[p]) for c, v in row.items()}
            for p, row in reduced.items()} == fraction_gauss_jordan(matrix)
    rank = exact_rank(matrix)
    assert rank == len(reduced) == forward_integer_rank(matrix)
    assert rank + len(nullspace_basis(matrix)) == np.shape(matrix)[1]


def assert_matches_oracle(matrix) -> None:
    ncols = np.shape(matrix)[1]
    sparse = nullspace_basis(matrix)
    for vec in sparse:
        assert list(vec) == sorted(vec)
        assert all(type(v) is Fraction and v != 0 for v in vec.values())
    dense = [[vec.get(c, Fraction(0)) for c in range(ncols)] for vec in sparse]
    assert dense == dense_nullspace_basis(matrix)


def _random_matrices(count: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    for i in range(count):
        nrows = int(rng.integers(0, 9))
        ncols = int(rng.integers(0, 9))
        m = rng.integers(-3, 4, size=(nrows, ncols))
        if i % 3 == 0:  # mostly-zero rows and entries
            m = m * (rng.random((nrows, ncols)) < 0.3)
        if i % 5 == 0 and nrows:  # a duplicated row and a zero row
            m[rng.integers(nrows)] = m[rng.integers(nrows)]
            m[rng.integers(nrows)] = 0
        yield m


def test_sparse_kernel_matches_dense_oracle_on_random_matrices():
    shapes = set()
    for m in _random_matrices(500):
        assert_matches_oracle(m)
        assert_matches_old_routes(m)
        shapes.add((m.shape[0] < m.shape[1], m.shape[0] > m.shape[1],
                    m.shape[1] == 0))
    assert shapes >= {(True, False, False), (False, True, False),
                      (False, True, True)}


@pytest.mark.parametrize("shape", [(3, 5), (5, 3), (1, 1), (4, 0), (0, 4)])
def test_sparse_kernel_of_the_zero_matrix_is_the_standard_basis(shape):
    m = np.zeros(shape, dtype=np.int64)
    assert_matches_oracle(m)
    assert nullspace_basis(m) == [{c: Fraction(1)} for c in range(shape[1])]


def test_sparse_kernel_matches_dense_oracle_on_attack_incidences():
    nets = [build_cnn(n) for n in (4, 8, 16)]
    nets += [_partition_net(s) for s in range(20)]
    for net in nets:
        assert_matches_oracle(_incidence(net.layers[0]))


def test_elimination_matches_old_routes_on_simplex_blocks():
    # the Cech coboundaries that exact_rank certifies
    count = 0
    for m in range(1, 10):
        for delta in _simplex_block(m, 4).coboundaries:
            assert_matches_old_routes(delta)
            count += 1
    assert count == 45


def test_elimination_matches_old_routes_on_attack_incidences():
    nets = [build_cnn(n) for n in (4, 8, 16, 32)]
    nets += [_partition_net(s) for s in range(20)]
    for net in nets:
        for layer in net.layers:
            if isinstance(layer, InclusionLayer):
                assert_matches_old_routes(_incidence(layer))


def test_elimination_matches_old_routes_with_dependent_rows():
    rng = np.random.default_rng(50)
    for _ in range(300):
        nrows, ncols = (int(x) for x in rng.integers(1, 9, size=2))
        basis = rng.integers(-50, 51, size=(int(rng.integers(1, 5)), ncols))
        mix = rng.integers(-3, 4, size=(nrows, len(basis)))
        m = np.concatenate([basis, mix @ basis])
        m = m[rng.permutation(len(m))]
        if rng.random() < 0.5:  # entries up to 50 outside the span too
            m[0] = rng.integers(-50, 51, size=ncols)
        assert_matches_oracle(m)
        assert_matches_old_routes(m)
        assert exact_rank(m) <= len(basis) + 1


def test_sparse_kernel_rejects_non_matrices():
    with pytest.raises(ValueError):
        nullspace_basis([1, 2, 3])
    with pytest.raises(ValueError):
        exact_rank([1, 2, 3])
