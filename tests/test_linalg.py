"""The sparse exact null space against a dense rational RREF oracle."""

from fractions import Fraction

import numpy as np
import pytest

from coversheaf._linalg import nullspace_basis
from coversheaf.network import build_cnn
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


def test_sparse_kernel_rejects_non_matrices():
    with pytest.raises(ValueError):
        nullspace_basis([1, 2, 3])
