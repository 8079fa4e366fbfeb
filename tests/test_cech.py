"""Cochain ranks, exactness and the dual rank certification routes."""

import numpy as np
import pytest

from coversheaf.topology import MarkedSpace, OpenSet, make_cover
from coversheaf.cech import (build_cech_complex, cech_cohomology,
                             flasque_check, hom_report_json, rank_cross_check,
                             restriction_matrix, sheaf_axiom_check)
from coversheaf._linalg import exact_rank, float_rank, nullspace_basis


def space(n, fibers=None):
    return MarkedSpace(n_points=n, fiber_dims=fibers or (1,) * n,
                       structure=("abstract",))


def test_restriction_matrix_selects_columns():
    big = OpenSet(id="b", members=frozenset({1, 2, 3}))
    small = OpenSet(id="s", members=frozenset({1, 3}))
    m = restriction_matrix(big, small, (1, 1, 1), 1)
    assert m.tolist() == [[1, 0, 0], [0, 0, 1]]
    m2 = restriction_matrix(big, small, (1, 1, 1), 2)
    assert m2.shape == (4, 6)
    with pytest.raises(ValueError):
        restriction_matrix(small, big, (1, 1, 1), 1)


def test_two_disjoint_elements():
    cov = make_cover(space(2), [[1], [2]])
    assert cech_cohomology(cov, (1, 1), 1) == [2, 0]
    assert cech_cohomology(cov, (1, 1), 2) == [4, 0]
    assert sheaf_axiom_check(cov, (1, 1), 1).passed


def test_chain_cover_ranks():
    cov = make_cover(space(3), [[1, 2], [2, 3]])
    cx = build_cech_complex(cov, (1, 1, 1), 1, max_degree=1)
    assert cx.dims[0] == 4 and cx.dims[1] == 1
    assert exact_rank(cx.coboundaries[0]) == 1
    assert cech_cohomology(cov, (1, 1, 1), 1, max_degree=3) == [3, 0, 0, 0]


def test_triangle_cover_exactness_report():
    cov = make_cover(space(3), [[1, 2], [2, 3], [1, 3]])
    assert cech_cohomology(cov, (1, 1, 1), 1, max_degree=2) == [3, 0, 0]
    rep = sheaf_axiom_check(cov, (1, 1, 1), 1)
    assert rep.dim_global == 3
    assert rep.dim_product == 6
    assert rep.dim_pairwise == 3
    assert rep.rank_restriction == 3
    assert rep.injective and rep.exact_middle and rep.composition_zero
    assert rep.cosheaf_coker_dim == 0
    assert rep.passed
    doc = rep.to_json()
    assert doc["dims"] == [3, 6, 3]


def test_coboundary_squares_to_zero():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 5))
        mems = []
        while len(mems) < m:
            pick = [p for p in range(1, n + 1) if rng.random() < 0.6]
            if pick:
                mems.append(pick)
        fibers = tuple(int(rng.integers(1, 3)) for _ in range(n))
        cov = make_cover(space(n, fibers), mems)
        cx = build_cech_complex(cov, fibers, 1, max_degree=2)
        d0, d1 = cx.coboundaries[0], cx.coboundaries[1]
        if d0.size and d1.size:
            assert not (d1 @ d0).any()


def test_higher_degrees_are_zero_spaces():
    cov = make_cover(space(2), [[1, 2]])
    assert cech_cohomology(cov, (1, 1), 1, max_degree=4) == [2, 0, 0, 0, 0]


def test_flasque_restrictions():
    big = OpenSet(id="b", members=frozenset({1, 2, 3}))
    mid = OpenSet(id="m", members=frozenset({1, 3}))
    pt = OpenSet(id="p", members=frozenset({2}))
    empty = OpenSet(id="e", members=frozenset())
    out = flasque_check((1, 1, 1), 2, [(big, mid), (big, pt), (mid, empty)])
    assert out == [True, True, True]


def test_rank_cross_check_agrees():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = rng.integers(-4, 5, size=(int(rng.integers(1, 7)),
                                      int(rng.integers(1, 7))))
        exact, approx = rank_cross_check(m)
        assert exact == approx == exact_rank(m)
        assert float_rank(m) == exact


def test_nullspace_basis_exact():
    basis = nullspace_basis([[1, 1, 0, 0], [0, 0, 1, 1]])
    assert len(basis) == 2
    arr = np.zeros((len(basis), 4))
    for i, vec in enumerate(basis):
        for c, v in vec.items():
            arr[i, c] = float(v)
    assert not (np.array([[1, 1, 0, 0], [0, 0, 1, 1]]) @ arr.T).any()
    assert nullspace_basis([[1, 0], [0, 1]]) == []


def test_hom_report_json():
    doc = hom_report_json(2, [3, 0, 0], [6, 3, 0])
    assert doc == {"cover_id": 2, "h": [3, 0, 0], "dims": [6, 3, 0],
                   "exact": True}
    assert not hom_report_json(0, [2, 1], [4, 2])["exact"]
