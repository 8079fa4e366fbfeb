"""Cochain ranks, exactness and the dual rank certification routes."""

import numpy as np
import pytest

from coversheaf.topology import MarkedSpace, OpenSet, make_cover
from coversheaf.cech import (ExactnessReport, _block_pass,
                             build_cech_complex, cech_cohomology,
                             hom_report_json, restriction_matrix,
                             sheaf_axiom_check)
from coversheaf._linalg import exact_rank, nullspace_basis
from test_acceptance import sweep_covers


def float_rank(matrix, tol: float = 1e-9) -> int:
    """Rank estimate from singular values above ``tol``: an independent
    floating-point route to check the exact rank against."""
    a = np.asarray(matrix, dtype=float)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > tol))


def flasque_check(fibers, k, pairs) -> list[bool]:
    """Surjectivity of restriction for nested pairs (big, small): full
    row rank of the restriction matrix, certified exactly."""
    out = []
    for big, small in pairs:
        m = restriction_matrix(big, small, fibers, k)
        out.append(exact_rank(m) == m.shape[0])
    return out


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
        assert exact_rank(m) == float_rank(m)


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


# ---------------------------------------------------------------------------
# the assembled dense complex: the oracle for the per-point block route


def dense_cohomology(cover, fibers, k, max_degree):
    """h and dims from exact ranks of the whole cover's coboundaries."""
    cx = build_cech_complex(cover, fibers, k, max_degree)
    ranks = [exact_rank(d) if d.size else 0 for d in cx.coboundaries]
    h = [cx.dims[q] - ranks[q] - (ranks[q - 1] if q else 0)
         for q in range(len(ranks))]
    return h, list(cx.dims[:max_degree + 1])


def dense_axiom_check(cover, fibers, k):
    """The two-sided axiom check on the assembled restriction and delta0."""
    fibers = tuple(int(f) for f in fibers)
    U = OpenSet(id="union", members=cover.covered)
    dim_global = k * sum(fibers[p - 1] for p in U.members)
    first = np.concatenate(
        [restriction_matrix(U, el, fibers, k) for el in cover.elements])
    cx = build_cech_complex(cover, fibers, k, max_degree=1)
    delta0 = cx.coboundaries[0]
    rank_first = exact_rank(first) if first.size else 0
    rank_delta0 = exact_rank(delta0) if delta0.size else 0
    comp = delta0 @ first if (delta0.size and first.size) else np.zeros((1, 1))
    composition_zero = not np.any(comp)
    exact_middle = (composition_zero
                    and first.shape[0] - rank_delta0 == rank_first)
    coker = dim_global - (exact_rank(first.T) if first.size else 0)
    injective = rank_first == dim_global
    return ExactnessReport(
        cover_id=";".join(el.id for el in cover.elements),
        dim_global=dim_global, dim_product=first.shape[0],
        dim_pairwise=cx.dims[1], rank_restriction=rank_first,
        rank_delta0=rank_delta0, injective=injective,
        exact_middle=exact_middle, composition_zero=composition_zero,
        cosheaf_coker_dim=coker,
        passed=injective and exact_middle and coker == 0)


def random_oracle_covers(count=300, seed=2014):
    """Covers of up to 5 points and 5 elements with empty and duplicate
    elements and uncovered points, fibers 1-3, k 1-3, degrees 0-5."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 6))
        fibers = tuple(int(x) for x in rng.integers(1, 4, size=n))
        mems = []
        for _ in range(int(rng.integers(1, 6))):
            roll = rng.random()
            if roll < 0.1:
                mems.append([])
            elif roll < 0.25 and mems:
                mems.append(mems[int(rng.integers(len(mems)))])
            else:
                mems.append([p for p in range(1, n + 1) if rng.random() < 0.6])
        yield (make_cover(space(n, fibers), mems), int(rng.integers(1, 4)),
               int(rng.integers(0, 6)))


def oracle_cases():
    for cover, k in sweep_covers():
        yield cover, k, 3
    yield from random_oracle_covers()


def test_point_blocks_match_the_assembled_complex():
    count = 0
    for cover, k, degree in oracle_cases():
        fibers = cover.space.fiber_dims
        want_h, want_dims = dense_cohomology(cover, fibers, k, degree)
        want_axioms = dense_axiom_check(cover, fibers, k)
        assert _block_pass(cover, fibers, k, degree) == \
            (want_h, want_dims, want_axioms)
        assert cech_cohomology(cover, fibers, k, degree) == want_h
        assert sheaf_axiom_check(cover, fibers, k) == want_axioms
        count += 1
    assert count >= 389


def test_complement_cover_at_14_points():
    n = 14
    cov = make_cover(space(n), [[p for p in range(1, n + 1) if p != q]
                                for q in range(1, n + 1)])
    assert cech_cohomology(cov, (1,) * n, 1, max_degree=5) == [14, 0, 0, 0, 0, 0]
    assert sheaf_axiom_check(cov, (1,) * n, 1).passed
