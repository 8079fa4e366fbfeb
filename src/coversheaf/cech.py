"""Cech complexes and exactness checks for Hom section spaces.

The linear sections over an open set U form Hom(R^{d_U}, R^k), of
dimension k * d_U; restriction along U inside V is precomposition with
zero padding, which on matrices is column selection.  Every coordinate
(r, p, j) of a section over a face (row r, fiber slot j of point p) maps
to the same coordinate over each smaller face, and a face carries it
exactly when all of the face's elements contain p.  The Cech complex of
a cover is therefore a direct sum over covered points p: each point
contributes k * d_p copies of the cochain complex of the full simplex on
the m_p elements that contain p (duplicate elements count twice), with
the elements in cover order so the coboundary signs agree.

Cohomology and the axiom check group the points by m_p and read one
pass that builds the simplex block of each distinct m_p once and
certifies it by exact integer elimination; dimensions and ranks of the
whole complex are the weighted sums of the blocks'.
``build_cech_complex`` still assembles the dense complex of any cover:
it indexes each degree's coordinates (face, r, p, j) once and writes
every coboundary entry directly, and tests compare the block route
against it.

Restrictions here are surjective for every nested pair (column
selection hits every coordinate), which is the flasque property; on a
finite cover this forces all higher cohomology to vanish, and the
checks below verify that with honest linear algebra rather than by
appeal to the general fact.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._linalg import exact_rank
from .topology import Cover, MarkedSpace, OpenSet, _at_least, make_cover
from .sections import open_set_dim, projection_map


def restriction_matrix(big: OpenSet, small: OpenSet, fibers: Sequence[int],
                       k: int) -> np.ndarray:
    """Matrix of Hom(R^{d_big}, R^k) -> Hom(R^{d_small}, R^k).

    Acts on row-major flattened matrices; it is a 0/1 column-selection
    operator of shape (k*d_small) x (k*d_big).  An empty ``small`` gives
    the unique map to the zero space (0 rows).
    """
    if not small.members <= big.members:
        raise ValueError("restriction requires the small set inside the big one")
    select = np.eye(open_set_dim(big.members, fibers), dtype=np.int64)[
        list(projection_map(fibers, big, small).slots)]
    return np.kron(np.eye(k, dtype=np.int64), select)


@dataclass(frozen=True)
class CechComplex:
    """Cochain dimensions ``dims[q]`` and coboundaries
    ``coboundaries[q]``: C^q -> C^{q+1} of the Hom sections on a cover."""

    dims: tuple[int, ...]
    coboundaries: tuple[np.ndarray, ...]


def build_cech_complex(cover: Cover, fibers: Sequence[int], k: int,
                       max_degree: int) -> CechComplex:
    """Assemble cochain spaces and coboundaries up to C^{max_degree+1}.

    A coordinate of C^q is (face, r, p, j), row r and fiber slot j of a
    point p of the face: faces in lexicographic order, then rows, then
    slots in point order.  Degrees beyond the cover size contribute zero
    spaces, so requesting a high degree is safe.
    """
    memberships = cover.memberships()
    index: list[dict[tuple, int]] = []
    for q in range(max_degree + 2):
        coords: dict[tuple, int] = {}
        for face in itertools.combinations(range(len(memberships)), q + 1):
            points = sorted(frozenset.intersection(
                *(memberships[i] for i in face)))
            for r in range(k):
                for p in points:
                    for j in range(int(fibers[p - 1])):
                        coords[face, r, p, j] = len(coords)
        index.append(coords)

    deltas: list[np.ndarray] = []
    for low, high in zip(index, index[1:]):
        mat = np.zeros((len(high), len(low)), dtype=np.int64)
        for (T, r, p, j), row in high.items():
            for t in range(len(T)):
                mat[row, low[T[:t] + T[t + 1:], r, p, j]] = (-1) ** t
        deltas.append(mat)
    return CechComplex(dims=tuple(len(c) for c in index),
                       coboundaries=tuple(deltas))


def _point_blocks(cover: Cover, fibers: Sequence[int], k: int) -> dict[int, int]:
    """Map each multiplicity m to the sum of k * d_p over covered points p
    lying in exactly m elements of the cover."""
    mult = Counter(p for members in cover.memberships() for p in members)
    weights: dict[int, int] = {}
    for p, m in mult.items():
        weights[m] = weights.get(m, 0) + k * int(fibers[p - 1])
    return weights


def _simplex_block(m: int, max_degree: int) -> CechComplex:
    """Cech complex of m copies of a one-point, fiber-1 element, k = 1."""
    point = MarkedSpace(n_points=1, fiber_dims=(1,))
    return build_cech_complex(make_cover(point, [[1]] * m), (1,), 1,
                              max_degree)


def _rank(matrix: np.ndarray) -> int:
    return exact_rank(matrix) if matrix.size else 0


@dataclass(frozen=True)
class ExactnessReport:
    """Result of the two-sided section-space axiom check on one cover."""

    cover_id: str
    dim_global: int
    dim_product: int
    dim_pairwise: int
    rank_restriction: int
    rank_delta0: int
    injective: bool
    exact_middle: bool
    composition_zero: bool
    cosheaf_coker_dim: int
    passed: bool

    def to_json(self) -> dict:
        return {
            "cover_id": self.cover_id,
            "dims": [self.dim_global, self.dim_product, self.dim_pairwise],
            "rank_restriction": self.rank_restriction,
            "rank_delta0": self.rank_delta0,
            "injective": self.injective,
            "exact_middle": self.exact_middle,
            "composition_zero": self.composition_zero,
            "cosheaf_coker_dim": self.cosheaf_coker_dim,
            "passed": self.passed,
        }


def _block_pass(cover: Cover, fibers: Sequence[int], k: int, max_degree: int
                ) -> tuple[list[int], list[int], ExactnessReport]:
    """h^0..h^max_degree, the cochain dimensions of the same degrees and
    the axiom check of one cover, from one build of each simplex block.

    Dimensions and coboundary ranks are weighted sums over the blocks;
    so are the axiom quantities, which on a block on m elements are the
    ranks of the m x 1 all-ones restriction column and of its transpose,
    and delta_0 applied to that column.
    """
    k, max_degree = _at_least("k", k), _at_least("max_degree", max_degree, 0)
    weights = _point_blocks(cover, fibers, k)
    dims = [0] * (max_degree + 2)
    ranks = [0] * (max_degree + 1)
    rank_first = rank_ext = 0
    composition_zero = True
    for m, weight in weights.items():
        block = _simplex_block(m, max_degree)
        for q, d in enumerate(block.dims):
            dims[q] += weight * d
        for q, delta in enumerate(block.coboundaries):
            ranks[q] += weight * _rank(delta)
        first = np.ones((m, 1), dtype=np.int64)
        rank_first += weight * _rank(first)
        rank_ext += weight * _rank(first.T)
        composition_zero = composition_zero and \
            not np.any(block.coboundaries[0] @ first)
    h = [dims[q] - ranks[q] - (ranks[q - 1] if q else 0)
         for q in range(max_degree + 1)]

    dim_global = sum(weights.values())
    injective = rank_first == dim_global
    exact_middle = composition_zero and dims[0] - ranks[0] == rank_first
    coker = dim_global - rank_ext
    report = ExactnessReport(
        cover_id=";".join(el.id for el in cover.elements),
        dim_global=dim_global,
        dim_product=dims[0],
        dim_pairwise=dims[1],
        rank_restriction=rank_first,
        rank_delta0=ranks[0],
        injective=injective,
        exact_middle=exact_middle,
        composition_zero=composition_zero,
        cosheaf_coker_dim=coker,
        passed=injective and exact_middle and coker == 0,
    )
    return h, dims[:max_degree + 1], report


def cech_cohomology(cover: Cover, fibers: Sequence[int], k: int,
                    max_degree: int = 1) -> list[int]:
    """Dimensions h^0..h^max_degree, via exact integer ranks.

    h^q = dim ker(delta_q) - rank(delta_{q-1}), summed over the
    per-point simplex blocks.
    """
    return _block_pass(cover, fibers, k, max_degree)[0]


def sheaf_axiom_check(cover: Cover, fibers: Sequence[int], k: int) -> ExactnessReport:
    """Verify both halves of the gluing axiom for Hom sections.

    Checks that the joint restriction to the cover elements is
    injective, that its image is exactly the kernel of the pairwise
    difference map, and (for the extension direction) that the sum of
    zero-padded inclusions surjects onto the sections over the union.
    Each check runs on the per-point simplex blocks, where the joint
    restriction is the all-ones column and its transpose the sum of
    inclusions.
    """
    return _block_pass(cover, fibers, k, max_degree=0)[2]


def hom_report_json(cover_index: int, h: list[int], dims: list[int]) -> dict:
    """Cohomology report entry: {"cover_id", "h", "dims", "exact"}."""
    return {"cover_id": cover_index, "h": h, "dims": dims,
            "exact": all(x == 0 for x in h[1:])}
