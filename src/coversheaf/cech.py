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
it builds the blocks, and tests compare the block route against it.

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
from .topology import Cover, MarkedSpace, OpenSet, make_cover
from .sections import open_set_dim, slot_layout


def restriction_matrix(big: OpenSet, small: OpenSet, fibers: Sequence[int],
                       k: int) -> np.ndarray:
    """Matrix of Hom(R^{d_big}, R^k) -> Hom(R^{d_small}, R^k).

    Acts on row-major flattened matrices; it is a 0/1 column-selection
    operator of shape (k*d_small) x (k*d_big).  An empty ``small`` gives
    the unique map to the zero space (0 rows).
    """
    if not small.members <= big.members:
        raise ValueError("restriction requires the small set inside the big one")
    d_big = open_set_dim(big.members, fibers)
    d_small = open_set_dim(small.members, fibers)
    big_slots = slot_layout(big.members, fibers)
    cols: list[int] = []
    for p in sorted(small.members):
        cols.extend(big_slots[p])
    out = np.zeros((k * d_small, k * d_big), dtype=np.int64)
    for r in range(k):
        for t, c in enumerate(cols):
            out[r * d_small + t, r * d_big + c] = 1
    return out


@dataclass(frozen=True)
class CechComplex:
    """Cochain data of the Hom sections on a cover.

    ``blocks[q]`` lists the sorted element-index tuples of size q+1 in
    lexicographic order, ``dims[q]`` the total cochain dimension, and
    ``coboundaries[q]`` the matrix C^q -> C^{q+1}.
    """

    cover: Cover
    fibers: tuple[int, ...]
    k: int
    blocks: tuple[tuple[tuple[int, ...], ...], ...]
    dims: tuple[int, ...]
    coboundaries: tuple[np.ndarray, ...]


def _face_members(memberships, combo) -> frozenset[int]:
    out = memberships[combo[0]]
    for i in combo[1:]:
        out = out & memberships[i]
    return out


def build_cech_complex(cover: Cover, fibers: Sequence[int], k: int,
                       max_degree: int) -> CechComplex:
    """Assemble cochain spaces and coboundaries up to C^{max_degree+1}.

    Degrees beyond the cover size contribute zero spaces, so requesting
    a high degree is safe.
    """
    fibers = tuple(int(f) for f in fibers)
    memberships = cover.memberships()
    n = len(memberships)
    top = max_degree + 1

    blocks: list[tuple[tuple[int, ...], ...]] = []
    dims: list[int] = []
    offsets: list[dict[tuple[int, ...], int]] = []
    face_dims: list[dict[tuple[int, ...], int]] = []
    for q in range(top + 1):
        combos = tuple(itertools.combinations(range(n), q + 1))
        off: dict[tuple[int, ...], int] = {}
        fd: dict[tuple[int, ...], int] = {}
        pos = 0
        for c in combos:
            d = open_set_dim(_face_members(memberships, c), fibers)
            off[c] = pos
            fd[c] = d
            pos += k * d
        blocks.append(combos)
        dims.append(pos)
        offsets.append(off)
        face_dims.append(fd)

    def face_open(combo) -> OpenSet:
        return OpenSet(id="::".join(str(i) for i in combo) or "empty",
                       members=_face_members(memberships, combo))

    deltas: list[np.ndarray] = []
    for q in range(top):
        mat = np.zeros((dims[q + 1], dims[q]), dtype=np.int64)
        for T in blocks[q + 1]:
            t_open = face_open(T)
            for t in range(len(T)):
                S = T[:t] + T[t + 1:]
                block = restriction_matrix(face_open(S), t_open, fibers, k)
                sign = 1 if t % 2 == 0 else -1
                r0, c0 = offsets[q + 1][T], offsets[q][S]
                mat[r0:r0 + block.shape[0], c0:c0 + block.shape[1]] += sign * block
        deltas.append(mat)

    return CechComplex(cover=cover, fibers=fibers, k=k,
                       blocks=tuple(blocks[:top + 1]), dims=tuple(dims[:top + 1]),
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
