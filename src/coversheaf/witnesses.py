"""Witness generators: concrete certificates for the structural claims.

Every generator produces a WitnessReport whose ``claim`` field is a
stable report identifier (part of the CLI wire format).  Reports carry
the measured quantities alongside the verdict so that a failing run is
diagnosable from the JSON alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._linalg import nullspace_basis
from .topology import Cover, OpenSet, _at_least, _plain, proper_unions
from .sections import (Affine, Const, Node, Section, Sum, _accumulate,
                       affine_section, compose_coord, coord_map, evaluate,
                       open_set_dim, polynomial_coefficients,
                       polynomial_section, product_counterexample,
                       projection_map, sections_equal, slot_layout,
                       zero_pad_map, zero_section, ACTIVATIONS)
from .network import (ForwardResult, InclusionLayer, Network, build_cnn,
                      forward)

CLAIM_IDS = ("prop2.8-locality", "prop2.8-surjectivity", "rem2.9-glue",
             "rem2.9-kernel", "thm4.1", "thm4.2", "thm4.3")


@dataclass(frozen=True)
class WitnessReport:
    claim: str
    verdict: bool
    inputs: dict
    measured: dict
    seed: int | None = None

    def __post_init__(self):
        if self.claim not in CLAIM_IDS:
            raise ValueError(f"unknown claim id {self.claim!r}")

    def to_json(self) -> dict:
        return {"schema": 1, **_plain(self)}


def _union_open(cover: Cover) -> OpenSet:
    return OpenSet(id="union", members=cover.covered)


def _qualifying(cover: Cover) -> None:
    for el in cover.elements:
        if not (cover.covered - el.members):
            raise ValueError(
                f"element {el.id} contains every covered point; "
                "the locality witness needs each element to miss one")


# ---------------------------------------------------------------------------
# locality and surjectivity failure


def locality_witness(cover: Cover, fibers: Sequence[int], k: int,
                     n_samples: int = 100, seed: int = 0
                     ) -> tuple[Section, WitnessReport]:
    """The coordinate-product section and its restriction-to-zero audit.

    Returns h with h(y) = (prod of all coordinates, ..., k times) over
    the union, checks that it restricts to the exactly-zero section on
    every cover element, and exhibits a second global section g such
    that g and g + h restrict identically everywhere yet differ at the
    all-ones input.
    """
    k, n_samples = _at_least("k", k), _at_least("n_samples", n_samples)
    _qualifying(cover)
    U = _union_open(cover)
    d_U = open_set_dim(U.members, fibers)
    h = product_counterexample(U, fibers, k)

    restriction_devs = []
    for el in cover.elements:
        r = compose_coord(h, zero_pad_map(fibers, el, U))
        res = sections_equal(r, zero_section(r.domain_dim, k),
                             n_samples=n_samples, tol=0.0, seed=seed)
        restriction_devs.append(res.max_deviation)

    ones = np.ones(d_U)
    h_ones = float(np.max(np.abs(evaluate(h, ones))))

    g = affine_section(np.ones((k, d_U)), domain=U)
    gh = Section(domain_dim=d_U, codomain_dim=k,
                 body=Sum((g.body, h.body)), domain=U)
    pair_devs = []
    for el in cover.elements:
        pad = zero_pad_map(fibers, el, U)
        res = sections_equal(compose_coord(g, pad), compose_coord(gh, pad),
                             n_samples=n_samples, tol=0.0, seed=seed)
        pair_devs.append(res.max_deviation)
    global_diff = float(np.max(np.abs(evaluate(gh, ones) - evaluate(g, ones))))

    verdict = (max(restriction_devs) == 0.0 and h_ones == 1.0
               and max(pair_devs) == 0.0 and global_diff == 1.0)
    report = WitnessReport(
        claim="prop2.8-locality", verdict=verdict, seed=seed,
        inputs={"memberships": [sorted(el.members) for el in cover.elements],
                "fibers": list(fibers), "k": k, "n_samples": n_samples},
        measured={"restriction_deviations": restriction_devs,
                  "h_at_ones_norm": h_ones,
                  "pair_restriction_deviations": pair_devs,
                  "global_difference_at_ones": global_diff})
    return h, report


def multi_mixed_difference(section: Section, slots: Sequence[int], base,
                           h: float) -> np.ndarray:
    """Alternating finite difference over several coordinates at once.

    sum over subsets T of slots of (-1)^(|slots|-|T|) f(base + h on T).
    Zero for any sum of terms each missing one of the slots.
    """
    slots = list(slots)
    if len(set(slots)) != len(slots):
        raise ValueError("slots must be distinct")
    n = len(slots)
    # the subsets T by size, each size in lexicographic order: slot t
    # weighs 2^(n-1-t), so a lexicographically earlier T is a larger int
    masks = np.arange(2 ** n)
    bits = (masks[:, None] >> np.arange(n - 1, -1, -1)) & 1
    sizes = bits.sum(axis=1)
    order = np.lexsort((-masks, sizes))
    pts = np.tile(np.asarray(base, dtype=float), (2 ** n, 1))
    pts[:, slots] += h * bits[order]
    signs = (-1) ** (n - sizes[order])
    vals = evaluate(section, pts)
    return sum(s * v for s, v in zip(signs.tolist(), vals))


def exact_mixed_difference(coeffs: Sequence[dict[tuple[int, ...], Fraction]],
                           slots: Sequence[int], base, h) -> list[Fraction]:
    """multi_mixed_difference of a polynomial, exactly, per output.

    The alternating sum over subsets of ``slots`` factors monomial by
    monomial: for c * x^m it is
    c * prod_{s in slots} ((b_s + h)^m_s - b_s^m_s) * prod_{j not in slots} b_j^m_j,
    evaluated in Fractions, so no 2^|slots| evaluations are needed.
    """
    probe = set(slots)
    if len(probe) != len(slots):
        raise ValueError("slots must be distinct")
    b = [Fraction(x) for x in base]
    h = Fraction(h)
    out = []
    for poly in coeffs:
        total = Fraction(0)
        for mono, c in poly.items():
            for j, e in enumerate(mono):
                if j in probe:
                    c *= (b[j] + h) ** e - b[j] ** e
                elif e:
                    c *= b[j] ** e
                if not c:
                    break
            total += c
        out.append(total)
    return out


def _seeded_polynomial(domain_dim: int, k: int, rng, max_degree: int = 2,
                       n_terms: int = 3) -> Section:
    """A random polynomial section with small integer coefficients."""
    coeffs = [dict() for _ in range(k)]
    for _ in range(n_terms):
        mono = [0] * domain_dim
        for _ in range(int(rng.integers(0, max_degree + 1))):
            mono[int(rng.integers(0, domain_dim))] += 1
        key = tuple(mono)
        for s in range(k):
            c = int(rng.integers(-3, 4))
            if c:
                coeffs[s][key] = coeffs[s].get(key, Fraction(0)) + c
    for s in range(k):
        coeffs[s] = {m: c for m, c in coeffs[s].items() if c}
    return polynomial_section(domain_dim, k, coeffs)


def surjectivity_witness(cover: Cover, fibers: Sequence[int], k: int,
                         n_trials: int = 20, seed: int = 0) -> WitnessReport:
    """No sum of per-element pullbacks can equal the coordinate product.

    Any section of the form sum_alpha g_alpha(projection to U_alpha)
    has vanishing alternating difference over one slot per covered
    point, because each term misses at least one point.  The product
    section has alternating difference exactly 1, so it lies outside
    the image of the extension sum.  The vanishing is certified exactly,
    from the coefficients of seeded random separable sections
    (``exact_mixed_difference``); the product value is exact too, since
    it evaluates products of 0s and 1s.
    """
    k, n_trials = _at_least("k", k), _at_least("n_trials", n_trials)
    _qualifying(cover)
    U = _union_open(cover)
    d_U = open_set_dim(U.members, fibers)
    layout = slot_layout(U.members, fibers)
    probe_slots = [r[0] for r in layout.values()]

    # base: ones everywhere except the probed slots, so the only nonzero
    # term of the alternating sum is the all-slots-bumped product = 1
    base = np.ones(d_U)
    base[probe_slots] = 0.0
    h = product_counterexample(U, fibers, k)
    target = multi_mixed_difference(h, probe_slots, base, 1.0)
    target_val = float(np.max(np.abs(target)))

    rng = np.random.default_rng(seed)
    worst = Fraction(0)
    for _ in range(n_trials):
        parts = []
        for el in cover.elements:
            d_a = open_set_dim(el.members, fibers)
            if d_a == 0:
                continue  # constants have zero alternating difference
            g = _seeded_polynomial(d_a, k, rng)
            parts.append(compose_coord(g, projection_map(fibers, U, el)).body)
        if not parts:
            continue
        sep = Section(domain_dim=d_U, codomain_dim=k,
                      body=parts[0] if len(parts) == 1 else Sum(tuple(parts)))
        diff = exact_mixed_difference(polynomial_coefficients(sep),
                                      probe_slots, base, 1)
        worst = max(worst, *map(abs, diff))

    verdict = target_val == 1.0 and worst == 0
    return WitnessReport(
        claim="prop2.8-surjectivity", verdict=verdict, seed=seed,
        inputs={"memberships": [sorted(el.members) for el in cover.elements],
                "fibers": list(fibers), "k": k, "n_trials": n_trials},
        measured={"product_alternating_difference": target_val,
                  "max_separable_alternating_difference": float(worst),
                  "probe_slots": probe_slots})


# ---------------------------------------------------------------------------
# gluing


class IncompatibleLocalsError(ValueError):
    """Raised when local sections disagree on an overlap."""

    def __init__(self, pair: tuple[int, int], deviation: float):
        self.pair = pair
        self.deviation = deviation
        super().__init__(
            f"locals {pair[0]} and {pair[1]} disagree on their overlap "
            f"(max deviation {deviation:.3e})")


def _local_family(locals_: Sequence[Section], cover: Cover) -> int:
    """The codomain dimension shared by one local per cover element,
    each over its element's coordinates (else ValueError)."""
    mems = cover.memberships()
    if len(locals_) != len(mems):
        raise ValueError("one local section per cover element required")
    ks = {s.codomain_dim for s in locals_}
    if len(ks) != 1:
        raise ValueError("locals must share a codomain dimension")
    for i, s in enumerate(locals_):
        want = open_set_dim(mems[i], cover.space.fiber_dims)
        if s.domain_dim != want:
            raise ValueError(f"local {i} has domain dim {s.domain_dim}, "
                             f"expected {want}")
    return ks.pop()


def inclusion_exclusion_faces(mems: Sequence[frozenset[int]]
                              ) -> dict[frozenset[int], int]:
    """Face -> integer coefficient of the inclusion-exclusion expansion.

    Equal to the sum over nonempty element subsets S of
    (-1)^(|S|+1) [intersection of S], but folded one element at a time,
    IE_i = IE_{i-1} + [M_i] - (IE_{i-1} meet M_i), with equal faces
    merged and zero coefficients dropped, so its size is the number of
    distinct faces rather than 2^n.
    """
    ie: dict[frozenset[int], int] = {}
    for m in mems:
        nxt = dict(ie)
        _accumulate(nxt, m, 1)
        for face, c in ie.items():
            _accumulate(nxt, face & m, -c)
        ie = nxt
    return ie


def glue_inclusion_exclusion(locals_: Sequence[Section], cover: Cover,
                             tol: float = 1e-9, n_samples: int = 100,
                             seed: int = 0) -> Section:
    """Glue pairwise-compatible locals by inclusion-exclusion over faces.

    The glued section is the alternating sum, over nonempty element
    subsets S, of the common restriction to the face of S extended by
    projection pullback to the union.  Restricting the result back to
    each element (zero-pad precomposition) reproduces the local there.

    Subsets with the same face are merged first
    (``inclusion_exclusion_faces``): each face with a nonzero
    coefficient c contributes one term, c times the restriction from the
    first element containing it, so a chain of n elements needs about 2n
    terms instead of 2^n.  An empty-membership face carries the constant
    f(0), and the telescoping identity behind the formula needs those
    constants, so it is kept whenever its coefficient is nonzero.

    Compatibility is checked extensionally on every pairwise overlap,
    including empty-membership overlaps, where both sides must take the
    same value at the zero input.  Incompatible input raises
    IncompatibleLocalsError with the first offending pair (by maximal
    deviation) recorded.
    """
    k = _local_family(locals_, cover)
    fibers = cover.space.fiber_dims
    mems = cover.memberships()
    n = len(mems)

    worst_pair = None
    worst_dev = -1.0
    for i, j in itertools.combinations(range(n), 2):
        w = OpenSet(id=f"overlap{i}.{j}", members=mems[i] & mems[j])
        ri = compose_coord(locals_[i], zero_pad_map(fibers, w, cover.elements[i]))
        rj = compose_coord(locals_[j], zero_pad_map(fibers, w, cover.elements[j]))
        res = sections_equal(ri, rj, n_samples=n_samples, tol=tol, seed=seed)
        if not res.equal and res.max_deviation > worst_dev:
            worst_dev = res.max_deviation
            worst_pair = (i, j)
    if worst_pair is not None:
        raise IncompatibleLocalsError(worst_pair, worst_dev)

    U = _union_open(cover)
    terms: list[Node] = []
    for face, c in inclusion_exclusion_faces(mems).items():
        first = next(i for i, m in enumerate(mems) if face <= m)
        # restriction to the face, then pullback to U, as one map
        pull = coord_map(fibers, U, cover.elements[first], face)
        term = compose_coord(locals_[first], pull).body
        if c != 1:
            term = Affine(tuple(tuple(float(c) if i == j else 0.0 for j in range(k))
                                for i in range(k)), (0.0,) * k, term)
        terms.append(term)
    body = terms[0] if len(terms) == 1 else Sum(tuple(terms))
    return Section(domain_dim=open_set_dim(U.members, fibers), codomain_dim=k,
                   body=body, domain=U)


def glue_report(cover: Cover, k: int = 1, tol: float = 1e-9,
                n_samples: int = 100, seed: int = 0) -> WitnessReport:
    """Round-trip gluing audit on a seeded compatible family.

    Builds a hidden polynomial global section, restricts it to the
    cover, reglues, and measures the restriction deviations; then
    perturbs one local on a nonempty overlap and confirms the rejection
    names an overlapping pair.
    """
    k, n_samples = _at_least("k", k), _at_least("n_samples", n_samples)
    fibers = cover.space.fiber_dims
    rng = np.random.default_rng(seed)
    U = _union_open(cover)
    if not U.members:
        raise ValueError("nothing to glue: the cover covers no point")
    d_U = open_set_dim(U.members, fibers)
    hidden = _seeded_polynomial(d_U, k, rng)
    locals_ = [compose_coord(hidden, zero_pad_map(fibers, el, U))
               for el in cover.elements]
    glued = glue_inclusion_exclusion(locals_, cover, tol=tol,
                                     n_samples=n_samples, seed=seed)
    devs = []
    for el, loc in zip(cover.elements, locals_):
        back = compose_coord(glued, zero_pad_map(fibers, el, U))
        devs.append(sections_equal(back, loc, n_samples=n_samples,
                                   tol=tol, seed=seed).max_deviation)

    # rejection path: bump one local on an overlap
    rejected = None
    overlap_pair = next(
        ((i, j) for i, j in itertools.combinations(range(len(locals_)), 2)
         if cover.elements[i].members & cover.elements[j].members), None)
    if overlap_pair is not None:
        i, _ = overlap_pair
        bumped = list(locals_)
        bumped[i] = Section(
            domain_dim=locals_[i].domain_dim, codomain_dim=k,
            body=Sum((locals_[i].body, Const((1.0,) * k))),
            domain=locals_[i].domain)
        try:
            glue_inclusion_exclusion(bumped, cover, tol=tol,
                                     n_samples=n_samples, seed=seed)
        except IncompatibleLocalsError as e:
            rejected = {"pair": list(e.pair), "deviation": e.deviation,
                        "names_bumped_local": i in e.pair}

    verdict = max(devs) <= tol and (overlap_pair is None or
                                    (rejected is not None and
                                     rejected["names_bumped_local"]))
    return WitnessReport(
        claim="rem2.9-glue", verdict=verdict, seed=seed,
        inputs={"memberships": [sorted(el.members) for el in cover.elements],
                "k": k, "tol": tol, "n_samples": n_samples},
        measured={"restriction_deviations": devs, "rejection": rejected})


# ---------------------------------------------------------------------------
# zero-sum kernel decomposition


class KernelPremiseError(ValueError):
    """Raised when the locals do not form a zero-sum family."""

    def __init__(self, message: str, monomial=None):
        self.monomial = monomial
        super().__init__(message)


def _global_monomial(mono, layout: dict[int, range]) -> tuple:
    """A local exponent vector as its sorted ((point, offset), exponent)
    pairs, with the local slots placed by ``layout``."""
    return tuple(((p, j), mono[s]) for p, slots in layout.items()
                 for j, s in enumerate(slots) if mono[s])


def cosheaf_kernel_decompose(locals_: Sequence[Section], cover: Cover
                             ) -> dict[tuple[int, int], Section]:
    """Split a zero-sum polynomial family into antisymmetric pairwise parts.

    Input: one polynomial section per cover element whose zero-padded
    extensions sum to zero on the union (checked coefficient-exactly).
    Output: sections f[(i, j)] over the pairwise overlaps, for all
    ordered pairs, with f[(j, i)] = -f[(i, j)] and, for every element
    a, f_a = sum over b of the extension of f[(a, b)] to U_a, exactly
    on coefficients.

    The split works monomial by monomial: the coefficient vectors of a
    monomial across the elements able to carry it sum to zero, so their
    running prefix sums define telescoping pairwise parts supported on
    consecutive overlaps.  A monomial carried by a single element with
    a nonzero coefficient contradicts the premise and is reported.
    """
    k = _local_family(locals_, cover)
    fibers = cover.space.fiber_dims
    mems = cover.memberships()

    # global monomial -> per-element coefficient vectors; ``left`` holds
    # each (element, monomial, output slot) coefficient the pairwise
    # parts must still reconstruct
    table: dict[tuple, dict[int, list[Fraction]]] = {}
    left: dict[tuple, Fraction] = {}
    for a, local in enumerate(locals_):
        layout = slot_layout(mems[a], fibers)
        for s, poly in enumerate(polynomial_coefficients(local)):
            for mono, c in poly.items():
                key = _global_monomial(mono, layout)
                vec = table.setdefault(key, {}).setdefault(a, [Fraction(0)] * k)
                vec[s] = c
                left[(a, key, s)] = c

    # each monomial's telescoping prefix sums, by consecutive pair of
    # the elements able to carry it; every stored vector is nonzero and
    # its element carries the monomial, so a zero sum means at least
    # two such elements
    parts: dict[tuple[int, int], list[tuple[tuple, list[Fraction]]]] = {}
    for key, vecs in table.items():
        if any(sum(col) for col in zip(*vecs.values())):
            raise KernelPremiseError(
                "extended locals do not sum to zero", monomial=key)
        support = {p for (p, _off), _e in key}
        allowed = [a for a, m in enumerate(mems) if support <= m]
        prefix = [Fraction(0)] * k
        for a, b in zip(allowed, allowed[1:]):
            for s, c in enumerate(vecs.get(a, ())):
                prefix[s] += c
            if any(prefix):
                parts.setdefault((a, b), []).append((key, list(prefix)))

    # write each pair's overlap-local coefficients once; the exact audit
    # takes f[(a, b)] off element a and f[(b, a)] = -f[(a, b)] off b
    out: dict[tuple[int, int], Section] = {}
    for (a, b), pair_parts in parts.items():
        overlap = OpenSet(id=f"overlap{a}.{b}", members=mems[a] & mems[b])
        layout = slot_layout(overlap.members, fibers)
        d = open_set_dim(overlap.members, fibers)
        coeffs: list[dict[tuple, Fraction]] = [dict() for _ in range(k)]
        for key, vec in pair_parts:
            mono = [0] * d
            for (p, j), e in key:
                mono[layout[p][j]] = e
            for s, c in enumerate(vec):
                if c:
                    coeffs[s][tuple(mono)] = c
                    _accumulate(left, (a, key, s), -c)
                    _accumulate(left, (b, key, s), c)
        out[(a, b)] = polynomial_section(d, k, coeffs, domain=overlap)
        neg = [{m: -c for m, c in per.items()} for per in coeffs]
        out[(b, a)] = polynomial_section(d, k, neg, domain=overlap)
    if left:
        raise KernelPremiseError("internal reconstruction mismatch at "
                                 f"element {min(a for a, _, _ in left)}")
    return out


def kernel_report(cover: Cover, k: int = 1, seed: int = 0) -> WitnessReport:
    """Round-trip audit of the pairwise decomposition on seeded data.

    Generates random pairwise polynomials on the first three overlapping
    pairs, forms the induced zero-sum family, decomposes it, and
    verifies the exact invariants (zero sum, antisymmetry, per-element
    reconstruction).
    """
    k = _at_least("k", k)
    fibers = cover.space.fiber_dims
    mems = cover.memberships()
    n = len(mems)
    rng = np.random.default_rng(seed)

    gen: dict[tuple[int, int], tuple[OpenSet, Section]] = {}
    pairs = [(i, j) for i, j in itertools.combinations(range(n), 2)
             if mems[i] & mems[j]]
    for (i, j) in pairs[:3]:
        overlap = OpenSet(id=f"w{i}.{j}", members=mems[i] & mems[j])
        d = open_set_dim(overlap.members, fibers)
        gen[(i, j)] = overlap, _seeded_polynomial(d, k, rng)

    locals_: list[Section] = []
    for a in range(n):
        acc = [dict() for _ in range(k)]
        d_a = open_set_dim(mems[a], fibers)
        for (i, j), (overlap, sec) in gen.items():
            if a not in (i, j):
                continue
            sign = 1 if a == i else -1
            ext = compose_coord(
                sec, projection_map(fibers, cover.elements[a], overlap))
            ext_coeffs = polynomial_coefficients(ext)
            for s in range(k):
                for mono, c in ext_coeffs[s].items():
                    _accumulate(acc[s], mono, sign * c)
        locals_.append(polynomial_section(d_a, k, acc, domain=cover.elements[a]))

    try:
        family = cosheaf_kernel_decompose(locals_, cover)
        failure = None
    except KernelPremiseError as e:
        family = {}
        failure = str(e)

    antisym = True
    for (a, b), sec in family.items():
        ca = polynomial_coefficients(sec)
        cb = polynomial_coefficients(family[(b, a)])
        for s in range(k):
            for mono, c in ca[s].items():
                if cb[s].get(mono, Fraction(0)) != -c:
                    antisym = False

    verdict = failure is None and antisym
    return WitnessReport(
        claim="rem2.9-kernel", verdict=verdict, seed=seed,
        inputs={"memberships": [sorted(m) for m in mems], "k": k,
                "generator_pairs": [list(p) for p in gen]},
        measured={"pair_count": len(family) // 2, "antisymmetric": antisym,
                  "failure": failure})


# ---------------------------------------------------------------------------
# input indistinguishability (covering-blind global sections)


def pooled_collision(seed: int = 0) -> WitnessReport:
    """Two different images with identical max-pooled network output.

    Builds a max-pooling grid network and permutes the cells inside
    each pooling block; coordinatewise max over a block is invariant
    under such permutations, so the forward outputs coincide exactly
    while the inputs differ.
    """
    net = build_cnn(4, plan=[
        {"kind": "pool", "mode": "max", "block": 2},
        {"kind": "fc", "out_dim": 2, "activation": "sigmoid"},
    ], seed=seed)
    rng = np.random.default_rng(seed)
    x1 = rng.standard_normal(net.input_dim)

    # swap the first and last cell of each 2x2 block of g[br, r, bc, c, channel]
    g = x1.reshape(2, 2, 2, 2, net.space.fiber_dims[0]).copy()
    g[:, 0, :, 0], g[:, 1, :, 1] = g[:, 1, :, 1].copy(), g[:, 0, :, 0].copy()
    x2 = g.reshape(-1)

    out1 = forward(net, x1).output
    out2 = forward(net, x2).output
    input_gap = float(np.max(np.abs(x1 - x2)))
    output_gap = float(np.max(np.abs(out1 - out2)))
    verdict = input_gap > 0.0 and output_gap == 0.0
    return WitnessReport(
        claim="thm4.1", verdict=verdict, seed=seed,
        inputs={"grid": 4, "pooling": "max", "blocks": "2x2 cell permutation"},
        measured={"input_gap": input_gap, "output_gap": output_gap})


def indistinguishability_report(cover: Cover, fibers: Sequence[int], k: int,
                                seed: int = 0) -> WitnessReport:
    """Distinct global sections with identical element restrictions,
    together with the pooled-image collision demo."""
    _, loc = locality_witness(cover, fibers, k, seed=seed)
    collide = pooled_collision(seed=seed)
    verdict = loc.verdict and collide.verdict
    return WitnessReport(
        claim="thm4.1", verdict=verdict, seed=seed,
        inputs={"cover": loc.inputs, "cnn": collide.inputs},
        measured={"sections": loc.measured, "pooled_images": collide.measured})


# ---------------------------------------------------------------------------
# aggregation-kernel perturbations


def _p_norm(values: Sequence[float], p: float) -> float:
    """(sum of |v|^p)^(1/p), summed in order.  Where the plain sum
    overflows it is max * (sum of (|v|/max)^p)^(1/p)."""
    try:
        total = 0.0
        for v in values:
            total += abs(v) ** p
        if math.isfinite(total):
            return total ** (1.0 / p)
    except OverflowError:
        pass
    top = max(abs(v) for v in values)
    return top * sum((abs(v) / top) ** p for v in values) ** (1.0 / p)


# how far the measured displacement may stray from the stated one
_DISPLACEMENT_TOL = 1e-9


@dataclass(frozen=True)
class AttackSpec:
    """A per-input perturbation family for one aggregation layer.

    ``perturbations[alpha]`` is the exact rational vector added after
    phi_alpha; for every output element the perturbations of its
    aggregated inputs sum to zero, so the layer output is unchanged
    while the pre-aggregation representation moves by the stated
    displacement.
    """

    layer_index: int
    p: float
    delta: float
    perturbations: tuple[tuple[Fraction, ...], ...]

    def displacement(self) -> float:
        return _p_norm([float(v) for vec in self.perturbations for v in vec],
                       self.p)

    def to_json(self) -> dict:
        return _plain(self)


def _incidence(layer: InclusionLayer) -> np.ndarray:
    m = np.zeros((len(layer.aggregation), len(layer.input_cover.elements)),
                 dtype=np.int64)
    for b, atuple in enumerate(layer.aggregation):
        m[b, list(atuple)] = 1
    return m


def _offset_layer(layer: InclusionLayer,
                  offsets: Sequence[Sequence[float]]) -> InclusionLayer:
    return replace(layer, phi=tuple(
        Section(domain_dim=s.domain_dim, codomain_dim=s.codomain_dim,
                body=Sum((s.body, Const(tuple(off)))), domain=s.domain)
        for s, off in zip(layer.phi, offsets)))


def adversarial_attack(net: Network, layer_index: int, p: float = 2.0,
                       delta: float = 1.0, seed: int = 0, n_inputs: int = 20,
                       tol: float = 1e-9) -> tuple[AttackSpec, WitnessReport]:
    """Build and verify a zero-sum perturbation of one aggregation layer.

    The attacked layer must be an InclusionLayer whose stage pair
    strictly shrinks and whose outputs are proper unions (those two
    facts guarantee a positive-dimensional space of valid
    perturbations).  The perturbation is drawn from the exact rational
    null space of the input/output incidence map, scaled by a power of
    two until its p-displacement exceeds delta.

    Verification runs one seeded batch of ``n_inputs`` random inputs
    through the clean and the perturbed network, both traced: final
    outputs must agree within tol while the pre-aggregation values the
    two networks computed move by exactly the stated displacement
    (within 1e-9).  Where sum |v|^p overflows a float, both
    displacements are max * (sum (|v|/max)^p)^(1/p).

    Raises ValueError for a layer index out of range, p below 1 or not
    finite, delta not finite or not positive, n_inputs below 1, tol
    negative or not finite, and a delta whose offsets are too large for
    floats to verify: a check that fails while adjacent floats at the
    largest offset lie more than 1e-9 apart.
    """
    if not 0 <= layer_index < len(net.layers):
        raise ValueError(f"layer index {layer_index} is out of range for a "
                         f"network with {len(net.layers)} layers")
    if not (math.isfinite(p) and p >= 1):
        raise ValueError(f"p must be a finite number >= 1, got {p}")
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be finite and positive, got {delta}")
    n_inputs, tol = _at_least("n_inputs", n_inputs), _at_least("tol", tol, 0, float)
    layer = net.layers[layer_index]
    if not isinstance(layer, InclusionLayer):
        raise ValueError("the attacked layer must factor through inclusions")
    in_mems = layer.input_cover.memberships()
    out_mems = layer.output_cover.memberships()
    if not len(in_mems) > len(out_mems):
        raise ValueError("attack needs a strictly shrinking stage pair")
    if not all(proper_unions(out_mems, in_mems)):
        raise ValueError("attack needs proper-union output elements")

    inc = _incidence(layer)
    basis = nullspace_basis(inc)
    if not basis:
        return AttackSpec(layer_index, p, delta, ()), WitnessReport(
            claim="thm4.2", verdict=False, seed=seed,
            inputs={"layer_index": layer_index, "p": p, "delta": delta},
            measured={"failure": "incidence null space is zero; "
                                 "claimed freedom is absent"})

    # The perturbation is num * scale / den: integer numerators over the
    # basis's common denominator, and a power-of-two scale.
    k1 = layer.out_dim
    rng = np.random.default_rng(seed)
    n_in = len(in_mems)
    den = math.lcm(*(v.denominator for vec in basis for v in vec.values()))
    num = [[0] * k1 for _ in range(n_in)]
    for vec in basis:
        weights = [int(w) for w in rng.integers(-3, 4, size=k1)]
        for a, v in vec.items():
            c = v.numerator * (den // v.denominator)
            row = num[a]
            for s in range(k1):
                row[s] += weights[s] * c
    if not any(any(row) for row in num):
        for a, v in basis[0].items():
            num[a][0] += v.numerator * (den // v.denominator)

    # an int true division rounds like float(Fraction(n * scale, den))
    scale = 1
    try:
        while True:
            offsets = [[n * scale / den for n in row] for row in num]
            formula = _p_norm([v for row in offsets for v in row], p)
            if formula > delta:
                break
            scale *= 2
    except OverflowError:
        raise ValueError(f"delta {delta} is too large: the offsets that "
                         "exceed it overflow a float") from None
    spec = AttackSpec(layer_index, p, delta,
                      tuple(tuple(Fraction(n * scale, den) for n in row)
                            for row in num))
    zero_sum = all(sum(num[a][s] for a in atuple) == 0
                   for atuple in layer.aggregation for s in range(k1))

    perturbed_layers = list(net.layers)
    perturbed_layers[layer_index] = _offset_layer(layer, offsets)
    pert_net = Network(space=net.space, sequence=net.sequence,
                       layers=tuple(perturbed_layers))

    xs = rng.standard_normal((n_inputs, net.input_dim))
    clean: ForwardResult = forward(net, xs, trace=True)
    pert: ForwardResult = forward(pert_net, xs, trace=True)
    out_gap = float(np.max(np.abs(clean.output - pert.output)))
    # each input's move, as the perturbed network itself computed it
    moves = [np.abs(after - before) for after, before in
             zip(pert.pre[layer_index], clean.pre[layer_index])]
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.zeros(n_inputs)
        for d in moves:
            total += np.sum(d ** p, axis=1)
        measured = total ** (1.0 / p)
        if not np.all(np.isfinite(measured)):
            top = np.max([np.max(d, axis=1) for d in moves], axis=0)
            top[top == 0] = 1.0
            total = np.zeros(n_inputs)
            for d in moves:
                total += np.sum((d / top[:, None]) ** p, axis=1)
            measured = top * total ** (1.0 / p)
        disp_gap = float(np.max(np.abs(measured - formula)))

    verdict = (zero_sum and formula > delta and out_gap <= tol
               and disp_gap <= _DISPLACEMENT_TOL)
    largest = max(abs(v) for row in offsets for v in row)
    if not verdict and zero_sum and math.ulp(largest) > _DISPLACEMENT_TOL:
        raise ValueError(
            f"delta {delta} is too large to verify in floats: offsets reach "
            f"{largest:g}, where floats are {math.ulp(largest):g} apart")
    report = WitnessReport(
        claim="thm4.2", verdict=verdict, seed=seed,
        inputs={"layer_index": layer_index, "p": p, "delta": delta,
                "n_inputs": n_inputs, "tol": tol},
        measured={"null_space_dim": len(basis), "displacement": formula,
                  "zero_sum_exact": zero_sum, "max_output_gap": out_gap,
                  "max_displacement_gap": disp_gap,
                  "perturbations": spec.perturbations})
    return spec, report


# ---------------------------------------------------------------------------
# unattainable targets of the final activation


def classify_activation(name: str) -> str:
    """Map an activation to its final-layer reachability class."""
    info = ACTIVATIONS[name]
    if not info.surjective:
        return "not_surjective"
    if info.open_map and info.bijective:
        return "open_bijective"
    if not info.open_map:
        return "not_open"
    return "open_non_bijective"


_PROBE_BLOCK = 1024  # rows per probe block, so a probe's memory stays flat


def _probe_blocks(dim: int, count: int, seed: int, bound: float):
    """``probe_points``'s rows in order, in blocks of at most _PROBE_BLOCK."""
    if dim <= 6:  # the mesh's flat row indices, last axis fastest
        r = max(2, math.ceil(count ** (1.0 / dim)))
        axis, count = np.linspace(-bound, bound, r), r ** dim
        rows = lambda flat: axis[np.stack(np.unravel_index(flat, (r,) * dim), 1)]
    else:
        rng = np.random.default_rng(seed)
        rows = lambda flat: rng.uniform(-bound, bound, size=(len(flat), dim))
    for start in range(0, count, _PROBE_BLOCK):
        yield rows(np.arange(start, min(start + _PROBE_BLOCK, count)))


def probe_points(dim: int, count: int, seed: int = 0,
                 bound: float = 3.0) -> np.ndarray:
    """A deterministic probe set of at least ``count`` points: a true
    mesh grid in low dimension, else seeded uniform samples."""
    count = _at_least("count", count)
    return np.concatenate(list(_probe_blocks(dim, count, seed, bound)))


def dataset_dependency(net: Network, grid_points: int = 10_000,
                       tol: float = 1e-6, seed: int = 0,
                       bound: float = 3.0) -> WitnessReport:
    """Exhibit a global section the network can never output.

    For a bounded (non-surjective) final activation the constant
    section at a value outside the closure of the range is checked
    against a dense input probe.  For an identity (open, bijective)
    final activation the obstruction is structural: the final layer is
    a sum of per-element terms, so every output has vanishing mixed
    difference across a coordinate pair split by the last cover stage,
    while the coordinate-product target does not.
    """
    grid_points = _at_least("grid_points", grid_points)
    tol = _at_least("tol", tol, 0, float)
    final = net.layers[-1]
    if not isinstance(final, InclusionLayer):
        raise ValueError("the final layer must declare its activation")
    branch = classify_activation(final.activation)
    info = ACTIVATIONS[final.activation]
    k = final.out_dim

    if branch == "not_surjective":
        target = float(info.unreachable_value)
        gap, count = np.inf, 0  # the probe streams through forward
        for pts in _probe_blocks(net.input_dim, grid_points, seed, bound):
            dist = np.max(np.abs(forward(net, pts).output - target), axis=1)
            gap, count = np.minimum(gap, dist.min()), count + len(pts)
        verdict = bool(gap > tol)
        measured = {"branch": branch, "target_value": target,
                    "min_gap_to_target": float(gap), "probe_count": count}
    elif branch == "open_bijective":
        mems = final.input_cover.memberships()
        pair = None
        for a, b in itertools.combinations(sorted(net.space.points), 2):
            if not any(a in m and b in m for m in mems):
                pair = (a, b)
                break
        if pair is None:
            raise ValueError("some last-stage element contains every point; "
                             "no separability obstruction exists")
        layout = slot_layout(frozenset(net.space.points), net.space.fiber_dims)
        slots = (layout[pair[0]][0], layout[pair[1]][0])
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(20):
            base = rng.standard_normal(net.input_dim)

            def net_fn(offsets):
                return forward(net, base + offsets).output

            z = np.zeros(net.input_dim)
            ei = z.copy(); ei[slots[0]] = 1.0
            ej = z.copy(); ej[slots[1]] = 1.0
            md = net_fn(ei + ej) - net_fn(ei) - net_fn(ej) + net_fn(z)
            worst = max(worst, float(np.max(np.abs(md))))
        U = OpenSet(id="all", members=frozenset(net.space.points))
        target_sec = product_counterexample(U, net.space.fiber_dims, k)
        t_base = np.ones(net.input_dim)
        t_base[list(slots)] = 0.0
        t_md = multi_mixed_difference(target_sec, slots, t_base, 1.0)
        target_val = float(np.max(np.abs(t_md)))
        verdict = worst <= 1e-9 and target_val == 1.0
        measured = {"branch": branch, "cross_pair": list(pair),
                    "max_network_mixed_difference": worst,
                    "target_mixed_difference": target_val}
    else:
        raise ValueError(
            f"no unreachable-target synthesizer for class {branch!r}")

    return WitnessReport(
        claim="thm4.3", verdict=verdict, seed=seed,
        inputs={"activation": final.activation, "k": k,
                "grid_points": grid_points, "tol": tol},
        measured=measured)
