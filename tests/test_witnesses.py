"""Witness constructions: locality, surjectivity, gluing, kernel, attacks."""

import itertools
import math
import runpy
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from coversheaf._linalg import nullspace_basis
from coversheaf.cech import cech_cohomology, sheaf_axiom_check
from coversheaf.topology import (CoverSequence, MarkedSpace,
                                 global_stage, make_cover, singleton_stage)
from coversheaf.sections import (ACTIVATIONS, CoordMap, Section, Sum,
                                 _accumulate, affine_section, compose_coord,
                                 constant_section, evaluate, open_set_dim,
                                 polynomial_coefficients, polynomial_section,
                                 product_counterexample, projection_map,
                                 sections_equal, slot_layout, zero_pad_map,
                                 zero_section)
from coversheaf.network import (InclusionLayer, Network, build_attention,
                                build_cnn, build_sequential, forward,
                                network_from_json)
from coversheaf import witnesses
from coversheaf.witnesses import (AttackSpec, IncompatibleLocalsError,
                                  KernelPremiseError, WitnessReport,
                                  adversarial_attack, classify_activation,
                                  cosheaf_kernel_decompose,
                                  dataset_dependency, exact_mixed_difference,
                                  glue_inclusion_exclusion, glue_report,
                                  inclusion_exclusion_faces, kernel_report,
                                  locality_witness, multi_mixed_difference,
                                  pooled_collision, surjectivity_witness)
from test_acceptance import _partition_net, sweep_covers

TRIANGLE = [[1, 2], [2, 3], [1, 3]]


def triangle_cover(fibers=(1, 1, 1)):
    sp = MarkedSpace(n_points=3, fiber_dims=fibers)
    return make_cover(sp, TRIANGLE)


def test_report_claim_validation():
    with pytest.raises(ValueError):
        WitnessReport(claim="made-up", verdict=True, inputs={}, measured={})
    rep = WitnessReport(claim="thm4.2", verdict=True, inputs={},
                        measured={"ok": np.bool_(True), "x": np.float64(2.0)})
    doc = rep.to_json()
    assert doc["schema"] == 1
    # numpy scalars are converted, bools stay bools
    assert doc["measured"] == {"ok": True, "x": 2.0}


def test_locality_witness_is_exact():
    cover = triangle_cover()
    h, rep = locality_witness(cover, (1, 1, 1), k=1, n_samples=50, seed=0)
    assert rep.verdict
    assert rep.measured["restriction_deviations"] == [0.0, 0.0, 0.0]
    assert rep.measured["h_at_ones_norm"] == 1.0
    assert rep.measured["global_difference_at_ones"] == 1.0
    assert evaluate(h, np.ones(3)).tolist() == [1.0]


def test_locality_needs_each_element_to_miss_a_point():
    sp = MarkedSpace(n_points=2, fiber_dims=(1, 1))
    cover = make_cover(sp, [[1, 2], [1]])
    with pytest.raises(ValueError):
        locality_witness(cover, (1, 1), k=1)


def test_surjectivity_witness():
    cover = triangle_cover((2, 1, 1))
    rep = surjectivity_witness(cover, (2, 1, 1), k=2, n_trials=50, seed=0)
    assert rep.verdict
    assert rep.measured["product_alternating_difference"] == 1.0
    assert rep.measured["max_separable_alternating_difference"] == 0.0


def test_multi_mixed_difference():
    prod = product_counterexample(3, 1)
    md = multi_mixed_difference(prod, [0, 1, 2], np.zeros(3), 1.0)
    assert md.tolist() == [1.0]
    aff = affine_section([[2.0, 3.0]], bias=[5.0])
    assert multi_mixed_difference(aff, [0, 1], np.zeros(2), 1.0).tolist() == [0.0]
    with pytest.raises(ValueError):
        multi_mixed_difference(aff, [0, 0], np.zeros(2), 1.0)


def _subset_loop(sec, slots, base, h):
    """Oracle: one point per subset of the slots, in itertools order,
    summed with its sign by Python's sum from int 0."""
    pts, signs = [], []
    for r in range(len(slots) + 1):
        for sub in itertools.combinations(slots, r):
            p = np.array(base, dtype=float)
            p[list(sub)] += h
            pts.append(p)
            signs.append((-1) ** (len(slots) - r))
    vals = evaluate(sec, np.stack(pts))
    return sum(s * v for s, v in zip(signs, vals))


def _random_coefficients(rng, d: int, k: int, terms: int, degree: int):
    coeffs = [dict() for _ in range(k)]
    for _ in range(terms):
        mono = [0] * d
        for _ in range(int(rng.integers(0, degree + 1)) if d else 0):
            mono[int(rng.integers(0, d))] += 1
        coeffs[int(rng.integers(0, k))][tuple(mono)] = \
            Fraction(int(rng.integers(-5, 6)), 4)
    return [{m: c for m, c in poly.items() if c} for poly in coeffs]


def test_multi_mixed_difference_matches_the_subset_loop():
    """Affine and polynomial (Product) sections with k up to 3, and
    sections whose terms are all +-0.0, agree with the oracle bit for
    bit, signed zeros included."""
    rng = np.random.default_rng(23)
    cases = []
    for i in range(80):
        d = int(rng.integers(1, 9))
        if i < 40:
            sec = affine_section(rng.standard_normal((2, d)),
                                 bias=rng.standard_normal(2))
        else:
            k = int(rng.integers(1, 4))
            sec = polynomial_section(d, k, _random_coefficients(
                rng, d, k, int(rng.integers(1, 7)), 4))
        size = int(rng.integers(1, d + 1))
        slots = [int(x) for x in rng.choice(d, size=size, replace=False)]
        cases.append((sec, slots, rng.standard_normal(d), 0.37))
    # every term is +0.0 or -0.0; with no slot the one term is -0.0,
    # which a sum from +0.0 turns into +0.0
    signed_zero = constant_section(3, [-0.0, 0.0, -0.0])
    for slots in ([], [1], [0, 2], [0, 1, 2]):
        cases.append((signed_zero, slots, np.zeros(3), 1.0))
    assert any("Product" in repr(sec) for sec, *_ in cases)
    for sec, slots, base, h in cases:
        want = _subset_loop(sec, slots, base, h)
        got = multi_mixed_difference(sec, slots, base, h)
        assert got.tobytes() == want.tobytes()
    assert multi_mixed_difference(signed_zero, [], np.zeros(3), 1.0).tobytes() \
        == np.zeros(3).tobytes()


def test_glue_round_trip_and_rejection():
    cover = triangle_cover()
    rep = glue_report(cover, k=2, seed=4)
    assert rep.verdict
    assert max(rep.measured["restriction_deviations"]) <= 1e-9
    rej = rep.measured["rejection"]
    assert rej["names_bumped_local"] and rej["deviation"] >= 0.999


def brute_force_faces(mems):
    """Oracle: the sum over every nonempty element subset S of
    (-1)^(|S|+1) [face of S], the 2^n expansion the fold replaces."""
    out = {}
    for size in range(1, len(mems) + 1):
        for sub in itertools.combinations(mems, size):
            face = frozenset.intersection(*sub)
            out[face] = out.get(face, 0) + (-1) ** (size + 1)
    return {face: c for face, c in out.items() if c}


def random_memberships(count=300, seed=2011):
    """Up to 10 elements on up to 7 points, with empty and duplicate
    elements."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 8))
        mems = []
        for _ in range(int(rng.integers(1, 11))):
            roll = rng.random()
            if roll < 0.1:
                mems.append(frozenset())
            elif roll < 0.25 and mems:
                mems.append(mems[int(rng.integers(len(mems)))])
            else:
                mems.append(frozenset(p for p in range(1, n + 1)
                                      if rng.random() < 0.6))
        yield mems


def chain(m):
    return [[i + 1, i + 2] for i in range(m)]


def complement(n):
    return [[p for p in range(1, n + 1) if p != i] for i in range(1, n + 1)]


def abstract_cover(members, fibers=None):
    n = max(p for m in members for p in m)
    sp = MarkedSpace(n_points=n, fiber_dims=fibers or (1,) * n)
    return make_cover(sp, members)


def test_folded_faces_match_the_subset_expansion():
    cases = [cover.memberships for cover, _ in sweep_covers()]
    cases += [abstract_cover(m).memberships
              for m in (chain(9), complement(6), TRIANGLE)]
    cases += list(random_memberships())
    for mems in cases:
        assert inclusion_exclusion_faces(mems) == brute_force_faces(mems)
    assert len(cases) >= 392


def test_glued_polynomial_is_the_visible_part_of_the_hidden_one():
    """Gluing the restrictions of a polynomial recovers, coefficient for
    coefficient, its monomials whose points lie in one element."""
    rng = np.random.default_rng(5)
    covers = [cover for cover, _ in sweep_covers()]
    covers += [abstract_cover(chain(6), (1, 2, 1, 1, 2, 1, 1)),
               abstract_cover(complement(5))]
    for cover in covers:
        fibers = cover.space.fiber_dims
        mems = cover.memberships
        U = cover.covered
        owner = {slot: p for p, slots in slot_layout(U, fibers).items()
                 for slot in slots}
        d_U, k = len(owner), int(rng.integers(1, 3))
        coeffs = [dict() for _ in range(k)]
        for _ in range(6):
            mono = [0] * d_U
            for _ in range(int(rng.integers(0, 4))):
                mono[int(rng.integers(0, d_U))] += 1
            coeffs[int(rng.integers(0, k))][tuple(mono)] = \
                Fraction(int(rng.integers(1, 8)), 4)
        hidden = polynomial_section(d_U, k, coeffs)
        locals_ = [compose_coord(hidden, zero_pad_map(fibers, el, U))
                   for el in cover.memberships]
        glued = glue_inclusion_exclusion(locals_, cover)

        def visible(mono):
            pts = {owner[i] for i, e in enumerate(mono) if e}
            return any(pts <= m for m in mems)
        want = [{m: c for m, c in poly.items() if visible(m)}
                for poly in polynomial_coefficients(hidden)]
        assert polynomial_coefficients(glued) == want


@pytest.mark.parametrize("m", [11, 24])
def test_glue_needs_one_term_per_distinct_face(m):
    cover = abstract_cover(chain(m))
    locals_ = [affine_section(np.ones((1, 2))) for _ in cover.memberships]
    glued = glue_inclusion_exclusion(locals_, cover)
    # m elements and m - 1 shared points; the empty face cancels
    assert len(glued.body.children) == 2 * m - 1
    assert glue_report(cover).verdict


def test_exact_mixed_difference_matches_the_evaluated_sum():
    rng = np.random.default_rng(17)
    for _ in range(80):
        d = int(rng.integers(1, 11))
        k = int(rng.integers(1, 3))
        coeffs = [dict() for _ in range(k)]
        for _ in range(int(rng.integers(1, 7))):
            mono = [0] * d
            for _ in range(int(rng.integers(0, d + 2))):
                mono[int(rng.integers(0, d))] += 1
            coeffs[int(rng.integers(0, k))][tuple(mono)] = \
                Fraction(int(rng.integers(-5, 6)))
        coeffs = [{m: c for m, c in poly.items() if c} for poly in coeffs]
        sec = polynomial_section(d, k, coeffs)
        size = int(rng.integers(1, d + 1))
        slots = [int(x) for x in rng.choice(d, size=size, replace=False)]
        base = rng.integers(0, 2, size=d).astype(float)
        want = multi_mixed_difference(sec, slots, base, 1.0)
        got = exact_mixed_difference(coeffs, slots, base, 1)
        assert [float(x) for x in got] == want.tolist()
    with pytest.raises(ValueError):
        exact_mixed_difference([{(1, 1): Fraction(1)}], [0, 0], [0, 0], 1)


def test_glue_input_validation():
    cover = triangle_cover()
    # gluing takes Sections and the kernel decomposition coefficient
    # tables; both go through one local-family check
    good = [affine_section(np.ones((1, 2))) for _ in cover.memberships]
    tables = [[{(1, 0): Fraction(1)}] for _ in cover.memberships]
    wide, narrow = list(good), list(good)
    wide[0] = affine_section(np.ones((1, 3)))
    narrow[1] = affine_section(np.ones((1, 1)))
    wide_t, narrow_t, two_outputs = list(tables), list(tables), list(tables)
    wide_t[0] = [{(1, 0): Fraction(1), (0, 0, 1): Fraction(1)}]
    narrow_t[1] = [{(1,): Fraction(1)}]
    two_outputs[2] = [{}, {(0, 1): Fraction(1)}]
    for fn, family, bad in ((glue_inclusion_exclusion, good, (wide, narrow)),
                            (cosheaf_kernel_decompose, tables,
                             (wide_t, narrow_t))):
        with pytest.raises(ValueError, match="one local section per cover "
                                             "element required"):
            fn(family[:2], cover)
        with pytest.raises(ValueError, match="local 0 has domain dim 3, "
                                             "expected 2"):
            fn(bad[0], cover)
        with pytest.raises(ValueError, match="local 1 has domain dim 1, "
                                             "expected 2"):
            fn(bad[1], cover)
    with pytest.raises(ValueError, match="locals must share a codomain "
                                         "dimension"):
        cosheaf_kernel_decompose(two_outputs, cover)
    # a zero-sum family once the third coordinate of f0 is dropped: read
    # as the constant 5 rather than rejected
    chain = make_cover(MarkedSpace(3, (1, 1, 1)), [[1, 2], [2, 3]])
    f0 = [{(0, 1, 0): 1, (0, 0, 1): 5}]
    f1 = [{(1, 0): -1, (0, 0): -5}]
    with pytest.raises(ValueError, match="local 0 has domain dim 3, "
                                         "expected 2"):
        cosheaf_kernel_decompose([f0, f1], chain)


def test_glue_incompatible_pair_is_named():
    cover = triangle_cover()
    locals_ = [affine_section(np.ones((1, 2))) for _ in cover.memberships]
    locals_[1] = affine_section(2 * np.ones((1, 2)))
    with pytest.raises(IncompatibleLocalsError) as err:
        glue_inclusion_exclusion(locals_, cover)
    assert 1 in err.value.pair


def test_kernel_decompose_worked_example():
    sp = MarkedSpace(n_points=3, fiber_dims=(1, 1, 1))
    cover = make_cover(sp, [[1, 2], [2, 3]])
    # f0 reads the shared point's coordinate, f1 negates it
    f0 = [{(0, 1): Fraction(1)}]
    f1 = [{(1, 0): Fraction(-1)}]
    family = cosheaf_kernel_decompose([f0, f1], cover)
    # monomials over the overlap, point 2 alone
    assert family == {(0, 1): [{(1,): Fraction(1)}],
                      (1, 0): [{(1,): Fraction(-1)}]}


def test_glue_and_decompose_demo_names_each_overlap(capsys):
    demo = Path(__file__).resolve().parents[1] / "demos" / "glue_and_decompose.py"
    runpy.run_path(str(demo), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    # lines[0] ends in a float rounding value, so it is left out
    assert lines[-3:] == ["  f[0,1] on points [2]: {(1,): Fraction(1, 1)}",
                          "  f[1,0] on points [2]: {(1,): Fraction(-1, 1)}",
                          "antisymmetric: True"]


def test_kernel_decompose_zero_family():
    sp = MarkedSpace(n_points=3, fiber_dims=(1, 1, 1))
    cover = make_cover(sp, [[1, 2], [2, 3]])
    zeros = [[{}] for _ in cover.memberships]
    assert cosheaf_kernel_decompose(zeros, cover) == {}


def test_kernel_premise_rejects_nonzero_sum():
    sp = MarkedSpace(n_points=3, fiber_dims=(1, 1, 1))
    cover = make_cover(sp, [[1, 2], [2, 3]])
    f0 = [{(0, 1): Fraction(1)}]
    f1 = [{(1, 0): Fraction(1)}]
    with pytest.raises(KernelPremiseError):
        cosheaf_kernel_decompose([f0, f1], cover)


def test_kernel_report_round_trip():
    rep = kernel_report(triangle_cover((2, 1, 2)), k=2, seed=11)
    assert rep.verdict
    assert rep.measured["antisymmetric"]
    assert rep.measured["failure"] is None
    assert rep.measured["pair_count"] >= 1


def _section_kernel_decompose(locals_, cover):
    """Oracle: the decomposition as it read Sections.  Each monomial is
    keyed by its sorted ((point, offset), exponent) pairs, and each
    pair's part is rewritten into the overlap's layout point by point."""
    k = locals_[0].codomain_dim
    fibers = cover.space.fiber_dims
    mems = cover.memberships
    table, left = {}, {}
    for a, local in enumerate(locals_):
        layout = slot_layout(mems[a], fibers)
        for s, poly in enumerate(polynomial_coefficients(local)):
            for mono, c in poly.items():
                key = tuple(((p, j), mono[t]) for p, slots in layout.items()
                            for j, t in enumerate(slots) if mono[t])
                table.setdefault(key, {}).setdefault(a, [Fraction(0)] * k)[s] = c
                left[(a, key, s)] = c
    parts = {}
    for key, vecs in table.items():
        if any(sum(col) for col in zip(*vecs.values())):
            raise KernelPremiseError("extended locals do not sum to zero")
        support = {p for (p, _off), _e in key}
        allowed = [a for a, m in enumerate(mems) if support <= m]
        prefix = [Fraction(0)] * k
        for a, b in zip(allowed, allowed[1:]):
            for s, c in enumerate(vecs.get(a, ())):
                prefix[s] += c
            if any(prefix):
                parts.setdefault((a, b), []).append((key, list(prefix)))
    out = {}
    for (a, b), pair_parts in parts.items():
        layout = slot_layout(mems[a] & mems[b], fibers)
        coeffs = [dict() for _ in range(k)]
        for key, vec in pair_parts:
            mono = [0] * open_set_dim(mems[a] & mems[b], fibers)
            for (p, j), e in key:
                mono[layout[p][j]] = e
            for s, c in enumerate(vec):
                if c:
                    coeffs[s][tuple(mono)] = c
                    _accumulate(left, (a, key, s), -c)
                    _accumulate(left, (b, key, s), c)
        out[(a, b)] = coeffs
        out[(b, a)] = [{m: -c for m, c in per.items()} for per in coeffs]
    assert not left
    return out


def test_table_decomposition_matches_the_section_route():
    """Zero-sum families built from random parts on random element
    pairs (constants on disjoint pairs included) split into the same
    family from tables as from Sections, on the acceptance
    covers and 200 random covers with fibers 1-2 and k in {1, 2}; a
    family with one monomial added to one element is refused by both."""
    rng = np.random.default_rng(41)
    cases = [(c.space.fiber_dims, c.memberships) for c, _ in sweep_covers()]
    for mems in random_memberships(count=200, seed=43):
        n = max((p for m in mems for p in m), default=1)
        cases.append((tuple(int(f) for f in rng.integers(1, 3, size=n)), mems))
    split = 0
    for fibers, mems in cases:
        cover = make_cover(MarkedSpace(len(fibers), fibers), mems)
        k = int(rng.integers(1, 3))
        tables = [[dict() for _ in range(k)] for _ in mems]
        for i, j in itertools.combinations(range(len(mems)), 2):
            if rng.random() < 0.5:
                w = mems[i] & mems[j]
                part = _random_coefficients(rng, open_set_dim(w, fibers), k,
                                            3, 3)
                for a, sign in ((i, 1), (j, -1)):
                    cmap = projection_map(fibers, mems[a], w)
                    witnesses._pull_back(tables[a], part, cmap.slots,
                                         cmap.source_dim, sign)
        sections = [polynomial_section(open_set_dim(m, fibers), k, t)
                    for m, t in zip(mems, tables)]
        got = cosheaf_kernel_decompose(tables, cover)
        assert got == _section_kernel_decompose(sections, cover)
        split += bool(got)
        extra = [dict(t) for t in tables[0]]
        _accumulate(extra[0], (1,) * open_set_dim(mems[0], fibers), Fraction(1))
        bumped = [extra] + tables[1:]
        for fn, family in ((cosheaf_kernel_decompose, bumped),
                           (_section_kernel_decompose,
                            [polynomial_section(sections[0].domain_dim, k, extra)]
                            + sections[1:])):
            with pytest.raises(KernelPremiseError):
                fn(family, cover)
    assert len(cases) == 289 and split > 150


def _section_route(parts, k: int):
    """Oracle for the coefficient-table pull-back: each (coeffs, cmap,
    sign) part as a polynomial Section precomposed with its projection
    ``cmap``, the parts summed as Section nodes, the sum read back as
    coefficient tables."""
    bodies = []
    for coeffs, cmap, sign in parts:
        signed = [{m: sign * c for m, c in poly.items()} for poly in coeffs]
        sec = polynomial_section(len(cmap.slots), k, signed)
        bodies.append(compose_coord(sec, cmap).body)
    dim = parts[0][1].source_dim
    body = bodies[0] if len(bodies) == 1 else Sum(tuple(bodies))
    return polynomial_coefficients(Section(domain_dim=dim, codomain_dim=k,
                                           body=body))


def _section_pull_back(acc, coeffs, slots, dim, sign):
    """witnesses._pull_back, taken through the Section oracle."""
    parts = [(coeffs, CoordMap(dim, tuple(slots)), sign)]
    for out, poly in zip(acc, _section_route(parts, len(acc))):
        for mono, c in poly.items():
            _accumulate(out, mono, c)


def test_pull_back_matches_the_section_route():
    """Elements pulled back to the union (the surjectivity trials) and
    overlaps pulled back to an element (the kernel locals), on the
    acceptance covers and 200 random covers, k in {1, 2}."""
    rng = np.random.default_rng(29)
    cases = [(c.space.fiber_dims, c.memberships) for c, _ in sweep_covers()]
    for mems in random_memberships(count=200, seed=71):
        n = max((p for m in mems for p in m), default=1)
        cases.append((tuple(int(f) for f in rng.integers(1, 3, size=n)), mems))
    checked = 0
    for fibers, mems in cases:
        union = frozenset().union(*mems)
        for big, smalls in [(union, mems)] + [(m, [m & o for o in mems])
                                              for m in mems[:3]]:
            k = int(rng.integers(1, 3))
            parts = [(_random_coefficients(rng, open_set_dim(s, fibers), k,
                                           3, 3),
                      projection_map(fibers, big, s), int(rng.choice([-1, 1])))
                     for s in smalls]
            acc = [dict() for _ in range(k)]
            for coeffs, cmap, sign in parts:
                witnesses._pull_back(acc, coeffs, cmap.slots, cmap.source_dim,
                                     sign)
            assert acc == _section_route(parts, k)
            checked += any(acc)
    assert len(cases) == 289 and checked > 600


def _reports(covers, seeds):
    out = []
    for cover, k in covers:
        for seed in seeds:
            try:
                out.append(surjectivity_witness(cover, cover.space.fiber_dims,
                                                k, n_trials=5, seed=seed))
            except ValueError as e:
                out.append(str(e))
            try:
                out.append(kernel_report(cover, k, seed=seed))
            except ValueError as e:  # no two elements overlap
                out.append(str(e))
    return [r if isinstance(r, str) else r.to_json() for r in out]


def test_table_route_reports_match_the_section_route(monkeypatch):
    covers = list(sweep_covers())
    covers += [(abstract_cover(chain(6), (1, 2, 1, 1, 2, 1, 1)), 2),
               (abstract_cover(complement(5)), 1)]
    seeds = (0, 7, 48592)
    tables = _reports(covers, seeds)
    monkeypatch.setattr(witnesses, "_pull_back", _section_pull_back)
    assert _reports(covers, seeds) == tables
    assert sum(isinstance(r, dict) and r["verdict"] for r in tables) > 300


def test_attack_spec_displacement():
    spec = AttackSpec(layer_index=0, p=2.0, delta=1.0,
                      perturbations=((Fraction(3),), (Fraction(-3),),
                                     (Fraction(0),), (Fraction(0),)))
    assert spec.displacement() == 18.0 ** 0.5
    one = AttackSpec(layer_index=0, p=1.0, delta=1.0,
                     perturbations=spec.perturbations)
    assert one.displacement() == 6.0
    assert _old_zero_sum(spec.perturbations, [(0, 1), (2, 3)])
    assert not _old_zero_sum(spec.perturbations, [(0, 2), (1, 3)])


def test_adversarial_attack_on_sum_pool():
    net = network_from_json("fixtures/sumpool.json")
    spec, rep = adversarial_attack(net, 0, p=2.0, delta=1.0, seed=0)
    assert rep.verdict
    assert rep.measured["null_space_dim"] == 2
    assert rep.measured["zero_sum_exact"] is True
    assert rep.measured["displacement"] > 1.0
    assert rep.measured["max_output_gap"] <= 1e-9
    assert rep.measured["max_displacement_gap"] <= 1e-9
    # doubling continues until the displacement clears a large delta
    spec2, rep2 = adversarial_attack(net, 0, p=2.0, delta=100.0, seed=0)
    assert spec2.displacement() > 100.0
    assert rep2.verdict


def test_attack_rejects_unsuitable_layers():
    net = build_cnn(2, plan=[{"kind": "pool", "mode": "max", "block": 2},
                             {"kind": "fc", "out_dim": 1,
                              "activation": "identity"}])
    with pytest.raises(ValueError):
        adversarial_attack(net, 0)
    seq = build_sequential(4, "rnn", seed=0)
    # layer 0 maps 4 singletons to 4 prefixes: not strictly shrinking
    with pytest.raises(ValueError):
        adversarial_attack(seq, 0)


@pytest.mark.parametrize("kwargs", [
    {"layer_index": 2}, {"layer_index": -1},
    {"p": 0.0}, {"p": 0.5}, {"p": float("inf")}, {"p": float("nan")},
    {"delta": 0.0}, {"delta": -1.0}, {"delta": float("inf")},
    {"delta": float("nan")},
])
def test_attack_rejects_bad_arguments(kwargs):
    net = network_from_json("fixtures/sumpool.json")
    args = {"layer_index": 0, **kwargs}
    with pytest.raises(ValueError):
        adversarial_attack(net, **args)


def _shared_dag_section(weight: float, sums: int) -> dict:
    """x -> 2^sums * weight * x, where every node above the affine leaf
    is Sum(prev, prev): sums + 2 nodes, 2^sums paths from root to leaf."""
    nodes = [{"id": 0, "kind": "coords", "indices": [0]},
             {"id": 1, "kind": "affine", "matrix": [[weight]], "bias": [0.0],
              "child": 0}]
    for i in range(1, sums + 1):
        nodes.append({"id": i + 1, "kind": "sum", "children": [i, i]})
    return {"domain_dim": 1, "codomain_dim": 1, "root": len(nodes) - 1,
            "nodes": nodes}


def _shared_dag_net(sums: int = 58):
    weights = [1.0, -0.5, 2.0, 0.25]
    return network_from_json({
        "schema": 1,
        "space": {"n_points": 4, "fiber_dims": [1] * 4,
                  "structure": {"kind": "abstract"}},
        "stages": [[[1], [2], [3], [4]], [[1, 2], [3, 4]], [[1, 2, 3, 4]]],
        "layers": [
            {"kind": "inclusion", "aggregation": [[0, 1], [2, 3]],
             "out_dim": 1, "activation": "identity",
             "phi": [_shared_dag_section(w * 2.0 ** -sums, sums)
                     for w in weights]},
            {"kind": "inclusion", "aggregation": [[0, 1]], "out_dim": 1,
             "activation": "identity",
             "phi": [{"matrix": [[1.0]]}, {"matrix": [[3.0]]}]},
        ],
    })


def test_attack_on_a_60_node_shared_dag_network():
    net = _shared_dag_net()
    assert len(net.layers[0].phi[0].nodes) == 60
    x = np.array([1.0, 2.0, 3.0, 4.0])
    want = (1.0 * 1 - 0.5 * 2) + 3 * (2.0 * 3 + 0.25 * 4)
    assert forward(net, x).output == pytest.approx([want])
    spec, rep = adversarial_attack(net, 0, delta=4.0, seed=1)
    assert rep.verdict
    assert rep.measured["null_space_dim"] == 2
    assert spec.displacement() > 4.0


def _overlap_net():
    """Four points under three overlapping triples: the incidence
    kernel is spanned by (-1/2, -1/2, -1/2, 1), which is not integral."""
    sp = MarkedSpace(n_points=4, fiber_dims=(1, 2, 1, 1))
    ins = singleton_stage(sp)
    mid = make_cover(sp, [[1, 2, 4], [2, 3, 4], [1, 3, 4]])
    top = global_stage(sp)
    rng = np.random.default_rng(11)
    layer = InclusionLayer(
        input_cover=ins, output_cover=mid,
        aggregation=((0, 1, 3), (1, 2, 3), (0, 2, 3)),
        phi=tuple(affine_section(rng.standard_normal((2, d)))
                  for d in sp.fiber_dims),
        activation="tanh", out_dim=2)
    head = InclusionLayer(
        input_cover=mid, output_cover=top, aggregation=((0, 1, 2),),
        phi=tuple(affine_section(rng.standard_normal((1, 2)))
                  for _ in range(3)),
        activation="identity", out_dim=1)
    return Network(space=sp, sequence=CoverSequence(
        space=sp, stages=(ins, mid, top)), layers=(layer, head))


def _old_displacement(perturbations, p: float) -> float:
    """The float sum of the Fraction route, with the overflow rule
    max * (sum (|v|/max)^p)^(1/p) where the plain sum overflows."""
    vals = [abs(float(v)) for vec in perturbations for v in vec]
    try:
        total = 0.0
        for v in vals:
            total += v ** p
        if total != float("inf"):
            return total ** (1.0 / p)
    except OverflowError:
        pass
    top = max(vals)
    return top * sum((v / top) ** p for v in vals) ** (1.0 / p)


def _old_zero_sum(perturbations, aggregation) -> bool:
    width = len(perturbations[0])
    return all(sum((perturbations[a][s] for a in atuple), Fraction(0)) == 0
               for atuple in aggregation for s in range(width))


def _fraction_attack(layer, p: float, delta: float, seed: int):
    """The Fraction bookkeeping that the integer one replaced (oracle):
    accumulate Fractions, rerun the displacement at every doubling."""
    inc = np.zeros((len(layer.aggregation), len(layer.phi)), dtype=np.int64)
    for b, atuple in enumerate(layer.aggregation):
        inc[b, list(atuple)] = 1
    basis = nullspace_basis(inc)
    k1 = layer.out_dim
    rng = np.random.default_rng(seed)
    m_frac = [[Fraction(0)] * k1 for _ in layer.phi]
    for vec in basis:
        weights = rng.integers(-3, 4, size=k1)
        for a, v in vec.items():
            for s in range(k1):
                m_frac[a][s] += int(weights[s]) * v
    if not any(any(v) for v in m_frac):
        for a, v in basis[0].items():
            m_frac[a][0] += v
    while _old_displacement(m_frac, p) <= delta:
        m_frac = [[2 * v for v in vec] for vec in m_frac]
    return tuple(tuple(v) for v in m_frac), basis


ATTACKED = ([(f"cnn{n}", lambda n=n: build_cnn(n), 0) for n in (4, 8, 16)]
            + [("rnn-head", lambda: build_sequential(4, "rnn", seed=0), 1),
               ("shared-dag", _shared_dag_net, 0),
               ("overlap", _overlap_net, 0)]
            + [(f"partition{s}", lambda s=s: _partition_net(s), 0)
               for s in range(20)])


@pytest.mark.parametrize("name,make,layer_index", ATTACKED,
                         ids=[a[0] for a in ATTACKED])
def test_integer_bookkeeping_matches_the_fraction_route(name, make,
                                                        layer_index):
    net = make()
    layer = net.layers[layer_index]
    for p, seeds in ((1.0, (0, 3)), (2.0, (0, 7, 12)), (3.5, (1,)),
                     (300.0, (0, 5))):
        for seed in seeds:
            delta = (1.0, 10.0, 1000.0)[seed % 3]
            spec, rep = adversarial_attack(net, layer_index, p=p,
                                           delta=delta, seed=seed)
            want, basis = _fraction_attack(layer, p, delta, seed)
            assert spec.perturbations == want
            assert rep.measured["displacement"] == _old_displacement(want, p)
            assert spec.displacement() == rep.measured["displacement"]
            assert rep.measured["zero_sum_exact"] is _old_zero_sum(
                want, layer.aggregation) is True
            assert rep.verdict, rep.to_json()
            if name == "overlap":
                assert any(v.denominator > 1 for vec in basis
                           for v in vec.values())


def _loop_displacements(moves, p: float) -> np.ndarray:
    """Per-row p-displacement summed input by input (reference for the
    stacked route), with the max-scaled rule where the sum overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.zeros(len(moves[0]))
        for d in moves:
            total += np.sum(d ** p, axis=1)
        if np.all(np.isfinite(total ** (1.0 / p))):
            return total ** (1.0 / p)
        top = np.max([np.max(d, axis=1) for d in moves], axis=0)
        top[top == 0] = 1.0
        total = np.zeros(len(moves[0]))
        for d in moves:
            total += np.sum((d / top[:, None]) ** p, axis=1)
        return top * total ** (1.0 / p)


@pytest.mark.parametrize("name,make,layer_index", ATTACKED[:6],
                         ids=[a[0] for a in ATTACKED[:6]])
def test_stacked_displacement_matches_the_per_input_loop(name, make,
                                                         layer_index):
    net = make()
    layer = net.layers[layer_index]
    for p, delta, seed in ((1.0, 1.0, 0), (2.0, 10.0, 7), (300.0, 1000.0, 5)):
        spec, rep = adversarial_attack(net, layer_index, p=p, delta=delta,
                                       seed=seed)
        rng = np.random.default_rng(seed)  # the attack's own draws
        rng.integers(-3, 4, (rep.measured["null_space_dim"], layer.out_dim))
        xs = rng.standard_normal((20, net.input_dim))
        layers = list(net.layers)
        layers[layer_index] = replace(layer, offsets=[
            [float(v) for v in vec] for vec in spec.perturbations])
        pert = Network(space=net.space, sequence=net.sequence,
                       layers=tuple(layers))
        moves = [np.abs(a - b) for a, b in
                 zip(forward(pert, xs, trace=True).pre[layer_index],
                     forward(net, xs, trace=True).pre[layer_index])]
        measured = _loop_displacements(moves, p)
        gap = float(np.max(np.abs(measured - rep.measured["displacement"])))
        assert gap == rep.measured["max_displacement_gap"]


def test_the_cnn64_attack_peaks_below_a_dense_int64_incidence():
    import tracemalloc
    net = build_cnn(64)
    layer = net.layers[0]
    wide = 8 * len(layer.aggregation) * len(layer.phi)  # 32 MiB
    tracemalloc.start()
    try:
        _, rep = adversarial_attack(net, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.verdict
    assert peak < wide, (peak, wide)


def test_attack_on_the_token_layer_of_an_attention_network():
    # the verification batch runs through the attention layer as well
    net = build_attention(3, 4, heads=2, head_dim=2)
    spec, rep = adversarial_attack(net, 0, delta=5.0, seed=2)
    assert rep.verdict
    assert rep.measured["null_space_dim"] == 12 - 3
    assert spec.displacement() > 5.0


def test_classify_activation():
    assert classify_activation("sigmoid") == "not_surjective"
    assert classify_activation("tanh") == "not_surjective"
    assert classify_activation("sin") == "not_surjective"
    assert classify_activation("relu") == "not_surjective"
    assert classify_activation("identity") == "open_bijective"


def probe_points(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """The thm4.3 probe as one array: its blocks, concatenated."""
    return np.concatenate(list(witnesses._probe_blocks(dim, count, seed)))


def test_probe_points():
    mesh = probe_points(2, 10)
    assert mesh.shape == (16, 2)
    assert np.max(np.abs(mesh)) <= 3.0
    cloud = probe_points(7, 10, seed=2)
    assert cloud.shape == (10, 7)
    assert np.array_equal(cloud, probe_points(7, 10, seed=2))


def test_dataset_dependency_bounded_activation():
    net = build_sequential(4, "rnn", seed=3)  # tanh head
    rep = dataset_dependency(net, grid_points=500, seed=1)
    assert rep.verdict
    assert rep.measured["branch"] == "not_surjective"
    assert rep.measured["target_value"] == 2.0
    assert rep.measured["min_gap_to_target"] > 1e-6
    relu = build_sequential(4, "rnn", activation="relu", seed=3)
    rep2 = dataset_dependency(relu, grid_points=500, seed=1)
    assert rep2.measured["target_value"] == -1.0
    assert rep2.verdict


NAN, INF = float("nan"), float("inf")
CHECKS_NOTHING = [
    ("n_samples", lambda c: locality_witness(c, (1, 1, 1), 1, n_samples=0)),
    ("k", lambda c: locality_witness(c, (1, 1, 1), 0)),
    ("n_trials", lambda c: surjectivity_witness(c, (1, 1, 1), 1, n_trials=0)),
    ("k", lambda c: surjectivity_witness(c, (1, 1, 1), 0)),
    ("k", lambda c: kernel_report(c, k=0)),
    ("k", lambda c: glue_report(c, k=0)),
    ("n_samples", lambda c: glue_report(c, n_samples=0)),
    ("k", lambda c: cech_cohomology(c, (1, 1, 1), 0, 2)),
    ("k", lambda c: sheaf_axiom_check(c, (1, 1, 1), 0)),
    ("max_degree", lambda c: cech_cohomology(c, (1, 1, 1), 1, -1)),
    *[("tol", lambda c, t=t: dataset_dependency(build_cnn(4), tol=t))
      for t in (-1.0, NAN, INF)],
    *[("tol", lambda c, t=t: adversarial_attack(
        network_from_json("fixtures/sumpool.json"), 0, tol=t))
      for t in (-1e-9, NAN, INF)],
    # two locals that disagree on every overlap would glue unchecked
    ("n_samples", lambda c: glue_inclusion_exclusion(
        [constant_section(2, [float(i)]) for i in range(3)], c, n_samples=0)),
    ("tol", lambda c: glue_report(c, tol=-1.0)),
    *[(f, lambda c, kw=kw: sections_equal(zero_section(1, 1), zero_section(1, 1), **kw))
      for f, kw in (("n_samples", {"n_samples": 0}), ("tol", {"tol": NAN}),
                    ("tol", {"tol": INF}))],
]


@pytest.mark.parametrize("field,call", CHECKS_NOTHING)
def test_library_claims_reject_counts_that_check_nothing(field, call):
    """A verdict that checked nothing is never given: each call raises a
    ValueError naming the argument, before any verdict."""
    with pytest.raises(ValueError, match=f"^{field} must be"):
        call(triangle_cover())


def one_shot_probe(dim: int, count: int, seed: int) -> np.ndarray:
    """The probe as one array: a meshgrid, or one uniform draw."""
    if dim <= 6:
        r = max(2, math.ceil(count ** (1.0 / dim)))
        mesh = np.meshgrid(*[np.linspace(-3.0, 3.0, r)] * dim, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)
    return np.random.default_rng(seed).uniform(-3.0, 3.0, size=(count, dim))


@pytest.mark.parametrize("dim,count", [(1, 5), (2, 10), (3, 2500), (6, 5000),
                                       (7, 10), (12, 1024), (12, 2500)])
def test_probe_points_equal_the_one_shot_probe(dim, count):
    assert np.array_equal(probe_points(dim, count, seed=4),
                          one_shot_probe(dim, count, 4))


@pytest.mark.parametrize("net,grid", [
    (build_cnn(2, seed=5), 2500),                      # uniform draws, dim 12
    (build_sequential(4, "rnn", seed=3), 10_000),      # mesh, dim 4
    (build_sequential(3, "rnn", activation="relu", seed=1), 3000),
], ids=["cnn2-random", "rnn4-mesh", "rnn3-relu-mesh"])
def test_streamed_probe_matches_one_shot_forward(net, grid, monkeypatch):
    """The report equals the one probed through one forward call, and
    no forward call sees more than 1,024 rows."""
    target = ACTIVATIONS[net.layers[-1].activation].unreachable_value
    pts = one_shot_probe(net.input_dim, grid, 2)
    outs = forward(net, pts).output
    gap = float(np.min(np.max(np.abs(outs - target), axis=1)))
    rows = []

    def spy(net, x, *args, **kwargs):
        rows.append(len(x))
        return forward(net, x, *args, **kwargs)

    monkeypatch.setattr(witnesses, "forward", spy)
    rep = dataset_dependency(net, grid_points=grid, seed=2)
    assert rep.verdict is (gap > 1e-6)
    assert rep.measured == {"branch": "not_surjective", "target_value": target,
                            "min_gap_to_target": gap, "probe_count": len(pts)}
    assert max(rows) <= 1024 and sum(rows) == len(pts) and len(rows) > 1


def test_dataset_dependency_rejects_empty_probe():
    net = build_sequential(4, "rnn", seed=3)
    for grid in (0, -5):
        with pytest.raises(ValueError, match="grid_points"):
            dataset_dependency(net, grid_points=grid)


def test_dataset_dependency_identity_head():
    net = build_cnn(2, plan=[{"kind": "conv", "channels": 2,
                              "activation": "relu"},
                             {"kind": "fc", "out_dim": 1,
                              "activation": "identity"}])
    rep = dataset_dependency(net, seed=1)
    assert rep.verdict
    assert rep.measured["branch"] == "open_bijective"
    assert rep.measured["target_mixed_difference"] == 1.0
    assert rep.measured["max_network_mixed_difference"] <= 1e-9
    # a prefix stage ends in the full set, so no splitting pair exists
    seq = build_sequential(4, "rnn", activation="identity", seed=3)
    with pytest.raises(ValueError):
        dataset_dependency(seq, seed=1)


def test_pooled_collision():
    rep = pooled_collision(seed=0)
    assert rep.verdict
    assert rep.measured["output_gap"] == 0.0
    assert rep.measured["input_gap"] > 0.0
