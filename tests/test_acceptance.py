"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS line so the run log doubles as a
checklist.  Tolerances are stated next to the assertions they gate.
"""

import itertools
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import coversheaf
from coversheaf.cech import cech_cohomology, sheaf_axiom_check
from coversheaf.cli import main
from coversheaf.graphs import (Graph, compare_graphs, cycle_graph,
                               disjoint_union, partition_ids, path_graph,
                               unfolding_code_levels, wl_refine)
from coversheaf.network import (InclusionLayer, Network, build_attention,
                                build_cnn, build_sequential,
                                positional_encoding)
from coversheaf.sections import (ACTIVATIONS, Const, Section, Sum,
                                 affine_section, compose_coord, open_set_dim,
                                 polynomial_coefficients, polynomial_section,
                                 product_counterexample, projection_map,
                                 sections_equal, zero_pad_map)
from coversheaf.topology import (CoverSequence, MarkedSpace, OpenSet,
                                 check_na_axioms, global_stage, make_cover,
                                 singleton_stage)
from coversheaf.witnesses import (IncompatibleLocalsError, adversarial_attack,
                                  classify_activation,
                                  cosheaf_kernel_decompose, dataset_dependency,
                                  glue_inclusion_exclusion, locality_witness,
                                  multi_mixed_difference,
                                  surjectivity_witness)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GLUE_TOL = 1e-9
SEPARABLE_TOL = 1e-12
DISPLACEMENT_TOL = 1e-12
OUTPUT_TOL = 1e-9
TARGET_TOL = 1e-6
ENCODING_TOL = 1e-12


def sweep_covers():
    """The cover battery: spaces of at most 6 points, covers of at most
    5 elements; a fixed structured list plus a seeded random block."""
    fixed = [
        ((1,), [[1]], 1),
        ((1, 1), [[1], [2]], 1),
        ((2, 3), [[1, 2]], 2),
        ((1, 1, 1), [[1, 2], [2, 3], [1, 3]], 1),
        ((1, 2, 1), [[1, 2], [2, 3]], 1),
        ((1, 1, 1, 1), [[1, 2, 3], [2, 3, 4], [3, 4, 1], [1, 2, 4]], 2),
        ((2, 1, 2, 1, 1), [[1, 2, 3, 4, 5], [2, 3], [4], [5, 1]], 1),
        ((1, 1, 1, 1, 1, 1), [[1, 2], [3, 4], [5, 6]], 1),
        ((1, 1, 1, 1), [[1], [1, 2], [1, 2, 3], [1, 2, 3, 4]], 1),
    ]
    for fibers, mems, k in fixed:
        sp = MarkedSpace(n_points=len(fibers), fiber_dims=fibers)
        yield make_cover(sp, mems), k
    rng = np.random.default_rng(315)
    for _ in range(80):
        n = int(rng.integers(1, 7))
        fibers = tuple(int(x) for x in rng.integers(1, 4, size=n))
        sp = MarkedSpace(n_points=n, fiber_dims=fibers)
        mems = []
        for _ in range(int(rng.integers(1, 6))):
            members = [p + 1 for p in range(n) if rng.random() < 0.5]
            if not members:
                members = [int(rng.integers(1, n + 1))]
            mems.append(members)
        yield make_cover(sp, mems), int(rng.integers(1, 3))


def test_section_space_gluing_axiom_holds_on_small_covers():
    t0 = time.monotonic()
    count = 0
    for cover, k in sweep_covers():
        rep = sheaf_axiom_check(cover, cover.space.fiber_dims, k)
        assert rep.passed, rep.to_json()
        assert rep.injective and rep.exact_middle
        assert rep.cosheaf_coker_dim == 0
        count += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"PASS restriction/gluing exactness on {count} covers "
          f"({elapsed:.2f}s)")


def test_cohomology_vanishes_in_positive_degree():
    count = 0
    for cover, k in sweep_covers():
        fibers = cover.space.fiber_dims
        h = cech_cohomology(cover, fibers, k, max_degree=3)
        assert h[0] == k * sum(fibers[p - 1] for p in cover.covered)
        assert h[1:] == [0, 0, 0], (h, sorted(map(sorted,
                                                  cover.memberships())))
        count += 1
    print(f"PASS positive-degree cohomology vanishes on {count} covers")


def _qualifying(cover) -> bool:
    return all(cover.covered - el.members for el in cover.elements)


def test_product_section_restricts_to_zero_everywhere():
    count = 0
    for cover, k in sweep_covers():
        if not _qualifying(cover):
            continue
        _, rep = locality_witness(cover, cover.space.fiber_dims, k,
                                  n_samples=100, seed=0)
        assert rep.verdict
        assert rep.measured["restriction_deviations"] == \
            [0.0] * len(cover.elements)
        assert rep.measured["h_at_ones_norm"] == 1.0
        count += 1
    assert count >= 20
    print(f"PASS coordinate product vanishes on every element of "
          f"{count} qualifying covers, norm 1 at the all-ones input")


def test_product_section_escapes_separable_sums():
    sp = MarkedSpace(n_points=2, fiber_dims=(1, 1))
    cover = make_cover(sp, [[1], [2]])
    U = OpenSet(id="u", members=frozenset({1, 2}))
    prod = product_counterexample(U, (1, 1), 1)
    md = multi_mixed_difference(prod, [0, 1], np.zeros(2), 1.0)
    assert md.tolist() == [1.0]
    rep = surjectivity_witness(cover, (1, 1), 1, n_trials=50, seed=0)
    assert rep.verdict
    assert rep.measured["product_alternating_difference"] == 1.0
    assert rep.measured["max_separable_alternating_difference"] \
        <= SEPARABLE_TOL
    print("PASS product has unit mixed difference; 50 separable sums "
          f"stay below {SEPARABLE_TOL}")


def _glue_pool():
    return [(cover, k) for cover, k in sweep_covers()
            if 2 <= len(cover.elements) <= 5]


def _random_polynomial(rng, d, k, domain):
    coeffs = [dict() for _ in range(k)]
    for _ in range(4):
        mono = [0] * d
        for _ in range(int(rng.integers(0, 3))):
            mono[int(rng.integers(0, d))] += 1
        c = int(rng.integers(-3, 4))
        if c:
            for s in range(k):
                key = tuple(mono)
                coeffs[s][key] = coeffs[s].get(key, Fraction(0)) + c + s
    return polynomial_section(d, k, coeffs, domain=domain)


def _bumped(sec: Section, k: int) -> Section:
    return Section(domain_dim=sec.domain_dim, codomain_dim=k,
                   body=Sum((sec.body, Const((1.0,) * k))),
                   domain=sec.domain)


def test_inclusion_exclusion_gluing_round_trip():
    pool = _glue_pool()
    rejections = 0
    for seed in range(100):
        cover, k = pool[seed % len(pool)]
        fibers = cover.space.fiber_dims
        rng = np.random.default_rng(seed)
        U = OpenSet(id="u", members=cover.covered)
        d_U = open_set_dim(U.members, fibers)
        if seed % 2 == 0:  # alternate linear and polynomial families
            hidden = affine_section(
                rng.integers(-3, 4, size=(k, d_U)).astype(float),
                bias=rng.integers(-3, 4, size=k).astype(float), domain=U)
        else:
            hidden = _random_polynomial(rng, d_U, k, U)
        locals_ = [compose_coord(hidden, zero_pad_map(fibers, el, U))
                   for el in cover.elements]
        glued = glue_inclusion_exclusion(locals_, cover, tol=GLUE_TOL,
                                         n_samples=50, seed=seed)
        for el, loc in zip(cover.elements, locals_):
            back = compose_coord(glued, zero_pad_map(fibers, el, U))
            res = sections_equal(back, loc, n_samples=50, tol=GLUE_TOL,
                                 seed=seed)
            assert res.max_deviation <= GLUE_TOL

        mems = cover.memberships()
        pair = next(((i, j) for i, j
                     in itertools.combinations(range(len(mems)), 2)
                     if mems[i] & mems[j]), None)
        if pair is None:
            continue
        bad = list(locals_)
        bad[pair[0]] = _bumped(bad[pair[0]], k)
        try:
            glue_inclusion_exclusion(bad, cover, tol=GLUE_TOL,
                                     n_samples=50, seed=seed)
            raise AssertionError("incompatible family was glued")
        except IncompatibleLocalsError as e:
            assert pair[0] in e.pair
            # the named pair must genuinely disagree on its overlap
            # (possibly the empty face, where constants must match)
            a, b = e.pair
            w = OpenSet(id="w", members=mems[a] & mems[b])
            ra = compose_coord(bad[a], zero_pad_map(fibers, w,
                                                    cover.elements[a]))
            rb = compose_coord(bad[b], zero_pad_map(fibers, w,
                                                    cover.elements[b]))
            assert not sections_equal(ra, rb, n_samples=50, tol=GLUE_TOL,
                                      seed=seed).equal
            rejections += 1
    assert rejections >= 40
    print(f"PASS 100 seeded families reglue below {GLUE_TOL}; "
          f"{rejections} perturbed families rejected with the right pair")


def _add_coeffs(acc, coeffs, sign):
    for s, table in enumerate(coeffs):
        for mono, c in table.items():
            nv = acc[s].get(mono, Fraction(0)) + sign * c
            if nv:
                acc[s][mono] = nv
            elif mono in acc[s]:
                del acc[s][mono]


def test_pairwise_kernel_decomposition_round_trip():
    pool = [(cover, k) for cover, k in _glue_pool()
            if any(a & b for a, b in
                   itertools.combinations(cover.memberships(), 2))]
    done = 0
    for seed in range(50):
        cover, k = pool[seed % len(pool)]
        fibers = cover.space.fiber_dims
        mems = cover.memberships()
        rng = np.random.default_rng(1000 + seed)
        pairs = [(i, j) for i, j
                 in itertools.combinations(range(len(mems)), 2)
                 if mems[i] & mems[j]][:3]

        acc = [[dict() for _ in range(k)] for _ in mems]
        for (i, j) in pairs:
            overlap = OpenSet(id=f"o{i}.{j}", members=mems[i] & mems[j])
            d_o = open_set_dim(overlap.members, fibers)
            gen = _random_polynomial(rng, d_o, k, overlap)
            for a, sign in ((i, 1), (j, -1)):
                ext = compose_coord(gen, projection_map(
                    fibers, cover.elements[a], overlap))
                _add_coeffs(acc[a], polynomial_coefficients(ext), sign)
        locals_ = [polynomial_section(open_set_dim(mems[a], fibers), k,
                                      acc[a], domain=cover.elements[a])
                   for a in range(len(mems))]

        family = cosheaf_kernel_decompose(locals_, cover)
        for (a, b), sec in family.items():
            ca = polynomial_coefficients(sec)
            cb = polynomial_coefficients(family[(b, a)])
            for s in range(k):
                assert {m: -c for m, c in ca[s].items()} == cb[s]
        for a in range(len(mems)):
            rebuilt = [dict() for _ in range(k)]
            for (x, b), sec in family.items():
                if x != a:
                    continue
                ext = compose_coord(sec, projection_map(
                    fibers, cover.elements[a], sec.domain))
                _add_coeffs(rebuilt, polynomial_coefficients(ext), 1)
            assert rebuilt == acc[a]
        done += 1
    print(f"PASS {done} pairwise families decompose antisymmetrically "
          "and rebuild coefficient-exactly")


def _partition_net(seed: int) -> Network:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    fibers = tuple(int(x) for x in rng.integers(1, 3, size=n))
    sp = MarkedSpace(n_points=n, fiber_dims=fibers)
    ins = singleton_stage(sp)
    order = [int(p) for p in rng.permutation(n)]
    m = int(rng.integers(2, max(3, n // 2 + 1)))
    blocks = [sorted(p + 1 for p in order[i::m]) for i in range(m)]
    out = make_cover(sp, blocks, prefix="B")
    width = int(rng.integers(1, 3))
    phi = tuple(affine_section(rng.standard_normal((width, fibers[p])),
                               bias=rng.standard_normal(width),
                               domain=ins.elements[p])
                for p in range(n))
    layer = InclusionLayer(
        input_cover=ins, output_cover=out,
        aggregation=tuple(tuple(p - 1 for p in b) for b in blocks),
        phi=phi, activation=("identity", "relu", "tanh", "sigmoid")[seed % 4],
        out_dim=width)
    top = global_stage(sp)
    head = InclusionLayer(
        input_cover=out, output_cover=top,
        aggregation=(tuple(range(m)),),
        phi=tuple(affine_section(rng.standard_normal((1, width)),
                                 domain=out.elements[b]) for b in range(m)),
        activation="identity", out_dim=1)
    return Network(space=sp,
                   sequence=CoverSequence(space=sp, stages=(ins, out, top)),
                   layers=(layer, head))


def test_zero_sum_attacks_move_representations_not_outputs():
    nets = [build_cnn(4)] + [_partition_net(s) for s in range(20)]
    checked = 0
    for idx, net in enumerate(nets):
        layer = net.layers[0]
        for delta in (1.0, 10.0, 100.0):
            spec, rep = adversarial_attack(net, 0, p=2.0, delta=delta,
                                           seed=idx, n_inputs=20,
                                           tol=OUTPUT_TOL)
            assert rep.verdict, rep.to_json()
            for atuple in layer.aggregation:
                for s in range(len(spec.perturbations[0])):
                    total = sum((spec.perturbations[a][s] for a in atuple),
                                Fraction(0))
                    assert total == 0
            assert spec.displacement() > delta
            assert rep.measured["max_displacement_gap"] <= DISPLACEMENT_TOL
            assert rep.measured["max_output_gap"] <= OUTPUT_TOL
            checked += 1
    print(f"PASS {checked} attacks: exact zero sums, displacement formula "
          f"within {DISPLACEMENT_TOL}, outputs within {OUTPUT_TOL}")


def test_bounded_heads_leave_targets_unreachable():
    sigmoid_net = build_cnn(4)  # sigmoid head
    tanh_net = build_sequential(6, "rnn", seed=0)  # tanh head
    for net in (sigmoid_net, tanh_net):
        rep = dataset_dependency(net, grid_points=10_000, tol=TARGET_TOL,
                                 seed=0)
        assert rep.verdict
        assert rep.measured["branch"] == "not_surjective"
        assert rep.measured["probe_count"] >= 10_000
        assert rep.measured["min_gap_to_target"] > TARGET_TOL
    expected = {"identity": "open_bijective", "relu": "not_surjective",
                "sigmoid": "not_surjective", "tanh": "not_surjective",
                "sin": "not_surjective", "cos": "not_surjective"}
    assert set(expected) == set(ACTIVATIONS)
    for name, cls in expected.items():
        assert classify_activation(name) == cls
    print(f"PASS bounded heads miss their target beyond {TARGET_TOL} "
          "over 10000-point probes; classifier matches the catalog")


def test_stage_cover_axiom_verdicts_match_fixtures():
    cnn = check_na_axioms(build_cnn(4).sequence).to_json()["stages"]
    assert cnn == [
        {"stage": 1, "locality": False, "strictness": True,
         "non_triviality": True, "distinctness": True, "sizes": [16, 4],
         "uncovered_point": None, "non_triviality_failure": None,
         "distinctness_failure": None},
        {"stage": 2, "locality": False, "strictness": True,
         "non_triviality": False, "distinctness": True, "sizes": [4, 1],
         "uncovered_point": None, "non_triviality_failure": 0,
         "distinctness_failure": None},
    ]
    att = check_na_axioms(build_attention(3, 4).sequence).to_json()["stages"]
    assert att == [
        {"stage": 1, "locality": False, "strictness": True,
         "non_triviality": True, "distinctness": True, "sizes": [12, 3],
         "uncovered_point": None, "non_triviality_failure": None,
         "distinctness_failure": None},
        {"stage": 2, "locality": False, "strictness": True,
         "non_triviality": False, "distinctness": True, "sizes": [3, 1],
         "uncovered_point": None, "non_triviality_failure": 0,
         "distinctness_failure": None},
    ]
    assert not att[0]["locality"]
    print("PASS axiom verdict tables match the frozen fixtures "
          "(grid stages pass the aggregation axioms, token stages "
          "fail locality)")


def test_refinement_agrees_with_unfolding_trees_exhaustively():
    t0 = time.monotonic()
    count = 0
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = tuple(p for i, p in enumerate(pairs) if bits >> i & 1)
            g = Graph(n=n, edges=edges)
            levels = unfolding_code_levels(g, 4)
            rounds = wl_refine(g, 4).rounds
            for k in range(5):
                assert partition_ids(levels[k]) == partition_ids(rounds[k])
            count += 1
    elapsed = time.monotonic() - t0
    assert count == 33867
    assert elapsed < 60.0
    print(f"PASS refinement equals unfolding partitions on all {count} "
          f"graphs up to 6 nodes, depths 0..4 ({elapsed:.1f}s)")


def test_cycle_pair_indistinguishable_path_triangle_distinguished():
    c6 = cycle_graph(6)
    cc = disjoint_union(cycle_graph(3), cycle_graph(3))
    for k in range(9):
        assert not compare_graphs(c6, cc, k).distinguishable
    res = compare_graphs(path_graph(3), cycle_graph(3), 1)
    assert res.distinguishable
    print("PASS six-cycle vs two triangles indistinguishable to depth 8; "
          "path vs triangle split at depth 1")


def test_positional_encoding_matches_direct_formula():
    import math
    for n_tokens in range(1, 17):
        for d in range(1, 17):
            table = positional_encoding(n_tokens, d)
            assert len(table) == n_tokens * d
            for i in range(1, n_tokens + 1):
                for j in range(1, d + 1):
                    angle = i / 10000.0 ** (2.0 * j / d)
                    want = math.sin(angle) if i % 2 == 0 else math.cos(angle)
                    got = table[(i - 1) * d + (j - 1)]
                    assert abs(got[0] - want) <= ENCODING_TOL
                    assert abs(got[1] - (2 * j - 1) / (2 * d)) <= ENCODING_TOL
    print(f"PASS positional encodings match the direct formula within "
          f"{ENCODING_TOL} for all sizes up to 16x16")


CLI_MATRIX = [
    ["axioms", "--cover", str(FIXTURES / "triangle.json")],
    ["cohomology", "--cover", str(FIXTURES / "two_disjoint.json"), "--k", "2"],
    ["witness", "prop2.8"],
    ["witness", "thm4.1"],
    ["witness", "glue", "--cover", str(FIXTURES / "triangle.json")],
    ["witness", "thm4.2", "--net", str(FIXTURES / "sumpool.json"),
     "--seed", "7"],
    ["witness", "thm4.3"],
    ["wl-compare", str(FIXTURES / "c6.json"), str(FIXTURES / "2c3.json"),
     "--depth", "8"],
    ["demo", "cnn"],
    ["demo", "rnn"],
    ["demo", "attention"],
]


def _scrub(text: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', text)


def test_cli_reports_are_deterministic(capsys):
    for argv in CLI_MATRIX:
        main(list(argv))
        first = capsys.readouterr().out
        main(list(argv))
        second = capsys.readouterr().out
        assert _scrub(first) == _scrub(second), argv

    # cross-process: the same bytes from a fresh interpreter
    cmd = ("from coversheaf.cli import main; import sys; "
           "sys.exit(main(['cohomology', '--cover', "
           f"r'{FIXTURES / 'two_disjoint.json'}']))")
    # the child imports the same package as this process, whatever the
    # caller's PYTHONPATH says
    src = str(Path(coversheaf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    runs = [subprocess.run([sys.executable, "-c", cmd], capture_output=True,
                           text=True, check=True, env=env) for _ in range(2)]
    assert _scrub(runs[0].stdout) == _scrub(runs[1].stdout)
    print(f"PASS {len(CLI_MATRIX)} command lines reproduce byte-identical "
          "reports (timestamp aside), in-process and across processes")
