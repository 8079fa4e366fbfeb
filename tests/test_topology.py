"""Marked spaces, covers and the stage-pair axiom checker."""

import json

import numpy as np
import pytest

from coversheaf.topology import (Cover, CoverSequence, MarkedSpace,
                                 check_na_axioms, global_stage,
                                 load_space_document, make_cover,
                                 proper_unions, singleton_stage,
                                 space_from_json)
from coversheaf.graphs import Graph
from coversheaf.network import (GeneralLayer, InclusionLayer, Reducer,
                                build_cnn, build_rnn_cover, build_sequential)
from coversheaf.sections import Coords, Section, affine_section
from test_acceptance import sweep_covers


def space(n, fibers=None):
    return MarkedSpace(n_points=n, fiber_dims=fibers or (1,) * n,
                       structure=("abstract",))


def test_marked_space_properties():
    sp = MarkedSpace(n_points=3, fiber_dims=(2, 1, 3))
    assert list(sp.points) == [1, 2, 3]
    assert sp.total_dim == 6


def test_marked_space_validation():
    with pytest.raises(ValueError):
        MarkedSpace(n_points=0, fiber_dims=())
    with pytest.raises(ValueError):
        MarkedSpace(n_points=2, fiber_dims=(1,))
    with pytest.raises(ValueError):
        MarkedSpace(n_points=2, fiber_dims=(1, 0))
    with pytest.raises(ValueError):
        MarkedSpace(n_points=4, fiber_dims=(1,) * 4, structure=("grid", 3, 2))
    # a grid whose rows and cols multiply to n_points is still no grid
    # unless both are at least 1
    with pytest.raises(ValueError, match="at least 1, got -1 x -3"):
        MarkedSpace(n_points=3, fiber_dims=(1,) * 3, structure=("grid", -1, -3))
    # a graph edge joins exactly two points of the space
    for edges in ([[1, 99]], [[0, 2, 3]], [[1]]):
        with pytest.raises(ValueError, match=rf"graph edge \{edges[0]}"):
            MarkedSpace(n_points=3, fiber_dims=(1,) * 3,
                        structure=("graph", edges))


def test_cover_points_are_one_based():
    assert Cover(space(3), ({2, 1},)).memberships == (frozenset({1, 2}),)
    with pytest.raises(ValueError, match=r"element U1 references unknown "
                                         r"points \[0\]"):
        make_cover(space(3), [[1], [0, 1]])


def _layer(kind, **fields):
    """A one-layer stage pair on two points: both singletons into one."""
    sp = space(2)
    pair = {"input_cover": singleton_stage(sp),
            "output_cover": global_stage(sp), "aggregation": ((0, 1),),
            "out_dim": 1}
    if kind is InclusionLayer:
        pair.update(phi=(affine_section([[1.0]]),) * 2, activation="identity")
    else:
        pair.update(op=Reducer("max"))
    return kind(**{**pair, **fields})


@pytest.mark.parametrize("build, message", [
    (lambda: MarkedSpace(n_points=3, fiber_dims=(1.5, 1, True)),
     "fiber_dims must be an integer, got 1.5"),
    (lambda: MarkedSpace(n_points=True, fiber_dims=(1,)),
     "n_points must be an integer, got True"),
    (lambda: make_cover(space(3), [[1.9, 2], [True, 3]]),
     "a point of element U0 must be an integer, got 1.9"),
    (lambda: make_cover(space(3), [[1, 2], [True, 3]]),
     "a point of element U1 must be an integer, got True"),
    (lambda: make_cover(space(3), [["1"]]),
     "a point of element U0 must be an integer, got '1'"),
    (lambda: make_cover(space(3), [[1], [2], [0]]),
     r"element U2 references unknown points \[0\]"),
    (lambda: make_cover(space(3), [[1], [3, 4]]),
     r"element U1 references unknown points \[4\]"),
    (lambda: Graph(n=3, edges=((0, 1.7),), labels=(0.5, 1, 2)),
     "edges must be an integer, got 1.7"),
    (lambda: Graph(n=3, labels=(0.5, 1, 2)),
     "labels must be an integer, got 0.5"),
    (lambda: Graph(n="3"), "n must be an integer, got '3'"),
    (lambda: MarkedSpace(2, (1, 1), ("graph", ((1, 1.5),))),
     "edges must be an integer, got 1.5"),
    (lambda: MarkedSpace(2, (1, 1), ("graph", ((True, 2),))),
     "edges must be an integer, got True"),
    (lambda: MarkedSpace(4, (1,) * 4, ("grid", "2", 2)),
     "rows must be an integer, got '2'"),
    (lambda: MarkedSpace(4, (1,) * 4, ("grid", 2, 2.5)),
     "cols must be an integer, got 2.5"),
    (lambda: Section(domain_dim=2.5, codomain_dim=1, body=Coords((0,))),
     "domain_dim must be an integer, got 2.5"),
    (lambda: Section(domain_dim=True, codomain_dim=1, body=Coords((0,))),
     "domain_dim must be an integer, got True"),
    (lambda: Section(domain_dim=1, codomain_dim="1", body=Coords((0,))),
     "codomain_dim must be an integer, got '1'"),
    (lambda: _layer(GeneralLayer, out_dim=0), "out_dim must be at least 1"),
    (lambda: _layer(GeneralLayer, out_dim=-1), "out_dim must be at least 1"),
    (lambda: _layer(GeneralLayer, out_dim=1.5),
     "out_dim must be an integer, got 1.5"),
    (lambda: _layer(GeneralLayer, out_dim="x"),
     "out_dim must be an integer, got 'x'"),
    (lambda: _layer(InclusionLayer, aggregation=((True, 0),)),
     "aggregation must be an integer, got True"),
    (lambda: _layer(GeneralLayer, aggregation=((0, 0.5),)),
     "aggregation must be an integer, got 0.5"),
])
def test_constructors_refuse_non_integers_and_unknown_points(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("doc, message", [
    ({"n_points": 1.5, "fiber_dims": [1]},
     "malformed space document: n_points must be an integer, got 1.5"),
    ({"n_points": 2, "fiber_dims": [1, 1],
      "structure": {"kind": "graph", "edges": [[1, True]]}},
     "malformed space document: edges must be an integer, got True"),
    ({"n_points": 0, "fiber_dims": []}, "a marked space needs at least one point"),
])
def test_space_documents_name_a_non_integer_as_malformed(doc, message):
    """The constructor checks the integers, yet a space document keeps
    the reader's prefix on them and only on them."""
    with pytest.raises(ValueError) as info:
        space_from_json(doc)
    assert str(info.value) == message


def test_constructors_read_integral_floats_and_numpy_ints():
    sp = MarkedSpace(n_points=3.0, fiber_dims=(np.int64(2), 1.0, 1))
    assert (sp.n_points, sp.fiber_dims) == (3, (2, 1, 1))
    assert type(sp.n_points) is int
    cover = make_cover(sp, [[np.int64(1), 2.0], [3]])
    assert cover.memberships == (frozenset({1, 2}), frozenset({3}))
    g = Graph(n=np.int64(3), edges=((2.0, np.int32(1)),), labels=(1.0, 0, 0))
    assert (g.n, g.edges, g.labels) == (3, ((1, 2),), (1, 0, 0))
    grid = MarkedSpace(4, (1,) * 4, ("grid", 2.0, np.int64(2))).structure
    graph = MarkedSpace(3, (1,) * 3, ("graph", [[1.0, np.int32(3)]])).structure
    assert (grid, graph) == (("grid", 2, 2), ("graph", ((1, 3),)))
    assert [type(p) for p in (*grid[1:], *graph[1][0])] == [int] * 4
    sec = Section(domain_dim=1.0, codomain_dim=np.int64(1), body=Coords((0,)))
    assert [type(d) for d in (sec.domain_dim, sec.codomain_dim)] == [int] * 2
    inc = _layer(InclusionLayer, aggregation=((0.0, 1.0),), out_dim=1.0)
    assert (inc.aggregation, inc.out_dim) == (((0, 1),), 1)
    assert [type(x) for x in (*inc.aggregation[0], inc.out_dim)] == [int] * 3


def test_cover_validation():
    sp = space(3)
    cov = make_cover(sp, [[1, 2], [2, 3]])
    assert cov.covered == {1, 2, 3}
    assert cov.memberships == (frozenset({1, 2}), frozenset({2, 3}))
    with pytest.raises(ValueError):
        make_cover(sp, [])
    with pytest.raises(ValueError):
        make_cover(sp, [[1, 4]])


def test_cover_may_undercover():
    cov = make_cover(space(4), [[1], [2]])
    assert cov.covered == {1, 2}


def test_cover_derives_covered_and_takes_no_argument_for_it():
    els = (frozenset({1}),)
    assert Cover(space(3), els).covered == {1}
    with pytest.raises(TypeError):
        Cover(space(3), els, covered=frozenset({2, 3}))


def test_cover_sequence_endpoint_validation():
    sp = space(3)
    mid = make_cover(sp, [[1, 2], [2, 3]])
    CoverSequence(space=sp, stages=(singleton_stage(sp), mid, global_stage(sp)))
    with pytest.raises(ValueError):
        CoverSequence(space=sp, stages=(mid, global_stage(sp)))
    with pytest.raises(ValueError):
        CoverSequence(space=sp, stages=(singleton_stage(sp), mid))


def test_has_proper_union():
    f = frozenset
    # redundant member makes the full candidate family proper
    assert proper_unions([f({1, 2, 3})],
                         [f({1, 2}), f({2, 3}), f({1, 3})])[0]
    # unused extra element suffices too
    assert proper_unions([f({1, 2})], [f({1}), f({2}), f({3})])[0]
    # an exact partition admits no proper covering subfamily
    assert not proper_unions([f({1, 2, 3})], [f({1, 2}), f({3})])[0]
    assert not proper_unions([f({1, 2})], [f({1}), f({3})])[0]


def scan_proper_union(target, prev) -> bool:
    """The per-target scan that ``proper_unions`` replaced (oracle)."""
    def union(sets):
        out = frozenset()
        for s in sets:
            out = out | s
        return out
    cands = [i for i, s in enumerate(prev) if s <= target]
    if union(prev[i] for i in cands) != target:
        return False
    if len(cands) < len(prev):
        return True
    return any(union(prev[i] for i in cands if i != drop) == target
               for drop in cands)


def test_proper_unions_match_the_per_target_scan():
    rng = np.random.default_rng(2024)
    checked = empties = duplicates = 0
    for _ in range(400):
        n = int(rng.integers(1, 7))

        def family(size):
            out = [frozenset(int(p) for p in range(1, n + 1)
                             if rng.random() < rng.uniform(0.2, 0.8))
                   for _ in range(size)]
            # repeat some members, empty ones included
            return out + [out[int(rng.integers(len(out)))]
                          for _ in range(int(rng.integers(0, 3)))]
        prev = family(int(rng.integers(1, 6)))
        targets = family(int(rng.integers(1, 5)))
        # unions of prev members, so that many targets are reachable
        targets += [prev[0] | prev[-1], frozenset().union(*prev)]
        want = [scan_proper_union(t, prev) for t in targets]
        assert proper_unions(targets, prev) == want, (targets, prev)
        checked += len(targets)
        empties += not all(prev)
        duplicates += len(set(prev)) < len(prev)
    assert checked > 1000 and empties > 20 and duplicates > 100
    f = frozenset
    # an empty element is contained in every target and always redundant
    assert proper_unions([f({1, 2}), f()], [f({1}), f({2}), f()]) == [True,
                                                                      True]
    assert proper_unions([f()], [f({1})]) == [True]
    assert proper_unions([f({1})], [f({1})]) == [False]


def _oracle_non_triviality(seq):
    out = []
    for n in range(1, len(seq.stages)):
        prev = seq.stages[n - 1].memberships
        fail = [i for i, m in enumerate(seq.stages[n].memberships)
                if not scan_proper_union(m, prev)]
        out.append(fail[0] if fail else None)
    return out


def test_axiom_reports_match_the_per_target_scan():
    seqs = [build_cnn(4).sequence, build_sequential(4, "rnn").sequence,
            build_rnn_cover(5, "lstm", window=3)]
    for cover, _ in sweep_covers():
        sp = cover.space
        seqs.append(CoverSequence(space=sp, stages=(
            singleton_stage(sp), cover, global_stage(sp))))
    for seq in seqs:
        rep = check_na_axioms(seq)
        want = _oracle_non_triviality(seq)
        assert [s.non_triviality_failure for s in rep.stages] == want
        assert [s.non_triviality for s in rep.stages] == \
            [w is None for w in want]
    assert len(seqs) == 3 + 89


def test_cnn_stage_axiom_table():
    rep = check_na_axioms(build_cnn(4).sequence)
    first, second = rep.stages
    # 16 cell singletons -> 4 pooling blocks
    assert first.sizes == (16, 4)
    assert not first.locality  # the blocks cover every cell
    assert first.strictness and first.non_triviality and first.distinctness
    # 4 blocks -> global: a partition is never a proper-subfamily union
    assert second.sizes == (4, 1)
    assert second.strictness and second.distinctness
    assert not second.non_triviality
    assert not rep.all_hold


def test_single_patch_stage_is_not_a_proper_union():
    # one full patch over a 2x2 grid: strict (4 -> 1) but the patch
    # needs every singleton, so no proper subfamily reproduces it
    rep = check_na_axioms(build_cnn(2).sequence)
    first = rep.stages[0]
    assert first.sizes == (4, 1)
    assert first.strictness
    assert not first.non_triviality
    assert first.non_triviality_failure == 0


def test_prefix_stage_axioms():
    seq = build_rnn_cover(4, "rnn")
    assert [sorted(m) for m in seq.stages[1].memberships] == [
        [1], [1, 2], [1, 2, 3], [1, 2, 3, 4]]
    rep = check_na_axioms(seq)
    first, second = rep.stages
    assert not first.strictness  # 4 -> 4
    # the full prefix needs every singleton, so it is not a proper union
    assert not first.non_triviality
    assert first.non_triviality_failure == 3
    assert first.distinctness
    # global = the last prefix alone, a proper one-element subfamily
    assert second.non_triviality
    assert second.strictness


def test_axiom_failure_witnesses():
    sp = space(4)
    stages = (singleton_stage(sp),
              make_cover(sp, [[1, 2], [1, 2], [3]]),
              global_stage(sp))
    rep = check_na_axioms(CoverSequence(space=sp, stages=stages))
    first = rep.stages[0]
    assert first.locality and first.uncovered_point == 4
    assert not first.distinctness
    assert first.distinctness_failure == (0, 1)


def test_axiom_report_json_shape():
    rep = check_na_axioms(build_rnn_cover(3, "lstm", window=2))
    doc = rep.to_json()
    assert set(doc) == {"all_hold", "stages"}
    assert all(
        set(s) == {"stage", "locality", "strictness", "non_triviality",
                   "distinctness", "sizes", "uncovered_point",
                   "non_triviality_failure", "distinctness_failure"}
        for s in doc["stages"])
    json.dumps(doc)  # must be serializable as-is


def test_lstm_windows():
    seq = build_rnn_cover(5, "lstm", window=3)
    assert [sorted(m) for m in seq.stages[1].memberships] == [
        [1, 2, 3], [2, 3, 4], [3, 4, 5]]


def test_load_space_document(tmp_path):
    doc = {"n_points": 3, "fiber_dims": [1, 2, 1],
           "structure": {"kind": "abstract"},
           "covers": [[[1, 2], [2, 3]]]}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    sp, covers = load_space_document(path)
    assert sp.fiber_dims == (1, 2, 1)
    assert covers[0].memberships == (frozenset({1, 2}), frozenset({2, 3}))
    # inline JSON and decoded dicts are accepted too
    sp2, _ = load_space_document(json.dumps(doc))
    assert sp2 == sp
    sp3, _ = load_space_document(doc)
    assert sp3 == sp


def test_load_space_document_errors():
    with pytest.raises(ValueError):
        load_space_document({"fiber_dims": [1]})
    with pytest.raises(ValueError):
        load_space_document(json.dumps([1, 2]))
    with pytest.raises(ValueError):
        load_space_document({"n_points": 2, "fiber_dims": [1, 1],
                             "structure": {"kind": "moebius"}})
