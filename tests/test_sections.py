"""Symbolic sections, coordinate maps and exact polynomial views."""

import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coversheaf.cli import main
from coversheaf.sections import (ACTIVATIONS, Activation, Affine, Const,
                                 Coords, CoordMap, Max, Node, Product,
                                 Section, Sum,
                                 affine_section, compose_coord,
                                 constant_section, evaluate, open_set_dim,
                                 polynomial_coefficients,
                                 polynomial_section, product_counterexample,
                                 projection_map, section_from_json,
                                 section_to_json, sections_equal,
                                 slot_layout, zero_pad_map, zero_section)
from coversheaf.witnesses import multi_mixed_difference

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SUMPOOL = FIXTURES / "sumpool.json"
SUMPOOL_NODES = FIXTURES / "sumpool_nodes.json"
UNIT3 = (1, 1, 1)
U_ALL = frozenset({1, 2, 3})
U_12 = frozenset({1, 2})
U_23 = frozenset({2, 3})


def test_slot_layout_and_dims():
    layout = slot_layout(frozenset({1, 3}), (2, 1, 3))
    assert {p: list(s) for p, s in layout.items()} == {1: [0, 1], 3: [2, 3, 4]}
    assert open_set_dim({1, 3}, (2, 1, 3)) == 5
    assert open_set_dim(frozenset(), (2, 1, 3)) == 0


def test_evaluate_drops_each_value_after_its_last_use():
    x = np.linspace(-1.0, 1.0, 20_000)[:, None]  # 160 kB per value
    first = Activation("tanh", Coords((0,)))
    node = first
    for _ in range(300):
        node = Activation("tanh", node)
    # ``first`` is read again at the top, so it must outlive the chain
    sec = Section(domain_dim=1, codomain_dim=1, body=Sum((node, first)))
    tracemalloc.start()
    try:
        got = evaluate(sec, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    want = np.tanh(x)
    top = want
    for _ in range(300):
        top = np.tanh(top)
    assert np.array_equal(got, top + want)
    # keeping every value would hold 300 of them
    assert peak < 8 * x.nbytes


def test_affine_evaluate():
    s = affine_section([[1.0, 2.0], [3.0, 4.0]], [1.0, -1.0])
    assert np.allclose(evaluate(s, [1.0, 1.0]), [4.0, 6.0])
    batch = evaluate(s, np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert batch.shape == (2, 2)
    assert np.allclose(batch[1], [1.0, -1.0])


def test_constant_and_zero_sections():
    c = constant_section(3, [2.0, -1.0])
    assert np.allclose(evaluate(c, np.zeros(3)), [2.0, -1.0])
    z = zero_section(2, 2)
    assert np.allclose(evaluate(z, [5.0, 7.0]), 0.0)
    # sections over an empty open set evaluate at the empty vector
    e = constant_section(0, [3.0])
    assert np.allclose(evaluate(e, np.zeros(0)), [3.0])


def test_restriction_drops_missing_points():
    # f(y1, y2, y3) = y1 + 10*y2 + 100*y3 over {1,2,3}
    f = affine_section([[1.0, 10.0, 100.0]])
    restricted = compose_coord(f, zero_pad_map(UNIT3, U_12, U_ALL))
    assert restricted.domain_dim == 2
    # the y3 slot reads the padded zero
    assert np.allclose(evaluate(restricted, [1.0, 1.0]), [11.0])


def test_extension_reads_through_projection():
    g = affine_section([[1.0, -1.0]])
    ext = compose_coord(g, projection_map(UNIT3, U_ALL, U_23))
    assert ext.domain_dim == 3
    assert np.allclose(evaluate(ext, [7.0, 2.0, 5.0]), [-3.0])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 6))
def test_extend_then_restrict_is_identity(seed):
    rng = np.random.default_rng(seed)
    g = affine_section(rng.standard_normal((2, 2)), rng.standard_normal(2))
    ext = compose_coord(g, projection_map(UNIT3, U_ALL, U_23))
    back = compose_coord(ext, zero_pad_map(UNIT3, U_23, U_ALL))
    res = sections_equal(back, g, n_samples=50, tol=0.0, seed=seed)
    assert res.equal and res.max_deviation == 0.0


def test_product_counterexample_shape():
    h = product_counterexample(3, 2)
    assert h.domain_dim == 3 and h.codomain_dim == 2
    assert np.allclose(evaluate(h, np.ones(3)), 1.0)
    assert np.allclose(evaluate(h, [1.0, 0.0, 1.0]), 0.0)
    with pytest.raises(ValueError):
        product_counterexample(1, 1)


def test_product_restricts_to_zero_exactly():
    h = product_counterexample(3, 1)
    for small in (U_12, U_23):
        r = compose_coord(h, zero_pad_map(UNIT3, small, U_ALL))
        res = sections_equal(r, zero_section(2, 1), n_samples=100,
                             tol=0.0, seed=0)
        # a missing point pads a zero factor into the product
        assert res.equal and res.max_deviation == 0.0


def test_mixed_difference_of_product_is_one():
    h = product_counterexample(2, 1)
    md = multi_mixed_difference(h, [0, 1], np.zeros(2), 1.0)
    assert md.tolist() == [1.0]


def test_mixed_difference_of_separable_sum_vanishes():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        g1 = affine_section(rng.standard_normal((1, 1)), rng.standard_normal(1))
        g2 = affine_section(rng.standard_normal((1, 1)), rng.standard_normal(1))
        u = frozenset({1, 2})
        e1 = compose_coord(g1, projection_map((1, 1), u, frozenset({1})))
        e2 = compose_coord(g2, projection_map((1, 1), u, frozenset({2})))
        s = Section(domain_dim=2, codomain_dim=1, body=Sum((e1.body, e2.body)))
        base = rng.standard_normal(2)
        md = multi_mixed_difference(s, [0, 1], base, 1.0)
        worst = max(worst, float(np.max(np.abs(md))))
    assert worst <= 1e-12


def test_sections_equal_reports_deviation():
    a = affine_section([[1.0, 0.0]])
    b = affine_section([[1.0, 0.5]])
    res = sections_equal(a, b, n_samples=40, tol=1e-9, seed=1)
    assert not res.equal and res.max_deviation > 0.0
    same = sections_equal(a, a, n_samples=40, tol=0.0, seed=1)
    assert same.equal


def test_polynomial_round_trip():
    # dyadic coefficients survive the float parameters exactly
    coeffs = [{(2, 0): Fraction(3, 2), (1, 1): Fraction(-1), (0, 0): Fraction(5)},
              {(0, 1): Fraction(7, 4)}]
    s = polynomial_section(2, 2, coeffs)
    assert polynomial_coefficients(s) == coeffs
    y = np.array([2.0, 3.0])
    want = [1.5 * 4 - 6 + 5, 7.0 / 4.0 * 3.0]
    assert np.allclose(evaluate(s, y), want)


def test_polynomial_coefficients_of_product():
    h = product_counterexample(3, 1)
    assert polynomial_coefficients(h) == [{(1, 1, 1): Fraction(1)}]


def test_polynomial_rejects_nonpolynomial():
    s = affine_section([[1.0]])
    relu = Section(domain_dim=1, codomain_dim=1, body=Activation("relu", s.body))
    with pytest.raises(ValueError):
        polynomial_coefficients(relu)


def identity_section(dim: int) -> Section:
    return Section(domain_dim=dim, codomain_dim=dim,
                   body=Coords(tuple(range(dim))))


def test_identity_section():
    s = identity_section(3)
    y = np.array([1.0, -2.0, 3.0])
    assert np.allclose(evaluate(s, y), y)


def test_activation_catalog():
    flags = {name: (a.surjective, a.open_map, a.bijective,
                    a.unreachable_value)
             for name, a in ACTIVATIONS.items()}
    assert flags == {
        "identity": (True, True, True, None),
        "relu": (False, False, False, -1.0),
        "sigmoid": (False, True, False, 2.0),
        "tanh": (False, True, False, 2.0),
        "sin": (False, False, False, 2.0),
        "cos": (False, False, False, 2.0),
    }


def test_composition_rewrites_indices_flat():
    # composing twice keeps evaluation consistent (no nesting blowup)
    f = affine_section([[1.0, 2.0, 3.0]])
    step1 = compose_coord(f, zero_pad_map(UNIT3, U_23, U_ALL))
    step2 = compose_coord(step1, projection_map(UNIT3, U_ALL, U_23))
    assert step2.domain_dim == 3
    assert np.allclose(evaluate(step2, [9.0, 1.0, 1.0]), [5.0])


def test_nodes_are_distinct_and_children_first():
    x, c = Coords((0,)), Const((2.0,))
    shared = Sum((x, c))
    body = Product((shared, Activation("tanh", shared), x))
    sec = Section(domain_dim=1, codomain_dim=1, body=body)
    assert [type(n).__name__ for n in sec.nodes] == [
        "Coords", "Const", "Sum", "Activation", "Product"]
    assert sec.nodes[2] is shared and sec.nodes[-1] is body
    assert [e["id"] for e in section_to_json(sec)["nodes"]] == list(range(5))
    # nodes is derived: it takes no part in construction, equality or repr
    assert sec == Section(1, 1, body)
    assert "nodes" not in repr(sec)


def test_section_checks_every_node(tmp_path, capsys):
    mixed = Sum((Coords((0,)), Coords((0, 1))))
    with pytest.raises(ValueError, match="share a width"):
        Section(domain_dim=2, codomain_dim=1,
                body=Affine(((1.0, 1.0),), (0.0,), mixed))
    with pytest.raises(ValueError, match="body width"):
        Section(domain_dim=2, codomain_dim=1, body=Coords((0, 1)))
    with pytest.raises(ValueError, match="outside the domain"):
        Section(domain_dim=2, codomain_dim=1,
                body=Activation("relu", Coords((2,))))
    # an affine map whose rows do not match its child's width
    with pytest.raises(ValueError, match="rows have length 3 but its child "
                                         "has width 2"):
        Section(2, 1, Affine(((1.0, 2.0, 3.0),), (0.0,), Coords((0, 1))))
    # a negative index does not read from the end
    with pytest.raises(ValueError, match="Coords index -1 is negative"):
        Section(2, 1, Coords((-1,)))
    # the constructors read parameters as section JSON does: no
    # truncated, boolean or string entries
    with pytest.raises(ValueError, match="indices must be an integer, got 0.7"):
        Coords((0.7, True))
    with pytest.raises(ValueError, match="indices must be an integer, got True"):
        Coords((True,))
    assert Coords((3.0,)).indices == (3,)
    with pytest.raises(ValueError, match="values must hold numbers, got '1.5'"):
        Const(("1.5",))
    with pytest.raises(ValueError, match="matrix must hold numbers, got True"):
        Affine(((True, "2"),), ("0",), Coords((0, 1)))
    with pytest.raises(ValueError, match="bias must hold numbers, got '0'"):
        Affine(((1.0, 2.0),), ("0",), Coords((0, 1)))
    with pytest.raises(ValueError, match="matrix must hold numbers, got True"):
        affine_section([[True]])
    # phi in the node schema, then in the {"matrix", "bias"} shorthand
    bad_docs = [(SUMPOOL_NODES, ["nodes", 0, "indices"], [-1],
                 "Coords index -1 is negative"),
                (SUMPOOL_NODES, ["nodes", 1, "matrix"], [["1.0"]],
                 "matrix must hold numbers, got '1.0'"),
                (SUMPOOL, ["matrix"], [[True]],
                 "matrix must hold numbers, got True"),
                (SUMPOOL, ["matrix"], [[None]],
                 "matrix must hold numbers, got None")]
    for source, keys, value, message in bad_docs:
        doc = json.loads(source.read_text())
        node = doc["layers"][0]["phi"][0]
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        for claim in ("thm4.2", "thm4.3"):
            assert main(["witness", claim, "--net", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"


DEEP = 5_000


def deep_section() -> Section:
    """x + swap(x) on R^2, where x is read through DEEP identity
    activations (far deeper than the interpreter's recursion limit)."""
    chain = Coords((0, 1))
    for _ in range(DEEP):
        chain = Activation("identity", chain)
    return Section(domain_dim=2, codomain_dim=2,
                   body=Sum((chain, Coords((1, 0)))))


def test_coordinate_maps_require_nested_sets():
    with pytest.raises(ValueError, match="projection requires the target "
                                         "inside the source"):
        projection_map(UNIT3, U_12, U_23)
    with pytest.raises(ValueError, match="zero_pad requires the source "
                                         "inside the target"):
        zero_pad_map(UNIT3, U_ALL, U_12)


def test_deep_dag_evaluates_and_composes():
    sec = deep_section()
    assert len(sec.nodes) == DEEP + 3
    y = np.array([[1.0, 2.0], [3.0, -5.0]])
    assert evaluate(sec, y).tolist() == [[3.0, 3.0], [-2.0, -2.0]]

    ext = compose_coord(sec, projection_map(UNIT3, U_ALL, U_12))
    assert evaluate(ext, [1.0, 2.0, 7.0]).tolist() == [3.0, 3.0]
    res = compose_coord(sec, zero_pad_map(UNIT3, frozenset({1}), U_12))
    assert evaluate(res, [4.0]).tolist() == [4.0, 4.0]
    shifted = compose_coord(sec, CoordMap(4, (1, 2)))
    assert evaluate(shifted, [9.0, 1.0, 2.0, 9.0]).tolist() == [3.0, 3.0]


def test_deep_dag_coefficients_and_json_round_trip():
    sec = deep_section()
    both = {(1, 0): Fraction(1), (0, 1): Fraction(1)}
    assert polynomial_coefficients(sec) == [both, both]
    doc = section_to_json(sec)
    assert doc["root"] == DEEP + 2
    assert section_to_json(section_from_json(doc)) == doc


# integers as JSON may spell them: in and out of range, negative, or
# floats with and without an integral value
_JSON_INT = st.one_of(st.integers(-2, 4), st.sampled_from([0.5, 1.0, -1.0, 2.5]))
_PARAM = st.floats(-2.0, 2.0)


def _mostly(good, bad=_JSON_INT):
    """A strategy that draws from ``good`` nine times in ten."""
    return st.integers(0, 9).flatmap(lambda k: bad if k == 0 else good)


@st.composite
def node_documents(draw):
    """Section documents with every key present and random contents."""
    nodes = []
    for i in range(draw(st.integers(1, 6))):
        kinds = st.sampled_from(["coords", "const", "affine", "activation",
                                 "product", "sum", "max"])
        # only a leaf can come first in a document that loads
        kind = draw(_mostly(st.sampled_from(["coords", "const"]), kinds)
                    if i == 0 else kinds)
        ref = _mostly(st.integers(0, max(i - 1, 0)))
        entry = {"kind": kind}
        if kind == "coords":
            entry["indices"] = draw(st.lists(_mostly(st.integers(0, 2)),
                                             max_size=3))
        elif kind == "const":
            entry["values"] = draw(st.lists(_PARAM, max_size=3))
        elif kind == "affine":
            rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 2))
            entry["matrix"] = draw(st.lists(st.lists(_PARAM, min_size=cols,
                                                     max_size=cols),
                                            min_size=rows, max_size=rows))
            entry["bias"] = draw(st.lists(_PARAM, min_size=rows, max_size=rows))
            entry["child"] = draw(ref)
        elif kind == "activation":
            entry["name"] = draw(st.sampled_from(sorted(ACTIVATIONS)))
            entry["child"] = draw(ref)
        else:
            entry["children"] = draw(st.lists(ref, min_size=1, max_size=3))
        entry["id"] = draw(_mostly(st.just(i)))
        nodes.append(entry)
    return {"domain_dim": draw(_mostly(st.integers(0, 3))),
            "codomain_dim": draw(_mostly(st.integers(0, 3))),
            "root": draw(_mostly(st.just(len(nodes) - 1))), "nodes": nodes}


@settings(max_examples=300, deadline=None)
@given(node_documents())
def test_random_node_documents_load_or_raise_value_error(doc):
    try:
        sec = section_from_json(doc)
    except ValueError:
        return
    out = evaluate(sec, np.ones((3, sec.domain_dim)))
    assert out.shape == (3, sec.codomain_dim)
    assert section_to_json(section_from_json(section_to_json(sec))) == \
        section_to_json(sec)


def tanh_chain(depth: int) -> Section:
    body = Coords((0,))
    for _ in range(depth):
        body = Activation("tanh", body)
    return Section(domain_dim=1, codomain_dim=1, body=body)


def test_deep_sections_compare_hash_and_print():
    # nodes compare and hash by identity, and repr stops at the children
    a, b = tanh_chain(1_500), tanh_chain(1_500)
    assert a != b and a == a and a == Section(1, 1, a.body)
    assert hash(a) == hash(Section(1, 1, a.body))
    assert len({a, b}) == 2
    assert repr(a.body) == "Activation(name='tanh', child=<Activation>)"
    assert len(repr(a)) < 200
    assert Coords((0,)) != Coords((0,))
    assert repr(Sum((Coords((0,)), Const((1.0,))))) == \
        "Sum(children=(<Coords>, <Const>))"
    assert repr(Coords((0, 1))) == "Coords(indices=(0, 1))"


# ---------------------------------------------------------------------------
# array-backed leaves


def tuple_route_evaluate(section: Section, y) -> np.ndarray:
    """Evaluation as it was before leaves held arrays: each call gathers
    every Coords with a list index and rebuilds each Affine's matrix and
    bias from its tuples.  The oracle for the array-backed leaves."""
    arr = np.asarray(y, dtype=float)
    single = arr.ndim == 1
    arr = arr[None, :] if single else arr
    vals: dict[int, np.ndarray] = {}
    for node in section.nodes:
        args = [vals[id(c)] for c in node.children]
        if isinstance(node, Coords):
            v = arr[:, list(node.indices)]
        elif isinstance(node, Const):
            v = np.broadcast_to(np.asarray(node.values, dtype=float),
                                (len(arr), len(node.values))).copy()
        elif isinstance(node, Affine):
            v = args[0] @ np.asarray(node.matrix, dtype=float).T + \
                np.asarray(node.bias, dtype=float)
        elif isinstance(node, Activation):
            v = ACTIVATIONS[node.name].fn(args[0])
        else:
            v = args[0]
            for a in args[1:]:
                v = node._ufunc(v, a)
        vals[id(node)] = v
    out = vals[id(section.body)]
    return out[0] if single else out


def random_dag(seed: int, dim: int = 6) -> Section:
    """A seeded DAG of Coords (runs and scattered indices), Const,
    Affine, identity/tanh Activation, Sum and Product nodes, with shared
    nodes; its body is the last node built."""
    rng = np.random.default_rng(seed)
    pool: list[tuple[Node, int]] = []
    for step in range(int(rng.integers(1, 12))):
        kind = int(rng.integers(2 if step == 0 else 6))
        w = int(rng.integers(1, dim + 1))
        if kind == 0:
            lo = int(rng.integers(0, dim - w + 1))
            idx = range(lo, lo + w) if rng.random() < 0.5 else \
                rng.integers(0, dim, size=w)
            node = Coords(tuple(int(i) for i in idx))
        elif kind == 1:
            node = Const(tuple(rng.standard_normal(w)))
        else:
            child, cw = pool[int(rng.integers(len(pool)))]
            if kind == 2:
                node = Affine(tuple(map(tuple, rng.standard_normal((w, cw)))),
                              tuple(rng.standard_normal(w)), child)
            elif kind == 3:
                node, w = Activation(("identity", "tanh")[step % 2], child), cw
            else:
                same = [n for n, nw in pool if nw == cw]
                picks = rng.integers(len(same), size=int(rng.integers(1, 4)))
                node, w = (Sum, Product)[kind - 4](tuple(same[i] for i in picks)), cw
        pool.append((node, w))
    body, width = pool[-1]
    return Section(domain_dim=dim, codomain_dim=width, body=body)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("start", range(0, 400, 100))
def test_array_leaves_evaluate_as_the_tuple_route_bit_for_bit(start):
    rng = np.random.default_rng(start)
    wide = rng.standard_normal((9, 11))
    for seed in range(start, start + 100):
        sec = random_dag(seed)
        for y in (wide[:, :6], wide[:, 3:9], wide[4, 2:8],
                  np.ascontiguousarray(wide[:, 5:])):
            assert same_bits(evaluate(sec, y), tuple_route_evaluate(sec, y))


@pytest.mark.parametrize("start", range(0, 200, 50))
def test_a_stack_evaluates_as_its_slabs_bit_for_bit(start):
    rng = np.random.default_rng(start)
    for seed in range(start, start + 50):
        sec = random_dag(seed)
        row = tuple(rng.standard_normal(sec.codomain_dim))
        narrow = Section(domain_dim=6, codomain_dim=1,
                         body=Affine((row,), (0.5,), sec.body))
        for s in (sec, narrow):
            for rows in (1, 2, 3, 20):
                slabs = [rng.standard_normal((rows, 6)) for _ in range(4)]
                # row-major slabs, and the column-major ones a layer stacks
                for stack in (np.stack(slabs),
                              np.stack([v.T for v in slabs]).swapaxes(1, 2)):
                    got = evaluate(s, stack)
                    assert got.shape == (4, rows, s.codomain_dim)
                    for j, v in enumerate(slabs):
                        assert same_bits(got[j], evaluate(s, v))
            points = rng.standard_normal((4, 6))
            got = evaluate(s, points[:, None, :])
            for j, v in enumerate(points):
                assert same_bits(got[j, 0], evaluate(s, v))


def test_leaf_arrays_are_read_only():
    aff = Affine(((1.0, 2.0), (3.0, 4.0)), (0.5, -0.5), Coords((0, 1)))
    const = Const((1.0, 2.0))
    scattered = Coords((2, 0))
    for arr in (aff._matrix_t, aff._bias, const._values, scattered._at):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 7
    assert np.array_equal(aff._matrix_t, [[1.0, 3.0], [2.0, 4.0]])
    assert Coords((1, 2, 3))._at == slice(1, 4)
    assert Coords(())._at == slice(0, 0)
    assert not isinstance(Coords((1, 3))._at, slice)
    # a rewrite shares its leaves' arrays
    sec = Section(domain_dim=2, codomain_dim=2, body=aff)
    moved = compose_coord(sec, CoordMap(3, (1, 2)))
    assert moved.body._matrix_t is aff._matrix_t


@pytest.mark.parametrize("seed", range(40))
def test_json_round_trip_writes_only_the_node_fields(seed):
    sec = random_dag(seed)
    doc = section_to_json(sec)
    back = section_from_json(json.loads(json.dumps(doc)))
    assert section_to_json(back) == doc
    assert all(not key.startswith("_") for e in doc["nodes"] for key in e)
    y = np.random.default_rng(seed).standard_normal((5, 6))
    assert same_bits(evaluate(back, y), evaluate(sec, y))


@pytest.mark.parametrize("body,width", [
    (Coords((0, 1, 2)), 3), (Coords((1,)), 1), (Coords((2, 0)), 2),
    (Activation("identity", Coords((1, 2))), 2), (Sum((Coords((0, 1)),)), 2),
    (Max((Activation("identity", Coords((0, 1))),)), 2),
], ids=repr)
def test_evaluate_never_returns_memory_of_its_input(body, width):
    sec = Section(domain_dim=3, codomain_dim=width, body=body)
    wide = np.arange(20.0).reshape(4, 5)
    for y in (wide[:, :3], wide[:, 1:4], wide[2, :3], np.arange(3.0),
              np.asfortranarray(wide[:, 2:]), np.arange(24.0).reshape(2, 4, 3)):
        before = y.copy()
        out = evaluate(sec, y)
        assert not np.shares_memory(out, y)
        out[...] = -1.0
        assert np.array_equal(y, before)
