"""Generated documents through the command line: every run exits 0, 1 or 2.

Spaces, graphs and networks are built from scratch (not mutated from a
fixture), written to files and run in-process.  Exit 2 (bad input) must
print nothing on stdout and exactly one ``error:`` line on stderr.
Examples are derandomized (``conftest.py``), so every run checks the
same documents.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coversheaf.cli import main
from coversheaf.sections import ACTIVATIONS


def generated(examples: int) -> settings:
    # each example overwrites the same files under tmp_path
    return settings(deadline=None, max_examples=examples,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def assert_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    if code == 2:
        lines = err.getvalue().splitlines()
        assert out.getvalue() == "", argv
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)
    else:
        json.loads(out.getvalue())


@st.composite
def space_documents(draw):
    n = draw(st.integers(1, 6))
    element = st.lists(st.integers(1, n), max_size=n)  # may be empty
    covers = []
    for fam in draw(st.lists(st.lists(element, min_size=1, max_size=5),
                             min_size=1, max_size=3)):
        if draw(st.booleans()):  # a repeated element
            fam.append(draw(st.sampled_from(fam)))
        covers.append(fam)
    if draw(st.integers(0, 7)) == 5:  # now and then, a cover of no element
        covers.append([])
    structure = draw(st.sampled_from([
        {"kind": "abstract"}, {"kind": "line"}, {"kind": "grid", "rows": 1, "cols": n},
        {"kind": "grid", "rows": 2, "cols": 2}, {"kind": "graph"}]))
    if structure["kind"] == "graph":
        point = st.integers(1, n)
        structure = {**structure, "edges": draw(st.lists(
            st.lists(point, min_size=2, max_size=2), max_size=4))}
    return {"n_points": n, "fiber_dims": draw(st.lists(st.integers(1, 2),
                                                       min_size=n, max_size=n)),
            "structure": structure, "covers": covers}


@generated(100)
@given(doc=space_documents(), depth=st.integers(0, 3))
def test_generated_space_documents(tmp_path, doc, depth):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    assert_contract(["axioms", "--cover", str(path)])
    assert_contract(["cohomology", "--cover", str(path), "--depth", str(depth)])
    for claim in ("prop2.8", "thm4.1", "glue"):
        assert_contract(["witness", claim, "--cover", str(path)])


@st.composite
def graph_documents(draw):
    n = draw(st.integers(0, 7))
    node = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(node, node), max_size=10))
    if draw(st.booleans()):  # a simple graph: no self-loop, no repeated edge
        edges = list(dict.fromkeys(tuple(sorted(e)) for e in edges if e[0] != e[1]))
    doc = {"n": n, "edges": edges}
    if draw(st.booleans()):
        doc["labels"] = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return doc


@generated(100)
@given(first=graph_documents(), second=graph_documents(), depth=st.integers(0, 4))
def test_generated_graph_documents(tmp_path, first, second, depth):
    paths = []
    for name, doc in (("first.json", first), ("second.json", second)):
        paths.append(str(tmp_path / name))
        (tmp_path / name).write_text(json.dumps(doc))
    assert_contract(["wl-compare", *paths, "--depth", str(depth)])


@st.composite
def partition_networks(draw):
    """Singletons, then the blocks of a random partition, then everything;
    one affine phi per input element."""
    n = draw(st.integers(1, 6))
    fibers = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    owner = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks = [b for b in ([p for p in range(n) if owner[p] == i]
                          for i in range(n)) if b]
    width, k = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    weight = st.integers(-2, 2).map(float)

    def phi(rows, cols):
        return {"matrix": draw(st.lists(st.lists(weight, min_size=cols,
                                                  max_size=cols),
                                         min_size=rows, max_size=rows))}

    return {"schema": 1,
            "space": {"n_points": n, "fiber_dims": fibers},
            "stages": [[[p] for p in range(1, n + 1)],
                       [[p + 1 for p in b] for b in blocks],
                       [list(range(1, n + 1))]],
            "layers": [
                {"kind": "inclusion", "aggregation": blocks, "out_dim": width,
                 "activation": draw(st.sampled_from(sorted(ACTIVATIONS))),
                 "phi": [phi(width, f) for f in fibers]},
                {"kind": "inclusion", "aggregation": [list(range(len(blocks)))],
                 "out_dim": k, "activation": draw(st.sampled_from(sorted(ACTIVATIONS))),
                 "phi": [phi(k, width) for _ in blocks]}]}


@generated(80)
@given(doc=partition_networks(), layer=st.integers(0, 1),
       grid=st.integers(1, 200), seed=st.integers(0, 3))
def test_generated_networks(tmp_path, doc, layer, grid, seed):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    assert_contract(["witness", "thm4.2", "--net", str(path),
                     "--layer", str(layer), "--seed", str(seed)])
    assert_contract(["witness", "thm4.3", "--net", str(path),
                     "--grid", str(grid), "--seed", str(seed)])


def integer_fields(doc) -> dict[str, list[tuple]]:
    """The path of every integer a space or network document holds, by
    the field name its error must carry."""
    space = doc.get("space", doc)
    at = ("space",) if "space" in doc else ()
    structure = space.get("structure", {})
    out = {"n_points": [at + ("n_points",)],
           "fiber_dims": [at + ("fiber_dims", i)
                          for i in range(len(space["fiber_dims"]))]}
    if structure.get("kind") == "grid":
        out.update({key: [at + ("structure", key)] for key in ("rows", "cols")})
    out["edges"] = [at + ("structure", "edges", i, j)
                    for i in range(len(structure.get("edges", []))) for j in range(2)]
    for key in ("covers", "stages"):
        out[key] = [(key, f, e, i) for f, fam in enumerate(doc.get(key, []))
                    for e, element in enumerate(fam) for i in range(len(element))]
    layers = doc.get("layers", [])
    out["out_dim"] = [("layers", li, "out_dim") for li in range(len(layers))]
    out["aggregation"] = [("layers", li, "aggregation", b, i)
                          for li, layer in enumerate(layers)
                          for b, row in enumerate(layer["aggregation"])
                          for i in range(len(row))]
    return {name: paths for name, paths in out.items() if paths}


@st.composite
def corrupted_documents(draw):
    """A valid space or network document with one integer replaced by a
    bool, a string or a non-integral float; returns (doc, field name)."""
    if draw(st.booleans()):
        doc = draw(partition_networks())
    else:
        doc = draw(space_documents())
        doc["covers"] = [fam for fam in doc["covers"] if fam]
        structure, n = doc["structure"], doc["n_points"]
        if structure["kind"] == "grid" and structure["rows"] * structure["cols"] != n:
            doc["structure"] = {"kind": "grid", "rows": 1, "cols": n}
    by_name = integer_fields(doc)
    name = draw(st.sampled_from(sorted(by_name)))
    path = draw(st.sampled_from(by_name[name]))
    bad = draw(st.one_of(
        st.booleans(), st.text(max_size=3),
        st.floats(allow_nan=False).filter(lambda x: not x.is_integer())))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    return doc, name


@generated(120)
@given(case=corrupted_documents())
def test_generated_non_integers_exit_2_naming_the_field(tmp_path, case):
    doc, name = case
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = (["witness", "thm4.2", "--net", str(path)] if "layers" in doc
            else ["cohomology", "--cover", str(path)])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert (code, out.getvalue()) == (2, ""), (doc, lines)
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert f"{name} must be an integer" in lines[0], (name, lines)
