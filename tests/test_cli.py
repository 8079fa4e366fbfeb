"""Command line entry points: envelopes, exit codes, reproducibility."""

import io
import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coversheaf
from coversheaf import cech, graphs
from coversheaf.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TWO = str(FIXTURES / "two_disjoint.json")
TRIANGLE = str(FIXTURES / "triangle.json")
SUMPOOL = str(FIXTURES / "sumpool.json")
SUMPOOL_NODES = str(FIXTURES / "sumpool_nodes.json")
C6 = str(FIXTURES / "c6.json")
TWO_C3 = str(FIXTURES / "2c3.json")
P3 = str(FIXTURES / "p3.json")
C3 = str(FIXTURES / "c3.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def strip_timestamp(text: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', text)


def test_cohomology_command(capsys):
    code, doc = run(capsys, "cohomology", "--cover", TWO)
    assert code == 0
    assert doc["schema"] == 1
    assert doc["command"] == "cohomology"
    assert doc["passed"] is True
    assert doc["reports"][0]["h"] == [2, 0]
    assert doc["reports"][0]["exact"] is True


def test_envelope_key_order(capsys):
    _, _ = run(capsys, "cohomology", "--cover", TWO)
    # keys are emitted sorted, so two runs diff cleanly
    raw = main(["cohomology", "--cover", TWO])
    text = capsys.readouterr().out
    obj = json.loads(text)
    assert list(obj) == sorted(obj)
    assert raw == 0


def test_witness_attack_command(capsys):
    code, doc = run(capsys, "witness", "thm4.2", "--net", SUMPOOL,
                    "--p", "2", "--delta", "4", "--seed", "7")
    assert code == 0
    rep = doc["reports"][0]
    assert rep["verdict"] is True
    assert rep["measured"]["displacement"] > 4.0


def test_witness_tight_tolerance_fails(capsys):
    code, doc = run(capsys, "witness", "thm4.2", "--net", SUMPOOL,
                    "--tol", "1e-18")
    assert code == 1
    assert doc["passed"] is False


def test_witness_defaults(capsys):
    for claim in ("prop2.8", "thm4.1", "glue"):
        code, doc = run(capsys, "witness", claim)
        assert code == 0, claim
        assert doc["passed"] is True
    code, doc = run(capsys, "witness", "thm4.3")
    assert code == 0
    assert doc["reports"][0]["measured"]["branch"] == "not_surjective"


@pytest.mark.parametrize("extra, k", [((), 1),
                                      (("--cover", TRIANGLE, "--k", "2"), 2)])
def test_witness_glue_fields(capsys, extra, k):
    code, doc = run(capsys, "witness", "glue", *extra)
    assert code == 0 and doc["passed"] is True
    glue, kernel = doc["reports"]
    # the regluing deviations are float roundoff, bounded by tol only
    devs = glue["measured"].pop("restriction_deviations")
    assert len(devs) == 3 and all(0.0 <= d <= 1e-9 for d in devs)
    mems = [[1, 2], [2, 3], [1, 3]]
    assert glue == {
        "claim": "rem2.9-glue", "verdict": True, "seed": 0, "schema": 1,
        "inputs": {"k": k, "memberships": mems, "n_samples": 100,
                   "tol": 1e-9},
        "measured": {"rejection": {"pair": [0, 1], "deviation": 1.0,
                                   "names_bumped_local": True}}}
    assert kernel == {
        "claim": "rem2.9-kernel", "verdict": True, "seed": 0, "schema": 1,
        "inputs": {"generator_pairs": [[0, 1], [0, 2], [1, 2]], "k": k,
                   "memberships": mems},
        "measured": {"antisymmetric": True, "failure": None,
                     "pair_count": 3}}


def test_wl_compare_command(capsys):
    code, doc = run(capsys, "wl-compare", C6, TWO_C3, "--depth", "6")
    assert code == 0
    assert doc["reports"][0]["distinguishable"] is False
    code2, doc2 = run(capsys, "wl-compare", P3, C3, "--depth", "1")
    assert code2 == 0
    assert doc2["reports"][0]["distinguishable"] is True


def test_axioms_command(capsys):
    code, doc = run(capsys, "axioms", "--cover", TRIANGLE)
    assert code == 0
    tables = doc["reports"][0]["stages"]
    assert len(tables) == 2  # singleton and global stages were added
    assert tables[1]["strictness"] is True


def test_demo_commands(capsys):
    for name in ("cnn", "rnn", "attention"):
        code, doc = run(capsys, "demo", name)
        assert code == 0, name
        assert doc["passed"] is True


def test_missing_file_is_a_clean_error(capsys):
    code = main(["cohomology", "--cover", "nowhere.json"])
    err = capsys.readouterr().err
    assert code == 2
    assert "no such file" in err


def test_witness_net_required(capsys):
    code = main(["witness", "thm4.2"])
    assert code == 2
    assert "net" in capsys.readouterr().err


def test_cover_without_covers_entry(capsys, tmp_path):
    p = tmp_path / "empty.json"
    p.write_text('{"n_points": 2, "fiber_dims": [1, 1], "covers": []}')
    code = main(["cohomology", "--cover", str(p)])
    assert code == 2


def test_out_flag_writes_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["cohomology", "--cover", TWO, "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert strip_timestamp(out.read_text()) == strip_timestamp(stdout)


BAD_ATTACK_ARGS = [
    ["--p", "0"], ["--p", "0.5"], ["--p", "nan"], ["--delta", "inf"],
    ["--delta", "nan"], ["--delta", "-1"], ["--delta", "0"],
]


@pytest.mark.parametrize("argv", [
    ["witness", "thm4.2", "--net", SUMPOOL] + bad
    for bad in BAD_ATTACK_ARGS + [["--layer", "5"], ["--layer", "-1"]]
] + [["demo", "cnn"] + bad for bad in BAD_ATTACK_ARGS])
def test_out_of_range_attack_arguments_exit_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error: ") and "\n" not in err


def test_large_p_gets_a_verdict(capsys):
    # sum |v|^p overflows a float; the displacement is then taken as
    # max * (sum (|v|/max)^p)^(1/p) on the stated and the measured side
    code, doc = run(capsys, "witness", "thm4.2", "--net", SUMPOOL,
                    "--p", "1e6")
    assert code == 0
    measured = doc["reports"][0]["measured"]
    assert 2.0 < measured["displacement"] < 2.0 * (1 + 1e-5)
    assert measured["max_displacement_gap"] <= 1e-9


@pytest.mark.parametrize("bad", [["--delta", "1e300"],
                                 ["--delta", "1e300", "--p", "1e6"],
                                 ["--delta", "1.5e308", "--p", "1"],
                                 ["--delta", "1e7"]])
def test_too_large_delta_exits_2_naming_delta(capsys, bad):
    # float offsets that swamp phi cannot verify the claim, which is a
    # bad request, not a refuted claim
    code = main(["witness", "thm4.2", "--net", SUMPOOL] + bad)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error: delta ") and "\n" not in err


def test_unexpected_errors_exit_3_not_1(capsys, monkeypatch):
    # a fault inside a witness is not a refuted claim
    def fail(*args, **kwargs):
        raise OverflowError("boom")
    monkeypatch.setattr("coversheaf.cli.adversarial_attack", fail)
    code = main(["witness", "thm4.2", "--net", SUMPOOL])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error: OverflowError") and "\n" not in err


@pytest.mark.parametrize("argv", [
    ["cohomology", "--cover", TWO],
    ["witness", "thm4.2", "--net", SUMPOOL, "--seed", "7"],
    ["witness", "glue", "--cover", TRIANGLE],
    ["wl-compare", C6, TWO_C3, "--depth", "6"],
    ["axioms", "--cover", TRIANGLE],
    ["demo", "cnn"],
])
def test_reports_are_reproducible(capsys, argv):
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert strip_timestamp(first) == strip_timestamp(second)
    assert '"timestamp"' in first


@pytest.mark.parametrize("argv", [
    ["witness", "glue", "--k", "0"],
    ["witness", "glue", "--samples", "0"],
    ["witness", "prop2.8", "--samples", "0"],
    ["cohomology", "--cover", TWO, "--k", "0"],
    ["cohomology", "--cover", TWO, "--depth", "-1"],
    ["witness", "thm4.3", "--grid", "0"],
    ["witness", "thm4.3", "--grid", "-5"],
    ["witness", "thm4.1", "--k", "0"],
    ["witness", "glue", "--k", "one"],
    ["wl-compare", C6, TWO_C3, "--depth", "-1"],
    ["demo", "cnn", "--samples", "0"],
    ["demo", "cnn", "--grid", "0"],
    *[[*cmd, "--tol", tol]
      for cmd in (["witness", "thm4.2", "--net", SUMPOOL],
                  ["witness", "thm4.3"], ["witness", "glue"], ["demo", "cnn"])
      for tol in ("nan", "inf", "-1")],
])
def test_meaningless_counts_exit_2_at_parse_time(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "error: argument --" in captured.err


@pytest.mark.parametrize("argv", [
    ["axioms", "--cover", TRIANGLE, "--samples", "3"],
    ["cohomology", "--cover", TRIANGLE, "--tol", "5"],
    ["wl-compare", C6, TWO_C3, "--tol", "1"],
])
def test_tol_and_samples_only_where_they_act(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --" in capsys.readouterr().err



def _cover_doc(**fields):
    doc = {"n_points": 3, "fiber_dims": [1, 1, 1], "covers": [[[1, 2], [2, 3]]]}
    return {**doc, **fields}


PHI0 = ["layers", 0, "phi", 0]


def _sumpool_doc(path, value, source=SUMPOOL):
    doc = json.loads(Path(source).read_text())
    *keys, last = path
    node = doc
    for key in keys:
        node = node[key]
    node[last] = value
    return doc


@pytest.mark.parametrize("command, doc, field", [
    ("cohomology", _cover_doc(fiber_dims=[1.5, 1, 1]), "fiber_dims"),
    ("cohomology", _cover_doc(covers=[[[1.9, 2]]]), "covers"),
    ("cohomology", _cover_doc(n_points=True), "n_points"),
    ("cohomology", _cover_doc(n_points="3"), "n_points"),
    ("cohomology", _cover_doc(n_points=4, fiber_dims=[1] * 4, structure={
        "kind": "grid", "rows": 2, "cols": 2.5}), "cols"),
    ("cohomology", _cover_doc(n_points=3.0, fiber_dims=[1.0, 1, 1]), None),
    ("wl-compare", {"n": 3.9, "edges": [[0, 1.7], [1, 2]]}, "n"),
    ("wl-compare", {"n": 3, "edges": [[0, 1.7], [1, 2]]}, "edges"),
    ("wl-compare", {"n": 3, "edges": [[0, 1], [1, 2]],
                    "labels": [0, 0.5, 0]}, "labels"),
    ("thm4.2", _sumpool_doc(["layers", 0, "out_dim"], 1.6), "out_dim"),
    ("thm4.2", _sumpool_doc(["layers", 0, "aggregation", 0], [0, 1.2]),
     "aggregation"),
    ("thm4.2", _sumpool_doc(["stages", 1, 0], [1, 2.5]), "stages"),
    ("thm4.2", _sumpool_doc(["space", "fiber_dims", 0], 1.1), "fiber_dims"),
    # a phi in the node schema: ids, references, indices and dims
    ("thm4.2", _sumpool_doc(PHI0 + ["nodes", 0, "indices"], [0.7],
                            SUMPOOL_NODES), "indices"),
    ("thm4.3", _sumpool_doc(PHI0 + ["nodes", 0, "indices"], [0.7],
                            SUMPOOL_NODES), "indices"),
    ("thm4.2", _sumpool_doc(PHI0 + ["domain_dim"], 1.5, SUMPOOL_NODES),
     "domain_dim"),
    ("thm4.3", _sumpool_doc(PHI0 + ["domain_dim"], 1.5, SUMPOOL_NODES),
     "domain_dim"),
    ("thm4.2", _sumpool_doc(PHI0 + ["codomain_dim"], 1.5, SUMPOOL_NODES),
     "codomain_dim"),
    ("thm4.2", _sumpool_doc(PHI0 + ["root"], 1.5, SUMPOOL_NODES), "root"),
    ("thm4.2", _sumpool_doc(PHI0 + ["nodes", 1, "child"], 0.5, SUMPOOL_NODES),
     "child"),
    ("thm4.2", _sumpool_doc(PHI0 + ["nodes", 0, "id"], 0.5, SUMPOOL_NODES),
     "id"),
])
def test_non_integral_json_numbers_exit_2(capsys, tmp_path, command, doc,
                                          field):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = {"cohomology": ["cohomology", "--cover", str(path)],
            "wl-compare": ["wl-compare", str(path), P3],
            "thm4.2": ["witness", "thm4.2", "--net", str(path)],
            "thm4.3": ["witness", "thm4.3", "--net", str(path)]}[command]
    code = main(argv)
    captured = capsys.readouterr()
    if field is None:  # floats with integral values are integers
        assert code == 0
        assert json.loads(captured.out)["reports"][0]["h"] == [3, 0]
        return
    assert code == 2
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error: ") and "\n" not in err
    assert f"{field} must be an integer" in err


def test_grid_with_rows_or_cols_below_1_exits_2(capsys, tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(_cover_doc(
        structure={"kind": "grid", "rows": -1, "cols": -3})))
    code = main(["cohomology", "--cover", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error: grid rows and cols") and "\n" not in err


@pytest.mark.parametrize("structure, key", [({"kind": "grid"}, "rows"),
                                            ({"kind": "grid", "rows": 3}, "cols")])
def test_grid_missing_its_shape_exits_2(capsys, tmp_path, structure, key):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(_cover_doc(structure=structure)))
    code = main(["cohomology", "--cover", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    err = captured.err.strip()
    assert err == f"error: malformed space document: '{key}'"


def test_glue_on_a_cover_of_no_point_exits_2(capsys, tmp_path):
    path = tmp_path / "uncovered.json"
    path.write_text(json.dumps(_cover_doc(covers=[[[], []]])))
    code = main(["witness", "glue", "--cover", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error: nothing to glue") and "\n" not in err


def test_kernel_on_a_cover_with_no_overlap_exits_2(capsys):
    # two disjoint elements leave the decomposition no pair to split on,
    # so its verdict would check nothing
    code = main(["witness", "glue", "--cover", TWO])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error: no two cover elements overlap") \
        and "\n" not in err


@pytest.mark.parametrize("command, doc, message", [
    ("cohomology", _cover_doc(fiber_dims=3),
     "malformed space document: fiber_dims must be a list, got 3"),
    ("cohomology", _cover_doc(covers=3),
     "malformed space document: covers must be a list, got 3"),
    ("cohomology", _cover_doc(covers=[[1, 2]]),
     "malformed space document: each cover element in covers must be a "
     "list, got 1"),
    ("cohomology", _cover_doc(structure={"kind": "graph", "edges": [3]}),
     "malformed space document: each edge in edges must be a list, got 3"),
    ("thm4.2", _sumpool_doc(["stages"], 3),
     "malformed network document: stages must be a list, got 3"),
    ("thm4.2", _sumpool_doc(["layers", 0, "aggregation", 0], 3),
     "malformed network document: each aggregation row must be a list, "
     "got 3"),
    ("thm4.2", _sumpool_doc(["layers", 0, "phi"], 3),
     "malformed network document: phi must be a list, got 3"),
    ("wl-compare", {"n": 3, "edges": 5},
     "malformed graph document: edges must be a list, got 5"),
])
def test_wrong_shaped_json_names_its_field(capsys, tmp_path, command, doc,
                                           message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = {"cohomology": ["cohomology", "--cover", str(path)],
            "wl-compare": ["wl-compare", str(path), P3],
            "thm4.2": ["witness", "thm4.2", "--net", str(path)]}[command]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_attack_on_a_1500_deep_phi_network(capsys, tmp_path):
    # phi reads its token through 1,500 nested tanh nodes
    depth = 1_500
    nodes = [{"id": 0, "kind": "coords", "indices": [0]}]
    nodes += [{"id": i + 1, "kind": "activation", "name": "tanh", "child": i}
              for i in range(depth)]
    phi = {"domain_dim": 1, "codomain_dim": 1, "root": depth, "nodes": nodes}
    doc = {"schema": 1,
           "space": {"n_points": 4, "fiber_dims": [1] * 4,
                     "structure": {"kind": "abstract"}},
           "stages": [[[1], [2], [3], [4]], [[1, 2], [3, 4]],
                      [[1, 2, 3, 4]]],
           "layers": [
               {"kind": "inclusion", "aggregation": [[0, 1], [2, 3]],
                "out_dim": 1, "activation": "relu", "phi": [phi] * 4},
               {"kind": "inclusion", "aggregation": [[0, 1]], "out_dim": 1,
                "activation": "identity",
                "phi": [{"matrix": [[1.0]]}, {"matrix": [[1.0]]}]}]}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "witness", "thm4.2", "--net", str(path))
    assert code == 0
    assert out["reports"][0]["measured"]["null_space_dim"] == 2


@pytest.mark.parametrize("edges", [[[0]], [[0, 1, 2], [1, 2]]])
def test_edges_need_exactly_two_endpoints(capsys, tmp_path, edges):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"n": 3, "edges": edges}))
    code = main(["wl-compare", str(path), P3])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error: ") and "\n" not in err
    assert "exactly two endpoints" in err


@pytest.mark.parametrize("edges", [[[1, 99], [0, 2, 3]], [[1, 99]],
                                   [[0, 2, 3]], [[1]]])
def test_graph_edges_outside_the_space_exit_2(capsys, tmp_path, edges):
    structure = {"kind": "graph", "edges": edges}
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps(_cover_doc(structure=structure)))
    net = json.loads(Path(SUMPOOL).read_text())
    net["space"]["structure"] = structure
    path = tmp_path / "net.json"
    path.write_text(json.dumps(net))
    for argv in (["cohomology", "--cover", str(cover)],
                 ["witness", "thm4.2", "--net", str(path)]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("error: graph edge [") and "\n" not in err


def count_calls(monkeypatch, module, name) -> list:
    """Record the arguments of every call to ``module.name``, wherever a
    coversheaf module has bound that function."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("coversheaf") and \
                getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_cohomology_builds_each_block_once_per_cover(capsys, tmp_path,
                                                     monkeypatch):
    covers = [[[1, 2], [2, 3], [1, 3]],
              [[1, 2, 3], [2, 3, 4], [3, 4, 5], [1, 5]],
              [[1], [2]],
              [[1, 2, 3, 4, 5], [1, 2, 3, 4, 5]]]
    path = tmp_path / "covers.json"
    path.write_text(json.dumps({"n_points": 5, "fiber_dims": [1, 2, 1, 1, 3],
                                "covers": covers}))
    calls = count_calls(monkeypatch, cech, "build_cech_complex")
    assert main(["cohomology", "--cover", str(path), "--depth", "3"]) == 0
    capsys.readouterr()
    # one block per distinct multiplicity m of a covered point
    want = Counter(m for members in covers for m in set(
        Counter(p for el in members for p in el).values()))
    assert want == {2: 3, 3: 1, 1: 1}
    assert Counter(len(cover.memberships) for cover, *_ in calls) == want
    assert all(args[1:] == ((1,), 1, 3) for args in calls)


def test_wl_compare_computes_codes_once_per_graph(capsys, monkeypatch):
    calls = count_calls(monkeypatch, graphs, "unfolding_codes")
    assert main(["wl-compare", C6, TWO_C3, "--depth", "8"]) == 0
    capsys.readouterr()
    assert [(g.edges, k) for g, k in calls] == [
        (graphs.load_graph(C6).edges, 8), (graphs.load_graph(TWO_C3).edges, 8)]


# Each fixture with the subcommands that read it; the mutated document
# is appended as the last argument.
FUZZ_COMMANDS = {
    TRIANGLE: [["cohomology", "--cover"], ["axioms", "--cover"],
               ["witness", "prop2.8", "--cover"],
               ["witness", "glue", "--cover"]],
    SUMPOOL: [["witness", "thm4.2", "--net"],
              ["witness", "thm4.3", "--grid", "50", "--net"]],
    SUMPOOL_NODES: [["witness", "thm4.2", "--net"],
                    ["witness", "thm4.3", "--grid", "50", "--net"]],
    C6: [["wl-compare", "--depth", "2", C6]],
}
# numbers stay small: a size read from the document is built in full
FUZZ_VALUES = [True, "3", None, [], {}, -1, 0, 1.5, 2, 7]
DELETE = "<delete>"


def _json_paths(doc, prefix=()):
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


FUZZ_SITES = st.sampled_from(list(FUZZ_COMMANDS)).flatmap(
    lambda source: st.tuples(st.just(source), st.sampled_from(
        list(_json_paths(json.loads(Path(source).read_text()))))))


@settings(max_examples=60, deadline=None)
@given(site=FUZZ_SITES, value=st.sampled_from([DELETE] + FUZZ_VALUES))
@example(site=(TRIANGLE, ("structure",)), value=2)
def test_mutated_documents_exit_0_1_or_2(site, value):
    # one key deleted or one value replaced; bad input exits 2 with one
    # error line, never 3
    source, path = site
    doc = json.loads(Path(source).read_text())
    *keys, last = path
    node = doc
    for key in keys:
        node = node[key]
    if value == DELETE:
        del node[last]
    else:
        node[last] = value
    with tempfile.TemporaryDirectory() as tmp:
        mutated = Path(tmp) / "doc.json"
        mutated.write_text(json.dumps(doc))
        for command in FUZZ_COMMANDS[source]:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(command + [str(mutated)])
            assert code in (0, 1, 2), (command, path, value, err.getvalue())
            if code == 2:
                assert out.getvalue() == ""
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: ")


def test_importing_the_package_adds_only_its_own_and_stdlib_modules():
    # scipy, sympy and networkx are importable here, so a stray import of
    # one shows; every process pays for what the package imports
    code = ("import sys, numpy; before = set(sys.modules); "
            "import coversheaf, coversheaf.cli; "
            "print(*sorted(set(sys.modules) - before))")
    src = str(Path(coversheaf.__file__).resolve().parents[1])
    added = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True,
                           env={**os.environ, "PYTHONPATH": src}).stdout.split()
    assert "coversheaf.witnesses" in added
    foreign = [m for m in added if m.partition(".")[0] != "coversheaf"
               and m.partition(".")[0] not in sys.stdlib_module_names]
    assert not foreign, foreign
