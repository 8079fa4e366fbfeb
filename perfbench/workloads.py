"""Seeded workloads: input generators, library call lists, CLI runs and
the outcome each one must produce.

Generators are plain Python and never import coversheaf, so the package
only ever sees the covers, networks, graphs and JSON files made here.
Every expected value follows from a claim of the paper, never from a
recorded report:

* Cech cohomology of the Hom sections on any cover is [k * d_U, 0, ...]
  (the restriction maps are column selections, hence flasque), and the
  two-sided gluing axiom check passes;
* a zero-sum attack on a strictly shrinking inclusion layer leaves the
  output unchanged, and its freedom is the null space of the
  input/output incidence map: #input elements - #output elements when
  the output elements partition the inputs;
* gluing, pairwise kernel decomposition, surjectivity failure and
  unreachable targets are certified, and the product section has
  alternating difference exactly 1;
* graphs with the same size and regular degree are indistinguishable by
  unfolding trees at every depth; graphs with different degree
  sequences are distinguishable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable

ATTACK_DELTA = 4.0
DAG_CHAIN = 16  # Sum(prev, prev) nodes above coords + affine: 18 nodes


class Mismatch(Exception):
    """An outcome differs from the value the mathematics predicts."""


@dataclass(frozen=True)
class Call:
    """One library call of a pass: ``fn()`` is timed, ``check(out)`` is not."""

    label: str
    small: bool
    fn: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[..., dict]
    files: Callable[[dict], dict]
    calls: Callable[[Any, dict], list]
    cli_runs: Callable[[dict, dict], list]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def _verdict(report, **measured) -> None:
    _expect(report.verdict is True,
            f"{report.claim} verdict is {report.verdict}")
    for key, want in measured.items():
        got = report.measured[key]
        _expect(got == want, f"{report.claim} {key} = {got}, expected {want}")


# ---------------------------------------------------------------------------
# cech-exact


def complement_cover(n: int, first: int = 1) -> list[list[int]]:
    """n elements on n points, element i misses point i."""
    pts = range(first, first + n)
    return [[p for p in pts if p != q] for q in pts]


def chain_cover(m: int, first: int = 1) -> list[list[int]]:
    """m elements {i, i+1} on m + 1 points."""
    return [[first + i, first + i + 1] for i in range(m)]


CECH_POINTS = 13          # points 1..13 carry fiber 1
CECH_FIBER2 = (14, 7)     # points 14..20 carry fiber 2


def generate_cech(seed: int, smallest: bool = False) -> dict:
    rng = _rng("cech-exact", seed)
    covers: list[list[list[int]]] = []
    cases: list[dict] = []

    def add(label, members, k, degree, small):
        cases.append({"label": label, "cover": len(covers), "k": k,
                      "degree": degree, "small": small})
        covers.append(members)

    complements = [(6, True)] if smallest else \
        [(6, True), (7, True), (8, True), (10, False), (11, False)]
    for n, small in complements:
        add(f"complement-{n}", complement_cover(n), 1, 4, small)
    first, n2 = CECH_FIBER2
    add(f"complement-{n2}-fiber2-k2", complement_cover(n2, first), 2, 4, True)
    for r in range(1 if smallest else 6):
        elements = [sorted(rng.sample(range(1, 9), rng.randint(2, 5)))
                    for _ in range(rng.randint(4, 6))]
        add(f"random-{r}", elements, 1, 3, True)
    chain = 6 if smallest else 12
    add(f"chain-{chain}", chain_cover(chain), 1, 4, True)
    fibers = [1] * CECH_POINTS + [2] * n2
    return {"cases": cases,
            "space": {"n_points": len(fibers), "fiber_dims": fibers,
                      "structure": {"kind": "abstract"}, "covers": covers}}


def _global_dim(members: list[list[int]], fibers: list[int]) -> int:
    return sum(fibers[p - 1] for p in {p for m in members for p in m})


def files_cech(inputs: dict) -> dict:
    return {"covers.json": inputs["space"]}


def calls_cech(cs, inputs: dict) -> list[Call]:
    space, covers = cs.load_space_document(inputs["space"])
    fibers = space.fiber_dims
    out = []
    for case in inputs["cases"]:
        cover = covers[case["cover"]]
        k, degree = case["k"], case["degree"]
        want = [k * _global_dim(inputs["space"]["covers"][case["cover"]],
                                list(fibers))] + [0] * degree

        def check_h(h, want=want):
            _expect(list(h) == want, f"h = {h}, expected {want}")

        def check_axiom(rep):
            _expect(rep.passed is True, f"sheaf_axiom_check failed: {rep}")

        out.append(Call(f"cech_cohomology/{case['label']}", case["small"],
                        lambda c=cover, k=k, d=degree:
                        cs.cech_cohomology(c, fibers, k, max_degree=d),
                        check_h))
        out.append(Call(f"sheaf_axiom_check/{case['label']}", case["small"],
                        lambda c=cover, k=k:
                        cs.sheaf_axiom_check(c, fibers, k),
                        check_axiom))
    return out


def cli_cech(inputs: dict, paths: dict) -> list[dict]:
    sp = inputs["space"]
    want = [[_global_dim(m, sp["fiber_dims"]), 0, 0, 0] for m in sp["covers"]]
    return [{"sub": "cohomology", "check": "cohomology", "want_h": want,
             "args": ["cohomology", "--cover", paths["covers.json"],
                      "--depth", "3"]}]


# ---------------------------------------------------------------------------
# attack-forward


def cnn_document(n: int, rng: random.Random) -> dict:
    """Network JSON of a fused 2x2 sum-pool CNN with a sigmoid head on an
    n x n grid of RGB cells (the shape of coversheaf's default CNN)."""
    cells = n * n
    blocks, agg = [], []
    for br in range(n // 2):
        for bc in range(n // 2):
            idxs = [(br * 2 + r) * n + (bc * 2 + c)
                    for r in range(2) for c in range(2)]
            agg.append(idxs)
            blocks.append(sorted(i + 1 for i in idxs))
    filt = [[rng.gauss(0, 1) / math.sqrt(3) for _ in range(3)]
            for _ in range(4)]
    head = []
    for a in range(len(blocks)):
        w = [[rng.gauss(0, 1) / 2 for _ in range(4)] for _ in range(2)]
        bias = [rng.gauss(0, 1) for _ in range(2)] if a == 0 else [0.0, 0.0]
        head.append({"matrix": w, "bias": bias})
    return {
        "schema": 1,
        "space": {"n_points": cells, "fiber_dims": [3] * cells,
                  "structure": {"kind": "grid", "rows": n, "cols": n}},
        "stages": [[[p] for p in range(1, cells + 1)], blocks,
                   [list(range(1, cells + 1))]],
        "layers": [
            {"kind": "inclusion", "aggregation": agg, "out_dim": 4,
             "activation": "relu", "phi": [{"matrix": filt}] * cells},
            {"kind": "inclusion", "aggregation": [list(range(len(blocks)))],
             "out_dim": 2, "activation": "sigmoid", "phi": head},
        ],
    }


def dag_section(weight: float, chain: int) -> dict:
    """Section JSON x -> 2^chain * weight * x as a shared DAG: every node
    above the affine leaf is Sum(prev, prev)."""
    nodes = [{"id": 0, "kind": "coords", "indices": [0]},
             {"id": 1, "kind": "affine", "matrix": [[weight]], "bias": [0.0],
              "child": 0}]
    for _ in range(chain):
        prev = len(nodes) - 1
        nodes.append({"id": prev + 1, "kind": "sum", "children": [prev, prev]})
    return {"domain_dim": 1, "codomain_dim": 1, "root": len(nodes) - 1,
            "nodes": nodes}


def dag_network_document(rng: random.Random, chain: int) -> dict:
    """Four tokens paired into two elements, then the global stage; every
    first-layer phi is a shared-DAG section."""
    scale = 2.0 ** -chain
    return {
        "schema": 1,
        "space": {"n_points": 4, "fiber_dims": [1] * 4,
                  "structure": {"kind": "abstract"}},
        "stages": [[[1], [2], [3], [4]], [[1, 2], [3, 4]], [[1, 2, 3, 4]]],
        "layers": [
            {"kind": "inclusion", "aggregation": [[0, 1], [2, 3]],
             "out_dim": 1, "activation": "relu",
             "phi": [dag_section(rng.uniform(0.5, 2.0) * scale, chain)
                     for _ in range(4)]},
            {"kind": "inclusion", "aggregation": [[0, 1]], "out_dim": 1,
             "activation": "identity",
             "phi": [{"matrix": [[rng.gauss(0, 1)]],
                      "bias": [rng.gauss(0, 1)]},
                     {"matrix": [[rng.gauss(0, 1)]]}]},
        ],
    }


def generate_attack(seed: int, smallest: bool = False) -> dict:
    rng = _rng("attack-forward", seed)
    grids = [(8, True)] if smallest else \
        [(8, True), (16, True), (24, False), (32, False)]
    cli_grid = 8 if smallest else 16
    return {"pkg_seed": rng.randrange(2 ** 16), "grids": grids,
            "dataset_grid": 8 if smallest else 16, "factors_grid": 8,
            "cli_grid": cli_grid,
            "cnn_doc": cnn_document(cli_grid, rng),
            "dag_doc": dag_network_document(
                rng, 8 if smallest else DAG_CHAIN)}


def files_attack(inputs: dict) -> dict:
    return {"cnn.json": inputs["cnn_doc"]}


def _attack_check(null_dim: int):
    def check(result):
        _, rep = result
        _verdict(rep, null_space_dim=null_dim)
        gap = rep.measured["max_output_gap"]
        _expect(gap <= 1e-9, f"thm4.2 max_output_gap {gap} > 1e-9")
    return check


def calls_attack(cs, inputs: dict) -> list[Call]:
    seed = inputs["pkg_seed"]
    out = []
    for n, small in inputs["grids"]:
        net = cs.build_cnn(n, seed=seed)
        out.append(Call(f"adversarial_attack/cnn-{n}", small,
                        lambda net=net: cs.adversarial_attack(
                            net, 0, delta=ATTACK_DELTA, seed=seed),
                        _attack_check(n * n - (n // 2) ** 2)))
    rnn = cs.build_sequential(4, "rnn", seed=seed)
    # the head layer maps 4 prefixes onto the single global element
    out.append(Call("adversarial_attack/rnn-head", True,
                    lambda: cs.adversarial_attack(rnn, 1, delta=ATTACK_DELTA,
                                                  seed=seed),
                    _attack_check(4 - 1)))
    dnet = cs.build_cnn(inputs["dataset_grid"], seed=seed)

    def check_dataset(rep):
        _verdict(rep, branch="not_surjective")
        _expect(rep.measured["probe_count"] >= 10_000,
                f"thm4.3 probed {rep.measured['probe_count']} points")
    out.append(Call(f"dataset_dependency/cnn-{inputs['dataset_grid']}", True,
                    lambda: cs.dataset_dependency(dnet, grid_points=10_000,
                                                  seed=seed),
                    check_dataset))
    fnet = cs.build_cnn(inputs["factors_grid"], seed=seed)

    def check_factors(res):
        _expect(res.factors is True and res.max_deviation <= 1e-9,
                f"factors_check: {res}")
    for i, layer in enumerate(fnet.layers):
        out.append(Call(f"factors_check/cnn-{inputs['factors_grid']}-layer{i}",
                        True,
                        lambda layer=layer: cs.factors_check(layer, seed=seed),
                        check_factors))
    dag = cs.network_from_json(inputs["dag_doc"])
    out.append(Call("adversarial_attack/shared-dag", True,
                    lambda: cs.adversarial_attack(dag, 0, delta=ATTACK_DELTA,
                                                  seed=seed),
                    _attack_check(4 - 2)))
    return out


def cli_attack(inputs: dict, paths: dict) -> list[dict]:
    seed = str(inputs["pkg_seed"])
    n = inputs["cli_grid"]
    return [
        {"sub": "witness", "check": "thm4.2",
         "want_null": n * n - (n // 2) ** 2,
         "args": ["witness", "thm4.2", "--net", paths["cnn.json"],
                  "--delta", str(ATTACK_DELTA), "--seed", seed]},
        {"sub": "witness", "check": "passed",
         "args": ["witness", "thm4.3", "--seed", seed]},
        {"sub": "demo", "check": "passed",
         "args": ["demo", "cnn", "--seed", seed]},
    ]


# ---------------------------------------------------------------------------
# enumerate


def random_graph(degrees: list[int], rng: random.Random) -> list[list[int]]:
    """A simple graph with the given degree sequence (configuration model,
    restarted until no loop or multi-edge appears)."""
    while True:
        stubs = [v for v, d in enumerate(degrees) for _ in range(d)]
        rng.shuffle(stubs)
        edges = set()
        for u, v in zip(stubs[::2], stubs[1::2]):
            e = (min(u, v), max(u, v))
            if u == v or e in edges:
                break
            edges.add(e)
        else:
            return [list(e) for e in sorted(edges)]


def _graph(n: int, edges: list) -> dict:
    return {"n": n, "edges": edges}


def generate_enumerate(seed: int, smallest: bool = False) -> dict:
    rng = _rng("enumerate", seed)
    n = 200
    graphs = {
        "regular-a": _graph(n, random_graph([4] * n, rng)),
        "regular-b": _graph(n, random_graph([4] * n, rng)),
        "regular-c": _graph(n, random_graph([4] * n, rng)),
        # same node and edge count as regular-c, degrees 3 and 5
        "mixed": _graph(n, random_graph([3, 5] * (n // 2), rng)),
        "c6": _graph(6, [[i, (i + 1) % 6] for i in range(6)]),
        "2c3": _graph(6, [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]),
    }
    if smallest:
        glue, points, depths = [(6, True)], [(8, True)], [(4, True)]
    else:
        glue = [(6, True), (8, True), (10, False), (11, False)]
        points = [(8, True), (10, True), (12, False), (13, False)]
        depths = [(4, True), (6, True), (8, False), (9, False)]
    return {"graphs": graphs, "glue": glue, "points": points,
            "depths": depths,
            "cli_depth": 4 if smallest else 8}


def files_enumerate(inputs: dict) -> dict:
    g = inputs["graphs"]
    return {"regular-a.json": g["regular-a"], "regular-b.json": g["regular-b"]}


def _abstract_cover(cs, members: list[list[int]]):
    n = max(p for m in members for p in m)
    space = cs.MarkedSpace(n_points=n, fiber_dims=(1,) * n)
    return cs.make_cover(space, members)


def calls_enumerate(cs, inputs: dict) -> list[Call]:
    # The witnesses draw their polynomials from the package's default
    # seed: their cost moves up to 4x with that seed (glue_report on 11
    # elements took 0.46-1.77 s over ten seeds), which would swamp the
    # spread between runs.  The workload seed varies the graphs.
    out = []
    for m, small in inputs["glue"]:
        cover = _abstract_cover(cs, chain_cover(m))
        out.append(Call(f"glue_report/chain-{m}", small,
                        lambda c=cover: cs.glue_report(c),
                        _verdict))
        out.append(Call(f"kernel_report/chain-{m}", small,
                        lambda c=cover: cs.kernel_report(c),
                        _verdict))
    for p, small in inputs["points"]:
        cover = _abstract_cover(cs, chain_cover(p - 1))
        fibers = cover.space.fiber_dims
        out.append(Call(f"surjectivity_witness/chain-{p}pts", small,
                        lambda c=cover, f=fibers:
                        cs.surjectivity_witness(c, f, 1),
                        lambda rep: _verdict(
                            rep, product_alternating_difference=1.0)))
        out.append(Call(f"locality_witness/chain-{p}pts", small,
                        lambda c=cover, f=fibers:
                        cs.locality_witness(c, f, 1),
                        lambda res: _verdict(res[1])))
    g = {name: cs.load_graph(doc) for name, doc in inputs["graphs"].items()}

    def compared(distinguishable):
        def check(res):
            _expect(res.distinguishable is distinguishable,
                    f"distinguishable = {res.distinguishable}, "
                    f"expected {distinguishable}")
        return check
    for depth, small in inputs["depths"]:
        out.append(Call(f"compare_graphs/regular-{depth}", small,
                        lambda d=depth: cs.compare_graphs(
                            g["regular-a"], g["regular-b"], d),
                        compared(False)))
    out.append(Call("compare_graphs/degree-mismatch", True,
                    lambda: cs.compare_graphs(g["regular-c"], g["mixed"], 4),
                    compared(True)))
    out.append(Call("compare_graphs/c6-2c3", True,
                    lambda: cs.compare_graphs(g["c6"], g["2c3"], 6),
                    compared(False)))
    rounds = max(d for d, _ in inputs["depths"])

    def colors(min_round1, max_final):
        def check(wl):
            r1, final = len(set(wl.rounds[1])), len(set(wl.final))
            _expect(r1 >= min_round1 and final <= max_final,
                    f"wl_refine colors: round 1 {r1}, final {final}")
        return check
    for name in ("regular-a", "regular-b", "c6", "2c3"):
        # a regular graph keeps a single color in every round
        out.append(Call(f"wl_refine/{name}", True,
                        lambda h=g[name]: cs.wl_refine(h, rounds),
                        colors(1, 1)))
    # degrees 3 and 5 split the nodes in round 1
    out.append(Call("wl_refine/mixed", True,
                    lambda: cs.wl_refine(g["mixed"], rounds),
                    colors(2, g["mixed"].n)))
    return out


def cli_enumerate(inputs: dict, paths: dict) -> list[dict]:
    return [
        {"sub": "wl-compare", "check": "indistinguishable",
         "args": ["wl-compare", paths["regular-a.json"],
                  paths["regular-b.json"], "--depth",
                  str(inputs["cli_depth"])]},
        {"sub": "witness", "check": "passed", "args": ["witness", "glue"]},
        {"sub": "witness", "check": "prop2.8", "args": ["witness", "prop2.8"]},
    ]


# ---------------------------------------------------------------------------
# CLI outcomes


def check_cli(run: dict, code: int, stdout: str) -> None:
    """Check one CLI run from its exit code and JSON envelope."""
    import json

    _expect(code == 0, f"exit code {code}")
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as e:
        raise Mismatch(f"stdout is not one JSON document: {e}") from e
    _expect(doc.get("passed") is True, "envelope passed is not true")
    reports = doc["reports"]
    kind = run["check"]
    if kind == "cohomology":
        got = [r["h"] for r in reports if r["kind"] == "cohomology"]
        _expect(got == run["want_h"], f"h = {got}, expected {run['want_h']}")
        _expect(all(r["ok"] for r in reports), "a cover failed exactness")
    elif kind == "thm4.2":
        rep = reports[0]
        _expect(rep["verdict"] is True, "thm4.2 verdict is not true")
        null = rep["measured"]["null_space_dim"]
        _expect(null == run["want_null"],
                f"null_space_dim {null}, expected {run['want_null']}")
        _expect(rep["measured"]["max_output_gap"] <= 1e-9,
                "thm4.2 max_output_gap > 1e-9")
    elif kind == "indistinguishable":
        _expect(reports[0]["distinguishable"] is False,
                "regular graphs reported distinguishable")
    elif kind == "prop2.8":
        _expect(all(r["verdict"] is True for r in reports),
                "prop2.8 verdict is not true")
        diff = reports[1]["measured"]["product_alternating_difference"]
        _expect(diff == 1.0, f"product alternating difference {diff}")
    else:
        _expect(kind == "passed", f"unknown CLI check {kind!r}")


WORKLOADS = {w.name: w for w in (
    Workload("cech-exact",
             "Cech cohomology and axiom checks on complement, random and "
             "chain covers; exact_rank on dense coboundaries dominates",
             generate_cech, files_cech, calls_cech, cli_cech),
    Workload("attack-forward",
             "zero-sum attacks on CNNs up to 32x32, a shared-DAG network and "
             "a 10k-row probe; exercises nullspace_basis and forward",
             generate_attack, files_attack, calls_attack, cli_attack),
    Workload("enumerate",
             "2^n gluing terms, 2^points finite differences and 4^depth "
             "unfolding codes; the exponential enumerations",
             generate_enumerate, files_enumerate, calls_enumerate,
             cli_enumerate),
)}
