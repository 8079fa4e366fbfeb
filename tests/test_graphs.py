"""Unfolding trees, color refinement and the equivalence between them."""

import importlib.util
import itertools
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coversheaf.graphs import (Graph, compare_graphs, cycle_graph,
                               disjoint_union, load_graph, partition_ids,
                               path_graph, unfolding_code_levels,
                               unfolding_codes, wl_equals_unfolding,
                               wl_refine)


# ---------------------------------------------------------------------------
# the explicit unfolding trees: the oracle for the interned codes


@dataclass(frozen=True)
class TreeNode:
    node: int
    label: int
    children: tuple["TreeNode", ...]


@dataclass(frozen=True)
class UnfoldingTree:
    root: TreeNode
    depth: int

    def level_sizes(self) -> list[int]:
        sizes = []
        frontier = [self.root]
        while frontier:
            sizes.append(len(frontier))
            frontier = [c for t in frontier for c in t.children]
        return sizes

    def size(self) -> int:
        return sum(self.level_sizes())


def unfolding_tree(g: Graph, v: int, k: int) -> UnfoldingTree:
    """The depth-k computation tree of node v (children = all neighbors)."""
    if not 0 <= v < g.n:
        raise ValueError(f"unknown node {v}")
    if k < 0:
        raise ValueError("depth must be nonnegative")
    adj = g.adjacency()

    def build(u: int, r: int) -> TreeNode:
        kids = tuple(build(w, r - 1) for w in adj[u]) if r > 0 else ()
        return TreeNode(node=u, label=g.labels[u], children=kids)

    return UnfoldingTree(root=build(v, k), depth=k)


def tree_canonical(tree: UnfoldingTree | TreeNode) -> bytes:
    """Canonical byte code of a rooted labeled tree.

    Children are encoded in sorted order, so two trees get equal codes
    exactly when they are isomorphic as rooted labeled trees.
    """
    node = tree.root if isinstance(tree, UnfoldingTree) else tree

    def go(t: TreeNode) -> bytes:
        if not t.children:
            return b"(" + str(t.label).encode() + b")"
        kids = sorted(go(c) for c in t.children)
        return b"(" + str(t.label).encode() + b"|" + b",".join(kids) + b")"

    return go(node)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(n=2, edges=((0, 0),))
    with pytest.raises(ValueError):
        Graph(n=2, edges=((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        Graph(n=2, edges=((0, 2),))
    with pytest.raises(ValueError):
        Graph(n=2, labels=(1,))
    g = Graph(n=3, edges=((2, 1),))
    assert g.edges == ((1, 2),)
    assert g.labels == (0, 0, 0)


def test_adjacency_and_degree():
    g = path_graph(3)
    assert g.adjacency() == ((1,), (0, 2), (1,))
    assert [len(g.adjacency()[v]) for v in range(3)] == [1, 2, 1]
    assert len(cycle_graph(4).adjacency()[0]) == 2


def test_builders():
    assert cycle_graph(3).edges == ((0, 1), (0, 2), (1, 2))
    assert path_graph(1).edges == ()
    two = disjoint_union(cycle_graph(3), cycle_graph(3))
    assert two.n == 6
    assert len(two.edges) == 6
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_unfolding_tree_c3():
    t = unfolding_tree(cycle_graph(3), 0, 2)
    assert t.level_sizes() == [1, 2, 4]
    assert t.size() == 7
    assert tree_canonical(t) == b"(0|(0|(0),(0)),(0|(0),(0)))"
    with pytest.raises(ValueError):
        unfolding_tree(cycle_graph(3), 5, 1)
    with pytest.raises(ValueError):
        unfolding_tree(cycle_graph(3), 0, -1)


def test_tree_canonical_sorts_children():
    a = Graph(n=3, edges=((0, 1), (0, 2)), labels=(0, 1, 2))
    b = Graph(n=3, edges=((0, 1), (0, 2)), labels=(0, 2, 1))
    assert tree_canonical(unfolding_tree(a, 0, 1)) == \
        tree_canonical(unfolding_tree(b, 0, 1))
    assert tree_canonical(unfolding_tree(a, 0, 1)) == b"(0|(1),(2))"


def test_bottom_up_codes_match_recursive_trees():
    graphs = [cycle_graph(5), path_graph(4),
              Graph(n=4, edges=((0, 1),)),  # two isolated nodes
              Graph(n=1), disjoint_union(cycle_graph(3), path_graph(2))]
    for g in graphs:
        levels = unfolding_code_levels(g, 3)
        for depth in range(4):
            want = [tree_canonical(unfolding_tree(g, v, depth))
                    for v in range(g.n)]
            assert levels[depth] == want


def per_node_code_levels(g, k):
    """Oracle: one code per node and depth, each rendered from its
    neighbors' codes, with no sharing between nodes."""
    adj = g.adjacency()
    leaf = [b"(" + str(l).encode() + b")" for l in g.labels]
    levels = [leaf]
    for _ in range(k):
        prev = levels[-1]
        levels.append([b"(" + str(g.labels[v]).encode() + b"|"
                       + b",".join(sorted(prev[u] for u in adj[v])) + b")"
                       if adj[v] else leaf[v] for v in range(g.n)])
    return levels


@st.composite
def labeled_graphs(draw):
    n = draw(st.integers(1, 7))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs \
        else []
    # 2 and 10 sort one way as numbers and the other as bytes
    labels = draw(st.lists(st.sampled_from([0, 2, 10, 11]),
                           min_size=n, max_size=n))
    return Graph(n=n, edges=tuple(edges), labels=tuple(labels))


@settings(max_examples=80, deadline=None)
@given(labeled_graphs())
def test_interned_codes_match_per_node_codes_and_trees(g):
    levels = unfolding_code_levels(g, 4)
    assert levels == per_node_code_levels(g, 4)
    for depth in range(4):
        assert levels[depth] == [tree_canonical(unfolding_tree(g, v, depth))
                                 for v in range(g.n)]


def _enumerate_workload_graphs(seed):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look themselves up here
    spec.loader.exec_module(mod)
    return mod.generate_enumerate(seed)["graphs"]


def test_nodes_of_a_class_share_one_code_object():
    graphs = _enumerate_workload_graphs(7)
    for name in ("regular-a", "regular-b"):
        codes = unfolding_codes(load_graph(graphs[name]), 9)
        assert len({id(c) for c in codes}) == len(set(codes)) == 1
    # an irregular graph keeps one object per class as well
    g = Graph(n=6, edges=((0, 1), (1, 2), (2, 3), (3, 4), (2, 5)),
              labels=(2, 10, 2, 10, 2, 10))
    for codes in unfolding_code_levels(g, 5):
        assert len({id(c) for c in codes}) == len(set(codes))


def test_isolated_nodes_stay_leaves():
    g = Graph(n=2, labels=(4, 4))
    assert unfolding_codes(g, 3) == (b"(4)", b"(4)")


def relabel(g: Graph, perm) -> Graph:
    """Apply a node permutation (node i becomes perm[i])."""
    labels = [0] * g.n
    for i, p in enumerate(perm):
        labels[p] = g.labels[i]
    return Graph(n=g.n, edges=tuple((perm[u], perm[v]) for u, v in g.edges),
                 labels=tuple(labels))


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(5))))
def test_relabeling_permutes_codes(perm):
    g = Graph(n=5, edges=((0, 1), (1, 2), (2, 3), (0, 4)),
              labels=(0, 1, 0, 1, 0))
    h = relabel(g, perm)
    codes_g = unfolding_codes(g, 3)
    codes_h = unfolding_codes(h, 3)
    assert all(codes_h[perm[v]] == codes_g[v] for v in range(5))


def test_wl_refinement():
    c6 = cycle_graph(6)
    col = wl_refine(c6, 8)
    assert set(col.final) == {0}  # regular graph never splits
    assert col.stabilization == 1

    p3 = path_graph(3)
    col2 = wl_refine(p3, 4)
    assert partition_ids(col2.final) == [0, 1, 0]
    assert col2.stabilization == 2

    assert wl_refine(p3, 0).rounds[0] == (0, 0, 0)


def test_partition_ids():
    assert partition_ids(["b", "a", "b", "c"]) == [0, 1, 0, 2]
    assert partition_ids([]) == []


def test_wl_equals_unfolding_sweep():
    graphs = [cycle_graph(6), path_graph(5),
              disjoint_union(cycle_graph(3), path_graph(3)),
              Graph(n=5, edges=((0, 1), (0, 2), (0, 3), (0, 4))),
              Graph(n=4, edges=((0, 1), (2, 3)), labels=(0, 0, 1, 1))]
    for g in graphs:
        for k in range(4):
            assert wl_equals_unfolding(g, k)


def test_compare_graphs():
    res = compare_graphs(cycle_graph(6),
                         disjoint_union(cycle_graph(3), cycle_graph(3)), 8)
    assert not res.distinguishable
    assert res.depth == 8
    assert len(res.evidence["histogram"]) == 1

    res2 = compare_graphs(path_graph(3), cycle_graph(3), 1)
    assert res2.distinguishable
    assert res2.evidence == {"code": "(0|(0))", "count_first": 2,
                             "count_second": 0}
    doc = res2.to_json()
    assert doc["distinguishable"] is True


def test_load_graph_formats(tmp_path):
    g = load_graph({"n": 3, "edges": [[0, 1], [1, 2]]})
    assert g.n == 3 and len(g.edges) == 2
    text = "# a path\n0 1\n1 2\n"
    assert load_graph(text) == g
    p = tmp_path / "g.txt"
    p.write_text(text)
    assert load_graph(p) == g
    j = tmp_path / "g.json"
    j.write_text('{"n": 3, "edges": [[0, 1], [1, 2]]}')
    assert load_graph(j) == g
    with pytest.raises(ValueError):
        load_graph("0 1\nnot an edge\n")
