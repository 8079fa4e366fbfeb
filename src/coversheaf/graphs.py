"""Graphs, unfolding-tree codes and color refinement.

Node indices are 0-based.  An unfolding tree is the usual computation
tree of a node: the children of a copy of u are all graph neighbors of
u, so the depth-t level enumerates the length-t walks from the root.

The depth-k unfolding partition is computed without materializing the
trees: per depth, each node's signature (label, sorted child ids) is
interned into a small integer id, as in the WL subtree kernel's
relabelling, and one canonical code is rendered per distinct id.  This
is sound because every copy of u at remaining depth r roots a subtree
equal to the depth-r unfolding tree of u, and equal signatures mean
isomorphic trees.  All nodes of a class share one ``bytes`` object, so
the work grows with the number of classes, not with the number of
nodes.  The tests keep the explicit trees as the oracle on small inputs.

Color refinement keeps a per-round injective signature dictionary, so
color classes can split but never merge and no hash collision can fake
an equality."""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .topology import _json_int, _read_source


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph with optional small-integer node labels."""

    n: int
    edges: tuple[tuple[int, int], ...] = ()
    labels: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("node count must be nonnegative")
        norm = []
        for e in self.edges:
            if len(e) != 2:
                raise ValueError(f"edge {e} needs exactly two endpoints")
            u, v = int(e[0]), int(e[1])
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {e} references unknown nodes")
            if u == v:
                raise ValueError(f"self-loop at node {u} not allowed")
            norm.append((min(u, v), max(u, v)))
        norm.sort()
        for a, b in itertools.pairwise(norm):
            if a == b:
                raise ValueError(f"duplicate edge {a}")
        object.__setattr__(self, "edges", tuple(norm))
        labels = self.labels if self.labels else (0,) * self.n
        labels = tuple(int(l) for l in labels)
        if len(labels) != self.n:
            raise ValueError("one label per node required")
        object.__setattr__(self, "labels", labels)

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    off = g1.n
    return Graph(n=g1.n + g2.n,
                 edges=g1.edges + tuple((u + off, v + off) for u, v in g2.edges),
                 labels=g1.labels + g2.labels)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 nodes")
    return Graph(n=n, edges=tuple((i, (i + 1) % n) for i in range(n)))


def path_graph(n: int) -> Graph:
    return Graph(n=n, edges=tuple((i, i + 1) for i in range(n - 1)))


# ---------------------------------------------------------------------------
# unfolding trees


def unfolding_code_levels(g: Graph, k: int) -> list[list[bytes]]:
    """Canonical codes of every node's unfolding tree, for depths 0..k.

    A tree's code is ``(label)`` for a leaf and ``(label|c1,c2,...)``
    otherwise, with the children's codes sorted, so two trees get equal
    codes exactly when they are isomorphic as rooted labeled trees.
    Each level interns the signature (label, sorted child ids) of every
    node into a per-level id and renders one code per id.  Nodes with
    equal codes at a level share one ``bytes`` object.
    """
    if k < 0:
        raise ValueError("depth must be nonnegative")
    adj = g.adjacency()
    table: dict = {}
    ids = [table.setdefault(l, len(table)) for l in g.labels]
    code = [b"(" + str(l).encode() + b")" for l in table]  # one per id
    levels = [[code[i] for i in ids]]
    for _ in range(k):
        table = {}
        nxt: list[bytes] = []
        new_ids = []
        for v in range(g.n):
            sig = (g.labels[v], tuple(sorted(ids[u] for u in adj[v])))
            i = table.get(sig)
            if i is None:
                i = table[sig] = len(nxt)
                head = b"(" + str(sig[0]).encode()
                if sig[1]:
                    kids = sorted(code[c] for c in sig[1])
                    nxt.append(head + b"|" + b",".join(kids) + b")")
                else:
                    nxt.append(head + b")")
            new_ids.append(i)
        ids, code = new_ids, nxt
        levels.append([code[i] for i in ids])
    return levels


def unfolding_codes(g: Graph, k: int) -> tuple[bytes, ...]:
    return tuple(unfolding_code_levels(g, k)[-1])


# ---------------------------------------------------------------------------
# color refinement


@dataclass(frozen=True)
class WLColoring:
    """Per-round color arrays; ``stabilization`` is the first round whose
    partition repeats the previous one (None if not reached)."""

    rounds: tuple[tuple[int, ...], ...]
    stabilization: int | None

    @property
    def final(self) -> tuple[int, ...]:
        return self.rounds[-1]


def _canonical_indices(signatures: Sequence) -> tuple[int, ...]:
    order = {s: i for i, s in enumerate(sorted(set(signatures)))}
    return tuple(order[s] for s in signatures)


def wl_refine(g: Graph, rounds: int) -> WLColoring:
    """Color refinement from the node labels.

    Round t+1 colors are canonical indices of the signatures
    (color_t(v), sorted colors of the neighbors); including the
    previous color makes partitions refine monotonically.
    """
    if rounds < 0:
        raise ValueError("rounds must be nonnegative")
    adj = g.adjacency()
    colors = _canonical_indices(g.labels)
    out = [colors]
    stab = None
    for r in range(1, rounds + 1):
        sigs = [(colors[v], tuple(sorted(colors[u] for u in adj[v])))
                for v in range(g.n)]
        new = _canonical_indices(sigs)
        if stab is None and new == colors:
            stab = r
        colors = new
        out.append(colors)
    return WLColoring(rounds=tuple(out), stabilization=stab)


def partition_ids(seq: Sequence) -> list[int]:
    """Order-of-first-occurrence normal form of a partition-by-value."""
    d: dict = {}
    return [d.setdefault(x, len(d)) for x in seq]


def wl_equals_unfolding(g: Graph, k: int) -> bool:
    """Round-k refinement partition == depth-k unfolding-code partition."""
    wl = wl_refine(g, k)
    codes = unfolding_codes(g, k)
    return partition_ids(wl.rounds[k]) == partition_ids(codes)


# ---------------------------------------------------------------------------
# graph comparison


@dataclass(frozen=True)
class ComparisonResult:
    distinguishable: bool
    depth: int
    evidence: dict
    counts: tuple[Counter, Counter] = field(repr=False, compare=False)

    def to_json(self) -> dict:
        return {"distinguishable": self.distinguishable, "depth": self.depth,
                "evidence": self.evidence}


def _histogram(codes: Sequence[bytes]) -> Counter:
    """Decoded code -> multiplicity.  The nodes of a class share one
    ``bytes`` object, so counting first decodes each class once."""
    return Counter({code.decode(): n for code, n in Counter(codes).items()})


def compare_graphs(g1: Graph, g2: Graph, k: int) -> ComparisonResult:
    """Compare the multisets of depth-k unfolding-tree codes.

    Equal multisets mean the graphs are indistinguishable by depth-k
    unfolding trees (equivalently by k rounds of color refinement);
    the evidence then carries the shared code histogram.  Otherwise it
    names a code with differing multiplicities.  ``counts`` keeps both
    graphs' code histograms for reports; ``to_json`` leaves them out.
    """
    c1 = _histogram(unfolding_codes(g1, k))
    c2 = _histogram(unfolding_codes(g2, k))
    if c1 == c2:
        evidence = {"histogram": {c: c1[c] for c in sorted(c1)}}
    else:
        diff = sorted(c for c in (set(c1) | set(c2)) if c1[c] != c2[c])[0]
        evidence = {"code": diff, "count_first": c1[diff],
                    "count_second": c2[diff]}
    return ComparisonResult(distinguishable=c1 != c2, depth=k,
                            evidence=evidence, counts=(c1, c2))


# ---------------------------------------------------------------------------
# input formats


def load_graph(source) -> Graph:
    """Read a graph from JSON or a whitespace edge list.

    JSON shape: {"n": count, "edges": [[u, v], ...], "labels": [...]}
    with 0-based nodes.  Edge-list files hold one "u v" pair per line
    ('#' comments allowed); the node count is the largest index + 1.
    """
    text = None
    if isinstance(source, dict):
        obj = source
    else:
        text = _read_source(source)
        stripped = text.lstrip()
        obj = json.loads(text) if stripped.startswith("{") else None
    if obj is not None:
        try:
            return Graph(n=_json_int(obj["n"], "n"),
                         edges=tuple(tuple(_json_int(x, "edges") for x in e)
                                     for e in obj.get("edges", [])),
                         labels=tuple(_json_int(x, "labels")
                                      for x in obj.get("labels", ())))
        except (KeyError, TypeError) as e:
            raise ValueError(f"malformed graph document: {e}") from e
    edges = []
    top = -1
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {line!r}")
        u, v = int(parts[0]), int(parts[1])
        edges.append((u, v))
        top = max(top, u, v)
    if top < 0:
        raise ValueError("edge list holds no edges; use JSON for node-only graphs")
    return Graph(n=top + 1, edges=tuple(edges))
