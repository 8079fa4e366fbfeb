"""Finite marked spaces, open covers and cover-sequence axioms.

The model is deliberately combinatorial.  An open set is identified
with the set of marked points it contains, and element i of a cover is
named ``U{i}`` wherever a name is printed; every functor in this
package (skyscraper section spaces and their Hom variants) only sees
membership, so set intersection stands in for topological
intersection.  This is the one modelling assumption of the library:
two covers with identical memberships are interchangeable for every
check performed here, independent of the ambient geometry.

Point indices are 1-based throughout, matching the JSON interchange
format.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Iterable, Sequence

_STRUCTURE_KINDS = ("grid", "graph", "line", "abstract")


@dataclass(frozen=True)
class MarkedSpace:
    """A space carrying finitely many marked points with fiber dimensions.

    ``structure`` is a geometry tag: ``("grid", rows, cols)``,
    ``("graph", edges)``, ``("line",)`` or ``("abstract",)``.  It is
    carried for builders and reports only; no check depends on it.
    """

    n_points: int
    fiber_dims: tuple[int, ...]
    structure: tuple = ("abstract",)

    def __post_init__(self):
        object.__setattr__(self, "n_points", _json_int(self.n_points, "n_points"))
        if self.n_points < 1:
            raise ValueError("a marked space needs at least one point")
        object.__setattr__(self, "fiber_dims", tuple(
            _json_int(d, "fiber_dims") for d in self.fiber_dims))
        if len(self.fiber_dims) != self.n_points:
            raise ValueError("fiber_dims length must equal n_points")
        if any(d < 1 for d in self.fiber_dims):
            raise ValueError("fiber dimensions must be positive")
        if self.structure[0] not in _STRUCTURE_KINDS:
            raise ValueError(f"unknown structure kind {self.structure[0]!r}")
        if self.structure[0] == "grid":
            _, rows, cols = self.structure
            rows, cols = _json_int(rows, "rows"), _json_int(cols, "cols")
            if rows < 1 or cols < 1:
                raise ValueError(
                    f"grid rows and cols must be at least 1, got {rows} x {cols}")
            if rows * cols != self.n_points:
                raise ValueError("grid shape does not match n_points")
            object.__setattr__(self, "structure", ("grid", rows, cols))
        if self.structure[0] == "graph":
            edges = tuple(tuple(_json_int(p, "edges") for p in e)
                          for e in self.structure[1])
            for e in edges:
                if len(e) != 2 or not all(1 <= p <= self.n_points for p in e):
                    raise ValueError(f"graph edge {list(e)} must join two of "
                                     f"the points 1..{self.n_points}")
            object.__setattr__(self, "structure", ("graph", edges))

    @property
    def points(self) -> range:
        return range(1, self.n_points + 1)

    @property
    def total_dim(self) -> int:
        return sum(self.fiber_dims)


@dataclass(frozen=True)
class Cover:
    """An ordered family of open sets over a marked space, each given by
    the 1-based marked points it contains; element i is named ``U{i}``.

    ``covered`` is the union of memberships; it may be a proper subset
    of the space's points (collections are not forced to cover).
    """

    space: MarkedSpace
    memberships: tuple[frozenset[int], ...]
    covered: frozenset[int] = field(init=False)

    def __post_init__(self):
        if not self.memberships:
            raise ValueError("a cover needs at least one element")
        n, mems = self.space.n_points, []
        for i, m in enumerate(self.memberships):
            point = f"a point of element U{i}"
            mems.append(frozenset(_json_int(p, point) for p in m))
            bad = sorted(p for p in mems[-1] if not 1 <= p <= n)
            if bad:
                raise ValueError(f"element U{i} references unknown points {bad}"
                                 f" (point indices are 1-based, up to {n})")
        object.__setattr__(self, "memberships", tuple(mems))
        object.__setattr__(self, "covered", frozenset().union(*mems))


def make_cover(space: MarkedSpace, memberships: Sequence[Iterable[int]]) -> Cover:
    """Build a cover from its element memberships, in order."""
    return Cover(space=space, memberships=tuple(memberships))


@dataclass(frozen=True)
class CoverSequence:
    """Stages [C_0, ..., C_m, C_global] of a layered cover refinement.

    Stage 0 must isolate the marked points (element i contains point i
    and nothing else, in point order); the final stage is the single
    open set containing every point.
    """

    space: MarkedSpace
    stages: tuple[Cover, ...]

    def __post_init__(self):
        if len(self.stages) < 2:
            raise ValueError("a cover sequence needs at least two stages")
        first = self.stages[0]
        want = [frozenset({p}) for p in self.space.points]
        if list(first.memberships) != want:
            raise ValueError("stage 0 must consist of the point singletons in order")
        if self.stages[-1].memberships != (frozenset(self.space.points),):
            raise ValueError("final stage must be the single global open set")
        for c in self.stages:
            if c.space.n_points != self.space.n_points:
                raise ValueError("all stages must live over the same space")


def singleton_stage(space: MarkedSpace) -> Cover:
    return make_cover(space, [[p] for p in space.points])


def global_stage(space: MarkedSpace) -> Cover:
    return make_cover(space, [list(space.points)])


@dataclass(frozen=True)
class StageAxioms:
    """Axiom verdicts for one consecutive stage pair (C_{n-1} -> C_n).

    ``stage`` is n (1-based pair index).  Witness fields record the
    first violating index per axiom, or a supporting witness where one
    exists (``uncovered_point`` for locality).
    """

    stage: int
    locality: bool
    strictness: bool
    non_triviality: bool
    distinctness: bool
    sizes: tuple[int, int]
    uncovered_point: int | None = None
    non_triviality_failure: int | None = None
    distinctness_failure: tuple[int, int] | None = None

    @property
    def all_hold(self) -> bool:
        return self.locality and self.strictness and self.non_triviality and self.distinctness


@dataclass(frozen=True)
class AxiomReport:
    stages: tuple[StageAxioms, ...]
    all_hold: bool

    def to_json(self) -> dict:
        return _plain(self)


def proper_unions(targets: Sequence[frozenset[int]],
                  prev: Sequence[frozenset[int]]) -> list[bool]:
    """Is each target the union of a proper subfamily of ``prev``?

    The candidate family of a target is the maximal one (every previous
    element contained in it); a proper subfamily with the same union
    exists iff the candidates reproduce the target and either do not
    exhaust ``prev`` or contain a redundant member, one whose points
    all lie in another candidate.  One point -> element index serves
    every target.  An empty element is a candidate of every target and
    always redundant.
    """
    by_point: dict[int, list[int]] = {}
    for i, s in enumerate(prev):
        for q in s:
            by_point.setdefault(q, []).append(i)
    empty = [i for i, s in enumerate(prev) if not s]
    out = []
    for target in targets:
        hits: dict[int, int] = {}
        for q in target:
            for i in by_point.get(q, ()):
                hits[i] = hits.get(i, 0) + 1
        cands = [i for i, h in hits.items() if h == len(prev[i])]
        # cover[q]: the candidates containing point q of the target
        cover = dict.fromkeys(target, 0)
        for i in cands:
            for q in prev[i]:
                cover[q] += 1
        if not all(cover.values()):
            out.append(False)
        elif len(cands) + len(empty) < len(prev) or empty:
            out.append(True)
        else:
            out.append(any(all(cover[q] > 1 for q in prev[i])
                           for i in cands))
    return out


def check_na_axioms(seq: CoverSequence) -> AxiomReport:
    """Check the four neighborhood-aggregation axioms per stage pair.

    For each consecutive pair (C_{n-1}, C_n):

    1. locality: some marked point lies outside every element of C_n;
    2. strictness: C_{n-1} has strictly more elements than C_n;
    3. non-triviality: each element of C_n is the union of a proper
       subfamily of C_{n-1} elements (checked on membership sets);
    4. distinctness: membership sets of C_n are pairwise distinct.

    The final pair (into the global stage) is included; it can never
    satisfy locality.
    """
    points = frozenset(seq.space.points)
    out = []
    for n in range(1, len(seq.stages)):
        prev = seq.stages[n - 1].memberships
        cur = seq.stages[n].memberships

        missing = sorted(points - seq.stages[n].covered)
        locality = bool(missing)

        strictness = len(prev) > len(cur)

        proper = proper_unions(cur, prev)
        nt_fail = proper.index(False) if False in proper else None
        non_triviality = nt_fail is None

        dup = None
        seen: dict[frozenset[int], int] = {}
        for i, m in enumerate(cur):
            if m in seen:
                dup = (seen[m], i)
                break
            seen[m] = i
        distinctness = dup is None

        out.append(StageAxioms(
            stage=n,
            locality=locality,
            strictness=strictness,
            non_triviality=non_triviality,
            distinctness=distinctness,
            sizes=(len(prev), len(cur)),
            uncovered_point=missing[0] if missing else None,
            non_triviality_failure=nt_fail,
            distinctness_failure=dup,
        ))
    stages = tuple(out)
    return AxiomReport(stages=stages, all_hold=all(s.all_hold for s in stages))


class _NotAnInteger(ValueError):
    """A field that stores an integer was given something else."""


def _json_int(value, field: str) -> int:
    """An integer read from JSON: an int (any ``__index__`` type), or a
    float with an integral value.  Bools, strings and fractional floats
    raise ``_NotAnInteger``, a ValueError.  ``operator.index`` rather
    than an ABC check keeps it cheap enough for every ``Coords`` index."""
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
    elif not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise _NotAnInteger(f"{field} must be an integer, got {value!r}")


def _json_list(value, field: str, *inner: str):
    """A JSON array as given, each entry an array in turn for each name in
    ``inner``; else a TypeError naming the field, for the reader to report."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{field} must be a list, got {value!r}")
    for v in value if inner else ():
        _json_list(v, *inner)
    return value


def _at_least(field: str, value, low=1, kind=int):
    """``value`` as a finite ``kind`` >= ``low``, else a ValueError naming ``field``."""
    value = kind(value)
    if not low <= value < math.inf:
        finite = "" if kind is int else "finite and "
        raise ValueError(f"{field} must be {finite}at least {low}, got {value}")
    return value


def _plain(obj):
    """A JSON-ready copy of a report value: a dataclass as a dict of its
    fields in order, tuples as lists, numpy values through ``tolist``,
    and any other value that JSON lacks (a Fraction) as its string."""
    if is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
    if hasattr(obj, "tolist"):
        return _plain(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)


def structure_from_json(obj: dict) -> tuple:
    if not isinstance(obj, dict):
        raise ValueError(f"structure must be a JSON object, got {obj!r}")
    kind = obj.get("kind", "abstract")
    if kind == "grid":
        return ("grid", obj["rows"], obj["cols"])
    if kind == "graph":
        return ("graph", tuple(map(tuple, _json_list(
            obj.get("edges", []), "edges", "each edge in edges"))))
    if kind == "line":
        return ("line",)
    if kind == "abstract":
        return ("abstract",)
    raise ValueError(f"unknown structure kind {kind!r}")


def space_from_json(obj) -> MarkedSpace:
    """A marked space from its JSON object: ``n_points``, ``fiber_dims``
    and an optional ``structure`` (abstract when absent)."""
    if not isinstance(obj, dict):
        raise ValueError("space document must be a JSON object")
    try:
        n, fibers = obj["n_points"], _json_list(obj["fiber_dims"], "fiber_dims")
        structure = structure_from_json(obj.get("structure", {"kind": "abstract"}))
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"malformed space document: {e}") from e
    try:  # the constructor checks the integers; a bad one is a bad document
        return MarkedSpace(n_points=n, fiber_dims=fibers, structure=structure)
    except _NotAnInteger as e:
        raise ValueError(f"malformed space document: {e}") from e


def space_to_json(space: MarkedSpace) -> dict:
    """The JSON object ``space_from_json`` reads back as ``space``."""
    kind = space.structure[0]
    struct: dict = {"kind": kind}
    if kind == "grid":
        struct.update(rows=space.structure[1], cols=space.structure[2])
    elif kind == "graph":
        struct["edges"] = [list(e) for e in space.structure[1]]
    return {"n_points": space.n_points, "fiber_dims": list(space.fiber_dims),
            "structure": struct}


def _read_source(source) -> str:
    """Return file contents when ``source`` is an existing path, else the
    text itself.  Inline documents can exceed the filesystem name limit,
    so a failing stat means "not a path"."""
    p = Path(source)
    try:
        is_file = p.exists()
    except OSError:
        is_file = False
    return p.read_text() if is_file else str(source)


def _decode(source):
    """A JSON document given as a path, as JSON text or already decoded."""
    if isinstance(source, (str, Path)):
        return json.loads(_read_source(source))
    return source


def load_space_document(source) -> tuple[MarkedSpace, list[Cover]]:
    """Read a space plus covers from a JSON document.

    Expected shape::

        {"n_points": N, "fiber_dims": [l1, ..., lN],
         "structure": {"kind": ...},
         "covers": [[[1, 2], [2, 3]], ...]}

    Point indices are 1-based.  ``source`` may be a path, a JSON string
    or an already-decoded dict.
    """
    obj = _decode(source)
    space = space_from_json(obj)
    try:
        fams = _json_list(obj.get("covers", []), "covers", "each cover in "
                          "covers", "each cover element in covers")
    except TypeError as e:
        raise ValueError(f"malformed space document: {e}") from e
    return space, [make_cover(space, [[_json_int(p, "covers") for p in m]
                                      for m in fam]) for fam in fams]
