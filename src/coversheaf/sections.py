"""Section spaces over open sets of a finite marked space.

A section over an open set U is a continuous map R^{d_U} -> R^k, where
d_U is the sum of fiber dimensions of the marked points inside U.
Sections are represented as immutable expression DAGs built from input
coordinates, constants, affine maps, pointwise activations, products,
sums and maxima.  Equality of sections is extensional: seeded sampling
with a fixed tolerance.

Every node lists its inputs in ``children``.  One walk in ``Section``
orders, checks and sizes the DAG; one fold (``_fold``) runs evaluation,
exact coefficients and coordinate rewrites over it as per-kind rules;
JSON maps each node's dataclass fields through one kind <-> class table.

Coordinate maps between open sets are select-or-zero maps, all built
by ``coord_map``; two kinds are named:

* projection (V -> U for U inside V): drop the coordinates of points
  outside U, keeping order;
* zero_pad (U -> V for U inside V): insert zero coordinates at the
  slots of points outside U.

Precomposition with zero_pad restricts a section from V to U (the
presheaf direction); precomposition with projection extends a section
from U to V (the copresheaf direction).  Note that for an open set
with no marked points d_U = 0, so its section space consists of the
constant maps R^0 -> R^k, not the zero space; restriction to such a
set evaluates a section at the zero vector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import reduce
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .topology import _at_least, _json_int


# ---------------------------------------------------------------------------
# slot layout


def slot_layout(members: frozenset[int] | Iterable[int],
                fibers: Sequence[int]) -> dict[int, range]:
    """Coordinate slots of each member point, in increasing point order."""
    out: dict[int, range] = {}
    pos = 0
    for p in sorted(members):
        l = fibers[p - 1]
        out[p] = range(pos, pos + l)
        pos += l
    return out


def open_set_dim(members: frozenset[int] | Iterable[int],
                 fibers: Sequence[int]) -> int:
    return sum(fibers[p - 1] for p in members)


# ---------------------------------------------------------------------------
# expression DAG


class Node:
    """Base class for expression nodes.  Instances are immutable.

    ``children`` holds a node's inputs, () for a leaf.  Nodes compare and
    hash by identity, and repr names the children by type only, so
    neither walks into the DAG below a node.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        def show(v) -> str:
            if isinstance(v, tuple) and v and isinstance(v[0], Node):
                return "(" + ", ".join(map(show, v)) + ")"
            return f"<{type(v).__name__}>" if isinstance(v, Node) else repr(v)
        args = ", ".join(f"{f.name}={show(getattr(self, f.name))}"
                         for f in fields(self))
        return f"{type(self).__name__}({args})"


def _rebuilt(node: Node, children: tuple[Node, ...]) -> Node:
    """A copy of ``node`` reading ``children``; its own fields are shared."""
    new = object.__new__(type(node))
    new.__dict__.update(node.__dict__, children=children)
    if "child" in new.__dict__:
        new.__dict__["child"] = children[0]
    return new


@dataclass(frozen=True, eq=False, repr=False)
class Coords(Node):
    """Select input coordinates; width = number of indices."""

    indices: tuple[int, ...]
    children = ()

    def __post_init__(self):
        idx = tuple(_json_int(i, "indices") for i in self.indices)
        lo = idx[0] if idx else 0  # one increasing run reads a slice, a view
        run = idx == tuple(range(lo, lo + len(idx)))
        self.__dict__.update(indices=idx, _at=slice(lo, lo + len(idx)) if run
                             else _frozen(idx, np.intp))


def _frozen(values, dtype=float) -> np.ndarray:
    """A read-only array of node parameters, as evaluation reads them."""
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _reals(values, name: str) -> tuple[float, ...]:
    """Float node parameters.  A non-number (a bool or str included, not
    read as 0/1 or parsed) raises ValueError naming ``name``."""
    out = []
    for v in values:
        try:
            if isinstance(v, (bool, str)):
                raise TypeError
            out.append(float(v))
        except TypeError:
            raise ValueError(f"{name} must hold numbers, got {v!r}") from None
    return tuple(out)


@dataclass(frozen=True, eq=False, repr=False)
class Const(Node):
    values: tuple[float, ...]
    children = ()

    def __post_init__(self):
        values = _reals(self.values, "values")
        self.__dict__.update(values=values, _values=_frozen(values))


@dataclass(frozen=True, eq=False, repr=False)
class Affine(Node):
    """matrix @ child + bias; matrix is row-major (out_dim x in_dim)."""

    matrix: tuple[tuple[float, ...], ...]
    bias: tuple[float, ...]
    child: Node

    def __post_init__(self):
        m = tuple(_reals(row, "matrix") for row in self.matrix)
        bias = _reals(self.bias, "bias")
        if len(bias) != len(m):
            raise ValueError("bias length must match matrix rows")
        if m and len({len(r) for r in m}) != 1:
            raise ValueError("matrix rows must have equal length")
        self.__dict__.update(matrix=m, bias=bias, children=(self.child,),
                             _matrix_t=_frozen(m).T, _bias=_frozen(bias))


@dataclass(frozen=True, eq=False, repr=False)
class Activation(Node):
    name: str
    child: Node

    def __post_init__(self):
        object.__setattr__(self, "children", (self.child,))
        if self.name not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.name!r}")


@dataclass(frozen=True, eq=False, repr=False)
class _NAry(Node):
    """``_ufunc`` applied coordinatewise across equal-width children."""

    children: tuple[Node, ...]

    def __post_init__(self):
        if not self.children:
            raise ValueError(f"{type(self).__name__.lower()} needs at least one child")
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True, eq=False, repr=False)
class Product(_NAry):
    """Coordinatewise product of equal-width children."""

    _ufunc = np.multiply


@dataclass(frozen=True, eq=False, repr=False)
class Sum(_NAry):
    _ufunc = np.add


@dataclass(frozen=True, eq=False, repr=False)
class Max(_NAry):
    """Coordinatewise maximum over a finite set of children."""

    _ufunc = np.maximum


@dataclass(frozen=True)
class Section:
    """A map R^{domain_dim} -> R^{codomain_dim} given by an expression DAG.

    ``nodes`` lists the distinct DAG nodes children first (in order of
    first visit, children left to right, so ``body`` comes last).  The
    walk that builds it checks every width and records each node's child
    positions and last consumer for ``_fold``.
    """

    domain_dim: int
    codomain_dim: int
    body: Node
    nodes: tuple[Node, ...] = field(init=False, repr=False, compare=False)
    _inputs: list[list[int]] = field(init=False, repr=False, compare=False)
    _last: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.__dict__.update(domain_dim=_json_int(self.domain_dim, "domain_dim"),
                             codomain_dim=_json_int(self.codomain_dim, "codomain_dim"))
        nodes: list[Node] = []
        pos: dict[int, int] = {}  # by id(node); -1 while children pend
        width: list[int] = []
        inputs: list[list[int]] = []
        last: list[int] = []  # each node's last consumer; -1 for none
        top = -1
        stack: list[Node] = [self.body]
        while stack:
            node = stack.pop()
            key = id(node)
            i = pos.get(key)
            if i is None and node.children:
                pos[key] = -1
                stack.append(node)
                stack.extend(node.children[::-1])
                continue
            if i is not None and i >= 0:
                continue  # a shared node, already done
            # a leaf, or the second visit: the children are done
            i = len(nodes)
            args = []
            for c in node.children:
                j = pos[id(c)]
                args.append(j)
                last[j] = i
                if width[j] != width[args[0]]:
                    raise ValueError("children of product/sum/max must share a width")
            if isinstance(node, Coords):
                w = len(node.indices)
                if w and min(node.indices) < 0:
                    raise ValueError(f"Coords index {min(node.indices)} is negative")
                top = max(top, *node.indices) if w else top
            elif isinstance(node, Const):
                w = len(node.values)
            else:
                w = width[args[0]]
            if isinstance(node, Affine):
                if node.matrix and len(node.matrix[0]) != w:
                    raise ValueError(f"Affine rows have length {len(node.matrix[0])} "
                                     f"but its child has width {w}")
                w = len(node.matrix)
            pos[key] = i
            nodes.append(node)
            width.append(w)
            inputs.append(args)
            last.append(-1)
        if width[-1] != self.codomain_dim:
            raise ValueError(
                f"body width {width[-1]} != codomain_dim {self.codomain_dim}")
        if top >= self.domain_dim:
            raise ValueError("body references coordinates outside the domain")
        self.__dict__.update(nodes=tuple(nodes), _inputs=inputs, _last=last)

    def __call__(self, y) -> np.ndarray:
        return evaluate(self, y)


def _fold(section: Section, rule: Callable[[Node, list], object]):
    """The body's value, where a node's value is ``rule(node, its
    children's values)``; each value is dropped after its last consumer,
    so the values held grow with the DAG's width, not with its depth."""
    nodes = section.nodes
    if len(nodes) <= 2:  # at most one leaf below the body: nothing to drop
        out = rule(nodes[0], [])
        return out if len(nodes) == 1 else \
            rule(nodes[1], [out] * len(section._inputs[1]))
    vals: list = [None] * len(nodes)
    last = section._last
    for i, (node, args) in enumerate(zip(nodes, section._inputs)):
        vals[i] = rule(node, [vals[j] for j in args] if args else [])
        for j in args:
            if last[j] == i:
                vals[j] = None
    return vals[-1]


def evaluate(section: Section, y) -> np.ndarray:
    """Evaluate at one point (shape (d,)), a batch (shape (n, d)) or a
    stack of batches (shape (m, n, d)), each slab bit for bit as alone."""
    arr = np.asarray(y, dtype=float)
    single = arr.ndim == 1
    arr = arr[None, :] if single else arr
    if arr.ndim not in (2, 3) or arr.shape[-1] != section.domain_dim:
        raise ValueError(
            f"input shape {np.asarray(y).shape} does not match domain dim "
            f"{section.domain_dim}")

    # each slab column-major, a gather's layout, which matmul rounding
    # follows (so a stack is never flattened: taller matmuls round apart);
    # a stack's scattered gather takes from its slab-transposed copy
    stacked = arr.ndim == 3
    slabs_t = np.ascontiguousarray(arr.swapaxes(1, 2)) if stacked else None
    cols = slabs_t.swapaxes(1, 2) if stacked else np.asfortranarray(arr)
    lead = arr.shape[:-1]

    def value(node: Node, args: list) -> np.ndarray:
        if isinstance(node, Coords):
            if stacked and not isinstance(node._at, slice):
                return slabs_t.take(node._at, axis=1).swapaxes(1, 2)
            return cols[..., node._at]
        if isinstance(node, Const):
            return np.broadcast_to(node._values, (*lead, len(node.values))).copy()
        if isinstance(node, Affine):
            if not node.matrix:
                return np.zeros((*lead, 0))
            out = args[0] @ node._matrix_t
            out += node._bias
            return out
        if isinstance(node, Activation):
            return ACTIVATIONS[node.name].fn(args[0])
        return reduce(node._ufunc, args)

    out = _fold(section, value)
    if np.may_share_memory(out, arr):  # a slice passed through to the body
        out = out.copy(order="K")
    return out[0] if single else out


# ---------------------------------------------------------------------------
# activations

def _sigmoid(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class ActivationInfo:
    """A scalar activation with its mapping-property metadata.

    ``surjective``/``open_map``/``bijective`` describe the function as a
    map R -> R.  ``unreachable_value`` is a value outside the closure of
    the range when one exists (used to synthesize unattainable targets).
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    surjective: bool
    open_map: bool
    bijective: bool
    unreachable_value: float | None


ACTIVATIONS: dict[str, ActivationInfo] = {info.name: info for info in (
    ActivationInfo("identity", lambda x: x, True, True, True, None),
    ActivationInfo("relu", lambda x: np.maximum(x, 0.0), False, False, False, -1.0),
    ActivationInfo("sigmoid", _sigmoid, False, True, False, 2.0),
    ActivationInfo("tanh", np.tanh, False, True, False, 2.0),
    ActivationInfo("sin", np.sin, False, False, False, 2.0),
    ActivationInfo("cos", np.cos, False, False, False, 2.0),
)}


# ---------------------------------------------------------------------------
# coordinate maps


@dataclass(frozen=True)
class CoordMap:
    """A select-or-zero linear map between open-set coordinate spaces.

    ``slots[t]`` gives the source slot feeding target slot t, or None
    for a zero fill, so the target dimension is ``len(slots)``.
    """

    source_dim: int
    slots: tuple[int | None, ...]


def coord_map(fibers: Sequence[int], source: frozenset[int],
              target: frozenset[int], read: frozenset[int]) -> CoordMap:
    """The map R^{d_source} -> R^{d_target} between the coordinates of
    two member sets, in which slot j of a target point p reads slot j of
    p in ``source`` when p is in ``read`` (a subset of ``source``), and
    zero otherwise."""
    at = slot_layout(source, fibers)
    slots: list[int | None] = []
    for p in sorted(target):
        slots.extend(at[p] if p in read else [None] * fibers[p - 1])
    return CoordMap(open_set_dim(source, fibers), tuple(slots))


def projection_map(fibers: Sequence[int], big: frozenset[int],
                   small: frozenset[int]) -> CoordMap:
    """The coordinate projection R^{d_big} -> R^{d_small} (small inside big)."""
    if not small <= big:
        raise ValueError("projection requires the target inside the source")
    return coord_map(fibers, big, small, small)


def zero_pad_map(fibers: Sequence[int], small: frozenset[int],
                 big: frozenset[int]) -> CoordMap:
    """The zero-padding inclusion R^{d_small} -> R^{d_big} (small inside big)."""
    if not small <= big:
        raise ValueError("zero_pad requires the source inside the target")
    return coord_map(fibers, small, big, small)


def _rewrite(section: Section, slots: tuple[int | None, ...]) -> Node:
    """The section's body with coordinate i read from ``slots[i]`` (None
    reads zero); shared nodes stay shared."""
    def rule(node: Node, args: list) -> Node:
        if not isinstance(node, Coords):
            return _rebuilt(node, tuple(args)) if args else node
        mapped = [slots[i] for i in node.indices]
        survivors = [m for m in mapped if m is not None]
        if len(survivors) == len(mapped):
            return Coords(tuple(survivors))
        if not survivors:
            return Const((0.0,) * len(mapped))
        rows, pos = [], 0  # row t reads survivor pos, or is zero
        for m in mapped:
            rows.append(tuple(float(m is not None and c == pos)
                              for c in range(len(survivors))))
            pos += m is not None
        return Affine(tuple(rows), (0.0,) * len(mapped), Coords(tuple(survivors)))

    return _fold(section, rule)


def compose_coord(section: Section, cmap: CoordMap) -> Section:
    """Precompose a section with a coordinate map (section o cmap).

    Requires the map's target dimension to equal the section's domain
    dimension; the result reads the map's source coordinates.
    Composition is performed by rewriting coordinate references, so the
    DAG does not grow in depth.
    """
    if len(cmap.slots) != section.domain_dim:
        raise ValueError(
            f"coordinate map target dim {len(cmap.slots)} does not match "
            f"section domain dim {section.domain_dim}")
    body = _rewrite(section, cmap.slots)
    return Section(domain_dim=cmap.source_dim,
                   codomain_dim=section.codomain_dim, body=body)


# ---------------------------------------------------------------------------
# constructions


def affine_section(matrix, bias=None) -> Section:
    # entries reach Affine as given, so it converts and checks them
    m = np.atleast_2d(np.asarray(matrix, dtype=object))
    b = (0.0,) * m.shape[0] if bias is None else bias
    body = Affine(tuple(map(tuple, m)), b, Coords(tuple(range(m.shape[1]))))
    return Section(domain_dim=m.shape[1], codomain_dim=m.shape[0], body=body)


def constant_section(domain_dim: int, values) -> Section:
    vals = tuple(np.atleast_1d(np.asarray(values, dtype=float)))
    return Section(domain_dim=domain_dim, codomain_dim=len(vals), body=Const(vals))


def product_counterexample(d: int, k: int) -> Section:
    """The section whose k outputs each equal the product of all d input
    coordinates, those of an open set U.

    It restricts to the zero section on every open subset that misses a
    marked point of U: zero-padding the missing coordinates inserts a
    zero factor into the product.
    """
    if d < 2:
        raise ValueError("product counterexample needs at least 2 coordinates")
    prod = Product(tuple(Coords((i,)) for i in range(d)))
    body = Affine(tuple((1.0,) for _ in range(k)), (0.0,) * k, prod)
    return Section(domain_dim=d, codomain_dim=k, body=body)


# ---------------------------------------------------------------------------
# extensional comparison


class EqualityResult(NamedTuple):
    equal: bool
    max_deviation: float


def sections_equal(a: Section, b: Section, n_samples: int = 100,
                   tol: float = 1e-9, seed: int = 0) -> EqualityResult:
    """Seeded randomized extensional equality.

    Samples standard normal inputs and compares outputs in sup norm.
    Deterministic for a fixed seed.
    """
    n_samples, tol = _at_least("n_samples", n_samples), _at_least("tol", tol, 0, float)
    if a.domain_dim != b.domain_dim or a.codomain_dim != b.codomain_dim:
        raise ValueError("sections must share domain and codomain dimensions")
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((n_samples, a.domain_dim))
    dev = 0.0
    if a.codomain_dim:
        diff = evaluate(a, Y) - evaluate(b, Y)
        dev = float(np.max(np.abs(diff))) if diff.size else 0.0
    return EqualityResult(equal=dev <= tol, max_deviation=dev)


def zero_section(domain_dim: int, codomain_dim: int) -> Section:
    return constant_section(domain_dim, [0.0] * codomain_dim)


# ---------------------------------------------------------------------------
# polynomial views (exact coefficients)

Monomial = tuple[int, ...]


def _accumulate(acc: dict, key, c: Fraction) -> None:
    """acc[key] += c in a sparse coefficient dict; a zero sum drops the key."""
    nv = acc.get(key, 0) + c
    if nv:
        acc[key] = nv
    else:
        acc.pop(key, None)


def polynomial_coefficients(section: Section) -> list[dict[Monomial, Fraction]]:
    """Exact monomial coefficients of a polynomial section, per output.

    Only Coords, Const, Affine, Sum and Product nodes are allowed
    (identity activations are tolerated).  Float parameters convert
    exactly via Fraction(float).
    """
    zero: Monomial = (0,) * section.domain_dim

    def coefficients(node: Node, parts: list) -> list[dict[Monomial, Fraction]]:
        out: list[dict[Monomial, Fraction]] = []
        if isinstance(node, Coords):
            out = [{zero[:i] + (1,) + zero[i + 1:]: Fraction(1)} for i in node.indices]
        elif isinstance(node, Const):
            out = [{zero: Fraction(v)} if v else {} for v in node.values]
        elif isinstance(node, Activation) and node.name == "identity":
            out = parts[0]
        elif isinstance(node, Affine):
            for row, bval in zip(node.matrix, node.bias):
                acc: dict[Monomial, Fraction] = {}
                for coef, poly in zip(row, parts[0]):
                    if coef:
                        fc = Fraction(coef)
                        for mono, c in poly.items():
                            _accumulate(acc, mono, fc * c)
                if bval:
                    _accumulate(acc, zero, Fraction(bval))
                out.append(acc)
        elif isinstance(node, Sum):
            for polys in zip(*parts):
                acc = {}
                for poly in polys:
                    for mono, c in poly.items():
                        _accumulate(acc, mono, c)
                out.append(acc)
        elif isinstance(node, Product):
            for slot in range(len(parts[0])):
                acc = parts[0][slot]
                for part in parts[1:]:
                    nxt: dict[Monomial, Fraction] = {}
                    for m1, c1 in acc.items():
                        for m2, c2 in part[slot].items():
                            _accumulate(nxt, tuple(x + y for x, y in zip(m1, m2)),
                                        c1 * c2)
                    acc = nxt
                out.append(acc)
        else:
            raise ValueError("section is not polynomial")
        return out

    return _fold(section, coefficients)


def polynomial_section(domain_dim: int, codomain_dim: int,
                       coeffs: Sequence[dict[Monomial, Fraction]]) -> Section:
    """Rebuild a Section from per-output monomial coefficient dicts.

    Node parameters are floats, so coefficients must be dyadic to
    round-trip exactly through polynomial_coefficients.  Every
    coefficient extracted from an existing section is dyadic already
    (it came from float parameters), so extraction -> arithmetic over
    Fractions -> rebuild is exact end to end.
    """
    if len(coeffs) != codomain_dim:
        raise ValueError("one coefficient dict per output required")
    monomials = sorted({m for c in coeffs for m in c})
    if not monomials:
        return zero_section(domain_dim, codomain_dim)
    terms: list[Node] = []
    for mono in monomials:
        col = tuple(float(coeffs[s].get(mono, 0)) for s in range(codomain_dim))
        factors: list[Node] = []
        for i, e in enumerate(mono):
            factors.extend([Coords((i,))] * e)
        if factors:
            child: Node = factors[0] if len(factors) == 1 else Product(tuple(factors))
            terms.append(Affine(tuple((v,) for v in col), (0.0,) * codomain_dim, child))
        else:
            terms.append(Const(col))
    body: Node = terms[0] if len(terms) == 1 else Sum(tuple(terms))
    return Section(domain_dim=domain_dim, codomain_dim=codomain_dim, body=body)


# ---------------------------------------------------------------------------
# JSON serialization


_KINDS: dict[str, type] = {cls.__name__.lower(): cls for cls in (
    Coords, Const, Affine, Activation, Product, Sum, Max)}
_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in _KINDS.values()}


def section_to_json(section: Section) -> dict:
    """Serialize to an explicit node-id expression tree (row-major arrays).

    Each node is its kind, then its dataclass fields in order with nodes
    written as ids, then its id.  Ids follow ``section.nodes``, so
    children precede parents and the root is the last node.
    """
    ids = {id(node): i for i, node in enumerate(section.nodes)}

    def encode(v):
        if isinstance(v, Node):
            return ids[id(v)]
        return [encode(x) for x in v] if isinstance(v, tuple) else v

    nodes = [{"kind": type(node).__name__.lower(),
              **{name: encode(getattr(node, name)) for name in _FIELDS[type(node)]},
              "id": i} for i, node in enumerate(section.nodes)]
    return {"domain_dim": section.domain_dim, "codomain_dim": section.codomain_dim,
            "root": len(nodes) - 1, "nodes": nodes}


def section_from_json(obj: dict) -> Section:
    """Load what section_to_json writes.  Ids, references, indices and dims
    are integers, and a reference names an earlier node (else ValueError)."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    built: dict[int, Node] = {}

    def ref(raw, name: str) -> Node:
        i = _json_int(raw, name)
        if i not in built:
            raise ValueError(f"{name} {i} names no earlier node")
        return built[i]

    def decode(name: str, raw):
        if name == "child":
            return ref(raw, name)
        if name == "children":
            return tuple(ref(c, name) for c in raw)
        return raw

    for entry in obj["nodes"]:
        cls = _KINDS.get(entry["kind"])
        if cls is None:
            raise ValueError(f"unknown node kind {entry['kind']!r}")
        node = cls(*[decode(name, entry[name]) for name in _FIELDS[cls]])
        built[_json_int(entry["id"], "id")] = node
    return Section(domain_dim=obj["domain_dim"], codomain_dim=obj["codomain_dim"],
                   body=ref(obj["root"], "root"))
