"""Layered networks over cover sequences.

A network carries a cover sequence [C_0, ..., C_m, C_global] and one
layer per consecutive stage pair.  Per-element values at stage 0 are
the fiber vectors of the marked points (optionally perturbed by a
per-point deviation); a layer computes the values of its output cover
elements from the values of its input cover elements.

Two layer kinds exist:

* InclusionLayer: output beta is activation(sum of phi_alpha(v_alpha)
  over the aggregated inputs).  Such a layer factors through the
  zero-padded inclusions of its input elements, which is the property
  the witness generators exploit.
* GeneralLayer: output beta is an arbitrary map of its aggregated
  input values (coordinatewise max/mean reducers, attention, ...).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .topology import (Cover, CoverSequence, MarkedSpace, _at_least, _decode,
                       _json_int, _json_list, global_stage, make_cover,
                       singleton_stage, space_from_json, space_to_json)
from .sections import (ACTIVATIONS, Activation, Const, CoordMap, Node,
                       Section, Sum, _frozen, affine_section, compose_coord,
                       constant_section, evaluate, section_from_json,
                       section_to_json, slot_layout, zero_section)


@dataclass(frozen=True, eq=False)
class _StagePair:
    """What every layer carries: its stage pair, per output element the
    input elements it aggregates, each contained in the output, and the
    width of every output value.
    Layers compare by identity: an offset layer never equals its source."""

    input_cover: Cover
    output_cover: Cover
    aggregation: tuple[tuple[int, ...], ...]
    out_dim: int

    def __post_init__(self):
        agg = tuple(tuple(_json_int(a, "aggregation") for a in row)
                    for row in self.aggregation)
        object.__setattr__(self, "aggregation", agg)
        object.__setattr__(self, "out_dim", _at_least(
            "out_dim", _json_int(self.out_dim, "out_dim")))
        if len(agg) != len(self.output_cover.memberships):
            raise ValueError("one aggregation list per output element required")
        inputs = self.input_cover.memberships
        for b, atuple in enumerate(agg):
            if not atuple:
                raise ValueError(f"output element {b} aggregates no inputs")
            if len(set(atuple)) != len(atuple):
                raise ValueError(f"output element {b} aggregates an input twice")
            target = self.output_cover.memberships[b]
            for a in atuple:
                if not 0 <= a < len(inputs):
                    raise ValueError(f"aggregation references unknown input {a}")
                if not inputs[a] <= target:
                    raise ValueError(
                        f"input element {a} is not contained in output element {b}")


@dataclass(frozen=True, eq=False)
class InclusionLayer(_StagePair):
    """out_beta = activation(sum over alpha in aggregation[beta] of
    phi[alpha](v_alpha) + offsets[alpha]).  ``offsets``, the perturbation
    of thm4.2, is none or a read-only (inputs, out_dim) float array."""

    phi: tuple[Section, ...]
    activation: str
    offsets: np.ndarray | None = None

    def __post_init__(self):
        super().__post_init__()
        if len(self.phi) != len(self.input_cover.memberships):
            raise ValueError("one phi per input element required")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        for s in self.phi:
            if s.codomain_dim != self.out_dim:
                raise ValueError("phi codomain must equal the layer out_dim")
        if self.offsets is not None:
            off = _frozen(self.offsets)
            if off.shape != (len(self.phi), self.out_dim) or \
                    not np.isfinite(off).all():
                raise ValueError("offsets must be finite, one row per input")
            object.__setattr__(self, "offsets", off)

    def _terms(self, values: Sequence[np.ndarray],
               inputs: Sequence[int]) -> dict[int, np.ndarray]:
        """phi_alpha(v_alpha) + offsets[alpha] by listed input alpha; the
        inputs that share one phi object are evaluated as one stack."""
        groups: dict[int, list[int]] = {}
        for a in inputs:
            groups.setdefault(id(self.phi[a]), []).append(a)
        got, off = {}, self.offsets
        for group in groups.values():
            phi, first = self.phi[group[0]], values[group[0]]
            if len(group) == 1:
                val = evaluate(phi, first)
                got[group[0]] = val if off is None else val + off[group[0]]
                continue
            stack = np.stack([values[a] for a in group]).reshape(
                len(group), -1, phi.domain_dim)
            vals = evaluate(phi, stack)
            if off is not None:
                vals += off[group][:, None]
            got.update(zip(group, vals[:, 0] if np.ndim(first) == 1 else vals))
        return got

    def apply(self, values: Sequence[np.ndarray],
              pre: list | None = None) -> list[np.ndarray]:
        """Output values of every output element.

        With a list ``pre`` (empty), first append every input's
        phi_alpha(v_alpha) (plus its offset) to it, then sum the outputs
        from those values.
        Untraced, only one output element's inputs are held at a time.
        """
        fn = ACTIVATIONS[self.activation].fn
        every = None  # traced: every input's term at once, all kept in pre
        if pre is not None:
            every = self._terms(values, range(len(self.phi)))
            pre.extend(every[a] for a in range(len(self.phi)))
        out = []
        for atuple in self.aggregation:
            terms = every or self._terms(values, atuple)
            acc = np.zeros(self.out_dim)
            for a in atuple:
                acc = acc + terms[a]
            out.append(fn(acc))
        return out


@dataclass(frozen=True)
class Reducer:
    """Named coordinatewise reducer over equally sized input values."""

    mode: str

    def __post_init__(self):
        if self.mode not in ("max", "mean"):
            raise ValueError(f"unknown reducer {self.mode!r}")

    def __call__(self, values: Sequence[np.ndarray]) -> np.ndarray:
        stack = np.stack(values)
        return stack.max(axis=0) if self.mode == "max" else stack.mean(axis=0)


@dataclass(frozen=True, eq=False)
class GeneralLayer(_StagePair):
    """out_beta = op(values of aggregation[beta]), with no imposed shape."""

    op: Callable[[Sequence[np.ndarray]], np.ndarray]

    def apply(self, values: Sequence[np.ndarray]) -> list[np.ndarray]:
        return [np.asarray(self.op([values[a] for a in atuple]), dtype=float)
                for atuple in self.aggregation]


Layer = InclusionLayer | GeneralLayer


@dataclass(frozen=True)
class Deviation:
    """Per-point perturbations nu_i; the evaluation applies id + nu_i."""

    space: MarkedSpace
    nus: tuple[Section, ...]

    def __post_init__(self):
        if len(self.nus) != self.space.n_points:
            raise ValueError("one deviation per marked point required")
        for p, s in zip(self.space.points, self.nus):
            l = self.space.fiber_dims[p - 1]
            if s.domain_dim != l or s.codomain_dim != l:
                raise ValueError(f"deviation at point {p} must map R^{l} to itself")

    @classmethod
    def zero(cls, space: MarkedSpace) -> "Deviation":
        return cls(space=space, nus=tuple(
            zero_section(l, l) for l in space.fiber_dims))

    @classmethod
    def constants(cls, space: MarkedSpace, vectors: Sequence[Sequence[float]]) -> "Deviation":
        return cls(space=space, nus=tuple(
            constant_section(l, v) for l, v in zip(space.fiber_dims, vectors)))


@dataclass(frozen=True)
class Network:
    """A cover sequence with one layer per consecutive stage pair."""

    space: MarkedSpace
    sequence: CoverSequence
    layers: tuple[Layer, ...]

    def __post_init__(self):
        stages = self.sequence.stages
        if len(self.layers) != len(stages) - 1:
            raise ValueError("need exactly one layer per stage pair")
        for i, layer in enumerate(self.layers):
            for side, cover, stage in (("input", layer.input_cover, stages[i]),
                                       ("output", layer.output_cover,
                                        stages[i + 1])):
                if cover is not stage and cover.memberships != stage.memberships:
                    raise ValueError(f"layer {i} {side} cover mismatch")

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def input_dim(self) -> int:
        return self.space.total_dim


class ForwardResult(NamedTuple):
    output: np.ndarray
    stages: tuple[tuple[np.ndarray, ...], ...]
    # per layer: each input's phi_alpha(v_alpha) for an InclusionLayer,
    # None for a GeneralLayer; None for the whole run unless traced
    pre: tuple[tuple[np.ndarray, ...] | None, ...] | None = None


def forward(net: Network, x, deviation: Deviation | None = None,
            trace: bool = False) -> ForwardResult:
    """Evaluate the network, returning the output and every stage's
    per-element values.

    ``x`` concatenates the fiber vectors of the marked points in point
    order.  Stage 0 values are x_i + nu_i(x_i); without a deviation
    they are slices of ``x`` and alias it (no copy is made when ``x``
    is already a float array).  A batch of inputs may be passed as
    shape (batch, input_dim); attention runs row by row.

    With ``trace``, ``pre[i]`` holds layer i's pre-aggregation values
    phi_alpha(v_alpha), one per input element, as the layer summed
    them (None for a GeneralLayer).  An untraced run keeps none.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != net.input_dim or x.ndim not in (1, 2):
        raise ValueError(f"input must have trailing dimension {net.input_dim}")
    layout = slot_layout(frozenset(net.space.points), net.space.fiber_dims)
    values: list[np.ndarray] = []
    for p in net.space.points:
        r = layout[p]
        xi = x[..., r.start:r.stop]
        if deviation is not None:
            xi = xi + evaluate(deviation.nus[p - 1], xi)
        values.append(xi)
    stages = [tuple(values)]
    pre: list[tuple[np.ndarray, ...] | None] = []
    for layer in net.layers:
        if trace and isinstance(layer, InclusionLayer):
            kept: list = []
            values = layer.apply(values, kept)
            pre.append(tuple(kept))
        else:
            values = layer.apply(values)
            pre.append(None)
        stages.append(tuple(values))
    return ForwardResult(
        output=values[0] if len(values) == 1 else np.concatenate(values, axis=-1),
        stages=tuple(stages), pre=tuple(pre) if trace else None)


class FactorsCheckResult(NamedTuple):
    factors: bool
    max_deviation: float


def composed_layer_sections(layer: InclusionLayer) -> list[Section]:
    """Symbolic per-output sections of an inclusion layer.

    Each output is activation(sum of phi_alpha composed with the
    coordinate projection of the concatenated input space onto the
    alpha block).  This is an independent evaluation path from
    ``layer.apply``: it goes through DAG composition.
    """
    # where each input's block starts in the concatenated input space
    starts = [0, *itertools.accumulate(s.domain_dim for s in layer.phi)]
    total = starts[-1]
    out = []
    for atuple in layer.aggregation:
        parts: list[Node] = []
        for a in atuple:
            block = CoordMap(total, tuple(range(starts[a], starts[a + 1])))
            part = compose_coord(layer.phi[a], block).body
            if layer.offsets is not None:
                part = Sum((part, Const(tuple(layer.offsets[a]))))
            parts.append(part)
        body: Node = parts[0] if len(parts) == 1 else Sum(tuple(parts))
        if layer.activation != "identity":
            body = Activation(layer.activation, body)
        out.append(Section(domain_dim=total, codomain_dim=layer.out_dim, body=body))
    return out


def factors_check(layer: Layer, n_samples: int = 100, tol: float = 1e-9,
                  seed: int = 0) -> FactorsCheckResult:
    """Extensional check that a layer factors through inclusions.

    Compares the layer's direct action against the symbolically
    composed sections on one seeded block of random inputs.  Raises
    TypeError for general layers, where the decomposition is not
    declared, and ValueError when n_samples is below 1.
    """
    if not isinstance(layer, InclusionLayer):
        raise TypeError("factors_check applies to inclusion layers only")
    n_samples = _at_least("n_samples", n_samples)
    starts = [0, *itertools.accumulate(s.domain_dim for s in layer.phi)]
    sections = composed_layer_sections(layer)
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((n_samples, starts[-1]))
    values = [samples[:, start:stop]
              for start, stop in zip(starts, starts[1:])]
    direct = layer.apply(values)
    dev = 0.0
    for b, sec in enumerate(sections):
        composed = evaluate(sec, samples)
        dev = max(dev, float(np.max(np.abs(direct[b] - composed))))
    return FactorsCheckResult(factors=dev <= tol, max_deviation=dev)


# ---------------------------------------------------------------------------
# builders


def _block_patches(shape: tuple[int, int], block: int,
                   patches: Sequence[frozenset[int]]
                   ) -> tuple[list[list[int]], tuple[int, int], list[list[int]]]:
    """Group a row-major patch grid into block x block superpatches.

    Returns (superpatch memberships, new shape, aggregation index lists).
    """
    rows, cols = shape
    if rows % block or cols % block:
        raise ValueError(f"patch grid {shape} not divisible by block {block}")
    nr, nc = rows // block, cols // block
    members: list[list[int]] = []
    agg: list[list[int]] = []
    for br in range(nr):
        for bc in range(nc):
            idxs = [(br * block + r) * cols + (bc * block + c)
                    for r in range(block) for c in range(block)]
            agg.append(idxs)
            members.append(sorted(p for i in idxs for p in patches[i]))
    return members, (nr, nc), agg


def _dense_head(rng: np.random.Generator, input_cover: Cover, output_cover: Cover,
                in_dim: int, out_dim: int, activation: str) -> InclusionLayer:
    """The fully connected layer summing every input element into the
    output: one affine map per input, drawn weights then bias, with a
    bias on the first input only."""
    out_dim = _at_least("out_dim", out_dim)
    phis = []
    for a in range(len(input_cover.memberships)):
        w = rng.standard_normal((out_dim, in_dim)) / math.sqrt(in_dim)
        b = rng.standard_normal(out_dim) if a == 0 else np.zeros(out_dim)
        phis.append(affine_section(w, b))
    return InclusionLayer(
        input_cover=input_cover, output_cover=output_cover,
        aggregation=(tuple(range(len(phis))),), phi=tuple(phis),
        activation=activation, out_dim=out_dim)


def build_cnn(n: int, plan: Sequence[dict] | None = None, seed: int = 0) -> Network:
    """A convolution/pooling network on an n x n grid of RGB cells.

    ``plan`` is a list of stage dicts, processed in order.  Three stage
    kinds come before the head:

    * {"kind": "conv", "channels": c, "activation": name}: a shared
      per-patch affine filter (InclusionLayer, default relu); the cover
      is unchanged, one output patch per input patch.
    * {"kind": "pool", "mode": "sum", "block": 2, "channels": c,
      "activation": name}: block sum pooling fused with a shared affine
      filter (InclusionLayer, default identity).
    * {"kind": "pool", "mode": "max", "block": 2}: coordinatewise block
      max pooling (GeneralLayer with Reducer("max")).

    ``channels`` defaults to 4.  The head {"kind": "fc", "out_dim": k,
    "activation": name} maps onto the global stage and must be last.
    Any other stage kind or pool mode, and a ``block``, ``channels`` or
    ``out_dim`` below 1, raises ValueError.

    The default plan is one fused sum-pool stage with relu and a
    sigmoid fully connected head.
    """
    if plan is None:
        plan = [
            {"kind": "pool", "mode": "sum", "block": 2, "channels": 4,
             "activation": "relu"},
            {"kind": "fc", "out_dim": 2, "activation": "sigmoid"},
        ]
    if not plan or plan[-1]["kind"] != "fc":
        raise ValueError("plan must end with a fully connected stage")
    rng = np.random.default_rng(seed)
    space = MarkedSpace(n_points=n * n, fiber_dims=(3,) * (n * n),
                        structure=("grid", n, n))
    shape = (n, n)
    stages: list[Cover] = [singleton_stage(space)]
    layers: list[Layer] = []
    dim = 3
    for stage in plan[:-1]:
        cur_cover, kind = stages[-1], stage["kind"]
        if kind == "conv":
            mode = None
            new_cover = make_cover(space, cur_cover.memberships)
            agg = [(i,) for i in range(len(cur_cover.memberships))]
        elif kind == "pool":
            mode = stage["mode"]
            if mode not in ("sum", "max"):
                raise ValueError(f"unknown pool mode {mode!r}")
            members, shape, agg = _block_patches(
                shape, _at_least("block", stage.get("block", 2)),
                cur_cover.memberships)
            new_cover = make_cover(space, members)
        else:
            raise ValueError(f"unknown plan stage kind {kind!r}")
        if mode == "max":
            layer = GeneralLayer(
                input_cover=cur_cover, output_cover=new_cover,
                aggregation=agg, op=Reducer("max"), out_dim=dim)
        else:
            c = _at_least("channels", stage.get("channels", 4))
            phi = affine_section(rng.standard_normal((c, dim)) / math.sqrt(dim))
            layer = InclusionLayer(
                input_cover=cur_cover, output_cover=new_cover,
                aggregation=agg, phi=(phi,) * len(cur_cover.memberships),
                activation=stage.get(
                    "activation", "relu" if kind == "conv" else "identity"),
                out_dim=c)
            dim = c
        stages.append(new_cover)
        layers.append(layer)

    head = plan[-1]
    layers.append(_dense_head(rng, stages[-1], global_stage(space), dim,
                              head.get("out_dim", 2),
                              head.get("activation", "sigmoid")))
    stages.append(layers[-1].output_cover)
    return Network(space=space,
                   sequence=CoverSequence(space=space, stages=tuple(stages)),
                   layers=tuple(layers))


def build_rnn_cover(n: int, kind: str, window: int = 2) -> CoverSequence:
    """Cover sequences of sequential models on a line of n tokens.

    kind "rnn" uses nested prefixes {1}, {1,2}, ..., {1..n}; kind
    "lstm" uses sliding windows of the given width.
    """
    if n < 1:
        raise ValueError("need at least one token")
    space = MarkedSpace(n_points=n, fiber_dims=(1,) * n, structure=("line",))
    if kind == "rnn":
        mems = [list(range(1, m + 1)) for m in range(1, n + 1)]
    elif kind == "lstm":
        if not 1 <= window <= n:
            raise ValueError("window must be between 1 and n")
        mems = [list(range(s, s + window)) for s in range(1, n - window + 2)]
    else:
        raise ValueError(f"unknown sequential kind {kind!r}")
    stages = [singleton_stage(space), make_cover(space, mems), global_stage(space)]
    return CoverSequence(space=space, stages=tuple(stages))


def build_sequential(n: int, kind: str = "rnn", window: int = 2,
                     hidden: int = 2, out_dim: int = 2,
                     activation: str = "tanh", seed: int = 0) -> Network:
    """A summed-inclusion network over a sequential cover.

    Stage-1 elements (prefixes or sliding windows) aggregate their
    member tokens through per-token affine maps; the head sums every
    stage-1 element into the global stage.  A ``hidden`` or ``out_dim``
    below 1 raises ValueError.
    """
    hidden = _at_least("hidden", hidden)
    seq = build_rnn_cover(n, kind, window=window)
    rng = np.random.default_rng(seed)
    s0, s1, s2 = seq.stages
    mems1 = s1.memberships
    phi0 = tuple(affine_section(rng.standard_normal((hidden, 1)))
                 for _ in range(n))
    agg1 = tuple(tuple(i for i in range(n) if (i + 1) in m) for m in mems1)
    layer0 = InclusionLayer(input_cover=s0, output_cover=s1, aggregation=agg1,
                            phi=phi0, activation="relu", out_dim=hidden)
    layer1 = _dense_head(rng, s1, s2, hidden, out_dim, activation)
    return Network(space=seq.space, sequence=seq, layers=(layer0, layer1))


def positional_encoding(n: int, d: int) -> list[tuple[float, float]]:
    """Cylinder coordinates of the n*d encoded inputs, ordered by
    (token i, feature j), both 1-based.

    The first coordinate is sin(i / 10000^(2j/d)) for even i and
    cos(i / 10000^(2j/d)) for odd i; the second is (2j-1)/(2d).
    """
    out = []
    for i in range(1, n + 1):
        for j in range(1, d + 1):
            angle = i / (10000.0 ** (2.0 * j / d))
            first = math.sin(angle) if i % 2 == 0 else math.cos(angle)
            out.append((first, (2.0 * j - 1.0) / (2.0 * d)))
    return out


@dataclass(frozen=True, eq=False)
class MultiHeadAttentionOp:
    """Scaled dot-product attention over token values.

    Each incoming token value concatenates the raw token vector (first
    d_model slots) with the per-head value rows; queries and keys are
    formed from the raw part, so the op is a self-contained map on the
    stage values.  The output stacks the per-token outputs of
    Z @ W_Z row by row.
    """

    n_tokens: int
    d_model: int
    heads: int
    head_dim: int
    w_q: np.ndarray  # heads x d_model x head_dim
    w_k: np.ndarray
    w_z: np.ndarray  # (heads*head_dim) x d_model

    def __post_init__(self):
        for name in ("heads", "head_dim"):
            object.__setattr__(self, name, _at_least(name, getattr(self, name)))
        qk = (self.heads, self.d_model, self.head_dim)
        # read-only float copies, so the op cannot change after it is
        # built; eq=False, as arrays neither hash nor compare to one bool
        for name, shape in (("w_q", qk), ("w_k", qk),
                            ("w_z", (self.heads * self.head_dim, self.d_model))):
            w = np.array(getattr(self, name), dtype=float)
            if w.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {w.shape}")
            w.flags.writeable = False
            object.__setattr__(self, name, w)

    def _split(self, values: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        stack = np.stack([np.asarray(v, dtype=float) for v in values])
        want = self.d_model + self.heads * self.head_dim
        if stack.shape != (self.n_tokens, want):
            raise ValueError("unexpected token value shape")
        return stack[:, :self.d_model], stack[:, self.d_model:]

    def attention_weights(self, values: Sequence[np.ndarray]) -> np.ndarray:
        """Softmax attention matrices, shape (heads, n, n); rows sum to 1."""
        raw, _ = self._split(values)
        out = np.zeros((self.heads, self.n_tokens, self.n_tokens))
        for i in range(self.heads):
            q = raw @ self.w_q[i]
            k = raw @ self.w_k[i]
            logits = q @ k.T / math.sqrt(self.head_dim)
            logits = logits - logits.max(axis=1, keepdims=True)
            e = np.exp(logits)
            out[i] = e / e.sum(axis=1, keepdims=True)
        return out

    def __call__(self, values: Sequence[np.ndarray]) -> np.ndarray:
        if np.ndim(values[0]) == 2:
            # a batch of token values: attend within each input row
            return np.stack([self([v[i] for v in values])
                             for i in range(len(values[0]))])
        _, headvals = self._split(values)
        attn, d = self.attention_weights(values), self.head_dim
        z = np.hstack([attn[i] @ headvals[:, i * d:(i + 1) * d]
                       for i in range(self.heads)])
        return (z @ self.w_z).reshape(-1)


def build_attention(n_tokens: int, d_model: int, heads: int = 1,
                    head_dim: int = 2, seed: int = 0,
                    zero_qk: bool = False) -> Network:
    """Single attention block over n_tokens tokens of d_model features.

    The marked space has one point per (token, feature) pair with unit
    fibers.  Stage 1 elements are the per-token feature columns; the
    first layer assembles, per token, the raw token vector next to the
    per-head value rows (all linear per-input maps, summed per token);
    the second layer applies multi-head softmax attention followed by
    the output projection.
    """
    if n_tokens < 2:
        raise ValueError("attention needs at least two tokens")
    # the op checks these too, but a negative size fails the draws first
    heads, head_dim = _at_least("heads", heads), _at_least("head_dim", head_dim)
    N = n_tokens * d_model
    space = MarkedSpace(n_points=N, fiber_dims=(1,) * N, structure=("abstract",))
    rng = np.random.default_rng(seed)

    def weight(shape):
        return rng.standard_normal(shape) / math.sqrt(shape[0])

    w_v = [weight((d_model, head_dim)) for _ in range(heads)]
    w_q = [np.zeros((d_model, head_dim)) if zero_qk else weight((d_model, head_dim))
           for _ in range(heads)]
    w_k = [np.zeros((d_model, head_dim)) if zero_qk else weight((d_model, head_dim))
           for _ in range(heads)]
    w_z = weight((heads * head_dim, d_model))

    token_members = [[(t * d_model) + j + 1 for j in range(d_model)]
                     for t in range(n_tokens)]
    stage1 = make_cover(space, token_members)
    stages = (singleton_stage(space), stage1, global_stage(space))

    # feature j of a token enters its raw slot j and every head's value
    # row: column j of [I; w_v^T]
    cols = np.vstack([np.eye(d_model)] + [w.T for w in w_v])
    layer1 = InclusionLayer(
        input_cover=stages[0], output_cover=stage1,
        aggregation=tuple(tuple((t * d_model) + j for j in range(d_model))
                          for t in range(n_tokens)),
        phi=tuple(affine_section(cols[:, [j]]) for j in range(d_model)) * n_tokens,
        activation="identity", out_dim=len(cols))

    op = MultiHeadAttentionOp(
        n_tokens=n_tokens, d_model=d_model, heads=heads, head_dim=head_dim,
        w_q=w_q, w_k=w_k, w_z=w_z)
    layer2 = GeneralLayer(
        input_cover=stage1, output_cover=stages[2],
        aggregation=(tuple(range(n_tokens)),), op=op,
        out_dim=n_tokens * d_model)
    return Network(space=space,
                   sequence=CoverSequence(space=space, stages=stages),
                   layers=(layer1, layer2))


# ---------------------------------------------------------------------------
# JSON serialization (inclusion and reducer layers)


def network_to_json(net: Network) -> dict:
    layers = []
    for layer in net.layers:
        entry: dict = {"aggregation": [list(a) for a in layer.aggregation],
                       "out_dim": layer.out_dim}
        if isinstance(layer, InclusionLayer) and layer.offsets is None:
            entry["kind"] = "inclusion"
            entry["activation"] = layer.activation
            entry["phi"] = [section_to_json(s) for s in layer.phi]
        elif isinstance(layer, GeneralLayer) and isinstance(layer.op, Reducer):
            entry["kind"] = "general"
            entry["op"] = layer.op.mode
        else:
            raise ValueError("only inclusion layers without offsets and "
                             "reducer layers serialize to JSON")
        layers.append(entry)
    return {
        "schema": 1,
        "space": space_to_json(net.space),
        "stages": [[sorted(m) for m in c.memberships]
                   for c in net.sequence.stages],
        "layers": layers,
    }


def network_from_json(source) -> Network:
    """Load a network; accepts a path, JSON text or a decoded dict."""
    obj = _decode(source)
    try:
        space = space_from_json(obj["space"])
        stages = _json_list(obj["stages"], "stages", "each stage in stages",
                            "each stage element in stages")
        covers = [make_cover(space, [[_json_int(p, "stages") for p in m]
                                     for m in fam]) for fam in stages]
        seq = CoverSequence(space=space, stages=tuple(covers))
        layers: list[Layer] = []
        for i, entry in enumerate(_json_list(obj["layers"], "layers")):
            pair = dict(input_cover=covers[i], output_cover=covers[i + 1],
                        aggregation=_json_list(entry["aggregation"], "aggregation",
                                               "each aggregation row"),
                        out_dim=entry["out_dim"])
            if entry["kind"] == "inclusion":
                phis = tuple(section_from_json(spec) if "nodes" in spec else
                             affine_section(spec["matrix"], spec.get("bias"))
                             for spec in _json_list(entry["phi"], "phi"))
                layers.append(InclusionLayer(
                    **pair, phi=phis,
                    activation=entry.get("activation", "identity")))
            elif entry["kind"] == "general":
                layers.append(GeneralLayer(**pair, op=Reducer(entry["op"])))
            else:
                raise ValueError(f"unknown layer kind {entry['kind']!r}")
        return Network(space=space, sequence=seq, layers=tuple(layers))
    except (KeyError, TypeError, IndexError) as e:
        raise ValueError(f"malformed network document: {e}") from e
