"""Command-line entry point orchestrating the witness suites.

Every subcommand prints one JSON report envelope to stdout (and to
``--out`` when given)::

    {"schema": 1, "command": ..., "config": ..., "reports": [...],
     "passed": ..., "timestamp": ...}

Keys are sorted, so two runs with identical arguments produce
byte-identical output except for the timestamp line.  Report entries
carrying a "verdict" or "ok" field gate the exit code: 0 when all pass,
1 when any fails, 2 on malformed input, 3 on any other error.  Axiom
tables and graph comparisons are descriptive and never gate.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from .topology import (CoverSequence, MarkedSpace, check_na_axioms,
                       global_stage, load_space_document, make_cover,
                       singleton_stage)
from .cech import _block_pass, hom_report_json
from .network import (InclusionLayer, build_attention, build_cnn,
                      build_sequential, factors_check, forward,
                      network_from_json, positional_encoding)
from .witnesses import (adversarial_attack, dataset_dependency, glue_report,
                        indistinguishability_report, kernel_report,
                        locality_witness, pooled_collision,
                        surjectivity_witness)
from .graphs import compare_graphs, load_graph

_GATE_KEYS = ("verdict", "ok")


def _envelope(command: str, config: dict, reports: list[dict]) -> dict:
    gates = [bool(r[k]) for r in reports for k in _GATE_KEYS if k in r]
    return {
        "schema": 1,
        "command": command,
        "config": config,
        "reports": reports,
        "passed": all(gates),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _resolved_tol(args, fallback: float = 1e-9) -> float:
    return fallback if args.tol is None else args.tol


def _abstract_cover(memberships: Sequence[Sequence[int]]):
    points = sorted({p for m in memberships for p in m})
    space = MarkedSpace(n_points=max(points), fiber_dims=(1,) * max(points),
                        structure=("abstract",))
    return make_cover(space, memberships)


def _require_file(path: str) -> str:
    # module loaders accept inline JSON strings; CLI arguments are paths
    if not Path(path).is_file():
        raise ValueError(f"no such file: {path}")
    return path


def _document_cover(path: str):
    space, covers = load_space_document(_require_file(path))
    if not covers:
        raise ValueError(f"{path} provides no covers")
    return space, covers


def _is_singleton_stage(cover) -> bool:
    return cover.memberships() == tuple(
        frozenset({p}) for p in cover.space.points)


def _is_global_stage(cover) -> bool:
    mems = cover.memberships()
    return len(mems) == 1 and mems[0] == frozenset(cover.space.points)


def _factors_entries(net, samples: int, tol: float, seed: int) -> list[dict]:
    out = []
    for idx, layer in enumerate(net.layers):
        if not isinstance(layer, InclusionLayer):
            continue
        fc = factors_check(layer, n_samples=samples, tol=tol, seed=seed)
        out.append({"kind": "factors-through-inclusions", "layer": idx,
                    "max_deviation": float(fc.max_deviation),
                    "ok": bool(fc.factors)})
    return out


def _axioms_entry(seq: CoverSequence) -> dict:
    return {"kind": "axioms", **check_na_axioms(seq).to_json()}


def _cmd_axioms(args) -> tuple[list[dict], dict]:
    space, covers = _document_cover(args.cover)
    stages = list(covers)
    if not _is_singleton_stage(stages[0]):
        stages.insert(0, singleton_stage(space))
    if not _is_global_stage(stages[-1]):
        stages.append(global_stage(space))
    seq = CoverSequence(space=space, stages=tuple(stages))
    config = {"cover": args.cover, "seed": args.seed}
    return [_axioms_entry(seq)], config


def _cmd_cohomology(args) -> tuple[list[dict], dict]:
    space, covers = _document_cover(args.cover)
    fibers = space.fiber_dims
    reports: list[dict] = []
    for i, cover in enumerate(covers):
        h, dims, ex = _block_pass(cover, fibers, args.k, args.depth)
        entry = hom_report_json(i, h, dims)
        entry.update(kind="cohomology", ok=entry["exact"])
        reports.append(entry)
        reports.append({"kind": "exactness", **ex.to_json(), "ok": ex.passed})
    config = {"cover": args.cover, "k": args.k, "depth": args.depth,
              "seed": args.seed}
    return reports, config


def _witness_cover(args, default: Sequence[Sequence[int]]):
    if args.cover is None:
        cover = _abstract_cover(default)
        return cover, cover.space.fiber_dims
    space, covers = _document_cover(args.cover)
    return covers[0], space.fiber_dims


def _cmd_witness(args) -> tuple[list[dict], dict]:
    tol = _resolved_tol(args, 1e-6 if args.claim == "thm4.3" else 1e-9)
    config = {"claim": args.claim, "seed": args.seed, "tol": tol,
              "samples": args.samples, "k": args.k, "cover": args.cover,
              "net": args.net}
    if args.claim == "prop2.8":
        cover, fibers = _witness_cover(args, [[1, 2], [2, 3]])
        _, loc = locality_witness(cover, fibers, args.k,
                                  n_samples=args.samples, seed=args.seed)
        sur = surjectivity_witness(cover, fibers, args.k, seed=args.seed)
        return [loc.to_json(), sur.to_json()], config
    if args.claim == "thm4.1":
        cover, fibers = _witness_cover(args, [[1, 2], [2, 3]])
        rep = indistinguishability_report(cover, fibers, args.k,
                                          seed=args.seed)
        return [rep.to_json()], config
    if args.claim == "thm4.2":
        if args.net is None:
            raise ValueError("witness thm4.2 requires --net")
        net = network_from_json(_require_file(args.net))
        config.update(layer=args.layer, p=args.p, delta=args.delta)
        _, rep = adversarial_attack(net, args.layer, p=args.p,
                                    delta=args.delta, seed=args.seed, tol=tol)
        return [rep.to_json()], config
    if args.claim == "thm4.3":
        net = network_from_json(_require_file(args.net)) if args.net else \
            build_cnn(4, seed=args.seed)
        config.update(grid=args.grid)
        rep = dataset_dependency(net, grid_points=args.grid, tol=tol,
                                 seed=args.seed)
        return [rep.to_json()], config
    # args.claim == "glue"
    cover, _ = _witness_cover(args, [[1, 2], [2, 3], [1, 3]])
    g = glue_report(cover, k=args.k, tol=tol, n_samples=args.samples,
                    seed=args.seed)
    kr = kernel_report(cover, k=args.k, seed=args.seed)
    return [g.to_json(), kr.to_json()], config


def _cmd_wl_compare(args) -> tuple[list[dict], dict]:
    g1 = load_graph(_require_file(args.first))
    g2 = load_graph(_require_file(args.second))
    res = compare_graphs(g1, g2, args.depth)
    entry = {"kind": "wl-compare", "depth": args.depth, **res.to_json(),
             "histograms": [[[code, n] for code, n in sorted(c.items())]
                            for c in res.counts]}
    config = {"first": args.first, "second": args.second,
              "depth": args.depth, "seed": args.seed}
    return [entry], config


def _attention_entries(net, seed: int) -> list[dict]:
    n_tokens, d_model = 3, 4
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(net.input_dim)
    stage1 = forward(net, x).stages[1]
    weights = net.layers[1].op.attention_weights(stage1)
    row_gap = float(np.max(np.abs(weights.sum(axis=2) - 1.0)))

    net0 = build_attention(n_tokens, d_model, heads=2, head_dim=2, seed=seed,
                           zero_qk=True)
    w0 = net0.layers[1].op.attention_weights(forward(net0, x).stages[1])
    uniform_gap = float(np.max(np.abs(w0 - 1.0 / n_tokens)))

    coords = positional_encoding(n_tokens, d_model)
    return [
        _axioms_entry(net.sequence),
        {"kind": "softmax-normalization", "heads": 2, "tokens": n_tokens,
         "max_row_gap": row_gap, "ok": row_gap <= 1e-12},
        {"kind": "uniform-attention", "max_gap": uniform_gap,
         "ok": uniform_gap <= 1e-12},
        {"kind": "positional-encoding", "tokens": n_tokens,
         "d_model": d_model,
         "coords": [[float(a), float(b)] for a, b in coords]},
    ]


def _cmd_demo(args) -> tuple[list[dict], dict]:
    tol = _resolved_tol(args)
    seed, samples = args.seed, args.samples
    config = {"name": args.name, "seed": seed, "tol": tol,
              "samples": samples, "p": args.p, "delta": args.delta,
              "grid": args.grid}
    if args.name in ("cnn", "rnn"):
        # the rnn's layer 0 maps 4 singletons to 4 prefixes: not strictly
        # shrinking, so its attack targets the head layer.
        net, attacked = ((build_cnn(4, seed=seed), 0) if args.name == "cnn"
                         else (build_sequential(4, "rnn", seed=seed), 1))
        reports = [_axioms_entry(net.sequence)]
        reports += _factors_entries(net, samples, tol, seed)
        reports.append(adversarial_attack(net, attacked, p=args.p,
                                          delta=args.delta, seed=seed,
                                          tol=tol)[1].to_json())
        reports.append(dataset_dependency(net, grid_points=args.grid,
                                          tol=1e-6, seed=seed).to_json())
        if args.name == "cnn":
            reports.append(pooled_collision(seed=seed).to_json())
        return reports, config
    # args.name == "attention"
    net = build_attention(3, 4, heads=2, head_dim=2, seed=seed)
    reports = _attention_entries(net, seed)
    reports += _factors_entries(net, samples, tol, seed)
    return reports, config


_HANDLERS = {
    "axioms": _cmd_axioms,
    "cohomology": _cmd_cohomology,
    "witness": _cmd_witness,
    "wl-compare": _cmd_wl_compare,
    "demo": _cmd_demo,
}


def _at_least(low, kind=int):
    """An argparse type: a finite ``kind`` value no smaller than ``low``."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if not low <= value < math.inf:
            finite = "" if kind is int else "finite and "
            raise argparse.ArgumentTypeError(
                f"must be {finite}at least {low}, got {value}")
        return value
    return parse


_COUNT = _at_least(1)
_DEPTH = _at_least(0)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for all randomized behavior")
    common.add_argument("--out", type=str, default=None,
                        help="also write the JSON report to this path")
    # only the subcommands that sample and compare take these
    checks = argparse.ArgumentParser(add_help=False, parents=[common])
    checks.add_argument("--tol", type=_at_least(0, float), default=None,
                        help="numerical tolerance (default 1e-9; "
                             "1e-6 for dataset dependency)")
    checks.add_argument("--samples", type=_COUNT, default=100,
                        help="extensional sample count")

    ap = argparse.ArgumentParser(
        prog="coversheaf",
        description="Witness suites for section spaces over covered "
                    "marked spaces")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("axioms", parents=[common],
                       help="axiom table of a staged cover document")
    p.add_argument("--cover", required=True,
                   help="JSON space document; its covers are the internal "
                        "stages (singleton and global stages are added when "
                        "missing)")

    p = sub.add_parser("cohomology", parents=[common],
                       help="cochain ranks and exactness per cover")
    p.add_argument("--cover", required=True, help="JSON space document")
    p.add_argument("--k", type=_COUNT, default=1, help="codomain dimension")
    p.add_argument("--depth", type=_DEPTH, default=1,
                   help="largest cohomology degree reported")

    p = sub.add_parser("witness", parents=[checks],
                       help="run one claim's witness checks")
    p.add_argument("claim", choices=["prop2.8", "thm4.1", "thm4.2",
                                     "thm4.3", "glue"])
    p.add_argument("--cover", default=None,
                   help="JSON space document (first cover is used)")
    p.add_argument("--net", default=None, help="network JSON file")
    p.add_argument("--k", type=_COUNT, default=1, help="codomain dimension")
    p.add_argument("--layer", type=int, default=0,
                   help="attacked layer index (thm4.2)")
    p.add_argument("--p", type=float, default=2.0, help="displacement norm")
    p.add_argument("--delta", type=float, default=1.0,
                   help="required displacement")
    p.add_argument("--grid", type=_COUNT, default=10_000,
                   help="input probe count (thm4.3)")

    p = sub.add_parser("wl-compare", parents=[common],
                       help="compare unfolding-tree code histograms")
    p.add_argument("first", help="graph file (JSON or edge list)")
    p.add_argument("second", help="graph file (JSON or edge list)")
    p.add_argument("--depth", type=_DEPTH, default=4, help="unfolding depth")

    p = sub.add_parser("demo", parents=[checks],
                       help="build an example network and run its suite")
    p.add_argument("name", choices=["cnn", "rnn", "attention"])
    p.add_argument("--p", type=float, default=2.0, help="displacement norm")
    p.add_argument("--delta", type=float, default=1.0,
                   help="required displacement")
    p.add_argument("--grid", type=_COUNT, default=10_000,
                   help="input probe count for dataset dependency")
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        reports, config = _HANDLERS[args.command](args)
    except (ValueError, TypeError, KeyError, OSError,
            json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # 1 would read as a refuted claim
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    doc = _envelope(args.command, config, reports)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if args.out is not None:
        try:
            Path(args.out).write_text(text)
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    return 0 if doc["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
