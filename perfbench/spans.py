"""Outside-in tracing of coversheaf's public functions.

A traced pass replaces each function in TARGETS at every module global
and class attribute where the package looks it up: the package imports
with ``from .x import y``, so ``exact_rank`` is patched both in
``coversheaf._linalg`` and in ``coversheaf.cech``.  Each wrapper records
a span (name, start, end, parent) and its work counters; spans stay in
memory until the pass ends.  Self time is a span's duration minus the
time its child spans cover.  Counting runs after the wrapped call, inside
an overhead span of its own, so it is charged to no layer.

Metric names use ``linalg`` for the ``_linalg`` module, because a metric
name must start with a letter or a digit.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

OVERHEAD = "trace.overhead"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(y) -> int:
    shape = np.shape(y)
    return 1 if len(shape) == 1 else int(shape[0])


def _exact_rank(args, kwargs, out):
    return {"nnz_in": int(np.count_nonzero(_arg(args, kwargs, 0, "matrix")))}


def _nullspace(args, kwargs, out):
    rows, cols = np.shape(_arg(args, kwargs, 0, "matrix"))
    return {"cells_in": rows * cols, "kernel_dim": len(out)}


def _cech_complex(args, kwargs, out):
    return {"cech.coboundary_nnz": sum(int(np.count_nonzero(d))
                                       for d in out.coboundaries),
            "cech.cochain_dim": sum(out.dims)}


def _evaluate(args, kwargs, out):
    return {"rows": _rows(_arg(args, kwargs, 1, "y"))}


def _forward(args, kwargs, out):
    return {"rows": _rows(_arg(args, kwargs, 1, "x"))}


def _glue(args, kwargs, out):
    body = out.body
    terms = len(body.children) if type(body).__name__ == "Sum" else 1
    return {"witnesses.glue_terms": terms}


def _mixed(args, kwargs, out):
    return {"points": 2 ** len(_arg(args, kwargs, 1, "slots"))}


def _codes(args, kwargs, out):
    return {"graphs.unfolding_code_bytes": sum(len(c) for c in out)}


# metric prefix -> (module, attribute, counter).  Counter keys without a
# dot are suffixed to the prefix.
TARGETS = {
    "linalg.exact_rank": ("coversheaf._linalg", "exact_rank", _exact_rank),
    "linalg.nullspace_basis": ("coversheaf._linalg", "nullspace_basis",
                               _nullspace),
    "cech.build_cech_complex": ("coversheaf.cech", "build_cech_complex",
                                _cech_complex),
    "cech.cech_cohomology": ("coversheaf.cech", "cech_cohomology", None),
    "cech.sheaf_axiom_check": ("coversheaf.cech", "sheaf_axiom_check", None),
    "sections.evaluate": ("coversheaf.sections", "evaluate", _evaluate),
    "sections.compose_coord": ("coversheaf.sections", "compose_coord", None),
    "sections.sections_equal": ("coversheaf.sections", "sections_equal",
                                None),
    "sections.section_from_json": ("coversheaf.sections",
                                   "section_from_json", None),
    "network.forward": ("coversheaf.network", "forward", _forward),
    "network.InclusionLayer.apply": ("coversheaf.network",
                                     "InclusionLayer.apply", None),
    "network.GeneralLayer.apply": ("coversheaf.network",
                                   "GeneralLayer.apply", None),
    "network.network_from_json": ("coversheaf.network", "network_from_json",
                                  None),
    "network.factors_check": ("coversheaf.network", "factors_check", None),
    "witnesses.adversarial_attack": ("coversheaf.witnesses",
                                     "adversarial_attack", None),
    "witnesses.dataset_dependency": ("coversheaf.witnesses",
                                     "dataset_dependency", None),
    "witnesses.glue_inclusion_exclusion": ("coversheaf.witnesses",
                                           "glue_inclusion_exclusion", _glue),
    "witnesses.kernel_report": ("coversheaf.witnesses", "kernel_report",
                                None),
    "witnesses.surjectivity_witness": ("coversheaf.witnesses",
                                       "surjectivity_witness", None),
    "witnesses.locality_witness": ("coversheaf.witnesses", "locality_witness",
                                   None),
    "witnesses.multi_mixed_difference": ("coversheaf.witnesses",
                                         "multi_mixed_difference", _mixed),
    "graphs.unfolding_codes": ("coversheaf.graphs", "unfolding_codes",
                               _codes),
    "graphs.compare_graphs": ("coversheaf.graphs", "compare_graphs", None),
    "graphs.wl_refine": ("coversheaf.graphs", "wl_refine", None),
    "topology.check_na_axioms": ("coversheaf.topology", "check_na_axioms",
                                 None),
    "topology.load_space_document": ("coversheaf.topology",
                                     "load_space_document", None),
}

# Spans and counters that must fire on each workload.  A refactor that
# stops calling through a traced name shows up here as missing.
REQUIRED = {
    "cech-exact": (
        "linalg.exact_rank", "linalg.exact_rank.nnz_in",
        "cech.build_cech_complex", "cech.coboundary_nnz", "cech.cochain_dim",
        "cech.cech_cohomology", "cech.sheaf_axiom_check",
        "topology.load_space_document", "cli.cohomology"),
    "attack-forward": (
        "linalg.nullspace_basis", "linalg.nullspace_basis.cells_in",
        "linalg.nullspace_basis.kernel_dim",
        "sections.evaluate", "sections.evaluate.rows",
        "sections.section_from_json",
        "network.forward", "network.forward.rows",
        "network.InclusionLayer.apply", "network.GeneralLayer.apply",
        "network.network_from_json", "network.factors_check",
        "witnesses.adversarial_attack", "witnesses.dataset_dependency",
        "topology.check_na_axioms", "cli.witness", "cli.demo"),
    "enumerate": (
        "sections.evaluate", "sections.compose_coord",
        "sections.sections_equal", "witnesses.glue_inclusion_exclusion",
        "witnesses.glue_terms", "witnesses.kernel_report",
        "witnesses.surjectivity_witness", "witnesses.locality_witness",
        "witnesses.multi_mixed_difference.points",
        "graphs.unfolding_codes", "graphs.unfolding_code_bytes",
        "graphs.compare_graphs", "graphs.wl_refine",
        "cli.wl-compare", "cli.witness"),
}


class Tracer:
    """Span and counter recorder for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span; parent is an index into these lists or -1
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack = [-1]
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._restore: list[tuple] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(name)
        self.calls[name] += 1
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            i = self._open(name)
            self.calls[name] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if counter is not None:
                j = self._open(OVERHEAD)
                for key, n in counter(args, kwargs, out).items():
                    self.counts[key if "." in key else f"{name}.{key}"] += n
                self._close(j)
            return out
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Patch every traced function of the imported coversheaf modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "coversheaf" or n.startswith("coversheaf.")]
        for name, (modname, attr, counter) in TARGETS.items():
            owner = sys.modules.get(modname)
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, method, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, counter)
            if cls_name:
                self._restore.append((owner, method, original))
                setattr(owner, method, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, value in reversed(self._restore):
            setattr(obj, key, value)
        self._restore.clear()

    def dump(self) -> dict:
        """Spans, call counts and counters, as written out by a pass."""
        return {"names": self.names,
                "spans": [self.name_id, self.start, self.end, self.parent],
                "calls": dict(self.calls), "counts": dict(self.counts),
                "missing": self.missing}


def self_times(dump: dict) -> dict[str, float]:
    """Total self time per span name: duration minus child-span time."""
    names = dump["names"]
    name_id, start, end, parent = dump["spans"]
    child_time = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child_time[p] += end[i] - start[i]
    out: dict[str, float] = {}
    for i, nid in enumerate(name_id):
        name = names[nid]
        out[name] = out.get(name, 0.0) + (end[i] - start[i] - child_time[i])
    return out
