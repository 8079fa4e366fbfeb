"""Golden reports: CLI output that must not change byte for byte.

Each file under ``tests/golden/`` holds the stdout of one command line,
with the timestamp and the fixture directory scrubbed.  These reports
hold integers, strings and floats that are exact by construction (the
0.0 and 1.0 of ``witness prop2.8`` are products and sums of 0s and 1s,
or exact rational results), so no BLAS rounding can move them.  In the
thm4.1 reports, ``input_gap`` is a difference of two seeded draws and
``output_gap`` comes from max-pooling one multiset of them.  The
thm4.2 reports on ``sumpool.json`` hold gaps and displacements computed
from seeded draws by IEEE additions, 1x1 products by 1.0 and ``pow``,
none of which depends on BLAS blocking.

The ``build_*`` files pin the builders' weights: the JSON of three
networks and the attention block's phi and Q/K/Z matrices.  A reordered
RNG draw changes them.  These values are seeded draws divided by
``math.sqrt``, so they do not depend on BLAS either.

The ``demo_*`` files hold the stdout of each script under ``demos/``.
Most of their floats are exact or rounded to six places; the residues
printed in scientific notation (a max deviation of 8.88e-16, an output
change of 2.22e-16) are IEEE rounding of small products, so a BLAS
that orders those sums differently would move them.
Regenerate a file only with a change that means to alter its report,
and name that change in CHANGES.md.
"""

import json
import re
import runpy
from pathlib import Path

import numpy as np
import pytest

from coversheaf.cli import main
from coversheaf.network import (build_attention, build_cnn, build_sequential,
                                network_to_json)
from coversheaf.sections import section_to_json

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"
DEMOS = HERE.parent / "demos"
GOLDEN = HERE / "golden"

CASES = {
    "axioms_triangle": ["axioms", "--cover", "triangle.json"],
    "cohomology_two_disjoint_k2": ["cohomology", "--cover",
                                   "two_disjoint.json", "--k", "2"],
    "cohomology_triangle_depth3": ["cohomology", "--cover", "triangle.json",
                                   "--depth", "3"],
    "wl_c6_2c3_depth8": ["wl-compare", "c6.json", "2c3.json",
                         "--depth", "8"],
    "wl_p3_c3_depth2": ["wl-compare", "p3.json", "c3.json", "--depth", "2"],
    # labels 2 and 10 sort one way as numbers and the other as bytes, so
    # children ordered by class id instead of by code would show here
    "wl_labeled_depth3": ["wl-compare", "labeled_a.json", "labeled_b.json",
                          "--depth", "3"],
    "witness_prop2.8": ["witness", "prop2.8"],
    # locality's zero-pad restrictions and the max-pooled collision
    "witness_thm4.1": ["witness", "thm4.1"],
    "witness_thm4.1_triangle_k2": ["witness", "thm4.1", "--cover",
                                   "triangle.json", "--k", "2"],
    "witness_thm4.2_sumpool": ["witness", "thm4.2", "--net", "sumpool.json",
                               "--p", "2"],
    "witness_thm4.2_sumpool_p3.5_delta4": ["witness", "thm4.2", "--net",
                                           "sumpool.json", "--p", "3.5",
                                           "--delta", "4"],
    # every phi in the node schema, so the generic JSON reader loads it
    "witness_thm4.2_sumpool_nodes": ["witness", "thm4.2", "--net",
                                     "sumpool_nodes.json", "--p", "2"],
}


def _argv(args: list[str]) -> list[str]:
    return [str(FIXTURES / a) if a.endswith(".json") else a for a in args]


def _scrub(text: str) -> str:
    text = re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', text)
    return text.replace(str(FIXTURES), "fixtures")


def report(capsys, args: list[str]) -> str:
    code = main(_argv(args))
    assert code == 0, args
    return _scrub(capsys.readouterr().out)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(capsys, name):
    want = (GOLDEN / f"{name}.json").read_text()
    assert report(capsys, CASES[name]) == want


def _attention_weights() -> dict:
    net = build_attention(3, 4, heads=2, head_dim=2, seed=0)
    op = net.layers[1].op
    return {"phi": [section_to_json(s) for s in net.layers[0].phi],
            **{w: np.asarray(getattr(op, w)).tolist()
               for w in ("w_q", "w_k", "w_z")}}


BUILDERS = {
    "build_cnn_4_seed0": lambda: network_to_json(build_cnn(4, seed=0)),
    "build_cnn_4_conv_maxpool_fc3_seed7": lambda: network_to_json(build_cnn(
        4, plan=[{"kind": "conv", "channels": 2},
                 {"kind": "pool", "mode": "max", "block": 2},
                 {"kind": "fc", "out_dim": 3, "activation": "tanh"}],
        seed=7)),
    "build_sequential_4_rnn_seed0": lambda: network_to_json(
        build_sequential(4, "rnn", seed=0)),
    "build_attention_3x4_heads2_seed0": _attention_weights,
}


def builder_text(name: str) -> str:
    return json.dumps(BUILDERS[name](), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builder_weights_match_golden(name):
    assert builder_text(name) == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_output_matches_golden(capsys, name):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / f"demo_{name}.txt").read_text()
