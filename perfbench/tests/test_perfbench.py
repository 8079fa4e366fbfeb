"""Tests of the benchmark itself, at each workload's smallest rung.

They run every workload's generator, library calls, CLI subcommands and
outcome checks in-process, traced, on two seeds; check that the work
counters repeat exactly and that every required span fires; and check
that the benchmark prints every metric of BENCHMARK.json by name with
its unit.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import coversheaf  # noqa: E402
import coversheaf.cli  # noqa: E402
import run  # noqa: E402
from child import run_pass  # noqa: E402
from workloads import WORKLOADS, random_graph  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _traced_pass(tmp_path, workload, seed):
    w = WORKLOADS[workload]
    inputs = w.generate(seed, smallest=True)
    paths = {}
    for name, doc in w.files(inputs).items():
        paths[name] = str(tmp_path / name)
        Path(paths[name]).write_text(json.dumps(doc))
    result = run_pass(coversheaf, w, inputs, w.cli_runs(inputs, paths),
                      trace=True, deadline=time.monotonic() + 120,
                      call_timeout=60)
    result["import_s"] = 0.1
    result["wall_s"] = sum(c["s"] for c in result["calls"])
    return result


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smallest_rung_outcomes_counts_and_spans(tmp_path, workload):
    first = _traced_pass(tmp_path, workload, seed=0)
    again = _traced_pass(tmp_path, workload, seed=0)
    other = _traced_pass(tmp_path, workload, seed=1)
    for result in (first, again, other):
        errors = [r for r in result["calls"] + result["cli"] if r["error"]]
        assert not errors
        assert result["cli"], "every workload runs CLI subcommands"
    assert first["trace"]["calls"] == again["trace"]["calls"]
    assert first["trace"]["counts"] == again["trace"]["counts"]

    metrics, problems = run.per_layer(workload, [first, again], [first])
    assert problems == []
    assert metrics["trace.missing"]["value"] == 0
    assert metrics["trace.count_mismatches"]["value"] == 0
    assert {n: m["unit"] for n, m in metrics.items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def test_generators_repeat_for_a_seed_and_vary_across_seeds():
    for name, w in WORKLOADS.items():
        assert w.generate(3) == w.generate(3), name
        assert w.generate(3) != w.generate(4), name


def test_random_graph_has_the_degree_sequence():
    degrees = [3, 5] * 10
    edges = random_graph(degrees, random.Random(0))
    seen = [0] * len(degrees)
    for u, v in edges:
        assert u != v
        seen[u] += 1
        seen[v] += 1
    assert seen == degrees
    assert len({tuple(e) for e in edges}) == len(edges)


def test_end_to_end_metrics_are_named_with_units():
    passes = [{"wall_s": 2.0 + i, "small_s": 0.5, "peak_rss_mb": 100.0,
               "setup_s": 0.3, "cli": [{"s": 0.4}, {"s": 0.5}]}
              for i in range(3)]
    metrics = run.end_to_end(passes)
    assert {n: m["unit"] for n, m in metrics.items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert metrics["wall_s"]["value"] == 3.0
    assert metrics["cli_s"]["value"] == pytest.approx(0.9)


def test_benchmark_file_matches_the_runner():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        run.PER_LAYER


def test_missing_sources_exit_without_a_result(tmp_path, capsys,
                                               monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "enumerate", "--seed", "0",
                     "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_call_timeout_counts_as_failed_outcome():
    from child import _guarded
    out, error, seconds = _guarded(lambda: time.sleep(5),
                                   time.monotonic() + 60, call_timeout=0.2)
    assert error == "timeout" and seconds < 2


def test_children_run_under_memory_limit_and_timeout(tmp_path):
    runner = run.Runner(tmp_path)
    # np.empty reserves address space without touching it
    code, _, _, _ = runner.spawn(
        [sys.executable, "-c", "import numpy; numpy.empty(4 << 30, 'u1')"],
        "memory", timeout=60)
    assert code == 1
    assert "MemoryError" in (tmp_path / "memory.err").read_text()
    code, seconds, _, _ = runner.spawn(
        [sys.executable, "-c", "import time; time.sleep(30)"], "sleep",
        timeout=0.5)
    assert code == -9 and seconds < 10


def test_self_time_excludes_children_and_counting_overhead():
    from spans import OVERHEAD, self_times
    dump = {"names": ["outer", "inner", OVERHEAD],
            "spans": [[0, 1, 2], [0.0, 2.0, 6.0], [10.0, 5.0, 7.0],
                      [-1, 0, 0]]}
    times = self_times(dump)
    assert times["outer"] == 6.0
    assert times["inner"] == 3.0
