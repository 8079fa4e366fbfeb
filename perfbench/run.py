"""coversheaf benchmark: end-to-end or per-layer metrics of one workload.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark runs the package from ``src/`` of the checkout it sits in.
This process generates the workload's inputs from the seed and drives a
closed loop, one call at a time, no threads.  Until S seconds have
passed it repeats passes:

* ``--trace 0``: a library pass (child.py in a fresh process, which
  times set-up and each call of the workload's list) followed by the
  workload's CLI subcommands, each as ``python -m coversheaf.cli ...``.
  It prints the median over passes of every end-to-end metric.
* ``--trace 1``: an untraced library pass, then a traced one in which
  child.py wraps the package's public functions (spans.py) and runs the
  CLI subcommands in-process.  It prints per-layer self times and work
  counts, and the tracing overhead.

Every outcome is checked against the value the mathematics predicts
(workloads.py).  Child processes run under an address-space limit and
per-call timeouts; a call that hits either counts as failed and the run
goes on.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import REQUIRED, TARGETS, self_times
from workloads import WORKLOADS, check_cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

HARD_LIMIT_S = 165.0      # a run, hung calls included, ends before 180 s
CALL_TIMEOUT_S = 20.0     # the slowest call today takes 2-3.5 s
CLI_TIMEOUT_S = 30.0
MEMORY_LIMIT = 3 << 30    # RLIMIT_AS of every child; today's peak is ~0.4 GB

_SPAN_METRICS = [
    "linalg.exact_rank", "linalg.nullspace_basis",
    "cech.build_cech_complex", "cech.cech_cohomology",
    "cech.sheaf_axiom_check",
    "sections.evaluate", "sections.compose_coord", "sections.sections_equal",
    "sections.section_from_json",
    "network.forward", "network.InclusionLayer.apply",
    "network.GeneralLayer.apply", "network.network_from_json",
    "network.factors_check",
    "witnesses.adversarial_attack", "witnesses.dataset_dependency",
    "witnesses.glue_inclusion_exclusion", "witnesses.kernel_report",
    "witnesses.surjectivity_witness", "witnesses.locality_witness",
    "graphs.unfolding_codes", "graphs.compare_graphs", "graphs.wl_refine",
    "topology.check_na_axioms", "topology.load_space_document",
    "cli.cohomology", "cli.witness", "cli.wl-compare", "cli.demo",
]
_CALL_COUNTS = ["linalg.exact_rank", "cech.build_cech_complex",
                "sections.evaluate", "sections.compose_coord",
                "sections.sections_equal", "network.forward"]
_WORK_COUNTS = {
    "linalg.exact_rank.nnz_in": "count",
    "linalg.nullspace_basis.cells_in": "count",
    "linalg.nullspace_basis.kernel_dim": "count",
    "cech.coboundary_nnz": "count",
    "cech.cochain_dim": "count",
    "sections.evaluate.rows": "count",
    "network.forward.rows": "count",
    "witnesses.glue_terms": "count",
    "witnesses.multi_mixed_difference.points": "count",
    "graphs.unfolding_code_bytes": "bytes",
}
PER_LAYER = {
    **{f"{name}.s": "s" for name in _SPAN_METRICS},
    **{f"{name}.calls": "count" for name in _CALL_COUNTS},
    **_WORK_COUNTS,
    "cli.import_s": "s",
    "trace.overhead_s": "s",
    "trace.missing": "count",
    "trace.count_mismatches": "count",
}


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Runner:
    """Starts child processes one at a time and reaps each of them."""

    def __init__(self, work: Path):
        self.work = work
        self.env = _child_env()
        self.t0 = time.monotonic()
        self.proc: subprocess.Popen | None = None

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.t0)

    def spawn(self, argv: list[str], name: str, timeout: float):
        """Run argv with stdout to a file; (exit code, seconds, max RSS MiB,
        stdout text).  A child past its timeout is killed (exit -9)."""
        out = self.work / f"{name}.out"
        with open(out, "wb") as stdout, \
                open(self.work / f"{name}.err", "wb") as stderr:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=stdout, stderr=stderr, preexec_fn=_limit_memory)
            old = signal.signal(signal.SIGALRM, self._kill)
            signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.1))
            try:
                _, status, usage = os.wait4(self.proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
            seconds = time.perf_counter() - t0
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc = None
        return (os.waitstatus_to_exitcode(status), seconds,
                usage.ru_maxrss / 1024.0, out.read_text(errors="replace"))

    def _kill(self, signum, frame):
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()

    def stop(self):
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()


class ChildFailed(RuntimeError):
    """A library pass ended without writing its results."""


def library_pass(runner: Runner, spec: dict, name: str) -> dict:
    budget = runner.remaining()
    spec_path = runner.work / f"{name}.spec.json"
    out_path = runner.work / f"{name}.json"
    spec_path.write_text(json.dumps(dict(spec, budget_s=budget)))
    code, _, rss, _ = runner.spawn(
        [sys.executable, str(HERE / "child.py"), str(spec_path),
         str(out_path)], name, budget + 5)
    if code != 0 or not out_path.exists():
        err = (runner.work / f"{name}.err").read_text(errors="replace")
        raise ChildFailed(f"library pass exited {code}: {err.strip()[-2000:]}")
    result = json.loads(out_path.read_text())
    out_path.unlink()
    result["peak_rss_mb"] = rss
    result["wall_s"] = sum(c["s"] for c in result["calls"])
    result["small_s"] = sum(c["s"] for c in result["calls"] if c["small"])
    return result


def cli_pass(runner: Runner, runs: list[dict], index: int) -> list[dict]:
    records = []
    for i, run in enumerate(runs):
        timeout = min(CLI_TIMEOUT_S, runner.remaining())
        code, seconds, _, stdout = runner.spawn(
            [sys.executable, "-m", "coversheaf.cli", *run["args"]],
            f"cli-{index}-{i}", timeout)
        try:
            check_cli(run, code, stdout)
            error = None
        except Exception as e:  # a malformed report is a failed outcome
            error = f"{type(e).__name__}: {e}"
        records.append({"label": " ".join(run["args"][:2]), "s": seconds,
                        "error": error})
    return records


def _failures(records: list[dict]) -> list[str]:
    return [f"{r['label']}: {r['error']}" for r in records if r["error"]]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[dict]) -> dict:
    med = statistics.median
    return {
        "wall_s": _metric(med(p["wall_s"] for p in passes), "s"),
        "small_s": _metric(med(p["small_s"] for p in passes), "s"),
        "cli_s": _metric(med(sum(r["s"] for r in p["cli"]) for p in passes),
                         "s"),
        "peak_rss_mb": _metric(med(p["peak_rss_mb"] for p in passes),
                               "MiB"),
        "setup_s": _metric(med(p["setup_s"] for p in passes), "s"),
    }


def per_layer(workload: str, traced: list[dict], untraced: list[dict]):
    """Per-layer metrics from the traced passes, and a list of problems
    (spans that never fired, counts that did not repeat)."""
    med = statistics.median
    selfs = [self_times(p["trace"]) for p in traced]
    values: dict[str, float] = {}
    problems: list[str] = []
    mismatches = 0
    for name, unit in PER_LAYER.items():
        if name.endswith(".s"):
            values[name] = med(s.get(name[:-2], 0.0) for s in selfs)
            continue
        if name.endswith(".calls"):
            seen = [p["trace"]["calls"].get(name[:-6], 0) for p in traced]
        elif name in _WORK_COUNTS:
            seen = [p["trace"]["counts"].get(name, 0) for p in traced]
        else:
            continue
        if len(set(seen)) > 1:
            mismatches += 1
            problems.append(f"{name} differs between traced passes: {seen}")
        values[name] = seen[0]
    missing = list(traced[0]["trace"]["missing"])
    for name in REQUIRED[workload]:
        fired = (traced[0]["trace"]["calls"].get(name, 0)
                 if name in TARGETS or name.startswith("cli.")
                 else traced[0]["trace"]["counts"].get(name, 0))
        if not fired:
            missing.append(name)
    problems += [f"span or count never fired: {name}" for name in missing]
    values["cli.import_s"] = med(p["import_s"] for p in traced)
    values["trace.overhead_s"] = (med(p["wall_s"] for p in traced)
                                  - med(p["wall_s"] for p in untraced))
    values["trace.missing"] = len(missing)
    values["trace.count_mismatches"] = mismatches
    return {name: _metric(values[name], unit)
            for name, unit in PER_LAYER.items()}, problems


def measure(args, work: Path) -> dict:
    workload = WORKLOADS[args.workload]
    inputs = workload.generate(args.seed)
    paths = {}
    for name, doc in workload.files(inputs).items():
        paths[name] = str(work / name)
        Path(paths[name]).write_text(json.dumps(doc))
    (work / "inputs.json").write_text(json.dumps(inputs))
    cli_runs = workload.cli_runs(inputs, paths)
    spec = {"workload": workload.name, "inputs": str(work / "inputs.json"),
            "src": str(SRC), "call_timeout_s": CALL_TIMEOUT_S,
            "cli_runs": cli_runs}

    runner = Runner(work)
    try:
        # unmeasured warm-up: bytecode compilation and file cache
        code, _, _, _ = runner.spawn(
            [sys.executable, "-c", "import coversheaf.cli"], "warmup",
            CLI_TIMEOUT_S)
        if code != 0:
            err = (work / "warmup.err").read_text(errors="replace")
            raise ChildFailed(f"import coversheaf.cli failed: {err.strip()}")
        t_start = time.monotonic()
        passes, traced, crashed = [], [], []
        last = 0.0
        for index in itertools.count():
            # a pass starts only if at least half of it fits in the window
            if index and (time.monotonic() - t_start + last / 2 >= args.seconds
                          or runner.remaining() <= 2 * last + 5):
                break
            t_pass = time.monotonic()
            try:
                p = library_pass(runner, dict(spec, trace=False),
                                 f"pass-{index}")
                if args.trace:
                    traced.append(library_pass(
                        runner, dict(spec, trace=True), f"traced-{index}"))
                else:
                    p["cli"] = cli_pass(runner, cli_runs, index)
                passes.append(p)
            except ChildFailed as e:
                crashed.append({"label": f"pass {index}", "error": str(e)})
            last = time.monotonic() - t_pass
    finally:
        runner.stop()
    if not passes or (args.trace and not traced):
        raise ChildFailed(crashed[-1]["error"] if crashed else "no pass ran")

    records = list(crashed)
    for p in passes + traced:
        records += p["calls"] + p.get("cli", [])
    failures = _failures(records)
    if args.trace:
        metrics, problems = per_layer(workload.name, traced, passes)
    else:
        metrics, problems = end_to_end(passes), []
    print(f"workload {workload.name} seed {args.seed}: {len(passes)} passes"
          + (f", {len(traced)} traced" if args.trace else ""))
    for line in failures + problems:
        print(f"  {line}")
    print(f"  failed_frac {len(failures) / len(records):.4f} "
          f"({len(failures)} of {len(records)} outcomes)")
    return {"correct": not failures, "attempted": len(records),
            "failed": len(failures), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "coversheaf" / "__init__.py").is_file():
        print(f"error: no coversheaf sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = (ROOT / ".perfbench-work"
            / f"{args.workload}-{args.seed}-{os.getpid()}")
    work.mkdir(parents=True)
    try:
        result = measure(args, work)
    except ChildFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
