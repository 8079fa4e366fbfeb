"""One pass over a workload's library call list, in a fresh process.

Usage: python3 child.py SPEC_JSON OUT_JSON

The spec names the workload, the generated inputs file, the run's
remaining time and whether to trace.  The child times ``import
coversheaf`` plus building the workload's package objects (set-up),
then runs each call once, closed loop, under a per-call timeout, and
checks its outcome.  A traced pass also runs the workload's CLI
subcommands in-process through ``coversheaf.cli.main`` so their spans
nest.  Results go to OUT_JSON.
"""

from __future__ import annotations

import gc
import io
import json
import signal
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

from workloads import WORKLOADS, Mismatch, check_cli


class CallTimeout(Exception):
    """A call outlived its share of the run."""


def _alarm(signum, frame):
    raise CallTimeout()


def _guarded(fn, deadline: float, call_timeout: float):
    """Run ``fn()`` under a wall-clock timeout: (result, error, seconds)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return None, "not run: run deadline passed", 0.0
    out, error = None, None
    old = signal.signal(signal.SIGALRM, _alarm)
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, min(call_timeout, remaining))
            out = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CallTimeout:
        error = "timeout"
    except MemoryError:
        error = "memory guard"
    except Exception as e:  # any failure of the program is an outcome
        error = f"raised {type(e).__name__}: {e}"
    seconds = time.perf_counter() - t0
    signal.signal(signal.SIGALRM, old)
    return out, error, seconds


def _checked(check, out, error):
    if error is not None:
        return error
    try:
        check(out)
    except Mismatch as e:
        return f"mismatch: {e}"
    except Exception as e:  # a malformed result is a mismatch too
        return f"mismatch: {type(e).__name__}: {e}"
    return None


def run_calls(calls, deadline: float, call_timeout: float) -> list[dict]:
    records = []
    for call in calls:
        gc.collect()
        out, error, seconds = _guarded(call.fn, deadline, call_timeout)
        records.append({"label": call.label, "small": call.small,
                        "s": seconds,
                        "error": _checked(call.check, out, error)})
        del out
    return records


def run_cli_inprocess(cli, runs, tracer, deadline, call_timeout) -> list[dict]:
    records = []
    for run in runs:
        stdout = io.StringIO()

        def invoke():
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                try:
                    return cli.main(run["args"])
                except SystemExit as e:
                    return e.code

        span = tracer.span(f"cli.{run['sub']}") if tracer else nullcontext()
        with span:
            code, error, seconds = _guarded(invoke, deadline, call_timeout)
        records.append({"label": " ".join(run["args"][:2]), "s": seconds,
                        "error": _checked(
                            lambda c: check_cli(run, c, stdout.getvalue()),
                            code, error)})
    return records


def run_pass(cs, workload, inputs: dict, cli_runs: list[dict], trace: bool,
             deadline: float, call_timeout: float) -> dict:
    """Build the workload's package objects and run its calls once; a
    traced pass also runs its CLI subcommands in-process."""
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        t0 = time.perf_counter()
        calls = workload.calls(cs, inputs)
        result = {"build_s": time.perf_counter() - t0,
                  "calls": run_calls(calls, deadline, call_timeout)}
        if tracer is not None:
            result["cli"] = run_cli_inprocess(cs.cli, cli_runs, tracer,
                                              deadline, call_timeout)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        result["trace"] = tracer.dump()
    return result


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    deadline = time.monotonic() + spec["budget_s"]
    inputs = json.loads(Path(spec["inputs"]).read_text())

    t0 = time.perf_counter()
    import coversheaf
    import coversheaf.cli
    import_s = time.perf_counter() - t0
    src = Path(spec["src"]).resolve()
    if src not in Path(coversheaf.__file__).resolve().parents:
        print(f"coversheaf imported from {coversheaf.__file__}, not {src}",
              file=sys.stderr)
        return 3

    result = run_pass(coversheaf, WORKLOADS[spec["workload"]], inputs,
                      spec["cli_runs"], spec["trace"], deadline,
                      spec["call_timeout_s"])
    result["import_s"] = import_s
    result["setup_s"] = import_s + result.pop("build_s")
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
