"""One serial pass of r-suite tasks (the process that synthesizes).

Reads a JSON job on stdin -- ``{"tasks": [...], "max_steps": N, "trace": bool,
"cpus": [...]}`` -- pins itself to ``cpus`` and writes JSON lines to stdout:
``ready`` once imports and suite construction are done (the end of set-up),
then one ``task`` record per task.
Each task is a one-shot ``create_session(...).solve()`` under the default
``SynthesisConfig`` with a deterministic ``max_steps`` budget; the default
wall-clock timeout stays on as a hang guard only.

Before each task the worker collects the garbage earlier tasks left, and
during set-up it solves one fixed small task, so lazy one-time
initialisation counts as set-up: no task pays for another, and the seeded
task order moves no task's time.  After the timed call the returned program
is checked by the independent oracle; the record also carries the host pace
probe timed right before the task (see ``pace.py``), the process's peak RSS
so far and, when traced, the task's span totals.  A job with
``"setup_only": true`` stops after ``ready``.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import pace

ROOT = Path(__file__).resolve().parent.parent

#: Solved once during set-up (see :func:`main`).
WARMUP_TASK = "c1_scores_wide_to_long"

#: The deterministic counters recorded beside each task's timings.
COUNTERS = (
    "steps", "smt_calls", "prescreen_decided", "partial_programs",
    "tables_built", "exec_cache_hits", "oe_merged",
)


def import_library():
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no library sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, not {src}")
    return repro


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def solve_one(task, max_steps: int, tracer) -> dict:
    from repro.api import SynthesisRequest, create_session

    import oracle

    request = SynthesisRequest.from_tables(task.inputs, task.output, max_steps=max_steps)
    started = perf_counter()
    session = create_session(request)
    created = perf_counter()
    result = session.solve()
    finished = perf_counter()
    trace = tracer.take_report() if tracer is not None else None
    counters = session.counters()
    program = result.program
    return {
        "event": "task",
        "name": task.name,
        "status": session.status,
        "solved": bool(result.solved),
        "program": session.candidates[0].program if session.candidates else None,
        "counters": {key: counters[key] for key in COUNTERS},
        "task_s": finished - started,
        "request_s": created - started,
        "oracle_ok": oracle.check(program, task.inputs, task.output) if program else None,
        "peak_rss_mb": peak_rss_mb(),
        "trace": trace,
    }


def main() -> int:
    job = json.load(sys.stdin)
    pace.pin(job["cpus"])
    import_library()
    from repro.benchmarks import r_benchmark_suite

    suite = r_benchmark_suite()
    tasks = [suite.get(name) for name in job["tasks"]]
    # Lazy one-time initialisation is paid here, as part of set-up, and not
    # by whichever task the seed puts first; the warm-up task never changes.
    solve_one(suite.get(WARMUP_TASK), 2000, None)
    tracer = None
    if job.get("trace"):
        import spans

        tracer = spans.install()
    # The pace at the end of set-up, for scaling it (see pace.py); the
    # probe's own time is taken off the set-up time.
    started = perf_counter()
    probe_s = pace.probe()
    emit({"event": "ready", "probe_s": probe_s, "probe_wall_s": perf_counter() - started})
    if job.get("setup_only"):
        return 0
    for task in tasks:
        # Garbage an earlier task left is collected here, untimed, so that
        # no task pays for another and the seeded order moves no task's cost.
        gc.collect()
        probe_s = pace.probe()
        emit(dict(solve_one(task, job["max_steps"], tracer), probe_s=probe_s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
