"""The repository's benchmark, timed end to end and layer by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload suite-head --seed 1 --seconds 30 --trace 0

Workloads (task lists and step budgets are frozen in ``tasks.json``):

``suite-head``
    Serial one-shot ``create_session(...).solve()`` over the 62 r-suite tasks
    the default configuration solves within 2,000 kernel steps; one fresh
    worker process per pass, closed loop, one client.
``suite-tail``
    The other 18 r-suite tasks the same way, all under one step budget.  Not
    listed in ``BENCHMARK.json``: its runs are too long and too noisy for
    the benchmark's run budget, so it is run by hand for per-task rows of
    the deduction- and SMT-heavy tasks.
``service-mix``
    ``repro-bench serve`` in its own process with a fresh ``--kb`` and
    ``--persist-dir`` per pass; two HTTP clients in a closed loop.  Each of
    20 head tasks is requested twice per pass (first seen, then repeated),
    and a seeded share of sessions re-posts its example: the same number in
    every pass, each session in turn.

``--seed`` fixes task order, repeat pairing and which sessions re-post; the
program sees only the generated requests.  Passes repeat until the next one
would overrun ``--seconds``, with at least three untraced passes; timings
are medians and 90th percentiles (Harrell-Davis estimates) of the samples
pooled over the passes, and ``wall_s`` is the median pass.  Every timing is
scaled to a reference host speed by the pace probe timed beside it
(``pace.py``): the host's own speed swings by up to 2x for minutes at a
time, which no median over one run removes.  The unscaled figures are
printed beside the scaled ones, which are the ones in the JSON object.
With ``--trace 0`` the last line of standard
output is a JSON object carrying the end-to-end metrics; with ``--trace 1``
one untraced pass is followed by traced passes and the object carries the
per-layer metrics.  Every returned program is re-run by the independent
oracle (``oracle.py``); a wrong or missing program, an HTTP error, a
hang-guard expiry or a nondeterministic program or counter fails the run,
which then exits with status 1.  Per-task rows (program text, deterministic
counters, timings) are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import os
import queue
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PLAN_PATH = HERE / "tasks.json"
OUT = ROOT / ".perfbench_out"

#: Latest moment (seconds after start) a worker or server may still run;
#: anything alive then is killed and counted as a hang-guard expiry.
HARD_STOP_S = 165.0

#: Untraced runs time every task or session in at least this many passes,
#: spread over the run, so that no burst of host noise covers all samples.
MIN_PASSES = 3

#: Setup is measured on every pass; extra set-up-only starts top the
#: sample up to this count so that its median is steady.
SETUP_SAMPLES = 5

#: The process that synthesizes (worker or server) and the pace sampler run
#: on PROGRAM_CPUS, this process (the load generator) on the others.
PROGRAM_CPUS, OWN_CPUS = pace.split_cpus()


def percentile(values, fraction):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def quantile(values, fraction):
    """Harrell-Davis estimate of a quantile of a non-empty sample.

    A weighted mean of all order statistics, with Beta((n + 1) p,
    (n + 1)(1 - p)) weights, in place of the one order statistic a
    nearest-rank percentile reads.  The timings of a run are a mixture of
    tasks whose times sit apart (first-seen and repeated sessions, a few
    slow tasks above the 90th percentile), so a single order statistic
    there jumps between tasks from run to run.  Over the same five-run sets,
    the 90th percentiles of task times spread a third to a half less.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = fraction * (n + 1), (1 - fraction) * (n + 1)
    cdf = [_beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * value for i, value in enumerate(ordered))


def _beta_cdf(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1) / (a + b + 2):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def _beta_fraction(a, b, x):
    """Lentz's continued fraction for the incomplete beta function."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    value = d
    for m in range(1, 10000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            value *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return value


class Run:
    """Outcome bookkeeping shared by every workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = perf_counter()
        self.attempted = 0
        self.failures: list = []
        self.records: list = []
        self.dir = OUT / f"{workload}-{seed}-{int(trace)}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self._seen: dict = {}
        self._store = None

    def elapsed(self) -> float:
        return perf_counter() - self.started

    def hard_left(self) -> float:
        return max(1.0, HARD_STOP_S - self.elapsed())

    def fail(self, what: str, why: str) -> None:
        self.failures.append(f"{what}: {why}")

    def observe(self, name: str, fingerprint) -> None:
        """Flag a task whose program or counters differ between runs of this code."""
        previous = self._seen.setdefault(name, fingerprint)
        if previous != fingerprint:
            self.fail(name, f"nondeterministic: {previous} then {fingerprint}")

    def _store_path(self) -> Path:
        """Per-code-version record of fingerprints and oracle-checked programs."""
        digest = hashlib.blake2b(digest_size=12)
        for path in sorted((ROOT / "src").rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
        digest.update(PLAN_PATH.read_bytes())
        return OUT / "determinism" / f"{digest.hexdigest()}.json"

    def verified_programs(self) -> dict:
        """Task -> program text the oracle accepted, for this code version."""
        if self._store is None:
            path = self._store_path()
            self._store = json.loads(path.read_text()) if path.exists() else {}
        return self._store.setdefault("verified", {})

    def save_records(self) -> None:
        """Compare fingerprints with earlier runs of the same code, then store them."""
        self.verified_programs()
        recorded = self._store.setdefault(self.workload, {})
        for name, fingerprint in self._seen.items():
            fingerprint = json.loads(json.dumps(fingerprint))
            if recorded.setdefault(name, fingerprint) != fingerprint:
                self.fail(name, f"nondeterministic across runs: {recorded[name]} then {fingerprint}")
        path = self._store_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self._store, sort_keys=True))
        os.replace(tmp, path)

    def next_pass_fits(self, pass_walls) -> bool:
        if not self.trace and len(pass_walls) < MIN_PASSES:
            return True
        mean = sum(pass_walls) / len(pass_walls)
        return self.elapsed() + mean <= self.seconds


# ----------------------------------------------------------------------
# Suite workloads: one worker process per pass
# ----------------------------------------------------------------------
def start_watchdog(run: Run, proc) -> threading.Timer:
    timer = threading.Timer(run.hard_left(), proc.kill)
    timer.daemon = True
    timer.start()
    return timer


def setup_scale(before_s: float, after_s: float) -> float:
    """Pace scale for a set-up: the mean of probes on the program's CPU just
    before and after it."""
    return pace.scale((before_s + after_s) / 2)


def worker_pass(run: Run, tasks, max_steps, trace=False, setup_only=False):
    """Start a worker, feed it one pass; return (setup_s, its pace scale, task records)."""
    job = {
        "tasks": tasks, "max_steps": max_steps, "trace": trace, "setup_only": setup_only,
        "cpus": PROGRAM_CPUS,
    }
    stderr_path = run.dir / "worker.stderr"
    with open(stderr_path, "w") as stderr:
        probe_s = pace.probe_on(PROGRAM_CPUS)
        started = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")], cwd=ROOT, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr,
        )
        timer = start_watchdog(run, proc)
        try:
            proc.stdin.write(json.dumps(job))
            proc.stdin.close()
            first = proc.stdout.readline()
            setup_s = perf_counter() - started
            lines = proc.stdout.read().splitlines()
            proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    ready = json.loads(first) if first else {}
    if ready.get("event") != "ready":
        sys.stderr.write(stderr_path.read_text()[-4000:])
        raise SystemExit(f"worker failed during set-up (exit {proc.returncode})")
    setup_s -= ready["probe_wall_s"]
    setup_factor = setup_scale(probe_s, ready["probe_s"])
    records = [json.loads(line) for line in lines]
    if not setup_only and (len(records) != len(tasks) or proc.returncode != 0):
        sys.stderr.write(stderr_path.read_text()[-4000:])
        run.fail("worker", f"pass did not finish (exit {proc.returncode}); hang guard")
    return setup_s, setup_factor, records


def judge_suite_task(run: Run, record: dict, max_steps: int, expected_steps) -> None:
    name = record["name"]
    run.attempted += 1
    steps = record["counters"]["steps"]
    expected = expected_steps is not None and expected_steps <= max_steps
    if record["status"] == "timeout" and steps < max_steps:
        run.fail(name, "hang guard expired before the step budget")
    elif record["solved"] and record["oracle_ok"] is not True:
        run.fail(name, f"oracle rejected {record['program']!r}")
    elif record["solved"]:
        run.verified_programs()[name] = record["program"]
    elif expected and not record["solved"]:
        run.fail(name, f"unsolved within {max_steps} steps (solved in {expected_steps} before)")
    run.observe(name, [record["program"], record["counters"]])


def suite_workload(run: Run, spec: dict):
    names = [task["name"] for task in spec["tasks"]]
    expected = {task["name"]: task["steps"] for task in spec["tasks"]}
    max_steps = spec["max_steps"]
    rng = random.Random(run.seed)
    result = new_result(service=False)

    def one_pass(order, traced):
        setup_s, factor, records = worker_pass(run, order, max_steps, trace=traced)
        add_sample(result, "setup_s", setup_s, factor)
        for record in records:
            judge_suite_task(run, record, max_steps, expected[record["name"]])
            run.records.append(record)
            trace = record.pop("trace")
            if trace:
                result["traces"].append(trace)
        if records:
            result["peak_rss_mb"].append(max(record.pop("peak_rss_mb") for record in records))
        return records

    order = rng.sample(names, len(names))
    if run.trace:
        # The untraced reference pass for trace.overhead, same task order.
        result["untraced_wall"] = sum(record["task_s"] for record in one_pass(order, False))
    while True:
        records = one_pass(order, run.trace)
        if len(records) != len(names):
            break
        factors = [pace.scale(record["probe_s"]) for record in records]
        wall = sum(record["task_s"] for record in records)
        scaled = sum(record["task_s"] * factor for record, factor in zip(records, factors))
        add_sample(result, "wall_s", wall, scaled / wall)
        for record, factor in zip(records, factors):
            add_sample(result, "task_s", record["task_s"], factor)
            add_sample(result, "first_program_s", record["task_s"], factor)
            add_sample(result, "request_s", record["request_s"], factor)
        if not run.next_pass_fits(result["raw"]["wall_s"]):
            break
        order = rng.sample(names, len(names))
    while len(result["raw"]["setup_s"]) < SETUP_SAMPLES:
        setup_s, factor, _ = worker_pass(run, names, max_steps, setup_only=True)
        add_sample(result, "setup_s", setup_s, factor)
    return result


def new_result(service: bool) -> dict:
    """The samples of one run's measured passes (the timings pooled over
    the passes), with set-up times and peak RSS per pass.  Each timing is
    kept twice: as measured ("raw") and scaled to the reference pace."""
    def samples():
        return {"setup_s": [], "wall_s": [], "task_s": [], "first_program_s": [], "request_s": []}

    return {
        "service": service, "raw": samples(), "scaled": samples(),
        "peak_rss_mb": [], "traces": [], "untraced_wall": None,
    }


def add_sample(result: dict, metric: str, seconds: float, factor: float) -> None:
    result["raw"][metric].append(seconds)
    result["scaled"][metric].append(seconds * factor)


# ----------------------------------------------------------------------
# service-mix: the HTTP service in its own process, two closed-loop clients
# ----------------------------------------------------------------------
class Server:
    """One ``repro-bench serve`` process with a fresh KB and persist dir."""

    def __init__(self, run: Run, index: int, traced: bool) -> None:
        self.dir = run.dir / f"server-{index}"
        self.dir.mkdir()
        self.report_path = self.dir / "report.json"
        self.stderr = open(self.dir / "stderr", "w")
        probe_s = pace.probe_on(PROGRAM_CPUS)
        started = perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-u", str(HERE / "serve.py"),
                "--trace", str(int(traced)), "--out", str(self.report_path),
                "--cpus", ",".join(map(str, PROGRAM_CPUS)),
                "--host", "127.0.0.1", "--port", "0",
                "--kb", str(self.dir / "kb.sqlite"), "--persist-dir", str(self.dir / "persist"),
                # Deployment settings above the offered load: a 429 is a fault.
                "--rate", "100000", "--burst", "100000",
            ],
            cwd=ROOT, text=True, stdout=subprocess.PIPE, stderr=self.stderr,
        )
        self.timer = start_watchdog(run, self.proc)
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            sys.stderr.write((self.dir / "stderr").read_text()[-4000:])
            raise SystemExit("synthesis service failed to start")
        self.port = int(line.rsplit(":", 1)[1].strip().rstrip("/"))
        while True:
            conn = self.connect()
            try:
                if request(conn, "GET", "/healthz")[0] == 200:
                    break
            except OSError:
                pass
            finally:
                conn.close()
            if self.proc.poll() is not None:
                self.stop()
                raise SystemExit("synthesis service exited during set-up")
            time.sleep(0.005)
        self.setup_s = perf_counter() - started
        self.setup_factor = setup_scale(probe_s, pace.probe_on(PROGRAM_CPUS))

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def stop(self) -> dict:
        """SIGINT (the CLI's clean shutdown), then read the server's report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.timer.cancel()
        self.stderr.close()
        if self.proc.returncode != 0 or not self.report_path.exists():
            return None
        return json.loads(self.report_path.read_text())


class Sampler:
    """The pace sampler process (``pace.py``), run for the length of a pass."""

    def __init__(self, run: Run, index: int) -> None:
        self.path = run.dir / f"pace-{index}.txt"
        self.out = open(self.path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "pace.py"), *map(str, PROGRAM_CPUS)], cwd=ROOT, text=True,
            stdin=subprocess.PIPE, stdout=self.out,
        )
        self.timer = start_watchdog(run, self.proc)

    def stop(self) -> list:
        """Close its stdin, which stops it; return its (moment, probe_s) samples."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.timer.cancel()
        self.out.close()
        rows = [line.split() for line in self.path.read_text().splitlines()]
        return [(float(row[0]), float(row[1])) for row in rows if len(row) == 2]


def request(conn, method, path, payload=None):
    body = None if payload is None else json.dumps(payload)
    headers = {} if body is None else {"Content-Type": "application/json"}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, json.loads(response.read() or b"null")


def repost_groups(rng: random.Random, tasks, repost_share: float) -> list:
    """Seeded groups of (task, kind) sessions that re-post their example, one
    group per pass in turn.

    The sessions, in order of their task's steps, are cut into strata of
    ``1 / repost_share`` neighbours, and each group takes one session of
    every stratum at random.  So every pass re-posts as many sessions of
    each cost (re-posts are the slowest requests: their mix sets
    request_ms.p90), and over ``len(groups)`` passes every session re-posts
    once."""
    ordered = sorted(tasks, key=lambda task: task["steps"])
    sessions = [(task["name"], kind) for task in ordered for kind in ("first", "repeat")]
    width = max(1, round(1 / repost_share))
    groups = [set() for _ in range(width)]
    for start in range(0, len(sessions), width):
        stratum = sessions[start:start + width]
        rng.shuffle(stratum)
        for group, session in zip(groups, stratum):
            group.add(session)
    return groups


def service_schedule(rng: random.Random, names, reposting: set):
    """Each task twice, first seen before repeated, in seeded order; the
    sessions in ``reposting`` re-post their own example."""
    first = rng.sample(names, len(names))
    repeat = rng.sample(names, len(names))
    seen, order = set(), []
    while first or repeat:
        take_repeat = repeat and repeat[0] in seen and (not first or rng.random() < 0.5)
        name = repeat.pop(0) if take_repeat else first.pop(0)
        kind = "repeat" if name in seen else "first"
        seen.add(name)
        order.append((name, kind, (name, kind) in reposting))
    return order


def client_loop(server: Server, work: queue.Queue, payloads, results, lock):
    conn = server.connect()
    while True:
        try:
            name, kind, repost = work.get_nowait()
        except queue.Empty:
            conn.close()
            return
        record = {"name": name, "kind": kind, "repost": repost, "request_s": {}}
        try:
            started = record["started"] = perf_counter()
            status, state = request(conn, "POST", "/v1/sessions", payloads[name])
            record["request_s"]["create"] = perf_counter() - started
            if status != 201:
                raise RuntimeError(f"create answered {status}: {state}")
            path = f"/v1/sessions/{state['id']}"
            status, state = request(conn, "GET", f"{path}/programs?count=1&wait=120")
            record["first_program_s"] = perf_counter() - started
            if status != 200 or not state["candidates"]:
                raise RuntimeError(f"no program ({status}, {state.get('status')})")
            if repost:
                sent = perf_counter()
                status, _ = request(conn, "POST", f"{path}/examples", payloads[name]["examples"][0])
                record["request_s"]["examples"] = perf_counter() - sent
                if status != 200:
                    raise RuntimeError(f"examples answered {status}")
            sent = perf_counter()
            status, state = request(conn, "GET", path)
            finished = record["finished"] = perf_counter()
            record["request_s"]["state"] = finished - sent
            record["task_s"] = finished - started
            if status != 200 or state["status"] != "done":
                raise RuntimeError(f"state answered {status}, status {state.get('status')}")
            record["program"] = state["candidates"][0]["program"]
        except (OSError, http.client.HTTPException, RuntimeError, ValueError, KeyError) as error:
            record["error"] = repr(error)
            conn.close()
            conn = server.connect()
        with lock:
            results.append(record)


def service_pass(run: Run, index, traced, schedule, payloads, clients):
    """One server, one schedule.  Returns the set-up time and the pass wall,
    each with its pace scale, the session records (each with its ``scale``)
    and the server's report."""
    server = Server(run, index, traced)
    work = queue.Queue()
    for item in schedule:
        work.put(item)
    results, lock = [], threading.Lock()
    threads = [
        threading.Thread(target=client_loop, args=(server, work, payloads, results, lock))
        for _ in range(clients)
    ]
    sampler = Sampler(run, index)
    try:
        started = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        finished = perf_counter()
    finally:
        samples = sampler.stop()
        report = server.stop()
    if not samples:
        raise SystemExit("the pace sampler gave no samples")
    if report is None:
        run.fail("server", f"did not shut down cleanly (exit {server.proc.returncode})")
    for record in results:
        run.attempted += 1
        if "error" in record:
            run.fail(record["name"], record["error"])
        else:
            record["scale"] = pace.window_scale(samples, record["started"], record["finished"])
    wall = (finished - started, pace.window_scale(samples, started, finished))
    return (server.setup_s, server.setup_factor), wall, results, report


def service_workload(run: Run, spec: dict):
    sys.path.insert(0, str(HERE))
    from worker import import_library

    import_library()
    from repro.api import SynthesisRequest
    from repro.benchmarks import r_benchmark_suite

    suite = r_benchmark_suite()
    names = [task["name"] for task in spec["tasks"]]
    payloads = {}
    for name in names:
        task = suite.get(name)
        request_payload = SynthesisRequest.from_tables(
            task.inputs, task.output, max_steps=spec["max_steps"]
        ).to_json()
        payloads[name] = request_payload
    rng = random.Random(run.seed)
    result = new_result(service=True)
    results = []
    index = 0

    def one_pass(schedule, traced):
        nonlocal index
        index += 1
        setup, wall, records, report = service_pass(
            run, index, traced, schedule, payloads, spec["clients"]
        )
        add_sample(result, "setup_s", *setup)
        results.extend(records)
        if report is not None:
            result["peak_rss_mb"].append(report["peak_rss_mb"])
            if report["trace"]:
                result["traces"].append(report["trace"])
        return wall, records

    groups = repost_groups(rng, spec["tasks"], spec["repost_share"])
    schedule = service_schedule(rng, names, groups[0])
    if run.trace:
        (result["untraced_wall"], _), _ = one_pass(schedule, False)
    while True:
        wall, records = one_pass(schedule, run.trace)
        add_sample(result, "wall_s", *wall)
        for record in records:
            if "error" not in record:
                add_sample(result, "task_s", record["task_s"], record["scale"])
                add_sample(result, "first_program_s", record["first_program_s"], record["scale"])
                for seconds in record["request_s"].values():
                    add_sample(result, "request_s", seconds, record["scale"])
        if not run.next_pass_fits(result["raw"]["wall_s"]):
            break
        schedule = service_schedule(rng, names, groups[len(result["raw"]["wall_s"]) % len(groups)])
    while len(result["raw"]["setup_s"]) < SETUP_SAMPLES:
        index += 1
        spare = Server(run, index, False)
        spare.stop()
        add_sample(result, "setup_s", spare.setup_s, spare.setup_factor)
    # The oracle: each served program must be the one the one-shot path
    # returns for its task, and that program must pass the reference check.
    served = {}
    for record in results:
        if "program" in record:
            served.setdefault(record["name"], set()).add(record["program"])
    verified = run.verified_programs()
    unverified = sorted(name for name in served if name not in verified)
    if unverified:
        _, _, checked = worker_pass(run, unverified, spec["max_steps"])
        for record in checked:
            if record["oracle_ok"] is True:
                verified[record["name"]] = record["program"]
            else:
                run.fail(record["name"], f"oracle rejected {record['program']!r}")
    for name, programs in served.items():
        if programs != {verified.get(name)}:
            run.fail(name, f"service returned {sorted(programs)}, one-shot {verified.get(name)!r}")
        run.observe(name, sorted(programs))
    run.records += results
    return result


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end_metrics(samples: dict, peak_rss_mb: list) -> dict:
    """Medians and 90th percentiles of the pooled samples (``quantile``)."""
    walls, task_s = samples["wall_s"], samples["task_s"]
    first_s, request_s = samples["first_program_s"], samples["request_s"]
    return {
        "setup_s": (quantile(samples["setup_s"], 0.5), "s", len(samples["setup_s"])),
        "wall_s": (quantile(walls, 0.5), "s", len(walls)),
        "task_s.p50": (quantile(task_s, 0.5), "s", len(task_s)),
        "task_s.p90": (quantile(task_s, 0.9), "s", len(task_s)),
        "first_program_s.p50": (quantile(first_s, 0.5), "s", len(first_s)),
        "first_program_s.p90": (quantile(first_s, 0.9), "s", len(first_s)),
        "sessions_per_s": (len(task_s) / sum(walls), "1/s", len(walls)),
        "request_ms.p50": (1000 * quantile(request_s, 0.5), "ms", len(request_s)),
        "request_ms.p90": (1000 * quantile(request_s, 0.9), "ms", len(request_s)),
        "peak_rss_mb": (statistics.median(peak_rss_mb), "MB", len(peak_rss_mb)),
    }


#: Layers reported as self time over traced wall time, with the spans they
#: sum.  On service-mix, spans of the handler threads overlap the scheduler
#: thread's, and store spans include waits for the store's work lock, so
#: there the shares can add up past 1.
SHARE_LAYERS = {
    "api.setup": ["api.setup"], "frontier": ["frontier"], "deduction": ["deduction"],
    "prescreen": ["prescreen"], "partial_eval": ["partial_eval"],
    "smt.encode": ["smt.encode"], "smt.solve": ["smt.solve"], "smt.lia": ["smt.lia"],
    "smt.sat": ["smt.sat"], "completion.enum": ["completion.enum"],
    "completion.batch": ["completion.batch"], "oe": ["oe.key", "oe.admit"], "exec": ["exec"],
    "compare": ["compare"], "kb": ["kb.get", "kb.put"], "advance": ["advance"],
    "store": ["store.create", "store.resume", "store.deserialize"], "http": ["http"],
}


def layer_metrics(result: dict) -> dict:
    """Per-layer figures from the traced passes of one run."""
    layers, sessions, waits = {}, {}, []
    empty = {"calls": 0, "self_s": 0.0, "root_s": 0.0, "positive": 0, "samples_s": []}
    for trace in result["traces"]:
        for name, entry in trace["layers"].items():
            into = layers.setdefault(name, dict(empty, samples_s=[]))
            into["calls"] += entry["calls"]
            into["self_s"] += entry["self_s"]
            into["root_s"] += entry["root_s"]
            into["positive"] += entry["positive"]
            into["samples_s"] += entry["samples_s"]
        for key, value in trace["sessions"].items():
            sessions[key] = sessions.get(key, 0) + value
        waits += trace["first_slice_wait_s"]

    def calls(*names):
        return sum(layers.get(name, empty)["calls"] for name in names)

    def self_s(*names):
        return sum(layers.get(name, empty)["self_s"] for name in names)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def ms(values, fraction):
        return 1000 * percentile(values, fraction) if values else 0.0

    def durations(name, index):
        return [sample[index] for sample in layers.get(name, empty)["samples_s"]]

    admit = layers.get("oe.admit", empty)
    wall = sum(result["raw"]["wall_s"])
    metrics = {
        "api.setup.calls": (calls("api.setup"), "count"),
        "api.setup_s": (self_s("api.setup"), "s"),
        "frontier.steps": (sessions.get("steps", 0), "count"),
        "frontier.self_s": (self_s("frontier"), "s"),
        "deduction.calls": (calls("deduction"), "count"),
        "deduction.self_s": (self_s("deduction"), "s"),
        "deduction.reject_ratio": (ratio(layers.get("deduction", empty)["positive"], calls("deduction")), "ratio"),
        "prescreen.calls": (calls("prescreen"), "count"),
        "prescreen_s": (self_s("prescreen"), "s"),
        "prescreen.decided_ratio": (ratio(layers.get("prescreen", empty)["positive"], calls("prescreen")), "ratio"),
        "partial_eval.calls": (calls("partial_eval"), "count"),
        "partial_eval_s": (self_s("partial_eval"), "s"),
        "smt.calls": (calls("smt.solve"), "count"),
        "smt.encode_s": (self_s("smt.encode"), "s"),
        "smt.solve_s": (self_s("smt.solve"), "s"),
        "smt.lia_s": (self_s("smt.lia"), "s"),
        "smt.sat_s": (self_s("smt.sat"), "s"),
        "smt.formula_cache_hit_ratio": (
            ratio(sessions.get("formula_hits", 0), sessions.get("formula_lookups", 0)), "ratio"),
        "completion.partial_programs": (sessions.get("partial_programs", 0), "count"),
        "completion.enum_s": (self_s("completion.enum"), "s"),
        "completion.batch_s": (self_s("completion.batch"), "s"),
        "oe_s": (self_s("oe.key", "oe.admit"), "s"),
        "oe.merge_ratio": (ratio(admit["positive"], admit["calls"]), "ratio"),
        "exec.calls": (calls("exec"), "count"),
        "exec_s": (self_s("exec"), "s"),
        "exec.cache_hit_ratio": (
            ratio(sessions.get("exec_hits", 0), sessions.get("exec_lookups", 0)), "ratio"),
        "compare.calls": (calls("compare"), "count"),
        "compare_s": (self_s("compare"), "s"),
        "kb.get_s": (self_s("kb.get"), "s"),
        "kb.put_s": (self_s("kb.put"), "s"),
        "kb.hit_ratio": (ratio(layers.get("kb.get", empty)["positive"], calls("kb.get")), "ratio"),
        "advance_ms.p50": (ms(durations("advance", 0), 0.5), "ms"),
        "advance_ms.p99": (ms(durations("advance", 0), 0.99), "ms"),
        "scheduler.wait_ms.p50": (ms(waits, 0.5), "ms"),
        "store.create_ms.p50": (ms(durations("store.create", 0), 0.5), "ms"),
        "store.resume_ms.p50": (ms(durations("store.resume", 0), 0.5), "ms"),
        "http.self_ms.p50": (ms(durations("http", 1), 0.5), "ms"),
    }
    for layer, names in SHARE_LAYERS.items():
        metrics[f"share.{layer}"] = (ratio(self_s(*names), wall), "share")
    # The synthesizing thread's wall not covered by any span: the worker's
    # main thread, or the service's scheduler thread (whose spans are its
    # advance slices; handler threads overlap it).
    if result["service"]:
        covered = layers.get("advance", empty)["root_s"]
    else:
        covered = sum(entry["root_s"] for entry in layers.values())
    metrics["untraced.share"] = (max(0.0, 1.0 - ratio(covered, wall)), "share")
    untraced = result["untraced_wall"]
    overhead = result["raw"]["wall_s"][0] / untraced - 1.0 if untraced else 0.0
    metrics["trace.overhead"] = (overhead, "ratio")
    return {name: (value, unit, None) for name, (value, unit) in metrics.items()}


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    plan = json.loads(PLAN_PATH.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(plan["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no library sources under {ROOT / 'src'}")

    pace.pin(OWN_CPUS)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    spec = plan["workloads"][args.workload]
    try:
        if args.workload == "service-mix":
            result = service_workload(run, spec)
        else:
            result = suite_workload(run, spec)
        run.save_records()
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    if not result["raw"]["task_s"] or not result["peak_rss_mb"]:
        run.fail(args.workload, "no pass completed")
        print("\n".join(run.failures), file=sys.stderr)
        return 1

    # Per-task rows: program text, deterministic counters and timings.
    rows = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    rows.write_text(json.dumps(run.records, indent=1))
    if run.trace:
        metrics, unscaled = layer_metrics(result), {}
    else:
        metrics = end_to_end_metrics(result["scaled"], result["peak_rss_mb"])
        unscaled = end_to_end_metrics(result["raw"], result["peak_rss_mb"])
    attempted = max(1, run.attempted)
    failed = min(len(run.failures), attempted)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(result['raw']['wall_s'])}  attempted {run.attempted}")
    for name, (value, unit, samples) in metrics.items():
        count = f"  (n={samples})" if samples else ""
        measured = unscaled.get(name, (value,))[0]
        as_measured = f"  (unscaled {measured:.6f})" if measured != value else ""
        print(f"  {name:32s} {value:14.6f} {unit}{count}{as_measured}")
    print(f"  {'fail_rate':32s} {failed / attempted:14.6f} share")
    for failure in run.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
