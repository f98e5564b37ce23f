"""Process-parallel and interleaved synthesis drivers.

Two scheduling layers live here:

* :class:`KernelInterleaver` -- cooperative, single-process scheduling of
  drivers: objects with ``advance(max_steps) -> bool``, in practice
  :class:`~repro.api.SynthesisSession` objects, stepped round-robin in
  bounded slices.  Each session runs inside its own
  :class:`~repro.engine.context.TaskContext` (private intern pool, formula
  cache and execution counters) and is charged *active* time only, so its
  search -- programs **and** counters -- is byte-identical to a dedicated
  process running the task alone, while a fast task no longer waits behind
  a slow one.
* :class:`ParallelRunner` -- process-level fan-out: benchmark x
  configuration pairs are split into batches, each worker process
  interleaves the sessions of its batch.  ``--jobs N`` therefore interleaves
  kernel steps instead of whole tasks.

Workers are plain top-level functions so they pickle under every start
method.  Conflict-driven lemma state never crosses task boundaries: lemmas
rest on one example's formulas and live on the per-kernel deduction engine,
so every task mines its own lemmas from scratch and a ``--jobs N`` suite run
is bit-identical to the serial one -- including the lemma-prune, SMT-call,
OE-merge and frontier counters on each outcome.  (The one timing-sensitive
edge: a task whose solve time approaches the per-task budget may flip to a
timeout when workers oversubscribe the CPUs, and a timed-out task's counters
depend on where the budget cut the search.)
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..api import DEFAULT_SLICE_STEPS, SynthesisRequest, create_session
from ..benchmarks.runner import BenchmarkOutcome, SuiteRun, outcome_from_result
from ..benchmarks.suite import Benchmark, BenchmarkSuite
from ..core.synthesizer import SynthesisConfig

#: A unit of benchmark work: (benchmark, configuration, label, library).
BenchmarkPair = Tuple[Benchmark, SynthesisConfig, str, object]

#: Batches dealt to each pool worker over a run (smaller batches improve
#: progress granularity, larger ones improve interleaving fairness).
BATCHES_PER_WORKER = 4


# ----------------------------------------------------------------------
# Worker-pool plumbing
# ----------------------------------------------------------------------
def default_job_count() -> int:
    """Worker count used when ``jobs`` is not given (one per CPU)."""
    return max(1, os.cpu_count() or 1)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Validate an explicit worker count, or default to one per CPU."""
    if jobs is None:
        return default_job_count()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def init_worker_kb(kb_path: str) -> None:
    """Pool initializer: open this worker's own warm-start knowledge base.

    sqlite connections must not cross ``fork``/``spawn`` boundaries, so each
    worker process opens the shared file itself (WAL journaling arbitrates
    the concurrent writers).  The handle is installed as the process default,
    which freshly created :class:`~repro.engine.context.TaskContext` objects
    inherit.
    """
    from .kb import KnowledgeBase, set_default_kb

    set_default_kb(KnowledgeBase(kb_path))


def map_indexed(
    worker,
    tasks: Sequence[tuple],
    jobs: int,
    on_result=None,
    initializer=None,
    initargs=(),
) -> Dict[int, object]:
    """Run *tasks* through *worker*, serially or over a pool.

    Each worker call returns a list of ``(index, value)`` pairs (one pair
    for a single task, several for a batch).  Results are collected into an
    index-keyed dict so callers can restore input order regardless of
    completion order.  ``on_result(index, value)`` fires in the parent as
    results arrive.
    """
    collected: Dict[int, object] = {}

    def record(results) -> None:
        for index, value in results:
            collected[index] = value
            if on_result is not None:
                on_result(index, value)

    if jobs == 1 or len(tasks) <= 1:
        for task in tasks:
            record(worker(task))
        return collected
    with multiprocessing.Pool(
        processes=min(jobs, len(tasks)), initializer=initializer, initargs=initargs
    ) as pool:
        for results in pool.imap_unordered(worker, tasks):
            record(results)
    return collected


# ----------------------------------------------------------------------
# KernelInterleaver: cooperative stepping of many sessions in one process
# ----------------------------------------------------------------------
class KernelInterleaver:
    """Steps many drivers round-robin inside one process.

    A driver is any object with ``advance(max_steps) -> bool`` returning
    ``True`` when its task is finished -- a
    :class:`~repro.api.SynthesisSession`, or the service's session wrapper.
    The driver owns its kernel, context and budget accounting; the
    interleaver contributes only the fair round-robin slicing.  Drivers are
    added with :meth:`add_driver` and driven by :meth:`run` -- or, for
    long-lived callers like the synthesis service, by repeated :meth:`pump`
    calls: one round-robin pass per call, with new drivers allowed to join
    the rotation at any time (``add_driver`` is safe to call from other
    threads while one thread pumps).
    """

    def __init__(self, slice_steps: int = DEFAULT_SLICE_STEPS) -> None:
        if slice_steps < 1:
            raise ValueError(f"slice_steps must be >= 1, got {slice_steps}")
        self.slice_steps = slice_steps
        self._pending: deque = deque()
        self._lock = threading.Lock()

    @property
    def unfinished(self) -> int:
        """Drivers still waiting for (more) pump passes."""
        return len(self._pending)

    def add_driver(self, driver) -> None:
        """Enroll *driver* in the rotation.

        A driver leaves the rotation, and the interleaver drops its
        reference, as soon as its ``advance`` reports completion: a
        long-lived service re-enrolls resumed sessions with a fresh
        registration, so the interleaver never pins a finished session's
        kernel, OE store or tables in memory.
        """
        with self._lock:
            self._pending.append(driver)

    def pump(self) -> int:
        """One round-robin pass over the unfinished drivers.

        Every driver pending at the start of the pass gets one slice;
        finished drivers leave the rotation.  Returns the number of drivers
        still unfinished.  Only one thread may pump at a time; concurrent
        :meth:`add_driver` calls join the next pass.
        """
        with self._lock:
            rotation = len(self._pending)
        for _ in range(rotation):
            with self._lock:
                if not self._pending:
                    break
                driver = self._pending.popleft()
            if not driver.advance(self.slice_steps):
                with self._lock:
                    self._pending.append(driver)
        return self.unfinished

    def run(self) -> None:
        """Pump until every enrolled driver has finished."""
        while self.pump():
            pass


class _FinishingSession:
    """A session driver that reports its core result once it finishes."""

    def __init__(self, index: int, session, on_finish: Callable[[int, object], None]) -> None:
        self.index = index
        self.session = session
        self.on_finish = on_finish

    def advance(self, max_steps: int) -> bool:
        if not self.session.advance(max_steps):
            return False
        self.on_finish(self.index, self.session.finalize())
        # Free the search state and the session's caches (its context holds
        # the task's whole intern pool and formula cache); only the result
        # is kept.
        self.session = None
        return True


def interleave_benchmarks(
    pairs: Sequence[BenchmarkPair],
    on_result: Optional[Callable[[int, BenchmarkOutcome], None]] = None,
) -> List[BenchmarkOutcome]:
    """Run benchmark x configuration pairs through one interleaver.

    The single-process backend of the ``--jobs`` harness: one session per
    pair, each finalized when its driver reports finished.  Outcomes are
    byte-identical to :func:`repro.benchmarks.runner.run_benchmark` on every
    deterministic field, in input order.
    """
    outcomes: Dict[int, BenchmarkOutcome] = {}

    def finish(index: int, result) -> None:
        benchmark, config, label, _library = pairs[index]
        outcomes[index] = outcome_from_result(benchmark, config, result, label=label)
        if on_result is not None:
            on_result(index, outcomes[index])

    interleaver = KernelInterleaver()
    for index, (benchmark, config, _label, library) in enumerate(pairs):
        request = SynthesisRequest.from_tables(
            benchmark.inputs, benchmark.output, config=config
        )
        session = create_session(request, library=library)
        interleaver.add_driver(_FinishingSession(index, session, finish))
    interleaver.run()
    return [outcomes[index] for index in range(len(pairs))]


# ----------------------------------------------------------------------
# Worker functions (top-level so they pickle under the spawn start method)
# ----------------------------------------------------------------------
def _run_pair_batch(task):
    """Interleave one batch of indexed benchmark pairs inside a worker."""
    indices, pairs = task
    return list(zip(indices, interleave_benchmarks(pairs)))


def _round_robin_batches(count: int, batches: int) -> List[List[int]]:
    """Deterministically deal ``count`` indices into ``batches`` groups."""
    groups: List[List[int]] = [[] for _ in range(max(1, min(batches, count)))]
    for index in range(count):
        groups[index % len(groups)].append(index)
    return [group for group in groups if group]


# ----------------------------------------------------------------------
# ParallelRunner: benchmark x configuration fan-out
# ----------------------------------------------------------------------
@dataclass
class ParallelRunner:
    """Runs benchmark x configuration pairs over a process pool.

    ``jobs=None`` uses one worker per CPU; ``jobs=1`` runs one in-process
    interleaver over every pair (no pool overhead), so callers can thread a
    single ``--jobs`` value through unconditionally.  Each pool worker
    receives a *batch* of pairs and steps their sessions round-robin under
    per-task :class:`TaskContext` isolation, so a fast task never queues
    behind a slow one inside a worker.  Deterministic outcome fields are
    byte-identical to the serial loop.
    """

    jobs: Optional[int] = None
    #: Path to a warm-start knowledge base file (:mod:`repro.engine.kb`).
    #: Each worker process opens its own connection to it; ``None`` runs
    #: cold.  The KB only changes how much work each task performs, never
    #: its programs or deterministic counters, so ``--jobs`` equivalence
    #: holds with or without it.
    kb_path: Optional[str] = None

    def __post_init__(self) -> None:
        self.jobs = resolve_jobs(self.jobs)

    # ------------------------------------------------------------------
    def map_benchmarks(
        self,
        pairs: Sequence[BenchmarkPair],
        progress: Optional[Callable[[BenchmarkOutcome], None]] = None,
    ) -> List[BenchmarkOutcome]:
        """Run every (benchmark, config, label, library) pair; results in input order.

        ``progress`` is invoked in the parent process as outcomes arrive:
        per task with ``jobs=1`` (one in-process interleaver drives every
        session and reports each finish immediately), per completed batch
        under a pool (a worker's outcomes only cross the process boundary
        together).
        """
        on_result = None if progress is None else (lambda _index, outcome: progress(outcome))
        initializer, initargs = None, ()
        if self.kb_path is not None:
            initializer, initargs = init_worker_kb, (self.kb_path,)
            # Serial runs (and pool-skipping fallbacks for tiny inputs)
            # execute in this process, where no initializer hook fires:
            # install the process-default KB here unless the caller (the
            # CLI, a service) already did.
            from .kb import current_kb

            if current_kb() is None:
                init_worker_kb(self.kb_path)
        if self.jobs == 1:
            # One interleaver over everything: maximal fairness and
            # per-task progress (no batch granularity in-process).
            return interleave_benchmarks(pairs, on_result=on_result)
        groups = _round_robin_batches(len(pairs), self.jobs * BATCHES_PER_WORKER)
        batch_tasks = [
            (indices, [pairs[index] for index in indices]) for indices in groups
        ]
        collected = map_indexed(
            _run_pair_batch, batch_tasks, self.jobs,
            on_result=on_result, initializer=initializer, initargs=initargs,
        )
        return [collected[index] for index in range(len(pairs))]

    def run_suite(
        self,
        suite: BenchmarkSuite,
        config_factory: Callable[[Optional[float]], SynthesisConfig],
        timeout: float = 20.0,
        label: Optional[str] = None,
        library=None,
        progress: Optional[Callable[[BenchmarkOutcome], None]] = None,
    ) -> SuiteRun:
        """Parallel drop-in for :func:`repro.benchmarks.runner.run_suite`."""
        config = config_factory(timeout)
        resolved = label or config.describe()
        outcomes = self.map_benchmarks(
            [(benchmark, config, resolved, library) for benchmark in suite],
            progress=progress,
        )
        return SuiteRun(configuration=resolved, outcomes=outcomes)

    def run_matrix(
        self,
        suite: BenchmarkSuite,
        configurations: Mapping[str, Callable[[Optional[float]], SynthesisConfig]],
        timeout: float = 20.0,
        library=None,
        progress: Optional[Callable[[BenchmarkOutcome], None]] = None,
    ) -> Dict[str, SuiteRun]:
        """Fan the whole benchmark x configuration grid into one pool.

        Scheduling all cells together keeps every worker busy even when one
        configuration is much slower than the others (the per-configuration
        loop of the serial harness would serialise on it).
        """
        pairs: List[BenchmarkPair] = []
        for label, factory in configurations.items():
            config = factory(timeout)
            pairs.extend((benchmark, config, label, library) for benchmark in suite)
        outcomes = self.map_benchmarks(pairs, progress=progress)
        runs = {label: SuiteRun(configuration=label) for label in configurations}
        for outcome in outcomes:
            runs[outcome.configuration].outcomes.append(outcome)
        return runs
