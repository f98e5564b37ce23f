"""In-memory span tracer that wraps a layer's public entry points from outside.

Nothing in ``src/repro`` is instrumented: :func:`install` replaces each entry
point named in :data:`ENTRY_POINTS` by a wrapper that records a span around
the call.  Spans nest on a per-thread stack, so a layer's *self* time is its
span's duration minus the time covered by the spans it caused (a deduction
query's SMT solve is charged to ``smt.solve``, not to ``deduction``).
Totals stay in memory and are read once, by :meth:`Tracer.report`, when the
traced process ends.
"""

from __future__ import annotations

import importlib
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: (layer, module, attribute path, outcome) for every wrapped entry point.
#: The outcome, when given, tells which results count as the layer's
#: "positive" outcome, for the ratios in :meth:`Tracer.report`.
ENTRY_POINTS = [
    ("api.setup", "repro.api", "SynthesisSession.__init__", None),
    ("frontier", "repro.core.frontier", "SearchKernel.step", None),
    ("deduction", "repro.core.deduction", "DeductionEngine.deduce", lambda result: result is False),
    ("prescreen", "repro.core.propagation", "prescreen_infeasible", lambda result: result is True),
    ("partial_eval", "repro.core.hypothesis", "partial_evaluate", None),
    ("smt.encode", "repro.core.deduction", "DeductionEngine.build_query", None),
    ("smt.solve", "repro.smt.solver", "Solver.check", None),
    ("smt.solve", "repro.smt.solver", "Solver.check_assumptions", None),
    ("smt.lia", "repro.smt.lia", "check_conjunction", None),
    ("smt.sat", "repro.smt.sat", "SatSolver.solve", None),
    ("completion.enum", "repro.core.inhabitation", "enumerate_arguments", None),
    ("completion.batch", "repro.core.deduction", "DeductionEngine.batch_evaluate_fills", None),
    ("oe.key", "repro.core.oe", "OEStore.state_key", None),
    ("oe.admit", "repro.core.oe", "OEStore.admit", lambda result: result is False),
    ("exec", "repro.core.component", "Component.execute", None),
    ("exec", "repro.core.component", "Component.execute_batch", None),
    ("compare", "repro.dataframe.compare", "tables_match_for_synthesis", None),
    ("kb.get", "repro.engine.kb", "KnowledgeBase.get", lambda result: result is not None),
    ("kb.put", "repro.engine.kb", "KnowledgeBase.put", None),
]

#: Entry points that exist only in the service process.
SERVICE_ENTRY_POINTS = [
    ("advance", "repro.service.sessions", "ServiceSession.advance", None),
    ("store.create", "repro.service.sessions", "SessionStore.create", None),
    ("store.resume", "repro.service.sessions", "SessionStore.add_example", None),
    ("store.deserialize", "repro.service.sessions", "SessionStore.deserialize", None),
    # Handler threads block here on ?wait=; kept as its own span so that
    # the wait is not charged to the HTTP layer's self time.
    ("service.wait", "repro.service.sessions", "ServiceSession.wait_for", None),
    ("http", "repro.service.api.http", "SynthesisRequestHandler.do_GET", None),
    ("http", "repro.service.api.http", "SynthesisRequestHandler.do_POST", None),
]

#: Layers whose per-call (duration, self time) pairs are kept for percentiles.
SAMPLED_LAYERS = ("advance", "store.create", "store.resume", "http")


class _Totals:
    __slots__ = ("calls", "self_s", "root_s", "positive", "samples")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        #: Time in spans of this layer that no other span encloses.
        self.root_s = 0.0
        self.positive = 0
        self.samples: List[tuple] = []


class Tracer:
    """Per-layer call counts, self seconds and outcome counts."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[Dict[str, _Totals]] = []
        #: Objects seen by entry-point hooks (sessions, creation times).
        self.sessions: list = []
        self.created_at: Dict[str, float] = {}
        self.first_slice_at: Dict[str, float] = {}

    def _totals(self) -> Dict[str, _Totals]:
        totals = getattr(self._local, "totals", None)
        if totals is None:
            totals = self._local.totals = {}
            self._local.stack = []
            with self._lock:
                self._threads.append(totals)
        return totals

    def wrap(self, layer: str, original: Callable, outcome=None, hook=None) -> Callable:
        sampled = layer in SAMPLED_LAYERS

        def traced(*args, **kwargs):
            totals = self._totals()
            stack = self._local.stack
            stack.append(0.0)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                children = stack.pop()
                entry = totals.get(layer)
                if entry is None:
                    entry = totals[layer] = _Totals()
                if stack:
                    stack[-1] += duration
                else:
                    entry.root_s += duration
                entry.calls += 1
                entry.self_s += duration - children
                if sampled:
                    entry.samples.append((duration, duration - children))
            if outcome is not None and outcome(result):
                entry.positive += 1
            if hook is not None:
                hook(args, result, start)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self, entry_points, hooks: Optional[dict] = None) -> None:
        """Wrap every entry point; module-level functions are also replaced
        in each loaded ``repro`` module that imported them by name."""
        hooks = hooks or {}
        for layer, module_name, path, outcome in entry_points:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr] if owner_name else getattr(module, attr)
            traced = self.wrap(layer, original, outcome, hooks.get(path))
            setattr(owner, attr, traced)
            if owner_name:
                continue
            for name, other in list(sys.modules.items()):
                if other is module or not name.startswith("repro"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, traced)

    # -- hooks ------------------------------------------------------------
    def keep_session(self, args, result, start) -> None:
        with self._lock:
            self.sessions.append(args[0])

    def note_created(self, args, result, start) -> None:
        with self._lock:
            self.created_at[result.id] = perf_counter()

    def note_slice(self, args, result, start) -> None:
        with self._lock:
            self.first_slice_at.setdefault(args[0].id, start)

    def first_slice_waits(self) -> List[float]:
        """Per session, from ``SessionStore.create`` returning to its first
        slice starting (zero when the scheduler got there first)."""
        with self._lock:
            return [
                max(0.0, self.first_slice_at[key] - created)
                for key, created in self.created_at.items()
                if key in self.first_slice_at
            ]

    # -- report -----------------------------------------------------------
    def layers(self) -> Dict[str, dict]:
        """Per-layer totals merged over every thread that recorded spans."""
        merged: Dict[str, _Totals] = {}
        with self._lock:
            threads = list(self._threads)
        for totals in threads:
            for layer, entry in list(totals.items()):
                into = merged.setdefault(layer, _Totals())
                into.calls += entry.calls
                into.self_s += entry.self_s
                into.root_s += entry.root_s
                into.positive += entry.positive
                into.samples.extend(entry.samples)
        return {
            layer: {
                "calls": entry.calls,
                "self_s": entry.self_s,
                "root_s": entry.root_s,
                "positive": entry.positive,
                "samples_s": entry.samples,
            }
            for layer, entry in merged.items()
        }

    def session_totals(self) -> Dict[str, int]:
        """Search counters and cache probes summed over every session seen."""
        totals = dict.fromkeys(
            ("steps", "partial_programs", "formula_hits", "formula_lookups",
             "exec_hits", "exec_lookups"), 0)
        for session in self.sessions:
            counters = session.counters()
            formula = session.context.formula_cache.stats
            execution = session.context.execution.exec_cache
            totals["steps"] += counters["steps"]
            totals["partial_programs"] += counters["partial_programs"]
            totals["formula_hits"] += formula.hits
            totals["formula_lookups"] += formula.lookups
            totals["exec_hits"] += execution.hits
            totals["exec_lookups"] += execution.lookups
        return totals

    def take_report(self) -> dict:
        """The totals so far; recording starts afresh afterwards."""
        report = self.report()
        with self._lock:
            for totals in self._threads:
                totals.clear()
            self.sessions.clear()
            self.created_at.clear()
            self.first_slice_at.clear()
        return report

    def report(self) -> dict:
        return {
            "layers": self.layers(),
            "sessions": self.session_totals(),
            "first_slice_wait_s": self.first_slice_waits(),
        }


def install(service: bool = False) -> Tracer:
    """A tracer wrapped around every entry point of the loaded library."""
    tracer = Tracer()
    hooks = {"SynthesisSession.__init__": tracer.keep_session}
    entry_points = list(ENTRY_POINTS)
    if service:
        entry_points += SERVICE_ENTRY_POINTS
        hooks["SessionStore.create"] = tracer.note_created
        hooks["ServiceSession.advance"] = tracer.note_slice
    tracer.install(entry_points, hooks)
    return tracer
