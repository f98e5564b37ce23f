"""Tests for the process-parallel drivers (repro.engine.parallel)."""

import dataclasses
import gc
import weakref

import pytest

from repro.api import SynthesisRequest, create_session
from repro.baselines import FIGURE16_CONFIGS
from repro.benchmarks import r_benchmark_suite, run_figure16, run_suite
from repro.benchmarks.runner import outcome_from_result
from repro.core import SynthesisConfig
from repro.engine import (
    KernelInterleaver,
    ParallelRunner,
    TaskContext,
    interleave_benchmarks,
)

#: Fast representative benchmarks (each solves in well under a second).
FAST_NAMES = [
    "c1_prices_long_to_wide",
    "c2_orders_count_by_region",
    "c5_join_filter_large_orders",
]

TIMEOUT = 30.0


def fast_suite():
    return r_benchmark_suite().subset(names=FAST_NAMES)


#: Outcome fields that are wall-clock timings, not deterministic counters.
TIMING_FIELDS = ("elapsed", "smt_time", "exec_time", "verb_times")


def deterministic_fields(outcome):
    fields = dataclasses.asdict(outcome)
    for name in TIMING_FIELDS:
        del fields[name]
    return fields


def outcome_fingerprint(run):
    return [
        (o.benchmark, o.category, o.configuration, o.solved, o.program_size)
        for o in run.outcomes
    ]


class TestParallelRunner:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=0)

    def test_rejects_negative_jobs(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=-2)

    def test_default_jobs_is_at_least_one(self):
        assert ParallelRunner().jobs >= 1

    def test_pool_results_come_back_in_input_order(self):
        # Reversed, so the pool's round-robin batches and the input order
        # disagree; outcomes must still line up with the input pairs.
        config = SynthesisConfig(timeout=TIMEOUT)
        suite = list(reversed(list(fast_suite())))
        pairs = [(b, config, "spec2", None) for b in suite]
        pooled = ParallelRunner(jobs=2).map_benchmarks(pairs)
        dedicated = [
            outcome_from_result(
                b,
                config,
                create_session(
                    SynthesisRequest.from_tables(b.inputs, b.output, config=config)
                ).solve(),
                label="spec2",
            )
            for b in suite
        ]
        assert [o.benchmark for o in pooled] == [b.name for b in suite]
        assert [deterministic_fields(o) for o in pooled] == [
            deterministic_fields(o) for o in dedicated
        ]

    def test_pool_is_deterministic_across_runs(self):
        config = SynthesisConfig(timeout=TIMEOUT)
        pairs = [(b, config, "spec2", None) for b in fast_suite()]
        first = ParallelRunner(jobs=2).map_benchmarks(pairs)
        second = ParallelRunner(jobs=2).map_benchmarks(pairs)
        assert [deterministic_fields(o) for o in first] == [
            deterministic_fields(o) for o in second
        ]

    def test_empty_pairs_return_no_outcomes(self):
        assert ParallelRunner(jobs=1).map_benchmarks([]) == []
        assert ParallelRunner(jobs=2).map_benchmarks([]) == []

    def test_parallel_suite_matches_serial(self):
        suite = fast_suite()
        serial = run_suite(suite, FIGURE16_CONFIGS["spec2"], timeout=TIMEOUT, label="spec2")
        parallel = ParallelRunner(jobs=2).run_suite(
            suite, FIGURE16_CONFIGS["spec2"], timeout=TIMEOUT, label="spec2"
        )
        assert outcome_fingerprint(parallel) == outcome_fingerprint(serial)

    def test_run_suite_jobs_parameter_routes_to_parallel_runner(self):
        suite = fast_suite()
        serial = run_suite(suite, FIGURE16_CONFIGS["spec2"], timeout=TIMEOUT, label="spec2")
        threaded = run_suite(
            suite, FIGURE16_CONFIGS["spec2"], timeout=TIMEOUT, label="spec2", jobs=2
        )
        assert outcome_fingerprint(threaded) == outcome_fingerprint(serial)

    def test_run_matrix_matches_serial_figure16(self):
        suite = fast_suite()
        serial = run_figure16(timeout=TIMEOUT, suite=suite)
        parallel = run_figure16(timeout=TIMEOUT, suite=suite, jobs=2)
        assert set(parallel) == set(serial)
        for label in serial:
            assert outcome_fingerprint(parallel[label]) == outcome_fingerprint(serial[label])

    def test_progress_callback_sees_every_outcome(self):
        suite = fast_suite()
        seen = []
        ParallelRunner(jobs=2).run_suite(
            suite,
            FIGURE16_CONFIGS["spec2"],
            timeout=TIMEOUT,
            label="spec2",
            progress=seen.append,
        )
        assert sorted(o.benchmark for o in seen) == sorted(suite.names())

    def test_jobs_one_is_a_serial_loop(self):
        suite = fast_suite()
        runner = ParallelRunner(jobs=1)
        run = runner.run_suite(suite, FIGURE16_CONFIGS["spec2"], timeout=TIMEOUT, label="spec2")
        assert [o.benchmark for o in run.outcomes] == suite.names()


class TestTaskContext:
    def test_active_isolates_intern_pool_and_counters(self):
        from repro.dataframe.interning import intern_pool_size, intern_value
        from repro.dataframe.profiling import execution_stats

        outer_size = intern_pool_size()
        context = TaskContext()
        with context.active():
            intern_value("only-in-context")
            intern_value("only-in-context")
            assert execution_stats() is context.execution
            assert context.execution.cells_interned == 1
        assert intern_pool_size() == outer_size
        assert execution_stats() is not context.execution

    def test_nested_install_is_rejected(self):
        context = TaskContext()
        with context.active():
            with pytest.raises(RuntimeError):
                context.install()
        with pytest.raises(RuntimeError):
            context.uninstall()

    def test_formula_cache_is_swapped(self):
        from repro.smt.solver import formula_cache_stats

        context = TaskContext()
        with context.active():
            assert formula_cache_stats() is context.formula_cache.stats
        assert formula_cache_stats() is not context.formula_cache.stats

    def test_context_cache_mirrors_configured_size(self):
        # Per-task caches must evict exactly like the process-wide cache a
        # caller configured, or interleaved and whole-task runs diverge.
        from repro.smt.solver import FORMULA_CACHE_SIZE, configure_formula_cache

        try:
            configure_formula_cache(77)
            assert TaskContext().formula_cache.maxsize == 77
        finally:
            configure_formula_cache(FORMULA_CACHE_SIZE)
        assert TaskContext().formula_cache.maxsize == FORMULA_CACHE_SIZE


class TestKernelInterleaver:
    def sessions(self, config):
        return [
            create_session(
                SynthesisRequest.from_tables(b.inputs, b.output, config=config)
            )
            for b in fast_suite()
        ]

    def test_interleaved_results_match_dedicated_runs(self):
        config = SynthesisConfig(timeout=TIMEOUT)
        dedicated = [session.solve() for session in self.sessions(config)]
        sessions = self.sessions(config)
        interleaver = KernelInterleaver(slice_steps=5)
        for session in sessions:
            interleaver.add_driver(session)
        interleaver.run()
        results = [session.finalize() for session in sessions]
        assert len(results) == len(dedicated)
        for expected, actual in zip(dedicated, results):
            assert actual.solved == expected.solved
            assert actual.render() == expected.render()
            assert actual.stats.smt_calls == expected.stats.smt_calls
            assert actual.stats.frontier_peak == expected.stats.frontier_peak
            assert (
                actual.stats.completion.partial_programs
                == expected.stats.completion.partial_programs
            )
            assert actual.stats.tables_built == expected.stats.tables_built
            assert actual.stats.cells_interned == expected.stats.cells_interned

    def test_interleave_benchmarks_matches_dedicated_runs(self):
        config = SynthesisConfig(timeout=TIMEOUT)
        suite = fast_suite()
        pairs = [(b, config, "spec2", None) for b in suite]
        interleaved = interleave_benchmarks(pairs)
        dedicated = [
            outcome_from_result(b, config, session.solve(), label="spec2")
            for b, session in zip(suite, self.sessions(config))
        ]
        assert [deterministic_fields(o) for o in interleaved] == [
            deterministic_fields(o) for o in dedicated
        ]

    def test_on_result_fires_once_per_task(self):
        config = SynthesisConfig(timeout=TIMEOUT)
        pairs = [(b, config, "spec2", None) for b in fast_suite()]
        seen = []
        interleave_benchmarks(pairs, on_result=lambda index, outcome: seen.append(index))
        assert sorted(seen) == list(range(len(pairs)))

    def test_rejects_invalid_slice_steps(self):
        with pytest.raises(ValueError):
            KernelInterleaver(slice_steps=0)

    def test_finished_driver_tasks_are_released(self):
        class FakeDriver:
            def __init__(self, slices):
                self.slices = slices

            def advance(self, max_steps):
                self.slices -= 1
                return self.slices <= 0

        interleaver = KernelInterleaver(slice_steps=1)
        drivers = [FakeDriver(1), FakeDriver(3)]
        for driver in drivers:
            interleaver.add_driver(driver)
        assert interleaver.unfinished == 2
        while interleaver.pump():
            pass
        # Finished drivers leave the rotation *and* the interleaver keeps no
        # reference to them: a long-lived service re-enrolls sessions on
        # every resume, so any retained reference would pin expired
        # sessions in memory forever.
        assert interleaver.unfinished == 0
        released = [weakref.ref(driver) for driver in drivers]
        del drivers, driver
        gc.collect()
        assert all(ref() is None for ref in released)
        interleaver.add_driver(FakeDriver(2))
        assert interleaver.unfinished == 1
        while interleaver.pump():
            pass
        assert interleaver.unfinished == 0

    def test_step_budget_bounds_an_untimed_search(self):
        # timeout=None + max_steps: the only budget is the deterministic
        # step count, so the run must terminate (and report unsolved) after
        # exactly the budget, independent of host speed.
        config = SynthesisConfig(timeout=None, max_steps=3)
        sessions = self.sessions(config)
        interleaver = KernelInterleaver(slice_steps=2)
        for session in sessions:
            interleaver.add_driver(session)
        interleaver.run()
        assert all(session.status == "timeout" for session in sessions)
        assert all(session.steps == 3 for session in sessions)
        assert all(not session.finalize().solved for session in sessions)

    def test_step_budget_matches_dedicated_runs(self):
        # One driver, every scheduler: with a step budget, a session cut by
        # solve(), by advance(7) slices, by a 3-session interleaver or by a
        # 2-process ParallelRunner stops at the same frontier position, so
        # the program and every deterministic counter agree, no matter how
        # wall-clock time is divided across slices.
        suite = fast_suite()
        for budget in (25, 10_000):
            config = SynthesisConfig(timeout=None, max_steps=budget)
            pairs = [(b, config, "spec2", None) for b in suite]

            def outcomes(results):
                return [
                    deterministic_fields(outcome_from_result(b, config, r, label="spec2"))
                    for b, r in zip(suite, results)
                ]

            dedicated = outcomes([session.solve() for session in self.sessions(config)])
            sliced = self.sessions(config)
            for session in sliced:
                # 7 deliberately does not divide the budget evenly.
                while not session.advance(7):
                    pass
            interleaved = self.sessions(config)
            interleaver = KernelInterleaver(slice_steps=7)
            for session in interleaved:
                interleaver.add_driver(session)
            interleaver.run()
            pooled = ParallelRunner(jobs=2).map_benchmarks(pairs)
            assert outcomes([s.finalize() for s in sliced]) == dedicated
            assert outcomes([s.finalize() for s in interleaved]) == dedicated
            assert [deterministic_fields(outcome) for outcome in pooled] == dedicated
            # Not vacuous: 25 steps cut every search, 10,000 solve every task.
            assert [fields["solved"] for fields in dedicated] == [budget > 25] * len(suite)
