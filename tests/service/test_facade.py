"""Tests for the sanctioned facade: repro.api."""

import json
import warnings

import pytest

import repro
from repro import Table, synthesize
from repro.api import (
    CandidateProgram,
    ExamplePayload,
    RequestError,
    SessionState,
    SynthesisRequest,
    SynthesisResult,
    config_from_json,
    config_to_json,
    create_session,
    solve,
    table_from_json,
    table_to_json,
)
from repro.core import SynthesisConfig

STUDENTS = Table(["name", "age", "gpa"],
                 [["Alice", 8, 4.0], ["Bob", 18, 3.2], ["Tom", 12, 3.0]])
ADULTS = Table(["name", "age", "gpa"], [["Bob", 18, 3.2], ["Tom", 12, 3.0]])

EMPLOYEES = Table(
    ["name", "dept", "salary"],
    [["ann", "eng", 100], ["bob", "eng", 90], ["cal", "ops", 80]],
)
HEADCOUNT = Table(["dept", "n"], [["eng", 2], ["ops", 1]])


def filter_request(**knobs):
    knobs.setdefault("timeout", 20)
    return SynthesisRequest.from_tables([STUDENTS], ADULTS, **knobs)


class TestTableJson:
    def test_round_trip_preserves_content_and_types(self):
        payload = json.loads(json.dumps(table_to_json(STUDENTS)))
        restored = table_from_json(payload)
        assert restored.columns == STUDENTS.columns
        assert restored.rows == STUDENTS.rows
        assert restored.col_types == STUDENTS.col_types

    def test_col_types_are_optional(self):
        restored = table_from_json({"columns": ["a"], "rows": [[1], [2]]})
        assert restored.rows == ((1,), (2,))

    def test_malformed_payloads_raise_request_error(self):
        with pytest.raises(RequestError):
            table_from_json("not a table")
        with pytest.raises(RequestError, match="rows"):
            table_from_json({"columns": ["a"]})
        with pytest.raises(RequestError, match="column type"):
            table_from_json(
                {"columns": ["a"], "rows": [[1]], "col_types": ["bogus"]}
            )


class TestRequestJson:
    def test_round_trip(self):
        request = filter_request(top_k=2)
        restored = SynthesisRequest.from_json(json.loads(json.dumps(request.to_json())))
        assert restored == request

    def test_config_round_trip_covers_every_knob(self):
        config = SynthesisConfig(timeout=5.0, top_k=3, oe=False)
        assert config_from_json(config_to_json(config)) == config

    def test_unknown_config_knob_raises(self):
        with pytest.raises(RequestError, match="unknown config knobs"):
            config_from_json({"warp_drive": True})

    def test_unknown_library_raises(self):
        with pytest.raises(RequestError, match="library"):
            SynthesisRequest.from_json(
                {"examples": [ExamplePayload.make([STUDENTS], ADULTS).to_json()],
                 "library": "pandas"}
            )

    def test_empty_examples_raise(self):
        with pytest.raises(RequestError, match="examples"):
            SynthesisRequest.from_json({"examples": []})


class TestOneShotSolve:
    def test_matches_the_legacy_synthesize_entry_point(self):
        legacy = synthesize([STUDENTS], ADULTS, config=SynthesisConfig(timeout=20))
        result = solve(filter_request())
        assert result.solved
        assert result.status == "done"
        assert result.program == legacy.render()

    def test_result_json_round_trip(self):
        result = solve(filter_request())
        restored = SynthesisResult.from_json(json.loads(json.dumps(result.to_json())))
        assert restored.program == result.program
        assert restored.counters == result.counters

    def test_counters_are_populated(self):
        result = solve(filter_request())
        assert result.counters["steps"] > 0
        assert result.counters["hypotheses_expanded"] > 0
        assert result.counters["tables_built"] > 0


class TestSessionLifecycle:
    def test_advance_streams_candidates_anytime(self):
        session = create_session(filter_request(top_k=2))
        assert session.status == "created"
        seen = []
        while not session.finished:
            session.advance(max_steps=16)
            for candidate in session.candidates[len(seen):]:
                seen.append(candidate)
        assert session.status in ("done", "exhausted", "timeout")
        assert seen
        assert [c.rank for c in seen] == list(range(1, len(seen) + 1))

    def test_solve_equals_sliced_advance(self):
        sliced = create_session(filter_request())
        while not sliced.finished:
            sliced.advance(max_steps=8)
        solved = create_session(filter_request()).solve()
        assert sliced.candidates[0].program == solved.render()

    def test_state_json_round_trip(self):
        session = create_session(filter_request())
        session.advance(max_steps=64)
        state = session.state()
        restored = SessionState.from_json(json.loads(json.dumps(state.to_json())))
        assert restored == state

    def test_solve_resumes_after_advance_slices(self):
        # advance and solve share one budgeted slice, so a solve() that
        # picks up a partly advanced session ends where a fresh one does.
        sliced = create_session(filter_request())
        assert not sliced.advance(max_steps=3)
        resumed = sliced.solve()
        fresh = create_session(filter_request()).solve()
        assert resumed.solved and fresh.solved
        assert resumed.render() == fresh.render()
        assert resumed.stats.smt_calls == fresh.stats.smt_calls
        assert resumed.stats.frontier_peak == fresh.stats.frontier_peak
        assert (
            resumed.stats.completion.partial_programs
            == fresh.stats.completion.partial_programs
        )
        assert resumed.stats.tables_built == fresh.stats.tables_built

    def test_finalize_without_elapsed_reports_active_seconds(self):
        session = create_session(filter_request())
        while not session.advance(max_steps=16):
            pass
        result = session.finalize()
        assert result.solved
        assert result.elapsed == session.active_seconds > 0

    def test_advance_on_a_finished_session_takes_no_steps(self):
        session = create_session(filter_request())
        session.solve()
        before = session.counters()
        assert session.advance(max_steps=8) is True
        assert session.steps == before["steps"]
        assert session.counters() == before


class TestSynthesizeWrapper:
    def test_accepts_inputs_output_tables(self):
        inputs = [Table(["a", "b", "c"], [[1, 2, 3], [4, 5, 6]])]
        output = Table(["a", "b"], [[1, 2], [4, 5]])
        result = synthesize(inputs, output, config=SynthesisConfig(timeout=20))
        assert result.solved
        assert result.programs[0] is result.program

    def test_matches_a_session_solve(self):
        wrapped = synthesize([EMPLOYEES], HEADCOUNT, config=SynthesisConfig(timeout=20))
        direct = create_session(
            SynthesisRequest.from_tables([EMPLOYEES], HEADCOUNT, timeout=20)
        ).solve()
        assert wrapped.solved and direct.solved
        assert wrapped.render() == direct.render()
        assert wrapped.stats.smt_calls == direct.stats.smt_calls
        assert wrapped.stats.frontier_peak == direct.stats.frontier_peak
        assert (
            wrapped.stats.completion.partial_programs
            == direct.stats.completion.partial_programs
        )
        assert wrapped.stats.tables_built == direct.stats.tables_built

    def test_k_overrides_top_k_without_mutating_the_config(self):
        config = SynthesisConfig(timeout=20)
        result = synthesize([STUDENTS], ADULTS, config=config, k=2)
        assert config.top_k == 1
        assert result.config.top_k == 2
        rendered = result.render_all()
        assert 1 <= len(rendered) <= 2
        assert len(set(rendered)) == len(rendered)

    def test_unsolvable_example_reports_no_program(self):
        # An output whose values cannot be produced from the input.
        inputs = [Table(["a", "b"], [[1, 2], [3, 4]])]
        output = Table(["zz"], [["impossible"]])
        result = synthesize(inputs, output, config=SynthesisConfig(timeout=2.0, max_size=1))
        assert not result.solved
        assert result.program is None
        assert result.programs == []


class TestAddExample:
    DISTINGUISHER = ExamplePayload.make(
        [Table(["name", "age", "gpa"], [["Zoe", 8, 3.5], ["Max", 20, 2.0]])],
        Table(["name", "age", "gpa"], [["Max", 20, 2.0]]),
    )

    def run_to_first_candidate(self):
        session = create_session(filter_request())
        while not session.finished and not session.candidates:
            session.advance(max_steps=32)
        return session

    def test_counters_continue_across_the_resume(self):
        session = self.run_to_first_candidate()
        before = session.counters()
        session.add_example(self.DISTINGUISHER)
        assert session.resumes == 1
        after_resume = session.counters()
        assert after_resume["steps"] == before["steps"]  # resume loses nothing
        while not session.finished:
            session.advance(max_steps=64)
        after = session.counters()
        assert after["steps"] > before["steps"]
        assert after["partial_programs"] >= before["partial_programs"]
        assert after["frontier_peak"] >= before["frontier_peak"]

    def test_revalidation_marks_overfit_candidates(self):
        session = self.run_to_first_candidate()
        assert session.candidates[0].validated
        session.add_example(self.DISTINGUISHER)
        assert not session.candidates[0].validated

    def test_resumed_program_matches_cold_two_example_run(self):
        session = self.run_to_first_candidate()
        session.add_example(self.DISTINGUISHER)
        while not session.finished and not session.validated_count:
            session.advance(max_steps=64)
        resumed = [c.program for c in session.candidates if c.validated]
        assert resumed

        cold = create_session(
            SynthesisRequest(
                (ExamplePayload.make([STUDENTS], ADULTS), self.DISTINGUISHER),
                config=SynthesisConfig(timeout=20),
            )
        )
        while not cold.finished and not cold.validated_count:
            cold.advance(max_steps=64)
        cold_programs = [c.program for c in cold.candidates if c.validated]
        assert resumed[0] == cold_programs[0]

    def test_consistent_extra_example_keeps_candidates_valid(self):
        session = self.run_to_first_candidate()
        # An example the current candidate already satisfies: nothing is
        # invalidated and the met quota ends the session.
        session.add_example(
            ExamplePayload.make(
                [Table(["name", "age", "gpa"], [["Alice", 8, 4.0], ["Max", 20, 2.0]])],
                Table(["name", "age", "gpa"], [["Max", 20, 2.0]]),
            )
        )
        assert session.candidates[0].validated
        assert session.status == "done"

    def test_core_result_after_a_resume_counts_the_whole_session(self):
        # The core result's counter windows are the session's, captured once
        # at creation: work done before the resume stays in them, and the
        # frontier peak covers the suspended kernel too.
        session = self.run_to_first_candidate()
        session.add_example(
            ExamplePayload.make(
                [Table(["name", "age", "gpa"], [["Alice", 8, 4.0], ["Max", 20, 2.0]])],
                Table(["name", "age", "gpa"], [["Max", 20, 2.0]]),
            )
        )
        result = session.solve()
        counters = session.counters()
        assert result.solved
        assert result.stats.execution.tables_built == counters["tables_built"] > 0
        assert result.stats.execution.exec_cache.hits == counters["exec_cache_hits"]
        assert result.stats.frontier_peak == counters["frontier_peak"]


class TestDeprecation:
    def test_sanctioned_paths_do_not_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve(SynthesisRequest.from_tables([EMPLOYEES], HEADCOUNT, timeout=20))
        assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]

    def test_removed_entry_points_are_gone(self):
        # One kernel driver: the deprecated engine class, the batch and
        # portfolio helpers and the scheduler knobs were deleted outright.
        from repro.engine import ParallelRunner
        from repro.service.sessions import SessionStore

        for name in ("Morpheus", "synthesize_batch", "synthesize_portfolio"):
            assert not hasattr(repro, name)
        with pytest.raises(TypeError, match="interleave"):
            ParallelRunner(interleave=False)
        with pytest.raises(TypeError, match="slice_steps"):
            SessionStore(slice_steps=1)
