"""Tests for hypotheses, refinement trees, sketches and partial evaluation."""

import itertools
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import standard_library
from repro.core.arguments import Aggregation, ColumnList, Constant, Predicate
from repro.core.hypothesis import (
    Apply,
    EvaluationFailure,
    Hole,
    bind_table_hole,
    component_sequence,
    evaluate,
    fill_value_hole,
    hypothesis_size,
    initial_hypothesis,
    is_complete,
    is_sketch,
    iter_nodes,
    partial_evaluate,
    refine,
    render_program,
    replace_node,
    sketches,
    table_holes,
    unfilled_value_holes,
)
from repro.core.types import Type
from repro.dataframe import Table

LIBRARY = standard_library()
COMPONENTS = {component.name: component for component in LIBRARY}
STUDENTS = Table(["name", "age"], [["Alice", 8], ["Bob", 18], ["Tom", 12]])


def make_counter():
    counter = itertools.count(1)
    return lambda: next(counter)


def build_chain(*names):
    """Refine the initial hypothesis into a chain of the given components."""
    next_id = make_counter()
    hypothesis = initial_hypothesis()
    for name in names:
        hole = table_holes(hypothesis)[0]
        hypothesis = refine(hypothesis, hole, COMPONENTS[name], next_id)
    return hypothesis


class TestRefinement:
    def test_initial_hypothesis(self):
        hypothesis = initial_hypothesis()
        assert isinstance(hypothesis, Hole)
        assert hypothesis.hole_type is Type.TABLE
        assert hypothesis_size(hypothesis) == 0
        assert not is_sketch(hypothesis)

    def test_single_refinement(self):
        hypothesis = build_chain("filter")
        assert isinstance(hypothesis, Apply)
        assert hypothesis.component.name == "filter"
        assert hypothesis_size(hypothesis) == 1
        assert len(table_holes(hypothesis)) == 1

    def test_chain_refinement(self):
        hypothesis = build_chain("select", "filter")
        assert component_sequence(hypothesis) == ("filter", "select")
        assert hypothesis_size(hypothesis) == 2

    def test_join_refinement_creates_two_table_holes(self):
        hypothesis = build_chain("inner_join")
        assert len(table_holes(hypothesis)) == 2

    def test_node_ids_are_unique(self):
        hypothesis = build_chain("select", "filter", "group_by")
        ids = [node.node_id for node in iter_nodes(hypothesis)]
        assert len(ids) == len(set(ids))

    def test_refinement_is_pure(self):
        hypothesis = initial_hypothesis()
        refined = refine(hypothesis, hypothesis, COMPONENTS["filter"], make_counter())
        assert isinstance(hypothesis, Hole)
        assert isinstance(refined, Apply)


class TestSketches:
    def test_binding_produces_sketch(self):
        hypothesis = build_chain("filter")
        hole = table_holes(hypothesis)[0]
        sketch = bind_table_hole(hypothesis, hole, 0)
        assert is_sketch(sketch)
        assert not is_complete(sketch)

    def test_sketch_enumeration_single_input(self):
        hypothesis = build_chain("filter")
        assert len(list(sketches(hypothesis, 1))) == 1

    def test_sketch_enumeration_join_two_inputs(self):
        hypothesis = build_chain("inner_join")
        candidates = list(sketches(hypothesis, 2))
        assert len(candidates) == 4
        assert all(is_sketch(candidate) for candidate in candidates)

    def test_complete_program(self):
        hypothesis = build_chain("filter")
        sketch = next(sketches(hypothesis, 1))
        hole = unfilled_value_holes(sketch)[0]
        program = fill_value_hole(sketch, hole, Predicate("age", ">", Constant(10)))
        assert is_complete(program)


class TestPartialEvaluation:
    def _program(self):
        hypothesis = build_chain("filter")
        sketch = next(sketches(hypothesis, 1))
        hole = unfilled_value_holes(sketch)[0]
        return fill_value_hole(sketch, hole, Predicate("age", ">", Constant(10)))

    def test_complete_program_evaluates(self):
        program = self._program()
        result = evaluate(program, [STUDENTS])
        assert result.n_rows == 2
        assert set(result.column_values("name")) == {"Bob", "Tom"}

    def test_partial_hypothesis_skips_unknown_nodes(self):
        hypothesis = build_chain("select", "filter")
        sketch = next(sketches(hypothesis, 1))
        # Only the filter (inner) node's predicate missing -> nothing evaluable
        # above the input leaf.
        results = partial_evaluate(sketch, [STUDENTS])
        tables = list(results.values())
        assert STUDENTS in tables
        assert len(tables) == 1

    def test_incomplete_program_cannot_fully_evaluate(self):
        hypothesis = build_chain("filter")
        sketch = next(sketches(hypothesis, 1))
        with pytest.raises(ValueError):
            evaluate(sketch, [STUDENTS])

    def test_evaluation_failure_raised(self):
        hypothesis = build_chain("filter")
        sketch = next(sketches(hypothesis, 1))
        hole = unfilled_value_holes(sketch)[0]
        # A predicate that keeps every row is rejected by the executor.
        program = fill_value_hole(sketch, hole, Predicate("age", ">", Constant(0)))
        with pytest.raises(EvaluationFailure):
            partial_evaluate(program, [STUDENTS])

    def test_memo_is_reused(self):
        program = self._program()
        memo = {}
        first = partial_evaluate(program, [STUDENTS], memo=memo)
        assert memo
        second = partial_evaluate(program, [STUDENTS], memo=memo)
        assert first[program.node_id] == second[program.node_id]


class TestRendering:
    def test_render_complete_program(self):
        hypothesis = build_chain("summarise", "group_by")
        sketch = next(sketches(hypothesis, 1))
        group_hole = [
            hole for hole in unfilled_value_holes(sketch)
            if hole.hole_type is Type.COLS
        ][0]
        sketch = fill_value_hole(sketch, group_hole, ColumnList(("name",)))
        agg_hole = unfilled_value_holes(sketch)[0]
        program = fill_value_hole(sketch, agg_hole, Aggregation("n"))
        text = render_program(program, ["students"])
        assert "group_by(students, name)" in text
        assert "summarise(df1" in text
        assert text.startswith("df1 =")

    def test_render_partial_program_shows_holes(self):
        hypothesis = build_chain("filter")
        sketch = next(sketches(hypothesis, 1))
        text = render_program(sketch, ["t"])
        assert "?" in text


def full_copy_replace(hypothesis, node_id, new_node):
    """Reference rewrite: a fresh object for every node of the result."""
    if hypothesis.node_id == node_id:
        return new_node
    if isinstance(hypothesis, Hole):
        return Hole(hypothesis.node_id, hypothesis.hole_type, hypothesis.binding, hypothesis.value)
    return Apply(
        hypothesis.node_id,
        hypothesis.component,
        tuple(full_copy_replace(child, node_id, new_node) for child in hypothesis.table_children),
        tuple(
            new_node
            if child.node_id == node_id and isinstance(new_node, Hole)
            else Hole(child.node_id, child.hole_type, child.binding, child.value)
            for child in hypothesis.value_children
        ),
    )


def path_ids(hypothesis, node_id):
    """Node ids from the root down to (and including) *node_id*."""
    if hypothesis.node_id == node_id:
        return [node_id]
    if isinstance(hypothesis, Apply):
        for child in hypothesis.table_children + hypothesis.value_children:
            below = path_ids(child, node_id)
            if below:
                return [hypothesis.node_id] + below
    return []


@st.composite
def rewrite_chains(draw):
    """A random refine/bind/fill chain: (tree, target node id, new node) steps."""
    next_id = make_counter()
    hypothesis = initial_hypothesis()
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        actions = []
        if hypothesis_size(hypothesis) < 4 and table_holes(hypothesis):
            actions.append("refine")
        if table_holes(hypothesis):
            actions.append("bind")
        if unfilled_value_holes(hypothesis):
            actions.append("fill")
        if not actions:
            break
        action = draw(st.sampled_from(actions))
        if action == "refine":
            hole = draw(st.sampled_from(table_holes(hypothesis)))
            component = draw(st.sampled_from(list(LIBRARY)))
            rewritten = refine(hypothesis, hole, component, next_id)
        elif action == "bind":
            hole = draw(st.sampled_from(table_holes(hypothesis)))
            rewritten = bind_table_hole(hypothesis, hole, draw(st.integers(0, 1)))
        else:
            hole = draw(st.sampled_from(unfilled_value_holes(hypothesis)))
            value = ColumnList((draw(st.sampled_from(["name", "age"])),))
            rewritten = fill_value_hole(hypothesis, hole, value)
        new_node = next(node for node in iter_nodes(rewritten) if node.node_id == hole.node_id)
        steps.append((hypothesis, hole.node_id, new_node, rewritten))
        hypothesis = rewritten
    return steps


class TestPathCopying:
    @settings(max_examples=60, deadline=None)
    @given(rewrite_chains())
    def test_rewrites_match_a_full_copy_and_share_the_rest(self, steps):
        for before, node_id, new_node, after in steps:
            reference = full_copy_replace(before, node_id, new_node)
            assert after == reference
            assert hash(after) == hash(reference)
            on_path = set(path_ids(before, node_id))
            originals = {node.node_id: node for node in iter_nodes(before)}
            for node in iter_nodes(after):
                if node.node_id not in on_path and node.node_id in originals:
                    assert node is originals[node.node_id]

    def test_pickled_trees_rehash_under_another_hash_seed(self):
        # Hole/Apply hashes cover enum and string hashes, which depend on the
        # process's hash seed: an unpickled tree must not keep a stored hash.
        tree = next(sketches(build_chain("select", "filter"), 1))
        hash(tree)
        script = (
            "import itertools, pickle, sys\n"
            "from repro.core import standard_library\n"
            "from repro.core.hypothesis import initial_hypothesis, refine, sketches, table_holes\n"
            "components = {c.name: c for c in standard_library()}\n"
            "counter = itertools.count(1)\n"
            "fresh = initial_hypothesis()\n"
            "for name in ('select', 'filter'):\n"
            "    fresh = refine(fresh, table_holes(fresh)[0], components[name], lambda: next(counter))\n"
            "fresh = next(sketches(fresh, 1))\n"
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            "print(loaded == fresh and hash(loaded) == hash(fresh))\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        for seed in ("1", "2"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                input=pickle.dumps(tree),
                capture_output=True,
                env={"PYTHONHASHSEED": seed, "PYTHONPATH": str(src)},
                check=True,
            )
            assert result.stdout.strip() == b"True"

    def test_unknown_node_id_returns_the_same_tree(self):
        hypothesis = build_chain("select", "filter")
        assert replace_node(hypothesis, 999, Hole(999, Type.TABLE)) is hypothesis
