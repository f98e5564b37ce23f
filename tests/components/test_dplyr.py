"""Tests for the dplyr verbs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.components import (
    EvaluationError,
    InvalidArgumentError,
    arrange,
    filter_rows,
    group_by,
    inner_join,
    mutate,
    select,
    summarise,
)
from repro.dataframe import Table


@pytest.fixture
def flights():
    return Table(
        ["flight", "origin", "dest"],
        [
            [11, "EWR", "SEA"],
            [725, "JFK", "BQN"],
            [495, "JFK", "SEA"],
            [461, "LGA", "ATL"],
            [1696, "EWR", "ORD"],
            [1670, "EWR", "SEA"],
        ],
    )


class TestSelect:
    def test_projection(self, flights):
        result = select(flights, ["origin", "dest"])
        assert result.columns == ("origin", "dest")
        assert result.n_rows == 6

    def test_must_drop_something(self, flights):
        with pytest.raises(EvaluationError):
            select(flights, ["flight", "origin", "dest"])

    def test_unknown_column(self, flights):
        with pytest.raises(InvalidArgumentError):
            select(flights, ["nope"])

    def test_duplicates_rejected(self, flights):
        with pytest.raises(InvalidArgumentError):
            select(flights, ["origin", "origin"])


class TestFilter:
    def test_keeps_matching_rows(self, flights):
        result = filter_rows(flights, lambda row: row["dest"] == "SEA")
        assert result.n_rows == 3
        assert set(result.column_values("dest")) == {"SEA"}

    def test_trivial_filter_rejected(self, flights):
        with pytest.raises(EvaluationError):
            filter_rows(flights, lambda row: True)

    def test_empty_result_allowed(self, flights):
        result = filter_rows(flights, lambda row: row["dest"] == "XXX")
        assert result.n_rows == 0

    def test_preserves_grouping(self, flights):
        grouped = group_by(flights, ["origin"])
        result = filter_rows(grouped, lambda row: row["dest"] == "SEA")
        assert result.group_cols == ("origin",)


class TestGroupBySummarise:
    def test_count_per_group(self, flights):
        result = summarise(group_by(flights, ["origin"]), "n", "n")
        counts = dict(result.rows)
        assert counts == {"EWR": 3, "JFK": 2, "LGA": 1}

    def test_sum_per_group(self):
        table = Table(["g", "v"], [["a", 1], ["a", 2], ["b", 10]])
        result = summarise(group_by(table, ["g"]), "total", "sum", "v")
        assert dict(result.rows) == {"a": 3, "b": 10}

    def test_mean_min_max(self):
        table = Table(["g", "v"], [["a", 1], ["a", 3], ["b", 10]])
        assert dict(summarise(group_by(table, ["g"]), "m", "mean", "v").rows)["a"] == 2
        assert dict(summarise(group_by(table, ["g"]), "m", "min", "v").rows)["a"] == 1
        assert dict(summarise(group_by(table, ["g"]), "m", "max", "v").rows)["a"] == 3

    def test_ungrouped_summarise_gives_single_row(self):
        table = Table(["v"], [[1], [2], [3]])
        result = summarise(table, "total", "sum", "v")
        assert result.n_rows == 1
        assert result.rows[0] == (6,)

    def test_summarise_drops_last_grouping_level(self, flights):
        result = summarise(group_by(flights, ["origin"]), "n", "n")
        assert result.group_cols == ()

    def test_summarise_with_two_grouping_levels(self):
        table = Table(["a", "b", "v"], [["x", "p", 1], ["x", "q", 2], ["y", "p", 3]])
        result = summarise(group_by(table, ["a", "b"]), "total", "sum", "v")
        assert result.group_cols == ("a",)
        assert result.n_rows == 3

    def test_unknown_aggregator(self, flights):
        with pytest.raises(InvalidArgumentError):
            summarise(group_by(flights, ["origin"]), "x", "median", "flight")

    def test_aggregator_needs_target(self, flights):
        with pytest.raises(InvalidArgumentError):
            summarise(group_by(flights, ["origin"]), "x", "sum")

    def test_group_by_requires_columns(self, flights):
        with pytest.raises(InvalidArgumentError):
            group_by(flights, [])


class TestMutate:
    def test_row_wise_expression(self):
        table = Table(["a", "b"], [[1, 2], [3, 4]])
        result = mutate(table, "s", lambda row, group: row["a"] + row["b"])
        assert result.column_values("s") == (3, 7)

    def test_group_aware_aggregate(self):
        table = group_by(Table(["g", "v"], [["a", 1], ["a", 3], ["b", 10]]), ["g"])
        result = mutate(table, "share", lambda row, group: row["v"] / sum(group.column_values("v")))
        assert result.column_values("share") == (0.25, 0.75, 1)

    def test_ungrouped_aggregate_uses_whole_table(self):
        table = Table(["v"], [[1], [3]])
        result = mutate(table, "share", lambda row, group: row["v"] / sum(group.column_values("v")))
        assert result.column_values("share") == (0.25, 0.75)

    def test_existing_column_rejected(self):
        table = Table(["a"], [[1]])
        with pytest.raises(EvaluationError):
            mutate(table, "a", lambda row, group: 1)

    @pytest.mark.parametrize("grouped", [False, True], ids=["ungrouped", "grouped"])
    def test_one_group_context_per_group(self, monkeypatch, grouped):
        # One context per group: a context per row would make mutate
        # quadratic in the row count.
        from repro.components import dplyr

        built = []

        class CountingGroupContext(dplyr.GroupContext):
            def __init__(self, table, row_indices):
                built.append(len(row_indices))
                super().__init__(table, row_indices)

        monkeypatch.setattr(dplyr, "GroupContext", CountingGroupContext)
        table = Table(["g", "v"], [[index % 3, index] for index in range(50)])
        if grouped:
            table = group_by(table, ["g"])
        mutate(table, "w", lambda row, group: group.size)
        assert len(built) == table.n_groups
        assert sum(built) == table.n_rows


class TestInnerJoin:
    def test_natural_join(self):
        left = Table(["id", "x"], [[1, "a"], [2, "b"], [3, "c"]])
        right = Table(["id", "y"], [[1, 10], [3, 30], [4, 40]])
        result = inner_join(left, right)
        assert result.columns == ("id", "x", "y")
        assert sorted(result.column_values("id")) == [1, 3]

    def test_join_on_multiple_columns(self):
        left = Table(["a", "b", "x"], [[1, "p", 5], [2, "q", 6]])
        right = Table(["a", "b", "y"], [[1, "p", 7], [2, "z", 8]])
        result = inner_join(left, right)
        assert result.n_rows == 1
        assert result.rows[0] == (1, "p", 5, 7)

    def test_no_shared_columns_rejected(self):
        with pytest.raises(EvaluationError):
            inner_join(Table(["a"], [[1]]), Table(["b"], [[2]]))

    def test_empty_join_rejected(self):
        left = Table(["id", "x"], [[1, "a"]])
        right = Table(["id", "y"], [[2, 10]])
        with pytest.raises(EvaluationError):
            inner_join(left, right)

    def test_duplicate_keys_multiply(self):
        left = Table(["k", "x"], [["a", 1], ["a", 2]])
        right = Table(["k", "y"], [["a", 10]])
        assert inner_join(left, right).n_rows == 2


class TestArrange:
    def test_ascending_sort(self):
        table = Table(["v", "w"], [[3, "c"], [1, "a"], [2, "b"]])
        assert arrange(table, ["v"]).column_values("v") == (1, 2, 3)

    def test_multi_column_sort(self):
        table = Table(["a", "b"], [[2, 1], [1, 2], [1, 1]])
        assert arrange(table, ["a", "b"]).rows == ((1, 1), (1, 2), (2, 1))

    def test_descending(self):
        table = Table(["v"], [[1], [3], [2]])
        assert arrange(table, ["v"], descending=True).column_values("v") == (3, 2, 1)

    def test_requires_columns(self):
        with pytest.raises(InvalidArgumentError):
            arrange(Table(["v"], [[1]]), [])


class TestProperties:
    @given(
        st.lists(st.tuples(st.sampled_from("abc"), st.integers(-20, 20)), min_size=1, max_size=20)
    )
    def test_summarise_rows_equal_groups(self, rows):
        table = group_by(Table(["g", "v"], rows), ["g"])
        result = summarise(table, "total", "sum", "v")
        assert result.n_rows == table.n_groups

    @given(
        st.lists(st.tuples(st.sampled_from("abc"), st.integers(-20, 20)), min_size=1, max_size=20),
        st.integers(-20, 20),
    )
    def test_filter_is_monotone(self, rows, threshold):
        table = Table(["g", "v"], rows)
        try:
            result = filter_rows(table, lambda row: row["v"] > threshold)
        except EvaluationError:
            # The predicate kept every row; nothing to check.
            return
        assert result.n_rows < table.n_rows
        assert all(value > threshold for value in result.column_values("v"))

    @given(
        st.lists(st.tuples(st.integers(0, 5), st.integers(-9, 9)), min_size=1, max_size=15),
        st.lists(st.tuples(st.integers(0, 5), st.text("xyz", min_size=1, max_size=2)), min_size=1, max_size=15),
    )
    def test_join_keys_come_from_both_sides(self, left_rows, right_rows):
        left = Table(["k", "v"], left_rows)
        right_rows = list({row[0]: row for row in right_rows}.values())
        right = Table(["k", "w"], right_rows)
        try:
            joined = inner_join(left, right)
        except EvaluationError:
            return
        left_keys = set(left.column_values("k"))
        right_keys = set(right.column_values("k"))
        assert set(joined.column_values("k")) <= (left_keys & right_keys)
