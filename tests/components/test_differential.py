"""Differential test: columnar executors vs the row-major reference.

Random programs (sequences of verbs with randomly drawn arguments, valid and
invalid alike) run over random tables through both the columnar executors in
``repro.components.dplyr`` / ``repro.components.tidyr`` and the retained
row-major reference implementation in ``repro.components.reference``.  The
two must agree on everything observable: cell contents, column names, column
types, grouping metadata -- or raise the same error class with the same
message.  Any divergence prints the seed and the failing step.

A second family holds single verbs to the same standard over adversarial
cells (NaN, None, huge integers, float extremes, empty strings), empty
tables and tables up to 300 rows.
"""

import math
import random

import pytest

from repro.components import dplyr, reference, tidyr
from repro.components.errors import ComponentError
from repro.core.arguments import Constant, Predicate
from repro.dataframe import Table
from repro.dataframe.errors import DataFrameError

#: Columnar implementation of every verb, aligned with REFERENCE_VERBS.
COLUMNAR_VERBS = {
    "select": dplyr.select,
    "filter": dplyr.filter_rows,
    "group_by": dplyr.group_by,
    "summarise": dplyr.summarise,
    "mutate": dplyr.mutate,
    "inner_join": dplyr.inner_join,
    "arrange": dplyr.arrange,
    "gather": tidyr.gather,
    "spread": tidyr.spread,
    "separate": tidyr.separate,
    "unite": tidyr.unite,
}

COMPARABLE_ERRORS = (ComponentError, DataFrameError, ZeroDivisionError)


def random_table(rng: random.Random) -> Table:
    """A random table: 2-5 columns of num/str cells, maybe grouped.

    Mostly small (0-7 rows, the size of the examples synthesis sees), but
    one draw in four has 30-90 rows so the executors also meet larger
    tables.
    """
    n_cols = rng.randint(2, 5)
    roll = rng.random()
    if roll < 0.75:
        n_rows = rng.randint(0, 7)
    elif roll < 0.9:
        n_rows = rng.randint(30, 36)
    else:
        n_rows = rng.randint(60, 90)
    columns = [f"c{i}" for i in range(n_cols)]
    vectors = []
    for _ in range(n_cols):
        kind = rng.choice(["num", "str", "splitable"])
        vector = []
        for _ in range(n_rows):
            if rng.random() < 0.1:
                vector.append(None)
            elif kind == "num":
                vector.append(rng.choice([rng.randint(-5, 9), rng.random() * 10]))
            elif kind == "splitable":
                vector.append(f"{rng.choice('abc')}_{rng.randint(0, 3)}")
            else:
                vector.append(rng.choice(["x", "y", "z", "x_1", "long word"]))
        vectors.append(vector)
    table = Table(columns, list(zip(*vectors)) if vectors else [])
    if n_rows and rng.random() < 0.4:
        group_count = rng.randint(1, min(2, n_cols))
        table = table.with_grouping(rng.sample(columns, group_count))
    return table


def random_call(rng: random.Random, table: Table):
    """Draw a verb and plausible (sometimes invalid) arguments for *table*."""
    verb = rng.choice(list(COLUMNAR_VERBS))
    columns = list(table.columns)
    any_column = lambda: rng.choice(columns) if columns else "missing"  # noqa: E731

    def some_columns(k_min=1):
        k = rng.randint(k_min, max(k_min, len(columns)))
        return rng.sample(columns, min(k, len(columns)))

    if verb == "select":
        return verb, (some_columns(),)
    if verb == "filter":
        column = any_column()
        constant = rng.choice([0, 1, "x", 2.5, None])
        op = rng.choice(["==", "!=", "<", ">", "<=", ">="])
        if rng.random() < 0.5:
            # Structured predicate: the shape the synthesizer produces (None
            # constants and the ordered operators exercise the missing-value
            # error paths).
            return verb, (Predicate(column, op, Constant(constant)),)

        def predicate(row, column=column, op=op, constant=constant):
            from repro.components.values import COMPARISON_OPERATORS

            return COMPARISON_OPERATORS[op](row[column], constant)

        return verb, (predicate,)
    if verb == "group_by":
        return verb, (some_columns(),)
    if verb == "summarise":
        aggregator = rng.choice(["n", "sum", "mean", "min", "max", "n_distinct"])
        target = None if aggregator == "n" else any_column()
        return verb, ("agg_out", aggregator, target)
    if verb == "mutate":

        def expression(row, group, column=any_column()):
            values = group.column_values(column)
            total = sum(v for v in values if isinstance(v, (int, float))) or 1
            cell = row[column]
            return (cell if isinstance(cell, (int, float)) and cell is not None else 0) / total

        return verb, ("mut_out", expression)
    if verb == "inner_join":
        return verb, ()  # second table supplied by the driver
    if verb == "arrange":
        return verb, (some_columns(),)
    if verb == "gather":
        return verb, ("gkey", "gvalue", some_columns(k_min=2))
    if verb == "spread":
        return verb, (any_column(), any_column())
    if verb == "separate":
        return verb, (any_column(), ["sep_left", "sep_right"])
    if verb == "unite":
        return verb, ("united_out", some_columns(k_min=2))
    raise AssertionError(verb)


def apply_verb(impl, verb, table, args, other):
    if verb == "inner_join":
        return impl[verb](table, other)
    return impl[verb](table, *args)


def assert_tables_identical(columnar: Table, legacy: Table, context: str):
    assert columnar.columns == legacy.columns, context
    assert columnar.col_types == legacy.col_types, context
    assert columnar.group_cols == legacy.group_cols, context
    assert columnar.n_rows == legacy.n_rows, context
    assert columnar.rows == legacy.rows, context


@pytest.mark.parametrize("seed", range(40))
def test_columnar_and_reference_executors_agree(seed):
    rng = random.Random(seed)
    for iteration in range(25):
        table = random_table(rng)
        other = random_table(rng)
        steps = rng.randint(1, 3)
        columnar_table, legacy_table = table, table
        for step in range(steps):
            verb, args = random_call(rng, columnar_table)
            context = f"seed={seed} iteration={iteration} step={step} verb={verb} args={args!r}"
            columnar_error = legacy_error = None
            try:
                columnar_result = apply_verb(COLUMNAR_VERBS, verb, columnar_table, args, other)
            except COMPARABLE_ERRORS as error:
                columnar_error = error
            try:
                legacy_result = apply_verb(reference.REFERENCE_VERBS, verb, legacy_table, args, other)
            except COMPARABLE_ERRORS as error:
                legacy_error = error

            if columnar_error is not None or legacy_error is not None:
                assert columnar_error is not None and legacy_error is not None, context
                assert type(columnar_error) is type(legacy_error), context
                assert str(columnar_error) == str(legacy_error), context
                break
            assert_tables_identical(columnar_result, legacy_result, context)
            columnar_table, legacy_table = columnar_result, legacy_result


def test_reference_covers_every_component():
    assert set(reference.REFERENCE_VERBS) == set(COLUMNAR_VERBS)


# ----------------------------------------------------------------------
# Single verbs over adversarial cells
# ----------------------------------------------------------------------
#: Adversarial cell pool: missing values, NaN, magnitudes past the int-sum
#: safety guard, float extremes, empty strings and lookalike text.
NASTY_CELLS = [
    None,
    float("nan"),
    0,
    1,
    -5,
    2.5,
    -2.5,
    2**60,
    -(2**55),
    1e308,
    -1e308,
    0.1,
    "",
    "a",
    "b",
    "0",
    "nan",
]

#: Empty, single-row, small and large tables.
SIZES = [0, 1, 7, 31, 32, 33, 64, 300]


def cells_equal(left, right):
    if (
        isinstance(left, float)
        and isinstance(right, float)
        and math.isnan(left)
        and math.isnan(right)
    ):
        return True
    return type(left) is type(right) and left == right


def outcome(thunk):
    """Everything observable about running *thunk*: its table or its error."""
    try:
        result = thunk()
    except COMPARABLE_ERRORS as error:
        return ("error", type(error).__name__, str(error))
    return (
        "ok",
        result.columns,
        result.col_types,
        result.group_cols,
        result.rows,
        result.fingerprint(),
    )


def assert_executors_agree(verb, table_thunk, *args, context=""):
    """Run *verb* through both executors on fresh tables and compare."""
    columnar = outcome(lambda: COLUMNAR_VERBS[verb](*table_thunk(), *args))
    legacy = outcome(lambda: reference.REFERENCE_VERBS[verb](*table_thunk(), *args))
    assert columnar[0] == legacy[0], (context, columnar, legacy)
    if columnar[0] == "error":
        assert columnar == legacy, context
        return
    assert columnar[1:4] == legacy[1:4], context
    assert columnar[5] == legacy[5], (context, "fingerprint mismatch")
    assert len(columnar[4]) == len(legacy[4]), context
    for row_columnar, row_legacy in zip(columnar[4], legacy[4]):
        for cell_columnar, cell_legacy in zip(row_columnar, row_legacy):
            assert cells_equal(cell_columnar, cell_legacy), (
                context, cell_columnar, cell_legacy,
            )


#: The numeric and the string share of the pool (missing cells in both).
NASTY_NUMS = [cell for cell in NASTY_CELLS if not isinstance(cell, str)]
NASTY_STRS = [cell for cell in NASTY_CELLS if not isinstance(cell, (int, float))]


def nasty_table(rng, n_rows, n_cols=3, kinds=None):
    """A table whose columns each hold one kind of cell (num or str).

    About a third of the cells come from the nasty pool; the rest are small
    values, so duplicates are common and grouping, joins and ``spread``
    really collide.  A table rejects columns that mix numbers and strings,
    so mixing kinds within a column would only test the constructor.
    """
    if kinds is None:
        kinds = [rng.choice(["num", "str"]) for _ in range(n_cols)]

    def cell(kind):
        if rng.random() < 0.35:
            return rng.choice(NASTY_NUMS if kind == "num" else NASTY_STRS)
        small = rng.randrange(8)
        return small if kind == "num" else "abcdefgh"[small]

    data = [[cell(kind) for kind in kinds] for _ in range(n_rows)]
    return [f"c{i}" for i in range(len(kinds))], data


@pytest.mark.parametrize("seed", range(12))
def test_executors_agree_on_nasty_filter(seed):
    rng = random.Random(seed)
    for n_rows in SIZES:
        columns, data = nasty_table(rng, n_rows)
        constant = rng.choice([None, 0, 1, 2.5, "a", ""])
        operator = rng.choice(["==", "!=", "<", ">", "<=", ">="])
        assert_executors_agree(
            "filter",
            lambda: (Table(columns, data),),
            Predicate("c1", operator, Constant(constant)),
            context=f"seed={seed} rows={n_rows} {operator} {constant!r}",
        )


@pytest.mark.parametrize("seed", range(12))
def test_executors_agree_on_nasty_arrange(seed):
    rng = random.Random(seed)
    for n_rows in SIZES:
        columns, data = nasty_table(rng, n_rows)
        keys = rng.sample(columns, rng.randint(1, len(columns)))
        assert_executors_agree(
            "arrange",
            lambda: (Table(columns, data),),
            keys,
            context=f"seed={seed} rows={n_rows} keys={keys}",
        )


@pytest.mark.parametrize("seed", range(12))
def test_executors_agree_on_nasty_gather(seed):
    rng = random.Random(seed)
    for n_rows in SIZES:
        columns, data = nasty_table(rng, n_rows, n_cols=4)
        gathered = rng.sample(columns, rng.randint(2, 3))
        assert_executors_agree(
            "gather",
            lambda: (Table(columns, data),),
            "key",
            "value",
            gathered,
            context=f"seed={seed} rows={n_rows} gathered={gathered}",
        )


@pytest.mark.parametrize("seed", range(12))
def test_executors_agree_on_nasty_spread(seed):
    rng = random.Random(seed)
    for n_rows in SIZES:
        columns, data = nasty_table(rng, n_rows)
        key, value = rng.sample(columns, 2)
        assert_executors_agree(
            "spread",
            lambda: (Table(columns, data),),
            key,
            value,
            context=f"seed={seed} rows={n_rows} key={key} value={value}",
        )


@pytest.mark.parametrize("seed", range(12))
def test_executors_agree_on_nasty_join(seed):
    rng = random.Random(seed)
    for n_rows in SIZES:
        kinds = [rng.choice(["num", "str"]) for _ in range(3)]
        left_columns, left_data = nasty_table(rng, n_rows, kinds=kinds)
        # Share c0/c1 so the natural join has real key columns; c2 renames
        # to a right-only payload column.
        right_columns = ["c0", "c1", "payload"]
        _, right_data = nasty_table(
            rng, max(0, n_rows - rng.randint(0, 5)), kinds=kinds
        )
        assert_executors_agree(
            "inner_join",
            lambda: (Table(left_columns, left_data), Table(right_columns, right_data)),
            context=f"seed={seed} rows={n_rows}",
        )


@pytest.mark.parametrize("seed", range(12))
def test_executors_agree_on_nasty_summarise(seed):
    rng = random.Random(seed)
    for n_rows in SIZES:
        columns, data = nasty_table(rng, n_rows)
        aggregator = rng.choice(["n", "sum", "mean", "min", "max"])
        assert_executors_agree(
            "summarise",
            lambda: (dplyr.group_by(Table(columns, data), ["c0"]),),
            "agg",
            aggregator,
            "c1",
            context=f"seed={seed} rows={n_rows} agg={aggregator}",
        )


@pytest.mark.parametrize("seed", range(12))
def test_executors_agree_on_nasty_select(seed):
    rng = random.Random(seed)
    for n_rows in SIZES:
        columns, data = nasty_table(rng, n_rows, n_cols=4)
        grouping = rng.sample(columns, rng.randint(0, 2))
        kept = rng.sample(columns, rng.randint(1, len(columns)))
        assert_executors_agree(
            "select",
            lambda: (Table(columns, data).with_grouping(grouping),),
            kept,
            context=f"seed={seed} rows={n_rows} grouping={grouping} kept={kept}",
        )


@pytest.mark.parametrize("seed", range(12))
def test_executors_agree_on_nasty_group_by(seed):
    rng = random.Random(seed)
    for n_rows in SIZES:
        columns, data = nasty_table(rng, n_rows)
        keys = rng.sample(columns, rng.randint(1, len(columns)))
        assert_executors_agree(
            "group_by",
            lambda: (Table(columns, data),),
            keys,
            context=f"seed={seed} rows={n_rows} keys={keys}",
        )


def share_of_group(row, group, column="c1"):
    """A mutate expression over the row's group: the cell over its peers.

    Divides by the number of *other* present cells in the group, so a group
    with one present cell raises and the error path is compared too.
    Missing cells stay missing and text passes through.
    """
    cell = row[column]
    if cell is None or isinstance(cell, str):
        return cell
    peers = sum(value is not None for value in group.column_values(column)) - 1
    return cell / peers


@pytest.mark.parametrize("seed", range(12))
def test_executors_agree_on_nasty_mutate(seed):
    rng = random.Random(seed)
    for n_rows in SIZES:
        columns, data = nasty_table(rng, n_rows)
        grouping = rng.sample(["c0", "c2"], rng.randint(0, 2))
        assert_executors_agree(
            "mutate",
            lambda: (Table(columns, data).with_grouping(grouping),),
            "share",
            share_of_group,
            context=f"seed={seed} rows={n_rows} grouping={grouping}",
        )


#: Non-empty suffixes for ``separate`` cells (NaN and the extremes render
#: as text with signs, dots and exponents).
SPLIT_SUFFIXES = [cell for cell in NASTY_CELLS if cell is not None and cell != ""]


@pytest.mark.parametrize("seed", range(12))
def test_executors_agree_on_nasty_separate(seed):
    rng = random.Random(seed)
    for n_rows in SIZES:
        columns, data = nasty_table(rng, n_rows, kinds=["str", "num", "num"])
        separator = rng.choice([None, "_"])
        # A letter, a separator and a nasty suffix, so the cells split; one
        # table in four gets an unsplittable cell and must fail alike.
        for row in data:
            if row[0] is not None:
                joiner = separator or rng.choice(["_", "-", " "])
                row[0] = f"{rng.choice('abc')}{joiner}{rng.choice(SPLIT_SUFFIXES)}"
        if data and rng.random() < 0.25:
            data[rng.randrange(n_rows)][0] = rng.choice(["", "a", "0"])
        assert_executors_agree(
            "separate",
            lambda: (Table(columns, data),),
            "c0",
            ["left", "right"],
            separator,
            context=f"seed={seed} rows={n_rows} separator={separator!r}",
        )


@pytest.mark.parametrize("seed", range(12))
def test_executors_agree_on_nasty_unite(seed):
    rng = random.Random(seed)
    for n_rows in SIZES:
        columns, data = nasty_table(rng, n_rows, n_cols=4)
        united = rng.sample(columns, rng.randint(2, 3))
        grouping = rng.sample(columns, rng.randint(0, 1))
        assert_executors_agree(
            "unite",
            lambda: (Table(columns, data).with_grouping(grouping),),
            "united",
            united,
            context=f"seed={seed} rows={n_rows} united={united} grouping={grouping}",
        )


def test_every_verb_meets_nasty_cells():
    nasty_verbs = {
        name.rsplit("_nasty_", 1)[1].replace("join", "inner_join")
        for name in globals()
        if name.startswith("test_executors_agree_on_nasty_")
    }
    assert nasty_verbs == set(COLUMNAR_VERBS)


def test_executors_agree_on_empty_tables():
    empty = lambda: (Table(["a", "b"], []),)  # noqa: E731
    assert_executors_agree("filter", empty, Predicate("a", ">", Constant(1)))
    assert_executors_agree("arrange", empty, ["a"])
    assert_executors_agree("gather", empty, "key", "value", ["a", "b"])
    assert_executors_agree("spread", lambda: (Table(["a", "b", "c"], []),), "b", "c")
    assert_executors_agree("inner_join", lambda: empty() + empty())
    assert_executors_agree(
        "summarise", lambda: (dplyr.group_by(empty()[0], ["a"]),), "agg", "n", None
    )


def test_missing_value_comparison_errors_agree():
    # An ordered comparison against a missing cell raises; both executors
    # must raise the same error on small and larger tables alike.
    for n_rows in (4, 64):
        data = [[index, None] for index in range(n_rows)]
        assert_executors_agree(
            "filter",
            lambda: (Table(["i", "v"], data),),
            Predicate("v", "<", Constant(3)),
            context=f"rows={n_rows}",
        )
