"""Independent output oracle for returned programs.

A returned program is run again by the row-major executor in
``repro.components.reference`` -- not by the columnar verbs, their backend
or the execution cache the synthesizer used -- and its output is compared
with the expected table by the row-multiset check below, not by
``repro.dataframe.compare``.  Like the synthesizer's own check, rows are a
multiset and columns match up to renaming.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from repro.components import reference
from repro.components.errors import PRUNABLE_ERRORS
from repro.core.hypothesis import Hole


def _prefix(node) -> str:
    # The fresh-column naming convention of repro.core.hypothesis.evaluate;
    # later verbs in the same program refer to these names.
    return f"_n{node.node_id}_"


def _gather(node, tables, args):
    (columns,) = args
    names = list(columns.names)
    return reference.gather(tables[0], "key_" + "_".join(names), _prefix(node) + "value", names)


_VERBS = {
    "gather": _gather,
    "spread": lambda node, tables, args: reference.spread(tables[0], args[0].name, args[1].name),
    "separate": lambda node, tables, args: reference.separate(
        tables[0], args[0].name, [_prefix(node) + "left", _prefix(node) + "right"]
    ),
    "unite": lambda node, tables, args: reference.unite(
        tables[0], _prefix(node) + "united", list(args[0].names)
    ),
    "select": lambda node, tables, args: reference.select(tables[0], list(args[0].names)),
    "filter": lambda node, tables, args: reference.filter_rows(tables[0], args[0]),
    "group_by": lambda node, tables, args: reference.group_by(tables[0], list(args[0].names)),
    "summarise": lambda node, tables, args: reference.summarise(
        tables[0], _prefix(node) + "agg", args[0].function, args[0].column
    ),
    "mutate": lambda node, tables, args: reference.mutate(tables[0], _prefix(node) + "val", args[0]),
    "inner_join": lambda node, tables, args: reference.inner_join(tables[0], tables[1]),
    "arrange": lambda node, tables, args: reference.arrange(tables[0], list(args[0].names)),
}


def run_reference(program, inputs):
    """Evaluate a complete program with the reference executor."""
    if isinstance(program, Hole):
        return inputs[program.binding]
    tables = [run_reference(child, inputs) for child in program.table_children]
    args = [hole.value for hole in program.value_children]
    return _VERBS[program.component.name](program, tables, args)


def _cell(value):
    if value is None:
        return ("na",)
    if isinstance(value, (int, float, Fraction)) and not isinstance(value, bool):
        return ("num", float(f"{float(value):.9g}"))
    return ("str", str(value))


def _columns(table):
    return [[_cell(row[index]) for row in table.rows] for index in range(len(table.columns))]


def same_rows(actual, expected) -> bool:
    """Rows equal as a multiset under some bijection between the columns."""
    if len(actual.rows) != len(expected.rows) or len(actual.columns) != len(expected.columns):
        return False
    got, want = _columns(actual), _columns(expected)
    got_bags = [Counter(column) for column in got]
    want_bags = [Counter(column) for column in want]
    wanted_rows = Counter(zip(*want))
    order: list = []

    def assign(position: int) -> bool:
        if position == len(want):
            return Counter(zip(*(got[index] for index in order))) == wanted_rows
        for index, bag in enumerate(got_bags):
            if index not in order and bag == want_bags[position]:
                order.append(index)
                if assign(position + 1):
                    return True
                order.pop()
        return False

    return assign(0)


def check(program, inputs, expected) -> bool:
    """True when *program* reproduces *expected* on *inputs*."""
    try:
        return same_rows(run_reference(program, inputs), expected)
    except PRUNABLE_ERRORS:
        # The reference executor rejects the program: it does not reproduce
        # the example, and the caller counts a failure.
        return False
