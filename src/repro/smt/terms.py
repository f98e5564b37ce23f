"""Linear integer terms and quantifier-free formulas.

The deduction engine of the paper emits formulas in the theory of Linear
Integer Arithmetic (Presburger arithmetic without quantifiers): boolean
combinations of linear constraints over integer variables such as
``?1.row < ?3.row`` or ``x1.col = 4``.  This module defines the term and
formula AST used by :mod:`repro.smt.solver`.

Linear expressions support Python's arithmetic and comparison operators, so
constraints read naturally::

    row_out = Int("out.row")
    row_in = Int("in.row")
    spec = (row_out <= row_in) & (row_out >= 1)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Tuple, Union

Number = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ----------------------------------------------------------------------
# Linear expressions
# ----------------------------------------------------------------------
class LinExpr:
    """A linear expression ``c0 + c1*x1 + ... + cn*xn`` over integer variables.

    Expressions are immutable: :attr:`coeffs` is a read-only view and the
    attributes cannot be rebound, so the structural hash is computed on
    first use and stored.
    """

    __slots__ = ("coeffs", "const", "_hash")

    def __init__(self, coeffs: Mapping[str, Number] = (), const: Number = 0) -> None:
        cleaned: Dict[str, Fraction] = {}
        for name, coeff in dict(coeffs).items():
            coeff = Fraction(coeff)
            if coeff != 0:
                cleaned[name] = coeff
        _init_linexpr(self, cleaned, Fraction(const))

    @staticmethod
    def _build(coeffs: Dict[str, Fraction], const: Fraction) -> "LinExpr":
        """An expression over coefficients that are already ``Fraction``s
        with zeros dropped; *coeffs* is owned by the result from here on."""
        expr = object.__new__(LinExpr)
        _init_linexpr(expr, coeffs, const)
        return expr

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LinExpr is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("LinExpr is immutable")

    def __reduce__(self):
        # Rebuilt through the constructor: a stored hash would be stale in a
        # process with another string-hash seed.
        return (LinExpr, (dict(self.coeffs), self.const))

    # -- construction helpers -------------------------------------------------
    @staticmethod
    def variable(name: str) -> "LinExpr":
        """The expression consisting of a single variable."""
        return LinExpr._build({name: _ONE}, _ZERO)

    @staticmethod
    def constant(value: Number) -> "LinExpr":
        """The constant expression *value*."""
        return LinExpr({}, value)

    @staticmethod
    def coerce(value: "LinOperand") -> "LinExpr":
        """Coerce an int/Fraction/LinExpr into a LinExpr."""
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            return LinExpr.constant(value)
        raise TypeError(f"cannot use {value!r} in a linear expression")

    # -- arithmetic ------------------------------------------------------------
    def _combine(self, other: "LinExpr", sign: int) -> "LinExpr":
        """``self + other`` (*sign* 1) or ``self - other`` (*sign* -1)."""
        coeffs = self.coeffs.copy()
        for name, coeff in other.coeffs.items():
            total = coeffs.get(name)
            if total is None:
                coeffs[name] = coeff if sign > 0 else -coeff
                continue
            total = total + coeff if sign > 0 else total - coeff
            if total:
                coeffs[name] = total
            else:
                del coeffs[name]
        const = self.const + other.const if sign > 0 else self.const - other.const
        return LinExpr._build(coeffs, const)

    def __add__(self, other: "LinOperand") -> "LinExpr":
        return self._combine(LinExpr.coerce(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return LinExpr._build(
            {name: -coeff for name, coeff in self.coeffs.items()}, -self.const
        )

    def __sub__(self, other: "LinOperand") -> "LinExpr":
        return self._combine(LinExpr.coerce(other), -1)

    def __rsub__(self, other: "LinOperand") -> "LinExpr":
        return LinExpr.coerce(other)._combine(self, -1)

    def __mul__(self, scalar: Number) -> "LinExpr":
        if isinstance(scalar, LinExpr):
            raise TypeError("products of variables are not linear")
        scalar = Fraction(scalar)
        if not scalar:
            return LinExpr._build({}, scalar)
        return LinExpr._build(
            {name: coeff * scalar for name, coeff in self.coeffs.items()},
            self.const * scalar,
        )

    __rmul__ = __mul__

    # -- comparisons produce atoms --------------------------------------------
    def __le__(self, other: "LinOperand") -> "Atom":
        return Atom.less_equal(self, LinExpr.coerce(other))

    def __ge__(self, other: "LinOperand") -> "Atom":
        return Atom.less_equal(LinExpr.coerce(other), self)

    def __lt__(self, other: "LinOperand") -> "Atom":
        return Atom.less_than(self, LinExpr.coerce(other))

    def __gt__(self, other: "LinOperand") -> "Atom":
        return Atom.less_than(LinExpr.coerce(other), self)

    def equals(self, other: "LinOperand") -> "Atom":
        """The atom ``self == other`` (named method, ``==`` keeps Python semantics)."""
        return Atom.equal(self, LinExpr.coerce(other))

    def not_equals(self, other: "LinOperand") -> "Formula":
        """The formula ``self != other``."""
        return Not(self.equals(other))

    # -- evaluation / display --------------------------------------------------
    def evaluate(self, assignment: Mapping[str, Number]) -> Fraction:
        """Evaluate under an assignment of variables to numbers."""
        total = self.const
        for name, coeff in self.coeffs.items():
            total += coeff * Fraction(assignment[name])
        return total

    def variables(self) -> Tuple[str, ...]:
        """The variables occurring in this expression."""
        return tuple(sorted(self.coeffs))

    def __repr__(self) -> str:
        pieces = []
        for name in sorted(self.coeffs):
            coeff = self.coeffs[name]
            if coeff == 1:
                pieces.append(name)
            elif coeff == -1:
                pieces.append(f"-{name}")
            else:
                pieces.append(f"{coeff}*{name}")
        if self.const != 0 or not pieces:
            pieces.append(str(self.const))
        return " + ".join(pieces).replace("+ -", "- ")

    def __eq__(self, other: object) -> bool:  # structural equality
        if self is other:
            return True
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self.const == other.const and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash((tuple(sorted(self.coeffs.items())), self.const))
            object.__setattr__(self, "_hash", value)
        return value


def _init_linexpr(expr: LinExpr, coeffs: Dict[str, Fraction], const: Fraction) -> None:
    object.__setattr__(expr, "coeffs", MappingProxyType(coeffs))
    object.__setattr__(expr, "const", const)
    object.__setattr__(expr, "_hash", None)


LinOperand = Union[LinExpr, int, Fraction]


def Int(name: str) -> LinExpr:
    """Create an integer variable (z3-style constructor)."""
    return LinExpr.variable(name)


# ----------------------------------------------------------------------
# Formulas
# ----------------------------------------------------------------------
class Formula:
    """Base class of quantifier-free LIA formulas."""

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)


@dataclass(frozen=True)
class BoolVal(Formula):
    """The constant ``true`` or ``false``."""

    value: bool

    def __repr__(self) -> str:
        return "true" if self.value else "false"


TRUE = BoolVal(True)
FALSE = BoolVal(False)


@dataclass(frozen=True)
class Atom(Formula):
    """A linear constraint in canonical form ``expr <op> 0``.

    ``op`` is ``"<="`` or ``"=="``; strict inequalities are normalised using
    integrality (``a < b`` becomes ``a - b + 1 <= 0``).
    """

    op: str
    expr: LinExpr
    _hash = None

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Atom:
            return NotImplemented
        return self.op == other.op and self.expr == other.expr

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash((self.op, self.expr))
            object.__setattr__(self, "_hash", value)
        return value

    def __reduce__(self):
        return (Atom, (self.op, self.expr))

    @staticmethod
    def less_equal(left: LinExpr, right: LinExpr) -> "Atom":
        """``left <= right``."""
        return Atom("<=", left - right)

    @staticmethod
    def less_than(left: LinExpr, right: LinExpr) -> "Atom":
        """``left < right`` (over the integers: ``left + 1 <= right``)."""
        return Atom("<=", left - right + 1)

    @staticmethod
    def equal(left: LinExpr, right: LinExpr) -> "Atom":
        """``left == right``."""
        return Atom("==", left - right)

    def negated_atoms(self) -> Tuple["Atom", ...]:
        """The negation of this atom as a disjunction of atoms.

        ``not (e <= 0)`` is ``-e + 1 <= 0``; ``not (e == 0)`` is the
        disjunction ``e + 1 <= 0  or  -e + 1 <= 0``.
        """
        if self.op == "<=":
            return (Atom("<=", -self.expr + 1),)
        return (Atom("<=", self.expr + 1), Atom("<=", -self.expr + 1))

    def holds(self, assignment: Mapping[str, Number]) -> bool:
        """Evaluate the atom under a full assignment."""
        value = self.expr.evaluate(assignment)
        if self.op == "<=":
            return value <= 0
        return value == 0

    def variables(self) -> Tuple[str, ...]:
        """Variables occurring in the atom."""
        return self.expr.variables()

    def __repr__(self) -> str:
        return f"({self.expr} {self.op} 0)"


@dataclass(frozen=True)
class Not(Formula):
    """Logical negation."""

    operand: Formula
    _hash = None

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Not:
            return NotImplemented
        return self.operand == other.operand

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash((self.operand,))
            object.__setattr__(self, "_hash", value)
        return value

    def __reduce__(self):
        return (Not, (self.operand,))

    def __repr__(self) -> str:
        return f"(not {self.operand!r})"


class _NaryFormula(Formula):
    """Shared implementation of :class:`And` / :class:`Or`."""

    __slots__ = ("operands", "_hash")
    _symbol = "?"

    def __init__(self, *operands: Formula) -> None:
        flattened = []
        for operand in operands:
            if isinstance(operand, self.__class__):
                flattened.extend(operand.operands)
            else:
                flattened.append(operand)
        self.operands: Tuple[Formula, ...] = tuple(flattened)
        self._hash = None

    def __reduce__(self):
        return (self.__class__, self.operands)

    def __repr__(self) -> str:
        return "(" + f" {self._symbol} ".join(repr(op) for op in self.operands) + ")"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, self.__class__) and self.operands == other.operands

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash((self.__class__.__name__, self.operands))
        return value


class And(_NaryFormula):
    """Conjunction (n-ary, flattening)."""

    _symbol = "and"


class Or(_NaryFormula):
    """Disjunction (n-ary, flattening)."""

    _symbol = "or"


def conjoin(formulas: Iterable[Formula]) -> Formula:
    """Conjunction of an iterable of formulas (``true`` if empty)."""
    formulas = [f for f in formulas if not (isinstance(f, BoolVal) and f.value)]
    if not formulas:
        return TRUE
    if any(isinstance(f, BoolVal) and not f.value for f in formulas):
        return FALSE
    if len(formulas) == 1:
        return formulas[0]
    return And(*formulas)


def disjoin(formulas: Iterable[Formula]) -> Formula:
    """Disjunction of an iterable of formulas (``false`` if empty)."""
    formulas = [f for f in formulas if not (isinstance(f, BoolVal) and not f.value)]
    if not formulas:
        return FALSE
    if any(isinstance(f, BoolVal) and f.value for f in formulas):
        return TRUE
    if len(formulas) == 1:
        return formulas[0]
    return Or(*formulas)


def formula_variables(formula: Formula) -> Tuple[str, ...]:
    """All integer variables occurring in *formula*."""
    seen = set()

    def walk(node: Formula) -> None:
        if isinstance(node, Atom):
            seen.update(node.variables())
        elif isinstance(node, Not):
            walk(node.operand)
        elif isinstance(node, (And, Or)):
            for operand in node.operands:
                walk(operand)

    walk(formula)
    return tuple(sorted(seen))


def formula_atoms(formula: Formula) -> Tuple[Atom, ...]:
    """All distinct atoms occurring in *formula* (in first-appearance order)."""
    atoms: Dict[Atom, None] = {}

    def walk(node: Formula) -> None:
        if isinstance(node, Atom):
            atoms.setdefault(node)
        elif isinstance(node, Not):
            walk(node.operand)
        elif isinstance(node, (And, Or)):
            for operand in node.operands:
                walk(operand)

    walk(formula)
    return tuple(atoms)
