"""Tests for linear expressions and formula construction."""

import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.smt import (
    FALSE,
    TRUE,
    And,
    Atom,
    BoolVal,
    Int,
    LinExpr,
    Not,
    Or,
    conjoin,
    disjoin,
    formula_atoms,
    formula_variables,
)


class TestLinExpr:
    def test_variable_and_constant(self):
        x = Int("x")
        assert x.coeffs == {"x": 1}
        assert LinExpr.constant(5).const == 5

    def test_addition_collects_coefficients(self):
        x, y = Int("x"), Int("y")
        expr = x + y + x + 3
        assert expr.coeffs == {"x": 2, "y": 1}
        assert expr.const == 3

    def test_subtraction_and_negation(self):
        x, y = Int("x"), Int("y")
        expr = x - y - 2
        assert expr.coeffs == {"x": 1, "y": -1}
        assert expr.const == -2
        assert (-expr).const == 2

    def test_scalar_multiplication(self):
        x = Int("x")
        assert (3 * x).coeffs == {"x": 3}
        assert (x * Fraction(1, 2)).coeffs == {"x": Fraction(1, 2)}

    def test_product_of_variables_rejected(self):
        with pytest.raises(TypeError):
            Int("x") * Int("y")

    def test_zero_coefficients_dropped(self):
        x = Int("x")
        assert (x - x).coeffs == {}

    def test_evaluate(self):
        expr = Int("x") * 2 + Int("y") - 1
        assert expr.evaluate({"x": 3, "y": 4}) == 9

    def test_structural_equality(self):
        assert Int("x") + 1 == Int("x") + 1
        assert Int("x") != Int("y")


class TestAtoms:
    def test_le_normalisation(self):
        atom = Int("x") <= 5
        assert atom.op == "<="
        assert atom.holds({"x": 5})
        assert not atom.holds({"x": 6})

    def test_strict_inequality_uses_integrality(self):
        atom = Int("x") < 5
        assert atom.holds({"x": 4})
        assert not atom.holds({"x": 5})

    def test_ge_gt(self):
        assert (Int("x") >= 2).holds({"x": 2})
        assert (Int("x") > 2).holds({"x": 3})
        assert not (Int("x") > 2).holds({"x": 2})

    def test_equality_atom(self):
        atom = Int("x").equals(Int("y") + 1)
        assert atom.op == "=="
        assert atom.holds({"x": 3, "y": 2})

    def test_negated_atoms(self):
        le = Int("x") <= 3
        (negated,) = le.negated_atoms()
        assert negated.holds({"x": 4})
        assert not negated.holds({"x": 3})
        eq = Int("x").equals(3)
        branches = eq.negated_atoms()
        assert len(branches) == 2
        assert any(branch.holds({"x": 2}) for branch in branches)
        assert any(branch.holds({"x": 4}) for branch in branches)

    def test_variables(self):
        atom = (Int("a") + Int("b")) <= 0
        assert atom.variables() == ("a", "b")


class TestFormulas:
    def test_conjoin_simplifies(self):
        assert conjoin([]) == TRUE
        assert conjoin([TRUE, TRUE]) == TRUE
        assert conjoin([FALSE, Int("x") <= 1]) == FALSE
        single = Int("x") <= 1
        assert conjoin([single]) is single

    def test_disjoin_simplifies(self):
        assert disjoin([]) == FALSE
        assert disjoin([TRUE, Int("x") <= 1]) == TRUE

    def test_nary_flattening(self):
        a, b, c = (Int(name) <= 0 for name in "abc")
        formula = And(And(a, b), c)
        assert len(formula.operands) == 3

    def test_operator_overloads(self):
        a, b = Int("a") <= 0, Int("b") <= 0
        assert isinstance(a & b, And)
        assert isinstance(a | b, Or)
        assert isinstance(~a, Not)

    def test_formula_variables_and_atoms(self):
        formula = And(Int("a") <= 0, Or(Int("b").equals(1), Not(Int("a") <= 0)))
        assert formula_variables(formula) == ("a", "b")
        assert len(formula_atoms(formula)) == 2

    def test_boolval_repr(self):
        assert repr(BoolVal(True)) == "true"


class TestProperties:
    @given(
        st.dictionaries(st.sampled_from("xyz"), st.integers(-50, 50), min_size=1, max_size=3),
        st.integers(-50, 50),
        st.dictionaries(st.sampled_from("xyz"), st.integers(-20, 20), min_size=3, max_size=3),
    )
    def test_addition_is_pointwise(self, coeffs, const, assignment):
        expr = LinExpr(coeffs, const)
        doubled = expr + expr
        assert doubled.evaluate(assignment) == 2 * expr.evaluate(assignment)

    @given(
        st.integers(-30, 30),
        st.integers(-30, 30),
        st.dictionaries(st.sampled_from("ab"), st.integers(-20, 20), min_size=2, max_size=2),
    )
    def test_le_atom_matches_semantics(self, scale, offset, assignment):
        expr = Int("a") * scale + offset - Int("b")
        atom = expr <= 0
        assert atom.holds(assignment) == (expr.evaluate(assignment) <= 0)


#: (variable, coefficient) terms of a linear expression, possibly repeating.
TERMS = st.lists(
    st.tuples(
        st.sampled_from(["x", "y", "n1.row", "n2.col"]),
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
    ),
    max_size=6,
)
CONSTS = st.fractions(min_value=-20, max_value=20, max_denominator=3)


def sum_in_order(terms, const):
    expr = LinExpr.constant(const)
    for name, coeff in terms:
        expr = expr + Int(name) * coeff
    return expr


def fresh(expr):
    """The same expression, rebuilt through the public constructor."""
    return LinExpr(dict(expr.coeffs), expr.const)


class TestHashOnce:
    @given(TERMS, CONSTS, st.randoms(use_true_random=False))
    def test_arithmetic_order_does_not_matter(self, terms, const, rng):
        forward = sum_in_order(terms, const)
        shuffled = list(terms)
        rng.shuffle(shuffled)
        backward = LinExpr.constant(const) - sum_in_order(
            [(name, -coeff) for name, coeff in reversed(shuffled)], 0
        )
        assert forward == backward
        assert hash(forward) == hash(backward)
        assert (forward <= 0) == (backward <= 0)
        assert hash(forward <= 0) == hash(backward <= 0)

    @given(TERMS, CONSTS)
    def test_cached_hash_equals_a_fresh_structural_hash(self, terms, const):
        expr = sum_in_order(terms, const)
        first = hash(expr)
        assert hash(expr) == first == hash(fresh(expr))
        atom = expr.equals(1)
        other = (expr <= 2) | Not(atom)
        assert hash(atom) == hash(Atom(atom.op, fresh(atom.expr)))
        rebuilt = Or(Atom("<=", fresh((expr <= 2).expr)), Not(Atom("==", fresh(atom.expr))))
        assert other == rebuilt and hash(other) == hash(rebuilt)

    @given(TERMS, CONSTS)
    def test_zero_coefficients_never_survive_arithmetic(self, terms, const):
        expr = sum_in_order(terms, const)
        cancelled = expr - expr
        assert dict(cancelled.coeffs) == {} and cancelled.const == 0
        assert cancelled == LinExpr.constant(0)
        assert all(coeff != 0 for coeff in expr.coeffs.values())
        assert (expr * 0) == LinExpr.constant(0)

    def test_coefficients_cannot_be_mutated(self):
        expr = Int("x") + 2 * Int("y") + 3
        before = hash(expr)
        with pytest.raises(TypeError):
            expr.coeffs["x"] = Fraction(5)
        with pytest.raises(AttributeError):
            expr.const = Fraction(7)
        with pytest.raises(AttributeError):
            expr.coeffs = {}
        with pytest.raises(AttributeError):
            del expr.const
        assert hash(expr) == before and expr == Int("x") + 2 * Int("y") + 3

    def test_equality_returns_early_on_identity(self):
        atom = Int("x") <= 3
        formula = And(atom, Not(atom))
        for node in (atom, atom.expr, formula, formula.operands[1]):
            assert node == node

    def test_formula_atoms_keeps_first_appearance_order(self):
        a, b, c = (Int(name) <= 0 for name in "abc")
        formula = And(b, Or(a, Not(Int("b") <= 0)), c, a)
        assert formula_atoms(formula) == (b, a, c)
        assert formula_atoms(formula)[0] is b

    def test_pickled_terms_rehash_under_another_hash_seed(self):
        # A stored hash of a string-keyed term is only valid in the process
        # (hash seed) that computed it: unpickling must recompute it.
        formula = And(Int("n1.row").equals(3), Not(Int("n2.col") <= 1))
        hash(formula)
        script = (
            "import pickle, sys\n"
            "from repro.smt import And, Int, Not\n"
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            "fresh = And(Int('n1.row').equals(3), Not(Int('n2.col') <= 1))\n"
            "print(loaded == fresh and hash(loaded) == hash(fresh)\n"
            "      and hash(loaded.operands[0].expr) == hash(fresh.operands[0].expr))\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        for seed in ("1", "2"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                input=pickle.dumps(formula),
                capture_output=True,
                env={"PYTHONHASHSEED": seed, "PYTHONPATH": str(src)},
                check=True,
            )
            assert result.stdout.strip() == b"True"
