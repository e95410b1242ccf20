"""Parser, printer, and size measure for the formula language."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from inqcheck.syntax import (
    And,
    Atom,
    Bottom,
    Box,
    IVee,
    Implies,
    ParseError,
    WBox,
    classical_or,
    formula_size,
    neg,
    parse_formula,
    question,
    render_formula,
    subformulas,
)


def formulas(max_depth: int = 8):
    atoms = st.one_of(
        st.just(Bottom()),
        st.integers(min_value=0, max_value=17).map(Atom),
    )
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda p: And(*p)),
            st.tuples(inner, inner).map(lambda p: IVee(*p)),
            st.tuples(inner, inner).map(lambda p: Implies(*p)),
            inner.map(Box),
            inner.map(WBox),
        ),
        max_leaves=2 ** max_depth,
    )


class TestParse:
    def test_derived_forms_expand(self):
        assert parse_formula("p1 ior not p1") == IVee(
            Atom(1), Implies(Atom(1), Bottom())
        )

    def test_bottom(self):
        assert parse_formula("bot") == Bottom()

    def test_unknown_identifier_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("wbox (q)")

    def test_question_is_ior_of_negation(self):
        assert parse_formula("? p0") == parse_formula("p0 ior (p0 -> bot)")

    def test_or_expands_classically(self):
        assert parse_formula("p0 or p1") == neg(And(neg(Atom(0)), neg(Atom(1))))

    def test_impl_right_associative(self):
        assert parse_formula("p0 -> p1 -> p2") == Implies(
            Atom(0), Implies(Atom(1), Atom(2))
        )

    def test_disj_left_associative(self):
        assert parse_formula("p0 ior p1 ior p2") == IVee(IVee(Atom(0), Atom(1)), Atom(2))

    def test_conj_binds_tighter_than_disj(self):
        assert parse_formula("p0 & p1 ior p2") == IVee(And(Atom(0), Atom(1)), Atom(2))

    def test_disj_binds_tighter_than_impl(self):
        assert parse_formula("p0 ior p1 -> p2") == Implies(IVee(Atom(0), Atom(1)), Atom(2))

    def test_prefix_stacks(self):
        assert parse_formula("box wbox not p0") == Box(WBox(neg(Atom(0))))

    def test_mixed_disjunctions_need_parens(self):
        with pytest.raises(ParseError):
            parse_formula("p0 ior p1 or p2")
        # parenthesized mixing is fine
        parse_formula("(p0 ior p1) or p2")

    def test_comments_and_whitespace(self):
        text = "p0  # the first atom\n  ior not p0\n"
        assert parse_formula(text) == question(Atom(0))

    def test_error_carries_offset(self):
        with pytest.raises(ParseError) as info:
            parse_formula("p0 ior or p1")
        assert info.value.offset == 7
        assert "offset 7" in str(info.value)

    def test_error_on_empty_input(self):
        with pytest.raises(ParseError):
            parse_formula("   ")

    def test_multidigit_atom(self):
        assert parse_formula("p17") == Atom(17)

    @pytest.mark.parametrize("word", ["p²", "p¹", "p٣", "p1٣"])
    def test_atom_index_is_ascii_digits(self, word):
        # str.isdigit accepts these; int() rejects the first two and reads
        # the others as 3 and 13
        with pytest.raises(ParseError) as info:
            parse_formula(f"p0 & {word}")
        assert info.value.offset == 5
        assert info.value.found == repr(word)


class TestRender:
    def test_binary_fully_parenthesized(self):
        assert render_formula(IVee(Atom(0), Atom(1))) == "(p0 ior p1)"

    def test_terminals(self):
        assert render_formula(Bottom()) == "bot"
        assert render_formula(WBox(Atom(2))) == "wbox p2"

    def test_nested(self):
        f = Implies(And(Atom(0), Atom(1)), Box(Bottom()))
        assert render_formula(f) == "((p0 & p1) -> box bot)"

    @given(formulas())
    def test_round_trip(self, f):
        assert parse_formula(render_formula(f)) == f


class TestSize:
    def test_bottom(self):
        assert formula_size(Bottom()) == 1

    def test_conjunction_of_atoms(self):
        assert formula_size(And(Atom(0), Atom(0))) == 5

    def test_wide_atom_index(self):
        # index 7 is written in 4 bits
        assert formula_size(Implies(Atom(7), Bottom())) == 7

    def test_atom_cost_grows_with_index(self):
        assert formula_size(Atom(0)) == 2
        assert formula_size(Atom(1)) == 3
        assert formula_size(Atom(2)) == 3
        assert formula_size(Atom(3)) == 4

    @given(formulas())
    def test_size_bounds_node_count(self, f):
        assert formula_size(f) >= sum(1 for _ in subformulas(f))


class TestHelpers:
    def test_neg(self):
        assert neg(Atom(0)) == Implies(Atom(0), Bottom())

    def test_classical_or(self):
        assert classical_or(Atom(0), Atom(1)) == neg(And(neg(Atom(0)), neg(Atom(1))))

    def test_question(self):
        assert question(Atom(3)) == IVee(Atom(3), neg(Atom(3)))

    def test_subformulas_children_first(self):
        f = And(Atom(0), Bottom())
        seen = list(subformulas(f))
        assert seen.index(Atom(0)) < seen.index(f)
        assert seen.index(Bottom()) < seen.index(f)
