"""Parser, printer, and size measure for the formula language."""

from __future__ import annotations

import hashlib
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    lexed,
    lexer_corpus,
    one_place_faults,
    printing_corpus,
    question_formula,
    random_formula,
    shared_formula,
)
from inqcheck import syntax
from inqcheck.checker import CheckQuery, MemoCache, evaluate
from inqcheck.kernels import OP_ATOM, OP_BOT, OP_IMPLIES, OP_IVEE, Program, RowBuilder, formula_of, lower_formula
from inqcheck.model import InfoState
from inqcheck.qbf import Var, random_qbf
from inqcheck.reduction import reduce_tqbf
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
    fresh,
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

    def test_atom_index_past_the_int_digit_limit(self):
        # int() refuses more than 4300 digits by default
        for node in (fresh, RowBuilder()):
            with pytest.raises(ParseError, match="atom index of 5000 digits") as info:
                parse_formula("p0 & p" + "1" * 5000, node=node)
            assert info.value.offset == 5


class TestRender:
    def test_binary_fully_parenthesized(self):
        assert render_formula(IVee(Atom(0), Atom(1))) == "(p0 ior p1)"

    def test_atom_index_past_the_int_digit_limit(self):
        # str() refuses more than 4300 digits by default; the error names
        # the atom by its index's bit length, for objects and rows alike
        f = And(Atom(0), Atom(10**5000))
        node = RowBuilder()
        program = node.program(node(And, node(Atom, 0), node(Atom, 10**5000)))
        for g in (f, program):
            with pytest.raises(ValueError, match="the atom with a 16610-bit index"):
                render_formula(g)

    def test_terminals(self):
        assert render_formula(Bottom()) == "bot"
        assert render_formula(WBox(Atom(2))) == "wbox p2"

    def test_nested(self):
        f = Implies(And(Atom(0), Atom(1)), Box(Bottom()))
        assert render_formula(f) == "((p0 & p1) -> box bot)"

    @given(formulas())
    def test_round_trip(self, f):
        assert parse_formula(render_formula(f)) == f

    @pytest.mark.parametrize("bad", ["p0", 0, None, Var(0)])
    def test_non_formula_node_raises(self, bad):
        with pytest.raises(TypeError, match="cannot print"):
            render_formula(And(Atom(0), Box(bad)))

    def test_library_corpus_is_pinned(self):
        texts = [render_formula(f) for f in printing_corpus()]
        assert len(texts) == 300
        assert sum("let " in text for text in texts) > 50
        digest = hashlib.sha256("\0".join(texts).encode()).hexdigest()
        # the text of the object printer this one replaced, which named
        # shared objects from a walk of its own
        assert digest == "156379551b7decf4db32f0b2f4207f2bbcb11f06fcd7b56406732852b0768ad8"


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


class TestAtom:
    @pytest.mark.parametrize("bad", [1.5, 1.0, "1", None])
    def test_non_integer_index_is_refused(self, bad):
        # at construction, not later inside an engine, == or the printer
        with pytest.raises(TypeError, match=f"atom index must be an integer, got {bad!r}"):
            Atom(bad)

    def test_integer_types_are_stored_as_int(self):
        class Index(int):
            pass

        for index, want in ((True, 1), (False, 0), (Index(3), 3)):
            atom = Atom(index)
            assert type(atom.index) is int and atom.index == want
            assert render_formula(atom) == f"p{want}"
            assert parse_formula(render_formula(atom)) == atom

    def test_index_past_64_bits(self):
        atom = Atom(10**20)
        assert atom == Atom(10**20) and hash(atom) == hash(Atom(10**20))
        assert parse_formula(render_formula(atom)) == atom


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


def tree_text(f) -> str:
    """The formula printed as a tree, every place in full: the printer's
    output before definitions, written independently of it."""
    if isinstance(f, Bottom):
        return "bot"
    if isinstance(f, Atom):
        return f"p{f.index}"
    if isinstance(f, (Box, WBox)):
        return ("box " if isinstance(f, Box) else "wbox ") + tree_text(f.body)
    connective = {And: "&", IVee: "ior", Implies: "->"}[type(f)]
    return f"({tree_text(f.left)} {connective} {tree_text(f.right)})"


def distinct_composites(f) -> int:
    return len({id(g) for g in subformulas(f) if not isinstance(g, (Atom, Bottom))})


def weighted_tree_size(f) -> int:
    return sum(1 + (g.index + 1).bit_length() if isinstance(g, Atom) else 1 for g in subformulas(f))


class TestDefinitions:
    def test_a_use_is_the_defined_object(self):
        f = parse_formula("let a = (p0 & p1);\nlet b = ?a;\n(b -> a)")
        assert f == Implies(question(And(Atom(0), Atom(1))), And(Atom(0), Atom(1)))
        assert f.left.left is f.right
        assert f.left.right.left is f.right

    def test_shared_object_is_printed_once(self):
        x = And(Atom(0), Atom(1))
        assert render_formula(IVee(x, Box(x))) == "let f0 = (p0 & p1);\n(f0 ior box f0)"

    def test_definitions_come_before_their_uses(self):
        x = Implies(Atom(0), Bottom())
        y = And(x, x)
        text = render_formula(IVee(y, y))
        assert text == "let f0 = (p0 -> bot);\nlet f1 = (f0 & f0);\n(f1 ior f1)"

    def test_shared_leaves_are_not_named(self):
        p, b = Atom(3), Bottom()
        assert render_formula(And(p, p)) == "(p3 & p3)"
        assert render_formula(Implies(Box(p), IVee(b, b))) == "(box p3 -> (bot ior bot))"

    @given(formulas())
    def test_tree_prints_as_before(self, f):
        assert render_formula(f) == tree_text(f)

    def test_equal_distinct_objects_print_as_a_tree(self):
        f = And(And(Atom(0), Atom(1)), And(Atom(0), Atom(1)))
        assert render_formula(f) == "((p0 & p1) & (p0 & p1))"

    @pytest.mark.parametrize("seed", range(60))
    def test_shared_round_trip(self, seed):
        f = shared_formula(random.Random(seed), 3 + seed % 18)
        g = parse_formula(render_formula(f))
        assert g == f
        assert lower_formula(g) == lower_formula(f)
        assert distinct_composites(g) == distinct_composites(f)
        assert render_formula(g) == render_formula(f)
        assert formula_size(g) == formula_size(f) == weighted_tree_size(f)

    @pytest.mark.parametrize("make", [random_formula, question_formula])
    def test_conftest_formulas_round_trip(self, make):
        rng = random.Random(1313)
        for _ in range(150):
            f = make(rng, 3, 5, True)
            g = parse_formula(render_formula(f))
            assert g == f
            assert lower_formula(g) == lower_formula(f)
            assert formula_size(g) == formula_size(f) == weighted_tree_size(f)

    def test_row_builder_shares_equal_nodes(self):
        node = RowBuilder()
        a = question(node(Atom, 1), node)
        b = question(node(Atom, 1), node)
        assert a == b == 3
        program = node.program(a)
        # p1, bot, p1 -> bot, p1 ior (p1 -> bot)
        assert program.ops == (OP_ATOM, OP_BOT, OP_IMPLIES, OP_IVEE)
        assert program.left == (0, 0, 0, 0) and program.right == (0, 0, 1, 2)
        assert program.payload == (1, 0, 0, 0)
        assert formula_of(program) == question(Atom(1))


DEFINITION_ERRORS = [
    ("let a = p0; b", 12),  # undefined name
    ("let a = b; let b = p0; a", 8),  # used before its definition
    ("let a = p0; let a = p1; a", 16),  # defined twice
    ("let a p0; a", 6),  # no "="
    ("let a = p0 a", 11),  # no ";"
    ("let a = p0;", 11),  # no formula after the definitions
    ("p0 let a = p1; a", 3),  # a definition after the formula
    ("let bot = p0; bot", 4),  # a keyword
    ("let let = p0; p0", 4),
    ("let p3 = p0; p3", 4),  # an atom
    ("let = p0; p0", 4),
]


class TestDefinitionErrors:
    @pytest.mark.parametrize("text, offset", DEFINITION_ERRORS)
    def test_offset(self, text, offset):
        with pytest.raises(ParseError) as info:
            parse_formula(text)
        assert info.value.offset == offset
        assert f"offset {offset}" in str(info.value)

    def test_messages_name_the_fault(self):
        with pytest.raises(ParseError, match="'b' is not defined"):
            parse_formula("let a = p0; b")
        with pytest.raises(ParseError, match="'a' is already defined"):
            parse_formula("let a = p0; let a = p1; a")
        with pytest.raises(ParseError, match="found 'p3'"):
            parse_formula("let p3 = p0; p3")


def parsed_rows(text: str):
    """The program that text parses to through a RowBuilder."""
    node = RowBuilder()
    return node.program(parse_formula(text, node=node))


MALFORMED = [
    "p0 ior or p1",
    "   ",
    "p0 ior p1 or p2",
    "wbox (q)",
    "p0 & p²",
    "(p0 & p1",
    "p0)",
    "p0 -> ",
    "? ? ",
    "p0 - p1",
    "p0 $ p1",
    "let a = ?p0; a & b",
    "let a = ?p0; let b = a & a; b ior (a -> c)",
] + [text for text, _ in DEFINITION_ERRORS]


class TestRowParse:
    """Parsing into rows through a RowBuilder gives the formula that
    parsing into objects gives, and the same errors."""

    @settings(max_examples=60, deadline=None)
    @given(formulas(max_depth=5))
    def test_hypothesis_formulas(self, f):
        text = render_formula(f)
        assert parsed_rows(text) == lower_formula(parse_formula(text))

    def test_texts_with_definitions(self):
        rng = random.Random(1515)
        defined = 0
        for i in range(40):
            f = shared_formula(rng, 3 + i % 20, questions=i % 2 == 1)
            text = render_formula(f)
            defined += "let " in text
            program = parsed_rows(text)
            assert program == lower_formula(parse_formula(text)) == lower_formula(f)
            # the text's DAG, interned: one row per distinct subformula
            assert program.num_nodes == lower_formula(f).num_nodes
        assert defined >= 30

    @pytest.mark.parametrize("l", range(1, 10))
    def test_compiled_texts(self, l):
        instance = reduce_tqbf(random_qbf(70 + l, l, 100))
        text = render_formula(instance.formula)
        program = parsed_rows(text)
        assert program == lower_formula(parse_formula(text)) == instance.program

    @pytest.mark.parametrize(
        "text, rows",
        [
            ("let a = p9; box p0", 2),  # the unused row is the first one built
            ("let a = p9; p0 & p0", 2),
            ("let a = p0 & p9; let b = box a; p0 ior p1", 3),
            ("let a = ?p0; let b = a & a; a", 4),  # b is built after the root
            ("let a = p3; let b = a; b -> b", 2),
        ],
    )
    def test_unused_definitions_leave_no_rows(self, text, rows):
        program = parsed_rows(text)
        assert program.num_nodes == rows
        assert program == lower_formula(parse_formula(text))

    def test_build_order_does_not_show(self):
        # p1 is built first here and p0 first there: one DAG, one program
        program = parsed_rows("let a = p1; let b = p0; (b & a) ior a")
        assert program == parsed_rows("(p0 & p1) ior p1") == lower_formula(parse_formula("(p0 & p1) ior p1"))

    def test_negative_atom_index_is_refused(self):
        node = RowBuilder()
        with pytest.raises(ValueError, match="atom index must be non-negative, got -1"):
            node.program(node(And, node(Atom, 0), node(Atom, -1)))
        # the rows built are checked, whether root reaches them or not
        with pytest.raises(ValueError, match="atom index must be non-negative, got -1"):
            node.program(node(Atom, 0))

    def test_rows_as_built(self):
        # built in the root's postorder, the rows need no renumbering
        node = RowBuilder()
        p0 = node(Atom, 0)
        root = node(Implies, node(Box, p0), node(IVee, p0, node(Bottom)))
        program = node.program(root)
        assert node.program_as_built(root) == program == lower_formula(formula_of(program))
        # the root must be the last row built, and atom indices non-negative
        with pytest.raises(ValueError, match="row 1 is not the last row built, 4"):
            node.program_as_built(1)
        node(Atom, -1)
        with pytest.raises(ValueError, match="atom index must be non-negative, got -1"):
            node.program_as_built(5)

    @pytest.mark.parametrize("text", MALFORMED)
    def test_malformed_texts_fail_alike(self, text):
        with pytest.raises(ParseError) as objects:
            parse_formula(text)
        with pytest.raises(ParseError) as rows:
            parse_formula(text, node=RowBuilder())
        a, b = objects.value, rows.value
        assert (b.offset, b.expected, b.found, str(b)) == (a.offset, a.expected, a.found, str(a))


def sized_text(nodes: int, base: str = "p0", base_nodes: int = 1) -> str:
    """A formula text whose tree has exactly `nodes` nodes: a conjunction
    of doubling chains over base (a text of base_nodes nodes) and a box
    or so in front."""
    sizes = [base_nodes]
    while 2 * sizes[-1] + 1 <= nodes:
        sizes.append(2 * sizes[-1] + 1)
    parts, left = [], nodes
    for k in reversed(range(len(sizes))):
        while sizes[k] + (1 if parts else 0) <= left:
            left -= sizes[k] + (1 if parts else 0)
            parts.append(f"d{k}")
    lets = [f"let d0 = ({base});"] + [f"let d{k} = (d{k - 1} & d{k - 1});" for k in range(1, len(sizes))]
    return "\n".join(lets) + "\n" + "box " * left + "(" + " & ".join(parts) + ")"


# texts with prefix operators and derived forms, whose trees the parser
# expands: `?` holds its operand twice, `or` adds seven nodes
_BASES = ["p0", "? (p0 & p1)", "(p0 or p1) -> ? not p2", "box ? wbox ? p0", "? ? (p0 ior bot)"]


def doubling_chain(base: str, depth: int) -> str:
    """Definitions d0 = base, d_k = (d_{k-1} & d_{k-1}), then d_depth: a
    text whose tree has about 2^depth copies of base."""
    lets = [f"let d0 = {base};\n"] + [f"let d{k} = (d{k - 1} & d{k - 1});\n" for k in range(1, depth + 1)]
    return "".join(lets) + f"d{depth}\n"


class TestExpansionLimit:
    """There is no limit on the tree a text expands to: the parser builds
    a DAG of the text's size, and every pass of a query costs that DAG."""

    @pytest.mark.parametrize("base", _BASES)
    def test_sized_text_has_its_size(self, base):
        base_nodes = len(subformulas(parse_formula(base)))
        for nodes in (base_nodes, base_nodes + 1, 97, 1000, 4321):
            if nodes >= base_nodes:
                f = parse_formula(sized_text(nodes, base, base_nodes))
                assert len(subformulas(f)) == nodes

    @pytest.mark.parametrize("base", _BASES)
    def test_doubling_chain_is_read_as_its_dag(self, base):
        # 2^60 copies of base as a tree, 60 rows above base's as a program
        start = time.perf_counter()
        f = parse_formula(doubling_chain(f"({base})", 60))
        program = lower_formula(f)
        assert time.perf_counter() - start < 1
        assert program.num_nodes == lower_formula(parse_formula(base)).num_nodes + 60
        assert f == parse_formula(doubling_chain(f"({base})", 60))

    def test_repeated_questions_get_the_verdict_of_one(self, demo_model):
        # `? ? f` is `? f`: a singleton state supports `? f`, so only the
        # empty state supports `not ? f`. Forty `?` are 2^40 copies of
        # (p0 & p1) as a tree, and 81 rows above it as a program
        f = parse_formula("?" * 40 + " (p0 & p1)")
        once = parse_formula("? (p0 & p1)")
        start = time.perf_counter()
        for s in range(1 << demo_model.n):
            state = InfoState(s, demo_model.n)
            want = evaluate(CheckQuery(demo_model, state, once), engine="naive").value
            assert evaluate(CheckQuery(demo_model, state, f), engine="table").value == want
        assert time.perf_counter() - start < 1

    def test_compiled_instances_are_far_below(self):
        # the text read back shares what the compiled formula shares: its
        # distinct objects are far below its tree's nodes
        instance = reduce_tqbf(random_qbf(5, 64, 120))
        back = parse_formula(render_formula(instance.formula))
        assert back == instance.formula
        assert 10 * distinct_composites(back) < len(subformulas(back))


class TestProgramRender:
    """A program prints as its formula objects do, and its text parses
    back into a program of the same DAG."""

    def assert_round_trip(self, program):
        text = render_formula(program)
        assert text == render_formula(formula_of(program))
        back = parsed_rows(text)
        assert back == program and hash(back) == hash(program)
        return back

    @pytest.mark.parametrize("l", range(1, 25))
    def test_compiled_programs(self, l):
        instance = reduce_tqbf(random_qbf(160 + l, l, 40 + 5 * l))
        p = instance.program
        # taken as built, unchecked, and still a program the check accepts
        assert Program(p.ops, p.left, p.right, p.payload) == p
        back = self.assert_round_trip(instance.program)
        # compiled, parsed and lowered, one DAG is one value and one entry
        lowered = lower_formula(instance.formula)
        assert instance.program == back == lowered
        assert hash(instance.program) == hash(back) == hash(lowered)
        cache, model = MemoCache(), instance.model.model
        entry = cache.root(model, instance.program)
        assert cache.root(model, instance.formula) is entry and cache.root(model, back) is entry
        assert cache.root(model, lowered) is entry

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_hypothesis_dags(self, data):
        node = RowBuilder()
        rows = [node(Bottom)] + [node(Atom, i) for i in data.draw(st.lists(st.integers(0, 2**70), min_size=1, max_size=4))]
        kinds = st.sampled_from([And, IVee, Implies, Box, WBox])
        for kind, a, b in data.draw(st.lists(st.tuples(kinds, st.integers(0), st.integers(0)), min_size=1, max_size=40)):
            a, b = rows[a % len(rows)], rows[b % len(rows)]
            rows.append(node(kind, a) if kind in (Box, WBox) else node(kind, a, b))
        program = node.program(rows[-1])
        assert program == lower_formula(formula_of(program))
        assert Program(program.ops, program.left, program.right, program.payload) == program
        self.assert_round_trip(program)

    def test_shared_leaves_and_both_sides(self):
        node = RowBuilder()
        p0 = node(Atom, 0)
        both = node(And, p0, p0)
        program = node.program(node(IVee, both, node(Box, both)))
        assert render_formula(program) == "let f0 = (p0 & p0);\n(f0 ior box f0)"
        self.assert_round_trip(program)


class TestDeepValues:
    # equality and the hash read the lowered rows, so 10,000 levels cost
    # no Python frames, and a query over such a formula hashes too
    def test_deep_formulas_compare_and_hash(self, demo_model):
        a = parse_formula("not " * 10_000 + "p0")
        b = parse_formula("not " * 10_000 + "p0")
        c = parse_formula("not " * 10_000 + "p1")
        assert a == b and a is not b
        assert a != c and a != parse_formula("not " * 9_999 + "p0")
        assert hash(a) == hash(b)
        assert {a, b, c} == {b, c}
        assert len({a, b, c}) == 2
        state = InfoState(0b101, demo_model.n)
        queries = {CheckQuery(demo_model, state, f) for f in (a, b, c)}
        assert len(queries) == 2

    def test_tree_equals_the_dag_it_expands_to(self):
        x = And(Atom(0), Implies(Atom(1), Bottom()))
        shared = IVee(x, Box(x))
        tree = IVee(And(Atom(0), Implies(Atom(1), Bottom())), Box(And(Atom(0), Implies(Atom(1), Bottom()))))
        assert shared == tree and hash(shared) == hash(tree)
        assert shared != IVee(x, WBox(x)) and shared != IVee(Box(x), x)
        assert Atom(0) == Atom(0) and Atom(0) != Atom(1) and Atom(0) != Bottom()
        assert Atom(0) != 0 and And(Atom(0), Atom(0)) != (Atom(0), Atom(0))

    def test_atoms_past_64_bits_compare_and_hash(self):
        # a payload column holds ints of any size
        big = 10**20
        assert Atom(big) == Atom(big) and hash(Atom(big)) == hash(Atom(big))
        assert Atom(big) != Atom(big + 1) and Atom(big) != Atom(0)
        assert And(Atom(big), Atom(0)) == And(Atom(big), Atom(0))
        assert And(Atom(big), Atom(0)) != And(Atom(0), Atom(big))
        assert len({Atom(big), Atom(big), Atom(big + 1), Atom(0)}) == 3
        text = "p99999999999999999999 & p0"
        lowered, parsed = lower_formula(parse_formula(text)), parsed_rows(text)
        assert lowered == parsed and hash(lowered) == hash(parsed)
        assert lowered.payload == (99999999999999999999, 0, 0)


# valid texts that cover the whole grammar, which lexer_corpus cuts,
# mutates and splices
FORMULA_TEXTS = [
    "p0 ior not p0",
    "let a = ?p0;\nlet b = (a & a);\nb -> box a",
    "(p0 or p1) -> ? not p2  # a comment\n",
    "wbox (p10 & bot) ior (p3 -> p4)",
    "let x_1 = p0 & p1; not x_1 or ?x_1",
    "box ? wbox ? p0",
]


def formula_outcome(text: str) -> tuple:
    """What parsing text gives: the core text of its formula, or the
    error's offset, expected set, found text and message."""
    try:
        return ("ok", render_formula(parse_formula(text)))
    except ParseError as e:
        return (e.offset, sorted(e.expected), e.found, str(e))


class TestLexer:
    def test_corpus_outcomes_are_pinned(self):
        corpus = lexer_corpus(1616, FORMULA_TEXTS)
        assert len(corpus) == 300
        outcomes = [formula_outcome(text) for text in corpus]
        assert sum(outcome[0] != "ok" for outcome in outcomes) > 200
        digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
        # the outcomes of the character-by-character lexer this one replaced
        assert digest == "208f1623d97fdb34ed947a030d41b63acfeb8aa78cd0bc51cd29df4dc9e6e67f"

    def test_plain_text_lexes_as_the_regex_does(self, monkeypatch):
        # rendered library and compiled formulas, most of them plain, and
        # one-place faults of them, some plain and most not: the tokens,
        # and what the parser makes of them, are the regex's
        texts = [render_formula(f) for f in printing_corpus()[::5]]
        texts += [render_formula(reduce_tqbf(random_qbf(seed, 3, 30)).program) + "\n" for seed in range(5)]
        texts += FORMULA_TEXTS
        corpus = texts + one_place_faults(3535, texts, 1500)
        lexer = syntax._FORMULA_LEXER
        plain = sum(lexer.plain.fullmatch(text) is not None for text in corpus)
        assert 300 < plain < len(corpus) - 600, plain
        for text in corpus:
            assert lexed(lexer.tokens(text)) == lexed(lexer.token.findall(text)), text
        outcomes = [formula_outcome(text) for text in corpus]
        monkeypatch.setattr(lexer, "plain", re.compile("(?!)"))
        assert [formula_outcome(text) for text in corpus] == outcomes

    @pytest.mark.parametrize("end", ["p0", "", "p0 $"])
    def test_a_million_blanks_lex_fast(self, end):
        text = ("  \t\r\n# a comment # \n" * 50_000)[:1_000_000] + "\n" + end
        start = time.perf_counter()
        if end == "p0":
            assert parse_formula(text) == Atom(0)
        else:
            with pytest.raises(ParseError) as info:
                parse_formula(text)
            assert info.value.offset == (text.index("$") if end else len(text))
        assert time.perf_counter() - start < 0.5
