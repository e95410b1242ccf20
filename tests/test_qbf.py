"""QBF parsing into negation normal form, sizes, and the two brute-force evaluators."""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from itertools import product

import pytest

from conftest import lexer_corpus
from inqcheck.qbf import (
    EXISTS,
    FORALL,
    ClosureError,
    NegVar,
    PAnd,
    POr,
    Qbf,
    Var,
    eval_prop,
    eval_qbf,
    eval_qbf_table,
    parse_qbf,
    prop_node_count,
    prop_size,
    prop_vars,
    random_qbf,
    render_prop,
    render_qbf,
)
from inqcheck.switching import BoolValuation
from inqcheck.syntax import ParseError


def assignments(l):
    for values in product((0, 1), repeat=l):
        yield BoolValuation(values)


class TestParse:
    def test_prefix_and_matrix(self):
        theta = parse_qbf("forall x0 exists x1 : x0 & ~x1")
        assert theta.prefix == ((FORALL, 0), (EXISTS, 1))
        assert theta.matrix == PAnd(Var(0), NegVar(1))
        assert theta.l == 2

    def test_negation_normalized_at_parse(self):
        theta = parse_qbf("exists x0 exists x1 : ~(x0 & x1)")
        assert theta.matrix == POr(NegVar(0), NegVar(1))

    def test_precedence_tilde_and_or(self):
        theta = parse_qbf("exists x0 exists x1 exists x2 : x0 | x1 & ~x2")
        assert theta.matrix == POr(Var(0), PAnd(Var(1), NegVar(2)))

    def test_comments(self):
        theta = parse_qbf("# a comment\nexists x0 : x0  # matrix\n")
        assert theta.matrix == Var(0)

    def test_strict_mode_requires_index_order(self):
        with pytest.raises(ParseError):
            parse_qbf("forall x1 exists x0 : x0 & x1")
        with pytest.raises(ParseError):
            parse_qbf("forall a : a")

    def test_rename_mode_renumbers_by_binding_order(self):
        theta = parse_qbf("forall b exists a : b & ~a", rename=True)
        assert theta.prefix == ((FORALL, 0), (EXISTS, 1))
        assert theta.matrix == PAnd(Var(0), NegVar(1))

    def test_duplicate_binding_rejected(self):
        with pytest.raises(ParseError):
            parse_qbf("forall x0 exists x0 : x0", rename=True)

    def test_unbound_variable_rejected(self):
        with pytest.raises(ClosureError) as info:
            parse_qbf("exists x0 : x0 & x1")
        assert "x1" in str(info.value)

    def test_error_precedence(self):
        # a syntax error anywhere beats a bad binding, which beats an
        # unbound name; among unbound names the first in the text wins
        with pytest.raises(ParseError) as info:
            parse_qbf("forall x1 : x1 &")
        assert info.value.offset == len("forall x1 : x1 &")
        with pytest.raises(ParseError) as info:
            parse_qbf("forall x1 : y")
        assert info.value.offset == len("forall ")
        with pytest.raises(ClosureError) as info:
            parse_qbf("forall x0 : ~(x0 | y) & z")
        assert info.value.name == "y"

    def test_missing_colon(self):
        with pytest.raises(ParseError):
            parse_qbf("exists x0 x0")

    def test_empty_matrix_rejected(self):
        with pytest.raises(ParseError):
            parse_qbf("exists x0 :")

    def test_render_round_trip(self):
        text = "forall x0 exists x1 : (x0 | ~x1) & x1"
        theta = parse_qbf(text)
        assert parse_qbf(render_qbf(theta)) == theta
        for l in range(1, 7):
            for nodes in (1, 2, 5, 12, 40, 160):
                for seed in range(10):
                    theta = random_qbf(seed, l, nodes)
                    assert parse_qbf(render_qbf(theta)) == theta


class TestNnf:
    # parse_qbf reads straight into NNF; the general trees below, with a
    # negation node of their own, stand for any text the parser accepts
    def test_de_morgan(self):
        assert _matrix("~(x0 & x1)") == POr(NegVar(0), NegVar(1))

    def test_double_negation(self):
        assert _matrix("~~x0") == Var(0)

    def test_nested(self):
        assert _matrix("~(x0 | ~(x1 & x0))") == PAnd(NegVar(0), PAnd(Var(1), Var(0)))

    def test_truth_preserved(self):
        for f in _random_general_trees(200):
            matrix = _matrix(_render(f))
            for v in assignments(4):
                assert eval_prop(matrix, v) == _truth(f, v)

    def test_size_at_most_doubled(self):
        for f in _random_general_trees(200):
            assert prop_node_count(_matrix(_render(f))) <= 2 * prop_node_count(f)


@dataclass(frozen=True)
class _Not:
    """General negation, which a matrix never holds."""

    body: object


def _matrix(text):
    return parse_qbf(f"forall x0 forall x1 forall x2 forall x3 : {text}").matrix


def _render(f):
    if isinstance(f, Var):
        return f"x{f.index}"
    if isinstance(f, _Not):
        return f"~{_render(f.body)}"
    return f"({_render(f.left)} {'&' if isinstance(f, PAnd) else '|'} {_render(f.right)})"


def _truth(f, v):
    if isinstance(f, Var):
        return v.value(f.index)
    if isinstance(f, _Not):
        return 1 - _truth(f.body, v)
    if isinstance(f, PAnd):
        return _truth(f.left, v) and _truth(f.right, v)
    return _truth(f.left, v) or _truth(f.right, v)


def _random_general_trees(count):
    rng = random.Random(42)
    return [_random_general(rng, 4, depth=4) for _ in range(count)]


def _random_general(rng, l, depth):
    if depth == 0 or rng.random() < 0.3:
        return Var(rng.randrange(l))
    kind = rng.choice(["and", "or", "not", "not"])
    if kind == "not":
        return _Not(_random_general(rng, l, depth - 1))
    a = _random_general(rng, l, depth - 1)
    b = _random_general(rng, l, depth - 1)
    return PAnd(a, b) if kind == "and" else POr(a, b)


class TestPropMeasures:
    def test_vars(self):
        assert prop_vars(PAnd(Var(0), POr(NegVar(2), Var(0)))) == {0, 2}

    def test_node_count(self):
        f = PAnd(POr(Var(0), Var(1)), POr(Var(0), NegVar(1)))
        assert prop_node_count(f) == 8

    def test_size_charges_binary_indices(self):
        assert prop_size(Var(0)) == 2
        assert prop_size(NegVar(0)) == 3
        assert prop_size(Var(7)) == 5
        f = PAnd(POr(Var(0), Var(1)), POr(Var(0), NegVar(1)))
        assert prop_size(f) == 14

    def test_size_rejects_unnormalized(self):
        with pytest.raises(TypeError):
            prop_size(_Not(Var(0)))

    def test_render(self):
        f = PAnd(POr(Var(0), NegVar(1)), Var(2))
        assert render_prop(f) == "((x0 | ~x1) & x2)"


class TestEval:
    def test_named_cases(self):
        assert eval_qbf(parse_qbf("exists x0 : x0"))
        assert not eval_qbf(parse_qbf("forall x0 : x0"))
        assert eval_qbf(
            parse_qbf("forall x0 exists x1 : (x0 | x1) & (~x0 | ~x1)")
        )
        assert not eval_qbf(
            parse_qbf("forall x0 exists x1 : (x0 | x1) & (x0 | ~x1)")
        )

    def test_eval_prop_domain_checked(self):
        with pytest.raises(ClosureError):
            eval_prop(Var(1), BoolValuation((1,)))

    def test_both_routes_agree_exhaustively_small(self):
        # every prefix shape over l <= 2, every matrix over a small pool
        pool = [
            Var(0),
            NegVar(0),
            PAnd(Var(0), Var(1)),
            POr(NegVar(0), Var(1)),
            PAnd(POr(Var(0), Var(1)), POr(NegVar(0), NegVar(1))),
        ]
        for l in (1, 2):
            for quants in product((FORALL, EXISTS), repeat=l):
                prefix = tuple((quant, i) for i, quant in enumerate(quants))
                for matrix in pool:
                    if any(i >= l for i in prop_vars(matrix)):
                        continue
                    theta = Qbf(prefix, matrix)
                    assert eval_qbf(theta) == eval_qbf_table(theta)

    def test_both_routes_agree_randomized(self):
        rng = random.Random(86420)
        for _ in range(200):
            l = rng.randint(1, 6)
            theta = random_qbf(rng.randrange(1 << 30), l, matrix_nodes=12)
            assert eval_qbf(theta) == eval_qbf_table(theta)


class TestRandomQbf:
    def test_deterministic_in_seed(self):
        assert random_qbf(99, 3, 10) == random_qbf(99, 3, 10)

    def test_respects_shape(self):
        for seed in range(30):
            theta = random_qbf(seed, 4, 12)
            assert theta.l == 4
            assert [i for _, i in theta.prefix] == [0, 1, 2, 3]
            assert prop_node_count(theta.matrix) <= 12
            assert all(i < 4 for i in prop_vars(theta.matrix))

    def test_varied_outcomes(self):
        values = {eval_qbf(random_qbf(seed, 3, 10)) for seed in range(40)}
        assert values == {True, False}


class TestDeepMatrices:
    def test_deep_matrices_compare_and_hash(self):
        # 10,000 nested connectives: equality and the hash read the
        # postorder, so they cost no Python frames
        def chain(last):
            f = last
            for i in range(10_000):
                f = (PAnd if i % 2 else POr)(NegVar(i % 3), f)
            return f

        a, b, c = chain(Var(0)), chain(Var(0)), chain(Var(1))
        assert a == b and a is not b
        assert a != c and a != PAnd(NegVar(1), a)
        assert hash(a) == hash(b)
        assert len({a, b, c}) == 2
        prefix = ((FORALL, 0), (EXISTS, 1), (FORALL, 2))
        assert len({Qbf(prefix, a), Qbf(prefix, b), Qbf(prefix, c)}) == 2

    def test_leaves_and_connectives_are_told_apart(self):
        assert Var(0) == Var(0) and Var(0) != NegVar(0) and Var(0) != Var(1)
        assert PAnd(Var(0), Var(1)) != POr(Var(0), Var(1))
        assert PAnd(Var(0), Var(1)) != PAnd(Var(1), Var(0))
        assert Var(0) != 0


# valid texts that cover the whole grammar, which lexer_corpus cuts,
# mutates and splices
QBF_TEXTS = [
    "forall x0 exists x1 : (x0 | ~x1) & x1",
    "# a comment\nexists x0 : x0  # matrix\n",
    "exists x0 forall x1 exists x2 : ~(x0 & ~(x1 | x2)) | ~~x2",
    "forall _b exists a2 : _b & ~a2",
    "exists x0 : x0",
]


def qbf_outcome(text: str) -> tuple:
    """What parsing text gives, without and with rename: the text of its
    formula, the unbound name, or the error's offset, expected set, found
    text and message."""
    outcome = []
    for rename in (False, True):
        try:
            outcome.append(("ok", render_qbf(parse_qbf(text, rename=rename))))
        except ClosureError as e:
            outcome.append(("unbound", e.name))
        except ParseError as e:
            outcome.append((e.offset, sorted(e.expected), e.found, str(e)))
    return tuple(outcome)


class TestLexer:
    def test_corpus_outcomes_are_pinned(self):
        corpus = lexer_corpus(1617, QBF_TEXTS)
        assert len(corpus) == 300
        outcomes = [qbf_outcome(text) for text in corpus]
        assert sum(outcome[1][0] not in ("ok", "unbound") for outcome in outcomes) > 200
        digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
        # the outcomes of the character-by-character lexer this one replaced
        assert digest == "16fc1018c9b2275fe5246e8c30383570740b86226c1ee3eb69c0e4c31b6b6848"

    def test_a_million_blanks_lex_fast(self):
        blanks = ("  \t\r\n# a comment # \n" * 50_000)[:1_000_000] + "\n"
        start = time.perf_counter()
        assert parse_qbf(blanks + "exists x0 :" + blanks + "x0" + blanks) == Qbf(((EXISTS, 0),), Var(0))
        with pytest.raises(ParseError) as info:
            parse_qbf(blanks)
        assert info.value.offset == len(blanks) and info.value.found == "end of input"
        assert time.perf_counter() - start < 1
