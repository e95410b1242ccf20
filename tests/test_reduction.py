"""Matrix and prefix translations, the compiled instances, and size accounting.

The staged checks mirror how the construction is proved: first the matrix
translation against plain truth tables, then the quantifier cases at every
depth, then end-to-end agreement of the two oracles.
"""

from __future__ import annotations

import random
from functools import cache
from itertools import product

import pytest

import inqcheck.qbf as qbf_module
from inqcheck.checker import CheckQuery, MemoCache, check_support, evaluate
from inqcheck.model import InfoState
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
    random_qbf,
    render_qbf,
)
from inqcheck.reduction import (
    reduce_tqbf,
    size_report,
    translate_prop,
    translate_qbf,
)
from inqcheck.switching import (
    BoolValuation,
    atom_p,
    atom_q,
    build_switching_model,
    formula_D,
    formula_S,
    switching_from_valuation,
)
from inqcheck.kernels import lower_formula
from inqcheck.syntax import Atom, Implies, formula_size, neg, parse_formula, render_formula, subformulas

from test_acceptance import SIZE_RATIO_BOUND


def supports(l, state, formula, cache=None):
    # table-backed evaluation: the gadget formulas nest implications deeply
    # enough that the naive subset recursion is hopeless past l=2
    model = build_switching_model(l).model
    query = CheckQuery(model, state, formula)
    return evaluate(query, engine="auto", cache=cache).value


def random_nnf(rng, l, max_nodes):
    theta = random_qbf(rng.randrange(1 << 30), l, max_nodes)
    return theta.matrix


class TestMatrixTranslation:
    def test_positive_variable(self):
        assert translate_prop(Var(0), "p", 1) == Implies(atom_q(0, 1), atom_p(0))

    def test_negative_negated_variable(self):
        assert translate_prop(NegVar(0), "n", 1) == Implies(atom_q(0, 1), atom_p(0))

    def test_negative_variable(self):
        assert translate_prop(Var(0), "n", 1) == Implies(atom_q(0, 1), neg(atom_p(0)))

    def test_positive_negated_variable(self):
        assert translate_prop(NegVar(0), "p", 1) == Implies(atom_q(0, 1), neg(atom_p(0)))

    def test_conjunction_flips_under_negative_polarity(self):
        f = PAnd(Var(0), Var(1))
        out = translate_prop(f, "n", 2)
        assert out.__class__.__name__ == "IVee"
        assert out.left == translate_prop(Var(0), "n", 2)
        assert out.right == translate_prop(Var(1), "n", 2)

    def test_disjunction_mirrors_conjunction(self):
        f = POr(Var(0), Var(1))
        pos = translate_prop(f, "p", 2)
        assert pos.__class__.__name__ == "IVee"
        negative = translate_prop(f, "n", 2)
        assert negative.__class__.__name__ == "And"

    def test_bad_polarity_rejected(self):
        with pytest.raises(ValueError):
            translate_prop(Var(0), "q", 1)

    def test_full_switchings_read_truth(self):
        # at an l-switching the positive translation tracks truth and the
        # negative translation tracks falsity, on random matrices
        rng = random.Random(1203)
        for l in range(1, 5):
            cache = MemoCache()
            for _ in range(30):
                matrix = random_nnf(rng, l, 12)
                pos = translate_prop(matrix, "p", l)
                negt = translate_prop(matrix, "n", l)
                for values in product((0, 1), repeat=l):
                    v = BoolValuation(values)
                    s = switching_from_valuation(v, l)
                    truth = eval_prop(matrix, v) == 1
                    assert supports(l, s, pos, cache) == truth
                    assert supports(l, s, negt, cache) == (not truth)


class TestPrefixTranslation:
    def test_exists_positive_shape(self):
        theta = Qbf(((EXISTS, 0),), Var(0))
        out = translate_qbf(theta, "P", 1)
        inner = Implies(formula_D(0, 1), translate_prop(Var(0), "n", 1))
        assert out == Implies(inner, formula_S(0, 1))

    def test_forall_positive_shape(self):
        theta = Qbf(((FORALL, 0),), Var(0))
        out = translate_qbf(theta, "P", 1)
        assert out == Implies(formula_D(0, 1), translate_prop(Var(0), "p", 1))

    def test_forall_negative_shape(self):
        theta = Qbf(((FORALL, 0),), Var(0))
        out = translate_qbf(theta, "N", 1)
        inner = Implies(formula_D(0, 1), translate_prop(Var(0), "p", 1))
        assert out == Implies(inner, formula_S(0, 1))

    def test_exists_negative_shape(self):
        theta = Qbf(((EXISTS, 0),), Var(0))
        out = translate_qbf(theta, "N", 1)
        assert out == Implies(formula_D(0, 1), translate_prop(Var(0), "n", 1))

    def test_inner_quantifier_uses_its_own_position(self):
        theta = Qbf(((FORALL, 0), (EXISTS, 1)), PAnd(Var(0), Var(1)))
        out = translate_qbf(theta, "P", 2)
        # outer forall wraps D_0; the existential step at position 1 ends in S_1
        assert out.left == formula_D(0, 2)
        assert out.right.right == formula_S(1, 2)

    def test_quantifier_depth_equivalences(self):
        # at each depth k, a k-switching supports exactly the translation
        # whose polarity matches the truth of the remaining formula
        rng = random.Random(77)
        for l in range(1, 4):
            cache = MemoCache()
            for _ in range(12):
                matrix = random_nnf(rng, l, 10)
                for quants in product((FORALL, EXISTS), repeat=l):
                    prefix = tuple((quant, i) for i, quant in enumerate(quants))
                    for k in range(l + 1):
                        suffix = Qbf(prefix[k:], matrix)
                        pos = translate_qbf(suffix, "P", l)
                        negt = translate_qbf(suffix, "N", l)
                        for values in product((0, 1), repeat=k):
                            v = BoolValuation(values)
                            s = switching_from_valuation(v, l)
                            truth = _eval_under(suffix, v, l)
                            assert supports(l, s, pos, cache) == truth
                            assert supports(l, s, negt, cache) == (not truth)

    def test_prefix_gap_rejected(self):
        theta = Qbf(((FORALL, 0), (FORALL, 2)), Var(0))
        with pytest.raises(ValueError):
            translate_qbf(theta, "P", 3)

    def test_prefix_must_reach_last_variable(self):
        theta = Qbf(((FORALL, 0),), Var(0))
        with pytest.raises(ValueError):
            translate_qbf(theta, "P", 2)


def _eval_under(suffix: Qbf, v: BoolValuation, l: int) -> bool:
    """Truth of a quantifier suffix once the first v.k variables are fixed."""

    def go(position: int, values: tuple[int, ...]) -> bool:
        if position == l:
            return eval_prop(suffix.matrix, BoolValuation(values)) == 1
        quant = suffix.prefix[position - v.k][0]
        branches = (go(position + 1, values + (b,)) for b in (0, 1))
        return any(branches) if quant == EXISTS else all(branches)

    return go(v.k, v.values)


class TestInstances:
    def test_true_existential(self):
        theta = Qbf(((EXISTS, 0),), Var(0))
        instance = reduce_tqbf(theta)
        assert instance.state == InfoState.full(2)
        assert eval_qbf(theta)
        assert check_support(
            CheckQuery(instance.model.model, instance.state, instance.formula)
        )

    def test_false_universal(self):
        theta = Qbf(((FORALL, 0),), Var(0))
        instance = reduce_tqbf(theta)
        assert not eval_qbf(theta)
        assert not check_support(
            CheckQuery(instance.model.model, instance.state, instance.formula)
        )

    def test_true_alternation(self):
        theta = Qbf(
            ((FORALL, 0), (EXISTS, 1)),
            PAnd(POr(Var(0), Var(1)), POr(NegVar(0), NegVar(1))),
        )
        instance = reduce_tqbf(theta)
        assert eval_qbf(theta)
        assert check_support(
            CheckQuery(instance.model.model, instance.state, instance.formula)
        )

    def test_oracles_agree_randomized(self):
        rng = random.Random(314159)
        for _ in range(120):
            l = rng.randint(1, 4)
            theta = random_qbf(rng.randrange(1 << 30), l, matrix_nodes=10)
            instance = reduce_tqbf(theta)
            query = CheckQuery(instance.model.model, instance.state, instance.formula)
            assert evaluate(query, engine="auto").value == eval_qbf(theta)

    def test_metadata(self):
        theta = Qbf(((EXISTS, 0),), Var(0))
        instance = reduce_tqbf(theta)
        assert instance.l == 1
        assert instance.matrix_size == 2
        # the size is read off the rows on first use, not by reduce_tqbf
        assert "translated_size" not in vars(instance)
        assert instance.translated_size == formula_size(instance.formula)

    @pytest.mark.parametrize("l", range(1, 10))
    def test_size_read_off_rows(self, l):
        for seed in range(3):
            instance = reduce_tqbf(random_qbf(10 * l + seed, l, 120))
            assert instance.translated_size == formula_size(instance.formula)
            # one formula object per row, built once
            assert instance.formula is instance.formula
            assert lower_formula(instance.formula).num_nodes == instance.program.num_nodes

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError):
            reduce_tqbf(Qbf((), Var(0)))

    def test_out_of_order_prefix_rejected(self):
        with pytest.raises(ValueError):
            reduce_tqbf(Qbf(((FORALL, 1), (EXISTS, 0)), Var(0)))

    def test_unbound_matrix_variable_rejected(self):
        with pytest.raises(ClosureError):
            reduce_tqbf(Qbf(((FORALL, 0),), Var(1)))


def _translate_whole(theta: Qbf):
    return translate_qbf(theta, "P", theta.l)


QBF_CONSUMERS = [eval_qbf, eval_qbf_table, reduce_tqbf, _translate_whole]


class TestMalformedInput:
    # each consumer of a Qbf checks it before answering anything
    @pytest.mark.parametrize("consumer", QBF_CONSUMERS)
    @pytest.mark.parametrize(
        "prefix",
        [
            ((FORALL, 1), (EXISTS, 0)),
            ((FORALL, 0), (EXISTS, 2), (EXISTS, 1)),
            ((FORALL, 0), (EXISTS, 2)),
            (("bogus", 0),),
            ((FORALL, 0), ("Exists", 1)),
        ],
    )
    def test_malformed_prefix_rejected(self, consumer, prefix):
        with pytest.raises(ValueError):
            consumer(Qbf(prefix, Var(0)))

    @pytest.mark.parametrize("consumer", QBF_CONSUMERS)
    def test_unbound_variable_rejected(self, consumer):
        with pytest.raises(ClosureError):
            consumer(Qbf(((FORALL, 0), (EXISTS, 1)), PAnd(Var(0), NegVar(2))))


class TestOneMatrixWalk:
    def test_consumers_share_one_postorder(self, monkeypatch):
        # verify asks eval_qbf and then reduce_tqbf about one Qbf
        walks = []

        def counted(f, k=None):
            walks.append(k)
            return postorder(f, k)

        postorder = qbf_module._postorder
        monkeypatch.setattr(qbf_module, "_postorder", counted)
        theta = random_qbf(3, 5, 80)
        instance = reduce_tqbf(theta)
        query = CheckQuery(instance.model.model, instance.state, instance.program)
        assert eval_qbf(theta) == eval_qbf_table(theta) == evaluate(query, engine="table").value
        assert walks == [5]
        assert instance.matrix_size == qbf_module.prop_size(theta.matrix)

    def test_failed_walk_raises_every_time(self):
        theta = Qbf(((FORALL, 0),), PAnd(Var(0), NegVar(1)))
        for consumer in QBF_CONSUMERS * 2:
            with pytest.raises(ClosureError, match="unbound variable x1"):
                consumer(theta)


class TestSizes:
    def fixed_instances(self, l_max=12):
        matrix = PAnd(POr(Var(0), Var(1)), POr(Var(0), NegVar(1)))
        for l in range(2, l_max + 1):
            prefix = tuple((FORALL if i % 2 == 0 else EXISTS, i) for i in range(l))
            yield reduce_tqbf(Qbf(prefix, matrix))

    def test_sizes_strictly_increase(self):
        sizes = [inst.translated_size for inst in self.fixed_instances()]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))

    def test_ratio_below_pinned_bound(self):
        for inst in self.fixed_instances():
            assert size_report(inst).ratio <= SIZE_RATIO_BOUND

    def test_report_fields(self):
        inst = next(iter(self.fixed_instances(l_max=2)))
        report = size_report(inst)
        assert report.l == 2
        assert report.matrix_size == 14
        assert report.translated_size == inst.translated_size
        assert report.ratio > 0

    def test_translated_size_is_the_sum_of_its_parts(self):
        # the tree of translate_qbf's output is the matrix translation, one
        # wrapper D_k -> body per quantifier, and, for a branching one,
        # one more -> with the escape formula S_k:
        # |M'| + sum_k (1 + |D_k|) + sum_{branching k} (1 + |S_k|)
        rng = random.Random(18)
        cases = [random_qbf(rng.randrange(1 << 30), 1 + i % 12, rng.randint(1, 60)) for i in range(300)]
        cases += [random_qbf(rng.randrange(1 << 30), l, 40) for l in (24, 32, 64)]
        for theta in cases:
            l = theta.l
            # the polarity each quantifier's wrapper tracks: truth for the
            # outermost, then that of the body of the quantifier before it
            tracked = ["P"] + ["P" if quant == FORALL else "N" for quant, _ in theta.prefix[:-1]]
            innermost = "p" if theta.prefix[-1][0] == FORALL else "n"
            expected = formula_size(translate_prop(theta.matrix, innermost, l))
            for (quant, k), polarity in zip(theta.prefix, tracked):
                expected += 1 + splitter_size(k, l)
                if (quant == FORALL) != (polarity == "P"):
                    expected += 1 + escape_size(k, l)
            assert reduce_tqbf(theta).translated_size == expected, render_qbf(theta)

    def test_part_sizes_are_pinned(self):
        # so that a gadget that grows cannot hide inside the sum above
        for l, escape, splitters in (
            (4, 97, {12, 14, 17}),
            (8, 219, {13, 15, 17, 20}),
            (16, 493, {14, 16, 18, 20, 23}),
        ):
            assert {escape_size(k, l) for k in range(l + 1)} == {escape}
            assert {splitter_size(k, l) for k in range(l)} == splitters


@cache
def splitter_size(k, l):
    return formula_size(formula_D(k, l))


@cache
def escape_size(k, l):
    return formula_size(formula_S(k, l))


class TestSharedTranslation:
    """reduce_tqbf builds a DAG; its text keeps the sharing and reads back
    to an equal formula with the same program and the same answer."""

    @pytest.mark.parametrize("l", range(1, 13))
    def test_round_trip(self, l):
        for seed in range(3):
            theta = random_qbf(100 * l + seed, l, 10 * l)
            instance = reduce_tqbf(theta)
            text = render_formula(instance.formula)
            back = parse_formula(text)
            assert back == instance.formula
            assert lower_formula(back) == lower_formula(instance.formula)
            tree = sum(1 + (g.index + 1).bit_length() if isinstance(g, Atom) else 1 for g in subformulas(back))
            assert instance.translated_size == formula_size(back) == tree
            if l <= 9:
                query = CheckQuery(instance.model.model, instance.state, back)
                assert evaluate(query, engine="table").value == eval_qbf(theta)

    def test_pieces_are_built_once(self):
        instance = reduce_tqbf(parse_qbf("exists x0 forall x1 exists x2 : (x0 | ~x1) & (x0 | x2)"))
        seen: dict[object, object] = {}
        for g in subformulas(instance.formula):
            # equal subformulas are one object
            assert seen.setdefault(g, g) is g
        assert "let " in render_formula(instance.formula)
