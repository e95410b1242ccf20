"""Support checking: named cases, semantic laws, and engine agreement.

The reference oracle here is conftest.set_support, a frozenset recursion
that shares no code with the bitmask evaluators.
"""

from __future__ import annotations

import random
import time

import pytest

from inqcheck import checker
from inqcheck.checker import (
    CheckQuery,
    MemoCache,
    QueryError,
    check_anti_support,
    check_support,
    check_support_memo,
    evaluate,
    render_result,
)
from inqcheck.kernels import RowBuilder
from inqcheck.model import InfoState, InformationModel, downward_closure
from inqcheck.syntax import And, Atom, Bottom, Box, WBox, parse_formula, render_formula

from conftest import (
    bits,
    random_formula,
    random_model,
    random_state,
    set_support,
    state_set,
)


def q(model, state_bits, formula_text):
    return CheckQuery(model, bits(state_bits), parse_formula(formula_text))


def rows(formula_text):
    """The program that the text parses to through a RowBuilder."""
    node = RowBuilder()
    return node.program(parse_formula(formula_text, node=node))


class TestNamedCases:
    def test_atom_supported(self, demo_model):
        assert check_support(q(demo_model, "110", "p1"))

    def test_question_not_supported_on_split_state(self, demo_model):
        assert not check_support(q(demo_model, "110", "p0 ior not p0"))

    def test_classical_tautology_supported(self, demo_model):
        assert check_support(q(demo_model, "110", "p0 or not p0"))

    def test_box_fails_at_full_state(self, demo_model):
        # sigma_union(w0) = {w2} does not support p1
        assert not check_support(q(demo_model, "111", "box p1"))

    def test_wbox_on_singleton(self, demo_model):
        assert check_support(q(demo_model, "100", "wbox p0"))

    def test_empty_state_supports_everything(self, demo_model):
        for text in ("bot", "p0", "box p1", "wbox (p0 ior not p0)"):
            assert check_support(q(demo_model, "000", text))

    def test_anti_support_is_complement(self, demo_model):
        assert not check_anti_support(q(demo_model, "110", "p1"))
        assert check_anti_support(q(demo_model, "110", "p0 ior not p0"))
        assert not check_anti_support(q(demo_model, "000", "bot"))

    def test_render_result(self):
        assert render_result(True) == "SUPPORTED"
        assert render_result(False) == "NOT-SUPPORTED"


class TestQueryValidation:
    def test_state_width_mismatch(self, demo_model):
        with pytest.raises(QueryError):
            check_support(CheckQuery(demo_model, bits("11"), Atom(0)))

    def test_atom_out_of_range(self, demo_model):
        with pytest.raises(QueryError):
            check_support(CheckQuery(demo_model, bits("111"), Atom(2)))

    def test_modality_on_plain_model(self):
        plain = InformationModel(2, 1, (bits("10"),), None)
        with pytest.raises(QueryError):
            check_support(CheckQuery(plain, bits("11"), Box(Atom(0))))
        with pytest.raises(QueryError):
            check_support(CheckQuery(plain, bits("11"), WBox(Atom(0))))

    @pytest.mark.parametrize(
        "text, plain, message",
        [
            ("?p0 -> (p1 & ?p2)", False, "atom index 2 out of range, model has 2 atoms"),
            ("(p1 ior p0) & (p0 -> (box p1 ior p7))", False, "atom index 7 out of range, model has 2 atoms"),
            ("(p0 -> p1) & ((p1 ior p0) -> box ?p1)", True, "modal formula over a plain model with no state map"),
            ("(wbox p0 ior p1) -> ?p0", True, "modal formula over a plain model with no state map"),
        ],
    )
    def test_one_fault_names_itself(self, demo_model, text, plain, message):
        if plain:
            demo_model = InformationModel(demo_model.n, demo_model.l, demo_model.valuation, None)
        # as formula objects and as program rows
        for formula in (parse_formula(text), rows(text)):
            for engine in ("table", "naive"):
                with pytest.raises(QueryError) as info:
                    evaluate(CheckQuery(demo_model, bits("110"), formula), engine=engine)
                assert str(info.value) == message

    def test_program_rows_name_their_faults(self, demo_model):
        with pytest.raises(QueryError, match="state width 2 does not match world count 3"):
            evaluate(CheckQuery(demo_model, bits("11"), rows("p0")))
        # an index past array("q"): the rows keep it, and validation names it
        with pytest.raises(QueryError, match="atom index 99999999999999999999 out of range, model has 2 atoms"):
            evaluate(CheckQuery(demo_model, bits("110"), rows("p99999999999999999999 & ?p0")))

    def test_unused_definitions_are_not_validated(self, demo_model):
        plain = InformationModel(demo_model.n, demo_model.l, demo_model.valuation, None)
        text = "let a = p9; let b = box p0; ?p0 & p1"
        for model in (demo_model, plain):
            want = evaluate(CheckQuery(model, bits("110"), parse_formula(text)), engine="naive").value
            for engine in ("table", "sparse", "naive"):
                assert evaluate(CheckQuery(model, bits("110"), rows(text)), engine=engine).value == want

    @pytest.mark.parametrize("modal", [False, True])
    def test_model_without_atoms(self, modal):
        # no atom row, so the largest payload, 0, is no atom's index
        sigma = ((bits("01"),), (bits("00"),)) if modal else None
        m = InformationModel(2, 0, (), sigma)
        texts = ["bot", "bot -> bot", "box bot", "wbox bot"] if modal else ["bot", "bot -> bot"]
        for text in texts:
            for s in range(4):
                state = InfoState(s, 2)
                want = set_support(m, state_set(state), parse_formula(text))
                for formula in (parse_formula(text), rows(text)):
                    for engine in ("table", "sparse", "naive"):
                        assert evaluate(CheckQuery(m, state, formula), engine=engine).value == want

    def test_fault_under_a_doubling_dag_is_found_at_once(self, demo_model):
        # 2^60 copies of p9 as a tree, over a model of 2 atoms: validation
        # visits each of the 61 objects once
        f = Atom(9)
        for _ in range(60):
            f = And(f, f)
        for cache in (None, MemoCache()):
            start = time.perf_counter()
            with pytest.raises(QueryError, match="atom index 9 out of range"):
                evaluate(CheckQuery(demo_model, bits("110"), f), engine="table", cache=cache)
            assert time.perf_counter() - start < 0.1


class TestSemanticLaws:
    def test_against_set_oracle(self):
        rng = random.Random(90125)
        for _ in range(300):
            m = random_model(rng, n_max=4, l_max=3, modal=rng.random() < 0.7)
            f = random_formula(rng, m.l, depth=3, modal=m.is_modal)
            s = random_state(rng, m.n)
            got = check_support(CheckQuery(m, s, f))
            assert got == set_support(m, state_set(s), f)

    def test_downward_persistency(self):
        rng = random.Random(5551212)
        for _ in range(150):
            m = random_model(rng, n_max=4, l_max=2)
            f = random_formula(rng, m.l, depth=3, modal=True)
            s = random_state(rng, m.n)
            if not check_support(CheckQuery(m, s, f)):
                continue
            t = s.mask
            while True:
                assert check_support(CheckQuery(m, InfoState(t, m.n), f))
                if t == 0:
                    break
                t = (t - 1) & s.mask

    def test_empty_state_random(self):
        rng = random.Random(404)
        for _ in range(100):
            m = random_model(rng, n_max=4, l_max=2)
            f = random_formula(rng, m.l, depth=4, modal=True)
            assert check_support(CheckQuery(m, InfoState.empty(m.n), f))

    def test_atom_characterization(self):
        rng = random.Random(1999)
        for _ in range(100):
            m = random_model(rng, n_max=5, l_max=3, modal=False)
            s = random_state(rng, m.n)
            j = rng.randrange(m.l)
            expected = s.mask & ~m.valuation[j].mask == 0
            assert check_support(CheckQuery(m, s, Atom(j))) == expected

    def test_ior_or_separation(self):
        rng = random.Random(777)
        for _ in range(60):
            m = random_model(rng, n_max=4, l_max=1, modal=False)
            s = random_state(rng, m.n)
            v = m.valuation[0].mask
            assert check_support(q(m, s.bits(), "p0 or not p0"))
            split = s.mask & ~v == 0 or s.mask & v == 0
            assert check_support(q(m, s.bits(), "p0 ior not p0")) == split

    def test_generator_sufficiency(self):
        # swapping generator lists for their downward closures changes nothing
        rng = random.Random(31337)
        for _ in range(60):
            m = random_model(rng, n_max=4, l_max=2, modal=True)
            closed = InformationModel(
                m.n,
                m.l,
                m.valuation,
                tuple(tuple(downward_closure(list(g))) for g in m.sigma),
            )
            for _ in range(4):
                f = random_formula(rng, m.l, depth=3, modal=True)
                s = random_state(rng, m.n)
                assert check_support(CheckQuery(m, s, f)) == check_support(
                    CheckQuery(closed, s, f)
                )


class TestEngines:
    def test_all_engines_agree(self):
        rng = random.Random(60606)
        for _ in range(120):
            m = random_model(rng, n_max=4, l_max=2)
            f = random_formula(rng, m.l, depth=3, modal=True)
            s = random_state(rng, m.n)
            query = CheckQuery(m, s, f)
            reference = evaluate(query, engine="naive").value
            for engine in ("sparse", "table", "auto"):
                assert evaluate(query, engine=engine).value == reference

    def test_memo_equals_naive(self, demo_model):
        rng = random.Random(12)
        cache = MemoCache()
        for _ in range(200):
            f = random_formula(rng, demo_model.l, depth=3, modal=True)
            s = random_state(rng, demo_model.n)
            query = CheckQuery(demo_model, s, f)
            assert check_support_memo(query, cache) == check_support(query)

    def test_warm_cache_reuses_everything(self, demo_model):
        cache = MemoCache()
        query = q(demo_model, "111", "box (p0 ior not p1) -> wbox p0")
        first = evaluate(query, engine="sparse", cache=cache)
        second = evaluate(query, engine="sparse", cache=cache)
        assert first.value == second.value
        assert first.nodes_visited > 0
        assert second.nodes_visited == 0

    def test_warm_table_reuses_everything(self, demo_model):
        cache = MemoCache()
        query = q(demo_model, "110", "p0 ior not p0")
        first = evaluate(query, engine="table", cache=cache)
        second = evaluate(query, engine="table", cache=cache)
        assert first.value == second.value
        assert second.nodes_visited == 0

    def test_outcome_engine_label(self, demo_model):
        assert evaluate(q(demo_model, "110", "p1"), engine="naive").engine == "naive"
        assert evaluate(q(demo_model, "110", "p1"), engine="auto").engine in (
            "sparse",
            "table",
        )

    def test_unknown_engine_rejected(self, demo_model):
        # the name is checked before the query is validated, lowered or
        # cached
        cache = MemoCache()
        with pytest.raises(ValueError):
            evaluate(q(demo_model, "110", "p1"), engine="mystery", cache=cache)
        assert not cache._roots and not cache._aliases

    def test_every_engine_answers(self, demo_model):
        for engine in checker.ENGINES:
            outcome = evaluate(q(demo_model, "110", "p1"), engine=engine)
            assert outcome.value
            assert outcome.engine == engine or engine == "auto"


class TestMemoCache:
    # root finds an entry by the identity of the model and formula it was
    # last asked for, then by the lowered rows; it never hashes a formula
    def test_equal_formulas_share_an_entry(self, demo_model):
        cache = MemoCache()
        text = "box (p0 ior not p1) -> wbox p0"
        first = evaluate(q(demo_model, "111", text), engine="table", cache=cache)
        second = evaluate(q(demo_model, "111", text), engine="table", cache=cache)
        assert first.nodes_visited > 0
        assert second.nodes_visited == 0
        assert first.value == second.value

    def test_alternating_formulas_stay_warm(self, demo_model, monkeypatch):
        lowered = []
        lower = checker.lower_formula
        monkeypatch.setattr(checker, "lower_formula", lambda f: lowered.append(f) or lower(f))
        cache = MemoCache()
        a, b = parse_formula("p0 ior not p0"), parse_formula("box p1 -> p0")
        entries = {id(f): cache.root(demo_model, f) for f in (a, b)}
        for f in (a, b):
            assert evaluate(CheckQuery(demo_model, bits("110"), f), engine="table", cache=cache).nodes_visited > 0
        for _ in range(5):
            for f in (a, b):
                assert cache.root(demo_model, f) is entries[id(f)]
                assert evaluate(CheckQuery(demo_model, bits("110"), f), engine="table", cache=cache).nodes_visited == 0
        assert lowered == [a, b]

    def test_fresh_parses_keep_one_entry_and_one_alias(self, demo_model):
        cache = MemoCache()
        for _ in range(1000):
            check_support_memo(q(demo_model, "110", "(p0 -> p1) ior box p0"), cache)
        assert len(cache._roots) == 1
        assert len(cache._aliases) == 1

    def test_distinct_equal_objects_agree_with_naive(self):
        rng = random.Random(8080)
        for _ in range(40):
            m = random_model(rng, n_max=5, l_max=2)
            formulas = [random_formula(rng, m.l, depth=3, modal=True) for _ in range(3)]
            texts = [render_formula(f) for f in formulas]
            cache = MemoCache()
            for _ in range(15):
                # a fresh model and a fresh parse, equal to the first ones
                twin = InformationModel(m.n, m.l, m.valuation, m.sigma)
                f = parse_formula(rng.choice(texts))
                query = CheckQuery(twin, random_state(rng, m.n), f)
                reference = evaluate(query, engine="naive").value
                for engine in ("table", "sparse", "auto"):
                    assert evaluate(query, engine=engine, cache=cache).value == reference
            assert len(cache._roots) <= len(set(texts))

    def test_programs_are_keyed_by_their_rows(self, demo_model, monkeypatch):
        lowered = []
        lower = checker.lower_formula
        monkeypatch.setattr(checker, "lower_formula", lambda f: lowered.append(f) or lower(f))
        cache = MemoCache()
        text = "box (p0 ior not p1) -> wbox p0"
        first = evaluate(CheckQuery(demo_model, bits("111"), rows(text)), engine="table", cache=cache)
        # a fresh parse into rows: equal rows, one entry, no lowering
        second = evaluate(CheckQuery(demo_model, bits("111"), rows(text)), engine="table", cache=cache)
        assert first.nodes_visited > 0 and second.nodes_visited == 0
        assert first.value == second.value == evaluate(q(demo_model, "111", text), engine="naive").value
        assert len(cache._roots) == 1 and len(cache._aliases) == 1
        assert lowered == []

    def test_models_keep_their_own_entries(self, demo_model):
        cache = MemoCache()
        f = parse_formula("p0")
        other = InformationModel(demo_model.n, demo_model.l, tuple(reversed(demo_model.valuation)), demo_model.sigma)
        # w1 is outside V(p0) and inside V(p1)
        assert not check_support_memo(CheckQuery(demo_model, bits("010"), f), cache)
        assert check_support_memo(CheckQuery(other, bits("010"), f), cache)
        assert len(cache._roots) == 2


class TestDeepFormulas:
    # 10,000 nested modalities: table walks them with its own stacks, and a
    # cache keys them by their lowered rows; the engines that still recurse
    # say the formula is too deep
    def test_table_answers(self, demo_model):
        # box box p0 is true at no world of the demo model, and further
        # boxes keep it so; boxes over a tautology hold everywhere
        cache = MemoCache()
        for given in (None, cache, cache):
            assert not evaluate(q(demo_model, "101", "box " * 10_000 + "p0"), engine="table", cache=given).value
            assert evaluate(q(demo_model, "111", "box " * 10_000 + "(p0 -> p0)"), engine="table", cache=given).value
        assert len(cache._roots) == 2

    @pytest.mark.parametrize("engine, cache", [("naive", None), ("sparse", None), ("table", MemoCache())])
    def test_recursion_is_a_query_error(self, demo_model, engine, cache):
        query = q(demo_model, "101", "box " * 10_000 + "p0")
        if engine == "table":
            # neither the table walk nor the cache lookup recurses, so the
            # query that overflows the other engines gets its answer
            assert not evaluate(query, engine=engine, cache=cache).value
            return
        with pytest.raises(QueryError, match=f"formula nests too deeply for the {engine} engine"):
            evaluate(query, engine=engine, cache=cache)
