"""Lowered programs, the truth-mask support-table kernel, and engine choice."""

from __future__ import annotations

import hashlib
import random
import time
from array import array
from functools import reduce
from operator import or_

import pytest

from inqcheck.checker import DEFAULT_TABLE_BYTE_CAP, CheckQuery, MemoCache, QueryError, check_support, evaluate
from inqcheck import kernels
from inqcheck.kernels import (
    OP_AND,
    OP_ATOM,
    OP_BOT,
    OP_BOX,
    OP_IMPLIES,
    OP_IVEE,
    OP_WBOX,
    lower_formula,
    model_masks,
    support_table,
    table_bytes,
)
from inqcheck.model import InfoState, InformationModel
from inqcheck.qbf import eval_qbf, random_qbf
from inqcheck.reduction import reduce_tqbf
from inqcheck.syntax import And, Atom, Bottom, Box, IVee, Implies, WBox, parse_formula, question, render_formula, subformulas

from conftest import bits, printing_corpus, question_formula, random_formula, random_model, shared_formula


class TestLowering:
    def test_shared_subterms_collapse(self):
        f = And(IVee(Atom(0), Atom(1)), IVee(Atom(0), Atom(1)))
        program = lower_formula(f)
        # one row per distinct subterm: two atoms, one shared ior, one and
        assert program.num_nodes == 4

    def test_library_dag_costs_its_objects(self):
        # H_{i+1} = H_i & H_i has 2^60 leaves as a tree and 8 + 60 rows
        h = parse_formula("?p0 -> ?p1")
        for _ in range(60):
            h = And(h, h)
        start = time.perf_counter()
        program = lower_formula(h)
        assert time.perf_counter() - start < 0.1
        assert program.num_nodes == 8 + 60

    def test_shared_and_equal_objects_lower_alike(self):
        # rows follow the tree's postorder whether a repeat is the same
        # object or an equal one
        rng = random.Random(61)
        for _ in range(100):
            x = random_formula(rng, 3, 3, True)
            y = random_formula(rng, 3, 3, True)
            shared = IVee(And(x, y), Implies(y, And(x, Box(x))))
            # random_formula builds trees, which print without definitions
            a, b = render_formula(x), render_formula(y)
            twin = parse_formula(f"({a} & {b}) ior ({b} -> ({a} & box {a}))")
            assert twin == shared
            assert lower_formula(shared) == lower_formula(twin)

    def test_library_programs_are_pinned(self):
        # the rows, their order and the payload of every lowered program:
        # MemoCache keys and Formula equality read them. The digest is of
        # the key the columns had as array("q"): the root, the bytes of
        # ops, left and right, and the payload's bytes, or its values when
        # an index is past 64 bits
        def packed_key(p):
            try:
                payload = array("q", p.payload).tobytes()
            except OverflowError:
                payload = tuple(p.payload)
            return p.root, array("q", p.ops + p.left + p.right).tobytes(), payload

        formulas = printing_corpus() + [shared_formula(random.Random(seed), 3 + seed % 18) for seed in range(60)]
        keys = [repr(packed_key(lower_formula(f))) for f in formulas]
        digest = hashlib.sha256("\0".join(keys).encode()).hexdigest()
        # computed with the lowering walk that lower_formula kept apart
        # from the printer's
        assert digest == "76bbfcd484995c657aa3adcc5857a721de741f643165d83fc82780d17abd7b9e"

    @pytest.mark.parametrize("bad", ["x", 0, None])
    def test_non_formula_node_raises(self, bad):
        with pytest.raises(TypeError, match="it is no formula node"):
            lower_formula(And(Atom(0), Box(bad)))

    def test_table_bytes(self, demo_model):
        program = lower_formula(parse_formula("p0 & p1"))
        assert table_bytes(program, demo_model) == program.num_nodes * 8

    def test_model_masks(self, demo_model):
        val_masks, box_anchors, gen_masks = model_masks(demo_model)
        assert val_masks == [0b101, 0b011]
        assert box_anchors == [(0b100,), (0b111,), (0b111,)]
        assert gen_masks == [[0b100], [0b001, 0b110], [0b011, 0b101]]

    def test_model_masks_of_a_plain_model(self):
        m = InformationModel(3, 1, (InfoState(0b110, 3),))
        assert model_masks(m) == ([0b110], [(0,), (0,), (0,)], [[], [], []])


def naive_at(model, formula, mask):
    return check_support(CheckQuery(model, InfoState(mask, model.n), formula))


def reference_row(model, formula):
    return [naive_at(model, formula, s) for s in range(1 << model.n)]


def row_formulas(program):
    """The subformula each program row stands for, rebuilt from the rows."""
    out = []
    for op, a, b, p in zip(program.ops, program.left, program.right, program.payload):
        if op == OP_BOT:
            out.append(Bottom())
        elif op == OP_ATOM:
            out.append(Atom(int(p)))
        elif op in (OP_BOX, OP_WBOX):
            out.append((Box if op == OP_BOX else WBox)(out[a]))
        else:
            node = {OP_AND: And, OP_IVEE: IVee, OP_IMPLIES: Implies}[op]
            out.append(node(out[a], out[b]))
    return out


def syntactic_declaratives(program):
    """Whether each row is declarative by syntax: bot, atoms, box, wbox,
    & of two declaratives and -> into a declarative."""
    out = []
    for op, a, b in zip(program.ops, program.left, program.right):
        if op == OP_AND:
            out.append(out[a] and out[b])
        elif op == OP_IMPLIES:
            out.append(out[b])
        else:
            out.append(op != OP_IVEE)
    return out


def formulas(rng, l, depth):
    """One formula of each generator."""
    return [random_formula(rng, l, depth=depth, modal=True), question_formula(rng, l, depth)]


def sparse_modal_model(rng, n, atoms=3):
    """Each world gets one to three generators of one to three worlds, so
    that box and wbox anchors stay small however wide the model is."""
    valuation = tuple(InfoState(rng.randrange(1 << n), n) for _ in range(atoms))
    sigma = tuple(
        tuple(
            InfoState(mask, n)
            for mask in sorted({
                sum(1 << w for w in rng.sample(range(n), rng.randint(1, 3)))
                for _ in range(rng.randint(1, 3))
            })
        )
        for _ in range(n)
    )
    return InformationModel(n, atoms, valuation, sigma)


class TestTables:
    def test_full_table_matches_naive(self):
        rng = random.Random(2718)
        for _ in range(40):
            m = random_model(rng, n_max=5, l_max=2)
            for f in formulas(rng, m.l, 3):
                program = lower_formula(f)
                table = support_table(program, m)
                assert len(table.truth) == len(table.families) == program.num_nodes
                for r, g in enumerate(row_formulas(program)):
                    assert 0 <= table.truth[r] < 1 << m.n
                    family = table.families[r]
                    for s in range(1 << m.n):
                        got = table.holds(r, s)
                        assert got == naive_at(m, g, s), (s, g)
                        # a row with a family is answered by its members
                        if family is not None:
                            assert got == any(s & ~v == 0 for v in family), (s, g)

    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    def test_wide_lattice_matches_naive_and_sparse(self, n):
        # every implication row at every substate of the full state of 6..9
        # worlds, against sparse
        rng = random.Random(31 * n)
        m = random_model(rng, n_max=n, n_min=n, l_max=3)
        # x has four members, so x -> c takes a product of 2 ** 4, past the
        # cap of at most 13: it has no family, nor has the implication out
        # of it, which descends by x -> c's family relative to the state
        x, c = IVee(question(Atom(0)), question(Atom(m.l - 1))), question(Atom(m.l // 2))
        nested = Implies(Implies(x, c), IVee(x, c))
        checked = 0
        while checked < 6:
            # question formulas nest more implications per level; depth 4
            # keeps the naive reference to a second
            f = random_formula(rng, m.l, 5, True) if checked % 2 else question_formula(rng, m.l, 4)
            if list(lower_formula(f).ops).count(OP_IMPLIES) < 3:
                continue
            # random formulas rarely hold an implication without a family,
            # so the first one is joined with the nested one
            f = And(f, nested) if checked == 0 else f
            program = lower_formula(f)
            checked += 1
            table = support_table(program, m)
            masks = [0, (1 << n) - 1] + [rng.randrange(1 << n) for _ in range(32)]
            for r, g in enumerate(row_formulas(program)):
                for s in masks:
                    assert table.holds(r, s) == naive_at(m, g, s), (s, g)
            cache = MemoCache()
            sparse = [
                evaluate(CheckQuery(m, InfoState(s, n), f), engine="sparse", cache=cache).value
                for s in range(1 << n)
            ]
            assert [table.holds(program.root, s) for s in range(1 << n)] == sparse
            # a query asks a nested implication only where the enclosing
            # one needs it, so pin every implication row at every substate
            # of the full state directly
            for r, g in enumerate(row_formulas(program)):
                if program.ops[r] == OP_IMPLIES:
                    cache = MemoCache()
                    assert [table.holds(r, t) for t in range(1 << n)] == [
                        evaluate(CheckQuery(m, InfoState(t, n), g), engine="sparse", cache=cache).value
                        for t in range(1 << n)
                    ], g

    @pytest.mark.parametrize("n", [40, 70])
    def test_wide_model_small_states_match_naive(self, n):
        # a 2^n-state lattice could not be built: the table must stay
        # within the query state's substates and the anchors of its worlds;
        # at n = 70 the masks no longer fit a 64-bit word
        rng = random.Random(4040)
        for _ in range(20):
            m = sparse_modal_model(rng, n)
            for f in formulas(rng, m.l, 4):
                state = InfoState(sum(1 << w for w in rng.sample(range(n), rng.randint(3, 6))), n)
                q = CheckQuery(m, state, f)
                assert evaluate(q, engine="table").value == evaluate(q, engine="naive").value

    def test_declarative_rows_follow_truth_masks(self):
        # a row declarative by syntax has its truth mask as its one member,
        # and every row with a family is answered by its members
        rng = random.Random(1618)
        seen = 0
        for _ in range(15):
            m = random_model(rng, n_max=6, l_max=3)
            for f in formulas(rng, m.l, 4):
                program = lower_formula(f)
                table = support_table(program, m)
                declaratives = syntactic_declaratives(program)
                for r, family in enumerate(table.families):
                    if declaratives[r]:
                        seen += 1
                        assert family == (table.truth[r],), r
                    if family is not None:
                        for s in range(1 << m.n):
                            assert table.holds(r, s) == any(s & ~v == 0 for v in family)
        assert seen > 100

    def test_query_lattice_rows_stay_with_their_state(self):
        # the left conjunct builds rows for ?p0 and ?p1 over {w0, w1}; the
        # right one then asks ?p0 -> ?p1 at {w0}, where it holds while it
        # fails over {w0, w1}
        m = InformationModel(2, 3, (bits("11"), bits("10"), bits("10")))
        f = parse_formula("(?p1 -> ?p0) & (p2 -> (?p0 -> ?p1))")
        q = CheckQuery(m, bits("11"), f)
        assert evaluate(q, engine="naive").value
        assert evaluate(q, engine="table").value

    @pytest.mark.parametrize(
        "text",
        [
            "((?p0 -> ?p1) ior (bot -> bot)) & (?p0 -> ?p1)",
            "((?p0 -> ?p0) ior p1) & (?p0 -> ?p0)",
            "(?p1 -> ((?p0 -> ?p1) ior (bot -> bot))) & (?p0 -> ?p1)",
            "(((?p0 -> ?p1) -> ?p1) ior (bot -> bot)) & ((?p0 -> ?p1) -> ?p1)",
            "let y = (?p0 ior ?p1) -> ?p1; (y ior (bot -> bot)) & y",
            "let x = ?p0 ior ?p1; ((x -> x) ior p1) & (x -> x)",
            "let y = (?p0 ior ?p1) -> ?p1; (?p1 -> (y ior (bot -> bot))) & y",
            "let z = ((?p0 ior ?p1) -> ?p1) -> ?p1; (z ior (bot -> bot)) & z",
        ],
    )
    def test_an_implication_met_again_keeps_its_answer(self, demo_model, text):
        # a query answers an implication without a family at a state once.
        # ?p0 ior ?p1 has four members, so an implication out of it into a
        # question has a product of 2 ** 4 or more, past the demo model's
        # cap of 4, and no family. In the fifth and sixth formulas the ior
        # catches the first answer and the right conjunct meets the same
        # row at the same state, and in the seventh it meets it at the
        # parts the left conjunct reached. In the eighth the repeated row
        # holds at {w0, w2} and fails at {w1, w2}, each answered by asking
        # its antecedent, which has no family either, at its consequent's
        # least failing substate. The first four are the same shapes over
        # ?p0 -> ?p1, which has a family, 2 ** 2 products, and is
        # answered by its members
        f = parse_formula(text)
        for s in range(1 << demo_model.n):
            q = CheckQuery(demo_model, InfoState(s, demo_model.n), f)
            assert evaluate(q, engine="table").value == evaluate(q, engine="naive").value, (text, s)

    def test_memo_lookup_reads_table(self):
        rng = random.Random(4242)
        for _ in range(20):
            m = random_model(rng, n_max=5, l_max=2)
            for f in formulas(rng, m.l, 3):
                cache = MemoCache()
                evaluate(CheckQuery(m, InfoState(0, m.n), f), engine="table", cache=cache)
                entry = cache.root(m, f)
                assert entry.table is not None
                got = [entry.table.holds(entry.program.root, s) for s in range(1 << m.n)]
                assert got == reference_row(m, f)


class TestSharedRows:
    def test_library_dag_is_answered_at_once(self, demo_model):
        # H_{i+1} = H_i & H_i holds where H_0 does: 2^60 leaves as a tree,
        # and the query keeps the answer of each shared row at each state.
        # H_0 has no family (a product of 2 ** 4, past the cap of 4), so
        # neither has any H_i
        h0 = parse_formula("(?p0 ior ?p1) -> ?p1")
        h = h0
        for _ in range(60):
            h = And(h, h)
        cache = MemoCache()
        for s in range(1 << demo_model.n):
            state = InfoState(s, demo_model.n)
            want = evaluate(CheckQuery(demo_model, state, h0), engine="naive").value
            for given in (None, cache):
                start = time.perf_counter()
                got = evaluate(CheckQuery(demo_model, state, h), engine="table", cache=given).value
                assert time.perf_counter() - start < 0.1
                assert got == want, s

    def test_refs_count_inquisitive_parents(self, demo_model):
        # rows in postorder: p0, bot, p0 -> bot, ?p0, p1, p1 -> bot, ?p1,
        # x, x -> x, x -> p1, &, root. x has four members, so the product
        # of x -> x would have 4 ** 4, past the demo model's cap of 4: it
        # has no family, and nor do the & and the ior above it. x is held
        # twice by x -> x; x -> x counts two for itself and one from each of
        # the & and the ior. Rows with a family (x, x -> p1 into a
        # declarative) refer to nothing, since a query answers them by
        # their members
        f = parse_formula("let x = ?p0 ior ?p1; (((x -> x) & (x -> p1)) ior (x -> x))")
        program = lower_formula(f)
        assert list(program.ops) == [
            OP_ATOM, OP_BOT, OP_IMPLIES, OP_IVEE, OP_ATOM, OP_IMPLIES, OP_IVEE, OP_IVEE,
            OP_IMPLIES, OP_IMPLIES, OP_AND, OP_IVEE,
        ]
        table = support_table(program, demo_model)
        assert [family is None for family in table.families] == [False] * 8 + [True, False, True, True]
        assert table.refs == [0, 0, 0, 0, 0, 0, 0, 2, 4, 1, 1, 0]

    def test_shared_formulas_match_naive(self):
        # DAGs whose objects repeat at many places: the table, with and
        # without a cache, keeps each shared row's answer per state, and
        # only per state, since a question reaches one row at several
        rng = random.Random(1414)
        queries = 0
        for i in range(240):
            modal = i % 2 == 1
            m = random_model(rng, n_max=6, n_min=3, l_max=3, modal=modal)
            f = shared_formula(rng, 3 + i % 10, m.l, modal, questions=True)
            cache = MemoCache()
            for s in range(1 << m.n):
                q = CheckQuery(m, InfoState(s, m.n), f)
                want = evaluate(q, engine="naive").value
                assert evaluate(q, engine="table").value == want, (i, s)
                assert evaluate(q, engine="table", cache=cache).value == want, (i, s)
                queries += 1
        assert queries >= 6000


class TestAlternatives:
    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_families_and_projections_match_naive(self, n):
        rng = random.Random(57 * n)
        families = descents = 0
        for _ in range(12):
            m = random_model(rng, n_max=n, n_min=n, l_max=3)
            # implications between two inquisitive disjunctions of polar
            # questions, of four and six members: products of 6 ** 4 and
            # 4 ** 6 pass the cap, so neither implication has a family
            a, b, c = (question(Atom(rng.randrange(m.l))) for _ in range(3))
            x = IVee(a, b)
            y = IVee(x, c)
            for f in formulas(rng, m.l, 4) + [And(Implies(x, y), Implies(y, x))]:
                program = lower_formula(f)
                table = support_table(program, m)
                # the one pass gives every row its family before any query,
                # a declarative row (by syntax or not) its truth mask
                assert len(table.families) == program.num_nodes
                declaratives = syntactic_declaratives(program)
                for r, family in enumerate(table.families):
                    if declaratives[r] or family is not None and len(family) == 1:
                        assert family == (table.truth[r],), r
                rows = row_formulas(program)
                for r, g in enumerate(rows):
                    family = table.families[r]
                    if family is None:
                        continue
                    families += len(family) > 1
                    assert all(0 <= v < 1 << n for v in family)
                    # the family covers the row: a state supports it iff it
                    # lies inside a member, probed at the members, at states
                    # with one more world and at random states
                    probes = [rng.randrange(1 << n) for _ in range(12)]
                    probes += [v | 1 << w for v in family for w in range(n) if not v >> w & 1][:12]
                    for t in family + tuple(probes):
                        assert naive_at(m, g, t) == any(t & ~v == 0 for v in family), (t, g)
                # a query descends to the parts s & A of an implication
                # without a family out of a row with alternatives
                for s in ((1 << n) - 1, rng.randrange(1 << n), rng.randrange(1 << n)):
                    for r in range(program.num_nodes):
                        if (
                            program.ops[r] == OP_IMPLIES
                            and table.families[r] is None
                            and table.families[program.left[r]] is not None
                        ):
                            descents += 1
                            assert table.holds(r, s) == naive_at(m, rows[r], s), (s, rows[r])
        # rows with two or more members, and implications without a family
        # that a query descends through
        assert families >= 30 and descents >= 60, (families, descents)

    @pytest.mark.parametrize(
        "text",
        [
            "(?p0 & p0) -> ?p1",
            "((p0 -> ?p1) & p1) -> ?p2",
            "((wbox p1 -> ?p0) & p0) -> ?p2",
            "?p0 -> ?p1",
            "(?p0 ior ?p1) -> ?p2",
            "(wbox p1 -> ?p0) -> ?p2",
        ],
    )
    def test_implication_out_of_a_semantic_declarative_has_a_family(self, text):
        # the first three antecedents are inquisitive by syntax, but the
        # meets of their & leave them one member, their truth mask; so the
        # implication maps its consequent's two members. The others meet,
        # over the antecedent's members A, the consequent's members widened
        # by the worlds outside A: ?p0 -> ?p1 takes a product of 2 ** 2,
        # and (?p0 ior ?p1) -> ?p2 one of 2 ** 4, which passes the cap of
        # 3n/2 on 7-10 worlds but not on 11 or 12. Every implication whose
        # parts have families and whose product is under the cap has a
        # family, whose members support the row and cover it
        program = lower_formula(parse_formula(text))
        rows = row_formulas(program)
        rng = random.Random(2503)
        products = 0
        for n in range(7, 13):
            plain = InformationModel(n, 3, tuple(InfoState(rng.randrange(1 << n), n) for _ in range(3)), None)
            for m in (plain, sparse_modal_model(rng, n)):
                if m.sigma is None and "box" in text:
                    continue
                table = support_table(program, m)
                families = table.families
                if "&" in text:
                    assert len(families[program.left[program.root]]) == 1
                    assert len(families[program.root]) == 2
                for r, (op, a, b) in enumerate(zip(program.ops, program.left, program.right)):
                    fa, fb = families[a], families[b]
                    if op == OP_IMPLIES and fa is not None and fb is not None and len(fb) ** len(fa) <= 3 * n // 2:
                        assert families[r] is not None, (n, rows[r])
                        products += len(fa) > 1 and len(fb) > 1
                for g, family in zip(rows, families):
                    if family is None:
                        continue
                    # every member supports the row, and a state supports it
                    # iff it lies inside a member: probed at random states
                    # and at members with one more world
                    assert all(naive_at(m, g, v) for v in family), (n, g)
                    probes = [rng.randrange(1 << n) for _ in range(8)]
                    probes += [v | 1 << w for v in family for w in range(n) if not v >> w & 1][:12]
                    for t in probes:
                        assert naive_at(m, g, t) == any(t & ~v == 0 for v in family), (n, t, g)
                for s in [(1 << n) - 1] + [rng.randrange(1 << n) for _ in range(40)]:
                    for r, g in enumerate(rows):
                        assert table.holds(r, s) == naive_at(m, g, s), (n, s, g)
        # the last three implications take a product of two or more factors
        # of two or more members on some model
        assert products > 0 or "&" in text

    def test_box_over_a_wide_generator_is_read_off_its_body_family(self):
        # only world 29 has a wide generator, of 26 worlds. The box's body
        # and its antecedent ?p0 -> ?p1 have families by the product, so the
        # table decides the box at that anchor by its body's members and
        # builds no lattice over the anchor's 2^26 substates
        rng = random.Random(5)
        n = 30
        valuation = tuple(InfoState(rng.randrange(1 << n), n) for _ in range(3))
        sigma = tuple(
            (InfoState(sum(1 << v for v in rng.sample(range(n), 26 if w == n - 1 else rng.randint(1, 3))), n),)
            for w in range(n)
        )
        m = InformationModel(n, 3, valuation, sigma)
        q = CheckQuery(m, InfoState(0b111, n), parse_formula("box ((?p0 -> ?p1) -> ?p0)"))
        want = evaluate(q, engine="naive").value
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            assert evaluate(q, engine="table").value == want
            seconds.append(time.perf_counter() - start)
        assert min(seconds) < 0.01, seconds

    def test_least_failure_matches_naive(self):
        # wherever _least_failure(g, s) gives m, the substates of s that
        # fail g are exactly the supersets of m; it gives 0 on states inside
        # a member, which support g, and declines on states where a member
        # leaves two or more worlds out that miss the single-world outs
        rng = random.Random(1102)
        fired = declined = 0
        for i in range(40):
            m = random_model(rng, n_max=8, n_min=4, l_max=3, modal=i % 2 == 1)
            for f in (random_formula(rng, m.l, 3, m.is_modal), question_formula(rng, m.l, 3, m.is_modal)):
                program = lower_formula(f)
                table = support_table(program, m)
                for r, g in enumerate(row_formulas(program)):
                    family = table.families[r]
                    if family is None:
                        continue
                    reference = {}
                    for s in range(1 << m.n):
                        least = table._least_failure(r, s)
                        if any(s & ~v == 0 for v in family):
                            assert least == 0, (s, g)
                            declined += 1
                            continue
                        if least is None:
                            continue
                        fired += len(family) > 1
                        assert least & ~s == 0, (s, least, g)
                        t = s
                        while True:
                            if t not in reference:
                                reference[t] = naive_at(m, g, t)
                            assert (not reference[t]) == (t & least == least), (s, t, least, g)
                            if not t:
                                break
                            t = (t - 1) & s
        # fired counts only rows with two or more members
        assert fired >= 200 and declined >= 200, (fired, declined)

    def test_least_failure_fires_where_maximal_members_leave_one_world(self):
        # the rule read off the maximal members alone: where each leaves
        # exactly one world of s out, the covering family, dominated members
        # and all, gives the OR of those worlds
        rng = random.Random(1803)
        fired = dominated = 0
        for i in range(40):
            m = random_model(rng, n_max=7, n_min=4, l_max=3, modal=i % 2 == 1)
            for f in (random_formula(rng, m.l, 3, m.is_modal), question_formula(rng, m.l, 3, m.is_modal)):
                program = lower_formula(f)
                table = support_table(program, m)
                for r in range(program.num_nodes):
                    family = table.families[r]
                    if family is None:
                        continue
                    maximal = kernels._maximal(family)
                    for s in range(1 << m.n):
                        outs = [s & ~v for v in maximal]
                        if all(out.bit_count() == 1 for out in outs):
                            assert table._least_failure(r, s) == reduce(or_, outs), (s, r, family)
                            fired += 1
                            dominated += len(family) > len(maximal)
        assert fired >= 5000 and dominated >= 400, (fired, dominated)

    def test_dominated_member_builds_no_lattice(self, monkeypatch):
        # p0 ior (p0 & p1) has the family (V0, V0 & V1), whose second member
        # lies inside its first. The antecedent, out of four members into
        # two, would have a product of 2 ** 4, past the cap of at most 12 on
        # 4-8 worlds, so it has no family, and neither has the root;
        # wherever V0 leaves at most one world of s out, the query is
        # answered by the least failure or at once, without a family
        # relative to s
        def no_relative(self, r, s, relative):
            raise AssertionError(f"row {r}'s family relative to {s:b}")

        monkeypatch.setattr(kernels.SupportTable, "_relative_family", no_relative)
        f = parse_formula("((?p2 ior ?p0) -> ?p1) -> (p0 ior (p0 & p1))")
        program = lower_formula(f)
        consequent = program.right[program.root]
        rng = random.Random(1811)
        asked = wide = 0
        for _ in range(30):
            n = rng.randint(4, 8)
            m = InformationModel(n, 3, tuple(InfoState(rng.randrange(1 << n), n) for _ in range(3)), None)
            table = support_table(program, m)
            assert table.families[program.left[program.root]] is None and table.families[program.root] is None
            v0, v01 = table.families[consequent]
            assert v01 & ~v0 == 0
            for s in range(1 << n):
                if (s & ~v0).bit_count() <= 1:
                    assert table.holds(program.root, s) == naive_at(m, f, s), (n, s)
                    asked += 1
                    # the dominated member leaves two or more worlds out
                    wide += (s & ~v0).bit_count() == 1 and (s & ~v01).bit_count() > 1
        assert asked >= 800 and wide >= 200, (asked, wide)

    def test_compiled_instances_build_no_lattice(self, monkeypatch):
        # the wrapper (D_k -> X) -> S_k of each branching quantifier is
        # answered at a k-switching s, the one substate of s that fails
        # S_k, by asking D_k -> X there; D_k has alternatives, so every
        # implication of a compiled query is answered by its family or by
        # descent, and none by a family relative to the state
        def no_relative(self, r, s, relative):
            raise AssertionError(f"row {r}'s family relative to {s:b}")

        monkeypatch.setattr(kernels.SupportTable, "_relative_family", no_relative)
        for l in range(2, 17):
            for seed in range(6):
                theta = random_qbf(100 * l + seed, l, 110)
                instance = reduce_tqbf(theta)
                q = CheckQuery(instance.model.model, instance.state, instance.formula)
                assert evaluate(q, engine="table").value == eval_qbf(theta), (l, seed)


def wide_implication(rng, l, modal):
    """x -> c for x = ?pa ior ?pb: x has four members, so the product of
    2 ** 4 or more for an inquisitive c passes the cap of 3n/2 on up to 10
    worlds, and the implication has no family."""
    x = IVee(question(Atom(rng.randrange(l))), question(Atom(rng.randrange(l))))
    return Implies(x, question_formula(rng, l, 2, modal))


def relative_formula(rng, l, modal):
    """Implications out of antecedents without a family (a wide implication,
    alone or under & or ior) into inquisitive consequents, the second one
    inside the first one's consequent, so that a query asks each
    antecedent's family relative to the state it is asked at."""

    def antecedent():
        w, q = wide_implication(rng, l, modal), question_formula(rng, l, 1, modal)
        return rng.choice([w, And(w, q), IVee(w, q)])

    d = IVee(question(Atom(rng.randrange(l))), question_formula(rng, l, 1, modal))
    f = Implies(antecedent(), IVee(d, Implies(antecedent(), d)))
    other = question_formula(rng, l, 2, modal)
    return rng.choice([f, And(f, other), IVee(other, f), Implies(other, f), Implies(f, other)])


def kinds_model(m):
    """The plain model with one world per distinct column of m's valuation.
    A state of m supports a formula iff its image there does (duplicating a
    world changes no answer), so m's full state answers as this model's."""
    columns = sorted({tuple(v.mask >> w & 1 for v in m.valuation) for w in range(m.n)})
    k = len(columns)
    valuation = tuple(InfoState(sum(column[a] << i for i, column in enumerate(columns)), k) for a in range(m.l))
    return InformationModel(k, m.l, valuation, None)


def cell_model(c):
    """2c worlds in c cells of two, cell i the worlds where p0-p3 read i in
    binary; p4 holds at the first world of each cell and p5 at the first c
    worlds. At the full state, ((?p0 & ?p1 & ?p2 & ?p3) -> ?p4) -> ?p5
    descends by its antecedent's family relative to the state: one world
    of each cell, 2 ** c members. Some of them join a p5 world and a world
    without p5, so the formula fails there."""
    n = 2 * c
    val = [0] * 6
    for i in range(c):
        for w in (2 * i, 2 * i + 1):
            for a in range(4):
                val[a] |= (i >> a & 1) << w
        val[4] |= 1 << 2 * i
    val[5] = (1 << c) - 1
    return InformationModel(n, 6, tuple(InfoState(v, n) for v in val), None)


def best_of_three(q):
    """q's answer on the table, checked the same each time, and the least
    of three timings in seconds."""
    seconds, values = [], set()
    for _ in range(3):
        start = time.perf_counter()
        values.add(evaluate(q, engine="table").value)
        seconds.append(time.perf_counter() - start)
    assert len(values) == 1
    return values.pop(), min(seconds)


class TestRelativeFamilies:
    def test_relative_rule_matches_naive(self, relative_states):
        # plain and modal models of 4-10 worlds, at states of 3-6 worlds
        rng = random.Random(3211)
        wide = 0
        for i in range(250):
            m = random_model(rng, n_max=10, n_min=4, l_max=3, modal=i % 2 == 1)
            f = relative_formula(rng, m.l, m.is_modal)
            program = lower_formula(f)
            table = support_table(program, m)
            wide += None in table.families
            for _ in range(4):
                s = sum(1 << w for w in rng.sample(range(m.n), rng.randint(3, min(m.n, 6))))
                assert table.holds(program.root, s) == naive_at(m, f, s), (s, f)
        assert wide >= 200 and len(relative_states) >= 200, (wide, len(relative_states))

    @pytest.mark.parametrize("n", [24, 64])
    def test_nested_implications_at_a_wide_state(self, n, relative_states):
        # the full state of a 3-atom plain model has at most 8 kinds of
        # worlds. Under the cap of 36 on 24 worlds the upper implications
        # have no family, and are decided by families relative to the
        # state; under the cap of 96 on 64 worlds they have one
        rng = random.Random(n)
        m = InformationModel(n, 3, tuple(InfoState(rng.randrange(1 << n), n) for _ in range(3)), None)
        f = parse_formula("((((?p0 -> ?p1) -> ?p2) -> ?p0) -> ?p1) -> ?p2")
        small = kinds_model(m)
        value, seconds = best_of_three(CheckQuery(m, InfoState((1 << n) - 1, n), f))
        assert value == naive_at(small, f, (1 << small.n) - 1)
        assert bool(relative_states) == (n == 24)
        assert seconds < 0.01, seconds

    @pytest.mark.parametrize("atoms", [6, 8])
    def test_box_over_a_wide_generator_with_families_past_the_cap(self, atoms, relative_states):
        # the model of the box test above, with a body whose implications
        # from ((?p0 -> ?p1) -> ?p2) up have no family: it is decided at the
        # 26-world anchor by families relative to it
        rng = random.Random(5)
        n = 30
        valuation = tuple(InfoState(rng.randrange(1 << n), n) for _ in range(atoms))
        sigma = tuple(
            (InfoState(sum(1 << v for v in rng.sample(range(n), 26 if w == n - 1 else rng.randint(1, 3))), n),)
            for w in range(n)
        )
        m = InformationModel(n, atoms, valuation, sigma)
        body = "?p0"
        for a in range(1, atoms):
            body = f"({body} -> ?p{a})"
        q = CheckQuery(m, InfoState(0b111, n), parse_formula(f"box {body}"))
        value, seconds = best_of_three(q)
        assert value == evaluate(q, engine="naive").value
        assert relative_states
        assert seconds < 0.01, seconds

    @pytest.mark.parametrize("c", [4, 6, 8, 10, 11, 12])
    def test_relative_family_within_the_bound(self, c, relative_states):
        # the antecedent's product of 2 ** c passes the cap of 3c, and its
        # family relative to the full state has 2 ** c members, kept
        # maximal one factor at a time; at c = 12 the last step keeps
        # 4096 masks maximal, RELATIVE_BOUND
        m = cell_model(c)
        q = CheckQuery(m, InfoState((1 << m.n) - 1, m.n), parse_formula("((?p0 & ?p1 & ?p2 & ?p3) -> ?p4) -> ?p5"))
        assert evaluate(q, engine="table").value is False
        if c <= 4:
            assert evaluate(q, engine="naive").value is False
        assert relative_states == [(1 << m.n) - 1]

    @pytest.mark.parametrize("c", [14, 16])
    def test_relative_family_past_the_bound_is_refused(self, c):
        # the step past 4096 masks raises before it is built, after the
        # work of c = 12; best of two
        m = cell_model(c)
        f = parse_formula("((?p0 & ?p1 & ?p2 & ?p3) -> ?p4) -> ?p5")
        program = lower_formula(f)
        want = f"row {program.left[program.root]}'s family inside the query state passes the bound of 4096 masks"
        seconds = []
        for _ in range(2):
            start = time.perf_counter()
            with pytest.raises(QueryError) as info:
                evaluate(CheckQuery(m, InfoState((1 << m.n) - 1, m.n), program), engine="table")
            seconds.append(time.perf_counter() - start)
            assert str(info.value) == want
        assert min(seconds) < 1, seconds


class TestSelection:
    def test_auto_respects_byte_cap(self):
        # at 24 worlds, 8 rows make a table of exactly the cap and 9 one
        # past it
        assert 8 << 24 == DEFAULT_TABLE_BYTE_CAP
        valuation = (InfoState(0b101101, 24), InfoState(0b110011, 24))
        model = InformationModel(24, 2, valuation, None)
        at_cap = parse_formula("(p0 & p1) -> ((p1 ior p0) & (p0 -> bot))")
        past_cap = IVee(at_cap, Atom(1))
        for formula, rows, engine in ((at_cap, 8, "table"), (past_cap, 9, "sparse")):
            assert table_bytes(lower_formula(formula), model) == rows << 24
            query = CheckQuery(model, InfoState(0b111, 24), formula)
            outcome = evaluate(query, engine="auto")
            assert outcome.engine == engine
            assert outcome.value == check_support(query)
