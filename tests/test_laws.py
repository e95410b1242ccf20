"""Inquisitive-logic laws, checked on the table engine against naive.

Each law is tested on models of 12-13 worlds made by duplicating worlds
of a model of at most 6, so that the table descends through implications
by families relative to states of 12 or more worlds while naive answers
on the small model: duplicating a world changes no answer, because a
state supports a formula iff its image in the small model does. The
modal law box f == wbox f, on models where each world has one generator,
is checked on every engine at every state. The laws of the normal
modalities, box f == wbox f for a declarative f, K and distribution over
&, are checked by the table alone at wide states of models of 30-200
worlds, where naive would enumerate the subsets of states and generators
of dozens of worlds.
"""

from __future__ import annotations

import random

from inqcheck.checker import ENGINES, CheckQuery, MemoCache, evaluate
from inqcheck.model import InfoState, InformationModel
from inqcheck.syntax import And, Atom, Bottom, Box, Implies, IVee, WBox, classical_or, neg

from conftest import question_formula, random_formula, random_model


def declarative_formula(rng, l, depth, modal):
    """A random formula that is declarative by syntax: atoms and bot under
    &, classical or, negation and -> into a declarative, and box or wbox
    of any formula on modal models."""
    if depth == 0 or rng.random() < 0.25:
        return Bottom() if rng.random() < 0.1 else Atom(rng.randrange(l))
    kind = rng.choice(["and", "or", "not", "implies"] + (["box", "wbox"] if modal else []))
    if kind in ("box", "wbox"):
        return (Box if kind == "box" else WBox)(random_formula(rng, l, depth - 1, modal))
    if kind == "not":
        return neg(declarative_formula(rng, l, depth - 1, modal))
    if kind == "implies":
        return Implies(random_formula(rng, l, depth - 1, modal), declarative_formula(rng, l, depth - 1, modal))
    left = declarative_formula(rng, l, depth - 1, modal)
    right = declarative_formula(rng, l, depth - 1, modal)
    return And(left, right) if kind == "and" else classical_or(left, right)


def duplicate_worlds(m, copies):
    """m with one more world per entry of copies, world m.n + i a copy of
    world copies[i]: the same atoms hold there, it has the same generators,
    and every generator of the new model holds the copies of its worlds."""
    def lift(mask):
        return mask | sum(1 << m.n + i for i, w in enumerate(copies) if mask >> w & 1)

    n = m.n + len(copies)
    valuation = tuple(InfoState(lift(v.mask), n) for v in m.valuation)
    sigma = None
    if m.sigma is not None:
        gens = [tuple(InfoState(lift(g.mask), n) for g in m.sigma[w]) for w in range(m.n)]
        sigma = tuple(gens + [gens[w] for w in copies])
    return InformationModel(n, m.l, valuation, sigma)


def image(s, m, copies):
    """The state of m that state s of duplicate_worlds(m, copies) stands for."""
    small = s & (1 << m.n) - 1
    for i, w in enumerate(copies):
        small |= (s >> m.n + i & 1) << w
    return small


def wide_cases(rng, count):
    """(small model, copies, big model, big states): plain and modal models
    of 4-6 worlds grown to 12-13, each asked at its full state, the full
    state less one world and two random states."""
    for i in range(count):
        m = random_model(rng, n_max=6, n_min=4, l_max=3, modal=i % 2 == 1)
        copies = [rng.randrange(m.n) for _ in range(rng.randint(12, 13) - m.n)]
        big = duplicate_worlds(m, copies)
        full = (1 << big.n) - 1
        states = [full, full & ~(1 << rng.randrange(big.n))] + [rng.randrange(1 << big.n) for _ in range(2)]
        yield m, copies, big, states


def block_model(rng):
    """A modal model of 30-200 worlds in consecutive blocks of 5-20. Each
    atom holds on all of a block, on none of it, or, half the time, on a
    random part; each world has one to three generators, random parts of
    its own block, some joined with a part of the next one. So box and
    wbox of a question hold at some worlds and fail at others."""
    n = rng.randint(30, 200)
    blocks = []
    start = 0
    while start < n:
        size = min(rng.randint(5, 20), n - start)
        blocks.append(((1 << size) - 1) << start)
        start += size

    def part(block):
        return block & rng.getrandbits(n) or block & -block

    valuation = tuple(
        InfoState(sum(rng.choice((block, 0, part(block), part(block))) for block in blocks), n) for _ in range(3)
    )
    sigma = []
    for i, block in enumerate(blocks):
        after = blocks[(i + 1) % len(blocks)]
        for _ in range(block.bit_count()):
            gens = {part(block) | (part(after) if rng.random() < 0.2 else 0) for _ in range(rng.randint(1, 3))}
            sigma.append(tuple(InfoState(g, n) for g in gens))
    return InformationModel(n, 3, valuation, tuple(sigma))


def wide_states(rng, m, f, cache):
    """For a declarative f, which a state supports iff each of its worlds
    does: the worlds where f holds, those less about half, those and one
    world more, and the full state."""
    truth = sum(1 << w for w in range(m.n) if answer(m, 1 << w, f, "table", cache))
    states = [truth, truth & rng.getrandbits(m.n), (1 << m.n) - 1]
    outside = [w for w in range(m.n) if not truth >> w & 1]
    return states + [truth | 1 << rng.choice(outside)] if outside else states


def answer(model, mask, formula, engine, cache=None):
    return evaluate(CheckQuery(model, InfoState(mask, model.n), formula), engine=engine, cache=cache).value


def assert_equivalent(lhs, rhs, m, copies, big, states):
    """Both sides get naive's answer on the small model, and the table's
    on the big one, at every state."""
    for s in states:
        expected = answer(m, image(s, m, copies), lhs, "naive")
        assert answer(m, image(s, m, copies), rhs, "naive") == expected, (lhs, rhs)
        assert answer(big, s, lhs, "table") == expected, (s, lhs)
        assert answer(big, s, rhs, "table") == expected, (s, rhs)


class TestLaws:
    def test_duplicating_a_world_changes_no_answer(self, relative_states):
        rng = random.Random(1213)
        for m, copies, big, states in wide_cases(rng, 60):
            for f in (random_formula(rng, m.l, 4, m.is_modal), question_formula(rng, m.l, 5, m.is_modal)):
                for s in states:
                    expected = answer(m, image(s, m, copies), f, "naive")
                    assert answer(big, s, f, "table") == expected, (s, f)
        # some implication descended by a family relative to a state of 12
        # or more worlds
        widths = [s.bit_count() for s in relative_states]
        assert any(k >= 12 for k in widths), widths

    def test_duplication_on_naive_itself(self):
        rng = random.Random(77)
        for i in range(40):
            m = random_model(rng, n_max=4, l_max=2, modal=i % 2 == 1)
            copies = [rng.randrange(m.n) for _ in range(rng.randint(1, 3))]
            big = duplicate_worlds(m, copies)
            f = random_formula(rng, m.l, depth=3, modal=m.is_modal)
            for s in range(1 << big.n):
                assert answer(big, s, f, "naive") == answer(m, image(s, m, copies), f, "naive"), (s, f)

    def test_split(self):
        # (a -> (f ior g)) == (a -> f) ior (a -> g) for a declarative a
        rng = random.Random(2011)
        for m, copies, big, states in wide_cases(rng, 60):
            a = declarative_formula(rng, m.l, 2, m.is_modal)
            f = random_formula(rng, m.l, 3, m.is_modal)
            g = question_formula(rng, m.l, 3, m.is_modal)
            lhs = Implies(a, IVee(f, g))
            rhs = IVee(Implies(a, f), Implies(a, g))
            assert_equivalent(lhs, rhs, m, copies, big, states)

    def test_double_negation_of_a_declarative(self):
        rng = random.Random(1618)
        for m, copies, big, states in wide_cases(rng, 40):
            a = declarative_formula(rng, m.l, 3, m.is_modal)
            assert_equivalent(neg(neg(a)), a, m, copies, big, states)

    def test_box_is_wbox_when_each_world_has_one_generator(self):
        # box reads a world's generator union, wbox each generator: with
        # one generator the two are one anchor
        rng = random.Random(1917)
        for _ in range(30):
            m = random_model(rng, n_max=5, k_max=1)
            f = random_formula(rng, m.l, 3, True)
            for s in range(1 << m.n):
                answers = {answer(m, s, g, engine) for g in (Box(f), WBox(f)) for engine in ENGINES}
                assert len(answers) == 1, (s, f)

    def test_box_and_wbox_differ_on_two_generators(self):
        # world 0 has generators {w0} and {w1}, which each support ?p0
        # while their union does not: wbox ?p0 holds at {w0}, box ?p0 fails
        m = InformationModel(
            2, 1, (InfoState(0b01, 2),), ((InfoState(0b01, 2), InfoState(0b10, 2)), (InfoState(0b10, 2),))
        )
        question = IVee(Atom(0), neg(Atom(0)))
        for engine in ENGINES:
            assert answer(m, 0b01, WBox(question), engine), engine
            assert not answer(m, 0b01, Box(question), engine), engine


class TestWideModalLaws:
    def assert_laws(self, seed, sides):
        # both sides of each law get the same answer at the wide states of
        # the left side, in 12 models, and both answers occur
        rng = random.Random(seed)
        seen = set()
        for _ in range(12):
            m = block_model(rng)
            cache = MemoCache()
            for lhs, rhs in sides(rng):
                for s in wide_states(rng, m, lhs, cache):
                    got = answer(m, s, lhs, "table", cache)
                    assert answer(m, s, rhs, "table", cache) == got, (m.n, s, lhs, rhs)
                    seen.add(got)
        assert seen == {False, True}

    def test_box_is_wbox_on_a_declarative(self):
        def sides(rng):
            f = declarative_formula(rng, 3, 3, True)
            return [(Box(f), WBox(f))]

        self.assert_laws(630, sides)

    def test_distribution_over_and(self):
        def sides(rng):
            f = question_formula(rng, 3, 2)
            g = random_formula(rng, 3, 2, True)
            return [(M(And(f, g)), And(M(f), M(g))) for M in (Box, WBox)]

        self.assert_laws(2016, sides)

    def test_k(self):
        # (M(f -> g) & M f) -> M g is supported wherever bot -> bot is,
        # and at the wide states of the premises, so is the conclusion
        def sides(rng):
            f = question_formula(rng, 3, 2)
            g = question_formula(rng, 3, 2)
            laws = []
            for M in (Box, WBox):
                premises = And(M(Implies(f, g)), M(f))
                laws += [(Implies(premises, M(g)), Implies(Bottom(), Bottom())), (premises, And(premises, M(g)))]
            return laws

        self.assert_laws(40, sides)
