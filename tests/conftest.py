"""Shared fixtures: the three-world demo models, seeded random generators,
and an independent set-based support oracle used to cross-check the package
evaluators. The oracle works on frozensets of world indices on purpose so it
shares no representation with the bitmask code under test.
"""

from __future__ import annotations

import random
from itertools import chain, combinations

import pytest

from inqcheck import kernels
from inqcheck.model import InfoState, InformationModel
from inqcheck.syntax import And, Atom, Bottom, Box, Formula, IVee, Implies, WBox

_acceptance_results: dict[int, tuple[str, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(num, label): ties a test to one numbered acceptance criterion",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    num, label = marker.args
    if report.when == "setup" and report.skipped:
        _acceptance_results.setdefault(num, (label, "NOT RUN"))
    if report.when != "call":
        return
    previous = _acceptance_results.get(num)
    verdict = "PASS" if report.passed else "FAIL"
    if previous is not None and previous[1] == "FAIL":
        verdict = "FAIL"
    _acceptance_results[num] = (label, verdict)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_acceptance_results):
        label, verdict = _acceptance_results[num]
        terminalreporter.write_line(f"criterion {num}: {label:<52} {verdict}")


def bits(s: str) -> InfoState:
    return InfoState.from_bits(s)


@pytest.fixture
def demo_model() -> InformationModel:
    """Three worlds, two atoms, modal: V(p0)={w0,w2}, V(p1)={w0,w1},
    sigma(w0)={{w2}}, sigma(w1)={{w0},{w1,w2}}, sigma(w2)={{w0,w1},{w0,w2}}."""
    return InformationModel(
        3,
        2,
        (bits("101"), bits("110")),
        (
            (bits("001"),),
            (bits("100"), bits("011")),
            (bits("110"), bits("101")),
        ),
    )


@pytest.fixture
def relative_states(monkeypatch) -> list[int]:
    """Records the state of every family relative to a state that the table
    builds for an implication."""
    states = []

    def recorded(self, r, s, relative):
        states.append(s)
        return relative_family(self, r, s, relative)

    relative_family = kernels.SupportTable._relative_family
    monkeypatch.setattr(kernels.SupportTable, "_relative_family", recorded)
    return states


@pytest.fixture
def demo_model_padded(demo_model) -> InformationModel:
    # same model with a third, everywhere-false atom
    return InformationModel(
        3,
        3,
        demo_model.valuation + (bits("000"),),
        demo_model.sigma,
    )


def state_set(state: InfoState) -> frozenset[int]:
    return frozenset(state.worlds())


def subsets(worlds: frozenset[int]):
    items = sorted(worlds)
    return (
        frozenset(c)
        for c in chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))
    )


def set_support(model: InformationModel, worlds: frozenset[int], formula: Formula) -> bool:
    """Reference semantics over plain sets, written independently of the
    bitmask evaluators."""
    if isinstance(formula, Bottom):
        return not worlds
    if isinstance(formula, Atom):
        extension = state_set(model.valuation[formula.index])
        return worlds <= extension
    if isinstance(formula, And):
        return set_support(model, worlds, formula.left) and set_support(
            model, worlds, formula.right
        )
    if isinstance(formula, IVee):
        return set_support(model, worlds, formula.left) or set_support(
            model, worlds, formula.right
        )
    if isinstance(formula, Implies):
        return all(
            set_support(model, t, formula.right)
            for t in subsets(worlds)
            if set_support(model, t, formula.left)
        )
    if isinstance(formula, Box):
        for w in worlds:
            union: frozenset[int] = frozenset()
            for generator in model.sigma[w]:
                union |= state_set(generator)
            if not set_support(model, union, formula.body):
                return False
        return True
    if isinstance(formula, WBox):
        return all(
            set_support(model, state_set(generator), formula.body)
            for w in worlds
            for generator in model.sigma[w]
        )
    raise TypeError(f"unknown node {formula!r}")


def random_model(
    rng: random.Random,
    n_max: int = 5,
    l_max: int = 3,
    k_max: int = 3,
    modal: bool = True,
    n_min: int = 1,
) -> InformationModel:
    n = rng.randint(n_min, n_max)
    l = rng.randint(1, l_max)
    valuation = tuple(InfoState(rng.randrange(1 << n), n) for _ in range(l))
    sigma = None
    if modal:
        sigma = tuple(
            tuple(
                InfoState(mask, n)
                for mask in rng.sample(range(1 << n), rng.randint(1, min(k_max, 1 << n)))
            )
            for _ in range(n)
        )
    return InformationModel(n, l, valuation, sigma)


def random_formula(rng: random.Random, l: int, depth: int, modal: bool) -> Formula:
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.15:
            return Bottom()
        return Atom(rng.randrange(l))
    kinds = ["and", "ior", "implies", "implies"]
    if modal:
        kinds += ["box", "wbox"]
    kind = rng.choice(kinds)
    if kind == "box":
        return Box(random_formula(rng, l, depth - 1, modal))
    if kind == "wbox":
        return WBox(random_formula(rng, l, depth - 1, modal))
    left = random_formula(rng, l, depth - 1, modal)
    right = random_formula(rng, l, depth - 1, modal)
    if kind == "and":
        return And(left, right)
    if kind == "ior":
        return IVee(left, right)
    return Implies(left, right)


def question_formula(rng: random.Random, l: int, depth: int, modal: bool = True) -> Formula:
    """Like random_formula, with polar questions `p ior (p -> bot)` among
    the leaves and ior twice as likely. Rows of random_formula are rarely
    refuted at a state all of whose worlds make them true; these often
    are, which is the case the truth masks cannot decide alone."""
    if depth == 0 or rng.random() < 0.2:
        x = rng.random()
        if x < 0.1:
            return Bottom()
        atom = Atom(rng.randrange(l))
        return IVee(atom, Implies(atom, Bottom())) if x < 0.5 else atom
    kinds = ["and", "ior", "ior", "implies", "implies"]
    if modal:
        kinds += ["box", "wbox"]
    kind = rng.choice(kinds)
    if kind in ("box", "wbox"):
        return (Box if kind == "box" else WBox)(question_formula(rng, l, depth - 1, modal))
    left = question_formula(rng, l, depth - 1, modal)
    right = question_formula(rng, l, depth - 1, modal)
    return {"and": And, "ior": IVee, "implies": Implies}[kind](left, right)


def shared_formula(
    rng: random.Random, steps: int, atoms: int = 3, modal: bool = True, questions: bool = False
) -> Formula:
    """A DAG: each new node takes its children from all the nodes so far,
    so later nodes share earlier objects. With questions, the pool starts
    with `?p` for each atom too, so that inquisitive rows are common. The
    root joins the last node with every pool node that no other node
    holds, by & or ior (which nest no implications), so that it reaches
    the whole pool."""
    pool = [Bottom()] + [Atom(i) for i in range(atoms)]
    if questions:
        pool += [IVee(p, Implies(p, Bottom())) for p in pool[1:]]
    kinds = (And, IVee, Implies, Box, WBox) if modal else (And, IVee, Implies)
    held: set[int] = set()  # ids of the pool nodes that a later node holds
    for _ in range(steps):
        kind = rng.choice(kinds)
        children = [rng.choice(pool)] if kind in (Box, WBox) else [rng.choice(pool), rng.choice(pool)]
        held.update(id(g) for g in children)
        pool.append(kind(*children))
    root = pool[-1]
    for g in pool[-2::-1]:
        if id(g) not in held:
            join = rng.choice((And, IVee))
            root = join(root, g) if rng.random() < 0.5 else join(g, root)
    return root


def printing_corpus() -> list:
    """300 seeded library formulas: trees of random_formula and
    question_formula, and shared_formula DAGs."""
    rng = random.Random(1717)
    corpus = []
    for i in range(100):
        corpus.append(random_formula(rng, 4, 5, True))
        corpus.append(question_formula(rng, 3, 4, True))
        corpus.append(shared_formula(rng, 3 + i % 20, questions=i % 2 == 1))
    return corpus


def random_state(rng: random.Random, n: int) -> InfoState:
    return InfoState(rng.randrange(1 << n), n)


def supports_ladder_flat(mask: int, k: int, l: int) -> bool:
    """Direct reading of the ladder gadget over a state mask: some pair below
    k entirely missing, or some pair at or above k not entirely present."""
    for i in range(k):
        if mask & (0b11 << (2 * i)) == 0:
            return True
    for i in range(k, l):
        if mask & (0b11 << (2 * i)) != (0b11 << (2 * i)):
            return True
    return False


# text the lexers must treat exactly: Unicode letters and digits, a
# no-break space and other blanks they do not skip, a lone "-", words
# that start with a digit or "_", comments, CR, CRLF and final newlines
LEXER_PIECES = [
    " ", "  ", "\t", "\n", "\r\n", "\r", "\xa0", "\u2028", "\x0b", "\x85",
    "# note", "#", "#\n", "-", "->", "- >", ">", "$", "²", "p²", "٣", "p٣", "p1٣",
    "é", "ß", "λx", "x²", "Ω", "_", "_a", "a_", "3", "3x", "0p", "p", "p0", "p07",
    "x0", "x1", "y", "(", ")", "&", "|", "~", ":", "?", "=", ";", "ior", "or",
    "not", "bot", "box", "wbox", "let", "forall", "exists", "ForAll",
]


# what a one-place fault puts in a text that the plain lexer would take:
# a comment, blanks that str.split() splits at and the lexers do not
# skip, halves of "->", and word characters past ASCII
FAULT_PIECES = ["#", "\x0b", "\x0c", "\xa0", "-", ">", "é", "²", "٣", "\t", "\r"]


def one_place_faults(seed: int, texts: list[str], count: int) -> list[str]:
    """count texts drawn from seed, each one of texts with one character
    replaced by a FAULT_PIECES piece, deleted, or with a piece inserted."""
    rng = random.Random(seed)
    faults = []
    for _ in range(count):
        text = rng.choice(texts)
        at, piece = rng.randrange(len(text) + 1), rng.choice(FAULT_PIECES)
        kind = rng.randrange(3)
        faults.append(text[:at] + (piece if kind != 1 else "") + text[at + (kind != 2) :])
    return faults


def lexed(tokens: list[str]) -> list[str]:
    """tokens up to and including the first "", where a parser stops."""
    return tokens[: tokens.index("") + 1]


def lexer_corpus(seed: int, texts: list[str], count: int = 300) -> list[str]:
    """count texts drawn from seed, most of them malformed: each of texts,
    then those texts cut short, with one character changed or with
    LEXER_PIECES spliced in, and runs of pieces alone; the last ones end
    in a comment with no newline, in CRLF or in a final newline."""
    rng = random.Random(seed)
    corpus = list(texts)
    while len(corpus) < count - 3:
        base = rng.choice(texts)
        at = rng.randrange(len(base) + 1)
        how = rng.randrange(4)
        if how == 0:
            corpus.append(base[:at])
        elif how == 1:
            corpus.append(base[:at] + rng.choice(LEXER_PIECES) + base[at + 1 :])
        elif how == 2:
            corpus.append(base[:at] + rng.choice(LEXER_PIECES) + base[at:])
        else:
            corpus.append("".join(rng.choice(LEXER_PIECES) for _ in range(rng.randint(1, 6))))
    last = rng.choice(texts)
    corpus += [last + "  # no newline", last.replace(" ", "\r\n"), last + "\n"]
    return corpus
