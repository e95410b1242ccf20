"""Support checking: does a state of a model support a formula.

Clauses, over a state s of a model with extensions V and state map
generators sigma:

    bot        iff s is empty
    atom j     iff s is a subset of V(p_j)
    f & g      iff both hold at s
    f ior g    iff one of them holds at s
    f -> g     iff every subset of s supporting f supports g
    box f      iff for every world w in s, f holds at the union of
                   sigma(w)
    wbox f     iff f holds at every generator of every world in s

Evaluating the wbox clause over generators instead of their downward
closures is sound: support is downward persistent, so a universally
quantified clause cannot distinguish a family from its closure.

check_support is the trusted baseline: plain structural recursion over
the program's rows, its implication clause enumerating the subsets of s
directly (never states outside s), with no caching and no pruning.
check_support_memo is the fast path: when the byte cap allows, it builds
one support table per (model, formula) through the kernels module
(per-world truth masks of every subformula) and answers each query from
it, reading families relative to the query state where a row has no
family of its own; otherwise it runs the baseline's clauses with a memo
of (row, state) answers, which lasts one query. Both paths must and do
agree; the test suite holds them against each other.

A query's formula is a Formula or a Program. One rule set refuses a bad
query in either form, in this order: a state whose width is not the
model's world count, an atom index past the model's atoms (the largest,
when several are), a box or wbox over a plain model. A Formula is walked
once for its largest atom index and any modality, refusing a node that
is no formula node, then lowered; a Program, whose construction refuses
rows that no formula has, gives both off its columns (an atom row's
left is its index) and is decided as it stands. Every engine reads the
program's rows.

The table's rules for implications are in the kernels module docstring.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .kernels import (
    OP_AND,
    OP_ATOM,
    OP_BOT,
    OP_BOX,
    OP_IMPLIES,
    OP_IVEE,
    OP_WBOX,
    Program,
    QueryError,
    SupportTable,
    _OP_OF_TYPE,
    lower_formula,
    support_table,
    table_bytes,
)
from .model import InfoState, InformationModel, sigma_union
from .syntax import Formula

__all__ = [
    "CheckQuery",
    "CheckOutcome",
    "MemoCache",
    "QueryError",
    "evaluate",
    "check_support",
    "check_anti_support",
    "check_support_memo",
    "render_result",
    "DEFAULT_TABLE_BYTE_CAP",
]

DEFAULT_TABLE_BYTE_CAP = 1 << 27

ENGINES = ("auto", "table", "sparse", "naive")


@dataclass(frozen=True, slots=True)
class CheckQuery:
    """Does state support formula in model. The formula is a Formula, or
    a Program, which the engines decide without lowering."""

    model: InformationModel
    state: InfoState
    formula: Formula | Program


@dataclass(slots=True, eq=False)
class _RootEntry:
    """Per-(model, formula) cache body: the lowered program and its
    support table once built. model and formula are the objects the entry
    was last asked for, its one alias."""

    program: Program
    table: SupportTable | None = None
    model: InformationModel | None = None
    formula: Formula | Program | None = None


class MemoCache:
    """The lowered program of each distinct (model, root formula) pair,
    and its support table once the table engine builds it; structurally
    equal subtrees share a row. The table answers every later query of
    the pair. The sparse engine keeps no memo here: its (row, state)
    answers last one query.

    root never hashes a formula. It first looks the pair up by object
    identity: each entry keeps the model and formula it was last asked
    for, so their ids stay valid, and keeps only that one alias, so
    callers passing fresh equal objects do not grow the cache. Otherwise
    it lowers the formula and looks the entry up by the model and the
    program, a value whose rows are canonical for the formula and hash
    without recursion, so equal formulas of any depth share one entry.
    Every program of a DAG is one value: a formula, its compiled program
    and the program parsed from its text share one entry.
    """

    def __init__(self) -> None:
        self._roots: dict[tuple, _RootEntry] = {}
        self._aliases: dict[tuple[int, int], _RootEntry] = {}

    def root(self, model: InformationModel, formula: Formula | Program) -> _RootEntry:
        alias = (id(model), id(formula))
        # an alias's entry holds the two objects, so no other live object
        # can have their ids
        entry = self._aliases.get(alias)
        if entry is not None:
            return entry
        program = formula if type(formula) is Program else lower_formula(formula)
        key = (model, program)
        entry = self._roots.get(key)
        if entry is None:
            entry = _RootEntry(program=program)
            self._roots[key] = entry
        else:
            del self._aliases[id(entry.model), id(entry.formula)]
        entry.model, entry.formula = model, formula
        self._aliases[alias] = entry
        return entry


def _facts(f: Formula | Program) -> tuple[int, bool]:
    """The largest atom index of f (-1 without atoms) and whether a box
    or wbox occurs in it: off a Program's columns, all of which its root
    reaches, or by a walk over a Formula that visits each composite
    object once, left children in place, and refuses a non-formula node."""
    if type(f) is Program:
        ops = f.ops
        # an atom row's left is its index, any other row's a row number
        return max(compress(f.left, map(OP_ATOM.__eq__, ops)), default=-1), OP_BOX in ops or OP_WBOX in ops
    top, modal = -1, False
    seen: set[int] = set()  # ids of the composite objects visited
    stack = []
    g = f
    while True:
        try:
            op = _OP_OF_TYPE[type(g)]
        except KeyError:
            raise QueryError(f"not a formula node: {g!r}") from None
        if op == OP_ATOM:
            if g.index > top:
                top = g.index
        elif op != OP_BOT and (key := id(g)) not in seen:
            seen.add(key)
            if op < OP_BOX:
                stack.append(g.right)
                g = g.left
                continue
            modal = True
            g = g.body
            continue
        if not stack:
            return top, modal
        g = stack.pop()


def _validate(q: CheckQuery) -> None:
    """Refuse a bad query by the module docstring's rules, in their order."""
    m = q.model
    if q.state.width != m.n:
        raise QueryError(f"state width {q.state.width} does not match world count {m.n}")
    top, modal = _facts(q.formula)
    if top >= m.l:
        raise QueryError(f"atom index {top} out of range, model has {m.l} atoms")
    if modal and m.sigma is None:
        raise QueryError("modal formula over a plain model with no state map")


def _submasks(s: int):
    """All t with t subset of s, including s and 0."""
    t = s
    while True:
        yield t
        if t == 0:
            return
        t = (t - 1) & s


def _eval_naive(
    p: Program, m: InformationModel, state: int, memo: dict[tuple[int, int], bool] | None = None
) -> tuple[bool, int]:
    """The clauses over p's rows at state, counting each evaluation. With
    a memo, each (row, state) answer is looked up and stored there, and
    only misses count."""
    ops, left, right = p.ops, p.left, p.right
    vmasks = [v.mask for v in m.valuation]
    # per world, the states where a box body must hold, and a wbox body's
    unions = [(sigma_union(m, w).mask,) for w in range(m.n)] if m.is_modal else None
    gens = [[g.mask for g in gs] for gs in m.sigma] if m.is_modal else None
    visits = 0

    def go(r: int, s: int) -> bool:
        nonlocal visits
        if memo is not None:
            key = (r, s)
            value = memo.get(key)
            if value is not None:
                return value
        visits += 1
        op = ops[r]
        if op == OP_BOT:
            value = s == 0
        elif op == OP_ATOM:
            value = s & ~vmasks[left[r]] == 0
        elif op == OP_AND:
            value = go(left[r], s) and go(right[r], s)
        elif op == OP_IVEE:
            value = go(left[r], s) or go(right[r], s)
        elif op == OP_IMPLIES:
            value = True
            for t in _submasks(s):
                if go(left[r], t) and not go(right[r], t):
                    value = False
                    break
        else:
            value = True
            for w, anchors in enumerate(unions if op == OP_BOX else gens):
                if value and s >> w & 1:
                    for u in anchors:
                        if not go(left[r], u):
                            value = False
                            break
        if memo is not None:
            memo[key] = value
        return value

    return go(p.root, state), visits


@dataclass(frozen=True, slots=True)
class CheckOutcome:
    value: bool
    nodes_visited: int
    engine: str


def evaluate(
    q: CheckQuery,
    engine: str = "auto",
    cache: MemoCache | None = None,
) -> CheckOutcome:
    """Evaluate a query with an explicit engine choice.

    Engines: "naive" is the baseline recursion over the program's rows;
    "sparse" the same recursion with a memo for the one query;
    "table" the truth-mask kernel evaluator; "auto" picks "table" when
    the table fits the byte cap and "sparse" otherwise. nodes_visited
    counts clause evaluations (naive), memo misses (sparse), or freshly
    computed table rows (table). A Formula is lowered; a Program is
    decided on its rows. Every engine looks its entry up in a given
    cache, by the identity of the query's model and formula, then by
    the program's rows, so its key never recurses; "naive" never builds
    a table. Past about 1000 levels of nesting, "naive" and "sparse"
    raise QueryError; "table" answers formulas of any depth. An engine
    outside ENGINES raises ValueError before any work.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    _validate(q)
    if cache is None:
        entry = _RootEntry(program=q.formula if type(q.formula) is Program else lower_formula(q.formula))
    else:
        entry = cache.root(q.model, q.formula)
    if engine == "auto":
        engine = "table" if table_bytes(entry.program, q.model) <= DEFAULT_TABLE_BYTE_CAP else "sparse"
    if engine == "table":
        if entry.table is None:
            entry.table = support_table(entry.program, q.model)
            visited = entry.program.num_nodes
        else:
            visited = 0
        return CheckOutcome(entry.table.holds(entry.program.root, q.state.mask), visited, "table")
    try:
        value, visits = _eval_naive(entry.program, q.model, q.state.mask, {} if engine == "sparse" else None)
    except RecursionError:
        raise QueryError(f"formula nests too deeply for the {engine} engine") from None
    return CheckOutcome(value, visits, engine)


def check_support(q: CheckQuery) -> bool:
    """Baseline decision of support, by direct structural recursion."""
    return evaluate(q, engine="naive").value


def check_anti_support(q: CheckQuery) -> bool:
    """Decision of non-support: the pointwise complement of check_support."""
    return not check_support(q)


def check_support_memo(q: CheckQuery, cache: MemoCache | None = None) -> bool:
    """Same value as check_support, with results reused across calls
    sharing the cache; the preferred evaluator for repeated or large
    queries."""
    return evaluate(q, engine="auto", cache=cache).value


def render_result(supported: bool) -> str:
    return "SUPPORTED" if supported else "NOT-SUPPORTED"
