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

check_support is the trusted baseline: plain structural recursion, its
implication clause enumerating the subsets of s directly (never states
outside s), with no caching and no pruning. check_support_memo is the
fast path: when the byte cap allows, it builds one support table per
(model, formula) through the kernels module (per-world truth masks of
every subformula) and answers each query from it, building lattice rows
only over the substates of the query state; otherwise it reuses results
per (subformula, state) pair. Both paths must and do agree; the test
suite holds them against each other.

A query's formula is a Formula or a Program. One rule set refuses a bad
query in either form, in this order: a state whose width is not the
model's world count, an atom index past the model's atoms (the largest,
when several are), a box or wbox over a plain model. A Formula is walked
once for its largest atom index and any modality, refusing a node that
is no formula node, then lowered; a Program, as the parser and the
compiler build it through a kernels.RowBuilder, gives both off its
columns and is decided as it stands; naive reads it through formula_of.

The table's rules for implications are in the kernels module docstring.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .kernels import (
    OP_AND,
    OP_ATOM,
    OP_BOT,
    OP_BOX,
    OP_IMPLIES,
    OP_IVEE,
    OP_WBOX,
    Program,
    SupportTable,
    _OP_OF_TYPE,
    formula_of,
    lower_formula,
    model_masks,
    program_key,
    support_table,
    table_bytes,
)
from .model import InfoState, InformationModel, sigma_union
from .syntax import And, Atom, Bottom, Box, Formula, IVee, Implies, WBox

DEFAULT_TABLE_BYTE_CAP = 1 << 27

ENGINES = ("auto", "table", "sparse", "naive")


class QueryError(Exception):
    """A check query violates an invariant; raised before evaluation."""


@dataclass(frozen=True, slots=True)
class CheckQuery:
    """Does state support formula in model. The formula is a Formula, or
    a Program, which the engines decide without lowering."""

    model: InformationModel
    state: InfoState
    formula: Formula | Program


@dataclass(slots=True, eq=False)
class _RootEntry:
    """Per-(model, formula) cache body: the lowered program plus either a
    support table or a sparse map of computed pairs. model and formula are
    the objects the entry was last asked for, its one alias."""

    program: Program
    table: SupportTable | None = None
    values: dict[tuple[int, int], bool] = field(default_factory=dict)
    model: InformationModel | None = None
    formula: Formula | Program | None = None


class MemoCache:
    """Support values keyed by subformula identity and state bits.

    Subformula identities are row numbers of the lowered program, assigned
    once per distinct (model, root formula) pair; structurally equal
    subtrees share an identity. A support table, when present, stands for
    the total map of its pairs.

    root never hashes a formula. It first looks the pair up by object
    identity: each entry keeps the model and formula it was last asked
    for, so their ids stay valid, and keeps only that one alias, so
    callers passing fresh equal objects do not grow the cache. Otherwise
    it lowers the formula and looks the entry up by the model and the
    program's rows, which are canonical for the formula and hash without
    recursion, so equal formulas of any depth share one entry. A Program
    is looked up by its rows, which every program of a DAG shares: a
    formula, its compiled program and the program parsed from its text
    share one entry.
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
        key = (model, *program_key(program))
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
        # payload is 0 on every row but an atom's
        return max(f.payload) if OP_ATOM in ops else -1, OP_BOX in ops or OP_WBOX in ops
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


def _eval_naive(q: CheckQuery) -> tuple[bool, int]:
    m = q.model
    vmasks = [v.mask for v in m.valuation]
    union_masks = [sigma_union(m, w).mask for w in range(m.n)] if m.is_modal else None
    visits = 0

    def go(f: Formula, s: int) -> bool:
        nonlocal visits
        visits += 1
        if isinstance(f, Bottom):
            return s == 0
        if isinstance(f, Atom):
            return s & ~vmasks[f.index] == 0
        if isinstance(f, And):
            return go(f.left, s) and go(f.right, s)
        if isinstance(f, IVee):
            return go(f.left, s) or go(f.right, s)
        if isinstance(f, Implies):
            for t in _submasks(s):
                if go(f.left, t) and not go(f.right, t):
                    return False
            return True
        if isinstance(f, Box):
            for w in range(m.n):
                if s >> w & 1 and not go(f.body, union_masks[w]):
                    return False
            return True
        if isinstance(f, WBox):
            for w in range(m.n):
                if s >> w & 1:
                    for g in m.sigma[w]:
                        if not go(f.body, g.mask):
                            return False
            return True
        raise TypeError(f"not a formula node: {f!r}")

    return go(q.formula, q.state.mask), visits


def _eval_memo_sparse(q: CheckQuery, entry: _RootEntry) -> tuple[bool, int]:
    """Memoized recursion over program rows; misses counted as visits."""
    m = q.model
    prog = entry.program
    ops, left, right, payload = (a.tolist() for a in (prog.ops, prog.left, prog.right, prog.payload))
    vmasks, union_masks, gen_masks = model_masks(m)
    values = entry.values
    misses = 0

    def go(r: int, s: int) -> bool:
        nonlocal misses
        key = (r, s)
        hit = values.get(key)
        if hit is not None:
            return hit
        misses += 1
        op = ops[r]
        if op == OP_BOT:
            result = s == 0
        elif op == OP_ATOM:
            result = s & ~vmasks[payload[r]] == 0
        elif op == OP_AND:
            result = go(left[r], s) and go(right[r], s)
        elif op == OP_IVEE:
            result = go(left[r], s) or go(right[r], s)
        elif op == OP_IMPLIES:
            result = True
            for t in _submasks(s):
                if go(left[r], t) and not go(right[r], t):
                    result = False
                    break
        elif op == OP_BOX:
            result = True
            for w in range(m.n):
                if s >> w & 1 and not go(left[r], union_masks[w]):
                    result = False
                    break
        else:
            result = True
            for w in range(m.n):
                if s >> w & 1:
                    for gmask in gen_masks[w]:
                        if not go(left[r], gmask):
                            result = False
                            break
                    if not result:
                        break
        values[key] = result
        return result

    return go(prog.root, q.state.mask), misses


@dataclass(frozen=True, slots=True)
class CheckOutcome:
    value: bool
    nodes_visited: int
    engine: str


def _too_deep(engine: str, fn, *args):
    """fn(*args), reporting that it ran out of Python frames as a QueryError."""
    try:
        return fn(*args)
    except RecursionError:
        raise QueryError(f"formula nests too deeply for the {engine} engine") from None


def evaluate(
    q: CheckQuery,
    engine: str = "auto",
    cache: MemoCache | None = None,
) -> CheckOutcome:
    """Evaluate a query with an explicit engine choice.

    Engines: "naive" is the baseline recursion; "sparse" the memoized
    recursion; "table" the truth-mask kernel evaluator; "auto" picks
    "table" when the table fits the byte cap and "sparse" otherwise.
    nodes_visited counts clause evaluations (naive), cache misses
    (sparse), or freshly computed table rows (table). A query whose
    formula is a Program is decided on its rows, and "naive" reads it
    through formula_of. A given cache is looked up
    by the identity of the query's model and formula, then by the
    program's rows, so its key never recurses. Past about
    1000 levels of nesting, "naive" and "sparse" raise QueryError;
    "table" answers formulas of any depth, with or without a cache. An
    engine outside ENGINES raises ValueError before any work.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    _validate(q)
    rows = type(q.formula) is Program
    if engine == "naive":
        if rows:
            q = CheckQuery(q.model, q.state, formula_of(q.formula))
        value, visits = _too_deep(engine, _eval_naive, q)
        return CheckOutcome(value, visits, "naive")
    if cache is None:
        entry = _RootEntry(program=q.formula if rows else lower_formula(q.formula))
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
        value = entry.table.holds(entry.program.root, q.state.mask)
        return CheckOutcome(value, visited, "table")
    value, misses = _too_deep(engine, _eval_memo_sparse, q, entry)
    return CheckOutcome(value, misses, "sparse")


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
