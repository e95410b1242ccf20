"""Quantified Boolean formulas: AST, parser, and brute-force oracles.

The matrix lives in negation normal form: negation occurs on variables
only. The parser reads straight into that form.

Concrete syntax (UTF-8 text, `#` starts a comment):

    qbf    := (("forall"|"exists") IDENT)* ":" or
    or     := and ("|" and)*
    and    := lit ("&" lit)*
    lit    := "~" lit | IDENT | "(" or ")"

Variables are written x0, x1, ... and must be bound in ascending index
order starting at 0; a closed formula binds every matrix variable. The
rename option relaxes both: arbitrary identifiers are accepted and
renumbered by binding order.

Two independent evaluation routes exist on purpose: eval_qbf searches
the prefix depth first with short-circuiting, eval_qbf_table folds a
fully materialized assignment table without short-circuiting. They are
held against each other by the tests. Neither recurses, on the matrix or
on the prefix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .switching import BoolValuation
from .syntax import ParseError, _Cursor, _render, _tokenize, subformulas

FORALL = "forall"
EXISTS = "exists"
_QUANTIFIERS = (FORALL, EXISTS)


class ClosureError(Exception):
    """A matrix variable is not bound by the prefix."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable {name}")


@dataclass(frozen=True, slots=True, eq=False)
class PropFormula:
    """Base class for matrix nodes, equal when their trees are: equality
    and the hash read the _postorder, which determines the tree."""

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PropFormula):
            return NotImplemented
        return self is other or _postorder(self) == _postorder(other)

    def __hash__(self) -> int:
        return hash(tuple(_postorder(self)))


@dataclass(frozen=True, slots=True, eq=False)
class Var(PropFormula):
    index: int


@dataclass(frozen=True, slots=True, eq=False)
class NegVar(PropFormula):
    index: int


@dataclass(frozen=True, slots=True, eq=False)
class PAnd(PropFormula):
    left: PropFormula
    right: PropFormula


@dataclass(frozen=True, slots=True, eq=False)
class POr(PropFormula):
    left: PropFormula
    right: PropFormula


def prop_vars(f: PropFormula) -> set[int]:
    """Variable indices occurring in f."""
    return {g.index for g in subformulas(f) if isinstance(g, (Var, NegVar))}


def prop_node_count(f: PropFormula) -> int:
    """Nodes of f, counting every operator and variable occurrence; a
    negated variable counts 2."""
    nodes = subformulas(f)
    return len(nodes) + sum(type(g) is NegVar for g in nodes)


def prop_size(f: PropFormula) -> int:
    """Weighted encoding size of an NNF matrix, mirroring formula_size:
    connectives cost 1, a variable costs 1 plus the binary length of its
    index, a negation costs 1 on top of its variable."""
    size = 0
    for g in subformulas(f):
        if isinstance(g, Var):
            size += 1 + (g.index + 1).bit_length()
        elif isinstance(g, NegVar):
            size += 2 + (g.index + 1).bit_length()
        elif isinstance(g, (PAnd, POr)):
            size += 1
        else:
            raise TypeError(f"matrix must be in negation normal form: {g!r}")
    return size


_PROP_FORMS = ({PAnd: " & ", POr: " | "}, {}, {Var: ("x", True), NegVar: ("~x", True)})


def render_prop(f: PropFormula) -> str:
    """Print a matrix in concrete syntax, fully parenthesized."""
    return _render(f, *_PROP_FORMS)


@dataclass(frozen=True, slots=True)
class Qbf:
    """Quantifier prefix over x_0..x_{l-1} in order, plus an NNF matrix."""

    prefix: tuple[tuple[str, int], ...]
    matrix: PropFormula

    @property
    def l(self) -> int:
        return len(self.prefix)


def render_qbf(q: Qbf) -> str:
    head = " ".join(f"{quant} x{i}" for quant, i in q.prefix)
    return f"{head} : {render_prop(q.matrix)}" if head else f": {render_prop(q.matrix)}"


def _qbf_word(word: str, offset: int) -> tuple[str, str, int]:
    return (word if word in _QUANTIFIERS else "ident", word, offset)


_QBF_PUNCT = {c: c for c in "()&|~:"}
_QBF_LEXICON = (_QBF_PUNCT, "_", _qbf_word, frozenset({*_QUANTIFIERS, "identifier", *_QBF_PUNCT}))


def parse_qbf(text: str, rename: bool = False) -> Qbf:
    """Parse concrete syntax into a closed Qbf, matrix in NNF.

    Without rename, bound variables must be literally x0, x1, ... in
    ascending order. With rename, any identifiers are accepted and
    renumbered by binding order. Binding and closure errors are only
    recorded while reading, so that a later syntax error wins.

    Raises:
        ParseError: malformed text, duplicate binding, or out-of-order
            variable names.
        ClosureError: a matrix variable the prefix does not bind.
    """
    cursor = _Cursor(_tokenize(text, *_QBF_LEXICON))
    names: dict[str, int] = {}
    binding_error = None
    prefix = []
    while cursor.peek()[0] in _QUANTIFIERS:
        quant = cursor.advance()[0]
        kind, name, offset = cursor.peek()
        if kind != "ident":
            raise cursor.fail(frozenset({"identifier"}))
        cursor.advance()
        position = len(prefix)
        if binding_error is None:
            if name in names:
                binding_error = ParseError(offset, frozenset({"fresh identifier"}), repr(name))
            elif not rename and name != f"x{position}":
                binding_error = ParseError(offset, frozenset({f"x{position}"}), repr(name))
            names[name] = position
        prefix.append((quant, position))
    if cursor.peek()[0] != ":":
        raise cursor.fail(frozenset({FORALL, EXISTS, ":"}))
    cursor.advance()
    matrix, unbound = _read_matrix(cursor, names)
    if cursor.peek()[0] != "eof":
        raise cursor.fail(frozenset({"&", "|", "end of input"}))
    if binding_error is not None:
        raise binding_error
    if unbound is not None:
        raise ClosureError(unbound)
    return Qbf(tuple(prefix), matrix)


def _read_matrix(cursor: _Cursor, names: dict[str, int]) -> tuple[PropFormula, str | None]:
    """The grammar's `or` straight into NNF, and the first name in it that
    `names` does not bind. `~` is a polarity flag that negates variables
    and swaps PAnd with POr. As in parse_formula, one level per open
    parenthesis is kept on a stack: its polarity, disjunction and conjunction."""
    unbound = None
    levels = []
    negate, disj, conj = False, None, None
    while True:
        literal_negate = negate
        while cursor.peek()[0] == "~":
            cursor.advance()
            literal_negate = not literal_negate
        kind, value, _ = cursor.peek()
        if kind == "(":
            cursor.advance()
            levels.append((negate, disj, conj))
            negate, disj, conj = literal_negate, None, None
            continue
        if kind != "ident":
            raise cursor.fail(frozenset({"identifier", "~", "("}))
        cursor.advance()
        if value not in names and unbound is None:
            unbound = value
        f = (NegVar if literal_negate else Var)(names.get(value, 0))
        # f is a whole literal: fold it into the open level, and close
        # levels for as long as a ")" follows a whole disjunction
        while True:
            conj = f if conj is None else (POr if negate else PAnd)(conj, f)
            kind = cursor.peek()[0]
            if kind == "&":
                cursor.advance()
                break
            disj = conj if disj is None else (PAnd if negate else POr)(disj, conj)
            conj = None
            if kind == "|":
                cursor.advance()
                break
            if not levels:
                return disj, unbound
            if kind != ")":
                raise cursor.fail(frozenset({")", "&", "|"}))
            cursor.advance()
            f = disj
            negate, disj, conj = levels.pop()


def _check_prefix(prefix, start: int) -> None:
    """Raise ValueError unless every quantifier in prefix is forall or
    exists and the bound indices run start, start + 1, ... in order."""
    for position, (quant, index) in enumerate(prefix, start):
        if quant not in _QUANTIFIERS:
            raise ValueError(f"unknown quantifier {quant!r}, expected {FORALL!r} or {EXISTS!r}")
        if index != position:
            indices = [i for _, i in prefix]
            raise ValueError(f"prefix must bind x{start}, x{start + 1}, ... in order, got {indices}")


def _postorder(f: PropFormula, k: int | None = None) -> list:
    """The matrix in postorder for _truth: x_i as i, its negation as ~i, a
    connective as its class; ClosureError for a variable past x_{k-1} when
    k is given."""
    nodes = []
    for g in subformulas(f):
        if isinstance(g, (Var, NegVar)):
            if k is not None and g.index >= k:
                raise ClosureError(f"x{g.index}")
            nodes.append(g.index if isinstance(g, Var) else ~g.index)
        elif isinstance(g, (PAnd, POr)):
            nodes.append(type(g))
        else:
            raise TypeError(f"matrix must be in negation normal form: {g!r}")
    return nodes


def _truth(nodes: list, values) -> int:
    """Truth value of a _postorder list under the bits values[i] of x_i."""
    stack = []
    for node in nodes:
        if node is PAnd:
            stack.append(stack.pop() & stack.pop())
        elif node is POr:
            stack.append(stack.pop() | stack.pop())
        elif node >= 0:
            stack.append(values[node])
        else:
            stack.append(1 - values[~node])
    return stack[0]


def eval_prop(f: PropFormula, v: BoolValuation) -> int:
    """Classical truth value of an NNF matrix under a total valuation."""
    return _truth(_postorder(f, v.k), v.values)


def eval_qbf(q: Qbf) -> bool:
    """Truth of a closed formula by a depth-first search of the prefix
    with short-circuit: an existential stops at the first true branch, a
    universal at the first false one. values[:k] is the path to the
    current branch, so the search keeps no stack beyond it.

    Raises:
        ValueError: a prefix quantifier other than forall or exists, or
            indices other than 0, 1, ... in order.
        ClosureError: a matrix variable the prefix does not bind.
    """
    l = q.l
    _check_prefix(q.prefix, 0)
    nodes = _postorder(q.matrix, l)
    exists = [quant == EXISTS for quant, _ in q.prefix]
    values = [0] * l
    k = 0
    while True:
        # descend to a leaf through the 0 branches
        while k < l:
            values[k] = 0
            k += 1
        result = _truth(nodes, values) == 1
        # climb while a quantifier is decided: by a short-circuit, or by
        # its second branch, whose value is then its own
        while True:
            if k == 0:
                return result
            k -= 1
            if exists[k] != result and values[k] == 0:
                values[k] = 1
                k += 1
                break


def eval_qbf_table(q: Qbf) -> bool:
    """Independent route to the same value: materialize the matrix truth
    table over all 2^l assignments, then fold the prefix innermost
    quantifier first with no short-circuiting. Kept for cross-validation
    at small l. Raises as eval_qbf does."""
    l = q.l
    _check_prefix(q.prefix, 0)
    nodes = _postorder(q.matrix, l)
    leaves = [_truth(nodes, [a >> i & 1 for i in range(l)]) for a in range(1 << l)]
    for k in reversed(range(l)):
        # x_k is bit k of an assignment, the top bit of what is left
        half = 1 << k
        if q.prefix[k][0] == EXISTS:
            leaves = [leaves[a] | leaves[a + half] for a in range(half)]
        else:
            leaves = [leaves[a] & leaves[a + half] for a in range(half)]
    return leaves[0] == 1


def random_qbf(seed: int, l: int, matrix_nodes: int) -> Qbf:
    """Deterministic closed formula: uniform quantifiers over x_0..x_{l-1}
    and a random NNF matrix of at most matrix_nodes nodes (counted as in
    prop_node_count)."""
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    rng = random.Random(seed)
    prefix = tuple((rng.choice((FORALL, EXISTS)), i) for i in range(l))

    def gen(budget: int) -> PropFormula:
        if budget >= 3 and rng.random() < 0.7:
            op = PAnd if rng.random() < 0.5 else POr
            left_budget = rng.randint(1, budget - 2)
            left = gen(left_budget)
            right = gen(budget - 1 - prop_node_count(left))
            return op(left, right)
        index = rng.randrange(l)
        if budget >= 2 and rng.random() < 0.4:
            return NegVar(index)
        return Var(index)

    return Qbf(prefix, gen(max(1, matrix_nodes)))
