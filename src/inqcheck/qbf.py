"""Quantified Boolean formulas: AST, parser, and brute-force oracles.

The matrix lives in negation normal form: negation occurs on variables
only. A raw negation node exists solely as parser/to_nnf input and never
appears in a stored matrix.

Concrete syntax (UTF-8 text, `#` starts a comment):

    qbf    := (("forall"|"exists") IDENT)* ":" or
    or     := and ("|" and)*
    and    := lit ("&" lit)*
    lit    := "~" lit | IDENT | "(" or ")"

Variables are written x0, x1, ... and must be bound in ascending index
order starting at 0; a closed formula binds every matrix variable. The
rename option relaxes both: arbitrary identifiers are accepted and
renumbered by binding order.

Two independent evaluation routes exist on purpose: eval_qbf recurses
over the prefix with short-circuiting, eval_qbf_table folds a fully
materialized assignment table without short-circuiting. They are held
against each other by the tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .switching import BoolValuation
from .syntax import ParseError, _Cursor

FORALL = "forall"
EXISTS = "exists"


class ClosureError(Exception):
    """A matrix variable is not bound by the prefix."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable {name}")


@dataclass(frozen=True, slots=True)
class PropFormula:
    """Base class for matrix nodes."""


@dataclass(frozen=True, slots=True)
class Var(PropFormula):
    index: int


@dataclass(frozen=True, slots=True)
class NegVar(PropFormula):
    index: int


@dataclass(frozen=True, slots=True)
class PAnd(PropFormula):
    left: PropFormula
    right: PropFormula


@dataclass(frozen=True, slots=True)
class POr(PropFormula):
    left: PropFormula
    right: PropFormula


@dataclass(frozen=True, slots=True)
class PNot(PropFormula):
    """General negation; to_nnf input only, never part of a matrix."""

    body: PropFormula


def to_nnf(f: PropFormula) -> PropFormula:
    """Push negations to the variables and drop double negations.

    Accepts trees with PNot nodes; the result uses Var, NegVar, PAnd,
    POr only and is at most twice the input size.
    """

    def go(g: PropFormula, negate: bool) -> PropFormula:
        if isinstance(g, Var):
            return NegVar(g.index) if negate else g
        if isinstance(g, NegVar):
            return Var(g.index) if negate else g
        if isinstance(g, PNot):
            return go(g.body, not negate)
        if isinstance(g, PAnd):
            a, b = go(g.left, negate), go(g.right, negate)
            return POr(a, b) if negate else PAnd(a, b)
        if isinstance(g, POr):
            a, b = go(g.left, negate), go(g.right, negate)
            return PAnd(a, b) if negate else POr(a, b)
        raise TypeError(f"not a propositional node: {g!r}")

    return go(f, False)


def prop_vars(f: PropFormula) -> set[int]:
    """Variable indices occurring in f."""
    if isinstance(f, (Var, NegVar)):
        return {f.index}
    if isinstance(f, PNot):
        return prop_vars(f.body)
    return prop_vars(f.left) | prop_vars(f.right)


def prop_node_count(f: PropFormula) -> int:
    """Nodes of f, counting every operator and variable occurrence; a
    negated variable counts 2."""
    if isinstance(f, Var):
        return 1
    if isinstance(f, NegVar):
        return 2
    if isinstance(f, PNot):
        return 1 + prop_node_count(f.body)
    return 1 + prop_node_count(f.left) + prop_node_count(f.right)


def prop_size(f: PropFormula) -> int:
    """Weighted encoding size of an NNF matrix, mirroring formula_size:
    connectives cost 1, a variable costs 1 plus the binary length of its
    index, a negation costs 1 on top of its variable."""
    if isinstance(f, Var):
        return 1 + (f.index + 1).bit_length()
    if isinstance(f, NegVar):
        return 2 + (f.index + 1).bit_length()
    if isinstance(f, (PAnd, POr)):
        return 1 + prop_size(f.left) + prop_size(f.right)
    raise TypeError(f"matrix must be in negation normal form: {f!r}")


def render_prop(f: PropFormula) -> str:
    """Print a matrix in concrete syntax, fully parenthesized."""
    if isinstance(f, Var):
        return f"x{f.index}"
    if isinstance(f, NegVar):
        return f"~x{f.index}"
    if isinstance(f, PNot):
        return f"~{render_prop(f.body)}"
    if isinstance(f, PAnd):
        return f"({render_prop(f.left)} & {render_prop(f.right)})"
    if isinstance(f, POr):
        return f"({render_prop(f.left)} | {render_prop(f.right)})"
    raise TypeError(f"not a propositional node: {f!r}")


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


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in "()&|~:":
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = word if word in (FORALL, EXISTS) else "ident"
            tokens.append((kind, word, i))
            i = j
            continue
        raise ParseError(i, frozenset({"forall", "exists", "identifier", ":", "~", "&", "|", "(", ")"}), repr(c))
    tokens.append(("eof", "", n))
    return tokens


class _QbfParser(_Cursor):
    """Recursive descent straight into NNF: names are looked up in the
    already parsed prefix, and `~` is a polarity flag that negates
    variables and swaps PAnd with POr. Binding and closure errors are only
    recorded, so that parse_qbf can let a later syntax error win."""

    def __init__(self, text: str, rename: bool):
        super().__init__(_tokenize(text))
        self.rename = rename
        self.names: dict[str, int] = {}
        self.binding_error: ParseError | None = None
        self.unbound: str | None = None

    def prefix(self) -> tuple[tuple[str, int], ...]:
        entries = []
        while self.peek()[0] in (FORALL, EXISTS):
            quant = self.advance()[0]
            kind, name, offset = self.peek()
            if kind != "ident":
                raise self.fail(frozenset({"identifier"}))
            self.advance()
            position = len(entries)
            if self.binding_error is None:
                if name in self.names:
                    self.binding_error = ParseError(offset, frozenset({"fresh identifier"}), repr(name))
                elif not self.rename and name != f"x{position}":
                    self.binding_error = ParseError(offset, frozenset({f"x{position}"}), repr(name))
                self.names[name] = position
            entries.append((quant, position))
        if self.peek()[0] != ":":
            raise self.fail(frozenset({FORALL, EXISTS, ":"}))
        self.advance()
        return tuple(entries)

    def disj(self, negate: bool) -> PropFormula:
        join = PAnd if negate else POr
        left = self.conj(negate)
        while self.peek()[0] == "|":
            self.advance()
            left = join(left, self.conj(negate))
        return left

    def conj(self, negate: bool) -> PropFormula:
        join = POr if negate else PAnd
        left = self.lit(negate)
        while self.peek()[0] == "&":
            self.advance()
            left = join(left, self.lit(negate))
        return left

    def lit(self, negate: bool) -> PropFormula:
        kind, value, _ = self.peek()
        if kind == "~":
            self.advance()
            return self.lit(not negate)
        if kind == "ident":
            self.advance()
            if value not in self.names and self.unbound is None:
                self.unbound = value
            index = self.names.get(value, 0)
            return NegVar(index) if negate else Var(index)
        if kind == "(":
            self.advance()
            inner = self.disj(negate)
            if self.peek()[0] != ")":
                raise self.fail(frozenset({")", "&", "|"}))
            self.advance()
            return inner
        raise self.fail(frozenset({"identifier", "~", "("}))


def parse_qbf(text: str, rename: bool = False) -> Qbf:
    """Parse concrete syntax into a closed Qbf, matrix in NNF.

    Without rename, bound variables must be literally x0, x1, ... in
    ascending order. With rename, any identifiers are accepted and
    renumbered by binding order.

    Raises:
        ParseError: malformed text, duplicate binding, or out-of-order
            variable names.
        ClosureError: a matrix variable the prefix does not bind.
    """
    parser = _QbfParser(text, rename)
    prefix = parser.prefix()
    matrix = parser.disj(False)
    if parser.peek()[0] != "eof":
        raise parser.fail(frozenset({"&", "|", "end of input"}))
    if parser.binding_error is not None:
        raise parser.binding_error
    if parser.unbound is not None:
        raise ClosureError(parser.unbound)
    return Qbf(prefix, matrix)


def eval_prop(f: PropFormula, v: BoolValuation) -> int:
    """Classical truth value of an NNF matrix under a total valuation."""
    if isinstance(f, Var):
        if f.index >= v.k:
            raise ClosureError(f"x{f.index}")
        return v.value(f.index)
    if isinstance(f, NegVar):
        if f.index >= v.k:
            raise ClosureError(f"x{f.index}")
        return 1 - v.value(f.index)
    if isinstance(f, PAnd):
        return eval_prop(f.left, v) & eval_prop(f.right, v)
    if isinstance(f, POr):
        return eval_prop(f.left, v) | eval_prop(f.right, v)
    raise TypeError(f"matrix must be in negation normal form: {f!r}")


def eval_qbf(q: Qbf) -> bool:
    """Truth of a closed formula by prefix recursion with short-circuit:
    an existential stops at the first true branch, a universal at the
    first false one."""
    l = q.l
    values = [0] * l

    def go(k: int) -> bool:
        if k == l:
            return eval_prop(q.matrix, BoolValuation(tuple(values))) == 1
        quant = q.prefix[k][0]
        for bit in (0, 1):
            values[k] = bit
            result = go(k + 1)
            if quant == EXISTS and result:
                return True
            if quant == FORALL and not result:
                return False
        return quant == FORALL

    return go(0)


def eval_qbf_table(q: Qbf) -> bool:
    """Independent route to the same value: materialize the matrix truth
    table over all 2^l assignments, then fold the prefix outside-in with
    no short-circuiting. Kept for cross-validation at small l."""
    l = q.l
    leaves = [
        eval_prop(q.matrix, BoolValuation(tuple(a >> i & 1 for i in range(l))))
        for a in range(1 << l)
    ]

    def fold(k: int, partial: int) -> int:
        if k == l:
            return leaves[partial]
        zero = fold(k + 1, partial)
        one = fold(k + 1, partial | 1 << k)
        return (zero | one) if q.prefix[k][0] == EXISTS else (zero & one)

    return fold(0, 0) == 1


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
