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
renumbered by binding order. An IDENT is a letter or `_`, then letters,
digits and `_`; text is lexed as formula text is, by the one lexer of
syntax.

Two independent evaluation routes exist on purpose: eval_qbf searches
the prefix depth first with short-circuiting, eval_qbf_table folds a
fully materialized assignment table without short-circuiting. They are
held against each other by the tests. Neither recurses, on the matrix or
on the prefix. Both, and reduce_tqbf, read the one postorder list of
its matrix that a Qbf holds: parse_qbf writes that list as it reads the
text and makes no matrix objects, which a parsed Qbf builds from the
list on first use of its matrix; a Qbf built by hand from matrix objects
builds the list on first use. So verify walks a matrix at most once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .switching import BoolValuation
from .syntax import ParseError, _Lexer, _Stop, subformulas

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
    return _postorder_size(_postorder(f))


def render_prop(f: PropFormula) -> str:
    """Print a matrix in concrete syntax, fully parenthesized, its tokens
    off one stack in output order, joined once."""
    out: list[str] = []
    stack: list = [f]
    while stack:
        g = stack.pop()
        kind = type(g)
        if kind is str:
            out.append(g)
        elif kind is Var or kind is NegVar:
            out.append(f"{'x' if kind is Var else '~x'}{g.index}")
        elif kind is PAnd or kind is POr:
            out.append("(")
            stack += (")", g.right, " & " if kind is PAnd else " | ", g.left)
        else:
            raise TypeError(f"cannot print {g!r}")
    return "".join(out)


class Qbf:
    """Quantifier prefix over x_0..x_{l-1} in order, plus an NNF matrix.

    Immutable, and equal to another Qbf when their prefixes and matrix
    trees are. Qbf(prefix, matrix) holds matrix objects built by hand,
    and builds its _postorder list on first use; a Qbf that parse_qbf
    returns holds the list it read, and builds its matrix on first use."""

    prefix: tuple[tuple[str, int], ...]

    def __init__(self, prefix: tuple[tuple[str, int], ...], matrix: PropFormula):
        self.__dict__.update(prefix=prefix, matrix=matrix)

    @classmethod
    def _read(cls, prefix: tuple[tuple[str, int], ...], nodes: list) -> Qbf:
        """The Qbf of a _postorder list checked against the prefix."""
        q = cls.__new__(cls)
        q.__dict__.update(prefix=prefix, _nodes=nodes)
        return q

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Qbf")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable Qbf")

    @property
    def l(self) -> int:
        return len(self.prefix)

    @cached_property
    def matrix(self) -> PropFormula:
        """A parsed Qbf's matrix objects, built from its list on first use."""
        return _from_postorder(self._nodes)

    @cached_property
    def _nodes(self) -> list:
        """The matrix's _postorder list checked against l, built on first
        use; until it is, each read raises what _postorder raises."""
        return _postorder(self.matrix, self.l)

    def _tree(self) -> list:
        """The matrix's _postorder list, unchecked unless already built."""
        nodes = self.__dict__.get("_nodes")
        return _postorder(self.matrix) if nodes is None else nodes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Qbf):
            return NotImplemented
        return self is other or (self.prefix == other.prefix and self._tree() == other._tree())

    def __hash__(self) -> int:
        # the hash of (prefix, matrix), as PropFormula's hash reads the _postorder
        return hash((self.prefix, tuple(self._tree())))

    def __repr__(self) -> str:
        return f"Qbf(prefix={self.prefix!r}, matrix={self.matrix!r})"


def render_qbf(q: Qbf) -> str:
    head = " ".join(f"{quant} x{i}" for quant, i in q.prefix)
    return f"{head} : {render_prop(q.matrix)}" if head else f": {render_prop(q.matrix)}"


_QBF_PUNCT = frozenset("()&|~:")


def _qbf_lex_error(word: str, offset: int) -> ParseError | None:
    """A word starts with a letter or "_"; any other character that is
    not punctuation is an error."""
    if word[:1].isalpha() or word[:1] == "_" or word in _QBF_PUNCT or not word:
        return None
    return ParseError(offset, frozenset({*_QUANTIFIERS, "identifier", *_QBF_PUNCT}), repr(word[0]))


_QBF_LEXER = _Lexer(r"(\w+|.|\Z)", r"[\w \t\r\n()&|~:]*", _QBF_PUNCT, _qbf_lex_error)


def _is_identifier(word: str) -> bool:
    return (word[:1].isalpha() or word[:1] == "_") and word not in _QUANTIFIERS


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
    tokens = _QBF_LEXER.tokens(text)
    try:
        names: dict[str, int] = {}
        binding_error = None
        prefix = []
        i = 0
        while tokens[i] in _QUANTIFIERS:
            name = tokens[i + 1]
            if not _is_identifier(name):
                raise _Stop(i + 1, frozenset({"identifier"}))
            position = len(prefix)
            if binding_error is None:
                if name in names:
                    binding_error = _Stop(i + 1, frozenset({"fresh identifier"}))
                elif not rename and name != f"x{position}":
                    binding_error = _Stop(i + 1, frozenset({f"x{position}"}))
                names[name] = position
            prefix.append((tokens[i], position))
            i += 2
        if tokens[i] != ":":
            raise _Stop(i, frozenset({FORALL, EXISTS, ":"}))
        nodes: list = []
        unbound, i = _read_matrix(tokens, i + 1, names, nodes)
        if tokens[i]:
            raise _Stop(i, frozenset({"&", "|", "end of input"}))
        if binding_error is not None:
            raise binding_error
    except _Stop as stop:
        raise _QBF_LEXER.locate(text, stop) from None
    if unbound is not None:
        raise ClosureError(unbound)
    return Qbf._read(tuple(prefix), nodes)


def _read_matrix(tokens: list[str], i: int, names: dict[str, int], nodes: list) -> tuple[str | None, int]:
    """Append the grammar's `or` at token i to nodes, in NNF and as its
    _postorder list; return the first name in it that `names` does not
    bind, and the index of the token after it. `~` is a polarity flag
    that negates variables and swaps PAnd with POr. Each literal is
    appended as it is read, and each connective as it folds its operands,
    which are then the last appended. As in parse_formula, one level per
    open parenthesis is kept on a stack: its polarity, and whether it
    has a disjunction and a conjunction so far."""
    append = nodes.append
    unbound = None
    levels = []
    negate, disj, conj = False, False, False
    while True:
        literal_negate = negate
        word = tokens[i]
        i += 1
        while word == "~":
            literal_negate = not literal_negate
            word = tokens[i]
            i += 1
        if word == "(":
            levels.append((negate, disj, conj))
            negate, disj, conj = literal_negate, False, False
            continue
        index = names.get(word)
        if index is None:
            if not _is_identifier(word):
                raise _Stop(i - 1, frozenset({"identifier", "~", "("}))
            if unbound is None:
                unbound = word
            index = 0
        append(~index if literal_negate else index)
        # a whole literal is appended: fold it into the open level, and
        # close levels for as long as a ")" follows a whole disjunction
        while True:
            if conj:
                append(POr if negate else PAnd)
            conj = True
            word = tokens[i]
            i += 1
            if word == "&":
                break
            if disj:
                append(PAnd if negate else POr)
            disj, conj = True, False
            if word == "|":
                break
            if not levels:
                return unbound, i - 1
            if word != ")":
                raise _Stop(i - 1, frozenset({")", "&", "|"}))
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


def _from_postorder(nodes: list) -> PropFormula:
    """The matrix objects of a _postorder list."""
    stack: list = []
    for node in nodes:
        if node is PAnd or node is POr:
            right = stack.pop()
            stack[-1] = node(stack[-1], right)
        else:
            stack.append(Var(node) if node >= 0 else NegVar(~node))
    return stack[0]


def _postorder_size(nodes: list) -> int:
    """prop_size of the matrix of a _postorder list."""
    size = 0
    for node in nodes:
        if node is PAnd or node is POr:
            size += 1
        elif node >= 0:
            size += 1 + (node + 1).bit_length()
        else:
            size += 2 + (~node + 1).bit_length()
    return size


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
    nodes = q._nodes
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
    nodes = q._nodes
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
