"""Formula AST, concrete syntax, parser, printer, and size measure.

Formulas are built from falsum, indexed atoms, conjunction, inquisitive
disjunction, implication, and two state modalities (box and wbox).
Negation, classical disjunction, and the question prefix are surface
forms only: the parser expands `not f` to `f -> bot`, `f or g` to
`not(not f & not g)`, and `? f` to `f ior not f`. The printer emits core
connectives only, so parse and render round-trip structurally.

A formula may share subformulas: the same node object may sit under more
than one parent, so that it is a DAG rather than a tree. Text says so
with definitions, `let NAME = formula;` lines before the formula, each
of whose uses stands for the one object the definition built. The
printer names every composite node object it reaches twice or more and
prints a tree, one with no shared objects, without definitions. A
kernels.Program prints off its columns as formula_of of it would.

The parser, like neg, question and classical_or, builds each node with
a node builder, node(cls, a=None, b=None): `fresh` makes Formula
objects, and kernels.RowBuilder program rows, one per distinct node.
It indexes the token strings that one compiled regular expression
finds, as qbf's parser does; a token's offset is found only for a
ParseError.

Grammar (whitespace-insensitive, `#` starts a comment to end of line):

    program := ("let" NAME "=" formula ";")* formula
    formula := impl
    impl    := disj ("->" impl)?          right associative
    disj    := conj (("ior"|"or") conj)*  left associative, no mixing
    conj    := unary ("&" unary)*
    unary   := ("not"|"?"|"box"|"wbox") unary | atom
    atom    := "bot" | "p" DIGITS | NAME | "(" formula ")"

DIGITS are ASCII `0-9`. `ior` and `or` may not be chained at the same
level without parentheses: one is a connective of its own and the other
an abbreviation, and silent mixing is a classic source of confusion.

A NAME is an ASCII letter, then ASCII letters, digits and `_`, other
than a keyword or `p` DIGITS; it is defined once, before its first use.
Its uses, like the two copies of the operand of `?`, are one object, and
every pass but the naive engine and subformulas costs a formula's
distinct objects, so no size of the tree a text stands for is refused.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True, slots=True, eq=False)
class Formula:
    """Base class for formula nodes. Instances are immutable values, equal
    when their trees are: equality and the hash read the lowered rows."""

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        return self is other or _key(self) == _key(other)

    def __hash__(self) -> int:
        return hash(_key(self))


def _key(f: Formula) -> tuple:
    # kernels imports this module, so its lowering is imported on first use
    from .kernels import lower_formula, program_key

    return program_key(lower_formula(f))


@dataclass(frozen=True, slots=True, eq=False)
class Bottom(Formula):
    pass


@dataclass(frozen=True, slots=True, eq=False)
class Atom(Formula):
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"atom index must be non-negative, got {self.index}")


@dataclass(frozen=True, slots=True, eq=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False)
class IVee(Formula):
    """Inquisitive disjunction."""

    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False)
class Box(Formula):
    body: Formula


@dataclass(frozen=True, slots=True, eq=False)
class WBox(Formula):
    """Window modality: quantifies over the stored state map image."""

    body: Formula


def fresh(cls, *fields) -> Formula:
    """A new node: the default node builder of neg, question, the gadget
    formulas, the compiler and the parser. kernels.RowBuilder is the
    other one, which returns a shared program row per distinct node."""
    return cls(*fields)


def neg(f: Formula, node=fresh) -> Formula:
    """Negation as the defined form f -> bot."""
    return node(Implies, f, node(Bottom))


def classical_or(a: Formula, b: Formula, node=fresh) -> Formula:
    """Classical disjunction as the defined form not(not a & not b)."""
    return neg(node(And, neg(a, node), neg(b, node)), node)


def question(f: Formula, node=fresh) -> Formula:
    """Polar question: f ior not f, which holds f twice."""
    return node(IVee, f, neg(f, node))


class ParseError(Exception):
    """Malformed formula or QBF text.

    Carries the byte offset of the offending token and the set of token
    descriptions that would have been accepted there.
    """

    def __init__(self, offset: int, expected: frozenset[str], found: str, reason: str | None = None):
        self.offset = offset
        self.expected = expected
        self.found = found
        if reason is None:
            reason = f"expected one of {{{', '.join(sorted(expected))}}}, found {found}"
        super().__init__(f"parse error at offset {offset}: {reason}")


# A token of either language: blanks (space, tab, CR, LF) and `#` comments
# to end of line are skipped, then the token is its text, "" at the end.
# In a str pattern \w is exactly a character that isalnum() or "_", so a
# word runs as far as the words of both grammars do.
_BLANKS = r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"
_FORMULA_TOKEN = re.compile(_BLANKS + r"(->|\w+|.|\Z)")

_KEYWORDS = frozenset({"bot", "not", "ior", "or", "box", "wbox", "let"})
_PUNCT = frozenset({"(", ")", "->", "&", "?", "=", ";"})
_WORDS = _KEYWORDS | {"p<index>", "name"}


class _Stop(Exception):
    """A parse error at a token's index, as (index, expected) and a reason
    if any, which _locate turns into a ParseError at the token's offset."""


def _locate(token: re.Pattern, text: str, lex_error, stop: _Stop) -> ParseError:
    """The ParseError that stop stands for in text, split by token: the
    first token that lex_error refuses, wherever the parser stopped, as a
    text is lexed before it is parsed; else stop's, at its token's offset."""
    index, expected, *reason = stop.args
    for i, match in enumerate(token.finditer(text)):
        word, offset = match[1], match.start(1)
        error = lex_error(word, offset)
        if error is not None:
            return error
        if i == index:
            at, found = offset, repr(word) if word else "end of input"
    return ParseError(at, expected, found, *reason)


def _formula_lex_error(word: str, offset: int) -> ParseError | None:
    """A word must start with a letter and be ASCII: int() rejects "²"
    and reads "٣" as 3, so only ASCII digits may follow the p of an atom."""
    if word[:1].isalpha():
        return None if word.isascii() else ParseError(offset, _WORDS, repr(word))
    if word in _PUNCT or not word:
        return None
    if word == "-":
        return ParseError(offset, _PUNCT, repr(word))
    return ParseError(offset, _KEYWORDS | _PUNCT, repr(word[0]))


def _is_name(word: str) -> bool:
    return word[:1].isalpha() and word.isascii() and word not in _KEYWORDS and not (word[0] == "p" and word[1:].isdigit())


_ATOM_START = frozenset({"bot", "p<index>", "name", "(", "not", "?", "box", "wbox"})


# the builder of each prefix operator
_PREFIX = {"not": neg, "?": question, "box": lambda f, node: node(Box, f), "wbox": lambda f, node: node(WBox, f)}
_END = {"": "end of input", ";": ";"}


def parse_formula(text: str, node=fresh):
    """Parse concrete syntax into a Formula, expanding derived forms, or
    into what the node builder returns: with a kernels.RowBuilder, the
    row of the formula.

    Each use of a defined name is the node its definition built, so a
    text parses to a DAG of its size, not of the tree it stands for.

    Raises:
        ParseError: on malformed input, with byte offset and the set of
            acceptable tokens at that point; on an undefined or twice
            defined name.
    """
    tokens = _FORMULA_TOKEN.findall(text)
    try:
        definitions: dict[str, Formula] = {}
        i = 0
        while tokens[i] == "let":
            name = tokens[i + 1]
            if not _is_name(name):
                raise _Stop(i + 1, frozenset({"name"}))
            if name in definitions:
                raise _Stop(i + 1, frozenset({"name"}), f"{name!r} is already defined")
            if tokens[i + 2] != "=":
                raise _Stop(i + 2, frozenset({"="}))
            definitions[name], i = _read_formula(tokens, i + 3, definitions, ";", node)
        return _read_formula(tokens, i, definitions, "", node)[0]
    except _Stop as stop:
        raise _locate(_FORMULA_TOKEN, text, _formula_lex_error, stop) from None


def _read_formula(tokens: list[str], i: int, definitions: dict, end: str, node):
    """The formula at token i, up to the token end, built with node, with
    each name read as the node definitions maps it to, and the index past
    end. It accepts no token that _formula_lex_error refuses.

    One level per open parenthesis is kept on an explicit stack, so
    nesting costs no Python frames: the prefix operators pending on the
    unary being read, the antecedents of its `->` chain, the disjunction
    so far with its ior/or mode, and the conjunction so far.
    """
    levels = []
    prefix, antecedents, disj, mode, conj = [], [], None, None, None
    while True:
        word = tokens[i]
        i += 1
        if word in _PREFIX:
            prefix.append(_PREFIX[word])
            continue
        if word == "(":
            levels.append((prefix, antecedents, disj, mode, conj))
            prefix, antecedents, disj, mode, conj = [], [], None, None, None
            continue
        if word in definitions:
            f = definitions[word]
        elif word[1:].isdigit() and word[0] == "p" and word.isascii():
            f = node(Atom, int(word[1:]))
        elif word == "bot":
            f = node(Bottom)
        elif _is_name(word):
            raise _Stop(i - 1, _ATOM_START, f"{word!r} is not defined")
        else:
            raise _Stop(i - 1, _ATOM_START)
        # f is a whole atom: fold it into the open level, and close levels
        # for as long as a ")" follows a whole formula
        while True:
            while prefix:
                f = prefix.pop()(f, node)
            conj = f if conj is None else node(And, conj, f)
            word = tokens[i]
            i += 1
            if word == "&":
                break
            if disj is None:
                disj = conj
            elif mode == "ior":
                disj = node(IVee, disj, conj)
            else:
                disj = classical_or(disj, conj, node)
            conj = None
            if word == "ior" or word == "or":
                if mode is None:
                    mode = word
                elif word != mode:
                    raise _Stop(i - 1, frozenset({mode, "->", "&", ")", _END[end]}))
                break
            if word == "->":
                antecedents.append(disj)
                disj = mode = None
                break
            # "->" is right associative
            f = disj
            while antecedents:
                f = node(Implies, antecedents.pop(), f)
            if not levels:
                if word != end:
                    raise _Stop(i - 1, frozenset({"->", "&", "ior", "or", _END[end]}))
                return f, i
            if word != ")":
                raise _Stop(i - 1, frozenset({")", "->", "&", "ior", "or"}))
            prefix, antecedents, disj, mode, conj = levels.pop()


def _render(f, infix: dict, prefix: dict, leaves: dict, shared: dict | None = None) -> str:
    """Print a formula of either language, given as its tables of forms.

    infix maps a binary node class to its connective, printed between
    parentheses around both children; prefix maps a unary class to the
    text before its body; leaves maps a leaf class to its text and
    whether the node's index follows it. The tokens come off one stack of
    nodes and pending strings in output order and are joined once, so the
    time is linear in the output.

    shared, when given, holds the id of every composite node that f
    reaches twice or more, mapped to "". Such a node is printed once, as
    a definition `let fN = ...;` on a line before the formula, and by its
    name everywhere. Its first place keeps an empty slot in the text
    around it, and a (text, slot, id) entry under its parts names it, in
    shared too, once they are printed: definitions end, and are
    numbered, children first.
    """
    lines: list[str] = []
    out: list[str] = []
    stack: list = [f]
    while stack:
        g = stack.pop()
        kind = type(g)
        if kind is str:
            out.append(g)
        elif kind in leaves:
            text, indexed = leaves[kind]
            out.append(f"{text}{g.index}" if indexed else text)
        elif kind is tuple:
            outer, slot, key = g
            name = outer[slot] = shared[key] = f"f{len(lines)}"
            lines.append(f"let {name} = {''.join(out)};\n")
            out = outer
        else:
            if shared and id(g) in shared:
                name = shared[id(g)]
                if name:
                    out.append(name)
                    continue
                out.append("")
                stack.append((out, len(out) - 1, id(g)))
                out = []
            if kind in infix:
                out.append("(")
                stack += (")", g.right, infix[kind], g.left)
            elif kind in prefix:
                out.append(prefix[kind])
                stack.append(g.body)
            else:
                raise TypeError(f"cannot print {g!r}")
    return "".join(lines) + "".join(out)


_FORMULA_FORMS = (
    {And: " & ", IVee: " ior ", Implies: " -> "},
    {Box: "box ", WBox: "wbox "},
    {Atom: ("p", True), Bottom: ("bot", False)},
)


def render_formula(f) -> str:
    """Print a formula, or a kernels.Program, in core syntax;
    parse_formula inverts it exactly.

    Binary connectives are always parenthesized, prefix modalities are
    bare, so the output is unambiguous without precedence knowledge.
    Every composite node object that f reaches twice or more, or row
    that two or more references of its parents hold, is printed once, as
    a definition `let fN = ...;` on a line of its own before the
    formula, and by its name wherever it is used; so the text is linear
    in the distinct objects or rows of f, and a tree prints without
    definitions. A program prints as formula_of(program) does.
    """
    if not isinstance(f, Formula):
        return _render_rows(f)
    shared = {key: "" for key, places in _reach_counts(f).items() if places > 1}
    return _render(f, *_FORMULA_FORMS, shared)


def _render_rows(p) -> str:
    """render_formula of a program, off its columns: _render's loop, with
    rows for node objects. A row's parents reach it once per reference,
    counted up front, which numbers the definitions as _render does."""
    from .kernels import OP_AND, OP_ATOM, OP_BOX, _TYPE_OF_OP

    infix, prefix, _ = _FORMULA_FORMS
    forms = [infix.get(cls) or prefix.get(cls) for cls in _TYPE_OF_OP]
    ops, left, right, payload = p.ops.tolist(), p.left.tolist(), p.right.tolist(), p.payload
    parents = [0] * len(ops)
    for op, a, b in zip(ops, left, right):
        if op >= OP_AND:
            parents[a] += 1
            if op < OP_BOX:
                parents[b] += 1
    names: dict[int, str] = {}
    lines, out, stack = [], [], [p.root]
    while stack:
        r = stack.pop()
        kind = type(r)
        if kind is str:
            out.append(r)
        elif kind is tuple:
            outer, slot, r = r
            name = outer[slot] = names[r] = f"f{len(lines)}"
            lines.append(f"let {name} = {''.join(out)};\n")
            out = outer
        elif ops[r] < OP_AND:
            out.append(f"p{payload[r]}" if ops[r] == OP_ATOM else "bot")
        else:
            if parents[r] > 1:
                if r in names:
                    out.append(names[r])
                    continue
                out.append("")
                stack.append((out, len(out) - 1, r))
                out = []
            op = ops[r]
            if op < OP_BOX:
                out.append("(")
                stack += (")", right[r], forms[op], left[r])
            else:
                out.append(forms[op])
                stack.append(left[r])
    return "".join(lines) + "".join(out)


# the children of each composite node class
_ARITY = {And: 2, IVee: 2, Implies: 2, Box: 1, WBox: 1}


def _reach_counts(f) -> dict[int, int]:
    """How often a walk that expands each object once reaches each
    composite node object of f, by id: once from f or from each parent
    object (twice from a parent holding it on both sides), so more than
    once for an object that f shares. The time is linear in the distinct
    objects, and the walk keeps its own stack. Other nodes count as
    leaves."""
    reached: dict[int, int] = {}
    stack = [f]
    while stack:
        g = stack.pop()
        arity = _ARITY.get(type(g))
        if arity:
            key = id(g)
            if key in reached:
                reached[key] += 1
            else:
                reached[key] = 1
                if arity == 2:
                    stack += (g.right, g.left)
                else:
                    stack.append(g.body)
    return reached


def formula_size(f: Formula) -> int:
    """Weighted encoding size of f's tree: connectives cost 1, Atom(i)
    costs 1 plus the binary length of its index (so index growth is
    logarithmic, not free). A shared object counts once per place it
    holds in the tree, but it is measured once, off f's lowered rows, so
    the time is linear in the distinct objects of f."""
    from .kernels import lower_formula, tree_size

    return tree_size(lower_formula(f))


def subformulas(f) -> list:
    """Every node of f's tree, children before parents and left before
    right, each place of a shared object apart: the postorder walk of the
    tree, whose cost is the tree's size, not the DAG's. It reads the
    `left`/`right` or `body` fields, so QBF matrices walk the same way,
    and keeps its own stack, so depth costs no Python frames."""
    nodes = []
    stack = [f]
    while stack:
        g = stack.pop()
        # preorder with the right child first, left children kept for later
        while g is not None:
            nodes.append(g)
            left = getattr(g, "left", None)
            if left is not None:
                stack.append(left)
                g = g.right
            else:
                g = getattr(g, "body", None)
    nodes.reverse()
    return nodes
