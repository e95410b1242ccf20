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
of whose uses stands for the one object the definition built. One
printer writes text off program rows, naming every row that two or more
references of its parents hold. A kernels.Program prints off its own
columns; a Formula off rows that one identity walk gives it, a row per
composite node object and per leaf occurrence, so its definitions name
exactly the objects it reaches twice or more, and a tree, one with no
shared objects, prints without definitions.

The parser, like neg, question and classical_or, builds each node with
a node builder, node(cls, a=None, b=None): `fresh` makes Formula
objects, and kernels.RowBuilder program rows, one per distinct node.
It indexes the token strings of the text, which a _Lexer gives as
qbf's parser gets them: plain ASCII text is split at blanks once its
punctuation is spaced out, and any other text is lexed by one compiled
regular expression; a token's offset is found only for a ParseError.

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

import operator
import re
from dataclasses import dataclass


@dataclass(frozen=True, slots=True, eq=False)
class Formula:
    """Base class for formula nodes. Instances are immutable values, equal
    when their trees are: equality and the hash are the lowered program's."""

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        return self is other or _key(self) == _key(other)

    def __hash__(self) -> int:
        return hash(_key(self))


def _key(f: Formula):
    # f's program, a value; kernels imports this module, so its lowering
    # is imported on first use
    from .kernels import lower_formula

    return lower_formula(f)


def _plain_int(value, what: str) -> int:
    """value as a plain int, for a field that holds an integer: a bool or
    another integer type becomes its int, and anything operator.index
    refuses (a float, a string) raises TypeError naming the field."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True, slots=True, eq=False)
class Bottom(Formula):
    pass


@dataclass(frozen=True, slots=True, eq=False)
class Atom(Formula):
    index: int

    def __post_init__(self) -> None:
        if type(self.index) is not int:
            object.__setattr__(self, "index", _plain_int(self.index, "atom index"))
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

_KEYWORDS = frozenset({"bot", "not", "ior", "or", "box", "wbox", "let"})
_PUNCT = frozenset({"(", ")", "->", "&", "?", "=", ";"})
_WORDS = _KEYWORDS | {"p<index>", "name"}


class _Stop(Exception):
    """A parse error at a token's index, as (index, expected) and a reason
    if any, which _Lexer.locate turns into a ParseError at the token's offset."""


class _Lexer:
    """The tokens of one grammar's text, and the place of a parse error.

    token matches blanks and comments, then one token as its group 1;
    plain matches (as a whole) text of ASCII words, blanks and punct
    only, with no comment, which splits at blanks into the same tokens
    once each punct is spaced out; lex_error(word, offset) is the
    ParseError of a token that no grammar rule may read, or None."""

    def __init__(self, token: str, plain: str, punct, lex_error):
        self.token = re.compile(_BLANKS + token)
        self.plain = re.compile(plain, re.ASCII)
        self.punct = tuple(punct)
        self.lex_error = lex_error

    def tokens(self, text: str) -> list[str]:
        """The tokens of text, as self.token.findall(text) gives them up
        to and including the first "", which ends them: a parser reads no
        token past it."""
        if self.plain.fullmatch(text) is None:
            return self.token.findall(text)
        for p in self.punct:
            text = text.replace(p, f" {p} ")
        tokens = text.split()
        tokens.append("")
        return tokens

    def locate(self, text: str, stop: _Stop) -> ParseError:
        """The ParseError that stop stands for in text, split by token: the
        first token that lex_error refuses, wherever the parser stopped, as
        a text is lexed before it is parsed; else stop's, at its token's
        offset. It lexes by self.token, which gives every token's offset."""
        index, expected, *reason = stop.args
        for i, match in enumerate(self.token.finditer(text)):
            word, offset = match[1], match.start(1)
            error = self.lex_error(word, offset)
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


# `-` and `>` are plain only as "->"
_FORMULA_LEXER = _Lexer(
    r"(->|\w+|.|\Z)", r"[\w \t\r\n()&?=;]*(?:->[\w \t\r\n()&?=;]*)*", _PUNCT, _formula_lex_error
)


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
    tokens = _FORMULA_LEXER.tokens(text)
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
        raise _FORMULA_LEXER.locate(text, stop) from None


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
            try:
                index = int(word[1:])
            except ValueError:
                # more digits than sys.get_int_max_str_digits() allows
                raise _Stop(i - 1, _ATOM_START, f"atom index of {len(word) - 1} digits is too long") from None
            f = node(Atom, index)
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


def render_formula(f) -> str:
    """Print a formula, or a kernels.Program, in core syntax;
    parse_formula inverts it exactly. Binary connectives are always
    parenthesized and prefix modalities bare, so no precedence is needed.
    Every composite node object that f reaches twice or more, or row
    that two or more references of its parents hold, is printed once, as
    a definition `let fN = ...;` on a line before the formula, and by its
    name wherever it is used: the text is linear in the distinct objects
    or rows of f, and a tree prints without definitions. A program
    prints as formula_of(program) does. Raises TypeError on a node of f
    that is no formula node, and ValueError, naming the atom by the bit
    length of its index, on an index with more digits than str() prints."""
    if not isinstance(f, Formula):
        return _render_rows(f.ops, f.left, f.right, f.payload, f.root)
    from .kernels import _object_rows

    return _render_rows(*_object_rows(f))


# the text of each composite op, indexed by op
_FORMS = (None, None, " & ", " ior ", " -> ", "box ", "wbox ")


def _render_rows(ops, left, right, payload, root: int) -> str:
    """The text of the formula at row root of the columns, its tokens
    off one stack in output order, joined once. A row that its parents
    reference twice or more, counted up front, is a definition: it keeps
    an empty slot at its first place, and an (out, slot, row) entry under
    its parts names it once they are printed, so definitions end, and
    are numbered, children first."""
    from .kernels import OP_AND, OP_ATOM, OP_BOX

    parents = [0] * len(ops)
    for op, a, b in zip(ops, left, right):
        if op >= OP_AND:
            parents[a] += 1
            if op < OP_BOX:
                parents[b] += 1
    names: dict[int, str] = {}
    lines, out, stack = [], [], [root]
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
            try:
                out.append(f"p{payload[r]}" if ops[r] == OP_ATOM else "bot")
            except ValueError:
                # str() refuses more digits than sys.get_int_max_str_digits()
                raise ValueError(f"cannot print the atom with a {payload[r].bit_length()}-bit index: "
                                 "it has more digits than str() prints") from None
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
                stack += (")", right[r], _FORMS[op], left[r])
            else:
                out.append(_FORMS[op])
                stack.append(left[r])
    return "".join(lines) + "".join(out)


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
