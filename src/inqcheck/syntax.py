"""Formula AST, concrete syntax, parser, printer, and size measure.

Formulas are built from falsum, indexed atoms, conjunction, inquisitive
disjunction, implication, and two state modalities (box and wbox).
Negation, classical disjunction, and the question prefix are surface
forms only: the parser expands `not f` to `f -> bot`, `f or g` to
`not(not f & not g)`, and `? f` to `f ior not f`. The printer emits core
connectives only, so parse and render round-trip structurally.

Grammar (whitespace-insensitive, `#` starts a comment to end of line):

    formula := impl
    impl    := disj ("->" impl)?          right associative
    disj    := conj (("ior"|"or") conj)*  left associative, no mixing
    conj    := unary ("&" unary)*
    unary   := ("not"|"?"|"box"|"wbox") unary | atom
    atom    := "bot" | "p" DIGITS | "(" formula ")"

DIGITS are ASCII `0-9`. `ior` and `or` may not be chained at the same
level without parentheses: one is a connective of its own and the other
an abbreviation, and silent mixing is a classic source of confusion.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Formula:
    """Base class for formula nodes. Instances are immutable values."""


@dataclass(frozen=True, slots=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"atom index must be non-negative, got {self.index}")


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class IVee(Formula):
    """Inquisitive disjunction."""

    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Box(Formula):
    body: Formula


@dataclass(frozen=True, slots=True)
class WBox(Formula):
    """Window modality: quantifies over the stored state map image."""

    body: Formula


def neg(f: Formula) -> Formula:
    """Negation as the defined form f -> bot."""
    return Implies(f, Bottom())


def classical_or(a: Formula, b: Formula) -> Formula:
    """Classical disjunction as the defined form not(not a & not b)."""
    return neg(And(neg(a), neg(b)))


def question(f: Formula) -> Formula:
    """Polar question: f ior not f."""
    return IVee(f, neg(f))


class ParseError(Exception):
    """Malformed formula text.

    Carries the byte offset of the offending token and the set of token
    descriptions that would have been accepted there.
    """

    def __init__(self, offset: int, expected: frozenset[str], found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        options = ", ".join(sorted(expected))
        super().__init__(
            f"parse error at offset {offset}: expected one of {{{options}}}, found {found}"
        )


_KEYWORDS = ("bot", "not", "ior", "or", "box", "wbox")
_PUNCT = ("(", ")", "->", "&", "?")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Split text into (kind, value, offset) triples, ending with EOF."""
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
        if c in "()&?":
            tokens.append((c, c, i))
            i += 1
            continue
        if c == "-":
            if text.startswith("->", i):
                tokens.append(("->", "->", i))
                i += 2
                continue
            raise ParseError(i, frozenset(_PUNCT), repr(c))
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in _KEYWORDS:
                tokens.append((word, word, i))
            # ASCII digits only: int() rejects "²" and reads "٣" as 3
            elif word[0] == "p" and word[1:].isascii() and word[1:].isdigit():
                tokens.append(("atom", word[1:], i))
            else:
                raise ParseError(
                    i,
                    frozenset(_KEYWORDS) | frozenset({"p<index>"}),
                    repr(word),
                )
            i = j
            continue
        raise ParseError(i, frozenset(_KEYWORDS) | frozenset(_PUNCT), repr(c))
    tokens.append(("eof", "", n))
    return tokens


_ATOM_START = frozenset({"bot", "p<index>", "(", "not", "?", "box", "wbox"})


class _Cursor:
    """A position in a (kind, value, offset) token list ending with EOF;
    the formula parser and the QBF parser both read through one."""

    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: frozenset[str]) -> ParseError:
        kind, value, offset = self.peek()
        found = "end of input" if kind == "eof" else repr(value)
        return ParseError(offset, expected, found)


class _Parser(_Cursor):
    def impl(self) -> Formula:
        left = self.disj()
        if self.peek()[0] == "->":
            self.advance()
            return Implies(left, self.impl())
        return left

    def disj(self) -> Formula:
        left = self.conj()
        mode = None
        while self.peek()[0] in ("ior", "or"):
            kind, _, offset = self.advance()
            if mode is None:
                mode = kind
            elif kind != mode:
                raise ParseError(
                    offset,
                    frozenset({mode, "->", "&", ")", "end of input"}),
                    repr(kind),
                )
            right = self.conj()
            left = IVee(left, right) if kind == "ior" else classical_or(left, right)
        return left

    def conj(self) -> Formula:
        left = self.unary()
        while self.peek()[0] == "&":
            self.advance()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        kind = self.peek()[0]
        if kind == "not":
            self.advance()
            return neg(self.unary())
        if kind == "?":
            self.advance()
            return question(self.unary())
        if kind == "box":
            self.advance()
            return Box(self.unary())
        if kind == "wbox":
            self.advance()
            return WBox(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        kind, value, _ = self.peek()
        if kind == "bot":
            self.advance()
            return Bottom()
        if kind == "atom":
            self.advance()
            return Atom(int(value))
        if kind == "(":
            self.advance()
            inner = self.impl()
            if self.peek()[0] != ")":
                raise self.fail(frozenset({")", "->", "&", "ior", "or"}))
            self.advance()
            return inner
        raise self.fail(_ATOM_START)


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into a Formula, expanding derived forms.

    Raises:
        ParseError: on malformed input, with byte offset and the set of
            acceptable tokens at that point.
    """
    parser = _Parser(_tokenize(text))
    result = parser.impl()
    if parser.peek()[0] != "eof":
        raise parser.fail(frozenset({"->", "&", "ior", "or", "end of input"}))
    return result


def render_formula(f: Formula) -> str:
    """Print a formula in core syntax; parse_formula inverts it exactly.

    Binary connectives are always parenthesized, prefix modalities are
    bare, so the output is unambiguous without precedence knowledge.
    """
    if isinstance(f, Bottom):
        return "bot"
    if isinstance(f, Atom):
        return f"p{f.index}"
    if isinstance(f, And):
        return f"({render_formula(f.left)} & {render_formula(f.right)})"
    if isinstance(f, IVee):
        return f"({render_formula(f.left)} ior {render_formula(f.right)})"
    if isinstance(f, Implies):
        return f"({render_formula(f.left)} -> {render_formula(f.right)})"
    if isinstance(f, Box):
        return f"box {render_formula(f.body)}"
    if isinstance(f, WBox):
        return f"wbox {render_formula(f.body)}"
    raise TypeError(f"not a formula node: {f!r}")


def formula_size(f: Formula) -> int:
    """Weighted encoding size: connectives cost 1, Atom(i) costs 1 plus
    the binary length of its index (so index growth is logarithmic, not
    free)."""
    if isinstance(f, Bottom):
        return 1
    if isinstance(f, Atom):
        return 1 + (f.index + 1).bit_length()
    if isinstance(f, (Box, WBox)):
        return 1 + formula_size(f.body)
    if isinstance(f, (And, IVee, Implies)):
        return 1 + formula_size(f.left) + formula_size(f.right)
    raise TypeError(f"not a formula node: {f!r}")


def subformulas(f: Formula):
    """Yield every node of f, parents after children, duplicates included."""
    if isinstance(f, (And, IVee, Implies)):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, (Box, WBox)):
        yield from subformulas(f.body)
    yield f
