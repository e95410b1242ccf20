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


_PREFIX = {"not": neg, "?": question, "box": Box, "wbox": WBox}


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into a Formula, expanding derived forms.

    One level per open parenthesis is kept on an explicit stack, so
    nesting costs no Python frames: the prefix operators pending on the
    unary being read, the antecedents of its `->` chain, the disjunction
    so far with its ior/or mode, and the conjunction so far.

    Raises:
        ParseError: on malformed input, with byte offset and the set of
            acceptable tokens at that point.
    """
    cursor = _Cursor(_tokenize(text))
    levels = []
    prefix, antecedents, disj, mode, conj = [], [], None, None, None
    while True:
        kind, value, _ = cursor.peek()
        if kind in _PREFIX:
            cursor.advance()
            prefix.append(_PREFIX[kind])
            continue
        if kind == "(":
            cursor.advance()
            levels.append((prefix, antecedents, disj, mode, conj))
            prefix, antecedents, disj, mode, conj = [], [], None, None, None
            continue
        if kind == "bot":
            f = Bottom()
        elif kind == "atom":
            f = Atom(int(value))
        else:
            raise cursor.fail(_ATOM_START)
        cursor.advance()
        # f is a whole atom: fold it into the open level, and close levels
        # for as long as a ")" follows a whole formula
        while True:
            while prefix:
                f = prefix.pop()(f)
            conj = f if conj is None else And(conj, f)
            kind, _, offset = cursor.peek()
            if kind == "&":
                cursor.advance()
                break
            disj = conj if disj is None else (IVee if mode == "ior" else classical_or)(disj, conj)
            conj = None
            if kind in ("ior", "or"):
                cursor.advance()
                if mode is None:
                    mode = kind
                elif kind != mode:
                    raise ParseError(
                        offset,
                        frozenset({mode, "->", "&", ")", "end of input"}),
                        repr(kind),
                    )
                break
            if kind == "->":
                cursor.advance()
                antecedents.append(disj)
                disj = mode = None
                break
            # "->" is right associative
            f = disj
            while antecedents:
                f = Implies(antecedents.pop(), f)
            if not levels:
                if kind != "eof":
                    raise cursor.fail(frozenset({"->", "&", "ior", "or", "end of input"}))
                return f
            if kind != ")":
                raise cursor.fail(frozenset({")", "->", "&", "ior", "or"}))
            cursor.advance()
            prefix, antecedents, disj, mode, conj = levels.pop()


_INFIX = {And: " & ", IVee: " ior ", Implies: " -> "}
_PREFIXED = {Box: "box ", WBox: "wbox "}


def render_formula(f: Formula) -> str:
    """Print a formula in core syntax; parse_formula inverts it exactly.

    Binary connectives are always parenthesized, prefix modalities are
    bare, so the output is unambiguous without precedence knowledge. The
    tokens come off one stack of nodes and pending strings in output
    order and are joined once, so the time is linear in the output.
    """
    out: list[str] = []
    stack: list = [f]
    while stack:
        g = stack.pop()
        kind = type(g)
        if kind is str:
            out.append(g)
        elif kind in _INFIX:
            out.append("(")
            stack += (")", g.right, _INFIX[kind], g.left)
        elif kind in _PREFIXED:
            out.append(_PREFIXED[kind])
            stack.append(g.body)
        elif kind is Atom:
            out.append(f"p{g.index}")
        elif kind is Bottom:
            out.append("bot")
        else:
            raise TypeError(f"not a formula node: {g!r}")
    return "".join(out)


def formula_size(f: Formula) -> int:
    """Weighted encoding size: connectives cost 1, Atom(i) costs 1 plus
    the binary length of its index (so index growth is logarithmic, not
    free)."""
    size = 0
    for g in subformulas(f):
        if isinstance(g, Atom):
            size += 1 + (g.index + 1).bit_length()
        elif isinstance(g, (Bottom, And, IVee, Implies, Box, WBox)):
            size += 1
        else:
            raise TypeError(f"not a formula node: {g!r}")
    return size


def subformulas(f) -> list:
    """Every node of f, children before parents and left before right,
    duplicates included: the one postorder walk of the package (the
    printers, which emit in preorder, keep a token stack). It reads the
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
