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
    """Malformed formula or QBF text.

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


def _tokenize(text: str, punct: dict[str, str], word_start: str, word, expected: frozenset[str]):
    """Split text into (kind, value, offset) triples, ending with EOF.

    The lexing loop of both languages, which pass only data. Blanks are
    space, tab, CR and LF; `#` starts a comment to end of line. punct maps
    the first character of each punctuation token to the token, whose
    kind and value are its text. A word is a letter or a character of
    word_start, then letters, digits and `_`; word(text, offset) gives its
    token or raises ParseError. At any other character the error lists
    expected.
    """
    tokens = []
    append = tokens.append
    i = 0
    n = len(text)
    # tests in order of how often they hold on typical input
    while i < n:
        c = text[i]
        if c == " ":
            i += 1
        elif c in punct:
            tok = punct[c]
            if tok == c:
                append((c, c, i))
                i += 1
            elif text.startswith(tok, i):
                append((tok, tok, i))
                i += len(tok)
            else:
                raise ParseError(i, frozenset(punct.values()), repr(c))
        elif c.isalpha() or c in word_start:
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            append(word(text[i:j], i))
            i = j
        elif c in "\t\r\n":
            i += 1
        elif c == "#":
            i = text.find("\n", i)
            if i < 0:
                i = n
        else:
            raise ParseError(i, expected, repr(c))
    append(("eof", "", n))
    return tokens


_KEYWORDS = frozenset({"bot", "not", "ior", "or", "box", "wbox"})
_PUNCT = {"(": "(", ")": ")", "-": "->", "&": "&", "?": "?"}
_WORDS = _KEYWORDS | {"p<index>"}


def _formula_word(word: str, offset: int) -> tuple[str, str, int]:
    if word in _KEYWORDS:
        return (word, word, offset)
    # ASCII digits only: int() rejects "²" and reads "٣" as 3
    if word[0] == "p" and word[1:].isascii() and word[1:].isdigit():
        return ("atom", word[1:], offset)
    raise ParseError(offset, _WORDS, repr(word))


_FORMULA_LEXICON = (_PUNCT, "", _formula_word, _KEYWORDS | frozenset(_PUNCT.values()))


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
    cursor = _Cursor(_tokenize(text, *_FORMULA_LEXICON))
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


def _render(f, infix: dict, prefix: dict, leaves: dict) -> str:
    """Print a tree of either language, given as its tables of forms.

    infix maps a binary node class to its connective, printed between
    parentheses around both children; prefix maps a unary class to the
    text before its body; leaves maps a leaf class to its text and
    whether the node's index follows it. The tokens come off one stack of
    nodes and pending strings in output order and are joined once, so the
    time is linear in the output.
    """
    out: list[str] = []
    stack: list = [f]
    while stack:
        g = stack.pop()
        kind = type(g)
        if kind is str:
            out.append(g)
        elif kind in infix:
            out.append("(")
            stack += (")", g.right, infix[kind], g.left)
        elif kind in leaves:
            text, indexed = leaves[kind]
            out.append(f"{text}{g.index}" if indexed else text)
        elif kind in prefix:
            out.append(prefix[kind])
            stack.append(g.body)
        else:
            raise TypeError(f"cannot print {g!r}")
    return "".join(out)


_FORMULA_FORMS = (
    {And: " & ", IVee: " ior ", Implies: " -> "},
    {Box: "box ", WBox: "wbox "},
    {Atom: ("p", True), Bottom: ("bot", False)},
)


def render_formula(f: Formula) -> str:
    """Print a formula in core syntax; parse_formula inverts it exactly.

    Binary connectives are always parenthesized, prefix modalities are
    bare, so the output is unambiguous without precedence knowledge.
    """
    return _render(f, *_FORMULA_FORMS)


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
