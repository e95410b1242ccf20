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
prints a tree, one with no shared objects, without definitions.

The parser, like neg, question and classical_or, builds each node with
a node builder, node(cls, a=None, b=None): `fresh` makes Formula
objects, and kernels.RowBuilder program rows, one per distinct node.

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


def _key(f: Formula) -> tuple[int, bytes]:
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


_KEYWORDS = frozenset({"bot", "not", "ior", "or", "box", "wbox", "let"})
_PUNCT = {"(": "(", ")": ")", "-": "->", "&": "&", "?": "?", "=": "=", ";": ";"}
_WORDS = _KEYWORDS | {"p<index>", "name"}


def _formula_word(word: str, offset: int) -> tuple[str, str, int]:
    if word in _KEYWORDS:
        return (word, word, offset)
    # ASCII digits only: int() rejects "²" and reads "٣" as 3
    if word[0] == "p" and word[1:].isascii() and word[1:].isdigit():
        return ("atom", word[1:], offset)
    if word.isascii():
        return ("name", word, offset)
    raise ParseError(offset, _WORDS, repr(word))


_FORMULA_LEXICON = (_PUNCT, "", _formula_word, _KEYWORDS | frozenset(_PUNCT.values()))


_ATOM_START = frozenset({"bot", "p<index>", "name", "(", "not", "?", "box", "wbox"})


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
        found = "end of input" if kind == "eof" else repr(f"p{value}" if kind == "atom" else value)
        return ParseError(offset, expected, found)


def _box(f: Formula, node=fresh) -> Formula:
    return node(Box, f)


def _wbox(f: Formula, node=fresh) -> Formula:
    return node(WBox, f)


# the builder of each prefix operator
_PREFIX = {"not": neg, "?": question, "box": _box, "wbox": _wbox}
_END = {"eof": "end of input", ";": ";"}


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
    cursor = _Cursor(_tokenize(text, *_FORMULA_LEXICON))
    definitions: dict[str, Formula] = {}
    while cursor.peek()[0] == "let":
        cursor.advance()
        kind, name, offset = cursor.peek()
        if kind != "name":
            raise cursor.fail(frozenset({"name"}))
        if name in definitions:
            raise ParseError(offset, frozenset({"name"}), repr(name), f"{name!r} is already defined")
        cursor.advance()
        if cursor.peek()[0] != "=":
            raise cursor.fail(frozenset({"="}))
        cursor.advance()
        definitions[name] = _read_formula(cursor, definitions, ";", node)
        cursor.advance()
    return _read_formula(cursor, definitions, "eof", node)


def _read_formula(cursor: _Cursor, definitions: dict, end: str, node):
    """The formula at the cursor, up to a token of kind end, built with
    node, with each name read as the node definitions maps it to.

    One level per open parenthesis is kept on an explicit stack, so
    nesting costs no Python frames: the prefix operators pending on the
    unary being read, the antecedents of its `->` chain, the disjunction
    so far with its ior/or mode, and the conjunction so far.
    """
    levels = []
    prefix, antecedents, disj, mode, conj = [], [], None, None, None
    while True:
        kind, value, offset = cursor.peek()
        if kind in _PREFIX:
            cursor.advance()
            prefix.append(_PREFIX[kind])
            continue
        if kind == "(":
            cursor.advance()
            levels.append((prefix, antecedents, disj, mode, conj))
            prefix, antecedents, disj, mode, conj = [], [], None, None, None
            continue
        if kind == "atom":
            f = node(Atom, int(value))
        elif kind == "bot":
            f = node(Bottom)
        elif kind == "name":
            if value not in definitions:
                raise ParseError(offset, _ATOM_START, repr(value), f"{value!r} is not defined")
            f = definitions[value]
        else:
            raise cursor.fail(_ATOM_START)
        cursor.advance()
        # f is a whole atom: fold it into the open level, and close levels
        # for as long as a ")" follows a whole formula
        while True:
            while prefix:
                f = prefix.pop()(f, node)
            conj = f if conj is None else node(And, conj, f)
            kind, _, offset = cursor.peek()
            if kind == "&":
                cursor.advance()
                break
            if disj is None:
                disj = conj
            elif mode == "ior":
                disj = node(IVee, disj, conj)
            else:
                disj = classical_or(disj, conj, node)
            conj = None
            if kind in ("ior", "or"):
                cursor.advance()
                if mode is None:
                    mode = kind
                elif kind != mode:
                    raise ParseError(
                        offset,
                        frozenset({mode, "->", "&", ")", _END[end]}),
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
                f = node(Implies, antecedents.pop(), f)
            if not levels:
                if kind != end:
                    raise cursor.fail(frozenset({"->", "&", "ior", "or", _END[end]}))
                return f
            if kind != ")":
                raise cursor.fail(frozenset({")", "->", "&", "ior", "or"}))
            cursor.advance()
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


def render_formula(f: Formula) -> str:
    """Print a formula in core syntax; parse_formula inverts it exactly.

    Binary connectives are always parenthesized, prefix modalities are
    bare, so the output is unambiguous without precedence knowledge.
    Every composite node object that f reaches twice or more is printed
    once, as a definition `let fN = ...;` on a line of its own
    before the formula, and by its name wherever it is used; so the text
    is linear in the distinct objects of f, and a tree prints without
    definitions.
    """
    shared = {key: "" for key, places in _reach_counts(f).items() if places > 1}
    return _render(f, *_FORMULA_FORMS, shared)


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
    holds in the tree, but is measured once, so the time is linear in the
    distinct objects of f. The walk descends left children in place and
    stacks right ones, with None marking a node whose children are done.
    """
    sizes: dict[int, int] = {}  # id of a measured composite object -> its size
    done: list[int] = []  # the size of each finished child, innermost last
    parents: list = []
    stack: list = []
    g = f
    while True:
        kind = type(g)
        if kind is Atom:
            size = 1 + (g.index + 1).bit_length()
        elif kind is Bottom:
            size = 1
        elif kind in _ARITY:
            size = sizes.get(id(g))
            if size is None:
                parents.append(g)
                stack.append(None)
                if _ARITY[kind] == 1:
                    g = g.body
                else:
                    stack.append(g.right)
                    g = g.left
                continue
        else:
            raise TypeError(f"not a formula node: {g!r}")
        done.append(size)
        while stack:
            g = stack.pop()
            if g is not None:
                break
            g = parents.pop()
            size = 1 + done.pop()
            if _ARITY[type(g)] == 2:
                size += done.pop()
            sizes[id(g)] = size
            done.append(size)
        else:
            return done[0]


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
