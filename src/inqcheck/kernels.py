"""Programs, the row builder, and the support-table kernel.

A program is a formula as flat rows, one per distinct subformula
(structurally equal subtrees share a row), numbered in the root's
postorder, so one DAG has one program. The compiler and the parser
build rows through a RowBuilder. A Formula reaches rows through one walk
by object identity, _object_rows, which lower_formula numbers in one
pass and syntax.render_formula prints; formula_of turns rows back into
Formula objects. The table kernel gives
every row, in one bottom-up pass, an n-bit truth mask (the worlds w at
which the singleton {w} supports it) and a covering family (below).
Support is downward persistent, so a state with a world outside that
mask never supports the row.

Three facts decide support (Ciardelli & Roelofsen, "Inquisitive logic",
J. Philos. Logic 40, 2011; Ciardelli, Groenendijk & Roelofsen,
Inquisitive Semantics, OUP 2018, ch. 2-3):

- Support by a covering family. Every formula is the inquisitive
  disjunction of its resolutions, so it is supported exactly by the
  subsets of the members of a family of world masks that does not depend
  on the state (the maximal members are its alternatives; others may lie
  inside them). bot, atoms, box and wbox have one member, their truth
  mask. ior concatenates the families, & keeps the maximal pairwise
  meets, and f -> g has one member if g has, else the meets of one
  factor per member A of f: g's members joined with the worlds outside
  A. Only size leaves a row without a family: it, or the product of ->,
  passes max_family members, or a row below it has none.
- The covering form of ->. By persistence, t supports f -> g iff t & A
  supports g for every member A of f's family.
- The least failure of ->. A substate of s fails g iff it meets every out
  s & ~A of g's members. When those outs that are single worlds have an
  OR m that every wider out meets, the substates of s failing g are
  exactly the supersets of m. By persistence s then supports f -> g iff m
  does not support f. A member with an empty out holds s, and s supports
  f -> g outright.

A query at state s answers a row with a family by whether s lies inside
a member, descends through the conjunctions and inquisitive disjunctions
without one, and decides an implication f -> g without one in one of
four ways, answering each such implication and each such row that two
parents share at a state at most once:

- f has a covering family: descend to s & A for each of its members;
- s lies inside a member of g's family: s supports f -> g;
- g's family gives s a least failure m: ask f at m and negate the
  answer;
- otherwise close: s supports f -> g iff no substate supports f and
  fails g, read off bitsets over the 2^|s| sub-lattice of s, with a row
  that has a family as the union of its members' down-sets. The
  substates where f holds and g fails are closed under supersets with
  one masked shift per world, O(k * 2^k) bit operations for k = |s|;
  states outside s are never touched.

States, truth masks and lattice rows are plain Python ints, which have no
width, so models of any size share one code path.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cache, reduce
from operator import or_

from .model import InformationModel
from .syntax import And, Atom, Bottom, Box, Formula, IVee, Implies, WBox

# numba is no longer used; the constant stays for callers that import it.
HAS_NUMBA = False


OP_BOT = 0
OP_ATOM = 1
OP_AND = 2
OP_IVEE = 3
OP_IMPLIES = 4
OP_BOX = 5
OP_WBOX = 6

# kinds of the entries waiting in SupportTable.holds; AND and IVEE equal
# the value of a left side that decides the & or the ior
AND, IVEE, DONE, NOT = 0, 1, 2, 3

_OP_OF_TYPE = {
    Bottom: OP_BOT,
    Atom: OP_ATOM,
    And: OP_AND,
    IVee: OP_IVEE,
    Implies: OP_IMPLIES,
    Box: OP_BOX,
    WBox: OP_WBOX,
}

# the node class of each op, indexed by op
_TYPE_OF_OP = (Bottom, Atom, And, IVee, Implies, Box, WBox)

# stacked under a composite object's children in _object_rows
_UP = object()


def _object_rows(f: Formula) -> tuple[list[int], list[int], list[int], list, int]:
    """f's rows by identity as columns (ops, left, right, payload) and a
    root: one row per composite node object, which a repeat finds by id,
    and one per leaf occurrence, so rows are shared exactly where objects
    are. Rows come in the tree's postorder, children before parents and
    left before right. Raises TypeError on a node that is no formula node.

    The walk descends left children in place and stacks right ones, with
    _UP under the children of a composite object kept on `parents`; the
    row of each finished child waits on `done`."""
    ops, left, right, payload = [], [], [], []
    rows: dict[int, int] = {}  # id of a composite object -> its row
    done, parents, stack = [], [], []
    g = f
    while True:
        op = _OP_OF_TYPE.get(type(g))
        if op is None:
            raise TypeError(f"cannot print or lower {g!r}: it is no formula node")
        if op < OP_AND:
            row = len(ops)
            ops.append(op)
            left.append(0)
            right.append(0)
            payload.append(g.index if op == OP_ATOM else 0)
        else:
            row = rows.get(id(g))
            if row is None:
                parents.append((g, op))
                stack.append(_UP)
                if op < OP_BOX:
                    stack.append(g.right)
                    g = g.left
                else:
                    g = g.body
                continue
        done.append(row)
        while stack:
            g = stack.pop()
            if g is not _UP:
                break
            g, op = parents.pop()
            b = done.pop() if op < OP_BOX else 0
            row = rows[id(g)] = len(ops)
            ops.append(op)
            left.append(done.pop())
            right.append(b)
            payload.append(0)
            done.append(row)
        else:
            return ops, left, right, payload, row


@dataclass(frozen=True, slots=True)
class Program:
    """Flat form of a formula: one row per distinct subformula, numbered
    in the root's postorder (children before parents, left before right,
    each row when it is first finished), so the root is the last row.
    lower_formula and RowBuilder.program both number rows so: equal
    formulas give equal programs, whichever builds them.

    payload holds the atom index for OP_ATOM rows and 0 elsewhere; left
    and right hold child row numbers (right is 0 for unary rows). _pack
    makes the columns array("q"), payload a list when an index does not
    fit one: program_key hashes the columns' bytes, and perfbench's
    tracer calls .tolist() on ops, left and right.
    """

    ops: array
    left: array
    right: array
    payload: array

    @property
    def root(self) -> int:
        return len(self.ops) - 1

    @property
    def num_nodes(self) -> int:
        return len(self.ops)


def program_key(p: Program) -> tuple[int, bytes, bytes | tuple]:
    """Root, rows (one column length) and payload: its bytes, or its
    values when _pack could not pack them. Programs have
    equal keys exactly for equal formulas, lowered, parsed or compiled."""
    rows = b"".join(a.tobytes() for a in (p.ops, p.left, p.right))
    return p.root, rows, p.payload.tobytes() if type(p.payload) is array else tuple(p.payload)


class RowBuilder:
    """A node builder that returns one program row per distinct node, so
    that equal subformulas built through it share a row (hash-consing:
    Filliatre & Conchon, "Type-safe modular hash-consing", ML Workshop
    2006). It takes the arguments of the node builders of syntax and
    switching, node(cls, a=None, b=None), with rows for children and the
    index for an atom, so a row is keyed on its class and its children's
    rows and building never hashes a subtree. program(root) numbers the
    rows root reaches in root's postorder, so the order of the calls
    does not show in the program."""

    __slots__ = ("rows",)

    def __init__(self) -> None:
        # (cls, a, b) of each row -> its number, in the order built
        self.rows: dict[tuple, int] = {}

    def __call__(self, cls, a=0, b=0) -> int:
        rows = self.rows
        return rows.setdefault((cls, a, b), len(rows))

    def program(self, root: int) -> Program:
        """The rows that root reaches, numbered in root's postorder: left
        child before right, each row when it is first finished. So one DAG
        is one program whatever order its rows were built in, and rows
        that nothing reaches, such as an unused definition's, are dropped.

        Raises ValueError on a negative atom index in any row built.
        """
        built = list(self.rows)
        low = min([a for cls, a, _ in built if cls is Atom], default=0)
        if low < 0:
            raise ValueError(f"atom index must be non-negative, got {low}")
        number = [-1] * len(built)  # a built row's number, once finished
        ops, left, right, payload = [], [], [], []
        parents = []  # the rows waiting on a child, innermost last
        r = root
        while True:
            cls, a, b = built[r]
            op = _OP_OF_TYPE[cls]
            if op >= OP_AND:
                child = a if number[a] < 0 else b if op < OP_BOX and number[b] < 0 else -1
                if child >= 0:
                    parents.append(r)
                    r = child
                    continue
            number[r] = len(ops)
            ops.append(op)
            left.append(number[a] if op >= OP_AND else 0)
            right.append(number[b] if OP_AND <= op < OP_BOX else 0)
            payload.append(0 if op >= OP_AND else a)
            if not parents:
                break
            r = parents.pop()
        return _pack(ops, left, right, payload)


def lower_formula(f: Formula) -> Program:
    """Intern a formula into a Program, sharing equal subtrees: each
    distinct (op, left, right, payload) of _object_rows, children
    renumbered, gets the next number where it first occurs. Those rows
    come in the tree's postorder, repeated objects skipped, so that is
    RowBuilder.program's numbering, and a formula costs its distinct
    objects. Raises TypeError on a node that is no formula node."""
    ops, left, right, payload, _ = _object_rows(f)
    rows: dict[tuple[int, int, int, int], int] = {}  # key of each row -> its number
    number: list[int] = []  # the number of each of f's rows
    for op, a, b, x in zip(ops, left, right, payload):
        if op >= OP_AND:
            # a unary row's right is 0, and row 0, a leaf, is number 0
            a, b = number[a], number[b]
        number.append(rows.setdefault((op, a, b, x), len(rows)))
    return _pack(*zip(*rows))


def _pack(ops, left, right, payload) -> Program:
    """The columns as array("q"), payload a list when an atom index is past
    it (no model has such atoms, so validating a query refuses it)."""
    try:
        packed = array("q", payload)
    except OverflowError:
        packed = list(payload)
    return Program(ops=array("q", ops), left=array("q", left), right=array("q", right), payload=packed)


def formula_of(p: Program) -> Formula:
    """The formula of a program, one Formula object per row, so that a
    row shared in the program is one object shared in the formula."""
    nodes: list[Formula] = []
    for op, a, b, x in zip(p.ops, p.left, p.right, p.payload):
        if op == OP_ATOM:
            nodes.append(Atom(x))
        elif op == OP_BOT:
            nodes.append(Bottom())
        elif op >= OP_BOX:
            nodes.append(_TYPE_OF_OP[op](nodes[a]))
        else:
            nodes.append(_TYPE_OF_OP[op](nodes[a], nodes[b]))
    return nodes[p.root]


def tree_size(p: Program) -> int:
    """syntax.formula_size of the program's formula, read off its rows:
    each row is measured once and counts at each place it holds in the
    tree."""
    sizes: list[int] = []
    for op, a, b, x in zip(p.ops, p.left, p.right, p.payload):
        if op == OP_ATOM:
            sizes.append(1 + (x + 1).bit_length())
        elif op == OP_BOT:
            sizes.append(1)
        elif op >= OP_BOX:
            sizes.append(1 + sizes[a])
        else:
            sizes.append(1 + sizes[a] + sizes[b])
    return sizes[p.root]


def model_masks(m: InformationModel) -> tuple[list[int], list[int], list[list[int]]]:
    """The model as world masks: each atom's valuation, each world's
    generator union (the box anchor) and each world's generator list (the
    wbox anchors). A plain model gives every world no generators."""
    val_masks = [v.mask for v in m.valuation]
    gen_masks = [[g.mask for g in gens] for gens in m.sigma or ((),) * m.n]
    return val_masks, [reduce(or_, gens, 0) for gens in gen_masks], gen_masks


@cache
def _low_masks(k: int) -> tuple[int, ...]:
    """LOW[i]: the bitset of the states (out of 2^k) that lack world i,
    i.e. runs of 2^i set bits alternating with 2^i clear bits. Cached for
    every k a query asks for; the masks for one k take k * 2^k bits."""
    size = 1 << k
    low = []
    for i in range(k):
        width = 2 << i
        x = (1 << (1 << i)) - 1
        while width < size:
            x |= x << width
            width <<= 1
        low.append(x)
    return tuple(low)


@cache
def _all_states(k: int) -> int:
    """The bitset of all 2^k states of a k-world lattice."""
    return (1 << (1 << k)) - 1


def _down_set(v: int, k: int) -> int:
    """Bitset of the states, out of 2^k, that are subsets of local world
    mask v: every state, less those holding a world outside v."""
    x = _all_states(k)
    for i, low in enumerate(_low_masks(k)):
        if not v >> i & 1:
            x &= low
    return x


def _local(v: int, worlds: list[int]) -> int:
    """World mask v as a mask over the positions of `worlds`."""
    # a loop, not sum() over a generator, which costs twice as much on the
    # few worlds of most states
    local = 0
    for i, w in enumerate(worlds):
        if v >> w & 1:
            local |= 1 << i
    return local


def _meet(fa: tuple[int, ...], fb: tuple[int, ...]) -> tuple[int, ...]:
    """The family of f & g from f's and g's: their maximal pairwise meets."""
    return (fa[0] & fb[0],) if len(fa) == len(fb) == 1 else _maximal([u & v for u in fa for v in fb])


def _maximal(masks) -> tuple[int, ...]:
    """The distinct masks that lie inside no other one."""
    kept: list[int] = []
    for v in sorted(set(masks), key=int.bit_count, reverse=True):
        # a loop, not all() over a generator, which costs more on the few
        # members of most families
        for u in kept:
            if not v & ~u:
                break
        else:
            kept.append(v)
    return tuple(kept)


def _closure(a: int, b: int, k: int) -> int:
    """Lattice row of f -> g over 2^k states from the rows a of f and b of
    g: the substates where f holds and g fails, then every superset of
    one, complemented. Sweep i moves each marked substate without world i
    to the one with it."""
    bad = a & ~b
    if bad:
        for i, low in enumerate(_low_masks(k)):
            bad |= (bad & low) << (1 << i)
    return _all_states(k) ^ bad


def active_kernel() -> str:
    """Name of the table kernel; there is one, over packed bitset rows."""
    return "packed"


class SupportTable:
    """The state-free facts of every program row, and support at any state
    read off them. support_table fills each column with one entry per row
    in one ascending pass.

    truth[r] is the n-bit mask of the worlds w at which the singleton {w}
    supports row r. families[r] is a covering family of row r as world
    masks (every member supports r, every supporting state lies inside
    one), or None; a row is declarative (a state supports it iff all its
    worlds are in truth[r]) when its family is (truth[r],). refs[r] counts
    the references to row r from rows without a family, plus two for such
    an implication; a query keeps r's answers iff >= 2.
    """

    __slots__ = ("ops", "left", "right", "truth", "refs", "families")

    def __init__(self, program: Program) -> None:
        self.ops = program.ops.tolist()
        self.left = program.left.tolist()
        self.right = program.right.tolist()
        self.truth: list[int] = []
        self.refs = [0] * len(self.ops)
        self.families: list[tuple[int, ...] | None] = []

    def holds(self, r: int, s: int) -> bool:
        """Whether state s supports row r. A row with a family is answered
        by its members. Below the others, the right side of a & or an ior
        waits on a stack until its left side leaves the answer open, and so
        does the consequent of an implication at each part s & A. The walk
        answers each implication and each shared row at a state at most
        once, so shared parts cost their distinct rows, not their paths."""
        truth, families, refs, ops, left, right = self.truth, self.families, self.refs, self.ops, self.left, self.right
        # the lattice rows over the substates of each state, kept for the
        # other implications closed at that state
        memos: dict[int, dict[int, int]] = {}
        # (kind, row, state): kind AND or IVEE waits as the right side of a
        # & or an ior. A marker DONE lies under the parts of a shared row or
        # an implication r at s, and NOT under an implication's antecedent
        # at the least failing substate; the value that pops one, negated for
        # NOT, is r's answer at s, kept in `answered` for the rest of the walk
        waiting: list[tuple[int, int, int]] = []
        answered: dict[tuple[int, int], bool] = {}
        while True:
            if s & ~truth[r]:
                # support is downward persistent, so s needs every {w} in s
                value = False
            elif (family := families[r]) is not None:
                # s supports r iff it lies inside a member
                value = False
                for v in family:
                    if not s & ~v:
                        value = True
                        break
            elif refs[r] < 2:
                waiting.append((IVEE if ops[r] == OP_IVEE else AND, right[r], s))
                r = left[r]
                continue
            elif (r, s) in answered:
                value = answered[r, s]
            elif ops[r] != OP_IMPLIES:
                waiting.append((DONE, r, s))
                waiting.append((IVEE if ops[r] == OP_IVEE else AND, right[r], s))
                r = left[r]
                continue
            elif (family := families[left[r]]) is not None:
                # by persistence, s supports f -> g iff s & A supports g for
                # every member A of f's family: each waits as the right side
                # of a & whose left side held
                waiting.append((DONE, r, s))
                for v in family:
                    waiting.append((AND, right[r], s & v))
                value = True
            elif (least := self._least_failure(right[r], s)) == 0:
                # s lies inside a member of g's family, so it and every
                # substate support g
                value = True
            elif least is not None:
                # the substates of s that fail g are the supersets of
                # `least`, so by persistence s supports f -> g iff `least`
                # does not support f
                waiting.append((NOT, r, s))
                r, s = left[r], least
                continue
            else:
                value = self._implication_holds(r, s, memos.setdefault(s, {}))
            # a true left side decides an ior, a false one a &
            while waiting:
                kind, r, s = waiting.pop()
                if kind < DONE:
                    if value != kind:
                        break
                    continue
                if kind == NOT:
                    value = not value
                answered[r, s] = value
            else:
                return value

    def _implication_holds(self, r: int, s: int, memo: dict[int, int]) -> bool:
        """Whether s supports the implication row r out of an antecedent
        without a family: whether no substate of s supports the
        antecedent and fails the consequent, read off lattice rows over the
        substates of s that memo keeps. It is apart from holds because a
        generator there would make cells of holds's locals on every call."""
        worlds = [w for w in range(s.bit_length()) if s >> w & 1]
        consequent = self._lattice_row(self.right[r], worlds, memo)
        return self._lattice_row(self.left[r], worlds, memo) & ~consequent == 0

    def _least_failure(self, r: int, s: int) -> int | None:
        """The least substate of s that fails row r, read off r's covering
        family: the OR of the members' outs s & ~A that are single worlds,
        when every out of two or more worlds meets that OR. A substate of s
        fails r iff it meets every out; it must then hold each single-world
        out, and one that holds them all meets the rest, so the substates
        of s that fail r are exactly the supersets of the OR. 0 when s lies
        inside a member, so that s supports r; else None."""
        family = self.families[r]
        if family is None:
            return None
        least = 0
        wide = []
        for v in family:
            out = s & ~v
            if out & (out - 1):
                wide.append(out)
            elif out:
                least |= out
            else:
                return 0
        for out in wide:
            if not out & least:
                return None
        return least

    def _lattice_row(self, r: int, worlds: list[int], memo: dict[int, int]) -> int:
        """Row r over the 2^k substates of the state made of the k
        `worlds`, in ascending order: bit j is set iff the substate of the
        worlds[i] with bit i set in j supports row r."""
        families, ops, left, right = self.families, self.ops, self.left, self.right
        k = len(worlds)
        # the rows r needs that memo lacks; children precede parents in a
        # program, so building in ascending row order builds children first
        needed = set()
        stack = [r]
        while stack:
            x = stack.pop()
            if x in needed or x in memo:
                continue
            needed.add(x)
            if families[x] is None:
                stack += (left[x], right[x])
        for x in sorted(needed):
            op = ops[x]
            if (family := families[x]) is not None:
                # the substates inside a member
                row = reduce(or_, [_down_set(_local(v, worlds), k) for v in family])
            elif op == OP_AND:
                row = memo[left[x]] & memo[right[x]]
            elif op == OP_IVEE:
                row = memo[left[x]] | memo[right[x]]
            else:
                row = _closure(memo[left[x]], memo[right[x]], k)
            memo[x] = row
        return memo[r]


def support_table(program: Program, m: InformationModel) -> SupportTable:
    """Truth masks, covering families and refs of every program row, in
    one ascending pass: each row's entries come from its children's. A
    box or wbox row asks whether its body holds at each world's anchor
    states.

    One family rule per connective: bot, atoms, box and wbox have their
    truth mask, ior concatenates, & is the _meet of its parts, and -> has
    its truth mask into one member, else the _meet of its factors.
    A row gets None only past max_family members, for the family or the
    |G| ** |F| product of ->, or above a row that has None."""
    val_masks, union_masks, gen_masks = model_masks(m)
    # a box's one anchor per world is the union of its generators
    box_anchors = [(u,) for u in union_masks]
    table = SupportTable(program)
    left, right, truth, families, refs = table.left, table.right, table.truth, table.families, table.refs
    # past this many members a row gets no family, which bounds the meets
    # of & and ->; a query then neither descends out of the row nor takes
    # its least failure. On the four benchmark workloads' seed-1 queries,
    # under caps of at most 15, 27, 30 and 18, the largest families read
    # have 15, 24, 4 and 14 members (13, 26, 4 and 14 uncapped, when the
    # first two build families of 21 and 35); no query closes a lattice
    max_family = 3 * m.n // 2
    payload = program.payload.tolist()
    all_worlds = (1 << m.n) - 1
    for r, op in enumerate(table.ops):
        a, b = left[r], right[r]
        family = None
        if op < OP_AND:
            t = val_masks[payload[r]] if op == OP_ATOM else 0
            family = (t,)
        elif op < OP_BOX:
            fa, fb = families[a], families[b]
            if op == OP_AND:
                t = truth[a] & truth[b]
                if fa is not None and fb is not None:
                    family = _meet(fa, fb)
            elif op == OP_IVEE:
                t = truth[a] | truth[b]
                if fa is not None and fb is not None:
                    family = fa + fb
            else:
                t = all_worlds & ~truth[a] | truth[b]
                if fb is not None and len(fb) == 1:
                    family = (t,)
                elif fa is not None and fb is not None and len(fb) ** len(fa) <= max_family:
                    # t supports f -> g iff t & u lies inside a member of g's
                    # family for each member u of f's: one factor per u
                    family = reduce(_meet, [tuple([all_worlds & ~u | v for v in fb]) for u in fa])
        else:
            # the body must hold at each of a world's anchors. The first two
            # tests of holds are made before a walk starts: an anchor with a
            # world outside the body's truth mask fails it, and a body with
            # one member, its truth mask, holds at every other anchor
            ta, fa = truth[a], families[a]
            one = fa is not None and len(fa) == 1
            t = 0
            for w, anchors in enumerate(box_anchors if op == OP_BOX else gen_masks):
                for u in anchors:
                    if u & ~ta or not (one or table.holds(a, u)):
                        break
                else:
                    t |= 1 << w
            family = (t,)
        truth.append(t)
        if family is not None and len(family) > max_family:
            family = None
        families.append(family)
        if family is None:
            # only a row without a family leads a query on to its children
            refs[a] += 1
            refs[b] += 1
            if op == OP_IMPLIES:
                refs[r] += 2
    return table


def table_bytes(program: Program, m: InformationModel) -> int:
    """Rows times 2^n, one byte per state per row: the unit of the auto
    engine's byte cap. It is no longer what the table engine holds (n-bit
    truth masks plus lattice rows over the query state's substates); the
    cap is to be reworked together with the benchmark (ROADMAP item 3)."""
    return program.num_nodes << m.n
