"""Programs, the row builder, and the support-table kernel.

A program is a formula as flat rows, one per distinct subformula
(structurally equal subtrees share a row), children before parents. A
RowBuilder makes them: the compiler and the parser build rows through
it directly, and lower_formula feeds it a Formula's nodes in postorder;
formula_of turns rows back into Formula objects. The table kernel
gives every row an n-bit truth mask: the worlds w at which the singleton
{w} supports it. Support is downward persistent, so a state with a world
outside that mask never supports the row, and for a declarative row (one
whose support is truth at each world) the mask decides support outright.

Three facts decide implications (Ciardelli & Roelofsen, "Inquisitive
logic", J. Philos. Logic 40, 2011; Ciardelli, Groenendijk & Roelofsen,
Inquisitive Semantics, OUP 2018, ch. 2-3):

- Support by a covering family. A formula built from declaratives with
  &, ior and -> out of a declarative is supported exactly by the subsets
  of the members of a family of world masks that does not depend on the
  state: every member supports it, and every supporting state lies inside
  a member. The maximal members are its alternatives; the family may hold
  others inside them. A declarative has its truth mask; ior concatenates
  the families, & meets them pairwise and keeps the maximal meets, and
  alpha -> g with alpha declarative maps each member B of g to B plus the
  worlds outside alpha.
- The covering form of ->. By persistence, t supports f -> g iff t & A
  supports g for every member A of f's family.
- The least failure of ->. A substate of s fails g iff it meets every out
  s & ~A of g's members. When those outs that are single worlds have an
  OR m that every wider out meets, the substates of s failing g are
  exactly the supersets of m. By persistence s then supports f -> g iff m
  does not support f. A member with an empty out holds s, and s supports
  f -> g outright.

A query at state s descends through conjunctions and inquisitive
disjunctions at s, and decides an implication f -> g it reaches in one
of four ways, answering each implication and each row that two parents
share at a state at most once:

- f has a covering family: descend to s & A for each of its members;
- s lies inside a member of g's family: s supports f -> g;
- g's family gives s a least failure m: ask f at m and negate the
  answer;
- otherwise close: s supports f -> g iff no substate supports f and
  fails g, read off bitsets over the 2^|s| sub-lattice of s, with
  declarative rows as down-sets of their truth masks. The substates
  where f holds and g fails are closed under supersets with one masked
  shift per world, O(k * 2^k) bit operations for k = |s|; states
  outside s are never touched.

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

# kinds of the entries waiting in SupportTable._holds; AND and IVEE equal
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


@dataclass(frozen=True, slots=True)
class Program:
    """Flat form of a formula: one row per distinct subformula, children
    before parents, every row reached from root. lower_formula numbers
    the rows in the tree's postorder, a RowBuilder in the order they are
    built.

    payload holds the atom index for OP_ATOM rows and 0 elsewhere; left
    and right hold child row numbers (right is 0 for unary rows). The
    columns are array("q") only because perfbench/tracing.py calls
    .tolist() on them and bincounts ops; without that they could be tuples.
    """

    ops: array
    left: array
    right: array
    payload: array
    root: int

    @property
    def num_nodes(self) -> int:
        return len(self.ops)


def program_key(p: Program) -> tuple[int, bytes, bytes | tuple]:
    """Root, rows (one column length) and payload: its bytes, or its
    values when RowBuilder.program could not pack them. Lowered programs
    have equal keys exactly for equal formulas; a program built in
    another row order has another key."""
    rows = b"".join(a.tobytes() for a in (p.ops, p.left, p.right))
    return p.root, rows, p.payload.tobytes() if type(p.payload) is array else tuple(p.payload)


class RowBuilder:
    """A node builder that returns one program row per distinct node, so
    that equal subformulas built through it share a row (hash-consing:
    Filliatre & Conchon, "Type-safe modular hash-consing", ML Workshop
    2006). It takes the arguments of the node builders of syntax and
    switching, node(cls, a=None, b=None), with rows for children and the
    index for an atom, so a row is keyed on its class and its children's
    rows and building never hashes a subtree. Rows are numbered in the
    order they are first built, children before parents; program(root)
    packs the rows root reaches."""

    __slots__ = ("rows",)

    def __init__(self) -> None:
        # (cls, a, b) of each row -> its number, in the order built
        self.rows: dict[tuple, int] = {}

    def __call__(self, cls, a=0, b=0) -> int:
        rows = self.rows
        return rows.setdefault((cls, a, b), len(rows))

    def program(self, root: int) -> Program:
        """The rows that root reaches, in the order they were built. Rows
        that nothing reaches, such as an unused definition's, are dropped,
        so that every row of a program belongs to its formula.

        Raises ValueError on a negative atom index. The payload stays a
        tuple when an atom index is past array("q"), which no model has
        atoms for: validating a query refuses it.
        """
        ops, left, right, payload = zip(
            *[(OP_ATOM, 0, 0, a) if cls is Atom else (_OP_OF_TYPE[cls], a, b, 0) for cls, a, b in self.rows]
        )
        if min(payload) < 0:
            raise ValueError(f"atom index must be non-negative, got {min(payload)}")
        reached = bytearray(root + 1)
        reached[root] = 1
        for r in range(root, -1, -1):
            if reached[r] and ops[r] >= OP_AND:
                reached[left[r]] = 1
                if ops[r] < OP_BOX:
                    reached[right[r]] = 1
        if len(ops) > root + 1 or 0 in reached:
            kept = [r for r in range(root + 1) if reached[r]]
            renumber = {r: i for i, r in enumerate(kept)}
            ops = [ops[r] for r in kept]
            left = [renumber[left[r]] if ops[i] >= OP_AND else 0 for i, r in enumerate(kept)]
            right = [renumber[right[r]] if OP_AND <= ops[i] < OP_BOX else 0 for i, r in enumerate(kept)]
            payload = [payload[r] for r in kept]
            root = len(kept) - 1
        try:
            packed = array("q", payload)
        except OverflowError:
            packed = payload
        return Program(ops=array("q", ops), left=array("q", left), right=array("q", right), payload=packed, root=root)


def lower_formula(f: Formula) -> Program:
    """Intern a formula into a Program through a RowBuilder, sharing
    equal subtrees.

    A composite node object met again is looked up by identity, so a
    formula that shares objects costs its distinct objects, not its tree;
    leaves go to the builder each time. Rows come in the order of the
    tree's postorder either way. The walk descends left children in place
    and stacks right ones, with None marking a node whose children are
    done.
    """
    node = RowBuilder()
    done: list[int] = []  # the row of each finished child, innermost last
    lowered: dict[int, int] = {}  # id of a lowered composite object -> its row
    parents: list = []  # the composite objects waiting on their children
    stack: list = []
    g = f
    while True:
        kind = type(g)
        if kind is Atom:
            row = node(Atom, g.index)
        elif kind is Bottom:
            row = node(Bottom)
        else:
            row = lowered.get(id(g))
            if row is None:
                parents.append(g)
                stack.append(None)
                if kind is Box or kind is WBox:
                    g = g.body
                else:
                    stack.append(g.right)
                    g = g.left
                continue
        done.append(row)
        while stack:
            g = stack.pop()
            if g is not None:
                break
            g = parents.pop()
            kind = type(g)
            if kind is Box or kind is WBox:
                row = node(kind, done.pop())
            else:
                b = done.pop()
                row = node(kind, done.pop(), b)
            lowered[id(g)] = row
            done.append(row)
        else:
            return node.program(done[0])


# the node class of each op, indexed by op
_TYPE_OF_OP = (Bottom, Atom, And, IVee, Implies, Box, WBox)


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


def _maximal(masks) -> tuple[int, ...]:
    """The distinct masks that lie inside no other one."""
    kept: list[int] = []
    for v in sorted(set(masks), key=int.bit_count, reverse=True):
        if all(v & ~u for u in kept):
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
    """Truth masks of every program row, and support at any state read
    off them.

    truth[r] is the n-bit mask of the worlds w at which the singleton {w}
    supports row r; declarative[r] says that row r is truth-conditional
    (bot, atoms, box, wbox, & of declaratives, -> into a declarative), so
    that a state supports it iff all its worlds are in truth[r].
    families[r], filled on first use, holds a covering family of row r
    (every member supports r, every supporting state lies inside one), or
    None when r is outside the fragment that has one or its family has
    more than max_family members. refs[r] counts the references to row r from inquisitive
    rows, plus two for an implication; a query keeps r's answers iff >= 2.
    """

    __slots__ = ("ops", "left", "right", "truth", "declarative", "refs", "families", "max_family")

    def __init__(self, program: Program, n: int) -> None:
        self.ops = program.ops.tolist()
        self.left = program.left.tolist()
        self.right = program.right.tolist()
        self.truth: list[int] = []
        self.declarative: list[bool] = []
        self.refs = [0] * len(self.ops)
        self.families: dict[int, tuple[int, ...] | None] = {}
        # past this many members a row gets no family, which bounds the
        # pairwise meets in _family; a query then neither descends out of
        # the row nor takes its least failure, and closes instead. On the
        # seed-1 queries of the four benchmark workloads (600 verify-small,
        # 200 compiled-deep, 560 modal-sparse, 3,600 memo-reuse) no family
        # reaches it. With maximal families the largest had 10, 18, 2 and 4
        # members against caps of 15, 27, 30 and 18, and 1 modal-sparse
        # query closed a lattice; with covering families, which keep the
        # dominated members that ior brings in, the largest have 10, 18, 3
        # and 14, and no query closes one
        self.max_family = 3 * n // 2

    def holds(self, r: int, s: int) -> bool:
        """Whether state s supports row r."""
        return self._holds(r, s, {})

    def _holds(self, r: int, s: int, memos: dict[int, dict[int, int]]) -> bool:
        """holds, with memos[s] keeping the lattice rows over the substates
        of s that earlier questions at s built. The right side of a & or an
        ior waits on a stack until its left side leaves the answer open,
        and so does the consequent of an implication at each part s & A.
        The walk answers each implication and each shared row at a state at
        most once, so shared parts cost their distinct rows, not their paths."""
        truth, declarative, ops, left, right = self.truth, self.declarative, self.ops, self.left, self.right
        refs = self.refs
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
            elif declarative[r]:
                value = True
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
            elif (family := self._family(left[r])) is not None:
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
        substates of s that memo keeps. It is apart from _holds because a
        generator there would make cells of _holds's locals on every call."""
        worlds = [w for w in range(s.bit_length()) if s >> w & 1]
        consequent = self._lattice_row(self.right[r], worlds, memo)
        return self._lattice_row(self.left[r], worlds, memo) & ~consequent == 0

    def _family(self, r: int) -> tuple[int, ...] | None:
        """A covering family of row r as world masks: every member supports
        r and every state supporting r lies inside a member, so the states
        supporting r are the subsets of the members. A member may lie
        inside another; only the pairwise meets of & are cut down to their
        maximal ones. Rows built from declaratives with &, ior and -> out of
        a declarative have one; an implication out of an inquisitive row
        gets None, and so does every row above a None or past max_family
        members."""
        if self.declarative[r]:
            return (self.truth[r],)
        families = self.families
        if r in families:
            return families[r]
        truth, declarative, ops, left, right = self.truth, self.declarative, self.ops, self.left, self.right
        needed = set()
        stack = [r]
        while stack:
            x = stack.pop()
            if x in needed or x in families:
                continue
            needed.add(x)
            if declarative[x]:
                continue
            if ops[x] != OP_IMPLIES:
                stack += (left[x], right[x])
            elif declarative[left[x]]:
                stack.append(right[x])
        for x in sorted(needed):
            a, b = left[x], right[x]
            if declarative[x]:
                family = (truth[x],)
            elif ops[x] == OP_IMPLIES:
                if not declarative[a] or families[b] is None:
                    family = None
                else:
                    # the worlds outside the antecedent, which truth[x] holds
                    outside = truth[x] & ~truth[a]
                    family = tuple(outside | v for v in families[b])
            elif families[a] is None or families[b] is None:
                family = None
            elif ops[x] == OP_IVEE:
                family = families[a] + families[b]
            else:
                family = _maximal(u & v for u in families[a] for v in families[b])
            if family is not None and len(family) > self.max_family:
                family = None
            families[x] = family
        return families[r]

    def _least_failure(self, r: int, s: int) -> int | None:
        """The least substate of s that fails row r, read off r's covering
        family: the OR of the members' outs s & ~A that are single worlds,
        when every out of two or more worlds meets that OR. A substate of s
        fails r iff it meets every out; it must then hold each single-world
        out, and one that holds them all meets the rest, so the substates
        of s that fail r are exactly the supersets of the OR. 0 when s lies
        inside a member, so that s supports r; else None."""
        family = self._family(r)
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
        declarative, ops, left, right = self.declarative, self.ops, self.left, self.right
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
            if not declarative[x]:
                stack += (left[x], right[x])
        for x in sorted(needed):
            op = ops[x]
            if declarative[x]:
                row = _down_set(_local(self.truth[x], worlds), k)
            elif op == OP_AND:
                row = memo[left[x]] & memo[right[x]]
            elif op == OP_IVEE:
                row = memo[left[x]] | memo[right[x]]
            else:
                row = _closure(memo[left[x]], memo[right[x]], k)
            memo[x] = row
        return memo[r]


def support_table(program: Program, m: InformationModel) -> SupportTable:
    """Truth masks and refs of every program row, bottom-up. A box or wbox
    row asks whether its body holds at each world's anchor states, so the
    lattice rows built for one anchor serve every row that reaches it."""
    val_masks, union_masks, gen_masks = model_masks(m)
    table = SupportTable(program, m.n)
    left, right, truth, declarative, refs = table.left, table.right, table.truth, table.declarative, table.refs
    payload = program.payload.tolist()
    all_worlds = (1 << m.n) - 1
    # lattice rows per state, shared by every box and wbox row
    memos: dict[int, dict[int, int]] = {}

    for r, op in enumerate(table.ops):
        a, b = left[r], right[r]
        if op == OP_BOT:
            t, d = 0, True
        elif op == OP_ATOM:
            t, d = val_masks[payload[r]], True
        elif op == OP_AND:
            t, d = truth[a] & truth[b], declarative[a] and declarative[b]
        elif op == OP_IVEE:
            t, d = truth[a] | truth[b], False
        elif op == OP_IMPLIES:
            t, d = (all_worlds & ~truth[a]) | truth[b], declarative[b]
            refs[r] += 2
        elif op == OP_BOX:
            # the first two tests of _holds, made before a walk starts: an
            # anchor with a world outside the body's truth mask fails it, and
            # a declarative body holds at every other anchor
            ta, da = truth[a], declarative[a]
            t = sum(
                1 << w
                for w, u in enumerate(union_masks)
                if not u & ~ta and (da or table._holds(a, u, memos))
            )
            d = True
        else:
            ta, da = truth[a], declarative[a]
            t = sum(
                1 << w
                for w, gens in enumerate(gen_masks)
                if all(not g & ~ta and (da or table._holds(a, g, memos)) for g in gens)
            )
            d = True
        truth.append(t)
        declarative.append(d)
        if not d:
            # only an inquisitive row leads a query on to its children
            refs[a] += 1
            refs[b] += 1
    return table


def table_bytes(program: Program, m: InformationModel) -> int:
    """Rows times 2^n, one byte per state per row: the unit of the auto
    engine's byte cap. It is no longer what the table engine holds (n-bit
    truth masks plus lattice rows over the query state's substates); the
    cap is to be reworked together with the benchmark (ROADMAP item 2)."""
    return program.num_nodes << m.n
