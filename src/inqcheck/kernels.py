"""Lowered programs and the support-table kernel.

A formula is lowered to a flat postorder program whose rows are unique
subformulas (structurally equal subtrees share a row). The table kernel
gives every row an n-bit truth mask: the worlds w at which the singleton
{w} supports it. Support is downward persistent, so a state with a world
outside that mask never supports the row, and for a declarative row (one
whose support is truth at each world) the mask decides support outright.

A query at state s descends through conjunctions and inquisitive
disjunctions at s itself, and through an implication with a declarative
antecedent to the part of s where the antecedent is true. Only the other
implications need more: they quantify over the substates of s, so the
kernel builds their sides as bitsets over the 2^|s| sub-lattice of s,
with declarative rows as down-sets of their truth masks. An implication
over the sub-lattice marks the substates where the antecedent holds and
the consequent fails, then closes that marking upward under supersets
with one masked shift per world, so it costs O(k * 2^k) bit operations
for k = |s|, never touching the states of the model outside s.

States, truth masks and lattice rows are plain Python ints, which have no
width, so models of any size share one code path.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cache, reduce
from operator import or_

from .model import InformationModel
from .syntax import And, Atom, Bottom, Box, Formula, IVee, Implies, WBox, subformulas

# numba is no longer used; the constant stays for callers that import it.
HAS_NUMBA = False


OP_BOT = 0
OP_ATOM = 1
OP_AND = 2
OP_IVEE = 3
OP_IMPLIES = 4
OP_BOX = 5
OP_WBOX = 6

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
    """Flat postorder form of a formula; children precede parents.

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


def lower_formula(f: Formula) -> Program:
    """Intern a formula into a Program, sharing equal subtrees."""
    rows: dict[tuple, int] = {}
    ops: list[int] = []
    left: list[int] = []
    right: list[int] = []
    payload: list[int] = []
    done: list[int] = []  # the row of each finished child, innermost last
    for g in subformulas(f):
        op = _OP_OF_TYPE[type(g)]
        if op == OP_BOT:
            key, a, b, p = (OP_BOT,), 0, 0, 0
        elif op == OP_ATOM:
            key, a, b, p = (OP_ATOM, g.index), 0, 0, g.index
        elif op in (OP_BOX, OP_WBOX):
            a = done.pop()
            key, b, p = (op, a), 0, 0
        else:
            b = done.pop()
            a = done.pop()
            key, p = (op, a, b), 0
        row = rows.get(key)
        if row is None:
            row = len(ops)
            rows[key] = row
            ops.append(op)
            left.append(a)
            right.append(b)
            payload.append(p)
        done.append(row)
    return Program(
        ops=array("q", ops),
        left=array("q", left),
        right=array("q", right),
        payload=array("q", payload),
        root=done[0],
    )


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


def _down_set(v: int) -> int:
    """Bitset of the states that are subsets of world mask v."""
    x = 1
    i = 0
    while v:
        if v & 1:
            x |= x << (1 << i)
        v >>= 1
        i += 1
    return x


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
    """

    __slots__ = ("ops", "left", "right", "truth", "declarative")

    def __init__(self, program: Program) -> None:
        self.ops = program.ops.tolist()
        self.left = program.left.tolist()
        self.right = program.right.tolist()
        self.truth: list[int] = []
        self.declarative: list[bool] = []

    def holds(self, r: int, s: int) -> bool:
        """Whether state s supports row r."""
        return self._holds(r, s, {})

    def _holds(self, r: int, s: int, memos: dict[int, dict[int, int]]) -> bool:
        """holds, with memos[s] keeping the lattice rows over the substates
        of s that earlier questions at s built. The right side of a & or an
        ior waits on a stack until its left side leaves the answer open."""
        truth, declarative, ops, left, right = self.truth, self.declarative, self.ops, self.left, self.right
        waiting: list[tuple[bool, int, int]] = []  # (is ior, right row, state)
        while True:
            if s & ~truth[r]:
                # support is downward persistent, so s needs every {w} in s
                value = False
            elif declarative[r]:
                value = True
            elif ops[r] != OP_IMPLIES:
                waiting.append((ops[r] == OP_IVEE, right[r], s))
                r = left[r]
                continue
            elif declarative[left[r]]:
                # the substates that support the antecedent are those of t,
                # so by persistence the consequent need only hold at t
                s &= truth[left[r]]
                r = right[r]
                continue
            else:
                # an inquisitive implication: every substate of s that
                # supports the antecedent must support the consequent
                worlds = [w for w in range(s.bit_length()) if s >> w & 1]
                memo = memos.setdefault(s, {})
                value = self._lattice_row(left[r], worlds, memo) & ~self._lattice_row(right[r], worlds, memo) == 0
            # a true left side decides an ior, a false one a &
            while waiting:
                is_ivee, r, s = waiting.pop()
                if value != is_ivee:
                    break
            else:
                return value

    def _lattice_row(self, r: int, worlds: list[int], memo: dict[int, int]) -> int:
        """Row r over the 2^k substates of the state made of `worlds`:
        bit j is set iff the substate of the worlds[i] with bit i set in j
        supports row r."""
        declarative, ops, left, right = self.declarative, self.ops, self.left, self.right
        # the rows r needs that memo lacks; children precede parents in a
        # program, so building in ascending row order builds children first
        needed = set()
        stack = [r]
        while stack:
            x = stack.pop()
            if x not in needed and x not in memo:
                needed.add(x)
                if not declarative[x]:
                    stack += (left[x], right[x])
        for x in sorted(needed):
            if declarative[x]:
                t = self.truth[x]
                row = _down_set(sum(1 << i for i, w in enumerate(worlds) if t >> w & 1))
            else:
                a, b = memo[left[x]], memo[right[x]]
                op = ops[x]
                if op == OP_AND:
                    row = a & b
                elif op == OP_IVEE:
                    row = a | b
                else:
                    # substates where the antecedent holds and the consequent
                    # fails, then every superset of one: sweep i moves each
                    # marked substate without worlds[i] to the one with it
                    bad = a & ~b
                    if bad:
                        for i, low in enumerate(_low_masks(len(worlds))):
                            bad |= (bad & low) << (1 << i)
                    row = ((1 << (1 << len(worlds))) - 1) ^ bad
            memo[x] = row
        return memo[r]


def support_table(program: Program, m: InformationModel) -> SupportTable:
    """Truth masks of every program row, bottom-up. A box or wbox row
    asks whether its body holds at each world's anchor states, so the
    lattice rows built for one anchor serve every row that reaches it."""
    val_masks, union_masks, gen_masks = model_masks(m)
    table = SupportTable(program)
    left, right, truth, declarative = table.left, table.right, table.truth, table.declarative
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
        elif op == OP_BOX:
            t = sum(1 << w for w in range(m.n) if table._holds(a, union_masks[w], memos))
            d = True
        else:
            t = sum(
                1 << w
                for w in range(m.n)
                if all(table._holds(a, g, memos) for g in gen_masks[w])
            )
            d = True
        truth.append(t)
        declarative.append(d)
    return table


def table_bytes(program: Program, m: InformationModel) -> int:
    """Rows times 2^n, one byte per state per row: the unit of the auto
    engine's byte cap. It is no longer what the table engine holds (n-bit
    truth masks plus lattice rows over the query state's substates); the
    cap is to be reworked together with the benchmark (ROADMAP item 4)."""
    return program.num_nodes << m.n
