"""Bit-parallel support-table kernel.

A formula is lowered to a flat postorder program whose rows are unique
subformulas (structurally equal subtrees share a row). The table kernel
then computes support of every row at every state of the powerset
lattice, bottom-up. Each row is a Python int used as a bitset over the
2^n states: bit s is set iff state s supports the row, so a conjunction
or inquisitive disjunction row is one `&` or `|` over the whole lattice.

The implication clause quantifies over subsets of the state; instead of
enumerating them per state, the kernel marks states where the antecedent
holds and the consequent fails, then closes that marking upward under
supersets with one masked shift per world bit, so an implication row
costs O(n * 2^n) bit operations instead of O(3^n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
    and right hold child row numbers (right is 0 for unary rows).
    """

    ops: np.ndarray
    left: np.ndarray
    right: np.ndarray
    payload: np.ndarray
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

    def visit(g: Formula) -> int:
        op = _OP_OF_TYPE[type(g)]
        if op == OP_BOT:
            key, a, b, p = (OP_BOT,), 0, 0, 0
        elif op == OP_ATOM:
            key, a, b, p = (OP_ATOM, g.index), 0, 0, g.index
        elif op in (OP_BOX, OP_WBOX):
            a = visit(g.body)
            key, b, p = (op, a), 0, 0
        else:
            a = visit(g.left)
            b = visit(g.right)
            key, p = (op, a, b), 0
        row = rows.get(key)
        if row is not None:
            return row
        row = len(ops)
        rows[key] = row
        ops.append(op)
        left.append(a)
        right.append(b)
        payload.append(p)
        return row

    root = visit(f)
    return Program(
        ops=np.asarray(ops, dtype=np.int64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        payload=np.asarray(payload, dtype=np.int64),
        root=root,
    )


def model_arrays(m: InformationModel) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pack the model data the kernel needs: atom masks, per-world state
    map unions, and the flattened generator lists."""
    val_masks = np.asarray([v.mask for v in m.valuation], dtype=np.int64)
    if m.sigma is None:
        box_masks = np.zeros(m.n, dtype=np.int64)
        gen_off = np.zeros(m.n + 1, dtype=np.int64)
        gen_masks = np.zeros(0, dtype=np.int64)
        return val_masks, box_masks, gen_off, gen_masks
    box_masks = np.zeros(m.n, dtype=np.int64)
    gen_off = np.zeros(m.n + 1, dtype=np.int64)
    flat: list[int] = []
    for i, gens in enumerate(m.sigma):
        union = 0
        for g in gens:
            union |= g.mask
            flat.append(g.mask)
        box_masks[i] = union
        gen_off[i + 1] = len(flat)
    return val_masks, box_masks, gen_off, np.asarray(flat, dtype=np.int64)


@lru_cache(maxsize=4)
def _low_masks(n: int) -> tuple[int, ...]:
    """LOW[i]: the bitset of the states (out of 2^n) that lack world i,
    i.e. runs of 2^i set bits alternating with 2^i clear bits."""
    size = 1 << n
    low = []
    for i in range(n):
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


def support_table(program: Program, m: InformationModel) -> list[int]:
    """Support of every program row at every state: one int bitset per
    row, where bit s of row r is set iff state s supports row r."""
    val_masks, box_masks, gen_off, gen_masks = (a.tolist() for a in model_arrays(m))
    ops = program.ops.tolist()
    left = program.left.tolist()
    right = program.right.tolist()
    payload = program.payload.tolist()
    n = m.n
    full = (1 << (1 << n)) - 1
    out: list[int] = []
    for r, op in enumerate(ops):
        if op == OP_BOT:
            row = 1
        elif op == OP_ATOM:
            row = _down_set(val_masks[payload[r]])
        elif op == OP_AND:
            row = out[left[r]] & out[right[r]]
        elif op == OP_IVEE:
            row = out[left[r]] | out[right[r]]
        elif op == OP_IMPLIES:
            # states where the antecedent holds and the consequent fails,
            # then every superset of one: sweep i moves each marked state
            # without world i to the state with it
            bad = out[left[r]] & ~out[right[r]]
            if bad:
                for i, low in enumerate(_low_masks(n)):
                    bad |= (bad & low) << (1 << i)
            row = full ^ bad
        else:
            body = out[left[r]]
            good = 0
            if op == OP_BOX:
                for w in range(n):
                    if body >> box_masks[w] & 1:
                        good |= 1 << w
            else:
                for w in range(n):
                    if all(body >> g & 1 for g in gen_masks[gen_off[w] : gen_off[w + 1]]):
                        good |= 1 << w
            row = _down_set(good)
        out.append(row)
    return out


def table_bytes(program: Program, m: InformationModel) -> int:
    """Size of a support table for this query at one byte per state per
    row, which is what the auto engine's byte cap is measured in. The
    packed rows take an eighth of that; the cap is to be reworked in
    terms of packed bytes (ROADMAP item 4)."""
    return program.num_nodes << m.n
