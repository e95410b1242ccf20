"""Switching models, their valuation bijection, and gadget formulas.

A switching model of degree l has 2l worlds in plus/minus pairs, ordered
pair-major: the plus world of pair i sits at index 2i, the minus world at
2i+1. Atoms come in two blocks: p_i (atom index i) holds exactly at the
plus world of pair i, q_i (atom index l+i) holds at both worlds of pair
i. There is no state map; these are plain models.

A state is a k-switching when it keeps exactly one world of every pair
below k and both worlds of every pair at or above k. The k-switchings
are in bijection with Boolean valuations over x_0..x_{k-1}: taking the
plus world of pair i means x_i is true.

Gadget formulas over this model:

    formula_C(k, sign, l)  pins the singleton of one pair world: its
        nonempty supporting states are exactly the subsets of that
        singleton.
    formula_D(k, l)  holds at a state iff the state does not contain
        pair k whole; its maximal supporting substates of s drop one
        world of pair k each.
    formula_S(k, l)  holds at a state iff some pair below k is missing
        entirely or some pair at or above k is missing a world. Hence a
        k-switching itself fails it while every proper subset of a
        k-switching supports it.

Each gadget builds its nodes with the node builder it is given: afresh
by default, or as rows of a kernels.RowBuilder, so that a compiled
program holds each piece once however often it uses it. Every gadget
makes its builder calls in its formula's postorder, children before
parents and left before right, which is the order in which a compiled
program numbers its rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .model import InfoState, InformationModel
from .syntax import And, Atom, Formula, IVee, Implies, fresh, neg, question


@dataclass(frozen=True, slots=True)
class SwitchingModel:
    l: int
    model: InformationModel


@dataclass(frozen=True, slots=True)
class BoolValuation:
    """Total assignment over x_0..x_{k-1}; values[i] is the bit of x_i."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(v not in (0, 1) for v in self.values):
            raise ValueError("valuation bits must be 0 or 1")

    @property
    def k(self) -> int:
        return len(self.values)

    def value(self, i: int) -> int:
        return self.values[i]


def world_plus(i: int) -> int:
    """World index of the plus world of pair i."""
    return 2 * i


def world_minus(i: int) -> int:
    """World index of the minus world of pair i."""
    return 2 * i + 1


@cache
def build_switching_model(l: int) -> SwitchingModel:
    """The degree-l switching model; l must be at least 1. The model is
    frozen, so each degree is built once and then shared."""
    if l < 1:
        raise ValueError(f"switching model needs l >= 1, got {l}")
    n = 2 * l
    valuation = tuple(InfoState(1 << world_plus(i), n) for i in range(l)) + tuple(
        InfoState(1 << world_plus(i) | 1 << world_minus(i), n) for i in range(l)
    )
    return SwitchingModel(l, InformationModel(n, 2 * l, valuation, None))


def atom_p(i: int, node=fresh) -> Formula:
    """The pair-selector atom of pair i."""
    return node(Atom, i)


def atom_q(i: int, l: int, node=fresh) -> Formula:
    """The pair-membership atom of pair i, stored in the second block."""
    return node(Atom, l + i)


def is_k_switching(s: InfoState, k: int, l: int) -> bool:
    """True iff s keeps exactly one world of each pair below k and both
    worlds of each pair at or above k."""
    if s.width != 2 * l or not 0 <= k <= l:
        return False
    for i in range(l):
        plus = s.contains(world_plus(i))
        minus = s.contains(world_minus(i))
        if i < k:
            if plus == minus:
                return False
        elif not (plus and minus):
            return False
    return True


def switching_from_valuation(v: BoolValuation, l: int) -> InfoState:
    """The k-switching encoding v: pair i below k keeps its plus world iff
    x_i is true; pairs from k on stay whole."""
    if v.k > l:
        raise ValueError(f"valuation over {v.k} variables does not fit degree {l}")
    mask = 0
    for i in range(l):
        if i < v.k:
            mask |= 1 << (world_plus(i) if v.value(i) else world_minus(i))
        else:
            mask |= 1 << world_plus(i)
            mask |= 1 << world_minus(i)
    return InfoState(mask, 2 * l)


def valuation_from_switching(s: InfoState, k: int, l: int) -> BoolValuation:
    """Inverse of switching_from_valuation on k-switchings."""
    if not is_k_switching(s, k, l):
        raise ValueError(f"state {s.bits()} is not a {k}-switching of degree {l}")
    return BoolValuation(tuple(1 if s.contains(world_plus(i)) else 0 for i in range(k)))


def formula_C(k: int, sign: str, l: int, node=fresh) -> Formula:
    """Conjunction pinning one world of pair k: q_k & p_k for "+",
    q_k & not p_k for "-"."""
    if sign == "+":
        return node(And, atom_q(k, l, node), atom_p(k, node))
    if sign == "-":
        return node(And, atom_q(k, l, node), neg(atom_p(k, node), node))
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def formula_D(k: int, l: int, node=fresh) -> Formula:
    """The pair-k splitter q_k -> ?p_k: supported exactly by states not
    containing pair k whole."""
    return node(Implies, atom_q(k, l, node), question(atom_p(k, node), node))


def formula_S(k: int, l: int, node=fresh, pieces: list | None = None) -> Formula:
    """Big inquisitive disjunction, left-nested in ascending pair order:
    pairs below k contribute (not C+ & not C-), pairs from k on
    contribute (not C+ ior not C-). pieces, a list shared by the formulas
    S of one degree and builder, holds each pair's (not C+, not C-); the
    first formula S to reach a pair builds its pieces and appends them,
    in its postorder, so the pieces are built once and inside the first
    escape formula built."""
    if not 0 <= k <= l or l < 1:
        raise ValueError(f"need 0 <= k <= l and l >= 1, got k={k}, l={l}")
    if pieces is None:
        pieces = []
    result = None
    for i in range(l):
        if i == len(pieces):
            pieces.append((neg(formula_C(i, "+", l, node), node), neg(formula_C(i, "-", l, node), node)))
        nplus, nminus = pieces[i]
        disjunct = node(And if i < k else IVee, nplus, nminus)
        result = disjunct if result is None else node(IVee, result, disjunct)
    return result
