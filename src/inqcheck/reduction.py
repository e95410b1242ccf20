"""Compiling closed QBFs into support-checking instances.

The target model is the degree-l switching model; the target state is
the full state, the one 0-switching. The compiled formula is built with
polarity tracking so that, at any k-switching s encoding a
valuation of the first k variables, the positive translation is
supported iff the remaining formula is true and the negative translation
is supported iff it is false.

Matrix literals read a variable off a switching: x_i becomes q_i -> p_i
positively and q_i -> not p_i negatively; conjunction and disjunction
swap roles under the negative polarity, with inquisitive disjunction on
the side that must detect a choice.

A quantifier at position k combines the pair-k splitter D_k with the
escape formula S_k. The branching quantifier of each polarity (exists
positively, forall negatively) wraps its body as (D_k -> body) -> S_k:
among subsets of a k-switching, only the k-switching itself fails S_k,
so the wrapper negates "both child branches" into "some child branch".
The S subscript equals the quantifier position; the two maximal
D_k-substates of a k-switching are exactly the two (k+1)-switchings
extending it, which drives the induction.

Each translation builds its formula with the node builder it is given.
reduce_tqbf gives it a kernels.RowBuilder, so that the instance is a
program holding each literal, splitter and escape piece once as a row,
and the formula files that `reduce` writes hold that DAG, with `let`
definitions for its shared parts. The default builder makes fresh
objects, shared only where the translation reuses a piece it built.

Size accounting: translated_size is the weighted size of the formula's
tree, every shared part counted at each of its places, though the file
holds the DAG. The tree grows by one splitter and at most one escape
formula per quantifier, and the escape formulas dominate at l*l log(l)
weighted size. The reported ratio divides the compiled size
by l*l*log2(l+2) + matrix size; the default bound on that ratio is a
regression constant measured on an alternating-prefix sweep at first
build, not a theoretical value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import log2

from .kernels import OP_ATOM, OP_BOT, OP_BOX, Program, RowBuilder, formula_of
from .model import InfoState
from .qbf import FORALL, PAnd, POr, PropFormula, Qbf, _check_prefix, _postorder, prop_size
from .switching import (
    SwitchingModel,
    atom_p,
    atom_q,
    build_switching_model,
    escape_pieces,
    formula_D,
    formula_S,
)
from .syntax import And, Formula, IVee, Implies, fresh, neg

__all__ = [
    "DEFAULT_SIZE_RATIO_BOUND",
    "ReductionInstance",
    "SizeReport",
    "reduce_tqbf",
    "size_report",
    "translate_prop",
    "translate_qbf",
]

# Measured on the fixed-matrix alternating sweep l=2..12 at first build
# (the maximum sits at l=6 and equals 930/122); the acceptance suite
# regresses against this exact value.
DEFAULT_SIZE_RATIO_BOUND = 930 / 122


@dataclass(frozen=True)
class ReductionInstance:
    """A compiled query: model, full state, the formula's program, and
    size metadata."""

    model: SwitchingModel
    state: InfoState
    program: Program
    l: int
    matrix_size: int
    translated_size: int

    @cached_property
    def formula(self) -> Formula:
        """The compiled formula, one object per program row, built once
        on first use."""
        return formula_of(self.program)


@dataclass(frozen=True, slots=True)
class SizeReport:
    l: int
    matrix_size: int
    translated_size: int
    ratio: float
    bound: float

    @property
    def within_bound(self) -> bool:
        return self.ratio <= self.bound


def translate_prop(z: PropFormula, polarity: str, l: int, node=fresh):
    """Compile an NNF matrix for reading off a switching state.

    polarity "p" produces a formula supported where the matrix is true,
    "n" one supported where it is false. Output uses the pair atoms with
    conjunction, inquisitive disjunction, and implication only, built
    with node: each literal once, and with a RowBuilder each distinct
    subformula once, as the row returned.

    Raises:
        ClosureError: a matrix variable past x_{l-1}.
    """
    if polarity not in ("p", "n"):
        raise ValueError(f"polarity must be 'p' or 'n', got {polarity!r}")
    return _translate_prop(z, polarity == "p", l, node)


def _translate_prop(z: PropFormula, positive: bool, l: int, node):
    parts: list[Formula] = []
    literals: dict[int, Formula] = {}
    for x in _postorder(z, l):
        if x is PAnd or x is POr:
            right = parts.pop()
            parts[-1] = node(And if positive == (x is PAnd) else IVee, parts[-1], right)
        elif x in literals:
            parts.append(literals[x])
        else:
            # x_i is i and its negation ~i
            i = x if x >= 0 else ~x
            body = atom_p(i, node) if positive == (x >= 0) else neg(atom_p(i, node), node)
            parts.append(literals.setdefault(x, node(Implies, atom_q(i, l, node), body)))
    return parts[0]


def translate_qbf(theta: Qbf, polarity: str, l: int, node=fresh):
    """Compile a quantifier suffix; theta must bind x_k..x_{l-1} in order
    for the k its prefix starts at (an empty prefix means k = l).

    polarity "P" tracks truth, "N" falsity, of the suffix at matching
    switchings. The result is built with node, which builds the escape
    pieces once; with a RowBuilder it is the row of the formula, and
    each distinct subformula is one row.

    Raises:
        ValueError: a bad polarity, a prefix quantifier other than forall
            or exists, or a prefix not binding x_k..x_{l-1} in order.
        ClosureError: a matrix variable past x_{l-1}.
    """
    if polarity not in ("P", "N"):
        raise ValueError(f"polarity must be 'P' or 'N', got {polarity!r}")
    _check_prefix(theta.prefix, l - theta.l)
    # the body of a universal tracks truth and that of an existential
    # falsity, whatever the polarity of the quantifier itself
    polarities = [polarity] + ["P" if quant == FORALL else "N" for quant, _ in theta.prefix]
    f = _translate_prop(theta.matrix, polarities[-1] == "P", l, node)
    pieces = None
    for (quant, k), tracked in zip(reversed(theta.prefix), reversed(polarities[:-1])):
        if (quant == FORALL) == (tracked == "P"):
            f = node(Implies, formula_D(k, l, node), f)
        else:
            pieces = pieces or escape_pieces(l, node)
            f = node(Implies, node(Implies, formula_D(k, l, node), f), formula_S(k, l, node, pieces))
    return f


def reduce_tqbf(theta: Qbf) -> ReductionInstance:
    """Compile a closed formula into an equivalent support query: the
    formula is true iff the full state of the degree-l switching model
    supports the positive translation. Raises as translate_qbf does, and
    ValueError on an empty prefix."""
    l = theta.l
    if l == 0:
        raise ValueError("formula must bind at least one variable")
    node = RowBuilder()
    program = node.program(translate_qbf(theta, "P", l, node))
    switching = build_switching_model(l)
    return ReductionInstance(
        model=switching,
        state=InfoState.full(2 * l),
        program=program,
        l=l,
        matrix_size=prop_size(theta.matrix),
        translated_size=_tree_size(program),
    )


def _tree_size(p: Program) -> int:
    """formula_size of the program's formula, read off its rows: each
    row is measured once and counts at each place it holds in the tree."""
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


def size_report(instance: ReductionInstance, bound: float = DEFAULT_SIZE_RATIO_BOUND) -> SizeReport:
    """Compare the compiled size against its expected growth order.

    The ratio divides the compiled size by l*l*log2(l+2) + matrix size;
    staying under the bound is the regression check for the compiler not
    having lost its size behavior.
    """
    denominator = instance.l * instance.l * log2(instance.l + 2) + instance.matrix_size
    return SizeReport(
        l=instance.l,
        matrix_size=instance.matrix_size,
        translated_size=instance.translated_size,
        ratio=instance.translated_size / denominator,
        bound=bound,
    )
