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

Build order: translate_qbf makes its builder calls in the postorder of
the formula it returns. It builds every splitter D_k first, in
ascending k, then the matrix, then the wrappers from the inside out;
each S_k comes right after its wrapper's (D_k -> body), and the first
one built builds the escape pieces of every pair, in its own postorder.
So a RowBuilder numbers the rows as RowBuilder.program would, and
reduce_tqbf takes them as built, with no numbering walk.

Size accounting: translated_size is the weighted size of the formula's
tree, every shared part counted at each of its places, though the file
holds the DAG. It is read off the program on first use, so verify,
which never prints it, never computes it. The tree is the matrix
translation M', a wrapper D_k -> body per quantifier and, for each
branching one, one more implication into S_k, so its size is exactly

    |M'| + sum over k of (1 + |D_k|) + sum over branching k of (1 + |S_k|).

|S_k| depends on l alone (97, 219 and 493 at l = 4, 8 and 16), so the
escape formulas, at most one per quantifier, dominate at l*l log(l);
|D_k| depends on k and l through the binary lengths of the atom
indices. The reported ratio divides the compiled size by
l*l*log2(l+2) + matrix size; it is a measurement, read against no bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import log2

from .kernels import Program, RowBuilder, formula_of, tree_size
from .model import InfoState
from .qbf import FORALL, PAnd, POr, PropFormula, Qbf, _check_prefix, _postorder, _postorder_size
from .switching import SwitchingModel, atom_p, atom_q, build_switching_model, formula_D, formula_S
from .syntax import And, Formula, IVee, Implies, fresh, neg

__all__ = [
    "ReductionInstance",
    "SizeReport",
    "reduce_tqbf",
    "size_report",
    "translate_prop",
    "translate_qbf",
]

@dataclass(frozen=True)
class ReductionInstance:
    """A compiled query: model, full state, the formula's program, and
    size metadata."""

    model: SwitchingModel
    state: InfoState
    program: Program
    l: int
    matrix_size: int

    @cached_property
    def translated_size(self) -> int:
        """The weighted size of the compiled formula's tree, read off the
        program on first use."""
        return tree_size(self.program)

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
    return _translate_prop(_postorder(z, l), polarity == "p", l, node)


def _translate_prop(nodes: list, positive: bool, l: int, node):
    """translate_prop of the matrix of a _postorder list."""
    parts: list[Formula] = []
    literals: dict[int, Formula] = {}
    for x in nodes:
        if x is PAnd or x is POr:
            right = parts.pop()
            parts[-1] = node(And if positive == (x is PAnd) else IVee, parts[-1], right)
        elif x in literals:
            parts.append(literals[x])
        else:
            # x_i is i and its negation ~i; q_i is built before the body
            i = x if x >= 0 else ~x
            q = atom_q(i, l, node)
            body = atom_p(i, node) if positive == (x >= 0) else neg(atom_p(i, node), node)
            parts.append(literals.setdefault(x, node(Implies, q, body)))
    return parts[0]


def translate_qbf(theta: Qbf, polarity: str, l: int, node=fresh):
    """Compile a quantifier suffix; theta must bind x_k..x_{l-1} in order
    for the k its prefix starts at (an empty prefix means k = l).

    polarity "P" tracks truth, "N" falsity, of the suffix at matching
    switchings. The result is built with node, in its postorder (the
    module docstring), and node builds the escape pieces once; with a
    RowBuilder it is the row of the formula, the last row built, and
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
    nodes = theta._nodes if l == theta.l else _postorder(theta.matrix, l)
    # the splitters lead the postorder, outermost first
    splitters = [formula_D(k, l, node) for _, k in theta.prefix]
    f = _translate_prop(nodes, polarities[-1] == "P", l, node)
    pieces: list = []
    for (quant, k), d, tracked in zip(reversed(theta.prefix), reversed(splitters), reversed(polarities[:-1])):
        if (quant == FORALL) == (tracked == "P"):
            f = node(Implies, d, f)
        else:
            f = node(Implies, node(Implies, d, f), formula_S(k, l, node, pieces))
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
    # translate_qbf builds in postorder, so the rows are numbered as built
    program = node.program_as_built(translate_qbf(theta, "P", l, node))
    return ReductionInstance(
        model=build_switching_model(l),
        state=InfoState.full(2 * l),
        program=program,
        l=l,
        matrix_size=_postorder_size(theta._nodes),
    )


def size_report(instance: ReductionInstance) -> SizeReport:
    """Compare the compiled size against its expected growth order: the
    ratio divides the compiled size by l*l*log2(l+2) + matrix size."""
    denominator = instance.l * instance.l * log2(instance.l + 2) + instance.matrix_size
    return SizeReport(
        l=instance.l,
        matrix_size=instance.matrix_size,
        translated_size=instance.translated_size,
        ratio=instance.translated_size / denominator,
    )
