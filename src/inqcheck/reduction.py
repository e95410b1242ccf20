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

Size accounting: the compiled formula grows by one splitter and at most
one escape formula per quantifier, and the escape formulas dominate at
l*l log(l) weighted size. The reported ratio divides the compiled size
by l*l*log2(l+2) + matrix size; the default bound on that ratio is a
regression constant measured on an alternating-prefix sweep at first
build, not a theoretical value.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

from .model import InfoState
from .qbf import FORALL, PAnd, POr, PropFormula, Qbf, _check_prefix, _postorder, prop_size
from .switching import (
    SwitchingModel,
    atom_p,
    atom_q,
    build_switching_model,
    formula_D,
    formula_S,
)
from .syntax import And, Formula, IVee, Implies, formula_size, neg

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


@dataclass(frozen=True, slots=True)
class ReductionInstance:
    """A compiled query: model, full state, formula, and size metadata."""

    model: SwitchingModel
    state: InfoState
    formula: Formula
    l: int
    matrix_size: int
    translated_size: int


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


def translate_prop(z: PropFormula, polarity: str, l: int) -> Formula:
    """Compile an NNF matrix for reading off a switching state.

    polarity "p" produces a formula supported where the matrix is true,
    "n" one supported where it is false. Output uses the pair atoms with
    conjunction, inquisitive disjunction, and implication only.

    Raises:
        ClosureError: a matrix variable past x_{l-1}.
    """
    if polarity not in ("p", "n"):
        raise ValueError(f"polarity must be 'p' or 'n', got {polarity!r}")
    positive = polarity == "p"
    parts: list[Formula] = []
    for node in _postorder(z, l):
        if node is PAnd or node is POr:
            right = parts.pop()
            parts[-1] = (And if positive == (node is PAnd) else IVee)(parts[-1], right)
        else:
            # x_i is i and its negation ~i
            i = node if node >= 0 else ~node
            body = atom_p(i) if positive == (node >= 0) else neg(atom_p(i))
            parts.append(Implies(atom_q(i, l), body))
    return parts[0]


def translate_qbf(theta: Qbf, polarity: str, l: int) -> Formula:
    """Compile a quantifier suffix; theta must bind x_k..x_{l-1} in order
    for the k its prefix starts at (an empty prefix means k = l).

    polarity "P" tracks truth, "N" falsity, of the suffix at matching
    switchings.

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
    f = translate_prop(theta.matrix, polarities[-1].lower(), l)
    for (quant, k), tracked in zip(reversed(theta.prefix), reversed(polarities[:-1])):
        if (quant == FORALL) == (tracked == "P"):
            f = Implies(formula_D(k, l), f)
        else:
            f = Implies(Implies(formula_D(k, l), f), formula_S(k, l))
    return f


def reduce_tqbf(theta: Qbf) -> ReductionInstance:
    """Compile a closed formula into an equivalent support query: the
    formula is true iff the full state of the degree-l switching model
    supports the positive translation. Raises as translate_qbf does, and
    ValueError on an empty prefix."""
    l = theta.l
    if l == 0:
        raise ValueError("formula must bind at least one variable")
    translated = translate_qbf(theta, "P", l)
    switching = build_switching_model(l)
    return ReductionInstance(
        model=switching,
        state=InfoState.full(2 * l),
        formula=translated,
        l=l,
        matrix_size=prop_size(theta.matrix),
        translated_size=formula_size(translated),
    )


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
