"""Spans and counters recorded around the public functions of inqcheck.

Nothing under src/ is changed: `traced` replaces a function in the
namespace of the module that calls it (for example `evaluate` inside
`inqcheck.cli`) with a wrapper that records a span, and puts the original
back on exit. A span is [name, start, end, parent]; a layer's self time is
the time its spans cover minus the part their child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

import inqcheck.checker
import inqcheck.cli
import inqcheck.reduction
from inqcheck.checker import DEFAULT_TABLE_BYTE_CAP
from inqcheck.kernels import OP_AND, OP_ATOM, OP_BOT, OP_BOX, OP_IMPLIES, OP_WBOX, table_bytes

# span name -> per-layer metric that reports its self time
LAYER_METRICS = {
    "cli": "cli.self_ms",
    "qbf.parse": "qbf.parse_ms",
    "qbf.eval": "qbf.eval_ms",
    "syntax.parse_formula": "syntax.parse_formula_ms",
    "syntax.render_formula": "syntax.render_formula_ms",
    "model.read_model": "model.read_model_ms",
    "model.write_model": "model.write_model_ms",
    "reduction.reduce": "reduction.reduce_ms",
    "switching.build": "switching.build_ms",
    "kernels.lower": "kernels.lower_ms",
    "kernels.table": "kernels.table_ms",
    "checker": "checker.self_ms",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, list[float]] = {}
        self._stack: list[int] = []
        self._query = (0, 0)
        self.tables_built = 0

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        self.spans[index][2] = end
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        entry = self.counts.setdefault(name, [0.0, 0])
        entry[0] += value
        entry[1] += 1

    def mean(self, name: str) -> float:
        total, events = self.counts.get(name, (0.0, 0))
        return total / events if events else 0.0

    def total(self, name: str) -> float:
        return self.counts.get(name, (0.0, 0))[0]

    # hooks, called by the wrappers -------------------------------------

    def _before_evaluate(self, args, kwargs):
        query = args[0]
        self.count("checker.queries", 1)
        # evaluate does not nest, so the latest query is the one that a
        # table built inside it serves
        self._query = (query.state.popcount(), query.model.n)
        return self.tables_built

    def _after_evaluate(self, tables_before, args, kwargs, outcome):
        hit = outcome.engine == "table" and self.tables_built == tables_before
        self.count("checker.table_hits", 1 if hit else 0)

    def _after_table(self, _, args, kwargs, table):
        program, model = args[0], args[1]
        self.tables_built += 1
        ops = np.bincount(program.ops, minlength=7)
        self.count("kernels.table_bytes", table_bytes(program, model))
        self.count("kernels.implies_rows", int(ops[OP_IMPLIES]))
        self.count("kernels.modal_rows", int(ops[OP_BOX] + ops[OP_WBOX]))
        self.count("kernels.declarative_rows", declarative_rows(program))
        size, n = self._query
        self.count("kernels.lattice_useful_share", 2.0 ** (size - n))


def declarative_rows(program) -> int:
    """Rows whose formula is truth-conditional by syntax: bot, atoms, box,
    wbox, conjunctions of declaratives, and implications into a
    declarative. Support of such a row at a state is support at each of
    its worlds, so it needs no lattice."""
    ops, right = program.ops.tolist(), program.right.tolist()
    left = program.left.tolist()
    decl = []
    for r, op in enumerate(ops):
        if op in (OP_BOT, OP_ATOM, OP_BOX, OP_WBOX):
            decl.append(True)
        elif op == OP_AND:
            decl.append(decl[left[r]] and decl[right[r]])
        elif op == OP_IMPLIES:
            decl.append(decl[right[r]])
        else:
            decl.append(False)
    return sum(decl)


def span_wrapper(tracer: Tracer, name: str, fn, before=None, after=None):
    def wrapper(*args, **kwargs):
        context = before(args, kwargs) if before else None
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after:
            after(context, args, kwargs, result)
        return result

    return wrapper


def _targets(tracer: Tracer):
    """(module, attribute, span name, before hook, after hook) for every
    call from one inqcheck module into another that a workload makes."""
    cli, checker, reduction = inqcheck.cli, inqcheck.checker, inqcheck.reduction

    def count_reduce(_, args, kwargs, instance):
        tracer.count("reduction.translated_size", instance.translated_size)

    def count_lower(_, args, kwargs, program):
        tracer.count("kernels.program_rows", program.num_nodes)

    evaluate = (tracer._before_evaluate, tracer._after_evaluate)
    return [
        (cli, "parse_qbf", "qbf.parse", None, None),
        (cli, "eval_qbf", "qbf.eval", None, None),
        (cli, "reduce_tqbf", "reduction.reduce", None, count_reduce),
        (reduction, "build_switching_model", "switching.build", None, None),
        (cli, "parse_formula", "syntax.parse_formula", None, None),
        (cli, "render_formula", "syntax.render_formula", None, None),
        (cli, "read_model_file", "model.read_model", None, None),
        (cli, "validate_model", "model.read_model", None, None),
        (cli, "write_model_file", "model.write_model", None, None),
        (cli, "evaluate", "checker", *evaluate),
        (cli, "check_support_memo", "checker", None, None),
        (checker, "evaluate", "checker", *evaluate),
        (checker, "lower_formula", "kernels.lower", None, count_lower),
        (checker, "support_table", "kernels.table", None, tracer._after_table),
    ]


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers; yield an api whose `main` and
    `check_support_memo` are traced at the benchmark's own call sites."""
    saved = []
    checker = inqcheck.checker
    try:
        for module, attr, name, before, after in _targets(tracer):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, span_wrapper(tracer, name, original, before, after))

        original_bytes = checker.table_bytes

        def decide(program, model):
            needed = original_bytes(program, model)
            # evaluate calls table_bytes only for engine="auto", and picks
            # sparse exactly when the table is over the cap
            tracer.count("checker.sparse_choices", 1 if needed > DEFAULT_TABLE_BYTE_CAP else 0)
            return needed

        saved.append((checker, "table_bytes", original_bytes))
        checker.table_bytes = decide
        yield Api(
            span_wrapper(tracer, "cli", inqcheck.cli.main),
            span_wrapper(tracer, "checker", checker.check_support_memo),
        )
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class Api:
    """The two entry points a workload calls: the CLI and the library."""

    def __init__(self, main, check_support_memo) -> None:
        self.main = main
        self.check_support_memo = check_support_memo


def plain_api() -> Api:
    return Api(inqcheck.cli.main, inqcheck.checker.check_support_memo)


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus the part of it that the
    union of its children's intervals covers."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, [])):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def layer_self_ms(spans: list[list]) -> dict[str, float]:
    """Total self time per layer metric, in milliseconds."""
    totals = {metric: 0.0 for metric in LAYER_METRICS.values()}
    for span, own in zip(spans, self_times(spans)):
        metric = LAYER_METRICS.get(span[0])
        if metric:
            totals[metric] += own * 1e3
    return totals
