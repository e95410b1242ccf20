"""Command-line entry point.

Subcommands:

    check         decide support of a formula at a state of a model file
    reduce        compile a QBF file into model, state, and formula files
    qbf-eval      brute-force the truth value of a QBF file
    verify        compare the QBF oracle against the compiled support check
    stats         size report for the compilation of a QBF file
    random-model  emit a reproducible random model file

Reports go to standard output, diagnostics to standard error. Exit codes:
0 success (SUPPORTED / TRUE / all AGREE), 1 negative decision
(NOT-SUPPORTED / FALSE), 2 usage or input error, 3 oracle disagreement,
4 internal error (a crash, never to be read as a decision).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import stat
import sys
import traceback
from dataclasses import asdict
from functools import cache

# check_support_memo is no longer called here, but stays a name of this
# module: perfbench's tracer wraps it
from .checker import (
    CheckQuery,
    QueryError,
    check_support_memo,
    evaluate,
    render_result,
)
from .kernels import RowBuilder
from .model import (
    CodecError,
    InfoState,
    InformationModel,
    ValidationError,
    read_model_file,
    validate_model,
    write_model_file,
)
from .qbf import ClosureError, Qbf, eval_qbf, parse_qbf, random_qbf
from .reduction import reduce_tqbf, size_report
from .syntax import ParseError, parse_formula, render_formula


def _diag(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


class _InputError(Exception):
    """User input that cannot be read or decoded, as `<source>: <message>`."""


def _read_input(source: str, decode, text: str | None = None, **options):
    """Decode text, or the file named by source when no text is given.

    source names the input in the error: a path, or "state argument" /
    "formula argument" for command-line text. Only reading and decoding
    are guarded; an exception from later work remains an internal error.
    """
    try:
        if text is None:
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
        return decode(text, **options)
    except (OSError, ValueError, ParseError, ClosureError, CodecError, ValidationError) as e:
        raise _InputError(f"{source}: {e}") from e


def cmd_check(args: argparse.Namespace) -> int:
    # read_model_file validates the model it decodes
    model = _read_input(args.model, read_model_file)
    state = _read_input("state argument", InfoState.from_bits, args.state)
    formula_source = args.formula_file if args.formula is None else "formula argument"
    # the text is parsed straight into program rows, which evaluate
    # validates and decides without lowering
    node = RowBuilder()
    program = node.program(_read_input(formula_source, parse_formula, args.formula, node=node))
    try:
        outcome = evaluate(
            CheckQuery(model, state, program),
            engine="naive" if args.naive else "auto",
        )
    except QueryError as e:
        return _diag(f"query: {e}")
    if args.json:
        print(json.dumps({"result": render_result(outcome.value), "nodes_visited": outcome.nodes_visited}))
    else:
        print(render_result(outcome.value))
        print(f"nodes visited: {outcome.nodes_visited}")
    if args.verbose:
        print(f"engine: {outcome.engine}", file=sys.stderr)
    return 0 if outcome.value else 1


def _print_report(instance, args: argparse.Namespace) -> None:
    """The size report of reduce and stats, as text or one JSON line."""
    report = size_report(instance)
    if args.json:
        print(json.dumps(asdict(report)))
        return
    print(f"l: {report.l}")
    print(f"matrix size: {report.matrix_size}")
    print(f"translated size: {report.translated_size}")
    print(f"ratio: {report.ratio:.4f}")


def _overwrite(fd: int, data: bytes) -> None:
    """Write data over the file open at fd, as open(path, "wb") would
    leave it, without O_TRUNC.

    On ext4, truncating a file that holds data and then writing it makes
    close() start writeback (auto_da_alloc), about 0.1 ms per file; so
    the file is written over in place, then cut to the written length.
    Only a regular file longer than data is cut: a character device such
    as /dev/null refuses ftruncate. No fsync: nothing is promised to
    survive a crash.
    """
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]
    info = os.fstat(fd)
    if stat.S_ISREG(info.st_mode) and info.st_size > len(data):
        os.ftruncate(fd, len(data))


def cmd_reduce(args: argparse.Namespace) -> int:
    stem = args.out_stem
    # an empty stem, one that ends in a path separator, and one whose last
    # part is . or .. would name the hidden files .im, .state and .formula
    # of a directory, or ..im and the like
    if os.path.basename(stem) in ("", ".", ".."):
        return _diag(f"out_stem {stem!r}: must end in a file name")
    instance = reduce_tqbf(_read_input(args.qbf, parse_qbf, rename=args.rename))
    outputs = {
        f"{stem}.im": write_model_file(instance.model.model),
        f"{stem}.state": instance.state.bits() + "\n",
        f"{stem}.formula": render_formula(instance.program) + "\n",
    }
    # every output is opened before any byte is written, so that an output
    # that cannot be opened leaves the existing ones as they were
    fds: list[int] = []
    try:
        try:
            for path in outputs:
                fds.append(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666))
            for (path, text), fd in zip(outputs.items(), fds):
                _overwrite(fd, text.encode("utf-8"))
        finally:
            for fd in fds:
                os.close(fd)
    except OSError as e:
        return _diag(f"{path}: {e}")
    _print_report(instance, args)
    return 0


def cmd_qbf_eval(args: argparse.Namespace) -> int:
    value = eval_qbf(_read_input(args.qbf, parse_qbf, rename=args.rename))
    verdict = "TRUE" if value else "FALSE"
    print(json.dumps({"result": verdict}) if args.json else verdict)
    return 0 if value else 1


def _verify_case(theta: Qbf) -> tuple[bool, bool]:
    expected = eval_qbf(theta)
    instance = reduce_tqbf(theta)
    # "table" and not "auto": the byte cap sends instances of l >= 10 to
    # "sparse", which does not finish on them
    got = evaluate(CheckQuery(instance.model.model, instance.state, instance.program), engine="table").value
    return expected, got


def cmd_verify(args: argparse.Namespace) -> int:
    for flag, value, least in (
        ("--random", args.random, 0),
        ("--max-l", args.max_l, 1),
        ("--matrix-nodes", args.matrix_nodes, 1),
        ("--jobs", args.jobs, 1),
    ):
        if value < least:
            return _diag(f"{flag} must be at least {least}")
    cases = [(path, _read_input(path, parse_qbf, rename=args.rename)) for path in args.qbf]
    if args.random:
        rng = random.Random(args.seed)
        for index in range(args.random):
            l = rng.randint(1, args.max_l)
            case_seed = rng.randrange(1 << 30)
            cases.append(
                (f"case-{index:03d}", random_qbf(case_seed, l, args.matrix_nodes))
            )
    if not cases:
        return _diag("nothing to verify: give QBF paths or --random N")
    results = [_verify_case(theta) for _, theta in cases]
    bare = len(cases) == 1
    disagreements = 0
    last_line = ""
    for (name, _), (expected, got) in zip(cases, results):
        if expected == got:
            line = f"AGREE({'true' if expected else 'false'})"
        else:
            disagreements += 1
            line = "DISAGREE"
        last_line = line
        if not args.json:
            print(line if bare else f"{name}: {line}")
    if args.json:
        if bare:
            print(json.dumps({"result": last_line}))
        else:
            print(
                json.dumps(
                    {
                        "result": "DISAGREE" if disagreements else "AGREE",
                        "cases": len(cases),
                        "disagreements": disagreements,
                    }
                )
            )
    return 3 if disagreements else 0


def cmd_stats(args: argparse.Namespace) -> int:
    theta = _read_input(args.qbf, parse_qbf, rename=args.rename)
    _print_report(reduce_tqbf(theta), args)
    return 0


def _distinct_masks(rng: random.Random, n: int, k: int) -> list[int]:
    """k distinct masks over n worlds, in the order drawn."""
    if 1 << n <= sys.maxsize:
        return rng.sample(range(1 << n), k)
    # random.sample needs the length of its population as a C ssize_t
    masks: dict[int, None] = {}
    while len(masks) < k:
        masks[rng.getrandbits(n)] = None
    return list(masks)


def cmd_random_model(args: argparse.Namespace) -> int:
    n, l = args.worlds, args.atoms
    if n < 1:
        return _diag("--worlds must be at least 1")
    if l < 1:
        return _diag("--atoms must be at least 1")
    if args.max_generators < 1:
        return _diag("--max-generators must be at least 1")
    rng = random.Random(args.seed)
    valuation = tuple(InfoState(rng.randrange(1 << n), n) for _ in range(l))
    if args.kind == "inqb":
        model = InformationModel(n, l, valuation, None)
    else:
        cap = min(args.max_generators, 1 << n)
        sigma = tuple(
            tuple(InfoState(mask, n) for mask in _distinct_masks(rng, n, rng.randint(1, cap)))
            for _ in range(n)
        )
        model = InformationModel(n, l, valuation, sigma)
    validate_model(model)
    sys.stdout.write(write_model_file(model))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors, like every input error, are one `error: <message>`
    line on stderr and exit 2. The subcommand parsers are of this class."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process.

    It holds configuration only: parse_args returns a fresh Namespace per
    call and no default is mutable, so calls to main share it safely.
    """
    return _parsers()[0]


@cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(
        prog="inqcheck",
        description="Support checking for inquisitive formulas and QBF compilation onto switching models.",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0, help="diagnostics on stderr")
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="decide support of a formula at a state")
    check.add_argument("model", help="model file")
    check.add_argument("state", help="state bitstring, leftmost bit is world 0")
    group = check.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula", help="formula text")
    group.add_argument("--formula-file", help="file holding the formula")
    check.add_argument("--naive", action="store_true", help="force the baseline recursive evaluator")
    check.add_argument("--json", action="store_true", help="machine-readable report")
    check.set_defaults(run=cmd_check)

    reduce_cmd = commands.add_parser("reduce", help="compile a QBF into a support query")
    reduce_cmd.add_argument("qbf", help="QBF file")
    reduce_cmd.add_argument("out_stem", help="output path stem for .im/.state/.formula")
    reduce_cmd.add_argument("--rename", action="store_true", help="renumber arbitrary variable names by binding order")
    reduce_cmd.add_argument("--json", action="store_true", help="machine-readable report")
    reduce_cmd.set_defaults(run=cmd_reduce)

    qe = commands.add_parser("qbf-eval", help="brute-force a QBF truth value")
    qe.add_argument("qbf", help="QBF file")
    qe.add_argument("--rename", action="store_true", help="renumber arbitrary variable names by binding order")
    qe.add_argument("--json", action="store_true", help="machine-readable report")
    qe.set_defaults(run=cmd_qbf_eval)

    verify = commands.add_parser("verify", help="compare QBF truth against the compiled support check")
    verify.add_argument("qbf", nargs="*", help="QBF files")
    verify.add_argument("--random", type=int, default=0, metavar="N", help="also verify N random formulas")
    verify.add_argument("--seed", type=int, default=0, help="seed for --random")
    verify.add_argument("--max-l", type=int, default=4, help="largest variable count for --random")
    verify.add_argument("--matrix-nodes", type=int, default=10, help="matrix node budget for --random")
    verify.add_argument("--jobs", type=int, default=1, metavar="N", help="accepted and ignored: cases run one after another")
    verify.add_argument("--rename", action="store_true", help="renumber arbitrary variable names by binding order")
    verify.add_argument("--json", action="store_true", help="machine-readable report")
    verify.set_defaults(run=cmd_verify)

    stats = commands.add_parser("stats", help="size report for a QBF compilation")
    stats.add_argument("qbf", help="QBF file")
    stats.add_argument("--rename", action="store_true", help="renumber arbitrary variable names by binding order")
    stats.add_argument("--json", action="store_true", help="machine-readable report")
    stats.set_defaults(run=cmd_stats)

    rand = commands.add_parser("random-model", help="emit a reproducible random model file")
    rand.add_argument("--seed", type=int, default=0)
    rand.add_argument("--worlds", type=int, required=True, metavar="N")
    rand.add_argument("--atoms", type=int, required=True, metavar="L")
    rand.add_argument("--max-generators", type=int, default=2, metavar="K")
    rand.add_argument("--kind", choices=("inqm", "inqb"), default="inqm")
    rand.set_defaults(run=cmd_random_model)

    return parser, commands.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv) in one pass: a subcommand first is
    parsed by its parser alone, but for "--=...", which the full one refuses."""
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None or any(arg.startswith("--=") for arg in argv):
        return parser.parse_args(argv)
    return command.parse_args(argv[1:], argparse.Namespace(verbose=0, command=argv[0]))


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if e.code not in (0, None) else 0
    try:
        return args.run(args)
    except _InputError as e:
        return _diag(str(e))
    except Exception as e:
        # an escaped traceback would exit 1, which reads as a negative decision
        if args.verbose:
            traceback.print_exc()
        print(f"inqcheck: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
