"""Committed mutants: each is a one-place fault that named tests must catch.

A mutant names a file under src/, an exact old text that must occur
there once, the new text, and the tests (files, classes or test ids)
that must fail on it. The script copies src/, tests/, perfbench/ and
README.md (tests/test_api.py reads the last two) to a temporary directory, runs
every test that any mutant names in one pytest call on the unchanged copy
(each must pass), then applies each mutant in turn and runs its tests
with the copy's src/ first on the import path. It exits 1 when a mutant
survives, when its old text is missing or occurs more than once (a
refactor moved it: re-anchor the mutant), or when its tests do not fail
cleanly (a pytest exit code other than 1, such as a collection error,
kills nothing). Tier-1's pytest run does not collect this file.

usage: python tests/mutants/run.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


# the narrowest tests that kill each group: every test a mutant names runs
# on the unchanged copy and on the mutant, within CI's timeout
VALIDATION = ("tests/test_checker.py::TestQueryValidation",)
TABLE = ("tests/test_kernels.py::TestTables::test_full_table_matches_naive",)
SPARSE = ("tests/test_checker.py::TestEngines",)
COMPILED = ("tests/test_syntax.py::TestProgramRender::test_compiled_programs",)
RELATIVE = ("tests/test_kernels.py::TestRelativeFamilies::test_relative_rule_matches_naive",)
HAND_BUILT = (
    "tests/test_checker.py::TestQueryValidation::test_hand_built_programs_are_refused",
    "tests/test_checker.py::TestQueryValidation::test_hand_built_program_builds_iff_it_is_lowered_afresh",
)

MUTANTS = [
    # the one rule set that refuses a query, whichever form it takes
    Mutant(
        "atom-rule-dropped",
        "src/inqcheck/checker.py",
        "    if top >= m.l:\n",
        "    if False:\n",
        VALIDATION,
    ),
    Mutant(
        "modality-rule-dropped",
        "src/inqcheck/checker.py",
        "    if modal and m.sigma is None:\n",
        "    if False:\n",
        VALIDATION,
    ),
    Mutant(
        "program-facts-miss-wbox",
        "src/inqcheck/checker.py",
        "OP_BOX in ops or OP_WBOX in ops",
        "OP_BOX in ops",
        VALIDATION,
    ),
    # only an atom row's left is an atom index; the others are row numbers
    Mutant(
        "program-facts-read-every-left",
        "src/inqcheck/checker.py",
        "max(compress(f.left, map(OP_ATOM.__eq__, ops)), default=-1)",
        "max(f.left)",
        ("tests/test_checker.py::TestQueryValidation::test_program_facts_match_its_formula",),
    ),
    # the table's implication rules
    Mutant(
        "answered-keyed-on-the-row-alone",
        "src/inqcheck/kernels.py",
        "            elif (r, s) in answered:\n                value = answered[r, s]\n",
        "            elif (hit := next((v for (x, _), v in answered.items() if x == r), None)) is not None:\n"
        "                value = hit\n",
        (
            "tests/test_kernels.py::TestAlternatives::test_compiled_instances_build_no_lattice",
            "tests/test_laws.py::TestLaws::test_duplicating_a_world_changes_no_answer",
        ),
    ),
    # families relative to the query state
    Mutant(
        "relative-factor-without-outside",
        "src/inqcheck/kernels.py",
        "got = _meet(got, [s & ~u | v for v in fb])",
        "got = _meet(got, [v for v in fb])",
        RELATIVE,
    ),
    Mutant(
        "relative-members-not-cut",
        "src/inqcheck/kernels.py",
        "got = _maximal([s & v for v in family])",
        "got = _maximal(family)",
        RELATIVE,
    ),
    Mutant(
        "ior-families-met",
        "src/inqcheck/kernels.py",
        "                    family = fa + fb\n",
        "                    family = _maximal([u & v for u in fa for v in fb])\n",
        TABLE,
    ),
    Mutant(
        "implication-product-drops-a-factor",
        "src/inqcheck/kernels.py",
        "for v in fb]) for u in fa])",
        "for v in fb]) for u in fa[1:] or fa])",
        TABLE,
    ),
    Mutant(
        "implication-factor-without-outside",
        "src/inqcheck/kernels.py",
        "tuple([all_worlds & ~u | v for v in fb])",
        "tuple([v for v in fb])",
        TABLE,
    ),
    Mutant(
        "family-row-skips-containment",
        "src/inqcheck/kernels.py",
        "                value = False\n"
        "                for v in family:\n"
        "                    if not s & ~v:\n"
        "                        value = True\n"
        "                        break\n",
        "                value = True\n",
        TABLE,
    ),
    Mutant(
        "least-failure-ors-wide-outs",
        "src/inqcheck/kernels.py",
        "            if out & (out - 1):\n                wide.append(out)\n            elif out:\n",
        "            if out:\n",
        (
            "tests/test_kernels.py::TestAlternatives::test_least_failure_fires_where_maximal_members_leave_one_world",
            "tests/test_kernels.py::TestAlternatives::test_least_failure_matches_naive",
        ),
    ),
    Mutant(
        "and-truth-as-or",
        "src/inqcheck/kernels.py",
        "t = truth[a] & truth[b]",
        "t = truth[a] | truth[b]",
        TABLE,
    ),
    # box reads a world's generator union, wbox each of its generators
    Mutant(
        "box-reads-wbox-anchors",
        "src/inqcheck/kernels.py",
        "enumerate(box_anchors if op == OP_BOX else gen_masks)",
        "enumerate(gen_masks)",
        (
            "tests/test_laws.py::TestLaws::test_box_and_wbox_differ_on_two_generators",
            "tests/test_kernels.py::TestTables::test_wide_model_small_states_match_naive",
        ),
    ),
    Mutant(
        "modal-reads-first-anchor",
        "src/inqcheck/kernels.py",
        "                for u in anchors:\n",
        "                for u in anchors[:1]:\n",
        TABLE,
    ),
    # a MemoCache entry is keyed on the whole program
    Mutant(
        "memo-key-drops-left",
        "src/inqcheck/checker.py",
        "        key = (model, program)\n",
        "        key = (model, program.ops, program.right)\n",
        ("tests/test_checker.py::TestMemoCache::test_atoms_keep_their_own_entries",),
    ),
    # sparse is naive's clauses with a (row, state) memo
    Mutant(
        "sparse-memo-drops-state",
        "src/inqcheck/checker.py",
        "            key = (r, s)\n",
        "            key = r\n",
        SPARSE,
    ),
    Mutant(
        "sparse-memo-not-stored",
        "src/inqcheck/checker.py",
        "        if memo is not None:\n            memo[key] = value\n",
        "",
        SPARSE,
    ),
    # one row order: every program numbered in its root's postorder
    Mutant(
        "lowered-key-drops-atom-index",
        "src/inqcheck/kernels.py",
        "rows.setdefault((op, a, b), len(rows))",
        "rows.setdefault((op, a if op >= OP_AND else 0, b), len(rows))",
        ("tests/test_kernels.py::TestLowering",),
    ),
    # naive reads the lowered program, so the set oracle, which never
    # lowers, checks lowering too
    Mutant(
        "lower-drops-atom-index",
        "src/inqcheck/kernels.py",
        "rows.setdefault((op, a, b), len(rows))",
        "rows.setdefault((op, a if op >= OP_AND else 0, b), len(rows))",
        ("tests/test_checker.py::TestSemanticLaws::test_against_set_oracle",),
    ),
    Mutant(
        "program-numbered-right-first",
        "src/inqcheck/kernels.py",
        "child = a if number[a] < 0 else b if op < OP_BOX and number[b] < 0 else -1",
        "child = b if op < OP_BOX and number[b] < 0 else a if number[a] < 0 else -1",
        ("tests/test_syntax.py::TestDefinitions::test_row_builder_shares_equal_nodes",),
    ),
    Mutant(
        "program-keeps-build-order",
        "src/inqcheck/kernels.py",
        "        number = [-1] * len(built)  # a built row's number, once finished\n",
        "        reached = {root}\n"
        "        for r in range(root, -1, -1):\n"
        "            if r in reached and built[r][0] not in (Atom, Bottom):\n"
        "                reached.update(built[r][1:] if built[r][0] not in (Box, WBox) else built[r][1:2])\n"
        "        if len(reached) == len(built):\n"
        "            rows = [(_OP_OF_TYPE[cls], a, b) for cls, a, b in built]\n"
        "            return [*range(len(built))], *map(list, zip(*rows))\n"
        "        number = [-1] * len(built)  # a built row's number, once finished\n",
        ("tests/test_syntax.py::TestRowParse", "tests/test_syntax.py::TestProgramRender"),
    ),
    # a hand-built program is checked by a replay through a RowBuilder
    Mutant(
        "hand-built-program-skips-postorder",
        "src/inqcheck/kernels.py",
        "            raise ValueError(f\"row {r} is out of the root's postorder, which numbers it {k}\")\n",
        "",
        HAND_BUILT,
    ),
    Mutant(
        "hand-built-program-skips-reach",
        "src/inqcheck/kernels.py",
        "            if k < 0:\n",
        "            if False:\n",
        HAND_BUILT,
    ),
    # the compiler builds in its root's postorder, and reduce_tqbf takes
    # the rows in the order built
    Mutant(
        "splitters-built-in-wrapper-loop",
        "src/inqcheck/reduction.py",
        "    splitters = [formula_D(k, l, node) for _, k in theta.prefix]\n"
        "    f = _translate_prop(nodes, polarities[-1] == \"P\", l, node)\n"
        "    pieces: list = []\n"
        "    for (quant, k), d, tracked in zip(reversed(theta.prefix), reversed(splitters), reversed(polarities[:-1])):\n",
        "    f = _translate_prop(nodes, polarities[-1] == \"P\", l, node)\n"
        "    pieces: list = []\n"
        "    for (quant, k), tracked in zip(reversed(theta.prefix), reversed(polarities[:-1])):\n"
        "        d = formula_D(k, l, node)\n",
        COMPILED,
    ),
    Mutant(
        "escape-pieces-built-up-front",
        "src/inqcheck/switching.py",
        "    if pieces is None:\n        pieces = []\n",
        "    if pieces is None:\n        pieces = []\n"
        "    if not pieces:\n"
        "        pieces += [(neg(formula_C(i, \"+\", l, node), node), neg(formula_C(i, \"-\", l, node), node)) for i in range(l)]\n",
        COMPILED,
    ),
    # the compiled tree is exactly the sum of its parts: a wrapper that
    # keeps support but grows the tree shows in the sizes alone
    Mutant(
        "non-branching-wrapper-doubled",
        "src/inqcheck/reduction.py",
        "            f = node(Implies, d, f)\n",
        "            f = node(Implies, d, node(Implies, d, f))\n",
        (
            "tests/test_reduction.py::TestSizes::test_translated_size_is_the_sum_of_its_parts",
            "tests/test_acceptance.py::test_size_ratio_regression",
        ),
    ),
    # check's front end: each generator block read by one reversed slice,
    # and a subcommand first parsed by its own parser alone
    Mutant(
        "epsilon-block-read-one-bit-left",
        "src/inqcheck/model.py",
        "int(eps[off + n : off : -1], 2)",
        "int(eps[off + n - 1 : off - 1 : -1], 2)",
        ("tests/test_model.py::TestCodec::test_decode_inverts_padded_demo_model",),
    ),
    Mutant(
        "dispatched-namespace-verbose",
        "src/inqcheck/cli.py",
        "argparse.Namespace(verbose=0, command=argv[0])",
        "argparse.Namespace(verbose=1, command=argv[0])",
        ("tests/test_cli.py::TestParserReuse::test_calls_do_not_leak_state",),
    ),
    # reduce writes its outputs in place, then cuts each to its length
    Mutant(
        "reduce-keeps-stale-tail",
        "src/inqcheck/cli.py",
        "        os.ftruncate(fd, len(data))\n",
        "        pass\n",
        ("tests/test_cli.py::TestReduce::test_overwrite_leaves_no_stale_tail",),
    ),
    # one lexer for both grammars splits plain text at blanks, and
    # parse_qbf writes the matrix's postorder list as it reads it
    Mutant(
        "plain-qbf-text-takes-comments",
        "src/inqcheck/qbf.py",
        'r"[\\w \\t\\r\\n()&|~:]*"',
        'r"[\\w \\t\\r\\n()&|~:#]*"',
        (
            "tests/test_qbf.py::TestLexer::test_plain_text_lexes_as_the_regex_does",
            "tests/test_qbf.py::TestParse::test_comments",
        ),
    ),
    Mutant(
        "negated-conjunction-not-swapped",
        "src/inqcheck/qbf.py",
        "append(POr if negate else PAnd)",
        "append(PAnd)",
        (
            "tests/test_qbf.py::TestParsedPostorder::test_parsed_list_is_the_matrix_postorder",
            "tests/test_qbf.py::TestParse::test_negation_normalized_at_parse",
        ),
    ),
    # perfbench's environment line imports active_kernel from inqcheck
    Mutant(
        "kernels-all-drops-active-kernel",
        "src/inqcheck/kernels.py",
        '    "active_kernel",\n',
        "",
        ("tests/test_api.py::test_all_covers_what_callers_import",),
    ),
]


def run_tests(copy: Path, tests: tuple[str, ...]) -> tuple[int, float]:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--rootdir", str(copy), *tests],
        cwd=copy,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=300,
    )
    return done.returncode, time.perf_counter() - start


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="inqcheck-mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "README.md", copy)
        probe = subprocess.run(
            [sys.executable, "-c", "import inqcheck; print(inqcheck.__file__)"],
            env=dict(os.environ, PYTHONPATH=str(copy / "src")),
            capture_output=True,
            text=True,
        )
        if not probe.stdout.startswith(str(copy)):
            print(f"the copy's package is not the one imported: {probe.stdout.strip() or probe.stderr}", file=sys.stderr)
            return 1
        named = tuple(dict.fromkeys(test for m in MUTANTS for test in m.tests))
        code, seconds = run_tests(copy, named)
        print(f"unchanged copy: {len(named)} named tests: exit {code} ({seconds:.1f} s)")
        if code != 0:
            return 1
        for m in MUTANTS:
            target = copy / m.path
            original = target.read_text(encoding="utf-8")
            found = original.count(m.old)
            if found != 1:
                print(f"{m.name}: old text occurs {found} times in {m.path}, not once")
                failures += 1
                continue
            target.write_text(original.replace(m.old, m.new), encoding="utf-8")
            try:
                code, seconds = run_tests(copy, m.tests)
            finally:
                target.write_text(original, encoding="utf-8")
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"broken (pytest exit {code})")
            print(f"{m.name}: {verdict} ({seconds:.1f} s)")
            failures += code != 1
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
