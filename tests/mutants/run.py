"""Committed mutants: each is a one-place fault that named tests must catch.

A mutant names a file under src/, an exact old text that must occur
there once, the new text, and the tests (files, classes or test ids)
that must fail on it. The script copies src/ and tests/ to a temporary
directory, runs each mutant's tests once on the unchanged copy (they
must pass), then applies each mutant in turn and runs its tests with the
copy's src/ first on the import path. It exits 1 when a mutant
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


VALIDATION = ("tests/test_checker.py",)
KERNEL = ("tests/test_kernels.py", "tests/test_laws.py", "tests/test_checker.py")

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
    # the table's implication rules
    Mutant(
        "answered-keyed-on-the-row-alone",
        "src/inqcheck/kernels.py",
        "            elif (r, s) in answered:\n                value = answered[r, s]\n",
        "            elif (hit := next((v for (x, _), v in answered.items() if x == r), None)) is not None:\n"
        "                value = hit\n",
        KERNEL,
    ),
    Mutant(
        "closure-over-proper-substates",
        "src/inqcheck/kernels.py",
        "    bad = a & ~b\n    if bad:\n",
        "    bad = a & ~b\n    if bad:\n"
        "        bad = reduce(or_, ((bad & low) << (1 << i) for i, low in enumerate(_low_masks(k))), 0)\n",
        KERNEL,
    ),
    Mutant(
        "ior-families-met",
        "src/inqcheck/kernels.py",
        "                    family = fa + fb\n",
        "                    family = _maximal([u & v for u in fa for v in fb])\n",
        KERNEL,
    ),
    Mutant(
        "implication-product-drops-a-factor",
        "src/inqcheck/kernels.py",
        "for v in fb]) for u in fa])",
        "for v in fb]) for u in fa[1:] or fa])",
        KERNEL,
    ),
    Mutant(
        "implication-factor-without-outside",
        "src/inqcheck/kernels.py",
        "tuple([all_worlds & ~u | v for v in fb])",
        "tuple([v for v in fb])",
        KERNEL,
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
        KERNEL,
    ),
    Mutant(
        "least-failure-ors-wide-outs",
        "src/inqcheck/kernels.py",
        "            if out & (out - 1):\n                wide.append(out)\n            elif out:\n",
        "            if out:\n",
        KERNEL,
    ),
    Mutant(
        "and-truth-as-or",
        "src/inqcheck/kernels.py",
        "t = truth[a] & truth[b]",
        "t = truth[a] | truth[b]",
        KERNEL,
    ),
    # box reads a world's generator union, wbox each of its generators
    Mutant(
        "box-reads-wbox-anchors",
        "src/inqcheck/kernels.py",
        "enumerate(box_anchors if op == OP_BOX else gen_masks)",
        "enumerate(gen_masks)",
        KERNEL,
    ),
    Mutant(
        "modal-reads-first-anchor",
        "src/inqcheck/kernels.py",
        "                for u in anchors:\n",
        "                for u in anchors[:1]:\n",
        KERNEL,
    ),
    # one row order: every program numbered in its root's postorder
    Mutant(
        "lowered-key-drops-payload",
        "src/inqcheck/kernels.py",
        "rows.setdefault((op, a, b, x), len(rows))",
        "rows.setdefault((op, a, b, 0), len(rows))",
        ("tests/test_kernels.py::TestLowering",),
    ),
    Mutant(
        "program-numbered-right-first",
        "src/inqcheck/kernels.py",
        "child = a if number[a] < 0 else b if op < OP_BOX and number[b] < 0 else -1",
        "child = b if op < OP_BOX and number[b] < 0 else a if number[a] < 0 else -1",
        ("tests/test_kernels.py::TestLowering", "tests/test_syntax.py::TestDefinitions"),
    ),
    Mutant(
        "program-keeps-build-order",
        "src/inqcheck/kernels.py",
        '            raise ValueError(f"atom index must be non-negative, got {low}")\n',
        '            raise ValueError(f"atom index must be non-negative, got {low}")\n'
        "        reached = {root}\n"
        "        for r in range(root, -1, -1):\n"
        "            if r in reached and built[r][0] not in (Atom, Bottom):\n"
        "                reached.update(built[r][1:] if built[r][0] not in (Box, WBox) else built[r][1:2])\n"
        "        if len(reached) == len(built):\n"
        "            ops, left, right, payload = zip(\n"
        "                *[(OP_ATOM, 0, 0, a) if cls is Atom else (_OP_OF_TYPE[cls], a, b, 0) for cls, a, b in built]\n"
        "            )\n"
        "            try:\n"
        '                payload = array("q", payload)\n'
        "            except OverflowError:\n"
        "                pass\n"
        '            return Program(array("q", ops), array("q", left), array("q", right), payload)\n',
        ("tests/test_syntax.py::TestRowParse", "tests/test_syntax.py::TestProgramRender"),
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
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        probe = subprocess.run(
            [sys.executable, "-c", "import inqcheck; print(inqcheck.__file__)"],
            env=dict(os.environ, PYTHONPATH=str(copy / "src")),
            capture_output=True,
            text=True,
        )
        if not probe.stdout.startswith(str(copy)):
            print(f"the copy's package is not the one imported: {probe.stdout.strip() or probe.stderr}", file=sys.stderr)
            return 1
        for tests in dict.fromkeys(m.tests for m in MUTANTS):
            code, seconds = run_tests(copy, tests)
            print(f"unchanged copy: {' '.join(tests)}: exit {code} ({seconds:.1f} s)")
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
