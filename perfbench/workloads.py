"""Seeded inputs, cases and reference verdicts for the four workloads.

Every workload builds a fixed pool of items from its seed and writes the
files the program reads. A run takes the items in pool order, wrapping
around; pools are large, so that a run averages over many random items.
A case returns its verdict as a string such as "0:SUPPORTED", the exit
code and the first word of the answer, so that one comparison checks
both. The reference verdicts come from the brute-force QBF oracle
(`eval_qbf`) or from the naive support evaluator, never from the engine
being measured.

Item parameters are stratified rather than drawn freely (every `l`, world
count and formula size appears equally often), so that the cost of a
pool, and with it every timing, varies little from one seed to the next.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from inqcheck import (
    DEFAULT_TABLE_BYTE_CAP,
    And,
    Atom,
    Bottom,
    Box,
    CheckQuery,
    Implies,
    InfoState,
    InformationModel,
    IVee,
    MemoCache,
    WBox,
    eval_qbf,
    evaluate,
    parse_formula,
    random_qbf,
    read_model_file,
    reduce_tqbf,
    render_formula,
    render_qbf,
    write_model_file,
)
from inqcheck.kernels import lower_formula, table_bytes

# No decided case takes more than about 0.2 s; the l = 10 frontier case
# runs for hours at the seed and is cut here.
DEADLINE_S = 2.0


class ExitCodeError(Exception):
    """The CLI exited with a code that is not an answer: 2 (usage or input
    error) or 3 (the QBF oracle and the compiled check disagree)."""


def call_cli(main, argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process and return its exit code and stdout."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    if code not in (0, 1):
        raise ExitCodeError(f"exit code {code}")
    return code, out.getvalue()


def _first_word(text: str) -> str:
    words = text.split()
    return words[0] if words else ""


def _support_verdict(value: bool) -> str:
    return "0:SUPPORTED" if value else "1:NOT-SUPPORTED"


def _stratified(rng: random.Random, count: int, low: int, high: int) -> list[int]:
    """count values spread evenly over [low, high], in random order."""
    values = [low + (high - low) * k // max(1, count - 1) for k in range(count)]
    rng.shuffle(values)
    return values


def run_compiled(main, qbf_path: str, stem: str) -> str:
    """`inqcheck reduce Q STEM`, then `inqcheck check` on what it wrote."""
    call_cli(main, ["reduce", qbf_path, stem])
    state = Path(f"{stem}.state").read_text(encoding="utf-8").strip()
    code, out = call_cli(
        main, ["check", f"{stem}.im", state, "--formula-file", f"{stem}.formula"]
    )
    return f"{code}:{_first_word(out)}"


def _compiled_query(theta) -> CheckQuery:
    instance = reduce_tqbf(theta)
    return CheckQuery(instance.model.model, instance.state, instance.formula)


def random_modal_model(rng: random.Random, n: int, atoms: int) -> InformationModel:
    """Each atom holds at a world with probability 0.7; each world gets one
    to three generators of one to three worlds."""
    valuation = tuple(
        InfoState(sum(1 << w for w in range(n) if rng.random() < 0.7), n)
        for _ in range(atoms)
    )
    sigma = []
    for _ in range(n):
        masks = {
            sum(1 << w for w in rng.sample(range(n), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3))
        }
        sigma.append(tuple(InfoState(mask, n) for mask in sorted(masks)))
    return InformationModel(n, atoms, valuation, tuple(sigma))


def _random_state(rng: random.Random, n: int, low: int, high: int) -> InfoState:
    return InfoState(sum(1 << w for w in rng.sample(range(n), rng.randint(low, high))), n)


def _leaf(rng: random.Random, atoms: int):
    return Bottom() if rng.random() < 0.1 else Atom(rng.randrange(atoms))


# 15 connectives over 12 leaves: 27 nodes per modal-sparse formula. A fixed
# mix keeps the number of implication rows, which dominate the table cost,
# the same for every formula.
_MODAL_MIX = [Implies] * 4 + [And] * 4 + [IVee] * 3 + [Box] * 2 + [WBox] * 2


def mixed_formula(rng: random.Random, atoms: int):
    """A random tree with exactly the connectives of _MODAL_MIX."""
    ops = list(_MODAL_MIX)
    rng.shuffle(ops)
    binary = sum(1 for op in ops if op not in (Box, WBox))
    pool = [_leaf(rng, atoms) for _ in range(binary + 1)]
    for op in ops:
        if op in (Box, WBox):
            pool.append(op(pool.pop(rng.randrange(len(pool)))))
        else:
            left = pool.pop(rng.randrange(len(pool)))
            right = pool.pop(rng.randrange(len(pool)))
            pool.append(op(left, right))
    return pool[0]


def sized_formula(rng: random.Random, size: int, atoms: int, implications: int = 1):
    """A random formula of `size` nodes in which no path from the root
    passes more than `implications` implications.

    The bound keeps the naive reference affordable: it enumerates the
    substates of a state once per nested implication. A binary node gives
    each side at least a quarter of its nodes: the cost of a repeat query
    grows with the depth of the formula's nodes, and free splits would
    make it vary by half between formulas of one size.
    """
    if size <= 1:
        return _leaf(rng, atoms)
    if size == 2 or rng.random() < 0.15:
        return (Box if rng.random() < 0.5 else WBox)(
            sized_formula(rng, size - 1, atoms, implications)
        )
    op = rng.choice((And, IVee, Implies) if implications else (And, IVee))
    inner = implications - 1 if op is Implies else implications
    quarter = (size - 1) // 4
    left = rng.randint(max(1, quarter), size - 2 - quarter)
    return op(
        sized_formula(rng, left, atoms, inner),
        sized_formula(rng, size - 1 - left, atoms, inner),
    )


class Workload:
    """A pool of items built from a seed, and the way to run one of them.

    files maps a path relative to the input directory to its text; items
    is the pool, in the order a run takes it.
    """

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(f"{self.name}/{seed}")
        self.files: dict[str, str] = {}
        self.items: list = []
        self.root = Path(".")

    def load(self, root: Path) -> None:
        """Take the written files as input; called once, in set-up."""
        self.root = root
        self.parse(lambda name: (root / name).read_text(encoding="utf-8"))

    def parse(self, read) -> None:
        """Parse the inputs that the library, not the CLI, reads;
        read(name) gives the text of a file."""

    def path(self, relative: str) -> str:
        return str(self.root / relative)

    def begin_pass(self) -> None:
        """Reset per-pass state; called whenever a run starts the pool over."""

    def run(self, api, index: int) -> str:
        raise NotImplementedError

    def expected(self, index: int) -> str:
        raise NotImplementedError

    def engine_slice(self) -> list[tuple[CheckQuery, str]]:
        """A few queries of the workload, each with the reference verdict,
        on which the table, sparse and naive engines must all agree."""
        raise NotImplementedError

    # Engines that the slice runs; compiled-deep leaves out naive.
    slice_engines = ("table", "sparse", "naive")
    # A CLI case stands for one `inqcheck` process, whose freed memory goes
    # back to the system when it exits; library traffic shares one process.
    one_process_per_case = True


class VerifySmall(Workload):
    """`inqcheck verify FILE --json` on random QBFs with l = 1..5."""

    name = "verify-small"
    POOL = 600

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        sizes = _stratified(self.rng, self.POOL, 40, 160)
        for i in range(self.POOL):
            theta = random_qbf(self.rng.randrange(1 << 30), 1 + i % 5, sizes[i])
            self.items.append(theta)
            self.files[f"v{i:03d}.qbf"] = render_qbf(theta) + "\n"

    def qbf_paths(self) -> list[str]:
        return [self.path(f"v{i:03d}.qbf") for i in range(self.POOL)]

    def run(self, api, index: int) -> str:
        code, out = call_cli(api.main, ["verify", self.path(f"v{index:03d}.qbf"), "--json"])
        return f"{code}:{json.loads(out)['result']}"

    def expected(self, index: int) -> str:
        return f"0:AGREE({'true' if eval_qbf(self.items[index]) else 'false'})"

    def engine_slice(self):
        small = [theta for theta in self.items if theta.l <= 3][:6]
        return [(_compiled_query(theta), str(eval_qbf(theta))) for theta in small]


class CompiledDeep(Workload):
    """`inqcheck reduce`, then `inqcheck check`, on random QBFs with
    l = 6..9."""

    name = "compiled-deep"
    # l = 8 comes twice in each round, so that the median case falls inside
    # one size class instead of in the gap between l = 7 and l = 8
    ROUND = (6, 7, 8, 8, 9)
    ROUNDS = 40
    # a run takes about one pass over the pool, so its median and 90th
    # percentile are those of the pool's 80 l = 8 and 40 l = 9 items; a
    # narrow range of matrix sizes keeps them close from seed to seed
    SIZES = (90, 130)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        sizes = [_stratified(self.rng, self.ROUNDS, *self.SIZES) for _ in self.ROUND]
        for k in range(self.ROUNDS):
            for slot, l in enumerate(self.ROUND):
                theta = random_qbf(self.rng.randrange(1 << 30), l, sizes[slot][k])
                self.files[f"c{len(self.items):03d}.qbf"] = render_qbf(theta) + "\n"
                self.items.append(theta)

    def run(self, api, index: int) -> str:
        return run_compiled(api.main, self.path(f"c{index:03d}.qbf"), self.path(f"c{index:03d}"))

    def expected(self, index: int) -> str:
        return _support_verdict(eval_qbf(self.items[index]))

    # naive enumerates the substates of the full 12-world state once per
    # nested implication, which does not finish at l = 6
    slice_engines = ("table", "sparse")

    def engine_slice(self):
        # one item: sparse takes up to a few seconds at l = 6
        theta = next(t for t in self.items if t.l == self.ROUND[0])
        return [(_compiled_query(theta), str(eval_qbf(theta)))]


class Frontier(Workload):
    """The one l = 10 case of the traced runs: `inqcheck reduce`, then
    `inqcheck check`, on a QBF whose table is over the cap, so that auto
    falls to sparse. It runs in a worker process under the deadline, is
    not decided at the seed, and is no case of any workload."""

    name = "frontier"
    L = 10

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # nearly every draw at l = 10 is over the cap
        while True:
            self.theta = random_qbf(self.rng.randrange(1 << 30), self.L, 160)
            instance = reduce_tqbf(self.theta)
            if table_bytes(lower_formula(instance.formula), instance.model.model) > DEFAULT_TABLE_BYTE_CAP:
                break
        self.files["frontier.qbf"] = render_qbf(self.theta) + "\n"

    def expected(self) -> str:
        return _support_verdict(eval_qbf(self.theta))


class ModalSparse(Workload):
    """`inqcheck check` on modal models of 14..20 worlds at states of 3..7
    worlds, so that the answer needs only a small part of the lattice."""

    name = "modal-sparse"
    WORLDS = range(14, 21)
    PER_N = 80

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.formulas: list[str] = []
        for _ in range(self.PER_N):
            for n in self.WORLDS:
                i = len(self.items)
                model = random_modal_model(self.rng, n, 4)
                formula = mixed_formula(self.rng, 4)
                state = _random_state(self.rng, n, 3, 7)
                self.items.append(CheckQuery(model, state, formula))
                self.formulas.append(render_formula(formula))
                self.files[f"m{i:03d}.im"] = write_model_file(model)

    def run(self, api, index: int) -> str:
        bits = self.items[index].state.bits()
        code, out = call_cli(
            api.main, ["check", self.path(f"m{index:03d}.im"), bits, "--formula", self.formulas[index]]
        )
        return f"{code}:{_first_word(out)}"

    def expected(self, index: int) -> str:
        return _support_verdict(evaluate(self.items[index], engine="naive").value)

    def engine_slice(self):
        return [(q, str(evaluate(q, engine="naive").value)) for q in self.items[:8]]


class MemoReuse(Workload):
    """Library traffic: one `check_support_memo` call per case, all states
    of a (model, formula) pair sharing one MemoCache, made afresh each
    time the run starts the pool over."""

    name = "memo-reuse"
    one_process_per_case = False
    # many pairs, so that the median case, which sits in the pairs whose
    # formulas are of median cost, varies little from one seed to the next
    MODELS = 4
    FORMULAS_PER_MODEL = 6
    STATES = 150
    WORLDS = 12
    # naive enumerates the 2^|s| substates of s at each implication; up to
    # 7 of the 12 worlds keeps the reference check to seconds
    MAX_STATE = 7

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        pairs = self.MODELS * self.FORMULAS_PER_MODEL
        # half the formulas have the median size, so that the median case
        # falls among many pairs instead of on whichever pair is middling
        quarter = pairs // 4
        sizes = (_stratified(self.rng, quarter, 100, 180) + [200] * (pairs - 2 * quarter)
                 + _stratified(self.rng, quarter, 220, 300))
        self.rng.shuffle(sizes)
        self.pairs = []
        for p in range(pairs):
            m = p // self.FORMULAS_PER_MODEL
            if p % self.FORMULAS_PER_MODEL == 0:
                model = random_modal_model(self.rng, self.WORLDS, 4)
                self.files[f"r{m}.im"] = write_model_file(model)
            formula = sized_formula(self.rng, sizes[p], 4)
            states = [_random_state(self.rng, self.WORLDS, 1, self.MAX_STATE) for _ in range(self.STATES)]
            self.files[f"r{p}.formula"] = render_formula(formula) + "\n"
            self.files[f"r{p}.states"] = "".join(s.bits() + "\n" for s in states)
            self.pairs.append((model, formula, states))
        self.items = [(p, s) for p in range(pairs) for s in range(self.STATES)]
        self.loaded: list = []
        self.caches: list[MemoCache] = []

    def parse(self, read) -> None:
        self.loaded = []
        for p in range(len(self.pairs)):
            model = read_model_file(read(f"r{p // self.FORMULAS_PER_MODEL}.im"))
            formula = parse_formula(read(f"r{p}.formula"))
            lines = read(f"r{p}.states").split()
            self.loaded.append((model, formula, [InfoState.from_bits(b) for b in lines]))

    def begin_pass(self) -> None:
        self.caches = [MemoCache() for _ in self.pairs]

    def run(self, api, index: int) -> str:
        p, s = self.items[index]
        model, formula, states = self.loaded[p]
        return str(api.check_support_memo(CheckQuery(model, states[s], formula), self.caches[p]))

    def _query(self, index: int) -> CheckQuery:
        p, s = self.items[index]
        model, formula, states = self.pairs[p]
        return CheckQuery(model, states[s], formula)

    def expected(self, index: int) -> str:
        return str(evaluate(self._query(index), engine="naive").value)

    def engine_slice(self):
        queries = [self._query(p * self.STATES + s) for p in range(len(self.pairs)) for s in range(4)]
        return [(q, str(evaluate(q, engine="naive").value)) for q in queries]


WORKLOADS = {w.name: w for w in (VerifySmall, CompiledDeep, ModalSparse, MemoReuse)}
