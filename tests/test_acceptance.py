"""Acceptance sweep: one test per numbered criterion.

Each test asserts zero violations over its stated sample sizes and stays
inside its runtime budget. The terminal summary hook in conftest prints one
verdict line per criterion.
"""

from __future__ import annotations

import random
import time
from itertools import product

import pytest

from inqcheck import cli
from inqcheck.checker import (
    CheckQuery,
    MemoCache,
    check_support,
    check_support_memo,
    evaluate,
)
from inqcheck.model import (
    InfoState,
    InformationModel,
    decode_model,
    downward_closure,
    encode_model,
)
from inqcheck.qbf import (
    EXISTS,
    FORALL,
    NegVar,
    PAnd,
    POr,
    Qbf,
    Var,
    eval_qbf,
    eval_qbf_table,
    prop_vars,
    random_qbf,
)
from inqcheck.reduction import (
    reduce_tqbf,
    size_report,
    translate_prop,
)
from inqcheck.switching import (
    BoolValuation,
    build_switching_model,
    formula_D,
    formula_S,
    is_k_switching,
    switching_from_valuation,
    world_minus,
    world_plus,
)
from inqcheck.syntax import Box, WBox

from conftest import (
    random_formula,
    random_model,
    random_state,
    supports_ladder_flat,
)

# criterion 7's bound on the translation size ratio: the maximum of its
# fixed-matrix alternating sweep l = 2..12, reached at l = 6 and measured
# at first build. It is a regression constant, not a theoretical value;
# test_reduction.py::TestSizes pins the compiled sizes exactly.
SIZE_RATIO_BOUND = 930 / 122


@pytest.mark.acceptance(1, "model codec emits and inverts the pinned strings")
def test_codec_fidelity(demo_model_padded):
    start = time.perf_counter()
    delta, epsilons = encode_model(demo_model_padded)
    assert delta == "110010100"
    assert epsilons == ["00011", "010000111", "011001011"]
    assert decode_model(delta, epsilons, 3, 3) == demo_model_padded
    assert time.perf_counter() - start < 1.0


@pytest.mark.acceptance(2, "empty state and downward persistency")
def test_semantics_core():
    start = time.perf_counter()
    rng = random.Random(20001)
    modal_nodes_seen = 0
    for case in range(1000):
        m = random_model(rng, n_max=5, l_max=3, modal=True)
        f = random_formula(rng, m.l, depth=4, modal=True)
        if case % 5 == 0:
            f = Box(f) if case % 10 == 0 else WBox(f)
        if any(isinstance(g, (Box, WBox)) for g in _walk(f)):
            modal_nodes_seen += 1
        cache = MemoCache()
        s = random_state(rng, m.n)
        assert evaluate(
            CheckQuery(m, InfoState.empty(m.n), f), engine="auto", cache=cache
        ).value
        if not evaluate(CheckQuery(m, s, f), engine="auto", cache=cache).value:
            continue
        t = s.mask
        while t:
            t = (t - 1) & s.mask
            assert evaluate(
                CheckQuery(m, InfoState(t, m.n), f), engine="auto", cache=cache
            ).value
            if t == 0:
                break
    assert modal_nodes_seen >= 200
    assert time.perf_counter() - start < 30.0


def _walk(f):
    yield f
    for name in ("left", "right", "body"):
        child = getattr(f, name, None)
        if child is not None:
            yield from _walk(child)


@pytest.mark.acceptance(3, "generator lists match full closures")
def test_generator_sufficiency():
    start = time.perf_counter()
    rng = random.Random(30003)
    for _ in range(200):
        m = random_model(rng, n_max=4, l_max=2, modal=True)
        closed = InformationModel(
            m.n,
            m.l,
            m.valuation,
            tuple(tuple(downward_closure(list(g))) for g in m.sigma),
        )
        f = random_formula(rng, m.l, depth=3, modal=True)
        s = random_state(rng, m.n)
        assert check_support(CheckQuery(m, s, f)) == check_support(
            CheckQuery(closed, s, f)
        )
    assert time.perf_counter() - start < 60.0


@pytest.mark.acceptance(4, "pair and ladder gadgets characterized exhaustively")
def test_gadget_characterizations():
    start = time.perf_counter()
    for l in range(1, 4):
        model = build_switching_model(l).model
        cache = MemoCache()

        def holds(mask, formula):
            query = CheckQuery(model, InfoState(mask, 2 * l), formula)
            return evaluate(query, engine="auto", cache=cache).value

        for k in range(l):
            pair = (1 << world_plus(k)) | (1 << world_minus(k))
            d = formula_D(k, l)
            for mask in range(1 << (2 * l)):
                assert holds(mask, d) == (mask & pair != pair)
        for k in range(l + 1):
            s_k = formula_S(k, l)
            for mask in range(1 << (2 * l)):
                assert holds(mask, s_k) == supports_ladder_flat(mask, k, l)
            for values in product((0, 1), repeat=k):
                switching = switching_from_valuation(BoolValuation(values), l)
                assert is_k_switching(switching, k, l)
                assert not holds(switching.mask, s_k)
                t = switching.mask
                while t:
                    t = (t - 1) & switching.mask
                    assert holds(t, s_k)
                    if t == 0:
                        break
    assert time.perf_counter() - start < 60.0


@pytest.mark.acceptance(5, "matrix translation tracks truth on switchings")
def test_matrix_translation_equivalences():
    start = time.perf_counter()
    rng = random.Random(50005)
    checked = 0
    for l in range(1, 5):
        model = build_switching_model(l).model
        cache = MemoCache()
        for _ in range(28):
            matrix = random_qbf(rng.randrange(1 << 30), l, 12).matrix
            assert all(i < l for i in prop_vars(matrix))
            positive = translate_prop(matrix, "p", l)
            negative = translate_prop(matrix, "n", l)
            for values in product((0, 1), repeat=l):
                v = BoolValuation(values)
                s = switching_from_valuation(v, l)
                truth = _truth(matrix, v)
                pos = evaluate(
                    CheckQuery(model, s, positive), engine="auto", cache=cache
                ).value
                neg_ = evaluate(
                    CheckQuery(model, s, negative), engine="auto", cache=cache
                ).value
                assert pos == truth
                assert neg_ == (not truth)
            checked += 1
    assert checked >= 100
    assert time.perf_counter() - start < 120.0


def _truth(matrix, v) -> bool:
    if isinstance(matrix, Var):
        return v.value(matrix.index) == 1
    if isinstance(matrix, NegVar):
        return v.value(matrix.index) == 0
    if isinstance(matrix, PAnd):
        return _truth(matrix.left, v) and _truth(matrix.right, v)
    return _truth(matrix.left, v) or _truth(matrix.right, v)


@pytest.mark.acceptance(6, "compiled support agrees with QBF truth")
def test_oracle_agreement_end_to_end(tmp_path, capsys):
    start = time.perf_counter()
    named = [
        ("exists x0 : x0\n", "AGREE(true)"),
        ("forall x0 : x0\n", "AGREE(false)"),
        ("forall x0 exists x1 : (x0 | x1) & (~x0 | ~x1)\n", "AGREE(true)"),
    ]
    for index, (text, expected) in enumerate(named):
        path = tmp_path / f"named{index}.qbf"
        path.write_text(text)
        assert cli.main(["verify", str(path)]) == 0
        assert capsys.readouterr().out.strip() == expected
    code = cli.main(
        [
            "verify",
            "--random",
            "200",
            "--seed",
            "60606",
            "--max-l",
            "4",
            "--matrix-nodes",
            "10",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 200
    assert all("DISAGREE" not in line for line in lines)
    assert time.perf_counter() - start < 300.0


@pytest.mark.acceptance(7, "translation size ratio stays at the pinned bound")
def test_size_ratio_regression():
    start = time.perf_counter()
    matrix = PAnd(POr(Var(0), Var(1)), POr(Var(0), NegVar(1)))
    sizes = []
    ratios = []
    for l in range(2, 13):
        prefix = tuple((FORALL if i % 2 == 0 else EXISTS, i) for i in range(l))
        instance = reduce_tqbf(Qbf(prefix, matrix))
        report = size_report(instance)
        sizes.append(instance.translated_size)
        ratios.append(report.ratio)
        assert report.ratio <= SIZE_RATIO_BOUND
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
    # the sweep's maximum IS the pinned constant, exactly
    assert max(ratios) == SIZE_RATIO_BOUND
    assert time.perf_counter() - start < 5.0


@pytest.mark.acceptance(8, "memo vs naive and the two QBF routes agree")
def test_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(80008)
    for _ in range(1000):
        m = random_model(rng, n_max=4, l_max=3, modal=True)
        f = random_formula(rng, m.l, depth=3, modal=True)
        s = random_state(rng, m.n)
        query = CheckQuery(m, s, f)
        assert check_support_memo(query, MemoCache()) == check_support(query)
    for l in (1, 2):
        pool = [
            Var(0),
            NegVar(0),
            PAnd(Var(0), Var(l - 1)),
            POr(NegVar(0), Var(l - 1)),
        ]
        for quants in product((FORALL, EXISTS), repeat=l):
            prefix = tuple((quant, i) for i, quant in enumerate(quants))
            for matrix in pool:
                theta = Qbf(prefix, matrix)
                assert eval_qbf(theta) == eval_qbf_table(theta)
    for case in range(200):
        l = rng.randint(1, 6)
        theta = random_qbf(rng.randrange(1 << 30), l, matrix_nodes=14)
        assert eval_qbf(theta) == eval_qbf_table(theta)
    for l in (5, 6):
        for quant in (FORALL, EXISTS):
            prefix = tuple((quant, i) for i in range(l))
            matrix = PAnd(POr(Var(0), Var(l - 1)), POr(NegVar(2), Var(1)))
            theta = Qbf(prefix, matrix)
            assert eval_qbf(theta) == eval_qbf_table(theta)
    assert time.perf_counter() - start < 120.0
