"""Lowered programs, the packed support-table kernel, and engine choice."""

from __future__ import annotations

import random

import pytest

from inqcheck.checker import CheckQuery, MemoCache, check_support, evaluate
from inqcheck.kernels import (
    OP_AND,
    OP_ATOM,
    OP_BOT,
    OP_BOX,
    OP_IMPLIES,
    OP_IVEE,
    OP_WBOX,
    lower_formula,
    model_arrays,
    support_table,
    table_bytes,
)
from inqcheck.model import InfoState
from inqcheck.syntax import And, Atom, Bottom, Box, IVee, Implies, WBox, parse_formula

from conftest import random_formula, random_model


class TestLowering:
    def test_shared_subterms_collapse(self):
        f = And(IVee(Atom(0), Atom(1)), IVee(Atom(0), Atom(1)))
        program = lower_formula(f)
        # one row per distinct subterm: two atoms, one shared ior, one and
        assert program.num_nodes == 4

    def test_root_is_last_row(self):
        program = lower_formula(parse_formula("p0 -> p1"))
        assert program.root == program.num_nodes - 1

    def test_table_bytes(self, demo_model):
        program = lower_formula(parse_formula("p0 & p1"))
        assert table_bytes(program, demo_model) == program.num_nodes * 8

    def test_model_arrays_shapes(self, demo_model):
        val_masks, box_masks, gen_off, gen_masks = model_arrays(demo_model)
        assert list(val_masks) == [0b101, 0b011]
        assert list(box_masks) == [0b100, 0b111, 0b111]
        assert list(gen_off) == [0, 1, 3, 5]
        assert list(gen_masks) == [0b100, 0b001, 0b110, 0b011, 0b101]


def naive_at(model, formula, mask):
    return check_support(CheckQuery(model, InfoState(mask, model.n), formula))


def reference_row(model, formula):
    return [naive_at(model, formula, s) for s in range(1 << model.n)]


def row_formulas(program):
    """The subformula each program row stands for, rebuilt from the rows."""
    out = []
    for op, a, b, p in zip(program.ops, program.left, program.right, program.payload):
        if op == OP_BOT:
            out.append(Bottom())
        elif op == OP_ATOM:
            out.append(Atom(int(p)))
        elif op in (OP_BOX, OP_WBOX):
            out.append((Box if op == OP_BOX else WBox)(out[a]))
        else:
            node = {OP_AND: And, OP_IVEE: IVee, OP_IMPLIES: Implies}[op]
            out.append(node(out[a], out[b]))
    return out


def row_bits(row, n):
    return [bool(row >> s & 1) for s in range(1 << n)]


class TestTables:
    def test_full_table_matches_naive(self):
        rng = random.Random(2718)
        for _ in range(40):
            m = random_model(rng, n_max=5, l_max=2)
            f = random_formula(rng, m.l, depth=3, modal=True)
            program = lower_formula(f)
            table = support_table(program, m)
            assert len(table) == program.num_nodes
            assert all(0 <= row < 1 << (1 << m.n) for row in table)
            assert row_bits(table[program.root], m.n) == reference_row(m, f)

    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    def test_wide_lattice_matches_naive_and_sparse(self, n):
        # 2^n states span 64..512 bits, so the upward closure shifts rows
        # by 64, 128 and 256 across machine-word boundaries
        rng = random.Random(31 * n)
        m = random_model(rng, n_max=n, n_min=n, l_max=3)
        checked = 0
        while checked < 3:
            f = random_formula(rng, m.l, depth=5, modal=True)
            program = lower_formula(f)
            if list(program.ops).count(OP_IMPLIES) < 3:
                continue
            checked += 1
            table = support_table(program, m)
            masks = [0, (1 << n) - 1] + [rng.randrange(1 << n) for _ in range(32)]
            for row, g in zip(table, row_formulas(program)):
                assert 0 <= row < 1 << (1 << n)
                for s in masks:
                    assert bool(row >> s & 1) == naive_at(m, g, s), (s, g)
            cache = MemoCache()
            sparse = [
                evaluate(CheckQuery(m, InfoState(s, n), f), engine="sparse", cache=cache).value
                for s in range(1 << n)
            ]
            assert row_bits(table[program.root], n) == sparse

    def test_memo_lookup_reads_table(self):
        rng = random.Random(4242)
        for _ in range(20):
            m = random_model(rng, n_max=5, l_max=2)
            f = random_formula(rng, m.l, depth=3, modal=True)
            cache = MemoCache()
            evaluate(CheckQuery(m, InfoState(0, m.n), f), engine="table", cache=cache)
            entry = cache.root(m, f)
            assert entry.table is not None
            got = [cache.lookup(entry, entry.program.root, s) for s in range(1 << m.n)]
            assert got == reference_row(m, f)


class TestSelection:
    def test_auto_respects_byte_cap(self, demo_model, monkeypatch):
        query = CheckQuery(demo_model, InfoState.full(3), parse_formula("p0 ior p1"))
        monkeypatch.setenv("INQCHECK_TABLE_BYTES", "1")
        assert evaluate(query, engine="auto").engine == "sparse"
        monkeypatch.setenv("INQCHECK_TABLE_BYTES", str(1 << 20))
        assert evaluate(query, engine="auto").engine == "table"
