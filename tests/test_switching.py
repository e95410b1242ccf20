"""Switching models, valuation encoding, and the C/D/S gadget formulas."""

from __future__ import annotations

from itertools import product

import pytest

from inqcheck.checker import CheckQuery, check_support
from inqcheck.model import InfoState
from inqcheck.switching import (
    BoolValuation,
    atom_p,
    atom_q,
    build_switching_model,
    formula_C,
    formula_D,
    formula_S,
    is_k_switching,
    switching_from_valuation,
    valuation_from_switching,
    world_minus,
    world_plus,
)
from inqcheck.syntax import Implies, neg

from conftest import supports_ladder_flat


def supports(l, mask, formula):
    model = build_switching_model(l).model
    return check_support(CheckQuery(model, InfoState(mask, 2 * l), formula))


def all_switchings(l):
    for k in range(l + 1):
        for values in product((0, 1), repeat=k):
            yield k, switching_from_valuation(BoolValuation(values), l)


class TestBuild:
    def test_smallest_model(self):
        sm = build_switching_model(1)
        m = sm.model
        assert m.n == 2 and m.l == 2
        assert m.valuation[0].bits() == "10"
        assert m.valuation[1].bits() == "11"
        assert not m.is_modal

    def test_q3_extension_at_l4(self):
        m = build_switching_model(4).model
        assert m.valuation[4 + 3].bits() == "00000011"

    def test_p_extension_is_plus_singleton(self):
        m = build_switching_model(3).model
        for i in range(3):
            assert m.valuation[i].worlds() == (world_plus(i),)
            assert m.valuation[3 + i].worlds() == (world_plus(i), world_minus(i))

    def test_world_indexing(self):
        assert world_plus(0) == 0 and world_minus(0) == 1
        assert world_plus(2) == 4 and world_minus(2) == 5

    def test_l_zero_rejected(self):
        with pytest.raises(ValueError):
            build_switching_model(0)

    def test_each_degree_is_built_once(self):
        assert build_switching_model(3) is build_switching_model(3)
        assert build_switching_model(3) != build_switching_model(4)

    def test_atom_helpers(self):
        assert atom_p(1).index == 1
        assert atom_q(1, 4).index == 5


class TestSwitchings:
    def test_named_four_variable_switching(self):
        s = switching_from_valuation(BoolValuation((1, 0, 1, 1)), 4)
        assert s.worlds() == (
            world_plus(0),
            world_minus(1),
            world_plus(2),
            world_plus(3),
        )

    def test_zero_switching_is_full_state(self):
        assert switching_from_valuation(BoolValuation(()), 3) == InfoState.full(6)

    def test_partial_valuation_keeps_late_pairs_whole(self):
        s = switching_from_valuation(BoolValuation((1, 0)), 4)
        expected = {
            world_plus(0),
            world_minus(1),
            world_plus(2),
            world_minus(2),
            world_plus(3),
            world_minus(3),
        }
        assert set(s.worlds()) == expected

    def test_count_is_two_to_the_k(self):
        for l in range(1, 5):
            for k in range(l + 1):
                found = [
                    mask
                    for mask in range(1 << (2 * l))
                    if is_k_switching(InfoState(mask, 2 * l), k, l)
                ]
                assert len(found) == 1 << k

    def test_bijection_round_trip(self):
        for l in range(1, 5):
            for k, s in all_switchings(l):
                v = valuation_from_switching(s, k, l)
                assert switching_from_valuation(v, l) == s

    def test_full_state_is_only_zero_switching(self):
        assert is_k_switching(InfoState.full(4), 0, 2)
        assert valuation_from_switching(InfoState.full(4), 0, 2) == BoolValuation(())

    def test_missing_pair_is_no_switching(self):
        # neither world of pair 0 present
        s = InfoState.from_bits("0011")
        for k in range(1, 3):
            assert not is_k_switching(s, k, 2)

    def test_non_switching_rejected(self):
        with pytest.raises(ValueError):
            valuation_from_switching(InfoState.from_bits("0011"), 1, 2)

    def test_oversized_valuation_rejected(self):
        with pytest.raises(ValueError):
            switching_from_valuation(BoolValuation((1, 0, 1)), 2)

    def test_valuation_readout(self):
        # sigma(x_i)=1 iff the switching supports q_i -> p_i
        l = 3
        for values in product((0, 1), repeat=l):
            s = switching_from_valuation(BoolValuation(values), l)
            for i in range(l):
                pos = Implies(atom_q(i, l), atom_p(i))
                negf = Implies(atom_q(i, l), neg(atom_p(i)))
                assert supports(l, s.mask, pos) == (values[i] == 1)
                assert supports(l, s.mask, negf) == (values[i] == 0)


class TestGadgetC:
    def test_supporting_states_in_smallest_model(self):
        f = formula_C(0, "+", 1)
        supporting = [mask for mask in range(4) if supports(1, mask, f)]
        assert supporting == [0b00, 0b01]  # empty and {w0^+}

    def test_minus_at_minus_singleton(self):
        for l in (1, 2):
            for k in range(l):
                f = formula_C(k, "-", l)
                assert supports(l, 1 << world_minus(k), f)

    def test_plus_fails_at_whole_pair(self):
        f = formula_C(1, "+", 2)
        pair = (1 << world_plus(1)) | (1 << world_minus(1))
        assert not supports(2, pair, f)

    def test_characterization_exhaustive(self):
        # nonempty supporting states are exactly subsets of the signed singleton
        for l in (1, 2):
            for k in range(l):
                for sign, target in (("+", world_plus(k)), ("-", world_minus(k))):
                    f = formula_C(k, sign, l)
                    for mask in range(1 << (2 * l)):
                        expected = mask & ~(1 << target) == 0
                        assert supports(l, mask, f) == expected

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            formula_C(0, "x", 1)


class TestGadgetD:
    def test_characterization_exhaustive(self):
        # supported exactly when the pair is not wholly inside the state
        for l in range(1, 4):
            for k in range(l):
                f = formula_D(k, l)
                pair = (1 << world_plus(k)) | (1 << world_minus(k))
                for mask in range(1 << (2 * l)):
                    expected = mask & pair != pair
                    assert supports(l, mask, f) == expected

    def test_maximal_supporting_substates_of_full_state(self):
        # dropping either world of the pair gives the two maximal states
        l, k = 4, 1
        f = formula_D(k, l)
        full = InfoState.full(2 * l).mask
        maximal = []
        for mask in range(1 << (2 * l)):
            if not supports(l, mask, f):
                continue
            if mask & ~full:
                continue
            covers = (full & ~mask).bit_count() == 1 or mask == full
            if covers:
                maximal.append(mask)
        drop_minus = full & ~(1 << world_minus(k))
        drop_plus = full & ~(1 << world_plus(k))
        assert sorted(maximal) == sorted([drop_minus, drop_plus])

    def test_pair_alone_fails(self):
        f = formula_D(0, 1)
        assert not supports(1, 0b11, f)


class TestGadgetS:
    def test_flat_characterization_exhaustive(self):
        for l in range(1, 4):
            for k in range(l + 1):
                f = formula_S(k, l)
                for mask in range(1 << (2 * l)):
                    assert supports(l, mask, f) == supports_ladder_flat(mask, k, l)

    def test_every_k_switching_fails_sk(self):
        for l in range(1, 4):
            for k, s in all_switchings(l):
                assert not supports(l, s.mask, formula_S(k, l))

    def test_proper_subsets_of_k_switchings_support_sk(self):
        for l in range(1, 4):
            for k, s in all_switchings(l):
                f = formula_S(k, l)
                t = s.mask
                while t:
                    t = (t - 1) & s.mask
                    if t != s.mask:
                        assert supports(l, t, f)
                    if t == 0:
                        break

    def test_finer_switchings_support_coarser_ladders(self):
        # a j-switching with j > k drops a world from some pair at or past k
        for l in (2, 3):
            for k in range(l):
                f = formula_S(k, l)
                for j in range(k + 1, l + 1):
                    for jk, s in all_switchings(l):
                        if jk != j:
                            continue
                        assert supports(l, s.mask, f)

    def test_shared_pieces_are_built_by_the_first_ladder(self):
        built = []

        def node(cls, *fields):
            built.append(cls)
            return cls(*fields)

        pieces = []
        first = formula_S(2, 3, node, pieces)
        assert len(pieces) == 3 and first == formula_S(2, 3)
        calls = len(built)
        # a later ladder reads the pieces: it builds its disjuncts and ors
        second = formula_S(0, 3, node, pieces)
        assert len(pieces) == 3 and second == formula_S(0, 3)
        assert len(built) - calls == 5
        assert second.right.left is pieces[2][0] and second.right.right is pieces[2][1]

    def test_full_state_fails_every_ladder_below_l(self):
        # the 0-switching also fails S_k for every k: no pair is missing
        l = 2
        full = InfoState.full(2 * l).mask
        for k in range(l + 1):
            assert not supports(l, full, formula_S(k, l))
