"""Models, validation, the delta/epsilon codecs, and the model file format."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from inqcheck.model import (
    CodecError,
    InfoState,
    InformationModel,
    ValidationError,
    decode_model,
    downward_closure,
    encode_model,
    read_model_file,
    sigma_image,
    sigma_union,
    validate_model,
    write_model_file,
)

from conftest import bits, random_model


@st.composite
def models(draw, n_max=6, l_max=4, k_max=3, modal=None):
    n = draw(st.integers(1, n_max))
    l = draw(st.integers(0, l_max))
    valuation = tuple(
        InfoState(draw(st.integers(0, (1 << n) - 1)), n) for _ in range(l)
    )
    if modal is None:
        modal = draw(st.booleans())
    sigma = None
    if modal:
        sigma = tuple(
            tuple(
                InfoState(mask, n)
                for mask in draw(
                    st.lists(
                        st.integers(0, (1 << n) - 1),
                        min_size=1,
                        max_size=min(k_max, 1 << n),
                        unique=True,
                    )
                )
            )
            for _ in range(n)
        )
    return InformationModel(n, l, valuation, sigma)


def reference_mask(bits: str) -> int:
    """Per-character decoder the codec must agree with."""
    mask = 0
    for i, c in enumerate(bits):
        if c == "1":
            mask |= 1 << i
    return mask


# each is accepted by int(..., 2) but is not a 0/1 string
INT_SYNTAX = ["1_0", " 10", "10\n", "+1", "0b1", "\u0661\u0660"]


class TestInfoState:
    def test_from_bits_leftmost_is_world_zero(self):
        s = InfoState.from_bits("101")
        assert s.worlds() == (0, 2)
        assert s.bits() == "101"

    def test_from_bits_rejects_junk(self):
        with pytest.raises(ValueError):
            InfoState.from_bits("10x")
        with pytest.raises(ValueError):
            InfoState.from_bits("")

    @pytest.mark.parametrize("text", INT_SYNTAX)
    def test_from_bits_rejects_int_syntax(self, text):
        int(text, 2)
        with pytest.raises(ValueError, match="over 0/1"):
            InfoState.from_bits(text)

    @given(st.text("01", min_size=1, max_size=200))
    @settings(max_examples=200)
    def test_from_bits_matches_reference(self, text):
        s = InfoState.from_bits(text)
        assert s == InfoState(reference_mask(text), len(text))
        assert s.bits() == text
        assert s.popcount() == text.count("1")

    def test_zero_width_bits(self):
        assert InfoState(0, 0).bits() == ""

    def test_mask_range_checked(self):
        with pytest.raises(ValueError):
            InfoState(4, 2)

    @pytest.mark.parametrize("mask, width, field", [(1.0, 2, "mask"), (1, 2.0, "width"), ("1", 2, "mask")])
    def test_non_integer_fields_are_refused(self, mask, width, field):
        with pytest.raises(TypeError, match=f"state {field} must be an integer"):
            InfoState(mask, width)

    def test_integer_types_are_stored_as_int(self):
        s = InfoState(True, 2)
        assert type(s.mask) is int and s == InfoState(1, 2)
        s = InfoState(1, True)
        assert type(s.width) is int and s.bits() == "1"

    def test_subset_and_membership(self):
        s = bits("110")
        assert s.contains(0) and s.contains(1) and not s.contains(2)
        assert bits("100").is_subset_of(s)
        assert not s.is_subset_of(bits("100"))

    def test_empty_and_full(self):
        assert InfoState.empty(3).is_empty
        assert InfoState.full(3).bits() == "111"
        assert InfoState.full(3).popcount() == 3


class TestValidation:
    def test_demo_model_valid(self, demo_model):
        validate_model(demo_model)

    def test_zero_worlds_rejected(self):
        with pytest.raises(ValidationError) as info:
            validate_model(InformationModel(0, 0, (), ()))
        assert info.value.what == "worlds"

    def test_empty_generator_list_rejected(self):
        m = InformationModel(1, 0, (), ((),))
        with pytest.raises(ValidationError) as info:
            validate_model(m)
        assert info.value.what == "sigma"
        assert info.value.index == 0

    def test_duplicate_generators_rejected(self):
        m = InformationModel(1, 0, (), ((bits("1"), bits("1")),))
        with pytest.raises(ValidationError) as info:
            validate_model(m)
        assert info.value.what == "sigma"

    def test_wrong_width_valuation_rejected(self):
        m = InformationModel(2, 1, (bits("1"),), None)
        with pytest.raises(ValidationError) as info:
            validate_model(m)
        assert info.value.what == "valuation"

    def test_kind(self, demo_model):
        assert demo_model.is_modal
        plain = InformationModel(2, 1, (bits("10"),), None)
        assert not plain.is_modal


class TestCodec:
    def test_encode_padded_demo_model(self, demo_model_padded):
        delta, epsilons = encode_model(demo_model_padded)
        assert delta == "110010100"
        assert epsilons == ["00011", "010000111", "011001011"]

    def test_decode_inverts_padded_demo_model(self, demo_model_padded):
        delta, epsilons = encode_model(demo_model_padded)
        assert decode_model(delta, epsilons, 3, 3) == demo_model_padded

    def test_single_world_plain_model(self):
        m = InformationModel(1, 1, (bits("0"),), None)
        assert encode_model(m) == ("0", [])

    def test_length_mismatch(self):
        with pytest.raises(CodecError) as info:
            decode_model("11", [], 1, 1)
        assert info.value.what == "length"

    def test_epsilon_bad_length(self):
        # valid lengths for n=1 are 3, 5, ...; 4 cannot parse
        with pytest.raises(CodecError):
            decode_model("0", ["0011"], 1, 1)

    def test_epsilon_missing_terminator(self):
        with pytest.raises(CodecError) as info:
            decode_model("0", ["000"], 1, 1)
        assert info.value.what == "terminator"

    def test_epsilon_bad_separator(self):
        # first chunk must open with a 0 bit
        with pytest.raises(CodecError) as info:
            decode_model("0", ["101"], 1, 1)
        assert info.value.what == "separator"

    def test_epsilon_bad_length_form(self):
        with pytest.raises(CodecError) as info:
            decode_model("0", ["1011"], 1, 1)
        assert info.value.what == "terminator"

    def test_alphabet_checked(self):
        with pytest.raises(CodecError) as info:
            decode_model("x", [], 1, 1)
        assert info.value.what == "alphabet"

    @pytest.mark.parametrize("text", INT_SYNTAX)
    def test_alphabet_rejects_int_syntax(self, text):
        with pytest.raises(CodecError) as info:
            decode_model(text, [], len(text), 1)
        assert info.value.what == "alphabet"
        with pytest.raises(CodecError) as info:
            decode_model("0", [text], 1, 1)
        assert info.value.what == "alphabet"

    @given(st.integers(1, 70), st.integers(0, 10), st.booleans(), st.data())
    @settings(max_examples=200)
    def test_decode_matches_reference(self, n, l, modal, data):
        delta = data.draw(st.text("01", min_size=n * l, max_size=n * l))
        # bit l*i + j of delta is atom j at world i
        valuation = tuple(
            InfoState(reference_mask("".join(delta[l * i + j] for i in range(n))), n)
            for j in range(l)
        )
        # a block drawn as an int costs n / 8 bytes of hypothesis's buffer,
        # so that a modal model of more than 64 worlds fits in it
        blocks = st.integers(0, (1 << n) - 1).map(lambda mask: format(mask, f"0{n}b"))
        lists = [
            data.draw(st.lists(blocks, min_size=1, max_size=min(3, 1 << n), unique=True))
            for _ in range(n if modal else 0)
        ]
        epsilons = ["".join("0" + g for g in gens) + "1" for gens in lists]
        sigma = (
            tuple(tuple(InfoState(reference_mask(g), n) for g in gens) for gens in lists)
            if modal
            else None
        )
        m = decode_model(delta, epsilons, n, l)
        assert m == InformationModel(n, l, valuation, sigma)
        assert encode_model(m) == (delta, epsilons)

    @given(models())
    @settings(max_examples=200)
    def test_round_trip(self, m):
        delta, epsilons = encode_model(m)
        assert len(delta) == m.n * m.l
        if m.is_modal:
            for i, epsilon in enumerate(epsilons):
                assert len(epsilon) == (m.n + 1) * len(m.sigma[i]) + 1
        else:
            assert epsilons == []
        assert decode_model(delta, epsilons, m.n, m.l) == m


class TestSigmaOps:
    def test_union_of_w2(self, demo_model):
        assert sigma_union(demo_model, 2) == bits("111")

    def test_union_of_w0(self, demo_model):
        assert sigma_union(demo_model, 0) == bits("001")

    def test_union_of_empty_generator(self):
        m = InformationModel(1, 0, (), ((bits("0"),),))
        assert sigma_union(m, 0) == bits("0")

    def test_image_of_singleton(self, demo_model):
        assert sigma_image(demo_model, bits("100")) == [bits("001")]

    def test_image_of_empty_state(self, demo_model):
        assert sigma_image(demo_model, bits("000")) == []

    def test_image_concatenates_in_world_order(self, demo_model):
        assert sigma_image(demo_model, bits("011")) == [
            bits("100"),
            bits("011"),
            bits("110"),
            bits("101"),
        ]

    def test_plain_model_rejected(self):
        plain = InformationModel(1, 0, (), None)
        with pytest.raises(ValidationError):
            sigma_union(plain, 0)
        with pytest.raises(ValidationError):
            sigma_image(plain, bits("1"))


class TestDownwardClosure:
    def test_two_element_state(self):
        out = downward_closure([bits("11")])
        assert out == [bits("00"), bits("10"), bits("01"), bits("11")]

    def test_empty_input(self):
        assert downward_closure([]) == []

    def test_union_of_lattices(self):
        out = downward_closure([bits("10"), bits("01")])
        assert out == [bits("00"), bits("10"), bits("01")]

    def test_closure_never_enlarges_sigma_union(self):
        rng = random.Random(20821)
        for _ in range(100):
            m = random_model(rng, n_max=4, modal=True)
            for i in range(m.n):
                closed = downward_closure(list(m.sigma[i]))
                union = InfoState(0, m.n)
                for t in closed:
                    union = InfoState(union.mask | t.mask, m.n)
                assert union == sigma_union(m, i)


class TestFileFormat:
    def test_round_trip(self, demo_model_padded):
        text = write_model_file(demo_model_padded)
        assert read_model_file(text) == demo_model_padded

    def test_layout(self, demo_model_padded):
        lines = write_model_file(demo_model_padded).splitlines()
        assert lines[0] == "inqmodel v1"
        assert lines[1] == "atoms 3"
        assert lines[2] == "worlds 3"
        assert lines[3] == "delta 110010100"
        assert lines[4] == "epsilon 0 00011"

    def test_plain_model_has_no_epsilon_lines(self):
        m = InformationModel(2, 1, (bits("10"),), None)
        text = write_model_file(m)
        assert "epsilon" not in text
        assert read_model_file(text) == m

    def test_comments_ignored(self, demo_model):
        text = write_model_file(demo_model)
        commented = "# header comment\n" + text.replace(
            "worlds 3", "worlds 3   # three of them"
        )
        assert read_model_file(commented) == demo_model

    def test_bad_header(self):
        with pytest.raises(CodecError):
            read_model_file("inqmodel v2\natoms 1\nworlds 1\ndelta 0\n")

    @pytest.mark.parametrize(
        "old, new, lineno",
        [
            ("atoms 2", "atoms ²", 2),
            ("worlds 3", "worlds ³", 3),
            ("epsilon 0", "epsilon ²", 5),
            ("epsilon 0", "epsilon ٠", 5),
        ],
    )
    def test_counts_are_ascii_digits(self, demo_model, old, new, lineno):
        text = write_model_file(demo_model)
        assert old in text
        with pytest.raises(CodecError) as info:
            read_model_file(text.replace(old, new))
        assert info.value.what == "format"
        assert info.value.detail.startswith(f"line {lineno}: expected")

    @pytest.mark.parametrize("old, lineno", [("atoms 2", 2), ("worlds 3", 3), ("epsilon 0", 5)])
    def test_counts_past_the_int_digit_limit(self, demo_model, old, lineno):
        # int() refuses more than 4300 digits by default, leading zeros too
        keyword, digit = old.split()
        text = write_model_file(demo_model)
        assert old in text
        with pytest.raises(CodecError) as info:
            read_model_file(text.replace(old, f"{keyword} {digit * 5000}", 1))
        assert info.value.what == "format"
        assert info.value.detail.startswith(f"line {lineno}: expected")

    def test_epsilon_lines_must_ascend(self, demo_model):
        text = write_model_file(demo_model)
        lines = text.splitlines()
        lines[4], lines[5] = lines[5], lines[4]
        with pytest.raises(CodecError):
            read_model_file("\n".join(lines) + "\n")

    @given(models())
    @settings(max_examples=100)
    def test_random_round_trip(self, m):
        assert read_model_file(write_model_file(m)) == m
