"""Unit & property tests for fixed-width bit packing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.storage import bits_needed, pack

from helpers import reference_pack


class TestBitsNeeded:
    @pytest.mark.parametrize("value,expected", [
        (0, 1), (1, 1), (2, 2), (3, 2), (4, 3), (255, 8), (256, 9),
        (2**40, 41), (2**63 - 1, 63),
    ])
    def test_values(self, value, expected):
        assert bits_needed(value) == expected

    def test_negative_rejected(self):
        with pytest.raises(EncodingError):
            bits_needed(-1)


class TestPack:
    def test_roundtrip_simple(self):
        values = [3, 1, 4, 1, 5, 9, 2, 6]
        packed = pack(values)
        assert packed.unpack().tolist() == values

    def test_inferred_width(self):
        assert pack([0, 7]).bit_width == 3
        assert pack([0]).bit_width == 1
        assert pack([]).bit_width == 1

    def test_explicit_width(self):
        packed = pack([1, 2, 3], bit_width=10)
        assert packed.bit_width == 10
        assert packed.values_per_word == 6
        assert packed.unpack().tolist() == [1, 2, 3]

    def test_values_do_not_span_words(self):
        # 20-bit values: 3 per word, upper 4 bits of each word unused.
        packed = pack(list(range(7)), bit_width=20)
        assert packed.values_per_word == 3
        assert len(packed.words) == 3

    def test_negative_rejected(self):
        with pytest.raises(EncodingError):
            pack([-1])

    def test_too_wide_rejected(self):
        with pytest.raises(EncodingError):
            pack([8], bit_width=3)

    def test_bad_width_rejected(self):
        with pytest.raises(EncodingError):
            pack([1], bit_width=0)
        with pytest.raises(EncodingError):
            pack([1], bit_width=65)

    def test_random_access(self):
        values = [10, 20, 30, 40, 50]
        packed = pack(values, bit_width=6)
        for i, v in enumerate(values):
            assert packed.get(i) == v

    def test_random_access_out_of_range(self):
        packed = pack([1, 2, 3])
        with pytest.raises(IndexError):
            packed.get(3)
        with pytest.raises(IndexError):
            packed.get(-1)

    def test_get_range(self):
        values = list(range(100))
        packed = pack(values, bit_width=7)
        assert packed.get_range(10, 20).tolist() == values[10:20]
        assert packed.get_range(0, 0).tolist() == []
        assert packed.get_range(99, 100).tolist() == [99]

    def test_get_range_bounds(self):
        packed = pack([1, 2, 3])
        with pytest.raises(IndexError):
            packed.get_range(0, 4)
        with pytest.raises(IndexError):
            packed.get_range(2, 1)

    def test_empty(self):
        packed = pack([])
        assert len(packed) == 0
        assert packed.unpack().tolist() == []
        assert packed.nbytes == 0

    def test_width_64(self):
        values = [2**63 - 1, 0, 2**62]
        packed = pack(values, bit_width=64)
        assert packed.values_per_word == 1
        assert packed.words.tolist() == values
        assert packed.unpack().tolist() == values
        assert packed.get(0) == 2**63 - 1
        assert packed.get_range(1, 3).tolist() == values[1:]

    def test_nbytes_shrinks_with_width(self):
        wide = pack(list(range(64)), bit_width=32)
        narrow = pack(list(range(64)), bit_width=8)
        assert narrow.nbytes < wide.nbytes


@given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=300))
@settings(max_examples=100, deadline=None)
def test_property_roundtrip(values):
    packed = pack(values)
    assert packed.unpack().tolist() == values


@given(st.lists(st.integers(min_value=0, max_value=2**17 - 1),
                min_size=1, max_size=200),
       st.data())
@settings(max_examples=50, deadline=None)
def test_property_random_access_matches_unpack(values, data):
    packed = pack(values, bit_width=17)
    i = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
    assert packed.get(i) == values[i]


@given(st.lists(st.integers(min_value=0, max_value=1), max_size=500))
@settings(max_examples=30, deadline=None)
def test_property_one_bit_packing(bits):
    packed = pack(bits, bit_width=1)
    assert packed.values_per_word == 64
    assert packed.unpack().tolist() == bits


def _reference_decode(words, width: int, count: int) -> list[int]:
    """Section 4.1's layout read one Python int at a time: value ``i``
    sits in word ``i // k`` at bit ``(i % k) * n``."""
    k = 64 // width
    mask = (1 << width) - 1
    return [(int(words[i // k]) >> ((i % k) * width)) & mask
            for i in range(count)]


@st.composite
def _packable(draw):
    """A width in 1..64 and values for it that end on a word boundary
    or mid-word, often at the width's largest value (2**63 - 1 at 64:
    pack takes int64)."""
    width = draw(st.integers(min_value=1, max_value=64))
    k = 64 // width
    top = min(2**width - 1, 2**63 - 1)
    tail = draw(st.sampled_from(sorted({0, 1, k - 1})))
    count = draw(st.integers(min_value=0, max_value=3)) * k + tail
    values = draw(st.lists(st.one_of(st.just(top), st.just(0),
                                     st.integers(min_value=0,
                                                 max_value=top)),
                           min_size=count, max_size=count))
    return width, values


@given(_packable(), st.data())
@settings(max_examples=400, deadline=None)
def test_property_every_width_matches_reference_decoder(case, data):
    width, values = case
    packed = pack(values, bit_width=width)
    count = len(values)
    assert len(packed.words) == -(-count // packed.values_per_word)
    assert _reference_decode(packed.words, width, count) == values
    assert packed.unpack().tolist() == values
    assert [packed.get(i) for i in range(count)] == values
    start = data.draw(st.integers(min_value=0, max_value=count))
    stop = data.draw(st.integers(min_value=start, max_value=count))
    assert packed.get_range(start, stop).tolist() == values[start:stop]


@pytest.mark.parametrize("width", range(1, 65))
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_property_words_equal_the_one_value_at_a_time_packer(width, data):
    k = 64 // width
    count = (data.draw(st.integers(min_value=0, max_value=3)) * k
             + data.draw(st.integers(min_value=0, max_value=k - 1)))
    values = np.array(data.draw(st.lists(
        st.integers(min_value=0, max_value=2**width - 1),
        min_size=count, max_size=count)), dtype=np.uint64)
    packed = pack(values, bit_width=width)
    expected = reference_pack(values, bit_width=width)
    assert packed.words.dtype == np.uint64
    assert packed.words.tolist() == expected.words.tolist()
    assert (packed.bit_width, packed.count) == (width, count)
