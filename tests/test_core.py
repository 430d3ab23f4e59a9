from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from sievecodec import IntSetPrefix, characteristic, from_characteristic
from sievecodec.core import prefix_distance
from conftest import bit_words, prefixes


class TestIntSetPrefix:
    def test_parse_and_format_roundtrip(self):
        text = "2,3,5,7 @ 10"
        prefix = IntSetPrefix.parse(text)
        assert prefix.elements == (2, 3, 5, 7)
        assert prefix.horizon == 10
        assert str(prefix) == text

    def test_empty_set_format(self):
        assert str(IntSetPrefix((), 5)) == "@ 5"
        assert IntSetPrefix.parse("@ 5") == IntSetPrefix((), 5)

    def test_rejects_unsorted_elements(self):
        with pytest.raises(ValueError):
            IntSetPrefix((3, 2), 5)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            IntSetPrefix((2, 2), 5)

    def test_rejects_element_beyond_horizon(self):
        with pytest.raises(ValueError):
            IntSetPrefix((2, 7), 5)

    def test_rejects_nonpositive_elements(self):
        with pytest.raises(ValueError):
            IntSetPrefix((0, 3), 5)
        with pytest.raises(ValueError):
            IntSetPrefix((-1,), 5)

    def test_rejects_negative_horizon(self):
        with pytest.raises(ValueError):
            IntSetPrefix((), -1)

    def test_parse_rejects_garbage(self):
        for bad in ("1,2", "1;2 @ 5", "1,2 @ x", "@"):
            with pytest.raises(ValueError):
                IntSetPrefix.parse(bad)

    def test_truncate_cannot_extend(self):
        prefix = IntSetPrefix((2, 5), 6)
        assert prefix.truncate(4) == IntSetPrefix((2,), 4)
        with pytest.raises(ValueError):
            prefix.truncate(7)


class TestCharacteristic:
    def test_empty_set(self):
        assert characteristic(IntSetPrefix((), 3)) == "000"

    def test_small_set(self):
        assert characteristic(IntSetPrefix((1, 3), 4)) == "1010"

    def test_first_primes(self):
        # Direct evaluation of the indicator on [1, 8].
        assert characteristic(IntSetPrefix((2, 3, 5, 7), 8)) == "01101010"

    def test_inverse_examples(self):
        assert from_characteristic("") == IntSetPrefix((), 0)
        assert from_characteristic("1010") == IntSetPrefix((1, 3), 4)
        assert from_characteristic("01101010") == IntSetPrefix((2, 3, 5, 7), 8)

    def test_rejects_bad_alphabet(self):
        with pytest.raises(ValueError):
            from_characteristic("01*0")

    @given(prefixes())
    def test_roundtrip_from_prefix(self, prefix):
        assert from_characteristic(characteristic(prefix)) == prefix

    @given(bit_words)
    def test_roundtrip_from_word(self, word):
        assert characteristic(from_characteristic(word)) == word


class TestPrefixDistance:
    def test_equal_prefixes(self):
        a = IntSetPrefix((1, 4), 5)
        verdict = prefix_distance(a, IntSetPrefix((1, 4), 5))
        assert verdict.kind == "zero"
        assert verdict.value == 0

    def test_disagreement_at_one(self):
        verdict = prefix_distance(IntSetPrefix((1,), 2), IntSetPrefix((2,), 2))
        assert verdict.kind == "apart"
        assert verdict.first_difference == 1
        assert verdict.value == Fraction(1)

    def test_disagreement_at_three(self):
        verdict = prefix_distance(IntSetPrefix((2, 3), 4), IntSetPrefix((2, 4), 4))
        assert verdict.kind == "apart"
        assert verdict.first_difference == 3
        assert verdict.value == Fraction(1, 4)

    def test_undecided_on_horizon_mismatch(self):
        verdict = prefix_distance(IntSetPrefix((2,), 3), IntSetPrefix((2,), 5))
        assert verdict.kind == "undecided"
        assert verdict.value is None

    def test_disagreement_wins_over_horizon_mismatch(self):
        verdict = prefix_distance(IntSetPrefix((1,), 3), IntSetPrefix((2,), 5))
        assert verdict.kind == "apart"
        assert verdict.first_difference == 1

    @given(prefixes(), prefixes())
    def test_symmetry(self, a, b):
        assert prefix_distance(a, b) == prefix_distance(b, a)

    @given(st.data())
    def test_ultrametric_on_common_horizon(self, data):
        horizon = data.draw(st.integers(1, 24))
        def draw_prefix(label):
            elements = data.draw(st.sets(st.integers(1, horizon)), label=label)
            return IntSetPrefix.of(elements, horizon)
        a, b, c = draw_prefix("a"), draw_prefix("b"), draw_prefix("c")

        def dist(x, y):
            verdict = prefix_distance(x, y)
            assert verdict.kind in ("zero", "apart")
            return verdict.value

        assert (dist(a, b) == 0) == (a == b)
        assert dist(a, c) <= max(dist(a, b), dist(b, c))
