import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from sievecodec import IntSetPrefix, from_characteristic
from sievecodec.core import check_word
from conftest import bit_words, prefixes
from reference import characteristic


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
        # Only an element list empty as a whole is the empty set.
        for bad in ("1,2", "1;2 @ 5", "1,2 @ x", "@", "1,,2 @ 5", "1,2, @ 5", ",1 @ 5", ", @ 5"):
            with pytest.raises(ValueError):
                IntSetPrefix.parse(bad)

    def test_truncate_cannot_extend(self):
        prefix = IntSetPrefix((2, 5), 6)
        assert prefix.truncate(4) == IntSetPrefix((2,), 4)
        with pytest.raises(ValueError, match="cannot extend horizon 6 to 7"):
            prefix.truncate(7)

    def test_truncate_refuses_a_negative_horizon(self):
        with pytest.raises(ValueError, match="non-negative"):
            IntSetPrefix((2, 5), 6).truncate(-1)

    def test_of_sorts_and_deduplicates(self):
        assert IntSetPrefix.of([5, 2, 5, 3], 6) == IntSetPrefix((2, 3, 5), 6)
        assert IntSetPrefix.of(iter({7}), 7) == IntSetPrefix((7,), 7)

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            IntSetPrefix((2.0,), 5)
        with pytest.raises(ValueError):
            IntSetPrefix((2,), "5")

    def test_parse_tolerates_whitespace(self):
        assert IntSetPrefix.parse(" 2 ,3,  5@7 ") == IntSetPrefix((2, 3, 5), 7)
        assert IntSetPrefix.parse("  @0") == IntSetPrefix((), 0)

    @given(prefixes())
    def test_parse_inverts_str(self, prefix):
        assert IntSetPrefix.parse(str(prefix)) == prefix

    @given(prefixes(), st.data())
    def test_truncate_cuts_the_indicator_word(self, prefix, data):
        horizon = data.draw(st.integers(0, prefix.horizon))
        short = prefix.truncate(horizon)
        assert characteristic(short) == characteristic(prefix)[:horizon]
        assert short == IntSetPrefix(short.elements, short.horizon)
        assert short.truncate(0) == prefix.truncate(0) == IntSetPrefix((), 0)


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

    def test_check_word_names_every_bad_symbol(self):
        assert check_word("0110") == "0110"
        assert check_word("") == ""
        with pytest.raises(ValueError, match=r"\['\*', '2'\]"):
            check_word("012*0*")

    @given(prefixes())
    def test_roundtrip_from_prefix(self, prefix):
        assert from_characteristic(characteristic(prefix)) == prefix

    @given(bit_words)
    def test_roundtrip_from_word(self, word):
        assert characteristic(from_characteristic(word)) == word

    @given(st.lists(st.tuples(st.sampled_from("01"), st.integers(1, 300)))
           .map(lambda runs: "".join(bit * n for bit, n in runs)))
    @example("")
    @example("1" * 1000)
    def test_reads_every_run_of_ones(self, word):
        prefix = from_characteristic(word)
        assert prefix.elements == tuple(i for i, bit in enumerate(word, start=1) if bit == "1")
        assert prefix.horizon == len(word)
        assert prefix == IntSetPrefix(prefix.elements, prefix.horizon)
