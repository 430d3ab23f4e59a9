import random
import tracemalloc
from math import isqrt

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from sievecodec import (
    CandidateCeilingExceeded,
    IntSetPrefix,
    OperatorKind,
    decode,
    encode,
    from_characteristic,
    is_member,
    parse_operator,
    roundtrip_ok,
)
from sievecodec import codec, dynamics, operators
from sievecodec.operators import prime_factors
from conftest import (
    ALL_OPERATORS,
    EVERY_OPERATOR,
    ONE_RENDER_OPERATORS,
    CountingOracle,
    bit_words,
    prefixes,
)
from reference import apply_J
from reference import decode as reference_decode

FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)

# Elements that end in a violated one, and the least position above them
# that they allow.  Below k = 4 the norm oracle forbids nothing above the set.
FREE_AFTER = {
    "sumfree": ((1, 2), 5),
    "coprime": ((6, 8), 11),
    "fs": ((1, 2, 3), 7),
    "normk:4": ((1, 2, 3), 6),
    "normk:5": ((1, 2, 3), 7),
    "normk:6": ((1, 2), 5),
    "normk:7": ((1, 2), 6),
    "normk:9": ((1, 2), 6),
    "normk:12": ((1, 2), 8),
    "normk:16": ((1, 2), 9),
}


class TestEncode:
    def test_empty_word(self):
        for op in ALL_OPERATORS:
            result = encode(op, "")
            assert result.accepted == IntSetPrefix((), 0)
            assert result.rejected == IntSetPrefix((), 0)
            assert result.consumed == 0

    def test_coprime_sieve(self):
        result = encode(OperatorKind("coprime"), "0" + "1" * 9)
        assert result.accepted.elements == FIRST_PRIMES
        assert result.rejected.elements == (1,)

    def test_coprime_all_ones_keeps_one(self):
        result = encode(OperatorKind("coprime"), "1" * 10)
        assert result.accepted.elements == (1,) + FIRST_PRIMES

    def test_norm_seven_worked_pair(self):
        result = encode(OperatorKind("normk", 7), "001001")
        assert result.accepted.elements == (3, 7)
        assert result.consumed == 7

    def test_sum_free_all_ones_gives_odds(self):
        result = encode(OperatorKind("sumfree"), "1" * 8)
        assert result.accepted.elements == tuple(range(1, 16, 2))

    @given(st.sampled_from(ALL_OPERATORS), bit_words)
    @settings(max_examples=200, deadline=None)
    def test_classification_invariants(self, op, word):
        result = encode(op, word)
        accepted, rejected = result.accepted, result.rejected
        assert accepted.horizon == rejected.horizon == result.consumed
        assert len(accepted.elements) + len(rejected.elements) == len(word)
        assert not (accepted.members() & rejected.members())
        # Everything up to the last candidate is classified: accepted,
        # rejected, or forbidden by the accepted elements below it.  Those
        # are the same across a gap between consecutive candidates.
        classified = sorted(accepted.members() | rejected.members())
        for lo, hi in zip([0] + classified, classified):
            below = [a for a in accepted.elements if a <= lo]
            assert apply_J(op, below, lo + 1, hi - 1) == set(range(lo + 1, hi))

    @given(st.sampled_from(ALL_OPERATORS), bit_words)
    @settings(max_examples=150, deadline=None)
    def test_output_is_a_member(self, op, word):
        assert is_member(op, encode(op, word).accepted)

    @pytest.mark.parametrize("op", EVERY_OPERATOR, ids=str)
    def test_prefixes_pass_the_checked_construction(self, op):
        # encode builds both prefixes unchecked; the checks must pass on them.
        rng = random.Random(0)
        words = ["".join(rng.choice("01") for _ in range(rng.randint(0, 16)))
                 for _ in range(200)]
        refused = []
        for word in words:
            try:
                result = encode(op, word)
            except CandidateCeilingExceeded:
                refused.append(word)
                continue
            for prefix in (result.accepted, result.rejected):
                assert IntSetPrefix(prefix.elements, prefix.horizon) == prefix, word
        # No word of 16 bits or fewer among these reaches the ceiling.
        assert refused == []

    def test_candidate_ceiling_guard(self, monkeypatch):
        monkeypatch.setattr(codec, "DEFAULT_CANDIDATE_CEILING", 4)
        # Accepts 1 and 3; the third bit's scan passes 4 (2 and 4 are sums).
        with pytest.raises(
            CandidateCeilingExceeded,
            match=r"ceiling 4 under sumfree with 2 of 5 bits classified; "
            r"largest accepted element 3$",
        ):
            encode(OperatorKind("sumfree"), "1" * 5)


class TestDecode:
    def test_empty_set_prefix(self):
        result = decode(OperatorKind("sumfree"), IntSetPrefix((), 5))
        assert result.ternary == "00000"
        assert result.bits == "00000"

    def test_norm_seven_worked_pair(self):
        result = decode(OperatorKind("normk", 7), IntSetPrefix((3, 7), 7))
        assert result.ternary == "00100*1"
        assert result.bits == "001001"
        assert from_characteristic(result.bits) == IntSetPrefix((3, 6), 6)

    def test_sum_free_odds(self):
        result = decode(OperatorKind("sumfree"), IntSetPrefix((1, 3, 5), 6))
        assert result.ternary == "1*1*1*"
        assert result.bits == "111"

    def test_coprime_stars_at_multiples(self):
        result = decode(OperatorKind("coprime"), IntSetPrefix((2, 3), 10))
        stars = {i + 1 for i, s in enumerate(result.ternary) if s == "*"}
        assert stars == {4, 6, 8, 9, 10}

    def test_reports_violations_of_non_members(self):
        result = decode(OperatorKind("sumfree"), IntSetPrefix((1, 2), 3))
        assert result.violations == (2,)
        assert result.ternary == "11*"  # membership wins over the forbidden mark

    @given(st.sampled_from(ALL_OPERATORS), prefixes())
    @settings(max_examples=200, deadline=None)
    def test_word_lengths_and_star_placement(self, op, prefix):
        result = decode(op, prefix)
        assert len(result.ternary) == prefix.horizon
        assert len(result.bits) == prefix.horizon - result.ternary.count("*")
        # elements render as '1'; stars never sit on elements
        for position, symbol in enumerate(result.ternary, start=1):
            if position in prefix.members():
                assert symbol == "1"
            else:
                assert symbol in "0*"

    @given(st.sampled_from(ALL_OPERATORS), prefixes())
    @settings(max_examples=150, deadline=None)
    def test_membership_agrees_with_violations(self, op, prefix):
        assert is_member(op, prefix) == (not decode(op, prefix).violations)


class TestDecodeMatchesReference:
    """The decoder against one ``apply_J`` per gap and per element."""

    @pytest.mark.parametrize("op", EVERY_OPERATOR, ids=str)
    def test_dense_prefixes(self, op):
        rng = random.Random(f"dense/{op}")
        non_members = covered = 0
        for _ in range(15):
            horizon = rng.randint(1, 60)
            density = rng.uniform(0.3, 0.9)
            elements = tuple(a for a in range(1, horizon + 1) if rng.random() < density)
            prefix = IntSetPrefix(elements, horizon)
            expected = reference_decode(op, prefix)
            assert decode(op, prefix) == expected
            non_members += bool(expected.violations)
            # Some violated element forbids, with those below it, every later position.
            covered += any("0" not in expected.ternary[v:] for v in expected.violations)
        if op.k is None or op.k >= 4:
            assert non_members >= 10
            assert covered >= 5

    @given(
        st.one_of(
            st.tuples(
                st.sampled_from(ALL_OPERATORS),
                st.sets(st.integers(1, 30), min_size=1, max_size=8),
            ),
            # Lacunary sets: gaps of up to 10^5 values.
            st.tuples(
                st.sampled_from([OperatorKind("fs"), OperatorKind("normk", 9)]),
                st.sets(st.integers(1, 10**5), min_size=1, max_size=6),
            ),
        ),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_drawn_prefixes_with_lacunary_gaps(self, case, data):
        op, elements = case
        prefix = IntSetPrefix.of(elements, max(elements) + data.draw(st.integers(0, 10)))
        assert decode(op, prefix) == reference_decode(op, prefix)

    @pytest.mark.parametrize("op_text", FREE_AFTER)
    def test_free_position_at_and_past_the_horizon(self, op_text):
        op = parse_operator(op_text)
        elements, free = FREE_AFTER[op_text]
        stars = "*" * (free - elements[-1] - 1)
        # Only the horizon stays allowed, then none: the last element covers the rest.
        for horizon, tail in ((free, "1" + stars + "0"), (free - 1, "1" + stars)):
            result = decode(op, IntSetPrefix(elements, horizon))
            assert result == reference_decode(op, IntSetPrefix(elements, horizon))
            assert result.ternary.endswith(tail)
            assert result.violations[-1] == elements[-1]


class TestOneRender:
    """The one-render decode under ``coprime`` and ``fs`` against the
    reference decode, which factors by trial division and sums the subsets
    itself: it shares no code with the oracles' ``add``."""

    @staticmethod
    def check(op, prefix):
        result = decode(op, prefix)
        assert result == reference_decode(op, prefix)
        return result

    @pytest.mark.parametrize("op", [OperatorKind("coprime"), OperatorKind("fs")], ids=str)
    @given(prefix=prefixes(max_horizon=300))
    @settings(max_examples=200, deadline=None)
    def test_drawn_prefixes(self, op, prefix):
        self.check(op, prefix)

    @pytest.mark.parametrize(
        "op, elements, horizon",
        [
            (OperatorKind("coprime"), (), 0),
            (OperatorKind("coprime"), (1,), 1),
            (OperatorKind("coprime"), (1,), 10),
            (OperatorKind("coprime"), (1, 2, 3, 4), 10),
            # the first element of 5 at the horizon marks nothing
            (OperatorKind("coprime"), (5,), 5),
            (OperatorKind("coprime"), (2, 4), 4),
            (OperatorKind("coprime"), (3, 9), 9),
            (OperatorKind("coprime"), (2, 3, 5, 7, 11), 11),
            (OperatorKind("coprime"), (4, 8, 9, 27), 40),
            # pairwise not coprime, with no common prime
            (OperatorKind("coprime"), (6, 10, 15), 40),
            (OperatorKind("coprime"), (4, 6, 9), 30),
            (OperatorKind("fs"), (), 0),
            (OperatorKind("fs"), (1,), 10),  # a single member forbids nothing above it
            (OperatorKind("fs"), (1, 2, 3), 10),  # 3 = 1 + 2 is violated
            (OperatorKind("fs"), (1, 2, 4, 7), 20),  # 7 = 1 + 2 + 4 is violated
            (OperatorKind("fs"), (3, 5, 8, 13), 30),  # 8 = 3 + 5, and 13 = 5 + 8
            (OperatorKind("fs"), (1, 2, 4), 4),  # an allowed element at the horizon
            (OperatorKind("fs"), (2, 5, 7), 7),  # 7 = 2 + 5 at the horizon
        ],
    )
    def test_edges(self, op, elements, horizon):
        self.check(op, IntSetPrefix(elements, horizon))

    def test_subset_sums_that_fill_an_interval(self):
        # 1, 2, 4, ..., 2**19 forbid every position below 2**20 that is not
        # one of them, and 2**20 is free.  The encoder refuses that word: its
        # last candidate lies past the candidate ceiling.
        prefix = IntSetPrefix(tuple(1 << i for i in range(20)), 1 << 20)
        result = decode(OperatorKind("fs"), prefix)
        assert result.ternary == "".join(
            "1" if v & (v - 1) == 0 else "*" for v in range(1, 1 << 20)) + "0"
        assert result.bits == "1" * 20 + "0"
        assert result.violations == ()
        with pytest.raises(CandidateCeilingExceeded):
            encode(OperatorKind("fs"), result.bits)

    @pytest.mark.parametrize("seed", range(4))
    def test_shared_primes_and_prime_powers(self, seed):
        rng = random.Random(f"coprime-render/{seed}")
        powers = [4, 8, 9, 27, 16, 25, 125, 49, 343, 6, 10, 15, 30, 210]
        violated = 0
        for _ in range(50):
            horizon = rng.randint(1, 3000)
            elements = {a for a in rng.sample(powers, rng.randint(0, 8)) if a <= horizon}
            # Multiples of a few small primes share them with the powers.
            for p in rng.sample(FIRST_PRIMES, 3):
                if p <= horizon:
                    elements.update(rng.randrange(p, horizon + 1, p) for _ in range(4))
            elements.update(rng.sample(range(1, horizon + 1), min(horizon, rng.randint(0, 40))))
            result = self.check(OperatorKind("coprime"), IntSetPrefix.of(elements, horizon))
            violated += bool(result.violations)
        assert violated >= 40

    @pytest.mark.parametrize("seed", range(3))
    def test_elements_past_the_sieve(self, seed):
        # Primes near 2**21 and products of two primes above 2**10 are
        # factored by trial division.
        rng = random.Random(f"coprime-render/large/{seed}")
        large = [n for n in range(2**21 - 300, 2**21 + 300) if prime_factors(n) == [n]]
        small = [n for n in range(1025, 1200) if prime_factors(n) == [n]]
        semiprimes = [p * q for p, q in zip(small, small[1:])]
        assert min(semiprimes) >= 2**20
        primes = rng.sample(large, 3)
        elements = set(primes) | set(rng.sample(semiprimes, 4))
        # Small elements that bring some factors of the semiprimes first, and
        # a multiple above a large prime that shares it.
        elements.update(2 * p for p in rng.sample(small, 3))
        elements.add(3 * primes[0])
        elements.update(rng.sample(range(1, 5000), 30))
        horizon = max(elements) + rng.randint(0, 3000)
        result = self.check(OperatorKind("coprime"), IntSetPrefix.of(elements, horizon))
        assert 3 * primes[0] in result.violations


class TestSubsetSumWidth:
    """A decode under ``fs`` keeps no subset sum past its horizon, and the
    membership tests none past the last element, so a dense prefix costs at
    most one ``add`` per element over a mask as wide as the prefix, not as
    wide as the sum of its elements (n**2 / 2 bits for 1..n).  Once the sums
    cover the horizon, the adds stop shifting."""

    @pytest.fixture
    def made(self, monkeypatch):
        made = []
        make = operators.incremental_oracle
        for module in (codec, dynamics, operators):
            monkeypatch.setattr(module, "incremental_oracle", lambda *a: made.append(make(*a)) or made[-1])
        return made

    @pytest.mark.parametrize("n", [2_000, 20_000])
    def test_a_dense_non_member(self, n, made):
        result = decode(OperatorKind("fs"), IntSetPrefix(tuple(range(1, n + 1)), n + 1))
        # Each element from 3 = 1 + 2 on is a sum of smaller ones, and so is n + 1.
        assert result.ternary == "1" * n + "*"
        assert result.violations == tuple(range(3, n + 1))
        assert made[0]._mask.bit_length() <= n + 2
        # The sums of 1..m cover [3, m * (m + 1) / 2], past the horizon once
        # m is about sqrt(2 * n); the adds stop shifting by twice that m.
        assert made[0]._members.bit_length() - 1 <= 2 * isqrt(2 * n) + 2

    def test_a_dense_member(self, made):
        # No two elements above n / 2 sum to n or less, so they are a member
        # whose subset sums reach 3 * n**2 / 8.
        n = 10_000
        prefix = IntSetPrefix(tuple(range(n // 2 + 1, n + 1)), n)
        result = decode(OperatorKind("fs"), prefix)
        assert result.ternary == "0" * (n // 2) + "1" * (n // 2)
        assert result.violations == ()
        assert is_member(OperatorKind("fs"), prefix)
        assert dynamics.is_encoder_fixed_point(OperatorKind("fs"), prefix)
        assert [oracle._mask.bit_length() <= n + 1 for oracle in made] == [True] * 3


class TestDecodeGaps:
    """The '*' positions of the gap above the i-th element are J of the first
    i elements on that gap, up to the horizon for the last element."""

    @staticmethod
    def gap(op, prefix, i):
        """The bounds and decoded symbols of gap i; gap 0 lies below the
        first element."""
        elements = prefix.elements
        lo = elements[i - 1] + 1 if i else 1
        hi = elements[i] - 1 if i < len(elements) else prefix.horizon
        return lo, hi, decode(op, prefix).ternary[lo - 1 : hi]

    def test_norm_seven_gap(self):
        # 6 - 2*3 = 0 has norm 5; 4 and 5 are free.
        prefix = IntSetPrefix((3, 7), 10)
        assert self.gap(OperatorKind("normk", 7), prefix, 1) == (4, 6, "00*")

    def test_sum_free_gap(self):
        assert self.gap(OperatorKind("sumfree"), IntSetPrefix((1, 3), 6), 1) == (2, 2, "*")

    def test_tail_gap_runs_to_the_horizon(self):
        # 4 = 1 + 3 and 6 = 3 + 3; 5 is no sum of two of {1, 3}.
        assert self.gap(OperatorKind("sumfree"), IntSetPrefix((1, 3), 6), 2) == (4, 6, "*0*")

    def test_adjacent_elements_leave_no_gap(self):
        prefix = IntSetPrefix((2, 3), 5)
        assert self.gap(OperatorKind("sumfree"), prefix, 1) == (3, 2, "")
        assert self.gap(OperatorKind("sumfree"), prefix, 2) == (4, 5, "**")

    @given(st.sampled_from(ALL_OPERATORS), prefixes(max_horizon=60), st.data())
    @settings(max_examples=150, deadline=None)
    def test_gap_depends_only_on_the_elements_below(self, op, prefix, data):
        # Gap i of the prefix is the tail gap of its first i elements cut at
        # the gap's end; violated elements among them take the decoder's
        # shortcut in one and not in the other.
        i = data.draw(st.integers(0, len(prefix.elements)))
        lo, hi, symbols = self.gap(op, prefix, i)
        head = IntSetPrefix(prefix.elements[:i], hi)
        assert self.gap(op, head, i) == (lo, hi, symbols)

    @given(st.sampled_from(ALL_OPERATORS), prefixes(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_stars_are_the_values_membership_refuses(self, op, prefix, data):
        # Keep the drawn elements that keep the set a member; then a gap
        # position is '*' exactly when adding it to the elements below it
        # breaks membership.
        kept: tuple[int, ...] = ()
        for a in prefix.elements:
            if is_member(op, IntSetPrefix(kept + (a,), a)):
                kept += (a,)
        member = IntSetPrefix(kept, prefix.horizon)
        ternary = decode(op, member).ternary
        for p in range(1, member.horizon + 1):
            if p in kept:
                continue
            below = tuple(a for a in kept if a < p)
            refused = not is_member(op, IntSetPrefix(below + (p,), p))
            assert (ternary[p - 1] == "*") == refused, p


class TestWalkMemory:
    """A ``normk`` decode for k >= 5 holds about four bytes per position at
    its peak: the walk's one byte per position, the ternary word, and the
    bit word with the translation it is decoded from."""

    def test_peak_per_position(self):
        horizon = 5_000_000
        tracemalloc.start()
        try:
            result = decode(OperatorKind("normk", 7), IntSetPrefix((2, 3), horizon))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.ternary[:9] == "011*****0"
        assert result.violations == ()
        assert peak <= 5 * horizon


class TestRoundTrip:
    @pytest.mark.parametrize("op", ALL_OPERATORS, ids=str)
    def test_empty_word(self, op):
        assert roundtrip_ok(op, "")

    def test_sieve_roundtrip(self):
        assert roundtrip_ok(OperatorKind("coprime"), "0111111111")

    @given(st.sampled_from(ALL_OPERATORS), bit_words)
    @settings(max_examples=250, deadline=None)
    def test_decode_inverts_encode(self, op, word):
        result = encode(op, word)
        decoded = decode(op, result.accepted)
        assert decoded.bits == word

    @given(st.sampled_from(ALL_OPERATORS), bit_words)
    @settings(max_examples=100, deadline=None)
    def test_encode_inverts_decode_on_members(self, op, word):
        member = encode(op, word).accepted
        decoded = decode(op, member)
        rebuilt = encode(op, decoded.bits).accepted
        common = min(member.horizon, rebuilt.horizon)
        assert rebuilt.truncate(common) == member.truncate(common)


class TestPrefixStability:
    @given(st.sampled_from(ALL_OPERATORS), bit_words, st.data())
    @settings(max_examples=120, deadline=None)
    def test_encode_depends_only_on_the_prefix(self, op, word, data):
        cut = data.draw(st.integers(0, len(word)))
        suffix = data.draw(st.text(alphabet="01", max_size=16))
        a = encode(op, word)
        b = encode(op, word[:cut] + suffix)
        steps = min(cut, len(word[:cut] + suffix))
        if steps == 0:
            return
        consumed_a = sorted(a.accepted.members() | a.rejected.members())[:steps]
        consumed_b = sorted(b.accepted.members() | b.rejected.members())[:steps]
        assert consumed_a == consumed_b
        boundary = consumed_a[-1]
        assert {x for x in a.accepted.elements if x <= boundary} == {
            x for x in b.accepted.elements if x <= boundary
        }

    @given(st.sampled_from(ALL_OPERATORS), prefixes(max_horizon=30), st.data())
    @settings(max_examples=120, deadline=None)
    def test_decode_depends_only_on_the_prefix(self, op, prefix, data):
        if prefix.horizon == 0:
            return
        cut = data.draw(st.integers(1, prefix.horizon))
        extra = data.draw(st.sets(st.integers(cut + 1, prefix.horizon + 10)))
        horizon = max([prefix.horizon + 10])
        low = {a for a in prefix.elements if a <= cut}
        a = decode(op, prefix)
        b = decode(op, IntSetPrefix.of(low | extra, horizon))
        assert a.ternary[:cut] == b.ternary[:cut]


# Oracle calls of decoding (1, 2, 3, 5, 8) @ 12.
NON_MEMBER_CALLS = {
    "sumfree": {"add": 5, "forbidden_through": 1},
    "normk:7": {"forbidden_in": 2, "forbids": 2, "next_allowed": 3, "add": 4},
    "coprime": {"add": 5, "forbidden_through": 1},
    "fs": {"add": 5, "forbidden_through": 1},
    "normk:4": {"add": 5, "forbidden_through": 1},
    "normk:9": {"forbidden_in": 2, "forbids": 2, "next_allowed": 3, "add": 4},
}

class TestOracleCallCounts:
    """Encode and decode cost one oracle call per bit, gap or element, never
    one per integer scanned."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts: dict[str, int] = {}
        make = codec.incremental_oracle
        monkeypatch.setattr(
            codec, "incremental_oracle", lambda *a: CountingOracle(make(*a), counts)
        )
        return counts

    @pytest.mark.parametrize("op", ALL_OPERATORS, ids=str)
    def test_encode_and_decode(self, op, counts):
        rng = random.Random(str(op))
        for length in (0, 1, 7, 20):
            word = "".join(rng.choice("01") for _ in range(length))
            counts.clear()
            accepted = encode(op, word).accepted
            n = len(accepted.elements)
            tail = accepted.horizon > max(accepted.elements, default=0)
            # An element at the horizon is added to no oracle: nothing reads it.
            adds = n - (n > 0 and not tail)
            assert counts.get("next_allowed", 0) == len(word)
            assert counts.get("forbids", 0) == 0
            assert counts.get("add", 0) == adds
            counts.clear()
            decode(op, accepted)
            if op in ONE_RENDER_OPERATORS:
                # The adds, then one render of the final set: no call per gap.
                assert {"add": 0, **counts} == {"add": adds, "forbidden_through": 1}
                continue
            # Each element is read off the window of the gap below it.
            assert counts.get("forbidden_in", 0) == n + tail
            assert counts.get("forbids", 0) == 0
            assert counts.get("add", 0) == adds
            # Only a violated element starts the search for a free position.
            assert counts.get("next_allowed", 0) == 0
        # A non-member with adjacent elements: a gap's window also tells
        # whether the element after it is forbidden, and an element right
        # after its predecessor is read off a one-position window.  After
        # each violated element ``next_allowed`` finds the least position
        # still allowed, unless one more probe finds the last one found still
        # allowed.  An element below that position, and its gap, take no
        # call.  Under normk:7 and normk:9 only 1 and 2 take windows, 3 and 5
        # lie below that position, and the elements up to 5 forbid 6..12, so
        # 8 is not added.  Under sumfree, normk:4, coprime and fs the decode
        # has no stop rule: it adds every element and renders the final set
        # once.
        counts.clear()
        decode(op, IntSetPrefix((1, 2, 3, 5, 8), 12))
        assert counts == NON_MEMBER_CALLS[str(op)]

    def test_a_covered_start_stops_adding(self, counts):
        # A random 200-of-2000 start, as an orbit begins: the first 31
        # elements under normk:9 forbid every later position.
        rng = random.Random("covered")
        start = IntSetPrefix(tuple(sorted(rng.sample(range(1, 2001), 200))), 2000)
        result = decode(OperatorKind("normk", 9), start)
        assert counts["add"] == 31
        assert result.violations[-169:] == start.elements[31:]
        assert set(result.ternary[start.elements[30] :]) == {"*", "1"}
