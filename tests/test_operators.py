import random

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from sievecodec import (
    IntSetPrefix,
    apply_Ji,
    coprime,
    encode,
    finite_sums,
    is_member,
    norm_k,
    parse_operator,
    prime_factors,
    sum_free,
)
from sievecodec.operators import incremental_oracle
from conftest import ALL_OPERATORS, CLOSED_OPERATORS
from reference import apply_J


class TestOperatorKind:
    @pytest.mark.parametrize("text", ["sumfree", "normk:7", "coprime", "fs"])
    def test_parse_format_roundtrip(self, text):
        assert str(parse_operator(text)) == text

    def test_rejects_unknown_and_malformed(self):
        for bad in ["sumfrei", "normk", "normk:x", "normk:1", "sumfree:3", "fs:2"]:
            with pytest.raises(ValueError):
                parse_operator(bad)

    def test_norm_bound_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            norm_k(1)

    def test_norm_bound_cap(self):
        with pytest.raises(ValueError):
            norm_k(17)


class TestPrimeFactors:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, set()), (2, {2}), (12, {2, 3}), (97, {97}), (360, {2, 3, 5})],
    )
    def test_examples(self, n, expected):
        assert prime_factors(n) == frozenset(expected)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            prime_factors(0)


class TestApplyJ:
    """The reference J of ``reference.py``, which the oracles are tested against."""

    def test_empty_set_forbids_nothing(self):
        for op in ALL_OPERATORS:
            assert apply_J(op, set(), 1, 100) == set()

    def test_sum_free_pair_sums(self):
        assert apply_J(sum_free(), {1, 3}, 1, 7) == {2, 4, 6}

    def test_norm_seven_doubles_a_singleton(self):
        assert apply_J(norm_k(7), {3}, 4, 10) == {6}

    def test_coprime_marks_multiples_of_prime_factors(self):
        assert apply_J(coprime(), {6}, 1, 10) == {2, 3, 4, 6, 8, 9, 10}

    def test_finite_sums_subset_sums(self):
        assert apply_J(finite_sums(), {1, 2}, 1, 5) == {1, 2, 3}

    def test_rejects_interval_below_one(self):
        with pytest.raises(ValueError):
            apply_J(sum_free(), {1}, 0, 5)

    def test_empty_interval_is_empty(self):
        assert apply_J(sum_free(), {1, 2}, 5, 4) == set()

    def test_coprime_ignores_one(self):
        assert apply_J(coprime(), {1}, 1, 10) == set()

    def test_norm_k_on_values_inside_the_set(self):
        # 2*3 - 6 = 0 anchors 6 even though 6 is a member.
        assert 6 in apply_J(norm_k(7), {3, 6}, 1, 10)
        # 3 is anchored by the same relation read the other way.
        assert 3 in apply_J(norm_k(7), {3, 6}, 1, 10)

    @given(
        st.sampled_from(ALL_OPERATORS),
        st.sets(st.integers(1, 25), max_size=6),
        st.sets(st.integers(1, 25), max_size=4),
    )
    @settings(max_examples=150)
    def test_monotone_in_the_set(self, op, small, extra):
        grown = small | extra
        assert apply_J(op, small, 1, 40) <= apply_J(op, grown, 1, 40)


class TestApplyJi:
    def test_norm_seven_gap(self):
        prefix = IntSetPrefix((3, 7), 10)
        assert apply_Ji(norm_k(7), prefix, 1) == {6}

    def test_sum_free_gap(self):
        prefix = IntSetPrefix((1, 3), 6)
        assert apply_Ji(sum_free(), prefix, 1) == {2}

    def test_tail_gap_runs_to_the_horizon(self):
        prefix = IntSetPrefix((1, 3), 6)
        assert apply_Ji(sum_free(), prefix, 2) == {4, 6}

    def test_adjacent_elements_leave_no_gap(self):
        prefix = IntSetPrefix((2, 3), 5)
        assert apply_Ji(sum_free(), prefix, 1) == set()

    def test_rejects_out_of_range_index(self):
        prefix = IntSetPrefix((2, 3), 5)
        for i in (0, 3):
            with pytest.raises(ValueError):
                apply_Ji(sum_free(), prefix, i)

    @given(
        st.one_of(
            st.tuples(
                st.sampled_from(ALL_OPERATORS),
                st.sets(st.integers(1, 30), min_size=1, max_size=8),
            ),
            # Lacunary sets: gaps of up to 10^5 values.
            st.tuples(
                st.sampled_from([finite_sums(), norm_k(9)]),
                st.sets(st.integers(1, 10**5), min_size=1, max_size=6),
            ),
        ),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_is_exactly_the_interval_restriction(self, case, data):
        op, elements = case
        prefix = IntSetPrefix.of(elements, max(elements) + data.draw(st.integers(0, 10)))
        i = data.draw(st.integers(1, len(prefix.elements)))
        head = prefix.elements[:i]
        lo = head[-1] + 1
        hi = prefix.elements[i] - 1 if i < len(prefix.elements) else prefix.horizon
        assert apply_Ji(op, prefix, i) == apply_J(op, head, lo, hi)


class TestIsMember:
    def test_sum_free_examples(self):
        assert is_member(sum_free(), IntSetPrefix((1, 3, 5), 6))
        assert not is_member(sum_free(), IntSetPrefix((1, 2), 3))

    def test_norm_k_example(self):
        # 5 + 3 - 2*4 = 0 has norm 6 < 7.
        assert not is_member(norm_k(7), IntSetPrefix((3, 4, 5), 6))

    def test_coprime_primes_are_members(self):
        assert is_member(coprime(), IntSetPrefix((2, 3, 5, 7), 10))

    def test_empty_and_singletons_always_members(self):
        for op in ALL_OPERATORS:
            assert is_member(op, IntSetPrefix((), 5))
            assert is_member(op, IntSetPrefix((4,), 5))

    def test_finite_sums_distinguishes_repeats(self):
        # 2 = 1 + 1 needs the same element twice: forbidden for sumfree,
        # fine for subset sums.
        assert not is_member(sum_free(), IntSetPrefix((1, 2), 3))
        assert is_member(finite_sums(), IntSetPrefix((1, 2), 3))
        assert not is_member(finite_sums(), IntSetPrefix((1, 2, 3), 4))

    def test_norm_family_is_nested(self):
        rng = random.Random(11)
        for _ in range(60):
            word = "".join(rng.choice("01") for _ in range(24))
            member = encode(norm_k(8), word).accepted
            assert is_member(norm_k(8), member)
            assert is_member(norm_k(7), member)
            assert is_member(norm_k(4), member)

    def test_subset_closure_of_the_three_closed_families(self):
        rng = random.Random(23)
        for op in CLOSED_OPERATORS:
            for _ in range(40):
                word = "".join(rng.choice("01") for _ in range(20))
                member = encode(op, word).accepted
                elements = list(member.elements)
                for _ in range(8):
                    subset = [a for a in elements if rng.random() < 0.6]
                    assert is_member(op, IntSetPrefix.of(subset, member.horizon))

    def test_finite_sums_closure_status_is_recorded_not_asserted(self):
        # Whether the family built by the finite-sums operator is closed
        # under subsets is an open question; scan samples and report.
        rng = random.Random(31)
        counterexamples = 0
        trials = 0
        for _ in range(40):
            word = "".join(rng.choice("01") for _ in range(20))
            member = encode(finite_sums(), word).accepted
            for _ in range(8):
                subset = [a for a in member.elements if rng.random() < 0.6]
                trials += 1
                if not is_member(finite_sums(), IntSetPrefix.of(subset, member.horizon)):
                    counterexamples += 1
        print(
            f"\nfinite-sums subset closure: {trials} sampled subsets, "
            f"{counterexamples} counterexamples"
        )
        assert trials > 0


def _window_edges(op, oracle, elements):
    """Values where an oracle's state changes how it answers."""
    edges = [1, max(elements, default=0) + 1]
    if op.kind == "normk":
        y = 1
        while y * y < op.k:
            edges.append(oracle._table.reach // y)  # above it, y forbids nothing
            y += 1
    elif op.kind == "coprime":
        edges.append(len(oracle._marks))
    elif op.kind == "fs":
        edges.append(sum(elements))
    else:
        edges.append(2 * max(elements, default=0))
    return edges


def _first_allowed(oracle, c):
    while oracle.forbids(c):
        c += 1
    return c


def _reference(op, elements, lo, hi):
    """The values in [lo, hi] outside ``elements`` that ``elements`` forbid,
    computed apart from the oracle."""
    return apply_J(op, elements, lo, hi) - elements


class TestOracleProtocol:
    """``forbidden_in`` and ``next_allowed`` agree with ``forbids`` and with
    the reference ``apply_J``."""

    def check(self, op, elements, data):
        oracle = incremental_oracle(op)
        for e in sorted(elements):
            oracle.add(e)
        edge = data.draw(st.sampled_from(_window_edges(op, oracle, elements)))
        lo = max(1, edge + data.draw(st.integers(-70, 3)))
        hi = lo + data.draw(st.integers(-1, 140))
        window = oracle.forbidden_in(lo, hi)
        assert window.dtype == bool
        assert window.tolist() == [oracle.forbids(v) for v in range(lo, hi + 1)]
        marked = {lo + int(i) for i in np.flatnonzero(window)}
        assert marked - elements == _reference(op, elements, lo, hi)
        # An encoder-like walk from near the edge: runs of rejected bits reuse
        # what the last search found, and every accepted one changes the set.
        c = max(1, edge + data.draw(st.integers(-70, 70)))
        for bit in data.draw(st.lists(st.booleans(), min_size=1, max_size=6)):
            found = oracle.next_allowed(c)
            assert found == _first_allowed(oracle, c)
            if c > max(elements, default=0):
                assert _reference(op, elements, c, found) == set(range(c, found))
            if bit:
                oracle.add(found)
                elements = elements | {found}
            c = found + 1

    @given(
        st.sampled_from(ALL_OPERATORS),
        st.sets(st.integers(1, 60), max_size=12),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_dense_sets(self, op, elements, data):
        self.check(op, elements, data)

    @given(
        st.sampled_from([finite_sums(), norm_k(9)]),
        st.sets(st.integers(1, 10**5), max_size=6),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_lacunary_sets(self, op, elements, data):
        self.check(op, elements, data)

    @pytest.mark.parametrize("k", range(2, 17))
    def test_every_norm_bound(self, k):
        # A value is forbidden through a relation of norm up to k - 1, so
        # every cost up to k - 2 of the oracle's table is read; nothing is
        # forbidden past (k - 2) times the largest element.
        rng = random.Random(k)
        op = norm_k(k)
        for _ in range(20):
            elements = set(rng.sample(range(1, 40), rng.randint(1, 6)))
            oracle = incremental_oracle(op)
            for e in sorted(elements):
                oracle.add(e)
            hi = k * max(elements)
            window = oracle.forbidden_in(1, hi)
            assert window.tolist() == [oracle.forbids(v) for v in range(1, hi + 1)]
            marked = {1 + int(i) for i in np.flatnonzero(window)}
            assert marked - elements == _reference(op, elements, 1, hi)
            c = max(elements) + 1
            assert oracle.next_allowed(c) == _first_allowed(oracle, c)

    @pytest.mark.parametrize("op", ALL_OPERATORS, ids=str)
    def test_long_runs_of_rejections(self, op):
        # Many rejected bits in a row walk through several cached windows.
        rng = random.Random(str(op))
        for _ in range(5):
            oracle = incremental_oracle(op)
            for e in sorted(rng.sample(range(1, 200), rng.randint(1, 5))):
                oracle.add(e)
            c = 200
            for _ in range(300):
                found = oracle.next_allowed(c)
                assert found == _first_allowed(oracle, c)
                c = found + 1
