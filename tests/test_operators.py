import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from sievecodec import (
    IntSetPrefix,
    OperatorKind,
    codec,
    completeness_sufficient_condition,
    decode,
    decode_orbit,
    dynamics,
    encode,
    encoder_fixed_points,
    find_limit,
    is_encoder_fixed_point,
    is_member,
    operators,
    parse_operator,
    ultimately_complete_on,
)
from sievecodec.operators import (
    _FIRST_WINDOW,
    _MASK_WINDOW,
    _SPF_CAP,
    FactorBoundExceeded,
    _NormLevels,
    _NormOracle,
    branching_oracle,
    incremental_oracle,
    prime_factors,
)
from conftest import ALL_OPERATORS, EVERY_OPERATOR, ONE_RENDER_OPERATORS, ProtocolOracle
import reference
from reference import apply_J


class TestOperatorKind:
    @pytest.mark.parametrize("text", ["sumfree", "normk:7", "coprime", "fs"])
    def test_parse_format_roundtrip(self, text):
        assert str(parse_operator(text)) == text

    def test_rejects_unknown_and_malformed(self):
        for bad in ["sumfrei", "normk", "normk:x", "normk:1", "sumfree:3", "fs:2",
                    "normk:", "fs:", "sumfree:", "coprime:"]:
            with pytest.raises(ValueError):
                parse_operator(bad)

    def test_norm_bound_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            OperatorKind("normk", 1)

    def test_norm_bound_cap(self):
        with pytest.raises(ValueError):
            OperatorKind("normk", 17)


class TestPrimeFactors:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, []), (2, [2]), (12, [2, 3]), (97, [97]), (360, [2, 3, 5])],
    )
    def test_examples(self, n, expected):
        assert prime_factors(n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            prime_factors(0)

    def test_fresh_sieve_matches_trial_division(self, monkeypatch):
        # Grown by doublings from empty, as a first coprime query grows it.
        monkeypatch.setattr(operators, "_spf", array("I", [0, 1]))
        for n in range(1, 2**16):
            assert prime_factors(n) == sorted(reference.prime_factors(n)), n

    def test_sieve_at_the_cap_is_compact(self, monkeypatch):
        # Four bytes per integer, written by slices: no int object per entry.
        monkeypatch.setattr(operators, "_spf", array("I", [0, 1]))
        _, peak = _peak_bytes(lambda: operators._ensure_spf(_SPF_CAP - 1))
        assert len(operators._spf) == _SPF_CAP
        assert peak < 8 * 2**20
        assert prime_factors(_SPF_CAP - 1) == [3, 5, 11, 31, 41]

    def test_above_the_sieve(self):
        # Past the sieve's cap the factors come from trial division.
        rng = random.Random(3)
        draws = list(range(2**20 - 40, 2**20 + 40)) + rng.sample(range(2**20, 10**9), 200)
        draws += [3_999_971, 2 * 3_999_971, 1009**3, 2**30, 2**20 + 7]
        for n in draws:
            assert prime_factors(n) == sorted(reference.prime_factors(n)), n

    def test_trial_primes_past_the_sieve(self):
        # Past the sieve only primes divide; plain trial division by every
        # integer is the reference.  The products of two primes just below
        # 2**20 need the last primes of the list.
        rng = random.Random(5)
        draws = [rng.randrange(2**20, 2**40) for _ in range(40)]
        top = [p for p in range(2**20 - 1, 2**20 - 100, -1) if reference.prime_factors(p) == {p}]
        draws += [p * q for p in top[:3] for q in top[:3]]
        for n in draws:
            assert prime_factors(n) == sorted(reference.prime_factors(n)), n

    def test_cofactors_at_the_bound(self):
        # Trial division stops at 2**20, so a cofactor left below 2**40 is
        # prime and one of 2**40 or more is refused, prime or not.
        below, above = 2**40 - 87, 2**40 + 15  # the primes on either side of 2**40
        assert reference.prime_factors(below) == {below}
        assert prime_factors(2 * below) == [2, below]
        assert prime_factors((2**20 - 3) * (2**20 + 7)) == [2**20 - 3, 2**20 + 7]
        for n in (above, 3 * above, (2**20 + 7) ** 2, 2**61 - 1):
            with pytest.raises(FactorBoundExceeded, match=f"^cannot factor {n}: .*bound 1048576"):
                prime_factors(n)

    def test_a_large_prime_sieves_only_past_its_root(self):
        # Its root is 2,000, so the primes below 2**11 suffice, not all
        # 82,025 below 2**20.
        operators._primes_below.cache_clear()
        factors, peak = _peak_bytes(lambda: prime_factors(3_999_971))
        assert factors == [3_999_971]
        assert peak < 64 * 2**10


def _peak_bytes(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCoprimeMemory:
    """A large integer allocates nothing in proportion to its size: neither
    the prime-factor sieve nor the coprime oracle's marks grow to it."""

    def test_prime_factors_of_a_large_prime(self):
        factors, peak = _peak_bytes(lambda: prime_factors(3_999_971))
        assert factors == sorted(reference.prime_factors(3_999_971)) == [3_999_971]
        assert peak < 2**20

    @pytest.mark.parametrize("elements", [
        (2, 4_000_037), (2, 4_000_038), (3_999_971, 4_000_037, 3 * 3_999_971)], ids=str)
    def test_membership_of_large_elements(self, elements):
        prefix = IntSetPrefix(elements, elements[-1])
        member, peak = _peak_bytes(lambda: is_member(OperatorKind("coprime"), prefix))
        assert member == all(a not in apply_J(OperatorKind("coprime"), elements[:i], a, a)
                             for i, a in enumerate(elements))
        assert peak < 2**20

    def test_membership_of_a_geometric_chain(self):
        # Primes each about 1.9 times the last, up to past 8 * 10**6: every
        # probe lies within a doubling of the marks, and growing them to it
        # each time would take marks as long as the largest element.
        chain = [2]
        while chain[-1] < 8 * 10**6:
            p = int(1.9 * chain[-1]) + 1
            while reference.prime_factors(p) != {p}:
                p += 1
            chain.append(p)
        prime_factors(_SPF_CAP - 1)  # the sieve at its cap: its memory is not the oracle's
        for elements in (tuple(chain), (*chain, 3 * chain[-1])):
            prefix = IntSetPrefix(elements, elements[-1])
            member, peak = _peak_bytes(lambda: is_member(OperatorKind("coprime"), prefix))
            assert member == all(a not in apply_J(OperatorKind("coprime"), elements[:i], a, a)
                                 for i, a in enumerate(elements))
            assert member == (elements == tuple(chain))
            assert peak < 2 * 2**20


class TestSubsetSumMemory:
    """The ``fs`` oracle keeps no sum past the last value a sweep asks
    about, and builds the ones that cut its sums only once a sum passes it,
    so a far last element allocates nothing in proportion to its size."""

    @pytest.mark.parametrize("last", [10**9, 2**61 - 1], ids=str)
    def test_a_far_last_element(self, last):
        prefix = IntSetPrefix((2, 3, last), last)
        member, peak = _peak_bytes(lambda: is_member(OperatorKind("fs"), prefix))
        assert member and peak < 2**20
        # 1 is allowed and not in the set, so the encoder would accept it.
        fixed, peak = _peak_bytes(lambda: is_encoder_fixed_point(OperatorKind("fs"), prefix))
        assert not fixed and peak < 2**20


class TestApplyJ:
    """The reference J of ``reference.py``, which the oracles are tested against."""

    def test_empty_set_forbids_nothing(self):
        for op in ALL_OPERATORS:
            assert apply_J(op, set(), 1, 100) == set()

    def test_sum_free_pair_sums(self):
        assert apply_J(OperatorKind("sumfree"), {1, 3}, 1, 7) == {2, 4, 6}

    def test_norm_seven_doubles_a_singleton(self):
        assert apply_J(OperatorKind("normk", 7), {3}, 4, 10) == {6}

    def test_coprime_marks_multiples_of_prime_factors(self):
        assert apply_J(OperatorKind("coprime"), {6}, 1, 10) == {2, 3, 4, 6, 8, 9, 10}

    def test_finite_sums_subset_sums(self):
        assert apply_J(OperatorKind("fs"), {1, 2}, 1, 5) == {1, 2, 3}

    def test_rejects_interval_below_one(self):
        with pytest.raises(ValueError):
            apply_J(OperatorKind("sumfree"), {1}, 0, 5)

    def test_empty_interval_is_empty(self):
        assert apply_J(OperatorKind("sumfree"), {1, 2}, 5, 4) == set()

    def test_coprime_ignores_one(self):
        assert apply_J(OperatorKind("coprime"), {1}, 1, 10) == set()

    def test_norm_k_on_values_inside_the_set(self):
        # 2*3 - 6 = 0 anchors 6 even though 6 is a member.
        assert 6 in apply_J(OperatorKind("normk", 7), {3, 6}, 1, 10)
        # 3 is anchored by the same relation read the other way.
        assert 3 in apply_J(OperatorKind("normk", 7), {3, 6}, 1, 10)

    @given(
        st.sampled_from(ALL_OPERATORS),
        st.sets(st.integers(1, 25), max_size=6),
        st.sets(st.integers(1, 25), max_size=4),
    )
    @settings(max_examples=150)
    def test_monotone_in_the_set(self, op, small, extra):
        grown = small | extra
        assert apply_J(op, small, 1, 40) <= apply_J(op, grown, 1, 40)


class TestIsMember:
    def test_sum_free_examples(self):
        assert is_member(OperatorKind("sumfree"), IntSetPrefix((1, 3, 5), 6))
        assert not is_member(OperatorKind("sumfree"), IntSetPrefix((1, 2), 3))

    def test_norm_k_example(self):
        # 5 + 3 - 2*4 = 0 has norm 6 < 7.
        assert not is_member(OperatorKind("normk", 7), IntSetPrefix((3, 4, 5), 6))

    def test_coprime_primes_are_members(self):
        assert is_member(OperatorKind("coprime"), IntSetPrefix((2, 3, 5, 7), 10))

    def test_empty_and_singletons_always_members(self):
        for op in ALL_OPERATORS:
            assert is_member(op, IntSetPrefix((), 5))
            assert is_member(op, IntSetPrefix((4,), 5))

    def test_finite_sums_distinguishes_repeats(self):
        # 2 = 1 + 1 needs the same element twice: forbidden for sumfree,
        # fine for subset sums.
        assert not is_member(OperatorKind("sumfree"), IntSetPrefix((1, 2), 3))
        assert is_member(OperatorKind("fs"), IntSetPrefix((1, 2), 3))
        assert not is_member(OperatorKind("fs"), IntSetPrefix((1, 2, 3), 4))

    def test_norm_family_is_nested(self):
        rng = random.Random(11)
        for _ in range(60):
            word = "".join(rng.choice("01") for _ in range(24))
            member = encode(OperatorKind("normk", 8), word).accepted
            assert is_member(OperatorKind("normk", 8), member)
            assert is_member(OperatorKind("normk", 7), member)
            assert is_member(OperatorKind("normk", 4), member)

    def test_families_are_closed_under_subsets(self):
        # The elements of a subset below t are among the member's elements
        # below t, and every J is monotone in its set, so t stays allowed.
        rng = random.Random(23)
        for op in map(parse_operator, ("sumfree", "normk:7", "coprime", "fs")):
            for _ in range(40):
                word = "".join(rng.choice("01") for _ in range(20))
                member = encode(op, word).accepted
                elements = list(member.elements)
                for _ in range(8):
                    subset = [a for a in elements if rng.random() < 0.6]
                    assert is_member(op, IntSetPrefix.of(subset, member.horizon))


def _built(op, elements):
    """A fresh oracle over ``elements``, checked to be asked only above them."""
    oracle = ProtocolOracle(incremental_oracle(op))
    for e in sorted(elements):
        oracle.add(e)
    return oracle


def _window_edges(op, oracle, elements):
    """Values above the set where an oracle's state changes how it answers."""
    edges = [max(elements, default=0) + 1]
    if op.kind == "normk" and op.k <= 4:
        if op.k == 4:
            edges.append(2 * max(elements, default=0))  # the largest pair sum
    elif op.kind == "normk":
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


def _window(oracle, lo, hi):
    """The bytes of [lo, hi], above the set, off the oracle's one render
    call: ``forbidden_through(hi)`` from lo on where it has it, else
    ``forbidden_in(lo, hi)``.  The render is asked of the wrapped oracle,
    past the check that no ``add`` follows it: it changes no state, and the
    walks here go on adding."""
    inner = oracle._inner
    if hasattr(inner, "forbidden_through"):
        assert lo > oracle._top
        render = inner.forbidden_through(hi)
        assert type(render) is bytearray and len(render) == hi
        return bytes(render[lo - 1 :])
    window = oracle.forbidden_in(lo, hi)
    assert type(window) is bytes
    return window


def _checked_window(op, oracle, elements, lo, hi):
    """``_window(oracle, lo, hi)``, checked: one byte per value, 1 where
    ``forbids`` holds and 0 elsewhere, and 1 at the values the reference
    forbids."""
    window = _window(oracle, lo, hi)
    assert len(window) == max(0, hi - lo + 1)
    assert list(window) == [int(oracle.forbids(v)) for v in range(lo, hi + 1)]
    marked = {lo + i for i, forbidden in enumerate(window) if forbidden}
    assert marked == apply_J(op, elements, lo, hi)
    return window


def _checked_next_allowed(op, oracle, elements, c):
    found = oracle.next_allowed(c)
    assert found == _first_allowed(oracle, c)
    assert apply_J(op, elements, c, found) == set(range(c, found))
    return found


class TestOracleProtocol:
    """Above the set, the render call and ``next_allowed`` agree with
    ``forbids`` and with the reference ``apply_J``."""

    def check(self, op, elements, data):
        oracle = _built(op, elements)
        above = max(elements, default=0) + 1
        edge = data.draw(st.sampled_from(_window_edges(op, oracle, elements)))
        lo = max(above, edge + data.draw(st.integers(-70, 3)))
        hi = lo + data.draw(st.integers(-1, 140))
        _checked_window(op, oracle, elements, lo, hi)
        # An encoder-like walk from near the edge: runs of rejected bits reuse
        # what the last search found, and every accepted one changes the set.
        c = max(above, edge + data.draw(st.integers(-70, 70)))
        for bit in data.draw(st.lists(st.booleans(), min_size=1, max_size=6)):
            found = _checked_next_allowed(op, oracle, elements, c)
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
        st.sampled_from([OperatorKind("fs"), OperatorKind("normk", 9), OperatorKind("normk", 4)]),
        st.sets(st.integers(1, 10**5), max_size=6),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_lacunary_sets(self, op, elements, data):
        self.check(op, elements, data)

    @pytest.mark.parametrize(
        "op", [*ALL_OPERATORS, OperatorKind("normk", 2), OperatorKind("normk", 3)], ids=str)
    def test_window_widths(self, op):
        # Widths around the 30-bit digits of an int, a 64-bit word, the mask
        # oracles' 256-bit slice and the norm oracle's first window, and one
        # long window, at starts on either side of a digit boundary, each
        # just above a set drawn below it.  The sets forbid values past the
        # starts, so the windows hold forbidden values and allowed ones.  A
        # one-render oracle also renders [1, width] whole at each width that
        # holds the set, against the reference decode.
        rng = random.Random(f"widths/{op}")
        widths = [0, 1, 29, 30, 31, 63, 64, 65, 255, 256, 257,
                  _FIRST_WINDOW - 1, _FIRST_WINDOW, _FIRST_WINDOW + 1, 3000]
        renders = hasattr(incremental_oracle(op), "forbidden_through")
        for _ in range(2):
            for lo in (29, 30, 31, 59, 60, 61, 119, 120, 121):
                elements = set(rng.sample(range(max(1, lo - 60), lo), 6))
                oracle = _built(op, elements)
                for width in widths:
                    _checked_window(op, oracle, elements, lo, lo + width - 1)
                if renders:
                    expected = reference.decode(op, IntSetPrefix.of(elements, widths[-1]))
                    marks = bytes(
                        int(symbol == "*" or v in expected.violations)
                        for v, symbol in enumerate(expected.ternary, 1))
                    for width in widths:
                        if width >= max(elements):
                            assert oracle._inner.forbidden_through(width) == marks[:width]

    @pytest.mark.parametrize("k", range(2, 17))
    def test_every_norm_bound(self, k):
        # A value is forbidden through a relation of norm up to k - 1, so
        # every cost up to k - 2 of the oracle's table is read; nothing is
        # forbidden past (k - 2) times the largest element.
        rng = random.Random(k)
        op = OperatorKind("normk", k)
        for _ in range(20):
            elements = set(rng.sample(range(1, 40), rng.randint(1, 6)))
            oracle = _built(op, elements)
            c = max(elements) + 1
            _checked_window(op, oracle, elements, c, k * max(elements))
            assert oracle.next_allowed(c) == _first_allowed(oracle, c)

    @pytest.mark.parametrize("k", range(2, 17))
    @pytest.mark.parametrize(
        "draw", [range(1, 61), range(1, 10**5 + 1), range(1000, 1041)],
        ids=["small", "lacunary", "clustered"],
    )
    def test_windows_above_the_set(self, k, draw):
        # Above its largest element the oracle tries only the multipliers y
        # with y**2 + y + 1 < k.  Windows are drawn up to where nothing is
        # forbidden, and around values forbidden there; a window split in two
        # reads as the whole.  Close elements make relations with the
        # largest multiplier the bound allows: at k = 14, 3 * 1358 = 1006 +
        # 1013 + 1024 + 1031 is the only relation that forbids 1358 over
        # those four elements.
        rng = random.Random(f"{k}/{draw}")
        op = OperatorKind("normk", k)
        for _ in range(6):
            elements = set(rng.sample(draw, rng.randint(1, 6)))
            top = max(elements)
            oracle = _built(op, elements)
            edge = max(_window_edges(op, oracle, elements))  # nothing above it is forbidden
            full = _window(oracle, top + 1, edge)
            cut = rng.randint(top + 1, edge)
            assert _window(oracle, top + 1, cut) + _window(oracle, cut + 1, edge) == full
            above = [v for v, forbidden in enumerate(full, top + 1) if forbidden]
            starts = [top + 1, rng.randint(top + 1, max(top + 1, edge))]
            starts += [max(top + 1, f - rng.randint(0, 3))
                       for f in rng.sample(above, min(8, len(above)))]
            for lo in starts:
                _checked_window(op, oracle, elements, lo, lo + rng.randint(0, 70))
                _checked_next_allowed(op, oracle, elements, lo)

    @pytest.mark.parametrize(
        "draw", [range(1, 10**5 + 1), range(1000, 1041)], ids=["lacunary", "clustered"])
    def test_encoder_order_windows(self, draw):
        # The encoder adds each accepted candidate e, asks next_allowed(e + 1)
        # and then walks a run of rejected ones.  The norm oracle starts every
        # search at the value asked about with a _FIRST_WINDOW-wide window
        # that doubles, and keeps no width, so the walks count answers in the
        # first window, answers a window or more past the query, and searches
        # whose first window the table's reach cuts short.  Each walk ends
        # with rejections across the reach.
        rng = random.Random(f"window/{draw}")
        first = later = cut_at_reach = 0
        for k in range(5, 17):
            op = OperatorKind("normk", k)
            for _ in range(2):
                elements = set(rng.sample(draw, rng.randint(1, 4)))
                oracle = _built(op, elements)
                c = max(elements) + 1
                for i in range(16):
                    if i == 12:
                        c = max(c, oracle._table.reach - rng.randint(0, 2 * _FIRST_WINDOW))
                    cut_at_reach += c + _FIRST_WINDOW - 1 > oracle._table.reach
                    found = _checked_next_allowed(op, oracle, elements, c)
                    first += found - c < _FIRST_WINDOW
                    later += found - c >= _FIRST_WINDOW
                    if i < 12 and rng.random() < 0.4:
                        oracle.add(found)
                        elements = elements | {found}
                    c = found + 1
        assert first and later and cut_at_reach

    @pytest.mark.parametrize("op", ALL_OPERATORS, ids=str)
    def test_long_runs_of_rejections(self, op):
        # Many rejected bits in a row walk through several cached windows.
        rng = random.Random(str(op))
        for _ in range(5):
            oracle = _built(op, rng.sample(range(1, 200), rng.randint(1, 5)))
            c = 200
            for _ in range(300):
                found = oracle.next_allowed(c)
                assert found == _first_allowed(oracle, c)
                c = found + 1


class TestMaskWindow:
    """The mask oracles read runs of rejected bits off a kept slice of the
    mask, which stands only while the mask it came from is the oracle's."""

    @pytest.mark.parametrize(
        "op", [parse_operator(text) for text in ("sumfree", "normk:4", "fs")], ids=str)
    def test_encoder_order_across_window_edges(self, op):
        # Walks from above the set that accept or reject each answer, as the
        # encoder does, and count three edges: (a) the free value lies a
        # window or more past the query, so no slice holds it; (b) an
        # accepted value newly forbids a value the kept slice has free, and
        # the next query lands on it; (c) the same after a copy taken with a
        # slice kept, where only the copy accepts.  Under fs, 1, 2, 4, ...,
        # 2**j forbid [1, 2**(j + 1) - 1]; under the others a run of elements
        # from lo forbids a run as long or longer from 2 * lo.
        rng = random.Random(f"mask-window/{op}")
        far = stale = twin_stale = 0
        for _ in range(3):
            if op.kind == "fs":
                base = {1 << i for i in range(rng.randint(9, 11))}
                lo = 0
            else:
                lo = rng.randint(1, 400)
                base = set(range(lo, lo + rng.randint(260, 400)))
            base |= set(rng.sample(range(1, 100), 2))  # short sums reach into the slice
            above = max(base) + 1
            for c in sorted({above, max(above, 2 * lo)}):
                oracle, elements = _built(op, base), base
                for _ in range(30):
                    found = _checked_next_allowed(op, oracle, elements, c)
                    far += found - c >= _MASK_WINDOW
                    c = found + 1
                    if c > 1 << 14:
                        break  # under fs each accepted value can double the forbidden run
                    kept = oracle._window_mask is oracle._mask
                    draw = rng.random()
                    if draw < 0.5:
                        continue  # rejected
                    window, window_lo = oracle._window, oracle._window_lo
                    grower = oracle.copy() if kept and draw < 0.7 else oracle
                    grower.add(found)
                    grown = elements | {found}
                    newly = [v for v in range(found + 1, window_lo + _MASK_WINDOW)
                             if kept and not (window >> (v - window_lo)) & 1 and grower.forbids(v)]
                    if grower is not oracle:
                        if newly:
                            v = rng.choice(newly)
                            _checked_next_allowed(op, grower, grown, v)
                            assert _checked_next_allowed(op, oracle, elements, v) == v
                            twin_stale += 1
                        if rng.random() < 0.5:
                            continue  # the original walks on
                        oracle = grower
                    elements = grown
                    if newly and rng.random() < 0.5:
                        c = rng.choice(newly)
                        stale += 1
        assert far and stale and twin_stale

    @pytest.mark.parametrize("k", [2, 3])
    def test_small_norm_bounds_forbid_nothing(self, k):
        # Above the set normk:2 and normk:3 forbid nothing, so their masks
        # stay empty: every query is free, whatever the walk accepts.
        op = OperatorKind("normk", k)
        rng = random.Random(f"mask-empty/{k}")
        for _ in range(3):
            elements = set(rng.sample(range(1, 400), rng.randint(1, 40)))
            oracle = _built(op, elements)
            c = max(elements) + 1
            for _ in range(40):
                assert _checked_next_allowed(op, oracle, elements, c) == c
                assert not any(_checked_window(op, oracle, elements, c, c + rng.randint(0, 300)))
                if rng.random() < 0.5:
                    oracle.add(c)
                    elements = elements | {c}
                c += rng.randint(1, 300)


# The operators whose ``incremental_oracle`` answers ``copy()``: all but
# ``normk`` with k >= 5, whose branching searches take ``_NormLevels``.
COPYING_OPERATORS = [op for op in ALL_OPERATORS if hasattr(incremental_oracle(op), "copy")]


class TestOracleCopy:
    """A copy and its original, each grown further, answer like fresh
    oracles over their own sets."""

    @given(
        st.sampled_from(COPYING_OPERATORS),
        st.sets(st.integers(1, 60), max_size=8),
        st.sets(st.integers(1, 200), max_size=3),
        st.sets(st.integers(1, 200), max_size=3),
        st.integers(1, 80),
    )
    @settings(max_examples=150, deadline=None)
    def test_copies_grow_apart(self, op, base, more, other, c):
        # Each grows by its own elements above the shared set.
        top = max(base, default=0)
        more, other = ({top + d for d in extra} for extra in (more, other))
        original = _built(op, base)
        original.next_allowed(top + c)  # fills the caches a copy must not share
        twin = original.copy()
        for oracle, extra in ((original, more), (twin, other)):
            for e in sorted(extra):
                oracle.add(e)
        for oracle, elements in ((original, base | more), (twin, base | other)):
            fresh = _built(op, elements)
            above = max(elements, default=0) + 1
            hi = max(_window_edges(op, fresh, elements)) + 70
            window = _checked_window(op, oracle, elements, above, hi)
            assert window == _window(fresh, above, hi)
            for start in (above, above + c, hi):
                assert oracle.next_allowed(start) == fresh.next_allowed(start)

    @pytest.mark.parametrize("seed", range(4))
    def test_coprime_copies_grow_apart_across_growths_of_the_marks(self, seed):
        # The original and its twin take turns: each adds its own elements,
        # then reads past 1,024 and later past 4,096, so each grows its marks
        # after the copy while the other's stay as they were.
        op, rng = OperatorKind("coprime"), random.Random(f"coprime-copy/{seed}")
        base = set(rng.sample(range(2, 300), 4))
        original = _built(op, base)
        original.next_allowed(max(base) + 1)
        pairs = [(original, set(base)), (original.copy(), set(base))]

        def check(oracle, elements, lo, hi):
            fresh = _built(op, elements)
            assert _checked_window(op, oracle, elements, lo, hi) == _window(fresh, lo, hi)
            for start in (lo, (lo + hi) // 2, hi):
                assert oracle.next_allowed(start) == fresh.next_allowed(start)

        for edge in (1024, 4096):
            for turn, (oracle, elements) in enumerate(pairs):
                grown = sorted(rng.sample(range(max(elements) + 1, edge - 100), 3))
                for e in grown:
                    oracle.add(e)
                elements.update(grown)
                check(oracle, elements, edge - rng.randint(1, 99), edge + rng.randint(1, 600))
                assert len(oracle._marks) > edge
                other, other_elements = pairs[1 - turn]
                check(other, other_elements, max(other_elements) + 1, len(other._marks) - 1)


# The unit the levels below are made with.
_UNIT = 64


def _levels(k, elements):
    oracle = _NormLevels(k, _UNIT)
    for e in sorted(elements):
        oracle.add(e)
    return oracle


class TestNormLevels:
    """The big-int ``normk`` (k >= 5) cost levels, which a branching search
    extends and a decode walk within ``_LEVELS_BITS`` reads, answer as the
    windowed oracle and the reference do."""

    @given(st.integers(5, 16), st.sets(st.integers(1, _UNIT), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_table_oracle_and_the_reference(self, k, elements):
        op = OperatorKind("normk", k)
        levels, table = _levels(k, elements), _NormOracle(k)
        for e in sorted(elements):
            table.add(e)
        above = max(elements, default=0) + 1
        forbidden = apply_J(op, elements, above, _UNIT)
        assert [v for v in range(above, _UNIT + 1) if levels.forbids(v)] == sorted(forbidden)
        assert [v for v in range(above, _UNIT + 1) if table.forbids(v)] == sorted(forbidden)

    @given(
        st.integers(5, 16),
        st.sets(st.integers(1, 40), max_size=5),
        st.sets(st.integers(1, 24), max_size=3),
        st.sets(st.integers(1, 24), max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_copies_grow_apart(self, k, base, more, other):
        # Each grows by its own elements above the shared set.
        top = max(base, default=0)
        more, other = ({top + d for d in extra} for extra in (more, other))
        original = _levels(k, base)
        twin = original.copy()
        for oracle, extra in ((original, more), (twin, other)):
            for e in sorted(extra):
                oracle.add(e)
        for oracle, elements in ((original, base | more), (twin, base | other)):
            fresh = _levels(k, elements)
            span = range(max(elements, default=0) + 1, _UNIT + 1)
            assert [oracle.forbids(v) for v in span] == [fresh.forbids(v) for v in span]

    @given(st.integers(5, 16), st.sets(st.integers(1, 400), max_size=12), st.data())
    @settings(max_examples=200, deadline=None)
    def test_windows_match_the_table_oracle(self, k, elements, data):
        # The levels a decode walk makes start at unit 0 and rebase to each
        # element.  Windows start above the set, and may cross the levels'
        # reach, (k - 2) * unit, past which every value is allowed, or be
        # empty.  k >= 8 reads y = 2 and k >= 14 y = 3.
        levels, table = _NormLevels(k), _NormOracle(k)
        for e in sorted(elements):
            levels.add(e)
            table.add(e)
        top = max(elements, default=0)
        reach = (k - 2) * top
        for _ in range(4):
            lo = data.draw(st.sampled_from([top + 1, max(top + 1, reach - 30), reach + 1]))
            lo += data.draw(st.integers(0, 40))
            hi = lo + data.draw(st.integers(-1, max(40, reach - lo + 40)))
            window = levels.forbidden_in(lo, hi)
            assert window == table.forbidden_in(lo, hi)
            assert len(window) == max(0, hi - lo + 1)
            assert [levels.forbids(v) for v in range(lo, lo + 40)] == [
                table.forbids(v) for v in range(lo, lo + 40)]
            assert levels.next_allowed(lo) == table.next_allowed(lo)

    @pytest.mark.parametrize("k", [5, 9, 16])
    def test_next_allowed_reads_past_the_first_windows(self, k):
        # 2, 3, ..., 399 forbid every value up to the sum of their k - 2
        # largest, so the free value lies past the first window.
        levels, table = _NormLevels(k), _NormOracle(k)
        for e in range(2, 400):
            levels.add(e)
            table.add(e)
        found = levels.next_allowed(400)
        assert found == table.next_allowed(400) == sum(range(400 - (k - 2), 400)) + 1
        assert found - 400 > _FIRST_WINDOW

    @given(
        st.integers(5, 16),
        st.sets(st.integers(1, _UNIT), max_size=8),
        st.sets(st.integers(_UNIT + 1, 300), min_size=1, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_an_element_above_the_unit_rebases(self, k, below, past):
        # Levels made at unit 64 and given elements past it answer as levels
        # made at unit 0 over the same set.
        elements = below | past
        made_at_unit, made_at_zero = _NormLevels(k, _UNIT), _NormLevels(k)
        for e in sorted(elements):
            made_at_unit.add(e)
            made_at_zero.add(e)
        top = max(elements)
        assert made_at_unit._unit == made_at_zero._unit == top
        hi = (k - 2) * top + 20
        assert made_at_unit.forbidden_in(top + 1, hi) == made_at_zero.forbidden_in(top + 1, hi)
        assert made_at_unit.next_allowed(top + 1) == made_at_zero.next_allowed(top + 1)

    @pytest.mark.parametrize("op", EVERY_OPERATOR, ids=str)
    def test_branching_oracle_takes_the_levels_only_for_norm_tables(self, op):
        oracle = branching_oracle(op, _UNIT)
        assert isinstance(oracle, _NormLevels) == (op.kind == "normk" and op.k >= 5)
        assert hasattr(oracle, "copy")


class TestCallersKeepTheProtocol:
    """Every caller adds elements in strictly increasing order and asks
    only about values above them: ``ProtocolOracle`` checks each call of
    every oracle the library makes."""

    @pytest.mark.parametrize("op", EVERY_OPERATOR, ids=str)
    def test_every_entry_point(self, op, monkeypatch):
        made = []

        def checked(op, horizon=None):
            made.append(ProtocolOracle(incremental_oracle(op, horizon), horizon=horizon))
            return made[-1]

        for module in (codec, dynamics, operators):
            monkeypatch.setattr(module, "incremental_oracle", checked)
        rng = random.Random(f"protocol/{op}")
        # Words stay short where elements grow geometrically, below the
        # candidate ceiling.
        length = 12 if op.kind == "fs" or (op.kind == "normk" and op.k >= 7) else 48
        stops = 0
        for _ in range(50):
            word = "".join(rng.choice("01") for _ in range(rng.randint(0, length)))
            member = encode(op, word).accepted
            start = IntSetPrefix.of(rng.sample(range(1, 61), rng.randint(0, 45)), 60)
            for prefix in (member, start):
                decode(op, prefix)
                # The decode stopped adding if it never added the last
                # element below the horizon.
                below = [a for a in prefix.elements if a < prefix.horizon]
                stops += bool(below) and made[-1]._top < below[-1]
                is_member(op, prefix)
                is_encoder_fixed_point(op, prefix)
                ultimately_complete_on(op, prefix, rng.randint(1, max(1, prefix.horizon)))
                decode_orbit(op, prefix, 2)
                find_limit(op, prefix, 8)
                if op.kind == "normk" and op.k >= 3:
                    completeness_sufficient_condition(op.k, prefix)
        encoder_fixed_points(op, 10)
        if op in ONE_RENDER_OPERATORS:
            # Their decode adds every element below the horizon, then
            # renders the final set: it has no stop rule.
            assert not stops
        else:
            assert stops

    @pytest.mark.parametrize("op", EVERY_OPERATOR, ids=str)
    def test_only_the_one_render_operators_have_forbidden_through(self, op):
        # The decoder takes the one-render path exactly when the oracle has
        # the call, so no other oracle may have it, by inheritance or not:
        # under normk with k >= 5 the final state does not give the earlier
        # gaps.  Each oracle has one render call, the one decode makes: the
        # walk's forbidden_in, or forbidden_through.
        oracle = incremental_oracle(op)
        assert hasattr(oracle, "forbidden_through") == (op in ONE_RENDER_OPERATORS)
        assert hasattr(oracle, "forbidden_in") != hasattr(oracle, "forbidden_through")
