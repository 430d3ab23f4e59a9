import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import sievecodec
from sievecodec import CostTable, OperatorKind, Relation, find_anchored_relation, relations
from sievecodec.operators import _NormOracle
from reference import apply_J


def naive_min_norm(base, anchor, coeff_bound):
    """Independent oracle: full enumeration over all coefficient vectors.

    Returns the least norm of any vector y on base | {anchor} with
    sum(y_b * b) == 0 and y_anchor != 0, or None.
    """
    variables = tuple(sorted(set(base) | {anchor}))
    best = None
    for vector in itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=len(variables)):
        coeffs = dict(zip(variables, vector))
        if coeffs[anchor] == 0:
            continue
        if sum(v * c for v, c in coeffs.items()) != 0:
            continue
        norm = sum(c * c for c in vector)
        if best is None or norm < best:
            best = norm
    return best


small_bases = st.sets(st.integers(1, 30), max_size=5)


def naive_anchored_witness(base, k):
    """Independent oracle for ``find_anchored_relation``: every coefficient
    vector on base with 1 on the element 1 and norm at most k - 2, tried in
    lexicographic order along increasing elements.  Returns the first one of
    the least norm, or None.
    """
    ordered = sorted(base)
    bound = isqrt(k - 3)
    best = None
    for vector in itertools.product(range(-bound, bound + 1), repeat=len(ordered)):
        if 1 + sum(y * b for y, b in zip(vector, ordered)) != 0:
            continue
        norm = 1 + sum(y * y for y in vector)
        if norm <= k - 2 and (best is None or norm < best.norm):
            coeffs = ((1, 1),) + tuple((b, y) for b, y in zip(ordered, vector) if y)
            best = Relation(coeffs, norm)
    return best


class TestReferenceNorm:
    """The relation norm that the reference ``apply_J`` computes for ``normk``."""

    def test_doubling_relation(self):
        # 6 - 2*3 = 0 has norm 5; nothing relates 5 to 3 below norm 7.
        assert apply_J(OperatorKind("normk", 7), {3}, 5, 6) == {6}

    def test_three_term_relation(self):
        # 5 - 2*4 + 3 = 0 has norm 6.
        assert apply_J(OperatorKind("normk", 7), {3, 4}, 5, 5) == {5}
        assert apply_J(OperatorKind("normk", 6), {3, 4}, 5, 5) == set()

    def test_symmetric_in_sign(self):
        # The same relation forbids 6 from {3} and 3 from {6}, with coefficient -2.
        for element, value in [(3, 6), (6, 3)]:
            assert apply_J(OperatorKind("normk", 6), {element}, value, value + 1) == {value}
            assert apply_J(OperatorKind("normk", 5), {element}, value, value) == set()

    def test_a_member_is_judged_by_the_others(self):
        # 3 and 6 each forbid the other at k = 6; alone, 3 - 3 = 0 does not count.
        assert apply_J(OperatorKind("normk", 6), {3, 6}, 1, 6) == {3, 6}
        assert apply_J(OperatorKind("normk", 16), {3}, 3, 3) == set()

    @given(small_bases, st.integers(1, 40), st.integers(2, 9))
    @settings(max_examples=200)
    def test_agrees_with_naive_enumeration(self, base, anchor, k):
        base -= {anchor}
        oracle = naive_min_norm(base, anchor, isqrt(k - 1))
        forbidden = anchor in apply_J(OperatorKind("normk", k), base, anchor, anchor)
        assert forbidden == (oracle is not None and oracle < k)


class TestFindAnchoredRelation:
    def test_unit_relation(self):
        rel = find_anchored_relation({2, 3}, 7)
        assert rel is not None
        assert dict(rel.coeffs) == {1: 1, 2: 1, 3: -1}
        assert rel.norm == 3

    def test_empty_base(self):
        assert find_anchored_relation(set(), 7) is None

    def test_budget_excludes_the_only_candidate(self):
        # 1 + 4 - 5 = 0 has norm 3, above the k - 2 = 2 budget.
        assert find_anchored_relation({4, 5}, 4) is None
        assert find_anchored_relation({4, 5}, 5) is not None

    def test_rejects_one_in_base(self):
        with pytest.raises(ValueError):
            find_anchored_relation({1, 2}, 7)

    def test_rejects_tiny_and_oversized_bounds(self):
        with pytest.raises(ValueError):
            find_anchored_relation({3}, 1)
        with pytest.raises(ValueError):
            find_anchored_relation({3}, 17)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            find_anchored_relation({0, 3}, 7)

    def test_pinned_coefficient(self):
        for base in [{2, 3}, {4, 5}, {2, 5, 9}]:
            rel = find_anchored_relation(base, 9)
            if rel is not None:
                assert dict(rel.coeffs)[1] == 1

    def test_serialisation(self):
        # 1 + 6 - 7 = 0 is the one relation of norm 3; ``sufficient`` prints it so.
        assert str(find_anchored_relation({4, 6, 7}, 5)) == "-1*7 + 1*6 + 1*1 = 0 (norm 3)"

    def test_ties_go_to_the_lexicographically_least(self):
        # 1 + 2 - 3 = 0 and 1 + 3 - 4 = 0 both have norm 3; read along
        # 2, 3, 4 their coefficients are (1, -1, 0) and (0, 1, -1).
        rel = find_anchored_relation({2, 3, 4}, 5)
        assert dict(rel.coeffs) == {1: 1, 3: 1, 4: -1}
        assert str(rel) == "-1*4 + 1*3 + 1*1 = 0 (norm 3)"

    def test_accepts_the_extreme_bounds(self):
        # k = 2 leaves no budget past the pinned 1; k = 16 admits coefficient 3.
        assert find_anchored_relation({2, 3}, 2) is None
        assert str(find_anchored_relation({5, 7}, 16)) == "2*7 - 3*5 + 1*1 = 0 (norm 14)"
        assert find_anchored_relation({5, 7}, 15) is None

    def test_accepts_any_iterable_base(self):
        assert find_anchored_relation([3, 2, 3], 5) == find_anchored_relation({2, 3}, 5)
        assert find_anchored_relation(iter((4, 6, 7)), 5) == find_anchored_relation({4, 6, 7}, 5)

    def test_witness_is_the_least_of_minimal_norm(self):
        # Every base of up to five elements from 2..30 and every k in 3..9
        # drawn here: the witness has the least norm <= k - 2, and of those
        # the lexicographically least coefficients.
        rng = random.Random(29)
        found = 0
        for _ in range(400):
            base = set(rng.sample(range(2, 31), rng.randint(0, 5)))
            k = rng.randint(3, 9)
            expected = naive_anchored_witness(base, k)
            assert find_anchored_relation(base, k) == expected == find_anchored_relation(base, k)
            found += expected is not None
        assert found >= 80

    def test_witness_is_the_least_up_to_norm_sixteen(self):
        # The same check for k in 10..16, where coefficients reach 3, on bases
        # of two to four elements from 2..30.  Of these draws 236 have a
        # witness and 12 of those a coefficient of 3.
        rng = random.Random(31)
        found = threes = 0
        for _ in range(400):
            base = set(rng.sample(range(2, 31), rng.randint(2, 4)))
            k = rng.randint(10, 16)
            expected = naive_anchored_witness(base, k)
            assert find_anchored_relation(base, k) == expected
            if expected is not None:
                found += 1
                threes += max(abs(y) for _, y in expected.coeffs) == 3
        assert found >= 150 and threes >= 6


def witness_corpus():
    """(label, base, k): 20 seeded bases of 6 to 40 elements from [2, 2000]
    for each k in 5..16, then larger and sparser bases, then large bases
    with no two consecutive elements, which have no witness of norm 3."""
    for k in range(5, 17):
        for i in range(20):
            rng = random.Random(f"anchored/{k}/{i}")
            yield f"k={k} draw={i}", sorted(rng.sample(range(2, 2001), rng.randint(6, 40))), k
    for n, hi, s, k in ((1000, 10**4, 5005, 5), (40, 2000, 1, 16), (200, 2000, 2, 9),
                        (400, 4000, 3, 16), (2000, 20000, 4, 16)):
        yield f"k={k} n={n} hi={hi} seed={s}", sorted(random.Random(s).sample(range(2, hi), n)), k
    for n, hi, s, k in ((200, 2000, 2, 9), (1000, 10**4, 5, 6), (40, 2000, 1, 16)):
        # The i-th least of n draws from [0, hi - 1 - n), moved up by 2 + i.
        draws = sorted(random.Random(s).sample(range(hi - 1 - n), n))
        yield f"k={k} n={n} hi={hi} seed={s} apart", [2 + i + x for i, x in enumerate(draws)], k
    yield "k=16 {2,10^6}", [2, 10**6], 16
    yield "k=16 {3^i+1}", [3**i + 1 for i in range(1, 13)], 16


def recorded_witnesses():
    """label -> ``str(find_anchored_relation(base, k))``, as a backtracking
    search over a full norm table found them; the rows marked ``apart``, as
    the two-pass bitmask sweep found them."""
    lines = (Path(__file__).parent / "anchored_witnesses.txt").read_text().splitlines()
    return dict(line.split(": ", 1) for line in lines)


class TestWitnessCorpus:
    def test_matches_the_recorded_witnesses(self):
        recorded = recorded_witnesses()
        found = {label: str(find_anchored_relation(base, k)) for label, base, k in witness_corpus()}
        assert found == recorded
        assert sum(w != "None" for w in found.values()) >= 200

    def test_needs_no_numpy(self):
        # In a fresh process where any numpy import raises ``ImportError``.
        cases = [(label, base, k) for label, base, k in witness_corpus()
                 if k in (5, 9, 16) and len(base) <= 400]
        script = (
            'import json, sys\n'
            'sys.modules["numpy"] = None\n'
            'from sievecodec import find_anchored_relation\n'
            'cases = json.loads(sys.stdin.read())\n'
            'print(json.dumps([str(find_anchored_relation(base, k)) for base, k in cases]))\n')
        env = dict(os.environ, PYTHONPATH=str(Path(sievecodec.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120, check=True,
                              input=json.dumps([(base, k) for _, base, k in cases]))
        recorded = recorded_witnesses()
        assert json.loads(done.stdout) == [recorded[label] for label, _, _ in cases]
        assert {k for _, _, k in cases} == {5, 9, 16} and len(cases) >= 60

    def test_a_consecutive_pair_gives_norm_three(self):
        # 1 + b - (b + 1) = 0 at the largest such b, whatever k >= 5 allows;
        # the large bases without a pair reach the mask sweep and the walk.
        recorded, swept = recorded_witnesses(), 0
        for label, base, k in witness_corpus():
            members = set(base)
            pairs = [b for b in base if b + 1 in members]
            if pairs:
                b = max(pairs)
                assert recorded[label] == f"-1*{b + 1} + 1*{b} + 1*1 = 0 (norm 3)", label
            else:
                swept += len(base) >= 40 and recorded[label] != "None"
        assert swept >= 3


class TestProperties:
    @given(small_bases, st.integers(2, 8), st.integers(2, 50))
    @settings(max_examples=150)
    def test_monotone_in_base_and_bound(self, base, k, extra):
        base -= {1}
        if find_anchored_relation(base, k) is None:
            return
        assert find_anchored_relation(base, k + 1) is not None
        assert find_anchored_relation(base | {extra}, k) is not None

    @given(small_bases, st.integers(1, 40))
    @settings(max_examples=150)
    def test_anchored_soundness(self, base, anchor):
        base -= {1}
        rel = find_anchored_relation(base, 9)
        if rel is None:
            return
        coeffs = dict(rel.coeffs)
        assert coeffs[1] == 1
        assert sum(v * c for v, c in coeffs.items()) == 0
        assert rel.norm <= 7


class TestCostTable:
    def test_tracks_minimum_costs(self):
        table = CostTable(6)
        table.add(3)
        assert table.min_cost(3) == 1
        assert table.min_cost(-3) == 1
        assert table.min_cost(6) == 4
        assert table.min_cost(5) is None
        table.add(4)
        assert table.min_cost(7) == 2
        assert table.min_cost(1) == 2
        assert table.min_cost(5) == 5  # -3 + 2*4

    def test_growth_preserves_contents(self):
        table = CostTable(6)
        table.add(3)
        table.add(40)  # beyond the first window: triggers growth
        assert table.min_cost(43) == 2
        assert table.min_cost(37) == 2
        assert table.min_cost(3) == table.min_cost(40) == 1

    def test_window_grows_fourfold(self, monkeypatch):
        # Elements 2**5 .. 2**20 take ``limit`` from 16 to 2**20 = 16 * 4**8:
        # one block for the new table and one per grow, eight grows where
        # doubling would take sixteen.
        blocks = []
        cells = relations._cells
        monkeypatch.setattr(relations, "_cells", lambda n: blocks.append(n) or cells(n))
        table = CostTable(3)
        for p in range(5, 21):
            table.add(2**p)
            assert table.limit == min(16 * 4**m for m in range(9) if 16 * 4**m >= 2**p)
        assert len(blocks) <= 9

    def test_matches_brute_force_through_growth(self):
        # Elements from a few units up to about 2000 take each table through
        # several doublings of its window; after every add, each value must
        # report exactly the cheapest coefficient vector within budget.  Every
        # budget the tables take is covered, so coefficients up to 3 (budget
        # >= 9) are too.
        rng = random.Random(11)
        for budget in range(1, 16):
            bound = isqrt(budget)
            elements = [rng.randint(1, 20), rng.randint(1, 2000), rng.randint(200, 2000),
                        rng.randint(20, 200)]
            table = CostTable(budget)
            for n in range(1, len(elements) + 1):
                table.add(elements[n - 1])
                best: dict[int, int] = {}
                for ys in itertools.product(range(-bound, bound + 1), repeat=n):
                    cost = sum(y * y for y in ys)
                    if cost <= budget:
                        value = sum(y * b for y, b in zip(ys, elements))
                        best[value] = min(cost, best.get(value, cost))
                span = budget * max(elements[:n])
                for value in range(-span - 2, span + 3):
                    assert table.min_cost(value) == best.get(value), (budget, n, value)

    def test_tables_built_in_threads_match_serial_ones(self):
        # Tables built side by side in threads must equal the ones built one
        # after another.
        rng = random.Random(5)
        sets = [[rng.randint(1, 3000) for _ in range(40)] for _ in range(8)]

        def build(elements):
            table = CostTable(8)
            for e in elements:
                table.add(e)
            return [table.min_cost(v) for v in range(-24_000, 24_001, 7)]

        serial = [build(s) for s in sets]
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert list(pool.map(build, sets)) == serial

    def test_forbidden_reads_min_cost(self):
        # Windows straddle reach // y, past which y * v leaves the table and
        # every byte is 0, and some lie wholly past the reach.  A last element
        # equal to ``limit`` puts a cost-1 value at the reach itself when the
        # budget is 1.  The multipliers are the normk oracle's for
        # k = budget + 2 (it has none at budget 1), and y = 1 with one more y.
        rng = random.Random(19)
        for budget in (1, 3, 9, 14):
            oracle_ys = _NormOracle(budget + 2)._ys
            for _ in range(4):
                table = CostTable(budget)
                for e in rng.sample(range(1, 300), rng.randint(1, 5)):
                    table.add(e)
                table.add(table.limit)
                for y in (1, 2, 3):
                    edge = table.reach // y
                    tried = [((1, rng.randint(1, budget + 1)), (y, rng.randint(1, budget + 1)))]
                    if oracle_ys:
                        tried.append(oracle_ys)
                    for lo in (edge - rng.randint(0, 70), rng.randint(1, edge),
                               table.reach + rng.randint(1, 70)):
                        lo = max(1, lo)
                        for hi in (max(edge, lo) + rng.randint(-1, 70), lo - 1):
                            for ys in tried:
                                window = table.forbidden(ys, lo, hi)
                                assert type(window) is bytes
                                assert len(window) == max(0, hi - lo + 1)
                                assert window == bytes(
                                    any(table.min_cost(m * v) is not None
                                        and table.min_cost(m * v) < bound for m, bound in ys)
                                    for v in range(lo, hi + 1))

    def test_existence_matches_naive_enumeration(self):
        # Some y < sqrt(k) with y * anchor of cost below k - y^2 exactly when
        # enumeration finds a relation of norm below k with a nonzero
        # coefficient on the anchor.
        rng = random.Random(7)
        for _ in range(200):
            base = {rng.randint(1, 60) for _ in range(rng.randint(0, 6))}
            anchor = rng.randint(1, 80)
            base -= {anchor}
            k = rng.randint(2, 9)
            table = CostTable(k - 1)
            for b in sorted(base):
                table.add(b)
            exists = False
            y = 1
            while y * y < k:
                cost = table.min_cost(y * anchor)
                if cost is not None and cost + y * y < k:
                    exists = True
                    break
                y += 1
            oracle = naive_min_norm(base, anchor, isqrt(k - 1))
            assert exists == (oracle is not None and oracle < k)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            CostTable(0)
        table = CostTable(6)
        with pytest.raises(ValueError):
            table.add(0)


class TestMemory:
    def test_queries_retain_nothing(self):
        # Each query builds its own table and keeps nothing once it returns.
        # The warm-up keeps the first call's one-time costs out of the count.
        find_anchored_relation({19_999, 20_000}, 16)
        rng = random.Random(17)
        draws = [rng.sample(range(2, 20_001), 5) for _ in range(40)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for anchor, *base in draws:
                find_anchored_relation(base + [anchor], 16)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 2**20

    def test_dropped_table_retains_nothing(self):
        # An element past 2^19 grows the table to 15 * 2^20 cells either side;
        # its work space is freed with it.
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = CostTable(15)
            for e in (3, 2**19 + 1, 5):
                table.add(e)
            del table
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 2**20

    def test_anchored_table_reads_costs_up_to_k_minus_3(self):
        # A witness has norm at most k - 2, so the search keeps cost levels
        # up to k - 3 only, and it reads the last element off the masks of
        # the others: 4_000_000 takes no mask of its width.
        tracemalloc.start()
        try:
            assert find_anchored_relation((3, 4_000_000), 5) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2**20

    def test_a_pair_beside_a_huge_element_builds_no_mask(self):
        # 1 + 2 - 3 = 0 is read off the pair; no mask follows 10**8.
        tracemalloc.start()
        try:
            rel = find_anchored_relation([2, 3, 10**8], 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(rel) == "-1*3 + 1*2 + 1*1 = 0 (norm 3)"
        assert peak < 2**20

    def test_norm_bound_five_sweeps_no_masks(self, monkeypatch):
        # k = 5 admits norm 3 alone, which needs no sweep.
        calls = []
        admit = relations._admit
        monkeypatch.setattr(relations, "_admit", lambda *a: calls.append(a) or admit(*a))
        assert find_anchored_relation(range(2, 2000, 2), 5) is None
        assert str(find_anchored_relation([4, 9, 10, 700], 5)) == "-1*10 + 1*9 + 1*1 = 0 (norm 3)"
        assert calls == []
        assert find_anchored_relation([4, 9, 700], 16) is not None and calls


class TestRelationValidation:
    def test_rejects_zero_coefficients(self):
        with pytest.raises(ValueError):
            Relation(((3, 0),), 0)

    def test_rejects_wrong_norm(self):
        with pytest.raises(ValueError):
            Relation(((3, -2), (6, 1)), 4)

    def test_rejects_nonzero_sum(self):
        with pytest.raises(ValueError):
            Relation(((3, 1), (6, 1)), 2)

    def test_rejects_unsorted_elements(self):
        with pytest.raises(ValueError):
            Relation(((6, 1), (3, -2)), 5)
