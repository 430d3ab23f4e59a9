import random
from itertools import combinations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import sievecodec.codec as codec
import sievecodec.dynamics as dynamics
import sievecodec.operators as operators
from sievecodec import (
    CandidateCeilingExceeded,
    IntSetPrefix,
    OperatorKind,
    SufficiencyEvidence,
    completeness_sufficient_condition,
    decode,
    decode_orbit,
    encode,
    encoder_fixed_points,
    find_anchored_relation,
    find_limit,
    from_characteristic,
    is_encoder_fixed_point,
    is_member,
    parse_operator,
    ultimately_complete_on,
)
from conftest import EVERY_OPERATOR, CountingOracle, prefixes
from reference import characteristic
from reference import encoder_fixed_points as brute_force_fixed_points
from reference import is_encoder_fixed_point as replayed_is_fixed
from reference import step as full_decode_step

N7 = OperatorKind("normk", 7)

# Exhaustive full-encode sweep over [1, 8] at norm bound 7; recomputed below
# by the oracle, frozen here as a regression anchor.
FIXED_POINTS_K7_M8 = [
    (),
    (1,), (2,), (3,), (4,), (5,), (6,), (7,), (8,),
    (2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (5, 8),
    (6, 7), (6, 8), (7, 8),
    (4, 6, 7), (5, 7, 8),
]


def oracle_is_fixed(op, prefix):
    """Independent route: one full public encode, then a straight comparison."""
    result = encode(op, characteristic(prefix))
    window = min(prefix.horizon, result.consumed)
    got = {a for a in result.accepted.elements if a <= window}
    return got == set(prefix.elements)


def random_prefix(rng, horizon, density=0.5):
    elements = [a for a in range(1, horizon + 1) if rng.random() < density]
    return IntSetPrefix(tuple(elements), horizon)


def gaps(prefix):
    elements = prefix.elements
    return {i: elements[i + 1] - elements[i] for i in range(len(elements) - 1)}


class TestDecodeOrbit:
    def test_worked_pair_first_step(self):
        record = decode_orbit(N7, IntSetPrefix((3, 7), 7), 1)
        assert record.iterates[1] == IntSetPrefix((3, 6), 6)
        assert record.stars_per_step == (1,)
        assert record.verdict == "ok"

    def test_empty_set_is_fixed(self):
        record = decode_orbit(N7, IntSetPrefix((), 10), 5)
        assert all(it.elements == () for it in record.iterates)
        assert record.verdict == "ok"

    def test_zero_horizon_is_exhausted(self):
        record = decode_orbit(N7, IntSetPrefix((), 0), 3)
        assert record.verdict == "horizon-exhausted"

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            decode_orbit(N7, IntSetPrefix((), 5), -1)

    def test_horizon_accounting(self):
        rng = random.Random(5)
        for _ in range(15):
            record = decode_orbit(N7, random_prefix(rng, rng.randint(1, 60)), 4)
            for n, shed in enumerate(record.stars_per_step):
                assert record.iterates[n + 1].horizon == record.iterates[n].horizon - shed

    def test_gaps_never_grow(self):
        rng = random.Random(17)
        for _ in range(15):
            start = random_prefix(rng, rng.randint(10, 80), rng.choice([0.2, 0.5, 0.8]))
            record = decode_orbit(N7, start, 6)
            for earlier, later in zip(record.iterates, record.iterates[1:]):
                before, after = gaps(earlier), gaps(later)
                for i in after:
                    if i in before:
                        assert after[i] <= before[i]

    def test_spread_triple_contracts(self):
        record = decode_orbit(N7, IntSetPrefix((4, 9, 14), 20), 3)
        first = [g for g in (gaps(p) for p in record.iterates)]
        assert first[0][0] >= first[-1].get(0, 1)


def top_run(prefix):
    """The number of consecutive elements that end at the horizon."""
    run = 0
    while run < len(prefix.elements) and prefix.elements[-1 - run] == prefix.horizon - run:
        run += 1
    return run


class TestStep:
    """One orbit pass decodes only below the top run, which reads all '1'."""

    @pytest.mark.parametrize("op", EVERY_OPERATOR, ids=str)
    def test_matches_a_full_decode(self, op):
        rng = random.Random(300 + (op.k or 0))
        starts = [IntSetPrefix((), 0), IntSetPrefix((), 30), IntSetPrefix(tuple(range(1, 41)), 40)]
        for _ in range(8):
            starts.append(random_prefix(rng, rng.randint(1, 300), 0.1))
            starts.append(random_prefix(rng, rng.randint(1, 120), rng.uniform(0.6, 1.0)))
        passes = runs = 0
        for prefix in starts:
            for _ in range(6):
                expected = full_decode_step(op, prefix)
                assert dynamics._step(op, prefix) == expected
                passes += 1
                runs += top_run(prefix) > 0
                if prefix.horizon == 0:
                    break
                prefix = expected[0]
        # Later iterates of the dense starts carry a top run.
        assert runs >= passes // 4

    @given(st.integers(5, 9), prefixes(max_horizon=120), st.integers(0, 30))
    def test_reads_the_ternary_word(self, k, prefix, run):
        # Any prefix with a top run of up to ``run`` elements added.
        horizon = prefix.horizon
        top = range(horizon - min(run, horizon) + 1, horizon + 1)
        prefix = IntSetPrefix.of(set(prefix.elements).union(top), horizon)
        op = OperatorKind("normk", k)
        ternary = decode(op, prefix).ternary
        first_star = ternary.find("*")
        assert dynamics._step(op, prefix) == (
            from_characteristic(ternary.replace("*", "")), ternary.count("*"),
            horizon if first_star < 0 else first_star)

    def test_all_element_prefix_decodes_nothing(self, monkeypatch):
        calls = []
        run = dynamics.decode
        monkeypatch.setattr(
            dynamics, "decode", lambda op, prefix: calls.append(prefix) or run(op, prefix)
        )
        prefix = IntSetPrefix(tuple(range(1, 51)), 50)
        assert dynamics._step(N7, prefix) == (prefix, 0, 50)
        assert calls == [IntSetPrefix((), 0)]

    def test_a_pass_makes_one_add_below_the_top_run(self, monkeypatch):
        counts = {}
        make = codec.incremental_oracle
        monkeypatch.setattr(
            codec, "incremental_oracle", lambda *a: CountingOracle(make(*a), counts)
        )
        prefix = IntSetPrefix((3, *range(10, 201)), 200)
        passes = [
            lambda: dynamics._step(N7, prefix),
            lambda: ultimately_complete_on(N7, prefix, 1),
        ]
        for run_pass in passes:
            counts.clear()
            run_pass()
            assert counts.get("add", 0) <= 1


class TestFindLimit:
    def test_worked_pair_stabilizes(self):
        record = find_limit(N7, IntSetPrefix((3, 7), 30), 6)
        assert record.verdict == "stabilized"
        assert record.stabilized_prefix == IntSetPrefix((3, 6), 6)
        assert record.iterations_to_stability == 1
        # The head below twice the least element is an encoder fixed point too.
        assert is_encoder_fixed_point(N7, record.stabilized_prefix.truncate(2 * 3 - 1))

    def test_empty_set_stabilizes_immediately(self):
        record = find_limit(N7, IntSetPrefix((), 10), 10)
        assert record.verdict == "stabilized"
        assert record.stabilized_prefix == IntSetPrefix((), 10)
        assert record.iterations_to_stability == 0

    def test_insufficient_horizon_is_reported_not_guessed(self):
        record = find_limit(N7, IntSetPrefix((3, 7), 7), 7)
        assert record.verdict == "insufficient-horizon"
        assert record.iterations_to_stability is None
        # the largest frozen prefix is still certified
        assert record.stabilized_prefix == IntSetPrefix((3,), 5)

    def test_rejects_bad_prefix_len(self):
        with pytest.raises(ValueError):
            find_limit(N7, IntSetPrefix((), 5), 0)

    @pytest.mark.parametrize("op", EVERY_OPERATOR, ids=str)
    def test_every_returned_prefix_decodes_with_no_star(self, op):
        # Stabilized or the largest frozen one, the prefix is its own
        # decoder-fixed head; ``dynamics --split`` prints it as such.
        rng = random.Random(f"limit/{op}")
        frozen_short = 0
        for _ in range(30):
            start = random_prefix(rng, rng.randint(1, 120), rng.random())
            record = find_limit(op, start, rng.randint(1, start.horizon))
            assert "*" not in decode(op, record.stabilized_prefix).ternary
            frozen_short += record.verdict == "insufficient-horizon"
        # Bounds 2 and 3 forbid nothing, so there the first pass freezes all.
        assert (frozen_short > 0) == (str(op) not in ("normk:2", "normk:3"))

    def test_random_orbits_stabilize_and_stay_invariant(self):
        rng = random.Random(29)
        for _ in range(10):
            start = random_prefix(rng, 200)
            record = find_limit(N7, start, 12)
            assert record.verdict == "stabilized"
            frozen = record.stabilized_prefix
            # one more decode of the frozen prefix reproduces it exactly
            again = decode(N7, frozen)
            kept = [a for a in frozen.elements if a <= len(again.bits)]
            assert [a for a, bit in enumerate(again.bits, 1) if bit == "1"] == kept


def orbit_starts(op):
    rng = random.Random(f"passes/{op}")
    return [random_prefix(rng, rng.randint(1, 400), rng.random()) for _ in range(60)]


class TestPasses:
    """What the one pass loop behind ``decode_orbit`` and ``find_limit``
    relies on, along every pass of seeded random orbits."""

    @pytest.mark.parametrize("op", EVERY_OPERATOR, ids=str)
    def test_frozen_prefix_carries_over_and_never_shrinks(self, op):
        for prefix in orbit_starts(op):
            frozen_len = 0
            while prefix.horizon >= 1:
                nxt, shed, now = dynamics._step(op, prefix)
                assert now >= frozen_len
                assert nxt.truncate(now) == prefix.truncate(now)
                if shed == 0:  # a pass with no star gives back its iterate
                    assert nxt == prefix
                    break
                prefix, frozen_len = nxt, now

    @pytest.mark.parametrize("op", EVERY_OPERATOR, ids=str)
    def test_find_limit_agrees_with_the_passes(self, op):
        rng = random.Random(f"limit-passes/{op}")
        short = 0
        for start in orbit_starts(op):
            record = find_limit(op, start, rng.randint(1, start.horizon))
            passes = len(record.stars_per_step)
            orbit = decode_orbit(op, start, passes)
            assert (orbit.iterates, orbit.stars_per_step, orbit.verdict) == (
                record.iterates, record.stars_per_step, "ok")
            if record.verdict == "insufficient-horizon":
                short += 1
                last = record.iterates[-2]
                assert record.stabilized_prefix == last.truncate(dynamics._step(op, last)[2])
        # Bounds 2 and 3 forbid nothing, so there the first pass freezes all.
        assert (short > 0) == (str(op) not in ("normk:2", "normk:3"))


class TestLevelsSwitch:
    """``incremental_oracle`` takes the big-int cost levels for a ``normk``
    (k >= 5) sweep whose widest level fits ``operators._LEVELS_BITS``, and
    the cost table otherwise; the choice changes no answer."""

    @pytest.mark.parametrize("k", range(5, 17))
    def test_both_oracles_answer_alike(self, k, monkeypatch):
        op, rng = OperatorKind("normk", k), random.Random(f"levels-switch/{k}")
        starts = [random_prefix(rng, rng.randint(1, 300), 0.1) for _ in range(15)]
        words = ["".join(rng.choice("01") for _ in range(12)) for _ in range(15)]
        chosen = set()
        make = operators.incremental_oracle

        def recorded(*args):
            oracle = make(*args)
            chosen.add(type(oracle))
            return oracle

        monkeypatch.setattr(dynamics, "incremental_oracle", recorded)
        monkeypatch.setattr(codec, "incremental_oracle", recorded)
        for prefix in starts + [encode(op, word).accepted for word in words]:
            answers = []
            for bits in (0, 1 << 62):
                monkeypatch.setattr(operators, "_LEVELS_BITS", bits)
                answers.append((
                    decode(op, prefix),
                    is_member(op, prefix),
                    is_encoder_fixed_point(op, prefix),
                    find_limit(op, prefix, 20),
                    completeness_sufficient_condition(k, prefix),
                ))
            assert answers[0] == answers[1]
        assert chosen == {operators._NormOracle, operators._NormLevels}

    @pytest.mark.parametrize("k", [5, 9, 16])
    def test_levels_exactly_within_the_bound(self, k):
        op = OperatorKind("normk", k)
        edge = operators._LEVELS_BITS // (2 * (k - 2))  # the largest horizon on levels
        for horizon, levels in ((1, True), (edge, True), (edge + 1, False), (10**6, False)):
            assert (2 * (k - 2) * horizon <= operators._LEVELS_BITS) == levels
            oracle = operators.incremental_oracle(op, horizon)
            assert type(oracle) is (operators._NormLevels if levels else operators._NormOracle)
        assert type(operators.incremental_oracle(op)) is operators._NormOracle


class TestEncoderFixedPoints:
    def test_examples(self):
        assert is_encoder_fixed_point(N7, IntSetPrefix((3,), 5))
        assert not is_encoder_fixed_point(N7, IntSetPrefix((3, 6), 7))
        assert is_encoder_fixed_point(N7, IntSetPrefix((3, 5), 6))

    def test_agrees_with_full_encode_oracle(self):
        rng = random.Random(41)
        for _ in range(150):
            prefix = random_prefix(rng, rng.randint(1, 24), rng.random())
            assert is_encoder_fixed_point(N7, prefix) == oracle_is_fixed(N7, prefix)

    @pytest.mark.parametrize("op", EVERY_OPERATOR, ids=str)
    def test_agrees_with_full_encode_oracle_past_the_largest_element(self, op):
        # The fixed points over [1, 8] and random sets, each read on a
        # horizon well past its largest element.
        rng = random.Random(op.k or 0)
        sets = [p.elements for p in encoder_fixed_points(op, 8)]
        sets += [random_prefix(rng, rng.randint(1, 16), rng.random()).elements for _ in range(60)]
        refused = 0
        for elements in sets:
            top = max(elements, default=0)
            prefix = IntSetPrefix(elements, top + rng.randint(top + 1, 3 * top + 5))
            expected = replayed_is_fixed(op, prefix)
            try:
                assert oracle_is_fixed(op, prefix) == expected
            except CandidateCeilingExceeded:
                # The image of a dense word grows past the encoder's ceiling
                # (ROADMAP item 1); the replay still rules on it.
                refused += 1
            assert is_encoder_fixed_point(op, prefix) == expected
        assert refused <= len(sets) // 10

    def test_walk_stops_at_the_largest_element(self, monkeypatch):
        counts = {}
        make = dynamics.incremental_oracle
        monkeypatch.setattr(
            dynamics, "incremental_oracle", lambda *a: CountingOracle(make(*a), counts)
        )
        assert is_encoder_fixed_point(N7, IntSetPrefix((3, 5), 10**7))
        assert set(counts) <= {"forbids", "add"}
        assert counts["forbids"] <= 5

    def test_walk_starts_at_the_smallest_element(self, monkeypatch):
        # The empty set forbids nothing, and no check reads the add of max S:
        # an add of 10**6 would grow a norm table to 2**20.
        counts = {}
        make = dynamics.incremental_oracle
        monkeypatch.setattr(
            dynamics, "incremental_oracle", lambda *a: CountingOracle(make(*a), counts)
        )
        assert is_encoder_fixed_point(N7, IntSetPrefix((10**6,), 10**6))
        assert counts.get("forbids", 0) <= 1 and "add" not in counts

    def test_exhaustive_enumeration_matches_frozen_list(self):
        found = [p.elements for p in encoder_fixed_points(N7, 8)]
        assert found == sorted(FIXED_POINTS_K7_M8, key=lambda t: tuple(reversed(t)))
        assert set(found) == set(FIXED_POINTS_K7_M8)

    def test_exhaustive_enumeration_matches_oracle(self):
        oracle = [
            combo
            for r in range(7)
            for combo in combinations(range(1, 7), r)
            if oracle_is_fixed(N7, IntSetPrefix(combo, 6))
        ]
        assert sorted(p.elements for p in encoder_fixed_points(N7, 6)) == sorted(oracle)

    def test_singletons_one_and_two_are_fixed(self):
        found = {p.elements for p in encoder_fixed_points(N7, 4)}
        assert (1,) in found and (2,) in found

    def test_nonempty_fixed_points_stay_below_double_minimum(self):
        for prefix in encoder_fixed_points(N7, 10):
            if prefix.elements:
                assert max(prefix.elements) < 2 * min(prefix.elements)

    @pytest.mark.parametrize("op", EVERY_OPERATOR, ids=str)
    def test_search_matches_brute_force(self, op):
        for m in range(1, 11):
            found = encoder_fixed_points(op, m)
            assert found == brute_force_fixed_points(op, m)
            # The search builds its prefixes unchecked; the checks must pass.
            assert all(IntSetPrefix(p.elements, p.horizon) == p for p in found)

    @pytest.mark.parametrize("k", (3, 5, 7, 9, 16))
    def test_search_matches_brute_force_over_13(self, k):
        op = OperatorKind("normk", k)
        assert encoder_fixed_points(op, 13) == brute_force_fixed_points(op, 13)

    @pytest.mark.parametrize(
        "op, count",
        [(parse_operator(text), count)
         for text, count in (("sumfree", 127), ("coprime", 88), ("fs", 304), ("normk:5", 216))],
        ids=str,
    )
    def test_walk_and_search_match_full_encodes_of_every_subset_of_12(self, op, count):
        subsets = [
            IntSetPrefix(tuple(e for e in range(1, 13) if mask >> (e - 1) & 1), 12)
            for mask in range(1 << 12)
        ]
        fixed = []
        for prefix in subsets:
            expected = oracle_is_fixed(op, prefix)
            assert is_encoder_fixed_point(op, prefix) == expected
            if expected:
                fixed.append(prefix)
        assert len(fixed) == count
        assert encoder_fixed_points(op, 12) == fixed

    @pytest.mark.parametrize("k, m, fixed, added", [(7, 18, 165, 141), (5, 32, 11777, 10115)])
    def test_search_builds_one_oracle_and_extends_copies(self, monkeypatch, k, m, fixed, added):
        # Every other oracle is a copy of a parent's with one element added,
        # made only when an integer is left to decide: fewer adds than fixed
        # points.
        built, adds = [], []
        make = dynamics.branching_oracle

        def counted(op, bound):
            # Counts the adds on the oracle made and on every copy of it.
            oracle = make(op, bound)
            add = type(oracle).add
            monkeypatch.setattr(type(oracle), "add", lambda self, e: adds.append(e) or add(self, e))
            built.append(op)
            return oracle

        monkeypatch.setattr(dynamics, "branching_oracle", counted)
        assert len(encoder_fixed_points(OperatorKind("normk", k), m)) == fixed
        assert len(built) == 1
        assert len(adds) == added

    @pytest.mark.parametrize("k, count", [(7, 1015), (16, 425)])
    def test_search_reaches_the_bound(self, k, count):
        # Both counts over [1, 32] were confirmed by an independent search.
        # One test per subset would take about a day: 2^18 tests take 5 s.
        # At k = 16 the walk's levels are the deepest: 15 of them, lifted by
        # coefficients up to 3, and read for multipliers up to 3.
        op = OperatorKind("normk", k)
        found = encoder_fixed_points(op, 32)
        masks = [sum(1 << (e - 1) for e in p.elements) for p in found]
        assert len(found) == count
        assert masks == sorted(set(masks))
        assert all(p.horizon == 32 and is_encoder_fixed_point(op, p) for p in found)

    def test_enumeration_bound_is_enforced(self):
        with pytest.raises(ValueError):
            encoder_fixed_points(N7, 33)

    def test_norm_bound_sweep_is_recorded(self):
        # Where does the "max < 2 min" law hold empirically? Below bound 6
        # the doubling relation costs too much to be seen, and sets like
        # {a, 2a} become fixed. Recorded, not asserted, outside k == 7.
        report = {}
        for k in range(4, 10):
            violations = [
                p.elements
                for p in encoder_fixed_points(OperatorKind("normk", k), 10)
                if p.elements and not max(p.elements) < 2 * min(p.elements)
            ]
            report[k] = len(violations)
        print(f"\nfixed-point bound violations by norm bound: {report}")
        assert report[7] == 0


class TestUltimateCompleteness:
    def test_odds_complete_from_two(self):
        odds = IntSetPrefix(tuple(range(1, 50, 2)), 50)
        verdict = ultimately_complete_on(OperatorKind("sumfree"), odds, 2)
        assert verdict.kind == "complete-on-window"

    def test_empty_set_incomplete_with_least_witness(self):
        verdict = ultimately_complete_on(OperatorKind("sumfree"), IntSetPrefix((), 10), 1)
        assert verdict.kind == "incomplete"
        assert verdict.witness == 1

    def test_window_beyond_horizon_is_undecided(self):
        verdict = ultimately_complete_on(OperatorKind("sumfree"), IntSetPrefix((), 10), 11)
        assert verdict.kind == "undecided"

    def test_rejects_window_below_one(self):
        with pytest.raises(ValueError):
            ultimately_complete_on(OperatorKind("sumfree"), IntSetPrefix((), 10), 0)

    def test_verdict_matches_zero_tail_of_decoded_word(self):
        rng = random.Random(61)
        for _ in range(40):
            word = "".join(rng.choice("01") for _ in range(40))
            member = encode(OperatorKind("sumfree"), word).accepted
            window = rng.randint(1, max(1, member.horizon))
            verdict = ultimately_complete_on(OperatorKind("sumfree"), member, window)
            ternary = decode(OperatorKind("sumfree"), member).ternary
            has_zero = "0" in ternary[window - 1 :]
            assert (verdict.kind == "incomplete") == has_zero


class TestSufficientCondition:
    def test_unit_relation_pair_qualifies(self):
        evidence = completeness_sufficient_condition(7, IntSetPrefix((2, 3), 5))
        assert evidence.holds
        assert evidence.unit_relation is not None
        assert evidence.unit_relation.norm == 3

    def test_empty_set_fails(self):
        evidence = completeness_sufficient_condition(7, IntSetPrefix((), 5))
        assert not evidence.holds
        assert evidence.in_family
        assert evidence.unit_relation is None

    def test_one_in_the_set_fails_the_middle_condition(self):
        evidence = completeness_sufficient_condition(7, IntSetPrefix((1, 2), 4))
        assert not evidence.holds
        assert evidence.unit_relation is None

    def test_rejects_tiny_bound(self):
        with pytest.raises(ValueError):
            completeness_sufficient_condition(2, IntSetPrefix((2, 3), 5))

    def test_unit_relation_implies_augmented_escape(self):
        rng = random.Random(71)
        seen = 0
        for _ in range(80):
            prefix = random_prefix(rng, rng.randint(4, 40), rng.random())
            if 1 in prefix.members():
                continue
            evidence = completeness_sufficient_condition(7, prefix)
            if evidence.unit_relation is not None:
                seen += 1
                assert evidence.augmented_escapes
        assert seen > 5

    @settings(max_examples=200, deadline=None)
    @given(st.integers(5, 16), prefixes(max_horizon=40, min_horizon=1), st.booleans())
    def test_equals_its_three_parts_computed_apart(self, k, prefix, with_one):
        # The escape test runs only when no witness exists; every part must
        # read as if each were computed on its own.
        prefix = IntSetPrefix.of(prefix.members() | {1} if with_one else prefix.members() - {1},
                                 prefix.horizon)
        in_family = is_member(OperatorKind("normk", k), prefix)
        escapes = not is_member(OperatorKind("normk", k - 1),
                                IntSetPrefix.of(prefix.members() | {1}, prefix.horizon))
        witness = None if with_one else find_anchored_relation(prefix.elements, k)
        assert completeness_sufficient_condition(k, prefix) == SufficiencyEvidence(
            in_family, escapes, witness, in_family and escapes and witness is not None)


class TestTwoElementLaws:
    @pytest.mark.parametrize("a", range(3, 13))
    def test_encode_bumps_the_double(self, a):
        result = encode(OperatorKind("normk", 7), characteristic(IntSetPrefix((a, 2 * a), 2 * a)))
        assert result.accepted.elements == (a, 2 * a + 1)

    @pytest.mark.parametrize("a", range(3, 13))
    def test_decode_pulls_the_double_back(self, a):
        prefix = IntSetPrefix((a, 2 * a + 1), 2 * a + 2)
        bits = decode(N7, prefix).bits
        decoded = tuple(i for i, bit in enumerate(bits, 1) if bit == "1")
        assert decoded == (a, 2 * a)


class TestEncoderImage:
    def test_image_is_a_member_and_decodes_back_to_the_word(self):
        rng = random.Random(83)
        for _ in range(20):
            prefix = random_prefix(rng, rng.randint(1, 40), rng.random())
            image = encode(OperatorKind("normk", 7), characteristic(prefix))
            assert is_member(OperatorKind("normk", 7), image.accepted)
            assert decode(N7, image.accepted).bits == characteristic(prefix)

    def test_image_of_an_encoder_fixed_point_is_itself(self):
        for elements in [(3,), (3, 5), (2, 3), (4, 6, 7)]:
            prefix = IntSetPrefix(elements, max(elements))
            image = encode(OperatorKind("normk", 7), characteristic(prefix))
            kept = {a for a in image.accepted.elements if a <= prefix.horizon}
            assert kept == set(elements)
