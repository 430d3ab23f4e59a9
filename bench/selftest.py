"""Tests of the benchmark's output checker.

Run from the root of the repository:

    python3 bench/selftest.py

The checker must agree with a naive enumeration on small cases, accept the
library's outputs on known examples and reject each of them once corrupted.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checker  # noqa: E402


def naive_relation(base, value, k):
    """Every coefficient vector with entries in [-3, 3], norm below k."""
    items = sorted(set(base)) + [value]
    for ys in itertools.product(range(-3, 4), repeat=len(items)):
        if ys[-1] and sum(y * y for y in ys) < k and sum(y * x for y, x in zip(ys, items)) == 0:
            return True
    return False


def cli(argv):
    from sievecodec.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


class Predicates(unittest.TestCase):
    def test_known_values(self):
        f = checker.forbids
        self.assertTrue(f(("sumfree", None), [1, 2], 2))
        self.assertTrue(f(("sumfree", None), [1, 2], 4))
        self.assertFalse(f(("sumfree", None), [1, 2], 5))
        self.assertTrue(f(("coprime", None), [6], 9))
        self.assertFalse(f(("coprime", None), [6], 35))
        self.assertTrue(f(("fs", None), [1, 4], 5))
        self.assertFalse(f(("fs", None), [1, 4], 3))
        self.assertTrue(f(("normk", 4), [3, 5], 8))   # 8 - 3 - 5 = 0, norm 3
        self.assertTrue(f(("normk", 4), [3, 5], 2))   # 2 - 5 + 3 = 0
        self.assertFalse(f(("normk", 4), [3, 5], 6))  # 6 - 2*3 has norm 5
        self.assertTrue(f(("normk", 6), [3, 5], 6))
        self.assertFalse(f(("normk", 5), [1], 2))     # 2 - 2*1 has norm 5
        self.assertFalse(f(("sumfree", None), [], 2))

    def test_normk_matches_enumeration(self):
        rng = random.Random(1)
        for _ in range(300):
            base = rng.sample(range(1, 40), rng.randint(1, 4))
            value = rng.choice([v for v in range(1, 60) if v not in base])
            k = rng.randint(2, 10)
            self.assertEqual(checker.has_relation(base, value, k),
                             naive_relation(base, value, k), (base, value, k))

    def test_subset_sums_match_enumeration(self):
        rng = random.Random(2)
        for _ in range(300):
            base = rng.sample(range(1, 30), rng.randint(1, 6))
            sums = {sum(c) for r in range(1, len(base) + 1)
                    for c in itertools.combinations(base, r)}
            value = rng.randint(1, 80)
            self.assertEqual(checker.forbids(("fs", None), base, value), value in sums)

    def test_flags_match_predicate(self):
        rng = random.Random(5)
        for kind in ("sumfree", "coprime", "fs"):
            for _ in range(40):
                accepted = sorted(rng.sample(range(1, 120), rng.randint(1, 8)))
                flags = checker.forbidden_flags((kind, None), accepted, 150)
                for v in range(1, 151):
                    self.assertEqual(flags[v], checker.forbids(
                        (kind, None), checker.below(accepted, v), v), (kind, accepted, v))

    def test_witness_parsing(self):
        self.assertEqual(checker.parse_witness("1*6 - 2*3 + 1*1 = 0 (norm 6)"),
                         ({6: 1, 3: -2, 1: 1}, 6))
        self.assertEqual(checker.parse_witness("-1*7 + 2*3 + 1*1 = 0 (norm 6)"),
                         ({7: -1, 3: 2, 1: 1}, 6))


class FixedPoints(unittest.TestCase):
    def test_search_matches_brute_force(self):
        for k in (3, 5, 7, 9):
            for m in range(1, 9):
                brute = sorted(
                    tuple(e for e in range(1, m + 1) if mask >> (e - 1) & 1)
                    for mask in range(1 << m)
                    if checker.is_encoder_fixed_point(
                        k, [e for e in range(1, m + 1) if mask >> (e - 1) & 1], m))
                self.assertEqual(checker.encoder_fixed_points(k, m), brute, (k, m))

    def test_known_count(self):
        # 165 of the 262,144 subsets of [1, 18] are fixed at k = 7.
        self.assertEqual(len(checker.encoder_fixed_points(7, 18)), 165)

    def test_library_output_and_corruption(self):
        code, out = cli(["fixed-points", "--k", "7", "--max-element", "10"])
        self.assertEqual(checker.check_fixed_points(7, 10, code, out), [])
        lines = out.splitlines()
        victim = next(i for i, line in enumerate(lines)
                      if line.startswith("fixed-point set=") and "set=@" not in line)
        elements, horizon = checker.parse_prefix(lines[victim].split("=", 1)[1])
        shifted = ",".join(map(str, (elements[0] + 1,) + elements[1:]))
        moved = f"fixed-point set={shifted} @ {horizon}"
        for bad in ("\n".join(lines[:victim] + [moved] + lines[victim + 1:]),
                    "\n".join(lines[:victim] + lines[victim + 1:]),
                    out.replace("count=", "count=1")):
            self.assertNotEqual(checker.check_fixed_points(7, 10, code, bad), [])


class Codec(unittest.TestCase):
    def run_codec(self, op_text, word):
        from sievecodec import decode, encode, parse_operator

        op = parse_operator(op_text)
        enc = encode(op, word)
        dec = decode(op, enc.accepted)
        return [list(enc.accepted.elements), list(enc.rejected.elements), enc.consumed,
                dec.ternary, dec.bits, dec.violations]

    def check(self, op_text, word, out, seed=0):
        return checker.check_codec(op_text, word, *out, random.Random(seed))

    def test_library_outputs_pass(self):
        rng = random.Random(3)
        for op_text, n in (("sumfree", 300), ("coprime", 300), ("normk:4", 300),
                           ("normk:7", 24), ("fs", 20)):
            word = "".join(rng.choice("01") for _ in range(n))
            self.assertEqual(self.check(op_text, word, self.run_codec(op_text, word)), [])

    def test_moved_element_is_caught(self):
        rng = random.Random(4)
        for op_text, n in (("sumfree", 200), ("coprime", 200), ("normk:4", 200),
                           ("normk:9", 16), ("fs", 16)):
            word = "".join(rng.choice("01") for _ in range(n))
            out = self.run_codec(op_text, word)
            for i in range(len(out[0])):
                for step in (1, -1):
                    bad = [list(out[0]), *out[1:]]
                    bad[0][i] += step
                    self.assertNotEqual(self.check(op_text, word, bad), [], (op_text, i, step))

    def test_wrong_classification_is_caught(self):
        # A fake encoder that treats one forbidden integer as a candidate:
        # the ternary word agrees, but the sampled forbidden checks do not.
        word = "1" * 12
        accepted = checker.encode(("sumfree", None), word)
        self.assertEqual(accepted[:4], [1, 3, 5, 7])
        fake = [1, 2] + accepted[1:-1]
        horizon = fake[-1]
        ternary = "".join("1" if p in fake else "*" for p in range(1, horizon + 1))
        found = self.check("sumfree", word, [fake, [], horizon, ternary, word, ()], seed=5)
        self.assertTrue(any("forbidden" in p for p in found), found)


class Orbits(unittest.TestCase):
    def job(self, k, seed):
        rng = random.Random(seed)
        elements = tuple(sorted(rng.sample(range(1, 2001), 200)))
        start = ",".join(map(str, elements)) + " @ 2000"
        code, out = cli(["dynamics", "--k", str(k), "--limit", "40", "--split", start])
        stable = checker.records(out)["stabilized"]
        _, suff = cli(["sufficient", "--k", str(k), stable])
        return (elements, 2000), code, out, suff

    def test_library_outputs_pass(self):
        for k, seed in ((5, 1), (7, 2), (9, 3)):
            start, code, out, suff = self.job(k, seed)
            self.assertEqual(checker.check_orbit(k, 40, start, code, out, suff), [])

    def test_corruptions_are_caught(self):
        start, code, out, suff = self.job(7, 2)
        stable = checker.records(out)["stabilized"]
        elements, horizon = checker.parse_prefix(stable)
        moved = ",".join(map(str, (elements[0] + 1,) + elements[1:])) + f" @ {horizon}"
        first = next(line for line in out.splitlines() if line.startswith("iterate index=0"))
        shed = int(first.rsplit("stars=", 1)[1])
        flipped = {"true": "false", "false": "true"}
        family = checker.records(suff)["in-family"]
        witness = checker.records(suff)["witness"]
        cases = [
            (out.replace(f"stabilized={stable}", f"stabilized={moved}"), suff),
            (out.replace(first, f"{first.rsplit('=', 1)[0]}={shed + 1}"), suff),
            (out, suff.replace(f"in-family={family}", f"in-family={flipped[family]}")),
        ]
        if witness != "none":
            cases.append((out, suff.replace(witness, witness.replace("1*1", "2*1"))))
        for bad_out, bad_suff in cases:
            self.assertNotEqual(checker.check_orbit(7, 40, start, code, bad_out, bad_suff), [])


if __name__ == "__main__":
    unittest.main()
