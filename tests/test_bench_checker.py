"""The library's outputs against the benchmark's own checker.

``bench/checker.py`` re-derives every operator from its definition and shares
no code with the library; it is imported here, not changed.
"""

import random
import sys
from pathlib import Path

import pytest

import sievecodec
from sievecodec import codec, decode, encode, parse_operator
from sievecodec.cli import main
from conftest import CountingOracle

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import checker  # noqa: E402
import tracer  # noqa: E402


def _word(rng, n, ones):
    bits = ["1"] * ones + ["0"] * (n - ones)
    rng.shuffle(bits)
    return "".join(bits)


@pytest.mark.parametrize("ones", [1024, 2048, 3072], ids=["1/4", "1/2", "3/4"])
@pytest.mark.parametrize("op_text", ["coprime", "sumfree", "normk:4"])
def test_dense_words(op_text, ones):
    # The codec-dense shape: 4096 bits at densities 1/4, 1/2 and 3/4, under
    # its three operators.  Under coprime and sumfree the checker marks every
    # position (``forbidden_flags``); under normk:4 it samples them.
    rng = random.Random(f"dense-{op_text}/{ones}")
    word = _word(rng, 4096, ones)
    op = parse_operator(op_text)
    enc = encode(op, word)
    dec = decode(op, enc.accepted)
    problems = checker.check_codec(op_text, word, enc.accepted.elements, enc.rejected.elements,
                                   enc.consumed, dec.ternary, dec.bits, dec.violations, rng)
    assert problems == []


def _encode_words():
    # Sparse words (density 1/8) cross the edge of the 256-bit slice the
    # mask oracles keep between accepted bits.  normk:3's mask stays empty
    # above the set.  fs words that open with 9 to 12 ones forbid [1, 511]
    # or more, so their next free value lies past any slice.  fs words stay
    # short, below the candidate ceiling.
    def sparse(rng, n):
        return _word(rng, n, n // 8)

    for op in ("sumfree", "normk:3", "normk:4", "fs"):
        for seed in range(6):
            rng = random.Random(f"ci-mask/{op}/{seed}")
            word = sparse(rng, rng.randint(100, 150) if op == "fs" else rng.randint(200, 400))
            yield pytest.param(op, word, id=f"{op}/{seed}")
    for seed in range(8):
        rng = random.Random(f"ci-mask/fs-ones/{seed}")
        word = "1" * rng.randint(9, 12) + sparse(rng, rng.randint(24, 40))
        yield pytest.param("fs", word, id=f"fs-ones/{seed}")
    # Every query is above the set.  There normk:2 and normk:3 forbid
    # nothing, and normk:4 only the sums of two distinct members, which its
    # oracle holds in a bit mask.  From k = 5 on it tries only the y with
    # y*y + y + 1 < k, one fewer than y*y < k allows at k = 5, 6, 7 and
    # 10 to 13, and reads the costs of y*v off the table in windows strided
    # by y: y = 2 from k = 8 on and y = 3 from k = 14 on.  The word lengths
    # keep the checker's integer-by-integer search to seconds.
    lengths = {2: 64, 3: 64, 4: 512, 5: 64, 6: 64, 7: 32, 8: 20, 9: 16, 10: 20, 11: 20,
               12: 20, 13: 16, 14: 12, 15: 12, 16: 12}
    for k, n in lengths.items():
        for seed in range(1, 9):
            rng = random.Random(f"ci-encode/{k}/{seed}")
            word = "".join(rng.choice("01") for _ in range(n))
            yield pytest.param(f"normk:{k}", word, id=f"normk:{k}/{seed}")


@pytest.mark.parametrize("op, word", _encode_words())
def test_mask_oracle_encodes_across_window_edges(capsys, op, word):
    assert main(["encode", "--op", op, word]) == 0
    out = checker.records(capsys.readouterr().out)
    accepted, rejected = (checker.parse_prefix(out[key])[0] for key in ("accepted", "rejected"))
    assert list(accepted) == checker.encode(checker.parse_op(op), word)
    assert len(accepted) + len(rejected) == len(word)


@pytest.mark.parametrize("k, max_element", [
    pytest.param(k, m, id=f"k={k},M={m}") for k, m in [(4, 24), (5, 32), (6, 32), (9, 32), (16, 32)]
])
def test_fixed_points_at_the_bound(capsys, k, max_element):
    code = main(["fixed-points", "--k", str(k), "--max-element", str(max_element)])
    assert checker.check_fixed_points(k, max_element, code, capsys.readouterr().out) == []


@pytest.mark.parametrize("k", [3, 4, 12, 16])
def test_orbits_at_norm_bounds_the_benchmark_does_not_run(capsys, k):
    # A seeded 200-of-2000 start per k, as the benchmark's orbit jobs draw them.
    rng = random.Random(f"ci-orbit/{k}")
    start = ",".join(map(str, sorted(rng.sample(range(1, 2001), 200)))) + " @ 2000"
    code = main(["dynamics", "--k", str(k), "--limit", "40", "--split", start])
    dyn = capsys.readouterr().out
    main(["sufficient", "--k", str(k), checker.records(dyn).get("stabilized", "@ 0")])
    suff = capsys.readouterr().out
    assert checker.check_orbit(k, 40, checker.parse_prefix(start), code, dyn, suff) == []


def _decode_against_checker(capsys, op_text, start):
    """Decode ``start`` through the CLI and compare its ``*`` positions and
    violations with the checker's; return the decoder's records and the
    checker's violations.  The checker marks every position where it can
    (``forbidden_flags``: sumfree, coprime, fs) and tests each one otherwise.
    """
    assert main(["decode", "--op", op_text, start]) == 0
    out = checker.records(capsys.readouterr().out)
    op = checker.parse_op(op_text)
    elements, horizon = checker.parse_prefix(start)
    flags = checker.forbidden_flags(op, elements, horizon)
    if flags is None:
        want_stars = checker.stars(op, elements, horizon)
        want_violations = [a for i, a in enumerate(elements)
                           if checker.forbids(op, elements[:i], a)]
    else:
        present = set(elements)
        want_stars = [p for p in range(1, horizon + 1) if flags[p] and p not in present]
        want_violations = [a for a in elements if flags[a]]
    got_stars = [p for p, symbol in enumerate(out["ternary"], 1) if symbol == "*"]
    got_violations = [int(v) for v in out["violations"].split(",") if v]
    assert (got_stars, got_violations) == (want_stars, want_violations)
    return out, want_violations


def _dense_starts():
    # Half the integers up to a horizon in [30, 120].  Under normk:5..16 the
    # decoder walks the gaps and stops adding elements once those it has
    # added forbid every later position; the others render the start once.
    for op in ("sumfree", "coprime", "fs", "normk:4", "normk:5", "normk:7", "normk:9",
               "normk:12", "normk:16"):
        for seed in range(4):
            rng = random.Random(f"ci-decode/{op}/{seed}")
            horizon = rng.randint(30, 120)
            elements = sorted(rng.sample(range(1, horizon + 1), horizon // 2))
            yield pytest.param(op, f"{','.join(map(str, elements))} @ {horizon}",
                               id=f"{op}/{seed}")


@pytest.mark.parametrize("op, start", _dense_starts())
def test_decodes_of_dense_non_members(capsys, op, start):
    _, violations = _decode_against_checker(capsys, op, start)
    assert violations, "drawn a member"


def _gap_inputs():
    # All five operators here decode with one render of the final set; the
    # walk over the gaps, under normk with k >= 5, meets the checker in
    # ``_dense_starts``, where it also stops.  Per operator and seed: a
    # sparse (density 1/8) and a dense (density 1/2) word, whose encoded set
    # is decoded, and a 60-of-600 non-member start.  fs words stay short,
    # below the candidate ceiling.
    for op in ("sumfree", "normk:3", "normk:4", "fs", "coprime"):
        for seed in range(2):
            rng = random.Random(f"ci-gaps/{op}/{seed}")
            n = rng.randint(24, 32) if op == "fs" else rng.randint(200, 300)
            yield pytest.param(op, _word(rng, 4 * n, n // 2), id=f"{op}/{seed}/sparse")
            yield pytest.param(op, _word(rng, n, n // 2), id=f"{op}/{seed}/dense")
            start = ",".join(map(str, sorted(rng.sample(range(1, 601), 60)))) + " @ 600"
            yield pytest.param(op, start, id=f"{op}/{seed}/start")


@pytest.mark.parametrize("op, given", _gap_inputs())
def test_decodes_agree_with_the_checker(capsys, op, given):
    if "@" in given:
        _decode_against_checker(capsys, op, given)
        return
    assert main(["encode", "--op", op, given]) == 0
    accepted = checker.records(capsys.readouterr().out)["accepted"]
    out, violations = _decode_against_checker(capsys, op, accepted)
    assert violations == [] and out["bits"] == given


def test_every_walked_dense_start_stops_below_half_its_elements(capsys, monkeypatch):
    # Under normk:5..16 the decoder walks the gaps and stops adding elements
    # once those it has added forbid every later position.  Each dense start
    # stops below half its elements, and the checker still agrees with it.
    counts = {}
    make = codec.incremental_oracle
    monkeypatch.setattr(codec, "incremental_oracle", lambda *a: CountingOracle(make(*a), counts))
    stopped = []
    for param in _dense_starts():
        op, start = param.values
        if parse_operator(op).kind == "normk" and parse_operator(op).k >= 5:
            counts.clear()
            _decode_against_checker(capsys, op, start)
            elements, _ = checker.parse_prefix(start)
            stopped.append(counts["add"] < len(elements) // 2)
    assert len(stopped) == 20 and all(stopped)


def test_the_tracer_finds_its_hook_targets():
    # The traced benchmark runs allow exactly these four missing targets, so a
    # cut that drops another hooked name fails here too.
    allowed = {"sievecodec.codec.delete_stars", "sievecodec.dynamics.characteristic",
               "sievecodec.cli.split_limit", "sievecodec.cli.from_characteristic"}
    traced = tracer.Tracer()
    try:
        traced.install(sievecodec)
        assert set(traced.skipped) <= allowed
    finally:
        traced.uninstall()
