"""The library's outputs against the benchmark's own checker.

``bench/checker.py`` re-derives every operator from its definition and shares
no code with the library; it is imported here, not changed.
"""

import random
import sys
from pathlib import Path

import pytest

from sievecodec import decode, encode, parse_operator
from sievecodec.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import checker  # noqa: E402


def _word(rng, n, ones):
    bits = ["1"] * ones + ["0"] * (n - ones)
    rng.shuffle(bits)
    return "".join(bits)


@pytest.mark.parametrize("ones", [1024, 2048, 3072], ids=["1/4", "1/2", "3/4"])
def test_dense_coprime_words(ones):
    # The codec-dense shape: 4096 bits at densities 1/4, 1/2 and 3/4.  Under
    # coprime the checker marks every position (``forbidden_flags``).
    rng = random.Random(f"dense-coprime/{ones}")
    word = _word(rng, 4096, ones)
    op = parse_operator("coprime")
    enc = encode(op, word)
    dec = decode(op, enc.accepted)
    problems = checker.check_codec("coprime", word, enc.accepted.elements, enc.rejected.elements,
                                   enc.consumed, dec.ternary, dec.bits, dec.violations, rng)
    assert problems == []


def _mask_words():
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


@pytest.mark.parametrize("op, word", _mask_words())
def test_mask_oracle_encodes_across_window_edges(capsys, op, word):
    assert main(["encode", "--op", op, "--format", "records", word]) == 0
    out = checker.records(capsys.readouterr().out)
    accepted, rejected = (checker.parse_prefix(out[key])[0] for key in ("accepted", "rejected"))
    assert list(accepted) == checker.encode(checker.parse_op(op), word)
    assert len(accepted) + len(rejected) == len(word)
