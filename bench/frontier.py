"""Lacunary frontier: how far the codec-lacunary words sit below the ceiling.

Run from the root of the repository:

    python3 bench/frontier.py

For each operator of the codec-lacunary workload it encodes the word with
half its bits set, all ones first, which is the costliest order seen for
these operators.  It starts at the length the workload uses and grows the
length by a quarter until ``encode`` raises ``CandidateCeilingExceeded``,
then prints one Markdown table row per operator.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from sievecodec import (  # noqa: E402
    DEFAULT_CANDIDATE_CEILING,
    CandidateCeilingExceeded,
    encode,
    parse_operator,
)
from workloads import LACUNARY  # noqa: E402


def ones_first(length: int) -> str:
    return "1" * (length // 2) + "0" * (length - length // 2)


def main() -> int:
    print("| operator | length used | consumed at that length | share of ceiling "
          "| first length that fails | time to failure |")
    print("|---|---|---|---|---|---|")
    for op_text, used, _ in LACUNARY:
        op = parse_operator(op_text)
        consumed = encode(op, ones_first(used)).consumed
        length = used
        while True:
            length += max(2, length // 4) & ~1
            t0 = perf_counter()
            try:
                encode(op, ones_first(length))
            except CandidateCeilingExceeded:
                failed_after = perf_counter() - t0
                break
        print(f"| `{op_text}` | {used} | {consumed} | "
              f"{consumed / DEFAULT_CANDIDATE_CEILING:.1%} | {length} | {failed_after:.1f} s |",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
