"""Encoder and decoder between bit words and family-member set prefixes.

The encoder classifies one candidate per input bit: the candidate is the
least integer above the last one that the accepted set does not forbid (the
oracle's ``next_allowed``), and the bit decides whether it is accepted or
rejected.  Because every shipped operator is monotone (growing the set never
un-forbids a value), candidates increase strictly and every integer up to the
last candidate ends up permanently classified, which is what makes the output
horizons sound.  The cost follows the number of bits and of elements, not the
size of the integers skipped.

The decoder renders a prefix as a ternary word (member / forbidden-in-gap /
neither) and deletes the forbidden marks; what remains is the bit word the
encoder would have consumed.  Each gap between consecutive elements is marked
with one ``forbidden_in`` call on the elements below it.  Decoding accepts
non-member prefixes too and reports where their elements violate the family
condition, which the orbit machinery in :mod:`sievecodec.dynamics` relies on.

Pure functions throughout; every call is independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import IntSetPrefix, check_word
from .operators import OperatorKind, incremental_oracle

#: The encoder refuses a candidate above this that lies past a forbidden
#: integer.  It bounds the oracle's state, which grows with the largest
#: accepted element e: 2*max(1, k-2)*limit one-byte ``CostTable`` cells for
#: ``normk:<k>`` (``limit`` doubles from 16 until it reaches e) and as many
#: again for the work space of ``CostTable.add``, big-int masks of about 2e
#: bits (A + A) for ``sumfree`` and of sum(A) bits (the subset sums) for
#: ``fs``, and about one ``coprime`` mark per integer scanned.  Under
#: operators whose accepted elements grow geometrically (``normk`` with
#: k >= 7, ``fs``) ordinary words of a few dozen bits reach it.
DEFAULT_CANDIDATE_CEILING = 1_000_000

# Decoder marks to ternary symbols.
_SYMBOLS = bytes.maketrans(b"\x00\x01\x02", b"0*1")


class CandidateCeilingExceeded(RuntimeError):
    """The next candidate lies past a forbidden integer and above
    ``DEFAULT_CANDIDATE_CEILING``; nothing is accepted or rejected for it."""


@dataclass(frozen=True)
class EncodeResult:
    """Encoder output: accepted set, rejected set, last candidate consumed.

    Both prefixes carry horizon == consumed: every integer up to the last
    candidate is classified (accepted, rejected, or skipped as forbidden).
    """

    accepted: IntSetPrefix
    rejected: IntSetPrefix
    consumed: int


@dataclass(frozen=True)
class DecodeResult:
    """Decoder output.

    ``ternary`` has one symbol per position up to the input horizon; ``bits``
    is the star-free subsequence and is certified for its full length
    (horizon minus the number of stars).  ``violations`` lists the elements
    of a non-member input that are forbidden by their own predecessors.
    """

    ternary: str
    bits: str
    violations: tuple[int, ...]


def encode(op: OperatorKind, word: str) -> EncodeResult:
    """Run the greedy classifier over ``word`` and return both sides."""
    check_word(word)
    oracle = incremental_oracle(op)
    accepted: list[int] = []
    rejected: list[int] = []
    consumed = 0
    for bit in word:
        candidate = oracle.next_allowed(consumed + 1)
        if candidate > consumed + 1 and candidate > DEFAULT_CANDIDATE_CEILING:
            raise CandidateCeilingExceeded(
                f"candidate scan passed the ceiling {DEFAULT_CANDIDATE_CEILING} under {op} "
                f"with {len(accepted) + len(rejected)} of {len(word)} bits classified; "
                f"largest accepted element {accepted[-1] if accepted else 'none'}"
            )
        consumed = candidate
        if bit == "1":
            accepted.append(candidate)
            oracle.add(candidate)
        else:
            rejected.append(candidate)
    return EncodeResult(
        IntSetPrefix(tuple(accepted), consumed),
        IntSetPrefix(tuple(rejected), consumed),
        consumed,
    )


def decode(op: OperatorKind, prefix: IntSetPrefix) -> DecodeResult:
    """Render a prefix as its ternary word and extract the bit word.

    Position a is '1' when a is an element, '*' when the elements strictly
    below a forbid it, '0' otherwise.  Membership is not required: elements
    that are themselves forbidden by their predecessors stay '1' in the
    ternary word and are reported in ``violations``.
    """
    oracle = incremental_oracle(op)
    # One byte per position: 0 neither, 1 forbidden, 2 element.
    marks = np.zeros(prefix.horizon, dtype=np.uint8)
    violations: list[int] = []
    lo = 1
    for element in prefix.elements:
        if element > lo:
            marks[lo - 1 : element - 1] = oracle.forbidden_in(lo, element - 1)
        if oracle.forbids(element):
            violations.append(element)
        oracle.add(element)
        lo = element + 1
    if prefix.horizon >= lo:
        marks[lo - 1 :] = oracle.forbidden_in(lo, prefix.horizon)
    marks[np.array(prefix.elements, dtype=np.intp) - 1] = 2
    ternary = marks.tobytes().translate(_SYMBOLS).decode("ascii")
    return DecodeResult(ternary, ternary.replace("*", ""), tuple(violations))


def roundtrip_ok(op: OperatorKind, word: str) -> bool:
    """Encode, decode the accepted set, and compare with the input word."""
    return decode(op, encode(op, word).accepted).bits == word
