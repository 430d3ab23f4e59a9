"""Encoder and decoder between bit words and family-member set prefixes.

The encoder walks candidates upward: at each step the candidate is the least
integer that is neither already classified nor forbidden by the accepted set,
and the next input bit decides whether it is accepted or rejected.  Because
every shipped operator is monotone (growing the set never un-forbids a value),
candidates increase strictly and every integer up to the last candidate ends
up permanently classified, which is what makes the output horizons sound.

The decoder renders a prefix as a ternary word (member / forbidden-in-gap /
neither) and deletes the forbidden marks; what remains is the bit word the
encoder would have consumed.  Decoding accepts non-member prefixes too and
reports where their elements violate the family condition, which the orbit
machinery in :mod:`sievecodec.dynamics` relies on.

Pure functions throughout; every call is independent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import IntSetPrefix, check_word, delete_stars
from .operators import OperatorKind, incremental_oracle

#: Candidate search stops here.  Under operators whose accepted elements grow
#: geometrically (``normk`` with k >= 7, ``fs``) ordinary words of a few dozen
#: bits reach it, since the scan visits every integer up to the last candidate.
DEFAULT_CANDIDATE_CEILING = 1_000_000


class CandidateCeilingExceeded(RuntimeError):
    """The encoder's candidate scan passed ``DEFAULT_CANDIDATE_CEILING``."""


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
        candidate = consumed + 1
        while oracle.forbids(candidate):
            candidate += 1
            if candidate > DEFAULT_CANDIDATE_CEILING:
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
    members = prefix.members()
    oracle = incremental_oracle(op)
    symbols: list[str] = []
    violations: list[int] = []
    for position in range(1, prefix.horizon + 1):
        if position in members:
            if oracle.forbids(position):
                violations.append(position)
            oracle.add(position)
            symbols.append("1")
        elif oracle.forbids(position):
            symbols.append("*")
        else:
            symbols.append("0")
    ternary = "".join(symbols)
    return DecodeResult(ternary, delete_stars(ternary), tuple(violations))


def roundtrip_ok(op: OperatorKind, word: str) -> bool:
    """Encode, decode the accepted set, and compare with the input word."""
    return decode(op, encode(op, word).accepted).bits == word
