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
encoder would have consumed.  Decoding accepts non-member prefixes and
reports where their elements violate the family condition, which the orbit
machinery in :mod:`sievecodec.dynamics` relies on.  Its two paths, one
render of the final set and a walk over the gaps (``normk`` with k >= 5),
fill the same bytes, 1 where the elements below a position forbid it, and
one loop reads the violations off the elements' bytes; ``decode`` tells why
each path is exact.

Pure functions throughout; every call is independent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import IntSetPrefix, check_word
from .operators import OperatorKind, incremental_oracle

#: The encoder refuses a candidate above this that lies past a forbidden
#: integer.  It bounds the oracle's state, which grows with the largest
#: accepted element e: 2*(k-2)*limit one-byte ``CostTable`` cells for
#: ``normk:<k>`` with k >= 5 (``limit`` quadruples from 16 until it reaches e,
#: so it is below 4e, and at most 2**20 = 16 * 4**8 under this ceiling; decode
#: and membership have no ceiling and the same 4e, or big-int levels of at
#: most ``operators._LEVELS_BITS`` bits each) and as many again for the
#: work space of ``CostTable.add``, big-int masks of about 2e bits for
#: ``sumfree`` and ``normk:4`` (the pair sums) and none for ``normk:2`` and
#: ``normk:3``, of sum(A) bits for ``fs`` (the sums of two or more members),
#: and one-byte ``coprime`` marks from 0 up to less than four times the
#: largest integer scanned (twice, past ``operators._SPF_CAP``).  Under
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
    last = len(word) - 1
    for i, bit in enumerate(word):
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
            if i < last:  # nothing reads the add of the last bit's element
                oracle.add(candidate)
        else:
            rejected.append(candidate)
    # Candidates rise strictly from 1 to ``consumed``: both prefixes are valid.
    return EncodeResult(
        IntSetPrefix._trusted(tuple(accepted), consumed),
        IntSetPrefix._trusted(tuple(rejected), consumed),
        consumed,
    )


def decode(op: OperatorKind, prefix: IntSetPrefix) -> DecodeResult:
    """Render a prefix as its ternary word and extract the bit word.

    Position a is '1' when a is an element, '*' when the elements strictly
    below a forbid it, '0' otherwise.  Membership is not required: elements
    that are themselves forbidden by their predecessors stay '1' in the
    ternary word and are reported in ``violations``.  So the '*' positions
    of the gap above the i-th element are J of the first i elements on that
    gap (up to the horizon for the last element).

    Both paths meet one contract, that of ``forbidden_through(horizon)``:
    a ``bytearray`` whose byte v - 1 is 1 when the elements below v forbid
    v and 0 otherwise, the elements' own bytes included.  One loop then
    reads each element's byte (a violation when it is 1) and overwrites it
    with the element mark 2, in place.

    Under every operator but ``normk`` with k >= 5 the oracle has
    ``forbidden_through``: every element below the horizon is added and the
    whole word is rendered once from the final state.  That is exact because
    the final state tells which positions the elements below each one forbid
    (the oracle notes in :mod:`sievecodec.operators` say why), and it costs
    one ``add`` per element and one render.  Told the horizon, the ``fs``
    oracle keeps no sum past it and stops shifting once its sums cover the
    rest.

    Under ``normk`` with k >= 5 a later element can forbid a value below it
    (a difference b - a), so ``_walk_gaps`` fills the bytes left to right:
    each element's byte and the gap below it come from one ``forbidden_in``
    window read before the element is added, so every byte is read off the
    elements below it, which is exact.  The walk stops adding once the
    elements added forbid every later position.  That is tested only after
    a violated element: ``free``, the least position above it still allowed,
    comes from ``next_allowed`` and is re-tested with one ``forbids`` after
    each later violated element.  ``free`` only moves forward, so these
    scans together cover the horizon at most once.  A gap below ``free`` is
    a run of 1 bytes with no window, its element's byte included.  When
    ``free`` passes the horizon, every later byte is 1 with no further
    ``add`` or window, which is exact because every operator is monotone.
    """
    elements, horizon = prefix.elements, prefix.horizon
    oracle = incremental_oracle(op, horizon)
    render = getattr(oracle, "forbidden_through", None)
    if render is None:
        raw = _walk_gaps(oracle, elements, horizon)
    else:
        for element in elements:
            if element < horizon:  # nothing reads the add of one at the horizon
                oracle.add(element)
        raw = render(horizon)
    violations = []
    for element in elements:
        if raw[element - 1]:
            violations.append(element)
        raw[element - 1] = 2
    return DecodeResult(
        raw.translate(_SYMBOLS).decode("ascii"),
        raw.translate(_SYMBOLS, b"\x01").decode("ascii"),  # the forbidden marks deleted
        tuple(violations),
    )


def _walk_gaps(oracle, elements: tuple[int, ...], horizon: int) -> bytearray:
    """``forbidden_through(horizon)`` of the elements under ``normk`` with
    k >= 5, read gap by gap as ``decode`` tells."""
    raw = bytearray(horizon)
    lo = 1
    # After a violated element: a position the elements added did not forbid
    # when it was found, and every position in [lo, free) is forbidden.  0
    # before any violated element.
    free = 0
    for element in elements:
        # The gap below the element and the element's own byte.
        if element < free:
            raw[lo - 1 : element] = b"\x01" * (element - lo + 1)
        else:
            raw[lo - 1 : element] = oracle.forbidden_in(lo, element)
        lo = element + 1
        if element == horizon:  # nothing reads the add of one at the horizon
            continue
        oracle.add(element)
        if raw[element - 1] and (free < lo or oracle.forbids(free)):
            free = oracle.next_allowed(max(free, lo))
            if free > horizon:  # the elements added forbid every later one
                raw[element:] = b"\x01" * (horizon - element)
                return raw
    if horizon >= lo:
        raw[lo - 1 :] = oracle.forbidden_in(lo, horizon)
    return raw


def roundtrip_ok(op: OperatorKind, word: str) -> bool:
    """Encode, decode the accepted set, and compare with the input word."""
    return decode(op, encode(op, word).accepted).bits == word
