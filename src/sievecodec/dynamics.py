"""Iterating the decoder as a self-map: orbits, limits, fixed points,
and ultimate completeness.

Under the identification of sets with their indicator words, decoding under
any operator maps one set prefix to another (with a smaller certified
horizon, one position lost per forbidden mark).  Per step, each element moves
down by the number of stars below it, so consecutive gaps never grow; a
position is *frozen* once one decode pass produces no star at or below it,
because from then on every later pass sees the identical prefix below that
boundary.  Frozen prefixes are the finite certificates of orbit limits used
throughout this module.  Under ``sumfree`` the encoder is Cameron's bijection
between 0/1 sequences and sum-free sets ("Portrait of a typical sum-free
set", 1987).

Fixed points are read off the first forbidden integer.  A set S is an
encoder fixed point exactly when no integer up to max S is forbidden by the
elements of S below it.

Orbit computation is sequential per orbit; distinct orbits are independent
and all records are immutable once returned.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice

from .codec import DecodeResult, decode
from .core import IntSetPrefix, from_characteristic
from .operators import OperatorKind, branching_oracle, incremental_oracle, is_member
from .relations import Relation, find_anchored_relation

#: ``encoder_fixed_points`` refuses ground sets [1, M] larger than this.  Its
#: search does work in proportion to the fixed points it finds, whose number
#: still grows exponentially with M, and it keeps no node budget.  A node
#: makes at most one ``add`` and a few ``forbids`` calls.
FIXED_POINT_ENUMERATION_BOUND = 32


@dataclass(frozen=True)
class OrbitRecord:
    """A decoded orbit: every iterate, stars shed per step, and the verdict.

    ``iterates[0]`` is the starting prefix and each following entry is one
    decode step (horizon shrinks by the stars produced).  ``verdict`` is one
    of ``"ok"``, ``"stabilized"``, ``"horizon-exhausted"`` or
    ``"insufficient-horizon"``.  For stabilized limit searches,
    ``stabilized_prefix`` holds the frozen prefix and
    ``iterations_to_stability`` the index of the iterate that froze it; a
    failed limit search still reports the largest frozen prefix found.
    """

    iterates: tuple[IntSetPrefix, ...]
    stars_per_step: tuple[int, ...]
    stabilized_prefix: IntSetPrefix | None
    iterations_to_stability: int | None
    verdict: str


def _below_top_run(op: OperatorKind, prefix: IntSetPrefix) -> tuple[DecodeResult, int]:
    """The decode of ``prefix`` cut just below its top run, and the run's length.

    The top run is the run of consecutive elements that ends at the horizon.
    An element's position always reads '1', and position a of a decode pass
    depends only on the elements below a, so the decode of the whole prefix
    is this one followed by one '1' per run element.
    """
    elements, horizon = prefix.elements, prefix.horizon
    n = len(elements)
    # elements[i] - i never decreases; the top run is where it reaches
    # horizon - n + 1, the most it can be.
    run = n - bisect_left(range(n), horizon - n + 1, key=lambda i: elements[i] - i)
    return decode(op, prefix.truncate(horizon - run)), run


def _step(op: OperatorKind, prefix: IntSetPrefix) -> tuple[IntSetPrefix, int, int]:
    """One decode pass: next iterate, star count, leading star-free length."""
    result, run = _below_top_run(op, prefix)
    first_star = result.ternary.find("*")
    frozen_len = prefix.horizon if first_star < 0 else first_star
    return from_characteristic(result.bits + "1" * run), result.ternary.count("*"), frozen_len


def _passes(op: OperatorKind, start: IntSetPrefix, floor: int):
    """Each decode pass from ``start`` while the horizon is at least ``floor``:
    (iterate, next iterate, stars shed, frozen length)."""
    while start.horizon >= floor:
        nxt, shed, frozen_len = _step(op, start)
        yield start, nxt, shed, frozen_len
        start = nxt


def decode_orbit(op: OperatorKind, start: IntSetPrefix, steps: int) -> OrbitRecord:
    """Apply the decoder ``steps`` times, recording every iterate."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    passes = list(islice(_passes(op, start, 1), steps))
    verdict = "ok" if len(passes) == steps else "horizon-exhausted"
    iterates = (start, *(nxt for _, nxt, _, _ in passes))
    return OrbitRecord(iterates, tuple(shed for _, _, shed, _ in passes), None, None, verdict)


def find_limit(op: OperatorKind, start: IntSetPrefix, prefix_len: int) -> OrbitRecord:
    """Iterate the decoder until the first ``prefix_len`` positions freeze.

    Freezing is certified by a decode pass with no star at or below the
    boundary; the returned ``stabilized_prefix`` is then exact for the orbit
    limit.  If the certified horizon drops below ``prefix_len`` first, the
    verdict is ``"insufficient-horizon"`` and the largest prefix that did
    freeze is reported instead; a wrong limit is never returned.  Either
    prefix precedes the first star of a pass, so it decodes with no star.

    The largest frozen prefix is the last pass's: the positions below a
    pass's first star carry into the next iterate unchanged, and a position
    decodes from the elements below it alone, so they decode alike there and
    the frozen length never falls.
    """
    if prefix_len < 1:
        raise ValueError("prefix_len must be at least 1")
    iterates, stars, frozen = [start], [], None
    for iteration, (current, nxt, shed, frozen_len) in enumerate(_passes(op, start, prefix_len)):
        iterates.append(nxt)
        stars.append(shed)
        frozen = current.truncate(min(frozen_len, prefix_len))
        if frozen_len >= prefix_len:
            return OrbitRecord(tuple(iterates), tuple(stars), frozen, iteration, "stabilized")
    return OrbitRecord(tuple(iterates), tuple(stars), frozen, None, "insufficient-horizon")


def is_encoder_fixed_point(op: OperatorKind, prefix: IntSetPrefix) -> bool:
    """Does encoding the indicator word of ``prefix`` reproduce it?

    Exactly when no integer up to max S is forbidden by the elements of S
    below it, so the walk stops at the first forbidden integer p.  If p is in
    S, the encoder skips it.  Otherwise take the next element a > p: steps
    p..a-1 read zeros, so they see the same oracle, and at most a - p
    integers in (p, a] are allowed.  So a is skipped or is the candidate of
    one of those steps, and is rejected either way.  With no forbidden
    integer, candidate i is i up to max S and the encoder accepts S; beyond
    max S the word is all zeros, so the horizon plays no part.

    The empty set forbids nothing, so the walk starts past min S, and no
    check reads the add of max S, so it is not made.
    """
    elements = prefix.elements
    if len(elements) < 2:
        return True
    oracle = incremental_oracle(op, elements[-1])
    for below, a in zip(elements, elements[1:]):
        oracle.add(below)
        for value in range(below + 1, a + 1):
            if oracle.forbids(value):
                return False
    return True


def encoder_fixed_points(op: OperatorKind, max_element: int) -> list[IntSetPrefix]:
    """All subsets S of [1, max_element] fixed by the encoder of ``op``.

    A fixed point is a prefix with horizon ``max_element``, i.e. with an
    all-zero indicator tail, which is the only reading under which a finite
    set can be a fixed point at all.  By :func:`is_encoder_fixed_point` the
    search decides 1..max_element in order: S may take or leave out an
    integer its elements below allow, and the first integer they forbid ends
    the branch with a fixed point.  A branch that takes an integer extends a
    copy of its parent's oracle, and only once an integer is left to decide,
    so the search builds one oracle and makes at most one ``add`` per fixed
    point found.  Under ``normk`` with k >= 5 the ``branching_oracle`` keeps
    its cost levels in big ints that copies share, and no cost table.
    Each branch carries its elements beside its mask.  The results, ordered
    by the mask sum of 2**(e - 1) over the elements e, are built unchecked:
    the search decides 1..max_element in increasing order, so each tuple
    rises strictly within [1, max_element].  Checking them took about three
    quarters of the walk's own time at k = 5, M = 10.
    Refuses ground sets beyond ``FIXED_POINT_ENUMERATION_BOUND``.
    """
    if max_element < 1:
        raise ValueError("max_element must be at least 1")
    if max_element > FIXED_POINT_ENUMERATION_BOUND:
        raise ValueError(
            f"exhaustive enumeration over [1, {max_element}] exceeds the bound "
            f"{FIXED_POINT_ENUMERATION_BOUND}"
        )
    found: list[tuple[int, tuple[int, ...]]] = []
    # Open branches: the next integer to decide, the mask and the elements of
    # S below it, and an oracle holding S without its last element.  Branches
    # only ever call ``forbids`` on the oracle they hold, so siblings share
    # their parent's.
    branches = [(1, 0, (), branching_oracle(op, max_element))]
    while branches:
        value, mask, elements, oracle = branches.pop()
        if elements and value <= max_element:
            oracle = oracle.copy()
            oracle.add(elements[-1])
        while value <= max_element and not oracle.forbids(value):
            # This branch leaves the value out of S; the pushed one takes it.
            branches.append((value + 1, mask | 1 << (value - 1), elements + (value,), oracle))
            value += 1
        found.append((mask, elements))
    found.sort()  # masks are distinct, so no two element tuples are compared
    return [IntSetPrefix._trusted(elements, max_element) for _, elements in found]


@dataclass(frozen=True)
class CompletenessVerdict:
    """Window-restricted ultimate-completeness verdict.

    ``kind`` is ``"complete-on-window"``, ``"incomplete"`` (with the least
    unforbidden non-member as ``witness``), or ``"undecided"`` when the
    window starts beyond the certified horizon.  Finite data never yields an
    unconditional "complete".
    """

    kind: str
    witness: int | None = None


def ultimately_complete_on(
    op: OperatorKind, prefix: IntSetPrefix, window_start: int
) -> CompletenessVerdict:
    """Is every non-member in [window_start, horizon] forbidden by the
    elements below it?"""
    if window_start < 1:
        raise ValueError("window_start must be at least 1")
    if window_start > prefix.horizon:
        return CompletenessVerdict("undecided")
    # A '0' in the ternary word is a non-member its predecessors do not
    # forbid; the top run reads all '1'.
    gap = _below_top_run(op, prefix)[0].ternary.find("0", window_start - 1)
    if gap < 0:
        return CompletenessVerdict("complete-on-window")
    return CompletenessVerdict("incomplete", gap + 1)


@dataclass(frozen=True)
class SufficiencyEvidence:
    """The three-part sufficient condition for ultimate completeness of the
    encoder image of an orbit limit, with per-part evidence.

    * ``in_family``: the prefix is a member at norm bound k,
    * ``augmented_escapes``: adjoining 1 breaks membership at bound k - 1,
    * ``unit_relation``: a relation on the set plus 1 with the coefficient of
      1 pinned to 1 and norm at most k - 2 (None when there is none).

    ``holds`` is the conjunction.
    """

    in_family: bool
    augmented_escapes: bool
    unit_relation: Relation | None
    holds: bool


def completeness_sufficient_condition(
    k: int, prefix: IntSetPrefix
) -> SufficiencyEvidence:
    """Evaluate the sufficient condition at norm bound k (k >= 3).

    A witness makes the escape test needless, so it runs only without one.
    Take a witness 1 + sum(c_b * b) == 0 of norm at most k - 2, and let w be
    its largest element.  Rearranged, it reads
    |c_w| * w == -+(1 + sum over b < w of c_b * b), a relation of the same
    norm, below k - 1, on w and the elements of S | {1} below w.  So those
    elements forbid w at bound k - 1, and S | {1} escapes.
    """
    if k < 3:
        raise ValueError("the condition needs k >= 3 so that k - 1 is a valid bound")
    in_family = is_member(OperatorKind("normk", k), prefix)
    # With 1 in the set, adjoining it changes nothing and the pinned-coefficient
    # search is undefined: there is no witness, and the escape test decides
    # the middle part alone.
    witness = None if prefix.elements[:1] == (1,) else find_anchored_relation(prefix.elements, k)
    augmented_escapes = witness is not None or not is_member(
        OperatorKind("normk", k - 1),
        IntSetPrefix.of(set(prefix.elements) | {1}, max(prefix.horizon, 1)),
    )
    holds = in_family and augmented_escapes and witness is not None
    return SufficiencyEvidence(in_family, augmented_escapes, witness, holds)
