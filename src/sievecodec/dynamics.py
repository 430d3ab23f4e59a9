"""Iterating the decoder as a self-map: orbits, limits, fixed points,
and ultimate completeness.

Under the identification of sets with their indicator words, decoding under
the norm-k operator maps one set prefix to another (with a smaller certified
horizon, one position lost per forbidden mark).  Per step, each element moves
down by the number of stars below it, so consecutive gaps never grow; a
position is *frozen* once one decode pass produces no star at or below it,
because from then on every later pass sees the identical prefix below that
boundary.  Frozen prefixes are the finite certificates of orbit limits used
throughout this module.

Fixed points are read off the first forbidden integer.  A set S is an
encoder fixed point exactly when no integer up to max S is forbidden by the
elements of S below it, and a head of a prefix is decoder-fixed exactly when
no star lies below its last element.

Orbit computation is sequential per orbit; distinct orbits are independent
and all records are immutable once returned.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .codec import decode
from .core import IntSetPrefix, from_characteristic
from .operators import OperatorKind, incremental_oracle, is_member, norm_k
from .relations import Relation, find_anchored_relation

#: ``encoder_fixed_points`` refuses ground sets [1, M] larger than this.  Its
#: search does work in proportion to the fixed points it finds, whose number
#: still grows exponentially with M, and it keeps no node budget.
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


def _ternary(op: OperatorKind, prefix: IntSetPrefix) -> str:
    """The ternary word of ``prefix``, decoded only below its top run.

    The top run is the run of consecutive elements that ends at the horizon.
    An element's position always reads '1', and position a of a decode pass
    depends only on the elements below a, so the word is the decode of the
    prefix cut just below the run followed by one '1' per run element.
    """
    elements, horizon = prefix.elements, prefix.horizon
    n = len(elements)
    # elements[i] - i never decreases; the top run is where it reaches
    # horizon - n + 1, the most it can be.
    run = n - bisect_left(range(n), horizon - n + 1, key=lambda i: elements[i] - i)
    return decode(op, prefix.truncate(horizon - run)).ternary + "1" * run


def _step(k: int, prefix: IntSetPrefix) -> tuple[IntSetPrefix, int, int]:
    """One decode pass: next iterate, star count, leading star-free length."""
    ternary = _ternary(norm_k(k), prefix)
    first_star = ternary.find("*")
    frozen_len = prefix.horizon if first_star < 0 else first_star
    return from_characteristic(ternary.replace("*", "")), ternary.count("*"), frozen_len


def decode_orbit(k: int, start: IntSetPrefix, steps: int) -> OrbitRecord:
    """Apply the decoder ``steps`` times, recording every iterate."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    iterates = [start]
    stars: list[int] = []
    current = start
    verdict = "ok"
    for _ in range(steps):
        if current.horizon < 1:
            verdict = "horizon-exhausted"
            break
        current, shed, _ = _step(k, current)
        iterates.append(current)
        stars.append(shed)
    return OrbitRecord(tuple(iterates), tuple(stars), None, None, verdict)


def find_limit(k: int, start: IntSetPrefix, prefix_len: int) -> OrbitRecord:
    """Iterate the decoder until the first ``prefix_len`` positions freeze.

    Freezing is certified by a decode pass with no star at or below the
    boundary; the returned ``stabilized_prefix`` is then exact for the orbit
    limit.  If the certified horizon drops below ``prefix_len`` first, the
    verdict is ``"insufficient-horizon"`` and the largest prefix that did
    freeze is reported instead; a wrong limit is never returned.
    """
    if prefix_len < 1:
        raise ValueError("prefix_len must be at least 1")
    iterates = [start]
    stars: list[int] = []
    best_frozen: IntSetPrefix | None = None
    current = start
    iteration = 0
    while current.horizon >= prefix_len:
        nxt, shed, frozen_len = _step(k, current)
        iterates.append(nxt)
        stars.append(shed)
        if best_frozen is None or frozen_len > best_frozen.horizon:
            best_frozen = current.truncate(frozen_len)
        if frozen_len >= prefix_len:
            return OrbitRecord(
                tuple(iterates),
                tuple(stars),
                current.truncate(prefix_len),
                iteration,
                "stabilized",
            )
        current = nxt
        iteration += 1
    return OrbitRecord(
        tuple(iterates), tuple(stars), best_frozen, None, "insufficient-horizon"
    )


def is_encoder_fixed_point(k: int, prefix: IntSetPrefix) -> bool:
    """Does encoding the indicator word of ``prefix`` reproduce it?

    Exactly when no integer up to max S is forbidden by the elements of S
    below it, so the walk stops at the first forbidden integer p.  If p is in
    S, the encoder skips it.  Otherwise take the next element a > p: steps
    p..a-1 read zeros, so they see the same oracle, and at most a - p
    integers in (p, a] are allowed.  So a is skipped or is the candidate of
    one of those steps, and is rejected either way.  With no forbidden
    integer, candidate i is i up to max S and the encoder accepts S; beyond
    max S the word is all zeros, so the horizon plays no part.
    """
    members = prefix.members()
    oracle = incremental_oracle(norm_k(k))
    for value in range(1, max(prefix.elements, default=0) + 1):
        if oracle.forbids(value):
            return False
        if value in members:
            oracle.add(value)
    return True


def encoder_fixed_points(k: int, max_element: int) -> list[IntSetPrefix]:
    """All subsets S of [1, max_element] fixed by the encoder at norm bound k.

    A fixed point is a prefix with horizon ``max_element``, i.e. with an
    all-zero indicator tail, which is the only reading under which a finite
    set can be a fixed point at all.  By :func:`is_encoder_fixed_point` the
    search decides 1..max_element in order: S may take or leave out an
    integer its elements below allow, and the first integer they forbid ends
    the branch with a fixed point.  Every branch builds one oracle, so the
    search builds one per fixed point found.  The result is ordered by the
    mask sum of 2**(e - 1) over the elements e.  Refuses ground sets beyond
    ``FIXED_POINT_ENUMERATION_BOUND``.
    """
    if max_element < 1:
        raise ValueError("max_element must be at least 1")
    if max_element > FIXED_POINT_ENUMERATION_BOUND:
        raise ValueError(
            f"exhaustive enumeration over [1, {max_element}] exceeds the bound "
            f"{FIXED_POINT_ENUMERATION_BOUND}"
        )
    op = norm_k(k)
    found: list[int] = []
    # Open branches: the next integer to decide, the mask of S below it, and
    # an oracle holding exactly that set.
    branches = [(1, 0, incremental_oracle(op))]
    while branches:
        value, mask, oracle = branches.pop()
        while value <= max_element and not oracle.forbids(value):
            # This oracle leaves the value out of S, a fresh one takes it.
            chosen, inside = mask | 1 << (value - 1), incremental_oracle(op)
            for i in range(value):
                if chosen >> i & 1:
                    inside.add(i + 1)
            branches.append((value + 1, chosen, inside))
            value += 1
        found.append(mask)
    return [
        IntSetPrefix(tuple(i + 1 for i in range(max_element) if mask >> i & 1), max_element)
        for mask in sorted(found)
    ]


@dataclass(frozen=True)
class SplitResult:
    """Partition of a stabilized limit prefix into a decoder-fixed head and
    the rest.

    ``fixed`` is the longest leading run of elements that the decoder maps to
    itself: the elements below the first star of one decode pass.
    ``residual`` is whatever remains.  ``nontrivial`` is False when only the
    empty head is fixed.
    """

    fixed: IntSetPrefix
    residual: IntSetPrefix
    nontrivial: bool


def split_limit(k: int, limit_prefix: IntSetPrefix) -> SplitResult:
    """Split a stabilized limit into its decoder-fixed head and residual.

    A head is decoder-fixed exactly when no star lies below its last
    element.  Position a of a decode pass depends only on the elements below
    a, so the head and the whole prefix share their stars below that
    element; a star there moves it down, and stars above it only shorten the
    certified horizon.  So one decode gives the head: the elements below the
    first star, all of them for a limit that ``find_limit`` stabilized.
    """
    elements = limit_prefix.elements
    ternary = _ternary(norm_k(k), limit_prefix)
    fixed_count = ternary.split("*", 1)[0].count("1")
    fixed = IntSetPrefix(elements[:fixed_count], limit_prefix.horizon)
    residual = IntSetPrefix(elements[fixed_count:], limit_prefix.horizon)
    return SplitResult(fixed, residual, fixed_count > 0 or not elements)


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
    # A '0' in the ternary word is a non-member its predecessors do not forbid.
    gap = _ternary(op, prefix).find("0", window_start - 1)
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
    """Evaluate the sufficient condition at norm bound k (k >= 3)."""
    if k < 3:
        raise ValueError("the condition needs k >= 3 so that k - 1 is a valid bound")
    in_family = is_member(norm_k(k), prefix)
    augmented = IntSetPrefix.of(set(prefix.elements) | {1}, max(prefix.horizon, 1))
    augmented_escapes = not is_member(norm_k(k - 1), augmented)
    if 1 in prefix.members():
        # Adjoining 1 changes nothing, so the middle condition decides alone;
        # the pinned-coefficient search is only defined without 1.
        return SufficiencyEvidence(in_family, augmented_escapes, None, False)
    witness = find_anchored_relation(prefix.elements, k)
    holds = in_family and augmented_escapes and witness is not None
    return SufficiencyEvidence(in_family, augmented_escapes, witness, holds)
