"""Search for integer linear relations with a bounded coefficient norm.

A *relation* on a finite set of positive integers is an integer coefficient
vector y with sum(y_b * b) == 0; its norm is sum(y_b ** 2).  The search here
is exhaustive and exact: a relation of norm below a bound k can use at most
k - 1 nonzero coefficients, each of magnitude at most isqrt(k - 1), so the
space is finite.  No lattice reduction, no approximation.

Witnesses have one shape: the coefficient of 1 is pinned to 1, the norm is
the least such a relation can have, and among those of that norm the
coefficient tuple, read along increasing elements, is lexicographically
least.  Repeated calls return the identical object contents.

The incremental :class:`CostTable` answers existence queries in O(1) after a
vectorised update per added element; it backs the windowed ``normk``
oracle of :mod:`sievecodec.operators` for encode and for the decode and
membership sweeps whose horizon is large.  Each table owns its work space, so
tables built in different threads share nothing.  Other searches keep
big-int masks instead, one per cost level (:func:`_admit`): the encoder
fixed-point walk, whose branches share them, the decode and membership
sweeps of small horizon (``operators._LEVELS_BITS``), and
:func:`find_anchored_relation`.  Its least possible norm is 3, since
1 +/- b == 0 needs b == 1, and norm 3 means 1 + b - (b + 1) == 0: so when
the base holds some b and b + 1 it returns that relation at the largest such
b and builds nothing.  Otherwise it makes one sweep of the masks and keeps
nothing once it returns.  This is the one module of the package that uses
numpy: the table's cells are numpy arrays, and what it hands out is plain
ints and ``bytes``.  numpy is imported when the first table is allocated, so
a process that builds none never loads it: one that runs only ``sumfree``,
``coprime``, ``normk`` with k <= 4 or ``fs``, the fixed-point walk, and
``normk`` decode, membership and orbit passes within
``operators._LEVELS_BITS`` (the ``dynamics`` bench's orbit jobs among them).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import isqrt

#: Largest norm bound the search machinery accepts; beyond it we refuse loudly
#: instead of silently truncating the search space.
DEFAULT_MAX_NORM_BOUND = 16

# Above every cost: costs never exceed DEFAULT_MAX_NORM_BOUND - 1 = 15, and
# ``CostTable.add`` adds at most 3**2 (coefficients |j| <= isqrt(15)) to a
# cell, so _INF + 9 still fits a one-byte cell.
_INF = 200

# A new CostTable covers elements up to this; it grows fourfold as elements
# arrive, so ``limit`` is always 16 * 4**m.
_FIRST_LIMIT = 16

np = None  # numpy, bound by the first ``_cells`` call


def _cells(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` one-byte cost cells, all above budget, and ``n`` cells of work space.

    They are two halves of one allocation.  With two arrays per table the
    allocator handed most tables fresh pages (14k page faults per pass over
    114 lacunary codec words, codec calls 10-25 % slower); one block is
    recycled as the cost array alone was.  A growing table quadruples its
    ``limit``, which takes half as many blocks as doubling and leaves glibc
    fewer freed blocks to return to the OS: over 30 rounds of the
    ``codec-lacunary`` bench words (seed 41) in one process on glibc 2.36,
    25,483 minor page faults fell to 326.  A table too long for numpy to
    dimension raises ``MemoryError``, as one too large to allocate does.
    """
    global np
    if np is None:
        import numpy as np
    try:
        both = np.empty(2 * n, dtype=np.uint8)
    except ValueError:  # "Maximum allowed dimension exceeded"
        raise MemoryError(f"a cost table of {2 * n} cells") from None
    both[:n] = _INF
    return both[:n], both[n:]


@cache
def _coefficient_plan(budget: int) -> tuple[tuple[int, int, np.uint8], ...]:
    """(j, budget - j**2, 2j - 1 as a one-byte scalar) for each coefficient
    j with j**2 <= budget: what ``CostTable.add`` needs of j, in the type it
    adds to the cells."""
    return tuple((j, budget - j * j, np.uint8(2 * j - 1)) for j in range(1, isqrt(budget) + 1))


@dataclass(frozen=True)
class Relation:
    """An integer relation: coefficients by element, plus the norm.

    ``coeffs`` maps each participating element to its nonzero coefficient,
    stored as (element, coefficient) pairs in increasing element order.
    """

    coeffs: tuple[tuple[int, int], ...]
    norm: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(tuple(p) for p in self.coeffs))
        prev = 0
        for element, coeff in self.coeffs:
            if element <= prev:
                raise ValueError("coefficients must be keyed by increasing elements")
            if coeff == 0:
                raise ValueError("stored coefficients must be nonzero")
            prev = element
        if self.norm != sum(c * c for _, c in self.coeffs):
            raise ValueError("norm does not match the sum of squared coefficients")
        if sum(e * c for e, c in self.coeffs) != 0:
            raise ValueError("coefficients do not satisfy sum(y_b * b) == 0")

    def __str__(self) -> str:
        # Largest element first, e.g. "1*6 - 2*3 = 0 (norm 5)".
        parts: list[str] = []
        for element, coeff in reversed(self.coeffs):
            sign = "-" if coeff < 0 else "+"
            term = f"{abs(coeff)}*{element}"
            if not parts:
                parts.append(term if coeff > 0 else f"-{term}")
            else:
                parts.append(f"{sign} {term}")
        body = " ".join(parts) if parts else "0"
        return f"{body} = 0 (norm {self.norm})"


class CostTable:
    """Minimum sum of squared coefficients realising each weighted sum.

    Tracks, over the elements added so far, the cheapest integer vector y
    (cost sum(y**2), one coefficient per element) achieving every value of
    sum(y_b * b).  The array covers the window [-reach, reach], where
    ``reach`` is budget * limit and ``limit`` is at least every element added.

    Growth invariant: a vector of cost <= ``budget`` over elements <= ``limit``
    has |sum(y_b * b)| <= sum(|y_b|) * limit <= budget * limit, and so do all
    of its partial sums.  Every cost <= budget is therefore exact inside the
    window, and every value outside it costs more than budget.  Growing
    ``limit`` (fourfold) keeps the old array exact as the centre of the new
    one, with every new cell above budget; growing replays no element.

    By the same bound a cost c lies within ``c * top`` of the centre (``top``
    the largest element), and coefficient j keeps a sum within budget only
    from a cost <= budget - j**2.  So ``add`` relaxes the one-byte cells in
    place from the ``(budget - j**2) * top`` span alone, whose targets all lie
    in the window, copied into the table's work space (as long as the table,
    freed with it).  Its work follows ``top``, not the window; it allocates
    nothing, and its coefficients come from a plan built once per budget.

    Reads: ``min_cost`` gives one cell; ``forbidden`` compares the cells of
    y * v for a run of consecutive v with a bound, one numpy comparison per
    multiplier over a slice strided by y, ORs them and returns ``bytes``.
    """

    __slots__ = ("budget", "limit", "reach", "top", "_cost", "_work", "_plan")

    def __init__(self, budget: int) -> None:
        if budget < 1:
            raise ValueError("budget must be at least 1")
        self.budget = budget
        self.limit = _FIRST_LIMIT
        self.reach = budget * self.limit  # also the index of value 0
        self._cost, self._work = _cells(2 * self.reach + 1)
        self._cost[self.reach] = 0
        self.top = 0  # the largest element
        self._plan = _coefficient_plan(budget)

    def _grow(self, need: int) -> None:
        while self.limit < need:
            self.limit *= 4
        old, reach = self._cost, self.reach
        self.reach = self.budget * self.limit
        self._cost, self._work = _cells(2 * self.reach + 1)
        self._cost[self.reach - reach : self.reach + reach + 1] = old

    def add(self, element: int) -> None:
        """Admit one more element; relaxes every sum over its coefficients."""
        if element < 1:
            raise ValueError("elements must be positive")
        if element > self.limit:
            self._grow(element)
        cost, centre, top, plan = self._cost, self.reach, self.top, self._plan
        r = (self.budget - 1) * top
        step = self._work[: 2 * r + 1]
        np.add(cost[centre - r : centre + r + 1], plan[0][2], out=step)  # the old costs + 1
        for j, spare, odd in plan:
            # Coefficient j relaxes from the costs <= budget - j**2: a centre slice.
            s = spare * top
            src = step[r - s : r + s + 1]
            if j > 1:
                src += odd  # now the old costs + j**2
            lo, hi, shift = centre - s, centre + s + 1, j * element
            up = cost[lo + shift : hi + shift]
            np.minimum(up, src, out=up)
            down = cost[lo - shift : hi - shift]
            np.minimum(down, src, out=down)
        self.top = max(top, element)

    def forbidden(self, ys, lo: int, hi: int) -> bytes:
        """One byte per v in [lo, hi]: 1 when some (y, bound) in ``ys`` has
        cost(y * v) < bound, else 0; ``b""`` when hi < lo.

        ``ys`` starts with y = 1, which reaches furthest: past ``reach`` every
        cost is above budget and every byte 0.
        """
        cost, reach = self._cost, self.reach
        out = cost[reach + lo : reach + min(hi, reach) + 1] < ys[0][1]
        for y, bound in ys[1:]:
            last = min(hi, reach // y)
            hit = cost[reach + y * lo : reach + y * last + 1 : y] < bound
            out[: len(hit)] |= hit
        if hi <= reach:  # hi < lo leaves the empty comparison
            return out.tobytes()
        return out.tobytes().ljust(hi - lo + 1, b"\0")  # the zero tail past the reach

    def min_cost(self, value: int) -> int | None:
        """Cheapest cost achieving ``value``, or None if above budget."""
        v = abs(value)
        if v > self.reach:
            return None
        c = int(self._cost[self.reach + v])
        return c if c <= self.budget else None


def _admit(levels: list[int], element: int, unit: int, old_unit: int) -> list[int]:
    """``levels`` once ``element`` joins: level r holds each sum s of cost <= r
    as bit r * unit + s, where ``levels`` held it at r * old_unit + s.  With
    unit at least every element, every shift is to the left."""
    grow = unit - old_unit
    based = [m << r * grow for r, m in enumerate(levels)] if grow else levels
    out = based.copy()
    j = 1
    while j * j < len(out):
        # Coefficient +-j on ``element`` lifts level r - j**2 to level r.
        apart, up = 2 * j * element, j * j * unit - j * element
        for r in range(j * j, len(out)):
            q = based[r - j * j]
            out[r] |= (q | q << apart) << up
        j += 1
    return out


def _holds(levels: list[int], unit: int, r: int, s: int) -> bool:
    """Does level r of ``levels`` (at ``unit``, as in :func:`_admit`) hold s?"""
    return abs(s) <= r * unit and levels[r] >> r * unit + s & 1 == 1


def _check_norm_bound(k: int) -> None:
    # k < 2 makes the relation condition unsatisfiable: a nonzero coefficient
    # already contributes norm >= 1.
    if k < 2:
        raise ValueError("norm bound k must be at least 2")
    if k > DEFAULT_MAX_NORM_BOUND:
        raise ValueError(f"norm bound {k} exceeds the supported maximum {DEFAULT_MAX_NORM_BOUND}")


def find_anchored_relation(base, k: int) -> Relation | None:
    """Minimal relation on base | {1} with the coefficient of 1 pinned to 1
    and norm at most k - 2, or None.

    Of the relations of that norm it returns the one whose coefficients, read
    along increasing elements, are lexicographically least.

    No witness has norm below 3: norm 2 leaves 1 +/- b == 0, and b == 1 is
    excluded.  Norm 3 puts +/-1 on two elements b < c, and of the four sums
    only 1 + b - c can vanish, so c = b + 1: a witness of norm 3 exists
    exactly when the base holds some b and b + 1.  Read along increasing
    elements, the one at the largest such b is least: at a smaller pair's b
    it has 0 where that pair has +1.

    Past norm 3 the search is exact reachability on big-int masks: level r
    holds each sum(y_b * b) of cost sum(y_b ** 2) <= r, the pinned 1 aside.
    One forward sweep along increasing elements, as wide as the largest
    element so far, builds levels 0..k - 3; the least level from 3 up
    holding -1 is the least norm less 1.  The walk then gives each element
    in increasing order the least coefficient y whose remainder the later
    elements hold at level spare - y**2.  A "<=" level may hold it at a cost
    below the spare norm, but nothing holds -1 below the least norm, so each
    choice starts a witness of exactly that norm.

    Cost, for n elements, largest element E and L = k - 3: O(L**1.5) shifts
    of at most 2 * L * E bits per element.  The later elements' masks are
    built twice and kept at about sqrt(n) checkpoints and for one block of
    about sqrt(n) elements: O(sqrt(n) * L**2 * E) bits at most.  At k = 5,
    or with a pair b, b + 1, it builds no mask.
    """
    _check_norm_bound(k)
    elements = frozenset(base)
    for b in elements:
        if not isinstance(b, int) or b < 1:
            raise ValueError(f"base set must contain positive integers, got {b!r}")
    if 1 in elements:
        raise ValueError("base set must not contain 1")
    # The norm-3 witness of the largest pair b, b + 1, if k - 2 admits norm 3;
    # k = 5 admits no other.
    pair = max((b for b in elements if b + 1 in elements), default=None)
    if pair is not None and k >= 5:
        return Relation(((1, 1), (pair, 1), (pair + 1, -1)), 3)
    if k <= 5 or not elements:
        return None
    ordered, n = sorted(elements), len(elements)
    last = ordered[-1]
    # The last element is read off for each coefficient j, not admitted.
    levels, top = [1] * (k - 2), 0
    for e in ordered[:-1]:
        levels, top = _admit(levels, e, e, top), e
    least = next((r for r in range(3, k - 2) for j in range(-isqrt(r), isqrt(r) + 1)
                  if _holds(levels, top, r - j * j, -1 - j * last)), None)
    if least is None:
        return None
    # Suffix masks at unit ``last``, levels 0..least: ``stops[i]`` holds the
    # sums over ordered[i:], kept at every ``block``-th i and at n.
    block = isqrt(n) + 1
    levels = [1 << r * last for r in range(least + 1)]
    stops = {n: levels}
    for i in range(n - 1, 0, -1):
        levels = _admit(levels, ordered[i], last, last)
        if i % block == 0:
            stops[i] = levels
    coeffs, target, spare = [], -1, least
    for a in range(0, n, block):
        b = min(a + block, n)
        after = [stops.pop(b)]  # after[-1] holds the sums over ordered[a + 1:]
        for i in range(b - 1, a, -1):
            after.append(_admit(after[-1], ordered[i], last, last))
        for e in ordered[a:b]:
            rest, bound = after.pop(), isqrt(spare)
            for y in range(-bound, bound + 1):  # Relation checks the sum
                if _holds(rest, last, spare - y * y, target - y * e):
                    break
            coeffs.append(y)
            target -= y * e
            spare -= y * y
    return Relation(((1, 1),) + tuple((e, y) for e, y in zip(ordered, coeffs) if y), least + 1)
