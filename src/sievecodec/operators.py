"""Forbidden-structure operators on sets of positive integers.

An operator J maps a finite set S to the set of integers it *forbids*, with
J(empty) = empty.  Four operators ship:

* ``sumfree``    -- J(S) = {a + b : a, b in S} (a == b allowed),
* ``normk:<k>``  -- values admitting an integer relation of norm below k with
  a nonzero coefficient on the value itself (see :mod:`sievecodec.relations`),
* ``coprime``    -- multiples of any prime factor of any member of S,
* ``fs``         -- sums of nonempty finite subsets of S.

Family membership.  A prefix {a1 < a2 < ...} belongs to the family of an
operator when no element lies in J of its strict predecessors, i.e.
a_{i+1} not in J({a1, ..., ai}) for every i.  Note that the weaker-looking
condition "A is disjoint from the union of its gap-restricted forbidden sets"
holds for *every* set by construction (the gap sets are carved out of the
complement of A), so it defines no family at all; the predecessor condition
is the one that reproduces classical sum-free and coprime semantics, and it
is the one implemented here.

Small norm bounds.  A relation of norm below k with coefficient y on v has
y**2 < k, and the other coefficients' squares sum to below k - y**2.  For
k <= 4 that leaves y = 1 and at most k - 2 further terms, each +/-1, so
``normk:2`` forbids nothing, ``normk:3`` forbids S itself, and ``normk:4``
forbids S, the sums a + b and the differences a - b of distinct members
a > b: its family is the weakly sum-free sets.  From k = 5 on, relations
with three terms or a coefficient of 2 appear.

The oracles (``incremental_oracle``) take elements in strictly increasing
order and answer only about values strictly above the largest one added.

Every family, ``fs`` included, is closed under taking subsets.  Take T a
subset of a member S, and t in T.  The elements of T below t are a subset of
the elements of S below t, and each J is monotone in its set (adding an
element never un-forbids a value), so t not in J(elements of S below t) gives
t not in J(elements of T below t).

All operations are pure; the prime-factor cache is grow-only and idempotent.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cache
from itertools import compress
from math import isqrt

from .core import IntSetPrefix
from .relations import CostTable, _admit, _check_norm_bound


# Each operator kind and its command-line syntax.
_KINDS = {"sumfree": "sumfree", "normk": "normk:<k>", "coprime": "coprime", "fs": "fs"}


@dataclass(frozen=True)
class OperatorKind:
    """Which forbidden-structure operator is in force."""

    kind: str
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown operator kind {self.kind!r}; expected one of {tuple(_KINDS.values())}")
        if self.kind == "normk":
            if not isinstance(self.k, int):
                raise ValueError("normk requires an integer norm bound k")
            _check_norm_bound(self.k)
        elif self.k is not None:
            raise ValueError(f"operator {self.kind!r} takes no parameter")

    def __str__(self) -> str:
        return f"normk:{self.k}" if self.kind == "normk" else self.kind


def parse_operator(text: str) -> OperatorKind:
    """Parse ``sumfree | normk:<k> | coprime | fs``; a colon needs a parameter."""
    name, colon, param = text.strip().partition(":")
    try:
        return OperatorKind(name, int(param) if colon else None)
    except ValueError as exc:
        raise ValueError(f"bad operator {text!r}: {exc}") from None


# --- prime factors -----------------------------------------------------------

# Smallest-prime-factor table, grown on demand up to ``_SPF_CAP``, which
# covers every encoder candidate below ``codec.DEFAULT_CANDIDATE_CEILING``;
# larger integers by trial division by the primes below the cap, which proves
# a cofactor left below the cap squared prime and refuses a larger one.  Both
# take their primes from one sieve of the odd numbers, built up to the power
# of two past the square root asked for and kept per size, 4 bytes a prime.
# So no query allocates in proportion to its integer.  The coprime oracle's
# marks grow 4-fold up to the cap and 2-fold past it, and a ``forbids`` probe
# never grows them past it.  Rebuilds are idempotent, so a racing refill at
# worst duplicates work.  The table is a 4-byte ``array`` written by slices,
# not a numpy array: numpy is imported only when a ``normk`` (k >= 5) cost
# table is built, and the table-free operators never load it.
_SPF_CAP = 1 << 20
_spf = array("I", [0, 1])


class FactorBoundExceeded(RuntimeError):
    """Trial division up to ``_SPF_CAP`` left a cofactor of ``_SPF_CAP**2`` or more."""


@cache
def _primes_below(bound: int) -> array:
    # The primes below ``bound``, a power of two up to _SPF_CAP, in increasing order.
    half = bound // 2
    odd = bytearray([1]) * half  # odd[i] for 2 * i + 1, sieved by slices
    odd[0] = 0
    for i in range(1, (isqrt(bound - 1) + 1) // 2):
        if odd[i]:  # p = 2i + 1 crosses out its odd multiples from p * p on
            start, p = 2 * i * (i + 1), 2 * i + 1
            odd[start::p] = bytes(len(range(start, half, p)))
    primes = array("I", [2] if bound > 2 else [])
    primes.extend(compress(range(1, bound, 2), odd))  # in place: no second copy
    return primes


def _ensure_spf(n: int) -> None:
    # Grow the table past n; its caller has n >= len(_spf).
    global _spf
    size = min(max(n + 1, 2 * len(_spf)), _SPF_CAP)
    table = array("I", range(size))
    # Larger primes first, so the smallest prime factor writes last.  A prime
    # past the root of size writes an empty slice.
    for p in reversed(_primes_below(1 << isqrt(size - 1).bit_length())):
        table[p * p :: p] = array("I", [p]) * len(range(p * p, size, p))
    _spf = table


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, in increasing order (none for n == 1)."""
    if n < 1:
        raise ValueError("prime_factors expects a positive integer")
    out = []
    if n >= _SPF_CAP:
        m = n
        for p in _primes_below(min(1 << isqrt(n).bit_length(), _SPF_CAP)):
            if p * p > m:
                break
            if m % p == 0:
                out.append(p)
                m //= p
                while m % p == 0:
                    m //= p
        if m >= _SPF_CAP * _SPF_CAP:
            raise FactorBoundExceeded(
                f"cannot factor {n}: trial division stops at the bound {_SPF_CAP}, "
                f"and the cofactor {m} left is too large to certify prime"
            )
        if m > 1:
            out.append(m)
        return out
    if n >= len(_spf):
        _ensure_spf(n)
    spf = _spf
    while n > 1:
        p = spf[n]
        out.append(p)
        n //= p
        while n % p == 0:
            n //= p
    return out


# --- incremental oracles -----------------------------------------------------
#
# An oracle holds a growing set and answers three calls about it:
#
# * ``add(e)`` admits one more element, larger than every element added,
# * ``forbids(v)`` says whether the current set forbids v,
# * ``next_allowed(c)`` is the least v >= c that the current set does not
#   forbid.
#
# ``copy()``, an independent oracle over the same set, is answered by the
# oracles a search branches from (``branching_oracle``): the mask and coprime
# oracles, and ``_NormLevels`` (``normk``, k >= 5).  Under ``normk`` with
# k >= 5, decode and the membership tests read ``_NormLevels`` too while
# their horizon keeps its levels within ``_LEVELS_BITS``; encode, which names
# no horizon, and larger sweeps read the windowed ``_NormOracle``.
#
# Each ``incremental_oracle`` has one render call more, the one
# ``codec.decode`` makes.  Every oracle but ``normk`` for k >= 5 has
# ``forbidden_through(hi)``: a ``bytearray`` over [1, hi] whose (v-1)-th byte
# is 1 when the elements below v forbid v.  The decoder adds every element and
# renders the whole prefix once, with no add after it, so the final state must
# tell which positions the elements below each one forbid.  The mask oracles
# hold sums of two or more members, and such a sum lies above each member in
# it, so a later element never changes an earlier bit of the mask.  A later
# element's prime p forbids the multiples of p below it too, but a multiple v
# of p is forbidden by the elements below v exactly when v lies above the
# first element p divides, and the coprime oracle keeps that element.  A
# ``normk`` table with k >= 5 forbids values below the elements that forbid
# them (a difference b - a) and keeps no record of which elements a cost used,
# so ``_NormOracle`` and ``_NormLevels`` have ``forbidden_in(lo, hi)``
# instead, for the decoder's walk over the gaps: ``bytes`` or a ``bytearray``
# whose i-th byte is 1 when lo + i is forbidden and 0 otherwise (empty when
# hi < lo).
#
# ``forbids``, ``next_allowed`` and ``forbidden_in`` answer only about
# values strictly above the largest element added: the encoder, the decoder,
# the membership test and the fixed-point search walk a prefix left to right
# and ask nothing else.  So the mask oracles hold only what forbids such
# values, and the ``normk`` oracle for k >= 5 tries only the multipliers they
# admit (``_NormOracle``).  The decoder and both membership tests also name
# the last value they ask about to ``incremental_oracle``, and the ``fs`` mask
# keeps no sum past it.  Every operator is monotone (adding an element never
# un-forbids a value), so a value skipped as forbidden stays forbidden for
# good: the encoder can jump straight to ``next_allowed``, and the decoder's
# walk can read a whole gap between consecutive elements off one
# ``forbidden_in``.  For the same reason a value forbidden by e_1..e_i stays
# forbidden by all the elements below it, so once the elements added forbid
# every position up to the horizon, the walk marks the rest without adding
# the later elements, and the ``fs`` oracle stops shifting its mask.
#
# Runs of rejected bits make ``next_allowed`` calls a few values apart with no
# ``add`` between them, so two oracles keep what their last call read until
# the set changes: the mask oracles a 256-bit slice of the mask, the
# ``normk`` table oracle for k >= 5 the ``bytes`` window it found a free value
# in.  The coprime oracle keeps one byte per integer from 0 up, which only
# grow.  Both find the next free value with one ``find`` for a zero byte.
# ``_NormLevels`` keeps no window: the decoder's walk, its one caller of
# ``next_allowed``, adds an element between any two calls.


# Width of the slice of a mask that ``next_allowed`` keeps between calls.
_MASK_WINDOW = 256
_MASK_WINDOW_ONES = (1 << _MASK_WINDOW) - 1
# Binary digits to the bytes of ``forbidden_through``.
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _render(mask: int, n: int) -> bytearray:
    # Bits 0..n-1 of ``mask`` as n bytes 0 or 1.  The sentinel bit n keeps
    # the n digits, leading zeros included, in ``bin``; read backwards they
    # run from bit 0 up.
    return bytearray(bin(mask | 1 << n)[:2:-1], "ascii").translate(_DIGIT_BYTES)


class _MaskOracle:
    """Bit v of one big int, ``_mask``, is set when the current set forbids
    v, for every v above the set; ``_members`` has bit e set for each
    element e.

    The mask holds sums of two or more members: any two under ``sumfree``,
    two distinct ones under ``normk:4``, two or more distinct ones under
    ``fs``.  Above the set, ``fs`` forbids no other subset sum, since a sum
    of one member is that member.  Each subclass defines only ``add``; left
    empty, the mask serves ``normk:2`` and ``normk:3``, which forbid nothing
    above the set.  An ``add(e)`` sets bits above e alone.

    ``_settable`` has the bits an ``add`` may still set: -1, or the ones up
    to the ``_horizon`` the oracle is made for (-1 for none), built once a
    sum passes it.  Only ``fs`` reads them, whose sums reach far past the
    largest member.

    ``next_allowed`` keeps the slice ``_window`` of the mask, the
    ``_MASK_WINDOW`` bits from ``_window_lo`` on, and the mask it was read
    from, until the set changes: a run of rejected bits then reads each
    answer off that small int instead of shifting the whole mask.  Ints are
    immutable, so every ``add`` that changes the mask makes a new mask
    object, and the window is read only while ``_window_mask is _mask``.
    No ``add`` has to drop it, and a copy shares it with its original until
    one of them adds.
    """

    __slots__ = (
        "_mask", "_members", "_horizon", "_settable", "_window", "_window_lo", "_window_mask")

    def __init__(self, horizon: int | None = None) -> None:
        self._mask = self._members = 0
        self._horizon, self._settable = -1 if horizon is None else horizon, -1
        self._window = self._window_lo = 0
        self._window_mask = None

    def copy(self) -> _MaskOracle:
        # Big ints are immutable, so the twin shares them.
        twin = object.__new__(type(self))
        for name in _MaskOracle.__slots__:
            setattr(twin, name, getattr(self, name))
        return twin

    def add(self, element: int) -> None:
        pass

    def forbids(self, value: int) -> bool:
        return bool((self._mask >> value) & 1)

    def next_allowed(self, c: int) -> int:
        # run ^ (run + 1) sets the trailing ones of run and its lowest zero bit.
        start = c - self._window_lo
        if self._window_mask is self._mask and 0 <= start < _MASK_WINDOW:
            run = self._window >> start
            free = start + (run ^ (run + 1)).bit_length() - 1
            if free < _MASK_WINDOW:
                return self._window_lo + free
        mask = self._mask
        run = mask >> c
        window = run & _MASK_WINDOW_ONES
        free = (window ^ (window + 1)).bit_length() - 1
        if free < _MASK_WINDOW:
            self._window, self._window_lo, self._window_mask = window, c, mask
            return c + free
        # The whole slice is forbidden: read on past it.
        return c + (run ^ (run + 1)).bit_length() - 1

    def forbidden_through(self, hi: int) -> bytearray:
        return _render((self._mask >> 1) & ((1 << hi) - 1), hi)  # from position 1 up


class _PairSumOracle(_MaskOracle):
    """``sumfree``: the sums of any two members, a member with itself too."""

    __slots__ = ()

    def add(self, element: int) -> None:
        self._members |= 1 << element
        self._mask |= self._members << element


class _DistinctPairSumOracle(_MaskOracle):
    """``normk:4``: the sums of two distinct members."""

    __slots__ = ()

    def add(self, element: int) -> None:
        self._mask |= self._members << element
        self._members |= 1 << element


class _SubsetSumOracle(_MaskOracle):
    """``fs``: the sums of two or more distinct members.  Once they pass the
    horizon and cover every value above an element up to it, no later
    element sets a new bit, and ``_settable`` drops to 0.  That test reads
    the whole mask, so it is made only at an element with more binary digits
    than the last one: the adds it lets past lie below twice the element it
    first holds at."""

    __slots__ = ()

    def add(self, element: int) -> None:
        if not self._settable:
            return
        crossed = element.bit_length() > (self._members.bit_length() - 1).bit_length()
        mask = self._mask | (self._mask | self._members) << element
        if self._settable < 0 <= self._horizon < mask.bit_length() - 1:  # a sum passed it
            self._settable = (1 << self._horizon + 1) - 1
        self._mask = mask & self._settable
        self._members |= 1 << element
        if crossed and self._mask | (1 << element + 1) - 1 == self._settable:
            self._settable = 0


# Width of the window a ``normk`` (k >= 5) ``next_allowed`` search starts
# with, at the value asked about; each further window of the same call is
# twice as wide, and no width is kept between calls.  A window costs about
# its numpy calls, one comparison per multiplier, whatever its width up to a
# thousand cells or so (at k = 16 on a 2-core Xeon: 3.5 us for 64 cells, 4.3
# us for 512), and a second window costs those calls again, so a wide first
# window beats one sized to the last gap.  1,024 cells are faster still on
# lacunary words, but raised the peak RSS of the ``dynamics`` bench by 0.4
# MiB.  ``_NormLevels`` starts its searches at this width too: there a
# window costs about its width, but on the ``dynamics`` bench's orbit jobs 64
# cells were no faster than 512 (0-3 % slower).  The mask oracles keep a
# slice of fixed width, ``_MASK_WINDOW``; the coprime oracle searches its
# marks to their end.
_FIRST_WINDOW = 512
# A sweep told its horizon h takes ``_NormLevels`` when their widest level,
# 2 * (k - 2) * h bits, fits this, and ``_NormOracle`` otherwise.  A level
# shift costs about its width, a table call 3-10 us whatever its size.  The
# decode walk over density-1/10 starts ran 1.2-1.9 times as fast on the
# levels as on the table up to 2**14 bits, 1.0-1.5 times up to 2**15, and
# 0.87-0.90 times at k = 16 and 57,344 bits (a 2-core Xeon; CHANGES.md has
# the grid).
_LEVELS_BITS = 1 << 15


def _forbidding_multipliers(k: int) -> tuple[tuple[int, int], ...]:
    # (y, k - y**2) for each y that can forbid above the set (``_NormOracle``).
    return tuple((y, k - y * y) for y in range(1, isqrt(k - 1) + 1) if y * y + y + 1 < k)


class _NormOracle:
    """``normk:<k>`` for k >= 5.  A value v is forbidden when some y >= 1 has
    cost(y * v) + y**2 < k in the ``CostTable`` of the set.  Such a cost is
    at most k - 2, so the table's budget stops there.

    Which y can forbid.  Any y with y**2 < k may below the set, but above
    it fewer can: y * v = sum(c_b * b) over elements b < v needs
    sum(|c_b|) >= y + 1, so cost(y * v) = sum(c_b**2) >= y + 1 and the norm
    is at least y**2 + y + 1.  So only the y with y**2 + y + 1 < k are
    tried, kept as (y, k - y**2) pairs in ``_ys``, y = 1 first: y = 1 alone
    up to k = 7, y <= 2 up to k = 13.
    ``forbidden_in`` is the table's ``forbidden`` window over those pairs.

    ``next_allowed`` keeps the window it found a free value in, ``_window``
    starting at ``_window_lo``, until the next ``add``: a run of rejected
    bits reads its next free value off it with ``bytes.find``.  Any other
    search starts at the value asked about, with a ``_FIRST_WINDOW`` window
    that doubles until it holds a free value or passes the table's reach.
    Every window is exact, so the width changes how many windows are
    scanned, never the answer.
    """

    __slots__ = ("_table", "_ys", "_window", "_window_lo")

    def __init__(self, k: int) -> None:
        self._table = CostTable(k - 2)
        self._ys = _forbidding_multipliers(k)
        self._window, self._window_lo = b"", 0

    def add(self, element: int) -> None:
        self._table.add(element)
        self._window = b""

    def forbids(self, value: int) -> bool:
        table = self._table
        for y, bound in self._ys:
            c = table.min_cost(y * value)
            if c is not None and c < bound:
                return True
        return False

    def forbidden_in(self, lo: int, hi: int) -> bytes:
        return self._table.forbidden(self._ys, lo, hi)

    def next_allowed(self, c: int) -> int:
        window, lo = self._window, self._window_lo
        if lo <= c < lo + len(window):
            i = window.find(0, c - lo)
            if i >= 0:
                return lo + i
            lo += len(window)
        else:
            lo = c
        # Above the table's window every cost exceeds the budget.
        table, ys = self._table, self._ys
        edge = table.reach
        width = _FIRST_WINDOW
        while lo <= edge:
            hi = min(lo + width - 1, edge)
            window = table.forbidden(ys, lo, hi)
            i = window.find(0)
            if i >= 0:
                self._window, self._window_lo = window, lo
                return lo + i
            lo = hi + 1
            width *= 2
        return lo


class _NormLevels:
    """``normk:<k>`` for k >= 5 on the k - 1 levels of ``relations._admit``
    at ``unit``, the largest of the elements and the unit it was made with.
    v is forbidden when level k - 1 - y**2 holds y * v for a multiplier y of
    ``_NormOracle``.  An element above the unit rebases the levels to it; a
    search made with a bound on its elements never rebases.  Ints are
    immutable, so a copy shares the level list.

    Level r has no bit past 2r * unit, so every value above (k - 2) * unit
    is allowed, and ``next_allowed`` reads windows from the value asked
    about, ``_FIRST_WINDOW`` cells and then twice as many each time,
    until one holds a free value.  It keeps no window: the decoder's walk
    adds an element between any two calls.
    """

    __slots__ = ("_levels", "_unit", "_ys")

    def __init__(self, k: int, unit: int = 0) -> None:
        self._levels, self._unit = [1 << r * unit for r in range(k - 1)], unit
        self._ys = tuple((y, bound - 1) for y, bound in _forbidding_multipliers(k))

    def copy(self) -> _NormLevels:
        twin = object.__new__(_NormLevels)
        twin._levels, twin._unit, twin._ys = self._levels, self._unit, self._ys
        return twin

    def add(self, element: int) -> None:
        unit = max(element, self._unit)
        self._levels = _admit(self._levels, element, unit, self._unit)
        self._unit = unit

    def forbids(self, value: int) -> bool:
        levels, unit = self._levels, self._unit
        for y, r in self._ys:
            # y * value > 0, and level r has no bit past 2r * unit: no range test.
            if levels[r] >> r * unit + y * value & 1:
                return True
        return False

    def _mask(self, lo: int, n: int) -> int:
        # Bit i set when lo + i is forbidden, for i < n; n >= 1.  Multiplier
        # y reads every y-th bit of its level, off the digits of ``bin``: the
        # sentinel bit keeps them all, and the slice from 3 on, every y-th
        # digit, runs down from bit y * (n - 1) to bit 0.
        levels, unit = self._levels, self._unit
        mask = 0
        for y, r in self._ys:
            bits = levels[r] >> r * unit + y * lo
            if y == 1:
                mask |= bits & (1 << n) - 1
            else:
                span = y * (n - 1) + 1
                bits &= (1 << span) - 1
                if bits:
                    mask |= int(bin(bits | 1 << span)[3::y], 2)
        return mask

    def forbidden_in(self, lo: int, hi: int) -> bytearray:
        n = hi - lo + 1
        return _render(self._mask(lo, n), n) if n > 0 else bytearray()

    def next_allowed(self, c: int) -> int:
        width = _FIRST_WINDOW
        while True:
            run = self._mask(c, width)
            free = (run ^ (run + 1)).bit_length() - 1  # its lowest zero bit
            if free < width:
                return c + free
            c += width
            width *= 2


# Length of a fresh coprime oracle's marks.  They grow 4-fold while the new
# length stays within ``_SPF_CAP`` and 2-fold past it.  Each growth re-marks
# every prime found so far, so a dense word wants few of them; the cap bounds
# what a chain of ``forbids`` probes can make them allocate.
_FIRST_MARKS = 1024
# A bytearray marks a strided slice of another bytearray without the copy
# that bytes would take.
_ONE = bytearray(b"\x01")


class _CoprimeOracle:
    """``_marks[v]`` is 1 when a prime factor of some element divides v, and
    ``_primes`` maps each such prime to the first element it divides.

    The marks are a ``bytearray``, so ``next_allowed`` is one C-level
    ``find`` for a zero byte.  Growing them marks the multiples of every
    prime in ``_primes`` over the new part.

    The first elements give ``forbidden_through``: the elements below v
    forbid v exactly when some prime p divides v and an element below v,
    that is, when v is a multiple of p above the first element p divides.
    So the final set renders every earlier gap, with no marks grown.
    """

    __slots__ = ("_primes", "_marks")

    def __init__(self) -> None:
        self._primes: dict[int, int] = {}
        self._marks = bytearray(_FIRST_MARKS)

    def copy(self) -> _CoprimeOracle:
        twin = object.__new__(_CoprimeOracle)
        twin._primes, twin._marks = dict(self._primes), self._marks[:]
        return twin

    def _cover(self, hi: int) -> None:
        # Grow the marks past hi; both callers have hi >= len(self._marks).
        n = len(self._marks)
        size = n
        while size <= hi:
            size *= 4 if 4 * size <= _SPF_CAP else 2
        marks = bytearray(size)
        marks[:n] = self._marks
        for p in self._primes:
            first = n + (-n) % p
            marks[first::p] = _ONE * ((size - 1 - first) // p + 1)
        self._marks = marks

    def add(self, element: int) -> None:
        # An element no earlier one forbids brings only new primes; a
        # violation, which decode adds, may bring known ones.  A prime past
        # the marks has no multiple in them yet.
        primes, marks = self._primes, self._marks
        n = len(marks)
        for p in prime_factors(element):
            if p not in primes:
                primes[p] = element
                if p < n:
                    marks[p::p] = _ONE * ((n - 1) // p)

    def forbids(self, value: int) -> bool:
        # For a probe the marks grow by at most one step, and only while the
        # value is within twice their length and below ``_SPF_CAP``; a value
        # beyond that is tested against the primes, so a chain of probes each
        # within a doubling of the last allocates nothing in proportion to
        # its integers.
        if value >= len(self._marks):
            if value >= min(2 * len(self._marks), _SPF_CAP):
                return any(value % p == 0 for p in self._primes)
            self._cover(value)
        return self._marks[value] == 1

    def forbidden_through(self, hi: int) -> bytearray:
        # Byte v - 1 is position v: the multiples of p above its first element.
        out = bytearray(hi)
        for p, first in self._primes.items():
            start = first + p - 1
            if start < hi:
                out[start::p] = _ONE * ((hi - 1 - start) // p + 1)
        return out

    def next_allowed(self, c: int) -> int:
        while True:
            free = self._marks.find(0, c)
            if free >= 0:
                return free
            self._cover(max(c, len(self._marks)))


def incremental_oracle(op: OperatorKind, horizon: int | None = None):
    """Fresh oracle for one left-to-right sweep under ``op``.

    A sweep that asks about nothing past ``horizon`` may name it: the ``fs``
    oracle then answers only up to it, and ``normk`` with k >= 5 may take
    cost levels, as below (other oracles ignore it).

    Above the set, ``normk:<k>`` with k <= 4 forbids nothing up to k = 3 and
    the sums of two distinct members at k = 4, which big-int masks hold; from
    k = 5 on it needs cost levels: the big ints of ``_NormLevels`` when the
    horizon keeps them within ``_LEVELS_BITS``, else the ``CostTable`` of
    ``_NormOracle``.
    """
    if op.kind == "sumfree":
        return _PairSumOracle()
    if op.kind == "coprime":
        return _CoprimeOracle()
    if op.kind == "fs":
        return _SubsetSumOracle(horizon)
    if op.k >= 5:
        if horizon is not None and 2 * (op.k - 2) * horizon <= _LEVELS_BITS:
            return _NormLevels(op.k)
        return _NormOracle(op.k)
    return _DistinctPairSumOracle() if op.k == 4 else _MaskOracle()


def branching_oracle(op: OperatorKind, bound: int):
    """Fresh oracle for a search that branches by ``copy()`` and adds or asks
    about nothing past ``bound``: ``_NormLevels`` for ``normk`` with k >= 5."""
    if op.kind == "normk" and op.k >= 5:
        return _NormLevels(op.k, bound)
    return incremental_oracle(op, bound)


# --- the operator on a prefix ------------------------------------------------


def is_member(op: OperatorKind, prefix: IntSetPrefix) -> bool:
    """Does the prefix satisfy the family condition of ``op``?

    True iff no element is forbidden by its strict predecessors.  The empty
    prefix and singletons are always members.
    """
    elements = prefix.elements
    if len(elements) < 2:
        return True
    oracle = incremental_oracle(op, elements[-1])
    # Nothing reads the last element's add, so it is not made.
    for below, a in zip(elements, elements[1:]):
        oracle.add(below)
        if oracle.forbids(a):
            return False
    return True
