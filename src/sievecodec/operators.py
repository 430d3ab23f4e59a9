"""Forbidden-structure operators on sets of positive integers.

An operator J maps a finite set S to the set of integers it *forbids*, with
J(empty) = empty.  Four operators ship:

* ``sumfree``    -- J(S) = {a + b : a, b in S} (a == b allowed),
* ``normk:<k>``  -- values admitting an integer relation of norm below k with
  a nonzero coefficient on the value itself (see :mod:`sievecodec.relations`),
* ``coprime``    -- multiples of any prime factor of any member of S,
* ``fs``         -- sums of nonempty finite subsets of S (experimental; see
  the family note below).

Family membership.  A prefix {a1 < a2 < ...} belongs to the family of an
operator when no element lies in J of its strict predecessors, i.e.
a_{i+1} not in J({a1, ..., ai}) for every i.  Note that the weaker-looking
condition "A is disjoint from the union of its gap-restricted forbidden sets"
holds for *every* set by construction (the gap sets are carved out of the
complement of A), so it defines no family at all; the predecessor condition
is the one that reproduces classical sum-free and coprime semantics, and it
is the one implemented here.

For ``sumfree``, ``normk`` and ``coprime`` the family is closed under taking
subsets (each J is monotone in S, and the predecessor test only ever shrinks).
For ``fs`` closure is *not* asserted: its status is an open question, and the
test suite records what it observes on samples instead of assuming an answer.

All operations are pure; the prime-factor cache is grow-only and idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .core import IntSetPrefix
from .relations import CostTable, _check_norm_bound


@dataclass(frozen=True)
class OperatorKind:
    """Which forbidden-structure operator is in force."""

    kind: str
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}; expected one of {tuple(_KINDS)}")
        if self.kind == "normk":
            if not isinstance(self.k, int):
                raise ValueError("normk requires an integer norm bound k")
            _check_norm_bound(self.k)
        elif self.k is not None:
            raise ValueError(f"operator {self.kind!r} takes no parameter")

    def __str__(self) -> str:
        return f"normk:{self.k}" if self.kind == "normk" else self.kind


def sum_free() -> OperatorKind:
    return OperatorKind("sumfree")


def norm_k(k: int) -> OperatorKind:
    return OperatorKind("normk", k)


def coprime() -> OperatorKind:
    return OperatorKind("coprime")


def finite_sums() -> OperatorKind:
    return OperatorKind("fs")


def parse_operator(text: str) -> OperatorKind:
    """Parse ``sumfree | normk:<k> | coprime | fs``."""
    name, _, param = text.strip().partition(":")
    if name == "normk":
        try:
            return norm_k(int(param))
        except ValueError as exc:
            raise ValueError(f"bad operator {text!r}: {exc}") from None
    if param:
        raise ValueError(f"operator {name!r} takes no parameter")
    if name not in _KINDS:
        syntaxes = tuple(syntax for syntax, _ in _KINDS.values())
        raise ValueError(f"unknown operator {text!r}; expected one of {syntaxes}")
    return OperatorKind(name)


# --- prime factors -----------------------------------------------------------

# Smallest-prime-factor sieve, grown on demand.  Rebuilds are idempotent, so a
# racing refill at worst duplicates work.
_spf: list[int] = [0, 1]


def _ensure_spf(n: int) -> None:
    global _spf
    if n < len(_spf):
        return
    size = max(n + 1, 2 * len(_spf))
    table = list(range(size))
    for p in range(2, isqrt(size - 1) + 1):
        if table[p] == p:
            for multiple in range(p * p, size, p):
                if table[multiple] == multiple:
                    table[multiple] = p
    table[1] = 1
    _spf = table


def prime_factors(n: int) -> frozenset[int]:
    """Distinct prime factors of n (empty for n == 1)."""
    if n < 1:
        raise ValueError("prime_factors expects a positive integer")
    _ensure_spf(n)
    out = set()
    while n > 1:
        p = _spf[n]
        out.add(p)
        while n % p == 0:
            n //= p
    return frozenset(out)


# --- incremental oracles -----------------------------------------------------
#
# An oracle holds a growing set and answers four calls about it:
#
# * ``add(e)`` admits one more element (in any order),
# * ``forbids(v)`` says whether the current set forbids v,
# * ``next_allowed(c)`` is the least v >= c that the current set does not
#   forbid,
# * ``forbidden_in(lo, hi)`` is a numpy bool array whose i-th entry says
#   whether lo + i is forbidden (empty when hi < lo).
#
# Every query is about a value outside the set: the encoder, the decoder,
# ``apply_Ji`` and the membership test walk a prefix left to right and only
# ask about values above the elements added so far.  Every operator is
# monotone (adding an element never un-forbids a value), so a value skipped as
# forbidden stays forbidden for good: the encoder can jump straight to
# ``next_allowed``, and the decoder can mark a whole gap between consecutive
# elements with one ``forbidden_in``.


class _MaskOracle:
    """Bit v of one big int is set when the current set forbids v."""

    __slots__ = ("_mask",)

    def __init__(self) -> None:
        self._mask = 0

    def forbids(self, value: int) -> bool:
        return bool((self._mask >> value) & 1)

    def next_allowed(self, c: int) -> int:
        run = self._mask >> c
        # run ^ (run + 1) sets the trailing ones of run and its lowest zero bit.
        return c + (run ^ (run + 1)).bit_length() - 1

    def forbidden_in(self, lo: int, hi: int) -> np.ndarray:
        n = max(0, hi - lo + 1)
        window = (self._mask >> lo) & ((1 << n) - 1)
        raw = np.frombuffer(window.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(raw, count=n, bitorder="little").view(bool)


class _SumFreeOracle(_MaskOracle):
    """The mask holds A + A; ``_members`` holds A."""

    __slots__ = ("_members",)

    def __init__(self) -> None:
        super().__init__()
        self._members = 0

    def add(self, element: int) -> None:
        self._members |= 1 << element
        self._mask |= self._members << element


class _SubsetSumOracle(_MaskOracle):
    """The mask holds the nonempty subset sums."""

    __slots__ = ()

    def add(self, element: int) -> None:
        self._mask |= (self._mask << element) | (1 << element)


# Width of the first window a windowed ``next_allowed`` search scans; each
# further window of the same call is twice as wide.
_FIRST_WINDOW = 64


class _NormOracle:
    """A value v is forbidden when some y in 1..isqrt(k-1) has
    cost(y * v) + y**2 < k in the ``CostTable`` of the set.  Such a cost is
    at most k - 2, so the table's budget stops there.

    ``next_allowed`` keeps the free values of the windows it searched,
    ``_free`` over [``_free_lo``, ``_free_hi``], until the next ``add``, so
    the rejected bits of a run of zeros reuse them.
    """

    __slots__ = ("k", "_table", "_free", "_free_lo", "_free_hi")

    def __init__(self, k: int) -> None:
        self.k = k
        self._table = CostTable(max(1, k - 2))
        self._free = None
        self._free_lo = self._free_hi = 0

    def add(self, element: int) -> None:
        self._table.add(element)
        self._free = None

    def forbids(self, value: int) -> bool:
        # Exists y != 0 on the value with the rest of the set making up the
        # difference: min_cost(y * value) + y**2 < k.
        y = 1
        while y * y < self.k:
            c = self._table.min_cost(y * value)
            if c is not None and c + y * y < self.k:
                return True
            y += 1
        return False

    def forbidden_in(self, lo: int, hi: int) -> np.ndarray:
        out = np.zeros(max(0, hi - lo + 1), dtype=bool)
        y = 1
        while y * y < self.k:
            costs = self._table.multiples(y, lo, hi)
            out[: len(costs)] |= costs < self.k - y * y
            y += 1
        return out

    def next_allowed(self, c: int) -> int:
        lo = c
        if self._free is not None and self._free_lo <= c <= self._free_hi:
            i = int(np.searchsorted(self._free, c))
            if i < len(self._free):
                return int(self._free[i])
            lo = self._free_hi + 1
        # Above the table's window every cost exceeds the budget.
        edge = self._table.reach
        width = _FIRST_WINDOW
        while lo <= edge:
            hi = min(lo + width - 1, edge)
            free = np.flatnonzero(~self.forbidden_in(lo, hi))
            if free.size:
                self._free, self._free_lo, self._free_hi = free + lo, c, hi
                return lo + int(free[0])
            lo = hi + 1
            width *= 2
        return lo


# Length of a fresh coprime oracle's marks; they double as queries reach past.
_FIRST_MARKS = 1024


class _CoprimeOracle:
    """``_marks[v]`` is set when a prime factor of some element divides v."""

    __slots__ = ("_primes", "_marks")

    def __init__(self) -> None:
        self._primes: set[int] = set()
        self._marks = np.zeros(_FIRST_MARKS, dtype=bool)

    def _cover(self, hi: int) -> None:
        old = self._marks
        n = len(old)
        if hi < n:
            return
        size = 2 * n
        while size <= hi:
            size *= 2
        marks = np.zeros(size, dtype=bool)
        marks[:n] = old
        for p in self._primes:
            marks[n + (-n) % p :: p] = True
        self._marks = marks

    def add(self, element: int) -> None:
        for p in prime_factors(element) - self._primes:
            self._primes.add(p)
            self._marks[p::p] = True

    def forbids(self, value: int) -> bool:
        self._cover(value)
        return bool(self._marks[value])

    def forbidden_in(self, lo: int, hi: int) -> np.ndarray:
        self._cover(hi)
        return self._marks[lo : hi + 1].copy()

    def next_allowed(self, c: int) -> int:
        width = _FIRST_WINDOW
        while True:
            self._cover(c + width - 1)
            window = self._marks[c : c + width]
            i = int(window.argmin())
            if not window[i]:
                return c + i
            c += width
            width *= 2


# Each operator kind, its command-line syntax and its oracle class.
_KINDS = {
    "sumfree": ("sumfree", _SumFreeOracle),
    "normk": ("normk:<k>", _NormOracle),
    "coprime": ("coprime", _CoprimeOracle),
    "fs": ("fs", _SubsetSumOracle),
}


def incremental_oracle(op: OperatorKind):
    """Fresh oracle for one left-to-right sweep under ``op``."""
    _, oracle = _KINDS[op.kind]
    return oracle() if op.k is None else oracle(op.k)


# --- the operator on a prefix ------------------------------------------------


def apply_Ji(op: OperatorKind, prefix: IntSetPrefix, i: int) -> set[int]:
    """Forbidden values in the i-th gap of a prefix.

    For i < |A| this is J({a1..ai}) restricted to the open interval
    (a_i, a_{i+1}); for i == |A| the tail interval (a_i, horizon] is used,
    which is the largest interval the prefix certifies.
    """
    n = len(prefix.elements)
    if i < 1 or i > n:
        raise ValueError(f"gap index must be in [1, {n}], got {i}")
    oracle = incremental_oracle(op)
    for a in prefix.elements[:i]:
        oracle.add(a)
    lo = prefix.elements[i - 1] + 1
    hi = prefix.elements[i] - 1 if i < n else prefix.horizon
    return {lo + int(j) for j in np.flatnonzero(oracle.forbidden_in(lo, hi))}


def is_member(op: OperatorKind, prefix: IntSetPrefix) -> bool:
    """Does the prefix satisfy the family condition of ``op``?

    True iff no element is forbidden by its strict predecessors.  The empty
    prefix and singletons are always members.
    """
    elements = prefix.elements
    if len(elements) < 2:
        return True
    oracle = incremental_oracle(op)
    oracle.add(elements[0])
    for a in elements[1:]:
        if oracle.forbids(a):
            return False
        oracle.add(a)
    return True
