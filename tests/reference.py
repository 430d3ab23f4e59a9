"""Brute-force references the tests compare the library with.

``apply_J`` computes each operator from its definition, one branch per
operator, apart from the incremental oracles of :mod:`sievecodec.operators`:
it factors by trial division instead of the library's sieve, enumerates pair
and subset sums directly, and computes the relation norm of every value
itself: the least y**2 + ``min_cost(y * v)`` over y >= 1, read off a table of
the set or, for a member, of the other members.

``characteristic`` builds the indicator word of a prefix, which the tests
feed the encoder.

The dynamics references take any operator.  ``is_encoder_fixed_point``
replays the encoder on the indicator word, step by step, where the library
stops at the first integer the elements below it forbid.
``encoder_fixed_points`` tests every one of the 2^M subsets of [1, M] with
that replay, where the library searches two ways over 1..M.  ``step``
decodes the whole prefix for one orbit pass, where the library decodes only
below the run of elements that ends at the horizon.

``decode`` marks every gap with ``apply_J`` of the elements below it and
tests every element against its predecessors, where the library's decoder
fills one byte per position from one oracle and reads the violations off
the elements' bytes: under every operator but ``normk`` with k >= 5 it adds
every element and renders the final state once, and under ``normk`` with
k >= 5 it walks the gaps and stops adding once the elements added forbid
every later position.
"""

from math import isqrt

from sievecodec import DecodeResult, IntSetPrefix, OperatorKind, from_characteristic
from sievecodec.operators import incremental_oracle
from sievecodec.relations import CostTable


def characteristic(prefix: IntSetPrefix) -> str:
    """Indicator word of the prefix: position a carries '1' iff a is a member."""
    inside = prefix.members()
    return "".join("1" if a in inside else "0" for a in range(1, prefix.horizon + 1))


def prime_factors(n: int) -> set[int]:
    """Distinct prime factors of a positive integer, by trial division."""
    out = set()
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def cost_table(elements, k: int) -> CostTable:
    """The costs of every sum over ``elements``, exact up to k - 1."""
    table = CostTable(k - 1)
    for b in sorted(elements):
        table.add(b)
    return table


def apply_J(op, base, lo: int, hi: int) -> set[int]:
    """J(base) intersected with the interval [lo, hi].

    ``lo`` must be at least 1; an empty interval (hi < lo) yields the empty
    set.  J(empty) is empty for every operator.
    """
    if lo < 1:
        raise ValueError(f"interval must start at 1 or later, got lo={lo}")
    elements = set(base)
    out: set[int] = set()
    if hi < lo or not elements:
        return out
    if op.kind == "sumfree":
        ordered = sorted(elements)
        for i, a in enumerate(ordered):
            if 2 * a > hi:
                break
            for b in ordered[i:]:
                s = a + b
                if s > hi:
                    break
                if s >= lo:
                    out.add(s)
        return out
    if op.kind == "normk":
        # A member is tested against the other members: its table leaves it out.
        whole = cost_table(elements, op.k)
        for value in range(lo, hi + 1):
            table = cost_table(elements - {value}, op.k) if value in elements else whole
            for y in range(1, isqrt(op.k - 1) + 1):
                cost = table.min_cost(y * value)
                if cost is not None and y * y + cost < op.k:
                    out.add(value)
                    break
        return out
    if op.kind == "coprime":
        primes: set[int] = set()
        for a in elements:
            primes |= prime_factors(a)
        for p in primes:
            first = lo + (-lo) % p
            out.update(range(first, hi + 1, p))
        return out
    # fs: subset sums with a cutoff at hi keep the enumeration exact and finite.
    mask = 0
    cutoff = (1 << (hi + 1)) - 1
    for b in sorted(elements):
        if b > hi:
            break
        mask = (mask | (mask << b) | (1 << b)) & cutoff
    for value in range(lo, hi + 1):
        if (mask >> value) & 1:
            out.add(value)
    return out


def encoder_fixed_points(op: OperatorKind, max_element: int) -> list[IntSetPrefix]:
    """All subsets of [1, max_element] fixed by the encoder of ``op``,
    ascending by the mask sum of 2**(e - 1), one test per subset."""
    found: list[IntSetPrefix] = []
    for mask in range(1 << max_element):
        elements = tuple(i + 1 for i in range(max_element) if (mask >> i) & 1)
        candidate = IntSetPrefix(elements, max_element)
        if is_encoder_fixed_point(op, candidate):
            found.append(candidate)
    return found


def is_encoder_fixed_point(op: OperatorKind, prefix: IntSetPrefix) -> bool:
    """Does encoding the indicator word of ``prefix`` reproduce it on the
    common certified horizon?  Replays the encoder position by position, so
    a mismatch stops the scan early."""
    horizon = prefix.horizon
    members = prefix.members()
    oracle = incremental_oracle(op)
    candidate = 0
    for step in range(1, horizon + 1):
        candidate += 1
        while oracle.forbids(candidate):
            if candidate <= horizon and candidate in members:
                return False  # claimed member, but skipped as forbidden
            candidate += 1
        accept = step in members
        inside = candidate <= horizon and candidate in members
        if accept:
            if candidate <= horizon and not inside:
                return False  # encoder admits an integer the prefix excludes
            oracle.add(candidate)
        elif inside:
            return False  # encoder rejects an element of the prefix
    return True


def decode(op: OperatorKind, prefix: IntSetPrefix) -> DecodeResult:
    """The ternary word, bit word and violations of ``prefix``, one gap and
    one element at a time."""
    elements, horizon = prefix.elements, prefix.horizon
    ternary: list[str] = []
    violations: list[int] = []
    lo = 1
    for i, a in enumerate(elements + (horizon + 1,)):
        # The gap below a and a itself, forbidden by the elements below a.
        forbidden = apply_J(op, elements[:i], lo, min(a, horizon))
        ternary.extend("*" if p in forbidden else "0" for p in range(lo, a))
        if a > horizon:
            break
        if a in forbidden:
            violations.append(a)
        ternary.append("1")
        lo = a + 1
    word = "".join(ternary)
    return DecodeResult(word, word.replace("*", ""), tuple(violations))


def step(op: OperatorKind, prefix: IntSetPrefix) -> tuple[IntSetPrefix, int, int]:
    """One orbit pass decoded over the whole prefix: next iterate, star
    count, leading star-free length."""
    result = decode(op, prefix)
    first_star = result.ternary.find("*")
    frozen_len = prefix.horizon if first_star < 0 else first_star
    return from_characteristic(result.bits), result.ternary.count("*"), frozen_len
