"""Brute-force references the tests compare the library with.

``apply_J`` computes each operator from its definition, one branch per
operator, apart from the incremental oracles of :mod:`sievecodec.operators`:
it factors by trial division instead of the library's sieve, enumerates pair
and subset sums directly, and asks ``CostTable.relation_norm`` about every
value, from a table of the set or, for a member, of the other members.

``is_encoder_fixed_point`` replays the encoder on the indicator word, step
by step, where the library stops at the first integer the elements below it
forbid.  ``encoder_fixed_points`` tests every one of the 2^M subsets of
[1, M] with that replay, where the library searches two ways over 1..M.
``split_limit`` re-decodes every head of the elements, longest first, where
the library reads the head off the first star of one decode.
"""

from sievecodec import IntSetPrefix, decode, from_characteristic, norm_k
from sievecodec.dynamics import SplitResult
from sievecodec.operators import incremental_oracle
from sievecodec.relations import _table_of


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
        whole = _table_of(elements, op.k)
        for value in range(lo, hi + 1):
            table = _table_of(elements - {value}, op.k) if value in elements else whole
            if table.relation_norm(value) is not None:
                out.add(value)
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


def encoder_fixed_points(k: int, max_element: int) -> list[IntSetPrefix]:
    """All subsets of [1, max_element] fixed by the encoder at norm bound k,
    ascending by the mask sum of 2**(e - 1), one test per subset."""
    found: list[IntSetPrefix] = []
    for mask in range(1 << max_element):
        elements = tuple(i + 1 for i in range(max_element) if (mask >> i) & 1)
        candidate = IntSetPrefix(elements, max_element)
        if is_encoder_fixed_point(k, candidate):
            found.append(candidate)
    return found


def is_encoder_fixed_point(k: int, prefix: IntSetPrefix) -> bool:
    """Does encoding the indicator word of ``prefix`` reproduce it on the
    common certified horizon?  Replays the encoder position by position, so
    a mismatch stops the scan early."""
    horizon = prefix.horizon
    members = prefix.members()
    oracle = incremental_oracle(norm_k(k))
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


def _is_decoder_fixed(k: int, prefix: IntSetPrefix) -> bool:
    """Re-apply the decoder and compare on the certified horizon."""
    result = decode(norm_k(k), prefix)
    certified = len(result.bits)
    if prefix.elements and prefix.elements[-1] > certified:
        return False  # too many stars to certify the elements themselves
    return from_characteristic(result.bits).elements == tuple(
        a for a in prefix.elements if a <= certified
    )


def split_limit(k: int, limit_prefix: IntSetPrefix) -> SplitResult:
    """The longest head of the elements that one more decode reproduces,
    tried longest first, and the rest."""
    elements = limit_prefix.elements
    fixed_count = 0
    for m in range(len(elements), -1, -1):
        if _is_decoder_fixed(k, IntSetPrefix(elements[:m], limit_prefix.horizon)):
            fixed_count = m
            break
    fixed = IntSetPrefix(elements[:fixed_count], limit_prefix.horizon)
    residual = IntSetPrefix(elements[fixed_count:], limit_prefix.horizon)
    return SplitResult(fixed, residual, fixed_count > 0 or not elements)
