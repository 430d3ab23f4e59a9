"""Finite-prefix models of integer sets, binary words and the prefix metric.

Everything here is a finite, fully-certified view of a potentially infinite
object: an integer set is known exactly on ``[1, horizon]`` and nothing is
claimed beyond that.  All values are immutable and all operations are pure,
so they are safe to share across threads.

Text formats used repo-wide:

* bit words are strings over ``01`` (e.g. ``"01101010"``),
* ternary words are strings over ``01*``,
* set prefixes render as ``"2,3,5,7 @ 10"`` (empty set: ``"@ 10"``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

BIT_ALPHABET = frozenset("01")


def check_word(word: str) -> str:
    """Validate a bit word and return it unchanged."""
    bad = set(word) - BIT_ALPHABET
    if bad:
        raise ValueError(
            f"word contains symbols {sorted(bad)} outside alphabet {sorted(BIT_ALPHABET)}"
        )
    return word


@dataclass(frozen=True)
class IntSetPrefix:
    """A set of positive integers whose membership is decided on [1, horizon].

    ``elements`` lists the members in strictly increasing order; every integer
    in ``[1, horizon]`` that is absent is certified *not* to belong.  A horizon
    of 0 is the empty certificate (nothing is known).
    """

    elements: tuple[int, ...]
    horizon: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        if not isinstance(self.horizon, int) or self.horizon < 0:
            raise ValueError(f"horizon must be a non-negative integer, got {self.horizon!r}")
        prev = 0
        for a in self.elements:
            if not isinstance(a, int) or a < 1:
                raise ValueError(f"elements must be positive integers, got {a!r}")
            if a <= prev:
                raise ValueError("elements must be strictly increasing")
            prev = a
        if prev > self.horizon:
            raise ValueError(
                f"element {prev} exceeds horizon {self.horizon}; membership beyond "
                "the horizon is not certified"
            )

    @classmethod
    def of(cls, elements, horizon: int) -> "IntSetPrefix":
        """Build a prefix from any iterable of integers (sorted, de-duplicated)."""
        return cls(tuple(sorted(set(elements))), horizon)

    @classmethod
    def parse(cls, text: str) -> "IntSetPrefix":
        """Parse the ``"a1,a2,... @ horizon"`` format."""
        if "@" not in text:
            raise ValueError(f"set prefix {text!r} lacks an '@ horizon' part")
        left, _, right = text.partition("@")
        try:
            horizon = int(right.strip())
        except ValueError:
            raise ValueError(f"bad horizon in set prefix {text!r}") from None
        items = [piece.strip() for piece in left.split(",") if piece.strip()]
        try:
            elements = tuple(int(piece) for piece in items)
        except ValueError:
            raise ValueError(f"bad element list in set prefix {text!r}") from None
        return cls(elements, horizon)

    def members(self) -> frozenset[int]:
        return frozenset(self.elements)

    def truncate(self, new_horizon: int) -> "IntSetPrefix":
        """Restrict the certificate to [1, new_horizon] (never extends it)."""
        if new_horizon > self.horizon:
            raise ValueError(
                f"cannot extend horizon {self.horizon} to {new_horizon}: membership "
                "beyond the horizon is unknown"
            )
        return IntSetPrefix(self.elements[: bisect_right(self.elements, new_horizon)], new_horizon)

    def __str__(self) -> str:
        return f"{','.join(str(a) for a in self.elements)} @ {self.horizon}".lstrip()


def characteristic(prefix: IntSetPrefix) -> str:
    """Indicator word of the prefix: position a carries '1' iff a is a member."""
    inside = prefix.members()
    return "".join("1" if a in inside else "0" for a in range(1, prefix.horizon + 1))


def from_characteristic(word: str) -> IntSetPrefix:
    """Inverse of :func:`characteristic`: 1-positions become elements."""
    check_word(word)
    elements = tuple(i for i, bit in enumerate(word, start=1) if bit == "1")
    return IntSetPrefix(elements, len(word))


@dataclass(frozen=True)
class RhoVerdict:
    """Outcome of comparing two prefixes under the 2^(1-N) metric.

    ``kind`` is one of:

    * ``"zero"`` -- the prefixes agree everywhere and certify the same horizon,
    * ``"apart"`` -- they disagree; ``value`` is the exact dyadic distance and
      ``first_difference`` the smallest integer where membership differs,
    * ``"undecided"`` -- they agree up to the shorter horizon but the horizons
      differ, so finite data cannot certify equality or a distance.
    """

    kind: str
    value: Fraction | None = None
    first_difference: int | None = None


def prefix_distance(a: IntSetPrefix, b: IntSetPrefix) -> RhoVerdict:
    """Compare two prefixes; distance is 2^(1-N) with N the first disagreement.

    Exact over ``Fraction``; never guesses beyond the certified horizons.
    """
    limit = min(a.horizon, b.horizon)
    in_a, in_b = a.members(), b.members()
    for n in range(1, limit + 1):
        if (n in in_a) != (n in in_b):
            return RhoVerdict("apart", Fraction(1, 2 ** (n - 1)), n)
    if a.horizon == b.horizon:
        return RhoVerdict("zero", Fraction(0), None)
    return RhoVerdict("undecided", None, None)
