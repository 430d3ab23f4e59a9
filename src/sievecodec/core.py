"""Finite-prefix models of integer sets and binary words.

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

BIT_ALPHABET = frozenset("01")


def check_word(word: str) -> str:
    """Validate a bit word and return it unchanged."""
    bad = set(word) - BIT_ALPHABET
    if bad:
        raise ValueError(
            f"word contains symbols {sorted(bad)} outside alphabet {sorted(BIT_ALPHABET)}"
        )
    return word


def _check_horizon(horizon) -> None:
    if not isinstance(horizon, int) or horizon < 0:
        raise ValueError(f"horizon must be a non-negative integer, got {horizon!r}")


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
        _check_horizon(self.horizon)
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
    def _trusted(cls, elements: tuple[int, ...], horizon: int) -> "IntSetPrefix":
        """A prefix of ``elements`` already known to be valid, built unchecked."""
        prefix = object.__new__(cls)
        prefix.__dict__.update(elements=elements, horizon=horizon)
        return prefix

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
        # Only a list empty as a whole is the empty set; an empty item is malformed.
        items = left.split(",") if left.strip() else []
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
        _check_horizon(new_horizon)
        return IntSetPrefix._trusted(
            self.elements[: bisect_right(self.elements, new_horizon)], new_horizon)

    def __str__(self) -> str:
        return f"{','.join([str(a) for a in self.elements])} @ {self.horizon}".lstrip()


def from_characteristic(word: str) -> IntSetPrefix:
    """The prefix of the indicator word ``word``: 1-positions become elements."""
    check_word(word)
    elements: list[int] = []
    start, padded = word.find("1"), word + "0"
    while start >= 0:  # one range per run of ones
        end = padded.find("0", start)
        elements.extend(range(start + 1, end + 1))
        start = word.find("1", end)
    return IntSetPrefix._trusted(tuple(elements), len(word))
