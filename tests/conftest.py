import hypothesis.strategies as st

from sievecodec import IntSetPrefix, OperatorKind, parse_operator

ALL_OPERATORS = [parse_operator(text) for text in (
    "sumfree", "normk:7", "coprime", "fs", "normk:4", "normk:9")]
# The three operators without a parameter and every norm bound.
EVERY_OPERATOR = [OperatorKind(kind) for kind in ("sumfree", "coprime", "fs")] + [
    OperatorKind("normk", k) for k in range(2, 17)]
# The operators whose oracles have ``forbidden_through``: their final state
# tells, for every position, whether the elements below it forbid it.  Under
# ``sumfree``, ``normk:2..4`` and ``fs`` the oracle's mask holds sums of two or
# more members, each above the members in it; ``fs`` forbids no other value
# above the set, since a sum of one member is that member.  Under ``coprime`` a
# position is forbidden by the elements below it when it is a multiple of a
# prime above the first element that prime divides.  The decoder renders their
# prefixes once.
ONE_RENDER_OPERATORS = [parse_operator(text) for text in (
    "sumfree", "normk:2", "normk:3", "normk:4", "coprime", "fs")]


@st.composite
def prefixes(draw, max_horizon=40, min_horizon=0):
    horizon = draw(st.integers(min_horizon, max_horizon))
    if horizon == 0:
        return IntSetPrefix((), 0)
    elements = draw(st.sets(st.integers(1, horizon)))
    return IntSetPrefix.of(elements, horizon)


bit_words = st.text(alphabet="01", max_size=64)


class CountingOracle:
    """Forwards every oracle call and counts it by name."""

    def __init__(self, inner, counts):
        self._inner = inner
        self._counts = counts

    def __getattr__(self, name):
        method = getattr(self._inner, name)

        def counted(*args):
            self._counts[name] = self._counts.get(name, 0) + 1
            return method(*args)

        return counted


class ProtocolOracle:
    """Forwards every oracle call and asserts the protocol the oracles rely
    on: elements are added in strictly increasing order, and ``forbids``,
    ``next_allowed`` and ``forbidden_in`` ask only about values strictly
    above the largest element added.  ``forbidden_through(hi)``, where the
    oracle has it, renders positions up to ``hi`` from the final set: ``hi``
    is at least the largest element added, and no ``add`` follows it.  An
    oracle made for a ``horizon`` is asked about no value past it.  A copy
    is checked the same way, from the set it was copied with; any other
    attribute is read off the oracle, so a missing call stays missing."""

    def __init__(self, inner, top=0, horizon=None):
        self._inner = inner
        self._top = top
        self._horizon = horizon
        self._rendered = False

    def __getattr__(self, name):
        call = getattr(self._inner, name)
        if name != "forbidden_through":
            return call

        def forbidden_through(hi):
            assert hi >= self._top, f"forbidden_through({hi}) with {self._top} added"
            self._within("forbidden_through", hi)
            self._rendered = True
            return call(hi)

        return forbidden_through

    def _above(self, call, value):
        assert value > self._top, f"{call}({value}) with {self._top} added"
        self._within(call, value)

    def _within(self, call, value):
        assert self._horizon is None or value <= self._horizon, (
            f"{call}({value}) past the horizon {self._horizon}")

    def add(self, element):
        assert not self._rendered, f"add({element}) after forbidden_through"
        self._above("add", element)
        self._top = element
        self._inner.add(element)

    def forbids(self, value):
        self._above("forbids", value)
        return self._inner.forbids(value)

    def next_allowed(self, c):
        self._above("next_allowed", c)
        return self._inner.next_allowed(c)

    def forbidden_in(self, lo, hi):
        self._above("forbidden_in", lo)
        self._within("forbidden_in", hi)
        return self._inner.forbidden_in(lo, hi)

    def copy(self):
        return ProtocolOracle(self._inner.copy(), self._top, self._horizon)
