"""Traced mode: spans around the calls into each layer of ``sievecodec``.

Hooks replace names in the calling modules' namespaces, so the library code
is unchanged and every hook is undone by :meth:`Tracer.uninstall`.  A hook
whose target no longer exists is reported on stderr and skipped; the metrics
it would feed then read 0.

A span's self time is its duration minus the durations of its child spans.
Every span is folded into per-name totals as it closes.  The spans of the
``codec``, ``dynamics`` and ``cli`` entry points and of
``find_anchored_relation`` are also kept in memory with their parents and
written out at the end; the far more frequent oracle, ``CostTable`` and
``core`` spans are not.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

_KEPT = ("codec.", "cli.", "dynamics.", "relations.anchored")


class _Frame:
    __slots__ = ("name", "start", "child", "id", "parent", "encode")

    def __init__(self, name, start, span_id, parent, encode):
        self.name = name
        self.start = start
        self.child = 0.0
        self.id = span_id
        self.parent = parent
        self.encode = encode  # inside an encode call


class Tracer:
    def __init__(self) -> None:
        root = _Frame("root", perf_counter(), 0, None, False)
        self.stack = [root]
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans: list[tuple] = []
        self.skipped: list[str] = []
        self._undo: list[tuple] = []

    # --- spans -------------------------------------------------------------

    def enter(self, name: str) -> _Frame:
        parent = self.stack[-1]
        frame = _Frame(name, perf_counter(), len(self.spans) + 1, parent.id,
                       parent.encode or name == "codec.encode")
        if name.startswith(_KEPT):
            self.spans.append(None)  # reserve the id; filled on exit
        self.stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = perf_counter()
        self.stack.pop()
        duration = end - frame.start
        self.stack[-1].child += duration
        self.self_s[frame.name] += duration - frame.child
        self.total_s[frame.name] += duration
        self.calls[frame.name] += 1
        if frame.name.startswith(_KEPT):
            self.spans[frame.id - 1] = (frame.id, frame.parent, frame.name,
                                        frame.start, end)

    def leaf(self, name: str, duration: float) -> None:
        self.stack[-1].child += duration
        self.self_s[name] += duration
        self.total_s[name] += duration
        self.calls[name] += 1

    def span(self, name: str, **counts):
        for key, value in counts.items():
            self.counts[f"{name}.{key}"] += value
        return _Span(self, name)

    def wrap(self, name: str, fn, on_call=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call:
                on_call(*args, **kwargs)
            frame = tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame)

        return traced

    # --- hooks ---------------------------------------------------------------

    def replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr = make(old)``; report and skip a missing target."""
        old = getattr(owner, attr, None)
        if old is None:
            self.skipped.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            print(f"trace: hook target {self.skipped[-1]} not found; skipped",
                  file=sys.stderr)
            return
        # A class keeps the raw descriptor, so that undoing restores it as is.
        self._undo.append((owner, attr, vars(owner).get(attr, old)))
        setattr(owner, attr, make(old))

    def install(self, lib) -> None:
        """Hook the layer entry points of the ``sievecodec`` package ``lib``."""
        from importlib import import_module

        names = ("core", "operators", "codec", "dynamics", "cli")
        mods = {}
        for name in names:
            try:
                mods[name] = import_module(f"{lib.__name__}.{name}")
            except ImportError:
                self.skipped.append(name)
                print(f"trace: module {name} not found; skipped", file=sys.stderr)
        core, ops, codec, dyn, cli = (mods.get(n) for n in names)
        tracer = self

        def oracle_factory(make_oracle):
            return functools.wraps(make_oracle)(
                lambda *a, **kw: _OracleProxy(make_oracle(*a, **kw), tracer))

        for mod in (codec, dyn, ops):
            if mod:
                self.replace(mod, "incremental_oracle", oracle_factory)
        if ops:
            self.replace(ops, "CostTable", lambda cls: _traced_table(cls, tracer))
        if core:
            for method in ("parse", "of", "truncate", "members", "__str__"):
                self.replace(core.IntSetPrefix, method,
                             lambda fn, m=method: self._core_method(m, fn))
        if codec:
            self.replace(codec, "delete_stars", lambda fn: self.wrap("core.delete_stars", fn))
        if dyn:
            self.replace(dyn, "decode", lambda fn: self.wrap("codec.decode", fn, self._count_pass))
            for name in ("from_characteristic", "characteristic"):
                self.replace(dyn, name, lambda fn, n=name: self.wrap(f"core.{n}", fn))
            self.replace(dyn, "is_encoder_fixed_point",
                         lambda fn: self.wrap("dynamics.fixed_point_test", fn))
            self.replace(dyn, "find_anchored_relation",
                         lambda fn: self.wrap("relations.anchored", fn))
            self.replace(dyn, "is_member", lambda fn: self.wrap("operators.is_member", fn))
        if cli:
            for attr, span in (("decode", "codec.decode"), ("encode", "codec.encode"),
                               ("find_limit", "dynamics.find_limit"),
                               ("decode_orbit", "dynamics.decode_orbit"),
                               ("split_limit", "dynamics.split"),
                               ("completeness_sufficient_condition", "dynamics.sufficient"),
                               ("encoder_fixed_points", "dynamics.fixed_points"),
                               ("ultimately_complete_on", "dynamics.completeness"),
                               ("is_member", "operators.is_member"),
                               ("parse_operator", "operators.parse"),
                               ("roundtrip_ok", "codec.roundtrip"),
                               ("from_characteristic", "core.from_characteristic")):
                count = self._count_pass if attr == "decode" else None
                self.replace(cli, attr, lambda fn, s=span, c=count: self.wrap(s, fn, c))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def _count_pass(self, op, prefix, *args, **kwargs):
        self.counts["codec.decode.positions"] += prefix.horizon

    def _core_method(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter("core")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame)

        # ``fn`` of a classmethod arrives bound to the class already.
        return staticmethod(traced) if name in ("parse", "of") else traced

    # --- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        s, t, n, c = self.self_s, self.total_s, self.calls, self.counts
        encode_probes = c["operators.encode_probes"]
        return {
            "operators.probes": n["operators.forbids"],
            "operators.probe_s": s["operators.forbids"],
            "operators.candidate_yield":
                c["codec.encode.bits"] / encode_probes if encode_probes else 0.0,
            "operators.adds": n["operators.add"],
            "operators.add_s": s["operators.add"],
            "relations.table_adds": c["relations.table_adds"],
            "relations.table_add_s": s["relations.table_add"],
            "relations.table_grows": c["relations.table_grows"],
            "relations.table_bytes_peak": c["relations.table_bytes_peak"],
            "relations.anchored_s": t["relations.anchored"],
            "codec.encode_self_s": s["codec.encode"],
            "codec.decode_self_s": s["codec.decode"],
            "codec.decode_passes": n["codec.decode"],
            "codec.decoded_positions": c["codec.decode.positions"],
            "core.self_s": sum(v for k, v in s.items() if k.startswith("core")),
            "dynamics.find_limit_self_s": s["dynamics.find_limit"],
            "dynamics.split_s": t["dynamics.split"],
            "dynamics.sufficient_s": t["dynamics.sufficient"],
            "dynamics.fixed_point_tests": n["dynamics.fixed_point_test"],
            "dynamics.fixed_point_test_s": t["dynamics.fixed_point_test"],
            "cli.self_s": s["cli.main"],
            "cli.output_bytes": c["cli.output_bytes"],
        }

    def write(self, path) -> None:
        names = sorted(self.calls)
        with open(path, "w") as fh:
            json.dump({
                "skipped_hooks": self.skipped,
                "layers": {k: {"calls": self.calls[k], "self_s": self.self_s[k],
                               "total_s": self.total_s[k]} for k in names},
                "counts": dict(self.counts),
                "spans": [dict(zip(("id", "parent", "name", "start", "end"), sp))
                          for sp in self.spans if sp],
            }, fh)


class _Span:
    __slots__ = ("tracer", "name", "frame")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer.enter(self.name)
        return self.frame

    def __exit__(self, *exc):
        self.tracer.exit(self.frame)
        return False


class _OracleProxy:
    """Times ``add`` and ``forbids`` of one incremental oracle."""

    __slots__ = ("_inner", "_tracer")

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer

    def forbids(self, value):
        t0 = perf_counter()
        result = self._inner.forbids(value)
        tracer = self._tracer
        tracer.leaf("operators.forbids", perf_counter() - t0)
        if tracer.stack[-1].encode:
            tracer.counts["operators.encode_probes"] += 1
        return result

    def add(self, element):
        frame = self._tracer.enter("operators.add")
        try:
            return self._inner.add(element)
        finally:
            self._tracer.exit(frame)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _traced_table(cls, tracer):
    class TracedCostTable(cls):
        """Counts ``add`` calls, the ones that raise ``limit``, and table bytes."""

        __slots__ = ()

        def add(self, element):
            outer = tracer.stack[-1].name != "relations.table_add"
            limit = self.limit
            frame = tracer.enter("relations.table_add")
            try:
                return super().add(element)
            finally:
                tracer.exit(frame)
                if outer:
                    tracer.counts["relations.table_adds"] += 1
                    if self.limit > limit:
                        tracer.counts["relations.table_grows"] += 1
                    size = (2 * self.budget * self.limit + 1) * 2  # int16 cells
                    if size > tracer.counts["relations.table_bytes_peak"]:
                        tracer.counts["relations.table_bytes_peak"] = size

    TracedCostTable.__name__ = cls.__name__
    return TracedCostTable
