"""Spans and call counts around the public functions of ``isoprod``.

Installed from outside the package: every public function and public method
of the traced modules is replaced by a wrapper under every module name it
is bound to (``orbits`` lives in ``groups`` but is also imported into
``actions`` and the package namespace, and so on).  Every wrapper counts its
calls; the functions in ``SPANS`` also record a span (name, start, end,
parent).  A span's self time is its duration minus the time of the spans it
encloses, so time spent in count-only helpers such as ``FiniteGroup.mul``
stays with the span that called them.  Everything is kept in memory and
written out once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

MODULES = ("groups", "cyclotomic", "curves", "actions", "families", "surfaces", "document", "cli")

SPANS = frozenset({
    "groups.FiniteGroup.from_generators",
    "groups.FiniteGroup.extend_action",
    "groups.FiniteGroup.subgroup_closure",
    "groups.orbits",
    "groups.invariant_dimension_trace",
    "curves.build_graph",
    "actions.validate_action",
    "actions.t1_equivariant",
    "actions.t1_equivariant_oracle",
    "actions.quotient_signatures",
    "families.smoothing_chain",
    "families.check_constancy",
    "surfaces.build_surface",
    "surfaces.fixed_point_profile",
    "surfaces.check_free_action",
    "surfaces.check_free_codim1",
    "surfaces.certify_degeneration",
    "surfaces.surface_invariants",
    "surfaces.kuranishi_dimension",
    "document.parse_document",
    "document.emit_document",
    "cli.run",
    "cli.main",
})


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counts: list[int] = []
        self.self_time: list[float] = []
        self.spans: list = []  # (name id, start, end, parent span index or -1)
        self._stack: list = []  # (span index, [child time])
        self._patched: list = []  # (owner, attribute, original)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.counts.append(0)
            self.self_time.append(0.0)
        return self._ids[name]

    def _enter(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [0.0]
        self._stack.append((idx, frame))
        return idx, parent, frame

    def _exit(self, nid, idx, parent, frame, start, end):
        self._stack.pop()
        dur = end - start
        self.self_time[nid] += dur - frame[0]
        if self._stack:
            self._stack[-1][1][0] += dur
        self.spans[idx] = (nid, start, end, parent)

    @contextmanager
    def span(self, name: str):
        nid = self._id(name)
        self.counts[nid] += 1
        idx, parent, frame = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(nid, idx, parent, frame, start, time.perf_counter())

    def wrap(self, name: str, fn):
        nid = self._id(name)
        counts = self.counts
        if name not in SPANS:
            def counted(*args, **kwargs):
                counts[nid] += 1
                return fn(*args, **kwargs)

            return functools.update_wrapper(counted, fn)
        enter, leave, clock = self._enter, self._exit, time.perf_counter

        def spanned(*args, **kwargs):
            counts[nid] += 1
            idx, parent, frame = enter()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(nid, idx, parent, frame, start, clock())

        return functools.update_wrapper(spanned, fn)

    def install(self) -> None:
        """Wrap the traced modules' public callables wherever they are bound."""
        replacements: dict[int, object] = {}
        for short in MODULES:
            mod = importlib.import_module(f"isoprod.{short}")
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if isinstance(value, type):
                    self._install_methods(short, value)
                elif callable(value):
                    replacements[id(value)] = (value, self.wrap(f"{short}.{attr}", value))
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "isoprod" or name.startswith("isoprod.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def _install_methods(self, short: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(value, classmethod):
                new = classmethod(self.wrap(name, value.__func__))
            elif isinstance(value, staticmethod):
                new = staticmethod(self.wrap(name, value.__func__))
            elif callable(value):
                new = self.wrap(name, value)
            else:
                continue
            self._patched.append((cls, attr, value))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def totals(self) -> dict:
        return {
            "counts": {n: self.counts[i] for i, n in enumerate(self.names)},
            "self_s": {n: self.self_time[i] for i, n in enumerate(self.names)},
        }

    def inclusive(self) -> dict:
        """Total duration of each span name, children included."""
        out: dict[str, float] = {}
        for nid, start, end, _ in self.spans:
            out[self.names[nid]] = out.get(self.names[nid], 0.0) + end - start
        return out

    def dump(self, path, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans, **self.totals(), **extra}, fh)


class Proxy:
    """Stand-in for a module bound inside ``isoprod`` (``json``, ``jsonschema``)
    that times selected attributes and forwards everything else."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def trace_document_stages(tracer: Tracer) -> None:
    """Split ``parse_document`` into JSON decode and schema spans, and time
    the CLI's JSON rendering, by proxying the modules they call."""
    import isoprod.cli
    import isoprod.document

    real_schema = isoprod.document.jsonschema

    def timed(name, fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)
        return inner

    class Validator:
        def __init__(self, *args, **kwargs):
            with tracer.span("document.schema"):
                self._real = real_schema.Draft202012Validator(*args, **kwargs)

        def iter_errors(self, data):
            with tracer.span("document.schema"):
                errors = list(self._real.iter_errors(data))
            return iter(errors)

    isoprod.document.json = Proxy(json, loads=timed("document.decode", json.loads))
    isoprod.document.jsonschema = Proxy(real_schema, Draft202012Validator=Validator)
    isoprod.cli.json = Proxy(json, dumps=timed("cli.render", json.dumps))
