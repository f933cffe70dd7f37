"""Per-layer tracing by wrapping onepoint's public functions.

The layers are onepoint's modules.  Every public function and public method
defined in a layer module is replaced by a wrapper that counts calls and
records a span: inclusive time (outermost call only, so recursion is not
counted twice) and self time (the span minus the wrapped spans it caused).
The modules import each other's functions by name, so the wrapper replaces
every binding of the function in every onepoint module, not only the one in
the defining module.  Generator functions get one span per resumed step.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter_ns

LAYERS = ("intervals", "space", "connectify", "compactify", "finite", "sampling", "records", "cli")

# Results whose length is summed as well: found topologies per search.
COUNT_RESULTS = {"finite.search_one_point_connectifications"}


class Stat:
    __slots__ = ("calls", "incl_ns", "self_ns", "results", "depth")

    def __init__(self):
        self.calls = self.incl_ns = self.self_ns = self.results = self.depth = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.stack: list[int] = []  # wrapped time of the children of each open span

    def _span(self, key: str, stat: Stat, fn, args, kwargs):
        stack = self.stack
        stack.append(0)
        stat.depth += 1
        t0 = perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = perf_counter_ns() - t0
            stat.depth -= 1
            stat.calls += 1
            stat.self_ns += dt - stack.pop()
            if not stat.depth:
                stat.incl_ns += dt
            if stack:
                stack[-1] += dt
        return out

    def wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, Stat())
        span = self._span
        count = key in COUNT_RESULTS

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                it = span(key, stat, fn, args, kwargs)
                while True:
                    try:
                        item = span(key, stat, next, (it,), {})
                    except StopIteration:
                        return
                    yield item

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            out = span(key, stat, fn, args, kwargs)
            if count:
                stat.results += len(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every public function and method of the layer modules."""
        modules = [m for name, m in sys.modules.items() if name == "onepoint" or name.startswith("onepoint.")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"onepoint.{layer}"]
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self.wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self.wrap(f"{layer}.{name}.{meth}", fn))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and getattr(w, "__wrapped__", None) is obj:
                    setattr(mod, name, w)

    def snapshot(self) -> dict:
        return {k: (s.calls, s.incl_ns, s.self_ns, s.results) for k, s in self.stats.items()}

    def reset(self) -> None:
        for s in self.stats.values():
            s.calls = s.incl_ns = s.self_ns = s.results = 0


def layer_metrics(table: dict, scale: float) -> dict:
    """The per-layer metrics from a {key: (calls, incl_ns, self_ns, results)}
    table; times in ms, scaled to nominal host speed."""

    def calls(key):
        return table.get(key, (0, 0, 0, 0))[0]

    def ms(*keys):
        return sum(table.get(k, (0, 0, 0, 0))[1] for k in keys) / 1e6 * scale

    def layer(name, field):
        return sum(v[field] for k, v in table.items() if k.split(".")[0] == name)

    out = {}
    for name in LAYERS:
        out[f"{name}.self_ms"] = (layer(name, 2) / 1e6 * scale, "ms")
    out["intervals.calls"] = (layer("intervals", 0), "count")
    for f in ("intersect", "union", "complement", "difference", "normalize"):
        out[f"intervals.{f}.calls"] = (calls(f"intervals.{f}"), "count")
    out["intervals.issubset.calls"] = (calls("intervals.IntervalSet.issubset"), "count")
    for f in ("is_open_in", "is_closed_in"):
        out[f"intervals.{f}.calls"] = (calls(f"intervals.{f}"), "count")
        out[f"intervals.{f}.ms"] = (ms(f"intervals.{f}"), "ms")
    out["intervals.interior_in.ms"] = (ms("intervals.interior_in"), "ms")
    out["intervals.parse_set.ms"] = (ms("intervals.parse_set"), "ms")
    out["connectify.avoid_index.calls"] = (calls("connectify.EscapeFilter.avoid_index"), "count")
    out["connectify.avoid_index.ms"] = (ms("connectify.EscapeFilter.avoid_index"), "ms")
    out["connectify.element.calls"] = (calls("connectify.EscapeFilter.element"), "count")
    out["connectify.hausdorff_witness.ms"] = (ms("connectify.hausdorff_witness"), "ms")
    out["connectify.normality_witness.ms"] = (ms("connectify.normality_witness"), "ms")
    out["space.separate_disjoint_closed.calls"] = (calls("space.separate_disjoint_closed"), "count")
    out["space.separate_disjoint_closed.ms"] = (ms("space.separate_disjoint_closed"), "ms")
    out["connectify.is_open_in_extension.calls"] = (calls("connectify.is_open_in_extension"), "count")
    out["connectify.is_open_in_extension.ms"] = (ms("connectify.is_open_in_extension"), "ms")
    verify = ("hausdorff", "normality", "density", "fidelity", "connectedness")
    out["connectify.verify.ms"] = (ms(*(f"connectify.verify_{v}" for v in verify)), "ms")
    certs = ("density_check", "subspace_fidelity", "connectedness_certificate")
    out["connectify.certificates.ms"] = (ms(*(f"connectify.{c}" for c in certs)), "ms")
    out["connectify.clopen_falsifier.ms"] = (ms("connectify.clopen_falsifier"), "ms")
    search = "finite.search_one_point_connectifications"
    out["finite.search.calls"] = (calls(search), "count")
    out["finite.search.ms"] = (ms(search), "ms")
    out["finite.enumerate.ms"] = (ms("finite.enumerate_topologies"), "ms")
    candidates = calls("finite.subspace")
    found = table.get(search, (0, 0, 0, 0))[3]
    out["finite.candidates"] = (candidates, "count")
    out["finite.found"] = (found, "count")
    out["finite.found_per_candidate"] = (found / candidates if candidates else 0.0, "ratio")
    return out
