"""In-memory span tracer that wraps econorder's public functions from outside.

Installing a Tracer replaces every public function of the traced modules, in
every econorder namespace that holds a reference to it, with a wrapper that
records a span: name, layer, start, end, parent span and op id.  Calls made
inside the package resolve module globals at call time, so ``catalog``
calling ``multiplicity`` is seen as a ``counting`` span nested in an
``enumeration`` span.  Generators returned by a traced function are wrapped
too, so each draw from a sampler stream is a span of the sampler's layer.
Nothing in the package itself changes; ``uninstall`` restores the originals.

Spans stay in memory; ``write_spans`` stores them at exit.  Aggregates (self time
and covered time per layer, call counts and times per function, and result
counters such as orders listed) are kept as spans close, so reading them
costs nothing extra.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

# Layers are the modules of src/econorder; "import" is package start-up,
# timed by the caller.  core and errors are too thin to time.
LAYERS = (
    "import",
    "configio",
    "counting",
    "enumeration",
    "maxent",
    "macro",
    "fitting",
    "reports",
    "checks",
    "cli",
)
TRACED_MODULES = LAYERS[1:]

# Work counters read from a traced function's result.
COUNTERS = {
    "enumeration.enumerate_orders": len,
    "enumeration.enumerate_outcomes": lambda groups: sum(map(len, groups.values())),
}


class Tracer:
    def __init__(self, claimed: tuple[str, ...] = ()):
        self.spans: list[list] = []  # [name, layer, start, end, parent, op]
        self.op_id: int | None = None
        self.claimed = frozenset(claimed)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.layer_cover: dict[str, float] = defaultdict(float)
        self.claimed_cover = 0.0
        self.by_name: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._child: list[float] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._claimed_depth = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def enter(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, perf_counter(), 0.0, parent, self.op_id])
        self._stack.append(idx)
        self._child.append(0.0)
        self._depth[layer] += 1
        if layer in self.claimed:
            self._claimed_depth += 1
        return idx

    def exit(self, idx: int) -> float:
        end = perf_counter()
        span = self.spans[idx]
        span[3] = end
        dur = end - span[2]
        self._stack.pop()
        child = self._child.pop()
        if self._child:
            self._child[-1] += dur
        layer = span[1]
        self._depth[layer] -= 1
        if self._depth[layer] == 0:
            self.layer_cover[layer] += dur
        if layer in self.claimed:
            self._claimed_depth -= 1
            if self._claimed_depth == 0:
                self.claimed_cover += dur
        self.layer_self[layer] += dur - child
        stats = self.by_name[span[0]]
        stats[0] += 1
        stats[1] += dur
        stats[2] += dur - child
        return dur

    def record(self, name: str, layer: str, start: float, end: float) -> None:
        """Book a span the caller timed itself, such as a cold import."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, start, end, parent, self.op_id])
        dur = end - start
        if self._child:
            self._child[-1] += dur
        if self._depth[layer] == 0:
            self.layer_cover[layer] += dur
        if layer in self.claimed and self._claimed_depth == 0:
            self.claimed_cover += dur
        self.layer_self[layer] += dur
        stats = self.by_name[name]
        stats[0] += 1
        stats[1] += dur
        stats[2] += dur

    def span(self, name: str, layer: str) -> "_Span":
        return _Span(self, name, layer)

    # -- patching ----------------------------------------------------------

    def install(self) -> "Tracer":
        import econorder

        modules = [importlib.import_module("econorder." + m) for m in TRACED_MODULES]
        wrappers = {}
        for layer, module in zip(TRACED_MODULES, modules):
            for name, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[fn] = self._wrap(fn, "%s.%s" % (layer, name), layer)
        for module in [econorder] + modules:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, name, wrappers[value])
                    self._patched.append((module, name, value))
        return self

    def uninstall(self) -> None:
        for module, name, value in reversed(self._patched):
            setattr(module, name, value)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn, name: str, layer: str):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(idx)
            if counter is not None:
                tracer.counts[name] += counter(result)
            if inspect.isgenerator(result):
                return tracer._iterate(result, name + ".next", layer)
            return result

        return traced

    def _iterate(self, iterator, name: str, layer: str):
        while True:
            idx = self.enter(name, layer)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.exit(idx)
            yield item

    # -- child processes ---------------------------------------------------

    def summary(self) -> dict:
        return {
            "layer_self": dict(self.layer_self),
            "layer_cover": dict(self.layer_cover),
            "claimed_cover": self.claimed_cover,
            "by_name": dict(self.by_name),
            "counts": dict(self.counts),
            "spans": self.spans,
        }

    def absorb(self, summary: dict) -> None:
        """Fold a child process's summary in under the open span.

        perf_counter is the system-wide monotonic clock, so the child's span
        times need no shifting.
        """
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        top = 0.0
        for name, layer, start, end, up, _op in summary["spans"]:
            self.spans.append(
                [name, layer, start, end, base + up if up >= 0 else parent, self.op_id]
            )
            if up < 0:
                top += end - start
        if self._child:
            self._child[-1] += top
        for layer, value in summary["layer_self"].items():
            self.layer_self[layer] += value
        for layer, value in summary["layer_cover"].items():
            if self._depth[layer] == 0:
                self.layer_cover[layer] += value
        if self._claimed_depth == 0:
            self.claimed_cover += summary["claimed_cover"]
        for name, (calls, total, own) in summary["by_name"].items():
            stats = self.by_name[name]
            stats[0] += calls
            stats[1] += total
            stats[2] += own
        for name, value in summary["counts"].items():
            self.counts[name] += value

def write_spans(path, tracers: list[Tracer]) -> None:
    """Store every span of ``tracers``, one JSON list per line."""
    with gzip.open(path, "wt", compresslevel=1) as handle:
        for tracer in tracers:
            for span in tracer.spans:
                handle.write(json.dumps(span, separators=(",", ":")))
                handle.write("\n")


class _Span:
    __slots__ = ("tracer", "name", "layer", "idx")

    def __init__(self, tracer: Tracer, name: str, layer: str):
        self.tracer, self.name, self.layer = tracer, name, layer

    def __enter__(self):
        self.idx = self.tracer.enter(self.name, self.layer)
        return self

    def __exit__(self, *exc):
        self.tracer.exit(self.idx)
