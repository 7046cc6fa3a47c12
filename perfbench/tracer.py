"""Span tracing of the library's layers, installed from outside the program.

:func:`install` replaces the public entry points of each layer with
wrappers that time every call.  Nothing in ``src/`` knows about it: the
wrappers are patched onto the classes (and onto every module that imported
a wrapped function by name) of the already-imported ``repro`` package.

Each thread keeps a stack of open spans, so a span's *self* time is its
wall time minus the time of the wrapped spans nested inside it on the same
thread.  A span nested in another span of the same name (a method that
calls its own alias) does not count twice towards that name's busy time.
Spans stay in memory until :meth:`Tracer.summary` or :meth:`Tracer.dump`.

Span names are ``<layer>.<function>``; the layer is the part before the
first dot: paths, kernels, inverted_index, mmap_store, engine, join,
serialization, dist and serve.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

LAYERS = (
    "paths",
    "kernels",
    "inverted_index",
    "mmap_store",
    "engine",
    "join",
    "serialization",
    "dist",
    "serve",
)

#: (span name, module, class or None for a module function, attribute).
TARGETS: tuple[tuple[str, str, str | None, str], ...] = (
    ("paths.generate", "repro.core.paths", "PathGenerator", "generate"),
    ("paths.generate_batch", "repro.core.paths", "PathGenerator", "generate_batch"),
    ("paths.paths_to_csr", "repro.core.paths", None, "paths_to_csr"),
    ("inverted_index.add", "repro.core.inverted_index", "InvertedFilterIndex", "add"),
    ("inverted_index.compact", "repro.core.inverted_index", "InvertedFilterIndex", "compact"),
    ("inverted_index.probe_batch", "repro.core.inverted_index", "InvertedFilterIndex",
     "probe_batch"),
    ("inverted_index.probe_batch", "repro.core.inverted_index", "InvertedFilterIndex",
     "probe_batch_routed"),
    ("mmap_store.probe_batch_routed", "repro.core.mmap_store",
     "ShardedInvertedFilterIndex", "probe_batch"),
    ("mmap_store.probe_batch_routed", "repro.core.mmap_store",
     "ShardedInvertedFilterIndex", "probe_batch_routed"),
    ("engine.build", "repro.core.engine", "FilterEngine", "build"),
    ("engine.insert", "repro.core.engine", "FilterEngine", "insert"),
    ("engine.remove", "repro.core.engine", "FilterEngine", "remove"),
    ("engine.query", "repro.core.engine", "FilterEngine", "query"),
    ("engine.query_batch", "repro.core.engine", "FilterEngine", "query_batch"),
    ("engine.query_candidates", "repro.core.engine", "FilterEngine", "query_candidates"),
    ("engine.query_candidates_batch", "repro.core.engine", "FilterEngine",
     "query_candidates_batch"),
    ("engine.query_candidates_arrays_batch", "repro.core.engine", "FilterEngine",
     "query_candidates_arrays_batch"),
    ("join.similarity_join", "repro.core.join", None, "similarity_join"),
    ("serialization.save_index", "repro.core.serialization", None, "save_index"),
    ("serialization.load_index", "repro.core.serialization", None, "load_index"),
    ("dist.load_routed_index", "repro.dist.loader", None, "load_routed_index"),
    ("dist.router", "repro.dist.router", "ShardRouter", "probe_batch_routed"),
    ("dist.routed_index", "repro.dist.router", "RouterBackedFilterIndex", "probe_batch"),
    ("dist.routed_index", "repro.dist.router", "RouterBackedFilterIndex",
     "probe_batch_routed"),
    ("dist.transport.probe", "repro.dist.transport", "ShardTransport", "probe"),
    ("dist.transport.probe", "repro.dist.transport", "InprocTransport", "probe"),
)

KERNEL_FUNCTIONS = ("extend_level", "chain_resolve", "merge_labeled", "ordered_unique",
                    "sorted_unique")

#: The request a coroutine is serving (set by the QueryService wrappers).
_current_request: contextvars.ContextVar[dict[str, float] | None] = contextvars.ContextVar(
    "perfbench_request", default=None
)


@dataclasses.dataclass
class Span:
    name: str
    thread: int
    start: float  # time.time() epoch, comparable across processes
    duration: float
    self_time: float
    nested_same_name: bool
    detail: float = 0.0  # a per-span quantity (keys probed, pairs found)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.requests: list[dict[str, float]] = []
        self.enabled = True
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Duration and uncovered time of the engine-lane call that just ended.
        self._last_engine_call: tuple[float, float, float] = (0.0, 0.0, 0.0)
        #: Request record of each batcher job still waiting for its answer.
        self._jobs: dict[int, dict[str, float]] = {}

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self, name: str, function: Callable[..., Any],
        detail: Callable[[tuple, dict, Any], float] | None = None,
    ) -> Callable[..., Any]:
        """A timing wrapper around one synchronous function."""
        tracer = self

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return function(*args, **kwargs)
            stack = tracer._stack()
            nested = any(frame[0] == name for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            wall = time.time()
            start = time.perf_counter()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                extra = detail(args, kwargs, result) if detail and result is not None else 0.0
                span = Span(name, threading.get_ident(), wall, duration,
                            duration - frame[1], nested, extra)
                with tracer._lock:
                    tracer.spans.append(span)

        return wrapper

    # ------------------------------------------------------------------ #
    # Serving-layer hooks
    # ------------------------------------------------------------------ #

    def wrap_service_endpoint(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        """Time a ``QueryService`` coroutine as one request's service span."""
        tracer = self

        @functools.wraps(function)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            record: dict[str, float] = {"start": time.time()}
            token = _current_request.set(record)
            start = time.perf_counter()
            try:
                return await function(*args, **kwargs)
            finally:
                _current_request.reset(token)
                record["service"] = time.perf_counter() - start
                record["endpoint"] = 0.0 if name.endswith("query") else 1.0
                if tracer.enabled:
                    with tracer._lock:
                        tracer.requests.append(record)

        return wrapper

    def wrap_submit(self, function: Callable[..., Any]) -> Callable[..., Any]:
        """Remember which request a batcher job belongs to."""
        tracer = self

        @functools.wraps(function)
        def wrapper(batcher: Any, *args: Any, **kwargs: Any) -> Any:
            future = function(batcher, *args, **kwargs)
            record = _current_request.get()
            if record is not None:
                tracer._jobs[id(future)] = record
            return future

        return wrapper

    def wrap_engine_lane(self, function: Callable[..., Any]) -> Callable[..., Any]:
        """Time the batcher's engine call and what the layers inside cover."""
        tracer = self

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            frame = ["serve.engine_lane", 0.0]
            stack.append(frame)
            started = time.monotonic()
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                tracer._last_engine_call = (started, duration, duration - frame[1])

        return wrapper

    def wrap_scatter(self, function: Callable[..., Any]) -> Callable[..., Any]:
        """Attach queue wait and engine time to each job of a finished call."""
        tracer = self

        @functools.wraps(function)
        def wrapper(jobs: Any, *args: Any, **kwargs: Any) -> Any:
            started, duration, uncovered = tracer._last_engine_call
            for job in jobs:
                record = tracer._jobs.pop(id(job.future), None)
                if record is not None:
                    record["queue_wait"] = started - job.enqueued_at
                    record["engine"] = duration
                    record["engine_uncovered"] = uncovered
            return function(jobs, *args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def window(self, since: float, until: float) -> "Tracer":
        """A view holding only the spans that started in [since, until]."""
        view = Tracer()
        view.spans = [s for s in self.spans if since <= s.start <= until]
        view.requests = [r for r in self.requests if since <= r["start"] <= until]
        return view

    def summary(self) -> dict[str, float]:
        """Busy time, self time and calls per span name and per layer."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            layer = span.name.split(".", 1)[0]
            out[f"{layer}.self_s"] += span.self_time
            out[f"{span.name}.calls"] += 1
            if not span.nested_same_name:
                out[f"{span.name}.busy_s"] += span.duration
                out[f"{span.name}.detail"] += span.detail
        out["traced.self_s"] = sum(out[f"{layer}.self_s"] for layer in LAYERS)
        out["dist.router.self_s"] = self._router_self()
        return dict(out)

    def _router_self(self) -> float:
        """Router wall time minus the transport probes it waited for.

        The router fans probes out on a thread pool, so its transport
        spans run on other threads: subtract the union of the probe
        intervals that fall inside each router span.
        """
        probes = sorted(
            (s.start, s.start + s.duration) for s in self.spans if s.name == "dist.transport.probe"
        )
        total = 0.0
        for span in self.spans:
            if span.name != "dist.router":
                continue
            end = span.start + span.duration
            covered = 0.0
            cursor = span.start
            for p_start, p_end in probes:
                if p_end <= cursor or p_start >= end:
                    continue
                lo, hi = max(p_start, cursor), min(p_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            total += span.duration - covered
        return total

    def dump(self) -> dict[str, Any]:
        return {
            "summary": self.summary(),
            "spans": [dataclasses.astuple(s) for s in self.spans],
            "requests": self.requests,
        }

    @classmethod
    def load(cls, payload: dict[str, Any]) -> "Tracer":
        tracer = cls()
        tracer.spans = [Span(*row) for row in payload["spans"]]
        tracer.requests = payload["requests"]
        return tracer


def _keys_of(args: tuple, kwargs: dict, _result: Any) -> float:
    keys = kwargs.get("keys", args[2] if len(args) > 2 else ())
    return float(len(keys))


def _pairs_of(_args: tuple, _kwargs: dict, result: Any) -> float:
    return float(getattr(result, "num_pairs", 0))


_DETAILS: dict[str, Callable[[tuple, dict, Any], float]] = {
    "inverted_index.probe_batch": _keys_of,
    "join.similarity_join": _pairs_of,
}


def _replace_everywhere(original: Any, replacement: Any) -> None:
    """Point every loaded ``repro`` module's reference at the wrapper."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every layer target of the imported ``repro`` package."""
    for module_name in ("repro", "repro.core", "repro.core.kernels", "repro.dist",
                        "repro.dist.loader", "repro.serve", "repro.serve.service",
                        "repro.serve.batcher", "repro.cli"):
        importlib.import_module(module_name)
    for name, module_name, class_name, attr in TARGETS:
        module = importlib.import_module(module_name)
        detail = _DETAILS.get(name)
        if class_name is None:
            original = getattr(module, attr)
            _replace_everywhere(original, tracer.wrap(name, original, detail))
        else:
            owner = getattr(module, class_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, tracer.wrap(name, original, detail))

    kernels = importlib.import_module("repro.core.kernels")
    # Resolve the optional numba backend now, so that its implementation is
    # wrapped too rather than built unwrapped on the first ``get_impl()``.
    kernels.available_backends()
    for impl_attr in ("_PYTHON_IMPL", "_numba_impl_cached"):
        impl = getattr(kernels, impl_attr, None)
        if impl is None:
            continue
        setattr(kernels, impl_attr, dataclasses.replace(impl, **{
            fn: tracer.wrap(f"kernels.{fn}", getattr(impl, fn)) for fn in KERNEL_FUNCTIONS
        }))

    service = importlib.import_module("repro.serve.service")
    batcher = importlib.import_module("repro.serve.batcher")
    for endpoint in ("query", "query_batch"):
        original = service.QueryService.__dict__[endpoint]
        setattr(service.QueryService, endpoint,
                tracer.wrap_service_endpoint(f"serve.{endpoint}", original))
    batcher.MicroBatcher.submit = tracer.wrap_submit(batcher.MicroBatcher.__dict__["submit"])
    scatter = batcher.MicroBatcher.__dict__["_scatter"].__func__
    batcher.MicroBatcher._scatter = staticmethod(tracer.wrap_scatter(scatter))
    service._ServedIndex._run_batch = tracer.wrap_engine_lane(
        service._ServedIndex.__dict__["_run_batch"]
    )
