"""Outside-in span tracer for the benchmark's traced runs.

The tracer records spans from the benchmark's own code: it replaces the
layers' public entry points with thin wrappers *where their callers look
them up* (a class attribute, or the importing module's global for names
imported by value) and restores the originals on :meth:`Tracer.remove`.
Nothing inside ``src/`` changes.

A span is ``(name, start, end, parent, op, thread)``: ``op`` is the frame
or request the span worked for, ``parent`` the enclosing span on the same
thread.  Spans stay in memory and are written out once, at the end.  A
layer's self time is its spans' durations minus their child spans, so
the self times of every layer sum exactly to the root spans' wall time.
"""

from __future__ import annotations

import functools
import json
import threading
import time

#: span name -> layer metric prefix.
LAYER_OF = {
    "preprocess": "gaussians.preprocess",
    "rasterize_splats": "render.rasterize",
    "FrameCoherence.begin_frame": "render.coherence",
    "FrameCoherence.serve_arrival": "render.coherence",
    "FrameCoherence.serve_accumulated": "render.coherence",
    "FrameCoherence.capture": "render.coherence",
    "DrawWorkload.from_stream": "hwmodel.digest",
    "GraphicsPipeline.draw": "hwmodel.draw",
    "CudaBackend.render_stream": "swrender.render",
    "RenderSession.run": "engine.session",
    "ResultCache.load": "engine.result_cache.load",
    "ResultCache.store": "engine.result_cache.store",
    "RenderService.submit": "serve.submit",
    "RenderService._handle_request": "serve.worker",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "thread", "index")

    def __init__(self, name, start, parent, op, thread, index):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.thread = thread
        self.index = index


class Tracer:
    """Collects spans and counters around patched entry points."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    # -- recording -----------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op):
        """Name the frame or request the calling thread now works for."""
        self._local.op = op

    def op(self):
        return getattr(self._local, "op", None)

    def count(self, name, value=1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def _open(self, name):
        stack = self._stack()
        with self._lock:
            span = Span(name, time.perf_counter(),
                        stack[-1].index if stack else None, self.op(),
                        threading.get_ident(), len(self.spans))
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()

    # -- patching ------------------------------------------------------

    def patch(self, owner, attr, name, before=None, after=None):
        """Wrap ``owner.attr`` (function, method or classmethod) in a span.

        ``before(args)`` runs before the span opens (it may set the op);
        ``after(result, args)`` runs after it closed, so the counting cost
        lands in the enclosing span's self time.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else \
            getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            span = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(result, args)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod
                else wrapper)
        self._patches.append((owner, attr, raw))

    def remove(self):
        """Restore every patched attribute (last patched first)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------

    def self_times_ms(self):
        """``{layer: summed self time in ms}`` plus the roots' wall time.

        Returns ``(self_ms, root_wall_ms)``; the layers' self times sum
        to ``root_wall_ms`` up to float rounding.
        """
        child_ms = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_ms[span.parent] += span.end - span.start
        self_ms = {}
        root_ms = 0.0
        for span in self.spans:
            duration = span.end - span.start
            layer = LAYER_OF[span.name]
            self_ms[layer] = (self_ms.get(layer, 0.0)
                              + (duration - child_ms[span.index]) * 1e3)
            if span.parent is None:
                root_ms += duration * 1e3
        return self_ms, root_ms

    def write(self, path, extra=None):
        """Dump every span (times in ms from the first span) as JSON, with
        each op's wall time (first span start to last span end)."""
        origin = min((s.start for s in self.spans), default=0.0)
        bounds = {}
        for s in self.spans:
            lo, hi = bounds.get(s.op, (s.start, s.end))
            bounds[s.op] = (min(lo, s.start), max(hi, s.end))
        payload = {
            "ops_ms": {op: (hi - lo) * 1e3 for op, (lo, hi) in bounds.items()},
            "spans": [
                {"name": s.name, "start_ms": (s.start - origin) * 1e3,
                 "end_ms": (s.end - origin) * 1e3, "parent": s.parent,
                 "op": s.op, "thread": s.thread}
                for s in self.spans
            ],
            "counters": self.counters,
        }
        if extra:
            payload.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def install(tracer):
    """Patch every traced entry point of the repro layers into ``tracer``.

    Frame ops: a frame begins at each ``preprocess`` call the session
    makes, so the op of a frame's spans is ``<lap>/f<k>``.  Request ops
    are set by the service's worker-side request handler.
    """
    from repro.engine import session as session_mod
    from repro.engine.backends import CudaBackend
    from repro.engine.cache import ResultCache
    from repro.hwmodel.pipeline import DrawWorkload, GraphicsPipeline
    from repro.render.coherence import FrameCoherence
    from repro.serve.service import RenderService

    frames = {}

    def start_frame(_args):
        base = (tracer.op() or "solo").split("/")[0]
        k = frames.get(base, 0)
        frames[base] = k + 1
        tracer.set_op(f"{base}/f{k}")

    def count_fragments(stream, _args):
        tracer.count("fragments", len(stream))

    def count_begin(_result, _args):
        tracer.count("coherence.frames")

    def count_arrival(served, _args):
        if served:
            tracer.count("coherence.hits")

    def count_draw(draw, _args):
        stats = draw.stats
        tracer.count("draws")
        tracer.count("crop_hits", stats.crop_cache_hits)
        tracer.count("crop_misses", stats.crop_cache_misses)
        tracer.count("tc_flushes", stats.tc_flushes())
        tracer.count("fragments_blended", stats.fragments_blended)
        tracer.count("sim_cycles", stats.total_cycles)

    def start_request(args):
        tracer.set_op(args[1].request.request_id)

    def submit_op(args):
        tracer.set_op(args[1].request_id)

    tracer.patch(session_mod, "preprocess", "preprocess", before=start_frame)
    tracer.patch(session_mod, "rasterize_splats", "rasterize_splats",
                 after=count_fragments)
    tracer.patch(FrameCoherence, "begin_frame", "FrameCoherence.begin_frame",
                 after=count_begin)
    tracer.patch(FrameCoherence, "serve_arrival",
                 "FrameCoherence.serve_arrival", after=count_arrival)
    tracer.patch(FrameCoherence, "serve_accumulated",
                 "FrameCoherence.serve_accumulated")
    tracer.patch(FrameCoherence, "capture", "FrameCoherence.capture")
    tracer.patch(DrawWorkload, "from_stream", "DrawWorkload.from_stream")
    tracer.patch(GraphicsPipeline, "draw", "GraphicsPipeline.draw",
                 after=count_draw)
    tracer.patch(CudaBackend, "render_stream", "CudaBackend.render_stream")
    tracer.patch(session_mod.RenderSession, "run", "RenderSession.run")
    tracer.patch(ResultCache, "load", "ResultCache.load")
    tracer.patch(ResultCache, "store", "ResultCache.store")
    tracer.patch(RenderService, "submit", "RenderService.submit",
                 before=submit_op)
    # The worker side of a request has no public entry point; its
    # handler is wrapped so a request's spans carry the request id.
    tracer.patch(RenderService, "_handle_request",
                 "RenderService._handle_request", before=start_request)
