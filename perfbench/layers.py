"""Per-layer attribution for the traced run, measured from outside the program.

Two sources, both installed only for the traced rounds:

- timing shims that replace public functions of the program at their
  module boundaries (every loaded ``repro``/``perfbench`` module that
  imported the function by name gets the shim) and record each call's
  duration, plus counts read off the returned values;
- the spans ``repro.obs`` already records (prepare, alpha-scan,
  composite, the serve loop's request lifecycle, worker render/export
  spans stitched across the executor pipe), read from the tracer.

The end-to-end rounds run with neither.  A per-layer metric reads 0 when
the workload never reaches that layer in the benchmark's own process.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import sys
import time
from collections import defaultdict

from .stats import self_times

perf = time.perf_counter

#: Per-layer metrics: name -> unit.  Which end-to-end metric each should
#: move is in perfbench/README.md.
PER_LAYER = {
    "splat.prepare_ms": "ms",
    "splat.visible_splats": "count",
    "splat.sort_intersections": "count",
    "splat.viewcache_hit_ratio": "ratio",
    "backends.foveated_ms": "ms",
    "backends.alpha_scan_ms": "ms",
    "backends.composite_ms": "ms",
    "backends.spans": "count",
    "backends.raster_intersections": "count",
    "backends.blend_pixels": "count",
    "backends.ns_per_span": "ns",
    "backends.forward_ms": "ms",
    "backends.backward_ms": "ms",
    "backends.batch_forward_ms": "ms",
    "foveation.region_maps_ms": "ms",
    "foveation.self_ms": "ms",
    "serve.fingerprint_ms": "ms",
    "serve.fingerprints_per_request": "count",
    "serve.hit_ratio": "ratio",
    "serve.hit_ms_p50": "ms",
    "serve.miss_ms_p50": "ms",
    "serve.queue_ms_p50": "ms",
    "serve.render_group_ms_p50": "ms",
    "serve.batch_size_mean": "count",
    "serve.renders_per_request": "count",
    "serve.max_queue_depth": "count",
    "serve.generator_late_ms_p50": "ms",
    "workers.round_trip_ms_p50": "ms",
    "workers.render_ms_p50": "ms",
    "shm.export_ms": "ms",
    "shm.materialize_ms": "ms",
    "shm.mb_per_frame": "MB",
    "shm.fallbacks": "count",
    "sharding.imbalance": "ratio",
    "core.ce_s": "s",
    "core.intersections_kept": "ratio",
    "train.adam_ms": "ms",
    "obs.trace_overhead": "ratio",
}


class Recorder:
    """Call durations and observed counts gathered by the shims."""

    def __init__(self) -> None:
        self.calls: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, list[float]] = defaultdict(list)
        self.spans: list[tuple] = []
        self.tracer = None
        self._depth: dict[str, int] = defaultdict(int)

    def timed(self, name: str, fn, observe=None, per=None, span=True):
        """A synchronous shim around ``fn`` recording under ``name``.

        Nested calls to the same shim (a batch-of-one path calling its
        batch form) record only the outermost call.  ``per`` divides the
        duration into per-item records (frames of a batch call).
        """
        recorder = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if recorder._depth[name]:
                return fn(*args, **kwargs)
            recorder._depth[name] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                recorder._depth[name] -= 1
            n = per(args, result) if per is not None else 1
            recorder.calls[name].extend([(t1 - t0) / max(1, n)] * n)
            if span and recorder.tracer is not None:
                recorder.tracer.add(name, "perfbench", t0, t1)
            if observe is not None:
                observe(recorder, result)
            return result

        return shim

    def timed_async(self, name: str, fn):
        recorder = self

        @functools.wraps(fn)
        async def shim(*args, **kwargs):
            t0 = perf()
            try:
                return await fn(*args, **kwargs)
            finally:
                recorder.calls[name].append(perf() - t0)

        return shim


def _observe_view(recorder: Recorder, view) -> None:
    recorder.counts["visible"].append(view.projected.num_visible)
    recorder.counts["sort_isect"].append(view.assignment.num_intersections)


def _observe_frames(recorder: Recorder, frames) -> None:
    for frame in frames if isinstance(frames, list) else [frames]:
        spans = frame.level_spans or {}
        recorder.counts["spans"].append(sum(s.num_spans for s in spans.values()))
        recorder.counts["raster"].append(float(frame.raster_intersections_per_tile.sum()))
        recorder.counts["blend"].append(frame.blend_pixels)


@contextlib.contextmanager
def shims(recorder: Recorder, tracer):
    """Install the timing shims for the duration of the block."""
    import repro.core.ce
    import repro.foveation.fr_renderer
    import repro.foveation.regions
    import repro.serve.regions
    import repro.splat.rasterizer
    import repro.splat.renderer
    from repro.serve.workers import RenderWorkerPool
    from repro.splat.backends import get_backend
    from repro.train.optimizer import Adam

    functions = [
        ("splat.prepare_view", repro.splat.renderer.prepare_view, dict(observe=_observe_view)),
        ("foveation.render_foveated", repro.foveation.fr_renderer.render_foveated, {}),
        ("foveation.region_maps", repro.foveation.regions.compute_region_maps, dict(span=False)),
        ("backends.rasterize", repro.splat.rasterizer.rasterize, {}),
        ("backends.rasterize_backward", repro.splat.rasterizer.rasterize_backward, {}),
        ("backends.rasterize_batch", repro.splat.rasterizer.rasterize_batch, {}),
        ("serve.fingerprint", repro.serve.regions.foveated_model_fingerprint, dict(span=False)),
        ("core.compute_ce", repro.core.ce.compute_ce, {}),
    ]
    backend = type(get_backend(None))
    methods = [
        (backend, "foveated_frame", "backends.foveated_frame", dict(observe=_observe_frames)),
        (
            backend,
            "foveated_frame_batch",
            "backends.foveated_frame",
            dict(observe=_observe_frames, per=lambda args, frames: len(frames)),
        ),
        (Adam, "step", "train.adam_step", dict(span=False)),
    ]
    patched: list[tuple[object, str, object]] = []
    recorder.tracer = tracer
    try:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n.startswith("repro") or n.startswith("perfbench"))
        ]
        for name, fn, options in functions:
            shim = recorder.timed(name, fn, **options)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        patched.append((module, attr, value))
                        setattr(module, attr, shim)
        for cls, attr, name, options in methods:
            original = cls.__dict__[attr]
            patched.append((cls, attr, original))
            name_shim = recorder.timed(name, original, **options)
            # A shared name: the batch-of-one path and its batch form are
            # one layer, and the depth guard keeps it from counting twice.
            setattr(cls, attr, name_shim)
        original = RenderWorkerPool.__dict__["render"]
        patched.append((RenderWorkerPool, "render", original))
        RenderWorkerPool.render = recorder.timed_async("workers.render", original)
        yield recorder
    finally:
        for owner, attr, value in reversed(patched):
            setattr(owner, attr, value)
        recorder.tracer = None


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(recorder: Recorder, workload_values: dict[str, float], attempted: int, overhead: float) -> dict[str, float]:
    """Every per-layer metric, from the shims, the spans and the workload;
    ``attempted`` counts the traced rounds' operations (requests, on the
    serve workloads)."""
    calls, counts = recorder.calls, recorder.counts
    me = os.getpid()
    spans = recorder.spans
    # Self time of the spans recorded in this process, by span name.
    own = [s for s in spans if s[4] == me]
    lanes = [(s[0], s[2], s[3], (s[4], s[5])) for s in own]
    selfs = defaultdict(list)
    for (name, t0, t1, lane), self_s in self_times(lanes):
        selfs[name].append(self_s)
    worker = defaultdict(list)
    for name, cat, t0, t1, pid, tid, args in spans:
        if pid != me:
            worker[name].append(t1 - t0)
    v = {name: 0.0 for name in PER_LAYER}
    v.update(
        {
            "splat.prepare_ms": _mean(calls["splat.prepare_view"]) * 1e3,
            "splat.visible_splats": _mean(counts["visible"]),
            "splat.sort_intersections": _mean(counts["sort_isect"]),
            "backends.foveated_ms": _mean(calls["backends.foveated_frame"]) * 1e3,
            "backends.alpha_scan_ms": _mean(selfs["alpha-scan"] or worker["alpha-scan"]) * 1e3,
            "backends.composite_ms": _mean(selfs["composite"] or worker["composite"]) * 1e3,
            "backends.spans": _mean(counts["spans"]),
            "backends.raster_intersections": _mean(counts["raster"]),
            "backends.blend_pixels": _mean(counts["blend"]),
            "backends.forward_ms": _mean(calls["backends.rasterize"]) * 1e3,
            "backends.backward_ms": _mean(calls["backends.rasterize_backward"]) * 1e3,
            "backends.batch_forward_ms": _mean(calls["backends.rasterize_batch"]) * 1e3,
            "foveation.region_maps_ms": _mean(calls["foveation.region_maps"]) * 1e3,
            "foveation.self_ms": _mean(selfs["foveation.render_foveated"]) * 1e3,
            "serve.fingerprint_ms": _mean(calls["serve.fingerprint"]) * 1e3,
            "serve.fingerprints_per_request": len(calls["serve.fingerprint"]) / attempted,
            "workers.round_trip_ms_p50": _median(calls["workers.render"]) * 1e3,
            "workers.render_ms_p50": _median(worker["render"]) * 1e3,
            "shm.export_ms": _mean(worker["shm-export"]) * 1e3,
            "shm.materialize_ms": _mean(selfs["materialize"]) * 1e3,
            "core.ce_s": _mean(calls["core.compute_ce"]),
            "train.adam_ms": _mean(calls["train.adam_step"]) * 1e3,
            "obs.trace_overhead": overhead,
        }
    )
    v.update(workload_values)
    if v["backends.spans"]:
        # Span-kernel time (alpha evaluation, scan and composite) per span.
        kernel_ms = v["backends.alpha_scan_ms"] + v["backends.composite_ms"]
        v["backends.ns_per_span"] = kernel_ms * 1e6 / v["backends.spans"]
    return v
