"""One workload in one fresh process: set up, warm up, measure, check, report.

Started by ``perfbench/run.py`` with a pinned environment; prints the host
key and the resolved knob values with their sources, then the result as
the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

from .stats import percentile

perf = time.perf_counter

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5

#: End-to-end metrics: name -> unit.  What each means per workload is in
#: perfbench/README.md.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "throughput_per_s": "1/s",
}


def knob_table() -> list[tuple[str, object, str]]:
    """Every tuning knob the measured code resolves: (name, value, source)."""
    from repro.serve.regions import FRAME_CACHE_BYTES_ENV, resolved_cache_bytes
    from repro.serve.scheduler import (
        BATCH_BUDGET_ENV,
        BATCH_DEADLINE_ENV,
        TRACE_ENV,
        resolved_batch_budget,
        resolved_batch_deadline,
    )
    from repro.serve.sharding import SHARDS_ENV, default_shards
    from repro.serve.shm import SHM_ENV, resolved_shm_bytes
    from repro.serve.workers import (
        MP_START_ENV,
        VIEWCACHE_ENV,
        WORKERS_ENV,
        default_workers,
        resolved_worker_viewcache,
    )
    from repro.splat.backends import ENV_VAR as BACKEND_ENV, resolve_backend_name
    from repro.splat.backends.kernels import ENV_ARRAY_API, resolve_array_api_name
    from repro.splat.backends.packed import (
        SPAN_BUDGET_ENV,
        TILE_BUDGET_ENV,
        span_chunk_budget,
        tile_span_budget,
    )
    from repro.tune.profile import profile_value

    knobs = [
        ("backend", BACKEND_ENV, None, resolve_backend_name),
        ("array_api", ENV_ARRAY_API, None, resolve_array_api_name),
        ("span_budget", SPAN_BUDGET_ENV, "span_budget", span_chunk_budget),
        ("tile_spans", TILE_BUDGET_ENV, "tile_spans", tile_span_budget),
        ("cache_max_bytes", FRAME_CACHE_BYTES_ENV, "cache_max_bytes", resolved_cache_bytes),
        ("batch_budget", BATCH_BUDGET_ENV, "batch_budget", resolved_batch_budget),
        ("batch_deadline_s", BATCH_DEADLINE_ENV, "batch_deadline_s", resolved_batch_deadline),
        ("shm_bytes", SHM_ENV, "shm_bytes", resolved_shm_bytes),
        ("worker_viewcache", VIEWCACHE_ENV, "worker_viewcache", resolved_worker_viewcache),
        ("serve_shards", SHARDS_ENV, None, default_shards),
        ("serve_workers", WORKERS_ENV, None, default_workers),
        ("mp_start", MP_START_ENV, None, lambda: os.environ.get(MP_START_ENV, "fork if available")),
        ("trace", TRACE_ENV, None, lambda: os.environ.get(TRACE_ENV, "off")),
    ]
    rows = []
    for name, env, profile_key, resolve in knobs:
        if env in os.environ:
            source = f"env {env}"
        elif profile_key is not None and profile_value(profile_key) is not None:
            source = "host profile"
        else:
            source = "default"
        rows.append((name, resolve(), source))
    return rows


def stamp_lines() -> list[str]:
    from repro.tune.profile import host_fingerprint, profile_source

    lines = [f"host {host_fingerprint()}  tune profile: {profile_source()}"]
    lines += [f"knob {name} = {value} ({source})" for name, value, source in knob_table()]
    return lines


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child (the
    render worker, once its pool has closed)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_rounds(workload, seconds: float, step) -> list:
    """Call ``step()`` (one or more rounds) until the next call would overrun
    ``seconds`` and enough operations have been measured."""
    results = []
    steps = 0
    start = perf()
    while True:
        results.extend(step())
        steps += 1
        elapsed = perf() - start
        ops = sum(len(r.op_s) for r in results)
        if ops >= workload.min_ops and elapsed + elapsed / steps > seconds:
            return results


def end_to_end(rounds, setups) -> dict[str, float]:
    op_ms = [s * 1e3 for r in rounds for s in r.op_s]
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "latency_ms_p50": percentile(op_ms, 50),
        "latency_ms_p90": percentile(op_ms, 90),
        "throughput_per_s": statistics.median(r.busy_ops / r.busy_s for r in rounds),
    }


def traced(workload, first, seconds: float, trace_path: str):
    """Alternate untraced and traced rounds; per-layer metrics from the traced."""
    from repro.obs.trace import Tracer

    from .layers import Recorder, per_layer, shims

    recorder = Recorder()
    plain, traced_rounds = [], []
    written = False

    def pair():
        nonlocal written
        a = workload.run_round()
        workload.check_round(a, first)
        tracer = Tracer(capacity=1 << 18)
        with shims(recorder, tracer):
            b = workload.run_round(tracer)
        workload.check_round(b, first)
        recorder.spans.extend(tracer.spans())
        if not written:
            os.makedirs(os.path.dirname(trace_path), exist_ok=True)
            tracer.write(trace_path)
            written = True
        plain.append(a)
        traced_rounds.append(b)
        return [a, b]

    rounds = run_rounds(workload, seconds, pair)
    overhead = sum(r.busy_s for r in traced_rounds) / sum(r.busy_s for r in plain) - 1.0
    attempted = sum(r.attempted for r in traced_rounds)
    values = per_layer(recorder, workload.layer_values(traced_rounds), attempted, overhead)
    return rounds, values


def main(argv=None) -> int:
    from .layers import PER_LAYER
    from .workloads import WORKLOADS, CheckFailed

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args(argv)

    for line in stamp_lines():
        print(line)
    workload = WORKLOADS[args.workload]()
    setups = []
    for i in range(SETUPS):
        t0 = perf()
        workload.setup(args.seed)
        setups.append(perf() - t0)
        if i + 1 < SETUPS:
            workload.close()
    correct = True
    rounds, metrics = [], {}
    try:
        try:
            first = workload.warm_up()
            workload.check_first(first)
            if args.trace:
                rounds, values = traced(workload, first, args.seconds, args.trace_out)
                units = PER_LAYER
                print(f"trace written to {args.trace_out}")
            else:
                def one():
                    r = workload.run_round()
                    workload.check_round(r, first)
                    return [r]

                rounds = run_rounds(workload, args.seconds, one)
                units = END_TO_END
        finally:
            workload.close()
        if not args.trace:
            # After close: a closed pool's worker counts in peak RSS.
            values = end_to_end(rounds, setups)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    except CheckFailed as exc:
        print(f"{args.workload}: check failed: {exc}", file=sys.stderr)
        correct = False
        rounds, metrics = [], {}
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(json.dumps({"correct": correct, "attempted": max(1, attempted), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
