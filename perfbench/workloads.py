"""The four workloads: set-up, one round of measured work, and output checks.

Every workload runs whole *rounds*: a round is a fixed list of operations
built at set-up from ``--seed`` alone, so every round of a run does the
same work and two runs with one seed do the same work.  A round returns

- ``op_s``: the user-visible time of each operation (a frame, a request
  timed from when it fell due, or a fine-tune step);
- ``busy_s`` and ``busy_ops``: the wall time of the round's unpaced part
  and how many operations it completed (the throughput, and the basis of
  the measured tracing overhead);
- whatever the checks need.

The program is called only through module attributes (``fr.render_foveated``
rather than a name imported at load time), so the timing shims of the
traced run (``perfbench/layers.py``) see these calls too.  Checks compare
against computations made apart from the code under test (the
``reference`` backend, a direct ``render_foveated``, a plain ``render``,
finite differences) or against properties the method must have; none
compares against stored output.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import statistics
import time

import numpy as np

import repro.core.ce as core_ce
import repro.core.pipeline as core_pipeline
import repro.core.pruning as core_pruning
import repro.foveation.fr_renderer as fr
import repro.serve.regions as serve_regions
import repro.splat.renderer as splat_renderer
import repro.train.trainer as trainer
from repro.baselines import make_mini_splatting_d
from repro.foveation import uniform_foveated_model
from repro.harness import (
    EVAL_LEVEL_FRACTIONS,
    EVAL_REGION_LAYOUT,
    quick_l1_model,
    setup_trace,
)
from repro.obs.trace import set_active_tracer
from repro.scenes import gaze_trajectory, trace_cameras
from repro.serve import (
    FrameCache,
    FrameRequest,
    RenderWorkerPool,
    ServeConfig,
    ServeLoop,
    ServeTrace,
    ShardRouter,
    TraceRequest,
    WorkloadSpec,
    active_segments,
    frames_checksum,
    generate_serve_trace,
    replay_trace,
)
from repro.splat.rasterizer import rasterize, rasterize_backward
from repro.splat.renderer import RenderConfig, ViewCache, prepare_view
from repro.splat.sh import SH_C0
from repro.train import TrainConfig

from .loadgen import open_loop

perf = time.perf_counter


class CheckFailed(AssertionError):
    """A workload's output did not pass its correctness check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclasses.dataclass
class Round:
    """One round's measurements; ``attempted`` and ``failed`` count every
    operation the round ran, timed or not."""

    op_s: list[float]
    busy_s: float
    busy_ops: int
    attempted: int
    failed: int = 0
    data: dict = dataclasses.field(default_factory=dict)


def build_foveated_model():
    """The kitchen L1 model every render and serve workload draws.

    CE-pruned from a Mini-Splatting-D densification of a 1200-point kitchen
    scene (~950 points) with the evaluation region layout; fixed, not
    seeded, so the seed varies only what the viewers do.
    """
    setup = setup_trace("kitchen", n_points=1200, width=128, height=96)
    dense = make_mini_splatting_d(setup.scene, seed=0)
    l1 = quick_l1_model(setup, dense, keep_fraction=0.4)
    return uniform_foveated_model(l1, EVAL_REGION_LAYOUT, EVAL_LEVEL_FRACTIONS)


def check_pixels(images) -> None:
    for image in images:
        require(bool(np.isfinite(image).all()), "a frame has a non-finite pixel")
        require(
            float(image.min()) >= 0.0 and float(image.max()) <= 1.0,
            "a frame has a pixel outside [0, 1]",
        )


class Workload:
    """Set-up, rounds and checks of one workload (see the module docstring)."""

    name = ""
    #: Operations a run needs at least, so its p90 has ten samples beyond it.
    min_ops = 100

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run_round(self, tracer=None) -> Round:
        raise NotImplementedError

    def warm_up(self) -> Round:
        """An unmeasured round, fully checked; later rounds must match it."""
        return self.run_round()

    def check_first(self, rnd: Round) -> None:
        """Full checks of the warm-up round."""
        raise NotImplementedError

    def check_round(self, rnd: Round, first: Round) -> None:
        """Cheap checks of a measured round against the fully checked one."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def layer_values(self, rounds: list[Round]) -> dict[str, float]:
        """Per-layer values the workload reads off its own objects."""
        return {}


# ----------------------------------------------------------------------
# render-scanpath
# ----------------------------------------------------------------------
class RenderScanpath(Workload):
    """One viewer: foveated frames along a seeded gaze scanpath, no serve tier.

    Twelve frames on each of eight poses, in a seeded order.
    """

    name = "render-scanpath"
    width, height = 128, 96
    n_poses = 8
    frames_per_pose = 12
    #: Gaze is sampled at this rate so that one round's 96 frames cover a
    #: 19 s scanpath (dozens of fixations) rather than two or three: the
    #: cost of a frame depends on where the fovea falls.
    gaze_fps = 5.0

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.fmodel = build_foveated_model()
        _, cameras = trace_cameras(
            "kitchen", n_train=4, n_eval=self.n_poses, width=self.width, height=self.height
        )
        rng = np.random.default_rng(seed)
        order = rng.permutation(self.n_poses)
        n_frames = self.n_poses * self.frames_per_pose
        gazes = gaze_trajectory(self.width, self.height, n_frames, fps=self.gaze_fps, seed=seed)
        self.frames = [
            (cameras[order[i // self.frames_per_pose]], (float(gazes[i, 0]), float(gazes[i, 1])))
            for i in range(n_frames)
        ]

    def run_round(self, tracer=None) -> Round:
        results, op_s = [], []
        previous = set_active_tracer(tracer)
        try:
            start = perf()
            for camera, gaze in self.frames:
                t0 = perf()
                results.append(fr.render_foveated(self.fmodel, camera, gaze=gaze))
                op_s.append(perf() - t0)
            busy = perf() - start
        finally:
            set_active_tracer(previous)
        check_pixels(r.image for r in results)
        return Round(
            op_s,
            busy,
            len(results),
            len(results),
            data={
                "checksum": frames_checksum(r.image for r in results),
                "results": results,
            },
        )

    def check_first(self, rnd: Round) -> None:
        results = rnd.data["results"]
        rng = np.random.default_rng(self.seed + 1)
        band_pixels = 0
        for i in rng.choice(len(self.frames), size=3, replace=False):
            camera, gaze = self.frames[i]
            ours = results[i]
            ref = fr.render_foveated(
                self.fmodel, camera, gaze=gaze, config=RenderConfig(backend="reference")
            )
            require(
                float(np.max(np.abs(ours.image - ref.image))) <= 1e-10,
                f"frame {i} differs from the reference backend by more than 1e-10",
            )
            plain = splat_renderer.render(self.fmodel.base, camera).image
            maps = ours.maps
            ts = RenderConfig().tile_size
            ys, xs = np.mgrid[0 : self.height, 0 : self.width]
            tiles_x = -(-self.width // ts)
            tile_of_pixel = (ys // ts) * tiles_x + xs // ts
            mask = (maps.tile_level[tile_of_pixel] == 1) & ~maps.needs_blend
            band_pixels += int(mask.sum())
            require(
                float(np.max(np.abs(ours.image[mask] - plain[mask]), initial=0.0)) <= 1e-10,
                f"frame {i}: level-1 pixels outside the blend band differ from a plain render",
            )
        require(band_pixels > 0, "the checked frames have no level-1 pixels outside the band")
        rnd.data.pop("results")

    def check_round(self, rnd: Round, first: Round) -> None:
        require(rnd.data["checksum"] == first.data["checksum"], "frames changed between rounds")
        rnd.data.pop("results")


# ----------------------------------------------------------------------
# Serve workloads
# ----------------------------------------------------------------------
def serve_frame_checks(fmodel, trace, responses) -> None:
    """Every request resolved; misses equal a direct render; hits come from
    the earlier miss of the same pose and gaze region."""
    require(all(r is not None for r in responses), "a request did not resolve")
    require(
        not any(isinstance(r, BaseException) for r in responses),
        "a request failed",
    )
    spec = ServeConfig().grid
    leader: dict[tuple, object] = {}
    for request, response in zip(trace.requests, responses):
        camera = trace.cameras[request.pose_index]
        key = (request.pose_index, serve_regions.quantize_gaze(camera, request.gaze, spec))
        if response.cache_hit:
            require(key in leader, "a hit has no earlier request on its pose and gaze region")
            require(
                np.array_equal(response.result.image, leader[key].result.image),
                "a hit frame differs from the frame of its region's first request",
            )
            continue
        require(key not in leader, "a region was rendered twice")
        direct = fr.render_foveated(fmodel, camera, gaze=request.gaze)
        require(
            np.array_equal(response.result.image, direct.image),
            "a miss frame is not bit-identical to a direct render_foveated",
        )
        leader[key] = response
    check_pixels(r.result.image for r in responses)


def phase_summary(timings, responses, server) -> dict:
    """One phase's outcome and what the layer metrics need from its server,
    reduced so that no frame outlives the round (pooled frames hold
    shared-memory slots until they are dropped)."""
    ok = [r for r in responses if not isinstance(r, BaseException)]
    loops = server.shards if isinstance(server, ShardRouter) else [server]
    stages = [loop.stage_breakdown() for loop in loops]
    return {
        "checksum": frames_checksum(r.result.image for r in ok),
        "latency_s": [t.latency for t in timings],
        "late_s": [t.late for t in timings],
        "hit": [bool(getattr(r, "cache_hit", False)) for r in responses],
        "hits": sum(1 for r in ok if r.cache_hit),
        "misses": sum(1 for r in ok if not r.cache_hit),
        "failed": len(responses) - len(ok),
        "images": [r.result.image for r in ok],
        "wall_s": max(t.done for t in timings) - min(t.due for t in timings),
        "miss_spans": [
            sum(spans.num_spans for spans in r.result.level_spans.values())
            for r in ok
            if not r.cache_hit and r.result.level_spans
        ],
        "cache_counts": sum(int(loop.frame_cache.hits + loop.frame_cache.misses) for loop in loops),
        "served": sum(loop.requests_served for loop in loops),
        "batch_sizes": [size for loop in loops for size in loop.batch_sizes],
        "view_hits": sum(int(loop.view_cache.hits) for loop in loops),
        "view_misses": sum(int(loop.view_cache.misses) for loop in loops),
        "queue_ms_p50": [st["queue"]["p50_ms"] for st in stages if st["queue"]["count"]],
        "render_ms_p50": [st["render"]["p50_ms"] for st in stages if st["render"]["count"]],
        "max_queue_depth": max(loop.max_queue_depth for loop in loops),
        "imbalance": server.imbalance_factor if isinstance(server, ShardRouter) else 1.0,
    }


def served(phases, trace, keep_responses=False) -> tuple[dict, list | None]:
    """Drive each ``(server, schedule)`` phase in turn; a server is a
    ServeLoop or a ShardRouter.  Returns the round summary and, if asked,
    every response in schedule order."""
    out: dict = {"phases": [], "responses": []}

    async def main() -> None:
        for server, schedule in phases:
            async with server:
                async def submit(request):
                    return await server.submit(
                        FrameRequest(request.client_id, trace.cameras[request.pose_index], request.gaze)
                    )

                timings, responses = await open_loop(schedule, submit)
            # Kept outside the coroutine's result: asyncio.run repr()s a
            # task's result at teardown, which would format every frame.
            out["phases"].append(phase_summary(timings, responses, server))
            if keep_responses:
                out["responses"].extend(responses)

    asyncio.run(main())
    summaries = out["phases"]
    images = [image for p in summaries for image in p.pop("images")]
    summary = {
        "phases": summaries,
        "checksum": frames_checksum(images),
        "hits": sum(p["hits"] for p in summaries),
        "misses": sum(p["misses"] for p in summaries),
        "failed": sum(p["failed"] for p in summaries),
        # The phases of a round share one frame cache, so its counters
        # after the last phase cover the whole round.
        "cache_counts": summaries[-1]["cache_counts"],
    }
    return summary, (out["responses"] if keep_responses else None)


def check_served(summary: dict, reference: dict, n_requests: int) -> None:
    require(summary["failed"] == 0, "a request failed")
    require(summary["hits"] + summary["misses"] == n_requests, "hits + misses != requests")
    require(summary["cache_counts"] == n_requests, "cache hit and miss counters do not add up")
    require(summary["checksum"] == reference["checksum"], "frames differ from the checked round")
    require(summary["misses"] == reference["misses"], "the miss count differs from the checked round")


def serve_layer_values(timed: list[dict]) -> dict[str, float]:
    """Serve-tier per-layer values of the timed phase of each round.  Their
    medians may rest on few samples (a miss-heavy trace has few hits)."""
    median = statistics.median
    latency = [(l, hit) for p in timed for l, hit in zip(p["latency_s"], p["hit"])]
    sizes = [x for s in timed for x in s["batch_sizes"]]
    view = sum(s["view_hits"] for s in timed), sum(s["view_misses"] for s in timed)
    return {
        "serve.hit_ratio": sum(hit for _, hit in latency) / len(latency),
        "serve.hit_ms_p50": median([l * 1e3 for l, hit in latency if hit] or [0.0]),
        "serve.miss_ms_p50": median([l * 1e3 for l, hit in latency if not hit] or [0.0]),
        "serve.generator_late_ms_p50": median([x * 1e3 for p in timed for x in p["late_s"]]),
        "serve.queue_ms_p50": median([x for s in timed for x in s["queue_ms_p50"]]),
        "serve.render_group_ms_p50": median([x for s in timed for x in s["render_ms_p50"]]),
        "serve.batch_size_mean": float(np.mean(sizes)),
        "serve.renders_per_request": sum(sizes) / sum(s["served"] for s in timed),
        "serve.max_queue_depth": float(max(s["max_queue_depth"] for s in timed)),
        "splat.viewcache_hit_ratio": view[0] / max(1, sum(view)),
        "sharding.imbalance": float(np.mean([s["imbalance"] for s in timed])),
    }


class ServeZipf(Workload):
    """Clients on Zipf-skewed poses against one inline ``ServeLoop``.

    A round first bursts a trace of 20 clients x 120 frames at 30 frames/s
    into a fresh, cold loop: the capacity.  Misses take ~75% of a burst's
    time, so its rate follows how many distinct pose and gaze regions the
    trace visits; that count's spread over seeds shrinks as the trace grows
    (over 80 seeds, 0.15 for a 320-request burst and 0.046 for this
    2400-request one, before any timing noise).

    Then a trace of 8 clients x 90 frames at 5 frames/s serves the latency:
    its first third is burst into another cold loop, whose frame and view
    caches carry over to a second loop that serves the other 480 requests
    paced, open loop, in trace order at a constant 30 requests/s, so the
    latency is taken in steady state rather than behind a cold-start
    backlog.  Gaze moves far between two requests of a client, so 14-20% of
    paced requests miss the frame cache whatever the seed; a miss render
    blocks the inline loop for ~30 ms and delays the request that falls due
    during it, so 20-30% of requests are slow: the p90 sits among the miss
    renders and the median on the hit path.  With a 30 frames/s trace only
    8-14% of paced requests missed, so over seeds the p90 moved between the
    misses and the hits (6.8 to 29 ms), and the trace's own client phases
    (some clients a few milliseconds apart) put the median on the edge of
    the hit path.
    """

    name = "serve-zipf"
    width, height = 48, 36
    n_poses = 8
    spec = dict(n_clients=8, frames_per_client=90, fps=5.0, zipf_s=1.1, pose_dwell_frames=(4, 12))
    capacity_spec = dict(n_clients=20, frames_per_client=120, fps=30.0, zipf_s=1.1, pose_dwell_frames=(4, 12))
    paced_rate = 30.0

    def setup(self, seed: int) -> None:
        self.fmodel = build_foveated_model()
        _, cameras = trace_cameras(
            "kitchen", n_train=4, n_eval=self.n_poses, width=self.width, height=self.height
        )
        self.trace = generate_serve_trace(cameras, WorkloadSpec(seed=seed, **self.spec))
        self.capacity_trace = generate_serve_trace(cameras, WorkloadSpec(seed=seed, **self.capacity_spec))
        self.capacity = [(0.0, r) for r in self.capacity_trace.requests]
        requests = self.trace.requests
        third = len(requests) // 3
        self.burst = [(0.0, r) for r in requests[:third]]
        self.rest = [(0.0, r) for r in requests[third:]]
        self.paced = [(i / self.paced_rate, r) for i, r in enumerate(requests[third:])]

    def _warm_pair(self, tracer=None):
        """Two loops over one frame cache and one view cache: the second
        starts warm, and its own counters and stage histograms cover its
        phase alone."""
        frame_cache, view_cache = FrameCache(), ViewCache(maxsize=256)
        return [
            ServeLoop(self.fmodel, frame_cache=frame_cache, view_cache=view_cache, tracer=tracer)
            for _ in range(2)
        ]

    def _round(self, paced, tracer=None, keep_responses=False) -> Round:
        capacity, capacity_responses = served(
            [(ServeLoop(self.fmodel, tracer=tracer), self.capacity)],
            self.capacity_trace,
            keep_responses,
        )
        first, rest = self._warm_pair(tracer)
        latency, responses = served([(first, self.burst), (rest, paced)], self.trace, keep_responses)
        return Round(
            latency["phases"][1]["latency_s"],
            capacity["phases"][0]["wall_s"],
            len(self.capacity),
            len(self.trace.requests) + len(self.capacity),
            failed=latency["failed"] + capacity["failed"],
            data={
                "capacity": capacity,
                "latency": latency,
                "capacity_responses": capacity_responses,
                "responses": responses,
            },
        )

    def warm_up(self) -> Round:
        # Unpaced: the warm-up checks outputs, it does not time them.
        return self._round(self.rest, keep_responses=True)

    def run_round(self, tracer=None) -> Round:
        return self._round(self.paced, tracer)

    def check_first(self, rnd: Round) -> None:
        serve_frame_checks(self.fmodel, self.capacity_trace, rnd.data.pop("capacity_responses"))
        serve_frame_checks(self.fmodel, self.trace, rnd.data.pop("responses"))
        check_served(rnd.data["capacity"], rnd.data["capacity"], len(self.capacity))
        check_served(rnd.data["latency"], rnd.data["latency"], len(self.trace.requests))

    def check_round(self, rnd: Round, first: Round) -> None:
        check_served(rnd.data["capacity"], first.data["capacity"], len(self.capacity))
        check_served(rnd.data["latency"], first.data["latency"], len(self.trace.requests))

    def layer_values(self, rounds):
        values = serve_layer_values([r.data["latency"]["phases"][1] for r in rounds])
        del values["sharding.imbalance"]
        return values


class ServePool(Workload):
    """A miss-heavy burst of the largest frames, through a 2-shard router
    that shares one render worker over the shared-memory arena.

    Four clients each step through the eight poses in turn, one pose per
    frame, with their gaze sampled at 3 frames/s along a seeded scanpath:
    almost every one of the 32 requests is its own pose and gaze region, so
    nearly all miss the frame cache and each miss is a 160x120 worker
    render.  The seed moves the gaze, not the pose mix, so every seed
    offers the same amount of rasterization.
    """

    name = "serve-pool"
    width, height = 160, 120
    n_poses = 8
    n_clients, frames_per_client, gaze_fps = 4, 8, 3.0
    shm_bytes = 64 << 20
    #: Every request is its own pose group, so micro-batching has nothing to
    #: coalesce.  With the default budget of 8, a batch's responses are
    #: released together when its slowest pose group returns, so burst
    #: completions clump and the median jumps between clumps from run to run.
    batch_budget = 1

    def setup(self, seed: int) -> None:
        self.fmodel = build_foveated_model()
        _, cameras = trace_cameras(
            "kitchen", n_train=4, n_eval=self.n_poses, width=self.width, height=self.height
        )
        gazes = [
            gaze_trajectory(self.width, self.height, self.frames_per_client, fps=self.gaze_fps, seed=seed * 101 + client)
            for client in range(self.n_clients)
        ]
        requests = [
            TraceRequest(
                time_s=0.0,
                client_id=client,
                frame_index=frame,
                pose_index=(2 * client + frame) % self.n_poses,
                gaze=(float(gazes[client][frame, 0]), float(gazes[client][frame, 1])),
            )
            for frame in range(self.frames_per_client)
            for client in range(self.n_clients)
        ]
        self.trace = ServeTrace(cameras, requests, WorkloadSpec(n_clients=self.n_clients, seed=seed))
        self.burst = [(0.0, r) for r in self.trace.requests]
        self.pool = RenderWorkerPool(self.fmodel, workers=1, shm_bytes=self.shm_bytes)

    def _router(self, tracer=None):
        return ShardRouter(self.fmodel, serve_config=ServeConfig(batch_budget=self.batch_budget), n_shards=2, worker_pool=self.pool, tracer=tracer)

    def warm_up(self) -> Round:
        summary, responses = served([(self._router(), self.burst)], self.trace, keep_responses=True)
        n = len(self.burst)
        return Round([], summary["phases"][0]["wall_s"], n, n, data={"served": summary, "responses": responses})

    def run_round(self, tracer=None) -> Round:
        summary, _ = served([(self._router(tracer), self.burst)], self.trace)
        burst = summary["phases"][0]
        n = len(self.burst)
        return Round(burst["latency_s"], burst["wall_s"], n, n, failed=summary["failed"], data={"served": summary})

    def check_first(self, rnd: Round) -> None:
        serve_frame_checks(self.fmodel, self.trace, rnd.data.pop("responses"))
        check_served(rnd.data["served"], rnd.data["served"], len(self.burst))
        _, report = replay_trace(self.fmodel, self.trace)
        require(
            report.frames_checksum == rnd.data["served"]["checksum"],
            "the pooled, sharded frames differ from an inline single-loop replay",
        )

    def check_round(self, rnd: Round, first: Round) -> None:
        check_served(rnd.data["served"], first.data["served"], len(self.burst))

    def close(self) -> None:
        self.pool.close()
        require(not active_segments(), f"shared-memory segments left behind: {active_segments()}")

    def layer_values(self, rounds):
        summaries = [r.data["served"]["phases"][0] for r in rounds]
        values = serve_layer_values(summaries)
        del values["splat.viewcache_hit_ratio"]  # the worker's view cache is out of reach
        transport = self.pool.transport_stats()
        values["shm.mb_per_frame"] = transport["bytes_via_shm"] / max(1, transport["frames_via_shm"]) / 1e6
        values["shm.fallbacks"] = float(transport["shm_fallbacks"])
        # Frames render in the worker, out of the shims' reach; their span
        # counts come back with the frames.
        spans = [n for s in summaries for n in s["miss_spans"]]
        values["backends.spans"] = float(np.mean(spans)) if spans else 0.0
        return values


# ----------------------------------------------------------------------
# prune-finetune
# ----------------------------------------------------------------------
class PruneFinetune(Workload):
    """The paper's efficiency-aware pruning as a fixed schedule.

    The schedule has ``prune_rounds`` rounds; each computes CE over the
    training poses, prunes the lowest-CE ``prune_fraction`` of points and
    runs ``steps`` fine-tune steps (one ``finetune`` iteration each:
    forward and analytic backward over every training view, then an Adam
    update).  It never depends on when quality crosses a threshold, so the
    work is the same in every run.  One benchmark round runs the schedule
    on ``n_models`` densifications drawn from the seed: the training poses
    are fixed, and averaging over several draws keeps one unlucky draw
    from setting a run's figures.
    """

    name = "prune-finetune"
    width, height = 64, 48
    n_points = 600
    n_views = 2
    n_models = 3
    prune_rounds = 3
    steps = 10
    prune_fraction = 0.2

    def setup(self, seed: int) -> None:
        self.seed = seed
        setup = setup_trace(
            "kitchen", n_points=self.n_points, width=self.width, height=self.height,
            n_train=self.n_views, n_eval=1,
        )
        self.cameras = setup.train_cameras
        self.targets = setup.train_targets
        self.denses = [
            make_mini_splatting_d(setup.scene, seed=seed * self.n_models + k).model
            for k in range(self.n_models)
        ]
        self.train_config = TrainConfig(iterations=1)

    def schedule(self, dense, step_s: list[float]) -> dict:
        model = dense.copy()
        losses, prunes, intersections = [], [], []
        for _ in range(self.prune_rounds):
            ce = core_ce.compute_ce(model, self.cameras)
            intersections.append(ce.total_intersections)
            pruned = core_pruning.prune_lowest_ce(model, ce.ce, self.prune_fraction)
            prunes.append((model.num_points, ce.ce, pruned))
            model = pruned.model
            round_losses = []
            for _ in range(self.steps):
                t0 = perf()
                result = trainer.finetune(model, self.cameras, self.targets, self.train_config)
                step_s.append(perf() - t0)
                round_losses.append(result.photometric[0])
            losses.append(round_losses)
        return {"model": model, "losses": losses, "prunes": prunes, "intersections": intersections}

    def run_round(self, tracer=None) -> Round:
        step_s: list[float] = []
        previous = set_active_tracer(tracer)
        try:
            start = perf()
            schedules = [self.schedule(dense, step_s) for dense in self.denses]
            busy = perf() - start
        finally:
            set_active_tracer(previous)
        for s in schedules:
            s["intersections"].append(core_pipeline.mean_intersections(s["model"], self.cameras))
        return Round(step_s, busy, len(step_s), len(step_s), data={"schedules": schedules})

    def check_round(self, rnd: Round, first: Round | None = None) -> None:
        for k, s in enumerate(rnd.data["schedules"]):
            for n_before, ce, pruned in s.pop("prunes"):
                expected = n_before - min(int(math.floor(n_before * self.prune_fraction)), n_before - 1)
                require(pruned.model.num_points == expected, "a round kept the wrong number of points")
                if pruned.removed_indices.size:
                    require(
                        float(ce[pruned.kept_indices].min()) >= float(ce[pruned.removed_indices].max()),
                        "a round pruned a point with higher CE than one it kept",
                    )
            counts = s["intersections"]
            require(
                all(b < a for a, b in zip(counts, counts[1:])),
                f"mean per-view intersections did not fall in every round: {counts}",
            )
            for round_losses in s["losses"]:
                require(round_losses[-1] < round_losses[0], "a fine-tune round did not lower its loss")
            if first is not None:
                require(
                    counts == first.data["schedules"][k]["intersections"],
                    "intersection counts changed between rounds",
                )
                s.pop("model")

    def check_first(self, rnd: Round) -> None:
        self.check_round(rnd)
        self.check_gradients(rnd.data["schedules"][0].pop("model"))
        for s in rnd.data["schedules"]:
            s.pop("model", None)

    def check_gradients(self, model) -> None:
        """``rasterize_backward`` against central differences of a smooth loss.

        The colour gradient is carried to the DC coefficient through the
        SH evaluation, which clips colours at 0: a clipped channel's true
        derivative is 0.
        """
        camera = self.cameras[0]
        rng = np.random.default_rng(self.seed + 2)
        weights = rng.normal(size=(camera.height, camera.width, 3))

        def loss_and_grads(m):
            projected, assignment = prepare_view(m, camera)
            image, _ = rasterize(projected, assignment, m.num_points, collect_stats=False)
            grads = rasterize_backward(projected, assignment, m.num_points, grad_image=weights)
            return float(np.sum(image * weights)), grads, projected

        _, grads, projected = loss_and_grads(model)
        red = np.zeros(model.num_points)
        red[projected.point_ids] = projected.colors[:, 0]
        visible = np.flatnonzero(np.abs(grads.opacity) > 1e-6)
        require(visible.size >= 3, "too few points carry gradient for the check")
        opacities = model.opacities
        eps = 1e-5
        for i in rng.choice(visible, size=3, replace=False):
            for kind in ("opacity", "color"):
                plus, minus = model.copy(), model.copy()
                if kind == "opacity":
                    plus.opacity_logits[i] += eps
                    minus.opacity_logits[i] -= eps
                    analytic = grads.opacity[i] * opacities[i] * (1.0 - opacities[i])
                else:
                    plus.sh[i, 0, 0] += eps
                    minus.sh[i, 0, 0] -= eps
                    analytic = grads.color[i, 0] * SH_C0 if red[i] > 0 else 0.0
                numeric = (loss_and_grads(plus)[0] - loss_and_grads(minus)[0]) / (2 * eps)
                require(
                    abs(numeric - analytic) <= 1e-4 * max(1.0, abs(numeric)),
                    f"{kind} gradient of point {i}: analytic {analytic:.6g} vs numeric {numeric:.6g}",
                )

    def layer_values(self, rounds):
        kept = [s["intersections"][-1] / s["intersections"][0] for s in rounds[0].data["schedules"]]
        return {"core.intersections_kept": float(np.mean(kept))}


WORKLOADS = {
    w.name: w
    for w in (RenderScanpath, ServeZipf, ServePool, PruneFinetune)
}
