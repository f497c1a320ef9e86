"""Multi-frame simulation sessions along viewpoint trajectories.

The paper's headline aggregates (Figures 16/17/21) are statistics over
*many viewpoints per scene*.  A :class:`RenderSession` owns one
(scene, backend, device) configuration and simulates whole frame
sequences along the scene's orbit trajectory
(:func:`repro.workloads.viewpoints.scene_viewpoints`), producing a
:class:`TrajectoryResult` with per-frame records and aggregate
statistics (geomean speedup over a baseline backend, FPS percentiles,
the early-termination-ratio distribution).

Cross-frame state is carried correctly: with ``warm_crop_cache`` the
backend's CROP cache persists across frames (the ``crop_cache`` hook of
the pipeline model), while the HET termination stencil is cleared every
frame — a fresh ZROP unit per draw, as in hardware.  Warm-cache runs are
serial by construction; stateless runs fan out over the parallel
executor and return bit-identical records in either mode.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro import faults
from repro.engine import cache as engine_cache
from repro.engine.backends import backend_spec, resolve_backend
from repro.engine.executor import (FrameIncident, FrameLadderExhausted,
                                   frame_seed, run_frames)
from repro.gaussians.preprocess import preprocess
from repro.knobs import check_mode
from repro.render.coherence import FrameCoherence
from repro.render.splat_raster import rasterize_splats
from repro.workloads.catalog import SceneProfile, build_scene, get_profile
from repro.workloads.viewpoints import scene_viewpoints


def geomean(values):
    """Geometric mean of positive values."""
    values = np.asarray(list(values), dtype=np.float64)
    if values.size == 0:
        raise ValueError("geomean of empty sequence")
    if np.any(values <= 0):
        raise ValueError("geomean requires positive values")
    return float(np.exp(np.mean(np.log(values))))


class FrameRecord:
    """Numeric summary of one trajectory frame.

    ``result`` holds the full :class:`~repro.engine.backends.FrameResult`
    (with images) only when the session ran with ``keep_results=True``;
    by default — and for records restored from the disk cache — it is
    ``None``, so long trajectories never pin every frame's image and
    fragment stream in memory at once.

    ``incidents`` lists the faults the self-healing executor recovered
    while producing this frame (as
    :meth:`~repro.engine.executor.FrameIncident.to_dict` payloads);
    empty for clean frames.  The numeric fields are bit-identical
    whether a frame rendered cleanly or through a degraded ladder rung.
    """

    _FIELDS = ("index", "backend", "seed", "cycles", "ms", "fps",
               "et_ratio", "kernels", "baseline_cycles", "speedup",
               "incidents")

    def __init__(self, index, backend, seed, cycles=None, ms=None, fps=None,
                 et_ratio=None, kernels=None, baseline_cycles=None,
                 speedup=None, incidents=None, result=None):
        self.index = int(index)
        self.backend = backend
        self.seed = int(seed)
        self.cycles = cycles
        self.ms = ms
        self.fps = fps
        self.et_ratio = et_ratio
        self.kernels = dict(kernels) if kernels else {}
        self.baseline_cycles = baseline_cycles
        self.speedup = speedup
        self.incidents = list(incidents) if incidents else []
        self.result = result

    def to_dict(self):
        return {name: getattr(self, name) for name in self._FIELDS}

    @classmethod
    def from_dict(cls, payload):
        return cls(**{name: payload.get(name) for name in cls._FIELDS})

    def __repr__(self):
        ms = f"{self.ms:.3f}" if self.ms is not None else "-"
        return (f"FrameRecord(index={self.index}, backend={self.backend!r}, "
                f"ms={ms}, et_ratio={self.et_ratio})")


class TrajectoryResult:
    """Per-frame records plus aggregates for one trajectory run.

    ``stage_ms`` holds the summed wall-clock per-stage breakdown over the
    run's frames (preprocess / rasterize / digest / draw / ...) when the
    session collected one (serial runs only — overlapping workers would
    double-count wall time); empty otherwise.
    """

    def __init__(self, scene, backend, baseline, device, seed, records,
                 from_cache=False, stage_ms=None):
        self.scene = scene
        self.backend = backend
        self.baseline = baseline
        self.device = device
        self.seed = int(seed)
        self.records = list(records)
        self.from_cache = bool(from_cache)
        self.stage_ms = dict(stage_ms or {})

    @property
    def n_frames(self):
        return len(self.records)

    def aggregates(self):
        """Summary statistics over the trajectory's frames.

        Always reports the frame count and the early-termination-ratio
        distribution; timing aggregates (ms, FPS percentiles) appear when
        the backend models time, and ``geomean_speedup`` when a baseline
        backend ran alongside.
        """
        agg = {"frames": self.n_frames}
        ratios = [r.et_ratio for r in self.records if r.et_ratio is not None]
        if ratios:
            ratios = np.asarray(ratios, dtype=np.float64)
            agg["et_ratio_mean"] = float(ratios.mean())
            agg["et_ratio_min"] = float(ratios.min())
            agg["et_ratio_max"] = float(ratios.max())
        times = [r.ms for r in self.records if r.ms is not None]
        if times:
            agg["mean_ms"] = float(np.mean(times))
            agg["total_ms"] = float(np.sum(times))
        fps = [r.fps for r in self.records if r.fps is not None]
        if fps:
            fps = np.asarray(fps, dtype=np.float64)
            agg["fps_p5"] = float(np.percentile(fps, 5))
            agg["fps_p50"] = float(np.percentile(fps, 50))
            agg["fps_p95"] = float(np.percentile(fps, 95))
        speedups = [r.speedup for r in self.records if r.speedup is not None]
        if speedups:
            agg["geomean_speedup"] = geomean(speedups)
        return agg

    def incidents(self):
        """Flat list of every frame's incident payloads, in frame order.

        Deliberately *not* part of :meth:`aggregates`: the aggregate
        statistics are bit-identical between a chaos run and its
        fault-free oracle (degraded rungs are exact), while incidents
        describe the run's operational history.
        """
        return [inc for r in self.records for inc in (r.incidents or [])]

    def incident_summary(self):
        """Operational rollup of the run's incidents (empty run: count 0)."""
        incidents = self.incidents()
        summary = {"count": len(incidents)}
        if not incidents:
            return summary
        summary["frames_affected"] = len({inc["frame"] for inc in incidents})
        by_rung = {}
        by_point = {}
        for inc in incidents:
            rung = inc.get("recovered_by") or "unrecovered"
            by_rung[rung] = by_rung.get(rung, 0) + 1
            point = inc.get("point") or "unknown"
            by_point[point] = by_point.get(point, 0) + 1
        summary["recovered_by"] = by_rung
        summary["by_point"] = by_point
        # healing_ms is the wall clock burned by *failed* attempts — the
        # latency tax paid to heal — the serving layer attributes slow
        # responses to it.  wall_ms is the historical alias.
        healing_ms = float(sum(inc.get("wall_ms", 0.0)
                               for inc in incidents))
        summary["healing_ms"] = healing_ms
        summary["wall_ms"] = healing_ms
        return summary

    def to_dict(self):
        return {
            "scene": self.scene,
            "backend": self.backend,
            "baseline": self.baseline,
            "device": self.device,
            "seed": self.seed,
            "records": [r.to_dict() for r in self.records],
            "incidents": self.incidents(),
        }

    @classmethod
    def from_dict(cls, payload, from_cache=False):
        return cls(
            scene=payload["scene"],
            backend=payload["backend"],
            baseline=payload.get("baseline"),
            device=payload.get("device", "orin"),
            seed=payload.get("seed", 0),
            records=[FrameRecord.from_dict(r) for r in payload["records"]],
            from_cache=from_cache,
        )

    def __repr__(self):
        return (f"TrajectoryResult(scene={self.scene!r}, "
                f"backend={self.backend!r}, frames={self.n_frames}, "
                f"from_cache={self.from_cache})")


class _FrameTask:
    """One frame's inputs: orbit index, camera, deterministic seed."""

    def __init__(self, index, camera, seed):
        self.index = index
        self.camera = camera
        self.seed = seed


class RenderSession:
    """Simulate frame sequences of one scene through one backend.

    Parameters
    ----------
    scene:
        Catalogue scene name or a :class:`SceneProfile`.
    backend:
        Backend spec (see :mod:`repro.engine.backends`).
    baseline:
        Spec of a second backend rendered on the *same* per-frame stream
        for speedup statistics.  ``"auto"`` picks ``hw:baseline`` for
        hardware backends (and nothing otherwise); ``None`` disables it.
    device:
        Device preset name (``orin`` / ``rtx3090``).
    seed:
        Scene-construction seed; per-frame seeds derive from it
        deterministically via :func:`repro.engine.executor.frame_seed`.
    warm_crop_cache:
        Persist the backend's CROP cache across the trajectory's frames
        (forces serial execution; hardware backends only).
    result_cache:
        Optional :class:`~repro.engine.cache.ResultCache`; trajectory
        runs are served from disk on a content-key hit.
    ir:
        The session's rasterisation mode (``"auto"`` / ``"legacy"``, see
        :mod:`repro.render.frameir`) — the library's one oracle selector.
        ``"legacy"`` emits bare streams, so digestion, the coherence
        carrier and the CUDA warp/multipass models all take their
        retained sort-based oracles.  Both modes produce bit-identical
        frames, so the disk cache key is deliberately ``ir``-agnostic.
    coherence:
        Cross-frame digestion reuse (``"auto"`` / ``"off"``, see
        :mod:`repro.render.coherence`).  The session owns one
        :class:`~repro.render.coherence.FrameCoherence` carrier shared by
        :meth:`render_frame` calls and serial :meth:`run` trajectories,
        so revisited viewpoints reuse digested state.  Like ``ir``, both
        modes are bit-identical — the disk cache key stays
        ``coherence``-agnostic.  Parallel runs (``jobs > 1``) bypass the
        carrier.
    strict:
        ``True`` restores raise-through semantics: a frame failure
        propagates immediately instead of entering the degradation
        ladder (see :data:`LADDER`).
    watchdog_ms:
        Per-frame-attempt wall-clock budget.  Attempts exceeding it
        raise :class:`~repro.faults.WatchdogTimeout` at the next
        instrumented checkpoint (the watchdog is cooperative — the
        simulator is pure compute with checkpoints on every fast path),
        and the ladder treats the timeout like any other frame fault.
        ``None`` (default) disables the watchdog entirely.

    Self-healing
    ------------
    Every trajectory frame runs through a bounded retry-with-degradation
    ladder: retry as-is, then ``coherence=off``, then ``ir=legacy``,
    then ``engine=scalar``.  Each rung re-renders the frame through a
    *retained bit-exact oracle* of the failed fast path, so a degraded
    frame's record is bit-identical to a clean one — only wall-clock
    changes.  The ``ir=legacy`` rung only changes the session's own
    rasterise call: the bare stream it emits takes every consumer's
    oracle on its own.  Recoveries are logged as structured incidents on
    the frame's record; a frame that fails every rung raises
    :class:`~repro.engine.executor.FrameLadderExhausted`.  The
    ``engine=scalar`` rung rebuilds backends from their registry specs,
    so sessions handed ready backend *instances* ladder through the
    retry rung only.
    """

    #: The degradation ladder, least- to most-degraded.  Every rung is
    #: bit-identical in its outputs; later rungs bypass progressively
    #: more of the vectorized fast paths (and their failure modes).
    LADDER = ("primary", "retry", "coherence=off", "ir=legacy",
              "engine=scalar")

    #: rung -> (use coherence carrier, ir override, flush-engine override).
    _RUNG_KNOBS = {
        "primary": (True, None, None),
        "retry": (True, None, None),
        "coherence=off": (False, None, None),
        "ir=legacy": (False, "legacy", None),
        "engine=scalar": (False, "legacy", "scalar"),
    }

    def __init__(self, scene, backend="hw:het+qm", baseline="auto",
                 device="orin", seed=0, warm_crop_cache=False,
                 result_cache=None, ir="auto", coherence="auto",
                 strict=False, watchdog_ms=None):
        self.profile = (scene if isinstance(scene, SceneProfile)
                        else get_profile(scene))
        # Specs are normalised once here: ``backend``/``baseline`` may be
        # registry spec strings or ready backend instances alike.  The
        # on-disk result cache is keyed by (spec, device) strings, which
        # only describe instances the registry itself would build — so
        # caching is disabled when a ready instance is passed (its actual
        # configuration is not part of the key and a differently-built
        # instance sharing a spec must not collide).
        self._cacheable = (isinstance(backend, str)
                           and (baseline is None or isinstance(baseline, str)))
        self.backend_spec = backend_spec(backend)
        self.device_name = device
        self.seed = int(seed)
        self.ir = check_mode("ir", ir)
        self.backend = resolve_backend(backend, device_name=device)
        if baseline == "auto":
            spec = self.backend_spec
            baseline = ("hw:baseline"
                        if spec.startswith("hw:") and spec != "hw:baseline"
                        else None)
        self.baseline_spec = backend_spec(baseline) if baseline else None
        self.baseline = (resolve_backend(baseline, device_name=device)
                         if baseline else None)
        self.warm_crop_cache = bool(warm_crop_cache)
        self.result_cache = result_cache
        self.coherence = check_mode("coherence", coherence)
        self.strict = bool(strict)
        self.watchdog_ms = watchdog_ms
        self._coherence_carrier = None
        self._cloud = None
        # Scalar-engine backends of the deepest rung, built lazily from
        # the registry specs (keyed by role) — possible exactly when the
        # session was handed spec strings, i.e. when ``_cacheable``.
        self._degraded = {}
        self._degraded_lock = threading.Lock()

    @property
    def cloud(self):
        """The scene's Gaussian cloud (built once, shared by all frames)."""
        if self._cloud is None:
            try:
                catalogued = get_profile(self.profile.name) is self.profile
            except KeyError:
                catalogued = False
            if catalogued:
                self._cloud = engine_cache.get_cloud(self.profile.name,
                                                     self.seed)
            else:
                self._cloud = build_scene(self.profile, seed=self.seed)
        return self._cloud

    def _carrier(self):
        """The session's coherence carrier (built once, possibly inert)."""
        if self._coherence_carrier is None:
            self._coherence_carrier = FrameCoherence(self.coherence)
        return self._coherence_carrier

    def _ladder_rungs(self):
        """The rungs available to this session (see class docstring)."""
        if self._cacheable:
            return self.LADDER
        return ("primary", "retry")

    def _rung_backends(self, rung):
        """``(backend, baseline, use_carrier, ir)`` for one ladder rung."""
        use_carrier, ir, engine = self._RUNG_KNOBS[rung]
        # A rung that leaves ``ir`` unset keeps the session's own mode, so
        # a shallow rung doesn't silently degrade the rest.
        ir = ir or self.ir
        if engine is None:
            return self.backend, self.baseline, use_carrier, ir
        with self._degraded_lock:
            if "backend" not in self._degraded:
                self._degraded["backend"] = resolve_backend(
                    self.backend_spec, device_name=self.device_name,
                    engine=engine)
                self._degraded["baseline"] = (
                    resolve_backend(self.baseline_spec,
                                    device_name=self.device_name,
                                    engine=engine)
                    if self.baseline is not None else None)
        return (self._degraded["backend"], self._degraded["baseline"],
                use_carrier, ir)

    def _render_frame_attempt(self, task, backend, baseline, carrier,
                              crop_cache, raster_jobs, keep_results, ir,
                              stages):
        """One rendering attempt of one frame (any rung's configuration).

        ``stages``, when not ``None``, collects this attempt's wall-clock
        stage timings as ``(name, ms, substage dict)`` tuples — the
        caller merges them into the run's breakdown only if the attempt
        succeeds, so failed attempts never skew the per-stage report.
        """
        t0 = time.perf_counter()
        pre = preprocess(self.cloud, task.camera)
        t1 = time.perf_counter()
        stream = rasterize_splats(pre.splats, task.camera.width,
                                  task.camera.height, jobs=raster_jobs,
                                  ir=ir)
        t2 = time.perf_counter()
        if carrier is not None:
            carrier.begin_frame(stream)
        frame = backend.render_stream(stream, pre, crop_cache=crop_cache)
        t3 = time.perf_counter()
        record = FrameRecord(
            index=task.index, backend=self.backend_spec, seed=task.seed,
            cycles=frame.cycles, ms=frame.ms, fps=frame.fps,
            et_ratio=frame.et_ratio, kernels=frame.kernels,
            result=frame if keep_results else None)
        base = None
        if baseline is not None:
            base = baseline.render_stream(stream, pre)
            record.baseline_cycles = base.cycles
            if base.cycles and frame.cycles:
                record.speedup = base.cycles / frame.cycles
        if stages is not None:
            t4 = time.perf_counter()
            stages.append(("preprocess", (t1 - t0) * 1e3, None))
            stages.append(("rasterize", (t2 - t1) * 1e3, None))
            stages.append(("render", (t3 - t2) * 1e3, frame.wall_ms))
            if base is not None:
                stages.append(("baseline", (t4 - t3) * 1e3, base.wall_ms))
        return record

    def _run_frame_ladder(self, task, carrier, crop_cache, raster_jobs,
                          keep_results, stage_sink):
        """Render one frame through the degradation ladder.

        Cross-frame shared state (the coherence carrier, a warm CROP
        cache) is snapshotted before the first attempt and rewound
        before every retry, so a fault that struck mid-mutation cannot
        leak half-updated state into the healed frame or its successors.
        """
        incidents = []
        last_exc = None
        carrier_snap = (carrier.snapshot() if carrier is not None else None)
        crop_snap = (crop_cache.snapshot()
                     if crop_cache is not None
                     and hasattr(crop_cache, "snapshot") else None)
        for rung in self._ladder_rungs():
            backend, baseline, use_carrier, ir = self._rung_backends(rung)
            if incidents:
                if carrier_snap is not None:
                    carrier.restore(carrier_snap)
                if crop_snap is not None:
                    crop_cache.restore(crop_snap)
            stages = [] if stage_sink is not None else None
            t0 = time.perf_counter()
            try:
                with faults.watchdog(self.watchdog_ms):
                    record = self._render_frame_attempt(
                        task, backend, baseline,
                        carrier if use_carrier else None, crop_cache,
                        raster_jobs, keep_results, ir, stages)
            except Exception as exc:
                if self.strict:
                    raise
                last_exc = exc
                incidents.append(FrameIncident(
                    task.index, rung, f"{type(exc).__name__}: {exc}",
                    point=getattr(exc, "point", None),
                    wall_ms=(time.perf_counter() - t0) * 1e3))
                continue
            if incidents:
                for incident in incidents:
                    incident.recovered_by = rung
                record.incidents = [inc.to_dict() for inc in incidents]
            if stage_sink is not None:
                stage_sink(stages)
            return record
        if carrier_snap is not None:
            carrier.restore(carrier_snap)
        if crop_snap is not None:
            crop_cache.restore(crop_snap)
        raise FrameLadderExhausted(task.index, task.seed,
                                   incidents) from last_exc

    def render_frame(self, camera=None, crop_cache=None):
        """Render a single frame; defaults to the profile's camera.

        Preprocesses and rasterises exactly as the backend's own
        ``render`` would — the output stays bit-identical to calling the
        underlying renderer directly — but feeds the stream through the
        session's coherence carrier first, so repeated frames (static
        camera, revisited viewpoints) reuse digested state.
        """
        cam = camera if camera is not None else self.profile.camera()
        pre = preprocess(self.cloud, cam)
        stream = rasterize_splats(pre.splats, cam.width, cam.height,
                                  ir=self.ir)
        self._carrier().begin_frame(stream)
        return self.backend.render_stream(stream, pre, crop_cache=crop_cache)

    def run(self, n_views=8, jobs=1, keep_results=False, raster_jobs=None,
            collect_stages=False, crop_cache=None):
        """Simulate ``n_views`` frames along the scene's orbit trajectory.

        ``keep_results=True`` attaches each frame's full
        :class:`~repro.engine.backends.FrameResult` (image, alpha, raw
        renderer output) to its record; the default keeps only the
        numeric summaries, so memory stays flat however long the
        trajectory is.

        ``raster_jobs`` threads the rasteriser's independent fragment
        blocks inside each frame (bit-identical streams, see
        :func:`repro.render.splat_raster.rasterize_splats`) — orthogonal
        to ``jobs``, which fans whole frames out.  ``collect_stages=True``
        accumulates a wall-clock per-stage breakdown onto the result
        (serial runs only).

        ``crop_cache`` hands in a caller-owned warm CROP cache instead of
        building a fresh one (the serving layer persists one per resident
        scene, so warm requests reuse it *across* trajectories).  Its
        contents depend on everything previously rendered through it, so
        such runs always bypass the disk result cache.
        """
        if n_views <= 0:
            raise ValueError(f"n_views must be positive, got {n_views}")
        if collect_stages and jobs is not None and jobs > 1:
            raise ValueError(
                "collect_stages sums wall-clock per stage and requires "
                "serial frame execution (jobs=1)")
        caller_crop_cache = crop_cache is not None
        key = None
        # Stage collection measures *this* run's wall clock; a cache hit
        # would return records with no breakdown, so it bypasses the cache.
        # A caller-owned CROP cache carries request history, so its runs
        # are not content-addressable either.
        if (self.result_cache is not None and self._cacheable
                and not collect_stages and not caller_crop_cache):
            key = engine_cache.trajectory_key(
                self.profile, self.seed, self.backend_spec,
                self.baseline_spec, self.device_name, n_views,
                self.warm_crop_cache)
            hit = self.result_cache.load(key)
            if hit is not None:
                return TrajectoryResult.from_dict(hit, from_cache=True)

        # Parallel fan-out bypasses the carrier: frames are bit-identical
        # either way, the carrier only changes how fast digestion
        # converges.
        parallel = jobs is not None and jobs > 1
        carrier = None if parallel else self._carrier()

        if self.warm_crop_cache or caller_crop_cache:
            if jobs is not None and jobs > 1:
                raise ValueError(
                    "warm_crop_cache carries state across frames and "
                    "requires serial execution (jobs=1)")
            if not caller_crop_cache:
                crop_cache = self.backend.new_crop_cache()
            if crop_cache is None:
                raise ValueError(
                    f"backend {self.backend_spec!r} has no CROP cache to "
                    "keep warm")

        cameras = scene_viewpoints(self.profile, n_views)
        tasks = [
            _FrameTask(k, cam, frame_seed(self.profile.name, self.seed, k))
            for k, cam in enumerate(cameras)
        ]
        _ = self.cloud  # build once outside the workers, shared read-only

        stage_ms = {} if collect_stages else None

        def stage_sink(stages):
            for name, ms, substages in stages:
                stage_ms[name] = stage_ms.get(name, 0.0) + ms
                for sub, sub_ms in (substages or {}).items():
                    key = f"{name}:{sub}"
                    stage_ms[key] = stage_ms.get(key, 0.0) + sub_ms

        def render_one(task):
            return self._run_frame_ladder(
                task, carrier, crop_cache, raster_jobs, keep_results,
                stage_sink if stage_ms is not None else None)

        records = run_frames(render_one, tasks, jobs=jobs,
                             task_info=lambda task, _: (task.index, task.seed))
        result = TrajectoryResult(
            scene=self.profile.name, backend=self.backend_spec,
            baseline=self.baseline_spec, device=self.device_name,
            seed=self.seed, records=records, stage_ms=stage_ms)
        if key is not None:
            self.result_cache.store(key, result.to_dict())
        return result
