"""Frame lanes: any lane count renders exactly what one lane renders.

:meth:`~repro.engine.session.RenderSession.run` pipelines a trajectory's
frames over lanes while keeping the coherence carrier; only each frame's
classify→capture section is serialised, in frame order.  These tests pin
lanes 1, 2 and 3 against each other — records, aggregates, the carrier's
outcome counters and its library keys — over full hits with draw
replays, partial hits, ``coherence="off"`` and ``ir="legacy"``, and pin
that every frame passes its turn however it ends: healed at the
``coherence=off`` rung, or failing every rung with ``strict`` false and
true.  Every run goes through :func:`_bounded`, so a lane deadlock fails
the test instead of hanging the suite.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro.engine.session as session_module
from repro import faults
from repro.engine import FrameLadderExhausted, create_backend
from repro.engine.session import RenderSession
from repro.faults import FaultPlan
from repro.workloads.catalog import get_profile

SCENE = "lego"
LANES = (1, 2, 3)

#: Generous wall-clock bound of one lane-test run (seconds).
JOIN_TIMEOUT_S = 300.0


def _bounded(fn):
    """Run ``fn()`` on a helper thread and fail if it does not finish."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised on the test thread
            box["error"] = exc

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(JOIN_TIMEOUT_S)
    if worker.is_alive():
        pytest.fail(f"lane run did not finish in {JOIN_TIMEOUT_S:.0f} s "
                    "(a frame never passed its turn?)")
    if "error" in box:
        raise box["error"]
    return box["value"]


def _records(result):
    return [r.to_dict() for r in result.records]


def _observe(session, runs, n_views, jobs):
    """Records/aggregates of ``runs`` consecutive runs, then the carrier's
    final counters and library keys."""
    out = []
    for _ in range(runs):
        result = _bounded(lambda: session.run(n_views=n_views, jobs=jobs))
        out.append((_records(result), result.aggregates()))
    carrier = session._carrier()
    return out, dict(carrier.stats), list(carrier._states)


def _assert_lane_invariant(make_session, runs=1, n_views=4):
    want = _observe(make_session(), runs, n_views, LANES[0])
    for jobs in LANES[1:]:
        got = _observe(make_session(), runs, n_views, jobs)
        assert got == want, f"jobs={jobs} diverged from one lane"
    return want


class TestLaneInvariance:
    def test_orbit_twice_full_hits_and_replays(self):
        runs, stats, keys = _assert_lane_invariant(
            lambda: RenderSession(SCENE), runs=2)
        assert runs[0] == runs[1]
        # The second lap is served entirely from the library.
        assert stats["full_hits"] == 4
        assert len(keys) == 4

    def test_partial_hit_trajectory(self, monkeypatch):
        """Same camera each frame, alphas perturbed on per-frame scanline
        bands: consecutive frames share most scanlines (partial hits) and
        repeated bands key back to library states (full hits)."""
        profile = get_profile(SCENE)
        bands = (None, (30, 50), None, (60, 80), (30, 50))
        cameras = [profile.camera() for _ in bands]
        band_of_camera = {id(cam): band for cam, band in zip(cameras, bands)}
        band_of_splats = {}
        keep = []
        real_pre = session_module.preprocess
        real_raster = session_module.rasterize_splats

        def preprocess(cloud, camera):
            pre = real_pre(cloud, camera)
            keep.append(pre)
            band_of_splats[id(pre.splats)] = band_of_camera[id(camera)]
            return pre

        def rasterize(splats, width, height, **kwargs):
            stream = real_raster(splats, width, height, **kwargs)
            band = band_of_splats[id(splats)]
            if band is not None:
                rows = (stream.y >= band[0]) & (stream.y < band[1])
                alphas = stream.alphas.copy()
                alphas[rows] = np.minimum(np.float32(0.97),
                                          alphas[rows] * np.float32(1.01))
                stream.alphas = alphas
            return stream

        monkeypatch.setattr(session_module, "scene_viewpoints",
                            lambda _profile, n: cameras[:n])
        monkeypatch.setattr(session_module, "preprocess", preprocess)
        monkeypatch.setattr(session_module, "rasterize_splats", rasterize)
        _, stats, _ = _assert_lane_invariant(
            lambda: RenderSession(SCENE), n_views=len(bands))
        assert stats["partial_hits"] >= 1
        assert stats["full_hits"] >= 1

    @pytest.mark.parametrize("knobs", [{"coherence": "off"},
                                       {"ir": "legacy"}],
                             ids=["coherence-off", "ir-legacy"])
    def test_oracle_knobs(self, knobs):
        runs, stats, keys = _assert_lane_invariant(
            lambda: RenderSession(SCENE, **knobs))
        oracle = _observe(RenderSession(SCENE), 1, 4, 1)[0]
        assert runs == oracle
        assert sum(stats.values()) == 0 and keys == []

    def test_cuda_backend(self):
        _assert_lane_invariant(
            lambda: RenderSession(SCENE, backend="cuda+et", baseline=None),
            runs=2, n_views=3)


class TestTurnPassing:
    def test_frame_healed_at_coherence_off_passes_its_turn(self):
        """Frame 0's section faults twice (rewound, turn kept), then the
        carrier-less rung passes the turn: the later frames enter their
        sections in order and the run matches at every lane count."""
        def make():
            return RenderSession(SCENE)

        def observe(jobs):
            session = make()
            with faults.active(FaultPlan.parse(
                    "coherence.verify:raise,times=2")):
                result = _bounded(lambda: session.run(n_views=4, jobs=jobs))
            carrier = session._carrier()
            return (_records_without_timing(result), result.aggregates(),
                    dict(carrier.stats), list(carrier._states))

        want = observe(1)
        incidents = [inc for rec in want[0] for inc in rec["incidents"]]
        assert [(inc["frame"], inc["rung"], inc["recovered_by"])
                for inc in incidents] == [(0, "primary", "coherence=off"),
                                          (0, "retry", "coherence=off")]
        for jobs in LANES[1:]:
            assert observe(jobs) == want, f"jobs={jobs}"

    @pytest.mark.parametrize("plan, instance, strict", [
        ("rasterize:raise", False, False),
        ("rasterize:raise", False, True),
        ("coherence.verify:raise", False, True),
        ("digest:raise", True, False),
        ("digest:raise", True, True),
    ], ids=["before-section", "before-section-strict",
            "in-section-strict", "after-section", "after-section-strict"])
    def test_exhausted_ladder_passes_every_turn(self, plan, instance,
                                                strict):
        """Every attempt of every frame fails — before its section
        (rasterize), inside it (strict raises from the section), or after
        it (a ready backend instance ladders through primary and retry
        only, and digestion faults after every section passed): the run
        raises what one lane raises, for the first frame, no lane is left
        waiting, and the carrier still serves a clean run exactly."""
        def make():
            if instance:
                return RenderSession(SCENE, backend=create_backend(
                    "hw:het+qm"), baseline=None, strict=strict)
            return RenderSession(SCENE, strict=strict)

        expected = faults.FaultInjected if strict else FrameLadderExhausted
        with faults.active(None):
            oracle = make().run(n_views=2, jobs=1).aggregates()
        for jobs in LANES:
            session = make()
            with faults.active(FaultPlan.parse(plan)):
                with pytest.raises(expected) as excinfo:
                    _bounded(lambda: session.run(n_views=4, jobs=jobs))
            if not strict:
                assert excinfo.value.index == 0
            with faults.active(None):
                clean = _bounded(lambda: session.run(n_views=2, jobs=jobs))
            assert clean.aggregates() == oracle


def _records_without_timing(result):
    """Records with the incidents' measured wall-clock fields dropped."""
    records = _records(result)
    for rec in records:
        rec["incidents"] = [
            {k: v for k, v in inc.items() if k not in ("wall_ms", "ts_ms")}
            for inc in rec["incidents"]]
    return records
