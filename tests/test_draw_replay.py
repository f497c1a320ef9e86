"""Coherent draw replay: memoized draws are exact against fresh draws.

A batched draw of a frame the coherence carrier verified identical to a
library frame skips flush planning and preparation and replays the
memoized plan and products through the cache-dependent apply step only
(:func:`~repro.hwmodel.flushplan.apply_flush_products`).  These tests pin
replayed draws cycle-, stat- and trace-exact against fresh batched draws
and the scalar engine for all four variants — with a warm shared CROP
cache, with a main and a baseline config on one carrier, across a forced
content-key collision, and on empty frames — and pin the memory side:
sealed library states and streams freed without the cyclic collector.

Every test names its coherence mode explicitly (``"auto"`` carrier vs
the ``"off"`` oracle); there is no process-wide default to inherit.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

import repro.engine.session as session_module
import repro.hwmodel.pipeline as pipeline_module
from repro.core.vrpipe import VARIANTS, variant_config
from repro.engine.session import RenderSession
from repro.gaussians import Camera
from repro.gaussians.preprocess import preprocess
from repro.hwmodel.caches import LRUCache
from repro.hwmodel.pipeline import DrawWorkload, GraphicsPipeline
from repro.hwmodel.stats import UNIT_NAMES
from repro.hwmodel.trace import DrawTrace
from repro.render.coherence import FrameCoherence
from repro.render.splat_raster import rasterize_splats
from repro.swrender.warp_model import simulate_tile_warps


@pytest.fixture
def plan_builds(monkeypatch):
    """Counts fresh flush plans (a replayed draw builds none)."""
    calls = []
    real = pipeline_module.build_flush_plan

    def counting(workload, config):
        calls.append(config)
        return real(workload, config)

    monkeypatch.setattr(pipeline_module, "build_flush_plan", counting)
    return calls


def _stream(pre, camera):
    return rasterize_splats(pre.splats, camera.width, camera.height)


def _begin(carrier, stream):
    """Attach ``stream`` to ``carrier`` and digest it (captures it)."""
    carrier.begin_frame(stream)
    _ = stream.accumulated_alpha  # materialises the capture
    return stream


def _draw(stream, config, crop_cache=None, engine="batched"):
    trace = DrawTrace()
    workload = DrawWorkload.from_stream(stream, config)
    result = GraphicsPipeline(config).draw(workload, crop_cache=crop_cache,
                                           trace=trace, engine=engine)
    return result, trace


def _assert_draws_identical(a, b):
    (ra, ta), (rb, tb) = a, b
    sa, sb = ra.stats, rb.stats
    for name in UNIT_NAMES:
        assert sa.units[name].items == sb.units[name].items, name
        assert sa.units[name].busy_cycles == sb.units[name].busy_cycles, name
    for attr, value in vars(sa).items():
        if attr != "units":
            assert value == getattr(sb, attr), attr
    assert [e.as_row() for e in ta.events] == [e.as_row() for e in tb.events]


class TestReplayExactness:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_replay_matches_fresh_and_scalar(self, variant, deep_pre,
                                             deep_camera, plan_builds):
        config = variant_config(variant)
        carrier = FrameCoherence("auto")
        fresh = _draw(_begin(carrier, _stream(deep_pre, deep_camera)),
                      config)
        assert len(plan_builds) == 1
        replayed_stream = _begin(carrier, _stream(deep_pre, deep_camera))
        assert carrier.stats["full_hits"] == 1
        replayed = _draw(replayed_stream, config)
        assert len(plan_builds) == 1, "the full hit must replay the memo"
        scalar = _draw(_stream(deep_pre, deep_camera), config,
                       engine="scalar")
        _assert_draws_identical(fresh, replayed)
        _assert_draws_identical(scalar, replayed)

    def test_warm_shared_crop_cache(self, small_cloud, plan_builds):
        """Alternating views through one warm CROP cache: replays see a
        cache state their memo was never built against, and must still
        match a coherence-off oracle draw for draw, cache state included."""
        config = variant_config("het+qm")
        cams = [Camera.look_at(eye=eye, target=(0, 0, 0), width=96,
                               height=96)
                for eye in ((0.0, 0.25, -2.0), (0.6, 0.2, -1.9))]
        pres = [preprocess(small_cloud, cam) for cam in cams]
        carrier = FrameCoherence("auto")
        warm = LRUCache(config.crop_cache_kb * 1024, config.cache_line_bytes)
        oracle = LRUCache(config.crop_cache_kb * 1024,
                          config.cache_line_bytes)
        for k in (0, 1, 0, 1, 1, 0):
            got = _draw(_begin(carrier, _stream(pres[k], cams[k])), config,
                        crop_cache=warm)
            want = _draw(_stream(pres[k], cams[k]), config,
                         crop_cache=oracle, engine="scalar")
            _assert_draws_identical(want, got)
            assert warm.snapshot() == oracle.snapshot()
        assert len(plan_builds) == 2

    def test_main_and_baseline_configs_share_a_carrier(self, deep_pre,
                                                       deep_camera,
                                                       plan_builds):
        main, base = variant_config("het+qm"), variant_config("baseline")
        carrier = FrameCoherence("auto")
        first = _begin(carrier, _stream(deep_pre, deep_camera))
        fresh = [_draw(first, main), _draw(first, base)]
        second = _begin(carrier, _stream(deep_pre, deep_camera))
        assert set(carrier.draw_memo(second)) == {main.fingerprint(),
                                                  base.fingerprint()}
        replayed = [_draw(second, main), _draw(second, base)]
        assert len(plan_builds) == 2
        for a, b in zip(fresh, replayed):
            _assert_draws_identical(a, b)
        assert replayed[0][0].cycles != replayed[1][0].cycles

    def test_session_records_match_coherence_off(self):
        """A revisit loop with the auto baseline companion: every replayed
        frame record equals the coherence-off oracle's."""
        runs = {}
        for mode in ("auto", "off"):
            session = RenderSession("lego", warm_crop_cache=True,
                                    coherence=mode)
            runs[mode] = [session.run(n_views=2) for _ in range(2)]
        for inc, off in zip(runs["auto"], runs["off"]):
            assert inc.aggregates() == off.aggregates()
            for a, b in zip(inc.records, off.records):
                assert (a.cycles, a.baseline_cycles, a.et_ratio) == (
                    b.cycles, b.baseline_cycles, b.et_ratio)

    def test_key_collision_never_reuses_the_memo(self, monkeypatch,
                                                 small_cloud, plan_builds):
        monkeypatch.setattr(FrameCoherence, "_content_key",
                            lambda self, stream: ("collide",))
        config = variant_config("het+qm")
        cams = [Camera.look_at(eye=eye, target=(0, 0, 0), width=96,
                               height=96)
                for eye in ((0.0, 0.25, -2.0), (0.3, 0.2, -2.0))]
        carrier = FrameCoherence("auto")
        for k in (0, 1, 0):
            pre = preprocess(small_cloud, cams[k])
            stream = _begin(carrier, _stream(pre, cams[k]))
            got = _draw(stream, config)
            want = _draw(_stream(pre, cams[k]), config, engine="scalar")
            _assert_draws_identical(want, got)
        assert carrier.stats["full_hits"] == 0
        assert len(plan_builds) == 3

    def test_partial_hit_starts_an_empty_memo(self, deep_pre, deep_camera,
                                              plan_builds):
        """Same raster geometry with a band of perturbed alphas: a partial
        hit, whose draw must plan afresh (and match the oracle)."""
        config = variant_config("het+qm")
        carrier = FrameCoherence("auto")
        _draw(_begin(carrier, _stream(deep_pre, deep_camera)), config)
        perturbed = _stream(deep_pre, deep_camera)
        band = (perturbed.y >= 30) & (perturbed.y < 50)
        alphas = perturbed.alphas.copy()
        alphas[band] = np.minimum(np.float32(0.97),
                                  alphas[band] * np.float32(1.01))
        perturbed.alphas = alphas
        _begin(carrier, perturbed)
        assert carrier.stats["partial_hits"] == 1
        assert carrier.draw_memo(perturbed) == {}
        got = _draw(perturbed, config)
        assert len(plan_builds) == 2
        oracle = _stream(deep_pre, deep_camera)
        oracle.alphas = alphas
        _assert_draws_identical(_draw(oracle, config, engine="scalar"), got)

    def test_empty_frames(self, small_cloud, plan_builds):
        away = Camera.look_at(eye=(0, 0, -3), target=(0, 0, -9),
                              width=64, height=64)
        pre = preprocess(small_cloud, away)
        carrier = FrameCoherence("auto")
        for variant in sorted(VARIANTS):
            config = variant_config(variant)
            for _ in range(2):
                stream = _begin(carrier, _stream(pre, away))
                assert len(stream) == 0
                got = _draw(stream, config)
                want = _draw(_stream(pre, away), config, engine="scalar")
                _assert_draws_identical(want, got)
        assert carrier.stats["full_hits"] == 7
        assert len(plan_builds) == len(VARIANTS)

    def test_scalar_engine_and_off_mode_never_consult_the_memo(
            self, deep_pre, deep_camera, plan_builds):
        config = variant_config("het+qm")
        carrier = FrameCoherence("auto")
        _draw(_begin(carrier, _stream(deep_pre, deep_camera)), config)
        stream = _begin(carrier, _stream(deep_pre, deep_camera))
        memo = carrier.draw_memo(stream)
        assert memo
        _draw(stream, config, engine="scalar")
        assert len(plan_builds) == 1 and len(memo) == 1
        off = FrameCoherence("off")
        for _ in range(2):
            _draw(_begin(off, _stream(deep_pre, deep_camera)), config)
        assert len(plan_builds) == 3


class TestMemory:
    def test_library_states_are_sealed(self, deep_pre, deep_camera):
        config = variant_config("het+qm")
        carrier = FrameCoherence("auto")
        first = _begin(carrier, _stream(deep_pre, deep_camera))
        _draw(first, config)
        (state,) = carrier._states.values()
        assert state.stream is first
        second = _begin(carrier, _stream(deep_pre, deep_camera))
        sealed = state.stream
        assert sealed is not first
        for name in ("x", "y", "prim_ids"):
            assert not hasattr(sealed, name)
        assert not any(isinstance(key, tuple) and key[0] == "quad_table"
                       for key in sealed._cache)
        quads = sealed.frameir._quads
        assert quads._meta is None and quads._slots is None
        # The hit shares the sealed quad view: the replayed draw matches,
        # and so does a config the memo lacks, which re-expands the view's
        # per-quad columns from its compact state.
        assert second.frameir._quads is quads
        _assert_draws_identical(_draw(first, config), _draw(second, config))
        other = variant_config("het")
        _assert_draws_identical(_draw(first, other), _draw(second, other))
        lag = other.het_inflight_lag
        for name in ("qx", "qy", "qpos", "n_fragments", "mask_et"):
            assert np.array_equal(
                getattr(second.quad_table(0.996, lag), name),
                getattr(first.quad_table(0.996, lag), name)), name

    def test_sealed_states_hold_no_fragment_rank_array(self, deep_pre,
                                                       deep_camera):
        """The per-fragment local ranks are rebuilt on demand, never
        cached: a sealed state's rank entries hold only the per-pixel
        termination ranks plus arrays it keeps anyway, and a full hit
        still adopts the HET masks bit-identically — the CUDA warp
        model's ranks included."""
        config = variant_config("het")
        thr, lag = config.termination_alpha, config.het_inflight_lag
        assert lag > 0  # the lag path is the one that reads local ranks
        carrier = FrameCoherence("auto")
        first = _begin(carrier, _stream(deep_pre, deep_camera))
        _draw(first, config)
        warps = simulate_tile_warps(first, thr)
        (state,) = carrier._states.values()
        second = _begin(carrier, _stream(deep_pre, deep_camera))
        assert carrier.stats["full_hits"] == 1
        sealed = state.stream
        n = len(sealed)
        kept = [v for k, v in sealed._cache.items() if not isinstance(k, tuple)]
        ranks = [v for k, v in sealed._cache.items()
                 if isinstance(k, tuple) and k[0] == "pixel_ranks_sorted"]
        assert ranks, "the rank structure should be adopted by hits"
        for entry in ranks:
            for arr in entry:
                if arr.shape == (n,):
                    assert any(arr is other for other in kept)
        assert ("unterminated", round(thr, 9), lag) in second._cache
        oracle = _stream(deep_pre, deep_camera)
        for name in ("unterminated_on_arrival", "het_blended_mask"):
            assert np.array_equal(getattr(second, name)(thr, lag),
                                  getattr(oracle, name)(thr, lag)), name
        assert np.array_equal(second._pixel_ranks(thr)[0],
                              oracle._pixel_ranks(thr)[0])
        hit_warps = simulate_tile_warps(second, thr)
        want = simulate_tile_warps(oracle, thr)
        assert vars(hit_warps) == vars(want) == vars(warps)

    @pytest.fixture
    def stream_refs(self, monkeypatch):
        """Weak references to every stream a session rasterises."""
        refs = []
        real = session_module.rasterize_splats

        def tracking(*args, **kwargs):
            stream = real(*args, **kwargs)
            refs.append(weakref.ref(stream))
            return stream

        monkeypatch.setattr(session_module, "rasterize_splats", tracking)
        return refs

    def test_finished_streams_die_without_the_cyclic_collector(
            self, stream_refs):
        session = RenderSession("lego", coherence="off")
        _ = session.cloud
        gc.collect()
        gc.disable()
        try:
            session.run(n_views=2)
            alive = sum(ref() is not None for ref in stream_refs)
        finally:
            gc.enable()
        assert len(stream_refs) == 2
        assert alive == 0

    def test_dropped_session_frees_its_carrier_without_the_collector(
            self, stream_refs):
        """Streams hold their carrier weakly, so a carrier library is no
        reference cycle: dropping a coherent session frees it at once."""
        session = RenderSession("lego", coherence="auto")
        _ = session.cloud
        gc.collect()
        gc.disable()
        try:
            session.run(n_views=2)
            # Only the last frame stays (unsealed) in the library.
            alive = sum(ref() is not None for ref in stream_refs)
            carrier = weakref.ref(session._carrier())
            del session
            carrier_alive = carrier() is not None
            after = sum(ref() is not None for ref in stream_refs)
        finally:
            gc.enable()
        assert (alive, carrier_alive, after) == (1, False, 0)
