"""Fuzz/property tests: FrameIR digestion vs the legacy sort-based oracle.

The FrameIR path (:mod:`repro.render.frameir`) derives the quad table, the
(prim, tile) group ranges and the (prim, grid) pair structures from the
rasteriser's row intervals with no fragment-level sort; the legacy path —
taken by bare streams, ``rasterize_splats(..., ir="legacy")`` — re-sorts
the fragment stream.  Both must agree **bit for bit** on every
observable: every quad-table column (meta and aggregates, for every
threshold/lag in use), the group and pair structures the flush planner
iterates, the HET termination sets, and the simulated draws themselves.
Quad tables compare against :meth:`QuadTable.from_stream` called by name
on the same stream; workloads and draws against a bare twin stream of the
same frame.  Random splat scenes plus the library's five
digestion regimes — empty, single-pixel, max_fragments-clamped,
HET-terminated, warm handoff — pin the equivalence the same way the
scalar-oracle fuzz suites de-risked the LRU and flush engines.
"""

import zlib

import numpy as np
import pytest

from repro.core.vrpipe import variant_config
from repro.gaussians.camera import Camera
from repro.gaussians.gaussian import GaussianCloud
from repro.gaussians.preprocess import preprocess
from repro.gaussians.projection import project_gaussians
from repro.hwmodel.pipeline import DrawWorkload, GraphicsPipeline
from repro.render.fragstream import QuadTable
from repro.render.frameir import FrameIR
from repro.render.splat_raster import rasterize_splats
from tests.test_stream_decides import IR_ENGINES, forbid

TABLE_COLUMNS = (
    "prim_ids", "qx", "qy", "tile_ids", "grid_ids", "qpos",
    "n_fragments", "n_unpruned", "n_et_blended", "n_unterminated",
    "mask_unpruned", "mask_et", "mask_unterminated",
)

GROUP_COLUMNS = (
    "group_starts", "group_ends", "group_prim", "group_tile", "group_grid",
    "group_n_quads", "group_n_rtiles",
)


def fuzz_seed(tag, salt=0):
    """Process-independent fuzz seed (``hash()`` varies per interpreter)."""
    return zlib.crc32(f"{tag}:{salt}".encode()) & 0x7FFFFFFF


def random_cloud(rng, n, spread=1.1, scale_low=0.004, scale_high=0.16,
                 opacity_low=0.05, opacity_high=1.0):
    quats = rng.normal(size=(n, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    scales = np.exp(rng.uniform(np.log(scale_low), np.log(scale_high),
                                size=(n, 3)))
    return GaussianCloud(
        positions=rng.uniform(-spread, spread, size=(n, 3)) * [1, 1, 0.6],
        scales=scales, quaternions=quats,
        opacities=rng.uniform(opacity_low, opacity_high, n),
        sh=np.zeros((n, 1, 3)))


def camera(width=112, height=96):
    return Camera.look_at(eye=(0, 0.1, -2.1), target=(0, 0, 0),
                          width=width, height=height)


def assert_tables_identical(table_ir, table_legacy):
    assert len(table_ir) == len(table_legacy)
    for name in TABLE_COLUMNS:
        a, b = getattr(table_ir, name), getattr(table_legacy, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def assert_workloads_identical(wl_ir, wl_legacy):
    for name in GROUP_COLUMNS:
        np.testing.assert_array_equal(getattr(wl_ir, name),
                                      getattr(wl_legacy, name), err_msg=name)
    assert wl_ir.prim_group_ranges == wl_legacy.prim_group_ranges
    assert wl_ir.prims_with_quads == wl_legacy.prims_with_quads
    # (prim, grid) pair structures the TGC flush planner consumes.
    np.testing.assert_array_equal(wl_ir.pair_prim, wl_legacy.pair_prim)
    np.testing.assert_array_equal(wl_ir.pair_grid, wl_legacy.pair_grid)
    assert set(wl_ir.prim_grids) == set(wl_legacy.prim_grids)
    for prim, grids in wl_ir.prim_grids.items():
        np.testing.assert_array_equal(grids, wl_legacy.prim_grids[prim])
    # Termination sets (HET stencil updates).
    assert wl_ir.n_terminated_pixels == wl_legacy.n_terminated_pixels
    np.testing.assert_array_equal(wl_ir.terminated_stencil_tags,
                                  wl_legacy.terminated_stencil_tags)


def assert_matches_oracle(stream, threshold, lag):
    """The stream's (IR-built) quad table equals the sort-based oracle
    called by name on the same stream."""
    assert stream.frameir is not None
    assert_tables_identical(stream.quad_table(threshold, lag),
                            QuadTable.from_stream(stream, threshold, lag))


def bare_twin(splats, width, height, **kwargs):
    """The same frame rasterised without a FrameIR (the oracle paths)."""
    bare = rasterize_splats(splats, width, height, ir="legacy", **kwargs)
    assert bare.frameir is None
    return bare


def both_workloads(stream, bare, config):
    return (DrawWorkload.from_stream(stream, config),
            DrawWorkload.from_stream(bare, config))


class TestFrameIRFuzz:
    def test_random_scenes_match_oracle(self):
        rng = np.random.default_rng(fuzz_seed("frameir"))
        for trial in range(8):
            n = int(rng.integers(20, 220))
            cloud = random_cloud(rng, n)
            cam = camera()
            pre = preprocess(cloud, cam)
            stream = rasterize_splats(pre.splats, cam.width, cam.height)
            if len(stream) == 0:
                continue
            for threshold, lag in ((0.996, 0), (0.996, 2), (0.9, 1)):
                assert_matches_oracle(stream, threshold, lag)

    def test_random_workloads_match_oracle(self):
        rng = np.random.default_rng(fuzz_seed("frameir-wl"))
        for trial in range(5):
            cloud = random_cloud(rng, int(rng.integers(30, 160)),
                                 opacity_low=0.5)
            cam = camera()
            pre = preprocess(cloud, cam)
            stream = rasterize_splats(pre.splats, cam.width, cam.height)
            bare = bare_twin(pre.splats, cam.width, cam.height)
            for variant in ("baseline", "het+qm"):
                cfg = variant_config(variant)
                wl_ir, wl_legacy = both_workloads(stream, bare, cfg)
                assert_workloads_identical(wl_ir, wl_legacy)

    def test_random_draws_cycle_exact(self):
        """IR-digested and legacy-digested workloads simulate identically."""
        rng = np.random.default_rng(fuzz_seed("frameir-draw"))
        cloud = random_cloud(rng, 120, opacity_low=0.4)
        cam = camera()
        pre = preprocess(cloud, cam)
        stream = rasterize_splats(pre.splats, cam.width, cam.height)
        bare = bare_twin(pre.splats, cam.width, cam.height)
        for variant in ("baseline", "qm", "het", "het+qm"):
            cfg = variant_config(variant)
            wl_ir, wl_legacy = both_workloads(stream, bare, cfg)
            res_ir = GraphicsPipeline(cfg).draw(wl_ir)
            res_legacy = GraphicsPipeline(cfg).draw(wl_legacy)
            assert res_ir.cycles == res_legacy.cycles, variant
            for unit, stats in res_ir.stats.units.items():
                assert stats.items == res_legacy.stats.units[unit].items
                assert (stats.busy_cycles
                        == res_legacy.stats.units[unit].busy_cycles)


class TestDigestionRegimes:
    """The five stream regimes of the digestion oracle contract."""

    def test_empty_stream(self):
        cam = camera()
        splats = project_gaussians(
            random_cloud(np.random.default_rng(0), 4), cam).subset(
                np.array([], dtype=int))
        stream = rasterize_splats(splats, cam.width, cam.height)
        assert len(stream) == 0
        assert isinstance(stream.frameir, FrameIR)
        assert_matches_oracle(stream, 0.996, 0)
        bare = bare_twin(splats, cam.width, cam.height)
        cfg = variant_config("het+qm")
        assert_workloads_identical(*both_workloads(stream, bare, cfg))

    def test_single_pixel_splats(self):
        """Subpixel splats: every primitive covers exactly one pixel, so
        every quad holds single-fragment scanline spans."""
        rng = np.random.default_rng(fuzz_seed("single-pixel"))
        cloud = random_cloud(rng, 90, scale_low=0.0015, scale_high=0.003,
                             opacity_low=0.6)
        cam = camera()
        pre = preprocess(cloud, cam)
        stream = rasterize_splats(pre.splats, cam.width, cam.height)
        assert len(stream) > 0
        counts = np.bincount(stream.prim_ids)
        # Subpixel splats: floor/ceil bound snapping caps coverage at a
        # 4x4 pixel neighbourhood per primitive.
        assert counts.max() <= 16
        assert_matches_oracle(stream, 0.996, 2)
        bare = bare_twin(pre.splats, cam.width, cam.height)
        cfg = variant_config("het+qm")
        assert_workloads_identical(*both_workloads(stream, bare, cfg))

    def test_max_fragments_clamped(self):
        """At the max_fragments guard boundary the IR still rides along
        and digests identically (one below, both paths raise)."""
        rng = np.random.default_rng(fuzz_seed("clamp"))
        cloud = random_cloud(rng, 40, scale_low=0.05, scale_high=0.4)
        cam = camera()
        pre = preprocess(cloud, cam)
        total = len(rasterize_splats(pre.splats, cam.width, cam.height))
        assert total > 0
        stream = rasterize_splats(pre.splats, cam.width, cam.height,
                                  max_fragments=total)
        assert isinstance(stream.frameir, FrameIR)
        with pytest.raises(MemoryError):
            rasterize_splats(pre.splats, cam.width, cam.height,
                             max_fragments=total - 1)
        assert_matches_oracle(stream, 0.996, 0)
        bare = bare_twin(pre.splats, cam.width, cam.height,
                         max_fragments=total)
        cfg = variant_config("baseline")
        assert_workloads_identical(*both_workloads(stream, bare, cfg))

    def test_het_terminated(self, deep_cloud, deep_camera):
        """Depth-stacked opaque layers saturate pixels: the termination
        sets are non-trivial and must match exactly."""
        pre = preprocess(deep_cloud, deep_camera)
        deep_stream = rasterize_splats(
            pre.splats, deep_camera.width, deep_camera.height)
        bare = bare_twin(pre.splats, deep_camera.width, deep_camera.height)
        cfg = variant_config("het+qm")
        wl_ir, wl_legacy = both_workloads(deep_stream, bare, cfg)
        assert wl_ir.n_terminated_pixels > 0
        assert wl_ir.terminated_stencil_tags.size > 0
        assert_workloads_identical(wl_ir, wl_legacy)
        assert_matches_oracle(deep_stream, cfg.termination_alpha,
                              cfg.het_inflight_lag)

    def test_warm_handoff(self):
        """Whichever path digests first (warming the stream's shared
        pixel-sort/arrival caches), the other must reproduce it exactly:
        the oracle table runs by name on the same IR stream, before and
        after the IR digestion."""
        rng = np.random.default_rng(fuzz_seed("warm"))
        cloud = random_cloud(rng, 80, opacity_low=0.55)
        cam = camera()
        pre = preprocess(cloud, cam)
        cfg = variant_config("het+qm")
        lag = cfg.het_inflight_lag

        stream_a = rasterize_splats(pre.splats, cam.width, cam.height)
        first_a = DrawWorkload.from_stream(stream_a, cfg)
        second_a = QuadTable.from_stream(stream_a, cfg.termination_alpha,
                                         lag)
        assert first_a.quads is not second_a
        assert_tables_identical(first_a.quads, second_a)

        stream_b = rasterize_splats(pre.splats, cam.width, cam.height)
        first_b = QuadTable.from_stream(stream_b, cfg.termination_alpha, lag)
        second_b = DrawWorkload.from_stream(stream_b, cfg)
        assert_tables_identical(second_b.quads, first_b)
        assert_tables_identical(second_b.quads, first_a.quads)
        bare = bare_twin(pre.splats, cam.width, cam.height)
        assert_workloads_identical(second_b,
                                   DrawWorkload.from_stream(bare, cfg))


class TestIRKnob:
    def test_resolve_ir_env_default(self, monkeypatch):
        """The rasteriser's ``ir`` default is ``"auto"`` whatever the
        environment holds (no process-wide knob: a worker inheriting a
        stale ``REPRO_IR`` still takes the path its arguments name), and
        only the declared modes are accepted."""
        monkeypatch.setenv("REPRO_IR", "legacy")
        rng = np.random.default_rng(3)
        pre = preprocess(random_cloud(rng, 20), camera())
        stream = rasterize_splats(pre.splats, 112, 96)
        assert isinstance(stream.frameir, FrameIR)
        for mode in ("frameir", "warp", None):
            with pytest.raises(ValueError, match="ir mode"):
                rasterize_splats(pre.splats, 112, 96, ir=mode)

    def test_legacy_stream_has_no_ir(self):
        rng = np.random.default_rng(4)
        cloud = random_cloud(rng, 15)
        cam = camera()
        pre = preprocess(cloud, cam)
        stream = rasterize_splats(pre.splats, cam.width, cam.height)
        assert isinstance(stream.frameir, FrameIR)
        assert stream.frameir.n_fragments == len(stream)
        bare = bare_twin(pre.splats, cam.width, cam.height)
        np.testing.assert_array_equal(bare.alphas, stream.alphas)

    def test_bare_stream_digests_through_oracle(self, monkeypatch):
        """Hand-built and scalar-rasterised streams carry no IR, so the
        hardware renderer digests them through the sort-based oracle."""
        from repro.core.vrpipe import HardwareRenderer
        from repro.render.splat_raster import rasterize_splats_scalar

        rng = np.random.default_rng(7)
        cloud = random_cloud(rng, 25, opacity_low=0.5)
        cam = camera(64, 64)
        pre = preprocess(cloud, cam)
        bare = rasterize_splats_scalar(pre.splats, cam.width, cam.height)
        assert bare.frameir is None
        forbid(monkeypatch, IR_ENGINES)
        result = HardwareRenderer().render_stream(bare, pre)
        assert result.draw.cycles > 0


class TestDtypePins:
    """Golden-equality check for the R3 dtype annotations.

    The explicit ``dtype=`` pins added to the columnar modules
    (``frameir.py``, ``fragstream.py``, ``flushplan.py``, ``caches.py``)
    must *document* the dtypes the golden outputs already had, not change
    them: every quad-table and workload column is exactly ``int64`` on
    both digestion paths.
    """

    def test_columns_are_int64_on_both_paths(self):
        rng = np.random.default_rng(fuzz_seed("dtype-pins"))
        cloud = random_cloud(rng, 90)
        cam = camera()
        pre = preprocess(cloud, cam)
        stream = rasterize_splats(pre.splats, cam.width, cam.height)
        assert len(stream) > 0
        tables = {"frameir": stream.quad_table(0.996, 0),
                  "legacy": QuadTable.from_stream(stream, 0.996, 0)}
        for path, table in tables.items():
            for name in TABLE_COLUMNS:
                assert getattr(table, name).dtype == np.int64, (path, name)
        bare = bare_twin(pre.splats, cam.width, cam.height)
        config = variant_config("baseline")
        for workload in both_workloads(stream, bare, config):
            for name in GROUP_COLUMNS:
                assert getattr(workload, name).dtype == np.int64, name
