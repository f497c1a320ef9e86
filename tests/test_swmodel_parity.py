"""Fuzz/property tests: FrameIR-native software models vs the sort oracle.

The CUDA warp model (:mod:`repro.swrender.warp_model`) and the multi-pass
model (:mod:`repro.swopt.multipass`) each carry two engines, picked by
the stream: a stream carrying a FrameIR runs the IR-native path (the
(prim, tile) group ranges / quad table plus digestion's cached
pixel-sorted arrival chain), a bare stream — ``rasterize_splats(...,
ir="legacy")`` — runs the retained fragment-sort oracle.  Both must agree
**bit for bit** on every observable: the
:class:`~repro.swrender.warp_model.WarpExecution` round and blend counts,
every :class:`~repro.swopt.multipass.MultipassResult` cycle (per batch,
per stencil update, total) and blended-fragment count, the sweep speedup
maps, and the :class:`~repro.swrender.tiling.TileAssignment` pair counts
of end-to-end renders.  Each test compares an IR stream against a bare
twin of the same frame, or calls the oracle by name on the IR stream.
Random splat scenes plus the library's five digestion regimes — empty,
single-pixel, max_fragments-clamped, HET-terminated, warm handoff — pin
the equivalence the same way ``test_frameir.py`` de-risked the digestion
engines.
"""

import zlib

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.gaussian import GaussianCloud
from repro.gaussians.preprocess import preprocess
from repro.gaussians.projection import project_gaussians
from repro.render.frameir import FrameIR
from repro.render.splat_raster import rasterize_splats
from repro.swopt.multipass import (
    _multipass_workspace_legacy,
    multipass_sweep,
    run_multipass,
)
from repro.swrender.renderer import CudaRenderer
from repro.swrender.warp_model import (
    _simulate_tile_warps_legacy,
    simulate_tile_warps,
)

PASS_COUNTS = (1, 2, 5, 7)
THRESHOLDS = (0.996, 0.9)


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


def assert_warps_identical(a, b):
    assert a.rounds_no_et == b.rounds_no_et
    assert a.rounds_et == b.rounds_et
    assert a.blend_ops_no_et == b.blend_ops_no_et
    assert a.blend_ops_et == b.blend_ops_et


def assert_multipass_identical(a, b):
    assert a.n_passes == b.n_passes
    assert a.total_cycles == b.total_cycles
    assert a.batch_cycles == b.batch_cycles
    assert a.stencil_cycles == b.stencil_cycles
    assert a.fragments_blended == b.fragments_blended


def raster_pair(splats, width, height, **kwargs):
    """One frame rasterised twice: with a FrameIR (the IR engines) and
    bare (the sort-based oracles)."""
    stream = rasterize_splats(splats, width, height, **kwargs)
    bare = rasterize_splats(splats, width, height, ir="legacy", **kwargs)
    assert isinstance(stream.frameir, FrameIR)
    assert bare.frameir is None
    return stream, bare


def assert_stream_parity(stream, bare):
    """Both engines agree exactly on every model output of one frame."""
    for threshold in THRESHOLDS:
        assert_warps_identical(simulate_tile_warps(stream, threshold),
                               simulate_tile_warps(bare, threshold))
    for n in PASS_COUNTS:
        assert_multipass_identical(run_multipass(stream, n),
                                   run_multipass(bare, n))
    assert (multipass_sweep(stream, PASS_COUNTS)
            == multipass_sweep(bare, PASS_COUNTS))


class TestSwmodelFuzz:
    def test_random_scenes_exact(self):
        rng = np.random.default_rng(fuzz_seed("swmodel"))
        for trial in range(6):
            n = int(rng.integers(20, 200))
            cloud = random_cloud(rng, n, opacity_low=0.3)
            cam = camera()
            pre = preprocess(cloud, cam)
            stream, bare = raster_pair(pre.splats, cam.width, cam.height)
            if len(stream) == 0:
                continue
            assert_stream_parity(stream, bare)


class TestSwmodelRegimes:
    """The five stream regimes of the digestion oracle contract."""

    def test_empty_stream(self):
        cam = camera()
        splats = project_gaussians(
            random_cloud(np.random.default_rng(0), 4), cam).subset(
                np.array([], dtype=int))
        for stream in raster_pair(splats, cam.width, cam.height):
            assert len(stream) == 0
            warp = simulate_tile_warps(stream)
            assert (warp.rounds_no_et, warp.rounds_et,
                    warp.blend_ops_no_et, warp.blend_ops_et) == (0, 0, 0, 0)
            res = run_multipass(stream, 3)
            assert res.total_cycles == 0.0
            assert res.fragments_blended == 0

    def test_single_pixel_splats(self):
        """Subpixel splats: single-fragment quads and one-round tiles."""
        rng = np.random.default_rng(fuzz_seed("sw-single-pixel"))
        cloud = random_cloud(rng, 90, scale_low=0.0015, scale_high=0.003,
                             opacity_low=0.6)
        cam = camera()
        pre = preprocess(cloud, cam)
        stream, bare = raster_pair(pre.splats, cam.width, cam.height)
        assert len(stream) > 0
        assert_stream_parity(stream, bare)

    def test_max_fragments_clamped(self):
        """At the max_fragments guard boundary the IR still rides along
        and both software models stay exact."""
        rng = np.random.default_rng(fuzz_seed("sw-clamp"))
        cloud = random_cloud(rng, 40, scale_low=0.05, scale_high=0.4)
        cam = camera()
        pre = preprocess(cloud, cam)
        total = len(rasterize_splats(pre.splats, cam.width, cam.height))
        assert total > 0
        assert_stream_parity(*raster_pair(pre.splats, cam.width, cam.height,
                                          max_fragments=total))

    def test_het_terminated(self, deep_pre, deep_camera):
        """Depth-stacked opaque layers saturate pixels: the warp model's
        per-pixel exit rounds are non-trivial and must match exactly."""
        stream, bare = raster_pair(deep_pre.splats, deep_camera.width,
                                   deep_camera.height)
        warp = simulate_tile_warps(stream)
        assert warp.rounds_et < warp.rounds_no_et
        assert_stream_parity(stream, bare)

    def test_warm_handoff(self):
        """Whichever engine digests first (warming the stream's shared
        pixel-sort/arrival caches), the other must reproduce it exactly:
        the oracles run by name on the same IR stream."""
        rng = np.random.default_rng(fuzz_seed("sw-warm"))
        cloud = random_cloud(rng, 80, opacity_low=0.55)
        cam = camera()
        pre = preprocess(cloud, cam)
        threshold = THRESHOLDS[0]

        def rounds(warp):
            return warp.rounds_no_et, warp.rounds_et

        stream_a = rasterize_splats(pre.splats, cam.width, cam.height)
        first_a = simulate_tile_warps(stream_a, threshold)
        second_a = _simulate_tile_warps_legacy(stream_a, threshold)
        assert rounds(first_a) == second_a

        stream_b = rasterize_splats(pre.splats, cam.width, cam.height)
        first_b = _simulate_tile_warps_legacy(stream_b, threshold)
        second_b = simulate_tile_warps(stream_b, threshold)
        assert rounds(second_b) == first_b
        assert_warps_identical(first_a, second_b)

        mp_a = run_multipass(stream_a, 4)
        mp_b = run_multipass(
            stream_b, 4, _workspace=_multipass_workspace_legacy(stream_b))
        assert_multipass_identical(mp_a, mp_b)


class TestCudaRendererParity:
    def test_end_to_end_exact(self):
        """Whole CudaRenderer frames agree across engines: kernel cycles,
        warp counts, tile-duplication pair counts, and the (lazy) blended
        image."""
        rng = np.random.default_rng(fuzz_seed("sw-e2e"))
        cloud = random_cloud(rng, 120, opacity_low=0.4)
        cam = camera()
        pre = preprocess(cloud, cam)
        stream, bare = raster_pair(pre.splats, cam.width, cam.height)
        res_ir = CudaRenderer().render_stream(stream, pre)
        res_legacy = CudaRenderer().render_stream(bare, pre)
        assert_warps_identical(res_ir.warp_exec, res_legacy.warp_exec)
        assert res_ir.timing.total_cycles == res_legacy.timing.total_cycles
        assert (res_ir.timing.breakdown_ms()
                == res_legacy.timing.breakdown_ms())
        np.testing.assert_array_equal(res_ir.tiling.pairs_per_splat,
                                      res_legacy.tiling.pairs_per_splat)
        assert res_ir.tiling.n_pairs == res_legacy.tiling.n_pairs
        # The blend is deferred until the image is actually read.
        assert res_ir._image is None
        # The bare twin's arrival chain is the global log-space cumsum,
        # the IR stream's the per-scanline one: equal up to summation
        # order.
        np.testing.assert_allclose(res_ir.image, res_legacy.image,
                                   atol=1e-12)
        np.testing.assert_allclose(res_ir.alpha, res_legacy.alpha,
                                   atol=1e-12)
        assert res_ir._image is not None

