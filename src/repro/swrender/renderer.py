"""CUDA-style renderer: kernel-time model plus functional output.

Produces the three kernel times of Figure 5's breakdown — preprocess,
Gaussian sort, rasterise — for the software path, using:

* the tile-duplication counts from :mod:`repro.swrender.tiling`
  (preprocess and sort scale with duplicated pairs);
* the lockstep-warp execution model from :mod:`repro.swrender.warp_model`
  (rasterise time scales with executed warp-rounds).

Functional output reuses the shared fragment stream, so the image is
identical to the reference renderer by construction (the CUDA renderer
computes the same math).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.gaussians.camera import Camera
from repro.gaussians.gaussian import GaussianCloud
from repro.gaussians.preprocess import preprocess
from repro.render.fragstream import DEFAULT_TERMINATION_ALPHA
from repro.render.splat_raster import rasterize_splats
from repro.swrender.tiling import TileAssignment, assign_tiles
from repro.swrender.warp_model import simulate_tile_warps


@dataclass
class SWKernelModel:
    """Calibrated per-item costs of the CUDA kernels (in GPU cycles).

    The paper gives no kernel microarchitecture, so these constants are
    calibrated against Figure 5's breakdown shape: CUDA preprocessing pays
    per-duplicate work (per-tile buffers, key/index duplication), sorting is
    a linear-pass radix sort over duplicated keys, and rasterisation costs a
    fixed instruction budget per warp-round.

    ``issue_slots`` is the GPC-wide warp-instruction issue bandwidth the
    work spreads across (matching the hardware model's SM array).
    """

    preprocess_cycles_per_gaussian: float = 400.0
    preprocess_cycles_per_duplicate: float = 140.0
    sort_cycles_per_key: float = 120.0
    raster_cycles_per_warp_round: float = 190.0
    blend_extra_cycles: float = 6.0
    issue_slots: float = 64.0

    def preprocess_cycles(self, n_gaussians, n_duplicates):
        ops = (n_gaussians * self.preprocess_cycles_per_gaussian
               + n_duplicates * self.preprocess_cycles_per_duplicate)
        return ops / self.issue_slots

    def sort_cycles(self, n_keys):
        return n_keys * self.sort_cycles_per_key / self.issue_slots

    def raster_cycles(self, warp_rounds, blend_ops):
        ops = (warp_rounds * self.raster_cycles_per_warp_round
               + blend_ops * self.blend_extra_cycles)
        return ops / self.issue_slots


class CudaRenderTiming:
    """Per-kernel cycle counts for one software-rendered frame."""

    def __init__(self, preprocess_cycles, sort_cycles, raster_cycles,
                 frequency_hz):
        self.preprocess_cycles = float(preprocess_cycles)
        self.sort_cycles = float(sort_cycles)
        self.raster_cycles = float(raster_cycles)
        self.frequency_hz = float(frequency_hz)

    @property
    def total_cycles(self):
        return self.preprocess_cycles + self.sort_cycles + self.raster_cycles

    def breakdown_ms(self):
        """``{'preprocess': ms, 'sort': ms, 'rasterize': ms}``."""
        scale = 1e3 / self.frequency_hz
        return {
            "preprocess": self.preprocess_cycles * scale,
            "sort": self.sort_cycles * scale,
            "rasterize": self.raster_cycles * scale,
        }

    def total_ms(self):
        return self.total_cycles / self.frequency_hz * 1e3

    def fps(self):
        total = self.total_ms()
        return 1000.0 / total if total > 0 else float("inf")


class CudaRenderResult:
    """Timing + functional output of the CUDA-style renderer.

    The blended ``image``/``alpha`` maps are materialised lazily on first
    access (mirroring :class:`~repro.core.vrpipe.HWRenderResult`): the
    colour pass contributes nothing to the modelled kernel times, so
    trajectory runs that only consume the numeric records never pay for
    per-frame blending.  ``wall_ms`` carries the renderer's measured
    wall-clock stage breakdown (tiling / digest), which the trajectory
    benchmark aggregates into its per-stage report.
    """

    def __init__(self, timing, stream, warp_exec, tiling,
                 early_term, threshold, wall_ms=None):
        self.timing = timing
        self.stream = stream
        self.warp_exec = warp_exec
        self.tiling = tiling
        self.early_term = bool(early_term)
        self.threshold = float(threshold)
        self.wall_ms = dict(wall_ms or {})
        self._image = None
        self._alpha = None

    def _blend(self):
        if self._image is None:
            self._image, self._alpha = self.stream.blend_image(
                early_term=self.early_term, threshold=self.threshold)

    @property
    def image(self):
        self._blend()
        return self._image

    @property
    def alpha(self):
        self._blend()
        return self._alpha


class CudaRenderer:
    """The software (CUDA) rendering path of Figure 5.

    Parameters
    ----------
    kernel_model:
        Optional calibrated :class:`SWKernelModel`.
    frequency_hz:
        GPU clock used to convert cycles to milliseconds (defaults to the
        paper's 612 MHz Orin configuration).
    early_term:
        Whether the rasterise kernel applies early termination (the paper's
        end-to-end comparison enables it for the software path).

    The warp model follows the stream: FrameIR-carrying streams run the
    IR engine, bare streams the fragment-sort oracle (see
    :mod:`repro.swrender.warp_model`).
    """

    def __init__(self, kernel_model=None, frequency_hz=612e6, early_term=True,
                 threshold=DEFAULT_TERMINATION_ALPHA):
        self.kernel_model = kernel_model or SWKernelModel()
        self.frequency_hz = float(frequency_hz)
        self.early_term = bool(early_term)
        self.threshold = float(threshold)

    def render(self, cloud, camera):
        """Render a cloud and return a :class:`CudaRenderResult`."""
        if not isinstance(cloud, GaussianCloud):
            raise TypeError(
                f"cloud must be a GaussianCloud, got {type(cloud).__name__}")
        if not isinstance(camera, Camera):
            raise TypeError(
                f"camera must be a Camera, got {type(camera).__name__}")
        pre = preprocess(cloud, camera)
        stream = rasterize_splats(pre.splats, camera.width, camera.height)
        return self.render_stream(stream, pre)

    def render_stream(self, stream, pre=None):
        """Render from an existing fragment stream (shared with other paths).

        Tile duplication comes from ``pre`` when given; otherwise the
        stream's own :class:`~repro.render.splat_raster.TileBinning` is
        consumed directly (no re-binning).  The colour blend is deferred
        (see :class:`CudaRenderResult`).
        """
        model = self.kernel_model
        t0 = time.perf_counter()
        # A coherence carrier that classified this stream just before the
        # render stashes its pre-classification snapshot; prefer it so the
        # classification cost lands in this frame's digest breakdown.
        base_sub = stream.__dict__.pop("_substage_base", None)
        if base_sub is None:
            base_sub = dict(stream.substage_ms)
        tiling = _tiling_for(stream, pre)
        n_gaussians = stream.prim_colors.shape[0]
        t1 = time.perf_counter()
        warp_exec = simulate_tile_warps(stream, self.threshold)
        t2 = time.perf_counter()

        warp_rounds = (warp_exec.rounds_et if self.early_term
                       else warp_exec.rounds_no_et)
        blend_ops = (warp_exec.blend_ops_et if self.early_term
                     else warp_exec.blend_ops_no_et)
        timing = CudaRenderTiming(
            preprocess_cycles=model.preprocess_cycles(
                n_gaussians, tiling.n_pairs),
            sort_cycles=model.sort_cycles(tiling.n_pairs),
            raster_cycles=model.raster_cycles(warp_rounds, blend_ops),
            frequency_hz=self.frequency_hz,
        )
        wall_ms = {"tiling": (t1 - t0) * 1e3, "digest": (t2 - t1) * 1e3}
        # Named digestion substages, as the *delta* the warp model added
        # to the stream's accumulators (same bookkeeping as the hardware
        # renderer): a re-render of an already-digested stream reports
        # only its own marginal work.
        for name, ms in stream.substage_ms.items():
            delta = ms - base_sub.get(name, 0.0)
            if delta > 0.0:
                wall_ms[f"digest:{name}"] = delta
        return CudaRenderResult(timing, stream, warp_exec, tiling,
                                early_term=self.early_term,
                                threshold=self.threshold, wall_ms=wall_ms)


def _tiling_for(stream, pre):
    """Tile duplication for the sort/preprocess kernels.

    ``pre`` reproduces the conservative bbox/16-rounding estimate of
    :func:`~repro.swrender.tiling.assign_tiles` (what the CUDA kernel can
    test cheaply).  Without it, the batched rasteriser's
    :class:`~repro.render.splat_raster.TileBinning` on the stream provides
    the *exact* per-splat tile counts, consumed as-is.
    """
    if pre is not None:
        return assign_tiles(pre.splats, stream.width, stream.height)
    binning = getattr(stream, "binning", None)
    if binning is not None:
        return TileAssignment(binning.pairs_per_splat())
    raise ValueError(
        "render_stream needs the PreprocessResult to size tile duplication; "
        "pass pre=, use render(), or pass a stream produced by "
        "rasterize_splats (which carries its TileBinning)")
