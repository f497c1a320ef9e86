"""VR-Pipe variants, end-to-end hardware rendering, and hardware cost.

The four evaluated variants of Figure 16 are configurations of the same
pipeline model:

========  ====================  ==================
variant   early termination      quad merging
========  ====================  ==================
baseline  off                    off
qm        off                    on (TGC + QRU)
het       on (stencil MSB)       off
het+qm    on                     on
========  ====================  ==================

:class:`HardwareRenderer` wraps preprocessing (single global sort — no
per-tile duplication) plus the pipeline simulation into the paper's
"hardware-based (OpenGL) rendering" path, with the Figure 5/17 kernel
breakdown.
"""

from __future__ import annotations

import time

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.gaussian import GaussianCloud
from repro.gaussians.preprocess import preprocess
from repro.hwmodel.config import GPUConfig, jetson_agx_orin
from repro.hwmodel.pipeline import DrawWorkload, GraphicsPipeline
from repro.hwmodel.prop import qru_storage_bytes
from repro.hwmodel.tgc import TileGridCoalescer
from repro.render.coherence import FrameCoherence
from repro.render.splat_raster import rasterize_splats
from repro.swrender.renderer import SWKernelModel

#: The evaluated hardware variants: name -> (enable_het, enable_qm).
VARIANTS = {
    "baseline": (False, False),
    "qm": (False, True),
    "het": (True, False),
    "het+qm": (True, True),
}


def variant_config(variant, device=None, **overrides):
    """A :class:`GPUConfig` for one of the four variants.

    ``device`` is a base config (defaults to the Table I Orin-like GPU).
    """
    if variant not in VARIANTS:
        raise ValueError(
            f"unknown variant {variant!r}; choose from {sorted(VARIANTS)}")
    het, qm = VARIANTS[variant]
    base = device if device is not None else jetson_agx_orin()
    if not isinstance(base, GPUConfig):
        raise TypeError("device must be a GPUConfig")
    return base.variant(enable_het=het, enable_qm=qm, **overrides)


def run_variant(stream, variant, device=None, engine="batched", **overrides):
    """Simulate one draw call under ``variant``; returns a DrawResult."""
    config = variant_config(variant, device, **overrides)
    return GraphicsPipeline(config).draw(stream, engine=engine)


def run_all_variants(stream, device=None, engine="batched", **overrides):
    """Simulate all four variants on the same stream."""
    return {name: run_variant(stream, name, device, engine=engine,
                              **overrides)
            for name in VARIANTS}


def speedups_over_baseline(results):
    """Speedup of each variant over ``results['baseline']`` (Figure 16)."""
    if "baseline" not in results:
        raise KeyError("results must include the 'baseline' variant")
    base = results["baseline"].cycles
    return {name: base / res.cycles for name, res in results.items()}


def hardware_cost_bytes(config=None):
    """Table III: storage cost of the VR-Pipe extensions, in bytes.

    Returns ``{"tgc": ..., "qru": ..., "total": ...}``; with the Table I
    configuration this reproduces 24.25 KB + 688 B = 24.92 KB.
    """
    config = config or jetson_agx_orin()
    tgc = TileGridCoalescer(config.n_tgc_bins, config.tgc_bin_prims)
    tgc_bytes = tgc.storage_bytes()
    qru_bytes = qru_storage_bytes(n_quad_buffer=config.tc_bin_quads)
    return {"tgc": tgc_bytes, "qru": qru_bytes,
            "total": tgc_bytes + qru_bytes}


class HWRenderResult:
    """Output of :class:`HardwareRenderer.render`.

    The blended ``image``/``alpha`` maps are materialised lazily on first
    access: the colour pass contributes nothing to the simulated cycle
    counts, so trajectory runs that only consume the numeric records
    (``keep_results=False`` sessions, the benchmark suites) never pay for
    per-frame blending.  ``wall_ms`` carries the renderer's measured
    wall-clock stage breakdown (digest / draw), which the trajectory
    benchmark aggregates into its per-stage report.
    """

    def __init__(self, draw_result, preprocess_cycles,
                 sort_cycles, stream, pre, wall_ms=None):
        self.draw = draw_result
        self.preprocess_cycles = float(preprocess_cycles)
        self.sort_cycles = float(sort_cycles)
        self.stream = stream
        self.pre = pre
        self.wall_ms = dict(wall_ms or {})
        self._image = None
        self._alpha = None

    def _blend(self):
        if self._image is None:
            config = self.draw.config
            self._image, self._alpha = self.stream.blend_image(
                early_term=config.enable_het,
                threshold=config.termination_alpha)

    @property
    def image(self):
        self._blend()
        return self._image

    @property
    def alpha(self):
        self._blend()
        return self._alpha

    @property
    def total_cycles(self):
        return self.preprocess_cycles + self.sort_cycles + self.draw.cycles

    def breakdown_ms(self):
        """Figure 5 style breakdown: preprocess / sort / rasterize in ms."""
        scale = 1e3 / self.draw.config.frequency_hz()
        return {
            "preprocess": self.preprocess_cycles * scale,
            "sort": self.sort_cycles * scale,
            "rasterize": self.draw.cycles * scale,
        }

    def total_ms(self):
        return self.total_cycles / self.draw.config.frequency_hz() * 1e3

    def fps(self):
        total = self.total_ms()
        return 1000.0 / total if total > 0 else float("inf")


class HardwareRenderer:
    """End-to-end hardware (OpenGL-path) renderer.

    Preprocessing shares the per-Gaussian kernel cost with the CUDA path
    but pays *no duplication* — the graphics hardware handles tiling — and
    the sort covers only the visible Gaussians once (Section III-A).

    Parameters
    ----------
    config:
        Pipeline configuration (pick a variant via
        :func:`variant_config`); defaults to the HET+QM VR-Pipe.
    kernel_model:
        Calibrated preprocessing/sort kernel costs (shared with
        :class:`~repro.swrender.renderer.CudaRenderer` for a fair
        comparison).
    engine:
        Flush engine of the pipeline model: ``"batched"`` (default, the
        flush-plan engine) or ``"scalar"`` (the retained per-flush path);
        both are cycle- and stat-exact against each other.
    coherence:
        Cross-frame digestion reuse for *standalone* renderer loops (see
        :mod:`repro.render.coherence`): ``"auto"`` attaches a private
        :class:`~repro.render.coherence.FrameCoherence` carrier that
        serves repeated frames from digested state (bit-identical by
        construction).  The default ``"off"`` keeps the renderer
        stateless across frames; sessions manage their own carrier and
        take precedence on streams they already classified.

    Digestion follows the stream: FrameIR-carrying streams (the
    :func:`~repro.render.splat_raster.rasterize_splats` default) digest
    off the IR, bare streams through the sort-based oracle.
    """

    def __init__(self, config=None, kernel_model=None, engine="batched",
                 coherence="off"):
        self.config = config if config is not None else variant_config("het+qm")
        if not isinstance(self.config, GPUConfig):
            raise TypeError("config must be a GPUConfig")
        if engine not in GraphicsPipeline.ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; choose from "
                f"{GraphicsPipeline.ENGINES}")
        self.kernel_model = kernel_model or SWKernelModel()
        self.engine = engine
        self._carrier = (FrameCoherence(coherence)
                         if coherence != "off" else None)

    def render(self, cloud, camera, crop_cache=None):
        """Render a cloud; returns an :class:`HWRenderResult`.

        ``crop_cache`` optionally carries a warm CROP cache across frames
        (see :meth:`~repro.hwmodel.pipeline.GraphicsPipeline.draw`); the
        termination stencil is still cleared per draw, as in hardware.
        """
        if not isinstance(cloud, GaussianCloud):
            raise TypeError(
                f"cloud must be a GaussianCloud, got {type(cloud).__name__}")
        if not isinstance(camera, Camera):
            raise TypeError(
                f"camera must be a Camera, got {type(camera).__name__}")
        pre = preprocess(cloud, camera)
        stream = rasterize_splats(pre.splats, camera.width, camera.height)
        return self.render_stream(stream, pre, crop_cache=crop_cache)

    def render_stream(self, stream, pre=None, crop_cache=None):
        """Render an existing fragment stream (skips re-rasterisation).

        The colour blend is deferred (see :class:`HWRenderResult`);
        accessing ``result.image`` produces exactly the image the eager
        path built.
        """
        model = self.kernel_model
        n_gaussians = (pre.n_input if pre is not None
                       else stream.prim_colors.shape[0])
        n_visible = stream.prim_colors.shape[0]
        preprocess_cycles = model.preprocess_cycles(n_gaussians, 0)
        sort_cycles = model.sort_cycles(n_visible)
        t0 = time.perf_counter()
        # A coherence carrier that classified this stream just before the
        # render stashes its pre-classification snapshot; prefer it so the
        # classification cost lands in this frame's digest breakdown.
        base_sub = stream.__dict__.pop("_substage_base", None)
        if base_sub is None:
            base_sub = dict(stream.substage_ms)
        if self._carrier is not None and stream.coherence is None:
            # Standalone renderer loop: classify the frame against this
            # renderer's private carrier.  Streams a session already
            # classified arrive with ``stream.coherence`` set and are
            # left alone.
            self._carrier.begin_frame(stream)
        workload = DrawWorkload.from_stream(stream, self.config)
        t1 = time.perf_counter()
        draw = GraphicsPipeline(self.config).draw(workload,
                                                  crop_cache=crop_cache,
                                                  engine=self.engine)
        t2 = time.perf_counter()
        wall_ms = {"digest": (t1 - t0) * 1e3, "draw": (t2 - t1) * 1e3}
        # Named digestion substages (pixel-group / arrival-alpha /
        # chunklets / quad-columns), as the *delta* the digest above added
        # to the stream's accumulators — a second render of the same
        # stream (e.g. the session's baseline pass) reports only its own
        # marginal work, not the first pass's.
        for name, ms in stream.substage_ms.items():
            delta = ms - base_sub.get(name, 0.0)
            if delta > 0.0:
                wall_ms[f"digest:{name}"] = delta
        return HWRenderResult(draw, preprocess_cycles,
                              sort_cycles, stream, pre, wall_ms=wall_ms)
