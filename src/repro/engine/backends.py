"""Unified renderer backends: one protocol over every rendering path.

The library grew three divergent entry points — the hardware pipeline
(:class:`~repro.core.vrpipe.HardwareRenderer`), the CUDA-style software
renderer (:class:`~repro.swrender.renderer.CudaRenderer`), and the
reference blender — each with its own result type.  This module puts them
behind a single :class:`RendererBackend` protocol returning a common
:class:`FrameResult`, and a string-keyed registry so callers (sessions,
the CLI, experiments) select a path by spec:

==============  ======================================================
spec            path
==============  ======================================================
``hw:baseline``  hardware pipeline, no VR-Pipe extensions
``hw:qm``        hardware pipeline + quad merging (TGC/QRU)
``hw:het``       hardware pipeline + hardware early termination
``hw:het+qm``    full VR-Pipe
``cuda``         CUDA-style software renderer, no early termination
``cuda+et``      CUDA-style software renderer with early termination
``reference``    ground-truth blender (functional only, no timing)
==============  ======================================================

No backend takes an oracle knob: which digestion and software-model
engine runs is decided by the stream each backend is handed (see
:mod:`repro.render.frameir`).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.core.vrpipe import VARIANTS, HardwareRenderer, variant_config
from repro.gaussians.preprocess import preprocess
from repro.hwmodel.caches import LRUCache
from repro.hwmodel.config import jetson_agx_orin, rtx_3090
from repro.render.fragstream import DEFAULT_TERMINATION_ALPHA
from repro.render.splat_raster import rasterize_splats
from repro.swrender.renderer import CudaRenderer, SWKernelModel


def make_device(device_name):
    """Device presets shared by every backend and the experiments."""
    if device_name == "orin":
        return jetson_agx_orin()
    if device_name == "rtx3090":
        return rtx_3090()
    raise ValueError(f"unknown device {device_name!r}; use 'orin' or 'rtx3090'")


def device_kernel_model(device):
    """The calibrated CUDA-kernel model matched to ``device``'s SM array."""
    return SWKernelModel(issue_slots=float(device.sm_issue_slots_per_cycle))


def make_cuda_renderer(device_name="orin", early_term=True):
    """A CUDA-path renderer matched to the device's clock and SM count."""
    device = make_device(device_name)
    return CudaRenderer(kernel_model=device_kernel_model(device),
                        frequency_hz=device.frequency_hz(),
                        early_term=early_term)


class FrameResult:
    """One rendered frame in the engine's common schema.

    ``cycles``/``ms``/``fps`` are ``None`` for the reference backend,
    which is functional-only.  ``n_fragments`` counts the rasterised
    fragments of the frame (the benchmark harness derives fragments/sec
    from it).  ``kernels`` is the per-kernel millisecond
    breakdown (preprocess / sort / rasterize) when the path models it.
    ``wall_ms`` is the backend's *measured* wall-clock stage breakdown
    (empty when the path doesn't record one).  ``pipeline_stats`` carries
    the hardware model's :class:`~repro.hwmodel.stats.PipelineStats` when
    available, and ``raw`` the backend's native result object.

    ``image``/``alpha`` may be deferred: a backend can hand an
    ``image_source`` (any object with lazy ``image``/``alpha`` attributes,
    e.g. :class:`~repro.core.vrpipe.HWRenderResult`) instead of eager
    arrays, and the blend then runs on first property access — sessions
    that keep only numeric records never trigger it.
    """

    def __init__(self, backend, image=None, alpha=None, cycles=None,
                 ms=None, fps=None, kernels=None, et_ratio=None,
                 n_fragments=None, pipeline_stats=None, raw=None,
                 wall_ms=None, image_source=None):
        self.backend = backend
        self._image = image
        self._alpha = alpha
        self._image_source = image_source
        self.cycles = cycles
        self.ms = ms
        self.fps = fps
        self.kernels = dict(kernels) if kernels else {}
        self.wall_ms = dict(wall_ms) if wall_ms else {}
        self.et_ratio = et_ratio
        self.n_fragments = n_fragments
        self.pipeline_stats = pipeline_stats
        self.raw = raw

    @property
    def image(self):
        if self._image is None and self._image_source is not None:
            self._image = self._image_source.image
        return self._image

    @property
    def alpha(self):
        if self._alpha is None and self._image_source is not None:
            self._alpha = self._image_source.alpha
        return self._alpha


@runtime_checkable
class RendererBackend(Protocol):
    """What every registered backend implements."""

    spec: str

    def render(self, cloud, camera, crop_cache=None) -> FrameResult:
        """Render a Gaussian cloud from a camera."""
        ...

    def render_stream(self, stream, pre=None, crop_cache=None) -> FrameResult:
        """Render an already-rasterised fragment stream."""
        ...

    def new_crop_cache(self):
        """A persistent CROP cache for cross-frame reuse, or ``None``."""
        ...


class HardwareBackend:
    """Hardware (OpenGL-path) rendering under one VR-Pipe variant.

    ``engine`` selects the pipeline's flush engine: the batched flush-plan
    engine (default) or the retained scalar per-flush path — both produce
    cycle- and stat-identical results.  ``coherence`` enables cross-frame
    digestion reuse for standalone backend loops (see
    :mod:`repro.render.coherence`); sessions manage their own carrier and
    leave this at its stateless default.
    """

    def __init__(self, spec, variant, device, engine="batched",
                 coherence="off"):
        self.spec = spec
        self.variant = variant
        self.config = variant_config(variant, device)
        self.renderer = HardwareRenderer(
            config=self.config, kernel_model=device_kernel_model(device),
            engine=engine, coherence=coherence)

    def render(self, cloud, camera, crop_cache=None):
        res = self.renderer.render(cloud, camera, crop_cache=crop_cache)
        return self._wrap(res)

    def render_stream(self, stream, pre=None, crop_cache=None):
        res = self.renderer.render_stream(stream, pre, crop_cache=crop_cache)
        return self._wrap(res)

    def new_crop_cache(self):
        return LRUCache(self.config.crop_cache_kb * 1024,
                        self.config.cache_line_bytes)

    def _wrap(self, res):
        return FrameResult(
            backend=self.spec,
            image_source=res,
            cycles=res.total_cycles,
            ms=res.total_ms(),
            fps=res.fps(),
            kernels=res.breakdown_ms(),
            wall_ms=res.wall_ms,
            et_ratio=res.stream.termination_ratio(
                self.config.termination_alpha),
            n_fragments=len(res.stream),
            pipeline_stats=res.draw.stats,
            raw=res,
        )


class CudaBackend:
    """CUDA-style software rendering (Figure 5's SW path)."""

    def __init__(self, spec, device, early_term):
        self.spec = spec
        self.renderer = CudaRenderer(
            kernel_model=device_kernel_model(device),
            frequency_hz=device.frequency_hz(),
            early_term=early_term)

    def render(self, cloud, camera, crop_cache=None):
        self._check_no_cache(crop_cache)
        return self._wrap(self.renderer.render(cloud, camera))

    def render_stream(self, stream, pre=None, crop_cache=None):
        self._check_no_cache(crop_cache)
        return self._wrap(self.renderer.render_stream(stream, pre))

    def new_crop_cache(self):
        return None

    def _check_no_cache(self, crop_cache):
        if crop_cache is not None:
            raise ValueError(
                f"backend {self.spec!r} has no CROP cache to persist")

    def _wrap(self, res):
        return FrameResult(
            backend=self.spec,
            image_source=res,
            cycles=res.timing.total_cycles,
            ms=res.timing.total_ms(),
            fps=res.timing.fps(),
            kernels=res.timing.breakdown_ms(),
            wall_ms=res.wall_ms,
            et_ratio=res.stream.termination_ratio(self.renderer.threshold),
            n_fragments=len(res.stream),
            pipeline_stats=None,
            raw=res,
        )


class ReferenceBackend:
    """Ground-truth blender: functional output only, no timing model."""

    def __init__(self, spec, device=None):
        self.spec = spec

    def render(self, cloud, camera, crop_cache=None):
        self._check_no_cache(crop_cache)
        pre = preprocess(cloud, camera)
        stream = rasterize_splats(pre.splats, camera.width, camera.height)
        return self.render_stream(stream, pre)

    def render_stream(self, stream, pre=None, crop_cache=None):
        self._check_no_cache(crop_cache)
        image, alpha = stream.blend_image(early_term=False)
        return FrameResult(
            backend=self.spec,
            image=image,
            alpha=alpha,
            et_ratio=stream.termination_ratio(DEFAULT_TERMINATION_ALPHA),
            n_fragments=len(stream),
            raw=stream,
        )

    def new_crop_cache(self):
        return None

    def _check_no_cache(self, crop_cache):
        if crop_cache is not None:
            raise ValueError(
                f"backend {self.spec!r} has no CROP cache to persist")


_REGISTRY = {}


def register_backend(spec, factory):
    """Register ``factory(spec, device, coherence="off", engine=None)
    -> backend`` under ``spec``."""
    if spec in _REGISTRY:
        raise ValueError(f"backend {spec!r} is already registered")
    # repro-lint: ok(R6): populated once at import time before workers exist; read-only afterwards
    _REGISTRY[spec] = factory


def available_backends():
    """Registered backend specs, sorted."""
    return sorted(_REGISTRY)


def backend_spec(spec_or_backend):
    """Normalise a backend spec string or backend instance to its spec.

    The single place spec strings come from: callers that branch on the
    spec (``"hw:"`` prefixes, cache keys, reports) use this instead of
    assuming they were handed a string.
    """
    if isinstance(spec_or_backend, str):
        return spec_or_backend
    spec = getattr(spec_or_backend, "spec", None)
    if isinstance(spec, str):
        return spec
    raise TypeError(
        "expected a backend spec string or a backend instance with a "
        f"'spec' attribute, got {type(spec_or_backend).__name__}")


def resolve_backend(spec_or_backend, device=None, device_name="orin",
                    coherence="off", engine=None):
    """Return a backend instance for a spec string *or* a ready instance.

    Backend instances (anything implementing :class:`RendererBackend`)
    pass through unchanged; strings go through :func:`create_backend`.
    """
    if not isinstance(spec_or_backend, str) and hasattr(
            spec_or_backend, "render_stream"):
        return spec_or_backend
    return create_backend(backend_spec(spec_or_backend), device=device,
                          device_name=device_name, coherence=coherence,
                          engine=engine)


def create_backend(spec, device=None, device_name="orin", coherence="off",
                   engine=None):
    """Instantiate the backend registered under ``spec``.

    ``device`` (a :class:`~repro.hwmodel.config.GPUConfig`) overrides the
    ``device_name`` preset.  ``coherence`` sets the backend's standalone
    cross-frame reuse mode (see :mod:`repro.render.coherence`) and
    ``engine`` the hardware pipeline's flush engine (``"batched"`` /
    ``"scalar"``, ``None`` = backend default); both are ignored by
    backends they don't apply to.
    """
    try:
        factory = _REGISTRY[spec]
    except KeyError:
        raise ValueError(
            f"unknown backend {spec!r}; available: {available_backends()}"
        ) from None
    if device is None:
        device = make_device(device_name)
    # Factories registered without an engine knob keep working: only pass
    # it when the caller set it.
    kwargs = {"coherence": coherence}
    if engine is not None:
        kwargs["engine"] = engine
    return factory(spec, device, **kwargs)


def _register_defaults():
    for variant in VARIANTS:
        register_backend(
            f"hw:{variant}",
            lambda spec, device, coherence="off", engine=None, v=variant:
                HardwareBackend(spec, v, device,
                                engine=engine or "batched",
                                coherence=coherence))
    register_backend(
        "cuda", lambda spec, device, coherence="off", engine=None:
            CudaBackend(spec, device, early_term=False))
    register_backend(
        "cuda+et", lambda spec, device, coherence="off", engine=None:
            CudaBackend(spec, device, early_term=True))
    register_backend(
        "reference", lambda spec, device, coherence="off", engine=None:
            ReferenceBackend(spec, device))


_register_defaults()
