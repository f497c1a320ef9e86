"""Contract: the stream alone picks the FrameIR engines or the oracles.

``rasterize_splats(ir="auto")`` attaches a FrameIR and every consumer
below — digestion (:meth:`QuadTable.from_ir`), the CUDA warp model and
the multipass model — runs its IR engine; ``ir="legacy"`` emits a bare
stream and every consumer runs its retained sort-based oracle.  No
consumer takes a knob of its own, so forbidding one family of engines
must leave the other family rendering the exact same frame records.
Sessions run ``strict`` so the degradation ladder cannot mask a call
into a forbidden engine.
"""

from __future__ import annotations

import pytest

from repro.engine.session import RenderSession
from repro.render.fragstream import QuadTable
from repro.swopt import multipass
from repro.swrender import warp_model

SCENE = "lego"
N_VIEWS = 2
BACKENDS = ("hw:het+qm", "cuda+et")

IR_ENGINES = ((QuadTable, "from_ir"),
              (warp_model, "_simulate_tile_warps_ir"),
              (multipass, "_multipass_workspace_ir"))

ORACLES = ((QuadTable, "from_stream"),
           (warp_model, "_simulate_tile_warps_legacy"),
           (multipass, "_multipass_workspace_legacy"))


def forbid(monkeypatch, engines):
    """Make every named engine raise if anything calls it."""
    for owner, name in engines:
        def boom(*_args, _name=name, **_kwargs):
            raise AssertionError(f"{_name} ran")

        monkeypatch.setattr(owner, name, classmethod(boom)
                            if isinstance(owner, type) else boom)


def records(backend, **knobs):
    session = RenderSession(SCENE, backend=backend, strict=True, **knobs)
    return [r.to_dict() for r in session.run(n_views=N_VIEWS).records]


@pytest.mark.parametrize("backend", BACKENDS)
def test_legacy_session_never_touches_the_ir_engines(backend, monkeypatch):
    default = records(backend)
    forbid(monkeypatch, IR_ENGINES)
    assert records(backend, ir="legacy") == default


@pytest.mark.parametrize("backend", BACKENDS)
def test_default_session_never_touches_the_oracles(backend, monkeypatch):
    forbid(monkeypatch, ORACLES)
    default = records(backend)
    monkeypatch.undo()
    assert default == records(backend, ir="legacy")
