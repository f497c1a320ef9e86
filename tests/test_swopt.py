"""Software optimisations: in-shader blending and multi-pass ET."""

import pytest

from repro.hwmodel.config import jetson_agx_orin
from repro.swopt.inshader import InShaderModel, inshader_comparison
from repro.swopt.multipass import multipass_sweep, run_multipass
from tests.test_stream_decides import IR_ENGINES, ORACLES, forbid


class TestInShader:
    def test_interlock_slower_than_rop(self, deep_stream):
        cmp = inshader_comparison(deep_stream, jetson_agx_orin())
        assert cmp["interlock_normalized"] > 1.5

    def test_no_interlock_close_or_faster(self, deep_stream):
        """The paper's point: the cost is the lock, not raster operations —
        the unguarded path lands close to the ROP path, the guarded one
        several times above it."""
        cmp = inshader_comparison(deep_stream, jetson_agx_orin())
        assert cmp["no_interlock_normalized"] < 1.6
        assert (cmp["no_interlock_normalized"]
                < 0.5 * cmp["interlock_normalized"])

    def test_normalisation_consistent(self, deep_stream):
        cmp = inshader_comparison(deep_stream, jetson_agx_orin())
        assert cmp["interlock_normalized"] == pytest.approx(
            cmp["interlock_cycles"] / cmp["rop_cycles"])

    def test_custom_model(self, small_stream):
        cheap = InShaderModel(lock_overhead_cycles=1.0)
        pricey = InShaderModel(lock_overhead_cycles=100.0)
        a = inshader_comparison(small_stream, jetson_agx_orin(), cheap)
        b = inshader_comparison(small_stream, jetson_agx_orin(), pricey)
        assert a["interlock_cycles"] < b["interlock_cycles"]

    def test_type_check(self):
        with pytest.raises(TypeError):
            inshader_comparison("stream", jetson_agx_orin())


class TestMultipass:
    def test_single_pass_no_stencil_draws(self, deep_stream):
        result = run_multipass(deep_stream, 1)
        assert result.n_passes == 1
        assert result.stencil_cycles == []
        assert len(result.batch_cycles) == 1

    def test_pass_count_structure(self, deep_stream):
        result = run_multipass(deep_stream, 4)
        assert len(result.batch_cycles) == 4
        assert len(result.stencil_cycles) == 3

    def test_more_passes_fewer_fragments(self, deep_stream):
        one = run_multipass(deep_stream, 1)
        many = run_multipass(deep_stream, 8)
        assert many.fragments_blended <= one.fragments_blended

    def test_fragments_bounded_by_perfect_et(self, deep_stream):
        """Pass-granular stencil ET can never beat perfect fragment ET."""
        many = run_multipass(deep_stream, 16)
        perfect = int(deep_stream.et_survivor_mask().sum())
        assert many.fragments_blended >= perfect

    def test_single_pass_equals_baseline_fragments(self, deep_stream):
        one = run_multipass(deep_stream, 1)
        assert one.fragments_blended == int(deep_stream.unpruned.sum())

    def test_sweep_normalised(self, deep_stream):
        sweep = multipass_sweep(deep_stream, [1, 2, 5])
        assert sweep[1] == pytest.approx(1.0)

    def test_overhead_eventually_wins(self, small_stream):
        """A shallow scene must lose at high pass counts."""
        sweep = multipass_sweep(small_stream, [1, 30])
        assert sweep[30] < 1.0

    def test_rejects_bad_pass_count(self, small_stream):
        with pytest.raises(ValueError):
            run_multipass(small_stream, 0)

    def test_type_check(self):
        with pytest.raises(TypeError):
            run_multipass("stream", 2)


class TestMultipassStreamModes:
    """Multipass under both rasteriser modes: FrameIR-carrying streams
    build ``_multipass_workspace_ir``, bare streams the retained
    ``_multipass_workspace_legacy`` oracle — with identical results."""

    @pytest.mark.parametrize("n_passes", (1, 4, 16))
    def test_stream_picks_engine_and_matches(self, ir_deep_stream,
                                             deep_stream, ir, n_passes,
                                             monkeypatch):
        forbid(monkeypatch, IR_ENGINES if ir == "legacy" else ORACLES)
        result = run_multipass(ir_deep_stream, n_passes)
        monkeypatch.undo()
        ref = run_multipass(deep_stream, n_passes)
        assert vars(result) == vars(ref)
        assert len(result.stencil_cycles) == n_passes - 1
        perfect = int(ir_deep_stream.et_survivor_mask().sum())
        assert perfect <= result.fragments_blended <= int(
            ir_deep_stream.unpruned.sum())

    def test_sweep_matches(self, ir_small_stream, small_stream, ir,
                           monkeypatch):
        forbid(monkeypatch, IR_ENGINES if ir == "legacy" else ORACLES)
        sweep = multipass_sweep(ir_small_stream, [1, 2, 30])
        monkeypatch.undo()
        assert sweep == multipass_sweep(small_stream, [1, 2, 30])
        assert sweep[1] == pytest.approx(1.0)
        assert sweep[30] < 1.0
