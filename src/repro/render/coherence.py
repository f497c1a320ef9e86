"""FrameCoherence: cross-frame digestion state for trajectory rendering.

Orbit/trajectory frames are highly coherent: most scanlines of a frame are
*identical* to the previous frame's (same row intervals, same fragment
alphas), yet the digestion pipeline recomputed every per-frame structure —
pixel grouping, arrival-alpha chain, quad chunklets — from scratch.  This
module carries digestion state across :class:`~repro.engine.session.
RenderSession` frames and reuses it wherever the new frame's content
provably matches.

Granularity and exactness
-------------------------
The unit of reuse is the **scanline**.  The pixel-sorted digestion domain
is scanline-major (pixel id = ``y * width + x``), so every sorted-domain
cache — ``pix_sorted``, ``arrival_sorted``, ``alpha_eff_sorted``, the
pixel order — decomposes into contiguous per-scanline blocks, and the
arrival chain (:func:`~repro.render.fragstream.arrival_chain_sliced`)
computes each scanline's block as a pure function of that scanline's
fragment content.  Classification is **exact array comparison** of the
FrameIR row intervals and the fragment alpha bit patterns — never hashes,
which could collide and silently break bit-identity.  Three outcomes:

* **full hit** — every row and every alpha identical: the previous
  frame's caches (and, when the primitive boundaries also match, its
  FrameIR quad view) are adopted wholesale;
* **partial hit** — clean scanlines copy their cached blocks to their
  new offsets; dirty scanlines (changed, shifted or new rows) recompute
  through the same chain the full path uses, on the dirty subset only;
* **full recompute** — low coherence (or no usable previous frame): the
  always-available oracle runs, and its results are captured for the
  next frame.

All three produce bit-identical caches, pinned by the fuzz tests in
``tests/test_coherence.py``.

Draw replay and sealed states
-----------------------------
Each library state also owns a *draw memo*: the slim flush plan and the
cache-independent flush products (:mod:`repro.hwmodel.flushplan`) a
successful batched draw of the frame left behind, keyed by the
:class:`~repro.hwmodel.config.GPUConfig` fingerprint.  A full hit moves
the memo to the new state, so the draw replays only the cache-dependent
apply step; a partial hit or a recompute starts an empty memo.  When the
next frame begins, the previous state is *sealed*: it keeps only what a
hit reads and drops the rest of its stream (see :class:`_SealedStream`).
Replays are pinned by ``tests/test_draw_replay.py``.

The ``coherence`` knob
----------------------
``"auto"`` (default) enables the carrier, ``"off"`` disables it
entirely.  The carrier only ever serves streams carrying a FrameIR (the
stream's producer made that choice, see :mod:`repro.render.frameir`);
bare streams always take the full-recompute oracle.  Sessions running
parallel frames bypass the carrier — frames are bit-identical either
way.  The coherence and draw-replay suites pin every serving path
against the ``"off"`` oracle.
"""

from __future__ import annotations

from collections import OrderedDict
from time import perf_counter

import numpy as np

from repro import faults
from repro.knobs import check_mode
from repro.render.fragstream import arrival_chain_sliced
from repro.utils.arrays import segment_boundaries


def _ragged_expand(base, lens):
    """``concatenate([base[i] + arange(lens[i]) for i])`` without the loop."""
    if lens.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    total = int(lens.sum())
    offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
    return (np.arange(total, dtype=np.int64)
            + np.repeat(base.astype(np.int64) - offsets, lens))


def _exclusive_cumsum(values):
    out = np.empty(values.shape[0] + 1, dtype=np.int64)
    out[0] = 0
    np.cumsum(values, out=out[1:])
    return out


class _RowGroups:
    """Scanline-grouped view of a FrameIR's rows (lazy per-frame aux).

    ``order_rows`` sorts rows by scanline (stable, so rows of one scanline
    keep their emission order); ``row_counts``/``frag_counts`` are per
    scanline over the full height; ``frag_offsets`` are the scanline block
    offsets of the pixel-sorted domain (which is scanline-major).
    """

    def __init__(self, ir, height):
        row_y = ir.row_y
        self.order_rows = np.argsort(row_y, kind="stable")
        self.row_counts = np.bincount(row_y, minlength=height)
        self.lengths = (ir.row_xhi.astype(np.int64) - ir.row_xlo) + 1
        self.frag_counts = np.bincount(
            row_y, weights=self.lengths, minlength=height).astype(np.int64)
        self.row_offsets = _exclusive_cumsum(self.row_counts)
        self.frag_offsets = _exclusive_cumsum(self.frag_counts)


class _SealedStream:
    """What a library state keeps of its frame's stream once sealed.

    A hit reads the FrameIR rows and quad view (:meth:`FrameCoherence.
    _verify`, :meth:`~FrameCoherence.begin_frame`), the alphas, and the
    digestion caches of :attr:`FrameCoherence._FULL_HIT_KEYS` and
    :attr:`~FrameCoherence._FULL_HIT_FAMILIES`.  Everything else — the
    raw ``x``/``y``/``prim_ids`` columns, the draw-stage quad tables, the
    quad view's expanded per-quad columns — is dropped.
    """

    __slots__ = ("frameir", "alphas", "width", "height", "_cache")

    def __init__(self, stream, keys, families):
        self.frameir = stream.frameir.sealed()
        self.alphas = stream.alphas
        self.width = stream.width
        self.height = stream.height
        self._cache = {
            key: value for key, value in stream._cache.items()
            if key in keys or (isinstance(key, tuple) and key[0] in families)
        }

    def __len__(self):
        return self.alphas.shape[0]


class _FrameState:
    """One digested frame: the stream itself plus lazy coherence aux.

    ``draw_memo`` maps a :meth:`~repro.hwmodel.config.GPUConfig.
    fingerprint` to the ``(slim FlushPlan, FlushProducts)`` pair a
    successful batched draw of this frame stored (see :meth:`~repro.
    hwmodel.pipeline.GraphicsPipeline.draw`).
    """

    __slots__ = ("stream", "_rowgroups", "draw_memo")

    def __init__(self, stream):
        self.stream = stream
        self._rowgroups = None
        self.draw_memo = {}

    def rowgroups(self):
        if self._rowgroups is None:
            self._rowgroups = _RowGroups(self.stream.frameir,
                                         self.stream.height)
        return self._rowgroups

    def seal(self):
        """Reduce the stream to what a hit reads (idempotent)."""
        if not isinstance(self.stream, _SealedStream):
            self.stream = _SealedStream(
                self.stream, FrameCoherence._FULL_HIT_KEYS,
                FrameCoherence._FULL_HIT_FAMILIES)


class FrameCoherence:
    """Carrier of cross-frame digestion state (see module docstring).

    One carrier serves one serial frame sequence: call :meth:`begin_frame`
    with each new frame's stream *before* digestion starts, and the
    stream's lazy caches will consult the carrier automatically.
    """

    #: Fall back to a full recompute when clean scanlines cover less than
    #: this fraction of the new frame's fragments — below it, the
    #: classification and splice overhead outweighs the reuse (and both
    #: paths are bit-identical, so the fallback is free).
    MIN_CLEAN_FRACTION = 0.25

    #: Stream cache entries adopted wholesale on a full-frame hit (pure
    #: functions of the frame's fragment content).
    _FULL_HIT_KEYS = (
        "pixel_ids", "unpruned", "pixel_order", "pix_sorted", "pixel_starts",
        "scanline_bounds", "alpha_eff_sorted", "arrival_sorted",
        "arrival_alpha", "accumulated_alpha",
    )

    #: Tuple-keyed cache families adopted on a full-frame hit (threshold-
    #: keyed termination masks and rank structures — also pure functions
    #: of fragment content).  Quad tables are *not* adopted through the
    #: stream cache: the FrameIR quad view is shared instead (see
    #: :meth:`begin_frame`), so the table rebuilds its cheap wrapper
    #: against the new stream.
    _FULL_HIT_FAMILIES = (
        "et_survivor", "unterminated", "het_blended",
        "pixel_ranks_sorted", "pixel_ranks",
    )

    def __init__(self, mode="auto", max_states=8):
        self.mode = check_mode("coherence", mode)
        self.max_states = int(max_states)
        #: Library of digested frames keyed by content hash, LRU-bounded.
        #: Trajectory serving loops over a fixed set of viewpoints, so a
        #: revisited frame keys straight back to its digested state even
        #: when other frames rendered in between.
        self._states = OrderedDict()
        self._pows = None
        self._prev = None
        self._current = None
        self._key = None
        self._hit = None
        self._full_hit = False
        self._acc_patch = None
        self._partial_state = None
        #: Outcome counters (frames served per path), for observability.
        self.stats = {"full_hits": 0, "partial_hits": 0, "full_recomputes": 0}

    def _content_key(self, stream):
        """Position-weighted 64-bit content hash of a frame's row structure
        and alpha bits.  The hash only *selects* a library candidate —
        :meth:`_verify` then compares the arrays exactly before any reuse,
        so a collision can cost a missed hit, never bit-identity.
        """
        ir = stream.frameir
        n = len(stream)
        pows = self._pows
        if pows is None or pows.shape[0] < max(n, ir.n_rows):
            size = max(n, ir.n_rows, 1 << 16)
            pows = np.multiply.accumulate(
                np.full(size, np.uint64(0x9E3779B97F4A7C15)))
            self._pows = pows
        bits = stream.alphas.view(np.uint32).astype(np.uint64)
        h_alpha = int((bits * pows[:n]).sum())
        mix = (ir.row_y.astype(np.uint64)
               + (ir.row_xlo.astype(np.uint64) << np.uint64(16))
               + (ir.row_xhi.astype(np.uint64) << np.uint64(32))
               + ir.row_prim.astype(np.uint64) * np.uint64(0x100000001B3))
        h_rows = int((mix * pows[:ir.n_rows]).sum())
        return (stream.width, stream.height, n, ir.n_rows, h_alpha, h_rows)

    @staticmethod
    def _verify(stream, cand):
        """Exact equality of two equal-sized frames' content: row arrays
        (including primitive boundaries) and raw alpha bit patterns.
        Identical intervals imply identical fragment runs (``row_fstart``
        is the running sum of interval lengths) and identical per-fragment
        ``(x, y)``, so equality here makes every digestion cache equal."""
        ir, pir = stream.frameir, cand.frameir
        return (np.array_equal(ir.row_y, pir.row_y)
                and np.array_equal(ir.row_xlo, pir.row_xlo)
                and np.array_equal(ir.row_xhi, pir.row_xhi)
                and np.array_equal(ir.row_prim, pir.row_prim)
                and np.array_equal(stream.alphas.view(np.uint32),
                                   cand.alphas.view(np.uint32)))

    def snapshot(self):
        """Rewindable copy of the carrier's cross-frame state.

        Shallow per-entry copies are sound: a digested :class:`_FrameState`
        is rewritten exactly once after capture — sealed at the next
        :meth:`begin_frame`, which drops data without changing what a hit
        reads — and its draw memo only gains complete entries, each a pure
        function of the state's content and a config.  So only the
        container structures and the per-frame cursors need copying.  Used
        by the self-healing frame executor to rewind the carrier after a
        failed attempt.
        """
        return (list(self._states.items()), self._prev, self._current,
                self._key, self._hit, self._full_hit, self._acc_patch,
                self._partial_state, dict(self.stats))

    def restore(self, state):
        """Restore a :meth:`snapshot` (library, cursors and counters)."""
        (items, self._prev, self._current, self._key, self._hit,
         self._full_hit, self._acc_patch, self._partial_state,
         stats) = state
        self._states = OrderedDict(items)
        self.stats = dict(stats)

    # ------------------------------------------------------------------
    # Frame lifecycle
    # ------------------------------------------------------------------

    def begin_frame(self, stream):
        """Attach to a new frame's stream before digestion starts.

        Hashes the frame's content and classifies it against the state
        library eagerly, so a full hit can share the matched frame's
        FrameIR quad view *before* the quad table is built; the
        per-scanline classification of partial hits is deferred to the
        first arrival-cache request.
        """
        if self.mode == "off":
            return
        if self._prev is not None:
            # The previous frame is done: keep only what a hit reads.
            self._prev.seal()
        if stream.frameir is None:
            return
        t0 = perf_counter()
        # Classification runs *before* the backend's render call, whose
        # substage-delta accounting would otherwise swallow it; stash the
        # pre-classification snapshot so the renderer attributes this
        # frame's classification cost to its digest breakdown.
        stream._substage_base = dict(stream.substage_ms)
        stream.coherence = self
        self._current = stream
        self._full_hit = False
        self._hit = None
        self._acc_patch = None
        self._partial_state = None
        self._key = self._content_key(stream)
        cand = self._states.get(self._key)
        if faults.ENABLED and faults.checkpoint("coherence.verify") is not None:
            # Injected corruption of the carried state: exact verification
            # would reject a poisoned candidate, so model the detection as
            # a forced miss — the frame takes the always-available full
            # recompute path, which is bit-identical by construction.
            cand = None
        if cand is not None and self._verify(stream, cand.stream):
            self._full_hit = True
            self._hit = cand
            self._states.move_to_end(self._key)
            # Verified-identical content means the chunklet/quad structure
            # is identical too: share the built quad view.
            pir = cand.stream.frameir
            if pir._quads is not None:
                stream.frameir._quads = pir._quads
        stream._add_substage("pixel-group", t0)

    def serve_arrival(self, stream):
        """Try to install the sorted-domain arrival caches from carried
        state; returns True when served (bit-identical to a recompute)."""
        if stream is not self._current:
            return False
        t0 = perf_counter()
        if self._full_hit:
            self._install_full(stream)
            self.stats["full_hits"] += 1
            self.capture(stream)
            stream._add_substage("arrival-alpha", t0)
            return True
        if self._prev is not None and self._serve_partial(stream):
            self.stats["partial_hits"] += 1
            self.capture(stream)
            stream._add_substage("arrival-alpha", t0)
            return True
        if self._states:
            self.stats["full_recomputes"] += 1
        return False

    def serve_accumulated(self, stream):
        """Patch the per-pixel accumulated-alpha map from carried state."""
        patch = self._acc_patch
        if patch is None or self._prev is None \
                or stream is not self._prev.stream:
            return False
        kind, prev_acc, payload = patch
        if kind == "full":
            stream._cache["accumulated_alpha"] = prev_acc
        else:
            clean_y, dirty_y, dirty_slots = payload
            width = stream.width
            acc = np.zeros(stream.n_pixels, dtype=np.float64)
            cols = np.arange(width, dtype=np.int64)
            if clean_y.shape[0]:
                idx = (clean_y[:, None] * width + cols).ravel()
                acc[idx] = prev_acc[idx]
            if dirty_y.shape[0]:
                pix = stream._cache["pix_sorted"][dirty_slots]
                weights = ((1.0 - stream._cache["arrival_sorted"][dirty_slots])
                           * stream._cache["alpha_eff_sorted"][dirty_slots]
                           .astype(np.float64))
                part = np.bincount(pix, weights=weights,
                                   minlength=stream.n_pixels)
                idx = (dirty_y[:, None] * width + cols).ravel()
                acc[idx] = part[idx]
            acc.flags.writeable = False
            stream._cache["accumulated_alpha"] = acc
        self._acc_patch = None
        return True

    def capture(self, stream):
        """Adopt the just-digested stream as the coherence reference."""
        if self.mode == "off" or stream is not self._current:
            return
        if self._partial_state is not None \
                and self._partial_state.stream is stream:
            # The partial serve already built this frame's scanline aux.
            state = self._partial_state
        else:
            state = _FrameState(stream)
        if self._full_hit and self._hit is not None:
            # Content-identical frame: the scanline aux and the draw memo
            # carry over (the memo as a copy, so entries this frame adds
            # never reach the replaced state a rewind could restore).
            state._rowgroups = self._hit._rowgroups
            state.draw_memo = dict(self._hit.draw_memo)
            prev_acc = self._hit.stream._cache.get("accumulated_alpha")
            if prev_acc is not None:
                prev_acc.flags.writeable = False
                self._acc_patch = ("full", prev_acc, None)
        self._prev = state
        self._states[self._key] = state
        self._states.move_to_end(self._key)
        while len(self._states) > self.max_states:
            self._states.popitem(last=False)
        for key in ("pixel_order", "pix_sorted", "pixel_starts",
                    "alpha_eff_sorted", "arrival_sorted"):
            arr = stream._cache.get(key)
            if arr is not None:
                arr.flags.writeable = False

    def draw_memo(self, stream):
        """The draw memo of ``stream``'s captured state, or ``None``.

        Only the frame captured last can be drawn through the carrier, and
        its state carries a memo only forward from a verified full hit —
        a key collision, a partial hit or a recompute starts empty.
        """
        state = self._prev
        if state is None or state.stream is not stream:
            return None
        return state.draw_memo

    # ------------------------------------------------------------------
    # Serving paths
    # ------------------------------------------------------------------

    def _install_full(self, stream):
        ps = self._hit.stream
        for key in self._FULL_HIT_KEYS:
            value = ps._cache.get(key)
            if value is None:
                continue
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            stream._cache[key] = value
        for key, value in ps._cache.items():
            if isinstance(key, tuple) and key[0] in self._FULL_HIT_FAMILIES:
                if isinstance(value, np.ndarray):
                    value.flags.writeable = False
                stream._cache[key] = value

    def _serve_partial(self, stream):
        """Per-scanline classification, splice and dirty-subset recompute."""
        n = len(stream)
        prev = self._prev
        ps = prev.stream
        ir, pir = stream.frameir, ps.frameir
        if n == 0 or len(ps) == 0:
            return False
        height, width = stream.height, stream.width
        state = _FrameState(stream)
        new = state.rowgroups()
        old = prev.rowgroups()

        # --- classify scanlines: candidates have matching row and
        # fragment counts; clean ones also match every interval and every
        # alpha bit (positional compares — counts equal means the
        # y-grouped selections align).
        cand_y = np.flatnonzero((new.row_counts == old.row_counts)
                                & (new.frag_counts == old.frag_counts)
                                & (new.row_counts > 0))
        clean_frags = int(new.frag_counts[cand_y].sum())
        if clean_frags < self.MIN_CLEAN_FRACTION * n:
            return False
        r_old = old.order_rows[
            _ragged_expand(old.row_offsets[cand_y], old.row_counts[cand_y])]
        r_new = new.order_rows[
            _ragged_expand(new.row_offsets[cand_y], new.row_counts[cand_y])]
        eq_rows = ((pir.row_xlo[r_old] == ir.row_xlo[r_new])
                   & (pir.row_xhi[r_old] == ir.row_xhi[r_new]))
        row_bounds = _exclusive_cumsum(new.row_counts[cand_y])
        rows_ok = np.logical_and.reduceat(eq_rows, row_bounds[:-1])
        ok_y = cand_y[rows_ok]
        r_old2 = old.order_rows[
            _ragged_expand(old.row_offsets[ok_y], old.row_counts[ok_y])]
        r_new2 = new.order_rows[
            _ragged_expand(new.row_offsets[ok_y], new.row_counts[ok_y])]
        lens2 = new.lengths[r_new2]
        e_old = _ragged_expand(pir.row_fstart[r_old2], lens2)
        e_new = _ragged_expand(ir.row_fstart[r_new2], lens2)
        eq_alpha = (ps.alphas.view(np.uint32)[e_old]
                    == stream.alphas.view(np.uint32)[e_new])
        frag_bounds = _exclusive_cumsum(new.frag_counts[ok_y])
        alpha_ok = np.logical_and.reduceat(eq_alpha, frag_bounds[:-1])
        clean_y = ok_y[alpha_ok]
        clean_frags = int(new.frag_counts[clean_y].sum())
        if clean_frags < self.MIN_CLEAN_FRACTION * n:
            return False
        clean_mask = np.zeros(height, dtype=bool)
        clean_mask[clean_y] = True
        dirty_y = np.flatnonzero((new.row_counts > 0) & ~clean_mask)

        # --- full-frame pixel grouping (identical to the full recompute:
        # same counting pass, same arrays).
        counts = stream._ir_pixel_counts()
        nz = np.flatnonzero(counts)
        seg_counts = counts[nz]
        pix_sorted = np.repeat(nz, seg_counts)
        starts = np.concatenate(([0], np.cumsum(seg_counts)[:-1]))

        order = np.empty(n, dtype=np.int64)
        alpha_eff = np.empty(n, dtype=np.float32)
        arrival = np.empty(n, dtype=np.float64)

        # --- clean scanlines: copy cached blocks to their new offsets.
        # The sorted domain is scanline-major, so a run of consecutive
        # copyable scanlines (clean, or empty on both sides) is one
        # contiguous block in *both* frames — each run is a slice copy,
        # not a gather.  Row alignment already paired every ok row's old
        # and new emission runs (``e_old``/``e_new``), so a scatter of
        # one into the other translates old emission indices to new ones,
        # re-targeting the pixel order — shifted rows included.
        trans = np.empty(len(ps), dtype=np.int64)
        trans[e_old] = e_new
        prev_arrival = ps._cache["arrival_sorted"]
        prev_alpha = ps._cache["alpha_eff_sorted"]
        prev_order = ps._cache["pixel_order"]
        copyable = clean_mask | ((new.row_counts == 0)
                                 & (old.row_counts == 0))
        edges = np.diff(copyable.astype(np.int8))
        run_lo = np.flatnonzero(edges == 1) + 1
        run_hi = np.flatnonzero(edges == -1) + 1
        if copyable[0]:
            run_lo = np.concatenate(([0], run_lo))
        if copyable[-1]:
            run_hi = np.concatenate((run_hi, [height]))
        for ya, yb in zip(run_lo, run_hi):
            s0, s1 = old.frag_offsets[ya], old.frag_offsets[yb]
            d0, d1 = new.frag_offsets[ya], new.frag_offsets[yb]
            arrival[d0:d1] = prev_arrival[s0:s1]
            alpha_eff[d0:d1] = prev_alpha[s0:s1]
            order[d0:d1] = trans[prev_order[s0:s1]]

        # --- dirty scanlines: the same stable grouping and sliced arrival
        # chain the full recompute runs, restricted to the dirty subset
        # (both are per-scanline computations, so the blocks come out
        # bit-identical).
        dirty_slots = np.empty(0, dtype=np.int64)
        if dirty_y.shape[0]:
            dirty_row_mask = np.zeros(height, dtype=bool)
            dirty_row_mask[dirty_y] = True
            ridx = np.flatnonzero(dirty_row_mask[ir.row_y])
            emit = _ragged_expand(ir.row_fstart[ridx], new.lengths[ridx])
            ys = stream.y[emit]
            xs = stream.x[emit]
            if stream.n_pixels <= 1 << 16:
                kdtype = np.uint16
            elif stream.n_pixels <= 1 << 32:
                kdtype = np.uint32
            else:
                kdtype = np.int64
            keys = ys.astype(kdtype) * kdtype(width) + xs.astype(kdtype)
            sub_order = np.argsort(keys, kind="stable")
            emit_sorted = emit[sub_order]
            sub_pix = keys[sub_order].astype(np.int64)
            sub_starts = segment_boundaries(sub_pix)
            sub_alpha = np.where(stream.unpruned[emit_sorted],
                                 stream.alphas[emit_sorted], np.float32(0.0))
            seg_y = sub_pix[sub_starts] // width
            first = np.empty(seg_y.shape, dtype=bool)
            first[0] = True
            np.not_equal(seg_y[1:], seg_y[:-1], out=first[1:])
            sub_bounds = np.concatenate((sub_starts[first],
                                         [emit.shape[0]]))
            sub_arrival = arrival_chain_sliced(sub_alpha, sub_starts,
                                               sub_bounds)
            dirty_slots = _ragged_expand(new.frag_offsets[dirty_y],
                                         new.frag_counts[dirty_y])
            arrival[dirty_slots] = sub_arrival
            alpha_eff[dirty_slots] = sub_alpha
            order[dirty_slots] = emit_sorted

        stream._cache["pixel_order"] = order
        stream._cache["pix_sorted"] = pix_sorted
        stream._cache["pixel_starts"] = starts
        stream._cache["alpha_eff_sorted"] = alpha_eff
        stream._cache["arrival_sorted"] = arrival
        prev_acc = ps._cache.get("accumulated_alpha")
        if prev_acc is not None:
            prev_acc.flags.writeable = False
            self._acc_patch = ("partial", prev_acc,
                               (clean_y, dirty_y, dirty_slots))
        self._partial_state = state
        return True
