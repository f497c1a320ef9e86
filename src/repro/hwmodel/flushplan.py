"""Batched flush-plan engine: plan a draw's flush schedule, execute it at once.

The scalar pipeline walks ~tens of thousands of TC-bin flushes per draw,
paying ~30 µs of Python per flush for arithmetic that is tiny per flush but
identical in shape across flushes.  The TC/TGC bin dynamics, however, are
*deterministic* given the insertion sequence — which the
:class:`~repro.hwmodel.pipeline.DrawWorkload` fixes up front — so the whole
schedule can be computed first and the per-flush math vectorised after.

The engine runs in two phases:

:func:`build_flush_plan`
    Replays the bin dynamics at *range* granularity (every inserted group
    is a contiguous quad-table row slice, and bin overflow only splits
    ranges into subranges) via :class:`~repro.hwmodel.tc.RangeTileCoalescer`
    — and, for QM variants, :meth:`~repro.hwmodel.tgc.TileGridCoalescer.
    plan_groups` — producing a :class:`FlushPlan`: flat per-flush
    ``tile``/``reason`` arrays plus row-segment offsets.  The (prim,
    tile) and (prim, grid) ranges it iterates come from the workload,
    which reads them straight off the stream's
    :class:`~repro.render.frameir.FrameIR` when one is present (chunklet
    runs of the raster structure) instead of per-quad reductions.

:func:`prepare_flush_plan` and :func:`apply_flush_products`
    Run the ZROP termination test, QRU pair planning, SM shading, PROP and
    CROP accounting over *all* flushes at once with ``reduceat``/``bincount``
    segment ops.  Exactness is preserved by two rules:

    * every floating-point accumulator receives its per-flush contributions
      through :meth:`~repro.hwmodel.stats.UnitStats.add_sequence`, i.e. in
      the same order and with the same sequential rounding as the scalar
      loop (skipped scalar calls become exact ``+0.0`` no-ops);
    * the exact-LRU z- and CROP-cache traffic is replayed over the
      deduplicated per-flush tag streams through the *real* cache objects
      (group-granular for the stencil cache), so hit/miss counts — and the
      warm-cache state carried across draws — stay bit-identical.

    The golden flush-engine tests enforce cycle-, stat- and trace-exact
    equivalence against the scalar path on all four hardware variants.

    Execution splits in two: :func:`prepare_flush_plan` computes the
    cache-independent :class:`FlushProducts` (survivors, QRU pairs,
    CROP-visible quads and fragments, deduplicated CROP line tags, PROP
    work) and :func:`apply_flush_products` replays the cache traffic and
    makes every accumulation.  Plan and products are pure functions of the
    quad table and the config, so a draw of content the coherence carrier
    verified identical replays a memoized pair through the apply step
    alone (see :class:`~repro.hwmodel.pipeline.GraphicsPipeline`).
"""

from __future__ import annotations

import numpy as np

from repro import faults
from repro.hwmodel.crop import quad_line_tag_pairs
from repro.hwmodel.prop import plan_merges_segmented
from repro.hwmodel.tc import RangeTileCoalescer, TileCoalescer
from repro.hwmodel.tgc import TileGridCoalescer
from repro.hwmodel.units import popcount4

#: Quad positions per screen tile (8x8), the QRU pairing key space.
N_QUAD_POSITIONS = 64


class FlushPlan:
    """The complete flush schedule of one draw, as flat arrays.

    Attributes
    ----------
    tile:
        int64 ``(n_flushes,)`` — flushed screen tile per flush.
    reason:
        list of flush-cause strings (:class:`~repro.hwmodel.tc.
        TileCoalescer` constants), parallel to ``tile``.
    rows:
        int64 ``(n_rows,)`` — concatenated quad-table rows of every flush,
        in flush order (arrival order within each flush); ``None`` on a
        :meth:`slim` plan.
    row_splits:
        int64 ``(n_flushes + 1,)`` — offsets of each flush in ``rows``;
        ``None`` on a :meth:`slim` plan.
    raster_portions, raster_tiles, raster_quads:
        Rasteriser work totals (primitive portions, raster tiles, quads).
    tc_flush_counts, tgc_flush_counts:
        Flush-cause counters of the TC pass and (for QM+TGC draws) the TGC
        pass; ``tgc_flush_counts`` is ``None`` otherwise.
    """

    __slots__ = ("tile", "reason", "rows", "row_splits", "raster_portions",
                 "raster_tiles", "raster_quads", "tc_flush_counts",
                 "tgc_flush_counts", "quads_inserted")

    def __init__(self, tile, reason, rows, row_splits, raster_portions,
                 raster_tiles, raster_quads, tc_flush_counts,
                 tgc_flush_counts, quads_inserted):
        self.tile = tile
        self.reason = reason
        self.rows = rows
        self.row_splits = row_splits
        self.raster_portions = int(raster_portions)
        self.raster_tiles = int(raster_tiles)
        self.raster_quads = int(raster_quads)
        self.tc_flush_counts = tc_flush_counts
        self.tgc_flush_counts = tgc_flush_counts
        self.quads_inserted = int(quads_inserted)

    @property
    def n_flushes(self):
        return self.tile.shape[0]

    @property
    def n_rows(self):
        return None if self.rows is None else self.rows.shape[0]

    def slim(self):
        """A copy without ``rows``/``row_splits``, its ``tile`` read-only.

        Keeps what :func:`apply_flush_products` and
        :func:`apply_flush_counts` read — flush tiles and reasons, raster
        totals, flush-cause counters — and drops the row arrays only
        :func:`prepare_flush_plan` needs.
        """
        tile = self.tile.view()
        tile.flags.writeable = False
        return FlushPlan(tile, tuple(self.reason), None, None,
                         self.raster_portions, self.raster_tiles,
                         self.raster_quads, self.tc_flush_counts,
                         self.tgc_flush_counts, self.quads_inserted)

    def __repr__(self):
        return (f"FlushPlan(flushes={self.n_flushes}, rows={self.n_rows}, "
                f"tgc={'on' if self.tgc_flush_counts is not None else 'off'})")


def _expand_segments(seg_starts, seg_ends):
    """Concatenate ``arange(s, e)`` for every segment, vectorised."""
    starts = np.asarray(seg_starts, dtype=np.int64)
    ends = np.asarray(seg_ends, dtype=np.int64)
    lengths = ends - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    offsets = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(lengths)))
    rows = (np.arange(total, dtype=np.int64)
            + np.repeat(starts - offsets[:-1], lengths))
    return rows, offsets


def flushplan_checkpoint():
    """The ``flushplan`` fault-injection point, passed once per draw."""
    if faults.ENABLED:
        rule = faults.checkpoint("flushplan")
        if rule is not None:
            # A corrupted plan would silently skew every downstream cycle
            # count; the scalar flush engine is the recovery path, so
            # model the corruption as detected here.
            faults.corrupt_detected("flushplan")


def build_flush_plan(workload, config):
    """Plan the entire flush schedule of ``workload`` under ``config``.

    Follows the exact group-insertion sequence of the scalar pipeline —
    draw order, or TGC grid-group order for QM variants — through the
    range-level coalescer, so the resulting schedule is flush-for-flush
    identical to what :class:`~repro.hwmodel.tc.TileCoalescer` would emit.
    """
    flushplan_checkpoint()
    tc = RangeTileCoalescer(config.n_tc_bins, config.tc_bin_quads,
                            config.tc_timeout_quads)
    tgc_counts = None
    if config.enable_qm and config.qm_use_tgc:
        tgc = TileGridCoalescer(config.n_tgc_bins, config.tgc_bin_prims)
        group_tile = workload.group_tile
        group_starts = workload.group_starts
        group_ends = workload.group_ends
        group_n_rtiles = workload.group_n_rtiles
        group_n_quads = workload.group_n_quads
        portions = 0
        selections = []
        for grid_id, prims, _reason in tgc.plan_groups(workload.pair_grid,
                                                       workload.pair_prim):
            sel, n_portions = workload.select_grid_groups(grid_id, prims)
            if not sel.size:
                continue
            portions += n_portions
            selections.append(sel)
        # TGC flushes only append to the TC insertion sequence, so the
        # whole grid-group schedule concatenates into one planning pass.
        sel_all = (np.concatenate(selections) if selections
                   else np.empty(0, dtype=np.int64))
        raster_tiles = int(group_n_rtiles[sel_all].sum())
        raster_quads = int(group_n_quads[sel_all].sum())
        tc.plan_groups(group_tile[sel_all], group_starts[sel_all],
                       group_ends[sel_all])
        tgc_counts = dict(tgc.flush_counts)
    else:
        portions = len(workload.prim_group_ranges)
        raster_tiles = int(workload.group_n_rtiles.sum())
        raster_quads = int(workload.group_n_quads.sum())
        tc.plan_groups(workload.group_tile, workload.group_starts,
                       workload.group_ends)
    tc.drain()

    rows, seg_offsets = _expand_segments(tc.seg_starts, tc.seg_ends)
    flush_seg_bounds = np.asarray(tc.flush_seg_bounds, dtype=np.int64)
    row_splits = seg_offsets[flush_seg_bounds]
    return FlushPlan(
        tile=np.asarray(tc.flush_tile, dtype=np.int64),
        reason=tc.flush_reason,
        rows=rows,
        row_splits=row_splits,
        raster_portions=portions,
        raster_tiles=raster_tiles,
        raster_quads=raster_quads,
        tc_flush_counts=dict(tc.flush_counts),
        tgc_flush_counts=tgc_counts,
        quads_inserted=tc.quads_inserted,
    )


class FlushProducts:
    """The cache-independent per-flush products of one draw's flush plan.

    Everything :func:`apply_flush_products` needs that does not depend on
    cache state: a pure function of the plan, the workload's quad table
    and the config, so two draws of identical content under an identical
    config prepare identical products.  Per-flush arrays are int64
    ``(n_flushes,)`` unless noted below; every array is read-only.

    Attributes
    ----------
    width:
        Framebuffer width (the ZROP stencil-line layout).
    n_flush, n_surv:
        Quads flushed, and quads surviving the ZROP termination test
        (equal to ``n_flush`` without HET).
    pairs:
        QRU merge pairs (zeros without QM).
    n_crop, n_frags:
        Quads and fragments reaching the CROP.
    crop_tags, crop_tag_splits:
        Per-flush first-occurrence-unique CROP line tags, concatenated in
        flush order, and the int64 ``(n_flushes + 1,)`` offsets of each
        flush's tags.
    prop_items, prop_cycles:
        PROP item total and float64 per-flush busy cycles.
    """

    __slots__ = ("width", "n_flush", "n_surv", "pairs", "n_crop", "n_frags",
                 "crop_tags", "crop_tag_splits", "prop_items", "prop_cycles")

    def __init__(self, width, n_flush, n_surv, pairs, n_crop, n_frags,
                 crop_tags, crop_tag_splits, prop_items, prop_cycles):
        self.width = int(width)
        self.prop_items = int(prop_items)
        arrays = dict(n_flush=n_flush, n_surv=n_surv, pairs=pairs,
                      n_crop=n_crop, n_frags=n_frags, crop_tags=crop_tags,
                      crop_tag_splits=crop_tag_splits,
                      prop_cycles=prop_cycles)
        for name, value in arrays.items():
            value.flags.writeable = False
            setattr(self, name, value)


def prepare_flush_plan(plan, workload, config):
    """Compute the cache-independent :class:`FlushProducts` of ``plan``.

    Survivors of the ZROP termination test, QRU pairs, CROP-visible quads,
    fragments and deduplicated line tags, and PROP work are all fixed by
    the quad table; only the z- and CROP-cache traffic depends on cache
    state, and :func:`apply_flush_products` replays that.  Returns
    ``None`` for a plan without flushes.
    """
    n_flushes = plan.n_flushes
    if n_flushes == 0:
        return None
    cfg = config
    quads = workload.quads
    rows = plan.rows
    n_flush = np.diff(plan.row_splits)
    flush_of_row = np.repeat(np.arange(n_flushes, dtype=np.int64), n_flush)

    # ZROP termination test (HET): fully-terminated quads are discarded
    # before shading.
    if cfg.enable_het:
        surviving = quads.mask_unterminated[rows] != 0
        surv_rows = rows[surviving]
        surv_flush = flush_of_row[surviving]
        n_surv = np.bincount(surv_flush, minlength=n_flushes)
        blend_masks = quads.mask_et[surv_rows]
    else:
        surv_rows = rows
        surv_flush = flush_of_row
        n_surv = n_flush
        blend_masks = quads.mask_unpruned[surv_rows]

    # QRU pair planning.
    if cfg.enable_qm:
        merge = plan_merges_segmented(surv_flush, quads.qpos[surv_rows],
                                      n_flushes, N_QUAD_POSITIONS)
        pairs_f = merge.pairs_per_segment
        # Post-merge output stream, in the scalar per-flush order: each
        # flush's merge pairs (position-major) first, then its singles
        # (arrival order).
        singles_f = np.bincount(surv_flush[merge.singles],
                                minlength=n_flushes)
        out_counts = pairs_f + singles_f
        zero = np.zeros(1, dtype=np.int64)
        out_splits = np.concatenate(
            (zero, np.cumsum(out_counts))).astype(np.int64)
        pair_offsets = np.concatenate((zero, np.cumsum(pairs_f)))[:-1]
        single_offsets = np.concatenate((zero, np.cumsum(singles_f)))[:-1]
        f_pair = surv_flush[merge.first]
        f_single = surv_flush[merge.singles]
        pair_local = (np.arange(merge.n_pairs, dtype=np.int64)
                      - pair_offsets[f_pair])
        single_local = (np.arange(merge.singles.shape[0], dtype=np.int64)
                        - single_offsets[f_single])
        n_out = int(out_counts.sum())
        pair_pos = out_splits[f_pair] + pair_local
        single_pos = out_splits[f_single] + pairs_f[f_single] + single_local
        # One source permutation drives the whole out-stream: scatter the
        # survivor indices once, then every output column is a single
        # gather through it (a pair record carries its first member's
        # row; its mask ORs in the second's).
        out_src = np.empty(n_out, dtype=np.int64)
        out_src[pair_pos] = merge.first
        out_src[single_pos] = merge.singles
        out_rows = surv_rows[out_src]
        out_masks = blend_masks[out_src]
        out_masks[pair_pos] |= blend_masks[merge.second]
        out_flush = np.repeat(np.arange(n_flushes, dtype=np.int64),
                              out_counts)
    else:
        pairs_f = np.zeros(n_flushes, dtype=np.int64)
        out_rows = surv_rows
        out_masks = blend_masks
        out_flush = surv_flush

    # CROP-visible quads and fragments.
    live = out_masks != 0
    live_flush = out_flush[live]
    n_crop = np.bincount(live_flush, minlength=n_flushes)
    frag_counts = np.bincount(live_flush,
                              weights=popcount4(out_masks[live]),
                              minlength=n_flushes).astype(np.int64)

    # PROP: dispatch toward the SMs plus the ordered return into the CROP
    # stream; skipped entirely for flushes with no survivors.
    nonempty = n_surv > 0
    prop_work = cfg.prop_dispatch_weight * n_flush + n_crop
    prop_cycles = np.where(nonempty, prop_work / cfg.prop_quads_per_cycle,
                           0.0)
    prop_items = int((n_flush + n_crop)[nonempty].sum())

    # CROP blends: per-flush first-occurrence-unique line tags.
    live_rows = out_rows[live]
    tag_stream = quad_line_tag_pairs(quads.qx[live_rows],
                                     quads.qy[live_rows],
                                     workload.width, cfg)
    tag_flush = np.repeat(live_flush, 2)
    if live_rows.shape[0]:
        if cfg.cache_line_bytes % (16 * cfg.bytes_per_pixel) == 0:
            # Structural fast path: when a cache line spans a whole number
            # of 16px screen tiles, every quad of a flush shares one
            # line-column, so a tag is identified inside its flush by the
            # pixel row alone — 16 possible rows per tile.  First
            # occurrences then come from one scatter over a dense
            # (flush, row mod 16) key space instead of a sort over the
            # whole tag stream.
            qy_live = quads.qy[live_rows]
            row_in_tile = np.empty(tag_stream.shape[0], dtype=np.int64)
            row_in_tile[0::2] = (qy_live * 2) & 15
            row_in_tile[1::2] = (qy_live * 2 + 1) & 15
            key = tag_flush * 16 + row_in_tile
            first = np.empty(n_flushes * 16, dtype=np.int64)
            idx = np.arange(key.shape[0], dtype=np.int64)
            first[key[::-1]] = idx[::-1]
            keep = first[key] == idx
        else:
            tag_space = int(tag_stream.max()) + 1
            _, first_idx = np.unique(tag_flush * tag_space + tag_stream,
                                     return_index=True)
            keep = np.zeros(tag_stream.shape[0], dtype=bool)
            keep[first_idx] = True
        dedup_tags = tag_stream[keep]
        dedup_flush = tag_flush[keep]
    else:
        dedup_tags = np.empty(0, dtype=np.int64)
        dedup_flush = np.empty(0, dtype=np.int64)
    tag_splits = np.concatenate(
        (np.zeros(1, dtype=np.int64),
         np.cumsum(np.bincount(dedup_flush,
                               minlength=n_flushes)))).astype(np.int64)
    return FlushProducts(workload.width, n_flush, n_surv, pairs_f, n_crop,
                         frag_counts, dedup_tags, tag_splits, prop_items,
                         prop_cycles)


def apply_flush_products(plan, products, config, stats, crop, zrop, shader,
                         trace=None):
    """Account every flush of ``plan`` from its prepared ``products``.

    Replays what depends on cache state — the ZROP stencil-line traffic
    (its z-cache is fresh every draw) and the CROP line traffic through
    the real, possibly shared and warm, LRU cache — and makes every
    accumulation in the scalar per-flush order.
    """
    if plan.n_flushes == 0:
        return
    cfg = config
    p = products
    n_flushes = plan.n_flushes

    # TC insertion throughput, accounted at flush over each whole batch.
    stats.units["tc"].add_sequence(
        int(p.n_flush.sum()), p.n_flush / cfg.tc_quads_per_cycle)

    # ZROP termination test (HET): replay the stencil-line traffic.
    if cfg.enable_het:
        zrop_misses = zrop.termination_test_plan(
            plan.tile, p.n_flush, p.n_surv, p.width)
    else:
        zrop_misses = np.zeros(n_flushes, dtype=np.int64)

    # SM fragment shading (with QRU merge warps).
    shader.shade_fragment_batches(p.n_surv, p.pairs)
    if cfg.enable_qm:
        stats.quads_merged_pairs += int(p.pairs.sum())

    stats.units["prop"].add_sequence(p.prop_items, p.prop_cycles)

    # CROP blends, replayed through the real LRU cache in flush order.
    crop_misses = crop.blend_plan(p.n_crop, p.n_frags, p.crop_tags,
                                  p.crop_tag_splits)

    # DRAM: the scalar loop interleaves the ZROP stencil fills and the
    # CROP fill+writeback traffic per flush; replicate that order.
    zrop_bytes = zrop_misses * cfg.cache_line_bytes
    crop_bytes = crop_misses * cfg.cache_line_bytes * 2
    dram_cycles = np.empty(2 * n_flushes, dtype=np.float64)
    dram_cycles[0::2] = zrop_bytes / cfg.dram_bytes_per_cycle
    dram_cycles[1::2] = crop_bytes / cfg.dram_bytes_per_cycle
    stats.units["dram"].add_sequence(
        int(zrop_misses.sum() + crop_misses.sum()), dram_cycles)
    stats.dram_bytes += float(int(zrop_bytes.sum() + crop_bytes.sum()))

    if trace is not None:
        trace.record_flushes(plan.tile, plan.reason, p.n_flush, p.n_surv,
                             p.pairs, p.n_crop)


def apply_flush_counts(plan, stats):
    """Copy the plan's TC/TGC flush-cause counters into ``stats``."""
    tc_counts = plan.tc_flush_counts
    stats.tc_flush_full = tc_counts[TileCoalescer.FLUSH_FULL]
    stats.tc_flush_evict = tc_counts[TileCoalescer.FLUSH_EVICT]
    stats.tc_flush_timeout = tc_counts[TileCoalescer.FLUSH_TIMEOUT]
    stats.tc_flush_final = tc_counts[TileCoalescer.FLUSH_FINAL]
    if plan.tgc_flush_counts is not None:
        tgc_counts = plan.tgc_flush_counts
        stats.tgc_flush_full = tgc_counts[TileGridCoalescer.FLUSH_FULL]
        stats.tgc_flush_evict = tgc_counts[TileGridCoalescer.FLUSH_EVICT]
        stats.tgc_flush_final = tgc_counts[TileGridCoalescer.FLUSH_FINAL]
