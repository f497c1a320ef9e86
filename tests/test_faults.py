"""Chaos suite: fault injection, the degradation ladder, cache hardening.

The acceptance bar for every injection point is *bit-identity*: a chaos
trajectory must finish with aggregate statistics exactly equal to the
fault-free oracle run (the ladder's degraded rungs are retained bit-exact
oracles, not approximations), with every recovery logged as a structured
incident on the frame that healed.
"""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np
import pytest

import repro.hwmodel.pipeline as pipeline_module
from repro import faults
from repro.engine import (
    FrameLadderExhausted,
    ResultCache,
    run_frames,
)
from repro.engine.cache import CACHE_SCHEMA, payload_checksum
from repro.engine.session import RenderSession
from repro.faults import FaultPlan
from repro.hwmodel.caches import LRUCache
from repro.hwmodel.flushplan import FlushProducts

SCENE = "lego"
N_VIEWS = 3


@pytest.fixture(scope="module")
def clean_aggregates():
    """The fault-free oracle run every chaos run must match exactly."""
    with faults.active(None):
        result = RenderSession(SCENE).run(n_views=N_VIEWS)
    return result.aggregates()


def chaos_run(plan_text, *, jobs=1, coherence="auto", **session_kw):
    session = RenderSession(SCENE, coherence=coherence, **session_kw)
    with faults.active(FaultPlan.parse(plan_text)):
        return session.run(n_views=N_VIEWS, jobs=jobs)


# ----------------------------------------------------------------------
# Plan grammar and harness mechanics
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_parse_round_trip(self):
        text = "seed=7;digest:raise,times=1;lru.replay:corrupt,p=0.5"
        plan = FaultPlan.parse(text)
        assert plan.seed == 7
        assert FaultPlan.parse(plan.spec()).spec() == plan.spec()

    def test_parse_stall_delay(self):
        rule = FaultPlan.parse("rasterize:stall,delay=2.5,after=3").rules[0]
        assert rule.kind == "stall"
        assert rule.delay_ms == 2.5
        assert rule.after == 3

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown injection point"):
            FaultPlan.parse("nonsense:raise")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("digest:explode")

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown fault rule key"):
            FaultPlan.parse("digest:raise,volume=11")

    def test_probabilistic_draws_are_seed_deterministic(self):
        draws = []
        for _ in range(2):
            plan = FaultPlan.parse("seed=9; digest:raise,p=0.5")
            draws.append([plan.draw("digest") is not None
                          for _ in range(64)])
        assert draws[0] == draws[1]
        assert any(draws[0]) and not all(draws[0])

    def test_times_and_after_gates(self):
        plan = FaultPlan.parse("digest:raise,times=2,after=1")
        fired = [plan.draw("digest") is not None for _ in range(5)]
        assert fired == [False, True, True, False, False]
        plan.reset()
        assert plan.draw("digest") is None

    @pytest.mark.skipif(bool(os.environ.get("REPRO_FAULTS")),
                        reason="an environment fault plan is installed")
    def test_disabled_by_default(self):
        assert faults.current_plan() is None
        assert faults.ENABLED is False

    def test_active_restores_previous_plan(self):
        before = faults.current_plan()
        with faults.active("digest:raise"):
            assert faults.ENABLED is True
            assert faults.current_plan().rules[0].point == "digest"
        assert faults.current_plan() is before

    def test_checkpoint_raises_and_counts(self):
        with faults.active("digest:raise,times=1") as plan:
            with pytest.raises(faults.FaultInjected) as excinfo:
                faults.checkpoint("digest")
            assert excinfo.value.point == "digest"
            assert faults.checkpoint("digest") is None  # times exhausted
            assert plan.fired("digest") == 1


# ----------------------------------------------------------------------
# The degradation ladder: every injection point heals bit-identically
# ----------------------------------------------------------------------

class TestLadder:
    def _assert_healed(self, result, clean_aggregates, rung, point):
        assert result.aggregates() == clean_aggregates
        incidents = result.incidents()
        assert incidents, "expected at least one incident"
        assert {inc["recovered_by"] for inc in incidents} == {rung}
        assert {inc["point"] for inc in incidents} == {point}

    def test_transient_rasterize_fault_heals_on_retry(self, clean_aggregates):
        result = chaos_run("rasterize:raise,times=1")
        self._assert_healed(result, clean_aggregates, "retry", "rasterize")
        assert len(result.incidents()) == 1

    def test_persistent_digest_fault_heals_at_legacy_ir(self,
                                                        clean_aggregates):
        result = chaos_run("digest:raise", coherence="auto")
        self._assert_healed(result, clean_aggregates, "ir=legacy", "digest")
        # Every frame climbed every shallower rung first: the FrameIR
        # digestion only goes away once the stream is rasterised bare.
        rungs_climbed = RenderSession.LADDER.index("ir=legacy")
        assert len(result.incidents()) == rungs_climbed * N_VIEWS

    def test_cuda_digest_fault_heals_at_legacy_ir(self):
        """The software models heal at the same rung as the hardware
        path: an ``ir=legacy`` stream carries no FrameIR, so the warp
        model takes its fragment-sort oracle with the backend untouched —
        and the healed trajectory matches the fault-free oracle bit for
        bit."""
        kwargs = dict(backend="cuda+et", baseline=None)
        with faults.active(None):
            clean = RenderSession(SCENE, **kwargs).run(n_views=N_VIEWS)
        session = RenderSession(SCENE, coherence="auto", **kwargs)
        with faults.active("digest:raise"):
            chaos = session.run(n_views=N_VIEWS)
        assert chaos.aggregates() == clean.aggregates()
        incidents = chaos.incidents()
        assert incidents
        assert {inc["recovered_by"] for inc in incidents} == {"ir=legacy"}
        assert {inc["point"] for inc in incidents} == {"digest"}
        rungs_climbed = RenderSession.LADDER.index("ir=legacy")
        assert len(incidents) == rungs_climbed * N_VIEWS

    def test_coherence_fault_heals_with_carrier_off(self, clean_aggregates):
        result = chaos_run("coherence.verify:raise", coherence="auto")
        self._assert_healed(result, clean_aggregates, "coherence=off",
                            "coherence.verify")

    def test_flushplan_fault_heals_on_scalar_engine(self, clean_aggregates):
        result = chaos_run("flushplan:raise")
        self._assert_healed(result, clean_aggregates, "engine=scalar",
                            "flushplan")

    def test_corrupted_lru_replay_is_detected_and_heals(self,
                                                        clean_aggregates):
        result = chaos_run("lru.replay:corrupt")
        self._assert_healed(result, clean_aggregates, "engine=scalar",
                            "lru.replay")
        assert all("CorruptDataError" in inc["error"]
                   for inc in result.incidents())

    def test_corrupted_coherence_state_forces_exact_recompute(
            self, clean_aggregates):
        # Detected inline (forced verify miss), so no incident is raised —
        # the run is simply served by the full-recompute oracle.
        result = chaos_run("coherence.verify:corrupt",
                           coherence="auto")
        assert result.aggregates() == clean_aggregates
        assert result.incidents() == []

    def test_parallel_frames_heal_too(self, clean_aggregates):
        result = chaos_run("digest:raise,times=1", jobs=2)
        assert result.aggregates() == clean_aggregates
        assert len(result.incidents()) == 1

    def test_watchdog_interrupts_stall_at_checkpoint(self):
        with faults.active("digest:stall,delay=30000"):
            start = time.perf_counter()
            with faults.watchdog(100):
                with pytest.raises(faults.WatchdogTimeout) as excinfo:
                    faults.checkpoint("digest")
            elapsed = time.perf_counter() - start
        assert excinfo.value.point == "digest"
        assert excinfo.value.budget_ms == 100
        assert elapsed < 5.0  # nowhere near the 30 s stall

    def test_stall_with_watchdog_times_out_and_heals(self):
        # A lightweight single-frame run so only the injected stall can
        # plausibly exceed the budget.
        kwargs = dict(backend="hw:baseline", baseline=None)
        with faults.active(None):
            clean = RenderSession(SCENE, **kwargs).run(n_views=1)
        session = RenderSession(SCENE, watchdog_ms=5000, **kwargs)
        with faults.active("digest:stall,delay=60000,times=1"):
            chaos = session.run(n_views=1)
        assert chaos.aggregates() == clean.aggregates()
        incidents = chaos.incidents()
        assert len(incidents) == 1
        assert "WatchdogTimeout" in incidents[0]["error"]
        assert incidents[0]["point"] == "digest"
        assert incidents[0]["recovered_by"] == "retry"
        assert incidents[0]["wall_ms"] >= 5000

    def test_strict_mode_raises_through(self):
        session = RenderSession(SCENE, strict=True)
        with faults.active("digest:raise"):
            with pytest.raises(faults.FaultInjected):
                session.run(n_views=N_VIEWS)

    def test_unhealable_fault_exhausts_the_ladder(self):
        session = RenderSession(SCENE)
        with faults.active("rasterize:raise"):
            with pytest.raises(FrameLadderExhausted) as excinfo:
                session.run(n_views=N_VIEWS)
        err = excinfo.value
        assert err.index == 0
        assert RenderSession.LADDER == ("primary", "retry", "coherence=off",
                                        "ir=legacy", "engine=scalar")
        assert len(err.incidents) == len(RenderSession.LADDER)
        assert {inc.rung for inc in err.incidents} == set(RenderSession.LADDER)
        assert isinstance(err.__cause__, faults.FaultInjected)

    def test_instance_backends_only_retry(self, clean_aggregates):
        # A ready backend instance can't be rebuilt from a spec, so the
        # ladder stops after the retry rung.
        from repro.engine import create_backend
        backend = create_backend("hw:het+qm")
        session = RenderSession(SCENE, backend=backend, baseline=None)
        assert session._ladder_rungs() == ("primary", "retry")
        with faults.active("digest:raise"):
            with pytest.raises(FrameLadderExhausted):
                session.run(n_views=1)

    def test_incidents_survive_the_disk_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with faults.active(FaultPlan.parse("digest:raise,times=1")):
            first = RenderSession(SCENE, result_cache=cache).run(
                n_views=N_VIEWS)
        second = RenderSession(SCENE, result_cache=cache).run(
            n_views=N_VIEWS)
        assert second.from_cache
        assert second.incidents() == first.incidents()
        assert second.aggregates() == first.aggregates()

    def test_incident_summary_rollup(self):
        result = chaos_run("digest:raise,times=1")
        summary = result.incident_summary()
        assert summary["count"] == 1
        assert summary["frames_affected"] == 1
        assert summary["recovered_by"] == {"retry": 1}
        assert summary["by_point"] == {"digest": 1}
        assert summary["healing_ms"] > 0.0


# ----------------------------------------------------------------------
# Chaos under lanes: every injection point, one lane and two
# ----------------------------------------------------------------------

#: One plan per injection point whose incident count does not depend on
#: lane timing: always-firing rules fail the same attempts of every frame
#: at any lane count, and a single-shot rule fires exactly once.
LANE_PLANS = {
    "rasterize": "rasterize:raise,times=1",
    "digest": "digest:raise",
    "coherence.verify": "coherence.verify:raise",
    "flushplan": "flushplan:raise",
    "lru.replay": "lru.replay:corrupt",
    "cache.load": "cache.load:corrupt",
    "cache.store": "cache.store:oserror",
}


class TestChaosUnderLanes:
    def test_every_point_is_covered(self):
        assert set(LANE_PLANS) == set(faults.POINTS)

    @pytest.mark.parametrize("point", sorted(LANE_PLANS))
    def test_lanes_heal_like_one_lane(self, point, tmp_path,
                                      clean_aggregates):
        """With the carrier on, a chaos run over two lanes matches the
        fault-free aggregates and heals exactly as many attempts, through
        the same rungs, as the one-lane run."""
        summaries = []
        for jobs in (1, 2):
            kwargs = {}
            if point.startswith("cache."):
                cache = ResultCache(tmp_path / f"jobs{jobs}")
                if point == "cache.load":
                    RenderSession(SCENE, result_cache=cache).run(
                        n_views=N_VIEWS)
                kwargs["result_cache"] = cache
            result = chaos_run(LANE_PLANS[point], jobs=jobs,
                               coherence="auto", **kwargs)
            assert not result.from_cache
            assert result.aggregates() == clean_aggregates, f"jobs={jobs}"
            summary = result.incident_summary()
            summaries.append((summary["count"], summary.get("recovered_by"),
                              summary.get("by_point")))
        assert summaries[0] == summaries[1]


# ----------------------------------------------------------------------
# ResultCache hardening
# ----------------------------------------------------------------------

class TestCacheHardening:
    def test_store_survives_transient_oserror(self, tmp_path):
        cache = ResultCache(tmp_path)
        with faults.active("cache.store:oserror,times=1"):
            assert cache.store("k1", {"value": 42}) is True
        assert cache.counters["store_retries"] == 1
        assert len(cache) == 1
        assert cache.load("k1")["value"] == 42

    def test_store_degrades_to_uncached_on_persistent_oserror(self,
                                                              tmp_path):
        cache = ResultCache(tmp_path)
        with faults.active("cache.store:oserror"):
            assert cache.store("k1", {"value": 42}) is False
        assert cache.counters["store_failures"] == 1
        assert len(cache) == 0
        assert list(tmp_path.glob("*.tmp")) == []

    def test_session_completes_when_store_always_fails(self, tmp_path,
                                                       clean_aggregates):
        cache = ResultCache(tmp_path)
        result = chaos_run("cache.store:oserror", result_cache=cache)
        assert result.aggregates() == clean_aggregates
        assert len(cache) == 0

    def test_corrupted_load_quarantines_and_recomputes(self, tmp_path,
                                                       clean_aggregates):
        cache = ResultCache(tmp_path)
        RenderSession(SCENE, result_cache=cache).run(n_views=N_VIEWS)
        assert len(cache) == 1
        result = chaos_run("cache.load:corrupt", result_cache=cache)
        assert not result.from_cache
        assert result.aggregates() == clean_aggregates
        # The bad entry went to quarantine and the recomputed result was
        # re-stored, so the cache healed itself.
        assert len(cache) == 1
        assert list(cache.quarantine_dir.glob("*.checksum.json"))
        assert cache.counters["quarantined"] == 1
        follow_up = RenderSession(SCENE, result_cache=cache).run(
            n_views=N_VIEWS)
        assert follow_up.from_cache

    def test_corrupted_store_is_caught_at_load(self, tmp_path):
        cache = ResultCache(tmp_path)
        with faults.active("cache.store:corrupt"):
            assert cache.store("k1", {"value": 42}) is True
        assert cache.load("k1") is None
        assert list(cache.quarantine_dir.glob("k1.checksum.json"))

    def test_unparseable_entry_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache._path("bad").write_text("{not json", encoding="utf-8")
        assert cache.load("bad") is None
        assert len(cache) == 0
        assert list(cache.quarantine_dir.glob("bad.corrupt.json"))

    def test_schema_mismatch_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        stale = {"schema": CACHE_SCHEMA - 1, "value": 1}
        cache._path("old").write_text(json.dumps(stale), encoding="utf-8")
        assert len(cache) == 1
        assert cache.load("old") is None
        assert len(cache) == 0
        assert list(cache.quarantine_dir.glob("old.schema.json"))

    def test_checksum_mismatch_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.store("k1", {"value": 42})
        path = cache._path("k1")
        tampered = path.read_text(encoding="utf-8").replace("42", "43")
        path.write_text(tampered, encoding="utf-8")
        assert cache.load("k1") is None
        assert list(cache.quarantine_dir.glob("k1.checksum.json"))

    def test_payload_checksum_excludes_itself(self):
        payload = {"value": 1}
        digest = payload_checksum(payload)
        assert payload_checksum(dict(payload, checksum=digest)) == digest

    def test_clear_sweeps_tmp_and_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("k1", {"value": 1})
        (tmp_path / "stray.12345.deadbeef.tmp").write_text("partial")
        cache._path("bad").write_text("{not json", encoding="utf-8")
        cache.load("bad")  # quarantined
        cache.clear()
        assert len(cache) == 0
        assert list(tmp_path.glob("*.tmp")) == []
        assert list(cache.quarantine_dir.glob("*.json")) == []

    def test_store_uses_unique_tmp_names(self, tmp_path, monkeypatch):
        # Two writers of one key must never share a tmp path: each store
        # draws a fresh uuid suffix (plus the pid) for its tmp file.
        import uuid

        cache = ResultCache(tmp_path)
        produced = []
        real_uuid4 = uuid.uuid4

        def spy():
            value = real_uuid4()
            produced.append(value.hex[:8])
            return value

        monkeypatch.setattr(uuid, "uuid4", spy)
        cache.store("k1", {"value": 2})
        cache.store("k1", {"value": 3})
        assert len(produced) == 2
        assert len(set(produced)) == 2  # distinct suffix per store
        assert list(tmp_path.glob("*.tmp")) == []
        assert cache.load("k1")["value"] == 3


# ----------------------------------------------------------------------
# Coherent draw replay under faults
# ----------------------------------------------------------------------

def _memo_entries(session):
    """Every library state's draw memo, keyed by content key."""
    return {key: state.draw_memo
            for key, state in session._carrier()._states.items()}


def _assert_memo_entries_equal(want, got):
    assert want.keys() == got.keys()
    for key in want:
        (plan_a, prod_a), (plan_b, prod_b) = want[key], got[key]
        assert np.array_equal(plan_a.tile, plan_b.tile)
        assert plan_a.reason == plan_b.reason
        assert plan_a.tc_flush_counts == plan_b.tc_flush_counts
        assert plan_a.tgc_flush_counts == plan_b.tgc_flush_counts
        assert (prod_a is None) == (prod_b is None)
        for name in FlushProducts.__slots__ if prod_a is not None else ():
            assert np.array_equal(getattr(prod_a, name),
                                  getattr(prod_b, name)), name


class TestDrawReplayFaults:
    @pytest.fixture
    def plan_builds(self, monkeypatch):
        calls = []
        real = pipeline_module.build_flush_plan

        def counting(workload, config):
            calls.append(config)
            return real(workload, config)

        monkeypatch.setattr(pipeline_module, "build_flush_plan", counting)
        return calls

    def test_faulted_revisit_orbit_heals_bit_identical(self, plan_builds):
        """The replay path passes the flushplan checkpoint: a fault fires
        on a memo-served draw and the retry heals it bit-identically."""
        with faults.active(None):
            clean = RenderSession(SCENE, warm_crop_cache=True,
                                  coherence="off").run(n_views=N_VIEWS)
            session = RenderSession(SCENE, warm_crop_cache=True,
                                    coherence="auto")
            session.run(n_views=N_VIEWS)  # fills the library and memos
        del plan_builds[:]
        with faults.active(FaultPlan.parse("flushplan:raise,times=1")):
            chaos = session.run(n_views=N_VIEWS)
        assert chaos.aggregates() == clean.aggregates()
        assert [(inc["point"], inc["recovered_by"])
                for inc in chaos.incidents()] == [("flushplan", "retry")]
        assert plan_builds == [], "every draw of the lap replays its memo"
        with faults.active(
                FaultPlan.parse("seed=5; flushplan:raise,p=0.3")):
            seeded = session.run(n_views=N_VIEWS)
        assert seeded.aggregates() == clean.aggregates()
        assert seeded.incidents()

    def test_rewind_leaves_no_half_written_memo(self, plan_builds):
        """A fault in the CROP replay of a memo-filling draw: the rewind
        drops the attempt's state, and the healed library holds exactly
        the memos of a fault-free run, which then replay exactly."""
        with faults.active(None):
            clean = RenderSession(SCENE, warm_crop_cache=True,
                                  coherence="auto")
            first = clean.run(n_views=N_VIEWS)
        session = RenderSession(SCENE, warm_crop_cache=True,
                                coherence="auto")
        with faults.active(FaultPlan.parse("lru.replay:raise,times=1")):
            healed = session.run(n_views=N_VIEWS)
        assert [(inc["point"], inc["recovered_by"])
                for inc in healed.incidents()] == [("lru.replay", "retry")]
        assert healed.aggregates() == first.aggregates()
        want, got = _memo_entries(clean), _memo_entries(session)
        assert want.keys() == got.keys()
        for key in want:
            _assert_memo_entries_equal(want[key], got[key])
        del plan_builds[:]
        with faults.active(None):
            again = session.run(n_views=N_VIEWS)
        assert again.aggregates() == first.aggregates()
        assert plan_builds == []


    def test_lanes_leave_the_memos_of_a_clean_run(self, plan_builds):
        """Two lanes, carrier on, no CROP cache: a replay fault on the
        first lap heals, the library holds exactly the memos of a clean
        two-lane run, and a faulted revisit lap still replays every draw
        — its retry classifies read-only against its own state."""
        with faults.active(None):
            clean = RenderSession(SCENE, coherence="auto")
            first = clean.run(n_views=N_VIEWS, jobs=2)
        session = RenderSession(SCENE, coherence="auto")
        with faults.active(FaultPlan.parse("lru.replay:raise,times=1")):
            healed = session.run(n_views=N_VIEWS, jobs=2)
        assert [(inc["point"], inc["recovered_by"])
                for inc in healed.incidents()] == [("lru.replay", "retry")]
        assert healed.aggregates() == first.aggregates()
        want, got = _memo_entries(clean), _memo_entries(session)
        assert want.keys() == got.keys()
        for key in want:
            _assert_memo_entries_equal(want[key], got[key])
        del plan_builds[:]
        with faults.active(FaultPlan.parse("flushplan:raise,times=1")):
            again = session.run(n_views=N_VIEWS, jobs=2)
        assert again.aggregates() == first.aggregates()
        assert [(inc["point"], inc["recovered_by"])
                for inc in again.incidents()] == [("flushplan", "retry")]
        assert plan_builds == [], "every draw of the lap replays its memo"


# ----------------------------------------------------------------------
# Executor failure wrapping and state snapshots
# ----------------------------------------------------------------------

class TestExecutor:
    def test_parallel_failure_raises_earliest_unwrapped(self):
        """Lanes fail like a serial loop: the earliest failed task's own
        exception, unwrapped, even when a later task failed first."""
        task_two_failed = threading.Event()

        def fn(task):
            if task == 2:
                task_two_failed.set()
                raise KeyError("later")
            if task == 1:
                assert task_two_failed.wait(10)
                raise ValueError("earliest")
            return task * 10

        with pytest.raises(ValueError, match="earliest"):
            run_frames(fn, [0, 1, 2, 3], jobs=3)
        assert run_frames(lambda task: task * 10, [0, 1, 2, 3],
                          jobs=2) == [0, 10, 20, 30]

    def test_serial_failure_propagates_unwrapped(self):
        def fn(task):
            raise ValueError("boom")

        with pytest.raises(ValueError):
            run_frames(fn, [0], jobs=1)

    def test_lru_snapshot_restore_round_trip(self):
        cache = LRUCache(4 * 128, 128)
        cache.access_many([1, 2, 3, 4, 5], write=True)
        snapshot = cache.snapshot()
        cache.access_many([6, 7, 8])
        cache.restore(snapshot)
        twin = LRUCache(4 * 128, 128)
        twin.access_many([1, 2, 3, 4, 5], write=True)
        assert cache.snapshot() == twin.snapshot()

    def test_warm_crop_cache_run_heals_identically(self):
        with faults.active(None):
            clean = RenderSession(SCENE, warm_crop_cache=True).run(
                n_views=N_VIEWS)
        session = RenderSession(SCENE, warm_crop_cache=True)
        with faults.active(FaultPlan.parse("flushplan:raise,times=2")):
            chaos = session.run(n_views=N_VIEWS)
        assert chaos.aggregates() == clean.aggregates()
        assert chaos.incidents()
