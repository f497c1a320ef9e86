"""One benchmark workload in a fresh process (spawned by ``run.py``).

Modes:

``setup``  set the workload up (imports, scene, session or service and,
           for ``orbit-revisit``, the cache-filling first lap), report
           ``setup_s`` and exit;
``run``    set up, then measure work sized by ``--seconds`` (serve-zipf's
           window; orbit laps scaled to about that long), optionally
           traced, and write the outcome as JSON to ``--out``;
``check``  recompute the outputs of a ``run`` (read from ``--input``)
           through the program's retained oracles and count mismatches.

Inputs derive from ``--seed`` and the workload definition only; the
program receives the generated scene seeds, views and request stream,
never the benchmark seed itself.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("orbit-cold", "orbit-revisit", "serve-zipf")

#: Orbit workloads: scene, warm CROP cache.
ORBITS = {
    "orbit-cold": ("building", False),
    "orbit-revisit": ("lego", True),
}
#: Orbit work scales with ``--seconds`` as a fixed count, not as laps
#: until the time is spent: host speed drifted by a quarter between runs
#: here, and a count that followed it would move orbit-cold between one
#: and two laps and orbit-revisit's leak-driven peak memory with it.
#: orbit-cold renders one orbit of this many views per second (8 views at
#: 27 s, 13-17 s of rendering); orbit-revisit loops over 4 views for this
#: many laps per second (22 laps at 27 s, 22-29 s).
COLD_VIEWS_PER_S = 0.3
REVISIT_LAPS_PER_S = 0.8
REVISIT_VIEWS = 4

#: serve-zipf's 27 configurations, {lego, palace, garden} x {hw:het+qm,
#: hw:baseline, cuda+et} x views {1, 2, 4}, most popular first.
#: Popularity falls with a request's solo render time on the reference
#: container (cheap previews are asked for most), which keeps the
#: service's utilisation low enough that the median request stays an
#: uncontended cache hit.
POPULARITY = (
    ("palace", "cuda+et", 1), ("lego", "cuda+et", 1),
    ("palace", "hw:baseline", 1), ("palace", "hw:het+qm", 1),
    ("garden", "cuda+et", 1), ("palace", "cuda+et", 2),
    ("lego", "hw:baseline", 1), ("lego", "cuda+et", 2),
    ("garden", "hw:baseline", 1), ("palace", "hw:baseline", 2),
    ("garden", "cuda+et", 2), ("lego", "hw:het+qm", 1),
    ("lego", "hw:baseline", 2), ("garden", "hw:het+qm", 1),
    ("palace", "hw:het+qm", 2), ("palace", "cuda+et", 4),
    ("lego", "hw:het+qm", 2), ("garden", "hw:baseline", 2),
    ("lego", "cuda+et", 4), ("palace", "hw:baseline", 4),
    ("garden", "cuda+et", 4), ("garden", "hw:het+qm", 2),
    ("palace", "hw:het+qm", 4), ("lego", "hw:baseline", 4),
    ("lego", "hw:het+qm", 4), ("garden", "hw:baseline", 4),
    ("garden", "hw:het+qm", 4),
)
#: Offered load of serve-zipf (requests per second) and zipf exponent.
SERVE_RATE = 3.8
ZIPF_S = 1.6
#: The request trace (order and arrival times) is part of the workload's
#: definition, drawn once from this seed; the benchmark seed picks the
#: scene content.  Drawing the trace from the benchmark seed made p90
#: latency swing 463-1067 ms across eight seeds while one seed repeated
#: within 3%: the spread was the trace, not the program.
TRACE_SEED = 7

#: Latency limit per operation (a lap for orbits, a request for serve).
SLO_MS = {"orbit-cold": 60_000.0, "orbit-revisit": 5_000.0,
          "serve-zipf": 2_000.0}

#: Bound on waiting for responses after the last request was sent.
DRAIN_TIMEOUT_S = 60.0

#: An orbit run starts no further lap once the process holds this much
#: memory: orbit-revisit grows with every lap (see NOTES.md), and the
#: host's other processes must survive a leakier program.
MEMORY_GUARD_MB = 5000.0


def percentile(values, q):
    """Linear-interpolated percentile (numpy's default method)."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def rss_mb():
    """Current resident memory of this process (0 where /proc is absent)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return 0.0
    return pages * resource.getpagesize() / 2**20


def scene_seed(seed):
    """Scene-construction seed the program receives for ``seed``."""
    return (seed * 7919) % 100_003


# ----------------------------------------------------------------------
# Generated inputs
# ----------------------------------------------------------------------

def zipf_counts(n, n_items, s):
    """Requests per popularity rank: the zipf shares of ``n`` requests,
    rounded by largest remainder."""
    weights = [1.0 / (rank + 1) ** s for rank in range(n_items)]
    total = sum(weights)
    quotas = [n * w / total for w in weights]
    counts = [int(q) for q in quotas]
    order = sorted(range(n_items), key=lambda i: counts[i] - quotas[i])
    for i in order[:n - sum(counts)]:
        counts[i] += 1
    return counts


def serve_schedule(seconds):
    """``[(due_s, scene, backend, views)]`` sorted by due time.

    Open loop: ``SERVE_RATE * seconds`` arrivals of a Poisson process
    conditioned on its count (sorted uniform times over the window).
    """
    n = max(1, round(SERVE_RATE * seconds))
    mix = [cfg for cfg, count in zip(POPULARITY, zipf_counts(
        n, len(POPULARITY), ZIPF_S)) for _ in range(count)]
    rng = random.Random(TRACE_SEED)
    rng.shuffle(mix)
    dues = sorted(rng.uniform(0.0, seconds) for _ in mix)
    return [(due, *cfg) for due, cfg in zip(dues, mix)]


# ----------------------------------------------------------------------
# Orbit workloads
# ----------------------------------------------------------------------

def orbit_shape(workload, seconds):
    """``(views per lap, laps)`` of an orbit run."""
    if workload == "orbit-cold":
        return max(2, round(COLD_VIEWS_PER_S * seconds)), 1
    return REVISIT_VIEWS, max(1, round(REVISIT_LAPS_PER_S * seconds))


def orbit_session(workload, sseed, **knobs):
    from repro.engine.session import RenderSession

    scene, warm = ORBITS[workload]
    session = RenderSession(scene, seed=sseed, warm_crop_cache=warm,
                            **knobs)
    _ = session.cloud
    return session


def record_key(record):
    return [record.index, record.cycles, record.baseline_cycles,
            record.et_ratio, record.speedup]


def orbit_setup(workload, seed):
    session = orbit_session(workload, scene_seed(seed))
    if workload == "orbit-revisit":
        session.run(n_views=REVISIT_VIEWS)  # fills the carrier
    return session


def orbit_run(workload, seconds, session, tracer):
    """The workload's laps over its views (see :func:`orbit_shape`)."""
    views, n_laps = orbit_shape(workload, seconds)
    laps = []
    spent = 0.0
    while len(laps) < n_laps:
        if tracer is not None:
            tracer.set_op(f"lap{len(laps)}")
        t0 = time.perf_counter()
        result = session.run(n_views=views)
        wall = time.perf_counter() - t0
        spent += wall
        laps.append({"wall_ms": wall * 1e3,
                     "records": [record_key(r) for r in result.records],
                     "speedups": [r.speedup for r in result.records],
                     "incidents": len(result.incidents()),
                     "rss_mb": rss_mb()})
        if laps[-1]["rss_mb"] > MEMORY_GUARD_MB:
            break
    frames = sum(len(lap["records"]) for lap in laps)
    lap_ms = [lap["wall_ms"] for lap in laps]
    slo = SLO_MS[workload]
    return {
        "ops": frames,
        "views": views,
        "scene_seed": session.seed,
        "laps": laps,
        "e2e": {
            "frames_per_s": frames / spent,
            "latency_p50_ms": percentile(lap_ms, 50),
            "latency_p90_ms": percentile(lap_ms, 90),
            "slo_met_share": sum(ms <= slo for ms in lap_ms) / len(lap_ms),
        },
        "wall_per_op_ms": spent * 1e3 / frames,
    }


def orbit_check(workload, outcome, part, parts):
    """This part's share of every lap's records, against the retained
    oracle knobs (``coherence="off"``, ``ir="legacy"``) on the same views.

    The oracle renders frame by frame through two oracle sessions (the
    backend and its ``hw:baseline`` companion), so orbit-cold's frames can
    be split across check processes; orbit-revisit's lap stays whole,
    since its warm CROP cache carries state from frame to frame (and every
    lap's records equal the first's: each lap starts a fresh CROP cache).
    """
    from repro.engine.session import RenderSession
    from repro.workloads.viewpoints import scene_viewpoints

    scene, warm = ORBITS[workload]
    views = outcome["views"]
    laps = outcome["laps"]
    frames = list(range(views))
    frames = (frames if part == 0 else []) if warm else frames[part::parts]
    knobs = dict(seed=outcome["scene_seed"], coherence="off", ir="legacy")
    main = RenderSession(scene, **knobs)
    base = RenderSession(scene, backend=main.baseline_spec, **knobs)
    cameras = scene_viewpoints(main.profile, views)
    crop = main.backend.new_crop_cache() if warm else None
    oracle = {}
    for k in frames:
        frame = main.render_frame(cameras[k], crop_cache=crop)
        cycles = base.render_frame(cameras[k]).cycles
        speedup = cycles / frame.cycles if cycles and frame.cycles else None
        oracle[k] = json.loads(json.dumps(
            [k, frame.cycles, cycles, frame.et_ratio, speedup]))
        # Each legacy frame's streams sit in reference cycles; two check
        # processes holding every frame would not fit beside each other.
        del frame
        gc.collect()
    checked = mismatches = 0
    for lap in laps:
        if part == 0:
            mismatches += len(lap["records"]) != views
        for record in lap["records"]:
            want = oracle.get(record[0])
            if want is not None:
                checked += 1
                mismatches += record != want
    return {"checked": checked, "mismatches": mismatches}


# ----------------------------------------------------------------------
# serve-zipf
# ----------------------------------------------------------------------

def serve_setup(out_dir):
    from repro.engine.cache import ResultCache
    from repro.serve import RenderService

    cache = ResultCache(tempfile.mkdtemp(prefix="cache-", dir=out_dir))
    return RenderService(result_cache=cache), cache


def serve_run(seed, seconds, service, cache):
    """Open-loop generator (this thread) into the service."""
    from repro.serve import Completed, Failed, Rejected, RenderRequest

    schedule = serve_schedule(seconds)
    sseed = scene_seed(seed)
    sent = []
    start = time.monotonic()
    for i, (due, scene, backend, views) in enumerate(schedule):
        target = start + due
        delay = target - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        t_send = time.monotonic()
        request = RenderRequest(scene, backend=backend, views=views,
                                seed=sseed, request_id=f"r{i:04d}")
        sent.append((request, target, t_send, service.submit(request)))
    drain_until = time.monotonic() + DRAIN_TIMEOUT_S
    responses = []
    lost = 0
    for request, target, t_send, pending in sent:
        try:
            response = pending.result(max(0.0, drain_until - time.monotonic()))
        except TimeoutError:
            lost += 1
            continue
        responses.append((request, target, t_send, response))
    service.close(drain=True, timeout=DRAIN_TIMEOUT_S)
    stats = service.stats()

    slo = SLO_MS["serve-zipf"]
    latencies, queue_ms, service_ms, completed = [], [], [], []
    rejected = degraded = failed = incidents = 0
    end = start
    for request, target, t_send, response in responses:
        if isinstance(response, Completed):
            latency = (t_send - target) * 1e3 + response.latency_ms
            latencies.append(latency)
            queue_ms.append(response.queue_ms)
            service_ms.append(response.service_ms)
            degraded += response.degraded
            incidents += response.incident_summary.get("count", 0)
            end = max(end, target + latency / 1e3)
            completed.append({"id": request.request_id,
                              "config": list(request.config_key()),
                              "views": request.views,
                              "latency_ms": latency,
                              "from_cache": response.from_cache,
                              "aggregates": response.aggregates})
        elif isinstance(response, Rejected):
            rejected += 1
        elif isinstance(response, Failed):
            failed += 1
    frames = sum(c["views"] for c in completed)
    cache_stats = cache.stats()
    residency = stats["residency"]
    lags = [(t_send - target) * 1e3 for _, target, t_send, _ in sent]
    n = len(sent)
    return {
        "ops": n,
        "lost": lost,
        "failed": failed,
        "completed": completed,
        "e2e": {
            "frames_per_s": frames / max(end - start, 1e-9),
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p90_ms": percentile(latencies, 90),
            "slo_met_share": sum(ms <= slo for ms in latencies) / n,
        },
        "wall_per_op_ms": statistics.fmean(service_ms) if service_ms else 0.0,
        "serve": {
            "serve.queue_ms_p50": percentile(queue_ms, 50),
            "serve.queue_ms_p90": percentile(queue_ms, 90),
            "serve.service_ms_p50": percentile(service_ms, 50),
            "serve.rejected_share": rejected / n,
            "serve.degraded_share": degraded / max(1, len(completed)),
            "serve.residency.hit_share": residency["hits"] / max(
                1, residency["hits"] + residency["misses"]),
            "engine.result_cache.hit_share": cache_stats["hits"] / max(
                1, cache_stats["hits"] + cache_stats["misses"]),
            "engine.incidents": incidents / n,
            "loadgen.lag_ms_max": max(lags),
        },
        "samples": {"completed": len(completed),
                    "beyond_p90": sum(ms > percentile(latencies, 90)
                                      for ms in latencies)},
    }


def serve_check(outcome, part, parts):
    """This part's share of the completed aggregates, each against a solo
    render of its configuration (fresh session, no result cache)."""
    from repro.engine.session import RenderSession

    keys = sorted({tuple(item["config"]) for item in outcome["completed"]},
                  key=lambda key: (-key[3], key))
    oracle = {}
    for key in keys[part::parts]:
        scene, backend, baseline, views, seed, warm = key
        session = RenderSession(scene, backend=backend, baseline=baseline,
                                seed=seed, warm_crop_cache=warm)
        oracle[key] = json.loads(json.dumps(
            session.run(n_views=views).aggregates()))
    checked = mismatches = 0
    for item in outcome["completed"]:
        want = oracle.get(tuple(item["config"]))
        if want is not None:
            checked += 1
            mismatches += item["aggregates"] != want
    return {"checked": checked, "mismatches": mismatches}


# ----------------------------------------------------------------------
# Traced-run layer metrics
# ----------------------------------------------------------------------

def layer_metrics(tracer, outcome):
    """Per-op layer metrics of a traced run.

    ``trace.self_sum_ms`` (the layers' self times summed) is returned for
    the caller to check against ``trace.wall_ms``; the overhead metrics
    need the untraced run and are filled in by the caller, as are the
    zeros of layers that never ran.
    """
    from repro.engine.session import geomean

    ops = outcome["ops"]
    self_ms, root_ms = tracer.self_times_ms()
    c = tracer.counters.get
    metrics = {}
    for layer, ms in self_ms.items():
        name = (f"{layer}_ms" if layer.startswith("engine.result_cache")
                else f"{layer}.self_ms")
        metrics[name] = ms / ops
    crop = c("crop_hits", 0) + c("crop_misses", 0)
    metrics.update({
        "render.rasterize.fragments": c("fragments", 0) / ops,
        "render.coherence.hit_share": (c("coherence.hits", 0)
                                       / max(1, c("coherence.frames", 0))),
        "hwmodel.crop_hit_share": c("crop_hits", 0) / max(1, crop),
        "hwmodel.tc_flushes": c("tc_flushes", 0) / ops,
        "hwmodel.fragments_blended": c("fragments_blended", 0) / ops,
        "hwmodel.sim_cycles": c("sim_cycles", 0) / ops,
        "trace.wall_ms": root_ms / ops,
        "trace.self_sum_ms": sum(self_ms.values()) / ops,
    })
    if "laps" in outcome:
        metrics["hwmodel.sim_speedup_geomean"] = geomean(
            s for lap in outcome["laps"] for s in lap["speedups"])
        metrics["engine.incidents"] = sum(
            lap["incidents"] for lap in outcome["laps"]) / ops
    else:
        metrics.update(outcome["serve"])
    return metrics


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "check"),
                        required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--input", type=Path)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--part", default="0/1",
                        help="check only share i of n (as i/n)")
    args = parser.parse_args(argv)
    out_dir = args.out.parent

    if args.mode == "check":
        outcome = json.loads(args.input.read_text(encoding="utf-8"))
        part, parts = (int(x) for x in args.part.split("/"))
        if args.workload == "serve-zipf":
            report = serve_check(outcome, part, parts)
        else:
            report = orbit_check(args.workload, outcome, part, parts)
        args.out.write_text(json.dumps(report), encoding="utf-8")
        return 0

    service = cache = None
    if args.workload == "serve-zipf":
        service, cache = serve_setup(out_dir)
    else:
        session = orbit_setup(args.workload, args.seed)
    setup_s = time.monotonic() - args.launched
    if args.mode == "setup":
        if service is not None:
            service.close()
            shutil.rmtree(cache.root, ignore_errors=True)
        args.out.write_text(json.dumps({"setup_s": setup_s}),
                            encoding="utf-8")
        return 0

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer_mod.install(tracer)
    try:
        if service is not None:
            outcome = serve_run(args.seed, args.seconds, service, cache)
        else:
            outcome = orbit_run(args.workload, args.seconds, session,
                                tracer)
    finally:
        if tracer is not None:
            tracer.remove()
    outcome["setup_s"] = setup_s
    outcome["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024.0)
    if cache is not None:
        shutil.rmtree(cache.root, ignore_errors=True)
    if tracer is not None:
        outcome["layers"] = layer_metrics(tracer, outcome)
        tracer.write(args.trace_file, extra={
            "workload": args.workload, "seed": args.seed,
            "laps_ms": [lap["wall_ms"] for lap in outcome.get("laps", [])],
            "laps_rss_mb": [lap["rss_mb"] for lap in outcome.get("laps", [])]})
    args.out.write_text(json.dumps(outcome), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
