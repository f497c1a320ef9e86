"""Command-line interface: render scenes, simulate variants, run experiments.

Usage::

    python -m repro render  --scene train --out train.ppm
    python -m repro simulate --scene truck [--variant het+qm] [--all]
    python -m repro trajectory --scene train --backend hw:het+qm --views 24
    python -m repro serve --clients 8 --requests 3 [--faults PLAN] [--json]
    python -m repro bench [--suite rasterize] [--quick] [--baseline BENCH_prev.json]
    python -m repro experiment fig16
    python -m repro list-scenes
    python -m repro lint [--format json] [--rules R1,R4]

The CLI wraps the library's main entry points so the reproduction can be
driven without writing Python.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import sys

from repro import faults
from repro.core.vrpipe import VARIANTS, run_all_variants, run_variant
from repro.engine.backends import available_backends
from repro.engine.cache import ResultCache
from repro.engine.session import RenderSession
from repro.experiments.runner import format_table
from repro.gaussians.preprocess import preprocess
from repro.hwmodel.report import compare_variants, draw_report
from repro.knobs import COHERENCE_MODES, IR_MODES
from repro.perf.report import (
    check_report,
    load_report,
    suite_report,
    write_report,
)
from repro.perf.suite import SUITES, run_suite
from repro.render.image_io import write_ppm
from repro.render.splat_raster import rasterize_splats
from repro.workloads.catalog import (
    BENCH_SCENES,
    LARGE_SCALE_SCENES,
    SCENARIO_SCENES,
    SCENES,
    build_scene,
    get_profile,
)

_ALL_SCENES = {**SCENES, **LARGE_SCALE_SCENES, **BENCH_SCENES,
               **SCENARIO_SCENES}

_EXPERIMENTS = (
    "fig01", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11",
    "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23",
    "tables", "ablations", "all",
)

_EXPERIMENT_MODULES = {
    "fig01": "fig01_unit_counts", "fig05": "fig05_sw_vs_hw",
    "fig06": "fig06_utilization", "fig07": "fig07_frags_per_pixel",
    "fig08": "fig08_cuda_early_term", "fig09": "fig09_warp_occupancy",
    "fig10": "fig10_inshader", "fig11": "fig11_multipass",
    "fig16": "fig16_speedup", "fig17": "fig17_end_to_end",
    "fig18": "fig18_reduction", "fig19": "fig19_energy",
    "fig20": "fig20_microbench", "fig21": "fig21_et_ratio",
    "fig22": "fig22_gscore", "fig23": "fig23_large_scale",
    "tables": "tables", "ablations": "ablations", "all": "run_all",
}


def _build_stream(scene_name, seed, ir="auto"):
    profile = get_profile(scene_name)
    cloud = build_scene(profile, seed=seed)
    camera = profile.camera()
    pre = preprocess(cloud, camera)
    stream = rasterize_splats(pre.splats, camera.width, camera.height, ir=ir)
    return profile, stream


def cmd_list_scenes(_args):
    print(f"{'scene':>9} {'type':>10} {'dataset':>15} {'repro size':>12} "
          f"{'#gaussians':>11}")
    for name, p in _ALL_SCENES.items():
        print(f"{name:>9} {p.scene_type:>10} {p.dataset:>15} "
              f"{p.width}x{p.height:<7} {p.n_gaussians:>11,}")
    return 0


def cmd_render(args):
    profile, stream = _build_stream(args.scene, args.seed)
    image, alpha = stream.blend_image(early_term=args.early_term)
    out = args.out or f"{profile.name}.ppm"
    write_ppm(out, image)
    print(f"rendered {profile.name} ({profile.width}x{profile.height}, "
          f"{len(stream):,} fragments) -> {out}")
    print(f"early-termination ratio: {stream.termination_ratio():.2f}")
    return 0


def cmd_simulate(args):
    _profile, stream = _build_stream(args.scene, args.seed, ir=args.ir)
    if args.all:
        results = run_all_variants(stream)
        print(compare_variants(results))
        return 0
    result = run_variant(stream, args.variant)
    print(draw_report(result, title=f"{args.scene} / {args.variant}"))
    return 0


def cmd_trajectory(args):
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    baseline = None if args.baseline == "none" else args.baseline
    session = RenderSession(
        args.scene, backend=args.backend, baseline=baseline,
        device=args.device, seed=args.seed,
        warm_crop_cache=args.warm_crop_cache, result_cache=cache,
        ir=args.ir, coherence=args.coherence, strict=args.strict,
        watchdog_ms=args.watchdog_ms)
    # --faults overrides any $REPRO_FAULTS plan for this run; without it
    # the environment plan (if any) stays in effect.
    plan = faults.FaultPlan.parse(args.faults) if args.faults else None
    context = (faults.active(plan) if plan is not None
               else contextlib.nullcontext())
    with context:
        trajectory = session.run(n_views=args.views, jobs=args.jobs,
                                 raster_jobs=args.raster_jobs)

    if args.json:
        payload = {
            "scene": trajectory.scene,
            "backend": trajectory.backend,
            "baseline": trajectory.baseline,
            "device": trajectory.device,
            "views": trajectory.n_frames,
            "from_cache": trajectory.from_cache,
            "aggregates": trajectory.aggregates(),
            "incident_summary": trajectory.incident_summary(),
            "incidents": trajectory.incidents(),
        }
        if cache is not None:
            payload["cache"] = cache.stats()
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0

    rows = []
    for rec in trajectory.records:
        rows.append([
            rec.index,
            rec.ms if rec.ms is not None else "-",
            rec.fps if rec.fps is not None else "-",
            rec.et_ratio if rec.et_ratio is not None else "-",
            rec.speedup if rec.speedup is not None else "-",
        ])
    source = " (from disk cache)" if trajectory.from_cache else ""
    print(format_table(
        ["Frame", "ms", "FPS", "ET ratio", "Speedup"], rows,
        title=(f"Trajectory: {trajectory.scene} / {trajectory.backend} "
               f"on {trajectory.device}, {trajectory.n_frames} views"
               f"{source}")))
    print()
    agg = trajectory.aggregates()
    print(format_table(
        ["Aggregate", "Value"],
        [[key, agg[key]] for key in sorted(agg)],
        title="Aggregates"))
    incidents = trajectory.incidents()
    if incidents:
        print()
        rows = [[inc["frame"], inc["rung"], inc.get("point") or "-",
                 inc.get("recovered_by") or "-",
                 f"{inc.get('wall_ms', 0.0):.1f}",
                 inc["error"]]
                for inc in incidents]
        summary = trajectory.incident_summary()
        print(format_table(
            ["Frame", "Failed rung", "Point", "Recovered by", "Lost ms",
             "Error"], rows,
            title=(f"Incidents: {summary['count']} on "
                   f"{summary.get('frames_affected', 0)} frame(s) — all "
                   "frames bit-identical to the fault-free run")))
    if cache is not None:
        stats = cache.stats()
        print()
        print(format_table(
            ["Cache", "Value"],
            [[key, stats[key]] for key in sorted(stats)],
            title=f"Result cache: {args.cache_dir}"))
    return 0


def cmd_serve(args):
    # Deferred import: the serving layer pulls in the worker pool and
    # load generator, which only this subcommand needs.
    from repro.serve import LoadSpec, RenderService, run_load

    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    plan = faults.FaultPlan.parse(args.faults) if args.faults else None
    context = (faults.active(plan) if plan is not None
               else contextlib.nullcontext())
    spec = LoadSpec(
        clients=args.clients, requests_per_client=args.requests,
        scenes=tuple(args.scenes.split(",")),
        backends=(args.backend,),
        views_choices=tuple(int(v) for v in args.views.split(",")),
        seed=args.seed, deadline_ms=args.deadline_ms,
        warm_fraction=args.warm_fraction,
        high_fraction=args.high_fraction, think_ms=args.think_ms)
    with context:
        with RenderService(workers=args.workers,
                           queue_limit=args.queue_limit,
                           shed_at=args.shed_at, device=args.device,
                           result_cache=cache,
                           max_residents=args.max_residents) as service:
            report = run_load(service, spec)
    kpis = report.kpis()
    if args.json:
        json.dump({"kpis": kpis, "service": report.service_stats},
                  sys.stdout, indent=2, sort_keys=True, default=str)
        sys.stdout.write("\n")
        return 0 if kpis["lost"] == 0 else 1
    plan_note = f" under faults '{args.faults}'" if args.faults else ""
    print(format_table(
        ["KPI", "Value"],
        [[key, kpis[key]] for key in sorted(kpis) if key != "by_reason"],
        title=(f"repro serve: {spec.clients} clients x "
               f"{spec.requests_per_client} requests{plan_note}")))
    if kpis["by_reason"]:
        print()
        print(format_table(
            ["Outcome", "Count"],
            [[key, count]
             for key, count in sorted(kpis["by_reason"].items())],
            title="Rejections / failures by reason"))
    breaker = report.service_stats.get("breaker", {})
    if breaker.get("transitions"):
        print()
        print(format_table(
            ["Seq", "From", "To", "At completion"],
            [[t["seq"], t["from"], t["to"], t["completions"]]
             for t in breaker["transitions"]],
            title="Breaker transitions"))
    if kpis["lost"]:
        print(f"\nERROR: {kpis['lost']} request(s) lost", file=sys.stderr)
        return 1
    return 0


def cmd_bench(args):
    suites = sorted(SUITES) if args.suite == "all" else [args.suite]
    if args.out and len(suites) > 1:
        raise SystemExit(
            "--out names a single report file; with --suite all each suite "
            "writes its own BENCH_<suite>.json, so drop --out or pick one "
            "suite")
    baseline = load_report(args.baseline) if args.baseline else None
    failures = 0
    for name in suites:
        run = run_suite(name, quick=args.quick, scene=args.scene,
                        repeat=args.repeat)
        report = suite_report(run, baseline=baseline)
        rows = []
        for row in report["benchmarks"]:
            mfrag = row.get("fragments_per_sec")
            speedup = row.get("speedup_vs_scalar")
            rows.append([
                row["name"], row["scene"], f"{row['median_ms']:.2f}",
                f"{mfrag / 1e6:.2f}" if mfrag else "-",
                f"{speedup:.2f}x" if speedup else "-",
            ])
        mode = " (quick)" if args.quick else ""
        print(format_table(
            ["Benchmark", "Scene", "Median ms", "Mfrag/s", "Speedup"],
            rows, title=f"Suite: {name}{mode}"))
        comparison = report.get("speedup_vs_baseline") or {}
        noise = report.get("noise_vs_baseline") or {}
        for bench, speedup in sorted(comparison.items()):
            verdict = noise.get(bench)
            # A delta below the combined repeat spread of the two runs is
            # scheduling jitter, not a real change — say so inline so a
            # 0.95x row doesn't read as a regression.
            tag = ""
            if verdict is not None and verdict["within_noise"]:
                tag = (f"  (within noise: ±{verdict['noise_floor']:.1%} "
                       "repeat spread)")
            print(f"  vs baseline {bench}: {speedup:.2f}x{tag}")
        out = args.out or f"BENCH_{name}.json"
        if args.check:
            # Advisory regression tripwire: compare against the checked-in
            # report instead of overwriting it.
            try:
                reference = load_report(out)
            except OSError as exc:
                raise SystemExit(
                    f"--check needs an existing reference report: {exc}")
            if bool(reference.get("quick")) != args.quick:
                raise SystemExit(
                    f"{out} was recorded with quick={reference.get('quick')}"
                    f"; rerun --check with matching sizing (quick medians "
                    "and full medians are different workloads)")
            regressions = check_report(report, reference,
                                       tolerance=args.check_tolerance)
            if regressions:
                failures += len(regressions)
                for bench, ratio in regressions:
                    print(f"  REGRESSION {bench}: {ratio:.2f}x slower than "
                          f"{out}")
            else:
                print(f"  within {args.check_tolerance:.0%} of {out}")
        else:
            write_report(report, out)
            print(f"wrote {out}")
        print()
    return 1 if failures else 0


def cmd_experiment(args):
    module_name = _EXPERIMENT_MODULES[args.name]
    module = importlib.import_module(f"repro.experiments.{module_name}")
    module.main()
    return 0


def cmd_lint(args):
    # Deferred import: the analysis engine is only needed by this
    # subcommand and pulls in the whole-tree scanner.
    from repro.analysis import (
        BASELINE_NAME,
        counts,
        format_json,
        format_text,
        repo_root,
        run_lint,
        write_baseline,
    )

    rules = ([rule.strip() for rule in args.rules.split(",")
              if rule.strip()] if args.rules else None)
    findings = run_lint(paths=args.paths or None, rules=rules,
                        baseline=args.baseline)
    if args.write_baseline:
        target = args.baseline or str(repo_root() / BASELINE_NAME)
        written = write_baseline(target, findings)
        print(f"wrote {written} baseline entries to {target}")
        return 0
    if args.fmt == "json":
        sys.stdout.write(format_json(findings))
    else:
        print(format_text(findings, show_all=args.show_all))
    return 1 if counts(findings)["active"] else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VR-Pipe reproduction command-line interface")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-scenes", help="list evaluation workloads")

    render = sub.add_parser("render", help="render a scene to a PPM image")
    render.add_argument("--scene", required=True,
                        choices=sorted(_ALL_SCENES))
    render.add_argument("--out", default=None, help="output .ppm path")
    render.add_argument("--seed", type=int, default=0)
    render.add_argument("--early-term", action="store_true",
                        help="apply early termination while blending")

    simulate = sub.add_parser(
        "simulate", help="simulate a draw call on the hardware model")
    simulate.add_argument("--scene", required=True,
                          choices=sorted(_ALL_SCENES))
    simulate.add_argument("--variant", default="het+qm",
                          choices=sorted(VARIANTS))
    simulate.add_argument("--all", action="store_true",
                          help="run and compare all four variants")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--ir", default="auto",
                          choices=IR_MODES,
                          help="rasterise with a FrameIR (auto) or emit a "
                               "bare stream so every consumer takes its "
                               "sort-based oracle (legacy); bit-identical")

    trajectory = sub.add_parser(
        "trajectory",
        help="simulate a multi-frame orbit trajectory through one backend")
    trajectory.add_argument("--scene", required=True,
                            choices=sorted(_ALL_SCENES))
    trajectory.add_argument("--backend", default="hw:het+qm",
                            choices=available_backends())
    trajectory.add_argument("--views", type=int, default=8,
                            help="number of orbit viewpoints (default 8)")
    trajectory.add_argument("--jobs", type=int, default=1,
                            help="parallel frame workers (default serial)")
    trajectory.add_argument("--raster-jobs", type=int, default=None,
                            help="threads for the rasteriser's fragment "
                                 "blocks inside each frame (bit-identical "
                                 "streams; orthogonal to --jobs)")
    trajectory.add_argument("--seed", type=int, default=0)
    trajectory.add_argument("--device", default="orin",
                            choices=("orin", "rtx3090"))
    trajectory.add_argument(
        "--baseline", default="auto",
        choices=("auto", "none") + tuple(available_backends()),
        help="backend compared against for per-frame speedups")
    trajectory.add_argument("--warm-crop-cache", action="store_true",
                            help="persist the CROP cache across frames "
                                 "(serial only)")
    trajectory.add_argument("--cache-dir", default=None,
                            help="on-disk trajectory result cache directory")
    trajectory.add_argument("--ir", default="auto",
                            choices=IR_MODES,
                            help="rasterise with a FrameIR (auto) or emit "
                                 "bare streams so digestion and the cuda "
                                 "models take their sort-based oracles "
                                 "(legacy); bit-identical")
    trajectory.add_argument("--coherence", default="auto",
                            choices=COHERENCE_MODES,
                            help="cross-frame digestion reuse against the "
                                 "previous frames' digested state "
                                 "(bit-identical; bypassed by --jobs > 1)")
    trajectory.add_argument("--faults", default=None,
                            help="seeded fault-injection plan, e.g. "
                                 "'seed=7; digest:raise,times=1; "
                                 "lru.replay:corrupt,p=0.5' (overrides "
                                 "$REPRO_FAULTS; see repro.faults)")
    trajectory.add_argument("--strict", action="store_true",
                            help="raise frame failures through instead of "
                                 "healing them via the degradation ladder")
    trajectory.add_argument("--watchdog-ms", type=float, default=None,
                            help="per-frame-attempt wall-clock budget; "
                                 "overruns fail the attempt and enter the "
                                 "degradation ladder")
    trajectory.add_argument("--json", action="store_true",
                            help="emit aggregates, incident summary and "
                                 "cache stats as JSON instead of tables")

    serve = sub.add_parser(
        "serve",
        help="drive the request-serving layer with synthetic clients and "
             "report serving KPIs (admission, deadlines, breaker, "
             "residency)")
    serve.add_argument("--clients", type=int, default=4,
                       help="closed-loop synthetic clients (default 4)")
    serve.add_argument("--requests", type=int, default=2,
                       help="requests submitted per client (default 2)")
    serve.add_argument("--scenes", default="lego",
                       help="comma-separated scene mix (default lego)")
    serve.add_argument("--backend", default="hw:het+qm",
                       choices=available_backends())
    serve.add_argument("--views", default="1,2",
                       help="comma-separated per-request view-count "
                            "choices (default 1,2)")
    serve.add_argument("--workers", type=int, default=None,
                       help="worker-pool size (default $REPRO_SERVE_WORKERS "
                            "or 2)")
    serve.add_argument("--queue-limit", type=int, default=None,
                       help="bounded queue depth (default $REPRO_SERVE_QUEUE "
                            "or 16)")
    serve.add_argument("--shed-at", type=int, default=None,
                       help="queue depth at which normal-priority requests "
                            "are shed (default 3/4 of the queue limit)")
    serve.add_argument("--max-residents", type=int, default=4,
                       help="bounded LRU size of resident scenes (default 4)")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="per-request deadline applied to every "
                            "generated request")
    serve.add_argument("--warm-fraction", type=float, default=0.0,
                       help="fraction of requests opting into the resident "
                            "warm CROP cache")
    serve.add_argument("--high-fraction", type=float, default=0.0,
                       help="fraction of requests submitted at high "
                            "priority (bypasses shedding)")
    serve.add_argument("--think-ms", type=float, default=0.0,
                       help="client think time between requests")
    serve.add_argument("--seed", type=int, default=0,
                       help="load-mix seed (per-client request streams "
                            "derive deterministically from it)")
    serve.add_argument("--device", default="orin",
                       choices=("orin", "rtx3090"))
    serve.add_argument("--cache-dir", default=None,
                       help="shared on-disk trajectory result cache "
                            "directory")
    serve.add_argument("--faults", default=None,
                       help="seeded fault-injection plan active for the "
                            "whole run (see repro.faults)")
    serve.add_argument("--json", action="store_true",
                       help="emit the KPI report as JSON")

    bench = sub.add_parser(
        "bench", help="run a performance suite and write BENCH_<suite>.json")
    bench.add_argument("--suite", default="rasterize",
                       choices=sorted(SUITES) + ["all"],
                       help="benchmark suite to run (default rasterize)")
    bench.add_argument("--quick", action="store_true",
                       help="CI-sized run: small scene, minimal repeats")
    bench.add_argument("--scene", default=None, choices=sorted(_ALL_SCENES),
                       help="override the suite's default scene")
    bench.add_argument("--repeat", type=int, default=None,
                       help="override the suite's repeat count")
    bench.add_argument("--baseline", default=None,
                       help="earlier BENCH_*.json to compute speedups against")
    bench.add_argument("--out", default=None,
                       help="output JSON path (default BENCH_<suite>.json)")
    bench.add_argument("--check", action="store_true",
                       help="compare fresh medians against the checked-in "
                            "BENCH_<suite>.json instead of overwriting it; "
                            "exit non-zero on large regressions (advisory "
                            "tripwire, not a hard gate)")
    bench.add_argument("--check-tolerance", type=float, default=0.5,
                       help="allowed slowdown before --check fails "
                            "(default 0.5 = 50%%)")

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper table/figure")
    experiment.add_argument("name", choices=_EXPERIMENTS)

    lint = sub.add_parser(
        "lint", help="run the repo's static invariant checker (rules "
                     "R1-R6; see README 'Static analysis')")
    lint.add_argument("paths", nargs="*",
                      help="files/directories to scan, repo-relative "
                           "(default: src)")
    lint.add_argument("--rules", default=None,
                      help="comma-separated rule ids to run (default: all)")
    lint.add_argument("--baseline", default=None,
                      help="baseline file of grandfathered findings "
                           "(default: .repro-lint-baseline.json at the "
                           "repo root when present)")
    lint.add_argument("--write-baseline", action="store_true",
                      help="record current active findings into the "
                           "baseline file and exit 0")
    lint.add_argument("--format", dest="fmt", default="text",
                      choices=("text", "json"),
                      help="report format; json is sorted and "
                           "timestamp-free, stable to diff across PRs")
    lint.add_argument("--show-all", action="store_true",
                      help="also list suppressed and baselined findings "
                           "in text output")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "list-scenes": cmd_list_scenes,
        "render": cmd_render,
        "simulate": cmd_simulate,
        "trajectory": cmd_trajectory,
        "serve": cmd_serve,
        "bench": cmd_bench,
        "experiment": cmd_experiment,
        "lint": cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
