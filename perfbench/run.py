"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload orbit-cold --seed 1 --seconds 27 --trace 0

Each run happens in fresh child processes (``workload.py``), so set-up
time and peak memory never carry a previous workload's residue:

``--trace 0``  two set-up-only processes plus the measured one give three
               ``setup_s`` samples (their median is reported); the measured
               process's outputs are then checked bit-for-bit by separate
               processes.  Prints every end-to-end metric of BENCHMARK.json.
``--trace 1``  an untraced and a traced run of the same inputs; prints every
               per-layer metric, the tracing overhead (traced minus untraced
               wall time per frame or request) and writes the spans to
               ``.perfbench_out/traces/``.

The last line of standard output is the JSON result.  Any failure to run
exits non-zero without printing one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import workload as wl  # noqa: E402  (no repro import at module level)

#: Fresh processes that measure set-up time; the median is reported.
SETUP_SAMPLES = 3
#: Concurrent processes the oracle check is split over (one per core).
CHECK_PROCS = 2
#: Wall-clock budget of one invocation, children included.
TIME_LIMIT_S = 170.0


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Spawns workload children under one deadline."""

    def __init__(self, args, run_dir):
        self.args = args
        self.run_dir = run_dir
        self.deadline = time.monotonic() + TIME_LIMIT_S
        # Program knobs stay at their defaults: no REPRO_* overrides leak
        # in from the caller's environment.
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.live = []

    def spawn(self, mode, tag, trace=0, extra=()):
        """Start one child; returns a handle for :meth:`wait`."""
        out = self.run_dir / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "workload.py"),
               "--workload", self.args.workload,
               "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds),
               "--mode", mode, "--trace", str(trace), "--out", str(out),
               *extra, "--launched", repr(time.monotonic())]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdout=sys.stderr, stderr=sys.stderr)
        self.live.append(proc)
        return proc, out, tag

    def wait(self, handle):
        """The child's JSON output, once it exited cleanly."""
        proc, out, tag = handle
        try:
            code = proc.wait(max(0.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{tag} process overran the time limit") \
                from None
        if code != 0:
            raise ChildFailed(f"{tag} process exited with code {code}")
        return json.loads(out.read_text(encoding="utf-8")), out

    def stop(self):
        """Kill and reap children that have not exited."""
        for proc in self.live:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        self.live = []

    def child(self, mode, tag, trace=0, extra=()):
        return self.wait(self.spawn(mode, tag, trace, extra))

    def check(self, path):
        """Oracle check split over ``CHECK_PROCS`` concurrent children."""
        handles = [self.spawn("check", f"check{i}", extra=(
            "--input", str(path), "--part", f"{i}/{CHECK_PROCS}"))
            for i in range(CHECK_PROCS)]
        reports = [self.wait(handle)[0] for handle in handles]
        return {key: sum(r[key] for r in reports)
                for key in ("checked", "mismatches")}


def same_outputs(a, b):
    """Mismatches between two runs' outputs on the inputs both covered."""
    if "laps" in a:
        return sum(x["records"] != y["records"]
                   for x, y in zip(a["laps"], b["laps"]))
    left = {c["id"]: c["aggregates"] for c in a["completed"]}
    return sum(left[c["id"]] != c["aggregates"]
               for c in b["completed"] if c["id"] in left)


def measure(runner):
    """``(metrics, attempted, failed, correct, notes)`` of one invocation."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if runner.args.trace:
        declared = spec["per_layer"]
        base, _ = runner.child("run", "untraced")
        trace_dir = OUT / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = (trace_dir / f"{runner.args.workload}"
                      f"-seed{runner.args.seed}.json")
        outcome, path = runner.child("run", "traced", trace=1,
                                     extra=("--trace-file", str(trace_file)))
        # A layer that never ran on this workload reports 0.
        values = {m["name"]: 0.0 for m in declared} | outcome["layers"]
        self_sum = values.pop("trace.self_sum_ms")
        wall = values["trace.wall_ms"]
        identity_ok = abs(self_sum - wall) <= 1e-6 * max(1.0, wall)
        overhead = outcome["wall_per_op_ms"] - base["wall_per_op_ms"]
        values["trace.overhead_ms"] = overhead
        values["trace.overhead_pct"] = 100.0 * overhead / max(
            base["wall_per_op_ms"], 1e-9)
        cross = same_outputs(base, outcome)
        notes = {"trace_file": str(trace_file.relative_to(ROOT)),
                 "self_sum_ms": self_sum, "untraced_vs_traced": cross}
    else:
        declared = spec["end_to_end"]
        setups = [runner.child("setup", f"setup{i}")[0]["setup_s"]
                  for i in range(SETUP_SAMPLES - 1)]
        outcome, path = runner.child("run", "run")
        setups.append(outcome["setup_s"])
        values = dict(outcome["e2e"], setup_s=statistics.median(setups),
                      peak_rss_mb=outcome["peak_rss_mb"])
        identity_ok, cross = True, 0
        notes = {"setup_s_samples": setups}
    check = runner.check(path)
    # An output no check process covered counts as a mismatch.
    expected = len(outcome["completed"]) if "completed" in outcome \
        else outcome["ops"]
    mismatches = check["mismatches"] + cross + abs(expected - check["checked"])
    lost = outcome.get("lost", 0)
    failed = mismatches + lost + outcome.get("failed", 0)
    correct = mismatches == 0 and lost == 0 and identity_ok
    notes.update(checked=check["checked"], mismatches=mismatches, lost=lost,
                 samples=outcome.get("samples"))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    return metrics, outcome["ops"], failed, correct, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still reaps its children (see the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from a full checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir()
    runner = Runner(args, run_dir)
    try:
        metrics, attempted, failed, correct, notes = measure(runner)
    except (ChildFailed, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
    for name, metric in metrics.items():
        print(f"{args.workload:14s} {name:36s} {metric['value']:14.4f} "
              f"{metric['unit']}")
    print(f"{args.workload:14s} notes {json.dumps(notes)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
