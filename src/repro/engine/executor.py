"""Frame lanes and deterministic per-frame seeding.

:func:`run_frames` runs tasks over *lanes*: worker threads that pick
tasks up in task order and return results in task order.  The
simulation is NumPy-heavy and the large array operations release the
GIL, so lanes overlap on real cores, and every lane shares the read-only
scene cloud with zero copies.  State carried across frames is the
caller's to order: :class:`~repro.engine.session.RenderSession` funnels
each frame's coherence classify→capture section through a frame-ordered
turn, so any lane count produces bit-identical records.  A warm CROP
cache is carried by every draw and keeps its sessions on one lane.
Each frame also carries a deterministic seed (see
:func:`frame_seed`) so backends that do draw randomness stay
reproducible across lanes and reruns.

This module also owns the structured failure types of the self-healing
frame executor (see :class:`~repro.engine.session.RenderSession`):
:class:`FrameIncident` records one recovered (or fatal) fault, and
:class:`FrameLadderExhausted` is raised when every degradation rung
failed.
"""

from __future__ import annotations

import os
import time
import zlib
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait


def frame_seed(scene_name, base_seed, index):
    """Deterministic, process-independent seed for one trajectory frame.

    Uses crc32 rather than ``hash()`` (which varies with PYTHONHASHSEED),
    so parallel workers, reruns, and disk-cache entries all agree.  The
    built-in backends are pure functions of (cloud, camera) and draw no
    randomness; the seed is recorded on each frame's record so stochastic
    backends (sampling, jittered viewpoints) plug in without changing the
    reproducibility story.
    """
    token = f"{scene_name}:{int(base_seed)}:{int(index)}".encode("ascii")
    return zlib.crc32(token) & 0x7FFFFFFF


class FrameIncident:
    """One fault encountered (and usually healed) while rendering a frame.

    ``rung`` is the degradation-ladder rung that was *running* when the
    fault struck; ``recovered_by`` is the rung that eventually produced
    the frame (``None`` while unresolved, or when the ladder exhausted).
    ``point`` is the named injection/failure point when the exception
    carried one.  ``wall_ms`` is the wall-clock cost of the failed
    attempt — incidents are operational telemetry, so unlike the modeled
    per-frame numbers this is measured time.  ``ts_ms`` is a monotonic
    timestamp (``time.monotonic() * 1e3``, captured at construction
    unless supplied) so incident trails from concurrent requests can be
    interleaved into one service-wide timeline.
    """

    __slots__ = ("frame", "rung", "point", "error", "recovered_by",
                 "wall_ms", "ts_ms")

    def __init__(self, frame, rung, error, point=None, recovered_by=None,
                 wall_ms=0.0, ts_ms=None):
        self.frame = int(frame)
        self.rung = rung
        self.point = point
        self.error = error
        self.recovered_by = recovered_by
        self.wall_ms = float(wall_ms)
        self.ts_ms = (time.monotonic() * 1e3 if ts_ms is None
                      else float(ts_ms))

    def to_dict(self):
        return {"frame": self.frame, "rung": self.rung, "point": self.point,
                "error": self.error, "recovered_by": self.recovered_by,
                "wall_ms": self.wall_ms, "ts_ms": self.ts_ms}

    @classmethod
    def from_dict(cls, payload):
        return cls(payload["frame"], payload["rung"], payload["error"],
                   point=payload.get("point"),
                   recovered_by=payload.get("recovered_by"),
                   wall_ms=payload.get("wall_ms", 0.0),
                   ts_ms=payload.get("ts_ms", 0.0))

    def __repr__(self):
        return (f"FrameIncident(frame={self.frame}, rung={self.rung!r}, "
                f"point={self.point!r}, recovered_by={self.recovered_by!r})")


class FrameLadderExhausted(RuntimeError):
    """Every rung of a frame's degradation ladder failed.

    Carries the frame's identity and the full incident trail so callers
    (and operators) see exactly what was tried.
    """

    def __init__(self, index, seed, incidents):
        self.index = int(index)
        self.seed = int(seed)
        self.incidents = list(incidents)
        last = self.incidents[-1].error if self.incidents else "unknown"
        super().__init__(
            f"frame {self.index} (seed {self.seed}) failed every "
            f"degradation rung ({len(self.incidents)} attempts); "
            f"last error: {last}")


#: Upper bound of the automatic lane count: the second lane is where the
#: measured gain is (the frame's serial ordered section bounds the rest).
MAX_AUTO_LANES = 2


def auto_lanes():
    """Lanes a trajectory uses by default: ``min(2, usable cores)``."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cores = os.cpu_count() or 1
    return max(1, min(MAX_AUTO_LANES, cores))


def run_frames(fn, tasks, jobs=1):
    """Apply ``fn`` to every task over ``jobs`` lanes (worker threads).

    Tasks start in task order (the pool's queue is FIFO), so a task that
    waits for its predecessors never waits on one that has not started.
    Results come back in task order.  A failure cancels the tasks not yet
    started, lets the started ones finish, and re-raises — unwrapped —
    the exception of the earliest failed task: the one a serial loop
    (``jobs <= 1``, run in the calling thread) would have raised.
    """
    tasks = list(tasks)
    if jobs is None or jobs <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=int(jobs)) as pool:
        futures = [pool.submit(fn, task) for task in tasks]
        wait(futures, return_when=FIRST_EXCEPTION)
        # Cancels only the not-yet-started suffix (a no-op when all
        # succeeded); the earliest failed task precedes it, so collecting
        # in order raises that task's exception before reaching one.
        for future in futures:
            future.cancel()
        return [future.result() for future in futures]
