"""Runtime half of the chaos harness: plan installation and checkpoints.

The data model (plans, rules, the ``REPRO_FAULTS`` grammar, the
exception taxonomy) lives in :mod:`repro.faults.plan`; this module owns
the *process state*: the currently installed :class:`FaultPlan`, the
cooperative per-frame watchdog, and the :func:`checkpoint` entry point
the instrumented fast paths call.

Zero-cost when idle
-------------------
Instrumented sites guard every checkpoint with the module-level
:data:`ENABLED` flag::

    from repro import faults
    ...
    if faults.ENABLED:
        faults.checkpoint("digest")

With no plan installed and no watchdog armed, ``ENABLED`` is ``False``
and the instrumentation costs one attribute read and a predictable
branch — nothing else runs, so the fault harness stays off the hot path.
``ENABLED`` is recomputed whenever a plan is installed/cleared or a
watchdog is armed/disarmed.

Watchdog
--------
:func:`watchdog` arms a cooperative deadline for the calling thread.
Checkpoints compare ``time.monotonic()`` against the deadline and raise
:class:`WatchdogTimeout` when it has passed; injected stalls sleep in
short slices so a stall cannot outlive the budget.  The watchdog is
cooperative by design — the simulator is pure compute, and checkpoints
sit on every fast path — so no threads are killed and no signals fire.

A ``REPRO_FAULTS`` environment plan, when set, is installed at import
time; :func:`active` temporarily overrides whatever is installed (used
by the chaos tests and the ``--faults`` CLI option).
"""

from __future__ import annotations

import contextlib
import threading
import time

from repro.faults.plan import (
    KINDS,
    POINTS,
    CorruptDataError,
    FaultInjected,
    FaultPlan,
    FaultRule,
    InjectedOSError,
    WatchdogTimeout,
)
from repro.knobs import env as _knobs_env

__all__ = [
    "ENABLED", "POINTS", "KINDS",
    "FaultPlan", "FaultRule",
    "FaultInjected", "CorruptDataError", "InjectedOSError",
    "WatchdogTimeout",
    "install_plan", "clear_plan", "current_plan", "active",
    "watchdog", "watchdog_paused", "checkpoint", "corrupt_detected",
]

#: Fast-path guard: True iff a plan is installed or a watchdog is armed.
ENABLED = False

_PLAN = None
_LOCK = threading.Lock()
_TLS = threading.local()
_WATCHDOGS = 0

#: Injected stalls sleep in slices this long so the watchdog can cut in.
_STALL_SLICE_S = 0.005


def _refresh():
    global ENABLED
    ENABLED = _PLAN is not None or _WATCHDOGS > 0


def install_plan(plan):
    """Install ``plan`` process-wide (``None`` clears); returns the plan."""
    global _PLAN
    if plan is not None and not isinstance(plan, FaultPlan):
        plan = FaultPlan.parse(plan)
    with _LOCK:
        _PLAN = plan
        _refresh()
    return plan


def clear_plan():
    """Remove the installed plan (watchdogs, if any, stay armed)."""
    install_plan(None)


def current_plan():
    """The installed :class:`FaultPlan`, or ``None``."""
    return _PLAN


@contextlib.contextmanager
def active(plan):
    """Temporarily install ``plan``, restoring the previous plan on exit."""
    global _PLAN
    if plan is not None and not isinstance(plan, FaultPlan):
        plan = FaultPlan.parse(plan)
    with _LOCK:
        previous = _PLAN
        _PLAN = plan
        _refresh()
    try:
        yield plan
    finally:
        with _LOCK:
            _PLAN = previous
            _refresh()


@contextlib.contextmanager
def watchdog(budget_ms):
    """Arm a cooperative deadline for this thread (``None`` is a no-op).

    Checkpoints reached after ``budget_ms`` milliseconds raise
    :class:`WatchdogTimeout`.  Nests safely: the inner deadline wins
    while active, and the outer one is restored on exit.
    """
    global _WATCHDOGS
    if budget_ms is None:
        yield
        return
    budget_ms = float(budget_ms)
    previous = getattr(_TLS, "deadline", None)
    _TLS.deadline = (time.monotonic() + budget_ms / 1e3, budget_ms)
    with _LOCK:
        _WATCHDOGS += 1
        _refresh()
    try:
        yield
    finally:
        _TLS.deadline = previous
        with _LOCK:
            _WATCHDOGS -= 1
            _refresh()


@contextlib.contextmanager
def watchdog_paused():
    """Exclude the enclosed wall time from this thread's watchdog budget.

    For waits that are not the frame's own work (a lane waiting for its
    frame's turn at the ordered coherence section): on exit the armed
    deadline moves later by the time spent inside.
    """
    deadline = getattr(_TLS, "deadline", None)
    if deadline is None:
        yield
        return
    t0 = time.monotonic()
    try:
        yield
    finally:
        _TLS.deadline = (deadline[0] + time.monotonic() - t0, deadline[1])


def _check_deadline(point):
    deadline = getattr(_TLS, "deadline", None)
    if deadline is not None and time.monotonic() >= deadline[0]:
        raise WatchdogTimeout(point, deadline[1])


def _stall(point, delay_ms):
    """Sleep ``delay_ms`` in watchdog-interruptible slices."""
    end = time.monotonic() + delay_ms / 1e3
    while True:
        _check_deadline(point)
        remaining = end - time.monotonic()
        if remaining <= 0:
            return
        time.sleep(min(remaining, _STALL_SLICE_S))


def checkpoint(point):
    """Evaluate the harness at a named point.

    Checks the thread's watchdog deadline, then draws from the installed
    plan.  ``raise``/``oserror`` rules raise; ``stall`` rules sleep and
    return ``None``; ``corrupt`` rules return the fired
    :class:`FaultRule` so the call site can corrupt its own data product
    (sites without a corruptible data channel treat it as a detected
    :class:`CorruptDataError`).  Returns ``None`` when nothing fires.
    """
    _check_deadline(point)
    plan = _PLAN
    if plan is None:
        return None
    rule = plan.draw(point)
    if rule is None:
        return None
    if rule.kind == "raise":
        raise FaultInjected(point)
    if rule.kind == "oserror":
        raise InjectedOSError(point)
    if rule.kind == "stall":
        _stall(point, rule.delay_ms)
        return None
    return rule  # "corrupt": the site owns the corruption


def corrupt_detected(point, detail=None):
    """Raise :class:`CorruptDataError` for ``point`` (integrity guards)."""
    raise CorruptDataError(point, detail)


_ENV_PLAN = _knobs_env("REPRO_FAULTS").strip()
if _ENV_PLAN:
    install_plan(FaultPlan.parse(_ENV_PLAN))
del _ENV_PLAN
