"""Runtime lock-order and guard-discipline sanitizer for the service tier.

The static rules (RL008-RL010, docs/LINTING.md) prove lock discipline
from the source; this module proves it from a *running* daemon.  Behind
``REPRO_SYNC_CHECKS=1`` (registered in :mod:`repro.envreg`, zero-cost
when off — exactly the ``REPRO_CHECK_INVARIANTS`` pattern) the service
wraps its locks in :class:`CheckedLock` proxies that

* record every acquisition into a global **acquisition graph** (an edge
  ``A -> B`` means some thread acquired ``B`` while holding ``A``) and
  flag a **lock-order inversion** the moment a new acquisition would
  close a cycle — the deadlock that has not happened *yet*;
* track per-thread held sets so :func:`guard_instance` can verify every
  access to a ``_GUARDED``-declared attribute happens with its guard
  lock held — the runtime half of RL008.

On violation the sanitizer dumps a report (held locks, the offending
edge, the acquisition graph, the stack) to stderr, records it for
:func:`reports`, and raises :class:`~repro.errors.SyncViolation` so the
chaos matrix fails loudly instead of deadlocking quietly.

When ``REPRO_SYNC_CHECKS`` is unset, :func:`wrap_lock` returns the raw
lock unchanged and :func:`guard_instance` is a no-op — the service pays
nothing (``tests/test_synccheck.py::test_off_returns_raw_lock`` pins
that).

The lock graph the service declares (docs/SERVICE.md §Locking) has one
edge::

    board._lock  ->  wal._lock

taken when ``JobBoard._log`` appends under the board lock.  The
daemon's ``_stats_lock``, ``_conns_lock`` and ``_cleanup_lock`` are
leaves that never nest around another service lock.
"""

from __future__ import annotations

import os
import sys
import threading
import traceback
from typing import Any, Dict, List, Optional, Set

from repro.errors import SyncViolation

#: The opt-in flag; anything but ""/"0" enables the sanitizer.
ENV_FLAG = "REPRO_SYNC_CHECKS"


def enabled() -> bool:
    """Whether the sanitizer is armed (``REPRO_SYNC_CHECKS=1``)."""
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


# ----------------------------------------------------------------------
# Global sanitizer state.  ``_meta`` guards the graph and the report
# log; it is only ever held for dict bookkeeping, never while acquiring
# a monitored lock, so it cannot participate in an inversion itself.
# ----------------------------------------------------------------------
_meta = threading.Lock()
#: Acquisition graph: edge A -> B when B was acquired while A was held.
_edges: Dict[str, Set[str]] = {}
#: Formatted violation reports, in order of occurrence.
_reports: List[str] = []
_acquisitions = 0
_wrapped = 0
_tls = threading.local()


def _held_stack() -> List["CheckedLock"]:
    stack: Optional[List[CheckedLock]] = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def _find_path(src: str, dst: str) -> Optional[List[str]]:
    """A path ``src -> ... -> dst`` through the acquisition graph
    (BFS under ``_meta``), or ``None``."""
    with _meta:
        parents: Dict[str, str] = {}
        frontier = [src]
        seen = {src}
        while frontier:
            node = frontier.pop(0)
            for succ in sorted(_edges.get(node, ())):
                if succ in seen:
                    continue
                parents[succ] = node
                if succ == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(parents[path[-1]])
                    return list(reversed(path))
                seen.add(succ)
                frontier.append(succ)
    return None


def _graph_snapshot() -> List[str]:
    with _meta:
        return [f"    {src} -> {dst}"
                for src in sorted(_edges)
                for dst in sorted(_edges[src])]


def _violate(kind: str, detail: str) -> None:
    """Record, dump, and raise one sanitizer violation."""
    held = ", ".join(lock.name for lock in _held_stack()) or "(none)"
    lines = [
        f"REPRO_SYNC_CHECKS violation [{kind}] "
        f"in thread {threading.current_thread().name!r}:",
        f"  {detail}",
        f"  locks held: {held}",
        "  acquisition graph:",
    ]
    lines.extend(_graph_snapshot() or ["    (empty)"])
    lines.append("  stack:")
    lines.extend("    " + entry.rstrip() for entry
                 in traceback.format_stack()[:-2])
    report = "\n".join(lines)
    with _meta:
        _reports.append(report)
    sys.stderr.write(report + "\n")
    raise SyncViolation(f"{kind}: {detail}")


# ----------------------------------------------------------------------
# The order-recording lock proxy.
# ----------------------------------------------------------------------
class CheckedLock:
    """A lock proxy that records acquisition order and ownership.

    Duck-compatible with ``threading.Lock`` — including the private
    ``_is_owned`` probe ``threading.Condition`` looks for, so a
    ``Condition(CheckedLock(...))`` works exactly like one built on a
    raw lock (``wait`` releases/re-acquires through the proxy and the
    bookkeeping follows).
    """

    def __init__(self, inner: Any, name: str) -> None:
        self._inner = inner
        self.name = name

    def _note_intent(self, check_order: bool) -> None:
        """Record would-be edges (held -> self) and, for blocking
        acquires, refuse an acquisition that closes a cycle."""
        global _acquisitions
        held = [lock.name for lock in _held_stack()
                if lock.name != self.name]
        if check_order:
            for name in held:
                path = _find_path(self.name, name)
                if path is not None:
                    _violate(
                        "lock-order-inversion",
                        f"acquiring {self.name!r} while holding "
                        f"{name!r}, but the recorded order is "
                        f"{' -> '.join(path)}")
        with _meta:
            _acquisitions += 1
            for name in held:
                _edges.setdefault(name, set()).add(self.name)

    def acquire(self, blocking: bool = True,
                timeout: float = -1) -> bool:
        self._note_intent(check_order=blocking)
        got = self._inner.acquire(blocking, timeout)
        if got:
            _held_stack().append(self)
        return got

    def release(self) -> None:
        stack = _held_stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is self:
                del stack[index]
                break
        self._inner.release()

    def locked(self) -> bool:
        return bool(self._inner.locked())

    def _is_owned(self) -> bool:
        """Whether the *current thread* holds this lock (the probe
        ``threading.Condition`` uses before wait/notify)."""
        return any(lock is self for lock in _held_stack())

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"CheckedLock({self.name!r})"


def wrap_lock(lock: Any, name: str) -> Any:
    """``lock`` itself when the sanitizer is off (zero cost), else a
    :class:`CheckedLock` proxy registered under ``name``."""
    global _wrapped
    if not enabled():
        return lock
    with _meta:
        _wrapped += 1
    return CheckedLock(lock, name)


# ----------------------------------------------------------------------
# Guarded-attribute enforcement (the runtime half of RL008).
# ----------------------------------------------------------------------
_checked_classes: Dict[type, type] = {}


def _guard_table(cls: type) -> Dict[str, str]:
    """The merged ``_GUARDED`` attribute -> lock-name table down the
    MRO (derived classes may extend their base's table)."""
    guarded: Dict[str, str] = {}
    for klass in reversed(cls.__mro__):
        table = klass.__dict__.get("_GUARDED")
        if isinstance(table, dict):
            guarded.update(table)
    return guarded


def _checked_class(cls: type, guarded: Dict[str, str]) -> type:
    cached = _checked_classes.get(cls)
    if cached is not None:
        return cached

    def _check(self: Any, attr: str) -> None:
        lock = object.__getattribute__(self, guarded[attr])
        if isinstance(lock, CheckedLock) and not lock._is_owned():
            _violate(
                "unguarded-access",
                f"{cls.__name__}.{attr} accessed without "
                f"{guarded[attr]!r} held (declared in "
                f"{cls.__name__}._GUARDED)")

    def __getattribute__(self: Any, attr: str) -> Any:
        if attr in guarded:
            _check(self, attr)
        return object.__getattribute__(self, attr)

    def __setattr__(self: Any, attr: str, value: Any) -> None:
        if attr in guarded:
            _check(self, attr)
        object.__setattr__(self, attr, value)

    checked = type(cls.__name__, (cls,), {
        "__getattribute__": __getattribute__,
        "__setattr__": __setattr__,
        "__module__": cls.__module__,
    })
    _checked_classes[cls] = checked
    return checked


def guard_instance(obj: Any) -> Any:
    """Arm runtime guard checks on ``obj`` (a no-op when the sanitizer
    is off, or when its class declares no ``_GUARDED`` table).

    Swaps the instance's class for a generated subclass whose attribute
    access consults the same ``_GUARDED`` table the static RL008 rule
    reads, against the current thread's held-lock set.  Call it at the
    *end* of ``__init__`` — construction happens before sharing, so
    the constructor itself is exempt (mirroring RL008)."""
    if not enabled():
        return obj
    guarded = _guard_table(type(obj))
    if not guarded:
        return obj
    obj.__class__ = _checked_class(type(obj), guarded)
    return obj


# ----------------------------------------------------------------------
# Introspection for tests and telemetry.
# ----------------------------------------------------------------------
def reports() -> List[str]:
    """Violation reports recorded so far (formatted strings)."""
    with _meta:
        return list(_reports)


def counters() -> Dict[str, int]:
    """Sanitizer telemetry for the ``service.sync`` stats group."""
    with _meta:
        return {"enabled": int(enabled()), "locks": _wrapped,
                "acquisitions": _acquisitions,
                "violations": len(_reports)}


def reset() -> None:
    """Clear the graph, reports, and counters (test isolation)."""
    global _acquisitions, _wrapped
    with _meta:
        _edges.clear()
        _reports.clear()
        _acquisitions = 0
        _wrapped = 0


__all__ = [
    "CheckedLock",
    "ENV_FLAG",
    "counters",
    "enabled",
    "guard_instance",
    "reports",
    "reset",
    "wrap_lock",
]
