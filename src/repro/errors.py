"""Error taxonomy for fault-tolerant campaign execution.

Every failure mode the campaign layer can quarantine is a
:class:`ReproError` subclass, so the engine can catch *exactly* the
failures it knows how to handle and let genuine bugs propagate.  The
taxonomy (see docs/ROBUSTNESS.md):

``ReproError``
    ├── ``ConfigError``            — invalid :class:`CoreConfig` / engine parameters
    ├── ``SimulationError``        — a simulation raised instead of finishing
    │     ├── ``NonTerminatingSimulation`` — ``max_cycles`` watchdog tripped
    │     ├── ``InvariantViolation``       — ``REPRO_CHECK_INVARIANTS`` audit failed
    │     └── ``TransientError``           — retryable by policy (fault injection,
    │                                        flaky I/O)
    ├── ``WorkerCrash``            — a worker process died without reporting
    ├── ``JobTimeout``             — a job exceeded its wall-clock budget
    ├── ``CacheCorruption``        — a cache entry failed to deserialise
    ├── ``CampaignError``          — a campaign finished with quarantined failures
    ├── ``SyncViolation``          — the ``REPRO_SYNC_CHECKS`` sanitizer caught a
    │                                lock-order inversion or unguarded access
    └── ``ServiceError``           — the campaign service layer failed
          ├── ``ServiceUnavailable``  — no daemon behind the socket/endpoint
          ├── ``ServiceOverloaded``   — the daemon's bounded queue rejected a
          │                             submission (backpressure)
          └── ``ProtocolError``       — malformed or incompatible wire frame

:data:`RETRYABLE` lists the classes the campaign engine retries with
exponential backoff; anything else fails the same way on every attempt
(deterministic simulations), so retrying would only waste wall-clock.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class ReproError(Exception):
    """Base class for every failure the campaign layer can quarantine."""


class ConfigError(ReproError, ValueError):
    """An inconsistent or degenerate configuration, rejected at
    construction time (also a :class:`ValueError` for backwards
    compatibility with pre-taxonomy callers)."""


class SimulationError(ReproError):
    """A simulation raised instead of running to completion."""


class NonTerminatingSimulation(SimulationError):
    """The engine's ``max_cycles`` watchdog aborted a runaway
    simulation; ``snapshot`` carries the diagnostic state at abort."""

    def __init__(self, message: str,
                 snapshot: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.snapshot: Dict[str, Any] = snapshot or {}


class InvariantViolation(SimulationError):
    """The opt-in invariant checker (``REPRO_CHECK_INVARIANTS=1``)
    found a pipeline-model inconsistency."""


class TransientError(SimulationError):
    """A failure expected to succeed on retry (used by the
    fault-injection harness and for flaky I/O)."""


class WorkerCrash(ReproError):
    """A worker process exited without reporting a result (OOM kill,
    segfault, ``os._exit``)."""


class JobTimeout(ReproError):
    """A job exceeded its per-job wall-clock timeout and was killed by
    the campaign watchdog."""


class CacheCorruption(ReproError):
    """A persistent-cache entry could not be deserialised (torn write,
    stale schema, bit rot)."""


class CampaignError(ReproError):
    """A campaign completed with failures; ``ledger`` holds the full
    per-job accounting (results *and* quarantined failures)."""

    def __init__(self, message: str, ledger: Any = None) -> None:
        super().__init__(message)
        self.ledger = ledger


class SyncViolation(ReproError):
    """The runtime lock sanitizer (``REPRO_SYNC_CHECKS=1``,
    :mod:`repro.testing.synccheck`) caught a lock-order inversion or a
    guarded-attribute access without its guard lock held."""


class ServiceError(ReproError):
    """The campaign service layer (``repro serve`` and its clients)
    failed outside any individual simulation job."""


class ServiceUnavailable(ServiceError):
    """No live daemon answered on the service socket/endpoint (not
    running, crashed, or a stale socket file left by a killed
    daemon)."""


class ServiceOverloaded(ServiceError):
    """The daemon's job board is at its bounded queue depth
    (``repro serve --max-pending``) and rejected
    the submission instead of growing without bound.  Clients should
    back off and resubmit once in-flight work drains."""


class ProtocolError(ServiceError):
    """A wire frame could not be parsed or named an unknown operation
    or incompatible protocol version."""


#: Error classes the campaign engine retries (with exponential
#: backoff) before quarantining the job.
RETRYABLE = (JobTimeout, WorkerCrash, TransientError)


def taxonomy_name(exc: BaseException) -> str:
    """The taxonomy label recorded in a ``JobFailure`` ledger entry:
    the nearest :class:`ReproError` class name, or ``SimulationError``
    for arbitrary exceptions escaping a simulation."""
    if isinstance(exc, ReproError):
        return type(exc).__name__
    return SimulationError.__name__


__all__ = [
    "CacheCorruption",
    "CampaignError",
    "ConfigError",
    "InvariantViolation",
    "JobTimeout",
    "NonTerminatingSimulation",
    "ProtocolError",
    "RETRYABLE",
    "ReproError",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceUnavailable",
    "SimulationError",
    "SyncViolation",
    "TransientError",
    "WorkerCrash",
    "taxonomy_name",
]
