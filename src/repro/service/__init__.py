"""Long-lived campaign service: the engine as a shared daemon.

``repro serve`` (docs/SERVICE.md) promotes the campaign engine from a
CLI batch tool to a multi-client backend: a daemon listens on a unix
socket, accepts sweep submissions as JSON frames, queues them by
priority, executes them through one
:class:`~repro.experiments.campaign.CampaignEngine` backed by the
shared :class:`~repro.experiments.campaign.ResultCache` tier, and
streams per-job progress back to any number of subscribed clients.

Layout
------
``protocol``
    The wire format: newline-delimited JSON frames, the request/event
    vocabulary, job (de)serialisation, and socket-path resolution.
``board``
    The job board: submissions, per-job records, dedup against
    in-flight *and* completed work, the per-submission event journals
    watchers replay, bounded queue depth (backpressure), and WAL
    snapshot/restore.
``wal``
    The write-ahead log that makes the board durable: append-only
    fsync'd records, torn-write-tolerant replay, and compaction; a log
    whose last record is not a ``seal`` is the crash evidence
    ``repro doctor`` reports.
``daemon``
    The server: socket lifecycle (including stale-socket takeover),
    WAL recovery on start, graceful SIGTERM drain, connection
    handling, the scheduler thread driving the engine, and
    ``service.*`` / ``cache.*`` telemetry (recovery stats and
    scheduler liveness included).
``client``
    Blocking client helpers used by ``repro submit`` / ``watch`` /
    ``jobs`` and the test-suite — with finite default timeouts and
    cursor-resuming reconnects (bounded exponential backoff).
"""

from repro.service.board import JobBoard, JobRecord, Submission
from repro.service.wal import WriteAheadLog
from repro.service.client import (
    fetch_stats,
    list_jobs,
    ping,
    shutdown,
    submit,
    watch,
)
from repro.service.daemon import ServiceDaemon
from repro.service.protocol import (
    PROTOCOL_VERSION,
    job_from_wire,
    job_to_wire,
    socket_path,
)

__all__ = [
    "JobBoard",
    "JobRecord",
    "PROTOCOL_VERSION",
    "ServiceDaemon",
    "Submission",
    "WriteAheadLog",
    "fetch_stats",
    "job_from_wire",
    "job_to_wire",
    "list_jobs",
    "ping",
    "shutdown",
    "socket_path",
    "submit",
    "watch",
]
