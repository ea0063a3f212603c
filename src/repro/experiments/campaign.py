"""Parallel experiment campaigns: fan-out, persistent cache, fault
tolerance.

A paper-scale evaluation is a *campaign*: hundreds of independent
``(workload, core, predictor, length, warmup)`` simulations whose
results feed the figure drivers.  This module gives campaigns four
things the plain :class:`~repro.experiments.runner.Runner` loop lacks:

* **Jobs** — :class:`Job` is the unit of work.  Jobs are value objects,
  so a campaign can be deduplicated before anything runs (Figures 6, 8
  and 9 all need FVP-on-Skylake; the engine simulates it once).
* **Fan-out** — :class:`CampaignEngine` runs jobs over a watchdog-
  supervised worker pool (``jobs=N``, default ``os.cpu_count()``).
  The campaign orders its jobs workload-major and builds each distinct
  generated trace once, in the parent, dropping it after its last job
  has been dispatched.  A forked worker inherits its job's trace
  through ``fork`` (it is never pickled); a retried attempt, or a
  worker started any other way, rebuilds it deterministically.  If the
  pool itself cannot start (sandboxes without ``fork``), the engine
  degrades to serial execution rather than aborting the campaign.
* **Fault tolerance** (docs/ROBUSTNESS.md) — every job gets a per-job
  wall-clock ``timeout`` enforced by a watchdog that kills and requeues
  hung workers, bounded ``retries`` with exponential ``backoff`` for
  transient failures (:data:`repro.errors.RETRYABLE`), and a failure
  quarantine: a job that keeps failing becomes a structured
  :class:`JobFailure` in the campaign's :class:`CampaignLedger` instead
  of an exception mid-flight, so a campaign always accounts for every
  job.  ``strict=True`` (the default) re-raises after the whole
  campaign has drained; ``strict=False`` returns the partial results
  and leaves the failures on ``engine.failures``.
* **A persistent cache** — :class:`ResultCache` stores every
  :class:`~repro.pipeline.results.SimResult` under ``.repro-cache/``
  (as ``SimResult.to_dict()`` JSON) keyed by a content hash of
  everything that determines the result.  Writes are atomic
  (temp-file + ``os.replace``), corrupted entries are quarantined to
  ``*.bad`` and recomputed, and an advisory file lock serialises
  concurrent campaigns sharing one cache directory — a campaign that
  loses the lock race falls back to read-only caching rather than
  racing the writer.  :meth:`ResultCache.prune` (CLI: ``repro cache
  prune --older-than 7d``) ages out stale entries.

Resuming: the cache is the only record of a campaign's progress.  A
job's key covers every argument that determines its result, so
re-running an interrupted campaign with the same arguments serves
finished jobs from the cache and simulates only the missing or failed
ones.

Observability: the engine emits a :class:`JobEvent` per job (cache hit,
start, retry, completion, quarantine) through a ``progress`` callback,
and persists hit/miss/simulation/quarantine counters to ``stats.json``
inside the cache directory (``python -m repro cache stats``).
"""

from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import repro
from repro.errors import (
    RETRYABLE,
    CampaignError,
    ConfigError,
    taxonomy_name,
)
from repro.isa.instruction import MicroOp
from repro.pipeline.engine import Engine
from repro.pipeline.results import TELEMETRY_SCHEMA_VERSION, SimResult
from repro.pipeline.vp_interface import ValuePredictor
from repro.testing.faults import FAULTS_ENV
from repro.trace.builder import build_trace
from repro.trace.io import open_trace, trace_file_hash
from repro.trace.source import TraceSource
from repro.trace.workloads import get_profile, reseeded

try:  # advisory locking is POSIX-only; degrade to no-op elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

#: A predictor specification: a registry spec string (see
#: :func:`repro.predictors.parse_spec`).  ``None`` means baseline.
PredictorSpec = Optional[str]

DEFAULT_CACHE_DIR = ".repro-cache"


def cache_root(cache_dir: Optional[str] = None) -> str:
    """The result-cache directory: ``cache_dir`` when given, else
    ``$REPRO_CACHE_DIR``, else :data:`DEFAULT_CACHE_DIR`."""
    return cache_dir or os.environ.get("REPRO_CACHE_DIR",
                                       DEFAULT_CACHE_DIR)


#: Taxonomy labels the engine retries (mirrors
#: :data:`repro.errors.RETRYABLE` for failures crossing a process
#: boundary, where only the label survives).
RETRYABLE_ERRORS = frozenset(cls.__name__ for cls in RETRYABLE)


# ----------------------------------------------------------------------
# Jobs.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Job:
    """One simulation: a workload on a core under a predictor spec.

    Jobs compare by value, so a campaign deduplicates naturally when
    used as dict keys.

    The trace input is named, never inline: it is generated from
    ``workload`` (optionally under a ``seed`` override) and ``length``,
    or replayed from a v2 trace file referenced by ``trace_file`` — in
    which case ``length`` is ignored and the file's content hash joins
    the cache key.  Jobs that generate the same trace share one build
    per campaign (see :meth:`CampaignEngine.run_campaign`).
    """

    workload: str
    core: str
    spec: PredictorSpec = None
    length: int = 100_000
    warmup: int = 40_000
    seed: Optional[int] = None
    trace_file: Optional[str] = None

    @property
    def label(self) -> str:
        """Human-readable ``workload/core/predictor`` job identifier."""
        return f"{self.workload}/{self.core}/{self.spec or 'baseline'}"


@dataclass(frozen=True)
class JobEvent:
    """Progress report for one job.

    ``status`` is ``"hit"`` (served from cache), ``"start"`` (about to
    simulate), ``"done"`` (simulated in ``elapsed`` seconds),
    ``"retry"`` (attempt failed with taxonomy label ``error``; the job
    was requeued) or ``"fail"`` (quarantined after its final attempt).
    ``index``/``total`` count completed jobs in the campaign.
    """

    job: Job
    status: str
    index: int
    total: int
    elapsed: Optional[float] = None
    error: Optional[str] = None


@dataclass
class JobFailure:
    """Ledger record for a job that was quarantined after exhausting
    its attempts.  ``error`` is the taxonomy label
    (:func:`repro.errors.taxonomy_name`); ``exc`` keeps the original
    exception when it was raised in-process or pickled back (below)."""

    job: Job
    error: str
    message: str
    attempts: int
    elapsed: float = 0.0
    exc: Optional[BaseException] = field(default=None, repr=False,
                                         compare=False)

    def summary(self) -> str:
        """One-line ``label: error (attempts)`` description."""
        return (f"{self.job.label}: {self.error} after "
                f"{self.attempts} attempt(s) — {self.message}")


@dataclass
class CampaignLedger:
    """Complete per-job accounting for one campaign: every distinct
    job lands in exactly one of ``results`` or ``failures``."""

    results: Dict[Job, SimResult] = field(default_factory=dict)
    failures: Dict[Job, JobFailure] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """True when no job was quarantined."""
        return not self.failures

    @property
    def total(self) -> int:
        """Jobs accounted for (results + failures)."""
        return len(self.results) + len(self.failures)


# ----------------------------------------------------------------------
# Content fingerprinting → cache keys.
# ----------------------------------------------------------------------
def fingerprint(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-serialisable structure that captures its
    *content*.  Slotted config objects (CoreConfig, PortGroup,
    FrontEndConfig, MemHierarchyConfig, WorkloadProfile, KernelSpec)
    are walked recursively; classes contribute their qualified name.
    Raises :class:`TypeError` for objects with no stable content
    representation (lambdas, arbitrary instances)."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [fingerprint(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): fingerprint(value)
                for key, value in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, type):
        return f"{obj.__module__}.{obj.__qualname__}"
    slots = getattr(type(obj), "__slots__", None)
    if slots is not None:
        body = {name: fingerprint(getattr(obj, name)) for name in slots}
        body["__class__"] = fingerprint(type(obj))
        return body
    raise TypeError(f"cannot fingerprint {obj!r}")


class RawJSON(str):
    """Text already encoded by :func:`canonical_json`.  As a value of
    the top-level object handed to :func:`canonical_json` it is
    inserted verbatim rather than quoted as a string."""

    __slots__ = ()


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj: Any) -> str:
    """``json.dumps(obj, sort_keys=True, separators=(",", ":"))``,
    except that :class:`RawJSON` values of a top-level dict are
    inserted as the text they hold.  The output is byte-identical to
    encoding the object with each such value decoded in its place."""
    if not isinstance(obj, dict) \
            or not any(type(value) is RawJSON for value in obj.values()):
        return _ENCODER.encode(obj)
    members = []
    for name in sorted(obj):
        value = obj[name]
        text = value if type(value) is RawJSON else _ENCODER.encode(value)
        members.append(f"{_ENCODER.encode(name)}:{text}")
    return "{" + ",".join(members) + "}"


# Catalogue profiles and core configs are fixed for the life of the
# process, so their fingerprints are encoded once per name.  A failed
# lookup raises out of the call and is never cached, so each memo
# holds at most one entry per registry name.
@functools.lru_cache(maxsize=None)
def _profile_json(workload: str) -> RawJSON:
    return RawJSON(canonical_json(fingerprint(get_profile(workload))))


@functools.lru_cache(maxsize=None)
def _core_json(core: str) -> RawJSON:
    from repro.experiments.runner import core_config

    return RawJSON(canonical_json(fingerprint(core_config(core))))


def job_key(job: Job) -> str:
    """Content-hash cache key for ``job``."""
    payload = {
        "profile": _profile_json(job.workload),
        "core": _core_json(job.core),
        "spec": job.spec if job.spec is not None else "baseline",
        "length": job.length,
        "warmup": job.warmup,
        "version": repro.__version__,
        "telemetry": TELEMETRY_SCHEMA_VERSION,
    }
    # Optional trace-shape overrides join the key only when set, so
    # every pre-existing job hashes exactly as before.
    if job.seed is not None:
        payload["seed"] = job.seed
    if job.trace_file is not None:
        payload["trace"] = trace_file_hash(job.trace_file)
    blob = canonical_json(payload)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Predictor construction (shared with Runner).
# ----------------------------------------------------------------------
def build_predictor(spec: PredictorSpec, trace: Sequence[MicroOp],
                    config) -> Optional[ValuePredictor]:
    """Instantiate a predictor from its spec (see :data:`PredictorSpec`)
    for one run of ``trace`` on ``config``."""
    from repro.predictors import make_predictor

    return None if spec is None else make_predictor(spec, trace, config)


def _trace_key(job: Job) -> tuple:
    """What determines the trace ``job`` simulates: its trace file, or
    the ``(workload, length, seed)`` it is generated from."""
    if job.trace_file is not None:
        return (job.trace_file,)
    return (job.workload, job.length, job.seed)


def _generate_trace(job: Job) -> List[MicroOp]:
    """Build the trace of a job without a ``trace_file``, honouring its
    ``seed`` override."""
    profile = get_profile(job.workload)
    if job.seed is not None:
        profile = reseeded(profile, job.seed)
    return build_trace(profile, job.length)


class _TraceSupply:
    """The generated traces of one campaign lane.  Each distinct trace
    is built once, in this process, when the first of its jobs is
    dispatched, and dropped when the last of them has been: over jobs
    in workload-major order at most one trace is alive at a time."""

    def __init__(self, jobs: Sequence[Job]) -> None:
        self._left: Dict[tuple, int] = {}
        for job in jobs:
            if job.trace_file is None:
                key = _trace_key(job)
                self._left[key] = self._left.get(key, 0) + 1
        self._live: Dict[tuple, List[MicroOp]] = {}

    def take(self, job: Job) -> Optional[List[MicroOp]]:
        """The trace for the first attempt of ``job``, or ``None`` for
        a ``trace_file`` job, a job not counted at construction, or a
        trace that cannot be built (an unknown workload, a bad length):
        the job's own run then builds it and fails into the ledger."""
        key = _trace_key(job)
        left = self._left.get(key)
        if left is None:
            return None
        trace = self._live.get(key)
        if trace is None:
            try:
                trace = self._live[key] = _generate_trace(job)
            except (KeyError, ValueError):
                del self._left[key]
                return None
        if left == 1:
            del self._left[key], self._live[key]
        else:
            self._left[key] = left - 1
        return trace


def execute_job(job: Job, trace: Optional[List[MicroOp]] = None,
                attempt: int = 1) -> SimResult:
    """Run one job to completion in this process.

    The trace comes from (in priority order) the ``trace`` argument
    (built once by the campaign), the job's ``trace_file`` (streamed —
    mmap-backed bounded-window replay, the path that keeps million-op
    jobs under a fixed RSS budget), or a local rebuild through
    :func:`~repro.trace.builder.build_trace` honouring the job's
    ``seed`` override.

    ``attempt`` is the campaign retry counter (1-based); the
    fault-injection harness (docs/ROBUSTNESS.md) uses it to fire
    deterministically on specific attempts when ``REPRO_FAULTS`` is
    installed."""
    from repro.experiments.runner import core_config

    if FAULTS_ENV in os.environ:
        from repro.testing import faults
        faults.inject_job_faults(job.label, attempt)
    source: Union[TraceSource, List[MicroOp], None] = trace
    close_after = False
    if source is None:
        if job.trace_file is not None:
            source = open_trace(job.trace_file)
            close_after = True
        else:
            source = _generate_trace(job)
    config = core_config(job.core)
    engine = Engine(config, build_predictor(job.spec, source, config))
    try:
        return engine.run(source, workload=job.workload, warmup=job.warmup)
    finally:
        if close_after:
            source.close()


class _PoolUnavailable(Exception):
    """The worker pool could not start at all (no fork, resource
    limits); the campaign falls back to serial execution."""


#: The trace the pool worker being forked simulates.  The parent sets
#: it just before ``Process.start`` and clears it right after, so a
#: forked worker inherits the trace without pickling it and the parent
#: keeps no reference through the ``Process`` object.  A worker started
#: by any other method sees ``None`` and rebuilds.  One slot suffices
#: because a process forks from one pool at a time (the daemon runs
#: its campaigns from one scheduler thread).
_INHERITED: Optional[List[MicroOp]] = None


def _portable(exc: BaseException) -> Optional[Exception]:
    """``exc`` when it is an :class:`Exception` that survives a pickle
    round trip, for a pool worker to send back: the parent re-raises
    it as the serial lane would."""
    try:
        pickle.loads(pickle.dumps(exc))
    # Whatever stops the round trip, the exception cannot cross the
    # pipe.  # reprolint: disable=RL004
    except Exception:  # noqa: BLE001 - any pickling failure
        return None
    return exc if isinstance(exc, Exception) else None


def _pool_worker(job: Job, attempt: int, conn) -> None:
    """Worker-process entry point: run ``job`` on the trace inherited
    through :data:`_INHERITED` (``None`` makes :func:`execute_job`
    rebuild or replay it here) and send ``("ok", result, elapsed)`` or
    ``("err", taxonomy, message, _portable(exc))`` back over the pipe.
    A crash (or injected ``os._exit``) sends nothing — the parent
    watchdog classifies that as a ``WorkerCrash``."""
    try:
        start = time.perf_counter()
        result = execute_job(job, _INHERITED, attempt=attempt)
        conn.send(("ok", result, time.perf_counter() - start))
    # Crash-isolation boundary: the worker must classify *anything* and
    # ship it to the parent.  # reprolint: disable=RL004
    except BaseException as exc:  # noqa: BLE001 - ships taxonomy to parent
        try:
            conn.send(("err", taxonomy_name(exc),
                       f"{type(exc).__name__}: {exc}", _portable(exc)))
        except (OSError, ValueError):  # pragma: no cover - parent gone
            pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Persistent result cache.
# ----------------------------------------------------------------------
class ResultCache:
    """On-disk SimResult store keyed by :func:`job_key` hashes.

    Layout: ``<root>/<key>.json`` per result (the
    :meth:`SimResult.to_dict` round-trip format) plus
    ``<root>/stats.json`` with cumulative and last-run
    hit/miss/simulation counters.  Every write is atomic (temp file +
    ``os.replace``), so concurrent readers never observe a torn entry.
    Corrupted entries — torn by a crashed legacy writer, bit-rotted, or
    written by an older telemetry schema — are *quarantined* (renamed
    to ``<key>.json.bad`` for post-mortem inspection) and treated as
    misses, so the campaign recomputes and heals them.

    Concurrent campaigns sharing one cache directory coordinate through
    an advisory file lock (``<root>/.lock``): the first campaign takes
    it, later ones fall back to read-only caching (``read_only=True``)
    — they still *read* hits but leave all writing to the lock holder.

    The cache grows until :meth:`prune` deletes the entries written
    more than a given age ago, or :meth:`clear` empties it.
    """

    STATS_FILE = "stats.json"
    LOCK_FILE = ".lock"
    SUFFIX = ".json"
    #: Suffix quarantined (corrupt) entries are renamed to.
    BAD_SUFFIX = ".bad"
    #: Suffix of pre-telemetry pickle entries; never read, but still
    #: swept by :meth:`clear` and :meth:`prune`.
    LEGACY_SUFFIX = ".pkl"

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = cache_root(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Corrupt entries renamed to ``*.bad`` by this instance.
        self.quarantined = 0
        #: Writes skipped because the cache is in read-only fallback.
        self.skipped_writes = 0
        #: Whether this instance lost the advisory-lock race and runs
        #: in read-only fallback (set by :meth:`try_lock` callers).
        self.read_only = False
        self._lock_handle = None
        self._flushed: Dict[str, int] = {"hits": 0, "misses": 0,
                                         "simulated": 0,
                                         "quarantined": 0}

    # -- storage -------------------------------------------------------
    def path(self, key: str) -> str:
        """On-disk location of the entry for a job key."""
        return os.path.join(self.root, key + self.SUFFIX)

    def get(self, key: str) -> Optional[SimResult]:
        """Cached :class:`SimResult` for ``key``, or ``None`` on a miss.

        Corrupted or stale-schema entries are quarantined (renamed to
        ``*.bad``) and count as misses, so a schema bump or torn write
        self-heals: the campaign recomputes and overwrites the entry.
        """
        try:
            with open(self.path(key), "r", encoding="utf-8") as handle:
                result = SimResult.from_dict(json.load(handle))
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            # CacheCorruption: quarantine the entry for post-mortem
            # inspection and recompute (counted in stats.json).
            self._quarantine(key)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def _quarantine(self, key: str) -> None:
        try:
            os.replace(self.path(key), self.path(key) + self.BAD_SUFFIX)
            self.quarantined += 1
        except OSError:  # pragma: no cover - deleted underneath us
            pass

    def put(self, key: str, result: SimResult, label: str = "") -> None:
        """Persist a result under ``key`` (atomic write-then-rename).

        A no-op (counted in ``skipped_writes``) when the cache is in
        read-only fallback.  ``label`` is the job label, used only by
        the fault-injection harness to target torn-write faults."""
        if self.read_only:
            self.skipped_writes += 1
            return
        os.makedirs(self.root, exist_ok=True)
        final = self.path(key)
        payload = json.dumps(result.to_dict(), separators=(",", ":"))
        if FAULTS_ENV in os.environ:
            from repro.testing import faults
            if faults.tear_write(label or key):
                # Injected torn write: model a legacy non-atomic writer
                # dying mid-write — truncated JSON straight to the
                # final path, bypassing the temp-file dance.
                with open(final, "w", encoding="utf-8") as handle:
                    handle.write(payload[:max(1, len(payload) // 2)])
                self.stores += 1
                return
        tmp = final + f".tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(tmp, final)  # atomic: concurrent campaigns never
        self.stores += 1        # observe a half-written entry

    # -- advisory locking ----------------------------------------------
    def _lock_path(self) -> str:
        return os.path.join(self.root, self.LOCK_FILE)

    def try_lock(self) -> bool:
        """Attempt to take the advisory campaign lock (non-blocking).

        Returns True when acquired (or when the platform has no
        ``fcntl`` — locking degrades to a no-op).  Callers that get
        False should set ``read_only = True`` and carry on."""
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            return True
        if self._lock_handle is not None:
            return True
        os.makedirs(self.root, exist_ok=True)
        handle = open(self._lock_path(), "a+")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            handle.close()
            return False
        self._lock_handle = handle
        return True

    def unlock(self) -> None:
        """Release the advisory lock if this instance holds it."""
        if self._lock_handle is None:
            return
        if fcntl is not None:
            try:
                fcntl.flock(self._lock_handle.fileno(), fcntl.LOCK_UN)
            except OSError:  # pragma: no cover - fd already dead
                pass
        self._lock_handle.close()
        self._lock_handle = None

    # -- inventory -----------------------------------------------------
    def entries(self) -> List[str]:
        """Job keys of every entry currently in the cache directory."""
        suffix = self.SUFFIX
        stats_name = self.STATS_FILE
        try:
            return sorted(name[:-len(suffix)]
                          for name in os.listdir(self.root)
                          if name.endswith(suffix) and name != stats_name)
        except FileNotFoundError:
            return []

    def quarantined_entries(self) -> List[str]:
        """Job keys of quarantined (``*.bad``) entries on disk."""
        suffix = self.SUFFIX + self.BAD_SUFFIX
        try:
            return sorted(name[:-len(suffix)]
                          for name in os.listdir(self.root)
                          if name.endswith(suffix))
        except FileNotFoundError:
            return []

    def _entry_files(self) -> List[str]:
        """Every result file on disk: current, quarantined and legacy."""
        try:
            names = os.listdir(self.root)
        except FileNotFoundError:
            return []
        return [os.path.join(self.root, name) for name in sorted(names)
                if (name.endswith(self.SUFFIX)
                    or name.endswith(self.SUFFIX + self.BAD_SUFFIX)
                    or name.endswith(self.LEGACY_SUFFIX))
                and name != self.STATS_FILE]

    def size_bytes(self) -> int:
        """Total on-disk size of all cache entries, in bytes."""
        total = 0
        for path in self._entry_files():
            try:
                total += os.path.getsize(path)
            except OSError:
                pass
        return total

    def clear(self) -> int:
        """Delete every cached result (and the stats); returns the
        number of entries removed."""
        removed = 0
        for path in self._entry_files():
            try:
                os.remove(path)
                removed += 1
            except OSError:
                pass
        try:
            os.remove(os.path.join(self.root, self.STATS_FILE))
        except OSError:
            pass
        return removed

    def prune(self, older_than: float,
              now: Optional[float] = None) -> int:
        """Delete entries written more than ``older_than`` seconds ago
        (by file mtime — a cache hit does not refresh it); returns the
        number removed.  Keeps ``stats.json``."""
        if older_than < 0:
            raise ValueError(f"older_than must be >= 0, got {older_than}")
        cutoff = (time.time() if now is None else now) - older_than
        removed = 0
        for path in self._entry_files():
            try:
                if os.path.getmtime(path) < cutoff:
                    os.remove(path)
                    removed += 1
            except OSError:
                pass
        return removed

    # -- persistent counters -------------------------------------------
    def _stats_path(self) -> str:
        return os.path.join(self.root, self.STATS_FILE)

    def load_stats(self) -> Dict[str, Any]:
        """Lifetime hit/miss/simulated counters persisted in the cache."""
        try:
            with open(self._stats_path(), "r", encoding="utf-8") as handle:
                stats = json.load(handle)
            if not isinstance(stats, dict):
                raise ValueError
        except (OSError, ValueError):
            stats = {}
        stats.setdefault("hits", 0)
        stats.setdefault("misses", 0)
        stats.setdefault("simulated", 0)
        stats.setdefault("quarantined", 0)
        stats.setdefault("last_run", {"hits": 0, "misses": 0,
                                      "simulated": 0})
        return stats

    def flush_stats(self, simulated: int) -> None:
        """Merge this instance's counters into ``stats.json``.

        Cumulative totals grow by the delta since the previous flush;
        ``last_run`` reflects this instance's whole lifetime (one CLI
        command = one instance).  Skipped in read-only fallback."""
        current = {"hits": self.hits, "misses": self.misses,
                   "simulated": self._flushed["simulated"] + simulated,
                   "quarantined": self.quarantined}
        if self.read_only:
            return
        stats = self.load_stats()
        for field_name in ("hits", "misses", "simulated", "quarantined"):
            stats[field_name] += current[field_name] - \
                self._flushed[field_name]
        stats["last_run"] = {key: current[key]
                             for key in ("hits", "misses", "simulated")}
        self._flushed = current
        os.makedirs(self.root, exist_ok=True)
        tmp = self._stats_path() + f".tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(stats, handle, indent=1)
        os.replace(tmp, self._stats_path())


# ----------------------------------------------------------------------
# The engine.
# ----------------------------------------------------------------------
@dataclass
class CampaignStats:
    """Per-campaign accounting returned by :meth:`CampaignEngine.stats`."""

    hits: int = 0
    simulated: int = 0
    elapsed: float = 0.0
    fallbacks: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    failures: int = 0
    lock_conflicts: int = 0

    def merge_event(self, event: JobEvent) -> None:
        """Fold one :class:`JobEvent` into the campaign totals."""
        if event.status == "hit":
            self.hits += 1
        elif event.status == "done":
            self.simulated += 1
            self.elapsed += event.elapsed or 0.0
        elif event.status == "retry":
            self.retries += 1
        elif event.status == "fail":
            self.failures += 1


class CampaignEngine:
    """Deduplicates, caches, fans out, and fault-isolates simulation
    jobs.

    Parameters
    ----------
    jobs:
        Worker-process count.  ``None`` means ``os.cpu_count()``;
        ``1`` (or fewer) runs everything in-process.
    cache:
        A :class:`ResultCache`, or ``None`` to disable caching.
    progress:
        Optional callback receiving a :class:`JobEvent` per job.
    timeout:
        Per-job wall-clock budget in seconds.  Pool jobs exceeding it
        are killed by the watchdog and retried (``None`` disables).
        Jobs run in-process (``jobs=1``, or a campaign with one job
        left to simulate) cannot be preempted.
    retries:
        Extra attempts granted to retryable failures
        (:data:`repro.errors.RETRYABLE`) before quarantine.
    backoff:
        Base of the exponential retry delay: attempt *k* waits
        ``backoff * 2**(k-1)`` seconds before requeueing.
    strict:
        When True (default), a campaign that quarantined failures
        re-raises after *every* job has been accounted for — the
        original exception when one is available, else a
        :class:`~repro.errors.CampaignError` carrying the ledger.
        When False, :meth:`run_jobs` returns the partial results and
        leaves the ledger on ``self.ledger`` / ``self.failures``.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 progress: Optional[Callable[[JobEvent], None]] = None,
                 timeout: Optional[float] = None,
                 retries: int = 2,
                 backoff: float = 0.25,
                 strict: bool = True) -> None:
        if timeout is not None and timeout <= 0:
            raise ConfigError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.cache = cache
        self.progress = progress
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.strict = strict
        self.stats = CampaignStats()
        #: Quarantined failures accumulated across campaigns run on
        #: this engine (one Runner = one engine = many run_jobs calls).
        self.failures: Dict[Job, JobFailure] = {}
        #: The most recent campaign's ledger.
        self.ledger: Optional[CampaignLedger] = None
        self._sleep = time.sleep

    # ------------------------------------------------------------------
    def _emit(self, event: JobEvent) -> None:
        self.stats.merge_event(event)
        if self.progress is not None:
            self.progress(event)

    def run_jobs(self, jobs: Sequence[Job]) -> Dict[Job, SimResult]:
        """Run every distinct job once; returns ``{job: SimResult}``.

        A façade over :meth:`run_campaign` preserving the original
        contract: in strict mode a failure raises — but only after the
        whole campaign has drained, so sibling jobs still complete and
        land in the cache.  In non-strict mode failed jobs are simply
        absent from the mapping (see ``self.ledger`` for the full
        accounting).
        """
        ledger = self.run_campaign(jobs)
        if ledger.failures and self.strict:
            for failure in ledger.failures.values():
                if failure.exc is not None:
                    raise failure.exc
            raise CampaignError(
                f"{len(ledger.failures)} of {ledger.total} job(s) failed: "
                + "; ".join(f.summary() for f in ledger.failures.values()),
                ledger)
        return ledger.results

    def run_campaign(self, jobs: Sequence[Job]) -> CampaignLedger:
        """Run a campaign to full accounting; never raises mid-flight.

        The campaign pipeline, in order: duplicate jobs collapse to
        one execution; cached results are restored without simulating
        (when a :class:`ResultCache` is attached); the remainder run
        in workload-major order (stable otherwise) and fan out over
        ``self.jobs`` watchdog-supervised worker processes (in-process
        when 1).  Each distinct generated trace is built once, here,
        and dropped once its last job has been dispatched; a forked
        worker inherits it, and a retried attempt (or a worker started
        other than by ``fork``) rebuilds it.  Hung workers are killed
        at ``timeout`` and requeued, retryable failures back off
        exponentially, and a job that exhausts its attempts is
        quarantined as a :class:`JobFailure`.  Results are
        bit-identical however a job is executed — serial, parallel,
        retried, or restored — because traces build deterministically
        from their seeds.

        Parameters
        ----------
        jobs:
            The job list; order is irrelevant and duplicates are free.

        Returns
        -------
        CampaignLedger
            Every distinct job accounted for in ``results`` or
            ``failures``.  Also stored on ``self.ledger``; failures
            additionally accumulate on ``self.failures``.
        """
        unique: List[Job] = []
        seen = set()
        for job in jobs:
            if job not in seen:
                seen.add(job)
                unique.append(job)

        ledger = CampaignLedger()
        self.ledger = ledger
        total = len(unique)
        state = {"done": 0}
        lock_acquired = False
        simulated = [0]
        keys: Dict[Job, str] = {}

        def on_success(job: Job, result: SimResult, elapsed: float) -> None:
            """Record a finished job: ledger, cache write, progress event."""
            ledger.results[job] = result
            simulated[0] += 1
            state["done"] += 1
            if self.cache is not None:
                self.cache.put(keys[job], result, label=job.label)
            self._emit(JobEvent(job, "done", state["done"], total, elapsed))

        def on_failure(failure: JobFailure) -> None:
            """Quarantine an exhausted job into the ledger."""
            ledger.failures[failure.job] = failure
            self.failures[failure.job] = failure
            state["done"] += 1
            self._emit(JobEvent(failure.job, "fail", state["done"], total,
                                failure.elapsed, failure.error))

        def on_retry(job: Job, error: str, elapsed: float) -> None:
            """Emit a retry progress event (the job stays in flight)."""
            self._emit(JobEvent(job, "retry", state["done"], total,
                                elapsed, error))

        if self.cache is not None:
            lock_acquired = self.cache.try_lock()
            self.cache.read_only = not lock_acquired
            if not lock_acquired:
                self.stats.lock_conflicts += 1

        try:
            # 1. Serve cache hits.
            pending: List[Job] = []
            for job in unique:
                cached = None
                if self.cache is not None:
                    keys[job] = job_key(job)
                    cached = self.cache.get(keys[job])
                if cached is not None:
                    ledger.results[job] = cached
                    state["done"] += 1
                    self._emit(JobEvent(job, "hit", state["done"], total))
                else:
                    pending.append(job)
            # Workload-major: the jobs sharing a trace run back to
            # back, so it is built once and dropped soon after.
            groups: Dict[tuple, int] = {}
            for job in pending:
                groups.setdefault(_trace_key(job), len(groups))
            pending.sort(key=lambda job: groups[_trace_key(job)])

            # 2. Fan the remainder out to worker processes.
            if self.jobs > 1 and len(pending) > 1:
                try:
                    self._run_pool(pending, on_success, on_failure,
                                   on_retry)
                    pending = []
                except _PoolUnavailable:
                    # Pool infrastructure failed (no fork, resource
                    # limits) — degrade to serial rather than abort.
                    self.stats.fallbacks += 1
                    pending = [job for job in pending
                               if job not in ledger.results
                               and job not in ledger.failures]

            # 3. Whatever is left runs here, with the same
            #    retry/quarantine policy.  The trace is passed straight
            #    through, so no reference outlives the job's run.
            traces = _TraceSupply(pending)
            for job in pending:
                self._emit(JobEvent(job, "start", state["done"], total))
                self._run_serial(job, traces.take(job), on_success,
                                 on_failure, on_retry)
        finally:
            if self.cache is not None:
                self.cache.flush_stats(simulated[0])
                if lock_acquired:
                    self.cache.unlock()
        return ledger

    # ------------------------------------------------------------------
    def _run_serial(self, job: Job, trace: Optional[List[MicroOp]],
                    on_success, on_failure, on_retry) -> None:
        """In-process execution of ``job`` on ``trace`` (``None``: its
        trace file, or a local build) with the retry/quarantine policy
        (no preemption: hangs cannot be killed on this path)."""
        attempt = 1
        while True:
            start = time.perf_counter()
            try:
                result = execute_job(job, trace, attempt=attempt)
            except RETRYABLE as exc:
                elapsed = time.perf_counter() - start
                if attempt <= self.retries:
                    on_retry(job, taxonomy_name(exc), elapsed)
                    self._sleep(self.backoff * (2 ** (attempt - 1)))
                    attempt += 1
                    continue
                on_failure(JobFailure(job, taxonomy_name(exc), str(exc),
                                      attempt, elapsed, exc=exc))
                return
            # Quarantine boundary: any non-retryable failure is recorded
            # against the job, never re-raised.  # reprolint: disable=RL004
            except Exception as exc:  # deterministic → quarantine, no retry
                elapsed = time.perf_counter() - start
                on_failure(JobFailure(
                    job, taxonomy_name(exc),
                    f"{type(exc).__name__}: {exc}", attempt, elapsed,
                    exc=exc))
                return
            on_success(job, result, time.perf_counter() - start)
            return

    # ------------------------------------------------------------------
    # Watchdog-supervised worker pool.
    # ------------------------------------------------------------------
    def _run_pool(self, jobs: Sequence[Job], on_success, on_failure,
                  on_retry) -> None:
        """Fan ``jobs`` out over worker processes under a watchdog.

        Each in-flight job is a dedicated process with a result pipe;
        the watchdog loop launches ready work up to the worker budget,
        blocks until a result, a worker exit, a deadline or the end of
        a backoff, collects results, kills processes that blow their
        deadline (``JobTimeout``), classifies silent deaths
        (``WorkerCrash``), and requeues retryable failures with
        exponential backoff.  A first attempt inherits the trace this
        process built for it; a retry comes after every first attempt,
        when that trace has been dropped, so its worker rebuilds.
        Raises :class:`_PoolUnavailable` if a worker process cannot be
        started at all.
        """
        # Imported here, not at module level, to keep it out of the
        # figure stack's import time.
        from multiprocessing.connection import wait

        global _INHERITED
        ctx = multiprocessing.get_context()
        workers = min(self.jobs, len(jobs))
        traces = _TraceSupply(
            jobs if ctx.get_start_method() == "fork" else ())
        #: (job, attempt, not_before) — ready once monotonic() >= not_before.
        queue: List[Tuple[Job, int, float]] = [(job, 1, 0.0)
                                               for job in jobs]
        #: job -> [proc, conn, attempt, deadline, started]
        running: Dict[Job, list] = {}

        def settle(job: Job, attempt: int, error: str, message: str,
                   elapsed: float, exc=None) -> None:
            """Retry a retryable failure or quarantine the job."""
            if error in RETRYABLE_ERRORS and attempt <= self.retries:
                on_retry(job, error, elapsed)
                not_before = time.monotonic() + \
                    self.backoff * (2 ** (attempt - 1))
                queue.append((job, attempt + 1, not_before))
            else:
                on_failure(JobFailure(job, error, message, attempt,
                                      elapsed, exc=exc))

        try:
            while queue or running:
                now = time.monotonic()

                # Launch ready work up to the worker budget.
                while len(running) < workers and queue:
                    ready = next((i for i, (_, _, nb) in enumerate(queue)
                                  if nb <= now), None)
                    if ready is None:
                        break
                    job, attempt, _ = queue.pop(ready)
                    parent_conn, child_conn = ctx.Pipe(duplex=False)
                    proc = ctx.Process(target=_pool_worker,
                                       args=(job, attempt, child_conn),
                                       daemon=True)
                    _INHERITED = traces.take(job) if attempt == 1 \
                        else None
                    try:
                        proc.start()
                    except (OSError, ValueError) as exc:
                        parent_conn.close()
                        child_conn.close()
                        raise _PoolUnavailable(str(exc)) from exc
                    finally:
                        _INHERITED = None
                    child_conn.close()
                    deadline = None if self.timeout is None \
                        else time.monotonic() + self.timeout
                    running[job] = [proc, parent_conn, attempt, deadline,
                                    time.perf_counter()]

                if not running:
                    # Nothing in flight: every queued job is backing off.
                    self._sleep(max(0.0, min(nb for *_, nb in queue)
                                    - time.monotonic()))
                    continue
                wakeups = [entry[3] for entry in running.values()
                           if entry[3] is not None]
                if len(running) < workers:
                    wakeups.extend(nb for *_, nb in queue)
                wait([entry[1] for entry in running.values()]
                     + [entry[0].sentinel for entry in running.values()],
                     max(0.0, min(wakeups) - time.monotonic())
                     if wakeups else None)

                now = time.monotonic()
                for job in list(running):
                    proc, conn, attempt, deadline, started = running[job]
                    if conn.poll():
                        try:
                            message = conn.recv()
                        except (EOFError, OSError):
                            message = None
                        proc.join()
                        conn.close()
                        del running[job]
                        elapsed = time.perf_counter() - started
                        if message is not None and message[0] == "ok":
                            on_success(job, message[1], message[2])
                        elif message is not None:
                            settle(job, attempt, message[1], message[2],
                                   elapsed, exc=message[3])
                        else:
                            self.stats.crashes += 1
                            settle(job, attempt, "WorkerCrash",
                                   f"worker died with exit code "
                                   f"{proc.exitcode}", elapsed)
                        continue
                    if not proc.is_alive():
                        if conn.poll():
                            continue  # result landed late; next sweep
                        proc.join()
                        conn.close()
                        del running[job]
                        self.stats.crashes += 1
                        settle(job, attempt, "WorkerCrash",
                               f"worker died with exit code "
                               f"{proc.exitcode}",
                               time.perf_counter() - started)
                        continue
                    if deadline is not None and now >= deadline:
                        proc.terminate()
                        proc.join(5.0)
                        if proc.is_alive():  # pragma: no cover
                            proc.kill()
                            proc.join()
                        conn.close()
                        del running[job]
                        self.stats.timeouts += 1
                        settle(job, attempt, "JobTimeout",
                               f"exceeded the {self.timeout:g}s per-job "
                               f"timeout and was killed",
                               time.perf_counter() - started)
        finally:
            for proc, conn, *_ in running.values():
                if proc.is_alive():
                    proc.terminate()
                proc.join()
                conn.close()


__all__ = [
    "CampaignEngine",
    "CampaignLedger",
    "CampaignStats",
    "DEFAULT_CACHE_DIR",
    "Job",
    "JobEvent",
    "JobFailure",
    "PredictorSpec",
    "RETRYABLE_ERRORS",
    "RawJSON",
    "ResultCache",
    "build_predictor",
    "cache_root",
    "canonical_json",
    "execute_job",
    "fingerprint",
    "job_key",
]
