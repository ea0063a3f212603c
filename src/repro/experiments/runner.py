"""Experiment runner: workloads × cores × predictors, on the campaign
engine.

The :class:`Runner` is the front door for experiments: a thin façade
over :class:`repro.experiments.campaign.CampaignEngine`, which
deduplicates jobs, fans them out over worker processes (``jobs=N``),
and serves repeats from the persistent on-disk cache
(``use_cache=True``) — see ``docs/CAMPAIGNS.md``.  It keeps every
result in one job → :class:`~repro.pipeline.results.SimResult` memo:

* :meth:`Runner.plan` — the jobs of ``(spec, core)`` cells over the
  runner's workloads, each core's baseline included.
* :meth:`Runner.results` — runs, as one campaign, the jobs this runner
  has not run yet; a job already run is never resubmitted.
* :meth:`Runner.run`, :meth:`Runner.suite`, :meth:`Runner.suites` —
  reads over that memo, so after a command has run the union of its
  cells, every read is free.

Predictor state is never shared between runs: each job builds a
fresh predictor from its *spec*, a registry string such as ``"fvp"``,
``"fvp-oracle"`` or ``"fvp:epoch=1000"`` (see
:func:`repro.predictors.parse_spec`).  A spec is plain data, so every
job can go to a worker process and into the on-disk cache.

Scale knobs (`length`, `warmup`, `workloads`) let benchmarks trade
fidelity for wall-clock; the environment variables ``REPRO_LENGTH``
and ``REPRO_WARMUP`` override the defaults globally.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.metrics import SuiteResult, WorkloadRun
from repro.errors import ConfigError
from repro.experiments.campaign import (
    CampaignEngine,
    Job,
    JobEvent,
    PredictorSpec,
    ResultCache,
)
from repro.isa.instruction import MicroOp
from repro.pipeline.config import CoreConfig
from repro.pipeline.results import SimResult
from repro.trace.builder import build_trace
from repro.trace.io import open_trace, trace_file_length
from repro.trace.source import TraceSource
from repro.trace.workloads import CATALOGUE, get_profile, reseeded

#: Trace length (micro-ops) when neither the caller nor
#: ``REPRO_LENGTH`` sets one.
DEFAULT_LENGTH = 250_000
#: Cap on the default warmup prefix (micro-ops).
DEFAULT_WARMUP = 100_000

_CORES = {
    "skylake": CoreConfig.skylake,
    "skylake-2x": CoreConfig.skylake_2x,
}


def _env_ops(name: str, text: str) -> int:
    """The micro-op count ``text`` read from environment variable
    ``name``.  Raises :class:`~repro.errors.ConfigError` naming the
    variable when it is not a whole number."""
    if not text.isdigit():
        raise ConfigError(
            f"{name} must be a whole number of micro-ops, got {text!r}")
    return int(text)


def default_length() -> int:
    """The trace length used when none is given: ``REPRO_LENGTH`` if
    set, else :data:`DEFAULT_LENGTH`."""
    env = os.environ.get("REPRO_LENGTH")
    return DEFAULT_LENGTH if env is None else _env_ops("REPRO_LENGTH", env)


def default_warmup(length: int) -> int:
    """The warmup prefix used when none is given: 40% of the trace,
    capped at :data:`DEFAULT_WARMUP` (100k) micro-ops (valid for any
    length — the shared rule for the CLI, the Runner, and the campaign
    engine).  The ``REPRO_WARMUP`` environment variable overrides it
    outright."""
    env = os.environ.get("REPRO_WARMUP")
    if env is not None:
        return _env_ops("REPRO_WARMUP", env)
    return min(int(length * 0.4), DEFAULT_WARMUP)


def core_names() -> tuple:
    """Every core name, in registration order (CLI choices, daemon
    validation)."""
    return tuple(_CORES)


def core_config(core: str) -> CoreConfig:
    """Fresh CoreConfig by name (see :func:`core_names`).  Raises
    :class:`~repro.errors.ConfigError` for an unknown name."""
    try:
        return _CORES[core]()
    except KeyError:
        raise ConfigError(
            f"unknown core {core!r}; choose from {sorted(_CORES)}"
        ) from None


class Runner:
    """Runs experiment campaigns; memoises every result by job.

    Parameters
    ----------
    length, warmup, workloads:
        Scale knobs; ``warmup`` defaults to :func:`default_warmup`.
    jobs:
        Worker processes for suite campaigns (``1`` = in-process
        serial, ``None`` = ``os.cpu_count()``).
    use_cache:
        Persist results under ``cache_dir`` (default ``.repro-cache/``
        or ``$REPRO_CACHE_DIR``) and serve identical reruns from disk.
    progress:
        Optional ``callable(JobEvent)`` observing every job.
    timeout, retries, strict:
        Fault-tolerance knobs forwarded to the campaign engine (see
        docs/ROBUSTNESS.md): per-job wall-clock timeout in seconds,
        retry budget for transient failures, and whether a quarantined
        failure re-raises after the campaign drains (``strict=True``,
        the default) or is tolerated as a gap in the suite
        (``strict=False``).
    seed:
        Optional trace-generation seed override (run-to-run variation
        studies) — every trace this runner builds is reseeded with it.
    trace_file:
        Optional v2 trace file to replay instead of generating traces
        (mmap-backed, bounded RSS).  Requires exactly one explicit
        workload — the label the replayed trace is recorded under —
        and defaults ``length`` to the file's op count.

    Everything is keyword-only.
    """

    def __init__(self, *,
                 length: Optional[int] = None,
                 warmup: Optional[int] = None,
                 workloads: Optional[Sequence[str]] = None,
                 jobs: int = 1, use_cache: bool = False,
                 cache_dir: Optional[str] = None,
                 progress: Optional[Callable[[JobEvent], None]] = None,
                 timeout: Optional[float] = None, retries: int = 2,
                 strict: bool = True,
                 seed: Optional[int] = None,
                 trace_file: Optional[str] = None) -> None:
        self.seed = seed
        self.trace_file = trace_file
        if trace_file is not None:
            if workloads is None or len(list(workloads)) != 1:
                raise ConfigError(
                    "trace_file requires exactly one explicit workload "
                    "(the label the replayed trace is recorded under)")
            if length is None:
                length = trace_file_length(trace_file)
        self.length = length if length is not None else default_length()
        self.warmup = warmup if warmup is not None \
            else default_warmup(self.length)
        if self.length <= 0:
            raise ConfigError(f"length {self.length} must be positive")
        if self.warmup < 0:
            raise ConfigError(f"warmup {self.warmup} must be >= 0")
        if self.warmup >= self.length:
            raise ConfigError(
                f"warmup {self.warmup} must be < length {self.length}")
        self.workloads = list(workloads) if workloads is not None \
            else list(CATALOGUE)
        self.engine = CampaignEngine(
            jobs=jobs,
            cache=ResultCache(cache_dir) if use_cache else None,
            progress=progress,
            timeout=timeout, retries=retries, strict=strict)
        #: Traces handed out by :meth:`trace`; campaigns never read it.
        self._traces: Dict[str, Union[TraceSource, List[MicroOp]]] = {}
        #: Every result this runner's campaigns produced, by job.
        self._results: Dict[Job, SimResult] = {}

    # ------------------------------------------------------------------
    def trace(self, workload: str) -> Union[TraceSource, List[MicroOp]]:
        """The trace this runner simulates for ``workload``: an
        mmap-backed :class:`~repro.trace.io.FileSource` when replaying
        a trace file, otherwise a (memoised) generated list honouring
        the runner's ``seed`` override.  For callers that drive the
        engine themselves (``repro profile --trace-json``); campaigns
        build their own traces and drop them when done."""
        if workload not in self._traces:
            if self.trace_file is not None:
                self._traces[workload] = open_trace(self.trace_file)
            else:
                profile = get_profile(workload)
                if self.seed is not None:
                    profile = reseeded(profile, self.seed)
                self._traces[workload] = build_trace(profile, self.length)
        return self._traces[workload]

    def job(self, workload: str, core: str,
            predictor: PredictorSpec) -> Job:
        """The campaign job this runner would execute for the triple."""
        return Job(workload, core, predictor, self.length, self.warmup,
                   self.seed, self.trace_file)

    def plan(self, cells: Sequence[Tuple[PredictorSpec, str]]
             ) -> List[Job]:
        """The jobs of the ``(spec, core)`` cells over this runner's
        workloads, workload-major, each core's baseline first."""
        specs: Dict[str, List[PredictorSpec]] = {}
        for spec, core in cells:
            specs.setdefault(core, [None]).append(spec)
        return [self.job(workload, core, spec)
                for workload in self.workloads
                for core, core_specs in specs.items()
                for spec in core_specs]

    def results(self, jobs: Sequence[Job]) -> Dict[Job, SimResult]:
        """``{job: SimResult}`` for ``jobs``.  The ones this runner has
        not run yet run first, as one campaign; a job already run is
        never resubmitted.  A job the (non-strict) campaign quarantined
        is absent from the mapping and is not retried."""
        failed = self.engine.failures
        todo = [job for job in dict.fromkeys(jobs)
                if job not in self._results and job not in failed]
        if todo:
            self._results.update(self.engine.run_jobs(todo))
        return {job: self._results[job] for job in jobs
                if job in self._results}

    # ------------------------------------------------------------------
    def run(self, workload: str, core: str = "skylake",
            predictor: PredictorSpec = None) -> SimResult:
        """One ``(workload, core, predictor)`` simulation."""
        job = self.job(workload, core, predictor)
        return self.results([job])[job]

    def pair(self, workload: str, baseline: SimResult,
             result: SimResult) -> WorkloadRun:
        """``result`` against its reference run on the same trace; every
        comparison with a baseline is built here.  Raises
        :class:`~repro.errors.ConfigError` when the warmup left either
        run a measured region of 0 cycles, which has no IPC."""
        for run in (baseline, result):
            if not run.cycles:
                raise ConfigError(
                    f"{workload}: warmup {self.warmup} leaves a measured "
                    "region of 0 cycles; lower --warmup")
        return WorkloadRun(workload, get_profile(workload).category,
                           baseline=baseline, result=result)

    def suite(self, predictor: str,
              core: str = "skylake") -> SuiteResult:
        """Every workload under one predictor spec: the one-spec case
        of :meth:`suites`."""
        return self.suites([predictor], core)[predictor]

    def suites(self, specs: Sequence[str],
               core: str = "skylake") -> Dict[str, SuiteResult]:
        """Every workload under each predictor spec in ``specs``, the
        baselines included, as one campaign (see :meth:`results`);
        returns ``{spec: SuiteResult}``.  A workload the (non-strict)
        campaign quarantined is an explicit gap of its suite."""
        results = self.results(self.plan([(spec, core) for spec in specs]))
        out = {}
        for spec in specs:
            runs = []
            gaps = []
            for workload in self.workloads:
                baseline = results.get(self.job(workload, core, None))
                result = results.get(self.job(workload, core, spec))
                if baseline is None or result is None:
                    gaps.append(workload)
                    continue
                runs.append(self.pair(workload, baseline, result))
            out[spec] = SuiteResult(runs, gaps=gaps)
        return out
