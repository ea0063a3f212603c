"""Experiment runner: workloads × cores × predictors, on the campaign
engine.

The :class:`Runner` is the front door for experiments.  Since the
campaign redesign it is a thin façade over
:class:`repro.experiments.campaign.CampaignEngine`, which deduplicates
jobs, fans them out over worker processes (``jobs=N``), and serves
repeats from the persistent on-disk cache (``use_cache=True``) — see
``docs/CAMPAIGNS.md``.  The public surface is unchanged:

* :meth:`Runner.run` — one ``(workload, core, predictor)`` simulation.
* :meth:`Runner.baseline` — memoised no-predictor run.
* :meth:`Runner.suite` — every workload under one predictor spec,
  returned as a :class:`~repro.analysis.metrics.SuiteResult`.

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
    """Runs experiment campaigns; caches traces and baseline runs.

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
        self._traces: Dict[str, Union[TraceSource, List[MicroOp]]] = {}
        self._baselines: Dict[Tuple[str, str], SimResult] = {}
        self._suites: Dict[Tuple[str, str], SuiteResult] = {}

    # ------------------------------------------------------------------
    def trace(self, workload: str) -> Union[TraceSource, List[MicroOp]]:
        """The trace this runner simulates for ``workload``: an
        mmap-backed :class:`~repro.trace.io.FileSource` when replaying
        a trace file, otherwise a (memoised) generated list honouring
        the runner's ``seed`` override."""
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

    def _run_jobs(self, jobs: Sequence[Job]) -> Dict[Job, SimResult]:
        results = self.engine.run_jobs(jobs, trace_provider=self.trace)
        # Keep the in-process baseline memo warm whatever path ran.
        for job, result in results.items():
            if job.spec is None:
                self._baselines.setdefault((job.workload, job.core), result)
        return results

    # ------------------------------------------------------------------
    def baseline(self, workload: str, core: str = "skylake") -> SimResult:
        key = (workload, core)
        if key not in self._baselines:
            self._baselines[key] = self.run(workload, core, None)
        return self._baselines[key]

    def run(self, workload: str, core: str = "skylake",
            predictor: PredictorSpec = None) -> SimResult:
        job = self.job(workload, core, predictor)
        return self._run_jobs([job])[job]

    def workload_run(self, workload: str, core: str,
                     predictor: PredictorSpec) -> WorkloadRun:
        return self.pair(workload, self.baseline(workload, core),
                         self.run(workload, core, predictor))

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

    def suite(self, predictor: str, core: str = "skylake",
              progress: Optional[Callable[[str], None]] = None
              ) -> SuiteResult:
        """Run every workload under one predictor spec, as a single
        deduplicated campaign (baselines included, so they parallelise
        too).  Suites are memoised per spec and core, so figure drivers
        sharing a configuration (e.g. Figures 6 and 8 both need
        FVP-on-Skylake) reuse runs.  ``progress`` is called with each
        workload name as its predictor job completes."""
        cache_key = (predictor, core)
        if cache_key in self._suites:
            return self._suites[cache_key]
        jobs: List[Job] = []
        for workload in self.workloads:
            jobs.append(self.job(workload, core, None))
            jobs.append(self.job(workload, core, predictor))
        baseline_missing = [job for job in jobs if job.spec is None and
                            (job.workload, job.core) not in self._baselines]
        predictor_jobs = [job for job in jobs if job.spec is not None]
        results = self._run_jobs(baseline_missing + predictor_jobs)
        runs = []
        gaps = []
        for workload in self.workloads:
            if progress is not None:
                progress(workload)
            baseline = self._baselines.get((workload, core))
            result = results.get(self.job(workload, core, predictor))
            if baseline is None or result is None:
                # Non-strict campaign quarantined this workload; report
                # it as an explicit gap instead of a KeyError.
                gaps.append(workload)
                continue
            runs.append(self.pair(workload, baseline, result))
        suite = SuiteResult(runs, gaps=gaps)
        if not gaps:
            self._suites[cache_key] = suite
        return suite
