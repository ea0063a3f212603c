"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``      — list workloads (optionally one category)
``run``       — simulate one workload under one predictor
``compare``   — baseline vs a set of predictors on one workload
``profile``   — per-bucket CPI breakdown (stall attribution) and the
                delta against a second predictor; optional event-trace
                export (``--trace-json``/``--trace-csv``)
``figure``    — regenerate one of the paper's figures (``6`` or ``fig06``)
``sweep``     — predictors × cores over the workload suite
``storage``   — print Table I
``report``    — write a full reproduction report
``cache``     — inspect, clear, prune, or evict the persistent result
                cache (the shared cache tier; ``evict`` applies a
                size budget, oldest-written entries first)
``doctor``    — environment self-check (exit 1 when the host cannot
                run campaigns reliably) plus cache-tier hygiene:
                quarantine files, dead service sockets, WAL debris and
                a legacy sweep-checkpoint directory, removable with
                ``--fix``
``serve``     — run the campaign service daemon: a job queue over a
                unix socket backed by the shared cache tier
                (docs/SERVICE.md)
``submit``    — send a sweep to the daemon and stream its progress
``watch``     — re-attach to a submission's event stream
``jobs``      — daemon queue/record summary (``--stats`` adds the
                service telemetry tree)
``trace``     — build (``trace build``) and inspect (``trace
                inspect``) compact binary trace files for mmap-backed
                streaming replay (docs/TRACES.md)

Trace-shape flags (``--length``/``--warmup``/``--seed``/
``--trace-file``) are shared by every simulating command via one
argparse parent; ``--trace-file`` replays a ``repro trace build``
artefact under bounded RSS and is accepted by the single-workload
commands (``run``, ``compare``, ``profile``).

Every simulating command runs through the campaign engine
(:mod:`repro.experiments.campaign`): ``--jobs N`` fans simulations out
over N worker processes (default: all cores), and results persist
under ``.repro-cache/`` so an identical rerun never simulates
(``--no-cache`` opts out; ``repro cache stats`` shows the counters).
Campaigns are fault-tolerant (docs/ROBUSTNESS.md): ``--timeout`` kills
hung jobs, ``--retries`` bounds retry attempts, an interrupted sweep
resumes by re-running the command it printed (only the jobs the cache
has no result for simulate again), and failed jobs surface as an
explicit summary (exit status 1) instead of aborting the sweep.
A :class:`~repro.errors.ConfigError`, such as a ``--warmup`` that is
negative, not below ``--length``, or so close to it that the measured
region takes 0 cycles, is a usage error: one stderr line, exit
status 2.
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys
from typing import List, Optional

from repro.errors import ConfigError, ReproError
from repro.experiments.campaign import (
    Job,
    JobEvent,
    ResultCache,
    cache_root,
    parse_size,
)
from repro.experiments.report import FIGURES as REPORT_FIGURES
from repro.experiments.runner import (
    Runner,
    core_names,
    default_length,
    default_warmup,
)
from repro.predictors import parse_spec
from repro.telemetry.trace import DEFAULT_CAPACITY
from repro.trace.workloads import CATALOGUE, CATEGORIES, get_profile


def _trace_shape_parent() -> argparse.ArgumentParser:
    """Shared ``--length/--warmup/--seed/--trace-file`` flags — one
    argparse parent reused by every simulating subcommand (mirroring
    ``tools/probes/_common.probe_args``), so trace shape is spelled
    identically across ``run``, ``sweep``, ``profile`` and
    ``trace build``."""
    parent = argparse.ArgumentParser(add_help=False)
    shape = parent.add_argument_group("trace shape")
    shape.add_argument("--length", type=int, default=None,
                       help="trace length in micro-ops (default: "
                            "$REPRO_LENGTH or 250000)")
    shape.add_argument("--warmup", type=int, default=None,
                       help="warmup prefix excluded from statistics "
                            "(default: 40%% of length, capped at 100k)")
    shape.add_argument("--seed", type=int, default=None, metavar="N",
                       help="trace-generation seed override (default: "
                            "the workload's stable seed)")
    shape.add_argument("--trace-file", default=None, metavar="FILE",
                       help="replay a binary trace file (from `repro "
                            "trace build`) instead of generating the "
                            "trace; --length is then taken from the "
                            "file header")
    return parent


def _add_core_arg(parser: argparse.ArgumentParser) -> None:
    """``--core`` (single-workload commands) and the campaign flags."""
    parser.add_argument("--core", choices=core_names(),
                        default="skylake")
    _add_campaign_args(parser)


def _add_campaign_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for the campaign engine "
                             "(default: all cores; 1 = serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the persistent "
                             "result cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result-cache directory (default: "
                             "$REPRO_CACHE_DIR or .repro-cache)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-job wall-clock timeout; hung worker "
                             "jobs are killed and retried")
    parser.add_argument("--retries", type=int, default=2, metavar="N",
                        help="retry budget for transient job failures "
                             "(timeouts, worker crashes; default: 2)")


def _warmup(args) -> int:
    if args.warmup is not None:
        return args.warmup
    return default_warmup(args.length)


def _progress(event: JobEvent) -> None:
    """Per-job progress line on stderr — campaigns stay observable."""
    if event.status == "start":
        return
    if event.status == "retry":
        print(f"  [{event.index}/{event.total}] {event.job.label}: "
              f"{event.error} after {event.elapsed:.2f}s, retrying",
              file=sys.stderr)
        return
    if event.status == "fail":
        print(f"  [{event.index}/{event.total}] {event.job.label}: "
              f"FAILED ({event.error})", file=sys.stderr)
        return
    timing = "cache hit" if event.status == "hit" \
        else f"{event.elapsed:.2f}s"
    print(f"  [{event.index}/{event.total}] {event.job.label}: {timing}",
          file=sys.stderr)


def _runner(args, workloads: Optional[List[str]] = None) -> Runner:
    # A trace file is replayed whole: its header supplies the length,
    # so --length is ignored on that path.
    return Runner(length=None if args.trace_file else args.length,
                  warmup=args.warmup, workloads=workloads, jobs=args.jobs,
                  use_cache=not args.no_cache, cache_dir=args.cache_dir,
                  progress=_progress, timeout=args.timeout,
                  retries=args.retries, seed=args.seed,
                  trace_file=args.trace_file)


def _reject_trace_file(args, command: str) -> bool:
    """True (after an stderr diagnostic) when ``--trace-file`` was
    given to a command that runs multiple workloads and cannot honour
    it."""
    if getattr(args, "trace_file", None) is not None:
        print(f"{command} runs multiple workloads; --trace-file applies "
              "to single-workload commands (run, compare, profile)",
              file=sys.stderr)
        return True
    return False


def _figure_number(text: str) -> int:
    """Accept both ``6`` and the figure label forms ``fig6``/``fig06``."""
    raw = text.lower()
    if raw.startswith("fig"):
        raw = raw[3:]
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a figure number (use 6..13 or fig06..fig13)"
        ) from None


def cmd_list(args) -> int:
    """List the workload catalogue, grouped by category."""
    for category in CATEGORIES:
        if args.category and category != args.category:
            continue
        names = [name for name, profile in CATALOGUE.items()
                 if profile.category == category]
        print(f"{category} ({len(names)}):")
        print("  " + ", ".join(names))
    return 0


def cmd_run(args) -> int:
    """Simulate one (workload, core, predictor) job."""
    runner = _runner(args, workloads=[args.workload])
    run, = runner.suite(args.predictor, args.core)
    print(run.result.summary())
    print(f"speedup over baseline: {run.gain:+.2%}")
    return 0


def cmd_compare(args) -> int:
    """Rank predictors against the baseline on one workload."""
    runner = _runner(args, workloads=[args.workload])
    suites = runner.suites(args.predictors, args.core)
    runs = [suites[name][0] for name in args.predictors]
    print(f"{args.workload} on {args.core}: baseline IPC "
          f"{runs[0].baseline.ipc:.3f}")
    print(f"{'predictor':<16} {'speedup':>9} {'coverage':>9} "
          f"{'accuracy':>9}")
    for name, run in zip(args.predictors, runs):
        print(f"{name:<16} {run.gain:+9.2%} "
              f"{run.coverage:9.1%} {run.result.accuracy:9.2%}")
    return 0


def _parse_age(text: str) -> float:
    """Duration in seconds from ``3600``, ``30m``, ``12h``, ``7d``,
    ``2w`` forms."""
    units = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 7 * 86400}
    raw = text.strip().lower()
    scale = 1.0
    if raw and raw[-1] in units:
        scale = units[raw[-1]]
        raw = raw[:-1]
    try:
        seconds = float(raw) * scale
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an age (use e.g. 3600, 30m, 12h, 7d)"
        ) from None
    if seconds < 0:
        raise argparse.ArgumentTypeError("age must be >= 0")
    return seconds


def cmd_profile(args) -> int:
    """Stall-attribution CPI breakdown, predictor vs baseline."""
    from repro.analysis.reporting import format_cpi_breakdown

    runner = _runner(args, workloads=[args.workload])
    against_spec = None if args.against == "baseline" else args.against
    job, against = (runner.job(args.workload, args.core, spec)
                    for spec in (args.predictor, against_spec))
    results = runner.results([job, against])
    run = runner.pair(args.workload, results[against], results[job])
    print(format_cpi_breakdown(run.result, run.baseline))
    print(f"IPC {run.result.ipc:.3f} vs {run.baseline.predictor} "
          f"{run.baseline.ipc:.3f} ({run.gain:+.2%})")
    if args.trace_json or args.trace_csv:
        _export_event_trace(args, runner)
    return 0


def _export_event_trace(args, runner) -> None:
    """Rerun the profiled configuration in-process with the bounded
    event ring enabled and write the requested export(s)."""
    from repro.experiments.campaign import build_predictor
    from repro.experiments.runner import core_config
    from repro.pipeline.engine import Engine
    from repro.telemetry.export import write_chrome_trace, write_csv_trace

    trace = runner.trace(args.workload)
    config = core_config(args.core)
    predictor = build_predictor(args.predictor, trace, config)
    engine = Engine(config, predictor, collect_events=True,
                    event_capacity=args.trace_events)
    result = engine.run(trace, workload=args.workload,
                        warmup=runner.warmup)
    label = f"{args.workload}/{args.core}/{args.predictor}"
    if args.trace_json:
        write_chrome_trace(args.trace_json, result.events, label)
        print(f"wrote {args.trace_json} ({len(result.events)} events, "
              f"{result.events.dropped} dropped)")
    if args.trace_csv:
        write_csv_trace(args.trace_csv, result.events)
        print(f"wrote {args.trace_csv}")


def cmd_figure(args) -> int:
    """Regenerate one paper figure via its experiment driver.

    Runs the campaign non-strictly: jobs lost to crashes or timeouts
    become explicit gap annotations in the rendered figure (and a
    failure summary on stderr, exit status 1) rather than aborting."""
    from repro.experiments import figures

    driver = getattr(figures, f"figure{args.number}", None)
    renderer = getattr(figures, f"render_figure{args.number}", None)
    if driver is None or renderer is None:
        print(f"no driver for figure {args.number}", file=sys.stderr)
        return 2
    if _reject_trace_file(args, "figure"):
        return 2
    runner = _default_runner_for(args, strict=False)
    print(renderer(driver(runner)))
    return _report_failures(runner)


def _report_failures(runner: Runner) -> int:
    """Print the campaign's quarantined-failure summary; exit status 1
    when any job failed, 0 on a complete campaign."""
    failures = runner.engine.failures
    if not failures:
        return 0
    print(f"{len(failures)} job(s) failed and were quarantined "
          "(docs/ROBUSTNESS.md):", file=sys.stderr)
    for failure in failures.values():
        print(f"  {failure.summary()}", file=sys.stderr)
    return 1


def cmd_sweep(args) -> int:
    """Full design-space sweep: every predictor × every core over the
    workload suite, as one deduplicated campaign.

    The result cache is the sweep's only progress record: with the
    cache enabled the sweep prints, on stderr, the exact command that
    resumes it.  Re-running that command serves every finished job
    from the cache and simulates only the rest.  Failed jobs are
    quarantined (not fatal): the sweep prints a failure summary and
    exits with status 1."""
    from repro.analysis.reporting import format_suite, format_table

    if _reject_trace_file(args, "sweep"):
        return 2
    runner = _default_runner_for(args, strict=False)
    if not args.no_cache:
        print("resume with: " + shlex.join(_sweep_command(args)),
              file=sys.stderr)

    runner.results(runner.plan([(predictor, core) for core in args.cores
                                for predictor in args.predictors]))
    rows = []
    for core in args.cores:
        for predictor, suite in runner.suites(args.predictors,
                                              core).items():
            if suite.runs:
                rows.append((core, predictor, f"{suite.gain:+.2%}",
                             f"{suite.coverage:.1%}", len(suite)))
            else:  # every workload quarantined — aggregates undefined
                rows.append((core, predictor, "-", "-", 0))
            if args.per_workload and suite.runs:
                print(format_suite(f"{predictor} on {core}", suite))
                print()
    print(format_table(
        ("core", "predictor", "geomean gain", "coverage", "workloads"),
        rows))
    return _report_failures(runner)


def _sweep_command(args) -> List[str]:
    """The ``repro sweep`` command line that maps to the same job keys
    as ``args``.  Length and warmup are spelled out resolved, so
    ``REPRO_LENGTH``/``REPRO_WARMUP`` cannot change them between
    runs; an omitted ``--per-category``/``--seed`` has no environment
    default (the whole suite, each workload's stable seed)."""
    command = ["repro", "sweep", *args.predictors,
               "--cores", *args.cores, "--length", str(args.length),
               "--warmup", str(_warmup(args))]
    if args.per_category is not None:
        command += ["--per-category", str(args.per_category)]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    if args.cache_dir is not None:
        command += ["--cache-dir", args.cache_dir]
    return command


def _default_runner_for(args, strict: bool = True) -> Runner:
    from repro.experiments.figures import default_runner

    return default_runner(length=args.length, warmup=_warmup(args),
                          per_category=args.per_category,
                          jobs=args.jobs, use_cache=not args.no_cache,
                          cache_dir=args.cache_dir, progress=_progress,
                          timeout=args.timeout, retries=args.retries,
                          strict=strict, seed=args.seed)


def cmd_storage(_args) -> int:
    """Print the paper's Table I storage breakdown."""
    from repro.experiments import storage

    print(storage.format_table1())
    return 0


def cmd_report(args) -> int:
    """Write the full paper-vs-measured markdown report."""
    from repro.experiments.report import write_report

    if _reject_trace_file(args, "report"):
        return 2
    runner = _default_runner_for(args)
    write_report(args.output, runner, figure_numbers=args.figures,
                 include_oracle=args.oracle)
    print(f"wrote {args.output}")
    return 0


def cmd_cache(args) -> int:
    """Inspect, clear, prune, or budget-evict the result cache."""
    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.root}")
        return 0
    if args.action == "prune":
        if args.older_than is None:
            print("cache prune requires --older-than (e.g. 7d, 12h)",
                  file=sys.stderr)
            return 2
        removed = cache.prune(args.older_than)
        print(f"pruned {removed} cached result(s) older than "
              f"{args.older_than:.0f}s from {cache.root}")
        return 0
    if args.action == "evict":
        if args.budget is None and not cache.budget_bytes:
            print("cache evict requires --budget (e.g. 256M) or "
                  "REPRO_CACHE_BUDGET", file=sys.stderr)
            return 2
        try:
            budget = parse_size(args.budget) if args.budget else None
        except ConfigError as exc:
            print(exc, file=sys.stderr)
            return 2
        removed = cache.enforce_budget(budget)
        cache.flush_stats(0)
        print(f"evicted {removed} entr(y/ies) from {cache.root} "
              f"(budget {budget or cache.budget_bytes} bytes, "
              f"now {cache.size_bytes()} bytes)")
        return 0
    stats = cache.load_stats()
    entries = cache.entries()
    last = stats["last_run"]
    print(f"cache directory: {cache.root}")
    print(f"entries: {len(entries)} ({cache.size_bytes() / 1024:.1f} KiB)")
    if cache.budget_bytes:
        print(f"eviction budget: {cache.budget_bytes} bytes")
    print(f"cumulative: {stats['hits']} hits, {stats['misses']} misses, "
          f"{stats['simulated']} simulations executed, "
          f"{stats['evicted']} evicted")
    print(f"last run: {last['hits']} hits, {last['misses']} misses, "
          f"{last['simulated']} simulations executed")
    bad = cache.quarantined_entries()
    if bad or stats.get("quarantined"):
        print(f"quarantined: {len(bad)} corrupt entr(y/ies) on disk "
              f"({stats.get('quarantined', 0)} lifetime; see *.bad files)")
    return 0


def _service_socket(args) -> str:
    """The daemon rendezvous for this invocation: ``--socket`` wins,
    else the cache-tier default (see repro.service.protocol)."""
    from repro.service.protocol import socket_path

    if getattr(args, "socket", None):
        return args.socket
    return socket_path(getattr(args, "cache_dir", None))


def _render_service_event(frame) -> None:
    """One stderr line per streamed service frame (mirrors the local
    campaign ``_progress`` rendering)."""
    kind = frame.get("event")
    if kind == "accepted":
        print(f"submission {frame['id']}: {frame['total']} job(s) — "
              f"{frame['new']} new, {frame['deduped_inflight']} "
              f"in-flight, {frame['deduped_cached']} cached",
              file=sys.stderr)
        return
    if kind == "complete":
        print(f"submission {frame['id']} complete: {frame['hits']} "
              f"cache hit(s), {frame['simulated']} simulated, "
              f"{frame['failed']} failed", file=sys.stderr)
        return
    if kind != "job" or frame.get("status") == "start":
        return
    status = frame["status"]
    index = frame.get("index")
    prefix = f"  [{index}/{frame.get('total')}] " \
        if index is not None else "  "
    if status == "retry":
        print(f"{prefix}{frame['label']}: {frame.get('error')} after "
              f"{frame.get('elapsed', 0.0):.2f}s, retrying",
              file=sys.stderr)
    elif status == "fail":
        print(f"{prefix}{frame['label']}: FAILED "
              f"({frame.get('error')})", file=sys.stderr)
    elif status == "hit":
        print(f"{prefix}{frame['label']}: cache hit", file=sys.stderr)
    else:
        print(f"{prefix}{frame['label']}: "
              f"{frame.get('elapsed', 0.0):.2f}s", file=sys.stderr)


def cmd_serve(args) -> int:
    """Run (or, with ``--stop``, stop) the campaign service daemon."""
    from repro.service import client as service_client
    from repro.service.daemon import ServiceDaemon

    path = _service_socket(args)
    if args.stop:
        try:
            service_client.shutdown(path)
        except ReproError as exc:
            print(exc, file=sys.stderr)
            return 1
        print(f"daemon at {path} stopped")
        return 0
    cache = None
    try:
        if not args.no_cache:
            budget = parse_size(args.cache_budget) \
                if args.cache_budget else None
            cache = ResultCache(args.cache_dir, budget_bytes=budget)
        daemon = ServiceDaemon(path, cache=cache, jobs=args.jobs,
                               timeout=args.timeout,
                               retries=args.retries,
                               max_pending=args.max_pending)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"serving campaigns on {path}", file=sys.stderr)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:  # clean ^C shutdown
        daemon.stop()
    except ReproError as exc:
        print(exc, file=sys.stderr)
        return 1
    return 0


def _drain_service_stream(stream, output: Optional[str]) -> int:
    """Render a submit/watch event stream, optionally writing the
    collected results JSON; exit status reflects failed jobs."""
    import json

    from repro.service.client import collect_results

    def rendered():
        for frame in stream:
            _render_service_event(frame)
            yield frame

    try:
        out = collect_results(rendered())
    except ReproError as exc:
        print(exc, file=sys.stderr)
        return 1
    if output is not None:
        payload = {name: out[name]
                   for name in ("results", "failures", "complete")}
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
        print(f"wrote {output} ({len(out['results'])} result(s))")
    if out["complete"] is None:
        print("stream ended before completion (daemon stopped?)",
              file=sys.stderr)
        return 1
    return 1 if out["failures"] else 0


def cmd_submit(args) -> int:
    """Submit a predictors × cores × workloads sweep to the daemon."""
    from repro.service import client as service_client

    if args.trace_file is not None and len(args.workloads) != 1:
        print("submit --trace-file requires exactly one --workloads "
              "entry", file=sys.stderr)
        return 2
    jobs: List[Job] = []
    for core in args.cores:
        for predictor in args.predictors:
            spec = None if predictor == "baseline" else predictor
            for workload in args.workloads:
                jobs.append(Job(workload, core, spec, args.length,
                                _warmup(args), args.seed,
                                args.trace_file))
    path = _service_socket(args)
    try:
        stream = service_client.submit(path, jobs,
                                       priority=args.priority,
                                       watch=not args.no_watch)
        if args.no_watch:
            for frame in stream:
                _render_service_event(frame)
                if frame.get("event") == "accepted":
                    print(f"{frame['id']} (follow with: repro watch "
                          f"{frame['id']})")
            return 0
        return _drain_service_stream(stream, args.output)
    except ReproError as exc:
        print(exc, file=sys.stderr)
        return 1


def cmd_watch(args) -> int:
    """Re-attach to a submission's event stream by id."""
    from repro.service import client as service_client

    path = _service_socket(args)
    try:
        stream = service_client.watch(path, args.id)
        return _drain_service_stream(stream, args.output)
    except ReproError as exc:
        print(exc, file=sys.stderr)
        return 1


def _flatten_stat_payload(payload, prefix: str = "") -> List[tuple]:
    """``(dotted path, value)`` rows from a ``StatGroup.to_dict``
    payload, depth-first."""
    rows: List[tuple] = []
    for name, child in payload.get("children", {}).items():
        dotted = f"{prefix}{name}"
        if child.get("kind") == "group":
            rows.extend(_flatten_stat_payload(child, dotted + "."))
        else:
            rows.append((dotted, child.get("value")))
    return rows


#: Seconds without a scheduler event, while work is queued or in
#: flight, after which the daemon counts as wedged.
WEDGE_SECONDS = 300


def _scheduler_verdict(summary, flat) -> Optional[str]:
    """The scheduler line ``repro jobs --stats`` and ``repro doctor``
    print, from a ``jobs`` summary and the flattened ``stats`` tree:
    ``WEDGED?`` when work is queued or in flight and the scheduler has
    been silent past :data:`WEDGE_SECONDS` (``None`` without the
    scheduler stats)."""
    busy = flat.get("service.scheduler.busy")
    age = flat.get("service.scheduler.activity-age")
    if busy is None or age is None:
        return None
    records = summary["records"]
    backlog = summary["queued_batches"] + records["pending"] \
        + records["running"]
    verdict = ""
    if backlog and age > WEDGE_SECONDS:
        verdict = " — WEDGED? work is queued but the scheduler has " \
            "been silent"
    return (f"scheduler: {'busy' if busy else 'idle'}, last activity "
            f"{age:.1f}s ago{verdict}")


def cmd_jobs(args) -> int:
    """Daemon queue/record summary, optionally with telemetry."""
    from repro.analysis.reporting import format_table
    from repro.service import client as service_client

    path = _service_socket(args)
    try:
        summary = service_client.list_jobs(path)
        stats = service_client.fetch_stats(path) if args.stats else None
    except ReproError as exc:
        print(exc, file=sys.stderr)
        return 1
    records = summary["records"]
    print(f"service at {path}")
    print(f"queued batches: {summary['queued_batches']}; records: "
          + ", ".join(f"{records[state]} {state}"
                      for state in ("pending", "running", "done",
                                    "failed")))
    rows = [(sub["id"], sub["priority"], sub["total"], sub["done"],
             sub["failed"], "complete" if sub["complete"] else "open")
            for sub in summary["submissions"]]
    if rows:
        print(format_table(("submission", "priority", "jobs", "done",
                            "failed", "state"), rows))
    if stats is not None:
        print("telemetry (service.* / cache.*):")
        flat = dict(_flatten_stat_payload(stats["tree"]))
        for dotted, value in sorted(flat.items()):
            print(f"  {dotted:<28} {value}")
        verdict = _scheduler_verdict(summary, flat)
        if verdict is not None:
            print(verdict)
    return 0


def cmd_doctor(args) -> int:
    """Environment self-check: verify this host can run campaigns
    reliably (worker processes, advisory locking, atomic cache writes,
    deterministic simulation).  Exit status 1 when any check fails."""
    import multiprocessing
    import platform
    import tempfile

    failures = 0

    def check(label: str, fn) -> None:
        """Run one probe, printing ok/FAIL and counting failures."""
        nonlocal failures
        try:
            detail = fn()
        # Diagnostic surface: a probe must never crash the report, so
        # everything is caught and rendered.  # reprolint: disable=RL004
        except Exception as exc:  # noqa: BLE001 - diagnostic surface
            failures += 1
            print(f"FAIL  {label}: {type(exc).__name__}: {exc}")
        else:
            print(f"  ok  {label}" + (f" ({detail})" if detail else ""))

    def check_python():
        """Require python >= 3.9 (oldest version the suite supports)."""
        if sys.version_info < (3, 9):
            raise ReproError(f"python {platform.python_version()} < 3.9")
        return platform.python_version()

    def check_pool():
        """Round-trip a value through a real worker process."""
        ctx = multiprocessing.get_context()
        parent, child = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_doctor_worker, args=(child,),
                           daemon=True)
        proc.start()
        child.close()
        if not parent.poll(30):
            proc.terminate()
            raise ReproError("worker did not respond within 30s")
        reply = parent.recv()
        proc.join()
        if reply != 42:
            raise ReproError(f"worker replied {reply!r}")
        return f"start method {ctx.get_start_method()}"

    def check_locking():
        """Probe for the advisory file locking the cache lock uses."""
        import fcntl  # noqa: F401 - availability probe

        return "fcntl advisory locks available"

    def check_cache():
        """Verify the cache directory parent is writable with atomic rename."""
        root = cache_root(args.cache_dir)
        parent = os.path.dirname(os.path.abspath(root)) or "."
        with tempfile.TemporaryDirectory(dir=parent) as tmp:
            probe = os.path.join(tmp, "probe")
            with open(probe + ".tmp", "w", encoding="utf-8") as handle:
                handle.write("x")
            os.replace(probe + ".tmp", probe)
        return f"{root} writable, atomic rename works"

    def check_determinism():
        """Simulate the same workload twice and demand bit-identical cycles."""
        from repro.pipeline.engine import simulate
        from repro.trace.builder import build_trace
        from repro.trace.workloads import get_profile

        trace = build_trace(get_profile("astar"), 2000)
        first = simulate(trace, warmup=500)
        second = simulate(build_trace(get_profile("astar"), 2000),
                          warmup=500)
        if first.cycles != second.cycles:
            raise ReproError(
                f"non-deterministic: {first.cycles} != {second.cycles}")
        return f"{first.cycles} cycles, bit-stable"

    check("python version", check_python)
    check("worker processes", check_pool)
    check("advisory file locking", check_locking)
    check("cache directory", check_cache)
    check("deterministic simulation", check_determinism)

    from repro import envreg, typing_ratchet

    print("environment registry (src/repro/envreg.py; RL006):")
    print(envreg.format_registry(os.environ))
    unknown = envreg.undeclared(os.environ)
    if unknown:
        failures += len(unknown)
        print(f"FAIL  {len(unknown)} unregistered REPRO_* override(s): "
              + ", ".join(unknown), file=sys.stderr)
    strict, total = typing_ratchet.coverage()
    print(f"mypy --strict ratchet: {strict}/{total} modules "
          f"({typing_ratchet.coverage_percent():.0f}% of src/repro; "
          "see mypy.ini)")
    _doctor_hygiene(args)
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def _doctor_hygiene(args) -> None:
    """Cache-tier hygiene report: quarantined ``*.bad`` entries, a
    dead service socket, service-tier debris — orphaned/corrupt WAL
    segments (only scanned when no daemon is live, so an active WAL is
    never touched) — and the sweep-checkpoint directory older versions
    wrote beside the results.  Findings are advisory (they never fail
    ``doctor``); ``--fix`` removes them.  Also reports, for a live
    daemon, its scheduler verdict (wedged vs busy, as ``repro jobs
    --stats``) and, with no live daemon, an unsealed WAL — the crash
    evidence the next ``repro serve`` recovers, which ``--fix`` never
    touches."""
    import shutil

    from repro.errors import ServiceUnavailable
    from repro.service import client as service_client
    from repro.service import wal as wal_mod
    from repro.service.protocol import socket_path

    root = cache_root(args.cache_dir)
    findings: List[tuple] = []

    # Older versions checkpointed sweeps here; nothing reads it now.
    legacy = os.path.join(root, "campaigns")
    if os.path.isdir(legacy):
        findings.append(("legacy sweep-checkpoint directory", legacy))

    cache = ResultCache(root)
    for key in cache.quarantined_entries():
        findings.append(("quarantined cache entry",
                         cache.path(key) + cache.BAD_SUFFIX))

    wal_root = os.path.join(root, wal_mod.WAL_DIRNAME)
    live = False
    sock = socket_path(root)
    if os.path.exists(sock):
        try:
            summary = service_client.list_jobs(sock, timeout=2.0)
            stats = service_client.fetch_stats(sock, timeout=2.0)
            live = True
        except ServiceUnavailable:
            findings.append(("dead service socket", sock))
    if live:
        print(f"  ok  service daemon live on {sock}")
        verdict = _scheduler_verdict(
            summary, dict(_flatten_stat_payload(stats["tree"])))
        if verdict is not None:
            print(f"      {verdict}")
    else:
        # No live daemon: WAL debris is safe to report/clean.  Intact
        # segments are NOT findings — they hold queue state the next
        # daemon start will recover.
        for orphan in wal_mod.orphan_files(wal_root):
            findings.append(("orphaned WAL temporary", orphan))
        for corrupt in wal_mod.corrupt_segments(wal_root):
            findings.append(("corrupt WAL segment (no decodable "
                             "records)", corrupt))
        records, torn = wal_mod.replay_segments(wal_root)
        if (records or torn) and records[-1:] != [{"t": "seal"}]:
            print(f"unsealed WAL: {len(records)} trusted record(s), "
                  f"{torn} torn; the next repro serve recovers it")

    if not findings:
        print("cache hygiene: clean (no quarantine files, dead "
              "sockets, WAL debris, or legacy checkpoints)")
        return
    verb = "removed" if args.fix else "found"
    print(f"cache hygiene: {len(findings)} finding(s)"
          + ("" if args.fix else " (repro doctor --fix removes them)"))
    for kind, target in findings:
        if args.fix:
            try:
                if os.path.isdir(target):
                    shutil.rmtree(target)
                else:
                    os.remove(target)
            except OSError as exc:
                print(f"  FAILED to remove {kind}: {target} ({exc})",
                      file=sys.stderr)
                continue
        print(f"  {verb} {kind}: {target}")


def _doctor_worker(conn) -> None:
    """Child-process probe for ``repro doctor``: prove a worker can
    start and report back over a pipe."""
    conn.send(42)
    conn.close()


def cmd_lint(args) -> int:
    """Run reprolint (docs/LINTING.md); imported only for this command."""
    from repro.lint.cli import run

    return run(args.paths, args.select, args.list_rules)


def cmd_trace_build(args) -> int:
    """Materialize a workload's trace as a compact binary file
    (streamed — bounded RSS whatever the length; docs/TRACES.md)."""
    from repro.trace.builder import stream_trace
    from repro.trace.io import trace_file_hash, write_trace_file
    from repro.trace.workloads import reseeded

    if args.trace_file is not None:
        print("trace build generates a trace file; --trace-file is for "
              "replaying one (use run/compare/profile)",
              file=sys.stderr)
        return 2
    profile = get_profile(args.workload)
    if args.seed is not None:
        profile = reseeded(profile, args.seed)
    output = args.output or f"{args.workload}.rvt"
    count = write_trace_file(stream_trace(profile, args.length), output)
    print(f"wrote {output}: {count} ops "
          f"(sha256 {trace_file_hash(output)[:16]}…)")
    return 0


def cmd_trace_inspect(args) -> int:
    """Print a trace file's header summary (and, with ``--stats``, its
    instruction mix from one bounded-memory streaming pass)."""
    from repro.trace.builder import trace_stats
    from repro.trace.io import inspect_trace, open_trace

    try:
        info = inspect_trace(args.file, verify=args.verify)
    except (OSError, ValueError) as exc:
        print(f"cannot inspect {args.file}: {exc}", file=sys.stderr)
        return 1
    print(f"{info['path']}: v{info['version']} trace, {info['ops']} ops, "
          f"{info['size_bytes']} bytes")
    print(f"content hash: {info['content_hash']}"
          + ("  (payload verified)" if args.verify else ""))
    if args.stats:
        with open_trace(args.file) as source:
            stats = trace_stats(source)
        print(f"static PCs: {stats['static_pcs']}")
        for kind in ("loads", "stores", "branches", "alu", "fp", "other"):
            print(f"  {kind:<9} {stats[kind]:6.1%}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The `python -m repro` argument parser (one sub-command per verb)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Focused Value Prediction (ISCA 2020) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)
    shape = _trace_shape_parent()

    p_list = sub.add_parser("list", help="list workloads")
    p_list.add_argument("--category", choices=CATEGORIES)
    p_list.set_defaults(func=cmd_list)

    p_run = sub.add_parser("run", parents=[shape],
                           help="simulate one workload")
    p_run.add_argument("workload")
    p_run.add_argument("--predictor", default="fvp")
    _add_core_arg(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", parents=[shape],
                           help="compare predictors")
    p_cmp.add_argument("workload")
    p_cmp.add_argument("predictors", nargs="+")
    _add_core_arg(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_prof = sub.add_parser(
        "profile", parents=[shape],
        help="per-bucket CPI breakdown and delta vs another predictor")
    p_prof.add_argument("workload")
    p_prof.add_argument("--predictor", default="fvp")
    p_prof.add_argument("--against", default="baseline", metavar="PRED",
                        help="predictor to diff against "
                             "(default: baseline)")
    p_prof.add_argument("--trace-json", default=None, metavar="FILE",
                        help="write a Chrome-trace JSON event trace")
    p_prof.add_argument("--trace-csv", default=None, metavar="FILE",
                        help="write a CSV event trace")
    p_prof.add_argument("--trace-events", type=int, default=DEFAULT_CAPACITY,
                        metavar="N",
                        help="event ring-buffer capacity (keeps the "
                             "newest N events)")
    _add_core_arg(p_prof)
    p_prof.set_defaults(func=cmd_profile)

    p_fig = sub.add_parser("figure", parents=[shape],
                           help="regenerate a paper figure")
    p_fig.add_argument("number", type=_figure_number,
                       choices=range(6, 14), metavar="{6..13|fig06..fig13}")
    p_fig.add_argument("--per-category", type=int, default=None)
    _add_campaign_args(p_fig)
    p_fig.set_defaults(func=cmd_figure)

    p_sweep = sub.add_parser(
        "sweep", parents=[shape],
        help="sweep predictors × cores over the suite")
    p_sweep.add_argument("predictors", nargs="+",
                         help="predictor registry names")
    p_sweep.add_argument("--cores", nargs="+", default=["skylake"],
                         choices=core_names())
    p_sweep.add_argument("--per-category", type=int, default=None)
    p_sweep.add_argument("--per-workload", action="store_true",
                         help="also print per-workload tables")
    _add_campaign_args(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_storage = sub.add_parser("storage", help="print Table I")
    p_storage.set_defaults(func=cmd_storage)

    p_report = sub.add_parser("report", parents=[shape],
                              help="write a full reproduction report")
    p_report.add_argument("--output", default="report.md")
    p_report.add_argument("--figures", type=int, nargs="+",
                          choices=REPORT_FIGURES, default=[6, 7, 10, 12])
    p_report.add_argument("--per-category", type=int, default=None)
    p_report.add_argument("--oracle", action="store_true",
                          help="include the (slow) DDG-oracle bar")
    _add_campaign_args(p_report)
    p_report.set_defaults(func=cmd_report)

    p_trace = sub.add_parser(
        "trace", help="build and inspect binary trace files "
                      "(docs/TRACES.md)")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_tbuild = trace_sub.add_parser(
        "build", parents=[shape],
        help="materialize a workload's trace as a compact binary file")
    p_tbuild.add_argument("workload")
    p_tbuild.add_argument("--output", "-o", default=None, metavar="FILE",
                          help="output path (default: <workload>.rvt)")
    p_tbuild.set_defaults(func=cmd_trace_build)
    p_tinspect = trace_sub.add_parser(
        "inspect", help="print a trace file's header summary")
    p_tinspect.add_argument("file")
    p_tinspect.add_argument("--verify", action="store_true",
                            help="re-hash the payload and compare "
                                 "against the header's content hash")
    p_tinspect.add_argument("--stats", action="store_true",
                            help="also stream one pass and print the "
                                 "instruction mix")
    p_tinspect.set_defaults(func=cmd_trace_inspect)

    p_cache = sub.add_parser(
        "cache", help="inspect, clear, prune, or evict the result cache")
    p_cache.add_argument("action",
                         choices=("stats", "clear", "prune", "evict"))
    p_cache.add_argument("--older-than", type=_parse_age, default=None,
                         metavar="AGE",
                         help="prune entries older than AGE "
                              "(e.g. 3600, 30m, 12h, 7d)")
    p_cache.add_argument("--budget", default=None, metavar="SIZE",
                         help="evict the oldest-written entries until "
                              "the cache fits SIZE (e.g. 268435456, "
                              "256M, 1G)")
    p_cache.add_argument("--cache-dir", default=None, metavar="DIR")
    p_cache.set_defaults(func=cmd_cache)

    p_doctor = sub.add_parser(
        "doctor", help="environment self-check for reliable campaigns")
    p_doctor.add_argument("--cache-dir", default=None, metavar="DIR")
    p_doctor.add_argument("--fix", action="store_true",
                          help="remove the hygiene findings (*.bad "
                               "files, dead service sockets, WAL "
                               "debris, the legacy sweep-checkpoint "
                               "directory)")
    p_doctor.set_defaults(func=cmd_doctor)

    p_serve = sub.add_parser(
        "serve", help="run the campaign service daemon "
                      "(docs/SERVICE.md)")
    p_serve.add_argument("--socket", default=None, metavar="PATH",
                         help="unix socket path (default: "
                              "$REPRO_SERVICE_SOCKET or "
                              "<cache-dir>/service.sock)")
    p_serve.add_argument("--cache-budget", default=None, metavar="SIZE",
                         help="cache-tier eviction budget (e.g. 256M; "
                              "default: $REPRO_CACHE_BUDGET)")
    p_serve.add_argument("--stop", action="store_true",
                         help="ask the running daemon to drain and "
                              "exit")
    p_serve.add_argument("--max-pending", type=int, default=0,
                         metavar="N",
                         help="backpressure bound: reject submissions "
                              "once N job records are pending/running "
                              "(default: 0 = unbounded)")
    _add_campaign_args(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit", parents=[shape],
        help="submit a sweep to the service daemon")
    p_submit.add_argument("predictors", nargs="+",
                          help="predictor registry names "
                               "('baseline' for the no-VP core)")
    p_submit.add_argument("--workloads", nargs="+", required=True,
                          help="workload names (see `repro list`)")
    p_submit.add_argument("--cores", nargs="+", default=["skylake"],
                          choices=core_names())
    p_submit.add_argument("--priority", type=int, default=0,
                          help="queue priority (higher runs first; "
                               "default: 0)")
    p_submit.add_argument("--no-watch", action="store_true",
                          help="enqueue and detach (follow later "
                               "with `repro watch`)")
    p_submit.add_argument("--output", default=None, metavar="FILE",
                          help="write the streamed results as JSON")
    p_submit.add_argument("--socket", default=None, metavar="PATH")
    p_submit.add_argument("--cache-dir", default=None, metavar="DIR")
    p_submit.set_defaults(func=cmd_submit)

    p_watch = sub.add_parser(
        "watch", help="re-attach to a service submission's progress")
    p_watch.add_argument("id", help="submission id (e.g. S0001)")
    p_watch.add_argument("--output", default=None, metavar="FILE",
                         help="write the streamed results as JSON")
    p_watch.add_argument("--socket", default=None, metavar="PATH")
    p_watch.add_argument("--cache-dir", default=None, metavar="DIR")
    p_watch.set_defaults(func=cmd_watch)

    p_jobs = sub.add_parser(
        "jobs", help="service queue and job-record summary")
    p_jobs.add_argument("--stats", action="store_true",
                        help="also print the service telemetry tree")
    p_jobs.add_argument("--socket", default=None, metavar="PATH")
    p_jobs.add_argument("--cache-dir", default=None, metavar="DIR")
    p_jobs.set_defaults(func=cmd_jobs)

    p_lint = sub.add_parser(
        "lint", help="simulator-aware static analysis (the rules listed "
                     "by --list-rules; docs/LINTING.md)")
    p_lint.add_argument("paths", nargs="*", metavar="PATH",
                        default=["src/repro", "tools"],
                        help="files/directories to lint "
                             "(default: src/repro tools)")
    p_lint.add_argument("--select", metavar="RLxxx[,RLyyy]", default=None,
                        help="comma-separated rule codes to run "
                             "(default: all)")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    p_lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    single = getattr(args, "workload", None)
    workloads = [single] if single is not None else []
    if args.command == "submit":
        workloads += list(args.workloads)
    for workload in workloads:
        try:
            get_profile(workload)
        except KeyError:
            print(f"unknown workload {workload!r} "
                  f"(see `repro list`)", file=sys.stderr)
            return 2
    specs = list(getattr(args, "predictors", None) or ())
    for attr in ("predictor", "against"):
        value = getattr(args, attr, None)
        if value is not None:
            specs.append(value)
    try:
        for spec in specs:
            parse_spec(spec)
        if getattr(args, "length", 0) is None:
            args.length = default_length()
        return args.func(args)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
