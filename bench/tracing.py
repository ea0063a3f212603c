"""Outside-in tracer for the benchmark.

Spans are recorded around calls into the program's layers from the
benchmark's own files; the program itself is not edited.  Wrappers are
installed at class or module level and removed by :meth:`Tracer.restore`.
Class level, because the engine's components use ``__slots__`` (an
instance of ``MemoryHierarchy`` cannot take a wrapper attribute), and
because the engine binds methods such as ``memory.access`` once per run:
an instance patch made after that would be missed.

Two kinds of span are kept in memory until :meth:`Tracer.flush`:

* kept spans: one record per call (name, start, end, parent, run id),
  for coarse boundaries such as ``Engine.run`` or one campaign job;
* folded spans: per-op boundaries (a cache access, a predictor hook) are
  summed per (name, enclosing kept span, immediate caller) into a call
  count, total time and self time, so a long run stays in bounded memory.

A span's self time is its duration minus the time its child spans cover.
Times come from ``time.perf_counter``, which on Linux reads the
system-wide monotonic clock, so spans from forked workers and from the
service daemon share one time base with the benchmark process.

A layer is the first component of a span name: ``memory.access`` belongs
to ``memory``.  ``bench`` spans are the benchmark's own requests and
``idle`` spans are sleeps and condition waits, so the shares of the
program's layers exclude time spent waiting.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

#: The program's layers, named after ``src/repro`` packages.  ``predictors``
#: covers the engine's value-predictor hooks, whichever package defines the
#: predictor class (``core`` for FVP, ``predictors`` for prior art).
LAYERS = ("pipeline", "frontend", "memory", "predictors", "trace",
          "experiments", "analysis", "service")

#: Engine-to-predictor hooks (``repro.pipeline.vp_interface``).
PREDICTOR_HOOKS = ("predict", "train_execute", "epoch_tick",
                   "on_forwarding")

SPANS_SUFFIX = ".spans.jsonl"

_MISSING = object()


def layer_of(name: Optional[str]) -> Optional[str]:
    """The layer a span name belongs to (``None`` for no span)."""
    return None if name is None else name.split(".", 1)[0]


class Tracer:
    """Records spans for one benchmark run (``run_id``) and writes them
    to ``<out_dir>/<run_id>.<pid>.spans.jsonl``.

    A forked child starts with empty buffers (see :meth:`_forget_parent`);
    wrappers installed with ``flush=True`` write the child's spans to its
    own file when the call returns, because pool workers exit without
    running ``atexit`` handlers."""

    def __init__(self, run_id: str, out_dir: os.PathLike) -> None:
        self.run_id = run_id
        self.out_dir = Path(out_dir)
        self.main_pid = os.getpid()
        self._ids = itertools.count(1)
        self._kept: List[Dict[str, Any]] = []
        self._folds: List[Dict[tuple, list]] = []
        self._local = threading.local()
        self._patches: List[tuple] = []
        os.register_at_fork(after_in_child=self._forget_parent)

    def _forget_parent(self) -> None:
        """Drop the buffers a forked child inherited from its parent; the
        forking thread's open spans stay, as the child's span parents."""
        self._kept = []
        self._folds = []
        self._ids = itertools.count(1)
        if hasattr(self._local, "folds"):
            self._local.folds = {}
            self._folds.append(self._local.folds)

    def _state(self):
        local = self._local
        try:
            return local.stack, local.folds
        except AttributeError:
            local.stack = []
            local.folds = {}
            self._folds.append(local.folds)
            return local.stack, local.folds

    # -- recording -----------------------------------------------------
    def _wrapper(self, fn: Callable, name: str, keep: bool,
                 attrs: Optional[Callable], flush: bool) -> Callable:
        tracer = self
        clock = time.perf_counter

        if not keep:
            @functools.wraps(fn)
            def folded(*args, **kwargs):
                stack, folds = tracer._state()
                parent = stack[-1] if stack else None
                # Frame: [enclosing kept span id, child time, name].
                frame = [parent[0] if parent else None, 0.0, name]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = clock() - start
                    stack.pop()
                    if parent is not None:
                        parent[1] += duration
                    key = (name, frame[0], parent[2] if parent else None)
                    entry = folds.get(key)
                    if entry is None:
                        folds[key] = [1, duration, duration - frame[1]]
                    else:
                        entry[0] += 1
                        entry[1] += duration
                        entry[2] += duration - frame[1]
            return folded

        @functools.wraps(fn)
        def kept(*args, **kwargs):
            frame, parent, start = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                extra = attrs(args, kwargs, result) \
                    if attrs is not None and result is not None else None
                tracer._close(frame, parent, start, extra)
                if flush and os.getpid() != tracer.main_pid:
                    tracer.flush()
        return kept

    def _open(self, name: str):
        stack, _ = self._state()
        parent = stack[-1] if stack else None
        frame = [f"{os.getpid()}:{next(self._ids)}", 0.0, name]
        stack.append(frame)
        return frame, parent, time.perf_counter()

    def _close(self, frame: list, parent: Optional[list], start: float,
               extra: Optional[Dict[str, Any]] = None) -> None:
        end = time.perf_counter()
        stack, _ = self._state()
        stack.pop()
        duration = end - start
        if parent is not None:
            parent[1] += duration
        record = {"id": frame[0], "name": frame[2],
                  "parent": parent[0] if parent else None,
                  "via": parent[2] if parent else None,
                  "start": start, "end": end, "self": duration - frame[1],
                  "pid": os.getpid(), "run": self.run_id}
        if extra:
            record.update(extra)
        self._kept.append(record)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one kept span around the block (the benchmark's own
        requests)."""
        state = self._open(name)
        try:
            yield
        finally:
            self._close(*state)

    # -- installing wrappers ---------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str, keep: bool = False,
             attrs: Optional[Callable] = None, flush: bool = False) -> None:
        """Replace ``owner.attr`` (a class or module attribute) with a
        recording wrapper.  ``keep`` records every call as its own span;
        ``attrs(args, kwargs, result)`` adds fields to a kept span."""
        raw = inspect.getattr_static(owner, attr)
        original = vars(owner).get(attr, _MISSING)
        if isinstance(raw, property):
            replacement: Any = property(
                self._wrapper(raw.fget, name, keep, attrs, flush))
        elif inspect.isclass(owner) and not inspect.isfunction(raw):
            raise TypeError(f"cannot trace {owner.__name__}.{attr}: "
                            f"{type(raw).__name__} is not a plain method")
        else:
            replacement = self._wrapper(raw, name, keep, attrs, flush)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Remove every wrapper, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- output ----------------------------------------------------------
    def records(self) -> List[Dict[str, Any]]:
        """Kept spans, then folded spans, as JSON-ready dicts."""
        pid = os.getpid()
        out = list(self._kept)
        for folds in self._folds:
            for (name, parent, via), (calls, total, own) in folds.items():
                out.append({"fold": name, "parent": parent, "via": via,
                            "calls": calls, "total": total, "self": own,
                            "pid": pid, "run": self.run_id})
        return out

    def flush(self) -> None:
        """Append the buffered spans to this process's file and clear
        the buffers."""
        path = self.out_dir / f"{self.run_id}.{os.getpid()}{SPANS_SUFFIX}"
        with open(path, "a", encoding="utf-8") as handle:
            for record in self.records():
                handle.write(json.dumps(record) + "\n")
        self._kept = []
        for folds in self._folds:
            folds.clear()


def collect(out_dir: os.PathLike, run_id: str) -> List[Dict[str, Any]]:
    """Merge the span files a run's processes wrote into
    ``<out_dir>/<run_id>.spans.jsonl`` and return every record."""
    records = []
    for path in sorted(Path(out_dir).glob(f"{run_id}.*{SPANS_SUFFIX}")):
        with open(path, encoding="utf-8") as handle:
            records.extend(json.loads(line) for line in handle)
        path.unlink()
    merged = Path(out_dir) / f"{run_id}{SPANS_SUFFIX}"
    with open(merged, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return records


# ----------------------------------------------------------------------
# What the benchmark traces.
# ----------------------------------------------------------------------
def _engine_attrs(args, kwargs, result) -> Dict[str, Any]:
    """Fields of a ``pipeline.run`` span that the self-check compares
    with the span counts below it."""
    from repro.pipeline.vp_interface import ValuePredictor

    engine = args[0]
    warmup = kwargs.get("warmup", args[3] if len(args) > 3 else 0)
    telemetry = result.telemetry
    return {"ops": result.instructions + warmup,
            "predictor": result.predictor,
            "predicts": type(engine.predictor).predict
            is not ValuePredictor.predict,
            "l1_lookups": telemetry.value("memory.l1d.hits")
            + telemetry.value("memory.l1d.misses")}


def _built_ops(args, kwargs, result) -> Dict[str, Any]:
    return {"ops": len(result)}


def instrument(tracer: Tracer, predictors: Iterable[str]) -> None:
    """Wrap the simulator's layer boundaries: engine, front end, memory,
    the hooks of the named predictors' classes, trace building, the
    campaign engine, the result cache and suite aggregation.

    Only hooks a predictor class overrides are wrapped.  The engine skips
    hooks that resolve to the ``ValuePredictor`` base methods, and the
    vector backend delegates a run to the scalar loop when any hook is
    overridden; wrapping a base hook would switch both on."""
    from repro.analysis.metrics import SuiteResult
    from repro.experiments import campaign, runner
    from repro.experiments.campaign import CampaignEngine, ResultCache
    from repro.frontend.fetch import FrontEnd
    from repro.memory.disambiguation import StoreSets
    from repro.memory.dram import Dram
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.pipeline.engine import Engine
    from repro.pipeline.results import SimResult
    from repro.pipeline.vp_interface import ValuePredictor
    from repro.predictors import make_predictor

    tracer.wrap(Engine, "run", "pipeline.run", keep=True,
                attrs=_engine_attrs)
    tracer.wrap(FrontEnd, "fetch_bubbles", "frontend.fetch_bubbles")
    tracer.wrap(FrontEnd, "process_control", "frontend.process_control")
    for attr in ("access", "access_front", "probe_level"):
        tracer.wrap(MemoryHierarchy, attr, f"memory.{attr}")
    # The vector backend calls the DRAM model directly for full misses.
    tracer.wrap(Dram, "access", "memory.dram")
    for attr in ("store_dispatched", "load_dependence", "record_violation"):
        tracer.wrap(StoreSets, attr, f"memory.disamb.{attr}")
    classes = {type(make_predictor(name)) for name in predictors}
    for cls in sorted(classes, key=lambda c: c.__name__):
        for hook in PREDICTOR_HOOKS:
            if getattr(cls, hook) is not getattr(ValuePredictor, hook):
                tracer.wrap(cls, hook, f"predictors.{hook}")
    # Call sites import build_trace by name, so wrap each module's copy.
    for module in (campaign, runner):
        tracer.wrap(module, "build_trace", "trace.build", attrs=_built_ops,
                    keep=True)
    tracer.wrap(campaign, "execute_job", "experiments.execute_job",
                keep=True, flush=True)
    tracer.wrap(CampaignEngine, "run_campaign", "experiments.campaign",
                keep=True)
    tracer.wrap(CampaignEngine, "_run_pool", "experiments.pool")
    tracer.wrap(ResultCache, "get", "experiments.cache.get")
    tracer.wrap(ResultCache, "put", "experiments.cache.put")
    tracer.wrap(SimResult, "to_dict", "experiments.serialize")
    tracer.wrap(runner.Runner, "suite", "experiments.suite", keep=True)
    for attr in ("category_summary", "geomean_speedup", "coverage"):
        tracer.wrap(SuiteResult, attr, f"analysis.{attr}")
    tracer.wrap(time, "sleep", "idle.sleep")


def instrument_service(tracer: Tracer) -> None:
    """Wrap the daemon side of the campaign service: request handling,
    the job board, the write-ahead log and its fsyncs, and the frame
    codec.

    The board's job events are kept spans of their own: the scheduler
    thread delivers them, and the WAL appends they make must land in a
    kept span to be counted."""
    from repro.service import board, daemon, protocol, wal

    tracer.wrap(daemon.ServiceDaemon, "_handle_submit", "service.submit",
                keep=True)
    tracer.wrap(daemon.ServiceDaemon, "_parse_jobs", "service.parse")
    tracer.wrap(board.JobBoard, "submit", "service.board.submit")
    tracer.wrap(board.JobBoard, "on_event", "service.event", keep=True)
    tracer.wrap(board.JobBoard, "events_since", "idle.events_since")
    tracer.wrap(wal.WriteAheadLog, "append", "service.wal.append")
    tracer.wrap(os, "fsync", "service.wal.fsync")
    tracer.wrap(daemon, "encode_frame", "service.protocol.encode")
    tracer.wrap(protocol, "decode_frame", "service.protocol.decode")


def instrument_client(tracer: Tracer) -> None:
    """Wrap the client side of the service frame codec."""
    from repro.service import client, protocol

    tracer.wrap(client, "encode_frame", "service.protocol.encode")
    tracer.wrap(protocol, "decode_frame", "service.protocol.decode")


# ----------------------------------------------------------------------
# Reading spans back.
# ----------------------------------------------------------------------
class SpanSet:
    """The spans of one run that lie inside ``[start, end]``: kept spans
    inside the window and the folded spans they enclose."""

    def __init__(self, records: Iterable[Dict[str, Any]],
                 start: Optional[float] = None,
                 end: Optional[float] = None) -> None:
        records = list(records)
        self.kept = [r for r in records if "id" in r
                     and (start is None or r["start"] >= start)
                     and (end is None or r["end"] <= end)]
        ids = {r["id"] for r in self.kept}
        self.folds = [r for r in records
                      if "fold" in r and r["parent"] in ids]

    def _all(self):
        for record in self.kept:
            yield record["name"], 1, record["end"] - record["start"], \
                record["self"], record["via"]
        for record in self.folds:
            yield record["fold"], record["calls"], record["total"], \
                record["self"], record["via"]

    def total(self) -> float:
        """Traced host time: the summed duration of every process's (and
        thread's) outermost spans.  Self times of all spans partition it,
        so layer shares sum to at most 1."""
        ids = {r["id"]: r for r in self.kept}
        total = 0.0
        for record in self.kept:
            parent = ids.get(record["parent"])
            if parent is None or parent["pid"] != record["pid"]:
                total += record["end"] - record["start"]
        return total

    def named(self, prefix: str) -> Dict[str, float]:
        """Calls, total and self seconds of spans named ``prefix`` or
        starting with ``prefix + '.'``."""
        out = {"calls": 0, "total": 0.0, "self": 0.0}
        for name, calls, total, own, _via in self._all():
            if name == prefix or name.startswith(prefix + "."):
                out["calls"] += calls
                out["total"] += total
                out["self"] += own
        return out

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per layer: self seconds and calls entering it from another
        layer (a cache access nested in another memory call is not a
        second call into the memory layer)."""
        out: Dict[str, Dict[str, float]] = {}
        for name, calls, _total, own, via in self._all():
            layer = layer_of(name)
            entry = out.setdefault(layer, {"self": 0.0, "calls": 0})
            entry["self"] += own
            if layer_of(via) != layer:
                entry["calls"] += calls
        return out

    def calls_under(self, span_id: str,
                    entering: bool = False) -> Dict[str, int]:
        """Folded call counts per name inside the kept span ``span_id``
        (up to the next kept span); with ``entering``, only calls made
        from another layer (a predictor's own component predictors do
        not count as engine calls)."""
        out: Dict[str, int] = {}
        for record in self.folds:
            if record["parent"] != span_id or (
                    entering
                    and layer_of(record["via"]) == layer_of(record["fold"])):
                continue
            out[record["fold"]] = out.get(record["fold"], 0) \
                + record["calls"]
        return out

    def self_check(self) -> List[str]:
        """Compare span counts with the simulation's own counters: every
        ``Engine.run`` must show one engine ``predict`` call per op when
        the predictor overrides the hook (none otherwise), and one
        ``access_front`` call per L1 lookup.  Returns the mismatches."""
        problems = []
        for span in self.kept:
            if span["name"] != "pipeline.run" or "ops" not in span:
                continue
            calls = self.calls_under(span["id"])
            want = span["ops"] if span["predicts"] else 0
            got = self.calls_under(span["id"], entering=True).get(
                "predictors.predict", 0)
            if got != want:
                problems.append(f"{span['predictor']} run {span['id']}: "
                                f"{got} traced predict calls, {want} ops")
            got = calls.get("memory.access_front", 0)
            if got != span["l1_lookups"]:
                problems.append(f"{span['predictor']} run {span['id']}: "
                                f"{got} traced access_front calls, "
                                f"{span['l1_lookups']} L1 lookups")
        return problems


def layer_metrics(spans: SpanSet) -> Dict[str, float]:
    """The per-layer metrics every traced workload reports: self seconds,
    share of traced host time and entry calls per layer, plus the
    splits of the pipeline, memory and predictor layers and the traced
    trace builds."""
    total = spans.total()
    layers = spans.layers()
    out: Dict[str, float] = {}
    for layer in LAYERS:
        entry = layers.get(layer, {"self": 0.0, "calls": 0})
        out[f"{layer}.self_s"] = entry["self"]
        out[f"{layer}.share"] = entry["self"] / total if total else 0.0
        out[f"{layer}.calls"] = entry["calls"]
    ops = sum(span.get("ops", 0) for span in spans.kept
              if span["name"] == "pipeline.run")
    out["pipeline.us_per_op"] = \
        1e6 * out["pipeline.self_s"] / ops if ops else 0.0
    out["memory.disamb_s"] = spans.named("memory.disamb")["self"]
    builds = [span for span in spans.kept if span["name"] == "trace.build"]
    out["trace.build_s"] = sum(span["end"] - span["start"] for span in builds)
    out["trace.builds"] = len(builds)
    built = sum(span["ops"] for span in builds)
    out["trace.build_us_per_op"] = \
        1e6 * out["trace.build_s"] / built if built else 0.0
    for hook, metric in (("predict", "predict_s"),
                         ("train_execute", "train_s"),
                         ("epoch_tick", "tick_s"),
                         ("on_forwarding", "fwd_s")):
        out[f"predictors.{metric}"] = \
            spans.named(f"predictors.{hook}")["self"]
    return out


def dominant_layer(metrics: Dict[str, float]) -> str:
    """The program layer with the largest share of traced host time."""
    return max(LAYERS, key=lambda layer: metrics[f"{layer}.share"])
