"""The declared shape of the per-run telemetry tree.

Every dotted stat path a simulation publishes (relative to the ``sim``
root group) must match a pattern in :data:`TELEMETRY_SCHEMA`, and
every concrete name in the schema must correspond to a real
publication site — the ``RL005`` reprolint rule (docs/LINTING.md)
checks the static half of that contract (string literals passed to
``StatGroup.counter`` / ``histogram`` / ``group``), and
``tests/test_reprolint.py`` checks the runtime half against an actual
simulation's tree.

Pattern language
----------------
Patterns are dotted paths whose segments are either concrete names or
wildcards: ``*`` matches exactly one segment (dynamic families such as
the stall-bucket counters), and a trailing ``**`` matches one or more
remaining segments (the predictor's free-form internal stats).

Versioning: structural changes to the tree bump
``repro.pipeline.results.TELEMETRY_SCHEMA_VERSION`` (part of the
campaign cache key); this module describes the *shape* at the current
version.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

#: Dotted-path pattern → leaf/group kind (``counter`` / ``histogram``
#: / ``group``).  Paths are relative to the per-run ``sim`` root.
TELEMETRY_SCHEMA: Dict[str, str] = {
    # Trace delivery (repro.pipeline.engine._publish): how the
    # TraceSource streamed the ops — window count and peak residency.
    "source": "group",
    "source.ops": "counter",
    "source.chunks": "counter",
    "source.peak-window": "counter",
    # Timing-loop backend coverage (repro.pipeline.engine._publish):
    # which of the three loops ran, and how much of the run the vector
    # recurrence covered vs its scalar fallback (docs/VECTOR.md).
    "engine": "group",
    "engine.backend": "counter",
    "engine.vector-windows": "counter",
    "engine.vector-ops": "counter",
    "engine.fallback-windows": "counter",
    "engine.fallback-ops": "counter",
    "engine.delegated": "counter",
    # Engine cycle accounting (repro.pipeline.engine._publish).
    "pipeline": "group",
    "pipeline.cycles": "counter",
    "pipeline.instructions": "counter",
    "pipeline.stall-gaps": "histogram",
    "pipeline.stalls": "group",
    "pipeline.stalls.*": "counter",          # stall-taxonomy buckets
    "pipeline.warmup-stalls": "group",
    "pipeline.warmup-stalls.*": "counter",
    # Front end (repro.frontend.fetch.FrontEnd.publish_stats).
    "frontend": "group",
    "frontend.branch_accuracy": "counter",
    "frontend.control_ops": "counter",
    "frontend.mispredicts": "counter",
    "frontend.btb_misses": "counter",
    "frontend.icache_misses": "counter",
    "frontend.icache_hits": "counter",
    # Memory hierarchy (repro.memory.hierarchy.publish_stats).
    "memory": "group",
    "memory.levels": "group",
    "memory.levels.*": "counter",            # post-warmup per-level serves
    "memory.*.hits": "counter",              # one group per cache level
    "memory.*.misses": "counter",
    "memory.*.prefetch_fills": "counter",
    "memory.*.prefetch_hits": "counter",
    "memory.dram.accesses": "counter",
    "memory.dram.row_hits": "counter",
    "memory.dram.row_misses": "counter",
    "memory.dram.row_conflicts": "counter",
    # Hosted predictor (repro.pipeline.vp_interface.publish_stats).
    "predictor": "group",
    "predictor.storage_bits": "counter",
    "predictor.**": "counter",               # predictor-internal stats()
}

#: The campaign-service daemon's own telemetry tree (``repro serve``
#: publishes it under a ``service`` root; clients fetch it with the
#: ``stats`` op and ``repro jobs --stats``).  Kept separate from
#: :data:`TELEMETRY_SCHEMA` because these paths describe the daemon,
#: not a simulation run — the runtime sim-tree validation must not
#: expect them, but the RL005 vocabulary covers both (see
#: :func:`concrete_segments`).
SERVICE_SCHEMA: Dict[str, str] = {
    # Request accounting (repro.service.daemon).
    "service": "group",
    "service.requests": "counter",
    "service.submissions": "counter",
    "service.jobs": "group",
    "service.jobs.accepted": "counter",
    "service.jobs.deduped-inflight": "counter",
    "service.jobs.deduped-cached": "counter",
    "service.jobs.completed": "counter",
    "service.jobs.failed": "counter",
    "service.jobs.rejected": "counter",
    # Durability tier (repro.service.wal via repro.service.daemon):
    # write-ahead-log traffic and the stats of the last startup
    # recovery (docs/SERVICE.md §Durability).
    "service.wal": "group",
    "service.wal.appends": "counter",
    "service.wal.bytes": "counter",
    "service.wal.segments": "counter",
    "service.wal.compactions": "counter",
    "service.recovery": "group",
    "service.recovery.records": "counter",
    "service.recovery.submissions": "counter",
    "service.recovery.requeued": "counter",
    "service.recovery.torn": "counter",
    "service.recovery.sealed": "counter",
    # Scheduler liveness (repro.service.daemon): busy flag and time
    # since the last scheduler/engine event — with the `jobs` backlog,
    # how `repro doctor` and `repro jobs --stats` tell wedged from busy.
    "service.scheduler": "group",
    "service.scheduler.busy": "counter",
    "service.scheduler.activity-age": "counter",
    # Runtime lock sanitizer (repro.testing.synccheck, armed by
    # REPRO_SYNC_CHECKS=1): wrapped-lock/acquisition counts and the
    # violations caught — all zero in production where the sanitizer
    # is off.
    "service.sync": "group",
    "service.sync.enabled": "counter",
    "service.sync.locks": "counter",
    "service.sync.acquisitions": "counter",
    "service.sync.violations": "counter",
    # Shared cache tier (repro.experiments.campaign.ResultCache
    # counters rendered by the daemon and ``repro cache stats``).
    "cache": "group",
    "cache.hits": "counter",
    "cache.misses": "counter",
    "cache.stores": "counter",
    "cache.evictions": "counter",
    "cache.quarantined": "counter",
    "cache.entries": "counter",
    "cache.size-bytes": "counter",
}


def match(path: str, pattern: str) -> bool:
    """Whether dotted ``path`` matches dotted ``pattern``."""
    parts = path.split(".")
    want = pattern.split(".")
    for index, segment in enumerate(want):
        if segment == "**":
            return index == len(want) - 1 and len(parts) > index
        if index >= len(parts) or (segment != "*"
                                   and segment != parts[index]):
            return False
    return len(parts) == len(want)


def kind_of(path: str,
            schema: Optional[Dict[str, str]] = None) -> str:
    """The declared kind for ``path`` under ``schema`` (default
    :data:`TELEMETRY_SCHEMA`; most specific pattern wins), or
    ``"undeclared"`` when no pattern matches."""
    if schema is None:
        schema = TELEMETRY_SCHEMA
    best: Tuple[int, str] = (-1, "undeclared")
    for pattern, kind in schema.items():
        if match(path, pattern):
            concrete = sum(1 for seg in pattern.split(".")
                           if seg not in ("*", "**"))
            if concrete > best[0]:
                best = (concrete, kind)
    return best[1]


def concrete_segments() -> Tuple[str, ...]:
    """Every non-wildcard segment appearing in *any* schema (sim tree
    and service tree), sorted — the vocabulary the RL005 static check
    validates against."""
    names = {segment
             for schema in (TELEMETRY_SCHEMA, SERVICE_SCHEMA)
             for pattern in schema
             for segment in pattern.split(".")
             if segment not in ("*", "**")}
    return tuple(sorted(names))


def validate_paths(paths: Iterable[Tuple[str, str]],
                   schema: Optional[Dict[str, str]] = None) -> List[str]:
    """Check ``(dotted path, kind)`` pairs from a real telemetry tree
    against ``schema`` (default :data:`TELEMETRY_SCHEMA`); returns
    human-readable problem strings (empty when the tree conforms)."""
    if schema is None:
        schema = TELEMETRY_SCHEMA
    problems: List[str] = []
    seen: Set[str] = set()
    for path, kind in paths:
        seen.add(path)
        declared = kind_of(path, schema)
        if declared == "undeclared":
            problems.append(f"undeclared stat path: {path}")
        elif declared != kind:
            problems.append(f"{path}: published as {kind}, "
                            f"schema says {declared}")
    for pattern, kind in schema.items():
        if "*" in pattern or kind == "group":
            continue
        if pattern not in seen:
            problems.append(f"schema path never published: {pattern}")
    return problems


__all__ = [
    "SERVICE_SCHEMA",
    "TELEMETRY_SCHEMA",
    "concrete_segments",
    "kind_of",
    "match",
    "validate_paths",
]
