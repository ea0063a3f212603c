"""Simulation result records."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.telemetry.stalls import cpi_breakdown, empty_buckets
from repro.telemetry.stats import StatGroup
from repro.telemetry.trace import EventTrace

#: Bump when the shape of the serialised result (telemetry tree, stall
#: taxonomy, event schema) changes — participates in campaign-cache
#: keys so stale entries never deserialise into the new shape.
TELEMETRY_SCHEMA_VERSION = 4


class SimResult:
    """Outcome of one trace simulation.

    The headline metrics mirror the paper's reporting: ``ipc`` for
    performance and ``coverage`` (predicted loads / all loads) for
    value-prediction coverage.  Cycle accounting lives in two places:

    * ``stall_cycles`` — the post-warmup per-bucket cycle partition
      from the engine's stall-attribution pass
      (:mod:`repro.telemetry.stalls`); its values sum exactly to
      ``cycles``.
    * ``telemetry`` — the full :class:`~repro.telemetry.stats.StatGroup`
      tree every component published into (``source``, ``pipeline``,
      ``frontend``, ``memory``, ``predictor`` groups).
    """

    __slots__ = ("workload", "core", "predictor", "instructions", "cycles",
                 "loads", "stores", "branches",
                 "predicted_loads", "predicted_nonloads",
                 "correct_predictions", "wrong_predictions",
                 "vp_flushes", "branch_mispredicts", "mem_violations",
                 "level_counts", "timing", "mr_predictions",
                 "register_predictions", "by_source",
                 "stall_cycles", "warmup_stall_cycles",
                 "telemetry", "events")

    def __init__(self, workload: str, core: str, predictor: str) -> None:
        self.workload = workload
        self.core = core
        self.predictor = predictor
        self.instructions = 0
        self.cycles = 0
        self.loads = 0
        self.stores = 0
        self.branches = 0
        self.predicted_loads = 0
        self.predicted_nonloads = 0
        self.correct_predictions = 0
        self.wrong_predictions = 0
        self.vp_flushes = 0
        self.branch_mispredicts = 0
        self.mem_violations = 0
        self.mr_predictions = 0
        self.register_predictions = 0
        #: source label -> [predictions used, correct] attribution.
        self.by_source: Dict[str, List[int]] = {}
        self.level_counts: Dict[str, int] = {}
        #: Post-warmup cycles per stall bucket (plus ``retiring``);
        #: sums exactly to ``cycles``.
        self.stall_cycles: Dict[str, int] = empty_buckets()
        #: Same partition for the warmup prefix, kept separate so the
        #: reported breakdown covers only the measured region.
        self.warmup_stall_cycles: Dict[str, int] = empty_buckets()
        #: The per-run statistic tree (see docs/TELEMETRY.md).
        self.telemetry: Optional[StatGroup] = None
        #: Optional bounded pipeline event trace
        #: (``Engine(collect_events=True)``).
        self.events: Optional[EventTrace] = None
        #: Optional per-op timing arrays (alloc/ready/issue/complete/retire)
        #: retained when the engine runs with ``collect_timing=True``.
        self.timing: Optional[Dict[str, List[int]]] = None

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        """Field-by-field equality — two runs of the same deterministic
        job (serial, parallel, or cache-restored) compare equal."""
        if not isinstance(other, SimResult):
            return NotImplemented
        return all(getattr(self, slot) == getattr(other, slot)
                   for slot in self.__slots__)

    # ------------------------------------------------------------------
    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def coverage(self) -> float:
        """Fraction of load instructions that were value predicted —
        the paper's coverage definition (§VI-A)."""
        return self.predicted_loads / self.loads if self.loads else 0.0

    @property
    def accuracy(self) -> float:
        used = self.correct_predictions + self.wrong_predictions
        return self.correct_predictions / used if used else 1.0

    @property
    def predictions(self) -> int:
        return self.predicted_loads + self.predicted_nonloads

    @property
    def branch_mpki(self) -> float:
        """Branch mispredictions per kilo-instruction."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.branch_mispredicts / self.instructions

    @property
    def llc_mpki(self) -> float:
        """LLC misses (DRAM accesses) per kilo-instruction."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.level_counts.get("DRAM", 0) / self.instructions

    def cpi_breakdown(self) -> Dict[str, float]:
        """Per-bucket cycles-per-instruction; sums to this run's CPI."""
        return cpi_breakdown(self.stall_cycles, self.instructions)

    def speedup_over(self, baseline: "SimResult") -> float:
        """IPC ratio versus a baseline run of the same trace."""
        if baseline.ipc == 0:
            raise ValueError("baseline IPC is zero")
        if baseline.instructions != self.instructions:
            raise ValueError(
                "speedup requires runs over the same trace: "
                f"{baseline.instructions} vs {self.instructions} instructions")
        return self.ipc / baseline.ipc

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (f"{self.workload:<16} {self.core:<11} {self.predictor:<12} "
                f"IPC={self.ipc:5.3f} cov={self.coverage:6.1%} "
                f"acc={self.accuracy:6.2%} "
                f"brMiss={self.branch_mispredicts} vpFlush={self.vp_flushes}")

    # -- full round-trip serialization ---------------------------------
    def to_dict(self) -> dict:
        """Complete JSON-serialisable representation; inverse of
        :meth:`from_dict` (``from_dict(to_dict(r)) == r``).  This is
        the campaign cache's on-disk format."""
        return {
            "schema": TELEMETRY_SCHEMA_VERSION,
            "workload": self.workload,
            "core": self.core,
            "predictor": self.predictor,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "loads": self.loads,
            "stores": self.stores,
            "branches": self.branches,
            "predicted_loads": self.predicted_loads,
            "predicted_nonloads": self.predicted_nonloads,
            "correct_predictions": self.correct_predictions,
            "wrong_predictions": self.wrong_predictions,
            "vp_flushes": self.vp_flushes,
            "branch_mispredicts": self.branch_mispredicts,
            "mem_violations": self.mem_violations,
            "mr_predictions": self.mr_predictions,
            "register_predictions": self.register_predictions,
            "by_source": {key: list(value)
                          for key, value in self.by_source.items()},
            "level_counts": dict(self.level_counts),
            "stall_cycles": dict(self.stall_cycles),
            "warmup_stall_cycles": dict(self.warmup_stall_cycles),
            "telemetry": None if self.telemetry is None
            else self.telemetry.to_dict(),
            "events": None if self.events is None
            else self.events.to_dict(),
            "timing": None if self.timing is None
            else {key: list(values) for key, values in self.timing.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SimResult":
        """Rebuild a result from :meth:`to_dict` output.  Raises
        :class:`ValueError` for payloads from another schema version —
        the campaign cache treats that as a miss."""
        schema = payload.get("schema")
        if schema != TELEMETRY_SCHEMA_VERSION:
            raise ValueError(
                f"result schema {schema!r} != {TELEMETRY_SCHEMA_VERSION}")
        result = cls(payload["workload"], payload["core"],
                     payload["predictor"])
        for field in ("instructions", "cycles", "loads", "stores",
                      "branches", "predicted_loads", "predicted_nonloads",
                      "correct_predictions", "wrong_predictions",
                      "vp_flushes", "branch_mispredicts", "mem_violations",
                      "mr_predictions", "register_predictions"):
            setattr(result, field, payload[field])
        result.by_source = {key: list(value)
                            for key, value in payload["by_source"].items()}
        result.level_counts = dict(payload["level_counts"])
        result.stall_cycles = dict(payload["stall_cycles"])
        result.warmup_stall_cycles = dict(payload["warmup_stall_cycles"])
        if payload["telemetry"] is not None:
            result.telemetry = StatGroup.from_dict("sim",
                                                   payload["telemetry"])
        if payload["events"] is not None:
            result.events = EventTrace.from_dict(payload["events"])
        if payload["timing"] is not None:
            result.timing = {key: list(values)
                             for key, values in payload["timing"].items()}
        return result
