"""Contract between the timing engine and value predictors.

Any predictor — FVP, the baselines, or a user-supplied design — plugs
into the engine through :class:`ValuePredictor`.  The engine calls:

* :meth:`ValuePredictor.predict` when a micro-op allocates into the
  OOO (the front-end lookup point of §IV-E).  Returning a
  :class:`Prediction` means the predictor is confident and the machine
  *uses* the value: consumers wake up at the predicted-value writeback,
  and a validation is scheduled at the op's completion.  Returning
  ``None`` means no prediction (the op executes normally).
* :meth:`ValuePredictor.train_execute` when the op executes, with the
  retirement-stall signal the CIT heuristic needs.
* :meth:`ValuePredictor.on_forwarding` when the LSQ forwards a store's
  data to a load (the MR training tap of §IV-D).
* :meth:`ValuePredictor.epoch_tick` once per retired instruction, right
  after :meth:`~ValuePredictor.train_execute`, so predictors can
  implement epoch resets (§IV-A1).  FVP folds its Criticality Epoch
  into ``train_execute`` instead (``ctx.seq + 1`` ops have retired when
  it ends), which lets the engine skip this call for it.

The scalar and vector loops only call the hooks a predictor overrides:
one left at the no-op base implementation costs nothing per op.

The :class:`EngineContext` gives predictors exactly the architectural
visibility the paper's hardware has: the 32-branch global history, the
PC-augmented RAT (last writer PC per architectural register), the
retirement-stall and L1-hit signals at execution, and the in-flight
store and cache probes DLVP taps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.isa.instruction import MicroOp


@dataclass(frozen=True, repr=False)
class Prediction:
    """A confident value prediction consumed by the engine.

    Predictions are immutable value objects: once a predictor hands one
    to the engine it must not change (the engine compares it against
    the architectural value at completion, possibly many cycles later),
    and two predictions compare equal iff they carry the same value,
    store tag, and source.

    Attributes
    ----------
    value:
        Predicted 64-bit result; the engine validates it against the
        trace's architectural value at completion.
    store_seq:
        When not ``None``, this is a memory-renaming prediction: the
        sequence number of the in-flight store whose data the load's
        consumers will read.  The engine makes the value available when
        that store's data is ready rather than at allocation.
    source:
        Label of the component that produced the prediction (``"lv"``,
        ``"cv"``, ``"mr"``, ``"stride"``, ...) for attribution stats.
    """

    value: int
    store_seq: Optional[int] = None
    source: str = "vp"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        extra = f" store_seq={self.store_seq}" if self.store_seq is not None \
            else ""
        return f"<Prediction {self.source} value={self.value:#x}{extra}>"


class EngineContext:
    """Architectural state the engine exposes to predictors.

    The engine mutates this object in place each op (cheaper than
    re-creating it); predictors must not cache references to its
    fields across calls.
    """

    __slots__ = ("history32", "history", "writer_pc", "stalls_retirement",
                 "seq", "l1_hit", "branch_mispredicted",
                 "store_inflight_to_addr", "probe_level")

    def __init__(self) -> None:
        #: Outcomes of the last 32 branches (bit 0 = newest).
        self.history32 = 0
        #: Outcomes of the last 128 branches, for predictors (VTAGE,
        #: EVES) that fold geometric history lengths beyond 32.
        self.history = 0
        #: tuple(reg -> PC of last writer), the RAT-PC of §IV-B.
        self.writer_pc: Tuple[int, ...] = ()
        #: True when the current op executed within commit-width of the
        #: ROB head and its own completion bound its retirement (the
        #: retirement-stall criticality signal).
        self.stalls_retirement = False
        #: Dynamic sequence number of the current op.
        self.seq = 0
        #: For loads at execution: did the access hit L1?
        self.l1_hit = True
        #: For control ops at execution: did the front end mispredict it?
        self.branch_mispredicted = False
        #: Callable(addr) -> (seq, pc, value, complete) for the newest
        #: in-flight store to that (8-byte aligned) address, or None —
        #: the DLVP conflicting-store check.
        self.store_inflight_to_addr = lambda addr: None
        #: Callable(addr) -> cache level ("L1"/"L2"/"LLC"/"DRAM") that
        #: would serve the address right now, without disturbing cache
        #: state.  DLVP's front-end early read can only source levels
        #: close enough to fetch (L1/L2).
        self.probe_level = lambda addr: "DRAM"


class ValuePredictor:
    """Base class; the default implementation predicts nothing.

    An instance belongs to one simulation: the campaign engine builds
    a fresh one for every job from the job's registry spec
    (:func:`repro.predictors.make_predictor`).
    """

    #: Short identifier used in result tables.
    name = "none"

    #: Declare False when the predictor never reads the per-op
    #: criticality context (``ctx.stalls_retirement``, ``ctx.l1_hit``).
    #: The engine's fast path then skips computing them.  The default is
    #: conservative: unless a predictor opts out, the fields are always
    #: valid in :meth:`train_execute`.  Wrappers that delegate to
    #: component predictors must OR their components' flags.
    needs_criticality = True

    def predict(self, uop: MicroOp, ctx: EngineContext) -> Optional[Prediction]:
        """Front-end lookup at allocation.  Return a prediction only at
        high confidence — mispredictions cost a 20-cycle flush."""
        return None

    def train_execute(self, uop: MicroOp, ctx: EngineContext,
                      used_prediction: Optional[Prediction],
                      correct: bool) -> None:
        """Called at the op's execution.  ``used_prediction`` is the
        Prediction the engine consumed at allocation (or ``None``) and
        ``correct`` is the validation outcome (True when unused)."""

    def on_forwarding(self, store_pc: int, load_pc: int,
                      store_seq: int) -> None:
        """LSQ store→load forwarding observed (MR's training tap)."""

    def epoch_tick(self, retired: int) -> None:
        """Called with the running retired-instruction count, after
        :meth:`train_execute`; predictors implement periodic resets
        here."""

    def storage_bits(self) -> int:
        """Total state in bits, for Table I-style accounting."""
        return 0

    def stats(self) -> dict:
        """Optional predictor-internal statistics for reports."""
        return {}

    def publish_stats(self, group) -> None:
        """Register this predictor's statistics into a telemetry
        :class:`~repro.telemetry.stats.StatGroup`.  The default
        publishes :meth:`stats` (nested dicts become child groups);
        predictors with richer structure can override."""
        _publish_mapping(group, self.stats())
        group.counter("storage_bits", "Table-I state budget",
                      self.storage_bits())


def _publish_mapping(group, mapping: dict) -> None:
    """Register a (possibly nested) stats dict as counters/groups."""
    for key, value in mapping.items():
        if isinstance(value, dict):
            _publish_mapping(group.group(key), value)
        else:
            group.counter(key, value=value)


class NoPredictor(ValuePredictor):
    """Explicit baseline: value prediction disabled."""

    name = "baseline"
