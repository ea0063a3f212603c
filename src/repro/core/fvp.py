"""Focused Value Prediction (§IV) — the paper's contribution.

FVP refocuses value prediction from coverage onto *early execution of
bottleneck instructions*:

1. **Find the root of the critical path** (§IV-A): loads that execute
   within commit-width of the ROB head stall retirement; their PCs
   train the :class:`~repro.core.cit.CriticalInstructionTable`.
2. **Focused training** (§IV-B): when a confident critical root
   allocates, the PC-augmented RAT supplies the PCs of its parent
   sources, which are parked in the 2-entry
   :class:`~repro.core.learning_table.LearningTable` and allocated into
   the :class:`~repro.core.value_table.ValueTable` when they execute.
   Ops that prove unpredictable trigger a further one-level walk to
   *their* parents at their next allocation — the walk-back proceeds
   one level per dynamic instance until a predictable load is found.
   Non-loads are allocated with the no-predict counter pre-saturated,
   so they forward the walk without ever being predicted.
3. **Register dependencies** (§IV-C): the Value Table serves last-value
   and context (PC ⊕ last-32-branch-outcomes) prediction from one
   48-entry structure.
4. **Memory dependencies** (§IV-D): loads check Memory Renaming before
   the Value Table; a load with a learned producer store is predicted
   from the store's data, does not train the VT, and suppresses the
   register walk for its address chain.

Variants used by the evaluation are expressed as constructor knobs and
the factory functions at the bottom (`fvp_l1_miss`, `fvp_oracle`, ...).
"""

from __future__ import annotations

from typing import Iterable, Optional, Set

from repro.core.cit import DEFAULT_EPOCH, CriticalInstructionTable
from repro.core.learning_table import LearningTable
from repro.core.value_table import (CONF_MAX, CV_FAIL_MAX, NO_PREDICT_MAX,
                                    ValueTable)
from repro.errors import ConfigError
from repro.isa import opcodes
from repro.isa.instruction import MicroOp
from repro.pipeline.vp_interface import (EngineContext, Prediction,
                                         ValuePredictor)
from repro.predictors.memory_renaming import MemoryRenaming

#: Table I: the RAT-PC extension — one PC (11 tracked bits) per
#: architectural register.
RAT_PC_BITS = 16 * 11

#: Criticality-detection modes (Figure 12).
RETIRE_STALL = "retire-stall"
L1_MISS = "l1-miss"
L1_MISS_ONLY = "l1-miss-only"
ORACLE = "oracle"

_MODES = (RETIRE_STALL, L1_MISS, L1_MISS_ONLY, ORACLE)


class FVP(ValuePredictor):
    """The Focused Value Predictor.

    Parameters
    ----------
    vt_entries / cit_size / lt_size / vf_entries:
        Structure geometries (defaults are the paper's: 48 / 32 / 2 /
        40).  ``vf_entries`` sizes the Value File of the Memory
        Renaming component, whose Store/Load cache keeps 136 entries.
    use_vt / use_mr:
        Enable the register-dependence (Value Table) and
        memory-dependence (Memory Renaming) components — Figure 13
        runs each alone.
    criticality:
        One of ``retire-stall`` (default), ``l1-miss``,
        ``l1-miss-only``, ``oracle`` (Figure 12).
    oracle_pcs:
        Critical-root PC set for ``oracle`` mode.
    loads_only:
        Predict loads only (§IV-B; §VI-A2 studies False).
    target_branch_chains:
        Also treat frequently mispredicting branches as critical roots
        (§VI-A3 measures this is worth ≈nothing).
    accelerate_store_chains:
        After a confident memory renaming, also walk the producer
        store's dependence chain (§III-A's optional extension).
    epoch:
        Criticality Epoch in retired instructions (§IV-A1, 400k).
    """

    name = "fvp"

    def __init__(self, vt_entries: int = 48, cit_size: int = 32,
                 lt_size: int = 2, vf_entries: int = 40,
                 use_vt: bool = True, use_mr: bool = True,
                 criticality: str = RETIRE_STALL,
                 oracle_pcs: Optional[Iterable[int]] = None,
                 loads_only: bool = True,
                 target_branch_chains: bool = False,
                 accelerate_store_chains: bool = False,
                 epoch: int = DEFAULT_EPOCH) -> None:
        if criticality not in _MODES:
            raise ConfigError(f"criticality must be one of {_MODES}")
        if criticality == ORACLE and oracle_pcs is None:
            raise ConfigError("oracle mode needs oracle_pcs")
        self.vt = ValueTable(vt_entries)
        self.cit = CriticalInstructionTable(cit_size, epoch=epoch)
        self.lt = LearningTable(lt_size)
        self.mr = MemoryRenaming(sl_entries=136, vf_entries=vf_entries)
        self.use_vt = use_vt
        self.use_mr = use_mr
        self.criticality = criticality
        self.oracle_pcs: Set[int] = set(oracle_pcs or ())
        self.loads_only = loads_only
        self.target_branch_chains = target_branch_chains
        self.accelerate_store_chains = accelerate_store_chains
        # §VI-A3 variant: per-PC branch mispredict confidence.
        self._branch_roots = {}
        # Attribution counters.
        self.lv_predictions = 0
        self.cv_predictions = 0
        self.mr_predictions = 0
        self.walks = 0
        # The hooks run once per op, so the mode checks are resolved
        # here and the table geometry is bound for the inlined probes
        # (only the CIT's entry list is replaced at run time, by its
        # epoch reset, so it is read through self.cit).
        self._cit_roots = criticality in (RETIRE_STALL, L1_MISS)
        self._oracle = criticality == ORACLE
        self._walking = criticality != L1_MISS_ONLY
        self._stall_signal = criticality == RETIRE_STALL
        self._miss_signal = criticality in (L1_MISS, L1_MISS_ONLY)
        self._vt_rows = self.vt.rows
        self._vt_sets = self.vt.sets
        self._lt_slots = self.lt._slots
        assoc = self.mr.assoc
        self._mr_rows = assoc.rows
        self._mr_sets = assoc.sets
        self._mr_tag_mask = assoc._tag_mask
        self._mr_conf = self.mr.conf_threshold
        self._value_file = self.mr._value_file

    # ------------------------------------------------------------------
    # The two per-op hooks.  Both inline their table probes, so an op
    # costs at most one CIT, one Value Table and one Memory Renaming
    # probe per hook.  The Value Table and the MR Store/Load cache hash
    # a key the same way (ValueTable.lookup, TaggedTable.lookup):
    # ``mixed = key * 0x9E3779B1 mod 2**32`` selects the set
    # (``mixed % sets``) and the tag (``mixed >> 12``, 11 bits).  The
    # CIT is direct-mapped on the PC (CriticalInstructionTable.record).
    # ------------------------------------------------------------------
    def predict(self, uop: MicroOp, ctx: EngineContext) -> Optional[Prediction]:
        """Front-end lookup at allocation: MR, then last value, then
        context; an op left unpredicted may extend the focused walk."""
        op = uop.op
        is_load = op == opcodes.LOAD
        is_store = op == opcodes.STORE
        if not is_store and uop.dest is None:
            return None
        pc = uop.pc
        mixed = (pc * 0x9E3779B1) & 0xFFFFFFFF

        # 1. Memory Renaming (§IV-D).  A store with a confident
        # association publishes its SQID and data into the Value File
        # for its partner load; loads check MR before the Value Table.
        assoc = None
        if self.use_mr and (is_load or is_store):
            tag = (mixed >> 12) & self._mr_tag_mask
            for way in self._mr_rows[mixed % self._mr_sets]:
                if way.tag == tag:
                    assoc = way
                    break
            if assoc is not None and assoc.confidence >= self._mr_conf:
                value_file = self._value_file
                if is_store:
                    load_pc = assoc.value  # partner PC in the value field
                    if len(value_file) >= self.mr.vf_entries \
                            and load_pc not in value_file:
                        value_file.pop(next(iter(value_file)))
                    value_file[load_pc] = (ctx.seq, uop.value)
                else:
                    record = value_file.get(pc)
                    if record is not None:
                        self.mr.renames += 1
                        self.mr_predictions += 1
                        return Prediction(record[1], record[0], "fvp-mr")

        # 2-3. Last-value prediction, then context prediction for
        # LV-hostile entries.  A disabled Value Table is never written,
        # so its probe would always miss.
        lv = None
        if self.use_vt:
            tag = (mixed >> 12) & 0x7FF
            for way in self._vt_rows[mixed % self._vt_sets]:
                if way.tag == tag and not way.context:
                    lv = way
                    break
            if lv is not None and not is_store \
                    and (is_load or not self.loads_only):
                if lv.no_predict < NO_PREDICT_MAX:
                    if lv.confidence >= CONF_MAX:
                        self.lv_predictions += 1
                        return Prediction(lv.data, None, "fvp-lv")
                else:
                    # ValueTable.cv_key: the PC hashed with the last 8
                    # branch outcomes (folding 8 bits to 16 is the
                    # identity).
                    key = pc ^ ((ctx.history32 & 0xFF) * 40503)
                    mixed_cv = (key * 0x9E3779B1) & 0xFFFFFFFF
                    tag = (mixed_cv >> 12) & 0x7FF
                    for way in self._vt_rows[mixed_cv % self._vt_sets]:
                        if way.tag == tag and way.context:
                            if way.no_predict < NO_PREDICT_MAX \
                                    and way.confidence >= CONF_MAX:
                                self.cv_predictions += 1
                                return Prediction(way.data, None, "fvp-cv")
                            break

        # 4. Nothing predicted: one level of the backward walk (§IV-B).
        # A confident critical root parks its parent-source PCs in the
        # Learning Table; so does an already-targeted op that has
        # proven unpredictable.
        if not uop.srcs or not self._walking:
            return None  # l1-miss-only predicts the misses themselves
        if self._cit_roots:
            cit = self.cit
            size = cit.size
            entry = cit.entries[pc % size]
            critical = entry is not None \
                and entry[0] == (pc // size) & 0x7FF \
                and entry[1] >= cit.conf_max
        else:
            critical = pc in self.oracle_pcs
        if critical:
            self._walk_parents(uop, ctx)
            return None
        if lv is None or lv.no_predict < NO_PREDICT_MAX:
            return None
        # The op is targeted but LV-unpredictable.  Loads get their
        # second chances first: memory renaming, then context.
        if is_load:
            if assoc is not None:
                # A memory dependence is known (or forming): rely on MR
                # rather than predicting the address chain.
                if self.accelerate_store_chains \
                        and assoc.confidence >= self._mr_conf:
                    self.lt.insert(assoc.value)  # the store's PC
                return None
            if lv.cv_marked and lv.cv_fail < CV_FAIL_MAX:
                return None  # context prediction still has a chance
        self._walk_parents(uop, ctx)
        return None

    def _walk_parents(self, uop: MicroOp, ctx: EngineContext) -> None:
        """Park parent PCs that are not already tracked: a parent with a
        live Value Table entry is being learned (or has been judged),
        so re-parking it would only thrash the 2-entry LT."""
        walked = False
        writer_pc = ctx.writer_pc
        for src in uop.srcs:
            parent = writer_pc[src]
            if parent and parent not in self.lt \
                    and self.vt.lookup(parent) is None:
                self.lt.insert(parent)
                walked = True
        if walked:
            self.walks += 1

    # ------------------------------------------------------------------
    def train_execute(self, uop: MicroOp, ctx: EngineContext,
                      used_prediction: Optional[Prediction],
                      correct: bool) -> None:
        """Execution-time training: criticality learning, Learning
        Table allocation, Value Table training, then the Criticality
        Epoch, which closes every path (nothing returns early)."""
        op = uop.op
        pc = uop.pc
        is_load = op == opcodes.LOAD
        producing = uop.dest is not None
        predictable = is_load or not self.loads_only

        lv = None
        if self.use_vt and (producing or is_load):
            mixed = (pc * 0x9E3779B1) & 0xFFFFFFFF
            tag = (mixed >> 12) & 0x7FF
            for way in self._vt_rows[mixed % self._vt_sets]:
                if way.tag == tag and not way.context:
                    lv = way
                    break

        # Criticality learning.  A confident root is itself a
        # prediction target (§IV-A1: "value predicting the root ... may
        # also be beneficial").  Oracle mode never trains the CIT: its
        # root set is supplied.
        if (is_load if self.loads_only else producing) and (
                ctx.stalls_retirement if self._stall_signal
                else self._miss_signal and is_load and not ctx.l1_hit):
            cit = self.cit
            cit.record(pc)
            if self.use_vt and lv is None:
                size = cit.size
                entry = cit.entries[pc % size]  # record() filled the slot
                if entry[0] == (pc // size) & 0x7FF \
                        and entry[1] >= cit.conf_max:
                    lv = self.vt.allocate(pc, uop.value,
                                          predictable=predictable)
        elif self._oracle and is_load and self.use_vt and lv is None \
                and pc in self.oracle_pcs:
            lv = self.vt.allocate(pc, uop.value, predictable=predictable)
        if self.target_branch_chains and ctx.branch_mispredicted:
            count = self._branch_roots.get(pc, 0) + 1
            self._branch_roots[pc] = count
            if count >= 4:
                self._walk_parents(uop, ctx)

        if self.use_vt and producing:
            # Learning Table hit: a parked parent executes, is released
            # (LearningTable.hit) and is allocated.
            slots = self._lt_slots
            if pc in slots:
                slots.remove(pc)
                self.lt.hits += 1
                if lv is None:
                    lv = self.vt.allocate(pc, uop.value,
                                          predictable=predictable)
            # Memory-renamed loads do not train the Value Table (§IV-D).
            # §IV-B: non-loads are never trained toward prediction —
            # they only mark the walk path (their entries stay
            # no-predict).
            if lv is not None and predictable and (
                    used_prediction is None
                    or used_prediction.source != "fvp-mr"):
                vt = self.vt
                value = uop.value
                if not vt.train(lv, value) and is_load \
                        and lv.no_predict >= NO_PREDICT_MAX \
                        and not lv.cv_marked:
                    lv.cv_marked = True
                # Context re-record: only near-head instances (§IV-C),
                # which bounds the number of histories tracked.  A PC
                # whose context entries keep proving unpredictable — or
                # that keeps needing fresh context allocations because
                # its histories never repeat — saturates cv_fail and
                # stops re-recording; the walk then proceeds to its
                # parent sources.
                if lv.cv_marked and lv.cv_fail < CV_FAIL_MAX \
                        and ctx.stalls_retirement:
                    key = pc ^ ((ctx.history32 & 0xFF) * 40503)  # cv_key
                    mixed = (key * 0x9E3779B1) & 0xFFFFFFFF
                    tag = (mixed >> 12) & 0x7FF
                    cv = None
                    for way in self._vt_rows[mixed % self._vt_sets]:
                        if way.tag == tag and way.context:
                            cv = way
                            break
                    if cv is None:
                        vt.allocate(key, value, context=True)
                        lv.cv_fail += 1
                    elif vt.train(cv, value):
                        if lv.cv_fail:
                            lv.cv_fail -= 1
                    elif cv.no_predict >= NO_PREDICT_MAX:
                        lv.cv_fail += 1

        # Criticality Epoch (§IV-A1): the op has retired once its
        # training ends, and the CIT resets once per `epoch` of them.
        cit = self.cit
        retired = ctx.seq + 1
        if cit.epoch and retired - cit._last_reset >= cit.epoch:
            cit.tick(retired)

    # ------------------------------------------------------------------
    def on_forwarding(self, store_pc: int, load_pc: int,
                      store_seq: int) -> None:
        """§IV-D: a load is "added to ... the MR" only once it is a
        focused-training target that last-value prediction failed on —
        FVP's 136-entry Store/Load cache learns critical pairs only,
        not the whole spill/fill population a big standalone MR covers."""
        if not self.use_mr:
            return
        if self.use_vt:
            lv_entry = self.vt.lookup(load_pc)
            already_known = self.mr.assoc.lookup(load_pc) is not None
            if not already_known and (
                    lv_entry is None or lv_entry.predictable):
                return
        self.mr.on_forwarding(store_pc, load_pc, store_seq)

    def storage_bits(self) -> int:
        """Table I accounting: CIT + VT + MR (S/L cache and Value File)
        + the RAT-PC extension."""
        bits = self.cit.storage_bits() + RAT_PC_BITS
        if self.use_vt:
            bits += self.vt.storage_bits()
        if self.use_mr:
            bits += self.mr.storage_bits()
        return bits

    def stats(self) -> dict:
        return {
            "lv_predictions": self.lv_predictions,
            "cv_predictions": self.cv_predictions,
            "mr_predictions": self.mr_predictions,
            "walks": self.walks,
            "lt_hits": self.lt.hits,
            "cit_recordings": self.cit.recordings,
            "cit_epoch_resets": self.cit.epoch_resets,
            "vt_allocs": self.vt.allocs,
        }


# ----------------------------------------------------------------------
# Evaluation variants.
# ----------------------------------------------------------------------
def fvp_default() -> FVP:
    """The paper's FVP: retirement-stall criticality, LV+CV+MR, loads
    only, 1.2 KB total."""
    return FVP()


def fvp_l1_miss_only() -> FVP:
    """Figure 12 'FVP-L1-Miss-Only': predict only L1-missing loads
    themselves, no dependence-chain walk."""
    predictor = FVP(criticality=L1_MISS_ONLY)
    predictor.name = "fvp-l1-miss-only"
    return predictor


def fvp_l1_miss() -> FVP:
    """Figure 12 'FVP-L1-Miss': any L1 miss is treated as a critical
    root (walk enabled) instead of the retirement-stall heuristic."""
    predictor = FVP(criticality=L1_MISS)
    predictor.name = "fvp-l1-miss"
    return predictor


def fvp_oracle(oracle_pcs: Iterable[int]) -> FVP:
    """Figure 12 'Oracle Criticality': critical roots supplied by the
    DDG analysis of :mod:`repro.criticality`."""
    predictor = FVP(criticality=ORACLE, oracle_pcs=oracle_pcs)
    predictor.name = "fvp-oracle"
    return predictor


def fvp_register_only() -> FVP:
    """Figure 13: register-dependence component alone (no MR)."""
    predictor = FVP(use_mr=False)
    predictor.name = "fvp-reg"
    return predictor


def fvp_memory_only() -> FVP:
    """Figure 13: memory-dependence component alone (no Value Table)."""
    predictor = FVP(use_vt=False)
    predictor.name = "fvp-mem"
    return predictor


def fvp_all_instructions() -> FVP:
    """§VI-A2: predict every producing instruction, not just loads."""
    predictor = FVP(loads_only=False)
    predictor.name = "fvp-all"
    return predictor


def fvp_branch_chains() -> FVP:
    """§VI-A3: additionally target mispredicting branches' chains."""
    predictor = FVP(target_branch_chains=True)
    predictor.name = "fvp-br"
    return predictor


def fvp_store_chains() -> FVP:
    """§III-A extension: after a confident memory renaming, also walk
    the producer store's dependence chain."""
    predictor = FVP(accelerate_store_chains=True)
    predictor.name = "fvp+store-chains"
    return predictor


class FvpPlusStride(ValuePredictor):
    """FVP with a stride component layered on top (§VI-B's closing
    remark: the stride predictor "can be added on top of all the
    existing predictors, including FVP").

    FVP keeps absolute priority; the stride table only predicts loads
    FVP declined, and only trains on loads FVP has *targeted* (a PC
    with a live Value Table entry), so the focus property is kept.
    """

    name = "fvp+stride"

    def __init__(self, fvp: Optional[FVP] = None,
                 stride_entries: int = 32) -> None:
        from repro.predictors.stride import StridePredictor

        self.fvp = fvp or FVP()
        self.stride = StridePredictor(entries=stride_entries)

    def predict(self, uop, ctx):
        prediction = self.fvp.predict(uop, ctx)
        if prediction is not None:
            return prediction
        if uop.op == opcodes.LOAD and self.fvp.use_vt and \
                self.fvp.vt.lookup(ValueTable.lv_key(uop.pc)) is not None:
            return self.stride.predict(uop, ctx)
        return None

    def train_execute(self, uop, ctx, used_prediction, correct):
        self.fvp.train_execute(uop, ctx, used_prediction, correct)
        if uop.op == opcodes.LOAD and self.fvp.use_vt and \
                self.fvp.vt.lookup(ValueTable.lv_key(uop.pc)) is not None:
            self.stride.train_execute(uop, ctx, used_prediction, correct)

    def on_forwarding(self, store_pc, load_pc, store_seq):
        self.fvp.on_forwarding(store_pc, load_pc, store_seq)

    def storage_bits(self):
        return self.fvp.storage_bits() + self.stride.storage_bits()

    def stats(self):
        return self.fvp.stats()



def fvp_with_stride() -> FvpPlusStride:
    """FVP + a 32-entry stride layer (§VI-B extension)."""
    return FvpPlusStride()
