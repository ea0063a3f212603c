"""VTAGE value predictor (Perais & Seznec, HPCA '14).

A base last-value table plus ``N`` tagged components indexed by the PC
hashed with geometrically increasing folded global-branch-history
lengths.  The longest matching component provides the prediction;
confidence uses forward probabilistic counters (increment with
probability 1/16 on a correct value, reset on change).  D-VTAGE
(HPCA '15) adds a stride field to the base predictor — enabled with
``with_stride=True``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.isa import opcodes
from repro.isa.instruction import MicroOp
from repro.pipeline.vp_interface import EngineContext, Prediction, ValuePredictor
from repro.predictors.common import (HASH_MUL, TAG_MASK, TAG_SHIFT,
                                     TaggedTable, XorShift)

VALUE_MASK = (1 << 64) - 1

#: Tagged entry: tag(11) + value(64) + confidence(3) + useful(2).
TAGGED_ENTRY_BITS = 11 + 64 + 3 + 2
#: Base entry adds a 16-bit stride when with_stride is set.
BASE_ENTRY_BITS = 11 + 64 + 3 + 2


class VtagePredictor(ValuePredictor):
    """VTAGE / D-VTAGE.

    Parameters
    ----------
    base_entries / tagged_entries:
        capacity of the base LVP table and of *each* tagged component.
    history_lengths:
        geometric folded-history lengths of the tagged components.
    with_stride:
        turn the base component into a stride predictor (D-VTAGE).

    The tagged components are the banks of one :class:`TaggedTable`
    (bank ``i`` uses ``history_lengths[i]``), so the provider search is
    one loop.  :meth:`_probe` makes every table lookup of an op, for
    :meth:`predict` (and EVES) and then for :meth:`train_execute`.
    """

    name = "vtage"
    needs_criticality = False  # never reads the ROB/L1 ctx fields

    def __init__(self, base_entries: int = 128, tagged_entries: int = 64,
                 history_lengths=(2, 4, 8, 16, 32, 64),
                 conf_threshold: int = 7, conf_prob: int = 1,
                 with_stride: bool = False, loads_only: bool = True) -> None:
        self.base = TaggedTable(base_entries)
        self.tagged = TaggedTable(tagged_entries,
                                  banks=len(history_lengths))
        self.history_lengths = tuple(history_lengths)
        self.conf_threshold = conf_threshold
        self.conf_prob = conf_prob
        self.with_stride = with_stride
        self.loads_only = loads_only
        self._rng = XorShift(0xBEEF)
        #: History masks from the longest history down.
        self._hist_masks = tuple((1 << n) - 1
                                 for n in reversed(self.history_lengths))
        #: The first slot of the longest-history bank.
        self._top = (len(history_lengths) - 1) * tagged_entries
        # The folded histories only change on branches, so they are
        # kept for the last history seen: (history, folds).
        self._folded: Tuple[int, list] = (-1, [])
        # What _probe found for the op it last probed, until that op's
        # train_execute consumes it.
        self._probed: Optional[tuple] = None
        if with_stride:
            self.name = "dvtage"

    def _fold_history(self, history: int) -> Tuple[int, list]:
        """A tagged bank's key is the PC hashed with the bank's last
        ``history_lengths[i]`` branch outcomes: ``(pc ^ pc >> 13 ^
        fold(history & mask, 30) * 2654435761) & (2**30 - 1)``.  Returns
        and keeps ``(history, folds)``, the last term of each bank's key
        (masked to 30 bits) from the longest history down."""
        folds = []
        for mask in self._hist_masks:
            bits = history & mask
            out = 0
            while bits:  # common.fold(bits, 30), masked once at the end
                out ^= bits
                bits >>= 30
            folds.append(((out & 0x3FFFFFFF) * 2654435761) & 0x3FFFFFFF)
        self._folded = (history, folds)
        return self._folded

    def _probe(self, uop: MicroOp, ctx: EngineContext) -> tuple:
        """Look up the op in every table: the provider (the longest-
        history tagged component whose tag matches) and the base entry.
        Returns and keeps ``(uop, seq, history, provider slot, base
        slot, predicted value, source)``; a slot is -1 on a miss and the
        value None when neither entry is confident.  Nothing touches the
        tables between an op's two hooks, so ``train_execute`` reuses
        it."""
        pc = uop.pc
        history = ctx.history
        folded = self._folded
        if folded[0] != history:
            folded = self._fold_history(history)
        pcx = (pc ^ (pc >> 13)) & 0x3FFFFFFF
        tagged = self.tagged
        tags = tagged.tag
        sets = tagged.sets
        size = tagged.entries
        first = self._top
        provider = -1
        # TaggedTable.find, inlined (here and for the base).
        mul, shift, mask = HASH_MUL, TAG_SHIFT, TAG_MASK
        for folded_history in folded[1]:
            mixed = ((pcx ^ folded_history) * mul) & 0xFFFFFFFF
            tag = (mixed >> shift) & mask
            slot = first + ((mixed % sets) << 1)
            if tags[slot] == tag:
                provider = slot
                break
            if tags[slot + 1] == tag:
                provider = slot + 1
                break
            first -= size
        table = self.base
        mixed = (pc * mul) & 0xFFFFFFFF
        tag = (mixed >> shift) & mask
        base = (mixed % table.sets) << 1
        tags = table.tag
        if tags[base] != tag:
            base = base + 1 if tags[base + 1] == tag else -1
        threshold = self.conf_threshold
        value = source = None
        if provider >= 0 and tagged.conf[provider] >= threshold:
            value = tagged.value[provider]
            source = "vtage"
        elif base >= 0 and table.conf[base] >= threshold:
            value = table.value[base]
            if self.with_stride:
                value = (value + table.extra[base]) & VALUE_MASK
            source = "vtage-base"
        probed = (uop, ctx.seq, history, provider, base, value, source)
        self._probed = probed
        return probed

    # ------------------------------------------------------------------
    def predict(self, uop: MicroOp, ctx: EngineContext) -> Optional[Prediction]:
        if uop.dest is None or (self.loads_only and uop.op != opcodes.LOAD):
            return None
        probed = self._probe(uop, ctx)
        if probed[5] is None:
            return None
        return Prediction(probed[5], None, probed[6])

    # ------------------------------------------------------------------
    def train_execute(self, uop: MicroOp, ctx: EngineContext,
                      used_prediction: Optional[Prediction],
                      correct: bool) -> None:
        if uop.dest is None or (self.loads_only and uop.op != opcodes.LOAD):
            return
        probed = self._probed
        if probed is None or probed[0] is not uop \
                or probed[1] != ctx.seq or probed[2] != ctx.history:
            probed = self._probe(uop, ctx)
        self._probed = None
        provider = probed[3]
        slot = probed[4]
        value = uop.value

        # The base always trains (it is the bimodal-style backbone and,
        # in D-VTAGE, the stride learner).  A base miss escalates into
        # the tagged components.
        base = self.base
        if slot < 0:
            base.allocate(uop.pc, value)
            base_missed = True
        else:
            last = base.value[slot]
            expected = (last + base.extra[slot]) & VALUE_MASK \
                if self.with_stride else last
            base_missed = expected != value
            if not base_missed:
                if self._rng.below(self.conf_prob, 16) \
                        and base.conf[slot] < 7:
                    base.conf[slot] += 1
                if base.useful[slot] < 3:
                    base.useful[slot] += 1
                if self.with_stride:
                    base.value[slot] = value
            else:
                if self.with_stride:
                    base.extra[slot] = (value - last) & VALUE_MASK
                base.value[slot] = value
                base.conf[slot] = 0

        if provider >= 0:
            tagged = self.tagged
            provider_missed = tagged.value[provider] != value
            if not provider_missed:
                if self._rng.below(self.conf_prob, 16) \
                        and tagged.conf[provider] < 7:
                    tagged.conf[provider] += 1
                if tagged.useful[provider] < 3:
                    tagged.useful[provider] += 1
            else:
                tagged.value[provider] = value
                tagged.conf[provider] = 0
                if tagged.useful[provider]:
                    tagged.useful[provider] -= 1
            if provider_missed and base_missed:
                self._allocate_above(uop.pc, provider // tagged.entries,
                                     value)
        elif base_missed:
            self._allocate_above(uop.pc, -1, value)

    def _allocate_above(self, pc: int, provider_bank: int,
                        value: int) -> None:
        """Allocate in one component with longer history than the
        provider (probabilistically preferring shorter lengths).  The
        walk that found the provider missed in every one of them."""
        folds = self._folded[1]
        last = len(folds) - 1
        pcx = (pc ^ (pc >> 13)) & 0x3FFFFFFF
        for bank in range(provider_bank + 1, last + 1):
            if self.tagged.allocate(pcx ^ folds[last - bank], value,
                                    bank) >= 0:
                return
            if not self._rng.below(1, 2):
                return

    def storage_bits(self) -> int:
        bits = self.base.capacity * BASE_ENTRY_BITS
        if self.with_stride:
            bits += self.base.capacity * 16
        bits += self.tagged.capacity * TAGGED_ENTRY_BITS
        return bits
