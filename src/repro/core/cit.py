"""Critical Instruction Table (§IV-A1).

A 32-entry direct-mapped table recording loads that stall retirement:
when a load executes within commit-width of the ROB head, its PC is
recorded here.  Each entry holds an 11-bit tag, a 2-bit confidence and
a 2-bit utility.  Confidence saturation marks the PC a *critical root*
— the target FVP's focused training accelerates.  A new PC that
conflicts with a resident entry decays the resident's utility and
replaces it at zero.  All entries reset every Criticality Epoch
(400 000 retired instructions by default, the value §IV-A1 found best)
to track phase changes.
"""

from __future__ import annotations

from repro.errors import ConfigError

DEFAULT_EPOCH = 400_000

#: Table I: Tag (11b) + Confidence (2b) + Utility (2b) per entry.
ENTRY_BITS = 11 + 2 + 2


class CriticalInstructionTable:
    """Direct-mapped criticality learner."""

    __slots__ = ("entries", "size", "conf_max", "util_max", "epoch",
                 "_last_reset", "recordings", "epoch_resets")

    def __init__(self, size: int = 32, conf_max: int = 3, util_max: int = 3,
                 epoch: int = DEFAULT_EPOCH) -> None:
        if size <= 0:
            raise ConfigError("CIT size must be positive")
        self.size = size
        self.conf_max = conf_max
        self.util_max = util_max
        self.epoch = epoch
        # index -> [tag, confidence, utility]; None when invalid.
        self.entries = [None] * size
        self._last_reset = 0
        self.recordings = 0
        self.epoch_resets = 0

    def _index_tag(self, pc: int):
        return pc % self.size, (pc // self.size) & 0x7FF

    # ------------------------------------------------------------------
    def record(self, pc: int) -> None:
        """A load at ``pc`` executed while stalling retirement."""
        self.recordings += 1
        index, tag = self._index_tag(pc)
        entry = self.entries[index]
        if entry is None:
            self.entries[index] = [tag, 1, 1]
            return
        if entry[0] == tag:
            if entry[1] < self.conf_max:
                entry[1] += 1
            if entry[2] < self.util_max:
                entry[2] += 1
            return
        # Conflict: decay the resident's utility; replace at zero.
        entry[2] -= 1
        if entry[2] <= 0:
            self.entries[index] = [tag, 1, 1]

    def is_critical(self, pc: int) -> bool:
        """True when ``pc`` is a confident critical root."""
        index, tag = self._index_tag(pc)
        entry = self.entries[index]
        return entry is not None and entry[0] == tag \
            and entry[1] >= self.conf_max

    def tick(self, retired: int) -> None:
        """Advance the epoch clock; resets all entries each epoch."""
        if self.epoch and retired - self._last_reset >= self.epoch:
            self.entries = [None] * self.size
            self._last_reset = retired
            self.epoch_resets += 1

    def occupancy(self) -> int:
        return sum(1 for entry in self.entries if entry is not None)

    def storage_bits(self) -> int:
        return self.size * ENTRY_BITS
