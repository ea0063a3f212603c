"""Focused Value Prediction: CIT, Learning Table, Value Table, FVP."""

from repro.core.cit import DEFAULT_EPOCH, CriticalInstructionTable
from repro.core.fvp import (
    FVP,
    FvpPlusStride,
    L1_MISS,
    L1_MISS_ONLY,
    ORACLE,
    RETIRE_STALL,
    fvp_all_instructions,
    fvp_branch_chains,
    fvp_default,
    fvp_l1_miss,
    fvp_l1_miss_only,
    fvp_memory_only,
    fvp_oracle,
    fvp_register_only,
    fvp_store_chains,
    fvp_with_stride,
)
from repro.core.learning_table import LearningTable
from repro.core.value_table import ValueTable, VTEntry

__all__ = [
    "FVP",
    "CriticalInstructionTable",
    "LearningTable",
    "ValueTable",
    "VTEntry",
    "DEFAULT_EPOCH",
    "RETIRE_STALL",
    "L1_MISS",
    "L1_MISS_ONLY",
    "ORACLE",
    "fvp_default",
    "fvp_l1_miss",
    "fvp_l1_miss_only",
    "fvp_oracle",
    "fvp_register_only",
    "fvp_memory_only",
    "fvp_all_instructions",
    "fvp_branch_chains",
    "fvp_store_chains",
    "fvp_with_stride",
    "FvpPlusStride",
]
