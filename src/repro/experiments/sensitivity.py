"""Sensitivity studies from §VI-A2/A3, §VI-C1 and §VI-D.

Each study returns plain data keyed the way the paper discusses it;
the corresponding benchmarks print paper-vs-measured.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.runner import Runner


def all_instruction_study(runner: Optional[Runner] = None
                          ) -> Dict[str, Dict[str, float]]:
    """§VI-A2: loads-only FVP vs predicting all instruction types.

    Paper: no significant speedup from non-loads; predicting everything
    slightly *degrades* performance through conflict misses in the
    small tables.
    """
    runner = runner or Runner()
    out = {}
    for name in ("fvp", "fvp-all"):
        suite = runner.suite(name, core="skylake")
        out[name] = {"gain": suite.gain, "coverage": suite.coverage}
    return out


def branch_chain_study(runner: Optional[Runner] = None
                       ) -> Dict[str, Dict[str, float]]:
    """§VI-A3: targeting mispredicting branches' dependence chains.

    Paper: +0.5% coverage and +0.05% speedup over default FVP — value
    prediction shares the branch predictor's history, so what TAGE
    cannot predict, the Value Table cannot either.
    """
    runner = runner or Runner()
    out = {}
    for name in ("fvp", "fvp-br"):
        suite = runner.suite(name, core="skylake")
        out[name] = {"gain": suite.gain, "coverage": suite.coverage}
    return out


def epoch_sweep(runner: Optional[Runner] = None,
                epochs: Sequence[int] = (25_000, 100_000, 400_000,
                                         1_600_000, 0)
                ) -> Dict[int, float]:
    """§VI-C1: Criticality Epoch sweep.  Paper: small epochs give the
    CIT too little time to learn, very large (or no, epoch=0) epochs
    leave stale roots after phase changes; 400k is the sweet spot."""
    runner = runner or Runner()
    out = {}
    for epoch in epochs:
        out[epoch] = runner.suite(f"fvp:epoch={epoch}",
                                  core="skylake").gain
    return out


def table_size_sweep(runner: Optional[Runner] = None
                     ) -> Dict[str, Dict[str, float]]:
    """§VI-D: Value Table / MR VF / CIT sizing.

    Paper: growing VT 48→96 and VF 40→128 adds only ~1%; growing
    further adds nothing visible; CIT 8→16 is worth ~0.15%.
    """
    runner = runner or Runner()
    configs = {
        "default (VT48/VF40/CIT32)": "fvp",
        "VT96/VF128": "fvp:vt_entries=96,vf_entries=128",
        "VT192/VF256": "fvp:vt_entries=192,vf_entries=256",
        "CIT8": "fvp:cit_size=8",
        "CIT16": "fvp:cit_size=16",
    }
    out = {}
    for label, spec in configs.items():
        suite = runner.suite(spec, core="skylake")
        out[label] = {"gain": suite.gain, "coverage": suite.coverage}
    return out


def lt_size_sweep(runner: Optional[Runner] = None,
                  sizes: Sequence[int] = (1, 2, 4, 8)) -> Dict[int, float]:
    """Extension ablation: Learning Table depth (the paper fixes 2)."""
    runner = runner or Runner()
    out = {}
    for size in sizes:
        out[size] = runner.suite(f"fvp:lt_size={size}",
                                 core="skylake").gain
    return out


def combined_mr_composite_study(runner: Optional[Runner] = None
                                ) -> Dict[str, Dict[str, float]]:
    """§VI-B aside: fusing MR with the Composite predictor.

    Paper: at small (1 KB) budgets the fusion thrashes and performs
    poorly; FVP at the same storage stays ahead.
    """
    runner = runner or Runner()
    out = {}
    for name in ("fvp", "composite-1kb", "mr+composite-1kb",
                 "mr+composite-8kb"):
        suite = runner.suite(name, core="skylake")
        out[name] = {"gain": suite.gain, "coverage": suite.coverage}
    return out


def stride_addition_study(runner: Optional[Runner] = None
                          ) -> Dict[str, Dict[str, float]]:
    """§VI-B closing remark: a stride component on top of FVP.

    Paper: the stride predictor gives a very small overall gain and
    helps only some workloads.
    """
    runner = runner or Runner()
    out = {}
    for name in ("fvp", "fvp+stride"):
        suite = runner.suite(name, core="skylake")
        out[name] = {"gain": suite.gain, "coverage": suite.coverage}
    return out


def power_study(runner: Optional[Runner] = None,
                predictors=("fvp", "composite-8kb", "mr-8kb")
                ) -> Dict[str, "object"]:
    """§VI-F quantified: event-based energy accounting per predictor.

    Paper's qualitative claims: FVP's small tables make every front-end
    lookup cheaper; its low coverage cuts register-file validation
    traffic; its area cuts leakage.
    """
    from repro.analysis.power import predictor_energy
    from repro.predictors import make_predictor

    runner = runner or Runner()
    reports = {}
    for name in predictors:
        storage_bits = make_predictor(name).storage_bits()
        runs = runner.suite(name, core="skylake")
        total = None
        for run in runs:
            report = predictor_energy(run.result, storage_bits)
            if total is None:
                total = report
            else:
                total.lookup += report.lookup
                total.regfile_write += report.regfile_write
                total.regfile_read_validate += report.regfile_read_validate
                total.flush_overhead += report.flush_overhead
                total.static += report.static
                total.cycles += report.cycles
                total.instructions += report.instructions
        reports[name] = total
    return reports


def store_chain_study(runner: Optional[Runner] = None
                      ) -> Dict[str, float]:
    """Extension ablation (§III-A): also accelerating the producer
    store's dependence chain after a confident memory renaming."""
    runner = runner or Runner()
    return {
        "fvp": runner.suite("fvp", core="skylake").gain,
        "fvp+store-chains": runner.suite("fvp+store-chains",
                                         core="skylake").gain,
    }
