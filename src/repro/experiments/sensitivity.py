"""Sensitivity studies from §VI-A2/A3, §VI-C1 and §VI-D.

Each study returns plain data keyed the way the paper discusses it;
the corresponding benchmarks print paper-vs-measured.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.figures import bars
from repro.experiments.runner import Runner
from repro.predictors import fvp_defaults


def _skylake(*specs: str) -> List[Tuple[str, str]]:
    """The Skylake cells of ``specs``."""
    return [(spec, "skylake") for spec in specs]


def _fvp_point(key: str, value: int) -> str:
    """The spec of FVP with one parameter set to ``value``: plain
    ``fvp`` at FVP's own value, which is not an override."""
    return "fvp" if value == fvp_defaults()[key] else f"fvp:{key}={value}"


def all_instruction_study(runner: Optional[Runner] = None
                          ) -> Dict[str, Dict[str, float]]:
    """§VI-A2: loads-only FVP vs predicting all instruction types.

    Paper: no significant speedup from non-loads; predicting everything
    slightly *degrades* performance through conflict misses in the
    small tables.
    """
    return bars(runner, _skylake("fvp", "fvp-all"))


def branch_chain_study(runner: Optional[Runner] = None
                       ) -> Dict[str, Dict[str, float]]:
    """§VI-A3: targeting mispredicting branches' dependence chains.

    Paper: +0.5% coverage and +0.05% speedup over default FVP — value
    prediction shares the branch predictor's history, so what TAGE
    cannot predict, the Value Table cannot either.
    """
    return bars(runner, _skylake("fvp", "fvp-br"))


def epoch_sweep(runner: Optional[Runner] = None,
                epochs: Sequence[int] = (25_000, 100_000, 400_000,
                                         1_600_000, 0)
                ) -> Dict[int, float]:
    """§VI-C1: Criticality Epoch sweep.  Paper: small epochs give the
    CIT too little time to learn, very large (or no, epoch=0) epochs
    leave stale roots after phase changes; 400k is the sweet spot.
    FVP's own epoch runs as plain ``fvp``."""
    runner = runner or Runner()
    specs = {epoch: _fvp_point("epoch", epoch) for epoch in epochs}
    suites = runner.suites(list(specs.values()), "skylake")
    return {epoch: suites[spec].gain for epoch, spec in specs.items()}


def table_size_sweep(runner: Optional[Runner] = None
                     ) -> Dict[str, Dict[str, float]]:
    """§VI-D: Value Table / MR VF / CIT sizing.

    Paper: growing VT 48→96 and VF 40→128 adds only ~1%; growing
    further adds nothing visible; CIT 8→16 is worth ~0.15%.
    """
    configs = {
        "default (VT48/VF40/CIT32)": "fvp",
        "VT96/VF128": "fvp:vt_entries=96,vf_entries=128",
        "VT192/VF256": "fvp:vt_entries=192,vf_entries=256",
        "CIT8": "fvp:cit_size=8",
        "CIT16": "fvp:cit_size=16",
    }
    suites = bars(runner, _skylake(*configs.values()))
    return {label: suites[spec] for label, spec in configs.items()}


def lt_size_sweep(runner: Optional[Runner] = None,
                  sizes: Sequence[int] = (1, 2, 4, 8)) -> Dict[int, float]:
    """Extension ablation: Learning Table depth (the paper fixes 2).
    FVP's own depth runs as plain ``fvp``."""
    runner = runner or Runner()
    specs = {size: _fvp_point("lt_size", size) for size in sizes}
    suites = runner.suites(list(specs.values()), "skylake")
    return {size: suites[spec].gain for size, spec in specs.items()}


def combined_mr_composite_study(runner: Optional[Runner] = None
                                ) -> Dict[str, Dict[str, float]]:
    """§VI-B aside: fusing MR with the Composite predictor.

    Paper: at small (1 KB) budgets the fusion thrashes and performs
    poorly; FVP at the same storage stays ahead.
    """
    return bars(runner, _skylake("fvp", "composite-1kb", "mr+composite-1kb",
                                 "mr+composite-8kb"))


def stride_addition_study(runner: Optional[Runner] = None
                          ) -> Dict[str, Dict[str, float]]:
    """§VI-B closing remark: a stride component on top of FVP.

    Paper: the stride predictor gives a very small overall gain and
    helps only some workloads.
    """
    return bars(runner, _skylake("fvp", "fvp+stride"))


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
    for name, runs in runner.suites(predictors, "skylake").items():
        storage_bits = make_predictor(name).storage_bits()
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
    suites = runner.suites(("fvp", "fvp+store-chains"), "skylake")
    return {name: suite.gain for name, suite in suites.items()}
