"""FVP's per-op hook path: identical on every engine backend, and pinned.

FVP's ``predict`` and ``train_execute`` inline their table probes and
fold the Criticality Epoch into training, and the scalar loop derives
the retirement-stall signal in O(1) instead of bisecting for the ROB
head.  None of that may change a result.  Every FVP registry variant,
an oracle-criticality FVP and the override specs ``fvp:epoch=3000``
and ``fvp:vt_entries=96,vf_entries=128`` run on the scalar and vector
backends; the whole ``SimResult`` (telemetry included,
bar the ``engine.*`` group that names the backend) and
``predictor.stats()`` must agree.  The short epoch makes CIT resets
fire, which none do at the default lengths: those are at most 250k
ops, and the default epoch is 400k.

``PINNED`` holds the cycles and stats these runs produced before the
hook path was flattened, so a change that shifts both backends alike
is caught too.  The ``fvp+store-chains`` and
``fvp:vt_entries=96,vf_entries=128`` pins were taken from
``FVP(accelerate_store_chains=True)`` and ``FVP(vt_entries=96,
mr=MemoryRenaming(sl_entries=136, vf_entries=128))`` before those
configurations became registry specs.
"""

from __future__ import annotations

import pytest

from repro.core.fvp import fvp_oracle
from repro.isa import opcodes
from repro.pipeline.config import CoreConfig
from repro.pipeline.engine import Engine
from repro.predictors import make_predictor, predictor_names
from repro.trace import build_trace
from repro.trace.workloads import get_profile

LENGTH = 8000
WARMUP = 2000
#: mcf exercises last-value prediction and the walk; hadoop's
#: store→load forwarding exercises FVP's memory-renaming path.
WORKLOADS = ("mcf", "hadoop")
#: ``fvp-oracle`` is built here from a fixed PC sample (``_build``),
#: not from the registry's DDG analysis.
VARIANTS = tuple(name for name in predictor_names()
                 if name.startswith("fvp") and name != "fvp-oracle") + (
    "fvp:epoch=3000", "fvp:vt_entries=96,vf_entries=128", "fvp-oracle")
BACKENDS = ("scalar", "vector")
STAT_KEYS = ("lv_predictions", "cv_predictions", "mr_predictions",
             "walks", "lt_hits", "cit_recordings", "cit_epoch_resets",
             "vt_allocs")

#: (workload, variant) -> (cycles, stats in STAT_KEYS order).
PINNED = {
    ("mcf", "fvp"): (36015, (222, 0, 0, 465, 101, 373, 0, 131)),
    ("mcf", "fvp-l1-miss"): (36008, (66, 0, 0, 804, 9, 507, 0, 23)),
    ("mcf", "fvp-l1-miss-only"): (36025, (0, 0, 0, 0, 0, 507, 0, 15)),
    ("mcf", "fvp-reg"): (36015, (222, 0, 0, 465, 101, 373, 0, 131)),
    ("mcf", "fvp-mem"): (36025, (0, 0, 0, 713, 0, 373, 0, 0)),
    ("mcf", "fvp-all"): (36001, (418, 0, 0, 1039, 31, 701, 0, 97)),
    ("mcf", "fvp-br"): (36011, (207, 0, 0, 483, 98, 373, 0, 128)),
    ("mcf", "fvp+stride"): (35981, (236, 0, 0, 597, 45, 383, 0, 66)),
    ("mcf", "fvp+store-chains"): (36015, (222, 0, 0, 465, 101, 373, 0, 131)),
    ("mcf", "fvp:epoch=3000"): (36012, (169, 0, 0, 240, 146, 372, 2, 160)),
    ("mcf", "fvp:vt_entries=96,vf_entries=128"):
        (35999, (254, 0, 0, 146, 105, 373, 0, 117)),
    ("mcf", "fvp-oracle"): (35997, (586, 0, 0, 1, 1, 0, 0, 14)),
    ("hadoop", "fvp"): (7864, (0, 0, 147, 350, 46, 434, 0, 110)),
    ("hadoop", "fvp-l1-miss"): (8202, (0, 0, 30, 291, 19, 222, 0, 33)),
    ("hadoop", "fvp-l1-miss-only"): (8231, (0, 0, 0, 0, 0, 222, 0, 13)),
    ("hadoop", "fvp-reg"): (8231, (0, 0, 0, 428, 32, 438, 0, 89)),
    ("hadoop", "fvp-mem"): (7653, (0, 0, 305, 121, 0, 421, 0, 0)),
    ("hadoop", "fvp-all"): (7845, (0, 0, 119, 301, 62, 849, 0, 88)),
    ("hadoop", "fvp-br"): (7864, (0, 0, 147, 352, 46, 434, 0, 110)),
    ("hadoop", "fvp+stride"): (7864, (0, 0, 147, 350, 46, 434, 0, 110)),
    ("hadoop", "fvp+store-chains"): (7864, (0, 0, 147, 350, 46, 434, 0, 110)),
    ("hadoop", "fvp:epoch=3000"): (7864, (0, 0, 147, 298, 54, 434, 2, 103)),
    ("hadoop", "fvp:vt_entries=96,vf_entries=128"):
        (7679, (0, 0, 273, 298, 51, 417, 0, 88)),
    ("hadoop", "fvp-oracle"): (8231, (0, 0, 0, 40, 39, 0, 0, 363)),
}


@pytest.fixture(scope="module")
def traces():
    return {name: build_trace(get_profile(name), LENGTH)
            for name in WORKLOADS}


def _oracle_pcs(trace):
    """A fixed sample of the trace's static loads: every third distinct
    load PC, in first-seen order, at most twelve."""
    pcs: list = []
    for uop in trace:
        if uop.op == opcodes.LOAD and uop.pc not in pcs:
            pcs.append(uop.pc)
    return pcs[::3][:12]


def _build(variant, trace):
    if variant == "fvp-oracle":
        return fvp_oracle(_oracle_pcs(trace))
    return make_predictor(variant)


def _run(trace, workload, variant, backend):
    predictor = _build(variant, trace)
    result = Engine(CoreConfig.skylake(), predictor,
                    backend=backend).run(trace, workload=workload,
                                         warmup=WARMUP)
    out = result.to_dict()
    out["telemetry"]["children"].pop("engine")
    return out, predictor.stats()


def test_variants_cover_the_registry():
    assert {"fvp", "fvp-l1-miss", "fvp-l1-miss-only", "fvp-reg",
            "fvp-mem", "fvp-all", "fvp-br", "fvp+stride",
            "fvp+store-chains", "fvp-oracle"} <= set(VARIANTS)
    assert set(PINNED) == {(w, v) for w in WORKLOADS for v in VARIANTS}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_hook_path_identical_across_backends(traces, workload, variant):
    trace = traces[workload]
    runs = {backend: _run(trace, workload, variant, backend)
            for backend in BACKENDS}
    (scalar, scalar_stats) = runs["scalar"]
    for backend in BACKENDS[1:]:
        out, stats = runs[backend]
        assert out["cycles"] == scalar["cycles"], backend
        assert out["by_source"] == scalar["by_source"], backend
        assert out["telemetry"] == scalar["telemetry"], backend
        assert out == scalar, backend
        assert stats == scalar_stats, backend
    cycles, pinned_stats = PINNED[(workload, variant)]
    assert (scalar["cycles"],
            tuple(scalar_stats[key] for key in STAT_KEYS)) \
        == (cycles, pinned_stats)


def test_short_epoch_resets_the_cit(traces):
    _out, stats = _run(traces["mcf"], "mcf", "fvp:epoch=3000", "scalar")
    # One reset per 3000 retired ops over the 8000-op trace.
    assert stats["cit_epoch_resets"] == LENGTH // 3000 > 0
