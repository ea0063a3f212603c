"""The prior-art predictors' per-op hook path, pinned.

Figures 10 and 11 run the Composite predictor (EVES + DLVP) and the
other prior-art baselines on every workload and both cores, so their
``predict``/``train_execute`` hooks are the figures' hot path.  Those
hooks probe each table once per op, keep their tables in per-table
columns and build a :class:`~repro.pipeline.vp_interface.Prediction`
only for the value they return; none of that may change a result.

``PINNED`` holds, for every non-FVP registry spec on Skylake and
Skylake-2X, what the layered implementation (one object per table
entry, every table probed again in ``train_execute``) produced: the
cycle count, a CRC-32 of the stream of predictions the engine consumed
(sequence number, source, value, store tag), ``by_source`` and the
``predictor`` telemetry group (``stats()`` plus ``storage_bits``).
astar makes both Composites emit all four of their source labels
(``estride``, ``evtage``, ``sap``, ``cap``), mispredict and push an
address filter to 2; mcf is value-prediction heavy.  Inside a
Composite, EVES labels its E-VTAGE base predictions ``evtage``; the
standalone ``vtage`` and ``dvtage`` emit ``vtage-base``.
"""

from __future__ import annotations

import zlib

import pytest

from repro.pipeline.config import CoreConfig
from repro.pipeline.engine import Engine
from repro.predictors import make_predictor
from repro.trace import build_trace
from repro.trace.workloads import get_profile

LENGTH = 8000
WARMUP = 2000
WORKLOADS = ("astar", "mcf")
CORES = ("skylake", "skylake_2x")
SPECS = ("lvp", "stride", "fcm", "vtage", "dvtage", "eves", "dlvp",
         "mr-8kb", "mr-1kb", "composite-8kb", "composite-1kb",
         "mr+composite-8kb", "mr+composite-1kb")


def _traces():
    return {name: build_trace(get_profile(name), LENGTH)
            for name in WORKLOADS}


@pytest.fixture(scope="module")
def traces():
    return _traces()


def _run(trace, workload, core, spec):
    """(cycles, prediction-stream CRC, by_source, predictor group)."""
    predictor = make_predictor(spec)
    stream = []
    predict = predictor.predict

    def recording_predict(uop, ctx):
        prediction = predict(uop, ctx)
        if prediction is not None:
            stream.append((ctx.seq, prediction.source, prediction.value,
                           prediction.store_seq))
        return prediction

    # The engine binds predictor.predict, so the instance attribute
    # wraps every front-end lookup.
    predictor.predict = recording_predict
    result = Engine(getattr(CoreConfig, core)(), predictor).run(
        trace, workload=workload, warmup=WARMUP).to_dict()
    group = result["telemetry"]["children"]["predictor"]["children"]
    published = tuple((key, node["value"]) for key, node in group.items())
    assert dict(published[:-1]) == predictor.stats()
    assert published[-1] == ("storage_bits", predictor.storage_bits())
    by_source = tuple(sorted((source, tuple(counts)) for source, counts
                             in result["by_source"].items()))
    return (result["cycles"], zlib.crc32(repr(stream).encode()),
            by_source, published)


#: (workload, core, spec) -> (cycles, stream CRC, by_source, group).
PINNED = {
    ('astar', 'skylake', 'lvp'): (
        8808, 0x0d4cbb29,
        (),
        (('storage_bits', 20480),)),
    ('astar', 'skylake', 'stride'): (
        8624, 0x5d4119ec,
        (('stride', (604, 602)),),
        (('storage_bits', 24576),)),
    ('astar', 'skylake', 'fcm'): (
        8644, 0x7792e681,
        (('fcm', (520, 520)),),
        (('storage_bits', 47872),)),
    ('astar', 'skylake', 'vtage'): (
        8730, 0x032daa16,
        (('vtage', (20, 20)), ('vtage-base', (6, 6))),
        (('storage_bits', 40960),)),
    ('astar', 'skylake', 'dvtage'): (
        8798, 0x0708f3af,
        (('vtage', (1, 1)),),
        (('storage_bits', 43008),)),
    ('astar', 'skylake', 'eves'): (
        8675, 0x46bdd066,
        (('estride', (39, 39)), ('evtage', (20, 20))),
        (('estride_capacity', 128), ('storage_bits', 53376))),
    ('astar', 'skylake', 'dlvp'): (
        9353, 0x0e87b4b1,
        (('cap', (42, 41)), ('sap', (477, 427))),
        (('early_reads', 624), ('conflicting_reads', 47),
         ('storage_bits', 18432))),
    ('astar', 'skylake', 'mr-8kb'): (
        8431, 0x6712e3c0,
        (('mr', (159, 159)),),
        (('renames', 168), ('associations_learned', 61),
         ('storage_bits', 65524))),
    ('astar', 'skylake', 'mr-1kb'): (
        8431, 0x6712e3c0,
        (('mr', (159, 159)),),
        (('renames', 168), ('associations_learned', 61),
         ('storage_bits', 8138))),
    ('astar', 'skylake', 'composite-8kb'): (
        8772, 0xc79a1598,
        (('cap', (31, 30)), ('estride', (39, 39)), ('evtage', (27, 27)),
         ('sap', (319, 311))),
        (('value_filtered', 0), ('addr_filtered', 5), ('early_reads', 455),
         ('conflicting_reads', 10), ('storage_bits', 77312))),
    ('astar', 'skylake', 'composite-1kb'): (
        8830, 0xe1083c51,
        (('cap', (1, 0)), ('estride', (35, 35)), ('evtage', (1, 1)),
         ('sap', (39, 37))),
        (('value_filtered', 0), ('addr_filtered', 1), ('early_reads', 66),
         ('conflicting_reads', 0), ('storage_bits', 10000))),
    ('astar', 'skylake', 'mr+composite-8kb'): (
        8382, 0x203f5e39,
        (('cap', (35, 34)), ('evtage', (35, 35)), ('mr', (152, 152)),
         ('sap', (126, 120))),
        (('value_filtered', 0), ('addr_filtered', 3), ('early_reads', 222),
         ('conflicting_reads', 6), ('renames', 152),
         ('associations_learned', 63), ('storage_bits', 71610))),
    ('astar', 'skylake', 'mr+composite-1kb'): (
        8217, 0xb60767d2,
        (('estride', (6, 6)), ('mr', (159, 159)), ('sap', (66, 66))),
        (('value_filtered', 0), ('addr_filtered', 0), ('early_reads', 89),
         ('conflicting_reads', 0), ('renames', 168),
         ('associations_learned', 61), ('storage_bits', 9296))),
    ('astar', 'skylake_2x', 'lvp'): (
        5552, 0x0d4cbb29,
        (),
        (('storage_bits', 20480),)),
    ('astar', 'skylake_2x', 'stride'): (
        5478, 0x5d4119ec,
        (('stride', (604, 602)),),
        (('storage_bits', 24576),)),
    ('astar', 'skylake_2x', 'fcm'): (
        5465, 0x7792e681,
        (('fcm', (520, 520)),),
        (('storage_bits', 47872),)),
    ('astar', 'skylake_2x', 'vtage'): (
        5509, 0x032daa16,
        (('vtage', (20, 20)), ('vtage-base', (6, 6))),
        (('storage_bits', 40960),)),
    ('astar', 'skylake_2x', 'dvtage'): (
        5550, 0x0708f3af,
        (('vtage', (1, 1)),),
        (('storage_bits', 43008),)),
    ('astar', 'skylake_2x', 'eves'): (
        5476, 0x46bdd066,
        (('estride', (39, 39)), ('evtage', (20, 20))),
        (('estride_capacity', 128), ('storage_bits', 53376))),
    ('astar', 'skylake_2x', 'dlvp'): (
        6742, 0xf9392511,
        (('cap', (42, 41)), ('sap', (477, 406))),
        (('early_reads', 624), ('conflicting_reads', 74),
         ('storage_bits', 18432))),
    ('astar', 'skylake_2x', 'mr-8kb'): (
        5072, 0x03b84d63,
        (('mr', (159, 159)),),
        (('renames', 180), ('associations_learned', 61),
         ('storage_bits', 65524))),
    ('astar', 'skylake_2x', 'mr-1kb'): (
        5072, 0x03b84d63,
        (('mr', (159, 159)),),
        (('renames', 180), ('associations_learned', 61),
         ('storage_bits', 8138))),
    ('astar', 'skylake_2x', 'composite-8kb'): (
        5503, 0x019acdc0,
        (('cap', (31, 30)), ('estride', (39, 39)), ('evtage', (27, 27)),
         ('sap', (314, 310))),
        (('value_filtered', 0), ('addr_filtered', 5), ('early_reads', 441),
         ('conflicting_reads', 8), ('storage_bits', 77312))),
    ('astar', 'skylake_2x', 'composite-1kb'): (
        5700, 0xe1083c51,
        (('cap', (1, 0)), ('estride', (35, 35)), ('evtage', (1, 1)),
         ('sap', (39, 37))),
        (('value_filtered', 0), ('addr_filtered', 1), ('early_reads', 66),
         ('conflicting_reads', 0), ('storage_bits', 10000))),
    ('astar', 'skylake_2x', 'mr+composite-8kb'): (
        5063, 0x6241a467,
        (('cap', (35, 34)), ('evtage', (35, 35)), ('mr', (159, 159)),
         ('sap', (124, 120))),
        (('value_filtered', 0), ('addr_filtered', 2), ('early_reads', 210),
         ('conflicting_reads', 2), ('renames', 180),
         ('associations_learned', 61), ('storage_bits', 71610))),
    ('astar', 'skylake_2x', 'mr+composite-1kb'): (
        4949, 0x736a0855,
        (('estride', (14, 14)), ('mr', (159, 159)), ('sap', (58, 58))),
        (('value_filtered', 0), ('addr_filtered', 0), ('early_reads', 81),
         ('conflicting_reads', 0), ('renames', 180),
         ('associations_learned', 61), ('storage_bits', 9296))),
    ('mcf', 'skylake', 'lvp'): (
        35999, 0xcab3660d,
        (('lv', (1377, 1377)),),
        (('storage_bits', 20480),)),
    ('mcf', 'skylake', 'stride'): (
        35967, 0x082f89d6,
        (('stride', (2509, 2509)),),
        (('storage_bits', 24576),)),
    ('mcf', 'skylake', 'fcm'): (
        35964, 0x66c00008,
        (('fcm', (2540, 2540)),),
        (('storage_bits', 47872),)),
    ('mcf', 'skylake', 'vtage'): (
        35991, 0x4353732a,
        (('vtage', (1129, 1129)), ('vtage-base', (690, 690))),
        (('storage_bits', 40960),)),
    ('mcf', 'skylake', 'dvtage'): (
        35991, 0x4353732a,
        (('vtage', (1129, 1129)), ('vtage-base', (690, 690))),
        (('storage_bits', 43008),)),
    ('mcf', 'skylake', 'eves'): (
        35991, 0x19a2b782,
        (('estride', (2064, 2064)), ('evtage', (187, 187))),
        (('estride_capacity', 128), ('storage_bits', 53376))),
    ('mcf', 'skylake', 'dlvp'): (
        35964, 0x37268be5,
        (('cap', (71, 71)), ('sap', (2796, 2796))),
        (('early_reads', 3807), ('conflicting_reads', 0),
         ('storage_bits', 18432))),
    ('mcf', 'skylake', 'mr-8kb'): (
        36025, 0x0d4cbb29,
        (),
        (('renames', 0), ('associations_learned', 0),
         ('storage_bits', 65524))),
    ('mcf', 'skylake', 'mr-1kb'): (
        36025, 0x0d4cbb29,
        (),
        (('renames', 0), ('associations_learned', 0),
         ('storage_bits', 8138))),
    ('mcf', 'skylake', 'composite-8kb'): (
        35964, 0x53c4a465,
        (('cap', (71, 71)), ('estride', (2064, 2064)),
         ('evtage', (139, 139)), ('sap', (608, 608))),
        (('value_filtered', 0), ('addr_filtered', 0), ('early_reads', 1563),
         ('conflicting_reads', 0), ('storage_bits', 77312))),
    ('mcf', 'skylake', 'composite-1kb'): (
        36003, 0x1b8f519f,
        (('cap', (32, 32)), ('estride', (277, 277)), ('evtage', (212, 212)),
         ('sap', (132, 132))),
        (('value_filtered', 0), ('addr_filtered', 0), ('early_reads', 289),
         ('conflicting_reads', 0), ('storage_bits', 10000))),
    ('mcf', 'skylake', 'mr+composite-8kb'): (
        35963, 0xf091bc32,
        (('cap', (16, 16)), ('estride', (1786, 1786)),
         ('evtage', (215, 215)), ('sap', (412, 412))),
        (('value_filtered', 0), ('addr_filtered', 0), ('early_reads', 1183),
         ('conflicting_reads', 0), ('renames', 0),
         ('associations_learned', 0), ('storage_bits', 71610))),
    ('mcf', 'skylake', 'mr+composite-1kb'): (
        36025, 0x9f7a91e9,
        (('estride', (112, 112)), ('evtage', (264, 264))),
        (('value_filtered', 0), ('addr_filtered', 0), ('early_reads', 0),
         ('conflicting_reads', 0), ('renames', 0),
         ('associations_learned', 0), ('storage_bits', 9296))),
    ('mcf', 'skylake_2x', 'lvp'): (
        35686, 0xcab3660d,
        (('lv', (1377, 1377)),),
        (('storage_bits', 20480),)),
    ('mcf', 'skylake_2x', 'stride'): (
        35686, 0x082f89d6,
        (('stride', (2509, 2509)),),
        (('storage_bits', 24576),)),
    ('mcf', 'skylake_2x', 'fcm'): (
        35686, 0x66c00008,
        (('fcm', (2540, 2540)),),
        (('storage_bits', 47872),)),
    ('mcf', 'skylake_2x', 'vtage'): (
        35686, 0x4353732a,
        (('vtage', (1129, 1129)), ('vtage-base', (690, 690))),
        (('storage_bits', 40960),)),
    ('mcf', 'skylake_2x', 'dvtage'): (
        35686, 0x4353732a,
        (('vtage', (1129, 1129)), ('vtage-base', (690, 690))),
        (('storage_bits', 43008),)),
    ('mcf', 'skylake_2x', 'eves'): (
        35686, 0x19a2b782,
        (('estride', (2064, 2064)), ('evtage', (187, 187))),
        (('estride_capacity', 128), ('storage_bits', 53376))),
    ('mcf', 'skylake_2x', 'dlvp'): (
        35686, 0x37268be5,
        (('cap', (71, 71)), ('sap', (2796, 2796))),
        (('early_reads', 3807), ('conflicting_reads', 0),
         ('storage_bits', 18432))),
    ('mcf', 'skylake_2x', 'mr-8kb'): (
        35686, 0x0d4cbb29,
        (),
        (('renames', 0), ('associations_learned', 0),
         ('storage_bits', 65524))),
    ('mcf', 'skylake_2x', 'mr-1kb'): (
        35686, 0x0d4cbb29,
        (),
        (('renames', 0), ('associations_learned', 0),
         ('storage_bits', 8138))),
    ('mcf', 'skylake_2x', 'composite-8kb'): (
        35686, 0x53c4a465,
        (('cap', (71, 71)), ('estride', (2064, 2064)),
         ('evtage', (139, 139)), ('sap', (608, 608))),
        (('value_filtered', 0), ('addr_filtered', 0), ('early_reads', 1563),
         ('conflicting_reads', 0), ('storage_bits', 77312))),
    ('mcf', 'skylake_2x', 'composite-1kb'): (
        35686, 0x1b8f519f,
        (('cap', (32, 32)), ('estride', (277, 277)), ('evtage', (212, 212)),
         ('sap', (132, 132))),
        (('value_filtered', 0), ('addr_filtered', 0), ('early_reads', 289),
         ('conflicting_reads', 0), ('storage_bits', 10000))),
    ('mcf', 'skylake_2x', 'mr+composite-8kb'): (
        35686, 0xf091bc32,
        (('cap', (16, 16)), ('estride', (1786, 1786)),
         ('evtage', (215, 215)), ('sap', (412, 412))),
        (('value_filtered', 0), ('addr_filtered', 0), ('early_reads', 1183),
         ('conflicting_reads', 0), ('renames', 0),
         ('associations_learned', 0), ('storage_bits', 71610))),
    ('mcf', 'skylake_2x', 'mr+composite-1kb'): (
        35686, 0x9f7a91e9,
        (('estride', (112, 112)), ('evtage', (264, 264))),
        (('value_filtered', 0), ('addr_filtered', 0), ('early_reads', 0),
         ('conflicting_reads', 0), ('renames', 0),
         ('associations_learned', 0), ('storage_bits', 9296))),
}


def test_pins_cover_every_prior_art_spec():
    assert set(PINNED) == {(w, c, s) for w in WORKLOADS for c in CORES
                           for s in SPECS}


def test_composites_exercise_every_path():
    """The workloads reach every Composite source label, a wrong
    prediction and a saturated address filter on both cores."""
    for core in CORES:
        for spec in ("composite-8kb", "composite-1kb"):
            _cycles, _crc, by_source, group = PINNED[("astar", core, spec)]
            counts = dict(by_source)
            assert set(counts) == {"estride", "evtage", "sap", "cap"}
            assert any(total > correct for total, correct in counts.values())
            assert dict(group)["addr_filtered"] >= 1
    for spec in ("vtage", "dvtage"):
        sources = {source for w in WORKLOADS for c in CORES
                   for source, _ in PINNED[(w, c, spec)][2]}
        assert "vtage-base" in sources


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("spec", SPECS)
def test_hook_path_pinned(traces, workload, core, spec):
    assert _run(traces[workload], workload, core, spec) \
        == PINNED[(workload, core, spec)]
