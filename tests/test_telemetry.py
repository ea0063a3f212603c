"""The telemetry subsystem: stat tree, stall attribution, event trace.

The headline acceptance property lives in
:class:`TestStallAttribution`: the per-bucket stall partition plus
retiring cycles sums *exactly* to ``SimResult.cycles`` — no residual
"other" bucket — across workloads and predictors.
"""

import json

import pytest

from repro import build_workload, simulate
from repro.experiments.campaign import ResultCache
from repro.isa import opcodes
from repro.isa.instruction import MicroOp, alu, load
from repro.pipeline.config import CoreConfig
from repro.pipeline.engine import Engine
from repro.pipeline.results import SimResult, TELEMETRY_SCHEMA_VERSION
from repro.predictors import make_predictor
from repro.telemetry import (
    ALL_BUCKETS,
    BRANCH_FLUSH,
    Counter,
    EventTrace,
    FRONTEND_STARVED,
    HEAD_WAIT_EXEC,
    HEAD_WAIT_LOAD,
    Histogram,
    MEM_FLUSH,
    RETIRING,
    STALL_BUCKETS,
    StatGroup,
    VP_FLUSH,
    empty_buckets,
)
from repro.telemetry.export import (
    CSV_HEADER,
    chrome_trace,
    csv_trace,
    write_chrome_trace,
    write_csv_trace,
)
from repro.telemetry.schema import validate_paths
from repro.telemetry.trace import KINDS


class TestCounter:
    def test_add_and_set(self):
        counter = Counter("hits", value=2)
        counter.add()
        counter.add(3)
        assert counter.value == 6
        counter.set(1)
        assert counter.value == 1

    def test_round_trip(self):
        counter = Counter("hits", "cache hits", 41)
        clone = Counter.from_dict("hits", counter.to_dict())
        assert clone == counter and clone.desc == "cache hits"

    def test_merge_adds(self):
        counter = Counter("n", value=2)
        counter.merge(Counter("n", value=5))
        assert counter.value == 7

    def test_rejects_dotted_names(self):
        with pytest.raises(ValueError):
            Counter("a.b")
        with pytest.raises(ValueError):
            Counter("")


class TestHistogram:
    def test_power_of_two_buckets(self):
        assert Histogram.bucket_of(0) == 0
        assert Histogram.bucket_of(1) == 1
        assert Histogram.bucket_of(5) == 4
        assert Histogram.bucket_of(1023) == 512
        assert Histogram.bucket_of(1024) == 1024

    def test_observe_and_mean(self):
        hist = Histogram("gaps")
        for value in (1, 2, 3, 10):
            hist.observe(value)
        assert hist.count == 4
        assert hist.mean == pytest.approx(4.0)
        assert hist.buckets == {1: 1, 2: 2, 8: 1}

    def test_round_trip_and_merge(self):
        hist = Histogram("gaps")
        hist.observe(7, weight=2)
        clone = Histogram.from_dict("gaps", hist.to_dict())
        assert clone == hist
        clone.merge(hist)
        assert clone.count == 4 and clone.total == 28


class TestStatGroup:
    def make_tree(self):
        root = StatGroup("sim")
        root.group("pipeline").counter("cycles", value=100)
        stalls = root.group("pipeline").group("stalls")
        stalls.counter("vp-flush", value=30)
        hist = root.group("pipeline").histogram("gaps")
        hist.observe(4)
        return root

    def test_dotted_path_access(self):
        root = self.make_tree()
        assert root.value("pipeline.cycles") == 100
        assert root["pipeline.stalls.vp-flush"].value == 30
        assert root.get("pipeline.nope") is None

    def test_duplicate_leaf_rejected(self):
        root = StatGroup("sim")
        root.counter("x")
        with pytest.raises(ValueError):
            root.counter("x")

    def test_group_is_get_or_create_but_leaf_conflicts(self):
        root = StatGroup("sim")
        assert root.group("a") is root.group("a")
        root.counter("leaf")
        with pytest.raises(ValueError):
            root.group("leaf")

    def test_flat_view(self):
        flat = self.make_tree().flat()
        assert flat["pipeline.cycles"] == 100
        assert flat["pipeline.stalls.vp-flush"] == 30
        assert flat["pipeline.gaps:mean"] == pytest.approx(4.0)

    def test_round_trip_equality(self):
        root = self.make_tree()
        clone = StatGroup.from_dict("sim", root.to_dict())
        assert clone == root
        # ... and through actual JSON text, the cache's medium.
        rehydrated = StatGroup.from_dict(
            "sim", json.loads(json.dumps(root.to_dict())))
        assert rehydrated == root

    def test_merge_accumulates_and_copies(self):
        mine, theirs = self.make_tree(), self.make_tree()
        theirs.group("frontend").counter("mispredicts", value=7)
        mine.merge(theirs)
        assert mine.value("pipeline.cycles") == 200
        assert mine.value("frontend.mispredicts") == 7
        # The copied subtree is independent of the source.
        theirs["frontend.mispredicts"].add(1)
        assert mine.value("frontend.mispredicts") == 7

    def test_merge_shape_mismatch_raises(self):
        mine = StatGroup("sim")
        mine.counter("x")
        theirs = StatGroup("sim")
        theirs.group("x")
        with pytest.raises(ValueError):
            mine.merge(theirs)


WORKLOADS = ("astar", "milc", "omnetpp")
BACKENDS = ("scalar", "vector")


@pytest.fixture(scope="module")
def runs():
    """(workload, predictor) -> SimResult over 3 workloads × 2
    predictors — the acceptance-criteria grid."""
    out = {}
    for workload in WORKLOADS:
        trace = build_workload(workload, length=5000)
        for spec in ("baseline", "fvp"):
            predictor = None if spec == "baseline" else make_predictor(spec)
            out[workload, spec] = simulate(
                trace, predictor=predictor, workload=workload, warmup=1500)
    return out


class TestStallAttribution:
    def test_buckets_sum_exactly_to_cycles(self, runs):
        for (workload, spec), result in runs.items():
            total = sum(result.stall_cycles.values())
            assert total == result.cycles, (workload, spec)
            assert set(result.stall_cycles) == set(ALL_BUCKETS)

    def test_every_run_retires_and_stalls(self, runs):
        for result in runs.values():
            assert result.stall_cycles[RETIRING] > 0
            assert sum(result.stall_cycles[b] for b in STALL_BUCKETS) > 0

    def test_cpi_breakdown_sums_to_cpi(self, runs):
        for result in runs.values():
            breakdown = result.cpi_breakdown()
            assert sum(breakdown.values()) == pytest.approx(
                result.cycles / result.instructions)

    def test_warmup_partition_is_separate_and_complete(self):
        trace = build_workload("milc", length=5000)
        warm = simulate(trace, workload="milc", warmup=1500)
        cold = simulate(trace, workload="milc", warmup=0)
        # The measured partition never includes warmup cycles...
        assert sum(warm.stall_cycles.values()) == warm.cycles
        # ...the warmup prefix has its own complete partition...
        assert sum(cold.warmup_stall_cycles.values()) == 0
        warm_total = sum(warm.warmup_stall_cycles.values())
        assert warm_total > 0
        # ...and together they account for the whole run.
        assert warm_total + warm.cycles == cold.cycles

    def test_vp_flush_bucket_charged_for_wrong_predictions(self):
        # An always-wrong high-confidence predictor forces value
        # mispredict flushes; those redirect cycles must land in the
        # vp-flush bucket.
        from repro.pipeline.vp_interface import Prediction, ValuePredictor

        class AlwaysWrong(ValuePredictor):
            name = "always-wrong"

            def predict(self, uop, ctx):
                if uop.is_load:
                    return Prediction(value=uop.value + 1)
                return None

        trace = build_workload("milc", length=4000)
        result = simulate(trace, predictor=AlwaysWrong(), workload="milc")
        assert result.vp_flushes > 0
        assert result.stall_cycles[VP_FLUSH] > 0
        assert sum(result.stall_cycles.values()) == result.cycles

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("make_trace,expected", [
        # Independent DIVs queue for the unpipelined divide unit.
        pytest.param(
            lambda config: [MicroOp(pc=0x400000 + 4 * i, op=opcodes.DIV,
                                    dest=i % 8) for i in range(40)],
            {RETIRING: 40, FRONTEND_STARVED: 12, HEAD_WAIT_EXEC: 682},
            id="port-pressure"),
        # A DRAM miss at the head fills the ROB behind it.
        pytest.param(
            lambda config: [load(0x500000, 1, 0x7000_0000)] + [
                alu(0x500004 + 4 * i, dest=2 + i % 6)
                for i in range(2 * config.rob_size)],
            {RETIRING: 91, FRONTEND_STARVED: 165, HEAD_WAIT_LOAD: 142,
             HEAD_WAIT_EXEC: 37},
            id="rob-pressure"),
    ])
    def test_window_and_port_pressure_land_in_head_waiting(
            self, make_trace, expected, backend):
        config = CoreConfig.skylake()
        result = Engine(config, backend=backend).run(
            make_trace(config), workload="micro")
        assert result.cycles == sum(expected.values())
        assert {bucket: cycles for bucket, cycles
                in result.stall_cycles.items() if cycles} == expected


class TestTelemetryTree:
    def test_component_groups_published(self, runs):
        result = runs["astar", "fvp"]
        tree = result.telemetry
        for name in ("pipeline", "frontend", "memory", "predictor"):
            assert isinstance(tree[name], StatGroup), name
        assert tree.value("pipeline.cycles") == result.cycles
        assert tree.value("pipeline.instructions") == result.instructions

    def test_stall_groups_mirror_result_dicts(self, runs):
        result = runs["astar", "baseline"]
        stalls = result.telemetry["pipeline.stalls"]
        for bucket in ALL_BUCKETS:
            assert stalls[bucket].value == result.stall_cycles[bucket]
        warm = result.telemetry["pipeline.warmup-stalls"]
        for bucket in ALL_BUCKETS:
            assert warm[bucket].value == result.warmup_stall_cycles[bucket]

    def test_frontend_and_predictor_groups_in_tree(self, runs):
        result = runs["astar", "fvp"]
        # The front end counts the whole run, warmup included.
        assert result.telemetry.value("frontend.mispredicts") >= \
            result.branch_mispredicts > 0
        # FVP publishes its internals.
        assert result.telemetry["predictor"].children
        assert SimResult("w", "c", "p").telemetry is None

    def test_runtime_stat_paths_match_schema(self, runs):
        # The one schema gate for simulation trees: every path a
        # baseline or an FVP run publishes is declared with its kind,
        # and every concrete schema path is published by one of them.
        # The FVP run adds the stats published only on the predictor
        # path.
        kind_of = {Counter: "counter", Histogram: "histogram"}
        pairs = {(path, kind_of[type(leaf)])
                 for spec in ("baseline", "fvp")
                 for path, leaf in runs["astar", spec].telemetry.walk()}
        assert any(path.startswith("predictor.")
                   and path != "predictor.storage_bits"
                   for path, _ in pairs)
        assert validate_paths(sorted(pairs)) == []


class TestSimResultRoundTrip:
    def test_json_round_trip_is_equal(self, runs):
        for result in runs.values():
            payload = json.loads(json.dumps(result.to_dict()))
            assert SimResult.from_dict(payload) == result

    def test_round_trip_with_events(self):
        trace = build_workload("astar", length=2000)
        result = simulate(trace, collect_events=True)
        clone = SimResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert clone == result
        assert clone.events.events() == result.events.events()

    def test_schema_mismatch_raises(self, runs):
        payload = next(iter(runs.values())).to_dict()
        payload["schema"] = TELEMETRY_SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            SimResult.from_dict(payload)


class TestEventTrace:
    def test_bounded_keeps_tail(self):
        trace = EventTrace(capacity=4)
        for cycle in range(10):
            trace.record(cycle, "alloc", cycle, 0x400000, 0)
        assert len(trace) == 4
        assert trace.dropped == 6
        assert [event.cycle for event in trace.events()] == [6, 7, 8, 9]

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            EventTrace(capacity=0)

    def test_round_trip(self):
        trace = EventTrace(capacity=8)
        trace.record(1, "alloc", 0, 0x400000, 3)
        trace.record(5, "flush", 2, 0x400008, 1, BRANCH_FLUSH)
        clone = EventTrace.from_dict(
            json.loads(json.dumps(trace.to_dict())))
        assert clone == trace

    def test_engine_records_all_milestones(self):
        trace = build_workload("astar", length=1500)
        result = simulate(trace, collect_events=True)
        events = result.events.events()
        assert events and result.events.dropped == 0
        kinds = {event.kind for event in events}
        assert kinds <= set(KINDS)
        per_op = {event.seq for event in events if event.kind == "retire"}
        assert len(per_op) == len(trace)
        flush_causes = {event.detail for event in events
                        if event.kind == "flush"}
        assert flush_causes <= {BRANCH_FLUSH, VP_FLUSH, MEM_FLUSH}

    def test_engine_ring_bound_holds(self):
        from repro.pipeline import CoreConfig
        from repro.pipeline.engine import Engine

        trace = build_workload("astar", length=1500)
        full = simulate(trace, collect_events=True)
        engine = Engine(CoreConfig.skylake(), None, collect_events=True,
                        event_capacity=64)
        bounded = engine.run(trace)
        assert len(bounded.events) == 64
        assert bounded.events.dropped == len(full.events.events()) - 64


class TestExporters:
    def make_trace(self):
        trace = EventTrace(capacity=32)
        # One complete op lifetime...
        for cycle, kind in ((0, "alloc"), (2, "issue"),
                            (5, "complete"), (6, "retire")):
            trace.record(cycle, kind, 0, 0x400000, 0)
        # ...one truncated by the ring boundary (retire only)...
        trace.record(7, "retire", 1, 0x400004, 0)
        # ...and a flush.
        trace.record(8, "flush", 2, 0x400008, 0, VP_FLUSH)
        return trace

    def test_chrome_trace_structure(self):
        doc = chrome_trace(self.make_trace(), process_name="unit")
        events = doc["traceEvents"]
        meta = [e for e in events if e.get("ph") == "M"]
        assert meta[0]["args"]["name"] == "unit"
        slices = [e for e in events if e.get("ph") == "X"]
        assert len(slices) == 1  # the truncated span is skipped
        assert slices[0]["ts"] == 0 and slices[0]["dur"] == 6
        assert slices[0]["args"]["issue"] == 2
        assert slices[0]["args"]["complete"] == 5
        instants = [e for e in events if e.get("ph") == "i"]
        assert instants[0]["name"] == VP_FLUSH

    def test_csv_shape(self):
        text = csv_trace(self.make_trace())
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 1 + 6
        assert lines[-1].endswith(VP_FLUSH)

    def test_writers(self, tmp_path):
        trace = self.make_trace()
        json_path = tmp_path / "trace.json"
        csv_path = tmp_path / "trace.csv"
        write_chrome_trace(str(json_path), trace)
        write_csv_trace(str(csv_path), trace)
        assert json.loads(json_path.read_text())["traceEvents"]
        assert csv_path.read_text().startswith("cycle,")


class TestCachePrune:
    def put_entry(self, cache, key):
        result = SimResult("w", "skylake", "baseline")
        result.instructions = 10
        result.cycles = 20
        cache.put(key, result)
        return cache.path(key)

    def test_prune_by_age(self, tmp_path):
        import os

        cache = ResultCache(str(tmp_path))
        old = self.put_entry(cache, "a" * 8)
        new = self.put_entry(cache, "b" * 8)
        os.utime(old, (1000, 1000))
        cache.flush_stats(simulated=2)
        assert cache.prune(3600) == 1
        assert not os.path.exists(old) and os.path.exists(new)
        assert os.path.exists(os.path.join(cache.root, cache.STATS_FILE))
        assert cache.prune(0) == 1
        assert cache.entries() == []

    def test_hit_does_not_refresh_age(self, tmp_path):
        # Prune goes by write time: a get() never touches mtime, so a
        # cache hit does not save an old entry.
        import os

        cache = ResultCache(str(tmp_path))
        old = self.put_entry(cache, "a" * 8)
        os.utime(old, (1000, 1000))
        assert cache.get("a" * 8) is not None
        assert os.path.getmtime(old) == 1000
        assert cache.prune(3600) == 1

    def test_prune_cutoff_removes_oldest_first(self, tmp_path):
        import os

        cache = ResultCache(str(tmp_path))
        paths = [self.put_entry(cache, c * 8) for c in "abc"]
        for age, path in zip((300, 200, 100), paths):
            os.utime(path, (10_000 - age, 10_000 - age))
        assert cache.prune(250, now=10_000) == 1
        assert cache.entries() == ["b" * 8, "c" * 8]
        assert cache.prune(150, now=10_000) == 1
        assert cache.entries() == ["c" * 8]

    def test_prune_ages_out_quarantine_but_keeps_stats(self, tmp_path):
        import os

        cache = ResultCache(str(tmp_path))
        cache.flush_stats(simulated=0)
        bad = tmp_path / ("d" * 8 + cache.SUFFIX + cache.BAD_SUFFIX)
        bad.write_text("{torn")
        stats = tmp_path / cache.STATS_FILE
        for path in (bad, stats):
            os.utime(path, (1000, 1000))
        assert cache.prune(3600) == 1
        assert not bad.exists() and stats.exists()

    def test_put_never_removes_another_entry(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        keys = [f"{index:08x}" for index in range(12)]
        for key in keys:
            self.put_entry(cache, key)
        assert cache.entries() == keys
        cache.flush_stats(simulated=12)
        assert set(cache.load_stats()) == {
            "hits", "misses", "simulated", "quarantined", "last_run"}

    def test_prune_sweeps_legacy_pickles(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        legacy = tmp_path / ("c" * 8 + ".pkl")
        legacy.write_bytes(b"\x80\x04old")
        assert cache.prune(0) == 1
        assert not legacy.exists()

    def test_prune_rejects_negative_age(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(str(tmp_path)).prune(-1)


class TestEmptyBuckets:
    def test_covers_full_taxonomy(self):
        buckets = empty_buckets()
        assert tuple(buckets) == ALL_BUCKETS == (
            "retiring", "frontend-starved", "head-waiting-on-load",
            "head-waiting-on-exec", "branch-flush", "vp-flush", "mem-flush")
        assert set(buckets.values()) == {0}


#: (workload, core, predictor) -> (measured, warmup) stall partitions,
#: in ``ALL_BUCKETS`` order, at 10k ops with a 4k warmup.  Recorded
#: under the former twelve-bucket taxonomy, whose five window, queue
#: and port buckets read 0 in every one of these runs: deleting them
#: moved no cycle.  Every bucket is nonzero somewhere; ``mem-flush``
#: only in warmup partitions (no ordering violation follows op 4000).
PARTITION_PINS = {
    ("tpce", "skylake", "baseline"): (
        (1045, 85, 8004, 20, 30, 0, 0), (804, 128, 7265, 41, 144, 0, 75)),
    ("tpce", "skylake", "fvp"): (
        (1035, 81, 7961, 20, 35, 0, 0), (803, 128, 7265, 41, 144, 0, 75)),
    ("tpce", "skylake", "composite-8kb"): (
        (1057, 97, 8046, 24, 39, 13, 0), (821, 169, 7298, 59, 162, 12, 75)),
    ("tpce", "skylake-2x", "baseline"): (
        (511, 32, 5722, 5, 3, 0, 0), (434, 80, 5690, 27, 79, 0, 46)),
    ("tpce", "skylake-2x", "fvp"): (
        (486, 32, 5502, 5, 3, 0, 0), (423, 80, 5598, 27, 82, 0, 46)),
    ("tpce", "skylake-2x", "composite-8kb"): (
        (510, 32, 5713, 5, 3, 0, 0), (456, 84, 5814, 32, 95, 0, 46)),
    ("milc", "skylake", "baseline"): (
        (1377, 12, 5051, 1259, 266, 0, 0), (1113, 42, 7017, 1113, 817, 0, 40)),
    ("milc", "skylake", "fvp"): (
        (1377, 12, 5051, 1259, 266, 0, 0), (1113, 42, 7017, 1113, 817, 0, 40)),
    ("milc", "skylake", "composite-8kb"): (
        (1344, 12, 4910, 1194, 251, 0, 0), (1068, 48, 6971, 1096, 808, 0, 40)),
    ("milc", "skylake-2x", "baseline"): (
        (756, 9, 3938, 876, 44, 0, 0), (719, 39, 5578, 894, 556, 0, 19)),
    ("milc", "skylake-2x", "fvp"): (
        (756, 9, 3938, 876, 44, 0, 0), (719, 39, 5578, 894, 556, 0, 19)),
    ("milc", "skylake-2x", "composite-8kb"): (
        (739, 9, 3835, 854, 44, 0, 0), (701, 47, 5552, 898, 546, 0, 31)),
    ("xz17", "skylake", "baseline"): (
        (2162, 21, 3780, 1139, 2806, 0, 0),
        (1585, 255, 5365, 807, 2188, 0, 139)),
    ("xz17", "skylake", "fvp"): (
        (2162, 21, 3780, 1139, 2806, 0, 0),
        (1585, 255, 5365, 807, 2188, 0, 139)),
    ("xz17", "skylake", "composite-8kb"): (
        (2080, 22, 3765, 1141, 2784, 0, 0),
        (1539, 265, 5359, 815, 2175, 0, 138)),
    ("xz17", "skylake-2x", "baseline"): (
        (1346, 20, 3384, 961, 2225, 0, 0),
        (1142, 214, 4829, 787, 1906, 0, 95)),
    ("xz17", "skylake-2x", "fvp"): (
        (1346, 20, 3384, 961, 2225, 0, 0),
        (1142, 214, 4829, 787, 1906, 0, 95)),
    ("xz17", "skylake-2x", "composite-8kb"): (
        (1282, 24, 3395, 957, 2213, 0, 0),
        (1094, 226, 4829, 793, 1913, 0, 95)),
}
CORES = {"skylake": CoreConfig.skylake, "skylake-2x": CoreConfig.skylake_2x}


@pytest.fixture(scope="module")
def pin_traces():
    return {workload: build_workload(workload, length=10_000)
            for workload in {workload for workload, _, _ in PARTITION_PINS}}


def test_stall_partition_pins_cover_every_bucket():
    for index, bucket in enumerate(ALL_BUCKETS):
        assert any(partition[index] for pins in PARTITION_PINS.values()
                   for partition in pins), bucket


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("key", list(PARTITION_PINS),
                         ids=["/".join(key) for key in PARTITION_PINS])
def test_stall_partition_golden_pin(pin_traces, key, backend):
    workload, core, spec = key
    predictor = None if spec == "baseline" else make_predictor(spec)
    result = Engine(CORES[core](), predictor, backend=backend).run(
        pin_traces[workload], workload=workload, warmup=4000)
    assert (tuple(result.stall_cycles.values()),
            tuple(result.warmup_stall_cycles.values())) == \
        PARTITION_PINS[key]
    assert tuple(result.stall_cycles) == ALL_BUCKETS
