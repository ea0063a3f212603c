"""Unit tests for the baseline value predictors (LVP, stride, FCM,
VTAGE/D-VTAGE, EVES)."""

from tests.helpers import drive

from repro.isa import alu, load
from repro.predictors import (
    EvesPredictor,
    FcmPredictor,
    LastValuePredictor,
    StridePredictor,
    VtagePredictor,
    make_predictor,
)


def train_constant(predictor, ctx, pc=0x400000, value=42, rounds=400):
    uop = load(pc, dest=0, addr=0x1000, value=value)
    for _ in range(rounds):
        drive(predictor, uop, ctx)
    return predictor.predict(uop, ctx)


class TestLvp:
    def test_constant_value_predicted(self, ctx):
        prediction = train_constant(LastValuePredictor(), ctx)
        assert prediction is not None and prediction.value == 42

    def test_changing_value_never_predicted(self, ctx):
        predictor = LastValuePredictor()
        for i in range(400):
            drive(predictor, load(0x400000, dest=0, addr=0x1000, value=i),
                  ctx)
        assert predictor.predict(
            load(0x400000, dest=0, addr=0x1000, value=400), ctx) is None

    def test_loads_only_by_default(self, ctx):
        predictor = LastValuePredictor()
        uop = alu(0x400000, dest=0, value=42)
        for _ in range(400):
            drive(predictor, uop, ctx)
        assert predictor.predict(uop, ctx) is None

    def test_all_instructions_mode(self, ctx):
        predictor = LastValuePredictor(loads_only=False)
        uop = alu(0x400000, dest=0, value=42)
        for _ in range(600):
            drive(predictor, uop, ctx)
        assert predictor.predict(uop, ctx) is not None

    def test_value_change_resets_confidence(self, ctx):
        predictor = LastValuePredictor()
        train_constant(predictor, ctx, value=42)
        drive(predictor, load(0x400000, dest=0, addr=0x1000, value=7), ctx)
        assert predictor.predict(
            load(0x400000, dest=0, addr=0x1000, value=7), ctx) is None

    def test_storage_accounting(self):
        assert LastValuePredictor(entries=256).storage_bits() == 256 * 80


class TestStride:
    def test_strided_values_predicted(self, ctx):
        predictor = StridePredictor()
        for i in range(64):
            drive(predictor,
                  load(0x400000, dest=0, addr=0x1000, value=100 + 3 * i),
                  ctx)
        prediction = predictor.predict(
            load(0x400000, dest=0, addr=0x1000, value=100 + 3 * 64), ctx)
        assert prediction is not None
        assert prediction.value == 100 + 3 * 64

    def test_zero_stride_is_last_value(self, ctx):
        predictor = StridePredictor()
        prediction = train_constant(predictor, ctx, rounds=64)
        assert prediction is not None and prediction.value == 42

    def test_wild_values_not_predicted(self, ctx):
        predictor = StridePredictor()
        for i in range(64):
            drive(predictor,
                  load(0x400000, dest=0, addr=0x1000,
                       value=(i * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)),
                  ctx)
        assert predictor.predict(
            load(0x400000, dest=0, addr=0x1000, value=0), ctx) is None

    def test_negative_stride(self, ctx):
        predictor = StridePredictor()
        for i in range(64):
            drive(predictor,
                  load(0x400000, dest=0, addr=0x1000, value=10_000 - 5 * i),
                  ctx)
        prediction = predictor.predict(
            load(0x400000, dest=0, addr=0x1000, value=0), ctx)
        assert prediction is not None
        assert prediction.value == 10_000 - 5 * 64


class TestFcm:
    def test_repeating_pattern_predicted(self, ctx):
        predictor = FcmPredictor()
        pattern = [3, 1, 4, 1, 5]
        hits = 0
        for i in range(1200):
            value = pattern[i % len(pattern)]
            prediction = drive(
                predictor, load(0x400000, dest=0, addr=0x1000, value=value),
                ctx)
            if prediction is not None and prediction.value == value:
                hits += 1
        assert hits > 300

    def test_random_values_not_predicted(self, ctx):
        import random

        rng = random.Random(1)
        predictor = FcmPredictor()
        predictions = 0
        for _ in range(1000):
            if drive(predictor,
                     load(0x400000, dest=0, addr=0x1000,
                          value=rng.getrandbits(64)), ctx) is not None:
                predictions += 1
        assert predictions < 20


class TestVtage:
    def test_constant_predicted_via_base(self, ctx):
        prediction = train_constant(VtagePredictor(), ctx)
        assert prediction is not None and prediction.value == 42

    def test_history_correlated_values(self, ctx):
        """Value determined by recent branch history: the tagged
        components must catch what the base LVP cannot."""
        predictor = VtagePredictor(conf_prob=4)
        hits = used = 0
        for i in range(4000):
            ctx.history = 0b1010 if i % 2 else 0b0101
            value = 111 if i % 2 else 222
            uop = load(0x400000, dest=0, addr=0x1000, value=value)
            prediction = drive(predictor, uop, ctx)
            if i > 2000 and prediction is not None:
                used += 1
                if prediction.value == value:
                    hits += 1
        assert used > 200
        assert hits / used > 0.95

    def test_dvtage_strides(self, ctx):
        predictor = VtagePredictor(with_stride=True, conf_prob=8)
        assert predictor.name == "dvtage"
        hits = 0
        for i in range(2000):
            value = 100 + 8 * i
            prediction = drive(
                predictor, load(0x400000, dest=0, addr=0x1000, value=value),
                ctx)
            if prediction is not None and prediction.value == value:
                hits += 1
        assert hits > 200

    def test_storage_grows_with_tables(self):
        small = VtagePredictor(base_entries=64, tagged_entries=32)
        big = VtagePredictor(base_entries=128, tagged_entries=64)
        assert big.storage_bits() > small.storage_bits()


class TestEves:
    def test_constant_predicted(self, ctx):
        prediction = train_constant(EvesPredictor(), ctx)
        assert prediction is not None and prediction.value == 42

    def test_stride_component_predicts(self, ctx):
        predictor = EvesPredictor()
        ctx.l1_hit = False  # benefit-driven ramp favours misses
        hits = 0
        for i in range(800):
            value = 5 + 24 * i
            prediction = drive(
                predictor, load(0x400000, dest=0, addr=0x1000, value=value),
                ctx)
            if prediction is not None and prediction.value == value:
                hits += 1
        assert hits > 100

    def test_registry_names(self):
        for name in ("lvp", "stride", "fcm", "vtage", "dvtage", "eves"):
            predictor = make_predictor(name)
            assert predictor.storage_bits() > 0

    def test_registry_rejects_unknown(self):
        import pytest

        with pytest.raises(ValueError):
            make_predictor("nope")

    def test_spec_grammar(self):
        import pytest

        from repro.errors import ConfigError
        from repro.predictors import parse_spec

        assert parse_spec("fvp") == ("fvp", {})
        assert parse_spec("fvp:vt_entries=96,vf_entries=128") == \
            ("fvp", {"vt_entries": 96, "vf_entries": 128})
        assert parse_spec("fvp:epoch=0") == ("fvp", {"epoch": 0})
        for bad in ("nope", "fvp:epoch=x", "fvp:bogus=1", "lvp:epoch=1",
                    "fvp:", "fvp:epoch=1,epoch=2", "fvp:cit_size=0",
                    "fvp:vf_entries=128,vt_entries=96", 5):
            with pytest.raises(ConfigError):
                parse_spec(bad)
        # The oracle needs the job's trace and core.
        with pytest.raises(ConfigError, match="trace"):
            make_predictor("fvp-oracle")

    def test_override_spec_sizes_fvp(self):
        from repro.predictors.memory_renaming import MemoryRenaming

        predictor = make_predictor("fvp:epoch=1000,lt_size=4,"
                                   "vt_entries=96,vf_entries=128,"
                                   "cit_size=8")
        assert predictor.name == "fvp"
        assert predictor.vt.sets * predictor.vt.ways == 96
        assert predictor.cit.size == 8
        assert predictor.lt.size == 4
        assert predictor.cit.epoch == 1000
        assert predictor.mr.vf_entries == 128
        assert predictor.mr.assoc.sets == \
            MemoryRenaming(sl_entries=136).assoc.sets
