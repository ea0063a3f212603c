"""Unit tests for DLVP, Memory Renaming, and the Composite predictor."""

from tests.helpers import drive

from repro.isa import load, store
from repro.predictors import (
    CompositePredictor,
    DlvpPredictor,
    MemoryRenaming,
)


class TestDlvp:
    def test_strided_addresses_predicted_when_cached(self, ctx):
        predictor = DlvpPredictor()
        ctx.probe_level = lambda addr: "L1"
        hits = 0
        for i in range(200):
            uop = load(0x400000, dest=0, addr=0x1000 + 64 * i, value=i * 7)
            prediction = drive(predictor, uop, ctx)
            if prediction is not None and prediction.value == uop.value:
                hits += 1
        assert hits > 150

    def test_no_prediction_when_line_not_near(self, ctx):
        predictor = DlvpPredictor()
        ctx.probe_level = lambda addr: "DRAM"
        for i in range(200):
            uop = load(0x400000, dest=0, addr=0x1000 + 64 * i, value=i)
            assert drive(predictor, uop, ctx) is None

    def test_conflicting_store_poisons_value(self, ctx):
        predictor = DlvpPredictor()
        ctx.probe_level = lambda addr: "L1"
        # Train the SAP.
        for i in range(64):
            drive(predictor,
                  load(0x400000, dest=0, addr=0x1000 + 64 * i, value=i), ctx)
        ctx.store_inflight_to_addr = lambda addr: (1, 0x400100, 99, 10)
        uop = load(0x400000, dest=0, addr=0x1000 + 64 * 64, value=64)
        prediction = predictor.predict(uop, ctx)
        assert prediction is not None
        assert prediction.value != uop.value  # stale early read

    def test_conflict_filter_learns_to_abstain(self, ctx):
        predictor = DlvpPredictor(conflict_filter=True)
        ctx.probe_level = lambda addr: "L1"
        ctx.store_inflight_to_addr = lambda addr: (1, 0x400100, 99, 10)
        abstained = False
        for i in range(64):
            uop = load(0x400000, dest=0, addr=0x1000 + 64 * i, value=i)
            prediction = drive(predictor, uop, ctx)
            if i > 16 and prediction is None:
                abstained = True
        assert abstained

    def test_irregular_addresses_not_predicted(self, ctx):
        predictor = DlvpPredictor()
        ctx.probe_level = lambda addr: "L1"
        predictions = 0
        for i in range(256):
            addr = 0x1000 + ((i * 0x9E3779B9) % (1 << 20)) // 64 * 64
            if drive(predictor,
                     load(0x400000, dest=0, addr=addr, value=i),
                     ctx) is not None:
                predictions += 1
        assert predictions < 16


class TestMemoryRenaming:
    def _train_pair(self, predictor, ctx, rounds=16):
        for i in range(rounds):
            predictor.on_forwarding(store_pc=0x400100, load_pc=0x400200,
                                    store_seq=i)

    def test_rename_after_confident_association(self, ctx):
        predictor = MemoryRenaming()
        self._train_pair(predictor, ctx)
        # Store allocates and publishes its data into the Value File.
        ctx.seq = 100
        predictor.predict(store(0x400100, addr=0x1000, srcs=(1,), value=77),
                          ctx)
        prediction = predictor.predict(
            load(0x400200, dest=0, addr=0x1000, value=77), ctx)
        assert prediction is not None
        assert prediction.value == 77
        assert prediction.store_seq == 100

    def test_no_rename_without_confidence(self, ctx):
        predictor = MemoryRenaming()
        predictor.on_forwarding(0x400100, 0x400200, 0)
        ctx.seq = 10
        predictor.predict(store(0x400100, addr=0x1000, srcs=(1,), value=5),
                          ctx)
        assert predictor.predict(
            load(0x400200, dest=0, addr=0x1000, value=5), ctx) is None

    def test_no_rename_without_inflight_store(self, ctx):
        predictor = MemoryRenaming()
        self._train_pair(predictor, ctx)
        assert predictor.predict(
            load(0x400200, dest=0, addr=0x1000, value=7), ctx) is None

    def test_mispredict_resets_confidence(self, ctx):
        predictor = MemoryRenaming()
        self._train_pair(predictor, ctx)
        ctx.seq = 5
        predictor.predict(store(0x400100, addr=0x1000, srcs=(1,), value=1),
                          ctx)
        uop = load(0x400200, dest=0, addr=0x1000, value=2)  # wrong data
        prediction = predictor.predict(uop, ctx)
        predictor.train_execute(uop, ctx, prediction, correct=False)
        predictor.predict(store(0x400100, addr=0x1000, srcs=(1,), value=2),
                          ctx)
        assert predictor.predict(uop, ctx) is None

    def test_association_rebinds_on_new_store(self, ctx):
        predictor = MemoryRenaming(conf_threshold=2)
        self._train_pair(predictor, ctx, rounds=8)
        for i in range(12):
            predictor.on_forwarding(0x400999, 0x400200, i)
        ctx.seq = 50
        predictor.predict(store(0x400999, addr=0x1000, srcs=(1,), value=9),
                          ctx)
        prediction = predictor.predict(
            load(0x400200, dest=0, addr=0x1000, value=9), ctx)
        assert prediction is not None and prediction.value == 9

    def test_budget_scaling(self):
        small = MemoryRenaming.at_budget(1)
        big = MemoryRenaming.at_budget(8)
        assert big.storage_bits() > 6 * small.storage_bits()
        assert small.storage_bits() <= 1.1 * 8192
        assert big.name == "mr-8kb"

    def test_value_file_capacity(self, ctx):
        predictor = MemoryRenaming(vf_entries=2)
        for pair in range(3):
            load_pc = 0x400200 + 16 * pair
            store_pc = 0x400100 + 16 * pair
            for i in range(16):
                predictor.on_forwarding(store_pc, load_pc, i)
            ctx.seq = 100 + pair
            predictor.predict(store(store_pc, addr=0x1000, srcs=(1,),
                                    value=pair), ctx)
        assert len(predictor._value_file) <= 2


class TestComposite:
    def test_value_path_wins_on_constants(self, ctx):
        predictor = CompositePredictor.at_budget(8)
        ctx.probe_level = lambda addr: "L1"
        uop = load(0x400000, dest=0, addr=0x1000, value=42)
        for _ in range(600):
            drive(predictor, uop, ctx)
        prediction = predictor.predict(uop, ctx)
        assert prediction is not None
        assert prediction.source in ("estride", "evtage")

    def test_address_path_covers_strided_unpredictable_values(self, ctx):
        predictor = CompositePredictor.at_budget(8)
        ctx.probe_level = lambda addr: "L1"
        hits = 0
        for i in range(300):
            uop = load(0x400000, dest=0, addr=0x1000 + 64 * i,
                       value=(i * 0x12345) & 0xFFFFFFFF)
            prediction = drive(predictor, uop, ctx)
            if prediction is not None and prediction.value == uop.value:
                hits += 1
        assert hits > 100

    def test_value_filter_skips_eves_but_keeps_training_it(self, ctx):
        """Two value-path mispredictions of a PC stop the Composite from
        asking EVES about it; EVES still trains on the PC, probing its
        table itself since its predict did not run for the op."""
        predictor = CompositePredictor.at_budget(8)
        ctx.probe_level = lambda addr: "DRAM"  # no address-path predictions
        uop = load(0x400000, dest=0, addr=0x1000, value=42)
        for _ in range(600):
            drive(predictor, uop, ctx)
        for _ in range(2):
            prediction = drive(predictor, uop, ctx, correct_value=43)
            assert prediction.source in ("estride", "evtage")
        assert predictor.stats()["value_filtered"] == 1
        assert predictor.predict(uop, ctx) is None
        estride = predictor.eves.estride
        slot = estride.find(0x400000)
        assert slot >= 0
        for value in (100, 200, 300):
            assert drive(predictor, load(0x400000, dest=0, addr=0x1000,
                                         value=value), ctx) is None
            assert estride.value[slot] == value
        assert estride.extra[slot] == 100  # the stride 200 -> 300 repeated

    def test_budget_scales_storage(self):
        small = CompositePredictor.at_budget(1)
        big = CompositePredictor.at_budget(8)
        assert big.storage_bits() > 4 * small.storage_bits()

    def test_bad_budget_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            CompositePredictor.at_budget(3)
