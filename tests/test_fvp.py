"""Unit and behavioural tests for Focused Value Prediction (§IV)."""

import pytest

from tests.helpers import drive

from repro.core import FVP, LearningTable
from repro.core.fvp import (
    fvp_all_instructions,
    fvp_l1_miss,
    fvp_l1_miss_only,
    fvp_memory_only,
    fvp_oracle,
    fvp_register_only,
)
from repro.isa import alu, load, store


class TestLearningTable:
    def test_insert_and_hit_releases(self):
        lt = LearningTable(size=2)
        lt.insert(0x400000)
        assert 0x400000 in lt
        assert lt.hit(0x400000) is True
        assert 0x400000 not in lt
        assert lt.hit(0x400000) is False

    def test_fifo_replacement(self):
        lt = LearningTable(size=2)
        lt.insert(1)
        lt.insert(2)
        lt.insert(3)
        assert 1 not in lt and 2 in lt and 3 in lt
        assert lt.dropped == 1

    def test_duplicate_insert_ignored(self):
        lt = LearningTable(size=2)
        lt.insert(1)
        lt.insert(1)
        assert len(lt) == 1

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            LearningTable(size=0)


# Distinct CIT indices (mod 32) and VT sets, as distinct static
# instructions would have.
MISS_PC = 0x400020
ALU_PC = 0x400010
META_PC = 0x400104


def figure1_iteration(i, predictor, ctx, meta_value=0x5000):
    """Drive one iteration of the paper's Figure-1 idiom through the
    predictor hooks, mimicking what the engine does:

      META_PC: load rB <- constant (the predictable chain head)
      ALU_PC:  rA = f(rB)
      MISS_PC: load [rA]  (delinquent: random value, stalls retirement)
    """
    predictions = {}

    meta = load(META_PC, dest=1, addr=0x1000, value=meta_value)
    ctx.stalls_retirement = False
    ctx.l1_hit = False  # chain head lives in L2
    predictions["meta"] = drive(predictor, meta, ctx)
    ctx.writer_pc[1] = META_PC

    addr_op = alu(ALU_PC, dest=2, srcs=(1,), value=0x90000 + 64 * i)
    ctx.stalls_retirement = False
    drive(predictor, addr_op, ctx)
    ctx.writer_pc[2] = ALU_PC

    miss = load(MISS_PC, dest=3, addr=0x90000 + 64 * i, srcs=(2,),
                value=(i * 0x9E3779B97F4A7C15) & ((1 << 64) - 1))
    ctx.stalls_retirement = True  # the delinquent load stalls retirement
    ctx.l1_hit = False
    predictions["miss"] = drive(predictor, miss, ctx)
    ctx.writer_pc[3] = MISS_PC
    ctx.stalls_retirement = False
    return predictions


class TestFocusedTraining:
    def test_walks_back_to_predictable_chain_head(self, ctx):
        predictor = FVP()
        meta_hits = 0
        for i in range(3000):
            predictions = figure1_iteration(i, predictor, ctx)
            if predictions["meta"] is not None:
                meta_hits += 1
                assert predictions["meta"].value == 0x5000
        assert meta_hits > 500, \
            "FVP should learn the chain head through CIT -> walk -> VT"

    def test_miss_load_itself_not_predicted(self, ctx):
        predictor = FVP()
        for i in range(2000):
            predictions = figure1_iteration(i, predictor, ctx)
            if predictions["miss"] is not None:
                pytest.fail("unpredictable delinquent load was predicted")

    def test_non_critical_loads_ignored(self, ctx):
        """A trivially predictable load that never stalls retirement
        must never enter FVP's tables — the focus property."""
        predictor = FVP()
        uop = load(0x500000, dest=4, addr=0x2000, value=7)
        for _ in range(2000):
            ctx.stalls_retirement = False
            assert drive(predictor, uop, ctx) is None

    def test_critical_root_allocated_as_target(self, ctx):
        """A *predictable* critical load is predicted directly."""
        predictor = FVP()
        uop = load(0x500000, dest=4, addr=0x2000, value=7)
        hits = 0
        for _ in range(3000):
            ctx.stalls_retirement = True
            ctx.l1_hit = False
            if drive(predictor, uop, ctx) is not None:
                hits += 1
        assert hits > 500

    def test_walk_passes_through_the_alu(self, ctx):
        """The walk must traverse the ALU (allocated unpredictable, so
        it forwards the walk) without ever predicting it."""
        predictor = FVP()
        for i in range(200):
            figure1_iteration(i, predictor, ctx)
        stats = predictor.stats()
        assert stats["walks"] > 0
        assert stats["lt_hits"] > 0
        # Both the ALU and the meta load were allocated at some point.
        assert stats["vt_allocs"] >= 2
        # Non-loads are filtered: no LV/CV prediction ever named the ALU
        # (only loads are counted in lv/cv attribution by construction).
        assert predictor.lv_predictions >= 0


class TestMemoryDependencePath:
    STORE_PC = 0x600000
    LOAD_PC = 0x600010

    def test_value_table_and_mr_cache_hash_a_key_alike(self):
        """FVP.predict hashes the PC once for its Value Table and its
        Memory Renaming probe, so both tables must select the same set
        and tag for a key."""
        from repro.core.value_table import ValueTable
        from repro.predictors.common import TaggedTable
        vt = ValueTable(entries=96)
        assoc = TaggedTable(96)
        for key in range(0x400000, 0x400000 + 4096, 4):
            slot = assoc.allocate(key)
            assert (slot >> 1, assoc.tag[slot]) == vt._set_tag(key)
            assoc.tag[slot] = -1

    def run_pair(self, predictor, ctx, rounds=200):
        hits = 0
        for i in range(rounds):
            value = (i * 1234567) & 0xFFFF
            ctx.seq = 2 * i
            st = store(self.STORE_PC, addr=0x3000, srcs=(1,), value=value)
            drive(predictor, st, ctx)
            predictor.on_forwarding(self.STORE_PC, self.LOAD_PC, ctx.seq)
            ctx.seq = 2 * i + 1
            ld = load(self.LOAD_PC, dest=2, addr=0x3000, value=value)
            ctx.stalls_retirement = True
            prediction = drive(predictor, ld, ctx)
            ctx.stalls_retirement = False
            if prediction is not None and prediction.store_seq is not None:
                assert prediction.value == value
                hits += 1
        return hits

    def test_mr_predicts_varying_forwarded_values(self, ctx):
        predictor = FVP()
        assert self.run_pair(predictor, ctx) > 100

    def test_memory_only_variant_still_renames(self, ctx):
        predictor = fvp_memory_only()
        assert predictor.use_vt is False
        assert self.run_pair(predictor, ctx) > 100

    def test_register_only_variant_never_renames(self, ctx):
        predictor = fvp_register_only()
        assert self.run_pair(predictor, ctx) == 0

    @pytest.mark.xfail(strict=True, reason=(
        "known deviation (DESIGN.md): FVP relabels MR predictions "
        "'fvp-mr', so a wrong renaming never resets the association's "
        "confidence; fixing it changes cycle counts"))
    def test_wrong_renaming_resets_association_confidence(self, ctx):
        # §IV-D: a wrong memory-renaming prediction flushes and resets
        # the association, as standalone MR does.
        predictor = fvp_memory_only()
        for i in range(8):
            predictor.on_forwarding(self.STORE_PC, self.LOAD_PC, i)
        ctx.seq = 50
        drive(predictor, store(self.STORE_PC, addr=0x3000, srcs=(1,),
                               value=7), ctx)
        ctx.seq = 51
        ld = load(self.LOAD_PC, dest=2, addr=0x3000, value=8)
        prediction = drive(predictor, ld, ctx)
        assert prediction is not None and prediction.value == 7
        assoc = predictor.mr.assoc
        slot = assoc.find(self.LOAD_PC)
        assert slot >= 0 and assoc.conf[slot] == 0


class TestVariants:
    def test_l1_miss_only_never_walks(self, ctx):
        predictor = fvp_l1_miss_only()
        for i in range(500):
            figure1_iteration(i, predictor, ctx)
        assert predictor.walks == 0

    def test_l1_miss_walks(self, ctx):
        predictor = fvp_l1_miss()
        for i in range(500):
            figure1_iteration(i, predictor, ctx)
        assert predictor.walks > 0

    def test_oracle_uses_supplied_pcs(self, ctx):
        predictor = fvp_oracle(oracle_pcs={MISS_PC})
        meta_hits = 0
        for i in range(3000):
            predictions = figure1_iteration(i, predictor, ctx)
            if predictions["meta"] is not None:
                meta_hits += 1
        assert meta_hits > 500

    def test_oracle_requires_pcs(self):
        with pytest.raises(ValueError):
            FVP(criticality="oracle")

    def test_all_instructions_predicts_alus(self, ctx):
        predictor = fvp_all_instructions()
        uop = alu(0x700000, dest=5, value=9)
        hits = 0
        for _ in range(3000):
            ctx.stalls_retirement = True
            if drive(predictor, uop, ctx) is not None:
                hits += 1
        assert hits > 100

    def test_bad_criticality_mode_rejected(self):
        with pytest.raises(ValueError):
            FVP(criticality="bogus")


class TestStorage:
    def test_default_storage_matches_table1(self):
        assert FVP().storage_bits() == 1196 * 8

    def test_component_ablations_shrink_storage(self):
        full = FVP().storage_bits()
        assert fvp_register_only().storage_bits() < full
        assert fvp_memory_only().storage_bits() < full

    def test_stats_exposed(self, ctx):
        predictor = FVP()
        for i in range(100):
            figure1_iteration(i, predictor, ctx)
        stats = predictor.stats()
        assert stats["cit_recordings"] > 0
        assert "walks" in stats and "vt_allocs" in stats
