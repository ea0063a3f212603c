"""Unit tests for global history and incremental folded histories."""

import random

import pytest

from repro.frontend.history import FoldedHistory, GlobalHistory


class TestGlobalHistory:
    def test_push_and_recent(self):
        hist = GlobalHistory()
        hist.push(True)
        hist.push(False)
        hist.push(True)
        # Newest bit at position 0: T, NT, T -> 0b101.
        assert hist.recent(3) == 0b101

    def test_recent_masks(self):
        hist = GlobalHistory()
        for _ in range(40):
            hist.push(True)
        assert hist.recent(32) == (1 << 32) - 1
        assert hist.recent(8) == 0xFF

    def test_max_length_truncates(self):
        hist = GlobalHistory(max_length=8)
        for _ in range(20):
            hist.push(True)
        assert hist.bits == 0xFF

    def test_register_fold_rejects_too_long(self):
        hist = GlobalHistory(max_length=16)
        with pytest.raises(ValueError):
            hist.register_fold(32, 8)


class TestFoldedHistory:
    @pytest.mark.parametrize("history_length,width", [
        (8, 4), (16, 5), (32, 7), (64, 9), (12, 12), (5, 9),
    ])
    def test_incremental_matches_direct_fold(self, history_length, width):
        hist = GlobalHistory(max_length=128)
        fold = hist.register_fold(history_length, width)
        rng = random.Random(7)
        for _ in range(500):
            hist.push(rng.random() < 0.5)
            assert fold.value == hist.direct_fold(history_length, width), \
                "incremental fold diverged from reference"

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            FoldedHistory(0, 4)
        with pytest.raises(ValueError):
            FoldedHistory(8, 0)

    def test_multiple_folds_stay_consistent(self):
        hist = GlobalHistory(max_length=128)
        folds = [hist.register_fold(length, 6)
                 for length in (4, 12, 48, 96)]
        # A repeated (length, width) shares the existing register; the
        # same length at another width gets its own.
        repeat = hist.register_fold(48, 6)
        assert repeat is folds[2]
        narrower = hist.register_fold(48, 5)
        assert narrower is not folds[2]
        folds += [repeat, narrower]
        rng = random.Random(11)
        for _ in range(300):
            hist.push(rng.random() < 0.3)
        for fold in folds:
            assert fold.value == hist.direct_fold(fold.history_length,
                                                  fold.folded_width)
