"""Unit tests for the TAGE branch predictor."""

import random

import pytest

from repro.frontend.tage import Tage, TageConfig


def train(tage, pc, outcomes):
    correct = 0
    for taken in outcomes:
        if tage.predict_and_train(pc, taken):
            correct += 1
    return correct / len(outcomes)


class TestConfig:
    def test_history_lengths_are_geometric_and_increasing(self):
        lengths = TageConfig(num_tables=5, min_history=4,
                             max_history=128).history_lengths()
        assert lengths[0] == 4
        assert lengths[-1] == 128
        assert all(b > a for a, b in zip(lengths, lengths[1:]))

    def test_rejects_single_table(self):
        with pytest.raises(ValueError):
            TageConfig(num_tables=1)


class TestPrediction:
    def test_always_taken_branch(self):
        tage = Tage()
        accuracy = train(tage, 0x400000, [True] * 500)
        assert accuracy > 0.95

    def test_biased_branch(self):
        tage = Tage()
        rng = random.Random(3)
        outcomes = [rng.random() < 0.9 for _ in range(2000)]
        accuracy = train(tage, 0x400000, outcomes)
        assert accuracy > 0.80

    def test_short_pattern_learned(self):
        tage = Tage()
        pattern = [True, True, False, True]
        outcomes = pattern * 500
        # Accuracy over the last half should be near-perfect once the
        # tagged components latch the pattern.
        for taken in outcomes[:1000]:
            tage.predict_and_train(0x400000, taken)
        correct = sum(tage.predict_and_train(0x400000, taken)
                      for taken in outcomes[1000:])
        assert correct / 1000 > 0.9

    def test_random_branch_is_hard(self):
        tage = Tage()
        rng = random.Random(5)
        outcomes = [rng.random() < 0.5 for _ in range(2000)]
        accuracy = train(tage, 0x400000, outcomes)
        assert accuracy < 0.75

    def test_multiple_branches_coexist(self):
        tage = Tage()
        rng = random.Random(9)
        branches = {0x400000 + 16 * i: (i % 2 == 0) for i in range(16)}
        correct = total = 0
        for _ in range(200):
            for pc, bias in branches.items():
                taken = bias if rng.random() < 0.98 else not bias
                if tage.predict_and_train(pc, taken):
                    correct += 1
                total += 1
        assert correct / total > 0.9

    def test_history_correlated_branch(self):
        """A branch whose outcome equals the previous branch's outcome
        is predictable from global history even though its own stream
        looks random."""
        tage = Tage()
        rng = random.Random(13)
        lead_pc, follow_pc = 0x400000, 0x400040
        follow_correct = 0
        total = 1500
        for i in range(total):
            lead = rng.random() < 0.5
            tage.predict_and_train(lead_pc, lead)
            if tage.predict_and_train(follow_pc, lead):
                follow_correct += 1
        assert follow_correct / total > 0.85

    def test_accuracy_property(self):
        tage = Tage()
        assert tage.accuracy == 1.0
        train(tage, 0x400000, [True] * 10)
        assert 0.0 <= tage.accuracy <= 1.0
