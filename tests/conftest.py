"""Shared fixtures for the test suite."""

import pytest

from repro.pipeline.vp_interface import EngineContext


@pytest.fixture
def ctx():
    """A default EngineContext predictors can be driven with."""
    context = EngineContext()
    context.writer_pc = [0] * 16
    return context
