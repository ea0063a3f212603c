"""The keyword-only API after its deprecation window closed.

``simulate``, ``build_trace``, ``Runner`` and ``default_runner`` take
everything beyond the trace/profile argument as keywords.  The
one-release positional shims are gone, so a positional call is now the
plain ``TypeError`` CPython raises, and the keyword forms stay
warning-free.
"""

import warnings

import pytest

from repro.pipeline.config import CoreConfig
from repro.pipeline.engine import simulate
from repro.trace import build_trace, get_profile
from repro.trace.memimage import MemImage


@pytest.fixture(scope="module")
def trace():
    return build_trace(get_profile("astar"), 3000)


class TestSimulateShim:
    def test_keyword_form_is_warning_free(self, trace):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = simulate(trace, config=CoreConfig.skylake(),
                              warmup=800)
        assert result.cycles > 0

    def test_collision_is_type_error(self, trace):
        with pytest.raises(TypeError, match="positional"):
            simulate(trace, CoreConfig.skylake(),
                     config=CoreConfig.skylake())

    def test_too_many_positionals_is_type_error(self, trace):
        with pytest.raises(TypeError, match="positional"):
            simulate(trace, *range(9))

    def test_mistyped_optional_default_fixed(self, trace):
        # The old signature declared `config: CoreConfig = None`; the
        # redesign makes None a first-class, properly typed default.
        result = simulate(trace, warmup=800)
        assert result.cycles > 0


class TestBuildTraceShim:
    def test_double_mem_is_type_error(self):
        profile = get_profile("astar")
        with pytest.raises(TypeError, match="positional"):
            build_trace(profile, 2000, MemImage(salt=1),
                        mem=MemImage(salt=1))


class TestRunnerShim:
    def test_collision_is_type_error(self):
        from repro.experiments.runner import Runner

        with pytest.raises(TypeError, match="positional"):
            Runner(4000, length=4000)

    def test_keyword_form_is_warning_free(self):
        from repro.experiments.runner import Runner

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            runner = Runner(length=4000, warmup=1000,
                            workloads=["astar"])
        assert runner.length == 4000


class TestDefaultRunnerShim:
    def test_keyword_form_is_warning_free(self):
        from repro.experiments.figures import default_runner

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            runner = default_runner(length=4000, warmup=1000)
        assert runner.length == 4000
