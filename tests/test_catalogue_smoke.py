"""Suite-wide smoke: every one of the 60 workloads builds, validates,
and simulates to a sane IPC on both cores (short traces)."""

import pytest

from repro import CoreConfig, build_workload, simulate
from repro.trace import CATALOGUE

ALL_WORKLOADS = sorted(CATALOGUE)


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_workload_simulates_sanely(name):
    trace = build_workload(name, length=2500)
    for uop in trace[:200]:
        uop.validate()
    result = simulate(trace, config=CoreConfig.skylake(), workload=name)
    assert 0.01 < result.ipc < 4.5, f"{name}: IPC {result.ipc}"
    assert result.loads > 0
    assert result.branches > 0


def test_every_workload_stream_is_unique():
    """No two workloads generate the same instruction stream."""
    signatures = set()
    for name in ALL_WORKLOADS:
        trace = build_workload(name, length=1200)
        signature = tuple((u.pc, u.op, u.value) for u in trace[:300])
        assert signature not in signatures, name
        signatures.add(signature)
