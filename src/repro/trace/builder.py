"""Workload assembly: kernel specs → an executable micro-op trace.

A :class:`WorkloadProfile` is a named, seeded, weighted mix of kernel
specifications.  :func:`build_trace` instantiates the kernels with
disjoint code and data regions, then interleaves their iterations by
weighted choice (seeded — traces are fully deterministic) until the
requested length is reached.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Type)

from repro.errors import ConfigError
from repro.isa.instruction import MicroOp
from repro.trace.kernels import Kernel
from repro.trace.memimage import MemImage
from repro.trace.source import DEFAULT_CHUNK_OPS, TraceSource

#: Virtual-address layout: each kernel gets a private 256 MB data arena
#: and a 1 MB code region.
_DATA_ARENA = 0x1000_0000
_DATA_STRIDE = 0x1000_0000
_CODE_BASE = 0x40_0000
_CODE_STRIDE = 0x10_0000

#: Registers reserved for kernels that carry state across iterations.
_PERSISTENT_POOL = (0, 1, 2, 3)
#: Scratch registers handed out round-robin (renaming makes reuse free).
_SCRATCH_POOL = (4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)


class KernelSpec:
    """One kernel in a workload mix.

    ``params`` may reference the named arena slots ``"data_base"``,
    ``"meta_base"``, etc. — any parameter ending in ``_base`` whose
    value is an integer *offset* is relocated into the kernel's private
    arena by the builder, so specs never hard-code addresses.
    """

    __slots__ = ("kernel_cls", "weight", "params")

    def __init__(self, kernel_cls: Type[Kernel], weight: float,
                 **params) -> None:
        if weight <= 0:
            raise ConfigError("kernel weight must be positive")
        self.kernel_cls = kernel_cls
        self.weight = weight
        self.params = params

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<KernelSpec {self.kernel_cls.__name__} w={self.weight}>")


class WorkloadProfile:
    """A named, reproducible workload definition."""

    __slots__ = ("name", "category", "seed", "specs", "description")

    def __init__(self, name: str, category: str, seed: int,
                 specs: Sequence[KernelSpec],
                 description: str = "") -> None:
        if not specs:
            raise ConfigError("a workload needs at least one kernel")
        self.name = name
        self.category = category
        self.seed = seed
        self.specs = tuple(specs)
        self.description = description

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<WorkloadProfile {self.name} ({self.category})>"


def _instantiate(profile: WorkloadProfile,
                 mem: MemImage, rng: random.Random) -> List[Kernel]:
    kernels: List[Kernel] = []
    persistent_iter = iter(_PERSISTENT_POOL)
    scratch_cursor = 0
    for index, spec in enumerate(profile.specs):
        params = dict(spec.params)
        arena = _DATA_ARENA + index * _DATA_STRIDE
        for key, value in list(params.items()):
            if key.endswith("_base"):
                params[key] = arena + int(value)
        needs_persistent = spec.kernel_cls.persistent_regs_needed(params)
        regs: Tuple[int, ...]
        lead_regs = []
        for _ in range(needs_persistent):
            try:
                lead_regs.append(next(persistent_iter))
            except StopIteration:
                raise ValueError(
                    "too many state-carrying kernels in "
                    f"{profile.name!r}: persistent register pool exhausted"
                ) from None
        lead = tuple(lead_regs)
        scratch = tuple(
            _SCRATCH_POOL[(scratch_cursor + k) % len(_SCRATCH_POOL)]
            for k in range(4))
        scratch_cursor += 4
        regs = lead + scratch
        kernel = spec.kernel_cls(
            name=f"{profile.name}/{spec.kernel_cls.__name__}{index}",
            pc_base=_CODE_BASE + index * _CODE_STRIDE,
            regs=regs, mem=mem, rng=rng, **params)
        kernels.append(kernel)
    return kernels


def _iteration_stream(profile: WorkloadProfile, length: int,
                      mem: Optional[MemImage] = None
                      ) -> Iterator[List[MicroOp]]:
    """Yield whole kernel iterations whose concatenation is *exactly*
    the :func:`build_trace` op stream for ``(profile, length)``.

    This is the single generation core shared by the materializing
    :func:`build_trace` and the streaming :class:`ProfileSource` —
    both consume the identical RNG stream, kernel instantiation and
    stop condition, so the two paths cannot drift.
    """
    rng = random.Random(profile.seed)
    image = mem if mem is not None else MemImage(salt=profile.seed)
    kernels = _instantiate(profile, image, rng)
    weights = [spec.weight for spec in profile.specs]

    # Weighted kernel selection, inlined from random.choices(k=1): the
    # cumulative weights are computed once instead of per pick, and the
    # single random() draw per pick keeps the RNG stream — and therefore
    # every existing trace — byte-identical.
    cum_weights = list(itertools.accumulate(weights))
    total = cum_weights[-1] + 0.0
    hi = len(kernels) - 1
    draw = rng.random
    pick = bisect.bisect

    size = 0
    while size < length:
        ops = kernels[pick(cum_weights, draw() * total, 0, hi)].iteration()
        size += len(ops)
        yield ops


def build_trace(profile: WorkloadProfile, length: int, *,
                mem: Optional[MemImage] = None) -> List[MicroOp]:
    """Assemble ``length`` (±one iteration) micro-ops for a profile.

    Kernels from ``profile.specs`` are instantiated against a backing
    functional memory image and interleaved by weighted random
    selection, one whole kernel iteration at a time, until at least
    ``length`` micro-ops exist.

    Deterministic: the same ``(profile, length)`` always yields the
    same trace, bit for bit, across processes and machines — the RNG
    is seeded from ``profile.seed`` and the memory image is salted
    with it.  The campaign cache and every figure driver rely on this.
    :func:`stream_trace` delivers the identical op stream without
    materializing it (docs/TRACES.md).

    Parameters
    ----------
    profile:
        A :class:`WorkloadProfile` (see ``repro.trace.workloads`` for
        the 60-entry catalogue, or compose your own).
    length:
        Target micro-op count; the trace may overshoot by up to one
        kernel iteration.  Must be positive.
    mem:
        Keyword-only: optional pre-built :class:`MemImage` to share
        between traces; by default a fresh image salted with
        ``profile.seed``.
    """
    if length <= 0:
        raise ValueError("trace length must be positive")
    trace: List[MicroOp] = []
    extend = trace.extend
    for ops in _iteration_stream(profile, length, mem):
        extend(ops)
    return trace


class ProfileSource(TraceSource):
    """Streaming :class:`~repro.trace.source.TraceSource` that
    regenerates a workload profile's op stream on every pass.

    The op stream is bit-identical to ``build_trace(profile, length)``
    (both run :func:`_iteration_stream`), but only a bounded window is
    resident at any point.  Replay is deterministic: each pass reseeds
    the RNG and rebuilds a fresh salted :class:`MemImage`, so kernels
    observe the same functional memory every time.

    ``len(source)`` needs the exact overshoot, which is only known by
    generating — the first call runs one extra counting pass and
    caches the answer.  For million-op runs prefer a trace file
    (``repro trace build``), whose header records the count.
    """

    def __init__(self, profile: WorkloadProfile, length: int,
                 chunk_ops: int = DEFAULT_CHUNK_OPS) -> None:
        super().__init__(chunk_ops)
        if length <= 0:
            raise ConfigError("trace length must be positive")
        self.profile = profile
        self.target_length = length
        self._length: Optional[int] = None

    def __len__(self) -> int:
        if self._length is None:
            count = 0
            for ops in _iteration_stream(self.profile, self.target_length):
                count += len(ops)
            self._length = count
        return self._length

    def _windows(self) -> Iterator[Sequence[MicroOp]]:
        chunk = self.chunk_ops
        buffer: List[MicroOp] = []
        extend = buffer.extend
        for ops in _iteration_stream(self.profile, self.target_length):
            extend(ops)
            while len(buffer) >= chunk:
                yield buffer[:chunk]
                del buffer[:chunk]
        if buffer:
            yield buffer


def stream_trace(profile: WorkloadProfile, length: int,
                 chunk_ops: int = DEFAULT_CHUNK_OPS) -> ProfileSource:
    """Streaming counterpart of :func:`build_trace`: the identical
    deterministic op stream as a bounded-window
    :class:`ProfileSource` (docs/TRACES.md)."""
    return ProfileSource(profile, length, chunk_ops)


def trace_stats(trace: Iterable[MicroOp]) -> Dict[str, float]:
    """Instruction-mix summary of a trace (used by tests and reports).

    Accepts any op iterable — a materialized list or a streaming
    :class:`~repro.trace.source.TraceSource` — and runs in one pass
    with bounded memory (the count is accumulated, never ``len()``-ed).
    """
    from repro.isa import opcodes

    counts = {"loads": 0, "stores": 0, "branches": 0, "alu": 0, "fp": 0,
              "other": 0}
    pcs = set()
    total = 0
    for uop in trace:
        total += 1
        pcs.add(uop.pc)
        if uop.op == opcodes.LOAD:
            counts["loads"] += 1
        elif uop.op == opcodes.STORE:
            counts["stores"] += 1
        elif uop.op in opcodes.CONTROL:
            counts["branches"] += 1
        elif uop.op == opcodes.ALU:
            counts["alu"] += 1
        elif uop.op == opcodes.FP:
            counts["fp"] += 1
        else:
            counts["other"] += 1
    stats = {k: v / total for k, v in counts.items()} if total else \
        dict(counts)
    stats["total"] = total
    stats["static_pcs"] = len(pcs)
    return stats
