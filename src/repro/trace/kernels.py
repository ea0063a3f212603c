"""Kernel generators: the building blocks of synthetic workloads.

Each kernel models one instruction-stream idiom with a specific
value-locality and criticality signature (see DESIGN.md §2 for why
these preserve the paper-relevant behaviour).  A kernel owns a static
code region (fixed PCs — predictors are PC-indexed, so re-emitting an
iteration reuses the same PCs, exactly like a loop body), a slice of
the shared :class:`~repro.trace.memimage.MemImage`, and a few
architectural registers.

Register discipline: the engine renames, so WAW/WAR reuse is free; only
true dataflow matters.  Kernels use a private tuple of scratch
registers that may overlap between kernels — values never need to
survive an iteration except where a kernel explicitly carries state
(the pointer chase), which uses a register exclusively reserved by the
builder.

Summary of the cast (→ the workload categories that lean on them):

=====================  ========================================================
``IndexedMissKernel``  LV-predictable chain-head load feeding the address of a
                       delinquent load — the paper's Figure 1 (ISPEC/FSPEC)
``ChaseKernel``        repeated pointer-list traversal; predictable when the
                       list is stable, mcf-like when reshuffled (ISPEC)
``StoreForwardKernel`` store→load forwarding where the load's value varies but
                       its producer store is fixed — MR territory; the
                       ``carried`` mode threads a serial dependence through
                       memory (Server/ISPEC)
``SpillKernel``        register spill/fill traffic: many static store→load PC
                       pairs, MR coverage that small Store/Load caches churn
                       through (Server/ISPEC)
``DeepChainKernel``    long FP dependence chains rooted at a predictable load;
                       stalls come from non-load ops, so load-only FVP cannot
                       target them (FSPEC filler)
``StreamKernel``       prefetch-friendly sequential scan with unpredictable
                       data (coverage denominator everywhere)
``HotLoadsKernel``     constant-value L1-resident loads: pure coverage bait for
                       unfocused predictors (all categories)
``ContextValueKernel`` branch-path-selected values — context-predictable, not
                       last-value-predictable (ISPEC/FSPEC)
``BranchyKernel``      patterned / biased / random branches; `random` models
                       the bad-speculation bottleneck of SPEC17
``ICacheKernel``       large code footprint exercising the L1I (Server)
=====================  ========================================================
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.errors import ConfigError
from repro.isa import opcodes
from repro.isa.instruction import MicroOp
from repro.trace.memimage import MemImage

VALUE_MASK = (1 << 64) - 1


class Kernel:
    """Base class: fixed code region + iteration emitter."""

    #: Registers that must be exclusively reserved (state carried
    #: across iterations).  Kernels whose need depends on parameters
    #: override :meth:`persistent_regs_needed`.
    PERSISTENT_REGS = 0

    @classmethod
    def persistent_regs_needed(cls, params: dict) -> int:
        """Exclusive registers required for the given spec params."""
        del params
        return cls.PERSISTENT_REGS

    def __init__(self, name: str, pc_base: int, regs: Tuple[int, ...],
                 mem: MemImage, rng: random.Random) -> None:
        self.name = name
        self.pc_base = pc_base
        self.regs = regs
        self.mem = mem
        self.rng = rng
        self.iterations = 0
        self._loop_branch_cache = {}

    def _pc(self, slot: int) -> int:
        return self.pc_base + 4 * slot

    def iteration(self) -> List[MicroOp]:
        """Emit one loop-body's worth of micro-ops."""
        raise NotImplementedError

    # Loop-control helper: the canonical backward branch ending a body.
    # The op is fully determined by (slot, taken), and traces never
    # mutate micro-ops, so one shared instance per variant is emitted
    # instead of a fresh allocation every iteration.
    def _loop_branch(self, slot: int, taken: bool = True) -> MicroOp:
        uop = self._loop_branch_cache.get((slot, taken))
        if uop is None:
            uop = MicroOp(self._pc(slot), opcodes.BRANCH, taken=taken,
                          target=self.pc_base)
            self._loop_branch_cache[(slot, taken)] = uop
        return uop


class IndexedMissKernel(Kernel):
    """Figure-1 idiom: a chain of *L1-resident, last-value-predictable*
    pointer hops → short ALU address math → a delinquent load over a
    huge region.

    The hops model walking stable metadata (object headers, descriptor
    chains): each hop loads a fixed location whose value is the next
    hop's address.  They always hit L1 — which is exactly why the
    L1-miss criticality heuristic of Figure 12 cannot find them — yet
    their cumulative latency (``hops`` × ~6 cycles + ``alu_depth``)
    delays the delinquent load's dispatch on every iteration.
    Predicting the *last* hop (FVP's walk finds it) removes the whole
    upstream chain from the critical path.

    Parameters
    ----------
    hops: chain length of L1-resident predictable loads.
    footprint: bytes covered by the delinquent load (≫ LLC → DRAM).
    alu_depth: ALU ops between the last hop and the address.
    irregular: hash the per-iteration offset (default) so neither the
        stride prefetchers nor address predictors can cover the
        delinquent load.  With ``irregular=False`` the load strides
        linearly and is prefetch- and SAP-friendly.
    stride: stride in bytes for the regular variant.
    pad: independent FP work appended after the miss (sets cadence).
    """

    @classmethod
    def persistent_regs_needed(cls, params: dict) -> int:
        # The serial ring carries its walk register across iterations.
        return 1 if params.get("serial") else 0

    def __init__(self, name, pc_base, regs, mem, rng, *,
                 meta_base: int, hops: int = 3,
                 data_base: int, footprint: int = 64 << 20,
                 alu_depth: int = 3, irregular: bool = True,
                 stride: int = 8 * 64 + 8, pad: int = 0,
                 serial: bool = False) -> None:
        super().__init__(name, pc_base, regs, mem, rng)
        if len(regs) < 4:
            raise ConfigError("IndexedMissKernel needs 4 registers")
        if hops < 1:
            raise ConfigError("need at least one hop")
        self.meta_base = meta_base
        self.hops = hops
        self.data_base = data_base
        self.footprint = footprint
        self.alu_depth = alu_depth
        self.irregular = irregular
        self.stride = stride
        self.pad = pad
        #: ``serial=True`` closes the hop chain into a ring walked by a
        #: register carried across iterations (an unrolled traversal of
        #: a fixed circular structure): the last hop's value is hop 0's
        #: address, so the whole instruction stream becomes one serial
        #: pointer chain at baseline — which value prediction collapses
        #: entirely, and which wider machines expose (the paper's §VI-A
        #: scaling argument about true data dependencies).
        self.serial = serial
        # Stable hop chain: hop k at a fixed address holding hop k+1's
        # address; the last hop holds the data-region base (open chain)
        # or hop 0's address (ring).
        self._hop_addrs = [meta_base + 64 * k for k in range(hops)]
        for k in range(hops - 1):
            mem.write(self._hop_addrs[k], self._hop_addrs[k + 1])
        mem.write(self._hop_addrs[-1],
                  self._hop_addrs[0] if serial else data_base)

    def _offset(self, i: int) -> int:
        if not self.irregular:
            return (i * self.stride) % self.footprint
        mixed = (i * 0x9E3779B97F4A7C15) & VALUE_MASK
        mixed ^= mixed >> 29
        return (mixed % self.footprint) & ~0x3F

    def iteration(self) -> List[MicroOp]:
        r_base, r_idx, r_addr, r_val = self.regs[:4]
        i = self.iterations
        self.iterations += 1
        offset = self._offset(i)
        miss_addr = self.data_base + offset

        ops = []
        slot = 0
        # The hop chain: hop 0 has a static address (or, for the serial
        # ring, the carried register); each later hop's address is the
        # previous hop's (constant) value.
        srcs = (r_base,) if self.serial else ()
        for k in range(self.hops):
            hop_addr = self._hop_addrs[k]
            ops.append(MicroOp(self._pc(slot), opcodes.LOAD, dest=r_base,
                               srcs=srcs, addr=hop_addr,
                               value=self.mem.read(hop_addr)))
            srcs = (r_base,)
            slot += 1
        chain_reg = r_base
        for _ in range(self.alu_depth):
            ops.append(MicroOp(self._pc(slot), opcodes.ALU, dest=r_idx,
                               srcs=(chain_reg,), value=offset))
            chain_reg = r_idx
            slot += 1
        ops.append(MicroOp(self._pc(slot), opcodes.ALU, dest=r_addr,
                           srcs=(chain_reg,), value=miss_addr))
        slot += 1
        ops.append(MicroOp(self._pc(slot), opcodes.LOAD, dest=r_val,
                           srcs=(r_addr,), addr=miss_addr,
                           value=self.mem.read(miss_addr)))
        slot += 1
        ops.append(MicroOp(self._pc(slot), opcodes.ALU, dest=r_val,
                           srcs=(r_val,), value=self.mem.read(miss_addr) ^ i))
        slot += 1
        # Independent FP pad: surrounding computation that sets the miss
        # cadence without contending for the ALU ports the chain needs.
        for p in range(self.pad):
            ops.append(MicroOp(self._pc(slot), opcodes.FP, dest=r_idx,
                               srcs=(), value=(i + p) & 0xFFFF))
            slot += 1
        ops.append(self._loop_branch(slot))
        return ops


class ChaseKernel(Kernel):
    """Pointer-list traversal, re-walked every traversal.

    With a stable list (``shuffle_period=None``) the per-PC value stream
    repeats every traversal, so the pointer loads are last-value
    predictable once the first traversal has trained the predictor —
    and predicting node *k* lets node *k+1*'s miss dispatch early
    (memory-level parallelism from value prediction).  With
    ``shuffle_period=n`` the list is re-linked every *n* traversals,
    modelling mcf-like unpredictable dependent misses.
    """

    PERSISTENT_REGS = 1

    def __init__(self, name, pc_base, regs, mem, rng, *,
                 region_base: int, nodes: int = 4096,
                 spacing: int = 4096 + 64,
                 shuffle_period=None, use_alu: int = 1) -> None:
        super().__init__(name, pc_base, regs, mem, rng)
        if len(regs) < 2:
            raise ConfigError("ChaseKernel needs 2 registers")
        self.region_base = region_base
        self.nodes = nodes
        self.spacing = spacing
        self.shuffle_period = shuffle_period
        self.use_alu = use_alu
        self.traversals = 0
        self._order = list(range(nodes))
        rng.shuffle(self._order)
        self._link()
        self._pos = 0

    def _node_addr(self, node: int) -> int:
        return self.region_base + node * self.spacing

    def _link(self) -> None:
        order = self._order
        for here, there in zip(order, order[1:] + order[:1]):
            self.mem.write(self._node_addr(here), self._node_addr(there))

    def iteration(self) -> List[MicroOp]:
        r_cur = self.regs[0]
        r_tmp = self.regs[1]
        self.iterations += 1
        node = self._order[self._pos]
        addr = self._node_addr(node)
        next_addr = self.mem.read(addr)

        ops = [MicroOp(self._pc(0), opcodes.LOAD, dest=r_cur, srcs=(r_cur,),
                       addr=addr, value=next_addr)]
        slot = 1
        for _ in range(self.use_alu):
            ops.append(MicroOp(self._pc(slot), opcodes.ALU, dest=r_tmp,
                               srcs=(r_cur,), value=next_addr ^ 0x55))
            slot += 1

        self._pos += 1
        end = self._pos >= self.nodes
        ops.append(self._loop_branch(slot, taken=not end))
        if end:
            self._pos = 0
            self.traversals += 1
            if (self.shuffle_period is not None
                    and self.traversals % self.shuffle_period == 0):
                self.rng.shuffle(self._order)
                self._link()
            # Reset the chase register to the head (rematerialised).
            head = self._node_addr(self._order[0])
            ops.append(MicroOp(self._pc(slot + 1), opcodes.ALU, dest=r_cur,
                               srcs=(), value=head))
        return ops


class StoreForwardKernel(Kernel):
    """Produce → store → (slow address math) → load → delinquent miss.

    The forwarded load's value changes every iteration, so PC-indexed
    last-value/context predictors need one entry per dynamic instance —
    but its producer *store PC* is constant, which is exactly what
    memory renaming learns (§III-A / §IV-D).  The forwarded value then
    feeds the address of a delinquent load, so predicting the memory
    dependence dispatches the miss early.

    ``addr_depth`` ALU ops delay the load's own address computation;
    MR skips that wait entirely by sourcing data from the store queue.

    ``carried=True`` selects the loop-carried variant: the produced
    value is a function of the *previous* iteration's forwarded value,
    so the store→load pair is a serial dependence threaded through
    memory — the case where memory renaming collapses the critical
    path itself (Tyson & Austin's motivating pattern; queues, ring
    buffers, accumulators spilled to memory).
    """

    def __init__(self, name, pc_base, regs, mem, rng, *,
                 src_base: int, src_slots: int = 512,
                 queue_base: int, queue_slots: int = 8,
                 data_base: int, footprint: int = 32 << 20,
                 addr_depth: int = 4, produce_depth: int = 1,
                 miss: bool = True, carried: bool = False,
                 hops: int = 1, pad: int = 0) -> None:
        super().__init__(name, pc_base, regs, mem, rng)
        if len(regs) < 4:
            raise ConfigError("StoreForwardKernel needs 4 registers")
        self.src_base = src_base
        self.src_slots = src_slots
        self.queue_base = queue_base
        self.queue_slots = queue_slots
        self.data_base = data_base
        self.footprint = footprint
        self.addr_depth = addr_depth
        self.produce_depth = produce_depth
        self.miss = miss
        self.carried = carried
        self.hops = max(hops, 1)
        self.pad = pad
        self._carried_value = 1
        if carried:
            mem.write(queue_base, self._carried_value)

    def _queue_addr(self, i: int) -> int:
        return self.queue_base + 8 * (i % self.queue_slots)

    def iteration(self) -> List[MicroOp]:
        if self.carried:
            return self._carried_iteration()
        return self._pipeline_iteration()

    def _pipeline_iteration(self) -> List[MicroOp]:
        r_s, r_d, r_a, r_v = self.regs[:4]
        i = self.iterations
        self.iterations += 1

        src_addr = self.src_base + 64 * (i % self.src_slots)
        produced = (self.mem.read(src_addr) + i) & VALUE_MASK
        queue_addr = self._queue_addr(i)

        ops = [MicroOp(self._pc(0), opcodes.LOAD, dest=r_s, srcs=(),
                       addr=src_addr, value=self.mem.read(src_addr))]
        slot = 1
        for _ in range(self.produce_depth):
            ops.append(MicroOp(self._pc(slot), opcodes.ALU, dest=r_d,
                               srcs=(r_s,), value=produced))
            slot += 1
        ops.append(MicroOp(self._pc(slot), opcodes.STORE, srcs=(r_d,),
                           addr=queue_addr, value=produced))
        self.mem.write(queue_addr, produced)
        slot += 1
        slot = self._consume(ops, slot, i, queue_addr, produced)
        ops.append(self._loop_branch(slot))
        return ops

    def _carried_iteration(self) -> List[MicroOp]:
        r_s, r_d, r_a, r_v = self.regs[:4]
        i = self.iterations
        self.iterations += 1

        ops = []
        slot = 0
        # ``hops`` sequential rounds on fixed memory slots (one slot per
        # hop, a memory-resident accumulator each): every round's load
        # forwards from the previous iteration's store at the same slot,
        # and its produced value feeds the next round — a serial
        # dependence threaded through memory, `hops` links long per
        # iteration.
        for hop in range(self.hops):
            read_addr = self.queue_base + 8 * hop
            prev = self.mem.read(read_addr) if self.mem.written(read_addr) \
                else self._carried_value
            produced = (prev * 6364136223846793005 + i + hop) & VALUE_MASK
            ops.append(MicroOp(self._pc(slot), opcodes.ALU, dest=r_a,
                               srcs=(r_d,) if hop else (),
                               value=read_addr))
            slot += 1
            for _ in range(self.addr_depth if hop == 0 else 1):
                ops.append(MicroOp(self._pc(slot), opcodes.ALU, dest=r_a,
                                   srcs=(r_a,), value=read_addr))
                slot += 1
            ops.append(MicroOp(self._pc(slot), opcodes.LOAD, dest=r_v,
                               srcs=(r_a,), addr=read_addr, value=prev))
            slot += 1
            for _ in range(self.produce_depth):
                ops.append(MicroOp(self._pc(slot), opcodes.ALU, dest=r_d,
                                   srcs=(r_v,), value=produced))
                slot += 1
            ops.append(MicroOp(self._pc(slot), opcodes.STORE, srcs=(r_d,),
                               addr=read_addr, value=produced))
            self.mem.write(read_addr, produced)
            slot += 1
        for p in range(self.pad):
            ops.append(MicroOp(self._pc(slot), opcodes.FP, dest=r_s,
                               srcs=(), value=(i + p) & 0xFFFF))
            slot += 1
        ops.append(self._loop_branch(slot))
        return ops

    def _consume(self, ops: List[MicroOp], slot: int, i: int,
                 queue_addr: int, produced: int) -> int:
        r_s, r_d, r_a, r_v = self.regs[:4]
        ops.append(MicroOp(self._pc(slot), opcodes.ALU, dest=r_a, srcs=(),
                           value=queue_addr))
        slot += 1
        for _ in range(self.addr_depth):
            ops.append(MicroOp(self._pc(slot), opcodes.ALU, dest=r_a,
                               srcs=(r_a,), value=queue_addr))
            slot += 1
        ops.append(MicroOp(self._pc(slot), opcodes.LOAD, dest=r_v,
                           srcs=(r_a,), addr=queue_addr, value=produced))
        slot += 1
        if self.miss:
            miss_addr = self.data_base + (produced % self.footprint & ~0x7)
            ops.append(MicroOp(self._pc(slot), opcodes.ALU, dest=r_a,
                               srcs=(r_v,), value=miss_addr))
            slot += 1
            ops.append(MicroOp(self._pc(slot), opcodes.LOAD, dest=r_v,
                               srcs=(r_a,), addr=miss_addr,
                               value=self.mem.read(miss_addr)))
            slot += 1
        for p in range(self.pad):
            ops.append(MicroOp(self._pc(slot), opcodes.FP, dest=r_d,
                               srcs=(), value=(i + p) & 0xFFFF))
            slot += 1
        return slot


class SpillKernel(Kernel):
    """Register spill/fill traffic: many static store→load pairs.

    Compiled code under register pressure spills values and reloads
    them shortly after — hundreds of static store→load PC pairs whose
    data varies per instance (hostile to value prediction, natural for
    memory renaming).  Every ``critical_every``-th pair's fill feeds
    the address of a medium-latency load, so renaming the pair buys
    real cycles; the rest are filler pairs that a *large* MR covers for
    coverage and modest gain, but that thrash small Store/Load caches —
    the MR-8KB vs MR-1KB contrast of Figures 10-11.

    Parameters
    ----------
    pairs: number of distinct static spill slots (and PC pairs).
    critical_every: 1 in N pairs feeds a dependent medium-latency load.
    region_kb: size of the dependent-load region in KB (sets its hit
        level: beyond L1 but within L2/LLC).
    depth: ALU chain length between the fill and its consumer.
    """

    def __init__(self, name, pc_base, regs, mem, rng, *,
                 spill_base: int, dep_base: int, pairs: int = 64,
                 critical_every: int = 4, region_kb: int = 512,
                 depth: int = 2, pad: int = 2) -> None:
        super().__init__(name, pc_base, regs, mem, rng)
        if len(regs) < 4:
            raise ConfigError("SpillKernel needs 4 registers")
        if pairs <= 0 or critical_every <= 0:
            raise ConfigError("pairs and critical_every must be positive")
        self.spill_base = spill_base
        self.dep_base = dep_base
        self.pairs = pairs
        self.critical_every = critical_every
        self.region_lines = (region_kb * 1024) // 64
        self.depth = depth
        self.pad = pad

    def iteration(self) -> List[MicroOp]:
        r_d, r_v, r_a, r_x = self.regs[:4]
        i = self.iterations
        self.iterations += 1
        k = i % self.pairs
        base = self.pc_base + k * 128  # private PC block per pair
        slot_addr = self.spill_base + 8 * k
        value = ((i * 0x9E3779B97F4A7C15) ^ k) & VALUE_MASK

        ops = [MicroOp(base, opcodes.ALU, dest=r_d, srcs=(), value=value)]
        pc = base + 4
        ops.append(MicroOp(pc, opcodes.STORE, srcs=(r_d,), addr=slot_addr,
                           value=value))
        self.mem.write(slot_addr, value)
        pc += 4
        for p in range(self.pad):
            ops.append(MicroOp(pc, opcodes.FP, dest=r_x, srcs=(),
                               value=p))
            pc += 4
        ops.append(MicroOp(pc, opcodes.LOAD, dest=r_v, srcs=(),
                           addr=slot_addr, value=value))
        pc += 4
        if k % self.critical_every == 0:
            # The fill's value selects a line in a beyond-L1 region.
            mixed = (value ^ (value >> 17)) % self.region_lines
            dep_addr = self.dep_base + 64 * mixed
            ops.append(MicroOp(pc, opcodes.ALU, dest=r_a, srcs=(r_v,),
                               value=dep_addr))
            pc += 4
            ops.append(MicroOp(pc, opcodes.LOAD, dest=r_x, srcs=(r_a,),
                               addr=dep_addr, value=self.mem.read(dep_addr)))
            pc += 4
            ops.append(MicroOp(pc, opcodes.ALU, dest=r_x, srcs=(r_x,),
                               value=i))
            pc += 4
        else:
            chain = r_v
            for _ in range(self.depth):
                ops.append(MicroOp(pc, opcodes.ALU, dest=r_x, srcs=(chain,),
                                   value=i))
                chain = r_x
                pc += 4
        ops.append(MicroOp(pc, opcodes.BRANCH, taken=True,
                           target=self.pc_base))
        return ops


class DeepChainKernel(Kernel):
    """Long FP dependence chain rooted at a predictable load.

    The retirement stalls here come from FP ops, which load-only FVP
    deliberately ignores (§IV-B); the kernel therefore contributes
    baseline cycles and coverage denominator without FVP upside —
    FSPEC06 texture, and the reason all-instruction prediction barely
    helps (§VI-A2): the chain is still serial after predicting any
    single link.
    """

    def __init__(self, name, pc_base, regs, mem, rng, *,
                 coef_base: int, coef_slots: int = 512,
                 chain_len: int = 12) -> None:
        super().__init__(name, pc_base, regs, mem, rng)
        if len(regs) < 2:
            raise ConfigError("DeepChainKernel needs 2 registers")
        self.coef_base = coef_base
        self.coef_slots = coef_slots
        self.chain_len = chain_len
        self._coef_value = 0x3FF0000000000000  # 1.0, say
        for slot in range(coef_slots):
            mem.write(coef_base + 64 * slot, self._coef_value)

    def iteration(self) -> List[MicroOp]:
        r_c, r_f = self.regs[:2]
        i = self.iterations
        self.iterations += 1
        coef_addr = self.coef_base + 64 * (i % self.coef_slots)
        ops = [MicroOp(self._pc(0), opcodes.LOAD, dest=r_c, srcs=(),
                       addr=coef_addr, value=self._coef_value)]
        slot = 1
        acc = (i * 0x10000) & VALUE_MASK
        for _ in range(self.chain_len):
            ops.append(MicroOp(self._pc(slot), opcodes.FP, dest=r_f,
                               srcs=(r_f, r_c), value=acc))
            slot += 1
        ops.append(self._loop_branch(slot))
        return ops


class StreamKernel(Kernel):
    """Sequential scan with unpredictable data.

    The stride prefetcher covers the misses and the values are
    address-hash noise, so no predictor gains anything here; the kernel
    exists to populate the coverage denominator and the memory system.
    """

    def __init__(self, name, pc_base, regs, mem, rng, *,
                 array_base: int, footprint: int = 8 << 20,
                 stride: int = 8, unroll: int = 4) -> None:
        super().__init__(name, pc_base, regs, mem, rng)
        if len(regs) < 2:
            raise ConfigError("StreamKernel needs 2 registers")
        self.array_base = array_base
        self.footprint = footprint
        self.stride = stride
        self.unroll = unroll

    def iteration(self) -> List[MicroOp]:
        r_v, r_acc = self.regs[:2]
        i = self.iterations
        self.iterations += 1
        ops = []
        slot = 0
        for u in range(self.unroll):
            offset = ((i * self.unroll + u) * self.stride) % self.footprint
            addr = self.array_base + offset
            value = self.mem.read(addr)
            ops.append(MicroOp(self._pc(slot), opcodes.LOAD, dest=r_v,
                               srcs=(), addr=addr, value=value))
            slot += 1
            ops.append(MicroOp(self._pc(slot), opcodes.ALU, dest=r_acc,
                               srcs=(r_acc, r_v), value=value ^ i))
            slot += 1
        ops.append(self._loop_branch(slot))
        return ops


class HotLoadsKernel(Kernel):
    """L1-resident constant loads: trivially predictable, never critical.

    Unfocused predictors spend table capacity and register-file
    bandwidth predicting these for coverage that buys nothing — the
    population that motivates *focused* value prediction.
    """

    def __init__(self, name, pc_base, regs, mem, rng, *,
                 globals_base: int, count: int = 4) -> None:
        super().__init__(name, pc_base, regs, mem, rng)
        if len(regs) < 2:
            raise ConfigError("HotLoadsKernel needs 2 registers")
        self.globals_base = globals_base
        self.count = count
        for g in range(count):
            mem.write(globals_base + 8 * g, 0xC0FFEE00 + g)

    def iteration(self) -> List[MicroOp]:
        r_v, r_acc = self.regs[:2]
        self.iterations += 1
        ops = []
        slot = 0
        for g in range(self.count):
            addr = self.globals_base + 8 * g
            ops.append(MicroOp(self._pc(slot), opcodes.LOAD, dest=r_v,
                               srcs=(), addr=addr, value=self.mem.read(addr)))
            slot += 1
        ops.append(MicroOp(self._pc(slot), opcodes.ALU, dest=r_acc,
                           srcs=(r_v,), value=self.iterations))
        slot += 1
        ops.append(self._loop_branch(slot))
        return ops


class ContextValueKernel(Kernel):
    """Branch-path-selected values: context-predictable, LV-hostile.

    A patterned branch (period ``period``, learnable by TAGE) selects
    which of two table slots the load reads.  Per PC the value
    alternates — last-value prediction fails — but (PC, branch history)
    determines the value exactly, which is what the Value Table's
    context mode and VTAGE-class predictors exploit.  With
    ``critical=True`` the selected value feeds a delinquent load's
    address.
    """

    def __init__(self, name, pc_base, regs, mem, rng, *,
                 table_base: int, data_base: int = 0,
                 footprint: int = 16 << 20, period: int = 5,
                 critical: bool = False, lead_branches: int = 6) -> None:
        super().__init__(name, pc_base, regs, mem, rng)
        if len(regs) < 3:
            raise ConfigError("ContextValueKernel needs 3 registers")
        self.table_base = table_base
        self.data_base = data_base
        self.footprint = footprint
        self.period = period
        self.critical = critical
        self.lead_branches = lead_branches
        self._values = (0x1000, 0x2000)
        mem.write(table_base, self._values[0])
        mem.write(table_base + 8, self._values[1])

    def iteration(self) -> List[MicroOp]:
        r_v, r_a, r_t = self.regs[:3]
        i = self.iterations
        self.iterations += 1
        taken = (i % self.period) != 0
        select = 1 if taken else 0
        slot_addr = self.table_base + 8 * select
        value = self._values[select]

        # Lead branches pin the recent branch history to this kernel's
        # own (deterministic, TAGE-learnable) outcomes, so the context
        # the select-dependent load sees actually repeats even when
        # other kernels interleave around this iteration.
        ops = []
        slot = 0
        for b in range(self.lead_branches):
            lead_taken = bool((i + b) & 1)
            ops.append(MicroOp(self._pc(slot), opcodes.BRANCH,
                               taken=lead_taken, target=self._pc(slot + 1)))
            slot += 1
        ops.append(MicroOp(self._pc(slot), opcodes.BRANCH, taken=taken,
                           target=self._pc(slot + 2)))
        slot += 1
        ops.append(MicroOp(self._pc(slot), opcodes.ALU, dest=r_t, srcs=(),
                           value=slot_addr))
        slot += 1
        ops.append(MicroOp(self._pc(slot), opcodes.LOAD, dest=r_v,
                           srcs=(r_t,), addr=slot_addr, value=value))
        slot += 1
        if self.critical:
            miss_addr = (self.data_base
                         + ((value * 2654435761 + i * 64) % self.footprint
                            & ~0x7))
            ops.append(MicroOp(self._pc(slot), opcodes.ALU, dest=r_a,
                               srcs=(r_v,), value=miss_addr))
            slot += 1
            ops.append(MicroOp(self._pc(slot), opcodes.LOAD, dest=r_v,
                               srcs=(r_a,), addr=miss_addr,
                               value=self.mem.read(miss_addr)))
            slot += 1
        else:
            ops.append(MicroOp(self._pc(slot), opcodes.ALU, dest=r_a,
                               srcs=(r_v,), value=value + i))
            slot += 1
        ops.append(self._loop_branch(slot))
        return ops


class BranchyKernel(Kernel):
    """Control-dominated code with tunable predictability.

    ``mode``:
      * ``"patterned"`` — repeating outcome pattern; TAGE learns it.
      * ``"biased"`` — taken with probability ``bias``.
      * ``"random"`` — 50/50 data-dependent outcomes fed by loads of
        hash-noise values: the bad-speculation bottleneck that value
        prediction cannot touch (§IV-A2), dominant in SPEC17.
    """

    def __init__(self, name, pc_base, regs, mem, rng, *,
                 data_base: int, mode: str = "random",
                 branches: int = 2, bias: float = 0.85,
                 pattern: int = 0b1101, pattern_len: int = 4) -> None:
        super().__init__(name, pc_base, regs, mem, rng)
        if len(regs) < 2:
            raise ConfigError("BranchyKernel needs 2 registers")
        if mode not in ("patterned", "biased", "random"):
            raise ConfigError(f"unknown mode {mode!r}")
        self.data_base = data_base
        self.mode = mode
        self.branches = branches
        self.bias = bias
        self.pattern = pattern
        self.pattern_len = pattern_len

    def _outcome(self, i: int, b: int) -> bool:
        if self.mode == "patterned":
            return bool((self.pattern >> ((i + b) % self.pattern_len)) & 1)
        if self.mode == "biased":
            return self.rng.random() < self.bias
        return self.rng.random() < 0.5

    def iteration(self) -> List[MicroOp]:
        r_v, r_t = self.regs[:2]
        i = self.iterations
        self.iterations += 1
        ops = []
        slot = 0
        for b in range(self.branches):
            # Irregular slot choice within an L1-resident region: the
            # values are noise and the addresses defeat SAP/CAP, so
            # these loads are pure coverage denominator.
            mixed = ((i * self.branches + b) * 0x85EBCA6B) & 0xFFFFFFFF
            addr = self.data_base + 8 * (mixed % 512)
            value = self.mem.read(addr)
            ops.append(MicroOp(self._pc(slot), opcodes.LOAD, dest=r_v,
                               srcs=(), addr=addr, value=value))
            slot += 1
            ops.append(MicroOp(self._pc(slot), opcodes.ALU, dest=r_t,
                               srcs=(r_v,), value=value & 1))
            slot += 1
            ops.append(MicroOp(self._pc(slot), opcodes.BRANCH, srcs=(r_t,),
                               taken=self._outcome(i, b),
                               target=self._pc(slot + 2)))
            slot += 1
        ops.append(self._loop_branch(slot))
        return ops


class ICacheKernel(Kernel):
    """Large code footprint: bodies replicated across ``blocks`` distinct
    I-cache lines reached through jumps — the front-end bottleneck the
    paper observes limiting server workloads on Skylake-2X."""

    def __init__(self, name, pc_base, regs, mem, rng, *,
                 data_base: int, blocks: int = 2048,
                 block_stride: int = 256) -> None:
        super().__init__(name, pc_base, regs, mem, rng)
        if len(regs) < 2:
            raise ConfigError("ICacheKernel needs 2 registers")
        self.data_base = data_base
        self.blocks = blocks
        self.block_stride = block_stride

    def iteration(self) -> List[MicroOp]:
        r_v, r_acc = self.regs[:2]
        i = self.iterations
        self.iterations += 1
        block = i % self.blocks
        base = self.pc_base + block * self.block_stride
        next_base = self.pc_base + ((i + 1) % self.blocks) * self.block_stride
        mixed = (i * 0xCC9E2D51) & 0xFFFFFFFF
        addr = self.data_base + 8 * (mixed % 1024)
        value = self.mem.read(addr)
        return [
            MicroOp(base, opcodes.LOAD, dest=r_v, srcs=(), addr=addr,
                    value=value),
            MicroOp(base + 4, opcodes.ALU, dest=r_acc, srcs=(r_acc, r_v),
                    value=value ^ i),
            MicroOp(base + 8, opcodes.ALU, dest=r_acc, srcs=(r_acc,),
                    value=i),
            MicroOp(base + 12, opcodes.JUMP, taken=True, target=next_base),
        ]
