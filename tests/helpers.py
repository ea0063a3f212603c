"""Shared test helpers."""

import random

from repro.isa import instruction as I


def drive(predictor, uop, ctx, correct_value=None):
    """One predict+train round trip; returns the prediction used."""
    prediction = predictor.predict(uop, ctx)
    value = uop.value if correct_value is None else correct_value
    vp_correct = prediction is None or prediction.value == value
    predictor.train_execute(uop, ctx, prediction, vp_correct)
    return prediction


def random_trace(seed: int, length: int, *, branch_frac: float,
                  load_frac: float, store_frac: float,
                  addr_pool_size: int) -> list:
    """A seeded random MicroOp stream.  A small ``addr_pool_size``
    forces 8-byte-block collisions between loads and in-flight stores
    (aliasing windows); a large one keeps windows vector-eligible."""
    rng = random.Random(seed)
    pool = [0x10000 + 8 * rng.randrange(addr_pool_size)
            for _ in range(max(4, addr_pool_size))]
    ops = []
    pc = 0x1000
    for _ in range(length):
        roll = rng.random()
        if roll < branch_frac:
            taken = rng.random() < 0.5
            target = 0x1000 + 4 * rng.randrange(512)
            ops.append(I.branch(pc, taken=taken, target=target,
                                srcs=(rng.randrange(16),)))
            pc = target if taken else pc + 4
        elif roll < branch_frac + load_frac:
            ops.append(I.load(pc, dest=rng.randrange(16),
                              addr=rng.choice(pool),
                              srcs=(rng.randrange(16),)))
            pc += 4
        elif roll < branch_frac + load_frac + store_frac:
            ops.append(I.store(pc, addr=rng.choice(pool),
                               srcs=(rng.randrange(16),),
                               value=rng.randrange(1 << 32)))
            pc += 4
        else:
            ops.append(I.alu(pc, dest=rng.randrange(16),
                             srcs=(rng.randrange(16), rng.randrange(16)),
                             value=rng.randrange(1 << 16)))
            pc += 4
    return ops


TRACE_SHAPES = {
    # Dense loads+stores over 32 blocks: most windows alias and fall
    # back, some don't — the carried-state handoff is exercised hard.
    "aliasing": dict(branch_frac=0.05, load_frac=0.35, store_frac=0.25,
                     addr_pool_size=32),
    # Random-target branches every ~3 ops: mispredict redirects pile
    # up across window seams.
    "flush-heavy": dict(branch_frac=0.35, load_frac=0.10,
                        store_frac=0.05, addr_pool_size=4096),
    # Sparse addresses: almost everything stays on the vector path.
    "vector-friendly": dict(branch_frac=0.10, load_frac=0.30,
                            store_frac=0.10, addr_pool_size=1 << 20),
}
