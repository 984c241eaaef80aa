"""Deterministic noise-stream derivation.

Every random draw in the toolkit comes from a PCG64 generator keyed by
(master seed, replication block, noise kind).  Two runs that share a seed
therefore see byte-identical noise regardless of thread count, and two
policies simulated under the same plan consume the same realizations
(common random numbers), because all policies draw the same shapes in the
same order: one init draw, then one measurement and one drift draw per round.
"""

import numpy as np

SEED_MASK = (1 << 64) - 1

# noise kinds
INIT = 0
MEASURE = 1
DRIFT = 2


def normalize_seed(seed: int) -> int:
    return int(seed) & SEED_MASK


def substream(seed: int, block: int, kind: int) -> "np.random.Generator":
    """Generator for one (replication block, noise kind) pair.

    numpy.random loads on the first call, not on import: the annotation
    is a string, so the closed forms never load the random stack.
    """
    return np.random.default_rng(np.random.SeedSequence((normalize_seed(seed), block, kind)))
