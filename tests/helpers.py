"""Shared constructors for exactly low-rank test tensors."""

import numpy as np

from tenblock.partition import greedy_partition
from tenblock.synth import SynthSpec, synth
from tenblock.tensor_core import mode_product
from tenblock.tt import TTFactorization, tt_reconstruct


def random_orthonormal(rng, n, r):
    q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return q


def exact_tucker_tensor(shape, ranks, seed=0, scale=1.0):
    """Dense tensor with multilinear rank exactly `ranks` (generically)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(ranks) * scale
    for k, (n, r) in enumerate(zip(shape, ranks)):
        x = mode_product(x, random_orthonormal(rng, n, r), k)
    return x


def exact_tt_tensor(shape, ranks, seed=0, scale=1.0):
    """Dense tensor with TT-ranks at most `ranks` (generically equal)."""
    rng = np.random.default_rng(seed)
    bounds = (1,) + tuple(ranks) + (1,)
    carriages = tuple(
        rng.standard_normal((bounds[k], n, bounds[k + 1])) * scale
        for k, n in enumerate(shape)
    )
    return tt_reconstruct(TTFactorization(carriages))


def synth_block(dims=(32, 24, 8, 32), seed=7):
    """Largest fully defined block of a small synthetic field, the kind of
    subtensor the compressor factorizes."""
    g = synth(SynthSpec(dims=dims, seed=seed))
    b = max(greedy_partition(g.domain_mask, 8).blocks, key=lambda b: b.area)
    return g.values[b.x_start:b.x_end, b.y_start:b.y_end]
