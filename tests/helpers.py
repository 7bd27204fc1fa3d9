"""Shared constructors for exactly low-rank test tensors, and literal
references the optimized code is tested against."""

import numpy as np

from tenblock.partition import greedy_partition
from tenblock.synth import SynthSpec, _smooth_unit, coastline_mask, synth
from tenblock.tensor_core import GappyTensor4
from tenblock.tt import TTFactorization


def mode_product(x, a, mode):
    """Multiply ``x`` by the matrix ``a`` along ``mode``: the mode-``k``
    unfolding of the result equals ``a @ unfold(x, k)``."""
    return np.moveaxis(np.tensordot(a, x, axes=([1], [mode])), 0, mode)


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
    return TTFactorization(carriages).reconstruct()


def synth_block(dims=(32, 24, 8, 32), seed=7):
    """Largest fully defined block of a small synthetic field, the kind of
    subtensor the compressor factorizes."""
    g = synth(SynthSpec(dims=dims, seed=seed))
    b = max(greedy_partition(g.domain_mask, 8).blocks, key=lambda b: b.area)
    return g.values[b.x_start:b.x_end, b.y_start:b.y_end]


def interval_stack():
    """16 eight-step intervals of one 8x8x4 block of a synthetic field: the
    stack a 16-split search makes, with interval 3 all zero, interval 7
    constant and interval 11 a rank outlier (noise added), so that the
    other intervals are padded to its ranks."""
    x = synth_block(dims=(32, 24, 4, 128))[:8, :8]
    blocks = [np.array(x[..., 8 * i:8 * i + 8]) for i in range(16)]
    blocks[3] = np.zeros_like(blocks[3])
    blocks[7] = np.full_like(blocks[7], 2.5)
    blocks[11] = blocks[11] + np.random.default_rng(5).standard_normal(blocks[11].shape)
    return blocks


def synth_reference(spec):
    """``synth`` as a whole-field sum: each separable term one ``einsum``
    into a field-sized array, the noise one draw of the whole field, then
    the float32 round trip, NaN under the mask and the checking
    constructor.  ``synth`` must give these bits."""
    nx, ny, nl, nt = (int(n) for n in spec.dims)
    rng = np.random.default_rng(spec.seed)
    mask = coastline_mask(nx, ny, spec.roughness, rng)

    depth = np.exp(-spec.depth_decay * np.linspace(0.0, 1.0, nl))
    values = np.zeros((nx, ny, nl, nt))
    for q in range(spec.background_rank):
        ax = 1.0 + 0.15 * _smooth_unit(rng, nx)
        by = 1.0 + 0.15 * _smooth_unit(rng, ny)
        if q == 0:
            cl, coef = depth, 12.0
        else:
            cl, coef = 1.0 + 0.15 * _smooth_unit(rng, nl), 2.0
        dk = 1.0 + 0.1 * _smooth_unit(rng, nt)
        values += coef * np.einsum("i,j,l,k->ijlk", ax, by, cl, dk)

    sx = 0.75 + 0.25 * _smooth_unit(rng, nx)
    sy = 0.75 + 0.25 * _smooth_unit(rng, ny)
    season = np.sin(2.0 * np.pi * np.arange(nt) / nt + spec.phase)
    values += spec.amplitude * np.einsum("i,j,l,k->ijlk", sx, sy, depth, season)

    if spec.noise > 0:
        values += spec.noise * rng.standard_normal(values.shape)

    values = values.astype(np.float32).astype(np.float64)
    values[~mask] = np.nan
    return GappyTensor4(values, mask)
