"""Synthetic gappy sea-temperature-like fields: a smooth coastline mask
from thresholded filtered noise, plus a low-rank smooth background, a
seasonal sinusoid attenuated with depth, and white noise.

Values are exactly representable in 32-bit floats so that raw storage
paths reproduce them bit-for-bit.

``synth`` streams the field in slabs of consecutive x rows, each about
``SLAB_ELEMENTS`` values so that its buffers stay in cache: every term
and the noise are summed in one reusable slab buffer, in the same order
and with the same random stream as a whole-field sum, so the bits do not
depend on the slab size.  The only field-sized array is the result.  Each
slab is checked finite where its positions are defined before NaN is
written under the others, so every defined cell is finite and every other
cell NaN; ``synth`` is thus the second caller of
``GappyTensor4._unchecked`` and skips the constructor's three passes over
the field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor_core import GappyTensor4, _integer

OCEAN_QUANTILE = 0.35  # land fraction of the threshold field
SLAB_ELEMENTS = 1 << 17  # values per slab buffer (at least one x row)


@dataclass(frozen=True)
class SynthSpec:
    """Deterministic recipe for one synthetic dataset.

    dims is (x, y, depth, time); the seasonal period is the full time
    extent; depth_decay is the top-to-bottom attenuation exponent;
    background_rank counts separable smooth background terms.
    """

    dims: tuple[int, int, int, int] = (64, 48, 8, 64)
    seed: int = 0
    roughness: float = 0.15
    amplitude: float = 8.0
    phase: float = 0.3
    depth_decay: float = 1.5
    noise: float = 0.02
    background_rank: int = 2

    def __post_init__(self):
        if len(self.dims) != 4 or any(_integer("dims entry", n) < 1 for n in self.dims):
            raise ValueError(f"degenerate dims {self.dims}")
        for name in ("seed", "background_rank"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        for name in ("amplitude", "phase", "depth_decay", "noise"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.background_rank < 1:
            raise ValueError("background_rank must be >= 1")
        if self.noise < 0:
            raise ValueError("noise must be nonnegative")
        if not 0 < self.roughness <= 1:
            raise ValueError("roughness must be in (0, 1]")


def _box1d(a: np.ndarray, w: int, axis: int) -> np.ndarray:
    if w <= 1 or a.shape[axis] == 1:
        return a
    a = np.moveaxis(a, axis, 0)
    pad = w // 2
    ap = np.concatenate([a[:1].repeat(pad, axis=0), a, a[-1:].repeat(pad, axis=0)])
    out = np.lib.stride_tricks.sliding_window_view(ap, w, axis=0).mean(axis=-1)
    return np.moveaxis(out, 0, axis)


def _smooth2d(field: np.ndarray, w: int, passes: int = 2) -> np.ndarray:
    for _ in range(passes):
        field = _box1d(_box1d(field, w, 0), w, 1)
    return field


def coastline_mask(nx: int, ny: int, roughness: float, rng: np.random.Generator) -> np.ndarray:
    """Smooth blobby ocean/land split with a fixed ocean fraction."""
    field = rng.standard_normal((nx, ny))
    w = 2 * (max(1, int(round(roughness * min(nx, ny)))) // 2) + 1
    field = _smooth2d(field, w)
    return field > np.quantile(field, OCEAN_QUANTILE)


def _smooth_unit(rng: np.random.Generator, n: int, w: int = 7) -> np.ndarray:
    # smooth profile scaled to max |.| = 1
    v = _box1d(rng.standard_normal(n), min(w, 2 * (n // 2) + 1), 0)
    peak = np.max(np.abs(v))
    return v / peak if peak > 0 else np.zeros(n)


def _outer3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    # (a*b)*c of a term's ((a*b)*c)*d, multiplied in the order
    # einsum("i,j,l,k->ijlk") uses, so the bits match it
    return (a[:, None] * b[None, :])[:, :, None] * c


def _check_defined_finite(slab: np.ndarray, mask: np.ndarray) -> None:
    # the constructor's checks on a slab, before NaN is written under its
    # undefined rows: a value that is not finite only there is overwritten
    if np.isfinite(slab).all():
        return
    defined = slab[mask]
    if np.isnan(defined).any():
        raise ValueError("NaN pattern inconsistent with domain mask")
    if not np.isfinite(defined).all():
        raise ValueError("defined values must be finite")


def synth(spec: SynthSpec) -> GappyTensor4:
    """Generate the dataset for a spec; identical specs give identical
    bits."""
    nx, ny, nl, nt = (int(n) for n in spec.dims)
    rng = np.random.default_rng(spec.seed)
    mask = coastline_mask(nx, ny, spec.roughness, rng)

    depth = np.exp(-spec.depth_decay * np.linspace(0.0, 1.0, nl))
    # (coef, (x, y, depth) factor, time profile) of each separable term, in
    # the order they are summed
    terms = []

    # smooth separable background; the first term carries the mean level
    # and the depth profile, the rest are gentle anomalies
    for q in range(spec.background_rank):
        ax = 1.0 + 0.15 * _smooth_unit(rng, nx)
        by = 1.0 + 0.15 * _smooth_unit(rng, ny)
        if q == 0:
            cl, coef = depth, 12.0
        else:
            cl, coef = 1.0 + 0.15 * _smooth_unit(rng, nl), 2.0
        dk = 1.0 + 0.1 * _smooth_unit(rng, nt)
        terms.append((coef, _outer3(ax, by, cl), dk))

    # one seasonal cycle over the full time extent, fading with depth
    sx = 0.75 + 0.25 * _smooth_unit(rng, nx)
    sy = 0.75 + 0.25 * _smooth_unit(rng, ny)
    season = np.sin(2.0 * np.pi * np.arange(nt) / nt + spec.phase)
    terms.append((spec.amplitude, _outer3(sx, sy, depth), season))

    values = np.empty((nx, ny, nl, nt))
    rows = min(nx, max(1, SLAB_ELEMENTS // (ny * nl * nt)))
    acc = np.empty((rows, ny, nl, nt))
    tmp = np.empty_like(acc)
    f32 = np.empty(acc.shape, dtype=np.float32)
    for x0 in range(0, nx, rows):
        x1 = min(x0 + rows, nx)
        buf, t, f = acc[:x1 - x0], tmp[:x1 - x0], f32[:x1 - x0]
        buf.fill(0.0)
        for coef, abc, d in terms:
            np.multiply(abc[x0:x1, ..., None], d, out=t)
            t *= coef
            buf += t
        if spec.noise > 0:
            # slabs along x are consecutive in C order: the same stream as
            # one draw of the whole field
            rng.standard_normal(out=t)
            t *= spec.noise
            buf += t
        f[...] = buf
        _check_defined_finite(f, mask[x0:x1])
        out = values[x0:x1]
        out[...] = f
        out[~mask[x0:x1]] = np.nan
    return GappyTensor4._unchecked(values, mask)

