import importlib
import math
import random
import tracemalloc

import numpy as np
import pytest

from helpers import synth_reference
from tenblock.synth import SynthSpec, coastline_mask, synth
from tenblock.partition import greedy_partition
from tenblock.tensor_core import unfold

# the module, not the function the package exports under its name
synth_module = importlib.import_module("tenblock.synth")


def bench_spec(seed):
    # the 72x54x16x128 field of the perfbench workloads at a run seed's phase
    phase = random.Random(seed).uniform(0.0, 2.0 * math.pi)
    return SynthSpec(dims=(72, 54, 16, 128), seed=0, noise=0.02, phase=phase)


def slab_rows(dims):
    return max(1, synth_module.SLAB_ELEMENTS // (dims[1] * dims[2] * dims[3]))


def assert_same_bits(g, ref):
    assert g.values.dtype == ref.values.dtype == np.float64
    assert g.domain_mask.dtype == ref.domain_mask.dtype == bool
    assert g.values.shape == ref.values.shape
    assert g.values.tobytes() == ref.values.tobytes()
    assert g.domain_mask.tobytes() == ref.domain_mask.tobytes()


def test_synth_deterministic():
    spec = SynthSpec(dims=(32, 24, 4, 16), seed=42)
    a = synth(spec)
    b = synth(spec)
    np.testing.assert_array_equal(a.domain_mask, b.domain_mask)
    np.testing.assert_array_equal(a.values, b.values)  # NaN positions included


def test_synth_seeds_differ():
    a = synth(SynthSpec(dims=(32, 24, 4, 16), seed=0))
    b = synth(SynthSpec(dims=(32, 24, 4, 16), seed=1))
    assert not np.array_equal(a.domain_mask, b.domain_mask) or \
        not np.array_equal(a.values, b.values)


def test_synth_dims_honored():
    g = synth(SynthSpec(dims=(20, 30, 3, 8), seed=5))
    assert g.dims == (20, 30, 3, 8)


def test_synth_ocean_fraction_reasonable():
    for seed in range(10):
        g = synth(SynthSpec(dims=(48, 36, 2, 4), seed=seed))
        frac = g.domain_mask.mean()
        assert 0.3 <= frac <= 0.9, (seed, frac)


def test_synth_values_f32_representable():
    g = synth(SynthSpec(dims=(24, 20, 3, 12), seed=3))
    round_trip = g.values.astype(np.float32).astype(np.float64)
    np.testing.assert_array_equal(
        np.nan_to_num(round_trip), np.nan_to_num(g.values))


def test_synth_noise_free_blocks_are_low_rank():
    # background_rank=1 and zero noise leave at most two separable terms
    # per horizontal mode, one depth profile plus a depth modulation, and
    # a seasonal oscillation: multilinear rank at most (2, 2, 2, 3) on any
    # fully defined block (threshold well above the f32 rounding floor)
    spec = SynthSpec(dims=(48, 36, 6, 24), seed=7, noise=0.0, background_rank=1)
    g = synth(spec)
    part = greedy_partition(g.domain_mask, 8)
    assert part.blocks
    caps = (2, 2, 2, 3)
    for b in part.blocks[:3]:
        sub = g.values[b.x_start:b.x_end, b.y_start:b.y_end]
        for k, cap in enumerate(caps):
            s = np.linalg.svd(unfold(sub, k), compute_uv=False)
            numerical_rank = int(np.sum(s >= 1e-5 * s[0]))
            assert numerical_rank <= cap, (k, s[:6] / s[0])


def test_synth_mean_level_is_physical():
    g = synth(SynthSpec(dims=(40, 30, 4, 16), seed=2))
    defined = g.values[g.domain_mask]
    assert 2.0 < np.nanmean(defined) < 30.0


def test_coastline_mask_shape_and_dtype():
    rng = np.random.default_rng(0)
    m = coastline_mask(31, 17, 0.15, rng)
    assert m.shape == (31, 17) and m.dtype == bool


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(dims=(0, 10, 2, 4))
    with pytest.raises(ValueError):
        SynthSpec(dims=(10, 10, 2))
    with pytest.raises(ValueError):
        SynthSpec(noise=-0.1)
    with pytest.raises(ValueError):
        SynthSpec(background_rank=0)
    # non-finite parameters: NaN noise would give a noise-free field
    # (nan > 0 is False), NaN phase or depth_decay would fail only after the
    # whole field is built
    for name in ("amplitude", "phase", "depth_decay", "noise"):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=name):
                SynthSpec(**{name: bad})
    # dims entries must be integers, not truncated (72.5) or bools (True)
    for bad in ((72.5, 10, 2, 4), (10, True, 2, 4), (10, 10, "2", 4), (10, 10, 2, None)):
        with pytest.raises(ValueError):
            SynthSpec(dims=bad)
    assert synth(SynthSpec(dims=tuple(np.int64(n) for n in (5, 4, 2, 3)))).dims == (5, 4, 2, 3)


@pytest.mark.parametrize("name,bad", [
    ("background_rank", 2.5), ("background_rank", True), ("background_rank", "2"),
    ("seed", 1.5), ("seed", False), ("seed", None),
])
def test_spec_integer_fields(name, bad):
    # a float, bool or string seed or rank is refused up front, not
    # truncated, taken as 1 or failed on inside synth
    with pytest.raises(ValueError, match=name):
        SynthSpec(**{name: bad})
    ok = SynthSpec(**{name: np.int64(2)})
    assert type(getattr(ok, name)) is int


@pytest.mark.parametrize("spec", [
    SynthSpec(dims=(130, 40, 2, 16), seed=2),  # last slab shorter than the rest
    SynthSpec(dims=(37, 20, 3, 50), seed=9),  # the whole field one slab
    SynthSpec(dims=(3, 500, 30, 200), seed=4),  # one x row over the budget
    SynthSpec(dims=(1, 1, 1, 1)),
    SynthSpec(dims=(48, 36, 6, 24), seed=7, noise=0.0),
    SynthSpec(dims=(40, 30, 4, 16), seed=3, background_rank=1),
    SynthSpec(dims=(40, 30, 4, 16), seed=3, background_rank=3),
], ids=lambda s: "x".join(map(str, s.dims)) + f"-s{s.seed}-n{s.noise}-r{s.background_rank}")
def test_synth_matches_reference(spec):
    assert_same_bits(synth(spec), synth_reference(spec))


def test_reference_specs_cover_the_slab_edges():
    # the shapes above hit the cases they are named for at SLAB_ELEMENTS
    assert 130 % slab_rows((130, 40, 2, 16)) != 0 and slab_rows((130, 40, 2, 16)) < 130
    assert slab_rows((37, 20, 3, 50)) > 37
    assert 500 * 30 * 200 > synth_module.SLAB_ELEMENTS and slab_rows((3, 500, 30, 200)) == 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_synth_matches_reference_on_bench_field(seed):
    assert_same_bits(synth(bench_spec(seed)), synth_reference(bench_spec(seed)))


@pytest.mark.parametrize("slab_elements", [1, 7 * 6 * 11, 1000, 10 ** 9])
def test_synth_bits_do_not_depend_on_slab_size(monkeypatch, slab_elements):
    spec = SynthSpec(dims=(23, 7, 6, 11), seed=5)
    ref = synth_reference(spec)
    monkeypatch.setattr(synth_module, "SLAB_ELEMENTS", slab_elements)
    assert_same_bits(synth(spec), ref)


@pytest.mark.parametrize("spec, message", [
    # finite in float64, past the float32 range
    (SynthSpec(dims=(12, 10, 2, 8), amplitude=1e39), "defined values must be finite"),
    # the deepest level's profile overflows to inf, times a zero of the season
    (SynthSpec(dims=(12, 10, 2, 8), depth_decay=-1000.0, phase=0.0),
     "NaN pattern inconsistent with domain mask"),
])
def test_synth_raises_as_the_constructor_does(spec, message):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=message):
            synth_reference(spec)
        with pytest.raises(ValueError, match=message):
            synth(spec)


def test_synth_has_no_field_sized_temporaries():
    spec = SynthSpec(dims=(48, 32, 6, 256), seed=1)
    synth(SynthSpec(dims=(4, 4, 2, 2)))  # one-time imports and caches
    tracemalloc.start()
    try:
        g = synth(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * g.values.nbytes, (peak, g.values.nbytes)
