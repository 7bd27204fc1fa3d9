"""Acceptance gate: one test per numbered criterion, one printed verdict
line each (run with ``pytest -s`` to see the lines).

Criterion 8 is a documented known failure; see its docstring.
"""

import time

import numpy as np
import pytest

from helpers import exact_tt_tensor, exact_tucker_tensor
from tenblock.completion import SvpParams, random_mask, svp_complete
from tenblock.formats import read_gsa, read_gst, write_gsa, write_gst
from tenblock.partition import greedy_partition
from tenblock.pipeline import (
    compress_dataset,
    cr_metrics,
    decompress_dataset,
    sweep_splits,
)
from tenblock.synth import SynthSpec, coastline_mask, synth
from tenblock.tensor_core import chebyshev_norm, frobenius_norm, unfold
from tenblock.tt import qtt_factorize_modes, tt_storage_count, ttsvd
from tenblock.tucker import hosvd, tucker_storage_count


def _verdict(num, label, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} [{num:2d}] {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _defined_cheb(a, b, domain_mask):
    full = domain_mask[:, :, None, None]
    return chebyshev_norm(np.nan_to_num(a - b), np.broadcast_to(full, a.shape))


def test_criterion_01_tucker_storage_oracle():
    count = tucker_storage_count([15, 25, 10, 15], [62, 199, 20, 256])
    cr_all, cr_sub = cr_metrics(63170560, 63170560, count, 0)
    ok = count == 66195 and abs(cr_all - 954.3) <= 0.05 and abs(cr_sub - 954.3) <= 0.05
    _verdict(1, "tucker storage-count oracle", ok,
             f"count={count} cr={cr_all:.4f}")


def test_criterion_02_tt_storage_oracle():
    count = tt_storage_count([16, 53, 13], [62, 199, 20, 256])
    cr_all, _ = cr_metrics(63170560, 63170560, count, 0)
    ok = count == 186852 and abs(cr_all - 338.1) <= 0.05
    _verdict(2, "tt storage-count oracle", ok, f"count={count} cr={cr_all:.4f}")


def test_criterion_03_qtt_mode_factorization():
    got = qtt_factorize_modes([8, 8, 20, 8])
    want = [[2, 2, 2], [2, 2, 2], [2, 2, 5], [2, 2, 2]]
    flat = [p for fs in got for p in fs]
    ok = got == want and flat[:8] == [2] * 8 and flat[8] == 5 and flat[9:] == [2] * 3
    _verdict(3, "qtt mode factorization 8x8x20x8", ok, f"{got}")


def test_criterion_04_exact_low_rank_recovery():
    t0 = time.perf_counter()
    x = exact_tucker_tensor((20, 20, 10, 16), (3, 4, 2, 5), seed=0, scale=3.0)
    f = hosvd(x, (3, 4, 2, 5))
    tucker_err = frobenius_norm(f.reconstruct() - x) / frobenius_norm(x)

    y = exact_tt_tensor((16, 16, 16), (2, 3), seed=1, scale=2.0)
    g = ttsvd(y, ranks=(2, 3))
    tt_err = frobenius_norm(g.reconstruct() - y) / frobenius_norm(y)
    dt = time.perf_counter() - t0
    ok = tucker_err <= 1e-10 and tt_err <= 1e-10 and dt < 5.0
    _verdict(4, "exact low-rank recovery", ok,
             f"tucker={tucker_err:.2e} tt={tt_err:.2e} {dt:.2f}s")


def test_criterion_05_tolerance_contracts():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst_margin = np.inf
    ok = True
    for trial in range(20):
        shape = tuple(int(rng.integers(5, 13)) for _ in range(4))
        x = rng.standard_normal(shape)
        nx = frobenius_norm(x)
        for eps in (1e-1, 1e-2, 1e-4):
            f = ttsvd(x, tol=eps)
            rel = frobenius_norm(f.reconstruct() - x) / nx
            ok &= rel <= eps
            worst_margin = min(worst_margin, eps - rel)
        ranks = tuple(int(rng.integers(1, n + 1)) for n in shape)
        h = hosvd(x, ranks)
        err = frobenius_norm(h.reconstruct() - x)
        tail = sum(float(np.sum(np.linalg.svd(unfold(x, k), compute_uv=False)[r:] ** 2))
                   for k, r in enumerate(ranks))
        ok &= err <= np.sqrt(tail) + 1e-9
    dt = time.perf_counter() - t0
    ok &= dt < 30.0
    _verdict(5, "tolerance contracts (20 tensors x 3 eps)", ok,
             f"min margin={worst_margin:.2e} {dt:.1f}s")


def test_criterion_06_partition_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    ok = True
    for trial in range(50):
        nx = int(rng.integers(30, 307))
        ny = int(rng.integers(20, 201))
        mask = coastline_mask(nx, ny, float(rng.uniform(0.1, 0.25)), rng)
        s_min = int(rng.choice([4, 5, 8, 10]))
        res = greedy_partition(mask, s_min)
        covered = np.zeros_like(mask)
        for b in res.blocks:
            ok &= b.x_end - b.x_start >= s_min and b.y_end - b.y_start >= s_min
            ok &= bool(mask[b.x_start:b.x_end, b.y_start:b.y_end].all())
            ok &= not covered[b.x_start:b.x_end, b.y_start:b.y_end].any()
            covered[b.x_start:b.x_end, b.y_start:b.y_end] = True
        free = mask & ~covered
        ii = np.zeros((nx + 1, ny + 1), dtype=np.int64)
        ii[1:, 1:] = free.cumsum(axis=0).cumsum(axis=1)
        w = s_min
        if nx >= w and ny >= w:
            sums = ii[w:, w:] - ii[:-w, w:] - ii[w:, :-w] + ii[:-w, :-w]
            ok &= not bool((sums == w * w).any())

    l_mask = np.ones((20, 20), dtype=bool)
    l_mask[:10, 10:] = False
    trace = [tuple(b) for b in greedy_partition(l_mask, 10).blocks]
    ok &= trace == [(0, 20, 0, 10), (10, 20, 10, 20)]
    dt = time.perf_counter() - t0
    ok &= dt < 30.0
    _verdict(6, "greedy partition correctness (50 masks)", ok,
             f"L-trace={trace} {dt:.1f}s")


def test_criterion_07_budget_invariant_end_to_end():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for seed in (0, 1, 2):
        g = synth(SynthSpec(seed=seed))
        for method in ("tucker", "tt", "qtt"):
            for splits in (1, 4, 16):
                archive, _ = compress_dataset(g, method, 0.5, s_min=8,
                                              n_splits=splits)
                restored = decompress_dataset(archive)
                err = _defined_cheb(restored.values, g.values, g.domain_mask)
                worst = max(worst, err)
                ok &= err <= 0.5
    dt = time.perf_counter() - t0
    ok &= dt < 120.0
    _verdict(7, "eps_max=0.5 budget, 3 seeds x 3 methods x 3 splits", ok,
             f"worst={worst:.4f} {dt:.1f}s")


def test_criterion_08_svp_completion_desk_scale():
    """SVP at the pinned parameters: rank-(3,3,2,3) truth, CR=4 sampling,
    caps (5,5,4,5), eta=1, delta=1.

    The masked bound holds.  The full-tensor bound does not: with caps
    above the true rank, the per-iteration escalation reaches the caps in
    four steps and the iteration settles on a rank-caps near-interpolant
    of the samples instead of the truth; the full relative error stalls
    near 3e-2 (flat from iteration ~100 out to at least 3000) while the
    masked error keeps shrinking.  Step sizes up to 2 shift the plateau
    only slightly, step sizes >= 3 diverge, and the same loop with caps
    equal to the true rank converges to 1e-8.  The assertion is kept at
    the stated bound and this test is expected to fail.
    """
    t0 = time.perf_counter()
    x = exact_tucker_tensor((30, 30, 10, 16), (3, 3, 2, 3), seed=11, scale=10.0)
    mask = random_mask(x.shape, 4, seed=111)
    params = SvpParams((5, 5, 4, 5), eps=1e-3, delta=1, eta=1.0, max_iters=500)
    res = svp_complete(x, mask, params)
    full_rel = frobenius_norm(res.completion - x) / frobenius_norm(x)
    dt = time.perf_counter() - t0
    ok = (res.converged and res.n_iters <= 500 and res.rel_error < 1e-3
          and full_rel < 1e-2 and dt < 60.0)
    _verdict(8, "svp completion at desk scale", ok,
             f"masked={res.rel_error:.2e} full={full_rel:.2e} "
             f"iters={res.n_iters} {dt:.1f}s")


def test_criterion_09_direct_beats_completion_at_equal_budget():
    t0 = time.perf_counter()
    ok = True
    pairs = []
    for seed in (0, 1):
        g = synth(SynthSpec(dims=(32, 24, 6, 32), seed=seed))
        full_mask = np.broadcast_to(g.domain_mask[:, :, None, None], g.dims)
        observed = np.nan_to_num(g.values)
        for method in ("tucker", "tt"):
            archive, _ = compress_dataset(g, method, 0.5, s_min=4)
            restored = decompress_dataset(archive)
            direct = _defined_cheb(restored.values, g.values, g.domain_mask)
            budget = archive.stored_elements
            rng = np.random.default_rng(1000 + seed)
            pick = rng.choice(g.defined_count, size=budget, replace=False)
            sample = np.zeros(g.defined_count, dtype=bool)
            sample[pick] = True
            omega = np.zeros(g.dims, dtype=bool)
            omega[full_mask] = sample
            res = svp_complete(observed, omega,
                               SvpParams((8, 8, 4, 8), eps=1e-4, max_iters=120))
            diff = np.where(full_mask, res.completion - observed, 0.0)
            svp = chebyshev_norm(diff, full_mask)
            pairs.append((direct, svp))
            ok &= direct < svp
    dt = time.perf_counter() - t0
    worst = max(d / s for d, s in pairs)
    _verdict(9, "direct compression beats completion at equal budget", ok,
             f"worst direct/svp={worst:.3f} {dt:.1f}s")


def test_criterion_10_sweep_mechanics():
    g = synth(SynthSpec(dims=(48, 32, 6, 256), seed=0))
    split_list = [1, 2, 4, 8, 16, 32, 64]
    reports = sweep_splits(g, "tucker", 0.5, split_list)
    ok = [r.n_splits for r in reports] == split_list
    for r in reports:
        ok &= r.max_cheb_error <= 0.5
        before = sum(s.elements_before for s in r.block_stats)
        after = sum(s.elements_after for s in r.block_stats)
        cr_all, cr_sub = cr_metrics(r.total_elements, before, after,
                                    r.leftover_count)
        ok &= abs(r.cr_all - cr_all) <= 1e-9 * cr_all
        ok &= abs(r.cr_sub - cr_sub) <= 1e-9 * cr_sub
        ok &= before == r.elements_before_blocks
    crs = ", ".join(f"{r.n_splits}:{r.cr_all:.2f}" for r in reports)
    _verdict(10, "temporal-split sweep mechanics (256 steps)", ok, crs)


def test_criterion_11_format_roundtrips(tmp_path):
    t0 = time.perf_counter()
    ok = True
    methods = ("tucker", "tt", "qtt")
    for i in range(10):
        g = synth(SynthSpec(dims=(24, 20, 3, 12), seed=i))
        gst = tmp_path / f"d{i}.gst"
        write_gst(g, str(gst))
        back = read_gst(str(gst))
        ok &= np.array_equal(back.values, g.values, equal_nan=True)
        ok &= np.array_equal(back.domain_mask, g.domain_mask)
        gst2 = tmp_path / f"d{i}b.gst"
        write_gst(back, str(gst2))
        ok &= gst.read_bytes() == gst2.read_bytes()

        archive, _ = compress_dataset(g, methods[i % 3], 0.5,
                                      s_min=(4, 8)[i % 2], n_splits=(1, 2, 4)[i % 3])
        gsa = tmp_path / f"a{i}.gsa"
        write_gsa(archive, str(gsa))
        restored_archive, _ = read_gsa(str(gsa))
        gsa2 = tmp_path / f"a{i}b.gsa"
        write_gsa(restored_archive, str(gsa2))
        ok &= gsa.read_bytes() == gsa2.read_bytes()
        ok &= np.array_equal(decompress_dataset(restored_archive).values,
                             decompress_dataset(archive).values, equal_nan=True)
    dt = time.perf_counter() - t0
    ok &= dt < 10.0
    _verdict(11, "gst/gsa roundtrips bit-exact (10 archives)", ok, f"{dt:.1f}s")
