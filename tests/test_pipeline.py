import math

import numpy as np
import pytest

from tenblock.partition import BlockIndex
from tenblock.pipeline import (
    KINDS,
    METHODS,
    compress_dataset,
    cr_metrics,
    decompress_dataset,
    leftover_cells,
    render_report,
    render_sweep,
    report_to_dict,
    sweep_splits,
)
from tenblock.synth import SynthSpec, synth
from tenblock.tensor_core import GappyTensor4, chebyshev_norm, frobenius_norm


def small_field(seed=42, dims=(32, 24, 4, 16)):
    return synth(SynthSpec(dims=dims, seed=seed))


def defined_cheb(a, b, mask):
    return chebyshev_norm(np.nan_to_num(a - b), mask[:, :, None, None])


def test_cr_metrics_reference_case():
    cr_all, cr_sub = cr_metrics(63170560, 63170560, 66195, 0)
    assert cr_all == pytest.approx(954.3101, abs=5e-4)
    assert cr_sub == pytest.approx(954.3101, abs=5e-4)


def test_cr_metrics_split_accounting():
    cr_all, cr_sub = cr_metrics(1200, 1000, 200, 100)
    assert cr_all == pytest.approx(4.0)
    assert cr_sub == pytest.approx(5.0)


def test_cr_metrics_no_compression():
    cr_all, cr_sub = cr_metrics(10, 10, 10, 0)
    assert cr_all == 1.0 and cr_sub == 1.0


def test_cr_metrics_validation():
    with pytest.raises(ValueError):
        cr_metrics(10, 10, 0, 5)
    with pytest.raises(ValueError):
        cr_metrics(-1, 10, 5, 0)


def test_leftover_cells_row_major():
    mask = np.ones((4, 4), dtype=bool)
    mask[0, 0] = False
    cells = leftover_cells(mask, [BlockIndex(0, 4, 0, 2)])
    np.testing.assert_array_equal(
        cells, [[0, 2], [0, 3], [1, 2], [1, 3], [2, 2], [2, 3], [3, 2], [3, 3]])


@pytest.mark.parametrize("method", ["tucker", "tt", "qtt"])
def test_compress_meets_budget(method):
    g = small_field()
    archive, report = compress_dataset(g, method, 0.5, s_min=4)
    restored = decompress_dataset(archive)
    err = defined_cheb(restored.values, g.values, g.domain_mask)
    assert err <= 0.5
    assert report.max_cheb_error <= 0.5
    # the report's observed maximum agrees with a recomputation
    assert err == pytest.approx(report.max_cheb_error, abs=1e-12)


def test_decompress_restores_land_as_nan():
    g = small_field()
    archive, _ = compress_dataset(g, "tucker", 0.5, s_min=4)
    restored = decompress_dataset(archive)
    np.testing.assert_array_equal(np.isnan(restored.values),
                                  np.isnan(g.values))


def test_compress_report_accounting_recomputes():
    g = small_field()
    _, report = compress_dataset(g, "tt", 0.5, s_min=4, n_splits=2)
    before = sum(s.elements_before for s in report.block_stats)
    after = sum(s.elements_after for s in report.block_stats)
    assert report.elements_before_blocks == before
    assert report.elements_after_blocks == after
    cr_all, cr_sub = cr_metrics(report.total_elements, before, after,
                                report.leftover_count)
    assert report.cr_all == pytest.approx(cr_all, rel=1e-9)
    assert report.cr_sub == pytest.approx(cr_sub, rel=1e-9)
    assert report.cr_all > 1.0


def test_split_block_element_additivity():
    g = small_field()
    _, r1 = compress_dataset(g, "tucker", 0.5, s_min=4, n_splits=1)
    _, r4 = compress_dataset(g, "tucker", 0.5, s_min=4, n_splits=4)
    assert r4.n_splits == 4
    assert r1.elements_before_blocks == r4.elements_before_blocks
    per_rect1 = {}
    for s in r1.block_stats:
        per_rect1[tuple(s.rect)] = per_rect1.get(tuple(s.rect), 0) + s.elements_before
    per_rect4 = {}
    for s in r4.block_stats:
        per_rect4[tuple(s.rect)] = per_rect4.get(tuple(s.rect), 0) + s.elements_before
    assert per_rect1 == per_rect4


def test_every_step_alone_still_meets_budget():
    g = small_field(dims=(24, 20, 3, 8))
    archive, report = compress_dataset(g, "tucker", 0.5, s_min=4, n_splits=8)
    restored = decompress_dataset(archive)
    assert defined_cheb(restored.values, g.values, g.domain_mask) <= 0.5
    assert len(archive.splits) == 8
    assert all(t1 - t0 == 1 for t0, t1 in archive.splits)


def test_leftover_only_archive_round_trips_exactly():
    # s_min larger than the grid leaves no blocks; all defined cells stored raw
    g = small_field(dims=(12, 10, 2, 6))
    archive, report = compress_dataset(g, "tucker", 0.5, s_min=64)
    assert archive.blocks == ()
    assert math.isnan(report.cr_sub)
    assert report.cr_all == pytest.approx(
        np.prod(g.dims) / report.leftover_count)
    restored = decompress_dataset(archive)
    np.testing.assert_array_equal(
        np.nan_to_num(restored.values), np.nan_to_num(g.values))


def test_compress_validation():
    g = small_field(dims=(12, 10, 2, 6))
    with pytest.raises(ValueError):
        compress_dataset(g, "zip", 0.5)
    with pytest.raises(ValueError):
        compress_dataset(g, "tucker", 0.0)
    values = np.full((8, 8, 2, 2), np.nan)
    empty = GappyTensor4(values, np.zeros((8, 8), dtype=bool))
    with pytest.raises(ValueError):
        compress_dataset(empty, "tucker", 0.5)


def test_compress_rejects_sub_f32_budget():
    g = small_field(dims=(16, 12, 2, 4))
    with pytest.raises(ValueError):
        compress_dataset(g, "tucker", 1e-9, s_min=4)


def test_archive_stored_elements():
    g = small_field()
    archive, report = compress_dataset(g, "tucker", 0.5, s_min=4)
    assert archive.stored_elements == (
        report.elements_after_blocks + report.leftover_count)


def test_sweep_splits_rows():
    g = small_field(dims=(24, 20, 3, 16))
    reports = sweep_splits(g, "tucker", 0.5, [1, 2, 4])
    assert [r.n_splits for r in reports] == [1, 2, 4]
    for r in reports:
        assert r.max_cheb_error <= 0.5
    single = compress_dataset(g, "tucker", 0.5, 8, 1)[1]
    assert reports[0].cr_all == pytest.approx(single.cr_all)


def test_render_report_mentions_totals():
    g = small_field(dims=(24, 20, 3, 8))
    _, report = compress_dataset(g, "tucker", 0.5, s_min=4)
    text = render_report(report)
    assert "cr_all" in text.lower() and "cr_sub" in text.lower()
    assert "leftover" in text
    assert str(report.leftover_count) in text


def test_render_sweep_one_line_per_row():
    g = small_field(dims=(24, 20, 3, 8))
    reports = sweep_splits(g, "tucker", 0.5, [1, 2])
    text = render_sweep(reports)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    assert len(lines) >= 3  # header + two rows


def test_report_to_dict_keys():
    g = small_field(dims=(24, 20, 3, 8))
    _, report = compress_dataset(g, "tt", 0.5, s_min=4)
    d = report_to_dict(report)
    for key in ("method", "eps_max", "cr_all", "cr_sub", "max_cheb_error",
                "leftover_count", "blocks"):
        assert key in d
    assert d["method"] == "tt"
    assert len(d["blocks"]) == len(report.block_stats)


@pytest.mark.parametrize("method", METHODS)
def test_compress_reconstructs_each_block_once(monkeypatch, method):
    g = small_field()
    cls = KINDS[method]
    calls = []
    reconstruct = cls.reconstruct

    def counting(self):
        calls.append(self)
        return reconstruct(self)

    monkeypatch.setattr(cls, "reconstruct", counting)
    # a budget so loose that the first candidate of every block is accepted
    archive, report = compress_dataset(g, method, 1e6, s_min=4, n_splits=2)
    monkeypatch.undo()
    assert len(archive.blocks) > 2
    assert len(calls) == len(archive.blocks)

    # the reported errors are those of the archived factorizations
    for rec, s in zip(archive.blocks, report.block_stats):
        r = rec.rect
        t0, t1 = archive.splits[rec.interval]
        sub = g.values[r.x_start:r.x_end, r.y_start:r.y_end, :, t0:t1]
        diff = rec.fac.reconstruct() - sub
        assert (s.rect, s.interval) == (rec.rect, rec.interval)
        assert s.cheb_error == chebyshev_norm(diff)
        assert s.rel_frob_error == frobenius_norm(diff) / frobenius_norm(sub)


@pytest.mark.parametrize("method", METHODS)
def test_all_zero_field_round_trips(method):
    g = GappyTensor4(np.zeros((16, 16, 2, 4)), np.ones((16, 16), dtype=bool))
    archive, report = compress_dataset(g, method, 0.5)
    assert report.max_cheb_error == 0.0
    assert all(s.rel_frob_error == 0.0 for s in report.block_stats)
    np.testing.assert_array_equal(decompress_dataset(archive).values, g.values)
