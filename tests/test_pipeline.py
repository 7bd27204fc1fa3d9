import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import MISFIT_RECORDS, interval_stack
from tenblock import pipeline
from tenblock.cli import main
from tenblock.formats import read_gst
from tenblock.partition import BlockIndex, greedy_partition, pow2_partition
from tenblock.pipeline import (
    KINDS,
    METHODS,
    BlockRecord,
    CompressedArchive,
    _quantize_f32,
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
from tenblock.tensor_core import GappyTensor4, budgeted_search, chebyshev_norm, frobenius_norm
from tenblock.tt import QttFactorization, TTFactorization


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


@pytest.mark.parametrize("eps_max", [math.nan, math.inf])
def test_non_finite_eps_max_is_rejected(eps_max):
    g = small_field(dims=(12, 10, 2, 6))
    with pytest.raises(ValueError, match="eps_max must be finite"):
        compress_dataset(g, "tucker", eps_max)
    with pytest.raises(ValueError, match="eps_max must be finite"):
        budgeted_search(KINDS["tucker"], [np.ones((4, 4, 2, 2))], eps_max)


@pytest.mark.parametrize("method", ["tucker", "qtt"])
@pytest.mark.parametrize("kwargs,name", [
    ({"n_splits": 2.7}, "n must be an integer"),
    ({"n_splits": True}, "n must be an integer"),
    ({"s_min": True}, "s_min must be an integer"),
    ({"s_min": 8.9}, "s_min must be an integer"),
], ids=["n_splits-2.7", "n_splits-True", "s_min-True", "s_min-8.9"])
def test_compress_rejects_non_integer_counts(method, kwargs, name):
    # neither the greedy nor the power-of-two partition, nor the time split,
    # truncates a float or takes a bool as a count
    with pytest.raises(ValueError, match=name):
        compress_dataset(small_field(), method, 0.5, **kwargs)


def test_qtt_compress_builds_each_candidate_once(monkeypatch):
    # each candidate the QTT search offers is constructed, with its TT,
    # once; accept quantizes it into the same kind without a second
    # construction, and nothing in compress goes through from_arrays
    counts = dict.fromkeys(("tt", "qtt", "accept"), 0)
    for cls in (TTFactorization, QttFactorization):
        def counted(self, check=cls.__post_init__, kind=cls.kind):
            counts[kind] += 1
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    for cls in KINDS.values():
        monkeypatch.setattr(cls, "from_arrays", classmethod(lambda *a: pytest.fail("from_arrays")))
    search = QttFactorization.search

    def counting_search(stack, norms, accept):
        def counted(b, fac):
            counts["accept"] += 1
            return accept(b, fac)
        search(stack, norms, counted)

    monkeypatch.setattr(QttFactorization, "search", staticmethod(counting_search))
    archive, _ = compress_dataset(small_field(dims=(32, 24, 4, 16)), "qtt", 0.05, 8, 2)
    assert counts["accept"] > len(archive.blocks)  # some block takes a second candidate
    assert counts["tt"] == counts["qtt"] == counts["accept"]


def test_compress_rejects_sub_f32_budget():
    g = small_field(dims=(16, 12, 2, 4))
    with pytest.raises(ValueError):
        compress_dataset(g, "tucker", 1e-9, s_min=4)


@pytest.mark.parametrize("method", METHODS)
def test_compress_rejects_blocks_that_overflow_float32(method):
    # finite in float64, beyond float32: every block's stored arrays are
    # infinite and its error NaN, with no leftover cell to show it otherwise
    values = 1e39 * (1.0 + np.random.default_rng(0).random((8, 8, 2, 4)))
    g = GappyTensor4(values, np.ones((8, 8), dtype=bool))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="32-bit payloads cannot meet eps_max"):
            compress_dataset(g, method, 0.5, s_min=1)


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

    # the reported errors are those of the archived factorizations, taken
    # on the block in C order, as the search holds it
    for rec, s in zip(archive.blocks, report.block_stats):
        r = rec.rect
        t0, t1 = archive.splits[rec.interval]
        sub = np.ascontiguousarray(g.values[r.x_start:r.x_end, r.y_start:r.y_end, :, t0:t1])
        diff = rec.fac.reconstruct() - sub
        assert (s.rect, s.interval) == (rec.rect, rec.interval)
        assert s.cheb_error == chebyshev_norm(diff)
        assert s.rel_frob_error == frobenius_norm(diff) / frobenius_norm(sub)


@pytest.mark.parametrize("method", METHODS)
def test_budgeted_search_is_layout_independent(method):
    # the search copies the block once into its stack, so a C-contiguous
    # block, its F-ordered copy and a strided field view give the same bits;
    # the budget takes two or three candidates for every kind
    g = small_field(dims=(32, 24, 8, 32))
    r = max(greedy_partition(g.domain_mask, 8).blocks, key=lambda b: b.area)
    view = g.values[r.x_start:r.x_end, r.y_start:r.y_end, :, 8:24]
    results = [budgeted_search(KINDS[method], [x], 0.1, _quantize_f32)[0]
               for x in (np.ascontiguousarray(view), np.asfortranarray(view), view)]
    (fac, cheb, rel), others = results[0], results[1:]
    for other_fac, other_cheb, other_rel in others:
        assert len(other_fac.arrays()) == len(fac.arrays())
        for a, b in zip(other_fac.arrays(), fac.arrays()):
            np.testing.assert_array_equal(a, b)
        assert (other_cheb, other_rel) == (cheb, rel)


@pytest.mark.parametrize("method", METHODS)
def test_all_zero_field_round_trips(method):
    g = GappyTensor4(np.zeros((16, 16, 2, 4)), np.ones((16, 16), dtype=bool))
    archive, report = compress_dataset(g, method, 0.5)
    assert report.max_cheb_error == 0.0
    assert all(s.rel_frob_error == 0.0 for s in report.block_stats)
    np.testing.assert_array_equal(decompress_dataset(archive).values, g.values)


README_RANKS = json.loads(Path(__file__).with_name("readme_ranks.json").read_text())


@pytest.fixture(scope="module")
def readme_field(tmp_path_factory):
    path = tmp_path_factory.mktemp("readme") / "field.gst"
    assert main(["synth", "--dims", "64x48x8x64", "--seed", "7", "--out", str(path)]) == 0
    return read_gst(str(path))


@pytest.mark.parametrize("method", METHODS)
def test_readme_config_ranks_pinned(readme_field, method):
    # per-block ranks and CR_all of the README walkthrough, frozen when the
    # mode bases came from full thin SVDs: a change to how bases are
    # computed that moves a rank fails here
    archive, report = compress_dataset(readme_field, method, 0.5, 8, 4)
    got = [{"rect": list(b.rect), "interval": b.interval, "ranks": list(b.fac.ranks)}
           for b in archive.blocks]
    assert got == README_RANKS[method]["blocks"]
    assert report.cr_all == README_RANKS[method]["cr_all"]


def test_compress_is_layout_independent():
    # blocks are views of the field; a Fortran-ordered field must give the
    # same factorizations as the C-ordered one
    g = small_field(dims=(32, 24, 8, 32))
    f = GappyTensor4(np.asfortranarray(g.values), g.domain_mask)
    for method in METHODS:
        a, ra = compress_dataset(g, method, 0.5, n_splits=2)
        b, rb = compress_dataset(f, method, 0.5, n_splits=2)
        assert ([(r.rect, r.interval, r.fac.ranks) for r in a.blocks]
                == [(r.rect, r.interval, r.fac.ranks) for r in b.blocks])
        assert ra.cr_all == rb.cr_all


def _assert_same_search(method, x, found, alone):
    # a stacked search's result against the block searched alone: the same
    # ranks and Chebyshev error; TT and Tucker payloads equal, QTT float32
    # arrays within 1e-7 relative (its padded eigh rounds differently)
    (fac, cheb, rel), (ref, ref_cheb, ref_rel) = found, alone
    assert fac.ranks == ref.ranks
    if method == "qtt":
        for a, b in zip(fac.arrays(), ref.arrays()):
            assert np.max(np.abs(a - b)) <= 1e-7 * np.max(np.abs(b))
        assert abs(cheb - ref_cheb) <= 1e-6 * max(1.0, float(np.max(np.abs(x))))
    else:
        for a, b in zip(fac.arrays(), ref.arrays()):
            np.testing.assert_array_equal(a, b)
        assert (cheb, rel) == (ref_cheb, ref_rel)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("which", [[11], [3, 7, 11], list(range(16))], ids=["B1", "B3", "B16"])
def test_stacked_search_matches_each_block_alone(method, which):
    blocks = [interval_stack()[i] for i in which]
    cls = KINDS[method]
    found = budgeted_search(cls, blocks, 0.1, _quantize_f32)
    assert len(found) == len(blocks)
    for x, result in zip(blocks, found):
        _assert_same_search(method, x, result, budgeted_search(cls, [x], 0.1, _quantize_f32)[0])
        assert result[1] <= 0.1


@pytest.mark.parametrize("method", METHODS)
def test_compress_searches_same_length_intervals_as_one_stack(monkeypatch, method):
    # 20 steps in 3 splits: intervals of 6, 6 and 8 steps, so each
    # rectangle makes one search of two intervals and one of one
    g = small_field(dims=(32, 24, 4, 20))
    stacks = []
    search = budgeted_search

    def recording(cls, blocks, *args):
        stacks.append(len(blocks))
        return search(cls, blocks, *args)

    monkeypatch.setattr(pipeline, "budgeted_search", recording)
    archive, report = compress_dataset(g, method, 0.25, 8, 3)
    monkeypatch.undo()
    assert archive.splits == ((0, 6), (6, 12), (12, 20))
    rects = list(dict.fromkeys(rec.rect for rec in archive.blocks))
    assert stacks == [2, 1] * len(rects)
    # records rect-major, interval-minor
    assert [(rec.rect, rec.interval) for rec in archive.blocks] == [
        (r, iv) for r in rects for iv in range(3)]
    for rec, s in zip(archive.blocks, report.block_stats):
        r = rec.rect
        t0, t1 = archive.splits[rec.interval]
        x = g.values[r.x_start:r.x_end, r.y_start:r.y_end, :, t0:t1]
        alone = budgeted_search(KINDS[method], [x], 0.25, _quantize_f32)[0]
        _assert_same_search(method, x, (rec.fac, s.cheb_error, s.rel_frob_error), alone)


def _inf_factor_entry(archive):
    rec = archive.blocks[0]
    arrays = [np.array(a) for a in rec.fac.arrays()]
    arrays[0].flat[0] = np.inf
    fac = type(rec.fac).from_arrays(arrays, rec.fac.header_fields())
    return {"blocks": (BlockRecord(rec.rect, rec.interval, fac),) + archive.blocks[1:]}


def _nan_leftover(archive):
    leftover = archive.leftover_values.copy()
    leftover[0, 0, 0] = np.nan
    return {"leftover_values": leftover}


def _missing_interval(archive):
    # records run rectangle by rectangle; the second is the first
    # rectangle's interval 1
    assert archive.blocks[1].rect == archive.blocks[0].rect
    return {"blocks": archive.blocks[:1] + archive.blocks[2:]}


def _rect_over_undefined(archive):
    # the leftover cells stay the same: a covered cell is never one
    mask = archive.domain_mask.copy()
    r = archive.blocks[0].rect
    mask[r.x_start, r.y_start] = False
    return {"domain_mask": mask}


def _leftover_count_mismatch(archive):
    # one cell, which an assignment would broadcast over all of them
    assert archive.leftover_values.shape[0] > 1
    return {"leftover_values": archive.leftover_values[:1]}


def _last_step_uncovered(archive):
    # intervals of the right lengths, overlapping, so the last step is
    # never written
    (t0, t1), (_, t2) = archive.splits
    return {"splits": ((t0, t1), (t1 - 1, t2 - 1))}


def _mask_shape(archive):
    # an extra undefined row: the same leftover cells, a grid too large
    mask = archive.domain_mask
    return {"domain_mask": np.vstack([mask, np.zeros_like(mask[:1])])}


@pytest.mark.parametrize("tamper", [
    _inf_factor_entry, _nan_leftover, _missing_interval, _rect_over_undefined,
    _leftover_count_mismatch, _last_step_uncovered, _mask_shape,
], ids=lambda f: f.__name__.lstrip("_"))
@pytest.mark.parametrize("method", METHODS)
def test_decompress_rejects_inconsistent_archive(method, tamper):
    archive, report = compress_dataset(small_field(), method, 0.5, s_min=4, n_splits=2)
    assert report.leftover_count > 0
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
        decompress_dataset(dataclasses.replace(archive, **tamper(archive)))


def test_archive_rejects_overlapping_rectangles():
    # a one-cell rectangle inside the first, with a record of its own that
    # fits it: it lies on defined cells, and the leftover cells stay the same
    g = small_field()
    archive, _ = compress_dataset(g, "tucker", 0.5, s_min=4)
    r = archive.blocks[0].rect
    inner = BlockIndex(r.x_start, r.x_start + 1, r.y_start, r.y_start + 1)
    cell = g.values[inner.x_start:inner.x_end, inner.y_start:inner.y_end]
    fac = budgeted_search(KINDS["tucker"], [cell], 0.5)[0][0]
    blocks = archive.blocks + (BlockRecord(inner, 0, fac),)
    with pytest.raises(ValueError, match="overlap"):
        dataclasses.replace(archive, blocks=blocks)


@pytest.mark.parametrize("method,field,value,message", [
    ("tt", "method", "tucker", "block kind 'tt' in a tucker archive"),
    ("tucker", "method", "nope", "unknown method 'nope'"),
    *[("tucker", "eps_max", v, "bad eps_max") for v in (math.nan, -1.0, 0, math.inf, 10**400)],
], ids=["tt_records_in_tucker", "unknown_method", "eps_max_nan", "eps_max_negative",
        "eps_max_zero", "eps_max_inf", "eps_max_int_past_float_range"])
def test_archive_rejects_a_bad_method_or_eps_max(method, field, value, message):
    # each would be written, and then rejected on reading
    archive, _ = compress_dataset(small_field(), method, 0.5, s_min=4)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(archive, **{field: value})


def test_archive_keeps_eps_max_as_float():
    archive, _ = compress_dataset(small_field(), "tucker", 0.5, s_min=4)
    eps_max = dataclasses.replace(archive, eps_max=2).eps_max
    assert type(eps_max) is float and eps_max == 2.0


@pytest.mark.parametrize("name", MISFIT_RECORDS)
def test_archive_rejects_a_record_of_another_shape(name):
    method, misfit = MISFIT_RECORDS[name]
    archive, _ = compress_dataset(small_field(), method, 0.5, s_min=4, n_splits=2)
    rec = archive.blocks[0]
    fac = misfit(rec.fac)
    blocks = (BlockRecord(rec.rect, rec.interval, fac),) + archive.blocks[1:]
    message = re.escape(f"interval 0 has a record of shape {fac.dims}")
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(archive, blocks=blocks)


def test_decompress_rejects_overflowing_factors():
    # every carriage finite in float32, their product beyond float64
    archive, _ = compress_dataset(small_field(), "qtt", 0.5, s_min=4)
    rec = archive.blocks[0]
    arrays = [a * (1e37 / np.abs(a).max()) for a in rec.fac.arrays()]
    assert len(arrays) >= 9 and all(np.isfinite(a.astype(np.float32)).all() for a in arrays)
    fac = type(rec.fac).from_arrays(arrays, rec.fac.header_fields())
    blocks = (BlockRecord(rec.rect, rec.interval, fac),) + archive.blocks[1:]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
        decompress_dataset(dataclasses.replace(archive, blocks=blocks))


@pytest.mark.parametrize("n_splits", [1, 4])
@pytest.mark.parametrize("method", METHODS)
def test_decompressed_field_passes_the_public_checks(method, n_splits):
    g = small_field()
    archive, _ = compress_dataset(g, method, 0.5, s_min=4, n_splits=n_splits)
    out = decompress_dataset(archive)
    checked = GappyTensor4(out.values, out.domain_mask)
    assert checked.values.dtype == np.float64 and checked.domain_mask.dtype == bool
    np.testing.assert_array_equal(out.domain_mask, g.domain_mask)
    np.testing.assert_array_equal(np.isnan(out.values), np.isnan(g.values))


def reference_decompress(archive):
    """The field filled with NaN, then one copy per record, then the leftover
    store: the per-record decompress that ``decompress_dataset`` must match
    bit for bit."""
    values = np.full(archive.dims, np.nan)
    for rec in archive.blocks:
        r = rec.rect
        t0, t1 = archive.splits[rec.interval]
        values[r.x_start:r.x_end, r.y_start:r.y_end, :, t0:t1] = rec.fac.reconstruct()
    cells = leftover_cells(archive.domain_mask, [rec.rect for rec in archive.blocks])
    values[cells[:, 0], cells[:, 1]] = archive.leftover_values
    return values


def hand_tiled_archive(method, splits, eps_max=0.5):
    """An archive over time splits that ``temporal_split`` never makes, one
    ``budgeted_search`` per rectangle x interval."""
    g = small_field(dims=(32, 24, 4, splits[-1][1]))
    cls = KINDS[method]
    part = (pow2_partition if cls.pow2_blocks else greedy_partition)(g.domain_mask, 4)
    records = []
    for r in part.blocks:
        for iv, (t0, t1) in enumerate(splits):
            x = g.values[r.x_start:r.x_end, r.y_start:r.y_end, :, t0:t1]
            fac = budgeted_search(cls, [x], eps_max, _quantize_f32)[0][0]
            records.append(BlockRecord(r, iv, fac))
    cells = leftover_cells(g.domain_mask, part.blocks)
    leftover = g.values[cells[:, 0], cells[:, 1]].astype(np.float32)
    return CompressedArchive(method, eps_max, g.dims, g.domain_mask, tuple(splits),
                             tuple(records), leftover)


DECOMPRESS_CASES = {
    "uniform": lambda m: compress_dataset(small_field(), m, 0.5, 4, 4)[0],
    "remainder": lambda m: compress_dataset(small_field(dims=(32, 24, 4, 10)), m, 0.5, 4, 3)[0],
    "hand_tiled": lambda m: hand_tiled_archive(m, [(0, 2), (2, 7), (7, 12), (12, 15)]),
    # equal lengths apart in time: runs [0, 1], [2] and [3]
    "hand_tiled_apart": lambda m: hand_tiled_archive(m, [(0, 2), (2, 4), (4, 9), (9, 11)]),
    "leftover_only": lambda m: compress_dataset(small_field(dims=(12, 10, 2, 6)), m, 0.5, 64)[0],
}


@pytest.mark.parametrize("case", DECOMPRESS_CASES)
@pytest.mark.parametrize("method", METHODS)
def test_decompress_matches_per_record_reference_bitwise(method, case):
    archive = DECOMPRESS_CASES[case](method)
    assert (archive.blocks == ()) == (case == "leftover_only")
    out = decompress_dataset(archive)
    assert out.values.tobytes() == reference_decompress(archive).tobytes()


@pytest.mark.parametrize("method", METHODS)
def test_decompress_run_buffer_within_one_split_peak(method):
    # a run of 16 intervals is gathered in one buffer, at most the
    # rectangle's full-time slab: the block a single split rebuilds, so
    # only one of the run's own blocks is held beyond that
    g = synth(SynthSpec(dims=(72, 54, 16, 128), seed=0, noise=0.02))
    peaks = {}
    for n_splits, eps_max in ((1, 0.5), (16, 0.25)):
        archive, _ = compress_dataset(g, method, eps_max, 8, n_splits)
        tracemalloc.start()
        try:
            decompress_dataset(archive)
            peaks[n_splits] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    block = max(8 * math.prod(rec.fac.dims) for rec in archive.blocks)
    assert peaks[16] <= peaks[1] + block
    # beyond the field, one rectangle's slab and its temporaries: a buffer
    # or block of the previous rectangle still held would add a second slab
    slab = 16 * block
    assert max(peaks.values()) < g.values.nbytes + 1.5 * slab
