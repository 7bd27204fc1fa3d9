import json
import struct

import numpy as np
import pytest

from tenblock import cli
from tenblock.cli import main
from tenblock.formats import read_gsa, read_gst, write_gst
from tenblock.pipeline import leftover_cells
from tenblock.tensor_core import GappyTensor4, chebyshev_norm

DIMS = "24x20x3x12"


def run(*argv):
    return main(list(argv))


def make_field(tmp_path, name="field.gst", seed=3):
    path = tmp_path / name
    assert run("synth", "--dims", DIMS, "--seed", str(seed),
               "--out", str(path)) == 0
    return path


def test_synth_writes_readable_file(tmp_path, capsys):
    path = make_field(tmp_path)
    out = capsys.readouterr().out
    assert str(path) in out
    g = read_gst(str(path))
    assert g.dims == (24, 20, 3, 12)


def test_synth_deterministic_bytes(tmp_path):
    a = make_field(tmp_path, "a.gst")
    b = make_field(tmp_path, "b.gst")
    assert a.read_bytes() == b.read_bytes()


def test_partition_prints_blocks_and_writes_json(tmp_path, capsys):
    field = make_field(tmp_path)
    out_json = tmp_path / "blocks.json"
    assert run("partition", "--in", str(field), "--s-min", "4",
               "--out", str(out_json)) == 0
    text = capsys.readouterr().out
    assert "block" in text
    blocks = json.loads(out_json.read_text())["blocks"]
    assert blocks
    for x0, x1, y0, y1 in blocks:
        assert x1 - x0 >= 4 and y1 - y0 >= 4


def test_compress_decompress_stats_flow(tmp_path, capsys):
    field = make_field(tmp_path)
    arch = tmp_path / "field.gsa"
    report = tmp_path / "report.json"
    assert run("compress", "--in", str(field), "--method", "tt",
               "--eps-max", "0.5", "--s-min", "4",
               "--out", str(arch), "--report-out", str(report)) == 0
    rep = json.loads(report.read_text())
    assert rep["method"] == "tt"
    assert rep["max_cheb_error"] <= 0.5

    restored = tmp_path / "restored.gst"
    assert run("decompress", "--in", str(arch), "--out", str(restored)) == 0
    orig = read_gst(str(field))
    back = read_gst(str(restored))
    err = chebyshev_norm(np.nan_to_num(back.values - orig.values),
                         orig.domain_mask[:, :, None, None])
    assert err <= 0.5

    capsys.readouterr()
    assert run("stats", "--in", str(arch)) == 0
    text = capsys.readouterr().out
    assert "method" in text and "tt" in text
    assert run("stats", "--in", str(field)) == 0
    text = capsys.readouterr().out
    assert "defined cells" in text


def test_compress_and_stats_print_bytes(tmp_path, capsys):
    # the written archive's size and cr_bytes, the raw float32 bytes of
    # the defined cells over it, after compress's report and in stats
    field = make_field(tmp_path)
    arch = tmp_path / "field.gsa"
    capsys.readouterr()
    assert run("compress", "--in", str(field), "--method", "tucker", "--eps-max", "0.5",
               "--s-min", "4", "--out", str(arch)) == 0
    compress_out = capsys.readouterr().out
    assert run("stats", "--in", str(arch)) == 0
    stats_out = capsys.readouterr().out
    size = arch.stat().st_size
    cr_bytes = 4 * read_gst(str(field)).defined_count / size
    for out in (compress_out, stats_out):
        lines = dict(line.rsplit(maxsplit=1) for line in out.splitlines()
                     if line.startswith(("archive bytes ", "cr_bytes ")))
        assert int(lines["archive bytes"]) == size
        assert float(lines["cr_bytes"]) == pytest.approx(cr_bytes, rel=1e-5)
    assert compress_out.splitlines()[-2:] == [f"{'archive bytes':<22}{size}",
                                              f"{'cr_bytes':<22}{cr_bytes:.6g}"]


def test_stats_prints_records_and_the_leftover(tmp_path, capsys):
    # the record count, rectangles' and leftover's, and the leftover's
    # cells and stored elements, before the archive's stored elements
    field = make_field(tmp_path)
    arch = tmp_path / "field.gsa"
    assert run("compress", "--in", str(field), "--method", "tt", "--eps-max", "0.5",
               "--s-min", "4", "--splits", "2", "--out", str(arch)) == 0
    archive, _ = read_gsa(str(arch))
    rects = [rec.rect for rec in archive.blocks if rec.rect is not None]
    cells = len(leftover_cells(archive.domain_mask, rects))
    assert cells > 0 and len(archive.blocks) == len(rects) + 1
    capsys.readouterr()
    assert run("stats", "--in", str(arch)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:5] == [f"{'records':<22}{len(rects) + 1}",
                          f"{'leftover cells':<22}{cells}",
                          f"{'leftover elements':<22}{cells * 3 * 12}",
                          f"{'stored elements':<22}{archive.stored_elements}"]


@pytest.mark.parametrize("what", ["GST", "GSA"])
def test_stats_of_a_version_1_file_exits_one(tmp_path, capsys, what):
    path = make_field(tmp_path)
    if what == "GSA":
        field, path = path, tmp_path / "field.gsa"
        assert run("compress", "--in", str(field), "--method", "tt", "--eps-max", "0.5",
                   "--s-min", "4", "--out", str(path)) == 0
    blob = path.read_bytes()
    path.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])
    capsys.readouterr()
    assert run("stats", "--in", str(path)) == 1
    version = {"GST": 2, "GSA": 3}[what]
    assert (capsys.readouterr().err
            == f"error: unsupported {what} version 1, this reader reads version {version}\n")


def test_stats_of_an_all_land_field(tmp_path, capsys):
    # no defined cell, so no value range to print
    path = tmp_path / "land.gst"
    write_gst(GappyTensor4(np.full((4, 3, 2, 2), np.nan), np.zeros((4, 3), dtype=bool)),
              str(path))
    assert run("stats", "--in", str(path)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "GST dims 4x3x2x2"
    assert lines[1].split()[2] == "0"
    assert lines[2].split()[2] == "absent"


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_archive_of_no_rectangles_writes_strict_json(tmp_path, capsys):
    # no 64x64 rectangle fits a 16x12 grid, so CR_sub is undefined: the GSA
    # metrics and the report hold null for it, not the token NaN
    field = tmp_path / "field.gst"
    assert run("synth", "--dims", "16x12x3x8", "--out", str(field)) == 0
    arch, report = tmp_path / "field.gsa", tmp_path / "report.json"
    assert run("compress", "--in", str(field), "--method", "tucker", "--eps-max", "0.5",
               "--s-min", "64", "--out", str(arch), "--report-out", str(report)) == 0
    blob = arch.read_bytes()
    prefix = struct.Struct("<4sIQ")
    header = strict_json(blob[prefix.size:prefix.size + prefix.unpack_from(blob)[2]])
    [record] = header["records"]
    assert record["rect"] is None and header["metrics"]["cr_sub"] is None
    assert strict_json(report.read_text())["cr_sub"] is None
    capsys.readouterr()
    assert run("stats", "--in", str(arch)) == 0
    text = capsys.readouterr().out
    assert "cr_all" in text and "cr_sub" not in text


def test_compress_qtt_small_mask_leftover_heavy(tmp_path):
    field = make_field(tmp_path, seed=9)
    arch = tmp_path / "q.gsa"
    assert run("compress", "--in", str(field), "--method", "qtt",
               "--eps-max", "0.5", "--s-min", "8", "--out", str(arch)) == 0
    restored = tmp_path / "restored.gst"
    assert run("decompress", "--in", str(arch), "--out", str(restored)) == 0


def test_sweep_report(tmp_path, capsys):
    field = make_field(tmp_path)
    report = tmp_path / "sweep.json"
    assert run("sweep", "--in", str(field), "--method", "tucker",
               "--eps-max", "0.5", "--s-min", "4", "--splits", "1,2,4",
               "--report-out", str(report)) == 0
    rows = json.loads(report.read_text())
    assert [r["n_splits"] for r in rows] == [1, 2, 4]
    text = capsys.readouterr().out
    assert len([ln for ln in text.splitlines() if ln.strip()]) >= 4


def test_complete_runs_and_writes_trace(tmp_path, capsys):
    field = make_field(tmp_path)
    trace = tmp_path / "trace.txt"
    assert run("complete", "--in", str(field), "--cr", "4",
               "--caps", "6,6,3,6", "--max-iters", "30",
               "--trace-out", str(trace)) == 0
    text = capsys.readouterr().out
    assert "masked" in text
    lines = [ln for ln in trace.read_text().splitlines()
             if ln and not ln.startswith("#")]
    assert len(lines) == 30
    parts = lines[0].split()
    assert len(parts) == 3
    float(parts[1]), float(parts[2])


@pytest.mark.parametrize("cr, seed", [(3, 5), (1, 0), (7.5, 11)])
def test_complete_sample_matches_the_broadcast_mask_draw(tmp_path, monkeypatch, cr, seed):
    # the observed cells are the draw over an argwhere of the whole
    # broadcast 4-D mask, although the CLI never builds that argwhere
    dims = (16, 12, 3, 8)
    mask = np.random.default_rng(3).random(dims[:2]) < 0.6
    values = np.where(mask[:, :, None, None], np.ones(dims), np.nan)
    write_gst(GappyTensor4(values, mask), str(tmp_path / "f.gst"))
    seen = []
    real = cli.svp_complete

    def spy(observed, omega, *args, **kwargs):
        seen.append(omega)
        return real(observed, omega, *args, **kwargs)

    monkeypatch.setattr(cli, "svp_complete", spy)
    assert run("complete", "--in", str(tmp_path / "f.gst"), "--cr", str(cr),
               "--seed", str(seed), "--caps", "1,1,1,1", "--max-iters", "1") == 0

    defined = np.argwhere(np.broadcast_to(mask[:, :, None, None], dims))
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(defined), size=int(len(defined) // cr), replace=False)
    expected = np.zeros(dims, dtype=bool)
    expected[tuple(defined[picked].T)] = True
    np.testing.assert_array_equal(seen[0], expected)


def test_complete_default_caps_fit_a_field_of_three_levels(tmp_path, capsys):
    # the default caps 5,5,4,5 are clipped to the extents, here 3 levels;
    # explicit caps past an extent are still an error
    field = tmp_path / "f.gst"
    assert run("synth", "--dims", "16x12x3x8", "--out", str(field)) == 0
    seen = []
    real = cli.svp_complete
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "svp_complete", lambda *a, **kw: seen.append(a[2]) or real(*a, **kw))
        assert run("complete", "--in", str(field), "--cr", "3", "--seed", "5") == 0
    assert seen[0].target_ranks == (5, 5, 3, 5)
    assert "masked rel error" in capsys.readouterr().out
    assert run("complete", "--in", str(field), "--cr", "3", "--caps", "5,5,4,5") == 1
    assert "exceeds its extent 3" in capsys.readouterr().err


@pytest.mark.parametrize("cr", ["0", "nan", "0.5"])
def test_complete_rejects_bad_cr(tmp_path, capsys, cr):
    # a ratio that is not a finite number >= 1 is a usage error, not a
    # traceback or a conversion message from deep inside the run
    field = make_field(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run("complete", "--in", str(field), "--cr", cr)
    assert exc.value.code == 2
    assert "--cr" in capsys.readouterr().err


def test_missing_input_exits_one(tmp_path, capsys):
    assert run("stats", "--in", str(tmp_path / "nope.gst")) == 1
    assert "error:" in capsys.readouterr().err


def test_corrupt_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.gst"
    bad.write_bytes(b"not a dataset")
    assert run("stats", "--in", str(bad)) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_method_exits_two(tmp_path):
    field = make_field(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run("compress", "--in", str(field), "--method", "zip",
            "--eps-max", "0.5", "--out", str(tmp_path / "x.gsa"))
    assert exc.value.code == 2


def test_bad_dims_string_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("synth", "--dims", "axb", "--out", str(tmp_path / "x.gst"))
    assert exc.value.code == 2


def test_no_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 2
