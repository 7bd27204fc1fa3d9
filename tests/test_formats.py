import json
import os
import struct

import numpy as np
import pytest

from tenblock.formats import (
    FormatError,
    _decode_rle,
    _encode_rle,
    read_gsa,
    read_gst,
    write_gsa,
    write_gst,
)
from tenblock.pipeline import compress_dataset, decompress_dataset
from tenblock.synth import SynthSpec, synth
from tenblock.tensor_core import chebyshev_norm

PREFIX = struct.Struct("<4sIQ")


def split_blob(blob):
    magic, version, hlen = PREFIX.unpack_from(blob)
    header = json.loads(blob[PREFIX.size:PREFIX.size + hlen])
    payload = blob[PREFIX.size + hlen:]
    return magic, version, header, payload


def join_blob(magic, version, header, payload):
    raw = json.dumps(header).encode()
    return PREFIX.pack(magic, version, len(raw)) + raw + payload


def small_field(seed=7):
    return synth(SynthSpec(dims=(24, 20, 3, 12), seed=seed))


def test_gst_roundtrip_bit_exact(tmp_path):
    g = small_field()
    path = tmp_path / "field.gst"
    write_gst(g, str(path))
    back = read_gst(str(path))
    assert back.dims == g.dims
    np.testing.assert_array_equal(back.domain_mask, g.domain_mask)
    np.testing.assert_array_equal(back.values, g.values)


def test_gst_write_is_deterministic(tmp_path):
    g = small_field()
    p1, p2 = tmp_path / "a.gst", tmp_path / "b.gst"
    write_gst(g, str(p1))
    write_gst(g, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_gst_rejects_wrong_magic(tmp_path):
    g = small_field()
    path = tmp_path / "field.gst"
    write_gst(g, str(path))
    blob = path.read_bytes()
    path.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError):
        read_gst(str(path))


def test_gst_rejects_unknown_version(tmp_path):
    g = small_field()
    path = tmp_path / "field.gst"
    write_gst(g, str(path))
    magic, version, header, payload = split_blob(path.read_bytes())
    path.write_bytes(join_blob(magic, 99, header, payload))
    with pytest.raises(FormatError):
        read_gst(str(path))


def test_gst_rejects_truncated_payload(tmp_path):
    g = small_field()
    path = tmp_path / "field.gst"
    write_gst(g, str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(FormatError):
        read_gst(str(path))


def test_gst_rejects_dims_payload_mismatch(tmp_path):
    g = small_field()
    path = tmp_path / "field.gst"
    write_gst(g, str(path))
    magic, version, header, payload = split_blob(path.read_bytes())
    header["dims"] = [1, 2, 3, 4]
    path.write_bytes(join_blob(magic, version, header, payload))
    with pytest.raises(FormatError):
        read_gst(str(path))


def test_gst_rejects_partial_nan_column(tmp_path):
    g = small_field()
    path = tmp_path / "field.gst"
    write_gst(g, str(path))
    magic, version, header, payload = split_blob(path.read_bytes())
    vals = np.frombuffer(payload, dtype="<f4").copy()
    nx, ny, nl, nt = g.dims
    ij = np.argwhere(g.domain_mask)[0]
    # poison one level of one defined column: NaN at (i, j, 0, 1) only
    flat = ij[0] + nx * (ij[1] + ny * (0 + nl * 1))
    vals[flat] = np.nan
    path.write_bytes(join_blob(magic, version, header, vals.tobytes()))
    with pytest.raises(FormatError):
        read_gst(str(path))


def test_gst_missing_file():
    with pytest.raises(OSError):
        read_gst("/nonexistent/field.gst")


def test_rle_roundtrip_random_masks():
    rng = np.random.default_rng(0)
    for trial in range(20):
        mask = rng.random((rng.integers(1, 30), rng.integers(1, 30))) < rng.random()
        runs = _encode_rle(mask)
        assert all(r >= 0 for r in runs)
        back = _decode_rle(runs, mask.shape)
        np.testing.assert_array_equal(back, mask)


def test_rle_edge_cases():
    ones = np.ones((3, 4), dtype=bool)
    runs = _encode_rle(ones)
    assert runs[0] == 0  # leading False-count is zero
    np.testing.assert_array_equal(_decode_rle(runs, (3, 4)), ones)
    zeros = np.zeros((2, 5), dtype=bool)
    np.testing.assert_array_equal(_decode_rle(_encode_rle(zeros), (2, 5)), zeros)


def test_rle_rejects_wrong_total():
    with pytest.raises(FormatError):
        _decode_rle([3, 2], (2, 5))
    with pytest.raises(FormatError):
        _decode_rle([-1, 11], (2, 5))


@pytest.mark.parametrize("method,splits", [("tucker", 1), ("tt", 2), ("qtt", 1)])
def test_gsa_roundtrip(tmp_path, method, splits):
    g = small_field()
    archive, report = compress_dataset(g, method, 0.5, s_min=4, n_splits=splits)
    path = tmp_path / "arch.gsa"
    metrics = {"cr_all": report.cr_all, "max_cheb_error": report.max_cheb_error}
    write_gsa(archive, str(path), metrics=metrics)
    back, got_metrics = read_gsa(str(path))

    assert back.method == archive.method
    assert back.eps_max == archive.eps_max
    assert back.dims == archive.dims
    assert back.splits == archive.splits
    np.testing.assert_array_equal(back.domain_mask, archive.domain_mask)
    np.testing.assert_array_equal(back.leftover_values, archive.leftover_values)
    assert len(back.blocks) == len(archive.blocks)
    for a, b in zip(archive.blocks, back.blocks):
        assert a.rect == b.rect and a.interval == b.interval
    assert got_metrics == pytest.approx(metrics)

    # the restored archive still meets the budget
    restored = decompress_dataset(back)
    err = chebyshev_norm(
        np.nan_to_num(restored.values - g.values), g.domain_mask[:, :, None, None])
    assert err <= 0.5


def test_gsa_rewrite_byte_identical(tmp_path):
    g = small_field()
    archive, _ = compress_dataset(g, "tt", 0.5, s_min=4)
    p1, p2 = tmp_path / "a.gsa", tmp_path / "b.gsa"
    write_gsa(archive, str(p1))
    back, _ = read_gsa(str(p1))
    write_gsa(back, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def gsa_blob_parts(tmp_path, method="tucker"):
    g = small_field()
    archive, _ = compress_dataset(g, method, 0.5, s_min=4)
    path = tmp_path / "arch.gsa"
    write_gsa(archive, str(path))
    return path, split_blob(path.read_bytes())


def test_gsa_rejects_truncated_payload(tmp_path):
    path, _ = gsa_blob_parts(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(FormatError):
        read_gsa(str(path))


def test_gsa_rejects_tampered_offsets(tmp_path):
    path, (magic, version, header, payload) = gsa_blob_parts(tmp_path)
    header["blocks"][0]["arrays"][0]["offset"] += 1
    path.write_bytes(join_blob(magic, version, header, payload))
    with pytest.raises(FormatError):
        read_gsa(str(path))


def test_gsa_rejects_bad_interval(tmp_path):
    path, (magic, version, header, payload) = gsa_blob_parts(tmp_path)
    header["blocks"][0]["interval"] = 5
    path.write_bytes(join_blob(magic, version, header, payload))
    with pytest.raises(FormatError):
        read_gsa(str(path))


def test_gsa_rejects_block_outside_mask(tmp_path):
    path, (magic, version, header, payload) = gsa_blob_parts(tmp_path)
    header["blocks"][0]["rect"] = [0, 5000, 0, 5000]
    path.write_bytes(join_blob(magic, version, header, payload))
    with pytest.raises(FormatError):
        read_gsa(str(path))


def test_gsa_rejects_leftover_count_mismatch(tmp_path):
    path, (magic, version, header, payload) = gsa_blob_parts(tmp_path)
    header["leftover"]["cells"] += 1
    path.write_bytes(join_blob(magic, version, header, payload))
    with pytest.raises(FormatError):
        read_gsa(str(path))


def test_gsa_rejects_counts_mismatch(tmp_path):
    path, (magic, version, header, payload) = gsa_blob_parts(tmp_path)
    header["counts"]["payload_elements"] += 3
    path.write_bytes(join_blob(magic, version, header, payload))
    with pytest.raises(FormatError):
        read_gsa(str(path))


def test_gsa_rejects_unknown_method(tmp_path):
    path, (magic, version, header, payload) = gsa_blob_parts(tmp_path)
    header["method"] = "zip"
    path.write_bytes(join_blob(magic, version, header, payload))
    with pytest.raises(FormatError):
        read_gsa(str(path))


def test_gsa_rejects_duplicate_block(tmp_path):
    path, (magic, version, header, payload) = gsa_blob_parts(tmp_path)
    header["blocks"][1] = header["blocks"][0]
    path.write_bytes(join_blob(magic, version, header, payload))
    with pytest.raises(FormatError):
        read_gsa(str(path))


def test_gsa_rejects_gst_file_and_vice_versa(tmp_path):
    g = small_field()
    gst = tmp_path / "x.gst"
    write_gst(g, str(gst))
    with pytest.raises(FormatError):
        read_gsa(str(gst))
    archive, _ = compress_dataset(g, "tucker", 0.5, s_min=4)
    gsa = tmp_path / "x.gsa"
    write_gsa(archive, str(gsa))
    with pytest.raises(FormatError):
        read_gst(str(gsa))


def test_writes_are_atomic_no_temp_litter(tmp_path):
    g = small_field()
    write_gst(g, str(tmp_path / "a.gst"))
    archive, _ = compress_dataset(g, "tucker", 0.5, s_min=4)
    write_gsa(archive, str(tmp_path / "a.gsa"))
    assert sorted(os.listdir(tmp_path)) == ["a.gsa", "a.gst"]


def test_gsa_rejects_blocks_of_another_kind(tmp_path):
    path, (magic, version, header, payload) = gsa_blob_parts(tmp_path, "tt")
    header["method"] = "tucker"
    path.write_bytes(join_blob(magic, version, header, payload))
    with pytest.raises(FormatError, match="block kind 'tt' in a tucker archive"):
        read_gsa(str(path))


def set_shapes(block, shapes):
    """Give a block record new array shapes, with offsets that stay
    consistent within the record."""
    offset = block["arrays"][0]["offset"]
    block["arrays"] = []
    for shape in shapes:
        block["arrays"].append({"shape": list(shape), "offset": offset})
        offset += int(np.prod(shape))


def shapes_of(block):
    return [list(a["shape"]) for a in block["arrays"]]


def unknown_kind(block):
    block["kind"] = "zip"


def tucker_factor_extent(block):
    shapes = shapes_of(block)
    shapes[1][0] += 1
    set_shapes(block, shapes)


def tt_boundary_rank(block):
    shapes = shapes_of(block)
    shapes[0][0] = 2
    set_shapes(block, shapes)


def tt_rank_mismatch(block):
    shapes = shapes_of(block)
    shapes[1][0] += 1
    set_shapes(block, shapes)


def qtt_mode_factor_product(block):
    block["mode_factors"][0].append(2)


@pytest.mark.parametrize("method,tamper,message", [
    ("tucker", unknown_kind, "block kind 'zip'"),
    ("tucker", tucker_factor_extent, "factor 0 shape"),
    ("tt", tt_boundary_rank, "boundary carriage ranks must be 1"),
    ("tt", tt_rank_mismatch, "carriage 1 rank mismatch"),
    ("qtt", qtt_mode_factor_product, "do not multiply"),
])
def test_gsa_rejects_bad_block_record(tmp_path, method, tamper, message):
    path, (magic, version, header, payload) = gsa_blob_parts(tmp_path, method)
    tamper(header["blocks"][0])
    path.write_bytes(join_blob(magic, version, header, payload))
    with pytest.raises(FormatError, match=message):
        read_gsa(str(path))
