"""Property-based checks for the pure combinatorial pieces, and of the
read-back guarantee on small unfriendly fields."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tenblock.completion import update_rank
from tenblock.formats import _decode_rle, _encode_rle, read_gsa, write_gsa
from tenblock.partition import temporal_split
from tenblock.pipeline import METHODS, compress_dataset, decompress_dataset
from tenblock.tensor_core import GappyTensor4, frobenius_norm
from tenblock.tt import ttsvd


@given(st.integers(1, 300).flatmap(lambda t: st.tuples(st.just(t), st.integers(1, t))))
def test_temporal_split_properties(tn):
    t, n = tn
    parts = temporal_split(t, n)
    assert len(parts) == n
    assert parts[0][0] == 0 and parts[-1][1] == t
    lengths = [b - a for a, b in parts]
    assert all(l >= 1 for l in lengths)
    for (a0, a1), (b0, b1) in zip(parts, parts[1:]):
        assert a1 == b0
    # base length everywhere, remainder absorbed by the last interval
    assert len(set(lengths[:-1])) <= 1
    assert lengths[-1] >= lengths[0]


@given(
    st.integers(1, 20), st.integers(1, 20),
    st.floats(0.0, 1.0), st.integers(0, 2**31 - 1),
)
def test_rle_roundtrip_property(nx, ny, density, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((nx, ny)) < density
    runs = _encode_rle(mask)
    assert all(r >= 0 for r in runs)
    assert sum(runs) == mask.size
    np.testing.assert_array_equal(_decode_rle(runs, mask.shape), mask)


@given(
    st.lists(st.integers(2, 6), min_size=3, max_size=4),
    st.floats(1e-4, 0.5),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_ttsvd_tolerance_property(shape, eps, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(tuple(shape))
    f = ttsvd(x, tol=eps)
    rel = frobenius_norm(f.reconstruct() - x) / frobenius_norm(x)
    assert rel <= eps


@given(
    st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=5),
    st.integers(1, 4),
)
def test_update_rank_property(pairs, delta):
    r = [min(a, b) for a, b in pairs]
    caps = [max(a, b) for a, b in pairs]
    out = update_rank(r, delta, caps)
    assert all(o <= c for o, c in zip(out, caps))
    assert all(o >= x for o, x in zip(out, r))
    # iterating reaches the caps
    cur = list(r)
    for _ in range(20):
        cur = update_rank(cur, delta, caps)
    assert cur == caps


FIELD_KINDS = ("noise", "constant", "spike", "offset", "walk", "rank1")


def _field(kind: str, shape, scale: float, rng) -> np.ndarray:
    # a dense (nx, ny, L, T) field of one of FIELD_KINDS
    if kind == "noise":
        return scale * rng.standard_normal(shape)
    if kind == "constant":
        return np.full(shape, scale * rng.standard_normal())
    if kind == "spike":
        v = np.zeros(shape)
        v[tuple(rng.integers(n) for n in shape)] = 1e6 * rng.random()
        return v
    if kind == "offset":
        return 1e4 + scale * rng.standard_normal(shape)
    if kind == "walk":
        return np.cumsum(scale * rng.standard_normal(shape), axis=3)
    vectors = [rng.standard_normal(n) for n in shape]
    return 100.0 * np.einsum("i,j,k,t->ijkt", *vectors)


@st.composite
def _compress_cases(draw):
    nx, ny = draw(st.integers(1, 19)), draw(st.integers(1, 19))
    nl, nt = draw(st.integers(1, 4)), draw(st.integers(1, 19))
    method = draw(st.sampled_from(METHODS))
    s_min = draw(st.sampled_from((1, 2, 4)) if method == "qtt" else st.integers(1, 4))
    return dict(
        shape=(nx, ny, nl, nt), density=draw(st.floats(0.5, 1.0)),
        kind=draw(st.sampled_from(FIELD_KINDS)), scale=10.0 ** draw(st.floats(-3.0, 4.0)),
        seed=draw(st.integers(0, 2**31 - 1)), method=method,
        eps_max=10.0 ** draw(st.floats(-3.0, 0.0)), s_min=s_min,
        n_splits=draw(st.integers(1, min(4, nt))))


@given(_compress_cases())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_read_back_within_budget_property(case):
    # compress -> write_gsa -> read_gsa -> decompress: every defined cell
    # reads back within eps_max, NaN lies exactly on land, and writing the
    # archive read back gives the same bytes.  Compress may refuse only
    # because float32 payloads cannot meet the budget.
    rng = np.random.default_rng(case["seed"])
    shape = case["shape"]
    mask = rng.random(shape[:2]) < case["density"]
    mask[tuple(rng.integers(n) for n in shape[:2])] = True
    values = _field(case["kind"], shape, case["scale"], rng)
    values[~mask] = np.nan
    eps_max = case["eps_max"]
    try:
        archive, _ = compress_dataset(GappyTensor4(values, mask), case["method"], eps_max,
                                      case["s_min"], case["n_splits"])
    except ValueError as e:
        assert "32-bit payloads cannot meet eps_max" in str(e)
        return
    with tempfile.TemporaryDirectory() as tmp:
        path, again = os.path.join(tmp, "a.gsa"), os.path.join(tmp, "b.gsa")
        write_gsa(archive, path)
        read, metrics = read_gsa(path)
        write_gsa(read, again, metrics)
        with open(path, "rb") as f, open(again, "rb") as g:
            assert f.read() == g.read()
    out = decompress_dataset(read).values
    land = np.broadcast_to(~mask[:, :, None, None], shape)
    np.testing.assert_array_equal(np.isnan(out), land)
    assert np.max(np.abs(out - values)[~land]) <= eps_max
