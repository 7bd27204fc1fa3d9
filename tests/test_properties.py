"""Property-based checks for the pure combinatorial pieces."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tenblock.completion import update_rank
from tenblock.formats import _decode_rle, _encode_rle
from tenblock.partition import temporal_split
from tenblock.tensor_core import frobenius_norm
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
