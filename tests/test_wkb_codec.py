"""The batched WKB codec against the per-row oracle (``tests/wkb_oracle.py``):
all five GeometryArray arrays on decode, the bytes on encode."""

import struct

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import assume, given, settings, strategies as st

from geopolars_ray.geom import GeometryArray, decode_wkb, encode_wkb
from geopolars_ray.geom.array import LINEARRING, LINESTRING, MISSING
from wkb_oracle import decode_wkb_rows, encode_wkb_rows

coord = st.floats(allow_nan=True, allow_infinity=True, width=64)
pt = st.tuples(coord, coord)
ring = st.lists(pt, min_size=0, max_size=6)
byte_order = st.sampled_from("<>")


@st.composite
def body(draw, code):
    """The WKB of one geometry of ``code`` after its header."""
    order = draw(byte_order)
    if code == 1:
        x, y = draw(pt)
        return struct.pack(order + "BI2d", order == "<", 1, x, y)
    if code == 2:
        c = draw(ring)
        return struct.pack(order + "BII", order == "<", 2, len(c)) + b"".join(struct.pack(order + "2d", *p) for p in c)
    if code == 3:
        rings = draw(st.lists(ring, max_size=3))
        out = struct.pack(order + "BII", order == "<", 3, len(rings))
        for c in rings:
            out += struct.pack(order + "I", len(c)) + b"".join(struct.pack(order + "2d", *p) for p in c)
        return out
    # MULTI*: each part carries its own byte order, and the oracle accepts
    # any part type 1-3 inside any MULTI*
    parts = draw(st.lists(st.sampled_from([code - 3, code - 3, 1, 2, 3]).flatmap(body), max_size=3))
    return struct.pack(order + "BII", order == "<", code, len(parts)) + b"".join(parts)


wkb_row = st.one_of(
    st.none(),
    st.binary(max_size=4),
    st.integers(1, 6).flatmap(body),
)


def _column(rows, large, pad):
    """A binary column of ``rows``, sliced out of a padded one when ``pad``."""
    typ = pa.large_binary() if large else pa.binary()
    full = [b"\x01\x03\x00\x00\x00"] * pad + list(rows) + [b"\x00"] * pad
    return pa.array(full, type=typ).slice(pad, len(rows))


def _assert_same_geoms(got: GeometryArray, want: GeometryArray):
    for name in ("types", "geom_offsets", "part_offsets", "ring_offsets"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    assert got.coords.shape == want.coords.shape
    # bit for bit, NaN payloads included
    np.testing.assert_array_equal(got.coords.view(np.uint64), np.ascontiguousarray(want.coords, "<f8").view(np.uint64))


def _assert_same_wkb(ga: GeometryArray, large: bool):
    try:
        want = encode_wkb_rows(ga, large=large)
    except IndexError:  # a point-like part whose ring holds no coordinate
        assume(False)
    got = encode_wkb(ga, large=large)
    assert got.type == want.type
    assert got.equals(want)


@settings(max_examples=200, deadline=None)
@given(st.lists(wkb_row, max_size=10), st.booleans(), st.integers(0, 2))
def test_decode_equals_row_oracle(rows, large, pad):
    arr = _column(rows, large, pad)
    _assert_same_geoms(decode_wkb(arr), decode_wkb_rows(arr))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(body), st.booleans())
def test_decode_uniform_records_equals_row_oracle(blob, large):
    """A long column of one repeated record takes the tiled (n, record) path."""
    arr = _column([blob] * 600, large, 0)
    _assert_same_geoms(decode_wkb(arr), decode_wkb_rows(arr))


@settings(max_examples=150, deadline=None)
@given(st.lists(wkb_row, max_size=8), st.booleans(), st.integers(0, 2), st.data())
def test_encode_equals_row_oracle(rows, large, pad, data):
    ga = decode_wkb_rows(_column(rows, large, pad))
    # open and closed rings written as LINEARRING repeat their first coord
    lines = np.flatnonzero(ga.types == LINESTRING)
    if len(lines):
        ga.types[data.draw(st.sampled_from(list(lines)))] = LINEARRING
    # rows from the middle: geometry offsets that do not start at 0
    i = data.draw(st.integers(0, len(ga)))
    ga = GeometryArray(ga.types[i:], ga.geom_offsets[i:], ga.part_offsets, ga.ring_offsets, ga.coords)
    _assert_same_wkb(ga, large)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(body), st.sets(st.integers(0, 599), max_size=5))
def test_encode_uniform_records_equals_row_oracle(blob, missing):
    """A long column of one repeated shape, missing rows among it, takes the
    tiled path; a missing row may keep its parts, as kernel outputs do."""
    ga = decode_wkb_rows(pa.array([blob] * 600, type=pa.binary()))
    ga.types[sorted(missing)] = MISSING
    _assert_same_wkb(ga, False)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 6).flatmap(body), min_size=1, max_size=6), st.data())
def test_truncated_or_padded_rows_match_row_oracle(rows, data):
    """Cutting bytes off a row raises naming the same first row as the
    oracle; bytes past a row's geometry are ignored by both."""
    rows = list(rows)
    i = data.draw(st.integers(0, len(rows) - 1))
    cut = data.draw(st.integers(-3, len(rows[i]) - 5))
    rows[i] = rows[i][:cut] if cut > 0 else rows[i] + b"\x07" * -cut
    arr = pa.array(rows, type=pa.binary())
    try:
        want = decode_wkb_rows(arr)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            decode_wkb(arr)
        assert str(got.value) == str(e)
    else:
        _assert_same_geoms(decode_wkb(arr), want)


@pytest.mark.parametrize("code", [1001, 2001, 3003, 0x20000001, 0x80000003, 0, 7])
def test_z_m_and_ewkb_codes_are_rejected(code):
    point = struct.pack("<BI2d", 1, 1, 5.0, 6.0)
    odd = struct.pack("<BI2d", 1, code, 1.0, 2.0)
    with pytest.raises(ValueError, match=f"unsupported WKB type code {code} at row 1"):
        decode_wkb(pa.array([point, odd, point], type=pa.binary()))
    multi = struct.pack("<BII", 1, 4, 1) + odd
    with pytest.raises(ValueError, match=f"unsupported sub-geometry WKB type {code} at row 0"):
        decode_wkb(pa.array([multi, point], type=pa.binary()))


def test_point_column_round_trip_is_uniform_and_bit_exact():
    rng = np.random.default_rng(7)
    xy = rng.normal(size=(1000, 2)) * 1e3
    xy[3] = np.nan
    ga = GeometryArray.from_points(xy[:, 0], xy[:, 1])
    arr = encode_wkb(ga)
    assert arr.equals(encode_wkb_rows(ga))
    _assert_same_geoms(decode_wkb(arr), decode_wkb_rows(arr))
    be = pa.array([struct.pack(">BI2d", 0, 1, *p) for p in xy[:50]], type=pa.binary())
    _assert_same_geoms(decode_wkb(be), decode_wkb_rows(be))
