"""ISO WKB (xy) codec between Arrow binary columns and :class:`GeometryArray`.

The reference's geometry encoding is WKB-in-Binary
(``/root/reference/geopolars/geopolars-geo/src/util.rs:11-37``) decoded row by
row with a heap copy per geometry per op — called out as its key bottleneck
(``README.md:82-83``). Here both directions run once per batch, with no
per-geometry Python loop:

- decode walks the header tree level by level: each round reads the next
  header (a MULTI* part with its first ring, or a ring) of every row still
  open, all rows at once, and checks it against its row's end; a MULTIPOINT
  takes one round. One gather through a 16-byte-window view of the values
  buffer then reads every coordinate. The round count is the longest header
  chain of any row, so one row of many polygon or line parts costs a round
  per part;
- encode sizes every row, part and ring from the offsets, then scatters
  the headers and, through the same window view, the coordinates into one
  preallocated buffer;
- a column of at least ``_UNIFORM_MIN_ROWS`` records that share one layout
  (a point column, equal-size polygons) is the uniform-record case of both:
  the first record is walked or written alone and tiled, and the
  coordinates move through one strided view of all records.

Only little-endian WKB is emitted; both byte orders are accepted on decode,
per geometry and per part of a MULTI*. WKB type codes (1=Point …
6=MultiPolygon) are distinct from the pygeos-style ids used in
:mod:`geopolars_ray.geom.array`; Z, M and EWKB codes are rejected.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pyarrow as pa

from geopolars_ray.geom.array import (
    GeometryArray,
    MISSING,
    POINT,
    LINESTRING,
    LINEARRING,
    POLYGON,
    MULTIPOINT,
    MULTILINESTRING,
    MULTIPOLYGON,
)

# WKB geometry type code <-> internal type id
_WKB_TO_TYPE = {1: POINT, 2: LINESTRING, 3: POLYGON, 4: MULTIPOINT, 5: MULTILINESTRING, 6: MULTIPOLYGON}
_TYPE_TO_WKB = {v: k for k, v in _WKB_TO_TYPE.items()}
_TYPE_TO_WKB[LINEARRING] = 2  # no WKB LinearRing; serialize as LineString

_CODE_TYPE = np.full(7, MISSING, dtype=np.int8)  # WKB code -> type id
_TYPE_CODE = np.zeros(MULTIPOLYGON + 1, dtype=np.uint32)  # type id -> WKB code
for _code, _t in _WKB_TO_TYPE.items():
    _CODE_TYPE[_code] = _t
for _t, _code in _TYPE_TO_WKB.items():
    _TYPE_CODE[_t] = _code

_BYTE4 = np.arange(4)
# below this many rows the uniform-record case's fixed cost (one record
# walked or written on its own, then checked against the rest) is no
# cheaper than walking every row
_UNIFORM_MIN_ROWS = 512


def _binary_buffers(arr: pa.Array) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(offsets int64, values uint8, validity bool|None) for a binary array."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_large_binary(arr.type):
        off_dtype = np.int64
    elif pa.types.is_binary(arr.type):
        off_dtype = np.int32
    else:
        raise TypeError(f"expected (large_)binary geometry column, got {arr.type}")
    buffers = arr.buffers()
    validity = None
    if buffers[0] is not None and arr.null_count:
        bits = np.frombuffer(buffers[0], dtype=np.uint8)
        validity = np.unpackbits(bits, bitorder="little")[arr.offset : arr.offset + len(arr)].astype(bool)
    offsets = np.frombuffer(buffers[1], dtype=off_dtype)[arr.offset : arr.offset + len(arr) + 1].astype(np.int64)
    values = np.frombuffer(buffers[2], dtype=np.uint8) if buffers[2] is not None else np.empty(0, np.uint8)
    return offsets, values, validity


def _excl_cumsum(counts: np.ndarray) -> np.ndarray:
    """int64[k+1]: 0, then the running sum of ``counts``."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _ragged(starts: np.ndarray, counts: np.ndarray, step: int = 1) -> np.ndarray:
    """int64: ``starts[k] + step * j`` for j < ``counts[k]``, runs concatenated."""
    first = _excl_cumsum(counts)
    return np.repeat(starts - step * first[:-1], counts) + step * np.arange(int(first[-1]))


def _coord_view(buf: np.ndarray) -> np.ndarray:
    """Every 16-byte window of ``buf`` as one item: item ``p`` is one xy
    coordinate stored at bytes [p, p + 16). A gather or scatter through it
    costs one index per coordinate, not per byte."""
    return np.ndarray(shape=(max(len(buf) - 15, 0),), dtype="V16", buffer=buf, strides=(1,))


def _record_coords(buf: np.ndarray, cpos: np.ndarray, n: int, size: int) -> tuple[np.ndarray, object]:
    """(array, index): ``array[index]`` is the (n, per record) grid of the
    coordinates of ``n`` records of ``size`` bytes laid end to end in
    ``buf``, the first record's at byte positions ``cpos``. A strided view
    when they form one run (points, lines, one-ring polygons), else a
    gather through :func:`_coord_view`."""
    if len(cpos) and cpos[-1] - cpos[0] == 16 * (len(cpos) - 1):
        return np.ndarray((n, len(cpos)), "V16", buf, int(cpos[0]), (size, 16)), slice(None)
    return _coord_view(buf), cpos + size * np.arange(n, dtype=np.int64)[:, None]


def _u32(values: np.ndarray, pos: np.ndarray, le: np.ndarray) -> np.ndarray:
    """int64: the uint32 at each byte position, in each position's byte order."""
    b = values[pos[:, None] + _BYTE4]
    if not le.all():
        b[~le] = b[~le, ::-1]
    return b.view("<u4").ravel().astype(np.int64)


def _u32_bytes(v: np.ndarray) -> np.ndarray:
    """(k, 4) uint8: each value as a little-endian uint32."""
    return v.astype("<u4").view(np.uint8).reshape(-1, 4)


def _swap_big_endian(raw: np.ndarray, le: np.ndarray) -> None:
    """Byte-swap in place the doubles of ``raw`` (8 bytes each) where not ``le``."""
    doubles = raw.reshape(-1, 8)
    doubles[~le] = doubles[~le, ::-1]


# ---------------------------------------------------------------------- decode


class _Layout(NamedTuple):
    """The header tree of some rows: their types, parts and rings, each in
    row order. Ring ``k`` holds ``ring_cnt[k]`` coordinates starting at byte
    ``ring_pos[k]`` of the values buffer, in byte order ``ring_le[k]``."""

    types: np.ndarray  # int8, one per walked row
    part_row: np.ndarray  # int64 row of each part
    part_off: np.ndarray  # int64[parts+1] -> rings
    ring_pos: np.ndarray
    ring_cnt: np.ndarray
    ring_le: np.ndarray


def _walk(values: np.ndarray, rows: np.ndarray, start: np.ndarray, end: np.ndarray) -> _Layout:
    """Read the header tree of ``rows`` (each at least 5 bytes) one level at a time.

    Every round reads one header per open row: a ring's count, or a MULTI*
    part's byte order, type code and count, with the coordinate extent that
    follows. Each read is checked against its row's end, so a count that
    runs past it cannot read the next row's bytes; the first failing row
    raises. Headers lie in byte order within and across rows, so sorting
    the records by byte position puts them in row order.
    """
    errors: list[tuple[np.ndarray, str, np.ndarray, np.ndarray]] = []
    parts: list[tuple[np.ndarray, np.ndarray]] = []  # (row, header position)
    rings: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (coordinate position, count, le)

    def need(r, req):
        bad = req > end[r]
        if bad.any():
            rb = r[bad]
            errors.append((rb, "truncated", req[bad] - start[rb], end[rb] - start[rb]))
        return ~bad

    def bad_code(r, code, hi, kind):
        bad = (code < 1) | (code > hi)
        if bad.any():
            errors.append((r[bad], kind, code[bad], code[bad]))
        return ~bad

    def keep(ok, *arrays):
        return arrays if ok.all() else tuple(a[ok] for a in arrays)

    def body(r, pos, le, code, carry):
        """Read what follows a header of ``code`` (1-6) that ends at ``pos``;
        returns the rows left open: (row, pos, le, rings left, parts left)."""
        pt = code == 1
        r, pos, le, code, carry = keep(need(r, pos + np.where(pt, 16, 4)), r, pos, le, code, carry)
        pt = code == 1
        cnt = np.where(pt, 1, _u32(values, pos, le))  # a point's read lies in its coordinate
        at = pos + 4 * ~pt
        one = pt | (code == 2)  # one run of ``cnt`` coordinates follows
        r, pos, le, code, carry, cnt, at, one = keep(
            need(r, at + 16 * cnt * one), r, pos, le, code, carry, cnt, at, one)
        single = code <= 3
        parts.append((r[single], pos[single] - 5))
        rings.append((at[one], cnt[one], le[one]))
        rings_left = np.where(code == 3, cnt, 0)
        parts_left = np.where(single, carry, cnt)
        return keep((rings_left > 0) | (parts_left > 0), r, at + 16 * cnt * one, le, rings_left, parts_left)

    pos = start[rows]
    le = values[pos] == 1
    code = _u32(values, pos + 1, le)
    ok = bad_code(rows, code, 6, "type")
    types = _CODE_TYPE[np.where(ok, code, 0)]
    r, pos, le, code = keep(ok, rows, pos + 5, le, code)
    cur = body(r, pos, le, code, np.zeros(len(r), np.int64))
    while len(cur[0]):
        ring = cur[3] > 0
        if not ring.all():
            # part headers of MULTI* rows: byte order, type code 1-3, body
            hr, hp, hpl = keep(~ring, cur[0], cur[1], cur[4])
            hr, hp, hpl = keep(need(hr, hp + 5), hr, hp, hpl)
            hle = values[hp] == 1
            sub = _u32(values, hp + 1, hle)
            hr, hp, hle, sub, hpl = keep(bad_code(hr, sub, 3, "sub"), hr, hp, hle, sub, hpl)
            # a point part whose siblings left are all points too (a
            # MULTIPOINT) ends its row in this round: when every 21st byte
            # from here heads a point, those are the headers the
            # part-by-part walk would read
            run = np.flatnonzero((sub == 1) & (hp + 21 * hpl <= end[hr]))
            if len(run):
                at = _ragged(hp[run], hpl[run], 21)
                ple = values[at] == 1
                whole = np.logical_and.reduceat(_u32(values, at + 1, ple) == 1, _excl_cumsum(hpl[run])[:-1])
                sel = np.repeat(whole, hpl[run])
                parts.append((np.repeat(hr[run[whole]], hpl[run[whole]]), at[sel]))
                rings.append((at[sel] + 5, np.ones(int(sel.sum()), np.int64), ple[sel]))
                rest = np.ones(len(hr), bool)
                rest[run[whole]] = False
                hr, hp, hle, sub, hpl = keep(rest, hr, hp, hle, sub, hpl)
            # a polygon part reads its first ring in the same round
            cur = tuple(np.concatenate(ab) for ab in zip(keep(ring, *cur), body(hr, hp + 5, hle, sub, hpl - 1)))
            ring = cur[3] > 0
        # ring headers: a count, then that many coordinates
        r, pos, le, rl, pl = keep(ring, *cur)
        r, pos, le, rl, pl = keep(need(r, pos + 4), r, pos, le, rl, pl)
        cnt = _u32(values, pos, le)
        r, pos, le, rl, pl, cnt = keep(need(r, pos + 4 + 16 * cnt), r, pos, le, rl, pl, cnt)
        rings.append((pos + 4, cnt, le))
        ring_cur = keep((rl > 1) | (pl > 0), r, pos + 4 + 16 * cnt, le, rl - 1, pl)
        cur = ring_cur if ring.all() else tuple(np.concatenate(ab) for ab in zip(keep(~ring, *cur), ring_cur))

    if errors:
        er, kind, a, b = min(errors, key=lambda e: int(e[0].min()))
        k = int(np.argmin(er))
        i, a, b = int(er[k]), int(a[k]), int(b[k])
        if kind == "truncated":
            raise ValueError(f"truncated WKB at row {i}: needs {a} bytes, has {b}")
        if kind == "type":
            raise ValueError(f"unsupported WKB type code {a} at row {i}")
        raise ValueError(f"unsupported sub-geometry WKB type {a} at row {i}")

    part_row, part_pos = (np.concatenate(x) for x in zip(*parts))
    ring_pos, ring_cnt, ring_le = (np.concatenate(x) for x in zip(*rings))
    po, ro = np.argsort(part_pos, kind="stable"), np.argsort(ring_pos, kind="stable")
    ring_pos = ring_pos[ro]
    # a part owns the rings between its header and the next part's header
    # (an empty ring's key, one byte before its coordinates, stays inside)
    part_off = np.append(np.searchsorted(ring_pos - 1, part_pos[po]), len(ring_pos))
    return _Layout(types, part_row[po], part_off, ring_pos, ring_cnt[ro], ring_le[ro])


def _decode_uniform(values: np.ndarray, offsets: np.ndarray, n: int) -> GeometryArray | None:
    """Decode ``n`` contiguous records of one length that all share the first
    record's headers, or None when they do not."""
    o0 = int(offsets[0])
    size = int(offsets[1]) - o0
    lay = _walk(values, np.zeros(1, np.int64), offsets[:1], offsets[1:2])
    raw = values[o0 : o0 + n * size].reshape(n, size)
    head = np.setdiff1d(np.arange(size), _ragged(lay.ring_pos - o0, 16 * lay.ring_cnt))
    # a short header compares column by column: one long strided pass each
    cols = head.tolist() if len(head) <= 32 else [head]
    if not all((raw[:, c] == raw[0, c]).all() for c in cols):
        return None
    c0 = int(lay.ring_cnt.sum())
    grid, at = _record_coords(values, _ragged(lay.ring_pos, lay.ring_cnt, 16), n, size)
    payload = (grid[at].copy() if isinstance(at, slice) else grid[at]).view(np.uint8)  # never a view of the input
    if not lay.ring_le.all():
        _swap_big_endian(payload, np.tile(np.repeat(lay.ring_le, 2 * lay.ring_cnt), n))
    p0, r0 = len(lay.part_row), len(lay.ring_cnt)
    ring_off0 = _excl_cumsum(lay.ring_cnt)
    return GeometryArray(
        types=np.full(n, lay.types[0], dtype=np.int8),
        geom_offsets=np.arange(n + 1, dtype=np.int64) * p0,
        part_offsets=_tile_offsets(lay.part_off, n, r0),
        ring_offsets=_tile_offsets(ring_off0, n, c0),
        coords=payload.view("<f8").reshape(-1, 2),
    )


def _tile_offsets(off: np.ndarray, n: int, step: int) -> np.ndarray:
    """Offsets of ``n`` copies of one record whose own offsets are ``off``."""
    if len(off) == 2:
        return np.arange(n + 1, dtype=np.int64) * step
    out = np.empty(n * (len(off) - 1) + 1, dtype=np.int64)
    out[:-1].reshape(n, -1)[:] = off[:-1] + step * np.arange(n, dtype=np.int64)[:, None]
    out[-1] = n * step
    return out


def decode_wkb(arr: pa.Array | pa.ChunkedArray) -> GeometryArray:
    """Decode an Arrow (large_)binary column of WKB into a GeometryArray.

    Missing rows and rows shorter than 5 bytes decode as MISSING.
    """
    offsets, values, validity = _binary_buffers(arr)
    n = len(offsets) - 1
    lens = offsets[1:] - offsets[:-1]
    live = lens >= 5
    if validity is not None:
        live &= validity
    if n >= _UNIFORM_MIN_ROWS and bool(live.all()) and bool((lens == lens[0]).all()):
        ga = _decode_uniform(values, offsets, n)
        if ga is not None:
            return ga

    rows = np.flatnonzero(live)
    lay = _walk(values, rows, offsets[:-1], offsets[1:])
    types = np.full(n, MISSING, dtype=np.int8)
    types[rows] = lay.types
    payload = _coord_view(values)[_ragged(lay.ring_pos, lay.ring_cnt, 16)].view(np.uint8)
    if not lay.ring_le.all():
        _swap_big_endian(payload, np.repeat(lay.ring_le, 2 * lay.ring_cnt))
    return GeometryArray(
        types=types,
        geom_offsets=_excl_cumsum(np.bincount(lay.part_row, minlength=n)),
        part_offsets=lay.part_off,
        ring_offsets=_excl_cumsum(lay.ring_cnt),
        coords=payload.view("<f8").reshape(-1, 2),
    )


# ---------------------------------------------------------------------- encode


# per type id + 1 (MISSING, POINT … MULTIPOLYGON): how a row of that type is written
_MULTI = np.array([0, 0, 0, 0, 0, 1, 1, 1], bool)
_POLYISH = np.array([0, 0, 0, 0, 1, 0, 0, 1], bool)  # parts of rings, each ring counted
_POINTISH = np.array([0, 1, 0, 0, 0, 1, 0, 0], bool)  # a part is one coordinate
_GEOM_HDR = np.array([0, 5, 9, 9, 9, 9, 9, 9])  # byte order, code, count unless a point
_PART_HDR = np.array([0, 0, 0, 0, 0, 5, 9, 9])  # the same for each part of a MULTI*
_RING_HDR = np.array([0, 0, 0, 0, 4, 0, 0, 4])
_CODE = np.append(0, _TYPE_CODE).astype(np.int64)


def _encode(ga: GeometryArray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(offsets int64[n+1], values uint8) of ``ga``'s WKB, and the byte
    start and count of every coordinate run written.

    Single-part types write their first part (a point or linestring its
    first ring); point-like parts write their ring's first coordinate; an
    open LINEARRING repeats its first coordinate at the end, as shapely
    writes a closed LineString.
    """
    ti = ga.types.astype(np.int64) + 1
    G, C = ga.geom_offsets, ga.coords
    P, R = ga.part_offsets, ga.ring_offsets
    n = len(ti)
    multi = _MULTI[ti]

    # the parts, rings and coordinates each row writes, in writing order
    nparts = np.where(multi, G[1:] - G[:-1], ti > 0)
    prow = np.repeat(np.arange(n), nparts)
    pfirst = _excl_cumsum(nparts)
    tp = ti[prow]
    pidx = G[prow] + np.arange(len(prow)) - pfirst[prow]
    nrings = np.where(_POLYISH[tp], P[np.minimum(pidx + 1, len(P) - 1)] - P[pidx], 1)
    rpart = np.repeat(np.arange(len(prow)), nrings)
    rfirst = _excl_cumsum(nrings)
    tr = tp[rpart]
    ridx = P[pidx[rpart]] + np.arange(len(rpart)) - rfirst[rpart]
    rs = R[np.minimum(ridx + np.array([[0], [1]]), len(R) - 1)]
    k = rs[1] - rs[0]
    rs = rs[0]
    ncoord = np.where(_POINTISH[tr], 1, k)
    closing = (tr == LINEARRING + 1) & (k > 0)
    if closing.any():
        lr = np.flatnonzero(closing)
        closing[lr] = (C[rs[lr]] != C[rs[lr] + k[lr] - 1]).any(axis=1)
        ncoord = ncoord + closing

    # byte sizes, then every header's and coordinate block's start
    ring_hdr = _RING_HDR[tr]
    rcum = _excl_cumsum(ring_hdr + 16 * ncoord)
    part_hdr = _PART_HDR[tp]
    pcum = _excl_cumsum(part_hdr + rcum[rfirst[1:]] - rcum[rfirst[:-1]])
    geom_hdr = _GEOM_HDR[ti]
    offsets = _excl_cumsum(geom_hdr + pcum[pfirst[1:]] - pcum[pfirst[:-1]])
    pstart = (offsets[:-1] + geom_hdr - pcum[pfirst[:-1]])[prow] + pcum[:-1]
    rstart = (pstart + part_hdr - rcum[rfirst[:-1]])[rpart] + rcum[:-1]

    # headers: byte order 1, type code and a count (coordinates of a
    # linestring, rings of a polygon, parts of a MULTI*), 9 bytes each; a
    # point has no count, and its coordinate overwrites those 4 bytes below.
    # Every ring of a polygon leads with its own count.
    nrings_, ncoord_ = np.append(nrings, 0), np.append(ncoord, 0)  # a row or part may write none
    lead = np.where(multi, nparts, np.where(_POLYISH[ti], nrings_[pfirst[:-1]], ncoord_[rfirst[pfirst[:-1]]]))
    gl = np.flatnonzero(ti)
    pm = np.flatnonzero(part_hdr)
    head = np.zeros((len(gl) + len(pm), 9), np.uint8)
    head[:, 0] = 1
    head[:, 1:5] = _u32_bytes(np.concatenate([_CODE[ti[gl]], _CODE[tp[pm]] - 3]))
    head[:, 5:9] = _u32_bytes(np.concatenate([lead[gl], np.where(_POLYISH[tp[pm]], nrings[pm], ncoord_[rfirst[pm]])]))
    values = np.zeros(int(offsets[-1]), dtype=np.uint8)
    values[np.concatenate([offsets[gl], pstart[pm]])[:, None] + np.arange(9)] = head
    pr = np.flatnonzero(ring_hdr)
    values[rstart[pr, None] + _BYTE4] = _u32_bytes(ncoord[pr])

    # coordinates: each written ring's run, its first repeated when closing
    cstart = rstart + ring_hdr
    if np.array_equal(ridx, np.arange(len(R) - 1)) and np.array_equal(ncoord, k):
        src = slice(int(R[0]), int(R[-1]))  # every ring written whole, in order
    else:
        src = _ragged(rs, ncoord)
        src[(np.cumsum(ncoord) - 1)[closing]] = rs[closing]
    _coord_view(values)[_ragged(cstart, ncoord, 16)] = C[src].astype("<f8").view("V16").ravel()
    return offsets, values, cstart, ncoord


def _uniform_block(ga: GeometryArray, live: np.ndarray) -> np.ndarray | None:
    """The coordinates of the ``live`` rows as one (rows, per-row) block when
    they all have one type and the same nesting counts and write all their
    coordinates; else None. A missing row holds no part or the same nesting."""
    every = bool(live.all())
    t = ga.types if every else ga.types[live]
    if len(t) == 0 or t[0] == LINEARRING or not bool((t == t[0]).all()):
        return None
    t0 = int(t[0])
    G = ga.geom_offsets
    g = G[1:] - G[:-1]
    g0 = g[int(np.argmax(live))]
    P = ga.part_offsets[G[0] : G[-1] + 1]
    R = ga.ring_offsets[P[0] : P[-1] + 1]
    per = 1  # coordinates per row
    levels = ((g if every else g[live], t0 in (POINT, LINESTRING, POLYGON)),  # parts per row
              (P[1:] - P[:-1], t0 not in (POLYGON, MULTIPOLYGON)),  # rings per part
              (R[1:] - R[:-1], t0 in (POINT, MULTIPOINT)))  # coordinates per ring
    for d, one in levels:
        if len(d) == 0 or not bool((d == d[0]).all()) or (one and d[0] != 1):
            return None
        per *= int(d[0])
    if every:
        return ga.coords[R[0] : R[-1]].reshape(len(t), -1)
    if not bool(((g == 0) | (g == g0))[~live].all()):
        return None
    first = ga.ring_offsets[ga.part_offsets[G[:-1][live]]]
    return ga.coords[first[:, None] + np.arange(per)].reshape(len(t), -1)


def encode_wkb(ga: GeometryArray, large: bool = False) -> pa.Array:
    """Encode a GeometryArray into an Arrow (large_)binary column of WKB."""
    n = len(ga)
    bad = (ga.types < MISSING) | (ga.types > MULTIPOLYGON)
    if bad.any():
        raise ValueError(f"cannot encode type id {int(ga.types[np.argmax(bad)])}")
    live = ga.types != MISSING
    block = _uniform_block(ga, live) if n >= _UNIFORM_MIN_ROWS else None
    if block is not None:
        i = int(np.argmax(live))
        head = GeometryArray(ga.types[i : i + 1], ga.geom_offsets[i : i + 2], ga.part_offsets, ga.ring_offsets,
                             ga.coords)
        off0, rec0, cstart0, ncoord0 = _encode(head)
        size = int(off0[1])
        values = np.tile(rec0, len(block))
        grid, at = _record_coords(values, _ragged(cstart0, ncoord0, 16), len(block), size)
        grid[at] = block.astype("<f8").view("V16").reshape(len(block), -1)
        offsets = np.arange(n + 1, dtype=np.int64) * size if len(block) == n else _excl_cumsum(live * size)
    else:
        offsets, values, *_ = _encode(ga)
    validity = None if live.all() else pa.py_buffer(np.packbits(live, bitorder="little"))
    if large:
        typ, off_dtype = pa.large_binary(), np.int64
    else:
        if offsets[-1] > np.iinfo(np.int32).max:
            raise ValueError("WKB column exceeds 2 GiB; encode with large=True")
        typ, off_dtype = pa.binary(), np.int32
    return pa.Array.from_buffers(
        typ, n, [validity, pa.py_buffer(offsets.astype(off_dtype)), pa.py_buffer(values)],
        null_count=-1 if validity is not None else 0,
    )
