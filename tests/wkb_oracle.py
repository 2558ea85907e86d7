"""Per-row WKB codec: the oracle the batched ``geom.wkb`` codec is tested
against.

``decode_wkb_rows`` walks one geometry at a time with ``struct`` reads and
one ``np.frombuffer`` per ring; ``encode_wkb_rows`` packs one blob per row.
Both read or write a column of little- or big-endian points as one
(n, 21) record array."""

from __future__ import annotations

import struct

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
from geopolars_ray.geom.wkb import _binary_buffers

_WKB_TO_TYPE = {1: POINT, 2: LINESTRING, 3: POLYGON, 4: MULTIPOINT, 5: MULTILINESTRING, 6: MULTIPOLYGON}
_TYPE_TO_WKB = {v: k for k, v in _WKB_TO_TYPE.items()}
_TYPE_TO_WKB[LINEARRING] = 2

_POINT_WKB_LEN = 21


def decode_wkb_rows(arr: pa.Array | pa.ChunkedArray) -> GeometryArray:
    """Decode an Arrow (large_)binary column of WKB, one geometry at a time."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    offsets, values, validity = _binary_buffers(arr)
    n = len(arr)
    lens = offsets[1:] - offsets[:-1]
    valid = np.ones(n, dtype=bool) if validity is None else validity

    # ---------------------------------------------------------- point fast path
    if n > 0 and bool(valid.all()) and bool((lens == _POINT_WKB_LEN).all()):
        # contiguous uniform records (fresh builds, parquet reads): a single
        # reshape view — no per-record index math. Ragged-but-21-byte records
        # (rare: sliced/filtered buffers) take a gather instead.
        contiguous = offsets[-1] - offsets[0] == n * _POINT_WKB_LEN
        if contiguous:
            raw = values[offsets[0] : offsets[-1]].reshape(n, _POINT_WKB_LEN)
        else:
            raw = values[offsets[:-1, None] + np.arange(_POINT_WKB_LEN)]
        head = raw[:, 0]
        is_le_point = (head == 1) & (raw[:, 1] == 1) & (raw[:, 2] == 0) & (raw[:, 3] == 0) & (raw[:, 4] == 0)
        is_be_point = (head == 0) & (raw[:, 4] == 1) & (raw[:, 3] == 0) & (raw[:, 2] == 0) & (raw[:, 1] == 0)
        if bool((is_le_point | is_be_point).all()):
            payload = np.ascontiguousarray(raw[:, 5:21])
            xy = payload.view(np.float64)  # (n, 2)
            if is_be_point.any():
                xy = xy.copy()
                xy[is_be_point] = payload[is_be_point].view(">f8")
            return GeometryArray.from_points(xy[:, 0].copy(), xy[:, 1].copy())

    # ---------------------------------------------------------- general path
    types = np.full(n, MISSING, dtype=np.int8)
    geom_off = np.zeros(n + 1, dtype=np.int64)
    part_off: list[int] = [0]
    ring_off: list[int] = [0]
    coord_chunks: list[np.ndarray] = []
    n_coords = 0
    n_parts = 0
    mv = values  # uint8 ndarray; slice -> frombuffer-able

    # every read is checked against the row's end offset: a count that runs
    # past it would otherwise read the next row's bytes as coordinates
    def need(pos: int, nbytes: int) -> None:
        if pos + nbytes > end:
            raise ValueError(f"truncated WKB at row {i}: needs {pos + nbytes - int(offsets[i])} "
                             f"bytes, has {end - int(offsets[i])}")

    def read_count(pos: int, bo: str) -> int:
        need(pos, 4)
        return struct.unpack_from(bo + "I", mv, pos)[0]

    def read_coords(pos: int, count: int, lt: str) -> int:
        nonlocal n_coords
        nbytes = count * 16
        need(pos, nbytes)
        block = mv[pos : pos + nbytes]
        c = np.frombuffer(block.tobytes(), dtype=lt + "f8").reshape(count, 2)
        coord_chunks.append(c)
        n_coords += count
        return pos + nbytes

    for i in range(n):
        if not valid[i]:
            geom_off[i + 1] = n_parts
            continue
        pos = int(offsets[i])
        end = int(offsets[i + 1])
        if end - pos < 5:
            geom_off[i + 1] = n_parts
            continue
        bo = "<" if values[pos] == 1 else ">"
        (wkb_type,) = struct.unpack_from(bo + "I", mv, pos + 1)
        base = wkb_type % 1000  # tolerate 1001-style Z codes by ignoring Z? no: reject
        if wkb_type != base or base not in _WKB_TO_TYPE:
            raise ValueError(f"unsupported WKB type code {wkb_type} at row {i}")
        t = _WKB_TO_TYPE[base]
        pos += 5
        if t == POINT:
            pos = read_coords(pos, 1, bo)
            ring_off.append(n_coords)
            part_off.append(len(ring_off) - 1)
            n_parts += 1
        elif t == LINESTRING:
            pos = read_coords(pos + 4, read_count(pos, bo), bo)
            ring_off.append(n_coords)
            part_off.append(len(ring_off) - 1)
            n_parts += 1
        elif t == POLYGON:
            nrings = read_count(pos, bo)
            pos += 4
            for _ in range(nrings):
                pos = read_coords(pos + 4, read_count(pos, bo), bo)
                ring_off.append(n_coords)
            part_off.append(len(ring_off) - 1)
            n_parts += 1
        elif t in (MULTIPOINT, MULTILINESTRING, MULTIPOLYGON):
            ngeoms = read_count(pos, bo)
            pos += 4
            for _ in range(ngeoms):
                need(pos, 5)
                sbo = "<" if values[pos] == 1 else ">"
                (stype,) = struct.unpack_from(sbo + "I", mv, pos + 1)
                pos += 5
                if stype == 1:  # point
                    pos = read_coords(pos, 1, sbo)
                    ring_off.append(n_coords)
                elif stype == 2:  # linestring
                    pos = read_coords(pos + 4, read_count(pos, sbo), sbo)
                    ring_off.append(n_coords)
                elif stype == 3:  # polygon
                    nrings = read_count(pos, sbo)
                    pos += 4
                    for _ in range(nrings):
                        pos = read_coords(pos + 4, read_count(pos, sbo), sbo)
                        ring_off.append(n_coords)
                else:
                    raise ValueError(f"unsupported sub-geometry WKB type {stype} at row {i}")
                part_off.append(len(ring_off) - 1)
                n_parts += 1
        types[i] = t
        geom_off[i + 1] = n_parts

    coords = np.concatenate(coord_chunks, axis=0) if coord_chunks else np.empty((0, 2))
    return GeometryArray(
        types=types,
        geom_offsets=geom_off,
        part_offsets=np.array(part_off, dtype=np.int64),
        ring_offsets=np.array(ring_off, dtype=np.int64),
        coords=coords,
    )


def encode_wkb_rows(ga: GeometryArray, large: bool = False) -> pa.Array:
    """Encode a GeometryArray into an Arrow (large_)binary column of WKB,
    one blob per row."""
    n = len(ga)
    all_points = n > 0 and bool((ga.types == POINT).all())

    # ---------------------------------------------------------- point fast path
    if all_points:
        rec = np.zeros((n, _POINT_WKB_LEN), dtype=np.uint8)
        rec[:, 0] = 1
        rec[:, 1] = 1  # type code 1, little-endian
        # each row's coordinate through its offsets: the rows may be a slice
        # of a larger array whose coords do not line up one to one
        xy = ga.coords[ga.ring_offsets[ga.part_offsets[ga.geom_offsets[:-1]]]]
        rec[:, 5:21] = np.ascontiguousarray(xy, "<f8").view(np.uint8).reshape(n, 16)
        values = rec.reshape(-1)
        if large:
            offsets = np.arange(n + 1, dtype=np.int64) * _POINT_WKB_LEN
            return pa.LargeBinaryArray.from_buffers(
                pa.large_binary(), n, [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(values.tobytes())]
            )
        offsets = (np.arange(n + 1, dtype=np.int32) * _POINT_WKB_LEN).astype(np.int32)
        return pa.BinaryArray.from_buffers(
            pa.binary(), n, [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(values.tobytes())]
        )

    # ---------------------------------------------------------- general path
    blobs: list[bytes | None] = []
    coords = ga.coords
    for i in range(n):
        t = int(ga.types[i])
        if t == MISSING:
            blobs.append(None)
            continue
        parts = range(ga.geom_offsets[i], ga.geom_offsets[i + 1])
        if t == POINT:
            r = ga.part_offsets[parts.start]
            c = coords[ga.ring_offsets[r]]
            blobs.append(struct.pack("<BI", 1, 1) + struct.pack("<2d", c[0], c[1]))
        elif t in (LINESTRING, LINEARRING):
            r = ga.part_offsets[parts.start]
            c = coords[ga.ring_offsets[r] : ga.ring_offsets[r + 1]]
            if t == LINEARRING and len(c) and (c[0] != c[-1]).any():
                # WKB has no LinearRing; shapely writes a CLOSED
                # LineString — repeat the first coord so closure survives
                c = np.vstack([c, c[:1]])
            blobs.append(struct.pack("<BII", 1, 2, len(c)) + c.astype("<f8").tobytes())
        elif t == POLYGON:
            p = parts.start
            out = [struct.pack("<BII", 1, 3, ga.part_offsets[p + 1] - ga.part_offsets[p])]
            for r in range(ga.part_offsets[p], ga.part_offsets[p + 1]):
                c = coords[ga.ring_offsets[r] : ga.ring_offsets[r + 1]]
                out.append(struct.pack("<I", len(c)) + c.astype("<f8").tobytes())
            blobs.append(b"".join(out))
        elif t in (MULTIPOINT, MULTILINESTRING, MULTIPOLYGON):
            wkb_code = _TYPE_TO_WKB[t]
            out = [struct.pack("<BII", 1, wkb_code, len(parts))]
            for p in parts:
                if t == MULTIPOINT:
                    r = ga.part_offsets[p]
                    c = coords[ga.ring_offsets[r]]
                    out.append(struct.pack("<BI2d", 1, 1, c[0], c[1]))
                elif t == MULTILINESTRING:
                    r = ga.part_offsets[p]
                    c = coords[ga.ring_offsets[r] : ga.ring_offsets[r + 1]]
                    out.append(struct.pack("<BII", 1, 2, len(c)) + c.astype("<f8").tobytes())
                else:
                    out.append(struct.pack("<BII", 1, 3, ga.part_offsets[p + 1] - ga.part_offsets[p]))
                    for r in range(ga.part_offsets[p], ga.part_offsets[p + 1]):
                        c = coords[ga.ring_offsets[r] : ga.ring_offsets[r + 1]]
                        out.append(struct.pack("<I", len(c)) + c.astype("<f8").tobytes())
            blobs.append(b"".join(out))
        else:
            raise ValueError(f"cannot encode type id {t}")
    return pa.array(blobs, type=pa.large_binary() if large else pa.binary())
