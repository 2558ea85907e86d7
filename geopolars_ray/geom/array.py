"""Ragged geometry arrays: the in-memory representation every kernel shares.

The reference stores geometry as WKB blobs and decodes each row to a heap
``geo::Geometry`` object per op (``/root/reference/geopolars/geopolars-geo/src/util.rs:27-37``
— its self-diagnosed bottleneck, ``README.md:82-83``). We instead decode a
whole Arrow batch once into four flat NumPy arrays (a GeoArrow-style layout,
cf. the nested-array construction in
``/root/reference/py-geopolars/python/geopolars/internals/geoseries.py:86-138``)
and run every kernel vectorized over them.

Layout — a uniform three-level ragged structure that represents all six
concrete types with the same buffers:

    types        int8[n_geoms]      pygeos-style type id (see enums below)
    geom_offsets int64[n_geoms+1]   geometry  -> range of *parts*
    part_offsets int64[n_parts+1]   part      -> range of *rings*
    ring_offsets int64[n_rings+1]   ring      -> range of coordinates
    coords       float64[n_coords, 2]

    Point               1 part, 1 ring, 1 coord
    MultiPoint(k)       k parts, each 1 ring of 1 coord
    LineString          1 part, 1 ring
    MultiLineString(k)  k parts, each 1 ring
    Polygon(r rings)    1 part, r rings (ring 0 = exterior)
    MultiPolygon(k)     k parts, each with its own rings
    missing/null        0 parts (types == MISSING)

Coordinates of any geometry are therefore one *contiguous* slice of
``coords`` — per-geometry coordinate ranges are obtained by composing the
offset arrays (``coord_offsets()``), which is what makes ``np.*.reduceat``
kernels possible.

Geometry type ids mirror the reference exactly
(``/root/reference/py-geopolars/python/geopolars/enums.py:4-15``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

MISSING = -1
POINT = 0
LINESTRING = 1
LINEARRING = 2
POLYGON = 3
MULTIPOINT = 4
MULTILINESTRING = 5
MULTIPOLYGON = 6
GEOMETRYCOLLECTION = 7


class GeometryType(IntEnum):
    """pygeos-compatible ids (`py-geopolars/python/geopolars/enums.py:4-15`)."""

    Missing = MISSING
    Point = POINT
    LineString = LINESTRING
    LinearRing = LINEARRING
    Polygon = POLYGON
    MultiPoint = MULTIPOINT
    MultiLineString = MULTILINESTRING
    MultiPolygon = MULTIPOLYGON
    GeometryCollection = GEOMETRYCOLLECTION


# Single-part counterpart of each multi type (used by explode()).
_MULTI_TO_SINGLE = {
    MULTIPOINT: POINT,
    MULTILINESTRING: LINESTRING,
    MULTIPOLYGON: POLYGON,
}


@dataclass
class GeometryArray:
    """A column of geometries as four flat NumPy arrays (see module doc)."""

    types: np.ndarray  # int8[n]
    geom_offsets: np.ndarray  # int64[n+1] -> parts
    part_offsets: np.ndarray  # int64[p+1] -> rings
    ring_offsets: np.ndarray  # int64[r+1] -> coords
    coords: np.ndarray  # float64[c, 2]

    def __post_init__(self) -> None:
        self.types = np.asarray(self.types, dtype=np.int8)
        self.geom_offsets = np.asarray(self.geom_offsets, dtype=np.int64)
        self.part_offsets = np.asarray(self.part_offsets, dtype=np.int64)
        self.ring_offsets = np.asarray(self.ring_offsets, dtype=np.int64)
        self.coords = np.ascontiguousarray(self.coords, dtype=np.float64)
        if self.coords.ndim != 2 or self.coords.shape[1] != 2:
            raise ValueError("coords must be (n, 2)")

    # ------------------------------------------------------------------ views

    def __len__(self) -> int:
        return len(self.types)

    @property
    def n_parts(self) -> int:
        return len(self.part_offsets) - 1

    @property
    def n_rings(self) -> int:
        return len(self.ring_offsets) - 1

    @property
    def n_coords(self) -> int:
        return len(self.coords)

    def coord_offsets(self) -> np.ndarray:
        """int64[n+1]: start coordinate index of each geometry (composed offsets)."""
        return self.ring_offsets[self.part_offsets[self.geom_offsets]]

    def coords_per_geom(self) -> np.ndarray:
        co = self.coord_offsets()
        return co[1:] - co[:-1]

    def is_missing(self) -> np.ndarray:
        return self.types == MISSING

    def geom_index_of_coords(self) -> np.ndarray:
        """int64[n_coords]: owning geometry index for every coordinate row."""
        return np.repeat(np.arange(len(self), dtype=np.int64), self.coords_per_geom())

    def part_offsets_of_geoms(self) -> np.ndarray:
        """For each geometry, its (start, stop) range in part space."""
        return self.geom_offsets

    def coord_paths(self, i: int) -> list[np.ndarray]:
        """Coordinate paths of row ``i`` as (n, 2) arrays, consecutive
        duplicates removed, sub-2-point paths dropped — the shared
        extraction for per-row lineal kernels (offset_curve, relate)."""
        out = []
        for p in range(int(self.geom_offsets[i]), int(self.geom_offsets[i + 1])):
            for r in range(int(self.part_offsets[p]), int(self.part_offsets[p + 1])):
                c = self.coords[self.ring_offsets[r]:self.ring_offsets[r + 1]]
                if len(c) >= 2:
                    keep = np.ones(len(c), dtype=bool)
                    keep[1:] = (c[1:] != c[:-1]).any(axis=1)
                    c = c[keep]
                if len(c) >= 2:
                    out.append(c)
        return out

    # ------------------------------------------------------------ constructors

    @classmethod
    def from_points(cls, x: np.ndarray, y: np.ndarray) -> "GeometryArray":
        """All-Point column from coordinate arrays (the hot-path constructor)."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n = len(x)
        seq = np.arange(n + 1, dtype=np.int64)
        return cls(
            types=np.full(n, POINT, dtype=np.int8),
            geom_offsets=seq,
            part_offsets=seq,
            ring_offsets=seq,
            coords=np.column_stack([x, y]),
        )

    @classmethod
    def from_linestrings(cls, coords: np.ndarray, offsets: np.ndarray) -> "GeometryArray":
        """Vectorized LineString-column constructor: flat (c, 2) coords +
        int64[n+1] per-geometry offsets. The scale path for building many
        paths at once (e.g. one per key inside a hash partition) — no
        per-coordinate Python objects."""
        coords = np.ascontiguousarray(coords, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.int64)
        n = len(offsets) - 1
        seq = np.arange(n + 1, dtype=np.int64)
        return cls(
            types=np.full(n, LINESTRING, dtype=np.int8),
            geom_offsets=seq,
            part_offsets=seq,
            ring_offsets=offsets,
            coords=coords,
        )

    @classmethod
    def from_multipoints(cls, coords: np.ndarray, offsets: np.ndarray) -> "GeometryArray":
        """Vectorized MultiPoint-column constructor (flat coords + offsets):
        each geometry i owns coords[offsets[i]:offsets[i+1]], one part/ring
        per point."""
        coords = np.ascontiguousarray(coords, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.int64)
        n = len(offsets) - 1
        c = len(coords)
        cseq = np.arange(c + 1, dtype=np.int64)
        return cls(
            types=np.full(n, MULTIPOINT, dtype=np.int8),
            geom_offsets=offsets,
            part_offsets=cseq,
            ring_offsets=cseq,
            coords=coords,
        )

    @classmethod
    def from_pylist(cls, geoms: list) -> "GeometryArray":
        """Build from a Python list description — test/fixture convenience only.

        Accepted per-element shapes::

            None                                        missing
            ("point", (x, y))
            ("linestring", [(x, y), ...])
            ("polygon", [ring, ...])                    ring = [(x, y), ...]
            ("multipoint", [(x, y), ...])
            ("multilinestring", [[(x, y), ...], ...])
            ("multipolygon", [[ring, ...], ...])
        """
        types: list[int] = []
        geom_off = [0]
        part_off = [0]
        ring_off = [0]
        coords: list[tuple[float, float]] = []

        def add_ring(pts) -> None:
            coords.extend((float(p[0]), float(p[1])) for p in pts)
            ring_off.append(len(coords))

        n_parts = 0
        for g in geoms:
            if g is None:
                types.append(MISSING)
                geom_off.append(n_parts)
                continue
            kind, body = g
            kind = kind.lower()
            if kind == "point":
                types.append(POINT)
                add_ring([body])
                part_off.append(len(ring_off) - 1)
                n_parts += 1
            elif kind in ("linestring", "linearring"):
                types.append(LINESTRING if kind == "linestring" else LINEARRING)
                add_ring(body)
                part_off.append(len(ring_off) - 1)
                n_parts += 1
            elif kind == "polygon":
                types.append(POLYGON)
                for ring in body:
                    add_ring(ring)
                part_off.append(len(ring_off) - 1)
                n_parts += 1
            elif kind == "multipoint":
                types.append(MULTIPOINT)
                for p in body:
                    add_ring([p])
                    part_off.append(len(ring_off) - 1)
                    n_parts += 1
            elif kind == "multilinestring":
                types.append(MULTILINESTRING)
                for line in body:
                    add_ring(line)
                    part_off.append(len(ring_off) - 1)
                    n_parts += 1
            elif kind == "multipolygon":
                types.append(MULTIPOLYGON)
                for poly in body:
                    for ring in poly:
                        add_ring(ring)
                    part_off.append(len(ring_off) - 1)
                    n_parts += 1
            else:
                raise ValueError(f"unknown geometry kind: {kind}")
            geom_off.append(n_parts)

        xy = np.array(coords, dtype=np.float64) if coords else np.empty((0, 2))
        return cls(
            types=np.array(types, dtype=np.int8),
            geom_offsets=np.array(geom_off, dtype=np.int64),
            part_offsets=np.array(part_off, dtype=np.int64),
            ring_offsets=np.array(ring_off, dtype=np.int64),
            coords=xy,
        )

    def to_pylist(self) -> list:
        """Inverse of :meth:`from_pylist` (tests / debugging)."""
        out = []
        for i in range(len(self)):
            t = int(self.types[i])
            if t == MISSING:
                out.append(None)
                continue
            parts = []
            for p in range(self.geom_offsets[i], self.geom_offsets[i + 1]):
                rings = []
                for r in range(self.part_offsets[p], self.part_offsets[p + 1]):
                    c = self.coords[self.ring_offsets[r] : self.ring_offsets[r + 1]]
                    rings.append([tuple(pt) for pt in c])
                parts.append(rings)
            if t == POINT:
                out.append(("point", parts[0][0][0]))
            elif t in (LINESTRING, LINEARRING):
                name = "linestring" if t == LINESTRING else "linearring"
                out.append((name, parts[0][0]))
            elif t == POLYGON:
                out.append(("polygon", parts[0]))
            elif t == MULTIPOINT:
                out.append(("multipoint", [p[0][0] for p in parts]))
            elif t == MULTILINESTRING:
                out.append(("multilinestring", [p[0] for p in parts]))
            elif t == MULTIPOLYGON:
                out.append(("multipolygon", parts))
            else:
                raise ValueError(f"unsupported type id {t}")
        return out

    # -------------------------------------------------------------- utilities

    def take(self, indices: np.ndarray) -> "GeometryArray":
        """Gather a new GeometryArray by geometry index (used by explode/join)."""
        indices = np.asarray(indices, dtype=np.int64)
        types = self.types[indices]
        parts_per = self.geom_offsets[indices + 1] - self.geom_offsets[indices]
        new_geom_off = np.zeros(len(indices) + 1, dtype=np.int64)
        np.cumsum(parts_per, out=new_geom_off[1:])
        # part indices to gather
        part_idx = _expand_ranges(self.geom_offsets[indices], self.geom_offsets[indices + 1])
        rings_per = self.part_offsets[part_idx + 1] - self.part_offsets[part_idx]
        new_part_off = np.zeros(len(part_idx) + 1, dtype=np.int64)
        np.cumsum(rings_per, out=new_part_off[1:])
        ring_idx = _expand_ranges(self.part_offsets[part_idx], self.part_offsets[part_idx + 1])
        coords_per = self.ring_offsets[ring_idx + 1] - self.ring_offsets[ring_idx]
        new_ring_off = np.zeros(len(ring_idx) + 1, dtype=np.int64)
        np.cumsum(coords_per, out=new_ring_off[1:])
        coord_idx = _expand_ranges(self.ring_offsets[ring_idx], self.ring_offsets[ring_idx + 1])
        return GeometryArray(
            types=types,
            geom_offsets=new_geom_off,
            part_offsets=new_part_off,
            ring_offsets=new_ring_off,
            coords=self.coords[coord_idx],
        )

    def with_coords(self, coords: np.ndarray) -> "GeometryArray":
        """Same structure, new coordinate values (affine kernels)."""
        return GeometryArray(
            types=self.types,
            geom_offsets=self.geom_offsets,
            part_offsets=self.part_offsets,
            ring_offsets=self.ring_offsets,
            coords=coords,
        )


def _expand_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenate [start, stop) integer ranges, vectorized.

    e.g. starts=[2,7], stops=[4,9] -> [2,3,7,8]
    """
    lens = stops - starts
    nz = lens > 0
    starts, lens = starts[nz], lens[nz]
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    head = np.zeros(len(lens), dtype=np.int64)
    np.cumsum(lens[:-1], out=head[1:])
    incr = np.ones(total, dtype=np.int64)
    incr[0] = starts[0]
    # at each subsequent range head, jump from the previous range's last value
    incr[head[1:]] = starts[1:] - (starts[:-1] + lens[:-1] - 1)
    np.cumsum(incr, out=incr)
    return incr


def _expand_cell_rects(ix0, ix1, iy0, iy1, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """(item, cell) pairs of inclusive cell-index rectangles, vectorized.

    Item k covers columns ``ix0[k]..ix1[k]`` and rows ``iy0[k]..iy1[k]``;
    its cells are ``ix * ny + iy``, emitted item by item, column-major.
    The indices come floored and clamped by the caller (each grid has its
    own rule); an empty range emits nothing for that item.
    """
    nxv = np.maximum(ix1 - ix0 + 1, 0)
    nyv = np.maximum(iy1 - iy0 + 1, 0)
    pair_v = np.repeat(np.arange(len(ix0), dtype=np.int64), nxv)  # (item, col)
    col_ix = _expand_ranges(ix0, ix1 + 1)
    pair2 = np.repeat(np.arange(len(pair_v), dtype=np.int64), nyv[pair_v])
    row_iy = _expand_ranges(iy0[pair_v], iy1[pair_v] + 1)
    return pair_v[pair2], col_ix[pair2] * ny + row_iy
