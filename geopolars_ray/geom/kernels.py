"""Vectorized geometry kernels — the GeoSeries operator surface.

Each function here implements the semantics of one reference op (authoritative
docs: ``/root/reference/geopolars/geopolars-geo/src/geoseries.rs:10-181`` and
the Python wrappers in
``/root/reference/py-geopolars/python/geopolars/internals/georust/geoseries.py``)
as a whole-column NumPy computation over a :class:`GeometryArray` — no
per-row Python in the numeric paths; ragged reductions use cumulative-sum
range differences (`_range_sums`).

Stage wrappers in :mod:`geopolars_ray.stages.geo` lift these to
``Dataset.map_batches`` transforms.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

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
    _expand_ranges,
)

_LINE_TYPES = (LINESTRING, LINEARRING, MULTILINESTRING)
_POLY_TYPES = (POLYGON, MULTIPOLYGON)

WGS84_A = 6378137.0  # semi-major axis, meters
WGS84_F = 1.0 / 298.257223563
WGS84_B = WGS84_A * (1.0 - WGS84_F)
EARTH_RADIUS_M = 6371008.8  # mean radius (haversine)


# --------------------------------------------------------------------------
# ragged helpers
# --------------------------------------------------------------------------


def _range_sums(values: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Sum ``values[starts[i]:ends[i]]`` per i (ranges non-decreasing).

    Uses ``np.add.reduceat`` over interleaved [start, end) boundaries rather
    than global-cumsum differences: summation stays local to each range, so
    float error does not grow with the prefix magnitude (and integer-valued
    sums stay exact — the oracle comparisons rely on this).
    """
    n = len(starts)
    out = np.zeros(n, dtype=np.float64)
    nz = ends > starts
    if len(values) == 0 or not nz.any():
        return out
    s = np.asarray(starts)[nz]
    e = np.asarray(ends)[nz]
    bounds = np.empty(2 * len(s), dtype=np.int64)
    bounds[0::2] = s
    bounds[1::2] = e
    # reduceat sums [bounds[i], bounds[i+1]); even slots are our ranges, odd
    # slots are the gaps (discarded). A trailing boundary == len(values) is
    # illegal for reduceat — drop it, the final range then runs to the end.
    if bounds[-1] == len(values):
        sums = np.add.reduceat(np.asarray(values, dtype=np.float64), bounds[:-1])
    else:
        sums = np.add.reduceat(np.asarray(values, dtype=np.float64), bounds)
    out[nz] = sums[0::2]
    return out


def _per_ring_to_per_geom(ga: GeometryArray, ring_vals: np.ndarray) -> np.ndarray:
    """Sum a per-ring quantity up to per-geometry (compose offset levels)."""
    ring_of_geom = ga.part_offsets[ga.geom_offsets]  # ring ranges per geom
    return _range_sums(ring_vals, ring_of_geom[:-1], ring_of_geom[1:])


def _segment_cross(ga: GeometryArray) -> np.ndarray:
    """Per-ring signed shoelace sum 2*A_r (handles open and closed rings)."""
    x, y = ga.coords[:, 0], ga.coords[:, 1]
    if len(x) < 2:
        return np.zeros(ga.n_rings)
    cr = x[:-1] * y[1:] - x[1:] * y[:-1]
    starts = ga.ring_offsets[:-1]
    ends = np.maximum(ga.ring_offsets[1:] - 1, starts)  # exclude cross-ring segment
    ring_sum = _range_sums(cr, starts, ends)
    # wraparound term last->first (zero when the ring is explicitly closed).
    # Trailing empty rings have starts == last == len(coords): clamp the
    # gather indices, then zero the empty-ring slots.
    last = np.maximum(ga.ring_offsets[1:] - 1, starts)
    nmax = len(x) - 1
    s_c = np.minimum(starts, nmax)
    l_c = np.minimum(last, nmax)
    wrap = x[l_c] * y[s_c] - x[s_c] * y[l_c]
    empty = ga.ring_offsets[1:] == starts
    wrap[empty] = 0.0
    return ring_sum + wrap


def _segment_lengths_per_ring(ga: GeometryArray) -> np.ndarray:
    """Per-ring sum of euclidean segment lengths."""
    d = np.diff(ga.coords, axis=0)
    seg = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) if len(d) else np.empty(0)
    starts = ga.ring_offsets[:-1]
    ends = np.maximum(ga.ring_offsets[1:] - 1, starts)
    return _range_sums(seg, starts, ends)


# --------------------------------------------------------------------------
# predicates / accessors
# --------------------------------------------------------------------------


def geom_type(ga: GeometryArray) -> np.ndarray:
    """pygeos-style type id per row (`geoseries.rs:60-73`). -1 for missing."""
    return ga.types.astype(np.int8)


def is_empty(ga: GeometryArray) -> np.ndarray:
    """True when the geometry has no coordinates (`geoseries.rs:75-76`)."""
    return ga.coords_per_geom() == 0


def is_ring(ga: GeometryArray) -> np.ndarray:
    """True for closed LineString/LinearRing rows (`geoseries.rs:78-83`).

    Closedness (first coord == last coord, >= 4 coords) is checked; full
    simplicity testing (self-intersection) is not — same practical contract
    as ring checks on well-formed data.
    """
    co = ga.coord_offsets()
    starts, ends = co[:-1], co[1:]
    n = ends - starts
    out = np.zeros(len(ga), dtype=bool)
    line = np.isin(ga.types, (LINESTRING, LINEARRING)) & (n >= 4)
    idx = np.nonzero(line)[0]
    if len(idx):
        first = ga.coords[starts[idx]]
        last = ga.coords[ends[idx] - 1]
        out[idx] = (first == last).all(axis=1)
    return out


def _rings_closed(ga: GeometryArray) -> np.ndarray:
    """bool[n_rings]: ring has >= 2 coords and first == last."""
    rs, re_ = ga.ring_offsets[:-1], ga.ring_offsets[1:]
    out = np.zeros(ga.n_rings, dtype=bool)
    ok = re_ - rs >= 2
    idx = np.nonzero(ok)[0]
    if len(idx):
        out[idx] = (ga.coords[rs[idx]] == ga.coords[re_[idx] - 1]).all(axis=1)
    return out


def is_closed(ga: GeometryArray) -> np.ndarray:
    """shapely ``is_closed``: line rows whose first coord equals the last;
    a MULTILINESTRING is closed when EVERY member line is (GEOS >= 3.5
    semantics). False for non-line types."""
    closed = _rings_closed(ga).astype(np.int8)
    ring_of_geom = ga.part_offsets[ga.geom_offsets]
    all_closed = np.ones(len(ga), dtype=bool)
    nz = ring_of_geom[1:] > ring_of_geom[:-1]
    if nz.any():
        # min over the geometry's rings: 1 only when every ring is closed
        all_closed[nz] = (
            _range_sums(closed.astype(np.float64), ring_of_geom[:-1][nz], ring_of_geom[1:][nz])
            == (ring_of_geom[1:] - ring_of_geom[:-1])[nz]
        )
    out = all_closed & np.isin(ga.types, (LINESTRING, LINEARRING, MULTILINESTRING))
    out &= ga.coords_per_geom() > 0  # empty multis are not closed
    return out


def is_ccw(ga: GeometryArray) -> np.ndarray:
    """shapely ``is_ccw``: True when the row is a CLOSED >= 4-coord line
    ring winding counter-clockwise. Extension beyond shapely (documented):
    POLYGON rows report their exterior ring's winding (shapely itself
    returns False for polygons; GeoPandas users reach it via
    ``.exterior.is_ccw``)."""
    ring_a = 0.5 * _segment_cross(ga)
    first_ring = ga.part_offsets[ga.geom_offsets[:-1]]
    has_ring = ga.geom_offsets[1:] > ga.geom_offsets[:-1]
    out = np.zeros(len(ga), dtype=bool)
    co = ga.coord_offsets()
    nco = co[1:] - co[:-1]
    line_ok = (np.isin(ga.types, (LINESTRING, LINEARRING)) & (nco >= 4)
               & _line_first_closed(ga))
    poly_ok = np.isin(ga.types, (POLYGON, MULTIPOLYGON)) & has_ring
    idx = np.nonzero((line_ok | poly_ok) & has_ring)[0]
    if len(idx):
        out[idx] = ring_a[first_ring[idx]] > 0.0
    return out


def _line_first_closed(ga: GeometryArray) -> np.ndarray:
    """bool[n]: the geometry's FIRST ring is closed (for line rows this is
    the whole line)."""
    closed = _rings_closed(ga)
    out = np.zeros(len(ga), dtype=bool)
    if len(closed) == 0:
        return out
    first_ring = ga.part_offsets[ga.geom_offsets[:-1]]
    has = ga.geom_offsets[1:] > ga.geom_offsets[:-1]
    out[has] = closed[np.minimum(first_ring[has], len(closed) - 1)]
    return out


def get_x(ga: GeometryArray) -> np.ndarray:
    """x of Point rows, NaN otherwise (`geoseries.rs:176-180`)."""
    out = np.full(len(ga), np.nan)
    pts = ga.types == POINT
    out[pts] = ga.coords[ga.coord_offsets()[:-1][pts], 0]
    return out


def get_y(ga: GeometryArray) -> np.ndarray:
    out = np.full(len(ga), np.nan)
    pts = ga.types == POINT
    out[pts] = ga.coords[ga.coord_offsets()[:-1][pts], 1]
    return out


def bounds(ga: GeometryArray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(xmin, ymin, xmax, ymax) per geometry; NaN for empty/missing."""
    n = len(ga)
    xmin = np.full(n, np.nan)
    ymin = np.full(n, np.nan)
    xmax = np.full(n, np.nan)
    ymax = np.full(n, np.nan)
    cpg = ga.coords_per_geom()
    nz = cpg > 0
    if not nz.any():
        return xmin, ymin, xmax, ymax
    co = ga.coord_offsets()
    starts = co[:-1][nz]
    x, y = ga.coords[:, 0], ga.coords[:, 1]
    xmin[nz] = np.minimum.reduceat(x, starts)
    ymin[nz] = np.minimum.reduceat(y, starts)
    xmax[nz] = np.maximum.reduceat(x, starts)
    ymax[nz] = np.maximum.reduceat(y, starts)
    # reduceat reduces to the next start *in the passed index list*, which is
    # exactly the next non-empty geometry's start — correct because empty
    # geometries contribute no coordinate gap.
    return xmin, ymin, xmax, ymax


def envelope(ga: GeometryArray) -> GeometryArray:
    """Axis-aligned bounding Polygon per geometry (`geoseries.rs:28-33`).

    Points map to themselves; degenerate (zero-extent) inputs still produce
    the 5-coordinate closed rectangle ring, matching bounding-rect
    semantics. Fully vectorized (offset arithmetic + fancy assignment — no
    per-geometry loop).
    """
    xmin, ymin, xmax, ymax = bounds(ga)
    n = len(ga)
    types = np.full(n, POLYGON, dtype=np.int8)
    types[ga.types == POINT] = POINT
    types[ga.is_missing() | np.isnan(xmin)] = MISSING

    produced = types != MISSING
    is_pt = types == POINT
    cp = np.where(produced, np.where(is_pt, 1, 5), 0).astype(np.int64)
    coffs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(cp, out=coffs[1:])
    total = int(coffs[-1])
    coords = np.empty((total, 2), dtype=np.float64)
    s = coffs[:-1]
    pt = is_pt
    coords[s[pt], 0] = xmin[pt]
    coords[s[pt], 1] = ymin[pt]
    rc = produced & ~is_pt
    rs = s[rc]
    coords[rs, 0] = xmin[rc]
    coords[rs, 1] = ymin[rc]
    coords[rs + 1, 0] = xmax[rc]
    coords[rs + 1, 1] = ymin[rc]
    coords[rs + 2, 0] = xmax[rc]
    coords[rs + 2, 1] = ymax[rc]
    coords[rs + 3, 0] = xmin[rc]
    coords[rs + 3, 1] = ymax[rc]
    coords[rs + 4, 0] = xmin[rc]
    coords[rs + 4, 1] = ymin[rc]

    geom_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(produced.astype(np.int64), out=geom_off[1:])
    n_parts = int(geom_off[-1])
    part_off = np.arange(n_parts + 1, dtype=np.int64)
    ring_off = np.concatenate([[0], coffs[1:][produced]]).astype(np.int64)
    return GeometryArray(types, geom_off, part_off, ring_off, coords)


# --------------------------------------------------------------------------
# measures
# --------------------------------------------------------------------------


def area(ga: GeometryArray) -> np.ndarray:
    """Unsigned planar area in CRS units² (`geoseries.rs:14-16`).

    Shoelace per ring; ring signed areas summed per geometry then abs'd, so
    conventionally-wound holes subtract. Non-areal types yield 0.
    """
    ring_a = 0.5 * _segment_cross(ga)
    per_geom = _per_ring_to_per_geom(ga, ring_a)
    out = np.abs(per_geom)
    out[~np.isin(ga.types, _POLY_TYPES)] = 0.0
    out[ga.is_missing()] = np.nan
    return out


def euclidean_length(ga: GeometryArray) -> np.ndarray:
    """Planar length (`geoseries.rs:35-41`); polygons: exterior-ring length.

    Points contribute 0; for polygons only each part's first (exterior) ring
    counts, matching the reference doc.
    """
    ring_len = _segment_lengths_per_ring(ga)
    n = len(ga)
    out = np.zeros(n)
    line = np.isin(ga.types, _LINE_TYPES)
    if line.any():
        out[line] = _per_ring_to_per_geom(ga, ring_len)[line]
    poly = np.isin(ga.types, _POLY_TYPES)
    if poly.any():
        exterior_ring = np.zeros(ga.n_rings, dtype=bool)
        exterior_ring[ga.part_offsets[:-1]] = True  # first ring of every part
        masked = np.where(exterior_ring, ring_len, 0.0)
        out[poly] = _per_ring_to_per_geom(ga, masked)[poly]
    out[ga.is_missing()] = np.nan
    return out


def _haversine_m(lon1, lat1, lon2, lat2) -> np.ndarray:
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dp = p2 - p1
    dl = np.radians(lon2 - lon1)
    a = np.sin(dp / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dl / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def _vincenty_m(lon1, lat1, lon2, lat2, iterations: int = 20) -> np.ndarray:
    """Vincenty inverse geodesic distance on WGS84, vectorized (meters)."""
    from geopolars_ray.geom.geodesic import vincenty_inverse

    dist = vincenty_inverse(lon1, lat1, lon2, lat2, iterations=iterations)[0]
    # Vincenty's lambda iteration can fail to converge for near-antipodal
    # pairs; guard with the haversine great-circle value there (sub-0.6%
    # worst case on WGS84, only on that degenerate slice)
    bad = ~np.isfinite(dist)
    if bad.any():
        dist = np.where(bad, _haversine_m(lon1, lat1, lon2, lat2), dist)
    return dist


def geodesic_length(ga: GeometryArray, method: str = "geodesic") -> np.ndarray:
    """Length in meters on WGS84 (`geoseries.rs:52-58`); coords are lon/lat.

    ``haversine``: mean-radius great circle. ``vincenty``: Vincenty inverse.
    ``geodesic``: Karney-series inverse (`geom/geodesic.py`) — the same
    algorithm family the reference delegates to; the rare non-converged
    near-antipodal segment falls back to Vincenty.
    """
    if method not in ("geodesic", "haversine", "vincenty"):
        raise ValueError(f"unknown geodesic method {method!r}")
    c = ga.coords
    if len(c) < 2:
        return np.zeros(len(ga))
    lon1, lat1 = c[:-1, 0], c[:-1, 1]
    lon2, lat2 = c[1:, 0], c[1:, 1]
    if method == "haversine":
        seg = _haversine_m(lon1, lat1, lon2, lat2)
    elif method == "geodesic":
        from geopolars_ray.geom.geodesic import geodesic_inverse_m

        seg = geodesic_inverse_m(lon1, lat1, lon2, lat2)
        bad = ~np.isfinite(seg)
        if bad.any():
            seg = np.where(bad, _vincenty_m(lon1, lat1, lon2, lat2), seg)
    else:
        seg = _vincenty_m(lon1, lat1, lon2, lat2)
    starts = ga.ring_offsets[:-1]
    ends = np.maximum(ga.ring_offsets[1:] - 1, starts)
    ring_len = _range_sums(seg, starts, ends)
    out = _per_ring_to_per_geom(ga, ring_len)
    out[~np.isin(ga.types, _LINE_TYPES)] = 0.0
    out[ga.is_missing()] = np.nan
    return out


def geodesic_area(ga: GeometryArray) -> np.ndarray:
    """Ellipsoidal surface area in m² on WGS84; coords are lon/lat degrees.

    Latitudes map to the AUTHALIC sphere (the same `_authalic` machinery as
    LAEA in `geom/crs.py` — an exactly area-preserving map of the
    ellipsoid), then each ring's enclosed spherical area is the summed
    spherical-trapezoid excess per edge (Danielsen's formula, the S12
    spherical term of Karney 2013 eq. 63):

        tan(E/2) = tan(Δλ/2) · sin((β1+β2)/2) / cos((β1−β2)/2)

    Exact for edges along meridians and parallels and for any polygon whose
    edges are great circles of the authalic sphere; for true-geodesic edges
    the difference is O(e²) of the tiny edge-sag area (well under 1e-6
    relative for edges < 100 km). Δλ wraps per edge, so antimeridian
    crossings and pole vertices (arbitrary stored longitude) work, and rings
    that ENCIRCLE a pole are detected by their ±2π longitude winding and get
    the 2π closure term (the trapezoid sum alone measures the band between
    the ring and the equator in that case — the classic planimeter pole
    correction). Like the planar `area`: ring signed areas sum per geometry
    then abs, so conventionally-wound holes subtract; polygons are assumed
    smaller than a hemisphere (the usual planimeter ±4πR² ambiguity).
    Non-areal types yield 0, missing NaN.
    """
    from geopolars_ray.geom.crs import _authalic_lat, _R_AUTH

    c = ga.coords
    n_rings = ga.n_rings
    if len(c) < 2:
        out = np.zeros(len(ga))
        out[ga.is_missing()] = np.nan
        return out
    lam = np.radians(c[:, 0])
    beta = _authalic_lat(np.radians(np.clip(c[:, 1], -90.0, 90.0)))

    def _dlam(i1, i2):
        return (lam[i2] - lam[i1] + np.pi) % (2.0 * np.pi) - np.pi

    def _excess(i1, i2):
        bm = 0.5 * (beta[i2] + beta[i1])
        bd = 0.5 * (beta[i2] - beta[i1])
        return 2.0 * np.arctan(np.tan(0.5 * _dlam(i1, i2)) * np.sin(bm) / np.cos(bd))

    idx = np.arange(len(c) - 1)
    e = _excess(idx, idx + 1)
    dl = _dlam(idx, idx + 1)
    starts = ga.ring_offsets[:-1]
    ends = np.maximum(ga.ring_offsets[1:] - 1, starts)  # exclude cross-ring segment
    ring_sum = _range_sums(e, starts, ends)
    ring_dlam = _range_sums(dl, starts, ends)
    # wraparound last->first (zero when the ring is explicitly closed)
    last = np.maximum(ga.ring_offsets[1:] - 1, starts)
    nmax = len(c) - 1
    s_c = np.minimum(starts, nmax)
    l_c = np.minimum(last, nmax)
    wrap = _excess(l_c, s_c)
    wrap_dl = _dlam(l_c, s_c)
    empty = ga.ring_offsets[1:] == starts
    wrap[empty] = 0.0
    wrap_dl[empty] = 0.0
    # pole-encircling rings wind the axis: per-ring ΣΔλ = ±2π (W = ±1).
    # The trapezoid sum then measures the equator-to-ring band; enclosed
    # signed area = 2π·|W| − Σexcess (verified against both polar caps and
    # both travel directions). Non-winding rings have W = 0.
    winding = np.rint((ring_dlam + wrap_dl) / (2.0 * np.pi))
    ring_area = (_R_AUTH * _R_AUTH) * (
        ring_sum + wrap - 2.0 * np.pi * np.abs(winding)
    )
    out = np.abs(_per_ring_to_per_geom(ga, ring_area))
    # GeographicLib-style reduction: under the smaller-than-hemisphere
    # contract, a result above half the sphere is the COMPLEMENT region of a
    # reversed-orientation ring (only reachable via pole-winding rings) —
    # report the polygon, not its complement, keeping the kernel
    # orientation-insensitive like the planar `area`.
    sphere = 4.0 * np.pi * _R_AUTH * _R_AUTH
    out = np.where(out > sphere / 2.0, sphere - out, out)
    out[~np.isin(ga.types, _POLY_TYPES)] = 0.0
    out[ga.is_missing()] = np.nan
    return out


# --------------------------------------------------------------------------
# centroid
# --------------------------------------------------------------------------


def centroid(ga: GeometryArray) -> GeometryArray:
    """Centroid Point per geometry (`geoseries.rs:18-21`).

    Points: identity. MultiPoint: coordinate mean. Lines: length-weighted
    segment-midpoint mean (degenerate zero-length: coordinate mean).
    Polygons: area-weighted shoelace centroid with hole rings forced to
    subtract regardless of stored winding (robust to loosely-wound WKB);
    zero-area polygons fall back to the coordinate mean.
    """
    n = len(ga)
    cx = np.full(n, np.nan)
    cy = np.full(n, np.nan)
    co = ga.coord_offsets()
    cpg = ga.coords_per_geom()
    x, y = ga.coords[:, 0], ga.coords[:, 1]

    # point-ish and fallback mean
    nz = cpg > 0
    if nz.any():
        mean_x = _range_sums(x, co[:-1], co[1:]) / np.maximum(cpg, 1)
        mean_y = _range_sums(y, co[:-1], co[1:]) / np.maximum(cpg, 1)
    else:
        mean_x = np.full(n, np.nan)
        mean_y = np.full(n, np.nan)
    pointish = np.isin(ga.types, (POINT, MULTIPOINT)) & nz
    cx[pointish], cy[pointish] = mean_x[pointish], mean_y[pointish]

    # lines: weighted segment midpoints
    line = np.isin(ga.types, _LINE_TYPES) & nz
    if line.any():
        d = np.diff(ga.coords, axis=0)
        seg_len = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) if len(d) else np.empty(0)
        mid_x = (x[:-1] + x[1:]) / 2.0
        mid_y = (y[:-1] + y[1:]) / 2.0
        starts = ga.ring_offsets[:-1]
        ends = np.maximum(ga.ring_offsets[1:] - 1, starts)
        ring_L = _range_sums(seg_len, starts, ends)
        ring_Mx = _range_sums(seg_len * mid_x, starts, ends)
        ring_My = _range_sums(seg_len * mid_y, starts, ends)
        L = _per_ring_to_per_geom(ga, ring_L)
        Mx = _per_ring_to_per_geom(ga, ring_Mx)
        My = _per_ring_to_per_geom(ga, ring_My)
        ok = line & (L > 0)
        cx[ok], cy[ok] = Mx[ok] / L[ok], My[ok] / L[ok]
        deg = line & (L == 0)
        cx[deg], cy[deg] = mean_x[deg], mean_y[deg]

    # polygons: shoelace moments, holes subtract
    poly = np.isin(ga.types, _POLY_TYPES) & nz
    if poly.any():
        cr = x[:-1] * y[1:] - x[1:] * y[:-1] if len(x) > 1 else np.empty(0)
        sx = (x[:-1] + x[1:]) * cr if len(cr) else cr
        sy = (y[:-1] + y[1:]) * cr if len(cr) else cr
        starts = ga.ring_offsets[:-1]
        ends = np.maximum(ga.ring_offsets[1:] - 1, starts)
        # clamp gathers for trailing empty rings (starts==len(coords)); the
        # empty_ring mask below zeroes those slots
        nmax = max(len(x) - 1, 0)
        s_c = np.minimum(starts, nmax)
        l_c = np.minimum(ends, nmax)
        wrap_cr = x[l_c] * y[s_c] - x[s_c] * y[l_c]
        wrap_sx = (x[l_c] + x[s_c]) * wrap_cr
        wrap_sy = (y[l_c] + y[s_c]) * wrap_cr
        empty_ring = ga.ring_offsets[1:] == starts
        wrap_cr[empty_ring] = 0.0
        wrap_sx[empty_ring] = 0.0
        wrap_sy[empty_ring] = 0.0
        ring_a = 0.5 * (_range_sums(cr, starts, ends) + wrap_cr)
        ring_mx = (_range_sums(sx, starts, ends) + wrap_sx) / 6.0
        ring_my = (_range_sums(sy, starts, ends) + wrap_sy) / 6.0
        # force exterior rings positive, holes negative
        is_exterior = np.zeros(ga.n_rings, dtype=bool)
        is_exterior[ga.part_offsets[:-1]] = True
        sign = np.where(ring_a >= 0, 1.0, -1.0)
        want = np.where(is_exterior, 1.0, -1.0)
        factor = want * sign
        A = _per_ring_to_per_geom(ga, factor * ring_a)
        Mx = _per_ring_to_per_geom(ga, factor * ring_mx)
        My = _per_ring_to_per_geom(ga, factor * ring_my)
        ok = poly & (A != 0)
        cx[ok], cy[ok] = Mx[ok] / A[ok], My[ok] / A[ok]
        deg = poly & (A == 0)
        cx[deg], cy[deg] = mean_x[deg], mean_y[deg]

    out = GeometryArray.from_points(cx, cy)
    miss = ~nz | ga.is_missing()
    if miss.any():
        out.types = out.types.copy()
        out.types[miss] = MISSING
    return out


# --------------------------------------------------------------------------
# affine family
# --------------------------------------------------------------------------


def affine_transform(ga: GeometryArray, matrix) -> GeometryArray:
    """Apply 6-parameter affine [a, b, d, e, xoff, yoff] (`geoseries.rs:11-12`).

    x' = a*x + b*y + xoff ; y' = d*x + e*y + yoff — shapely parameter order,
    as documented in the reference wrapper (`georust/geoseries.py:22-41`).
    """
    a, b, d, e, xoff, yoff = (float(v) for v in matrix)
    x, y = ga.coords[:, 0], ga.coords[:, 1]
    return ga.with_coords(np.column_stack([a * x + b * y + xoff, d * x + e * y + yoff]))


def translate(ga: GeometryArray, x: float = 0.0, y: float = 0.0) -> GeometryArray:
    """Shift all coordinates (`geoseries.rs:163-174`)."""
    return ga.with_coords(ga.coords + np.array([x, y]))


def _origin_per_coord(ga: GeometryArray, origin) -> tuple[np.ndarray, np.ndarray]:
    """Resolve TransformOrigin (`py-geopolars/src/utils.rs:6-25`) to per-coord x0, y0."""
    if isinstance(origin, (tuple, list)):
        ox = np.full(len(ga.coords), float(origin[0]))
        oy = np.full(len(ga.coords), float(origin[1]))
        return ox, oy
    if origin == "centroid":
        cen = centroid(ga)
        gx, gy = cen.coords[:, 0], cen.coords[:, 1]
    elif origin == "center":
        xmin, ymin, xmax, ymax = bounds(ga)
        gx, gy = (xmin + xmax) / 2.0, (ymin + ymax) / 2.0
    else:
        raise ValueError(f"unknown origin {origin!r}")
    reps = ga.coords_per_geom()
    return np.repeat(gx, reps), np.repeat(gy, reps)


_EXACT_ROT = {0.0: (1.0, 0.0), 90.0: (0.0, 1.0), 180.0: (-1.0, 0.0), 270.0: (0.0, -1.0)}


def rotate(ga: GeometryArray, angle_deg: float, origin="center") -> GeometryArray:
    """Rotate CCW by degrees about origin (`geoseries.rs:85-93`).

    Quarter-turn angles use exact (0, ±1) cos/sin rather than the float
    round-trip through radians (cos(radians(90)) is 6.1e-17, not 0) — the
    mathematically correct values, and what makes 90/180/270 rotations
    bit-exact for the oracle comparisons.
    """
    ox, oy = _origin_per_coord(ga, origin)
    key = float(angle_deg) % 360.0
    if key in _EXACT_ROT:
        c, s = _EXACT_ROT[key]
    else:
        th = np.radians(angle_deg)
        c, s = np.cos(th), np.sin(th)
    x = ga.coords[:, 0] - ox
    y = ga.coords[:, 1] - oy
    return ga.with_coords(np.column_stack([c * x - s * y + ox, s * x + c * y + oy]))


def scale(ga: GeometryArray, xfact: float = 1.0, yfact: float = 1.0, origin="center") -> GeometryArray:
    """Scale about origin; negative factors mirror (`geoseries.rs:95-107`)."""
    ox, oy = _origin_per_coord(ga, origin)
    x = (ga.coords[:, 0] - ox) * xfact + ox
    y = (ga.coords[:, 1] - oy) * yfact + oy
    return ga.with_coords(np.column_stack([x, y]))


def _tan_deg(angle_deg: float) -> float:
    """tan of a degree angle; exact for 0/±45/±135 (mod 180) — see rotate()."""
    r = float(angle_deg) % 180.0
    if r == 0.0:
        return 0.0
    if r == 45.0:
        return 1.0
    if r == 135.0:
        return -1.0
    return float(np.tan(np.radians(angle_deg)))


def skew(ga: GeometryArray, xs: float = 0.0, ys: float = 0.0, origin="center") -> GeometryArray:
    """Shear by angles in degrees (`geoseries.rs:118-139`): x' = x + tan(xs)·y."""
    ox, oy = _origin_per_coord(ga, origin)
    tx, ty = _tan_deg(xs), _tan_deg(ys)
    x = ga.coords[:, 0] - ox
    y = ga.coords[:, 1] - oy
    return ga.with_coords(np.column_stack([x + tx * y + ox, ty * x + y + oy]))


# --------------------------------------------------------------------------
# structure ops
# --------------------------------------------------------------------------


def exterior(ga: GeometryArray) -> GeometryArray:
    """Exterior ring of each Polygon as a LineString; missing otherwise
    (`geoseries.rs:43-47`). Vectorized offset arithmetic, no per-geometry
    loop."""
    n = len(ga)
    sel = (ga.types == POLYGON) & (ga.geom_offsets[1:] > ga.geom_offsets[:-1])
    types = np.where(sel, LINESTRING, MISSING).astype(np.int8)
    first_part = ga.geom_offsets[:-1][sel]
    first_ring = ga.part_offsets[first_part]
    s = ga.ring_offsets[first_ring]
    e = ga.ring_offsets[first_ring + 1]
    coord_idx = _expand_ranges(s, e)
    geom_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sel.astype(np.int64), out=geom_off[1:])
    n_parts = int(geom_off[-1])
    part_off = np.arange(n_parts + 1, dtype=np.int64)
    ring_off = np.zeros(n_parts + 1, dtype=np.int64)
    np.cumsum(e - s, out=ring_off[1:])
    coords = ga.coords[coord_idx] if len(coord_idx) else np.empty((0, 2))
    return GeometryArray(types, geom_off, part_off, ring_off, coords)


def azimuth(ga: GeometryArray, gb: GeometryArray) -> np.ndarray:
    """PostGIS ``ST_Azimuth``: planar bearing from each A point to the
    aligned B point, radians CLOCKWISE FROM NORTH in [0, 2pi). NaN for
    identical points (PostGIS NULL) or non-point rows."""
    if len(ga) != len(gb):
        raise ValueError("azimuth requires aligned columns")
    ax, ay = get_x(ga), get_y(ga)
    bx, by = get_x(gb), get_y(gb)
    az = np.arctan2(bx - ax, by - ay) % (2.0 * np.pi)
    az[(ax == bx) & (ay == by)] = np.nan
    return az


def geodesic_azimuth(ga: GeometryArray, gb: GeometryArray) -> np.ndarray:
    """Forward geodesic azimuth (WGS84 Vincenty) from each A point
    (lon/lat degrees) to the aligned B point, radians clockwise from
    north in [0, 2pi); NaN for coincident points / non-points."""
    from geopolars_ray.geom.geodesic import vincenty_inverse

    if len(ga) != len(gb):
        raise ValueError("geodesic_azimuth requires aligned columns")
    ax, ay = get_x(ga), get_y(ga)
    bx, by = get_x(gb), get_y(gb)
    _s, az_deg = vincenty_inverse(ax, ay, bx, by)
    az = np.deg2rad(az_deg) % (2.0 * np.pi)
    # vincenty maps sinSigma == 0 to azimuth 0; coincident points have no
    # bearing (PostGIS NULL), matching the planar kernel
    az[(ax == bx) & (ay == by)] = np.nan
    return az


def geodesic_project(ga: GeometryArray, distance_m, azimuth_rad) -> GeometryArray:
    """PostGIS ``ST_Project``: destination point at geodesic
    ``distance_m`` along ``azimuth_rad`` (clockwise from north) from
    each lon/lat point — WGS84 Vincenty direct problem."""
    from geopolars_ray.geom.geodesic import vincenty_direct

    lon, lat = get_x(ga), get_y(ga)
    az_deg = np.rad2deg(np.broadcast_to(np.asarray(azimuth_rad, dtype=np.float64), lon.shape))
    s = np.broadcast_to(np.asarray(distance_m, dtype=np.float64), lon.shape)
    lon2, lat2 = vincenty_direct(lon, lat, az_deg, s)
    out = GeometryArray.from_points(lon2, lat2)
    out.types[np.isnan(lon) | np.isnan(lon2)] = MISSING
    return out


def orient(ga: GeometryArray, sign: float = 1.0) -> GeometryArray:
    """shapely.ops ``orient`` / ST_ForcePolygonCCW(-CW): normalize ring
    winding — exteriors get orientation ``sign`` (positive = CCW), holes
    the opposite. Non-polygonal rows pass through untouched. Vectorized
    ring classification (`_segment_cross` signed areas); only rings on
    the wrong side get their coordinate slice reversed."""
    ring_a2 = _segment_cross(ga)
    n_parts = len(ga.part_offsets) - 1
    part_of_ring = np.repeat(np.arange(n_parts, dtype=np.int64),
                             ga.part_offsets[1:] - ga.part_offsets[:-1])
    n_geoms = len(ga)
    geom_of_part = np.repeat(np.arange(n_geoms, dtype=np.int64),
                             ga.geom_offsets[1:] - ga.geom_offsets[:-1])
    ring_idx = np.arange(len(ring_a2), dtype=np.int64)
    is_shell = ring_idx == ga.part_offsets[part_of_ring]
    polyish = np.isin(ga.types, (POLYGON, MULTIPOLYGON))
    owned = polyish[geom_of_part[part_of_ring]]
    want_ccw = is_shell if sign > 0 else ~is_shell
    flip = owned & (ring_a2 != 0.0) & ((ring_a2 > 0.0) != want_ccw)
    if not flip.any():
        return ga
    coords = ga.coords.copy()
    for r in np.flatnonzero(flip):
        s, e = ga.ring_offsets[r], ga.ring_offsets[r + 1]
        coords[s:e] = coords[s:e][::-1]
    return GeometryArray(ga.types, ga.geom_offsets, ga.part_offsets,
                         ga.ring_offsets, coords)


def boundary(ga: GeometryArray) -> GeometryArray:
    """GEOS/shapely ``boundary`` (ST_Boundary) per row:

    - polygon / multipolygon -> ALL rings (shell + holes, every part) as
      closed lines: LINESTRING when there is exactly one ring, else
      MULTILINESTRING (shapely's shape rule).
    - linestring -> MULTIPOINT of its two endpoints; closed lines (and
      linearrings) -> empty MULTIPOINT.
    - multilinestring -> the mod-2 rule: coordinates that occur as an
      endpoint of an odd number of open parts (coordinate-sorted for
      determinism; shapely orders by part traversal).
    - point / multipoint -> missing (GEOS returns GEOMETRYCOLLECTION
      EMPTY; the engine has no collections — documented delta, matching
      the reference's own collection rejection).

    Per-row loop over numpy ring SLICES (no per-coordinate Python) —
    boundary is structure surgery, the coords pass through."""
    types: list[int] = []
    geom_off = [0]
    part_off = [0]
    ring_off = [0]
    chunks: list[np.ndarray] = []
    n_coords = 0
    n_parts = 0

    def add_ring_slice(c: np.ndarray) -> None:
        nonlocal n_coords, n_parts
        chunks.append(c)
        n_coords += len(c)
        ring_off.append(n_coords)
        part_off.append(len(ring_off) - 1)
        n_parts += 1

    for i in range(len(ga)):
        t = int(ga.types[i])
        if t in (MISSING, POINT, MULTIPOINT):
            types.append(MISSING)
            geom_off.append(n_parts)
            continue
        ps, pe = int(ga.geom_offsets[i]), int(ga.geom_offsets[i + 1])
        if t in (LINESTRING, LINEARRING, MULTILINESTRING):
            ends: list[np.ndarray] = []
            for p in range(ps, pe):
                for r in range(int(ga.part_offsets[p]), int(ga.part_offsets[p + 1])):
                    c = ga.coords[ga.ring_offsets[r]:ga.ring_offsets[r + 1]]
                    if t == LINEARRING or len(c) < 2 or (c[0] == c[-1]).all():
                        continue
                    ends.append(c[0])
                    ends.append(c[-1])
            if ends:
                e = np.asarray(ends)
                # mod-2: keep coordinates with an odd occurrence count
                order = np.lexsort((e[:, 1], e[:, 0]))
                s = e[order]
                new = np.ones(len(s), dtype=bool)
                new[1:] = (s[1:] != s[:-1]).any(axis=1)
                grp = np.cumsum(new) - 1
                odd = (np.bincount(grp) & 1).astype(bool)
                pts = s[new][odd]
            else:
                pts = np.empty((0, 2))
            types.append(MULTIPOINT)
            for k in range(len(pts)):
                add_ring_slice(pts[k:k + 1])
            geom_off.append(n_parts)
            continue
        # polygonal: every ring becomes one closed line part
        nrings = 0
        for p in range(ps, pe):
            for r in range(int(ga.part_offsets[p]), int(ga.part_offsets[p + 1])):
                c = ga.coords[ga.ring_offsets[r]:ga.ring_offsets[r + 1]]
                if len(c) == 0:
                    continue
                if len(c) >= 2 and not (c[0] == c[-1]).all():
                    c = np.concatenate([c, c[:1]], axis=0)
                add_ring_slice(c)
                nrings += 1
        types.append(LINESTRING if nrings == 1 else
                     (MULTILINESTRING if nrings else MISSING))
        geom_off.append(n_parts)

    coords = (np.concatenate(chunks, axis=0) if chunks
              else np.empty((0, 2)))
    return GeometryArray(
        types=np.array(types, dtype=np.int8),
        geom_offsets=np.array(geom_off, dtype=np.int64),
        part_offsets=np.array(part_off, dtype=np.int64),
        ring_offsets=np.array(ring_off, dtype=np.int64),
        coords=np.ascontiguousarray(coords, dtype=np.float64),
    )


def explode(ga: GeometryArray) -> tuple[GeometryArray, np.ndarray]:
    """Flatten multi-part geometries to one row per part (`geoseries.rs:49-50`).

    Returns (exploded GeometryArray, int64 parent-row index per output row) —
    the parent index lets a batch kernel replicate the other columns
    (``pa.Table.take``). Single-part and missing rows pass through unchanged.
    """
    parts_per = ga.geom_offsets[1:] - ga.geom_offsets[:-1]
    multi = np.isin(ga.types, (MULTIPOINT, MULTILINESTRING, MULTIPOLYGON))
    out_per = np.where(multi, parts_per, 1)
    parent = np.repeat(np.arange(len(ga), dtype=np.int64), out_per)

    out_types = []
    geom_off = [0]
    part_idx = []
    n_parts = 0
    single_of = {MULTIPOINT: POINT, MULTILINESTRING: LINESTRING, MULTIPOLYGON: POLYGON}
    for i in range(len(ga)):
        t = int(ga.types[i])
        ps, pe = int(ga.geom_offsets[i]), int(ga.geom_offsets[i + 1])
        if t in single_of:
            for p in range(ps, pe):
                out_types.append(single_of[t])
                part_idx.append(p)
                n_parts += 1
                geom_off.append(n_parts)
            if ps == pe:  # empty multi -> one missing row
                out_types.append(MISSING)
                geom_off.append(n_parts)
        else:
            out_types.append(t)
            for p in range(ps, pe):
                part_idx.append(p)
                n_parts += 1
            geom_off.append(n_parts)

    part_idx = np.array(part_idx, dtype=np.int64)
    rings_per = ga.part_offsets[part_idx + 1] - ga.part_offsets[part_idx]
    new_part_off = np.zeros(len(part_idx) + 1, dtype=np.int64)
    np.cumsum(rings_per, out=new_part_off[1:])
    ring_idx = _expand_ranges(ga.part_offsets[part_idx], ga.part_offsets[part_idx + 1])
    coords_per = ga.ring_offsets[ring_idx + 1] - ga.ring_offsets[ring_idx]
    new_ring_off = np.zeros(len(ring_idx) + 1, dtype=np.int64)
    np.cumsum(coords_per, out=new_ring_off[1:])
    coord_idx = _expand_ranges(ga.ring_offsets[ring_idx], ga.ring_offsets[ring_idx + 1])
    out = GeometryArray(
        types=np.array(out_types, dtype=np.int8),
        geom_offsets=np.array(geom_off, dtype=np.int64),
        part_offsets=new_part_off,
        ring_offsets=new_ring_off,
        coords=ga.coords[coord_idx],
    )
    return out, parent


def snap_to_grid(ga: GeometryArray, size: float, origin_x: float = 0.0,
                 origin_y: float = 0.0) -> GeometryArray:
    """PostGIS ``ST_SnapToGrid``: round every coordinate to the grid of
    spacing ``size`` anchored at (origin_x, origin_y). Offsets/types pass
    through — collapsed consecutive duplicates are NOT removed (chain with
    ``remove_repeated_points`` for the usual snap-then-dedup cleaning, like
    PostGIS users chain ST_SnapToGrid with ST_SimplifyPreserveTopology)."""
    if not size > 0:
        raise ValueError("grid size must be > 0")
    c = ga.coords
    out = np.empty_like(c)
    out[:, 0] = origin_x + np.round((c[:, 0] - origin_x) / size) * size
    out[:, 1] = origin_y + np.round((c[:, 1] - origin_y) / size) * size
    return GeometryArray(
        types=ga.types, geom_offsets=ga.geom_offsets,
        part_offsets=ga.part_offsets, ring_offsets=ga.ring_offsets,
        coords=out,
    )


def reverse(ga: GeometryArray) -> GeometryArray:
    """Reverse coordinate order within every ring (shapely ``reverse``):
    lines flip direction, rings flip winding. Offsets/types unchanged —
    one gather over a mirrored index."""
    n = len(ga.coords)
    if n == 0:
        return ga
    counts = ga.ring_offsets[1:] - ga.ring_offsets[:-1]
    rid = np.repeat(np.arange(ga.n_rings, dtype=np.int64), counts)
    rs = ga.ring_offsets[:-1][rid]
    re_ = ga.ring_offsets[1:][rid]
    # local index l = p - rs mirrors to (count-1) - l, i.e. rs + re - 1 - p
    mirror = rs + re_ - 1 - np.arange(n, dtype=np.int64)
    return GeometryArray(
        types=ga.types,
        geom_offsets=ga.geom_offsets,
        part_offsets=ga.part_offsets,
        ring_offsets=ga.ring_offsets,
        coords=ga.coords[mirror],
    )


def remove_repeated_points(ga: GeometryArray, tolerance: float = 0.0) -> GeometryArray:
    """Drop coords within ``tolerance`` of the last KEPT point (GEOS
    ``remove_repeated_points`` chained semantics); ring-first AND ring-last
    coords always survive, so lines keep their endpoints and closed rings
    stay closed. tolerance=0 (exact duplicates, the common dedup case) runs
    fully vectorized — equality is transitive so the adjacent-pair scan IS
    the chained scan; tolerance>0 runs the exact greedy per ring (a chained
    tolerance scan is inherently sequential). Degenerate results (a ring
    collapsing below 4 coords) are emitted as-is, like GEOS — validity is
    the caller's concern."""
    n = len(ga.coords)
    if n == 0:
        return ga
    keep = np.ones(n, dtype=bool)
    if tolerance == 0.0:
        d = np.diff(ga.coords, axis=0)
        close = np.hypot(d[:, 0], d[:, 1]) <= 0.0
        keep[1:] = ~close
    else:
        tol2 = float(tolerance) * float(tolerance)
        c = ga.coords
        for r in range(ga.n_rings):
            s, e = int(ga.ring_offsets[r]), int(ga.ring_offsets[r + 1])
            last = s
            for i in range(s + 1, e):
                dx = c[i, 0] - c[last, 0]
                dy = c[i, 1] - c[last, 1]
                if dx * dx + dy * dy <= tol2:
                    keep[i] = False
                else:
                    last = i
    firsts = ga.ring_offsets[:-1][ga.ring_offsets[:-1] < n]
    keep[firsts] = True
    # endpoint VALUES survive (GEOS): force-keep each ring's last coord,
    # except when it exactly duplicates the previous KEPT coord — dropping
    # an exact duplicate doesn't move the endpoint
    nz = ga.ring_offsets[1:] > ga.ring_offsets[:-1]
    lasts = (ga.ring_offsets[1:] - 1)[nz]
    keep[lasts] = True
    multi = lasts[lasts > ga.ring_offsets[:-1][nz]]
    if len(multi):
        run_max = np.maximum.accumulate(np.where(keep, np.arange(n, dtype=np.int64), -1))
        prevk = run_max[multi - 1]  # >= ring first (always kept)
        dup = (ga.coords[multi] == ga.coords[prevk]).all(axis=1)
        # never collapse a ring below 2 coords: GEOS cannot represent a
        # 1-point LINESTRING, so LINESTRING [(a),(a)] stays 2 coords
        if dup.any():
            ring_of_multi = np.searchsorted(ga.ring_offsets, multi, side="right") - 1
            kept_per = _range_sums(keep.astype(np.float64),
                                   ga.ring_offsets[:-1][ring_of_multi],
                                   ga.ring_offsets[1:][ring_of_multi]).astype(np.int64)
            dup &= kept_per >= 3
        keep[multi[dup]] = False
    counts = ga.ring_offsets[1:] - ga.ring_offsets[:-1]
    kept_per_ring = np.zeros(ga.n_rings, dtype=np.int64)
    nz = counts > 0
    if nz.any():
        ends = ga.ring_offsets[1:]
        kept_per_ring[nz] = _range_sums(keep.astype(np.float64),
                                        ga.ring_offsets[:-1][nz], ends[nz]).astype(np.int64)
    new_ring = np.zeros(ga.n_rings + 1, dtype=np.int64)
    np.cumsum(kept_per_ring, out=new_ring[1:])
    return GeometryArray(
        types=ga.types,
        geom_offsets=ga.geom_offsets,
        part_offsets=ga.part_offsets,
        ring_offsets=new_ring,
        coords=ga.coords[keep],
    )


def _coord_ranges(ga: GeometryArray) -> tuple[np.ndarray, np.ndarray]:
    """Per-geometry [start, end) coord ranges (``coord_offsets`` split)."""
    bounds = ga.coord_offsets()
    return bounds[:-1], bounds[1:]


def _directed_hausdorff(A: GeometryArray, B: GeometryArray, rows: np.ndarray) -> np.ndarray:
    """max over vertices of A of exact distance to B, per row (every row
    has a vertex on both sides).

    Each vertex's minimum folds over both ``_near_pairs`` passes: B's
    coordinates (isolated points / multipoints) and B's segments. A chunk
    holds whole vertex blocks, so one ``minimum.reduceat`` per block is
    exact; then one max per row."""
    vmin = np.full(len(A.coords), np.inf)
    for segments in (False, True):
        for c, d2, _ in _near_pairs(A, B, rows, segments):
            blk = np.flatnonzero(np.r_[True, c.vi[1:] != c.vi[:-1]])
            v = c.vi[blk]
            vmin[v] = np.minimum(vmin[v], np.minimum.reduceat(d2, blk))
    a0, a1 = _coord_ranges(A)
    nv = a1[rows] - a0[rows]
    v_off = np.zeros(len(rows), dtype=np.int64)
    np.cumsum(nv[:-1], out=v_off[1:])
    return np.sqrt(np.maximum.reduceat(vmin[_expand_ranges(a0[rows], a1[rows])], v_off))


def hausdorff_distance(lhs: GeometryArray, rhs: GeometryArray) -> np.ndarray:
    """Row-wise discrete Hausdorff distance (GEOS semantics: max over the
    VERTICES of each side of the exact distance to the other side's
    segments, symmetric max — tight for convex/densified inputs, a lower
    bound in general, exactly like GEOS's DiscreteHausdorffDistance).
    NaN where either side is missing/empty. The (vertex x candidate)
    expansion runs in ``_pairs_per_row`` chunks, a huge row in strips."""
    if len(lhs) != len(rhs):
        raise ValueError("hausdorff_distance requires aligned columns of equal length")
    # open-ring polygons: make the implicit closing edge explicit so the
    # vertex-to-segment pass sees it (same normalization as _distance_generic)
    lhs = _ensure_closed_rings(lhs)
    rhs = _ensure_closed_rings(rhs)
    out = np.full(len(lhs), np.nan)
    a0, a1 = _coord_ranges(lhs)
    b0, b1 = _coord_ranges(rhs)
    rows = np.flatnonzero((~lhs.is_missing()) & (~rhs.is_missing()) & (a1 > a0) & (b1 > b0))
    if len(rows):
        out[rows] = np.maximum(_directed_hausdorff(lhs, rhs, rows), _directed_hausdorff(rhs, lhs, rows))
    return out


def _clearance_one(ga: GeometryArray, i: int, co: np.ndarray):
    """(clearance, (p, q)) of geometry row i — the smallest of (a) any
    vertex-vertex distance and (b) any vertex to non-incident-segment
    distance (GEOS MinimumClearance). inf/None for <2 distinct
    vertices. ``co`` is the caller-hoisted ``ga.coord_offsets()`` so the
    per-row cost is O(coords of row i), not O(total coords)."""
    pts = ga.coords[co[i]:co[i + 1]]
    pts = np.unique(pts, axis=0)
    n = len(pts)
    best = np.inf
    pair = None
    if n < 2:
        return best, pair
    # vertex-vertex (chunked)
    chunk = max(1, 4_000_000 // max(n, 1))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        d = np.hypot(pts[lo:hi, 0, None] - pts[None, :, 0],
                     pts[lo:hi, 1, None] - pts[None, :, 1])
        d[np.arange(lo, hi) - lo, np.arange(lo, hi)] = np.inf
        k = int(d.argmin())
        a, b = divmod(k, n)
        if d[a, b] < best:
            best = float(d[a, b])
            pair = (tuple(pts[lo + a]), tuple(pts[b]))
    # vertex-segment (non-incident): all boundary/path segments
    segs = _areal_segments(ga, i)
    if segs is None:
        # line/multiline rows: build segments from their paths
        parts = []
        t = ga.types[i]
        if t in (LINESTRING, LINEARRING, MULTILINESTRING):
            for p in range(ga.geom_offsets[i], ga.geom_offsets[i + 1]):
                for r in range(ga.part_offsets[p], ga.part_offsets[p + 1]):
                    c = ga.coords[ga.ring_offsets[r]:ga.ring_offsets[r + 1]]
                    if len(c) >= 2:
                        parts.append(np.stack([c[:-1], c[1:]], axis=1))
        segs = np.concatenate(parts, axis=0) if parts else None
    if segs is not None and len(segs):
        a = segs[:, 0]
        dv = segs[:, 1] - segs[:, 0]
        L2 = (dv ** 2).sum(axis=1)
        L2s = np.where(L2 == 0, 1.0, L2)
        m = len(segs)
        chunk = max(1, 4_000_000 // max(m, 1))
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            P = pts[lo:hi]
            ap = P[:, None, :] - a[None, :, :]
            t = np.clip((ap * dv[None, :, :]).sum(axis=2) / L2s[None, :], 0.0, 1.0)
            proj = a[None, :, :] + t[:, :, None] * dv[None, :, :]
            d = np.sqrt(((P[:, None, :] - proj) ** 2).sum(axis=2))
            # incident pairs: vertex equals an endpoint -> exclude
            inc = (((P[:, None, :] == segs[None, :, 0]).all(axis=2))
                   | ((P[:, None, :] == segs[None, :, 1]).all(axis=2)))
            d[inc] = np.inf
            k = int(d.argmin())
            vi, sj = divmod(k, m)
            if d[vi, sj] < best:
                best = float(d[vi, sj])
                pair = (tuple(P[vi]), tuple(proj[vi, sj]))
    return best, pair


def minimum_clearance(ga: GeometryArray, vertex_budget=None) -> np.ndarray:
    """GEOS ``minimum_clearance`` per geometry: the smallest vertex move
    that could change the geometry's structure — min over vertex-vertex
    and vertex-to-non-incident-segment distances. inf for rows with
    fewer than two distinct vertices, NaN for missing.

    Per-geometry algorithmic kernel (pairwise scan): rows over the
    documented vertex budget raise (:mod:`geopolars_ray.geom.budget`)."""
    from geopolars_ray.geom.budget import check_vertex_budget

    out = np.full(len(ga), np.nan)
    co = ga.coord_offsets()
    for i in range(len(ga)):
        if ga.types[i] == MISSING:
            continue
        check_vertex_budget(int(co[i + 1] - co[i]), "minimum_clearance",
                            vertex_budget)
        out[i], _ = _clearance_one(ga, i, co)
    return out


def minimum_clearance_line(ga: GeometryArray, vertex_budget=None) -> GeometryArray:
    """The 2-point LINESTRING realizing ``minimum_clearance``
    (ST_MinimumClearanceLine); missing where clearance is inf. Budget-
    guarded like :func:`minimum_clearance`."""
    from geopolars_ray.geom.budget import check_vertex_budget

    out: list = []
    co = ga.coord_offsets()
    for i in range(len(ga)):
        if ga.types[i] == MISSING:
            out.append(None)
            continue
        check_vertex_budget(int(co[i + 1] - co[i]), "minimum_clearance_line",
                            vertex_budget)
        c, pair = _clearance_one(ga, i, co)
        if pair is None or not np.isfinite(c):
            out.append(None)
        else:
            out.append(("linestring", [(float(pair[0][0]), float(pair[0][1])),
                                       (float(pair[1][0]), float(pair[1][1]))]))
    return GeometryArray.from_pylist(out)


def _snap_path(path, snap_pts: np.ndarray, tol: float, closed: bool):
    """GEOS LineStringSnapper on one coordinate path: (1) each source
    vertex moves to the nearest snap point within ``tol``; (2) snap
    points within ``tol`` of a segment's interior are INSERTED into it,
    ordered by position along the segment."""
    pts = np.asarray(path, dtype=np.float64)
    # phase 1: vertex snapping (chunked (n, m) distance block)
    d = np.hypot(pts[:, 0, None] - snap_pts[None, :, 0],
                 pts[:, 1, None] - snap_pts[None, :, 1])
    nearest = d.argmin(axis=1)
    move = d[np.arange(len(pts)), nearest] <= tol
    snapped = pts.copy()
    snapped[move] = snap_pts[nearest[move]]
    # phase 2: per segment, insert snap points near its interior
    out = []
    n = len(snapped)
    last = n if closed else n - 1
    for i in range(last):
        a = snapped[i]
        b = snapped[(i + 1) % n]
        out.append((float(a[0]), float(a[1])))
        ab = b - a
        L2 = float(ab @ ab)
        if L2 == 0:
            continue
        t = ((snap_pts - a) @ ab) / L2
        proj = a + t[:, None] * ab
        dseg = np.hypot(snap_pts[:, 0] - proj[:, 0], snap_pts[:, 1] - proj[:, 1])
        ins = (dseg <= tol) & (t > 0.0) & (t < 1.0)
        # skip snap points equal to either endpoint (already present)
        ins &= ~((snap_pts == a).all(axis=1) | (snap_pts == b).all(axis=1))
        order = np.argsort(t[ins], kind="stable")
        for p in snap_pts[ins][order]:
            q = (float(p[0]), float(p[1]))
            if out[-1] != q:
                out.append(q)
    if not closed:
        out.append((float(snapped[-1][0]), float(snapped[-1][1])))
    # collapse consecutive duplicates introduced by snapping
    dedup = [out[0]]
    for q in out[1:]:
        if q != dedup[-1]:
            dedup.append(q)
    if closed and len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def snap_geoms(lhs: GeometryArray, rhs: GeometryArray, tolerance: float) -> GeometryArray:
    """Row-wise ST_Snap / shapely ``snap``: snap each left geometry's
    vertices to the aligned right geometry's vertices within
    ``tolerance``, and insert right vertices lying within ``tolerance``
    of a left segment's interior (GEOS LineStringSnapper semantics).
    Rows with a missing side pass the left through unchanged."""
    if len(lhs) != len(rhs):
        raise ValueError("snap requires aligned columns of equal length")
    if not tolerance >= 0:
        raise ValueError("tolerance must be >= 0")
    from geopolars_ray.geom.delaunay import coords_of_geom

    out: list = []
    src = lhs.to_pylist()
    tgt = rhs.to_pylist()
    for g, h in zip(src, tgt):
        if g is None or h is None or tolerance == 0:
            out.append(g)
            continue
        snap_pts = np.asarray(coords_of_geom(h), dtype=np.float64)
        t, data = g

        def path(p, closed):
            if not closed:
                return _snap_path(p, snap_pts, tolerance, False)
            # preserve the input's explicit-closing-point convention
            p = [tuple(q) for q in p]
            had_dup = len(p) > 1 and p[0] == p[-1]
            r = _snap_path(p[:-1] if had_dup else p, snap_pts, tolerance, True)
            return r + [r[0]] if had_dup else r

        if t == "point":
            p = path([data], closed=False)[0]
            out.append(("point", p))
        elif t == "multipoint":
            out.append(("multipoint", [path([q], False)[0] for q in data]))
        elif t == "linestring":
            out.append(("linestring", path(data, False)))
        elif t == "linearring":
            out.append(("linearring", path(data, True)))
        elif t == "multilinestring":
            out.append(("multilinestring", [path(p, False) for p in data]))
        elif t == "polygon":
            out.append(("polygon", [path(r, True) for r in data]))
        elif t == "multipolygon":
            out.append(("multipolygon",
                        [[path(r, True) for r in poly] for poly in data]))
        else:
            out.append(g)
    return GeometryArray.from_pylist(out)


def frechet_distance(lhs: GeometryArray, rhs: GeometryArray) -> np.ndarray:
    """Row-wise discrete Fréchet distance between aligned LINE columns
    (shapely/GEOS semantics: the coupling is over the VERTEX sequences;
    densify first — e.g. ``segmentize`` — for a tighter continuous
    approximation, exactly GEOS's contract). Points also accepted (the
    distance degenerates to point distance). NaN for other types or
    missing rows.

    The O(n*m) coupling DP runs per anti-diagonal: cell (i, j) needs
    only (i-1, j), (i, j-1), (i-1, j-1), which live on the previous two
    diagonals, so each of the n+m-1 steps is one vectorized max/min
    over a whole diagonal — no per-cell Python, and only O(n+m) memory
    (the distance matrix is never materialized; each diagonal's
    distances are computed on the fly)."""
    if len(lhs) != len(rhs):
        raise ValueError("frechet_distance requires aligned columns of equal length")
    n_rows = len(lhs)
    out = np.full(n_rows, np.nan)
    ls, le, lok = _line_slices(lhs)
    rs, re_, rok = _line_slices(rhs)
    # points degenerate to plain distance
    pok = (lhs.types == POINT) & (rhs.types == POINT)
    if pok.any():
        li = np.flatnonzero(pok)
        lp = lhs.coords[lhs.ring_offsets[lhs.part_offsets[lhs.geom_offsets[li]]]]
        rp = rhs.coords[rhs.ring_offsets[rhs.part_offsets[rhs.geom_offsets[li]]]]
        out[li] = np.hypot(lp[:, 0] - rp[:, 0], lp[:, 1] - rp[:, 1])
    rows = np.flatnonzero(lok & rok)
    budget = 64_000_000
    for i in rows:
        a = lhs.coords[ls[i]:le[i]]
        b = rhs.coords[rs[i]:re_[i]]
        n, m = len(a), len(b)
        if n * m > budget:
            raise ValueError(
                f"frechet_distance: row with {n}x{m} vertex pairs exceeds the "
                f"{budget} cell budget; simplify() the inputs first")
        # anti-diagonal DP: diag k holds cells (i, k-i)
        prev2 = None  # diagonal k-2
        prev = np.array([np.hypot(a[0, 0] - b[0, 0], a[0, 1] - b[0, 1])])
        for k in range(1, n + m - 1):
            i0 = max(0, k - (m - 1))
            i1 = min(n - 1, k)
            ii = np.arange(i0, i1 + 1)
            jj = k - ii
            dk = np.hypot(a[ii, 0] - b[jj, 0], a[ii, 1] - b[jj, 1])
            best = np.full(len(ii), np.inf)
            # predecessor (i-1, j) on diag k-1 at position ii-1 - prev_i0
            p_i0 = max(0, (k - 1) - (m - 1))
            up = ii - 1 - p_i0
            sel = ii > 0
            best[sel] = np.minimum(best[sel], prev[up[sel]])
            # predecessor (i, j-1) on diag k-1 at position ii - p_i0
            left = ii - p_i0
            sel = jj > 0
            best[sel] = np.minimum(best[sel], prev[left[sel]])
            if prev2 is not None:
                pp_i0 = max(0, (k - 2) - (m - 1))
                diag = ii - 1 - pp_i0
                sel = (ii > 0) & (jj > 0)
                best[sel] = np.minimum(best[sel], prev2[diag[sel]])
            prev2, prev = prev, np.maximum(dk, best)
        out[i] = float(prev[0])
    return out


def _line_slices(ga: GeometryArray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(starts, ends, ok) coord ranges of single-line rows.

    Linear referencing is defined for LINESTRING/LINEARRING (one part, one
    ring — the coord range IS the arc). Other types get ok=False.
    """
    ok = np.isin(ga.types, (LINESTRING, LINEARRING))
    ring_of_geom = ga.part_offsets[ga.geom_offsets]
    r0 = ring_of_geom[:-1]
    starts = ga.ring_offsets[np.minimum(r0, len(ga.ring_offsets) - 1)]
    ends = ga.ring_offsets[np.minimum(r0 + 1, len(ga.ring_offsets) - 1)]
    ok &= ends - starts >= 2
    return starts, ends, ok


def line_interpolate_point(ga: GeometryArray, distance, normalized: bool = False) -> GeometryArray:
    """Point at ``distance`` along each LineString/LinearRing (shapely
    ``interpolate``). ``distance`` is a scalar or per-row array; negative
    distances measure from the END (shapely semantics); values beyond either
    end clamp to the endpoint. ``normalized=True``: fraction of total length.
    Non-line rows (points, polygons, multis, missing) yield missing.

    Vectorized: one global segment-length cumsum + one ``searchsorted`` for
    ALL rows (each ring is a contiguous coord slice, so per-line cumulative
    length is a difference of global prefix sums).
    """
    starts, ends, ok = _line_slices(ga)
    c = ga.coords
    n = len(ga)
    if n == 0 or len(c) < 2:
        z = np.zeros(n)
        return _points_or_missing(z, z, np.zeros(n, dtype=bool))
    d = np.diff(c, axis=0)
    seg = np.hypot(d[:, 0], d[:, 1])
    G = np.concatenate([[0.0], np.cumsum(seg)])  # G[j] = length of segments < j
    tot = G[np.maximum(ends - 1, 0)] - G[np.minimum(starts, len(G) - 1)]
    dist = np.broadcast_to(np.asarray(distance, np.float64), (n,)).copy()
    if normalized:
        dist = dist * tot
    neg = dist < 0
    dist[neg] = tot[neg] + dist[neg]  # negative: measured from the end
    np.clip(dist, 0.0, tot, out=dist)
    target = G[np.minimum(starts, len(G) - 1)] + dist
    j = np.searchsorted(G, target, side="left") - 1
    # clamp into the line's own segment window [starts, ends-2]
    j = np.clip(j, starts, np.maximum(ends - 2, starts))
    slen = seg[np.minimum(j, len(seg) - 1)]
    t = np.where(slen > 0, (target - G[j]) / np.where(slen == 0, 1.0, slen), 0.0)
    t = np.clip(t, 0.0, 1.0)
    j1 = np.minimum(j + 1, len(c) - 1)
    px = c[j, 0] * (1.0 - t) + c[j1, 0] * t
    py = c[j, 1] * (1.0 - t) + c[j1, 1] * t
    return _points_or_missing(px, py, ok)


def line_substring(ga: GeometryArray, start, end,
                   normalized: bool = True) -> GeometryArray:
    """shapely ``substring`` / ST_LineSubstring: the portion of each
    LineString/LinearRing between two distances along it (fractions of
    total length when ``normalized``, shapely's ST_LineSubstring
    contract). ``start``/``end`` are scalars or per-row arrays; values
    clamp to [0, length]; a reversed pair (start > end) yields the
    reversed substring, shapely parity. Degenerate windows collapse to
    a POINT; non-line rows come back missing."""
    starts, ends, ok = _line_slices(ga)
    c = ga.coords
    n = len(ga)
    s = np.broadcast_to(np.asarray(start, np.float64), (n,)).copy()
    e = np.broadcast_to(np.asarray(end, np.float64), (n,)).copy()
    out: list = []
    for i in range(n):
        if not ok[i]:
            out.append(None)
            continue
        pts = c[starts[i]:ends[i]]
        seg = np.hypot(*(np.diff(pts, axis=0).T))
        G = np.concatenate([[0.0], np.cumsum(seg)])
        tot = G[-1]
        a, b = s[i], e[i]
        if normalized:
            a, b = a * tot, b * tot
        rev = a > b
        if rev:
            a, b = b, a
        a = min(max(a, 0.0), tot)
        b = min(max(b, 0.0), tot)

        def at(d):
            j = int(np.clip(np.searchsorted(G, d, side="left") - 1,
                            0, max(len(seg) - 1, 0)))
            t = (d - G[j]) / seg[j] if seg[j] > 0 else 0.0
            t = min(max(t, 0.0), 1.0)
            return (float(pts[j, 0] * (1 - t) + pts[j + 1, 0] * t),
                    float(pts[j, 1] * (1 - t) + pts[j + 1, 1] * t))

        if b - a <= 0:
            out.append(("point", at(a)))
            continue
        path = [at(a)]
        inner = np.flatnonzero((G > a) & (G < b))
        for j in inner:
            p = (float(pts[j, 0]), float(pts[j, 1]))
            if p != path[-1]:
                path.append(p)
        pb = at(b)
        if pb != path[-1]:
            path.append(pb)
        if len(path) < 2:
            out.append(("point", path[0]))
            continue
        out.append(("linestring", path[::-1] if rev else path))
    return GeometryArray.from_pylist(out)


def _points_or_missing(px: np.ndarray, py: np.ndarray, ok: np.ndarray) -> GeometryArray:
    """Build a Point-per-row GeometryArray with missing where ~ok."""
    n = len(ok)
    k = int(ok.sum())
    types = np.where(ok, np.int8(POINT), np.int8(MISSING)).astype(np.int8)
    geom_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(ok.astype(np.int64), out=geom_offsets[1:])
    part_offsets = np.arange(k + 1, dtype=np.int64)
    ring_offsets = np.arange(k + 1, dtype=np.int64)
    coords = np.stack([px[ok], py[ok]], axis=1) if k else np.empty((0, 2))
    return GeometryArray(types=types, geom_offsets=geom_offsets,
                         part_offsets=part_offsets, ring_offsets=ring_offsets,
                         coords=coords)


def line_locate_point(lines: GeometryArray, points: GeometryArray,
                      normalized: bool = False) -> np.ndarray:
    """Row-wise arc-length position of the nearest point on each line to the
    aligned point (shapely ``project``). NaN for non-line lhs or non-point
    rhs rows. Fully vectorized: every segment of every row scored at once,
    segmented min via ``minimum.reduceat``, first-argmin tie-break (lowest
    segment index — shapely's behavior for equidistant segments).
    """
    if len(lines) != len(points):
        raise ValueError("line_locate_point requires aligned columns of equal length")
    starts, ends, ok = _line_slices(lines)
    ok = ok & (points.types == POINT)
    n = len(lines)
    out = np.full(n, np.nan)
    if not ok.any():
        return out
    c = lines.coords
    d = np.diff(c, axis=0)
    seg = np.hypot(d[:, 0], d[:, 1])
    G = np.concatenate([[0.0], np.cumsum(seg)])
    rows = np.flatnonzero(ok)
    s_r, e_r = starts[rows], ends[rows]
    nseg = e_r - s_r - 1
    # per-row point coords (points are single-coord geometries)
    p_first = points.ring_offsets[points.part_offsets[points.geom_offsets[rows]]]
    pxy = points.coords[p_first]
    # expand: one entry per (row, segment)
    seg_row = np.repeat(np.arange(len(rows)), nseg)
    seg_idx = _expand_ranges(s_r, e_r - 1)
    a = c[seg_idx]
    b = c[seg_idx + 1]
    ab = b - a
    ap = pxy[seg_row] - a
    denom = ab[:, 0] ** 2 + ab[:, 1] ** 2
    t = np.where(denom > 0, (ap[:, 0] * ab[:, 0] + ap[:, 1] * ab[:, 1]) / np.where(denom == 0, 1.0, denom), 0.0)
    t = np.clip(t, 0.0, 1.0)
    q = a + t[:, None] * ab
    dq = pxy[seg_row] - q
    d2 = dq[:, 0] ** 2 + dq[:, 1] ** 2
    # NaN coords (dirty point or line rows) would otherwise produce an
    # all-NaN group with NO argmin hit and crash the searchsorted gather —
    # sanitize to +inf and emit NaN for those rows instead
    bad = ~np.isfinite(d2)
    if bad.any():
        d2 = np.where(bad, np.inf, d2)
    grp_starts = np.zeros(len(rows), dtype=np.int64)
    np.cumsum(nseg[:-1], out=grp_starts[1:])
    dmin = np.minimum.reduceat(d2, grp_starts)
    hit = d2 == np.repeat(dmin, nseg)
    hit_idx = np.flatnonzero(hit)
    first = hit_idx[np.searchsorted(hit_idx, grp_starts)]
    j = seg_idx[first]
    measure = (G[j] - G[s_r]) + t[first] * seg[j]
    if normalized:
        tot = G[e_r - 1] - G[s_r]
        measure = np.where(tot > 0, measure / np.where(tot == 0, 1.0, tot), 0.0)
    measure = np.where(np.isfinite(dmin), measure, np.nan)
    out[rows] = measure
    return out


def segmentize(ga: GeometryArray, max_segment_length: float,
               method: str = "planar", max_out_coords: int = 100_000_000) -> GeometryArray:
    """Insert vertices so no segment exceeds ``max_segment_length``
    (shapely ``segmentize`` / PostGIS ``ST_Segmentize`` semantics).

    ``planar``: linear interpolation, length in coord units. ``geodesic``:
    lon/lat coords, length in METERS (haversine), intermediate points on the
    great circle (unit-sphere slerp) — endpoints exact, intermediate points
    within ~0.5% of the ellipsoidal geodesic path (documented sphere
    approximation; PostGIS geography segmentizes on the spheroid).

    Structure: per segment k = ceil(d/max) output points; ring-final coords
    emit themselves. Ring/part/geometry COUNTS never change, so
    ``part_offsets``/``geom_offsets``/``types`` pass through — only
    ``ring_offsets`` and ``coords`` are rebuilt, all vectorized.
    ``max_out_coords`` is the loud per-batch blow-up guard (a tiny
    ``max_segment_length`` on long segments is quadratic-adjacent cost).
    """
    if method not in ("planar", "geodesic"):
        raise ValueError(f"unknown segmentize method {method!r}")
    if not max_segment_length > 0:
        raise ValueError("max_segment_length must be > 0")
    n = len(ga.coords)
    if n == 0:
        return ga
    a = ga.coords[:-1]
    b = ga.coords[1:]
    if method == "planar":
        d = np.hypot(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1])
    else:
        d = _haversine_m(a[:, 0], a[:, 1], b[:, 0], b[:, 1])
    # a coord index i is a segment start unless it is the last coord of its
    # ring; ring-last coords emit exactly themselves
    is_last = np.zeros(n, dtype=bool)
    ring_last = ga.ring_offsets[1:] - 1
    ring_last = ring_last[ga.ring_offsets[1:] > ga.ring_offsets[:-1]]
    is_last[ring_last] = True
    k = np.ones(n, dtype=np.int64)
    seg = ~is_last
    if n > 1:
        kk = np.ceil(d / float(max_segment_length)).astype(np.int64)
        np.maximum(kk, 1, out=kk)
        k[:-1][seg[:-1]] = kk[seg[:-1]]
    k[-1] = 1  # final coord is always a ring end
    total = int(k.sum())
    if total > max_out_coords:
        raise ValueError(
            f"segmentize would emit {total} coords in one batch "
            f"(max_out_coords={max_out_coords}); raise max_segment_length "
            "or lower the batch size"
        )
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    run_start = np.repeat(np.cumsum(k) - k, k)
    j = np.arange(total, dtype=np.int64) - run_start
    f = j / k[src]  # 0 for ring-last rows (k=1, j=0)
    nxt = np.minimum(src + 1, n - 1)
    if method == "planar":
        out = ga.coords[src] * (1.0 - f[:, None]) + ga.coords[nxt] * f[:, None]
    else:
        lam1 = np.radians(ga.coords[src, 0])
        phi1 = np.radians(ga.coords[src, 1])
        lam2 = np.radians(ga.coords[nxt, 0])
        phi2 = np.radians(ga.coords[nxt, 1])
        u = np.stack([np.cos(phi1) * np.cos(lam1), np.cos(phi1) * np.sin(lam1), np.sin(phi1)], axis=1)
        v = np.stack([np.cos(phi2) * np.cos(lam2), np.cos(phi2) * np.sin(lam2), np.sin(phi2)], axis=1)
        cross = np.cross(u, v)
        omega = np.arctan2(np.linalg.norm(cross, axis=1), np.einsum("ij,ij->i", u, v))
        small = omega < 1e-9
        so = np.where(small, 1.0, np.sin(omega))
        w = (np.sin((1.0 - f) * omega) / so)[:, None] * u + (np.sin(f * omega) / so)[:, None] * v
        # degenerate/identical endpoints: fall back to the start point
        w = np.where(small[:, None], u, w)
        norm = np.linalg.norm(w, axis=1)
        w /= np.where(norm == 0.0, 1.0, norm)[:, None]
        out = np.empty((total, 2), dtype=np.float64)
        out[:, 0] = np.degrees(np.arctan2(w[:, 1], w[:, 0]))
        out[:, 1] = np.degrees(np.arcsin(np.clip(w[:, 2], -1.0, 1.0)))
        exact = f == 0.0  # emit original vertices bit-exactly (f < 1 always)
        out[exact] = ga.coords[src[exact]]
    # rebuild ring offsets from per-coord emit counts
    csum = np.concatenate([[0], np.cumsum(k)])
    new_ring_offsets = csum[ga.ring_offsets]
    return GeometryArray(
        types=ga.types,
        geom_offsets=ga.geom_offsets,
        part_offsets=ga.part_offsets,
        ring_offsets=new_ring_offsets,
        coords=out,
    )


def collect(ga: GeometryArray, group_starts: np.ndarray) -> GeometryArray:
    """Inverse of explode: merge contiguous row groups into MULTI geometries.

    ``group_starts`` are sorted row indices (first element 0) delimiting the
    groups; the caller (the ``geo_collect`` stage) sorts each partition by
    key so every group is one contiguous row range. ST_Collect-style
    semantics restricted to one family per group: points -> MULTIPOINT,
    lines/rings -> MULTILINESTRING, polygons -> MULTIPOLYGON; multi inputs
    contribute their parts (so ``collect(explode(g)) == multi(g)``); missing
    and empty rows contribute nothing, and an all-missing group collapses to
    MISSING. Mixed families in one group raise (this engine rejects
    GeometryCollection, matching the reference — `spatial_index.rs:307-310`).

    Because groups are contiguous, the parts/rings/coords buffers pass
    through UNCHANGED — only ``types`` and ``geom_offsets`` are rebuilt, so
    the kernel is O(rows), not O(coords).
    """
    group_starts = np.asarray(group_starts, dtype=np.int64)
    n_groups = len(group_starts)
    bounds_rows = np.append(group_starts, len(ga))

    fam = np.full(len(ga), -1, dtype=np.int8)
    fam[np.isin(ga.types, (POINT, MULTIPOINT))] = 0
    fam[np.isin(ga.types, _LINE_TYPES)] = 1
    fam[np.isin(ga.types, _POLY_TYPES)] = 2
    if len(ga):
        # per-group family consensus over non-missing rows
        present = fam.copy()
        hi = np.maximum.reduceat(present, group_starts)
        present_lo = np.where(fam < 0, np.int8(3), fam)
        lo = np.minimum.reduceat(present_lo, group_starts)
        mixed = (hi >= 0) & (lo < 3) & (hi != lo)
        if mixed.any():
            g = int(np.flatnonzero(mixed)[0])
            raise ValueError(
                f"collect: group starting at row {int(group_starts[g])} mixes "
                "geometry families — GeometryCollection output is rejected "
                "(one of point/line/polygon per group)"
            )
    else:
        hi = np.full(n_groups, -1, dtype=np.int8)

    geom_offsets = ga.geom_offsets[bounds_rows]
    parts_per_group = geom_offsets[1:] - geom_offsets[:-1]
    multi_of = np.array([MULTIPOINT, MULTILINESTRING, MULTIPOLYGON], dtype=np.int8)
    out_types = np.where(
        (hi >= 0) & (parts_per_group > 0), multi_of[np.clip(hi, 0, 2)], np.int8(MISSING)
    ).astype(np.int8)
    return GeometryArray(
        types=out_types,
        geom_offsets=geom_offsets,
        part_offsets=ga.part_offsets,
        ring_offsets=ga.ring_offsets,
        coords=ga.coords,
    )


def convex_hull(ga: GeometryArray) -> GeometryArray:
    """Convex hull per geometry via Andrew's monotone chain (`geoseries.rs:23-26`).

    >= 3 non-collinear points -> closed CCW Polygon ring; 2 distinct points ->
    LineString; 1 point -> Point (the collapse behavior the reference doc
    describes).

    Batch layout: ONE global lexsort orders every geometry's coordinates by
    (geom, x, y) and deduplicates them vectorized (replacing a per-geometry
    ``np.unique`` sort), and the chain scan runs on plain Python floats
    (scalar cross products — ``np.cross`` on 2-vectors costs ~20x more per
    step than the arithmetic).
    """
    n = len(ga)
    if n == 0:
        return GeometryArray.from_pylist([])
    gidx = ga.geom_index_of_coords()
    x, y = ga.coords[:, 0], ga.coords[:, 1]
    order = np.lexsort((y, x, gidx))
    sg = gidx[order]
    sx = x[order]
    sy = y[order]
    keep = np.ones(len(sg), dtype=bool)
    if len(sg) > 1:
        keep[1:] = (sg[1:] != sg[:-1]) | (sx[1:] != sx[:-1]) | (sy[1:] != sy[:-1])
    sg, sx, sy = sg[keep], sx[keep], sy[keep]
    starts = np.searchsorted(sg, np.arange(n))
    ends = np.searchsorted(sg, np.arange(n) + 1)

    out_geoms = []
    for i in range(n):
        if ga.types[i] == MISSING:
            out_geoms.append(None)
            continue
        s, e = int(starts[i]), int(ends[i])
        m = e - s
        if m == 0:
            out_geoms.append(None)
            continue
        px = sx[s:e].tolist()
        py = sy[s:e].tolist()
        if m == 1:
            out_geoms.append(("point", (px[0], py[0])))
            continue
        if m == 2:
            out_geoms.append(("linestring", [(px[0], py[0]), (px[1], py[1])]))
            continue
        hull = _chain_scan(px, py)
        if len(hull) == 2:
            out_geoms.append(("linestring", hull))
        else:
            out_geoms.append(("polygon", [hull + [hull[0]]]))
    return GeometryArray.from_pylist(out_geoms)


def line_merge(ga: GeometryArray) -> GeometryArray:
    """shapely ``line_merge`` / ST_LineMerge: join a MULTILINESTRING's parts
    wherever exactly TWO line ends meet (degree-2 nodes); junction nodes
    (degree >= 3) stay split, closed chains become a single closed line.
    Non-multiline rows pass through unchanged (zero-copy when the column
    holds no multilinestring at all). Per-geometry chain walk over its
    (few) parts; endpoint matching is exact coordinate equality, like
    GEOS."""
    from collections import defaultdict

    if not (ga.types == MULTILINESTRING).any():
        return ga
    out: list = []
    src = ga.to_pylist()
    for i, g in enumerate(src):
        if g is None or g[0] != "multilinestring":
            out.append(g)
            continue
        parts = [list(p) for p in g[1] if len(p) >= 2]
        if not parts:
            out.append(g)
            continue
        # endpoint -> list of (part index, end: 0=start 1=end)
        node: dict = defaultdict(list)
        for pi, p in enumerate(parts):
            node[p[0]].append((pi, 0))
            node[p[-1]].append((pi, 1))
        used = [False] * len(parts)
        merged = []
        for pi in range(len(parts)):
            if used[pi]:
                continue
            # walk backwards to the chain start (or detect a loop)
            chain = [(pi, False)]  # (part, reversed?)
            used[pi] = True
            for direction in (0, 1):  # extend tail (end side), then head
                cur, rev = chain[-1] if direction == 0 else chain[0]
                while True:
                    p = parts[cur]
                    tip = (p[0] if rev else p[-1]) if direction == 0 else (p[-1] if rev else p[0])
                    cands = [e for e in node[tip] if not used[e[0]]]
                    if len(node[tip]) != 2 or len(cands) != 1:
                        break
                    nxt, end = cands[0]
                    # entering at 'end': if we arrive at its START the part
                    # continues forward, else reversed — flipped for the
                    # head-extension direction
                    nrev = (end == 1) if direction == 0 else (end == 0)
                    used[nxt] = True
                    if direction == 0:
                        chain.append((nxt, nrev))
                        cur, rev = nxt, nrev
                    else:
                        chain.insert(0, (nxt, nrev))
                        cur, rev = nxt, nrev
            coords = []
            for j, (p_idx, rev) in enumerate(chain):
                seq = parts[p_idx][::-1] if rev else parts[p_idx]
                coords.extend(seq if j == 0 else seq[1:])
            merged.append(coords)
        if len(merged) == 1:
            out.append(("linestring", [tuple(c) for c in merged[0]]))
        else:
            out.append(("multilinestring", [[tuple(c) for c in m] for m in merged]))
    return GeometryArray.from_pylist(out)


def extract_unique_points(ga: GeometryArray) -> GeometryArray:
    """shapely ``extract_unique_points``: the distinct coordinates of each
    geometry as a MULTIPOINT (order of first occurrence is NOT preserved —
    points come out coordinate-sorted, the batch dedup order; shapely
    preserves first occurrence, a documented delta). Missing/empty stay
    missing. One global lexsort over (geom, x, y), no per-row Python."""
    n = len(ga)
    gidx = ga.geom_index_of_coords()
    x, y = ga.coords[:, 0], ga.coords[:, 1]
    order = np.lexsort((y, x, gidx))
    sg, sx, sy = gidx[order], x[order], y[order]
    keep = np.ones(len(sg), dtype=bool)
    if len(sg) > 1:
        keep[1:] = (sg[1:] != sg[:-1]) | (sx[1:] != sx[:-1]) | (sy[1:] != sy[:-1])
    sg, sx, sy = sg[keep], sx[keep], sy[keep]
    counts = np.bincount(sg, minlength=n)
    geom_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=geom_offsets[1:])
    k = int(counts.sum())
    return GeometryArray(
        types=np.where(counts > 0, np.int8(MULTIPOINT), np.int8(MISSING)).astype(np.int8),
        geom_offsets=geom_offsets,
        part_offsets=np.arange(k + 1, dtype=np.int64),
        ring_offsets=np.arange(k + 1, dtype=np.int64),
        coords=np.column_stack([sx, sy]),
    )


def representative_point(ga: GeometryArray) -> GeometryArray:
    """A point guaranteed to intersect each geometry (GeoPandas
    ``representative_point`` / GEOS ``InteriorPoint`` semantics, not
    bit-identical to GEOS):

    - polygons: the midpoint of the WIDEST inside-span of a horizontal
      scanline through each polygon PART's own bbox-center (nudged off any
      vertex y so the even-odd crossing parity is well-defined), widest
      part wins per row — strictly interior, holes respected. Per-PART
      scanlines (like GEOS InteriorPointArea, which processes each polygon
      of a multipolygon independently) because a gapped multipolygon's
      union-bbox center line can miss every part. Degenerate parts
      (zero height, no crossings) fall back to the first coordinate —
      on the boundary, hence still intersecting;
    - lines: the vertex closest to the geometry's centroid (on the line by
      construction);
    - points/multipoints: the coord closest to the centroid;
    - missing/empty: missing.

    Vectorized: every (polygon part × edge) pair scores its scanline
    crossing in one pass; spans resolve with a per-part sort + parity walk
    on the (few) crossings.
    """
    n = len(ga)
    cen = centroid(ga)
    cen_ok = ~cen.is_missing()
    out_x = np.full(n, np.nan)
    out_y = np.full(n, np.nan)
    c0, c1 = _coord_ranges(ga)
    # lines / points: vertex nearest the centroid (vectorized pair scan)
    vertexish = np.isin(ga.types, (POINT, MULTIPOINT, LINESTRING, LINEARRING, MULTILINESTRING))
    vrows = np.flatnonzero(vertexish & cen_ok & (c1 > c0))
    if len(vrows):
        cc = cen.coords[np.cumsum(cen_ok.astype(np.int64)) - 1]  # per-row centroid coords
        counts = (c1 - c0)[vrows]
        rid = np.repeat(np.arange(len(vrows)), counts)
        vi = _expand_ranges(c0[vrows], c1[vrows])
        d2 = (ga.coords[vi, 0] - cc[vrows][rid, 0]) ** 2 + (ga.coords[vi, 1] - cc[vrows][rid, 1]) ** 2
        off = np.zeros(len(vrows), dtype=np.int64)
        np.cumsum(counts[:-1], out=off[1:])
        dmin = np.minimum.reduceat(d2, off)
        hit = np.flatnonzero(d2 == np.repeat(dmin, counts))
        first = hit[np.searchsorted(hit, off)]
        out_x[vrows] = ga.coords[vi[first], 0]
        out_y[vrows] = ga.coords[vi[first], 1]
    # polygons: widest scanline span, one scanline per polygon PART
    ga_c = _ensure_closed_rings(ga)
    prows = np.flatnonzero(np.isin(ga_c.types, _POLY_TYPES) & (c1 > c0))
    if len(prows):
        part_counts = (ga_c.geom_offsets[prows + 1] - ga_c.geom_offsets[prows]).astype(np.int64)
        part_row = np.repeat(np.arange(len(prows)), part_counts)  # part -> prows slot
        part_idx = _expand_ranges(ga_c.geom_offsets[prows], ga_c.geom_offsets[prows + 1])
        pc0 = ga_c.ring_offsets[ga_c.part_offsets[part_idx]]
        pc1 = ga_c.ring_offsets[ga_c.part_offsets[part_idx + 1]]
        live = pc1 > pc0
        part_row, pc0, pc1 = part_row[live], pc0[live], pc1[live]
        n_parts = len(part_row)
        if n_parts:
            counts = pc1 - pc0
            rid = np.repeat(np.arange(n_parts), counts)
            vi = _expand_ranges(pc0, pc1)
            vy = ga_c.coords[vi, 1]
            off = np.zeros(n_parts, dtype=np.int64)
            np.cumsum(counts[:-1], out=off[1:])
            ymin_p = np.minimum.reduceat(vy, off)
            ymax_p = np.maximum.reduceat(vy, off)
            yc = 0.5 * (ymin_p + ymax_p)
            # nudge off any vertex y (parity safety): deterministic epsilon
            # of the part height, retried with growing offsets until clear
            height = np.maximum(ymax_p - ymin_p, 1e-300)
            for k in range(1, 8):
                on_vertex = np.zeros(n_parts, dtype=bool)
                np.logical_or.at(on_vertex, rid, vy == yc[rid])
                if not on_vertex.any():
                    break
                yc = np.where(on_vertex, yc + height * (0.5 ** (k + 3)), yc)
            # scanline crossings: every within-ring edge of every part
            is_seg = _seg_valid(ga_c)
            seg_counts = np.maximum(counts - 1, 0)
            srid = np.repeat(np.arange(n_parts), seg_counts)
            si = _expand_ranges(pc0, np.maximum(pc1 - 1, pc0))
            y1 = ga_c.coords[si, 1]
            y2 = ga_c.coords[si + 1, 1]
            x1 = ga_c.coords[si, 0]
            x2 = ga_c.coords[si + 1, 0]
            yq = yc[srid]
            crosses = ((y1 > yq) != (y2 > yq)) & is_seg[si]
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = x1 + (yq - y1) * (x2 - x1) / (y2 - y1)
            # per-part: sort crossings, adjacent pairs alternate
            # inside/outside starting inside after the first crossing
            best_w = np.full(n_parts, -np.inf)
            best_x = np.zeros(n_parts)
            cross_parts = srid[crosses]
            cross_x = xint[crosses]
            if len(cross_parts):
                order = np.lexsort((cross_x, cross_parts))
                cp = cross_parts[order]
                cx = cross_x[order]
                cut = np.flatnonzero(np.diff(cp)) + 1
                for parts_grp, xs_grp in zip(np.split(cp, cut), np.split(cx, cut)):
                    if len(xs_grp) < 2:
                        continue
                    m = len(xs_grp) - (len(xs_grp) % 2)
                    spans = xs_grp[1:m:2] - xs_grp[0:m:2]
                    kk = int(np.argmax(spans))
                    p = parts_grp[0]
                    best_w[p] = spans[kk]
                    best_x[p] = 0.5 * (xs_grp[2 * kk] + xs_grp[2 * kk + 1])
            # per row: the widest-span part wins
            rcounts = np.bincount(part_row, minlength=len(prows))
            has = rcounts > 0
            if has.any():
                r_off = np.zeros(len(prows), dtype=np.int64)
                np.cumsum(rcounts[:-1], out=r_off[1:])
                wmax = np.maximum.reduceat(best_w, r_off[has])
                hit = np.flatnonzero(best_w == np.repeat(wmax, rcounts[has]))
                first = hit[np.searchsorted(hit, r_off[has])]
                valid = np.isfinite(wmax)
                rows_sel = np.flatnonzero(has)[valid]
                out_x[prows[rows_sel]] = best_x[first[valid]]
                out_y[prows[rows_sel]] = yc[first[valid]]
        # degenerate polygons (zero-height parts, no crossings anywhere):
        # first coordinate — on the boundary, hence still intersecting
        miss = prows[np.isnan(out_x[prows])]
        if len(miss):
            # c0 indexes the PRE-closure coords; the first coord of a
            # geometry is the same value in both arrays
            out_x[miss] = ga.coords[c0[miss], 0]
            out_y[miss] = ga.coords[c0[miss], 1]
    ok = ~np.isnan(out_x)
    return _points_or_missing(out_x, out_y, ok)


def oriented_envelope(ga: GeometryArray) -> GeometryArray:
    """Minimum rotated rectangle per geometry (shapely ``oriented_envelope``
    / GeoPandas ``minimum_rotated_rectangle``).

    The minimum-area enclosing rectangle has a side collinear with a convex-
    hull edge (the rotating-calipers theorem), so: hull per geometry, then
    every (hull edge × hull vertex) pair scored in one vectorized pass —
    projections onto the edge frame, per-edge extent via ``reduceat``,
    per-geometry first-argmin on area. Degenerate hulls pass through
    (point -> point, collinear -> linestring), matching shapely.
    """
    hull = convex_hull(ga)
    n = len(hull)
    poly_all = np.flatnonzero(hull.types == POLYGON)
    if len(poly_all) == 0:
        return hull
    h0, h1 = _coord_ranges(hull)
    # bound the (edge x vertex) expansion per pass (hulls are usually tiny,
    # but one 10k-vertex convex input would otherwise square up)
    sizes = (h1 - h0)[poly_all] - 1
    budget = 8_000_000
    chunk_id = np.zeros(len(poly_all), dtype=np.int64)
    if int((sizes * sizes).sum()) > budget:
        chunk_id = np.cumsum(sizes * sizes) // budget
    out_all: list = hull.to_pylist()
    for cid in np.unique(chunk_id):
        _oriented_envelope_rows(hull, poly_all[chunk_id == cid], h0, h1, out_all)
    return GeometryArray.from_pylist(out_all)


def _oriented_envelope_rows(hull: GeometryArray, poly: np.ndarray,
                            h0: np.ndarray, h1: np.ndarray, out_list: list) -> None:
    c = hull.coords
    s_r, e_r = h0[poly], h1[poly]
    npts = e_r - s_r - 1  # drop the closing duplicate
    nedg = npts  # closed ring: one edge per distinct vertex
    # per-row (edge, point) cross products
    pairs_per = nedg * npts
    tot = int(pairs_per.sum())
    prow = np.repeat(np.arange(len(poly)), pairs_per)
    p_off = np.zeros(len(poly), dtype=np.int64)
    np.cumsum(pairs_per[:-1], out=p_off[1:])
    r = np.arange(tot, dtype=np.int64) - p_off[prow]
    ei = s_r[prow] + r // npts[prow]
    pi = s_r[prow] + r % npts[prow]
    d = c[ei + 1] - c[ei]  # edge vector (closing coord makes ei+1 safe)
    L = np.hypot(d[:, 0], d[:, 1])
    L = np.where(L == 0.0, 1.0, L)
    dx, dy = d[:, 0] / L, d[:, 1] / L
    u = c[pi, 0] * dx + c[pi, 1] * dy
    v = -c[pi, 0] * dy + c[pi, 1] * dx
    # per-edge extents (blocks of npts contiguous entries)
    blk = np.repeat(p_off, nedg) + _expand_ranges(
        np.zeros(len(poly), dtype=np.int64), nedg) * np.repeat(npts, nedg)
    min_u = np.minimum.reduceat(u, blk)
    max_u = np.maximum.reduceat(u, blk)
    min_v = np.minimum.reduceat(v, blk)
    max_v = np.maximum.reduceat(v, blk)
    area = (max_u - min_u) * (max_v - min_v)
    # first-argmin per geometry over its edges
    e_off = np.zeros(len(poly), dtype=np.int64)
    np.cumsum(nedg[:-1], out=e_off[1:])
    amin = np.minimum.reduceat(area, e_off)
    hit = np.flatnonzero(area == np.repeat(amin, nedg))
    best = hit[np.searchsorted(hit, e_off)]  # first edge per geometry
    # rectangle corners in the winning edge frame (CCW: p is the left normal)
    edge_coord = s_r + (best - e_off)  # global coord index of the best edge
    bd = c[edge_coord + 1] - c[edge_coord]
    bL = np.hypot(bd[:, 0], bd[:, 1])
    bL = np.where(bL == 0.0, 1.0, bL)
    bdx, bdy = bd[:, 0] / bL, bd[:, 1] / bL
    mu, Mu, mv, Mv = min_u[best], max_u[best], min_v[best], max_v[best]
    for i, g in enumerate(poly):
        ddx, ddy = float(bdx[i]), float(bdy[i])
        ring = []
        for a, b in ((mu[i], mv[i]), (Mu[i], mv[i]), (Mu[i], Mv[i]), (mu[i], Mv[i])):
            ring.append((float(a * ddx - b * ddy), float(a * ddy + b * ddx)))
        ring.append(ring[0])
        out_list[g] = ("polygon", [ring])


def _welzl_circle(pts: np.ndarray) -> tuple[float, float, float]:
    """Exact minimum enclosing circle of <= ~64 hull points.

    Move-to-front Welzl over a DETERMINISTICALLY permuted order (seeded by
    the point count): hull order is exactly the adversarial order for MTF
    Welzl (convex position, each point outside the current circle), turning
    it O(n³); a fixed pseudo-random permutation restores the expected-linear
    bound while keeping output a pure function of the input. Returns
    (cx, cy, r)."""
    if len(pts) > 3:
        order = np.random.default_rng(len(pts)).permutation(len(pts))
        pts = pts[order]
    P = [(float(x), float(y)) for x, y in pts]

    def circle2(a, b):
        return ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0,
                np.hypot(a[0] - b[0], a[1] - b[1]) / 2.0)

    def circle3(a, b, c):
        ax, ay = a
        bx, by = b
        cx, cy = c
        d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
        if d == 0.0:
            # collinear: the widest pair's diameter circle
            cands = [circle2(a, b), circle2(a, c), circle2(b, c)]
            return max(cands, key=lambda z: z[2])
        ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
              + (cx * cx + cy * cy) * (ay - by)) / d
        uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
              + (cx * cx + cy * cy) * (bx - ax)) / d
        return (ux, uy, np.hypot(ax - ux, ay - uy))

    def inside(c, p, eps=1e-9):
        return np.hypot(p[0] - c[0], p[1] - c[1]) <= c[2] * (1.0 + eps) + eps

    c = (P[0][0], P[0][1], 0.0)
    for i, p in enumerate(P):
        if inside(c, p):
            continue
        c = (p[0], p[1], 0.0)
        for j in range(i):
            q = P[j]
            if inside(c, q):
                continue
            c = circle2(p, q)
            for k in range(j):
                s = P[k]
                if inside(c, s):
                    continue
                c = circle3(p, q, s)
    return c


def _polylabel_one(segs: np.ndarray, tol: float):
    """Pole of inaccessibility of the areal region bounded (even-odd) by
    ``segs`` (m, 2, 2): the interior point maximizing distance to the
    boundary, to within ``tol``. Mapbox-polylabel-style quadtree search,
    run FRONTIER-WIDE: each round evaluates every surviving cell center
    in one vectorized signed-distance pass (even-odd crossing count for
    the sign, point-to-segment min for the magnitude), prunes cells
    whose potential ``d + half*sqrt(2)`` cannot beat the incumbent, and
    quarters the rest. Returns ((x, y), radius)."""
    x1 = segs[:, 0, 0]
    y1 = segs[:, 0, 1]
    x2 = segs[:, 1, 0]
    y2 = segs[:, 1, 1]
    minx, maxx = float(segs[..., 0].min()), float(segs[..., 0].max())
    miny, maxy = float(segs[..., 1].min()), float(segs[..., 1].max())

    dvec = segs[:, 1] - segs[:, 0]
    L2 = (dvec ** 2).sum(axis=1)
    L2safe = np.where(L2 == 0, 1.0, L2)
    dy = np.where(y2 == y1, 1.0, y2 - y1)

    m = len(segs)

    # not the point-in-polygon kernel (strtree.PreparedPolygons.parity_on):
    # the search needs a signed distance, whose sign and magnitude come
    # from the same (cells x segments) block
    def _signed_dist_block(P: np.ndarray) -> np.ndarray:
        px = P[:, 0, None]
        py = P[:, 1, None]
        straddle = (y1[None, :] > py) != (y2[None, :] > py)
        xint = x1[None, :] + (py - y1[None, :]) * (x2 - x1)[None, :] / dy[None, :]
        inside = ((straddle & (px < xint)).sum(axis=1) & 1).astype(bool)
        ap = P[:, None, :] - segs[None, :, 0]
        t = np.clip((ap * dvec[None, :, :]).sum(axis=2) / L2safe[None, :], 0.0, 1.0)
        proj = segs[None, :, 0] + t[:, :, None] * dvec[None, :, :]
        d = np.sqrt(((P[:, None, :] - proj) ** 2).sum(axis=2)).min(axis=1)
        return np.where(inside, d, -d)

    def signed_dist(P: np.ndarray) -> np.ndarray:
        # bound the (cells x segments) temporaries to ~4M pairs per pass
        # (same guard discipline as _clearance_one / hausdorff)
        chunk = max(1, 4_000_000 // max(m, 1))
        if len(P) <= chunk:
            return _signed_dist_block(P)
        out = np.empty(len(P))
        for lo in range(0, len(P), chunk):
            out[lo:lo + chunk] = _signed_dist_block(P[lo:lo + chunk])
        return out

    max_cells = 65536
    w, h = maxx - minx, maxy - miny
    size = min(w, h)
    if size <= 0:
        return (minx, miny), 0.0
    # high-aspect bboxes (rivers, coastlines): a min-extent-sized grid is
    # ceil(aspect) cells wide — unbounded. Grow the initial cell so the
    # grid never exceeds the frontier cap; refinement recovers resolution.
    if w * h > 0 and (w / size) * (h / size) > max_cells // 4:
        size = float(np.sqrt(w * h / (max_cells // 4)))
    half = size / 2.0
    nx = max(1, int(np.ceil(w / size)))
    ny = max(1, int(np.ceil(h / size)))
    cx = minx + half + size * np.arange(nx)
    cy = miny + half + size * np.arange(ny)
    centers = np.stack(np.meshgrid(cx, cy), axis=-1).reshape(-1, 2)
    # seeds: bbox center + vertex centroid (cheap interior guesses)
    seeds = np.array([[(minx + maxx) / 2, (miny + maxy) / 2],
                      [segs[:, 0, 0].mean(), segs[:, 0, 1].mean()]])
    sd = signed_dist(seeds)
    best_i = int(sd.argmax())
    best_d = float(sd[best_i])
    best_xy = (float(seeds[best_i, 0]), float(seeds[best_i, 1]))
    sq2 = np.sqrt(2.0)
    # Degenerate optima are RIDGES (a thin rectangle's whole centerline
    # is optimal), where the surviving frontier grows like ridge_len /
    # half — unbounded as tol -> 0. Cap the frontier at the highest-
    # potential cells: the incumbent keeps improving and the answer
    # stays within the cap's effective resolution, it just stops
    # distinguishing equally-good centers (any of them is a valid pole).
    #
    # Keep refining PAST the tolerance while no interior point has been
    # found (best_d <= 0): a coarse tol (or the default on a polygon much
    # thinner than its bbox) would otherwise return a seed that lies in a
    # void OUTSIDE the polygon. GEOS always returns an interior point.
    # Terminates: once every surviving cell's potential falls below the
    # incumbent the frontier empties, and zero-area regions never yield
    # a positive d.
    rounds = 0
    while len(centers) and (half * sq2 > tol or best_d <= 0.0) and rounds < 1080:
        rounds += 1
        d = signed_dist(centers)
        i = int(d.argmax())
        if d[i] > best_d:
            best_d = float(d[i])
            best_xy = (float(centers[i, 0]), float(centers[i, 1]))
        # while no interior point is known, prune only provably-exterior
        # cells (potential <= 0) — the tol slack must not discard the one
        # cell holding a shallower-than-tol interior.
        floor = best_d + tol if best_d > 0.0 else 0.0
        keep = d + half * sq2 > floor
        centers = centers[keep]
        dk = d[keep]
        if len(centers) > max_cells // 4:
            top = np.argpartition(-dk, max_cells // 4 - 1)[:max_cells // 4]
            centers = centers[top]
        q = half / 2.0
        offs = np.array([[-q, -q], [q, -q], [-q, q], [q, q]])
        centers = (centers[:, None, :] + offs[None, :, :]).reshape(-1, 2)
        half = q
    return best_xy, max(best_d, 0.0)


def _areal_segments(ga: GeometryArray, i: int) -> np.ndarray | None:
    """All boundary segments of areal row ``i`` as (m, 2, 2), closing
    each ring; None for non-areal/missing rows."""
    t = ga.types[i]
    if t not in (POLYGON, MULTIPOLYGON):
        return None
    segs = []
    for p in range(ga.geom_offsets[i], ga.geom_offsets[i + 1]):
        for r in range(ga.part_offsets[p], ga.part_offsets[p + 1]):
            c = ga.coords[ga.ring_offsets[r]:ga.ring_offsets[r + 1]]
            if len(c) < 2:
                continue
            cc = np.concatenate([c, c[:1]], axis=0) if (c[0] != c[-1]).any() else c
            segs.append(np.stack([cc[:-1], cc[1:]], axis=1))
    if not segs:
        return None
    return np.concatenate(segs, axis=0)


def maximum_inscribed_circle(ga: GeometryArray, tolerance: float | None = None,
                             vertex_budget=None) -> GeometryArray:
    """Center of the maximum inscribed circle (pole of inaccessibility)
    per areal row, as a POINT (GEOS ``MaximumInscribedCircle`` /
    PostGIS ST_MaximumInscribedCircle center; mapbox polylabel).
    ``tolerance`` defaults to bbox diagonal / 1000, GEOS's rule.
    Non-areal rows come back missing. Per-geometry algorithmic kernel
    (quadtree search over all segments): budget-guarded
    (:mod:`geopolars_ray.geom.budget`)."""
    from geopolars_ray.geom.budget import check_vertex_budget

    out: list = []
    for i in range(len(ga)):
        segs = _areal_segments(ga, i)
        if segs is None:
            out.append(None)
            continue
        check_vertex_budget(len(segs), "maximum_inscribed_circle", vertex_budget)
        tol = tolerance
        if tol is None:
            w = float(segs[..., 0].max() - segs[..., 0].min())
            h = float(segs[..., 1].max() - segs[..., 1].min())
            tol = max(np.hypot(w, h) / 1000.0, 1e-12)
        (px, py), _r = _polylabel_one(segs, tol)
        out.append(("point", (px, py)))
    return GeometryArray.from_pylist(out)


def maximum_inscribed_radius(ga: GeometryArray, tolerance: float | None = None,
                             vertex_budget=None) -> np.ndarray:
    """Radius of the maximum inscribed circle per areal row (scalar
    sibling of ``maximum_inscribed_circle``, same search). Budget-
    guarded like it too."""
    from geopolars_ray.geom.budget import check_vertex_budget

    out = np.full(len(ga), np.nan)
    for i in range(len(ga)):
        segs = _areal_segments(ga, i)
        if segs is None:
            continue
        check_vertex_budget(len(segs), "maximum_inscribed_radius", vertex_budget)
        tol = tolerance
        if tol is None:
            w = float(segs[..., 0].max() - segs[..., 0].min())
            h = float(segs[..., 1].max() - segs[..., 1].min())
            tol = max(np.hypot(w, h) / 1000.0, 1e-12)
        _xy, r = _polylabel_one(segs, tol)
        out[i] = r
    return out


def minimum_bounding_radius(ga: GeometryArray) -> np.ndarray:
    """Radius of the exact minimum enclosing circle per geometry (shapely
    ``minimum_bounding_radius``). NaN for missing, 0 for points.

    The circle depends only on convex-hull vertices, so the vectorized hull
    runs first and the exact Welzl scan touches <= hull-size points per
    geometry."""
    hull = convex_hull(ga)
    out = np.full(len(ga), np.nan)
    h0, h1 = _coord_ranges(hull)
    for i in range(len(hull)):
        t = hull.types[i]
        if t == MISSING:
            continue
        pts = hull.coords[h0[i]:h1[i]]
        if t == POLYGON:
            pts = pts[:-1]  # drop the closing duplicate
        out[i] = _welzl_circle(pts)[2] if len(pts) else np.nan
    return out


def minimum_bounding_circle(ga: GeometryArray, quad_segs: int = 16) -> GeometryArray:
    """Minimum enclosing circle as a polygon (shapely
    ``minimum_bounding_circle``; ``quad_segs`` vertices per quarter arc).
    Points stay points; missing stays missing."""
    hull = convex_hull(ga)
    h0, h1 = _coord_ranges(hull)
    out: list = []
    for i in range(len(hull)):
        t = hull.types[i]
        if t == MISSING:
            out.append(None)
            continue
        pts = hull.coords[h0[i]:h1[i]]
        if t == POLYGON:
            pts = pts[:-1]
        if len(pts) == 0:
            out.append(None)
            continue
        cx, cy, r = _welzl_circle(pts)
        if r == 0.0:
            out.append(("point", (cx, cy)))
            continue
        ang = np.linspace(0.0, 2.0 * np.pi, 4 * quad_segs, endpoint=False)
        ring = [(float(cx + r * np.cos(a)), float(cy + r * np.sin(a))) for a in ang]
        ring.append(ring[0])
        out.append(("polygon", [ring]))
    return GeometryArray.from_pylist(out)


def _chain_scan(px: list, py: list) -> list:
    """CCW hull vertices (no closing repeat) of (x, y)-sorted unique points;
    scalar-arithmetic Andrew's monotone chain."""

    def half(idx_iter):
        h: list[tuple[float, float]] = []
        for i in idx_iter:
            xi, yi = px[i], py[i]
            while len(h) >= 2:
                x0, y0 = h[-2]
                x1, y1 = h[-1]
                if (x1 - x0) * (yi - y0) - (y1 - y0) * (xi - x0) <= 0.0:
                    h.pop()
                else:
                    break
            h.append((xi, yi))
        return h

    m = len(px)
    lower = half(range(m))
    upper = half(range(m - 1, -1, -1))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # collinear input
        return [(px[0], py[0]), (px[-1], py[-1])]
    return hull


def simplify(ga: GeometryArray, tolerance: float) -> GeometryArray:
    """Douglas-Peucker per ring, endpoints preserved, no new points
    (`geoseries.rs:109-116`).

    Level-synchronous: each round takes the open intervals (a, b) of every
    ring at once, measures all their interior points against their chords
    in one pass, and splits each interval whose maximum exceeds the
    tolerance at its first maximal point (``np.argmax``'s tie-break). An
    interval whose maximum is NaN never splits (``NaN > tol`` is false),
    as ``np.argmax`` picks the first NaN. The distance is ``sqrt(x*x +
    y*y)``, not ``np.hypot``: both are exact to the same ULP for
    geographic magnitudes, and this op sequence is reproducible verbatim in
    SQL (DuckDB has no hypot), which makes every comparison bit-identical
    to the geo_simplify oracle's recursive-CTE replay. Rings of <= 2 coords
    keep every coord.
    """
    x, y = ga.coords[:, 0], ga.coords[:, 1]
    s, e = ga.ring_offsets[:-1], ga.ring_offsets[1:]
    keep = np.zeros(len(ga.coords), dtype=bool)
    short = e - s <= 2
    keep[_expand_ranges(s[short], e[short])] = True
    a, b = s[~short], e[~short] - 1
    keep[a] = True
    keep[b] = True
    while len(a):
        lens = b - a - 1
        first = np.zeros(len(a), dtype=np.int64)
        np.cumsum(lens[:-1], out=first[1:])
        iv = np.repeat(np.arange(len(a)), lens)
        idx = np.arange(len(iv)) - first[iv] + a[iv] + 1
        ax, ay = x[a], y[a]
        sx, sy = x[b] - ax, y[b] - ay
        seg_len = np.sqrt(sx * sx + sy * sy)
        px, py = x[idx] - ax[iv], y[idx] - ay[iv]
        zero = (seg_len == 0)[iv]
        with np.errstate(invalid="ignore", divide="ignore"):
            d = np.where(zero, np.sqrt(px * px + py * py),
                         np.abs(px * sy[iv] - py * sx[iv]) / seg_len[iv])
        dmax = np.maximum.reduceat(d, first)
        split = dmax > tolerance
        if not split.any():
            break
        # the first maximal point of each splitting interval
        hit = np.flatnonzero((d == dmax[iv]) & split[iv])
        m = idx[hit[np.r_[True, iv[hit][1:] != iv[hit][:-1]]]]
        keep[m] = True
        a, b = np.concatenate([a[split], m]), np.concatenate([m, b[split]])
        wide = b - a >= 2
        a, b = a[wide], b[wide]
    # rebuild offsets with only kept coords
    kept_per_ring = _range_sums(keep.astype(np.float64), ga.ring_offsets[:-1], ga.ring_offsets[1:]).astype(np.int64)
    new_ring_off = np.zeros(ga.n_rings + 1, dtype=np.int64)
    np.cumsum(kept_per_ring, out=new_ring_off[1:])
    return GeometryArray(
        types=ga.types,
        geom_offsets=ga.geom_offsets,
        part_offsets=ga.part_offsets,
        ring_offsets=new_ring_off,
        coords=ga.coords[keep],
    )


# --------------------------------------------------------------------------
# distance
# --------------------------------------------------------------------------


def distance(lhs: GeometryArray, rhs: GeometryArray) -> np.ndarray:
    """Row-wise aligned euclidean distance (`geoseries.rs:141-146`).

    Point⊗Point rows take the direct vectorized path; EVERY other type pair
    goes through the batched generic kernel (`_distance_generic`) — per-row
    minima over (vertex × segment) pair expansions plus vectorized
    crossing/containment zero-distance short-circuits. A per-row Python
    loop (the test reference) measured 3.7k line⊗line rows/s; the batched
    kernel measures ~170k (47×).
    """
    if len(lhs) != len(rhs):
        raise ValueError("distance requires equal-length series")
    n = len(lhs)
    out = np.full(n, np.nan)
    lp = lhs.types == POINT
    rp = rhs.types == POINT
    both = lp & rp
    if both.any():
        lco = lhs.coord_offsets()[:-1]
        rco = rhs.coord_offsets()[:-1]
        dx = lhs.coords[lco[both], 0] - rhs.coords[rco[both], 0]
        dy = lhs.coords[lco[both], 1] - rhs.coords[rco[both], 1]
        out[both] = np.sqrt(dx * dx + dy * dy)
    rest = ~both & ~lhs.is_missing() & ~rhs.is_missing()
    if rest.any():
        rows = np.nonzero(rest)[0]
        out[rows] = _distance_generic(lhs, rhs, rows)
    return out


def _seg_valid(ga: GeometryArray) -> np.ndarray:
    """bool over coords[:-1]: index j starts a real (within-ring) segment."""
    nc = len(ga.coords)
    v = np.zeros(max(nc - 1, 0), dtype=bool)
    if nc > 1:
        v[:] = True
        ends = ga.ring_offsets[1:] - 1
        ends = ends[(ends >= 0) & (ends < nc - 1)]
        v[ends] = False
    return v


def _ensure_closed_rings(ga: GeometryArray) -> GeometryArray:
    """Return ``ga`` with every polygon/linearring ring explicitly closed
    (first coord appended where last != first).

    Open rings are a supported representation elsewhere (``area`` closes
    implicitly via the shoelace wrap, ``strtree.PreparedPolygons.parity_on``
    appends the closing edge), but the batched distance / containment /
    scanline kernels enumerate explicit within-ring segments only — they
    normalize through here first so the implicit closing edge exists.
    Returns ``ga`` unchanged (zero-copy) when every ring is already closed,
    the overwhelmingly common case."""
    closeable = np.isin(ga.types, _POLY_TYPES) | (ga.types == LINEARRING)
    if not closeable.any():
        return ga
    ring_counts = ga.part_offsets[ga.geom_offsets[1:]] - ga.part_offsets[ga.geom_offsets[:-1]]
    ring_closeable = np.repeat(closeable, ring_counts)
    rlen = ga.ring_offsets[1:] - ga.ring_offsets[:-1]
    cand = np.flatnonzero(ring_closeable & (rlen >= 3))
    if not len(cand):
        return ga
    first = ga.coords[ga.ring_offsets[:-1][cand]]
    last = ga.coords[ga.ring_offsets[1:][cand] - 1]
    open_rings = cand[(first != last).any(axis=1)]
    if not len(open_rings):
        return ga
    need = np.zeros(len(rlen), dtype=np.int64)
    need[open_rings] = 1
    pos = ga.ring_offsets[1:][open_rings]
    vals = ga.coords[ga.ring_offsets[:-1][open_rings]]
    new_coords = np.insert(ga.coords, pos, vals, axis=0)
    new_ring = ga.ring_offsets + np.concatenate([[0], np.cumsum(need)])
    return GeometryArray(
        types=ga.types,
        geom_offsets=ga.geom_offsets,
        part_offsets=ga.part_offsets,
        ring_offsets=new_ring,
        coords=new_coords,
    )


# pairs one chunk of a pair expansion holds (each pass keeps about ten
# float64 / int64 temporaries of this length): bounds every (vertex x
# candidate) and (segment x segment) pass, whatever the row sizes
_PAIR_BUDGET = 2_000_000


class _PairChunk(NamedTuple):
    """One chunk of a per-row pair expansion (see ``_pairs_per_row``)."""

    sel: np.ndarray  # the row slots of the chunk, each once
    vi: np.ndarray  # A index of each pair
    cj: np.ndarray  # B index of each pair
    prow: np.ndarray  # position in ``sel`` of each pair's slot
    off: np.ndarray  # each slot's first pair: ``ufunc.reduceat(v, off)`` reduces per slot


def _pairs_per_row(ca, cb):
    """Yield the per-row cross products between index ranges
    ``ca=(starts, ends)`` and ``cb=(starts, ends)`` as ``_PairChunk``s:
    a row's pairs are contiguous, in (A index, B index) order.

    The engine's one pair expansion. A chunk holds either the whole rows
    whose pairs start within one ``_PAIR_BUDGET`` multiple of the running
    total, or one strip of a row with more A indices than fit the budget:
    such a row is split into strips of ``max(1, budget // nb)`` whole
    A-index blocks, one chunk each, in order. So a chunk holds under twice
    the budget, or one A-index block when that alone is larger. A row can
    span consecutive chunks: callers fold per row (min, or, first hit),
    and a reduction per A index stays exact."""
    (a0, a1), (b0, b1) = ca, cb
    na = a1 - a0
    nb = b1 - b0
    live = np.flatnonzero((na > 0) & (nb > 0))
    if not len(live):
        return
    step = np.maximum(1, _PAIR_BUDGET // nb[live])
    nstrip = -(-na[live] // step)
    srow = np.repeat(live, nstrip)
    s0 = a0[srow] + _expand_ranges(np.zeros(len(live), dtype=np.int64), nstrip) * np.repeat(step, nstrip)
    s1 = np.minimum(s0 + np.repeat(step, nstrip), a1[srow])
    pairs = (s1 - s0) * nb[srow]
    # a chunk starts where the running total crosses a budget multiple, at
    # every strip of a split row and after its last one
    key = (np.cumsum(pairs) - pairs) // _PAIR_BUDGET
    split = np.repeat(nstrip > 1, nstrip)
    start = split.copy()
    start[0] = True
    start[1:] |= (key[1:] != key[:-1]) | split[:-1]
    edges = np.append(np.flatnonzero(start), len(srow))
    for c0, c1 in zip(edges[:-1], edges[1:]):
        sel = srow[c0:c1]
        nb_r = nb[sel]
        pp = pairs[c0:c1]
        off = np.zeros(len(sel), dtype=np.int64)
        np.cumsum(pp[:-1], out=off[1:])
        prow = np.repeat(np.arange(len(sel)), pp)
        r = np.arange(int(pp.sum()), dtype=np.int64) - off[prow]
        yield _PairChunk(sel, s0[c0:c1][prow] + r // nb_r[prow], b0[sel][prow] + r % nb_r[prow], prow, off)


def _near_pairs(A: GeometryArray, B: GeometryArray, rows: np.ndarray, segments: bool,
                b_end: np.ndarray | None = None):
    """Yield ``(chunk, d2, q)`` over the (vertex of ``A[rows[s]]``) x
    (candidate of ``B[rows[s]]``) pairs of each slot s, chunked by
    ``_pairs_per_row``. The candidates are B's coordinates (up to
    ``b_end`` when given) or, with ``segments``, its segments j -> j + 1;
    ``q`` is the candidate's point nearest the vertex and ``d2`` the
    squared distance to it (+inf for a cross-ring filler segment)."""
    a0, a1 = _coord_ranges(A)
    b0, b1 = _coord_ranges(B)
    bs = b0[rows]
    if segments:
        be = np.maximum(b1[rows] - 1, bs)
        is_seg = _seg_valid(B)
    else:
        be = b1[rows] if b_end is None else b_end
    for c in _pairs_per_row((a0[rows], a1[rows]), (bs, be)):
        p = A.coords[c.vi]
        q = B.coords[c.cj]
        if segments:
            ab = B.coords[c.cj + 1] - q
            ap = p - q
            den = ab[:, 0] ** 2 + ab[:, 1] ** 2
            t = np.clip(np.where(den > 0, (ap[:, 0] * ab[:, 0] + ap[:, 1] * ab[:, 1]) / np.where(den == 0, 1.0, den), 0.0), 0.0, 1.0)
            q = q + t[:, None] * ab
        dq = p - q
        d2 = dq[:, 0] ** 2 + dq[:, 1] ** 2
        if segments:
            d2[~is_seg[c.cj]] = np.inf
        yield c, d2, q


def _min_vert_to_side(A: GeometryArray, B: GeometryArray, rows: np.ndarray,
                      d2min: np.ndarray) -> None:
    """Fold min squared distance from A's vertices to B's points+segments
    into d2min (indexed like rows). Fully vectorized pair expansion."""
    b0, b1 = _coord_ranges(B)
    is_seg = _seg_valid(B)
    # point pass only for rows whose B side has a coord NOT covered by the
    # segment pass: segment projections with t-clamping already cover every
    # segment endpoint, so the pass is needed exactly when B has no real
    # segment at all OR has an isolated single-coord ring mixed in with
    # segments (e.g. multilinestring [[a,b],[c]] — c sits in no segment)
    if len(is_seg):
        seg_counts = _range_sums(is_seg.astype(np.float64), b0[rows],
                                 np.maximum(b1[rows] - 1, b0[rows]))
        no_seg = seg_counts == 0
    else:
        no_seg = np.ones(len(rows), dtype=bool)
    rlen = B.ring_offsets[1:] - B.ring_offsets[:-1]
    iso = np.zeros(len(B.coords), dtype=bool)
    solo = np.flatnonzero(rlen == 1)
    if len(solo):
        iso[B.ring_offsets[:-1][solo]] = True
    iso_counts = _range_sums(iso.astype(np.float64), b0[rows], b1[rows]) \
        if len(iso) else np.zeros(len(rows))
    run_pts = no_seg | (iso_counts > 0)
    pt_end = np.where(run_pts, b1[rows], b0[rows])  # empty range when covered
    for segments, b_end in ((False, pt_end), (True, None)):
        for c, d2, _ in _near_pairs(A, B, rows, segments, b_end):
            d2min[c.sel] = np.minimum(d2min[c.sel], np.minimum.reduceat(d2, c.off))


class _Contacts(NamedTuple):
    """One chunk of segment pairs (A segment ``c.vi`` -> ``c.vi + 1``, B
    segment ``c.cj`` -> ``c.cj + 1``) and how they meet."""

    c: _PairChunk
    proper: np.ndarray  # the interiors cross transversally
    touch: tuple  # B's start on A's segment, B's end on it, A's start on B's, A's end on it
    d3: np.ndarray  # orientation of A's start against B's segment
    d4: np.ndarray  # and of A's end: a proper crossing lies at d3 / (d3 - d4) along A's


def _segment_contacts(A: GeometryArray, B: GeometryArray, ia: np.ndarray, ib: np.ndarray):
    """The engine's one segment-contact kernel: yield ``_Contacts`` over
    the (segment of ``A[ia[k]]``) x (segment of ``B[ib[k]]``) pairs of
    every pair slot k, chunked by ``_pairs_per_row``. Segments are the
    within-ring ones (cross-ring fillers are masked out of every mask); an
    open ring's closing edge is not one (``_ensure_closed_rings`` adds
    it). A touch is a zero orientation with the point inside the other
    segment's bbox, so collinear overlaps and shared vertices count."""
    a0, a1 = _coord_ranges(A)
    b0, b1 = _coord_ranges(B)
    va = _seg_valid(A)
    vb = _seg_valid(B)
    ca = (a0[ia], np.maximum(a1[ia] - 1, a0[ia]))
    cb = (b0[ib], np.maximum(b1[ib] - 1, b0[ib]))
    for c in _pairs_per_row(ca, cb):
        valid = va[c.vi] & vb[c.cj]
        p1 = A.coords[c.vi]
        p2 = A.coords[c.vi + 1]
        q1 = B.coords[c.cj]
        q2 = B.coords[c.cj + 1]

        def orient(o, a, b):
            return (a[:, 0] - o[:, 0]) * (b[:, 1] - o[:, 1]) - (a[:, 1] - o[:, 1]) * (b[:, 0] - o[:, 0])

        d1 = orient(p1, p2, q1)
        d2 = orient(p1, p2, q2)
        d3 = orient(q1, q2, p1)
        d4 = orient(q1, q2, p2)
        proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0)

        def on(a, b, pt, d):
            return ((d == 0) & valid
                    & (pt[:, 0] >= np.minimum(a[:, 0], b[:, 0])) & (pt[:, 0] <= np.maximum(a[:, 0], b[:, 0]))
                    & (pt[:, 1] >= np.minimum(a[:, 1], b[:, 1])) & (pt[:, 1] <= np.maximum(a[:, 1], b[:, 1])))

        touch = (on(p1, p2, q1, d1), on(p1, p2, q2, d2), on(q1, q2, p1, d3), on(q1, q2, p2, d4))
        yield _Contacts(c, proper & valid, touch, d3, d4)


def _any_contact(A: GeometryArray, B: GeometryArray, ia: np.ndarray, ib: np.ndarray,
                 proper_only: bool = False) -> np.ndarray:
    """bool per pair k: a segment of ``A[ia[k]]`` meets one of ``B[ib[k]]``
    — crosses or touches, or with ``proper_only`` crosses transversally
    (the test that falsifies containment without rejecting a shared
    boundary)."""
    hit = np.zeros(len(ia), dtype=bool)
    for s in _segment_contacts(A, B, ia, ib):
        m = s.proper if proper_only else s.proper | s.touch[0] | s.touch[1] | s.touch[2] | s.touch[3]
        if m.any():
            hit[s.c.sel] |= np.logical_or.reduceat(m, s.c.off)
    return hit


def _repr_point_inside(pts_side: GeometryArray, poly_side: GeometryArray,
                       rows: np.ndarray) -> np.ndarray:
    """bool per row: the first coord of ANY PART of pts_side has odd
    crossing parity against poly_side's rings (one representative per
    PART, not per row — a disconnected multi-part can have one part
    inside with no segment crossing). Boundary hits are irrelevant to
    callers — the crossing test already zeroed touching rows — so this
    takes the parity of the point-in-polygon kernel, not its containment."""
    from geopolars_ray.geom.strtree import PreparedPolygons

    inside = np.zeros(len(rows), dtype=bool)
    # expand to one entry per PART of the pts side
    parts_per = (pts_side.geom_offsets[rows + 1] - pts_side.geom_offsets[rows]).astype(np.int64)
    if not parts_per.sum():
        return inside
    part_row = np.repeat(np.arange(len(rows)), parts_per)  # row slot per part
    part_idx = _expand_ranges(pts_side.geom_offsets[rows], pts_side.geom_offsets[rows + 1])
    repr_idx = pts_side.ring_offsets[pts_side.part_offsets[part_idx]]
    # skip empty parts (no coords)
    nonempty = pts_side.ring_offsets[pts_side.part_offsets[part_idx] + 1] > repr_idx
    part_row, repr_idx = part_row[nonempty], repr_idx[nonempty]
    parity, _ = PreparedPolygons.from_geometry_array(poly_side.take(rows)).parity_on(
        pts_side.coords[repr_idx, 0], pts_side.coords[repr_idx, 1], part_row)
    inside[part_row[parity]] = True
    return inside


def _distance_generic(lhs: GeometryArray, rhs: GeometryArray, rows: np.ndarray) -> np.ndarray:
    """Batched exact min distance for non-Point⊗Point rows.

    The vectorized replacement of a per-row Python loop (same semantics,
    ~50× on small-geometry batches): per-row minima
    over both (vertex × segment/point) pair expansions, then the two
    zero-distance short-circuits — any segment crossing/touch
    (``_any_contact``), and polygon containment of the other side's
    representative vertex (one vertex suffices: partial overlaps are
    already zeroed by the crossing test). Every pair expansion runs in
    ``_pairs_per_row`` chunks of at most about ``_PAIR_BUDGET`` pairs, a
    row above the budget in strips, so one huge row stays bounded too."""
    # open-ring polygons carry an implicit closing edge the explicit-segment
    # enumeration below would otherwise miss (wrong distances AND broken
    # containment parity)
    lhs = _ensure_closed_rings(lhs)
    rhs = _ensure_closed_rings(rhs)
    d2min = np.full(len(rows), np.inf)
    _min_vert_to_side(lhs, rhs, rows, d2min)
    # mirrored direction
    d2_b = np.full(len(rows), np.inf)
    _min_vert_to_side(rhs, lhs, rows, d2_b)
    np.minimum(d2min, d2_b, out=d2min)
    out = np.sqrt(np.where(np.isfinite(d2min), d2min, np.nan))
    nonzero = np.flatnonzero(out > 0)
    if len(nonzero):
        sub = rows[nonzero]
        crossed = _any_contact(lhs, rhs, sub, sub)
        out[nonzero[crossed]] = 0.0
        still = nonzero[~crossed]
        if len(still):
            sub2 = rows[still]
            lpoly = np.isin(lhs.types[sub2], _POLY_TYPES)
            if lpoly.any():
                inside = _repr_point_inside(rhs, lhs, sub2[lpoly])
                out[still[lpoly][inside]] = 0.0
            rpoly = np.isin(rhs.types[sub2], _POLY_TYPES)
            if rpoly.any():
                inside = _repr_point_inside(lhs, rhs, sub2[rpoly])
                out[still[rpoly][inside]] = 0.0
    return out


def _rings_of(ga: GeometryArray, i: int) -> list[np.ndarray]:
    rings = []
    for p in range(ga.geom_offsets[i], ga.geom_offsets[i + 1]):
        for r in range(ga.part_offsets[p], ga.part_offsets[p + 1]):
            rings.append(ga.coords[ga.ring_offsets[r] : ga.ring_offsets[r + 1]])
    return rings


def _first_per_slot(prow: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The first of the ascending pair positions ``k`` in each slot."""
    s = prow[k]
    return k[np.r_[True, s[1:] != s[:-1]]] if len(k) else k


def _inside_witness(poly_side: GeometryArray, pts_side: GeometryArray, rows: np.ndarray,
                    found: np.ndarray, wp: np.ndarray) -> None:
    """For each slot s not ``found`` whose ``poly_side`` row is a polygon:
    the first vertex of ``pts_side[rows[s]]`` strictly inside it, from one
    ``parity_on`` over the (vertex, row) pairs, into ``wp[s]``."""
    from geopolars_ray.geom.strtree import PreparedPolygons

    slots = np.flatnonzero(~found & np.isin(poly_side.types[rows], _POLY_TYPES))
    if not len(slots):
        return
    c0, c1 = _coord_ranges(pts_side)
    r = rows[slots]
    v = _expand_ranges(c0[r], c1[r])
    slot = np.repeat(slots, c1[r] - c0[r])
    parity, on = PreparedPolygons.from_geometry_array(poly_side).parity_on(
        pts_side.coords[v, 0], pts_side.coords[v, 1], rows[slot])
    k = _first_per_slot(slot, np.flatnonzero(parity & ~on))
    found[slot[k]] = True
    wp[slot[k]] = pts_side.coords[v[k]]


def _contact_witness(A: GeometryArray, B: GeometryArray, rows: np.ndarray,
                     found: np.ndarray, wp: np.ndarray) -> None:
    """For each slot s not ``found``: a point where ``A[rows[s]]`` meets
    ``B[rows[s]]``, into ``wp[s]``. A proper crossing comes first, then
    the touches in ``_Contacts.touch`` order, each the first in pair order
    over the whole row, however it is chunked."""
    todo = np.flatnonzero(~found)
    got = np.zeros((5, len(todo)), dtype=bool)
    w = np.full((5, len(todo), 2), np.nan)
    for s in _segment_contacts(A, B, rows[todo], rows[todo]):
        c = s.c
        for m, mask in enumerate((s.proper, *s.touch)):
            k = _first_per_slot(c.prow, np.flatnonzero(mask))
            slot = c.sel[c.prow[k]]
            new = ~got[m, slot]
            k, slot = k[new], slot[new]
            got[m, slot] = True
            if m == 0:
                t = s.d3[k] / (s.d3[k] - s.d4[k])
                p1 = A.coords[c.vi[k]]
                w[m, slot] = p1 + t[:, None] * (A.coords[c.vi[k] + 1] - p1)
            elif m <= 2:  # B's start / end on A's segment
                w[m, slot] = B.coords[c.cj[k] + m - 1]
            else:  # A's start / end on B's segment
                w[m, slot] = A.coords[c.vi[k] + m - 3]
    hit = np.flatnonzero(got.any(axis=0))
    found[todo[hit]] = True
    wp[todo[hit]] = w[np.argmax(got[:, hit], axis=0), hit]


def _nearest_pass(A: GeometryArray, chunks, n: int):
    """Fold ``_near_pairs(A, ...)`` chunks into each slot's minimum ``d2``
    (NaN if any pair's is) and its first pair's (vertex, nearest point)."""
    best = np.full(n, np.inf)
    p = np.full((n, 2), np.nan)
    q = np.full((n, 2), np.nan)
    for c, d2, qc in chunks:
        mins = np.minimum.reduceat(d2, c.off)
        k = _first_per_slot(c.prow, np.flatnonzero(d2 == mins[c.prow]))
        k = k[mins[c.prow[k]] < best[c.sel[c.prow[k]]]]
        slot = c.sel[c.prow[k]]
        best[slot] = d2[k]
        p[slot] = A.coords[c.vi[k]]
        q[slot] = qc[k]
        best[c.sel[np.isnan(mins)]] = np.nan
    return best, p, q


def shortest_line(lhs: GeometryArray, rhs: GeometryArray) -> GeometryArray:
    """Row-wise shortest connecting LineString between aligned geometries
    (shapely ``shortest_line`` / the segment through ``nearest_points``).
    Endpoint order is lhs -> rhs. Missing/empty rows stay missing, and so
    does a row whose nearest pair has a NaN coordinate (its ``distance``
    is NaN).

    Batched over all rows in ``distance``'s three stages, on its kernels:
    a zero-length line at the first vertex of either side strictly inside
    the other (polygon) side; else at the first segment contact, a proper
    crossing first; else the nearest pair, lhs vertices to rhs segments,
    rhs vertices to lhs segments, then vertex to vertex (ties go to the
    earlier). Rings are closed first as in ``distance``, so
    ``euclidean_length(shortest_line(a, b)) == distance(a, b)``."""
    if len(lhs) != len(rhs):
        raise ValueError("shortest_line requires equal-length series")
    lhs = _ensure_closed_rings(lhs)
    rhs = _ensure_closed_rings(rhs)
    n = len(lhs)
    a0, a1 = _coord_ranges(lhs)
    b0, b1 = _coord_ranges(rhs)
    rows = np.flatnonzero(~lhs.is_missing() & ~rhs.is_missing() & (a1 > a0) & (b1 > b0))
    found = np.zeros(len(rows), dtype=bool)
    wp = np.full((len(rows), 2), np.nan)
    _inside_witness(lhs, rhs, rows, found, wp)
    _inside_witness(rhs, lhs, rows, found, wp)
    _contact_witness(lhs, rhs, rows, found, wp)
    wq = wp.copy()
    todo = np.flatnonzero(~found)
    if len(todo):
        sub = rows[todo]
        da, pa, qa = _nearest_pass(lhs, _near_pairs(lhs, rhs, sub, True), len(sub))
        db, pb, qb = _nearest_pass(rhs, _near_pairs(rhs, lhs, sub, True), len(sub))
        dv, pv, qv = _nearest_pass(lhs, _near_pairs(lhs, rhs, sub, False), len(sub))
        da, db, dv = np.sqrt(da), np.sqrt(db), np.sqrt(dv)
        use_a = ((da <= db) & (da <= dv))[:, None]
        use_b = (db <= dv)[:, None]
        wp[todo] = np.where(use_a, pa, np.where(use_b, qb, pv))
        wq[todo] = np.where(use_a, qa, np.where(use_b, pb, qv))
        found[todo] = np.isfinite(np.minimum(np.minimum(da, db), dv))
    rows = rows[found]
    m = len(rows)
    types = np.full(n, MISSING, dtype=np.int8)
    types[rows] = LINESTRING
    geom_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(types != MISSING, out=geom_offsets[1:])
    return GeometryArray(
        types=types,
        geom_offsets=geom_offsets,
        part_offsets=np.arange(m + 1, dtype=np.int64),
        ring_offsets=np.arange(0, 2 * m + 1, 2, dtype=np.int64),
        coords=np.stack([wp[found], wq[found]], axis=1).reshape(-1, 2),
    )


def _assemble_point_rings(is_pt: np.ndarray, rings: np.ndarray, k: int) -> GeometryArray:
    """One closed (k+1)-vertex POLYGON ring per point row, MISSING elsewhere
    — the shared ragged assembly for the point-buffer kernels."""
    out_types = np.where(is_pt, POLYGON, MISSING).astype(np.int8)
    parts_per = is_pt.astype(np.int64)
    geom_offsets = np.concatenate([[0], np.cumsum(parts_per)])
    n_parts = int(parts_per.sum())
    part_offsets = np.arange(n_parts + 1, dtype=np.int64)  # 1 ring per part
    ring_offsets = np.arange(n_parts + 1, dtype=np.int64) * (k + 1)
    return GeometryArray(
        types=out_types,
        geom_offsets=geom_offsets,
        part_offsets=part_offsets,
        ring_offsets=ring_offsets,
        coords=rings[is_pt].reshape(-1, 2),
    )


def buffer_points(ga: GeometryArray, distance: float, quad_segs: int = 8) -> GeometryArray:
    """Circular buffer of POINT geometries: one CCW ``4*quad_segs``-gon per
    point (the shapely ``buffer(distance, quad_segs)`` point case — the
    dominant buffer use in join pipelines: buffer points, then sjoin).

    Fully vectorized: one (n_points, k, 2) broadcast. Only Point rows are
    supported HERE — the registry's "buffer" kernel dispatches non-point
    rows to the general Minkowski construction in `geom/buffer.py`
    (overlay-based); calling this kernel directly with them raises.
    Missing rows pass through as missing. ``distance <= 0`` raises.

    The inscribed regular k-gon has area ``0.5 * k * d^2 * sin(2*pi/k)``
    (< pi*d^2, converging as quad_segs grows) — pinned exactly in tests.
    """
    if distance <= 0.0:
        raise ValueError("buffer distance must be positive")
    if quad_segs < 1:
        raise ValueError("quad_segs must be >= 1")
    is_pt = ga.types == POINT
    is_missing = ga.types == MISSING
    if not (is_pt | is_missing).all():
        bad = set(int(t) for t in ga.types[~(is_pt | is_missing)])
        raise NotImplementedError(
            f"buffer_points supports only Point geometries (got type ids {sorted(bad)}); "
            "line/polygon offset curves are not implemented"
        )
    k = 4 * int(quad_segs)
    n = len(ga)
    co = ga.coord_offsets()
    # CCW ring, starting at angle 0, closed by repeating the first vertex
    ang = np.arange(k) * (2.0 * np.pi / k)
    unit = np.column_stack([np.cos(ang), np.sin(ang)])
    unit = np.vstack([unit, unit[:1]])  # (k+1, 2) closed
    centers = np.zeros((n, 2))
    centers[is_pt] = ga.coords[co[:-1][is_pt]]
    rings = centers[:, None, :] + distance * unit[None, :, :]  # (n, k+1, 2)
    return _assemble_point_rings(is_pt, rings, k)


def geodesic_buffer_points(ga: GeometryArray, distance_m: float, quad_segs: int = 8) -> GeometryArray:
    """TRUE geodesic buffer of POINT geometries on the WGS84 ellipsoid: one
    CCW ring of ``4*quad_segs`` destinations of the Vincenty DIRECT problem
    at equally-spaced azimuths and constant geodesic distance.

    This replaces the project→planar-buffer→unproject AEQD recipe with the
    exact construction (no projection distortion at all: every ring vertex
    is at geodesic distance ``distance_m`` from the center by definition —
    tests pin this against the independent Karney inverse). Same contract
    as :func:`buffer_points`: points only, missing passes through, rings
    emitted CCW in lon/lat. Not meaningful past ~19,900 km (near-antipodal
    rings cross Vincenty's non-convergence slice) — refused loudly.
    """
    from geopolars_ray.geom.geodesic import vincenty_direct

    if distance_m <= 0.0:
        raise ValueError("buffer distance must be positive")
    if distance_m > 19_900_000.0:
        raise ValueError("geodesic buffers beyond ~19,900 km cross the antipodal slice")
    if quad_segs < 1:
        raise ValueError("quad_segs must be >= 1")
    is_pt = ga.types == POINT
    is_missing = ga.types == MISSING
    if not (is_pt | is_missing).all():
        bad = set(int(t) for t in ga.types[~(is_pt | is_missing)])
        raise NotImplementedError(
            f"geodesic_buffer_points supports only Point geometries (got type ids {sorted(bad)})"
        )
    k = 4 * int(quad_segs)
    n = len(ga)
    co = ga.coord_offsets()
    centers = np.zeros((n, 2))
    centers[is_pt] = ga.coords[co[:-1][is_pt]]
    # CCW in lon/lat: azimuth DECREASES (N -> W -> S -> E), closed ring
    az = -(np.arange(k + 1) % k) * (360.0 / k)
    lon_c = np.repeat(centers[:, 0], k + 1)
    lat_c = np.repeat(centers[:, 1], k + 1)
    az_all = np.tile(az, n)
    lon_r, lat_r = vincenty_direct(lon_c, lat_c, az_all, np.full(n * (k + 1), float(distance_m)))
    rings = np.column_stack([lon_r, lat_r]).reshape(n, k + 1, 2)
    return _assemble_point_rings(is_pt, rings, k)
