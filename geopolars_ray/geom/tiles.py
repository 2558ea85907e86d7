"""Tile-id kernels: lat/lon grid tiles and planar hex binning.

The tile id is the engine's partitioning key (SURVEY.md §7): every per-tile
rollup, partitioned spatial join, and resumable output layout keys on one of
these columns. Three interchangeable tilings:

- :func:`grid_tile_id` — rectangular lat/lon grid. Exactly expressible in
  ANSI SQL (floor arithmetic), so it anchors the DuckDB oracle checks.
- :func:`geopolars_ray.geom.s2.s2_cell_id` — S2 cells (hierarchical,
  equal-ish area); the scale path.
- :func:`hex_tile_id` — planar hexagonal binning (axial coordinates with
  cube rounding) over lon/lat treated as a plane. A real hex-bin operator
  like H3-based rollups use; NOT H3-compatible ids (no icosahedron), which
  is documented and acceptable because the tile-id column is abstract —
  any deterministic space partition satisfies the rollup/join contract.
"""

from __future__ import annotations

import numpy as np


def grid_tile_id(lon: np.ndarray, lat: np.ndarray, cell_deg: float = 1.0) -> np.ndarray:
    """Rectangular tile id: row-major index on a lat/lon grid.

    tile = floor((lon+180)/cell) * ceil(180/cell) + floor((lat+90)/cell)

    SQL-equivalent (DuckDB)::

        CAST(floor((lon+180)/cell) * ceil(180/cell) + floor((lat+90)/cell) AS BIGINT)
    """
    lon = np.asarray(lon, np.float64)
    lat = np.asarray(lat, np.float64)
    ny = int(np.ceil(180.0 / cell_deg))
    ix = np.floor((lon + 180.0) / cell_deg)
    iy = np.floor((lat + 90.0) / cell_deg)
    return (ix * ny + iy).astype(np.int64)


def grid_tile_bounds(tile_id: np.ndarray, cell_deg: float = 1.0) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(lon_min, lat_min, lon_max, lat_max) of each grid tile."""
    tile_id = np.asarray(tile_id, np.int64)
    ny = int(np.ceil(180.0 / cell_deg))
    ix = tile_id // ny
    iy = tile_id % ny
    lon0 = ix * cell_deg - 180.0
    lat0 = iy * cell_deg - 90.0
    return lon0, lat0, lon0 + cell_deg, lat0 + cell_deg


def hex_tile_id(lon: np.ndarray, lat: np.ndarray, size_deg: float = 0.5) -> np.ndarray:
    """Hexagonal bin id via axial coordinates + cube rounding (pointy-top).

    Treats (lon, lat) as a plane; ``size_deg`` is the hex circumradius in
    degrees. Returns ``q * 2^32 + r`` packed axial coordinates (offset to
    stay positive). Deterministic, not SQL-expressible (rows-only oracle).
    """
    lon = np.asarray(lon, np.float64)
    lat = np.asarray(lat, np.float64)
    # pointy-top axial: q = (sqrt(3)/3 x - 1/3 y) / s ; r = (2/3 y) / s
    q = (np.sqrt(3.0) / 3.0 * lon - lat / 3.0) / size_deg
    r = (2.0 / 3.0 * lat) / size_deg
    # cube rounding
    x, z = q, r
    y = -x - z
    rx, ry, rz = np.round(x), np.round(y), np.round(z)
    dx, dy, dz = np.abs(rx - x), np.abs(ry - y), np.abs(rz - z)
    fix_x = (dx > dy) & (dx > dz)
    fix_z = ~fix_x & (dz > dy)
    rx = np.where(fix_x, -ry - rz, rx)
    rz = np.where(fix_z, -rx - ry, rz)
    qi = rx.astype(np.int64) + (1 << 20)
    ri = rz.astype(np.int64) + (1 << 20)
    return qi * (1 << 32) + ri


def hex_tile_center(tile_id: np.ndarray, size_deg: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """Center (lon, lat) of each hex tile id."""
    tile_id = np.asarray(tile_id, np.int64)
    q = (tile_id // (1 << 32)) - (1 << 20)
    r = (tile_id % (1 << 32)) - (1 << 20)
    lon = size_deg * (np.sqrt(3.0) * q + np.sqrt(3.0) / 2.0 * r)
    lat = size_deg * (1.5 * r)
    return lon, lat


# --------------------------------------------------------------------------
# Geohash (public spec: base32 bit-interleaved lat/lon, lon bit first)
# --------------------------------------------------------------------------

_GEOHASH_ALPHABET = b"0123456789bcdefghjkmnpqrstuvwxyz"
_GEOHASH_CODES = np.frombuffer(_GEOHASH_ALPHABET, dtype=np.uint8)
# inverse: ASCII byte -> 5-bit value (255 = invalid)
_GEOHASH_INV = np.full(256, 255, dtype=np.uint8)
_GEOHASH_INV[_GEOHASH_CODES] = np.arange(32, dtype=np.uint8)


def geohash_encode(lon: np.ndarray, lat: np.ndarray, precision: int = 9) -> np.ndarray:
    """Vectorized geohash of lon/lat points -> fixed-length ASCII strings.

    Standard public geohash: quantize lon to ceil(5p/2) bits and lat to
    floor(5p/2) bits, interleave MSB-first starting with LONGITUDE, emit
    5-bit groups through the base32 alphabet (no a/i/l/o). Unlike grid/hex
    tile ids this key is a STRING whose prefixes nest (precision p-1 is a
    prefix of precision p), which is what makes it useful as a partitioned
    output layout key and a prefix-join key.

    precision 1..12 (12 = 60 bits, the uint64 ceiling; ~3.7cm x 1.8cm).
    """
    if not 1 <= precision <= 12:
        raise ValueError("geohash precision must be in 1..12")
    lon = np.asarray(lon, np.float64)
    lat = np.asarray(lat, np.float64)
    total = 5 * precision
    lon_bits = (total + 1) // 2
    lat_bits = total // 2
    nan = np.isnan(lon) | np.isnan(lat)  # missing geometries -> "" sentinel
    # quantize; clip handles lon=180 / lat=90 (maps to the last cell)
    with np.errstate(invalid="ignore"):
        lon_q = np.clip(((np.nan_to_num(lon) + 180.0) / 360.0 * (1 << lon_bits)).astype(np.int64),
                        0, (1 << lon_bits) - 1).astype(np.uint64)
        lat_q = np.clip(((np.nan_to_num(lat) + 90.0) / 180.0 * (1 << lat_bits)).astype(np.int64),
                        0, (1 << lat_bits) - 1).astype(np.uint64)
    code = np.zeros(len(lon), dtype=np.uint64)
    one = np.uint64(1)
    for i in range(total):
        if i % 2 == 0:  # even global bit (MSB-first) = longitude
            src, nbits = lon_q, lon_bits
        else:
            src, nbits = lat_q, lat_bits
        bit = (src >> np.uint64(nbits - 1 - i // 2)) & one
        code = (code << one) | bit
    # 5-bit groups -> ASCII codes -> fixed-width bytestrings
    chars = np.empty((len(lon), precision), dtype=np.uint8)
    for j in range(precision):
        idx = (code >> np.uint64(5 * (precision - 1 - j))) & np.uint64(31)
        chars[:, j] = _GEOHASH_CODES[idx.astype(np.int64)]
    out = chars.view(f"S{precision}").ravel().astype(str)
    if nan.any():
        out = out.astype(object)
        out[nan] = ""
    return out


def geohash_decode(gh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell-center (lon, lat) of equal-length geohash strings (vectorized).
    The encoder's ``""`` missing sentinel round-trips to (NaN, NaN)."""
    gh = np.asarray(gh)
    if gh.size == 0:
        return np.empty(0), np.empty(0)
    sb = gh.astype(str)
    empty = np.char.str_len(sb) == 0
    if empty.any():
        lon = np.full(gh.size, np.nan)
        lat = np.full(gh.size, np.nan)
        if (~empty).any():
            lon[~empty], lat[~empty] = geohash_decode(sb[~empty])
        return lon, lat
    b = np.char.encode(gh.astype(str), "ascii")
    precision = len(b.flat[0])
    if precision < 1 or precision > 12 or any(len(s) != precision for s in b.flat):
        raise ValueError("geohash_decode needs equal-length geohashes of precision 1..12")
    chars = np.frombuffer(b"".join(b.ravel().tolist()), dtype=np.uint8).reshape(-1, precision)
    vals = _GEOHASH_INV[chars]
    if (vals == 255).any():
        raise ValueError("invalid geohash character")
    code = np.zeros(len(chars), dtype=np.uint64)
    for j in range(precision):
        code = (code << np.uint64(5)) | vals[:, j].astype(np.uint64)
    total = 5 * precision
    lon_bits = (total + 1) // 2
    lat_bits = total // 2
    lon_q = np.zeros(len(chars), dtype=np.uint64)
    lat_q = np.zeros(len(chars), dtype=np.uint64)
    one = np.uint64(1)
    for i in range(total):
        bit = (code >> np.uint64(total - 1 - i)) & one
        if i % 2 == 0:
            lon_q = (lon_q << one) | bit
        else:
            lat_q = (lat_q << one) | bit
    lon = (lon_q.astype(np.float64) + 0.5) * (360.0 / (1 << lon_bits)) - 180.0
    lat = (lat_q.astype(np.float64) + 0.5) * (180.0 / (1 << lat_bits)) - 90.0
    return lon, lat


def geohash_neighbors(gh: np.ndarray) -> np.ndarray:
    """The 8 neighbors of each geohash cell (vectorized), shape (n, 8).

    Implemented as decode-center -> shift by one cell width -> re-encode,
    which sidesteps the traditional per-character border lookup tables and
    is exact because cell centers are interior points. Longitude wraps at
    the antimeridian; latitude shifts past the poles return the cell itself
    (geohash cells at |lat|=90 have no meridional neighbor), so callers can
    dedup per row. Order: W, E, S, N, SW, SE, NW, NE.
    """
    gh = np.asarray(gh)
    if gh.size == 0:
        return np.empty((0, 8), dtype="U1")
    # pass the '' missing-row sentinel through (geohash_encode emits it for
    # missing geometries — review: encode -> neighbors must compose)
    gh_s = gh.astype(str)
    missing = np.array([len(s) == 0 for s in gh_s.ravel()]).reshape(gh_s.shape)
    if missing.all():
        return np.full((gh.size, 8), "", dtype="U1")
    if missing.any():
        out = np.empty((gh.size, 8), dtype=f"U{max(len(s) for s in gh_s.ravel())}")
        out[missing.ravel()] = ""
        out[~missing.ravel()] = geohash_neighbors(gh_s.ravel()[~missing.ravel()])
        return out
    lon, lat = geohash_decode(gh)
    precision = len(np.asarray(gh.ravel()[0], dtype=str).item())
    total = 5 * precision
    dlon = 360.0 / (1 << ((total + 1) // 2))
    dlat = 180.0 / (1 << (total // 2))
    out = np.empty((len(lon), 8), dtype=f"U{precision}")
    shifts = [(-dlon, 0.0), (dlon, 0.0), (0.0, -dlat), (0.0, dlat),
              (-dlon, -dlat), (dlon, -dlat), (-dlon, dlat), (dlon, dlat)]
    for j, (dx, dy) in enumerate(shifts):
        nlon = (lon + dx + 180.0) % 360.0 - 180.0
        nlat = lat + dy
        oob = (nlat > 90.0) | (nlat < -90.0)
        nlat = np.clip(nlat, -90.0 + dlat / 2, 90.0 - dlat / 2)
        enc = geohash_encode(nlon, nlat, precision)
        # polar out-of-range: no neighbor -> the cell itself
        out[:, j] = np.where(oob, gh.astype(f"U{precision}"), enc)
    return out


def quadkey_encode(lon: np.ndarray, lat: np.ndarray, level: int = 12) -> np.ndarray:
    """Bing Maps quadkey of lon/lat points -> fixed-length digit strings.

    Standard public scheme (Microsoft Bing tile system): WebMercator tile
    (tx, ty) at ``level``, then one base-4 digit per zoom level MSB-first
    (digit = ty_bit*2 + tx_bit). Like geohash the key is a STRING whose
    prefixes nest — level l-1 is a prefix of level l — so it serves as a
    partitioned layout key and prefix-join key for Bing/slippy-tile data.
    Latitudes clamp to the WebMercator ±85.05113° domain; NaN rows -> "".
    """
    if not 1 <= level <= 23:
        raise ValueError("quadkey level must be in 1..23")
    lon = np.asarray(lon, np.float64)
    lat = np.asarray(lat, np.float64)
    nan = np.isnan(lon) | np.isnan(lat)
    lat_c = np.clip(np.nan_to_num(lat), -85.05112878, 85.05112878)
    lon_c = np.nan_to_num(lon)
    n_tiles = 1 << level
    s = np.sin(np.radians(lat_c))
    x = (lon_c + 180.0) / 360.0
    y = 0.5 - np.log((1.0 + s) / (1.0 - s)) / (4.0 * np.pi)
    tx = np.clip((x * n_tiles).astype(np.int64), 0, n_tiles - 1).astype(np.uint64)
    ty = np.clip((y * n_tiles).astype(np.int64), 0, n_tiles - 1).astype(np.uint64)
    chars = np.empty((len(lon), level), dtype=np.uint8)
    one = np.uint64(1)
    for j in range(level):
        shift = np.uint64(level - 1 - j)
        digit = (((ty >> shift) & one) << one) | ((tx >> shift) & one)
        chars[:, j] = digit.astype(np.uint8) + ord("0")
    out = chars.view(f"S{level}").ravel().astype(str)
    if nan.any():
        out = out.astype(object)
        out[nan] = ""
    return out


def quadkey_decode(qk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tile-center (lon, lat) of equal-length quadkeys (vectorized).
    The encoder's ``""`` missing sentinel round-trips to (NaN, NaN)."""
    qk = np.asarray(qk)
    if qk.size == 0:
        return np.empty(0), np.empty(0)
    sb = qk.astype(str)
    empty = np.char.str_len(sb) == 0
    if empty.any():
        lon = np.full(qk.size, np.nan)
        lat = np.full(qk.size, np.nan)
        if (~empty).any():
            lon[~empty], lat[~empty] = quadkey_decode(sb[~empty])
        return lon, lat
    b = np.char.encode(sb, "ascii")
    level = len(b.flat[0])
    if level < 1 or level > 23 or any(len(s) != level for s in b.flat):
        raise ValueError("quadkey_decode needs equal-length quadkeys of level 1..23")
    chars = np.frombuffer(b"".join(b.ravel().tolist()), dtype=np.uint8).reshape(-1, level)
    digits = chars - ord("0")
    if (digits > 3).any() or (digits < 0).any():
        raise ValueError("invalid quadkey digit")
    tx = np.zeros(len(chars), dtype=np.uint64)
    ty = np.zeros(len(chars), dtype=np.uint64)
    one = np.uint64(1)
    for j in range(level):
        d = digits[:, j].astype(np.uint64)
        tx = (tx << one) | (d & one)
        ty = (ty << one) | ((d >> one) & one)
    n_tiles = float(1 << level)
    x = (tx.astype(np.float64) + 0.5) / n_tiles
    y = (ty.astype(np.float64) + 0.5) / n_tiles
    lon = x * 360.0 - 180.0
    lat = np.degrees(np.arctan(np.sinh(np.pi * (1.0 - 2.0 * y))))
    return lon, lat


def polygon_grid_cells(rings, pitch_deg: float, cell_of, center_of, neighbors_of, zone_hops: int,
                       max_cells: int, mode: str, name: str, unit: str, level: int) -> np.ndarray:
    """Cells of a hierarchical grid (H3, S2) for a (lon, lat) polygon: the
    algorithm behind ``h3.polygon_to_cells`` and ``s2.polygon_covering``.

    Every ring edge is sampled at <= 0.3 ``pitch_deg`` steps, and the
    sampled cells (``cell_of(lon, lat)``) plus ``zone_hops`` rings of
    ``neighbors_of(cells) -> (n, k)`` neighbours form the ring zone. An
    inward flood fill from the ring-zone cells whose centre
    (``center_of(cells) -> (lon, lat)``) lies inside the polygon keeps
    every centre-inside cell it reaches; each cell is tested once.
    ``mode="center"`` returns those cells, ``mode="cover"`` adds the
    whole ring zone. ``rings`` are (N, 2) arrays, exterior first, holes
    after, with planar containment. ``max_cells`` is a loud budget;
    ``name``, ``unit`` and ``level`` word its errors."""
    if mode not in ("center", "cover"):
        raise ValueError(f"unknown {name} mode {mode!r}")
    from geopolars_ray.geom.strtree import PreparedPolygons

    rings = [np.asarray(r, dtype=np.float64) for r in rings if len(r) >= 3]
    if not rings:
        return np.empty(0, dtype=np.uint64)
    prep = PreparedPolygons.from_polygons([rings])

    def inside(cells):
        lo, la = center_of(cells)
        return prep.hits(lo, la, np.zeros(len(lo), dtype=np.int64))

    def over_budget(n):
        if n > max_cells:
            raise ValueError(f"{name} exceeded max_cells={max_cells} "
                             f"at {unit} {level}; raise the budget explicitly")

    pts_lon, pts_lat = [], []
    for ring in rings:
        a = ring
        b = np.roll(ring, -1, axis=0)
        seg = np.hypot((b[:, 0] - a[:, 0]) * np.cos(np.radians((a[:, 1] + b[:, 1]) / 2)),
                       b[:, 1] - a[:, 1])
        nstep = np.maximum(1, np.ceil(seg / (0.3 * pitch_deg)).astype(np.int64))
        for s in range(len(a)):
            t = np.linspace(0.0, 1.0, int(nstep[s]) + 1)
            pts_lon.append(a[s, 0] + t * (b[s, 0] - a[s, 0]))
            pts_lat.append(a[s, 1] + t * (b[s, 1] - a[s, 1]))
    lon = np.concatenate(pts_lon)
    lat = np.concatenate(pts_lat)
    if len(lon) > 50 * max_cells:
        raise ValueError(f"{name}: boundary tracing needs {len(lon)} "
                         f"samples (> 50*max_cells); raise max_cells or lower {unit}")
    zone = [np.unique(cell_of(lon, lat))]
    for _ in range(zone_hops):
        zone.append(np.unique(neighbors_of(zone[-1]).ravel()))
    ring_zone = np.unique(np.concatenate(zone))

    # BFS with vectorized bookkeeping: ``visited`` tracks every TESTED cell
    # (so outside cells are PIP-tested once, not once per adjacent frontier),
    # ``keep`` accumulates the inside ones; both sorted arrays + np.isin.
    keep = ring_zone[inside(ring_zone)]
    visited = ring_zone                      # already unique-sorted
    frontier = keep
    while len(frontier):
        nb = np.unique(neighbors_of(frontier).ravel())
        fresh = nb[~np.isin(nb, visited, assume_unique=True)]
        if not len(fresh):
            break
        visited = np.sort(np.concatenate([visited, fresh]))
        new = fresh[inside(fresh)]
        keep = np.concatenate([keep, new])
        over_budget(len(keep))
        frontier = new
    if mode == "cover":
        keep = np.unique(np.concatenate([keep, ring_zone]))
        over_budget(len(keep))
    return np.unique(keep)
