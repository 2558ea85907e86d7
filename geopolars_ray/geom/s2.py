"""S2 cell ids from scratch, vectorized (public S2 geometry algorithm).

Implements the standard S2 curve: lat/lon -> unit sphere XYZ -> cube face
(u,v) -> quadratic (s,t) -> 30-bit (i,j) -> Hilbert-curve position -> 64-bit
cell id ``face(3b) | curve_pos(2*30b) | 1``; level-L ids truncate the curve
position to 2L bits with the trailing-1 marker. This is the published
algorithm of the s2geometry library (s2.h / s2cell_id docs), reimplemented
with NumPy lookup tables so a whole batch of points encodes with 8 table
gathers — the north star's "H3 res-7/S2 level-12 tile assignment" kernel
(BASELINE.json north_star) uses level 12 by default.

The reference has no tiling; this is part of the engine's partitioning layer
(SURVEY.md §7 M4): cell ids are the shuffle/rollup key for per-tile
aggregation and partitioned spatial joins.
"""

from __future__ import annotations

import numpy as np

from .tiles import polygon_grid_cells

LOOKUP_BITS = 4
SWAP_MASK = 1
INVERT_MASK = 2
MAX_LEVEL = 30
POS_BITS = 2 * MAX_LEVEL + 1  # 61

_POS_TO_IJ = ((0, 1, 3, 2), (0, 2, 3, 1), (3, 2, 0, 1), (3, 1, 0, 2))
_POS_TO_ORIENTATION = (SWAP_MASK, 0, 0, INVERT_MASK | SWAP_MASK)

_LOOKUP_POS = np.zeros(1 << (2 * LOOKUP_BITS + 2), dtype=np.uint64)
_LOOKUP_IJ = np.zeros(1 << (2 * LOOKUP_BITS + 2), dtype=np.uint64)


def _init_lookup(level: int, i: int, j: int, orig_orientation: int, pos: int, orientation: int) -> None:
    if level == LOOKUP_BITS:
        ij = (i << LOOKUP_BITS) + j
        _LOOKUP_POS[(ij << 2) + orig_orientation] = (pos << 2) + orientation
        _LOOKUP_IJ[(pos << 2) + orig_orientation] = (ij << 2) + orientation
        return
    level += 1
    i <<= 1
    j <<= 1
    pos <<= 2
    r = _POS_TO_IJ[orientation]
    for index in range(4):
        ij = r[index]
        _init_lookup(
            level,
            i + (ij >> 1),
            j + (ij & 1),
            orig_orientation,
            pos + index,
            orientation ^ _POS_TO_ORIENTATION[index],
        )


for _orientation in range(4):
    _init_lookup(0, 0, 0, _orientation, 0, _orientation)


# ------------------------------------------------------------------ projection


def lonlat_to_xyz(lon_deg: np.ndarray, lat_deg: np.ndarray):
    lon = np.radians(np.asarray(lon_deg, np.float64))
    lat = np.radians(np.asarray(lat_deg, np.float64))
    cos_lat = np.cos(lat)
    return cos_lat * np.cos(lon), cos_lat * np.sin(lon), np.sin(lat)


def xyz_to_face_uv(x: np.ndarray, y: np.ndarray, z: np.ndarray):
    """Branch-free face + (u,v): choose-table numerators over the major axis.

    Per-face formulas (standard S2):
        0:+x u=y/x  v=z/x   1:+y u=-x/y v=z/y   2:+z u=-x/z v=-y/z
        3:-x u=z/x  v=y/x   4:-y u=z/y  v=-x/y  5:-z u=-y/z v=-x/z
    """
    ax, ay, az = np.abs(x), np.abs(y), np.abs(z)
    axis = np.where(ax >= ay, np.where(ax >= az, 0, 2), np.where(ay >= az, 1, 2))
    den = np.choose(axis, [x, y, z])
    face = np.where(den < 0, axis + 3, axis).astype(np.int64)
    nx = -x
    nyv = -y
    with np.errstate(divide="ignore", invalid="ignore"):
        un = np.choose(face, [y, nx, nx, z, z, nyv])
        vn = np.choose(face, [z, z, nyv, y, nx, nx])
        u = un / den
        v = vn / den
    return face, u, v


def _uv_to_st(u: np.ndarray) -> np.ndarray:
    """S2's quadratic projection (the library default)."""
    u = np.clip(u, -1.0, 1.0)  # guard fp overshoot at face edges
    return np.where(
        u >= 0,
        0.5 * np.sqrt(1.0 + 3.0 * np.maximum(u, 0.0)),
        1.0 - 0.5 * np.sqrt(1.0 - 3.0 * np.minimum(u, 0.0)),
    )


def _st_to_uv(s: np.ndarray) -> np.ndarray:
    return np.where(s >= 0.5, (1.0 / 3.0) * (4.0 * s * s - 1.0), (1.0 / 3.0) * (1.0 - 4.0 * (1.0 - s) * (1.0 - s)))


def _st_to_ij(s: np.ndarray) -> np.ndarray:
    return np.clip((np.floor((1 << MAX_LEVEL) * s)).astype(np.int64), 0, (1 << MAX_LEVEL) - 1)


# ------------------------------------------------------------------ cell ids


def cellid_from_face_ij(face: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Leaf (level-30) cell id, vectorized Hilbert encoding (8 table gathers)."""
    face = np.asarray(face, np.uint64)
    i = np.asarray(i, np.uint64)
    j = np.asarray(j, np.uint64)
    n = face << np.uint64(POS_BITS - 1)
    bits = face & np.uint64(SWAP_MASK)
    mask = np.uint64((1 << LOOKUP_BITS) - 1)
    for k in range(7, -1, -1):
        shift = np.uint64(k * LOOKUP_BITS)
        bits += ((i >> shift) & mask) << np.uint64(LOOKUP_BITS + 2)
        bits += ((j >> shift) & mask) << np.uint64(2)
        bits = _LOOKUP_POS[bits]
        n |= (bits >> np.uint64(2)) << np.uint64(k * 2 * LOOKUP_BITS)
        bits &= np.uint64(SWAP_MASK | INVERT_MASK)
    return n * np.uint64(2) + np.uint64(1)


def parent_at_level(cell_id: np.ndarray, level: int) -> np.ndarray:
    """Truncate leaf (or finer) ids to the containing cell at ``level``."""
    cell_id = np.asarray(cell_id, np.uint64)
    lsb = np.uint64(1) << np.uint64(2 * (MAX_LEVEL - level))
    return (cell_id & (~(lsb - np.uint64(1)))) | lsb


def cell_level(cell_id: np.ndarray) -> np.ndarray:
    """Level of each cell id (position of the lowest set bit)."""
    cell_id = np.asarray(cell_id, np.uint64)
    lsb = cell_id & (~cell_id + np.uint64(1))
    # log2 of lsb via float conversion is exact for powers of two < 2^63
    return (MAX_LEVEL - (np.log2(lsb.astype(np.float64)) / 2.0)).astype(np.int64)


def s2_cell_id(lon_deg: np.ndarray, lat_deg: np.ndarray, level: int = 12) -> np.ndarray:
    """S2 cell id at ``level`` for lon/lat degrees — the tiling kernel."""
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError("level must be in [0, 30]")
    x, y, z = lonlat_to_xyz(lon_deg, lat_deg)
    face, u, v = xyz_to_face_uv(x, y, z)
    i = _st_to_ij(_uv_to_st(u))
    j = _st_to_ij(_uv_to_st(v))
    leaf = cellid_from_face_ij(face, i, j)
    if level == MAX_LEVEL:
        return leaf
    return parent_at_level(leaf, level)


def cellid_to_face_ij(cell_id: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode leaf cell ids back to (face, i, j) — inverse Hilbert, vectorized."""
    cell_id = np.asarray(cell_id, np.uint64)
    face = (cell_id >> np.uint64(POS_BITS)).astype(np.int64)
    i = np.zeros(len(cell_id), dtype=np.uint64)
    j = np.zeros(len(cell_id), dtype=np.uint64)
    bits = (face.astype(np.uint64)) & np.uint64(SWAP_MASK)
    pos = cell_id >> np.uint64(1)
    for k in range(7, -1, -1):
        # top chunk (k=7) holds only 2 bits of i and j — mask 4 position bits,
        # not 8, or the face bits leak into the lookup
        nbits = MAX_LEVEL - 7 * LOOKUP_BITS if k == 7 else LOOKUP_BITS
        mask = np.uint64((1 << (2 * nbits)) - 1)
        shift = np.uint64(k * 2 * LOOKUP_BITS)
        bits += ((pos >> shift) & mask) << np.uint64(2)
        bits = _LOOKUP_IJ[bits]
        i |= (bits >> np.uint64(LOOKUP_BITS + 2)) << np.uint64(k * LOOKUP_BITS)
        j |= ((bits >> np.uint64(2)) & np.uint64((1 << LOOKUP_BITS) - 1)) << np.uint64(k * LOOKUP_BITS)
        bits &= np.uint64(SWAP_MASK | INVERT_MASK)
    return face, i.astype(np.int64), j.astype(np.int64)


def cell_center_lonlat(cell_id: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Approximate center (lon, lat) degrees of cells at any level."""
    cell_id = np.asarray(cell_id, np.uint64)
    # decoding the id with its trailing 10...0 marker lands on a leaf inside
    # the cell (the marker bits act as a center-ward child path) — adequate
    # for a representative interior point at any level
    face, i, j = cellid_to_face_ij(cell_id)
    s = (i.astype(np.float64) + 0.5) / (1 << MAX_LEVEL)
    t = (j.astype(np.float64) + 0.5) / (1 << MAX_LEVEL)
    u = _st_to_uv(s)
    v = _st_to_uv(t)
    x = np.empty_like(u)
    y = np.empty_like(u)
    z = np.empty_like(u)
    for f, fn in enumerate(
        [
            lambda u, v: (np.ones_like(u), u, v),
            lambda u, v: (-u, np.ones_like(u), v),
            lambda u, v: (-u, -v, np.ones_like(u)),
            lambda u, v: (-np.ones_like(u), -v, -u),
            lambda u, v: (v, -np.ones_like(u), -u),
            lambda u, v: (v, u, -np.ones_like(u)),
        ]
    ):
        m = face == f
        if m.any():
            xf, yf, zf = fn(u[m], v[m])
            x[m], y[m], z[m] = xf, yf, zf
    lon = np.degrees(np.arctan2(y, x))
    lat = np.degrees(np.arctan2(z, np.hypot(x, y)))
    return lon, lat


def face_uv_to_xyz(face: np.ndarray, u: np.ndarray, v: np.ndarray):
    """(face, u, v) -> unit-cube XYZ (not normalized), vectorized."""
    face = np.asarray(face, np.int64)
    u = np.asarray(u, np.float64)
    v = np.asarray(v, np.float64)
    one = np.ones_like(u)
    x = np.choose(face, [one, -u, -u, -one, v, v])
    y = np.choose(face, [u, one, -v, -v, -one, u])
    z = np.choose(face, [v, v, one, -u, -u, -one])
    return x, y, z


# ------------------------------------------------------------------ hierarchy


def cell_to_children(cell_id: np.ndarray) -> np.ndarray:
    """The 4 children of each cell, as an (N, 4) uint64 array in Hilbert
    order (s2geometry ``S2CellId::child``: id + (2k-3) * (lsb >> 2))."""
    cell_id = np.atleast_1d(np.asarray(cell_id, np.uint64))
    if (cell_level(cell_id) >= MAX_LEVEL).any():
        raise ValueError("leaf cells have no children")
    lsb = cell_id & (~cell_id + np.uint64(1))
    new_lsb = lsb >> np.uint64(2)
    ks = np.arange(4, dtype=np.int64)
    deltas = ((2 * ks - 3)[None, :] * new_lsb.astype(np.int64)[:, None])
    return (cell_id[:, None].astype(np.int64) + deltas).astype(np.uint64)


def cell_id_range(cell_id: np.ndarray):
    """(range_min, range_max) leaf ids covered by each cell — the Hilbert
    interval used for containment tests and range joins."""
    cell_id = np.asarray(cell_id, np.uint64)
    lsb = cell_id & (~cell_id + np.uint64(1))
    return cell_id - (lsb - np.uint64(1)), cell_id + (lsb - np.uint64(1))


def cell_contains(parent: np.ndarray, child: np.ndarray) -> np.ndarray:
    """containment via Hilbert ranges (works across any level pair)."""
    lo, hi = cell_id_range(parent)
    c = np.asarray(child, np.uint64)
    return (c >= lo) & (c <= hi)


# ------------------------------------------------------------------ geometry


def cell_to_boundary(cell_id: np.ndarray):
    """The 4 corner vertices per cell as (lon, lat) arrays of shape (N, 4),
    CCW in (s, t) order: (lo,lo) (hi,lo) (hi,hi) (lo,hi).

    Exact cube-face corners through the quadratic projection — matches
    ``S2Cell::GetVertex`` geometry (normalized there; same direction)."""
    cell_id = np.atleast_1d(np.asarray(cell_id, np.uint64))
    face, i, j = cellid_to_face_ij(cell_id)
    level = cell_level(cell_id)
    size = (np.int64(1) << (MAX_LEVEL - level)).astype(np.int64)
    i0 = (i & ~(size - 1)).astype(np.float64)
    j0 = (j & ~(size - 1)).astype(np.float64)
    scale = 1.0 / (1 << MAX_LEVEL)
    s_lo, s_hi = i0 * scale, (i0 + size) * scale
    t_lo, t_hi = j0 * scale, (j0 + size) * scale
    lon = np.empty((len(cell_id), 4))
    lat = np.empty((len(cell_id), 4))
    corners = ((s_lo, t_lo), (s_hi, t_lo), (s_hi, t_hi), (s_lo, t_hi))
    for c, (s, t) in enumerate(corners):
        x, y, z = face_uv_to_xyz(face, _st_to_uv(s), _st_to_uv(t))
        lon[:, c] = np.degrees(np.arctan2(y, x))
        lat[:, c] = np.degrees(np.arctan2(z, np.hypot(x, y)))
    return lon, lat


def edge_neighbors(cell_id: np.ndarray) -> np.ndarray:
    """The 4 edge-adjacent cells at the SAME level, (N, 4) uint64 —
    s2geometry ``GetEdgeNeighbors`` via FromFaceIJWrap (down, right, up,
    left in (i, j); cross-face wraps relabel through linear-uv -> XYZ)."""
    cell_id = np.atleast_1d(np.asarray(cell_id, np.uint64))
    face, i, j = cellid_to_face_ij(cell_id)
    level = cell_level(cell_id)
    size = (np.int64(1) << (MAX_LEVEL - level)).astype(np.int64)
    # center-leaf coords snapped to the cell origin
    i0 = i & ~(size - 1)
    j0 = j & ~(size - 1)
    out = np.empty((len(cell_id), 4), dtype=np.uint64)
    steps = ((0, -1), (1, 0), (0, 1), (-1, 0))
    max_size = np.int64(1) << MAX_LEVEL
    for c, (di, dj) in enumerate(steps):
        ni = i0 + di * size
        nj = j0 + dj * size
        inside = (ni >= 0) & (ni < max_size) & (nj >= 0) & (nj < max_size)
        leaf = np.empty(len(cell_id), dtype=np.uint64)
        if inside.any():
            leaf[inside] = cellid_from_face_ij(
                face[inside].astype(np.uint64),
                ni[inside].astype(np.uint64),
                nj[inside].astype(np.uint64),
            )
        wrap = ~inside
        if wrap.any():
            # FromFaceIJWrap: linear uv just past the face edge -> XYZ ->
            # true face uv -> LINEAR st -> ij (matches s2geometry exactly)
            iw = np.clip(ni[wrap], -1, max_size)
            jw = np.clip(nj[wrap], -1, max_size)
            k_scale = 1.0 / float(max_size)
            limit = np.nextafter(1.0, 2.0)
            uw = np.clip(k_scale * (2.0 * (iw - max_size // 2) + 1.0), -limit, limit)
            vw = np.clip(k_scale * (2.0 * (jw - max_size // 2) + 1.0), -limit, limit)
            x, y, z = face_uv_to_xyz(face[wrap], uw, vw)
            f2, u2, v2 = xyz_to_face_uv(x, y, z)
            leaf[wrap] = cellid_from_face_ij(
                f2.astype(np.uint64),
                _st_to_ij(0.5 * (u2 + 1.0)).astype(np.uint64),
                _st_to_ij(0.5 * (v2 + 1.0)).astype(np.uint64),
            )
        out[:, c] = leaf
    # snap leaves back to the cell level (vectorized over the level groups)
    for lv in np.unique(level):
        m = level == lv
        out[m] = parent_at_level(out[m], int(lv))
    return out


def rect_covering(lon_lo: float, lat_lo: float, lon_hi: float, lat_hi: float,
                  level: int = 12, max_cells: int = 100_000) -> np.ndarray:
    """All level-``level`` cells whose closed (s,t) rectangle intersects the
    lat/lng rectangle — BFS flood from the center cell over edge neighbors,
    keeping cells whose corner quad's lon/lat bbox overlaps the query box.

    Conservative (bbox-of-corners test can keep a grazing cell) but never
    misses: level-L cells tile the sphere and the BFS frontier only stops at
    cells fully outside.  ``max_cells`` is a loud budget for 100 TB safety.
    Boxes crossing the antimeridian must be split by the caller.
    """
    if lon_lo > lon_hi or lat_lo > lat_hi:
        raise ValueError("empty rectangle")
    seed = s2_cell_id(np.array([(lon_lo + lon_hi) / 2.0]),
                      np.array([(lat_lo + lat_hi) / 2.0]), level)

    def hits(ids: np.ndarray) -> np.ndarray:
        lon, lat = cell_to_boundary(ids)
        # pole/seam-safe bbox: a cell spanning the antimeridian has a huge
        # lon range; treat it as overlapping any lon window (conservative).
        # Cells near +/-180 are tested modulo 360 as well (a cell whose
        # corners sit at [176, 180] also contains lon = -180).
        lon_min, lon_max = lon.min(axis=1), lon.max(axis=1)
        seam = (lon_max - lon_min) > 180.0

        def ov(shift):
            return (lon_max + shift >= lon_lo) & (lon_min + shift <= lon_hi)

        lon_ok = seam | ov(0.0) | ov(360.0) | ov(-360.0)
        # cell edges are great-circle arcs that bulge poleward of their
        # corner chord by <= (edge arc)^2 / 8 radians; pad the lat test so
        # grazing cells at coarse levels are kept (conservative)
        edge = (np.pi / 2.0) / (1 << level)
        pad = np.degrees(edge * edge / 8.0) * 2.0
        lat_ok = (lat.max(axis=1) >= lat_lo - pad) & (lat.min(axis=1) <= lat_hi + pad)
        return lon_ok & lat_ok

    # BFS with fully-vectorized visited bookkeeping (sorted array +
    # np.isin) — no Python sets, so million-cell covers stay numpy-speed
    seen = np.sort(seed)
    keep = np.empty(0, dtype=np.uint64)
    frontier = seed
    while len(frontier):
        kept = frontier[hits(frontier)]
        keep = np.concatenate([keep, kept])
        if len(keep) > max_cells:
            raise ValueError(
                f"rect_covering exceeded max_cells={max_cells} at level {level}; "
                "use a coarser level or raise the budget")
        if not len(kept):
            break
        nb = np.unique(edge_neighbors(kept).ravel())
        fresh = nb[~np.isin(nb, seen, assume_unique=True)]
        seen = np.sort(np.concatenate([seen, fresh]))
        frontier = fresh
    return np.sort(keep)


def compact_cells(cell_id: np.ndarray) -> np.ndarray:
    """Replace every complete 4-sibling set by its parent, recursively —
    ``S2CellUnion::Normalize`` semantics.  Input cells must be unique and
    non-overlapping; output is the minimal multi-level union, sorted."""
    ids = np.unique(np.asarray(cell_id, np.uint64))
    if not len(ids):
        return ids
    out: list[np.ndarray] = []
    levels = cell_level(ids)
    pool = {int(lv): ids[levels == lv] for lv in np.unique(levels)}
    for lv in range(MAX_LEVEL, 0, -1):
        cur = pool.pop(lv, None)
        if cur is None or not len(cur):
            continue
        par = parent_at_level(cur, lv - 1)
        uniq, cnt = np.unique(par, return_counts=True)
        done = np.isin(par, uniq[cnt < 4])
        out.append(cur[done])
        promoted = uniq[cnt == 4]
        if len(promoted):
            prev = pool.get(lv - 1)
            pool[lv - 1] = (np.concatenate([prev, promoted])
                            if prev is not None and len(prev) else promoted)
    for rest in pool.values():
        if len(rest):
            out.append(rest)
    return np.sort(np.concatenate(out)) if out else ids[:0]


def polygon_covering(rings, level: int = 12, max_cells: int = 2_000_000,
                     mode: str = "center"):
    """level-``level`` cells of a (lon, lat) polygon — the S2 counterpart of
    ``geom/h3.py polygon_to_cells`` (same algorithm, same contract).

    ``mode="center"``: cells whose CENTER lies inside the polygon.
    ``mode="cover"``: a complete superset of every cell that INTERSECTS the
    polygon — the candidate set for cell-partitioned spatial joins.
    Completeness: ring edges are sampled every <=0.3 of a conservative
    minimum cell width (the quadratic projection's d(uv)/d(st) >= 4/3 and
    angular metric >= 1/3 per uv give width >= 4/(9*2^level) rad), so any
    cell the ring passes through is the sampled cell or within its 8-cell
    neighborhood (edge neighbors of edge neighbors for the corner cases);
    interior cells are center-inside and 4-connected through re-seeding
    ring-zone cells, so the flood fill reaches them all.

    ``rings``: list of (N, 2) (lon, lat) arrays, exterior first, holes
    after; planar containment — split transmeridian polygons first.  Cost
    is O(output), not O(bbox); ``max_cells`` is a loud budget.
    """
    return polygon_grid_cells(
        rings, np.degrees(4.0 / (9.0 * (1 << level))), lambda lon, lat: s2_cell_id(lon, lat, level),
        cell_center_lonlat, edge_neighbors,
        zone_hops=2, max_cells=max_cells, mode=mode, name="polygon_covering", unit="level", level=level)


def cell_area(cell_id: np.ndarray, radius_km: float = 6371.0088) -> np.ndarray:
    """Exact spherical area per cell in km^2 (``S2Cell::ExactArea``
    semantics: the cell is a geodesic quad — its edges are great-circle
    arcs — so the area is the spherical excess of its two corner
    triangles).  ``radius_km`` defaults to the IUGG mean Earth radius;
    pass 1.0 for steradians."""
    cell_id = np.atleast_1d(np.asarray(cell_id, np.uint64))
    lon, lat = cell_to_boundary(cell_id)
    lo = np.radians(lon)
    la = np.radians(lat)
    cl = np.cos(la)
    v = np.stack([cl * np.cos(lo), cl * np.sin(lo), np.sin(la)], axis=-1)

    def tri(a, b, c):
        def arc(u, w):
            return 2.0 * np.arcsin(np.clip(
                0.5 * np.linalg.norm(u - w, axis=-1), 0.0, 1.0))

        la_, lb, lc = arc(b, c), arc(a, c), arc(a, b)
        s = 0.5 * (la_ + lb + lc)
        t = (np.tan(0.5 * s) * np.tan(0.5 * (s - la_))
             * np.tan(0.5 * (s - lb)) * np.tan(0.5 * (s - lc)))
        return 4.0 * np.arctan(np.sqrt(np.maximum(t, 0.0)))

    ex = tri(v[:, 0], v[:, 1], v[:, 2]) + tri(v[:, 0], v[:, 2], v[:, 3])
    return ex * radius_km * radius_km
