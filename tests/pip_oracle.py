"""Per-polygon point-in-polygon loops: the oracles the pair x edge kernel
(``PreparedPolygons.parity_on`` / ``hits`` / ``match``) is tested against.

One NumPy broadcast of (points x edges) per ring, one call per polygon; and
the per-row distance loop the batched ``kernels.distance`` is tested
against."""

import numpy as np

from geopolars_ray.geom import kernels as K


def _crossings_and_boundary(px, py, ring: np.ndarray):
    """(crossing_count, on_boundary) of points vs one ring, vectorized.

    px, py: (n,) point coords; ring: (m, 2) ring coords (closed or open).
    """
    x1, y1 = ring[:-1, 0], ring[:-1, 1]
    x2, y2 = ring[1:, 0], ring[1:, 1]
    if len(ring) >= 2 and not (ring[0] == ring[-1]).all():
        x1 = np.append(x1, ring[-1, 0])
        y1 = np.append(y1, ring[-1, 1])
        x2 = np.append(x2, ring[0, 0])
        y2 = np.append(y2, ring[0, 1])
    px = px[:, None]
    py = py[:, None]
    # crossing test (half-open rule avoids double counting at vertices)
    cond = (y1[None, :] > py) != (y2[None, :] > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_at = (x2 - x1)[None, :] * (py - y1[None, :]) / np.where(y2 == y1, 1.0, y2 - y1)[None, :] + x1[None, :]
    crossings = (cond & (px < x_at)).sum(axis=1)
    # on-boundary test: colinear and within segment bbox
    cross = (x2 - x1)[None, :] * (py - y1[None, :]) - (y2 - y1)[None, :] * (px - x1[None, :])
    within = (
        (px >= np.minimum(x1, x2)[None, :])
        & (px <= np.maximum(x1, x2)[None, :])
        & (py >= np.minimum(y1, y2)[None, :])
        & (py <= np.maximum(y1, y2)[None, :])
    )
    on_boundary = ((cross == 0.0) & within).any(axis=1)
    return crossings, on_boundary


def parity_and_boundary(px, py, rings: list[np.ndarray]):
    """(odd crossing count, on an edge) of points vs one (multi)polygon,
    over every ring of >= 3 coords."""
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    total = np.zeros(len(px), dtype=np.int64)
    boundary = np.zeros(len(px), dtype=bool)
    with np.errstate(invalid="ignore", over="ignore"):
        for ring in rings:
            if len(ring) < 3:
                continue
            c, b = _crossings_and_boundary(px, py, np.asarray(ring, dtype=np.float64))
            total += c
            boundary |= b
    return total % 2 == 1, boundary


def points_in_polygon_single(px, py, rings: list[np.ndarray]) -> np.ndarray:
    """Boundary-exclusive containment of points in one (multi)polygon:
    even-odd parity across ALL rings, minus on-boundary points."""
    parity, boundary = parity_and_boundary(px, py, rings)
    return parity & ~boundary


def points_dwithin_rings(px, py, rings: list[np.ndarray], distance: float) -> np.ndarray:
    """contains OR boundary within ``distance`` — the ST_DWithin test:
    one (points x boundary segments) min-distance block."""
    hit = points_in_polygon_single(px, py, rings)
    todo = ~hit
    if not todo.any():
        return hit
    segs_a, segs_b = [], []
    for ring in rings:
        if len(ring) >= 2:
            segs_a.append(ring[:-1])
            segs_b.append(ring[1:])
    if not segs_a:
        return hit
    a = np.concatenate(segs_a)
    dv = np.concatenate(segs_b) - a
    L2 = (dv**2).sum(axis=1)
    p = np.column_stack([np.asarray(px, np.float64)[todo], np.asarray(py, np.float64)[todo]])
    with np.errstate(invalid="ignore", over="ignore"):
        ap = p[:, None, :] - a[None, :, :]
        t = np.clip((ap * dv[None, :, :]).sum(axis=2) / np.where(L2 == 0, 1, L2)[None, :], 0.0, 1.0)
        proj = a[None, :, :] + t[:, :, None] * dv[None, :, :]
        dd2 = ((p[:, None, :] - proj) ** 2).sum(axis=2)
    hit[todo] = dd2.min(axis=1) <= distance * distance
    return hit


def rings_of(prep, i: int) -> list[np.ndarray]:
    """The rings of polygon ``i`` of a ``PreparedPolygons``."""
    rpo, ro = prep.rings_per_poly_offsets, prep.ring_offsets
    return [prep.ring_coords[ro[r]:ro[r + 1]] for r in range(rpo[i], rpo[i + 1])]


def min_point_to_segments(pts: np.ndarray, segs: np.ndarray) -> float:
    """Min distance from any of ``pts`` (n, 2) to any of ``segs`` (m, 2, 2)."""
    a = segs[:, 0]  # (m,2)
    d = segs[:, 1] - segs[:, 0]
    L2 = (d**2).sum(axis=1)
    ap = pts[:, None, :] - a[None, :, :]  # (n,m,2)
    t = np.clip((ap * d[None, :, :]).sum(axis=2) / np.where(L2 == 0, 1, L2)[None, :], 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * d[None, :, :]
    dd = pts[:, None, :] - proj
    return float(np.sqrt((dd**2).sum(axis=2)).min())


def geom_pair_distance(lhs, rhs, i: int) -> float:
    """Exact distance of row ``i``, one Python pass per row: containment of
    either side's vertices, then segment crossings, then point-to-segment
    and point-to-point minima."""
    from segment_oracle import segments_cross, segments_of

    lco = lhs.coord_offsets()
    rco = rhs.coord_offsets()
    a = lhs.coords[lco[i] : lco[i + 1]]
    b = rhs.coords[rco[i] : rco[i + 1]]
    if len(a) == 0 or len(b) == 0:
        return np.nan
    # containment -> 0 for polygon operands
    for side, pts in ((lhs, b), (rhs, a)):
        if side.types[i] in K._POLY_TYPES:
            if points_in_polygon_single(pts[:, 0], pts[:, 1], K._rings_of(side, i)).any():
                return 0.0
    sl = segments_of(lhs, i)
    sr = segments_of(rhs, i)
    # any segment-segment intersection -> the geometries touch/cross -> 0
    # (vertex-to-segment alone misses crossings between vertices)
    if sl is not None and sr is not None and segments_cross(sl, sr):
        return 0.0
    da = min_point_to_segments(a, sr) if sr is not None else np.inf
    db = min_point_to_segments(b, sl) if sl is not None else np.inf
    dpt = np.min(
        np.sqrt((a[:, None, 0] - b[None, :, 0]) ** 2 + (a[:, None, 1] - b[None, :, 1]) ** 2)
    )
    return float(min(da, db, dpt))
