"""Per-pair and per-row segment loops: the oracles the batched
segment-contact kernel (``kernels._segment_contacts``) is tested against.

``refine_pair`` is the local join's exact test for one candidate pair, and
``shortest_line_rows`` the shortest connecting line of one row at a time,
each over one NumPy broadcast of (segments x segments) or (points x
segments). Containment uses ``pip_oracle``'s per-ring loop."""

import numpy as np

from geopolars_ray.geom import kernels as K
from geopolars_ray.geom.array import (
    LINEARRING,
    LINESTRING,
    MISSING,
    MULTILINESTRING,
    MULTIPOLYGON,
    POINT,
    POLYGON,
)
from pip_oracle import parity_and_boundary, points_in_polygon_single

_POLYISH = (POLYGON, MULTIPOLYGON)
_LINEISH = (LINESTRING, LINEARRING, MULTILINESTRING)


def segments_of_rings(rings: list[np.ndarray]) -> np.ndarray | None:
    """(m, 2, 2) segments of the rings' explicit edges, or None."""
    segs = [np.stack([c[:-1], c[1:]], axis=1) for c in rings if len(c) >= 2]
    return np.concatenate(segs, axis=0) if segs else None


def segments_of(ga, i: int) -> np.ndarray | None:
    return segments_of_rings(K._rings_of(ga, i))


def _orient(a, b, c):
    return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0])


def _on(a, b, c, d_):
    within = ((c[..., 0] >= np.minimum(a[..., 0], b[..., 0]))
              & (c[..., 0] <= np.maximum(a[..., 0], b[..., 0]))
              & (c[..., 1] >= np.minimum(a[..., 1], b[..., 1]))
              & (c[..., 1] <= np.maximum(a[..., 1], b[..., 1])))
    return (d_ == 0) & within


def _contacts(sa: np.ndarray, sb: np.ndarray):
    """(proper, touches, d3, d4) matrices of segment sets sa (m,2,2) x sb (k,2,2)."""
    p1, p2 = sa[:, None, 0], sa[:, None, 1]
    q1, q2 = sb[None, :, 0], sb[None, :, 1]
    d1 = _orient(p1, p2, q1)
    d2 = _orient(p1, p2, q2)
    d3 = _orient(q1, q2, p1)
    d4 = _orient(q1, q2, p2)
    proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0)
    touches = (_on(p1, p2, q1, d1), _on(p1, p2, q2, d2), _on(q1, q2, p1, d3), _on(q1, q2, p2, d4))
    return proper, touches, d3, d4


def segments_cross(sa: np.ndarray, sb: np.ndarray, proper_only: bool = False) -> bool:
    """Any segment of sa crosses (``proper_only``: transversally) or touches one of sb."""
    proper, touches, _, _ = _contacts(sa, sb)
    if proper.any() or proper_only:
        return bool(proper.any())
    return bool(np.logical_or.reduce([t.any() for t in touches]))


def touch_point(sa: np.ndarray, sb: np.ndarray):
    """A point where sa and sb meet, or None: the first proper crossing,
    else the first touch of each kind in turn."""
    proper, touches, d3, d4 = _contacts(sa, sb)
    if proper.any():
        i, j = np.unravel_index(int(np.argmax(proper)), proper.shape)
        t = d3[i, j] / (d3[i, j] - d4[i, j])
        return sa[i, 0] + t * (sa[i, 1] - sa[i, 0])
    picks = (lambda i, j: sb[j, 0], lambda i, j: sb[j, 1], lambda i, j: sa[i, 0], lambda i, j: sa[i, 1])
    for mask, pick in zip(touches, picks):
        if mask.any():
            return pick(*np.unravel_index(int(np.argmax(mask)), mask.shape))
    return None


def argmin_point_to_segments(pts: np.ndarray, segs: np.ndarray):
    """(min distance, point, its projection) over all (point, segment) pairs;
    ``d2`` is NaN-free here (the oracle's inputs are finite)."""
    a = segs[:, 0]
    d = segs[:, 1] - segs[:, 0]
    L2 = (d**2).sum(axis=1)
    ap = pts[:, None, :] - a[None, :, :]
    t = np.clip((ap * d[None, :, :]).sum(axis=2) / np.where(L2 == 0, 1, L2)[None, :], 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * d[None, :, :]
    dd2 = ((pts[:, None, :] - proj) ** 2).sum(axis=2)
    i, j = np.unravel_index(int(np.argmin(dd2)), dd2.shape)
    return float(np.sqrt(dd2[i, j])), pts[i], proj[i, j]


def shortest_line_rows(lhs, rhs) -> list:
    """``kernels.shortest_line`` one row at a time, as a ``from_pylist`` list:
    a vertex strictly inside the other (polygon) side, else a segment
    contact, else the nearest vertex-to-segment / vertex-to-vertex pair.
    Reads rings as given (the caller closes them)."""
    lco, rco = lhs.coord_offsets(), rhs.coord_offsets()
    out: list = []
    for i in range(len(lhs)):
        a = lhs.coords[lco[i]: lco[i + 1]]
        b = rhs.coords[rco[i]: rco[i + 1]]
        if lhs.types[i] == MISSING or rhs.types[i] == MISSING or not len(a) or not len(b):
            out.append(None)
            continue
        witness = None
        for side, pts in ((lhs, b), (rhs, a)):
            if side.types[i] in _POLYISH:
                inside = points_in_polygon_single(pts[:, 0], pts[:, 1], K._rings_of(side, i))
                if inside.any():
                    w = pts[int(np.argmax(inside))]
                    witness = (w, w)
                    break
        sl, sr = segments_of(lhs, i), segments_of(rhs, i)
        if witness is None and sl is not None and sr is not None:
            w = touch_point(sl, sr)
            if w is not None:
                witness = (w, w)
        if witness is None:
            cands = []
            if sr is not None:
                cands.append(argmin_point_to_segments(a, sr))
            if sl is not None:
                d, p, q = argmin_point_to_segments(b, sl)
                cands.append((d, q, p))  # lhs endpoint first
            dd2 = (a[:, None, 0] - b[None, :, 0]) ** 2 + (a[:, None, 1] - b[None, :, 1]) ** 2
            ii, jj = np.unravel_index(int(np.argmin(dd2)), dd2.shape)
            cands.append((float(np.sqrt(dd2[ii, jj])), a[ii], b[jj]))
            witness = min(cands, key=lambda c: c[0])[1:]
        p, q = witness
        out.append(("linestring", [(float(p[0]), float(p[1])), (float(q[0]), float(q[1]))]))
    return out


def _all_coords(rings):
    nonempty = [r for r in rings if len(r)]
    return np.concatenate(nonempty) if nonempty else np.empty((0, 2))


def _poly_poly(l_rings, r_rings, want_contains: bool) -> bool:
    """Polygon-polygon Intersects, or left Contains right."""
    sl, sr = segments_of_rings(l_rings), segments_of_rings(r_rings)
    la, ra = _all_coords(l_rings), _all_coords(r_rings)
    if want_contains:
        # boundary-inclusive vertex test, and no transversal edge crossing
        parity, on = parity_and_boundary(ra[:, 0], ra[:, 1], l_rings)
        if not (parity | on).all():
            return False
        return not (sl is not None and sr is not None and segments_cross(sl, sr, proper_only=True))
    if sl is not None and sr is not None and segments_cross(sl, sr):
        return True
    return bool(points_in_polygon_single(ra[:, 0], ra[:, 1], l_rings).any()
                or points_in_polygon_single(la[:, 0], la[:, 1], r_rings).any())


def _line_contains_point(segs, p) -> bool:
    if segs is None:
        return False
    a, b = segs[:, 0], segs[:, 1]
    cross = (b[:, 0] - a[:, 0]) * (p[1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (p[0] - a[:, 0])
    return bool(_on(a, b, np.broadcast_to(p, a.shape), cross).any())


def refine_pair(lhs, rhs, li: int, ri: int, predicate: str) -> bool:
    """The local join's exact test of one candidate pair, following the
    reference's dispatch (``spatial_index.rs:89-137``): Point ⊗ (Multi)Polygon
    either order is boundary-exclusive containment; (Multi)Polygon ⊗ Polygon
    honors contains vs intersects; Polygon ⊗ MultiPolygon intersects only;
    Line ⊗ Point either order is line-contains-point; all else False.
    ``within`` is ``contains`` with the operands flipped."""
    if predicate == "within":
        return refine_pair(rhs, lhs, ri, li, "contains")
    lt, rt = int(lhs.types[li]), int(rhs.types[ri])
    lr, rr = K._rings_of(lhs, li), K._rings_of(rhs, ri)
    if lt == POINT and rt in _POLYISH:
        p = lr[0]
        return bool(points_in_polygon_single(p[:, 0], p[:, 1], rr)[0])
    if lt in _POLYISH and rt == POINT:
        p = rr[0]
        return bool(points_in_polygon_single(p[:, 0], p[:, 1], lr)[0])
    if lt in _POLYISH and rt == POLYGON:
        return _poly_poly(lr, rr, want_contains=predicate == "contains")
    if lt == POLYGON and rt == MULTIPOLYGON:
        return predicate != "contains" and _poly_poly(lr, rr, want_contains=False)
    if lt in _LINEISH and rt == POINT:
        return _line_contains_point(segments_of_rings(lr), rr[0][0])
    if lt == POINT and rt in _LINEISH:
        return _line_contains_point(segments_of_rings(rr), lr[0][0])
    return False
