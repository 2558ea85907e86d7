"""DE-9IM topology: ``relate`` and the full binary-predicate family
(ST_Relate / shapely ``relate`` + ``intersects`` / ``within`` /
``contains`` / ``touches`` / ``crosses`` / ``overlaps`` / ``disjoint`` /
``covers`` / ``covered_by`` / ``equals``).

The reference exposes no binary predicates outside its spatial join; this
module computes the real dimensionally-extended 9-intersection matrix per
row pair, from which every predicate derives by the OGC/GEOS pattern
rules — not per-predicate shortcuts, so the family is mutually consistent
by construction.

Machinery: the pair's linework is noded in ONE pass of the overlay
engine's snap-rounded arrangement (`overlay.node_segments`, A = SUBJECT,
B = CLIPPING). After noding, no piece crosses the other geometry, so

- shared groups (both multiplicities) are exactly the dim-1 boundary
  overlaps,
- piece midpoints classify cleanly as interior/exterior of the other
  operand (even-odd over its rings — any on-boundary contact would have
  split or merged the piece),
- crossing/touch points are the noded vertices incident to both sides,
- line boundaries are the mod-2 endpoint sets (same rule as
  ``kernels.boundary``),
- polygon interior∩interior dimensions come from ONE `boolean_op`
  intersection plus the area identities
  ``area(A−B) = area(A) − area(A∩B)`` (so no extra sweeps).

Supported operands: point/multipoint, line/multiline, polygon/
multipolygon, in any combination (matrix transposed for the flipped
order). Defined for VALID polygonal operands (GEOS's own contract);
intersections detected at the overlay snap tolerance. Matrix entry
order is the standard row-major ``[II, IB, IE, BI, BB, BE, EI, EB, EE]``
over (Interior, Boundary, Exterior) of A × B; ``relate`` returns the
9-char string with ``F`` for empty, else the dimension digit.
"""

from __future__ import annotations

import numpy as np

from geopolars_ray.geom.array import (
    LINEARRING,
    LINESTRING,
    MISSING,
    MULTILINESTRING,
    MULTIPOINT,
    MULTIPOLYGON,
    POINT,
    POLYGON,
    GeometryArray,
)
from geopolars_ray.geom.overlay import (
    _SNAP_RTOL,
    CLIPPING,
    SUBJECT,
    _point_in_even_odd,
    _point_on_path,
    node_segments,
)
from geopolars_ray.geom.strtree import PreparedPolygons

_POINTAL = (POINT, MULTIPOINT)
_LINEAL = (LINESTRING, LINEARRING, MULTILINESTRING)
_AREAL = (POLYGON, MULTIPOLYGON)


# --------------------------------------------------------------- extraction

def _family(t: int) -> int:
    """0 = pointal, 1 = lineal, 2 = areal (the geometry's dimension)."""
    if t in _POINTAL:
        return 0
    if t in _LINEAL:
        return 1
    return 2


def _points_of(ga: GeometryArray, i: int) -> set:
    out = set()
    for p in range(int(ga.geom_offsets[i]), int(ga.geom_offsets[i + 1])):
        for r in range(int(ga.part_offsets[p]), int(ga.part_offsets[p + 1])):
            c = ga.coords[ga.ring_offsets[r]:ga.ring_offsets[r + 1]]
            for k in range(len(c)):
                out.add((float(c[k, 0]), float(c[k, 1])))
    return out


def _paths_of(ga: GeometryArray, i: int) -> list[list[tuple]]:
    return [[(float(x), float(y)) for x, y in c] for c in ga.coord_paths(i)]


def _parts_of(ga: GeometryArray, i: int) -> list[list[list[tuple]]]:
    """Ring lists PER PART ([[shell, hole...], ...]), rings as OPEN
    vertex cycles."""
    parts = []
    for p in range(int(ga.geom_offsets[i]), int(ga.geom_offsets[i + 1])):
        rings = []
        for r in range(int(ga.part_offsets[p]), int(ga.part_offsets[p + 1])):
            c = ga.coords[ga.ring_offsets[r]:ga.ring_offsets[r + 1]]
            ring = [(float(x), float(y)) for x, y in c]
            if len(ring) >= 2 and ring[0] == ring[-1]:
                ring = ring[:-1]
            dedup = [ring[0]] if ring else []
            for q in ring[1:]:
                if q != dedup[-1]:
                    dedup.append(q)
            if len(dedup) >= 3:
                rings.append(dedup)
        if rings:
            parts.append(rings)
    return parts


def _rings_of(ga: GeometryArray, i: int) -> list[list[tuple]]:
    """Rings as OPEN vertex cycles (flat across parts)."""
    return [r for part in _parts_of(ga, i) for r in part]


def _mod2_endpoints(paths: list[list[tuple]]) -> set:
    """Line boundary: endpoints occurring an odd number of times (closed
    parts contribute none) — the same rule as ``kernels.boundary``."""
    from collections import Counter

    cnt: Counter = Counter()
    for p in paths:
        if p[0] == p[-1]:
            continue
        cnt[p[0]] += 1
        cnt[p[-1]] += 1
    return {v for v, c in cnt.items() if c % 2}


def _segments(paths_or_rings: list[list[tuple]], pol: int, closed: bool):
    segs = []
    for p in paths_or_rings:
        n = len(p)
        rng = range(n) if closed else range(n - 1)
        for k in rng:
            a, b = p[k], p[(k + 1) % n]
            if a != b:
                segs.append((a, b, pol))
    return segs


def _on_segs(px: float, py: float, paths: list[list[tuple]],
             closed: bool) -> bool:
    """On-boundary over a path set (shared exact test in overlay)."""
    return any(_point_on_path(px, py, p, closed) for p in paths)


# ----------------------------------------------------------- matrix builders

def _noded(a_items, b_items, a_closed: bool, b_closed: bool):
    """Node A against B; returns (a_pieces, b_pieces, shared,
    a_endpoints, b_endpoints) where pieces are (p, q) with only that
    side's multiplicity."""
    segs = _segments(a_items, SUBJECT, a_closed) + \
        _segments(b_items, CLIPPING, b_closed)
    groups = node_segments(segs)
    a_only, b_only, shared = [], [], []
    a_pts, b_pts = set(), set()
    for p, q, m_s, m_c in groups:
        if m_s and m_c:
            shared.append((p, q))
        elif m_s:
            a_only.append((p, q))
        else:
            b_only.append((p, q))
        if m_s:
            a_pts.add(p)
            a_pts.add(q)
        if m_c:
            b_pts.add(p)
            b_pts.add(q)
    return a_only, b_only, shared, a_pts, b_pts


def _mid(pq):
    (x1, y1), (x2, y2) = pq
    return ((x1 + x2) / 2.0, (y1 + y2) / 2.0)


def _drift_tol(scale):
    """Snap band of coordinates of magnitude ``scale`` (a float or an
    array): node_segments runs up to 8 snap/split rounds, each of which can
    move a representative by one tolerance step, so the band bounds the
    cumulative drift with slack (16x) rather than one round's worth."""
    return (16.0 * _SNAP_RTOL) * np.maximum(scale, 1.0)


def _snap_tol(items: list[list[tuple]]) -> float:
    scale = 1.0
    for path in items:
        for x, y in path:
            m = abs(x) if abs(x) > abs(y) else abs(y)
            if m > scale:
                scale = m
    return float(_drift_tol(scale))


def _canon_set(pts: set, vertices: set, tol: float) -> set:
    """Map each point to its snap-rounded representative among the noded
    ``vertices`` (the arrangement may have moved an endpoint by up to a
    few tolerance steps) — set-membership tests against noded vertex
    sets must use the SAME representatives or boundary contacts get
    misattributed to interiors."""
    out = set()
    for v in pts:
        if v in vertices:
            out.add(v)
            continue
        hit = v
        for w in vertices:
            if abs(w[0] - v[0]) <= tol and abs(w[1] - v[1]) <= tol:
                hit = w
                break
        out.add(hit)
    return out


def _interior_probe(rings: list[list[tuple]]):
    """A strictly-interior point of the even-odd region: scanline at a
    y midway between two ADJACENT distinct vertex ys (so it crosses no
    vertex), midpoint of the first inside span. None for degenerate
    ring sets."""
    ys = sorted({y for r in rings for _x, y in r})
    for i in range(len(ys) - 1):
        y0 = (ys[i] + ys[i + 1]) / 2.0
        xs = []
        for r in rings:
            n = len(r)
            for k in range(n):
                x1, y1 = r[k]
                x2, y2 = r[(k + 1) % n]
                if (y1 > y0) != (y2 > y0):
                    xs.append(x1 + (y0 - y1) * (x2 - x1) / (y2 - y1))
        if len(xs) >= 2:
            xs.sort()
            return ((xs[0] + xs[1]) / 2.0, y0)
    return None


def _relate_AA(pa_parts: list, pb_parts: list) -> list[int]:
    """Polygon x polygon, fully COMBINATORIAL — no float area
    comparisons, no second overlay pass. Inputs are PER-PART ring lists
    ([[shell, hole...], ...]). After noding, every one-sided boundary
    piece classifies strictly in/out of the other polygon; parts whose
    rings are entirely shared are sided by one interior probe each
    (valid parts have CONNECTED interiors, so when no boundary piece of
    the other operand crosses a part, a single probe decides the whole
    part):

    - ``II = 2`` iff some boundary piece or part probe lies strictly
      inside the other operand.
    - ``IE = 2`` iff ∂A has a piece outside B, ∂B has a piece inside A
      (B ⊊ A there), or a whole part of A probes outside B. ``EI``
      symmetric.
    """
    ra = [r for part in pa_parts for r in part]
    rb = [r for part in pb_parts for r in part]
    a_only, b_only, shared, a_pts, b_pts = _noded(ra, rb, True, True)
    a_in = any(_point_in_even_odd(*_mid(pq), rings=rb) for pq in a_only)
    a_out = any(not _point_in_even_odd(*_mid(pq), rings=rb) for pq in a_only)
    b_in = any(_point_in_even_odd(*_mid(pq), rings=ra) for pq in b_only)
    b_out = any(not _point_in_even_odd(*_mid(pq), rings=ra) for pq in b_only)
    # Boundary pieces alone cannot side a PART whose rings are entirely
    # shared with the other operand (donut vs hole-plug; a fully-shared
    # component inside a larger multipolygon) — probe EVERY part's
    # interior. A probe landing ON the other boundary is skipped: that
    # means the other boundary crosses this part's interior, which the
    # a_in/b_in piece signals already capture.
    pa_in = pa_out = pb_in = pb_out = False
    for part in pa_parts:
        v = _interior_probe(part)
        if v is None or any(_point_on_path(v[0], v[1], r, True) for r in rb):
            continue
        if _point_in_even_odd(v[0], v[1], rb):
            pa_in = True
        else:
            pa_out = True
    for part in pb_parts:
        v = _interior_probe(part)
        if v is None or any(_point_on_path(v[0], v[1], r, True) for r in ra):
            continue
        if _point_in_even_odd(v[0], v[1], ra):
            pb_in = True
        else:
            pb_out = True
    ii = 2 if (a_in or b_in or pa_in or pb_in) else -1
    ie = 2 if (a_out or b_in or pa_out) else -1
    ei = 2 if (b_out or a_in or pb_out) else -1
    if shared:
        bb = 1
    elif a_pts & b_pts:
        bb = 0
    else:
        bb = -1
    return [ii, 1 if b_in else -1, ie,
            1 if a_in else -1, bb, 1 if a_out else -1,
            ei, 1 if b_out else -1, 2]


def _relate_LA(paths: list, rings: list) -> list[int]:
    """A = lineal, B = areal."""
    a_only, b_only, shared, a_pts, b_pts = _noded(paths, rings, False, True)
    bnd = _canon_set(_mod2_endpoints(paths), a_pts, _snap_tol(paths + rings))
    mid_in = [_point_in_even_odd(*_mid(pq), rings=rings) for pq in a_only]
    ii = 1 if any(mid_in) else -1
    ie = 1 if any(not m for m in mid_in) else -1
    if shared:
        ib = 1
    else:
        # noded vertices on B's boundary that are interior to the line
        touch = {v for v in (a_pts & b_pts) if v not in bnd}
        ib = 0 if touch else -1
    bi = 0 if any(_point_in_even_odd(px, py, rings) and not _on_segs(px, py, rings, True)
                  for px, py in bnd) else -1
    bb = 0 if any(_on_segs(px, py, rings, True) for px, py in bnd) else -1
    be = 0 if any(not _point_in_even_odd(px, py, rings) and
                  not _on_segs(px, py, rings, True) for px, py in bnd) else -1
    eb = 1 if b_only else -1
    return [ii, ib, ie, bi, bb, be, 2, eb, 2]


def _relate_LL(pa: list, pb: list) -> list[int]:
    a_only, b_only, shared, a_pts, b_pts = _noded(pa, pb, False, False)
    tol = _snap_tol(pa + pb)
    bnd_a = _canon_set(_mod2_endpoints(pa), a_pts, tol)
    bnd_b = _canon_set(_mod2_endpoints(pb), b_pts, tol)
    common = a_pts & b_pts
    if shared:
        ii = 1
    elif any(v not in bnd_a and v not in bnd_b for v in common):
        ii = 0
    else:
        ii = -1
    ib = 0 if any(v in a_pts and v not in bnd_a for v in bnd_b) else -1
    bi = 0 if any(v in b_pts and v not in bnd_b for v in bnd_a) else -1
    bb = 0 if (bnd_a & bnd_b) else -1
    ie = 1 if a_only else -1
    ei = 1 if b_only else -1
    be = 0 if any(v not in b_pts for v in bnd_a) else -1
    eb = 0 if any(v not in a_pts for v in bnd_b) else -1
    return [ii, ib, ie, bi, bb, be, ei, eb, 2]


def _relate_PP(sa: set, sb: set) -> list[int]:
    return [0 if sa & sb else -1, -1, 0 if sa - sb else -1,
            -1, -1, -1,
            0 if sb - sa else -1, -1, 2]


def _relate_PL(pts: set, paths: list) -> list[int]:
    bnd = _mod2_endpoints(paths)
    on_int = on_bnd = off = False
    for v in pts:
        if v in bnd:
            on_bnd = True
        elif _on_segs(v[0], v[1], paths, False):
            on_int = True
        else:
            off = True
    eb = 0 if (bnd - pts) else -1
    return [0 if on_int else -1, 0 if on_bnd else -1, 0 if off else -1,
            -1, -1, -1,
            1, eb, 2]


def _relate_PA(pts: set, rings: list) -> list[int]:
    inside = bnd = off = False
    for px, py in pts:
        if _on_segs(px, py, rings, True):
            bnd = True
        elif _point_in_even_odd(px, py, rings):
            inside = True
        else:
            off = True
    return [0 if inside else -1, 0 if bnd else -1, 0 if off else -1,
            -1, -1, -1,
            2, 1, 2]


def _transpose(m: list[int]) -> list[int]:
    return [m[0], m[3], m[6], m[1], m[4], m[7], m[2], m[5], m[8]]


def relate_pair(ga: GeometryArray, i: int, gb: GeometryArray, j: int):
    """DE-9IM matrix (list of 9 dims, -1 = empty) for row i of A vs row
    j of B; None when either side is missing."""
    ta, tb = int(ga.types[i]), int(gb.types[j])
    if ta == MISSING or tb == MISSING:
        return None
    fa, fb = _family(ta), _family(tb)
    if fa > fb:
        m = relate_pair(gb, j, ga, i)
        return None if m is None else _transpose(m)
    if fa == 0 and fb == 0:
        return _relate_PP(_points_of(ga, i), _points_of(gb, j))
    if fa == 0 and fb == 1:
        return _relate_PL(_points_of(ga, i), _paths_of(gb, j))
    if fa == 0 and fb == 2:
        return _relate_PA(_points_of(ga, i), _rings_of(gb, j))
    if fa == 1 and fb == 1:
        return _relate_LL(_paths_of(ga, i), _paths_of(gb, j))
    if fa == 1 and fb == 2:
        return _relate_LA(_paths_of(ga, i), _rings_of(gb, j))
    return _relate_AA(_parts_of(ga, i), _parts_of(gb, j))


def _to_string(m: list[int]) -> str:
    return "".join("F" if d < 0 else str(d) for d in m)


# --------------------------------------------- vectorized fast paths
#
# The general path is a per-row arrangement sweep — correct for anything,
# but ~ms/row. The two shapes that dominate real predicate workloads are
# closed-form: axis-aligned rectangles (bbox/tile tables) via interval
# arithmetic, and single points vs rectangles via position classes. Rows
# are detected vectorized and only the remainder pays the sweep; the
# hypothesis suite pins fast == slow on random rect/point pairs.

def _rect_boxes(ga: GeometryArray):
    """(mask, (n, 4) [x0, y0, x1, y1]) for rows that are single-part
    single-ring 5-coord closed axis-aligned non-degenerate rectangles
    with four pairwise-distinct corners."""
    n = len(ga)
    mask = np.zeros(n, dtype=bool)
    boxes = np.full((n, 4), np.nan)
    co = ga.coord_offsets()
    npts = co[1:] - co[:-1]
    one_part = (ga.geom_offsets[1:] - ga.geom_offsets[:-1]) == 1
    cand = (ga.types == POLYGON) & one_part & (npts == 5)
    idx = np.flatnonzero(cand)
    if not len(idx):
        return mask, boxes
    P = ga.coords[(co[idx][:, None] + np.arange(5)[None, :]).ravel()].reshape(-1, 5, 2)
    closed = (P[:, 0] == P[:, 4]).all(axis=1)
    dx = np.diff(P[:, :, 0], axis=1)
    dy = np.diff(P[:, :, 1], axis=1)
    axis_aligned = ((dx == 0.0) ^ (dy == 0.0)).all(axis=1)
    xs, ys = P[:, :4, 0], P[:, :4, 1]
    x0, x1 = xs.min(axis=1), xs.max(axis=1)
    y0, y1 = ys.min(axis=1), ys.max(axis=1)
    corners = (((xs == x0[:, None]) | (xs == x1[:, None])).all(axis=1)
               & ((ys == y0[:, None]) | (ys == y1[:, None])).all(axis=1))
    # distinct vertices: a zero-area spike ring like
    # (0,0),(1,0),(0,0),(0,1) hits every bbox corner yet is no
    # rectangle. ADJACENT repeats already fail the axis-aligned XOR
    # (dx == dy == 0), so checking the two OPPOSITE pairs suffices.
    distinct = ((P[:, 0] != P[:, 2]).any(axis=1)
                & (P[:, 1] != P[:, 3]).any(axis=1))
    ok = closed & axis_aligned & corners & distinct & (x1 > x0) & (y1 > y0)
    mask[idx[ok]] = True
    boxes[idx[ok]] = np.column_stack([x0, y0, x1, y1])[ok]
    return mask, boxes


def _borderline(crit: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """True where any critical coordinate difference is nonzero but
    within the arrangement's snap band — such rows must take the SWEEP,
    whose snap-rounding merges sub-tolerance gaps (the fast path is
    exact arithmetic and would disagree)."""
    tol = _drift_tol(scale)
    a = np.abs(crit)
    return ((a > 0.0) & (a <= tol[:, None])).any(axis=1)


def _rect_matrices(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(n, 9) DE-9IM dims for aligned axis-aligned rect pairs — pure
    interval arithmetic, every contact class (disjoint / corner / edge
    touch / partial overlap / containment / shared edges / equality)."""
    ax0, ay0, ax1, ay1 = A.T
    bx0, by0, bx1, by1 = B.T
    ov_w = np.minimum(ax1, bx1) - np.maximum(ax0, bx0)
    ov_h = np.minimum(ay1, by1) - np.maximum(ay0, by0)
    inter = (ov_w >= 0) & (ov_h >= 0)
    open_overlap = (ov_w > 0) & (ov_h > 0)
    a_in_b = (bx0 <= ax0) & (ax1 <= bx1) & (by0 <= ay0) & (ay1 <= by1)
    b_in_a = (ax0 <= bx0) & (bx1 <= ax1) & (ay0 <= by0) & (by1 <= ay1)

    def edges_in_open_box(ex_lo, ex_hi, ey_lo, ey_hi, ox0, oy0, ox1, oy1):
        # does the rect (e*) have an EDGE segment intersecting the open
        # box (o*)? check its two vertical and two horizontal edges
        y_meet = (np.minimum(ey_hi, oy1) > np.maximum(ey_lo, oy0))
        x_meet = (np.minimum(ex_hi, ox1) > np.maximum(ex_lo, ox0))
        v = ((ox0 < ex_lo) & (ex_lo < ox1) | (ox0 < ex_hi) & (ex_hi < ox1)) & y_meet
        h = ((oy0 < ey_lo) & (ey_lo < oy1) | (oy0 < ey_hi) & (ey_hi < oy1)) & x_meet
        return v | h

    ib_hit = edges_in_open_box(bx0, bx1, by0, by1, ax0, ay0, ax1, ay1)
    bi_hit = edges_in_open_box(ax0, ax1, ay0, ay1, bx0, by0, bx1, by1)
    # shared collinear boundary (dim-1 BB): matching vertical lines with
    # y-overlap, or matching horizontal lines with x-overlap
    vshare = (((ax0 == bx0) | (ax0 == bx1) | (ax1 == bx0) | (ax1 == bx1))
              & (ov_h > 0))
    hshare = (((ay0 == by0) | (ay0 == by1) | (ay1 == by0) | (ay1 == by1))
              & (ov_w > 0))
    a_strict_in_b = (bx0 < ax0) & (ax1 < bx1) & (by0 < ay0) & (ay1 < by1)
    b_strict_in_a = (ax0 < bx0) & (bx1 < ax1) & (ay0 < by0) & (by1 < ay1)
    bnd_touch = inter & ~a_strict_in_b & ~b_strict_in_a

    F = np.full(len(A), -1, dtype=np.int64)
    m = np.empty((len(A), 9), dtype=np.int64)
    m[:, 0] = np.where(open_overlap, 2, F)                       # II
    m[:, 1] = np.where(ib_hit, 1, F)                             # IB
    m[:, 2] = np.where(~a_in_b, 2, F)                            # IE
    m[:, 3] = np.where(bi_hit, 1, F)                             # BI
    m[:, 4] = np.select([vshare | hshare, bnd_touch], [1, 0], -1)  # BB
    m[:, 5] = np.where(~a_in_b, 1, F)                            # BE
    m[:, 6] = np.where(~b_in_a, 2, F)                            # EI
    m[:, 7] = np.where(~b_in_a, 1, F)                            # EB
    m[:, 8] = 2                                                  # EE
    return m


_TRANSPOSE_IDX = np.array(_transpose(list(range(9))), dtype=np.int64)


def _point_rect_matrices(px, py, B: np.ndarray, flip: bool) -> np.ndarray:
    """(n, 9) dims for single points vs rects (transposed when ``flip``:
    the rect is operand A)."""
    bx0, by0, bx1, by1 = B.T
    inside = (bx0 < px) & (px < bx1) & (by0 < py) & (py < by1)
    on = ((bx0 <= px) & (px <= bx1) & (by0 <= py) & (py <= by1)) & ~inside
    m = np.full((len(B), 9), -1, dtype=np.int64)
    m[:, 0] = np.where(inside, 0, -1)   # II
    m[:, 1] = np.where(on, 0, -1)       # IB
    m[:, 2] = np.where(~inside & ~on, 0, -1)  # IE
    m[:, 6] = 2                         # EI: rect interior vs point exterior
    m[:, 7] = 1                         # EB
    m[:, 8] = 2
    if flip:
        m = m[:, _TRANSPOSE_IDX]
    return m


def _single_points(ga: GeometryArray):
    """(mask, x, y) for single-POINT rows."""
    mask = ga.types == POINT
    co = ga.coord_offsets()
    x = np.full(len(ga), np.nan)
    y = np.full(len(ga), np.nan)
    idx = np.flatnonzero(mask & (co[1:] - co[:-1] == 1))
    x[idx] = ga.coords[co[idx], 0]
    y[idx] = ga.coords[co[idx], 1]
    mask = mask & ~np.isnan(x)
    return mask, x, y


# family (= topological dimension) per type id, indexed by type + 1
# (MISSING = -1 -> slot 0). 3 = not classifiable by the fast paths
# (missing / geometrycollection) -> per-row sweep decides.
_FAMILY_LUT = np.array([3, 0, 1, 1, 2, 0, 1, 2, 3], dtype=np.int64)


def _row_bboxes(ga: GeometryArray):
    """((n, 4) [x0, y0, x1, y1] per row (NaN where no coords), coord
    counts). One reduceat pass over the contiguous per-row coord
    slices — no per-row Python."""
    co = ga.coord_offsets()
    n = len(ga)
    out = np.full((n, 4), np.nan)
    npts = co[1:] - co[:-1]
    nz = np.flatnonzero(npts > 0)
    if len(nz):
        starts = co[:-1][nz]
        x, y = ga.coords[:, 0], ga.coords[:, 1]
        # empty rows between two non-empty ones contribute no coords, so
        # each reduceat segment is exactly one row's slice
        out[nz, 0] = np.minimum.reduceat(x, starts)
        out[nz, 1] = np.minimum.reduceat(y, starts)
        out[nz, 2] = np.maximum.reduceat(x, starts)
        out[nz, 3] = np.maximum.reduceat(y, starts)
    return out, npts


def _boundary_empty(ga: GeometryArray, rows: np.ndarray) -> np.ndarray:
    """Aligned with ``rows``: is the OGC boundary empty? Pointal: always;
    areal: never (non-empty operands); lineal: the mod-2 endpoint rule
    (cost is O(paths) per lineal row — endpoints only, no vertex scan)."""
    fam = _FAMILY_LUT[np.asarray(ga.types, np.int64)[rows] + 1]
    out = fam == 0
    go, po, ro = ga.geom_offsets, ga.part_offsets, ga.ring_offsets
    for k in np.flatnonzero(fam == 1):
        i = rows[k]
        cnt: dict = {}
        for r in range(int(po[go[i]]), int(po[go[i + 1]])):
            s, e = int(ro[r]), int(ro[r + 1]) - 1
            a = (float(ga.coords[s, 0]), float(ga.coords[s, 1]))
            b = (float(ga.coords[e, 0]), float(ga.coords[e, 1]))
            if a == b:
                continue
            cnt[a] = cnt.get(a, 0) + 1
            cnt[b] = cnt.get(b, 0) + 1
        out[k] = all(c % 2 == 0 for c in cnt.values())
    return out


def _disjoint_matrices(fam_a, fam_b, bea, beb) -> np.ndarray:
    """DE-9IM for bbox-separated pairs: everything is F except the
    exterior row/column, which is determined by each operand's dimension
    and boundary-emptiness alone."""
    n = len(fam_a)
    m = np.full((n, 9), -1, dtype=np.int64)
    m[:, 2] = fam_a                                   # IE
    m[:, 5] = np.where(bea, -1, fam_a - 1)            # BE
    m[:, 6] = fam_b                                   # EI
    m[:, 7] = np.where(beb, -1, fam_b - 1)            # EB
    m[:, 8] = 2
    return m


# flatten-path budget: a candidate polygon pair contributes na*nb segment
# pairs; pairs beyond this take the sweep (which is loud-guarded for huge
# inputs by kernels' vertex budgets). 4M pairs ~ a few hundred MB of
# float64 temporaries when processed in one chunk.
_PAIR_BUDGET = 4_000_000
_CHUNK_PAIRS = 1_000_000


def _simple_rings(ga: GeometryArray):
    """Mask of rows that are single-part single-ring CLOSED polygons
    with every segment of positive length (so the flattened seg-pair
    classifier sees clean linework)."""
    t = np.asarray(ga.types)
    go = ga.geom_offsets
    rings_per_geom = ga.part_offsets[go[1:]] - ga.part_offsets[go[:-1]]
    one = ((go[1:] - go[:-1]) == 1) & (rings_per_geom == 1)
    co = ga.coord_offsets()
    npts = co[1:] - co[:-1]
    cand = (t == POLYGON) & one & (npts >= 4)
    idx = np.flatnonzero(cand)
    if not len(idx):
        return cand
    first = ga.coords[co[idx]]
    last = ga.coords[co[idx + 1] - 1]
    closed = (first == last).all(axis=1)
    d = np.diff(ga.coords, axis=0)
    z = np.concatenate([[0], np.cumsum((d == 0.0).all(axis=1).astype(np.int64))])
    # duplicate-adjacent vertices anywhere in the row's segment range
    no_dup = (z[co[idx + 1] - 1] - z[co[idx]]) == 0
    cand[idx] = closed & no_dup
    return cand


_AA_OVERLAP = np.array([2, 1, 2, 1, 0, 1, 2, 1, 2], dtype=np.int64)
_AA_A_IN_B = np.array([2, -1, -1, 1, -1, -1, 2, 1, 2], dtype=np.int64)
_AA_B_IN_A = np.array([2, 1, 2, -1, -1, 1, -1, -1, 2], dtype=np.int64)
_AA_DISJOINT = np.array([-1, -1, 2, -1, -1, 1, 2, 1, 2], dtype=np.int64)


def _kept_segments(co, coords, rows, nseg, W, pad):
    """Per-row segment prefilter: global coord indices (row-major) of the
    segments whose bbox overlaps the row's padded interaction window W,
    plus the per-row kept counts. Any two segments within the snap band
    of each other meet inside W (both lie within tol of a common point
    that is inside both row bboxes padded by tol), so dropped segments
    provably cannot contribute a contact."""
    rep = np.repeat(np.arange(len(rows)), nseg)
    base = np.concatenate([[0], np.cumsum(nseg)])
    k = np.arange(base[-1]) - base[:-1][rep]
    si = co[rows][rep] + k
    x1, y1 = coords[si, 0], coords[si, 1]
    x2, y2 = coords[si + 1, 0], coords[si + 1, 1]
    P = pad[rep]
    ok = ((np.minimum(x1, x2) <= W[rep, 2] + P)
          & (np.maximum(x1, x2) >= W[rep, 0] - P)
          & (np.minimum(y1, y2) <= W[rep, 3] + P)
          & (np.maximum(y1, y2) >= W[rep, 1] - P))
    cnt = np.add.reduceat(ok.astype(np.int64), base[:-1])
    return si[ok], cnt


def _poly_pair_classify(ga: GeometryArray, gb: GeometryArray,
                        rows: np.ndarray, tol: np.ndarray,
                        boxes_a: np.ndarray, boxes_b: np.ndarray):
    """Vectorized DE-9IM for simple-ring polygon pairs (``rows`` indexes
    both sides; ``tol`` is the per-row snap band). A bbox-window
    prefilter keeps only the segments that can interact (containment and
    near-miss rows keep none and skip straight to the probes); surviving
    segment pairs are tested in flat NumPy: pairs whose boundaries
    properly cross beyond the band are the transversal-overlap class
    ``212101212``; pairs with NO contact beyond the band classify by two
    interior probes (strict containment either way, else disjoint). Rows
    with any borderline contact — a distance or an orientation inside
    the band, where the arrangement's snap-rounding could merge — are
    left undecided for the sweep, so fast == sweep everywhere (same
    contract as the rect path).

    Returns (decided_rows, matrices).
    """
    coa, cob = ga.coord_offsets(), gb.coord_offsets()
    na = (coa[rows + 1] - coa[rows]) - 1
    nb = (cob[rows + 1] - cob[rows]) - 1
    # interaction window = intersection of the two row bboxes
    W = np.column_stack([
        np.maximum(boxes_a[rows, 0], boxes_b[rows, 0]),
        np.maximum(boxes_a[rows, 1], boxes_b[rows, 1]),
        np.minimum(boxes_a[rows, 2], boxes_b[rows, 2]),
        np.minimum(boxes_a[rows, 3], boxes_b[rows, 3])])
    pad = 4.0 * tol
    seg_a, cnt_a = _kept_segments(coa, ga.coords, rows, na, W, pad)
    seg_b, cnt_b = _kept_segments(cob, gb.coords, rows, nb, W, pad)
    pairs = cnt_a * cnt_b
    keep = pairs <= _PAIR_BUDGET
    if not keep.all():
        # rebuild the kept-seg arrays without the over-budget rows
        abase = np.concatenate([[0], np.cumsum(cnt_a)])
        bbase = np.concatenate([[0], np.cumsum(cnt_b)])
        seg_a = np.concatenate([seg_a[abase[i]:abase[i + 1]]
                                for i in np.flatnonzero(keep)]) if keep.any() else seg_a[:0]
        seg_b = np.concatenate([seg_b[bbase[i]:bbase[i + 1]]
                                for i in np.flatnonzero(keep)]) if keep.any() else seg_b[:0]
        rows, tol, cnt_a, cnt_b = rows[keep], tol[keep], cnt_a[keep], cnt_b[keep]
        pairs = pairs[keep]
    if not len(rows):
        return rows, np.empty((0, 9), dtype=np.int64)
    any_cross = np.zeros(len(rows), dtype=bool)
    ambiguous = np.zeros(len(rows), dtype=bool)
    abase = np.concatenate([[0], np.cumsum(cnt_a)])[:-1]
    bbase = np.concatenate([[0], np.cumsum(cnt_b)])[:-1]
    live = np.flatnonzero(pairs > 0)
    bounds = np.concatenate([[0], np.cumsum(pairs[live])])
    # chunk rows so one flatten stays memory-bounded
    start = 0
    while start < len(live):
        stop = int(np.searchsorted(bounds, bounds[start] + _CHUNK_PAIRS, "right")) - 1
        stop = max(stop, start + 1)
        lr = live[start:stop]
        cnt = pairs[lr]
        rep0 = np.repeat(np.arange(len(lr)), cnt)
        base = np.concatenate([[0], np.cumsum(cnt)])[:-1]
        k = np.arange(len(rep0)) - base[rep0]
        CB = cnt_b[lr][rep0]
        sa = seg_a[abase[lr][rep0] + k // CB]
        sb = seg_b[bbase[lr][rep0] + k % CB]
        p1 = ga.coords[sa]
        p2 = ga.coords[sa + 1]
        q1 = gb.coords[sb]
        q2 = gb.coords[sb + 1]
        d1 = p2 - p1
        d2 = q2 - q1
        len1 = np.hypot(d1[:, 0], d1[:, 1])
        len2 = np.hypot(d2[:, 0], d2[:, 1])

        def _cross(u, v):
            return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]

        o1 = _cross(d1, q1 - p1)
        o2 = _cross(d1, q2 - p1)
        o3 = _cross(d2, p1 - q1)
        o4 = _cross(d2, p2 - q1)
        TT = tol[lr][rep0]
        raw = (o1 * o2 < 0) & (o3 * o4 < 0)
        robust = ((np.abs(o1) > TT * len1) & (np.abs(o2) > TT * len1)
                  & (np.abs(o3) > TT * len2) & (np.abs(o4) > TT * len2))
        proper = raw & robust

        def _pt_seg_d2(P, S1, D, L):
            t_ = ((P[:, 0] - S1[:, 0]) * D[:, 0] + (P[:, 1] - S1[:, 1]) * D[:, 1])
            with np.errstate(divide="ignore", invalid="ignore"):
                t_ = np.clip(t_ / np.where(L > 0, L * L, 1.0), 0.0, 1.0)
            cx = S1[:, 0] + t_ * D[:, 0] - P[:, 0]
            cy = S1[:, 1] + t_ * D[:, 1] - P[:, 1]
            return cx * cx + cy * cy

        # non-crossing segments attain their min distance at an endpoint,
        # so four point-segment distances cover the near-contact test
        d2min = np.minimum(
            np.minimum(_pt_seg_d2(q1, p1, d1, len1), _pt_seg_d2(q2, p1, d1, len1)),
            np.minimum(_pt_seg_d2(p1, q1, d2, len2), _pt_seg_d2(p2, q1, d2, len2)))
        near = d2min <= TT * TT
        amb = (near | raw) & ~proper
        any_cross[lr] = np.logical_or.reduceat(proper, base)
        ambiguous[lr] = np.logical_or.reduceat(amb, base)
        start = stop
    decided = ~ambiguous
    rows_d = rows[decided]
    if not len(rows_d):
        return rows_d, np.empty((0, 9), dtype=np.int64)
    crossed = any_cross[decided]
    M = np.empty((len(rows_d), 9), dtype=np.int64)
    M[crossed] = _AA_OVERLAP
    nc = np.flatnonzero(~crossed)
    if len(nc):
        r = rows_d[nc]
        # no boundary contact: one vertex probe per side decides the part
        # (single closed rings: the kernel's parity is the ring's)
        a_in, _ = PreparedPolygons.from_geometry_array(gb.take(r)).parity_on(
            ga.coords[coa[r], 0], ga.coords[coa[r], 1], np.arange(len(r)))
        b_in, _ = PreparedPolygons.from_geometry_array(ga.take(r)).parity_on(
            gb.coords[cob[r], 0], gb.coords[cob[r], 1], np.arange(len(r)))
        sub = np.where(a_in[:, None], _AA_A_IN_B,
                       np.where(b_in[:, None], _AA_B_IN_A, _AA_DISJOINT))
        M[nc] = sub
    return rows_d, M


_PA_INSIDE = np.array([0, -1, -1, -1, -1, -1, 2, 1, 2], dtype=np.int64)
_PA_OUTSIDE = np.array([-1, -1, 0, -1, -1, -1, 2, 1, 2], dtype=np.int64)


def _matrix_table(ga: GeometryArray, gb: GeometryArray, vertex_budget=None):
    """(M, valid): (n, 9) int64 DE-9IM dims per row + validity mask
    (False = a side missing). Vectorized fast paths — rect x rect,
    point x rect, point x point, bbox-disjoint for EVERY family, and the
    general simple-polygon pair classifier — rows whose contact
    classification sits inside the arrangement's snap band fall back to
    the sweep so fast == sweep everywhere."""
    n = len(ga)
    M = np.full((n, 9), -1, dtype=np.int64)
    valid = np.ones(n, dtype=bool)
    done = np.zeros(n, dtype=bool)
    ra_mask, ra_box = _rect_boxes(ga)
    rb_mask, rb_box = _rect_boxes(gb)

    def scatter(mask: np.ndarray, mats: np.ndarray) -> None:
        nonlocal done
        M[mask] = mats
        done |= mask

    both = ra_mask & rb_mask
    if both.any():
        A, B = ra_box[both], rb_box[both]
        scale = np.maximum(np.abs(A).max(axis=1), np.abs(B).max(axis=1))
        # every coordinate difference that decides a contact class
        crit = np.stack([A[:, 2] - B[:, 0], B[:, 2] - A[:, 0],
                         A[:, 3] - B[:, 1], B[:, 3] - A[:, 1],
                         A[:, 0] - B[:, 0], A[:, 2] - B[:, 2],
                         A[:, 1] - B[:, 1], A[:, 3] - B[:, 3]], axis=1)
        safe = ~_borderline(crit, scale)
        sub = np.flatnonzero(both)[safe]
        if len(sub):
            mask = np.zeros(n, dtype=bool)
            mask[sub] = True
            scatter(mask, _rect_matrices(A[safe], B[safe]))
    pa_mask, pax, pay = _single_points(ga)
    pb_mask, pbx, pby = _single_points(gb)
    for pmask, px_, py_, rmask, rbox, flip in (
            (pa_mask, pax, pay, rb_mask, rb_box, False),
            (pb_mask, pbx, pby, ra_mask, ra_box, True)):
        pr = pmask & rmask & ~done
        if not pr.any():
            continue
        P = np.column_stack([px_[pr], py_[pr]])
        B = rbox[pr]
        scale = np.maximum(np.abs(P).max(axis=1), np.abs(B).max(axis=1))
        crit = np.stack([P[:, 0] - B[:, 0], P[:, 0] - B[:, 2],
                         P[:, 1] - B[:, 1], P[:, 1] - B[:, 3]], axis=1)
        safe = ~_borderline(crit, scale)
        sub = np.flatnonzero(pr)[safe]
        if len(sub):
            mask = np.zeros(n, dtype=bool)
            mask[sub] = True
            scatter(mask, _point_rect_matrices(
                P[safe, 0], P[safe, 1], B[safe], flip=flip))
    pp = pa_mask & pb_mask & ~done
    if pp.any():
        eq = (pax[pp] == pbx[pp]) & (pay[pp] == pby[pp])
        mats = np.where(eq[:, None],
                        np.array([0, -1, -1, -1, -1, -1, -1, -1, 2]),
                        np.array([-1, -1, 0, -1, -1, -1, 0, -1, 2]))
        scatter(pp, mats)
    # ---- bbox-disjoint, ANY family: when the bboxes are separated by
    # more than the snap band the matrix depends only on each operand's
    # dimension + boundary-emptiness. This is the dominant class of a
    # column-aligned predicate workload.
    fam_a = _FAMILY_LUT[np.asarray(ga.types, np.int64) + 1]
    fam_b = _FAMILY_LUT[np.asarray(gb.types, np.int64) + 1]
    boxes_a, npts_a = _row_bboxes(ga)
    boxes_b, npts_b = _row_bboxes(gb)
    known = (fam_a < 3) & (fam_b < 3) & (npts_a > 0) & (npts_b > 0)
    rem = known & ~done
    if rem.any():
        A, B = boxes_a, boxes_b
        with np.errstate(invalid="ignore"):
            scale = np.maximum(np.abs(A).max(axis=1), np.abs(B).max(axis=1))
            tol = _drift_tol(scale)
            gap = np.maximum(
                np.maximum(B[:, 0] - A[:, 2], A[:, 0] - B[:, 2]),
                np.maximum(B[:, 1] - A[:, 3], A[:, 1] - B[:, 3]))
            dis = rem & (gap > tol)
        if dis.any():
            idx = np.flatnonzero(dis)
            scatter(dis, _disjoint_matrices(
                fam_a[idx], fam_b[idx],
                _boundary_empty(ga, idx), _boundary_empty(gb, idx)))
        rem = known & ~done
    # ---- general simple-polygon pairs (arbitrary simple rings, not just
    # rects): flattened segment-pair classification
    if rem.any():
        sa = _simple_rings(ga)
        sb = _simple_rings(gb)
        poly = rem & sa & sb
        if poly.any():
            idx = np.flatnonzero(poly)
            scale = np.maximum(np.abs(boxes_a[idx]).max(axis=1),
                               np.abs(boxes_b[idx]).max(axis=1))
            tol = _drift_tol(scale)
            rows_d, mats = _poly_pair_classify(ga, gb, idx, tol, boxes_a, boxes_b)
            if len(rows_d):
                mask = np.zeros(n, dtype=bool)
                mask[rows_d] = True
                scatter(mask, mats)
        # point x simple-polygon (either order): probe distance to the
        # ring, then even-odd — borderline rows fall to the sweep
        for pmask, px_, py_, smask, gpoly, flip in (
                (pa_mask, pax, pay, sb, gb, False),
                (pb_mask, pbx, pby, sa, ga, True)):
            pr = pmask & smask & known & ~done
            if not pr.any():
                continue
            idx = np.flatnonzero(pr)
            co = gpoly.coord_offsets()
            counts = (co[idx + 1] - co[idx]) - 1
            rep = np.repeat(np.arange(len(idx)), counts)
            base = np.concatenate([[0], np.cumsum(counts)])[:-1]
            seg = np.arange(len(rep)) - base[rep] + co[idx][rep]
            s1 = gpoly.coords[seg]
            d = gpoly.coords[seg + 1] - s1
            L2 = d[:, 0] ** 2 + d[:, 1] ** 2
            PX, PY = px_[idx][rep], py_[idx][rep]
            with np.errstate(divide="ignore", invalid="ignore"):
                t_ = np.clip(((PX - s1[:, 0]) * d[:, 0] + (PY - s1[:, 1]) * d[:, 1])
                             / np.where(L2 > 0, L2, 1.0), 0.0, 1.0)
            dx = s1[:, 0] + t_ * d[:, 0] - PX
            dy = s1[:, 1] + t_ * d[:, 1] - PY
            d2 = np.minimum.reduceat(dx * dx + dy * dy, base)
            pb_box = (boxes_b if not flip else boxes_a)[idx]
            scale = np.maximum(np.maximum(np.abs(px_[idx]), np.abs(py_[idx])),
                               np.abs(pb_box).max(axis=1))
            tol = _drift_tol(scale)
            safe = d2 > tol * tol
            if not safe.any():
                continue
            sidx = idx[safe]
            inside, _ = PreparedPolygons.from_geometry_array(gpoly.take(sidx)).parity_on(
                px_[sidx], py_[sidx], np.arange(len(sidx)))
            mats = np.where(inside[:, None], _PA_INSIDE, _PA_OUTSIDE)
            if flip:
                mats = mats[:, _TRANSPOSE_IDX]
            mask = np.zeros(n, dtype=bool)
            mask[sidx] = True
            scatter(mask, mats)
    from geopolars_ray.geom.budget import check_vertex_budget

    for i in np.flatnonzero(~done):
        if int(ga.types[i]) != MISSING and int(gb.types[i]) != MISSING:
            # the arrangement sweep is per-pair algorithmic — loud
            # budget instead of a silent crawl (geom/budget.py)
            check_vertex_budget(int(npts_a[i] + npts_b[i]),
                                "relate (arrangement sweep)", vertex_budget)
        m = relate_pair(ga, i, gb, i)
        if m is None:
            valid[i] = False
        else:
            M[i] = m
    return M, valid


def _all_matrices(ga: GeometryArray, gb: GeometryArray,
                  vertex_budget=None) -> list:
    """Per-row DE-9IM matrices as lists (None for missing rows) — the
    list view of :func:`_matrix_table` for per-row consumers/tests."""
    M, valid = _matrix_table(ga, gb, vertex_budget)
    return [M[i].tolist() if valid[i] else None for i in range(len(ga))]


def relate(ga: GeometryArray, gb: GeometryArray, vertex_budget=None) -> list:
    """Row-aligned DE-9IM strings (None where either side missing)."""
    if len(ga) != len(gb):
        raise ValueError("relate requires aligned columns")
    M, valid = _matrix_table(ga, gb, vertex_budget)
    return [_to_string(M[i]) if valid[i] else None for i in range(len(ga))]


def matches(m: list[int], pattern: str) -> bool:
    """DE-9IM pattern match: T = non-empty, F = empty, 0/1/2 = exact
    dimension, * = anything."""
    if len(pattern) != 9:
        raise ValueError("DE-9IM pattern must have 9 characters")
    for d, c in zip(m, pattern):
        if c == "*":
            continue
        if c == "T":
            if d < 0:
                return False
        elif c == "F":
            if d >= 0:
                return False
        elif d != int(c):
            return False
    return True


def relate_pattern(ga: GeometryArray, gb: GeometryArray,
                   pattern: str, vertex_budget=None) -> np.ndarray:
    if len(ga) != len(gb):
        raise ValueError("relate_pattern requires aligned columns")
    if len(pattern) != 9:
        raise ValueError("DE-9IM pattern must have 9 characters")
    M, valid = _matrix_table(ga, gb, vertex_budget)
    out = valid.copy()
    for k, c in enumerate(pattern):
        if c == "*":
            continue
        if c == "T":
            out &= M[:, k] >= 0
        elif c == "F":
            out &= M[:, k] < 0
        else:
            out &= M[:, k] == int(c)
    return out


# ------------------------------------------------------- predicate family

def _pred_from_matrix(name: str, m: list[int], fa: int, fb: int) -> bool:
    ii, ib, ie, bi, bb, be, ei, eb, _ee = m
    if name == "disjoint":
        return ii < 0 and ib < 0 and bi < 0 and bb < 0
    if name == "intersects":
        return not (ii < 0 and ib < 0 and bi < 0 and bb < 0)
    if name == "within":
        return ii >= 0 and ie < 0 and be < 0
    if name == "contains":
        return ii >= 0 and ei < 0 and eb < 0
    if name == "covers":
        return (ii >= 0 or ib >= 0 or bi >= 0 or bb >= 0) and ei < 0 and eb < 0
    if name == "covered_by":
        return (ii >= 0 or ib >= 0 or bi >= 0 or bb >= 0) and ie < 0 and be < 0
    if name == "equals":
        return ii >= 0 and ie < 0 and be < 0 and ei < 0 and eb < 0
    if name == "touches":
        return ii < 0 and (ib >= 0 or bi >= 0 or bb >= 0)
    if name == "crosses":
        if fa < fb:
            return ii >= 0 and ie >= 0
        if fa > fb:
            return ii >= 0 and ei >= 0
        if fa == 1:
            return ii == 0
        return False
    if name == "overlaps":
        if fa != fb:
            return False
        if fa == 1:
            return ii == 1 and ie >= 0 and ei >= 0
        return ii >= 0 and ie >= 0 and ei >= 0
    raise ValueError(f"unknown predicate {name!r}")


PREDICATES = ("intersects", "disjoint", "within", "contains", "covers",
              "covered_by", "equals", "touches", "crosses", "overlaps")


def predicate(ga: GeometryArray, gb: GeometryArray, name: str,
              vertex_budget=None) -> np.ndarray:
    """Row-aligned boolean predicate derived from the DE-9IM matrix
    (False where either side is missing, matching shapely's None rule)."""
    if name not in PREDICATES:
        raise ValueError(f"unknown predicate {name!r} (one of {PREDICATES})")
    if len(ga) != len(gb):
        raise ValueError("predicate requires aligned columns")
    M, valid = _matrix_table(ga, gb, vertex_budget)
    ii, ib, ie = M[:, 0], M[:, 1], M[:, 2]
    bi, bb, be = M[:, 3], M[:, 4], M[:, 5]
    ei, eb = M[:, 6], M[:, 7]
    boundary_hits = (ii >= 0) | (ib >= 0) | (bi >= 0) | (bb >= 0)
    if name == "disjoint":
        out = ~boundary_hits
    elif name == "intersects":
        out = boundary_hits
    elif name == "within":
        out = (ii >= 0) & (ie < 0) & (be < 0)
    elif name == "contains":
        out = (ii >= 0) & (ei < 0) & (eb < 0)
    elif name == "covers":
        out = boundary_hits & (ei < 0) & (eb < 0)
    elif name == "covered_by":
        out = boundary_hits & (ie < 0) & (be < 0)
    elif name == "equals":
        out = (ii >= 0) & (ie < 0) & (be < 0) & (ei < 0) & (eb < 0)
    elif name == "touches":
        out = (ii < 0) & ((ib >= 0) | (bi >= 0) | (bb >= 0))
    else:
        fam = np.vectorize(_family, otypes=[np.int64])
        fa = fam(ga.types)
        fb = fam(gb.types)
        if name == "crosses":
            out = (((fa < fb) & (ii >= 0) & (ie >= 0))
                   | ((fa > fb) & (ii >= 0) & (ei >= 0))
                   | ((fa == fb) & (fa == 1) & (ii == 0)))
        else:  # overlaps
            out = (fa == fb) & (ie >= 0) & (ei >= 0) & np.where(
                fa == 1, ii == 1, ii >= 0)
    return out & valid
