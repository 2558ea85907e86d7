"""OGC validity checking: ``is_valid`` / ``is_valid_reason`` (ST_IsValid /
ST_IsValidReason, shapely ``is_valid`` / ``is_valid_reason``).

The reference has no validity op (GeoPolars delegates geometry semantics to
the `geo` crate and never exposes GEOS IsValidOp); pipelines need it
constantly — "drop invalid polygons before the spatial join" is a standard
cleaning stage. Checks implemented, in GEOS reason priority:

- **Invalid Coordinate**: a NaN or infinite vertex, decided for every row
  before any other check (a POINT whose x and y are both NaN is POINT
  EMPTY, which is valid).
- **Too few points in geometry component**: any polygon ring with fewer
  than 4 points once closed (consecutive duplicates collapsed first), or a
  line part with fewer than 2 distinct points.
- **Ring Self-intersection**: a repeated non-consecutive vertex within one
  ring (figure-8 self-touch), or a noding vertex created by one ring's own
  segments.
- **Self-intersection**: the snap-rounded arrangement (`overlay.node_segments`
  — the same fixed-point noding the boolean overlay uses) introduces a
  vertex not present in the input, or leaves a multiplicity-2 group
  (collinear overlapping edges between rings).
- **Hole lies outside shell** / **Holes are nested** / **Nested shells**:
  even-odd probe-point containment, probing a vertex (or edge midpoint)
  not shared with the other ring so single-point touches stay valid.

Documented deltas vs GEOS IsValidOp: intersections are detected at the
overlay engine's snap tolerance (~1e-12 relative) rather than with exact
arithmetic, and the "Interior is disconnected" error (a hole chain touching
the shell at two points) is NOT detected — such polygons pass. Points,
lines and multipoints are valid whenever parts have enough coordinates,
matching GEOS (a self-crossing LineString IS valid).

Fast path (filter and refine): ``simple_ring_mask`` is one batched NumPy
test, built from the offsets with no per-row Python, that decides the
common row before any noding. It passes a POLYGON with one closed ring
of 3 to ``_PAIR_CHUNK`` points, finite coordinates, no edge shorter than
the margin, non-zero area, no two non-adjacent edges crossing or closer
than the margin, and each adjacent edge's far endpoint farther than the
margin from the other edge. The margin is ``_MARGIN_RTOL`` = 10^6 x
``overlay._SNAP_RTOL`` times the row's own scale, max(1, max |coordinate|),
as ``node_segments`` computes it. For a passing row the noding can add no
vertex and neither snap, split nor divide an edge, so the exact checks
would return ``"Valid Geometry"``: ``is_valid_reason`` returns it without
running them, and runs ``_check_polygonal`` only on the other rows.
``overlay.make_valid_arrays`` uses the same mask. The decision depends on
the row alone, so results do not depend on how rows are batched, and the
output is bit-identical to the exact path's.
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
    _expand_ranges,
)
from geopolars_ray.geom.overlay import (
    _SNAP_RTOL,
    SUBJECT,
    _point_in_even_odd,
    _point_in_ring,
    _point_on_path,
    node_segments,
)

VALID = "Valid Geometry"

# The prefilter's margin, relative to a row's coordinate scale (computed as
# ``node_segments`` computes it). It is 10^6 snap tolerances: the noding
# snaps and splits only within one tolerance, and its float crossing test
# errs by orders of magnitude less than the margin.
_MARGIN_RTOL = 1.0e6 * _SNAP_RTOL
# Edge pairs the prefilter tests at once, which bounds its temporaries.
# A ring with more vertices than this takes the exact path.
_PAIR_CHUNK = 1 << 16
# Above this coordinate scale the squared differences could overflow.
_MAX_SCALE = 1.0e150


def _ring_cycles(ga: GeometryArray, rows: np.ndarray):
    """Open vertex cycle (closing point dropped) of the single ring of each
    row in ``rows``: flat (v, 2) coords, int64[len(rows)+1] offsets, and
    the index of each vertex's successor around its ring."""
    ring = ga.part_offsets[ga.geom_offsets[rows]]
    start = ga.ring_offsets[ring]
    stop = ga.ring_offsets[ring + 1] - 1
    voff = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(stop - start, out=voff[1:])
    nxt = np.arange(1, voff[-1] + 1, dtype=np.int64)
    nxt[voff[1:] - 1] = voff[:-1]
    return ga.coords[_expand_ranges(start, stop)], voff, nxt


def _seg_dist2(px, py, ax, ay, bx, by):
    """Squared distance from points (px, py) to segments a-b."""
    dx = bx - ax
    dy = by - ay
    t = np.clip(((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy), 0.0, 1.0)
    ex = ax + t * dx - px
    ey = ay + t * dy - py
    return ex * ex + ey * ey


def _orient_sign(ax, ay, bx, by, px, py):
    """Side of line a-b that points (px, py) are on: 1 left, -1 right."""
    return np.sign((bx - ax) * (py - ay) - (by - ay) * (px - ax))


def _pairs_clear(V, voff, nxt, margin2) -> np.ndarray:
    """Per ring: True when no two non-adjacent edges cross or come within
    the margin, and each adjacent edge's far endpoint is farther than the
    margin from the other edge. Pairs are generated per edge (edge i with
    edges i+1..k-1 of its ring) and tested in chunks of ``_PAIR_CHUNK``."""
    nrows = len(voff) - 1
    k = np.diff(voff)
    row_of = np.repeat(np.arange(nrows), k)
    last = voff[1:][row_of] - 1
    cnt = last - np.arange(len(V))
    cum = np.cumsum(cnt)
    x, y = V[:, 0], V[:, 1]
    nx, ny = x[nxt], y[nxt]
    clear = np.ones(nrows, dtype=bool)
    e0 = 0
    while e0 < len(V):
        base = cum[e0 - 1] if e0 else 0
        e1 = max(e0 + 1, int(np.searchsorted(cum, base + _PAIR_CHUNK, side="right")))
        c = cnt[e0:e1]
        ea = np.repeat(np.arange(e0, e1), c)
        head = np.repeat(np.cumsum(c) - c, c)
        eb = ea + 1 + (np.arange(len(ea)) - head)
        ax, ay, bx, by = x[ea], y[ea], nx[ea], ny[ea]
        cx, cy, dx, dy = x[eb], y[eb], nx[eb], ny[eb]
        # edge b's endpoints against edge a, and a's against b
        d_c = _seg_dist2(cx, cy, ax, ay, bx, by)
        d_d = _seg_dist2(dx, dy, ax, ay, bx, by)
        d_a = _seg_dist2(ax, ay, cx, cy, dx, dy)
        d_b = _seg_dist2(bx, by, cx, cy, dx, dy)
        # the shared vertex of an adjacent pair is not a contact
        fwd = eb == ea + 1                          # a's end is b's start
        wrap = eb - ea == k[row_of[ea]] - 1          # b's end is a's start
        d_c[fwd] = np.inf
        d_b[fwd] = np.inf
        d_d[wrap] = np.inf
        d_a[wrap] = np.inf
        # written as '>' so a NaN distance counts as a contact
        apart = np.minimum(np.minimum(d_c, d_d), np.minimum(d_a, d_b)) > margin2[row_of[ea]]
        cross = ((_orient_sign(ax, ay, bx, by, cx, cy) * _orient_sign(ax, ay, bx, by, dx, dy) < 0)
                 & (_orient_sign(cx, cy, dx, dy, ax, ay) * _orient_sign(cx, cy, dx, dy, bx, by) < 0))
        clear[row_of[ea[~apart | cross]]] = False
        e0 = e1
    return clear


def simple_ring_mask(ga: GeometryArray) -> np.ndarray:
    """bool[n]: rows that are certainly valid simple rings, decided from
    the row alone (so the answer does not depend on the batch).

    A row passes only when it is a POLYGON with one closed ring of 3 to
    ``_PAIR_CHUNK`` points (after dropping the closing point), finite
    coordinates below ``_MAX_SCALE``, no edge shorter than the margin (so
    no consecutive duplicates), non-zero area, no two non-adjacent edges
    crossing or within the margin of each other, and each adjacent edge's
    far endpoint farther than the margin from the other edge. The
    margin is ``_MARGIN_RTOL`` (10^6 x ``overlay._SNAP_RTOL``) times the
    row's scale max(1, max |coordinate|), the scale ``node_segments``
    uses. For such a row the noding divides, snaps and splits nothing, so
    its groups are exactly the ring's own edges: ``_check_polygonal``
    returns ``VALID`` and ``make_valid_geom`` traces those edges. Rows that
    fail are not necessarily invalid; they take the exact path."""
    out = np.zeros(len(ga), dtype=bool)
    go, po, ro = ga.geom_offsets, ga.part_offsets, ga.ring_offsets
    rows = np.flatnonzero((ga.types == POLYGON) & (go[1:] - go[:-1] == 1))
    rows = rows[po[go[rows] + 1] - po[go[rows]] == 1]
    ring = po[go[rows]]
    k = ro[ring + 1] - ro[ring] - 1
    keep = (k >= 3) & (k <= _PAIR_CHUNK)
    rows, ring = rows[keep], ring[keep]
    closed = (ga.coords[ro[ring]] == ga.coords[ro[ring + 1] - 1]).all(axis=1)
    rows = rows[closed]
    if not len(rows):
        return out
    V, voff, nxt = _ring_cycles(ga, rows)
    starts = voff[:-1]
    with np.errstate(invalid="ignore", over="ignore"):
        e = V[nxt] - V
        # NaN and inf give a scale that fails the bound
        scale = np.maximum(1.0, np.maximum.reduceat(np.abs(V).max(axis=1), starts))
        margin2 = (_MARGIN_RTOL * scale) ** 2
        # an edge no longer than the margin (a consecutive duplicate too)
        short = np.logical_or.reduceat(
            ~((e * e).sum(axis=1) > np.repeat(margin2, np.diff(voff))), starts)
        area2 = np.add.reduceat(V[:, 0] * e[:, 1] - e[:, 0] * V[:, 1], starts)
    ok = (scale <= _MAX_SCALE) & ~short & (area2 != 0)
    rows, margin2 = rows[ok], margin2[ok]
    if not len(rows):
        return out
    V, voff, nxt = _ring_cycles(ga, rows)
    out[rows[_pairs_clear(V, voff, nxt, margin2)]] = True
    return out


def _clean_closed(ring: np.ndarray) -> np.ndarray:
    """Drop the closing duplicate and consecutive repeats; returns the
    open vertex cycle."""
    r = ring
    if len(r) >= 2 and (r[0] == r[-1]).all():
        r = r[:-1]
    if len(r) >= 2:
        keep = np.ones(len(r), dtype=bool)
        keep[1:] = (r[1:] != r[:-1]).any(axis=1)
        r = r[keep]
    return r


def _rings_of_row(ga: GeometryArray, i: int) -> list[list[np.ndarray]]:
    """Rings of polygonal row i, grouped per part: [[shell, hole...], ...]."""
    out = []
    for p in range(int(ga.geom_offsets[i]), int(ga.geom_offsets[i + 1])):
        part = []
        for r in range(int(ga.part_offsets[p]), int(ga.part_offsets[p + 1])):
            part.append(ga.coords[ga.ring_offsets[r]:ga.ring_offsets[r + 1]])
        out.append(part)
    return out


def _probe_off(ring: np.ndarray, others: list) -> tuple[float, float] | None:
    """A point of ``ring`` that does NOT lie on the boundary of ANY ring
    in ``others``: first such vertex, else the first edge midpoint off
    all of them (valid single-point touches — at a vertex or interior to
    an edge — must not decide containment). None when every sample
    touches (boundary fully shared; the arrangement check already
    rejected any OVERLAP, so such configurations are not containment
    violations)."""
    for k in range(len(ring)):
        px, py = float(ring[k, 0]), float(ring[k, 1])
        if not any(_point_on_path(px, py, o, closed=True) for o in others):
            return (px, py)
    n = len(ring)
    for k in range(n):
        px = (float(ring[k, 0]) + float(ring[(k + 1) % n, 0])) / 2.0
        py = (float(ring[k, 1]) + float(ring[(k + 1) % n, 1])) / 2.0
        if not any(_point_on_path(px, py, o, closed=True) for o in others):
            return (px, py)
    return None


def _ring_vertex_on_edge(r: np.ndarray):
    """A vertex of the closed cycle ``r`` lying on the INTERIOR of a
    non-incident edge of the same ring (T-junction self-touch — the
    arrangement check cannot see it: splitting an edge at an EXISTING
    same-ring vertex creates no new vertex and no multiplicity).
    Exact collinear + bbox test, vertex-chunked; None if clean."""
    n = len(r)
    a = r
    b = np.roll(r, -1, axis=0)
    chunk = max(1, 4_000_000 // max(n, 1))
    for lo in range(0, n, chunk):
        V = r[lo:lo + chunk]
        cross = ((b[None, :, 0] - a[None, :, 0]) * (V[:, None, 1] - a[None, :, 1])
                 - (b[None, :, 1] - a[None, :, 1]) * (V[:, None, 0] - a[None, :, 0]))
        inbox = ((V[:, None, 0] >= np.minimum(a[None, :, 0], b[None, :, 0]))
                 & (V[:, None, 0] <= np.maximum(a[None, :, 0], b[None, :, 0]))
                 & (V[:, None, 1] >= np.minimum(a[None, :, 1], b[None, :, 1]))
                 & (V[:, None, 1] <= np.maximum(a[None, :, 1], b[None, :, 1])))
        hit = (cross == 0.0) & inbox
        rows = np.arange(len(V))
        vi = np.arange(lo, lo + len(V))
        hit[rows, vi % n] = False          # edge starting at the vertex
        hit[rows, (vi - 1) % n] = False    # edge ending at the vertex
        if hit.any():
            i, _k = np.argwhere(hit)[0]
            return (float(V[i, 0]), float(V[i, 1]))
    return None


def _check_polygonal(parts: list[list[np.ndarray]]) -> str:
    # 1. ring shape + intra-ring repeated vertices + T-junction self-touch
    cleaned: list[list[np.ndarray]] = []
    for part in parts:
        cp = []
        for ring in part:
            r = _clean_closed(ring)
            if len(r) < 3:
                return (f"Too few points in geometry component"
                        f"[{ring[0, 0]:g} {ring[0, 1]:g}]" if len(ring) else
                        "Too few points in geometry component")
            uniq, cnt = np.unique(r, axis=0, return_counts=True)
            if (cnt > 1).any():
                d = uniq[cnt > 1][0]
                return f"Ring Self-intersection[{d[0]:g} {d[1]:g}]"
            tj = _ring_vertex_on_edge(r)
            if tj is not None:
                return f"Ring Self-intersection[{tj[0]:g} {tj[1]:g}]"
            cp.append(r)
        cleaned.append(cp)

    # 2. arrangement: new vertices or overlapping edges = self-intersection
    segments = []
    in_verts: set[tuple[float, float]] = set()
    for part in cleaned:
        for r in part:
            for k in range(len(r)):
                p = (float(r[k, 0]), float(r[k, 1]))
                q = (float(r[(k + 1) % len(r), 0]), float(r[(k + 1) % len(r), 1]))
                in_verts.add(p)
                segments.append((p, q, SUBJECT))
    groups = node_segments(segments)
    for p, q, m_s, _m_c in groups:
        if m_s > 1:
            return f"Self-intersection[{p[0]:g} {p[1]:g}]"
        for v in (p, q):
            if v not in in_verts:
                return f"Self-intersection[{v[0]:g} {v[1]:g}]"

    # 3. containment rules (single-point touches already proven by the
    # arrangement to be the only contacts). Probes are chosen off EVERY
    # ring they are tested against — a probe sitting exactly on a tested
    # ring has ambiguous even-odd parity (found as a real false-positive:
    # a shell inside a hole, touching that hole at one vertex).
    for part in cleaned:
        shell = part[0]
        for hi in range(1, len(part)):
            hole = part[hi]
            probe = _probe_off(hole, [shell])
            if probe is not None and not _point_in_ring(probe[0], probe[1], shell):
                return f"Hole lies outside shell[{probe[0]:g} {probe[1]:g}]"
            for hj in range(1, len(part)):
                if hj == hi:
                    continue
                other = part[hj]
                probe2 = _probe_off(hole, [other])
                if probe2 is not None and _point_in_ring(probe2[0], probe2[1], other):
                    return f"Holes are nested[{probe2[0]:g} {probe2[1]:g}]"
    for pi in range(len(cleaned)):
        for pj in range(len(cleaned)):
            if pi == pj:
                continue
            shell_i = cleaned[pi][0]
            # off the WHOLE element pj, then even-odd over ALL its rings:
            # "inside the element's region" directly (a shell sitting in
            # pj's hole is fine; inside its filled region is not)
            probe = _probe_off(shell_i, cleaned[pj])
            if probe is not None and _point_in_even_odd(probe[0], probe[1], cleaned[pj]):
                return f"Nested shells[{probe[0]:g} {probe[1]:g}]"
    return VALID


def _check_lineal(ga: GeometryArray, i: int) -> str:
    for p in range(int(ga.geom_offsets[i]), int(ga.geom_offsets[i + 1])):
        for r in range(int(ga.part_offsets[p]), int(ga.part_offsets[p + 1])):
            c = ga.coords[ga.ring_offsets[r]:ga.ring_offsets[r + 1]]
            if len(c) >= 2:
                distinct = len(np.unique(c, axis=0))
            else:
                distinct = len(c)
            if distinct < 2:
                loc = (f"[{c[0, 0]:g} {c[0, 1]:g}]" if len(c) else "")
                return f"Too few points in geometry component{loc}"
    return VALID


def _invalid_coordinates(ga: GeometryArray) -> dict[int, str]:
    """``Invalid Coordinate[x y]`` at the first NaN or infinite vertex of
    each row that has one; an all-NaN point is POINT EMPTY, not invalid."""
    c = ga.coords
    bad = ~np.isfinite(c).all(axis=1)
    if not bad.any():
        return {}
    row = np.repeat(np.arange(len(ga)), np.diff(ga.coord_offsets()))
    bad &= ~(np.isnan(c).all(axis=1) & np.isin(ga.types[row], (POINT, MULTIPOINT)))
    idx = np.flatnonzero(bad)
    rows, first = np.unique(row[idx], return_index=True)
    return {int(r): f"Invalid Coordinate[{c[k, 0]:g} {c[k, 1]:g}]"
            for r, k in zip(rows, idx[first])}


def is_valid_reason(ga: GeometryArray) -> list:
    """GEOS ``isValidReason`` per row: ``"Valid Geometry"`` or the first
    violated rule with its location, None for missing rows."""
    out: list = []
    fast = simple_ring_mask(ga)
    invalid_coord = _invalid_coordinates(ga)
    for i in range(len(ga)):
        t = int(ga.types[i])
        if i in invalid_coord:
            out.append(invalid_coord[i])
        elif fast[i]:
            out.append(VALID)
        elif t == MISSING:
            out.append(None)
        elif t in (POINT, MULTIPOINT):
            out.append(VALID)
        elif t in (LINESTRING, LINEARRING, MULTILINESTRING):
            out.append(_check_lineal(ga, i))
        else:
            out.append(_check_polygonal(_rings_of_row(ga, i)))
    return out


def is_valid(ga: GeometryArray) -> np.ndarray:
    """Boolean validity per row (False for missing, matching shapely's
    ``is_valid`` on None)."""
    reasons = is_valid_reason(ga)
    return np.array([r == VALID for r in reasons], dtype=bool)
