"""ST_Split / shapely ``split``: split a geometry by a blade.

- line split by line: the line is noded against the blade and cut at
  every crossing, rejoined elsewhere — chains walk through degree-2
  nodes UNLESS the node lies on the blade.
- line split by point(s): cut exactly where a blade point lies on the
  line (within 1 ulp-scale of collinearity, shapely's exact contract).
- polygon split by line: the faces of ``polygonize(boundary + blade)``
  that lie inside the polygon — the arrangement machinery does the
  cutting, and each face is classified by a probe point that is
  GUARANTEED interior (the centroid of the largest triangle of the
  face's triangulation, never a boundary-midpoint guess).

shapely returns a GeometryCollection of the parts; this engine rejects
collections (reference parity), so parts come back as a MULTI geometry
of the input's dimension. A blade that misses returns the input as its
single part.
"""

from __future__ import annotations

from collections import defaultdict

from geopolars_ray.geom.overlay import CLIPPING, SUBJECT, _point_in_even_odd, node_segments
from geopolars_ray.geom.polygonize import _segments_of, polygonize_geoms
from geopolars_ray.geom.triangulate import triangulate_polygon_rings

_EPS = 1e-12


def _split_line_by_points(g, pts):
    """Insert blade points lying ON the path, then cut there."""
    paths = [g[1]] if g[0] == "linestring" else [list(p) for p in g[1]]
    out = []
    for path in paths:
        cur = [tuple(map(float, path[0]))]
        for k in range(len(path) - 1):
            a = tuple(map(float, path[k]))
            b = tuple(map(float, path[k + 1]))
            scale = max(abs(a[0]), abs(a[1]), abs(b[0]), abs(b[1]), 1.0)
            hits = []
            for px, py in pts:
                dx, dy = b[0] - a[0], b[1] - a[1]
                cross = dx * (py - a[1]) - dy * (px - a[0])
                if abs(cross) > _EPS * scale * max(abs(dx), abs(dy), 1.0):
                    continue
                L2 = dx * dx + dy * dy
                if L2 == 0:
                    continue
                t = ((px - a[0]) * dx + (py - a[1]) * dy) / L2
                if 0.0 < t < 1.0:
                    hits.append((t, (float(px), float(py))))
            for _t, p in sorted(hits):
                cur.append(p)
                out.append(cur)
                cur = [p]
            cur.append(b)
            # cutting AT an interior vertex: blade point equals b
            if k < len(path) - 2 and any(
                    (float(px), float(py)) == b for px, py in pts):
                out.append(cur)
                cur = [b]
        out.append(cur)
    out = [p for p in out if len(p) >= 2]
    return ("multilinestring", out) if out else None


def _split_line_by_line(g, blade):
    gsegs = [(p, q, SUBJECT) for p, q, _ in _segments_of([g])]
    bsegs = [(p, q, CLIPPING) for p, q, _ in _segments_of([blade])]
    if not gsegs:
        return None
    groups = node_segments(gsegs + bsegs)
    mine = [(p, q) for p, q, m_s, m_c in groups if m_s > 0]
    blade_nodes = set()
    for p, q, m_s, m_c in groups:
        if m_c > 0:
            blade_nodes.add(p)
            blade_nodes.add(q)
    # chain my pieces through degree-2 nodes NOT on the blade
    node: dict = defaultdict(list)
    for i, (p, q) in enumerate(mine):
        node[p].append(i)
        node[q].append(i)
    used = [False] * len(mine)
    chains = []
    for i0 in sorted(range(len(mine)), key=lambda i: mine[i]):
        if used[i0]:
            continue
        used[i0] = True
        chain = list(mine[i0])
        for direction in (1, 0):
            while True:
                tip = chain[-1] if direction else chain[0]
                if tip in blade_nodes or len(node[tip]) != 2:
                    break
                nxt = [j for j in node[tip] if not used[j]]
                if len(nxt) != 1:
                    break
                j = nxt[0]
                used[j] = True
                p, q = mine[j]
                ext = q if p == tip else p
                if direction:
                    chain.append(ext)
                else:
                    chain.insert(0, ext)
        chains.append(chain)
    return ("multilinestring", chains) if chains else None


def _face_probe(rings):
    """A point STRICTLY inside the face: centroid of the largest
    triangle of its triangulation."""
    tris = triangulate_polygon_rings(rings, delaunay=False)
    best, best_a = None, -1.0
    for a, b, c in tris:
        ar = abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
        if ar > best_a:
            best_a = ar
            best = ((a[0] + b[0] + c[0]) / 3.0, (a[1] + b[1] + c[1]) / 3.0)
    return best


def _split_polygon_by_line(g, blade):
    polys = [g[1]] if g[0] == "polygon" else g[1]
    boundary = []
    src_rings = []
    for rings in polys:
        for r in rings:
            rr = [tuple(map(float, p)) for p in r]
            if len(rr) > 1 and rr[0] == rr[-1]:
                rr = rr[:-1]
            src_rings.append(rr)
            boundary.append(("linearring", rr))
    faces = polygonize_geoms(boundary + [blade])
    keep = []
    for f in faces:
        probe = _face_probe(f[1])
        if probe is not None and _point_in_even_odd(probe[0], probe[1], src_rings):
            keep.append(f[1])
    return ("multipolygon", keep) if keep else None


def split_pair(g, blade):
    """Split one geometry by one blade (see module docstring)."""
    if g is None:
        return None
    if blade is None:
        return _as_multi(g)
    gt = g[0]
    bt = blade[0]
    if gt in ("linestring", "multilinestring"):
        if bt == "point":
            return _split_line_by_points(g, [blade[1]])
        if bt == "multipoint":
            return _split_line_by_points(g, list(blade[1]))
        if bt in ("linestring", "multilinestring", "linearring"):
            return _split_line_by_line(g, blade)
        raise TypeError(f"cannot split a line by {bt!r}")
    if gt in ("polygon", "multipolygon"):
        if bt in ("linestring", "multilinestring", "linearring"):
            return _split_polygon_by_line(g, blade)
        raise TypeError(f"cannot split a polygon by {bt!r} (line blades only)")
    raise TypeError(f"split supports line/polygon inputs, got {gt!r}")


def _as_multi(g):
    if g[0] == "linestring":
        return ("multilinestring", [g[1]])
    if g[0] == "polygon":
        return ("multipolygon", [g[1]])
    return g


def split_arrays(lhs, rhs):
    """Row-wise split of a geometry column by an aligned blade column."""
    from geopolars_ray.geom.array import GeometryArray

    out = [split_pair(g, h)
           for g, h in zip(lhs.to_pylist(), rhs.to_pylist())]
    return GeometryArray.from_pylist(out)
