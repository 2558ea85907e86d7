"""Spatial indexes: packed STR-tree, uniform grid index, point-in-polygon.

Reimplements the role of the reference's ``SpatialIndex`` — an rstar R-tree
over ``(row_index, envelope)`` nodes
(``/root/reference/geopolars/src/spatial_index.rs:278-350``) — as NumPy
structures that are cheap to pickle (so one index object can be built on the
driver, ``ray.put`` once, and hydrated in every join actor).

Two indexes, two roles:

- :class:`STRTree` — packed (bulk-loaded, Sort-Tile-Recursive) R-tree over
  envelopes; generic bbox queries; reproduces the reference's envelope-query
  fixtures (`spatial_index.rs:361-430`).
- :class:`GridIndex` — uniform grid over the envelopes; the hot-path
  candidate generator for point-in-polygon joins (candidate lookup for a
  whole batch of points is pure vectorized indexing, no per-point tree walk).

Exact refinement: :class:`PreparedPolygons` holds the engine's one vectorised
point-in-polygon kernel (:meth:`PreparedPolygons.parity_on`, over (pair x
edge) arrays). Its containment is boundary-*exclusive* (even-odd crossing
parity minus on-boundary points), matching the geo crate's ``contains``
behavior that the reference's golden join fixture depends on
(boundary-touching points do NOT match — `spatial_index.rs:479-480`,
FIXTURES.md F5). :func:`points_in_polygon_single` is its one-polygon call.

:meth:`STRTree.query_boxes` is the tree's one query path: every (query,
node) pair descends one level at a time; ``query_box`` is its one-box call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from geopolars_ray.geom.array import POLYGON, GeometryArray, _expand_cell_rects, _expand_ranges
from geopolars_ray.geom import kernels

_NODE_CAP = 16


# --------------------------------------------------------------------------
# point-in-polygon refinement
# --------------------------------------------------------------------------


# pair x edge elements one kernel block holds: bounds the temporaries of
# PreparedPolygons.parity_on / _near (about ten float64 / bool arrays of
# this length), whatever the point count or polygon size
_PAIR_EDGE_BLOCK = 1 << 20
# the bbox prefilter pads each box by this share of its largest coordinate
# (plus the distance): far above the few-ulp rounding of the exact tests,
# so it can never drop a pair the exact test keeps
_BBOX_SLACK = 1e-9


def _pair_blocks(starts: np.ndarray, stops: np.ndarray):
    """Pairs with a non-empty [start, stop) edge range, in blocks of at most
    ``_PAIR_EDGE_BLOCK`` pair x edge elements (a larger single pair gets a
    block of its own).

    Yields ``(pairs, counts, edges, heads)``: the pair ids, their edge
    counts, the edge ids pair-major, and each pair's first element, so
    ``ufunc.reduceat(values, heads)`` reduces per pair."""
    counts = stops - starts
    nz = np.flatnonzero(counts > 0)
    if not len(nz):
        return
    cum = np.cumsum(counts[nz])
    cuts = np.searchsorted(cum, np.arange(_PAIR_EDGE_BLOCK, int(cum[-1]), _PAIR_EDGE_BLOCK), side="right")
    ends = [0, *cuts.tolist(), len(nz)]
    for lo, hi in zip(ends[:-1], ends[1:]):
        if lo == hi:
            continue
        pairs = nz[lo:hi]
        c = counts[pairs]
        heads = np.zeros(len(c), dtype=np.int64)
        np.cumsum(c[:-1], out=heads[1:])
        yield pairs, c, _expand_ranges(starts[pairs], stops[pairs]), heads


def points_in_polygon_single(px: np.ndarray, py: np.ndarray, rings: list[np.ndarray]) -> np.ndarray:
    """Boundary-exclusive containment of points in one (multi)polygon.

    Even-odd parity across ALL rings (exterior(s) + holes of every part), so
    holes and disjoint parts fall out of the parity automatically. The
    one-polygon call of :meth:`PreparedPolygons.parity_on`. No library code
    calls it: the batched kernels call ``parity_on`` over (point, polygon)
    pairs, and a caller testing many points against one polygon builds it
    once and calls :meth:`PreparedPolygons.hits`. ``perfbench/trace.py``
    wraps it by name (its ``pip_calls`` counter).
    """
    px = np.asarray(px, dtype=np.float64)
    parity, on = PreparedPolygons.from_polygons([rings]).parity_on(px, py, np.zeros(len(px), dtype=np.int64))
    return parity & ~on


@dataclass
class PreparedPolygons:
    """Pickle-friendly polygon set for repeated containment tests.

    Built once (by the caller or in an actor's ``__init__``) from a polygon
    GeometryArray or from ring lists; per-polygon ring slices are stored as
    flat arrays. The edge tables the kernels read are built on first use
    and kept with the object.
    """

    n: int
    ring_coords: np.ndarray  # (c, 2)
    ring_offsets: np.ndarray  # int64[R+1]
    rings_per_poly_offsets: np.ndarray  # int64[n+1] -> ring range of polygon i
    bounds: np.ndarray  # (n, 4) xmin ymin xmax ymax

    @classmethod
    def from_geometry_array(cls, ga: GeometryArray) -> "PreparedPolygons":
        xmin, ymin, xmax, ymax = kernels.bounds(ga)
        ring_range = ga.part_offsets[ga.geom_offsets]  # ring span per geometry
        return cls(
            n=len(ga),
            ring_coords=ga.coords,
            ring_offsets=ga.ring_offsets,
            rings_per_poly_offsets=ring_range,
            bounds=np.column_stack([xmin, ymin, xmax, ymax]),
        )

    @classmethod
    def from_polygons(cls, polygons: list[list[np.ndarray]]) -> "PreparedPolygons":
        """One polygon per entry of ``polygons``, each a list of (m, 2)
        rings: shell(s) and holes in any order, as containment is even-odd
        over all of them."""
        rings = [np.asarray(r, dtype=np.float64).reshape(-1, 2) for p in polygons for r in p]
        return cls.from_geometry_array(GeometryArray(
            types=np.full(len(polygons), POLYGON),
            geom_offsets=np.arange(len(polygons) + 1),
            part_offsets=np.cumsum([0] + [len(p) for p in polygons]),
            ring_offsets=np.cumsum([0] + [len(r) for r in rings]),
            coords=np.concatenate(rings) if rings else np.empty((0, 2)),
        ))

    def _rings(self, min_len: int):
        """(polygon, start, stop) of every ring with >= ``min_len`` coords,
        in polygon order."""
        rpo = self.rings_per_poly_offsets
        ring = _expand_ranges(rpo[:-1], rpo[1:])
        poly = np.repeat(np.arange(self.n, dtype=np.int64), rpo[1:] - rpo[:-1])
        start, stop = self.ring_offsets[ring], self.ring_offsets[ring + 1]
        ok = stop - start >= min_len
        return poly[ok], start[ok], stop[ok]

    def _edge_offsets(self, poly: np.ndarray, per_ring: np.ndarray) -> np.ndarray:
        off = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(poly, weights=per_ring, minlength=self.n).astype(np.int64), out=off[1:])
        return off

    @cached_property
    def _pip_edges(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """The edges ``parity_on`` tests, CSR by polygon: rings of >= 3
        coords, an open ring closed by an extra last edge, with their
        per-edge terms."""
        poly, start, stop = self._rings(3)
        c = self.ring_coords
        is_open = ~(c[start] == c[stop - 1]).all(axis=1)
        n_edges = stop - start - 1 + is_open
        a = _expand_ranges(start, start + n_edges)
        b = a + 1
        wrap = b == np.repeat(stop, n_edges)
        b[wrap] = np.repeat(start, n_edges)[wrap]
        x1, y1, x2, y2 = c[a, 0], c[a, 1], c[b, 0], c[b, 1]
        edges = dict(
            x1=x1, y1=y1, y2=y2, dx=x2 - x1, dy=y2 - y1,
            den=np.where(y2 == y1, 1.0, y2 - y1),
            xlo=np.minimum(x1, x2), xhi=np.maximum(x1, x2),
            ylo=np.minimum(y1, y2), yhi=np.maximum(y1, y2),
        )
        return self._edge_offsets(poly, n_edges), edges

    @cached_property
    def _dwithin_segments(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """The segments ``_near`` measures, CSR by polygon: rings of >= 2
        coords, open rings left open."""
        poly, start, stop = self._rings(2)
        c = self.ring_coords
        a = _expand_ranges(start, stop - 1)
        ax, ay = c[a, 0], c[a, 1]
        dvx, dvy = c[a + 1, 0] - ax, c[a + 1, 1] - ay
        L2 = dvx**2 + dvy**2
        segs = dict(ax=ax, ay=ay, dvx=dvx, dvy=dvy, den=np.where(L2 == 0, 1, L2))
        return self._edge_offsets(poly, stop - start - 1), segs

    def parity_on(self, x: np.ndarray, y: np.ndarray, poly: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The containment kernel: ``(parity, on)`` per pair k of point
        ``(x[k], y[k])`` and polygon ``poly[k]``.

        ``parity`` is the even-odd count of the polygon's edges that a
        rightward ray from the point crosses (half-open in y, so a vertex
        counts once); ``on`` is whether the point lies on an edge. Both
        run over every ring of >= 3 coords, an open ring closed by an extra
        edge; an edge with a NaN coordinate crosses and touches nothing.
        Boundary-exclusive containment is ``parity & ~on``. The work runs
        over (pair x edge) arrays in blocks of ``_PAIR_EDGE_BLOCK``
        elements, reduced per pair."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        poly = np.asarray(poly, dtype=np.int64)
        off, e = self._pip_edges
        parity = np.zeros(len(poly), dtype=bool)
        on = np.zeros(len(poly), dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for pairs, counts, k, heads in _pair_blocks(off[poly], off[poly + 1]):
                X = np.repeat(x[pairs], counts)
                Y = np.repeat(y[pairs], counts)
                y1 = e["y1"][k]
                dy_p = Y - y1
                # crossing test (half-open rule avoids double counting at vertices)
                cond = (y1 > Y) != (e["y2"][k] > Y)
                x1 = e["x1"][k]
                dx = e["dx"][k]
                x_at = dx * dy_p / e["den"][k] + x1
                parity[pairs] = np.logical_xor.reduceat(cond & (X < x_at), heads)
                # on-boundary test: colinear and within the segment bbox
                w = np.flatnonzero((X >= e["xlo"][k]) & (X <= e["xhi"][k])
                                   & (Y >= e["ylo"][k]) & (Y <= e["yhi"][k]))
                hit = np.zeros(len(k), dtype=bool)
                hit[w] = dx[w] * dy_p[w] - e["dy"][k[w]] * (X[w] - x1[w]) == 0.0
                on[pairs] = np.logical_or.reduceat(hit, heads)
        return parity, on

    def _near(self, x: np.ndarray, y: np.ndarray, poly: np.ndarray, distance: float) -> np.ndarray:
        """Whether pair k's point lies within ``distance`` of a boundary
        segment of polygon ``poly[k]``: the distance half of the kernel,
        over the same (pair x edge) blocks. It measures the segments of
        ``_dwithin_segments``, not the edges ``parity_on`` tests."""
        off, s = self._dwithin_segments
        out = np.zeros(len(poly), dtype=bool)
        for pairs, counts, k, heads in _pair_blocks(off[poly], off[poly + 1]):
            X = np.repeat(x[pairs], counts)
            Y = np.repeat(y[pairs], counts)
            ax, ay, dvx, dvy = s["ax"][k], s["ay"][k], s["dvx"][k], s["dvy"][k]
            t = np.clip(((X - ax) * dvx + (Y - ay) * dvy) / s["den"][k], 0.0, 1.0)
            dd2 = (X - (ax + t * dvx)) ** 2 + (Y - (ay + t * dvy)) ** 2
            out[pairs] = np.minimum.reduceat(dd2, heads) <= distance * distance
        return out

    def hits(self, x: np.ndarray, y: np.ndarray, poly: np.ndarray,
             distance: float | None = None) -> np.ndarray:
        """bool per pair k: whether point ``(x[k], y[k])`` matches polygon
        ``poly[k]``. ``distance=None`` is boundary-exclusive containment;
        ``distance >= 0`` is inside OR within ``distance`` of the boundary
        (0 included).

        A pair whose point lies outside the polygon's closed bbox (padded by
        ``distance`` and a rounding slack) is False without the exact test,
        which cannot change its answer: a point left of the box crosses
        each closed ring an even number of times."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        poly = np.asarray(poly, dtype=np.int64)
        pad = 0.0 if distance is None else float(distance)
        b = self.bounds
        # NaN bounds (or coords) compare False, so such pairs stay for the exact test
        slack = pad + _BBOX_SLACK * (np.abs(b).max(axis=1) + pad)
        lo_x, lo_y = (b[:, 0] - slack)[poly], (b[:, 1] - slack)[poly]
        hi_x, hi_y = (b[:, 2] + slack)[poly], (b[:, 3] + slack)[poly]
        cand = np.flatnonzero(~((x < lo_x) | (x > hi_x) | (y < lo_y) | (y > hi_y)))
        x, y, p = x[cand], y[cand], poly[cand]
        parity, on = self.parity_on(x, y, p)
        hit = parity & ~on
        if distance is not None:
            rest = np.flatnonzero(~hit)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                hit[rest] = self._near(x[rest], y[rest], p[rest], float(distance))
        out = np.zeros(len(poly), dtype=bool)
        out[cand] = hit
        return out

    def match(self, point_idx: np.ndarray, poly_idx: np.ndarray, px: np.ndarray, py: np.ndarray,
              distance: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Refine candidate (point, polygon) pairs: the matching pairs as
        ``(points, polys)``, with polygon ids ascending and, within a
        polygon, points in candidate order.

        ``px[point_idx[k]], py[point_idx[k]]`` is tested against polygon
        ``poly_idx[k]`` by ``hits`` (``distance`` as there), in one pass
        over all pairs."""
        point_idx = np.asarray(point_idx, dtype=np.int64)
        poly_idx = np.asarray(poly_idx, dtype=np.int64)
        x = np.asarray(px, dtype=np.float64)[point_idx]
        y = np.asarray(py, dtype=np.float64)[point_idx]
        keep = np.flatnonzero(self.hits(x, y, poly_idx, distance))
        keep = keep[np.argsort(poly_idx[keep], kind="stable")]
        return point_idx[keep], poly_idx[keep]


# --------------------------------------------------------------------------
# packed STR-tree
# --------------------------------------------------------------------------


class STRTree:
    """Packed Sort-Tile-Recursive R-tree over envelopes; NumPy arrays only.

    Bulk-loaded bottom-up: leaves are item envelopes sorted by STR (sort by
    center-x, tile into vertical slices, sort each slice by center-y); each
    internal level groups ``_NODE_CAP`` children. Query returns candidate item
    ids whose envelopes intersect the query box — the same contract as the
    reference's ``intersection_candidates_with_other_tree`` step
    (`spatial_index.rs:73-76`).
    """

    def __init__(self, boxes: np.ndarray):
        boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        self.n = len(boxes)
        valid = ~np.isnan(boxes).any(axis=1)
        idx = np.nonzero(valid)[0]
        b = boxes[idx]
        if len(b) == 0:
            self.item_ids = np.empty(0, dtype=np.int64)
            self.levels: list[np.ndarray] = []
            return
        cx = (b[:, 0] + b[:, 2]) / 2.0
        cy = (b[:, 1] + b[:, 3]) / 2.0
        n = len(b)
        n_slices = max(1, int(np.ceil(np.sqrt(np.ceil(n / _NODE_CAP)))))
        slice_size = int(np.ceil(n / n_slices))  # items per vertical slice (standard STR)
        order_x = np.argsort(cx, kind="stable")
        order = np.empty(n, dtype=np.int64)
        pos = 0
        for s in range(n_slices):
            sl = order_x[s * slice_size : (s + 1) * slice_size]
            # sort the slice by center-y
            sl = sl[np.argsort(cy[sl], kind="stable")]
            order[pos : pos + len(sl)] = sl
            pos += len(sl)
        self.item_ids = idx[order]
        level = b[order]
        self.levels = [level]
        while len(level) > 1:
            m = len(level)
            n_nodes = int(np.ceil(m / _NODE_CAP))
            parent = np.empty((n_nodes, 4))
            for k in range(n_nodes):
                ch = level[k * _NODE_CAP : (k + 1) * _NODE_CAP]
                parent[k] = [ch[:, 0].min(), ch[:, 1].min(), ch[:, 2].max(), ch[:, 3].max()]
            self.levels.append(parent)
            level = parent

    def query_box(self, xmin: float, ymin: float, xmax: float, ymax: float) -> np.ndarray:
        """Item ids whose envelope intersects [xmin,xmax]×[ymin,ymax] (inclusive), ascending."""
        return self.query_boxes(np.array([xmin, ymin, xmax, ymax], dtype=np.float64))[1]

    def query_boxes(self, boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bulk query: the (query_idx, item_id) candidate pairs of every
        box, query-major with item ids ascending.

        Level-synchronous: all (query, node) pairs descend one tree level
        at a time, each level one vectorised overlap test and one
        expansion to the survivors' children. A NaN box matches nothing."""
        boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        if self.n == 0 or not self.levels:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        n_root = len(self.levels[-1])
        q = np.repeat(np.arange(len(boxes), dtype=np.int64), n_root)
        node = np.tile(np.arange(n_root, dtype=np.int64), len(boxes))
        for lvl in range(len(self.levels) - 1, -1, -1):
            bb, qb = self.levels[lvl][node], boxes[q]
            ok = (bb[:, 0] <= qb[:, 2]) & (bb[:, 2] >= qb[:, 0]) & (bb[:, 1] <= qb[:, 3]) & (bb[:, 3] >= qb[:, 1])
            q, node = q[ok], node[ok]
            if lvl:
                first = node * _NODE_CAP
                last = np.minimum(first + _NODE_CAP, len(self.levels[lvl - 1]))
                q = np.repeat(q, last - first)
                node = _expand_ranges(first, last)
        items = self.item_ids[node]
        order = np.lexsort((items, q))
        return q[order], items[order]


# --------------------------------------------------------------------------
# uniform grid index (hot-path candidate generation for PIP joins)
# --------------------------------------------------------------------------


class GridIndex:
    """Uniform grid over item envelopes with CSR cell->item lists.

    Candidate lookup for N points is fully vectorized (digitize + CSR expand)
    — no per-point work — which is what makes the broadcast PIP join stream
    at memory bandwidth. Grid resolution defaults to ~2x the item count so
    average cell occupancy stays O(1) for evenly-sized polygons.
    """

    def __init__(self, boxes: np.ndarray, nx: int | None = None, ny: int | None = None):
        boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        valid = ~np.isnan(boxes).any(axis=1)
        self.n_items = len(boxes)
        vb = boxes[valid]
        if len(vb) == 0:
            self.nx = self.ny = 1
            self.x0 = self.y0 = 0.0
            self.dx = self.dy = 1.0
            self.cell_offsets = np.zeros(2, dtype=np.int64)
            self.cell_items = np.empty(0, dtype=np.int64)
            return
        self.x0 = float(vb[:, 0].min())
        self.y0 = float(vb[:, 1].min())
        x1 = float(vb[:, 2].max())
        y1 = float(vb[:, 3].max())
        if nx is None:
            k = max(1, int(np.ceil(np.sqrt(2 * len(vb)))))
            nx = ny = k
        self.nx, self.ny = int(nx), int(ny)
        self.dx = max((x1 - self.x0) / self.nx, 1e-300)
        self.dy = max((y1 - self.y0) / self.ny, 1e-300)

        ids = np.nonzero(valid)[0]
        cx0 = np.clip(((vb[:, 0] - self.x0) / self.dx).astype(np.int64), 0, self.nx - 1)
        cx1 = np.clip(((vb[:, 2] - self.x0) / self.dx).astype(np.int64), 0, self.nx - 1)
        cy0 = np.clip(((vb[:, 1] - self.y0) / self.dy).astype(np.int64), 0, self.ny - 1)
        cy1 = np.clip(((vb[:, 3] - self.y0) / self.dy).astype(np.int64), 0, self.ny - 1)
        item, cell = _expand_cell_rects(cx0, cx1, cy0, cy1, self.ny)
        item = ids[item]
        order = np.argsort(cell, kind="stable")
        cell, item = cell[order], item[order]
        counts = np.bincount(cell, minlength=self.nx * self.ny)
        self.cell_offsets = np.zeros(self.nx * self.ny + 1, dtype=np.int64)
        np.cumsum(counts, out=self.cell_offsets[1:])
        self.cell_items = item

    def point_cells(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        finite = np.isfinite(px) & np.isfinite(py)
        fx = np.where(finite, px, 0.0)
        fy = np.where(finite, py, 0.0)
        cx = np.floor((fx - self.x0) / self.dx).astype(np.int64)
        cy = np.floor((fy - self.y0) / self.dy).astype(np.int64)
        inside = finite & (cx >= 0) & (cx < self.nx) & (cy >= 0) & (cy < self.ny)
        cell = cx * self.ny + cy
        cell[~inside] = -1
        return cell

    def candidates_for_points(self, px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(point_idx, item_id) candidate pairs for a batch of points, vectorized."""
        cell = self.point_cells(np.asarray(px, np.float64), np.asarray(py, np.float64))
        ok = cell >= 0
        pidx = np.nonzero(ok)[0]
        c = cell[ok]
        starts = self.cell_offsets[c]
        stops = self.cell_offsets[c + 1]
        counts = stops - starts
        point_idx = np.repeat(pidx, counts)
        item_idx = self.cell_items[_expand_ranges(starts, stops)]
        return point_idx, item_idx
