"""GeoSeries ops as Ray Data batch transforms + the kernel registries.

The reference registers each op as a pyfunction and wraps it per-Series
(``/root/reference/py-geopolars/src/api.rs:16-33``); here each op is a
stateless Arrow-batch transform usable as
``ds.map_batches(geo_op("centroid"), batch_format="pyarrow")`` — the whole
FFI chain of the reference (SURVEY.md §3.2) collapses into one vectorized
call per batch. New ops plug in by registering a kernel (SURVEY.md §2.8).

Two registries, one factory each: ``KERNELS`` / ``geo_op`` for one-column
ops and ``BINARY_KERNELS`` / ``geo_binary_op`` for row-aligned two-column
ops (``geo_binary_op("distance", "geometry", "other")``). Every stage is
named ``geo_<op>``.

Conventions: geometry columns are Arrow (large_)binary WKB or GeoArrow,
named ``geometry`` by default (`geodataframe.py:12-16` uses the same
default); scalar results are appended as a named column, replacing any
column of that name; geometry results replace the geometry column in its
own encoding (mixed-type results fall back to WKB), or are appended as WKB
columns when the op names an output column.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from geopolars_ray.geom import GeometryArray, decode_wkb, encode_wkb
from geopolars_ray.geom import kernels as K
from geopolars_ray.geom import crs as crs_mod
from geopolars_ray.geom import tiles as tiles_mod
from geopolars_ray.geom import validity as validity_mod
from geopolars_ray.geom import offset as offset_mod

GEOMETRY = "geometry"


def _clip_by_rect(ga: GeometryArray, xmin: float, ymin: float, xmax: float, ymax: float) -> GeometryArray:
    from geopolars_ray.geom.clip import clip_by_rect

    return clip_by_rect(ga, xmin, ymin, xmax, ymax)


def _buffer_geoms(ga: GeometryArray, distance: float, quad_segs: int = 8) -> GeometryArray:
    from geopolars_ray.geom.buffer import buffer_geoms

    return buffer_geoms(ga, distance, quad_segs)


def _make_valid(ga: GeometryArray) -> GeometryArray:
    from geopolars_ray.geom.overlay import make_valid_arrays

    return make_valid_arrays(ga)


def _delaunay_triangles(ga: GeometryArray, only_edges: bool = False) -> GeometryArray:
    from geopolars_ray.geom.delaunay import delaunay_triangles_arrays

    return delaunay_triangles_arrays(ga, only_edges=only_edges)


def _voronoi_polygons(ga: GeometryArray, extend_to=None) -> GeometryArray:
    from geopolars_ray.geom.delaunay import voronoi_polygons_arrays

    return voronoi_polygons_arrays(ga, extend_to=extend_to)


def _concave_hull(ga: GeometryArray, ratio: float = 0.0) -> GeometryArray:
    from geopolars_ray.geom.delaunay import concave_hull_arrays

    return concave_hull_arrays(ga, ratio=ratio)


def _node(ga: GeometryArray) -> GeometryArray:
    from geopolars_ray.geom.polygonize import node_arrays

    return node_arrays(ga)


def _triangulate_polygon(ga: GeometryArray, delaunay: bool = True) -> GeometryArray:
    from geopolars_ray.geom.triangulate import triangulate_arrays

    return triangulate_arrays(ga, delaunay=delaunay)


def _generate_points(ga: GeometryArray, n: int = 1, seed: int = 0) -> GeometryArray:
    from geopolars_ray.geom.triangulate import generate_points_arrays

    return generate_points_arrays(ga, n, seed=seed)


def _clip_by_convex(ga: GeometryArray, ring) -> GeometryArray:
    from geopolars_ray.geom.clip import clip_by_convex

    return clip_by_convex(ga, ring)


# --------------------------------------------------------------------------
# encoding-transparent geometry column access (WKB or GeoArrow-native)
# --------------------------------------------------------------------------


def decode_geometry(batch: pa.Table, geometry_col: str = GEOMETRY) -> tuple[GeometryArray, str]:
    """Decode a geometry column of EITHER physical encoding.

    Returns (GeometryArray, encoding) where encoding is "wkb" for
    (large_)binary columns and "geoarrow" for the nested struct/list layout
    (`internals/geoseries.py:86-138`); the GeoArrow geom type rides in Field
    metadata (`geom/geoarrow.py`). This is what lets GeoArrow-native columns
    FLOW between pipeline stages instead of being WKB-only at every hop.
    """
    col = batch[geometry_col]
    t = col.type
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return decode_wkb(col), "wkb"
    from geopolars_ray.geom.geoarrow import decode_geoarrow_field

    field = batch.schema.field(geometry_col)
    return decode_geoarrow_field(field, col.combine_chunks()), "geoarrow"


def _set_geometry(batch: pa.Table, geometry_col: str, ga: GeometryArray, encoding: str) -> pa.Table:
    """Write the geometry back in the SAME encoding it arrived in.

    Mixed-type results (e.g. convex_hull collapsing some rows to
    Point/LineString) cannot take the single-type GeoArrow layout and fall
    back to WKB — the encoding switch is visible in the schema.
    """
    idx = batch.column_names.index(geometry_col)
    if encoding == "geoarrow":
        from geopolars_ray.geom.geoarrow import geoarrow_field

        try:
            field, arr = geoarrow_field(geometry_col, ga)
            return batch.set_column(idx, field, arr)
        except ValueError:
            pass  # mixed-type result -> WKB fallback
    return batch.set_column(idx, geometry_col, encode_wkb(ga))


def _put_column(batch: pa.Table, name: str, arr) -> pa.Table:
    """Append ``arr`` as ``name``, replacing any column of that name."""
    if name in batch.column_names:
        batch = batch.drop_columns([name])
    return batch.append_column(name, arr)


def to_geoarrow(geometry_col: str = GEOMETRY) -> Callable[[pa.Table], pa.Table]:
    """Stage: convert a WKB geometry column to the GeoArrow-native layout
    (single-geometry-type columns; the reference's own aspiration,
    `README.md:37`). Downstream geo stages then skip WKB codec work."""

    def fn(batch: pa.Table) -> pa.Table:
        ga, enc = decode_geometry(batch, geometry_col)
        if enc == "geoarrow":
            return batch
        from geopolars_ray.geom.geoarrow import geoarrow_field

        field, arr = geoarrow_field(geometry_col, ga)
        idx = batch.column_names.index(geometry_col)
        return batch.set_column(idx, field, arr)

    return fn


def to_wkb(geometry_col: str = GEOMETRY) -> Callable[[pa.Table], pa.Table]:
    """Stage: convert a GeoArrow-native geometry column back to WKB."""

    def fn(batch: pa.Table) -> pa.Table:
        ga, enc = decode_geometry(batch, geometry_col)
        if enc == "wkb":
            return batch
        idx = batch.column_names.index(geometry_col)
        return batch.set_column(idx, geometry_col, encode_wkb(ga))

    return fn

def _h3_ids_to_polygons(ids: np.ndarray, ok: np.ndarray) -> GeometryArray:
    """uint64 H3 ids -> one boundary POLYGON per True row (MISSING
    elsewhere).  Boundaries are computed once per UNIQUE cell
    (`geom/h3.py cell_to_boundary`) and gathered per row — rollup/point
    batches repeat the same few hundred cells thousands of times."""
    from geopolars_ray.geom.array import MISSING, POLYGON
    from geopolars_ray.geom import h3 as h3_mod

    types = np.where(ok, POLYGON, MISSING).astype(np.int8)
    geom_offsets = np.concatenate([[0], np.cumsum(ok.astype(np.int64))]).astype(np.int64)
    if not ok.any():
        z = np.zeros(1, dtype=np.int64)
        return GeometryArray(types, geom_offsets, z, z.copy(), np.empty((0, 2)))
    uniq, inv = np.unique(np.asarray(ids, dtype=np.uint64)[ok], return_inverse=True)
    offs, blat, blng = h3_mod.cell_to_boundary(uniq)
    cnt = (offs[1:] - offs[:-1]).astype(np.int64)[inv]  # open-ring verts/row
    m = int(ok.sum())
    ring_offsets = np.concatenate([[0], np.cumsum(cnt + 1)]).astype(np.int64)
    part_offsets = np.arange(m + 1, dtype=np.int64)
    starts = offs[inv].astype(np.int64)
    total = int(cnt.sum())
    excl = np.concatenate([[0], np.cumsum(cnt)[:-1]])
    intra = np.arange(total, dtype=np.int64) - np.repeat(excl, cnt)
    src = np.repeat(starts, cnt) + intra
    dst = np.repeat(ring_offsets[:-1], cnt) + intra
    coords = np.empty((int(ring_offsets[-1]), 2))
    coords[dst, 0] = blng[src]
    coords[dst, 1] = blat[src]
    coords[ring_offsets[1:] - 1, 0] = blng[starts]   # closing vertex
    coords[ring_offsets[1:] - 1, 1] = blat[starts]
    return GeometryArray(types, geom_offsets, part_offsets, ring_offsets, coords)


def _h3_cell_polygon(ga: GeometryArray, res: int = 7) -> GeometryArray:
    """Containing canonical-H3 cell polygon per POINT row — the vector face
    of H3 tiling (points in, equal-area cell polygons out).  Missing rows
    pass through; non-point rows are refused (tile a centroid first)."""
    from geopolars_ray.geom.array import MISSING, POINT

    is_pt = ga.types == POINT
    if not (is_pt | (ga.types == MISSING)).all():
        raise NotImplementedError(
            "h3_cell_polygon supports Point geometries; take centroid() first")
    from geopolars_ray.geom import h3 as h3_mod

    x, y = K.get_x(ga), K.get_y(ga)
    valid = is_pt & ~np.isnan(x) & ~np.isnan(y)
    ids = np.zeros(len(ga), dtype=np.uint64)
    if valid.any():
        ids[valid] = h3_mod.latlng_to_cell(y[valid], x[valid], res)
    return _h3_ids_to_polygons(ids, valid)


# name -> (kernel, result kind): 'scalar' appends a column, 'geometry'
# replaces the geometry column, 'special' has a custom wrapper below
KERNELS: dict[str, tuple[Callable[..., Any], str]] = {
    "area": (K.area, "scalar"),
    "euclidean_length": (K.euclidean_length, "scalar"),
    "geodesic_length": (K.geodesic_length, "scalar"),
    "geodesic_area": (K.geodesic_area, "scalar"),
    "geom_type": (K.geom_type, "scalar"),
    "is_empty": (K.is_empty, "scalar"),
    "is_ring": (K.is_ring, "scalar"),
    "is_closed": (K.is_closed, "scalar"),
    "is_ccw": (K.is_ccw, "scalar"),
    "x": (K.get_x, "scalar"),
    "y": (K.get_y, "scalar"),
    "centroid": (K.centroid, "geometry"),
    "representative_point": (K.representative_point, "geometry"),
    "extract_unique_points": (K.extract_unique_points, "geometry"),
    "line_merge": (K.line_merge, "geometry"),
    "envelope": (K.envelope, "geometry"),
    "convex_hull": (K.convex_hull, "geometry"),
    "oriented_envelope": (K.oriented_envelope, "geometry"),
    "minimum_bounding_circle": (K.minimum_bounding_circle, "geometry"),
    "minimum_bounding_radius": (K.minimum_bounding_radius, "scalar"),
    "maximum_inscribed_circle": (K.maximum_inscribed_circle, "geometry"),
    "maximum_inscribed_radius": (K.maximum_inscribed_radius, "scalar"),
    "minimum_clearance": (K.minimum_clearance, "scalar"),
    "minimum_clearance_line": (K.minimum_clearance_line, "geometry"),
    "exterior": (K.exterior, "geometry"),
    "boundary": (K.boundary, "geometry"),
    "simplify": (K.simplify, "geometry"),
    "segmentize": (K.segmentize, "geometry"),
    "line_interpolate_point": (K.line_interpolate_point, "geometry"),
    "line_substring": (K.line_substring, "geometry"),
    "reverse": (K.reverse, "geometry"),
    "snap_to_grid": (K.snap_to_grid, "geometry"),
    "remove_repeated_points": (K.remove_repeated_points, "geometry"),
    "affine_transform": (K.affine_transform, "geometry"),
    "translate": (K.translate, "geometry"),
    "rotate": (K.rotate, "geometry"),
    "scale": (K.scale, "geometry"),
    "skew": (K.skew, "geometry"),
    "to_crs": (crs_mod.to_crs, "geometry"),
    "clip_by_rect": (_clip_by_rect, "geometry"),
    "clip_by_convex": (_clip_by_convex, "geometry"),
    # general buffer: vectorized fast path on all-point arrays, overlay
    # union construction (rect-per-edge + circle-per-vertex, erosion via
    # difference for d<0) on everything else — geom/buffer.py
    "buffer": (_buffer_geoms, "geometry"),
    # even-odd structural repair of invalid polygons (geom/overlay.py)
    "make_valid": (_make_valid, "geometry"),
    # OGC validity via the overlay arrangement (geom/validity.py)
    "is_valid": (validity_mod.is_valid, "scalar"),
    "is_valid_reason": (validity_mod.is_valid_reason, "scalar"),
    # ST_OffsetCurve: raw offset + node + distance filter (geom/offset.py)
    "offset_curve": (offset_mod.offset_curve, "geometry"),
    # triangulation family (geom/delaunay.py): Bowyer-Watson with exact
    # rational fallback predicates; voronoi = bisector half-plane clips
    "delaunay_triangles": (_delaunay_triangles, "geometry"),
    "voronoi_polygons": (_voronoi_polygons, "geometry"),
    "concave_hull": (_concave_hull, "geometry"),
    # ST_Node: self-noded linework, maximal chains (geom/polygonize.py)
    "node": (_node, "geometry"),
    # ST_TriangulatePolygon: ear clip + Lawson flips (geom/triangulate.py)
    "triangulate_polygon": (_triangulate_polygon, "geometry"),
    # ST_GeneratePoints: area-uniform seeded sampling (geom/triangulate.py)
    "generate_points": (_generate_points, "geometry"),
    "geodesic_buffer": (K.geodesic_buffer_points, "geometry"),
    # shapely.ops.orient / ST_ForcePolygonCCW: ring-winding normalization
    "orient": (K.orient, "geometry"),
    # ST_Project: geodesic destination point (Vincenty direct)
    "geodesic_project": (K.geodesic_project, "geometry"),
    # point-geometry tiling key: base32 geohash string (prefix-nesting)
    "geohash": (
        lambda ga, precision=9: tiles_mod.geohash_encode(K.get_x(ga), K.get_y(ga), precision),
        "scalar",
    ),
    # Bing/slippy quadkey string (prefix-nesting, WebMercator tiles)
    "quadkey": (
        lambda ga, level=12: tiles_mod.quadkey_encode(K.get_x(ga), K.get_y(ga), level),
        "scalar",
    ),
    # containing canonical H3 cell as a boundary POLYGON (points only) —
    # the vector face of the tiling; boundaries computed once per unique
    # cell in the batch (geom/h3.py cell_to_boundary)
    "h3_cell_polygon": (_h3_cell_polygon, "geometry"),
}


def register_kernel(name: str, fn: Callable[..., Any], kind: str = "scalar") -> None:
    """User-extension hook: add a kernel to the registry (SURVEY.md §2.8)."""
    if kind not in ("scalar", "geometry"):
        raise ValueError("kind must be 'scalar' or 'geometry'")
    KERNELS[name] = (fn, kind)


def geo_op(
    name: str,
    geometry_col: str = GEOMETRY,
    out_col: str | None = None,
    **kwargs: Any,
) -> Callable[[pa.Table], pa.Table]:
    """Build a map_batches function applying one registry kernel.

    ``out_col`` names the scalar result column (default: the op name).
    """
    kernel, kind = KERNELS[name]
    out_name = out_col or name

    def fn(batch: pa.Table) -> pa.Table:
        ga, enc = decode_geometry(batch, geometry_col)
        res = kernel(ga, **kwargs)
        if kind == "scalar":
            return _put_column(batch, out_name, pa.array(np.asarray(res)))
        return _set_geometry(batch, geometry_col, res, enc)

    fn.__name__ = f"geo_{name}"
    return fn


def geo_ops(
    steps: list,
    geometry_col: str = GEOMETRY,
) -> Callable[[pa.Table], pa.Table]:
    """Fused kernel chain: decode WKB ONCE, apply N registry kernels, encode
    ONCE (vs one decode+encode round-trip per ``geo_op`` stage — measurable
    on kernel-chain pipelines since codec work rivals kernel work).

    ``steps``: list of ``name`` | ``(name, kwargs)`` | ``(name, kwargs,
    out_col)``. Geometry-valued kernels replace the working geometry for
    subsequent steps; scalar kernels append a column computed from the
    CURRENT (chained) geometry.
    """
    compiled: list[tuple[str, dict, str]] = []
    for step in steps:
        if isinstance(step, str):
            name, kwargs, out_col = step, {}, step
        elif len(step) == 2:
            name, kwargs = step
            out_col = name
        else:
            name, kwargs, out_col = step
        if name not in KERNELS:
            raise KeyError(f"unknown kernel {name!r}")
        compiled.append((name, dict(kwargs), out_col))

    def fn(batch: pa.Table) -> pa.Table:
        ga, enc = decode_geometry(batch, geometry_col)
        geom_dirty = False
        for name, kwargs, out_col in compiled:
            kernel, kind = KERNELS[name]
            res = kernel(ga, **kwargs)
            if kind == "geometry":
                ga = res
                geom_dirty = True
            else:
                batch = _put_column(batch, out_col, pa.array(np.asarray(res)))
        if geom_dirty:
            batch = _set_geometry(batch, geometry_col, ga, enc)
        return batch

    fn.__name__ = "geo_ops_" + "_".join(n for n, _, _ in compiled)
    return fn


# The arrangement-based kernels import on first use, like the one-column
# wrappers above, so a worker running only cheap ops never loads them.
def _relate(lga: GeometryArray, rga: GeometryArray, pattern: str | None = None):
    from geopolars_ray.geom import relate as relate_mod

    if pattern is not None:
        return relate_mod.relate_pattern(lga, rga, pattern)
    return pa.array(relate_mod.relate(lga, rga), pa.string())


def _predicate(lga: GeometryArray, rga: GeometryArray, name: str):
    from geopolars_ray.geom.relate import predicate

    return predicate(lga, rga, name)


def _split(lga: GeometryArray, rga: GeometryArray) -> GeometryArray:
    from geopolars_ray.geom.split import split_arrays

    return split_arrays(lga, rga)


def _shared_paths(lga: GeometryArray, rga: GeometryArray) -> tuple:
    from geopolars_ray.geom.polygonize import shared_paths_arrays

    return shared_paths_arrays(lga, rga)


def _overlay(lga: GeometryArray, rga: GeometryArray, operation: str) -> GeometryArray:
    from geopolars_ray.geom.overlay import overlay_arrays

    return overlay_arrays(lga, rga, operation)


# name -> (kernel(left, right, **kw), result kind, default output): the
# row-aligned two-column ops. A default output of None makes a geometry
# result replace the left column; a name (or a pair of names for a pair of
# results) appends WKB columns.
BINARY_KERNELS: dict[str, tuple[Callable[..., Any], str, Any]] = {
    "distance": (K.distance, "scalar", "distance"),
    # ST_DWithin: the distance kernel plus a threshold, not the DE-9IM path
    "dwithin": (lambda lga, rga, distance: K.distance(lga, rga) <= float(distance),
                "scalar", "dwithin"),
    # ST_Azimuth: radians clockwise from north, NaN for coincident points
    "azimuth": (K.azimuth, "scalar", "azimuth"),
    "geodesic_azimuth": (K.geodesic_azimuth, "scalar", "azimuth"),
    # DE-9IM (geom/relate.py): the 9-char matrix, or a bool column when a
    # ``pattern`` is given
    "relate": (_relate, "scalar", "relate"),
    # the predicate family, each derived from the DE-9IM matrix
    **{p: (partial(_predicate, name=p), "scalar", p) for p in (
        "intersects", "disjoint", "within", "contains", "covers",
        "covered_by", "equals", "touches", "crosses", "overlaps")},
    "hausdorff_distance": (K.hausdorff_distance, "scalar", "hausdorff"),
    "frechet_distance": (K.frechet_distance, "scalar", "frechet"),
    # shapely ``project``: arc-length position of the nearest point on the
    # left line to the right point
    "project": (K.line_locate_point, "scalar", "measure"),
    "shortest_line": (K.shortest_line, "geometry", "shortest_line"),
    "snap": (K.snap_geoms, "geometry", None),
    "split": (_split, "geometry", None),
    # polygon boolean overlay (geom/overlay.py); ``operation`` is one of
    # intersection / union / difference / symmetric_difference
    "overlay": (_overlay, "geometry", None),
    # ST_SharedPaths: same- and opposite-direction MultiLineStrings as two
    # columns (this engine rejects the GeometryCollection GEOS returns)
    "shared_paths": (_shared_paths, "geometry", ("shared_same", "shared_opposite")),
}


def geo_binary_op(
    name: str,
    left_col: str,
    right_col: str,
    out_col: str | tuple[str, ...] | None = None,
    **kwargs: Any,
) -> Callable[[pa.Table], pa.Table]:
    """Build a map_batches function applying one two-column registry kernel
    to row-aligned geometry columns of either encoding.

    ``out_col`` defaults to the registry's output. A scalar result replaces
    any column of that name; a geometry result replaces ``left_col`` in its
    own encoding when the output is None, else it is appended as WKB.
    """
    kernel, kind, default_out = BINARY_KERNELS[name]
    out = out_col if out_col is not None else default_out

    def fn(batch: pa.Table) -> pa.Table:
        lga, enc = decode_geometry(batch, left_col)
        rga, _ = decode_geometry(batch, right_col)
        res = kernel(lga, rga, **kwargs)
        if kind == "scalar":
            arr = res if isinstance(res, pa.Array) else pa.array(np.asarray(res))
            return _put_column(batch, out, arr)
        if out is None:
            return _set_geometry(batch, left_col, res, enc)
        names, results = ((out,), (res,)) if isinstance(out, str) else (out, res)
        for nm, ga in zip(names, results):
            batch = _put_column(batch, nm, encode_wkb(ga))
        return batch

    fn.__name__ = f"geo_{name}"
    return fn


def geo_bounds(geometry_col: str = GEOMETRY) -> Callable[[pa.Table], pa.Table]:
    """Append (or replace) xmin/ymin/xmax/ymax columns."""

    def fn(batch: pa.Table) -> pa.Table:
        ga, _ = decode_geometry(batch, geometry_col)
        for nm, v in zip(("xmin", "ymin", "xmax", "ymax"), K.bounds(ga)):
            batch = _put_column(batch, nm, pa.array(v))
        return batch

    fn.__name__ = "geo_bounds"
    return fn


def _row_expanding(name: str, kernel: Callable[[GeometryArray], tuple],
                   geometry_col: str) -> Callable[[pa.Table], pa.Table]:
    """Stage for a kernel returning (pieces, parent row per piece): the
    other columns replicate per piece, the geometry keeps its encoding."""

    def fn(batch: pa.Table) -> pa.Table:
        ga, enc = decode_geometry(batch, geometry_col)
        out, parent = kernel(ga)
        return _set_geometry(batch.take(pa.array(parent)), geometry_col, out, enc)

    fn.__name__ = f"geo_{name}"
    return fn


def geo_explode(geometry_col: str = GEOMETRY) -> Callable[[pa.Table], pa.Table]:
    """Explode multi-part rows; other columns replicate per part
    (`geoseries.rs:49-50`; Ray mapping per SURVEY.md §2.2 explode)."""
    return _row_expanding("explode", K.explode, geometry_col)


def geo_subdivide(max_vertices: int = 256, geometry_col: str = GEOMETRY) -> Callable[[pa.Table], pa.Table]:
    """ST_Subdivide stage: split oversized geometries into <= max_vertices
    pieces; other columns replicate per piece (the explode contract —
    `geom/clip.py subdivide`). The join-side prep for skewed polygon tables:
    one continent-sized polygon becomes many tile-sized rows BEFORE the
    cell-replication exchange, so no single partition inherits the hot task
    (measured 29x on a 20k-vertex-polygon join, COVERAGE.md). Semantics
    caveat for boundary-EXCLUSIVE point-in-polygon consumers: an interior
    point lying exactly ON an internal split line is on the boundary of
    both pieces and matches neither — a measure-zero edge for float data,
    but a real delta vs the unsplit polygon."""
    from geopolars_ray.geom.clip import subdivide

    return _row_expanding(
        "subdivide", lambda ga: subdivide(ga, max_vertices=max_vertices), geometry_col)


def collect_by(
    ds,
    by,
    geometry_col: str = GEOMETRY,
    count_col: str = "n_parts",
    num_partitions: int = 32,
):
    """Grouped ST_Collect — the inverse of ``geo_explode``.

    One hash co-partition on the key(s), then per PARTITION: one sort, one
    vectorized boundary scan, and an O(rows) re-bucketing of the ragged
    offsets (`geom/kernels.py collect` — the coords/rings buffers pass
    through untouched). No per-key Python, so key cardinality is free; the
    single all-to-all carries only the input rows once. Output: key
    column(s), ``count_col`` (parts per group), and the MULTI geometry.

    ST_Collect semantics restricted to one geometry family per key (mixed
    families raise — GeometryCollection is rejected, matching the
    reference); missing/empty rows drop out, all-missing keys yield a
    missing geometry. Attribute aggregation is deliberately NOT bundled —
    run ``hash_aggregate`` on the same keys and join.
    """
    from geopolars_ray.stages.agg import hash_partitioned_map

    keys = [by] if isinstance(by, str) else list(by)

    def fn(group: pa.Table) -> pa.Table:
        n = group.num_rows
        if n == 0:
            cols = {k: pa.array([], group.schema.field(k).type) for k in keys}
            cols[count_col] = pa.array([], pa.int64())
            # must match encode_wkb's type exactly or Ray can't unify blocks
            cols[geometry_col] = encode_wkb(GeometryArray.from_pylist([]))
            return pa.table(cols)
        for k in keys:
            if group[k].null_count:
                raise ValueError(
                    f"collect_by: key column {k!r} contains nulls — null keys "
                    "have no group identity; filter or fill first"
                )
        tbl = group.sort_by([(k, "ascending") for k in keys])
        change = np.zeros(n, dtype=bool)
        change[0] = True
        for k in keys:
            a = tbl[k].combine_chunks()
            neq = pc.not_equal(a.slice(1), a.slice(0, n - 1))
            change[1:] |= np.asarray(neq, dtype=bool)
        starts = np.flatnonzero(change).astype(np.int64)
        ga, enc = decode_geometry(tbl, geometry_col)
        out = K.collect(ga, starts)
        row_bounds = np.append(starts, n)
        parts = ga.geom_offsets[row_bounds[1:]] - ga.geom_offsets[row_bounds[:-1]]
        take = pa.array(starts)
        res = pa.table({k: tbl[k].take(take) for k in keys})
        res = res.append_column(count_col, pa.array(parts, pa.int64()))
        # ALWAYS WKB: a per-partition geoarrow-vs-WKB choice (one partition
        # holding an all-missing key falls back, another doesn't) would emit
        # conflicting block schemas in one Dataset
        return res.append_column(geometry_col, encode_wkb(out))

    return hash_partitioned_map(ds, keys, fn, num_partitions=num_partitions)


def points_from_xy(
    x_col: str, y_col: str, geometry_col: str = GEOMETRY
) -> Callable[[pa.Table], pa.Table]:
    """Construct a WKB Point geometry column from x/y columns."""

    def fn(batch: pa.Table) -> pa.Table:
        x = batch[x_col].to_numpy(zero_copy_only=False)
        y = batch[y_col].to_numpy(zero_copy_only=False)
        return _put_column(batch, geometry_col, encode_wkb(GeometryArray.from_points(x, y)))

    return fn
