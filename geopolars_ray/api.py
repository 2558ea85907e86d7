"""User-facing API: ``GeoDataset`` — the GeoDataFrame/GeoSeries analogue.

The reference exposes ops as ``GeoSeries.geo.<op>()`` on an eager frame
(``py-geopolars/python/geopolars/internals/geoseries.py:48-54``); here the
same surface chains lazily on a wrapped ``ray.data.Dataset`` whose
``geometry`` column is WKB (``geodataframe.py:12-16`` uses the same default
column name). Every method returns a new ``GeoDataset`` (scalar ops append
a column; geometry ops replace the geometry), so a reference user's
pipeline translates method-for-method::

    gdf = GeoDataset.read_parquet(path)          # gpl.read_file
    gdf = gdf.to_crs("EPSG:4326", "EPSG:3857")   # series.geo.to_crs
    gdf = gdf.centroid().area()                  # series.geo.centroid / .area
    out = gdf.sjoin(admin_table, how="inner")    # gpl.spatial_join
"""

from __future__ import annotations

from typing import Any

import pyarrow as pa

import ray

from geopolars_ray.stages.geo import (
    GEOMETRY, geo_binary_op, geo_bounds, geo_explode, geo_op, geo_subdivide, points_from_xy,
)


class GeoDataset:
    """A lazily-evaluated Dataset with a tagged geometry column.

    ``crs`` plays the reference's out-of-band CRS role (`geoseries.rs:148-149`
    — the array type can't carry it): populated from GeoParquet metadata on
    read, updated by :meth:`to_crs`, stamped into files by
    :meth:`write_geoparquet`. None = unknown/untracked.
    """

    def __init__(self, ds, geometry_col: str = GEOMETRY, crs: str | None = None):
        self._ds = ds
        self.geometry_col = geometry_col
        self.crs = crs

    # ------------------------------------------------------------ constructors

    @classmethod
    def read_parquet(cls, paths, columns=None, geometry_col: str = GEOMETRY, **kw) -> "GeoDataset":
        crs = None
        try:
            from geopolars_ray.sources.io import read_geo_metadata

            first = paths if isinstance(paths, str) else list(paths)[0]
            meta = read_geo_metadata(first)
            if meta:
                crs = meta.get("columns", {}).get(meta.get("primary_column", geometry_col), {}).get("crs")
        except Exception:
            pass  # directories / non-geo files: CRS stays untracked
        return cls(ray.data.read_parquet(paths, columns=columns, **kw), geometry_col, crs=crs)

    @classmethod
    def from_arrow(cls, table: pa.Table, geometry_col: str = GEOMETRY) -> "GeoDataset":
        return cls(ray.data.from_arrow(table), geometry_col)

    @classmethod
    def from_xy(cls, ds, x_col: str, y_col: str, geometry_col: str = GEOMETRY) -> "GeoDataset":
        inner = ds.dataset if isinstance(ds, GeoDataset) else ds
        return cls(
            inner.map_batches(points_from_xy(x_col, y_col, geometry_col), batch_format="pyarrow"),
            geometry_col,
        )

    @classmethod
    def read_file(
        cls,
        path,
        columns=None,
        bbox=None,
        geometry_col: str = GEOMETRY,
        **kw,
    ) -> "GeoDataset":
        """Multi-format vector read (gpl.read_file analogue): parquet,
        GeoJSON/GeoJSONSeq, WKT-CSV, shapefile, GeoPackage — dispatched by
        extension (`sources/io.py read_file`), with columns + bbox + where
        pushdown. CRS is sniffed from GeoParquet metadata or the gpkg
        gpkg_spatial_ref_sys table."""
        from geopolars_ray.sources.io import read_file as _read_file

        crs = None
        first = path if isinstance(path, str) else list(path)[0]
        suffix = first.rsplit(".", 1)[-1].lower()
        if suffix in ("parquet", "pq"):
            try:
                from geopolars_ray.sources.io import read_geo_metadata

                meta = read_geo_metadata(first)
                if meta:
                    crs = meta.get("columns", {}).get(meta.get("primary_column", geometry_col), {}).get("crs")
            except Exception:
                pass
        elif suffix == "gpkg":
            from geopolars_ray.sources.gpkg import read_gpkg_crs

            crs = read_gpkg_crs(first, layer=kw.get("layer"))
        elif suffix == "shp":
            from geopolars_ray.sources.shapefile import read_prj_crs

            crs = read_prj_crs(first)
        elif suffix == "fgb":
            from geopolars_ray.sources.flatgeobuf import read_fgb_crs

            crs = read_fgb_crs(first)
        elif suffix == "zip":
            # zipped shapefile: sniff the .prj straight from the archive
            # (zip is THE standard shapefile delivery — the two features
            # must compose)
            import zipfile

            from geopolars_ray.sources.io import _zip_pick, _zip_vector_names
            from geopolars_ray.sources.shapefile import crs_from_prj_wkt

            try:
                with zipfile.ZipFile(first) as zf:
                    names = _zip_vector_names(zf)
                    pick = _zip_pick(first, names, kw.get("member"))
                    if pick.lower().endswith(".shp"):
                        stem = pick.rsplit(".", 1)[0]
                        prj = next((n for n in names
                                    if n.rsplit(".", 1)[0] == stem
                                    and n.lower().endswith(".prj")), None)
                        if prj is not None:
                            crs = crs_from_prj_wkt(
                                zf.read(prj).decode(errors="replace"))
            except (ValueError, OSError, zipfile.BadZipFile):
                pass  # ambiguous/bad archive: the read below reports it
        return cls(
            _read_file(path, columns=columns, bbox=bbox, geometry_col=geometry_col, **kw),
            geometry_col,
            crs=crs,
        )

    @classmethod
    def from_geopandas(cls, gdf, geometry_col: str = GEOMETRY) -> "GeoDataset":
        """GeoPandas(-shaped) frame -> GeoDataset (reference `convert.py:59-96`).

        Shapely-optional: with shapely 2 installed the geometry column is
        WKB-encoded vectorized (``shapely.to_wkb``); without it, any frame
        whose geometry column already holds WKB ``bytes`` (e.g. produced by
        our own ``to_pandas_wkb``) is accepted directly — the WKB<->GeoArrow
        codec (`geom/geoarrow.py`) covers the layout work either way.
        """
        import numpy as np

        # the explicit argument wins when that column exists; otherwise fall
        # back to the frame's declared geometry attribute (GeoDataFrame)
        if geometry_col in gdf.columns:
            gname = geometry_col
        else:
            gname = getattr(getattr(gdf, "geometry", None), "name", None)
        if gname is None or gname not in gdf.columns:
            raise ValueError(f"no geometry column {geometry_col!r} on the input frame")
        geom_vals = gdf[gname]
        first = next((v for v in geom_vals if v is not None), None)
        if first is None or isinstance(first, (bytes, bytearray)):
            wkb = [None if v is None else bytes(v) for v in geom_vals]
        else:
            try:
                import shapely
            except ImportError as e:
                raise ImportError(
                    "from_geopandas with shapely geometries requires shapely; "
                    "in this environment pass a frame whose geometry column "
                    "holds WKB bytes instead (see to_pandas_wkb)"
                ) from e
            wkb = list(shapely.to_wkb(np.asarray(geom_vals, dtype=object)))
        attrs = gdf.drop(columns=[gname])
        tab = pa.Table.from_pandas(attrs, preserve_index=False)
        tab = tab.append_column(geometry_col, pa.array(wkb, pa.large_binary()))
        return cls(ray.data.from_arrow(tab), geometry_col)

    def to_pandas_wkb(self):
        """Collect to a pandas DataFrame with the geometry column as WKB
        bytes — the shapely-free interop surface (always available)."""
        return self._ds.to_pandas()

    def to_geopandas(self):
        """Collect to a ``geopandas.GeoDataFrame`` (reference
        `internals/geodataframe.py:67-83`). Requires geopandas + shapely;
        without them use :meth:`to_pandas_wkb`."""
        try:
            import geopandas as gpd
            import shapely
        except ImportError as e:
            raise ImportError(
                "to_geopandas requires geopandas + shapely (absent in this "
                "environment); use to_pandas_wkb() for the WKB-bytes frame"
            ) from e
        df = self._ds.to_pandas()
        geoms = shapely.from_wkb(df[self.geometry_col].to_numpy())
        df = df.drop(columns=[self.geometry_col])
        return gpd.GeoDataFrame(df, geometry=gpd.GeoSeries(geoms))

    # -------------------------------------------------------------- plumbing

    @property
    def dataset(self):
        """The underlying ray.data.Dataset."""
        return self._ds

    def _wrap(self, ds, crs: str | None = None) -> "GeoDataset":
        return GeoDataset(ds, self.geometry_col, crs=crs if crs is not None else self.crs)

    def _map(self, stage) -> "GeoDataset":
        return self._wrap(self._ds.map_batches(stage, batch_format="pyarrow"))

    def _apply(self, name: str, out_col: str | None = None, **kw) -> "GeoDataset":
        return self._map(geo_op(name, geometry_col=self.geometry_col, out_col=out_col, **kw))

    def _apply_binary(self, name: str, other_col: str, out_col=None, **kw) -> "GeoDataset":
        return self._map(geo_binary_op(name, self.geometry_col, other_col, out_col, **kw))

    def __getattr__(self, item: str) -> Any:
        # delegate everything else (count, take, to_pandas, write_parquet,
        # groupby, sort, filter-as-dataset...) to the wrapped Dataset
        return getattr(self._ds, item)

    # ----------------------------------------------------- GeoSeries surface

    @property
    def geo(self) -> "GeoDataset":
        """GeoRust-backend namespace alias (`internals/geoseries.py:48-50`):
        reference code written as ``series.geo.centroid()`` works verbatim."""
        return self

    @property
    def geos(self) -> "GeoDataset":
        """GEOS-backend namespace — an intentionally empty extension point in
        the reference (`internals/geos/geoseries.py:6-16`); same here."""
        raise NotImplementedError(
            "the GEOS backend is an extension point (empty in the reference too); "
            "use .geo / the direct methods"
        )

    def area(self, out_col: str = "area") -> "GeoDataset":
        return self._apply("area", out_col)

    def euclidean_length(self, out_col: str = "euclidean_length") -> "GeoDataset":
        return self._apply("euclidean_length", out_col)

    def geodesic_length(self, method: str = "geodesic", out_col: str = "geodesic_length") -> "GeoDataset":
        return self._apply("geodesic_length", out_col, method=method)

    def geodesic_area(self, out_col: str = "geodesic_area") -> "GeoDataset":
        """Ellipsoidal polygon area in m² (lon/lat coords; authalic-sphere
        excess — `geom/kernels.py geodesic_area`)."""
        return self._apply("geodesic_area", out_col)

    def geom_type(self, out_col: str = "geom_type") -> "GeoDataset":
        return self._apply("geom_type", out_col)

    def is_empty(self, out_col: str = "is_empty") -> "GeoDataset":
        return self._apply("is_empty", out_col)

    def is_ring(self, out_col: str = "is_ring") -> "GeoDataset":
        return self._apply("is_ring", out_col)

    def is_closed(self, out_col: str = "is_closed") -> "GeoDataset":
        return self._apply("is_closed", out_col)

    def is_ccw(self, out_col: str = "is_ccw") -> "GeoDataset":
        return self._apply("is_ccw", out_col)

    def x(self, out_col: str = "x") -> "GeoDataset":
        return self._apply("x", out_col)

    def y(self, out_col: str = "y") -> "GeoDataset":
        return self._apply("y", out_col)

    def bounds(self) -> "GeoDataset":
        return self._map(geo_bounds(self.geometry_col))

    def total_bounds(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the WHOLE dataset (GeoPandas
        ``total_bounds``): one per-batch min/max fold, 4 floats per block to
        the driver — no materialization of geometries. NaN-empty datasets
        (all rows missing) return (nan, nan, nan, nan)."""
        import numpy as np

        from geopolars_ray.stages.geo import decode_geometry
        from geopolars_ray.geom import kernels as _K

        gcol = self.geometry_col

        def fold(batch):
            import pyarrow as _pa

            ga, _ = decode_geometry(batch, gcol)
            xmin, ymin, xmax, ymax = _K.bounds(ga)
            with np.errstate(invalid="ignore"):
                return _pa.table({
                    "xmin": _pa.array([float(np.nanmin(xmin)) if len(xmin) and not np.isnan(xmin).all() else np.nan]),
                    "ymin": _pa.array([float(np.nanmin(ymin)) if len(ymin) and not np.isnan(ymin).all() else np.nan]),
                    "xmax": _pa.array([float(np.nanmax(xmax)) if len(xmax) and not np.isnan(xmax).all() else np.nan]),
                    "ymax": _pa.array([float(np.nanmax(ymax)) if len(ymax) and not np.isnan(ymax).all() else np.nan]),
                })

        parts = self._ds.map_batches(fold, batch_format="pyarrow").to_pandas()
        if len(parts) == 0 or parts["xmin"].isna().all():
            return (float("nan"),) * 4
        return (float(parts["xmin"].min()), float(parts["ymin"].min()),
                float(parts["xmax"].max()), float(parts["ymax"].max()))

    def centroid(self) -> "GeoDataset":
        return self._apply("centroid")

    def envelope(self) -> "GeoDataset":
        return self._apply("envelope")

    def convex_hull(self) -> "GeoDataset":
        return self._apply("convex_hull")

    def exterior(self) -> "GeoDataset":
        return self._apply("exterior")

    def offset_curve(self, distance: float, quad_segs: int = 8) -> "GeoDataset":
        """ST_OffsetCurve / shapely ``offset_curve``: the parallel curve
        at signed ``distance`` (positive = left of travel, negative =
        right; direction retained). LINESTRING, or MULTILINESTRING when
        input self-proximity splits the curve (`geom/offset.py`)."""
        return self._apply("offset_curve", distance=distance, quad_segs=quad_segs)

    def is_valid(self, out_col: str = "is_valid") -> "GeoDataset":
        """OGC validity flag per row (ST_IsValid): ring shape, ring
        self-intersections, crossing/overlapping rings (via the overlay
        arrangement), hole containment, nested shells. Deltas vs GEOS:
        snap-tolerance noding, and disconnected-interior is not detected
        (`geom/validity.py` docstring)."""
        return self._apply("is_valid", out_col)

    def is_valid_reason(self, out_col: str = "is_valid_reason") -> "GeoDataset":
        """GEOS-style reason string per row: ``"Valid Geometry"`` or the
        first violated rule with its location (ST_IsValidReason)."""
        return self._apply("is_valid_reason", out_col)

    def boundary(self) -> "GeoDataset":
        """shapely ``boundary`` (ST_Boundary): polygons -> all rings as
        (multi)linestrings, lines -> mod-2 endpoint MULTIPOINT, points ->
        missing (GEOS's empty COLLECTION is unrepresentable — documented
        delta)."""
        return self._apply("boundary")

    def delaunay_triangles(self, only_edges: bool = False) -> "GeoDataset":
        """shapely ``delaunay_triangles``: Delaunay triangulation of each
        row's vertex set (MULTIPOLYGON of CCW triangles; ``only_edges``
        gives the unique edges as MULTILINESTRING). Bowyer-Watson with
        exact rational fallback predicates, so co-circular grids are
        safe (`geom/delaunay.py`)."""
        return self._apply("delaunay_triangles", only_edges=only_edges)

    def voronoi_polygons(self, extend_to=None) -> "GeoDataset":
        """shapely ``voronoi_polygons``: one cell per vertex of each
        row, clipped to ``extend_to`` (x0, y0, x1, y1; default = bbox
        padded by half its larger side). Cells are bisector half-plane
        intersections over Delaunay neighbors (`geom/delaunay.py`)."""
        return self._apply("voronoi_polygons", extend_to=extend_to)

    def triangulate_polygon(self, delaunay: bool = True) -> "GeoDataset":
        """PostGIS ``ST_TriangulatePolygon`` / shapely
        ``constrained_delaunay_triangles``: partition each polygon row
        (holes supported) into triangles — Eberly hole bridges + ear
        clipping, then Lawson flips to the constrained Delaunay
        triangulation unless ``delaunay=False``
        (`geom/triangulate.py`)."""
        return self._apply("triangulate_polygon", delaunay=delaunay)

    def generate_points(self, n: int, seed: int = 0) -> "GeoDataset":
        """ST_GeneratePoints: ``n`` area-uniform random points inside
        each polygon row as a MULTIPOINT — triangulate, draw triangles
        by area weight, folded-parallelogram map. Seeded from
        (seed, coordinate hash): deterministic and independent of row
        order and parallelism (`geom/triangulate.py`)."""
        return self._apply("generate_points", n=n, seed=seed)

    def concave_hull(self, ratio: float = 0.0) -> "GeoDataset":
        """GEOS ``concave_hull`` (no holes): border triangles of the
        Delaunay triangulation eroded longest-edge-first while the edge
        exceeds ``min + ratio * (max - min)`` of the edge lengths;
        ratio=1 reproduces the convex hull (`geom/delaunay.py`)."""
        return self._apply("concave_hull", ratio=ratio)

    def node(self) -> "GeoDataset":
        """ST_Node / shapely ``node``: each row's linework fully noded
        against itself — split at every self-crossing, duplicate
        segments collapsed, chains re-joined through degree-2 nodes
        (junctions stay split). Line rows only (`geom/polygonize.py`)."""
        return self._apply("node")

    def simplify(self, tolerance: float) -> "GeoDataset":
        return self._apply("simplify", tolerance=tolerance)

    def segmentize(self, max_segment_length: float, method: str = "planar") -> "GeoDataset":
        """ST_Segmentize: densify so no segment exceeds the given length
        (planar: coord units; geodesic: meters along great circles —
        `geom/kernels.py segmentize`). Densify-then-to_crs is the
        dateline-safe reprojection recipe."""
        return self._apply("segmentize", max_segment_length=max_segment_length, method=method)

    def affine_transform(self, matrix) -> "GeoDataset":
        return self._apply("affine_transform", matrix=matrix)

    def translate(self, x: float = 0.0, y: float = 0.0) -> "GeoDataset":
        return self._apply("translate", x=x, y=y)

    def rotate(self, angle_deg: float, origin="center") -> "GeoDataset":
        return self._apply("rotate", angle_deg=angle_deg, origin=origin)

    def scale(self, xfact: float = 1.0, yfact: float = 1.0, origin="center") -> "GeoDataset":
        return self._apply("scale", xfact=xfact, yfact=yfact, origin=origin)

    def skew(self, xs: float = 0.0, ys: float = 0.0, origin="center") -> "GeoDataset":
        return self._apply("skew", xs=xs, ys=ys, origin=origin)

    def clip_by_rect(self, xmin: float, ymin: float, xmax: float, ymax: float) -> "GeoDataset":
        """Clip every geometry to the rectangle (shapely surface; see
        ``geom/clip.py`` for the documented Sutherland–Hodgman caveat)."""
        return self._apply("clip_by_rect", xmin=xmin, ymin=ymin, xmax=xmax, ymax=ymax)

    def clip(self, mask) -> "GeoDataset":
        """Clip every geometry to a CONVEX mask (the ``gpd.clip`` shape).

        ``mask``: a rect tuple ``(xmin, ymin, xmax, ymax)`` — dispatched to
        the exact axis-aligned path — or an (k, 2) vertex sequence of a
        convex polygon (reflex masks are refused loudly; see
        ``geom/clip.py``)."""
        if isinstance(mask, tuple) and len(mask) == 4 and all(
            isinstance(v, (int, float)) for v in mask
        ):
            return self.clip_by_rect(*mask)
        ring = [(float(x), float(y)) for x, y in mask]
        return self._apply("clip_by_convex", ring=ring)

    def buffer(self, distance: float, quad_segs: int = 8) -> "GeoDataset":
        """Buffer of ANY geometry type (shapely ``buffer`` semantics,
        round caps/joins as 4*quad_segs-gon circles). Points take the
        vectorized fast path; lines/polygons build the Minkowski sum on
        the overlay engine; negative distance erodes polygons
        (`geom/buffer.py` — empty erosions become null rows)."""
        return self._apply("buffer", distance=distance, quad_segs=quad_segs)

    def geodesic_buffer(self, distance_m: float, quad_segs: int = 8) -> "GeoDataset":
        """TRUE geodesic point buffer on the WGS84 ellipsoid (meters): every
        ring vertex is a Vincenty-direct destination at exactly distance_m —
        no projection step, no distortion (`geom/kernels.py`)."""
        return self._apply("geodesic_buffer", distance_m=distance_m, quad_segs=quad_segs)

    def geohash(self, precision: int = 9, out_col: str = "geohash") -> "GeoDataset":
        """Geohash string of each point geometry (prefix-nesting layout key)."""
        return self._apply("geohash", out_col, precision=precision)

    def quadkey(self, level: int = 12, out_col: str = "quadkey") -> "GeoDataset":
        """Bing quadkey string of each point geometry (WebMercator tiles,
        prefix-nesting layout key)."""
        return self._apply("quadkey", out_col, level=level)

    def to_crs(self, *args: str, from_crs: str | None = None, to_crs: str | None = None) -> "GeoDataset":
        """Reproject. Two calling styles, both unambiguous:

        - geopandas style: ``gds.to_crs("EPSG:32633")`` — ONE argument is the
          TARGET; the source is the tracked CRS (raises if untracked).
        - reference style: ``gds.to_crs("EPSG:4326", "EPSG:3857")`` — two
          arguments are (from, to), as in `geoseries.rs:148-161`.
        """
        if len(args) == 1:
            if to_crs is not None or from_crs is not None:
                raise TypeError("pass either one positional target or explicit keywords, not both")
            to_crs = args[0]
        elif len(args) == 2:
            if to_crs is not None or from_crs is not None:
                raise TypeError("pass either two positionals (from, to) or keywords, not both")
            from_crs, to_crs = args
        elif len(args) > 2:
            raise TypeError("to_crs takes at most two positional arguments")
        if to_crs is None:
            raise TypeError("to_crs target required")
        src = from_crs or self.crs
        if src is None:
            raise ValueError("from_crs required (no CRS tracked on this GeoDataset)")
        out = self._apply("to_crs", from_crs=src, to_crs=to_crs)
        out.crs = to_crs
        return out

    def to_file(self, path: str, crs: str | None = None, **kw) -> str:
        """GeoPandas ``to_file`` analogue: collect and write ONE vector
        file dispatched by extension (.shp/.zip/.geojson/.geojsonl/
        .gpkg/.kml/.gml/.fgb/.parquet), carrying this dataset's CRS into
        the formats that record one (.prj sidecar, gpkg srs, GeoParquet
        metadata). Driver-sized output by design — the distributed,
        partitioned sink is :meth:`write_geoparquet`."""
        from geopolars_ray.sources.io import write_file as _write_file
        from geopolars_ray.stages.agg import concat_blocks

        tbl = concat_blocks(self._ds)
        _write_file(tbl, path, geometry_col=self.geometry_col,
                    crs=crs if crs is not None else self.crs, **kw)
        return path

    def write_geoparquet(self, out_dir: str, crs: str | None = None, partition_col: str | None = None) -> str:
        """Distributed write; every file carries GeoParquet ``geo`` metadata
        with the tracked (or given) CRS. Raises rather than fabricating a
        default when no CRS is known — stamping the wrong CRS corrupts every
        downstream reader silently."""
        from geopolars_ray.sources.io import write_geoparquet_dataset

        eff = crs or self.crs
        if eff is None:
            raise ValueError(
                "no CRS tracked on this GeoDataset — pass crs= explicitly to write_geoparquet"
            )
        return write_geoparquet_dataset(
            self._ds, out_dir, geometry_col=self.geometry_col, crs=eff, partition_col=partition_col,
        )

    def ops(self, steps: list) -> "GeoDataset":
        """Fused kernel chain — ONE WKB decode, N kernels, one encode
        (:func:`geopolars_ray.stages.geo.geo_ops`). Prefer this over chaining
        single-op methods when applying several kernels: each chained method
        pays a decode+encode round-trip per stage."""
        from geopolars_ray.stages.geo import geo_ops

        return self._map(geo_ops(steps, self.geometry_col))

    def explode(self) -> "GeoDataset":
        return self._map(geo_explode(self.geometry_col))

    def subdivide(self, max_vertices: int = 256) -> "GeoDataset":
        """ST_Subdivide: split oversized geometries into <= max_vertices
        pieces, one row per piece (explode semantics for other columns)."""
        return self._map(geo_subdivide(max_vertices, self.geometry_col))

    def collect(self, by, count_col: str = "n_parts", num_partitions: int = 32) -> "GeoDataset":
        """Grouped ST_Collect (inverse of explode): one MULTI geometry per key.

        NOT a union — boundaries between collected parts are kept (this
        engine has no polygon boolean ops; a dissolve that merges touching
        polygons would need them). See ``stages/geo.py collect_by``.
        """
        from geopolars_ray.stages.geo import collect_by

        return self._wrap(
            collect_by(self._ds, by, self.geometry_col, count_col, num_partitions)
        )

    def distance(self, other_col: str, out_col: str = "distance") -> "GeoDataset":
        return self._apply_binary("distance", other_col, out_col)

    def azimuth(self, other_col: str, out_col: str = "azimuth",
                geodesic: bool = False) -> "GeoDataset":
        """ST_Azimuth: bearing to an aligned point column, radians
        clockwise from north in [0, 2π); ``geodesic=True`` = WGS84
        Vincenty forward azimuth over lon/lat degrees."""
        return self._apply_binary("geodesic_azimuth" if geodesic else "azimuth", other_col, out_col)

    def geodesic_project(self, distance_m, azimuth_rad) -> "GeoDataset":
        """ST_Project: geodesic destination point at ``distance_m``
        along ``azimuth_rad`` (WGS84 Vincenty direct)."""
        return self._apply("geodesic_project", distance_m=distance_m,
                           azimuth_rad=azimuth_rad)

    def orient(self, sign: float = 1.0) -> "GeoDataset":
        """shapely.ops ``orient`` / ST_ForcePolygonCCW(-CW): exteriors
        wound ``sign`` (positive = CCW), holes opposite; non-polygonal
        rows untouched."""
        return self._apply("orient", sign=sign)

    def relate(self, other_col: str, pattern: str | None = None,
               out_col: str = "relate") -> "GeoDataset":
        """Row-wise DE-9IM matrix string vs an aligned geometry column
        (ST_Relate / shapely ``relate``); with ``pattern`` given, a
        boolean pattern-match column instead (`geom/relate.py`)."""
        return self._apply_binary("relate", other_col, out_col, pattern=pattern)

    def intersects(self, other_col: str, out_col: str | None = None) -> "GeoDataset":
        """Row-wise ST_Intersects vs an aligned geometry column — like
        every predicate below, derived from the true DE-9IM matrix so
        the family is mutually consistent (`geom/relate.py`)."""
        return self._apply_binary("intersects", other_col, out_col)

    def disjoint(self, other_col: str, out_col: str | None = None) -> "GeoDataset":
        return self._apply_binary("disjoint", other_col, out_col)

    def within(self, other_col: str, out_col: str | None = None) -> "GeoDataset":
        return self._apply_binary("within", other_col, out_col)

    def contains(self, other_col: str, out_col: str | None = None) -> "GeoDataset":
        return self._apply_binary("contains", other_col, out_col)

    def touches(self, other_col: str, out_col: str | None = None) -> "GeoDataset":
        return self._apply_binary("touches", other_col, out_col)

    def crosses(self, other_col: str, out_col: str | None = None) -> "GeoDataset":
        return self._apply_binary("crosses", other_col, out_col)

    def overlaps(self, other_col: str, out_col: str | None = None) -> "GeoDataset":
        return self._apply_binary("overlaps", other_col, out_col)

    def covers(self, other_col: str, out_col: str | None = None) -> "GeoDataset":
        return self._apply_binary("covers", other_col, out_col)

    def covered_by(self, other_col: str, out_col: str | None = None) -> "GeoDataset":
        return self._apply_binary("covered_by", other_col, out_col)

    def geom_equals(self, other_col: str, out_col: str = "equals") -> "GeoDataset":
        """Topological equality (ST_Equals; vertex order/start free)."""
        return self._apply_binary("equals", other_col, out_col)

    def dwithin(self, other_col: str, distance: float,
                out_col: str = "dwithin") -> "GeoDataset":
        """ST_DWithin: geometry distance <= ``distance`` (the vectorized
        distance kernel + a threshold, not the DE-9IM path)."""
        return self._apply_binary("dwithin", other_col, out_col, distance=distance)

    def representative_point(self) -> "GeoDataset":
        """A point guaranteed ON/IN each geometry (GeoPandas parity)."""
        return self._apply("representative_point")

    def line_merge(self) -> "GeoDataset":
        """Join MultiLineString parts at degree-2 endpoints (ST_LineMerge)."""
        return self._apply("line_merge")

    def extract_unique_points(self) -> "GeoDataset":
        """Distinct coordinates per geometry as MULTIPOINT (shapely parity;
        coordinate-sorted, not first-occurrence order)."""
        return self._apply("extract_unique_points")

    def oriented_envelope(self) -> "GeoDataset":
        """Minimum rotated rectangle (GeoPandas ``minimum_rotated_rectangle``)."""
        return self._apply("oriented_envelope")

    minimum_rotated_rectangle = oriented_envelope

    def minimum_bounding_circle(self, quad_segs: int = 16) -> "GeoDataset":
        return self._apply("minimum_bounding_circle", quad_segs=quad_segs)

    def minimum_bounding_radius(self, out_col: str = "minimum_bounding_radius") -> "GeoDataset":
        return self._apply("minimum_bounding_radius", out_col)

    def maximum_inscribed_circle(self, tolerance: float | None = None) -> "GeoDataset":
        """Pole of inaccessibility per areal row as a POINT (GEOS
        ``MaximumInscribedCircle`` center / mapbox polylabel); tolerance
        defaults to bbox diagonal / 1000 (`geom/kernels.py`)."""
        return self._apply("maximum_inscribed_circle", tolerance=tolerance)

    def maximum_inscribed_radius(self, out_col: str = "maximum_inscribed_radius",
                                 tolerance: float | None = None) -> "GeoDataset":
        return self._apply("maximum_inscribed_radius", out_col, tolerance=tolerance)

    def minimum_clearance(self, out_col: str = "minimum_clearance") -> "GeoDataset":
        """GEOS ``minimum_clearance``: the smallest vertex move that
        could change the geometry's structure (min vertex-vertex /
        vertex-to-non-incident-segment distance); inf for degenerate
        rows (`geom/kernels.py`)."""
        return self._apply("minimum_clearance", out_col)

    def minimum_clearance_line(self) -> "GeoDataset":
        """ST_MinimumClearanceLine: the 2-point line realizing
        ``minimum_clearance`` (missing where clearance is inf)."""
        return self._apply("minimum_clearance_line")

    def reverse(self) -> "GeoDataset":
        return self._apply("reverse")

    def remove_repeated_points(self, tolerance: float = 0.0) -> "GeoDataset":
        return self._apply("remove_repeated_points", tolerance=tolerance)

    def snap_to_grid(self, size: float, origin_x: float = 0.0, origin_y: float = 0.0) -> "GeoDataset":
        return self._apply("snap_to_grid", size=size, origin_x=origin_x, origin_y=origin_y)

    def shortest_line(self, other_col: str, out_col: str = "shortest_line") -> "GeoDataset":
        """Shortest connecting LineString vs an aligned geometry column
        (shapely ``shortest_line``), appended as a WKB column."""
        return self._apply_binary("shortest_line", other_col, out_col)

    def hausdorff_distance(self, other_col: str, out_col: str = "hausdorff") -> "GeoDataset":
        """Row-wise discrete Hausdorff distance vs an aligned geometry
        column (GEOS DiscreteHausdorffDistance semantics)."""
        return self._apply_binary("hausdorff_distance", other_col, out_col)

    def snap(self, other_col: str, tolerance: float) -> "GeoDataset":
        """ST_Snap / shapely ``snap``: snap this geometry column's
        vertices to the aligned ``other_col`` geometry within
        ``tolerance``, inserting its vertices into segments they lie
        near (GEOS LineStringSnapper semantics; idempotent)."""
        return self._apply_binary("snap", other_col, tolerance=tolerance)

    def split(self, blade_col: str) -> "GeoDataset":
        """ST_Split / shapely ``split``: cut each row by the aligned
        blade column — lines by points or lines, polygons by lines (the
        arrangement engine does the cutting; pieces inside the polygon
        are selected by a guaranteed-interior triangulation probe).
        Parts come back as a MULTI geometry (this engine rejects
        GeometryCollections, reference parity)."""
        return self._apply_binary("split", blade_col)

    def shared_paths(self, other_col: str, same_col: str = "shared_same",
                     opp_col: str = "shared_opposite") -> "GeoDataset":
        """ST_SharedPaths vs an aligned line column: the common linework
        appended as two MultiLineString columns, split by traversal
        direction (GEOS returns a GeometryCollection of the two; this
        engine rejects collections, so they come back as columns)."""
        return self._apply_binary("shared_paths", other_col, (same_col, opp_col))

    def frechet_distance(self, other_col: str, out_col: str = "frechet") -> "GeoDataset":
        """Row-wise discrete Fréchet distance vs an aligned LINE column
        (shapely/GEOS semantics: coupling over the vertex sequences —
        ``segmentize`` first for the continuous approximation)."""
        return self._apply_binary("frechet_distance", other_col, out_col)

    def overlay(self, other_col: str, how: str = "intersection") -> "GeoDataset":
        """Row-wise polygon boolean overlay vs an aligned geometry column
        (GeoPandas GeoSeries set-op semantics: the geometry column is
        replaced by the result; empty results become null). ``how`` is one
        of intersection / union / difference / symmetric_difference.
        POLYGONAL rows only (non-polygonal rows raise TypeError); any
        polygonal shape: concave, holes, multi-part, even-odd fill —
        `geom/overlay.py` (beyond-reference: GeoPolars has no overlay)."""
        return self._apply_binary("overlay", other_col, operation=how)

    def intersection(self, other_col: str) -> "GeoDataset":
        """Row-wise A ∩ B vs an aligned geometry column. POLYGONAL
        rows only (polygon/multipolygon; shapely also accepts
        points/lines — those raise TypeError here, same as
        ``overlay``); matches shapely on polygonal inputs."""
        return self.overlay(other_col, "intersection")

    def union(self, other_col) -> "GeoDataset":
        """Row-wise A ∪ B vs an aligned geometry column (pass a column
        NAME), or — preserving the Ray ``Dataset.union`` this class used
        to delegate — dataset CONCATENATION when passed a Dataset /
        GeoDataset. Overlay is POLYGONAL rows only (polygon/multipolygon;
        shapely also accepts points/lines — those raise TypeError here,
        same as ``overlay``); matches shapely on polygonal inputs."""
        if not isinstance(other_col, str):
            others = [o._ds if isinstance(o, GeoDataset) else o
                      for o in (other_col if isinstance(other_col, (list, tuple))
                                else [other_col])]
            return self._wrap(self._ds.union(*others))
        return self.overlay(other_col, "union")

    def difference(self, other_col: str) -> "GeoDataset":
        """Row-wise A − B vs an aligned geometry column. POLYGONAL
        rows only (polygon/multipolygon; shapely also accepts
        points/lines — those raise TypeError here, same as
        ``overlay``); matches shapely on polygonal inputs."""
        return self.overlay(other_col, "difference")

    def symmetric_difference(self, other_col: str) -> "GeoDataset":
        """Row-wise A ⊕ B vs an aligned geometry column. POLYGONAL
        rows only (polygon/multipolygon; shapely also accepts
        points/lines — those raise TypeError here, same as
        ``overlay``); matches shapely on polygonal inputs."""
        return self.overlay(other_col, "symmetric_difference")

    def dissolve(self, by, count_col: str = "n_rows",
                 num_partitions: int = 32) -> "GeoDataset":
        """Grouped unary union (GeoPandas ``dissolve(by=...)``): one
        dissolved (multi)polygon per key, interior seams removed, plus a
        row count. Combiner-first: blocks partial-union before the single
        hash exchange (`stages/dissolve.py`)."""
        from geopolars_ray.stages.dissolve import dissolve as _dissolve

        return self._wrap(_dissolve(self._ds, by,
                                    geometry_col=self.geometry_col,
                                    count_col=count_col,
                                    num_partitions=num_partitions))

    def cluster_dbscan(self, eps: float, min_points: int, id_col: str,
                       num_partitions: int = 32) -> "GeoDataset":
        """ST_ClusterDBSCAN over POINT rows: appends ``cluster`` (null =
        noise). Cluster id = the minimum member id (deterministic where
        PostGIS is arbitrary). One dwithin self-join + neighbor counts +
        connected components (`stages/cluster.py`)."""
        from geopolars_ray.stages.cluster import dbscan
        from geopolars_ray.stages.hashjoin import hash_join

        pts = self.x("__cx").y("__cy")._ds
        labels = dbscan(pts, eps, min_points, id_col=id_col,
                        x_col="__cx", y_col="__cy",
                        num_partitions=num_partitions)
        out = hash_join(pts, labels, on=(id_col,), right_on=("node",),
                        how="left", num_partitions=num_partitions)
        return self._wrap(out.map_batches(
            lambda b: b.drop_columns(["__cx", "__cy"]),
            batch_format="pyarrow"))

    def cluster_kmeans(self, k: int, max_iter: int = 20,
                       cluster_col: str = "cluster") -> "GeoDataset":
        """ST_ClusterKMeans over POINT rows: appends ``cluster_col``.
        Exact distributed Lloyd with snap-rounded updates — labels and
        centroids are bit-identical across parallelism levels
        (`stages/cluster.py`)."""
        from geopolars_ray.stages.cluster import kmeans

        pts = self.x("__cx").y("__cy")._ds
        labeled, _cents = kmeans(pts, k, x_col="__cx", y_col="__cy",
                                 max_iter=max_iter, cluster_col=cluster_col)
        return self._wrap(labeled.map_batches(
            lambda b: b.drop_columns(["__cx", "__cy"]),
            batch_format="pyarrow"))

    def cluster_within(self, distance: float, id_col: str,
                       num_partitions: int = 32) -> "GeoDataset":
        """ST_ClusterWithin over ANY geometry rows: single-linkage
        clusters of rows within ``distance`` of each other (0 =
        ST_ClusterIntersecting). Appends ``cluster`` = min member id.
        PBSM cell replication + reference-point dedup + exact distance
        refine + connected components (`stages/cluster.py`)."""
        from geopolars_ray.stages.cluster import cluster_within
        from geopolars_ray.stages.hashjoin import hash_join

        labels = cluster_within(self._ds, distance, id_col=id_col,
                                geometry_col=self.geometry_col,
                                num_partitions=num_partitions)
        out = hash_join(self._ds, labels, on=(id_col,), right_on=("node",),
                        how="left", num_partitions=num_partitions)
        return self._wrap(out)

    def cluster_intersecting(self, id_col: str,
                             num_partitions: int = 32) -> "GeoDataset":
        """ST_ClusterIntersecting = ``cluster_within(0)``."""
        return self.cluster_within(0.0, id_col, num_partitions=num_partitions)

    def polygonize(self, by, num_partitions: int = 32) -> "GeoDataset":
        """Faces of each key group's line arrangement (shapely/GEOS
        ``polygonize``): line rows co-locate per key with one hash
        exchange, each group nodes its linework and emits one row per
        bounded face (``face_id`` deterministic, dangles and cut edges
        dropped). Nested faces become shells with holes, exactly like
        GEOS (`stages/polygonize.py`)."""
        from geopolars_ray.stages.polygonize import polygonize_by

        return self._wrap(polygonize_by(self._ds, by,
                                        geometry_col=self.geometry_col,
                                        num_partitions=num_partitions))

    def overlay_join(self, right: pa.Table, how: str = "intersection",
                     concurrency: int = 4, batch_size: int = 512,
                     ) -> "GeoDataset":
        """Frame-level overlay against a broadcast polygon table
        (GeoPandas ``gpd.overlay(df1, df2, how=...)`` semantics: output
        rows are piecewise geometries carrying suffixed attributes of
        the covering inputs). ``how``: intersection / difference /
        identity / union / symmetric_difference
        (`stages/overlay_join.py`)."""
        from geopolars_ray.stages.overlay_join import broadcast_overlay_join

        return self._wrap(broadcast_overlay_join(
            self._ds, right, how=how, geometry_col=self.geometry_col,
            concurrency=concurrency, batch_size=batch_size))

    def make_valid(self) -> "GeoDataset":
        """Structural repair of invalid polygons (GEOS ``make_valid``
        "structure" method, keep_collapsed=False): self-crossing and
        overlapping rings resolved by even-odd parity, orientation and
        hole nesting normalized. Non-polygonal rows pass through
        (`geom/overlay.py make_valid_geom`)."""
        return self._apply("make_valid")

    def interpolate(self, distance, normalized: bool = False) -> "GeoDataset":
        """Point at ``distance`` along each line (shapely ``interpolate``;
        negative measures from the end, ``normalized`` = fraction of length).
        Replaces the geometry column with the Point result."""
        return self._apply("line_interpolate_point", distance=distance, normalized=normalized)

    def line_substring(self, start, end, normalized: bool = True) -> "GeoDataset":
        """shapely ``substring`` / ST_LineSubstring: the part of each
        line between two distances along it (fractions when
        ``normalized``); start > end yields the reversed part, a
        degenerate window collapses to a POINT."""
        return self._apply("line_substring", start=start, end=end, normalized=normalized)

    def project(self, point_col: str, out_col: str = "measure", normalized: bool = False) -> "GeoDataset":
        """Arc-length position of the nearest point on each line to the
        aligned Point column (shapely ``project``)."""
        return self._apply_binary("project", point_col, out_col, normalized=normalized)

    # ------------------------------------------------------------- relational

    def assign_tiles(self, lon_col="lon", lat_col="lat", s2_level=12, grid_cell_deg=1.0,
                     hex_size_deg=None, h3_res=None) -> "GeoDataset":
        from geopolars_ray.stages.extract import assign_tiles

        return self._map(
            assign_tiles(lon_col, lat_col, s2_level, grid_cell_deg, hex_size_deg, h3_res)
        )

    def sjoin(
        self,
        polygons: pa.Table,
        how: str = "inner",
        lon_col: str = "lon",
        lat_col: str = "lat",
        **kw,
    ) -> "GeoDataset":
        """Broadcast point-in-polygon spatial join (gpl.spatial_join analogue)."""
        from geopolars_ray.stages.join import broadcast_spatial_join

        return self._wrap(
            broadcast_spatial_join(self._ds, polygons, lon_col=lon_col, lat_col=lat_col, how=how, **kw)
        )

    def sjoin_partitioned(
        self,
        polygons,
        lon_col: str = "lon",
        lat_col: str = "lat",
        **kw,
    ) -> "GeoDataset":
        """Large-large spatial join: co-partition this POINT dataset and a
        polygon DATASET by lat/lon grid cell, hash-join, refine exactly —
        the scale path when the polygon side is too big to broadcast
        (`stages/join.py partitioned_spatial_join`). ``polygons`` may be a
        ray Dataset, a GeoDataset, or an arrow Table (converted). Keyword
        passthrough: ``cell_deg`` / ``num_partitions`` tune the grid
        exchange; ``predicate="dwithin", distance=d`` for within-distance
        joins.

        The result is the matched point rows + polygon payload columns, a
        plain attribute table (``geometry_col=None`` — re-join against the
        polygon layer to recover geometry)."""
        import ray.data as rd

        from geopolars_ray.stages.join import partitioned_spatial_join

        if isinstance(polygons, GeoDataset):
            poly_ds = polygons.dataset
        elif isinstance(polygons, pa.Table):
            poly_ds = rd.from_arrow(polygons)
        else:
            poly_ds = polygons
        pts = self._ds
        geom = kw.get("geometry_col", "geometry")
        if self.geometry_col == geom:
            # the exchange joins on lon/lat; a same-named point-side
            # geometry column (e.g. from from_xy) would collide with the
            # polygon layer's in the hash join — drop it, loud and lossless
            pts = pts.map_batches(
                lambda b, g=geom: b.drop_columns([g]) if g in b.column_names else b,
                batch_format="pyarrow")
        out = partitioned_spatial_join(
            pts, poly_ds, lon_col=lon_col, lat_col=lat_col, **kw)
        return GeoDataset(out, geometry_col=None, crs=None)

    def knn(self, queries: dict, k: int, x_col="lon", y_col="lat", id_col="id", **kw) -> "GeoDataset":
        """Exact kNN of this point dataset against broadcast query points."""
        from geopolars_ray.stages.knn import euclidean_knn

        return self._wrap(euclidean_knn(self._ds, queries, k, x_col=x_col, y_col=y_col, id_col=id_col, **kw))

    def sjoin_nearest(self, other, k: int = 1, max_distance: float | None = None,
                      x_col: str = "lon", y_col: str = "lat", id_col: str = "id",
                      other_id_col: str = "id", **kw) -> "GeoDataset":
        """GeoPandas ``sjoin_nearest`` analogue over point datasets: each
        left row's ``k`` nearest right rows, as (point id, target id,
        distance, rank) — the distributed expanding-ring kNN join
        (`stages/knn.py knn_join`; nothing collected on the driver).
        ``max_distance`` filters matches beyond the threshold after the
        exact join (GeoPandas semantics).

        The result carries the CALLER's id column names (``id_col`` /
        ``other_id_col``; suffixed ``_left`` / ``_right`` when they
        collide) plus ``distance`` and, for k>1, ``rank``. It is a plain
        attribute table — no geometry column survives the join — so the
        returned GeoDataset has ``geometry_col=None`` / ``crs=None``;
        re-join against either input to recover geometry."""
        import pyarrow.compute as pc

        from geopolars_ray.stages.knn import knn_join
        from geopolars_ray.stages.knn import sjoin_nearest as _sjoin_nearest

        other_ds = other.dataset if isinstance(other, GeoDataset) else other
        pts = self._ds.map_batches(
            lambda b, c=(id_col, x_col, y_col): pa.table(
                {"pid": b[c[0]], "x": b[c[1]], "y": b[c[2]]}),
            batch_format="pyarrow")
        tgts = other_ds.map_batches(
            lambda b, c=(other_id_col, x_col, y_col): pa.table(
                {"tid": b[c[0]], "x": b[c[1]], "y": b[c[2]]}),
            batch_format="pyarrow")
        if k == 1:
            # the stage owns the k=1 semantics (max_distance filter,
            # tie-break) — one implementation
            out = _sjoin_nearest(
                pts, tgts, max_distance=max_distance,
                x_col="x", y_col="y", point_id="pid", target_id="tid", **kw)
        else:
            out = knn_join(pts, tgts, k, x_col="x", y_col="y",
                           point_id="pid", target_id="tid", **kw)
            if max_distance is not None:
                out = out.map_batches(
                    lambda b, d=float(max_distance): b.filter(
                        pc.less_equal(b["distance"], d)),
                    batch_format="pyarrow")
        left = id_col if id_col != other_id_col else f"{id_col}_left"
        right = (other_id_col if id_col != other_id_col
                 else f"{other_id_col}_right")

        def _restore_names(b, ren={"pid": left, "tid": right}):
            return b.rename_columns([ren.get(c, c) for c in b.column_names])

        out = out.map_batches(_restore_names, batch_format="pyarrow")
        return GeoDataset(out, geometry_col=None, crs=None)

    def rasterize(self, tile_deg: float = 15.0, resolution: int = 32, stat: str = "count",
                  lon_col="lon", lat_col="lat", value_col=None, **kw) -> "GeoDataset":
        """Per-tile raster grids from this point dataset (raster<->vector op)."""
        from geopolars_ray.stages.raster import rasterize_points

        return self._wrap(
            rasterize_points(self._ds, lon_col=lon_col, lat_col=lat_col, value_col=value_col,
                             tile_deg=tile_deg, resolution=resolution, stat=stat, **kw)
        )

    def zonal_stats(self, zones: pa.Table, zone_id_col: str = "zone_id",
                    lon_col="lon", lat_col="lat", value_col=None,
                    stats=("count", "sum", "mean"), **kw) -> "GeoDataset":
        """Per-polygon-zone aggregates of this point dataset (broadcast PIP
        tag + combiner-first hash aggregate; ``stages/raster.py zonal_stats``)."""
        from geopolars_ray.stages.raster import zonal_stats

        return GeoDataset(
            zonal_stats(self._ds, zones, zone_id_col=zone_id_col, lon_col=lon_col,
                        lat_col=lat_col, value_col=value_col, stats=stats, **kw),
            geometry_col=None, crs=None,
        )

    def focal(self, stat: str = "mean", kernel: int = 3, tile_deg: float = 15.0,
              resolution: int = 32, **kw) -> "GeoDataset":
        """Focal (neighborhood) aggregate over raster tiles produced by
        :meth:`rasterize` — windows cross tile boundaries via a distributed
        halo exchange (``stages/raster.py focal_aggregate``)."""
        from geopolars_ray.stages.raster import focal_aggregate

        return GeoDataset(
            focal_aggregate(self._ds, tile_deg=tile_deg, resolution=resolution,
                            kernel=kernel, stat=stat, **kw),
            geometry_col=None, crs=None,
        )

    def convolve(self, weights, tile_deg: float = 15.0, resolution: int = 32,
                 **kw) -> "GeoDataset":
        """Masked convolution over raster tiles (``focal_convolve``)."""
        from geopolars_ray.stages.raster import focal_convolve

        return GeoDataset(
            focal_convolve(self._ds, weights, tile_deg=tile_deg,
                           resolution=resolution, **kw),
            geometry_col=None, crs=None,
        )

    def slope(self, tile_deg: float = 15.0, resolution: int = 32, **kw) -> "GeoDataset":
        """Horn slope/aspect over raster tiles (``raster_slope``)."""
        from geopolars_ray.stages.raster import raster_slope

        return GeoDataset(
            raster_slope(self._ds, tile_deg=tile_deg, resolution=resolution, **kw),
            geometry_col=None, crs=None,
        )

    def hillshade(self, tile_deg: float = 15.0, resolution: int = 32, **kw) -> "GeoDataset":
        """gdaldem-model hillshade over raster tiles (``raster_hillshade``)."""
        from geopolars_ray.stages.raster import raster_hillshade

        return GeoDataset(
            raster_hillshade(self._ds, tile_deg=tile_deg, resolution=resolution, **kw),
            geometry_col=None, crs=None,
        )

    def resample(self, resolution: int, factor: int, how: str = "mean") -> "GeoDataset":
        """Per-tile raster resolution change (``resample_tiles``)."""
        from geopolars_ray.stages.raster import resample_tiles

        return GeoDataset(
            resample_tiles(self._ds, resolution=resolution, factor=factor, how=how),
            geometry_col=None, crs=None,
        )

    def band_math(self, other, op: str = "add", fill: float = 0.0, **kw) -> "GeoDataset":
        """Cell-wise algebra between this raster-tile dataset and another
        (``raster_math``); ``other`` may be a GeoDataset or ray Dataset."""
        from geopolars_ray.stages.raster import raster_math

        ods = other.dataset if isinstance(other, GeoDataset) else other
        return GeoDataset(raster_math(self._ds, ods, op=op, fill=fill, **kw),
                          geometry_col=None, crs=None)

    def idw(self, value_col: str, lon_col="lon", lat_col="lat",
            tile_deg: float = 15.0, resolution: int = 32, **kw) -> "GeoDataset":
        """IDW-interpolate this point dataset onto per-tile raster surfaces
        (``idw_rasterize``; radius-bounded cross-tile replication)."""
        from geopolars_ray.stages.raster import idw_rasterize

        return GeoDataset(
            idw_rasterize(self._ds, value_col, lon_col=lon_col, lat_col=lat_col,
                          tile_deg=tile_deg, resolution=resolution, **kw),
            geometry_col=None, crs=None,
        )

    def contours(self, levels, tile_deg: float = 15.0, resolution: int = 32,
                 **kw) -> "GeoDataset":
        """Iso-contour segments from raster tiles (``contour_lines``;
        seam-consistent marching squares)."""
        from geopolars_ray.stages.raster import contour_lines

        return GeoDataset(
            contour_lines(self._ds, levels, tile_deg=tile_deg,
                          resolution=resolution, **kw),
            geometry_col=None, crs=None,
        )

    def cut_to_tiles(self, tile_deg: float = 1.0, **kw) -> "GeoDataset":
        """Clip this geometry layer into per-tile pieces
        (``stages/tilecut.py``); result keeps the geometry column plus a
        ``tile`` id, ready for partitioned writes."""
        from geopolars_ray.stages.tilecut import cut_to_tiles

        return GeoDataset(
            cut_to_tiles(self._ds, tile_deg=tile_deg,
                         geometry_col=self.geometry_col or "geometry", **kw),
            geometry_col=self.geometry_col or "geometry", crs=self.crs,
        )
