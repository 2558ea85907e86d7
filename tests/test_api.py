"""GeoDataset API surface: chained reference-style pipelines."""

import numpy as np
import pyarrow as pa

from geopolars_ray.geom import GeometryArray, encode_wkb


def test_geodataset_chaining(ray_session, tmp_path):
    import pyarrow.parquet as pq
    from geopolars_ray.api import GeoDataset

    ga = GeometryArray.from_pylist(
        [
            ("polygon", [[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)]]),
            ("polygon", [[(10.0, 10.0), (12.0, 10.0), (12.0, 14.0), (10.0, 14.0), (10.0, 10.0)]]),
        ]
    )
    p = str(tmp_path / "polys.parquet")
    pq.write_table(pa.table({"name": pa.array(["a", "b"]), "geometry": encode_wkb(ga)}), p)

    gdf = GeoDataset.read_parquet(p)
    out = gdf.area().euclidean_length(out_col="perim").centroid().x(out_col="cx").y(out_col="cy")
    df = out.to_pandas().sort_values("name").reset_index(drop=True)
    assert df["area"].tolist() == [16.0, 8.0]
    assert df["perim"].tolist() == [16.0, 12.0]
    assert df["cx"].tolist() == [2.0, 11.0]
    assert df["cy"].tolist() == [2.0, 12.0]


def test_geodataset_transform_and_sjoin(ray_session):
    import ray
    from geopolars_ray.api import GeoDataset

    t = pa.table({"pid": pa.array([1, 2, 3], pa.int64()),
                  "lon": pa.array([0.5, 5.0, -3.0]), "lat": pa.array([0.5, 5.0, -3.0])})
    polys = GeometryArray.from_pylist(
        [("polygon", [[(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0)]])]
    )
    admin = pa.table({"admin_id": pa.array(["center"]), "geometry": encode_wkb(polys)})

    gdf = GeoDataset.from_xy(ray.data.from_arrow(t), "lon", "lat")
    moved = gdf.translate(1.0, 1.0).x(out_col="nx")
    assert moved.to_pandas()["nx"].tolist() == [1.5, 6.0, -2.0]

    joined = gdf.assign_tiles().sjoin(admin, how="inner").to_pandas()
    assert joined["pid"].tolist() == [1]
    assert joined["admin_id"].tolist() == ["center"]
    # crs round trip through the chain
    m = gdf.to_crs("EPSG:4326", "EPSG:3857").x(out_col="mx").to_pandas()
    assert abs(m["mx"][0] - 0.5 * 111319.49079327358) < 1e-6


def test_backend_namespaces(ray_session):
    import ray, pytest
    from geopolars_ray.api import GeoDataset

    t = pa.table({"lon": pa.array([1.0]), "lat": pa.array([2.0])})
    g = GeoDataset.from_xy(ray.data.from_arrow(t), "lon", "lat")
    # reference-style `.geo.<op>()` chains work verbatim
    out = g.geo.x(out_col="gx").to_pandas()
    assert out["gx"].tolist() == [1.0]
    with pytest.raises(NotImplementedError):
        g.geos


def test_geopandas_interop_wkb_path(ray_session):
    """from_geopandas accepts WKB-bytes geometry frames without shapely;
    to_pandas_wkb closes the round trip; to_geopandas raises a helpful
    ImportError in this shapely-free environment."""
    import numpy as np
    import pandas as pd
    import pytest

    from geopolars_ray.api import GeoDataset
    from geopolars_ray.geom import GeometryArray, encode_wkb

    ga = GeometryArray.from_points(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    wkb = [b.as_py() for b in encode_wkb(ga)]
    df = pd.DataFrame({"name": ["a", "b"], "geometry": wkb})
    gds = GeoDataset.from_geopandas(df)
    out = gds.x("px").y("py").to_pandas_wkb().sort_values("name")
    assert out["px"].tolist() == [1.0, 2.0]
    assert out["py"].tolist() == [3.0, 4.0]
    assert [bytes(v) for v in out["geometry"]] == wkb

    has_gpd = True
    try:
        import geopandas  # noqa: F401
        import shapely  # noqa: F401
    except ImportError:
        has_gpd = False
    if not has_gpd:
        with pytest.raises(ImportError, match="to_pandas_wkb"):
            gds.to_geopandas()


def test_from_geopandas_explicit_geometry_col_wins(ray_session):
    """An explicit geometry_col beats an unrelated column named 'geometry'."""
    import numpy as np
    import pandas as pd

    from geopolars_ray.api import GeoDataset
    from geopolars_ray.geom import GeometryArray, encode_wkb

    ga = GeometryArray.from_points(np.array([5.0]), np.array([6.0]))
    wkb = [b.as_py() for b in encode_wkb(ga)]
    df = pd.DataFrame({"geometry": ["not-a-geom"], "geom": wkb})
    out = GeoDataset.from_geopandas(df, geometry_col="geom").x("px").to_pandas_wkb()
    assert out["px"].tolist() == [5.0]


def test_register_kernel_extension_hook(ray_session):
    """User-extension surface (SURVEY §2.8): a registered kernel flows
    through geo_op/geo_ops and GeoDataset._apply like the built-ins."""
    import numpy as np
    import pyarrow as pa
    import ray

    from geopolars_ray.api import GeoDataset
    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.stages.geo import KERNELS, register_kernel, geo_ops

    def coord_sum(ga):
        co = ga.coord_offsets()
        from geopolars_ray.geom.kernels import _range_sums
        return _range_sums(ga.coords[:, 0] + ga.coords[:, 1], co[:-1], co[1:])

    register_kernel("coord_sum", coord_sum, kind="scalar")
    try:
        ga = GeometryArray.from_points(np.array([1.0, 2.0]), np.array([10.0, 20.0]))
        tab = pa.table({"geometry": encode_wkb(ga)})
        out = (
            ray.data.from_arrow(tab)
            .map_batches(geo_ops([("coord_sum", {}, "cs")]), batch_format="pyarrow")
            .to_pandas()
        )
        assert sorted(out["cs"].tolist()) == [11.0, 22.0]
    finally:
        KERNELS.pop("coord_sum", None)


def test_geodataset_read_file(ray_session, tmp_path):
    import numpy as np
    import pyarrow as pa

    from geopolars_ray.api import GeoDataset
    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.sources.geojson import write_geojsonl

    ga = GeometryArray.from_points(np.array([3.0]), np.array([4.0]))
    tab = pa.table({"i": pa.array([1], pa.int64()), "geometry": encode_wkb(ga)})
    p = str(tmp_path / "a.geojsonl")
    write_geojsonl(tab, p)
    gds = GeoDataset.read_file(p)
    out = gds.x("px").y("py").to_pandas_wkb()
    assert out["px"].tolist() == [3.0] and out["py"].tolist() == [4.0]


def test_crs_tracking_and_geoparquet_write(ray_session, tmp_path):
    """CRS rides GeoParquet metadata -> GeoDataset.crs -> to_crs update ->
    distributed write stamps every output file."""
    import numpy as np
    import pyarrow as pa

    from geopolars_ray.api import GeoDataset
    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.sources.io import read_geo_metadata, write_geoparquet

    ga = GeometryArray.from_points(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    t = pa.table({"i": pa.array([1, 2]), "geometry": encode_wkb(ga)})
    src = str(tmp_path / "src.parquet")
    write_geoparquet(t, src, crs="EPSG:4326")

    gds = GeoDataset.read_parquet(src)
    assert gds.crs == "EPSG:4326"
    merc = gds.to_crs(to_crs="EPSG:3857")  # from_crs defaults to tracked
    assert merc.crs == "EPSG:3857"
    out_dir = str(tmp_path / "out")
    merc.write_geoparquet(out_dir)
    from pathlib import Path
    files = sorted(Path(out_dir).glob("*.parquet"))
    assert files
    meta = read_geo_metadata(str(files[0]))
    assert meta["columns"]["geometry"]["crs"] == "EPSG:3857"


def test_geodataset_clip_buffer_geohash(ray_session):
    """The r4 kernels are reachable through the GeoDataset method surface."""
    import numpy as np
    import pyarrow as pa
    import ray

    from geopolars_ray.api import GeoDataset
    from geopolars_ray.geom import GeometryArray, decode_wkb, encode_wkb
    from geopolars_ray.geom import kernels as K

    pts = GeometryArray.from_points(np.array([10.40744, 100.0]), np.array([57.64911, 0.0]))
    gds = GeoDataset(ray.data.from_arrow(pa.table({"geometry": encode_wkb(pts)})))
    gh = gds.geohash(precision=5).take_all()
    assert gh[0]["geohash"] == "u4pru"
    clipped = gds.buffer(2.0, quad_segs=8).clip_by_rect(0.0, 0.0, 50.0, 90.0)
    tabs = clipped.dataset.take_all()
    ga = decode_wkb(pa.array([r["geometry"] for r in tabs], pa.large_binary()))
    a = K.area(ga)
    assert abs(a[0] - 0.5 * 32 * 4.0 * np.sin(2 * np.pi / 32)) < 1e-12  # inside
    assert np.isnan(a[1])  # fully clipped -> null geometry
    # clip(mask): rect tuple dispatches to the exact path, a convex ring to
    # the half-plane path; a huge triangle mask keeps the buffer intact
    c2 = gds.buffer(2.0, quad_segs=8).clip((0.0, 0.0, 50.0, 90.0)).dataset.take_all()
    ga2 = decode_wkb(pa.array([r["geometry"] for r in c2], pa.large_binary()))
    assert abs(K.area(ga2)[0] - a[0]) == 0.0
    tri = [(-500.0, -500.0), (500.0, -500.0), (0.0, 500.0)]
    c3 = gds.buffer(2.0, quad_segs=8).clip(tri).dataset.take_all()
    ga3 = decode_wkb(pa.array([r["geometry"] for r in c3], pa.large_binary()))
    full = 0.5 * 32 * 4.0 * np.sin(2 * np.pi / 32)
    assert abs(K.area(ga3)[0] - full) < 1e-9 and abs(K.area(ga3)[1] - full) < 1e-9


def test_total_bounds(ray_session):
    """total_bounds == global min/max over all geometries; missing rows are
    skipped; all-missing returns NaNs; per-block partials only (4 floats per
    block reach the driver)."""
    import math

    import numpy as np
    import pyarrow as pa
    import ray

    from geopolars_ray.api import GeoDataset
    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.geom.array import MISSING

    rng = np.random.default_rng(0)
    x, y = rng.uniform(-120, 80, 500), rng.uniform(-40, 60, 500)
    pts = GeometryArray.from_points(x, y)
    gds = GeoDataset(ray.data.from_arrow(pa.table({"geometry": encode_wkb(pts)})).repartition(7))
    tb = gds.total_bounds()
    assert tb == (x.min(), y.min(), x.max(), y.max())
    empty = GeometryArray(types=np.array([MISSING], np.int8), geom_offsets=np.array([0, 0]),
                          part_offsets=np.array([0]), ring_offsets=np.array([0]),
                          coords=np.empty((0, 2)))
    gds2 = GeoDataset(ray.data.from_arrow(pa.table({"geometry": encode_wkb(empty)})))
    assert all(math.isnan(v) for v in gds2.total_bounds())


def test_sjoin_partitioned_api(ray_session):
    """GeoDataset.sjoin_partitioned reproduces the broadcast join's match
    set through the public API, accepting the polygon side as Table /
    Dataset / GeoDataset."""
    import ray
    from geopolars_ray.api import GeoDataset

    rng = np.random.default_rng(13)
    n = 2000
    t = pa.table({"pid": pa.array(np.arange(n)),
                  "lon": pa.array(rng.uniform(-30, 30, n)),
                  "lat": pa.array(rng.uniform(-30, 30, n))})
    polys, ids = [], []
    for k in range(8):
        cx, cy, r = rng.uniform(-25, 25), rng.uniform(-25, 25), rng.uniform(2, 6)
        polys.append(("polygon", [[(cx - r, cy), (cx, cy - r), (cx + r, cy),
                                   (cx, cy + r), (cx - r, cy)]]))
        ids.append(f"p{k}")
    admin = pa.table({"admin_id": pa.array(ids),
                      "geometry": encode_wkb(GeometryArray.from_pylist(polys))})

    gdf = GeoDataset.from_xy(ray.data.from_arrow(t), "lon", "lat")
    want = gdf.sjoin(admin, how="inner").to_pandas()
    want_set = set(zip(want["pid"].astype(int), want["admin_id"]))
    assert len(want_set) > 0

    grid = gdf.sjoin_partitioned(admin, num_partitions=4).to_pandas()
    assert set(zip(grid["pid"].astype(int), grid["admin_id"])) == want_set

    gj = gdf.sjoin_partitioned(GeoDataset(ray.data.from_arrow(admin)), num_partitions=4)
    assert gj.geometry_col is None  # attribute table, loudly no geometry
    gjdf = gj.to_pandas()
    assert set(zip(gjdf["pid"].astype(int), gjdf["admin_id"])) == want_set
