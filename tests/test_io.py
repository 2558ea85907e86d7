"""Geo-aware parquet IO tests."""

import numpy as np
import pyarrow as pa
import pytest

from geopolars_ray.geom import GeometryArray, encode_wkb
from geopolars_ray.sources.io import (
    write_geoparquet,
    read_geo_metadata,
    read_geo_dataset,
)


def test_geo_metadata_round_trip(tmp_path):
    ga = GeometryArray.from_points(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    t = pa.table({"name": pa.array(["a", "b"]), "geometry": encode_wkb(ga)})
    p = str(tmp_path / "pts.parquet")
    write_geoparquet(t, p, crs="EPSG:3857")
    meta = read_geo_metadata(p)
    assert meta["primary_column"] == "geometry"
    assert meta["columns"]["geometry"]["crs"] == "EPSG:3857"
    assert meta["columns"]["geometry"]["encoding"] == "WKB"


def test_bbox_pushdown(ray_session, tmp_path):
    rng = np.random.default_rng(55)
    x = rng.uniform(-100, 100, 5000)
    y = rng.uniform(-50, 50, 5000)
    ga = GeometryArray.from_points(x, y)
    t = pa.table({"i": pa.array(np.arange(5000)), "geometry": encode_wkb(ga)})
    p = str(tmp_path / "pts.parquet")
    write_geoparquet(t, p)
    ds = read_geo_dataset(p, bbox=(0.0, 0.0, 50.0, 25.0))
    got = sorted(r["i"] for r in ds.take_all())
    expect = sorted(np.nonzero((x >= 0) & (x <= 50) & (y >= 0) & (y <= 25))[0].tolist())
    assert got == expect


def test_geojson_roundtrip_featurecollection(ray_session, tmp_path):
    """write_geojson -> read_geojson preserves WKB bytes + properties."""
    import numpy as np
    import pyarrow as pa
    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.sources.geojson import read_geojson, write_geojson

    ga = GeometryArray.from_pylist([
        ("point", (1.5, 2.5)),
        ("linestring", [(0.0, 0.0), (3.0, 4.0)]),
        ("polygon", [[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 0.0)]]),
        ("multipolygon", [[[(5.0, 5.0), (6.0, 5.0), (6.0, 6.0), (5.0, 5.0)]]]),
    ])
    tab = pa.table({"name": pa.array(["a", "b", "c", "d"]), "geometry": encode_wkb(ga)})
    p = str(tmp_path / "fc.geojson")
    write_geojson(tab, p)
    out = read_geojson(p).to_pandas().sort_values("name").reset_index(drop=True)
    assert out["name"].tolist() == ["a", "b", "c", "d"]
    got = [bytes(b) for b in out["geometry"]]
    want = [bytes(b.as_py()) for b in tab["geometry"]]
    assert got == want


def test_geojsonl_scale_path_with_pushdown(ray_session, tmp_path):
    """NDJSON features via ray.data.read_text; columns + bbox pushdown."""
    import numpy as np
    import pyarrow as pa
    from geopolars_ray.geom import GeometryArray, decode_wkb, encode_wkb
    from geopolars_ray.sources.geojson import read_geojson, write_geojsonl

    n = 500
    x = np.linspace(-50.0, 50.0, n)
    y = np.linspace(-25.0, 25.0, n)
    ga = GeometryArray.from_points(x, y)
    tab = pa.table({
        "fid": pa.array(np.arange(n, dtype=np.int64)),
        "extra": pa.array(["e%d" % i for i in range(n)]),
        "geometry": encode_wkb(ga),
    })
    p = str(tmp_path / "pts.geojsonl")
    write_geojsonl(tab, p)
    out = read_geojson(p, columns=["fid"], bbox=(-10.0, -10.0, 10.0, 10.0))
    df = out.to_pandas()
    assert set(df.columns) == {"fid", "geometry"}
    keep = (x >= -10.0) & (x <= 10.0) & (y >= -10.0) & (y <= 10.0)
    assert sorted(df["fid"].tolist()) == np.nonzero(keep)[0].tolist()


def test_wkt_parse_format_roundtrip():
    from geopolars_ray.geom import GeometryArray
    from geopolars_ray.geom.wkt import geometry_from_wkt, geometry_to_wkt, parse_wkt

    src = [
        "POINT (1.5 2.5)",
        "LINESTRING (0 0, 3 4, 5 6)",
        "POLYGON ((0 0, 2 0, 2 2, 0 0), (0.5 0.25, 1 0.25, 0.5 0.75, 0.5 0.25))",
        "MULTIPOINT ((1 2), (3 4))",
        "MULTIPOINT (1 2, 3 4)",  # both WKT multipoint spellings
        "MULTILINESTRING ((0 0, 1 1), (2 2, 3 3))",
        "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((5 5, 6 5, 6 6, 5 5)))",
        "POINT EMPTY",
        None,
    ]
    ga = geometry_from_wkt(src)
    assert ga.types[-1] == -1 and ga.types[-2] == -1
    out = geometry_to_wkt(ga)
    ga2 = geometry_from_wkt(out)
    assert ga.to_pylist() == ga2.to_pylist()
    # strict 2-D model
    import pytest
    with pytest.raises(ValueError):
        parse_wkt("POINT Z (1 2 3)")


def test_read_wkt_csv(ray_session, tmp_path):
    import numpy as np

    from geopolars_ray.geom import decode_wkb
    from geopolars_ray.sources.io import read_wkt_csv

    p = tmp_path / "pts.csv"
    lines = ["id,name,wkt"]
    for i in range(100):
        lines.append(f'{i},n{i},"POINT ({i}.5 {i % 10}.25)"')
    p.write_text("\n".join(lines) + "\n")
    out = read_wkt_csv(str(p), columns=["id"], bbox=(10.0, 0.0, 20.0, 10.0)).to_pandas()
    assert set(out.columns) == {"id", "geometry"}
    # points with x=i+0.5 in [10, 20] -> ids 10..19
    assert sorted(out["id"].tolist()) == list(range(10, 20))


def test_shapefile_roundtrip(ray_session, tmp_path):
    """write_shapefile -> read_shapefile (via read_file dispatch) preserves
    geometry structure and .dbf attributes."""
    import numpy as np
    import pyarrow as pa

    from geopolars_ray.geom import GeometryArray, decode_wkb, encode_wkb
    from geopolars_ray.sources.io import read_file
    from geopolars_ray.sources.shapefile import write_shapefile

    ga = GeometryArray.from_points(np.array([1.5, -3.0, 10.0]), np.array([2.5, 4.0, -1.0]))
    tab = pa.table({
        "fid": pa.array([7, 8, 9], pa.int64()),
        "name": pa.array(["aa", "bb", "cc"]),
        "score": pa.array([1.25, 2.5, -3.75]),
        "geometry": encode_wkb(ga),
    })
    p = str(tmp_path / "pts.shp")
    write_shapefile(tab, p)
    out = read_file(p).to_pandas().sort_values("fid").reset_index(drop=True)
    assert out["fid"].tolist() == [7, 8, 9]
    assert out["name"].tolist() == ["aa", "bb", "cc"]
    np.testing.assert_allclose(out["score"].to_numpy(), [1.25, 2.5, -3.75])
    ga2 = decode_wkb(pa.chunked_array([pa.array([bytes(b) for b in out["geometry"]], pa.large_binary())]))
    np.testing.assert_allclose(ga2.coords, ga.coords)

    # polygons with a hole + bbox filter
    poly = GeometryArray.from_pylist([
        ("polygon", [[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)],
                     [(1.0, 1.0), (1.0, 2.0), (2.0, 2.0), (2.0, 1.0), (1.0, 1.0)]]),
        ("polygon", [[(100.0, 100.0), (101.0, 100.0), (101.0, 101.0), (100.0, 100.0)]]),
    ])
    ptab = pa.table({"pid": pa.array([1, 2], pa.int64()), "geometry": encode_wkb(poly)})
    p2 = str(tmp_path / "polys.shp")
    write_shapefile(ptab, p2)
    got = read_file(p2, bbox=(-1.0, -1.0, 10.0, 10.0)).to_pandas()
    assert got["pid"].tolist() == [1]
    ga3 = decode_wkb(pa.chunked_array([pa.array([bytes(b) for b in got["geometry"]], pa.large_binary())]))
    assert ga3.n_rings == 2  # hole preserved


def test_read_file_dispatch_formats(ray_session, tmp_path):
    import numpy as np
    import pyarrow as pa

    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.sources.geojson import write_geojsonl
    from geopolars_ray.sources.io import read_file

    ga = GeometryArray.from_points(np.array([1.0]), np.array([2.0]))
    tab = pa.table({"i": pa.array([1], pa.int64()), "geometry": encode_wkb(ga)})
    gj = str(tmp_path / "a.geojsonl")
    write_geojsonl(tab, gj)
    assert read_file(gj).count() == 1
    import pytest
    with pytest.raises(ValueError, match="unsupported vector format"):
        read_file(str(tmp_path / "x.gdb"))
    with pytest.raises(FileNotFoundError):
        read_file(str(tmp_path / "missing.gpkg"))  # gpkg now dispatches


def test_dbf_null_roundtrip_and_overflow(ray_session, tmp_path):
    import numpy as np
    import pyarrow as pa
    import pytest

    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.sources.io import read_file
    from geopolars_ray.sources.shapefile import write_shapefile

    ga = GeometryArray.from_points(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    tab = pa.table({
        "n": pa.array([7, None], pa.int64()),
        "geometry": encode_wkb(ga),
    })
    p = str(tmp_path / "nulls.shp")
    write_shapefile(tab, p)
    rows = read_file(p).take_all()
    vals = sorted((r["n"] for r in rows), key=lambda v: (v is None, v))
    assert vals[0] == 7 and vals[1] is None  # null stays null, not 0

    big = pa.table({
        "s": pa.array(["x" * 100]),
        "geometry": encode_wkb(GeometryArray.from_points(np.array([0.0]), np.array([0.0]))),
    })
    with pytest.raises(ValueError, match="width"):
        write_shapefile(big, str(tmp_path / "too_wide.shp"))


def test_shapefile_hole_touching_its_exterior():
    """A hole whose first vertex lies on its exterior's boundary goes to
    that exterior, not to exterior 0: every hole vertex is tested, boundary
    included."""
    from geopolars_ray.sources.shapefile import _polygon_record

    small = [(0, 0), (0, 1), (1, 1), (1, 0), (0, 0)]  # clockwise exteriors
    big = [(10, 0), (10, 4), (14, 4), (14, 0), (10, 0)]
    hole = [(10, 2), (12, 1), (12, 3), (10, 2)]  # counterclockwise
    kind, parts = _polygon_record([small, big, hole])
    assert kind == "multipolygon"
    assert parts == [[small], [big, hole]]
    # nested: a lake in the big exterior holding an island with a pond;
    # each hole goes to the smallest exterior holding it
    lake = [(11, 1), (13, 1), (13, 3), (11, 3), (11, 1)]
    island = [(11.5, 1.5), (11.5, 2.5), (12.5, 2.5), (12.5, 1.5), (11.5, 1.5)]
    pond = [(11.8, 1.8), (12.2, 1.8), (12.2, 2.2), (11.8, 2.2), (11.8, 1.8)]
    kind, parts = _polygon_record([pond, island, small, lake, big])
    assert parts == [[island, pond], [small], [big, lake]]


def test_shapefile_shx_index(ray_session, tmp_path):
    """The .shx offset index written alongside .shp resolves every record."""
    import struct

    import numpy as np
    import pyarrow as pa

    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.sources.shapefile import write_shapefile

    ga = GeometryArray.from_points(np.arange(5, dtype=np.float64), np.arange(5, dtype=np.float64))
    tab = pa.table({"fid": pa.array(np.arange(5, dtype=np.int64)), "geometry": encode_wkb(ga)})
    p = tmp_path / "idx.shp"
    write_shapefile(tab, str(p))
    shp = p.read_bytes()
    shx = p.with_suffix(".shx").read_bytes()
    n = (len(shx) - 100) // 8
    assert n == 5
    for i in range(n):
        off_w, len_w = struct.unpack(">ii", shx[100 + 8 * i : 108 + 8 * i])
        rec_no, rec_len = struct.unpack(">ii", shp[off_w * 2 : off_w * 2 + 8])
        assert rec_no == i + 1 and rec_len == len_w


def test_shapefile_multipart_polygon_winding(ray_session, tmp_path):
    """Polygon records with several clockwise (exterior) rings split into a
    MultiPolygon; holes attach to the containing exterior (ESRI winding)."""
    import numpy as np
    import pyarrow as pa

    from geopolars_ray.geom import GeometryArray, decode_wkb, encode_wkb
    from geopolars_ray.sources.io import read_file
    from geopolars_ray.sources.shapefile import write_shapefile

    # arbitrary input windings — the writer re-winds to ESRI spec
    ext_a = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)]
    ext_b = [(10.0, 0.0), (12.0, 0.0), (12.0, 2.0), (10.0, 2.0), (10.0, 0.0)]
    hole_a = [(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0), (1.0, 1.0)]
    ga = GeometryArray.from_pylist([("multipolygon", [[ext_a, hole_a], [ext_b]])])
    tab = pa.table({"pid": pa.array([1], pa.int64()), "geometry": encode_wkb(ga)})
    p = str(tmp_path / "multi.shp")
    write_shapefile(tab, p)
    rows = read_file(p).take_all()
    out = decode_wkb(pa.chunked_array([pa.array([bytes(rows[0]["geometry"])], pa.large_binary())]))
    el = out.to_pylist()[0]
    assert el[0] == "multipolygon"
    parts = el[1]
    assert len(parts) == 2
    ring_counts = sorted(len(part) for part in parts)
    assert ring_counts == [1, 2]  # B alone; A with its hole
    # the hole attaches to the part whose exterior contains it
    with_hole = [part for part in parts if len(part) == 2][0]
    hx = sorted(pt[0] for pt in with_hole[1])
    assert hx[0] >= 0.0 and hx[-1] <= 4.0  # hole coords inside A's extent
    # single-exterior polygons round-trip as plain polygons with the hole kept
    single = GeometryArray.from_pylist([("polygon", [ext_a, hole_a])])
    tab2 = pa.table({"pid": pa.array([1], pa.int64()), "geometry": encode_wkb(single)})
    p2 = str(tmp_path / "single.shp")
    write_shapefile(tab2, p2)
    rows2 = read_file(p2).take_all()
    out2 = decode_wkb(pa.chunked_array([pa.array([bytes(rows2[0]["geometry"])], pa.large_binary())]))
    el2 = out2.to_pylist()[0]
    assert el2[0] == "polygon" and len(el2[1]) == 2
    # exterior first after the winding analysis (spec order restored)
    assert abs(el2[1][0][0][0] - 0.0) < 1e-12 or len(el2[1][0]) == 5


def test_write_geoparquet_dataset_partitioned_metadata(ray_session, tmp_path):
    """The distributed partitioned write stamps geo metadata on every file
    in every partition directory."""
    import numpy as np
    import pyarrow as pa
    import ray

    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.sources.io import read_geo_metadata, write_geoparquet_dataset

    n = 1000
    ga = GeometryArray.from_points(np.arange(n, dtype=float), np.arange(n, dtype=float))
    t = pa.table({
        "part": pa.array((np.arange(n) % 3).astype(np.int64)),
        "geometry": encode_wkb(ga),
    })
    out = str(tmp_path / "p")
    write_geoparquet_dataset(ray.data.from_arrow(t), out, crs="EPSG:32633", partition_col="part")
    from pathlib import Path
    files = sorted(Path(out).rglob("*.parquet"))
    assert len(files) >= 3  # one dir per key at least
    dirs = {f.parent.name for f in files}
    assert {"part=0", "part=1", "part=2"} <= dirs
    for f in files:
        meta = read_geo_metadata(str(f))
        assert meta and meta["columns"]["geometry"]["crs"] == "EPSG:32633"


def test_geodataset_read_file_sniffs_parquet_crs(ray_session, tmp_path):
    import numpy as np
    import pyarrow as pa

    from geopolars_ray.api import GeoDataset
    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.sources.io import write_geoparquet

    ga = GeometryArray.from_points(np.array([1.0]), np.array([2.0]))
    t = pa.table({"i": pa.array([1]), "geometry": encode_wkb(ga)})
    p = str(tmp_path / "crs.parquet")
    write_geoparquet(t, p, crs="EPSG:3035")
    gds = GeoDataset.read_file(p)
    assert gds.crs == "EPSG:3035"
    # single-positional to_crs = geopandas-style TARGET, source = tracked
    back = gds.to_crs("EPSG:4326")
    assert back.crs == "EPSG:4326"


def test_geojsonl_mixed_property_schema(ray_session, tmp_path):
    """Line blocks with differing property key sets must still union: one
    driver-sniffed schema is applied to every batch; properties missing in
    a block become nulls (ADVICE r2)."""
    import numpy as np
    import pyarrow as pa
    from geopolars_ray.sources.geojson import read_geojson

    p = str(tmp_path / "mixed.geojsonl")
    with open(p, "w") as f:
        for i in range(400):
            # second half lacks "extra" and adds an unseen key
            props = {"fid": i, "extra": "e%d" % i} if i < 200 else {"fid": i, "late": i}
            f.write(
                '{"type":"Feature","geometry":{"type":"Point","coordinates":[%d,1]},"properties":%s}\n'
                % (i, __import__("json").dumps(props))
            )
    out = read_geojson(p).to_pandas()
    assert len(out) == 400
    assert "fid" in out.columns and "extra" in out.columns
    assert out["extra"].isna().sum() == 200
    # explicit schema= overrides the sniff (picks up the late key)
    sch = pa.schema([("fid", pa.int64()), ("late", pa.int64())])
    out2 = read_geojson(p, schema=sch).to_pandas()
    assert out2["late"].notna().sum() == 200


def test_write_partitioned_no_fabricated_crs(ray_session, tmp_path):
    """write_partitioned must not stamp a default CRS when none is given
    (ADVICE r2); an explicit crs= still stamps geo metadata."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.sources.io import write_partitioned, read_geo_metadata

    t = pa.table({
        "part": pa.array([0, 0, 1, 1]),
        "geometry": encode_wkb(GeometryArray.from_points(np.arange(4.0), np.arange(4.0))),
    })
    out1 = str(tmp_path / "nostamp")
    write_partitioned(ray.data.from_arrow(t), out1, partition_col="part")
    import glob
    f = glob.glob(out1 + "/**/*.parquet", recursive=True)[0]
    assert read_geo_metadata(f) is None

    out2 = str(tmp_path / "stamped")
    write_partitioned(ray.data.from_arrow(t), out2, partition_col="part", crs="EPSG:32633")
    f2 = glob.glob(out2 + "/**/*.parquet", recursive=True)[0]
    meta = read_geo_metadata(f2)
    assert meta is not None


def test_gpkg_roundtrip_where_fids(ray_session, tmp_path):
    """GeoPackage (pure-SQLite) write -> read round-trip; where/fids/bbox/
    columns pushdown; CRS carriage via gpkg_spatial_ref_sys."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    from geopolars_ray.geom import GeometryArray, decode_wkb, encode_wkb
    from geopolars_ray.sources.gpkg import read_gpkg, read_gpkg_crs, write_gpkg
    from geopolars_ray.sources.io import read_file

    n = 500
    x = np.linspace(-60.0, 60.0, n)
    y = np.linspace(-30.0, 30.0, n)
    t = pa.table({
        "name": pa.array(["f%d" % i for i in range(n)]),
        "val": pa.array(np.arange(n, dtype=np.int64)),
        "score": pa.array(x * 0.5),
        "geometry": encode_wkb(GeometryArray.from_points(x, y)),
    })
    p = str(tmp_path / "pts.gpkg")
    write_gpkg(t, p, layer="pts", crs="EPSG:4326")

    # full read round-trips rows + geometry
    df = read_gpkg(p, rows_per_shard=100).to_pandas().sort_values("val")
    assert len(df) == n
    ga = decode_wkb(pa.array(df["geometry"].tolist(), pa.binary()))
    np.testing.assert_allclose(ga.coords[:, 0], x)
    assert read_gpkg_crs(p) == "EPSG:4326"

    # SQL where pushdown (SQLite side)
    df2 = read_gpkg(p, where="val >= 100 AND val < 200", rows_per_shard=64).to_pandas()
    assert sorted(df2["val"].tolist()) == list(range(100, 200))

    # fids selection (fid == rowid == insert order, 1-based)
    df3 = read_gpkg(p, fids=[1, 5, 9]).to_pandas()
    assert sorted(df3["val"].tolist()) == [0, 4, 8]

    # columns projection + bbox
    df4 = read_gpkg(p, columns=["val"], bbox=(-10.0, -10.0, 10.0, 10.0)).to_pandas()
    assert set(df4.columns) == {"val", "geometry"}
    keep = (x >= -10.0) & (x <= 10.0) & (y >= -10.0) & (y <= 10.0)
    assert sorted(df4["val"].tolist()) == np.nonzero(keep)[0].tolist()

    # read_file dispatch + Expression where on gpkg (post-filter path)
    df5 = read_file(p, where=pc.field("val") < 3).to_pandas()
    assert sorted(df5["val"].tolist()) == [0, 1, 2]


def test_read_file_where_expression_parquet(ray_session, tmp_path):
    """Generic `where` (pyarrow Expression) applies right after the scan for
    non-gpkg formats."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.sources.io import read_file

    t = pa.table({
        "val": pa.array(np.arange(20, dtype=np.int64)),
        "geometry": encode_wkb(GeometryArray.from_points(np.arange(20.0), np.zeros(20))),
    })
    p = str(tmp_path / "t.parquet")
    pq.write_table(t, p)
    out = read_file(p, where=pc.bit_wise_and(pc.field("val"), 1) == 0).to_pandas()
    assert sorted(out["val"].tolist()) == list(range(0, 20, 2))
    import pytest
    with pytest.raises(ValueError, match="gpkg-only"):
        read_file(p, where="val > 3")


def test_geodataset_read_file_sniffs_gpkg_crs(ray_session, tmp_path):
    import numpy as np
    import pyarrow as pa
    from geopolars_ray.api import GeoDataset
    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.sources.gpkg import write_gpkg

    t = pa.table({
        "v": pa.array([1, 2], pa.int64()),
        "geometry": encode_wkb(GeometryArray.from_points(np.array([1.0, 2.0]), np.array([3.0, 4.0]))),
    })
    p = str(tmp_path / "c.gpkg")
    write_gpkg(t, p, layer="pts", crs="EPSG:32633")
    gds = GeoDataset.read_file(p)
    assert gds.crs == "EPSG:32633"
    assert gds.count() == 2


def test_gpkg_multi_path_and_edge_cases(ray_session, tmp_path):
    """read_file with a LIST of .gpkg paths unions all files; fids push into
    SQL; empty layers read as empty Datasets (review r3)."""
    import numpy as np
    import pyarrow as pa
    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.sources.gpkg import read_gpkg, write_gpkg
    from geopolars_ray.sources.io import read_file

    def tab(lo, n):
        return pa.table({
            "val": pa.array(np.arange(lo, lo + n, dtype=np.int64)),
            "geometry": encode_wkb(GeometryArray.from_points(
                np.arange(lo, lo + n, dtype=np.float64), np.zeros(n))),
        })

    p1, p2 = str(tmp_path / "a.gpkg"), str(tmp_path / "b.gpkg")
    write_gpkg(tab(0, 5), p1, layer="l")
    write_gpkg(tab(100, 5), p2, layer="l")
    df = read_file([p1, p2]).to_pandas()
    assert sorted(df["val"].tolist()) == list(range(0, 5)) + list(range(100, 105))

    # fids pushdown with shard pruning: request fids outside most shards
    big = str(tmp_path / "big.gpkg")
    write_gpkg(tab(0, 300), big, layer="l")
    got = read_gpkg(big, fids=[3, 250], rows_per_shard=64).to_pandas()
    assert sorted(got["val"].tolist()) == [2, 249]  # fid is 1-based insert order

    # empty layer
    empty = str(tmp_path / "empty.gpkg")
    write_gpkg(tab(0, 0), empty, layer="l")
    assert read_gpkg(empty).count() == 0


def test_kml_roundtrip(ray_session, tmp_path):
    """KML write -> read round-trip: geometry kinds, name/ExtendedData
    properties, columns/bbox, Folder nesting, namespaced documents."""
    import numpy as np
    import pyarrow as pa
    from geopolars_ray.geom import GeometryArray, decode_wkb, encode_wkb
    from geopolars_ray.sources.io import read_file
    from geopolars_ray.sources.kml import read_kml, write_kml

    ga = GeometryArray.from_pylist([
        ("point", (1.5, 2.25)),
        ("linestring", [(0.0, 0.0), (3.0, 4.0), (5.0, -1.0)]),
        ("polygon", [[(0, 0), (10, 0), (10, 10), (0, 10), (0, 0)],
                     [(2, 2), (4, 2), (4, 4), (2, 4), (2, 2)]]),
        ("multipoint", [(30.0, 30.0), (31.0, 31.0)]),
        ("multipolygon", [[[(20, 20), (22, 20), (22, 22), (20, 20)]],
                          [[(24, 24), (26, 24), (26, 26), (24, 24)]]]),
    ])
    t = pa.table({
        "name": pa.array(["a", "b", "c", "d", "e"]),
        "kind": pa.array(["pt", "ls", "pg", "mp", "mpg"]),
        "geometry": encode_wkb(ga),
    })
    p = str(tmp_path / "shapes.kml")
    write_kml(t, p)

    df = read_kml(p).to_pandas()
    assert df["name"].tolist() == ["a", "b", "c", "d", "e"]
    assert df["kind"].tolist() == ["pt", "ls", "pg", "mp", "mpg"]
    back = decode_wkb(pa.array(df["geometry"].tolist(), pa.binary()))
    assert back.to_pylist() == ga.to_pylist()  # repr-roundtrip coords: exact

    # read_file dispatch + columns projection + bbox
    df2 = read_file(p, columns=["kind"], bbox=(0.5, 1.0, 6.0, 5.0)).to_pandas()
    assert set(df2.columns) == {"kind", "geometry"}
    assert df2["kind"].tolist() == ["pt", "ls", "pg"]  # envelope-intersects

    # raw-feature-order selection
    assert read_kml(p, fids=[0, 4]).to_pandas()["kind"].tolist() == ["pt", "mpg"]
    assert read_kml(p, skip_features=1, max_features=2).to_pandas()["kind"].tolist() == ["ls", "pg"]

    # hand-written namespaced KML with Folder nesting and SchemaData
    src = """<?xml version="1.0" encoding="UTF-8"?>
<kml xmlns="http://www.opengis.net/kml/2.2"><Document><Folder>
<Placemark><name>first</name>
  <ExtendedData><SchemaData schemaUrl="#s"><SimpleData name="pop">42</SimpleData></SchemaData></ExtendedData>
  <Point><coordinates>10.5,-3.25,99.0</coordinates></Point></Placemark>
<Folder><Placemark><description>nested</description>
  <LineString><coordinates>0,0 1,1 2,0</coordinates></LineString></Placemark></Folder>
</Folder></Document></kml>"""
    p3 = str(tmp_path / "ns.kml")
    open(p3, "w").write(src)
    df3 = read_kml(p3).to_pandas()
    assert df3["pop"].tolist() == ["42", None]
    assert df3["description"].tolist() == [None, "nested"]
    g3 = decode_wkb(pa.array(df3["geometry"].tolist(), pa.binary())).to_pylist()
    assert g3[0] == ("point", (10.5, -3.25))  # altitude dropped
    assert g3[1] == ("linestring", [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)])


def test_read_file_feature_selection(ray_session, tmp_path):
    """fids/skip_features/max_features across formats + combination rules."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pytest
    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.sources.geojson import write_geojson
    from geopolars_ray.sources.gpkg import write_gpkg
    from geopolars_ray.sources.io import read_file
    from geopolars_ray.sources.shapefile import write_shapefile

    n = 50
    x = np.arange(n, dtype=np.float64)
    t = pa.table({
        "val": pa.array(np.arange(n, dtype=np.int64)),
        "geometry": encode_wkb(GeometryArray.from_points(x, x * 0.5)),
    })

    shp = str(tmp_path / "pts.shp")
    write_shapefile(t, shp)
    assert read_file(shp, fids=[0, 7, 49]).to_pandas()["val"].tolist() == [0, 7, 49]
    assert read_file(shp, skip_features=45).to_pandas()["val"].tolist() == list(range(45, 50))
    assert read_file(shp, skip_features=10, max_features=3).to_pandas()["val"].tolist() == [10, 11, 12]
    with pytest.raises(ValueError, match="outside record range"):
        read_file(shp, fids=[0, 50]).to_pandas()

    gj = str(tmp_path / "pts.geojson")
    write_geojson(t, gj)
    assert read_file(gj, fids=[1, 2]).to_pandas()["val"].tolist() == [1, 2]
    assert read_file(gj, max_features=4).to_pandas()["val"].tolist() == [0, 1, 2, 3]

    # gpkg: window composes with a where predicate in one SQLite query
    gp = str(tmp_path / "pts.gpkg")
    write_gpkg(t, gp, layer="pts", crs="EPSG:4326")
    got = read_file(gp, where="val % 2 = 0", skip_features=3, max_features=4).to_pandas()
    assert sorted(got["val"].tolist()) == [6, 8, 10, 12]
    assert read_file(gp, skip_features=48).to_pandas()["val"].tolist() == [48, 49]

    # combination rules are loud
    with pytest.raises(ValueError, match="fids cannot be combined"):
        read_file(shp, fids=[1], skip_features=1)
    with pytest.raises(ValueError, match="cannot be combined with bbox"):
        read_file(shp, skip_features=1, bbox=(0, 0, 1, 1))
    with pytest.raises(ValueError, match="gpkg-only"):
        read_file(shp, skip_features=1, where=pc.field("val") > 3)
    with pytest.raises(ValueError, match="single input file"):
        read_file([shp, shp], fids=[1])
    with pytest.raises(ValueError, match="unsupported for .csv"):
        read_file(str(tmp_path / "x.csv"), fids=[1])

    # GeoJSONSeq refuses (distributed line blocks, no global feature index):
    # read_file rejects the .geojsonl suffix up front, and a seq-formatted
    # .json file is caught inside read_geojson after format sniffing
    from geopolars_ray.sources.geojson import write_geojsonl
    gjl = str(tmp_path / "pts.geojsonl")
    write_geojsonl(t, gjl)
    with pytest.raises(ValueError, match="unsupported for .geojsonl"):
        read_file(gjl, skip_features=1)
    seq_json = str(tmp_path / "seq.json")
    write_geojsonl(t, seq_json)
    with pytest.raises(ValueError, match="FeatureCollection-only"):
        read_file(seq_json, skip_features=1)


def test_read_parquet_exchange_block_sizing(ray_session, tmp_path):
    """read_parquet_exchange sizes block count by file bytes (floor 8) and
    returns the same rows as a plain read, for both a file and a directory."""
    import pyarrow.parquet as pq
    from geopolars_ray.sources.io import read_parquet_exchange

    t = pa.table({"i": pa.array(np.arange(10_000)), "v": pa.array(np.arange(10_000) * 0.5)})
    p = str(tmp_path / "small.parquet")
    pq.write_table(t, p)

    ds = read_parquet_exchange(p)
    # tiny file -> the floor of 8 blocks, not CPU-count-driven oversplit
    assert ds.materialize().num_blocks() <= 8
    assert sorted(r["i"] for r in ds.take_all()) == list(range(10_000))

    # directory input: sums .parquet bytes under the dir
    d = tmp_path / "dir"
    d.mkdir()
    pq.write_table(t.slice(0, 5000), str(d / "a.parquet"))
    pq.write_table(t.slice(5000), str(d / "b.parquet"))
    ds2 = read_parquet_exchange(str(d), columns=["i"])
    assert ds2.count() == 10_000
    assert ds2.schema().names == ["i"]


def test_geoparquet_covering_bbox(tmp_path, ray_session):
    """GeoParquet 1.1 covering: pushed row-group pruning + row-exact bbox."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    import ray

    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.sources.io import (
        covering_filter_expression,
        read_geo_dataset,
        read_geo_metadata,
        write_geoparquet,
    )

    rng = np.random.default_rng(17)
    # spatially clustered: first half west, second half east -> with
    # row_group_size=n//2 the two row groups have disjoint bbox stats
    n = 4000
    xs = np.concatenate([rng.uniform(-100, -60, n // 2), rng.uniform(20, 60, n // 2)])
    ys = rng.uniform(-40, 40, n)
    ga = GeometryArray.from_pylist([("point", (float(x), float(y))) for x, y in zip(xs, ys)])
    t = pa.table({"id": np.arange(n), "geometry": encode_wkb(ga)})
    p = str(tmp_path / "cov.parquet")
    write_geoparquet(t, p, covering=True, row_group_size=n // 2)

    geo = read_geo_metadata(p)
    assert geo["version"] == "1.1.0"
    assert geo["columns"]["geometry"]["covering"]["bbox"]["xmin"] == ["bbox", "xmin"]

    # row-group pruning is real: the filtered fragment keeps 1 of 2 groups
    frag = pads.dataset(p, format="parquet").get_fragments().__next__()
    expr = covering_filter_expression((30.0, -10.0, 40.0, 10.0))
    kept = list(frag.split_by_row_group(expr))
    assert pq.ParquetFile(p).num_row_groups == 2 and len(kept) == 1

    # read path: pushed filter == post-scan envelope filter, exactly
    box = (25.0, -20.0, 55.0, 20.0)
    via_cov = read_geo_dataset(p, bbox=box).to_pandas().sort_values("id")
    # strip covering metadata/column to force the post-scan path
    p2 = str(tmp_path / "plain.parquet")
    write_geoparquet(t, p2)
    via_filter = read_geo_dataset(p2, bbox=box).to_pandas().sort_values("id")
    assert list(via_cov["id"]) == list(via_filter["id"]) and len(via_cov) > 0
    # columns= still works and auto-carries the bbox column for the filter
    sel = read_geo_dataset(p, columns=["id", "geometry"], bbox=box)
    assert sel.count() == len(via_cov)


def test_geoparquet_dataset_covering(ray_session, tmp_path):
    import os

    import ray

    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.sources.io import read_geo_dataset, read_geo_metadata, write_geoparquet_dataset

    rng = np.random.default_rng(18)
    n = 6000
    xs, ys = rng.uniform(-170, 170, n), rng.uniform(-80, 80, n)
    ga = GeometryArray.from_pylist([("point", (float(x), float(y))) for x, y in zip(xs, ys)])
    t = pa.table({"id": np.arange(n), "geometry": encode_wkb(ga)})
    out = str(tmp_path / "covds")
    write_geoparquet_dataset(ray.data.from_arrow(t).repartition(4), out, covering=True)
    files = [os.path.join(out, f) for f in os.listdir(out) if f.endswith(".parquet")]
    geo = read_geo_metadata(files[0])
    assert geo["version"] == "1.1.0" and "covering" in geo["columns"]["geometry"]
    box = (-30.0, -20.0, 40.0, 30.0)
    got = read_geo_dataset(out, bbox=box).to_pandas()
    inside = ((xs >= box[0]) & (xs <= box[2]) & (ys >= box[1]) & (ys <= box[3])).sum()
    assert len(got) == inside > 0


def test_read_file_mask(ray_session, tmp_path):
    """GeoPandas-style mask=: exact intersects refine on top of the mask's
    envelope pushdown; point rows vectorized PIP, lines via distance==0."""
    import ray

    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.sources.io import read_file, write_geoparquet

    rng = np.random.default_rng(19)
    n = 5000
    xs, ys = rng.uniform(-50, 50, n), rng.uniform(-50, 50, n)
    geoms = [("point", (float(x), float(y))) for x, y in zip(xs, ys)]
    # a line crossing the mask but with no vertex inside it, one far away
    geoms += [("linestring", [(-40.0, 5.0), (40.0, 5.0)]),
              ("linestring", [(40.0, 40.0), (45.0, 45.0)])]
    t = pa.table({"id": np.arange(len(geoms)),
                  "geometry": encode_wkb(GeometryArray.from_pylist(geoms))})
    p = str(tmp_path / "m.parquet")
    write_geoparquet(t, p)

    diamond = ("polygon", [[(-10.0, 0.0), (0.0, -10.0), (10.0, 0.0), (0.0, 10.0), (-10.0, 0.0)]])
    got = read_file(p, mask=diamond).to_pandas()
    inside = (np.abs(xs) + np.abs(ys)) < 10.0
    expect = set(np.nonzero(inside)[0].astype(int)) | {n}  # crossing line matches
    assert set(got["id"].astype(int)) == expect

    # WKB mask form and the bbox-exclusivity rule
    wkb_mask = encode_wkb(GeometryArray.from_pylist([diamond]))[0].as_py()
    got2 = read_file(p, mask=wkb_mask).to_pandas()
    assert set(got2["id"].astype(int)) == expect
    import pytest as _p
    with _p.raises(ValueError, match="mask cannot be combined"):
        read_file(p, mask=diamond, bbox=(0, 0, 1, 1))


def test_covering_review_fixes(ray_session, tmp_path):
    """Mixed covering/plain inputs fall back (no crash); columns= projection
    is honored (bbox column dropped); Path input works."""
    from pathlib import Path

    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.sources.io import read_geo_dataset, write_geoparquet

    rng = np.random.default_rng(20)
    n = 2000
    xs, ys = rng.uniform(-50, 50, n), rng.uniform(-50, 50, n)
    t = pa.table({"id": np.arange(n), "geometry": encode_wkb(GeometryArray.from_points(xs, ys))})
    cov = str(tmp_path / "c.parquet")
    plain = str(tmp_path / "p.parquet")
    write_geoparquet(t, cov, covering=True)
    write_geoparquet(t, plain)
    box = (-10.0, -10.0, 10.0, 10.0)
    inside = int(((xs >= -10) & (xs <= 10) & (ys >= -10) & (ys <= 10)).sum())
    # mixed inputs: post-scan fallback, correct rows, no crash
    mixed = read_geo_dataset([cov, plain], bbox=box)
    assert mixed.count() == 2 * inside
    # projection honored on the pushed path
    sel = read_geo_dataset(cov, columns=["id", "geometry"], bbox=box)
    assert set(sel.schema().names) == {"id", "geometry"}
    assert sel.count() == inside
    # pathlib.Path input
    assert read_geo_dataset(Path(cov), bbox=box).count() == inside


def test_mask_review_fixes(ray_session, tmp_path):
    """mask+fids refuses with a mask-named error; mask+window is allowed
    (post-scan, pyogrio-style)."""
    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.sources.io import read_file

    t = pa.table({
        "id": np.arange(6),
        "geometry": encode_wkb(GeometryArray.from_pylist(
            [("point", (float(i), 0.0)) for i in range(6)])),
    })
    import json
    gj = {"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {"id": i},
         "geometry": {"type": "Point", "coordinates": [float(i), 0.0]}}
        for i in range(6)]}
    p = str(tmp_path / "m.geojson")
    open(p, "w").write(json.dumps(gj))
    diamond = ("polygon", [[(1.5, -1.0), (4.5, -1.0), (4.5, 1.0), (1.5, 1.0), (1.5, -1.0)]])
    got = read_file(p, mask=diamond).to_pandas()
    assert sorted(got["id"]) == [2, 3, 4]
    # window + mask: first 4 features, then mask -> ids 2,3
    got2 = read_file(p, mask=diamond, max_features=4).to_pandas()
    assert sorted(got2["id"]) == [2, 3]
    import pytest as _p
    with _p.raises(ValueError, match="mask cannot be combined with fids"):
        read_file(p, mask=diamond, fids=[1])


def test_read_file_zip(ray_session, tmp_path):
    """Zipped vector delivery: a .zip holding .shp + sidecars reads like
    the bare shapefile; multi-member archives need member=; sidecar
    stems stay associated."""
    import zipfile

    import ray

    from geopolars_ray.api import GeoDataset
    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.sources.io import read_file
    from geopolars_ray.sources.shapefile import write_shapefile

    pts = GeometryArray.from_pylist(
        [("point", (float(i), float(i * 2))) for i in range(10)])
    t = pa.table({"geometry": encode_wkb(pts),
                  "name": pa.array([f"p{i}" for i in range(10)])})
    shp = tmp_path / "pts.shp"
    write_shapefile(t, str(shp))
    z = tmp_path / "pts.zip"
    with zipfile.ZipFile(z, "w") as zf:
        for sib in tmp_path.iterdir():
            if sib.suffix in (".shp", ".dbf", ".shx"):
                zf.write(sib, arcname=f"data/{sib.name}")
    out = read_file(str(z)).take_all()
    assert len(out) == 10
    assert sorted(r["name"] for r in out) == sorted(f"p{i}" for i in range(10))
    # bbox pushdown flows through the recursion
    out2 = read_file(str(z), bbox=(0.0, 0.0, 4.0, 8.0)).take_all()
    assert len(out2) == 5
    # two vector members -> loud error naming them, member= resolves
    z2 = tmp_path / "two.zip"
    gj = tmp_path / "extra.geojson"
    gj.write_text('{"type":"FeatureCollection","features":[{"type":"Feature",'
                  '"geometry":{"type":"Point","coordinates":[1.0,2.0]},'
                  '"properties":{"name":"g"}}]}')
    with zipfile.ZipFile(z2, "w") as zf:
        zf.write(tmp_path / "pts.shp", arcname="pts.shp")
        zf.write(tmp_path / "pts.dbf", arcname="pts.dbf")
        zf.write(gj, arcname="extra.geojson")
    with pytest.raises(ValueError, match="member"):
        read_file(str(z2))
    out3 = read_file(str(z2), member="extra.geojson").take_all()
    assert len(out3) == 1 and out3[0]["name"] == "g"


def test_shapefile_prj_crs_roundtrip(ray_session, tmp_path):
    """CRS carriage via the .prj sidecar: write with crs=EPSG:4326 ->
    read_file sniffs it back; ESRI-style authority-less WKT falls back
    to the WGS84 heuristic; unknown codes write no sidecar."""
    from geopolars_ray.api import GeoDataset
    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.sources.shapefile import (
        read_prj_crs,
        write_shapefile,
    )

    pts = GeometryArray.from_pylist([("point", (1.0, 2.0))])
    t = pa.table({"geometry": encode_wkb(pts)})
    shp = tmp_path / "a.shp"
    write_shapefile(t, str(shp), crs="EPSG:4326")
    assert (tmp_path / "a.prj").exists()
    assert read_prj_crs(str(shp)) == "EPSG:4326"
    gd = GeoDataset.read_file(str(shp))
    assert gd.crs == "EPSG:4326"
    # ESRI-style .prj without AUTHORITY
    (tmp_path / "a.prj").write_text(
        'GEOGCS["GCS_WGS_1984",DATUM["D_WGS_1984",SPHEROID["WGS_1984",'
        '6378137.0,298.257223563]],PRIMEM["Greenwich",0.0],'
        'UNIT["Degree",0.0174532925199433]]')
    assert read_prj_crs(str(shp)) == "EPSG:4326"
    # arbitrary authority code extraction (outermost = last)
    (tmp_path / "a.prj").write_text(
        'PROJCS["X",GEOGCS["WGS 84",AUTHORITY["EPSG","4326"]],'
        'AUTHORITY["EPSG","32633"]]')
    assert read_prj_crs(str(shp)) == "EPSG:32633"
    # unknown crs: no sidecar written
    shp2 = tmp_path / "b.shp"
    write_shapefile(t, str(shp2), crs="EPSG:27700")
    assert not (tmp_path / "b.prj").exists()
    assert read_prj_crs(str(shp2)) is None


def test_shapefile_overwrite_clears_stale_sidecars(ray_session, tmp_path):
    """Overwriting a shapefile must not leave stale .dbf attributes or a
    stale .prj CRS from the previous write (silent wrong data)."""
    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.sources.shapefile import (
        read_prj_crs,
        read_shapefile,
        write_shapefile,
    )

    pts = GeometryArray.from_pylist([("point", (1.0, 2.0))])
    with_attrs = pa.table({"geometry": encode_wkb(pts),
                           "name": pa.array(["old"])})
    shp = tmp_path / "o.shp"
    write_shapefile(with_attrs, str(shp), crs="EPSG:4326")
    assert (tmp_path / "o.dbf").exists() and (tmp_path / "o.prj").exists()
    # geometry-only overwrite with unknown crs: BOTH sidecars must go
    geom_only = pa.table({"geometry": encode_wkb(pts)})
    write_shapefile(geom_only, str(shp), crs="EPSG:27700")
    assert not (tmp_path / "o.dbf").exists()
    assert not (tmp_path / "o.prj").exists()
    out = read_shapefile(str(shp)).take_all()
    assert len(out) == 1 and "name" not in out[0]
    assert read_prj_crs(str(shp)) is None


def test_prj_nested_authority_not_promoted(tmp_path):
    """A .prj whose only authorities are NESTED (datum / unit-of-measure)
    must not report a UoM code as the dataset CRS."""
    from geopolars_ray.sources.shapefile import crs_from_prj_wkt

    wkt = ('PROJCS["Custom_Lambert",GEOGCS["NAD83",DATUM["D_NAD83",'
           'SPHEROID["GRS_1980",6378137,298.257222101]],'
           'AUTHORITY["EPSG","4269"]],PROJECTION["Lambert_Conformal_Conic"],'
           'UNIT["metre",1,AUTHORITY["EPSG","9001"]],'
           'PARAMETER["false_easting",0]]')
    assert crs_from_prj_wkt(wkt) is None
    # but a true top-level authority is accepted
    wkt2 = ('PROJCS["X",GEOGCS["WGS 84",AUTHORITY["EPSG","4326"]],'
            'AUTHORITY["EPSG","32633"]]')
    assert crs_from_prj_wkt(wkt2) == "EPSG:32633"


def test_zip_macos_junk_and_crs_composition(ray_session, tmp_path):
    """Finder-made zips carry __MACOSX/._* junk whose extension matches —
    they must not force member=; and a zipped shapefile's .prj must flow
    into GeoDataset.read_file's crs."""
    import zipfile

    from geopolars_ray.api import GeoDataset
    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.sources.io import read_file
    from geopolars_ray.sources.shapefile import write_shapefile

    pts = GeometryArray.from_pylist([("point", (3.0, 4.0))])
    t = pa.table({"geometry": encode_wkb(pts), "v": pa.array([7])})
    shp = tmp_path / "m.shp"
    write_shapefile(t, str(shp), crs="EPSG:4326")
    z = tmp_path / "m.zip"
    with zipfile.ZipFile(z, "w") as zf:
        for ext in (".shp", ".dbf", ".shx", ".prj"):
            zf.write(tmp_path / f"m{ext}", arcname=f"m{ext}")
        zf.writestr("__MACOSX/._m.shp", b"\x00\x05\x16\x07junk")
        zf.writestr("__MACOSX/._m.dbf", b"\x00\x05\x16\x07junk")
    out = read_file(str(z)).take_all()   # no member= needed
    assert len(out) == 1 and out[0]["v"] == 7
    gd = GeoDataset.read_file(str(z))
    assert gd.crs == "EPSG:4326"


def test_to_file_dispatcher_roundtrips(ray_session, tmp_path):
    """GeoDataset.to_file writes every single-file format and each round
    trips through read_file with geometry + attributes + CRS intact
    where the format records one."""
    import ray

    from geopolars_ray.api import GeoDataset
    from geopolars_ray.geom import GeometryArray, encode_wkb

    pts = GeometryArray.from_pylist(
        [("point", (float(i), float(-i))) for i in range(8)])
    t = pa.table({"geometry": encode_wkb(pts),
                  "tag": pa.array([f"t{i}" for i in range(8)])})
    gd = GeoDataset(ray.data.from_arrow(t), crs="EPSG:4326")
    for ext in ("shp", "zip", "geojson", "geojsonl", "gpkg", "kml", "gml",
                "fgb", "parquet"):
        p = tmp_path / f"out.{ext}"
        gd.to_file(str(p))
        back = GeoDataset.read_file(str(p))
        rows = back.dataset.take_all()
        assert len(rows) == 8, ext
        assert sorted(str(r["tag"]) for r in rows) == sorted(
            f"t{i}" for i in range(8)), ext
        if ext in ("shp", "zip", "gpkg", "parquet", "fgb"):
            assert back.crs == "EPSG:4326", (ext, back.crs)


def test_to_file_fgb_crs_carriage(ray_session, tmp_path):
    """ADVICE r4: .fgb to_file must forward the dataset CRS — EPSG:3857
    data must not get a header claiming 4326, and an unknown CRS must
    write NO crs record rather than the writer's default."""
    import ray

    from geopolars_ray.api import GeoDataset
    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.sources.flatgeobuf import read_fgb_crs

    pts = GeometryArray.from_pylist([("point", (1.0, 2.0))])
    t = pa.table({"geometry": encode_wkb(pts)})
    p = tmp_path / "m.fgb"
    GeoDataset(ray.data.from_arrow(t), crs="EPSG:3857").to_file(str(p))
    assert read_fgb_crs(str(p)) == "EPSG:3857"
    assert GeoDataset.read_file(str(p)).crs == "EPSG:3857"
    p2 = tmp_path / "none.fgb"
    GeoDataset(ray.data.from_arrow(t), crs=None).to_file(str(p2))
    assert read_fgb_crs(str(p2)) is None
    p3 = tmp_path / "odd.fgb"
    GeoDataset(ray.data.from_arrow(t), crs="ESRI:102008").to_file(str(p3))
    assert read_fgb_crs(str(p3)) is None


def test_prj_utm_template_roundtrip(ray_session, tmp_path):
    """UTM .prj carriage: templated WKT for EPSG:326xx/327xx round-trips
    through read_prj_crs, with correct central meridian / false
    northing embedded."""
    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.sources.shapefile import (
        _wkt_for_crs,
        read_prj_crs,
        write_shapefile,
    )

    pts = GeometryArray.from_pylist([("point", (500000.0, 4649776.0))])
    t = pa.table({"geometry": encode_wkb(pts)})
    shp = tmp_path / "u.shp"
    for crs in ("EPSG:32633", "EPSG:32701", "EPSG:32760"):
        write_shapefile(t, str(shp), crs=crs)
        assert read_prj_crs(str(shp)) == crs
    wkt = _wkt_for_crs("EPSG:32633")
    assert 'central_meridian",15' in wkt and 'false_northing",0' in wkt
    wkt_s = _wkt_for_crs("EPSG:32701")
    assert 'central_meridian",-177' in wkt_s and 'false_northing",10000000' in wkt_s
    assert _wkt_for_crs("EPSG:32661") is None  # polar stereo: not UTM
    assert _wkt_for_crs("EPSG:32600") is None  # zone 0 invalid
