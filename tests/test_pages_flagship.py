"""Pages synthesizer determinism + flagship pipeline end-to-end."""

import numpy as np
import pyarrow as pa

from geopolars_ray.sources.pages import (
    pages_batch,
    generate_pages_parquet,
    admin_polygons_table,
    extract_text,
    extract_geotag,
    row_fields,
    CITIES,
)
from geopolars_ray.geom import decode_wkb
from geopolars_ray.geom import kernels as K


def test_pages_deterministic_and_partition_independent():
    a = pages_batch(np.arange(0, 200))
    b1 = pages_batch(np.arange(0, 100))
    b2 = pages_batch(np.arange(100, 200))
    assert pa.concat_tables([b1, b2]).equals(a)
    # same seed twice -> identical bytes
    assert pages_batch(np.arange(0, 200)).equals(a)
    # different seed -> different content
    assert not pages_batch(np.arange(0, 200), seed=7).equals(a)


def test_extraction_invariant_byte_identical():
    """The north-star invariant: extract_text(html) == text for every row."""
    t = pages_batch(np.arange(0, 500))
    htmls = t["html"].to_pylist()
    texts = t["text"].to_pylist()
    for h, txt in zip(htmls, texts):
        assert extract_text(h) == txt


def test_geotag_extraction_matches_ground_truth():
    ids = np.arange(0, 500)
    t = pages_batch(ids)
    f = row_fields(ids.astype(np.uint64))
    for k in range(len(ids)):
        tag = extract_geotag(t["text"][k].as_py())
        if f["has_geo"][k]:
            assert tag is not None
            lat, lon = tag
            assert lat == f["lat"][k] and lon == f["lon"][k]  # float-exact
        else:
            assert tag is None


def test_skew_exists():
    """Hot cities dominate (the deliberate skew for salt/combiner testing)."""
    f = row_fields(np.arange(0, 20000, dtype=np.uint64))
    counts = np.bincount(f["city_idx"], minlength=len(CITIES))
    assert counts[0] > 5 * counts[-1]
    assert counts.argmax() == 0  # tokyo has the highest weight


def test_admin_polygons_tile_plane():
    """Diamond cells are non-overlapping and cover the tested points."""
    t = admin_polygons_table(cell_deg=30.0)
    ga = decode_wkb(t["geometry"])
    assert (K.area(ga) > 0).all()
    from geopolars_ray.geom.strtree import PreparedPolygons, GridIndex
    from pip_oracle import points_in_polygon_single as oracle_contains, rings_of

    prep = PreparedPolygons.from_geometry_array(ga)
    grid = GridIndex(prep.bounds)
    rng = np.random.default_rng(2)
    px = rng.uniform(-170, 170, 3000)
    py = rng.uniform(-80, 80, 3000)
    pidx, items = grid.candidates_for_points(px, py)
    hits = np.zeros(len(px), dtype=np.int64)
    for i in range(len(pidx)):
        if oracle_contains(px[int(pidx[i])][None], py[int(pidx[i])][None], rings_of(prep, int(items[i])))[0]:
            hits[pidx[i]] += 1
    # every random point lands in exactly one diamond (boundaries have measure ~0)
    assert (hits == 1).all()


def test_flagship_end_to_end(ray_session, tmp_path):
    import ray
    from geopolars_ray.pipelines.flagship import FusedPagesGeotag, run_flagship_fused

    n = 3000
    pages = str(tmp_path / "pages")
    generate_pages_parquet(pages, n, rows_per_file=1000)
    paths = sorted(str(p) for p in (tmp_path / "pages").glob("*.parquet"))
    kernel = FusedPagesGeotag(admin_polygons_table(), batch_rows=512)
    pts = ray.data.from_items([{"path": p} for p in paths], override_num_blocks=len(paths))
    df = pts.map_batches(kernel, batch_format="pyarrow", batch_size=1).to_pandas()
    # expected: all rows with geo signal are joined to exactly one admin cell
    f = row_fields(np.arange(n, dtype=np.uint64))
    assert len(df) == int(f["has_geo"].sum())
    assert df["admin_id"].notna().all()
    # only the rollup key is tiled
    assert {"url", "lat", "lon", "s2_l12", "admin_id"} <= set(df.columns)
    assert not {"grid_tile", "hex_tile"} & set(df.columns)
    assert not any(c.startswith("h3_r") for c in df.columns)
    # ground truth lat/lon match
    truth = {f"article-{i}": (f["lat"][i], f["lon"][i]) for i in range(n) if f["has_geo"][i]}
    for _, row in df.sample(50, random_state=0).iterrows():
        key = row["url"].rsplit("/", 1)[1]
        tlat, tlon = truth[key]
        assert row["lat"] == tlat and row["lon"] == tlon

    # per-shard counts: every row read, geotagged rows counted before the join
    pts0, rows_in, rows_geo = kernel.shard(paths[0])
    assert rows_in == 1000 and rows_geo == int(f["has_geo"][:1000].sum())
    assert pts0.num_rows == rows_geo

    rollup = run_flagship_fused(pages, num_partitions=4).to_pandas()
    assert rollup["n_pages"].sum() == len(df)
    assert (rollup["n_pages"] > 0).all()


def test_assign_tiles_h3(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray

    from geopolars_ray.stages.extract import assign_tiles
    from geopolars_ray.geom import h3 as h3_mod

    lon = np.array([0.0, 100.0, np.nan])
    lat = np.array([45.0, -30.0, 10.0])
    t = pa.table({"lon": pa.array(lon), "lat": pa.array(lat)})
    out = ray.data.from_arrow(t).map_batches(
        assign_tiles(h3_res=7), batch_format="pyarrow"
    ).take_all()
    expect = h3_mod.latlng_to_cell(lat[:2], lon[:2], 7).view(np.int64)
    assert out[0]["h3_r7"] == expect[0] and out[1]["h3_r7"] == expect[1]
    assert out[2]["h3_r7"] is None


def test_assign_tiles_computes_only_requested_kinds():
    """Each tile kind is computed iff its parameter is not None; the
    defaults stay s2_l12 + grid_tile."""
    from geopolars_ray.geom import s2 as s2_mod
    from geopolars_ray.stages.extract import assign_tiles

    t = pa.table({"lon": pa.array([2.35, np.nan]), "lat": pa.array([48.85, 1.0])})
    cols = lambda **kw: assign_tiles(**kw)(t).column_names[2:]
    assert cols() == ["s2_l12", "grid_tile"]
    assert cols(s2_level=None, grid_cell_deg=None, h3_res=7) == ["h3_r7"]
    assert cols(grid_cell_deg=None, s2_level=10) == ["s2_l10"]
    assert cols(s2_level=None, grid_cell_deg=None, hex_size_deg=0.5) == ["hex_tile"]
    assert cols(s2_level=None, grid_cell_deg=None) == []
    s2 = assign_tiles(grid_cell_deg=None)(t)["s2_l12"].to_pylist()
    assert s2[0] == int(s2_mod.s2_cell_id(np.array([2.35]), np.array([48.85]), level=12)
                        .view(np.int64)[0])
    assert s2[1] is None


def test_fused_flagship_matches_unfused(ray_session, tmp_path):
    """run_flagship_fused (manual read fusion + per-shard partial agg) must
    produce the same rollup as the operator-chain flagship: identical keys
    and exact counts; float sums equal to combiner-reassociation tolerance."""
    import numpy as np
    import pyarrow.parquet as pq
    from flagship_oracle import chain_rollup
    from geopolars_ray.pipelines.flagship import run_flagship_fused
    from geopolars_ray.sources.pages import pages_batch

    d = tmp_path / "pages"
    d.mkdir()
    for s in range(0, 60_000, 20_000):
        pq.write_table(pages_batch(np.arange(s, s + 20_000, dtype=np.int64)),
                       str(d / f"pages-{s:09d}.parquet"))

    a = chain_rollup(str(d)).to_pandas().sort_values(["tile", "admin_id"]).reset_index(drop=True)
    b = run_flagship_fused(str(d), num_partitions=4).to_pandas().sort_values(
        ["tile", "admin_id"]).reset_index(drop=True)
    assert len(a) == len(b)
    assert (a["tile"] == b["tile"]).all() and (a["admin_id"] == b["admin_id"]).all()
    assert (a["n_pages"] == b["n_pages"]).all()
    # atol: per-group lat/lon sums can CANCEL near zero (values straddle the
    # equator/meridian), where any reassociation difference makes the
    # relative error unbounded even though the absolute error is tiny. The
    # unfused path's association follows Ray's PRESSURE-DEPENDENT block
    # splits (observed: in-suite runs on a loaded VM split differently than
    # a solo run), so the bound must cover arbitrary reassociation of up to
    # n<=60k terms with |v|<=180: ~n*eps*sum|v| ~ 1e-4 worst-case chain-vs-
    # tree. The bound is set to that analytic worst case — still 4+ orders
    # below any real defect (one misassigned row moves a sum by O(1)) —
    # because load-dependent block splits make tighter bounds flaky; the
    # fused-vs-fused BIT-identity assert below remains the exactness pin.
    np.testing.assert_allclose(a["sum_lat"], b["sum_lat"], rtol=1e-12, atol=1e-4)
    np.testing.assert_allclose(a["sum_lon"], b["sum_lon"], rtol=1e-12, atol=1e-4)

    # determinism: a second fused run is BIT-identical (deterministic shard
    # grouping regardless of parallelism)
    c = run_flagship_fused(str(d), num_partitions=2).to_pandas().sort_values(
        ["tile", "admin_id"]).reset_index(drop=True)
    assert (b["sum_lat"].to_numpy() == c["sum_lat"].to_numpy()).all()
    assert (b["sum_lon"].to_numpy() == c["sum_lon"].to_numpy()).all()


def test_fused_flagship_h3_variant(ray_session, tmp_path):
    """h3_res=7 switches the fused flagship's rollup key to CANONICAL Uber
    H3 res-7 cells: ids are valid cell-mode res-7 indexes that re-derive
    from the rollup's own mean position, and page counts are conserved
    against the s2-keyed run."""
    import numpy as np
    import pyarrow.parquet as pq
    from geopolars_ray.geom import h3 as h3_mod
    from geopolars_ray.pipelines.flagship import run_flagship_fused
    from geopolars_ray.sources.pages import pages_batch

    d = tmp_path / "pages"
    d.mkdir()
    pq.write_table(pages_batch(np.arange(0, 20_000, dtype=np.int64)),
                   str(d / "pages-000000000.parquet"))

    h = run_flagship_fused(str(d), num_partitions=4, h3_res=7).to_pandas()
    s = run_flagship_fused(str(d), num_partitions=4).to_pandas()
    assert h["n_pages"].sum() == s["n_pages"].sum()
    ids = h["tile"].to_numpy().astype(np.uint64)
    assert (h3_mod.get_resolution(ids) == 7).all()
    assert (((ids >> np.uint64(59)) & np.uint64(0xF)) == 1).all()  # cell mode
    # each group's mean point maps back to its own cell (centroid of a
    # convex-ish cell stays inside; admin split keeps groups sub-cell)
    mlat = (h["sum_lat"] / h["n_pages"]).to_numpy()
    mlon = (h["sum_lon"] / h["n_pages"]).to_numpy()
    back = h3_mod.latlng_to_cell(mlat, mlon, 7)
    assert (back == ids).mean() > 0.99
