"""Tests: raster<->vector tiles and checkpoint-resumable runs."""

import numpy as np
import pyarrow as pa


def test_rasterize_and_back(ray_session):
    import ray
    from geopolars_ray.stages.raster import rasterize_points, raster_to_points

    rng = np.random.default_rng(31)
    n = 20000
    lon = rng.uniform(0.0, 30.0, n)  # spans two 15-degree tiles in x
    lat = rng.uniform(0.0, 15.0, n)
    val = rng.uniform(0, 10, n)
    t = pa.table({"lon": pa.array(lon), "lat": pa.array(lat), "v": pa.array(val)})
    ds = ray.data.from_arrow(t)

    tiles = rasterize_points(ds, value_col="v", stat="sum", tile_deg=15.0, resolution=16,
                             num_partitions=4).to_pandas()
    assert len(tiles) == 2
    assert tiles["n_points"].sum() == n
    # mass conservation: total raster sum == total value sum
    total = sum(np.asarray(r).sum() for r in tiles["raster"])
    np.testing.assert_allclose(total, val.sum(), rtol=1e-12)
    # count variant conserves points
    counts = rasterize_points(ray.data.from_arrow(t), tile_deg=15.0, resolution=16,
                              stat="count", num_partitions=4).to_pandas()
    assert sum(np.asarray(r).sum() for r in counts["raster"]) == n

    # inverse: every cell becomes a point whose re-rasterization matches
    back = raster_to_points(
        ray.data.from_arrow(pa.Table.from_pandas(counts, preserve_index=False)),
        tile_deg=15.0, resolution=16,
    ).to_pandas()
    assert back["value"].sum() == n
    # cell centers land back in the same cell
    re = rasterize_points(
        ray.data.from_arrow(pa.table({"lon": pa.array(back["cell_lon"]),
                                      "lat": pa.array(back["cell_lat"]),
                                      "v": pa.array(back["value"])})),
        value_col="v", stat="sum", tile_deg=15.0, resolution=16, num_partitions=4,
    ).to_pandas().sort_values("tile").reset_index(drop=True)
    orig = counts.sort_values("tile").reset_index(drop=True)
    for i in range(2):
        np.testing.assert_allclose(np.asarray(re["raster"][i]), np.asarray(orig["raster"][i]))


def test_checkpoint_resume(ray_session, tmp_path):
    from geopolars_ray.sources.pages import generate_pages_parquet
    from geopolars_ray.state.checkpoint import run_resumable, finalize_rollup, _load_manifest

    pages = str(tmp_path / "pages")
    out = str(tmp_path / "out")
    generate_pages_parquet(pages, 4000, rows_per_file=1000)  # 4 shards

    # interrupted run: only 2 shards processed
    m1 = run_resumable(pages, out, max_shards=2)
    assert m1["newly_processed"] == 2 and m1["pending"] == 2
    manifest = _load_manifest(out)
    assert len(manifest) == 2
    rec = next(iter(manifest.values()))
    assert {"rows_in", "rows_geotagged", "rows_joined", "wall_ms", "input_path",
            "output_path", "engine_version"} <= set(rec)
    assert rec["rows_in"] == 1000

    # resume completes only the remainder
    m2 = run_resumable(pages, out)
    assert m2["newly_processed"] == 2 and m2["pending"] == 0
    assert m2["skipped_completed"] == 2

    # a third run is a no-op
    m3 = run_resumable(pages, out)
    assert m3["newly_processed"] == 0

    # finalized rollup equals the operator-chain rollup
    final = finalize_rollup(out).to_pandas()
    from flagship_oracle import chain_rollup

    ref = chain_rollup(pages).to_pandas()
    a = final.sort_values(["tile", "admin_id"]).reset_index(drop=True)
    b = ref.sort_values(["tile", "admin_id"]).reset_index(drop=True)
    assert a["n_pages"].tolist() == b["n_pages"].tolist()
    assert a["tile"].tolist() == b["tile"].tolist()
    np.testing.assert_allclose(a["sum_lat"], b["sum_lat"])


def _sorted_rollup(ds):
    return ds.to_pandas().sort_values(["tile", "admin_id"]).reset_index(drop=True)


def test_checkpoint_matches_fused(ray_session, tmp_path):
    """run_resumable + finalize_rollup gives run_flagship_fused's rollup on
    the same shards, in one pass and when resumed after two shards."""
    from geopolars_ray.sources.pages import generate_pages_parquet
    from geopolars_ray.pipelines.flagship import run_flagship_fused
    from geopolars_ray.state.checkpoint import run_resumable, finalize_rollup, _load_manifest

    pages = str(tmp_path / "pages")
    generate_pages_parquet(pages, 4000, rows_per_file=1000)  # 4 shards
    ref = _sorted_rollup(run_flagship_fused(pages, num_partitions=4))

    one = str(tmp_path / "one")
    run_resumable(pages, one)
    two = str(tmp_path / "two")
    assert run_resumable(pages, two, max_shards=2)["pending"] == 2
    assert run_resumable(pages, two)["newly_processed"] == 2

    for out in (one, two):
        got = _sorted_rollup(finalize_rollup(out, num_partitions=4))
        assert list(got.columns) == ["tile", "admin_id", "n_pages", "sum_lat", "sum_lon"]
        for c in ("tile", "admin_id", "n_pages"):
            assert got[c].tolist() == ref[c].tolist()
        # both merges sum the same kernel's per-shard partials in shard
        # order; the tolerance (a few ulp of the largest partial, |sum| <=
        # 1000 pages * 180 deg, where a group's sum cancels near lat 0 /
        # lon 0) only allows for a reader that orders the files otherwise
        for c in ("sum_lat", "sum_lon"):
            np.testing.assert_allclose(got[c], ref[c], rtol=1e-12, atol=1e-9)
        recs = _load_manifest(out).values()
        assert sum(r["rows_in"] for r in recs) == 4000
        assert sum(r["rows_joined"] for r in recs) == int(got["n_pages"].sum())
        assert all(r["rows_joined"] <= r["rows_geotagged"] < r["rows_in"] for r in recs)


def test_finalize_rejects_partials_of_another_format(ray_session, tmp_path):
    """A checkpoint dir whose partials use an older column layout (`tile`,
    `n`) fails with a ValueError naming the fix, not a KeyError mid-merge."""
    import pytest
    import pyarrow.parquet as pq
    from geopolars_ray.sources.pages import generate_pages_parquet
    from geopolars_ray.state.checkpoint import run_resumable, finalize_rollup, _load_manifest

    pages = str(tmp_path / "pages")
    out = str(tmp_path / "out")
    generate_pages_parquet(pages, 2000, rows_per_file=1000)  # 2 shards
    run_resumable(pages, out)
    rec = next(iter(_load_manifest(out).values()))
    t = pq.read_table(rec["output_path"])
    pq.write_table(t.rename_columns(["tile", "admin_id", "n", "sum_lat", "sum_lon"]),
                   rec["output_path"])
    with pytest.raises(ValueError, match="fresh out_dir"):
        finalize_rollup(out)
