"""Large-large kNN join: exactness vs brute force, incl. fallback path."""

import numpy as np
import pyarrow as pa
import pytest


def test_knn_join_matches_brute_force(ray_session):
    import ray
    from geopolars_ray.stages.knn import knn_join

    rng = np.random.default_rng(41)
    n_pts, n_tgt, k = 1500, 1000, 3
    # clustered points and targets, plus isolated points that force the
    # broadcast fallback (no candidates in their 3x3 cell block)
    px = np.concatenate([rng.uniform(0, 20, n_pts - 10), rng.uniform(60, 70, 10)])
    py = np.concatenate([rng.uniform(0, 20, n_pts - 10), rng.uniform(60, 70, 10)])
    tx = rng.uniform(0, 20, n_tgt)
    ty = rng.uniform(0, 20, n_tgt)

    pts = pa.table({"pid": pa.array(np.arange(n_pts)), "x": pa.array(px), "y": pa.array(py)})
    tgt = pa.table({"tid": pa.array(np.arange(n_tgt)), "x": pa.array(tx), "y": pa.array(ty)})

    out = knn_join(
        ray.data.from_arrow(pts),
        ray.data.from_arrow(tgt),
        k=k,
        cell_deg=2.0,
        num_partitions=4,
    ).to_pandas()

    assert len(out) == n_pts * k
    # brute-force reference with the same tie-break (distance, tid)
    d = np.sqrt((px[:, None] - tx[None, :]) ** 2 + (py[:, None] - ty[None, :]) ** 2)
    for pid in rng.choice(n_pts, 80, replace=False).tolist() + list(range(n_pts - 10, n_pts)):
        order = np.lexsort((np.arange(n_tgt), d[pid]))[:k]
        got = out[out.pid == pid].sort_values("rank")
        assert got["tid"].tolist() == order.tolist(), pid
        np.testing.assert_allclose(got["distance"].to_numpy(), d[pid][order])


def test_knn_join_id_types(ray_session):
    """int32 ids flow through and come back int32; string ids are rejected
    up front with a documented error (ADVICE r2)."""
    import pytest
    import ray
    from geopolars_ray.stages.knn import knn_join

    rng = np.random.default_rng(7)
    n_pts, n_tgt, k = 200, 120, 2
    px, py = rng.uniform(0, 10, n_pts), rng.uniform(0, 10, n_pts)
    tx, ty = rng.uniform(0, 10, n_tgt), rng.uniform(0, 10, n_tgt)
    pts = pa.table({
        "pid": pa.array(np.arange(n_pts, dtype=np.int32), pa.int32()),
        "x": pa.array(px), "y": pa.array(py),
    })
    tgt = pa.table({
        "tid": pa.array(np.arange(n_tgt, dtype=np.int32), pa.int32()),
        "x": pa.array(tx), "y": pa.array(ty),
    })
    out = knn_join(
        ray.data.from_arrow(pts), ray.data.from_arrow(tgt),
        k=k, cell_deg=3.0, num_partitions=2,
    )
    sch = out.schema()
    types = dict(zip(sch.names, sch.types))
    assert types["pid"] == pa.int32() and types["tid"] == pa.int32()
    df = out.to_pandas()
    assert len(df) == n_pts * k
    d = np.sqrt((px[:, None] - tx[None, :]) ** 2 + (py[:, None] - ty[None, :]) ** 2)
    for pid in (0, 57, 123):
        order = np.lexsort((np.arange(n_tgt), d[pid]))[:k]
        got = df[df.pid == pid].sort_values("rank")
        assert got["tid"].tolist() == order.tolist()

    spts = pa.table({"pid": pa.array(["a", "b"]), "x": pa.array([0.0, 1.0]), "y": pa.array([0.0, 1.0])})
    with pytest.raises(ValueError, match="integer id columns"):
        knn_join(ray.data.from_arrow(spts), ray.data.from_arrow(tgt), k=1)


def test_sjoin_nearest(ray_session):
    """sjoin_nearest == brute-force nearest (inner shape, max_distance cut)."""
    import numpy as np
    import pyarrow as pa
    import ray

    from geopolars_ray.stages.knn import sjoin_nearest

    rng = np.random.default_rng(3)
    n, m = 3000, 400
    px, py = rng.uniform(0, 20, n), rng.uniform(0, 20, n)
    tx, ty = rng.uniform(0, 20, m), rng.uniform(0, 20, m)
    pts = ray.data.from_arrow(pa.table({"pid": pa.array(np.arange(n)), "x": pa.array(px), "y": pa.array(py)}))
    tgt = ray.data.from_arrow(pa.table({"tid": pa.array(np.arange(m)), "x": pa.array(tx), "y": pa.array(ty)}))
    out = sjoin_nearest(pts, tgt, max_distance=1.5, cell_deg=4.0,
                        distance_col="d").to_pandas().sort_values("pid")
    # brute force
    d2 = (px[:, None] - tx[None, :]) ** 2 + (py[:, None] - ty[None, :]) ** 2
    nearest = np.argmin(d2, axis=1)  # lowest index wins ties (same as engine)
    nd = np.sqrt(d2[np.arange(n), nearest])
    keep = nd <= 1.5
    assert len(out) == int(keep.sum())
    got = dict(zip(out["pid"], out["tid"]))
    gotd = dict(zip(out["pid"], out["d"]))
    for i in np.nonzero(keep)[0]:
        assert got[i] == nearest[i]
        assert abs(gotd[i] - nd[i]) < 1e-12
    assert list(out.columns) == ["pid", "tid", "d"]


def test_dwithin_join_vs_bruteforce(ray_session):
    import ray.data

    from geopolars_ray.stages.knn import dwithin_join

    rng = np.random.default_rng(31)
    npts, ntgt, d = 600, 500, 0.7
    px, py = rng.uniform(0, 20, npts), rng.uniform(0, 20, npts)
    tx, ty = rng.uniform(0, 20, ntgt), rng.uniform(0, 20, ntgt)
    pts = ray.data.from_arrow(pa.table({"pid": np.arange(npts), "x": px, "y": py})).repartition(4)
    tgt = ray.data.from_arrow(pa.table({"tid": np.arange(ntgt), "x": tx, "y": ty})).repartition(4)
    out = dwithin_join(pts, tgt, d, num_partitions=8).take_all()
    got = {(r["pid"], r["tid"]): r["distance"] for r in out}
    dd = np.hypot(px[:, None] - tx[None, :], py[:, None] - ty[None, :])
    ii, jj = np.nonzero(dd <= d)
    assert len(got) == len(ii)
    for i, j in zip(ii.tolist(), jj.tolist()):
        assert np.isclose(got[(i, j)], dd[i, j], rtol=1e-12)
    # strip-chunked path (tiny strip_cost) produces the identical pair set
    out2 = dwithin_join(pts, tgt, d, num_partitions=8, strip_cost=64).take_all()
    assert {(r["pid"], r["tid"]) for r in out2} == set(got)
    # oversized cells are allowed (still exact), undersized refuse loudly
    out3 = dwithin_join(pts, tgt, d, cell_size=5.0, num_partitions=8).take_all()
    assert {(r["pid"], r["tid"]) for r in out3} == set(got)
    with pytest.raises(ValueError, match="cell_size"):
        dwithin_join(pts, tgt, d, cell_size=0.1)


def test_dwithin_self_join_geo_dedup(ray_session):
    """Coordinate near-dup dedup: canonical dwithin self-join -> connected
    components -> one representative per duplicate cluster."""
    import ray.data

    from geopolars_ray.stages.cc import connected_components
    from geopolars_ray.stages.knn import dwithin_join

    rng = np.random.default_rng(32)
    # 40 well-separated sites, each jittered into a 3-point cluster
    sx, sy = rng.uniform(0, 100, 40), rng.uniform(0, 100, 40)
    x = np.concatenate([sx + off for off in (0.0, 0.001, -0.001)])
    y = np.concatenate([sy + off for off in (0.0, 0.001, 0.001)])
    n = len(x)
    t = pa.table({"pid": np.arange(n), "x": x, "y": y})
    ds = ray.data.from_arrow(t).repartition(4)
    t2 = pa.table({"tid": np.arange(n), "x": x, "y": y})
    ds2 = ray.data.from_arrow(t2).repartition(4)
    pairs = dwithin_join(ds, ds2, 0.01, point_id="pid", target_id="tid",
                         canonical=True, num_partitions=8).take_all()
    # no self pairs, all canonical
    assert all(r["pid"] < r["tid"] for r in pairs)
    pairs_ds = ray.data.from_arrow(pa.table({
        "a": pa.array([r["pid"] for r in pairs], pa.int64()),
        "b": pa.array([r["tid"] for r in pairs], pa.int64()),
    }))
    comp = connected_components(pairs_ds, "a", "b").take_all()
    labels = {r["node"]: r["component"] for r in comp}
    # every jittered triple collapses to one component
    for s in range(40):
        trio = [s, s + 40, s + 80]
        assert len({labels[i] for i in trio}) == 1
    assert len({labels[i] for i in range(n)}) == 40


def test_distance_joins_on_cell_edges(ray_session):
    """Points and targets on a 0.5-spaced lattice sit on the edges of the
    0.5 cells and at exactly the radius from each other, with duplicate
    coordinates; 8 input blocks go through 3 partitions. dwithin_join
    (plain and canonical) and knn_join equal brute force exactly."""
    import ray.data

    from geopolars_ray.stages.knn import dwithin_join, knn_join

    rng = np.random.default_rng(13)
    n, m, r, k = 500, 300, 0.5, 5
    px, py = rng.integers(-6, 6, n) * r, rng.integers(-6, 6, n) * r
    tx, ty = rng.integers(-6, 6, m) * r, rng.integers(-6, 6, m) * r
    pts = ray.data.from_arrow(pa.table({"pid": np.arange(n), "x": px, "y": py})).repartition(8)
    tgt = ray.data.from_arrow(pa.table({"tid": np.arange(m), "x": tx, "y": ty})).repartition(8)
    d2 = (px[:, None] - tx[None, :]) ** 2 + (py[:, None] - ty[None, :]) ** 2

    got = sorted((r_["pid"], r_["tid"], r_["distance"])
                 for r_ in dwithin_join(pts, tgt, r, num_partitions=3).take_all())
    ii, jj = np.nonzero(d2 <= r * r)
    assert got == sorted(zip(ii.tolist(), jj.tolist(), np.sqrt(d2[ii, jj]).tolist()))

    selfs = ray.data.from_arrow(pa.table({"tid": np.arange(n), "x": px, "y": py})).repartition(8)
    got = sorted((r_["pid"], r_["tid"]) for r_ in
                 dwithin_join(pts, selfs, r, canonical=True, num_partitions=3).take_all())
    dp = (px[:, None] - px[None, :]) ** 2 + (py[:, None] - py[None, :]) ** 2
    ii, jj = np.nonzero((dp <= r * r) & (np.arange(n)[:, None] < np.arange(n)[None, :]))
    assert got == list(zip(ii.tolist(), jj.tolist()))

    got = sorted((r_["pid"], r_["rank"], r_["tid"], r_["distance"]) for r_ in
                 knn_join(pts, tgt, k=k, cell_deg=r, num_partitions=3).take_all())
    dist = np.sqrt(d2)
    want = []
    for i in range(n):
        order = np.lexsort((np.arange(m), dist[i]))[:k]
        want += [(i, rank + 1, int(j), dist[i, j]) for rank, j in enumerate(order)]
    assert got == want
