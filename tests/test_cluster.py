"""Spatial clustering (stages/cluster.py): DBSCAN vs an exact
brute-force oracle (union-find over the eps-graph), border/noise
semantics, k-means blob recovery + bit-identical determinism across
parallelism levels, and the GeoDataset point-geometry path.
"""

import numpy as np
import pyarrow as pa
import pytest


def _ref_dbscan(X, eps, min_points):
    """Exact reference: core = >= min_points within eps (incl. self);
    clusters = components of the core-core eps-graph labeled by min id;
    border -> min core-neighbor cluster; noise absent from the map."""
    n = len(X)
    D = np.hypot(X[:, 0, None] - X[None, :, 0], X[:, 1, None] - X[None, :, 1])
    nbr = D <= eps
    core = nbr.sum(1) >= min_points
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if core[i] and core[j] and nbr[i, j]:
                parent[find(i)] = find(j)
    comp_min: dict = {}
    for i in range(n):
        if core[i]:
            r = find(i)
            comp_min[r] = min(comp_min.get(r, i), i)
    ref = {i: comp_min[find(i)] for i in range(n) if core[i]}
    for i in range(n):
        if not core[i]:
            cands = [ref[j] for j in range(n) if core[j] and nbr[i, j]]
            if cands:
                ref[i] = min(cands)
    return ref


@pytest.mark.parametrize("seed,eps,minpts", [(0, 1.0, 5), (1, 0.8, 4), (2, 1.5, 8)])
def test_dbscan_matches_bruteforce(ray_session, seed, eps, minpts):
    import ray.data

    from geopolars_ray.stages.cluster import dbscan

    rng = np.random.default_rng(seed)
    blobs = [rng.normal(c, 0.35, (30, 2)) for c in ((0, 0), (8, 0), (4, 7))]
    scatter = rng.uniform(-3, 12, (25, 2))  # sparse background
    X = np.vstack(blobs + [scatter])
    n = len(X)
    ds = ray.data.from_arrow(pa.table(
        {"pid": np.arange(n, dtype=np.int64), "x": X[:, 0], "y": X[:, 1]}
    )).repartition(4)
    out = dbscan(ds, eps=eps, min_points=minpts, num_partitions=8).take_all()
    got = {r["node"]: r["cluster"] for r in out}
    assert got == _ref_dbscan(X, eps, minpts)


def test_dbscan_border_and_noise(ray_session):
    import ray.data

    from geopolars_ray.stages.cluster import dbscan

    # a 6-point line at eps=1.1/minpts=3: interior points 1..4 are core
    # (2 nbrs + self), the ENDPOINTS 0 and 5 are border (1 nbr + self),
    # so the cluster id is the min CORE id (1) extended to the borders
    X = np.array([[0, 0], [1, 0], [2, 0], [3, 0], [4, 0],
                  [5, 0],
                  [50, 50]], dtype=np.float64)
    ds = ray.data.from_arrow(pa.table(
        {"pid": np.arange(7, dtype=np.int64), "x": X[:, 0], "y": X[:, 1]}))
    got = {r["node"]: r["cluster"]
           for r in dbscan(ds, eps=1.1, min_points=3, num_partitions=4).take_all()}
    assert got == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1}  # 6 labeled, noise absent
    assert 6 not in got


def test_kmeans_blob_recovery_and_parallelism_determinism(ray_session):
    import ray
    import ray.data

    from geopolars_ray.stages.cluster import kmeans

    rng = np.random.default_rng(0)
    groups = [rng.normal(c, 0.3, (40, 2)) for c in ((0, 0), (10, 0), (5, 9), (22, 22))]
    X = np.vstack(groups)
    n = len(X)
    t = pa.table({"pid": np.arange(n, dtype=np.int64), "x": X[:, 0], "y": X[:, 1]})
    results = []
    for parts in (2, 8):
        ds = ray.data.from_arrow(t).repartition(parts)
        labeled, cents = kmeans(ds, 4, max_iter=30)
        tbl = pa.concat_tables(ray.get(labeled.to_arrow_refs()))
        results.append((cents, dict(zip(tbl["pid"].to_pylist(),
                                        tbl["cluster"].to_pylist()))))
    (c2, l2), (c8, l8) = results
    assert np.array_equal(c2, c8) and l2 == l8  # bit-identical across parallelism
    # each blob maps to its own cluster, centroids near the true means
    doms = []
    for g, grp in enumerate(groups):
        vals = [l2[i] for i in range(g * 40, g * 40 + 40)]
        dom = max(set(vals), key=vals.count)
        doms.append(dom)
        assert np.hypot(*(c2[dom] - grp.mean(0))) < 0.2
    assert len(set(doms)) == 4
    # ids renumbered by (x, y): centroid array is lexicographically sorted
    assert all(tuple(c2[i]) <= tuple(c2[i + 1]) for i in range(3))


def test_kmeans_k_exceeds_points(ray_session):
    import ray.data

    from geopolars_ray.stages.cluster import kmeans

    ds = ray.data.from_arrow(pa.table({"x": [0.0, 1.0], "y": [0.0, 1.0]}))
    with pytest.raises(ValueError, match="exceeds"):
        kmeans(ds, 5)


def test_cluster_api_on_point_geometry(ray_session):
    import ray
    import ray.data

    from geopolars_ray.api import GeoDataset
    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.stages.agg import concat_blocks

    rng = np.random.default_rng(4)
    X = np.vstack([rng.normal((0, 0), 0.2, (20, 2)),
                   rng.normal((6, 6), 0.2, (20, 2)),
                   [[30.0, 30.0]]])  # noise
    geoms = [("point", (float(x), float(y))) for x, y in X]
    t = pa.table({"pid": np.arange(len(X), dtype=np.int64),
                  "geometry": encode_wkb(GeometryArray.from_pylist(geoms))})
    gd = GeoDataset(ray.data.from_arrow(t).repartition(3))

    db = concat_blocks(gd.cluster_dbscan(eps=1.0, min_points=4, id_col="pid").dataset)
    lab = dict(zip(db["pid"].to_pylist(), db["cluster"].to_pylist()))
    assert lab[40] is None  # noise -> null
    assert len({lab[i] for i in range(20)}) == 1
    assert len({lab[i] for i in range(20, 40)}) == 1
    assert lab[0] != lab[20]
    assert "__cx" not in db.column_names and "geometry" in db.column_names

    km = concat_blocks(gd.cluster_kmeans(2).dataset)
    klab = dict(zip(km["pid"].to_pylist(), km["cluster"].to_pylist()))
    assert len({klab[i] for i in range(20)}) == 1
    assert len({klab[i] for i in range(20, 40)}) == 1


# ------------------------------------------------------------ cluster_within
def _ref_cluster_within(geoms, d):
    """Brute-force single-linkage: union-find over all pairs whose exact
    distance (the engine's own kernel, pairwise-aligned) is <= d."""
    from geopolars_ray.geom import GeometryArray
    from geopolars_ray.geom import kernels as K

    n = len(geoms)
    ii, jj = np.triu_indices(n, 1)
    lhs = GeometryArray.from_pylist([geoms[i] for i in ii])
    rhs = GeometryArray.from_pylist([geoms[j] for j in jj])
    dist = K.distance(lhs, rhs)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j, dv in zip(ii.tolist(), jj.tolist(), dist):
        if dv <= d:
            parent[find(i)] = find(j)
    comp_min: dict = {}
    for i in range(n):
        comp_min[find(i)] = min(comp_min.get(find(i), i), i)
    return {i: comp_min[find(i)] for i in range(n)}


@pytest.mark.parametrize("d", [0.0, 0.3, 1.0])
def test_cluster_within_matches_bruteforce(ray_session, d):
    import ray.data

    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.stages.cluster import cluster_within

    rng = np.random.default_rng(int(d * 10) + 1)
    geoms = []
    for _ in range(60):
        kind = rng.integers(3)
        cx, cy = rng.uniform(0, 12, 2)
        if kind == 0:
            geoms.append(("point", (float(cx), float(cy))))
        elif kind == 1:
            dx, dy = rng.uniform(-1, 1, 2)
            geoms.append(("linestring", [(float(cx), float(cy)),
                                         (float(cx + dx), float(cy + dy))]))
        else:
            s = float(rng.uniform(0.2, 0.8))
            geoms.append(("polygon", [[(float(cx), float(cy)),
                                       (float(cx + s), float(cy)),
                                       (float(cx + s), float(cy + s)),
                                       (float(cx), float(cy + s)),
                                       (float(cx), float(cy))]]))
    t = pa.table({"gid": pa.array(np.arange(60, dtype=np.int64)),
                  "geometry": encode_wkb(GeometryArray.from_pylist(geoms))})
    ds = ray.data.from_arrow(t).repartition(4)
    got = {r["node"]: r["cluster"]
           for r in cluster_within(ds, d, id_col="gid",
                                   num_partitions=8).take_all()}
    assert got == _ref_cluster_within(geoms, d)


def test_cluster_intersecting_chain(ray_session):
    import ray.data

    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.stages.cluster import cluster_intersecting

    # chain of overlapping squares 0-1-2 plus an isolated one
    sq = lambda x: ("polygon", [[(x, 0.0), (x + 1.5, 0.0), (x + 1.5, 1.0),
                                 (x, 1.0), (x, 0.0)]])
    geoms = [sq(0.0), sq(1.0), sq(2.0), sq(10.0)]
    t = pa.table({"gid": pa.array(np.arange(4, dtype=np.int64)),
                  "geometry": encode_wkb(GeometryArray.from_pylist(geoms))})
    got = {r["node"]: r["cluster"]
           for r in cluster_intersecting(ray.data.from_arrow(t),
                                         id_col="gid").take_all()}
    assert got == {0: 0, 1: 0, 2: 0, 3: 3}


def test_cluster_within_api(ray_session):
    import ray

    from geopolars_ray.api import GeoDataset
    from geopolars_ray.geom import GeometryArray, encode_wkb
    from geopolars_ray.stages.agg import concat_blocks

    geoms = [("point", (0.0, 0.0)), ("point", (0.5, 0.0)),
             ("point", (5.0, 5.0))]
    t = pa.table({"gid": pa.array([7, 8, 9], pa.int64()),
                  "geometry": encode_wkb(GeometryArray.from_pylist(geoms))})
    out = concat_blocks(
        GeoDataset(ray.data.from_arrow(t)).cluster_within(1.0, id_col="gid").dataset)
    lab = dict(zip(out["gid"].to_pylist(), out["cluster"].to_pylist()))
    assert lab == {7: 7, 8: 7, 9: 9}
    assert "geometry" in out.column_names

def test_dbscan_min_points_one_isolated_singletons(ray_session):
    """min_points=1 makes EVERY point core (PostGIS): isolated points
    are singleton clusters, not noise (regression: neighbor counts are
    built from emitted pairs, which never see zero-neighbor points)."""
    import ray.data

    from geopolars_ray.stages.cluster import dbscan

    t = pa.table({"pid": pa.array([1, 2, 3], pa.int64()),
                  "x": pa.array([0.0, 100.0, 100.5]),
                  "y": pa.array([0.0, 100.0, 100.0])})
    out = dbscan(ray.data.from_arrow(t), eps=1.0, min_points=1).take_all()
    got = {r["node"]: r["cluster"] for r in out}
    assert got == {1: 1, 2: 2, 3: 2}


def test_kmeans_duplicate_points_guard(ray_session):
    """All-identical coordinates must trip the distinct-sample guard
    instead of silently seeding duplicate centroids."""
    import ray.data

    from geopolars_ray.stages.cluster import kmeans

    t = pa.table({"x": pa.array([5.0] * 100), "y": pa.array([7.0] * 100)})
    with pytest.raises(ValueError, match="distinct"):
        kmeans(ray.data.from_arrow(t), 3)


def test_dbscan_noise_only_zero_pairs(ray_session):
    """Zero eps-pairs (every point isolated): the materialized pair set
    has no blocks and no schema — explicit join schemas must keep the
    pipeline alive (regression). mp=2 -> all noise; mp=1 -> singletons."""
    import ray.data

    from geopolars_ray.stages.cluster import dbscan

    t = pa.table({"pid": pa.array(np.arange(20, dtype=np.int64)),
                  "x": pa.array(np.linspace(0, 1000, 20)),
                  "y": pa.array(np.zeros(20))})
    assert dbscan(ray.data.from_arrow(t), eps=1.0, min_points=2).take_all() == []
    out = dbscan(ray.data.from_arrow(t), eps=1.0, min_points=1).take_all()
    assert len(out) == 20 and all(r["cluster"] == r["node"] for r in out)
