"""hash_aggregate / salted_group_map unit tests vs pandas reference."""

import numpy as np
import pandas as pd
import pyarrow as pa


def _skewed_table(n=40000, hot_frac=0.6, n_keys=200, seed=17):
    rng = np.random.default_rng(seed)
    n_hot = int(n * hot_frac)
    keys = np.concatenate([
        np.zeros(n_hot, dtype=np.int64),  # one very hot key
        rng.integers(1, n_keys, n - n_hot),
    ])
    vals = rng.standard_normal(n)
    ids = np.arange(n, dtype=np.int64)
    return pa.table({"k": pa.array(keys), "v": pa.array(vals), "i": pa.array(ids)})


def test_hash_aggregate_all_fns(ray_session):
    import ray
    from geopolars_ray.stages.agg import hash_aggregate

    t = _skewed_table()
    ds = ray.data.from_arrow(t)
    out = hash_aggregate(
        ds,
        keys=["k"],
        spec=[
            ("v", "sum", "s"),
            ("v", "count", "n"),
            ("v", "min", "lo"),
            ("v", "max", "hi"),
            ("v", "mean", "m"),
        ],
        num_partitions=8,
    ).to_pandas().sort_values("k").reset_index(drop=True)
    ref = (
        t.to_pandas()
        .groupby("k")["v"]
        .agg(s="sum", n="count", lo="min", hi="max", m="mean")
        .reset_index()
    )
    assert out["k"].tolist() == ref["k"].tolist()
    assert out["n"].tolist() == ref["n"].tolist()
    np.testing.assert_allclose(out["s"], ref["s"], rtol=1e-9)
    np.testing.assert_allclose(out["lo"], ref["lo"])
    np.testing.assert_allclose(out["hi"], ref["hi"])
    np.testing.assert_allclose(out["m"], ref["m"], rtol=1e-9)
    # no helper columns leak
    assert set(out.columns) == {"k", "s", "n", "lo", "hi", "m"}


def test_salted_group_map_topk(ray_session):
    """Top-3 values per key via salted two-phase compute on a hot-key table."""
    import ray
    from geopolars_ray.stages.agg import salted_group_map

    t = _skewed_table()

    def partial_topk(g: pa.Table) -> pa.Table:
        v = g["v"].to_numpy(zero_copy_only=False)
        idx = np.argsort(-v)[:3]
        return pa.table({"k": pa.array([g["k"][0].as_py()] * len(idx), pa.int64()),
                         "v": pa.array(v[idx]),
                         "i": pa.array(np.asarray(g["i"].to_pylist(), dtype=np.int64)[idx])})

    merge_topk = partial_topk  # same logic over merged partials

    out = salted_group_map(
        ray.data.from_arrow(t), ["k"], partial_topk, merge_topk, salt=4, num_partitions=8
    ).to_pandas()
    ref = (
        t.to_pandas().sort_values("v", ascending=False).groupby("k").head(3)
    )
    got = set(zip(out["k"].astype(int), out["i"].astype(int)))
    expect = set(zip(ref["k"].astype(int), ref["i"].astype(int)))
    assert got == expect


def test_group_slices():
    from geopolars_ray.stages.agg import group_slices

    t = pa.table({"a": pa.array([2, 1, 2, 1, 3]), "b": pa.array(["x", "y", "x", "y", "z"]),
                  "v": pa.array([1.0, 2.0, 3.0, 4.0, 5.0])})
    groups = {(g["a"][0].as_py(), g["b"][0].as_py()): g.num_rows for g in group_slices(t, ["a", "b"])}
    assert groups == {(1, "y"): 2, (2, "x"): 2, (3, "z"): 1}


def test_asof_join(ray_session):
    import ray
    from geopolars_ray.stages.asof import asof_join

    left = pa.table({
        "event_id": pa.array([1, 2, 3, 4], pa.int64()),
        "user_id": pa.array([7, 7, 8, 8], pa.int64()),
        "ts": pa.array(np.array([100, 250, 50, 300], dtype="datetime64[us]")),
    })
    right = pa.table({
        "user_id": pa.array([7, 7, 8], pa.int64()),
        "ts": pa.array(np.array([90, 200, 299], dtype="datetime64[us]")),
        "value": pa.array([1.5, 2.5, 9.0]),
    })
    out = asof_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right),
        key="user_id", ts_col="ts", right_cols=["value"], num_partitions=2,
    ).to_pandas().sort_values("event_id").reset_index(drop=True)
    # event 1@100 -> 1.5 (90); event 2@250 -> 2.5 (200); event 3@50 -> none;
    # event 4@300 -> 9.0 (299)
    vals = out["value_r"].tolist()
    assert vals[0] == 1.5 and vals[1] == 2.5 and np.isnan(vals[2]) and vals[3] == 9.0
    assert out["event_id"].dtype == np.int64


def test_asof_join_preserves_int64_precision(ray_session):
    """Right value columns keep their Arrow type and exact values above 2^53
    (no float64 NaN-padding round-trip) — ADVICE r1."""
    import ray
    from geopolars_ray.stages.agg import concat_blocks
    from geopolars_ray.stages.asof import asof_join

    big = (1 << 53) + 1  # not representable in float64
    left = pa.table({
        "eid": pa.array([1, 2], pa.int64()),
        "uid": pa.array([7, 7], pa.int64()),
        "ts": pa.array(np.array([100, 10], dtype="datetime64[us]")),
    })
    right = pa.table({
        "uid": pa.array([7], pa.int64()),
        "ts": pa.array(np.array([50], dtype="datetime64[us]")),
        "big": pa.array([big], pa.int64()),
    })
    out = asof_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right),
        key="uid", ts_col="ts", right_cols=["big"], num_partitions=2,
    )
    tab = concat_blocks(out)
    assert tab.schema.field("big_r").type == pa.int64()
    rows = {r["eid"]: r["big_r"] for r in tab.to_pylist()}
    assert rows[1] == big        # exact, not 2^53
    assert rows[2] is None       # no prior match -> null, not NaN


def test_asof_join_float_timestamps(ray_session):
    """Float ts columns (fractional seconds) work — the int64 sortable cast
    only applies to temporal/integer ts (r2 review fix)."""
    import ray
    from geopolars_ray.stages.asof import asof_join

    left = pa.table({
        "eid": pa.array([1, 2], pa.int64()),
        "uid": pa.array([7, 7], pa.int64()),
        "ts": pa.array([1.5, 0.25], pa.float64()),
    })
    right = pa.table({
        "uid": pa.array([7], pa.int64()),
        "ts": pa.array([1.0], pa.float64()),
        "v": pa.array([42], pa.int64()),
    })
    out = asof_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                    key="uid", ts_col="ts", right_cols=["v"], num_partitions=2)
    rows = {r["eid"]: r["v_r"] for r in out.take_all()}
    assert rows[1] == 42 and rows[2] is None


def test_hash_join_modes(ray_session):
    """hash_join left/left_semi/left_anti/inner against a pandas reference,
    including an empty-partition-prone sparse key set."""
    import ray
    from geopolars_ray.stages.hashjoin import hash_join

    left = pa.table({
        "k": pa.array([1, 2, 3, 1000003], pa.int64()),
        "lv": pa.array(["a", "b", "c", "d"]),
    })
    right = pa.table({
        "k": pa.array([2, 1000003, 2], pa.int64()),   # duplicate right key
        "rv": pa.array([20.0, 30.0, 21.0]),
    })
    L = lambda: ray.data.from_arrow(left)
    R = lambda: ray.data.from_arrow(right)
    inner = hash_join(L(), R(), on=["k"], how="inner", num_partitions=8).take_all()
    assert sorted((r["k"], r["rv"]) for r in inner) == [(2, 20.0), (2, 21.0), (1000003, 30.0)]
    lj = hash_join(L(), R(), on=["k"], how="left", num_partitions=8).take_all()
    assert len(lj) == 5  # 2 matches for k=2, 1 for big key, 2 unmatched nulls
    assert sorted(r["rv"] is None for r in lj).count(True) == 2
    semi = hash_join(L(), R(), on=["k"], how="left_semi", num_partitions=8).take_all()
    assert sorted(r["k"] for r in semi) == [2, 1000003]
    anti = hash_join(L(), R(), on=["k"], how="left_anti", num_partitions=8).take_all()
    assert sorted(r["k"] for r in anti) == [1, 3]
    # semi/anti outputs carry ONLY left columns
    assert set(semi[0].keys()) == {"k", "lv"}
    # full outer: every left row plus right-only keys, keys coalesced
    fo = hash_join(
        L(),
        ray.data.from_arrow(pa.table({
            "k": pa.array([2, 7, 1000003], pa.int64()),
            "rv": pa.array([20.0, 70.0, 30.0]),
        })),
        on=["k"], how="full_outer", num_partitions=8,
    ).take_all()
    assert sorted(r["k"] for r in fo) == [1, 2, 3, 7, 1000003]
    by_k = {r["k"]: r for r in fo}
    assert by_k[7]["lv"] is None and by_k[7]["rv"] == 70.0
    assert by_k[1]["rv"] is None and by_k[2]["rv"] == 20.0


def test_hash_join_same_name_value_columns(ray_session):
    """A right value column named like a left non-key column arrives as
    ``<name>_r`` with the right side's values, whether the two share a type
    (and so one union column in the exchange) or not."""
    import ray
    from geopolars_ray.stages.hashjoin import hash_join

    left = pa.table({"k": pa.array([1, 2, 3, 4], pa.int64()),
                     "v": pa.array([10.0, 20.0, 30.0, 40.0]),
                     "w": pa.array([1, 2, 3, 4], pa.int64())})
    right = pa.table({"k": pa.array([2, 3, 3, 9], pa.int64()),
                      "v": pa.array([-2.0, -3.0, -3.5, -9.0]),
                      "w": pa.array(["b", "c", "cc", "z"])})
    L = ray.data.from_arrow(left).repartition(3)
    R = ray.data.from_arrow(right).repartition(2)
    inner = hash_join(L, R, on=["k"], how="inner", num_partitions=4).take_all()
    got = sorted((r["k"], r["v"], r["w"], r["v_r"], r["w_r"]) for r in inner)
    assert got == [(2, 20.0, 2, -2.0, "b"), (3, 30.0, 3, -3.5, "cc"), (3, 30.0, 3, -3.0, "c")]
    lj = hash_join(L, R, on=["k"], how="left", num_partitions=4).take_all()
    by_k = sorted((r["k"], r["v"], r["v_r"], r["w_r"]) for r in lj if r["k"] != 3)
    assert by_k == [(1, 10.0, None, None), (2, 20.0, -2.0, "b"), (4, 40.0, None, None)]
    # a right key named differently: the left key column is never shared
    R2 = ray.data.from_arrow(pa.table({"kk": pa.array([2, 4], pa.int64()),
                                       "k": pa.array([7, 8], pa.int64())}))
    out = hash_join(L, R2, on=["k"], right_on=["kk"], how="inner", num_partitions=4).take_all()
    assert sorted((r["k"], r["k_r"]) for r in out) == [(2, 7), (4, 8)]


def test_hash_join_casts_right_key_to_left_type(ray_session):
    """A right key of another integer type is cast to the left key's type:
    the output key column keeps the left's int32."""
    import ray
    from geopolars_ray.stages.agg import concat_blocks
    from geopolars_ray.stages.hashjoin import hash_join

    L = ray.data.from_arrow(pa.table({"k": pa.array([1, 2, 3, 4], pa.int32()),
                                      "v": pa.array([10, 20, 30, 40], pa.int64())})).repartition(2)
    R = ray.data.from_arrow(pa.table({"k": pa.array([2, 4, 4, 9], pa.int64()),
                                      "w": pa.array(["b", "d", "dd", "z"])})).repartition(2)
    for how in ("inner", "left"):
        out = concat_blocks(hash_join(L, R, on=["k"], how=how, num_partitions=4))
        assert out.schema.field("k").type == pa.int32()
        got = sorted((r["k"], r["v"], r["w"]) for r in out.to_pylist())
        want = [(2, 20, "b"), (4, 40, "d"), (4, 40, "dd")]
        if how == "left":
            want = sorted(want + [(1, 10, None), (3, 30, None)])
        assert got == want


def test_asof_and_interval_join_same_name_columns(ray_session):
    """Both sides carry a non-key column of the same name, once of the same
    type (one union column in the exchange) and once of another type: the
    output keeps the left's values under the plain name and the right's
    under ``<name>_r``."""
    import ray
    from geopolars_ray.stages.asof import asof_join, interval_join

    left = pa.table({"k": pa.array([1, 1, 2], pa.int64()),
                     "ts": pa.array(np.array([100, 300, 100], dtype="datetime64[us]")),
                     "v": pa.array([1.0, 2.0, 3.0])})
    for rv in (pa.array([-1.0, -2.0, -3.0]), pa.array(["a", "b", "c"])):
        right = pa.table({"k": pa.array([1, 1, 2], pa.int64()),
                          "ts": pa.array(np.array([90, 250, 400], dtype="datetime64[us]")),
                          "v": rv})
        L = ray.data.from_arrow(left).repartition(2)
        R = ray.data.from_arrow(right).repartition(2)
        a = asof_join(L, R, key="k", right_cols=["v"], num_partitions=3).take_all()
        got = sorted((r["k"], r["v"], r["v_r"]) for r in a)
        assert got == [(1, 1.0, rv[0].as_py()), (1, 2.0, rv[1].as_py()), (2, 3.0, None)]
        iv = interval_join(L, R, key="k", tolerance_us=60, left_cols=["v"],
                           right_cols=["v"], num_partitions=3).take_all()
        got = sorted((r["k"], r["v"], r["v_r"], r["dt_us"]) for r in iv)
        assert got == [(1, 1.0, rv[0].as_py(), -10), (1, 2.0, rv[1].as_py(), -50)]


def test_sliding_window_aggregate(ray_session):
    import ray
    from geopolars_ray.stages.window import sliding_window_aggregate

    # events at 0.5h, 1.5h, 2.5h for one user; 2h window sliding 1h
    H = 3_600_000_000
    t = pa.table({
        "uid": pa.array([1, 1, 1], pa.int64()),
        "ts": pa.array(np.array([H // 2, 3 * H // 2, 5 * H // 2], dtype="datetime64[us]")),
        "v": pa.array([1, 10, 100], pa.int64()),
    })
    out = sliding_window_aggregate(
        ray.data.from_arrow(t), "ts", 2 * H, H, ["uid"],
        [("v", "sum", "s"), ("v", "count", "n")], num_partitions=2,
    ).to_pandas().sort_values("window_start").reset_index(drop=True)
    # windows: [-1,1):1  [0,2):11  [1,3):110  [2,4):100
    assert out["window_start"].tolist() == [-1, 0, 1, 2]
    assert out["s"].tolist() == [1, 11, 110, 100]
    assert out["n"].tolist() == [1, 2, 2, 1]


def test_grouped_topk_hot_key(ray_session):
    import ray
    from geopolars_ray.stages.window import grouped_topk

    t = _skewed_table()
    out = grouped_topk(
        ray.data.from_arrow(t), ["k"], "v", k=3, descending=True, tie_cols=["i"], salt=4,
    ).to_pandas()
    ref = t.to_pandas().sort_values(["v", "i"], ascending=[False, True]).groupby("k").head(3)
    got = set(zip(out["k"].astype(int), out["i"].astype(int)))
    assert got == set(zip(ref["k"].astype(int), ref["i"].astype(int)))


def test_interval_join_matches_brute_force(ray_session):
    """Range join vs brute force, incl. negative timestamps and exact
    tolerance boundaries (inclusive both ends)."""
    import ray
    from geopolars_ray.stages.asof import interval_join

    rng = np.random.default_rng(9)
    nl, nr, tol = 400, 300, 1000
    lt = rng.integers(-5000, 5000, nl)
    rt = rng.integers(-5000, 5000, nr)
    # force some exact-boundary pairs
    lt[0], rt[0] = 0, tol
    lt[1], rt[1] = 0, -tol
    lk = rng.integers(0, 5, nl)
    rk = rng.integers(0, 5, nr)
    left = pa.table({
        "uid": pa.array(lk), "ts": pa.array(lt.astype("datetime64[us]")),
        "lid": pa.array(np.arange(nl, dtype=np.int64)),
    })
    right = pa.table({
        "uid": pa.array(rk), "ts": pa.array(rt.astype("datetime64[us]")),
        "rid": pa.array(np.arange(nr, dtype=np.int64)),
    })
    out = interval_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right),
        key="uid", ts_col="ts", tolerance_us=tol,
        left_cols=["lid"], right_cols=["rid"], num_partitions=4,
    ).take_all()
    got = {(r["lid"], r["rid_r"]) for r in out}
    expect = {
        (int(i), int(j))
        for i in range(nl) for j in range(nr)
        if lk[i] == rk[j] and abs(int(lt[i]) - int(rt[j])) <= tol
    }
    assert got == expect
    # dt_us is right - left
    for r in out[:50]:
        assert abs(r["dt_us"]) <= tol


def test_sliding_window_fanout_three(ray_session):
    """3h window sliding 1h: every event lands in exactly 3 windows."""
    import ray
    from geopolars_ray.stages.window import sliding_window_aggregate

    H = 3_600_000_000
    t = pa.table({
        "uid": pa.array([1, 1], pa.int64()),
        "ts": pa.array(np.array([H // 2, 7 * H // 2], dtype="datetime64[us]")),
        "v": pa.array([1, 10], pa.int64()),
    })
    out = sliding_window_aggregate(
        ray.data.from_arrow(t), "ts", 3 * H, H, ["uid"],
        [("v", "sum", "s")], num_partitions=2,
    ).to_pandas().sort_values("window_start")
    # event@0.5h -> windows -2,-1,0 ; event@3.5h -> windows 1,2,3
    assert out["window_start"].tolist() == [-2, -1, 0, 1, 2, 3]
    assert out["s"].tolist() == [1, 1, 1, 10, 10, 10]


def test_broadcast_hash_join_matches_hash_join(ray_session):
    import ray
    from geopolars_ray.stages.hashjoin import broadcast_hash_join, hash_join

    left = pa.table({
        "k": pa.array([1, 2, 3, 7, 7], pa.int64()),
        "rv": pa.array(["L1", "L2", "L3", "L7a", "L7b"]),  # collides with right col
    })
    right = pa.table({
        "kk": pa.array([2, 7, 7], pa.int64()),
        "rv": pa.array([20.0, 70.0, 71.0]),
    })
    L = lambda: ray.data.from_arrow(left).repartition(3)
    R = lambda: ray.data.from_arrow(right)
    for how in ("inner", "left", "left_semi", "left_anti"):
        b = broadcast_hash_join(L(), right, on=["k"], right_on=["kk"], how=how).take_all()
        h = hash_join(L(), R(), on=["k"], right_on=["kk"], how=how, num_partitions=4).take_all()
        key = lambda r: tuple(sorted(r.items(), key=lambda kv: kv[0]))
        assert sorted(map(key, b)) == sorted(map(key, h)), how
    # collision renaming: right rv arrives as rv_r
    inner = broadcast_hash_join(L(), right, on=["k"], right_on=["kk"], how="inner").take_all()
    assert {"k", "rv", "rv_r"} <= set(inner[0].keys())


def test_grouped_topk_map_side_combine_exact(ray_session):
    """The r4 per-batch pre-combine must be invisible: randomized data with
    heavy boundary ties matches a pandas per-key reference exactly."""
    import pandas as pd
    import ray

    from geopolars_ray.stages.window import grouped_topk

    rng = np.random.default_rng(21)
    n = 20_000
    df = pd.DataFrame({
        "seg": rng.integers(0, 7, n),
        # few distinct values -> many exact ties at the k boundary
        "price": rng.integers(0, 25, n).astype(np.float64),
        "oid": rng.permutation(n).astype(np.int64),
    })
    ds = ray.data.from_pandas(df).repartition(9)
    out = grouped_topk(ds, keys=["seg"], order_col="price", k=5,
                       descending=True, tie_cols=["oid"], salt=3,
                       num_partitions=4).take_all()
    got = sorted((r["seg"], r["price"], r["oid"]) for r in out)
    want = sorted(
        df.sort_values(["seg", "price", "oid"], ascending=[True, False, True])
        .groupby("seg").head(5)[["seg", "price", "oid"]].itertuples(index=False, name=None)
    )
    assert got == want


def test_worker_cached_instance_reuse_and_key_isolation(ray_session):
    """worker_cached builds once per worker per key, and different kwargs
    never alias a previous instance (the cache is keyed on them)."""
    import pyarrow as pa
    import ray

    from geopolars_ray.stages.workercache import worker_cached

    class Tag:
        def __init__(self, label):
            self.label = label
            self.instance_id = id(self)

        def __call__(self, batch):
            batch = batch.append_column("tag", pa.array([self.label] * len(batch)))
            # (pid, instance id) exposes per-worker construction counts
            import os

            return batch.append_column(
                "inst", pa.array([f"{os.getpid()}:{self.instance_id}"] * len(batch))
            )

    t = pa.table({"i": list(range(1000))})
    a = ray.data.from_arrow(t).repartition(6).map_batches(
        worker_cached(Tag, label="A"), batch_format="pyarrow").take_all()
    b = ray.data.from_arrow(t).repartition(6).map_batches(
        worker_cached(Tag, label="B"), batch_format="pyarrow").take_all()
    assert {r["tag"] for r in a} == {"A"}
    assert {r["tag"] for r in b} == {"B"}  # no stale-instance aliasing
    # REUSE: within one run, each worker pid maps to exactly ONE instance id
    pid_to_inst = {}
    for r in a:
        pid, inst = r["inst"].split(":")
        assert pid_to_inst.setdefault(pid, inst) == inst, "rebuilt per task"
    # unhashable kwargs fail at wrap time on the driver, not inside a task
    import pytest as _pytest

    with _pytest.raises(TypeError, match="hashable"):
        worker_cached(Tag, label={"not": "hashable"})


def test_barrier_keeps_lineage_flat(ray_session):
    """Each round reads the last round's output twice; a plain
    ``materialize()`` doubles the stats lineage every round (~1.7x longer
    stats per round), a barrier keeps it flat. A rebuilt Dataset reads
    ``stats() == ""`` until it executes, so measure one execution on it."""
    import ray

    from geopolars_ray.stages.agg import barrier

    x = ray.data.range(100)
    lens = []
    for _ in range(10):
        x = barrier(x.union(x).repartition(1))
        lens.append(len(x.map_batches(lambda b: b).materialize().stats()))
    assert x.count() == 100 << 10
    assert lens[-1] <= 2 * lens[1], lens


def test_barrier_drops_empty_exchange_blocks(ray_session):
    """After a P=4 exchange over 16 blocks, 12 sort ranges are empty; the
    barrier keeps only blocks with rows, found from block metadata."""
    import ray

    from geopolars_ray.stages.agg import barrier, concat_blocks, hash_partitioned_map

    t = pa.table({"k": np.arange(160, dtype=np.int64), "v": np.ones(160)})
    ds = ray.data.from_arrow([t.slice(i * 10, 10) for i in range(16)])
    ds.context.execution_options.preserve_order = True
    out = barrier(hash_partitioned_map(ds, ["k"], lambda g: g, num_partitions=4))
    meta = [m for bundle in out.iter_internal_ref_bundles() for _, m in bundle.blocks]
    assert 0 < len(meta) <= 4 and out.num_blocks() == len(meta)
    assert all(m.num_rows > 0 for m in meta)
    assert concat_blocks(out).sort_by("k").equals(t)
    # the barrier's Dataset runs under its input's DataContext
    assert out.context.execution_options.preserve_order

    # every block empty: one is kept, and the schema still answers
    none = barrier(hash_partitioned_map(ds, ["k"], lambda g: g.slice(0, 0), num_partitions=4))
    assert none.count() == 0 and none.num_blocks() == 1
    assert none.schema().names == ["k", "v"]
    assert concat_blocks(none).schema.equals(t.schema)
