"""Distributed quantile tests: t-digest accuracy + exact grouped vs DuckDB."""

import numpy as np
import pyarrow as pa
import ray

from geopolars_ray.stages.quantile import TDigest, quantile_sketch, grouped_quantile

QS = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]


def test_tdigest_local_accuracy_skewed():
    rng = np.random.default_rng(7)
    v = rng.lognormal(0.0, 2.0, 200_000)  # heavy right skew
    d = TDigest(delta=200)
    for chunk in np.array_split(v, 40):
        d.add(chunk)
    got = d.quantile(QS)
    want = np.quantile(v, QS)
    # rank error, the bound t-digest actually makes: |rank(got)-q| small
    sv = np.sort(v)
    for q, g in zip(QS, got):
        rank = np.searchsorted(sv, g) / len(sv)
        assert abs(rank - q) < 0.01, (q, g, rank)
    # mid-range values also close in value space
    assert np.allclose(got[2:5], want[2:5], rtol=0.02)


def test_tdigest_merge_associative_and_exact_tails():
    rng = np.random.default_rng(3)
    a, b = rng.normal(0, 1, 50_000), rng.normal(5, 3, 50_000)
    d1 = TDigest(100).add(a)
    d2 = TDigest(100).add(b)
    merged = d1.merge(d2)
    v = np.concatenate([a, b])
    assert merged.quantile([0.0])[0] == v.min()
    assert merged.quantile([1.0])[0] == v.max()
    rank = np.searchsorted(np.sort(v), merged.quantile([0.5])[0]) / len(v)
    assert abs(rank - 0.5) < 0.01


def test_quantile_sketch_dataset(ray_session):
    rng = np.random.default_rng(11)
    v = rng.exponential(10.0, 300_000)
    ds = ray.data.from_arrow(pa.table({"v": pa.array(v)})).repartition(24)
    got = quantile_sketch(ds, "v", QS, fanin=8)  # small fanin forces tree levels
    sv = np.sort(v)
    for q, g in zip(QS, got):
        rank = np.searchsorted(sv, g) / len(sv)
        assert abs(rank - q) < 0.01, (q, g, rank)


def test_grouped_quantile_matches_duckdb(ray_session):
    import duckdb

    rng = np.random.default_rng(19)
    n = 20_000
    key = rng.integers(0, 37, n).astype(np.int64)
    val = rng.normal(100, 25, n)
    t = pa.table({"k": pa.array(key), "v": pa.array(val)})
    ds = ray.data.from_arrow(t).repartition(16)

    out = grouped_quantile(ds, ["k"], "v", [0.25, 0.5, 0.9], num_partitions=8)
    got = {r["k"]: (r["v_q0_25"], r["v_q0_5"], r["v_q0_9"]) for r in out.take_all()}

    con = duckdb.connect()
    con.register("t", t)
    rows = con.execute(
        "SELECT k, quantile_cont(v, 0.25), quantile_cont(v, 0.5), "
        "quantile_cont(v, 0.9) FROM t GROUP BY k"
    ).fetchall()
    assert len(got) == 37
    for k, q25, q50, q90 in rows:
        # numpy and duckdb use algebraically-equal interpolations that can
        # round differently in the last ulp
        np.testing.assert_allclose(got[k], (q25, q50, q90), rtol=1e-14)


def test_grouped_quantile_nan_and_multikey(ray_session):
    t = pa.table({
        "a": pa.array([1, 1, 1, 2, 2], pa.int64()),
        "b": pa.array(["x", "x", "y", "y", "y"]),
        "v": pa.array([1.0, np.nan, 3.0, 5.0, 7.0]),
    })
    ds = ray.data.from_arrow(t)
    out = grouped_quantile(ds, ["a", "b"], "v", [0.5], num_partitions=4).take_all()
    got = {(r["a"], r["b"]): r["v_q0_5"] for r in out}
    assert got == {(1, "x"): 1.0, (1, "y"): 3.0, (2, "y"): 6.0}


def test_quantile_sketch_of_empty_dataset_is_nan(ray_session):
    """No value: NaN per q, as DuckDB's approx_quantile returns NULL."""
    ds = ray.data.from_arrow(pa.table({"a": pa.array([], pa.int64())}))
    got = quantile_sketch(ds, "a", [0.1, 0.5])
    assert got.shape == (2,) and np.isnan(got).all()
