"""Connected components / near-dup cluster resolution tests."""

import numpy as np
import pyarrow as pa
import pytest
import ray

from geopolars_ray.stages.agg import concat_blocks
from geopolars_ray.stages.cc import (
    connected_components,
    attach_components,
    dedup_keep_representatives,
)


def _uf_oracle(pairs, nodes=None):
    """Local union-find: node -> min id of its component."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    out = {}
    for n in set(parent) | set(nodes or []):
        out[n] = find(n)
    return out


def _pairs_ds(pairs):
    a = pa.array([p[0] for p in pairs], pa.int64())
    b = pa.array([p[1] for p in pairs], pa.int64())
    return ray.data.from_arrow(pa.table({"id_a": a, "id_b": b}))


def test_cc_random_graph_matches_union_find(ray_session):
    rng = np.random.default_rng(42)
    n = 400
    pairs = [tuple(map(int, rng.integers(0, n, 2))) for _ in range(300)]
    got = {
        r["node"]: r["component"]
        for r in connected_components(_pairs_ds(pairs), num_partitions=8).take_all()
    }
    want = _uf_oracle(pairs)
    # oracle includes self-loop-only nodes; engine drops pure self-loops
    want = {k: v for k, v in want.items() if any(a != b and k in (a, b) for a, b in pairs)}
    assert got == want


def test_cc_path_graph_needs_iterations(ray_session):
    # a 40-node path: propagation alone would need 40 rounds; pointer
    # jumping must close it in ~log2(40) — well under max_iters=25
    pairs = [(i, i + 1) for i in range(40, -1, -1)]
    got = {
        r["node"]: r["component"]
        for r in connected_components(_pairs_ds(pairs), num_partitions=4).take_all()
    }
    assert set(got.values()) == {0}
    assert len(got) == 42


def test_cc_rounds_keep_lineage_flat(ray_session, monkeypatch):
    """Each round builds its labels from two references to the last
    round's (the neighbour join and the pointer-jumping self-join). Round
    k's labels must carry no more lineage than round 1's; a plain
    ``materialize()`` per round doubles it every round. Measured as the
    length of ``stats()`` of each round's min-aggregate."""
    from geopolars_ray.stages import agg

    real = agg.hash_aggregate
    lens = []

    def measured(*args, **kw):
        out = real(*args, **kw).materialize()
        lens.append(len(out.stats()))
        return out

    monkeypatch.setattr(agg, "hash_aggregate", measured)
    pairs = [(i, i + 1) for i in range(299, -1, -1)]
    got = concat_blocks(connected_components(_pairs_ds(pairs), num_partitions=4))
    assert set(got["component"].to_pylist()) == {0} and got.num_rows == 301
    # lens[0] is the initial labels, lens[k] round k's
    assert len(lens) >= 7, lens
    assert max(lens[2:]) <= 1.5 * lens[1], lens


def test_cc_cliques_and_stars(ray_session):
    # two cliques bridged by one edge + an isolated star
    pairs = (
        [(i, j) for i in range(5) for j in range(i + 1, 5)]
        + [(i, j) for i in range(10, 14) for j in range(i + 1, 14)]
        + [(4, 10)]
        + [(100, k) for k in (101, 102, 103)]
    )
    got = {
        r["node"]: r["component"]
        for r in connected_components(_pairs_ds(pairs), num_partitions=8).take_all()
    }
    assert {got[i] for i in range(5)} == {0}
    assert {got[i] for i in range(10, 14)} == {0}  # bridged into the 0-cluster
    assert {got[k] for k in (100, 101, 102, 103)} == {100}


def test_cc_non_convergence_raises(ray_session):
    pairs = [(i, i + 1) for i in range(30)]
    with pytest.raises(RuntimeError, match="did not converge"):
        connected_components(_pairs_ds(pairs), num_partitions=4, max_iters=1)


def test_attach_components_singletons(ray_session):
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "text": pa.array(list("abcde")),
    }))
    out = attach_components(docs, _pairs_ds([(1, 3), (3, 5)]), num_partitions=4).take_all()
    comp = {r["doc_id"]: r["component"] for r in out}
    assert comp == {1: 1, 3: 1, 5: 1, 2: 2, 4: 4}
    assert all("text" in r for r in out)


def test_dedup_keep_representatives(ray_session):
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(list(range(10)), pa.int64()),
        "text": pa.array([f"d{i}" for i in range(10)]),
    }))
    # clusters {0,1,2}, {5,6}; singletons 3,4,7,8,9
    kept = dedup_keep_representatives(
        docs, _pairs_ds([(1, 0), (1, 2), (6, 5)]), num_partitions=4
    ).take_all()
    assert sorted(r["doc_id"] for r in kept) == [0, 3, 4, 5, 7, 8, 9]
    assert all(set(r) == {"doc_id", "text"} for r in kept)


def test_cc_end_to_end_with_minhash_pairs(ray_session):
    """Full near-dup chain: docs -> minhash -> LSH pairs -> CC -> filtered docs."""
    from geopolars_ray.stages.dedup import MinHasher, lsh_candidate_pairs

    base = [
        "the quick brown fox jumps over the lazy dog again and again in the yard",
        "completely different text about distributed data processing engines at scale",
        "yet another unrelated document mentioning geometry kernels and arrow buffers",
    ]
    texts, ids = [], []
    for i, t in enumerate(base):
        for j in range(3):  # 3 near-identical variants of each base doc
            texts.append(t + (" tail" * j))
            ids.append(i * 10 + j)
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)
    }))
    bands = docs.map_batches(MinHasher(), batch_format="pyarrow")
    pairs = lsh_candidate_pairs(bands, num_partitions=4)  # columns (a, b, n_bands)
    kept = dedup_keep_representatives(
        docs, pairs, src="a", dst="b", num_partitions=4
    ).take_all()
    kept_ids = sorted(r["doc_id"] for r in kept)
    # each variant-group collapses to its min id; no cross-group merging
    assert kept_ids == [0, 10, 20]


def test_semantic_dedup_end_to_end(ray_session):
    """Clustered synthetic embeddings: each cluster collapses to one vector."""
    from geopolars_ray.stages.dedup import semantic_dedup

    rng = np.random.default_rng(23)
    dim, n_clusters, per = 32, 12, 5
    centers = rng.standard_normal((n_clusters, dim)) * 10
    vecs, ids = [], []
    for c in range(n_clusters):
        for j in range(per):
            vecs.append(centers[c] + rng.standard_normal(dim) * 0.01)
            ids.append(c * 100 + j)
    t = pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float64())),
    })
    ds = ray.data.from_arrow(t).repartition(4)
    kept = semantic_dedup(ds, dim, threshold=0.999, n_planes=4, num_partitions=4).take_all()
    kept_ids = sorted(r["vec_id"] for r in kept)
    # every cluster keeps exactly its min id (tight clusters, loose buckets)
    assert kept_ids == [c * 100 for c in range(n_clusters)]


def test_attach_components_empty_pair_graph(ray_session):
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([7, 8], pa.int64()), "text": pa.array(["a", "b"]),
    }))
    out = attach_components(docs, _pairs_ds([]), num_partitions=2).take_all()
    assert {r["doc_id"]: r["component"] for r in out} == {7: 7, 8: 8}
    kept = dedup_keep_representatives(docs, _pairs_ds([]), num_partitions=2).take_all()
    assert sorted(r["doc_id"] for r in kept) == [7, 8]


def test_attach_components_int32_ids(ray_session):
    """int32 doc ids meet the int64 label rows in one key type: ``doc_id``
    stays int32 and the components equal the int64 run's."""
    pairs = [(1, 3), (3, 5), (8, 9)]
    comps = []
    for t in (pa.int32(), pa.int64()):
        docs = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(list(range(1, 11)), t),
            "text": pa.array(list("abcdefghij")),
        })).repartition(3)
        tab = concat_blocks(attach_components(docs, _pairs_ds(pairs), num_partitions=4))
        assert tab.schema.field("doc_id").type == t
        comps.append({r["doc_id"]: r["component"] for r in tab.to_pylist()})
    assert comps[0] == comps[1] == {**{i: i for i in range(1, 11)}, 3: 1, 5: 1, 9: 8}


def test_dd_cc_clusters_gate_vs_duckdb(ray_session):
    """r5: the connected-components GATE query (dd_cc_clusters) against
    its recursive-CTE DuckDB oracle at sf0.001 — the same compare the
    grading driver runs at sf0.01 (star edges per segment group must
    yield the same components as the full pairwise closure)."""
    import duckdb
    import pandas as pd

    from geopolars_ray.pipelines.queries import ORACLE_SQL, QUERIES

    sf = "/root/testdata/sf0.001"
    got = QUERIES["dd_cc_clusters"](sf)
    df = got if isinstance(got, pd.DataFrame) else got.to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')")
    odf = con.execute(ORACLE_SQL["dd_cc_clusters"]).df()

    def canon(d):
        d = d[sorted(d.columns)].copy()
        for c in d.columns:
            d[c] = d[c].astype("int64")
        return d.sort_values(by=list(d.columns), kind="mergesort").reset_index(drop=True)

    a, b = canon(df), canon(odf)
    assert len(a) == len(b) > 0
    assert a.equals(b)
    # the gate must actually exercise multi-doc clusters
    assert (a["cluster_size"] > 1).any()
