"""Similarity search over an embedding column: brute-force + IVF ANN.

Brute-force cosine top-k is the exact baseline: the query matrix is
broadcast (``ray.put`` once, loaded per actor in ``__init__``), each batch
does one matmul and emits per-batch partial top-k rows — tiny (queries x k)
outputs — and a final per-query reduce merges partials. The IVF variant
(:func:`ivf_knn`) restricts the scan to each query's ``nprobe`` nearest
k-means lists — the scale path when the corpus no longer fits a full scan.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray


class BruteForceTopK:
    """Per-batch exact top-k against a broadcast query matrix.

    Metrics:

    - ``cosine`` (default): normalized dot product, float64.
    - ``qdot``: integer dot product of ``floor(x * 1024)``-quantized vectors.
      Every score is an exactly-representable integer (dims*|v|^2*2^20 far
      below 2^53), so scores and the (score desc, id asc) ranking are
      bit-reproducible in ANY evaluation order — including a SQL oracle via
      ``list_dot_product(list_transform(e, x -> floor(x*1024)), ...)``.
      floor(x*1024) is itself exact (1024 is a power of two).

    Per-batch selection is an exact (score desc, id asc) sort, not
    argpartition: a tie at the k boundary must keep the lower id so batch
    partials merge to the same global top-k the oracle computes.
    """

    def __init__(self, queries, k: int = 10, id_col: str = "vec_id", emb_col: str = "embedding",
                 metric: str = "cosine"):
        q = ray.get(queries) if isinstance(queries, ray.ObjectRef) else queries
        self.qids = np.asarray(q["qid"], dtype=np.int64)
        qm = np.asarray(q["qvec"], dtype=np.float64)
        if metric == "cosine":
            qn = np.linalg.norm(qm, axis=1, keepdims=True)
            qn[qn == 0] = 1.0
            self.qmat = qm / qn
        elif metric == "qdot":
            self.qmat = np.floor(qm * 1024.0)
        else:
            raise ValueError(f"unknown metric {metric!r} (cosine|qdot)")
        self.k = k
        self.id_col = id_col
        self.emb_col = emb_col
        self.metric = metric

    def __call__(self, batch: pa.Table) -> pa.Table:
        from geopolars_ray.stages.vec import decode_embeddings

        ids = batch[self.id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        emb = decode_embeddings(batch[self.emb_col])
        if self.metric == "cosine":
            norm = np.linalg.norm(emb, axis=1, keepdims=True)
            norm[norm == 0] = 1.0
            sim = (emb / norm) @ self.qmat.T  # (n, q)
        else:
            sim = np.floor(emb * 1024.0) @ self.qmat.T  # exact integer dot
        k = min(self.k, len(ids))
        out_q, out_id, out_sim = [], [], []
        for j in range(self.qmat.shape[0]):
            order = np.lexsort((ids, -sim[:, j]))[:k]
            out_q.append(np.full(k, self.qids[j], dtype=np.int64))
            out_id.append(ids[order])
            out_sim.append(sim[order, j])
        return pa.table(
            {
                "qid": pa.array(np.concatenate(out_q)),
                "vec_id": pa.array(np.concatenate(out_id)),
                "cosine": pa.array(np.concatenate(out_sim)),
            }
        )


def merge_topk(k: int = 10):
    """map_groups fn: merge per-batch partials into the global per-query top-k.

    Deterministic tie-break: (-cosine, vec_id).
    """

    def fn(group: pa.Table) -> pa.Table:
        sim = group["cosine"].to_numpy(zero_copy_only=False)
        ids = group["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        qid = group["qid"][0].as_py()
        order = np.lexsort((ids, -sim))[:k]
        return pa.table(
            {
                "qid": pa.array(np.full(len(order), qid, dtype=np.int64)),
                "vec_id": pa.array(ids[order]),
                "cosine": pa.array(sim[order]),
                "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
            }
        )

    return fn


def brute_force_knn(ds, queries: dict, k: int = 10, concurrency=2,
                    id_col: str = "vec_id", emb_col: str = "embedding",
                    metric: str = "cosine"):
    """embeddings Dataset -> exact top-k rows (qid, vec_id, cosine, rank).

    ``queries`` = {"qid": (q,), "qvec": (q, d)}; broadcast once.
    ``metric="qdot"`` scores by the exact quantized integer dot product (see
    :class:`BruteForceTopK`) — bit-reproducible and SQL-oracle-checkable.
    """
    ref = ray.put(queries)
    partials = ds.map_batches(
        BruteForceTopK,
        fn_constructor_kwargs=dict(queries=ref, k=k, id_col=id_col, emb_col=emb_col, metric=metric),
        batch_format="pyarrow",
        concurrency=concurrency,
    )
    return partials.groupby("qid").map_groups(merge_topk(k), batch_format="pyarrow")


def train_ivf_centroids(
    ds,
    dim: int,
    n_centroids: int = 64,
    sample_size: int = 20_000,
    iters: int = 10,
    seed: int = 7,
    emb_col: str = "embedding",
    id_col: str | None = None,
) -> np.ndarray:
    """Deterministic coarse quantizer: Lloyd k-means on a seeded sample.

    The sample is collected on the driver (bounded by ``sample_size``); the
    iterations are plain NumPy — at 100 TB the training set is still a tiny
    seeded sample, so this stays a driver-side step by design.

    Pass ``id_col`` for a LAYOUT-INDEPENDENT sample: rows are kept by a
    deterministic hash threshold on the id and sorted by id, so the trained
    centroids are identical at any read parallelism (``random_sample``
    draws per block and changes with block splits).
    """
    n_total = ds.count()
    frac = min(1.0, sample_size / max(n_total, 1))
    if id_col is not None:
        from geopolars_ray.stages.agg import _splitmix

        thresh = np.uint64(min(int(frac * float(2**64 - 1)), 2**64 - 1))
        sseed = np.uint64(seed * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF)

        def keep(batch):
            import pyarrow as _pa

            ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
            with np.errstate(over="ignore"):
                h = _splitmix(ids ^ sseed)
            return batch.filter(_pa.array(h <= thresh))

        sample_rows = ds.map_batches(keep, batch_format="pyarrow").take_all()
        sample_rows.sort(key=lambda r: r[id_col])
    else:
        sample_rows = ds.random_sample(frac, seed=seed).take_all() if frac < 1.0 else ds.take_all()
    X = np.asarray([r[emb_col] for r in sample_rows], dtype=np.float64)
    X = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
    rng = np.random.default_rng(seed)
    k = min(n_centroids, len(X))
    C = X[rng.choice(len(X), size=k, replace=False)]
    for _ in range(iters):
        sims = X @ C.T
        assign = np.argmax(sims, axis=1)
        for j in range(k):
            m = assign == j
            if m.any():
                c = X[m].mean(axis=0)
                C[j] = c / max(np.linalg.norm(c), 1e-12)
    return C


class IVFAssign:
    """Stateless batch kernel: nearest-centroid list id per row.

    ``metric="qdot"`` assigns by the exact floor(x*1024) integer dot product
    (no normalization) — every comparison is exact integer arithmetic, so
    the assignment (argmax, first-max tie-break = lowest list id) is
    bit-reproducible and replayable in SQL as
    ``ORDER BY dot DESC, list ASC LIMIT 1``.
    """

    def __init__(self, centroids: np.ndarray, emb_col: str = "embedding", metric: str = "cosine"):
        C = np.asarray(centroids, dtype=np.float64)
        if metric == "cosine":
            self.C = C
        elif metric == "qdot":
            self.C = np.floor(C * 1024.0)
        else:
            raise ValueError(f"unknown metric {metric!r} (cosine|qdot)")
        self.emb_col = emb_col
        self.metric = metric

    def __call__(self, batch: pa.Table) -> pa.Table:
        from geopolars_ray.stages.vec import decode_embeddings

        emb = decode_embeddings(batch[self.emb_col])
        if self.metric == "cosine":
            norm = np.linalg.norm(emb, axis=1, keepdims=True)
            norm[norm == 0] = 1.0
            emb = emb / norm
        else:
            emb = np.floor(emb * 1024.0)
        lists = np.argmax(emb @ self.C.T, axis=1).astype(np.int64)
        return batch.append_column("ivf_list", pa.array(lists))


def ivf_knn(
    ds,
    queries: dict,
    centroids: np.ndarray,
    k: int = 10,
    nprobe: int = 4,
    concurrency=2,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    metric: str = "cosine",
):
    """IVF approximate top-k: scan only rows in each query's nprobe nearest
    lists. Recall < 1 by construction; nprobe trades recall for scan
    fraction (~nprobe/n_centroids of the corpus).

    ``metric="qdot"``: probe selection, assignment and scoring all use the
    exact floor(x*1024) integer dot product with deterministic tie-breaks
    (stable argsort -> ascending centroid id on ties), making the whole
    nprobe-limited pipeline bit-reproducible and SQL-oracle-checkable.
    """
    C = np.asarray(centroids, dtype=np.float64)
    qm = np.asarray(queries["qvec"], dtype=np.float64)
    if metric == "cosine":
        qn = qm / np.maximum(np.linalg.norm(qm, axis=1, keepdims=True), 1e-12)
        probe = np.argsort(-(qn @ C.T), axis=1)[:, :nprobe]
    else:
        dots = np.floor(qm * 1024.0) @ np.floor(C * 1024.0).T
        probe = np.argsort(-dots, axis=1, kind="stable")[:, :nprobe]
    wanted = np.unique(probe.reshape(-1))

    assigned = ds.map_batches(
        IVFAssign(C, emb_col=emb_col, metric=metric), batch_format="pyarrow", batch_size=4096
    )
    filtered = assigned.map_batches(
        lambda t: t.filter(
            pa.array(np.isin(t["ivf_list"].to_numpy(zero_copy_only=False), wanted))
        ),
        batch_format="pyarrow",
    )
    return brute_force_knn(filtered, queries, k=k, concurrency=concurrency, id_col=id_col, emb_col=emb_col, metric=metric)

