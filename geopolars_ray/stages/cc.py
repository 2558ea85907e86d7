"""Distributed connected components + near-dup cluster resolution.

The missing tail of a real dedup pipeline: MinHash-LSH / SimHash / embedding
near-dup stages emit PAIRS (`stages/dedup.py lsh_candidate_pairs`,
`jaccard_verify`, `cosine_pairs_within_bucket`); turning pairs into KEEP/DROP
decisions requires grouping them into transitively-closed clusters and
electing one representative per cluster. The reference has no analogue (it
has no dedup at all — this is part of the beyond-reference training-data
operator set, SURVEY.md §7).

Algorithm: iterative min-label propagation over the undirected pair graph.

    label_0(v)   = min(v, min(neighbors(v)))          -- fused into init
    label_i+1(v) = min(label_i(v), min_{u~v} label_i(u))

Each iteration is a hash co-partition join of labels with the static
bidirectional edge list, a hash-partitioned min-aggregate of the messages
(combiner-first `stages/agg.hash_aggregate`, so a hot node — a
million-duplicate boilerplate page — contributes one row per block to each
shuffle, not a million), and one pointer-jumping self-join
(label <- label(label)) that turns O(diameter) rounds into O(log diameter).
Per-iteration state is one (node,label) row per node, held in the OBJECT
STORE between iterations behind a `stages/agg.barrier` (the driver only
ever sees the scalar changed-count). Each round reads the last round's
labels twice (the neighbour join and `_shortcut`'s self-join), so a plain
``materialize()`` would double the Dataset lineage every round, and every
execution walks it. The barrier rebuilds each round's labels from their
block refs alone, so every round costs the same. Convergence:
labels are monotone non-increasing and a zero-change propagation round
implies labels are uniform along every edge, so `changed == 0` is exact.
Near-dup graphs are star/clique-shaped — measured 2-3 rounds; the default
``max_iters=25`` covers path diameters ~2^25 before raising (never silently
returns a partial closure).

Node ids must be integers (castable to int64). String keys should be
content-hashed first (`stages/dedup.content_hash`), which a dedup pipeline
has typically already done.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_SENTINEL = np.iinfo(np.int64).max


def _bidir(src: str, dst: str):
    """pairs (a,b) -> (node, nbr) rows for both directions, self-loops dropped."""

    def fn(batch: pa.Table) -> pa.Table:
        a = batch[src].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        return pa.table({
            "node": pa.array(np.concatenate([a, b])),
            "nbr": pa.array(np.concatenate([b, a])),
        })

    return fn


def _shortcut(labels, label_schema: pa.Schema, num_partitions: int):
    """Pointer jumping: label(v) <- label(label(v)).

    Pure neighbor propagation moves a component's minimum ONE hop per round
    (O(diameter) rounds on a path graph); composing each round with one
    label-of-label join gives the classic O(log d) convergence. The join is
    a left join on the (node,label) table with itself — every label IS a
    node id present in the table, but coalesce guards the empty-partition
    edge anyway."""
    from geopolars_ray.stages.hashjoin import hash_join

    j = hash_join(
        labels, labels,
        on=["label"], right_on=["node"], how="left",
        num_partitions=num_partitions,
        left_schema=label_schema, right_schema=label_schema,
    )

    def take(batch: pa.Table) -> pa.Table:
        lab = pc.coalesce(batch["label_r"], batch["label"])
        return pa.table({"node": batch["node"], "label": lab})

    return j.map_batches(take, batch_format="pyarrow")


def connected_components(
    pairs_ds,
    src: str = "id_a",
    dst: str = "id_b",
    *,
    node_col: str = "node",
    label_col: str = "component",
    num_partitions: int = 32,
    max_iters: int = 25,
):
    """Resolve the undirected pair graph to (node, component) labels.

    ``component`` is the MINIMUM node id in each connected component — a
    deterministic, join-stable cluster key. Only nodes that appear in at
    least one pair are returned (singletons are implicitly their own
    component; see :func:`attach_components` for the left-join + coalesce).

    Returns a materialized Dataset with columns ``[node_col, label_col]``.
    """
    from geopolars_ray.stages.agg import barrier, hash_aggregate
    from geopolars_ray.stages.hashjoin import hash_join

    import ray

    edges = barrier(pairs_ds.map_batches(_bidir(src, dst), batch_format="pyarrow"))
    if edges.count() == 0:
        # empty pair graph: no nodes, every doc is a singleton downstream
        return ray.data.from_arrow(pa.table({
            node_col: pa.array([], pa.int64()),
            label_col: pa.array([], pa.int64()),
        }))

    # iteration 0 fused into init: label(v) = min(v, min(nbr(v)))
    def self_msg(batch: pa.Table) -> pa.Table:
        n = batch["node"].to_numpy(zero_copy_only=False)
        return pa.table({"node": batch["node"], "lab": pa.array(n.copy())})

    msgs0 = edges.rename_columns(["node", "lab"]).union(
        edges.map_batches(self_msg, batch_format="pyarrow")
    )
    labels = barrier(hash_aggregate(
        msgs0, ["node"], [("lab", "min", "label")], num_partitions=num_partitions
    ))

    edge_schema = pa.schema([("node", pa.int64()), ("nbr", pa.int64())])
    label_schema = pa.schema([("node", pa.int64()), ("label", pa.int64())])

    for _ in range(max_iters):
        # neighbor messages: co-partition edges with labels on the SOURCE
        # endpoint, emit (dst, label(src)); self messages carry the old label
        # in a second column so the same min-aggregate detects convergence.
        joined = hash_join(
            edges,
            labels,
            on=["node"],
            num_partitions=num_partitions,
            left_schema=edge_schema,
            right_schema=label_schema,
        )

        def nbr_msg(batch: pa.Table) -> pa.Table:
            n = len(batch)
            return pa.table({
                "node": batch["nbr"],
                "lab": batch["label"],
                "self_lab": pa.array(np.full(n, _SENTINEL, dtype=np.int64)),
            })

        def self_msg_iter(batch: pa.Table) -> pa.Table:
            return pa.table({
                "node": batch["node"],
                "lab": batch["label"],
                "self_lab": batch["label"],
            })

        msgs = joined.map_batches(nbr_msg, batch_format="pyarrow").union(
            labels.map_batches(self_msg_iter, batch_format="pyarrow")
        )
        agg = barrier(hash_aggregate(
            msgs,
            ["node"],
            [("lab", "min", "label"), ("self_lab", "min", "_old")],
            num_partitions=num_partitions,
        ))

        changed = agg.map_batches(
            lambda b: pa.table(
                {"c": pa.array([pc.sum(pc.less(b["label"], b["_old"])).as_py() or 0])}
            ),
            batch_format="pyarrow",
        ).sum("c")
        labels = agg.drop_columns(["_old"])
        if not changed:
            # propagation fixpoint == labels uniform along every edge ==
            # every node carries its component minimum (the min node's own
            # label can never drop below itself) — exact, not heuristic.
            return barrier(labels.rename_columns([node_col, label_col]))
        labels = barrier(_shortcut(labels, label_schema, num_partitions))

    raise RuntimeError(
        f"connected_components did not converge in {max_iters} iterations — "
        "the pair graph has a longer path diameter than near-dup graphs "
        "should; raise max_iters explicitly if this is intended"
    )


def _label_lookup_join(docs_ds, labels, id_col: str, label_col: str, num_partitions: int):
    """Co-partition docs with (node,label) rows and map id→label via
    searchsorted — NOT an Acero join, so payload columns of any type
    (list<float> embeddings, binary media) ride through untouched (Acero
    rejects nested types as join non-key fields). Missing ids get their own
    id as label (singleton semantics)."""
    from geopolars_ray.stages.hashjoin import co_partitioned_map

    def lookup(rows: pa.Table, lab_part: pa.Table) -> pa.Table:
        ids = rows[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        out_lab = ids.copy()  # singleton default: own id
        if len(lab_part):
            ln = lab_part["node"].to_numpy(zero_copy_only=False).astype(np.int64)
            lv = lab_part["label"].to_numpy(zero_copy_only=False).astype(np.int64)
            order = np.argsort(ln, kind="stable")
            ln, lv = ln[order], lv[order]
            pos = np.searchsorted(ln, ids)
            pos_c = np.clip(pos, 0, len(ln) - 1)
            hit = ln[pos_c] == ids
            out_lab[hit] = lv[pos_c[hit]]
        return rows.append_column(label_col, pa.array(out_lab))

    return co_partitioned_map(docs_ds, labels, [id_col], lookup, right_on=["node"],
                              num_partitions=num_partitions)


def attach_components(
    docs_ds,
    pairs_ds,
    id_col: str = "doc_id",
    *,
    src: str = "id_a",
    dst: str = "id_b",
    label_col: str = "component",
    num_partitions: int = 32,
    max_iters: int = 25,
):
    """Annotate every doc with its near-dup cluster id.

    Docs absent from the pair graph are their own singleton component
    (``component == id``) — no row is dropped. The label attach is a
    co-partitioned searchsorted lookup (nested-payload-safe), not an Acero
    join.
    """
    labels = connected_components(
        pairs_ds, src, dst,
        node_col="node", label_col="label",
        num_partitions=num_partitions, max_iters=max_iters,
    )
    return _label_lookup_join(docs_ds, labels, id_col, label_col, num_partitions)


def dedup_keep_representatives(
    docs_ds,
    pairs_ds,
    id_col: str = "doc_id",
    *,
    src: str = "id_a",
    dst: str = "id_b",
    num_partitions: int = 32,
    max_iters: int = 25,
):
    """Drop near-duplicates: keep exactly one doc per cluster (the min id).

    The representative is the component label itself (min node id), so the
    filter is a vectorized ``component == id`` — no second grouped pass.
    Singletons always survive.
    """
    ds = attach_components(
        docs_ds, pairs_ds, id_col,
        src=src, dst=dst, num_partitions=num_partitions, max_iters=max_iters,
    )

    def keep(batch: pa.Table) -> pa.Table:
        m = pc.equal(batch["component"], pc.cast(batch[id_col], pa.int64()))
        return batch.filter(m).drop_columns(["component"])

    return ds.map_batches(keep, batch_format="pyarrow")
