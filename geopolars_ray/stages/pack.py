"""Sequence packing — assign documents to fixed-token-budget training
sequences, the step between a curated corpus and a pretraining dataloader.

No reference counterpart (the reference stops at per-document ops); this is
part of the LLM-data operator set. Two semantics, matching the two packing
strategies real pipelines use:

- :func:`pack_chunked` — concat-and-chunk (GPT-style): the token stream of
  each partition is conceptually concatenated in ``id_col`` order and cut at
  exact ``budget`` boundaries, so documents may SPAN sequences. Fully
  vectorized (one cumsum per partition) and exactly SQL-expressible (window
  cumulative sum + integer division), so it is oracle-checkable.
- :func:`pack_greedy` — boundary-respecting first-fit-in-order: documents
  never split; a sequence closes when the next document would exceed the
  budget; documents longer than the budget sit alone in their own sequence
  flagged ``oversize``. The reset-on-overflow recurrence is not a prefix
  scan, so it runs as a searchsorted JUMP loop: one O(log n) step per
  OUTPUT SEQUENCE (not per document) — ~budget/mean_doc_tokens documents
  advance per step, so a 1M-doc partition at 2k-token budget costs ~250k
  trivial iterations (~0.1 s), amortized across partitions.

Both are per-partition contracts: sequences never cross the hash partition
(``num_partitions`` deterministic splits of ``id_col``), which is what makes
packing embarrassingly parallel at 100 TB — each partition's packer sees
only its own rows, and ``seq_id`` embeds the partition so ids never collide.
Within a partition, order is ascending ``id_col`` (deterministic across
parallelism levels and retries).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_SEQ_SHIFT = 40  # seq_id = partition << 40 | local index (2^40 seqs/partition)


def _partition_pack(part: pa.Table, id_col: str, tokens_col: str, budget: int,
                    greedy: bool, part_id: int) -> pa.Table:
    import pyarrow.compute as pc

    t = part.take(pc.sort_indices(part, sort_keys=[(id_col, "ascending")]))
    n = t.num_rows
    tok = t[tokens_col].to_numpy(zero_copy_only=False).astype(np.int64)
    if (tok < 0).any():
        raise ValueError(f"negative token counts in {tokens_col!r}")
    base = np.int64(part_id) << np.int64(_SEQ_SHIFT)
    if not greedy:
        cs = np.cumsum(tok)
        start = cs - tok  # global offset of each doc's first token
        seq_first = start // budget
        seq_last = np.where(tok > 0, (cs - 1) // budget, seq_first)
        return pa.table({
            id_col: t[id_col],
            "n_tokens": pa.array(tok),
            "seq_id": pa.array(base + seq_first),
            "seq_last": pa.array(base + seq_last),
            "offset": pa.array(start % budget),
        })
    # greedy: jump loop — one searchsorted per emitted sequence
    cs = np.cumsum(tok)
    seq = np.empty(n, dtype=np.int64)
    oversize = tok > budget
    i = 0
    s = 0
    prev = np.int64(0)
    while i < n:
        if tok[i] > budget:
            j = i + 1  # oversize doc: alone in its own sequence
        else:
            # last j with cs[j-1] <= prev + budget
            j = int(np.searchsorted(cs, prev + budget, side="right"))
            if j <= i:  # defensive; cannot happen since tok[i] <= budget
                j = i + 1
        seq[i:j] = s
        s += 1
        prev = cs[j - 1]
        i = j
    return pa.table({
        id_col: t[id_col],
        "n_tokens": pa.array(tok),
        "seq_id": pa.array(base + seq),
        "oversize": pa.array(oversize),
    })


def pack_chunked(ds, id_col: str = "doc_id", tokens_col: str = "n_tokens",
                 budget: int = 2048, num_partitions: int = 32):
    """Concat-and-chunk packing: per-doc (seq_id, seq_last, offset).

    ``seq_id``/``seq_last`` are the first/last sequence the document's
    tokens land in; ``offset`` is the document's start position inside
    ``seq_id``. SQL mirror (per partition, DuckDB)::

        SELECT doc_id,
               (sum(n) OVER w - n) // budget      AS seq_first,
               greatest(sum(n) OVER w - 1, sum(n) OVER w - n) // budget
                                                  AS seq_last,
               (sum(n) OVER w - n) % budget       AS offset
        FROM docs WINDOW w AS (ORDER BY doc_id ROWS UNBOUNDED PRECEDING)
    """
    return _dispatch(ds, id_col, tokens_col, budget, num_partitions, greedy=False)


def pack_greedy(ds, id_col: str = "doc_id", tokens_col: str = "n_tokens",
                budget: int = 2048, num_partitions: int = 32):
    """Boundary-respecting greedy packing: per-doc (seq_id, oversize).

    Invariants (pytest-pinned): per-sequence token sum <= budget except
    single oversize docs; sequence membership is contiguous in ``id_col``
    order; greedy-maximal (the first doc of every sequence would NOT have
    fit in the previous one).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    return _dispatch(ds, id_col, tokens_col, budget, num_partitions, greedy=True)


def _dispatch(ds, id_col: str, tokens_col: str, budget: int, num_partitions: int, greedy: bool):
    from geopolars_ray.stages.agg import _hash_part, hash_partitioned_map

    if budget < 1:
        raise ValueError("budget must be >= 1")

    def pack_partition(part: pa.Table) -> pa.Table:
        # every row of a partition hashes to its id; the exchange never
        # hands over an empty partition
        part_id = int(_hash_part(part.slice(0, 1), [id_col], num_partitions)[0].as_py())
        return _partition_pack(part, id_col, tokens_col, budget, greedy, part_id)

    return hash_partitioned_map(ds, [id_col], pack_partition, num_partitions)
