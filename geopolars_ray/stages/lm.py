"""Unigram language-model scoring — perplexity-style quality filtering.

The production pattern (CCNet / Gopher / FineWeb) scores documents with a
KenLM n-gram model and drops the perplexity tails. No model binaries exist
in this environment, so this is the honest from-scratch version: a UNIGRAM
LM trained on the corpus itself (or any reference corpus), scored as the
mean per-token log2 probability with add-one smoothing over a capped
vocabulary. It keeps the two properties that matter at 100 TB:

- **training is one combiner-first aggregation**: per-batch token counts
  fold inside the task (sort + reduceat — no Python per token), the
  exchange carries (token_hash, count) partials, and the vocabulary is a
  top-K ``sort().limit()`` — the driver never holds more than ``vocab_size``
  rows no matter the corpus.
- **scoring is a stateless broadcast kernel**: the (sorted hashes, counts,
  total) triple rides ``ray.put`` once; each batch is one searchsorted +
  one segmented reduceat. Deterministic — same hashes as
  ``contamination._token_hashes`` (polars xxhash of whitespace tokens), so
  scores are layout/restart-invariant.

Smoothing: ``p(tok) = (count + 1) / (total + vocab_size + 1)`` for in-vocab
tokens, ``1 / (total + vocab_size + 1)`` for OOV — standard add-one over an
open vocabulary; empty documents score 0.0 (documented sentinel; they are
the quality floor's problem, not the LM's).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _nonempty_token_hashes(texts_arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(flat token hashes uint64, tokens-per-text int64), whitespace-split
    with EMPTY TOKENS DROPPED — regex split of ``""`` (or padded edges)
    yields ``""`` entries that a language model must not count as tokens
    (``contamination._token_hashes`` keeps them; its n-gram windows are
    insensitive, an LM's denominator is not)."""
    import polars as pl

    lists = pc.split_pattern_regex(
        pc.coalesce(pc.cast(texts_arr, pa.string()), ""), r"\s+"
    )
    flat = pc.list_flatten(lists)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    counts = pc.list_value_length(lists).to_numpy(zero_copy_only=False).astype(np.int64)
    n = len(counts)
    if len(flat) == 0:
        return np.empty(0, np.uint64), np.zeros(n, np.int64)
    keep = pc.not_equal(flat, "")
    kmask = keep.to_numpy(zero_copy_only=False)
    owner = np.repeat(np.arange(n, dtype=np.int64), counts)
    counts_kept = np.bincount(owner[kmask], minlength=n).astype(np.int64)
    flat_kept = flat.filter(keep)
    if len(flat_kept) == 0:
        return np.empty(0, np.uint64), counts_kept
    h = (
        pl.from_arrow(pa.table({"t": flat_kept}))
        .hash_rows(seed=0)
        .to_numpy()
        .astype(np.uint64)
    )
    return h, counts_kept


def train_unigram_lm(ds, text_col: str = "text", vocab_size: int = 1 << 16,
                     num_partitions: int = 16) -> dict:
    """Train on a documents Dataset → broadcastable state dict.

    Returns ``{"vocab": sorted uint64 hashes, "counts": aligned int64,
    "total": int, "vocab_size": int}``. ``total`` counts EVERY corpus token
    (including ones outside the top-K vocabulary), so probabilities keep
    summing to ≤1 after truncation.
    """
    from geopolars_ray.stages.agg import barrier, hash_aggregate

    def partial(batch: pa.Table) -> pa.Table:
        th, _cnt = _nonempty_token_hashes(batch[text_col].combine_chunks())
        if len(th) == 0:
            return pa.table({"tok": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        s = np.sort(th)
        bounds = np.flatnonzero(np.diff(s, prepend=s[0] ^ np.uint64(1)))
        counts = np.diff(np.append(bounds, len(s)))
        return pa.table({"tok": pa.array(s[bounds].view(np.int64)),
                         "n": pa.array(counts.astype(np.int64))})

    parts = ds.select_columns([text_col]).map_batches(partial, batch_format="pyarrow")
    agg = barrier(hash_aggregate(parts, ["tok"], [("n", "sum", "n")],
                                 num_partitions=num_partitions))
    total = int(agg.sum("n") or 0)
    # deterministic tie-break at the vocab_size boundary (count desc, then
    # token hash asc) — a bare count sort picks an arbitrary layout-dependent
    # subset of tied tokens, breaking the restart-invariance contract
    top = agg.sort(["n", "tok"], descending=[True, False]).limit(vocab_size).take_all()
    vocab = np.array([r["tok"] for r in top], dtype=np.int64).view(np.uint64)
    counts = np.array([r["n"] for r in top], dtype=np.int64)
    order = np.argsort(vocab)
    return {"vocab": vocab[order], "counts": counts[order],
            "total": total, "vocab_size": int(vocab_size)}


def unigram_logprob(lm, text_col: str = "text", out_col: str = "lm_logprob"):
    """map_batches fn: mean per-token log2 probability under the unigram LM.

    ``lm`` may be the state dict or a ``ray.ObjectRef`` to it (broadcast
    once; workers read the numpy arrays zero-copy from the object store).
    More negative = less corpus-like; filter with a two-sided band the way
    perplexity filtering does (both gibberish AND degenerate repetition sit
    in the tails).
    """
    import ray

    def fn(batch: pa.Table) -> pa.Table:
        state = ray.get(lm) if isinstance(lm, ray.ObjectRef) else lm
        vocab, counts = state["vocab"], state["counts"]
        denom = float(state["total"] + state["vocab_size"] + 1)
        th, per_doc = _nonempty_token_hashes(batch[text_col].combine_chunks())
        if len(th) == 0:
            return batch.append_column(out_col, pa.array(np.zeros(len(batch))))
        pos = np.searchsorted(vocab, th)
        pos_c = np.minimum(pos, len(vocab) - 1)
        hit = vocab[pos_c] == th if len(vocab) else np.zeros(len(th), bool)
        tok_counts = np.where(hit, counts[pos_c] if len(vocab) else 0, 0)
        logp = np.log2((tok_counts + 1.0) / denom)
        starts = np.concatenate([[0], np.cumsum(per_doc)[:-1]]).astype(np.int64)
        sums = np.zeros(len(per_doc))
        nz = per_doc > 0
        if nz.any():
            sums[nz] = np.add.reduceat(logp, starts[nz])
        mean = np.where(nz, sums / np.maximum(per_doc, 1), 0.0)
        return batch.append_column(out_col, pa.array(mean))

    return fn


def score_corpus(ds, lm_state: dict, text_col: str = "text",
                 out_col: str = "lm_logprob"):
    """Convenience: broadcast the LM once and score every document."""
    import ray

    ref = ray.put(lm_state)
    return ds.map_batches(unigram_logprob(ref, text_col, out_col),
                          batch_format="pyarrow")
