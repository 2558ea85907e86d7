"""Corpus curation: the composed training-data pipeline over `documents`.

One call chains the operator families this engine provides into the
standard web-corpus curation recipe:

    read (pruned columns)
      → token/quality stats (stateless vectorized kernels)
      → language id (per-worker-cached task stage, markers compiled once
        per worker process — stages/workercache.py)
      → quality floor filter (streaming)
      → optional unigram-LM perplexity band (train on the floored corpus,
        broadcast, keep the middle of the score distribution)
      → per-language stratified downsampling (deterministic, zero-shuffle)
      → optional benchmark decontamination (n-gram overlap vs broadcast
        probe set, streaming filter)
      → MinHash-LSH near-dup pairs → connected components → keep one per
        cluster
      → partitioned parquet write (resumable layout) or a Dataset

Composition notes for 100 TB:

- The filtered/balanced corpus is consumed TWICE (once to band signatures,
  once as the dedup target), so it is materialized at that stage boundary —
  in production that boundary is a checkpointed parquet write
  (`state/checkpoint.py`), here the object store.
- Everything upstream of the LSH exchange is stateless streaming; the only
  all-to-alls are the band-bucket exchange and the component-resolution
  rounds, both over id-sized rows, never text.
"""

from __future__ import annotations

import pyarrow.compute as pc

import ray


def run_curation(
    sf_dir: str,
    out_path: str | None = None,
    *,
    quality_min: float = 0.0,
    lm_band: tuple[float, float] | None = None,
    lang_fracs: dict | None = None,
    decontaminate: list | None = None,
    contamination_ngram: int = 13,
    dedup: bool | str = True,
    minhash_threshold: float = 0.7,
    minhash_min_bands: int = 1,
    paragraph_sep: str = "\n",
    substring_window: int = 50,
    num_partitions: int = 16,
    seed: int = 0,
):
    """Curate ``{sf_dir}/documents.parquet``; returns the Dataset (and
    writes partitioned parquet when ``out_path`` is given).

    ``dedup``: ``True``/``"minhash"`` = document-level near-dup removal
    (MinHash-LSH -> connected components -> keep one per cluster);
    ``"paragraph"`` = CCNet-style paragraph-level dedup (each distinct
    segment survives only at its first global occurrence; documents keep
    their residual text); ``"substring"`` = exact-substring span removal
    (Lee et al. 2022: every ``substring_window``-token span duplicated
    anywhere in the curated corpus is removed from ALL occurrences —
    unlike the other modes, no occurrence survives); ``False`` = skip.
    """
    from geopolars_ray.stages.agg import barrier
    from geopolars_ray.stages.cc import dedup_keep_representatives
    from geopolars_ray.stages.dedup import (
        MinHasher,
        jaccard_verify,
        lsh_candidate_pairs,
    )
    from geopolars_ray.stages.sample import stratified_sample_frac
    from geopolars_ray.stages.text import LangId, quality_score, token_stats

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    docs = docs.map_batches(token_stats(), batch_format="pyarrow")
    docs = docs.map_batches(quality_score(), batch_format="pyarrow")
    from geopolars_ray.stages.workercache import worker_cached

    # LangId's state is a few compiled regexes -> per-worker-cached tasks
    # beat an actor pool (spin-up + reservation; stages/workercache.py)
    docs = docs.map_batches(worker_cached(LangId), batch_format="pyarrow")

    if quality_min > 0.0:
        docs = docs.map_batches(
            lambda b: b.filter(pc.greater_equal(b["quality"], quality_min)),
            batch_format="pyarrow",
        )
    if lm_band is not None:
        # perplexity-style two-sided band (CCNet keeps the middle: both
        # gibberish and degenerate repetition live in the tails). The LM
        # trains on the quality-floored corpus itself — one extra
        # combiner-first pass — and scoring is a broadcast kernel, so this
        # adds no shuffle. Train + score are two consumers of one stage
        # boundary.
        from geopolars_ray.stages.lm import score_corpus, train_unigram_lm

        lo, hi = lm_band
        docs = barrier(docs)
        lm_state = train_unigram_lm(docs)
        docs = score_corpus(docs, lm_state).map_batches(
            lambda b: b.filter(
                pc.and_(pc.greater_equal(b["lm_logprob"], lo),
                        pc.less_equal(b["lm_logprob"], hi))
            ),
            batch_format="pyarrow",
        )
    if lang_fracs:
        docs = stratified_sample_frac(
            docs, "doc_id", "lang_pred", lang_fracs, seed=seed, default_frac=1.0
        )
    if decontaminate:
        from geopolars_ray.stages.contamination import ngram_contamination

        docs = ngram_contamination(
            docs, decontaminate, n=contamination_ngram
        ).map_batches(
            lambda b: b.filter(pc.invert(b["contaminated"])).drop_columns(
                ["n_contaminated_ngrams", "contaminated"]
            ),
            batch_format="pyarrow",
        )

    if dedup not in (False, True, "minhash", "paragraph", "substring"):
        raise ValueError(f"unknown dedup mode {dedup!r}")
    if not dedup:
        out = docs
    else:
        # both dedup modes consume the curated corpus TWICE (signature pass +
        # dedup target, or segment explode + per-doc counts) — one barrier
        # so the lazy actor-pool chain above never re-executes, and so two
        # concurrent consumers can't each reserve an actor pool and starve a
        # small session (see ray-data-perf notes)
        docs = barrier(docs)
    if dedup == "substring":
        from geopolars_ray.stages.spandedup import exact_substring_dedup

        out = exact_substring_dedup(
            docs, L=substring_window, id_col="doc_id", text_col="text",
            num_partitions=num_partitions,
        )
    elif dedup == "paragraph":
        from geopolars_ray.stages.dedup import paragraph_dedup

        out = paragraph_dedup(
            docs, "doc_id", "text", sep=paragraph_sep,
            num_partitions=num_partitions,
        )
    elif dedup:
        # task-based MinHasher: its state is 64 seeded ints, so tasks beat
        # an actor pool (spin-up + a second pool next to LangId would
        # starve small sessions; measured in queries.py q_dd_minhash_docs)
        bands = docs.select_columns(["doc_id", "text"]).map_batches(
            MinHasher(), batch_format="pyarrow", batch_size=512,
        )
        # minhash_min_bands > 1 = the candidate-volume knob for
        # collision-heavy corpora (boilerplate-laden crawls): measured 40x
        # fewer candidates at 99.998% verified-pair recall with min_bands=2
        pairs = lsh_candidate_pairs(bands, num_partitions=num_partitions,
                                    min_bands=minhash_min_bands)
        # LSH candidates are band-collision guesses (false positives by
        # design) — verify exact Jaccard before anything is deleted
        pairs = jaccard_verify(
            pairs,
            docs.select_columns(["doc_id", "text"]),
            threshold=minhash_threshold,
            num_partitions=num_partitions,
        )
        out = dedup_keep_representatives(
            docs, pairs, "doc_id", src="a", dst="b",
            num_partitions=num_partitions,
        )

    if out_path is not None:
        out.write_parquet(out_path)
    return out
