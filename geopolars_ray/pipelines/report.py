"""Corpus analysis report: one composed pass over ``documents``.

The read-only companion to :mod:`geopolars_ray.pipelines.curation`: before
spending compute on curation of a new crawl, profile it. Composes the
engine's sketch/aggregate operators into a single driver-sized summary
dict — every distributed step is either a streaming fold (t-digest,
Misra-Gries, corpus stats) or a combiner-first aggregate, so nothing
materializes corpus-sized data on the driver at any scale.
"""

from __future__ import annotations

import pyarrow.compute as pc

import ray


def corpus_report(
    sf_dir: str,
    *,
    quantiles=(0.1, 0.5, 0.9, 0.99),
    top_k_tokens: int = 10,
    probe_texts: list | None = None,
    num_partitions: int = 16,
) -> dict:
    """Profile ``{sf_dir}/documents.parquet``; returns a plain dict:

    - ``n_docs``, per-language and per-source document counts (combiner-first
      aggregates),
    - token-count and quality-score quantiles (t-digest streaming sketch),
    - approximate top-k most frequent predicted languages x sources
      (Misra-Gries heavy hitters with sound count bounds),
    - optional contamination rate vs ``probe_texts``.
    """
    from geopolars_ray.stages.agg import barrier, hash_aggregate
    from geopolars_ray.stages.freq import heavy_hitters
    from geopolars_ray.stages.quantile import quantile_sketch
    from geopolars_ray.stages.text import LangId, quality_score, token_stats

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "source"]
    )
    docs = docs.map_batches(token_stats(), batch_format="pyarrow")
    docs = docs.map_batches(quality_score(), batch_format="pyarrow")
    docs = docs.map_batches(LangId, batch_format="pyarrow", concurrency=2)
    # several consumers below -> one stage boundary
    docs = barrier(docs)

    report: dict = {"n_docs": docs.count()}

    lang_counts = hash_aggregate(
        docs.select_columns(["lang_pred"]),
        ["lang_pred"],
        [("lang_pred", "count", "n")],
        num_partitions=num_partitions,
    ).take_all()
    report["docs_per_lang"] = {r["lang_pred"]: r["n"] for r in lang_counts}
    src_counts = hash_aggregate(
        docs.select_columns(["source"]),
        ["source"],
        [("source", "count", "n")],
        num_partitions=num_partitions,
    ).take_all()
    report["docs_per_source"] = {r["source"]: r["n"] for r in src_counts}

    qs = list(quantiles)
    report["token_quantiles"] = dict(
        zip(qs, quantile_sketch(docs.select_columns(["n_tokens"]), "n_tokens", qs).tolist())
    )
    report["quality_quantiles"] = dict(
        zip(qs, quantile_sketch(docs.select_columns(["quality"]), "quality", qs).tolist())
    )

    hh = heavy_hitters(
        docs.select_columns(["lang_pred", "source"]),
        ["lang_pred", "source"],
        k=top_k_tokens,
        num_partitions=num_partitions,
        n_total=report["n_docs"],
    ).take_all()
    report["top_lang_source"] = [
        ((r["lang_pred"], r["source"]), r["count_lb"], r["count_ub"]) for r in hh
    ]

    if probe_texts:
        from geopolars_ray.stages.contamination import ngram_contamination

        flagged = ngram_contamination(docs, probe_texts)
        n_bad = flagged.map_batches(
            lambda b: b.filter(pc.field("contaminated")).select(["doc_id"]),
            batch_format="pyarrow",
        ).count()
        report["contaminated_docs"] = n_bad
        report["contamination_rate"] = n_bad / max(report["n_docs"], 1)

    return report
