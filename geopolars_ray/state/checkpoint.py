"""Resumable flagship runs: per-input-shard checkpoints + lineage + metrics.

The north rule requires runs "resumable from checkpoint with per-partition
lineage + metrics". Design (SURVEY.md §4 checkpoint row):

- The expensive map work (extract -> tile -> PIP join -> partial rollup) is
  checkpointed per INPUT SHARD: one Ray task per shard writes its partial
  rollup to ``out_dir/parts/<shard>.parquet`` atomically (tmp + rename) and
  the driver appends one JSON lineage record to ``out_dir/_manifest.jsonl``
  — input path, row counts at each stage, wall time, engine version, output
  path. Shard results are pure functions of the input shard, so retries and
  resumes are byte-identical.
- A resume reads the manifest, skips completed shards, and only processes
  the remainder.
- The cheap global merge (hash_aggregate over all partial rollups) is
  recomputed at finalize time from the checkpointed partials — never
  checkpointed itself, so a crash anywhere leaves only idempotent state.

Per-shard tasks are plain ``@ray.remote`` here (not a Dataset) because the
unit of fault tolerance IS the shard: the manifest needs an atomic
"shard done" boundary, which per-shard tasks give directly. The shard
kernel, the partial group-by and the merge are the streaming pipeline's
(``pipelines/flagship.py``), so both runs give the same rollup.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

import ray

import geopolars_ray


def _load_manifest(out_dir: str) -> dict[str, dict]:
    path = Path(out_dir) / "_manifest.jsonl"
    done = {}
    if path.exists():
        for line in path.read_text().splitlines():
            if line.strip():
                rec = json.loads(line)
                done[rec["shard"]] = rec
    return done


def _append_manifest(out_dir: str, rec: dict) -> None:
    path = Path(out_dir) / "_manifest.jsonl"
    with open(path, "a") as f:
        f.write(json.dumps(rec) + "\n")
        f.flush()
        os.fsync(f.fileno())


@ray.remote
def _process_shard(shard_path: str, out_dir: str, s2_level: int, admin_table: pa.Table) -> dict:
    """One shard end-to-end -> partial rollup parquet + lineage record."""
    from geopolars_ray.pipelines.flagship import FusedPagesGeotag, partial_rollup

    t0 = time.time()
    kernel = FusedPagesGeotag(admin_table, s2_level=s2_level)
    pts, rows_in, rows_geo = kernel.shard(shard_path)
    partial = partial_rollup(pts, kernel.tile_col)
    name = Path(shard_path).stem
    parts_dir = Path(out_dir) / "parts"
    parts_dir.mkdir(parents=True, exist_ok=True)
    tmp = parts_dir / f".{name}.tmp.parquet"
    final = parts_dir / f"{name}.parquet"
    pq.write_table(partial, tmp)
    os.replace(tmp, final)  # atomic publish
    return {
        "shard": name,
        "input_path": shard_path,
        "output_path": str(final),
        "rows_in": rows_in,
        "rows_geotagged": rows_geo,
        "rows_joined": pts.num_rows,
        "partial_groups": partial.num_rows,
        "wall_ms": round((time.time() - t0) * 1000, 1),
        "engine_version": geopolars_ray.__version__,
        "s2_level": s2_level,
    }


def run_resumable(
    pages_dir: str,
    out_dir: str,
    s2_level: int = 12,
    admin: pa.Table | None = None,
    max_shards: int | None = None,
) -> dict:
    """Process all (remaining) input shards; returns run metrics.

    ``max_shards`` bounds how many NEW shards this invocation processes —
    used by tests to simulate an interrupted run.
    """
    from geopolars_ray.sources.pages import admin_polygons_table

    if admin is None:
        admin = admin_polygons_table()
    os.makedirs(out_dir, exist_ok=True)
    shards = sorted(str(p) for p in Path(pages_dir).glob("*.parquet"))
    done = _load_manifest(out_dir)
    todo_all = [
        s
        for s in shards
        if Path(s).stem not in done or not Path(done[Path(s).stem]["output_path"]).exists()
    ]
    todo = todo_all if max_shards is None else todo_all[:max_shards]
    admin_ref = ray.put(admin)
    futures = [_process_shard.remote(s, out_dir, s2_level, admin_ref) for s in todo]
    n_new = 0
    for fut in futures:
        rec = ray.get(fut)
        _append_manifest(out_dir, rec)
        n_new += 1
    done = _load_manifest(out_dir)
    return {
        "total_shards": len(shards),
        "completed_shards": len(done),
        "newly_processed": n_new,
        "skipped_completed": len(shards) - len(todo_all),
        "pending": len(shards) - len(done),
    }


def finalize_rollup(out_dir: str, num_partitions: int = 16):
    """Merge all checkpointed shard partials into the final rollup Dataset."""
    from geopolars_ray.pipelines.flagship import PARTIAL_COLS, merge_rollup

    recs = list(_load_manifest(out_dir).values())
    levels = {rec["s2_level"] for rec in recs}
    if len(levels) != 1:
        raise ValueError(f"{out_dir} holds partials of s2 levels {sorted(levels)}; need exactly one")
    tile_col = f"s2_l{levels.pop()}"
    # partials an older engine wrote (keyed on `tile`, counted in `n`)
    # cannot be merged with partial_rollup's
    want = [tile_col] + PARTIAL_COLS
    stale = [rec["shard"] for rec in recs if pq.read_schema(rec["output_path"]).names != want]
    if stale:
        raise ValueError(
            f"{out_dir} holds partials in another format (shards {stale[:3]}, "
            f"{len(stale)} in all; want columns {want}); rerun the shards into a fresh out_dir")
    parts = ray.data.read_parquet(str(Path(out_dir) / "parts"))
    # shard order, as in run_flagship_fused, so both sum the same way
    parts.context.execution_options.preserve_order = True
    return merge_rollup(parts, tile_col, num_partitions)
