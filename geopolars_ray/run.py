"""CLI entrypoint — the ``ray job submit`` surface of the flagship pipeline.

    python -m geopolars_ray.run --pages /data/pages --out /data/out \
        [--resume] [--streaming] [--s2-level 12] [--num-cpus 32]

Two execution modes:

- default (``--resume``-capable): per-shard checkpointed run via
  ``state.checkpoint`` — interrupted jobs continue where they stopped, with
  per-partition lineage + metrics in ``<out>/_manifest.jsonl``;
- ``--streaming``: single streaming-executor pass (no checkpoints), maximum
  throughput for a run that is expected to finish.

Owns its Ray session (guarded — under ``ray job submit`` the session
already exists).
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="geopolars_ray flagship pipeline")
    ap.add_argument("--pages", required=True, help="directory of pages parquet shards")
    ap.add_argument("--out", required=True, help="output dir (rollup + manifest)")
    ap.add_argument("--s2-level", type=int, default=12)
    ap.add_argument("--resume", action="store_true", help="(re)run checkpointed; skip completed shards")
    ap.add_argument("--streaming", action="store_true", help="single streaming pass, no checkpoints")
    ap.add_argument("--num-cpus", type=int, default=None)
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    if args.streaming:
        from geopolars_ray.pipelines.flagship import run_flagship_fused

        run_flagship_fused(args.pages, args.out, s2_level=args.s2_level)
        print(json.dumps({"mode": "streaming", "out": args.out}))
    else:
        from geopolars_ray.state.checkpoint import run_resumable, finalize_rollup

        metrics = run_resumable(args.pages, args.out, s2_level=args.s2_level)
        final_dir = f"{args.out}/rollup"
        finalize_rollup(args.out).write_parquet(final_dir)
        print(json.dumps({"mode": "resumable", "out": final_dir, **metrics}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
