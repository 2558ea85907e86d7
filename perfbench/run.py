"""One-command benchmark of the spatial engine, sized to the CPUs it may use.

    python3 perfbench/run.py --workload flagship_h3 --seed 1 --seconds 12 --trace 0

Workloads (sizes in ``inputs.SIZES``; why each exists in README.md):

- ``flagship_h3``: ``run_flagship_fused(h3_res=7)`` over seeded pages shards;
- ``sjoin_partitioned``: ``partitioned_spatial_join`` of seeded points with
  small diamonds, both read from parquet;
- ``geom_ops``: a GeoDataset method chain over seeded 16-vertex polygons.

Each run sets Ray up twice (``ray.init`` sized to ``nproc``, worker spawn
with imports, and one warm job on the measured input) and reports the median
as ``setup_s``.  After each set-up it runs jobs in that session in a closed
loop, one after another from one process, for half of ``--seconds``; a session
that runs slow throughout then sways only half the jobs.  ``rows_per_s`` is the
median over the jobs of both sessions.  A job is timed from building the
pipeline until its output is written; every output is checked against the
workload's oracle.  ``--trace 1`` instead runs untraced and traced jobs in
two sessions and prints the per-layer metrics (``metrics.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment.  Inputs are generated once per (workload, seed, size) into
``.perfbench/`` at the repository root and are never timed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import harness  # noqa: E402
from perfbench import inputs as inputs_mod  # noqa: E402


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "geopolars_ray")):
        fail(f"no geopolars_ray package under {ROOT}; run from a full checkout")
    # Ray workers inherit the environment of the processes ray.init starts
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    # the benchmark runs offline: no usage report from Ray's head process
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    inputs = inputs_mod.ensure(ROOT, args.workload, args.seed)
    expected = pq.read_table(os.path.join(inputs, "expected.parquet"))
    # imports in this process are paid once, before any timing
    import geopolars_ray.api  # noqa: F401
    import geopolars_ray.pipelines.flagship  # noqa: F401

    nproc = harness.nproc()
    result = harness.Result()
    env = {"nproc": nproc, "num_cpus": nproc, "object_store_memory": harness.OBJECT_STORE_BYTES,
           "ray": ray.__version__, "pyarrow": pa.__version__, "numpy": np.__version__,
           "python": sys.version.split()[0], "workload": args.workload, "seed": args.seed,
           "size": inputs_mod.SIZES[args.workload], "seconds": args.seconds}

    try:
        if args.trace:
            from perfbench import metrics

            env.update(metrics.traced_run(args.workload, inputs, expected, args.seconds,
                                          result, nproc))
        else:
            # each session is set up, then measured for its share of the run
            setups, rates, rss = [], [], []
            for _ in range(harness.SETUP_REPS):
                setups.append(harness.setup_once(nproc, None, args.workload, inputs, result))
                rates.append(harness.measure(args.workload, inputs, expected,
                                             args.seconds / harness.SETUP_REPS, result))
                rss.append(harness.peak_rss_mb())
                harness.stop()
            env.update({"setup_s_each": setups, "rows_per_s_each": rates})
            rates = [r for session in rates for r in session]
            result.put("rows_per_s", statistics.median(rates) if rates else 0.0, "1/s")
            result.put("setup_s", statistics.median(setups), "s")
            result.put("peak_rss_mb", max(rss), "MB")
    finally:
        # also when set-up fails: no Ray process outlives the run
        harness.stop()
    for sub in ("out", "ray"):
        shutil.rmtree(os.path.join(harness.WORK, sub), ignore_errors=True)
    print(json.dumps({"env": env}))
    result.emit()


if __name__ == "__main__":
    main()
