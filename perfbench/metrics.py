"""The traced run: per-layer metrics from spans, with the tracing overhead.

A traced run first runs untraced jobs in a plain session, then the same jobs
in a session with the spans of ``trace.py`` installed, and reports every
per-layer metric as the median over the traced jobs.  The layers, and the
end-to-end metric each should move, are listed in README.md.

Accounting for one job of wall time W.  The task time T (summed over
tasks) splits into layer self times and ``task.other_s`` (task time outside
any layer span, Ray's block plumbing).  The wall time splits into B, the
union of the task intervals, ``join.init_s`` (join builds in the main
process) and ``ray.overhead_s`` (wall time in which no task ran: scheduling,
the main process's own work, waiting)::

    T = layers + task.other_s
    W = B + join.init_s + ray.overhead_s
    ray.parallelism = T / B              (1 with one CPU)

so ``trace.accounted_ratio`` = (layers * B / T + join.init_s +
ray.overhead_s) / W = 1 - (task.other_s / T) * B / W shows how much of the
job the named layers and Ray's overhead explain.  With one CPU it is
(layers + join.init_s + ray.overhead_s) / W.
"""

from __future__ import annotations

import os
import shutil
import statistics
from collections import defaultdict

from perfbench import harness, trace

# every per-layer metric, with its unit, in the order printed
UNITS = {
    "read.self_s": "s", "read.bytes": "bytes",
    "extract.self_s": "s", "extract.geo_ratio": "ratio",
    "tiles.self_s": "s", "geom.s2.self_s": "s", "geom.h3.self_s": "s",
    "tiles.useful_ratio": "ratio",
    "join.self_s": "s", "join.candidates": "count", "join.pip_calls": "count",
    "join.matches": "count", "join.match_ratio": "ratio", "join.init_s": "s",
    "agg.partial.self_s": "s", "exchange.self_s": "s", "exchange.rows": "count",
    "exchange.bytes": "bytes", "exchange.skew": "ratio",
    "sjoin.point_cell.self_s": "s", "sjoin.poly_cells.self_s": "s",
    "sjoin.replication": "ratio",
    "hashjoin.exchange.self_s": "s", "hashjoin.exchange.bytes": "bytes",
    "hashjoin.skew": "ratio", "hashjoin.acero.self_s": "s",
    "refine.self_s": "s", "refine.candidates": "count", "refine.matches": "count",
    "refine.match_ratio": "ratio", "refine.pip_calls": "count",
    "sjoin.empty_block_schema_mismatch": "count",
    "wkb.decode.self_s": "s", "wkb.encode.self_s": "s", "wkb.codec_share": "ratio",
    "geom.to_crs.self_s": "s", "geom.area.self_s": "s", "geom.simplify.self_s": "s",
    "geom.is_valid.self_s": "s", "geom.make_valid.self_s": "s",
    "geom.clip_by_rect.self_s": "s", "geom.centroid.self_s": "s",
    "write.self_s": "s", "task.other_s": "s",
    "ray.overhead_s": "s", "ray.parallelism": "ratio", "ray.executions": "count",
    "ray.schema_probe_s": "s",
    "shard.s.p50": "s", "shard.s.ptail": "s", "shard.s.ptail_pct": "%", "shard.count": "count",
    "trace.accounted_ratio": "ratio", "trace.rows_per_s": "1/s",
    "trace.untraced_rows_per_s": "1/s", "trace.overhead_ratio": "ratio",
    "error_rate": "ratio",
}

# layer self-time metrics that partition the time inside tasks
LAYER_SELF = [k for k in UNITS if k.endswith(".self_s")]

GEOM_OPS = ("to_crs", "area", "simplify", "is_valid", "make_valid", "clip_by_rect", "centroid")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _union_s(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def job_metrics(records: list[dict], wall: float) -> tuple[dict, list[float]]:
    """Per-layer metrics of one job from its spans; also returns the walls
    of the tasks of its busiest operator (the "shards")."""
    self_s: dict[str, float] = defaultdict(float)
    dur: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attr: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    in_rows: dict[str, list[float]] = defaultdict(list)
    op_tasks: dict[str, list[float]] = defaultdict(list)
    schemas: list[tuple[int, int]] = []
    for r in records:
        name = r["name"]
        self_s[name] += r["self"]
        dur[name] += r["dur"]
        calls[name] += 1
        for k, v in r.items():
            if k not in ("name", "parent", "t0", "dur", "self", "pid", "op", "schema") \
                    and isinstance(v, (int, float)):
                attr[name][k] += v
        if "in_rows" in r:
            in_rows[name].append(r["in_rows"])
        if name == "task":
            op_tasks[r["op"]].append(r["dur"])
        if name == "udf.refine" and "schema" in r:
            schemas.append((r["schema"], r.get("out_rows", 0)))

    def udf_self(*names):
        return sum(self_s["udf." + n] for n in names)

    def skew(name):
        v = in_rows["udf." + name]
        return _ratio(max(v), statistics.mean(v)) if v else 0.0

    m: dict[str, float] = {}
    m["read.self_s"] = self_s["read"]
    m["read.bytes"] = attr["read"]["bytes"]
    m["extract.self_s"] = self_s["extract"]
    m["extract.geo_ratio"] = _ratio(attr["extract"]["geo_rows"], attr["extract"]["in_rows"])
    m["tiles.self_s"] = self_s["tiles"]
    m["geom.s2.self_s"] = self_s["geom.s2"]
    m["geom.h3.self_s"] = self_s["geom.h3"]
    # the flagship rollup keys on one tile column of those computed
    m["tiles.useful_ratio"] = _ratio(calls["tiles"], attr["tiles"]["cols_added"])
    m["join.self_s"] = self_s["join"]
    m["join.candidates"] = attr["join"]["candidates"]
    m["join.pip_calls"] = attr["join"]["pip_calls"]
    m["join.matches"] = attr["join"]["matches"]
    m["join.match_ratio"] = _ratio(m["join.matches"], m["join.candidates"])
    m["join.init_s"] = dur["join.init"]
    shuffle = dur["shuffle"]
    m["agg.partial.self_s"] = udf_self("shard_pipeline", "partial", "tree_combine")
    m["exchange.self_s"] = udf_self("final") + (shuffle if calls.get("udf.final") else 0.0)
    m["exchange.rows"] = attr["udf.final"]["in_rows"]
    m["exchange.bytes"] = attr["udf.final"]["in_bytes"]
    m["exchange.skew"] = skew("final")
    m["sjoin.point_cell.self_s"] = udf_self("point_cell")
    m["sjoin.poly_cells.self_s"] = udf_self("poly_to_cells")
    m["sjoin.replication"] = _ratio(attr["udf.poly_to_cells"]["out_rows"],
                                    attr["udf.poly_to_cells"]["in_rows"])
    m["hashjoin.exchange.self_s"] = udf_self("pad_left", "pad_right", "tag") + (
        shuffle if calls.get("udf.run") else 0.0)
    m["hashjoin.exchange.bytes"] = attr["udf.run"]["in_bytes"]
    m["hashjoin.skew"] = skew("run")
    m["hashjoin.acero.self_s"] = udf_self("run")
    m["refine.self_s"] = udf_self("refine")
    m["refine.candidates"] = attr["udf.refine"]["in_rows"]
    m["refine.matches"] = attr["udf.refine"]["out_rows"]
    m["refine.match_ratio"] = _ratio(m["refine.matches"], m["refine.candidates"])
    m["refine.pip_calls"] = attr["udf.refine"]["pip_calls"]
    full = {s for s, n in schemas if n > 0}
    m["sjoin.empty_block_schema_mismatch"] = sum(1 for s, n in schemas if n == 0 and s not in full)
    m["wkb.decode.self_s"] = self_s["wkb.decode"]
    m["wkb.encode.self_s"] = self_s["wkb.encode"]
    for op in GEOM_OPS:
        m[f"geom.{op}.self_s"] = udf_self("geo_" + op)
    chain = sum(dur["udf.geo_" + op] for op in GEOM_OPS)
    m["wkb.codec_share"] = _ratio(m["wkb.decode.self_s"] + m["wkb.encode.self_s"], chain)
    m["write.self_s"] = self_s["write"] + udf_self("rename")

    task_wall = dur["task"] + shuffle
    layers = sum(m[k] for k in LAYER_SELF)
    m["task.other_s"] = task_wall - layers
    busy = _union_s((r["t0"], r["t0"] + r["dur"]) for r in records
                    if r["parent"] is None and r["name"] in ("task", "shuffle"))
    m["ray.overhead_s"] = wall - busy - m["join.init_s"]
    m["ray.parallelism"] = _ratio(task_wall, busy)
    m["ray.executions"] = attr["job"]["ray.executions"] + attr["ray.schema_probe"]["ray.executions"]
    m["ray.schema_probe_s"] = dur["ray.schema_probe"]
    # layer times add up over the tasks running at once; scaled by
    # busy / task_wall they are shares of the wall time in which tasks ran
    m["trace.accounted_ratio"] = _ratio(
        layers * _ratio(busy, task_wall) + m["join.init_s"] + m["ray.overhead_s"], wall)
    busiest = max(op_tasks, key=lambda k: sum(op_tasks[k])) if op_tasks else None
    return m, op_tasks.get(busiest, [])


def percentiles(walls: list[float]) -> dict[str, float]:
    """p50 and the highest of p99/p95/p90 with at least ten samples beyond
    it (p50 when the sample supports none of them)."""
    walls = sorted(walls)
    n = len(walls)
    if not n:
        return {"shard.s.p50": 0.0, "shard.s.ptail": 0.0, "shard.s.ptail_pct": 0.0,
                "shard.count": 0}
    q = statistics.quantiles(walls, n=100, method="inclusive") if n > 1 else [walls[0]] * 99
    tail = next((p for p in (99, 95, 90) if n * (100 - p) / 100 >= 10), 50)
    return {"shard.s.p50": statistics.median(walls), "shard.s.ptail": q[tail - 1],
            "shard.s.ptail_pct": float(tail), "shard.count": n}


def traced_run(workload: str, inputs: str, expected, seconds: float,
               result: harness.Result, nproc: int) -> dict:
    """Untraced then traced jobs, ``seconds / 2`` each; fills ``result``
    with every per-layer metric and returns extra environment fields."""
    import ray

    harness.setup_once(nproc, None, workload, inputs, result)
    plain = harness.measure(workload, inputs, expected, seconds / 2, result)
    harness.stop()

    trace_dir = os.path.join(harness.WORK, "trace")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    trace.install_main()
    job_fn = harness.WORKLOADS[workload][0]
    harness.WORKLOADS[workload] = (trace.spanned("job", job_fn),) + harness.WORKLOADS[workload][1:]

    @ray.remote(num_cpus=nproc)
    def barrier() -> None:
        """Runs only once every task before it has ended, and with it the
        span flush that ends a task."""

    harness.setup_once(nproc, trace_dir, workload, inputs, result)
    ray.get(barrier.remote())
    trace.REC.drain()
    trace.read_worker_records(trace_dir)

    per_job: list[dict] = []
    shards: list[float] = []

    def collect(wall: float) -> None:
        ray.get(barrier.remote())
        recs = trace.REC.drain() + trace.read_worker_records(trace_dir)
        m, walls = job_metrics(recs, wall)
        per_job.append(m)
        shards.extend(walls)

    traced = harness.measure(workload, inputs, expected, seconds / 2, result, after_job=collect)
    harness.stop()
    shutil.rmtree(trace_dir, ignore_errors=True)

    values = {k: statistics.median(j[k] for j in per_job) for k in per_job[0]} if per_job else {}
    values.update(percentiles(shards))
    values["trace.rows_per_s"] = statistics.median(traced) if traced else 0.0
    values["trace.untraced_rows_per_s"] = statistics.median(plain) if plain else 0.0
    values["trace.overhead_ratio"] = _ratio(values["trace.untraced_rows_per_s"],
                                            values["trace.rows_per_s"])
    values["error_rate"] = _ratio(result.failed, result.attempted)
    for k, unit in UNITS.items():
        result.put(k, values.get(k, 0.0), unit)
    return {"traced_jobs": len(per_job)}
