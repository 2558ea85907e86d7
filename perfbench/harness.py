"""Ray sessions, jobs, deadlines and the closed measurement loop."""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")
SETUP_REPS = 2
JOB_DEADLINE_S = 60.0
OBJECT_STORE_BYTES = 512 * 2**20


# ------------------------------------------------------------------ jobs


def job_flagship(inp: str, out: str) -> None:
    from geopolars_ray.pipelines.flagship import run_flagship_fused

    run_flagship_fused(inp, out, h3_res=7)


def job_sjoin(inp: str, out: str) -> None:
    import ray
    from geopolars_ray.stages.join import partitioned_spatial_join

    pts = ray.data.read_parquet(inp)
    polys = ray.data.read_parquet(os.path.join(os.path.dirname(inp), "polygons"))
    partitioned_spatial_join(pts, polys).write_parquet(out)


def job_geom(inp: str, out: str) -> None:
    from geopolars_ray.api import GeoDataset

    from perfbench.inputs import chain_steps

    gds = GeoDataset.read_parquet(inp)
    for name, kw in chain_steps():
        gds = getattr(gds, name)(**kw)
    gds.write_parquet(out)


# workload -> (job, measured input subdir); a row is a page, a point or a
# polygon of the input.
WORKLOADS = {
    "flagship_h3": (job_flagship, "pages"),
    "sjoin_partitioned": (job_sjoin, "points"),
    "geom_ops": (job_geom, "polygons"),
}


def nproc() -> int:
    """CPUs this process may run on (its affinity mask)."""
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------- memory


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _descendants() -> list[int]:
    kids = _children()
    out, todo = [], list(kids.get(os.getpid(), []))
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(kids.get(pid, []))
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


def peak_rss_mb() -> float:
    """Peak resident memory (VmHWM) of this process plus every Ray worker
    process descended from it."""
    total = _vm_hwm_kb(os.getpid())
    for pid in _descendants():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmd = fh.read()
        except OSError:
            continue
        if cmd.startswith(b"ray::") or b"default_worker.py" in cmd:
            total += _vm_hwm_kb(pid)
    return total / 1024.0


# --------------------------------------------------------------- session


def start(num_cpus: int, trace_dir: str | None) -> None:
    """One Ray session of ``num_cpus`` CPUs; ``trace_dir`` installs the
    worker-side spans."""
    import ray

    runtime_env = None
    if trace_dir is not None:
        from perfbench import trace

        runtime_env = {"env_vars": {trace.TRACE_DIR_ENV: trace_dir},
                       "worker_process_setup_hook": trace.install_worker}
    tmp = os.path.join(WORK, "ray")
    # Ray's unix socket paths live under the temp dir and must stay short
    ray.init(num_cpus=num_cpus, object_store_memory=OBJECT_STORE_BYTES,
             include_dashboard=False, logging_level="ERROR", log_to_driver=False,
             runtime_env=runtime_env, _temp_dir=tmp if len(tmp) <= 40 else None)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.enable_operator_progress_bars = False
    ctx.print_on_execution_start = False
    # one call per CPU, run at once, so each lands in a worker of its own;
    # a job alone leaves some workers to import the library in the next job.
    # Ray Data's two helper actors, which the first job would start one
    # after the other, start meanwhile.
    from ray.data._internal.execution.autoscaling_requester import (
        get_or_create_autoscaling_requester_actor,
    )
    from ray.data._internal.stats import _get_or_create_stats_actor

    call = ray.remote(num_cpus=1)(_import_library)
    ray.get([call.remote() for _ in range(num_cpus)]
            + [get_or_create_autoscaling_requester_actor().__ray_ready__.remote(),
               _get_or_create_stats_actor().__ray_ready__.remote()])


def _import_library() -> None:
    import geopolars_ray.api  # noqa: F401
    import geopolars_ray.pipelines.flagship  # noqa: F401
    import geopolars_ray.stages.join  # noqa: F401

    time.sleep(0.2)  # holds the CPU while the other calls start


def stop() -> None:
    """Shut Ray down and wait until every process it started has ended.
    ``ray.shutdown`` waits for Ray's own daemons; its workers exit on their
    own a moment later, and are killed if they have not within 10 s."""
    import ray

    pids = _descendants()
    ray.shutdown()
    deadline = time.monotonic() + 10.0
    while pids and time.monotonic() < deadline:
        time.sleep(0.05)
        pids = [p for p in pids if _alive(p)]
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


class Watchdog:
    """Deadline for one job: on overrun, stop Ray by force, print the result
    with the job counted as failed, and exit."""

    def __init__(self, result):
        self.result = result
        self.timer = None

    def __enter__(self):
        self.timer = threading.Timer(JOB_DEADLINE_S, self.expire)
        self.timer.daemon = True
        self.timer.start()
        return self

    def __exit__(self, *exc):
        self.timer.cancel()

    def expire(self) -> None:
        print(f"perfbench: job exceeded {JOB_DEADLINE_S:.0f} s; stopping Ray", file=sys.stderr)
        subprocess.run([sys.executable, "-m", "ray.scripts.scripts", "stop", "--force"],
                       capture_output=True, timeout=60)
        self.result.failed += 1
        self.result.attempted += 1
        self.result.emit()
        sys.stdout.flush()
        os._exit(0)


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, dict] = {}

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def emit(self) -> None:
        print(json.dumps({"correct": self.failed == 0 and self.attempted > 0,
                          "attempted": self.attempted, "failed": self.failed,
                          "metrics": self.metrics}))


def run_job(workload: str, inp: str, out: str, expected, result: Result,
            count: bool = True) -> float | None:
    """Run one job under the deadline; returns its wall seconds, or None
    when it failed.  ``count=False`` keeps a warm-up job out of the tally."""
    from perfbench.inputs import CHECKS

    import pyarrow.parquet as pq

    job = WORKLOADS[workload][0]
    shutil.rmtree(out, ignore_errors=True)
    err = None
    try:
        with Watchdog(result):
            t0 = time.perf_counter()
            job(inp, out)
            wall = time.perf_counter() - t0
        if expected is not None:
            err = CHECKS[workload](pq.read_table(out), expected)
    except Exception as e:  # a job that raises counts as failed; the run goes on
        err = f"{type(e).__name__}: {e}"
    if count:
        result.attempted += 1
        if err is not None:
            result.failed += 1
    if err is not None:
        print(f"perfbench: {workload} job failed: {err}", file=sys.stderr)
        return None
    return wall


def setup_once(num_cpus: int, trace_dir: str | None, workload: str, inputs: str,
               result: Result) -> float:
    """ray.init + worker spawn and imports + one warm job on the measured
    input, which runs every task a measured job runs."""
    t0 = time.perf_counter()
    start(num_cpus, trace_dir)
    wall = run_job(workload, os.path.join(inputs, WORKLOADS[workload][1]),
                   os.path.join(WORK, "out", "warm"), None, result, count=False)
    if wall is None:
        raise RuntimeError("warm-up job failed")
    return time.perf_counter() - t0


def measure(workload: str, inputs: str, expected, seconds: float, result: Result,
            after_job=None) -> list[float]:
    """Closed loop: start the next job when the previous one has ended,
    until ``seconds`` have passed.  Returns rows/s of each good job;
    ``after_job(wall)`` runs after each good job, outside its timing."""
    import pyarrow.parquet as pq

    inp = os.path.join(inputs, WORKLOADS[workload][1])
    rows = sum(pq.ParquetFile(os.path.join(inp, f)).metadata.num_rows for f in os.listdir(inp))
    out = os.path.join(WORK, "out", "job")
    rates = []
    tries = 0
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or not rates and tries < 3:
        tries += 1
        wall = run_job(workload, inp, out, expected, result)
        if wall is not None:
            rates.append(rows / wall)
            if after_job:
                after_job(wall)
    return rates
