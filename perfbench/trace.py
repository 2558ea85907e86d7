"""Spans for the traced benchmark run.

Nothing here is imported by the library.  The traced run installs wrappers
around the public calls into each layer, in the main process (``install_main``)
and in every Ray worker (``install_worker``, run as Ray's
``worker_process_setup_hook``).  Each wrapper opens a span; a span's self
time is its duration minus the time its child spans cover.  Spans stay in
memory and a worker appends them to ``<trace dir>/<pid>.jsonl`` when the Ray
task that produced them ends, so the main process reads a job's spans after the
job, with no sampler and no extra Ray calls.

Only the traced run installs anything: the untraced run measures the code as
it ships.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
import zlib

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


class Recorder:
    """Nested spans of one process.  A closed span becomes a record
    ``{name, parent, t0, dur, self, pid, **attrs}``; counters go to the
    innermost open span's attrs."""

    def __init__(self, sink_dir: str | None = None):
        self.sink_dir = sink_dir
        self.records: list[dict] = []
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str) -> dict:
        st = self._stack()
        sp = {"name": name, "parent": st[-1]["name"] if st else None,
              "t0": time.time(), "_p0": time.perf_counter(), "_child": 0.0}
        st.append(sp)
        return sp

    def close(self, sp: dict, **attrs) -> None:
        st = self._stack()
        st.pop()
        dur = time.perf_counter() - sp.pop("_p0")
        sp["dur"] = dur
        sp["self"] = dur - sp.pop("_child")
        sp["pid"] = os.getpid()
        sp.update(attrs)
        if st:
            st[-1]["_child"] += dur
        self.records.append(sp)
        if not st and self.sink_dir is not None:
            self.flush()

    def count(self, key: str, n: float = 1) -> None:
        st = self._stack()
        if st:
            st[-1][key] = st[-1].get(key, 0) + n

    def flush(self) -> None:
        if not self.records:
            return
        with open(os.path.join(self.sink_dir, f"{os.getpid()}.jsonl"), "a") as fh:
            for r in self.records:
                fh.write(json.dumps(r) + "\n")
        self.records = []

    def drain(self) -> list[dict]:
        out, self.records = self.records, []
        return out


REC = Recorder()


def _table_attrs(prefix: str, t) -> dict:
    try:
        return {prefix + "rows": t.num_rows, prefix + "bytes": t.nbytes}
    except AttributeError:
        return {}


def spanned(name: str, fn, attrs=None):
    """``fn`` wrapped in a span; ``attrs(args, result)`` adds attributes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sp = REC.open(name)
        res = None
        try:
            res = fn(*args, **kwargs)
            return res
        finally:
            REC.close(sp, **(attrs(args, res) if attrs and res is not None else {}))

    return wrapper


def spanned_iter(name: str, gen_fn, attrs=None):
    """Generator function ``gen_fn`` with a span around each step, so the
    consumer's work between steps stays out of it; ``attrs(item)`` adds
    attributes."""

    @functools.wraps(gen_fn)
    def wrapper(*args, **kwargs):
        it = iter(gen_fn(*args, **kwargs))
        while True:
            sp = REC.open(name)
            try:
                item = next(it)
            except StopIteration:
                REC.close(sp)
                return
            except BaseException:
                REC.close(sp)
                raise
            REC.close(sp, **(attrs(item) if attrs else {}))
            yield item

    return wrapper


def counted(key: str, fn, amount=None):
    """``fn`` that adds to counter ``key`` of the enclosing span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        res = fn(*args, **kwargs)
        REC.count(key, amount(res) if amount else 1)
        return res

    return wrapper


class Udf:
    """A ``map_batches`` / ``map_groups`` function in a span named after it.

    Built in the main process, pickled into the Ray task, run in the worker.
    Records input and output rows and Arrow bytes, and a hash of the output
    schema, so empty blocks whose schema differs from the rest can be
    counted."""

    def __init__(self, fn):
        self.fn = fn
        self.__name__ = getattr(fn, "__name__", type(fn).__name__)

    def __call__(self, batch, *args, **kwargs):
        sp = REC.open("udf." + self.__name__)
        out = None
        try:
            out = self.fn(batch, *args, **kwargs)
            return out
        finally:
            attrs = _table_attrs("in_", batch)
            if out is not None:
                attrs.update(_table_attrs("out_", out))
                schema = getattr(out, "schema", None)
                if schema is not None:
                    # a digest that is the same in every worker process,
                    # unlike str hashes, which Python salts per process
                    attrs["schema"] = zlib.crc32(str(schema).encode())
            REC.close(sp, **attrs)


def udf(fn):
    # Ray names a partial's operator after ``partial.func.__name__``, so the
    # traced run keeps the untraced run's operator names
    return functools.partial(Udf(fn))


# ------------------------------------------------------------ main process


def install_main() -> None:
    """Wrap UDFs as they are handed to Ray Data, count Dataset executions,
    time ``Dataset.schema()`` probes and the join build in this process."""
    import ray.data
    from ray.data._internal.execution.streaming_executor import StreamingExecutor
    from ray.data.grouped_data import GroupedData

    from geopolars_ray.stages import extract as extract_mod
    from geopolars_ray.stages.join import BroadcastPIPJoin
    from geopolars_ray.pipelines import flagship as flagship_mod

    def wrap_udf_method(cls, meth):
        orig = getattr(cls, meth)

        @functools.wraps(orig)
        def wrapper(self, fn, *args, **kwargs):
            if callable(fn) and not isinstance(fn, type):
                fn = udf(fn)
            return orig(self, fn, *args, **kwargs)

        setattr(cls, meth, wrapper)

    wrap_udf_method(ray.data.Dataset, "map_batches")
    wrap_udf_method(GroupedData, "map_groups")
    ray.data.Dataset.schema = spanned("ray.schema_probe", ray.data.Dataset.schema)

    StreamingExecutor.execute = counted("ray.executions", StreamingExecutor.execute)
    BroadcastPIPJoin.__init__ = spanned("join.init", BroadcastPIPJoin.__init__)

    # the tile kernel is a closure built in this process; wrapping the factory
    # puts a span around every tile call wherever the closure runs
    orig_tiles = extract_mod.assign_tiles

    @functools.wraps(orig_tiles)
    def assign_tiles(*args, **kwargs):
        return TilesSpan(orig_tiles(*args, **kwargs))

    extract_mod.assign_tiles = assign_tiles
    flagship_mod.assign_tiles = assign_tiles


class TilesSpan:
    """The ``assign_tiles`` kernel in a ``tiles`` span; records how many
    tile columns it added."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, batch):
        sp = REC.open("tiles")
        out = None
        try:
            out = self.fn(batch)
            return out
        finally:
            REC.close(sp, cols_added=(out.num_columns - batch.num_columns) if out is not None else 0)


# ------------------------------------------------------------------ worker


def install_worker() -> None:
    """Ray ``worker_process_setup_hook``: wrap the layer entry points that
    run inside tasks.  Spans go to the directory named by $PERFBENCH_TRACE_DIR."""
    import numpy as np
    import pyarrow.parquet as pq
    from ray.data._internal.execution.operators import map_operator
    from ray.data._internal.datasource import parquet_datasource as parquet_ds
    from ray.data._internal.datasource.parquet_datasink import ParquetDatasink
    from ray.data._internal.planner.exchange import sort_task_spec

    from geopolars_ray.geom import h3 as h3_mod
    from geopolars_ray.geom import s2 as s2_mod
    from geopolars_ray.geom import strtree
    from geopolars_ray.geom import wkb as wkb_mod
    from geopolars_ray.stages import geo as geo_mod
    from geopolars_ray.stages import join as join_mod
    from geopolars_ray.stages.extract import ExtractGeoTags
    from geopolars_ray.pipelines.flagship import FusedPagesGeotag

    REC.sink_dir = os.environ[TRACE_DIR_ENV]

    orig_task = map_operator._map_task

    @functools.wraps(orig_task)
    def map_task(map_transformer, data_context, ctx, *blocks, **kwargs):
        sp = REC.open("task")
        try:
            yield from orig_task(map_transformer, data_context, ctx, *blocks, **kwargs)
        finally:
            REC.close(sp, op=ctx.op_name)

    map_operator._map_task = map_task

    # Ray Data's sort shuffle (behind groupby) runs these outside map tasks
    sort_spec = sort_task_spec.SortTaskSpec
    sort_spec.map = staticmethod(spanned("shuffle", sort_spec.map))
    sort_spec.reduce = staticmethod(spanned("shuffle", sort_spec.reduce))
    sort_task_spec._sample_block = spanned("shuffle", sort_task_spec._sample_block)

    pq.read_table = spanned("read", pq.read_table, lambda a, t: {"bytes": t.nbytes})
    # Ray Data's parquet read tasks resolve this name when they run
    parquet_ds.read_fragments = spanned_iter("read", parquet_ds.read_fragments,
                                             lambda t: {"bytes": t.nbytes})
    ParquetDatasink.write = spanned("write", ParquetDatasink.write)
    FusedPagesGeotag.__call__ = spanned("fused", FusedPagesGeotag.__call__)

    def extract_attrs(args, out):
        lat = out["lat"].to_numpy(zero_copy_only=False)
        return {"in_rows": args[1].num_rows, "geo_rows": int(np.count_nonzero(~np.isnan(lat)))}

    ExtractGeoTags.__call__ = spanned("extract", ExtractGeoTags.__call__, extract_attrs)
    s2_mod.s2_cell_id = spanned("geom.s2", s2_mod.s2_cell_id)
    h3_mod.latlng_to_cell = spanned("geom.h3", h3_mod.latlng_to_cell)

    join_cls = join_mod.BroadcastPIPJoin
    join_cls.__call__ = spanned("join", join_cls.__call__,
                                lambda a, out: {"matches": out.num_rows})
    strtree.GridIndex.candidates_for_points = counted(
        "candidates", strtree.GridIndex.candidates_for_points, lambda r: len(r[0]))
    # one PIP kernel call per (batch, polygon) group, in the broadcast join
    # (through PreparedPolygons) and in the partitioned join's refine, whose
    # closure resolves the name when the task unpickles it, after this hook
    strtree.points_in_polygon_single = counted("pip_calls", strtree.points_in_polygon_single)

    # closures pickled in the main process resolve these through geom.wkb;
    # module-level library functions through their own module's globals
    decode = spanned("wkb.decode", wkb_mod.decode_wkb)
    encode = spanned("wkb.encode", wkb_mod.encode_wkb)
    for mod in (wkb_mod, geo_mod, join_mod):
        mod.decode_wkb = decode
        mod.encode_wkb = encode


def read_worker_records(trace_dir: str) -> list[dict]:
    """Read and remove every span file the workers wrote."""
    out = []
    for name in sorted(os.listdir(trace_dir)):
        path = os.path.join(trace_dir, name)
        with open(path) as fh:
            out.extend(json.loads(line) for line in fh if line.strip())
        os.remove(path)
    return out
