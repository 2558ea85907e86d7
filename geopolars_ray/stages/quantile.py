"""Distributed quantiles: t-digest sketch (global) + exact grouped quantiles.

Two shapes a 100 TB pipeline needs:

- ``quantile_sketch``: approximate global percentiles in ONE streaming pass —
  every block folds into a bounded t-digest (Dunning & Ertl, "Computing
  extremely accurate quantiles using t-digests", arXiv:1902.04023; the
  merging-digest variant with the k1 scale function), per-block digests are
  rows of a tiny Dataset that tree-merges until a handful reach the driver.
  No sort, no shuffle of data rows; state per block is O(4/δ) centroids.
  Exact at the tails by construction (centroid size → 1 near q=0/1).

- ``grouped_quantile``: EXACT per-key quantiles via
  ``stages/agg.hash_partitioned_map`` — all rows of a key land in one
  partition, np.quantile per key slice (vectorized, one sort per partition).
  Scales with partitions, not key count, like every grouped op here; a
  single key's rows must fit a partition (same contract as any exact
  grouped percentile — when they can't, use quantile_sketch per key).

The reference has no aggregation surface at all (SURVEY.md §2.5 — it
delegates to Polars); these are part of the beyond-reference training-data
operator set (e.g. quality-score distribution cuts for corpus filtering).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa


# ---------------------------------------------------------------- t-digest


class TDigest:
    """Merging t-digest over float64 values, k1 scale function.

    ``delta`` is the compression parameter: ~delta centroids are kept, and
    quantile error is O(q(1-q)/delta) — delta=200 gives ~0.1% mid-range
    error in the accuracy test. Digests merge associatively: feeding one
    digest's centroids (means weighted by counts) into another is the same
    operation as feeding raw values, so block→tree→driver folding is exact
    in the sketch's own semantics.
    """

    __slots__ = ("delta", "means", "weights", "_min", "_max")

    def __init__(self, delta: int = 200, means=None, weights=None,
                 vmin: float = np.inf, vmax: float = -np.inf):
        self.delta = int(delta)
        self.means = np.array([] if means is None else means, dtype=np.float64)
        self.weights = np.array([] if weights is None else weights, dtype=np.float64)
        self._min = float(vmin)
        self._max = float(vmax)

    # -- construction ------------------------------------------------

    def add(self, values: np.ndarray, weights: np.ndarray | None = None) -> "TDigest":
        values = np.asarray(values, dtype=np.float64)
        mask = ~np.isnan(values)
        values = values[mask]
        if len(values) == 0:
            return self
        # Apply the same NaN mask to explicit weights so values/weights stay
        # aligned (a raw-values caller passing weights would otherwise get
        # misassigned centroid weights or a concat length mismatch).
        w = np.ones(len(values)) if weights is None else np.asarray(weights, np.float64)[mask]
        self._min = min(self._min, float(values.min()))
        self._max = max(self._max, float(values.max()))
        self.means = np.concatenate([self.means, values])
        self.weights = np.concatenate([self.weights, w])
        if len(self.means) > 4 * self.delta:
            self._compress()
        return self

    def merge(self, other: "TDigest") -> "TDigest":
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        return self.add(other.means, other.weights)

    @staticmethod
    def _k1(q: np.ndarray, delta: int) -> np.ndarray:
        return (delta / (2 * np.pi)) * np.arcsin(2 * np.clip(q, 0.0, 1.0) - 1)

    def _compress(self) -> None:
        if len(self.means) == 0:
            return
        order = np.argsort(self.means, kind="stable")
        m, w = self.means[order], self.weights[order]
        total = w.sum()
        # greedy left-to-right merge under the k1 size bound
        q_right = np.cumsum(w) / total
        q_left = q_right - w / total
        k_left = self._k1(q_left, self.delta)
        out_m, out_w = [], []
        acc_m, acc_w, k0 = m[0] * w[0], w[0], k_left[0]
        for i in range(1, len(m)):
            if self._k1(q_right[i], self.delta) - k0 <= 1.0:
                acc_m += m[i] * w[i]
                acc_w += w[i]
            else:
                out_m.append(acc_m / acc_w)
                out_w.append(acc_w)
                acc_m, acc_w, k0 = m[i] * w[i], w[i], k_left[i]
        out_m.append(acc_m / acc_w)
        out_w.append(acc_w)
        self.means = np.array(out_m)
        self.weights = np.array(out_w)

    # -- queries -------------------------------------------------------

    def quantile(self, qs: Sequence[float]) -> np.ndarray:
        self._compress()
        qs = np.atleast_1d(np.asarray(qs, dtype=np.float64))
        if len(self.means) == 0:
            return np.full(len(qs), np.nan)
        if len(self.means) == 1:
            return np.full(len(qs), self.means[0])
        total = self.weights.sum()
        # centroid "positions": cumulative weight at centroid midpoints
        cum = np.cumsum(self.weights) - self.weights / 2.0
        targets = qs * total
        out = np.interp(targets, cum, self.means)
        # exact tails: clamp beyond the first/last centroid midpoint to
        # the true observed extremes
        out = np.where(targets <= cum[0], np.interp(
            targets, [0.0, cum[0]], [self._min, self.means[0]]), out)
        out = np.where(targets >= cum[-1], np.interp(
            targets, [cum[-1], total], [self.means[-1], self._max]), out)
        return out

    # -- (de)serialization as one Arrow row -----------------------------

    def to_row(self) -> dict:
        self._compress()
        return {
            "means": self.means.tolist(),
            "weights": self.weights.tolist(),
            "vmin": self._min,
            "vmax": self._max,
        }

    @classmethod
    def from_row(cls, row, delta: int) -> "TDigest":
        return cls(delta, means=np.asarray(row["means"], np.float64),
                   weights=np.asarray(row["weights"], np.float64),
                   vmin=row["vmin"], vmax=row["vmax"])


_DIGEST_SCHEMA = pa.schema([
    ("means", pa.list_(pa.float64())),
    ("weights", pa.list_(pa.float64())),
    ("vmin", pa.float64()),
    ("vmax", pa.float64()),
])


def _digest_table(digest: TDigest) -> pa.Table:
    r = digest.to_row()
    return pa.table({
        "means": pa.array([r["means"]], pa.list_(pa.float64())),
        "weights": pa.array([r["weights"]], pa.list_(pa.float64())),
        "vmin": pa.array([r["vmin"]], pa.float64()),
        "vmax": pa.array([r["vmax"]], pa.float64()),
    })


def _merge_digest_batch(batch: pa.Table, delta: int) -> TDigest:
    d = TDigest(delta)
    if batch.num_rows == 0:  # an empty input collects to a table with no digest columns
        return d
    means = batch["means"].to_pylist()
    weights = batch["weights"].to_pylist()
    vmin = batch["vmin"].to_numpy(zero_copy_only=False)
    vmax = batch["vmax"].to_numpy(zero_copy_only=False)
    for i in range(len(batch)):
        d.merge(TDigest(delta, means=means[i], weights=weights[i],
                        vmin=vmin[i], vmax=vmax[i]))
    return d


def quantile_sketch(ds, col: str, qs: Sequence[float], *, delta: int = 200,
                    fanin: int = 64) -> np.ndarray:
    """Approximate global quantiles of ``ds[col]`` in one streaming pass.

    Per-block digests (one ~delta-centroid row each) tree-merge ``fanin``
    at a time until ≤ ``fanin`` rows remain, which the driver folds — so
    driver traffic is bounded by fanin × digest size regardless of input
    blocks (at 100 TB / 128 MB blocks ≈ 800k digests, two tree levels).
    Returns the quantile values as a float64 array aligned with ``qs``.
    """
    def block_digest(batch: pa.Table) -> pa.Table:
        d = TDigest(delta).add(batch[col].to_numpy(zero_copy_only=False))
        return _digest_table(d)

    digests = ds.map_batches(block_digest, batch_format="pyarrow")

    def merge_batch(batch: pa.Table) -> pa.Table:
        return _digest_table(_merge_digest_batch(batch, delta))

    from geopolars_ray.stages.agg import tree_merge

    top = tree_merge(digests, merge_batch, fanin)
    return TDigest(delta).merge(_merge_digest_batch(top, delta)).quantile(qs)


# ------------------------------------------------------- exact grouped path


def grouped_quantile(ds, keys: Sequence[str], col: str, qs: Sequence[float],
                     *, num_partitions: int = 32, interpolation: str = "linear"):
    """EXACT per-key quantiles; one output row per key.

    Output columns: ``keys + [f"{col}_q{q}" for q in qs]`` (q rendered with
    the dot stripped, e.g. ``v_q0_5``). numpy 'linear' interpolation matches
    DuckDB's ``quantile_cont`` to within 1 ULP (the two use algebraically
    equal but differently-rounded interpolation formulas).
    """
    from geopolars_ray.stages.agg import group_slices, hash_partitioned_map

    keys = list(keys)
    qs = [float(q) for q in qs]
    out_names = [f"{col}_q{str(q).replace('.', '_')}" for q in qs]

    def per_partition(part: pa.Table) -> pa.Table:
        if len(part) == 0:
            cols = {k: part[k] for k in keys}
            for nm in out_names:
                cols[nm] = pa.array([], pa.float64())
            return pa.table(cols)
        key_rows = []
        qvals = [[] for _ in qs]
        for sl in group_slices(part, keys):
            v = sl[col].to_numpy(zero_copy_only=False).astype(np.float64)
            v = v[~np.isnan(v)]
            key_rows.append([sl[k][0].as_py() for k in keys])
            res = (np.quantile(v, qs, method=interpolation) if len(v)
                   else np.full(len(qs), np.nan))
            for j in range(len(qs)):
                qvals[j].append(res[j])
        cols = {}
        for i, k in enumerate(keys):
            cols[k] = pa.array([kr[i] for kr in key_rows],
                               part.schema.field(k).type)
        for j, nm in enumerate(out_names):
            cols[nm] = pa.array(np.asarray(qvals[j]), pa.float64())
        return pa.table(cols)

    return hash_partitioned_map(ds, keys, per_partition, num_partitions)
