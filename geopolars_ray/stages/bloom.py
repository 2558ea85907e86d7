"""Bloom-filter semi-join: pre-filter the big side before any exchange.

The classic 100 TB join optimization: when joining a huge probe table
against a selective build side, the dominant cost is shuffling probe rows
that will never match. A Bloom filter of the build keys is built
distributed (per-block partial bitmaps OR-reduced in a tree), shipped once
through the object store (`ray.put`), and applied as a stateless streaming
filter — probe rows that cannot match are dropped before the join's
exchange. False positives only (survivors still go through the exact join);
zero false negatives by construction, so the join result is unchanged.

Sizing: m bits for n keys at k hashes gives FPR ≈ (1 − e^{−kn/m})^k; the
default 10 bits/key with k=7 is ≈0.8%. The bitmap is a plain numpy uint64
array — a 100M-key build side is ~125 MB, well within object-store
broadcast range; per-worker dedup of the read is Ray's plasma doing its job.

Hashes: double hashing h_i = h1 + i·h2 (Kirsch & Mitzenmacher 2006) over
two independent splitmix64 streams — vectorized over the whole batch.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def _mix(v: np.ndarray, seed: int) -> np.ndarray:
    with np.errstate(over="ignore"):  # uint64 wraparound is the algorithm
        v = (v.astype(np.uint64) + np.uint64(seed) * np.uint64(0x9E3779B97F4A7C15)) & _MASK
        v = ((v ^ (v >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _MASK
        v = ((v ^ (v >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _MASK
        return v ^ (v >> np.uint64(31))


def _key_hash(batch: pa.Table, cols) -> np.ndarray:
    """One uint64 per row over the key columns (polars row hash — the same
    primitive the partitioners use, so any key type polars hashes works)."""
    import polars as pl

    return pl.from_arrow(batch.select(list(cols))).hash_rows(seed=11).to_numpy()


class BloomFilter:
    """Fixed-size bit array + vectorized add/contains over uint64 key hashes.

    Hot-loop layout notes (measured on this numpy build): uint64 add/and
    fall off numpy's SIMD fast path (~20x slower than int64), and a (k, n)
    broadcast multiply costs ~1s per 14M elements — so positions are
    computed as k strided int64 ADDS (h1, h1+h2, h1+2·h2, …; two's-
    complement wraparound makes int64 bit-identical to uint64 for +/&),
    bits are set via bool scatter + packbits (plain stores, no
    read-modify-write), and probes gather from a lazily-unpacked bool mask
    cached per worker (dropped from pickle, rebuilt from the bitmap on
    first probe). m_bits rounds up to a power of two so reduction is a
    mask, never a 64-bit modulo; oversizing only lowers the FPR.
    """

    __slots__ = ("m_bits", "k", "bits", "_mask")

    def __init__(self, m_bits: int, k: int = 7, bits: np.ndarray | None = None):
        self.m_bits = 1 << max(6, int(m_bits - 1).bit_length())
        self.k = int(k)
        n_words = self.m_bits // 64
        self.bits = np.zeros(n_words, dtype=np.uint64) if bits is None else bits
        self._mask = None

    @classmethod
    def for_capacity(cls, n_keys: int, bits_per_key: int = 10, k: int = 7):
        return cls(max(64, n_keys * bits_per_key), k)

    def __getstate__(self):
        return (self.m_bits, self.k, self.bits)

    def __setstate__(self, st):
        self.m_bits, self.k, self.bits = st
        self._mask = None

    def _strides(self, h: np.ndarray):
        h1 = _mix(h, 1).astype(np.int64)
        h2 = (_mix(h, 2) | np.uint64(1)).astype(np.int64)  # odd stride
        return h1, h2

    # above this, a bool mirror of the bitmap (1 byte/bit) stops being a
    # cheap task-local scratch (2^28 bits = 32 MB) and the word-wise path
    # takes over
    _BOOL_LIMIT = 1 << 28

    def add(self, h: np.ndarray) -> None:
        h1, h2 = self._strides(h)
        maskv = np.int64(self.m_bits - 1)
        pos = h1
        if self.m_bits <= self._BOOL_LIMIT:
            mask = np.zeros(self.m_bits, dtype=bool)
            with np.errstate(over="ignore"):
                for _ in range(self.k):
                    mask[pos & maskv] = True
                    pos = pos + h2
            packed = np.packbits(mask, bitorder="little")
            self.bits |= packed.view(np.uint64)
        else:
            with np.errstate(over="ignore"):
                for _ in range(self.k):
                    p = pos & maskv
                    np.bitwise_or.at(
                        self.bits, p >> np.int64(6),
                        np.uint64(1) << (p & np.int64(63)).astype(np.uint64),
                    )
                    pos = pos + h2
        self._mask = None

    def _bool_mask(self) -> np.ndarray:
        if self._mask is None:
            self._mask = np.unpackbits(
                self.bits.view(np.uint8), bitorder="little"
            ).view(bool)
        return self._mask

    def contains(self, h: np.ndarray) -> np.ndarray:
        h1, h2 = self._strides(h)
        maskv = np.int64(self.m_bits - 1)
        pos = h1
        if self.m_bits <= self._BOOL_LIMIT:
            m = self._bool_mask()
            with np.errstate(over="ignore"):
                out = m[pos & maskv].copy()
                for _ in range(self.k - 1):
                    pos = pos + h2
                    out &= m[pos & maskv]
            return out
        with np.errstate(over="ignore"):
            out = None
            for _ in range(self.k):
                p = pos & maskv
                word = self.bits[p >> np.int64(6)]
                hit = (word >> (p & np.int64(63)).astype(np.uint64)) & np.uint64(1)
                out = hit.astype(bool) if out is None else (out & hit.astype(bool))
                pos = pos + h2
            return out

    def union(self, other: "BloomFilter") -> "BloomFilter":
        assert self.m_bits == other.m_bits and self.k == other.k
        return BloomFilter(self.m_bits, self.k, self.bits | other.bits)


def build_bloom(build_ds, on, *, n_keys_hint: int | None = None,
                bits_per_key: int = 10, k: int = 7, fanin: int = 32) -> BloomFilter:
    """Distributed Bloom build: per-block partial bitmaps, tree OR-reduce.

    ``n_keys_hint``: expected distinct build keys; defaults to the build
    side's row count (an upper bound — over-sizing only lowers the FPR).
    Each partial is the full m-bit bitmap, so this is for build sides whose
    BITMAP (n·bits_per_key bits) fits a task heap — i.e. build sides up to
    ~100M keys, exactly the regime where a semi-join beats a shuffle.
    """
    on = list(on)
    if n_keys_hint is None:
        n_keys_hint = build_ds.count()
    proto = BloomFilter.for_capacity(max(1, n_keys_hint), bits_per_key, k)
    m_bits, kk = proto.m_bits, proto.k
    n_words = len(proto.bits)

    def block_bloom(batch: pa.Table) -> pa.Table:
        bf = BloomFilter(m_bits, kk)
        bf.add(_key_hash(batch, on))
        return pa.table({"bits": pa.array([bf.bits], pa.list_(pa.uint64()))})

    partials = build_ds.map_batches(block_bloom, batch_format="pyarrow")

    def or_batch(batch: pa.Table) -> pa.Table:
        acc = np.zeros(n_words, dtype=np.uint64)
        flat = batch["bits"].combine_chunks()
        # flatten() is slice-offset-aware; .values on a sliced ListArray
        # would read from word 0 of the parent buffer and misalign.
        vals = np.asarray(flat.flatten(), dtype=np.uint64).reshape(len(batch), n_words)
        np.bitwise_or.reduce(vals, axis=0, out=acc)
        return pa.table({"bits": pa.array([acc], pa.list_(pa.uint64()))})

    from geopolars_ray.stages.agg import tree_merge

    out = BloomFilter(m_bits, kk)
    top = tree_merge(partials, or_batch, fanin)
    if top.num_rows:
        out.bits |= np.asarray(or_batch(top)["bits"][0].as_py(), dtype=np.uint64)
    return out


def bloom_filter_probe(probe_ds, bloom: BloomFilter, on):
    """Streaming pre-filter: drop probe rows whose keys cannot be in the
    build side. Broadcast once via ``ray.put`` — every task reads the bitmap
    zero-copy from the object store, never re-shipped per batch."""
    import ray

    on = list(on)
    ref = ray.put(bloom)

    def fn(batch: pa.Table) -> pa.Table:
        bf = ray.get(ref)
        return batch.filter(pa.array(bf.contains(_key_hash(batch, on))))

    return probe_ds.map_batches(fn, batch_format="pyarrow")


def bloom_semi_join(probe_ds, build_ds, on, *, right_on=None,
                    num_partitions: int = 32, exact: bool = True, **bloom_kw):
    """Semi-join: probe rows whose keys exist in the build side.

    Bloom pre-filter (drops the never-matching bulk before any exchange),
    then — when ``exact`` — a hash semi-join over the survivors to remove
    the ~FPR false positives. ``exact=False`` returns the Bloom-only
    superset (bounded FPR) for pipelines that tolerate it, with zero
    exchanges on the probe side.
    """
    from geopolars_ray.stages.hashjoin import hash_join

    on = list(on)
    right_on = list(right_on or on)
    build_keys = build_ds.select_columns(right_on)
    bloom = build_bloom(build_keys, right_on, **bloom_kw)
    pref = bloom_filter_probe(probe_ds, bloom, on)
    if not exact:
        return pref
    return hash_join(pref, build_keys, on=on, right_on=right_on,
                     how="left_semi", num_partitions=num_partitions)
