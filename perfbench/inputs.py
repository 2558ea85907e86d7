"""Seeded benchmark inputs and their expected outputs.

Run as a module in a child process, so generation time and memory never reach
a measured process::

    python3 -m perfbench.inputs --workload flagship_h3 --seed 1 --dir <dir>

Every input and oracle file is a pure function of (workload, seed, size).
``ensure`` keys the cache directory by all three and writes a ``DONE`` marker
last, so an interrupted generation is redone rather than reused.

The oracles do not call the code under test where an analytic answer exists:
admin membership is the diamond test ``|dx| + |dy| < half``, done in NumPy on
the generator's own coordinates.  ``geom_ops`` has no analytic answer; its
oracle is the same kernel chain called in-process on the whole table.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# rows per job, in files of equal size
SIZES = {
    "flagship_h3": {"pages": 160_000, "files": 4},
    "sjoin_partitioned": {"points": 100_000, "files": 4},
    "geom_ops": {"polygons": 800, "files": 8},
}
GENERATOR_VERSION = 7  # part of the cache key: bump when generated content changes

H3_RES = 7
ADMIN_HALF = 15.0  # admin_polygons_table(cell_deg=30): diamonds of radius 15
# sjoin polygons: diamonds of radius SJ_R on a checkerboard lattice of step
# SJ_H over [-100, 100] x [-25, 25] (5125 diamonds); SJ_R < SJ_H leaves gaps
SJ_H, SJ_R = 1.0, 0.8
SJ_LON, SJ_LAT = 100, 25
EDGE_MARGIN = 1e-6  # points closer than this to a diamond edge are dropped
KEEP_CACHED = 12  # input sets kept per workload; the least recently used go


def size_key(workload: str) -> str:
    return "-".join(f"{k}{v}" for k, v in SIZES[workload].items()) + f"-g{GENERATOR_VERSION}"


def ensure(root: str, workload: str, seed: int) -> str:
    """Return the input directory for (workload, seed, size), generating it
    in a child process when the cache lacks a complete copy."""
    cache = os.path.join(root, ".perfbench", "inputs")
    d = os.path.join(cache, f"{workload}-seed{seed}-{size_key(workload)}")
    if os.path.exists(os.path.join(d, "DONE")):
        os.utime(os.path.join(d, "DONE"))  # marks the set as recently used
        return d
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(cache, exist_ok=True)

    def last_used(name: str) -> float:
        done = os.path.join(cache, name, "DONE")
        return os.path.getmtime(done) if os.path.exists(done) else 0.0

    sets = sorted((n for n in os.listdir(cache) if n.startswith(workload + "-")), key=last_used)
    for n in sets[:max(len(sets) - KEEP_CACHED + 1, 0)]:
        shutil.rmtree(os.path.join(cache, n), ignore_errors=True)
    subprocess.run(
        [sys.executable, "-m", "perfbench.inputs", "--workload", workload,
         "--seed", str(seed), "--dir", d],
        cwd=root, check=True, timeout=150,
    )
    return d


def rows_hash(*cols: np.ndarray) -> str:
    """Order-sensitive content hash of equal-length columns (sort first)."""
    h = hashlib.sha256()
    for c in cols:
        h.update(np.ascontiguousarray(c).tobytes() if c.dtype != object
                 else "\x00".join(map(str, c)).encode())
    return h.hexdigest()


# --------------------------------------------------------------- diamonds


def lattice_diamond(x: np.ndarray, y: np.ndarray, step: float):
    """Nearest centre (a*step, b*step), a+b even, of the checkerboard diamond
    lattice, found exactly in the 45-degree rotated frame."""
    p = np.floor((x + y + step) / (2 * step)).astype(np.int64)
    q = np.floor((x - y + step) / (2 * step)).astype(np.int64)
    a, b = p + q, p - q
    l1 = np.abs(x - a * step) + np.abs(y - b * step)
    return a, b, l1


# ----------------------------------------------------------- flagship_h3


def gen_flagship(d: str, seed: int) -> None:
    from geopolars_ray.geom import h3 as h3_mod
    from geopolars_ray.sources.pages import pages_batch, row_fields

    s = SIZES["flagship_h3"]
    # pages mix the seed into row ids by XOR, so small seeds would only
    # permute the same rows; a spread-out seed gives different pages
    page_seed = int(np.random.default_rng(seed).integers(1, 2**62))
    os.makedirs(os.path.join(d, "pages"))
    for i, ids in enumerate(np.array_split(np.arange(s["pages"], dtype=np.int64), s["files"])):
        pq.write_table(pages_batch(ids, page_seed), os.path.join(d, "pages", f"pages-{i:03d}.parquet"))

    f = row_fields(np.arange(s["pages"], dtype=np.uint64), page_seed)
    lon, lat = f["lon"][f["has_geo"]], f["lat"][f["has_geo"]]
    a, b, l1 = lattice_diamond(lon, lat, ADMIN_HALF)
    if np.any(np.abs(l1 - ADMIN_HALF) < EDGE_MARGIN):
        raise ValueError("a page lies on an admin diamond edge; the oracle would be ambiguous")
    inside = (l1 < ADMIN_HALF) & (np.abs(a) <= 12) & (np.abs(b) <= 6)
    admin = np.array([f"d{i}_{j}" for i, j in zip(a[inside], b[inside])], dtype=object)
    tile = h3_mod.latlng_to_cell(lat[inside], lon[inside], H3_RES).view(np.int64)
    t = pa.table({"tile": tile, "admin_id": admin, "lat": lat[inside], "lon": lon[inside]})
    exp = (t.group_by(["tile", "admin_id"])
           .aggregate([("lat", "count"), ("lat", "sum"), ("lon", "sum")])
           .rename_columns(["tile", "admin_id", "n_pages", "sum_lat", "sum_lon"])
           .sort_by([("tile", "ascending"), ("admin_id", "ascending")]))
    pq.write_table(exp, os.path.join(d, "expected.parquet"))


def check_flagship(out: pa.Table, exp: pa.Table) -> str | None:
    """None when ``out`` matches; else the first mismatch found."""
    out = out.select(["tile", "admin_id", "n_pages", "sum_lat", "sum_lon"]).sort_by(
        [("tile", "ascending"), ("admin_id", "ascending")])
    per_admin = [t.group_by("admin_id").aggregate([("n_pages", "sum")]).sort_by("admin_id")
                 for t in (out, exp)]
    if not per_admin[0].equals(per_admin[1]):
        return "per-admin n_pages differ"
    keys = [[t[c].to_numpy(zero_copy_only=False) for c in ("tile", "admin_id", "n_pages")]
            for t in (out, exp)]
    if rows_hash(*keys[0]) != rows_hash(*keys[1]):
        return "sorted (tile, admin_id, n_pages) hash differs"
    for c in ("sum_lat", "sum_lon"):
        if not np.allclose(out[c].to_numpy(), exp[c].to_numpy(), rtol=1e-12, atol=0):
            return f"{c} differs beyond rtol 1e-12"
    return None


# ----------------------------------------------------- sjoin_partitioned


def sjoin_polygons() -> pa.Table:
    from geopolars_ray.geom import GeometryArray, encode_wkb

    geoms, ids = [], []
    for a in range(-SJ_LON, SJ_LON + 1):
        for b in range(-SJ_LAT, SJ_LAT + 1):
            if (a + b) % 2:
                continue
            cx, cy = a * SJ_H, b * SJ_H
            ring = [(cx - SJ_R, cy), (cx, cy - SJ_R), (cx + SJ_R, cy), (cx, cy + SJ_R), (cx - SJ_R, cy)]
            geoms.append(("polygon", [ring]))
            ids.append(a * 1000 + b)
    return pa.table({"admin_id": pa.array(ids, pa.int64()),
                     "geometry": encode_wkb(GeometryArray.from_pylist(geoms))})


# fixed, so the seed changes the sample and not how skewed the exchange is
HOT_SPOTS = np.array([(-80, -10), (-55, 15), (-30, -20), (-5, 5),
                      (20, -5), (45, 20), (70, -15), (90, 10)], dtype=np.float64)


def sjoin_points(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Half uniform over the lattice, half around eight hot spots, so the
    cell exchange sees skew; points near a diamond edge are dropped."""
    hot = HOT_SPOTS
    k = rng.integers(0, len(hot), size=n)
    spot = hot[k] + rng.normal(0.0, 1.5, size=(n, 2))
    flat = rng.uniform([-SJ_LON - 2, -SJ_LAT - 2], [SJ_LON + 2, SJ_LAT + 2], size=(n, 2))
    xy = np.where((rng.random(n) < 0.5)[:, None], spot, flat)
    lon, lat = xy[:, 0], np.clip(xy[:, 1], -89.0, 89.0)
    _, _, l1 = lattice_diamond(lon, lat, SJ_H)
    keep = np.abs(l1 - SJ_R) > EDGE_MARGIN
    return lon[keep], lat[keep]


def sjoin_oracle(pid: np.ndarray, lon: np.ndarray, lat: np.ndarray):
    a, b, l1 = lattice_diamond(lon, lat, SJ_H)
    m = (l1 < SJ_R) & (np.abs(a) <= SJ_LON) & (np.abs(b) <= SJ_LAT)
    return pid[m], a[m] * 1000 + b[m]


def gen_sjoin(d: str, seed: int) -> None:
    s = SIZES["sjoin_partitioned"]
    rng = np.random.default_rng(seed)
    os.makedirs(os.path.join(d, "polygons"))
    pq.write_table(sjoin_polygons(), os.path.join(d, "polygons", "polygons.parquet"))
    lon, lat = sjoin_points(rng, s["points"])
    pid = np.arange(len(lon), dtype=np.int64)
    os.makedirs(os.path.join(d, "points"))
    for i, part in enumerate(np.array_split(pid, s["files"])):
        pq.write_table(pa.table({"pid": pid[part], "lon": lon[part], "lat": lat[part]}),
                       os.path.join(d, "points", f"points-{i:03d}.parquet"))
    epid, eadm = sjoin_oracle(pid, lon, lat)
    pq.write_table(pa.table({"pid": epid, "admin_id": eadm}), os.path.join(d, "expected.parquet"))


def check_sjoin(out: pa.Table, exp: pa.Table) -> str | None:
    pairs = []
    for t in (out, exp):
        p = t["pid"].to_numpy()
        a = t["admin_id"].to_numpy()
        o = np.lexsort((a, p))
        pairs.append(rows_hash(p[o], a[o]))
    if out.num_rows != exp.num_rows:
        return f"{out.num_rows} matched pairs, expected {exp.num_rows}"
    if pairs[0] != pairs[1]:
        return "sorted (pid, admin_id) hash differs"
    return None


# -------------------------------------------------------------- geom_ops

TO_CRS = ("EPSG:4326", "EPSG:3857")
SIMPLIFY_M = 500.0
CLIP_M = (-1.5e7, -4.0e6, 1.5e7, 4.0e6)


def chain_steps():
    """The geom_ops chain as (GeoDataset method, kwargs), in order."""
    return [
        ("to_crs", {"from_crs": TO_CRS[0], "to_crs": TO_CRS[1]}),
        ("area", {}),
        ("simplify", {"tolerance": SIMPLIFY_M}),
        ("is_valid", {}),
        ("make_valid", {}),
        ("clip_by_rect", dict(zip(("xmin", "ymin", "xmax", "ymax"), CLIP_M))),
        ("centroid", {}),
    ]


def star_polygons(rng: np.random.Generator, n: int) -> pa.Table:
    """16-vertex star-shaped polygons; 2% of the ``n``, picked at random, get
    two vertices swapped, which makes the ring cross itself."""
    from geopolars_ray.geom import GeometryArray, encode_wkb

    cx = rng.uniform(-150, 150, n)
    cy = rng.uniform(-60, 60, n)
    ang = np.sort(rng.uniform(0, 2 * np.pi, (n, 16)), axis=1)
    rad = rng.uniform(0.05, 0.6, (n, 16))
    bad = np.zeros(n, dtype=bool)
    bad[rng.choice(n, size=n // 50, replace=False)] = True
    geoms = []
    for i in range(n):
        xs = cx[i] + rad[i] * np.cos(ang[i])
        ys = cy[i] + rad[i] * np.sin(ang[i])
        ring = list(zip(xs.tolist(), ys.tolist()))
        if bad[i]:
            ring[3], ring[9] = ring[9], ring[3]
        geoms.append(("polygon", [ring + [ring[0]]]))
    return pa.table({"id": pa.array(np.arange(n), pa.int64()),
                     "geometry": encode_wkb(GeometryArray.from_pylist(geoms))})


def run_chain_local(t: pa.Table) -> pa.Table:
    from geopolars_ray.stages.geo import geo_op

    for name, kw in chain_steps():
        t = geo_op(name, **kw)(t)
    return t


def gen_geom(d: str, seed: int) -> None:
    s = SIZES["geom_ops"]
    rng = np.random.default_rng(seed)
    t = star_polygons(rng, s["polygons"])
    os.makedirs(os.path.join(d, "polygons"))
    step = -(-t.num_rows // s["files"])
    for i in range(s["files"]):
        pq.write_table(t.slice(i * step, step), os.path.join(d, "polygons", f"polygons-{i:03d}.parquet"))
    pq.write_table(run_chain_local(t), os.path.join(d, "expected.parquet"))


def check_geom(out: pa.Table, exp: pa.Table) -> str | None:
    if out.num_rows != exp.num_rows:
        return f"{out.num_rows} rows, expected {exp.num_rows}"
    out = out.select(exp.column_names).sort_by("id")
    for c in exp.column_names:
        if not out[c].equals(exp[c]):
            return f"column {c} differs from the in-process kernel chain"
    return None


GENERATORS = {"flagship_h3": gen_flagship, "sjoin_partitioned": gen_sjoin, "geom_ops": gen_geom}
CHECKS = {"flagship_h3": check_flagship, "sjoin_partitioned": check_sjoin, "geom_ops": check_geom}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args()
    tmp = args.dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    GENERATORS[args.workload](tmp, args.seed)
    os.replace(tmp, args.dir)
    with open(os.path.join(args.dir, "DONE"), "w") as fh:
        fh.write(size_key(args.workload) + "\n")


if __name__ == "__main__":
    main()
