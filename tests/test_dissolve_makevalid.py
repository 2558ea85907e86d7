"""dissolve (stages/dissolve.py) and make_valid (geom/overlay.py):
seam removal, union-not-sum on overlaps, combiner/exchange equivalence
against an in-process fold, null and error semantics; even-odd repair
anchors for make_valid."""

import numpy as np
import pyarrow as pa
import pytest

from geopolars_ray.geom import GeometryArray, decode_wkb, encode_wkb
from geopolars_ray.geom.buffer import _union_tree
from geopolars_ray.geom.overlay import make_valid_geom


def sq(x0, y0, x1, y1):
    return ("polygon", [[(x0, y0), (x1, y0), (x1, y1), (x0, y1)]])


def geom_area(g):
    if g is None:
        return 0.0
    t, data = g
    polys = [data] if t == "polygon" else data
    tot = 0.0
    for poly in polys:
        for ring in poly:
            s = 0.0
            for i in range(len(ring) - 1):
                x1, y1 = ring[i]
                x2, y2 = ring[i + 1]
                s += x1 * y2 - x2 * y1
            tot += 0.5 * s
    return tot


# -------------------------------------------------------------- make_valid
def test_make_valid_bowtie_and_orientation():
    bow = ("polygon", [[(0, 0), (2, 2), (2, 0), (0, 2)]])
    fixed = make_valid_geom(bow)
    assert fixed[0] == "multipolygon" and len(fixed[1]) == 2
    assert geom_area(fixed) == pytest.approx(2.0)
    # CW exterior comes back CCW with positive area
    cw = ("polygon", [[(0, 0), (0, 1), (1, 1), (1, 0)]])
    fixed = make_valid_geom(cw)
    assert geom_area(fixed) == pytest.approx(1.0)


def test_make_valid_overlapping_rings_even_odd():
    # two overlapping rings in ONE polygon: even-odd -> overlap is a void
    g = ("polygon", [sq(0, 0, 2, 2)[1][0], sq(1, 1, 3, 3)[1][0]])
    fixed = make_valid_geom(g)
    assert geom_area(fixed) == pytest.approx(4 + 4 - 2 * 1)
    # already-valid geometry: area and hole preserved
    donut = ("polygon", [
        [(0, 0), (4, 0), (4, 4), (0, 4)],
        [(1, 1), (3, 1), (3, 3), (1, 3)],
    ])
    fixed = make_valid_geom(donut)
    assert geom_area(fixed) == pytest.approx(12.0)
    assert len(fixed[1]) == 2  # exterior + hole
    # degenerate (zero-area) polygon collapses to null
    line_poly = ("polygon", [[(0, 0), (2, 0), (0, 0)]])
    assert make_valid_geom(line_poly) is None
    # non-polygonal passthrough
    pt = ("point", (1.0, 2.0))
    assert make_valid_geom(pt) is pt
    assert make_valid_geom(None) is None


def test_make_valid_stage(ray_session):
    import ray

    from geopolars_ray.api import GeoDataset

    geoms = [("polygon", [[(0, 0), (2, 2), (2, 0), (0, 2)]]), None,
             sq(0, 0, 1, 1)]
    t = pa.table({"geometry": encode_wkb(GeometryArray.from_pylist(geoms)),
                  "rid": pa.array([0, 1, 2])})
    out_ds = GeoDataset(ray.data.from_arrow(t)).make_valid().area("a").dataset
    tbl = pa.concat_tables(ray.get(out_ds.to_arrow_refs()))
    got = dict(zip(tbl["rid"].to_pylist(),
                   tbl["a"].to_numpy(zero_copy_only=False)))
    assert got[0] == pytest.approx(2.0)
    assert np.isnan(got[1])
    assert got[2] == pytest.approx(1.0)


# ---------------------------------------------------------------- dissolve
def _run(ds):
    from geopolars_ray.stages.agg import concat_blocks

    return concat_blocks(ds)


def test_dissolve_seams_overlaps_nulls(ray_session):
    import ray

    from geopolars_ray.api import GeoDataset

    geoms = [
        sq(0, 0, 1, 1), sq(1, 0, 2, 1),          # key a: shared edge
        sq(0, 0, 2, 2), sq(1, 1, 3, 3),          # key b: overlap
        sq(0, 0, 1, 1), None,                    # key c: one null row
        None,                                    # key d: all null
        sq(5, 5, 6, 6), sq(9, 9, 10, 10),        # key e: disjoint
    ]
    keys = ["a", "a", "b", "b", "c", "c", "d", "e", "e"]
    t = pa.table({
        "geometry": encode_wkb(GeometryArray.from_pylist(geoms)),
        "k": pa.array(keys),
    })
    gds = GeoDataset(ray.data.from_arrow(t).repartition(4))
    out = _run(gds.dissolve("k").dataset)
    ga = decode_wkb(out["geometry"])
    rows = {k: (g, n) for k, g, n in zip(out["k"].to_pylist(), ga.to_pylist(),
                                         out["n_rows"].to_pylist())}
    assert set(rows) == {"a", "b", "c", "d", "e"}
    g, n = rows["a"]
    assert geom_area(g) == pytest.approx(2.0) and n == 2
    assert g[0] == "polygon"  # seam dissolved into ONE part
    g, n = rows["b"]
    assert geom_area(g) == pytest.approx(7.0) and n == 2  # union, not sum
    g, n = rows["c"]
    assert geom_area(g) == pytest.approx(1.0) and n == 2  # null ignored
    g, n = rows["d"]
    assert g is None and n == 1
    g, n = rows["e"]
    assert g[0] == "multipolygon" and len(g[1]) == 2
    assert geom_area(g) == pytest.approx(2.0)


def test_dissolve_matches_inprocess_fold(ray_session):
    """Many keys across many blocks: the combiner + exchange result must
    equal a single in-process union per key."""
    import ray

    from geopolars_ray.api import GeoDataset

    rng = np.random.default_rng(17)
    geoms, keys = [], []
    for i in range(150):
        x0, y0 = rng.uniform(0, 8, 2)
        w, h = rng.uniform(0.5, 2.0, 2)
        geoms.append(sq(float(x0), float(y0), float(x0 + w), float(y0 + h)))
        keys.append(int(rng.integers(0, 12)))
    t = pa.table({"geometry": encode_wkb(GeometryArray.from_pylist(geoms)),
                  "k": pa.array(keys)})
    gds = GeoDataset(ray.data.from_arrow(t).repartition(8))
    out = _run(gds.dissolve("k", num_partitions=5).dataset)
    got = dict(zip(out["k"].to_pylist(),
                   decode_wkb(out["geometry"]).to_pylist()))
    for k in sorted(set(keys)):
        want = _union_tree([g for g, kk in zip(geoms, keys) if kk == k])
        assert geom_area(got[k]) == pytest.approx(geom_area(want), rel=1e-9), k
    # counts sum to the input size
    assert sum(out["n_rows"].to_pylist()) == 150


def test_dissolve_rejects_nonpolygonal(ray_session):
    import ray

    from geopolars_ray.api import GeoDataset

    t = pa.table({
        "geometry": encode_wkb(GeometryArray.from_pylist(
            [("point", (0.0, 0.0))])),
        "k": pa.array(["a"]),
    })
    gds = GeoDataset(ray.data.from_arrow(t))
    with pytest.raises(Exception, match="polygonal"):
        _run(gds.dissolve("k").dataset)
    with pytest.raises(ValueError, match="key column"):
        gds.dissolve([])


def test_dissolve_to_file_after_exchange(ray_session, tmp_path):
    """to_file collects an exchange's output: the sort exchange emits a
    zero-column block for each empty sort range (most of them with 4
    partitions over 16 input blocks), and the collect skips those."""
    import ray

    from geopolars_ray.api import GeoDataset

    geoms = [sq(i, 0, i + 1, 1) for i in range(32)]
    t = pa.table({"geometry": encode_wkb(GeometryArray.from_pylist(geoms)),
                  "k": pa.array([i % 6 for i in range(32)], pa.int64())})
    gds = GeoDataset(ray.data.from_arrow(t).repartition(16))
    path = gds.dissolve("k", num_partitions=4).to_file(str(tmp_path / "x.geojson"))
    back = GeoDataset.read_file(path).dataset.to_pandas()
    assert sorted(back["k"].tolist()) == list(range(6))
    assert sorted(back["n_rows"].tolist()) == [5, 5, 5, 5, 6, 6]
