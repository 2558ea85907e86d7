"""Frame-level overlay join (stages/overlay_join.py): per-pair pieces
vs the in-process overlay, area-conservation identities per `how`,
schema/suffix/null contracts, untouched-right passthrough."""

import numpy as np
import pyarrow as pa
import pytest

from geopolars_ray.geom import GeometryArray, decode_wkb, encode_wkb
from geopolars_ray.geom.buffer import _union_tree
from geopolars_ray.geom.overlay import boolean_op
from geopolars_ray.stages.overlay_join import HOWS, broadcast_overlay_join


def sq(x0, y0, x1, y1):
    return ("polygon", [[(x0, y0), (x1, y0), (x1, y1), (x0, y1)]])


def geom_area(g):
    """Shoelace over closed OR open rings (inputs here are open)."""
    if g is None:
        return 0.0
    t, data = g
    polys = [data] if t == "polygon" else data
    tot = 0.0
    for poly in polys:
        for ring in poly:
            n = len(ring)
            if tuple(ring[0]) == tuple(ring[-1]):
                n -= 1
            s = 0.0
            for i in range(n):
                x1, y1 = ring[i]
                x2, y2 = ring[(i + 1) % n]
                s += x1 * y2 - x2 * y1
            tot += 0.5 * s
    return tot


@pytest.fixture(scope="module")
def layers():
    """40 random left rectangles over a 2x2 grid of NON-OVERLAPPING
    right cells covering [1,5]^2 (so pieces tile each left exactly)."""
    rng = np.random.default_rng(77)
    lefts = []
    for _ in range(40):
        x0, y0 = rng.uniform(0, 5, 2)
        w, h = rng.uniform(0.5, 2.0, 2)
        lefts.append(sq(float(x0), float(y0), float(x0 + w), float(y0 + h)))
    rights = [sq(1, 1, 3, 3), sq(3, 1, 5, 3), sq(1, 3, 3, 5), sq(3, 3, 5, 5),
              sq(40, 40, 41, 41)]  # last: never touched
    right = pa.table({
        "geometry": encode_wkb(GeometryArray.from_pylist(rights)),
        "cell": pa.array(["a", "b", "c", "d", "far"]),
        "pop": pa.array([10, 20, 30, 40, 50]),
    })
    return lefts, rights, right


def _left_ds(lefts, extra=None):
    import ray

    cols = {
        "geometry": encode_wkb(GeometryArray.from_pylist(lefts)),
        "lid": pa.array(np.arange(len(lefts))),
    }
    if extra:
        cols.update(extra)
    return ray.data.from_arrow(pa.table(cols)).repartition(4)


def _collect(ds):
    from geopolars_ray.stages.agg import concat_blocks

    return concat_blocks(ds)


def test_intersection_matches_pairwise_overlay(ray_session, layers):
    lefts, rights, right = layers
    out = _collect(broadcast_overlay_join(_left_ds(lefts), right,
                                          how="intersection"))
    assert set(out.column_names) == {"lid_left", "cell_right", "pop_right",
                                     "geometry"}
    got = {}
    ga = decode_wkb(out["geometry"]).to_pylist()
    for lid, cell, g in zip(out["lid_left"].to_pylist(),
                            out["cell_right"].to_pylist(), ga):
        got[(lid, cell)] = geom_area(g)
    want = {}
    cells = ["a", "b", "c", "d", "far"]
    for i, lg in enumerate(lefts):
        for j, rg in enumerate(rights):
            piece = boolean_op(lg, rg, "intersection")
            if piece is not None:
                want[(i, cells[j])] = geom_area(piece)
    assert set(got) == set(want)
    for k in want:
        assert got[k] == pytest.approx(want[k], rel=1e-9), k


def test_identity_tiles_each_left_exactly(ray_session, layers):
    lefts, rights, right = layers
    out = _collect(broadcast_overlay_join(_left_ds(lefts), right,
                                          how="identity"))
    ga = decode_wkb(out["geometry"]).to_pylist()
    per_left = {}
    resid_rows = 0
    for lid, cell, g in zip(out["lid_left"].to_pylist(),
                            out["cell_right"].to_pylist(), ga):
        per_left[lid] = per_left.get(lid, 0.0) + geom_area(g)
        if cell is None:
            resid_rows += 1
    # rights are non-overlapping, so the pieces + residual tile each left
    for i, lg in enumerate(lefts):
        assert per_left[i] == pytest.approx(geom_area(lg), rel=1e-9), i
    assert resid_rows > 0  # some lefts stick out of the [1,5]^2 grid


def test_difference_drops_right_columns(ray_session, layers):
    lefts, rights, right = layers
    out = _collect(broadcast_overlay_join(_left_ds(lefts), right,
                                          how="difference"))
    assert set(out.column_names) == {"lid_left", "geometry"}
    ga = decode_wkb(out["geometry"]).to_pylist()
    got = dict(zip(out["lid_left"].to_pylist(), (geom_area(g) for g in ga)))
    grid = _union_tree(rights[:4])
    for i, lg in enumerate(lefts):
        resid = boolean_op(lg, grid, "difference")
        if resid is None:
            assert i not in got
        else:
            assert got[i] == pytest.approx(geom_area(resid), rel=1e-9), i


def test_union_area_conservation_and_untouched_right(ray_session, layers):
    lefts, rights, right = layers
    out = _collect(broadcast_overlay_join(_left_ds(lefts), right,
                                          how="union"))
    ga = decode_wkb(out["geometry"]).to_pylist()
    total = sum(geom_area(g) for g in ga)
    all_lefts = _union_tree(lefts)
    want = sum(geom_area(g) for g in lefts)
    for rg in rights:
        resid = boolean_op(rg, all_lefts, "difference")
        want += geom_area(resid)
    assert total == pytest.approx(want, rel=1e-9)
    # the never-touched right survives whole, with null left attrs
    far = [(lid, g) for lid, cell, g in zip(out["lid_left"].to_pylist(),
                                            out["cell_right"].to_pylist(), ga)
           if cell == "far"]
    assert len(far) == 1 and far[0][0] is None
    assert geom_area(far[0][1]) == pytest.approx(1.0)


def test_symmetric_difference(ray_session, layers):
    lefts, rights, right = layers
    out = _collect(broadcast_overlay_join(_left_ds(lefts), right,
                                          how="symmetric_difference"))
    ga = decode_wkb(out["geometry"]).to_pylist()
    total = sum(geom_area(g) for g in ga)
    grid = _union_tree(rights)
    all_lefts = _union_tree(lefts)
    want = sum(geom_area(boolean_op(lg, grid, "difference")) for lg in lefts)
    for rg in rights:
        want += geom_area(boolean_op(rg, all_lefts, "difference"))
    assert total == pytest.approx(want, rel=1e-9)
    # no row carries BOTH sides' attributes
    for lid, cell in zip(out["lid_left"].to_pylist(),
                         out["cell_right"].to_pylist()):
        assert (lid is None) != (cell is None)


def test_api_and_errors(ray_session, layers):
    import ray

    from geopolars_ray.api import GeoDataset

    lefts, rights, right = layers
    gds = GeoDataset(_left_ds(lefts))
    out = _collect(gds.overlay_join(right, how="intersection").dataset)
    assert len(out) > 0
    with pytest.raises(ValueError, match="how"):
        broadcast_overlay_join(_left_ds(lefts), right, how="nope")
    assert set(HOWS) == {"intersection", "difference", "identity", "union",
                         "symmetric_difference"}
