"""Every two-column GeoDataset method runs through one registry
(``stages/geo.py BINARY_KERNELS``) and one factory (``geo_binary_op``).

Each method, run as a Ray Data pipeline, must give the same column as the
direct kernel call on the same decoded arrays: byte for byte for WKB
results, value for value for scalar ones. The fixtures carry missing rows.
"""

import numpy as np
import pyarrow as pa
import pytest

from geopolars_ray.geom import GeometryArray, decode_wkb, encode_wkb
from geopolars_ray.geom import kernels as K
from geopolars_ray.geom import relate as R
from geopolars_ray.geom.overlay import overlay_arrays
from geopolars_ray.geom.polygonize import shared_paths_arrays
from geopolars_ray.geom.split import split_arrays


def _sq(x, y, s):
    return ("polygon", [[(x, y), (x + s, y), (x + s, y + s), (x, y + s), (x, y)]])


def _table(left, right, right_col="other"):
    n = len(left)
    return pa.table({
        "rid": pa.array(np.arange(n)),
        "geometry": encode_wkb(GeometryArray.from_pylist(left)),
        right_col: encode_wkb(GeometryArray.from_pylist(right)),
    })


# polygon pairs: overlapping, touching, nested, equal, disjoint, missing
POLYS = _table(
    [_sq(0, 0, 2), _sq(0, 0, 1), _sq(0, 0, 4), _sq(3, 3, 1), _sq(0, 0, 1), None, _sq(9, 9, 1),
     ("polygon", [[(0, 0), (6, 0), (6, 6), (0, 6), (0, 0)], [(2, 2), (4, 2), (4, 4), (2, 4), (2, 2)]])],
    [_sq(1, 1, 2), _sq(1, 0, 1), _sq(1, 1, 1), _sq(3, 3, 1), _sq(5, 5, 1), _sq(0, 0, 1), None,
     _sq(3, 3, 2)],
)
POINTS = _table(
    [("point", (0.0, 0.0)), ("point", (10.0, 50.0)), ("point", (3.0, 4.0)), None,
     ("point", (-2.0, 1.0))],
    [("point", (1.0, 1.0)), ("point", (11.0, 49.0)), ("point", (3.0, 4.0)),
     ("point", (0.0, 0.0)), None],
)
LINES = _table(
    [("linestring", [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0)]),
     ("linestring", [(0.0, 1.0), (5.0, 1.0)]),
     ("linestring", [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]),
     None,
     ("linestring", [(0.0, 0.0), (3.0, 3.0)])],
    [("linestring", [(4.0, 4.0), (4.0, 0.0), (2.0, 0.0)]),
     ("linestring", [(2.0, -1.0), (2.0, 3.0)]),
     ("linestring", [(0.0, 0.5), (2.0, 0.5)]),
     ("linestring", [(0.0, 0.0), (1.0, 0.0)]),
     None],
)
LINE_POINT = _table(
    [("linestring", [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0)]),
     ("linestring", [(0.0, 0.0), (10.0, 0.0)]), None,
     ("linestring", [(1.0, 1.0), (2.0, 2.0)])],
    [("point", (4.0, 1.0)), ("point", (-3.0, 2.0)), ("point", (0.0, 0.0)), None],
    right_col="pt",
)


def _pred(name):
    return (name, POLYS, lambda g: getattr(g, name)("other"),
            lambda a, b: R.predicate(a, b, name), name)


# (id, table, method call, direct kernel call, output column): an output of
# "geometry" is the replaced left column; a pair of names is a pair of
# WKB results
CASES = [
    ("distance", POLYS, lambda g: g.distance("other"), K.distance, "distance"),
    ("distance_points", POINTS, lambda g: g.distance("other", out_col="d"), K.distance, "d"),
    ("dwithin", POLYS, lambda g: g.dwithin("other", 1.5),
     lambda a, b: K.distance(a, b) <= 1.5, "dwithin"),
    ("azimuth", POINTS, lambda g: g.azimuth("other"), K.azimuth, "azimuth"),
    ("azimuth_geodesic", POINTS, lambda g: g.azimuth("other", out_col="az", geodesic=True),
     K.geodesic_azimuth, "az"),
    ("relate", POLYS, lambda g: g.relate("other"), R.relate, "relate"),
    ("relate_pattern", POLYS, lambda g: g.relate("other", pattern="T*T***T**", out_col="m"),
     lambda a, b: R.relate_pattern(a, b, "T*T***T**"), "m"),
    *[_pred(p) for p in ("intersects", "disjoint", "within", "contains", "touches",
                         "crosses", "overlaps", "covers", "covered_by")],
    ("geom_equals", POLYS, lambda g: g.geom_equals("other"),
     lambda a, b: R.predicate(a, b, "equals"), "equals"),
    ("shortest_line", POLYS, lambda g: g.shortest_line("other"), K.shortest_line,
     "shortest_line"),
    ("hausdorff_distance", POLYS, lambda g: g.hausdorff_distance("other"),
     K.hausdorff_distance, "hausdorff"),
    ("frechet_distance", LINES, lambda g: g.frechet_distance("other", out_col="f"),
     K.frechet_distance, "f"),
    ("snap", POLYS, lambda g: g.snap("other", 0.5),
     lambda a, b: K.snap_geoms(a, b, 0.5), "geometry"),
    ("split", LINES, lambda g: g.split("other"), split_arrays, "geometry"),
    ("shared_paths", LINES, lambda g: g.shared_paths("other"), shared_paths_arrays,
     ("shared_same", "shared_opposite")),
    ("project", LINE_POINT, lambda g: g.project("pt"), K.line_locate_point, "measure"),
    ("project_normalized", LINE_POINT, lambda g: g.project("pt", normalized=True),
     lambda a, b: K.line_locate_point(a, b, normalized=True), "measure"),
    *[(how, POLYS, lambda g, how=how: g.overlay("other", how),
       lambda a, b, how=how: overlay_arrays(a, b, how), "geometry")
      for how in ("intersection", "union", "difference", "symmetric_difference")],
    *[(f"{how}_method", POLYS, lambda g, how=how: getattr(g, how)("other"),
       lambda a, b, how=how: overlay_arrays(a, b, how), "geometry")
      for how in ("intersection", "union", "difference", "symmetric_difference")],
]


def _collect(gds) -> pa.Table:
    import ray

    out = pa.concat_tables(ray.get(gds.dataset.to_arrow_refs()))
    return out.take(pa.compute.sort_indices(out["rid"]))


def _gds(t: pa.Table):
    import ray

    from geopolars_ray.api import GeoDataset

    return GeoDataset(ray.data.from_arrow(t).repartition(2))


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_binary_method_matches_kernel(ray_session, case):
    _, t, method, kernel, out = case
    right_col = t.column_names[2]
    got = _collect(method(_gds(t)))
    want = kernel(decode_wkb(t["geometry"]), decode_wkb(t[right_col]))
    outs, wants = ((out,), (want,)) if isinstance(out, str) else (out, want)
    assert got.num_rows == t.num_rows
    assert got.column_names.count(right_col) == 1
    for col, w in zip(outs, wants):
        assert got.column_names.count(col) == 1
        if isinstance(w, GeometryArray):
            assert got[col].to_pylist() == encode_wkb(w).to_pylist()
        elif isinstance(w, np.ndarray) and w.dtype.kind == "f":
            np.testing.assert_array_equal(got[col].to_numpy(), w)
        else:
            assert got[col].to_pylist() == list(w)


def test_binary_registry_covers_the_predicate_family():
    from geopolars_ray.stages.geo import BINARY_KERNELS

    assert set(R.PREDICATES) <= set(BINARY_KERNELS)


def test_reapplied_scalar_op_replaces_its_column(ray_session):
    gds = _gds(POLYS)
    got = _collect(gds.distance("other").distance("other").intersects("other")
                   .intersects("other").dwithin("other", 1.0).dwithin("other", 2.0))
    assert got.column_names == ["rid", "geometry", "other", "distance", "intersects",
                                "dwithin"]
    dist = K.distance(decode_wkb(POLYS["geometry"]), decode_wkb(POLYS["other"]))
    np.testing.assert_array_equal(got["distance"].to_numpy(), dist)
    assert got["dwithin"].to_pylist() == list(dist <= 2.0)


def test_bounds_twice_replaces_its_columns(ray_session):
    got = _collect(_gds(POLYS).bounds().bounds())
    assert got.column_names == ["rid", "geometry", "other", "xmin", "ymin", "xmax", "ymax"]
    xmin, ymin, xmax, ymax = K.bounds(decode_wkb(POLYS["geometry"]))
    np.testing.assert_array_equal(got["xmax"].to_numpy(), xmax)


_LINE_PAIRS = ([("linestring", [(0.0, 0.0), (4.0, 0.0)]), ("linestring", [(0.0, 1.0), (4.0, 1.0)])],
               [("linestring", [(2.0, -1.0), (2.0, 2.0)]), ("linestring", [(1.0, 0.0), (1.0, 2.0)])])
_POLY_PAIRS = ([_sq(0, 0, 2), _sq(5, 5, 2)], [_sq(1, 1, 2), _sq(6, 6, 2)])


@pytest.mark.parametrize("call, pairs", [
    (lambda g: g.snap("other", 0.25), _POLY_PAIRS),
    (lambda g: g.split("other"), _LINE_PAIRS),
    (lambda g: g.overlay("other", "union"), _POLY_PAIRS),
], ids=["snap", "split", "overlay"])
def test_geometry_ops_keep_geoarrow(ray_session, call, pairs):
    """A geometry result replaces a GeoArrow left column as GeoArrow (its
    rows are single-typed and present, so no WKB fallback applies)."""
    from geopolars_ray.stages.geo import decode_geometry, to_geoarrow

    t = _table(*pairs)
    got = _collect(call(_gds(to_geoarrow()(t))))
    assert not pa.types.is_binary(got.schema.field("geometry").type)
    want = _collect(call(_gds(t)))
    assert decode_geometry(got)[0].to_pylist() == decode_wkb(want["geometry"]).to_pylist()
