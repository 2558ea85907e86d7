"""The level-synchronous ``kernels.simplify`` against the per-ring
Douglas-Peucker oracle (``tests/dp_oracle.py``), bit for bit."""

import numpy as np
from hypothesis import given, settings, strategies as st

from geopolars_ray.geom import GeometryArray
from geopolars_ray.geom import kernels as K
from geopolars_ray.geom.array import LINESTRING, MULTIPOLYGON, POLYGON
from dp_oracle import simplify_rings

# a small lattice makes ties, repeated points and zero-length chords common
coord = st.one_of(st.integers(-3, 3).map(float), st.floats(-10, 10, width=64), st.just(float("nan")))
ring = st.lists(st.tuples(coord, coord), max_size=12)
closed = ring.map(lambda r: r + r[:1])  # first == last: a zero-length base chord
geometry = st.one_of(
    st.tuples(st.just(LINESTRING), ring.map(lambda r: [[r]])),
    st.tuples(st.just(POLYGON), st.lists(closed, min_size=1, max_size=3).map(lambda rs: [rs])),
    st.tuples(st.just(MULTIPOLYGON), st.lists(st.lists(closed, min_size=1, max_size=2), min_size=1, max_size=3)),
)


def _array(geoms) -> GeometryArray:
    parts = [p for _, ps in geoms for p in ps]
    rings = [r for p in parts for r in p]
    coords = np.array([c for r in rings for c in r], dtype=np.float64).reshape(-1, 2)
    cum = lambda counts: np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])  # noqa: E731
    return GeometryArray(
        types=np.array([t for t, _ in geoms], dtype=np.int8),
        geom_offsets=cum([len(ps) for _, ps in geoms]),
        part_offsets=cum([len(p) for p in parts]),
        ring_offsets=cum([len(r) for r in rings]),
        coords=coords,
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(geometry, max_size=8), st.one_of(st.just(0.0), st.floats(0, 5)))
def test_simplify_equals_per_ring_oracle(geoms, tol):
    ga = _array(geoms)
    keep = simplify_rings(ga, tol)
    out = K.simplify(ga, tol)
    np.testing.assert_array_equal(out.coords.view(np.uint64), ga.coords[keep].view(np.uint64))
    kept = np.concatenate([[0], np.cumsum(keep)])
    np.testing.assert_array_equal(out.ring_offsets, kept[ga.ring_offsets])
    np.testing.assert_array_equal(out.part_offsets, ga.part_offsets)
    np.testing.assert_array_equal(out.geom_offsets, ga.geom_offsets)


def test_simplify_nan_interval_never_splits_and_ties_take_the_first():
    nan = float("nan")
    ga = _array([
        (LINESTRING, [[[(0.0, 0.0), (1.0, 5.0), (2.0, nan), (3.0, 0.0)]]]),  # NaN max: keep the ends only
        (LINESTRING, [[[(0.0, 0.0), (1.0, 2.0), (2.0, 2.0), (3.0, 0.0)]]]),  # tie: split at the first
        (LINESTRING, [[[(0.0, 0.0), (1.0, 1.0)]]]),  # <= 2 coords: all kept
    ])
    out = K.simplify(ga, 1.0)
    assert out.ring_offsets.tolist() == [0, 2, 5, 7]
    assert out.coords[2:5].tolist() == [[0.0, 0.0], [1.0, 2.0], [3.0, 0.0]]
