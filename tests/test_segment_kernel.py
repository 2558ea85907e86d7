"""The segment-contact kernel and the one pair expansion: the batched join
refine and ``shortest_line`` against their per-pair / per-row oracles
(``tests/segment_oracle.py``), chunking independence, and the STR-tree's
level-synchronous query."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from geopolars_ray.geom import GeometryArray, encode_wkb
from geopolars_ray.geom import kernels as K
from geopolars_ray.geom.strtree import STRTree
from geopolars_ray.stages.join import refine_candidates, spatial_join_table
from segment_oracle import refine_pair, shortest_line_rows

# a small integer grid, so shared edges, shared vertices and collinear
# overlaps are common
grid = st.integers(0, 6).map(float)
gpt = st.tuples(grid, grid)


def _box(x, y, w, h):
    return [(x, y), (x + w, y), (x + w, y + h), (x, y + h), (x, y)]


@st.composite
def polygon_rings(draw, allow_open=True, allow_nan=True):
    x, y = draw(grid), draw(grid)
    w, h = draw(st.integers(1, 4).map(float)), draw(st.integers(1, 4).map(float))
    shape = draw(st.sampled_from(["box", "tri", "free"]))
    if shape == "box":
        ring = _box(x, y, w, h)
    elif shape == "tri":
        ring = [(x, y), (x + w, y), (x, y + h), (x, y)]
    else:
        pts = draw(st.lists(gpt, min_size=3, max_size=6))
        ring = pts + [pts[0]]
    rings = [ring]
    if shape == "box" and w >= 2 and h >= 2 and draw(st.booleans()):
        rings.append(_box(x + 0.5, y + 0.5, w - 1.0, h - 1.0)[::-1])  # a hole
    if allow_open and draw(st.booleans()):
        rings = [r[:-1] for r in rings]  # open rings
    if allow_nan and draw(st.integers(0, 9)) == 0:
        rings[0] = list(rings[0])
        rings[0][1] = (float("nan"), rings[0][1][1])  # a NaN vertex
    return rings


def geometries(allow_open=True, allow_nan=True):
    rings = polygon_rings(allow_open, allow_nan)
    return st.one_of(
        st.none(),
        st.tuples(st.just("point"), gpt),
        st.tuples(st.just("point"), st.tuples(grid.map(lambda v: v + 0.5), grid)),  # on grid edges
        st.tuples(st.just("linestring"), st.lists(gpt, min_size=2, max_size=5)),
        st.tuples(st.just("multilinestring"), st.lists(st.lists(gpt, min_size=2, max_size=4), min_size=1, max_size=2)),
        st.tuples(st.just("polygon"), rings),
        st.tuples(st.just("multipolygon"), st.lists(rings, min_size=1, max_size=2)),
    )


def _map_coords(g, f):
    kind, body = g
    if kind == "point":
        return kind, f(body)
    if kind in ("linestring", "multipoint"):
        return kind, [f(p) for p in body]
    if kind in ("polygon", "multilinestring"):
        return kind, [[f(p) for p in r] for r in body]
    return kind, [[[f(p) for p in r] for r in poly] for poly in body]


def _xy(g):
    out = []
    _map_coords(g, lambda p: out.append(p) or p)
    return np.array(out)


def derived(g, how: str):
    """A copy of ``g`` placed against it: the same, shrunk or grown about
    its bbox center (nested), shifted by half its size (each side's
    vertices inside the other), by its width (a shared edge) or by
    (width + 1, 1) (parallel edges at distance 1, so nearest-pair ties)."""
    xy = _xy(g)
    with np.errstate(invalid="ignore"):
        lo, hi = np.nanmin(xy, axis=0), np.nanmax(xy, axis=0)
    (cx, cy), (w, h) = (lo + hi) / 2, hi - lo
    f = {
        "same": lambda p: p,
        "shrink": lambda p: (cx + (p[0] - cx) / 2, cy + (p[1] - cy) / 2),
        "grow": lambda p: (cx + (p[0] - cx) * 2, cy + (p[1] - cy) * 2),
        "overlap": lambda p: (p[0] + w / 2, p[1] + h / 2),
        "touch": lambda p: (p[0] + w, p[1]),
        "gap": lambda p: (p[0] + w + 1, p[1] + 1),
    }[how]
    return _map_coords(g, f)


placements = st.sampled_from(["same", "shrink", "grow", "overlap", "touch", "gap"])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_batched_refine_equals_per_pair_oracle(data):
    left = data.draw(st.lists(geometries(), min_size=1, max_size=6))
    right = data.draw(st.lists(geometries(), min_size=0, max_size=4))
    right += [derived(g, data.draw(placements)) for g in left if g is not None]
    lg, rg = GeometryArray.from_pylist(left), GeometryArray.from_pylist(right)
    li, ri = (a.ravel().astype(np.int64) for a in np.meshgrid(np.arange(len(lg)), np.arange(len(rg)), indexing="ij"))
    live = ~lg.is_missing()[li] & ~rg.is_missing()[ri]
    li, ri = li[live], ri[live]
    for predicate in ("intersects", "contains", "within"):
        got = refine_candidates(lg, rg, li, ri, predicate)
        want = [refine_pair(lg, rg, int(i), int(j), predicate) for i, j in zip(li, ri)]
        assert got.tolist() == want, predicate


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_shortest_line_equals_per_row_oracle(data):
    closed = geometries(allow_open=False, allow_nan=False)
    left = data.draw(st.lists(closed, min_size=1, max_size=8))
    right = [derived(g, data.draw(placements)) if g is not None and data.draw(st.integers(0, 3)) else data.draw(closed)
             for g in left]
    lhs, rhs = GeometryArray.from_pylist(left), GeometryArray.from_pylist(right)
    assert K.shortest_line(lhs, rhs).to_pylist() == shortest_line_rows(lhs, rhs)


def test_shortest_line_witness_order():
    """A vertex of rhs inside lhs comes before one of lhs inside rhs, and a
    proper crossing before a touch met earlier in pair order."""
    lhs = GeometryArray.from_pylist([("polygon", [_box(0.0, 0.0, 2.0, 2.0)]),
                                     ("linestring", [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (4.0, 0.0)])])
    rhs = GeometryArray.from_pylist([("polygon", [_box(1.0, 1.0, 2.0, 2.0)]),
                                     ("linestring", [(0.0, 0.0), (0.0, -1.0), (3.0, 2.0)])])
    assert K.shortest_line(lhs, rhs).to_pylist() == [
        ("linestring", [(1.0, 1.0), (1.0, 1.0)]), ("linestring", [(1.0, 0.0), (1.0, 0.0)])]
    assert K.shortest_line(lhs, rhs).to_pylist() == shortest_line_rows(lhs, rhs)


def _mixed(rng, n, span=12.0):
    out = []
    for _ in range(n):
        x, y = rng.integers(0, 10, 2).astype(float)
        k = rng.integers(0, 5)
        if k == 0:
            out.append(("point", (x + 0.5, y)))
        elif k == 1:
            out.append(("linestring", [tuple(p) for p in rng.integers(0, span, (rng.integers(2, 30), 2)).astype(float)]))
        elif k == 2:
            out.append(("polygon", [_box(x, y, 3.0, 2.0), _box(x + 1, y + 0.5, 1.0, 1.0)[::-1]]))
        elif k == 3:
            out.append(("multipolygon", [[_box(x, y, 2.0, 2.0)], [_box(x + 3, y, 1.0, 4.0)[:-1]]]))
        else:
            ang = np.linspace(0, 2 * np.pi, 40)
            out.append(("polygon", [[(x + 4 * np.cos(a), y + 4 * np.sin(a)) for a in ang]]))
    return out


def _outputs(lhs, rhs, lt, rt):
    out = [K.distance(lhs, rhs).tobytes(), K.hausdorff_distance(lhs, rhs).tobytes(),
           K.shortest_line(lhs, rhs).to_pylist()]
    for predicate in ("intersects", "contains", "within"):
        out.append(spatial_join_table(lt, rt, how="left", predicate=predicate).to_pydict())
    return out


def test_outputs_do_not_depend_on_the_pair_budget(monkeypatch):
    """Every pair expansion gives the same answers when chunks hold 64
    pairs (rows far above that split into strips) as at the default."""
    rng = np.random.default_rng(15)
    left, right = _mixed(rng, 40), _mixed(rng, 40)
    # a touch in the first strip and a proper crossing in a later one: the
    # witness is the crossing whatever the chunking
    left.append(("linestring", [(0.0, 0.0), (1.0, 0.0)] + [(float(i), 5.0) for i in range(2, 40)] + [(20.0, -5.0)]))
    right.append(("linestring", [(1.0, 0.0), (1.0, -1.0)] + [(float(i), -3.0) for i in range(2, 40)] + [(19.0, 10.0)]))
    lhs, rhs = GeometryArray.from_pylist(left), GeometryArray.from_pylist(right)
    lt = pa.table({"geometry": encode_wkb(lhs), "a": np.arange(len(lhs))})
    rt = pa.table({"geometry": encode_wkb(rhs), "b": np.arange(len(rhs))})
    c0, c1 = K._coord_ranges(lhs)
    d0, d1 = K._coord_ranges(rhs)
    assert ((c1 - c0) * (d1 - d0)).max() > 64 * 20
    default = _outputs(lhs, rhs, lt, rt)
    monkeypatch.setattr(K, "_PAIR_BUDGET", 64)
    assert _outputs(lhs, rhs, lt, rt) == default
    p, q = default[2][-1][1]
    assert p == q and p[1] != 0.0  # the proper crossing, not the first touch at (1, 0)


def test_pairs_per_row_strips_a_row_above_the_budget(monkeypatch):
    monkeypatch.setattr(K, "_PAIR_BUDGET", 10)
    ca = (np.array([0, 7, 30]), np.array([7, 30, 31]))
    cb = (np.array([0, 0, 0]), np.array([3, 2, 40]))
    chunks = list(K._pairs_per_row(ca, cb))
    pairs = [(int(c.sel[p]), int(v), int(j)) for c in chunks for p, v, j in zip(c.prow, c.vi, c.cj)]
    want = [(r, v, j) for r in range(3) for v in range(ca[0][r], ca[1][r]) for j in range(cb[0][r], cb[1][r])]
    assert pairs == want  # every pair once, in (row, A index, B index) order
    for c in chunks:
        assert len(np.unique(c.sel)) == len(c.sel)
        # whole A-index blocks, and at most max(2 x budget, one block)
        blk = np.bincount(c.prow)
        nb = (cb[1] - cb[0])[c.sel]
        assert (blk % nb == 0).all()
        assert len(c.vi) < 2 * 10 or len(c.sel) == 1 and blk[0] <= max(10, nb[0])


def test_shortest_line_nan_nearest_pair_is_missing():
    """A NaN coordinate on the nearest-pair passes leaves the row missing,
    as ``distance`` leaves it NaN."""
    lhs = GeometryArray.from_pylist([("linestring", [(0.0, 0.0), (float("nan"), 1.0), (2.0, 0.0)])])
    rhs = GeometryArray.from_pylist([("point", (5.0, 5.0))])
    assert np.isnan(K.distance(lhs, rhs)[0])
    assert K.shortest_line(lhs, rhs).to_pylist() == [None]


@pytest.mark.parametrize("n_items", [1, 16, 17, 700])
def test_query_boxes_equals_brute_force(n_items):
    rng = np.random.default_rng(n_items)
    xy = rng.uniform(0, 100, (n_items, 2))
    items = np.c_[xy, xy + rng.uniform(0, 6, (n_items, 2))]
    items[n_items // 2] = np.nan if n_items > 1 else items[0]
    qxy = rng.uniform(-5, 100, (300, 2))
    queries = np.c_[qxy, qxy + rng.uniform(0, 12, (300, 2))]
    queries[0] = [-1.0, -1.0, 200.0, 200.0]
    queries[7] = np.nan
    tree = STRTree(items)
    qi, ti = tree.query_boxes(queries)
    hit = ((items[None, :, 0] <= queries[:, None, 2]) & (items[None, :, 2] >= queries[:, None, 0])
           & (items[None, :, 1] <= queries[:, None, 3]) & (items[None, :, 3] >= queries[:, None, 1]))
    wq, wt = np.nonzero(hit)  # query-major, item ids ascending
    np.testing.assert_array_equal(qi, wq)
    np.testing.assert_array_equal(ti, wt)
    for i in (0, 7, 100):
        np.testing.assert_array_equal(tree.query_box(*queries[i]), wt[wq == i])
    assert [len(a) for a in STRTree(np.empty((0, 4))).query_boxes(queries)] == [0, 0]
