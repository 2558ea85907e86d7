"""Tests: the simple-ring prefilter of ``is_valid`` / ``make_valid``
(``geom/validity.py simple_ring_mask``).

A row the prefilter passes skips the noding sweep, so these tests pin
that such a row gets exactly what the exact path gives: ``"Valid
Geometry"`` from ``_check_polygonal`` and, bit for bit, the
``make_valid_geom`` output. They also pin that the decision is row-local
(batch splits do not change any output) and that each rejection rule
sends its row down the exact path.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geopolars_ray.geom import GeometryArray
from geopolars_ray.geom import validity as V
from geopolars_ray.geom.overlay import SweepBudgetError, make_valid_arrays, make_valid_geom

# near-degenerate variants a star ring is turned into; the ones in REJECT
# put two ring features closer than the margin, so the prefilter must
# send them down the exact path
VARIANTS = ("plain", "ulp_shift", "ulp_twin", "near_edge", "collinear",
            "spike", "repeat", "repeat_far")
REJECT = ("ulp_twin", "near_edge", "spike", "repeat", "repeat_far")


def _scale(ring):
    return max(1.0, max(max(abs(x), abs(y)) for x, y in ring))


@st.composite
def star_rings(draw):
    """(variant, open vertex cycle) of a star-shaped ring, at unit or
    EPSG:3857 (~1e7) coordinate size, possibly made near-degenerate."""
    k = draw(st.integers(3, 20))
    if draw(st.booleans()):
        cx = draw(st.floats(-2.0e7, 2.0e7))
        cy = draw(st.floats(-2.0e7, 2.0e7))
        r = draw(st.floats(1.0e3, 1.0e5))
    else:
        cx = draw(st.floats(-180.0, 180.0))
        cy = draw(st.floats(-90.0, 90.0))
        r = draw(st.floats(1.0e-3, 10.0))
    ang = sorted(draw(st.lists(st.floats(0.0, 2 * math.pi, exclude_max=True),
                               min_size=k, max_size=k, unique=True)))
    rad = draw(st.lists(st.floats(0.2, 1.0), min_size=k, max_size=k))
    ring = [(cx + r * q * math.cos(a), cy + r * q * math.sin(a)) for a, q in zip(ang, rad)]
    variant = draw(st.sampled_from(VARIANTS))
    i = draw(st.integers(0, k - 1))
    # a vertex other than i and its two neighbours, when there is one
    far = [j for j in range(k) if j not in (i, (i - 1) % k, (i + 1) % k)]
    if variant == "ulp_shift":
        x, y = ring[i]
        ring[i] = (float(np.nextafter(x, np.inf)), y)
    elif variant == "ulp_twin" and far:
        x, y = ring[draw(st.sampled_from(far))]
        ring[i] = (float(np.nextafter(x, np.inf)), y)
    elif variant == "near_edge":
        # vertex i to within 1e-12 x scale of an edge it is not on
        j = draw(st.sampled_from([j for j in range(k) if j not in (i, (i - 1) % k)]))
        (ax, ay), (bx, by) = ring[j], ring[(j + 1) % k]
        t = draw(st.floats(0.1, 0.9))
        ln = math.hypot(bx - ax, by - ay) or 1.0
        off = draw(st.floats(-1.0, 1.0)) * 1e-12 * _scale(ring)
        ring[i] = (ax + t * (bx - ax) - off * (by - ay) / ln,
                   ay + t * (by - ay) + off * (bx - ax) / ln)
    elif variant == "collinear":
        (ax, ay), (bx, by) = ring[i], ring[(i + 1) % k]
        ring.insert(i + 1, ((ax + bx) / 2.0, (ay + by) / 2.0))
    elif variant == "spike":
        # back along the previous edge: a backtrack onto it
        (px, py), (x, y) = ring[i - 1], ring[i]
        ring.insert(i + 1, (x + 0.5 * (px - x), y + 0.5 * (py - y)))
    elif variant == "repeat":
        ring.insert(i, ring[i])
    elif variant == "repeat_far" and far:
        ring[i] = ring[draw(st.sampled_from(far))]
    else:
        variant = "plain"
    return variant, ring


def _poly(ring):
    return ("polygon", [ring + [ring[0]]])


def _exact_reason(ga, i):
    return V._check_polygonal(V._rings_of_row(ga, i))


def _exact_make_valid(ga) -> GeometryArray:
    return GeometryArray.from_pylist([make_valid_geom(g) for g in ga.to_pylist()])


def _same_array(a: GeometryArray, b: GeometryArray) -> bool:
    return all(np.array_equal(getattr(a, f).view(np.uint8), getattr(b, f).view(np.uint8))
               for f in ("types", "geom_offsets", "part_offsets", "ring_offsets", "coords"))


def _assert_matches_exact(ga: GeometryArray):
    """Every row's is_valid_reason and make_valid equal the exact path."""
    assert V.is_valid_reason(ga) == [
        None if ga.types[i] < 0 else _exact_reason(ga, i) for i in range(len(ga))]
    fast, exact = make_valid_arrays(ga), _exact_make_valid(ga)
    assert fast.to_pylist() == exact.to_pylist()
    assert _same_array(fast, exact)


def _assert_matches_exact_or_both_fail(ga: GeometryArray):
    """As above, but a near-degenerate ring the prefilter rejected may make
    an exact sweep run out of its event budget; then the fast entry point
    must fail the same way. Each entry point is held to its own exact path:
    the exact reason can stop at a ring check before any sweep while the
    exact make_valid's sweep runs out."""
    try:
        exact_reason = [_exact_reason(ga, 0)]
    except SweepBudgetError:
        with pytest.raises(SweepBudgetError):
            V.is_valid_reason(ga)
    else:
        assert V.is_valid_reason(ga) == exact_reason
    try:
        exact = _exact_make_valid(ga)
    except SweepBudgetError:
        with pytest.raises(SweepBudgetError):
            make_valid_arrays(ga)
    else:
        fast = make_valid_arrays(ga)
        assert fast.to_pylist() == exact.to_pylist()
        assert _same_array(fast, exact)


# a ulp twin whose exact reason is a ring self-intersection found before
# any sweep, while the exact make_valid's sweep runs out of its budget
_ULP_TWIN_REASON_WITHOUT_SWEEP = ("ulp_twin", [
    (1.0, 0.0), (0.9999980926519735, 0.001953123758236804),
    (0.499996185307585, 0.0019531200329500583), (0.03536860083385146, 0.4987474933020272),
    (0.24996948304275166, 0.003906091056220843), (0.9995117584851364, 0.03124491398532608),
    (0.9980475107000991, 0.0624593178423802), (0.992197667229329, 0.12467473338522769),
    (0.48445621085532237, 0.12370197962726147), (0.03536860083385145, 0.4987474933020272),
    (-0.17824605564949209, 0.9839859468739369), (-0.29953350618957414, 0.9540857816096938),
    (-0.4161468365471424, 0.9092974268256817), (-0.6281736227227391, 0.7780731968879212),
    (-0.8011436155469337, 0.5984721441039565), (-0.9899924966004454, 0.1411200080598672),
    (-0.6536436208636119, -0.7568024953079282)])


@settings(max_examples=300, deadline=None)
@given(star_rings())
@example(_ULP_TWIN_REASON_WITHOUT_SWEEP)
def test_prefilter_pass_implies_exact_result(case):
    variant, ring = case
    ga = GeometryArray.from_pylist([_poly(ring)])
    passed = bool(V.simple_ring_mask(ga)[0])
    if passed:
        assert _exact_reason(ga, 0) == V.VALID
        _assert_matches_exact(ga)
    else:
        _assert_matches_exact_or_both_fail(ga)
    if variant in REJECT:
        assert not passed, variant


def test_plain_stars_take_the_fast_path():
    """The property above is only worth something if most plain rings
    pass: star rings at unit and EPSG:3857 size all do."""
    rng = np.random.default_rng(3)
    rows = []
    for c, r in ((0.0, 1.0), (1.2e7, 3.0e4)):
        for _ in range(50):
            a = np.sort(rng.uniform(0, 2 * np.pi, 16))
            q = rng.uniform(0.3, 1.0, 16)
            rows.append(_poly(list(zip((c + r * q * np.cos(a)).tolist(),
                                       (c + r * q * np.sin(a)).tolist()))))
    ga = GeometryArray.from_pylist(rows)
    assert V.simple_ring_mask(ga).all()
    _assert_matches_exact(ga)


_other_rows = st.sampled_from([
    None,
    ("point", (1.0, 2.0)),
    ("linestring", [(0.0, 0.0), (4.0, 4.0), (4.0, 0.0)]),
    _poly([(0.0, 0.0), (4.0, 4.0), (4.0, 0.0), (0.0, 4.0)]),          # bowtie
    ("polygon", [[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)],
                 [(1.0, 1.0), (1.0, 3.0), (3.0, 3.0), (3.0, 1.0), (1.0, 1.0)]]),
    ("multipolygon", [[[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)]],
                      [[(5.0, 5.0), (6.0, 5.0), (6.0, 6.0), (5.0, 5.0)]]]),
])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(star_rings().map(lambda c: _poly(c[1])), _other_rows),
                min_size=1, max_size=24),
       st.lists(st.integers(1, 23), max_size=4))
def test_batch_splits_give_identical_results(rows, cuts):
    ga = GeometryArray.from_pylist(rows)
    n = len(ga)
    bounds = [0] + sorted({c for c in cuts if c < n}) + [n]
    pieces = [ga.take(np.arange(lo, hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]

    try:
        whole_valid = V.is_valid(ga)
    except SweepBudgetError:
        # a near-degenerate ring ran the exact sweep out of its budget: it
        # does so in whichever piece holds it
        for fn in (V.is_valid, V.is_valid_reason, make_valid_arrays):
            with pytest.raises(SweepBudgetError):
                for p in pieces:
                    fn(p)
        return
    assert np.array_equal(whole_valid, np.concatenate([V.is_valid(p) for p in pieces]))
    assert V.is_valid_reason(ga) == [r for p in pieces for r in V.is_valid_reason(p)]
    whole = make_valid_arrays(ga)
    parts = [make_valid_arrays(p) for p in pieces]
    assert whole.to_pylist() == [g for p in parts for g in p.to_pylist()]
    assert np.array_equal(whole.types, np.concatenate([p.types for p in parts]))
    assert np.array_equal(whole.coords.view(np.uint64),
                          np.concatenate([p.coords for p in parts]).view(np.uint64))


SQUARE = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]

# one case per rejection rule; each must take the exact path
REJECTION_CASES = {
    "not a polygon": ("multipolygon", [[SQUARE + [SQUARE[0]]]]),
    "more than one ring": ("polygon", [SQUARE + [SQUARE[0]],
                                       [(1.0, 1.0), (1.0, 3.0), (3.0, 3.0), (1.0, 1.0)]]),
    "fewer than 3 points": ("polygon", [[(0.0, 0.0), (1.0, 0.0), (0.0, 0.0)]]),
    "ring not closed": ("polygon", [SQUARE]),
    "consecutive duplicate": _poly([(0.0, 0.0), (4.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]),
    "non-adjacent edges cross": _poly([(0.0, 0.0), (4.0, 4.0), (4.0, 0.0), (0.0, 4.0)]),
    # a vertex 1e-9 from a non-adjacent edge: no crossing, but inside the
    # 1e-6 x scale margin
    "non-adjacent edges within the margin": _poly(
        [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (2.0, 1e-9), (0.0, 4.0)]),
    # the far endpoint of the next edge lies back on this one
    "adjacent far endpoint within the margin": _poly(
        [(0.0, 0.0), (4.0, 0.0), (2.0, 0.0), (4.0, 4.0), (0.0, 4.0)]),
    "zero area": _poly([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]),
}


@pytest.mark.parametrize("name", sorted(REJECTION_CASES))
def test_each_rejection_rule_takes_the_exact_path(name):
    ga = GeometryArray.from_pylist([REJECTION_CASES[name], _poly(SQUARE)])
    assert V.simple_ring_mask(ga).tolist() == [False, True]
    _assert_matches_exact(ga)


def test_non_finite_ring_is_rejected_and_the_sweep_fails_loudly():
    """A NaN vertex is left to the exact path. ``is_valid_reason`` answers
    GEOS's "Invalid Coordinate" for the row before any sweep; ``make_valid``
    still runs the sweep, which raises within the event budget."""
    ga = GeometryArray.from_pylist([_poly([(0.0, 0.0), (4.0, 0.0), (np.nan, 4.0), (0.0, 4.0)]),
                                    _poly(SQUARE)])
    assert V.simple_ring_mask(ga).tolist() == [False, True]
    assert V.is_valid_reason(ga) == ["Invalid Coordinate[nan 4]", V.VALID]
    assert V.is_valid(ga).tolist() == [False, True]
    with pytest.raises(SweepBudgetError, match="4 segments"):
        make_valid_arrays(ga)


def test_mega_vertex_ring_takes_the_exact_path(monkeypatch):
    """A ring with more vertices than one pair chunk is left to the exact
    path; below that, chunking the pair test does not change the mask."""
    rng = np.random.default_rng(8)
    rows = []
    for k in (3, 4, 5, 5, 4, 3, 9):
        a = np.sort(rng.uniform(0, 2 * np.pi, k))
        rows.append(_poly(list(zip(np.cos(a).tolist(), np.sin(a).tolist()))))
    rows.append(REJECTION_CASES["non-adjacent edges cross"])
    ga = GeometryArray.from_pylist(rows)
    full = V.simple_ring_mask(ga)
    assert full.tolist() == [True] * 7 + [False]
    monkeypatch.setattr(V, "_PAIR_CHUNK", 5)
    assert V.simple_ring_mask(ga).tolist() == [True] * 6 + [False, False]
    _assert_matches_exact(ga)
