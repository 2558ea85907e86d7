"""Tests: the event budget of the overlay sweep (``geom/overlay.py
_Sweep.run``), which turns a sweep that would never finish into a
``SweepBudgetError`` naming the kernel and its segment count."""

import time

import pytest

from geopolars_ray.geom import overlay as O
from geopolars_ray.geom.budget import VertexBudgetError


def _grid(n):
    """n slanted rows x n slanted columns: n^2 proper crossings."""
    rows = [((0.0, float(i)), (float(n), i + 0.5), O.SUBJECT) for i in range(n)]
    cols = [((i + 0.25, -1.0), (i + 0.3, n + 1.0), O.SUBJECT) for i in range(n)]
    return rows + cols


def test_budget_scales_with_segment_count(monkeypatch):
    """The grid needs about 1 x (segments + 1)^2 events: it runs under the
    module budget and trips a budget of 1 x (segments + 1)^2."""
    groups = O.node_segments(_grid(10))
    assert len(groups) == 2 * 10 * 11   # every segment split at 10 crossings
    monkeypatch.setattr(O, "_SWEEP_BUDGET_C", 1)
    with pytest.raises(O.SweepBudgetError, match="20 segments") as err:
        O.node_segments(_grid(10))
    assert isinstance(err.value, VertexBudgetError)
    assert "overlay sweep" in str(err.value)


def test_near_coincident_vertices_fail_loudly():
    """Two non-adjacent vertices one ulp apart make the float division
    points spawn crossings without end: the sweep popped over a million
    events in 37 s without finishing before it had a budget. It must now
    fail within seconds."""
    ring = [(0.03536860083385146, 0.4987474933020272),
            (0.48445621085532237, 0.12370197962726147),
            (0.8775825618903728, 0.479425538604203),
            (0.7316888688738209, 0.6816387600233341),
            (0.6409968581633251, 0.7675435022360271),
            (0.2701511529340699, 0.42073549240394825),
            (0.03536860083385145, 0.4987474933020272),
            (-0.4161468365471424, 0.9092974268256817),
            (0.9994494182244994, -0.03317921654755682)]
    t0 = time.perf_counter()
    with pytest.raises(O.SweepBudgetError, match="9 segments"):
        O.make_valid_geom(("polygon", [ring + [ring[0]]]))
    assert time.perf_counter() - t0 < 10.0
