"""Per-ring Douglas-Peucker: the oracle the level-synchronous
``kernels.simplify`` is tested against. One interval stack per ring, one
``np.argmax`` per interval."""

import numpy as np

from geopolars_ray.geom.array import GeometryArray


def dp_mark(coords: np.ndarray, i0: int, i1: int, tol: float, keep: np.ndarray) -> None:
    """Iterative Douglas-Peucker: mark kept indices in [i0, i1]."""
    stack = [(i0, i1)]
    while stack:
        a, b = stack.pop()
        if b - a < 2:
            continue
        seg = coords[b] - coords[a]
        pts = coords[a + 1 : b] - coords[a]
        seg_len = np.sqrt(seg[0] * seg[0] + seg[1] * seg[1])
        if seg_len == 0:
            d = np.sqrt(pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1])
        else:
            d = np.abs(pts[:, 0] * seg[1] - pts[:, 1] * seg[0]) / seg_len
        j = int(np.argmax(d))
        if d[j] > tol:
            m = a + 1 + j
            keep[m] = True
            stack.append((a, m))
            stack.append((m, b))


def simplify_rings(ga: GeometryArray, tolerance: float) -> np.ndarray:
    """bool[n_coords]: the coordinates Douglas-Peucker keeps, ring by ring."""
    keep = np.zeros(len(ga.coords), dtype=bool)
    for r in range(ga.n_rings):
        s, e = int(ga.ring_offsets[r]), int(ga.ring_offsets[r + 1])
        if e - s <= 2:
            keep[s:e] = True
            continue
        keep[s] = True
        keep[e - 1] = True
        dp_mark(ga.coords, s, e - 1, tolerance, keep)
    return keep
