"""Canonical Uber H3 cell indexing (vectorized numpy, no native h3 dependency).

Implements the published H3 cell-indexing algorithm (uber/h3, Apache-2.0):
``latlng_to_cell`` (geoToH3), ``cell_to_latlng`` (h3ToGeo with Class-II
overage handling), parents/children and predicates, producing bit-identical
canonical H3 indexes.

Provenance / honesty note
-------------------------
Only two tables are copied from the published H3 source: ``FACE_CENTER_GEO``
(icosahedron face centers, faceijk.c) and ``BASE_CELL_DATA`` (the 122 base
cells with home face/ijk, pentagon flags and cw-offset faces, baseCells.c).
The remaining structure H3 hard-codes — icosahedron vertices, the per-face
Class-II i-axis orientation, the ``faceIjkBaseCells`` (face, ijk) -> (base
cell, rotations) table and the cross-edge lattice relabeling used for
overage — was *derived* geometrically in-sandbox (icosahedron reconstruction,
orientation constraint solving, cross-frame consistency probing) and is
pinned by five independently published anchor ids:

- ``latLngToCell(0, 0, 0)                              == 8075fffffffffff``
- ``latLngToCell(37.3615593, -122.0553238, 7)          == 87283472bffffff``
- ``latLngToCell(37.775938728915946, -122.41795063018799, 9)
                                                        == 8928308280fffff``
- ``latLngToCell(40.689167, -74.044444, 10)            == 8a2a1072b59ffff``
- ``cellToLatLng(85283473fffffff) == (37.34579337536848, -121.97637597255124)``

plus exhaustive structural invariants (12 pentagons, all-res round trips,
parent/child closure) in tests/test_h3.py.

Reference parity: the geopolars reference has no H3 support; this module
closes the north-star "H3 res-7" noun (BASELINE.json north_rule).
"""
from __future__ import annotations

import numpy as np

from . import _h3_tables as T
from .tiles import polygon_grid_cells

RES0_U = 0.38196601125010500003          # RES0_U_GNOMONIC
AP7_ROT = float(np.arcsin(np.sqrt(3.0 / 28.0)))
SQRT7 = float(np.sqrt(7.0))
S3_2 = float(np.sqrt(3.0) / 2.0)
MAX_RES = 15

_CCW = np.array([0, 5, 3, 1, 6, 4, 2, 7], dtype=np.int64)
_CW = np.array([0, 3, 6, 2, 5, 1, 4, 7], dtype=np.int64)
_CCW_POW = np.empty((6, 8), dtype=np.int64)
_CCW_POW[0] = np.arange(8)
for _n in range(1, 6):
    _CCW_POW[_n] = _CCW[_CCW_POW[_n - 1]]
K_DIGIT = 1

# unit ijk vector per digit
_UNIT = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1],
                  [1, 0, 0], [1, 0, 1], [1, 1, 0]], dtype=np.int64)

# ---- geometry tables (import-time, cheap trig) ----


def _ll2xyz(lat, lng):
    cl = np.cos(lat)
    return np.stack([cl * np.cos(lng), cl * np.sin(lng), np.sin(lat)], axis=-1)


def _xyz_to_latlng(p):
    """unit vectors (n, 3) -> (lat, lng) degrees.  The arctan2 operands are
    contiguous copies: on strided column views numpy picks its vector or its
    scalar arctan2 loop from the operands' addresses, the two differ in the
    last ulp, and the same cell got a different boundary in another process."""
    lat = np.degrees(np.arcsin(np.clip(p[:, 2], -1.0, 1.0)))
    lng = np.degrees(np.arctan2(np.ascontiguousarray(p[:, 1]), np.ascontiguousarray(p[:, 0])))
    return lat, lng


_CENTERS = _ll2xyz(T.FACE_CENTER_GEO[:, 0], T.FACE_CENTER_GEO[:, 1])
_Z = np.array([0.0, 0.0, 1.0])
_NHAT = _Z - (_CENTERS @ _Z)[:, None] * _CENTERS
_NHAT /= np.linalg.norm(_NHAT, axis=1, keepdims=True)
_EHAT = np.cross(np.broadcast_to(_Z, (20, 3)), _CENTERS)
_EHAT /= np.linalg.norm(_EHAT, axis=1, keepdims=True)


def _azimuth_to(f, p):
    d = p - (p @ _CENTERS[f]) * _CENTERS[f]
    return float(np.arctan2(d @ _EHAT[f], d @ _NHAT[f]))


_AZ_I = np.array([_azimuth_to(f, T.VERTS[T.I_VERT[f]]) for f in range(20)])

_BCD = T.BASE_CELL_DATA
_BC_HOME_FACE = np.array([r[0] for r in _BCD], dtype=np.int64)
_BC_HOME_IJK = np.array([r[1] for r in _BCD], dtype=np.int64)
_PENT = np.array([bool(r[2]) for r in _BCD])
_CW_OFF = np.zeros((122, 20), dtype=bool)
for _b, _r in enumerate(_BCD):
    for _f in _r[3]:
        if _f >= 0:
            _CW_OFF[_b, _f] = True

_FIJK_BC = T.FIJK_BC

# cross-edge maps -> dense arrays per (face, edge) with edge 0=IJ 1=JK 2=KI
_EDGE_CORNER_IDX = {0: (0, 1), 1: (1, 2), 2: (2, 0)}   # into CORNER_VERTS rows
_NBR_FACE = np.full((20, 3), -1, dtype=np.int64)
_NBR_ROT = np.zeros((20, 3), dtype=np.int64)
_NBR_T = np.zeros((20, 3, 2), dtype=np.int64)
_vert_faces: dict[int, list[int]] = {}
for _f in range(20):
    for _v in T.CORNER_VERTS[_f]:
        _vert_faces.setdefault(_v, []).append(_f)
for _f in range(20):
    for _e, (_a, _b) in _EDGE_CORNER_IDX.items():
        _va, _vb = T.CORNER_VERTS[_f][_a], T.CORNER_VERTS[_f][_b]
        _g = next(x for x in _vert_faces[_va] if x != _f and x in _vert_faces[_vb])
        _NBR_FACE[_f, _e] = _g
        _n, _t = T.EDGE_MAPS[f"{_f},{_g}"]
        _NBR_ROT[_f, _e] = _n
        _NBR_T[_f, _e] = _t

# axial 60-deg ccw rotation matrices M^n on (a, b) = (i-k, j-k)
_AXM = np.array([[1, -1], [1, 0]], dtype=np.int64)
_AXM_POW = np.empty((6, 2, 2), dtype=np.int64)
_AXM_POW[0] = np.eye(2, dtype=np.int64)
for _n in range(1, 6):
    _AXM_POW[_n] = _AXM @ _AXM_POW[_n - 1]


def _norm3(i, j, k):
    mn = np.minimum(np.minimum(i, j), k)
    return i - mn, j - mn, k - mn


def _hex2d_to_ijk(x, y):
    """containing hex of a 2D point: exact nearest-center (cube rounding).

    Hexagon cells are the Voronoi regions of the lattice, so "containing
    hex" == nearest center; cube rounding computes it exactly and is stable
    at exact cell centers (fractional parts are 0 there), which keeps
    cellToLatLng -> latLngToCell round trips bit-exact at every resolution.
    """
    bf = y / S3_2                 # fractional j  (y = j * sqrt(3)/2)
    af = x + 0.5 * bf             # fractional i  (x = i - j/2)
    # standard hex axial coords are (a, -b) for this basis (the lattice
    # neighbor set here includes (1,1)/(-1,-1), not (1,-1)/(-1,1))
    cx = af
    cz = -bf
    cy = -cx - cz
    rx = np.rint(cx)
    ry = np.rint(cy)
    rz = np.rint(cz)
    dx = np.abs(rx - cx)
    dy = np.abs(ry - cy)
    dz = np.abs(rz - cz)
    fix_x = (dx >= dy) & (dx >= dz)
    fix_z = ~fix_x & (dz >= dy)
    rx = np.where(fix_x, -ry - rz, rx)
    rz = np.where(fix_z, -rx - ry, rz)
    return _norm3(rx.astype(np.int64), (-rz).astype(np.int64),
                  np.zeros(len(rx), dtype=np.int64))


def _lround_div7(num):
    """lround(num / 7.0) for integer arrays (never lands on exact .5).

    np.rint (round-half-even) is safe because (int mod 7)/7 is never .5,
    and it skips numpy's decimal-scaling path.
    """
    return np.rint(num / 7.0).astype(np.int64)


def _up_ap7r(i, j, k):
    ii = i - k
    jj = j - k
    return _norm3(_lround_div7(2 * ii + jj), _lround_div7(3 * jj - ii),
                  np.zeros_like(i))


def _up_ap7_raw(i, j, k):
    """up_ap7 without normalization (ijk are equivalence classes mod (c,c,c))."""
    ii = i - k
    jj = j - k
    return _lround_div7(3 * ii - jj), _lround_div7(ii + 2 * jj)


def _up_ap7r_raw(i, j, k):
    ii = i - k
    jj = j - k
    return _lround_div7(2 * ii + jj), _lround_div7(3 * jj - ii)


def _down_ap7(i, j, k):
    # iVec={3,0,1} jVec={1,3,0} kVec={0,1,3}
    return _norm3(3 * i + j, 3 * j + k, i + 3 * k)


def _down_ap7r(i, j, k):
    # iVec={3,1,0} jVec={0,3,1} kVec={1,0,3}
    return _norm3(3 * i + k, i + 3 * j, j + 3 * k)


def _leading_nonzero(digits):
    """first nonzero digit per row of an (N, res) array; 0 if none."""
    if digits.shape[1] == 0:
        return np.zeros(digits.shape[0], dtype=np.int64)
    nz = digits != 0
    pos = np.argmax(nz, axis=1)
    val = digits[np.arange(len(digits)), pos]
    return np.where(nz.any(axis=1), val, 0)


def _rotate_pent60ccw(digits):
    """_h3RotatePent60ccw on an (N, res) digit array."""
    out = _CCW[digits]
    lead_k = _leading_nonzero(out) == K_DIGIT
    if lead_k.any():
        out[lead_k] = _CCW[out[lead_k]]
    return out


def latlng_to_cell(lat, lng, res: int):
    """Canonical H3 index per point (degrees). Vectorized; returns uint64."""
    if not 0 <= res <= MAX_RES:
        raise ValueError(f"res must be in [0, {MAX_RES}]")
    lat = np.atleast_1d(np.asarray(lat, dtype=np.float64))
    lng = np.atleast_1d(np.asarray(lng, dtype=np.float64))
    p = _ll2xyz(np.radians(lat), np.radians(lng))
    # nearest face (running max, avoids the (n,20) temporary)
    best = p @ _CENTERS[0]
    face = np.zeros(len(p), dtype=np.int64)
    for f in range(1, 20):
        d = p @ _CENTERS[f]
        m = d > best
        np.copyto(best, d, where=m)
        face[m] = f
    r = np.arccos(np.clip(best, -1.0, 1.0))
    cg = _CENTERS[face]
    d = p - best[:, None] * cg
    az = np.arctan2(np.einsum("ij,ij->i", d, _EHAT[face]),
                    np.einsum("ij,ij->i", d, _NHAT[face]))
    theta = _AZ_I[face] - az
    if res % 2 == 1:
        theta = theta - AP7_ROT
    rr = np.tan(r) / RES0_U * SQRT7 ** res
    i, j, k = _hex2d_to_ijk(rr * np.cos(theta), rr * np.sin(theta))
    return _face_ijk_to_h3(face, i, j, k, res)


def _face_ijk_to_h3(face, i, j, k, res: int):
    n = len(face)
    digits = np.zeros((n, res), dtype=np.int64)
    # all intermediate coords are equivalence classes mod (c,c,c), so only
    # the digit differences and the final res-0 lookup need normalization
    for r in range(res, 0, -1):
        li, lj, lk = i, j, k
        if r % 2 == 1:           # class III
            i, j = _up_ap7_raw(i, j, k)
            ci, cj, ck = 3 * i + j, 3 * j, i          # down_ap7 with k=0
        else:
            i, j = _up_ap7r_raw(i, j, k)
            ci, cj, ck = 3 * i, i + 3 * j, j          # down_ap7r with k=0
        k = np.zeros_like(i)
        di, dj, dk = _norm3(li - ci, lj - cj, lk - ck)
        digits[:, r - 1] = 4 * di + 2 * dj + dk
    i, j, k = _norm3(i, j, k)
    if digits.size and int(digits.max(initial=0)) > 6:
        raise AssertionError("internal: non-unit digit in aggregation")
    if int(np.maximum(np.maximum(i, j), k).max(initial=0)) > 2:
        raise AssertionError("internal: res-0 coords out of the 3x3x3 range")
    bc = _FIJK_BC[face, i, j, k, 0]
    rot = _FIJK_BC[face, i, j, k, 1]
    if int(bc.min(initial=0)) < 0:
        raise AssertionError("internal: unmapped (face, ijk) base cell")
    pent = _PENT[bc]
    hexm = ~pent
    if hexm.any():
        digits[hexm] = _CCW_POW[rot[hexm][:, None], digits[hexm]]
    if pent.any():
        idx = np.where(pent)[0]
        dsub = digits[idx]
        lead_k = _leading_nonzero(dsub) == K_DIGIT
        if lead_k.any():
            cw = _CW_OFF[bc[idx], face[idx]]
            mcw = lead_k & cw
            mccw = lead_k & ~cw
            if mcw.any():
                dsub[mcw] = _CW[dsub[mcw]]
            if mccw.any():
                dsub[mccw] = _CCW[dsub[mccw]]
        rsub = rot[idx]
        for step in range(1, 5):
            m = rsub >= step
            if not m.any():
                break
            dsub[m] = _rotate_pent60ccw(dsub[m])
        digits[idx] = dsub
    return _pack(res, bc, digits)


def _pack(res: int, bc, digits):
    header = (1 << 59) | (res << 52) | ((1 << (3 * (15 - res))) - 1)
    h = np.full(len(bc), header, dtype=np.uint64)
    h |= bc.astype(np.uint64) << np.uint64(45)
    for r in range(1, res + 1):
        h |= digits[:, r - 1].astype(np.uint64) << np.uint64(3 * (15 - r))
    return h


def get_resolution(ids):
    ids = np.atleast_1d(np.asarray(ids, dtype=np.uint64))
    return ((ids >> np.uint64(52)) & np.uint64(0xF)).astype(np.int64)


def get_base_cell(ids):
    ids = np.atleast_1d(np.asarray(ids, dtype=np.uint64))
    return ((ids >> np.uint64(45)) & np.uint64(0x7F)).astype(np.int64)


def _digits_of(ids, res: int):
    out = np.empty((len(ids), res), dtype=np.int64)
    for r in range(1, res + 1):
        out[:, r - 1] = ((ids >> np.uint64(3 * (15 - r))) & np.uint64(7)).astype(np.int64)
    return out


def is_pentagon(ids):
    ids = np.atleast_1d(np.asarray(ids, dtype=np.uint64))
    bc = get_base_cell(ids)
    out = _PENT[np.clip(bc, 0, 121)] & (bc < 122)
    res = get_resolution(ids)
    for grp in np.unique(res):
        m = res == grp
        if int(grp) > 0:
            dg = _digits_of(ids[m], int(grp))
            out[m] &= ~dg.any(axis=1)
    return out


def is_valid_cell(ids):
    ids = np.atleast_1d(np.asarray(ids, dtype=np.uint64))
    mode = (ids >> np.uint64(59)) & np.uint64(0xF)
    high = ids >> np.uint64(63)
    res = get_resolution(ids)
    bc = get_base_cell(ids)
    ok = (mode == 1) & (high == 0) & (res <= MAX_RES) & (bc < 122)
    for grp in np.unique(res):
        m = ok & (res == grp)
        if not m.any():
            continue
        g = int(grp)
        if g > 0:
            dg = _digits_of(ids[m], g)
            good = (dg <= 6).all(axis=1)
            # canonical pentagon indexes never lead with the K digit
            pm = _PENT[np.clip(bc[m], 0, 121)]
            good &= ~(pm & (_leading_nonzero(dg) == K_DIGIT))
            t = np.where(m)[0]
            ok[t[~good]] = False
        # trailing digits must all be 7
        trail = np.uint64((1 << (3 * (15 - g))) - 1)
        t = np.where(m)[0]
        bad = (ids[t] & trail) != trail
        ok[t[bad]] = False
    return ok


def cell_to_parent(ids, parent_res):
    ids = np.atleast_1d(np.asarray(ids, dtype=np.uint64))
    res = get_resolution(ids)
    if np.any(parent_res > res):
        raise ValueError("parent_res must be <= cell resolution")
    pr = np.uint64(parent_res)
    out = ids & ~np.uint64(0xF << 52)
    out |= pr << np.uint64(52)
    fill = np.uint64((1 << (3 * (15 - int(parent_res)))) - 1)
    return out | fill


def cell_to_children(ids, child_res=None):
    """children one level down (or at ``child_res``) of the given cell ids.

    Accepts an array (all ids must share one resolution); the output is the
    sorted union of every input cell's children."""
    cur = np.atleast_1d(np.asarray(ids, dtype=np.uint64))
    res_all = get_resolution(cur)
    res = int(res_all[0])
    if (res_all != res).any():
        raise ValueError("cell_to_children needs cells at one resolution")
    target = res + 1 if child_res is None else int(child_res)
    if target < res:
        raise ValueError("child_res must be >= cell resolution")
    for r in range(res + 1, target + 1):
        pent = is_pentagon(cur)
        outs = []
        for d in range(7):
            nxt = cur.copy()
            nxt = (nxt & ~np.uint64(0xF << 52)) | np.uint64(r << 52)
            shift = np.uint64(3 * (15 - r))
            nxt = (nxt & ~(np.uint64(7) << shift)) | (np.uint64(d) << shift)
            keep = ~(pent & (d == K_DIGIT))
            outs.append(nxt[keep])
        cur = np.concatenate(outs)
    return np.sort(cur)


def cell_to_latlng(ids):
    """center (lat, lng) in degrees per cell id. Vectorized."""
    ids = np.atleast_1d(np.asarray(ids, dtype=np.uint64))
    res_all = get_resolution(ids)
    lat = np.empty(len(ids), dtype=np.float64)
    lng = np.empty(len(ids), dtype=np.float64)
    for grp in np.unique(res_all):
        m = res_all == grp
        la, lo = _cell_to_latlng_res(ids[m], int(grp))
        lat[m] = la
        lng[m] = lo
    return lat, lng


def _apply_overage(face, i, j, k, res: int, pent4):
    """class-II overage loop: relabel out-of-face coords onto the neighbor
    face lattice.  For class III (odd) res the coords are dropped one level
    to the class II grid first and lifted back after (exact on lattice
    points).  Mutates and returns (face, i, j, k)."""
    res_adj = res
    if res % 2 == 1:
        i, j, k = _down_ap7r(i, j, k)
        res_adj = res + 1
    max_dim = 2 * 7 ** (res_adj // 2)
    scale = max_dim // 2
    for _it in range(8):
        over = (i + j + k) > max_dim
        if not over.any():
            break
        rows = np.where(over)[0]
        io, jo, ko = i[rows], j[rows], k[rows]
        fo = face[rows]
        which = np.where((ko > 0) & (jo > 0), 1, np.where(ko > 0, 2, 0))
        # pentagon leading-4 fixup on the KI edge (first overage only)
        pf = pent4[rows] & (which == 2)
        if pf.any():
            ti = io[pf] - max_dim
            tj = jo[pf]
            tk = ko[pf]
            # ijkRotate60cw on raw coords
            io2 = ti + tj
            jo2 = tj + tk
            ko2 = ti + tk
            io[pf] = io2 + max_dim
            jo[pf] = jo2
            ko[pf] = ko2
        g = _NBR_FACE[fo, which]
        nrot = _NBR_ROT[fo, which]
        t = _NBR_T[fo, which]
        a = np.stack([io - ko, jo - ko], axis=1)
        mats = _AXM_POW[nrot]
        a2 = np.einsum("nij,nj->ni", mats, a) + t * scale
        zi = np.zeros(len(rows), dtype=np.int64)
        ni, nj, nk = _norm3(a2[:, 0], a2[:, 1], zi)
        i[rows], j[rows], k[rows] = ni, nj, nk
        face[rows] = g
        pent4[rows] = False      # secondary overages never use the fixup
    if res % 2 == 1:
        i, j, k = _up_ap7r(i, j, k)
    return face, i, j, k


def _resolve_face_ijk(ids, res: int):
    """decode ids -> (face, i, j, k) at res with overage applied."""
    bc = get_base_cell(ids)
    digits = _digits_of(ids, res)
    pent = _PENT[bc]
    # pentagon leading-5 (IK) subsequence adjustment
    lead5 = pent & (_leading_nonzero(digits) == 5)
    if lead5.any():
        digits[lead5] = _CW[digits[lead5]]
    face = _BC_HOME_FACE[bc].copy()
    ijk = _BC_HOME_IJK[bc].T.copy()        # 3 arrays
    i, j, k = ijk[0].copy(), ijk[1].copy(), ijk[2].copy()
    for r in range(1, res + 1):
        if r % 2 == 1:
            i, j, k = _down_ap7(i, j, k)
        else:
            i, j, k = _down_ap7r(i, j, k)
        u = _UNIT[digits[:, r - 1]]
        i, j, k = _norm3(i + u[:, 0], j + u[:, 1], k + u[:, 2])
    pent4 = pent & (_leading_nonzero(digits) == 4)
    return _apply_overage(face, i, j, k, res, pent4)


def _unproject(face, i, j, k, res: int):
    x = (i - k) - 0.5 * (j - k)
    y = (j - k) * S3_2
    r2 = np.hypot(x, y)
    theta = np.arctan2(y, x)
    az = _AZ_I[face] - theta
    if res % 2 == 1:
        az = az - AP7_ROT
    dist = np.arctan(r2 * RES0_U / SQRT7 ** res)
    cg = _CENTERS[face]
    dvec = (np.cos(az)[:, None] * _NHAT[face] + np.sin(az)[:, None] * _EHAT[face])
    p = np.cos(dist)[:, None] * cg + np.sin(dist)[:, None] * dvec
    return _xyz_to_latlng(p)


def _cell_to_latlng_res(ids, res: int):
    face, i, j, k = _resolve_face_ijk(ids, res)
    return _unproject(face, i, j, k, res)


def cell_to_neighbors(ids):
    """edge-adjacent cells per id, as an (N, 6) uint64 array.

    Computed canonically: lattice step in each of the 6 unit directions in
    the cell's resolved face frame, overage-relabeled onto the correct face,
    unprojected to the neighbor's exact center and re-encoded (center
    round-trips are bit-exact).  Pentagons have 5 distinct neighbors: the
    deleted-subsequence direction lands on an already-listed neighbor, so
    dedupe per row (grid_disk does).  Entries equal to the input id never
    occur for hexagons; callers should treat duplicates as absent edges.
    """
    ids = np.atleast_1d(np.asarray(ids, dtype=np.uint64))
    res_all = get_resolution(ids)
    out = np.empty((len(ids), 6), dtype=np.uint64)
    for grp in np.unique(res_all):
        m = np.where(res_all == grp)[0]
        res = int(grp)
        face, i, j, k = _resolve_face_ijk(ids[m], res)
        pent4 = np.zeros(len(m), dtype=bool)
        for d in range(1, 7):
            u = _UNIT[d]
            f2, i2, j2, k2 = _apply_overage(
                face.copy(), *_norm3(i + u[0], j + u[1], k + u[2]),
                res, pent4.copy())
            la, lo = _unproject(f2, i2, j2, k2, res)
            out[m, d - 1] = latlng_to_cell(la, lo, res)
    return out


def grid_disk(ids, k: int = 1):
    """all cells within k grid steps of a single cell (the cell included),
    sorted.  BFS over cell_to_neighbors with dedupe (pentagon-safe)."""
    h = np.atleast_1d(np.asarray(ids, dtype=np.uint64))[:1]
    seen = {int(h[0])}
    frontier = h
    for _ in range(k):
        nb = cell_to_neighbors(frontier).ravel()
        fresh = np.array(sorted({int(x) for x in nb} - seen), dtype=np.uint64)
        if not len(fresh):
            break
        seen.update(int(x) for x in fresh)
        frontier = fresh
    return np.array(sorted(seen), dtype=np.uint64)


def cells_to_string(ids):
    ids = np.atleast_1d(np.asarray(ids, dtype=np.uint64))
    return np.array([f"{int(h):x}" for h in ids])


def string_to_cells(strs):
    return np.array([np.uint64(int(s, 16)) for s in np.atleast_1d(strs)],
                    dtype=np.uint64)


def polygon_to_cells(rings, res: int, max_cells: int = 2_000_000,
                     mode: str = "center"):
    """cells of a (lon, lat) polygon — canonical H3 ``polygonToCells``.

    ``mode="center"`` (default): cells whose CENTER lies inside the polygon
    (canonical center-containment semantics).  ``mode="cover"``: a complete
    superset of every cell that INTERSECTS the polygon — the candidate set
    for cell-partitioned spatial joins.  Completeness argument: ring edges
    are sampled every <=0.3 cell pitch, so any cell a ring passes through
    contains a point within 0.3 pitch of a sample and is therefore the
    sampled cell itself or one of its immediate neighbors (all included);
    cells intersecting only the interior have their center inside and are
    reached by the flood fill (any interior cell connects to a
    boundary-adjacent seed through center-inside cells, because a
    center-outside cell on the way must be ring-crossing, making the next
    center-inside cell a seed again).

    ``rings``: list of (N, 2) float arrays of (lon, lat) ring coordinates,
    exterior first, holes after; planar lon/lat containment (split
    transmeridian polygons before calling).  Enumerates only boundary +
    interior cells (edge tracing at sub-pitch steps, then an inward flood
    fill over the neighbor graph), so cost is O(output), not O(bbox).
    ``max_cells`` is a loud budget guard for runaway res/polygon combos.
    """
    return polygon_grid_cells(
        rings, np.degrees(np.arctan(RES0_U / SQRT7 ** res)), lambda lon, lat: latlng_to_cell(lat, lon, res),
        lambda cells: cell_to_latlng(cells)[::-1], cell_to_neighbors,
        zone_hops=1, max_cells=max_cells, mode=mode, name="polygon_to_cells", unit="res", level=res)


def compact_cells(ids):
    """H3 ``compactCells``: replace every complete sibling set (7 children,
    6 for pentagon parents) by its parent, recursively, bottom-up.

    Vectorized per level: group the deepest-resolution cells by parent with
    one ``np.unique``; a parent whose child count equals its need (6/7) is
    promoted and re-enters the pool one level up.  Input cells must be
    unique and valid (duplicates would overcount siblings); output is the
    canonical minimal multi-resolution cover, order-sorted.
    """
    ids = np.unique(np.atleast_1d(np.asarray(ids, dtype=np.uint64)))
    out = []
    cur = ids
    while len(cur):
        res = get_resolution(cur)
        top = int(res.max())
        if top == 0:
            out.append(cur)
            break
        deep = cur[res == top]
        rest = cur[res != top]
        par = cell_to_parent(deep, top - 1)
        up, inv, cnt = np.unique(par, return_inverse=True, return_counts=True)
        need = np.where(is_pentagon(up), 6, 7)
        full = cnt == need
        out.append(deep[~full[inv]])
        cur = np.concatenate([rest, up[full]]) if full.any() else rest
        if not full.any():
            out.append(rest)
            break
    return np.sort(np.concatenate(out)) if out else np.empty(0, np.uint64)


def uncompact_cells(ids, res: int, max_cells: int = 10_000_000):
    """H3 ``uncompactCells``: expand each cell to its ``res`` descendants
    (pentagon cells have 6 children per level — the K digit is skipped).
    Vectorized: one level per pass over the whole remaining pool."""
    ids = np.atleast_1d(np.asarray(ids, dtype=np.uint64))
    if (get_resolution(ids) > res).any():
        raise ValueError("uncompact target res must be >= every cell's res")
    out = []
    cur = ids
    total = 0
    while len(cur):
        r = get_resolution(cur)
        done = r == res
        if done.any():
            out.append(cur[done])
            total += int(done.sum())
            cur = cur[~done]
            r = r[~done]
        if not len(cur):
            break
        if total + 7 * len(cur) > max_cells:
            raise ValueError(f"uncompact_cells exceeded max_cells={max_cells}; "
                             f"raise the budget explicitly")
        pent = is_pentagon(cur)
        r1 = (r + 1).astype(np.uint64)
        shift = np.uint64(3) * (np.uint64(15) - r1)
        base = (cur & ~np.uint64(0xF << 52)) | (r1 << np.uint64(52))
        outs = []
        for d in range(7):
            nxt = (base & ~(np.uint64(7) << shift)) | (np.uint64(d) << shift)
            outs.append(nxt if d != K_DIGIT else nxt[~pent])
        cur = np.concatenate(outs)
    return np.sort(np.concatenate(out)) if out else np.empty(0, np.uint64)


# ---------------------------------------------------------------- boundaries
#
# H3 cellToBoundary parity (faceijk.c _faceIjkToCellBoundary /
# _faceIjkPentToCellBoundary): cell vertices live on a "substrate" grid —
# two aperture-3 steps below the cell's resolution (pure scale 3, the two
# steps have opposite chirality so rotations cancel), plus one aperture-7r
# step for class III (odd) resolutions so the substrate is always class II
# aligned.  Vertices that spill off the home icosahedron face are relabeled
# with the same class-II overage used for centers (max_dim tripled; points
# exactly ON a face edge stay).  Class III cell edges are NOT aligned with
# icosahedron edges, so an edge whose endpoints land on different faces gets
# an extra vertex where it crosses the face edge (each face is a different
# gnomonic projection plane; without the split the edge would kink).

def _down_ap3(i, j, k):
    # iVec={2,0,1} jVec={1,2,0} kVec={0,1,2}  (scale sqrt3, -30 deg)
    return _norm3(2 * i + j, 2 * j + k, i + 2 * k)


def _down_ap3r(i, j, k):
    # iVec={2,1,0} jVec={0,2,1} kVec={1,0,2}  (scale sqrt3, +30 deg)
    return _norm3(2 * i + k, i + 2 * j, j + 2 * k)


def _derive_vertex_tables():
    """Hexagon vertex offsets in the substrate frame, derived (not recalled):
    each cell vertex is the sum of two CCW-adjacent unit axis directions
    (class II); the class III offsets are the same vertices expressed through
    the aperture-7r frame map.  Matches uber/h3 faceijk.c vertsCII/vertsCIII."""
    ccw_dirs = [4, 6, 2, 3, 1, 5]            # i, i+j, j, j+k, k, k+i digits
    cii = np.empty((6, 3), dtype=np.int64)
    for v in range(6):
        a = _UNIT[ccw_dirs[v]] + _UNIT[ccw_dirs[(v + 1) % 6]]
        cii[v] = a
    i3, j3, k3 = _down_ap7r(cii[:, 0], cii[:, 1], cii[:, 2])
    ciii = np.stack([i3, j3, k3], axis=1)
    return cii, ciii


_VERTS_CII, _VERTS_CIII = _derive_vertex_tables()
# geometric sanity: class II ring at sqrt(3) @ 30+60v deg, class III at
# sqrt(21) @ 30+AP7_ROT+60v deg (the down_ap7r frame rotation)
for _vt, _mag, _ang0 in ((_VERTS_CII, np.sqrt(3.0), np.pi / 6),
                         (_VERTS_CIII, np.sqrt(21.0), np.pi / 6 + AP7_ROT)):
    _vx = (_vt[:, 0] - _vt[:, 2]) - 0.5 * (_vt[:, 1] - _vt[:, 2])
    _vy = (_vt[:, 1] - _vt[:, 2]) * S3_2
    assert np.allclose(np.hypot(_vx, _vy), _mag)
    assert np.allclose((np.arctan2(_vy, _vx) - _ang0 - np.arange(6) * np.pi / 3
                        + np.pi) % (2 * np.pi) - np.pi, 0.0, atol=1e-12)

# dense cross-face maps for the pentagon distortion path: coordinates in
# face f's frame -> face g's frame (g adjacent to f), and the edge index
# (0=IJ 1=JK 2=KI) of f that borders g
_FACE_MAP_ROT = np.full((20, 20), -1, dtype=np.int64)
_FACE_MAP_T = np.zeros((20, 20, 2), dtype=np.int64)
for _key, (_n, _t) in T.EDGE_MAPS.items():
    _f, _g = (int(x) for x in _key.split(","))
    _FACE_MAP_ROT[_f, _g] = _n
    _FACE_MAP_T[_f, _g] = _t
_EDGE_OF = np.full((20, 20), -1, dtype=np.int64)
for _f in range(20):
    for _e in range(3):
        _EDGE_OF[_f, _NBR_FACE[_f, _e]] = _e


def _substrate_overage(face, i, j, k, adj_res):
    """Class-II overage on the substrate grid: max_dim is tripled and points
    exactly on a face edge stay put (FACE_EDGE).  Returns new (face, i, j, k)
    plus the on-edge flag.  Mutates its array arguments."""
    max_dim = 3 * 2 * 7 ** (adj_res // 2)
    scale = max_dim // 2
    for _it in range(4):
        over = (i + j + k) > max_dim
        if not over.any():
            break
        rows = np.where(over)[0]
        io, jo, ko = i[rows], j[rows], k[rows]
        fo = face[rows]
        which = np.where((ko > 0) & (jo > 0), 1, np.where(ko > 0, 2, 0))
        g = _NBR_FACE[fo, which]
        nrot = _NBR_ROT[fo, which]
        t = _NBR_T[fo, which]
        a = np.stack([io - ko, jo - ko], axis=1)
        a2 = np.einsum("nij,nj->ni", _AXM_POW[nrot], a) + t * scale
        zi = np.zeros(len(rows), dtype=np.int64)
        i[rows], j[rows], k[rows] = _norm3(a2[:, 0], a2[:, 1], zi)
        face[rows] = g
    return face, i, j, k, (i + j + k) == max_dim


def _hex2d(i, j, k):
    return (i - k) - 0.5 * (j - k), (j - k) * S3_2


def _unproject_substrate(face, x, y, adj_res):
    """hex2d (substrate frame, class II at adj_res) -> lat/lng degrees."""
    r2 = np.hypot(x, y)
    theta = np.arctan2(y, x)
    az = _AZ_I[face] - theta
    dist = np.arctan(r2 * RES0_U / (3.0 * SQRT7 ** adj_res))
    cg = _CENTERS[face]
    dvec = (np.cos(az)[:, None] * _NHAT[face] + np.sin(az)[:, None] * _EHAT[face])
    p = np.cos(dist)[:, None] * cg + np.sin(dist)[:, None] * dvec
    return _xyz_to_latlng(p)


def _substrate_center(ids, res):
    """resolved center dropped onto the class-II substrate grid."""
    face, i, j, k = _resolve_face_ijk(ids, res)
    i, j, k = _down_ap3(i, j, k)
    i, j, k = _down_ap3r(i, j, k)
    class3 = res % 2 == 1
    if class3:
        i, j, k = _down_ap7r(i, j, k)
    adj_res = res + 1 if class3 else res
    return face, i, j, k, class3, adj_res


def _face_corners_2d(adj_res):
    """icosahedron face triangle corners (i, j, k axes) in substrate hex2d."""
    md = 2 * 7 ** (adj_res // 2)
    v0 = np.array([3.0 * md, 0.0])
    v1 = np.array([-1.5 * md, 3.0 * S3_2 * md])
    v2 = np.array([-1.5 * md, -3.0 * S3_2 * md])
    # edge e -> (start, end): 0=IJ (v0,v1)  1=JK (v1,v2)  2=KI (v2,v0)
    return np.array([[v0, v1], [v1, v2], [v2, v0]])


def _seg_line_intersect(p0x, p0y, p1x, p1y, e0, e1):
    """intersection of line (p0,p1) with line (e0,e1), H3 _v2dIntersect."""
    s1x, s1y = p1x - p0x, p1y - p0y
    s2x, s2y = e1[:, 0] - e0[:, 0], e1[:, 1] - e0[:, 1]
    denom = -s2x * s1y + s1x * s2y
    with np.errstate(divide="ignore", invalid="ignore"):
        tt = (s2x * (p0y - e0[:, 1]) - s2y * (p0x - e0[:, 0])) / denom
    return p0x + tt * s1x, p0y + tt * s1y


def _hex_boundary(ids, res):
    """(lat, lng, valid) slot arrays (n, 12) for hexagon cells of one res.
    Slot layout: vertex v at slot 2v; the extra face-crossing vertex on edge
    (v-1 -> v) at slot (2v-1) mod 12 — i.e. ring order v0 i01 v1 i12 ... v5 i50."""
    n = len(ids)
    face, i, j, k, class3, adj_res = _substrate_center(ids, res)
    center_face = face
    verts = _VERTS_CIII if class3 else _VERTS_CII
    ox = np.empty((6, n)); oy = np.empty((6, n))
    pf = np.empty((6, n), np.int64)
    pe = np.empty((6, n), bool)
    lat = np.zeros((n, 12)); lng = np.zeros((n, 12))
    valid = np.zeros((n, 12), bool)
    for v in range(6):
        u = verts[v]
        ii, jj, kk = _norm3(i + u[0], j + u[1], k + u[2])
        ox[v], oy[v] = _hex2d(ii, jj, kk)
        f2, i2, j2, k2, edge = _substrate_overage(center_face.copy(), ii, jj, kk, adj_res)
        pf[v], pe[v] = f2, edge
        x2, y2 = _hex2d(i2, j2, k2)
        lat[:, 2 * v], lng[:, 2 * v] = _unproject_substrate(f2, x2, y2, adj_res)
        valid[:, 2 * v] = True
    if class3:
        corners = _face_corners_2d(adj_res)
        for v in range(6):
            lv = (v + 5) % 6
            need = (pf[v] != pf[lv]) & ~pe[lv]
            if not need.any():
                continue
            face2 = np.where(pf[lv] == center_face, pf[v], pf[lv])
            e = _EDGE_OF[center_face, face2]
            need &= e >= 0
            ec = corners[np.clip(e, 0, 2)]
            ix, iy = _seg_line_intersect(ox[lv], oy[lv], ox[v], oy[v],
                                         ec[:, 0], ec[:, 1])
            # a crossing exactly AT a hexagon vertex needs no extra point
            at_vert = ((ix == ox[lv]) & (iy == oy[lv])) | ((ix == ox[v]) & (iy == oy[v]))
            need &= ~at_vert & np.isfinite(ix)
            if not need.any():
                continue
            la, lo = _unproject_substrate(center_face[need], ix[need], iy[need], adj_res)
            slot = (2 * v - 1) % 12
            lat[need, slot] = la
            lng[need, slot] = lo
            valid[need, slot] = True
    return lat, lng, valid


def _pent_boundary(ids, res):
    """(lat, lng, valid) slot arrays (n, 10) for pentagon cells of one res.
    Pentagons drop the 6th vertex (the deleted k-axis subsequence); at class
    III every pentagon edge crosses an icosahedron edge, and the crossing is
    computed in the PREVIOUS vertex's face frame (both endpoints mapped there)."""
    n = len(ids)
    face, i, j, k, class3, adj_res = _substrate_center(ids, res)
    verts = (_VERTS_CIII if class3 else _VERTS_CII)[:5]
    pf = np.empty((5, n), np.int64)
    pa = np.empty((5, n), np.int64)   # axial a = i - k, post-overage
    pb = np.empty((5, n), np.int64)
    lat = np.zeros((n, 10)); lng = np.zeros((n, 10))
    valid = np.zeros((n, 10), bool)
    for v in range(5):
        u = verts[v]
        ii, jj, kk = _norm3(i + u[0], j + u[1], k + u[2])
        f2, i2, j2, k2, _ = _substrate_overage(face.copy(), ii, jj, kk, adj_res)
        pf[v] = f2
        pa[v], pb[v] = i2 - k2, j2 - k2
        x2, y2 = _hex2d(i2, j2, k2)
        lat[:, 2 * v], lng[:, 2 * v] = _unproject_substrate(f2, x2, y2, adj_res)
        valid[:, 2 * v] = True
    if class3:
        corners = _face_corners_2d(adj_res)
        scale = 3 * 7 ** (adj_res // 2)
        for v in range(5):
            lv = (v + 4) % 5
            cf, lf = pf[v], pf[lv]
            rot = _FACE_MAP_ROT[cf, lf]
            need = (cf != lf) & (rot >= 0)
            if not need.any():
                continue
            # current vertex coords expressed in the LAST vertex's face frame
            a = np.stack([pa[v], pb[v]], axis=1)
            a2 = np.einsum("nij,nj->ni", _AXM_POW[np.clip(rot, 0, 5)], a) \
                + _FACE_MAP_T[cf, lf] * scale
            x1 = a2[:, 0] - 0.5 * a2[:, 1]
            y1 = a2[:, 1] * S3_2
            x0 = pa[lv] - 0.5 * pb[lv]
            y0 = pb[lv] * S3_2
            e = _EDGE_OF[lf, cf]
            need &= e >= 0
            ec = corners[np.clip(e, 0, 2)]
            ix, iy = _seg_line_intersect(x0, y0, x1, y1, ec[:, 0], ec[:, 1])
            need &= np.isfinite(ix)
            if not need.any():
                continue
            la, lo = _unproject_substrate(lf[need], ix[need], iy[need], adj_res)
            slot = (2 * v - 1) % 10
            lat[need, slot] = la
            lng[need, slot] = lo
            valid[need, slot] = True
    return lat, lng, valid


def cell_to_boundary(ids):
    """H3 ``cellToBoundary``: boundary vertices per cell, CCW, including the
    extra icosahedron-edge crossing vertices of class III cells (up to 12 for
    hexagons, 10 for pentagons).  Returns ``(offsets, lat, lng)`` ragged
    arrays — cell ``c``'s ring is ``lat[offsets[c]:offsets[c+1]]`` (degrees,
    NOT closed; repeat the first vertex to close).  Vectorized per
    (resolution, pentagon) group."""
    ids = np.atleast_1d(np.asarray(ids, dtype=np.uint64))
    n = len(ids)
    res_all = get_resolution(ids)
    pent_all = is_pentagon(ids)
    lat_sl = np.zeros((n, 12)); lng_sl = np.zeros((n, 12))
    ok = np.zeros((n, 12), bool)
    for r in np.unique(res_all):
        for pent in (False, True):
            m = np.where((res_all == r) & (pent_all == pent))[0]
            if not len(m):
                continue
            fn = _pent_boundary if pent else _hex_boundary
            la, lo, va = fn(ids[m], int(r))
            w = la.shape[1]
            lat_sl[m[:, None], np.arange(w)] = la
            lng_sl[m[:, None], np.arange(w)] = lo
            ok[m[:, None], np.arange(w)] = va
    counts = ok.sum(axis=1)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return offsets, lat_sl[ok], lng_sl[ok]


def cells_to_polygons(ids):
    """Boundary polygons per cell as a ``GeometryArray`` (lng/lat coords,
    rings closed).  Cells crossing the antimeridian come out with raw
    longitude jumps (same contract as h3's cellToBoundary)."""
    from .array import GeometryArray, POLYGON
    offsets, lat, lng = cell_to_boundary(ids)
    n = len(offsets) - 1
    counts = offsets[1:] - offsets[:-1]
    # closed rings: counts + 1 coords per cell, first vertex repeated
    ring_off = np.concatenate([[0], np.cumsum(counts + 1)]).astype(np.int64)
    coords = np.empty((int(ring_off[-1]), 2))
    src = np.arange(len(lat), dtype=np.int64)
    dst = src + np.repeat(np.arange(n, dtype=np.int64), counts)
    coords[dst, 0] = lng
    coords[dst, 1] = lat
    close_dst = ring_off[1:] - 1
    coords[close_dst, 0] = lng[offsets[:-1]]
    coords[close_dst, 1] = lat[offsets[:-1]]
    seq = np.arange(n + 1, dtype=np.int64)
    return GeometryArray(
        types=np.full(n, POLYGON, dtype=np.int8),
        geom_offsets=seq,
        part_offsets=seq,
        ring_offsets=ring_off,
        coords=coords,
    )


# --------------------------------------------------------------------------
# grid algebra: distance, paths, cell measures
# --------------------------------------------------------------------------

EARTH_RADIUS_KM = 6371.007180918475   # libh3 constants.h (authalic sphere)


def grid_distance(a, b, max_k: int = 256):
    """minimum grid steps between cell pairs (libh3 ``gridDistance``).

    One vectorized BFS per unique source cell over :func:`cell_to_neighbors`
    (no local-IJ tables needed, pentagon-safe by construction); every
    destination of that source is resolved from the BFS levels. Frontier
    and visited set are sorted uint64 arrays (``np.unique`` /
    ``np.isin``). Cost is O(d^2) lattice cells per source (the filled BFS
    disk), so this is for NEARBY cells: ``max_k`` is a loud budget, not a
    soft cap (libh3 itself fails across pentagon-adjacent base cells; we
    succeed there but charge the disk). A pair past ``max_k`` or without a
    grid path raises, naming the first such pair in input order. Pairs at
    different resolutions raise, matching libh3's error contract.
    """
    a = np.atleast_1d(np.asarray(a, dtype=np.uint64))
    b = np.atleast_1d(np.asarray(b, dtype=np.uint64))
    if a.shape != b.shape:
        raise ValueError("a and b must have the same shape")
    if (get_resolution(a) != get_resolution(b)).any():
        raise ValueError("grid_distance needs cells at the same resolution")
    out = np.zeros(len(a), dtype=np.int64)
    pending = np.flatnonzero(a != b)
    sources, which = np.unique(a[pending], return_inverse=True)
    failed = []  # (first failing pair of a source, no-path?)
    for k, src in enumerate(sources):
        pairs = pending[which == k]  # input order
        dst = b[pairs]
        left = np.ones(len(pairs), dtype=bool)
        seen = frontier = src[None]
        d = 0
        while d < max_k:
            d += 1
            nb = np.unique(cell_to_neighbors(frontier))
            frontier = nb[~np.isin(nb, seen, assume_unique=True)]
            hit = left & np.isin(dst, frontier)
            out[pairs[hit]] = d
            left &= ~hit
            if not left.any() or not len(frontier):
                break
            seen = np.union1d(seen, frontier)
        if left.any():
            failed.append((int(pairs[left][0]), d < max_k or not len(frontier)))
    if failed:
        n, no_path = min(failed)
        src, dst = int(a[n]), int(b[n])
        if no_path:
            raise ValueError(f"no grid path between {src:x} and {dst:x}")
        raise ValueError(
            f"grid_distance exceeded max_k={max_k} between "
            f"{src:x} and {dst:x}; raise max_k if this is intended"
        )
    return out


def grid_path_cells(a, b, max_k: int = 256):
    """a minimal-length cell path from ``a`` to ``b`` inclusive (uint64 array).

    BFS depth map from ``b`` then deterministic greedy descent from ``a``
    (smallest cell id among depth-1 neighbors).  The path LENGTH always
    equals ``grid_distance(a, b) + 1``; the particular minimal path may
    differ from libh3's local-IJ line (which is one arbitrary choice among
    equally-minimal paths, per its own docs).
    """
    src = int(np.uint64(np.atleast_1d(np.asarray(a, dtype=np.uint64))[0]))
    dst = int(np.uint64(np.atleast_1d(np.asarray(b, dtype=np.uint64))[0]))
    if get_resolution(np.array([src], np.uint64))[0] != get_resolution(np.array([dst], np.uint64))[0]:
        raise ValueError("grid_path_cells needs cells at the same resolution")
    if src == dst:
        return np.array([src], dtype=np.uint64)
    depth = {dst: 0}
    frontier = np.array([dst], dtype=np.uint64)
    d = 0
    while src not in depth:
        d += 1
        if d > max_k:
            raise ValueError(f"grid_path_cells exceeded max_k={max_k}")
        nb = cell_to_neighbors(frontier).ravel()
        fresh = {int(x) for x in nb} - depth.keys()
        if not fresh:
            raise ValueError(f"no grid path between {src:x} and {dst:x}")
        for x in fresh:
            depth[x] = d
        frontier = np.fromiter(fresh, dtype=np.uint64)
    path = [src]
    cur = src
    while cur != dst:
        want = depth[cur] - 1
        nxt = min(
            int(x)
            for x in cell_to_neighbors(np.array([cur], np.uint64)).ravel()
            if depth.get(int(x), -1) == want
        )
        path.append(nxt)
        cur = nxt
    return np.array(path, dtype=np.uint64)


def _tri_excess(ca, cb, cc):
    """spherical excess of unit-vector triangles (l'Huilier), vectorized."""

    def arc(u, v):
        return 2.0 * np.arcsin(np.clip(
            0.5 * np.linalg.norm(u - v, axis=-1), 0.0, 1.0))

    la, lb, lc = arc(cb, cc), arc(ca, cc), arc(ca, cb)
    s = 0.5 * (la + lb + lc)
    t = (np.tan(0.5 * s) * np.tan(0.5 * (s - la))
         * np.tan(0.5 * (s - lb)) * np.tan(0.5 * (s - lc)))
    return 4.0 * np.arctan(np.sqrt(np.maximum(t, 0.0)))


def cell_area(ids, unit: str = "km^2"):
    """exact spherical area per cell (libh3 ``cellAreaKm2``/``cellAreaM2``
    semantics: triangle fan from the cell center over the boundary,
    spherical excess per triangle, authalic radius).  Vectorized: one fan
    per boundary edge across ALL cells at once."""
    if unit not in ("km^2", "m^2", "rads^2"):
        raise ValueError(f"unknown unit {unit!r}")
    ids = np.atleast_1d(np.asarray(ids, dtype=np.uint64))
    offsets, blat, blng = cell_to_boundary(ids)
    clat, clng = cell_to_latlng(ids)
    v = _ll2xyz(np.radians(blat), np.radians(blng))
    c = _ll2xyz(np.radians(clat), np.radians(clng))
    counts = offsets[1:] - offsets[:-1]
    owner = np.repeat(np.arange(len(ids)), counts)
    # edge i -> i+1 (wrapping within each cell's ring)
    nxt = np.arange(len(blat)) + 1
    ends = offsets[1:] - 1
    nxt[ends] = offsets[:-1]
    ex = _tri_excess(c[owner], v, v[nxt])
    area = np.zeros(len(ids))
    np.add.at(area, owner, ex)
    if unit == "rads^2":
        return area
    r2 = EARTH_RADIUS_KM ** 2 if unit == "km^2" else (EARTH_RADIUS_KM * 1000.0) ** 2
    return area * r2


def cell_perimeter(ids, unit: str = "km"):
    """great-circle boundary length per cell (sum over boundary arcs)."""
    if unit not in ("km", "m", "rads"):
        raise ValueError(f"unknown unit {unit!r}")
    ids = np.atleast_1d(np.asarray(ids, dtype=np.uint64))
    offsets, blat, blng = cell_to_boundary(ids)
    v = _ll2xyz(np.radians(blat), np.radians(blng))
    nxt = np.arange(len(blat)) + 1
    ends = offsets[1:] - 1
    nxt[ends] = offsets[:-1]
    arcs = 2.0 * np.arcsin(np.clip(
        0.5 * np.linalg.norm(v - v[nxt], axis=-1), 0.0, 1.0))
    counts = offsets[1:] - offsets[:-1]
    owner = np.repeat(np.arange(len(ids)), counts)
    per = np.zeros(len(ids))
    np.add.at(per, owner, arcs)
    if unit == "rads":
        return per
    return per * (EARTH_RADIUS_KM if unit == "km" else EARTH_RADIUS_KM * 1000.0)


def grid_disk_batch(ids, k: int = 1):
    """k-disks of MANY cells at once: returns ``(owner_idx, cell)`` int64/
    uint64 arrays where ``owner_idx`` indexes the input and ``cell`` ranges
    over every cell within ``k`` grid steps of that input (self included).
    Vectorized BFS across the whole batch (one ``cell_to_neighbors`` call
    per ring, batch-wide dedupe via a packed (owner, cell) unique)."""
    ids = np.atleast_1d(np.asarray(ids, dtype=np.uint64))
    owner = np.arange(len(ids), dtype=np.int64)
    all_owner = [owner]
    all_cell = [ids]
    seen_keys = None

    def pack(o, c):
        # (owner, cell) -> single sortable uint64 pair key; cells use bits
        # 0-63 and owners a second array — unique over a (n, 2) view
        a = np.empty((len(o), 2), dtype=np.uint64)
        a[:, 0] = o.astype(np.uint64)
        a[:, 1] = c
        return a.view([("o", np.uint64), ("c", np.uint64)]).ravel()

    seen_keys = pack(owner, ids)
    frontier_o, frontier_c = owner, ids
    for _ in range(int(k)):
        if not len(frontier_c):
            break
        nb = cell_to_neighbors(frontier_c)                # (m, 6)
        no = np.repeat(frontier_o, 6)
        nc = nb.ravel()
        keys = pack(no, nc)
        fresh = ~np.isin(keys, seen_keys)
        keys_f = keys[fresh]
        if not len(keys_f):
            break
        uniq, idx = np.unique(keys_f, return_index=True)
        sel = np.nonzero(fresh)[0][idx]
        frontier_o, frontier_c = no[sel], nc[sel]
        seen_keys = np.concatenate([seen_keys, uniq])
        all_owner.append(frontier_o)
        all_cell.append(frontier_c)
    return np.concatenate(all_owner), np.concatenate(all_cell)


# --------------------------------------------------------------------------
# directed edges (H3 mode-2 indexes)
# --------------------------------------------------------------------------

_MODE_MASK = np.uint64(0xF) << np.uint64(59)
_MODE_CELL = np.uint64(1) << np.uint64(59)
_MODE_EDGE = np.uint64(2) << np.uint64(59)
_EDGE_DIR_MASK = np.uint64(0x7) << np.uint64(56)


def origin_to_directed_edges(ids):
    """All directed edges from each cell, (N, 6) uint64 — H3
    ``originToDirectedEdges`` (mode-2 ids: origin cell + direction 1-6 in
    bits 56-58).  Pentagons have only 5 distinct neighbors: the direction
    whose destination duplicates an earlier direction's is zeroed (sparse
    slot, matching libh3's 5-edge output; the FIRST direction to a given
    neighbor is the canonical one, consistent with
    :func:`cells_to_directed_edge`)."""
    ids = np.atleast_1d(np.asarray(ids, dtype=np.uint64))
    base = (ids & ~_MODE_MASK) | _MODE_EDGE
    out = np.empty((len(ids), 6), dtype=np.uint64)
    for d in range(1, 7):
        out[:, d - 1] = (base & ~_EDGE_DIR_MASK) | (np.uint64(d) << np.uint64(56))
    pent = is_pentagon(ids)
    if pent.any():
        rows = np.nonzero(pent)[0]
        nb = cell_to_neighbors(ids[rows])
        for r, row in enumerate(rows):
            _, first = np.unique(nb[r], return_index=True)
            dup = np.setdiff1d(np.arange(6), first)
            out[row, dup] = 0
    return out


def is_valid_directed_edge(edge_ids):
    """True where the id is a well-formed mode-2 edge whose (origin,
    direction) slot actually exists (pentagon duplicate slots are not
    valid edges)."""
    edge_ids = np.atleast_1d(np.asarray(edge_ids, dtype=np.uint64))
    mode_ok = (edge_ids & _MODE_MASK) == _MODE_EDGE
    d = (edge_ids & _EDGE_DIR_MASK) >> np.uint64(56)
    dir_ok = (d >= 1) & (d <= 6)
    origin = get_directed_edge_origin(edge_ids)
    cell_ok = mode_ok & dir_ok & is_valid_cell(origin)
    out = cell_ok.copy()
    chk = np.nonzero(cell_ok)[0]
    if len(chk):
        edges = origin_to_directed_edges(origin[chk])
        out[chk] = edges[np.arange(len(chk)), d[chk].astype(np.int64) - 1] == edge_ids[chk]
    return out


def get_directed_edge_origin(edge_ids):
    """origin cell of each directed edge (mode -> cell, direction bits
    cleared — cell ids carry 0 in bits 56-58)."""
    edge_ids = np.atleast_1d(np.asarray(edge_ids, dtype=np.uint64))
    return (edge_ids & ~_MODE_MASK & ~_EDGE_DIR_MASK) | _MODE_CELL


def get_directed_edge_destination(edge_ids):
    """destination cell: the origin's neighbor in the edge's direction."""
    edge_ids = np.atleast_1d(np.asarray(edge_ids, dtype=np.uint64))
    origin = get_directed_edge_origin(edge_ids)
    d = ((edge_ids & _EDGE_DIR_MASK) >> np.uint64(56)).astype(np.int64)
    nb = cell_to_neighbors(origin)
    return nb[np.arange(len(edge_ids)), d - 1]


def directed_edge_to_cells(edge_ids):
    """(origin, destination) cell arrays per edge."""
    return (get_directed_edge_origin(edge_ids),
            get_directed_edge_destination(edge_ids))


def cells_to_directed_edge(origins, destinations):
    """the directed edge from each origin to each (adjacent) destination —
    H3 ``cellsToDirectedEdge``.  Raises if any pair is not edge-adjacent."""
    origins = np.atleast_1d(np.asarray(origins, dtype=np.uint64))
    destinations = np.atleast_1d(np.asarray(destinations, dtype=np.uint64))
    nb = cell_to_neighbors(origins)
    match = nb == destinations[:, None]
    ok = match.any(axis=1)
    if not ok.all():
        bad = np.nonzero(~ok)[0][0]
        raise ValueError(
            f"cells are not neighbors: {origins[bad]:x} -> {destinations[bad]:x}")
    d = np.argmax(match, axis=1) + 1                   # first matching direction
    base = (origins & ~_MODE_MASK) | _MODE_EDGE
    return (base & ~_EDGE_DIR_MASK) | (d.astype(np.uint64) << np.uint64(56))
