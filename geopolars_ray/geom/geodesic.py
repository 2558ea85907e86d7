"""Karney-style geodesic inverse on the WGS84 ellipsoid, vectorized.

Implements the inverse geodesic problem following the published structure of
Karney (2013), "Algorithms for geodesics" (J. Geod. 87:43-55): reduced
latitudes, the spherical triangle on the auxiliary sphere iterated on the
auxiliary longitude omega, series expansions of the distance (I1/C1) and
longitude (I3/A3/C3) integrals in eps = (sqrt(1+k2)-1)/(sqrt(1+k2)+1),
evaluated at the endpoint arcs sigma1/sigma2.

Replaces Vincenty for ``geodesic_length(method="geodesic")``: same sub-mm
agreement on regular pairs (cross-checked against an independent Vincenty
implementation over random pairs, tests/test_geodesic.py), with a simple
fixed-point iteration; the rare non-converged near-antipodal pairs fall
back to Vincenty+haversine guarded values upstream.
"""

from __future__ import annotations

import numpy as np

WGS84_A = 6378137.0
WGS84_F = 1.0 / 298.257223563
WGS84_B = WGS84_A * (1.0 - WGS84_F)


def _a1m1(eps: np.ndarray) -> np.ndarray:
    """A1 - 1 (Karney eq. 17)."""
    e2 = eps * eps
    t = e2 * (1 / 4 + e2 * (1 / 64 + e2 * (1 / 256)))
    return (t + eps) / (1 - eps)


def _c1_coeffs(eps: np.ndarray) -> list[np.ndarray]:
    """C1[1..6] of the distance series (Karney eq. 18)."""
    e = eps
    e2 = e * e
    return [
        e * (-1 / 2 + e2 * (3 / 16 + e2 * (-1 / 32))),
        e2 * (-1 / 16 + e2 * (1 / 32 + e2 * (-9 / 2048))),
        e * e2 * (-1 / 48 + e2 * (3 / 256)),
        e2 * e2 * (-5 / 512 + e2 * (3 / 512)),
        e * e2 * e2 * (-7 / 1280),
        e2 * e2 * e2 * (-7 / 2048),
    ]


def _a3_eval(n: float, eps: np.ndarray) -> np.ndarray:
    """A3 series (Karney eq. 24)."""
    c = [
        1.0,
        -(1 / 2 - n / 2),
        -(1 / 4 + n / 4 - n * n / 4),
        -(1 / 16 + 3 * n / 16 + n * n / 16),
        -(3 / 64 + n / 32),
        -(3 / 128),
    ]
    out = np.full_like(eps, c[5])
    for k in range(4, -1, -1):
        out = out * eps + c[k]
    return out


def _c3_coeffs(n: float, eps: np.ndarray) -> list[np.ndarray]:
    """C3[1..5] of the longitude series (Karney eq. 25)."""
    e = eps
    c31 = e * ((1 / 4 - n / 4) + e * ((1 / 8 - n * n / 8) + e * ((3 / 64 + 3 * n / 64 - n * n / 64)
          + e * ((5 / 128 + n / 64) + e * (3 / 128)))))
    c32 = e * e * ((1 / 16 - 3 * n / 32 + n * n / 32) + e * ((3 / 64 - n / 32 - 3 * n * n / 64)
          + e * ((3 / 128 + n / 128) + e * (5 / 256))))
    c33 = e * e * e * ((5 / 192 - 3 * n / 64 + 5 * n * n / 192) + e * ((3 / 128 - 5 * n / 192)
          + e * (7 / 512)))
    c34 = e * e * e * e * ((7 / 512 - 7 * n / 256) + e * (7 / 512))
    c35 = e * e * e * e * e * (21 / 2560)
    return [c31, c32, c33, c34, c35]


def _series(sinx: np.ndarray, cosx: np.ndarray, c: list[np.ndarray]) -> np.ndarray:
    """sum_k c[k-1] sin(2 k x) given normalized (sin x, cos x)."""
    s2 = 2.0 * sinx * cosx
    c2 = cosx * cosx - sinx * sinx
    sk, ck = s2.copy(), c2.copy()
    total = c[0] * sk
    for k in range(1, len(c)):
        sk, ck = sk * c2 + ck * s2, ck * c2 - sk * s2
        total = total + c[k] * sk
    return total


def geodesic_inverse_m(lon1, lat1, lon2, lat2, max_iter: int = 64) -> np.ndarray:
    """Geodesic distance in meters between lon/lat degree pairs (vectorized).

    Returns NaN for pairs whose omega iteration did not converge (tiny
    near-antipodal slice) — callers guard with a fallback.
    """
    a, f = WGS84_A, WGS84_F
    b = a * (1 - f)
    n = f / (2 - f)
    ep2 = f * (2 - f) / (1 - f) ** 2

    lat1 = np.asarray(lat1, np.float64)
    lat2 = np.asarray(lat2, np.float64)
    lam12 = np.radians((np.asarray(lon2, np.float64) - np.asarray(lon1, np.float64) + 540.0) % 360.0 - 180.0)
    beta1 = np.arctan((1 - f) * np.tan(np.radians(lat1)))
    beta2 = np.arctan((1 - f) * np.tan(np.radians(lat2)))
    sb1, cb1 = np.sin(beta1), np.maximum(np.cos(beta1), 1e-15)
    sb2, cb2 = np.sin(beta2), np.maximum(np.cos(beta2), 1e-15)

    omg = lam12.copy()  # auxiliary-sphere longitude difference (iterated)
    prev = np.full_like(omg, np.inf)
    converged = np.zeros(omg.shape, dtype=bool)

    for _ in range(max_iter):
        sl, cl = np.sin(omg), np.cos(omg)
        num_s = cb2 * sl
        num_c = cb1 * sb2 - sb1 * cb2 * cl
        ssig = np.sqrt(num_s**2 + num_c**2)
        csig = sb1 * sb2 + cb1 * cb2 * cl
        sig = np.arctan2(ssig, csig)
        with np.errstate(divide="ignore", invalid="ignore"):
            salp1 = np.where(ssig > 0, num_s / np.where(ssig == 0, 1, ssig), 0.0)
            calp1 = np.where(ssig > 0, num_c / np.where(ssig == 0, 1, ssig), 1.0)
        salp0 = salp1 * cb1
        calp0 = np.sqrt(np.clip(1.0 - salp0**2, 0.0, 1.0))
        # endpoint arcs sigma1, sigma2 (pairs share the norm calp0)
        ssig1u, csig1u = sb1, calp1 * cb1
        ssig2u = ssig1u * csig + csig1u * ssig
        csig2u = csig1u * csig - ssig1u * ssig
        safe = calp0 > 1e-12
        inv = np.where(safe, 1.0 / np.where(safe, calp0, 1.0), 0.0)
        s1s, s1c = ssig1u * inv, csig1u * inv
        s2s, s2c = ssig2u * inv, csig2u * inv
        k2 = calp0**2 * ep2
        sqrt1k = np.sqrt(1.0 + k2)
        eps = (sqrt1k - 1.0) / (sqrt1k + 1.0)
        A3 = _a3_eval(n, eps)
        c3 = _c3_coeffs(n, eps)
        B3 = _series(s2s, s2c, c3) - _series(s1s, s1c, c3)
        # omega from lambda: lam12 = omg - f*salp0*A3*(sig + B3)
        omg_new = lam12 + f * salp0 * A3 * (sig + B3)
        converged = np.abs(omg_new - prev) < 1e-14
        prev = omg
        omg = omg_new
        if bool(np.all(np.abs(omg - prev) < 1e-14)):
            converged = np.ones_like(converged)
            break

    sl, cl = np.sin(omg), np.cos(omg)
    num_s = cb2 * sl
    num_c = cb1 * sb2 - sb1 * cb2 * cl
    ssig = np.sqrt(num_s**2 + num_c**2)
    csig = sb1 * sb2 + cb1 * cb2 * cl
    sig = np.arctan2(ssig, csig)
    with np.errstate(divide="ignore", invalid="ignore"):
        salp1 = np.where(ssig > 0, num_s / np.where(ssig == 0, 1, ssig), 0.0)
        calp1 = np.where(ssig > 0, num_c / np.where(ssig == 0, 1, ssig), 1.0)
    salp0 = salp1 * cb1
    calp0 = np.sqrt(np.clip(1.0 - salp0**2, 0.0, 1.0))
    ssig1u, csig1u = sb1, calp1 * cb1
    ssig2u = ssig1u * csig + csig1u * ssig
    csig2u = csig1u * csig - ssig1u * ssig
    safe = calp0 > 1e-12
    inv = np.where(safe, 1.0 / np.where(safe, calp0, 1.0), 0.0)
    s1s, s1c = ssig1u * inv, csig1u * inv
    s2s, s2c = ssig2u * inv, csig2u * inv
    k2 = calp0**2 * ep2
    sqrt1k = np.sqrt(1.0 + k2)
    eps = (sqrt1k - 1.0) / (sqrt1k + 1.0)
    A1 = 1.0 + _a1m1(eps)
    c1 = _c1_coeffs(eps)
    B1 = _series(s2s, s2c, c1) - _series(s1s, s1c, c1)
    s = b * A1 * (sig + B1)
    # equatorial geodesic: series degenerate, arc runs along the equator
    # (radius a, arc = the true longitude difference, not the iterated omega)
    s = np.where(safe, s, a * np.abs(lam12))
    s = np.where(ssig == 0, 0.0, s)
    # convergence check: one more update must be a fixed point
    final_ok = np.abs((lam12 + f * salp0 * _a3_eval(n, eps) * (sig + (_series(s2s, s2c, _c3_coeffs(n, eps)) - _series(s1s, s1c, _c3_coeffs(n, eps))))) - omg) < 1e-10
    return np.where(final_ok | ~safe, s, np.nan)


# --------------------------------------------------------------------------
# Vincenty direct / inverse-with-azimuth (Vincenty 1975, public formulas) —
# the second, independent geodesic formulation in this module (the Karney
# series above is the first); their cross-agreement is the test oracle for
# the AEQD projection and geodesic buffers built on top.
# --------------------------------------------------------------------------


def vincenty_inverse(lon1, lat1, lon2, lat2, iterations: int = 30):
    """(distance_m, fwd_azimuth_deg) per pair, vectorized.

    The one Vincenty inverse: ``kernels._vincenty_m`` is its distance with
    a haversine guard. The forward azimuth alpha1 falls out of the
    converged lambda. Near-antipodal pairs (Vincenty's documented
    non-convergence slice) return NaN azimuth — callers that need that
    slice should densify instead."""
    a, b, f = WGS84_A, WGS84_B, WGS84_F
    lon1 = np.asarray(lon1, np.float64); lat1 = np.asarray(lat1, np.float64)
    lon2 = np.asarray(lon2, np.float64); lat2 = np.asarray(lat2, np.float64)
    L = np.radians(lon2 - lon1)
    U1 = np.arctan((1 - f) * np.tan(np.radians(lat1)))
    U2 = np.arctan((1 - f) * np.tan(np.radians(lat2)))
    sinU1, cosU1 = np.sin(U1), np.cos(U1)
    sinU2, cosU2 = np.sin(U2), np.cos(U2)
    lam = L.copy()
    for _ in range(iterations):
        sinLam, cosLam = np.sin(lam), np.cos(lam)
        sinSigma = np.sqrt((cosU2 * sinLam) ** 2 + (cosU1 * sinU2 - sinU1 * cosU2 * cosLam) ** 2)
        cosSigma = sinU1 * sinU2 + cosU1 * cosU2 * cosLam
        sigma = np.arctan2(sinSigma, cosSigma)
        with np.errstate(divide="ignore", invalid="ignore"):
            sinAlpha = np.where(sinSigma != 0, cosU1 * cosU2 * sinLam / np.where(sinSigma == 0, 1, sinSigma), 0.0)
            cos2Alpha = 1.0 - sinAlpha**2
            cos2SigmaM = np.where(cos2Alpha != 0, cosSigma - 2.0 * sinU1 * sinU2 / np.where(cos2Alpha == 0, 1, cos2Alpha), 0.0)
        C = f / 16.0 * cos2Alpha * (4.0 + f * (4.0 - 3.0 * cos2Alpha))
        lam = L + (1.0 - C) * f * sinAlpha * (
            sigma + C * sinSigma * (cos2SigmaM + C * cosSigma * (-1.0 + 2.0 * cos2SigmaM**2)))
    u2 = cos2Alpha * (a**2 - b**2) / b**2
    A = 1.0 + u2 / 16384.0 * (4096.0 + u2 * (-768.0 + u2 * (320.0 - 175.0 * u2)))
    B = u2 / 1024.0 * (256.0 + u2 * (-128.0 + u2 * (74.0 - 47.0 * u2)))
    deltaSigma = B * sinSigma * (
        cos2SigmaM + B / 4.0 * (cosSigma * (-1.0 + 2.0 * cos2SigmaM**2)
                                - B / 6.0 * cos2SigmaM * (-3.0 + 4.0 * sinSigma**2) * (-3.0 + 4.0 * cos2SigmaM**2)))
    dist = b * A * (sigma - deltaSigma)
    sinLam, cosLam = np.sin(lam), np.cos(lam)
    az1 = np.degrees(np.arctan2(cosU2 * sinLam, cosU1 * sinU2 - sinU1 * cosU2 * cosLam))
    dist = np.where(sinSigma == 0, 0.0, dist)
    az1 = np.where(sinSigma == 0, 0.0, az1)
    bad = ~np.isfinite(dist)
    if bad.any():
        dist = np.where(bad, np.nan, dist)
        az1 = np.where(bad, np.nan, az1)
    return dist, az1


def vincenty_direct(lon1, lat1, az1_deg, s_m, iterations: int = 8):
    """Destination (lon2, lat2) from start point, forward azimuth (deg,
    clockwise from north) and geodesic distance (m) — Vincenty's direct
    formulas, vectorized; the sigma iteration contracts like f (~3e-3), so
    8 rounds reach float64 round-off for any distance."""
    a, b, f = WGS84_A, WGS84_B, WGS84_F
    lon1 = np.asarray(lon1, np.float64); lat1 = np.asarray(lat1, np.float64)
    az = np.radians(np.asarray(az1_deg, np.float64))
    s = np.asarray(s_m, np.float64)
    U1 = np.arctan((1 - f) * np.tan(np.radians(lat1)))
    sinU1, cosU1 = np.sin(U1), np.cos(U1)
    sinAz, cosAz = np.sin(az), np.cos(az)
    sigma1 = np.arctan2(np.tan(U1), cosAz)
    sinAlpha = cosU1 * sinAz
    cos2Alpha = 1.0 - sinAlpha**2
    u2 = cos2Alpha * (a**2 - b**2) / b**2
    A = 1.0 + u2 / 16384.0 * (4096.0 + u2 * (-768.0 + u2 * (320.0 - 175.0 * u2)))
    B = u2 / 1024.0 * (256.0 + u2 * (-128.0 + u2 * (74.0 - 47.0 * u2)))
    sigma = s / (b * A)
    for _ in range(iterations):
        cos2SigmaM = np.cos(2.0 * sigma1 + sigma)
        sinSigma, cosSigma = np.sin(sigma), np.cos(sigma)
        deltaSigma = B * sinSigma * (
            cos2SigmaM + B / 4.0 * (cosSigma * (-1.0 + 2.0 * cos2SigmaM**2)
                                    - B / 6.0 * cos2SigmaM * (-3.0 + 4.0 * sinSigma**2) * (-3.0 + 4.0 * cos2SigmaM**2)))
        sigma = s / (b * A) + deltaSigma
    sinSigma, cosSigma = np.sin(sigma), np.cos(sigma)
    cos2SigmaM = np.cos(2.0 * sigma1 + sigma)
    tmp = sinU1 * sinSigma - cosU1 * cosSigma * cosAz
    lat2 = np.degrees(np.arctan2(sinU1 * cosSigma + cosU1 * sinSigma * cosAz,
                                 (1 - f) * np.sqrt(sinAlpha**2 + tmp**2)))
    lam = np.arctan2(sinSigma * sinAz, cosU1 * cosSigma - sinU1 * sinSigma * cosAz)
    C = f / 16.0 * cos2Alpha * (4.0 + f * (4.0 - 3.0 * cos2Alpha))
    L = lam - (1.0 - C) * f * sinAlpha * (
        sigma + C * sinSigma * (cos2SigmaM + C * cosSigma * (-1.0 + 2.0 * cos2SigmaM**2)))
    lon2 = lon1 + np.degrees(L)
    lon2 = (lon2 + 180.0) % 360.0 - 180.0
    return lon2, lat2
