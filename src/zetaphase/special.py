"""Critical-line special functions.

Evaluators for the phase machinery on Re(s) = 1/2: the Riemann-Siegel
theta function (exact and asymptotic-series forms, plus a float-precision
vector form), complex log-gamma, the principal branch of Lambert W, zeta on
the critical line and the Hardy Z function, and principal-branch argument
extractors normalized by pi.  Zeta and Z have one evaluator, the vectorized
Euler-Maclaurin kernel behind hardy_z_vec; the scalar zeta_critical_line
and hardy_z call it on one-element arrays.  One Horner loop, theta_tail,
sums the theta series tail for every caller.

Accuracy targets are "working precision": phases whose magnitude grows like
t*log(t) are computed through one extended-precision smooth term and a
single error-free product with pi, so every returned binary64 phase is
within one ulp of the true value and all phase functions share the same
smooth-term double.  Zeta and Z carry an absolute error that grows with t,
from the binary64 rounding of the phases t*ln(k): below 5e-15 * max(t, 100)
inside the supported window 0 <= t <= 1e4, measured against mpmath over
2,500 stratified heights, one in each [4i, 4i + 4) (worst 1.9e-11, at
t = 7187.1, 0.53 of the bound).  The value at t does not depend on the
batch it is evaluated in.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy.special import loggamma as _scipy_loggamma

TWO_PI = 2.0 * math.pi
LN_PI = math.log(math.pi)

T_WINDOW_MAX = 1.0e4

# Working precision (decimal digits) for extended-precision paths.
EXTENDED_DPS = 40

# Switch point between the log-gamma route and the asymptotic route for the
# exact phase.  Above this the 8-term series is exact to far below one ulp.
_THETA_SERIES_MIN = 50.0

# |B_2|, |B_4|, ..., |B_16| as exact rationals.
_BERNOULLI_ABS = (
    Fraction(1, 6),
    Fraction(1, 30),
    Fraction(1, 42),
    Fraction(1, 30),
    Fraction(5, 66),
    Fraction(691, 2730),
    Fraction(7, 6),
    Fraction(3617, 510),
)

MAX_SERIES_ORDER = len(_BERNOULLI_ABS)

# B_2j / (2j)! for j = 1..30, the Euler-Maclaurin correction coefficients,
# frozen from 60-digit mpmath.bernoulli so that importing needs no mpmath work.
_EM_BERNOULLI = np.array([
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
    -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
    3.534707039629467e-21, -8.953517427037546e-23, 2.267952452337683e-24,
    -5.744790668872202e-26, 1.455172475614865e-27, -3.6859949406653103e-29,
    9.336734257095045e-31, -2.36502241570063e-32, 5.990671762482134e-34,
    -1.5174548844682903e-35, 3.843758125454189e-37, -9.736353072646691e-39,
    2.466247044200681e-40, -6.247076741820743e-42, 1.5824030244644914e-43,
    -4.008273685948936e-45, 1.0153075855569557e-46, -2.5718041582418717e-48,
])

# Euler-Maclaurin zeta is evaluated over chunks of this many ascending
# ordinates; its main sum is added in column blocks of this many terms.
_CHUNK = 256
_EM_BLOCK = 64

# Coefficient of t**-(2k+1) in the theta asymptotic series,
# c_k = (1 - 2**(1-2n)) * |B_2n| / (4n(2n-1)) with n = k + 1.
_THETA_COEFFS = tuple(
    float((1 - Fraction(1, 2 ** (2 * n - 1))) * b / (4 * n * (2 * n - 1)))
    for n, b in enumerate(_BERNOULLI_ABS, start=1)
)


class AtZeroError(ArithmeticError):
    """Raised when an argument is requested at a point where zeta vanishes."""


def log_gamma_complex(z: complex) -> complex:
    """Principal-branch log-gamma, continuous along vertical lines Re z > 0.

    Thin wrapper over a library evaluator; the imaginary part is the
    continuously tracked phase, not the principal argument of gamma(z).
    """
    z = complex(z)
    if z.real <= 0.0 and z.imag == 0.0 and z.real == int(z.real):
        raise ValueError(f"log-gamma pole at z = {z}")
    return complex(_scipy_loggamma(z))


@lru_cache(maxsize=131072)
def smooth_main(t: float) -> float:
    """Smooth main term (t/2pi) log(t/(2 pi e)) + 7/8, correctly rounded.

    This single double anchors the whole phase pipeline: the integer-argument
    approximations, the carriers, and both theta evaluators are built from
    it, so their binary64 rounding errors cancel in cross-identities.
    """
    if t <= 0.0:
        raise ValueError("smooth main term requires t > 0")
    with mp.workdps(EXTENDED_DPS):
        x = mp.mpf(t) / (2 * mp.pi)
        return float(x * mp.log(x) - x + mp.mpf(7) / 8)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    """Dekker error-free product: a*b = p + e exactly."""
    p = a * b
    c = 134217729.0 * a
    ah = c - (c - a)
    al = a - ah
    c = 134217729.0 * b
    bh = c - (c - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def theta_tail(t, order: int):
    """Sum of c_k * t**-(2k+1) for k < order (theta units); t a float or an array."""
    w = 1.0 / (t * t)
    acc = 0.0
    for k in range(order - 1, -1, -1):
        acc = acc * w + _THETA_COEFFS[k]
    return acc / t


def _theta_from_main(t: float, order: int) -> float:
    """pi * (smooth_main(t) - 1) + correction, with one effective rounding."""
    p, e = _two_prod(math.pi, smooth_main(t) - 1.0)
    return p + (e + theta_tail(t, order))


@lru_cache(maxsize=65536)
def _theta_loggamma(t: float) -> float:
    with mp.workdps(EXTENDED_DPS):
        return float(mp.siegeltheta(t))


def theta_exact(t: float) -> float:
    """Phase theta(t) = Im log-gamma(1/4 + it/2) - (t/2) log(pi), exact branch.

    Odd in t by construction.  Below t = 50 this goes through log-gamma in
    extended precision; above, through the asymptotic series whose
    truncation error is below 1e-19 there.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if abs(t) > 2.0 * T_WINDOW_MAX:
        raise ValueError(f"|t| beyond supported window {2.0 * T_WINDOW_MAX:g}")
    if t == 0.0:
        return 0.0
    sign, mag = math.copysign(1.0, t), abs(t)
    if mag < _THETA_SERIES_MIN:
        return sign * _theta_loggamma(mag)
    return sign * _theta_from_main(mag, MAX_SERIES_ORDER)


def theta_series(t: float, order: int = 4) -> float:
    """Asymptotic form of theta(t): main term plus `order` correction terms.

    Valid for t >= 10; the order-4 truncation already sits below 1e-12 of
    theta_exact for t >= 50.
    """
    t = float(t)
    if t < 10.0:
        raise ValueError("asymptotic series requires t >= 10")
    if not 0 <= order <= MAX_SERIES_ORDER:
        raise ValueError(f"order must be in [0, {MAX_SERIES_ORDER}]")
    return _theta_from_main(t, order)


# Halley iteration for lambert_w0: relative step tolerance and step cap.
_LAMBERT_TOL = 1e-15
_LAMBERT_MAX_ITER = 50


def lambert_w0(x: float) -> float:
    """Principal branch W0 of the Lambert W function on [-1/e, inf).

    Halley iteration from a log-based initial guess, blended toward the
    square-root expansion near the branch point at -1/e.
    """
    x = float(x)
    branch = -1.0 / math.e
    if x < branch:
        if x > branch - 1e-15:
            x = branch
        else:
            raise ValueError(f"lambert_w0 domain is [-1/e, inf), got {x}")
    if x == 0.0:
        return 0.0
    if x == branch:
        return -1.0

    if x < branch + 0.25:
        # Branch-point expansion: W = -1 + p - p^2/3 + ... with p = sqrt(2(e x + 1)).
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * 11.0 / 72.0))
    elif x < math.e:
        w = math.log1p(x) * 0.7  # crude but inside the basin
    else:
        lx = math.log(x)
        w = lx - math.log(lx)

    for _ in range(_LAMBERT_MAX_ITER):
        ew = math.exp(w)
        f = w * ew - x
        if f == 0.0:
            break
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        w -= step
        if abs(step) <= _LAMBERT_TOL * max(1.0, abs(w)):
            break
    else:
        raise ArithmeticError(f"lambert_w0 failed to converge for x = {x}")

    residual = w * math.exp(w) - x
    if abs(residual) > 1e-14 * max(1.0, abs(x)):
        raise ArithmeticError(f"lambert_w0 residual {residual:g} too large for x = {x}")
    return w


def theta_vec(ts: np.ndarray) -> np.ndarray:
    """theta on an array, float-precision (abs error ~5e-12, plenty for Z)."""
    ts = np.asarray(ts, dtype=np.float64)
    out = np.empty_like(ts)
    low = ts < _THETA_SERIES_MIN
    if low.any():
        tl = ts[low]
        out_l = np.zeros_like(tl)
        pos = tl > 0.0
        if pos.any():
            z = 0.25 + 0.5j * tl[pos]
            out_l[pos] = _scipy_loggamma(z).imag - 0.5 * tl[pos] * LN_PI
        out[low] = out_l
    high = ~low
    if high.any():
        t = ts[high]
        x = t / TWO_PI
        out[high] = math.pi * (x * np.log(x) - x - 0.125) + theta_tail(t, MAX_SERIES_ORDER)
    return out


def _em_truncation(ts: np.ndarray) -> np.ndarray:
    """Euler-Maclaurin truncation N = ceil(t/4) + 20 per ordinate, as floats."""
    return np.ceil(ts / 4.0) + 20.0


def _zeta_em_chunk(ts: np.ndarray) -> np.ndarray:
    """Euler-Maclaurin zeta(1/2+it) for an array of ordinates t >= 0.

    Each ordinate t gets its own truncation N = ceil(t/4) + 20: the terms
    k < N are summed directly, and the tail carries m = 30 Bernoulli
    corrections B_2..B_60.  Backlund's bound on the remainder (Rubinstein,
    Computational methods and experiments in analytic number theory, 2005)
    is then at most 6.9e-13 at t = 1e4, 1.4% of the documented error bound.
    The main sum is one masked term matrix whose 64-column blocks are summed
    pairwise and combined in sequence, and the tail is combined in sequence,
    so the value at t does not depend on the other ordinates in the batch:
    the blocks past a row's truncation add exact zeros.
    """
    m = len(ts)
    n_big = _em_truncation(ts)
    width = -(-(int(n_big.max()) - 1) // _EM_BLOCK) * _EM_BLOCK
    ks = np.arange(1.0, width + 1.0)
    w = np.where(ks < n_big[:, None], 1.0 / np.sqrt(ks), 0.0)
    ph = np.outer(ts, np.log(ks))

    def main_sum(terms):
        return terms.reshape(m, -1, _EM_BLOCK).sum(axis=2).cumsum(axis=1)[:, -1]

    s = 0.5 + 1j * ts
    n_pow = n_big ** -s
    total = (main_sum(w * np.cos(ph)) - 1j * main_sum(w * np.sin(ph))
             + n_big * n_pow / (s - 1.0) + 0.5 * n_pow)
    # Tail sum_j B_2j/(2j)! * s(s+1)...(s+2j-2) * N^(1-s-2j) as a running
    # product of term ratios (s+2j-1)(s+2j)/N^2, one row per j.
    j = np.arange(1, len(_EM_BERNOULLI))[:, None]
    ratios = (s + (2 * j - 1)) * (s + 2 * j) / (n_big * n_big)
    terms = np.vstack([s * n_pow / n_big, ratios]).cumprod(axis=0)
    return total + (_EM_BERNOULLI[:, None] * terms).cumsum(axis=0)[-1]


def hardy_z_vec(ts: np.ndarray) -> np.ndarray:
    """Hardy Z via Euler-Maclaurin zeta for an arbitrary array of ordinates t >= 0.

    Each value depends on its own t alone, not on the rest of the batch.
    """
    ts = np.asarray(ts, dtype=np.float64)
    if ts.size == 0:
        return np.empty(0)
    order = np.argsort(ts, kind="stable")
    zs = np.empty_like(ts)
    sorted_ts = ts[order]
    for pos in range(0, len(sorted_ts), _CHUNK):
        chunk = sorted_ts[pos:pos + _CHUNK]
        zeta = _zeta_em_chunk(chunk)
        th = theta_vec(chunk)
        zs[order[pos:pos + _CHUNK]] = np.cos(th) * zeta.real - np.sin(th) * zeta.imag
    return zs


def zeta_critical_line(t: float) -> complex:
    """zeta(1/2 + it) for 0 <= t <= 1e4, absolute error below 5e-15 * max(t, 100)."""
    t = float(t)
    if not 0.0 <= t <= T_WINDOW_MAX:
        raise ValueError(f"t outside supported window [0, {T_WINDOW_MAX:g}]")
    return complex(_zeta_em_chunk(np.array([t]))[0])


def hardy_z(t: float) -> float:
    """Hardy Z(t) = e^{i theta(t)} zeta(1/2 + it), real on the critical line.

    Absolute error below 5e-15 * max(t, 100), as for zeta_critical_line.
    """
    t = float(t)
    if not 2.0 <= t <= T_WINDOW_MAX:
        raise ValueError(f"t outside supported window [2, {T_WINDOW_MAX:g}]")
    return float(hardy_z_vec(np.array([t]))[0])


def wrap_half_turns(u: float) -> float:
    """Wrap to (-1, 1], units of half turns (value of angle/pi)."""
    w = math.remainder(u, 2.0)
    if w <= -1.0:
        w += 2.0
    return w


def arg_zeta_principal(t: float) -> float:
    """(1/pi) Arg zeta(1/2 + it) with the principal branch, in (-1, 1]."""
    z = zeta_critical_line(t)
    if abs(z) < 1e-12:
        raise AtZeroError(f"zeta vanishes at t = {t} to working precision")
    return math.atan2(z.imag, z.real) / math.pi


def arg_gamma_quarter(t: float) -> float:
    """(1/pi) Arg gamma(1/4 + it/2) with the principal branch, in (-1, 1].

    Odd in t.  Computed from the continuous phase of log-gamma, wrapped to
    the principal range; the gamma value itself underflows for large t so
    the phase route is the only stable one.
    """
    t = float(t)
    if abs(t) > 2.0 * T_WINDOW_MAX:
        raise ValueError(f"|t| beyond supported window {2.0 * T_WINDOW_MAX:g}")
    if t == 0.0:
        return 0.0
    if t < 0.0:
        return -arg_gamma_quarter(-t)
    phase = log_gamma_complex(complex(0.25, 0.5 * t)).imag / math.pi
    return wrap_half_turns(phase)
