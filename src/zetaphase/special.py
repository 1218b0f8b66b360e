"""Critical-line special functions.

Evaluators for the phase machinery on Re(s) = 1/2: the Riemann-Siegel
theta function (exact and asymptotic-series forms, plus a float-precision
vector form), complex log-gamma, the principal branch of Lambert W, zeta on
the critical line and the Hardy Z function, and principal-branch argument
extractors normalized by pi.  Zeta and Z have one evaluator, the vectorized
kernel behind hardy_z_vec, with two regimes: below T_RS = 800 an
Euler-Maclaurin sum, from T_RS up the Riemann-Siegel formula with the
corrections C0..C6.  The scalar zeta_critical_line and hardy_z make the
same split on one-element arrays.  One Horner loop, theta_tail, sums the
theta series tail for every caller.

Accuracy targets are "working precision": phases whose magnitude grows like
t*log(t) are computed through one extended-precision smooth term and a
single error-free product with pi, so every returned binary64 phase is
within one ulp of the true value and all phase functions share the same
smooth-term double.  That term, smooth_main, is exact integer arithmetic
on 136-bit fixed-point values (as many bits as EXTENDED_DPS = 40 digits
give) ended by one correctly rounded integer division; it enters no mpmath
precision context.  Zeta and Z carry an absolute error below
5e-15 * max(t, 100) inside the supported window 0 <= t <= 1e4, measured
against mpmath at stratified heights, one in each [4i, 4i + 4).  Below
T_RS the error comes from the binary64 rounding of the phases t*ln(k) in
up to 220 Euler-Maclaurin terms: worst 7.4e-13, 0.22 of the bound, over the
200 heights in [2, 800).  From T_RS up the Riemann-Siegel phases are
reduced in extended precision and the error is mostly the truncation
after C6: worst 1.7e-13, 0.033 of the bound, over the 2,300 heights in
[800, 1e4].  T_RS is the lowest hundred above which that measured error
stays below 1/20 of the bound; Gabcke's rigorous bound 0.661 t^(-15/4) on
the truncation meets the documented bound only from t = 940 up.  The value
at t does not depend on the batch it is evaluated in.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np
from mpmath.libmp import dps_to_prec, from_int, ln2_fixed, mpf_log, mpf_pi, pi_fixed, to_fixed
from scipy.special import loggamma as _scipy_loggamma

TWO_PI = 2.0 * math.pi
LN_PI = math.log(math.pi)

T_WINDOW_MAX = 1.0e4

# Working precision (decimal digits) for extended-precision paths.
EXTENDED_DPS = 40

# smooth_main works on integers v * 2^_FIXED_BITS.  Logarithms are taken
# with 16 more bits of relative precision: ln m < 2^10 for the numerator m
# of any double, so each is within about one unit, 2^-_FIXED_BITS, of its
# true value.
_FIXED_BITS = dps_to_prec(EXTENDED_DPS)
_LOG_BITS = _FIXED_BITS + 16
_TWO_PI_FIXED = 2 * pi_fixed(_FIXED_BITS)
_LN2_FIXED = ln2_fixed(_FIXED_BITS)
_LN_TWO_PI_E_FIXED = (_LN2_FIXED + (1 << _FIXED_BITS)
                      + to_fixed(mpf_log(mpf_pi(_LOG_BITS), _LOG_BITS), _FIXED_BITS))

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

# From this height up Z and zeta are evaluated by the Riemann-Siegel
# formula: the lowest hundred above which its measured error stays below
# 1/20 of the documented bound, and about 1/5 of the Euler-Maclaurin
# kernel's at the same heights (see the module docstring).
T_RS = 800.0

# Riemann-Siegel tables, frozen from scripts/derive_rs_coefficients.py,
# which tests/test_special.py checks them against.  C_k(p) has the parity
# of k in x = 2p - 1, and row k of _RS_CHEBYSHEV holds the Chebyshev
# coefficients of C_k / x^(k % 2) in y = 2x^2 - 1 = T_2(x); for even k they
# are those of T_2j(x) in C_k.  _RS_MU_HI + _RS_MU_LO is (ln n - 1/2)/(2 pi)
# for n = 1..42, with 26-bit _RS_MU_HI, and _RS_TWO_PI_HI + _RS_TWO_PI_LO
# is 2 pi, with 40-bit _RS_TWO_PI_HI.
_RS_CHEBYSHEV = np.array([
    [
        0.6426672862397684, 0.27197299999785507, 0.010738605819340285,
        -0.0013743815296336614, -0.00012468221880320676, -5.764599706783048e-07,
        2.728067429580452e-07, 8.07795305950047e-09, -2.0884608068869654e-10,
        -1.3115561854739528e-11, -1.4207987228087186e-14, 1.0271701357931162e-14,
        1.3974598819518373e-16, -4.4841187339522885e-18,
    ],
    [
        -0.003669156562182772, 0.028734140966371547, 0.005607161520384222,
        -2.0739220807279964e-05, -5.201208663127012e-05, -2.205823831031653e-06,
        1.0907385768109821e-07, 8.655485649453228e-09, -9.551112447669321e-12,
        -1.3188070728878103e-11, -2.115970918325531e-13, 9.997138776383605e-15,
        3.078372420606269e-16, -3.4981526238874625e-18,
    ],
    [
        0.0031461158539889122, -0.0023087838845307503, 5.769820766689844e-05,
        0.000352388620236659, 2.5246667458684434e-05, -3.442821197193136e-06,
        -3.535074556622459e-07, 3.730830183792625e-09, 1.2776951864116635e-09,
        2.1874616204147057e-11, -1.914141096461037e-12, -6.562883102168523e-14,
        1.2586009182411715e-15, 8.140076623881463e-17,
    ],
    [
        -0.00030191243459800856, 0.0007462899936200945, -0.0002816038876567984,
        2.3005646747348866e-05, 1.3143346079994013e-05, -9.097570555313324e-08,
        -1.4295160201730648e-07, -4.037920513056026e-09, 4.877384974746115e-10,
        2.3372094790693514e-11, -6.188215896189135e-13, -5.1151190087141844e-14,
        7.643137881406036e-17, 5.889863661237705e-17,
    ],
    [
        0.0001676574524669686, -0.00022728768943416726, 6.477387188445696e-05,
        -8.49220050012541e-06, -2.6161407245219076e-06, 8.336764968733215e-07,
        6.324704037544833e-08, -1.0059949403001072e-08, -7.822677204130333e-10,
        3.16765828534986e-11, 3.5006944702052894e-12, -1.4314814511443748e-14,
        -7.269402707921764e-15, -8.780556594835957e-17,
    ],
    [
        0.0001009490716640513, -2.5321238631924578e-05, -5.936131306732197e-06,
        5.569282352788995e-06, -1.3498287778014868e-06, 1.842554298220938e-08,
        3.700393942792748e-08, -7.814406763977287e-10, -3.7173748594546684e-10,
        -1.7631825761962343e-12, 1.5421503978543737e-12, 3.197827575699093e-14,
        -3.06157376568069e-15, -1.0134461604121639e-16,
    ],
    [
        1.2189742141068971e-05, -1.3829760140503787e-05, 5.11096730499826e-06,
        -2.0458136450386076e-06, 4.938136644832012e-07, -3.6187528349622816e-08,
        -1.287690509807986e-08, 2.574412111144866e-09, 1.3641457070791684e-10,
        -3.032439574084382e-11, -1.3216671239902537e-12, 1.3031652130009368e-13,
        6.63588355320067e-15, -2.46003565479328e-16,
    ],
])
_RS_MU_HI = np.array([
    -0.07957747206091881, 0.03074032859876752, 0.09527210518717766,
    0.14105812832713127, 0.1765725277364254, 0.2055899053812027, 0.23012374714016914,
    0.2513759285211563, 0.2701216787099838, 0.28689032793045044, 0.3020594120025635,
    0.31590770184993744, 0.3286468982696533, 0.3404415473341942, 0.35142210125923157,
    0.36169373244047165, 0.3713424354791641, 0.38043948262929916, 0.38904454559087753,
    0.3972081243991852, 0.4049733206629753, 0.4123772159218788, 0.41945192962884903,
    0.4262255057692528, 0.4327225238084793, 0.43896469473838806, 0.4449712559580803,
    0.4507593512535095, 0.4563443064689636, 0.4617399051785469, 0.46695856750011444,
    0.4720115289092064, 0.47690898925065994, 0.48166023939847946, 0.48627374321222305,
    0.4907572790980339, 0.4951179623603821, 0.49936234951019287, 0.5034964680671692,
    0.5075259208679199, 0.5114558786153793, 0.5152911245822906,
])
_RS_MU_LO = np.array([
    5.149711400989566e-10, -6.838939018340605e-11, -4.5009543696676093e-10,
    2.7957265414970986e-10, 8.101500607345018e-11, -5.677946799413842e-10,
    3.48723147883501e-10, 1.6187341117508652e-10, 2.3101282844294355e-09,
    -3.668423690117317e-11, 2.134038361218541e-09, 3.0397963755459064e-09,
    -7.952166018438324e-10, 2.3102390490887765e-10, 2.8412387274696466e-09,
    -3.681116130261451e-09, 1.515353759185128e-09, -1.5328612570071018e-09,
    1.0299680267236937e-09, 3.5709068185861175e-09, 3.1089468692796978e-09,
    -1.7089511802179963e-09, 2.326374107427561e-09, -8.03193165890631e-10,
    3.372349170509858e-09, 2.812374453643458e-09, 1.3450617073637182e-09,
    -3.61196563652766e-09, -1.8198375454342137e-09, -1.0017508139668907e-09,
    -9.379319065026774e-10, -7.352507477416017e-11, 1.1689717841528237e-09,
    -2.3276357822514093e-09, 3.640057312319909e-09, 2.074729798480189e-09,
    9.90067286776362e-10, -2.813021514712844e-09, 5.690297418014278e-09,
    7.178497874073408e-09, 7.826492569700742e-10, -7.340426721568398e-10,
])
_RS_TWO_PI_HI, _RS_TWO_PI_LO = 6.283185307176609, 2.9774189921946493e-12

# Correction k carries a^-(k + 1/2) and, for odd k, the factor x; the
# remainder has the sign (-1)^(N-1), entry N of _RS_SIGNS.
_RS_POWERS = -0.5 - np.arange(len(_RS_CHEBYSHEV))
_RS_ODD = np.arange(len(_RS_CHEBYSHEV)) % 2 == 1
_RS_SIGNS = np.where(np.arange(len(_RS_MU_HI) + 1) % 2 == 1, 1.0, -1.0)
# Column N: the main-sum weights n^(-1/2) for n <= N, zero beyond.
_RS_TRUNCATED_WEIGHTS = np.triu(np.ones((len(_RS_MU_HI), len(_RS_MU_HI) + 1)), 1) / np.sqrt(
    np.arange(1.0, len(_RS_MU_HI) + 1.0))[:, None]
# The Riemann-Siegel evaluator takes ordinates in chunks of this many; its
# main sum is added in blocks of this many terms.  NumPy adds fewer than 8
# terms along any axis in index order, so the sums over blocks of 7 (main
# sum columns, Chebyshev terms), over the at most 6 main-sum blocks, the 2
# Chebyshev blocks and the 7 corrections do not depend on the batch.
_RS_CHUNK = 512
_RS_BLOCK = 7

# Veltkamp's splitter: c = _SPLITTER * a gives a = (c - (c - a)) + rest,
# the leading part with 26 significant bits.
_SPLITTER = 134217729.0

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

    With t = m / 2^e exactly and ln t = ln m - e ln 2, the value
    (m (ln t - ln 2 pi - 1) + (7/8) 2^e 2 pi) / (2^e 2 pi) is formed on
    integers with 136 fraction bits, each constant within about one unit of
    the last of them, and rounded once by Python's correctly rounded integer
    true division.  A value beyond the binary64 range (t above about 1e306)
    raises OverflowError.
    """
    if t <= 0.0:
        raise ValueError("smooth main term requires t > 0")
    m, d = float(t).as_integer_ratio()
    e = d.bit_length() - 1
    log_t = to_fixed(mpf_log(from_int(m), _LOG_BITS), _FIXED_BITS) - e * _LN2_FIXED
    den = _TWO_PI_FIXED << e
    return (8 * m * (log_t - _LN_TWO_PI_E_FIXED) + 7 * den) / (8 * den)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    """Dekker error-free product: a*b = p + e exactly."""
    p = a * b
    c = _SPLITTER * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLITTER * b
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


def _rs_z_theta(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Riemann-Siegel Z(t) and theta(t) mod 2 pi for ordinates 200 <= t <= 1e4.

    Z = 2 sum_{n<=N} n^(-1/2) cos(theta - t ln n) + (-1)^(N-1) a^(-1/2)
    sum_{k<=6} C_k(p) a^(-k), with a = sqrt(t/(2 pi)), N = floor(a) and
    p = a - N (Gabcke 1979).  The phases are reduced in turns without
    losing the digits that binary64 t ln n and theta drop: t mu_n mod 1,
    mu_n = (ln n - 1/2)/(2 pi), is an exact product of 26-bit halves plus
    two small products, theta/(2 pi) = t mu_N + t ln(a/N)/(2 pi) - 1/16 +
    tail/(2 pi), and t ln n/(2 pi) = t mu_n - t mu_1.  Each sum runs over fewer
    than 8 terms per axis and the columns past N add exact zeros, so a
    value does not depend on the rest of the batch.  The returned theta lies
    in (-2 pi, 2 pi).
    """
    m = len(ts)
    n = np.floor(np.sqrt(ts / TWO_PI))
    n2 = n * n
    # r = t/(2 pi N^2) - 1, with t - hi N^2 exact: hi N^2 is exact and
    # within a factor 2 of t.
    r = (ts - _RS_TWO_PI_HI * n2 - _RS_TWO_PI_LO * n2) / (TWO_PI * n2)
    log_a_n = 0.5 * np.log1p(r)
    p = n * np.expm1(log_a_n)

    # One row per column n = 1..width: turns[n - 1] = t mu_n mod 1.
    c = _SPLITTER * ts
    t_hi = c - (c - ts)
    width = _RS_BLOCK * -(-int(n.max()) // _RS_BLOCK)
    mu_hi = _RS_MU_HI[:width, None]
    turns = np.modf(mu_hi * t_hi)[0] + (mu_hi * (ts - t_hi) + _RS_MU_LO[:width, None] * ts)
    g = (ts * log_a_n + theta_tail(ts, 2)) / TWO_PI - 0.0625
    n_idx = n.astype(np.intp)
    theta = turns[n_idx - 1, np.arange(m)] + (g - np.rint(g))
    phase = (theta + turns[0]) - turns
    terms = np.cos(TWO_PI * (phase - np.rint(phase))) * _RS_TRUNCATED_WEIGHTS[:width, n_idx]
    main = terms.reshape(-1, _RS_BLOCK, m).sum(axis=1).sum(axis=0)

    # C_k / x^(k % 2) = sum_j b_kj T_j(y), y = 2x^2 - 1, x = 2p - 1, with
    # T_j(y) = Re w^j for w = e^(i arccos y) = (x + i sqrt(1 - x^2))^2
    # (abs: a rounded N may leave p a hair outside [0, 1]).
    x = 2.0 * p - 1.0
    e_psi = x + 2j * np.sqrt(np.abs(p * (1.0 - p)))
    powers = np.empty((_RS_CHEBYSHEV.shape[1], m), dtype=np.complex128)
    powers[0] = 1.0
    powers[1:] = e_psi * e_psi
    cheb = powers.cumprod(axis=0).real
    corrections = (cheb * _RS_CHEBYSHEV[:, :, None]).reshape(len(_RS_CHEBYSHEV), 2, -1, m)
    scale = np.exp(_RS_POWERS[:, None] * np.log(n + p)) * np.where(_RS_ODD[:, None], x, 1.0)
    remainder = _RS_SIGNS[n_idx] * (corrections.sum(axis=2).sum(axis=1) * scale).sum(axis=0)
    return 2.0 * main + remainder, TWO_PI * theta


def riemann_siegel_z_vec(ts: np.ndarray) -> np.ndarray:
    """Hardy Z by the Riemann-Siegel formula for an array of ordinates 200 <= t <= 1e4.

    From T_RS up this is hardy_z_vec itself.  Below T_RS the truncation
    error grows, to about 2e-11 near t = 200 (Gabcke's bound: 1.6e-9): fine
    for sampling a grid, not within the documented bound.  Each value
    depends on its own t alone.
    """
    ts = np.asarray(ts, dtype=np.float64)
    zs = np.empty_like(ts)
    for pos in range(0, len(ts), _RS_CHUNK):
        zs[pos:pos + _RS_CHUNK] = _rs_z_theta(ts[pos:pos + _RS_CHUNK])[0]
    return zs


def hardy_z_vec(ts: np.ndarray) -> np.ndarray:
    """Hardy Z for an arbitrary array of ordinates 0 <= t <= 1e4.

    Below T_RS via the Euler-Maclaurin zeta, from T_RS up by the
    Riemann-Siegel formula.  Each value depends on its own t alone, not on
    the rest of the batch.
    """
    ts = np.asarray(ts, dtype=np.float64)
    if ts.size == 0:
        return np.empty(0)
    order = np.argsort(ts, kind="stable")
    sorted_ts = ts[order]
    zs = np.empty_like(ts)
    split = int(np.searchsorted(sorted_ts, T_RS))
    for pos in range(0, split, _CHUNK):
        chunk = sorted_ts[pos:min(pos + _CHUNK, split)]
        zeta = _zeta_em_chunk(chunk)
        th = theta_vec(chunk)
        zs[order[pos:pos + len(chunk)]] = np.cos(th) * zeta.real - np.sin(th) * zeta.imag
    if split < len(ts):
        zs[order[split:]] = riemann_siegel_z_vec(sorted_ts[split:])
    return zs


def zeta_critical_line(t: float) -> complex:
    """zeta(1/2 + it) for 0 <= t <= 1e4, absolute error below 5e-15 * max(t, 100).

    From T_RS up this is e^(-i theta) Z with Z and theta from the
    Riemann-Siegel evaluator.
    """
    t = float(t)
    if not 0.0 <= t <= T_WINDOW_MAX:
        raise ValueError(f"t outside supported window [0, {T_WINDOW_MAX:g}]")
    if t < T_RS:
        return complex(_zeta_em_chunk(np.array([t]))[0])
    z, theta = _rs_z_theta(np.array([t]))
    return complex(z[0] * math.cos(theta[0]), -z[0] * math.sin(theta[0]))


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
