"""Critical-line special functions.

Evaluators for the phase machinery on Re(s) = 1/2: the Riemann-Siegel
theta function (exact and asymptotic-series forms, plus a float-precision
vector form), the principal branch of Lambert W, zeta on the critical line
and the Hardy Z function, and principal-branch argument extractors
normalized by pi.  Arg gamma(1/4 + it/2) is theta_exact's phase plus
(t/2) ln pi, wrapped.  Each quantity has one domain: theta and Arg gamma
take |t| <= T_THETA_MAX = 2e4, zeta and Z take 0 <= t < T_Z_MAX = 2 pi 43^2
(about 11617.61).  theta_vec, the float-precision theta of Z and of the
smooth zero count, is the asymptotic series alone and takes t in [T_NO_ZERO,
T_THETA_MAX]; Z has no zero below T_NO_ZERO = 14 and is -|zeta| there.  Zeta
and Z have one evaluator: a private dispatcher checks that domain, sorts
the ordinates, sends those below T_RS = 200 to an Euler-Maclaurin kernel
and those from T_RS up to a Riemann-Siegel kernel with the corrections
C0..C13, or C0..C7 from t = 800, in chunks, and puts every value back in
its place.  hardy_z, zeta_critical_line and arg_zeta_principal are calls
into it, and the zero scanner samples and refines with hardy_z.  Each takes a
float or an array, and a float is a one-element call, so scalar and array
values agree bit for bit.  One Horner loop, theta_tail, sums the theta
series tail for every caller.

Accuracy targets are "working precision": phases whose magnitude grows like
t*log(t) are computed through one extended-precision smooth term and a
single error-free product with pi, and all phase functions share the same
smooth-term double.  At 12,000 stratified heights theta_exact is within 2.3
ulp of 40-digit mpmath from t = 20 and within 4.7e-16 absolute on [14, 20),
where theta crosses 0.  The term smooth_main is exact integer arithmetic
on 136-bit fixed-point values (as many bits as EXTENDED_DPS = 40 digits
give) ended by one correctly rounded integer division; its logarithm comes
from mpmath's fixed-point Taylor kernel, and it enters no mpmath precision
context.  Zeta and Z carry an absolute error below 5e-15 * max(t, 100) on
their domain, measured against 20-digit mpmath at
stratified heights, one in each [4i, 4i + 4).  Below T_RS the error comes
from the binary64 rounding of the phases t*ln(k) in up to 70
Euler-Maclaurin terms: worst 8.6e-14, 0.10 of the bound, over the 50
heights in [2, 200).  From T_RS up the Riemann-Siegel phases are reduced in
extended precision and the error is rounding: worst 6.3e-13, 0.039 of the
bound, over the 2,450 heights in [200, 1e4], and 0.0045 of the bound over
40 stratified heights in [1e4, T_Z_MAX).  T_RS is the lowest hundred above
which that measured error stays below 1/20 of the bound.  The truncation
after C13 is about 2e-17 from t = 200 up (Gabcke 1979; Arias de Reyna,
Math. Comp. 2011), the rounding floor of the frozen table; from t = 800,
where C8..C13 are dropped, they add at most 8.9e-4 of the bound.  The
value at t does not depend on the batch it is evaluated in.

Importing this module loads numpy and no mpmath: its fixed-point constants
and series coefficients are frozen literals.  mpmath is imported on first
use by _ln_fixed (so by a smooth_main cache miss and by
combination_over_8pi) and by theta_exact below t = T_NO_ZERO.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from collections.abc import Callable
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi
LN_PI = math.log(math.pi)

# The domains: theta and Arg gamma take |t| <= T_THETA_MAX; zeta and Z take
# 0 <= t < T_Z_MAX, from which on the Riemann-Siegel N = floor(sqrt(t / 2 pi))
# outgrows the 42 rows of the phase tables.
T_THETA_MAX = 2.0e4
T_Z_MAX = TWO_PI * 43 ** 2
# Z has no zero below this height (the first is at 14.1347): theta_vec takes
# T_NO_ZERO <= t <= T_THETA_MAX, and below it Z = -|zeta|, as Z(0) = zeta(1/2) < 0.
T_NO_ZERO = 14.0

# Working precision (decimal digits) for extended-precision paths.
EXTENDED_DPS = 40

# smooth_main and combination_over_8pi work on integers v * 2^_FIXED_BITS,
# with _FIXED_BITS = mpmath's dps_to_prec(EXTENDED_DPS).  Logarithms are
# summed with 16 more fraction bits, _LOG_BITS, and rounded once, so each is
# within one unit, 2^-_FIXED_BITS, of its true value.  pi, ln 2 and ln pi
# are frozen from mpmath.libmp so that importing needs no mpmath;
# tests/test_special.py derives them again.
_FIXED_BITS = 136
_LOG_BITS = _FIXED_BITS + 16
_PI_FIXED = 273671317520631487452078175529438920524964
_LN2_FIXED = 60381635385731403299313700547623548006208
_LN2_LOG_BITS = 3957170856639293246623822679089056842134909763
_LOG_HALF_UNIT = 1 << _LOG_BITS - _FIXED_BITS - 1
_LN_PI_FIXED = 99720037130744215831830602185213718665310
_LN_TWO_PI_E_FIXED = _LN2_FIXED + (1 << _FIXED_BITS) + _LN_PI_FIXED
_EIGHT_PI_FIXED = 8 * _PI_FIXED

# Coefficient of t**-(2k+1) in the theta asymptotic series,
# c_k = (1 - 2**(1-2n)) * |B_2n| / (4n(2n-1)) with n = k + 1, each rounded
# once from the exact Bernoulli number; tests/test_special.py derives them.
_THETA_COEFFS = (
    0.020833333333333332, 0.0012152777777777778, 0.00038442460317460316,
    0.0002952938988095238, 0.0004200533985690236, 0.0009582953125433594,
    0.0032047369541266025, 0.014774875890195759,
)

MAX_SERIES_ORDER = len(_THETA_COEFFS)

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
# 1/20 of the documented bound (see the module docstring).
T_RS = 200.0
# From this height up the Riemann-Siegel kernel sums the corrections C0..C7
# alone: by sum_j |b_kj| a^-(k + 1/2) the dropped C8..C13 add at most
# 8.9e-4 of the documented bound at t = 800, and less above it.
_T_RS_SHORT = 800.0
_RS_SHORT_ROWS = 8

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
    [
        1.827285786561044e-05, -1.1008400136344443e-05, 3.282532467061245e-06,
        -5.437662797676692e-07, -9.174553888200617e-09, 2.9741427534891034e-08,
        -6.231294398552861e-09, 1.2119656685887065e-10, 1.074122711280688e-10,
        -4.795897620864847e-12, -8.751221996380555e-13, 2.1791367308069344e-14,
        3.7357787089654046e-15, -2.19627024729479e-17,
    ],
    [
        1.228558508809108e-06, -1.1940986396077243e-06, -6.099999653919517e-08,
        -8.844063913885954e-09, 3.169816317194402e-08, -1.4200472095883398e-08,
        3.161410591547148e-09, -2.443631526211608e-10, -4.3226312365634374e-11,
        9.017681907739495e-12, 1.469890792000892e-13, -8.703305382470976e-14,
        -8.379770803373182e-16, 3.8874550686659373e-16,
    ],
    [
        4.033411142597758e-06, -2.0252281974869307e-06, 6.11323732627802e-07,
        -1.6899332657723014e-07, 3.8677374321150255e-08, -6.259906358926756e-09,
        3.6284669051529545e-10, 1.0805905023264905e-10, -2.7038403322375307e-11,
        1.225126787326331e-12, 2.7853879787768917e-13, -2.21554370252174e-14,
        -1.639404787914064e-15, 1.1419338198194077e-16,
    ],
    [
        6.981157928224481e-08, 5.187602099781909e-08, -1.5025689400416704e-07,
        5.385175415429129e-08, -1.2009470947212667e-08, 1.8441416112134065e-09,
        -6.051285922581879e-11, -5.891392764479414e-11, 1.6515772641435116e-11,
        -1.6489918275452742e-12, -8.450007409241396e-14, 3.023518017772655e-14,
        -6.17920112377458e-16, -2.1506480207808527e-16,
    ],
    [
        8.247130162015462e-07, -2.0837265515349058e-07, 1.7879615799624598e-08,
        -4.158195132395946e-09, 1.985822977964512e-09, -8.562920670353242e-10,
        2.502293525938676e-10, -4.700888236381966e-11, 4.571491684903682e-12,
        1.4732146115747063e-13, -9.745022775865707e-14, 7.675724345482112e-15,
        5.119647845730807e-16, -7.945255939450111e-17,
    ],
    [
        -2.9740973523705757e-08, 6.068000926945187e-08, -4.2394988325987055e-08,
        1.3933135998978081e-08, -3.1956663706788797e-09, 7.144489894926992e-10,
        -1.4990392420225012e-10, 2.521962439700812e-11, -2.621330141420838e-12,
        -3.0049173260549826e-14, 6.173168415377237e-14, -8.704823846615089e-15,
        1.206733943115585e-16, 8.339690271453525e-17,
    ],
    [
        1.9664122065281734e-07, 9.909784940015822e-09, -2.62356800619216e-08,
        7.806109364850332e-09, -1.8016352866158518e-09, 3.375165812513616e-10,
        -4.5936369889191683e-11, 2.7077064171646548e-12, 6.288850427864369e-13,
        -2.1874748511699968e-13, 3.041963185522308e-14, -1.2294371441671818e-15,
        -2.4345237238312243e-16, 3.33717455234761e-17,
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
_RS_SIGNS = np.where(np.arange(len(_RS_MU_HI) + 1) % 2 == 1, 1.0, -1.0)
# Column N: the main-sum weights n^(-1/2) for n <= N, zero beyond.
_RS_TRUNCATED_WEIGHTS = np.triu(np.ones((len(_RS_MU_HI), len(_RS_MU_HI) + 1)), 1) / np.sqrt(
    np.arange(1.0, len(_RS_MU_HI) + 1.0))[:, None]
# The Riemann-Siegel evaluator takes ordinates in chunks of this many; its
# main sum and Chebyshev terms are added in blocks of this many terms, its
# corrections in 2 blocks of 7, or of 4 from _T_RS_SHORT up.  NumPy adds
# fewer than 8 terms along any axis in index order, so these sums, and those
# over the at most 6 main-sum blocks and over the 2 Chebyshev and 2
# correction blocks, do not depend on the batch.
_RS_CHUNK = 512
_RS_BLOCK = 7
# Per band, by its rows: the Chebyshev table and the powers of a, as views
# broadcast over the ordinates.
_RS_BANDS = {rows: (_RS_CHEBYSHEV[:rows, :, None], _RS_POWERS[:rows, None])
             for rows in (len(_RS_CHEBYSHEV), _RS_SHORT_ROWS)}

# Veltkamp's splitter: c = _SPLITTER * a gives a = (c - (c - a)) + rest,
# the leading part with 26 significant bits.
_SPLITTER = 134217729.0


class AtZeroError(ArithmeticError):
    """Raised when an argument is requested at a point where zeta vanishes."""


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
    log_t = _ln_fixed(m) - e * _LN2_FIXED
    den = 2 * _PI_FIXED << e
    return (8 * m * (log_t - _LN_TWO_PI_E_FIXED) + 7 * den) / (8 * den)


# mpmath's fixed-point Taylor kernel for ln x on [1/2, 1), bound by the
# first _ln_fixed call.
_log_taylor_cached = None


def _ln_fixed(m: int) -> int:
    """ln m as an integer ln(m) * 2^_FIXED_BITS, within one unit, for an integer m >= 1.

    With r the bit length of m, x = m / 2^r lies in [1/2, 1), the domain of
    mpmath's fixed-point Taylor kernel log_taylor_cached, and ln m = ln x +
    r ln 2 is summed at _LOG_BITS and rounded to nearest at _FIXED_BITS.  A
    numerator wider than _LOG_BITS loses its low bits to the right shift:
    zero bits for the numerator of a double, below 2^-_LOG_BITS of x for
    any other m.  The worst error against 60-digit mpmath is 0.502 units,
    at bit lengths 1 to 1100.
    """
    global _log_taylor_cached
    if _log_taylor_cached is None:
        from mpmath.libmp.libelefun import log_taylor_cached as _log_taylor_cached
    r = m.bit_length()
    x = m << _LOG_BITS - r if r <= _LOG_BITS else m >> r - _LOG_BITS
    ln_m = _log_taylor_cached(x, _LOG_BITS) + r * _LN2_LOG_BITS
    return ln_m + _LOG_HALF_UNIT >> _LOG_BITS - _FIXED_BITS


_ln_prime_fixed = lru_cache(maxsize=4096)(_ln_fixed)


def combination_over_8pi(c_pi: int, c_const: int, c_lnpi: int,
                         prime_terms: tuple[tuple[int, int], ...]) -> float:
    """(c_pi pi + c_const + c_lnpi ln pi + sum c_p ln p) / (8 pi), rounded once to binary64.

    The sum is exact on the 136-bit fixed-point pi and logarithms that
    smooth_main uses; one correctly rounded integer true division by 8 pi
    ends it.  prime_terms holds the pairs (p, c_p).
    """
    total = c_pi * _PI_FIXED + (c_const << _FIXED_BITS) + c_lnpi * _LN_PI_FIXED
    for p, c in prime_terms:
        total += c * _ln_prime_fixed(p)
    return total / _EIGHT_PI_FIXED


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
    acc = _THETA_COEFFS[order - 1] if order else 0.0
    for k in range(order - 2, -1, -1):
        acc = acc * w + _THETA_COEFFS[k]
    return acc / t


def _theta_from_main(t: float, order: int) -> float:
    """pi * (smooth_main(t) - 1) + correction, with one effective rounding."""
    p, e = _two_prod(math.pi, smooth_main(t) - 1.0)
    return p + (e + theta_tail(t, order))


def theta_exact(t: float) -> float:
    """Phase theta(t) = Im log-gamma(1/4 + it/2) - (t/2) log(pi), exact branch.

    Odd in t by construction.  From |t| = T_NO_ZERO = 14 up this is
    theta_series(|t|, 8), whose first dropped term is 3e-21 at 14.  On
    [10, 14) that series is up to 1.1e-14 (25 ulp) off, so below 14
    mpmath's siegeltheta runs at EXTENDED_DPS digits.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if abs(t) > T_THETA_MAX:
        raise ValueError(f"|t| beyond supported window {T_THETA_MAX:g}")
    if t == 0.0:
        return 0.0
    sign, mag = math.copysign(1.0, t), abs(t)
    if mag >= T_NO_ZERO:
        return sign * _theta_from_main(mag, MAX_SERIES_ORDER)
    import mpmath as mp

    with mp.workdps(EXTENDED_DPS):
        return sign * float(mp.siegeltheta(mag))


def theta_series(t: float, order: int = 4) -> float:
    """Asymptotic form of theta(t): main term plus `order` correction terms.

    Valid for 10 <= t <= T_THETA_MAX; the order-4 truncation already sits
    below 1e-12 of theta_exact for t >= 50.
    """
    t, order = float(t), operator.index(order)
    if not 10.0 <= t <= T_THETA_MAX:
        raise ValueError(f"asymptotic series requires 10 <= t <= {T_THETA_MAX:g}")
    if not 0 <= order <= MAX_SERIES_ORDER:
        raise ValueError(f"order must be in [0, {MAX_SERIES_ORDER}]")
    return _theta_from_main(t, order)


# 1/e = _INV_E_HI + _INV_E_LO, with _INV_E_HI = 1/e rounded to binary64: the
# branch point -1/e rounds to -_INV_E_HI.
_INV_E_HI, _INV_E_LO = 0.36787944117144233, -1.2428753672788363e-17


def lambert_w0(x: float) -> float:
    """Principal branch W0 of the Lambert W function on [-1/e, inf).

    Three steps of Fritsch, Shafer and Crowley's iteration (CACM 16, 1973)
    on ln w + w = ln x, which cannot overflow anywhere on the domain.  The
    start is the square-root expansion near the branch point at -1/e, where
    e x + 1 is formed from the two-part 1/e, and Winitzki's approximation
    everywhere else.  Against 30-digit mpmath.lambertw the error is at most
    0.21 of 4 ulp(W) + 4 ulp(x) |W'(x)| at 12,000 points spread from the
    branch point to the largest double.  Raises ValueError for x below the
    branch point, NaN and +inf.
    """
    x = float(x)
    branch = -_INV_E_HI
    if not x >= branch:  # NaN too
        if x > branch - 1e-15:
            x = branch
        else:
            raise ValueError(f"lambert_w0 domain is [-1/e, inf), got {x}")
    if x == 0.0:
        return 0.0
    if x == branch:
        return -1.0
    if x == math.inf:
        raise ValueError(f"lambert_w0 domain is [-1/e, inf), got {x}")

    if x < branch + 0.25:
        # Branch-point expansion: W = -1 + p - p^2/3 + ... with p = sqrt(2(e x + 1)),
        # e x + 1 = e (x + 1/e), where x + _INV_E_HI is exact near the branch point.
        p = math.sqrt(2.0 * math.e * ((x + _INV_E_HI) + _INV_E_LO))
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * 11.0 / 72.0))
    else:
        lp = math.log1p(x)
        w = lp * (1.0 - math.log1p(lp) / (2.0 + lp))
    for _ in range(3):
        z = math.log(x / w) - w
        q = 2.0 * (1.0 + w) * (1.0 + w + 2.0 * z / 3.0)
        w += w * (z / (1.0 + w) * (q - z) / (q - 2.0 * z))

    residual = math.log(x / w) - w
    if not abs(residual) <= 1e-12:
        raise ArithmeticError(f"lambert_w0 residual {residual:g} too large for x = {x}")
    return w


def theta_vec(ts) -> np.ndarray:
    """theta on an array of t in [T_NO_ZERO, T_THETA_MAX], for Z and the zero count.

    The asymptotic series pi (x ln x - x - 1/8) + theta_tail(t, 8) with
    x = t/(2 pi), with its main term rounded in binary64: its worst error
    against 40-digit mpmath is 1.4e-14 (9 ulp) at 400 stratified heights
    in [14, 50], where theta_exact is within 2.3 ulp.  Raises ValueError
    for t below T_NO_ZERO, above T_THETA_MAX or NaN.
    """
    ts = np.asarray(ts, dtype=np.float64)
    # Elementwise, so an empty array passes.
    if not ((ts >= T_NO_ZERO) & (ts <= T_THETA_MAX)).all():
        raise ValueError(f"theta_vec needs {T_NO_ZERO:g} <= t <= {T_THETA_MAX:g}")
    x = ts / TWO_PI
    return math.pi * (x * np.log(x) - x - 0.125) + theta_tail(ts, MAX_SERIES_ORDER)


def _em_truncation(ts: np.ndarray) -> np.ndarray:
    """Euler-Maclaurin truncation N = ceil(t/4) + 20 per ordinate, as floats."""
    return np.ceil(ts / 4.0) + 20.0


def _em_width(n_top: float) -> int:
    """Euler-Maclaurin main-sum columns, k < n_top in whole _EM_BLOCKs."""
    return -(-(int(n_top) - 1) // _EM_BLOCK) * _EM_BLOCK


# Bytes per ordinate of a kernel's largest scratch view.  Euler-Maclaurin
# (t < T_RS): a term row, or the two complex rows of Bernoulli tail terms.
# Riemann-Siegel: the three phase rows of at most len(_RS_MU_HI) columns,
# the correction matrix, or the two complex rows of Chebyshev powers.
_EM_ROW_BYTES = 8 * max(_em_width(_em_truncation(T_RS)), 2 * 2 * len(_EM_BERNOULLI))
_RS_ROW_BYTES = 8 * max(3 * len(_RS_MU_HI), _RS_CHEBYSHEV.size, 2 * 2 * _RS_CHEBYSHEV.shape[1])


def _fresh_array(slot: int, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """_workspace's take where nothing is reused: a new array, whatever the slot."""
    return np.empty(shape, dtype)


def _workspace(em_rows: int, rs_rows: int) -> Callable[..., np.ndarray]:
    """take(slot, shape, dtype) for the kernel chunks of one _critical_line call.

    A kernel takes its large temporaries as views on three slots, 0 to 2,
    and writes them with out=; a view is valid until its slot is taken
    again.  Each slot holds the largest view of a chunk of the em_rows
    Euler-Maclaurin or the rs_rows Riemann-Siegel ordinates, and every chunk
    reuses it: fresh arrays, freed at the top of the heap after each chunk,
    would go back to the system and be faulted in again by the next one.
    Pages no view touches are never faulted in.  A view is C-contiguous from
    the start of its slot, laid out as a fresh array of its shape, so the
    kernels' values do not change.  Where each kernel's ordinates fit in one
    chunk nothing is reused, and take returns fresh arrays.  A view larger
    than its slot raises ValueError.
    """
    if em_rows <= _CHUNK and rs_rows <= _RS_CHUNK:
        return _fresh_array
    capacity = max(min(em_rows, _CHUNK) * _EM_ROW_BYTES, min(rs_rows, _RS_CHUNK) * _RS_ROW_BYTES)
    memory = np.empty(3 * capacity, np.uint8)

    def take(slot: int, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        if math.prod(shape) * np.dtype(dtype).itemsize > capacity:
            raise ValueError(f"a {shape} {np.dtype(dtype)} view exceeds its {capacity}-byte slot")
        return np.ndarray(shape, dtype, memory, slot * capacity)

    return take


def _zeta_em_chunk(ts: np.ndarray, ws: Callable[..., np.ndarray]) -> np.ndarray:
    """Euler-Maclaurin zeta(1/2+it) for an array of ordinates t >= 0.

    Each ordinate t gets its own truncation N = ceil(t/4) + 20: the terms
    k < N are summed directly, and the tail carries m = 30 Bernoulli
    corrections B_2..B_60.  Backlund's bound on the remainder (Rubinstein,
    Computational methods and experiments in analytic number theory, 2005)
    is then at most 6.9e-13 at t = 1e4, 1.4% of the documented error bound.
    The main sum is one masked term matrix whose 64-column blocks are summed
    pairwise and combined in sequence, and the tail is combined in sequence,
    so the value at t does not depend on the other ordinates in the batch:
    the blocks past a row's truncation add exact zeros.  The term matrices
    are written into ws.
    """
    m = len(ts)
    n_big = _em_truncation(ts)
    width = _em_width(n_big.max())
    ks = np.arange(1.0, width + 1.0)
    w, terms, ph = ws(0, (m, width)), ws(1, (m, width)), ws(2, (m, width))
    # The weights k^(-1/2) for k < N, exact zeros beyond.
    np.multiply(np.less(ks, n_big[:, None], out=w), 1.0 / np.sqrt(ks), out=w)
    np.multiply(ts[:, None], np.log(ks), out=ph)

    def main_sum(terms):
        return terms.reshape(m, -1, _EM_BLOCK).sum(axis=2).cumsum(axis=1)[:, -1]

    s = 0.5 + 1j * ts
    n_pow = n_big ** -s
    total = (main_sum(np.multiply(w, np.cos(ph, out=terms), out=terms))
             - 1j * main_sum(np.multiply(w, np.sin(ph, out=ph), out=ph))
             + n_big * n_pow / (s - 1.0) + 0.5 * n_pow)
    # Tail sum_j B_2j/(2j)! * s(s+1)...(s+2j-2) * N^(1-s-2j) as a running
    # product of term ratios (s+2j-1)(s+2j)/N^2, one row per j.
    j = np.arange(1, len(_EM_BERNOULLI))[:, None]
    tail, acc = ws(0, (2, len(_EM_BERNOULLI), m), np.complex128)
    tail[0] = s * n_pow / n_big
    ratios = np.add(s, 2 * j - 1, out=tail[1:])
    ratios *= np.add(s, 2 * j, out=acc[1:])
    ratios /= n_big * n_big
    tail.cumprod(axis=0, out=acc)
    return total + np.multiply(_EM_BERNOULLI[:, None], acc, out=tail).cumsum(axis=0, out=acc)[-1]


def _rs_z_theta(ts: np.ndarray, rows: int,
                ws: Callable[..., np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Riemann-Siegel Z(t) and theta(t) mod 2 pi for ascending ordinates T_RS <= t < T_Z_MAX.

    Z = 2 sum_{n<=N} n^(-1/2) cos(theta - t ln n) + (-1)^(N-1) a^(-1/2)
    sum_{k<rows} C_k(p) a^(-k), with a = sqrt(t/(2 pi)), N = floor(a) and
    p = a - N (Gabcke 1979).  rows is 14, or _RS_SHORT_ROWS for a chunk from
    _T_RS_SHORT up, and the corrections are added in 2 blocks of rows / 2.
    The phases are reduced in turns without losing the digits that binary64
    t ln n and theta drop: t mu_n mod 1, mu_n = (ln n - 1/2)/(2 pi), is an
    exact product of 26-bit halves plus two small products, theta/(2 pi) =
    t mu_N + t ln(a/N)/(2 pi) - 1/16 + tail/(2 pi), and t ln n/(2 pi) =
    t mu_n - t mu_1.  The last ordinate has the largest N, which sets the
    width of the main sum.  Each sum runs over fewer than 8 terms per axis
    and the columns past N add exact zeros, so a value does not depend on
    the rest of the batch.  The returned theta lies in (-2 pi, 2 pi).  The
    phase and correction matrices are written into ws.
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
    width = _RS_BLOCK * -(-int(n[-1]) // _RS_BLOCK)
    mu_hi = _RS_MU_HI[:width, None]
    turns, a, b = ws(0, (3, width, m))
    np.modf(np.multiply(mu_hi, t_hi, out=turns), out=(turns, a))
    np.add(np.multiply(mu_hi, ts - t_hi, out=a), np.multiply(_RS_MU_LO[:width, None], ts, out=b),
           out=a)
    turns += a
    g = (ts * log_a_n + theta_tail(ts, 2)) / TWO_PI - 0.0625
    n_idx = n.astype(np.intp)
    theta = turns[n_idx - 1, np.arange(m)] + (g - np.rint(g))
    phase = np.subtract(theta + turns[0], turns, out=turns)
    np.subtract(phase, np.rint(phase, out=a), out=phase)
    terms = np.cos(np.multiply(TWO_PI, phase, out=phase), out=phase)
    # mode="clip" takes the columns straight into b; every N is in range.
    terms *= _RS_TRUNCATED_WEIGHTS[:width].take(n_idx, axis=1, out=b, mode="clip")
    main = np.add.reduce(np.add.reduce(terms.reshape(-1, _RS_BLOCK, m), axis=1), axis=0)

    # C_k / x^(k % 2) = sum_j b_kj T_j(y), y = 2x^2 - 1, x = 2p - 1, with
    # T_j(y) = Re w^j for w = e^(i arccos y) = (x + i sqrt(1 - x^2))^2
    # (abs: a rounded N may leave p a hair outside [0, 1]).
    x = 2.0 * p - 1.0
    e_psi = x + 2j * np.sqrt(np.abs(p * (1.0 - p)))
    powers, products = ws(1, (2, _RS_CHEBYSHEV.shape[1], m), np.complex128)
    powers[0] = 1.0
    powers[1:] = e_psi * e_psi
    table, exponents = _RS_BANDS[rows]
    corrections = np.multiply(powers.cumprod(axis=0, out=products).real, table,
                              out=ws(0, table.shape[:2] + (m,)))
    corrections = np.add.reduce(np.add.reduce(corrections.reshape(rows, 2, -1, m), axis=2), axis=1)
    # a^-(k + 1/2), times x for odd k: C_k carries that factor.
    scale = np.exp(exponents * np.log(n + p))
    scale[1::2] *= x
    remainder = (corrections * scale).reshape(2, -1, m)
    remainder = np.add.reduce(np.add.reduce(remainder, axis=1), axis=0)
    return 2.0 * main + _RS_SIGNS[n_idx] * remainder, TWO_PI * theta


def _critical_line(ts: np.ndarray, from_em, from_rs, dtype) -> np.ndarray:
    """Zeta-kernel values for a one-dimensional array of ordinates, in input order.

    The ordinates are stable-sorted; those below T_RS go to the
    Euler-Maclaurin kernel in chunks of _CHUNK and give from_em(chunk,
    zeta), the rest go to the Riemann-Siegel kernel in chunks of _RS_CHUNK,
    split again at _T_RS_SHORT, and give from_rs(z, theta).  Both kernels evaluate
    each ordinate on its own, so no value depends on the rest of the batch,
    and every chunk reuses one _workspace.  Raises ValueError unless every t
    satisfies 0 <= t < T_Z_MAX (NaN does not).
    """
    out = np.empty(len(ts), dtype)
    if not len(ts):
        return out
    order = ts.argsort(kind="stable")
    sorted_ts = ts[order]
    # NaN sorts last.
    if not (sorted_ts[0] >= 0.0 and sorted_ts[-1] < T_Z_MAX):
        raise ValueError(f"t outside [0, 2 pi 43^2 = {T_Z_MAX!r})")
    split, short = sorted_ts.searchsorted((T_RS, _T_RS_SHORT)).tolist()
    ws = _workspace(split, len(ts) - split)
    for pos in range(0, split, _CHUNK):
        chunk = sorted_ts[pos:min(pos + _CHUNK, split)]
        out[order[pos:pos + len(chunk)]] = from_em(chunk, _zeta_em_chunk(chunk, ws))
    for lo, hi, rows in ((split, short, len(_RS_CHEBYSHEV)), (short, len(ts), _RS_SHORT_ROWS)):
        for pos in range(lo, hi, _RS_CHUNK):
            chunk = sorted_ts[pos:min(pos + _RS_CHUNK, hi)]
            out[order[pos:pos + len(chunk)]] = from_rs(*_rs_z_theta(chunk, rows, ws))
    return out


def _z_from_zeta(ts: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Z for ascending ordinates: -|zeta| below T_NO_ZERO, Re(e^(i theta) zeta) from there."""
    k = bisect_left(ts, T_NO_ZERO)
    th = theta_vec(ts[k:])
    high = zeta[k:]
    return np.concatenate([-np.abs(zeta[:k]), np.cos(th) * high.real - np.sin(th) * high.imag])


def _zeta_from_z(z: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """zeta = e^(-i theta) Z, with the real and imaginary parts each rounded once."""
    zeta = np.empty(len(z), np.complex128)
    zeta.real = z * np.cos(theta)
    zeta.imag = -z * np.sin(theta)
    return zeta


def _zeta_vec(ts: np.ndarray) -> np.ndarray:
    """zeta(1/2 + it) for a one-dimensional array of ordinates 0 <= t < T_Z_MAX."""
    return _critical_line(ts, lambda ts, zeta: zeta, _zeta_from_z, np.complex128)


def zeta_critical_line(t):
    """zeta(1/2 + it) for 0 <= t < T_Z_MAX, absolute error below 5e-15 * max(t, 100).

    Takes a float (returns a complex) or an array (returns a complex array
    of its shape).  From T_RS up this is e^(-i theta) Z with Z and theta
    from the Riemann-Siegel evaluator.
    """
    ts = np.asarray(t, dtype=np.float64)
    zeta = _zeta_vec(ts.ravel())
    return complex(zeta[0]) if ts.ndim == 0 else zeta.reshape(ts.shape)


def hardy_z(t):
    """Hardy Z(t) = e^{i theta(t)} zeta(1/2 + it), real on the critical line.

    Takes a float (returns a float) or an array (returns an array of its
    shape), for 0 <= t < T_Z_MAX, with absolute error below
    5e-15 * max(t, 100) as for zeta_critical_line.  Each value depends on
    its own t alone.  Raises ValueError for t outside the domain, NaN
    included.
    """
    ts = np.asarray(t, dtype=np.float64)
    zs = _critical_line(ts.ravel(), _z_from_zeta, lambda z, theta: z, np.float64)
    return float(zs[0]) if ts.ndim == 0 else zs.reshape(ts.shape)


def wrap_half_turns(u: float) -> float:
    """Wrap to (-1, 1], units of half turns (value of angle/pi).

    Raises ValueError for NaN and infinite u.
    """
    if not math.isfinite(u):
        raise ValueError("cannot wrap a non-finite angle")
    w = math.remainder(u, 2.0)
    if w <= -1.0:
        w += 2.0
    return w


def arg_zeta_principal(t):
    """(1/pi) Arg zeta(1/2 + it) with the principal branch, in (-1, 1].

    Takes a float (returns a float) or an array (returns an array of its
    shape), for 0 <= t < T_Z_MAX.  Raises AtZeroError naming the first height
    where |zeta| < 1e-12.
    """
    ts = np.asarray(t, dtype=np.float64)
    flat = ts.ravel()
    zeta = _zeta_vec(flat).tolist()
    at_zero = [k for k, z in enumerate(zeta) if abs(z) < 1e-12]
    if at_zero:
        raise AtZeroError(f"zeta vanishes at t = {float(flat[at_zero[0]])} to working precision")
    # libm's atan2 is within 0.52 ulp of the true angle at the integer
    # heights 1..1e4, where numpy's vectorized arctan2 reaches 0.73 ulp.
    phase = [math.atan2(z.imag, z.real) / math.pi for z in zeta]
    return phase[0] if ts.ndim == 0 else np.array(phase).reshape(ts.shape)


def arg_gamma_quarter(t: float) -> float:
    """(1/pi) Arg gamma(1/4 + it/2) with the principal branch, in (-1, 1].

    Im log gamma(1/4 + it/2) = theta(t) + (t/2) ln pi, so this is
    theta_exact's phase plus a linear term, wrapped to the principal range;
    it takes theta_exact's domain |t| <= T_THETA_MAX and is odd in t.
    """
    return wrap_half_turns(theta_exact(t) / math.pi + t * LN_PI / TWO_PI)
