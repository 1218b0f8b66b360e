"""Derive the frozen Riemann-Siegel tables of zetaphase.special with mpmath.

    python scripts/derive_rs_coefficients.py

prints the tables as Python source, in about 2 s.  The package does not
import this script; tests/test_special.py re-derives each table and checks
it against the frozen copy.

Correction terms.  Above the Riemann-Siegel cutoff,

    Z(t) = 2 sum_{n<=N} n^(-1/2) cos(theta(t) - t ln n)
           + (-1)^(N-1) a^(-1/2) sum_{k<=K} C_k(p) a^(-k) + R_K(t),

with a = sqrt(t/(2 pi)), N = floor(a) and p = a - N (Gabcke 1979).  The
C_k follow Arias de Reyna (Math. Comp. 80, 2011; mpmath's
functions/rszeta.py): the remainder of zeta(1/2 + it) is

    (-1)^(N-1) a^(-1/2) e^(-i theta_0) sum_n term_n(z) a^(-n),
    term_n(z) = sum_l d[n, l] F^(3n - 2l)(z) / (pi^(2n - l) (2i)^l),

where z = 1 - 2p, theta_0 = (t/2) ln(t/(2 pi)) - t/2 - pi/8, F(z) =
sum c[2m] z^(2m) has the Taylor coefficients that rszeta's _coef computes,
and d[n, l] is rszeta's recursion at sigma = 1/2, where it is rational.
Folding the phase e^(i (theta - theta_0)) = e^(i (1/(48t) + 7/(5760t^3)
+ ...)), expanded in powers of 1/a, into the sum and taking twice the real
part gives the real C_k; C_0 is cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p).

C_k has the parity of k in x = 2p - 1, so C_k / x^(k % 2) is a function of
y = 2x^2 - 1 = T_2(x), and row k holds its Chebyshev coefficients in y,
j < RS_TERMS.  For even k these are the coefficients of T_{2j}(x) in C_k.

Phase table.  mu_n = (ln n - 1/2) / (2 pi) for n = 1..RS_WIDTH, split as
mu_n = hi + lo with hi rounded to 26 significant bits, so that the product
of hi with a 26-bit half of t is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
from mpmath.functions import rszeta

RS_ORDER = 13    # corrections C_0 .. C_13
RS_TERMS = 14    # Chebyshev coefficients kept per correction
RS_WIDTH = 42    # main-sum columns: N <= 39 for t <= 1e4, in blocks of 7

DPS = 60
_TAYLOR_J = 60           # F is summed through z^(2 _TAYLOR_J - 1)
_TAYLOR_EPS_BITS = 240   # error target of rszeta's coefficients, 2^-240
# theta - theta_0 = sum_i _THETA_TERMS[i] t^-(2i+1) + O(t^-9): the terms
# (1 - 2^(1-2n)) |B_2n| / (4n (2n - 1)), n = i + 1; t^-9 is a^-18.
_THETA_TERMS = (Fraction(1, 48), Fraction(7, 5760), Fraction(31, 80640), Fraction(127, 430080))


def _taylor_f() -> list:
    """Taylor coefficients c[0..2J) of F, from rszeta's uncached routine."""
    orig = mp.mp.prec
    try:
        _, _, c, _ = rszeta._coef(mp.mp, _TAYLOR_J, mp.mpf(2) ** -_TAYLOR_EPS_BITS)
    finally:
        mp.mp.prec = orig
    return [mp.mpc(c[n]) for n in range(2 * _TAYLOR_J)]


def _d_table(order: int) -> dict:
    """rszeta's d[n, l] at sigma = 1/2 for n <= order, as exact rationals."""
    d = {(0, 0): Fraction(1)}
    for n in range(1, order + 1):
        for l in range(3 * n // 2 + 1):
            m = 3 * n - 2 * l
            if m:
                d[n, l] = (-(m + 1) * d.get((n - 1, l - 2), 0)
                           + Fraction(1, 4 * m) * d.get((n - 1, l), 0))
            else:
                d[n, l] = -sum((-1) ** (l - r) * d[n, r]
                               * Fraction(math.factorial(2 * l - 2 * r), math.factorial(l - r))
                               for r in range(l))
    return d


def _phase_series() -> dict:
    """e^(i (theta - theta_0)) in powers of 1/a, through a^-RS_ORDER.

    theta - theta_0 = 1/(48 t) + 7/(5760 t^3) + 31/(80640 t^5)
    + 127/(430080 t^7) + ..., and 1/t^(2i+1) = a^-(4i+2) / (2 pi)^(2i+1).
    """
    phase = {4 * i + 2: 1j * mp.mpf(c.numerator) / c.denominator / (2 * mp.pi) ** (2 * i + 1)
             for i, c in enumerate(_THETA_TERMS)}
    # exp(phase) = sum_m phase^m / m!, each power cut after a^-RS_ORDER.
    series, power = {0: mp.mpc(1)}, {0: mp.mpc(1)}
    for m in range(1, RS_ORDER // 2 + 1):
        nxt = {}
        for i, ci in power.items():
            for j, cj in phase.items():
                if i + j <= RS_ORDER:
                    nxt[i + j] = nxt.get(i + j, 0) + ci * cj / m
        power = nxt
        for i, ci in power.items():
            series[i] = series.get(i, 0) + ci
    return series


def _monomial_to_chebyshev(coeffs: list) -> list:
    """Chebyshev coefficients of sum_l coeffs[l] x^l."""
    out = [mp.mpf(0)] * len(coeffs)
    for l, c in enumerate(coeffs):
        if c == 0:
            continue
        for i in range(l // 2 + 1):
            w = mp.mpf(math.comb(l, i)) / 2 ** (l - 1)
            out[l - 2 * i] += c * (w / 2 if 2 * i == l else w)
    return out


def correction_coefficients(order: int = RS_ORDER) -> list[list[float]]:
    """Frozen Chebyshev rows of C_0 .. C_order, rounded to doubles."""
    if order > RS_ORDER:
        raise ValueError(f"the phase series is expanded through a^-{RS_ORDER}")
    with mp.workdps(DPS):
        c = _taylor_f()
        deg = len(c)
        d = _d_table(order)
        terms = []
        for n in range(order + 1):
            poly = [mp.mpc(0)] * deg
            for l in range(3 * n // 2 + 1):
                m = 3 * n - 2 * l
                w = mp.mpf(d[n, l].numerator) / d[n, l].denominator
                w /= mp.pi ** (2 * n - l) * (2j) ** l
                for q in range(m, deg):
                    poly[q - m] += w * c[q] * mp.ff(q, m)
            terms.append(poly)
        rows = []
        for k in range(order + 1):
            poly = [mp.mpf(0)] * deg
            for j, e in _phase_series().items():
                if j <= k:
                    for q in range(deg):
                        poly[q] += 2 * mp.re(e * terms[k - j][q])
            # z = 1 - 2p = -x; C_k / x^(k % 2) is a series in x^2 = (1 + y)/2.
            even = [(-1) ** q * poly[q] for q in range(k % 2, deg, 2)]
            in_y = [mp.mpf(0)] * len(even)
            for i, coef in enumerate(even):
                for l in range(i + 1):
                    in_y[l] += coef * math.comb(i, l) / mp.mpf(2) ** i
            cheb = _monomial_to_chebyshev(in_y)
            rows.append([float(cheb[j]) for j in range(RS_TERMS)])
    return rows


def _round_bits(x, bits: int):
    """x rounded to `bits` significant bits (x an mpf)."""
    if x == 0:
        return mp.mpf(0)
    e = int(mp.floor(mp.log(abs(x), 2))) + 1
    return mp.ldexp(mp.nint(mp.ldexp(x, bits - e)), e - bits)


def phase_table(width: int = RS_WIDTH) -> tuple[list[float], list[float]]:
    """(hi, lo) with hi + lo = (ln n - 1/2) / (2 pi) for n = 1..width."""
    hi, lo = [], []
    with mp.workdps(DPS):
        for n in range(1, width + 1):
            mu = (mp.log(n) - mp.mpf(1) / 2) / (2 * mp.pi)
            h = _round_bits(mu, 26)
            hi.append(float(h))
            lo.append(float(mu - h))
    return hi, lo


def two_pi_split() -> tuple[float, float]:
    """(hi, lo) with hi + lo = 2 pi and hi rounded to 40 significant bits."""
    with mp.workdps(DPS):
        h = _round_bits(2 * mp.pi, 40)
        return float(h), float(2 * mp.pi - h)


def _format(values: list[float], indent: str) -> str:
    items = [repr(v) for v in values]
    lines, line = [], indent
    for item in items:
        if len(line) + len(item) + 2 > 88:
            lines.append(line.rstrip())
            line = indent
        line += item + ", "
    lines.append(line.rstrip())
    return "\n".join(lines)


def main() -> None:
    print("_RS_CHEBYSHEV = np.array([")
    for row in correction_coefficients():
        print("    [")
        print(_format(row, " " * 8))
        print("    ],")
    print("])")
    hi, lo = phase_table()
    print("_RS_MU_HI = np.array([")
    print(_format(hi, " " * 4))
    print("])")
    print("_RS_MU_LO = np.array([")
    print(_format(lo, " " * 4))
    print("])")
    print("_RS_TWO_PI_HI, _RS_TWO_PI_LO = %r, %r" % two_pi_split())


if __name__ == "__main__":
    main()
