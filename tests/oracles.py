"""Independent reference implementations used to freeze expected values.

Everything here goes through mpmath at elevated precision (or plain
closed forms); none of it shares code with the library paths under test.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp

mp.mp.dps = 40


def mp_kernel(nu, u, terms=250):
    """Bessel-Struve kernel by direct high-precision summation."""
    nu = mp.mpf(nu)
    u = mp.mpf(u)
    s = mp.mpf(0)
    for n in range(terms):
        s += (u ** n * mp.gamma(nu + 1) * mp.gamma(mp.mpf(n + 1) / 2)
              / (mp.sqrt(mp.pi) * mp.factorial(n) * mp.gamma(mp.mpf(n) / 2 + nu + 1)))
    return s


@functools.cache
def mp_kernel_left(nu, x):
    """S_nu(-x) for x > 0 as Gamma(nu+1) (2/x)^nu (I_nu(x) - L_nu(x)).

    I and L each grow like e^x, so up to x = 60 their difference is taken
    at x/ln(10) + 30 digits; beyond, from the large-x expansion of
    I_-nu - L_nu (DLMF 11.6.2) and I_nu = I_-nu - (2/pi) sin(nu pi) K_nu
    (DLMF 10.27.2), whose smallest term is near e^-x.
    """
    with mp.workdps(int(x / 2.302585) + 30 if x <= 60.0 else 40):
        nu, x = mp.mpf(nu), mp.mpf(x)
        if x <= 60:
            diff = mp.besseli(nu, x) - mp.struvel(nu, x)
        else:
            half, diff, k = x / 2, mp.mpf(0), 0
            while True:
                t = ((-1) ** k * mp.gamma(k + mp.mpf(0.5)) * half ** (nu - 2 * k - 1)
                     * mp.rgamma(nu + mp.mpf(0.5) - k) / mp.pi)
                if k and abs(t) < mp.mpf(10) ** -25 * abs(diff):
                    break
                diff += t
                k += 1
            diff -= 2 / mp.pi * mp.sin(nu * mp.pi) * mp.besselk(nu, x)
        return +(mp.gamma(nu + 1) * (2 / x) ** nu * diff)


def mp_bessel(v, z, modified):
    return mp.besseli(v, z) if modified else mp.besselj(v, z)


def mp_struve(v, z, modified):
    return mp.struvel(v, z) if modified else mp.struveh(v, z)


def mp_2f1(a, b, c, z):
    return mp.hyp2f1(a, b, c, mp.mpf(z))


def mp_f3(a, ap, b, bp, g, x, y, terms=120):
    """Appell F3 by truncated double series; needs |x|, |y| < 1.

    The terms (a)_m (b)_m (a')_n (b')_n x^m y^n / ((g)_{m+n} m! n!) are
    built by running products in m and in n."""
    a, ap, b, bp, g, x, y = (mp.mpf(v) for v in (a, ap, b, bp, g, x, y))
    total = mp.mpf(0)
    pm = mp.mpf(1)  # (a)_m (b)_m x^m / ((g)_m m!)
    for m in range(terms):
        if pm == 0:
            break
        t = pm
        for n in range(terms):
            total += t
            t *= (ap + n) * (bp + n) * y / ((g + m + n) * (n + 1))
        pm *= (a + m) * (b + m) * x / ((g + m) * (m + 1))
    return total


def mp_wright(upper, lower, z, terms=200):
    s = mp.mpf(0)
    for k in range(terms):
        t = mp.mpf(z) ** k / mp.factorial(k)
        for (a, A) in upper:
            t *= mp.gamma(mp.mpf(a) + mp.mpf(A) * k)
        for (b, B) in lower:
            t /= mp.gamma(mp.mpf(b) + mp.mpf(B) * k)
        s += t
    return s


def mp_gamma(x):
    return mp.gamma(mp.mpf(x))


def mp_density(gamma_shape, delta, beta_shape, a, pathway_alpha, x):
    """The pathway density of the double parameters, taken as exact."""
    g, d, b, a, al = map(mp.mpf, (gamma_shape, delta, beta_shape, a, pathway_alpha))
    ax = abs(mp.mpf(x))
    if al == 1:
        k = a * b
        return d / 2 * k ** (g / d) / mp.gamma(g / d) * ax ** (g - 1) * mp.exp(-k * ax ** d)
    k, be = a * abs(1 - al), b / abs(1 - al)
    if al < 1:
        base = 1 - k * ax ** d
        if base <= 0:
            return mp.mpf(0)
        ratio = mp.gamma(g / d + be + 1) / (mp.gamma(g / d) * mp.gamma(be + 1))
        return d / 2 * k ** (g / d) * ratio * ax ** (g - 1) * base ** be
    ratio = mp.gamma(be) / (mp.gamma(g / d) * mp.gamma(be - g / d))
    return d / 2 * k ** (g / d) * ratio * ax ** (g - 1) * (1 + k * ax ** d) ** -be


def rel_err(got, want) -> float:
    """Relative deviation of a float against an mpmath reference."""
    w = mp.mpf(want) if not isinstance(want, mp.mpf) else want
    if w == 0:
        return abs(float(got))
    return abs(float((mp.mpf(got) - w) / w))


# Frozen reference values (computed with the mp_* oracles above).
I1_AT_0_01 = 0.005000062500260417      # mp_bessel(1, 0.01, modified=True)
L1_AT_0_5 = 0.05394218262352266        # mp_struve(1, 0.5, modified=True)
LM_HALF_AT_1 = 0.9376748882454876      # mp_struve(-0.5, 1, modified=True)
S1_AT_1 = 1.5838469700965873           # mp_kernel(1, 1)
E_MINUS_2 = 0.7182818284590452         # exp(1) - 2


# `verify all` at the default config: (status, n_points) per check, the
# same on both backends
VERIFY_ALL = {
    "L1": ("PASS", 216),
    "L2": ("DOCUMENTED_MISMATCH", 162),
    "L3": ("PASS", 36),
    "T1": ("PASS", 200),
    "T2": ("DOCUMENTED_MISMATCH", 200),
    "T3": ("PASS", 5),
    "T4": ("DOCUMENTED_MISMATCH", 5),
    "T5": ("DOCUMENTED_MISMATCH", 5),
    "T6": ("DOCUMENTED_MISMATCH", 5),
    "T7": ("PASS", 128),
    "T8": ("DOCUMENTED_MISMATCH", 72),
    "e1": ("PASS", 41),
    "e2": ("PASS", 41),
    "r1": ("PASS", 40),
    "r2": ("DOCUMENTED_MISMATCH", 40),
    "W-delta": ("PASS", 26),
    "density-norm": ("PASS", 39),
}


def kernel_series_coeff(nu: float, n: int) -> float:
    """Double-precision coefficient of u^n in the kernel series."""
    return float(mp.gamma(nu + 1) * mp.gamma(mp.mpf(n + 1) / 2)
                 / (mp.sqrt(mp.pi) * mp.factorial(n) * mp.gamma(mp.mpf(n) / 2 + nu + 1)))


def termwise_image(power_image, coeffs, scales):
    """Sum of coefficient-weighted power images: the termwise-lemma oracle.

    ``power_image(n)`` returns the image value of the n-th shifted power
    at the evaluation point; ``coeffs[n]`` and ``scales[n]`` carry the
    series coefficient and the lambda power.
    """
    total = 0.0
    for n, c in enumerate(coeffs):
        total += c * scales[n] * power_image(n)
    return total


def linspace(a: float, b: float, n: int):
    if n == 1:
        return [a]
    step = (b - a) / (n - 1)
    return [a + i * step for i in range(n)]
