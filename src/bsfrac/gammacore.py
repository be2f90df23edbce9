"""Log-gamma arithmetic with sign tracking, gamma ratios, and Pochhammer
symbols.  Every series term in the library routes through these.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._backend import kernels
from .errors import DomainError, PoleError

POLE_TOL = kernels.POLE_TOL
_MAX_EXACT_INT = 171  # gamma(172) overflows a double
_HALF_LN_PI = 0.5723649429247001  # log(pi)/2
_U = 2.0 ** -53  # unit roundoff: a correctly rounded operation errs by at most this
_TINY = 2.0 ** -1022  # smallest normal double
# error of one log-gamma, in units of 2u * max(1, |log Gamma|): both backends'
# lgamma_sign and math.gamma measured at most 3.6 against mpmath on (6e-6, 665)
_LGAMMA_ULPS = 8.0


def is_pole(x: float) -> bool:
    """True when x is within POLE_TOL of a nonpositive integer; False at
    NaN and at +-inf.  The kernel twins' private Wright predicate, written
    once more here: with r = round(x), r <= 0 is the same as x <= POLE_TOL."""
    return -math.inf < x <= POLE_TOL and abs(x - round(x)) <= POLE_TOL


class SignedLogGamma(NamedTuple):
    """log|Gamma(x)| together with the sign of Gamma(x)."""

    log_abs: float
    sign: int

    def value(self) -> float:
        """Reconstruct Gamma(x); may raise OverflowError."""
        return self.sign * math.exp(self.log_abs)


def _finite(x: float) -> float:
    """x, or DomainError for a NaN or infinite gamma argument (the twins'
    ``lgamma_sign`` disagree there)."""
    if not math.isfinite(x):
        raise DomainError(f"gamma argument must be finite, got {x!r}")
    return x


def ln_gamma_signed(x: float) -> SignedLogGamma:
    """Signed log-gamma of a finite real argument.

    Raises PoleError when x is within 1e-12 of a nonpositive integer, and
    DomainError at NaN and +-inf.  Reconstruction ``sign * exp(log_abs)``
    is accurate to better than 1e-13 relative for |x| <= 170.
    """
    if is_pole(x):
        raise PoleError(f"gamma pole at x={x!r}")
    log_abs, sign = kernels.lgamma_sign(_finite(x))
    return SignedLogGamma(log_abs, sign)


def gamma_ratio(numerators, denominators) -> float:
    """Product of numerator gammas over denominator gammas.

    Computed in log space with accumulated sign.  Numerator poles raise
    PoleError; a denominator pole forces the ratio to exactly 0
    (reciprocal-gamma convention).  All-integer arguments short-circuit
    to exact factorial arithmetic, so degenerate operator cases come out
    exact.  Raises DomainError when an argument is NaN or infinite, and
    OverflowError when the result is not representable.
    """
    dens, den_pole, den_exact = _scan(denominators)
    nums, num_pole, num_exact = _scan(numerators)
    if den_pole is not None:
        return 0.0
    if num_pole is not None:
        raise PoleError(f"gamma pole in numerator at {num_pole!r}")

    if num_exact and den_exact:
        from fractions import Fraction  # only here: a cold CLI call never needs it

        num = 1
        den = 1
        for v in nums:
            num *= math.factorial(round(v) - 1)
        for d in dens:
            den *= math.factorial(round(d) - 1)
        return float(Fraction(num, den))

    acc = 0.0
    sign = 1
    for v in nums:
        la, s = kernels.lgamma_sign(v)
        acc += la
        sign *= s
    for d in dens:
        la, s = kernels.lgamma_sign(d)
        acc -= la
        sign *= s
    if not acc < math.inf:  # a log-gamma of inf: inf, or NaN at inf - inf
        raise OverflowError("gamma ratio is not finite in double precision")
    return sign * math.exp(acc)  # exp raises OverflowError out of range


def _scan(args) -> tuple:
    """(args as a list, the first within POLE_TOL of a gamma pole or None,
    whether every one is within POLE_TOL of an integer in [1, 171]): one
    pass that tests each argument once, for ``gamma_ratio``.  DomainError
    at the first NaN or infinite argument.  Past ``is_pole``, an argument
    within POLE_TOL of an integer is within it of a positive one."""
    out, pole, exact = [], None, True
    for v in args:
        if not math.isfinite(v):
            _finite(v)  # raises its DomainError
        if is_pole(v):
            exact = False
            if pole is None:
                pole = v
        else:
            r = round(v)
            if abs(v - r) > POLE_TOL or r > _MAX_EXACT_INT:
                exact = False
        out.append(v)
    return out, pole, exact


def pochhammer(a: float, n: int) -> float:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1); (a)_0 = 1.

    Exactly 0.0 when a factor a + k is zero, however large the others.
    Raises DomainError for a non-finite a and for an n that is not an int
    >= 0 (a bool is refused), and OverflowError at the first partial
    product beyond the double range."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise DomainError(f"pochhammer order must be an int >= 0, got {n!r}")
    if not math.isfinite(a):
        raise DomainError(f"pochhammer argument must be finite, got {a!r}")
    if a <= 0.0 and a == math.floor(a) and a + n > 0.0:  # the factor at k = -a is zero
        return 0.0
    acc = 1.0
    for k in range(n):
        acc *= a + k
        if math.isinf(acc):
            raise OverflowError(f"pochhammer({a!r}, {n}) exceeds double range")
    return acc
