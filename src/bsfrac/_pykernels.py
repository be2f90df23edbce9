"""Pure-Python numeric kernels.

Twin of the compiled extension ``bsfrac._ckernels``, which is written by
hand in C; the two must stay semantically identical (same branch
structure, same FP operation order) so results agree across backends.
Public modules wrap these kernels with domain checks and typed results;
nothing here raises library exceptions.

Series evaluators return ``(value, abs_error_est, terms_used, flag)``;
``bessel_series`` and ``struve_series`` add the sum of |t| over their
terms (``value`` when modified).  The shared truncation rule: stop once
the last added term t has ``|t| <= 0.5 * tol * |sum|`` and the next is
below ``|t| / 2``, with bound ``2 * |t|`` (a geometric tail).  ``bs_series``
and ``wright_series`` test ``2 * |next| < |t|``, as halving a subnormal t
can round it to 0.  A Wright term that a lower-parameter pole makes 0
restarts the test, since later terms may be large; one whose exp
underflowed to 0 is tested by its log, with bound ulp(0) (and never
against a sum of 0).  S also stops where both its chains' next terms are
0, as each chain term is the previous one times a finite factor.  The
Bessel-Struve kernel at negative argument sums a fixed number of
positive terms, with a running bound on their rounding (``_bs_negative``).

A partial sum that is not finite ends ``bs_series`` (at u > 0),
``bessel_series`` and ``struve_series`` at once, with that sum, bound inf
and flag 0, as the first non-finite term ends ``wright_series``; the
test rides on the convergence test, so a finite sum keeps its bits.  The
leading Bessel and Struve term is inf past the double range, as C's
``exp`` gives, where ``math.exp`` would raise.

What ``bs_series`` and ``hyp2f1_kernel`` derive from their order alone
(nu; a, b, c after the Pfaff transform) they keep in a one-slot module
table; ``wright_series`` takes a spec's table as an optional last
argument.  An entry holds what any call that reads it would compute, so
a call's bits never depend on the calls before it, and threads may
share a table.  The compiled twin keeps only the 2F1 connection
coefficients, in a static one-slot.

A row kernel (``bs_row``, ``bessel_type_row``, ``wright_row``,
``density_row``) takes a sequence ``xs`` and what its caller derived from
the checked x-free arguments (an S, J, I, H or L order's finite rounding
units, a density's constants); it appends each point's ``(value,
abs_error_est, terms_used, converged)`` to the list ``out`` and returns
the index of the first point with no value (``len(xs)`` if none), whose
error the caller raises.  A point is one one-point kernel call; the
compiled twin does the x-free work once a call.  The density row stops
at a non-finite x and where ``density_point`` raises OverflowError, a
power or exp of the value past the double range; C's ``pow`` and ``exp``
give inf there, and the compiled twin stops at the same points.

``format_rows`` writes the CLI's CSV rows; the compiled twin finds most
numbers' digits in exact integer arithmetic, so its bytes are those of
the ``%`` template here.
"""

from __future__ import annotations

import math

POLE_TOL = 1e-12
MAX_PAIRS = 32  # the most upper pairs, and the most lower ones, wright_series takes
_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant
# 2/pi as a double-double: the correctly rounded double and the remainder
_TWO_OVER_PI = (0.6366197723675814, -3.935735335036497e-17)
_HALF_LN_PI = 0.5723649429247001
_U = 2.0 ** -53  # unit roundoff
_TINY = 2.0 ** -1022  # smallest normal double
_ULP0 = 5e-324  # smallest subnormal: a rounding error below _TINY
_LN_ULP0 = math.log(_ULP0)
# below this z, 0.5 * z can round (to zero at the smallest subnormal) and
# (z/2)**2 underflows, so the J/I and H/L series are their leading term
_HALF_ROUNDS = 2.0 ** -1021
_LN2 = math.log(2.0)


def _near_nonpositive_int(x):
    """True when x is within POLE_TOL of a gamma pole; False at NaN and
    at +-inf.  With r = round(x), r <= 0 and |x - r| <= POLE_TOL is the
    same as x <= POLE_TOL and |x - r| <= POLE_TOL."""
    return -math.inf < x <= POLE_TOL and abs(x - round(x)) <= POLE_TOL


def lgamma_sign(x):
    """(log|Gamma(x)|, sign) for real non-pole x.

    Positive arguments go through ``log(gamma(x))`` while gamma(x) is
    representable; negative ones through the reflection formula with the
    recurrence ``Gamma(1-x) = -x * Gamma(-x)`` so the only inexact input
    is the exact dyadic ``-x``.  Keeps the reconstruction error of
    ``sign * exp(log_abs)`` below 1e-13 for |x| <= 170.
    """
    if x > 0.0:
        if 1e-280 < x < 171.6:
            return math.log(math.gamma(x)), 1
        try:
            return math.lgamma(x), 1
        except OverflowError:  # x past about 2.6e305: inf, as the C lgamma gives
            return math.inf, 1
    n = math.floor(x)
    sign = -1 if n % 2 != 0 else 1
    d = abs(x - round(x))
    s = math.sin(math.pi * d)  # |sin(pi*x)|, reduced exactly
    if -x <= 170.5:
        return math.log(math.pi / (s * (-x) * math.gamma(-x))), sign
    return math.log(math.pi) - math.log(s) - math.lgamma(1.0 - x), sign


# --- double-double helpers (Dekker/Knuth error-free transforms) ---

def _quick_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _two_prod(a, b):
    p = a * b
    ta = _SPLIT * a
    ahi = ta - (ta - a)
    alo = a - ahi
    tb = _SPLIT * b
    bhi = tb - (tb - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _dd_mul_d(xh, xl, d):
    p, e = _two_prod(xh, d)
    e += xl * d
    return _quick_two_sum(p, e)


def _dd_div_d(xh, xl, d):
    q1 = xh / d
    p, e = _two_prod(q1, d)
    q2 = ((xh - p) + (xl - e)) / d
    return _quick_two_sum(q1, q2)


def _bs_odd_prefactor(nu):
    """Gamma(nu+1)/(sqrt(pi)*Gamma(nu+3/2)), the odd chain's prefactor.

    Where 2*nu is an integer and |nu| < 90, exact rational (or rational
    times 2/pi) recurrences in double-double, whose high word is returned;
    two log-gammas otherwise.
    """
    tn = 2.0 * nu
    if tn == math.floor(tn) and abs(nu) < 90.0:
        # nu = m - 1/2: c(0) = 1, c(m) = c(m-1) * (2m - 1) / (2m), so that
        # c = binomial(2m, m) / 4**m; nu = m: c(0) = 2/pi, c(m) = c(m-1) *
        # m / (m + 1/2).  Either way m = (2 nu + 1) // 2.
        m2 = int(tn)
        odd = m2 % 2 != 0
        ch, cl = (1.0, 0.0) if odd else _TWO_OVER_PI
        for j in range(1, (m2 + 1) // 2 + 1):
            ch, cl = _dd_mul_d(ch, cl, 2.0 * j - 1.0 if odd else float(j))
            ch, cl = _dd_div_d(ch, cl, 2.0 * j if odd else j + 0.5)
        return ch
    la1, _ = lgamma_sign(nu + 1.0)
    la2, _ = lgamma_sign(nu + 1.5)
    return math.exp(la1 - la2 - _HALF_LN_PI)


# (nu, S table) of the last order, and (a, b, c, connection entry, values)
# of the last 2F1 order, b after the Pfaff transform: the entry is empty or
# (s, p1, p2), and the values map z (direct) or (z, wbar) (connection), both
# after the transform, to the unscaled sum; NaN matches no order
_bs_slot = (math.nan, {})
_hyp2f1_slot = (math.nan, math.nan, math.nan, [], {})


def bs_series(nu, u, tol, cap):
    """Bessel-Struve kernel S_nu(u): at u > 0 the power series of positive
    terms (interleaved even/odd chains), at u < 0, where it alternates with
    huge terms, ``_bs_negative``; the slot's table holds what depends on nu."""
    global _bs_slot
    if u == 0.0:
        return 1.0, 0.0, 1, 1
    slot = _bs_slot
    if slot[0] != nu:
        slot = _bs_slot = (nu, {})
    if u > 0.0:
        return _bs_positive(nu, u, tol, cap, slot[1])
    return _bs_negative(nu, -u, tol, cap, slot[1])


def bs_row(nu, us, out, tol, cap, units):
    """The row of ``series.bessel_struve_kernel``; a point whose bound is inf,
    or at u > 0 reaches the value, is not converged."""
    n0, append, inf = len(out), out.append, math.inf
    for u in us:
        if not -inf < u < inf:
            break
        value, err, terms, ok = bs_series(nu, u, tol, cap)
        if not -inf < value < inf:
            break
        # never report convergence the estimate does not support
        converged = bool(ok) and err <= tol * max(abs(value), _ULP0)
        if u > 0.0:
            err += value * _U * (units + 5.0 * terms)
            converged = converged and err < value  # a bound that reaches the value leaves no digit
        append((value, err, terms, converged and err < inf))
    return len(out) - n0


def _bs_positive(nu, u, tol, cap, table):
    """S_nu(u) for u > 0.  The table keeps the odd chain's prefactor and,
    per step k, each chain factor's numerator and denominator (a fresh
    sum's operations), added as points need them, each at its own index."""
    # racing threads may each make an entry: the first stored is kept
    ch, rows = (table.get("positive")
                or table.setdefault("positive", (_bs_odd_prefactor(nu), [])))
    uu = u * u
    half_tol = 0.5 * tol
    e = 1.0
    o = u * ch
    s = e + o
    prev = o
    have = len(rows)
    k = 0
    n = 2
    while n < cap:
        if k < have:
            he, de, ho, do = rows[k]
        else:
            he = k + 0.5
            de = (2.0 * k + 1.0) * (2.0 * k + 2.0) * (k + nu + 1.0)
            ho = k + 1.0
            do = (2.0 * k + 2.0) * (2.0 * k + 3.0) * (k + nu + 1.5)
            rows[k:k + 1] = ((he, de, ho, do),)
            have = len(rows)
        e *= uu * he / de
        o *= uu * ho / do
        k += 1
        # e == 0 fails 2 * e < prev only where prev is 0 too: both chains are
        # 0 from here on
        if abs(prev) <= half_tol * abs(s) and (2.0 * e < prev or e == 0.0 or math.isinf(s)):
            return (s, math.inf, n, 0) if math.isinf(s) else (s, 2.0 * prev, n, 1)
        s += e
        if e <= half_tol * s and (2.0 * o < e or math.isinf(s)):
            return (s, math.inf, n + 1, 0) if math.isinf(s) else (s, 2.0 * e, n + 1, 1)
        s += o
        prev = o
        n += 2
    return s, 2.0 * abs(prev), n, 0


def _bs_negative(nu, x, tol, cap, table):
    """S_nu(-x) for x > 0 by a series of positive terms, with a running
    bound on its rounding error.

    With s = 1 - t in S_nu(u) = C int_0^1 (1-t^2)^(nu-1/2) e^(ut) dt (DLMF
    10.32.2 with 11.5.2), ``S_nu(-x) = C 2^(nu-1/2) e^-x sum_n x^n/n! B(a+n)``
    where a = nu + 1/2 and ``B(m) = int_0^1 s^(m-1) (1-s/2)^(nu-1/2) ds``.
    S_nu(0) = 1 makes the prefactor 1/B(a), and with e^-x = 1/sum_n x^n/n!

        S_nu(-x) = sum_n w_n b_n / (b_0 sum_n w_n),   b_n = 2^a B(a+n),

    for any weights w_n proportional to x^n/n!: no gamma function and no
    exponential.  b runs downward by ``b(m) = (1 + (m+a)/2 b(m+1)) / m``,
    which adds two positive numbers (for m > 0) and damps the error carried
    in; it starts at m = a + N from ``b(M) = 2 sum_j T_j``, T_0 = 1/M,
    ``T_(j+1) = T_j (nu-1/2-j) / (M+j+1)`` (the binomial series of the
    integrand about s = 1).  The weights are built outward from the peak
    p = floor(x) with w_p = 1, so a weight's relative error grows with
    |n - p|, not with n, and nothing overflows at any x.  The weighted mean
    is summed as b_p plus the mean of b_n - b_p, which is small.

    Every term is positive, except b_0 when -1 < nu < -1/2.  The returned
    bound adds, in units of the unit roundoff u: each b_n's running error
    bound (``err``: the start series' terms, sum and tail, then 4u per
    recurrence step for the rounded m, (m+a)/2, product, sum and quotient,
    with the carried error scaled by the step's damping), the weights'
    errors (2u per step from the peak, felt only through b_n - mean), the
    rounding of the sums, and the Poisson tail beyond n = N (Higham 2002,
    ch. 3-4).  N plus the start series' length counts against ``cap``:
    past it the result is (0, inf) with flag 0.  For nu = -1/2 (a = 0) the
    sum is the exact limit e^-x.

    The b_n and their bounds depend on nu and N alone (``_bs_sequence``):
    the table keeps the last N's, so a monotone sweep builds each N's once
    (N grows with x), and any other order at worst once a point.
    """
    a = nu + 0.5
    if a == 0.0:
        value = math.exp(-x)  # within one ulp, or below the normal range
        bound = 2.0 * _U * value + (_ULP0 if value < _TINY else 0.0)
        return value, bound, 1, int(bound <= tol * value)
    # beyond N the weights fall below e^-40 of the peak's
    top = x + 9.0 * math.sqrt(x) + 25.0
    if not top < cap:  # NaN too
        return 0.0, math.inf, 0, 0
    top = int(top)
    seq = table.get("negative")
    if seq is None or seq[0] != top:
        seq = _bs_sequence(nu, a, top, cap)
        if seq is None:
            return 0.0, math.inf, cap, 0
        table["negative"] = seq
    _, bs, errs, j = seq
    # the start series stops at its j-th term, and N + j counts against cap
    if top + j > cap:
        return 0.0, math.inf, cap, 0
    peak = min(math.floor(x), top)
    bp = bs[peak]
    den = 1.0
    up = down = 0.0  # sums of w_n (b_n - b_p) above and below the peak
    spread = 0.0     # sum of w_n |n-p| |b_n - b_p|
    dist = 0.0       # sum of w_n |n-p|
    werr = errs[peak]  # sum of w_n err_n
    w = 1.0
    for n in range(peak + 1, top + 1):
        w = w * x / n
        d = bs[n] - bp
        den += w
        up += w * d
        k = w * (n - peak)
        spread += k * abs(d)
        dist += k
        werr += w * errs[n]
    w_top = w
    w = 1.0
    for n in range(peak - 1, -1, -1):
        w = w * (n + 1) / x
        d = bs[n] - bp
        den += w
        down += w * d
        k = w * (peak - n)
        spread += k * abs(d)
        dist += k
        werr += w * errs[n]
    low = w * abs(bs[0] - bp)  # w_0 |b_0 - b_p|; b_0 may lie below b_p
    shift = (up + down) / den
    mean = bp + shift
    value = mean / bs[0]
    shift = abs(shift)
    bound = (werr                                        # the b_n
             + (top - peak + 2.0) * abs(up)              # up: products, sums
             + (peak + 2.0) * (abs(down) + 2.0 * low)    # down
             + 2.0 * (spread + dist * shift)) / den      # the weights
    bound = _U * (bound + (top + 2.0) * shift + abs(mean))  # den, quotient, sums
    r = x / (top + 2.0)
    bound += (abs(bs[top]) + abs(mean)) * w_top * (x / (top + 1.0)) / (1.0 - r) / den
    bound = abs(value) * (bound / abs(mean) + _U * (errs[0] / abs(bs[0]) + 1.0))
    return value, bound, top + 1 + j, int(bound <= tol * abs(value))


def _bs_sequence(nu, a, top, cap):
    """(N, b_n, their error bounds in units of u, the start series' length
    j) for n = 0..N, N = ``top``; None where N + j would reach ``cap``
    first."""
    M = a + top
    t = 1.0 / M
    s = t
    sa = abs(t)  # sum of |T_j|: T_j errs by at most (3 + 6j) u
    tj = 0.0     # sum of j |T_j|
    j = 0
    while True:
        t *= (nu - (j + 0.5)) / (M + (j + 1.0))
        j += 1
        if abs(t) <= 0.125 * _U * abs(s):
            break
        if top + j >= cap:
            return None
        s += t
        sa += abs(t)
        tj += j * abs(t)
    # the rest falls geometrically while positive (ratio r, which falls
    # too), then alternates in sign and falls: at most |t| (1 + 1/(1 - r))
    r = (nu - (j + 0.5)) / (M + (j + 1.0))
    tail = abs(t) if r <= 0.0 else abs(t) * (1.0 + 1.0 / (1.0 - r))
    b = 2.0 * s
    # err: a bound on |b_n - true b_n|, in units of u
    err = 2.0 * ((3.0 + j) * sa + 6.0 * tj + tail / _U)
    bs = [0.0] * (top + 1)
    errs = [0.0] * (top + 1)
    bs[top] = b
    errs[top] = err
    for n in range(top - 1, 0, -1):
        m = a + n
        c = (m + a) * 0.5
        err = c * (err + 4.0 * b) / m
        b = (1.0 + c * b) / m
        err += 4.0 * b
        bs[n] = b
        errs[n] = err
    err += 4.0 * b  # n = 0: m = (m+a)/2 = a, and 1 + a b_1 may cancel
    b = (1.0 + a * b) / a
    bs[0] = b
    errs[0] = err + 4.0 * abs(b)
    return top, bs, errs, j


def _bessel_type_series(lt, half, modified, v, c, tol, cap):
    """The J/I and H/L series from leading term exp(lt), with term ratio
    ``(-1 unless modified) * half**2 / ((k + c) * (k + v + c))``."""
    try:
        t = math.exp(lt)
    except OverflowError:
        t = math.inf
    q = half * half if modified else -(half * half)
    s = total = a = t  # a = |t|: the leading term is positive
    k = 0.0  # a float counts exactly to the cap, and k + c skips an int-to-float step
    n = 1
    while n < cap:
        t = t * q / ((k + c) * (k + v + c))
        if a <= 0.5 * tol * abs(s) and (abs(t) < 0.5 * a or math.isinf(s)):
            return (s, math.inf, n, 0, total) if math.isinf(s) else (s, 2.0 * a, n, 1, total)
        a = abs(t)
        s += t
        total += a
        k += 1.0
        n += 1
        if t == 0.0:
            return s, 0.0, n, 1, total
    return s, 2.0 * a, n, 0, total


def bessel_series(v, z, modified, tol, cap):
    """J_v (modified=0) or I_v (modified=1) by direct series; z > 0."""
    half = 0.5 * z
    la, _ = lgamma_sign(v + 1.0)
    return _bessel_type_series(v * math.log(half) - la, half, modified, v, 1.0, tol, cap)


def struve_series(v, z, modified, tol, cap):
    """H_v (modified=0) or L_v (modified=1) by direct series; z > 0."""
    half = 0.5 * z
    la1, _ = lgamma_sign(1.5)
    la2, _ = lgamma_sign(v + 1.5)
    return _bessel_type_series((v + 1.0) * math.log(half) - la1 - la2, half, modified, v, 1.5,
                               tol, cap)


def bessel_type_row(v, zs, out, struve_type, modified, tol, cap, units, at_zero):
    """The J/I or H/L row of ``series.bessel_first_kind`` or ``struve``: z =
    0 gives ``at_zero``; the bound adds the rounding of the sum of |terms|,
    ``units`` the ``_order_units``; where 0.5 * z can round the series
    is its leading term, in logs.  Past the double range I and L are inf,
    J and H NaN; a J or H value whose whole bound reaches |value|, or an I
    or L value whose bound is inf, is not converged."""
    n0, append, inf = len(out), out.append, math.inf
    kernel, order, gamma_args = ((struve_series, v + 1.0, (1.5, v + 1.5)) if struve_type
                                 else (bessel_series, v, (v + 1.0,)))
    for z in zs:
        if not 0.0 <= z < inf:
            break
        if z == 0.0:
            append(at_zero)
            continue
        if z < _HALF_ROUNDS:
            power = ln_t = order * (math.log(z) - _LN2)  # log(z/2) without rounding z/2
            for a in gamma_args:
                ln_t -= lgamma_sign(a)[0]
            try:
                value = math.exp(ln_t)
            except OverflowError:
                append((inf, inf, 1, False))
                continue
            append((value, _positive_rounding(value, 1, power, units), 1, True))
            continue
        value, err, terms, ok, total = kernel(v, z, modified, tol, cap)
        if not -inf < value < inf:
            append((inf if modified else math.nan, inf, terms, False))
            continue
        err += _positive_rounding(total, terms, order * math.log(0.5 * z), units)
        append((value, err, terms, bool(ok) and err < (inf if modified else abs(value))))
    return len(out) - n0


def _positive_rounding(value, terms, power, units):
    """A bound on the rounding of ``terms`` positive I or L terms summing to
    ``value`` (Higham 2002, ch. 4): the first, exp(power - sum of log
    Gamma(a)), power = order log(z/2), errs by a few u an operation and by
    ``units`` (each a's); a recurrence step adds at most 6u to a term's
    relative error, an addition u of the sum, and below the smallest
    normal double each term ulp(0)."""
    if not value < math.inf:
        return math.inf  # a term overflowed: nothing finite to bound
    if not value > 0.0:
        return terms * _ULP0  # every term underflowed
    first = 5.0 * abs(power) + 1.0
    for g in units:
        first += g
    units = first + 8.0 * terms
    if value < _TINY:  # value * _U would underflow
        return value * (_U * units) + terms * _ULP0
    return value * _U * units


def _hyp2f1_tail(a, b, c, z, tol, cap):
    """Direct 2F1 series with a geometric tail bound; needs |z| < 0.97.

    Each step forms the term ratio ``(a+k)(b+k)/((c+k)(k+1)) * z`` once,
    for the stop test and then for the next term."""
    s = 1.0
    t = 1.0
    k = 0
    f = (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
    while k < cap:
        t *= f
        if t == 0.0:
            return s
        s += t
        k += 1
        f = (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        r = abs(f)
        if r < 0.97 and abs(t) * r / (1.0 - r) <= tol * abs(s):
            return s
    return s


def _gamma_ratio_d(n1, n2, d1, d2):
    """Gamma(n1) Gamma(n2) / (Gamma(d1) Gamma(d2)) from four signed
    log-gammas; 0.0 where d1 or d2 is an exact nonpositive integer, a zero
    of 1/Gamma, which is the limit the connection formula takes there."""
    if (d1 <= 0.0 and d1 == math.floor(d1)) or (d2 <= 0.0 and d2 == math.floor(d2)):
        return 0.0
    l1, s1 = lgamma_sign(n1)
    l2, s2 = lgamma_sign(n2)
    l3, s3 = lgamma_sign(d1)
    l4, s4 = lgamma_sign(d2)
    return s1 * s2 * s3 * s4 * math.exp(l1 + l2 - l3 - l4)


def hyp2f1_kernel(a, b, c, z, wbar):
    """2F1 for quadrature integrands: full real axis z < 1.

    ``wbar`` is 1-z, passed exactly where z is close to 1; 0.0 (or less)
    has the kernel form 1-z itself, and z < 0 ignores it.  Routes: direct
    series for z <= 0.75, connection formula in powers of 1-z above, the
    Pfaff transform for z < 0 ahead of either.  At an exact integer or
    non-finite gap c-a-b (b after the transform) the kernel returns NaN,
    and near one it loses about u/gap.  A connection coefficient with Gamma
    at a pole in its denominator is 0.0.  The slot keeps the connection
    coefficients and the sum at every point summed, before the Pfaff
    scale, so a repeated point (the same factor at every rho) is summed
    once, with the bits of a fresh call.
    """
    global _hyp2f1_slot
    if a == 0.0 or b == 0.0 or z == 0.0:
        return 1.0
    if z < 0.0:
        t = 1.0 - z
        b = c - b
        z = z / (z - 1.0)
        wbar = 1.0 / t
        scale = t ** (-a)
    else:
        scale = 1.0
        if wbar <= 0.0:
            wbar = 1.0 - z
    slot = _hyp2f1_slot
    if slot[0] != a or slot[1] != b or slot[2] != c:
        slot = _hyp2f1_slot = (a, b, c, [], {})
    # a thread stores into the dict of the slot it read; racing threads
    # store equal values
    values = slot[4]
    key = z if z <= 0.75 else (z, wbar)
    v = values.get(key)
    if v is not None:
        return scale * v
    if z <= 0.75:
        v = _hyp2f1_tail(a, b, c, z, 1e-16, 10000)
    elif not wbar >= 0.0:  # z past 1, or NaN: the C twin's pow(wbar, s) is NaN there
        return math.nan
    else:
        conn = slot[3]
        if not conn:  # racing threads store equal entries at index 0
            s = c - a - b
            if not math.isfinite(s) or s == math.floor(s):
                return math.nan
            conn[0:1] = ((s, _gamma_ratio_d(c, s, c - a, c - b), _gamma_ratio_d(c, -s, a, b)),)
        s, p1, p2 = conn[0]
        f1 = _hyp2f1_tail(a, b, 1.0 - s, wbar, 1e-16, 10000)
        f2 = _hyp2f1_tail(c - a, c - b, 1.0 + s, wbar, 1e-16, 10000)
        v = p1 * f1 + wbar ** s * p2 * f2
    values[key] = v
    return scale * v


def wright_series(ua, uA, lb, lB, z, tol, cap, table=None):
    """Generalized Wright series, terms assembled in log space.

    Status 0 on convergence, 1 at the term cap, 2 where an upper parameter
    ``a_i + A_i*k`` lands on a gamma pole (the value then carries the k);
    a lower-parameter pole zeroes its term.  The first term beyond the
    double range ends the sum, with status 0 and a non-finite value.

    Of term k only ``k*log|z|`` depends on z; the rest is row k: ``(sign,
    sign at z < 0, acc, log k!)``, acc the signed sum of the term's
    log-gammas, the signs the floats +1.0 or -1.0 (the second folds in the
    odd-term flip of z < 0), or None where a lower parameter kills the
    term.  The optional ``table``, a list of rows shared by a spec's calls,
    is read and grown a row at a time, each at its own index, so racing
    threads store equal rows, and a table-fed call has a one-shot call's
    bits.  More than ``MAX_PAIRS`` pairs a side raise ValueError, as in the
    compiled twin, which keeps the columns in fixed arrays.
    """
    if len(ua) > MAX_PAIRS or len(lb) > MAX_PAIRS:
        raise ValueError(f"at most {MAX_PAIRS} parameter pairs are supported")
    lnz = math.log(abs(z)) if z != 0.0 else 0.0
    sign = 1 if z < 0.0 else 0  # the row's sign for this z
    half_tol = 0.5 * tol
    exp, log, gamma = math.exp, math.log, math.gamma
    s = prev = 0.0
    have_prev = False
    have = 0 if table is None else len(table)
    for k in range(cap):
        if k < have:
            row = table[k]
        else:
            acc = 0.0
            sg = 1.0
            # POLE_TOL < g < 171.6 is never near a pole, and there
            # lgamma_sign(g) is (log(gamma(g)), 1): most g take it inline
            for a, A in zip(ua, uA):
                g = a + A * k
                if POLE_TOL < g < 171.6:
                    acc += log(gamma(g))
                    continue
                if g <= POLE_TOL and _near_nonpositive_int(g):
                    return float(k), 0.0, k, 2
                la, sig = lgamma_sign(g)
                acc += la
                sg *= sig
            for b, B in zip(lb, lB):
                g = b + B * k
                if POLE_TOL < g < 171.6:
                    acc -= log(gamma(g))
                    continue
                if g <= POLE_TOL and _near_nonpositive_int(g):
                    row = None
                    break
                la, sig = lgamma_sign(g)
                acc -= la
                sg *= sig
            else:
                lk = log(gamma(k + 1.0)) if k + 1.0 < 171.6 else lgamma_sign(k + 1.0)[0]
                row = (sg, -sg if k % 2 else sg, acc, lk)
            if table is not None:
                table[k:k + 1] = (row,)
                have = len(table)
        if row is None:
            t = 0.0
        else:
            if k and z == 0.0:
                return s, 0.0, k, 0
            lt = row[2] + k * lnz - row[3]
            try:
                t = row[sign] * exp(lt)
            except OverflowError:
                t = row[sign] * math.inf
            if not math.isfinite(t):
                return s + t, math.inf, k + 1, 0
        if have_prev and abs(prev) <= half_tol * abs(s) and 2.0 * abs(t) < abs(prev):
            return s, 2.0 * abs(prev), k, 0
        s += t
        if t != 0.0:
            prev = t
            have_prev = True
        elif row is None:
            have_prev = False
        else:  # t underflowed: the test reads its log lt, prev's being lprev
            if (have_prev and not prev and s and _LN2 + lt < lprev
                    and lprev - log(abs(s)) <= log(half_tol)):
                return s, _ULP0, k, 0
            prev, lprev, have_prev = 0.0, lt, True
    return s, 2.0 * abs(prev) if prev or not have_prev else _ULP0, max(cap, 0), 1


def wright_row(ua, uA, lb, lB, zs, out, tol, cap, table, image):
    """The row of ``wright.wright_eval`` (``image`` None: scale 1, power 0) or
    of an image (prefactor, power, scale, inverse): prefactor * x**power *
    Psi(scale * x**(+-1)) at x > 0, a point one table-fed ``wright_series``."""
    n0, append, inf = len(out), out.append, math.inf
    prefactor, power, scale, inverse = image or (1.0, 0.0, 1.0, False)
    for x in zs:
        if image is not None and not 0.0 < x < inf:
            break
        z = scale * (1.0 / x if inverse else x)
        if not -inf < z < inf:
            break
        value, err, terms, status = wright_series(ua, uA, lb, lB, z, tol, cap, table)
        if status or not -inf < value < inf:
            break
        try:
            s = prefactor * x ** power
        except OverflowError:
            break
        append((s * value, abs(s) * err, terms, True))
    return len(out) - n0


def _exp_up(v):
    return math.exp(v) if v < 709.0 else math.inf


def _expm1_up(v):
    return math.expm1(v) if v < 709.0 else math.inf


def density_point(cs, x, bound=False):
    """The pathway density at x from its x-free constants ``cs`` (see
    ``pathway._density_consts``), or with ``bound`` (value, bound); raises
    the OverflowError of a power or exp of the value that overflows."""
    sub, limit, c, at_zero, zero_bound, k, expo, power, delta, g1, ln_c, lk, far_la, pow_max, \
        ln_cg, rel_c = cs
    ax = abs(x)
    if ax == 0.0:
        return (at_zero, zero_bound) if bound else at_zero
    if sub:
        if ax > pow_max and lk + delta * math.log(ax) > 0.0:
            # k|x|^delta > 1, found in logs where |x|**delta overflows
            return (0.0, 0.0) if bound else 0.0
        t = k * ax ** delta
        base = 1.0 - t
        value = 0.0 if base <= 0.0 else c * ax ** g1 * base ** power
        if not bound:
            return value
        la, far, in_logs = math.log(ax), False, False
    else:
        # in the far tail, and wherever the tail is below the smallest normal
        # double, the value is taken in logs: the power prefactor and the
        # tail must not overflow, or round to zero, apart
        la = math.log(ax)
        in_logs = far = la > far_la
        if far:  # the +1 in the SUPER base is negligible
            lt = lk + delta * la  # log of k|x|^delta
            log_tail = -math.exp(min(lt, 709.0)) if limit else power * lt
        else:
            t = k * ax ** delta
            if limit:
                tail = math.exp(-t)
            else:
                base = 1.0 + t
                tail = base ** power
            if not tail >= _TINY:
                in_logs, log_tail = True, -t if limit else power * math.log(base)
        if in_logs:
            log_f = ln_c + g1 * la + log_tail
            value = math.exp(log_f) if log_f > -745.0 else 0.0
        else:
            value = c * ax ** g1 * tail
        if not bound:
            return value
    ln_v = ln_cg + g1 * la
    # the two products, and one rounding each of |x|^(gamma-1) and the tail
    up = down = rel_c + 6.0 * _U + _U * abs(g1 * la)
    if limit:
        t = math.exp(min(lk + delta * la, 700.0))  # k|x|^delta, capped to stay finite
        ln_v -= t
        # in the far tail the value takes t from an exp whose argument errs
        # by about u(|log k| + 2 delta log|x|)
        e_t = 4.0 * _U * t * (abs(lk) + delta * la + 2.0 if far else 1.0)
        up += e_t
        down += e_t
        ln_tail = t
    elif far:  # SUPER: the +1 dropped costs expo/(k|x|^delta)
        ln_v += power * lt
        up = down = rel_c + expo * _exp_up(-lt)
        ln_tail = expo * (abs(lk) + delta * la + 1.0)
    else:
        e_base = 5.0 * _U * t + _U * abs(base)  # bounds |base - exact base|
        if base + e_base <= 0.0:
            return value, 0.0  # outside the support for certain
        if base <= 0.0:
            return value, _exp_up(max(ln_v + expo * math.log(base + e_base) + up + 1.0, _LN_ULP0))
        r, lb = e_base / base, math.log(base)  # at r >= 1 the exact SUB point may be outside
        rnd = 2.0 * _U * expo * abs(lb)
        grow, shrink = expo * math.log1p(r), (-expo * math.log1p(-r) if r < 1.0 else math.inf)
        ln_v += power * lb
        up += (grow if sub else shrink) + rnd
        down += (shrink if sub else grow) + rnd
        ln_tail = expo * lb
    if in_logs:
        # only the final exp rounds, but each term of the log sum errs by a
        # few u of its size; ln_tail bounds the tail's |log|
        w = 2.0 * _U + 6.0 * _U * (abs(ln_cg) + abs(g1 * la) + ln_tail)
        up += w
        down += w
    if value == 0.0:
        # underflow: bound the exact value itself; the factor e covers the
        # rounding of ln_v
        return value, _exp_up(max(ln_v + up + 1.0, _LN_ULP0))
    # a factor f rounded in the subnormal range errs by ulp(0)/f relative;
    # the far SUPER tail rounds only its value
    ln_p = g1 * la
    lowest = ln_v if in_logs else min(ln_p, ln_cg + ln_p, ln_v - ln_cg - ln_p, ln_v)
    tiny = 4.0 * _exp_up(_LN_ULP0 - lowest)
    up += tiny
    down += -math.log1p(-tiny) if tiny < 1.0 else math.inf
    return value, abs(value) * max(_expm1_up(up), -math.expm1(-down))


def density_row(cs, xs, out):
    """The row of the density (``pathway._density_row``): a point is
    ``density_point(cs, x, True)``, with terms 1 and converged where the
    bound is finite; it stops at a non-finite x and at an overflow."""
    n0, append, inf = len(out), out.append, math.inf
    for x in xs:
        if not -inf < x < inf:
            break
        try:
            value, bound = density_point(cs, x, True)
        except OverflowError:
            break
        append((value, bound, 1, bound < inf))
    return len(out) - n0


def f3_series(a, ap, b, bp, g, x, y, tol, cap):
    """Appell F3 double series, row-by-row in the y index; |x|,|y| < 1.

    Row n sums ``T(m, n)`` over m with a geometric tail bound; the outer
    loop applies the shared truncation rule to whole row sums.
    """
    total = 0.0
    t0n = 1.0  # T(0, n)
    n_terms = 0
    prev_row = 0.0
    have_prev = False
    n = 0
    while n_terms < cap:
        t = t0n
        row = t
        n_terms += 1
        m = 0
        while n_terms < cap:
            t = t * (a + m) * (b + m) * x / ((g + m + n) * (m + 1.0))
            if t == 0.0:
                break
            row += t
            n_terms += 1
            m += 1
            r = abs((a + m) * (b + m) * x / ((g + m + n) * (m + 1.0)))
            if r < 0.97 and abs(t) * r / (1.0 - r) <= 0.25 * tol * (abs(total) + abs(row)):
                break
        if have_prev and abs(prev_row) <= 0.5 * tol * abs(total) and abs(row) < 0.5 * abs(prev_row):
            return total, 2.0 * abs(prev_row), n_terms, 1
        total += row
        if row == 0.0:
            have_prev = False
        else:
            prev_row = row
            have_prev = True
        t0n = t0n * (ap + n) * (bp + n) * y / ((g + n) * (n + 1.0))
        n += 1
        if t0n == 0.0:
            return total, 0.0, n_terms, 1  # terminating in the y index
    return total, 2.0 * abs(prev_row), n_terms, 0


def format_rows(values, ncols):
    """The CSV rows of ``values``, ``ncols`` to a row: each number as
    ``'%.17g' % v`` (an int is read as a float, as ``%`` reads it), ","
    between columns and "\\n" between rows, with no newline at the end."""
    values = tuple(values)
    if ncols < 1 or len(values) % ncols:
        raise ValueError(f"{len(values)} values do not make rows of {ncols}")
    return "\n".join([",".join(["%.17g"] * ncols)] * (len(values) // ncols)) % values
