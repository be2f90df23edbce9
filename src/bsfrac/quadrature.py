"""Double-exponential quadrature: tanh-sinh on finite intervals and
exp-sinh on half-infinite ones.

Integrands receive the node together with its exact distance(s) to the
interval endpoint(s), so endpoint-singular factors like ``(b-t)**(g-1)``
can be computed at full relative precision arbitrarily close to the
endpoint.  Refinement halves the mesh per level and reuses earlier
nodes; the error estimate is the last level-to-level difference.
"""

from __future__ import annotations

import math
from functools import partial

from .errors import QuadratureError
from .series import SeriesEval

_HALF_PI = math.pi / 2.0
_V_MAX = 250.0  # |(pi/2) sinh u| cutoff keeps endpoint distances normal
_TINY = 1e-300


def _finite_level(f, a, b, h, odd_only):
    """Trapezoid contribution of one mesh level (without the h factor)."""
    width = b - a
    total = 0.0
    evals = 0
    k0 = 1 if odd_only else 0
    step = 2 if odd_only else 1
    k = k0
    while True:
        v = _HALF_PI * math.sinh(k * h)
        if v > _V_MAX:
            break
        q = math.exp(-2.0 * v)
        near = width * (q / (1.0 + q))
        far = width / (1.0 + q)
        if near <= 0.0:
            break
        w = 2.0 * width * _HALF_PI * math.cosh(k * h) * q / ((1.0 + q) * (1.0 + q))
        if k == 0:  # midpoint, only on the coarse level
            fv = f(a + near, near, far)
            evals += 1
            if fv != 0.0:
                total += w * fv
            k = 1
            continue
        fv = f(b - near, far, near)  # node approaching b
        evals += 1
        if fv != 0.0:
            total += w * fv
        fv = f(a + near, near, far)  # mirror node approaching a
        evals += 1
        if fv != 0.0:
            total += w * fv
        k += step
    return total, evals


def _refine(level, tol, max_levels, name):
    """Halve the mesh per level until two consecutive estimates agree to
    the relative tolerance; ``level(h, odd_only)`` returns one level's
    trapezoid sum (without the h factor) and its evaluation count."""
    h = 0.5
    total, n_evals = level(h, False)
    prev = h * total
    err = math.inf
    for k in range(1, max_levels + 1):
        h *= 0.5
        part, ev = level(h, True)
        total += part
        n_evals += ev
        cur = h * total
        err = abs(cur - prev)
        prev = cur
        if k >= 2 and err <= tol * max(abs(cur), _TINY):
            return SeriesEval(cur, err, n_evals, True)
    raise QuadratureError(
        f"{name} stalled: level difference {err!r} above tolerance "
        f"after {max_levels} levels")


def tanh_sinh(f, a: float, b: float, tol: float = 1e-11,
              max_levels: int = 12) -> SeriesEval:
    """Integrate ``f(t, t-a, b-t)`` over (a, b).

    Stops when consecutive refinements agree to the relative tolerance;
    raises QuadratureError when the level cap is hit with the estimate
    still above it.
    """
    if not b > a:
        raise ValueError("tanh_sinh requires b > a")
    return _refine(partial(_finite_level, f, a, b), tol, max_levels, "tanh-sinh")


def _half_inf_level(f, a, scale, v_pos, h, odd_only):
    total = 0.0
    evals = 0
    step = 2 if odd_only else 1
    if not odd_only:  # the k = 0 node, on the coarse level only
        fv = f(a + scale, scale)
        evals += 1
        if fv != 0.0:
            total += scale * _HALF_PI * fv
    # ascending side (t -> infinity) while v <= v_pos, then descending
    # (t -> a) while v >= -_V_MAX; d <= 0 can only occur on the way down
    for k, stride, lo, hi in ((1, step, -math.inf, v_pos), (-1, -step, -_V_MAX, math.inf)):
        while True:
            u = k * h
            v = _HALF_PI * math.sinh(u)
            if not lo <= v <= hi:
                break
            d = scale * math.exp(v)
            if d <= 0.0:
                break
            w = d * _HALF_PI * math.cosh(u)
            fv = f(a + d, d)
            evals += 1
            if fv != 0.0:
                total += w * fv
            k += stride
    return total, evals


def exp_sinh(f, a: float, scale: float, tol: float = 1e-11,
             max_levels: int = 12) -> SeriesEval:
    """Integrate ``f(t, t-a)`` over (a, infinity).

    ``scale`` sets the unit of the exponential map t = a + scale*e^v
    (typically a itself when a > 0).  The integrand must decay fast
    enough that contributions vanish before t reaches ~scale*e^500.
    """
    if scale <= 0.0:
        raise ValueError("exp_sinh requires a positive scale")
    v_pos = min(500.0, 690.0 - math.log(scale))
    return _refine(partial(_half_inf_level, f, a, scale, v_pos), tol, max_levels, "exp-sinh")
