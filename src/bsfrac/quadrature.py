"""Double-exponential quadrature: tanh-sinh on finite intervals and
exp-sinh on half-infinite ones.

Integrands receive the node together with its exact distance(s) to the
interval endpoint(s), so endpoint-singular factors like ``(b-t)**(g-1)``
can be computed at full relative precision arbitrarily close to the
endpoint.  Refinement halves the mesh per level and reuses earlier
nodes; the error estimate is the last level-to-level difference.

The width-free factors of a mesh level's abscissas and weights do not
depend on the integral, so each level's table of them is built on first
use and shared by every later integral, which only scales it by its
width or scale, with the same operations in the same order as a sweep
that computes every node afresh.  Tables are kept for levels up to
``_KEPT_LEVELS`` (about 0.4 MB for both rules); a deeper level is
generated node by node on every use and never held.
"""

from __future__ import annotations

import math
from functools import cache, partial

from .errors import QuadratureError
from .series import SeriesEval

_HALF_PI = math.pi / 2.0
_V_MAX = 250.0  # |(pi/2) sinh u| cutoff keeps endpoint distances normal
_V_ASCENT = 500.0  # exp-sinh stops t -> infinity at e^500 at the latest
_TINY = 1e-300
_KEPT_LEVELS = 6  # `verify all` stops by level 4; a full 13-level set is ~25 MB


def _finite_nodes(level, h):
    """tanh-sinh nodes k = 1, 2, ... (level 0) or k = 1, 3, ... (finer
    levels) while (pi/2) sinh(kh) <= _V_MAX, each as
    ``(q/(1+q), 1+q, cosh(kh), q, (1+q)**2)`` with q = exp(-pi sinh(kh))."""
    step = 2 if level else 1
    k = 1
    while True:
        v = _HALF_PI * math.sinh(k * h)
        if v > _V_MAX:
            return
        q = math.exp(-2.0 * v)
        opq = 1.0 + q
        yield q / opq, opq, math.cosh(k * h), q, opq * opq
        k += step


def _half_inf_nodes(level, h, sign):
    """exp-sinh nodes on one side of k = 0 (``sign`` 1: t -> infinity,
    -1: t -> a) while -_V_MAX <= v <= _V_ASCENT, each as
    ``(v, exp(v), cosh(kh))`` with v = (pi/2) sinh(kh)."""
    stride = sign * (2 if level else 1)
    k = sign
    while True:
        u = k * h
        v = _HALF_PI * math.sinh(u)
        if not -_V_MAX <= v <= _V_ASCENT:
            return
        yield v, math.exp(v), math.cosh(u)
        k += stride


@cache
def _table(build, *key):
    return tuple(build(*key))


def _nodes(build, level, *key):
    """One mesh level's node data: a kept table for the shallow levels,
    a fresh generator for deeper ones."""
    if level <= _KEPT_LEVELS:
        return _table(build, level, *key)
    return build(level, *key)


def _finite_level(f, a, b, level, h):
    """Trapezoid contribution of one mesh level (without the h factor)."""
    width = b - a
    pw = 2.0 * width * _HALF_PI
    total = 0.0
    evals = 0
    half = width * 0.5
    if not level and half > 0.0:  # midpoint k = 0 (q = 1), coarse level only
        fv = f(a + half, half, half)
        evals += 1
        if fv != 0.0:
            total += pw / 4.0 * fv
    for r, opq, ch, q, opq2 in _nodes(_finite_nodes, level, h):
        near = width * r
        if near <= 0.0:
            break
        far = width / opq
        w = pw * ch * q / opq2
        fv = f(b - near, far, near)  # node approaching b
        if fv != 0.0:
            total += w * fv
        fv = f(a + near, near, far)  # mirror node approaching a
        if fv != 0.0:
            total += w * fv
        evals += 2
    return total, evals


def _refine(level, tol, max_levels, name):
    """Halve the mesh per level until two consecutive estimates agree to
    the relative tolerance; ``level(k, h)`` returns the trapezoid sum of
    level k, step h (without the h factor), and its evaluation count."""
    h = 0.5
    total, n_evals = level(0, h)
    prev = h * total
    err = math.inf
    for k in range(1, max_levels + 1):
        h *= 0.5
        part, ev = level(k, h)
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


def _half_inf_level(f, a, scale, v_pos, level, h):
    total = 0.0
    evals = 0
    if not level:  # the k = 0 node, on the coarse level only
        fv = f(a + scale, scale)
        evals += 1
        if fv != 0.0:
            total += scale * _HALF_PI * fv
    # ascending side (t -> infinity) while v <= v_pos, then descending
    # (t -> a) to the table's end; d <= 0 can only occur on the way down
    for sign, v_hi in ((1, v_pos), (-1, math.inf)):
        for v, ev, ch in _nodes(_half_inf_nodes, level, h, sign):
            if v > v_hi:
                break
            d = scale * ev
            if d <= 0.0:
                break
            w = d * _HALF_PI * ch
            fv = f(a + d, d)
            evals += 1
            if fv != 0.0:
                total += w * fv
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
    v_pos = min(_V_ASCENT, 690.0 - math.log(scale))
    return _refine(partial(_half_inf_level, f, a, scale, v_pos), tol, max_levels, "exp-sinh")
