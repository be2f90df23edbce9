"""Double-exponential quadrature: tanh-sinh on finite intervals and
exp-sinh on half-infinite ones.

Integrands receive the node together with its exact distance(s) to the
interval endpoint(s), so endpoint-singular factors like ``(b-t)**(g-1)``
can be computed at full relative precision arbitrarily close to the
endpoint.  Refinement halves the mesh per level and reuses earlier
nodes; the error estimate is the last level-to-level difference.

A level is summed in Python, by ``_finite_level`` or ``_half_inf_level``:
one loop over the level's scaled nodes that calls the integrand at each
node (on tanh-sinh, each mirror node right after its partner) and adds
w f where f is nonzero, so a level of zero values leaves a -0.0 sum as
it is.  The kernel twins are not involved, so both backends sum a level
with the same bits.

A mesh level's nodes are kept at two stages.  Their width-free factors
do not depend on the integral, so each level's table of them is built
on first use and shared by every later integral.  Scaled to an interval
(tanh-sinh: the nodes, both endpoint distances and the weight;
exp-sinh: the node, its distance to a and the weight), each level sits
in a one-slot table per rule that keeps the last interval it was scaled
to, so a run of integrals over one interval scales each level once, and
an integral over another interval replaces the slot.  Both stages run
the operations of a sweep that computes every node afresh, in the same
order, so no table changes a result's bits.  Tables are kept for levels
up to ``_KEPT_LEVELS`` (about 0.8 MB for both rules and both stages); a
deeper level is generated and scaled node by node on every use and never
held.

Both rules raise ``DomainError`` before they touch a table for a
non-finite endpoint or scale, a ``tol`` that is not a finite positive
number, or a ``max_levels`` that is not an integer >= 2, and
``QuadratureError`` at the first level whose running sum is not finite.
"""

from __future__ import annotations

import math
from functools import cache, partial

from .errors import DomainError, QuadratureError
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
    """One mesh level's width-free node data: a kept table for the
    shallow levels, a fresh generator for deeper ones."""
    if level <= _KEPT_LEVELS:
        return _table(build, level, *key)
    return build(level, *key)


def _finite_scaled(level, h, a, b):
    """The level's tanh-sinh nodes on (a, b), each as
    ``(b - near, far, near, w, a + near)``, up to the first node whose
    distance ``near`` to the endpoint underflows to zero."""
    width = b - a
    pw = 2.0 * width * _HALF_PI
    for r, opq, ch, q, opq2 in _nodes(_finite_nodes, level, h):
        near = width * r
        if near <= 0.0:
            return
        yield b - near, width / opq, near, pw * ch * q / opq2, a + near


def _half_inf_scaled(level, h, a, scale):
    """The level's exp-sinh nodes on (a, infinity), each as ``(a + d, d, w)``
    with d = scale * e^v: the ascending side (t -> infinity) while v <= 500
    and d <= e^690, then the descending side (t -> a) while d > 0."""
    v_pos = min(_V_ASCENT, 690.0 - math.log(scale))
    for sign, v_hi in ((1, v_pos), (-1, math.inf)):
        for v, ev, ch in _nodes(_half_inf_nodes, level, h, sign):
            if v > v_hi:
                break
            d = scale * ev
            if d <= 0.0:  # only on the way down
                break
            yield a + d, d, d * _HALF_PI * ch


# (rule, level) -> (interval, scaled nodes): the last interval each kept
# level was scaled to.  A thread reads a slot once and scans the nodes it
# read; a racing thread's slot holds equal nodes or another interval's.
_scaled = {}


def _scaled_nodes(rule, level, h, interval):
    """One mesh level's nodes scaled to ``interval`` by ``rule``: the
    level's slot for the shallow levels, a fresh generator for deeper ones."""
    if level > _KEPT_LEVELS:
        return rule(level, h, *interval)
    slot = _scaled.get((rule, level))
    if slot is None or slot[0] != interval:
        slot = _scaled[rule, level] = interval, tuple(rule(level, h, *interval))
    return slot[1]


def _finite_level(f, a, b, level, h):
    """Trapezoid contribution of one mesh level (without the h factor)."""
    total = 0.0
    evals = 0
    width = b - a
    half = width * 0.5
    if not level and half > 0.0:  # midpoint k = 0 (q = 1), coarse level only
        fv = f(a + half, half, half)
        evals += 1
        if fv != 0.0:
            total += 2.0 * width * _HALF_PI / 4.0 * fv
    for hi, far, near, w, lo in _scaled_nodes(_finite_scaled, level, h, (a, b)):
        fv = f(hi, far, near)  # node approaching b
        if fv != 0.0:
            total += w * fv
        fv = f(lo, near, far)  # mirror node approaching a
        if fv != 0.0:
            total += w * fv
        evals += 2
    return total, evals


def _refine(level, tol, max_levels, name):
    """Halve the mesh per level until two consecutive estimates agree to
    the relative tolerance; ``level(k, h)`` returns the trapezoid sum of
    level k, step h (without the h factor), and its evaluation count."""
    if not 0.0 < tol < math.inf:
        raise DomainError(f"{name} needs a finite positive tol, got {tol!r}")
    # the stop test needs two refined levels
    if not isinstance(max_levels, int) or max_levels < 2:
        raise DomainError(f"{name} needs an integer max_levels >= 2, got {max_levels!r}")
    h, total, n_evals, prev = 1.0, 0.0, 0, math.inf
    for k in range(max_levels + 1):
        h *= 0.5
        part, ev = level(k, h)
        total += part  # exact at k = 0: a level's sum starts from +0.0
        n_evals += ev
        cur = h * total
        if not math.isfinite(cur):  # no finer level makes it finite again
            raise QuadratureError(f"{name} sum is not finite at level {k}: {cur!r}")
        err = abs(cur - prev)
        prev = cur
        if k >= 2 and err <= tol * max(abs(cur), _TINY):
            return SeriesEval(cur, err, n_evals, True)
    raise QuadratureError(
        f"{name} stalled: level difference {err!r} above tolerance "
        f"after {max_levels} levels")


def _check_finite(name, **values):
    for key, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} needs a finite {key}, got {value!r}")


def tanh_sinh(f, a: float, b: float, tol: float = 1e-11,
              max_levels: int = 12) -> SeriesEval:
    """Integrate ``f(t, t-a, b-t)`` over (a, b).

    Stops when consecutive refinements agree to the relative tolerance;
    raises QuadratureError when the level cap is hit with the estimate
    still above it, and DomainError on bad input (see the module).
    """
    _check_finite("tanh-sinh", a=a, b=b)
    if not b > a:
        raise DomainError(f"tanh-sinh requires b > a, got a={a!r}, b={b!r}")
    return _refine(partial(_finite_level, f, a, b), tol, max_levels, "tanh-sinh")


def _half_inf_level(f, a, scale, level, h):
    total = 0.0
    evals = 0
    if not level:  # the k = 0 node, on the coarse level only
        fv = f(a + scale, scale)
        evals += 1
        if fv != 0.0:
            total += scale * _HALF_PI * fv
    for t, d, w in _scaled_nodes(_half_inf_scaled, level, h, (a, scale)):
        fv = f(t, d)
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
    Raises DomainError on bad input (see the module).
    """
    _check_finite("exp-sinh", a=a, scale=scale)
    if not scale > 0.0:
        raise DomainError(f"exp-sinh requires a positive scale, got {scale!r}")
    return _refine(partial(_half_inf_level, f, a, scale), tol, max_levels, "exp-sinh")
