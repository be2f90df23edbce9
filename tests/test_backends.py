"""Cross-checks between the compiled extension and its pure-Python twin.

The ``ck`` fixture compiles the tracked ``_ckernels.c``; the module skips
only when no C compiler is available.  The two backends share
branch structure but may differ by an ulp where libm and CPython's own
gamma implementations disagree, so comparisons are tight but not bitwise.
Only compilation, the pinned ``verify all`` reports and the UBSan sweep run
in child processes; ``tests/test_on_compiled.py`` runs the library's tests
on the compiled kernels in process.
"""

import inspect
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import sysconfig
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsfrac import _pykernels as pk
from bsfrac import gammacore, series

TIGHT = 5e-15


def _close(a, b, rel=TIGHT):
    if a == b:
        return True
    scale = max(abs(a), abs(b))
    return abs(a - b) <= rel * scale


def test_c_twin_compiles_without_warnings(tmp_path):
    # the C twin is written by hand: any warning of -Wall -Wextra fails
    from conftest import compile_ckernels
    proc = compile_ckernels(tmp_path / "_ckernels.so", "-Wall", "-Wextra", "-Werror")
    assert proc.returncode == 0, proc.stderr


def test_lgamma_sign_agrees(ck):
    rng = random.Random(99)
    pts = [rng.uniform(-170.0, 170.0) for _ in range(500)] + [0.5, -0.5, -1.5, 170.0]
    for x in pts:
        if x <= 0 and abs(x - round(x)) <= 1e-9:
            continue
        la_p, s_p = pk.lgamma_sign(x)
        la_c, s_c = ck.lgamma_sign(x)
        assert s_p == s_c
        assert _close(la_p, la_c) or abs(la_p - la_c) < 1e-12


def pole_points(tol):
    """Points at and around every gamma pole k in [-200, 0]: k, k +- 1e-13,
    k +- tol, the next doubles past +-tol and k +- 0.5.  Self-contained, as
    is ``wright_pole_rows``: the UBSan sweep runs their source in a child."""
    import math

    past = math.nextafter(tol, math.inf)
    return [k + d for k in range(-200, 1)
            for d in (0.0, 1e-13, -1e-13, tol, -tol, past, -past, 0.5, -0.5)]


def wright_pole_rows(kernels, x):
    """Whether an upper pair (x, 0) stops the Wright kernel at a pole
    (status 2), and whether a lower pair (x, 0) zeroes every term."""
    upper = kernels.wright_series((x,), (0.0,), (), (), 0.5, 1e-14, 40)
    lower = kernels.wright_series((), (), (x,), (0.0,), 0.5, 1e-14, 40)
    return upper[3] == 2, lower[0] == 0.0


def test_pole_predicate_agrees(ck):
    # gammacore writes the twins' private predicate once more; the compiled
    # one is seen only through the Wright kernel's pole rows
    from bsfrac.gammacore import is_pole
    finite = [-3.0, -3.0 + 1e-13, -3.5, 0.0, 0.5, 2.0, -1e-13] + pole_points(gammacore.POLE_TOL)
    for x in finite:
        assert pk._near_nonpositive_int(x) is is_pole(x), x
        assert wright_pole_rows(pk, x) == wright_pole_rows(ck, x) == (is_pole(x),) * 2, x
    # no pole at NaN or +-inf: the pure twin once raised there (its
    # lgamma_sign still does at NaN and -inf, and 1/Gamma(inf) is 0, so only
    # the compiled upper row is checked)
    for x in (math.nan, math.inf, -math.inf):
        assert pk._near_nonpositive_int(x) is is_pole(x) is False
        assert wright_pole_rows(ck, x)[0] is False


def test_twins_export_the_same_names(ck):
    def public(module):
        return {name for name, value in vars(module).items()
                if not name.startswith("_") and name != "annotations"
                and not isinstance(value, types.ModuleType)}
    assert public(pk) == public(ck)


@pytest.mark.parametrize("n", range(10))
def test_wright_series_argument_count(ck, n):
    args = [(1.0,), (1.0,), (1.5,), (1.0,), 0.5, 1e-14, 50, None, None][:n]
    if n in (7, 8):  # a None table is no table
        assert ck.wright_series(*args) == ck.wright_series(*args[:7])
        return
    message = f"wright_series() takes 7 or 8 positional arguments ({n} given)"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        ck.wright_series(*args)


def test_pair_limit_agrees(ck):
    # both twins take at most MAX_PAIRS upper and MAX_PAIRS lower pairs;
    # the pure one once summed any number of them
    assert pk.MAX_PAIRS == ck.MAX_PAIRS == 32
    for p, q in ((32, 32), (33, 33), (33, 0), (0, 33)):
        cols = ((1.0,) * p, (0.0,) * p, (1.5,) * q, (0.0,) * q)
        if max(p, q) <= 32:
            assert pk.wright_series(*cols, 0.5, 1e-14, 10000) == \
                ck.wright_series(*cols, 0.5, 1e-14, 10000)
            continue
        for kernels in (pk, ck):
            with pytest.raises(ValueError, match="^at most 32 parameter pairs are supported$"):
                kernels.wright_series(*cols, 0.5, 1e-14, 10000)


# 7, 40, 89 and 89.5 take the double-double prefactor near the end of its
# branch (|nu| < 90)
@pytest.mark.parametrize("nu", [-0.5, -0.25, 0.0, 0.5, 1.0, 2.75, 7.0, 40.0, 89.0, 89.5])
@pytest.mark.parametrize("u", [-10.0, -3.3, -0.7, 0.0, 0.4, 2.0, 12.5])
def test_bs_series_agrees(ck, nu, u):
    vp = pk.bs_series(nu, u, 1e-15, 10000)
    vc = ck.bs_series(nu, u, 1e-15, 10000)
    assert (vp[2], vp[3]) == (vc[2], vc[3])  # identical term counts and flags
    assert _close(vp[0], vc[0]) and _close(vp[1], vc[1])


@pytest.mark.parametrize("nu", [0.25, 2.3, 9.7, -0.75])
@pytest.mark.parametrize("u", [-20.0, -40.0, -300.0, math.nan])
def test_bs_series_agrees_far_left(ck, nu, u):
    test_bs_series_agrees(ck, nu, u)


def test_bessel_struve_2f1_agree(ck):
    rng = random.Random(7)
    for _ in range(60):
        v = rng.uniform(-0.9, 3.0)
        z = rng.uniform(0.01, 10.0)
        m = rng.random() < 0.5
        # the oscillating series amplify one-ulp front-factor differences
        assert _close(pk.bessel_series(v, z, m, 1e-15, 10000)[0],
                      ck.bessel_series(v, z, m, 1e-15, 10000)[0], rel=1e-12)
        assert _close(pk.struve_series(v, z, m, 1e-15, 10000)[0],
                      ck.struve_series(v, z, m, 1e-15, 10000)[0], rel=1e-12)
        a, b, c = rng.uniform(0.1, 2), rng.uniform(0.1, 2), rng.uniform(0.5, 3)
        zz = rng.uniform(0.0, 0.7)  # the 2F1's direct series
        assert _close(pk.hyp2f1_kernel(a, b, c, zz, 1.0 - zz),
                      ck.hyp2f1_kernel(a, b, c, zz, 1.0 - zz))


def test_hyp2f1_kernel_agrees(ck):
    rng = random.Random(13)
    for _ in range(80):
        a = rng.uniform(0.05, 0.6)
        b = rng.uniform(0.05, 0.6)
        c = rng.uniform(0.85, 1.6)
        if abs((c - a - b) - round(c - a - b)) < 0.1:
            continue
        z = rng.choice([rng.uniform(-50, 0.75), 1 - 10 ** -rng.uniform(1, 14)])
        wbar = 1.0 - z if z > 0 else 0.0
        assert _close(pk.hyp2f1_kernel(a, b, c, z, wbar),
                      ck.hyp2f1_kernel(a, b, c, z, wbar), rel=5e-13)


@pytest.mark.parametrize("c", [0.75, 1.75, 2.75, -0.25])
def test_hyp2f1_integer_gap_is_nan_on_both_twins(ck, c):
    # the connection formula at an exact integer gap c-a-b (b after the
    # Pfaff transform: a z < 0 call at c - b) has no value; 1e-9 away it
    # has one, to about u/gap
    a, b = 0.3, 0.45
    for z, wbar in ((0.9, 0.1), (1.0 - 1e-8, 1e-8), (-20.0, 0.0)):
        for kernels in (pk, ck):
            assert math.isnan(kernels.hyp2f1_kernel(a, b if z > 0.0 else c - b, c, z, wbar))
        near = c + 1e-9
        bb = b if z > 0.0 else near - b
        pure, compiled = (kernels.hyp2f1_kernel(a, bb, near, z, wbar) for kernels in (pk, ck))
        assert math.isfinite(pure) and _close(pure, compiled, rel=1e-6)


@pytest.mark.parametrize("z", [1.0 + 1e-12, 1.5, 3.0, math.inf, math.nan])
def test_hyp2f1_past_one_is_a_float_nan(backend, z):
    # past z = 1 (1 - z < 0) the connection formula has no real value: both
    # twins return a float NaN, never a complex number
    v = backend.hyp2f1_kernel(0.3, 0.4, 1.2, z, 0.0)
    assert type(v) is float and math.isnan(v), v


def test_hyp2f1_at_one_keeps_its_value(backend):
    assert backend.hyp2f1_kernel(0.3, 0.4, 1.2, 1.0, 0.0) == 1.308072833759087


@pytest.mark.parametrize("index", [0, 1, 2])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hyp2f1_non_finite_order_agrees(ck, index, bad):
    # a NaN or infinite a, b or c on each route, direct (z = 0.4),
    # connection (z = 0.9) and Pfaff (z = -3): the connection formula's gap
    # is then not finite, and both twins return NaN where the pure one once
    # raised from math.floor
    abc = [0.3, 0.45, 1.1]
    abc[index] = bad
    for z in (0.4, 0.9, -3.0):
        wbar = 1.0 - z if z > 0.0 else 0.0
        pure, compiled = (kernels.hyp2f1_kernel(*abc, z, wbar) for kernels in (pk, ck))
        assert math.isnan(pure) == math.isnan(compiled), (abc, z)
        assert math.isnan(pure) or pure == compiled, (abc, z)


def test_wright_series_agrees(ck):
    ua, uA = (0.5, 1.2, 1.9), (0.5, 1.0, 1.0)
    lb, lB = (1.25, 1.4, 2.0), (0.5, 1.0, 1.0)
    for z in (-2.0, 0.0, 0.3, 1.7, 25.0):
        vp = pk.wright_series(ua, uA, lb, lB, z, 1e-14, 10000)
        vc = ck.wright_series(ua, uA, lb, lB, z, 1e-14, 10000)
        assert vp[3] == vc[3]
        assert vp[2] == vc[2]
        assert _close(vp[0], vc[0])
    # both stop at the first term beyond the double range: term 0 here, with
    # an upper pole at term 1, and for e^-800 the first k with 800^k/k! > DBL_MAX
    for args in (((-3.5,), (0.5,), (-171.5,), (0.0,), 0.5),
                 ((1.0,), (1.0,), (1.0,), (1.0,), -800.0)):
        vp = pk.wright_series(*args, 1e-14, 10000)
        vc = ck.wright_series(*args, 1e-14, 10000)
        assert vp[1:] == vc[1:] and vp[1] == math.inf
        assert not (math.isfinite(vp[0]) or math.isfinite(vc[0]))
    k0 = next(k for k in range(2000) if k * math.log(800.0) - math.lgamma(k + 1.0) > 709.79)
    assert k0 <= vp[2] <= k0 + 2


def test_f3_series_agrees(ck):
    rng = random.Random(17)
    for _ in range(30):
        a, ap, b, bp = (rng.uniform(0.1, 1.5) for _ in range(4))
        g = rng.uniform(0.8, 2.5)
        x, y = rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)
        vp = pk.f3_series(a, ap, b, bp, g, x, y, 1e-13, 10000)
        vc = ck.f3_series(a, ap, b, bp, g, x, y, 1e-13, 10000)
        assert _close(vp[0], vc[0])


def row_calls(rng):
    """Seeded rows of each row kernel, as (name, arguments before xs, xs,
    arguments after out), a fresh table standing for [] (None: no table):
    mixed signs, zeros and the z < 2**-1021 route, S rows whose N goes up
    and back down, and in half the rows a bad point (not finite, out of
    the domain, overflowing) in the middle.  Self-contained: the UBSan
    sweep runs its source in a child."""
    import math

    tiny = [5e-324, 1e-310, 2.0 ** -1022, math.nextafter(2.0 ** -1021, 0.0), 2.0 ** -1021]

    def xs(lo, hi, edge, bad):
        row = [rng.uniform(lo, hi) for _ in range(10)] + rng.sample(edge, min(3, len(edge)))
        rng.shuffle(row)
        if rng.random() < 0.5:
            row.insert(rng.randrange(2, len(row) - 1), rng.choice(bad))
        return row

    calls = []
    s_bad = [math.inf, -math.inf, math.nan, 800.0]
    for i, nu in enumerate((-0.75, -0.5, 0.0, 0.25, 2.3, 40.0, rng.uniform(-0.99, 5.0),
                            rng.uniform(5.0, 90.0), 0.5)):
        calls.append(("bs_row", (nu,), xs(-60.0, 60.0, [0.0, -0.0] + tiny, s_bad),
                      (1e-14, (10_000, 10_000, 60)[i % 3], (2.0, 57.5, 1e300, 57.5)[i % 4])))
    for nu in (0.25, -0.75):  # N goes up and back down, and repeats
        calls.append(("bs_row", (nu,), [-5.0, -50.0, -200.0, -50.0, -5.0, -200.5, 3.0, -50.25,
                                        -5.0], (1e-14, 10_000, 57.5)))
    for struve_type in (0, 1):
        for _ in range(6):
            v = rng.choice([0.0, 0.5, -0.5, 2.5, rng.uniform(-0.99, 8.0)])
            if struve_type and rng.random() < 0.3:
                v = rng.choice([-1.0, -1.25])
            units = tuple(rng.uniform(40.0, 90.0) for _ in range(1 + struve_type))
            calls.append(("bessel_type_row", (v,),
                          xs(0.0, 40.0, [0.0, -0.0, 1500.0] + tiny, [-1.0, math.inf, math.nan]),
                          (struve_type, rng.random() < 0.5, 1e-14, rng.choice([10_000, 9]),
                           rng.choice([units, units, (1e300,) * (1 + struve_type)]),
                           (rng.random(), 0.0, 1, True))))
    specs = [((0.5, 1.2, 1.9), (0.5, 1.0, 1.0), (1.25, 1.4, 2.0), (0.5, 1.0, 1.0)),
             ((1.0,), (1.0,), (1.0,), (1.0,)),
             ((-2.25,), (0.5,), (1.5, 0.3), (1.0, 1.0)),
             ((0.5, 1.5), (0.5, 1.0), (-1.0, 1.1), (1.0, 1.0))]
    for cols in specs:
        for image in (None, (rng.uniform(-2.0, 2.0), rng.uniform(-3.0, 3.0),
                             rng.uniform(0.2, 3.0), rng.random() < 0.5),
                      (1.5, 400.0, 0.5, False)):
            lo, edge = (-8.0, [0.0, -0.0]) if image is None else (0.05, [])
            bad = [math.inf, math.nan, 900.0] + ([] if image is None else [0.0, -1.0, 1e-300])
            if image and image[1] == 400.0:
                bad = [7.0]  # x**400 overflows
            calls.append(("wright_row", cols, xs(lo, 5.0, edge, bad),
                          (1e-14, rng.choice([10_000, 10_000, 40]), rng.choice([[], None]),
                           image)))
    return calls


def run_row(kernels, name, before, xs, after):
    """The row kernel call's returned index and its out (which starts with
    a sentinel), then the row of one at each x until the first that it
    does not finish: (that index, their points)."""
    kernel = getattr(kernels, name)
    fresh = [[] if isinstance(a, list) else a for a in after]
    out = ["sentinel"]
    returned = kernel(*before, xs, out, *fresh)
    ones = []
    for x in xs:
        one = []
        fresh = [[] if isinstance(a, list) else a for a in after]
        if kernel(*before, (x,), one, *fresh) == 0:
            break
        ones.append(one[0])
    return returned, out, len(ones), ones


@pytest.mark.parametrize("twin", ["pure", "compiled"])
def test_row_kernels_match_one_point_calls(ck, twin):
    # each row kernel, seeded: tuple for tuple by repr, the points of a row
    # are its rows of one point, and it stops where they first stop, with
    # the same out; a finished point's value and terms are the one-point
    # kernel's
    kernels = pk if twin == "pure" else ck
    for name, before, xs, after in row_calls(random.Random(2035)):
        returned, out, stop, ones = run_row(kernels, name, before, xs, after)
        assert out[0] == "sentinel" and returned == stop == len(out) - 1, (name, before, xs)
        assert list(map(repr, out[1:])) == list(map(repr, ones)), (name, before, xs)
        for x, point in zip(xs, ones):
            if name == "bs_row":
                want = kernels.bs_series(*before, x, *after[:2])
            elif name == "wright_row":
                if after[3] is None:
                    want = kernels.wright_series(*before, x, *after[:2])
                else:  # the image's scaling, as msm wrote it
                    prefactor, power, scale, inverse = after[3]
                    s = prefactor * x ** power
                    want = kernels.wright_series(*before, scale * (1.0 / x if inverse else x),
                                                 *after[:2])
                    want = (s * want[0], abs(s) * want[1], want[2])
                assert repr(point[1]) == repr(want[1]), (name, before, x)
            elif name == "bessel_type_row" and x >= 2.0 ** -1021:
                struve_type, modified, tol, cap = after[:4]
                want = (kernels.struve_series if struve_type else kernels.bessel_series)(
                    *before, x, modified, tol, cap)
                if not math.isfinite(want[0]):
                    continue
            else:
                continue
            assert (repr(point[0]), point[2]) == (repr(want[0]), want[2]), (name, before, x)


def test_row_kernels_stop_alike_on_both_twins(ck):
    # the twins stop each seeded row at the same point, with the same term
    # counts and flags, and values that differ by the ulps of their gamma
    # functions, amplified where a Wright sum cancels
    for name, before, xs, after in row_calls(random.Random(2035)):
        (ip, outp, _, _), (ic, outc, _, _) = (run_row(k, name, before, xs, after) for k in (pk, ck))
        assert ip == ic, (name, before, xs)
        for p, c in zip(outp[1:], outc[1:]):
            assert p[2:] == c[2:], (name, before, xs, p, c)
            assert repr(p[0]) == repr(c[0]) or _close(p[0], c[0], 1e-8), (name, before, xs, p, c)


@pytest.mark.parametrize("name, before, after", [
    ("bs_row", (0.25,), (1e-14, 10_000, 2.0)),
    ("bessel_type_row", (0.5,), (0, 0, 1e-14, 10_000, (50.0,), (0.0, 0.0, 1, True))),
    ("wright_row", ((1.0,), (1.0,), (1.0,), (1.0,)), (1e-14, 10_000, [], None)),
    ("wright_row", ((1.0,), (1.0,), (1.0,), (1.0,)), (1e-14, 10_000, None, (2.0, 0.5, 1.0, 1))),
])
def test_row_kernels_refuse_a_non_number_alike(ck, name, before, after):
    # an empty row finishes at 0; a non-number ends the row with TypeError
    # on both twins, out holding the points before it
    for kernels in (pk, ck):
        kernel, out = getattr(kernels, name), []
        assert kernel(*before, [], out, *after) == 0 and out == []
        with pytest.raises(TypeError):
            kernel(*before, [1.0, 2.0, "3", 4.0], out, *after)
        assert len(out) == 2, (kernels, out)


# subnormal arguments: halving a subnormal last term rounds it to 0, below
# which no next term lies, so the sums must stop after two terms
SUBNORMALS = (5e-324, -5e-324, 1e-323, -1e-323)
SUBNORMAL_SPECS = (((0.5, 1.2), (0.5, 1.0), (1.25, 1.9), (0.5, 1.0)),)


@pytest.mark.parametrize("u", SUBNORMALS)
def test_kernels_at_a_subnormal_argument_stop_at_once(ck, u):
    first = math.gamma(0.5) * math.gamma(1.2) / (math.gamma(1.25) * math.gamma(1.9))
    for kernels in (pk, ck):
        for nu in (-0.75, 0.0, 0.25):  # the odd chain's first term is not 0
            value, err, terms, flag = kernels.bs_series(nu, u, 1e-14, 10_000)
            assert (value, flag) == (1.0, 1) and err < 1e-14, (kernels, nu, u, err)
            assert terms == 2 if u > 0.0 else terms < 100, (kernels, nu, u, terms)
        value, err, terms, status = kernels.wright_series(*SUBNORMAL_SPECS[0], u, 1e-14, 10_000)
        assert (terms, status) == (2, 0) and err <= 1e-323, (kernels, u, err)
        assert _close(value, first, 1e-14), (kernels, u, value)


@pytest.mark.parametrize("nu, u", [(2.3, 5e-324), (10.0, 5e-324), (10.0, 1e-323)])
def test_s_whose_odd_chain_underflows_stops_at_once(ck, nu, u):
    # u times the odd chain's prefactor rounds to 0, so both chains are 0
    # after the leading 1: the tail is exactly 0, and S stops there
    assert u * pk._bs_odd_prefactor(nu) == 0.0
    for kernels in (pk, ck):
        assert kernels.bs_series(nu, u, 1e-14, 10_000) == (1.0, 0.0, 2, 1), kernels


def test_compiled_gamma_reconstruction_meets_bound(ck):
    # the accuracy contract must hold for the libm-backed route as well
    import oracles
    rng = random.Random(4242)
    pts = [rng.uniform(-170.0, 170.0) for _ in range(300)]
    for x in pts:
        if x <= 0 and abs(x - round(x)) <= 1e-6:
            continue
        la, s = ck.lgamma_sign(x)
        assert oracles.rel_err(s * math.exp(la), oracles.mp_gamma(x)) <= 1e-13


# --- the kernel differential sweep -------------------------------------------------
#
# One seeded sweep calls every kernel of both twins at the same points, drawn
# from the domain the library's argument checks accept (McKeeman, Digital
# Technical Journal 10(1), 1998).  The twins must raise the same error class,
# agree on the NaN-ness of every float they return (and on a log-gamma's
# sign and a Wright pole), and give values within the sum of their two
# bounds (Higham 2002, ch. 4).  A value's bound is the one the library
# claims for it: the kernel's tail estimate plus the rounding term the
# wrapper adds (S, J, I, H, L), gammacore's log-gamma error and the F3 tail
# estimate.
# Each kernel gets a few hundred points; the sweep runs once per module.

# S at u, and J/I/H/L at (v, z), whose series leave the double range
OVERFLOW_U = (710.0, 712.0, 800.0, 1e154, 1e300, 1.7e308)
OVERFLOW_VZ = ((0.0, 712.0), (0.0, 1500.0), (2.5, 1500.0), (0.7, 800.0), (150.0, 1e5),
               (1000.0, 1e300), (0.5, 1e155))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kernel=st.sampled_from(["bessel_series", "struve_series"]),
       v=st.floats(-0.99, 40.0), z=st.floats(1e-6, 2000.0),
       tol=st.sampled_from([1e-15, 1e-14, 1e-10, 1e-3]), cap=st.integers(1, 10_000))
def test_bessel_type_sum_of_terms_bounds_the_modified_sum(ck, kernel, v, z, tol, cap):
    # the fifth field is the modified value itself, and for J and H, whose
    # pass stops no earlier and adds the same |terms|, no less than it
    for twin in (pk, ck):
        fn = getattr(twin, kernel)
        modified, plain = fn(v, z, 1, tol, cap), fn(v, z, 0, tol, cap)
        assert repr(modified[4]) == repr(modified[0]), (twin, modified)
        assert plain[2] >= modified[2] and plain[4] >= modified[0], (twin, plain, modified)


def _outcome(kernel, *args):
    try:
        result = kernel(*args)
    except Exception as exc:  # the error class is compared
        return type(exc)
    return result if isinstance(result, tuple) else (result,)


def _bs_bound(args, result, twin):
    nu, u = args[:2]
    bound = result[1]
    if u > 0.0:  # the rounding term bessel_struve_kernel adds, written out
        bound += result[0] * gammacore._U * (series._bs_prefactor_units(nu) + 5.0 * result[2])
    return bound


def _sum_rounding(struve_type, args, result):
    # the J/I and H/L wrappers' rounding bound, on the kernel's sum of |terms|
    v, z = args[:2]
    order, units = v + 1.0 if struve_type else v, series._order_units(struve_type, v)
    return pk._positive_rounding(result[4], result[2], order * math.log(0.5 * z), units)


def _bessel_type_bound(struve_type):
    # the J/I and H/L wrappers' bound: the tail and the rounding of the sum
    def bound(args, result, twin):
        return result[1] + _sum_rounding(struve_type, args, result)
    return bound


def _lgamma_bound(args, result, twin):
    return 2.0 * gammacore._LGAMMA_ULPS * gammacore._U * max(1.0, abs(result[0]))


def _tail(args, result, twin):
    return result[1]


def _pairs(rng):
    return [(rng.uniform(-3.0, 4.0), rng.choice([0.0, 0.5, 1.0, rng.uniform(0.0, 2.0)]))
            for _ in range(rng.randrange(0, 4))]


def _sweep_calls():
    """(kernel name, arguments, bound or None) of every call of the sweep;
    None where the library claims no bound on the value."""
    rng = random.Random(20261019)
    calls = []
    for x in ([rng.uniform(-170.0, 170.0) for _ in range(300)]
              + [1e-300, 1e5 + 0.25, -1e5 - 0.25, 1e300, -3.0 + 1e-11, 0.5]):
        calls.append(("lgamma_sign", (x,), _lgamma_bound))
    for _ in range(250):
        nu = rng.choice([rng.uniform(-0.99, 3.0), rng.uniform(3.0, 60.0)])
        u = rng.choice([rng.uniform(-60.0, 60.0), rng.uniform(-1000.0, 710.0)])
        calls.append(("bs_series", (nu, u, 1e-14, 10_000), _bs_bound))
    for nu, u in ((0.25, 700.0), (-0.75, 710.0), (0.25, 800.0), (0.25, -1e300), (89.5, -3.0)):
        calls.append(("bs_series", (nu, u, 1e-14, 10_000), _bs_bound))
    bessel, struve = _bessel_type_bound(False), _bessel_type_bound(True)
    for _ in range(120):
        for kernel, lowest, bound in (("bessel_series", -1.0, bessel),
                                      ("struve_series", -1.5, struve)):
            v, z = rng.uniform(lowest + 0.01, 6.0), rng.uniform(1e-3, 60.0)
            calls.append((kernel, (v, z, int(rng.random() < 0.5), 1e-14, 10_000), bound))
    for _ in range(250):
        a, b, c = rng.uniform(-2.0, 3.0), rng.uniform(-2.0, 3.0), rng.uniform(0.1, 4.0)
        if rng.random() < 0.1:  # an integer gap c - a - b
            c = a + b + rng.choice([-1.0, 0.0, 1.0, 2.0])
        z = rng.choice([rng.uniform(-50.0, 0.0), rng.uniform(0.0, 0.75), rng.uniform(0.75, 1.0)])
        calls.append(("hyp2f1_kernel", (a, b, c, z, 1.0 - z if z > 0.0 else 0.0), None))
    for bad in (math.nan, math.inf, -math.inf):
        calls.append(("hyp2f1_kernel", (0.3, 0.45, bad, 0.9, 0.1), None))
    while sum(name == "wright_series" for name, _, _ in calls) < 300:
        upper, lower = _pairs(rng), _pairs(rng)
        if sum(B for _, B in lower) - sum(A for _, A in upper) <= -1.0:
            continue  # wright_eval refuses a divergent series
        cols = tuple(tuple(p[i] for p in side) for side in (upper, lower) for i in (0, 1))
        zs = [rng.uniform(0.0, 30.0), rng.uniform(-30.0, 0.0)]
        if rng.random() < 0.2:  # the first term beyond the double range ends the sum
            zs.append(rng.choice([800.0, -800.0]))
        for z in zs:
            calls.append(("wright_series", (*cols, z, 1e-14, rng.choice([10_000, 40])), None))
    for _ in range(40):
        args = [rng.uniform(0.1, 1.5) for _ in range(4)] + [rng.uniform(0.8, 2.5)]
        args += [rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6), 1e-13, 10_000]
        calls.append(("f3_series", tuple(args), _tail))
    # past the double range: the log-gamma of a huge argument, and the
    # series that end at their first non-finite partial sum
    top = math.log10(1.7e308)
    for x in [10.0 ** rng.uniform(300.0, top) for _ in range(20)] + [1.7e308]:
        calls.append(("lgamma_sign", (x,), _lgamma_bound))
    for nu in (-0.75, 0.25, 89.5):
        for u in OVERFLOW_U:
            calls.append(("bs_series", (nu, u, 1e-14, 10_000), _bs_bound))
    cases = list(OVERFLOW_VZ)
    for _ in range(40):
        nu, u = rng.uniform(-0.99, 300.0), 10.0 ** rng.uniform(2.85, top)
        calls.append(("bs_series", (nu, u, 1e-14, 10_000), _bs_bound))
        cases.append((rng.uniform(-0.99, 300.0), 10.0 ** rng.uniform(2.85, top)))
    for v, z in cases:
        for modified in (0, 1):
            calls.append(("bessel_series", (v, z, modified, 1e-14, 10_000), bessel))
            calls.append(("struve_series", (v, z, modified, 1e-14, 10_000), struve))
    for u in SUBNORMALS:
        for nu in (-0.75, 0.0, 0.25, 2.3, 10.0):
            calls.append(("bs_series", (nu, u, 1e-14, 10_000), _bs_bound))
        for spec in SUBNORMAL_SPECS:
            calls.append(("wright_series", (*spec, u, 1e-14, 10_000), None))
    return calls


def _ends_at_non_finite(name, args, pure, compiled):
    """Whether the twins' results past the double range are the same, with
    bound inf and flag 0, and the series ended at its first non-finite
    partial sum: capped two terms short, it is finite (unless the sum of
    the first one or two terms, the S kernel's start, is not)."""
    n = pure[2]
    return (repr(pure) == repr(compiled) and pure[1] == math.inf and pure[3] == 0
            and (n <= 2 or math.isfinite(getattr(pk, name)(*args[:-1], n - 2)[0])))


def _differences(ck):
    """Each call of the sweep at which the twins differ, as (kernel,
    arguments, pure outcome, compiled outcome, what differs); the value
    differences of kernels that claim no bound are kept apart."""
    bounded, unbounded = [], []
    for name, args, bound in _sweep_calls():
        pure, compiled = (_outcome(getattr(twin, name), *args) for twin in (pk, ck))
        if isinstance(pure, type) or isinstance(compiled, type):
            if pure is not compiled:
                bounded.append((name, args, pure, compiled, "error class"))
            continue
        if name in ("bs_series", "bessel_series", "struve_series") and not (
                math.isfinite(pure[0]) and math.isfinite(compiled[0])):
            if not _ends_at_non_finite(name, args, pure, compiled):
                bounded.append((name, args, pure, compiled, "non-finite result"))
            continue
        if [math.isnan(f) for f in pure if isinstance(f, float)] != \
                [math.isnan(f) for f in compiled if isinstance(f, float)]:
            bounded.append((name, args, pure, compiled, "NaN-ness"))
            continue
        if (name == "lgamma_sign" or name == "wright_series" and 2 in (pure[3], compiled[3])) \
                and pure[1:] != compiled[1:]:
            bounded.append((name, args, pure, compiled, "sign or pole"))
            continue
        if name in ("bessel_series", "struve_series") and not (
                abs(pure[4] - compiled[4]) <= sum(_sum_rounding(name == "struve_series", args, r)
                                                  for r in (pure, compiled))):
            bounded.append((name, args, pure, compiled, "sum of |terms| beyond the two bounds"))
            continue
        vp, vc = pure[0], compiled[0]
        if vp == vc or (vp != vp and vc != vc):
            continue
        if bound is None:
            unbounded.append((name, args, pure, compiled, "value, no bound claimed"))
        elif math.isinf(vp) or math.isinf(vc) or \
                not abs(vp - vc) <= bound(args, pure, pk) + bound(args, compiled, ck):
            bounded.append((name, args, pure, compiled, "value beyond the two bounds"))
    return bounded, unbounded


def format_doubles(rng):
    """The numbers the ``format_rows`` twins are checked on: random bit
    patterns, near-halfway 17-digit decimals and exact ties, each 10**k for
    k in [-45, 25] with both its neighbours, the compiled fast path's edges
    (2**-1022, 1e-40 to 1e-39, 2**53, 1e17), subnormals, zeros, infinities,
    NaN and ints up to 2**53.  Self-contained: the UBSan sweep runs its
    source in a child."""
    import math
    import struct

    def double(bits):
        return struct.unpack("<d", struct.pack("<Q", bits))[0]

    out = [double(rng.getrandbits(64)) for _ in range(4000)]
    out += [double(rng.getrandbits(52) | rng.randrange(880, 1090) << 52 | rng.getrandbits(1) << 63)
            for _ in range(8000)]  # binary exponents -143 to 66, around the fast path
    for _ in range(2000):  # below, at and above half a unit of the 17th digit
        d, e = rng.randrange(10 ** 16, 10 ** 17), rng.randrange(-60, 30)
        out += [float(f"{d}{tail}e{e}") for tail in ("4999999", "5", "5000001")]
    out += [j * 2.0 ** -k for k in range(0, 80) for j in (1, 3, 5, 7, 9, 1001)]  # ties
    edges = [float(f"1e{k}") for k in range(-45, 26)]
    edges += [2.0 ** -1022, 1e-40, 1e-39, 9.5e-40, 2.0 ** 53, 1e16, 1e17, 99999999999999984.0]
    for x in edges:
        out += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
    out += [double(rng.getrandbits(52)) for _ in range(200)]  # subnormals
    out += [5e-324, 2.0 ** -1022 - 5e-324, 0.0, math.inf, math.nan]
    out += [-x for x in out]
    return out + [rng.randrange(2 ** 53 + 1) for _ in range(2000)] + [0, 1, 2 ** 53, True]


def test_format_rows_twins_write_the_same_bytes(ck):
    values = format_doubles(random.Random(29))
    for ncols in (1, 3):
        rows = values[:len(values) // ncols * ncols]
        want, got = pk.format_rows(rows, ncols), ck.format_rows(rows, ncols)
        diff = [(v, g, w) for v, g, w in zip(rows, got.split("\n"), want.split("\n")) if g != w]
        assert got == want, diff[:5]
    assert pk.format_rows(values, 1).split("\n") == ["%.17g" % v for v in values]


@pytest.mark.parametrize("values, ncols, error", [
    ([1.0, 2.0], 3, ValueError), ([1.0], 0, ValueError), ([], 0, ValueError),
    ([1.0, "2"], 1, TypeError), ([2 ** 1024], 1, OverflowError), (1.0, 1, TypeError)])
def test_format_rows_twins_refuse_the_same_inputs(ck, values, ncols, error):
    for kernels in (pk, ck):
        with pytest.raises(error):
            kernels.format_rows(values, ncols)


def test_format_rows_of_nothing_is_empty(ck):
    assert pk.format_rows([], 2) == ck.format_rows((), 1) == ""


@pytest.fixture(scope="module")
def differences(ck):
    return _differences(ck)


def test_kernel_twins_agree_across_the_domain(differences):
    bounded, _ = differences
    assert not bounded, bounded[:3]


# the values of the kernels that claim no rounding bound differ beyond
# their tail estimates: a strict xfail each, until a bound is claimed
@pytest.mark.parametrize("kernel", [
    pytest.param("wright_series", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the Wright estimate is the tail alone, with no rounding term (ROADMAP item 1)")),
    pytest.param("hyp2f1_kernel", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="hyp2f1_kernel returns no bound, and its connection formula takes each "
               "twin's own log-gammas")),
])
def test_kernel_twins_agree_where_no_bound_is_claimed(differences, kernel):
    _, unbounded = differences
    differ = [d for d in unbounded if d[0] == kernel]
    assert not differ, differ[:3]


def test_verify_all_on_compiled_backend(ck, monkeypatch):
    # the statuses and point counts of `verify all`, in process on the
    # compiled twin (the pinned report below runs it in a child)
    import oracles
    from bsfrac import _backend
    from bsfrac.checks import run_suite
    from conftest import install_kernels
    install_kernels(monkeypatch, ck)
    assert _backend.BACKEND == "compiled"
    checks = run_suite("all").to_dict()["checks"]
    assert {c["id"]: (c["status"], c["n_points"]) for c in checks} == oracles.VERIFY_ALL


# the command line in a child that names its backend on stderr first
_NAMED_CLI = ("import sys; from bsfrac import _backend; from bsfrac.cli import main; "
              "print(_backend.BACKEND, file=sys.stderr); main(sys.argv[1:])")


def test_compiled_cold_eval_leaves_the_pure_twin_unloaded(compiled_pkg):
    # gammacore.is_pole writes the pole predicate itself, so a compiled eval
    # never imports _pykernels (5.4-8.5 ms of -X importtime)
    code = ("import sys; from bsfrac import _backend; from bsfrac.cli import main; "
            "main(sys.argv[1:]); print(_backend.BACKEND, 'bsfrac._pykernels' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(compiled_pkg))
    env.pop("BSFRAC_PURE_PYTHON", None)
    proc = subprocess.run([sys.executable, "-c", code, "eval", "S", "--nu", "0.25", "--x", "1"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "compiled False", proc.stdout


@pytest.mark.parametrize("backend_name", ["python", "compiled"])
def test_verify_all_report_is_pinned(backend_name, request, tmp_path):
    # every byte of `verify all` but its wall time, against the committed
    # report of each backend, with the default grids
    # (tests/data/verify_all.<backend>.json) and with the bench's second
    # density seed (verify_all.<backend>.seed2723.json); a change that
    # means to alter the report regenerates these files
    import oracles
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    if backend_name == "compiled":
        env["PYTHONPATH"] = str(request.getfixturevalue("compiled_pkg"))
        env.pop("BSFRAC_PURE_PYTHON", None)
    else:
        env["PYTHONPATH"] = str(tests.parent / "src")
        env["BSFRAC_PURE_PYTHON"] = "1"
    seed_grid = tmp_path / "seed2723.json"
    seed_grid.write_text('{"density_seed": 2723}')
    for args, pinned in (((), f"verify_all.{backend_name}.json"),
                         (("--seed-grid", str(seed_grid)),
                          f"verify_all.{backend_name}.seed2723.json")):
        proc = subprocess.run([sys.executable, "-c", _NAMED_CLI, "--format", "json", *args,
                               "verify", "all"],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[0] == backend_name, proc.stderr
        report, n = re.subn(r',\n  "wall_ms": [^\n]*\n', "\n", proc.stdout)
        assert n == 1
        assert report == (tests / "data" / pinned).read_text(), pinned
        if not args:
            checks = json.loads(proc.stdout)["checks"]
            assert {c["id"]: (c["status"], c["n_points"]) for c in checks} == oracles.VERIFY_ALL


# A seeded sweep of every kernel of a build under UBSan, in a child: one
# undefined operation (an out-of-range cast, a signed overflow, a bad
# shift) aborts it.  A call's bits must not depend on the calls before it:
# a shuffled sweep that interleaves orders (and a spec's table-fed Wright
# calls) must give the bits of the same call made right after a call at
# another order; and the results must match the pure twin's.
UBSAN_SWEEP = "".join(inspect.getsource(f) for f in (format_doubles, pole_points,
                                                    wright_pole_rows, row_calls)) + f"""
OVERFLOW_U, OVERFLOW_VZ = {OVERFLOW_U!r}, {OVERFLOW_VZ!r}
SUBNORMALS, SUBNORMAL_SPECS = {SUBNORMALS!r}, {SUBNORMAL_SPECS!r}
""" + r"""
import math, random
from bsfrac import _backend, _ckernels as ck, _pykernels as pk

assert _backend.BACKEND == "compiled"
rng = random.Random(1234)
calls = 0

def close(a, b, rel=5e-15):
    return a == b or (math.isnan(a) and math.isnan(b)) or abs(a - b) <= rel * max(abs(a), abs(b))

def bits(result):
    return tuple(map(repr, result))

def floats(n, lo, hi):
    return [rng.uniform(lo, hi) for _ in range(n)]

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e300, 1e300, -2.0 ** 63, -2.0 ** 63 - 2048.0,
           -1.7e308, 1.7e308, math.inf, -math.inf, math.nan]
# the pole predicate, through the Wright kernel's pole rows
for x in (floats(300, -170.0, 170.0) + SPECIAL + [-(2.0 ** k) - 0.5 for k in range(1, 52)]
          + pole_points(pk.POLE_TOL)):
    calls += 3
    pole = pk._near_nonpositive_int(x)
    rows = wright_pole_rows(ck, x)
    assert rows[0] is pole and (rows[1] or not pole), x
    if -math.inf < x < math.inf:  # the pure lgamma_sign raises at NaN and -inf
        assert rows == wright_pole_rows(pk, x), x
    if not (x > 0.0 or x == x):
        continue
    la, sg = ck.lgamma_sign(x)
    if x <= 0.0 and math.isfinite(x):
        assert sg == (-1 if math.floor(x) % 2 else 1), x
        if -x <= 170.0 and not pole:
            assert sg == pk.lgamma_sign(x)[1] and close(la, pk.lgamma_sign(x)[0], 1e-12), x

def fresh(kernel, *args):
    # kernel(*args) right after a call at another order
    kernel(0.375 if args[0] == 0.125 else 0.125, *args[1:])
    return kernel(*args)

sweep = [(nu, u, cap)
         for nu in [-0.9, -0.5, -0.0, 0.0, 0.25, 0.5, 2.3, 7.0, 9.7, 40.0, 89.0, 89.5, 1e300]
         + floats(4, -0.99, 30.0)
         for u in floats(40, -60.0, 60.0) + [-1000.0, 650.0] + SPECIAL
         for cap in (10000, 60, 1, 0, -5)]
rng.shuffle(sweep)
got = [ck.bs_series(nu, u, 1e-14, cap) for nu, u, cap in sweep]
for (nu, u, cap), result in zip(sweep, got):
    calls += 3
    one = fresh(ck.bs_series, nu, u, 1e-14, cap)
    assert bits(result) == bits(one), (nu, u, cap)
    if cap == 10000 and -60.0 <= u <= 60.0 and (nu < 50.0 or nu in (89.0, 89.5)):
        calls += 1
        want = pk.bs_series(nu, u, 1e-14, cap)
        # the generic-order prefactor goes through each backend's gamma
        assert one[2:] == want[2:] and close(one[0], want[0], 1e-12), (nu, u)

sweep = []
for _ in range(150):
    v, z, m = rng.uniform(-0.9, 3.0), rng.choice(floats(1, 0.01, 30.0) + SPECIAL), rng.random() < 0.5
    for kc, kp in ((ck.bessel_series, pk.bessel_series), (ck.struve_series, pk.struve_series)):
        calls += 1
        cap = rng.choice([10000, 5, 0])
        c = kc(v, z, m, 1e-15, cap)
        if 1e-300 <= z < math.inf:  # the fifth field, the sum of |terms|, is the
            calls += 1              # I or L value, and the pure twin's to rounding
            assert repr(c[4]) == repr(c[0]) if m else c[4] >= abs(c[0]), (kc.__name__, v, z, c)
            assert close(c[4], kp(v, z, m, 1e-15, cap)[4], 1e-12), (kc.__name__, v, z, m, cap)
    a, b, c = rng.uniform(-2, 2), rng.choice([rng.uniform(-2, 2), -1.0, -2.0]), rng.uniform(-3, 3)
    for w in [rng.uniform(-50, 0.9), rng.uniform(0.75, 1.0), 1 - 1e-9, -1e300, math.nan]:
        sweep.append((a, b, c, w, 1.0 - w))
    calls += 1
    ck.f3_series(a, b, c, a, abs(c) + 0.5, rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6),
                 1e-13, rng.choice([10000, 3]))
rng.shuffle(sweep)
got = [ck.hyp2f1_kernel(*args) for args in sweep]
for args, result in zip(sweep, got):
    calls += 3
    assert repr(result) == repr(fresh(ck.hyp2f1_kernel, *args)), args

COEFFS = [0.0, -1.0, -2.0, -0.5, 0.5, 1.0, 1.2, -3.0, -1e300, 1e300]
def pairs():
    return [(rng.choice(COEFFS) if rng.random() < 0.4 else rng.uniform(-6, 6),
             rng.choice([0.0, 0.5, 1.0]) if rng.random() < 0.5 else rng.uniform(0, 2))
            for _ in range(rng.randrange(0, 5))]
for _ in range(300):
    up, lo = pairs(), pairs()
    cols = ([a for a, _ in up], [A for _, A in up], [b for b, _ in lo], [B for _, B in lo])
    cap, rows = rng.choice([10000, 40, 6, 0, -1]), []
    for z in floats(6, -60.0, 60.0) + [0.0, 1e-300, -1e-300, 800.0, -800.0, 1e300]:
        calls += 2
        one = ck.wright_series(*cols, z, 1e-14, cap)
        assert bits(ck.wright_series(*cols, z, 1e-14, cap, rows)) == bits(one), (up, lo, z)
ua, uA, lb, lB = (0.5, 1.2, 1.9), (0.5, 1.0, 1.0), (1.25, 1.4, 2.0), (0.5, 1.0, 1.0)
for z in (-2.0, 0.0, 0.3, 1.7, 25.0):
    calls += 1
    vc, vp = ck.wright_series(ua, uA, lb, lB, z, 1e-14, 10000), pk.wright_series(ua, uA, lb, lB, z, 1e-14, 10000)
    assert vc[2:] == vp[2:] and close(vc[0], vp[0])
for kernel, args in ((ck.bs_series, (0.25, -3.0, 1e-14, 10000)),
                     (ck.hyp2f1_kernel, (0.3, 0.4, 1.2, 0.9, 0.1))):
    calls += 1
    try:
        kernel(*args, {})
    except TypeError:
        pass
    else:
        raise AssertionError(f"{kernel.__name__} took a table")
# past the double range the first non-finite partial sum ends each series,
# alike on both twins, with bound inf and flag 0: capped two terms short,
# the sum is finite
top = math.log10(1.7e308)
over = [(ck.bs_series, pk.bs_series, (nu, u))
        for nu in [-0.75, 0.25, 89.5] + floats(4, -0.99, 300.0)
        for u in OVERFLOW_U + tuple(10.0 ** x for x in floats(6, 2.85, top))]
vz = list(OVERFLOW_VZ) + [(rng.uniform(-0.99, 300.0), 10.0 ** rng.uniform(2.85, top))
                          for _ in range(40)]
over += [(c, p, (v, z, m)) for v, z in vz for m in (0, 1)
         for c, p in ((ck.bessel_series, pk.bessel_series), (ck.struve_series, pk.struve_series))]
for kc, kp, args in over:
    calls += 2
    c, p = kc(*args, 1e-14, 10000), kp(*args, 1e-14, 10000)
    if not (math.isfinite(c[0]) and math.isfinite(p[0])):
        calls += 1
        assert bits(c) == bits(p) and c[1] == math.inf and c[3] == 0, (kc.__name__, args, c, p)
        assert c[2] <= 2 or math.isfinite(kc(*args, 1e-14, c[2] - 2)[0]), (kc.__name__, args)
# subnormal arguments: the twins stop alike, after two terms
for u in SUBNORMALS:
    for nu in (-0.75, 0.0, 0.25, 2.3, 10.0):
        calls += 1
        assert bits(ck.bs_series(nu, u, 1e-14, 10000)) == bits(pk.bs_series(nu, u, 1e-14, 10000))
    for spec in SUBNORMAL_SPECS:
        calls += 1
        c, p = (k.wright_series(*spec, u, 1e-14, 10000) for k in (ck, pk))
        assert c[1:] == p[1:] and c[2:] == (2, 0) and close(c[0], p[0]), (spec, u, c, p)
# the row kernels: seeded rows against the pure twin's (the same stop and
# terms), an empty row, a row that stops at its first point, and a
# non-number in a row
for name, before, xs, after in row_calls(random.Random(2035)) * 2:
    outs = []
    for kernels in (ck, pk):
        out = []
        stop = getattr(kernels, name)(*before, xs, out, *[[] if a == [] else a for a in after])
        outs.append((stop, [p[2:] for p in out]))
    calls += 2
    assert outs[0] == outs[1], (name, before, xs)
    kernel, after = getattr(ck, name), [[] if a == [] else a for a in after]
    for row in ([], [math.nan, 1.0], [math.inf]):
        calls += 1
        out = []
        assert kernel(*before, row, out, *after) == 0 and out == [], (name, row)
    calls += 1
    out = []
    try:  # stops at 0.5 (a capped Wright row) or at None
        assert kernel(*before, [0.5, None, 1.0], out, *after) == 0 and out == [], (name, before)
    except TypeError:
        assert len(out) == 1, (name, before)
# the 192-bit shifts and the limb products of the CSV fast path
values = format_doubles(random.Random(29))
calls += len(values)
assert ck.format_rows(values, 1) == pk.format_rows(values, 1)
print(calls)
"""


def test_kernels_have_no_undefined_behaviour(tmp_path):
    from conftest import compile_ckernels
    flags = ["-fsanitize=undefined,float-cast-overflow", "-fno-sanitize-recover=all"]
    probe = tmp_path / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    cc = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
    if cc is None or subprocess.run([cc, *flags, str(probe), "-o", str(tmp_path / "probe")],
                                    capture_output=True).returncode != 0:
        pytest.skip("the C compiler cannot link the undefined-behaviour sanitizer")
    pkg = tmp_path / "bsfrac"
    shutil.copytree(Path(pk.__file__).parent, pkg,
                    ignore=shutil.ignore_patterns("*.so", "*.c", "__pycache__"))
    proc = compile_ckernels(pkg / ("_ckernels" + sysconfig.get_config_var("EXT_SUFFIX")),
                            *flags)
    assert proc.returncode == 0, proc.stderr
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    env.pop("BSFRAC_PURE_PYTHON", None)
    proc = subprocess.run([sys.executable, "-c", UBSAN_SWEEP], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0 and "runtime error" not in proc.stderr, proc.stderr[-2000:]
    assert int(proc.stdout) > 15_000
