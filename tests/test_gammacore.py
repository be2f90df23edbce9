import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsfrac import DomainError, PoleError, gamma_ratio, ln_gamma_signed, pochhammer
from bsfrac.gammacore import is_pole

import oracles


def test_half_integer_values():
    g = ln_gamma_signed(0.5)
    assert g.sign == 1
    assert math.isclose(g.log_abs, 0.5 * math.log(math.pi), rel_tol=1e-15)
    g = ln_gamma_signed(-0.5)
    assert g.sign == -1
    assert math.isclose(g.value(), -2.0 * math.sqrt(math.pi), rel_tol=1e-14)
    g = ln_gamma_signed(5.0)
    assert g.sign == 1
    assert math.isclose(g.value(), 24.0, rel_tol=1e-14)


@pytest.mark.parametrize("x,sign", [(-0.5, -1), (-1.5, 1), (-2.5, -1), (-3.7, 1), (0.3, 1), (7.2, 1)])
def test_sign_pattern(x, sign):
    assert ln_gamma_signed(x).sign == sign


@pytest.mark.parametrize("x", [0.0, -1.0, -3.0, -7.0, -2.0 + 1e-13, -5.0 - 5e-13, 1e-13])
def test_pole_error(x):
    with pytest.raises(PoleError):
        ln_gamma_signed(x)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_argument_is_domain_error(x):
    # the pure kernel raised from math.floor there, and the compiled one
    # returned (nan, -1) at NaN and -inf; neither value is a pole
    assert is_pole(x) is False
    with pytest.raises(DomainError, match="^gamma argument must be finite"):
        ln_gamma_signed(x)
    for nums, dens in (([x], [1.0]), ([1.0], [x]), ([x], [0.0]), ([1.5, x], [])):
        with pytest.raises(DomainError, match="^gamma argument must be finite"):
            gamma_ratio(nums, dens)


def test_just_outside_pole_tolerance():
    assert not is_pole(-2.0 + 1e-11)
    ln_gamma_signed(-2.0 + 1e-11)  # must not raise


def test_reconstruction_accuracy_against_mpmath():
    rng = random.Random(20240811)
    pts = [rng.uniform(-170.0, 170.0) for _ in range(400)]
    pts += [170.0, 169.5, -169.95, -0.5, -1.5, 1e-6, 0.99999]
    for x in pts:
        if x <= 0 and abs(x - round(x)) <= 1e-6:
            continue
        g = ln_gamma_signed(x)
        rec = g.sign * math.exp(g.log_abs)
        assert oracles.rel_err(rec, oracles.mp_gamma(x)) <= 1e-13, x


def test_gamma_ratio_examples():
    assert gamma_ratio([1.0], [2.0]) == 1.0
    assert math.isclose(gamma_ratio([3.0], [4.0]), 1.0 / 3.0, rel_tol=1e-15)
    assert gamma_ratio([0.5, 2.0], [1.5, -2.0]) == 0.0


def test_gamma_ratio_numerator_pole():
    with pytest.raises(PoleError):
        gamma_ratio([-1.0], [2.0])


def test_gamma_ratio_overflow():
    with pytest.raises(OverflowError):
        gamma_ratio([200.0, 200.0], [2.0])


def test_gamma_ratio_exact_integer_path():
    assert gamma_ratio([1.0, 2.0], [3.0]) == 0.5
    assert gamma_ratio([2.0, 3.0], [5.0]) == 1.0 / 12.0
    assert gamma_ratio([7.0], [5.0]) == 30.0


@given(st.floats(min_value=0.05, max_value=60.0))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_recurrence_property(x):
    assert math.isclose(gamma_ratio([x + 1.0], [x]), x, rel_tol=1e-12)


@given(st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_reflection_property(x):
    g1 = ln_gamma_signed(x)
    g2 = ln_gamma_signed(1.0 - x)
    lhs = g1.sign * g2.sign * math.exp(g1.log_abs + g2.log_abs)
    assert math.isclose(lhs, math.pi / math.sin(math.pi * x), rel_tol=1e-10)


def test_pochhammer_examples():
    assert pochhammer(3.0, 4) == 360.0
    assert pochhammer(-7.3, 0) == 1.0
    assert pochhammer(0.0, 2) == 0.0


def test_pochhammer_overflow():
    with pytest.raises(OverflowError):
        pochhammer(250.0, 200)


@given(st.floats(min_value=0.1, max_value=20.0), st.integers(min_value=0, max_value=25))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_pochhammer_matches_gamma_ratio(a, n):
    want = gamma_ratio([a + n], [a])
    assert math.isclose(pochhammer(a, n), want, rel_tol=1e-10)
