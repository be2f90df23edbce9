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


# gamma_ratio tests each argument once, denominators first: every argument
# must be finite before a denominator pole gives 0.0 or the first numerator
# pole raises
@pytest.mark.parametrize("nums, dens, outcome", [
    ((math.nan, 1.5), (-2.0,), (DomainError, "gamma argument must be finite, got nan")),
    ((-1.0, 2.5), (-3.0, 1.5), 0.0),
    ((-1.0, math.inf), (1.5,), (DomainError, "gamma argument must be finite, got inf")),
    ((1.5,), (-2.0, math.nan), (DomainError, "gamma argument must be finite, got nan")),
    ((math.nan,), (-math.inf,), (DomainError, "gamma argument must be finite, got -inf")),
    ((0.5, -1.0, -2.0), (1.5,), (PoleError, "gamma pole in numerator at -1.0")),
    ((1e-13, 2.5), (1.5,), (PoleError, "gamma pole in numerator at 1e-13")),
    (("x",), (1.5,), (TypeError, "must be real number, not str")),
    ((3.0, 2.0 + 1e-13), (4.0,), 1.0 / 3.0),
    ((3, 2), (4,), 1.0 / 3.0),
], ids=range(10))
def test_gamma_ratio_outcomes_keep_their_order(backend, nums, dens, outcome):
    if isinstance(outcome, float):
        assert gamma_ratio(nums, dens) == outcome
        return
    error, message = outcome
    with pytest.raises(error) as info:
        gamma_ratio(nums, dens)
    assert type(info.value) is error and str(info.value) == message


def test_gamma_ratio_takes_lists_and_generators(backend):
    for make in (tuple, list, iter, lambda values: (v for v in values)):
        assert gamma_ratio(make([1.2, 0.7]), make([1.5])) == gamma_ratio((1.2, 0.7), (1.5,))
        assert gamma_ratio(make([4, 3.0]), make([2.0])) == 12.0
        assert gamma_ratio(make([1.5]), make([-1.0])) == 0.0
        assert gamma_ratio(make([]), make([])) == 1.0


def test_gamma_ratio_pole_test_is_is_pole(backend):
    rng = random.Random(28)
    xs = ([rng.uniform(-30.0, 30.0) for _ in range(300)]
          + [k + d for k in range(-5, 6)
             for d in (0.0, -0.0, 1e-12, -1e-12, 1.1e-12, -1.1e-12, 0.5, -0.5)]
          + [5e-324, -5e-324, 1e-12, 1.0000000000001e-12])
    for x in xs:
        assert (gamma_ratio((1.5,), (x,)) == 0.0) is is_pole(x), x
        if is_pole(x):
            with pytest.raises(PoleError):
                gamma_ratio((x,), (1.5,))


def test_gamma_ratio_overflow():
    with pytest.raises(OverflowError):
        gamma_ratio([200.0, 200.0], [2.0])


def test_huge_arguments_agree_on_both_backends(backend):
    # past about 2.6e305 log Gamma(x) is inf: the pure twin raised there,
    # and the compiled gamma_ratio returned inf, or NaN at inf - inf
    assert ln_gamma_signed(1.7e308) == (math.inf, 1)
    for nums, dens in (((1.7e308,), (1.0,)), ((1.7e308,), (1.7e308,))):
        with pytest.raises(OverflowError):
            gamma_ratio(nums, dens)
    assert gamma_ratio((1.0,), (1.7e308,)) == 0.0  # underflows


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


def test_pochhammer_zero_factor_is_exact():
    # the product once reached inf before its zero factor and gave NaN
    assert pochhammer(-300.0, 400) == 0.0
    assert pochhammer(-3.0, 4) == pochhammer(-3, 5) == 0.0
    assert pochhammer(-3.0, 3) == -6.0  # the zero factor lies past n
    with pytest.raises(OverflowError):
        pochhammer(-300.0, 300)  # (-300)(-299)...(-1) = 300!


def test_pochhammer_stops_at_the_first_infinite_product():
    # n = 10**7 once multiplied on through every factor past overflow
    factors = []

    class Counted(float):
        def __add__(self, k):
            factors.append(k)
            return float(self) + k

    with pytest.raises(OverflowError, match=r"^pochhammer\(2\.0, 10000000\) exceeds double range$"):
        pochhammer(Counted(2.0), 10**7)
    # 170! < DBL_MAX < 171!: (2)_169 = 170! is finite and (2)_170 = 171! is not
    assert len(factors) == 170


@pytest.mark.parametrize("a, n", [(1.5, -1), (1.5, 1.5), (1.5, True), (1.5, False), (1.5, "3"),
                                  (1.5, None), (math.nan, 2), (math.inf, 0), (-math.inf, 3)])
def test_pochhammer_bad_input_is_domain_error(a, n):
    with pytest.raises(DomainError, match="^pochhammer (order|argument) must be"):
        pochhammer(a, n)


@given(st.floats(min_value=0.1, max_value=20.0), st.integers(min_value=0, max_value=25))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_pochhammer_matches_gamma_ratio(a, n):
    want = gamma_ratio([a + n], [a])
    assert math.isclose(pochhammer(a, n), want, rel_tol=1e-10)
