import math
import random

import pytest

from bsfrac import (
    ConvergenceError,
    DomainError,
    PoleError,
    TermCapError,
    WrightSpec,
    pochhammer,
    wright_delta,
    wright_eval,
)

import oracles

# the 4Psi4 spec shape produced by the left-operator image theorem
THEOREM_SPEC = WrightSpec(
    upper=((0.5, 0.5), (1.0, 1.0), (1.9, 1.0), (1.2, 1.0)),
    lower=((1.25, 0.5), (1.4, 1.0), (2.0, 1.0), (1.7, 1.0)),
)


def test_delta_examples():
    assert wright_delta(THEOREM_SPEC) == 0.0
    assert wright_delta(WrightSpec((), ())) == 0.0
    assert wright_delta(WrightSpec(((1.0, 1.0),), ((1.0, 2.0),))) == 1.0


def test_exponential_series():
    r = wright_eval(WrightSpec(((1.0, 1.0),), ((1.0, 1.0),)), 1.0)
    assert math.isclose(r.value, math.e, rel_tol=1e-12)


def test_shifted_exponential_series():
    r = wright_eval(WrightSpec(((1.0, 1.0),), ((2.0, 1.0),)), 1.0)
    assert math.isclose(r.value, math.e - 1.0, rel_tol=1e-12)


def test_degenerate_theorem_spec_collapses_to_expm1():
    # rho=1, gamma=1, all operator parameters 0, nu=-1/2: everything cancels
    # except Gamma(1+k)/Gamma(2+k)
    spec = WrightSpec(
        upper=((0.5, 0.5), (1.0, 1.0), (2.0, 1.0), (1.0, 1.0)),
        lower=((0.5, 0.5), (1.0, 1.0), (2.0, 1.0), (2.0, 1.0)),
    )
    r = wright_eval(spec, 1.0)
    assert math.isclose(r.value, math.e - 1.0, rel_tol=1e-12)


def test_pair_insertion_invariance():
    rng = random.Random(31)
    for _ in range(20):
        c = rng.uniform(0.2, 5.0)
        slope = rng.choice([0.5, 1.0, 2.0])
        z = rng.uniform(-2.0, 2.0)
        base = wright_eval(THEOREM_SPEC, z)
        padded = WrightSpec(((c, slope),) + THEOREM_SPEC.upper,
                            ((c, slope),) + THEOREM_SPEC.lower)
        r = wright_eval(padded, z)
        assert math.isclose(r.value, base.value, rel_tol=1e-12)


def test_all_slope_one_matches_pochhammer_pfq():
    uppers = ((1.3, 1.0), (0.7, 1.0))
    lowers = ((2.1, 1.0), (1.1, 1.0))
    spec = WrightSpec(uppers, lowers)
    rng = random.Random(37)
    for _ in range(10):
        z = rng.uniform(-2.0, 2.0)
        got = wright_eval(spec, z).value
        # independent route: front factor times the Pochhammer-ratio series
        front = (math.gamma(1.3) * math.gamma(0.7)
                 / (math.gamma(2.1) * math.gamma(1.1)))
        s = 0.0
        for k in range(80):
            s += (pochhammer(1.3, k) * pochhammer(0.7, k)
                  / (pochhammer(2.1, k) * pochhammer(1.1, k))
                  * z ** k / math.factorial(k))
        assert math.isclose(got, front * s, rel_tol=1e-10)


def test_matches_mpmath_sum():
    r = wright_eval(THEOREM_SPEC, 1.7)
    want = oracles.mp_wright(THEOREM_SPEC.upper, THEOREM_SPEC.lower, 1.7)
    assert oracles.rel_err(r.value, want) <= 1e-12


def test_entire_smoke_large_argument():
    r = wright_eval(THEOREM_SPEC, 50.0)
    assert r.converged
    assert r.terms_used < 10_000
    want = oracles.mp_wright(THEOREM_SPEC.upper, THEOREM_SPEC.lower, 50.0)
    assert oracles.rel_err(r.value, want) <= 1e-12


def test_zero_argument_single_term():
    r = wright_eval(THEOREM_SPEC, 0.0)
    assert r.terms_used == 1
    assert r.abs_error_est == 0.0


def test_convergence_error():
    spec = WrightSpec(((1.0, 2.0),), ((1.0, 1.0),))  # delta = -1
    with pytest.raises(ConvergenceError):
        wright_eval(spec, 0.5)


def test_upper_pole_error():
    spec = WrightSpec(((-3.0, 1.0), (1.0, 1.0)), ((1.0, 1.0), (1.0, 1.0)))
    with pytest.raises(PoleError):
        wright_eval(spec, 0.5)


def test_lower_pole_zeroes_term_only():
    # lower parameter -2 + k crosses poles at k = 0, 1, 2 and recovers
    spec = WrightSpec(((1.0, 1.0),), ((-2.0, 1.0),))
    r = wright_eval(spec, 0.5)
    want = sum(math.gamma(1.0 + k) * 0.5 ** k / math.gamma(-2.0 + k)
               / math.factorial(k) for k in range(3, 60))
    assert math.isclose(r.value, want, rel_tol=1e-12)


def test_term_cap_error():
    with pytest.raises(TermCapError):
        wright_eval(WrightSpec(((1.0, 1.0),), ((1.0, 1.0),)), 30.0, term_cap=5)


def test_bad_inputs_rejected_up_front():
    e_spec = WrightSpec(((1.0, 1.0),), ((1.0, 1.0),))
    for tol in (0.0, -1e-14, math.nan):
        with pytest.raises(DomainError):
            wright_eval(e_spec, 1.0, tol=tol)
    for z in (math.nan, math.inf):
        with pytest.raises(DomainError):
            wright_eval(e_spec, z)
    with pytest.raises(DomainError):
        WrightSpec(((math.nan, 1.0),), ((1.0, 1.0),))


@pytest.mark.parametrize("z", [800.0, -800.0])
def test_overflow_is_loud(z):
    # e^800 and the alternating terms of e^-800 exceed double range
    with pytest.raises(OverflowError, match="exceeds double range"):
        wright_eval(WrightSpec(((1.0, 1.0),), ((1.0, 1.0),)), z)


def test_negative_slope_rejected():
    with pytest.raises(ValueError):
        WrightSpec(((1.0, -0.5),), ((1.0, 1.0),))
