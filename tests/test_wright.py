import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsfrac import (
    BsfracError,
    ConvergenceError,
    DomainError,
    PoleError,
    TermCapError,
    WrightSpec,
    pochhammer,
    wright,
    wright_delta,
    wright_eval,
)
from bsfrac.series import DEFAULT_TOL, TERM_CAP, linspace

import oracles
from conftest import in_threads, run_cli

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


def test_kernel_stops_at_the_first_overflowing_term():
    # term 0, Gamma(-3.5)/Gamma(-171.5), is beyond the double range and
    # term 1 hits an upper pole: the sum ends at term 0, not at the pole
    spec = WrightSpec(((-3.5, 0.5),), ((-171.5, 0.0),))
    value, err, terms, status = wright.kernels.wright_series(*spec.columns, 0.5, 1e-14, 10_000)
    assert (math.isfinite(value), err, terms, status) == (False, math.inf, 1, 0)
    with pytest.raises(OverflowError, match="exceeds double range"):
        wright_eval(spec, 0.5)


def test_negative_slope_rejected():
    with pytest.raises(ValueError):
        WrightSpec(((1.0, -0.5),), ((1.0, 1.0),))


# the one-pass constructor keeps the errors' order: every pair is made
# float first, then the pair counts are checked, then the first bad value
# is named, its slope before its coefficient
@pytest.mark.parametrize("upper, lower, error, message", [
    (((math.nan, 1.0), (1.0, -1.0)), (), DomainError, "coefficients must be finite, got nan"),
    (((1.0, -1.0), (math.nan, 1.0)), (), DomainError, "slopes must be finite and >= 0, got -1.0"),
    (((math.nan, -1.0),), (), DomainError, "slopes must be finite and >= 0, got -1.0"),
    (((1.0, 1.0),), ((math.inf, 0.5), (1.0, math.nan)), DomainError,
     "coefficients must be finite, got inf"),
    (((1.0, 1.0),), ((1.0, math.inf),), DomainError, "slopes must be finite and >= 0, got inf"),
    (((1.0, 1.0),) * 32 + ((math.nan, 1.0),), (), DomainError,
     "at most 32 upper and 32 lower pairs are supported, got 33 and 0"),
    (((math.nan, -1.0),), ((1.0, -2.0),) * 33, DomainError,
     "at most 32 upper and 32 lower pairs are supported, got 1 and 33"),
    (((math.nan, 1.0),), (("x", 1.0),), ValueError, "could not convert string to float: 'x'"),
    (((1.0, -1.0),), ((1.0, None),), TypeError,
     "float() argument must be a string or a real number, not 'NoneType'"),
    (((1.0, 1.0, 1.0),), (), ValueError, "too many values to unpack (expected 2)"),
], ids=range(10))
def test_spec_errors_keep_their_type_message_and_order(backend, upper, lower, error, message):
    with pytest.raises(error) as info:
        WrightSpec(upper, lower)
    assert type(info.value) is error and str(info.value) == message


def test_spec_takes_lists_and_generators(backend):
    want = WrightSpec(((0.5, 0.5), (1.0, 1.0)), ((1.25, 0.5), (2.0, 1.0)))
    for make in (tuple, list, iter, lambda pairs: (pair for pair in pairs)):
        got = WrightSpec(make([(0.5, 0.5), [1, 1]]), make([(1.25, 0.5), (2, True)]))
        assert got == want and (got.delta, got.columns) == (want.delta, want.columns)
        assert [type(v) for pair in got.upper + got.lower for v in pair] == [float] * 8
        assert wright_eval(got, 0.7) == wright_eval(want, 0.7)
    empty = WrightSpec(iter(()), [])
    assert (empty, empty.delta, empty.columns) == (((), ()), 0.0, ((), (), (), ()))


# coefficients that put upper parameters on gamma poles and kill lower
# terms, slopes of the theorems and between, and arguments from far
# negative through zero and tiny
_COEFFS = st.one_of(st.sampled_from([0.0, -1.0, -2.0, -3.0, -0.5, -2.5, 0.5, 1.0, 1.2]),
                    st.floats(-6.0, 6.0))
_SLOPES = st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                    st.floats(0.0, 2.0, exclude_min=True, exclude_max=True))
_PAIRS = st.lists(st.tuples(_COEFFS, _SLOPES), max_size=4).map(tuple)
_ARGS = st.one_of(st.floats(-60.0, 60.0), st.sampled_from([0.0, 1e-300, -1e-300]))


def _outcome(evaluate, z):
    """Every field of the result, bit for bit (repr round-trips a float),
    or the error class."""
    try:
        return tuple(map(repr, evaluate(z)))
    except (BsfracError, ArithmeticError) as exc:
        return type(exc)


def _table_free(spec, z, term_cap):
    """The kernel's call without a table, mapped to the outcome that
    ``_outcome`` gives for ``wright_eval`` (z is finite here)."""
    if spec.delta <= -1.0:
        return ConvergenceError
    value, err, terms, status = wright.kernels.wright_series(*spec.columns, z, DEFAULT_TOL,
                                                             term_cap)
    if status == 2:
        return PoleError
    if not math.isfinite(value):
        return OverflowError
    if status == 1:
        return TermCapError
    return tuple(map(repr, (value, err, terms, True)))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_PAIRS, _PAIRS, st.lists(_ARGS, min_size=1, max_size=12),
       st.sampled_from([TERM_CAP, 40, 6]), st.randoms(use_true_random=False))
def test_evaluator_matches_wright_eval(upper, lower, zs, term_cap, rng):
    # one spec's table shared by every point, in shuffled order, against a
    # fresh spec per point and the kernel's table-free call; a small cap
    # reaches the cap path
    spec = WrightSpec(upper, lower)
    rng.shuffle(zs)
    for z in zs:
        got = _outcome(lambda z: wright_eval(spec, z, DEFAULT_TOL, term_cap), z)
        fresh = WrightSpec(upper, lower)
        assert not fresh._rows
        want = _outcome(lambda z: wright_eval(fresh, z, DEFAULT_TOL, term_cap), z)
        assert got == want == _table_free(spec, z, term_cap), (spec, z, term_cap)


def test_spec_identity_ignores_rows():
    # two specs of the same pairs are equal, hash alike and print alike
    # whatever their tables hold
    spec = WrightSpec(THEOREM_SPEC.upper, THEOREM_SPEC.lower)
    fresh = WrightSpec(THEOREM_SPEC.upper, THEOREM_SPEC.lower)
    wright_eval(spec, 3.0)
    assert spec._rows and not fresh._rows
    assert spec == fresh and hash(spec) == hash(fresh) and repr(spec) == repr(fresh)
    assert "rows" not in repr(spec)


def _record_tables(monkeypatch):
    """Record the table of every kernel call the Wright module makes: row
    calls, and the one-point call that finds a failing point's error."""
    kernels, tables = wright.kernels, []

    def wright_row(*args):
        tables.append(args[8])
        return kernels.wright_row(*args)

    def wright_series(*args):
        tables.append(args[7])
        return kernels.wright_series(*args)

    monkeypatch.setattr(wright, "kernels", SimpleNamespace(wright_row=wright_row,
                                                           wright_series=wright_series))
    return tables


def test_evaluator_tabulates_each_term_once(monkeypatch):
    # a 200-point sweep of one spec shares its table, which holds one row
    # per term up to the longest series' stopping term
    tables = _record_tables(monkeypatch)
    spec = WrightSpec(THEOREM_SPEC.upper, THEOREM_SPEC.lower)
    results = [wright_eval(spec, z) for z in linspace(-10.0, 10.0, 200)]
    assert len(tables) == 200 and all(t is spec._rows for t in tables)
    assert 0 < len(spec._rows) <= max(r.terms_used for r in results) + 1


def test_evaluator_stops_at_the_first_overflowing_term(monkeypatch):
    # e^z at z = -800: term k = 800^k/k! first exceeds the double range at
    # k0; no row beyond it is built
    k0 = next(k for k in range(1000) if k * math.log(800.0) - math.lgamma(k + 1.0) > 709.79)
    tables = _record_tables(monkeypatch)
    res = run_cli(["eval", "wright", "--x=-800", "--upper", "1,1", "--lower", "1,1"])
    assert res.exit_code == 1
    assert res.stderr == ("Error: wright at x=-800.0: wright series at z=-800.0 "
                          "exceeds double range\n")
    assert len(tables) == 2 and tables[0] is tables[1]  # the row, then its error
    assert k0 - 1 < len(tables[0]) <= k0 + 1


def test_evaluator_shared_by_threads():
    # threads sweeping one spec through wright_eval grow its table at once;
    # every value must still be the kernel's
    zs = linspace(-30.0, 30.0, 61)
    spec = WrightSpec(THEOREM_SPEC.upper, THEOREM_SPEC.lower)
    want = [_table_free(spec, z, TERM_CAP) for z in zs]
    results = {}

    def sweep(i):
        results[i] = [tuple(map(repr, wright_eval(spec, z)))
                      for z in (zs if i % 2 else zs[::-1])]

    in_threads(sweep)
    assert spec._rows
    for i in range(6):
        assert results[i] == (want if i % 2 else want[::-1])
