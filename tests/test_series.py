import functools
import math
import random
import re

import mpmath as mp
import pytest

from bsfrac import (
    DomainError,
    SeriesEval,
    bessel_first_kind,
    bessel_struve_kernel,
    struve,
)
from bsfrac import _pykernels

import oracles


def test_series_eval_is_an_immutable_record():
    r = SeriesEval(1.5, 2e-16, 7, True)
    assert SeriesEval._fields == ("value", "abs_error_est", "terms_used", "converged")
    assert (r.value, r.abs_error_est, r.terms_used, r.converged) == (1.5, 2e-16, 7, True)
    assert repr(r) == "SeriesEval(value=1.5, abs_error_est=2e-16, terms_used=7, converged=True)"
    assert r == SeriesEval(1.5, 2e-16, 7, True)
    assert r != SeriesEval(1.5, 2e-16, 7, False)
    assert hash(r) == hash(SeriesEval(1.5, 2e-16, 7, True))
    with pytest.raises(AttributeError):
        r.value = 2.0


class TestBesselStruveKernel:
    def test_exponential_case(self):
        r = bessel_struve_kernel(-0.5, 1.0)
        assert math.isclose(r.value, math.e, rel_tol=1e-13)
        assert r.converged

    def test_at_zero_is_exactly_one(self):
        for nu in (-0.5, -0.1, 0.0, 0.25, 1.0, 4.5):
            r = bessel_struve_kernel(nu, 0.0)
            assert r.value == 1.0
            assert r.abs_error_est == 0.0
            assert r.terms_used == 1

    def test_expm1_case(self):
        r = bessel_struve_kernel(0.5, 2.0)
        assert math.isclose(r.value, (math.exp(2.0) - 1.0) / 2.0, rel_tol=1e-13)

    @pytest.mark.parametrize("u", oracles.linspace(-10.0, 10.0, 41))
    def test_exp_identity_grid(self, u):
        r = bessel_struve_kernel(-0.5, u)
        assert math.isclose(r.value, math.exp(u), rel_tol=1e-12)

    @pytest.mark.parametrize("u", [u for u in oracles.linspace(-10.0, 10.0, 41) if u != 0.0])
    def test_expm1_identity_grid(self, u):
        r = bessel_struve_kernel(0.5, u)
        assert math.isclose(r.value, math.expm1(u) / u, rel_tol=1e-12)

    @pytest.mark.parametrize("u", oracles.linspace(0.5, 20.0, 40))
    def test_zeroth_order_relation(self, u):
        lhs = bessel_struve_kernel(0.0, u).value
        rhs = bessel_first_kind(0.0, u, modified=True).value + struve(0.0, u, modified=True).value
        assert math.isclose(lhs, rhs, rel_tol=1e-10)

    @pytest.mark.parametrize("u", oracles.linspace(0.5, 20.0, 40))
    def test_first_order_relation_corrected(self, u):
        lhs = bessel_struve_kernel(1.0, u).value
        i1 = bessel_first_kind(1.0, u, modified=True).value
        l1 = struve(1.0, u, modified=True).value
        assert math.isclose(lhs, 2.0 * (i1 + l1) / u, rel_tol=1e-10)

    def test_first_order_relation_printed_variant_disagrees(self):
        # the uncorrected variant (2 I_1 + L_1)/u misses the kernel by >1% at u=1
        u = 1.0
        lhs = bessel_struve_kernel(1.0, u).value
        i1 = bessel_first_kind(1.0, u, modified=True).value
        l1 = struve(1.0, u, modified=True).value
        printed = (2.0 * i1 + l1) / u
        assert abs(printed - lhs) / abs(lhs) > 0.01

    def test_matches_high_precision_series(self):
        rng = random.Random(7)
        for _ in range(25):
            nu = rng.uniform(-0.9, 3.0)
            u = rng.uniform(0.0, 15.0)
            r = bessel_struve_kernel(nu, u)
            assert oracles.rel_err(r.value, oracles.mp_kernel(nu, u)) <= 1e-12

    def test_negative_argument_general_order(self):
        for nu, u in [(0.0, -10.0), (0.25, -6.0), (1.0, -15.0)]:
            r = bessel_struve_kernel(nu, u)
            assert oracles.rel_err(r.value, oracles.mp_kernel(nu, u)) <= 5e-11

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_struve_kernel(-1.0, 1.0)
        with pytest.raises(DomainError):
            bessel_struve_kernel(0.5, math.inf)

    def test_overflow_is_loud(self, backend):
        # never a non-finite value: e^710 overflows the converged sum, and
        # at u = 800 the sum ends at its first non-finite partial sum
        for nu, u in ((-0.75, 710.0), (0.25, 800.0), (0.25, 1e300), (0.25, 1.7e308)):
            message = f"Bessel-Struve series at u={u!r} exceeds double range"
            with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
                bessel_struve_kernel(nu, u)
        r = bessel_struve_kernel(0.25, 700.0)
        assert r.converged and r.value == 6.410481518224758e+301
        # at u < 0 S decays like 1/|u|: S_0.25(-800) is about 1e-3
        r = bessel_struve_kernel(0.25, -800.0)
        assert r.converged and abs(r.value - 1.0433e-3) < 1e-7
        assert abs(r.value - oracles.mp_kernel_left(0.25, 800.0)) <= r.abs_error_est

    def test_large_negative_u_is_summed_within_its_bound(self, backend):
        # where the alternating power series overflows, the positive-term
        # series converges; past the term cap nothing is summed
        for nu, u in ((0.25, -800.0), (-0.9, -1097.5), (10.0, -1000.0)):
            r = bessel_struve_kernel(nu, u)
            assert r.converged, (nu, u, r)
            assert abs(r.value - oracles.mp_kernel_left(nu, -u)) <= r.abs_error_est, (nu, u)
        assert bessel_struve_kernel(0.25, -1e300) == SeriesEval(0.0, math.inf, 0, False)

    def test_negative_u_within_bound(self, backend):
        # |value - S| <= abs_error_est against mpmath, converged or not
        for nu in (-0.9, -0.75, -0.6, 0.25, 0.7, 2.3, 9.7):
            for u in (-1e-9, -0.3, -1.1, -2.5, -7.0, -20.0, -47.0, -120.0, -999.5):
                r = bessel_struve_kernel(nu, u)
                err = abs(mp.mpf(r.value) - oracles.mp_kernel_left(nu, -u))
                assert err <= r.abs_error_est, (nu, u, r, err)
                assert r.converged or nu < -0.5, (nu, u, r)

    def test_positive_u_within_bound(self, backend):
        # the bound adds the positive sum's rounding to its tail estimate:
        # near u = 0.05-0.1 the error is up to twice the tail estimate alone
        cases = [(0.25, 0.046875), (2.3, 0.109375)]
        # 2 nu an integer (-1/2, 0, 1/2, 1, 2) takes the double-double prefactor
        cases += [(nu, k / 16) for nu in (-0.5, 0.0, 0.25, 0.5, 1.0, 2.0, 2.3, 9.7)
                  for k in range(1, 321)]
        for nu, u in cases:
            r = bessel_struve_kernel(nu, u)
            assert r.converged, (nu, u, r)
            err = abs(mp.mpf(r.value) - oracles.mp_kernel_right(nu, u))
            assert err <= r.abs_error_est, (nu, u, r, err)
        # the tail estimate alone missed these two
        for nu, u in cases[:2]:
            r = bessel_struve_kernel(nu, u)
            tail = backend.bs_series(nu, u, 1e-14, 10_000)[1]
            assert tail < abs(mp.mpf(r.value) - oracles.mp_kernel_right(nu, u)) < r.abs_error_est

    def test_deterministic(self):
        a = bessel_struve_kernel(0.3, 5.1)
        b = bessel_struve_kernel(0.3, 5.1)
        assert a == b


@pytest.mark.parametrize("fn", [bessel_struve_kernel, bessel_first_kind, struve])
def test_bad_order_and_tolerance_rejected_up_front(fn):
    # each of these once burned the whole term cap or failed inside a kernel
    with pytest.raises(DomainError):
        fn(math.nan, 1.0)
    for tol in (0.0, -1e-14, math.nan):
        with pytest.raises(DomainError):
            fn(0.25, 1.0, tol=tol)


def _wright(nu, z, **kwargs):
    from bsfrac import WrightSpec, wright_eval

    return wright_eval(WrightSpec(((1.0, 1.0),), ((nu + 1.0, 1.0),)), z, **kwargs)


@pytest.mark.parametrize("fn", [bessel_struve_kernel, bessel_first_kind, struve, _wright])
def test_bad_term_cap_rejected_up_front(fn, backend):
    # the compiled kernels take the cap as a C int: past it they raised a
    # bare OverflowError where the pure ones summed on
    for term_cap in (0, -1, 2**31, 3_000_000_000, 1.5, True, "10", None):
        with pytest.raises(DomainError, match="term cap"):
            fn(0.25, 1.0, term_cap=term_cap)
    assert fn(0.25, 1.0, term_cap=2**31 - 1) == fn(0.25, 1.0)


@pytest.mark.parametrize("fn, v", [(bessel_first_kind, -0.5), (struve, -1.2)])
def test_infinite_value_at_zero_is_not_converged(fn, v, backend):
    # J_v(0) for -1 < v < 0 and H_v(0) for v < -1 are infinite: the bound
    # is infinite too, and the value is not converged
    for modified in (False, True):
        assert fn(v, 0.0, modified=modified) == SeriesEval(math.inf, math.inf, 1, False)


# J and H values whose whole bound reaches |value|: the sum cancels away every
# digit at z of about 40 and more, and J_0 at its first zero is all rounding
NO_CORRECT_DIGIT = [
    (bessel_first_kind, 2.9168301041613356, 51.53782334515692),
    (struve, 1.5242628776956824, 57.26492541978892),
    (bessel_first_kind, 0.3, 40.0),
    (bessel_first_kind, 0.0, 2.404825557695773),
]


@pytest.mark.parametrize("fn, v, z", NO_CORRECT_DIGIT)
def test_value_with_no_correct_digit_is_not_converged(fn, v, z, backend):
    r = fn(v, z)
    assert r.abs_error_est >= abs(r.value) and not r.converged, r
    # the modified series at the same point sums positive terms and converges
    assert fn(v, z, modified=True).converged


def test_cli_exits_1_where_no_digit_is_correct(backend):
    from conftest import run_cli

    res = run_cli(["eval", "J", "--nu", "2.9168301041613356", "--x", "51.53782334515692"])
    assert res.exit_code == 1
    assert res.stderr.splitlines()[-1] == "Error: J at x=51.53782334515692 did not converge"


# --- a seeded audit of S, J, I, H and L against mpmath --------------------------


def _mp_bs(nu, u):
    """S_nu(u) by a direct mpmath sum of its even and odd chains, t(n+2) =
    t(n) u^2 / ((n+2)(n+2nu+2)), with the working precision raised for the
    cancellation at u < 0, where the largest term is near e^|u|."""
    with mp.workdps(30 + int(abs(u) / math.log(10))):
        nu, u = mp.mpf(nu), mp.mpf(u)
        chains = [mp.mpf(1), mp.gamma(nu + 1) / (mp.sqrt(mp.pi) * mp.gamma(nu + 1.5)) * u]
        s, n, eps = sum(chains), 0, mp.eps
        while n < abs(u) or abs(chains[0]) + abs(chains[1]) > eps * abs(s):
            for i in (0, 1):
                chains[i] *= u * u / ((n + i + 2) * (n + i + 2 * nu + 2))
            s += chains[0] + chains[1]
            n += 2
        return s


@functools.cache
def _audit_points():
    """(function, its arguments, mpmath reference) at 40 seeded points per
    function: nu in (-0.95, 12), u in [-40, 40] for S and z in (0, 40] for
    J, I, H and L."""
    rng = random.Random(3)
    points = []
    for _ in range(40):
        nu, u = rng.uniform(-0.95, 12.0), rng.uniform(-40.0, 40.0)
        points.append((bessel_struve_kernel, (nu, u), _mp_bs(nu, u)))
    for fn, ref in ((bessel_first_kind, oracles.mp_bessel), (struve, oracles.mp_struve)):
        for modified in (False, True):
            for _ in range(40):
                nu, z = rng.uniform(-0.95, 12.0), 40.0 * (1.0 - rng.random())
                points.append((fn, (nu, z, modified), ref(nu, z, modified)))
    return points


def test_converged_values_lie_within_their_bound_of_mpmath(backend):
    # every converged value across the sampled domain, on both backends
    converged = 0
    for fn, args, want in _audit_points():
        r = fn(*args)
        if r.converged:
            converged += 1
            assert abs(mp.mpf(r.value) - want) <= r.abs_error_est, (fn.__name__, args, r)
    assert converged >= 180, converged


def test_two_over_pi_is_correctly_rounded():
    # the integer-order prefactor starts from 2/pi: a double-double whose
    # high word is 2/pi rounded and whose low word is the remainder rounded
    with mp.workdps(60):
        two_over_pi = 2 / mp.pi
        hi = float(two_over_pi)
        assert _pykernels._TWO_OVER_PI == (hi, float(two_over_pi - hi))


class TestBessel:
    def test_j_at_zero(self):
        assert bessel_first_kind(0.0, 0.0).value == 1.0
        assert bessel_first_kind(0.7, 0.0).value == 0.0

    def test_half_order_sine(self):
        z = math.pi / 2.0
        r = bessel_first_kind(0.5, z)
        want = math.sqrt(2.0 / (math.pi * z)) * math.sin(z)
        assert math.isclose(r.value, want, rel_tol=1e-13)
        assert math.isclose(r.value, 2.0 / math.pi, rel_tol=1e-13)

    def test_modified_small_argument_frozen(self):
        r = bessel_first_kind(1.0, 0.01, modified=True)
        assert math.isclose(r.value, oracles.I1_AT_0_01, rel_tol=1e-13)

    def test_against_mpmath(self):
        rng = random.Random(11)
        for _ in range(25):
            v = rng.uniform(-0.9, 4.0)
            z = rng.uniform(0.01, 12.0)
            modified = rng.random() < 0.5
            r = bessel_first_kind(v, z, modified=modified)
            assert oracles.rel_err(r.value, oracles.mp_bessel(v, z, modified)) <= 1e-11

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_first_kind(-1.2, 1.0)
        with pytest.raises(DomainError):
            bessel_first_kind(0.5, -0.1)


class TestStruve:
    def test_at_zero(self):
        assert struve(0.0, 0.0).value == 0.0
        assert struve(0.0, 0.0, modified=True).value == 0.0

    def test_minus_half_sinh(self):
        r = struve(-0.5, 1.0, modified=True)
        want = math.sqrt(2.0 / math.pi) * math.sinh(1.0)
        assert math.isclose(r.value, want, rel_tol=1e-13)
        assert math.isclose(r.value, oracles.LM_HALF_AT_1, rel_tol=1e-13)

    def test_modified_first_order_frozen(self):
        r = struve(1.0, 0.5, modified=True)
        assert math.isclose(r.value, oracles.L1_AT_0_5, rel_tol=1e-13)

    def test_against_mpmath(self):
        rng = random.Random(13)
        for _ in range(25):
            v = rng.uniform(-1.4, 4.0)
            z = rng.uniform(0.01, 12.0)
            modified = rng.random() < 0.5
            r = struve(v, z, modified=modified)
            assert oracles.rel_err(r.value, oracles.mp_struve(v, z, modified)) <= 1e-11

    def test_domain_error(self):
        with pytest.raises(DomainError):
            struve(-1.6, 1.0)


# the J, I, H and L functions' abs_error_est adds a rounding bound to the
# tail bound: it holds against 40-digit mpmath on z = k/16 in (0, 20], at
# small z, and at subnormal z, where 0.5 * z rounds (to zero at the
# smallest); on the grid it is no looser than 1e-13 of the sum of |terms|,
# which is the modified function's value (J and H alternate with the I and
# L magnitudes)
IL_BOUND_CASES = [(bessel_first_kind, oracles.mp_bessel, nu, modified)
                  for modified in (True, False) for nu in (-0.9, 0.0, 0.7, 2.3)]
IL_BOUND_CASES += [(struve, oracles.mp_struve, nu, modified)
                   for modified in (True, False) for nu in (-1.4, -0.9, 0.0, 0.7, 2.3)]


def _bound_id(fn, nu, modified):
    if modified:
        return f"{fn.__name__}-{nu}"
    return f"{fn.__name__}-{'J' if fn is bessel_first_kind else 'H'}-{nu}"


@pytest.mark.parametrize("fn, ref, nu, modified", IL_BOUND_CASES,
                         ids=[_bound_id(fn, nu, m) for fn, _, nu, m in IL_BOUND_CASES])
def test_modified_error_bound_holds(fn, ref, nu, modified):
    grid = [1e-8, 1e-3] + [k / 16 for k in range(1, 321)]
    for z in [5e-324, 1e-323, 2.0 ** -1022] + grid:
        r = fn(nu, z, modified=modified)
        assert r.converged
        assert abs(mp.mpf(r.value) - ref(nu, z, modified)) <= r.abs_error_est, (z, r)
        if z in grid:
            assert r.abs_error_est <= 1e-13 * fn(nu, z, modified=True).value, (z, r)


@pytest.mark.parametrize("modified", [False, True], ids=["H", "L"])
def test_struve_at_order_minus_one_and_zero_bounds_its_rounding(modified):
    # H and L at v = -1, z = 0 are their leading term 1/(Gamma(3/2) Gamma(1/2)),
    # 2/pi rounded: not exact, so the bound is the leading term's, not zero
    r = struve(-1.0, 0.0, modified=modified)
    assert r.converged and r.terms_used == 1
    assert r.value == 1.0 / (math.gamma(1.5) * math.gamma(0.5))
    err = abs(mp.mpf(r.value) - oracles.mp_struve(-1.0, 0.0, modified))
    assert 0.0 < err <= r.abs_error_est <= struve(-1.0, 1e-300, modified=modified).abs_error_est


def test_bessel_overflow_ends_the_sum(backend, monkeypatch):
    # the terms leave the double range: each series kernel ends at its first
    # non-finite partial sum (it once ran the whole term cap), and the
    # wrapper returns NaN for J and H, inf for I and L; each J, I, H or L
    # point, finite or not, takes one row-kernel call (J and H once took two)
    from types import SimpleNamespace

    from bsfrac import series

    for kernel, args in ((backend.bs_series, (0.25, 800.0)),
                         (backend.bessel_series, (0.0, 1500.0, 0)),
                         (backend.struve_series, (0.7, 800.0, 1))):
        value, err, terms, flag = kernel(*args, 1e-14, 10_000)[:4]
        assert math.isinf(value) and err == math.inf and flag == 0 and terms < 500, args
    calls = []

    def counted(name):
        def kernel(*args):
            calls.append(args)
            return getattr(backend, name)(*args)
        return kernel

    monkeypatch.setattr(series, "kernels", SimpleNamespace(
        bessel_type_row=counted("bessel_type_row")))
    cases = [(fn, name, v, z, modified)
             for fn, name in ((bessel_first_kind, "bessel_series"), (struve, "struve_series"))
             for v in (0.0, 2.5) for z in (712.0, 1500.0) for modified in (0, 1)]
    for fn, name, v, z, modified in cases:
        calls.clear()
        r = fn(v, z, modified=bool(modified))
        terms = getattr(backend, name)(v, z, modified, 1e-14, 10_000)[2]
        assert len(calls) == 1, (fn, v, z, modified)
        want = SeriesEval(math.inf if modified else math.nan, math.inf, terms, False)
        assert repr(r) == repr(want), (fn, v, z, modified)
    finite = [(fn, name, 0.7, 3.5, modified)
              for fn, name in ((bessel_first_kind, "bessel_series"), (struve, "struve_series"))
              for modified in (0, 1)] + [(bessel_first_kind, "bessel_series", 0.3, 40.0, 0)]
    for fn, name, v, z, modified in finite:
        calls.clear()
        r = fn(v, z, modified=bool(modified))
        value, err, terms, flag = getattr(backend, name)(v, z, modified, 1e-14, 10_000)[:4]
        assert len(calls) == 1, (fn, v, z, modified)
        assert (r.value, r.terms_used) == (value, terms) and r.abs_error_est > err, (fn, v, z, r)
        # J_0.3(40) cancels: the tail test passes, the whole bound reaches |value|
        assert flag == 1 and r.converged is (z < 40.0), (fn, v, z, r)



class TestGauss2F1:
    """``kernels.hyp2f1_kernel`` on both backends against closed forms and
    mpmath: its direct series, the Pfaff transform at z < 0 and the
    connection formula at z > 0.75, where wbar = 1 - z is passed exactly."""

    def test_binomial_reduction(self, ck):
        for kernels in (_pykernels, ck):
            got = kernels.hyp2f1_kernel(2.0, 1.5, 1.5, 0.25, 0.75)
            assert math.isclose(got, (1.0 - 0.25) ** -2.0, rel_tol=1e-12)

    def test_log_reduction(self, ck):
        for kernels in (_pykernels, ck):
            got = kernels.hyp2f1_kernel(1.0, 1.0, 2.0, 0.5, 0.5)
            assert math.isclose(got, -math.log(0.5) / 0.5, rel_tol=1e-12)

    def test_at_zero(self, ck):
        for kernels in (_pykernels, ck):
            assert kernels.hyp2f1_kernel(0.3, 0.7, 1.1, 0.0, 1.0) == 1.0

    def test_pfaff_negative_arguments(self, ck):
        rng = random.Random(17)
        for _ in range(20):
            a = rng.uniform(0.1, 2.0)
            b = rng.uniform(0.1, 2.0)
            c = rng.uniform(0.5, 3.0)
            z = -rng.uniform(0.01, 30.0)
            want = oracles.mp_2f1(a, b, c, z)
            for kernels in (_pykernels, ck):
                got = kernels.hyp2f1_kernel(a, b, c, z, 0.0)
                assert oracles.rel_err(got, want) <= 1e-11, (kernels, a, b, c, z)

    def test_connection_branch(self, ck):
        rng = random.Random(19)
        for _ in range(20):
            a = rng.uniform(0.1, 2.0)
            b = rng.uniform(0.1, 2.0)
            c = rng.uniform(0.5, 3.0)
            if abs((c - a - b) - round(c - a - b)) < 0.05:
                continue  # the connection formula needs c - a - b off the integers
            wbar = 2.0 ** -rng.randrange(3, 40)  # exact, as is z = 1 - wbar
            want = oracles.mp_2f1(a, b, c, 1.0 - wbar)
            for kernels in (_pykernels, ck):
                got = kernels.hyp2f1_kernel(a, b, c, 1.0 - wbar, wbar)
                assert oracles.rel_err(got, want) <= 1e-11, (kernels, a, b, c, wbar)

    # a connection coefficient over Gamma at a pole is 0.0: c - a = -1,
    # c - b = -1, a = -2 (a polynomial), and after the Pfaff transform of
    # z = -9 to 0.9, b -> c - b = -2
    RGAMMA_ZEROS = [(1.5, 0.3, 0.5, 0.9, 0.1), (0.3, 2.5, 1.5, 0.8, 0.2),
                    (-2.0, 0.7, 1.3, 0.9, 0.1), (0.4, 3.5, 1.5, -9.0, 0.0)]

    def test_reciprocal_gamma_zero_coefficients(self, ck):
        for a, b, c, z, wbar in self.RGAMMA_ZEROS:
            want = oracles.mp_2f1(a, b, c, z)
            for kernels in (_pykernels, ck):
                got = kernels.hyp2f1_kernel(a, b, c, z, wbar)
                assert oracles.rel_err(got, want) <= 1e-11, (kernels, a, b, c, z, got)


class TestAppellF3:
    """``kernels.f3_series`` on both backends."""

    def test_collapse_matches_2f1_even_with_wild_y(self, ck):
        # alpha' = 0 ends the y sum after its first row, whatever y is
        for kernels in (_pykernels, ck):
            got = kernels.f3_series(0.7, 0.0, 0.4, 0.9, 1.2, 0.3, -7.0, 1e-14, 10_000)
            want = kernels.hyp2f1_kernel(0.7, 0.4, 1.2, 0.3, 0.7)
            assert math.isclose(got[0], want, rel_tol=1e-13) and got[3] == 1

    def test_x_collapse(self, ck):
        # alpha = 0 leaves T(0, n) alone in each row: a 2F1 in y
        for kernels in (_pykernels, ck):
            got = kernels.f3_series(0.0, 0.5, 0.8, 0.25, 1.1, 0.9, 0.4, 1e-14, 10_000)
            want = kernels.hyp2f1_kernel(0.5, 0.25, 1.1, 0.4, 0.6)
            assert math.isclose(got[0], want, rel_tol=1e-13) and got[3] == 1

    def test_origin(self, ck):
        for kernels in (_pykernels, ck):
            assert kernels.f3_series(0.3, 0.4, 0.5, 0.6, 1.2, 0.0, 0.0, 1e-14, 10_000)[0] == 1.0

    def test_symmetry_grid(self, ck):
        rng = random.Random(23)
        for _ in range(15):
            a, ap, b, bp = (rng.uniform(0.1, 1.5) for _ in range(4))
            g = rng.uniform(0.8, 2.5)
            x = rng.uniform(-0.45, 0.45)
            y = rng.uniform(-0.45, 0.45)
            for kernels in (_pykernels, ck):
                lhs = kernels.f3_series(a, ap, b, bp, g, x, y, 1e-14, 10_000)[0]
                rhs = kernels.f3_series(ap, a, bp, b, g, y, x, 1e-14, 10_000)[0]
                assert math.isclose(lhs, rhs, rel_tol=1e-12)

    def test_against_mpmath_double_series(self, ck):
        rng = random.Random(29)
        for _ in range(10):
            a, ap, b, bp = (rng.uniform(0.1, 1.5) for _ in range(4))
            g = rng.uniform(0.8, 2.5)
            x = rng.uniform(-0.6, 0.6)
            y = rng.uniform(-0.6, 0.6)
            want = oracles.mp_f3(a, ap, b, bp, g, x, y)
            for kernels in (_pykernels, ck):
                got = kernels.f3_series(a, ap, b, bp, g, x, y, 1e-14, 10_000)[0]
                assert oracles.rel_err(got, want) <= 1e-11

    def test_converged_estimates_bound(self, ck):
        for kernels in (_pykernels, ck):
            value, err, _, ok = kernels.f3_series(0.3, 0.4, 0.5, 0.6, 1.2, 0.4, 0.3, 1e-12,
                                                  10_000)
            assert ok and err <= 1e-12 * abs(value)


def test_negative_argument_and_subnormal_overflow(backend):
    with pytest.raises(DomainError, match="^argument must be finite and nonnegative$"):
        struve(0.5, -1.0)
    # (z/2)**v / Gamma(v+1) at the smallest subnormal z is beyond the double range
    assert bessel_first_kind(-0.999, 5e-324) == SeriesEval(math.inf, math.inf, 1, False)
