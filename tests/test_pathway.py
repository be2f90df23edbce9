import math
import random
import sys

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from bsfrac import (
    FunctionKind,
    PathwayDensityParams,
    PathwayParams,
    PreconditionError,
    Regime,
    pathway_bs_closed_form,
    pathway_density,
    pathway_norm_const,
    pathway_power_image,
    pathway_quadrature,
)
from bsfrac import _backend

import oracles

SIMPLE = PathwayParams(1.0, 1.0, 0.0)
GENERIC = PathwayParams(0.7, 1.3, 0.4)


class TestOperator:
    def test_simple_monomial(self):
        r = pathway_quadrature(SIMPLE, FunctionKind.monomial(1.0), 2.0)
        assert math.isclose(r.value, 2.0, rel_tol=1e-13)

    def test_quadratic_weight(self):
        params = PathwayParams(2.0, 1.0, 0.0)
        r = pathway_quadrature(params, FunctionKind.monomial(2.0), 1.0)
        assert math.isclose(r.value, 1.0 / 12.0, rel_tol=1e-12)

    def test_power_image_simple_is_exact(self):
        img = pathway_power_image(SIMPLE, 1.0)
        assert img.prefactor == 0.5
        assert img.power_of_x == 2.0
        x = 1.7
        assert img.value_at(x).value == 0.5 * x ** 2.0

    def test_power_image_quadratic(self):
        img = pathway_power_image(PathwayParams(2.0, 1.0, 0.0), 2.0)
        assert img.prefactor == 1.0 / 12.0
        assert img.power_of_x == 4.0

    def test_power_image_matches_quadrature(self):
        img = pathway_power_image(GENERIC, 1.6)
        for x in (0.5, 1.0, 2.0):
            want = pathway_quadrature(GENERIC, FunctionKind.monomial(1.6), x)
            assert math.isclose(img.value_at(x).value, want.value, rel_tol=1e-9)

    def test_closed_form_matches_quadrature(self):
        kind = FunctionKind.bs_kernel(1.1, 0.25, 0.5)
        img = pathway_bs_closed_form(GENERIC, kind)
        got = img.value_at(1.0).value
        want = pathway_quadrature(GENERIC, kind, 1.0)
        assert math.isclose(got, want.value, rel_tol=1e-8)

    def test_closed_form_matches_termwise_oracle(self):
        kind = FunctionKind.bs_kernel(1.1, 0.25, 0.5)
        img = pathway_bs_closed_form(GENERIC, kind)
        for x in (0.6, 1.0, 1.9):
            got = img.value_at(x).value
            want = oracles.termwise_image(
                lambda n: pathway_power_image(GENERIC, 1.1 + n), 0.25, 0.5, x)
            assert math.isclose(got, want, rel_tol=1e-10)

    def test_zero_scale_reduces_to_power_image(self):
        kind = FunctionKind.bs_kernel(1.1, 0.25, 0.0)
        img = pathway_bs_closed_form(GENERIC, kind)
        r = img.value_at(1.4)
        assert r.terms_used == 1
        assert r.abs_error_est == 0.0
        want = pathway_power_image(GENERIC, 1.1).value_at(1.4)
        assert math.isclose(r.value, want.value, rel_tol=1e-15)

    def test_exponential_case(self):
        img = pathway_bs_closed_form(SIMPLE, FunctionKind.exp_kernel(1.0))
        r = img.value_at(1.0)
        assert math.isclose(r.value, oracles.E_MINUS_2, rel_tol=1e-12)
        q = pathway_quadrature(SIMPLE, FunctionKind.exp_kernel(1.0), 1.0)
        assert math.isclose(q.value, oracles.E_MINUS_2, rel_tol=1e-11)

    def test_expm1_case_matches_quadrature(self):
        kind = FunctionKind.expm1_over_t(1.2)
        img = pathway_bs_closed_form(GENERIC, kind)
        q = pathway_quadrature(GENERIC, kind, 0.8)
        assert math.isclose(img.value_at(0.8).value, q.value, rel_tol=1e-9)

    def test_wright_delta_always_zero(self):
        from bsfrac import wright_delta
        kind = FunctionKind.bs_kernel(1.1, 0.25, 0.5)
        img = pathway_bs_closed_form(GENERIC, kind)
        assert wright_delta(img.spec) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(PreconditionError):
            PathwayParams(1.0, -1.0, 0.0)
        with pytest.raises(PreconditionError):
            PathwayParams(1.0, 1.0, 1.2)
        with pytest.raises(PreconditionError):
            PathwayParams(-2.0, 1.0, 0.0)  # eta/(1-alpha) = -2
        with pytest.raises(PreconditionError):
            pathway_power_image(SIMPLE, 0.0)


@pytest.mark.parametrize("index", range(3))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_operator_parameter_rejected(index, bad):
    # a = inf and pathway_alpha = -inf once passed every check and gave 0
    args = [0.7, 1.3, 0.4]
    args[index] = bad
    with pytest.raises(PreconditionError, match="must be finite"):
        PathwayParams(*args)


class TestDensity:
    @pytest.mark.parametrize("index", range(5))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(self, index, bad):
        # a NaN pathway_alpha once took the LIMIT branch, and a NaN or
        # infinite beta_shape failed inside the gamma functions
        args = [1.0, 1.0, 1.0, 1.0, 0.5]
        args[index] = bad
        with pytest.raises(PreconditionError, match="must be finite"):
            PathwayDensityParams(*args)

    def test_triangular(self):
        dp = PathwayDensityParams(1.0, 1.0, 1.0, 1.0, 0.0)
        assert dp.regime is Regime.SUB
        assert pathway_norm_const(dp) == 1.0
        assert pathway_density(dp, 0.5) == 0.5
        assert pathway_density(dp, 1.5) == 0.0
        assert dp.support_radius == 1.0

    def test_cauchy(self):
        dp = PathwayDensityParams(1.0, 2.0, 1.0, 1.0, 2.0)
        assert dp.regime is Regime.SUPER
        c = pathway_norm_const(dp)
        assert math.isclose(c, 1.0 / math.pi, rel_tol=1e-14)
        assert math.isclose(pathway_density(dp, 0.0), 1.0 / math.pi, rel_tol=1e-14)
        assert math.isclose(pathway_density(dp, 1.0), 1.0 / (2.0 * math.pi), rel_tol=1e-13)

    def test_standard_normal(self):
        dp = PathwayDensityParams(1.0, 2.0, 0.5, 1.0, 1.0)
        assert dp.regime is Regime.LIMIT
        c = pathway_norm_const(dp)
        assert math.isclose(c, 1.0 / math.sqrt(2.0 * math.pi), rel_tol=1e-14)
        assert math.isclose(pathway_density(dp, 1.0),
                            math.exp(-0.5) / math.sqrt(2.0 * math.pi), rel_tol=1e-13)

    def test_quadratic_beta_constant(self):
        dp = PathwayDensityParams(2.0, 1.0, 2.0, 1.0, 0.0)
        assert pathway_norm_const(dp) == 6.0
        total, _ = scipy_quad(lambda x: pathway_density(dp, x), -1.0, 1.0)
        assert abs(total - 1.0) <= 1e-9

    def test_super_existence_condition(self):
        with pytest.raises(PreconditionError):
            pathway_norm_const(PathwayDensityParams(3.0, 1.0, 1.0, 1.0, 2.0))

    @pytest.mark.parametrize("seed", range(6))
    def test_normalization_random_admissible(self, seed):
        rng = random.Random(1000 + seed)
        regime = ("sub", "super", "limit")[seed % 3]
        if regime == "sub":
            dp = PathwayDensityParams(rng.uniform(0.6, 2.5), rng.uniform(0.6, 2.5),
                                      rng.uniform(0.2, 2.0), rng.uniform(0.5, 2.0),
                                      rng.uniform(-1.0, 0.8))
            lim = dp.support_radius
            total, _ = scipy_quad(lambda x: pathway_density(dp, x), -lim, lim,
                                  points=[0.0], limit=200)
        else:
            while True:
                gamma_shape = rng.uniform(0.6, 2.0)
                delta = rng.uniform(0.8, 2.2)
                a = rng.uniform(0.5, 2.0)
                if regime == "limit":
                    beta = rng.uniform(0.5, 2.0)
                    alpha = 1.0
                    dp = PathwayDensityParams(gamma_shape, delta, beta, a, alpha)
                    break
                alpha = rng.uniform(1.2, 2.5)
                beta = rng.uniform(0.5, 3.0)
                if beta / (alpha - 1.0) - gamma_shape / delta > 0.2:
                    dp = PathwayDensityParams(gamma_shape, delta, beta, a, alpha)
                    break
            total, _ = scipy_quad(lambda x: pathway_density(dp, x), 0.0, math.inf,
                                  limit=200)
            total *= 2.0
        assert abs(total - 1.0) <= 1e-6


# pathway_density values pinned bit for bit: all three regimes, x = 0 with
# gamma_shape <, = and > 1, points on both sides of the SUB support edge,
# and the log|x| > 200 tails of SUPER and LIMIT.  The backends' lgamma may
# differ by an ulp in the normalizing constant, so a row whose values then
# differ carries its compiled-backend values as well.
DENSITY_GOLDEN = [
    (PathwayDensityParams(1.5, 1.5, 2.0, 0.8, 0.4), [0.0, 0.3, -1.1, 1.6, 1.7, -2.5],
     [0.0, 0.649758191102438, 0.1110912905647388, 1.4031978302009091e-05, 0.0, 0.0],
     None),
    (PathwayDensityParams(1.0, 2.0, 1.0, 1.0, 0.0), [0.0, 0.5, -0.999, 1.0],
     [0.7500000000000002, 0.5625000000000002, 0.0014992499999999802, 0.0],
     [0.75, 0.5625, 0.0014992499999999798, 0.0]),
    (PathwayDensityParams(1.5, 1.5, 2.0, 0.8, 1.6), [0.0, 0.7, -3.0, 40.0, 1e90],
     [0.0, 0.3077500437121381, 0.022475021727139707, 5.829963395319702e-07, 0.0],
     [0.0, 0.30775004371213804, 0.022475021727139704, 5.829963395319701e-07, 0.0]),
    (PathwayDensityParams(0.8, 1.0, 2.0, 1.3, 2.0), [0.0, 2.5, -1e90, 1e130, 1e200],
     [math.inf, 0.026594855886284838, 3.414104409583623e-199, 3.414104409583582e-287, 0.0],
     [math.inf, 0.02659485588628482, 3.414104409583623e-199, 3.414104409583582e-287, 0.0]),
    (PathwayDensityParams(1.0, 2.0, 0.5, 1.0, 1.0), [0.0, 0.5, -2.0, 50.0, 1e100],
     [0.39894228040143276, 0.3520653267642996, 0.05399096651318807, 0.0, 0.0],
     None),
    (PathwayDensityParams(0.7, 1.2, 1.5, 0.9, 1.0), [0.0, 0.25, -3.0, 1e90],
     [math.inf, 0.5487692743811357, 0.002165763506440477, 0.0],
     None),
]


@pytest.mark.parametrize("dp, xs, want, want_compiled", DENSITY_GOLDEN)
def test_density_values_are_pinned(dp, xs, want, want_compiled):
    if _backend.BACKEND == "compiled" and want_compiled is not None:
        want = want_compiled
    assert [pathway_density(dp, x) for x in xs] == want


# the error bounds of the pinned values above, row for row, on the pure and
# the compiled backend (None where they agree), as the density's separate
# bound closure once gave them: one pass for value and bound kept the bits
DENSITY_BOUND_GOLDEN = [
    ([0.0, 1.798630980900354e-14, 3.365434234749853e-15, 1.3052369236210847e-18, 0.0, 0.0],
     None),
    ([9.661092836561018e-15, 7.822984868743918e-15, 4.3804807104028955e-16,
      1.131712152515797e-15],
     [9.661092836561015e-15, 7.822984868743915e-15, 4.3804807104028945e-16,
      1.131712152515797e-15]),
    ([0.0, 5.521577031537119e-15, 4.4141747342269746e-16, 1.3368633630712011e-20, 5e-324],
     [0.0, 5.521577031537118e-15, 4.414174734226974e-16, 1.336863363071201e-20, 5e-324]),
    ([math.inf, 4.204340751634947e-16, 1.0903872951635732e-211, 1.5512129400805567e-299, 5e-324],
     [math.inf, 4.204340751634944e-16, 1.0903872951635732e-211, 1.5512129400805567e-299,
      5e-324]),
    ([1.7940470502612346e-15, 1.837307135711409e-15, 3.267166854895043e-16, 5e-324, 5e-324],
     None),
    ([math.inf, 2.805717307557877e-15, 1.5658683990986928e-17, 5e-324], None),
]


@pytest.mark.parametrize("golden, bounds, bounds_compiled",
                         [(g, *b) for g, b in zip(DENSITY_GOLDEN, DENSITY_BOUND_GOLDEN)],
                         ids=[f"row{i}" for i in range(len(DENSITY_GOLDEN))])
def test_density_bounds_are_pinned(golden, bounds, bounds_compiled):
    from bsfrac.pathway import _density

    dp, xs, want, want_compiled = golden
    if _backend.BACKEND == "compiled":
        want, bounds = want_compiled or want, bounds_compiled or bounds
    density = _density(dp)
    assert [density(x, True) for x in xs] == list(zip(want, bounds))


@st.composite
def _density_draws(draw):
    """An admissible parameter set of one of the three regimes, and any finite x."""
    regime = draw(st.sampled_from(["sub", "super", "limit"]))
    g = draw(st.floats(0.3, 6.0))
    d = draw(st.floats(0.2, 8.0))
    a = draw(st.floats(1e-2, 1e2))
    if regime == "sub":
        alpha, beta = draw(st.floats(-3.0, 0.999)), draw(st.floats(0.0, 30.0))
    elif regime == "limit":
        alpha, beta = 1.0, draw(st.floats(0.01, 30.0))
    else:
        alpha = draw(st.floats(1.01, 4.0))
        beta = (alpha - 1.0) * (g / d) * draw(st.floats(1.001, 8.0))
    return (g, d, beta, a, alpha), draw(st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_density_draws())
def test_density_value_is_the_same_with_its_bound(draw):
    # the value alone (the quadrature integrand) and the value that comes
    # with the bound are the same bits, in every regime
    from bsfrac.pathway import _density

    params, x = draw
    density = _density(PathwayDensityParams(*params))
    value, bound = density(x, True)
    assert repr(density(x)) == repr(value), (params, x)
    assert bound >= 0.0, (params, x, bound)


# parameter sets of the three regimes for the density's error bound, with
# the relative bound allowed away from the SUB edge and the far tails: the
# SUB ones reach their support edge (one with beta_shape = 0, where the
# density jumps to zero there, one with a large base exponent), the SUPER
# and LIMIT ones their log|x| > 200 tails and subnormal values (the SUPER
# one with exponent 20 near x = 5e15); in the last SUPER one the gamma
# argument beta/(alpha-1) - gamma/delta is 1e-7, so the rounding of
# beta/(alpha-1) moves the norm constant by 3e-10; the three with delta = 4
# (SUB, LIMIT, SUPER) take x = 1e80, where |x|**delta overflows below
# log|x| = 200
BOUND_CASES = [
    ((1.5, 1.5, 2.0, 0.8, 0.4), 1e-12),
    ((1.0, 2.0, 1.0, 1.0, 0.0), 1e-12),
    ((3.0, 0.7, 25.0, 2.0, -1.5), 1e-12),
    ((1.27, 1.29, 0.0, 0.47, 0.68), 1e-12),
    ((1.5, 1.5, 2.0, 0.8, 1.6), 1e-12),
    ((0.8, 1.0, 2.0, 1.3, 2.0), 1e-12),
    ((1.0, 2.0, 1.0, 1.0, 2.0), 1e-12),
    ((4.0, 0.5, 9.0, 2.5, 1.5), 1e-12),
    ((0.5, 1.0, 20.0, 1.0, 2.0), 1e-12),
    ((1.0, 1.0, (1.7 - 1.0) * (1.0 + 1e-7), 1.0, 1.7), 1e-7),
    ((1.0, 2.0, 0.5, 1.0, 1.0), 1e-12),
    ((0.7, 1.2, 1.5, 0.9, 1.0), 1e-12),
    ((6.0, 0.3, 2.0, 0.2, 1.0), 1e-12),
    ((1.0, 0.01, 1.0, 1.0, 1.0), 1e-12),
    ((1.5, 4.0, 9.0, 1.0, 0.5), 1e-12),
    ((1.5, 4.0, 9.0, 1.0, 1.0), 1e-12),
    ((1.5, 4.0, 9.0, 1.0, 1.5), 1e-12),
]
SUB_EDGE = (0.01, 0.3, 0.7, 0.99, 1 - 1e-6, 1 - 1e-12, 1 - 1e-15, 1.0, 1 + 1e-15, 1.5)
TAIL = (0.01, 0.3, 1.0, 3.0, 10.0, 100.0, 1e5, 2e15, 5e15, 1e30, 1e50, 1e52, 1e90, 1e130, 1e200)


@pytest.mark.parametrize("params, rel_limit", BOUND_CASES)
def test_density_error_bound_holds(params, rel_limit):
    # the CLI's abs_error_est for a density value bounds its distance to the
    # 40-digit density of the same double parameters; away from the SUB edge
    # and the far tails it is also no looser than rel_limit of a normal value
    from bsfrac.pathway import _density

    dp = PathwayDensityParams(*params)
    density = _density(dp)
    if dp.regime is Regime.SUB:
        xs = [f * dp.support_radius for f in SUB_EDGE]
        interior = 0.7 * dp.support_radius
    else:
        xs, interior = list(TAIL), 10.0
    rng = random.Random(repr(params))
    xs += [rng.uniform(0.0, interior) for _ in range(20)] + [1e80]
    if dp.gamma_shape >= 1.0:  # below 1 the density is infinite at 0
        xs.append(0.0)
    for x in xs + [-x for x in xs]:
        value, bound = density(x, True)
        ref = oracles.mp_density(*params, x)
        assert abs(mp.mpf(value) - ref) <= bound, (x, value, bound)
        if ref >= sys.float_info.min:  # a normal double never underflows to zero
            assert value > 0.0, (x, ref)
        if abs(x) <= interior and value >= sys.float_info.min:  # subnormals carry fewer digits
            assert bound <= rel_limit * value, (x, value, bound)


# the image at x = 40 of t^0.1 S_0.25(-t): the 130-digit mpmath sum of its
# Wright series, built from the exact doubles of its spec (its 17-digit
# rounding); pathway_quadrature gives 23.072185140159085
PATHWAY_LAM_MINUS_ONE_AT_40 = 23.072185140159099


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="at lam < 0 the image's Wright series cancels: 627674.4, claimed "
                          "converged (ROADMAP item 2)")
def test_image_at_negative_lam_within_its_bound(backend):
    kind = FunctionKind.bs_kernel(1.1, 0.25, -1.0)
    r = pathway_bs_closed_form(PathwayParams(0.5, 1.3, 0.4), kind).value_at(40.0)
    assert abs(r.value - PATHWAY_LAM_MINUS_ONE_AT_40) <= r.abs_error_est, r


@pytest.mark.parametrize("args, message", [
    ((0.0, 1.0, 1.0, 1.0, 0.5), "gamma_shape must be positive"),
    ((1.0, 1.0, -1.0, 1.0, 0.5), "beta_shape must be nonnegative"),
    ((1.0, 1.0, 1.0, 0.0, 0.5), "a must be positive"),
])
def test_density_parameters_refused(args, message):
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        PathwayDensityParams(*args)


def test_limit_branch_needs_positive_beta_shape():
    with pytest.raises(PreconditionError, match="^the limit branch needs beta_shape > 0$"):
        pathway_norm_const(PathwayDensityParams(1.0, 1.0, 0.0, 1.0, 1.0))


@pytest.mark.parametrize("pathway_alpha", [1.0, 1.5])
def test_support_is_unbounded_outside_sub(pathway_alpha):
    assert PathwayDensityParams(1.0, 1.0, 1.0, 1.0, pathway_alpha).support_radius == math.inf


# delta = 0.05 puts k**(gamma/delta) = 1230**100 beyond the double range,
# but the normalizing constant, 2.62e151, is a double: it is taken from its
# logs, and the density's bound holds where its values are normal
NORM_FROM_LOGS = (5.0, 0.05, 30.0, 41.0, 1.0)


def test_norm_const_from_logs_where_its_power_overflows():
    from bsfrac.pathway import _density

    g, d, b, a, _ = map(mp.mpf, NORM_FROM_LOGS)
    want = d / 2 * (a * b) ** (g / d) / mp.gamma(g / d)
    assert abs(pathway_norm_const(PathwayDensityParams(*NORM_FROM_LOGS)) - want) <= 1e-13 * want
    density = _density(PathwayDensityParams(*NORM_FROM_LOGS))
    for x in (1e-12, 1e-9, 1e-7, 1e-6, 3e-6, 1e-5, 1.6e-5, 0.5, 1.0):
        value, bound = density(x, True)
        assert abs(mp.mpf(value) - oracles.mp_density(*NORM_FROM_LOGS, x)) <= bound, (x, value)
        if value >= sys.float_info.min:
            assert bound <= 1e-11 * value, (x, value, bound)


@pytest.mark.parametrize("params", [(2.0, 0.05, 3.0, 5e-300, 0.5), (1.0, 1.0, 1.0, 2e-309, 0.5)])
def test_sub_support_beyond_the_double_range_is_unbounded(params):
    # (a(1-alpha))**(-1/delta) overflows: every finite x is inside the
    # support, as the density takes it (the second density is positive)
    dp = PathwayDensityParams(*params)
    assert dp.support_radius == math.inf
    value = pathway_density(dp, 1e300)
    assert value > 0.0 if params[3] == 2e-309 else value == 0.0
