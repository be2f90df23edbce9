import math
import os
import subprocess
import sys
from functools import partial
from types import SimpleNamespace

import pytest

from bsfrac import (
    BsfracError,
    ClosedFormImage,
    DomainUnsupportedError,
    FunctionKind,
    MsmParams,
    PathwayParams,
    PreconditionError,
    Side,
    WrightSpec,
    msm_bs_closed_form,
    msm_power_image,
    msm_quadrature,
    pathway_bs_closed_form,
    pathway_power_image,
    wright,
)

import oracles

ZEROS_G1 = MsmParams(0.0, 0.0, 0.0, 0.0, 1.0)
LEFT_COLLAPSE = MsmParams(0.4, 0.0, 0.3, 0.2, 0.9)
RIGHT_COLLAPSE = MsmParams(0.0, 0.2, 0.1, 0.4, 1.1)
GENERIC = MsmParams(0.3, 0.2, 0.1, 0.4, 1.1)


class TestPowerImage:
    def test_degenerate_left_is_plain_integration(self):
        img = msm_power_image(Side.LEFT, ZEROS_G1, 2.0)
        assert img.prefactor == 0.5
        assert img.power_of_x == 2.0
        assert img.value_at(3.0).value == 4.5

    def test_degenerate_right_is_plain_integration(self):
        img = msm_power_image(Side.RIGHT, ZEROS_G1, -1.0)
        assert img.prefactor == 1.0
        assert img.power_of_x == -1.0
        assert math.isclose(img.value_at(2.0).value, 0.5, rel_tol=1e-15)

    def test_riemann_liouville_degeneracy(self):
        for g in (0.5, 1.0, 1.7):
            for rho in (1.1, 2.0, 3.5):
                img = msm_power_image(Side.LEFT, MsmParams(0, 0, 0, 0, g), rho)
                want = math.gamma(rho) / math.gamma(rho + g)
                assert math.isclose(img.prefactor, want, rel_tol=1e-13)
                assert img.power_of_x == rho + g - 1.0

    def test_left_matches_quadrature(self):
        img = msm_power_image(Side.LEFT, LEFT_COLLAPSE, 1.5)
        for x in (0.7, 1.0, 2.3):
            want = msm_quadrature(Side.LEFT, LEFT_COLLAPSE, FunctionKind.monomial(1.5), x)
            assert math.isclose(img.value_at(x).value, want.value, rel_tol=1e-8)

    def test_right_matches_quadrature(self):
        img = msm_power_image(Side.RIGHT, RIGHT_COLLAPSE, -1.5)
        for x in (0.7, 1.0, 2.3):
            want = msm_quadrature(Side.RIGHT, RIGHT_COLLAPSE, FunctionKind.monomial(-1.5), x)
            assert math.isclose(img.value_at(x).value, want.value, rel_tol=1e-8)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            msm_power_image(Side.LEFT, LEFT_COLLAPSE, 0.0)
        with pytest.raises(PreconditionError):
            msm_power_image(Side.RIGHT, RIGHT_COLLAPSE, 0.5)
        with pytest.raises(PreconditionError):
            MsmParams(0.0, 0.0, 0.0, 0.0, 0.0)


class TestQuadrature:
    def test_plain_integration(self):
        r = msm_quadrature(Side.LEFT, ZEROS_G1, FunctionKind.monomial(2.0), 3.0)
        assert math.isclose(r.value, 4.5, rel_tol=1e-14)

    def test_exponential_kernel(self):
        kind = FunctionKind.bs_kernel(1.0, -0.5, 1.0)
        r = msm_quadrature(Side.LEFT, ZEROS_G1, kind, 3.0)
        assert math.isclose(r.value, math.exp(3.0) - 1.0, rel_tol=1e-11)

    def test_no_collapse_is_unsupported(self):
        with pytest.raises(DomainUnsupportedError):
            msm_quadrature(Side.LEFT, GENERIC, FunctionKind.monomial(1.5), 1.0)
        with pytest.raises(DomainUnsupportedError):
            msm_quadrature(Side.RIGHT, GENERIC, FunctionKind.monomial(-2.0), 1.0)

    @pytest.mark.parametrize("side,params,rho,gap", [
        (Side.LEFT, MsmParams(0.4, 0.0, 0.6, 0.2, 1.0), 1.5, "gamma-alpha-beta, got 0.0"),
        (Side.RIGHT, MsmParams(0.0, 0.3, 0.2, 1.3, 1.0), -1.5, "beta'-alpha', got 1.0"),
    ])
    def test_integer_2f1_gap_is_unsupported(self, side, params, rho, gap):
        # the connection formula has no value there; this used to surface
        # as a quadrature stall with a NaN level difference
        with pytest.raises(DomainUnsupportedError, match=gap):
            msm_quadrature(side, params, FunctionKind.monomial(rho), 1.0)
        with pytest.raises(DomainUnsupportedError, match=gap):
            msm_quadrature(side, params, FunctionKind.bs_kernel(rho, 0.25, 0.5), 1.0)


class TestClosedForm:
    def test_degenerate_exponential_image(self):
        img = msm_bs_closed_form(Side.LEFT, ZEROS_G1, FunctionKind.exp_kernel(1.0))
        r = img.value_at(1.0)
        assert math.isclose(r.value, math.e - 1.0, rel_tol=1e-12)

    def test_left_generic_termwise_oracle(self):
        kind = FunctionKind.bs_kernel(1.2, 0.25, 0.5)
        img = msm_bs_closed_form(Side.LEFT, GENERIC, kind)
        for x in (1.0, 2.0):
            got = img.value_at(x).value
            want = oracles.termwise_image(
                lambda n: msm_power_image(Side.LEFT, GENERIC, 1.2 + n), 0.25, 0.5, x)
            assert math.isclose(got, want, rel_tol=1e-10)

    def test_right_generic_termwise_oracle(self):
        kind = FunctionKind.bs_kernel(-2.0, 0.25, 0.5)
        img = msm_bs_closed_form(Side.RIGHT, GENERIC, kind)
        for x in (1.0, 2.0):
            got = img.value_at(x).value
            want = oracles.termwise_image(
                lambda n: msm_power_image(Side.RIGHT, GENERIC, -2.0 - n), 0.25, 0.5, x)
            assert math.isclose(got, want, rel_tol=1e-10)

    def test_left_collapse_matches_quadrature(self):
        kind = FunctionKind.bs_kernel(1.5, 0.5, 0.8)
        img = msm_bs_closed_form(Side.LEFT, LEFT_COLLAPSE, kind)
        got = img.value_at(1.0).value
        want = msm_quadrature(Side.LEFT, LEFT_COLLAPSE, kind, 1.0)
        assert math.isclose(got, want.value, rel_tol=1e-7)

    def test_right_collapse_matches_quadrature(self):
        kind = FunctionKind.bs_kernel(-2.0, 0.25, 0.5)
        img = msm_bs_closed_form(Side.RIGHT, RIGHT_COLLAPSE, kind)
        got = img.value_at(2.0).value
        want = msm_quadrature(Side.RIGHT, RIGHT_COLLAPSE, kind, 2.0)
        assert math.isclose(got, want.value, rel_tol=1e-7)

    def test_lambda_homogeneity(self):
        kind = FunctionKind.bs_kernel(1.2, 0.25, 0.7)
        img = msm_bs_closed_form(Side.LEFT, GENERIC, kind)
        ref = msm_bs_closed_form(Side.LEFT, GENERIC, FunctionKind.bs_kernel(1.2, 0.25, 1.0))
        for x in (0.5, 1.4, 2.8):
            a = img.value_at(x)
            # same evaluation with the scale folded into the argument
            arg = 0.7 * x
            b = ref.prefactor * x ** ref.power_of_x
            from bsfrac import wright_eval
            w = wright_eval(ref.spec, arg)
            assert math.isclose(a.value, b * w.value, rel_tol=1e-13)

    def test_one_image_serves_every_lam(self):
        # lam enters an image only through its argument scale: the
        # prefactor and spec of the image built at one lam give the image
        # built at another, bit for bit, on both sides and for the pathway
        # operator, whose cut is not 1
        from bsfrac.msm import _gamma_args, _kernel_at
        from bsfrac.pathway import _table

        path = PathwayParams(0.7, 1.3, 0.4)
        routes = [(partial(msm_bs_closed_form, side, GENERIC), partial(_gamma_args, side, GENERIC),
                   rho) for side, rho in ((Side.LEFT, 1.2), (Side.RIGHT, -2.0))]
        routes.append((partial(pathway_bs_closed_form, path), partial(_table, path), 1.1))
        for build, table, rho in routes:
            base = build(FunctionKind.bs_kernel(rho, 0.25, 0.5))
            for lam in (0.0, 0.5, 1.0, 1.7, -2.25):
                want = build(FunctionKind.bs_kernel(rho, 0.25, lam))
                got = _kernel_at(table(rho), base.prefactor, base.spec, lam)
                assert got == want
                assert got.value_at(1.3) == want.value_at(1.3)

    def test_special_kinds_delegate_exactly(self):
        pairs = [
            (FunctionKind.exp_kernel(1.3), -0.5),
            (FunctionKind.expm1_over_t(1.3), 0.5),
            (FunctionKind.i0_plus_l0(1.3), 0.0),
            (FunctionKind.two_i1_plus_two_l1_over_t(1.3), 1.0),
        ]
        for kind, nu in pairs:
            special = msm_bs_closed_form(Side.LEFT, GENERIC, kind)
            general = msm_bs_closed_form(
                Side.LEFT, GENERIC, FunctionKind.bs_kernel(1.3, nu, 1.0))
            assert special == general
            assert special.value_at(1.7) == general.value_at(1.7)

    def test_special_kinds_match_their_integrands(self):
        # quadrature of the named integrand against the delegated closed form
        x = 1.2
        for kind, f in [
            (FunctionKind.exp_kernel(1.5), lambda t: math.exp(t)),
            (FunctionKind.expm1_over_t(1.5), lambda t: math.expm1(t) / t),
        ]:
            img = msm_bs_closed_form(Side.LEFT, LEFT_COLLAPSE, kind)
            got = img.value_at(x).value
            want = msm_quadrature(Side.LEFT, LEFT_COLLAPSE, kind, x)
            assert math.isclose(got, want.value, rel_tol=1e-7)

    def test_precondition_errors(self):
        with pytest.raises(PreconditionError):
            msm_bs_closed_form(Side.LEFT, GENERIC, FunctionKind.bs_kernel(-0.5, 0.25, 1.0))
        with pytest.raises(PreconditionError):
            msm_bs_closed_form(Side.RIGHT, GENERIC, FunctionKind.bs_kernel(1.0, 0.25, 1.0))

    def test_monomial_kind_rejected(self):
        with pytest.raises(ValueError):
            msm_bs_closed_form(Side.LEFT, GENERIC, FunctionKind.monomial(1.5))


# (side, params, bound on rho): one case per numerator gamma argument that
# can bind; alpha'=0 / beta'=0 (left) and alpha=0 / beta=0 (right) keep the
# quadrature route defined
BOUND_CASES = [
    (Side.LEFT, MsmParams(0.4, 0.0, 0.3, 0.2, 0.9), 0.0),
    (Side.LEFT, MsmParams(0.5, 0.0, 0.6, 0.1, 0.8), 0.3),
    (Side.LEFT, MsmParams(0.1, 0.5, 0.2, 0.0, 1.5), 0.5),
    (Side.RIGHT, MsmParams(0.0, 0.2, 1.5, 0.4, 1.1), -0.5),
    (Side.RIGHT, MsmParams(0.0, 0.2, 0.1, 0.4, 1.1), 0.1),
    (Side.RIGHT, MsmParams(0.2, 0.6, 0.0, 0.3, 1.0), 0.5),
]


def _outside(side, bound, margin):
    return bound - margin if side is Side.LEFT else bound + margin


class TestSharedPrecondition:
    @pytest.mark.parametrize("side,params,bound", BOUND_CASES)
    @pytest.mark.parametrize("past", [1e-9, "nan"])
    def test_every_route_rejects_the_same_rho(self, side, params, bound, past):
        rho = math.nan if past == "nan" else _outside(side, bound, past)
        with pytest.raises(PreconditionError):
            msm_power_image(side, params, rho)
        with pytest.raises(PreconditionError):
            msm_bs_closed_form(side, params, FunctionKind.bs_kernel(rho, 0.25, 1.0))
        with pytest.raises(PreconditionError):
            msm_quadrature(side, params, FunctionKind.monomial(rho), 1.0)

    @pytest.mark.parametrize("side,params,bound", BOUND_CASES)
    def test_images_exist_just_inside_the_bound(self, side, params, bound):
        rho = _outside(side, bound, -1e-6)
        assert msm_power_image(side, params, rho).prefactor > 0.0
        img = msm_bs_closed_form(side, params, FunctionKind.bs_kernel(rho, 0.25, 1.0))
        assert len(img.spec.upper) == len(img.spec.lower) == 4


class TestZeroScale:
    @pytest.mark.parametrize("side,rho", [(Side.LEFT, 1.3), (Side.RIGHT, -1.7)])
    def test_reduces_to_power_image_in_one_term(self, side, rho):
        img = msm_bs_closed_form(side, GENERIC, FunctionKind.bs_kernel(rho, 0.25, 0.0))
        power = msm_power_image(side, GENERIC, rho)
        for x in (0.6, 1.0, 2.5):
            r = img.value_at(x)
            assert r.terms_used == 1
            assert math.isclose(r.value, power.value_at(x).value, rel_tol=1e-14)


class TestNanParameter:
    @pytest.mark.parametrize("index", range(5))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(self, index, bad):
        # an infinite order once gave NaN images instead of an error
        args = [0.3, 0.2, 0.1, 0.4, 1.1]
        args[index] = bad
        with pytest.raises(PreconditionError, match="must be finite"):
            MsmParams(*args)

    @pytest.mark.parametrize("name", ["rho", "nu", "lam"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_kind_rejected(self, name, bad):
        # lam = nan once gave a converged 0.0 from both quadratures, lam =
        # inf stalled them, and nu = inf overflowed in the pure kernel
        args = {"rho": 1.5, "nu": 0.25, "lam": 1.0, name: bad}
        with pytest.raises(PreconditionError, match=f"{name} must be finite, got"):
            FunctionKind.bs_kernel(**args)

    @pytest.mark.parametrize("side,rho", [(Side.LEFT, 1.5), (Side.RIGHT, -1.5)])
    def test_nan_order_parameter_is_rejected(self, side, rho):
        # only some gamma arguments turn NaN, so a min() over them could
        # pass; every route refuses a NaN order that skipped MsmParams' check
        params = SimpleNamespace(alpha=math.nan, alpha_prime=0.0, beta=0.0, beta_prime=0.0,
                                 gamma=1.0)
        with pytest.raises(PreconditionError):
            msm_power_image(side, params, rho)
        with pytest.raises(PreconditionError):
            msm_bs_closed_form(side, params, FunctionKind.bs_kernel(rho, 0.25, 1.0))
        with pytest.raises(PreconditionError):
            msm_quadrature(side, params, FunctionKind.monomial(rho), 1.0)


@pytest.mark.parametrize("backend", ["pure", "compiled"], indirect=True)
@pytest.mark.parametrize("rho", [1.5, 1.2])
@pytest.mark.parametrize("x", [1.0, 0.7])
def test_2f1_coefficient_at_a_reciprocal_gamma_zero(backend, rho, x):
    # gamma = alpha makes c - a = 0, where the kernel's connection
    # coefficient takes log|Gamma(0)|; 1/Gamma(0) = 0 drops that term
    params = MsmParams(0.5, 0.0, 0.3, 0.2, 0.5)
    r = msm_quadrature(Side.LEFT, params, FunctionKind.monomial(rho), x)
    want = msm_power_image(Side.LEFT, params, rho).value_at(x).value
    assert r.converged
    assert abs(r.value - want) <= 1e-12 * abs(want)


# left and right MSM images, a lower parameter rho + beta' = -1 whose
# first two terms are dead, pathway images, plain power images and a
# hand-built spec whose upper parameter hits a pole at k = 1
DEAD_LOWER = MsmParams(0.3, -2.5, 0.1, -2.0, 1.1)
PATHWAY = PathwayParams(0.5, 1.0, 0.3)
IMAGES = {
    "msm-left": msm_bs_closed_form(Side.LEFT, GENERIC, FunctionKind.bs_kernel(1.3, 0.7)),
    "msm-right": msm_bs_closed_form(Side.RIGHT, GENERIC, FunctionKind.bs_kernel(-0.5, 0.2, 2.0)),
    "msm-dead-lower": msm_bs_closed_form(Side.LEFT, DEAD_LOWER, FunctionKind.bs_kernel(1.0, 0.5)),
    "msm-exp": msm_bs_closed_form(Side.LEFT, GENERIC, FunctionKind.exp_kernel(1.5)),
    "msm-power": msm_power_image(Side.RIGHT, GENERIC, -0.5),
    "pathway": pathway_bs_closed_form(PATHWAY, FunctionKind.bs_kernel(1.2, 0.5, 2.0)),
    "pathway-i0-l0": pathway_bs_closed_form(PATHWAY, FunctionKind.i0_plus_l0(0.8)),
    "pathway-power": pathway_power_image(PATHWAY, 1.5),
    "upper-pole": ClosedFormImage(1.5, 0.5, WrightSpec(((-1.5, 0.5),), ((1.0, 1.0),)), -3.0),
}
# tiny and huge x overflow the series (1/x for right images), x <= 0 and
# NaN are outside the domain
IMAGE_XS = (1e-300, 1e-12, 0.05, 0.3, 1.0, 2.5, 17.0, 40.0, 800.0, 1e10, 1e300,
            math.inf, math.nan, 0.0, -1.0)


def _image_outcome(evaluate, x):
    """Every field of the result, bit for bit (repr round-trips a float),
    or the error class and message."""
    try:
        return tuple(map(repr, evaluate(x)))
    except (BsfracError, ArithmeticError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(IMAGES))
def test_image_evaluator_matches_value_at(name, monkeypatch):
    # one image swept forward and back, its spec's term table shared by
    # every x, against a fresh image (and table) per x and against the
    # kernel's table-free call, errors and messages included; the swept
    # spec is new too, as a table the other backend filled would not give
    # this backend's bits
    def fresh(x):
        return img._replace(spec=WrightSpec(img.spec.upper, img.spec.lower)).value_at(x)

    img = IMAGES[name]
    img = img._replace(spec=WrightSpec(img.spec.upper, img.spec.lower))
    xs = IMAGE_XS + IMAGE_XS[::-1]
    got = [_image_outcome(img.value_at, x) for x in xs]
    assert got == [_image_outcome(fresh, x) for x in xs]
    kernels = wright.kernels
    monkeypatch.setattr(wright, "kernels", SimpleNamespace(
        wright_row=lambda *args: kernels.wright_row(*args[:8], None, args[9]),
        wright_series=lambda *args: kernels.wright_series(*args[:7])))
    assert got == [_image_outcome(img.value_at, x) for x in xs]


# every operator entry point at x = inf, -inf and NaN; prints the error
# class of each, or its value
_NON_FINITE_CHILD = """
import math
from bsfrac import *
left, right = MsmParams(0.4, 0.0, 0.3, 0.0, 1.1), MsmParams(0.0, 0.2, 0.0, 0.45, 1.5)
path = PathwayParams(0.7, 1.3, 0.4)
calls = [
    lambda x: msm_quadrature(Side.LEFT, left, FunctionKind.monomial(1.5), x),
    lambda x: msm_quadrature(Side.RIGHT, right, FunctionKind.bs_kernel(-1.5, 0.25), x),
    lambda x: pathway_quadrature(path, FunctionKind.bs_kernel(1.1, 0.25), x),
    lambda x: msm_power_image(Side.LEFT, left, 1.5).value_at(x),
    lambda x: msm_bs_closed_form(Side.RIGHT, right, FunctionKind.bs_kernel(-1.5, 0.25)).value_at(x),
    lambda x: pathway_bs_closed_form(path, FunctionKind.exp_kernel(1.1)).value_at(x),
    lambda x: pathway_density(PathwayDensityParams(1.0, 2.0, 1.0, 1.0, 1.6), x),
    lambda x: pathway_density(PathwayDensityParams(1.0, 2.0, 1.0, 1.0, 0.6), x),
]
for call in calls:
    for x in (math.inf, -math.inf, math.nan):
        try:
            print(repr(call(x)))
        except Exception as exc:
            print(type(exc).__name__)
"""


def test_operators_refuse_non_finite_x():
    # quadratures, images and the density at x = inf, -inf and NaN, in a
    # child process with a timeout: msm_quadrature once hung at x = inf
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    proc = subprocess.run([sys.executable, "-c", _NON_FINITE_CHILD], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["DomainError"] * 24


# S_0.25(-t) at x = 40: the 130-digit mpmath sum of the left image's Wright
# series, built from the exact doubles of its spec (its 17-digit rounding)
MSM_LEFT_LAM_MINUS_ONE_AT_40 = 2.5417141970567846


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="at lam < 0 the image's Wright series cancels: 79.68 compiled, "
                          "76.10 pure, claimed within 3.7e-13 (ROADMAP item 2)")
def test_left_image_at_negative_lam_within_its_bound(backend):
    img = msm_bs_closed_form(Side.LEFT, GENERIC, FunctionKind.bs_kernel(1.5, 0.25, -1.0))
    r = img.value_at(40.0)
    assert abs(r.value - MSM_LEFT_LAM_MINUS_ONE_AT_40) <= r.abs_error_est, r
