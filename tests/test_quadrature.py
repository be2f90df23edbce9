import collections
import math

import pytest

from bsfrac import (
    BsfracError,
    DomainError,
    FunctionKind,
    MsmParams,
    PathwayParams,
    QuadratureError,
    Side,
    exp_sinh,
    msm_quadrature,
    pathway_quadrature,
    tanh_sinh,
)
from bsfrac import quadrature

from conftest import in_threads


def test_polynomial():
    r = tanh_sinh(lambda t, da, db: t, 0.0, 3.0)
    assert math.isclose(r.value, 4.5, rel_tol=1e-14)
    assert r.converged


def test_beta_function_with_both_endpoints_singular():
    r = tanh_sinh(lambda t, da, db: da ** -0.5 * db ** -0.5, 0.0, 1.0, tol=1e-13)
    assert math.isclose(r.value, math.pi, rel_tol=1e-13)


def test_one_sided_singularity():
    # int_0^1 t^(-0.9) dt = 10
    r = tanh_sinh(lambda t, da, db: da ** -0.9, 0.0, 1.0, tol=1e-12)
    assert math.isclose(r.value, 10.0, rel_tol=1e-11)


def test_shifted_interval_distances():
    # int_2^5 (5-t)^(-1/2) dt = 2 sqrt(3)
    r = tanh_sinh(lambda t, da, db: db ** -0.5, 2.0, 5.0)
    assert math.isclose(r.value, 2.0 * math.sqrt(3.0), rel_tol=1e-12)


def test_error_estimate_is_bound():
    r = tanh_sinh(lambda t, da, db: math.exp(t), 0.0, 1.0, tol=1e-11)
    assert abs(r.value - (math.e - 1.0)) <= max(r.abs_error_est, 1e-14)


def test_exp_sinh_power_tail():
    r = exp_sinh(lambda t, d: t ** -2.0, 1.0, 1.0)
    assert math.isclose(r.value, 1.0, rel_tol=1e-13)


def test_exp_sinh_endpoint_singularity():
    # int_x^inf (t-x)^(-1/2) t^(-2) dt at x=1: pi/2
    r = exp_sinh(lambda t, d: d ** -0.5 * t ** -2.0, 1.0, 1.0, tol=1e-12)
    assert math.isclose(r.value, math.pi / 2.0, rel_tol=1e-11)


def test_exp_sinh_exponential_decay():
    r = exp_sinh(lambda t, d: math.exp(-t), 0.5, 0.5)
    assert math.isclose(r.value, math.exp(-0.5), rel_tol=1e-12)


def test_stall_raises():
    # decay too slow for the node window: the estimate cannot reach tol
    with pytest.raises(QuadratureError):
        tanh_sinh(lambda t, da, db: da ** -0.9999, 0.0, 1.0, tol=1e-10, max_levels=4)


def test_invalid_interval():
    with pytest.raises(ValueError):
        tanh_sinh(lambda t, da, db: 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        exp_sinh(lambda t, d: 1.0, 1.0, 0.0)


def test_determinism():
    f = lambda t, da, db: da ** -0.3 * db ** -0.2 * math.cos(t)
    a = tanh_sinh(f, 0.0, 2.0)
    b = tanh_sinh(f, 0.0, 2.0)
    assert a == b


# Exact outputs of both DE rules, pinned so a refactor of the node sweeps
# cannot move a single bit: (value, abs_error_est, terms_used).
@pytest.mark.parametrize("rule, want", [
    (lambda: tanh_sinh(lambda t, da, db: da ** -0.5 * db ** 0.3, 0.0, 2.0),
     (2.973654746794206, 7.993605777301127e-15, 93)),
    (lambda: exp_sinh(lambda t, d: math.exp(-t), 0.0, 1.0),
     (0.9999999999999998, 1.1102230246251565e-16, 391)),
    (lambda: exp_sinh(lambda t, d: t ** -2.5, 2.0, 2.0),
     (0.23570226039551584, 8.049116928532385e-16, 98)),
], ids=["tanh-sinh", "exp-sinh-decay", "exp-sinh-power"])
def test_golden_outputs(rule, want):
    r = rule()
    assert (r.value, r.abs_error_est, r.terms_used) == want
    assert r.converged


# Edge paths of the node sweeps, pinned to the outputs of the sweeps that
# computed every node per integral: a subnormal width whose near-endpoint
# distance underflows to 0 (the near <= 0 stop), an endpoint singularity
# at 1e-300 scale, and an exp-sinh scale that cuts the ascending side
# below its e^500 cap (v_pos < 500).
@pytest.mark.parametrize("rule, want", [
    (lambda: tanh_sinh(lambda t, da, db: 1.0, 0.0, 1e-310),
     (9.999999999998e-311, 5e-324, 47)),
    (lambda: tanh_sinh(lambda t, da, db: (da / 1e-300) ** -0.5, 0.0, 1e-300),
     (2.0000000000002262e-300, 2.546726511e-312, 57)),
    (lambda: exp_sinh(lambda t, d: math.exp(-d / 1e200) / 1e200, 0.0, 1e200),
     (0.9999999999999998, 2.220446049250313e-16, 366)),
], ids=["subnormal-width", "tiny-singular", "exp-sinh-short-ascent"])
def test_golden_edge_paths(rule, want):
    r = rule()
    assert (r.value, r.abs_error_est, r.terms_used) == want
    assert r.converged


def test_golden_stall_through_the_deep_levels():
    # levels past the kept tables are streamed, not tabulated: all 13
    # tanh-sinh levels as tables would hold about 9 MB
    import tracemalloc

    from bsfrac import quadrature

    quadrature._table.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with pytest.raises(QuadratureError, match=r"level difference 0\.02902883225840469 "):
            tanh_sinh(lambda t, da, db: da ** -0.9999, 0.0, 1.0, tol=1e-10, max_levels=12)
        resident = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert resident <= 2_000_000


def test_exp_sinh_golden_stall_at_huge_scale():
    # scale > e^690 makes the ascending cutoff negative: only the k = 0
    # node and the descending side contribute, each with its own stop rule
    with pytest.raises(QuadratureError, match=r"level difference 3\.5269999690057396e-05 "):
        exp_sinh(lambda t, d: math.exp(-d / 1e300) / 1e300, 0.0, 1e300)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_non_finite_level_stops_at_once(bad):
    # no finer level makes a non-finite running sum finite again: each rule
    # raises at the level that holds one, not after all 12 levels
    for name, rule in (("tanh-sinh", lambda: tanh_sinh(lambda t, da, db: bad, 0.0, 1.0)),
                       ("exp-sinh", lambda: exp_sinh(lambda t, d: bad, 1.0, 1.0))):
        with pytest.raises(QuadratureError) as info:
            rule()
        assert str(info.value) == f"{name} sum is not finite at level 0: {bad!r}"


# --- bad input ----------------------------------------------------------------

@pytest.mark.parametrize("call", [
    lambda: tanh_sinh(lambda t, da, db: 1.0, math.nan, 1.0),
    lambda: tanh_sinh(lambda t, da, db: 1.0, 0.0, math.nan),
    lambda: tanh_sinh(lambda t, da, db: 1.0, -math.inf, 1.0),
    lambda: tanh_sinh(lambda t, da, db: 1.0, 0.0, math.inf),
    lambda: exp_sinh(lambda t, d: 1.0, math.nan, 1.0),
    lambda: exp_sinh(lambda t, d: 1.0, math.inf, 1.0),
    lambda: exp_sinh(lambda t, d: 1.0, -math.inf, 1.0),
    lambda: exp_sinh(lambda t, d: 1.0, 1.0, math.nan),
    lambda: exp_sinh(lambda t, d: 1.0, 1.0, math.inf),  # once a converged 0.0
    lambda: tanh_sinh(lambda t, da, db: 1.0, 2.0, 1.0),
    lambda: exp_sinh(lambda t, d: 1.0, 1.0, -1.0),
], ids=["ts-a-nan", "ts-b-nan", "ts-a-inf", "ts-b-inf", "es-a-nan", "es-a-inf",
        "es-a-minus-inf", "es-scale-nan", "es-scale-inf", "ts-b-below-a", "es-scale-negative"])
def test_bad_interval_is_a_domain_error(call):
    before = dict(quadrature._scaled)
    with pytest.raises(DomainError):
        call()
    assert quadrature._scaled == before  # refused before any slot lookup


RULES = {
    "tanh-sinh": lambda **kw: tanh_sinh(lambda t, da, db: math.exp(t), 0.0, 1.0, **kw),
    "exp-sinh": lambda **kw: exp_sinh(lambda t, d: math.exp(-t), 0.5, 0.5, **kw),
}


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("kw", [
    {"tol": 0.0}, {"tol": -1e-10}, {"tol": math.nan}, {"tol": math.inf},
    {"max_levels": 1}, {"max_levels": 0}, {"max_levels": -3}, {"max_levels": 2.5},
    {"max_levels": 12.0},
], ids=repr)
def test_bad_tolerance_or_level_cap_is_a_domain_error(rule, kw):
    # NaN and tol <= 0 once ran all 12 levels into a stall, and one level
    # could never converge: the stop test needs two refined levels
    before = dict(quadrature._scaled)
    with pytest.raises(DomainError):
        RULES[rule](**kw)
    assert quadrature._scaled == before


@pytest.mark.parametrize("rule", RULES)
def test_two_levels_can_converge(rule):
    assert RULES[rule](tol=1e-3, max_levels=2).converged


# --- the interval-scaled node slot ------------------------------------------------
#
# Each rule keeps, per kept mesh level, the nodes of the last interval it
# was scaled to.  A result must carry the bits of the same call on an
# empty slot, whatever interval the slot held, on either backend: the
# integrands are MSM integrals through the backend's kernels, one per
# rule and interval.

LEFT, RIGHT = MsmParams(0.4, 0.0, 0.3, 0.2, 0.9), MsmParams(0.0, 0.2, 0.1, 0.4, 1.1)


def _integral(side, x, nu):
    params, rho = (LEFT, 1.5) if side is Side.LEFT else (RIGHT, -2.0)
    return lambda: msm_quadrature(side, params, FunctionKind.bs_kernel(rho, nu, 0.5), x)


# both rules, each on two intervals: (0, x) for tanh-sinh, (x, inf) at
# scale x for exp-sinh
CALLS = [_integral(side, x, nu) for side in (Side.LEFT, Side.RIGHT)
         for x in (0.7, 1.3) for nu in (-0.5, 0.25, 1.0)]
# the calls with each rule alternating between its intervals call by call,
# and the rules alternating too
_LEFT_ORDER = [0, 3, 1, 4, 2, 5]
ORDER = [i for pair in zip(_LEFT_ORDER, [i + 6 for i in _LEFT_ORDER]) for i in pair]


def _outcome(call):
    try:
        return tuple(map(repr, call()))
    except BsfracError as exc:
        return type(exc), str(exc)


def _fresh(call):
    quadrature._scaled.clear()
    return _outcome(call)


def test_interleaved_intervals_return_fresh_bits(backend):
    want = [_fresh(call) for call in CALLS]
    quadrature._scaled.clear()
    for i in ORDER * 2:
        assert _outcome(CALLS[i]) == want[i], i
    levels = {level for _, level in quadrature._scaled}
    assert levels and max(levels) <= quadrature._KEPT_LEVELS


def test_intervals_shared_by_threads(backend):
    # six threads, each alternating between the two intervals of both
    # rules, half of them in reverse, so that every slot changes hands at
    # nearly every call
    want = [_fresh(call) for call in CALLS]
    results = {}

    def sweep(k):
        ordered = ORDER if k % 2 else ORDER[::-1]
        results[k] = [_outcome(CALLS[i]) for i in ordered]

    quadrature._scaled.clear()
    in_threads(sweep)
    for k in range(6):
        assert results[k] == [want[i] for i in (ORDER if k % 2 else ORDER[::-1])]


def test_deep_levels_leave_no_slot(backend):
    # integrals that run past the kept levels, through the backend's S:
    # the deep levels are scaled node by node and never held, and a kept
    # level on another interval still returns fresh bits after them
    def s(u):
        return backend.bs_series(0.25, u, 1e-15, 10_000)[0]

    deep = [
        lambda: tanh_sinh(lambda t, da, db: da ** -0.9999 * s(da), 0.0, 1.0,
                          tol=1e-10, max_levels=9),
        lambda: exp_sinh(lambda t, d: t ** -1.0001 * s(-1.0 / t), 1.0, 1.0,
                         tol=1e-10, max_levels=9),
    ]
    want = [_fresh(call) for call in deep + CALLS[:1] + CALLS[6:7]]
    quadrature._scaled.clear()
    for i, call in enumerate(deep):
        assert _outcome(call) == want[i]
        assert _outcome(call)[0] is QuadratureError  # it did reach level 9
        assert max(level for _, level in quadrature._scaled) == quadrature._KEPT_LEVELS
    assert [_outcome(CALLS[0]), _outcome(CALLS[6])] == want[2:]


def test_integrals_over_one_interval_scale_each_level_once(monkeypatch):
    # a run of integrals over one interval, as the lemma checks make them
    # x by x, scales each kept level once per rule; another interval
    # rescales it once more
    built = collections.Counter()
    for name in ("_finite_scaled", "_half_inf_scaled"):
        def counted(level, h, *interval, rule=getattr(quadrature, name), name=name):
            built[name, interval, level] += 1
            return rule(level, h, *interval)

        monkeypatch.setattr(quadrature, name, counted)
    quadrature._scaled.clear()
    for x in (0.7, 1.3):
        for p in (-0.5, 0.25, 1.5):
            assert tanh_sinh(lambda t, da, db: da ** p * db ** -0.2, 0.0, x).converged
            assert exp_sinh(lambda t, d: d ** -0.2 * t ** (p - 3.0), x, x).converged
    assert set(built.values()) == {1}
    for name, a, b in (("_finite_scaled", 0.0, 0.7), ("_half_inf_scaled", 0.7, 0.7)):
        levels = sorted(level for rule, interval, level in built if rule == name
                        and interval == (a, b))
        assert levels == list(range(len(levels))) and len(levels) >= 3


# --- a kernel beyond the double range -------------------------------------------
#
# The quadratures sum S_nu at lam*x (left), lam/x (right) or lam*x/cut
# (pathway) at most: where S overflows there, they raise the kernel's
# OverflowError before entering a rule.

PATH = PathwayParams(0.5, 1.3, 0.4)  # cut 0.78


def _left(lam, x):
    return msm_quadrature(Side.LEFT, LEFT, FunctionKind.bs_kernel(1.5, 0.25, lam), x)


def _right(lam, x):
    return msm_quadrature(Side.RIGHT, RIGHT, FunctionKind.bs_kernel(-2.0, 0.25, lam), x)


def _pathway(lam, x):
    return pathway_quadrature(PATH, FunctionKind.bs_kernel(1.1, 0.25, lam), x)


@pytest.mark.parametrize("call, lam, x, u", [
    (_left, 2000.0, 1.0, 2000.0),
    (_right, 2000.0, 1.0, 2000.0),
    (_pathway, 600.0, 1.0, 600.0 / 0.78),
    (_left, 1e308, 10.0, math.inf),
    (_left, -1e308, 10.0, -math.inf),
    (_right, 1e300, 1e-10, math.inf),
    (_pathway, 1e308, 10.0, math.inf),
], ids=["left", "right", "pathway", "left-inf", "left-minus-inf", "right-inf", "pathway-inf"])
def test_kernel_overflow_is_raised_before_integrating(backend, monkeypatch, call, lam, x, u):
    def entered(*args, **kwargs):
        raise AssertionError("entered a rule")

    monkeypatch.setattr(quadrature, "tanh_sinh", entered)
    monkeypatch.setattr(quadrature, "exp_sinh", entered)
    with pytest.raises(OverflowError) as info:
        call(lam, x)
    assert str(info.value) == f"Bessel-Struve series at u={u!r} exceeds double range"


def test_an_overflowing_integrand_stops_at_level_0(backend):
    # S_0.25(700) is finite, but the left integrand's level-0 sum is not
    # (it once refined all 12 levels: 0.3 s compiled, 14 s pure)
    with pytest.raises(QuadratureError, match="^tanh-sinh sum is not finite at level 0: inf$"):
        _left(700.0, 1.0)
