import math

import pytest

from bsfrac import QuadratureError, exp_sinh, tanh_sinh


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
