"""Per-sweep tables of the S, Wright and 2F1 kernels, on both backends.

``bessel_struve_evaluator`` passes one table to every kernel call of a
sweep, ``wright_eval`` a spec's own table (``WrightSpec._rows``) to every
kernel call of the spec, and ``msm_quadrature`` one to every 2F1 call of
an integral.  A table-fed call must return the bits of the one-shot
call, whatever order the points fill the table in and however many
threads share it; the compiled kernels must refuse a malformed table.
tests/test_wright.py checks the Wright spec's table the same way.
"""

import math
import random
import sys
import threading

import pytest

from bsfrac import (
    BsfracError,
    bessel_struve_evaluator,
    bessel_struve_kernel,
)
from bsfrac import _pykernels as pk
from bsfrac import series

import oracles

NUS = [-0.9, -0.5, 0.0, 0.25, 0.5, 1.0, 2.3, 9.7, 40.0]
# from -1000 to 700: both signs of zero, subnormals, the start of each
# route, the bench's grid and the u > 600 overflow guard
US = ([-1000.0, -999.5, -300.0, -47.25, -20.0, -5e-324, -0.0, 0.0, 5e-324, 1e-310,
       -1e-310, 600.5, 650.0, 700.0] + oracles.linspace(-20.0, 20.0, 97)
      + oracles.linspace(-120.0, 120.0, 13))


@pytest.fixture(params=["pure", "compiled"])
def kernels(request, monkeypatch):
    """The kernel module of one backend, installed in the S module."""
    module = pk if request.param == "pure" else request.getfixturevalue("ck")
    monkeypatch.setattr(series, "kernels", module)
    return module


def _outcome(evaluate, x):
    """Every field of the result, bit for bit, or the error class."""
    try:
        return tuple(map(repr, evaluate(x)))
    except (BsfracError, ArithmeticError) as exc:
        return type(exc)


@pytest.mark.parametrize("nu", NUS)
def test_s_table_returns_one_shot_bits(kernels, nu):
    # one table for the whole sweep, filled in a shuffled order, at the
    # kernel and through the evaluator (which adds the u > 600 guard)
    us = US[:]
    random.Random(repr(nu)).shuffle(us)
    table = {}
    for cap in (10_000, 60):
        for u in us:
            if u <= 600.0:
                assert (kernels.bs_series(nu, u, 1e-14, cap, table)
                        == kernels.bs_series(nu, u, 1e-14, cap)), (nu, u, cap)
    evaluate = bessel_struve_evaluator(nu)
    for u in us:
        assert _outcome(evaluate, u) == _outcome(lambda u: bessel_struve_kernel(nu, u), u), u


def test_s_table_bits_do_not_depend_on_fill_order(kernels):
    us = oracles.linspace(-60.0, 60.0, 121)
    for nu in (0.25, 2.3):
        want = [bessel_struve_kernel(nu, u) for u in us]
        forward, backward = bessel_struve_evaluator(nu), bessel_struve_evaluator(nu)
        assert [forward(u) for u in us] == want
        assert [backward(u) for u in reversed(us)] == want[::-1]
        # and again on the full tables
        assert [backward(u) for u in us] == want == [forward(u) for u in us]


def test_s_table_builds_each_sequence_once_in_a_monotone_sweep(monkeypatch):
    # the pure table keeps the b_n sequence of one length N, and a point of
    # another N replaces it: N moves one way in a monotone sweep, so each
    # distinct N is built once, falling or rising
    monkeypatch.setattr(series, "kernels", pk)
    built, build = [], pk._bs_sequence

    def counted(nu, a, top, cap):
        built.append(top)
        return build(nu, a, top, cap)

    monkeypatch.setattr(pk, "_bs_sequence", counted)
    us = oracles.linspace(-60.0, -0.125, 479)
    lengths = {int(-u + 9.0 * math.sqrt(-u) + 25.0) for u in us}
    for sweep in (us, us[::-1]):
        built.clear()
        evaluate = bessel_struve_evaluator(2.3)
        for u in sweep:
            evaluate(u)
        assert sorted(built) == sorted(lengths), built


def test_s_table_shared_by_threads(kernels):
    # as test_wright.test_evaluator_shared_by_threads for the Wright table
    us = oracles.linspace(-40.0, 40.0, 161)
    want = [bessel_struve_kernel(2.3, u) for u in us]
    evaluate = bessel_struve_evaluator(2.3)
    results = {}

    def sweep(i):
        results[i] = [evaluate(u) for u in (us if i % 2 else us[::-1])]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(6):
        assert results[i] == (want if i % 2 else want[::-1])


def _collapsed_2f1_sets():
    """(a, b, c) of the 2F1 left by the collapse on the L1/L2 grids:
    (alpha, beta, gamma) on the left, (alpha', beta', gamma) on the right."""
    from bsfrac import Side
    from bsfrac.checks import Config, _collapse_grid

    sets = set()
    for side in Side:
        for p in _collapse_grid(Config(), side):
            a, b = (p.alpha, p.beta) if side is Side.LEFT else (p.alpha_prime, p.beta_prime)
            sets.add((a, b, p.gamma))
    return sorted(sets)


# (z, wbar): the direct series, the connection formula with the exact
# complement 1 - z, and the Pfaff transform from negative z, ahead of the
# direct series (-0.1) or of the connection formula
HYP2F1_POINTS = ([(z, 1.0 - z) for z in (0.3, 0.75, 0.76, 0.9, 1.0 - 1e-8)]
                 + [(z, 0.0) for z in (-0.1, -3.0, -1e6)])


def _hyp2f1_bits(kernels, a, b, c, points, *table):
    return [repr(kernels.hyp2f1_kernel(a, b, c, z, wbar, *table)) for z, wbar in points]


def test_2f1_table_returns_one_shot_bits(kernels):
    # one table per (a, b, c), as one integral uses it: filled in the
    # points' order and read back, and filled in a shuffled order
    sets = _collapsed_2f1_sets()
    assert any(a * b != 0.0 for a, b, _ in sets) and any(a * b == 0.0 for a, b, _ in sets)
    rng = random.Random(31)
    for a, b, c in sets:
        want = _hyp2f1_bits(kernels, a, b, c, HYP2F1_POINTS)
        shared = {}
        for _ in range(2):
            assert _hyp2f1_bits(kernels, a, b, c, HYP2F1_POINTS, shared) == want, (a, b, c)
        order = list(range(len(HYP2F1_POINTS)))
        rng.shuffle(order)
        reordered = {}
        got = _hyp2f1_bits(kernels, a, b, c, [HYP2F1_POINTS[i] for i in order], reordered)
        assert got == [want[i] for i in order], (a, b, c, order)
        assert reordered == shared
        # the pure twin keeps one entry per connection route: b, and c - b
        # after the Pfaff transform; the compiled one keeps none
        assert set(shared) == (set() if kernels is not pk or a * b == 0.0 else {b, c - b})


def test_2f1_table_shared_by_threads(kernels):
    points = [(z, 1.0 - z) for z in oracles.linspace(0.76, 0.99, 24)]
    points += [(z, 0.0) for z in oracles.linspace(-40.0, -3.5, 24)]
    want = _hyp2f1_bits(kernels, 0.3, 0.45, 1.1, points)
    table, results = {}, {}

    def sweep(i):
        ordered = points if i % 2 else points[::-1]
        results[i] = _hyp2f1_bits(kernels, 0.3, 0.45, 1.1, ordered, table)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(6):
        assert results[i] == (want if i % 2 else want[::-1])


# test_backends.test_wright_series_agrees's inputs
WRIGHT_COLUMNS = ((0.5, 1.2, 1.9), (0.5, 1.0, 1.0), (1.25, 1.4, 2.0), (0.5, 1.0, 1.0))
WRIGHT_ZS = (-2.0, 0.0, 0.3, 1.7, 25.0)


def test_wright_rows_agree_across_twins(ck):
    # each twin's rows, fed straight to either twin's kernel: one twin's
    # rows give the same sum, bit for bit, in both, and the one-shot value
    # of the twin that built them
    for build in (pk, ck):
        rows = []
        for z in WRIGHT_ZS:
            own = build.wright_series(*WRIGHT_COLUMNS, z, 1e-14, 10_000, rows)
            assert own == build.wright_series(*WRIGHT_COLUMNS, z, 1e-14, 10_000), z
            other = (ck if build is pk else pk).wright_series(*WRIGHT_COLUMNS, z, 1e-14, 10_000,
                                                              list(rows))
            assert other == own, (build, z)
        assert all(row is None or (len(row) == 4 and all(type(v) is float for v in row))
                   for row in rows)
    pure_rows, c_rows = [], []
    for z in WRIGHT_ZS:
        vp = pk.wright_series(*WRIGHT_COLUMNS, z, 1e-14, 10_000, pure_rows)
        vc = ck.wright_series(*WRIGHT_COLUMNS, z, 1e-14, 10_000, c_rows)
        assert vp[2:] == vc[2:]
        assert math.isclose(vp[0], vc[0], rel_tol=5e-15)
    assert len(pure_rows) == len(c_rows)


@pytest.mark.parametrize("rows", [
    (),                                        # not a list
    {0: (1.0, 1.0, 0.0, 0.0)},
    [[1.0, 1.0, 0.0, 0.0]],                    # a row that is not a tuple
    [(1.0, 1.0, 0.0)],                         # too short
    [(1.0, 1.0, 0.0, 0.0, 0.0)],               # too long
    [()],
    [(1, 1.0, 0.0, 0.0)],                      # an entry that is not a float
    [(1.0, 1.0, 0.0, "0")],
    [None, (1.0, 1.0, None, 0.0)],
], ids=repr)
def test_compiled_kernel_refuses_a_malformed_wright_table(ck, rows):
    with pytest.raises((TypeError, ValueError)):
        ck.wright_series(*WRIGHT_COLUMNS, 0.3, 1e-14, 10_000, rows)


@pytest.mark.parametrize("table", [[], (), 0.0, "table"], ids=repr)
def test_compiled_kernel_refuses_a_malformed_s_table(ck, table):
    with pytest.raises(TypeError):
        ck.bs_series(0.25, -3.0, 1e-14, 10_000, table)
    with pytest.raises(TypeError):
        ck.hyp2f1_kernel(0.3, 0.45, 1.1, 0.9, 0.1, table)


def test_table_arguments_are_optional_and_last(kernels):
    assert kernels.bs_series(0.25, 3.0, 1e-14, 10_000, None) == kernels.bs_series(
        0.25, 3.0, 1e-14, 10_000)
    assert kernels.wright_series(*WRIGHT_COLUMNS, 0.3, 1e-14, 10_000, None) == \
        kernels.wright_series(*WRIGHT_COLUMNS, 0.3, 1e-14, 10_000)
    assert kernels.hyp2f1_kernel(0.3, 0.45, 1.1, 0.9, 0.1, None) == \
        kernels.hyp2f1_kernel(0.3, 0.45, 1.1, 0.9, 0.1)
    with pytest.raises(TypeError):
        kernels.hyp2f1_kernel(0.3, 0.45, 1.1, 0.9, 0.1, {}, None)
    with pytest.raises(TypeError):
        kernels.bs_series(0.25, 3.0, 1e-14, 10_000, {}, None)
    with pytest.raises(TypeError):
        kernels.wright_series(*WRIGHT_COLUMNS, 0.3, 1e-14, 10_000, [], None)
