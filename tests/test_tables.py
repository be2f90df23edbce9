"""The kernels' order tables and the Wright spec's table, on both backends.

The pure ``bs_series`` and ``hyp2f1_kernel`` keep what they derive from
their order alone (nu; a, b, c after the Pfaff transform) in a one-slot
module table for the last order seen, and ``wright_eval`` passes a spec's
own table (``WrightSpec._rows``) to every kernel call of the spec.  A
call's bits must not depend on the calls before it: each is compared with
the same call made right after a call at another order, which empties the
slot, whatever order the points come in, however the orders interleave
and however many threads share the slot.  The compiled twin keeps no
slot, and both twins refuse a table argument to these two kernels.
tests/test_wright.py checks the Wright spec's table the same way.
"""

import math
import random
import sys
import threading

import pytest

from bsfrac import BsfracError, bessel_struve_kernel
from bsfrac import _pykernels as pk
from bsfrac import series

import oracles

NUS = [-0.9, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 2.3, 9.7, 40.0]
OTHER_NU = 7.125  # an order no test sweeps: a call at it empties the slot
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


def _outcome(evaluate, *args):
    """Every field of the result, bit for bit, or the error class."""
    try:
        result = evaluate(*args)
    except (BsfracError, ArithmeticError) as exc:
        return type(exc)
    return tuple(map(repr, result)) if isinstance(result, tuple) else repr(result)


def _fresh(evaluate, order, *args):
    """``evaluate(order, *args)`` right after a call at another order,
    which empties the slot."""
    _outcome(evaluate, order + 1.5, *args)
    return _outcome(evaluate, order, *args)


def _kernel_at(cap):
    return lambda nu, u: series.kernels.bs_series(nu, u, 1e-14, cap)


def _in_threads(sweep, n=6):
    """Run ``sweep(i)`` for i < n in n threads that switch every microsecond."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


@pytest.mark.parametrize("nu", NUS)
def test_s_table_returns_one_shot_bits(kernels, nu):
    # a shuffled sweep that interleaves this order with its neighbour in
    # NUS (-0.0 with +0.0), at the kernel with two caps and through
    # bessel_struve_kernel, which adds the u > 600 guard and the bound's
    # memo: every call against the same call on an empty slot
    other = NUS[NUS.index(nu) - 1]
    calls = [(evaluate, v, u) for v in (nu, other) for u in US
             for evaluate in (_kernel_at(10_000), _kernel_at(60), bessel_struve_kernel)
             if u <= 600.0 or evaluate is bessel_struve_kernel]
    random.Random(repr(nu)).shuffle(calls)
    got = [_outcome(*call) for call in calls]
    for call, outcome in zip(calls, got):
        assert outcome == _fresh(*call), call[1:]


def test_s_table_bits_do_not_depend_on_fill_order(kernels):
    us = oracles.linspace(-60.0, 60.0, 121)
    for nu in (0.25, 2.3):
        want = [_fresh(bessel_struve_kernel, nu, u) for u in us]
        _outcome(bessel_struve_kernel, OTHER_NU, 1.0)
        assert [_outcome(bessel_struve_kernel, nu, u) for u in us] == want
        _outcome(bessel_struve_kernel, OTHER_NU, 1.0)
        assert [_outcome(bessel_struve_kernel, nu, u) for u in reversed(us)] == want[::-1]
        # and again on the full table
        assert [_outcome(bessel_struve_kernel, nu, u) for u in us] == want


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
        bessel_struve_kernel(OTHER_NU, 1.0)  # empties the slot
        built.clear()
        for u in sweep:
            bessel_struve_kernel(2.3, u)
        assert sorted(built) == sorted(lengths), built


def test_s_table_shared_by_threads(kernels):
    # six threads, each alternating between two orders point by point, so
    # that the slot changes hands at every call
    us = oracles.linspace(-40.0, 40.0, 81)
    points = [(nu, u) for u in us for nu in (2.3, 0.25)]
    want = [_fresh(bessel_struve_kernel, nu, u) for nu, u in points]
    results = {}

    def sweep(i):
        ordered = points if i % 2 else points[::-1]
        results[i] = [_outcome(bessel_struve_kernel, nu, u) for nu, u in ordered]

    _in_threads(sweep)
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


def _hyp2f1(a, b, c, z, wbar):
    return series.kernels.hyp2f1_kernel(a, b, c, z, wbar)


def test_2f1_table_returns_one_shot_bits(kernels):
    # every point of every (a, b, c) in one shuffled sweep, so that the
    # orders interleave, against the same call on an empty slot
    sets = _collapsed_2f1_sets()
    assert any(a * b != 0.0 for a, b, _ in sets) and any(a * b == 0.0 for a, b, _ in sets)
    calls = [(a, b, c, z, wbar) for a, b, c in sets for z, wbar in HYP2F1_POINTS]
    random.Random(31).shuffle(calls)
    got = [_outcome(_hyp2f1, *call) for call in calls]
    for call, outcome in zip(calls, got):
        assert outcome == _fresh(_hyp2f1, *call), call
    # the pure slot keeps the last connection route's (a, b, c), b after
    # the Pfaff transform
    for a, b, c in sets if kernels is pk else ():
        if a * b != 0.0:
            pk.hyp2f1_kernel(a, b, c, -1e6, 0.0)
            assert pk._hyp2f1_slot[:3] == (a, c - b, c)


def test_2f1_table_shared_by_threads(kernels):
    zs = [(z, 1.0 - z) for z in oracles.linspace(0.76, 0.99, 24)]
    zs += [(z, 0.0) for z in oracles.linspace(-40.0, -3.5, 24)]
    # six threads, each alternating between two orders point by point
    points = [(a, b, c, z, wbar) for z, wbar in zs for a, b, c in ((0.3, 0.45, 1.1),
                                                                   (0.6, 0.2, 1.7))]
    want = [_fresh(_hyp2f1, *point) for point in points]
    results = {}

    def sweep(i):
        ordered = points if i % 2 else points[::-1]
        results[i] = [_outcome(_hyp2f1, *point) for point in ordered]

    _in_threads(sweep)
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


@pytest.mark.parametrize("table", [[], (), 0.0, "table", {}, None], ids=repr)
def test_s_and_2f1_kernels_refuse_a_table(kernels, table):
    # both twins take their arguments and no more: no table, not even None
    with pytest.raises(TypeError):
        kernels.bs_series(0.25, -3.0, 1e-14, 10_000, table)
    with pytest.raises(TypeError):
        kernels.hyp2f1_kernel(0.3, 0.45, 1.1, 0.9, 0.1, table)


def test_table_arguments_are_optional_and_last(kernels):
    assert kernels.wright_series(*WRIGHT_COLUMNS, 0.3, 1e-14, 10_000, None) == \
        kernels.wright_series(*WRIGHT_COLUMNS, 0.3, 1e-14, 10_000)
    with pytest.raises(TypeError):
        kernels.wright_series(*WRIGHT_COLUMNS, 0.3, 1e-14, 10_000, [], None)
