"""The kernels' order tables and the Wright spec's table, on both backends.

The pure ``bs_series`` and ``hyp2f1_kernel`` keep what they derive from
their order alone (nu; a, b, c after the Pfaff transform) in a one-slot
module table for the last order seen, and ``wright_eval`` passes a spec's
own table (``WrightSpec._rows``) to every kernel call of the spec.  A
call's bits must not depend on the calls before it: each is compared with
the same call made right after a call at another order, which empties the
slot, whatever order the points come in, however the orders interleave
and however many threads share the slot.  The compiled twin keeps only
the 2F1 connection coefficients, in a static slot of its own, and both
twins refuse a table argument to these two kernels.  The pure 2F1 slot
also keeps the values it has summed, which must carry the same bits.
Tests count the work the tables save: the 2F1 points a lemma check
sums, the Wright tables a theorem check builds, the images and specs it
constructs, and the oracle's power lists.
tests/test_wright.py checks the Wright spec's table the same way.
"""

import collections
import math
import random
from types import SimpleNamespace

import pytest

from bsfrac import BsfracError, MsmParams, Side, bessel_struve_kernel, msm_quadrature
from bsfrac import _pykernels as pk
from bsfrac import checks, msm, pathway, series, wright
from bsfrac.checks import CHECKS, SUITES, Config

import oracles
from conftest import in_threads

NUS = [-0.9, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 2.3, 9.7, 40.0]
OTHER_NU = 7.125  # an order no test sweeps: a call at it empties the slot
# from -1000 to 700: both signs of zero, subnormals, the start of each
# route, the bench's grid and the u > 600 overflow guard
US = ([-1000.0, -999.5, -300.0, -47.25, -20.0, -5e-324, -0.0, 0.0, 5e-324, 1e-310,
       -1e-310, 600.5, 650.0, 700.0] + oracles.linspace(-20.0, 20.0, 97)
      + oracles.linspace(-120.0, 120.0, 13))


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


@pytest.mark.parametrize("nu", NUS)
def test_s_table_returns_one_shot_bits(backend, nu):
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


def test_s_table_bits_do_not_depend_on_fill_order(backend):
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
    built, build = [], pk._bs_sequence

    def counted(nu, a, top, cap):
        built.append(top)
        return build(nu, a, top, cap)

    monkeypatch.setattr(pk, "_bs_sequence", counted)
    us = oracles.linspace(-60.0, -0.125, 479)
    lengths = {int(-u + 9.0 * math.sqrt(-u) + 25.0) for u in us}
    for sweep in (us, us[::-1]):
        pk.bs_series(OTHER_NU, 1.0, 1e-14, 10_000)  # empties the slot
        built.clear()
        for u in sweep:
            pk.bs_series(2.3, u, 1e-14, 10_000)
        assert sorted(built) == sorted(lengths), built


def test_s_table_shared_by_threads(backend):
    # six threads, each alternating between two orders point by point, so
    # that the slot changes hands at every call
    us = oracles.linspace(-40.0, 40.0, 81)
    points = [(nu, u) for u in us for nu in (2.3, 0.25)]
    want = [_fresh(bessel_struve_kernel, nu, u) for nu, u in points]
    results = {}

    def sweep(i):
        ordered = points if i % 2 else points[::-1]
        results[i] = [_outcome(bessel_struve_kernel, nu, u) for nu, u in ordered]

    in_threads(sweep)
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


def test_2f1_table_returns_one_shot_bits(backend):
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
    for a, b, c in sets if backend is pk else ():
        if a * b != 0.0:
            pk.hyp2f1_kernel(a, b, c, -1e6, 0.0)
            assert pk._hyp2f1_slot[:3] == (a, c - b, c)


def test_2f1_table_bits_do_not_depend_on_sweep_direction(backend):
    # a sweep whose z rises through the direct series from 0.05 to 0.75,
    # then falls back over the same points; runs of one to four of its calls
    # alternate with calls at another c, on either route, which replace the
    # slot mid-sweep
    zs = oracles.linspace(0.05, 0.75, 29)
    sweep = [(0.3, 0.45, 1.1, z, 1.0 - z) for z in zs + zs[::-1]]
    others = [(0.3, 0.45, 1.6, z, wbar) for z, wbar in HYP2F1_POINTS]
    rng = random.Random(17)
    calls = []
    i = 0
    while i < len(sweep):
        n = rng.randint(1, 4)
        calls += sweep[i:i + n] + [rng.choice(others)]
        i += n
    got = [_outcome(_hyp2f1, *call) for call in calls]
    for call, outcome in zip(calls, got):
        assert outcome == _fresh(_hyp2f1, *call), call


def test_2f1_table_shared_by_threads(backend):
    # the direct series, the connection formula, and both behind the Pfaff
    # transform
    zs = [(z, 1.0 - z) for z in oracles.linspace(0.05, 0.99, 48)]
    zs += [(z, 0.0) for z in oracles.linspace(-40.0, -0.05, 48)]
    # six threads, each alternating between two orders point by point
    points = [(a, b, c, z, wbar) for z, wbar in zs for a, b, c in ((0.3, 0.45, 1.1),
                                                                   (0.6, 0.2, 1.7))]
    want = [_fresh(_hyp2f1, *point) for point in points]
    results = {}

    def sweep(i):
        ordered = points if i % 2 else points[::-1]
        results[i] = [_outcome(_hyp2f1, *point) for point in ordered]

    in_threads(sweep)
    for i in range(6):
        assert results[i] == (want if i % 2 else want[::-1])


def _pfaff_twins(a, b, c, points):
    """Each point, and for z < 0 the direct call at c - b that the Pfaff
    transform makes of it, at the transformed (z, wbar): both read one slot
    and one stored value."""
    calls = []
    for z, wbar in points:
        calls.append((a, b, c, z, wbar))
        if z < 0.0:
            calls.append((a, c - b, c, z / (z - 1.0), 1.0 / (1.0 - z)))
    return calls


def _value_keys(calls):
    """The keys of the pure slot's values after ``calls`` on one slot: z on
    the direct series, (z, wbar) on the connection formula, both after the
    Pfaff transform and the wbar <= 0 default."""
    keys = set()
    for _, _, _, z, wbar in calls:
        if z < 0.0:
            z, wbar = z / (z - 1.0), 1.0 / (1.0 - z)
        elif wbar <= 0.0:
            wbar = 1.0 - z
        keys.add(z if z <= 0.75 else (z, wbar))
    return keys


def test_2f1_values_return_one_shot_bits(backend):
    # a shuffled sweep on one slot that repeats every point three times, on
    # the direct series, the connection formula (with the exact complement
    # and with the default wbar = 0.0) and both behind the Pfaff transform:
    # every call, a stored value or not, against the same call on an empty
    # slot
    a, b, c = 0.3, 0.45, 1.1
    points = HYP2F1_POINTS + [(0.9, 0.0), (-0.5, 0.0), (-40.0, 0.0)]
    calls = [(a, c - b, c, z, wbar) for z, wbar in points if z >= 0.0]
    calls += _pfaff_twins(a, b, c, [(z, wbar) for z, wbar in points if z < 0.0])
    calls *= 3
    random.Random(43).shuffle(calls)
    _outcome(_hyp2f1, OTHER_NU, b, c, 0.5, 0.5)  # empties the slot
    got = [_outcome(_hyp2f1, *call) for call in calls]
    if backend is pk:  # one slot served the sweep, one value per point
        assert pk._hyp2f1_slot[:3] == (a, c - b, c)
        assert set(pk._hyp2f1_slot[4]) == _value_keys(calls)
        assert len(pk._hyp2f1_slot[4]) < len(set(calls))
    for call, outcome in zip(calls, got):
        assert outcome == _fresh(_hyp2f1, *call), call


def test_2f1_values_shared_by_threads(backend):
    # six threads, each alternating between two orders point by point, over
    # points that repeat and Pfaff twins, so that the slot and its values
    # change hands at every call and threads store into replaced slots
    zs = [(z, 1.0 - z) for z in oracles.linspace(0.05, 0.99, 48)]
    zs += [(z, 0.0) for z in oracles.linspace(-40.0, -0.05, 48)]
    points = [call for pair in zip(_pfaff_twins(0.3, 0.45, 1.1, zs),
                                   _pfaff_twins(0.6, 0.2, 1.7, zs)) for call in pair] * 2
    want = [_fresh(_hyp2f1, *point) for point in points]
    results = {}

    def sweep(i):
        ordered = points if i % 2 else points[::-1]
        results[i] = [_outcome(_hyp2f1, *point) for point in ordered]

    in_threads(sweep)
    for i in range(6):
        assert results[i] == (want if i % 2 else want[::-1])


@pytest.mark.parametrize("check_id, calls, most", [("L1", 3348, 882), ("L2", 3038, 686)],
                         ids=["L1", "L2"])
def test_lemma_sums_each_2f1_point_once(monkeypatch, check_id, calls, most):
    # the lemma checks meet each 2F1 point again at every rho, and at every
    # parameter set of the same (a, b, c): the pure slot sums it once.  The
    # calls are those of the distinct integrals alone (see below)
    counts = collections.Counter()
    kernel, tail = pk.hyp2f1_kernel, pk._hyp2f1_tail

    def counted_tail(*args):
        counts["tail"] += 1
        return tail(*args)

    def counted_kernel(*args):
        counts["calls"] += 1
        before = counts["tail"]
        value = kernel(*args)
        counts["summed"] += counts["tail"] > before
        return value

    monkeypatch.setattr(pk, "_hyp2f1_tail", counted_tail)
    monkeypatch.setattr(msm, "kernels", SimpleNamespace(hyp2f1_kernel=counted_kernel,
                                                        bs_series=pk.bs_series))
    kernel(OTHER_NU, 0.45, 1.1, 0.5, 0.5)  # empties the slot
    cfg = Config()
    check = CHECKS[check_id]
    check.runner(cfg, cfg.tolerances[check.tolerance_key])
    assert counts["calls"] == calls
    assert counts["summed"] <= most, counts


@pytest.mark.parametrize("check_id, grid, extra", [("L1", 108, 1), ("L2", 60, 2)])
def test_lemmas_compute_each_distinct_integral_once(monkeypatch, check_id, grid, extra):
    # the collapse grid meets each integral at several parameter sets: on
    # the left, alpha' = 0 leaves beta' out, and alpha = 0 (no 2F1) beta;
    # each (integral, x) is computed once, then the exact and probe cases
    calls = []

    def counted(side, params, kind, x, **kw):
        calls.append((msm._collapsed(side, params, kind.rho), x))
        return msm_quadrature(side, params, kind, x, **kw)

    monkeypatch.setattr(checks, "msm_quadrature", counted)
    cfg = Config()
    check = CHECKS[check_id]
    st = check.runner(cfg, cfg.tolerances[check.tolerance_key])
    assert len(calls) == len(set(calls)) == grid + extra
    assert st["n_points"] > grid  # the points, 216 and 162, are all still tracked


def test_oracle_builds_ratios_once_per_gamma_table(monkeypatch):
    # T1's oracle serves 50 (gamma table, nu) pairs from 10 ratio tables
    tables, pairs = [], set()
    ratios, oracle = checks._term_ratios, checks._image_oracle

    def counted_ratios(nums, dens, n_terms):
        tables.append((nums, dens))
        return ratios(nums, dens, n_terms)

    def recorded_oracle():
        image = oracle()

        def recorded(t, nu, lam, x):
            pairs.add((t, nu))
            return image(t, nu, lam, x)

        return recorded

    monkeypatch.setattr(checks, "_term_ratios", counted_ratios)
    monkeypatch.setattr(checks, "_image_oracle", recorded_oracle)
    cfg = Config()
    check = CHECKS["T1"]
    check.runner(cfg, cfg.tolerances[check.tolerance_key])
    assert len(tables) == len(set(tables)) == 10
    assert len(pairs) == 50


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


# (a, A, k): a + A*k lands in the pole window (0, POLE_TOL] first at term k
POLE_WINDOW = [(5e-13, 1.0, 0), (pk.POLE_TOL, 0.5, 0), (5e-324, 1.0, 0),
               (-0.75 + 5e-13, 0.25, 3), (-2.5 + 7e-13, 1.25, 2)]


@pytest.mark.parametrize("a, A, k", POLE_WINDOW)
def test_wright_pole_window_is_left_alone(backend, a, A, k):
    # the rows take log(gamma(g)) inline only for POLE_TOL < g < 171.6; in
    # the window an upper pair is still a pole, and a lower pair still
    # zeroes its term, on a shared table and on a fresh one alike
    g = a + A * k
    assert 0.0 < g <= pk.POLE_TOL
    zs = (0.5, -2.0, 7.0)
    upper = ((1.2, a), (1.0, A), (1.9,), (1.0,))
    shared = []
    for z in zs:
        got = backend.wright_series(*upper, z, 1e-14, 10_000, shared)
        assert got == (float(k), 0.0, k, 2) == backend.wright_series(*upper, z, 1e-14, 10_000, [])
        assert len(shared) == k
    lower = ((1.2,), (1.0,), (1.9, a), (1.0, A))
    shared = []
    for z in zs:
        value, err, terms, status = got = backend.wright_series(*lower, z, 1e-14, 10_000, shared)
        assert got == backend.wright_series(*lower, z, 1e-14, 10_000, []), z
        assert got == backend.wright_series(*lower, z, 1e-14, 10_000), z
        want = math.fsum(math.gamma(1.2 + j) / (math.gamma(1.9 + j) * math.gamma(a + A * j))
                         * z ** j / math.factorial(j) for j in range(terms) if j != k)
        assert status == 0 and math.isclose(value, want, rel_tol=1e-12, abs_tol=1e-300), z
    assert [j for j, row in enumerate(shared) if row is None] == [k]


def test_msm_theorems_build_one_wright_table_per_spec(monkeypatch):
    # every runner of verify msm-theorems hands kernels.wright_series one
    # term table per distinct spec, however many images and points share it
    calls = []

    def wright_series(*args):
        calls.append((args[:4], args[7]))  # keeps each table alive for id()
        return pk.wright_series(*args)

    monkeypatch.setattr(wright, "kernels", SimpleNamespace(wright_series=wright_series))
    cfg = Config()
    for check_id in SUITES["msm-theorems"]:
        calls.clear()
        check = CHECKS[check_id]
        check.runner(cfg, cfg.tolerances[check.tolerance_key])
        tables = collections.defaultdict(set)
        for columns, table in calls:
            tables[columns].add(id(table))
        assert all(len(ids) == 1 for ids in tables.values()), check_id
        assert len({id(table) for _, table in calls}) == len(tables), check_id
        assert len(calls) > len(tables), check_id


@pytest.mark.parametrize("check_id, specs, tables", [
    ("T1", 53, 50), ("T2", 54, 54), ("T8", 75, 39),
])
def test_theorem_checks_build_each_image_and_spec_once(monkeypatch, check_id, specs, tables):
    # a theorem check builds each image once for all its lam and x, and
    # hands the kernel one term table per distinct spec, T8's published
    # form included
    built, calls = [], []
    new = wright.WrightSpec.__new__

    def counted_new(*args, **kwargs):
        spec = new(*args, **kwargs)
        built.append(spec)
        return spec

    def wright_series(*args):
        calls.append((args[:4], args[7]))  # keeps each table alive for id()
        return pk.wright_series(*args)

    monkeypatch.setattr(wright.WrightSpec, "__new__", counted_new)
    monkeypatch.setattr(wright, "kernels", SimpleNamespace(wright_series=wright_series))
    cfg = Config()
    check = CHECKS[check_id]
    check.runner(cfg, cfg.tolerances[check.tolerance_key])
    assert len(built) == specs
    assert len({id(table) for _, table in calls}) == len({columns for columns, _ in calls}) \
        == tables


def _count_runner_work(monkeypatch, check_id):
    """The WrightSpec constructions and kernel-image builds of one check
    runner's call."""
    counts = collections.Counter()
    new, kernel_image = wright.WrightSpec.__new__, msm._kernel_image

    def counted_new(*args, **kwargs):
        counts["specs"] += 1
        return new(*args, **kwargs)

    def counted_kernel_image(*args):
        counts["images"] += 1
        return kernel_image(*args)

    monkeypatch.setattr(wright.WrightSpec, "__new__", counted_new)
    for module in (msm, pathway, checks):  # pathway and checks hold their own references
        monkeypatch.setattr(module, "_kernel_image", counted_kernel_image)
    cfg = Config()
    check = CHECKS[check_id]
    check.runner(cfg, cfg.tolerances[check.tolerance_key])
    return counts


@pytest.mark.parametrize("check_id", ["L1", "L2", "L3"])
def test_power_image_checks_construct_no_wright_spec(monkeypatch, check_id):
    # every power image shares msm's one empty spec, and its term table
    assert msm.msm_power_image(Side.LEFT, MsmParams(0, 0, 0, 0, 1.0), 2.0).spec \
        is pathway.pathway_power_image(pathway.PathwayParams(1.0, 1.0, 0.0), 1.0).spec \
        is msm._EMPTY_SPEC
    assert _count_runner_work(monkeypatch, check_id)["specs"] == 0


@pytest.mark.parametrize("check_id, images", [("T1", 53), ("T2", 53), ("T7", 100)])
def test_theorem_checks_build_one_image_per_series(monkeypatch, check_id, images):
    # one image per (params, nu, rho) or (params, sigma, nu) that some lam
    # reaches, plus the quadrature probes (and T7's zero-scale case); every
    # lam is taken from it by its argument scale
    assert _count_runner_work(monkeypatch, check_id)["images"] == images


def test_oracle_builds_one_power_list_per_argument(monkeypatch):
    # T1's 200 points meet 4 oracle arguments lam*x: 0.35, 0.65, 0.7, 1.3
    built = []
    powers = checks._powers

    def counted_powers(w, n_terms):
        built.append(w)
        return powers(w, n_terms)

    monkeypatch.setattr(checks, "_powers", counted_powers)
    cfg = Config()
    check = CHECKS["T1"]
    st = check.runner(cfg, cfg.tolerances[check.tolerance_key])
    assert sorted(built) == [0.5 * 0.7, 0.5 * 1.3, 0.7, 1.3]
    assert st["n_points"] == 200


def _count_per_check(monkeypatch, module, name):
    """Calls of ``module.name`` made by each check of ``run_suite("all")``,
    through the module and through checks."""
    counts, current = collections.Counter(), []
    original, execute = getattr(module, name), checks._execute_check

    def counted(*args):
        counts[current[-1]] += 1
        return original(*args)

    def tagged(spec, cfg, tol):
        current.append(spec.id)
        return execute(spec, cfg, tol)

    for target in {module, checks}:
        monkeypatch.setattr(target, name, counted)
    monkeypatch.setattr(checks, "_execute_check", tagged)
    checks.run_suite("all")
    return counts


def test_theorem_checks_build_each_gamma_table_once(monkeypatch):
    # T1 and T2 build each (params, rho) table once and take the oracle
    # value and the image of every nu, lam and x from it: 10 tables, then 3
    # probe images and 3 probe quadratures (and T2's variant, 2)
    counts = _count_per_check(monkeypatch, msm, "_gamma_args")
    assert (counts["T1"], counts["T2"]) == (16, 18)
    assert sum(counts.values()) == 662


def test_each_oracle_using_check_builds_one_oracle(monkeypatch):
    # a check run makes its oracle at first use and keeps it, T2's variant
    # included; the checks without an oracle never make one
    counts = _count_per_check(monkeypatch, checks, "_image_oracle")
    assert counts == dict.fromkeys(["T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8"], 1)


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
def test_s_and_2f1_kernels_refuse_a_table(backend, table):
    # both twins take their arguments and no more: no table, not even None
    with pytest.raises(TypeError):
        backend.bs_series(0.25, -3.0, 1e-14, 10_000, table)
    with pytest.raises(TypeError):
        backend.hyp2f1_kernel(0.3, 0.45, 1.1, 0.9, 0.1, table)


def test_table_arguments_are_optional_and_last(backend):
    assert backend.wright_series(*WRIGHT_COLUMNS, 0.3, 1e-14, 10_000, None) == \
        backend.wright_series(*WRIGHT_COLUMNS, 0.3, 1e-14, 10_000)
    with pytest.raises(TypeError):
        backend.wright_series(*WRIGHT_COLUMNS, 0.3, 1e-14, 10_000, [], None)
