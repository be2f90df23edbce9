/* Compiled numeric kernels, written against the CPython C API.
 *
 * Twin of bsfrac._pykernels: the same public functions, signatures, branch
 * structure and floating-point operation order, so both backends agree to
 * the last few ulps (libm and CPython's own gamma/lgamma may differ by one
 * ulp).  The contract comments live in the pure module; this file mirrors
 * it.  Build with -O2 -ffp-contract=off: a fused multiply-add would round
 * differently from the pure twin.  The default rounding mode is assumed,
 * so nearbyint rounds ties to even, as Python's round() does.  The pole
 * predicate is private to each twin's Wright kernel (gammacore.is_pole is
 * the library's).  Of the pure twin's order tables only the 2F1 connection
 * coefficients have a counterpart here, a static one-slot (``hyp2f1_slot``):
 * the other entries cost about what reading a table back would.  As in the
 * pure twin, the first non-finite partial sum ends bs_series (u > 0),
 * bessel_series and struve_series, with bound inf and flag 0; those two
 * return their sum of |terms| as a fifth item.  Each row kernel (bs_row,
 * bessel_type_row, wright_row) and its one-point kernel fill a series_out
 * through the same point function; a row holds its x-free work (the
 * odd-chain prefactor and b-sequence, the log-gammas of an order, a spec's
 * columns and rows) in a state struct for the length of the call, and
 * keeps no static state.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <float.h>
#include <limits.h>
#include <math.h>

#define POLE_TOL_C 1e-12
#define MAX_PAIRS 32

static const double PI = 3.141592653589793;
static const double SPLIT = 134217729.0; /* 2**27 + 1, Dekker splitting constant */
static const double HALF_LN_PI = 0.5723649429247001;
static const double U = 1.1102230246251565e-16; /* unit roundoff, 2**-53 */

/* --- argument parsing ---------------------------------------------------- */

/* Convert the positional arguments by ``fmt``, one code per argument: 'd'
 * for a double (any number), 'i' for a C int (an integer), 'O' for the
 * object itself (borrowed).  Returns -1 with an exception set on a wrong
 * count or type. */
static int
parse_args(const char *name, PyObject *const *args, Py_ssize_t nargs,
           const char *fmt, void **out)
{
    Py_ssize_t want = (Py_ssize_t)strlen(fmt);
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "%s() takes exactly %zd positional arguments (%zd given)",
                     name, want, nargs);
        return -1;
    }
    for (Py_ssize_t i = 0; i < want; i++) {
        if (fmt[i] == 'O')
            *(PyObject **)out[i] = args[i];
        else if (fmt[i] == 'd') {
            double v = PyFloat_AsDouble(args[i]);
            if (v == -1.0 && PyErr_Occurred())
                return -1;
            *(double *)out[i] = v;
        }
        else {
            long v = PyLong_AsLong(args[i]);
            if (v == -1 && PyErr_Occurred())
                return -1;
            if (v > INT_MAX || v < INT_MIN) {
                PyErr_Format(PyExc_OverflowError, "%s() argument %zd does not fit a C int",
                             name, i + 1);
                return -1;
            }
            *(int *)out[i] = (int)v;
        }
    }
    return 0;
}

/* A series kernel's result, filled by the point functions that both a
 * one-point kernel and its row kernel call: (value, abs_error_est,
 * terms_used, flag), and for the Bessel-type kernels the sum of |terms|. */
typedef struct {
    double value, err;
    long long terms;
    int flag;
    double total;
} series_out;

/* The tuple of (value, err, terms, last), and ``fifth`` after it unless it
 * is NULL; steals the references to last and fifth, which may be NULL on a
 * failed allocation. */
static PyObject *
point_tuple(double value, double err, long long terms, PyObject *last, PyObject *fifth)
{
    int size = fifth ? 5 : 4;
    PyObject *items[5] = {PyFloat_FromDouble(value), PyFloat_FromDouble(err),
                          PyLong_FromLongLong(terms), last, fifth};
    PyObject *tuple = NULL;
    if (items[0] && items[1] && items[2] && items[3])
        tuple = PyTuple_New(size);
    for (int i = 0; i < size; i++) {
        if (tuple)
            PyTuple_SET_ITEM(tuple, i, items[i]);
        else
            Py_XDECREF(items[i]);
    }
    return tuple;
}

/* A one-point kernel's tuple: four items, or five with the sum of |terms|. */
static PyObject *
series_tuple(int size, const series_out *r)
{
    PyObject *fifth = size == 5 ? PyFloat_FromDouble(r->total) : NULL;
    if (size == 5 && fifth == NULL)
        return NULL;
    return point_tuple(r->value, r->err, r->terms, PyLong_FromLong(r->flag), fifth);
}

#define series_result(value, err, terms, flag) \
    series_tuple(4, &(series_out){value, err, terms, flag, 0.0})

/* Append a row's (value, err, terms, converged) to the list out; -1 with an
 * exception set. */
static int
append_point(PyObject *out, double value, double err, long long terms, int converged)
{
    PyObject *item = point_tuple(value, err, terms, PyBool_FromLong(converged), NULL);
    int rc = item ? PyList_Append(out, item) : -1;
    Py_XDECREF(item);
    return rc;
}

/* The x-sequence and output list of a row kernel: xs copied to a tuple (a
 * number's __float__ cannot change it), out a list.  Returns the tuple, or
 * NULL with an exception set. */
static PyObject *
row_xs(const char *name, PyObject *xs, PyObject *out)
{
    if (!PyList_Check(out)) {
        PyErr_Format(PyExc_TypeError, "%s() out must be a list, not %.200s", name,
                     Py_TYPE(out)->tp_name);
        return NULL;
    }
    return PySequence_Tuple(xs);
}

/* --- gamma ---------------------------------------------------------------- */

static int
near_nonpos_int(double x)
{
    /* r <= 0 and |x - r| <= tol, r the nearest integer, is x <= tol and
     * |x - r| <= tol; there is no pole at NaN or at +-inf */
    return -INFINITY < x && x <= POLE_TOL_C && fabs(x - nearbyint(x)) <= POLE_TOL_C;
}

/* log|Gamma(x)| for real non-pole x; the sign of Gamma(x) goes to *sign */
static double
lgamma_sign_c(double x, int *sign)
{
    double d, s;
    if (x > 0.0) {
        *sign = 1;
        if (1e-280 < x && x < 171.6)
            return log(tgamma(x));
        return lgamma(x);
    }
    /* the parity of floor(x), which need not fit an integer type */
    *sign = fmod(floor(x), 2.0) != 0.0 ? -1 : 1;
    d = fabs(x - nearbyint(x));
    s = sin(PI * d);
    if (-x <= 170.5)
        return log(PI / (s * (-x) * tgamma(-x)));
    return log(PI) - log(s) - lgamma(1.0 - x);
}

static PyObject *
lgamma_sign(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    double x, la;
    int sg;
    void *out[] = {&x};
    if (parse_args("lgamma_sign", args, nargs, "d", out) < 0)
        return NULL;
    la = lgamma_sign_c(x, &sg);
    return Py_BuildValue("(di)", la, sg);
}

/* --- double-double primitives (Dekker/Knuth error-free transforms) -------- */

typedef struct {
    double hi, lo;
} dd;

static dd
quick_two_sum(double a, double b)
{
    double s = a + b;
    return (dd){s, b - (s - a)};
}

static dd
two_prod(double a, double b)
{
    double p = a * b;
    double ta = SPLIT * a;
    double ahi = ta - (ta - a);
    double alo = a - ahi;
    double tb = SPLIT * b;
    double bhi = tb - (tb - b);
    double blo = b - bhi;
    return (dd){p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo};
}

static dd
dd_mul_d(dd x, double d)
{
    dd p = two_prod(x.hi, d);
    p.lo += x.lo * d;
    return quick_two_sum(p.hi, p.lo);
}

static dd
dd_div_d(dd x, double d)
{
    double q1 = x.hi / d;
    dd p = two_prod(q1, d);
    return quick_two_sum(q1, ((x.hi - p.hi) + (x.lo - p.lo)) / d);
}

/* 2/pi as a double-double: the correctly rounded double and the remainder */
static const dd TWO_OVER_PI = {0.6366197723675814, -3.935735335036497e-17};

/* Gamma(nu+1)/(sqrt(pi)*Gamma(nu+3/2)), the odd chain's prefactor: the high
 * word of a double-double recurrence where 2*nu is an integer and |nu| < 90 */
static double
bs_odd_prefactor(double nu)
{
    double tn = 2.0 * nu;
    long long m2, j;
    int sg, odd;
    dd c;
    if (tn == floor(tn) && fabs(nu) < 90.0) {
        m2 = (long long)tn;
        odd = m2 % 2 != 0;
        c = odd ? (dd){1.0, 0.0} : TWO_OVER_PI;
        for (j = 1; j <= (m2 + 1) / 2; j++) {
            c = dd_mul_d(c, odd ? 2.0 * j - 1.0 : (double)j);
            c = dd_div_d(c, odd ? 2.0 * j : j + 0.5);
        }
        return c.hi;
    }
    return exp(lgamma_sign_c(nu + 1.0, &sg) - lgamma_sign_c(nu + 1.5, &sg) - HALF_LN_PI);
}

/* --- series kernels ------------------------------------------------------- */

/* What bs_series derives from nu alone, kept for the length of one call (a
 * one-point call is a row of one): the odd chain's prefactor, found at the
 * first u > 0, and the b-sequence of the last N = ``top`` (-1: none), its
 * b_n then their error bounds at ``bs``, and the start series' length j. */
typedef struct {
    double nu, prefactor;
    int have_prefactor;
    long long top, j, room; /* room: the doubles allocated at bs */
    double *bs;
} bs_state;

/* S_nu(u) for u > 0 (see _pykernels._bs_positive). */
static void
bs_positive(bs_state *st, double u, double tol, int cap, series_out *r)
{
    double nu = st->nu, e = 1.0, o, s, prev;
    long long k = 0, n;
    if (!st->have_prefactor) {
        st->prefactor = bs_odd_prefactor(nu);
        st->have_prefactor = 1;
    }
    o = u * st->prefactor;
    s = e + o;
    prev = o;
    for (n = 2; n < cap; n += 2) {
        e *= u * u * (k + 0.5) / ((2.0 * k + 1.0) * (2.0 * k + 2.0) * (k + nu + 1.0));
        o *= u * u * (k + 1.0) / ((2.0 * k + 2.0) * (2.0 * k + 3.0) * (k + nu + 1.5));
        k += 1;
        /* e == 0 fails 2 * e < prev only where prev is 0 too: both chains
           are 0 from here on */
        if (fabs(prev) <= 0.5 * tol * fabs(s) && (2.0 * e < prev || e == 0.0 || isinf(s))) {
            *r = (series_out){s, isinf(s) ? INFINITY : 2.0 * prev, n, !isinf(s), 0.0};
            return;
        }
        s += e;
        if (e <= 0.5 * tol * s && (2.0 * o < e || isinf(s))) {
            *r = (series_out){s, isinf(s) ? INFINITY : 2.0 * e, n + 1, !isinf(s), 0.0};
            return;
        }
        s += o;
        prev = o;
    }
    *r = (series_out){s, 2.0 * fabs(prev), n, 0, 0.0};
}

/* Build the b-sequence of N = top into st (see _pykernels._bs_sequence):
 * returns 1, or 0 with the capped result in *r where N + j reaches cap
 * first, or -1 with MemoryError set. */
static int
bs_sequence(bs_state *st, double a, long long top, int cap, series_out *r)
{
    double nu = st->nu, M = a + top, t = 1.0 / M, s = t, sa = fabs(t), tj = 0.0, q, tail, b;
    double err, m, c, *bs, *errs;
    long long j = 0, n;
    for (;;) {
        t *= (nu - (j + 0.5)) / (M + (j + 1.0));
        j += 1;
        if (fabs(t) <= 0.125 * U * fabs(s))
            break;
        if (top + j >= cap) {
            *r = (series_out){0.0, INFINITY, top + j, 0, 0.0};
            return 0;
        }
        s += t;
        sa += fabs(t);
        tj += j * fabs(t);
    }
    q = (nu - (j + 0.5)) / (M + (j + 1.0));
    tail = q <= 0.0 ? fabs(t) : fabs(t) * (1.0 + 1.0 / (1.0 - q));
    b = 2.0 * s;
    err = 2.0 * ((3.0 + j) * sa + 6.0 * tj + tail / U);
    st->top = -1;
    if (2 * (top + 1) > st->room) {
        bs = PyMem_Realloc(st->bs, 2 * (top + 1) * sizeof(double));
        if (bs == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        st->bs = bs;
        st->room = 2 * (top + 1);
    }
    bs = st->bs;
    errs = bs + top + 1;
    bs[top] = b;
    errs[top] = err;
    for (n = top - 1; n > 0; n--) {
        m = a + n;
        c = (m + a) * 0.5;
        err = c * (err + 4.0 * b) / m;
        b = (1.0 + c * b) / m;
        err += 4.0 * b;
        bs[n] = b;
        errs[n] = err;
    }
    err += 4.0 * b;
    b = (1.0 + a * b) / a;
    bs[0] = b;
    errs[0] = err + 4.0 * fabs(b);
    st->top = top;
    st->j = j;
    return 1;
}

/* S_nu(-x) for x > 0: the positive-term series of _pykernels._bs_negative,
 * with its running error bound, in the same operation order.  Returns 0, or
 * -1 with MemoryError set. */
static int
bs_negative(bs_state *st, double x, double tol, int cap, series_out *r)
{
    double a = st->nu + 0.5, ftop, bp, den, up, down, spread, dist, werr, w, d, k, w_top, low;
    double shift, mean, value, bound, q, *bs, *errs;
    long long top, n, peak;
    int rc;
    if (a == 0.0) {
        value = exp(-x); /* within one ulp, or below the normal range */
        bound = 2.0 * U * value + (value < DBL_MIN ? 5e-324 : 0.0);
        *r = (series_out){value, bound, 1, bound <= tol * value, 0.0};
        return 0;
    }
    /* beyond N the weights fall below e^-40 of the peak's */
    ftop = x + 9.0 * sqrt(x) + 25.0;
    if (!(ftop < cap)) { /* NaN too */
        *r = (series_out){0.0, INFINITY, 0, 0, 0.0};
        return 0;
    }
    top = (long long)ftop;
    if (st->top != top && (rc = bs_sequence(st, a, top, cap, r)) <= 0)
        return rc;
    bs = st->bs;
    errs = bs + top + 1;
    peak = (long long)floor(x);
    if (peak > top)
        peak = top;
    bp = bs[peak];
    den = 1.0;
    up = down = spread = dist = 0.0;
    werr = errs[peak];
    w = 1.0;
    for (n = peak + 1; n <= top; n++) {
        w = w * x / n;
        d = bs[n] - bp;
        den += w;
        up += w * d;
        k = w * (n - peak);
        spread += k * fabs(d);
        dist += k;
        werr += w * errs[n];
    }
    w_top = w;
    w = 1.0;
    for (n = peak - 1; n >= 0; n--) {
        w = w * (n + 1) / x;
        d = bs[n] - bp;
        den += w;
        down += w * d;
        k = w * (peak - n);
        spread += k * fabs(d);
        dist += k;
        werr += w * errs[n];
    }
    low = w * fabs(bs[0] - bp);
    shift = (up + down) / den;
    mean = bp + shift;
    value = mean / bs[0];
    shift = fabs(shift);
    bound = (werr + (top - peak + 2.0) * fabs(up) + (peak + 2.0) * (fabs(down) + 2.0 * low)
             + 2.0 * (spread + dist * shift)) / den;
    bound = U * (bound + (top + 2.0) * shift + fabs(mean));
    q = x / (top + 2.0);
    bound += (fabs(bs[top]) + fabs(mean)) * w_top * (x / (top + 1.0)) / (1.0 - q) / den;
    bound = fabs(value) * (bound / fabs(mean) + U * (errs[0] / fabs(bs[0]) + 1.0));
    *r = (series_out){value, bound, top + 1 + st->j, bound <= tol * fabs(value), 0.0};
    return 0;
}

/* S_nu(u) into *r: 0, or -1 with MemoryError set. */
static int
bs_point(bs_state *st, double u, double tol, int cap, series_out *r)
{
    if (u == 0.0) {
        *r = (series_out){1.0, 0.0, 1, 1, 0.0};
        return 0;
    }
    if (u > 0.0) {
        bs_positive(st, u, tol, cap, r);
        return 0;
    }
    return bs_negative(st, -u, tol, cap, r);
}

static PyObject *
bs_series(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    double u, tol;
    int cap;
    bs_state st = {.top = -1};
    series_out r;
    PyObject *result = NULL;
    void *out[] = {&st.nu, &u, &tol, &cap};
    if (parse_args("bs_series", args, nargs, "dddi", out) < 0)
        return NULL;
    if (bs_point(&st, u, tol, cap, &r) == 0)
        result = series_tuple(4, &r);
    PyMem_Free(st.bs);
    return result;
}

static PyObject *
bs_row(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    double u, tol, units;
    int cap;
    bs_state st = {.top = -1};
    series_out r;
    Py_ssize_t i = 0, n;
    PyObject *us, *out, *result = NULL;
    void *parsed[] = {&st.nu, &us, &out, &tol, &cap, &units};
    if (parse_args("bs_row", args, nargs, "dOOdid", parsed) < 0)
        return NULL;
    if ((us = row_xs("bs_row", us, out)) == NULL)
        return NULL;
    for (n = PyTuple_GET_SIZE(us); i < n; i++) {
        u = PyFloat_AsDouble(PyTuple_GET_ITEM(us, i));
        if (u == -1.0 && PyErr_Occurred())
            goto done;
        if (!(-INFINITY < u && u < INFINITY))
            break;
        if (bs_point(&st, u, tol, cap, &r) < 0)
            goto done;
        if (!(-INFINITY < r.value && r.value < INFINITY))
            break;
        /* never report convergence the estimate does not support */
        r.flag = r.flag && r.err <= tol * fmax(fabs(r.value), 5e-324);
        if (u > 0.0)
            r.err += r.value * U * (units + 5.0 * r.terms);
        if (append_point(out, r.value, r.err, r.terms, r.flag && r.err < INFINITY) < 0)
            goto done;
    }
    result = PyLong_FromSsize_t(i);
done:
    PyMem_Free(st.bs);
    Py_DECREF(us);
    return result;
}

/* The J/I and H/L series from leading term exp(lt), with term ratio
 * (-1 unless modified) * half**2 / ((k + c) * (k + v + c)). */
static void
bessel_type_series(double lt, double half, int modified, double v, double c, double tol,
                   int cap, series_out *r)
{
    double t = exp(lt), s = t, total = t, a = t, q = modified ? half * half : -(half * half);
    long long k = 0, n;
    for (n = 1; n < cap;) {
        t = t * q / ((k + c) * (k + v + c));
        if (a <= 0.5 * tol * fabs(s) && (fabs(t) < 0.5 * a || isinf(s))) {
            *r = (series_out){s, isinf(s) ? INFINITY : 2.0 * a, n, !isinf(s), total};
            return;
        }
        a = fabs(t);
        s += t;
        total += a;
        k += 1;
        n += 1;
        if (t == 0.0) {
            *r = (series_out){s, 0.0, n, 1, total};
            return;
        }
    }
    *r = (series_out){s, 2.0 * a, n, 0, total};
}

/* The log-gammas of the leading term's gamma arguments: v + 1 (J/I), or
 * 3/2 and v + 3/2 (H/L, ``struve_type``). */
static void
bessel_type_lgammas(double v, int struve_type, double *la)
{
    int sg;
    la[0] = lgamma_sign_c(struve_type ? 1.5 : v + 1.0, &sg);
    la[1] = struve_type ? lgamma_sign_c(v + 1.5, &sg) : 0.0;
}

/* J/I or H/L at z > 0 into *r, from the leading term's log-gammas la. */
static void
bessel_type_point(double v, double z, int struve_type, int modified, const double *la,
                  double tol, int cap, series_out *r)
{
    double half = 0.5 * z;
    if (struve_type)
        bessel_type_series((v + 1.0) * log(half) - la[0] - la[1], half, modified, v, 1.5, tol,
                           cap, r);
    else
        bessel_type_series(v * log(half) - la[0], half, modified, v, 1.0, tol, cap, r);
}

static PyObject *
bessel_type_kernel(const char *name, int struve_type, PyObject *const *args, Py_ssize_t nargs)
{
    double v, z, tol, la[2];
    int modified, cap;
    series_out r;
    void *out[] = {&v, &z, &modified, &tol, &cap};
    if (parse_args(name, args, nargs, "ddidi", out) < 0)
        return NULL;
    bessel_type_lgammas(v, struve_type, la);
    bessel_type_point(v, z, struve_type, modified, la, tol, cap, &r);
    return series_tuple(5, &r);
}

static PyObject *
bessel_series(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    return bessel_type_kernel("bessel_series", 0, args, nargs);
}

static PyObject *
struve_series(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    return bessel_type_kernel("struve_series", 1, args, nargs);
}

/* See _pykernels._positive_rounding: a bound on the rounding of a sum of
 * ``terms`` positive terms summing to ``value``, the first exp(power - the
 * n log-gammas whose units are given). */
static double
positive_rounding(double value, long long terms, double power, const double *units, int n)
{
    double first;
    if (!(value < INFINITY))
        return INFINITY;
    if (!(value > 0.0))
        return terms * 5e-324;
    first = 5.0 * fabs(power) + 1.0;
    for (int i = 0; i < n; i++)
        first += units[i];
    first = first + 8.0 * terms;
    if (value < DBL_MIN)
        return value * (U * first) + terms * 5e-324;
    return value * U * first;
}

/* below this z, 0.5 * z can round and (z/2)**2 underflows */
#define HALF_ROUNDS 0x1p-1021
static const double LN2 = 0.6931471805599453;

static PyObject *
bessel_type_row(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    double v, z, tol, la[2], units[2], order, power, value;
    int struve_type, modified, cap, n_units;
    series_out r;
    Py_ssize_t i = 0, n;
    PyObject *zs, *out, *units_obj, *at_zero, *result = NULL;
    void *parsed[] = {&v, &zs, &out, &struve_type, &modified, &tol, &cap, &units_obj, &at_zero};
    if (parse_args("bessel_type_row", args, nargs, "dOOiidiOO", parsed) < 0)
        return NULL;
    n_units = struve_type ? 2 : 1;
    if (!PyTuple_Check(units_obj) || PyTuple_GET_SIZE(units_obj) != n_units) {
        PyErr_Format(PyExc_TypeError, "bessel_type_row() units must be a tuple of %d", n_units);
        return NULL;
    }
    for (int j = 0; j < n_units; j++)
        if ((units[j] = PyFloat_AsDouble(PyTuple_GET_ITEM(units_obj, j))) == -1.0
            && PyErr_Occurred())
            return NULL;
    if ((zs = row_xs("bessel_type_row", zs, out)) == NULL)
        return NULL;
    bessel_type_lgammas(v, struve_type, la);
    order = struve_type ? v + 1.0 : v;
    for (n = PyTuple_GET_SIZE(zs); i < n; i++) {
        z = PyFloat_AsDouble(PyTuple_GET_ITEM(zs, i));
        if (z == -1.0 && PyErr_Occurred())
            goto done;
        if (!(0.0 <= z && z < INFINITY))
            break;
        if (z == 0.0) {
            if (PyList_Append(out, at_zero) < 0)
                goto done;
            continue;
        }
        if (z < HALF_ROUNDS) {
            /* log(z/2) without rounding z/2 */
            power = order * (log(z) - LN2);
            value = exp(struve_type ? power - la[0] - la[1] : power - la[0]);
            if (isinf(value) ? append_point(out, INFINITY, INFINITY, 1, 0) < 0
                : append_point(out, value, positive_rounding(value, 1, power, units, n_units), 1,
                               1) < 0)
                goto done;
            continue;
        }
        bessel_type_point(v, z, struve_type, modified, la, tol, cap, &r);
        if (!(-INFINITY < r.value && r.value < INFINITY)) {
            if (append_point(out, modified ? INFINITY : NAN, INFINITY, r.terms, 0) < 0)
                goto done;
            continue;
        }
        r.err += positive_rounding(r.total, r.terms, order * log(0.5 * z), units, n_units);
        if (append_point(out, r.value, r.err, r.terms,
                         r.flag && r.err < (modified ? INFINITY : fabs(r.value))) < 0)
            goto done;
    }
    result = PyLong_FromSsize_t(i);
done:
    Py_DECREF(zs);
    return result;
}

/* Direct 2F1 series with a geometric tail bound; needs |z| < 0.97 */
static double
hyp2f1_tail(double a, double b, double c, double z, double tol, long long cap)
{
    long long k = 0;
    double s = 1.0, t = 1.0, r, f = (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z;
    while (k < cap) {
        t *= f;
        if (t == 0.0)
            return s;
        s += t;
        k += 1;
        f = (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z;
        r = fabs(f);
        if (r < 0.97 && fabs(t) * r / (1.0 - r) <= tol * fabs(s))
            return s;
    }
    return s;
}

/* Gamma(n1) Gamma(n2) / (Gamma(d1) Gamma(d2)); 0.0 where d1 or d2 is an
 * exact nonpositive integer, a zero of 1/Gamma */
static double
gamma_ratio_c(double n1, double n2, double d1, double d2)
{
    double acc = 0.0;
    int sg = 1, s;
    if ((d1 <= 0.0 && d1 == floor(d1)) || (d2 <= 0.0 && d2 == floor(d2)))
        return 0.0;
    acc += lgamma_sign_c(n1, &s);
    sg *= s;
    acc += lgamma_sign_c(n2, &s);
    sg *= s;
    acc -= lgamma_sign_c(d1, &s);
    sg *= s;
    acc -= lgamma_sign_c(d2, &s);
    sg *= s;
    return sg * exp(acc);
}

/* (a, b, c, s, p1, p2) of the last connection route, b after the Pfaff
 * transform; NaN matches no order.  The kernel holds the GIL from start to
 * end, so no two calls are ever inside it at once. */
static double hyp2f1_slot[6] = {NAN, NAN, NAN, 0.0, 0.0, 0.0};

static PyObject *
hyp2f1_kernel(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    double a, b, c, z, wbar, t, scale, s, p1, p2, f1, f2;
    void *out[] = {&a, &b, &c, &z, &wbar};
    if (parse_args("hyp2f1_kernel", args, nargs, "ddddd", out) < 0)
        return NULL;
    if (a == 0.0 || b == 0.0 || z == 0.0)
        return PyFloat_FromDouble(1.0);
    if (z < 0.0) {
        t = 1.0 - z;
        b = c - b;
        z = z / (z - 1.0);
        wbar = 1.0 / t;
        scale = pow(t, -a);
    }
    else {
        scale = 1.0;
        if (wbar <= 0.0)
            wbar = 1.0 - z;
    }
    if (z <= 0.75)
        return PyFloat_FromDouble(scale * hyp2f1_tail(a, b, c, z, 1e-16, 10000));
    if (hyp2f1_slot[0] != a || hyp2f1_slot[1] != b || hyp2f1_slot[2] != c) {
        s = c - a - b;
        if (s == floor(s))
            return PyFloat_FromDouble(NAN);
        hyp2f1_slot[0] = a;
        hyp2f1_slot[1] = b;
        hyp2f1_slot[2] = c;
        hyp2f1_slot[3] = s;
        hyp2f1_slot[4] = gamma_ratio_c(c, s, c - a, c - b);
        hyp2f1_slot[5] = gamma_ratio_c(c, -s, a, b);
    }
    s = hyp2f1_slot[3];
    p1 = hyp2f1_slot[4];
    p2 = hyp2f1_slot[5];
    f1 = hyp2f1_tail(a, b, 1.0 - s, wbar, 1e-16, 10000);
    f2 = hyp2f1_tail(c - a, c - b, 1.0 + s, wbar, 1e-16, 10000);
    return PyFloat_FromDouble(scale * (p1 * f1 + pow(wbar, s) * p2 * f2));
}

/* Copy the numbers of sequence ``seq`` into ``dst``; at most MAX_PAIRS. */
static int
read_column(PyObject *seq, double *dst, Py_ssize_t n)
{
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *item = PySequence_GetItem(seq, i);
        if (item == NULL)
            return -1;
        dst[i] = PyFloat_AsDouble(item);
        Py_DECREF(item);
        if (dst[i] == -1.0 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* Row k of a Wright table, as the pure twin builds it: row[] gets the
 * sign, the sign at z < 0, acc and log k!.  Returns 0, or 1 where a lower
 * parameter kills the term (row[] unset), or 2 where an upper one hits a
 * gamma pole. */
static int
term_row(const double *ua, const double *uA, Py_ssize_t p, const double *lb,
         const double *lB, Py_ssize_t q, long long k, double *row)
{
    double acc = 0.0, sg = 1.0, g;
    int sig;
    for (Py_ssize_t i = 0; i < p; i++) {
        g = ua[i] + uA[i] * k;
        if (near_nonpos_int(g))
            return 2;
        acc += lgamma_sign_c(g, &sig);
        sg *= sig;
    }
    for (Py_ssize_t j = 0; j < q; j++) {
        g = lb[j] + lB[j] * k;
        if (near_nonpos_int(g))
            return 1;
        acc -= lgamma_sign_c(g, &sig);
        sg *= sig;
    }
    row[0] = sg;
    row[1] = k % 2 != 0 ? -sg : sg;
    row[2] = acc;
    row[3] = lgamma_sign_c(k + 1.0, &sig);
    return 0;
}

/* A stored row: 0 with row[] filled, 1 for None (a killed term), or -1
 * with TypeError or ValueError set when the item is not a row. */
static int
read_row(PyObject *item, double *row)
{
    if (item == Py_None)
        return 1;
    if (!PyTuple_Check(item)) {
        PyErr_Format(PyExc_TypeError, "wright_series() table rows must be tuples or None, not %.200s",
                     Py_TYPE(item)->tp_name);
        return -1;
    }
    if (PyTuple_GET_SIZE(item) != 4) {
        PyErr_Format(PyExc_ValueError, "wright_series() table rows must have 4 items, not %zd",
                     PyTuple_GET_SIZE(item));
        return -1;
    }
    for (Py_ssize_t i = 0; i < 4; i++) {
        PyObject *v = PyTuple_GET_ITEM(item, i);
        if (!PyFloat_Check(v)) {
            PyErr_Format(PyExc_TypeError, "wright_series() table rows must hold floats, not %.200s",
                         Py_TYPE(v)->tp_name);
            return -1;
        }
        row[i] = PyFloat_AS_DOUBLE(v);
    }
    return 0;
}

/* Append row k (``kind`` 0 or 1, as term_row returns it) only while the
 * table holds exactly k rows: building the tuple may run other threads,
 * which may have appended this same row meanwhile. */
static int
store_row(PyObject *rows, long long k, int kind, const double *row)
{
    int rc = 0;
    PyObject *item = kind ? Py_NewRef(Py_None)
                          : Py_BuildValue("(dddd)", row[0], row[1], row[2], row[3]);
    if (item == NULL)
        return -1;
    if (PyList_GET_SIZE(rows) == k)
        rc = PyList_Append(rows, item);
    Py_DECREF(item);
    return rc;
}

/* A Wright call's columns, its optional table (a list, or NULL), and the
 * rows it has read or made, kept for the length of the call: each as its
 * kind (0, or 1 for a killed term) and row[4], in ``held`` (``room``
 * allocated). */
typedef struct {
    double ua[MAX_PAIRS], uA[MAX_PAIRS], lb[MAX_PAIRS], lB[MAX_PAIRS];
    Py_ssize_t p, q;
    PyObject *rows;
    double (*held)[5];
    long long have, room;
} wright_state;

/* Read the columns and the table argument (None for none) into w; returns
 * -1 with an exception set. */
static int
wright_init(wright_state *w, const char *name, PyObject *const *cols, PyObject *table)
{
    w->rows = table != Py_None ? table : NULL;
    w->held = NULL;
    w->have = w->room = 0;
    if (w->rows != NULL && !PyList_Check(w->rows)) {
        PyErr_Format(PyExc_TypeError, "%s() table must be a list or None, not %.200s", name,
                     Py_TYPE(w->rows)->tp_name);
        return -1;
    }
    if ((w->p = PySequence_Size(cols[0])) < 0 || (w->q = PySequence_Size(cols[2])) < 0)
        return -1;
    if (w->p > MAX_PAIRS || w->q > MAX_PAIRS) {
        PyErr_Format(PyExc_ValueError, "at most %d parameter pairs are supported", MAX_PAIRS);
        return -1;
    }
    if (read_column(cols[0], w->ua, w->p) < 0 || read_column(cols[1], w->uA, w->p) < 0
        || read_column(cols[2], w->lb, w->q) < 0 || read_column(cols[3], w->lB, w->q) < 0)
        return -1;
    return 0;
}

/* Row k into row[]: held, read from the table, or made (and stored in the
 * table); returns its kind, 0, 1 or 2 (an upper pole, not held), or -1
 * with an exception set. */
static int
wright_term(wright_state *w, long long k, double *row)
{
    int kind;
    double (*held)[5];
    if (k < w->have) {
        memcpy(row, w->held[k] + 1, 4 * sizeof(double));
        return (int)w->held[k][0];
    }
    if (w->rows != NULL && k < PyList_GET_SIZE(w->rows))
        kind = read_row(PyList_GET_ITEM(w->rows, k), row);
    else {
        kind = term_row(w->ua, w->uA, w->p, w->lb, w->lB, w->q, k, row);
        if (kind == 2)
            return 2;
        if (w->rows != NULL && store_row(w->rows, k, kind, row) < 0)
            return -1;
    }
    if (kind < 0)
        return -1;
    if (w->have == w->room) {
        held = PyMem_Realloc(w->held, (w->room ? 2 * w->room : 32) * sizeof *held);
        if (held == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        w->held = held;
        w->room = w->room ? 2 * w->room : 32;
    }
    w->held[k][0] = kind;
    memcpy(w->held[k] + 1, row, 4 * sizeof(double));
    w->have = k + 1;
    return kind;
}

/* The Wright series at z into *r: 0, or -1 with an exception set. */
static int
wright_point(wright_state *w, double z, double tol, int cap, series_out *r)
{
    double row[4] = {0.0, 0.0, 0.0, 0.0}, lnz = z != 0.0 ? log(fabs(z)) : 0.0, s = 0.0;
    double prev = 0.0, t;
    int zneg = z < 0.0, have_prev = 0, kind; /* zneg: the row's sign for this z */
    long long k;
    for (k = 0; k < cap; k++) {
        kind = wright_term(w, k, row);
        if (kind < 0)
            return -1;
        if (kind == 2) {
            *r = (series_out){(double)k, 0.0, k, 2, 0.0};
            return 0;
        }
        if (kind == 1)
            t = 0.0;
        else {
            if (z == 0.0 && k > 0) {
                *r = (series_out){s, 0.0, k, 0, 0.0};
                return 0;
            }
            t = row[zneg] * exp(row[2] + k * lnz - row[3]);
            if (!isfinite(t)) {
                *r = (series_out){s + t, INFINITY, k + 1, 0, 0.0};
                return 0;
            }
        }
        if (have_prev && fabs(prev) <= 0.5 * tol * fabs(s) && 2.0 * fabs(t) < fabs(prev)) {
            *r = (series_out){s, 2.0 * fabs(prev), k, 0, 0.0};
            return 0;
        }
        s += t;
        if (t == 0.0)
            have_prev = 0;
        else {
            prev = t;
            have_prev = 1;
        }
    }
    *r = (series_out){s, 2.0 * fabs(prev), k, 1, 0.0};
    return 0;
}

static PyObject *
wright_series(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    double z, tol;
    int cap;
    wright_state w;
    series_out r;
    PyObject *result = NULL;
    void *out[] = {&z, &tol, &cap};
    if (nargs != 7 && nargs != 8) {
        PyErr_Format(PyExc_TypeError,
                     "wright_series() takes 7 or 8 positional arguments (%zd given)", nargs);
        return NULL;
    }
    if (wright_init(&w, "wright_series", args, nargs == 8 ? args[7] : Py_None) < 0
        || parse_args("wright_series", args + 4, 3, "ddi", out) < 0)
        return NULL;
    if (wright_point(&w, z, tol, cap, &r) == 0)
        result = series_tuple(4, &r);
    PyMem_Free(w.held);
    return result;
}

static PyObject *
wright_row(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    double x, z, tol, prefactor = 1.0, power = 0.0, scale = 1.0, p;
    int cap, inverse = 0, image;
    wright_state w;
    series_out r;
    Py_ssize_t i = 0, n;
    PyObject *cols[4], *xs, *out, *table, *image_obj, *result = NULL;
    void *parsed[] = {cols, cols + 1, cols + 2, cols + 3, &xs, &out, &tol, &cap, &table,
                      &image_obj};
    void *fields[] = {&prefactor, &power, &scale, &inverse};
    if (parse_args("wright_row", args, nargs, "OOOOOOdiOO", parsed) < 0)
        return NULL;
    image = image_obj != Py_None;
    if (image && !(PyTuple_Check(image_obj) && PyTuple_GET_SIZE(image_obj) == 4)) {
        PyErr_SetString(PyExc_TypeError, "wright_row() image must be None or a tuple of 4");
        return NULL;
    }
    if (image && parse_args("wright_row", PySequence_Fast_ITEMS(image_obj), 4, "dddi", fields) < 0)
        return NULL;
    if (wright_init(&w, "wright_row", cols, table) < 0)
        return NULL;
    if ((xs = row_xs("wright_row", xs, out)) == NULL)
        goto done;
    for (n = PyTuple_GET_SIZE(xs); i < n; i++) {
        x = PyFloat_AsDouble(PyTuple_GET_ITEM(xs, i));
        if (x == -1.0 && PyErr_Occurred())
            goto done;
        if (image && !(0.0 < x && x < INFINITY))
            break;
        z = image ? scale * (inverse ? 1.0 / x : x) : x;
        if (!(-INFINITY < z && z < INFINITY))
            break;
        if (wright_point(&w, z, tol, cap, &r) < 0)
            goto done;
        if (r.flag || !(-INFINITY < r.value && r.value < INFINITY))
            break;
        if (image) {
            p = pow(x, power);
            if (isinf(p) && isfinite(power)) /* x**power overflows */
                break;
            p = prefactor * p;
            r.value = p * r.value;
            r.err = fabs(p) * r.err;
        }
        if (append_point(out, r.value, r.err, r.terms, 1) < 0)
            goto done;
    }
    result = PyLong_FromSsize_t(i);
done:
    Py_XDECREF(xs);
    PyMem_Free(w.held);
    return result;
}

static PyObject *
f3_series(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    double a, ap, b, bp, g, x, y, tol;
    double total = 0.0, t0n = 1.0, prev_row = 0.0, t, row, r;
    int cap, have_prev = 0;
    long long n_terms = 0, n = 0, m;
    void *out[] = {&a, &ap, &b, &bp, &g, &x, &y, &tol, &cap};
    if (parse_args("f3_series", args, nargs, "ddddddddi", out) < 0)
        return NULL;
    while (n_terms < cap) {
        t = t0n;
        row = t;
        n_terms += 1;
        m = 0;
        while (n_terms < cap) {
            t = t * (a + m) * (b + m) * x / ((g + m + n) * (m + 1.0));
            if (t == 0.0)
                break;
            row += t;
            n_terms += 1;
            m += 1;
            r = fabs((a + m) * (b + m) * x / ((g + m + n) * (m + 1.0)));
            if (r < 0.97 && fabs(t) * r / (1.0 - r) <= 0.25 * tol * (fabs(total) + fabs(row)))
                break;
        }
        if (have_prev && fabs(prev_row) <= 0.5 * tol * fabs(total)
            && fabs(row) < 0.5 * fabs(prev_row))
            return series_result(total, 2.0 * fabs(prev_row), n_terms, 1);
        total += row;
        if (row == 0.0)
            have_prev = 0;
        else {
            prev_row = row;
            have_prev = 1;
        }
        t0n = t0n * (ap + n) * (bp + n) * y / ((g + n) * (n + 1.0));
        n += 1;
        if (t0n == 0.0)
            return series_result(total, 0.0, n_terms, 1);
    }
    return series_result(total, 2.0 * fabs(prev_row), n_terms, 0);
}

/* --- CSV rows ------------------------------------------------------------ */

/* Room for one number of a row: the longest '%.17g' of a double,
 * "-1.7976931348623157e+308", has 24 characters, and one separator. */
#define NUMBER_MAX 32

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

static u128 POW5[56]; /* 5**s for s <= 55, filled at module init: 5**55 < 2**128 */

/* Bits [r, r + 64) of the 192-bit n (three limbs, lowest first), 0 <= r < 192. */
static uint64_t
limb_at(const uint64_t *n, int r)
{
    int w = r / 64, b = r % 64;
    uint64_t next = w < 2 ? n[w + 1] : 0;
    return b ? n[w] >> b | next << (64 - b) : n[w];
}

/* True when a bit of n at or above bit p is set; 0 <= p < 192. */
static int
any_at_or_above(const uint64_t *n, int p)
{
    for (int w = 2; w > p / 64; w--)
        if (n[w])
            return 1;
    return (n[p / 64] >> (p % 64)) != 0;
}

/* True when a bit of n below bit p is set; 0 <= p < 192. */
static int
any_below(const uint64_t *n, int p)
{
    for (int w = 0; w < p / 64; w++)
        if (n[w])
            return 1;
    return (n[p / 64] & ((UINT64_C(1) << (p % 64)) - 1)) != 0;
}

/* floor(|x| * 10**s), s = 16 - k, with |x| = m * 2**e, into *q, and into
 * *half whether the part dropped is above (1), at (0) or below (-1) one
 * half, which rounds the last digit; returns 0, or -1 where s is outside
 * [0, 55] or the quotient does not fit 64 bits. */
static int
scaled_quotient(uint64_t m, int e, int k, uint64_t *q, int *half)
{
    int s = 16 - k, r;
    u128 a, b, c;
    uint64_t n[3];
    if (s < 0 || s > 55)
        return -1;
    /* |x| * 10**s = n / 2**r, n = m * 5**s from the products of m and the
     * two limbs of 5**s */
    a = (u128)m * (uint64_t)POW5[s];
    b = (u128)m * (uint64_t)(POW5[s] >> 64);
    c = (a >> 64) + (uint64_t)b;
    n[0] = (uint64_t)a;
    n[1] = (uint64_t)c;
    n[2] = (uint64_t)(b >> 64) + (uint64_t)(c >> 64);
    r = -(e + s);
    if (r <= 0) { /* an integer: nothing to round */
        if (n[1] || n[2] || r < -63 || n[0] > UINT64_MAX >> -r)
            return -1;
        *q = n[0] << -r;
        *half = -1;
        return 0;
    }
    if (r >= 192 || (r < 128 && any_at_or_above(n, r + 64)))
        return -1;
    *q = limb_at(n, r);
    *half = n[(r - 1) / 64] >> ((r - 1) % 64) & 1 ? any_below(n, r - 1) : -1;
    return 0;
}

/* Write '%.17g' % x at out and return its length, for a normal x with
 * 10**-39 <= |x| < 10**17 (the 17 digits' scale s = 16 - k in [0, 55],
 * k = floor(log10|x|)) and for +-0; return 0 for any other x, whatever was
 * written at out meanwhile.  The digits D = round(|x| * 10**s), ties to
 * even, are computed exactly in integers, as CPython's correctly rounded
 * dtoa finds them, and laid out by its 'g' rules. */
static int
format_exact(double x, char *out)
{
    const uint64_t lo = UINT64_C(10000000000000000), hi = 10 * lo; /* 10**16, 10**17 */
    uint64_t bits, m, q;
    int e, k, half, nd, i;
    char digits[17], *p = out;
    memcpy(&bits, &x, sizeof bits);
    e = (int)(bits >> 52 & 0x7ff);
    if (bits >> 63)
        *p++ = '-';
    if (e == 0 && !(bits << 1)) {
        *p++ = '0';
        return (int)(p - out);
    }
    if (e == 0 || e == 0x7ff)
        return 0; /* subnormal, infinite or NaN */
    /* |x| = m * 2**e, and k = floor((e + 52) * log10(2)), 78913 / 2**18 for
     * log10(2), so 10**k <= 2**(e + 52) <= |x| < 10**(k + 2); then k is
     * the k whose unrounded quotient has 17 digits */
    m = (bits & ((UINT64_C(1) << 52) - 1)) | UINT64_C(1) << 52;
    e -= 1075;
    k = e + 52 >= 0 ? (e + 52) * 78913 >> 18 : -((-(e + 52) * 78913 + (1 << 18) - 1) >> 18);
    if (scaled_quotient(m, e, k, &q, &half) < 0)
        return 0;
    if (q >= hi) {
        k += 1;
        if (scaled_quotient(m, e, k, &q, &half) < 0)
            return 0;
    }
    if (q < lo || q >= hi)
        return 0;
    if (half > 0 || (half == 0 && q & 1))
        q += 1;
    if (q == hi) {
        q = lo;
        k += 1;
    }
    for (i = 16; i >= 0; i--, q /= 10)
        digits[i] = (char)('0' + q % 10);
    for (nd = 17; digits[nd - 1] == '0'; nd--)
        ;
    if (k < -4 || k >= 17) {
        *p++ = digits[0];
        if (nd > 1) {
            *p++ = '.';
            memcpy(p, digits + 1, nd - 1);
            p += nd - 1;
        }
        *p++ = 'e'; /* two exponent digits: |k| <= 39 here */
        *p++ = k < 0 ? '-' : '+';
        k = k < 0 ? -k : k;
        *p++ = (char)('0' + k / 10);
        *p++ = (char)('0' + k % 10);
    }
    else if (k >= 0) {
        for (i = 0; i <= k; i++)
            *p++ = i < nd ? digits[i] : '0';
        if (nd > k + 1) {
            *p++ = '.';
            memcpy(p, digits + k + 1, nd - k - 1);
            p += nd - k - 1;
        }
    }
    else {
        memcpy(p, "0.000", (size_t)(1 - k));
        p += 1 - k;
        memcpy(p, digits, nd);
        p += nd;
    }
    return (int)(p - out);
}
#else
static int
format_exact(double Py_UNUSED(x), char *Py_UNUSED(out))
{
    return 0; /* no 128-bit integers: every number goes through CPython */
}
#endif

static PyObject *
format_rows(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *items, *text = NULL;
    Py_ssize_t ncols, n, i;
    char *buf, *p, *s;
    double v;
    int len;
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError,
                     "format_rows() takes exactly 2 positional arguments (%zd given)", nargs);
        return NULL;
    }
    ncols = PyLong_AsSsize_t(args[1]);
    if (ncols == -1 && PyErr_Occurred())
        return NULL;
    items = PySequence_Tuple(args[0]); /* a copy: a number's __float__ cannot change it */
    if (items == NULL)
        return NULL;
    n = PyTuple_GET_SIZE(items);
    if (ncols < 1 || n % ncols) {
        PyErr_Format(PyExc_ValueError, "%zd values do not make rows of %zd", n, ncols);
        Py_DECREF(items);
        return NULL;
    }
    buf = n <= PY_SSIZE_T_MAX / NUMBER_MAX ? PyMem_Malloc(n * NUMBER_MAX + 1) : NULL;
    if (buf == NULL) {
        Py_DECREF(items);
        return PyErr_NoMemory();
    }
    for (i = 0, p = buf; i < n; i++) {
        v = PyFloat_AsDouble(PyTuple_GET_ITEM(items, i)); /* as '%' reads it */
        if (v == -1.0 && PyErr_Occurred())
            goto done;
        if (i)
            *p++ = i % ncols ? ',' : '\n';
        len = format_exact(v, p);
        if (len == 0) { /* what '%' itself calls */
            s = PyOS_double_to_string(v, 'g', 17, 0, NULL);
            if (s == NULL)
                goto done;
            len = (int)strlen(s);
            memcpy(p, s, len);
            PyMem_Free(s);
        }
        p += len;
    }
    text = PyUnicode_FromStringAndSize(buf, p - buf);
done:
    PyMem_Free(buf);
    Py_DECREF(items);
    return text;
}

/* --- module --------------------------------------------------------------- */

#define FASTCALL(name, doc) {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, doc}

static PyMethodDef methods[] = {
    FASTCALL(lgamma_sign, "(log|Gamma(x)|, sign) for real non-pole x."),
    FASTCALL(bs_series, "Bessel-Struve kernel power series (interleaved even/odd chains)."),
    FASTCALL(bs_row, "The row of bs_series: (value, bound, terms, converged) appended to out."),
    FASTCALL(bessel_series, "J_v (modified=0) or I_v (modified=1) by direct series; z > 0."),
    FASTCALL(struve_series, "H_v (modified=0) or L_v (modified=1) by direct series; z > 0."),
    FASTCALL(bessel_type_row, "The J/I or H/L row: (value, bound, terms, converged) to out."),
    FASTCALL(hyp2f1_kernel, "2F1 for quadrature integrands: full real axis z < 1."),
    FASTCALL(wright_series, "Generalized Wright series, terms assembled in log space."),
    FASTCALL(wright_row, "The Wright or image row: (value, bound, terms, True) to out."),
    FASTCALL(f3_series,
             "Appell F3 double series, row-by-row in the y index; |x|,|y| < 1."),
    FASTCALL(format_rows, "CSV rows of ncols numbers, each as '%.17g' % v."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "bsfrac._ckernels",
    .m_doc = "Compiled numeric kernels: the C twin of bsfrac._pykernels.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__ckernels(void)
{
    PyObject *m = PyModule_Create(&module), *tol = PyFloat_FromDouble(POLE_TOL_C);
#ifdef __SIZEOF_INT128__
    POW5[0] = 1;
    for (int s = 1; s < 56; s++)
        POW5[s] = 5 * POW5[s - 1];
#endif
    if (m == NULL || tol == NULL || PyModule_AddObjectRef(m, "POLE_TOL", tol) < 0
        || PyModule_AddIntConstant(m, "MAX_PAIRS", MAX_PAIRS) < 0)
        Py_CLEAR(m);
    Py_XDECREF(tol);
    return m;
}
