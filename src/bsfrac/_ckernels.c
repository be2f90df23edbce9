/* Compiled numeric kernels, written against the CPython C API.
 *
 * Twin of bsfrac._pykernels: the same functions, signatures, branch
 * structure and floating-point operation order, so both backends agree to
 * the last few ulps (libm and CPython's own gamma/lgamma may differ by one
 * ulp).  The contract comments live in the pure module; this file mirrors
 * it.  Build with -O2 -ffp-contract=off: a fused multiply-add would round
 * differently from the pure twin.  The pure twin's order tables have no
 * counterpart here: these sums cost about what reading a table back would.
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
 * for a double (any number), 'i' for a C int (an integer).  Returns -1 with
 * an exception set on a wrong count or type. */
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
        if (fmt[i] == 'd') {
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

/* parse_args for a kernel whose ``fmt`` arguments may be followed by a
 * table: *table is that argument, a borrowed reference to a list, or NULL
 * where it is absent or None. */
static int
parse_table_args(const char *name, PyObject *const *args, Py_ssize_t nargs, const char *fmt,
                 void **out, PyObject **table)
{
    Py_ssize_t want = (Py_ssize_t)strlen(fmt);
    *table = NULL;
    if (nargs != want && nargs != want + 1) {
        PyErr_Format(PyExc_TypeError, "%s() takes %zd or %zd positional arguments (%zd given)",
                     name, want, want + 1, nargs);
        return -1;
    }
    if (nargs > want && args[want] != Py_None) {
        if (!PyList_Check(args[want])) {
            PyErr_Format(PyExc_TypeError, "%s() table must be a list or None, not %.200s", name,
                         Py_TYPE(args[want])->tp_name);
            return -1;
        }
        *table = args[want];
    }
    return parse_args(name, args, want, fmt, out);
}

/* The series kernels' (value, abs_error_est, terms_used, flag) tuple. */
static PyObject *
series_result(double value, double err, long long terms, int flag)
{
    PyObject *items[4] = {PyFloat_FromDouble(value), PyFloat_FromDouble(err),
                          PyLong_FromLongLong(terms), PyLong_FromLong(flag)};
    PyObject *tuple = NULL;
    if (items[0] && items[1] && items[2] && items[3])
        tuple = PyTuple_New(4);
    for (int i = 0; i < 4; i++) {
        if (tuple)
            PyTuple_SET_ITEM(tuple, i, items[i]);
        else
            Py_XDECREF(items[i]);
    }
    return tuple;
}

/* --- gamma ---------------------------------------------------------------- */

/* Python round(): ties to even */
static double
round_half_even(double x)
{
    double f = floor(x);
    double d = x - f;
    if (d > 0.5)
        return f + 1.0;
    if (d < 0.5)
        return f;
    if (f == 2.0 * floor(0.5 * f))
        return f;
    return f + 1.0;
}

static int
near_nonpos_int(double x)
{
    /* r <= 0 and |x - r| <= tol, r the nearest integer, is x <= tol and
     * |x - r| <= tol; there is no pole at NaN or at +-inf */
    return -INFINITY < x && x <= POLE_TOL_C && fabs(x - round_half_even(x)) <= POLE_TOL_C;
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
    d = fabs(x - round_half_even(x));
    s = sin(PI * d);
    if (-x <= 170.5)
        return log(PI / (s * (-x) * tgamma(-x)));
    return log(PI) - log(s) - lgamma(1.0 - x);
}

static PyObject *
near_nonpositive_int(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    double x;
    void *out[] = {&x};
    if (parse_args("near_nonpositive_int", args, nargs, "d", out) < 0)
        return NULL;
    return PyBool_FromLong(near_nonpos_int(x));
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

/* S_nu(-x) for x > 0: the positive-term series of _pykernels._bs_negative,
 * with its running error bound, in the same operation order. */
static PyObject *
bs_negative(double nu, double x, double tol, int cap)
{
    double a = nu + 0.5, ftop, M, t, s, sa, tj, r, tail, b, err, m, c, bp, den, up, down;
    double spread, dist, werr, w, d, k, w_top, low, shift, mean, value, bound, *bs, *errs;
    long long top, j, n, peak;
    if (a == 0.0) {
        value = exp(-x); /* within one ulp, or below the normal range */
        bound = 2.0 * U * value + (value < DBL_MIN ? 5e-324 : 0.0);
        return series_result(value, bound, 1, bound <= tol * value);
    }
    /* beyond N the weights fall below e^-40 of the peak's */
    ftop = x + 9.0 * sqrt(x) + 25.0;
    if (!(ftop < cap)) /* NaN too */
        return series_result(0.0, INFINITY, 0, 0);
    top = (long long)ftop;
    M = a + top;
    t = 1.0 / M;
    s = t;
    sa = fabs(t);
    tj = 0.0;
    j = 0;
    for (;;) {
        t *= (nu - (j + 0.5)) / (M + (j + 1.0));
        j += 1;
        if (fabs(t) <= 0.125 * U * fabs(s))
            break;
        if (top + j >= cap)
            return series_result(0.0, INFINITY, top + j, 0);
        s += t;
        sa += fabs(t);
        tj += j * fabs(t);
    }
    r = (nu - (j + 0.5)) / (M + (j + 1.0));
    tail = r <= 0.0 ? fabs(t) : fabs(t) * (1.0 + 1.0 / (1.0 - r));
    b = 2.0 * s;
    err = 2.0 * ((3.0 + j) * sa + 6.0 * tj + tail / U);
    bs = PyMem_Malloc(2 * (top + 1) * sizeof(double));
    if (bs == NULL)
        return PyErr_NoMemory();
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
    r = x / (top + 2.0);
    bound += (fabs(bs[top]) + fabs(mean)) * w_top * (x / (top + 1.0)) / (1.0 - r) / den;
    bound = fabs(value) * (bound / fabs(mean) + U * (errs[0] / fabs(bs[0]) + 1.0));
    PyMem_Free(bs);
    return series_result(value, bound, top + 1 + j, bound <= tol * fabs(value));
}

static PyObject *
bs_series(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    double nu, u, tol, e, o, s, prev;
    int cap;
    long long k, n;
    void *out[] = {&nu, &u, &tol, &cap};
    if (parse_args("bs_series", args, nargs, "dddi", out) < 0)
        return NULL;
    if (u == 0.0)
        return series_result(1.0, 0.0, 1, 1);
    if (u > 0.0) {
        e = 1.0;
        o = u * bs_odd_prefactor(nu);
        s = e + o;
        prev = o;
        k = 0;
        for (n = 2; n < cap; n += 2) {
            e *= u * u * (k + 0.5) / ((2.0 * k + 1.0) * (2.0 * k + 2.0) * (k + nu + 1.0));
            o *= u * u * (k + 1.0) / ((2.0 * k + 2.0) * (2.0 * k + 3.0) * (k + nu + 1.5));
            k += 1;
            if (fabs(prev) <= 0.5 * tol * fabs(s) && e < 0.5 * prev)
                return series_result(s, 2.0 * prev, n, 1);
            s += e;
            if (e <= 0.5 * tol * s && o < 0.5 * e)
                return series_result(s, 2.0 * e, n + 1, 1);
            s += o;
            prev = o;
        }
        return series_result(s, 2.0 * fabs(prev), n, 0);
    }
    return bs_negative(nu, -u, tol, cap);
}

/* The J/I and H/L series from leading term t with term ratio
 * q / ((k + c1) * (k + v + c2)). */
static PyObject *
bessel_type_series(double t, double q, double v, double c1, double c2, double tol, int cap)
{
    double s = t, tn;
    long long k = 0, n;
    for (n = 1; n < cap;) {
        tn = t * q / ((k + c1) * (k + v + c2));
        if (fabs(t) <= 0.5 * tol * fabs(s) && fabs(tn) < 0.5 * fabs(t))
            return series_result(s, 2.0 * fabs(t), n, 1);
        t = tn;
        s += t;
        k += 1;
        n += 1;
        if (t == 0.0)
            return series_result(s, 0.0, n, 1);
    }
    return series_result(s, 2.0 * fabs(t), n, 0);
}

static PyObject *
bessel_series(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    double v, z, tol, half, q;
    int modified, cap, sg;
    void *out[] = {&v, &z, &modified, &tol, &cap};
    if (parse_args("bessel_series", args, nargs, "ddidi", out) < 0)
        return NULL;
    half = 0.5 * z;
    q = half * half;
    if (!modified)
        q = -q;
    return bessel_type_series(exp(v * log(half) - lgamma_sign_c(v + 1.0, &sg)), q, v, 1.0,
                              1.0, tol, cap);
}

static PyObject *
struve_series(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    double v, z, tol, half, q, la1;
    int modified, cap, sg;
    void *out[] = {&v, &z, &modified, &tol, &cap};
    if (parse_args("struve_series", args, nargs, "ddidi", out) < 0)
        return NULL;
    half = 0.5 * z;
    la1 = lgamma_sign_c(1.5, &sg);
    q = half * half;
    if (!modified)
        q = -q;
    return bessel_type_series(
        exp((v + 1.0) * log(half) - la1 - lgamma_sign_c(v + 1.5, &sg)), q, v, 1.5, 1.5, tol,
        cap);
}

/* Direct 2F1 series with a geometric tail bound; needs |z| < 0.97 */
static double
hyp2f1_tail(double a, double b, double c, double z, double tol, long long cap)
{
    double s = 1.0, t = 1.0, r;
    long long k = 0;
    while (k < cap) {
        t *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z;
        if (t == 0.0)
            return s;
        s += t;
        k += 1;
        r = fabs((a + k) * (b + k) / ((c + k) * (k + 1.0)) * z);
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
    s = c - a - b;
    p1 = gamma_ratio_c(c, s, c - a, c - b);
    p2 = gamma_ratio_c(c, -s, a, b);
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
wright_row(const double *ua, const double *uA, Py_ssize_t p, const double *lb,
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

/* Append row k (``kind`` 0 or 1, as wright_row returns it) only while the
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

static PyObject *
wright_series(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    double ua[MAX_PAIRS], uA[MAX_PAIRS], lb[MAX_PAIRS], lB[MAX_PAIRS], row[4];
    double z, tol, lnz, s = 0.0, prev = 0.0, t;
    int cap, zneg, have_prev = 0, kind;
    Py_ssize_t p, q;
    long long k;
    PyObject *rows;
    void *out[] = {&z, &tol, &cap};
    if (nargs < 4) {
        PyErr_Format(PyExc_TypeError,
                     "wright_series() takes 7 or 8 positional arguments (%zd given)", nargs);
        return NULL;
    }
    if (parse_table_args("wright_series", args + 4, nargs - 4, "ddi", out, &rows) < 0)
        return NULL;
    p = PySequence_Size(args[0]);
    if (p < 0)
        return NULL;
    q = PySequence_Size(args[2]);
    if (q < 0)
        return NULL;
    if (p > MAX_PAIRS || q > MAX_PAIRS) {
        PyErr_Format(PyExc_ValueError, "at most %d parameter pairs are supported", MAX_PAIRS);
        return NULL;
    }
    if (read_column(args[0], ua, p) < 0 || read_column(args[1], uA, p) < 0
        || read_column(args[2], lb, q) < 0 || read_column(args[3], lB, q) < 0)
        return NULL;
    lnz = z != 0.0 ? log(fabs(z)) : 0.0;
    zneg = z < 0.0; /* the row's sign for this z */
    for (k = 0; k < cap; k++) {
        if (rows != NULL && k < PyList_GET_SIZE(rows)) {
            kind = read_row(PyList_GET_ITEM(rows, k), row);
            if (kind < 0)
                return NULL;
        }
        else {
            kind = wright_row(ua, uA, p, lb, lB, q, k, row);
            if (kind == 2)
                return series_result((double)k, 0.0, k, 2);
            if (rows != NULL && store_row(rows, k, kind, row) < 0)
                return NULL;
        }
        if (kind == 1)
            t = 0.0;
        else {
            if (z == 0.0 && k > 0)
                return series_result(s, 0.0, k, 0);
            t = row[zneg] * exp(row[2] + k * lnz - row[3]);
            if (!isfinite(t))
                return series_result(s + t, INFINITY, k + 1, 0);
        }
        if (have_prev && fabs(prev) <= 0.5 * tol * fabs(s) && fabs(t) < 0.5 * fabs(prev))
            return series_result(s, 2.0 * fabs(prev), k, 0);
        s += t;
        if (t == 0.0)
            have_prev = 0;
        else {
            prev = t;
            have_prev = 1;
        }
    }
    return series_result(s, 2.0 * fabs(prev), k, 1);
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

/* --- module --------------------------------------------------------------- */

#define FASTCALL(name, doc) {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, doc}

static PyMethodDef methods[] = {
    FASTCALL(near_nonpositive_int, "True when x is within POLE_TOL of a gamma pole."),
    FASTCALL(lgamma_sign, "(log|Gamma(x)|, sign) for real non-pole x."),
    FASTCALL(bs_series, "Bessel-Struve kernel power series (interleaved even/odd chains)."),
    FASTCALL(bessel_series, "J_v (modified=0) or I_v (modified=1) by direct series; z > 0."),
    FASTCALL(struve_series, "H_v (modified=0) or L_v (modified=1) by direct series; z > 0."),
    FASTCALL(hyp2f1_kernel, "2F1 for quadrature integrands: full real axis z < 1."),
    FASTCALL(wright_series, "Generalized Wright series, terms assembled in log space."),
    FASTCALL(f3_series,
             "Appell F3 double series, row-by-row in the y index; |x|,|y| < 1."),
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
    if (m == NULL || tol == NULL || PyModule_AddObjectRef(m, "POLE_TOL", tol) < 0
        || PyModule_AddIntConstant(m, "MAX_PAIRS", MAX_PAIRS) < 0)
        Py_CLEAR(m);
    Py_XDECREF(tol);
    return m;
}
