/* Compiled simplex pivot kernel: the loop of
   geomoment._simplex_py.simplex_iterate in C, with the same entering and
   leaving rules and the same elementwise arithmetic, so both kernels take
   identical pivot sequences on identical input.  It reads its arrays through
   the buffer protocol and needs only Python.h.  Build it with
   -ffp-contract=off: a fused multiply-add rounds differently from numpy's
   multiply, then subtract. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

enum { OPTIMAL = 0, UNBOUNDED = 1, ITERATION_LIMIT = 2 };

/* Pivots on the (k+1) x (m+1) tableau T, the reduced costs in its last
   row; counts the pivots in *iters and returns the status. */
static int
iterate(double *T, long long *basis, Py_ssize_t k, Py_ssize_t m, double pivot_tol,
        long long max_iters, long long stall_threshold, long long *iters)
{
    const Py_ssize_t w = m + 1;
    double *cost = T + k * w, *row, *prow;
    double best, ratio, best_ratio, piv, f, prev;
    long long stall = 0, best_basis;
    Py_ssize_t i, j, l, ip;

    for (*iters = 0; *iters < max_iters;) {
        /* entering column */
        if (stall >= stall_threshold) {
            j = -1;
            for (l = 0; l < m; l++)
                if (cost[l] < -pivot_tol) {
                    j = l;
                    break;
                }
            if (j < 0)
                return OPTIMAL;
        }
        else {
            j = 0;
            best = cost[0];
            for (l = 1; l < m; l++)
                if (cost[l] < best) {
                    best = cost[l];
                    j = l;
                }
            if (best >= -pivot_tol)
                return OPTIMAL;
        }

        /* ratio test, ties to the smallest basis index */
        ip = -1;
        best_ratio = 0.0;
        best_basis = 0;
        for (i = 0; i < k; i++) {
            row = T + i * w;
            if (row[j] <= pivot_tol)
                continue;
            ratio = row[m] / row[j];
            if (ip < 0 || ratio < best_ratio || (ratio == best_ratio && basis[i] < best_basis)) {
                ip = i;
                best_ratio = ratio;
                best_basis = basis[i];
            }
        }
        if (ip < 0)
            return UNBOUNDED;

        prev = cost[m];
        prow = T + ip * w;
        piv = prow[j];
        for (l = 0; l <= m; l++)
            prow[l] /= piv;
        for (i = 0; i <= k; i++) {
            if (i == ip)
                continue;
            row = T + i * w;
            f = row[j];
            if (f != 0.0)
                for (l = 0; l <= m; l++)
                    row[l] -= f * prow[l];
            row[j] = 0.0;
        }
        prow[j] = 1.0;
        basis[ip] = j;
        ++*iters;
        stall = cost[m] > prev ? 0 : stall + 1;
    }
    return ITERATION_LIMIT;
}

/* Gets a writable C-contiguous buffer of obj with ndim dimensions and
   8-byte items of one of the struct formats in fmt; on failure, returns -1
   with an error set that begins with `need`, and holds no buffer. */
static int
get_buffer(PyObject *obj, Py_buffer *view, int ndim, const char *fmt, const char *need)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | PyBUF_WRITABLE) < 0)
        return -1;
    const char *f = view->format ? view->format : "B";  /* NULL means unsigned bytes */
    f += f[0] == '@';
    if (view->ndim != ndim || view->itemsize != 8 || f[0] == '\0' || f[1] != '\0'
            || !strchr(fmt, f[0])) {
        PyErr_Format(PyExc_ValueError, "%s, not %d-D of format %s", need, view->ndim, f);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

static PyObject *
simplex_iterate(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *t_obj, *basis_obj, *out = NULL;
    Py_buffer t, basis;
    double pivot_tol;
    long long max_iters, stall_threshold, iters;
    int status;

    if (!PyArg_ParseTuple(args, "OOdLL:simplex_iterate", &t_obj, &basis_obj, &pivot_tol,
                          &max_iters, &stall_threshold)
            || get_buffer(t_obj, &t, 2, "d", "T must be a 2-D float64 array") < 0)
        return NULL;
    if (get_buffer(basis_obj, &basis, 1, "ql", "basis must be a 1-D int64 array") < 0) {
        PyBuffer_Release(&t);
        return NULL;
    }
    if (t.shape[0] < 1 || t.shape[1] < 2 || basis.shape[0] != t.shape[0] - 1)
        PyErr_Format(PyExc_ValueError, "T of shape (%zd, %zd) needs two columns and a "
                     "basis of length %zd, not %zd", t.shape[0], t.shape[1],
                     t.shape[0] - 1, basis.shape[0]);
    else {
        status = iterate(t.buf, basis.buf, t.shape[0] - 1, t.shape[1] - 1, pivot_tol,
                         max_iters, stall_threshold, &iters);
        out = Py_BuildValue("(iL)", status, iters);
    }
    PyBuffer_Release(&basis);
    PyBuffer_Release(&t);
    return out;
}

static PyMethodDef methods[] = {
    {"simplex_iterate", simplex_iterate, METH_VARARGS,
     "simplex_iterate(T, basis, pivot_tol, max_iters, stall_threshold)\n--\n\n"
     "T is a writable C-contiguous 2-D float64 array and basis a writable 1-D\n"
     "int64 array of length T.shape[0] - 1.  See geomoment._simplex_py."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_simplex_core", "Compiled simplex pivot kernel.", -1, methods,
    NULL, NULL, NULL, NULL
};

PyMODINIT_FUNC
PyInit__simplex_core(void)
{
    return PyModule_Create(&module);
}
