/* Lemke's method on each row of a stack of LCPs that share M.

   lcp.lemke_many's numpy body is the reference: this file takes the same
   IEEE operations in the same order for one row at a time, so z, w, the
   pivot counts and the statuses come out bit for bit alike.  lcp.py builds
   it with -ffp-contract=off, so no product and sum fuse into one rounding,
   and passes the tolerances and the pivot budget at each call. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { SOLVED = 0, RAY_TERMINATION = 1, MAX_PIVOTS = 2 };

/* lcp._tie_limit: the largest value that ties x. */
static double tie_limit(double x, double tol) { return x + tol * (1.0 + fabs(x)); }

/* The smallest of x[0..count). */
static double smallest(const double *x, int count)
{
    double low = x[0];
    for (int i = 1; i < count; i++)
        if (x[i] < low)
            low = x[i];
    return low;
}

/* lcp._lex_argmin_many for one row: among the rows cand[0..count), in
   increasing order, the lowest that stays tied with the smallest ratio to
   d of the values, then column by column of the basis inverse.  The tied
   rows' keys are formed for every column first, as numpy forms them.
   Returns -1 if a ratio is not finite: numpy's stacked walk may then pick
   another row.  keys holds n * n doubles and alive n ints. */
static int lex_argmin(const double *t, int width, int n, int *cand, int count,
                      const double *d, double *keys, int *alive, double tol)
{
    for (int i = 0; i < count; i++) {
        keys[i] = t[cand[i] * width] / d[cand[i]];
        if (!isfinite(keys[i]))
            return -1;
    }
    double limit = tie_limit(smallest(keys, count), tol);
    int tied = 0;
    for (int i = 0; i < count; i++)
        if (keys[i] <= limit)
            cand[tied++] = cand[i];
    if (tied == 1)
        return cand[0];
    for (int i = 0; i < tied; i++) {
        alive[i] = i;
        for (int c = 0; c < n; c++) {
            keys[i * n + c] = t[cand[i] * width + 1 + c] / d[cand[i]];
            if (!isfinite(keys[i * n + c]))
                return -1;
        }
    }
    for (int c = 0; c < n && tied > 1; c++) {
        double low = keys[alive[0] * n + c];
        for (int i = 1; i < tied; i++)
            if (keys[alive[i] * n + c] < low)
                low = keys[alive[i] * n + c];
        limit = tie_limit(low, tol);
        int kept = 0;
        for (int i = 0; i < tied; i++)
            if (keys[alive[i] * n + c] <= limit)
                alive[kept++] = alive[i];
        tied = kept;
    }
    return cand[alive[0]];
}

/* row - di * p, elementwise: no fused multiply-add, so a zero product
   keeps its sign, as in numpy's update. */
static void subtract_scaled(double *restrict row, double di, const double *restrict p, int width)
{
    for (int j = 0; j < width; j++)
        row[j] -= di * p[j];
}

/* Whether x[0..count) are all finite. */
static int all_finite(const double *x, size_t count)
{
    for (size_t i = 0; i < count; i++)
        if (!isfinite(x[i]))
            return 0;
    return 1;
}

/* lcp.ordered_matvec's row i plus q[i]: w = M z + q with each row's sum
   in lcp.ordered_sum's order, which adds the second half of the terms
   onto the first until one is left.  terms holds n doubles. */
static void form_w(int n, const double *m, const double *q, const double *z, double *w,
                   double *terms)
{
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++)
            terms[j] = z[j] * m[i * n + j];
        for (int len = n; len > 1; len /= 2) {
            int half = len / 2;
            for (int j = 0; j < half; j++)
                terms[j] = terms[j] + terms[half + j];
            if (len % 2)
                terms[0] += terms[2 * half];
        }
        w[i] = terms[0] + q[i];
    }
}

/* One row of lemke_stack on the workspace t (n x (2n + 2), then p, d and
   keys) and basis (basis, then cand and alive): writes z (which must hold
   zeros) and the pivot count.  Returns its status, or -1 if a ratio it
   forms is not finite. */
static int solve_row(int n, const double *m, const double *q, double *z, int64_t *pivots,
                     double pivot_tol, double tie_tol, int64_t max_pivots, double *t,
                     int *basis)
{
    const int width = 2 * n + 2, z0 = 2 * n;
    double *p = t + n * width, *d = p + width, *keys = d + n;
    int *cand = basis + n, *alive = cand + n;
    int feasible = 1;
    for (int i = 0; i < n; i++)
        feasible &= q[i] >= 0.0;
    *pivots = 0;
    if (feasible)
        return SOLVED;

    /* The tableau [q | I | -M | -1] (lcp._tableau). */
    for (int i = 0; i < n; i++) {
        double *row = t + i * width;
        row[0] = q[i];
        for (int j = 0; j < n; j++) {
            row[1 + j] = i == j ? 1.0 : 0.0;
            row[n + 1 + j] = -m[i * n + j];
        }
        row[width - 1] = -1.0;
        basis[i] = i;
    }
    /* lcp._first_pivot_row: the last row tied at the minimum of q. */
    double limit = tie_limit(smallest(q, n), tie_tol);
    int row = 0, entering = z0, status = SOLVED;
    for (int i = 0; i < n; i++)
        if (q[i] <= limit)
            row = i;

    int64_t count = 0;
    for (;;) {
        for (int i = 0; i < n; i++)
            d[i] = t[i * width + entering + 1];
        if (count) {
            int eligible = 0;
            for (int i = 0; i < n; i++)
                if (d[i] > pivot_tol)
                    cand[eligible++] = i;
            if (!eligible) {
                status = RAY_TERMINATION;
                break;
            }
            row = lex_argmin(t, width, n, cand, eligible, d, keys, alive, tie_tol);
            if (row < 0)
                return -1;
        }
        /* The pivot row over its pivot, then the rank-one update t - d * p
           of every other row. */
        double *pivot = t + row * width;
        for (int j = 0; j < width; j++)
            p[j] = pivot[j] / d[row];
        for (int i = 0; i < n; i++)
            if (i != row)
                subtract_scaled(t + i * width, d[i], p, width);
        memcpy(pivot, p, sizeof(double) * (size_t)width);
        int leaving = basis[row];
        basis[row] = entering;
        count++;
        if (leaving == z0)
            break;
        if (count >= max_pivots) {
            status = MAX_PIVOTS;
            break;
        }
        /* Complementary rule: the partner of the leaving variable. */
        entering = (leaving + n) % z0;
    }
    *pivots = count;
    /* lcp._basic_z: a basic z_i takes its row's value. */
    for (int r = 0; r < n; r++)
        if (basis[r] >= n && basis[r] < z0)
            z[basis[r] - n] = t[r * width];
    return status;
}

/* Solve w = M z + q[s] for s < k: m is n x n and q is k x n, row-major.
   zw (2 x k x n) receives z, then w; counts (2 x k) each row's pivot
   count, then its status.  Returns 0, or 1 when m or q holds a NaN or an
   infinity, or a ratio that a row forms is not finite: lemke_many then
   rejects the input or solves the stack with its numpy body, which
   decides such rows. */
int lemke_stack(int k, int n, const double *m, const double *q, double *zw, int64_t *counts,
                double pivot_tol, double tie_tol, int64_t max_pivots)
{
    size_t cells = (size_t)k * n;
    if (!all_finite(m, (size_t)n * n) || !all_finite(q, cells))
        return 1;
    double *t = malloc(sizeof(double) * (size_t)(n * (2 * n + 2) + (2 * n + 2) + n + n * n));
    int *basis = malloc(sizeof(int) * (size_t)(3 * n));
    int declined = !t || !basis;
    memset(zw, 0, sizeof(double) * cells);
    for (int s = 0; s < k && !declined; s++) {
        const double *qs = q + (size_t)s * n;
        double *z = zw + (size_t)s * n;
        int status = solve_row(n, m, qs, z, counts + s, pivot_tol, tie_tol, max_pivots, t,
                               basis);
        declined = status < 0;
        counts[k + s] = status;
        form_w(n, m, qs, z, z + cells, t);
    }
    free(t);
    free(basis);
    return declined;
}
