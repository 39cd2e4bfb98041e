/* Lemke's method on each row of a stack of LCPs that share M, one whole
   capped step of a stack of trajectories, and the uniform draws of their
   generators.

   lcp.lemke_many's numpy body is the reference: this file takes the same
   IEEE operations in the same order for one row at a time, so z, w, the
   pivot counts and the statuses come out bit for bit alike.  step_stack
   adds the rest of resolution._step in the same way, and the draws are
   numpy's PCG64 seeded by its SeedSequence, exact integer arithmetic.
   lcp.py builds it with -ffp-contract=off, so no product and sum fuse
   into one rounding, and passes the tolerances and the pivot budget at
   each call. */

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

/* lcp.ordered_sum of terms[0..count), which it overwrites: each round
   adds the second half of the terms onto the first, and an odd last term
   onto the first, until one is left. */
static double ordered_sum(double *terms, int count)
{
    for (int len = count; len > 1; len /= 2) {
        int half = len / 2;
        for (int j = 0; j < half; j++)
            terms[j] = terms[j] + terms[half + j];
        if (len % 2)
            terms[0] += terms[2 * half];
    }
    return terms[0];
}

/* One row of lcp.ordered_matvec: a . x over count terms, in
   ordered_sum's order.  terms holds count doubles. */
static double ordered_dot(const double *a, const double *x, int count, double *terms)
{
    for (int j = 0; j < count; j++)
        terms[j] = x[j] * a[j];
    return ordered_sum(terms, count);
}

/* lcp.ordered_matvec's row i plus q[i]: w = M z + q with each row's sum
   in ordered_sum's order.  terms holds n doubles. */
static void form_w(int n, const double *m, const double *q, const double *z, double *w,
                   double *terms)
{
    for (int i = 0; i < n; i++)
        w[i] = ordered_dot(m + (size_t)i * n, z, n, terms) + q[i];
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

/* numpy's min and max of two values, which return a NaN operand. */
static double nan_min(double a, double b) { return isnan(a) || a < b ? a : b; }
static double nan_max(double a, double b) { return isnan(a) || a > b ? a : b; }

/* The smallest of 0 and x[0..count), or a NaN of x: x.min(initial=0.0). */
static double lowest(const double *x, int count)
{
    double low = 0.0;
    for (int j = 0; j < count; j++)
        low = nan_min(x[j], low);
    return low;
}

/* contact.is_impacting of one row of a stack x (nv): some rate jn_i . x
   lies below -tol (1 + |x|), or one of them or the limit is not a
   number, or the limit is -inf.  jn is m x nv; terms holds nv doubles. */
static int approaching(const double *jn, int m, int nv, const double *x, double tol,
                       double *terms)
{
    for (int j = 0; j < nv; j++)
        terms[j] = x[j] * x[j];
    double limit = -tol * (1.0 + sqrt(ordered_sum(terms, nv)));
    if (!(limit > -INFINITY))
        return 1;
    for (int i = 0; i < m; i++)
        if (!(ordered_dot(jn + (size_t)i * nv, x, nv, terms) >= limit))
            return 1;
    return 0;
}

/* contact.in_linear_cone of one row of a stack: the six conditions of
   the post-step state x (nv) with impulses lam (m) and beta (2m), each
   holding only when its comparison does.  jbar is [jn; jd] (3m x nv). */
static int in_cone(const double *jbar, const double *mu, int m, int nv, const double *x,
                   const double *lam, const double *beta, double tol, double *terms)
{
    for (int i = 0; i < m; i++) {
        double rate = ordered_dot(jbar + (size_t)i * nv, x, nv, terms);
        double d0 = ordered_dot(jbar + (size_t)(m + 2 * i) * nv, x, nv, terms);
        double d1 = ordered_dot(jbar + (size_t)(m + 2 * i + 1) * nv, x, nv, terms);
        double gamma = nan_max(0.0, -nan_min(d0, d1));
        double b0 = beta[2 * i], b1 = beta[2 * i + 1];
        double budget = mu[i] * lam[i] - (b0 + b1);
        if (!(lam[i] >= -tol && b0 >= -tol && b1 >= -tol && lam[i] * rate <= tol &&
              b0 * (d0 + gamma) <= tol && b1 * (d1 + gamma) <= tol && budget >= -tol &&
              gamma * budget <= tol))
            return 0;
    }
    return 1;
}

/* resolution._certified_solve's test of one row's (z, w): each residual
   passes only at or below its bound, and the scale must be finite. */
static int certified(const double *z, const double *w, int n, double tol, double *terms)
{
    for (int j = 0; j < n; j++)
        terms[j] = z[j] * w[j];
    double gap = fabs(ordered_sum(terms, n));
    double neg_z = nan_max(0.0, -lowest(z, n)), neg_w = nan_max(0.0, -lowest(w, n));
    for (int j = 0; j < n; j++)
        terms[j] = z[j] * z[j];
    double zz = ordered_sum(terms, n);
    for (int j = 0; j < n; j++)
        terms[j] = w[j] * w[j];
    double scale = 1.0 + sqrt(zz * ordered_sum(terms, n));
    return isfinite(scale) && neg_z <= tol && neg_w <= tol && gap <= tol * scale;
}

enum { STEPPED = 0, DECLINED = 1, UNSOLVED = 2, RESIDUALS = 3, CONE = 4 };

/* resolution._step on k rows: velocities v (k x nv) and caps (k x m) of
   a problem with m contacts, whose constant blocks `packed` holds one
   after another: jbar = [jn; jd] (3m x nv), minv_jbar_t (nv x 3m), the
   step LCP's matrix (5m x 5m) and mu (m).  A row steps when it impacts
   (tested here when test_rows is set, else taken as given) and holds a
   cap above zero: its q = [caps; jbar v; 0] is solved as lemke_stack
   solves a row, certified, and applied, v + minv_jbar_t [lambda_n; beta],
   and the result audited against the friction cone.  out receives
   v_after (k x nv), lambda_n (k x m) and beta (k x 2m) with zeros for
   rows that do not step, then 10m doubles of detail; impacting receives
   each v_after row's impact test.

   Returns STEPPED; or UNSOLVED with the first unsolved row's status in
   detail[0], else RESIDUALS with the first row that fails certification's
   z and w in detail, else CONE if a row fails the audit.  DECLINED leaves
   the whole step to numpy, which raises or decides: a stepped row whose
   caps are not finite and nonnegative, a matrix or q that is not finite,
   or a ratio that is not. */
int step_stack(int k, int nv, int m, const double *packed, const double *v, const double *caps,
               int test_rows, double *out, unsigned char *impacting, double pivot_tol,
               double tie_tol, int64_t max_pivots, double residual_tol, double cone_tol,
               double approach_tol)
{
    const int n = 5 * m, width = 3 * m;
    const double *jbar = packed, *minv = jbar + (size_t)width * nv;
    const double *full = minv + (size_t)nv * width, *mu = full + (size_t)n * n;
    double *v_after = out, *lambda_n = v_after + (size_t)k * nv;
    double *beta = lambda_n + (size_t)k * m, *detail = beta + (size_t)k * 2 * m;
    if (!all_finite(full, (size_t)n * n))
        return DECLINED;
    int terms_size = nv > n ? nv : n;
    double *t = malloc(sizeof(double) * (size_t)(n * (2 * n + 2) + (2 * n + 2) + n + n * n));
    double *q = malloc(sizeof(double) * (size_t)(3 * n + terms_size));
    int *basis = malloc(sizeof(int) * (size_t)(3 * n));
    int outcome = !t || !q || !basis ? DECLINED : STEPPED, unsolved = 0, failed = 0;
    double *z = q + n, *w = z + n, *terms = w + n;
    for (int s = 0; s < k && outcome == STEPPED; s++) {
        const double *vs = v + (size_t)s * nv, *cs = caps + (size_t)s * m;
        double *va = v_after + (size_t)s * nv, *lam = lambda_n + (size_t)s * m;
        double *bet = beta + (size_t)s * 2 * m;
        memcpy(va, vs, sizeof(double) * (size_t)nv);
        memset(lam, 0, sizeof(double) * (size_t)m);
        memset(bet, 0, sizeof(double) * (size_t)(2 * m));
        int capped = 0;
        for (int i = 0; i < m; i++)
            capped |= cs[i] > 0.0;
        if (capped && (!test_rows || approaching(jbar, m, nv, vs, approach_tol, terms))) {
            for (int i = 0; i < m; i++) {
                if (!(isfinite(cs[i]) && cs[i] >= 0.0))
                    outcome = DECLINED;
                q[i] = cs[i];
                q[4 * m + i] = 0.0;
            }
            for (int r = 0; r < width; r++)
                q[m + r] = ordered_dot(jbar + (size_t)r * nv, vs, nv, terms);
            if (outcome != STEPPED || !all_finite(q, (size_t)n)) {
                outcome = DECLINED;
                break;
            }
            memset(z, 0, sizeof(double) * (size_t)n);
            int64_t pivots;
            int status = solve_row(n, full, q, z, &pivots, pivot_tol, tie_tol, max_pivots, t,
                                   basis);
            if (status < 0) {
                outcome = DECLINED;
                break;
            }
            form_w(n, full, q, z, w, terms);
            if (status != SOLVED) {
                if (!unsolved)
                    unsolved = status;
            } else if (!certified(z, w, n, residual_tol, terms) && failed != RESIDUALS) {
                failed = RESIDUALS;
                memcpy(detail, z, sizeof(double) * (size_t)(2 * n));
            }
            for (int a = 0; a < nv; a++)
                va[a] = vs[a] + ordered_dot(minv + (size_t)a * width, z + m, width, terms);
            memcpy(lam, z + m, sizeof(double) * (size_t)m);
            memcpy(bet, z + 2 * m, sizeof(double) * (size_t)(2 * m));
            if (!failed && !in_cone(jbar, mu, m, nv, va, lam, bet, cone_tol, terms))
                failed = CONE;
        }
        impacting[s] = (unsigned char)approaching(jbar, m, nv, va, approach_tol, terms);
    }
    free(t);
    free(q);
    free(basis);
    if (outcome != STEPPED)
        return outcome;
    if (unsolved) {
        detail[0] = unsolved;
        return UNSOLVED;
    }
    return failed;
}

/* numpy's default_rng([seed, i]): a PCG64 generator (O'Neill 2014: a
   128-bit LCG with the XSL-RR output) seeded by SeedSequence([seed, i]).
   A state is four uint64: the LCG state's high and low words, then the
   increment's.  Without a 128-bit integer type both entry points return
   1, and setapprox draws from numpy's generators instead. */
#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

/* SeedSequence's hash and mixing constants. */
enum { POOL_SIZE = 4, XSHIFT = 16 };
static const uint32_t MULT_A = 0x931e8875u, MULT_B = 0x58f38dedu, INIT_A = 0x43b0d7e5u,
                      INIT_B = 0x8b51f9ddu, MIX_MULT_L = 0xca01f9ddu, MIX_MULT_R = 0x4973f715u;

static uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= MULT_A;
    value *= *hash_const;
    return value ^ value >> XSHIFT;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = MIX_MULT_L * x - MIX_MULT_R * y;
    return result ^ result >> XSHIFT;
}

static u128 pcg_step(u128 state, u128 inc)
{
    const u128 mult = (u128)2549297995355413924ULL << 64 | 4865540595714422341ULL;
    return state * mult + inc;
}

/* Seed states[s] (count x 4) for trajectory first + s: the entropy is the
   seed's n_words 32-bit words, least significant first, then the index's
   (one word below 2**32, else two), as SeedSequence reads [seed, i]. */
int pcg_seed(int64_t count, const uint32_t *seed_words, int n_words, uint64_t first,
             uint64_t *states)
{
    uint32_t *entropy = malloc(sizeof(uint32_t) * (size_t)(n_words + 2));
    if (!entropy)
        return 1;
    memcpy(entropy, seed_words, sizeof(uint32_t) * (size_t)n_words);
    for (int64_t s = 0; s < count; s++) {
        uint64_t index = first + (uint64_t)s;
        int size = n_words + 1;
        entropy[n_words] = (uint32_t)index;
        if (index >> 32)
            entropy[size++] = (uint32_t)(index >> 32);
        /* SeedSequence.mix_entropy into a pool of four words. */
        uint32_t pool[POOL_SIZE], hash_const = INIT_A;
        for (int i = 0; i < POOL_SIZE; i++)
            pool[i] = hashmix(i < size ? entropy[i] : 0u, &hash_const);
        for (int src = 0; src < POOL_SIZE; src++)
            for (int dst = 0; dst < POOL_SIZE; dst++)
                if (src != dst)
                    pool[dst] = mix(pool[dst], hashmix(pool[src], &hash_const));
        for (int src = POOL_SIZE; src < size; src++)
            for (int dst = 0; dst < POOL_SIZE; dst++)
                pool[dst] = mix(pool[dst], hashmix(entropy[src], &hash_const));
        /* generate_state(4, uint64): eight words, paired low word first. */
        uint64_t words[4];
        hash_const = INIT_B;
        for (int i = 0; i < 8; i++) {
            uint32_t value = pool[i % POOL_SIZE] ^ hash_const;
            hash_const *= MULT_B;
            value *= hash_const;
            value ^= value >> XSHIFT;
            if (i % 2)
                words[i / 2] |= (uint64_t)value << 32;
            else
                words[i / 2] = value;
        }
        /* pcg64_set_seed: words[0] and words[2] are the high halves. */
        u128 init = (u128)words[0] << 64 | words[1];
        u128 inc = ((u128)words[2] << 64 | words[3]) << 1 | 1u;
        u128 state = pcg_step(pcg_step(0, inc) + init, inc);
        uint64_t *out = states + 4 * s;
        out[0] = (uint64_t)(state >> 64);
        out[1] = (uint64_t)state;
        out[2] = (uint64_t)(inc >> 64);
        out[3] = (uint64_t)inc;
    }
    free(entropy);
    return 0;
}

/* Fill out (rows x m) with the next m doubles of states[which[r]] each,
   as Generator.random does: the top 53 bits of each output over 2**53.
   Returns 1, drawing nothing, if an index lies outside [0, count). */
int pcg_draw(int64_t rows, const int64_t *which, int64_t count, int m, uint64_t *states,
             double *out)
{
    for (int64_t r = 0; r < rows; r++)
        if (which[r] < 0 || which[r] >= count)
            return 1;
    for (int64_t r = 0; r < rows; r++) {
        uint64_t *at = states + 4 * which[r];
        u128 state = (u128)at[0] << 64 | at[1], inc = (u128)at[2] << 64 | at[3];
        for (int c = 0; c < m; c++) {
            state = pcg_step(state, inc);
            uint64_t folded = (uint64_t)(state >> 64) ^ (uint64_t)state;
            unsigned rot = (unsigned)(state >> 122);
            uint64_t x = folded >> rot | folded << ((64 - rot) & 63);
            out[r * m + c] = (double)(x >> 11) * (1.0 / 9007199254740992.0);
        }
        at[0] = (uint64_t)(state >> 64);
        at[1] = (uint64_t)state;
    }
    return 0;
}
#else
int pcg_seed(int64_t count, const uint32_t *seed_words, int n_words, uint64_t first,
             uint64_t *states)
{
    return 1;
}

int pcg_draw(int64_t rows, const int64_t *which, int64_t count, int m, uint64_t *states,
             double *out)
{
    return 1;
}
#endif
