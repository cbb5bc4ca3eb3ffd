/* The compiled library of ssrna: the Euler-Maruyama kernel of the centred
 * replication model with its Philox streams, the RK4 path, the recorder of a
 * single path, and the '%.17g' formatter of the CSV and JSON writers.
 *
 * Built on first use by ssrna._em and loaded with ctypes.  Every number and
 * byte it produces equals that of the Python or numpy formulation it
 * replaces, which the tests keep as their reference:
 *
 *  - Each replicate k has two Philox4x64-10 streams, keyed (seed, 2k + c)
 *    for coordinate c, counter 0, with numpy's buffering of four 64-bit
 *    words per block, so stream_t yields the words of
 *    numpy.random.Philox(key=[seed, 2k + c]).random_raw().
 *  - Normals come from numpy's own random_standard_normal (the ziggurat of
 *    numpy.random.Generator.standard_normal), linked from libnpyrandom.a.
 *  - The Euler-Maruyama step is simulator._drift's arithmetic and the RK4
 *    step is model_core.field's, each in its evaluation order; built with
 *    -ffp-contract=off, so no product is fused into an add.
 *  - fmt_g17 writes a double as Python's '%.17g' % x does.
 *
 * An ensemble is stepped one slice of at most BLOCK replicates at a time,
 * in lockstep, into a slice buffer (em_run); em_fold then adds the slice's
 * finite replicates into the ensemble's running sums in index order, so the
 * sums are those of one pass over every replicate.
 */

#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

#include "numpy/random/bitgen.h"

/* numpy/random/distributions.h declares this, but it includes Python.h */
double random_standard_normal(bitgen_t *bitgen_state);

/* One cell's constants, in simulator._Cell's field order. */
enum { A11, A12, A21, A22, BR, ABR, W1, W2, P_STAR, M_STAR, X1_0, X2_0, EPS_SQ, CELL_WORDS };

/* Rows of the state array: deviations, running max of |x|^2, running minima. */
enum { X1, X2, SUP, LOW1, LOW2, STATE_ROWS };

#define BLOCK 64

/* A Philox stream: 11 words, simulator._STREAM_WORDS. */
typedef struct {
    uint64_t ctr[4];
    uint64_t key[2];
    uint64_t buffer[4];
    uint64_t buffer_pos;
} stream_t;

int64_t em_stream_words(void) { return sizeof(stream_t) / sizeof(uint64_t); }

int64_t em_block(void) { return BLOCK; }

void em_seed(stream_t *s, uint64_t key0, uint64_t key1)
{
    for (int i = 0; i < 4; i++) {
        s->ctr[i] = 0;
        s->buffer[i] = 0;
    }
    s->key[0] = key0;
    s->key[1] = key1;
    s->buffer_pos = 4; /* empty: the first draw computes the block of counter 1 */
}

static uint64_t next_uint64(void *state)
{
    stream_t *s = state;
    if (s->buffer_pos < 4)
        return s->buffer[s->buffer_pos++];
    if (++s->ctr[0] == 0 && ++s->ctr[1] == 0 && ++s->ctr[2] == 0)
        ++s->ctr[3];
    uint64_t c0 = s->ctr[0], c1 = s->ctr[1], c2 = s->ctr[2], c3 = s->ctr[3];
    uint64_t k0 = s->key[0], k1 = s->key[1];
#pragma GCC unroll 10 /* halves the time per word at -O2 */
    for (int round = 0; round < 10; round++) {
        if (round > 0) {
            k0 += 0x9E3779B97F4A7C15ULL;
            k1 += 0xBB67AE8584CAA73BULL;
        }
        __uint128_t p0 = (__uint128_t)0xD2E7470EE14C6C93ULL * c0;
        __uint128_t p1 = (__uint128_t)0xCA5A826395121157ULL * c2;
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
        c1 = (uint64_t)p1;
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
        c3 = (uint64_t)p0;
    }
    s->buffer[0] = c0;
    s->buffer[1] = c1;
    s->buffer[2] = c2;
    s->buffer[3] = c3;
    s->buffer_pos = 1;
    return c0;
}

static double next_double(void *state)
{
    return (next_uint64(state) >> 11) * (1.0 / 9007199254740992.0);
}

/* random_standard_normal draws only 64-bit words and doubles */
static bitgen_t bitgen_of(stream_t *s)
{
    bitgen_t g = {s, next_uint64, 0, next_double, next_uint64};
    return g;
}

void em_raw(stream_t *s, int64_t n, uint64_t *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = next_uint64(s);
}

/* The recorder of a single path, _em.Recorder: the caller sets the fields up to
 * states; path_start sets the rest. */
typedef struct {
    int64_t n;        /* steps */
    int64_t stride;   /* steps 0, stride, 2 stride, ... (stride <= n) and n are recorded */
    double dt;
    double low, high; /* the state left the triangle when p or m < low, or p + m > high */
    double *times;    /* rows x 1: rec * dt */
    double *states;   /* rows x 2: p, m */
    int64_t rows;     /* rows written */
    int64_t exited;   /* first step whose state left the triangle, else -1 */
    int64_t failed;   /* the step whose state was not finite, else -1 */
    int64_t due;      /* the next step to record */
} path_t;

/* Take the state (p, m) after step s.  Returns 0, setting failed, if it is
 * not finite: the path stops there. */
static int path_record(path_t *r, int64_t s, double p, double m)
{
    if (!(isfinite(p) && isfinite(m))) {
        r->failed = s;
        return 0;
    }
    if (r->exited < 0 && (p < r->low || m < r->low || p + m > r->high))
        r->exited = s;
    if (s == r->due) {
        r->times[r->rows] = (double)s * r->dt;
        r->states[2 * r->rows] = p;
        r->states[2 * r->rows + 1] = m;
        r->rows++;
        r->due = r->n - s <= r->stride ? r->n : s + r->stride;
    }
    return 1;
}

/* Take the start state, step 0. */
static int path_start(path_t *r, double p, double m)
{
    r->rows = 0;
    r->exited = r->failed = -1;
    r->due = 0;
    return path_record(r, 0, p, m);
}

/* model_core.field's constants, in ModelParams' field order. */
enum { R, ALPHA, DELTA, SIGMA, K };

static void field(const double *model, double p, double m, double *dp, double *dm)
{
    double unfilled = 1.0 - (p + m) / model[K];
    *dp = model[R] * m * unfilled - model[DELTA] * p;
    *dm = model[ALPHA] * model[R] * p * unfilled - model[SIGMA] * m;
}

/* The classical RK4 path of the model from (p, m), path->n steps of
 * path->dt, into the recorder. */
void rk4_path(const double *model, double p, double m, path_t *path)
{
    double dt = path->dt, sixth = dt / 6.0, half = 0.5 * dt;
    if (!path_start(path, p, m))
        return;
    for (int64_t s = 0; s < path->n; s++) {
        double k1p, k1m, k2p, k2m, k3p, k3m, k4p, k4m;
        field(model, p, m, &k1p, &k1m);
        field(model, p + half * k1p, m + half * k1m, &k2p, &k2m);
        field(model, p + half * k2p, m + half * k2m, &k3p, &k3m);
        field(model, p + dt * k3p, m + dt * k3m, &k4p, &k4m);
        p = p + sixth * (k1p + 2.0 * (k2p + k3p) + k4p);
        m = m + sixth * (k1m + 2.0 * (k2m + k3m) + k4m);
        if (!path_record(path, s + 1, p, m))
            return;
    }
}

/* Step replicates first..first+n-1 (n <= BLOCK) of every cell over `steps`
 * steps from their start.
 *
 * cells:  ncells x CELL_WORDS constants.
 * state:  STATE_ROWS x ncells x BLOCK doubles of scratch.
 * rec:    the recorded steps (ascending).  |x|^2 of cell c, replicate
 *         first + j at rec[i] goes to sq[(i * ncells + c) * BLOCK + j], and
 *         first_exceed[c * BLOCK + j] takes the first recorded row by which
 *         the running maximum of |x|^2 exceeded eps_sq, else -1.  A state
 *         that is not finite sets nonfinite and is frozen at 0 when it is
 *         first seen; negative is set at the end from the running minima
 *         (p* + x is monotone).  sq NULL skips these outputs.
 * dW:     NULL to draw the increments, else steps x 2 imposed ones (n = 1).
 * path:   NULL, or the recorder of a single path (n = 1, one cell), which
 *         takes the start state and the state after each step, and stops
 *         the call at the first non-finite one.
 */
void em_run(const double *cells, int64_t ncells, double *state, uint64_t seed, int64_t first,
            int64_t n, int64_t steps, double dt, double sqrt_dt, const int64_t *rec, int64_t nrec,
            double *sq, int64_t *first_exceed, uint8_t *nonfinite, uint8_t *negative,
            const double *dW, path_t *path)
{
    stream_t st[2 * BLOCK];
    int nb = (int)n, at_start = nrec > 0 && rec[0] == 0;
    int64_t next = at_start;
#define ROW(r, c) (state + ((r) * ncells + (c)) * BLOCK)
    for (int j = 0; j < 2 * nb; j++)
        em_seed(st + j, seed, 2 * (uint64_t)first + j);
    for (int64_t c = 0; c < ncells; c++) {
        const double *cell = cells + c * CELL_WORDS;
        double *x1 = ROW(X1, c), *x2 = ROW(X2, c), *sup = ROW(SUP, c);
        for (int j = 0; j < nb; j++) {
            x1[j] = ROW(LOW1, c)[j] = cell[X1_0];
            x2[j] = ROW(LOW2, c)[j] = cell[X2_0];
            sup[j] = x1[j] * x1[j] + x2[j] * x2[j];
            if (sq) {
                first_exceed[c * BLOCK + j] = at_start && sup[j] > cell[EPS_SQ] ? 0 : -1;
                nonfinite[c * BLOCK + j] = 0;
                if (at_start)
                    sq[c * BLOCK + j] = sup[j];
            }
        }
        if (path && !path_start(path, cell[P_STAR] + x1[0], cell[M_STAR] + x2[0]))
            return;
    }

    for (int64_t s = 0; s < steps; s++) {
        double d1[BLOCK], d2[BLOCK];
        if (dW) {
            d1[0] = dW[2 * s];
            d2[0] = dW[2 * s + 1];
        } else {
            for (int j = 0; j < nb; j++) {
                bitgen_t g1 = bitgen_of(st + 2 * j), g2 = bitgen_of(st + 2 * j + 1);
                d1[j] = random_standard_normal(&g1) * sqrt_dt;
                d2[j] = random_standard_normal(&g2) * sqrt_dt;
            }
        }
        int recorded = next < nrec && rec[next] == s + 1;
        for (int64_t c = 0; c < ncells; c++) {
            const double *cell = cells + c * CELL_WORDS;
            double a11 = cell[A11], a12 = cell[A12], a21 = cell[A21], a22 = cell[A22];
            double br = cell[BR], abr = cell[ABR], w1 = cell[W1], w2 = cell[W2];
            double *x1 = ROW(X1, c), *x2 = ROW(X2, c), *sup = ROW(SUP, c);
            double *low1 = ROW(LOW1, c), *low2 = ROW(LOW2, c);
            for (int j = 0; j < nb; j++) {
                double u = x1[j], v = x2[j], sum = u + v;
                double g1 = a11 * u + a12 * v - br * sum * v;
                double g2 = a21 * u + a22 * v - abr * sum * u;
                u = u + g1 * dt + w1 * u * d1[j];
                v = v + g2 * dt + w2 * v * d2[j];
                x1[j] = u;
                x2[j] = v;
                double dsq = u * u + v * v;
                /* numpy's maximum and minimum: a NaN on either side wins */
                if (dsq > sup[j] || dsq != dsq)
                    sup[j] = dsq;
                if (u < low1[j] || u != u)
                    low1[j] = u;
                if (v < low2[j] || v != v)
                    low2[j] = v;
                if (sq && recorded) {
                    sq[(next * ncells + c) * BLOCK + j] = dsq;
                    int64_t *fe = first_exceed + c * BLOCK + j;
                    if (*fe < 0 && sup[j] > cell[EPS_SQ])
                        *fe = next;
                }
                if (path && !path_record(path, s + 1, cell[P_STAR] + u, cell[M_STAR] + v))
                    return;
                if (!(isfinite(u) && isfinite(v))) {
                    x1[j] = x2[j] = 0.0; /* keeps NaNs out of later steps */
                    if (sq)
                        nonfinite[c * BLOCK + j] = 1;
                }
            }
        }
        next += recorded;
    }

    if (sq) {
        for (int64_t c = 0; c < ncells; c++) {
            const double *cell = cells + c * CELL_WORDS;
            for (int j = 0; j < nb; j++)
                negative[c * BLOCK + j] =
                    cell[P_STAR] + ROW(LOW1, c)[j] < 0.0 || cell[M_STAR] + ROW(LOW2, c)[j] < 0.0;
        }
    }
#undef ROW
}

/* Add the finite replicates of a slice, em_run's outputs for its n
 * replicates over nrec recorded rows, into an ensemble's running sums, in
 * replicate-index order.  Per cell c and recorded row i, sum[c * nrec + i]
 * adds their |x|^2 and exceed[c * nrec + i] counts those whose first
 * exceedance was at row i; counts[3 * c ...] adds the included, negative
 * and non-finite replicates.  Folding every slice in turn into sums that
 * start at 0.0 adds each row's values in index order from 0.0. */
void em_fold(int64_t ncells, int64_t n, int64_t nrec, const double *sq, const int64_t *first_exceed,
             const uint8_t *nonfinite, const uint8_t *negative, double *sum, int64_t *exceed,
             int64_t *counts)
{
    for (int64_t c = 0; c < ncells; c++) {
        const uint8_t *bad = nonfinite + c * BLOCK;
        for (int64_t i = 0; i < nrec; i++) {
            const double *x = sq + (i * ncells + c) * BLOCK;
            double acc = sum[c * nrec + i];
            for (int64_t j = 0; j < n; j++)
                if (!bad[j])
                    acc += x[j];
            sum[c * nrec + i] = acc;
        }
        int64_t *count = counts + 3 * c;
        for (int64_t j = 0; j < n; j++) {
            int64_t fe = first_exceed[c * BLOCK + j];
            if (bad[j]) {
                count[2]++;
                continue;
            }
            count[0]++;
            count[1] += negative[c * BLOCK + j];
            if (fe >= 0)
                exceed[c * nrec + fe]++;
        }
    }
}

/* The longest '%.17g' of a double is 24 bytes (-1.2345678901234567e-308);
 * _em.py allots G17_ROOM per number. */
#define G17_ROOM 32

static const uint64_t POW5[28] = {
    1ULL, 5ULL, 25ULL, 125ULL, 625ULL, 3125ULL, 15625ULL, 78125ULL, 390625ULL, 1953125ULL,
    9765625ULL, 48828125ULL, 244140625ULL, 1220703125ULL, 6103515625ULL, 30517578125ULL,
    152587890625ULL, 762939453125ULL, 3814697265625ULL, 19073486328125ULL, 95367431640625ULL,
    476837158203125ULL, 2384185791015625ULL, 11920928955078125ULL, 59604644775390625ULL,
    298023223876953125ULL, 1490116119384765625ULL, 7450580596923828125ULL,
};

#define E16 10000000000000000ULL
#define E17 100000000000000000ULL

/* floor(|x| 10^k), and whether the rest is below, at or above one half
 * (-1, 0, 1), for x = mant 2^e: exact, as mant 5^k 2^(e + k) < 2^128. */
static uint64_t scaled(uint64_t mant, int e, int k, int *rest)
{
    __uint128_t v = (__uint128_t)mant * POW5[k];
    int shift = e + k;
    if (shift >= 0) {
        *rest = -1;
        return (uint64_t)(v << shift);
    }
    int s = -shift; /* below 64 wherever the result has 17 digits */
    __uint128_t q = v >> s, r = v - (q << s), half = (__uint128_t)1 << (s - 1);
    *rest = r < half ? -1 : r > half;
    return (uint64_t)q;
}

/* '%.17g' % x into out, without a terminating NUL; returns its length. */
static int g17(double x, char *out)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    int biased = (int)(bits >> 52 & 0x7FF);
    if (x != x) { /* Python prints every NaN as nan, whatever its sign */
        memcpy(out, "nan", 3);
        return 3;
    }
    /* 17 significant digits of a normal double between 1e-11 and 1e17 are
     * found exactly below; snprintf writes everything else, as exactly */
    int e10 = biased == 0 || biased == 0x7FF ? 99 : (int)floor((biased - 1023) * 0.30102999566398120);
    if (e10 < -11 || e10 > 16) {
        char buf[G17_ROOM];
        int len = snprintf(buf, sizeof buf, "%.17g", x);
        memcpy(out, buf, len);
        return len;
    }
    uint64_t mant = (bits & ((1ULL << 52) - 1)) | 1ULL << 52;
    int e = biased - 1075, k = 16 - e10, rest;
    uint64_t d = scaled(mant, e, k, &rest);
    if (d >= E17) { /* the estimate of floor(log10 |x|) was one low */
        if (k == 0) {
            char buf[G17_ROOM];
            int len = snprintf(buf, sizeof buf, "%.17g", x);
            memcpy(out, buf, len);
            return len;
        }
        e10++;
        d = scaled(mant, e, --k, &rest);
    }
    if (rest > 0 || (rest == 0 && d & 1)) /* round half to even */
        d++;
    if (d == E17) {
        d = E16;
        e10++;
    }

    char digits[17];
    for (int i = 16; i >= 0; i--, d /= 10)
        digits[i] = (char)('0' + d % 10);
    int nd = 17; /* without trailing zeros */
    while (nd > 1 && digits[nd - 1] == '0')
        nd--;
    char *o = out;
    if (bits >> 63)
        *o++ = '-';
    if (e10 < -4 || e10 >= 17) {
        *o++ = digits[0];
        if (nd > 1) {
            *o++ = '.';
            memcpy(o, digits + 1, nd - 1);
            o += nd - 1;
        }
        *o++ = 'e';
        *o++ = e10 < 0 ? '-' : '+';
        int a = e10 < 0 ? -e10 : e10; /* below 100 here */
        *o++ = (char)('0' + a / 10);
        *o++ = (char)('0' + a % 10);
    } else if (e10 >= 0) {
        memcpy(o, digits, e10 + 1);
        o += e10 + 1;
        if (nd > e10 + 1) {
            *o++ = '.';
            memcpy(o, digits + e10 + 1, nd - e10 - 1);
            o += nd - e10 - 1;
        }
    } else {
        *o++ = '0';
        *o++ = '.';
        for (int i = -1; i > e10; i--)
            *o++ = '0';
        memcpy(o, digits, nd);
        o += nd;
    }
    return (int)(o - out);
}

/* Write x[0..n-1] as '%.17g' writes them: sep between the numbers of each
 * row of `row` numbers and eol after each row.  out holds at least
 * n * (G17_ROOM + the longer of sep and eol) bytes.  Returns the bytes
 * written. */
int64_t fmt_g17(const double *x, int64_t n, int64_t row, const char *sep, int64_t sep_len,
                const char *eol, int64_t eol_len, char *out)
{
    char *o = out;
    for (int64_t i = 0; i < n; i++) {
        o += g17(x[i], o);
        int last = (i + 1) % row == 0;
        memcpy(o, last ? eol : sep, last ? eol_len : sep_len);
        o += last ? eol_len : sep_len;
    }
    return o - out;
}
