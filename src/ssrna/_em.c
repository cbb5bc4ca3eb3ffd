/* The compiled library of ssrna: the Euler-Maruyama kernel of the centred
 * replication model with its Philox streams, the RK4 path, the recorder of a
 * single path, and the '%.17g' formatter of the CSV and JSON writers.
 *
 * Built on first use by ssrna._em and loaded with ctypes.  Every number and
 * byte it produces equals that of the Python or numpy formulation it
 * replaces, which the tests keep as their reference:
 *
 *  - Each replicate k has two Philox4x64-10 streams, keyed (seed, 2k + c)
 *    for coordinate c, counter 0, so stream_t yields the words of
 *    numpy.random.Philox(key=[seed, 2k + c]).random_raw().  A stream buffers
 *    eight blocks of four 64-bit words where numpy buffers one: its refill
 *    computes the eight in the lanes of one AVX-512 register on an x86-64 CPU
 *    that has AVX-512F, chosen when the library loads, and one after another
 *    elsewhere.  The rounds are written once (PHILOX_ROUNDS), for a word and
 *    for the eight lanes (Salmon et al., "Parallel random numbers: as easy as
 *    1, 2, 3", SC'11).
 *  - Normals are those of numpy's ziggurat (numpy.random.Generator.
 *    standard_normal).  Its first try, accepted for about 99.3% of draws, is
 *    taken inline on numpy's own tables (ki_double, wi_double); a reject
 *    goes to numpy's random_standard_normal, which draws the wedge or the
 *    tail.  ssrna._em links both from a copy of libnpyrandom.a in which it
 *    made the two tables global.
 *  - The Euler-Maruyama step (EM_STEP) is the recursion of the tests'
 *    reference (tests/conftest.py's em_deviations) and the RK4 step is
 *    model_core.field's, each in its evaluation order; built with
 *    -ffp-contract=off, so no product is fused into an add.  EM_STEP is
 *    written once, for a double and for the lanes of a GCC vector of
 *    doubles, on which GCC's operators take the same IEEE operations lane by
 *    lane; nothing here changes MXCSR, so a lane rounds as the double does.
 *  - fmt_g17 writes rows of float columns, each read where it lies, as
 *    Python's '%.17g' % x writes each number, with no library call but
 *    snprintf, for the finite numbers outside its exact range: each number
 *    is built in a buffer of its own and copied out in one piece of G17_ROOM
 *    bytes, a separator in pieces of fixed size, and where a number has the
 *    bits of the last one of its column, that one's text is copied again.  A
 *    NaN or an infinity is spelled as '%.17g' spells it, or as the JSON
 *    writer does (NaN, Infinity, -Infinity).  The room it may write is
 *    G17_ROOM and a separator per number.
 *
 * A single path, RK4 or Euler-Maruyama, settles where a step leaves its state
 * as it was, bit for bit, and where no later step can change it: the RK4 step
 * is a function of the state alone, and an Euler-Maruyama step whose noise
 * terms are zero adds +-0 to a nonzero state whatever it draws (see em_path).
 * A stable path may reach such a fixed point in floating point, and from there
 * path_hold records its rows without stepping.
 *
 * Each entry point that steps or folds takes its struct alone: all it reads.
 * Euler-Maruyama has one entry point per job, sharing one step (EM_STEP), one
 * normal draw (normal) and sqrt(dt), taken from dt here.  em_path steps a
 * single path, its inputs and start set once in its recorder (path_t), a block
 * of rows per call, as rk4_path does.  em_run steps an ensemble one slice of at
 * most BLOCK replicates at a time, in lockstep, and also a block of recorded
 * rows per call: the slice (slice_t), started once for its replicates, carries
 * their deviations, flags and streams from one call to the next, and a buffer
 * of one block of rows of |x|^2.  Both record every stride-th step and the
 * last, by one rule (next_due).  Its slice step is written once (EM_SLICE)
 * for GCC vectors and built twice: eight replicates per AVX-512 register where
 * the CPU has AVX-512F, chosen with the refill when the library loads
 * (slice_step_x8), else two, the width of an SSE2 or NEON register
 * (slice_step_x2).  The slice has `stride` columns per cell, a multiple of 8
 * up to BLOCK, so that a slice of few replicates holds few columns.  em_fold
 * then adds the block's |x|^2 that are finite into the running sums the slice
 * is made with, in index order, several rows at a time, and counts the others
 * per row: a row depends on no later step, so each block is stepped and
 * folded once.
 */

#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

#include "numpy/random/bitgen.h"

/* numpy/random/distributions.h declares this, but it includes Python.h */
double random_standard_normal(bitgen_t *bitgen_state);

/* The ziggurat's tables: local symbols of libnpyrandom.a, global in the copy that is linked */
extern const uint64_t ki_double[256];
extern const double wi_double[256];

/* One cell's constants, in simulator._Cell's field order. */
enum { A11, A12, A21, A22, BR, ABR, W1, W2, P_STAR, M_STAR, X1_0, X2_0, EPS_SQ, CELL_WORDS };

/* Rows of the state array: the deviations. */
enum { X1, X2, STATE_ROWS };

#define BLOCK 64

/* Philox blocks a stream computes per refill: the eight counters after its own, side by side in
 * the lanes of one AVX-512 register where the CPU has them (lanes). */
#define BLOCKS 8
#define BUFFER_WORDS (4 * BLOCKS)

/* A Philox stream: 39 words, _em._STREAM_WORDS.  ctr is the counter of the last block in the
 * buffer, and buffer holds the blocks of counters ctr - BLOCKS + 1 .. ctr, one after another, to
 * be read from buffer_pos on: the words numpy's Philox yields, which buffers one block at a time. */
typedef struct {
    uint64_t ctr[4];
    uint64_t key[2];
    uint64_t buffer[BUFFER_WORDS];
    uint64_t buffer_pos;
} stream_t;

int64_t em_stream_words(void) { return sizeof(stream_t) / sizeof(uint64_t); }

int64_t em_block(void) { return BLOCK; }

void em_seed(stream_t *s, uint64_t key0, uint64_t key1)
{
    memset(s, 0, sizeof *s);
    s->key[0] = key0;
    s->key[1] = key1;
    s->buffer_pos = BUFFER_WORDS; /* empty: the first draw computes the blocks of counters 1 to 8 */
}

#define PHILOX_M0 0xD2E7470EE14C6C93ULL
#define PHILOX_M1 0xCA5A826395121157ULL
#define PHILOX_W0 0x9E3779B97F4A7C15ULL
#define PHILOX_W1 0xBB67AE8584CAA73BULL

/* The block of counter ctr[0..3] under the key (k0, k1), the ten Philox4x64-10 rounds, into
 * out[0..3], which may be ctr.  Written once for U, a 64-bit word (philox) or a GCC vector of them
 * (philox_x8), on which GCC's operators act lane by lane, a scalar operand in every lane; mulhilo
 * returns the high word of the 128-bit product m c and stores its low word in *lo.  unroll is the
 * loop's pragma: unrolled, the word rounds take half the time at -O2, and the vector rounds more. */
#define PHILOX_ROUNDS(name, U, mulhilo, unroll)                                          \
    static inline void name(const U *ctr, uint64_t k0, uint64_t k1, U *out)              \
    {                                                                                    \
        U c0 = ctr[0], c1 = ctr[1], c2 = ctr[2], c3 = ctr[3];                            \
        _Pragma(unroll) for (int round = 0; round < 10; round++)                         \
        {                                                                                \
            if (round > 0) {                                                             \
                k0 += PHILOX_W0;                                                         \
                k1 += PHILOX_W1;                                                         \
            }                                                                            \
            U lo0, lo1;                                                                  \
            U hi0 = mulhilo(PHILOX_M0, c0, &lo0), hi1 = mulhilo(PHILOX_M1, c2, &lo1);    \
            c0 = hi1 ^ c1 ^ k0;                                                          \
            c1 = lo1;                                                                    \
            c2 = hi0 ^ c3 ^ k1;                                                          \
            c3 = lo0;                                                                    \
        }                                                                                \
        out[0] = c0;                                                                     \
        out[1] = c1;                                                                     \
        out[2] = c2;                                                                     \
        out[3] = c3;                                                                     \
    }

static inline uint64_t mulhilo(uint64_t m, uint64_t c, uint64_t *lo)
{
    __uint128_t p = (__uint128_t)m * c;
    *lo = (uint64_t)p;
    return (uint64_t)(p >> 64);
}

PHILOX_ROUNDS(philox, uint64_t, mulhilo, "GCC unroll 10")

/* Lanes of the Philox refill this CPU takes, chosen when the library loads: BLOCKS with AVX-512F,
 * where em_run's step takes eight replicates per register too, else 1, where it takes two. */
static int lanes = 1;

int64_t em_refill_lanes(void) { return lanes; }

#if defined(__x86_64__)
#include <immintrin.h>

_Static_assert(BLOCKS == 8, "refill_x8 computes one block in each of the eight lanes of a u64x8");

__attribute__((constructor)) static void choose_lanes(void)
{
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        lanes = BLOCKS;
}

/* Eight unsigned 64-bit lanes: GCC's operators act on them lane by lane, a scalar operand in
 * every lane. */
typedef uint64_t u64x8 __attribute__((vector_size(64)));

/* The products of the low 32 bits of each lane of a and b, whole. */
__attribute__((target("avx512f"))) static inline u64x8 mul32(u64x8 a, u64x8 b)
{
    return (u64x8)_mm512_mul_epu32((__m512i)a, (__m512i)b);
}

/* mulhilo for each lane of c, from the four 32 x 32 bit products of the halves of m and c. */
__attribute__((target("avx512f"))) static inline u64x8 mulhilo_x8(uint64_t m, u64x8 c, u64x8 *lo)
{
    const u64x8 none = {0};
    u64x8 ml = none + (m & 0xFFFFFFFF), mh = none + (m >> 32), ch = c >> 32;
    u64x8 ll = mul32(ml, c), lh = mul32(ml, ch), hl = mul32(mh, c), hh = mul32(mh, ch);
    /* bits 32 to 63 of the product in u's low half, their carries into bit 64 in t and u; no sum overflows */
    u64x8 t = (ll >> 32) + lh, u = (t & 0xFFFFFFFF) + hl;
    *lo = u << 32 | (ll & 0xFFFFFFFF);
    return hh + (t >> 32) + (u >> 32);
}

__attribute__((target("avx512f"))) PHILOX_ROUNDS(philox_x8, u64x8, mulhilo_x8, "GCC unroll 1")

/* The blocks of the BLOCKS next counters at once, lane b computing counter ctr + 1 + b: each word
 * of it takes one more where the word below it wrapped round, to below its old value.  The words
 * are then transposed from one vector per word of the block to the blocks one after another. */
__attribute__((target("avx512f"))) static void refill_x8(stream_t *s)
{
    u64x8 c[4];
    c[0] = s->ctr[0] + (u64x8){1, 2, 3, 4, 5, 6, 7, 8};
    for (int i = 1; i < 4; i++)
        c[i] = s->ctr[i] - (u64x8)(c[i - 1] < s->ctr[i - 1]);
    for (int i = 0; i < 4; i++)
        s->ctr[i] = c[i][BLOCKS - 1];
    philox_x8(c, s->key[0], s->key[1], c);
    /* pairs (c0, c1) and (c2, c3) of the lanes 0-3 and 4-7, then two whole blocks per vector */
    const u64x8 pair_lo = {0, 8, 1, 9, 2, 10, 3, 11}, pair_hi = {4, 12, 5, 13, 6, 14, 7, 15};
    const u64x8 quad_lo = {0, 1, 8, 9, 2, 3, 10, 11}, quad_hi = {4, 5, 12, 13, 6, 7, 14, 15};
    u64x8 t0 = __builtin_shuffle(c[0], c[1], pair_lo), t1 = __builtin_shuffle(c[0], c[1], pair_hi);
    u64x8 t2 = __builtin_shuffle(c[2], c[3], pair_lo), t3 = __builtin_shuffle(c[2], c[3], pair_hi);
    u64x8 blocks[4] = {__builtin_shuffle(t0, t2, quad_lo), __builtin_shuffle(t0, t2, quad_hi),
                       __builtin_shuffle(t1, t3, quad_lo), __builtin_shuffle(t1, t3, quad_hi)};
    memcpy(s->buffer, blocks, sizeof blocks);
}
#endif

/* Fill the buffer with the blocks of the BLOCKS next counters, to be read from its first word.
 * Out of line: it runs once per 32 words, and keeps the draws that inline its callers small. */
__attribute__((noinline)) static void refill(stream_t *s)
{
#if defined(__x86_64__)
    if (lanes == BLOCKS)
        refill_x8(s);
    else
#endif
        for (int b = 0; b < BLOCKS; b++) {
            if (++s->ctr[0] == 0 && ++s->ctr[1] == 0 && ++s->ctr[2] == 0)
                ++s->ctr[3];
            philox(s->ctr, s->key[0], s->key[1], s->buffer + 4 * b);
        }
    s->buffer_pos = 0;
}

static uint64_t next_uint64(void *state)
{
    stream_t *s = state;
    if (s->buffer_pos >= BUFFER_WORDS)
        refill(s);
    return s->buffer[s->buffer_pos++];
}

static double next_double(void *state)
{
    return (next_uint64(state) >> 11) * (1.0 / 9007199254740992.0);
}

/* A standard normal from s, as random_standard_normal draws it.  Its first try is taken here:
 * the word's low 8 bits index the layer, the next bit is the sign and the 52 above it the
 * magnitude.  The sign is XOR-ed into the result's sign bit, which is all that negation does,
 * rather than applied by a branch on a random bit, which is mispredicted half the time.  A
 * reject leaves the word unread, so random_standard_normal, which draws only 64-bit words and
 * doubles, reads it again and goes on to the wedge or the tail.  Inlined into the kernel's
 * loops, which draw nothing else. */
__attribute__((always_inline)) static inline double normal(stream_t *s)
{
    if (s->buffer_pos >= BUFFER_WORDS)
        refill(s);
    uint64_t r = s->buffer[s->buffer_pos];
    int idx = r & 0xff;
    uint64_t rabs = r >> 9 & 0x000fffffffffffffULL;
    if (rabs < ki_double[idx]) {
        s->buffer_pos++;
        double x = rabs * wi_double[idx];
        uint64_t bits;
        memcpy(&bits, &x, sizeof bits);
        bits ^= (r >> 8 & 1) << 63;
        memcpy(&x, &bits, sizeof x);
        return x;
    }
    bitgen_t g = {s, next_uint64, 0, next_double, next_uint64};
    return random_standard_normal(&g);
}

void em_raw(stream_t *s, int64_t n, uint64_t *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = next_uint64(s);
}

/* The recorder of a single path, _em.Recorder, which its kernel (rk4_path or em_path) steps a
 * block of rows at a time: each call steps the path until the buffers hold `block` rows, or the
 * path ends, and returns.  The recorder holds the path's inputs, and carries all that the next call
 * resumes from: the step, the state and em_path's streams.  The caller sets the fields up to step,
 * which it sets to -1, those up to due as none recorded yet, and x1, x2 to the start. */
typedef struct {
    const double *inputs; /* rk4_path: the rates (model_core.field's constants); em_path: the cell's words */
    uint64_t seed;        /* em_path: the path is replicate `replicate` of the ensemble of this seed */
    int64_t replicate;
    int64_t n;        /* steps */
    int64_t stride;   /* steps 0, stride, 2 stride, ... (stride <= n) and n are recorded */
    double dt;
    double low, high; /* the state left the triangle when p or m < low, or p + m > high */
    double *times;    /* block: step * dt */
    double *p, *m;    /* block each */
    int64_t block;    /* rows the buffers hold */
    int64_t step;     /* steps taken, -1 before the start */
    int64_t rows;     /* rows written by the last call */
    int64_t exited;   /* first step whose state left the triangle, else -1 */
    int64_t failed;   /* the step whose state was not finite, else -1 */
    double lowest;    /* the smallest p or m recorded */
    int64_t due;      /* the next step to record */
    double x1, x2;    /* the state after `step` steps: p, m (rk4_path) or the deviations (em_path) */
    stream_t st[2];   /* em_path's streams, one per coordinate */
} path_t;

int64_t em_recorder_bytes(void) { return sizeof(path_t); }

/* The step recorded after step s, of steps 0, stride, 2 stride, ... (stride <= n) and n. */
static inline int64_t next_due(int64_t n, int64_t stride, int64_t s) { return n - s <= stride ? n : s + stride; }

/* Take the state (p, m) after step s.  Returns 0 if the path stops there: the state is not
 * finite, which sets failed, or its row filled the block. */
static int path_record(path_t *r, int64_t s, double p, double m)
{
    if (!(isfinite(p) && isfinite(m))) {
        r->failed = s;
        return 0;
    }
    if (r->exited < 0 && (p < r->low || m < r->low || p + m > r->high))
        r->exited = s;
    if (s != r->due)
        return 1;
    r->times[r->rows] = (double)s * r->dt;
    r->p[r->rows] = p;
    r->m[r->rows] = m;
    r->rows++;
    r->lowest = fmin(r->lowest, fmin(p, m));
    r->due = next_due(r->n, r->stride, s);
    return r->rows < r->block;
}

/* Record the rows of a settled path, whose state (p, m) after step *s no step changes, up to the
 * block's end or the last step, without stepping: path_record has taken the state, so exited and
 * failed cannot move, nor lowest.  A call that resumes the next block steps once and settles again. */
static void path_hold(path_t *r, int64_t *s, double p, double m)
{
    while (*s < r->n && path_record(r, *s = r->due, p, m))
        ;
}

/* Whether a and b have the same bits. */
static inline int same(double a, double b)
{
    uint64_t x, y;
    memcpy(&x, &a, sizeof x);
    memcpy(&y, &b, sizeof y);
    return x == y;
}

/* Begin a call's block of rows, taking the start state (p, m), step 0, on the first call.  Returns
 * 0 if the path stops there. */
static int path_resume(path_t *r, double p, double m)
{
    r->rows = 0;
    if (r->step >= 0)
        return 1;
    r->step = 0;
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

/* The classical RK4 path of the model of rates path->inputs from (p, m) = (x1, x2), path->n steps of
 * dt, into the recorder, a block at a time.  A step that leaves (p, m) as it was, bit for bit, settles
 * the path: the step is a function of the state alone, so no later step changes it either, and
 * path_hold records the rest without stepping. */
void rk4_path(path_t *path)
{
    const double *model = path->inputs;
    double dt = path->dt, sixth = dt / 6.0, half = 0.5 * dt, p = path->x1, m = path->x2;
    if (!path_resume(path, p, m))
        return;
    int64_t s = path->step;
    while (s < path->n) {
        double k1p, k1m, k2p, k2m, k3p, k3m, k4p, k4m, p0 = p, m0 = m;
        field(model, p, m, &k1p, &k1m);
        field(model, p + half * k1p, m + half * k1m, &k2p, &k2m);
        field(model, p + half * k2p, m + half * k2m, &k3p, &k3m);
        field(model, p + dt * k3p, m + dt * k3m, &k4p, &k4m);
        p = p + sixth * (k1p + 2.0 * (k2p + k3p) + k4p);
        m = m + sixth * (k1m + 2.0 * (k2m + k3m) + k4m);
        if (!path_record(path, ++s, p, m))
            break;
        if (same(p, p0) && same(m, m0)) {
            path_hold(path, &s, p, m);
            break;
        }
    }
    path->step = s;
    path->x1 = p;
    path->x2 = m;
}

/* One Euler-Maruyama step of a cell's deviations (u, v) on the increments (d1, d2), which the tests'
 * reference (tests/conftest.py's em_deviations) repeats in its order.  Written once for T, a double
 * (em_step) or a GCC vector of doubles (em_run's slice step), on which GCC's operators take the same
 * IEEE operation lane by lane, a scalar operand in every lane; with -ffp-contract=off none is fused,
 * and nothing here changes MXCSR, so each lane rounds as the double does, subnormals too. */
#define EM_STEP(name, T)                                                               \
    static inline void name(const double *cell, double dt, T d1, T d2, T *u, T *v)     \
    {                                                                                  \
        T x1 = *u, x2 = *v, sum = x1 + x2;                                             \
        T g1 = cell[A11] * x1 + cell[A12] * x2 - cell[BR] * sum * x2;                  \
        T g2 = cell[A21] * x1 + cell[A22] * x2 - cell[ABR] * sum * x1;                 \
        *u = x1 + g1 * dt + cell[W1] * x1 * d1;                                        \
        *v = x2 + g2 * dt + cell[W2] * x2 * d2;                                        \
    }

EM_STEP(em_step, double)

/* A slice of an ensemble's replicates, _em.Slice, which em_run steps a block of recorded rows at a
 * time, in lockstep: replicates first..first+n-1 of every cell, in `stride` columns per cell, a
 * multiple of 8, at least n and at most BLOCK.  The slice carries all that the next call resumes
 * from: the deviations, flags and streams, the step, and the next row and its step.  The caller
 * sets the fields up to n, and step, which it sets to -1: the next call starts them from step 0. */
typedef struct {
    const double *cells;   /* ncells x CELL_WORDS constants */
    int64_t ncells;
    int64_t stride;
    double dt;
    int64_t steps, every;  /* steps 0, every, 2 every, ... (every <= steps) and steps are recorded */
    int64_t block;         /* rows sq holds */
    double *state;         /* STATE_ROWS x ncells x stride: the deviations */
    double *sq;            /* block x ncells x stride: |x|^2 of the rows of the last call */
    int64_t *first_exceed; /* ncells x stride each, as sq's columns */
    uint8_t *negative;
    stream_t *st;          /* 2 x stride: replicate first + j draws from st[2j] and st[2j + 1] */
    double *sum; int64_t *exceed, *lost, *counts; /* the ensemble's sums, which em_fold adds into */
    uint64_t seed;
    int64_t first;
    int64_t n;
    int64_t step;          /* steps taken, -1 before the start */
    int64_t next;          /* the row the next step writes */
    int64_t rows;          /* rows written by the last call: rows next - rows .. next - 1 */
    int64_t due;           /* the step of row next */
} slice_t;

int64_t em_slice_bytes(void) { return sizeof(slice_t); }

/* The deviations of row r (X1 or X2) of cell c, in the state of em_run's slice. */
#define ROW(r, c) (state + ((r) * ncells + (c)) * stride)

_Static_assert(BLOCK % 8 == 0, "a slice's columns hold its replicates in whole groups of 8");

/* One step of em_run: replicates 0..width-1 of every cell on the increments d1 and d2, their |x|^2
 * written to sq_row, the block's row of recorded row `next`.
 * Written once for F, a GCC vector of doubles, whose lanes are stepped by
 * step, EM_STEP for F, and loaded and stored a group at a time: width is a multiple of the lanes.  A
 * comparison gives -1 in the lanes where it holds, else 0.  p* + x1 < 0 is tested as x1 < -p*,
 * without an addition: a sum of two doubles rounds to zero only where it is zero, and otherwise
 * keeps its sign.  The flags, rarely set, are written only where one is, so that a step does not
 * rewrite their lines.  The cell's words are copied so that the compiler keeps them in registers.
 * Give each instantiation for a target the target's attribute: a body of another target, inlined
 * or called, is compiled for that one, and compares lane by lane. */
#define EM_SLICE(name, step, F)                                                                         \
    static void name(const double *cells, int64_t ncells, int64_t stride, double dt, const double *d1, \
                     const double *d2, int width, int64_t next, double *state, double *sq_row,         \
                     int64_t *first_exceed, uint8_t *negative)                                         \
    {                                                                                                  \
        typedef int64_t I __attribute__((vector_size(sizeof(F))));                                     \
        typedef uint8_t B __attribute__((vector_size(sizeof(F) / sizeof(double))));                   \
        for (int64_t c = 0; c < ncells; c++) {                                                         \
            double cell[CELL_WORDS];                                                                   \
            memcpy(cell, cells + c * CELL_WORDS, sizeof cell);                                         \
            double *x1 = ROW(X1, c), *x2 = ROW(X2, c), *dsq_at = sq_row + c * stride;                  \
            int64_t *fe_at = first_exceed + c * stride;                                                \
            uint8_t *neg_at = negative + c * stride;                                                   \
            for (int64_t j = 0; j < width; j += sizeof(F) / sizeof(double)) {                          \
                F u, v, e1, e2;                                                                        \
                I fe;                                                                                  \
                memcpy(&u, x1 + j, sizeof u);                                                          \
                memcpy(&v, x2 + j, sizeof v);                                                          \
                memcpy(&e1, d1 + j, sizeof e1);                                                        \
                memcpy(&e2, d2 + j, sizeof e2);                                                        \
                memcpy(&fe, fe_at + j, sizeof fe);                                                     \
                step(cell, dt, e1, e2, &u, &v);                                                        \
                F dsq = u * u + v * v;                                                                 \
                I hit = (fe < 0) & (dsq > cell[EPS_SQ]);                                               \
                I below = (u < -cell[P_STAR]) | (v < -cell[M_STAR]);                                   \
                B flags = __builtin_convertvector(hit | below, B);                                     \
                uint64_t any = 0;                                                                      \
                memcpy(&any, &flags, sizeof flags);                                                    \
                if (any) {                                                                             \
                    B neg;                                                                             \
                    fe = (fe & ~hit) | (hit & next);                                                   \
                    memcpy(&neg, neg_at + j, sizeof neg);                                              \
                    neg |= __builtin_convertvector(below & 1, B);                                      \
                    memcpy(fe_at + j, &fe, sizeof fe);                                                 \
                    memcpy(neg_at + j, &neg, sizeof neg);                                              \
                }                                                                                      \
                memcpy(dsq_at + j, &dsq, sizeof dsq);                                                  \
                memcpy(x1 + j, &u, sizeof u);                                                          \
                memcpy(x2 + j, &v, sizeof v);                                                          \
            }                                                                                          \
        }                                                                                              \
    }

/* Two lanes, an SSE2 or NEON register: the slice step of every CPU without AVX-512F. */
typedef double f64x2 __attribute__((vector_size(16)));
EM_STEP(em_step_x2, f64x2)
EM_SLICE(slice_step_x2, em_step_x2, f64x2)

#if defined(__x86_64__)
/* Eight lanes, an AVX-512 register. */
typedef double f64x8 __attribute__((vector_size(64)));
__attribute__((target("avx512f"))) EM_STEP(em_step_x8, f64x8)
__attribute__((target("avx512f"))) EM_SLICE(slice_step_x8, em_step_x8, f64x8)
#endif

/* Step the slice's replicates through their next block of recorded rows, from their start on the
 * first call, to the last recorded step: until sq holds `block` rows, or the last row.
 *
 * |x|^2 of cell c, replicate first + j at recorded row i goes to row i - (next - rows) of sq, at
 * (row * ncells + c) * stride + j: each step writes row next, the first recorded from it on, and
 * the later steps up to its step, due, overwrite it.  first_exceed[c * stride + j] takes the first
 * recorded row from the first step (the start included) whose |x|^2 exceeded eps_sq, else -1, and
 * negative is set if p* + x1 or m* + x2 was ever below zero.  A replicate whose state is not finite
 * stays so, and its |x|^2 with it: each step adds x1 into x1' and x2 into x2', and a sum with a NaN
 * or an infinity is not finite.
 *
 * Replicate first + j draws from its own two streams once per step, for every cell at once, so a
 * batch of cells draws its increments once, and no number depends on the batch, the slice or the
 * block it is in.  The slice is widened to a multiple of 8 by lanes that start at 0.0 and step on
 * increments of 0.0, whose outputs em_fold never reads, and stepped eight replicates per register
 * where the CPU has AVX-512F (slice_step_x8), else two (slice_step_x2).
 */
void em_run(slice_t *sl)
{
    /* the fields in locals: a store to a stream or to a flag could alias sl's fields, which would
     * then be loaded again for each draw */
    const double *cells = sl->cells;
    int64_t ncells = sl->ncells, stride = sl->stride, steps = sl->steps, every = sl->every;
    double dt = sl->dt, *state = sl->state, *sq = sl->sq;
    int64_t *first_exceed = sl->first_exceed;
    uint8_t *negative = sl->negative;
    stream_t *st = sl->st;
    int nb = (int)sl->n, width = (nb + 7) / 8 * 8, starts = sl->step < 0;
    double sqrt_dt = sqrt(dt), d1[BLOCK] = {0}, d2[BLOCK] = {0};
    if (starts) { /* row 0, the start */
        for (int j = 0; j < 2 * nb; j++)
            em_seed(st + j, sl->seed, 2 * (uint64_t)sl->first + j);
        for (int64_t c = 0; c < ncells; c++) {
            const double *cell = cells + c * CELL_WORDS;
            double *x1 = ROW(X1, c), *x2 = ROW(X2, c);
            for (int j = 0; j < width; j++) {
                int64_t k = c * stride + j;
                x1[j] = j < nb ? cell[X1_0] : 0.0;
                x2[j] = j < nb ? cell[X2_0] : 0.0;
                sq[k] = x1[j] * x1[j] + x2[j] * x2[j];
                first_exceed[k] = sq[k] > cell[EPS_SQ] ? 0 : -1;
                negative[k] = cell[P_STAR] + x1[j] < 0.0 || cell[M_STAR] + x2[j] < 0.0;
            }
        }
        sl->step = 0;
        sl->next = 1;
        sl->due = next_due(steps, every, 0);
    }
    int64_t s = sl->step, next = sl->next, due = sl->due, base = next - starts, block = sl->block;
    for (; s < steps && next - base < block; s++) {
        for (int j = 0; j < nb; j++) {
            d1[j] = normal(st + 2 * j) * sqrt_dt;
            d2[j] = normal(st + 2 * j + 1) * sqrt_dt;
        }
        double *sq_row = sq + (next - base) * ncells * stride;
#if defined(__x86_64__)
        if (lanes == BLOCKS)
            slice_step_x8(cells, ncells, stride, dt, d1, d2, width, next, state, sq_row, first_exceed, negative);
        else
#endif
            slice_step_x2(cells, ncells, stride, dt, d1, d2, width, next, state, sq_row, first_exceed, negative);
        if (s + 1 == due) {
            next++;
            due = next_due(steps, every, due);
        }
    }
    sl->step = s;
    sl->next = next;
    sl->due = due;
    sl->rows = next - base;
}

/* Step replicate path->replicate of the cell path->inputs path->n steps from the deviations (x1, x2)
 * into the recorder, which stops the path at its first non-finite state, on increments drawn as em_run
 * draws them, its streams seeded on the first call; a block at a time, as rk4_path does.
 *
 * A step after which u and v are as they were, bit for bit, nonzero, and W1 u and W2 v are zero,
 * settles the path, and path_hold records the rest without stepping.  That is exact: a step adds
 * to u its drift part, x1 + g1 dt, a function of the state alone, and the noise term (W1 x1) d1,
 * which is then +-0 for any finite d1.  A nonzero sum of x and +-0 is x, so the drift part left
 * u unchanged, and every later step returns u again, whatever it draws; so does v.  A step on
 * small increments may also leave the state unchanged, but where W x is not zero a larger
 * increment moves it again, so that does not settle the path. */
void em_path(path_t *path)
{
    const double *cell = path->inputs;
    double dt = path->dt, sqrt_dt = sqrt(dt), u = path->x1, v = path->x2;
    if (path->step < 0) {
        em_seed(path->st, path->seed, 2 * (uint64_t)path->replicate);
        em_seed(path->st + 1, path->seed, 2 * (uint64_t)path->replicate + 1);
    }
    if (!path_resume(path, cell[P_STAR] + u, cell[M_STAR] + v))
        return;
    int64_t s = path->step;
    while (s < path->n) {
        double d1 = normal(path->st) * sqrt_dt;
        double d2 = normal(path->st + 1) * sqrt_dt;
        double u0 = u, v0 = v;
        em_step(cell, dt, d1, d2, &u, &v);
        if (!path_record(path, ++s, cell[P_STAR] + u, cell[M_STAR] + v))
            break;
        if (same(u, u0) && same(v, v0) && u != 0.0 && v != 0.0 && cell[W1] * u == 0.0 && cell[W2] * v == 0.0) {
            path_hold(path, &s, cell[P_STAR] + u, cell[M_STAR] + v);
            break;
        }
    }
    path->step = s;
    path->x1 = u;
    path->x2 = v;
}

/* Add the replicates j < n of the row at x whose |x|^2 is finite into *sum, in index order, and
 * count the others in *lost.  An |x|^2 is at least 0.0, or NaN, or infinite. */
static void fold_row(const double *x, int64_t n, double *sum, int64_t *lost)
{
    double acc = *sum;
    for (int64_t j = 0; j < n; j++)
        if (x[j] < INFINITY)
            acc += x[j];
        else
            ++*lost;
    *sum = acc;
}

/* Rows fold_rows adds at once. */
#define FOLD_ROWS 8

/* Every replicate j < n of the FOLD_ROWS rows at x, x + step, ..., into sum[0..7], in index order, in
 * one pass over the replicates.  A row's adds are one chain, each waiting for the one before; the
 * eight rows' chains are independent, and the CPU overlaps them. */
static inline void fold_rows(const double *x, int64_t step, int64_t n, double *sum)
{
    double a0 = sum[0], a1 = sum[1], a2 = sum[2], a3 = sum[3], a4 = sum[4], a5 = sum[5], a6 = sum[6], a7 = sum[7];
    for (int64_t j = 0; j < n; j++) {
        a0 += x[j];
        a1 += x[step + j];
        a2 += x[2 * step + j];
        a3 += x[3 * step + j];
        a4 += x[4 * step + j];
        a5 += x[5 * step + j];
        a6 += x[6 * step + j];
        a7 += x[7 * step + j];
    }
    sum[0] = a0;
    sum[1] = a1;
    sum[2] = a2;
    sum[3] = a3;
    sum[4] = a4;
    sum[5] = a5;
    sum[6] = a6;
    sum[7] = a7;
}

/* Add the replicates of the block em_run stepped last into the slice's ensemble sums over its nrec
 * recorded rows, ceil(steps / every) + 1, in replicate-index order.  Per cell c and recorded row i,
 * sum[c * nrec + i] adds their |x|^2 that are finite, and lost[c * nrec + i] counts the others.  After
 * the final block, exceed[c * nrec + i] counts the replicates whose state is finite at the end and
 * whose first exceedance was at row i, and counts[3 * c ...] adds the replicates whose state is finite
 * at the end, the negative ones among them, and those whose state is not.  Folding every slice's
 * block in turn into sums that start at 0.0 adds each row's values in index order from 0.0, FOLD_ROWS
 * rows at a time: where such a pass over every replicate leaves a sum that is not finite, that row is
 * added again from its sum before, by fold_row, which adds only the finite |x|^2. */
void em_fold(const slice_t *sl)
{
    int64_t ncells = sl->ncells, stride = sl->stride, n = sl->n, rows = sl->rows;
    int64_t nrec = (sl->steps - 1) / sl->every + 2; /* without overflow */
    int64_t step = ncells * stride, base = sl->next - rows; /* from a row of sq to the next; sq's first row */
    for (int64_t c = 0; c < ncells; c++) {
        const double *sq = sl->sq + c * stride;
        double *row_sum = sl->sum + c * nrec + base;
        int64_t *row_lost = sl->lost + c * nrec + base, i = 0;
        for (; i + FOLD_ROWS <= rows; i += FOLD_ROWS) {
            double before[FOLD_ROWS];
            memcpy(before, row_sum + i, sizeof before);
            fold_rows(sq + i * step, step, n, row_sum + i);
            for (int r = 0; r < FOLD_ROWS; r++)
                if (!(row_sum[i + r] < INFINITY)) {
                    row_sum[i + r] = before[r];
                    fold_row(sq + (i + r) * step, n, row_sum + i + r, row_lost + i + r);
                }
        }
        for (; i < rows; i++)
            fold_row(sq + i * step, n, row_sum + i, row_lost + i);
        if (sl->step < sl->steps)
            continue;
        const double *state = sl->state;
        int64_t *count = sl->counts + 3 * c;
        for (int64_t j = 0; j < n; j++) {
            int64_t fe = sl->first_exceed[c * stride + j];
            if (!(isfinite(ROW(X1, c)[j]) && isfinite(ROW(X2, c)[j]))) {
                count[2]++;
                continue;
            }
            count[0]++;
            count[1] += sl->negative[c * stride + j];
            if (fe >= 0)
                sl->exceed[c * nrec + fe]++;
        }
    }
}
#undef ROW

/* The longest '%.17g' of a double is 24 bytes (-1.2345678901234567e-308).  _em.py allots G17_ROOM
 * bytes per number, besides its separator, and fmt_g17 copies each number's text in one piece of
 * G17_ROOM bytes, whose bytes past the text the separator and the next number write over. */
#define G17_ROOM 32

/* Bytes of g17's buffer: its pieces of fixed size reach past the text, to 35 bytes at most. */
#define TEXT_ROOM 48

static const uint64_t POW5[28] = {
    1ULL, 5ULL, 25ULL, 125ULL, 625ULL, 3125ULL, 15625ULL, 78125ULL, 390625ULL, 1953125ULL,
    9765625ULL, 48828125ULL, 244140625ULL, 1220703125ULL, 6103515625ULL, 30517578125ULL,
    152587890625ULL, 762939453125ULL, 3814697265625ULL, 19073486328125ULL, 95367431640625ULL,
    476837158203125ULL, 2384185791015625ULL, 11920928955078125ULL, 59604644775390625ULL,
    298023223876953125ULL, 1490116119384765625ULL, 7450580596923828125ULL,
};

/* "00" to "99": the two digits of each number below 100 */
static const char DIGIT_PAIRS[] =
    "0001020304050607080910111213141516171819202122232425262728293031323334353637383940414243444546474849"
    "5051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899";

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

/* '%.17g' % x of a finite x into t, which holds TEXT_ROOM bytes, without a terminating NUL; returns
 * its length.  Every copy has a fixed size, so the compiler writes it inline, and the bytes past the
 * text are left as they are: the digits are copied whole, then the fraction's over them, one byte on. */
static int g17(double x, char *t)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    int biased = (int)(bits >> 52 & 0x7FF);
    /* 17 significant digits of a normal double between 1e-11 and 1e17 are
     * found exactly below; snprintf writes everything else, as exactly.  e10
     * estimates floor(log10 |x|) as floor((biased - 1023) log10 2), which is
     * (biased - 1023) 78913 / 2^18 rounded down for every exponent (GCC
     * shifts a negative int arithmetically), and is at most one low. */
    int e10 = biased == 0 ? 99 : (biased - 1023) * 78913 >> 18;
    uint64_t mant = (bits & ((1ULL << 52) - 1)) | 1ULL << 52, d = E17;
    int e = biased - 1075, k = 16 - e10, rest = 0;
    if (e10 >= -11 && e10 <= 16) {
        d = scaled(mant, e, k, &rest);
        if (d >= E17 && k > 0) { /* the estimate of floor(log10 |x|) was one low */
            e10++;
            d = scaled(mant, e, --k, &rest);
        }
    }
    if (d >= E17) /* out of range, or 1e17 <= |x| < 2^57 */
        return snprintf(t, G17_ROOM, "%.17g", x);
    if (rest > 0 || (rest == 0 && d & 1)) /* round half to even */
        d++;
    if (d == E17) {
        d = E16;
        e10++;
    }

    /* d has 17 digits: its first 9 and its last 8, each two at a time from the right in 32-bit
     * words, two chains of divisions that the CPU overlaps, then the first; the zeros after them are
     * read by the fixed copies of a fraction, and not written out */
    char digits[40] = {0};
    uint32_t high = (uint32_t)(d / 100000000), low = (uint32_t)(d % 100000000);
    for (int i = 15; i > 8; i -= 2, low /= 100, high /= 100) {
        memcpy(digits + i, DIGIT_PAIRS + 2 * (low % 100), 2);
        memcpy(digits + i - 8, DIGIT_PAIRS + 2 * (high % 100), 2);
    }
    digits[0] = (char)('0' + high);
    int nd = 17; /* without trailing zeros */
    while (nd > 1 && digits[nd - 1] == '0')
        nd--;
    int o = bits >> 63; /* the text so far: a '-' or nothing */
    t[0] = '-';
    if (e10 < -4 || e10 >= 17) { /* d.ddde-dd: at most 1 + 18 + 4 bytes */
        t[o] = digits[0];
        t[o + 1] = '.';
        memcpy(t + o + 2, digits + 1, 16);
        o += nd > 1 ? nd + 1 : 1;
        int a = e10 < 0 ? -e10 : e10; /* below 100 here */
        char exponent[4] = {'e', e10 < 0 ? '-' : '+', (char)('0' + a / 10), (char)('0' + a % 10)};
        memcpy(t + o, exponent, 4);
        o += 4;
    } else if (e10 >= 0) { /* ddd.ddd: the integer's digits, then the fraction's at 1 + e10 + 2 + 16 at most */
        memcpy(t + o, digits, 17);
        if (nd > e10 + 1) {
            t[o + e10 + 1] = '.';
            memcpy(t + o + e10 + 2, digits + e10 + 1, 16);
            o += nd + 1;
        } else {
            o += e10 + 1;
        }
    } else { /* 0.000ddd: at most 1 + 5 + 17 bytes */
        memcpy(t + o, "0.000", 5);
        memcpy(t + o + 1 - e10, digits, 17);
        o += 1 - e10 + nd;
    }
    return o;
}

/* Copy the n bytes of s to o in pieces of fixed size, which the compiler writes inline, none
 * reaching past s + n or o + n: a 1-byte separator in one store.  Returns o + n. */
static inline char *put(char *o, const char *s, int64_t n)
{
    if (n == 1) {
        *o = *s;
    } else if (n >= 8) {
        for (int64_t i = 0; i < n - 8; i += 8)
            memcpy(o + i, s + i, 8);
        memcpy(o + n - 8, s + n - 8, 8);
    } else if (n >= 4) {
        memcpy(o, s, 4);
        memcpy(o + n - 4, s + n - 4, 4);
    } else if (n >= 2) {
        memcpy(o, s, 2);
        memcpy(o + n - 2, s + n - 2, 2);
    }
    return o + n;
}

/* Columns whose last number fmt_g17 keeps, with its text: column j in slot j % SLOTS. */
#define SLOTS 8

/* A NaN (of either sign), an infinity and a negative infinity as Python's '%.17g' spells them, and as
 * JSON does (serialize._write): each copied in 16 bytes. */
static const struct spelling { char text[16]; int len; } NONFINITE[2][3] = {
    {{"nan", 3}, {"inf", 3}, {"-inf", 4}}, {{"NaN", 3}, {"Infinity", 8}, {"-Infinity", 9}}};

/* Write rows 0..rows-1 of the width columns, number (i, j) read as columns[j][i], as '%.17g' writes
 * them, a NaN or an infinity as JSON spells it with json: sep between the numbers of a row and eol
 * after each row.  out holds at least width * rows * (G17_ROOM + the longer of sep and eol) bytes:
 * each number is copied in a piece of G17_ROOM bytes and its separator after its text, so the writes
 * for a number end within one such room past the number before.  A number with the bits of the
 * last one formatted in its slot, such as the same column of the row before, or the number before
 * where a row is one number, takes that one's text again.  Returns the bytes written. */
int64_t fmt_g17(const double *const *columns, int64_t width, int64_t rows, const char *sep, int64_t sep_len,
                const char *eol, int64_t eol_len, int64_t json, char *out)
{
    char text[SLOTS][TEXT_ROOM];
    uint64_t last[SLOTS];
    int len[SLOTS];
    for (int c = 0; c < SLOTS; c++) { /* each slot starts with 0.0, whose text is 0 */
        last[c] = 0;
        text[c][0] = '0';
        len[c] = 1;
    }
    char *o = out;
    for (int64_t i = 0; i < rows; i++) {
        for (int64_t j = 0; j < width; j++) {
            double x = columns[j][i];
            uint64_t bits;
            memcpy(&bits, &x, sizeof bits);
            int c = (int)(j % SLOTS);
            if (bits != last[c]) {
                last[c] = bits;
                if (__builtin_expect(isfinite(x), 1)) { /* laid out straight: 5-10% faster */
                    len[c] = g17(x, text[c]);
                } else {
                    const struct spelling *s = &NONFINITE[json != 0][x != x ? 0 : 1 + (x < 0)];
                    memcpy(text[c], s->text, 16);
                    len[c] = s->len;
                }
            }
            memcpy(o, text[c], G17_ROOM);
            o = put(o + len[c], j == width - 1 ? eol : sep, j == width - 1 ? eol_len : sep_len);
        }
    }
    return o - out;
}
