/* Compiled per-row loops of the batch kernels (backend="c").
 *
 * Three sequential walks over each replication row of a stack, each a
 * transcription of what the numpy workspace path computes with closed
 * forms plus a sequential repair (repro/sim/batch_kernels.py):
 *
 *   serve_rows        ordered service under one constant attempt cap
 *                     (LDF/ELDF, round-robin, static priority);
 *   timeline_rows     the dense DP interval timeline: backoff staircase,
 *                     empty-claim coupling, ordered service;
 *   incremental_rows  the same timeline on the incremental path's sparse
 *                     priority state (one candidate pair, rank-layout
 *                     channel rows).
 *
 * The contract is bit-identity with numpy.  Every count is a small exact
 * integer; every timeline float is computed in double with numpy's
 * operation order (dead = b * slot + e * empty, start = att * air + dead,
 * fits iff start <= T - empty), and the attempt ceiling floors
 * (T - dead) / air either by floor(a / b) where the kernel proved that
 * exact (integer timings, see BatchDPKernel._exact_div) or by numpy's
 * fmod-based floor_divide otherwise.  Busy time is the attempt total
 * times the data airtime in double, plus the fitting claims' airtime, as
 * the scalar engine computes it.  The file must be built with
 * -ffp-contract=off and never with -ffast-math (repro.sim.clib does so),
 * or the compiler may fuse att * air + dead into one rounding.
 *
 * One entry point per dtype combination: W is the draw dtype (cumulative
 * retry counts, attempts by position), L the timeline dtype of the start
 * plane.  Arguments travel in one struct per entry point whose layout
 * repro.sim.ckernels mirrors with ctypes; arrays are C-contiguous.
 */
#include <math.h>
#include <stdint.h>

/* numpy's npy_floor_divide for doubles (also Python's float //). */
static inline double floor_div(double a, double b, int64_t exact)
{
    if (exact)
        return floor(a / b);
    double mod = fmod(a, b);
    if (!b)
        return a / b;
    double div = (a - mod) / b;
    if (mod && ((b < 0) != (mod < 0)))
        div -= 1.0;
    if (!div)
        return copysign(0.0, a / b);
    double floordiv = floor(div);
    if (div - floordiv > 0.5)
        floordiv += 1.0;
    return floordiv;
}

/* Packets delivered within `budget` attempts off one cumulative retry
 * row (strictly increasing), given that the whole backlog does not fit. */
#define PREFIX_COUNT(cum, budget, backlog, out)                             \
    do {                                                                    \
        int64_t d_ = 0;                                                     \
        while (d_ < (backlog) && (double)(cum)[d_] <= (double)(budget))     \
            d_++;                                                           \
        (out) = d_;                                                         \
    } while (0)

typedef struct {
    int64_t S, N, A;
    int64_t cap;          /* attempt budget of the interval */
    double air;
    const int64_t *order; /* (S, N) link ids in service order */
    const int64_t *backlog; /* (S, N) by link */
    const void *needed;   /* (S, N, A) W, cumulative retries by link */
    int64_t *delivered;   /* (S, N) by link */
    void *att_pos;        /* (S, N) W, attempts by position */
    double *busy;         /* (S,) */
} serve_args;

#define SERVE_ROWS(NAME, W)                                                 \
    void NAME(const serve_args *a)                                          \
    {                                                                       \
        const int64_t N = a->N, A = a->A;                                   \
        const W *needed = (const W *)a->needed;                             \
        W *att_pos = (W *)a->att_pos;                                       \
        for (int64_t s = 0; s < a->S; s++) {                                \
            const int64_t *order = a->order + s * N;                        \
            const int64_t *backlog = a->backlog + s * N;                    \
            int64_t *delivered = a->delivered + s * N;                      \
            int64_t used = 0;                                               \
            for (int64_t j = 0; j < N; j++) {                               \
                const int64_t link = order[j];                              \
                const int64_t b = backlog[link];                            \
                int64_t u = 0, d = 0;                                       \
                if (b > 0) {                                                \
                    const int64_t budget = a->cap - used;                   \
                    if (budget > 0) {                                       \
                        const W *cum = needed + (s * N + link) * A;         \
                        if ((double)cum[b - 1] <= (double)budget) {         \
                            u = (int64_t)cum[b - 1];                        \
                            d = b;                                          \
                        } else {                                            \
                            u = budget;                                     \
                            PREFIX_COUNT(cum, budget, b, d);                \
                        }                                                   \
                        used += u;                                          \
                    }                                                       \
                }                                                           \
                delivered[link] = d;                                        \
                att_pos[s * N + j] = (W)u;                                  \
            }                                                               \
            a->busy[s] = (double)used * a->air;                             \
        }                                                                   \
    }

SERVE_ROWS(serve_rows_f32, float)
SERVE_ROWS(serve_rows_f64, double)

typedef struct {
    int64_t S, N, A;
    int64_t exact;        /* caps may floor(a / b) (integer timings) */
    double T, air, slot, empty_air;
    const int64_t *order;   /* (S, N) link ids in service order */
    const int64_t *backoff; /* (S, N) backoff slots by position */
    const uint8_t *is_empty; /* (S, N) wants an empty claim, by position */
    const int64_t *backlog; /* (S, N) by link */
    const void *needed;     /* (S, N, A) W by link */
    int64_t *delivered;     /* (S, N) by link */
    void *att_pos;          /* (S, N) W by position */
    uint8_t *tx;            /* (S, N) transmitted (data or claim) */
    void *start;            /* (S, N) L service start by position */
    double *busy, *ovh;     /* (S,) */
} timeline_args;

#define TIMELINE_ROWS(NAME, W, L)                                           \
    void NAME(const timeline_args *a)                                       \
    {                                                                       \
        const int64_t N = a->N, A = a->A;                                   \
        const double T = a->T, air = a->air, slot = a->slot;                \
        const double ea = a->empty_air, claim_end = T - ea;                 \
        const W *needed = (const W *)a->needed;                             \
        for (int64_t s = 0; s < a->S; s++) {                                \
            const int64_t o = s * N;                                        \
            const int64_t *backlog = a->backlog + o;                        \
            W *att_pos = (W *)a->att_pos + o;                               \
            L *start_pos = (L *)a->start + o;                               \
            int64_t att_total = 0, fit = 0, idle = 0;                       \
            for (int64_t j = 0; j < N; j++) {                               \
                const int64_t link = a->order[o + j];                       \
                const int64_t b = backlog[link];                            \
                const int64_t bo = a->backoff[o + j];                       \
                const double dead = (double)bo * slot + (double)fit * ea;   \
                const double start = (double)att_total * air + dead;        \
                int64_t used = 0, served = 0;                               \
                int fits = 0;                                               \
                if (b > 0) {                                                \
                    const int64_t budget =                                  \
                        (int64_t)floor_div(T - dead, air, a->exact)         \
                        - att_total;                                        \
                    if (budget > 0) {                                       \
                        const W *cum = needed + (o + link) * A;             \
                        if ((double)cum[b - 1] <= (double)budget) {         \
                            used = (int64_t)cum[b - 1];                     \
                            served = b;                                     \
                        } else {                                            \
                            used = budget;                                  \
                            PREFIX_COUNT(cum, budget, b, served);           \
                        }                                                   \
                        att_total += used;                                  \
                    }                                                       \
                } else if (a->is_empty[o + j]) {                            \
                    fits = ea > 0 ? start <= claim_end : start < T;         \
                    fit += fits;                                            \
                }                                                           \
                a->delivered[o + link] = served;                            \
                att_pos[j] = (W)used;                                       \
                start_pos[j] = (L)start;                                    \
                a->tx[o + j] = used > 0 || fits;                            \
                if ((used > 0 || fits) && bo > idle)                        \
                    idle = bo;                                              \
            }                                                               \
            const double claims = (double)fit * ea;                         \
            a->busy[s] = (double)att_total * air + claims;                  \
            a->ovh[s] = (double)idle * slot + claims;                       \
        }                                                                   \
    }

TIMELINE_ROWS(timeline_rows_f32_f32, float, float)
TIMELINE_ROWS(timeline_rows_f32_f64, float, double)
TIMELINE_ROWS(timeline_rows_f64_f64, double, double)

typedef struct {
    int64_t S, N, K, A;
    int64_t exact, track;   /* exact caps; write attempts by link */
    double T, air, slot, empty_air;
    const int64_t *inv;     /* (S, N) priority position -> link */
    const int64_t *cand;    /* (S,) candidate position c in 1..N-1 */
    const uint8_t *swap;    /* (S,) both coins said swap */
    const uint8_t *wants_a, *wants_b; /* (S,) claims at c - 1 and c */
    const int64_t *bmin, *bmax; /* (S,) backoffs at c - 1 and c */
    const int64_t *backlog; /* (S, N) by link */
    const void *needed;     /* (S, K, A) W: r-th backlogged link's row */
    int64_t *delivered, *attempts; /* (S, N) by link, written sparsely */
    uint8_t *tx_a;          /* (S,) position c - 1 transmitted */
    double *start_a;        /* (S,) service start of position c - 1 */
    double *busy, *ovh;     /* (S,) */
} incremental_args;

/* Walks each row's priority order through the persistent inverse
 * permutation.  Positions below the pair carry backoff j, the pair
 * bmin/bmax, positions above it j + 2.  Once a backlogged link below the
 * pair finds its ceiling exhausted, nothing changes until position c - 1
 * (no claims live there and ceilings only fall), so the walk jumps
 * there; past the pair it stops at the first exhausted ceiling. */
#define INCREMENTAL_ROWS(NAME, W)                                           \
    void NAME(const incremental_args *a)                                    \
    {                                                                       \
        const int64_t N = a->N, K = a->K, A = a->A;                         \
        const double T = a->T, air = a->air, slot = a->slot;                \
        const double ea = a->empty_air, claim_end = T - ea;                 \
        const W *needed = (const W *)a->needed;                             \
        for (int64_t s = 0; s < a->S; s++) {                                \
            const int64_t o = s * N;                                        \
            const int64_t *inv = a->inv + o;                                \
            const int64_t c = a->cand[s];                                   \
            const int sw = a->swap[s];                                      \
            int64_t att_total = 0, fit = 0, idle = 0, r = 0;                \
            int txa = 0;                                                    \
            double sta = 0.0;                                               \
            for (int64_t j = 0; j < N; j++) {                               \
                int64_t link, bo;                                           \
                if (j == c - 1) {                                           \
                    link = sw ? inv[c] : inv[c - 1];                        \
                    bo = a->bmin[s];                                        \
                } else if (j == c) {                                        \
                    link = sw ? inv[c - 1] : inv[c];                        \
                    bo = a->bmax[s];                                        \
                } else {                                                    \
                    link = inv[j];                                          \
                    bo = j > c ? j + 2 : j;                                 \
                }                                                           \
                const int64_t b = a->backlog[o + link];                     \
                const double dead = (double)bo * slot + (double)fit * ea;   \
                const double start = (double)att_total * air + dead;        \
                if (j == c - 1)                                             \
                    sta = start;                                            \
                if (b > 0) {                                                \
                    const int64_t cap =                                     \
                        (int64_t)floor_div(T - dead, air, a->exact);        \
                    const int64_t budget = cap - att_total;                 \
                    if (budget > 0) {                                       \
                        const W *cum = needed + (s * K + r) * A;            \
                        int64_t used, served;                               \
                        if ((double)cum[b - 1] <= (double)budget) {         \
                            used = (int64_t)cum[b - 1];                     \
                            served = b;                                     \
                        } else {                                            \
                            used = budget;                                  \
                            PREFIX_COUNT(cum, budget, b, served);           \
                        }                                                   \
                        att_total += used;                                  \
                        a->delivered[o + link] = served;                    \
                        if (a->track)                                       \
                            a->attempts[o + link] = used;                   \
                        if (bo > idle)                                      \
                            idle = bo;                                      \
                        if (j == c - 1)                                     \
                            txa = 1;                                        \
                    }                                                       \
                    r++;                                                    \
                    if (j < c - 2 && cap <= att_total)                      \
                        j = c - 2;                                          \
                } else if ((j == c - 1 && a->wants_a[s])                    \
                           || (j == c && a->wants_b[s])) {                  \
                    if (ea > 0 ? start <= claim_end : start < T) {          \
                        fit++;                                              \
                        if (bo > idle)                                      \
                            idle = bo;                                      \
                        if (j == c - 1)                                     \
                            txa = 1;                                        \
                    }                                                       \
                }                                                           \
                if (j >= c) {                                               \
                    const double next = (double)(j + 3) * slot              \
                        + (double)fit * ea;                                 \
                    if ((int64_t)floor_div(T - next, air, a->exact)         \
                        <= att_total)                                       \
                        break;                                              \
                }                                                           \
            }                                                               \
            const double claims = (double)fit * ea;                         \
            a->busy[s] = (double)att_total * air + claims;                  \
            a->ovh[s] = (double)idle * slot + claims;                       \
            a->tx_a[s] = (uint8_t)txa;                                      \
            a->start_a[s] = sta;                                            \
        }                                                                   \
    }

INCREMENTAL_ROWS(incremental_rows_f32, float)
INCREMENTAL_ROWS(incremental_rows_f64, double)
