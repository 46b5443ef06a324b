/*
 * Standard normals from per-row Philox4x64-10 streams, bit for bit the
 * ones numpy's Generator(Philox(...)).standard_normal draws.
 *
 * Each row keeps numpy's Philox state in 11 uint64 words: the counter (4),
 * the key (2), the output buffer (4) and the buffer position.  numpy's
 * philox_next increments the counter (with carry) before each new 4-word
 * block and hands the block's words out one at a time.
 *
 * philox_normal_fill runs one fused loop per row.  It takes the row's
 * buffered words first, then generates the next words into an on-stack
 * segment of SEG_WORDS words.  Each word becomes a normal inline by numpy's
 * ziggurat (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000), in the order
 * and arithmetic of numpy's random_standard_normal
 * (numpy/random/src/distributions/distributions.c):
 *  - fast path: idx = w & 0xff, the sign bit, rabs = 52 bits; the word is
 *    accepted when rabs < ki[idx] and gives rabs * wi[idx] with its sign
 *    bit set by an xor, which is exactly numpy's -x;
 *  - wedge (idx > 0, about 1.5% of words with the tail): the next word
 *    gives U = (w >> 11) * 2^-53, and x is accepted when
 *    (fi[idx-1] - fi[idx]) * U + fi[idx] < exp(-0.5*x*x); otherwise the
 *    draw starts over with the word after U;
 *  - tail (idx 0): pairs of words give xx = -r_inv * log1p(-U1) and
 *    yy = -log1p(-U2) until yy + yy > xx*xx, and the normal is r + xx
 *    with the sign of bit 8 of rabs.
 * A slow draw takes its further words from the segment, and past its end
 * from the row state, which stands after the segment; the row state left
 * behind is numpy's.  exp and log1p are libm's, which numpy's library calls
 * too, and the build turns FMA contraction off.
 *
 * The tables ki_double, wi_double and fi_double are numpy's own, linked in
 * from numpy/random/lib/libnpyrandom.a (euler.py makes their local symbols
 * global in a copy of it); no numpy function is called.  The loader
 * compares a filled row with numpy's stream before the fill is used.  No
 * Python object is touched, so the caller may release the GIL.
 *
 * euler_rows runs the scaled Euler kernel on whole rows: for a group of
 * rows at a time it fills the next SEG normals of each row into an
 * on-stack block with the same fill, then steps and observes the rows
 * together, so their dependency chains interleave.  Its arithmetic is the
 * numpy kernel's, in the same association order; the build turns FMA
 * contraction off.
 *
 * autocorr_steps runs a block of whole steps of the autocorrelation route
 * of M_f (variance.py): all paths draw from one stream row, and each step
 * fills that step's normal of every path with the same fill, then steps
 * and observes every path, leaves f(X_0) f(X_s) in an n-float row and sums
 * it in the order of numpy's pairwise sum.  Its arithmetic is the numpy
 * loop's of that route.  With threads >= 2 a large enough call is split
 * (route_split) on POSIX threads it starts and joins itself: the paths
 * into the top subtrees of that pairwise sum, and the stream's normals
 * into ranges that helpers fill speculatively from the lowest word their
 * first normal can have, logging their multi-word draws, so that the
 * caller keeps a helper's normals from the first that starts where the
 * range before ended (two ziggurat parses that meet stay together); the
 * sums, states and row state are those of one thread, bit for bit.
 * split_fill_probe runs one such split of a fill, for the tests.
 *
 * The entry points come in two paths that give the same bits:
 *  - portable (philox_normal_fill_portable, euler_rows_portable,
 *    autocorr_steps_portable, split_fill_probe_portable): two counter
 *    blocks per Philox call so that the two dependent 10-round chains
 *    overlap, one ziggurat word at a time, four rows stepped together in
 *    scalar arithmetic, one path at a time in autocorr_steps;
 *  - avx512 (x86-64 only, compiled for avx512f and avx512dq by target
 *    attributes, so the build flags stay the same): a segment's 16 blocks
 *    are two 8-lane Philox runs, one block per 64-bit lane, each 64x64 ->
 *    128-bit product built from four 32x32 -> 64-bit ones (a segment of
 *    at most 4 blocks, the end of a row's fill, takes the portable path's
 *    pairs instead of a run of 8); the ziggurat fast path takes 8 words
 *    per step, its table lookups gathered, up to the first word it does
 *    not accept; and the Euler step moves 8 rows
 *    in one vector, with lane masks in place of the scalar path's
 *    branches (sup_abs, the blow-up check, spare and failed rows), two
 *    vectors (16 rows) to a group, so that their step chains overlap;
 *    each 8-step tile of a vector's normals is transposed in registers,
 *    so that the vector holds one step of its 8 rows; autocorr_steps
 *    steps 8 paths per vector and keeps a pairwise leaf's 8 accumulators
 *    in one vector.
 * Both paths take a word their fast path does not accept through the same
 * scalar wedge and tail code.
 * philox_normal_fill, euler_rows, autocorr_steps and split_fill_probe take
 * the avx512 path when the CPU has both extensions, checked once when the
 * library is loaded, and the portable path otherwise; native_path names
 * the one picked.
 *
 * antiderivative_eval answers the queries of quadrature.Antiderivative:
 * per point a clip, the panel np.searchsorted would give, and the panel's
 * degree-7 Legendre series in the association order of numpy's legval.
 * It has one plain path and no routing.
 */
#define _GNU_SOURCE /* sched_getcpu, CPU_CLR and pthread_attr_setaffinity_np */
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__x86_64__)
#include <immintrin.h>
#define AVX512 __attribute__((target("avx512f,avx512dq")))
#endif

typedef struct {
    uint64_t ctr[4], key[2], buf[4], pos;
} row_state;

_Static_assert(sizeof(row_state) == 11 * sizeof(uint64_t),
               "row_state must be _STATE_WORDS (11) uint64 words");

#define SEG_BLOCKS 16 /* Philox blocks per segment; even, blocks go in pairs */
#define SEG_WORDS (4 * SEG_BLOCKS)
#define RABS_END (1ULL << 52)

/* numpy's ziggurat tables (numpy/random/src/distributions/ziggurat_constants.h) */
extern const uint64_t ki_double[256];
extern const double wi_double[256];
extern const double fi_double[256];

/* numpy's ziggurat_nor_r and ziggurat_nor_inv_r */
#define ZIGGURAT_NOR_R 3.6541528853610087963519472518
#define ZIGGURAT_NOR_INV_R 0.27366123732975827203338247596

/* ---------------------------------------------------------------- Philox */

#define PHILOX_M0 0xD2E7470EE14C6C93ULL
#define PHILOX_M1 0xCA5A826395121157ULL
#define PHILOX_W0 0x9E3779B97F4A7C15ULL
#define PHILOX_W1 0xBB67AE8584CAA73BULL

#define PHILOX_ROUND(c, k0, k1)                                          \
    do {                                                                 \
        __uint128_t p0_ = (__uint128_t)PHILOX_M0 * c[0];                 \
        __uint128_t p1_ = (__uint128_t)PHILOX_M1 * c[2];                 \
        c[0] = (uint64_t)(p1_ >> 64) ^ c[1] ^ (k0);                      \
        c[1] = (uint64_t)p1_;                                            \
        c[2] = (uint64_t)(p0_ >> 64) ^ c[3] ^ (k1);                      \
        c[3] = (uint64_t)p0_;                                            \
    } while (0)

/* numpy's counter increment: 256-bit, with carry */
static inline void ctr_inc(uint64_t c[4])
{
    if (++c[0] == 0 && ++c[1] == 0 && ++c[2] == 0)
        ++c[3];
}

/* c = base + k, 256-bit */
static inline void ctr_add(uint64_t c[4], const uint64_t base[4], uint64_t k)
{
    c[0] = base[0] + k;
    uint64_t carry = c[0] < k;
    for (int i = 1; i < 4; i++) {
        c[i] = base[i] + carry;
        carry = carry && c[i] == 0;
    }
}

/* The block of counter ctr into out[0..4). */
static inline void philox_block(const uint64_t ctr[4], const uint64_t key[2], uint64_t *out)
{
    uint64_t c[4], k0 = key[0], k1 = key[1];
    memcpy(c, ctr, sizeof c);
    for (int round = 0; round < 10; round++) {
        PHILOX_ROUND(c, k0, k1);
        k0 += PHILOX_W0;
        k1 += PHILOX_W1;
    }
    memcpy(out, c, sizeof c);
}

/* The blocks of counters ca and cb into out[0..8), their rounds interleaved. */
static inline void philox_pair(const uint64_t ca[4], const uint64_t cb[4],
                               const uint64_t key[2], uint64_t *out)
{
    uint64_t a[4], b[4], k0 = key[0], k1 = key[1];
    memcpy(a, ca, sizeof a);
    memcpy(b, cb, sizeof b);
    for (int round = 0; round < 10; round++) {
        PHILOX_ROUND(a, k0, k1);
        PHILOX_ROUND(b, k0, k1);
        k0 += PHILOX_W0;
        k1 += PHILOX_W1;
    }
    memcpy(out, a, sizeof a);
    memcpy(out + 4, b, sizeof b);
}

/* numpy's philox_next64 on a row state */
static uint64_t next64(row_state *r)
{
    if (r->pos < 4)
        return r->buf[r->pos++];
    ctr_inc(r->ctr);
    philox_block(r->ctr, r->key, r->buf);
    r->pos = 1;
    return r->buf[0];
}

/* numpy's next_double of word w: 53 bits in [0, 1) */
static inline double uniform(uint64_t w)
{
    return (w >> 11) * (1.0 / 9007199254740992.0);
}

/* ------------------------------------------------------------- ziggurat */

/* The fast-path normal of word w into *x (always written); 1 if accepted. */
static inline int ziggurat_fast(uint64_t w, double *x)
{
    unsigned idx = w & 0xff;
    uint64_t rabs = (w >> 9) & (RABS_END - 1);
    double v = (double)(int64_t)rabs * wi_double[idx];
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    bits ^= ((w >> 8) & 1) << 63;
    memcpy(x, &bits, sizeof bits);
    return rabs < ki_double[idx];
}

/* The next word of a fill: word *s of the segment seg[0..n), then, once *s
 * is past n, the next word of r, which stands after the segment. */
static inline uint64_t next_word(const uint64_t *seg, int *s, int n, row_state *r)
{
    return (*s)++ < n ? seg[*s - 1] : next64(r);
}

/* numpy's random_standard_normal from its first word w on, which the fast
 * path did not accept, with x the fast path's value of w; further words
 * come from next_word. */
static double ziggurat_slow(uint64_t w, double x, const uint64_t *seg, int *s, int n,
                            row_state *r)
{
    for (;;) {
        unsigned idx = w & 0xff;
        if (idx == 0) {
            /* the tail: its sign is bit 8 of rabs, not the word's sign bit */
            uint64_t rabs = (w >> 9) & (RABS_END - 1);
            for (;;) {
                double xx = -ZIGGURAT_NOR_INV_R * log1p(-uniform(next_word(seg, s, n, r)));
                double yy = -log1p(-uniform(next_word(seg, s, n, r)));
                if (yy + yy > xx * xx)
                    return (rabs >> 8) & 1 ? -(ZIGGURAT_NOR_R + xx) : ZIGGURAT_NOR_R + xx;
            }
        }
        double u = uniform(next_word(seg, s, n, r));
        if ((fi_double[idx - 1] - fi_double[idx]) * u + fi_double[idx] < exp(-0.5 * x * x))
            return x;
        /* a wedge reject: start over with the next word */
        w = next_word(seg, s, n, r);
        if (ziggurat_fast(w, &x))
            return x;
    }
}

/* ----------------------------------------------------------------- fill */

/* The n_blocks (even, at most SEG_BLOCKS) Philox blocks after counter base
 * into seg; a path may write up to SEG_WORDS words. */
typedef void segment_fn(const uint64_t base[4], const uint64_t key[2], int n_blocks,
                        uint64_t *seg);

/* The fast-path normals of words w[0..m) into o[0..m), up to and including
 * the first word the fast path does not accept; returns how many it
 * accepted (m if all). */
typedef int accept_fn(const uint64_t *w, int m, double *o);

static inline void segment_portable(const uint64_t base[4], const uint64_t key[2],
                                    int n_blocks, uint64_t *seg)
{
    uint64_t ca[4], cb[4];
    memcpy(cb, base, sizeof cb);
    for (int blk = 0; blk < n_blocks; blk += 2) {
        ctr_inc(cb);
        memcpy(ca, cb, sizeof ca);
        ctr_inc(cb);
        philox_pair(ca, cb, key, seg + 4 * blk);
    }
}

static inline int accept_portable(const uint64_t *w, int m, double *o)
{
    int k = 0;
    while (k < m && ziggurat_fast(w[k], o + k))
        k++;
    return k;
}

/* Point r at word s of the segment that follows counter base. */
static void point_at(row_state *r, const uint64_t base[4], const uint64_t *seg, int s)
{
    ctr_add(r->ctr, base, (uint64_t)(s / 4) + 1);
    memcpy(r->buf, seg + 4 * (s / 4), sizeof r->buf);
    r->pos = (uint64_t)(s % 4);
}

/* The multi-word draws of a logged fill: normal idx[e] took 1 + extra[e]
 * words, in the order of idx, normal i of a fill being normal base + i; a
 * fill stops once len reaches cap. */
typedef struct {
    int64_t *idx, *extra;
    int64_t len, cap, base;
} draw_log;

/* Log normal i's extra words, if any; 0 once the log is full. */
static inline int log_draw(draw_log *log, int64_t i, int64_t extra)
{
    if (extra > 0) {
        log->idx[log->len] = log->base + i;
        log->extra[log->len] = extra;
        log->len++;
    }
    return log->len < log->cap;
}

/* The next width normals of the stream in r into o, a path's segments and
 * fast-path words coming from segment and accept; returns width.  With a
 * log, every slow draw's extra words are logged, and the fill stops after
 * the draw that fills the log, returning the normals made so far and
 * leaving r undefined. */
static inline __attribute__((always_inline)) int64_t
fill_row(row_state *r, double *o, int64_t width, segment_fn *segment, accept_fn *accept,
         draw_log *log)
{
    uint64_t seg[SEG_WORDS];
    int64_t i = 0;
    while (i < width) {
        if (r->pos < 4) {
            /* a buffered word; a slow draw's further words come from r */
            uint64_t w = r->buf[r->pos++];
            if (!ziggurat_fast(w, o + i)) {
                int extra = 0;
                o[i] = ziggurat_slow(w, o[i], NULL, &extra, 0, r);
                if (log && !log_draw(log, i, extra))
                    return i + 1;
            }
            i++;
            continue;
        }
        /* the buffer is empty: generate a segment after r->ctr */
        uint64_t base[4];
        memcpy(base, r->ctr, sizeof base);
        int64_t need = (width - i + 3) / 4;
        int n_blocks = need >= SEG_BLOCKS ? SEG_BLOCKS : (int)((need + 1) & ~1);
        segment(base, r->key, n_blocks, seg);
        int n_words = 4 * n_blocks, s = 0;
        /* r stands after the segment, where a slow draw goes on past its end */
        point_at(r, base, seg, n_words - 1), r->pos = 4;
        while (s < n_words && i < width) {
            /* accepted words up to the first slow one, the segment's end
             * or the row's end */
            int m = n_words - s < width - i ? n_words - s : (int)(width - i);
            int k = accept(seg + s, m, o + i);
            s += k, i += k;
            if (k == m)
                break;
            int start = s;
            uint64_t w = seg[s++];
            o[i] = ziggurat_slow(w, o[i], seg, &s, n_words, r);
            if (log && !log_draw(log, i, s - start - 1))
                return i + 1;
            i++;
        }
        /* s >= n_words: r stands after the segment, or after the last word
         * a slow draw took past it (numpy's state: a used-up block, pos 4) */
        if (s < n_words)
            point_at(r, base, seg, s - 1), r->pos++;
    }
    return width;
}

/* Fill row j of the C-contiguous (n_rows, width) array out from rows[j]. */
void philox_normal_fill_portable(row_state *rows, int64_t n_rows, double *out, int64_t width)
{
    for (int64_t j = 0; j < n_rows; j++)
        fill_row(rows + j, out + j * width, width, segment_portable, accept_portable, NULL);
}

#if defined(__x86_64__)

/* The 64x64 -> 128-bit products a * m of each lane: the low words returned,
 * the high words into *hi; m_hi holds m >> 32.  The 32-bit shifts are
 * dword shuffles (0xB1 swaps the halves of each 64-bit lane; a zero mask
 * on the odd or even dwords makes it a right or left shift), which run on
 * another port than the multiplies. */
AVX512 static inline __m512i mul128(__m512i a, __m512i m, __m512i m_hi, __m512i *hi)
{
    const __mmask16 even = 0x5555, odd = 0xAAAA;
    __m512i a_hi = _mm512_shuffle_epi32(a, 0xB1); /* junk high half: mul_epu32 skips it */
    __m512i ll = _mm512_mul_epu32(a, m);
    __m512i lh = _mm512_mul_epu32(a, m_hi);
    __m512i hl = _mm512_mul_epu32(a_hi, m);
    __m512i hh = _mm512_mul_epu32(a_hi, m_hi);
    /* neither sum can carry out of 64 bits */
    __m512i t = _mm512_add_epi64(hl, _mm512_maskz_shuffle_epi32(even, ll, 0xB1));
    __m512i u = _mm512_add_epi64(lh, _mm512_maskz_mov_epi32(even, t));
    *hi = _mm512_add_epi64(_mm512_add_epi64(hh, _mm512_maskz_shuffle_epi32(even, t, 0xB1)),
                           _mm512_maskz_shuffle_epi32(even, u, 0xB1));
    /* (u << 32) | (ll & low32) */
    return _mm512_mask_blend_epi32(odd, ll, _mm512_shuffle_epi32(u, 0xB1));
}

/* Word i of the 8 blocks after counter base + first, one block per lane,
 * into c[i]: the counters of those blocks before the rounds. */
AVX512 static inline __attribute__((always_inline)) void
counters8(const uint64_t base[4], uint64_t first, __m512i c[4])
{
    const __m512i one = _mm512_set1_epi64(1);
    const __m512i inc = _mm512_add_epi64(_mm512_set1_epi64((long long)(first + 1)),
                                         _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
    c[0] = _mm512_add_epi64(_mm512_set1_epi64((long long)base[0]), inc);
    __mmask8 carry = _mm512_cmplt_epu64_mask(c[0], inc);
    for (int i = 1; i < 4; i++) {
        const __m512i b = _mm512_set1_epi64((long long)base[i]);
        c[i] = _mm512_mask_add_epi64(b, carry, b, one);
        carry &= _mm512_cmpeq_epi64_mask(c[i], _mm512_setzero_si512());
    }
}

/* runs (1 or 2) 8-lane Philox runs, their rounds interleaved: blocks
 * [0, 8 * runs) after counter base into seg, in stream order. */
AVX512 static inline __attribute__((always_inline)) void
philox8(const uint64_t base[4], const uint64_t key[2], int runs, uint64_t *seg)
{
    const __m512i m0 = _mm512_set1_epi64((long long)PHILOX_M0);
    const __m512i m0_hi = _mm512_set1_epi64((long long)(PHILOX_M0 >> 32));
    const __m512i m1 = _mm512_set1_epi64((long long)PHILOX_M1);
    const __m512i m1_hi = _mm512_set1_epi64((long long)(PHILOX_M1 >> 32));
    __m512i c[2][4];
    for (int v = 0; v < runs; v++)
        counters8(base, 8 * (uint64_t)v, c[v]);
    __m512i k0 = _mm512_set1_epi64((long long)key[0]);
    __m512i k1 = _mm512_set1_epi64((long long)key[1]);
    for (int round = 0; round < 10; round++) {
        for (int v = 0; v < runs; v++) {
            __m512i hi0, hi1;
            __m512i lo0 = mul128(c[v][0], m0, m0_hi, &hi0);
            __m512i lo1 = mul128(c[v][2], m1, m1_hi, &hi1);
            c[v][0] = _mm512_ternarylogic_epi64(hi1, c[v][1], k0, 0x96); /* xor of three */
            c[v][1] = lo1;
            c[v][2] = _mm512_ternarylogic_epi64(hi0, c[v][3], k1, 0x96);
            c[v][3] = lo0;
        }
        k0 = _mm512_add_epi64(k0, _mm512_set1_epi64((long long)PHILOX_W0));
        k1 = _mm512_add_epi64(k1, _mm512_set1_epi64((long long)PHILOX_W1));
    }
    /* lanes are blocks and vectors words: transpose to 4 words per block */
    const __m512i pair_lo = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
    const __m512i pair_hi = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
    const __m512i quad_lo = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
    const __m512i quad_hi = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
    for (int v = 0; v < runs; v++) {
        uint64_t *out = seg + 32 * v;
        __m512i w01_lo = _mm512_permutex2var_epi64(c[v][0], pair_lo, c[v][1]);
        __m512i w01_hi = _mm512_permutex2var_epi64(c[v][0], pair_hi, c[v][1]);
        __m512i w23_lo = _mm512_permutex2var_epi64(c[v][2], pair_lo, c[v][3]);
        __m512i w23_hi = _mm512_permutex2var_epi64(c[v][2], pair_hi, c[v][3]);
        _mm512_storeu_si512(out, _mm512_permutex2var_epi64(w01_lo, quad_lo, w23_lo));
        _mm512_storeu_si512(out + 8, _mm512_permutex2var_epi64(w01_lo, quad_hi, w23_lo));
        _mm512_storeu_si512(out + 16, _mm512_permutex2var_epi64(w01_hi, quad_lo, w23_hi));
        _mm512_storeu_si512(out + 24, _mm512_permutex2var_epi64(w01_hi, quad_hi, w23_hi));
    }
}

/* segment_fn: both 8-block runs, or the first alone when it covers n_blocks;
 * up to 4 blocks, the last few a row's fill needs, take scalar pairs, which
 * cost less than a run's 8 blocks */
AVX512 static void segment_avx512(const uint64_t base[4], const uint64_t key[2], int n_blocks,
                                  uint64_t *seg)
{
    if (n_blocks > 8)
        philox8(base, key, 2, seg);
    else if (n_blocks > 4)
        philox8(base, key, 1, seg);
    else
        segment_portable(base, key, n_blocks, seg);
}

/* accept_fn, 8 words per step: ziggurat_fast's arithmetic on each lane */
AVX512 static int accept_avx512(const uint64_t *w, int m, double *o)
{
    const __m512i low_byte = _mm512_set1_epi64(0xff);
    const __m512i rabs_mask = _mm512_set1_epi64((long long)(RABS_END - 1));
    const __m512i sign = _mm512_set1_epi64((long long)(1ULL << 63));
    for (int k = 0; k < m; k += 8) {
        __mmask8 live = m - k >= 8 ? 0xff : (__mmask8)((1u << (m - k)) - 1);
        __m512i word = _mm512_maskz_loadu_epi64(live, w + k);
        __m512i idx = _mm512_and_si512(word, low_byte);
        __m512i rabs = _mm512_and_si512(_mm512_srli_epi64(word, 9), rabs_mask);
        __m512i kis = _mm512_i64gather_epi64(idx, (const void *)ki_double, 8);
        __m512d wis = _mm512_i64gather_pd(idx, (const void *)wi_double, 8);
        __m512d v = _mm512_mul_pd(_mm512_cvtepi64_pd(rabs), wis);
        /* v's bits ^ (bit 8 of the word, moved to the sign bit) */
        __m512i x = _mm512_ternarylogic_epi64(_mm512_castpd_si512(v),
                                              _mm512_slli_epi64(word, 55), sign, 0x78);
        _mm512_mask_storeu_pd(o + k, live, _mm512_castsi512_pd(x));
        __mmask8 ok = _mm512_mask_cmplt_epu64_mask(live, rabs, kis);
        if (ok != live)
            return k + __builtin_ctz(~(unsigned)ok);
    }
    return m;
}

AVX512 void philox_normal_fill_avx512(row_state *rows, int64_t n_rows, double *out,
                                      int64_t width)
{
    for (int64_t j = 0; j < n_rows; j++)
        fill_row(rows + j, out + j * width, width, segment_avx512, accept_avx512, NULL);
}

#endif /* __x86_64__ */

/* ---------------------------------------------------------------- Euler */

/* coefficient kinds; euler.py's _DRIFT_KINDS and _DIFFUSION_KINDS */
enum { DRIFT_OU, DRIFT_CIR, DRIFT_POLY };
enum { DIFFUSION_CONSTANT, DIFFUSION_CIR, DIFFUSION_POLY };

/* The model, functional and schedule of one batch; euler.py's _EulerSpec. */
typedef struct {
    int64_t drift_kind, diffusion_kind;
    int64_t n_drift, n_diffusion, n_f; /* parameter counts */
    const double *drift;     /* OU, CIR: (kappa, mu); polynomial: coefficients */
    const double *diffusion; /* constant, CIR: (sigma); polynomial: coefficients */
    const double *f;         /* polynomial coefficients of the functional */
    double f_c0, x0, h, sqrt_h, dt, blow_up;
    int64_t n_steps;
    const double *control; /* NULL, or ctrl_coef * psi(k * dt) for each step k */
} euler_spec;

#define GROUP 4  /* rows stepped together on the portable path */
#define SEG 256  /* steps of normals filled per row at a time */

/* numpy's polyval: c[n-1] + x*0, then c[i] + y*x */
static inline double polyval(const double *c, int64_t n, double x)
{
    double y = c[n - 1] + x * 0.0;
    for (int64_t i = n - 2; i >= 0; i--)
        y = c[i] + y * x;
    return y;
}

static inline __attribute__((always_inline)) double
drift(const euler_spec *m, int kind, double x)
{
    switch (kind) {
    case DRIFT_OU:
        return (-m->drift[0]) * (x - m->drift[1]);
    case DRIFT_CIR:
        return m->drift[0] * (m->drift[1] - x);
    default:
        return polyval(m->drift, m->n_drift, x);
    }
}

static inline __attribute__((always_inline)) double
diffusion(const euler_spec *m, int kind, double x)
{
    switch (kind) {
    case DIFFUSION_CONSTANT:
        return m->diffusion[0];
    case DIFFUSION_CIR:
        /* numpy's maximum(x, 0.0): NaN stays, -0.0 becomes 0.0 */
        return m->diffusion[0] * sqrt(!(x <= 0.0) ? x : 0.0);
    default:
        return polyval(m->diffusion, m->n_diffusion, x);
    }
}

/* Rows [0, n) of a group, n <= GROUP; spare lanes step zero noise, unread. */
static inline __attribute__((always_inline)) void
step_group(const euler_spec *m, int dk, int sk, row_state *rows, int n,
           double *xi_c, double *xi_r, double *sup_abs, double *terminal, int64_t *fail_step)
{
    double noise[GROUP][SEG];
    double z[GROUP], fp[GROUP], xc[GROUP], xr[GROUP], sup[GROUP];
    int64_t fail[GROUP];
    const double h = m->h, sqrt_h = m->sqrt_h, dt = m->dt, blow_up = m->blow_up;
    const double f0 = polyval(m->f, m->n_f, m->x0) - m->f_c0;
    for (int r = 0; r < GROUP; r++) {
        /* a spare lane counts as failed from the start */
        z[r] = m->x0, fp[r] = f0, xc[r] = xr[r] = sup[r] = 0.0, fail[r] = r < n ? -1 : 0;
        if (r >= n)
            memset(noise[r], 0, sizeof noise[r]);
    }
    int alive = n;
    for (int64_t k0 = 0; k0 < m->n_steps && alive; k0 += SEG) {
        int width = m->n_steps - k0 < SEG ? (int)(m->n_steps - k0) : SEG;
        for (int r = 0; r < n; r++)
            if (fail[r] < 0)
                fill_row(rows + r, noise[r], width, segment_portable, accept_portable, NULL);
        for (int k = 0; k < width; k++) {
            const double c = m->control ? m->control[k0 + k] : 0.0;
            for (int r = 0; r < GROUP; r++) {
                double x = z[r];
                double s = diffusion(m, sk, x);
                double x1 = (x + h * drift(m, dk, x)) + (sqrt_h * s) * noise[r][k];
                if (m->control)
                    x1 = x1 + c * s;
                double f1 = polyval(m->f, m->n_f, x1) - m->f_c0;
                xr[r] = xr[r] + fp[r] * dt;
                xc[r] = xc[r] + 0.5 * (fp[r] + f1) * dt;
                double a = fabs(xc[r]);
                if (!(a <= sup[r])) /* numpy's maximum: a NaN wins */
                    sup[r] = a;
                fp[r] = f1;
                z[r] = x1;
                if (!(fabs(x1) <= blow_up) && fail[r] < 0)
                    fail[r] = k0 + k + 1, alive--;
            }
        }
    }
    for (int r = 0; r < n; r++) {
        int ok = fail[r] < 0;
        xi_c[r] = ok ? xc[r] : NAN;
        xi_r[r] = ok ? xr[r] : NAN;
        sup_abs[r] = ok ? sup[r] : NAN;
        terminal[r] = ok ? z[r] : NAN;
        fail_step[r] = fail[r];
    }
}

static inline __attribute__((always_inline)) void
run_rows(const euler_spec *m, int dk, int sk, row_state *rows, int64_t n_rows,
         double *xi_c, double *xi_r, double *sup_abs, double *terminal, int64_t *fail_step)
{
    for (int64_t j = 0; j < n_rows; j += GROUP) {
        int n = n_rows - j < GROUP ? (int)(n_rows - j) : GROUP;
        step_group(m, dk, sk, rows + j, n, xi_c + j, xi_r + j, sup_abs + j,
                   terminal + j, fail_step + j);
    }
}

/* run(dk, sk) for the batch's kind pair, each pair compiled on its own */
#define SWITCH_KINDS(run)                                                          \
    switch (m->drift_kind * 3 + m->diffusion_kind) {                               \
    case DRIFT_OU * 3 + DIFFUSION_CONSTANT: run(DRIFT_OU, DIFFUSION_CONSTANT); break; \
    case DRIFT_OU * 3 + DIFFUSION_CIR: run(DRIFT_OU, DIFFUSION_CIR); break;           \
    case DRIFT_OU * 3 + DIFFUSION_POLY: run(DRIFT_OU, DIFFUSION_POLY); break;         \
    case DRIFT_CIR * 3 + DIFFUSION_CONSTANT: run(DRIFT_CIR, DIFFUSION_CONSTANT); break; \
    case DRIFT_CIR * 3 + DIFFUSION_CIR: run(DRIFT_CIR, DIFFUSION_CIR); break;         \
    case DRIFT_CIR * 3 + DIFFUSION_POLY: run(DRIFT_CIR, DIFFUSION_POLY); break;       \
    case DRIFT_POLY * 3 + DIFFUSION_CONSTANT: run(DRIFT_POLY, DIFFUSION_CONSTANT); break; \
    case DRIFT_POLY * 3 + DIFFUSION_CIR: run(DRIFT_POLY, DIFFUSION_CIR); break;       \
    case DRIFT_POLY * 3 + DIFFUSION_POLY: run(DRIFT_POLY, DIFFUSION_POLY); break;     \
    }

/* Step rows[0, n_rows) from x0 through m->n_steps Euler steps, each row on
 * its own stream, and write the path functionals of row j to element j of
 * the outputs.  A row stops at the first step after which |Z| <= blow_up
 * fails (NaN included): fail_step is that step's number, counted from 1,
 * and its other outputs are NaN.  fail_step is -1 for a row that never
 * fails. */
void euler_rows_portable(const euler_spec *m, row_state *rows, int64_t n_rows, double *xi_c,
                         double *xi_r, double *sup_abs, double *terminal, int64_t *fail_step)
{
#define RUN(dk, sk) run_rows(m, dk, sk, rows, n_rows, xi_c, xi_r, sup_abs, terminal, fail_step)
    SWITCH_KINDS(RUN)
#undef RUN
}

/* ------------------------------------------------------- autocorrelation */

#define PW_BLOCK 128 /* numpy's PW_BLOCKSIZE: the largest leaf of its pairwise sum */

/* numpy's pairwise sum of a[0..n) (pairwise_sum in
 * numpy/_core/src/umath/loops_utils.h.src): below 8 a running sum from
 * -0.0; up to PW_BLOCK, 8 accumulators over whole 8-blocks, combined as
 * ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest one at a time; above,
 * the sums of both halves, split at n/2 rounded down to a multiple of 8.
 * np.sum(a) is 0.0 plus this sum. */
static double pairwise_portable(const double *a, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= PW_BLOCK) {
        double r[8];
        int64_t i;
        memcpy(r, a, sizeof r);
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_portable(a, n2) + pairwise_portable(a + n2, n - n2);
}

/* One step of paths [lo, hi) of the route: y[i] steps with
 * (y + h*b) + (sqrt_h*s)*xi[i - lo], fs = f(y[i]), acc[i] += w*fs and
 * prod[i] = f0[i]*fs; xi may be prod + lo.  Returns whether some
 * |y[i]| <= m->blow_up fails (NaN included). */
static inline __attribute__((always_inline)) int
step_paths(const euler_spec *m, int dk, int sk, int64_t lo, int64_t hi, const double *xi,
           double w, double *y, const double *f0, double *acc, double *prod)
{
    const double h = m->h, sqrt_h = m->sqrt_h, blow_up = m->blow_up;
    int bad = 0;
    for (int64_t i = lo; i < hi; i++) {
        double x = y[i];
        double x1 = (x + h * drift(m, dk, x)) + (sqrt_h * diffusion(m, sk, x)) * xi[i - lo];
        double fs = polyval(m->f, m->n_f, x1) - m->f_c0;
        acc[i] = acc[i] + w * fs; /* 1.0 * fs is fs */
        prod[i] = f0[i] * fs;
        y[i] = x1;
        bad |= !(fabs(x1) <= blow_up);
    }
    return bad;
}

/* A path's kernels of the route, the kind pair switched once per call */
typedef int64_t route_fill_fn(row_state *, double *, int64_t, draw_log *);
typedef int route_step_fn(const euler_spec *, int64_t, int64_t, const double *, double, double *,
                          const double *, double *, double *);
typedef struct {
    route_fill_fn *fill;
    route_step_fn *step;
    double (*sum)(const double *, int64_t);
} route_ops;

static int64_t fill_portable(row_state *r, double *o, int64_t width, draw_log *log)
{
    if (!log)
        return fill_row(r, o, width, segment_portable, accept_portable, NULL);
    return fill_row(r, o, width, segment_portable, accept_portable, log);
}

static int step_portable(const euler_spec *m, int64_t lo, int64_t hi, const double *xi, double w,
                         double *y, const double *f0, double *acc, double *prod)
{
#define RUN(dk, sk) return step_paths(m, dk, sk, lo, hi, xi, w, y, f0, acc, prod)
    SWITCH_KINDS(RUN)
#undef RUN
    return 0; /* not reached: euler.py passes only the kinds above */
}

static const route_ops ops_portable = {fill_portable, step_portable, pairwise_portable};

#if defined(__x86_64__)

#define LANES 8 /* rows per vector */
#define VECS 2  /* vectors of rows stepped together in a full group */

/* polyval, lane by lane */
AVX512 static inline __attribute__((always_inline)) __m512d
polyval8(const double *c, int64_t n, __m512d x)
{
    __m512d y = _mm512_add_pd(_mm512_set1_pd(c[n - 1]), _mm512_mul_pd(x, _mm512_setzero_pd()));
    for (int64_t i = n - 2; i >= 0; i--)
        y = _mm512_add_pd(_mm512_set1_pd(c[i]), _mm512_mul_pd(y, x));
    return y;
}

AVX512 static inline __attribute__((always_inline)) __m512d
drift8(const euler_spec *m, int kind, __m512d x)
{
    switch (kind) {
    case DRIFT_OU:
        return _mm512_mul_pd(_mm512_set1_pd(-m->drift[0]),
                             _mm512_sub_pd(x, _mm512_set1_pd(m->drift[1])));
    case DRIFT_CIR:
        return _mm512_mul_pd(_mm512_set1_pd(m->drift[0]),
                             _mm512_sub_pd(_mm512_set1_pd(m->drift[1]), x));
    default:
        return polyval8(m->drift, m->n_drift, x);
    }
}

AVX512 static inline __attribute__((always_inline)) __m512d
diffusion8(const euler_spec *m, int kind, __m512d x)
{
    switch (kind) {
    case DIFFUSION_CONSTANT:
        return _mm512_set1_pd(m->diffusion[0]);
    case DIFFUSION_CIR: {
        /* x where !(x <= 0.0), else 0.0: NaN stays, -0.0 becomes 0.0 */
        __mmask8 clamp = _mm512_cmp_pd_mask(x, _mm512_setzero_pd(), _CMP_LE_OQ);
        x = _mm512_mask_mov_pd(x, clamp, _mm512_setzero_pd());
        return _mm512_mul_pd(_mm512_set1_pd(m->diffusion[0]), _mm512_sqrt_pd(x));
    }
    default:
        return polyval8(m->diffusion, m->n_diffusion, x);
    }
}

/* Columns k .. k+7 of 8 rows SEG doubles apart, one column per vector. */
AVX512 static inline __attribute__((always_inline)) void
transpose8(const double *rows, __m512d col[LANES])
{
    const __m512i pair_lo = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
    const __m512i pair_hi = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
    __m512d p[LANES], q[LANES];
    for (int r = 0; r < LANES; r += 2) {
        __m512d a = _mm512_load_pd(rows + r * SEG), b = _mm512_load_pd(rows + (r + 1) * SEG);
        p[r] = _mm512_unpacklo_pd(a, b); /* rows r, r+1 of columns 0, 2, 4, 6 */
        p[r + 1] = _mm512_unpackhi_pd(a, b); /* columns 1, 3, 5, 7 */
    }
    for (int r = 0; r < LANES; r += 4)
        for (int j = 0; j < 2; j++) {
            /* rows r .. r+3 of columns j, 4+j and of columns 2+j, 6+j */
            q[r + j] = _mm512_permutex2var_pd(p[r + j], pair_lo, p[r + 2 + j]);
            q[r + 2 + j] = _mm512_permutex2var_pd(p[r + j], pair_hi, p[r + 2 + j]);
        }
    for (int j = 0; j < 4; j++) {
        col[j] = _mm512_shuffle_f64x2(q[j], q[4 + j], 0x44);
        col[4 + j] = _mm512_shuffle_f64x2(q[j], q[4 + j], 0xEE);
    }
}

/* step_group on rows [0, n) of a group of v vectors, n <= v * LANES, lane r
 * of vector q holding row q * LANES + r, so that the vectors' dependency
 * chains interleave; spare and failed lanes are masked out of the blow-up
 * check and the outputs. */
AVX512 static inline __attribute__((always_inline)) void
step_group8(const euler_spec *m, int dk, int sk, int v, row_state *rows, int n,
            double *xi_c, double *xi_r, double *sup_abs, double *terminal, int64_t *fail_step)
{
    _Alignas(64) double noise[VECS * LANES][SEG];
    const __m512d h = _mm512_set1_pd(m->h), sqrt_h = _mm512_set1_pd(m->sqrt_h);
    const __m512d dt = _mm512_set1_pd(m->dt), blow_up = _mm512_set1_pd(m->blow_up);
    const __m512d half = _mm512_set1_pd(0.5), f_c0 = _mm512_set1_pd(m->f_c0);
    /* bit r: row r, lane r % LANES of vector r / LANES */
    const unsigned rows_in = (1u << n) - 1;
    unsigned alive = rows_in;
    __m512i fail[VECS];
    __m512d z[VECS], fp[VECS], xc[VECS], xr[VECS], sup[VECS];
    for (int q = 0; q < v; q++) {
        /* a spare lane counts as failed from the start */
        fail[q] = _mm512_mask_mov_epi64(_mm512_setzero_si512(), (__mmask8)(rows_in >> q * LANES),
                                        _mm512_set1_epi64(-1));
        z[q] = _mm512_set1_pd(m->x0);
        fp[q] = _mm512_set1_pd(polyval(m->f, m->n_f, m->x0) - m->f_c0);
        xc[q] = xr[q] = sup[q] = _mm512_setzero_pd();
    }
    /* spare rows step zero noise; a tile past width reads defined columns */
    memset(noise, 0, sizeof noise[0] * LANES * v);
    for (int64_t k0 = 0; k0 < m->n_steps && alive; k0 += SEG) {
        int width = m->n_steps - k0 < SEG ? (int)(m->n_steps - k0) : SEG;
        for (int r = 0; r < n; r++)
            if (alive >> r & 1)
                fill_row(rows + r, noise[r], width, segment_avx512, accept_avx512, NULL);
        for (int k = 0; k < width; k += LANES) {
            int cols = width - k < LANES ? width - k : LANES;
            __m512d col[VECS][LANES];
            for (int q = 0; q < v; q++)
                transpose8(&noise[q * LANES][k], col[q]);
            for (int j = 0; j < cols; j++)
                for (int q = 0; q < v; q++) {
                    __m512d x = z[q];
                    __m512d s = diffusion8(m, sk, x);
                    __m512d drifted = _mm512_add_pd(x, _mm512_mul_pd(h, drift8(m, dk, x)));
                    __m512d x1 = _mm512_add_pd(drifted,
                                               _mm512_mul_pd(_mm512_mul_pd(sqrt_h, s), col[q][j]));
                    if (m->control) {
                        __m512d c = _mm512_set1_pd(m->control[k0 + k + j]);
                        x1 = _mm512_add_pd(x1, _mm512_mul_pd(c, s));
                    }
                    __m512d f1 = _mm512_sub_pd(polyval8(m->f, m->n_f, x1), f_c0);
                    xr[q] = _mm512_add_pd(xr[q], _mm512_mul_pd(fp[q], dt));
                    __m512d mid = _mm512_mul_pd(half, _mm512_add_pd(fp[q], f1));
                    xc[q] = _mm512_add_pd(xc[q], _mm512_mul_pd(mid, dt));
                    /* sup where a <= sup, else a: numpy's maximum, a NaN wins */
                    __m512d a = _mm512_abs_pd(xc[q]);
                    sup[q] = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(a, sup[q], _CMP_LE_OQ), a,
                                                  sup[q]);
                    fp[q] = f1;
                    z[q] = x1;
                    __mmask8 kept = _mm512_cmp_pd_mask(_mm512_abs_pd(x1), blow_up, _CMP_LE_OQ);
                    __mmask8 gone = (__mmask8)(alive >> q * LANES) & ~kept;
                    fail[q] = _mm512_mask_mov_epi64(fail[q], gone,
                                                    _mm512_set1_epi64(k0 + k + j + 1));
                    alive &= ~((unsigned)gone << q * LANES);
                }
        }
    }
    const __m512d nan = _mm512_set1_pd(NAN);
    for (int q = 0; q < v; q++) {
        const __mmask8 ok = _mm512_cmplt_epi64_mask(fail[q], _mm512_setzero_si512());
        const __mmask8 in = (__mmask8)(rows_in >> q * LANES);
        const int o = q * LANES;
        _mm512_mask_storeu_pd(xi_c + o, in, _mm512_mask_blend_pd(ok, nan, xc[q]));
        _mm512_mask_storeu_pd(xi_r + o, in, _mm512_mask_blend_pd(ok, nan, xr[q]));
        _mm512_mask_storeu_pd(sup_abs + o, in, _mm512_mask_blend_pd(ok, nan, sup[q]));
        _mm512_mask_storeu_pd(terminal + o, in, _mm512_mask_blend_pd(ok, nan, z[q]));
        _mm512_mask_storeu_epi64(fail_step + o, in, fail[q]);
    }
}

/* groups of VECS vectors of rows, and one vector for the last LANES rows or
 * fewer; two call sites, so that each inlined body has v fixed */
AVX512 static inline __attribute__((always_inline)) void
run_rows8(const euler_spec *m, int dk, int sk, row_state *rows, int64_t n_rows,
          double *xi_c, double *xi_r, double *sup_abs, double *terminal, int64_t *fail_step)
{
    for (int64_t j = 0; j < n_rows;) {
        int64_t left = n_rows - j;
        int n = left < VECS * LANES ? (int)left : VECS * LANES;
        if (n > LANES)
            step_group8(m, dk, sk, VECS, rows + j, n, xi_c + j, xi_r + j, sup_abs + j,
                        terminal + j, fail_step + j);
        else
            step_group8(m, dk, sk, 1, rows + j, n, xi_c + j, xi_r + j, sup_abs + j,
                        terminal + j, fail_step + j);
        j += n;
    }
}

/* euler_rows_portable's contract and bits */
AVX512 void euler_rows_avx512(const euler_spec *m, row_state *rows, int64_t n_rows,
                              double *xi_c, double *xi_r, double *sup_abs, double *terminal,
                              int64_t *fail_step)
{
#define RUN(dk, sk) run_rows8(m, dk, sk, rows, n_rows, xi_c, xi_r, sup_abs, terminal, fail_step)
    SWITCH_KINDS(RUN)
#undef RUN
}

/* pairwise_portable's order and bits, the 8 accumulators of a leaf in one
 * vector */
AVX512 static double pairwise_avx512(const double *a, int64_t n)
{
    if (n < 8)
        return pairwise_portable(a, n);
    if (n <= PW_BLOCK) {
        __m512d acc = _mm512_loadu_pd(a);
        int64_t i;
        for (i = 8; i < n - n % 8; i += 8)
            acc = _mm512_add_pd(acc, _mm512_loadu_pd(a + i));
        double r[8];
        _mm512_storeu_pd(r, acc);
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_avx512(a, n2) + pairwise_avx512(a + n2, n - n2);
}

/* step_paths with 8 paths per vector, the last vector masked */
AVX512 static inline __attribute__((always_inline)) int
step_paths8(const euler_spec *m, int dk, int sk, int64_t lo, int64_t hi, const double *xi,
            double w, double *y, const double *f0, double *acc, double *prod)
{
    const __m512d h = _mm512_set1_pd(m->h), sqrt_h = _mm512_set1_pd(m->sqrt_h);
    const __m512d blow_up = _mm512_set1_pd(m->blow_up), f_c0 = _mm512_set1_pd(m->f_c0);
    const __m512d wv = _mm512_set1_pd(w);
    __mmask8 bad = 0;
    for (int64_t i = lo; i < hi; i += LANES) {
        const __mmask8 live = hi - i >= LANES ? 0xff : (__mmask8)((1u << (hi - i)) - 1);
        __m512d x = _mm512_maskz_loadu_pd(live, y + i);
        __m512d z = _mm512_maskz_loadu_pd(live, xi + (i - lo));
        __m512d s = diffusion8(m, sk, x);
        __m512d drifted = _mm512_add_pd(x, _mm512_mul_pd(h, drift8(m, dk, x)));
        __m512d x1 = _mm512_add_pd(drifted, _mm512_mul_pd(_mm512_mul_pd(sqrt_h, s), z));
        __m512d fs = _mm512_sub_pd(polyval8(m->f, m->n_f, x1), f_c0);
        __m512d a = _mm512_add_pd(_mm512_maskz_loadu_pd(live, acc + i), _mm512_mul_pd(wv, fs));
        __m512d g = _mm512_mul_pd(_mm512_maskz_loadu_pd(live, f0 + i), fs);
        _mm512_mask_storeu_pd(acc + i, live, a);
        _mm512_mask_storeu_pd(prod + i, live, g);
        _mm512_mask_storeu_pd(y + i, live, x1);
        bad |= live & ~_mm512_cmp_pd_mask(_mm512_abs_pd(x1), blow_up, _CMP_LE_OQ);
    }
    return bad != 0;
}

AVX512 static int64_t fill_avx512(row_state *r, double *o, int64_t width, draw_log *log)
{
    if (!log)
        return fill_row(r, o, width, segment_avx512, accept_avx512, NULL);
    return fill_row(r, o, width, segment_avx512, accept_avx512, log);
}

AVX512 static int step_avx512(const euler_spec *m, int64_t lo, int64_t hi, const double *xi,
                              double w, double *y, const double *f0, double *acc, double *prod)
{
#define RUN(dk, sk) return step_paths8(m, dk, sk, lo, hi, xi, w, y, f0, acc, prod)
    SWITCH_KINDS(RUN)
#undef RUN
    return 0;
}

static const route_ops ops_avx512 = {fill_avx512, step_avx512, pairwise_avx512};

#endif /* __x86_64__ */

/* ------------------------------------------------ running the route */

#define SPLIT_MIN_NORMALS (1 << 16) /* a call with fewer normals runs on one thread */
#define SUB_NORMALS (1 << 17)   /* normals a split call fills per sub-block, about */
#define MAX_THREADS 64
#define MAX_DEPTH 8  /* at most 2^MAX_DEPTH chunks */
#define MAX_CHUNKS (1 << MAX_DEPTH)
#define PIECE 4096   /* normals a helper fills between looks at its stop flag */

/* The paths of y[0..n) that fail |y| <= m->blow_up (NaN included). */
static int64_t count_bad(const euler_spec *m, const double *y, int64_t n)
{
    int64_t bad = 0;
    for (int64_t i = 0; i < n; i++)
        bad += !(fabs(y[i]) <= m->blow_up);
    return bad;
}

/* Steps first+1 .. first+k on one thread: each step fills its n normals
 * into prod, steps every path over them and leaves its products there,
 * and sums them into corr. */
static int64_t route_serial(const route_ops *ops, const euler_spec *m, row_state *row, int64_t n,
                            int64_t first, int64_t k, double *y, const double *f0, double *acc,
                            double *corr, double *prod, int64_t *n_bad)
{
    for (int64_t r = 0; r < k; r++) {
        const int64_t step = first + r + 1;
        ops->fill(row, prod, n, NULL);
        int bad = ops->step(m, 0, n, prod, step < m->n_steps ? 1.0 : 0.5, y, f0, acc, prod);
        corr[r] = 0.0 + ops->sum(prod, n);
        if (bad) {
            *n_bad = count_bad(m, y, n);
            return step;
        }
    }
    return -1;
}

/* Word positions count from the counter c0 of the row at a call's start:
 * word p is word p % 4 of the Philox block at counter c0 + p / 4, and that
 * row's next word is word min(pos, 4). */

/* The word r hands out next. */
static int64_t word_pos(const row_state *r, const row_state *origin)
{
    return (int64_t)(4 * (r->ctr[0] - origin->ctr[0]) + r->pos);
}

/* Point r at word p. */
static void seek(row_state *r, const row_state *origin, int64_t p)
{
    memcpy(r->key, origin->key, sizeof r->key);
    ctr_add(r->ctr, origin->ctr, (uint64_t)(p / 4));
    philox_block(r->ctr, r->key, r->buf);
    r->pos = (uint64_t)(p % 4);
}

/* numpy's state once the words before p are used: the block of word
 * p - 1, used up to it. */
static void settle(row_state *r, const row_state *origin, int64_t p)
{
    if (p == word_pos(origin, origin)) {
        *r = *origin;
        return;
    }
    seek(r, origin, p - 1);
    r->pos++;
}

/* n normals from word p into out; returns the word after them. */
static int64_t fill_at(const route_ops *ops, const row_state *origin, int64_t p, double *out,
                       int64_t n)
{
    row_state r;
    seek(&r, origin, p);
    ops->fill(&r, out, n, NULL);
    return word_pos(&r, origin);
}

/* A speculative fill: up to cap normals from word q into out, logged;
 * returns how many it made. */
static int64_t fill_logged(const route_ops *ops, const row_state *origin, int64_t q, double *out,
                           int64_t cap, draw_log *log)
{
    row_state r;
    seek(&r, origin, q);
    log->len = log->base = 0;
    return ops->fill(&r, out, cap, log);
}

/* The first word of normal j of a logged fill from word q. */
static int64_t start_of(int64_t q, const draw_log *log, int64_t j)
{
    for (int64_t e = 0; e < log->len && log->idx[e] < j; e++)
        q += log->extra[e];
    return q + j;
}

/* The normal of a logged fill of got normals from word q that starts at
 * word p, or -1 if none does. */
static int64_t match_start(int64_t q, const draw_log *log, int64_t got, int64_t p)
{
    for (int64_t e = 0, lo = 0;; e++) {
        /* normals lo .. hi start at word q + j */
        int64_t hi = e < log->len ? log->idx[e] : got - 1, j = p - q;
        if (j < lo)
            return -1; /* p is inside draw lo - 1, or before the fill */
        if (j <= hi)
            return j;
        if (e == log->len)
            return -1; /* p is past the fill */
        q += log->extra[e];
        lo = hi + 1;
    }
}

enum { MATCHED, UNMATCHED, TOPPED_UP };

/* The caller's side of a range of len normals that starts at word *p,
 * whose got normals a speculative fill from word q left in buf: from the
 * first that starts at *p, topped up from the words after them if they
 * come up short; all of the range's normals afresh if none starts there.
 * The range's normals end at buf + *off + len, and *p after them. */
static int resolve_range(const route_ops *ops, const row_state *origin, int64_t *p, int64_t q,
                         const draw_log *log, double *buf, int64_t got, int64_t len,
                         int64_t *off)
{
    int64_t j = match_start(q, log, got, *p);
    if (j < 0) {
        *off = 0;
        *p = fill_at(ops, origin, *p, buf, len);
        return UNMATCHED;
    }
    if (j + len <= got) {
        *off = j;
        *p = start_of(q, log, j + len);
        return MATCHED;
    }
    memmove(buf, buf + j, (got - j) * sizeof *buf);
    *off = 0;
    *p = fill_at(ops, origin, start_of(q, log, got), buf + got - j, len - (got - j));
    return TOPPED_UP;
}

/* ---- a split call: the caller and threads - 1 helpers */

enum { FREE, CALLER, HELPER, DONE }; /* the claim of a range */

/* One sub-block: its normals, flat index r * n + i for step r and path i,
 * in one range [g[t], g[t + 1]) per thread, a resolved range's normals at
 * buf[t] + off[t]; and its steps first + 1 .. first + ks, on chunks of
 * paths. */
typedef struct {
    int64_t start; /* the word of the sub-block's first normal */
    int64_t g[MAX_THREADS + 1], cap[MAX_THREADS], got[MAX_THREADS], off[MAX_THREADS];
    _Atomic int claim[MAX_THREADS], stop[MAX_THREADS];
    double *buf[MAX_THREADS];
    draw_log log[MAX_THREADS];
    int64_t first, ks;
    _Atomic int next_chunk, chunks_done;
    double *parts; /* (ks, n_chunks): each chunk's sum of each step */
    int64_t fail[MAX_CHUNKS], bad[MAX_CHUNKS];
} sub_block;

typedef struct {
    const route_ops *ops;
    const euler_spec *m;
    int64_t n;
    double *y, *acc, *prod;
    const double *f0;
    row_state origin;
    int threads;
    /* chunk c: paths [lo[c], lo[c + 1]), the top subtrees of numpy's
     * pairwise sum */
    int n_chunks;
    int64_t lo[MAX_CHUNKS + 1];
    /* post s (gen = s + 1) opens the fill of sub-block s in sub[s % 2] and
     * the steps of sub-block s - 1 in the other */
    sub_block sub[2];
    _Atomic int gen, exiting;
    /* the waits of the job sleep on wake, under lock */
    pthread_mutex_t lock;
    pthread_cond_t wake;
} split_job;

/* Return once *a is no longer v: sleep on the job's condition variable. */
static void wait_while(split_job *J, _Atomic int *a, int v)
{
    pthread_mutex_lock(&J->lock);
    while (atomic_load(a) == v)
        pthread_cond_wait(&J->wake, &J->lock);
    pthread_mutex_unlock(&J->lock);
}

/* Wake the job's waits after a store to what they wait on: the store comes
 * before the lock is taken, so a waiter either sees it or sleeps first. */
static void wake_all(split_job *J)
{
    pthread_mutex_lock(&J->lock);
    pthread_mutex_unlock(&J->lock);
    pthread_cond_broadcast(&J->wake);
}

/* A helper's fill: free ranges from the last down, each filled
 * speculatively, PIECE normals at a time, from the lowest word its first
 * normal can have (every normal takes a word at least), until the caller
 * stops it or claims a range first. */
static void helper_fill(split_job *J, sub_block *B)
{
    for (int t = J->threads - 1; t >= 1; t--) {
        int seen = FREE;
        if (!atomic_compare_exchange_strong_explicit(&B->claim[t], &seen, HELPER,
                                                     memory_order_acq_rel, memory_order_acquire)) {
            if (seen == CALLER)
                return;
            continue;
        }
        row_state r;
        draw_log *log = &B->log[t];
        int64_t got = 0;
        seek(&r, &J->origin, B->start + B->g[t]);
        log->len = 0;
        while (got < B->cap[t] && !atomic_load_explicit(&B->stop[t], memory_order_relaxed)) {
            int64_t want = B->cap[t] - got < PIECE ? B->cap[t] - got : PIECE;
            log->base = got;
            int64_t made = J->ops->fill(&r, B->buf[t] + got, want, log);
            got += made;
            if (made < want || log->len == log->cap)
                break; /* the log is full, perhaps on the piece's last normal */
        }
        B->got[t] = got;
        atomic_store_explicit(&B->claim[t], DONE, memory_order_release);
        wake_all(J);
    }
}

/* The caller's fill: the ranges in order from word *p, each filled afresh
 * if no helper has claimed it, else resolved once its helper has stopped
 * (at its next piece); *p ends after the sub-block's normals. */
static void caller_fill(split_job *J, sub_block *B, int64_t *p)
{
    for (int t = 0; t < J->threads; t++) {
        const int64_t len = B->g[t + 1] - B->g[t];
        int seen = FREE;
        if (atomic_compare_exchange_strong_explicit(&B->claim[t], &seen, CALLER,
                                                    memory_order_acq_rel, memory_order_acquire)) {
            B->off[t] = 0;
            *p = fill_at(J->ops, &J->origin, *p, B->buf[t], len);
            continue;
        }
        atomic_store_explicit(&B->stop[t], 1, memory_order_relaxed);
        wait_while(J, &B->claim[t], HELPER);
        resolve_range(J->ops, &J->origin, p, B->start + B->g[t], &B->log[t], B->buf[t],
                      B->got[t], len, &B->off[t]);
    }
}

/* The normals of flat indices [a, b): in place in one range, else
 * gathered into dst. */
static const double *flat_normals(const sub_block *B, int64_t a, int64_t b, double *dst)
{
    int t = 0;
    while (B->g[t + 1] <= a)
        t++;
    if (b <= B->g[t + 1])
        return B->buf[t] + B->off[t] + (a - B->g[t]);
    for (double *d = dst; a < b; t++) {
        int64_t e = b < B->g[t + 1] ? b : B->g[t + 1];
        memcpy(d, B->buf[t] + B->off[t] + (a - B->g[t]), (e - a) * sizeof *d);
        d += e - a;
        a = e;
    }
    return dst;
}

/* The steps of a sub-block, for the caller and the helpers alike: chunks
 * in turn, each stepped up to the first step after which one of its paths
 * fails. */
static void run_chunks(split_job *J, sub_block *B)
{
    const int64_t n = J->n;
    for (int c; (c = atomic_fetch_add_explicit(&B->next_chunk, 1, memory_order_acq_rel))
                < J->n_chunks;) {
        const int64_t lo = J->lo[c], hi = J->lo[c + 1];
        B->fail[c] = -1;
        for (int64_t r = 0; r < B->ks; r++) {
            const int64_t step = B->first + r + 1;
            const double *xi = flat_normals(B, r * n + lo, r * n + hi, J->prod + lo);
            int bad = J->ops->step(J->m, lo, hi, xi, step < J->m->n_steps ? 1.0 : 0.5, J->y,
                                   J->f0, J->acc, J->prod);
            B->parts[r * J->n_chunks + c] = J->ops->sum(J->prod + lo, hi - lo);
            if (bad) {
                B->fail[c] = r;
                B->bad[c] = count_bad(J->m, J->y + lo, hi - lo);
                break;
            }
        }
        if (atomic_fetch_add_explicit(&B->chunks_done, 1, memory_order_acq_rel) + 1 == J->n_chunks)
            wake_all(J);
    }
}

/* A helper: at each post, the steps it opens, then the fill. */
static void *helper_main(void *arg)
{
    split_job *J = arg;
    for (int seen = 0;;) {
        wait_while(J, &J->gen, seen);
        seen = atomic_load_explicit(&J->gen, memory_order_acquire);
        if (atomic_load_explicit(&J->exiting, memory_order_acquire))
            return NULL;
        run_chunks(J, &J->sub[seen % 2]);
        helper_fill(J, &J->sub[(seen - 1) % 2]);
    }
}

/* Keep the helpers off the caller's CPU, on the others this thread may
 * run on: a kernel that does not balance load across those CPUs (a cpuset
 * with sched_load_balance off) would otherwise run every thread where the
 * caller runs. */
static void spread_helpers(pthread_attr_t *attr)
{
#if defined(__linux__)
    cpu_set_t cpus;
    int here = sched_getcpu();
    if (here < 0 || sched_getaffinity(0, sizeof cpus, &cpus) != 0 || CPU_COUNT(&cpus) < 2
        || !CPU_ISSET(here, &cpus))
        return;
    CPU_CLR(here, &cpus);
    pthread_attr_setaffinity_np(attr, sizeof cpus, &cpus);
#else
    (void)attr;
#endif
}

/* The top subtrees of numpy's pairwise sum of n numbers, at most
 * max_depth levels down and above its leaves, as bounds lo[0..count];
 * returns count. */
static int subtrees(int64_t n, int max_depth, int64_t *lo)
{
    int count = 1;
    lo[0] = 0, lo[1] = n;
    for (int d = 0; d < max_depth; d++) {
        for (int c = 0; c < count; c++)
            if (lo[c + 1] - lo[c] <= PW_BLOCK)
                return count;
        for (int c = count - 1; c >= 0; c--) {
            int64_t a = lo[c], b = lo[c + 1], n2 = (b - a) / 2;
            lo[2 * c + 2] = b;
            lo[2 * c + 1] = a + n2 - n2 % 8;
            lo[2 * c] = a;
        }
        count *= 2;
    }
    return count;
}

/* v[0..count) as the levels of numpy's pairwise recursion add them:
 * neighbours, then neighbours of those sums; count a power of 2. */
static double tree_sum(double *v, int count)
{
    for (; count > 1; count /= 2)
        for (int c = 0; c < count / 2; c++)
            v[c] = v[2 * c] + v[2 * c + 1];
    return v[0];
}

/* route_serial's contract and bits on threads threads (2 .. MAX_THREADS),
 * in sub-blocks of about SUB_NORMALS normals, the two latest in the two
 * sub_blocks of the job.  Post s opens the steps of sub-block s - 1, on
 * chunks of paths (4 * threads or so), and the fill of sub-block s, in
 * one range per thread; each thread steps whichever chunk is next until
 * none is left, then fills.  The caller fills the first range from the
 * word where the sub-block starts, and each helper a later range
 * speculatively from its lowest word; the caller then keeps a helper's
 * normals from the first that starts where the range before ended, tops
 * them up if the helper has not got to the end, or fills the range afresh
 * (resolve_range).  Each step's chunk sums are added in numpy's order.
 * After a failing step, the paths of a chunk that did not fail there may
 * have stepped on; n_bad counts the others. */
static int64_t route_split(const route_ops *ops, const euler_spec *m, row_state *row, int64_t n,
                           int64_t first, int64_t k, double *y, const double *f0, double *acc,
                           double *corr, double *prod, int threads, int64_t *n_bad)
{
    split_job *J = calloc(1, sizeof *J);
    int64_t ks = SUB_NORMALS / n > 1 ? SUB_NORMALS / n : 1;
    ks = ks < k ? ks : k;
    int depth = 0;
    while ((1 << depth) < 4 * threads && depth < MAX_DEPTH)
        depth++;
    /* a range's first normal starts at most 1/40 of the normals before it
     * past its lowest word (2.2% is the mean), else it is topped up */
    const int64_t most = ks * n, cap = most / threads + 1 + most / 40 + 64;
    const int64_t log_cap = cap / 16 + 16;
    double *bufs = malloc(2 * threads * cap * sizeof *bufs);
    int64_t *logs = malloc(4 * threads * log_cap * sizeof *logs);
    double *parts = malloc(2 * ks * MAX_CHUNKS * sizeof *parts);
    if (!J || !bufs || !logs || !parts) {
        free(J), free(bufs), free(logs), free(parts);
        return -2;
    }
    J->ops = ops, J->m = m, J->n = n, J->y = y, J->acc = acc, J->prod = prod, J->f0 = f0;
    J->origin = *row, J->threads = threads;
    pthread_mutex_init(&J->lock, NULL);
    pthread_cond_init(&J->wake, NULL);
    J->n_chunks = subtrees(n, depth, J->lo);
    for (int b = 0; b < 2; b++) {
        sub_block *B = &J->sub[b];
        B->parts = parts + b * ks * MAX_CHUNKS;
        for (int t = 0; t < threads; t++) {
            const int64_t i = b * threads + t;
            B->buf[t] = bufs + i * cap;
            B->log[t] = (draw_log){logs + 2 * i * log_cap, logs + (2 * i + 1) * log_cap, 0,
                                   log_cap, 0};
            B->claim[t] = DONE;
        }
        B->next_chunk = J->n_chunks;
    }
    pthread_t helper[MAX_THREADS];
    pthread_attr_t attr;
    const int have_attr = pthread_attr_init(&attr) == 0;
    int helpers = 0;
    if (have_attr)
        spread_helpers(&attr);
    for (int h = 1; h < threads; h++)
        helpers += pthread_create(&helper[helpers], have_attr ? &attr : NULL, helper_main, J) == 0;
    if (have_attr)
        pthread_attr_destroy(&attr);

    const int64_t n_subs = (k + ks - 1) / ks;
    int64_t p = word_pos(row, row), result = -1;
    for (int64_t s = 0; s <= n_subs; s++) {
        sub_block *B = &J->sub[s % 2], *A = &J->sub[(s + 1) % 2]; /* s and s - 1 */
        if (s < n_subs) {
            const int64_t total = (k - s * ks < ks ? k - s * ks : ks) * n;
            B->start = p;
            for (int t = 0; t <= threads; t++)
                B->g[t] = total * t / threads;
            for (int t = 0; t < threads; t++) {
                B->cap[t] = B->g[t + 1] - B->g[t] + B->g[t] / 40 + 64;
                atomic_store_explicit(&B->stop[t], 0, memory_order_relaxed);
                atomic_store_explicit(&B->claim[t], FREE, memory_order_release);
            }
        }
        if (s > 0) {
            A->first = first + (s - 1) * ks;
            A->ks = k - (s - 1) * ks < ks ? k - (s - 1) * ks : ks;
            atomic_store_explicit(&A->chunks_done, 0, memory_order_relaxed);
            atomic_store_explicit(&A->next_chunk, 0, memory_order_release);
        }
        atomic_store_explicit(&J->gen, (int)s + 1, memory_order_release);
        wake_all(J);
        if (s > 0)
            run_chunks(J, A);
        if (s < n_subs)
            caller_fill(J, B, &p);
        if (s == 0)
            continue;
        for (int v; (v = atomic_load_explicit(&A->chunks_done, memory_order_acquire)) != J->n_chunks;)
            wait_while(J, &A->chunks_done, v);
        int64_t r_fail = -1;
        for (int c = 0; c < J->n_chunks; c++)
            if (A->fail[c] >= 0 && (r_fail < 0 || A->fail[c] < r_fail))
                r_fail = A->fail[c];
        if (r_fail >= 0) {
            *n_bad = 0;
            for (int c = 0; c < J->n_chunks; c++)
                *n_bad += A->fail[c] == r_fail ? A->bad[c] : 0;
            result = A->first + r_fail + 1;
            break;
        }
        for (int64_t r = 0; r < A->ks; r++)
            corr[A->first - first + r] = 0.0 + tree_sum(A->parts + r * J->n_chunks, J->n_chunks);
    }
    atomic_store_explicit(&J->exiting, 1, memory_order_release);
    atomic_fetch_add_explicit(&J->gen, 1, memory_order_release);
    wake_all(J);
    for (int h = 0; h < helpers; h++)
        pthread_join(helper[h], NULL);
    settle(row, &J->origin, p);
    pthread_mutex_destroy(&J->lock);
    pthread_cond_destroy(&J->wake);
    free(J), free(bufs), free(logs), free(parts);
    return result;
}

/* Steps first+1 .. first+k of the autocorrelation route of M_f: n paths,
 * their states in y, their normals all from the one stream row, step j's
 * after the n normals of step j-1.  Each step steps every path i with
 * (y + h*b) + (sqrt_h*s)*xi, observes fs = f(y[i]), adds fs to acc[i]
 * (0.5*fs at step m->n_steps), and sums the products f0[i]*fs into corr,
 * as np.sum sums them; prod (n floats) holds the products of the last
 * step.  With threads >= 2, a call of more than PW_BLOCK paths and at
 * least SPLIT_MIN_NORMALS normals is split (route_split), to the same bits
 * and row state.  Returns the first step after which some
 * |y[i]| <= m->blow_up fails (NaN included), with the number of such paths
 * in *n_bad; -1 if none does, and -2 if memory runs out. */
static int64_t route(const route_ops *ops, const euler_spec *m, row_state *row, int64_t n,
                     int64_t first, int64_t k, double *y, const double *f0, double *acc,
                     double *corr, double *prod, int64_t threads, int64_t *n_bad)
{
    threads = threads < MAX_THREADS ? threads : MAX_THREADS;
    if (threads < 2 || n <= PW_BLOCK || k * n < SPLIT_MIN_NORMALS)
        return route_serial(ops, m, row, n, first, k, y, f0, acc, corr, prod, n_bad);
    return route_split(ops, m, row, n, first, k, y, f0, acc, corr, prod, (int)threads, n_bad);
}

/* A split of a fill of width normals of the stream in row into out, at
 * normal n0: the speculative side fills up to cap normals from word q
 * (counted as in route_split), the caller's side fills normals 0 .. n0
 * and resolves the rest with resolve_range, whose outcome it returns (-2
 * if memory runs out); row is left after the width normals. */
static int64_t split_probe(const route_ops *ops, row_state *row, int64_t width, int64_t n0,
                           int64_t q, int64_t cap, double *out)
{
    const row_state origin = *row;
    const int64_t len = width - n0, log_cap = cap / 16 + 16;
    double *buf = malloc((cap > len ? cap : len) * sizeof *buf);
    int64_t *logs = malloc(2 * log_cap * sizeof *logs), off;
    if (!buf || !logs) {
        free(buf), free(logs);
        return -2;
    }
    draw_log log = {logs, logs + log_cap, 0, log_cap, 0};
    int64_t got = fill_logged(ops, &origin, q, buf, cap, &log);
    int64_t p = fill_at(ops, &origin, word_pos(&origin, &origin), out, n0);
    int outcome = resolve_range(ops, &origin, &p, q, &log, buf, got, len, &off);
    memcpy(out + n0, buf + off, len * sizeof *out);
    settle(row, &origin, p);
    free(buf), free(logs);
    return outcome;
}

int64_t autocorr_steps_portable(const euler_spec *m, row_state *row, int64_t n, int64_t first,
                                int64_t k, double *y, const double *f0, double *acc,
                                double *corr, double *prod, int64_t threads, int64_t *n_bad)
{
    return route(&ops_portable, m, row, n, first, k, y, f0, acc, corr, prod, threads, n_bad);
}

int64_t split_fill_probe_portable(row_state *row, int64_t width, int64_t n0, int64_t q,
                                  int64_t cap, double *out)
{
    return split_probe(&ops_portable, row, width, n0, q, cap, out);
}

#if defined(__x86_64__)

int64_t autocorr_steps_avx512(const euler_spec *m, row_state *row, int64_t n, int64_t first,
                              int64_t k, double *y, const double *f0, double *acc, double *corr,
                              double *prod, int64_t threads, int64_t *n_bad)
{
    return route(&ops_avx512, m, row, n, first, k, y, f0, acc, corr, prod, threads, n_bad);
}

int64_t split_fill_probe_avx512(row_state *row, int64_t width, int64_t n0, int64_t q,
                                int64_t cap, double *out)
{
    return split_probe(&ops_avx512, row, width, n0, q, cap, out);
}

#endif /* __x86_64__ */

/* ------------------------------------------------------------- dispatch */

typedef void fill_fn(row_state *, int64_t, double *, int64_t);
typedef void euler_fn(const euler_spec *, row_state *, int64_t, double *, double *, double *,
                      double *, int64_t *);
static fill_fn *fill_path = philox_normal_fill_portable;
static euler_fn *euler_path = euler_rows_portable;
static const route_ops *route_path = &ops_portable;
static const char *path_name = "portable";

/* Pick the path for this CPU, once, when the library is loaded. */
__attribute__((constructor)) static void pick_path(void)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")) {
        fill_path = philox_normal_fill_avx512;
        euler_path = euler_rows_avx512;
        route_path = &ops_avx512;
        path_name = "avx512";
    }
#endif
}

/* "avx512" or "portable": the path the routed entry points below take */
const char *native_path(void)
{
    return path_name;
}

void philox_normal_fill(row_state *rows, int64_t n_rows, double *out, int64_t width)
{
    fill_path(rows, n_rows, out, width);
}

void euler_rows(const euler_spec *m, row_state *rows, int64_t n_rows, double *xi_c,
                double *xi_r, double *sup_abs, double *terminal, int64_t *fail_step)
{
    euler_path(m, rows, n_rows, xi_c, xi_r, sup_abs, terminal, fail_step);
}

int64_t autocorr_steps(const euler_spec *m, row_state *row, int64_t n, int64_t first, int64_t k,
                       double *y, const double *f0, double *acc, double *corr, double *prod,
                       int64_t threads, int64_t *n_bad)
{
    return route(route_path, m, row, n, first, k, y, f0, acc, corr, prod, threads, n_bad);
}

int64_t split_fill_probe(row_state *row, int64_t width, int64_t n0, int64_t q, int64_t cap,
                         double *out)
{
    return split_probe(route_path, row, width, n0, q, cap, out);
}

/* ------------------------------------------- tabulated antiderivative */

/* (nd - 1) / nd and (2 nd - 1) / nd for nd = 7 down to 2, as doubles */
static const double LEG_A[8] = {0, 0, 1.0 / 2, 2.0 / 3, 3.0 / 4, 4.0 / 5, 5.0 / 6, 6.0 / 7};
static const double LEG_B[8] = {0, 0, 3.0 / 2, 5.0 / 3, 7.0 / 4, 9.0 / 5, 11.0 / 6, 13.0 / 7};

/* The degree-7 Legendre series c at x, in the association order of
 * numpy's legval. */
static inline double legval8(const double *c, double x)
{
    double c0 = c[6], c1 = c[7];
    for (int nd = 7; nd >= 2; nd--) {
        double tmp = c0;
        c0 = c[nd - 2] - c1 * LEG_A[nd];
        c1 = tmp + c1 * x * LEG_B[nd];
    }
    return c0 + c1 * x;
}

/* Queries of quadrature.Antiderivative on a grid of n_nodes >= 2 sorted
 * nodes.  Each point is clipped to [nodes[0], nodes[n_nodes - 1]] as
 * np.clip clips it (NaN stays NaN) and given the panel index of
 * np.searchsorted(nodes, z, side) - 1 clipped to the panels, where side is
 * "right" for from_left and "left" for from_right and NaN sorts last; a
 * uniform-grid guess, moved to the neighbouring node where it is off,
 * finds it.  The value is cum[idx] + s L(s - 1) (from_left) or
 * cum[idx + 1] + s R(1 - s) (from_right), with coef the panel-major
 * (n_panels, 8) Legendre coefficients of L or R. */
void antiderivative_eval(const double *nodes, int64_t n_nodes, double half, const double *cum,
                         const double *coef, int from_right, const double *z, int64_t n,
                         double *out)
{
    const int64_t last = n_nodes - 2; /* the last panel */
    const double lo = nodes[0], hi = nodes[n_nodes - 1];
    const double per_panel = (double)(n_nodes - 1) / (hi - lo);
    for (int64_t i = 0; i < n; i++) {
        double zc = z[i];
        int64_t g = last;
        if (zc == zc) {
            zc = zc > lo ? zc : lo;
            zc = zc < hi ? zc : hi;
            double guess = (zc - lo) * per_panel;
            g = guess < last + 1 ? (int64_t)guess : last + 1;
            if (from_right) { /* the last node below zc, -1 for none */
                while (g >= 0 && nodes[g] >= zc)
                    g--;
                while (g <= last && nodes[g + 1] < zc)
                    g++;
                g = g > 0 ? g : 0;
            } else { /* the last node at or below zc */
                while (g > 0 && nodes[g] > zc)
                    g--;
                while (g <= last && nodes[g + 1] <= zc)
                    g++;
            }
            g = g < last ? g : last;
        }
        const double *c = coef + 8 * g;
        if (from_right) {
            double s = (nodes[g + 1] - zc) / half; /* 1 - x, exactly 0 on the right node */
            out[i] = cum[g + 1] + s * legval8(c, 1.0 - s);
        } else {
            double s = (zc - nodes[g]) / half; /* x + 1, exactly 0 on the left node */
            out[i] = cum[g] + s * legval8(c, s - 1.0);
        }
    }
}
