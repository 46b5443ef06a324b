/*
 * Standard normals from per-row Philox4x64-10 streams, bit for bit the
 * ones numpy's Generator(Philox(...)).standard_normal draws.
 *
 * Each row keeps numpy's Philox state in 11 uint64 words: the counter (4),
 * the key (2), the output buffer (4) and the buffer position.  numpy's
 * philox_next increments the counter (with carry) before each new 4-word
 * block and hands the block's words out one at a time.
 *
 * A row's stream is replicate_stream(master_seed, i) of euler.py, keyed by
 * SeedSequence(entropy=master_seed, spawn_key=(i,)).  Its spawn word i
 * (below 2**32) is hashed into the entropy pool after every word of the
 * master seed, so euler.py computes the pool and the hash constant at the
 * spawn word once per call (stream_keys), and start_row runs the rest per
 * row: SeedSequence's last mixing round and generate_state's output hash,
 * about 40 integer operations.  philox_start_rows starts rows into a state
 * array; euler_rows, given no state array, starts each row on the stack of
 * the thread that steps it.
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
 * compares a row started and filled here with numpy's stream before the
 * library is used.  No Python object is touched, so the caller may release
 * the GIL.
 *
 * euler_rows runs the scaled Euler kernel, the only one of the package, on
 * whole rows, from their states or from their stream keys: for a group of
 * rows at a time it fills the next SEG normals of each row into an
 * on-stack block, then steps and observes the rows together, 8 to a
 * vector, so their dependency chains interleave.  Its one step, step_group,
 * is written in GCC's generic vectors, with lane masks in place of
 * branches (sup_abs, the blow-up check, spare and failed rows); the
 * drift, diffusion and state-map kinds and the mode (plain or observe) are
 * read at run time.  Its arithmetic is that of the plain numpy
 * expressions of the step, in their association order, with libm's pow
 * (the power drift) and exp (Gompertz's map from log space) called once
 * per lane; the build turns FMA contraction off.  One call takes its rows
 * CHUNK at a time on the caller's thread and threads - 1 POSIX threads it
 * starts, places off the caller's CPU and joins itself.  Its observe mode
 * runs the autocorrelation route of M_f (variance.py): each row starts
 * from its own state with a weight w, and each step's sum of w f(X_k) over
 * the rows is taken in row order within each chunk and then over the
 * chunks in order, so that no bit of it depends on the thread count or
 * the path; the route reads no xi_r or sup_abs, so this mode skips their
 * arithmetic and writes both NaN.
 *
 * The fill and the Euler kernel come in two paths that give the same bits:
 *  - portable (philox_normal_fill_portable, euler_rows_portable): two
 *    counter blocks per Philox call so that the two dependent 10-round
 *    chains overlap, one ziggurat word at a time, and step_group on one
 *    vector of rows;
 *  - avx512 (x86-64 only, compiled for avx512f and avx512dq by target
 *    attributes, so the build flags stay the same): a segment's 16 blocks
 *    are two 8-lane Philox runs, one block per 64-bit lane, each 64x64 ->
 *    128-bit product built from four 32x32 -> 64-bit ones (a segment of
 *    at most 4 blocks, the end of a row's fill, takes the portable path's
 *    pairs instead of a run of 8); the ziggurat fast path takes 8 words
 *    per step, its table lookups gathered, up to the first word it does
 *    not accept; and step_group, compiled for the same target, on two
 *    vectors (16 rows) at a time, so that their step chains overlap.
 * Each path passes step_group its fill, its square root and its transpose
 * of each 8-step tile of the rows' normals, so that a vector holds one
 * step of its 8 rows.  Both paths take a word their fast path does not
 * accept through the same scalar wedge and tail code.
 * philox_normal_fill and euler_rows take the avx512 path when the CPU has
 * both extensions, checked once when the library is loaded, and the
 * portable path otherwise; native_path names the one picked.
 *
 * antiderivative_eval answers the queries of quadrature.Antiderivative,
 * always integrals from the table's left end (a caller that needs a right
 * tail queries the table of its reflected integrand): per point a clip,
 * the panel np.searchsorted would give, and the panel's degree-7
 * polynomial in the power basis by Horner's rule.  It has one path, the
 * same on every CPU.
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

/* -------------------------------------------------------------- streams */

/* numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) */
#define MULT_A 0x931E8875u
#define INIT_B 0x8B51F9DDu
#define MULT_B 0x58F38DEDu
#define MIX_MULT_L 0xCA01F9DDu
#define MIX_MULT_R 0x4973F715u

/* The streams replicate_stream(master_seed, first + j) of rows j in [0, n);
 * euler.py's _StreamKeys.  pool is the entropy pool of the unspawned
 * SeedSequence(entropy=master_seed) and hash_a the hashmix constant at which
 * the spawn word is mixed in; euler.py computes both once per call. */
typedef struct {
    uint32_t pool[4];
    uint32_t hash_a;
    int64_t first, n;
} stream_keys;

/* Row j's state at the start of its stream: the spawn word first + j
 * (below 2**32) mixed into the pool, SeedSequence's last mixing round,
 * then generate_state's output hash of the pool as the Philox key, a zero
 * counter and an empty buffer, so the first draw increments the counter. */
static inline void start_row(const stream_keys *k, int64_t j, row_state *r)
{
    const uint32_t spawn = (uint32_t)(k->first + j);
    uint32_t hash_a = k->hash_a, hash_b = INIT_B, w[4];
    for (int i = 0; i < 4; i++) {
        uint32_t v = spawn ^ hash_a;
        hash_a *= MULT_A;
        v *= hash_a;
        v ^= v >> 16;
        uint32_t x = MIX_MULT_L * k->pool[i] - MIX_MULT_R * v;
        x ^= x >> 16;
        x ^= hash_b;
        hash_b *= MULT_B;
        x *= hash_b;
        w[i] = x ^ x >> 16;
    }
    memset(r, 0, sizeof *r);
    r->key[0] = w[0] | (uint64_t)w[1] << 32;
    r->key[1] = w[2] | (uint64_t)w[3] << 32;
    r->pos = 4;
}

/* Rows j0 .. j0+n_rows-1 of k started into rows[0, n_rows). */
void philox_start_rows(const stream_keys *k, int64_t j0, row_state *rows, int64_t n_rows)
{
    for (int64_t j = 0; j < n_rows; j++)
        start_row(k, j0 + j, rows + j);
}

/* The streams of a call's rows: row j's state at state[j], advanced in
 * place, or, with state NULL, started from keys on the stack of the thread
 * that steps row j. */
typedef struct {
    row_state *state;
    const stream_keys *keys;
} row_streams;

/* The states of rows i0 .. i0+n-1 of s: in s->state, or started into own. */
static inline row_state *group_states(const row_streams *s, int64_t i0, int n, row_state *own)
{
    if (s->state)
        return s->state + i0;
    for (int r = 0; r < n; r++)
        start_row(s->keys, i0 + r, own + r);
    return own;
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

/* The next width normals of the stream in r into o, a path's segments and
 * fast-path words coming from segment and accept. */
static inline __attribute__((always_inline)) void
fill_row(row_state *r, double *o, int64_t width, segment_fn *segment, accept_fn *accept)
{
    uint64_t seg[SEG_WORDS];
    int64_t i = 0;
    while (i < width) {
        if (r->pos < 4) {
            /* a buffered word; a slow draw's further words come from r */
            uint64_t w = r->buf[r->pos++];
            if (!ziggurat_fast(w, o + i)) {
                int s = 0; /* no segment: every further word from r */
                o[i] = ziggurat_slow(w, o[i], NULL, &s, 0, r);
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
            uint64_t w = seg[s++];
            o[i] = ziggurat_slow(w, o[i], seg, &s, n_words, r);
            i++;
        }
        /* s >= n_words: r stands after the segment, or after the last word
         * a slow draw took past it (numpy's state: a used-up block, pos 4) */
        if (s < n_words)
            point_at(r, base, seg, s - 1), r->pos++;
    }
}

/* Fill row j of the C-contiguous (n_rows, width) array out from rows[j]. */
void philox_normal_fill_portable(row_state *rows, int64_t n_rows, double *out, int64_t width)
{
    for (int64_t j = 0; j < n_rows; j++)
        fill_row(rows + j, out + j * width, width, segment_portable, accept_portable);
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
        fill_row(rows + j, out + j * width, width, segment_avx512, accept_avx512);
}

#endif /* __x86_64__ */

/* ---------------------------------------------------------------- Euler */

/* coefficient and state-map kinds; euler.py's _DRIFT_KINDS, _DIFFUSION_KINDS
 * and _MAP_KINDS */
enum { DRIFT_OU, DRIFT_CIR, DRIFT_POLY, DRIFT_POWER };
enum { DIFFUSION_CONSTANT, DIFFUSION_CIR, DIFFUSION_POLY };
enum { MAP_NONE, MAP_EXP };

/* The model, functional and schedule of one batch; euler.py's _EulerSpec. */
typedef struct {
    int64_t drift_kind, diffusion_kind;
    int64_t map_kind; /* the state map from the stepped coordinate to the model's */
    int64_t n_drift, n_diffusion, n_f; /* parameter counts */
    const double *drift;     /* OU, CIR: (kappa, mu); polynomial: coefficients; power: (alpha) */
    const double *diffusion; /* constant, CIR: (sigma); polynomial: coefficients */
    const double *f;         /* polynomial coefficients of the functional */
    double f_c0, x0, h, sqrt_h, dt, blow_up;
    int64_t n_steps;
    const double *control; /* NULL, or ctrl_coef * psi(k * dt) for each step k */
    const double *start;   /* NULL, or each row's start state in place of x0 */
    const double *weight;  /* NULL, or each row's weight w: the observe mode */
} euler_spec;

/* The per-row outputs of a call, row j at element j */
typedef struct {
    double *xi_c, *xi_r, *sup_abs, *terminal;
    int64_t *fail_step;
} rows_out;

#define SEG 256    /* steps of normals filled per row at a time */
#define CHUNK 256  /* rows a thread takes at a time, and of one partial sum */
#define LANES 8    /* rows per vector */
#define MAX_VECS 2 /* vectors of rows stepped together in a group, at most */

/* LANES doubles, and LANES int64 lane masks (-1 or 0) or step numbers, in
 * GCC's generic vectors.  Their arithmetic is IEEE lane by lane, so a lane
 * gets the bits of the scalar expression; each path's compiler target maps
 * an operation to its own instructions (four SSE2 ones on the portable
 * path, or one per lane for a compare; one AVX-512 one on the avx512
 * path).  No function takes or returns one by value, whose ABI differs
 * between the two targets. */
typedef double vd __attribute__((vector_size(8 * LANES)));
typedef int64_t vi __attribute__((vector_size(8 * LANES)));

/* s in every lane, as one broadcast (an initializer that repeats a loaded
 * value compiles to one insert per lane) */
#define SPLAT(s) __builtin_shuffle((vd){(s)}, (vi){0})
#define SPLAT_I(s) __builtin_shuffle((vi){(s)}, (vi){0})
#define ABS(x) ((vd)((vi)(x) & INT64_MAX))
/* a where the lane mask is set, else b */
#define SELECT(mask, a, b) ((vd)(((vi)(a) & (mask)) | ((vi)(b) & ~(mask))))

/* numpy's polyval, lane by lane, into *y: c[n-1] + x*0, then c[i] + y*x */
static inline __attribute__((always_inline)) void
polyval(const double *c, int64_t n, const vd *x, vd *y)
{
    vd v = SPLAT(c[n - 1]) + *x * 0.0;
    for (int64_t i = n - 2; i >= 0; i--)
        v = SPLAT(c[i]) + v * *x;
    *y = v;
}

/* The power drift -sign(x) |x|^alpha in numpy's order, with libm's pow;
 * numpy's sign is 0.0 at -0.0 and NaN at NaN. */
static inline double power_drift(double alpha, double x)
{
    double sign = x > 0.0 ? 1.0 : x < 0.0 ? -1.0 : x == 0.0 ? 0.0 : x;
    return -sign * pow(fabs(x), alpha);
}

/* *x replaced by power_drift(alpha, x) with power, else by libm's exp of
 * x, one call per lane; kept out of the step's body (written there, the
 * lane loops cost the portable OU step 1.3 times, though OU calls neither) */
static inline void libm_lanes(int power, double alpha, vd *x)
{
    for (int r = 0; r < LANES; r++)
        (*x)[r] = power ? power_drift(alpha, (*x)[r]) : exp((*x)[r]);
}

/* The model's state at the stepped state *x, in place: x, or libm's exp of it. */
static inline __attribute__((always_inline)) void state_of(int map, vd *x)
{
    if (map == MAP_EXP)
        libm_lanes(0, 0.0, x);
}

/* The drift at *x into *b: OU's is rate (x - mean) with rate -kappa, CIR's
 * rate (mean - x) with rate kappa */
static inline __attribute__((always_inline)) void
drift(const euler_spec *m, int kind, const vd *rate, const vd *mean, const vd *x, vd *b)
{
    switch (kind) {
    case DRIFT_OU:
        *b = *rate * (*x - *mean);
        return;
    case DRIFT_CIR:
        *b = *rate * (*mean - *x);
        return;
    case DRIFT_POWER:
        *b = *x;
        libm_lanes(1, m->drift[0], b);
        return;
    default:
        polyval(m->drift, m->n_drift, x, b);
    }
}

/* A path's square root of numpy's maximum(x, 0.0) in each lane of *x, in
 * place: x where !(x <= 0.0), else 0.0, so NaN stays and -0.0 becomes 0.0 */
typedef void sqrt_fn(vd *x);

/* The diffusion at *x into *s, with a constant or CIR diffusion's sigma
 * splat and root a path's square root */
static inline __attribute__((always_inline)) void
diffusion(const euler_spec *m, int kind, const vd *sigma, const vd *x, vd *s, sqrt_fn *root)
{
    switch (kind) {
    case DIFFUSION_CONSTANT:
        *s = *sigma;
        return;
    case DIFFUSION_CIR: {
        vd y = *x;
        root(&y);
        *s = *sigma * y;
        return;
    }
    default:
        polyval(m->diffusion, m->n_diffusion, x, s);
    }
}

/* A path's transpose of columns k .. k+LANES-1 of LANES rows SEG doubles
 * apart into col, one column per vector */
typedef void transpose_fn(const double *rows, vd col[LANES]);

/* A path's fill of rows[0, n_rows) into the (n_rows, width) array out */
typedef void fill_fn(row_state *rows, int64_t n_rows, double *out, int64_t width);

/* The Euler step, the only one: rows i0 .. i0+n-1 as one group of vecs
 * vectors, n <= vecs * LANES, lane r of vector q holding row
 * i0 + q * LANES + r, so that the vectors' dependency chains interleave.
 * What differs by path comes in as arguments that the path inlines: its
 * fill, its square root, its transpose of an 8-step tile of the rows'
 * normals, which puts one step of a vector's rows in one vector, and vecs.
 * Lane masks take the place of branches (sup_abs, the blow-up check,
 * spare and failed rows); spare lanes start at x0, step zero noise and
 * count as failed from the start.  f is observed at the state map of the
 * stepped state, and the terminal state is mapped too.  In the observe
 * mode, with sum given, step k adds the rows' products w * f(X_k), in row
 * order, to sum[k - 1]; xi_r and sup_abs, which the sums' caller does not
 * read, then come out NaN (their arithmetic is skipped), and the terminal
 * state is left in the stepped coordinate, where the caller's next call
 * starts.  The kinds and the mode are read at run time, so each path
 * compiles the step once. */
static inline __attribute__((always_inline)) void
step_group(const euler_spec *m, const row_streams *streams, int64_t i0, int n, const rows_out *o,
           double *sum, fill_fn *fill, sqrt_fn *root, transpose_fn *transpose, int vecs)
{
    const int dk = (int)m->drift_kind, sk = (int)m->diffusion_kind, mk = (int)m->map_kind;
    const int obs = sum != NULL;
    /* the kinds' parameters, splat once before the step loop (a load under
     * the step's kind switch is not hoisted out of it) */
    const int linear = dk == DRIFT_OU || dk == DRIFT_CIR;
    const vd rate = SPLAT(!linear ? 0.0 : dk == DRIFT_OU ? -m->drift[0] : m->drift[0]);
    const vd mean = SPLAT(linear ? m->drift[1] : 0.0);
    const vd sigma = SPLAT(sk == DIFFUSION_POLY ? 0.0 : m->diffusion[0]);
    const vd h = SPLAT(m->h), sqrt_h = SPLAT(m->sqrt_h), dt = SPLAT(m->dt);
    const vd blow_up = SPLAT(m->blow_up), f_c0 = SPLAT(m->f_c0), x0 = SPLAT(m->x0);
    row_state own[MAX_VECS * LANES];
    row_state *rows = group_states(streams, i0, n, own);
    _Alignas(64) double noise[MAX_VECS * LANES][SEG];
    _Alignas(64) double prod[LANES][MAX_VECS * LANES]; /* a tile's products, step by row */
    vd z[MAX_VECS], fp[MAX_VECS], w[MAX_VECS], xc[MAX_VECS], xr[MAX_VECS], sup[MAX_VECS];
    vi fail[MAX_VECS], alive[MAX_VECS];
    for (int q = 0; q < vecs; q++) {
        z[q] = x0;
        w[q] = xc[q] = xr[q] = sup[q] = (vd){0};
        fail[q] = alive[q] = (vi){0};
        for (int r = 0; r < LANES && q * LANES + r < n; r++) {
            const int64_t at = i0 + q * LANES + r;
            if (m->start)
                z[q][r] = m->start[at];
            if (obs)
                w[q][r] = m->weight[at];
            fail[q][r] = alive[q][r] = -1;
        }
        vd y = z[q];
        state_of(mk, &y);
        polyval(m->f, m->n_f, &y, &fp[q]);
        fp[q] = fp[q] - f_c0;
    }
    /* spare rows step zero noise; a tile past width reads defined columns */
    memset(noise, 0, sizeof noise[0] * vecs * LANES);
    for (int64_t k0 = 0; k0 < m->n_steps; k0 += SEG) {
        int width = m->n_steps - k0 < SEG ? (int)(m->n_steps - k0) : SEG, filled = 0;
        for (int r = 0; r < n; r++)
            if (alive[r / LANES][r % LANES])
                fill(rows + r, 1, noise[r], width), filled++;
        if (!filled)
            break;
        for (int k = 0; k < width; k += LANES) {
            int cols = width - k < LANES ? width - k : LANES;
            vd col[MAX_VECS][LANES];
            for (int q = 0; q < vecs; q++)
                transpose(&noise[q * LANES][k], col[q]);
            for (int j = 0; j < cols; j++) {
                const vi step = SPLAT_I(k0 + k + j + 1);
                const vd c = m->control ? SPLAT(m->control[k0 + k + j]) : (vd){0};
                for (int q = 0; q < vecs; q++) {
                    vd x = z[q], s, b, x1, y, f1;
                    diffusion(m, sk, &sigma, &x, &s, root);
                    drift(m, dk, &rate, &mean, &x, &b);
                    x1 = (x + h * b) + (sqrt_h * s) * col[q][j];
                    if (m->control)
                        x1 = x1 + c * s;
                    y = x1;
                    state_of(mk, &y);
                    polyval(m->f, m->n_f, &y, &f1);
                    f1 = f1 - f_c0;
                    if (!obs)
                        xr[q] = xr[q] + fp[q] * dt;
                    xc[q] = xc[q] + (0.5 * (fp[q] + f1)) * dt;
                    if (!obs) { /* numpy's maximum: a NaN wins */
                        vd a = ABS(xc[q]);
                        sup[q] = SELECT(a <= sup[q], sup[q], a);
                    }
                    fp[q] = f1;
                    z[q] = x1;
                    vi gone = alive[q] & ~(ABS(x1) <= blow_up);
                    fail[q] = (fail[q] & ~gone) | (step & gone);
                    alive[q] &= ~gone;
                    if (obs)
                        *(vd *)&prod[j][q * LANES] = w[q] * f1;
                }
            }
            /* the tile's sums, row after row, each step's chain apart */
            for (int j = 0; obs && j < cols; j++) {
                double s = sum[k0 + k + j];
                for (int r = 0; r < n; r++)
                    s += prod[j][r];
                sum[k0 + k + j] = s;
            }
        }
    }
    for (int q = 0; q < vecs && !obs; q++)
        state_of(mk, &z[q]);
    for (int r = 0; r < n; r++) {
        const int q = r / LANES, l = r % LANES, ok = fail[q][l] < 0;
        o->xi_c[i0 + r] = ok ? xc[q][l] : NAN;
        o->xi_r[i0 + r] = ok && !obs ? xr[q][l] : NAN;
        o->sup_abs[i0 + r] = ok && !obs ? sup[q][l] : NAN;
        o->terminal[i0 + r] = ok ? z[q][l] : NAN;
        o->fail_step[i0 + r] = fail[q][l];
    }
}

/* Rows i0 .. i0+n-1 of a call on one path, in the observe mode when sum is
 * given: the chunk's sum of each step, which starts at -0.0. */
typedef void chunk_fn(const euler_spec *m, const row_streams *rows, int64_t i0, int64_t n,
                      const rows_out *o, double *sum);

/* sqrt_fn: on x86-64 two lanes per SSE2 compare, and and square root,
 * else a lane at a time (on SSE2 gcc takes an 8-lane compare and libm's
 * sqrt lane by lane, through memory, which cost CIR's step 1.4 times) */
static inline void sqrt_portable(vd *x)
{
#if defined(__x86_64__)
    union {
        vd all;
        __m128d pair[LANES / 2];
    } u = {*x};
    for (int r = 0; r < LANES / 2; r++)
        u.pair[r] = _mm_sqrt_pd(_mm_andnot_pd(_mm_cmple_pd(u.pair[r], _mm_setzero_pd()), u.pair[r]));
    *x = u.all;
#else
    for (int r = 0; r < LANES; r++)
        (*x)[r] = sqrt(!((*x)[r] <= 0.0) ? (*x)[r] : 0.0);
#endif
}

/* transpose_fn, one lane at a time */
static inline void transpose_portable(const double *rows, vd col[LANES])
{
    for (int j = 0; j < LANES; j++)
        for (int r = 0; r < LANES; r++)
            col[j][r] = rows[r * SEG + j];
}

/* chunk_fn, one vector of rows to a group: two spill the portable state */
static void chunk_portable(const euler_spec *m, const row_streams *rows, int64_t i0, int64_t n,
                           const rows_out *o, double *sum)
{
    for (int64_t i = i0; i < i0 + n; i += LANES)
        step_group(m, rows, i, i0 + n - i < LANES ? (int)(i0 + n - i) : LANES, o, sum,
                   philox_normal_fill_portable, sqrt_portable, transpose_portable, 1);
}

#if defined(__x86_64__)

AVX512 static inline void sqrt_avx512(vd *x)
{
    __mmask8 clamp = _mm512_cmp_pd_mask((__m512d)*x, _mm512_setzero_pd(), _CMP_LE_OQ);
    *x = (vd)_mm512_sqrt_pd(_mm512_mask_mov_pd((__m512d)*x, clamp, _mm512_setzero_pd()));
}

/* transpose_fn in registers */
AVX512 static inline void transpose_avx512(const double *rows, vd col[LANES])
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
        col[j] = (vd)_mm512_shuffle_f64x2(q[j], q[4 + j], 0x44);
        col[4 + j] = (vd)_mm512_shuffle_f64x2(q[j], q[4 + j], 0xEE);
    }
}

/* chunk_portable's contract and bits, two vectors of rows to a group */
AVX512 static void chunk_avx512(const euler_spec *m, const row_streams *rows, int64_t i0,
                                int64_t n, const rows_out *o, double *sum)
{
    for (int64_t i = i0; i < i0 + n; i += MAX_VECS * LANES)
        step_group(m, rows, i, i0 + n - i < MAX_VECS * LANES ? (int)(i0 + n - i) : MAX_VECS * LANES,
                   o, sum, philox_normal_fill_avx512, sqrt_avx512, transpose_avx512, MAX_VECS);
}

#endif /* __x86_64__ */

/* ------------------------------------------------------------ threads */

#define MAX_THREADS 64

/* The chunks of one call, taken in turn by the caller's thread and its
 * helpers. */
typedef struct {
    chunk_fn *run;
    const euler_spec *m;
    row_streams rows;
    int64_t n_rows;
    rows_out out;
    double *sums;         /* observe mode: (chunks, n_steps), each chunk's sums */
    _Atomic int64_t next; /* the next chunk to take */
} rows_job;

static void *take_chunks(void *arg)
{
    rows_job *J = arg;
    const int64_t n_steps = J->m->n_steps;
    for (int64_t c; (c = atomic_fetch_add(&J->next, 1)) * CHUNK < J->n_rows;) {
        const int64_t i0 = c * CHUNK, left = J->n_rows - i0;
        double *sum = J->sums ? J->sums + c * n_steps : NULL;
        for (int64_t k = 0; sum && k < n_steps; k++)
            sum[k] = -0.0; /* -0.0 + x is x: the sum starts at the chunk's first product */
        J->run(J->m, &J->rows, i0, left < CHUNK ? left : CHUNK, &J->out, sum);
    }
    return NULL;
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

/* Step rows [0, n_rows) through m->n_steps Euler steps, row j on its own
 * stream, rows[j] or, with rows NULL, row j of keys (see row_streams), from
 * x0 (or its m->start), chunk by chunk with run, and write the
 * path functionals of row j to element j of the outputs, its terminal
 * state mapped by m->map_kind (left stepped in the observe mode).  A row
 * stops at the first step after which |Z| <= blow_up fails (NaN included),
 * Z the stepped state:
 * fail_step is that step's number, counted from 1, and its other outputs
 * are NaN.  fail_step is -1 for a row that never fails.
 * With m->weight, the observe mode, corr[k - 1] is step k's sum of
 * weight[j] * f(X_k) over the rows j: in row order within each chunk of
 * CHUNK rows, then over the chunks in order, so it depends on neither the
 * thread count nor the path; a sum from the first failing step on is
 * undefined.  The chunks are taken in turn by the caller's thread and up to
 * threads - 1 helpers placed off its CPU, joined before the return.
 * Returns 0, or -1 if memory runs out. */
static int64_t split_rows(chunk_fn *run, const euler_spec *m, row_state *rows,
                          const stream_keys *keys, int64_t n_rows, rows_out out, double *corr,
                          int64_t threads)
{
    const int64_t n_chunks = (n_rows + CHUNK - 1) / CHUNK, n_steps = m->n_steps;
    rows_job J = {run, m, {rows, keys}, n_rows, out, NULL, 0};
    if (m->weight && n_chunks * n_steps > 0
        && !(J.sums = malloc(n_chunks * n_steps * sizeof *J.sums)))
        return -1;
    threads = threads < n_chunks ? threads : n_chunks;
    threads = threads < MAX_THREADS ? threads : MAX_THREADS;
    pthread_t helper[MAX_THREADS];
    int helpers = 0;
    if (threads > 1) {
        pthread_attr_t attr;
        const int have_attr = pthread_attr_init(&attr) == 0;
        if (have_attr)
            spread_helpers(&attr);
        for (int t = 1; t < threads; t++)
            helpers += pthread_create(&helper[helpers], have_attr ? &attr : NULL, take_chunks,
                                      &J) == 0;
        if (have_attr)
            pthread_attr_destroy(&attr);
    }
    take_chunks(&J);
    for (int t = 0; t < helpers; t++)
        pthread_join(helper[t], NULL);
    if (m->weight) {
        for (int64_t k = 0; k < n_steps; k++)
            corr[k] = -0.0;
        for (int64_t c = 0; J.sums && c < n_chunks; c++)
            for (int64_t k = 0; k < n_steps; k++)
                corr[k] += J.sums[c * n_steps + k];
        free(J.sums);
    }
    return 0;
}

int64_t euler_rows_portable(const euler_spec *m, row_state *rows, const stream_keys *keys,
                            int64_t n_rows, double *xi_c, double *xi_r, double *sup_abs,
                            double *terminal, int64_t *fail_step, double *corr, int64_t threads)
{
    return split_rows(chunk_portable, m, rows, keys, n_rows,
                      (rows_out){xi_c, xi_r, sup_abs, terminal, fail_step}, corr, threads);
}

#if defined(__x86_64__)

int64_t euler_rows_avx512(const euler_spec *m, row_state *rows, const stream_keys *keys,
                          int64_t n_rows, double *xi_c, double *xi_r, double *sup_abs,
                          double *terminal, int64_t *fail_step, double *corr, int64_t threads)
{
    return split_rows(chunk_avx512, m, rows, keys, n_rows,
                      (rows_out){xi_c, xi_r, sup_abs, terminal, fail_step}, corr, threads);
}

#endif /* __x86_64__ */

/* ------------------------------------------- tabulated antiderivative */

/* The queries z[0 .. n-1] of quadrature.Antiderivative into out, on a table
 * of n_nodes >= 2 uniform nodes, their cumulative sums cum and the
 * panel-major (n_panels, 8) power-basis coefficients coef of each panel's
 * L.  Per point: the clip of np.clip to [nodes[0], nodes[n_nodes - 1]]
 * (NaN stays NaN); the panel index of np.searchsorted(nodes, z, "right") - 1
 * clipped to the panels, where NaN sorts last: the last node at or below
 * the point, found by a uniform-grid guess moved to the neighbouring node
 * where it is off; and cum[g] + s L(s - 1) by Horner's rule.  Points go
 * QUERY_BLOCK at a time, clips and panels first and then the polynomials,
 * so that the dependent Horner chains of neighbouring points overlap
 * rather than wait on the branchy search between them. */
#define QUERY_BLOCK 256
void antiderivative_eval(const double *nodes, int64_t n_nodes, double half, const double *cum,
                         const double *coef, const double *z, int64_t n, double *out)
{
    const int64_t last = n_nodes - 2; /* the last panel */
    const double lo = nodes[0], hi = nodes[n_nodes - 1];
    const double per_panel = (double)(n_nodes - 1) / (hi - lo);
    int64_t panel[QUERY_BLOCK];
    double at[QUERY_BLOCK]; /* s = x + 1, exactly 0 on the left node */
    for (int64_t i0 = 0; i0 < n; i0 += QUERY_BLOCK) {
        const int64_t m = n - i0 < QUERY_BLOCK ? n - i0 : QUERY_BLOCK;
        for (int64_t j = 0; j < m; j++) {
            double zc = z[i0 + j];
            int64_t g = last;
            if (zc == zc) {
                zc = zc > lo ? zc : lo;
                zc = zc < hi ? zc : hi;
                const double guess = (zc - lo) * per_panel;
                g = guess < (double)last ? (int64_t)guess : last;
                while (g > 0 && nodes[g] > zc)
                    g--;
                while (g < last && nodes[g + 1] <= zc)
                    g++;
            }
            panel[j] = g;
            at[j] = (zc - nodes[g]) / half;
        }
        for (int64_t j = 0; j < m; j++) {
            const double s = at[j], x = s - 1.0, *c = coef + 8 * panel[j];
            double p = c[7];
            for (int k = 6; k >= 0; k--)
                p = p * x + c[k];
            out[i0 + j] = cum[panel[j]] + s * p;
        }
    }
}

/* ------------------------------------------------------------- dispatch */

static fill_fn *fill_path = philox_normal_fill_portable;
static chunk_fn *chunk_path = chunk_portable;
static const char *path_name = "portable";

/* Pick the path for this CPU, once, when the library is loaded. */
__attribute__((constructor)) static void pick_path(void)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")) {
        fill_path = philox_normal_fill_avx512;
        chunk_path = chunk_avx512;
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

int64_t euler_rows(const euler_spec *m, row_state *rows, const stream_keys *keys,
                   int64_t n_rows, double *xi_c, double *xi_r, double *sup_abs,
                   double *terminal, int64_t *fail_step, double *corr, int64_t threads)
{
    return split_rows(chunk_path, m, rows, keys, n_rows,
                      (rows_out){xi_c, xi_r, sup_abs, terminal, fail_step}, corr, threads);
}
