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
 * euler_rows runs the scaled Euler kernel on whole rows, from their states
 * or from their stream keys: for a group of rows at a time it fills the
 * next SEG normals of each row into an on-stack block with the same fill,
 * then steps and observes the rows together, so their dependency chains
 * interleave.  Its arithmetic is the
 * numpy kernel's, in the same association order; the build turns FMA
 * contraction off.  One call takes its rows CHUNK at a time on the
 * caller's thread and threads - 1 POSIX threads it starts, places off the
 * caller's CPU and joins itself.  Its observe mode runs the
 * autocorrelation route of M_f (variance.py): each row starts from its own
 * state with a weight w, and each step's sum of w f(X_k) over the rows is
 * taken in row order within each chunk and then over the chunks in order,
 * so that no bit of it depends on the thread count or the path; the route
 * reads no xi_r or sup_abs, so this mode skips both and writes NaN.
 *
 * The fill and the Euler kernel come in two paths that give the same bits:
 *  - portable (philox_normal_fill_portable, euler_rows_portable): two
 *    counter blocks per Philox call so that the two dependent 10-round
 *    chains overlap, one ziggurat word at a time, and four rows stepped
 *    together in scalar arithmetic;
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
 *    so that the vector holds one step of its 8 rows.
 * Both paths take a word their fast path does not accept through the same
 * scalar wedge and tail code.
 * philox_normal_fill and euler_rows take the avx512 path when the CPU has
 * both extensions, checked once when the library is loaded, and the
 * portable path otherwise; native_path names the one picked.
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

/* Fill row j of the C-contiguous (n_rows, width) array out from rows[j].
 * Never inlined: the Euler kernel calls it for each row's next SEG normals,
 * and each of its compiled kind pairs would otherwise carry a copy. */
__attribute__((noinline)) void philox_normal_fill_portable(row_state *rows, int64_t n_rows,
                                                        double *out, int64_t width)
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

AVX512 __attribute__((noinline)) void philox_normal_fill_avx512(row_state *rows, int64_t n_rows,
                                                              double *out, int64_t width)
{
    for (int64_t j = 0; j < n_rows; j++)
        fill_row(rows + j, out + j * width, width, segment_avx512, accept_avx512);
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
    const double *start;   /* NULL, or each row's start state in place of x0 */
    const double *weight;  /* NULL, or each row's weight w: the observe mode */
} euler_spec;

/* The per-row outputs of a call, row j at element j */
typedef struct {
    double *xi_c, *xi_r, *sup_abs, *terminal;
    int64_t *fail_step;
} rows_out;

#define GROUP 4   /* rows stepped together on the portable path */
#define SEG 256   /* steps of normals filled per row at a time */
#define CHUNK 256 /* rows a thread takes at a time, and of one partial sum */

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

/* Rows i0 .. i0+n-1 as one group, n <= GROUP; spare lanes step zero noise,
 * unread.  With obs, step k adds the rows' products w * f(X_k), in row
 * order, to sum[k - 1]; xi_r and sup_abs, which the sums' caller does not
 * read, are then not accumulated and come out NaN. */
static inline __attribute__((always_inline)) void
step_group(const euler_spec *m, int dk, int sk, int obs, const row_streams *streams, int64_t i0,
           int n, const rows_out *o, double *sum)
{
    row_state own[GROUP];
    row_state *rows = group_states(streams, i0, n, own);
    double noise[GROUP][SEG];
    double z[GROUP], fp[GROUP], w[GROUP], xc[GROUP], xr[GROUP], sup[GROUP];
    int64_t fail[GROUP];
    const double h = m->h, sqrt_h = m->sqrt_h, dt = m->dt, blow_up = m->blow_up;
    for (int r = 0; r < GROUP; r++) {
        /* a spare lane starts at x0 and counts as failed from the start */
        z[r] = m->start && r < n ? m->start[i0 + r] : m->x0;
        fp[r] = polyval(m->f, m->n_f, z[r]) - m->f_c0;
        w[r] = obs && r < n ? m->weight[i0 + r] : 0.0;
        xc[r] = xr[r] = sup[r] = 0.0, fail[r] = r < n ? -1 : 0;
        if (r >= n)
            memset(noise[r], 0, sizeof noise[r]);
    }
    int alive = n;
    for (int64_t k0 = 0; k0 < m->n_steps && alive; k0 += SEG) {
        int width = m->n_steps - k0 < SEG ? (int)(m->n_steps - k0) : SEG;
        for (int r = 0; r < n; r++)
            if (fail[r] < 0)
                philox_normal_fill_portable(rows + r, 1, noise[r], width);
        for (int k = 0; k < width; k++) {
            const double c = m->control ? m->control[k0 + k] : 0.0;
            double p[GROUP];
            for (int r = 0; r < GROUP; r++) {
                double x = z[r];
                double s = diffusion(m, sk, x);
                double x1 = (x + h * drift(m, dk, x)) + (sqrt_h * s) * noise[r][k];
                if (m->control)
                    x1 = x1 + c * s;
                double f1 = polyval(m->f, m->n_f, x1) - m->f_c0;
                if (!obs)
                    xr[r] = xr[r] + fp[r] * dt;
                xc[r] = xc[r] + 0.5 * (fp[r] + f1) * dt;
                double a = fabs(xc[r]);
                if (!obs && !(a <= sup[r])) /* numpy's maximum: a NaN wins */
                    sup[r] = a;
                fp[r] = f1;
                z[r] = x1;
                if (!(fabs(x1) <= blow_up) && fail[r] < 0)
                    fail[r] = k0 + k + 1, alive--;
                if (obs)
                    p[r] = w[r] * f1;
            }
            if (obs) {
                double s = sum[k0 + k];
                for (int r = 0; r < n; r++)
                    s += p[r];
                sum[k0 + k] = s;
            }
        }
    }
    for (int r = 0; r < n; r++) {
        int ok = fail[r] < 0;
        o->xi_c[i0 + r] = ok ? xc[r] : NAN;
        o->xi_r[i0 + r] = ok && !obs ? xr[r] : NAN;
        o->sup_abs[i0 + r] = ok && !obs ? sup[r] : NAN;
        o->terminal[i0 + r] = ok ? z[r] : NAN;
        o->fail_step[i0 + r] = fail[r];
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

/* Rows i0 .. i0+n-1 of a call on one path, in the observe mode when sum is
 * given: the chunk's sum of each step, which starts at -0.0. */
typedef void chunk_fn(const euler_spec *m, const row_streams *rows, int64_t i0, int64_t n,
                      const rows_out *o, double *sum);

/* Rows i0 .. i0+n-1 of one chunk, GROUP at a time */
static inline __attribute__((always_inline)) void
run_rows(const euler_spec *m, int dk, int sk, int obs, const row_streams *rows, int64_t i0,
         int64_t n, const rows_out *o, double *sum)
{
    for (int64_t i = i0; i < i0 + n; i += GROUP)
        step_group(m, dk, sk, obs, rows, i, i0 + n - i < GROUP ? (int)(i0 + n - i) : GROUP, o, sum);
}

/* The plain kernel is compiled for each kind pair; the observe mode apart
 * from it, once, with the kind pair read at run time. */
static void chunk_portable(const euler_spec *m, const row_streams *rows, int64_t i0, int64_t n,
                           const rows_out *o, double *sum)
{
    if (sum) {
        run_rows(m, (int)m->drift_kind, (int)m->diffusion_kind, 1, rows, i0, n, o, sum);
        return;
    }
#define RUN(dk, sk) run_rows(m, dk, sk, 0, rows, i0, n, o, NULL)
    SWITCH_KINDS(RUN)
#undef RUN
}

#if defined(__x86_64__)

#define LANES 8 /* rows per vector */
#define VECS 2  /* vectors of rows stepped together in a group */

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

/* step_group on rows i0 .. i0+n-1, n <= VECS * LANES, lane r of vector q
 * holding row i0 + q * LANES + r, so that the vectors' dependency chains
 * interleave; spare and failed lanes are masked out of the blow-up check
 * and the outputs, and spare lanes out of the sums. */
AVX512 static inline __attribute__((always_inline)) void
step_group8(const euler_spec *m, int dk, int sk, int obs, const row_streams *streams,
            int64_t i0, int n, const rows_out *o, double *sum)
{
    row_state own[VECS * LANES];
    row_state *rows = group_states(streams, i0, n, own);
    _Alignas(64) double noise[VECS * LANES][SEG];
    _Alignas(64) double prod[LANES][VECS * LANES]; /* a tile's products, step by row */
    const __m512d h = _mm512_set1_pd(m->h), sqrt_h = _mm512_set1_pd(m->sqrt_h);
    const __m512d dt = _mm512_set1_pd(m->dt), blow_up = _mm512_set1_pd(m->blow_up);
    const __m512d half = _mm512_set1_pd(0.5), f_c0 = _mm512_set1_pd(m->f_c0);
    /* bit r: row r, lane r % LANES of vector r / LANES */
    const unsigned rows_in = (1u << n) - 1;
    unsigned alive = rows_in;
    __m512i fail[VECS];
    __m512d z[VECS], fp[VECS], w[VECS], xc[VECS], xr[VECS], sup[VECS];
    for (int q = 0; q < VECS; q++) {
        /* a spare lane starts at x0 and counts as failed from the start */
        const __mmask8 in = (__mmask8)(rows_in >> q * LANES);
        const int64_t at = i0 + q * LANES;
        fail[q] = _mm512_mask_mov_epi64(_mm512_setzero_si512(), in, _mm512_set1_epi64(-1));
        z[q] = _mm512_set1_pd(m->x0);
        if (m->start)
            z[q] = _mm512_mask_loadu_pd(z[q], in, m->start + at);
        fp[q] = _mm512_sub_pd(polyval8(m->f, m->n_f, z[q]), f_c0);
        w[q] = obs ? _mm512_maskz_loadu_pd(in, m->weight + at) : _mm512_setzero_pd();
        xc[q] = xr[q] = sup[q] = _mm512_setzero_pd();
    }
    /* spare rows step zero noise; a tile past width reads defined columns */
    memset(noise, 0, sizeof noise);
    for (int64_t k0 = 0; k0 < m->n_steps && alive; k0 += SEG) {
        int width = m->n_steps - k0 < SEG ? (int)(m->n_steps - k0) : SEG;
        for (int r = 0; r < n; r++)
            if (alive >> r & 1)
                philox_normal_fill_avx512(rows + r, 1, noise[r], width);
        for (int k = 0; k < width; k += LANES) {
            int cols = width - k < LANES ? width - k : LANES;
            __m512d col[VECS][LANES];
            for (int q = 0; q < VECS; q++)
                transpose8(&noise[q * LANES][k], col[q]);
            for (int j = 0; j < cols; j++)
                for (int q = 0; q < VECS; q++) {
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
                    if (!obs)
                        xr[q] = _mm512_add_pd(xr[q], _mm512_mul_pd(fp[q], dt));
                    __m512d mid = _mm512_mul_pd(half, _mm512_add_pd(fp[q], f1));
                    xc[q] = _mm512_add_pd(xc[q], _mm512_mul_pd(mid, dt));
                    if (!obs) {
                        /* sup where a <= sup, else a: numpy's maximum, a NaN wins */
                        __m512d a = _mm512_abs_pd(xc[q]);
                        sup[q] = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(a, sup[q], _CMP_LE_OQ),
                                                      a, sup[q]);
                    }
                    fp[q] = f1;
                    z[q] = x1;
                    __mmask8 kept = _mm512_cmp_pd_mask(_mm512_abs_pd(x1), blow_up, _CMP_LE_OQ);
                    __mmask8 gone = (__mmask8)(alive >> q * LANES) & ~kept;
                    fail[q] = _mm512_mask_mov_epi64(fail[q], gone,
                                                    _mm512_set1_epi64(k0 + k + j + 1));
                    alive &= ~((unsigned)gone << q * LANES);
                    if (obs)
                        _mm512_store_pd(prod[j] + q * LANES, _mm512_mul_pd(w[q], f1));
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
    const __m512d nan = _mm512_set1_pd(NAN);
    for (int q = 0; q < VECS; q++) {
        const __mmask8 ok = _mm512_cmplt_epi64_mask(fail[q], _mm512_setzero_si512());
        const __mmask8 kept = obs ? 0 : ok; /* xi_r and sup_abs, NaN in the observe mode */
        const __mmask8 in = (__mmask8)(rows_in >> q * LANES);
        const int64_t at = i0 + q * LANES;
        _mm512_mask_storeu_pd(o->xi_c + at, in, _mm512_mask_blend_pd(ok, nan, xc[q]));
        _mm512_mask_storeu_pd(o->xi_r + at, in, _mm512_mask_blend_pd(kept, nan, xr[q]));
        _mm512_mask_storeu_pd(o->sup_abs + at, in, _mm512_mask_blend_pd(kept, nan, sup[q]));
        _mm512_mask_storeu_pd(o->terminal + at, in, _mm512_mask_blend_pd(ok, nan, z[q]));
        _mm512_mask_storeu_epi64(o->fail_step + at, in, fail[q]);
    }
}

/* run_rows, VECS * LANES rows at a time */
AVX512 static inline __attribute__((always_inline)) void
run_rows8(const euler_spec *m, int dk, int sk, int obs, const row_streams *rows, int64_t i0,
          int64_t n, const rows_out *o, double *sum)
{
    for (int64_t i = i0; i < i0 + n; i += VECS * LANES)
        step_group8(m, dk, sk, obs, rows, i,
                    i0 + n - i < VECS * LANES ? (int)(i0 + n - i) : VECS * LANES, o, sum);
}

/* chunk_portable's contract and bits */
AVX512 static void chunk_avx512(const euler_spec *m, const row_streams *rows, int64_t i0,
                                int64_t n, const rows_out *o, double *sum)
{
    if (sum) {
        run_rows8(m, (int)m->drift_kind, (int)m->diffusion_kind, 1, rows, i0, n, o, sum);
        return;
    }
#define RUN(dk, sk) run_rows8(m, dk, sk, 0, rows, i0, n, o, NULL)
    SWITCH_KINDS(RUN)
#undef RUN
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
 * path functionals of row j to element j of the outputs.  A row stops at
 * the first step after which |Z| <= blow_up fails (NaN included):
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

/* ------------------------------------------------------------- dispatch */

typedef void fill_fn(row_state *, int64_t, double *, int64_t);
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
