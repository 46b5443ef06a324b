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
 * segment of SEG_WORDS words.  Each word becomes a normal inline through
 * the fast path of numpy's ziggurat: idx = w & 0xff, the sign bit, rabs =
 * 52 bits; the word is accepted when rabs < ki[idx] and gives rabs *
 * wi[idx] with its sign bit set by an xor, which is exactly numpy's -x.  A
 * word that is not accepted (about 1.5%, the tail included) is handed to
 * numpy's own random_standard_normal from numpy/random/lib/libnpyrandom.a:
 * the row state is pointed at that word (its block's counter, its 4-word
 * buffer and its position), numpy redraws it and runs its own wedge and
 * tail code, and the loop resumes at the word after the last one numpy
 * consumed.
 *
 * ki and wi are numpy's tables, read out of random_standard_normal itself
 * by philox_probe_tables with scripted words, once per process; the
 * loader compares a filled row with numpy's stream before the fill is
 * used.  No Python object is touched, so the caller may release the GIL.
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
 * and observes every path and leaves f(X_0) f(X_s) in a row of a block
 * that the caller sums.  Its arithmetic is the numpy loop's of that route.
 *
 * The entry points come in two paths that give the same bits:
 *  - portable (philox_normal_fill_portable, euler_rows_portable,
 *    autocorr_steps_portable): two counter blocks per Philox call so that
 *    the two dependent 10-round chains overlap, one ziggurat word at a
 *    time, four rows stepped together in scalar arithmetic, one path at a
 *    time in autocorr_steps;
 *  - avx512 (x86-64 only, compiled for avx512f and avx512dq by target
 *    attributes, so the build flags stay the same): a segment's 16 blocks
 *    are two 8-lane Philox runs, one block per 64-bit lane, each 64x64 ->
 *    128-bit product built from four 32x32 -> 64-bit ones; the ziggurat
 *    fast path takes 8 words per step, its table lookups gathered, up to
 *    the first word it does not accept; and the Euler step moves 8 rows
 *    in one vector, with lane masks in place of the scalar path's
 *    branches (sup_abs, the blow-up check, spare and failed rows); each
 *    8-step tile of the rows' normals is transposed in registers, so that
 *    a vector holds one step of all 8 rows; autocorr_steps steps 8 paths
 *    per vector.
 * philox_normal_fill, euler_rows and autocorr_steps take the avx512 path
 * when the CPU has both extensions, checked once when the library is
 * loaded, and the portable path otherwise; native_path names the one
 * picked.
 *
 * antiderivative_eval answers the queries of quadrature.Antiderivative:
 * per point a clip, the panel np.searchsorted would give, and the panel's
 * degree-7 Legendre series in the association order of numpy's legval.
 * It has one plain path and no routing.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#include "numpy/random/bitgen.h"

#if defined(__x86_64__)
#include <immintrin.h>
#define AVX512 __attribute__((target("avx512f,avx512dq")))
#endif

double random_standard_normal(bitgen_t *bitgen_state);

typedef struct {
    uint64_t ctr[4], key[2], buf[4], pos;
} row_state;

_Static_assert(sizeof(row_state) == 11 * sizeof(uint64_t),
               "row_state must be _STATE_WORDS (11) uint64 words");

#define SEG_BLOCKS 16 /* Philox blocks per segment; even, blocks go in pairs */
#define SEG_WORDS (4 * SEG_BLOCKS)
#define RABS_END (1ULL << 52)

static uint64_t ki[256];
static double wi[256];

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

/* numpy's philox_next64 on a row state: the slow path's bit generator */
static uint64_t next64(void *st)
{
    row_state *r = st;
    if (r->pos < 4)
        return r->buf[r->pos++];
    ctr_inc(r->ctr);
    philox_block(r->ctr, r->key, r->buf);
    r->pos = 1;
    return r->buf[0];
}

static double next_double(void *st)
{
    return (next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* ------------------------------------------------------------- ziggurat */

/* The fast-path normal of word w into *x (always written); 1 if accepted. */
static inline int ziggurat_fast(uint64_t w, double *x)
{
    unsigned idx = w & 0xff;
    uint64_t rabs = (w >> 9) & (RABS_END - 1);
    double v = (double)(int64_t)rabs * wi[idx];
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    bits ^= ((w >> 8) & 1) << 63;
    memcpy(x, &bits, sizeof bits);
    return rabs < ki[idx];
}

/* A bit generator that hands out one scripted word, then words and doubles
 * that numpy's ziggurat accepts at once, and counts the draws. */
typedef struct {
    uint64_t word;
    int draws;
} probe_state;

static uint64_t probe_next64(void *st)
{
    probe_state *p = st;
    return p->draws++ ? 0 : p->word; /* word 0: idx 0, rabs 0 < ki[0] */
}

static double probe_next_double(void *st)
{
    ((probe_state *)st)->draws++;
    return 0.5; /* ends the tail loop at its first pass */
}

static double probe(uint64_t word, int *draws)
{
    probe_state p = {word, 0};
    bitgen_t gen = {0};
    gen.state = &p;
    gen.next_uint64 = probe_next64;
    gen.next_double = probe_next_double;
    gen.next_raw = probe_next64;
    double x = random_standard_normal(&gen);
    *draws = p.draws;
    return x;
}

/* Read ki and wi out of numpy's random_standard_normal.  ki[idx] is the
 * smallest rabs not accepted in one word (binary search, since acceptance
 * is rabs < ki[idx]); wi[idx] is the value returned for rabs = 1.  When
 * ki[idx] <= 1 that value comes from the wedge test, which returns the
 * same rabs * wi[idx] when it accepts. */
void philox_probe_tables(void)
{
    for (unsigned idx = 0; idx < 256; idx++) {
        uint64_t lo = 0, hi = RABS_END;
        while (lo < hi) {
            uint64_t mid = lo + (hi - lo) / 2;
            int draws;
            probe(mid << 9 | idx, &draws);
            if (draws == 1)
                lo = mid + 1;
            else
                hi = mid;
        }
        ki[idx] = lo;
        int draws;
        wi[idx] = probe(1ULL << 9 | idx, &draws);
    }
}

/* ----------------------------------------------------------------- fill */

/* The n_blocks (even, at most SEG_BLOCKS) Philox blocks after counter base
 * into seg; a path may write up to SEG_WORDS words. */
typedef void segment_fn(const uint64_t base[4], const uint64_t key[2], int n_blocks,
                        uint64_t *seg);

/* The fast-path normals of words w[0..m) into o[0..m), up to the first word
 * the fast path does not accept; returns how many it accepted (m if all). */
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
fill_row(bitgen_t *gen, row_state *r, double *o, int64_t width, segment_fn *segment,
         accept_fn *accept)
{
    uint64_t seg[SEG_WORDS];
    int64_t i = 0;
    gen->state = r;
    while (i < width) {
        if (r->pos < 4) {
            if (!ziggurat_fast(r->buf[r->pos++], o + i)) {
                r->pos--;
                o[i] = random_standard_normal(gen);
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
        while (s < n_words && i < width) {
            /* accepted words up to the first slow one, the segment's end
             * or the row's end */
            int m = n_words - s < width - i ? n_words - s : (int)(width - i);
            int k = accept(seg + s, m, o + i);
            s += k, i += k;
            if (k == m)
                break;
            point_at(r, base, seg, s);
            o[i++] = random_standard_normal(gen);
            /* resume after numpy's last word, a few blocks on at most */
            s = (int)((r->ctr[0] - base[0] - 1) * 4 + r->pos);
        }
        /* s > n_words: numpy drew past the segment and r is current */
        if (s <= n_words)
            point_at(r, base, seg, s - 1), r->pos++;
    }
}

static bitgen_t row_generator(void)
{
    bitgen_t gen = {0};
    gen.next_uint64 = next64;
    gen.next_double = next_double;
    gen.next_raw = next64;
    return gen;
}

/* Fill row j of the C-contiguous (n_rows, width) array out from rows[j]. */
void philox_normal_fill_portable(row_state *rows, int64_t n_rows, double *out, int64_t width)
{
    bitgen_t gen = row_generator();
    for (int64_t j = 0; j < n_rows; j++)
        fill_row(&gen, rows + j, out + j * width, width, segment_portable, accept_portable);
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

/* segment_fn: both 8-block runs, or the first alone when it covers n_blocks */
AVX512 static void segment_avx512(const uint64_t base[4], const uint64_t key[2], int n_blocks,
                                  uint64_t *seg)
{
    if (n_blocks > 8)
        philox8(base, key, 2, seg);
    else
        philox8(base, key, 1, seg);
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
        __m512i kis = _mm512_i64gather_epi64(idx, (const void *)ki, 8);
        __m512d wis = _mm512_i64gather_pd(idx, (const void *)wi, 8);
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
    bitgen_t gen = row_generator();
    for (int64_t j = 0; j < n_rows; j++)
        fill_row(&gen, rows + j, out + j * width, width, segment_avx512, accept_avx512);
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
step_group(const euler_spec *m, int dk, int sk, bitgen_t *gen, row_state *rows, int n,
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
                fill_row(gen, rows + r, noise[r], width, segment_portable, accept_portable);
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
    bitgen_t gen = row_generator();
    for (int64_t j = 0; j < n_rows; j += GROUP) {
        int n = n_rows - j < GROUP ? (int)(n_rows - j) : GROUP;
        step_group(m, dk, sk, &gen, rows + j, n, xi_c + j, xi_r + j, sup_abs + j,
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

/* Steps first+1 .. first+k of the autocorrelation route of M_f: n paths,
 * their states in y, their normals all from the one stream row, step j
 * after the n normals of step j-1.  Step first+1+r fills its n normals
 * into row r of the C-contiguous (k, n) array prod with this path's fill,
 * then for each path i steps y[i] with (y + h*b) + (sqrt_h*s)*xi,
 * observes fs = f(y[i]), adds fs to acc[i] (0.5*fs at step m->n_steps)
 * and writes f0[i]*fs over the normal.  Returns the first step after which some
 * |y[i]| <= m->blow_up fails (NaN included), with that step finished for
 * every path, or -1 if none does. */
static inline __attribute__((always_inline)) int64_t
autocorr_block(const euler_spec *m, int dk, int sk, row_state *row, int64_t n, int64_t first,
               int64_t k, double *y, const double *f0, double *acc, double *prod)
{
    const double h = m->h, sqrt_h = m->sqrt_h, blow_up = m->blow_up;
    for (int64_t r = 0; r < k; r++) {
        const int64_t step = first + r + 1;
        const double w = step < m->n_steps ? 1.0 : 0.5; /* 1.0 * fs is fs */
        double *p = prod + r * n;
        philox_normal_fill_portable(row, 1, p, n);
        int bad = 0;
        for (int64_t i = 0; i < n; i++) {
            double x = y[i];
            double x1 = (x + h * drift(m, dk, x)) + (sqrt_h * diffusion(m, sk, x)) * p[i];
            double fs = polyval(m->f, m->n_f, x1) - m->f_c0;
            acc[i] = acc[i] + w * fs;
            p[i] = f0[i] * fs;
            y[i] = x1;
            bad |= !(fabs(x1) <= blow_up);
        }
        if (bad)
            return step;
    }
    return -1;
}

int64_t autocorr_steps_portable(const euler_spec *m, row_state *row, int64_t n, int64_t first,
                                int64_t k, double *y, const double *f0, double *acc,
                                double *prod)
{
#define RUN(dk, sk) return autocorr_block(m, dk, sk, row, n, first, k, y, f0, acc, prod)
    SWITCH_KINDS(RUN)
#undef RUN
    return -1; /* not reached: euler.py passes only the kinds above */
}

#if defined(__x86_64__)

#define LANES 8 /* rows per vector, and per group on this path */

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

/* step_group on rows [0, n) of a group, n <= LANES, lane r holding row r;
 * spare and failed lanes are masked out of the blow-up check and the
 * outputs. */
AVX512 static inline __attribute__((always_inline)) void
step_group8(const euler_spec *m, int dk, int sk, bitgen_t *gen, row_state *rows, int n,
            double *xi_c, double *xi_r, double *sup_abs, double *terminal, int64_t *fail_step)
{
    _Alignas(64) double noise[LANES][SEG];
    const __m512d h = _mm512_set1_pd(m->h), sqrt_h = _mm512_set1_pd(m->sqrt_h);
    const __m512d dt = _mm512_set1_pd(m->dt), blow_up = _mm512_set1_pd(m->blow_up);
    const __m512d half = _mm512_set1_pd(0.5), f_c0 = _mm512_set1_pd(m->f_c0);
    /* a spare lane counts as failed from the start */
    const __mmask8 rows_in = (__mmask8)((1u << n) - 1);
    __mmask8 alive = rows_in;
    __m512i fail = _mm512_mask_mov_epi64(_mm512_setzero_si512(), alive, _mm512_set1_epi64(-1));
    __m512d z = _mm512_set1_pd(m->x0);
    __m512d fp = _mm512_set1_pd(polyval(m->f, m->n_f, m->x0) - m->f_c0);
    __m512d xc = _mm512_setzero_pd(), xr = xc, sup = xc;
    /* spare rows step zero noise; a tile past width reads defined columns */
    memset(noise, 0, sizeof noise);
    for (int64_t k0 = 0; k0 < m->n_steps && alive; k0 += SEG) {
        int width = m->n_steps - k0 < SEG ? (int)(m->n_steps - k0) : SEG;
        for (int r = 0; r < n; r++)
            if (alive >> r & 1)
                fill_row(gen, rows + r, noise[r], width, segment_avx512, accept_avx512);
        for (int k = 0; k < width; k += LANES) {
            int cols = width - k < LANES ? width - k : LANES;
            __m512d col[LANES];
            transpose8(&noise[0][k], col);
            for (int j = 0; j < cols; j++) {
                __m512d x = z;
                __m512d s = diffusion8(m, sk, x);
                __m512d drifted = _mm512_add_pd(x, _mm512_mul_pd(h, drift8(m, dk, x)));
                __m512d x1 =
                    _mm512_add_pd(drifted, _mm512_mul_pd(_mm512_mul_pd(sqrt_h, s), col[j]));
                if (m->control) {
                    __m512d c = _mm512_set1_pd(m->control[k0 + k + j]);
                    x1 = _mm512_add_pd(x1, _mm512_mul_pd(c, s));
                }
                __m512d f1 = _mm512_sub_pd(polyval8(m->f, m->n_f, x1), f_c0);
                xr = _mm512_add_pd(xr, _mm512_mul_pd(fp, dt));
                __m512d mid = _mm512_mul_pd(half, _mm512_add_pd(fp, f1));
                xc = _mm512_add_pd(xc, _mm512_mul_pd(mid, dt));
                /* sup where a <= sup, else a: numpy's maximum, a NaN wins */
                __m512d a = _mm512_abs_pd(xc);
                sup = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(a, sup, _CMP_LE_OQ), a, sup);
                fp = f1;
                z = x1;
                __mmask8 kept = _mm512_cmp_pd_mask(_mm512_abs_pd(x1), blow_up, _CMP_LE_OQ);
                __mmask8 gone = alive & ~kept;
                fail = _mm512_mask_mov_epi64(fail, gone, _mm512_set1_epi64(k0 + k + j + 1));
                alive &= ~gone;
            }
        }
    }
    const __m512d nan = _mm512_set1_pd(NAN);
    const __mmask8 ok = _mm512_cmplt_epi64_mask(fail, _mm512_setzero_si512());
    _mm512_mask_storeu_pd(xi_c, rows_in, _mm512_mask_blend_pd(ok, nan, xc));
    _mm512_mask_storeu_pd(xi_r, rows_in, _mm512_mask_blend_pd(ok, nan, xr));
    _mm512_mask_storeu_pd(sup_abs, rows_in, _mm512_mask_blend_pd(ok, nan, sup));
    _mm512_mask_storeu_pd(terminal, rows_in, _mm512_mask_blend_pd(ok, nan, z));
    _mm512_mask_storeu_epi64(fail_step, rows_in, fail);
}

AVX512 static inline __attribute__((always_inline)) void
run_rows8(const euler_spec *m, int dk, int sk, row_state *rows, int64_t n_rows,
          double *xi_c, double *xi_r, double *sup_abs, double *terminal, int64_t *fail_step)
{
    bitgen_t gen = row_generator();
    for (int64_t j = 0; j < n_rows; j += LANES) {
        int n = n_rows - j < LANES ? (int)(n_rows - j) : LANES;
        step_group8(m, dk, sk, &gen, rows + j, n, xi_c + j, xi_r + j, sup_abs + j,
                    terminal + j, fail_step + j);
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

/* autocorr_block with 8 paths per vector, the last vector masked */
AVX512 static inline __attribute__((always_inline)) int64_t
autocorr_block8(const euler_spec *m, int dk, int sk, row_state *row, int64_t n, int64_t first,
                int64_t k, double *y, const double *f0, double *acc, double *prod)
{
    const __m512d h = _mm512_set1_pd(m->h), sqrt_h = _mm512_set1_pd(m->sqrt_h);
    const __m512d blow_up = _mm512_set1_pd(m->blow_up), f_c0 = _mm512_set1_pd(m->f_c0);
    for (int64_t r = 0; r < k; r++) {
        const int64_t step = first + r + 1;
        const __m512d w = _mm512_set1_pd(step < m->n_steps ? 1.0 : 0.5);
        double *p = prod + r * n;
        philox_normal_fill_avx512(row, 1, p, n);
        __mmask8 bad = 0;
        for (int64_t i = 0; i < n; i += LANES) {
            const __mmask8 live = n - i >= LANES ? 0xff : (__mmask8)((1u << (n - i)) - 1);
            __m512d x = _mm512_maskz_loadu_pd(live, y + i);
            __m512d xi = _mm512_maskz_loadu_pd(live, p + i);
            __m512d s = diffusion8(m, sk, x);
            __m512d drifted = _mm512_add_pd(x, _mm512_mul_pd(h, drift8(m, dk, x)));
            __m512d x1 = _mm512_add_pd(drifted, _mm512_mul_pd(_mm512_mul_pd(sqrt_h, s), xi));
            __m512d fs = _mm512_sub_pd(polyval8(m->f, m->n_f, x1), f_c0);
            __m512d a = _mm512_add_pd(_mm512_maskz_loadu_pd(live, acc + i), _mm512_mul_pd(w, fs));
            __m512d g = _mm512_mul_pd(_mm512_maskz_loadu_pd(live, f0 + i), fs);
            _mm512_mask_storeu_pd(acc + i, live, a);
            _mm512_mask_storeu_pd(p + i, live, g);
            _mm512_mask_storeu_pd(y + i, live, x1);
            bad |= live & ~_mm512_cmp_pd_mask(_mm512_abs_pd(x1), blow_up, _CMP_LE_OQ);
        }
        if (bad)
            return step;
    }
    return -1;
}

/* autocorr_steps_portable's contract and bits */
AVX512 int64_t autocorr_steps_avx512(const euler_spec *m, row_state *row, int64_t n,
                                     int64_t first, int64_t k, double *y, const double *f0,
                                     double *acc, double *prod)
{
#define RUN(dk, sk) return autocorr_block8(m, dk, sk, row, n, first, k, y, f0, acc, prod)
    SWITCH_KINDS(RUN)
#undef RUN
    return -1;
}

#endif /* __x86_64__ */

/* ------------------------------------------------------------- dispatch */

typedef void fill_fn(row_state *, int64_t, double *, int64_t);
typedef void euler_fn(const euler_spec *, row_state *, int64_t, double *, double *, double *,
                      double *, int64_t *);
typedef int64_t autocorr_fn(const euler_spec *, row_state *, int64_t, int64_t, int64_t,
                            double *, const double *, double *, double *);

static fill_fn *fill_path = philox_normal_fill_portable;
static euler_fn *euler_path = euler_rows_portable;
static autocorr_fn *autocorr_path = autocorr_steps_portable;
static const char *path_name = "portable";

/* Pick the path for this CPU, once, when the library is loaded. */
__attribute__((constructor)) static void pick_path(void)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")) {
        fill_path = philox_normal_fill_avx512;
        euler_path = euler_rows_avx512;
        autocorr_path = autocorr_steps_avx512;
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
                       double *y, const double *f0, double *acc, double *prod)
{
    return autocorr_path(m, row, n, first, k, y, f0, acc, prod);
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
