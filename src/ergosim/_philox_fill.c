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
 * segment of SEG_WORDS words, two counter blocks per Philox call so that
 * the two dependent 10-round chains overlap.  Each word becomes a normal
 * inline through the fast path of numpy's ziggurat: idx = w & 0xff, the
 * sign bit, rabs = 52 bits; the word is accepted when rabs < ki[idx] and
 * gives rabs * wi[idx] with its sign bit set by an xor, which is exactly
 * numpy's -x.  A word that is not accepted (about 0.7%, the tail
 * included) is handed to numpy's own random_standard_normal from
 * numpy/random/lib/libnpyrandom.a: the row state is pointed at that word
 * (its block's counter, its 4-word buffer and its position), numpy redraws
 * it and runs its own wedge and tail code, and the loop resumes at the
 * word after the last one numpy consumed.
 *
 * ki and wi are numpy's tables, read out of random_standard_normal itself
 * by philox_probe_tables with scripted words, once per process; the
 * loader compares a filled row with numpy's stream before the fill is
 * used.  No Python object is touched, so the caller may release the GIL.
 */
#include <stdint.h>
#include <string.h>

#include "numpy/random/bitgen.h"

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

/* Point r at word s of the segment that follows counter base. */
static void point_at(row_state *r, const uint64_t base[4], const uint64_t *seg, int s)
{
    ctr_add(r->ctr, base, (uint64_t)(s / 4) + 1);
    memcpy(r->buf, seg + 4 * (s / 4), sizeof r->buf);
    r->pos = (uint64_t)(s % 4);
}

/* Fill row j of the C-contiguous (n_rows, width) array out from rows[j]. */
void philox_normal_fill(row_state *rows, int64_t n_rows, double *out, int64_t width)
{
    bitgen_t gen = {0};
    gen.next_uint64 = next64;
    gen.next_double = next_double;
    gen.next_raw = next64;
    uint64_t seg[SEG_WORDS];
    for (int64_t j = 0; j < n_rows; j++) {
        row_state *r = rows + j;
        double *o = out + j * width;
        int64_t i = 0;
        gen.state = r;
        while (i < width) {
            if (r->pos < 4) {
                if (!ziggurat_fast(r->buf[r->pos++], o + i)) {
                    r->pos--;
                    o[i] = random_standard_normal(&gen);
                }
                i++;
                continue;
            }
            /* the buffer is empty: generate a segment after r->ctr */
            uint64_t base[4], ca[4], cb[4];
            memcpy(base, r->ctr, sizeof base);
            memcpy(cb, base, sizeof cb);
            int64_t need = (width - i + 3) / 4;
            int n_blocks = need >= SEG_BLOCKS ? SEG_BLOCKS : (int)((need + 1) & ~1);
            for (int blk = 0; blk < n_blocks; blk += 2) {
                ctr_inc(cb);
                memcpy(ca, cb, sizeof ca);
                ctr_inc(cb);
                philox_pair(ca, cb, r->key, seg + 4 * blk);
            }
            int n_words = 4 * n_blocks, s = 0;
            while (s < n_words && i < width) {
                /* accepted words up to the first slow one, the segment's end
                 * or the row's end */
                int m = n_words - s < width - i ? n_words - s : (int)(width - i), k = 0;
                while (k < m && ziggurat_fast(seg[s + k], o + i + k))
                    k++;
                s += k, i += k;
                if (k == m)
                    break;
                point_at(r, base, seg, s);
                o[i++] = random_standard_normal(&gen);
                /* resume after numpy's last word, a few blocks on at most */
                s = (int)((r->ctr[0] - base[0] - 1) * 4 + r->pos);
            }
            /* s > n_words: numpy drew past the segment and r is current */
            if (s <= n_words)
                point_at(r, base, seg, s - 1), r->pos++;
        }
    }
}
