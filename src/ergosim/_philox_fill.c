/*
 * Standard normals from per-row Philox4x64-10 streams, bit for bit the
 * ones numpy's Generator(Philox(...)).standard_normal draws.
 *
 * Each row keeps numpy's Philox state in 11 uint64 words: the counter (4),
 * the key (2), the output buffer (4) and the buffer position.  next64
 * follows numpy's philox_next: the counter is incremented (with carry)
 * before each new 4-word block, and the block's words are handed out one
 * at a time.  The normals themselves come from numpy's own ziggurat,
 * random_standard_normal_fill in numpy/random/lib/libnpyrandom.a.  No
 * Python object is touched, so the caller may release the GIL.
 */
#include <stdint.h>

#include "numpy/random/bitgen.h"

/* distributions.h declares this with npy_intp, which is intptr_t */
void random_standard_normal_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);

typedef struct {
    uint64_t ctr[4], key[2], buf[4], pos;
} row_state;

static uint64_t next64(void *st)
{
    row_state *r = st;
    if (r->pos < 4)
        return r->buf[r->pos++];
    if (++r->ctr[0] == 0 && ++r->ctr[1] == 0 && ++r->ctr[2] == 0)
        ++r->ctr[3];
    uint64_t c0 = r->ctr[0], c1 = r->ctr[1], c2 = r->ctr[2], c3 = r->ctr[3];
    uint64_t k0 = r->key[0], k1 = r->key[1];
    for (int round = 0; round < 10; round++) {
        __uint128_t p0 = (__uint128_t)0xD2E7470EE14C6C93ULL * c0;
        __uint128_t p1 = (__uint128_t)0xCA5A826395121157ULL * c2;
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
        c1 = (uint64_t)p1;
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
        c3 = (uint64_t)p0;
        k0 += 0x9E3779B97F4A7C15ULL;
        k1 += 0xBB67AE8584CAA73BULL;
    }
    r->buf[0] = c0, r->buf[1] = c1, r->buf[2] = c2, r->buf[3] = c3;
    r->pos = 1;
    return c0;
}

static double next_double(void *st)
{
    return (next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* Fill row j of the C-contiguous (n_rows, width) array out from rows[j]. */
void philox_normal_fill(row_state *rows, int64_t n_rows, double *out, int64_t width)
{
    /* the ziggurat draws only 64-bit words and doubles */
    bitgen_t gen = {0};
    gen.next_uint64 = next64;
    gen.next_double = next_double;
    gen.next_raw = next64;
    for (int64_t j = 0; j < n_rows; j++) {
        gen.state = rows + j;
        random_standard_normal_fill(&gen, width, out + j * width);
    }
}
