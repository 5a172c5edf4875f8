/* Compiled bit-kernels for the SD-PCM simulator's write inner loops.
 *
 * Pure C with no Python.h dependency: the library is loaded through
 * ctypes, so one shared object serves every CPython version (and the
 * build needs only a C compiler, not Python headers).  Every function
 * mirrors a retained reference byte-for-byte — pure Python in
 * repro.pcm.line / repro.pcm.din, or numpy's own seeding recipe for the
 * seeded generators; the property-based equivalence suite
 * (tests/test_kernel_backends.py) pins that contract.
 *
 * Layout conventions (matching the Python int domain):
 *   - a line is 64 little-endian bytes; bit i of the 512-bit integer is
 *     byte i>>3, bit i&7 — ascending byte, ascending bit order;
 *   - "keep" flags index the set bits of a candidate mask in ascending
 *     cell order, exactly the order the scalar low-bit extraction walks.
 */

#include <stdint.h>
#include <string.h>

#define SD_ABI_VERSION 4

/* Loader probe: the Python side checks the ABI before trusting the lib. */
int sd_abi_version(void) { return SD_ABI_VERSION; }

static inline int ctz8(uint8_t v) {
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_ctz((unsigned)v);
#else
    int n = 0;
    while (!(v & 1)) { v >>= 1; ++n; }
    return n;
#endif
}

/* Keep the i-th set bit (ascending cell order) of cand iff keep[i],
 * over n_rows contiguous rows sharing one keep stream (the batched
 * samplers' one-big-draw contract).  Returns the number of keep flags
 * consumed.  Mirror of repro.pcm.line._apply_keep. */
int sd_apply_keep_rows(const uint8_t *cand, int n_rows, int row_bytes,
                       const uint8_t *keep, uint8_t *out) {
    int i = 0;
    const int total = n_rows * row_bytes;
    for (int b = 0; b < total; ++b) {
        uint8_t c = cand[b];
        uint8_t o = 0;
        while (c) {
            uint8_t low = (uint8_t)(c & (uint8_t)(-c));
            if (keep[i++]) o |= low;
            c = (uint8_t)(c ^ low);
        }
        out[b] = o;
    }
    return i;
}

/* DIN per-byte inversion coding: one LUT gather per byte.  Tables are
 * the 256x256 C-contiguous uint8 arrays from repro.pcm.din
 * (_stored_table / _invert_table); flags_out is n_rows * 8 bytes and
 * must be zeroed by the caller. */
void sd_din_encode(const uint8_t *oldb, const uint8_t *rawb,
                   const uint8_t *stored_tab, const uint8_t *invert_tab,
                   int n_rows, int row_bytes,
                   uint8_t *stored_out, uint8_t *flags_out) {
    for (int r = 0; r < n_rows; ++r) {
        const uint8_t *o = oldb + (size_t)r * row_bytes;
        const uint8_t *w = rawb + (size_t)r * row_bytes;
        uint8_t *s = stored_out + (size_t)r * row_bytes;
        uint8_t *f = flags_out + (size_t)r * (row_bytes / 8);
        for (int i = 0; i < row_bytes; ++i) {
            const int idx = ((int)o[i] << 8) | w[i];
            s[i] = stored_tab[idx];
            f[i >> 3] |= (uint8_t)(invert_tab[idx] << (i & 7));
        }
    }
}

/* DIN decode: XOR 0xFF into every byte whose flag bit is set. */
void sd_din_decode(const uint8_t *stored, const uint8_t *flags,
                   int n_rows, int row_bytes, uint8_t *out) {
    for (int r = 0; r < n_rows; ++r) {
        const uint8_t *s = stored + (size_t)r * row_bytes;
        const uint8_t *fl = flags + (size_t)r * (row_bytes / 8);
        uint8_t *o = out + (size_t)r * row_bytes;
        for (int i = 0; i < row_bytes; ++i) {
            o[i] = (uint8_t)(s[i] ^ (((fl[i >> 3] >> (i & 7)) & 1) ? 0xFF : 0x00));
        }
    }
}

/* Threshold-pack: bit i set iff draws[i] < p (the flip/weak-mask
 * recipe `rng.random(n) < p` and the pack in one pass). */
void sd_pack_less_than(const double *draws, int n, double p, uint8_t *out) {
    memset(out, 0, (size_t)((n + 7) / 8));
    for (int i = 0; i < n; ++i) {
        if (draws[i] < p) out[i >> 3] |= (uint8_t)(1u << (i & 7));
    }
}

/* Ascending set-bit positions; returns the count. */
int sd_bit_positions(const uint8_t *buf, int nbytes, int32_t *out) {
    int k = 0;
    for (int b = 0; b < nbytes; ++b) {
        uint8_t c = buf[b];
        while (c) {
            uint8_t low = (uint8_t)(c & (uint8_t)(-c));
            out[k++] = (int32_t)(b * 8 + ctz8(low));
            c = (uint8_t)(c ^ low);
        }
    }
    return k;
}

#ifdef __SIZEOF_INT128__
/* Seeded state generation: numpy's `default_rng(key)` recipe, bit for
 * bit, for keys of uint32-range ints (one SeedSequence word each).
 *
 *   SeedSequence: hash the key words into a 4-word uint32 pool
 *     (mix_entropy), then generate_state(4, uint64) — 8 hashed pool
 *     words paired little-endian into 4 uint64 words w0..w3;
 *   PCG64 set_seed: state = w0:w1, increment = w2:w3 (high:low), one
 *     step, add the state, another step;
 *   next_uint64: one LCG step, then the XSL-RR 128/64 output.
 *
 * The constants are numpy's (numpy/random/bit_generator.pyx and
 * pcg64.h).  Hosts without a 128-bit integer type compile none of this;
 * the Python side then keeps the numpy recipe. */

typedef unsigned __int128 sd_u128;

#define SS_POOL 4
#define SS_INIT_A 0x43b0d7e5u
#define SS_MULT_A 0x931e8875u
#define SS_INIT_B 0x8b51f9ddu
#define SS_MULT_B 0x58f38dedu
#define SS_MIX_L 0xca01f9ddu
#define SS_MIX_R 0x4973f715u
#define SS_XSHIFT 16

#define PCG_MULT (((sd_u128)2549297995355413924ULL << 64) \
                  + 4865540595714422341ULL)

typedef struct { sd_u128 state, inc; } sd_pcg64;

static inline uint32_t ss_hashmix(uint32_t value, uint32_t *hash_const) {
    value ^= *hash_const;
    *hash_const *= SS_MULT_A;
    value *= *hash_const;
    return value ^ (value >> SS_XSHIFT);
}

static inline uint32_t ss_mix(uint32_t x, uint32_t y) {
    const uint32_t r = SS_MIX_L * x - SS_MIX_R * y;
    return r ^ (r >> SS_XSHIFT);
}

static inline void pcg_step(sd_pcg64 *rng) {
    rng->state = rng->state * PCG_MULT + rng->inc;
}

static inline uint64_t pcg_next64(sd_pcg64 *rng) {
    pcg_step(rng);
    const uint64_t v = (uint64_t)(rng->state >> 64) ^ (uint64_t)rng->state;
    const unsigned rot = (unsigned)(rng->state >> 122);
    return (v >> rot) | (v << ((-rot) & 63u));
}

/* SeedSequence(words).generate_state(4, uint64) -> PCG64 seeding. */
static void sd_seed(const uint32_t *words, int n, sd_pcg64 *rng) {
    uint32_t pool[SS_POOL];
    uint32_t h = SS_INIT_A;
    for (int i = 0; i < SS_POOL; ++i)
        pool[i] = ss_hashmix(i < n ? words[i] : 0u, &h);
    for (int s = 0; s < SS_POOL; ++s)
        for (int d = 0; d < SS_POOL; ++d)
            if (s != d) pool[d] = ss_mix(pool[d], ss_hashmix(pool[s], &h));
    for (int s = SS_POOL; s < n; ++s)
        for (int d = 0; d < SS_POOL; ++d)
            pool[d] = ss_mix(pool[d], ss_hashmix(words[s], &h));
    uint64_t w[4];
    uint32_t hb = SS_INIT_B;
    for (int i = 0; i < 8; ++i) {
        uint32_t v = pool[i % SS_POOL] ^ hb;
        hb *= SS_MULT_B;
        v *= hb;
        v ^= v >> SS_XSHIFT;
        if (i & 1) w[i >> 1] |= (uint64_t)v << 32;
        else w[i >> 1] = v;
    }
    rng->state = 0;
    rng->inc = ((((sd_u128)w[2] << 64) | w[3]) << 1) | 1u;
    pcg_step(rng);
    rng->state += ((sd_u128)w[0] << 64) | w[1];
    pcg_step(rng);
}

/* default_rng((k0, k1, k2)).integers(0, 1 << 64, n, uint64): the
 * full-range bounded path returns raw next_uint64 outputs. */
void sd_seeded_row(uint32_t k0, uint32_t k1, uint32_t k2,
                   uint64_t *out, int n) {
    const uint32_t key[3] = {k0, k1, k2};
    sd_pcg64 rng;
    sd_seed(key, 3, &rng);
    for (int i = 0; i < n; ++i) out[i] = pcg_next64(&rng);
}

/* Bit i of out (little-endian) set iff default_rng((k0..k3)).random()'s
 * i-th double, (next_uint64 >> 11) * 2**-53, is < fraction. */
void sd_weak_mask(uint32_t k0, uint32_t k1, uint32_t k2, uint32_t k3,
                  double fraction, int nbits, uint8_t *out) {
    const uint32_t key[4] = {k0, k1, k2, k3};
    sd_pcg64 rng;
    sd_seed(key, 4, &rng);
    memset(out, 0, (size_t)((nbits + 7) / 8));
    for (int i = 0; i < nbits; ++i) {
        const double u = (double)(pcg_next64(&rng) >> 11)
                         * (1.0 / 9007199254740992.0);
        if (u < fraction) out[i >> 3] |= (uint8_t)(1u << (i & 7));
    }
}
#endif /* __SIZEOF_INT128__ */
