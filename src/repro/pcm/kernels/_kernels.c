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

#define SD_ABI_VERSION 3

/* Loader probe: the Python side checks the ABI before trusting the lib. */
int sd_abi_version(void) { return SD_ABI_VERSION; }

static inline int popcount8(uint8_t v) {
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_popcount((unsigned)v);
#else
    int n = 0;
    while (v) { v &= (uint8_t)(v - 1); ++n; }
    return n;
#endif
}

static inline int ctz8(uint8_t v) {
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_ctz((unsigned)v);
#else
    int n = 0;
    while (!(v & 1)) { v >>= 1; ++n; }
    return n;
#endif
}

/* Keep the i-th set bit (ascending cell order) of cand iff keep[i].
 * Returns the number of keep flags consumed.  Mirror of
 * repro.pcm.line._apply_keep. */
int sd_apply_keep(const uint8_t *cand, const uint8_t *keep,
                  uint8_t *out, int nbytes) {
    int i = 0;
    for (int b = 0; b < nbytes; ++b) {
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

/* Row-batched sd_apply_keep over n_rows contiguous rows sharing one
 * keep stream (the batched samplers' one-big-draw contract). */
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

/* Little-endian bit packing of a 0/1 byte vector (np.packbits
 * bitorder="little" over n bits; out must hold (n+7)/8 bytes). */
void sd_pack_bits(const uint8_t *bits, int n, uint8_t *out) {
    memset(out, 0, (size_t)((n + 7) / 8));
    for (int i = 0; i < n; ++i) {
        if (bits[i]) out[i >> 3] |= (uint8_t)(1u << (i & 7));
    }
}

/* Threshold-pack: bit i set iff draws[i] < p (the flip/weak-mask
 * recipe `rng.random(n) < p` fused with the pack). */
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

/* Fused write-phase stage: the draw-free half of a batch of demand
 * writes.  Per request (row_bytes-byte lines, little-endian bit order):
 *
 *   physical   = stored | disturbed
 *   logical    = data_is_flip ? din_decode(stored, flags) ^ data : data
 *   stored_new = din_encode(physical, logical)      (+ flag bits)
 *   reset/set  = differential-write masks over physical -> stored_new
 *   wl_vuln    = wordline_neighbours(reset) & ~changed & ~physical
 *                (per-64-bit-word adjacency; zeroed when !wl_enabled)
 *   per victim: vulnerable = reset & ~v.physical & ~v.stuck
 *               weak       = vulnerable & v.weak_cells
 *
 * Victims are flattened across the batch: victim_counts[r] names how
 * many of the vphys/vstuck/vweak rows belong to request r.  Outputs:
 * stored_out/logical_out (n*row_bytes), flags_out (n*row_bytes/8,
 * caller-zeroed), wl_vuln_out (n*row_bytes), weak_out (V*row_bytes),
 * counts_out (n*3 int32: reset, set, wl_vuln bits) and vcounts_out
 * (V*2 int32: vulnerable, weak bits).  Consumes no RNG: a crash here
 * is recoverable by rerunning the pure-Python stage.
 */
void sd_write_stage(const uint8_t *stored, const uint8_t *flags,
                    const uint8_t *disturbed, const uint8_t *data,
                    const uint8_t *data_is_flip,
                    const uint8_t *vphys, const uint8_t *vstuck,
                    const uint8_t *vweak, const int32_t *victim_counts,
                    const uint8_t *stored_tab, const uint8_t *invert_tab,
                    int n_rows, int row_bytes, int wl_enabled,
                    uint8_t *stored_out, uint8_t *flags_out,
                    uint8_t *logical_out, uint8_t *wl_vuln_out,
                    uint8_t *weak_out, int32_t *counts_out,
                    int32_t *vcounts_out) {
    const int flag_bytes = row_bytes / 8;
    int k = 0;  /* flattened victim index */
    for (int r = 0; r < n_rows; ++r) {
        const uint8_t *st = stored + (size_t)r * row_bytes;
        const uint8_t *fl = flags + (size_t)r * flag_bytes;
        const uint8_t *di = disturbed + (size_t)r * row_bytes;
        const uint8_t *da = data + (size_t)r * row_bytes;
        uint8_t *so = stored_out + (size_t)r * row_bytes;
        uint8_t *fo = flags_out + (size_t)r * flag_bytes;
        uint8_t *lo = logical_out + (size_t)r * row_bytes;
        uint8_t *wv = wl_vuln_out + (size_t)r * row_bytes;
        uint8_t ph[512], chg[512], rs[512];
        int reset_bits = 0, set_bits = 0, wl_bits = 0;
        const int flip = data_is_flip[r] != 0;
        for (int i = 0; i < row_bytes; ++i) {
            const uint8_t p = (uint8_t)(st[i] | di[i]);
            ph[i] = p;
            uint8_t lg;
            if (flip) {
                const uint8_t dec = (uint8_t)(
                    st[i] ^ (((fl[i >> 3] >> (i & 7)) & 1) ? 0xFF : 0x00));
                lg = (uint8_t)(dec ^ da[i]);
            } else {
                lg = da[i];
            }
            lo[i] = lg;
            const int idx = ((int)p << 8) | lg;
            const uint8_t sn = stored_tab[idx];
            so[i] = sn;
            fo[i >> 3] |= (uint8_t)(invert_tab[idx] << (i & 7));
            const uint8_t c = (uint8_t)(p ^ sn);
            chg[i] = c;
            const uint8_t rst = (uint8_t)(c & p);
            rs[i] = rst;
            reset_bits += popcount8(rst);
            set_bits += popcount8((uint8_t)(c & sn));
        }
        if (wl_enabled) {
            /* Word-line adjacency lives within each 64-bit word (one
             * chip segment): shift the reset bytes by one bit with
             * byte-carry inside the word, dropping at word edges. */
            for (int w = 0; w < row_bytes / 8; ++w) {
                const uint8_t *rb = rs + w * 8;
                for (int j = 0; j < 8; ++j) {
                    const uint8_t left = (uint8_t)(
                        (uint8_t)(rb[j] << 1) |
                        (j ? (uint8_t)(rb[j - 1] >> 7) : 0));
                    const uint8_t right = (uint8_t)(
                        (uint8_t)(rb[j] >> 1) |
                        (j < 7 ? (uint8_t)(rb[j + 1] << 7) : 0));
                    const int i = w * 8 + j;
                    const uint8_t v = (uint8_t)(
                        (left | right) & (uint8_t)~chg[i] & (uint8_t)~ph[i]);
                    wv[i] = v;
                    wl_bits += popcount8(v);
                }
            }
        } else {
            memset(wv, 0, (size_t)row_bytes);
        }
        counts_out[r * 3 + 0] = (int32_t)reset_bits;
        counts_out[r * 3 + 1] = (int32_t)set_bits;
        counts_out[r * 3 + 2] = (int32_t)wl_bits;
        const int nv = (int)victim_counts[r];
        for (int v = 0; v < nv; ++v, ++k) {
            const uint8_t *vp = vphys + (size_t)k * row_bytes;
            const uint8_t *vs = vstuck + (size_t)k * row_bytes;
            const uint8_t *vw = vweak + (size_t)k * row_bytes;
            uint8_t *wo = weak_out + (size_t)k * row_bytes;
            int vuln_bits = 0, weak_bits = 0;
            for (int i = 0; i < row_bytes; ++i) {
                const uint8_t vul = (uint8_t)(
                    rs[i] & (uint8_t)~vp[i] & (uint8_t)~vs[i]);
                const uint8_t wk = (uint8_t)(vul & vw[i]);
                wo[i] = wk;
                vuln_bits += popcount8(vul);
                weak_bits += popcount8(wk);
            }
            vcounts_out[k * 2 + 0] = (int32_t)vuln_bits;
            vcounts_out[k * 2 + 1] = (int32_t)weak_bits;
        }
    }
}

/* Fused write-phase apply: consume one drawn RNG plane through the
 * batch, request-major, word-line stream first, then that request's
 * victims — the draw-order contract from repro.pcm.kernels.rngplane.
 * Modes carry the leaf samplers' probability-edge semantics: 0 = empty
 * result, no draws; 1 = candidates pass through, no draws; 2 = one
 * uniform per candidate bit, kept where draw < p.  The word-line side
 * only needs error *counts*; victims need the sampled masks
 * (V*row_bytes into sampled_out). */
void sd_write_apply(const uint8_t *wl_vuln, const uint8_t *weak,
                    const int32_t *victim_counts, const double *draws,
                    double p_wl, double p_bl, int n_rows, int row_bytes,
                    int wl_mode, int bl_mode,
                    int32_t *wl_err_out, uint8_t *sampled_out) {
    int di = 0;  /* plane position */
    int k = 0;   /* flattened victim index */
    for (int r = 0; r < n_rows; ++r) {
        const uint8_t *wv = wl_vuln + (size_t)r * row_bytes;
        int errs = 0;
        if (wl_mode == 2) {
            for (int i = 0; i < row_bytes; ++i) {
                uint8_t c = wv[i];
                while (c) {
                    const uint8_t low = (uint8_t)(c & (uint8_t)(-c));
                    if (draws[di++] < p_wl) ++errs;
                    c = (uint8_t)(c ^ low);
                }
            }
        } else if (wl_mode == 1) {
            for (int i = 0; i < row_bytes; ++i) errs += popcount8(wv[i]);
        }
        wl_err_out[r] = (int32_t)errs;
        const int nv = (int)victim_counts[r];
        for (int v = 0; v < nv; ++v, ++k) {
            const uint8_t *wk = weak + (size_t)k * row_bytes;
            uint8_t *so = sampled_out + (size_t)k * row_bytes;
            if (bl_mode == 2) {
                for (int i = 0; i < row_bytes; ++i) {
                    uint8_t c = wk[i];
                    uint8_t o = 0;
                    while (c) {
                        const uint8_t low = (uint8_t)(c & (uint8_t)(-c));
                        if (draws[di++] < p_bl) o |= low;
                        c = (uint8_t)(c ^ low);
                    }
                    so[i] = o;
                }
            } else if (bl_mode == 1) {
                memcpy(so, wk, (size_t)row_bytes);
            } else {
                memset(so, 0, (size_t)row_bytes);
            }
        }
    }
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

int sd_popcount(const uint8_t *buf, int nbytes) {
    int n = 0;
    for (int b = 0; b < nbytes; ++b) n += popcount8(buf[b]);
    return n;
}

void sd_popcount_rows(const uint8_t *rows, int n_rows, int row_bytes,
                      int64_t *out) {
    for (int r = 0; r < n_rows; ++r) {
        const uint8_t *p = rows + (size_t)r * row_bytes;
        int n = 0;
        for (int b = 0; b < row_bytes; ++b) n += popcount8(p[b]);
        out[r] = (int64_t)n;
    }
}
