/* blake2b.c: BLAKE2b (RFC 7693), the PRF and the PMMAC hash of the
 * fast suite, and blake2b_lanes.
 *
 * The vendored hash behind FrontendKernel's PRF and MAC (keyed
 * mid-state per handle, byte-identical to hashlib), also exposed as
 * blake2b().  blake2b_lanes makes up to four compressions from keyed
 * mid-states in one call: four u64 lanes where the CPU has AVX-512F+VL,
 * one scalar compression per lane elsewhere (LANES names which, chosen
 * at import by blake2b_lanes_choose); _lanes() runs a named spelling.
 */

#include "_replay_core.h"

static const uint64_t blake2b_iv[8] = {
    0x6a09e667f3bcc908ULL, 0xbb67ae8584caa73bULL, 0x3c6ef372fe94f82bULL,
    0xa54ff53a5f1d36f1ULL, 0x510e527fade682d1ULL, 0x9b05688c2b3e6c1fULL,
    0x1f83d9abfb41bd6bULL, 0x5be0cd19137e2179ULL,
};

/* One compression, its twelve rounds unrolled over sixteen locals with
 * the message schedule (RFC 7693's SIGMA, rounds 10 and 11 repeating 0
 * and 1) spelled as compile-time constants: a loop indexing a sigma
 * table keeps v[] in memory and costs ~1.4x as much at -O3.  The table
 * is written once: this scalar spelling and blake2b_lanes_avx512vl's
 * four-lane one
 * expand BLAKE2B_ROUND over it, on v0..v15 and m[] of their type. */
#define BLAKE2B_SIGMA(X)                                                \
    X(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)             \
    X(14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3)             \
    X(11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4)             \
    X(7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8)             \
    X(9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13)             \
    X(2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9)             \
    X(12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11)             \
    X(13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10)             \
    X(6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5)             \
    X(10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0)             \
    X(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)             \
    X(14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3)
#define BLAKE2B_ROTR(x, n) ((x) >> (n) | (x) << (64 - (n)))
#define BLAKE2B_G(x, y, a, b, c, d)                                          \
    do {                                                                     \
        a = a + b + m[x], d = BLAKE2B_ROTR(d ^ a, 32);                       \
        c = c + d, b = BLAKE2B_ROTR(b ^ c, 24);                              \
        a = a + b + m[y], d = BLAKE2B_ROTR(d ^ a, 16);                       \
        c = c + d, b = BLAKE2B_ROTR(b ^ c, 63);                              \
    } while (0);
#define BLAKE2B_ROUND(s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, sa, sb, sc,    \
                      sd, se, sf)                                            \
    BLAKE2B_G(s0, s1, v0, v4, v8, v12) BLAKE2B_G(s2, s3, v1, v5, v9, v13)    \
    BLAKE2B_G(s4, s5, v2, v6, v10, v14) BLAKE2B_G(s6, s7, v3, v7, v11, v15)  \
    BLAKE2B_G(s8, s9, v0, v5, v10, v15) BLAKE2B_G(sa, sb, v1, v6, v11, v12)  \
    BLAKE2B_G(sc, sd, v2, v7, v8, v13) BLAKE2B_G(se, sf, v3, v4, v9, v14)

static void
blake2b_compress(Blake2b *s, const uint8_t block[128], int last)
{
    uint64_t m[16];
    for (int i = 0; i < 16; i++)
        m[i] = load64le(block + 8 * i);
    uint64_t v0 = s->h[0], v1 = s->h[1], v2 = s->h[2], v3 = s->h[3],
             v4 = s->h[4], v5 = s->h[5], v6 = s->h[6], v7 = s->h[7],
             v8 = blake2b_iv[0], v9 = blake2b_iv[1], v10 = blake2b_iv[2],
             v11 = blake2b_iv[3], v12 = blake2b_iv[4] ^ s->t,
             v13 = blake2b_iv[5],
             v14 = last ? ~blake2b_iv[6] : blake2b_iv[6], v15 = blake2b_iv[7];
    BLAKE2B_SIGMA(BLAKE2B_ROUND)
    s->h[0] ^= v0 ^ v8;
    s->h[1] ^= v1 ^ v9;
    s->h[2] ^= v2 ^ v10;
    s->h[3] ^= v3 ^ v11;
    s->h[4] ^= v4 ^ v12;
    s->h[5] ^= v5 ^ v13;
    s->h[6] ^= v6 ^ v14;
    s->h[7] ^= v7 ^ v15;
}

/* Keyed initialisation: outlen in 1..64, keylen in 0..64 (validated by
 * the callers).  A key is the first, zero-padded input block. */
void
blake2b_init(Blake2b *s, size_t outlen, const uint8_t *key, size_t keylen)
{
    memcpy(s->h, blake2b_iv, sizeof(s->h));
    s->h[0] ^= 0x01010000ULL ^ ((uint64_t)keylen << 8) ^ (uint64_t)outlen;
    s->t = 0;
    s->buflen = 0;
    s->outlen = outlen;
    if (keylen > 0) {
        memset(s->buf, 0, sizeof(s->buf));
        memcpy(s->buf, key, keylen);
        s->buflen = sizeof(s->buf);
    }
}

void
blake2b_update(Blake2b *s, const uint8_t *in, size_t inlen)
{
    while (inlen > 0) {
        if (s->buflen == sizeof(s->buf)) {
            /* More input follows, so the buffered block is not the last. */
            s->t += sizeof(s->buf);
            blake2b_compress(s, s->buf, 0);
            s->buflen = 0;
        }
        size_t take = sizeof(s->buf) - s->buflen;
        if (take > inlen)
            take = inlen;
        memcpy(s->buf + s->buflen, in, take);
        s->buflen += take;
        in += take;
        inlen -= take;
    }
}

/* Compress a buffered key block ahead of time.  The result is the
 * mid-state every later message starts from — hashlib's
 * blake2b(key=...).copy() — and is valid for non-empty messages only
 * (an empty one makes the key block the last block). */
void
blake2b_absorb_key(Blake2b *s)
{
    if (s->buflen == sizeof(s->buf)) {
        s->t += sizeof(s->buf);
        blake2b_compress(s, s->buf, 0);
        s->buflen = 0;
    }
}

/* Finish: s->h then holds the digest words; `out` (may be NULL) gets the
 * first outlen bytes of their little-endian image. */
void
blake2b_final(Blake2b *s, uint8_t *out)
{
    s->t += s->buflen;
    memset(s->buf + s->buflen, 0, sizeof(s->buf) - s->buflen);
    blake2b_compress(s, s->buf, 1);
    if (out != NULL) {
        uint8_t image[64];
        for (int i = 0; i < 8; i++)
            store64le(image + 8 * i, s->h[i]);
        memcpy(out, image, s->outlen);
    }
}

/* blake2b(key, message, digest_size) -> bytes
 *
 * The vendored hash on its own, through the same keyed mid-state the
 * handles use (the known-answer tests pin it against hashlib). */
PyObject *
blake2b_digest(PyObject *self, PyObject *args)
{
    Py_buffer key, message;
    Py_ssize_t digest_size;
    if (!PyArg_ParseTuple(args, "y*y*n:blake2b", &key, &message,
                          &digest_size))
        return NULL;
    PyObject *result = NULL;
    if (digest_size < 1 || digest_size > 64 || key.len > 64)
        PyErr_SetString(PyExc_ValueError,
                        "blake2b: digest_size must be 1..64 and the key at "
                        "most 64 bytes");
    else {
        Blake2b state;
        uint8_t out[64];
        blake2b_init(&state, (size_t)digest_size, key.buf, (size_t)key.len);
        if (message.len > 0)
            blake2b_absorb_key(&state);
        blake2b_update(&state, message.buf, (size_t)message.len);
        blake2b_final(&state, out);
        result = PyBytes_FromStringAndSize((const char *)out, digest_size);
    }
    PyBuffer_Release(&key);
    PyBuffer_Release(&message);
    return result;
}

/* A lane's message from its bytes. */
void
lane_message(Lane *lane, const uint8_t *message, size_t len)
{
    uint8_t block[128] = {0};
    memcpy(block, message, len);
    lane->len = len;
    for (int w = 0; w < 16; w++)
        lane->m[w] = load64le(block + 8 * w);
}

/* The image of a lane's digest words (its digest is a prefix of it). */
void
lane_digest(const Lane *lane, uint8_t out[64])
{
    for (size_t i = 0; i < (lane->mid->outlen + 7) / 8; i++)
        store64le(out + 8 * i, lane->h[i]);
}

/* blake2b_lanes on every host: one blake2b_compress per lane. */
static void
blake2b_lanes_scalar(Lane *lane, int n)
{
    for (int i = 0; i < n; i++) {
        uint8_t block[128];
        for (int w = 0; w < 16; w++)
            store64le(block + 8 * w, lane[i].m[w]);
        Blake2b state;
        memcpy(state.h, lane[i].mid->h, sizeof(state.h));
        state.t = lane[i].mid->t + lane[i].len;
        blake2b_compress(&state, block, 1);
        memcpy(lane[i].h, state.h, sizeof(state.h));
    }
}

#if defined(__GNUC__) && defined(__x86_64__)
#define LANES_VECTOR 1
typedef uint64_t u64x4 __attribute__((vector_size(32)));

/* blake2b_lanes where the CPU has AVX-512F+VL: the n lanes side by side,
 * one per 64-bit element (a lane past n repeats lane 0, and is
 * dropped), in one pass of the rounds.  Compiled for AVX-512F+VL only:
 * vprorq makes each rotation one instruction and 32 vector registers
 * hold the sixteen state words with no spill (SSE2 and AVX2 spellings of
 * a two-lane pass spilled: 1.00x and 1.04x).  Lanes from one mid-state
 * (a leaf pair's) read its words broadcast.  When no message runs past
 * three words (a PRF's), the other thirteen are constant zeros and fold
 * out of the rounds.  Only the words of each lane's digest are written. */
__attribute__((target("avx512f,avx512vl"))) static void
blake2b_lanes_avx512vl(Lane *lane, int n)
{
    const Lane *a = &lane[0], *b = &lane[n > 1 ? 1 : 0],
               *c = &lane[n > 2 ? 2 : 0], *d = &lane[n > 3 ? 3 : 0];
    const int shared =
        a->mid == b->mid && a->mid == c->mid && a->mid == d->mid;
    const u64x4 lanes = {0, 0, 0, 0};
#define MID_WORD(k)                                                     \
    (shared ? lanes + a->mid->h[k]                                      \
            : (u64x4){a->mid->h[k], b->mid->h[k], c->mid->h[k],         \
                      d->mid->h[k]})
#define LANE_WORD(w) ((u64x4){a->m[w], b->m[w], c->m[w], d->m[w]})
    u64x4 v0 = MID_WORD(0), v1 = MID_WORD(1), v2 = MID_WORD(2),
          v3 = MID_WORD(3), v4 = MID_WORD(4), v5 = MID_WORD(5),
          v6 = MID_WORD(6), v7 = MID_WORD(7), v8 = lanes + blake2b_iv[0],
          v9 = lanes + blake2b_iv[1], v10 = lanes + blake2b_iv[2],
          v11 = lanes + blake2b_iv[3],
          v12 = (lanes + blake2b_iv[4]) ^
                (u64x4){a->mid->t + a->len, b->mid->t + b->len,
                        c->mid->t + c->len, d->mid->t + d->len},
          v13 = lanes + blake2b_iv[5], v14 = lanes + ~blake2b_iv[6],
          v15 = lanes + blake2b_iv[7];
    if (a->len <= 24 && b->len <= 24 && c->len <= 24 && d->len <= 24) {
        const u64x4 m[16] = {LANE_WORD(0), LANE_WORD(1), LANE_WORD(2)};
        BLAKE2B_SIGMA(BLAKE2B_ROUND)
    }
    else {
        u64x4 m[16];
        for (int w = 0; w < 16; w++)
            m[w] = LANE_WORD(w);
        BLAKE2B_SIGMA(BLAKE2B_ROUND)
    }
    /* The start words are read again, not kept live across the rounds. */
    const u64x4 h[8] = {
        MID_WORD(0) ^ v0 ^ v8,  MID_WORD(1) ^ v1 ^ v9,
        MID_WORD(2) ^ v2 ^ v10, MID_WORD(3) ^ v3 ^ v11,
        MID_WORD(4) ^ v4 ^ v12, MID_WORD(5) ^ v5 ^ v13,
        MID_WORD(6) ^ v6 ^ v14, MID_WORD(7) ^ v7 ^ v15,
    };
#undef LANE_WORD
#undef MID_WORD
    for (int i = 0; i < n; i++)
        for (size_t k = 0; k < (lane[i].mid->outlen + 7) / 8; k++)
            lane[i].h[k] = h[k][i];
}
#endif

/* The spelling this host runs (LANES), chosen once at module init: the
 * vector one where the CPU has AVX-512F+VL, else the scalar one, which
 * makes the compressions one lane at a time, as separate calls did. */
void (*blake2b_lanes)(Lane *lane, int n) = blake2b_lanes_scalar;
static const char *lanes_name = "scalar";

const char *
blake2b_lanes_choose(void)
{
#ifdef LANES_VECTOR
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512vl"))
        blake2b_lanes = blake2b_lanes_avx512vl, lanes_name = "avx512vl";
#endif
    return lanes_name;
}

/* _lanes(spelling, lanes, repeat=1) -> [digest, ...]: tests and micro
 * benchmarks only.  `lanes` is 1..4 (key, digest_size, message) items
 * (key 0..64 bytes, digest_size 1..64, message 1..128 bytes); each is
 * hashlib.blake2b(message, key=key, digest_size=digest_size), all of
 * them in one call of the named spelling ("scalar", or this host's
 * LANES), made `repeat` times. */
PyObject *
lanes_entry(PyObject *self, PyObject *args)
{
    const char *spelling;
    PyObject *items;
    Py_ssize_t repeat = 1;
    if (!PyArg_ParseTuple(args, "sO|n:_lanes", &spelling, &items, &repeat))
        return NULL;
    void (*run)(Lane *, int) = !strcmp(spelling, "scalar") ? blake2b_lanes_scalar
                               : !strcmp(spelling, lanes_name) ? blake2b_lanes
                                                              : NULL;
    if (run == NULL) {
        PyErr_Format(PyExc_ValueError, "no lanes spelling %s here: this "
                     "CPU runs %s", spelling, lanes_name);
        return NULL;
    }
    PyObject *seq = PySequence_Fast(items, "_lanes: lanes must be a sequence");
    if (seq == NULL)
        return NULL;
    const Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    Blake2b mid[MAX_LANES];
    Lane lane[MAX_LANES];
    Py_ssize_t digest_size[MAX_LANES];
    PyObject *result = NULL;
    if (n < 1 || n > MAX_LANES || repeat < 1) {
        PyErr_SetString(PyExc_ValueError,
                        "_lanes: 1 to 4 lanes, repeat 1 or more");
        goto done;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_buffer key, message;
        if (!PyArg_ParseTuple(PySequence_Fast_GET_ITEM(seq, i), "y*ny*:_lanes",
                              &key, &digest_size[i], &message))
            goto done;
        const int fits = key.len <= 64 && digest_size[i] >= 1 &&
                         digest_size[i] <= 64 && message.len >= 1 &&
                         message.len <= 128;
        if (fits) {
            blake2b_init(&mid[i], (size_t)digest_size[i], key.buf,
                         (size_t)key.len);
            blake2b_absorb_key(&mid[i]);
            lane_message(&lane[i], message.buf, (size_t)message.len);
            lane[i].mid = &mid[i];
        }
        PyBuffer_Release(&key);
        PyBuffer_Release(&message);
        if (!fits) {
            PyErr_SetString(PyExc_ValueError,
                            "_lanes: a key of at most 64 bytes, digest_size "
                            "1..64 and a message of 1..128 bytes");
            goto done;
        }
    }
    for (Py_ssize_t r = 0; r < repeat; r++)
        run(lane, (int)n);
    result = PyList_New(n);
    for (Py_ssize_t i = 0; result != NULL && i < n; i++) {
        uint8_t out[64];
        lane_digest(&lane[i], out);
        PyObject *digest =
            PyBytes_FromStringAndSize((const char *)out, digest_size[i]);
        if (digest == NULL)
            Py_CLEAR(result);
        else
            PyList_SET_ITEM(result, i, digest);
    }
done:
    Py_DECREF(seq);
    return result;
}
