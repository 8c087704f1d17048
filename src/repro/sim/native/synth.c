/* synth.c: trace synthesis (synthesize_trace) and mt_draws.
 *
 * synthesize_trace is SpecStandIn.refs -> CacheHierarchy.run as one C
 * loop: the pattern mixture draws byte addresses from MT19937 streams
 * restored from random.Random.getstate(), two set-associative
 * write-back LRU levels filter them, and what is left — the LLC miss /
 * dirty-eviction stream — comes back as two columns.
 *
 * Identity contract: draw for draw the same words as CPython's random
 * (random(), _randbelow_with_getrandbits for moduli of at most 32
 * bits).  The generator works a state block at a time: mt_twist
 * regenerates the 624 words (its twist term -(y & 1) & 0x9908b0df is
 * branch-free and the same word as CPython's mag01[y & 1]) and tempers
 * all 624 into a block of outputs, so a draw is one load; mt_load
 * tempers a restored block, so a stream resumed at any index 0..624, as
 * getstate() hands it over, draws CPython's words.  Then the
 * generators of repro.workloads.synthetic transcribed operation for
 * operation (zipf through libm pow with every product
 * rounded on its own), and Cache.access / Cache.install's LRU victim
 * and write-back rules.  Each generator draws only from its own stream,
 * so initialising all of them up front, where Python initialises at the
 * first next(), yields the same addresses.
 *
 * Errors: ValueError for a table the reference could not run either
 * (unknown kind, zero stride, bad weights, bad geometry, no miss
 * budget); OverflowError for one that is valid but outside what the
 * kernel represents (a modulus over 32 bits, a cache too large to
 * allocate flat) — the caller runs the interpreted reference then.
 *
 * A stream that fits in the L2 stops missing, so the loop also ends
 * after MAX_REFS_PER_MISS measured references per miss of the budget,
 * as CacheHierarchy.run does (repro.proc.hierarchy.MAX_REFS_PER_MISS),
 * and returns the short trace; the caller names the working set.
 * Both tiers use it: a trace is the same bytes whichever tier replays
 * it.  mt_draws exposes its generator to the known-answer tests. */

#include "_replay_core.h"

#define MT_N 624
#define MT_M 397
#define MT_STATE_WORDS (MT_N + 1) /* getstate()[1]: the words, then the index */

/* out[i] is always the tempered mt[i] of the current block. */
typedef struct {
    uint32_t mt[MT_N];
    uint32_t out[MT_N];
    uint32_t index;
} Mt;

/* genrand_uint32's tempering. */
static inline uint32_t
mt_temper(uint32_t y)
{
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

static void
mt_temper_block(Mt *s)
{
    for (int kk = 0; kk < MT_N; kk++)
        s->out[kk] = mt_temper(s->mt[kk]);
}

/* _randommodule.c genrand_uint32's regeneration of the 624 words, with
 * mag01[y & 1] spelt as the branch-free -(y & 1) & 0x9908b0df (the same
 * word), then the temper of the whole block. */
static void
mt_twist(Mt *s)
{
    uint32_t *mt = s->mt;
    uint32_t y;
    int kk;
    for (kk = 0; kk < MT_N - MT_M; kk++) {
        y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
        mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ (-(y & 0x1U) & 0x9908b0dfU);
    }
    for (; kk < MT_N - 1; kk++) {
        y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
        mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^
                 (-(y & 0x1U) & 0x9908b0dfU);
    }
    y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
    mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ (-(y & 0x1U) & 0x9908b0dfU);
    mt_temper_block(s);
    s->index = 0;
}

/* random.Random.setstate's checks: the index is 0..624.  The restored
 * block is tempered as it stands, so a stream resumed at any index draws
 * the words CPython would; at 624 the first draw twists. */
static int
mt_load(Mt *s, const uint32_t *words)
{
    if (words[MT_N] > MT_N) {
        PyErr_SetString(PyExc_ValueError, "invalid MT19937 state: index "
                                          "outside 0..624");
        return -1;
    }
    memcpy(s->mt, words, sizeof(s->mt));
    mt_temper_block(s);
    s->index = words[MT_N];
    return 0;
}

/* _randommodule.c genrand_uint32. */
static inline uint32_t
mt_u32(Mt *s)
{
    if (s->index >= MT_N)
        mt_twist(s);
    return s->out[s->index++];
}

/* random.random(): genrand_res53. */
static inline double
mt_random(Mt *s)
{
    uint32_t a = mt_u32(s) >> 5, b = mt_u32(s) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* Random._randbelow_with_getrandbits(n) for 1 <= n < 2**32: n == 1
 * still draws a word. */
static inline uint32_t
mt_below(Mt *s, uint32_t n)
{
    int shift = 32 - bit_length64((long long)n);
    uint32_t r;
    do
        r = mt_u32(s) >> shift;
    while (r >= n);
    return r;
}

/* A 1-D contiguous buffer of 32-bit unsigned words (array('I')), as the
 * MT state blocks arrive. */
static int
u32_acquire(PyObject *obj, Py_buffer *view, const char *what)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_FORMAT | PyBUF_ND) < 0)
        return -1;
    if (view->ndim != 1 || view->itemsize != 4 || view->format == NULL ||
        (view->format[0] != 'I' && view->format[0] != 'L')) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_TypeError,
                     "%s must be a 1-D contiguous uint32 buffer "
                     "(array('I'))", what);
        return -1;
    }
    return 0;
}

/* mt_draws(state, n, count) -> list
 *
 * The kernel's generator on its own, for the known-answer tests against
 * random.Random: count draws of random() when n == 0, of randbelow(n)
 * otherwise. */
PyObject *
mt_draws(PyObject *self, PyObject *args)
{
    PyObject *state_obj;
    unsigned long long n;
    Py_ssize_t count;
    if (!PyArg_ParseTuple(args, "OKn:mt_draws", &state_obj, &n, &count))
        return NULL;
    if (n > 0xffffffffULL || count < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "mt_draws: n must fit 32 bits and count be >= 0");
        return NULL;
    }
    Py_buffer view;
    if (u32_acquire(state_obj, &view, "state") < 0)
        return NULL;
    Mt rng;
    int bad = view.len != 4 * MT_STATE_WORDS;
    if (bad)
        PyErr_Format(PyExc_ValueError, "state must hold %d words",
                     MT_STATE_WORDS);
    else
        bad = mt_load(&rng, (const uint32_t *)view.buf) < 0;
    PyBuffer_Release(&view);
    if (bad)
        return NULL;
    PyObject *out = PyList_New(count);
    for (Py_ssize_t i = 0; out != NULL && i < count; i++) {
        PyObject *item =
            n == 0 ? PyFloat_FromDouble(mt_random(&rng))
                   : PyLong_FromUnsignedLong(mt_below(&rng, (uint32_t)n));
        if (item == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, item);
    }
    return out;
}

/* -- the address patterns of repro.workloads.synthetic ---------------- */

#define SYNTH_LINE 64          /* the generators' own line granularity */
#define MAX_MODULUS 0xffffffffULL
#define MAX_OFFSET (1ULL << 62)
#define MAX_CACHE_LINES (1ULL << 24) /* per level; 1 GiB of 64-byte lines */

enum {
    PAT_SEQUENTIAL,
    PAT_STRIDED,
    PAT_UNIFORM,
    PAT_ZIPF,
    PAT_POINTER_CHASE,
    PAT_HOT_COLD,
    N_PATTERN_KINDS,
};

static const char *const pattern_kind_names[N_PATTERN_KINDS] = {
    "sequential", "strided", "uniform", "zipf", "pointer_chase", "hot_cold",
};

typedef struct {
    int kind;
    Mt rng;
    uint64_t wss, step, offset;
    double alpha, hot_probability;
    /* generator locals */
    uint64_t addr;                      /* sequential, strided */
    uint64_t lines;                     /* uniform, zipf, hot_cold */
    uint64_t hot_lines, cold_lines;     /* hot_cold */
    uint64_t nodes, current, mult, add; /* pointer_chase */
    double zipf_one, zipf_span;         /* 1 - alpha, n ** one - 1.0 */
} Pattern;

static inline uint64_t
at_least(uint64_t value, uint64_t floor)
{
    return value < floor ? floor : value;
}

/* Parse one (kind, wss, step, alpha, hot_fraction, hot_probability,
 * offset) row and run the generator's prologue (its initial draws). */
static int
pattern_init(Pattern *p, PyObject *row, const uint32_t *state)
{
    const char *kind;
    long long wss, step, offset;
    double hot_fraction;
    if (!PyTuple_Check(row)) {
        PyErr_SetString(PyExc_TypeError, "a pattern row must be a tuple");
        return -1;
    }
    if (!PyArg_ParseTuple(row, "sLLdddL:pattern", &kind, &wss, &step,
                          &p->alpha, &hot_fraction, &p->hot_probability,
                          &offset))
        return -1;
    p->kind = -1;
    for (int k = 0; k < N_PATTERN_KINDS; k++)
        if (strcmp(kind, pattern_kind_names[k]) == 0)
            p->kind = k;
    if (p->kind < 0) {
        PyErr_Format(PyExc_ValueError, "unknown pattern kind '%s'", kind);
        return -1;
    }
    if (wss <= 0 || step <= 0 || offset < 0) {
        PyErr_Format(PyExc_ValueError,
                     "pattern '%s': wss and step must be positive and the "
                     "offset non-negative (wss=%lld step=%lld offset=%lld)",
                     kind, wss, step, offset);
        return -1;
    }
    if (isnan(p->alpha) || isnan(hot_fraction) || isnan(p->hot_probability)) {
        PyErr_Format(PyExc_ValueError,
                     "pattern '%s': alpha, hot_fraction and hot_probability "
                     "must not be NaN", kind);
        return -1;
    }
    if ((unsigned long long)wss > MAX_MODULUS ||
        (unsigned long long)step > MAX_MODULUS ||
        (unsigned long long)offset > MAX_OFFSET) {
        PyErr_Format(PyExc_OverflowError,
                     "pattern '%s': wss, step or offset outside the "
                     "kernel's 32-bit draw range", kind);
        return -1;
    }
    if (mt_load(&p->rng, state) < 0)
        return -1;
    p->wss = (uint64_t)wss;
    p->step = (uint64_t)step;
    p->offset = (uint64_t)offset;
    p->lines = at_least(p->wss / SYNTH_LINE, 1);

    switch (p->kind) {
    case PAT_SEQUENTIAL:
        p->addr = mt_below(&p->rng,
                           (uint32_t)at_least(p->wss / p->step, 1)) * p->step;
        break;
    case PAT_STRIDED:
        p->addr = (uint64_t)mt_below(&p->rng, (uint32_t)p->lines) * SYNTH_LINE;
        break;
    case PAT_ZIPF:
        p->zipf_one = 1.0 - p->alpha;
        p->zipf_span = pow((double)p->lines, p->zipf_one) - 1.0;
        break;
    case PAT_POINTER_CHASE:
        p->nodes = at_least(p->wss / p->step, 2);
        p->current = mt_below(&p->rng, (uint32_t)p->nodes);
        /* 0x5DEECE66D is 35 bits: reduced first, current * mult fits. */
        p->mult = (0x5DEECE66DULL | 1) % p->nodes;
        p->add = mt_below(&p->rng, (uint32_t)p->nodes) | 1;
        break;
    case PAT_HOT_COLD: {
        /* max(int(lines * hot_fraction), 1) */
        double hot = (double)p->lines * hot_fraction;
        if (!(hot > -9.0e18 && hot <= (double)MAX_MODULUS)) {
            PyErr_SetString(PyExc_OverflowError,
                            "pattern 'hot_cold': hot region outside the "
                            "kernel's 32-bit draw range");
            return -1;
        }
        p->hot_lines = hot < 1.0 ? 1 : (uint64_t)hot;
        p->cold_lines =
            p->lines > p->hot_lines ? p->lines - p->hot_lines : 1;
        break;
    }
    default:
        break;
    }
    return 0;
}

/* DeterministicRng.zipf(n, alpha).  Returns -1 where Python's float
 * power raises OverflowError (a non-finite result). */
static inline int
pattern_zipf(Pattern *p, uint64_t *rank_out)
{
    uint64_t n = p->lines;
    if (n <= 1) { /* no draw */
        *rank_out = 0;
        return 0;
    }
    double u = mt_random(&p->rng);
    double power;
    if (p->alpha == 1.0)
        power = pow((double)n, u);
    else {
        /* volatile: the product rounds before the add, as Python's two
         * separate float operations do. */
        volatile double scaled = p->zipf_span * u;
        power = pow(scaled + 1.0, 1.0 / p->zipf_one);
    }
    if (!isfinite(power) || !isfinite(p->zipf_span))
        return -1;
    /* min(max(int(power) - 1, 0), n - 1) */
    if (power < 2.0)
        *rank_out = 0;
    else if (power >= (double)n + 1.0)
        *rank_out = n - 1;
    else
        *rank_out = (uint64_t)power - 1;
    return 0;
}

/* next(generator): one byte address.  Returns -1 on a zipf overflow. */
static inline int
pattern_next(Pattern *p, uint64_t *addr_out)
{
    uint64_t addr;
    switch (p->kind) {
    case PAT_SEQUENTIAL:
    case PAT_STRIDED:
        addr = p->addr;
        p->addr = (p->addr + p->step) % p->wss;
        break;
    case PAT_UNIFORM:
        addr = (uint64_t)mt_below(&p->rng, (uint32_t)p->lines) * SYNTH_LINE;
        break;
    case PAT_ZIPF: {
        uint64_t rank;
        if (pattern_zipf(p, &rank) < 0)
            return -1;
        addr = ((rank * 0x9E3779B1ULL) % p->lines) * SYNTH_LINE;
        break;
    }
    case PAT_POINTER_CHASE:
        addr = (p->current % p->nodes) * p->step;
        p->current = (p->current * p->mult + p->add) % p->nodes;
        break;
    default: /* PAT_HOT_COLD */
        if (mt_random(&p->rng) < p->hot_probability)
            addr = (uint64_t)mt_below(&p->rng, (uint32_t)p->hot_lines) *
                   SYNTH_LINE;
        else
            addr = (p->hot_lines +
                    mt_below(&p->rng, (uint32_t)p->cold_lines)) *
                   SYNTH_LINE;
        break;
    }
    *addr_out = addr + p->offset;
    return 0;
}

/* -- repro.proc.cache.Cache ------------------------------------------- */

typedef struct {
    uint64_t set_mask;
    int set_shift;
    uint32_t ways;
    uint64_t clock;
    uint64_t *tags;     /* [set * ways + way] */
    uint64_t *last_use; /* 0: the way is empty (the clock starts at 1) */
    uint8_t *dirty;
} LruCache;

static void
cache_free(LruCache *c)
{
    free(c->tags);
    free(c->last_use);
    free(c->dirty);
}

/* Cache.__init__'s checks, with its messages. */
static int
cache_init(LruCache *c, long long size_bytes, long long ways,
           long long line_bytes)
{
    memset(c, 0, sizeof(*c));
    if (size_bytes < 0 || ways <= 0 || line_bytes <= 0) {
        PyErr_SetString(PyExc_ValueError,
                        "cache ways and line size must be positive and the "
                        "size not negative");
        return -1;
    }
    long long lines = size_bytes / line_bytes;
    if (lines % ways) {
        PyErr_SetString(PyExc_ValueError,
                        "capacity must divide evenly into ways");
        return -1;
    }
    long long num_sets = lines / ways;
    if (num_sets <= 0 || (num_sets & (num_sets - 1)) != 0) {
        PyErr_SetString(PyExc_ValueError, "set count must be a power of two");
        return -1;
    }
    if ((unsigned long long)lines > MAX_CACHE_LINES) {
        PyErr_SetString(PyExc_OverflowError,
                        "cache level too large for the kernel's flat arrays");
        return -1;
    }
    c->set_mask = (uint64_t)num_sets - 1;
    c->set_shift = bit_length64(num_sets) - 1;
    c->ways = (uint32_t)ways;
    c->tags = calloc((size_t)lines, sizeof(uint64_t));
    c->last_use = calloc((size_t)lines, sizeof(uint64_t));
    c->dirty = calloc((size_t)lines, 1);
    if (c->tags == NULL || c->last_use == NULL || c->dirty == NULL) {
        cache_free(c);
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

/* Cache.access(line, dirty) and Cache.install(line, dirty) are the same
 * state transition (a hit ORs the dirty bit, a miss allocates over the
 * least recently used way); they differ only in the statistics, which
 * the trace does not carry.  Returns hit; *writeback is the displaced
 * dirty line's address or -1. */
static inline int
cache_touch(LruCache *c, uint64_t line, int dirty, int64_t *writeback)
{
    uint64_t set = line & c->set_mask, tag = line >> c->set_shift;
    size_t base = (size_t)set * c->ways;
    uint64_t *tags = c->tags + base, *last_use = c->last_use + base;
    uint8_t *dirty_bits = c->dirty + base;
    uint32_t victim = 0;
    uint64_t oldest = UINT64_MAX;
    *writeback = -1;
    c->clock += 1;
    for (uint32_t way = 0; way < c->ways; way++) {
        if (last_use[way] != 0 && tags[way] == tag) {
            last_use[way] = c->clock;
            dirty_bits[way] |= (uint8_t)dirty;
            return 1;
        }
        if (last_use[way] < oldest) { /* an empty way sorts first */
            oldest = last_use[way];
            victim = way;
        }
    }
    if (oldest != 0 && dirty_bits[victim])
        *writeback = (int64_t)((tags[victim] << c->set_shift) | set);
    tags[victim] = tag;
    last_use[victim] = c->clock;
    dirty_bits[victim] = (uint8_t)dirty;
    return 0;
}

/* -- the run ----------------------------------------------------------- */

typedef struct {
    /* SpecStandIn.refs */
    Pattern *patterns;
    double *cum;
    Py_ssize_t n_patterns;
    Mt pick;
    double write_fraction;
    uint32_t gap_modulus; /* randint(0, 2 * gap_instructions) */
    /* CacheHierarchy.run */
    LruCache l1, l2;
    int line_shift;
    long long warm_remaining, misses, max_llc_misses;
    unsigned long long max_refs; /* measured references before giving up */
    unsigned long long instructions, mem_refs, l1_hits, l2_hits;
    /* MissTrace.events as columns; they grow, since one reference can
     * record more than two events */
    int64_t *line_addrs;
    uint8_t *is_write;
    size_t n_events, capacity;
} Synth;

static inline int
synth_record(Synth *s, int64_t line, int is_write)
{
    if (s->n_events == s->capacity) {
        size_t capacity = s->capacity ? 2 * s->capacity : 4096;
        int64_t *lines = realloc(s->line_addrs, capacity * sizeof(int64_t));
        if (lines == NULL)
            return -1;
        s->line_addrs = lines;
        uint8_t *writes = realloc(s->is_write, capacity);
        if (writes == NULL)
            return -1;
        s->is_write = writes;
        s->capacity = capacity;
    }
    s->line_addrs[s->n_events] = line;
    s->is_write[s->n_events] = (uint8_t)is_write;
    s->n_events += 1;
    return 0;
}

enum { SYNTH_DONE, SYNTH_MORE, SYNTH_NO_MEMORY, SYNTH_ZIPF_OVERFLOW };

/* Up to `budget` references of the refs() / run() loop, with no Python
 * object in reach (the caller has released the GIL). */
static int
synth_run(Synth *s, long budget)
{
    Py_ssize_t last = s->n_patterns - 1;
    while (budget-- > 0) {
        if (s->warm_remaining <= 0 && s->mem_refs == s->max_refs)
            return SYNTH_DONE;
        double u = mt_random(&s->pick);
        Py_ssize_t pick = 0;
        /* first i with u <= cum[i]; the last pattern when float
         * accumulation left cum[-1] below u */
        while (pick < last && !(u <= s->cum[pick]))
            pick++;
        uint32_t gap = mt_below(&s->pick, s->gap_modulus);
        int is_write = mt_random(&s->pick) < s->write_fraction;
        uint64_t byte_addr;
        if (pattern_next(&s->patterns[pick], &byte_addr) < 0)
            return SYNTH_ZIPF_OVERFLOW;

        int recording = s->warm_remaining <= 0;
        if (recording) {
            s->instructions += (unsigned long long)gap + 1;
            s->mem_refs += 1;
        }
        else
            s->warm_remaining -= 1;
        uint64_t line = byte_addr >> s->line_shift;
        int64_t l1_victim, l2_victim;
        if (cache_touch(&s->l1, line, is_write, &l1_victim)) {
            s->l1_hits += recording;
            continue;
        }
        if (l1_victim >= 0) {
            cache_touch(&s->l2, (uint64_t)l1_victim, 1, &l2_victim);
            if (l2_victim >= 0 && recording &&
                synth_record(s, l2_victim, 1) < 0)
                return SYNTH_NO_MEMORY;
        }
        if (cache_touch(&s->l2, line, 0, &l2_victim)) {
            s->l2_hits += recording;
            continue;
        }
        if (!recording)
            continue;
        if ((l2_victim >= 0 && synth_record(s, l2_victim, 1) < 0) ||
            synth_record(s, (int64_t)line, 0) < 0)
            return SYNTH_NO_MEMORY;
        s->misses += 1;
        if (s->misses >= s->max_llc_misses)
            return SYNTH_DONE;
    }
    return SYNTH_MORE;
}

static void
synth_free(Synth *s)
{
    free(s->patterns);
    free(s->cum);
    cache_free(&s->l1);
    cache_free(&s->l2);
    free(s->line_addrs);
    free(s->is_write);
}

/* The mixture: pattern rows, cumulative weights and one MT state block
 * per stream (pick_rng's first, then each pattern's). */
static int
synth_bind_mixture(Synth *s, PyObject *rows, PyObject *weights,
                   PyObject *states)
{
    PyObject *row_seq = PySequence_Fast(rows, "patterns must be a sequence");
    if (row_seq == NULL)
        return -1;
    PyObject *cum_seq =
        PySequence_Fast(weights, "cumulative weights must be a sequence");
    if (cum_seq == NULL) {
        Py_DECREF(row_seq);
        return -1;
    }
    Py_buffer view;
    int status = -1, have_view = 0;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(row_seq);
    if (n < 1 || PySequence_Fast_GET_SIZE(cum_seq) != n) {
        PyErr_SetString(PyExc_ValueError,
                        "a mixture needs at least one pattern and one "
                        "cumulative weight per pattern");
        goto done;
    }
    if (u32_acquire(states, &view, "states") < 0)
        goto done;
    have_view = 1;
    if (view.len / 4 != (n + 1) * MT_STATE_WORDS) {
        PyErr_Format(PyExc_ValueError,
                     "states must hold %d words for pick_rng and for each "
                     "of the %zd patterns", MT_STATE_WORDS, n);
        goto done;
    }
    const uint32_t *words = (const uint32_t *)view.buf;
    if (mt_load(&s->pick, words) < 0)
        goto done;
    s->patterns = calloc((size_t)n, sizeof(Pattern));
    s->cum = calloc((size_t)n, sizeof(double));
    if (s->patterns == NULL || s->cum == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    s->n_patterns = n;
    double previous = 0.0;
    for (Py_ssize_t i = 0; i < n; i++) {
        double c = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(cum_seq, i));
        if (c == -1.0 && PyErr_Occurred())
            goto done;
        if (!(c >= previous)) { /* NaN fails every comparison */
            PyErr_SetString(PyExc_ValueError,
                            "cumulative weights must be non-negative, "
                            "non-decreasing and not NaN");
            goto done;
        }
        s->cum[i] = previous = c;
        if (pattern_init(&s->patterns[i], PySequence_Fast_GET_ITEM(row_seq, i),
                         words + (i + 1) * MT_STATE_WORDS) < 0)
            goto done;
    }
    status = 0;
done:
    if (have_view)
        PyBuffer_Release(&view);
    Py_DECREF(cum_seq);
    Py_DECREF(row_seq);
    return status;
}

/* synthesize_trace(patterns, cum_weights, write_fraction,
 *                  gap_instructions, states,
 *                  (line_bytes, l1_bytes, l1_ways, l2_bytes, l2_ways),
 *                  warmup_refs, max_llc_misses)
 *   -> (line_addrs, is_write, instructions, mem_refs, l1_hits, l2_hits)
 *
 * line_addrs is a bytearray of native int64, is_write one of 0/1 bytes. */
PyObject *
synthesize_trace(PyObject *self, PyObject *args)
{
    PyObject *rows, *weights, *states;
    double write_fraction;
    long long gap, line_bytes, l1_bytes, l1_ways, l2_bytes, l2_ways;
    long long warmup_refs, max_llc_misses;
    if (!PyArg_ParseTuple(args, "OOdLO(LLLLL)LL:synthesize_trace", &rows,
                          &weights, &write_fraction, &gap, &states,
                          &line_bytes, &l1_bytes, &l1_ways, &l2_bytes,
                          &l2_ways, &warmup_refs, &max_llc_misses))
        return NULL;
    if (isnan(write_fraction) || gap < 0 || warmup_refs < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "write_fraction must not be NaN; gap_instructions "
                        "and warmup_refs must be non-negative");
        return NULL;
    }
    if (max_llc_misses <= 0) {
        /* CacheHierarchy.run never returns from an infinite stream
         * without a budget; here that would be a spin in C. */
        PyErr_SetString(PyExc_ValueError,
                        "max_llc_misses must be positive: the reference "
                        "stream is infinite");
        return NULL;
    }
    if (2 * (unsigned long long)gap + 1 > MAX_MODULUS) {
        PyErr_SetString(PyExc_OverflowError,
                        "gap_instructions outside the kernel's 32-bit draw "
                        "range");
        return NULL;
    }

    Synth s;
    memset(&s, 0, sizeof(s));
    PyObject *result = NULL, *line_col = NULL, *write_col = NULL;
    if (cache_init(&s.l1, l1_bytes, l1_ways, line_bytes) < 0 ||
        cache_init(&s.l2, l2_bytes, l2_ways, line_bytes) < 0 ||
        synth_bind_mixture(&s, rows, weights, states) < 0)
        goto done;
    s.write_fraction = write_fraction;
    s.gap_modulus = (uint32_t)(2 * gap + 1);
    s.line_shift = bit_length64(line_bytes) - 1;
    s.warm_remaining = warmup_refs;
    s.max_llc_misses = max_llc_misses;
    s.max_refs = (unsigned long long)max_llc_misses > ULLONG_MAX / MAX_REFS_PER_MISS
                     ? ULLONG_MAX
                     : (unsigned long long)max_llc_misses * MAX_REFS_PER_MISS;

    int state;
    do {
        /* A slice of references without the GIL, then a look at pending
         * signals: a stream that stops missing stays interruptible. */
        Py_BEGIN_ALLOW_THREADS
        state = synth_run(&s, 1L << 20);
        Py_END_ALLOW_THREADS
        if (state == SYNTH_MORE && PyErr_CheckSignals() < 0)
            goto done;
        if (s.instructions > (1ULL << 62)) {
            PyErr_SetString(PyExc_OverflowError,
                            "instruction count outside 64 bits");
            goto done;
        }
    } while (state == SYNTH_MORE);
    if (state == SYNTH_NO_MEMORY) {
        PyErr_NoMemory();
        goto done;
    }
    if (state == SYNTH_ZIPF_OVERFLOW) {
        PyErr_SetString(PyExc_OverflowError,
                        "zipf draw: float power out of range");
        goto done;
    }

    line_col = PyByteArray_FromStringAndSize(
        (const char *)s.line_addrs, (Py_ssize_t)(s.n_events * sizeof(int64_t)));
    write_col = PyByteArray_FromStringAndSize((const char *)s.is_write,
                                              (Py_ssize_t)s.n_events);
    if (line_col != NULL && write_col != NULL)
        result = Py_BuildValue("OOKKKK", line_col, write_col, s.instructions,
                               s.mem_refs, s.l1_hits, s.l2_hits);
done:
    Py_XDECREF(line_col);
    Py_XDECREF(write_col);
    synth_free(&s);
    return result;
}
