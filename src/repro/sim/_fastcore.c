/* The compiled scalar engine core (DESIGN.md section 13).
 *
 * A hand-written CPython extension mirroring Simulator's event loop,
 * plus the exact/heuristic slack walks, under the byte-identity
 * contract: every float expression reproduces the interpreted
 * engine's operation order exactly, and every polymorphic boundary
 * (policy hooks, execution/arrival models, fault plans, non-default
 * scales/power/transition models, idle planners) stays a Python
 * callback, so stochastic draws, caches and error messages are the
 * interpreted ones by construction.  The per-job records (overrun,
 * deadline-miss, governor and transition-fault notes, DeadlineMiss
 * entries) and speed_time stay compact in a Records store the result
 * owns, one fixed-size entry per record; a reader's first access builds
 * them with CPython's own float formatter, pinned to the engine's
 * f-strings by twin tests.  Exceptions are raised by repro.sim.fastcore
 * helpers, so their types and messages stay Python's.
 *
 * Three exceptions keep Python out of the common path: every registry
 * policy's speed decision runs here from the decide spec its bind()
 * sets (section 13.4); the demands of uniform and constant execution
 * models, and of overrun faults over them, are drawn here, bit-identical
 * to numpy, into per-task tables (section 13.4); and a job lives in its
 * slot, its Python Job built only when Python code asks for it.  Nothing
 * else builds a Python object per event: speed_time keys are computed
 * exactly in C, the records wait in their store, and the next-release
 * and job-index dicts Python reads are written only when Python can
 * read them (section 13.1).
 *
 * CoreEngine exposes the same private attribute surface SimContext
 * reads from Simulator (_now, _active, _next_release, ...), so the
 * SimContext classes wrap it and policies observe identical state;
 * slack_columns() additionally serves the slack snapshot straight
 * from the job slots.
 *
 * The loader (repro.sim.fastcore) passes the SHA-256 of this file as
 * REPRO_FASTCORE_SHA256 and refuses any module whose SOURCE_SHA256
 * differs, so a build of older source is never imported.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#ifndef REPRO_FASTCORE_SHA256
#define REPRO_FASTCORE_SHA256 ""   /* unverified build: always refused */
#endif

#define K_TIME_EPS 1e-9
#define K_SPEED_EPS 1e-12
#define K_WORK_EPS 1e-9
#define K_DEADLINE_EPS 1e-6

/* snap_nonnegative(value, eps=TIME_EPS) */
static inline double
snap_nonneg(double v)
{
    if (-K_TIME_EPS <= v && v < 0.0)
        return 0.0;
    return v;
}

/* ------------------------------------------------------------------ */
/* interned attribute/method names (module-lifetime, never freed)      */
/* ------------------------------------------------------------------ */

static PyObject *s_executed, *s_first_dispatch_time, *s_preemption_count,
    *s_completion_time, *s_sleep, *s_wake_time, *s_achieved,
    *s_extra_time, *s_faulted, *s_work, *s_slack_exact,
    *s_slack_heuristic;
/* the fields of TraceNote and DeadlineMiss, in declaration order */
static PyObject *note_fields[3], *miss_fields[4];
static PyObject *empty_tuple;

static int
intern_names(void)
{
#define MK(var, text) \
    if ((var = PyUnicode_InternFromString(text)) == NULL) return -1;
    MK(s_executed, "executed")
    MK(s_first_dispatch_time, "first_dispatch_time")
    MK(s_preemption_count, "preemption_count")
    MK(s_completion_time, "completion_time")
    MK(s_sleep, "sleep")
    MK(s_wake_time, "wake_time")
    MK(s_achieved, "achieved")
    MK(s_extra_time, "extra_time")
    MK(s_faulted, "faulted")
    MK(s_work, "work")
    MK(s_slack_exact, "slack.exact")
    MK(s_slack_heuristic, "slack.heuristic")
    MK(note_fields[0], "time")
    MK(note_fields[1], "kind")
    MK(note_fields[2], "detail")
    MK(miss_fields[0], "job")
    MK(miss_fields[1], "task")
    MK(miss_fields[2], "deadline")
    MK(miss_fields[3], "detected_at")
#undef MK
    if ((empty_tuple = PyTuple_New(0)) == NULL)
        return -1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* small helpers                                                       */
/* ------------------------------------------------------------------ */

/* The interned attribute name for the string literal text, cached by
 * the literal's address: every run reads about ninety fields of its
 * init namespace and writes about seventy result and stats fields, and
 * a fresh key string per access cost more than the access.  An
 * interned key also hits the type's attribute cache. */
#define NAME_SLOTS 512
static struct { const char *text; PyObject *name; } names_by_literal[
    NAME_SLOTS];

static PyObject *
name_of(const char *text)
{
    /* Fibonacci hashing of the address: nine bits, NAME_SLOTS slots */
    size_t i = (size_t)(((uint64_t)(uintptr_t)text * 0x9E3779B97F4A7C15ULL)
                        >> 55);
    for (size_t probe = 0; probe < NAME_SLOTS; probe++) {
        if (names_by_literal[i].text == text)
            return names_by_literal[i].name;
        if (names_by_literal[i].text == NULL) {
            PyObject *name = PyUnicode_InternFromString(text);
            if (name == NULL)
                return NULL;
            names_by_literal[i].text = text;
            names_by_literal[i].name = name;
            return name;
        }
        i = (i + 1) % NAME_SLOTS;
    }
    /* more distinct literals than slots: raise NAME_SLOTS */
    PyErr_SetString(PyExc_RuntimeError, "fastcore: name cache full");
    return NULL;
}

/* obj.<text>: a new reference, or NULL with an exception set */
static PyObject *
get_named(PyObject *obj, const char *text)
{
    PyObject *name = name_of(text);
    return name == NULL ? NULL : PyObject_GetAttr(obj, name);
}

/* obj.<text> = value (value may be NULL after a failed build: -1) */
static int
set_named(PyObject *obj, const char *text, PyObject *value)
{
    PyObject *name = value == NULL ? NULL : name_of(text);
    return name == NULL ? -1 : PyObject_SetAttr(obj, name, value);
}

/* Python's two-argument min/max: the first argument unless the second
 * is strictly smaller/larger. */
static inline double
py_min(double a, double b)
{
    return (b < a) ? b : a;
}

static inline double
py_max(double a, double b)
{
    return (b > a) ? b : a;
}

static int
attr_as_double(PyObject *obj, PyObject *name, double *out)
{
    PyObject *val = PyObject_GetAttr(obj, name);
    if (val == NULL)
        return -1;
    *out = PyFloat_AsDouble(val);
    Py_DECREF(val);
    if (*out == -1.0 && PyErr_Occurred())
        return -1;
    return 0;
}

/* Convert a Python sequence of numbers to a fresh double array. */
static double *
seq_as_doubles(PyObject *seq, Py_ssize_t *out_n)
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence of floats");
    if (fast == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    double *arr = PyMem_Malloc((size_t)(n > 0 ? n : 1) * sizeof(double));
    if (arr == NULL) {
        Py_DECREF(fast);
        PyErr_NoMemory();
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        arr[i] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(fast, i));
        if (arr[i] == -1.0 && PyErr_Occurred()) {
            PyMem_Free(arr);
            Py_DECREF(fast);
            return NULL;
        }
    }
    Py_DECREF(fast);
    *out_n = n;
    return arr;
}

static long *
seq_as_longs(PyObject *seq, Py_ssize_t *out_n)
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence of ints");
    if (fast == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    long *arr = PyMem_Malloc((size_t)(n > 0 ? n : 1) * sizeof(long));
    if (arr == NULL) {
        Py_DECREF(fast);
        PyErr_NoMemory();
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        arr[i] = PyLong_AsLong(PySequence_Fast_GET_ITEM(fast, i));
        if (arr[i] == -1 && PyErr_Occurred()) {
            PyMem_Free(arr);
            Py_DECREF(fast);
            return NULL;
        }
    }
    Py_DECREF(fast);
    *out_n = n;
    return arr;
}

/* ------------------------------------------------------------------ */
/* demand draws (repro.tasks.execution)                                */
/* ------------------------------------------------------------------ */

/* UniformExecution.ratio is float(default_rng(entropy).uniform(low,
 * high)) with entropy = blake2b(f"{seed}:{task}:{index}", digest_size=8)
 * read little-endian.  The four steps below reproduce it bit for bit:
 * BLAKE2b-64, numpy's SeedSequence (pool of four 32-bit words) and
 * generate_state(4, uint64), PCG64 seeding plus one XSL-RR output, and
 * Generator.uniform's low + (high - low) * next_double. */

static const uint64_t B2B_IV[8] = {
    0x6a09e667f3bcc908ULL, 0xbb67ae8584caa73bULL, 0x3c6ef372fe94f82bULL,
    0xa54ff53a5f1d36f1ULL, 0x510e527fade682d1ULL, 0x9b05688c2b3e6c1fULL,
    0x1f83d9abfb41bd6bULL, 0x5be0cd19137e2179ULL,
};

static const uint8_t B2B_SIGMA[12][16] = {
    {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
    {14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3},
    {11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4},
    {7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8},
    {9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13},
    {2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9},
    {12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11},
    {13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10},
    {6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5},
    {10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0},
    {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
    {14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3},
};

static inline uint64_t
rotr64(uint64_t x, unsigned r)
{
    return (x >> r) | (x << ((64 - r) & 63));
}

static void
b2b_compress(uint64_t h[8], const uint8_t block[128], uint64_t count,
             int last)
{
    uint64_t m[16], v[16];
    for (int i = 0; i < 16; i++) {
        uint64_t w = 0;
        for (int b = 7; b >= 0; b--)
            w = (w << 8) | block[8 * i + b];
        m[i] = w;
    }
    for (int i = 0; i < 8; i++) {
        v[i] = h[i];
        v[i + 8] = B2B_IV[i];
    }
    v[12] ^= count;   /* messages here are far below 2**64 bytes */
    if (last)
        v[14] = ~v[14];
#define B2B_G(r, i, a, b, c, d) do { \
        a = a + b + m[B2B_SIGMA[r][2 * (i)]]; \
        d = rotr64(d ^ a, 32); \
        c = c + d; \
        b = rotr64(b ^ c, 24); \
        a = a + b + m[B2B_SIGMA[r][2 * (i) + 1]]; \
        d = rotr64(d ^ a, 16); \
        c = c + d; \
        b = rotr64(b ^ c, 63); } while (0)
    for (int r = 0; r < 12; r++) {
        B2B_G(r, 0, v[0], v[4], v[8], v[12]);
        B2B_G(r, 1, v[1], v[5], v[9], v[13]);
        B2B_G(r, 2, v[2], v[6], v[10], v[14]);
        B2B_G(r, 3, v[3], v[7], v[11], v[15]);
        B2B_G(r, 4, v[0], v[5], v[10], v[15]);
        B2B_G(r, 5, v[1], v[6], v[11], v[12]);
        B2B_G(r, 6, v[2], v[7], v[8], v[13]);
        B2B_G(r, 7, v[3], v[4], v[9], v[14]);
    }
#undef B2B_G
    for (int i = 0; i < 8; i++)
        h[i] ^= v[i] ^ v[i + 8];
}

/* Step 1: the first 8 bytes of BLAKE2b(data, digest_size=8), read
 * little-endian (the low word of the state, on any host). */
static uint64_t
blake2b64(const uint8_t *data, size_t len)
{
    uint64_t h[8];
    memcpy(h, B2B_IV, sizeof h);
    h[0] ^= 0x01010000ULL ^ 8;   /* fanout 1, depth 1, no key, 8 bytes */
    uint8_t block[128];
    size_t done = 0;
    while (len - done > 128) {
        memcpy(block, data + done, 128);
        done += 128;
        b2b_compress(h, block, done, 0);
    }
    memset(block, 0, sizeof block);
    memcpy(block, data + done, len - done);
    b2b_compress(h, block, len, 1);
    return h[0];
}

#define SS_INIT_A 0x43b0d7e5U
#define SS_MULT_A 0x931e8875U
#define SS_INIT_B 0x8b51f9ddU
#define SS_MULT_B 0x58f38dedU
#define SS_MIX_MULT_L 0xca01f9ddU
#define SS_MIX_MULT_R 0x4973f715U

static inline uint32_t
ss_hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= SS_MULT_A;
    value *= *hash_const;
    return value ^ (value >> 16);
}

static inline uint32_t
ss_mix(uint32_t x, uint32_t y)
{
    uint32_t result = SS_MIX_MULT_L * x - SS_MIX_MULT_R * y;
    return result ^ (result >> 16);
}

/* Step 2: SeedSequence(entropy).generate_state(4, uint64).  The
 * entropy is one 32-bit word below 2**32 (0 included), else two; both
 * fit the pool of four, so no word is mixed in after the pool. */
static void
seed_sequence_state(uint64_t entropy, uint64_t out[4])
{
    uint32_t words[2] = {(uint32_t)entropy, (uint32_t)(entropy >> 32)};
    int n_words = (entropy >> 32) ? 2 : 1;
    uint32_t pool[4], hash_const = SS_INIT_A;
    for (int i = 0; i < 4; i++)
        pool[i] = ss_hashmix(i < n_words ? words[i] : 0, &hash_const);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = ss_mix(pool[dst],
                                   ss_hashmix(pool[src], &hash_const));
    uint32_t state[8];
    hash_const = SS_INIT_B;
    for (int i = 0; i < 8; i++) {
        uint32_t value = pool[i % 4] ^ hash_const;
        hash_const *= SS_MULT_B;
        value *= hash_const;
        state[i] = value ^ (value >> 16);
    }
    for (int i = 0; i < 4; i++)   /* little-endian pairs of words */
        out[i] = (uint64_t)state[2 * i] | ((uint64_t)state[2 * i + 1] << 32);
}

typedef struct {
    uint64_t hi, lo;
} U128;

/* The low 128 bits of a * b. */
static U128
u128_mul(U128 a, U128 b)
{
    uint64_t a0 = a.lo & 0xffffffffULL, a1 = a.lo >> 32;
    uint64_t b0 = b.lo & 0xffffffffULL, b1 = b.lo >> 32;
    uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0, p11 = a1 * b1;
    uint64_t mid = (p00 >> 32) + (p01 & 0xffffffffULL)
                   + (p10 & 0xffffffffULL);
    U128 r;
    r.lo = (mid << 32) | (p00 & 0xffffffffULL);
    r.hi = p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
           + a.hi * b.lo + a.lo * b.hi;
    return r;
}

static U128
u128_add(U128 a, U128 b)
{
    U128 r;
    r.lo = a.lo + b.lo;
    r.hi = a.hi + b.hi + (r.lo < a.lo);
    return r;
}

static const U128 PCG_MULT = {2549297995355413924ULL,
                              4865540595714422341ULL};

/* Step 3: PCG64 seeded from the four words (state, then increment, high
 * word first), then its first output: one step and the XSL-RR of the
 * new state. */
static uint64_t
pcg64_first_output(const uint64_t seed[4])
{
    U128 init = {seed[0], seed[1]};
    U128 inc = {(seed[2] << 1) | (seed[3] >> 63), (seed[3] << 1) | 1};
    U128 state = {0, 0};
    state = u128_add(u128_mul(state, PCG_MULT), inc);
    state = u128_add(state, init);
    state = u128_add(u128_mul(state, PCG_MULT), inc);
    state = u128_add(u128_mul(state, PCG_MULT), inc);
    return rotr64(state.hi ^ state.lo, (unsigned)(state.hi >> 58));
}

/* Steps 2-4: float(default_rng(entropy).uniform(low, high)). */
static double
entropy_uniform(uint64_t entropy, double low, double high)
{
    uint64_t seed[4];
    seed_sequence_state(entropy, seed);
    uint64_t x = pcg64_first_output(seed);
    return low + (high - low) * ((double)(x >> 11) * (1.0 / 9007199254740992.0));
}

/* A per-task table of the demands an execution model draws: job k's
 * work is work[k], drawn once, in index order, on first use, and
 * shared by every run of the model and by the clairvoyant oracle.
 * key holds f"{seed}:{task}:" as UTF-8; each draw appends the index. */
typedef struct DemandTable {
    PyObject_HEAD
    char *key;
    Py_ssize_t key_len;
    double low, high, wcet, bcet, min_ratio;
    double *work;
    Py_ssize_t n, cap;
    /* a faulted table (fault_table()): the inner model's table, and the
     * overrun's factor and probability; key is the overrun draw's */
    struct DemandTable *inner;
    double factor, probability;
} DemandTable;

/* blake2b64(key + str(k)): the entropy of _job_rng(seed, task, k) for
 * the key f"{seed}:{task}:". */
static uint64_t
table_entropy(const DemandTable *t, Py_ssize_t k)
{
    int len = PyOS_snprintf(t->key + t->key_len, 24, "%zd", k);
    return blake2b64((const uint8_t *)t->key, (size_t)(t->key_len + len));
}

/* ExecutionModel.work of job k: the ratio clamped into [min_ratio, 1],
 * times the WCET, held within [max(bcet, min_ratio * wcet), wcet]
 * with Python's min/max tie rules.  low == high skips the draw: the
 * uniform value is low + 0.0 * u == low exactly. */
static double
demand_draw(const DemandTable *t, Py_ssize_t k)
{
    double ratio = t->low;
    if (t->high != t->low)
        ratio = entropy_uniform(table_entropy(t, k), t->low, t->high);
    double clamped = py_min(1.0, py_max(t->min_ratio, ratio));
    double demand = clamped * t->wcet;
    double floor = py_max(py_max(demand, t->bcet), t->min_ratio * t->wcet);
    return py_min(t->wcet, floor);
}

static int demand_at(DemandTable *t, Py_ssize_t k, double *out);

/* FaultyExecution.work of job k: wcet * factor when the overrun hits
 * (FaultPlan.overrun_factor: always at probability 1, else when
 * _job_rng(seed ^ _OVERRUN_SALT, task, k).random() < probability; the
 * uniform over [0, 1) is next_double exactly), else the inner draw. */
static int
fault_draw(const DemandTable *t, Py_ssize_t k, double *out)
{
    if (!(t->probability < 1.0) ||
        entropy_uniform(table_entropy(t, k), 0.0, 1.0) < t->probability) {
        *out = t->wcet * t->factor;
        return 0;
    }
    return demand_at(t->inner, k, out);
}

/* work[k], drawing every missing entry up to k. */
static int
demand_at(DemandTable *t, Py_ssize_t k, double *out)
{
    if (k >= t->n) {
        if (k >= PY_SSIZE_T_MAX / 16) {
            PyErr_NoMemory();
            return -1;
        }
        if (k >= t->cap) {
            Py_ssize_t cap = t->cap ? t->cap : 64;
            while (cap <= k)
                cap *= 2;
            double *grown = PyMem_Realloc(t->work, (size_t)cap * sizeof(double));
            if (grown == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            t->work = grown;
            t->cap = cap;
        }
        for (; t->n <= k; t->n++) {
            if (t->inner == NULL)
                t->work[t->n] = demand_draw(t, t->n);
            else if (fault_draw(t, t->n, &t->work[t->n]) < 0)
                return -1;
        }
    }
    *out = t->work[k];
    return 0;
}

static void
DemandTable_dealloc(DemandTable *self)
{
    PyMem_Free(self->key);
    PyMem_Free(self->work);
    Py_XDECREF(self->inner);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* room for the decimal index and the terminator */
static int
table_set_key(DemandTable *t, const char *key, Py_ssize_t key_len)
{
    t->key = PyMem_Malloc((size_t)key_len + 24);
    if (t->key == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    memcpy(t->key, key, (size_t)key_len);
    t->key_len = key_len;
    return 0;
}

/* DemandTable(key, low, high, wcet, bcet, min_ratio) */
static int
DemandTable_init(DemandTable *self, PyObject *args, PyObject *kwds)
{
    const char *key;
    Py_ssize_t key_len;
    if (kwds != NULL && PyDict_GET_SIZE(kwds) != 0) {
        PyErr_SetString(PyExc_TypeError, "DemandTable takes no kwargs");
        return -1;
    }
    if (self->key != NULL) {
        PyErr_SetString(PyExc_TypeError, "DemandTable is initialized once");
        return -1;
    }
    if (!PyArg_ParseTuple(args, "y#ddddd", &key, &key_len, &self->low,
                          &self->high, &self->wcet, &self->bcet,
                          &self->min_ratio))
        return -1;
    return table_set_key(self, key, key_len);
}

static PyObject *
DemandTable_work(DemandTable *self, PyObject *arg)
{
    Py_ssize_t k = PyLong_AsSsize_t(arg);
    if (k == -1 && PyErr_Occurred())
        return NULL;
    if (k < 0) {
        PyErr_SetString(PyExc_IndexError, "job index must be >= 0");
        return NULL;
    }
    double w;
    if (demand_at(self, k, &w) < 0)
        return NULL;
    return PyFloat_FromDouble(w);
}

static PyMethodDef DemandTable_methods[] = {
    {"work", (PyCFunction)DemandTable_work, METH_O,
     "work(index) -> the job's demand, drawn on first use."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject DemandTableType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._fastcore.DemandTable",
    .tp_basicsize = sizeof(DemandTable),
    .tp_dealloc = (destructor)DemandTable_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "One task's demands, drawn in C on first use.",
    .tp_methods = DemandTable_methods,
    .tp_init = (initproc)DemandTable_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* Records: a run's per-job records, compact until read                */
/* ------------------------------------------------------------------ */

/* The record kinds the core writes.  Each note's detail reads as its
 * format below: the job name f"{task.name}#{index}" (%U#%ld) when the
 * kind names a job, then the record's floats (%s; a miss formats one)
 * as format(x, "g") (code 'g', precision 6) or format(x, ".4f") ('f',
 * 4): PyOS_double_to_string is what float.__format__ calls.  A miss is
 * also a DeadlineMiss record. */
enum { RK_OVERRUN, RK_MISS, RK_GOVERNOR, RK_STUCK, RK_QUANTIZED,
       RK_KINDS };

static const struct {
    const char *kind, *text;
    int names_job;
    char code;
    int precision;
} rk_format[RK_KINDS] = {
    [RK_OVERRUN] = {"overrun", "%U#%ld: work %s > wcet %s", 1, 'g', 6},
    [RK_MISS] = {"deadline-miss", "%U#%ld: deadline %s", 1, 'g', 6},
    [RK_GOVERNOR] = {"governor", "%U#%ld: raised %s -> %s", 1, 'f', 4},
    [RK_STUCK] = {"transition-fault", "stuck at %s (wanted %s)", 0, 'g',
                  6},
    [RK_QUANTIZED] = {"transition-fault", "quantized %s -> %s", 0, 'g', 6},
};

/* One record.  pos counts the notes Python code had added to the
 * recorder when the core wrote it: the merge puts exactly those
 * before it, so both keep their order. */
typedef struct {
    double t;           /* the note's time; a miss: detected_at */
    double a, b;        /* the floats it formats; a miss: a = deadline */
    long index;         /* the job index, for kinds that name a job */
    Py_ssize_t pos;
    int task, kind;
} Record;

/* The store a compiled run's result owns (DESIGN.md section 13.1): the
 * records in write order, and speed_time's accumulators, one per
 * round(speed, 12) key in key-first-seen order.  Nothing here is a
 * Python object until a reader asks: notes(), misses() and
 * speed_time() build the values the interpreted engine would have
 * built during the run. */
typedef struct {
    PyObject_HEAD
    Record *rec;
    Py_ssize_t n, cap, n_misses;
    Py_ssize_t py_at_end;   /* Python-added notes when the run ended */
    double *spd_key, *spd_dur;
    Py_ssize_t n_spd, cap_spd;
    PyObject *names;        /* task names, task order */
    PyObject *note_type, *miss_type;   /* TraceNote, DeadlineMiss */
} Records;

static PyTypeObject RecordsType;
static PyObject *rk_kind[RK_KINDS];   /* interned, module-lifetime */

static int
records_intern_kinds(void)
{
    for (int k = 0; k < RK_KINDS; k++)
        if ((rk_kind[k] = PyUnicode_InternFromString(rk_format[k].kind))
                == NULL)
            return -1;
    return 0;
}

static Records *
records_new(PyObject *names, PyObject *note_type, PyObject *miss_type)
{
    Records *rs = PyObject_New(Records, &RecordsType);
    if (rs == NULL)
        return NULL;
    rs->n = rs->n_misses = rs->py_at_end = rs->n_spd = 0;
    rs->cap = 64;
    rs->cap_spd = 8;
    rs->rec = PyMem_Malloc((size_t)rs->cap * sizeof(Record));
    rs->spd_key = PyMem_Malloc((size_t)rs->cap_spd * sizeof(double));
    rs->spd_dur = PyMem_Malloc((size_t)rs->cap_spd * sizeof(double));
    Py_INCREF(names);
    Py_INCREF(note_type);
    Py_INCREF(miss_type);
    rs->names = names;
    rs->note_type = note_type;
    rs->miss_type = miss_type;
    if (rs->rec == NULL || rs->spd_key == NULL || rs->spd_dur == NULL) {
        Py_DECREF(rs);
        PyErr_NoMemory();
        return NULL;
    }
    return rs;
}

static void
Records_dealloc(Records *self)
{
    PyMem_Free(self->rec);
    PyMem_Free(self->spd_key);
    PyMem_Free(self->spd_dur);
    Py_XDECREF(self->names);
    Py_XDECREF(self->note_type);
    Py_XDECREF(self->miss_type);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
records_add(Records *rs, int kind, double t, Py_ssize_t pos, int task,
            long index, double a, double b)
{
    if (rs->n == rs->cap) {
        Record *grown = PyMem_Realloc(rs->rec, (size_t)(2 * rs->cap)
                                      * sizeof(Record));
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        rs->rec = grown;
        rs->cap *= 2;
    }
    rs->rec[rs->n++] = (Record){t, a, b, index, pos, task, kind};
    rs->n_misses += kind == RK_MISS;
    return 0;
}

/* An instance of the dataclass *type* with its n fields set, as its
 * generated __init__ leaves it without running it: object.__new__, then
 * each field in declaration order through object.__setattr__ (what a
 * frozen dataclass's __init__ calls; on a slotted class it goes
 * through the slot descriptors).  Steals the references in values,
 * which may hold NULL after a failed build. */
static PyObject *
build_record(PyObject *type, int n, PyObject *const *fields,
             PyObject **values)
{
    PyObject *obj = NULL;
    int i;
    for (i = 0; i < n && values[i] != NULL; i++)
        ;
    if (i == n)
        obj = PyBaseObject_Type.tp_new((PyTypeObject *)type, empty_tuple,
                                       NULL);
    for (i = 0; obj != NULL && i < n; i++)
        if (PyObject_GenericSetAttr(obj, fields[i], values[i]) < 0)
            Py_CLEAR(obj);
    for (i = 0; i < n; i++)
        Py_XDECREF(values[i]);
    return obj;
}

/* The TraceNote of record r, its detail as the engine's f-string. */
static PyObject *
records_note(Records *rs, const Record *r)
{
    const char *text = rk_format[r->kind].text;
    char code = rk_format[r->kind].code;
    int precision = rk_format[r->kind].precision;
    char *sa = PyOS_double_to_string(r->a, code, precision, 0, NULL);
    char *sb = sa == NULL ? NULL
        : PyOS_double_to_string(r->b, code, precision, 0, NULL);
    PyObject *detail = NULL;
    if (sb != NULL)
        detail = rk_format[r->kind].names_job
            ? PyUnicode_FromFormat(text,
                                   PyTuple_GET_ITEM(rs->names, r->task),
                                   r->index, sa, sb)
            : PyUnicode_FromFormat(text, sa, sb);
    PyMem_Free(sa);
    PyMem_Free(sb);
    PyObject *kind = rk_kind[r->kind];
    Py_INCREF(kind);
    PyObject *values[3] = {PyFloat_FromDouble(r->t), kind, detail};
    return build_record(rs->note_type, 3, note_fields, values);
}

/* notes(py_notes) -> list: every note in order, the records' built
 * fresh and merged with py_notes (what Python code added to the
 * recorder), each record after the py_notes counted in its pos. */
static PyObject *
Records_notes(Records *self, PyObject *py)
{
    if (!PyList_Check(py)) {
        PyErr_SetString(PyExc_TypeError, "notes() takes a list");
        return NULL;
    }
    Py_ssize_t n_py = PyList_GET_SIZE(py), j = 0, k = 0;
    PyObject *out = PyList_New(self->n + n_py);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < self->n; i++) {
        const Record *r = &self->rec[i];
        for (; j < r->pos && j < n_py; j++) {
            Py_INCREF(PyList_GET_ITEM(py, j));
            PyList_SET_ITEM(out, k++, PyList_GET_ITEM(py, j));
        }
        PyObject *note = records_note(self, r);
        if (note == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, k++, note);
    }
    for (; j < n_py; j++) {
        Py_INCREF(PyList_GET_ITEM(py, j));
        PyList_SET_ITEM(out, k++, PyList_GET_ITEM(py, j));
    }
    return out;
}

/* misses() -> list of DeadlineMiss, in order. */
static PyObject *
Records_misses(Records *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *out = PyList_New(self->n_misses);
    if (out == NULL)
        return NULL;
    Py_ssize_t k = 0;
    for (Py_ssize_t i = 0; i < self->n; i++) {
        const Record *r = &self->rec[i];
        if (r->kind != RK_MISS)
            continue;
        PyObject *task_name = PyTuple_GET_ITEM(self->names, r->task);
        Py_INCREF(task_name);
        PyObject *values[4] = {PyUnicode_FromFormat("%U#%ld", task_name,
                                                    r->index),
                               task_name,
                               PyFloat_FromDouble(r->a),
                               PyFloat_FromDouble(r->t)};
        PyObject *miss = build_record(self->miss_type, 4, miss_fields,
                                      values);
        if (miss == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, k++, miss);
    }
    return out;
}

/* speed_time() -> dict, key-first-seen order. */
static PyObject *
Records_speed_time(Records *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *st = PyDict_New();
    if (st == NULL)
        return NULL;
    for (Py_ssize_t k = 0; k < self->n_spd; k++) {
        PyObject *key = PyFloat_FromDouble(self->spd_key[k]);
        PyObject *val = key == NULL ? NULL
            : PyFloat_FromDouble(self->spd_dur[k]);
        if (val == NULL || PyDict_SetItem(st, key, val) < 0) {
            Py_XDECREF(key);
            Py_XDECREF(val);
            Py_DECREF(st);
            return NULL;
        }
        Py_DECREF(key);
        Py_DECREF(val);
    }
    return st;
}

/* speed_columns() -> (keys, durations): speed_time's keys and values as
 * native doubles in bytes, key-first-seen order. */
static PyObject *
Records_speed_columns(Records *self, PyObject *Py_UNUSED(ignored))
{
    Py_ssize_t size = self->n_spd * (Py_ssize_t)sizeof(double);
    return Py_BuildValue("(y#y#)", (const char *)self->spd_key, size,
                         (const char *)self->spd_dur, size);
}

static PyObject *
Records_get_miss_count(Records *self, void *Py_UNUSED(closure))
{
    return PyLong_FromSsize_t(self->n_misses);
}

static PyObject *
Records_get_note_count(Records *self, void *Py_UNUSED(closure))
{
    return PyLong_FromSsize_t(self->n + self->py_at_end);
}

static PyGetSetDef Records_getset[] = {
    {"miss_count", (getter)Records_get_miss_count, NULL,
     "len(misses()), nothing built.", NULL},
    {"note_count", (getter)Records_get_note_count, NULL,
     "The notes when the run ended, Python-added ones included.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMethodDef Records_methods[] = {
    {"notes", (PyCFunction)Records_notes, METH_O,
     "notes(py_notes) -> every note in order, merged with py_notes."},
    {"misses", (PyCFunction)Records_misses, METH_NOARGS,
     "The DeadlineMiss records, in order."},
    {"speed_time", (PyCFunction)Records_speed_time, METH_NOARGS,
     "The speed_time dict."},
    {"speed_columns", (PyCFunction)Records_speed_columns, METH_NOARGS,
     "(keys, durations) of speed_time as native doubles."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject RecordsType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._fastcore.Records",
    .tp_basicsize = sizeof(Records),
    .tp_dealloc = (destructor)Records_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "A compiled run's per-job records, built when read.",
    .tp_methods = Records_methods,
    .tp_getset = Records_getset,
};

/* ------------------------------------------------------------------ */
/* CoreEngine                                                          */
/* ------------------------------------------------------------------ */

/* One active job.  The slot is the job's state; the Python ``Job`` is
 * built from it only when Python code needs the object (a policy hook,
 * ctx.active_jobs(), a traced segment) and is kept in step with
 * the slot from then on. */
typedef struct {
    PyObject *job;      /* strong ref, or NULL until materialized */
    PyObject *draw;     /* the execution model's work value (strong), or
                         * NULL when the demand came from a DemandTable */
    double deadline;
    double release;
    double work;
    double executed;
    double first_dispatch;
    Py_ssize_t task;    /* index into the task arrays */
    long index;
    long preempt;
    long uid;           /* release serial: identifies the job */
    int missed;
    int dispatched;
} JobSlot;

/* One DRA alpha-queue entry (repro.policies.dra._AlphaEntry), kept in
 * insertion order like the policy's dict. */
typedef struct {
    double deadline;
    double release;
    double budget;
    Py_ssize_t task;
    long index;
    long uid;
    int done;
} AlphaEntry;

/* An open-addressing map from a double (by value: 0.0 == -0.0) to an
 * index. */
typedef struct {
    double *keys;
    Py_ssize_t *vals;   /* -1: empty */
    size_t mask, used;
} DoubleMap;

static size_t
dmap_hash(double x)
{
    uint64_t bits;
    if (x == 0.0)
        x = 0.0;
    memcpy(&bits, &x, sizeof bits);
    bits ^= bits >> 33;
    bits *= 0xff51afd7ed558ccdULL;
    bits ^= bits >> 33;
    return (size_t)bits;
}

static int
dmap_init(DoubleMap *m, size_t size)
{
    m->keys = PyMem_Malloc(size * sizeof(double));
    m->vals = PyMem_Malloc(size * sizeof(Py_ssize_t));
    if (m->keys == NULL || m->vals == NULL)
        return -1;
    for (size_t i = 0; i < size; i++)
        m->vals[i] = -1;
    m->mask = size - 1;
    m->used = 0;
    return 0;
}

static void
dmap_free(DoubleMap *m)
{
    PyMem_Free(m->keys);
    PyMem_Free(m->vals);
    m->keys = NULL;
    m->vals = NULL;
}

static Py_ssize_t
dmap_get(const DoubleMap *m, double x)
{
    size_t i = dmap_hash(x) & m->mask;
    while (m->vals[i] >= 0) {
        if (m->keys[i] == x)
            return m->vals[i];
        i = (i + 1) & m->mask;
    }
    return -1;
}

/* Add x -> v (x must be absent); doubles the table at half load. */
static int
dmap_put(DoubleMap *m, double x, Py_ssize_t v)
{
    if (2 * (m->used + 1) > m->mask + 1) {
        DoubleMap grown;
        if (dmap_init(&grown, 2 * (m->mask + 1)) < 0) {
            dmap_free(&grown);
            PyErr_NoMemory();
            return -1;
        }
        for (size_t i = 0; i <= m->mask; i++)
            if (m->vals[i] >= 0)
                (void)dmap_put(&grown, m->keys[i], m->vals[i]);
        dmap_free(m);
        *m = grown;
    }
    size_t i = dmap_hash(x) & m->mask;
    while (m->vals[i] >= 0)
        i = (i + 1) & m->mask;
    m->keys[i] = x;
    m->vals[i] = v;
    m->used++;
    return 0;
}

/* round(x, 12) as float.__round__ computes it: the correctly rounded
 * 12-decimal string, read back correctly rounded.
 *
 * Fast path, exact without the string: for |x| <= 1, y = x * 1e12 lies
 * below 2**40, so it is within 2**-13 of the exact product.  Unless
 * frac(y) is within 0.01 of one half, nearbyint(y) is the exact
 * product rounded to an integer N, and N / 1e12 (both exact doubles,
 * one correctly rounded division) is the double nearest N * 1e-12:
 * what reading the 12-decimal string back gives.  nearbyint keeps the
 * sign of a result that rounds to zero, like the string "-0.000...".
 * Near-ties and |x| > 1 (or NaN) take the formatter. */
static int
round12(double x, double *out)
{
    if (fabs(x) <= 1.0) {
        double y = x * 1e12;
        if (fabs(y - floor(y) - 0.5) > 0.01) {
            *out = nearbyint(y) / 1e12;
            return 0;
        }
    }
    char *text = PyOS_double_to_string(x, 'f', 12, 0, NULL);
    if (text == NULL)
        return -1;
    *out = PyOS_string_to_double(text, NULL, NULL);
    PyMem_Free(text);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

/* Buffers of the exact walk's merge: actives by (deadline, position),
 * and a heap of event sources keyed by each source's next deadline. */
typedef struct {
    Py_ssize_t *order;
    Py_ssize_t *heap;
    double *head;
    Py_ssize_t cap_active, cap_sources;
} WalkBuffers;

static void
walk_buffers_free(WalkBuffers *ws)
{
    PyMem_Free(ws->order);
    PyMem_Free(ws->heap);
    PyMem_Free(ws->head);
    ws->order = ws->heap = NULL;
    ws->head = NULL;
    ws->cap_active = ws->cap_sources = 0;
}

static int
walk_buffers_reserve(WalkBuffers *ws, Py_ssize_t n_active,
                     Py_ssize_t n_tasks)
{
    if (n_active > ws->cap_active) {
        Py_ssize_t cap = n_active * 2;
        Py_ssize_t *p = PyMem_Realloc(ws->order,
                                      (size_t)cap * sizeof(Py_ssize_t));
        if (p == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        ws->order = p;
        ws->cap_active = cap;
    }
    if (n_tasks + 1 > ws->cap_sources) {
        Py_ssize_t cap = n_tasks + 1;
        Py_ssize_t *hp = PyMem_Realloc(ws->heap,
                                       (size_t)cap * sizeof(Py_ssize_t));
        if (hp == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        ws->heap = hp;
        double *dp = PyMem_Realloc(ws->head, (size_t)cap * sizeof(double));
        if (dp == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        ws->head = dp;
        ws->cap_sources = cap;
    }
    return 0;
}

/* Source a comes before source b: earlier next deadline, then the
 * lower source id (actives are source 0, task i is source i + 1). */
#define SRC_BEFORE(head, a, b) \
    ((head)[a] < (head)[b] || ((head)[a] == (head)[b] && (a) < (b)))

static void
src_sift_down(Py_ssize_t *heap, Py_ssize_t n, const double *head,
              Py_ssize_t pos)
{
    Py_ssize_t item = heap[pos];
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n && SRC_BEFORE(head, heap[child + 1], heap[child]))
            child++;
        if (!SRC_BEFORE(head, heap[child], item))
            break;
        heap[pos] = heap[child];
        pos = child;
    }
    heap[pos] = item;
}

/* The exact walk (analysis.slack._exact_walk): every demand event --
 * active budgets at their deadlines, then each task's future jobs at
 * rel + rdl, rel + rdl + per, ... up to window_end -- in stable
 * (deadline, construction index) order.  The events are not stored and
 * sorted: the actives are sorted once and merged with the per-task
 * arithmetic streams, which come out in deadline order already, so h
 * accumulates in the interpreted order and gives the same bits. */
static double
exact_walk_core(double t, double d_first, double window_end,
                Py_ssize_t n_active, const double *ad, const double *aw,
                Py_ssize_t n_tasks, const double *rel, const double *rdl,
                const double *per, const double *wcet, const double *util,
                const double *corr, WalkBuffers *ws)
{
    double fence = window_end + 1e-12;
    Py_ssize_t *order = ws->order, *heap = ws->heap;
    double *head = ws->head;
    for (Py_ssize_t j = 0; j < n_active; j++) {
        Py_ssize_t k = j;
        while (k > 0 && ad[order[k - 1]] > ad[j]) {
            order[k] = order[k - 1];
            k--;
        }
        order[k] = j;
    }
    Py_ssize_t n_heap = 0, next_active = 0;
    if (n_active > 0) {
        head[0] = ad[order[0]];
        heap[n_heap++] = 0;
    }
    for (Py_ssize_t i = 0; i < n_tasks; i++) {
        double deadline = rel[i] + rdl[i];
        if (deadline <= fence) {
            head[i + 1] = deadline;
            heap[n_heap++] = i + 1;
        }
    }
    for (Py_ssize_t pos = n_heap / 2 - 1; pos >= 0; pos--)
        src_sift_down(heap, n_heap, head, pos);

    double d_lo = d_first - 1e-12;
    double best = INFINITY;
    double h = 0.0;
    double d_k = -INFINITY, group_end = -INFINITY;
    while (n_heap > 0) {
        Py_ssize_t src = heap[0];
        double d = head[src], w;
        int exhausted;
        if (src == 0) {
            w = aw[order[next_active++]];
            exhausted = next_active >= n_active;
            if (!exhausted)
                head[0] = ad[order[next_active]];
        }
        else {
            w = wcet[src - 1];
            double next = d + per[src - 1];
            exhausted = !(next <= fence);
            head[src] = next;
        }
        if (exhausted)
            heap[0] = heap[--n_heap];
        if (n_heap > 0)
            src_sift_down(heap, n_heap, head, 0);
        if (d > group_end) {
            /* d opens a new group: evaluate the one it closes */
            if (d_k >= d_lo) {
                double g = d_k - t - h;
                if (g < best) {
                    if (g <= 0.0)
                        return 0.0;   /* the clamp would give 0.0 */
                    best = g;
                }
            }
            d_k = d;
            group_end = d + 1e-12;
        }
        h += w;
    }
    if (d_k >= d_lo) {
        double g = d_k - t - h;
        if (g < best) {
            if (g <= 0.0)
                return 0.0;
            best = g;
        }
    }
    /* _tail_guard: active budgets + linear future demand at the edge */
    double total = 0.0;
    for (Py_ssize_t j = 0; j < n_active; j++)
        total += aw[j];
    for (Py_ssize_t j = 0; j < n_tasks; j++) {
        double span = window_end - rel[j];
        total += util[j] * ((span > 0.0) ? span : 0.0);
        if (rdl[j] < per[j])
            total += corr[j];
    }
    double tail = window_end - t - total;
    if (tail < best)
        best = tail;
    return (best > 0.0) ? best : 0.0;
}

/* The heuristic walk (analysis.slack._heuristic_walk).  Candidates:
 * active deadlines, d_first, releases >= d_first (duplicates harmless:
 * identical g).  Demand accumulation order is actives in state order,
 * then tasks in task order -- the interpreted loop's, bit for bit. */
static double
heuristic_walk_core(double t, double d_first, Py_ssize_t n_active,
                    const double *ad, const double *aw, Py_ssize_t n_tasks,
                    const double *rel, const double *util,
                    const double *corr)
{
    double best = INFINITY;
    Py_ssize_t n_cand = n_active + 1 + n_tasks;
    for (Py_ssize_t c = 0; c < n_cand; c++) {
        double d_k;
        if (c < n_active)
            d_k = ad[c];
        else if (c == n_active)
            d_k = d_first;
        else {
            d_k = rel[c - n_active - 1];
            if (!(d_k >= d_first))
                continue;   /* release candidates require >= d_first */
        }
        if (d_k < d_first - 1e-12)
            continue;
        double cfence = d_k + 1e-12;
        double total = 0.0;
        for (Py_ssize_t j = 0; j < n_active; j++) {
            if (ad[j] <= cfence)
                total += aw[j];
        }
        for (Py_ssize_t j = 0; j < n_tasks; j++) {
            double headroom = d_k - rel[j];
            if (headroom > 0.0)
                total += util[j] * headroom + corr[j];
        }
        double g = d_k - t - total;
        if (g < best) {
            if (g <= 0.0)
                return 0.0;   /* the clamp would give 0.0 */
            best = g;
        }
    }
    return (best > 0.0) ? best : 0.0;
}

/* One (deadline, work) demand event of the intensity sweep. */
typedef struct {
    double d;
    Py_ssize_t idx;
    double w;
} SlackEvent;

static int
event_cmp(const void *pa, const void *pb)
{
    const SlackEvent *a = pa, *b = pb;
    if (a->d < b->d)
        return -1;
    if (a->d > b->d)
        return 1;
    /* stable: original construction order breaks ties */
    return (a->idx < b->idx) ? -1 : (a->idx > b->idx) ? 1 : 0;
}

/* Stable order of events[0, n) by deadline, written to out[0, n).
 * Source s spans events[bounds[s], bounds[s + 1]): source 0 is the
 * active jobs, source i + 1 is stream i.  Each stream slice is already
 * in deadline order (deadlines are monotone in the job index), so a
 * k-way merge replaces the sort and the few actives get a stable
 * insertion sort.  Ties go to the earlier source, then the earlier
 * position: the (deadline, construction index) order of a stable
 * sort, which a slice out of order falls back to. */
static void
stable_deadline_order(SlackEvent *events, const Py_ssize_t *bounds,
                      Py_ssize_t n_sources, Py_ssize_t *cursor,
                      SlackEvent *out)
{
    Py_ssize_t n = bounds[n_sources];
    for (Py_ssize_t s = 1; s < n_sources; s++) {
        for (Py_ssize_t j = bounds[s] + 1; j < bounds[s + 1]; j++) {
            if (events[j].d < events[j - 1].d) {
                for (Py_ssize_t i = 0; i < n; i++) {
                    out[i] = events[i];
                    out[i].idx = i;
                }
                qsort(out, (size_t)n, sizeof(SlackEvent), event_cmp);
                return;
            }
        }
    }
    for (Py_ssize_t j = 1; j < bounds[1]; j++) {
        SlackEvent key = events[j];
        Py_ssize_t k = j;
        while (k > 0 && events[k - 1].d > key.d) {
            events[k] = events[k - 1];
            k--;
        }
        events[k] = key;
    }
    for (Py_ssize_t s = 0; s < n_sources; s++)
        cursor[s] = bounds[s];
    for (Py_ssize_t m = 0; m < n; m++) {
        Py_ssize_t best = -1;
        for (Py_ssize_t s = 0; s < n_sources; s++) {
            if (cursor[s] < bounds[s + 1] &&
                (best < 0 || events[cursor[s]].d < events[cursor[best]].d))
                best = s;
        }
        out[m] = events[cursor[best]++];
    }
}

/* peak_intensity's running state over events visited in stable
 * deadline order: h sums the work visited so far, d_k is the open
 * group's first deadline and group_end its end. */
typedef struct {
    double t, edge, best, h, d_k, group_end;
} IntensitySweep;

static inline void
intensity_start(IntensitySweep *s, double t, double window_end)
{
    *s = (IntensitySweep){t, window_end + 1e-9, 0.0, 0.0, -INFINITY,
                          -INFINITY};
}

/* Visit one event: a group is every event within 1e-12 of its first
 * deadline, evaluated when the next group opens (the final group is
 * closed by an infinite sentinel deadline of no work). */
static inline void
intensity_visit(IntensitySweep *s, double d, double w)
{
    if (d > s->group_end) {
        double span = s->d_k - s->t;
        if (span > 1e-12 && s->d_k <= s->edge) {
            double ratio = s->h / span;
            if (ratio > s->best)
                s->best = ratio;
        }
        s->d_k = d;
        s->group_end = d + 1e-12;
    }
    s->h += w;
}

/* peak_intensity over the events of n_sources sources (see
 * stable_deadline_order; ordered and cursor are work space of the events'
 * and the sources' size). */
static double
intensity_core(double t, double window_end, SlackEvent *events,
               const Py_ssize_t *bounds, Py_ssize_t n_sources,
               Py_ssize_t *cursor, SlackEvent *ordered)
{
    Py_ssize_t n = bounds[n_sources];
    stable_deadline_order(events, bounds, n_sources, cursor, ordered);
    IntensitySweep s;
    intensity_start(&s, t, window_end);
    for (Py_ssize_t i = 0; i < n; i++)
        intensity_visit(&s, ordered[i].d, ordered[i].w);
    intensity_visit(&s, INFINITY, 0.0);
    return s.best;
}

/* One future job of a run's clairvoyant stream. */
typedef struct {
    double d, w;
    Py_ssize_t task, k;
} FutureJob;

typedef struct {
    PyObject_HEAD

    /* configuration objects (strong refs; surfaced to SimContext) */
    PyObject *taskset, *processor, *execution_model, *arrival_model,
        *trace, *result;
    /* the live dicts Python reads (sim._next_release, _next_index):
     * written from next_release/next_index only when Python can read
     * them (ce_sync_mirrors), not per release */
    PyObject *next_release_dict, *next_index_dict;
    PyObject *tasks;        /* tuple of PeriodicTask */
    PyObject *names;        /* tuple of str */
    PyObject *name2idx;     /* dict name -> int */
    PyObject *task_stats;   /* tuple of TaskStats, task order */

    /* bound methods / callables */
    PyObject *m_select_speed, *m_on_release, *m_on_completion,
        *m_observe, *m_plan_idle, *m_work, *m_arrival, *m_quantize,
        *m_active_energy, *m_transition, *m_transition_outcome;
    /* fastcore helpers: the Job constructor and the error raisers */
    PyObject *h_mk_job, *h_miss, *h_bad_speed, *h_bad_quant,
        *h_no_progress, *h_overexec, *h_neg_exec, *h_trace_run;
    /* the per-job records: the store the result takes over, and the
     * recorder's note list, where Python code adds its notes */
    Records *records;
    PyObject *notes;

    PyObject *ctx;          /* set for the duration of run() only */

    /* per-task static data */
    Py_ssize_t n_tasks;
    double *t_period, *t_rel_deadline, *t_wcet;
    long *t_rank;

    /* per-task demand tables (borrowed from the demand_tables tuple),
     * or NULL: the execution model's work() draws */
    PyObject *demand_tables;
    DemandTable **tables;

    /* per-task run state */
    double *next_release;
    long *next_index;
    double *last_arrival;   /* NAN == no arrival yet */
    char *mirror_stale;     /* released since the dicts were written */
    int mirrors_stale;      /* any entry of mirror_stale set */

    /* per-task stat accumulators */
    long *st_released, *st_completed, *st_preempt, *st_missed;
    double *st_exec, *st_resp, *st_maxresp;

    /* active jobs */
    JobSlot *active;
    Py_ssize_t n_active, cap_active;

    /* run state */
    double now, current_speed, horizon;
    long release_version, switch_attempts;
    long last_running;      /* uid of the last dispatched job, or -1 */
    int tele;               /* telemetry.enabled, read once per run */

    /* the compiled decide (DESIGN.md section 13.4); DK_PYTHON calls the
     * policy's select_speed */
    int dk, dk_option;
    double dk_baseline, dk_min_speed, dk_cap, dk_max_period;
    double dk_kp, dk_ki, dk_kd, dk_total_util;
    double *sc_wcet, *sc_util, *sc_corr;  /* reference-base columns */
    double *fu_util, *fu_corr;            /* full-speed columns */
    long analysis_calls;
    double *pid_pred, *pid_int, *pid_last;  /* feedback, per task */
    double *cc_util;                        /* ccEDF, per task */
    /* clairvoyant: the active jobs' events, and the run's future jobs
     * in (deadline, task) order, live from fj_head, generated through
     * every deadline within fj_fence; fj_release/fj_index continue each
     * task's releases from its first */
    SlackEvent *iv_events;
    Py_ssize_t iv_cap;
    FutureJob *fj;
    Py_ssize_t fj_head, fj_len, fj_cap;
    double fj_fence;
    double *fj_release;
    long *fj_index;
    AlphaEntry *alpha;                      /* DRA, insertion order */
    Py_ssize_t n_alpha, cap_alpha;
    Py_ssize_t *alpha_order;
    double canonical_now;
    PyObject *m_observe_slack, *m_prof_push, *m_prof_pop, *decide_label;
    /* the safety governor's feasibility floor over the decide above:
     * the margin-inflated tasks' columns, task order; gv_cap is its
     * window cap (NAN: none) */
    int gov;
    double *gv_wcet, *gv_util, *gv_corr;
    double gv_cap, gv_max_clamp;
    long gv_interventions, gv_dispatches;
    PyObject *m_gov_slack, *m_gov_clamp;
    /* per-dispatch buffers: active columns, releases, walk merge */
    double *w_ad, *w_aw, *w_rel;
    Py_ssize_t *w_idx;
    Py_ssize_t w_cap;
    WalkBuffers ws;

    /* flags */
    int allow_misses, record_trace, faults_transitions, allow_overrun,
        is_periodic, periodic_inline, quant_kind, power_kind,
        trans_none, has_idle_policy;

    /* inline model parameters */
    double q_min;
    const double *q_levels;
    Py_ssize_t q_nlevels;
    double p_alpha, p_dynamic, p_static;
    double idle_power, sleep_power, wakeup_energy;

    /* result accumulators */
    double busy_energy, idle_energy, switch_energy, sleep_energy;
    double busy_time, idle_time, switch_time, sleep_time;
    long switch_count, sleep_episodes, idle_episodes, dispatches,
        jobs_released, jobs_completed, overruns, transition_faults;

    /* speed_time: the store's accumulators, one per round(speed, 12)
     * key in key-first-seen order; durations add up in time order,
     * exactly like the interpreted engine's dict updates.  spd_keyed
     * maps each key to its index. */
    DoubleMap spd_keyed;
} CoreEngine;

static void
CoreEngine_dealloc(CoreEngine *self)
{
    Py_XDECREF(self->taskset); Py_XDECREF(self->processor);
    Py_XDECREF(self->execution_model); Py_XDECREF(self->arrival_model);
    Py_XDECREF(self->trace); Py_XDECREF(self->result);
    Py_XDECREF(self->next_release_dict); Py_XDECREF(self->next_index_dict);
    Py_XDECREF(self->tasks); Py_XDECREF(self->names);
    Py_XDECREF(self->name2idx); Py_XDECREF(self->task_stats);
    Py_XDECREF(self->m_select_speed); Py_XDECREF(self->m_on_release);
    Py_XDECREF(self->m_on_completion); Py_XDECREF(self->m_observe);
    Py_XDECREF(self->m_plan_idle);
    Py_XDECREF(self->m_work); Py_XDECREF(self->m_arrival);
    Py_XDECREF(self->m_quantize); Py_XDECREF(self->m_active_energy);
    Py_XDECREF(self->m_transition); Py_XDECREF(self->m_transition_outcome);
    Py_XDECREF(self->h_mk_job); Py_XDECREF(self->h_miss);
    Py_XDECREF(self->h_bad_speed);
    Py_XDECREF(self->h_bad_quant); Py_XDECREF(self->h_no_progress);
    Py_XDECREF(self->h_overexec); Py_XDECREF(self->h_neg_exec);
    Py_XDECREF(self->h_trace_run);
    Py_XDECREF(self->records); Py_XDECREF(self->notes);
    Py_XDECREF(self->ctx);
    Py_XDECREF(self->m_observe_slack); Py_XDECREF(self->m_prof_push);
    Py_XDECREF(self->m_prof_pop); Py_XDECREF(self->decide_label);
    Py_XDECREF(self->m_gov_slack); Py_XDECREF(self->m_gov_clamp);
    for (Py_ssize_t i = 0; i < self->n_active; i++) {
        Py_XDECREF(self->active[i].job);
        Py_XDECREF(self->active[i].draw);
    }
    PyMem_Free(self->sc_wcet); PyMem_Free(self->sc_util);
    PyMem_Free(self->sc_corr); PyMem_Free(self->fu_util);
    PyMem_Free(self->fu_corr);
    PyMem_Free(self->gv_wcet); PyMem_Free(self->gv_util);
    PyMem_Free(self->gv_corr);
    PyMem_Free(self->pid_pred); PyMem_Free(self->pid_int);
    PyMem_Free(self->pid_last); PyMem_Free(self->cc_util);
    PyMem_Free(self->iv_events); PyMem_Free(self->fj);
    PyMem_Free(self->fj_release); PyMem_Free(self->fj_index);
    Py_XDECREF(self->demand_tables); PyMem_Free(self->tables);
    PyMem_Free(self->alpha); PyMem_Free(self->alpha_order);
    PyMem_Free(self->w_ad); PyMem_Free(self->w_aw); PyMem_Free(self->w_rel);
    PyMem_Free(self->w_idx);
    walk_buffers_free(&self->ws);
    dmap_free(&self->spd_keyed);
    PyMem_Free(self->active);
    PyMem_Free(self->t_period); PyMem_Free(self->t_rel_deadline);
    PyMem_Free(self->t_wcet); PyMem_Free(self->t_rank);
    PyMem_Free(self->next_release); PyMem_Free(self->next_index);
    PyMem_Free(self->last_arrival); PyMem_Free(self->mirror_stale);
    PyMem_Free(self->st_released); PyMem_Free(self->st_completed);
    PyMem_Free(self->st_preempt); PyMem_Free(self->st_missed);
    PyMem_Free(self->st_exec);
    PyMem_Free(self->st_resp); PyMem_Free(self->st_maxresp);
    PyMem_Free((void *)self->q_levels);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Pull one attribute off the config namespace into a strong ref. */
static int
ns_get(PyObject *ns, const char *name, PyObject **slot)
{
    PyObject *val = get_named(ns, name);
    if (val == NULL)
        return -1;
    *slot = val;
    return 0;
}

static int
ns_get_double(PyObject *ns, const char *name, double *out)
{
    PyObject *val = get_named(ns, name);
    if (val == NULL)
        return -1;
    *out = PyFloat_AsDouble(val);
    Py_DECREF(val);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

static int
ns_get_int(PyObject *ns, const char *name, int *out)
{
    PyObject *val = get_named(ns, name);
    if (val == NULL)
        return -1;
    long v = PyLong_AsLong(val);
    Py_DECREF(val);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = (int)v;
    return 0;
}

/* The decide spec (fastcore._decide_fields): kind, parameters, the
 * per-task columns of the reference-base and full-speed tasks, and the
 * governor stage's. */
static int
ce_init_decide(CoreEngine *self, PyObject *ns)
{
    if (ns_get_int(ns, "decide_kind", &self->dk) < 0 ||
        ns_get_int(ns, "decide_option", &self->dk_option) < 0 ||
        ns_get_double(ns, "decide_baseline", &self->dk_baseline) < 0 ||
        ns_get_double(ns, "decide_min_speed", &self->dk_min_speed) < 0 ||
        ns_get_double(ns, "decide_cap", &self->dk_cap) < 0 ||
        ns_get_double(ns, "decide_kp", &self->dk_kp) < 0 ||
        ns_get_double(ns, "decide_ki", &self->dk_ki) < 0 ||
        ns_get_double(ns, "decide_kd", &self->dk_kd) < 0 ||
        ns_get(ns, "observe_slack", &self->m_observe_slack) < 0 ||
        ns_get(ns, "prof_push", &self->m_prof_push) < 0 ||
        ns_get(ns, "prof_pop", &self->m_prof_pop) < 0 ||
        ns_get(ns, "decide_label", &self->decide_label) < 0 ||
        ns_get_int(ns, "gov_stage", &self->gov) < 0 ||
        ns_get_double(ns, "gov_cap", &self->gv_cap) < 0 ||
        ns_get(ns, "gov_slack", &self->m_gov_slack) < 0 ||
        ns_get(ns, "gov_clamp", &self->m_gov_clamp) < 0)
        return -1;
    Py_ssize_t n = self->n_tasks, got;
    PyObject *seq;
#define GETCOL(attr, field, used) \
    seq = get_named(ns, attr); \
    if (seq == NULL) return -1; \
    self->field = seq_as_doubles(seq, &got); \
    Py_DECREF(seq); \
    if (self->field == NULL) return -1; \
    if ((used) && got != n) { \
        PyErr_SetString(PyExc_ValueError, attr ": one value per task"); \
        return -1; }
    GETCOL("sc_wcet", sc_wcet, self->dk) GETCOL("sc_util", sc_util, self->dk)
    GETCOL("sc_corr", sc_corr, self->dk) GETCOL("fu_util", fu_util, self->dk)
    GETCOL("fu_corr", fu_corr, self->dk)
    GETCOL("gov_wcet", gv_wcet, self->gov)
    GETCOL("gov_util", gv_util, self->gov)
    GETCOL("gov_corr", gv_corr, self->gov)
#undef GETCOL
    size_t nn = (size_t)(n > 0 ? n : 1);
    self->pid_pred = PyMem_Malloc(nn * sizeof(double));
    self->pid_int = PyMem_Calloc(nn, sizeof(double));
    self->pid_last = PyMem_Calloc(nn, sizeof(double));
    self->cc_util = PyMem_Malloc(nn * sizeof(double));
    self->fj_release = PyMem_Malloc(nn * sizeof(double));
    self->fj_index = PyMem_Malloc(nn * sizeof(long));
    self->w_rel = PyMem_Malloc(nn * sizeof(double));
    self->w_cap = 16;
    self->w_ad = PyMem_Malloc((size_t)self->w_cap * sizeof(double));
    self->w_aw = PyMem_Malloc((size_t)self->w_cap * sizeof(double));
    self->w_idx = PyMem_Malloc((size_t)self->w_cap * sizeof(Py_ssize_t));
    self->cap_alpha = 16;
    self->alpha = PyMem_Malloc((size_t)self->cap_alpha * sizeof(AlphaEntry));
    self->alpha_order = PyMem_Malloc((size_t)self->cap_alpha
                                     * sizeof(Py_ssize_t));
    if (self->pid_pred == NULL || self->pid_int == NULL ||
        self->pid_last == NULL || self->cc_util == NULL ||
        self->fj_release == NULL || self->fj_index == NULL ||
        self->w_rel == NULL ||
        self->w_ad == NULL || self->w_aw == NULL || self->w_idx == NULL ||
        self->alpha == NULL || self->alpha_order == NULL ||
        walk_buffers_reserve(&self->ws, self->w_cap, n) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    /* Python sums from int 0: 0 + u0 == u0 exactly, then in order */
    self->dk_total_util = 0.0;
    self->dk_max_period = n > 0 ? self->t_period[0] : 0.0;
    for (Py_ssize_t i = 0; i < n; i++) {
        self->pid_pred[i] = self->t_wcet[i];   /* cold start at the WCET */
        if (self->dk != 0) {
            self->dk_total_util += self->fu_util[i];
            self->cc_util[i] = self->fu_util[i];   /* worst case until done */
        }
        self->dk_max_period = py_max(self->dk_max_period, self->t_period[i]);
        self->fj_release[i] = self->next_release[i];
        self->fj_index[i] = self->next_index[i];
    }
    self->fj_fence = -INFINITY;
    self->n_alpha = 0;
    self->canonical_now = 0.0;
    self->analysis_calls = 0;
    self->gv_interventions = self->gv_dispatches = 0;
    self->gv_max_clamp = 0.0;
    return 0;
}

static int
CoreEngine_init(CoreEngine *self, PyObject *args, PyObject *kwds)
{
    PyObject *ns;
    if (kwds != NULL && PyDict_GET_SIZE(kwds) != 0) {
        PyErr_SetString(PyExc_TypeError, "CoreEngine takes no kwargs");
        return -1;
    }
    if (!PyArg_ParseTuple(args, "O", &ns))
        return -1;

#define GET(field) if (ns_get(ns, #field, &self->field) < 0) return -1;
    GET(taskset) GET(processor) GET(execution_model)
    GET(arrival_model) GET(trace) GET(result)
    GET(tasks) GET(names) GET(name2idx) GET(task_stats)
#undef GET
    if (ns_get(ns, "next_release", &self->next_release_dict) < 0 ||
        ns_get(ns, "next_index", &self->next_index_dict) < 0)
        return -1;
#define GETM(field) if (ns_get(ns, #field + 2, &self->field) < 0) return -1;
    GETM(m_select_speed) GETM(m_on_release) GETM(m_on_completion)
    GETM(m_observe)
    GETM(m_plan_idle) GETM(m_work) GETM(m_arrival) GETM(m_quantize)
    GETM(m_active_energy) GETM(m_transition) GETM(m_transition_outcome)
    GETM(h_mk_job) GETM(h_miss) GETM(h_bad_speed) GETM(h_bad_quant)
    GETM(h_no_progress) GETM(h_overexec) GETM(h_neg_exec)
    GETM(h_trace_run)
#undef GETM
    PyObject *note_type, *miss_type;
    if (ns_get(ns, "notes", &self->notes) < 0)
        return -1;
    if (ns_get(ns, "note_type", &note_type) < 0)
        return -1;
    if (ns_get(ns, "miss_type", &miss_type) < 0) {
        Py_DECREF(note_type);
        return -1;
    }
    if (PyList_Check(self->notes) && PyTuple_Check(self->names) &&
        PyType_Check(note_type) && PyType_Check(miss_type))
        self->records = records_new(self->names, note_type, miss_type);
    else
        PyErr_SetString(PyExc_TypeError,
                        "notes must be a list, names a tuple, "
                        "note_type and miss_type classes");
    Py_DECREF(note_type);
    Py_DECREF(miss_type);
    if (self->records == NULL)
        return -1;

    if (ns_get_double(ns, "horizon", &self->horizon) < 0 ||
        ns_get_double(ns, "q_min", &self->q_min) < 0 ||
        ns_get_double(ns, "p_alpha", &self->p_alpha) < 0 ||
        ns_get_double(ns, "p_dynamic", &self->p_dynamic) < 0 ||
        ns_get_double(ns, "p_static", &self->p_static) < 0 ||
        ns_get_double(ns, "idle_power", &self->idle_power) < 0 ||
        ns_get_double(ns, "sleep_power", &self->sleep_power) < 0 ||
        ns_get_double(ns, "wakeup_energy", &self->wakeup_energy) < 0)
        return -1;
    if (ns_get_int(ns, "allow_misses", &self->allow_misses) < 0 ||
        ns_get_int(ns, "record_trace", &self->record_trace) < 0 ||
        ns_get_int(ns, "faults_transitions", &self->faults_transitions) < 0 ||
        ns_get_int(ns, "allow_overrun", &self->allow_overrun) < 0 ||
        ns_get_int(ns, "is_periodic", &self->is_periodic) < 0 ||
        ns_get_int(ns, "periodic_inline", &self->periodic_inline) < 0 ||
        ns_get_int(ns, "quant_kind", &self->quant_kind) < 0 ||
        ns_get_int(ns, "power_kind", &self->power_kind) < 0 ||
        ns_get_int(ns, "trans_none", &self->trans_none) < 0 ||
        ns_get_int(ns, "has_idle_policy", &self->has_idle_policy) < 0)
        return -1;

    PyObject *seq;
    Py_ssize_t n = 0, n2 = 0;
#define GETARR(attr, field, conv) \
    seq = get_named(ns, attr); \
    if (seq == NULL) return -1; \
    self->field = conv(seq, &n2); \
    Py_DECREF(seq); \
    if (self->field == NULL) return -1;
    GETARR("period", t_period, seq_as_doubles) n = n2;
    GETARR("rel_deadline", t_rel_deadline, seq_as_doubles)
    GETARR("wcet", t_wcet, seq_as_doubles)
    GETARR("name_rank", t_rank, seq_as_longs)
    GETARR("release0", next_release, seq_as_doubles)
#undef GETARR
    self->n_tasks = n;

    if (ns_get(ns, "demand_tables", &self->demand_tables) < 0)
        return -1;
    if (self->demand_tables != Py_None) {
        if (!PyTuple_Check(self->demand_tables) ||
            PyTuple_GET_SIZE(self->demand_tables) != n) {
            PyErr_SetString(PyExc_ValueError,
                            "demand_tables: one DemandTable per task");
            return -1;
        }
        self->tables = PyMem_Malloc((size_t)(n > 0 ? n : 1)
                                    * sizeof(DemandTable *));
        if (self->tables == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (Py_ssize_t i = 0; i < n; i++) {
            PyObject *table = PyTuple_GET_ITEM(self->demand_tables, i);
            if (!PyObject_TypeCheck(table, &DemandTableType) ||
                ((DemandTable *)table)->key == NULL) {
                PyErr_SetString(PyExc_TypeError,
                                "demand_tables: one DemandTable per task");
                return -1;
            }
            self->tables[i] = (DemandTable *)table;
        }
    }

    seq = get_named(ns, "q_levels");
    if (seq == NULL)
        return -1;
    self->q_levels = seq_as_doubles(seq, &self->q_nlevels);
    Py_DECREF(seq);
    if (self->q_levels == NULL)
        return -1;

    self->next_index = PyMem_Malloc((size_t)(n > 0 ? n : 1) * sizeof(long));
    self->last_arrival = PyMem_Malloc((size_t)(n > 0 ? n : 1) * sizeof(double));
    self->mirror_stale = PyMem_Calloc((size_t)(n > 0 ? n : 1), 1);
    self->st_released = PyMem_Calloc((size_t)(n > 0 ? n : 1), sizeof(long));
    self->st_completed = PyMem_Calloc((size_t)(n > 0 ? n : 1), sizeof(long));
    self->st_preempt = PyMem_Calloc((size_t)(n > 0 ? n : 1), sizeof(long));
    self->st_missed = PyMem_Calloc((size_t)(n > 0 ? n : 1), sizeof(long));
    self->st_exec = PyMem_Calloc((size_t)(n > 0 ? n : 1), sizeof(double));
    self->st_resp = PyMem_Calloc((size_t)(n > 0 ? n : 1), sizeof(double));
    self->st_maxresp = PyMem_Calloc((size_t)(n > 0 ? n : 1), sizeof(double));
    if (self->next_index == NULL || self->last_arrival == NULL ||
        self->mirror_stale == NULL ||
        self->st_released == NULL || self->st_completed == NULL ||
        self->st_preempt == NULL || self->st_missed == NULL ||
        self->st_exec == NULL ||
        self->st_resp == NULL || self->st_maxresp == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        self->next_index[i] = 0;
        self->last_arrival[i] = NAN;
    }

    self->cap_active = 16;
    self->active = PyMem_Malloc((size_t)self->cap_active * sizeof(JobSlot));
    if (self->active == NULL || dmap_init(&self->spd_keyed, 16) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    self->n_active = 0;
    self->now = 0.0;
    self->current_speed = 1.0;
    self->release_version = 0;
    self->mirrors_stale = 0;
    self->switch_attempts = 0;
    self->last_running = -1;
    self->ctx = NULL;
    if (ns_get_int(ns, "telemetry_on", &self->tele) < 0)
        return -1;
    return ce_init_decide(self, ns);
}

/* ------------------------------------------------------------------ */
/* engine internals                                                    */
/* ------------------------------------------------------------------ */

static double
ce_release_min(CoreEngine *e)
{
    double best = e->next_release[0];
    for (Py_ssize_t i = 1; i < e->n_tasks; i++)
        if (e->next_release[i] < best)
            best = e->next_release[i];
    return best;
}

static double
ce_next_release_global(CoreEngine *e)
{
    double top = ce_release_min(e);
    if (top < e->horizon - K_TIME_EPS)
        return top;
    return e->horizon;
}

static Py_ssize_t
ce_find_slot(CoreEngine *e, long uid)
{
    for (Py_ssize_t i = 0; i < e->n_active; i++)
        if (e->active[i].uid == uid)
            return i;
    return -1;
}

/* Set one attribute of a materialized job. */
static int
job_set(PyObject *job, PyObject *name, PyObject *value)
{
    if (value == NULL)
        return -1;
    int rc = PyObject_SetAttr(job, name, value);
    Py_DECREF(value);
    return rc;
}

/* The slot's Job, built on first use through fastcore._mk_job (so
 * Job.from_task stays the one constructor) and brought up to the
 * slot's state.  Returns a borrowed reference. */
static PyObject *
ce_job(CoreEngine *e, Py_ssize_t idx)
{
    JobSlot *s = &e->active[idx];
    if (s->job != NULL)
        return s->job;
    PyObject *task = PyTuple_GET_ITEM(e->tasks, s->task);
    if (s->draw == NULL && (s->draw = PyFloat_FromDouble(s->work)) == NULL)
        return NULL;
    PyObject *iobj = PyLong_FromLong(s->index);
    PyObject *rel = PyFloat_FromDouble(s->release);
    PyObject *job = (iobj == NULL || rel == NULL) ? NULL :
        PyObject_CallFunctionObjArgs(
            e->h_mk_job, task, iobj, s->draw, rel,
            e->allow_overrun ? Py_True : Py_False, NULL);
    Py_XDECREF(iobj);
    Py_XDECREF(rel);
    if (job == NULL)
        return NULL;
    if ((s->executed != 0.0 &&
         job_set(job, s_executed, PyFloat_FromDouble(s->executed)) < 0) ||
        (s->dispatched &&
         job_set(job, s_first_dispatch_time,
                 PyFloat_FromDouble(s->first_dispatch)) < 0) ||
        (s->preempt != 0 &&
         job_set(job, s_preemption_count, PyLong_FromLong(s->preempt)) < 0)) {
        Py_DECREF(job);
        return NULL;
    }
    s->job = job;
    return job;
}

/* Slot state the engine updates, mirrored onto a materialized job (an
 * int attribute when is_int); a slot without a Job builds nothing. */
static int
ce_sync(CoreEngine *e, Py_ssize_t idx, PyObject *name, double value,
        int is_int)
{
    PyObject *job = e->active[idx].job;
    if (job == NULL)
        return 0;
    return job_set(job, name, is_int ? PyLong_FromLong((long)value)
                                     : PyFloat_FromDouble(value));
}

/* Write each task released since the last call into the live dicts
 * (sim._next_release, sim._next_index).  Called wherever Python can
 * read them: their getters, before every Python hook that receives the
 * context, and by ce_flush. */
static int
ce_sync_mirrors(CoreEngine *e)
{
    if (!e->mirrors_stale)
        return 0;
    for (Py_ssize_t i = 0; i < e->n_tasks; i++) {
        if (!e->mirror_stale[i])
            continue;
        PyObject *name = PyTuple_GET_ITEM(e->names, i);
        PyObject *rel = PyFloat_FromDouble(e->next_release[i]);
        int rc = rel == NULL ? -1
            : PyDict_SetItem(e->next_release_dict, name, rel);
        Py_XDECREF(rel);
        PyObject *index = rc < 0 ? NULL : PyLong_FromLong(e->next_index[i]);
        rc = index == NULL ? -1
            : PyDict_SetItem(e->next_index_dict, name, index);
        Py_XDECREF(index);
        if (rc < 0)
            return -1;
        e->mirror_stale[i] = 0;
    }
    e->mirrors_stale = 0;
    return 0;
}

/* EDF pick: min over (deadline, release, task-name rank, index). */
static Py_ssize_t
ce_pick(CoreEngine *e)
{
    if (e->n_active == 0)
        return -1;
    Py_ssize_t best = 0;
    for (Py_ssize_t i = 1; i < e->n_active; i++) {
        JobSlot *a = &e->active[i], *b = &e->active[best];
        if (a->deadline != b->deadline) {
            if (a->deadline < b->deadline)
                best = i;
            continue;
        }
        if (a->release != b->release) {
            if (a->release < b->release)
                best = i;
            continue;
        }
        long ra = e->t_rank[a->task], rb = e->t_rank[b->task];
        if (ra != rb) {
            if (ra < rb)
                best = i;
            continue;
        }
        if (a->index < b->index)
            best = i;
    }
    return best;
}

/* ------------------------------------------------------------------ */
/* per-job records                                                     */
/* ------------------------------------------------------------------ */

/* trace.note(...) for a record of kind at time t: appended to the run's
 * store, after the notes Python code has added so far (ctx.note). */
static int
ce_note(CoreEngine *e, int kind, double t, Py_ssize_t task, long index,
        double a, double b)
{
    return records_add(e->records, kind, t, PyList_GET_SIZE(e->notes),
                       (int)task, index, a, b);
}

/* Simulator._register_miss from the slot, no Job built: the miss record
 * (the DeadlineMiss and the note) and the task's missed count; when
 * misses abort the run, fastcore._miss then raises the
 * DeadlineMissError. */
static int
ce_miss(CoreEngine *e, JobSlot *s, double detected_at)
{
    s->missed = 1;
    e->st_missed[s->task]++;
    if (ce_note(e, RK_MISS, detected_at, s->task, s->index, s->deadline,
                0.0) < 0)
        return -1;
    if (e->allow_misses)
        return 0;
    PyObject *r = PyObject_CallFunction(
        e->h_miss, "OOldd", e->result, PyTuple_GET_ITEM(e->tasks, s->task),
        s->index, s->deadline, detected_at);
    Py_XDECREF(r);
    return -1;
}

static int
ce_check_misses(CoreEngine *e)
{
    double fence = e->now - K_DEADLINE_EPS;
    for (Py_ssize_t i = 0; i < e->n_active; i++) {
        if (e->active[i].deadline < fence && !e->active[i].missed) {
            if (ce_miss(e, &e->active[i], e->now) < 0)
                return -1;
        }
    }
    return 0;
}

static int
ce_active_append(CoreEngine *e, JobSlot slot)
{
    if (e->n_active == e->cap_active) {
        Py_ssize_t cap = e->cap_active * 2;
        JobSlot *grown = PyMem_Realloc(e->active,
                                       (size_t)cap * sizeof(JobSlot));
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        e->active = grown;
        e->cap_active = cap;
    }
    e->active[e->n_active++] = slot;
    return 0;
}

/* ------------------------------------------------------------------ */
/* the compiled decide (DESIGN.md section 13.4)                        */
/* ------------------------------------------------------------------ */

/* Each kind mirrors one policy's select_speed (and, for feedback and
 * DRA, its release/completion hooks) operation for operation; the
 * Python bodies stay the reference (tests/test_decide.py). */
enum { DK_PYTHON = 0, DK_LPSTA, DK_LPSEH, DK_LAEDF, DK_FEEDBACK, DK_DRA,
       DK_CONST, DK_CCEDF, DK_LPPS, DK_CLAIRVOYANT };

/* Job.remaining_wcet: wcet - executed, clamped at zero. */
static inline double
slot_budget(const CoreEngine *e, const JobSlot *s)
{
    double w = e->t_wcet[s->task] - s->executed;
    return (w > 0.0) ? w : 0.0;
}

/* SimContext.next_release_of: the earliest release an online policy
 * may assume (the sampled one for periodic arrivals). */
static double
ce_release_view(const CoreEngine *e, Py_ssize_t i)
{
    if (e->is_periodic)
        return e->next_release[i];
    double v = isnan(e->last_arrival[i]) ? e->next_release[i]
                                          : e->last_arrival[i] + e->t_period[i];
    return py_max(e->now, v);
}

static int
ce_reserve_buffers(CoreEngine *e)
{
    if (e->n_active > e->w_cap) {
        Py_ssize_t cap = e->n_active * 2;
        double *ad = PyMem_Realloc(e->w_ad, (size_t)cap * sizeof(double));
        if (ad != NULL)
            e->w_ad = ad;
        double *aw = ad == NULL ? NULL :
            PyMem_Realloc(e->w_aw, (size_t)cap * sizeof(double));
        if (aw != NULL)
            e->w_aw = aw;
        Py_ssize_t *ix = aw == NULL ? NULL :
            PyMem_Realloc(e->w_idx, (size_t)cap * sizeof(Py_ssize_t));
        if (ix == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        e->w_idx = ix;
        e->w_cap = cap;
    }
    return walk_buffers_reserve(&e->ws, e->n_active, e->n_tasks);
}

/* SimContext.slack_state as columns: active deadlines and budgets
 * (the task's entry of *wcet* minus executed, clamped at zero, divided
 * by the baseline unless it is exactly 1.0) and each task's next
 * release; also min() and max() of the active deadlines. */
static void
ce_fill_state(CoreEngine *e, const double *wcet, double baseline,
              double *d_min, double *d_max)
{
    double lo = e->active[0].deadline, hi = lo;
    for (Py_ssize_t j = 0; j < e->n_active; j++) {
        const JobSlot *s = &e->active[j];
        double w = wcet[s->task] - s->executed;
        w = (w > 0.0) ? w : 0.0;
        if (baseline != 1.0)
            w = w / baseline;
        e->w_ad[j] = s->deadline;
        e->w_aw[j] = w;
        lo = py_min(lo, s->deadline);
        hi = py_max(hi, s->deadline);
    }
    for (Py_ssize_t i = 0; i < e->n_tasks; i++)
        e->w_rel[i] = ce_release_view(e, i);
    *d_min = lo;
    *d_max = hi;
}

static int
ce_call_void(PyObject *fn, PyObject *arg)
{
    PyObject *r = arg == NULL ? PyObject_CallNoArgs(fn)
                              : PyObject_CallOneArg(fn, arg);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* One slack walk over the filled state, inside the profiler region
 * exact_slack / heuristic_slack open when profiling is on. */
static int
ce_slack(CoreEngine *e, int exact, double d_first, double window_end,
         const double *wcet, const double *util, const double *corr,
         double *out)
{
    int prof = e->m_prof_push != Py_None;
    if (prof && ce_call_void(e->m_prof_push, exact ? s_slack_exact
                                                   : s_slack_heuristic) < 0)
        return -1;
    if (exact)
        *out = exact_walk_core(e->now, d_first, window_end, e->n_active,
                               e->w_ad, e->w_aw, e->n_tasks, e->w_rel,
                               e->t_rel_deadline, e->t_period, wcet, util,
                               corr, &e->ws);
    else
        *out = heuristic_walk_core(e->now, d_first, e->n_active, e->w_ad,
                                   e->w_aw, e->n_tasks, e->w_rel, util,
                                   corr);
    return prof ? ce_call_void(e->m_prof_pop, NULL) : 0;
}

/* DvsPolicy.observe_slack, called only when telemetry is on. */
static int
ce_observe_slack(CoreEngine *e, double slack)
{
    if (!e->tele)
        return 0;
    PyObject *v = PyFloat_FromDouble(slack);
    if (v == NULL)
        return -1;
    int rc = ce_call_void(e->m_observe_slack, v);
    Py_DECREF(v);
    return rc;
}

/* LpStaPolicy / LpSehPolicy.select_speed */
static int
decide_slack(CoreEngine *e, const JobSlot *s, double *out)
{
    double remaining = slot_budget(e, s);
    if (remaining <= 1e-12) {
        *out = e->current_speed;   /* budget exhausted */
        return 0;
    }
    double d_min, d_max, slack;
    ce_fill_state(e, e->t_wcet, e->dk_baseline, &d_min, &d_max);
    e->analysis_calls++;
    if (e->dk == DK_LPSTA) {
        double window_end = d_max;
        if (!isnan(e->dk_cap))
            window_end = py_max(window_end,
                                e->now + e->dk_cap * e->dk_max_period);
        if (ce_slack(e, 1, d_min, window_end, e->sc_wcet, e->sc_util,
                     e->sc_corr, &slack) < 0)
            return -1;
    }
    else if (ce_slack(e, 0, d_min, 0.0, NULL, e->sc_util, e->sc_corr,
                      &slack) < 0)
        return -1;
    if (ce_observe_slack(e, slack) < 0)
        return -1;
    double speed;
    if (e->dk_option)   /* lpSTA-greedy: stretch_speed */
        speed = py_max(e->dk_min_speed, remaining / (remaining + slack));
    else                /* allotted_speed */
        speed = py_max(e->dk_min_speed,
                       remaining / (remaining / e->dk_baseline + slack));
    *out = py_min(1.0, speed);
    return 0;
}

/* LaEdfPolicy.select_speed (deferral_speed, then the safety floor) */
static int
decide_laedf(CoreEngine *e, const JobSlot *s, double *out)
{
    Py_ssize_t n = e->n_active;
    double d_n = e->active[0].deadline;
    for (Py_ssize_t j = 1; j < n; j++)
        d_n = py_min(d_n, e->active[j].deadline);
    double horizon = d_n - e->now, speed;
    if (horizon <= 1e-12) {
        speed = 1.0;
    }
    else {
        /* stable sort, latest deadline first */
        Py_ssize_t *ord = e->w_idx;
        for (Py_ssize_t j = 0; j < n; j++) {
            Py_ssize_t k = j;
            while (k > 0 && e->active[ord[k - 1]].deadline
                                < e->active[j].deadline) {
                ord[k] = ord[k - 1];
                k--;
            }
            ord[k] = j;
        }
        double u = e->dk_total_util, total = 0.0;
        for (Py_ssize_t m = 0; m < n; m++) {
            const JobSlot *a = &e->active[ord[m]];
            double c_left = slot_budget(e, a), x;
            u -= e->fu_util[a->task];
            double span = a->deadline - d_n;
            if (span > 1e-12) {
                x = py_max(0.0, c_left - (1.0 - u) * span);
                u += (c_left - x) / span;
            }
            else {
                x = c_left;
            }
            total += x;
        }
        speed = total / horizon;
    }
    if (e->dk_option) {   /* safe: floor by the slack envelope */
        double remaining = slot_budget(e, s);
        if (remaining > 1e-12) {
            double d_min, d_max, slack;
            ce_fill_state(e, e->t_wcet, 1.0, &d_min, &d_max);
            if (ce_slack(e, 0, d_min, 0.0, NULL, e->fu_util, e->fu_corr,
                         &slack) < 0)
                return -1;
            speed = py_max(speed, remaining / (remaining + slack));
        }
    }
    *out = py_max(e->dk_min_speed, py_min(1.0, speed));
    return 0;
}

/* FeedbackDvsPolicy.select_speed */
static int
decide_feedback(CoreEngine *e, const JobSlot *s, double *out)
{
    double remaining = slot_budget(e, s);
    if (remaining <= 1e-12) {
        *out = e->current_speed;
        return 0;
    }
    double w_hat = py_min(remaining, py_max(1e-9, e->pid_pred[s->task]
                                                  - s->executed));
    double d_min, d_max, slack_scaled, slack_full;
    ce_fill_state(e, e->t_wcet, e->dk_baseline, &d_min, &d_max);
    if (ce_slack(e, 0, d_min, 0.0, NULL, e->sc_util, e->sc_corr,
                 &slack_scaled) < 0)
        return -1;
    double optimistic = w_hat / (w_hat / e->dk_baseline + slack_scaled);
    ce_fill_state(e, e->t_wcet, 1.0, &d_min, &d_max);
    if (ce_slack(e, 0, d_min, 0.0, NULL, e->fu_util, e->fu_corr,
                 &slack_full) < 0)
        return -1;
    double required = remaining / (remaining + slack_full);
    /* max(optimistic, required, min_speed) */
    double speed = py_max(py_max(optimistic, required), e->dk_min_speed);
    *out = py_min(1.0, speed);
    return 0;
}

/* FeedbackDvsPolicy.on_completion: the PID update of the task's
 * prediction (a completed job's executed work is its work). */
static void
feedback_complete(CoreEngine *e, const JobSlot *s)
{
    Py_ssize_t i = s->task;
    double error = s->work - e->pid_pred[i];
    e->pid_int[i] += error;
    double derivative = error - e->pid_last[i];
    e->pid_last[i] = error;
    e->pid_pred[i] += (e->dk_kp * error + e->dk_ki * e->pid_int[i]
                       + e->dk_kd * derivative);
    double wcet = e->t_wcet[i];
    e->pid_pred[i] = py_min(wcet, py_max(1e-3 * wcet, e->pid_pred[i]));
}

/* _AlphaEntry.sort_key order: (deadline, release, task name, index);
 * task names compare through their sorted rank. */
static int
alpha_key_less(const CoreEngine *e, double d1, double r1, Py_ssize_t t1,
               long i1, double d2, double r2, Py_ssize_t t2, long i2)
{
    if (d1 != d2)
        return d1 < d2;
    if (r1 != r2)
        return r1 < r2;
    if (e->t_rank[t1] != e->t_rank[t2])
        return e->t_rank[t1] < e->t_rank[t2];
    return i1 < i2;
}

static int
alpha_before(const CoreEngine *e, const AlphaEntry *a, const AlphaEntry *b)
{
    return alpha_key_less(e, a->deadline, a->release, a->task, a->index,
                          b->deadline, b->release, b->task, b->index);
}

static Py_ssize_t
dra_find(const CoreEngine *e, long uid)
{
    for (Py_ssize_t k = 0; k < e->n_alpha; k++)
        if (e->alpha[k].uid == uid)
            return k;
    return -1;
}

/* DraPolicy._gc: drop spent entries of finished jobs, keeping order. */
static void
dra_gc(CoreEngine *e)
{
    Py_ssize_t kept = 0;
    for (Py_ssize_t k = 0; k < e->n_alpha; k++) {
        const AlphaEntry *a = &e->alpha[k];
        if (a->budget <= 1e-12 && a->done)
            continue;
        e->alpha[kept++] = *a;
    }
    e->n_alpha = kept;
}

/* DraPolicy._advance_canonical: drain budgets in canonical EDF order. */
static void
dra_advance(CoreEngine *e, double t)
{
    double elapsed = t - e->canonical_now;
    if (elapsed <= 0)
        return;
    e->canonical_now = t;
    Py_ssize_t *ord = e->alpha_order;
    for (Py_ssize_t k = 0; k < e->n_alpha; k++) {
        Py_ssize_t m = k;
        while (m > 0 && alpha_before(e, &e->alpha[k], &e->alpha[ord[m - 1]])) {
            ord[m] = ord[m - 1];
            m--;
        }
        ord[m] = k;
    }
    for (Py_ssize_t k = 0; k < e->n_alpha; k++) {
        if (elapsed <= 0)
            break;
        AlphaEntry *a = &e->alpha[ord[k]];
        double consumed = py_min(a->budget, elapsed);
        a->budget -= consumed;
        elapsed -= consumed;
    }
    dra_gc(e);
}

/* DraPolicy.on_release */
static int
dra_release(CoreEngine *e, const JobSlot *s)
{
    dra_advance(e, e->now);
    if (e->n_alpha == e->cap_alpha) {
        Py_ssize_t cap = e->cap_alpha * 2;
        AlphaEntry *grown = PyMem_Realloc(e->alpha,
                                          (size_t)cap * sizeof(AlphaEntry));
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        e->alpha = grown;
        Py_ssize_t *ord = PyMem_Realloc(e->alpha_order,
                                        (size_t)cap * sizeof(Py_ssize_t));
        if (ord == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        e->alpha_order = ord;
        e->cap_alpha = cap;
    }
    AlphaEntry a = {s->deadline, s->release,
                    e->t_wcet[s->task] / e->dk_baseline, s->task, s->index,
                    s->uid, 0};
    e->alpha[e->n_alpha++] = a;
    return 0;
}

/* DraPolicy.on_completion */
static void
dra_complete(CoreEngine *e, long uid)
{
    dra_advance(e, e->now);
    Py_ssize_t k = dra_find(e, uid);
    if (k < 0)
        return;
    e->alpha[k].done = 1;
    if (e->alpha[k].budget <= 1e-12) {
        memmove(&e->alpha[k], &e->alpha[k + 1],
                (size_t)(e->n_alpha - k - 1) * sizeof(AlphaEntry));
        e->n_alpha--;
    }
}

/* Whether entry a donates its budget to the dispatched job's key. */
static int
dra_donor(const CoreEngine *e, const AlphaEntry *a, const JobSlot *s)
{
    return a->done && a->budget > 1e-12 &&
        alpha_key_less(e, a->deadline, a->release, a->task, a->index,
                       s->deadline, s->release, s->task, s->index);
}

/* DraPolicy.select_speed */
static int
decide_dra(CoreEngine *e, const JobSlot *s, double *out)
{
    dra_advance(e, e->now);
    Py_ssize_t own = dra_find(e, s->uid);
    double own_budget = own >= 0 ? e->alpha[own].budget : 0.0;
    double earliness = 0.0;
    int donors = 0;
    for (Py_ssize_t k = 0; k < e->n_alpha; k++) {
        if (dra_donor(e, &e->alpha[k], s)) {
            earliness += e->alpha[k].budget;
            donors = 1;
        }
    }
    double allotted = own_budget + earliness;
    double remaining = slot_budget(e, s);
    if (allotted <= 1e-12 || remaining <= 1e-12) {
        *out = remaining > 1e-12 ? 1.0 : e->dk_min_speed;
        return 0;
    }
    double speed = remaining / allotted;
    if (speed >= 1.0) {
        *out = 1.0;
        return 0;
    }
    if (donors && own >= 0) {
        /* reclaim: the donors are the same entries the sum visited */
        for (Py_ssize_t k = 0; k < e->n_alpha; k++) {
            AlphaEntry *a = &e->alpha[k];
            if (dra_donor(e, a, s)) {
                e->alpha[own].budget += a->budget;
                a->budget = 0.0;
            }
        }
        dra_gc(e);
    }
    *out = py_max(e->dk_min_speed, speed);
    return 0;
}

/* CcEdfPolicy.select_speed: the estimates summed in task order (from
 * int 0, as sum() does), floored at the minimum speed. */
static void
decide_ccedf(const CoreEngine *e, double *out)
{
    double total = 0.0;
    for (Py_ssize_t i = 0; i < e->n_tasks; i++)
        total += e->cc_util[i];
    *out = py_max(total, e->dk_min_speed);
}

/* LppsEdfPolicy.select_speed: a lone active job is stretched to the
 * earlier of its deadline and the next release (next_event_time of
 * periodic arrivals); otherwise the static speed. */
static void
decide_lpps(CoreEngine *e, const JobSlot *s, double *out)
{
    if (e->n_active == 1) {
        double fence = py_min(s->deadline, ce_next_release_global(e));
        double window = fence - e->now;
        if (window > 1e-12) {
            *out = py_max(e->dk_min_speed,
                          py_min(1.0, slot_budget(e, s) / window));
            return;
        }
    }
    *out = py_max(e->dk_baseline, e->dk_min_speed);
}

/* Room for n active-job events. */
static int
iv_reserve(CoreEngine *e, Py_ssize_t n)
{
    if (n <= e->iv_cap)
        return 0;
    Py_ssize_t cap = n < 32 ? 32 : 2 * n;
    SlackEvent *grown = PyMem_Realloc(e->iv_events,
                                      (size_t)cap * sizeof(SlackEvent));
    if (grown == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    e->iv_events = grown;
    e->iv_cap = cap;
    return 0;
}

/* Extend the run's future-job stream through every deadline within
 * fence.  Each task continues the core's release arithmetic (inline
 * periodic arrivals: prefix sums of the period) from the run's first
 * release (jobs the core has released since are skipped by the decide),
 * and its deadlines are monotone in the job index, so
 * appending the earliest next deadline (ties: the lower task) keeps the
 * stream in (deadline, task) order: everything already in it lies
 * within the previous fence, everything appended past it.  Works come
 * from the demand tables. */
static int
fj_grow(CoreEngine *e, double fence)
{
    Py_ssize_t n = e->n_tasks;
    if (fence <= e->fj_fence)
        return 0;
    if (e->fj_head > 0 && e->fj_head >= e->fj_len - e->fj_head) {
        /* at least half the stream is released: drop it */
        e->fj_len -= e->fj_head;
        memmove(e->fj, e->fj + e->fj_head,
                (size_t)e->fj_len * sizeof(FutureJob));
        e->fj_head = 0;
    }
    for (;;) {
        Py_ssize_t best = -1;
        double d_best = 0.0;
        for (Py_ssize_t i = 0; i < n; i++) {
            double d = e->fj_release[i] + e->t_rel_deadline[i];
            if (best < 0 || d < d_best) {
                best = i;
                d_best = d;
            }
        }
        if (best < 0 || !(d_best <= fence))
            break;
        if (e->fj_len == e->fj_cap) {
            Py_ssize_t cap = e->fj_cap ? 2 * e->fj_cap : 64;
            FutureJob *grown = PyMem_Realloc(e->fj,
                                             (size_t)cap * sizeof(FutureJob));
            if (grown == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            e->fj = grown;
            e->fj_cap = cap;
        }
        FutureJob *f = &e->fj[e->fj_len];
        f->d = d_best;
        f->task = best;
        f->k = e->fj_index[best];
        if (demand_at(e->tables[best], f->k, &f->w) < 0)
            return -1;
        e->fj_len++;
        e->fj_index[best]++;
        e->fj_release[best] = e->fj_release[best] + e->t_period[best];
    }
    e->fj_fence = fence;
    return 0;
}

/* ClairvoyantPolicy.select_speed: the intensity over its window of the
 * active jobs' actual remaining work and every future job's drawn work
 * at its deadline -- the event list _grow_streams builds and
 * intensity_sweep sorts, in the same order: the actives in stable
 * deadline order, merged into the stream's unreleased jobs within the
 * fence, ties to the active job (source 0 of intensity_sweep's merge),
 * so h sums the same works in the same order. */
static int
decide_clairvoyant(CoreEngine *e, double *out)
{
    double t = e->now;
    double d_max = e->active[0].deadline;
    for (Py_ssize_t j = 1; j < e->n_active; j++)
        d_max = py_max(d_max, e->active[j].deadline);
    double window_end = py_min(e->horizon,
                               py_max(d_max, t + e->dk_cap * e->dk_max_period));
    double fence = window_end + 1e-12;
    if (iv_reserve(e, e->n_active) < 0 || fj_grow(e, fence) < 0)
        return -1;
    SlackEvent *act = e->iv_events;
    Py_ssize_t n_act = e->n_active;
    for (Py_ssize_t j = 0; j < n_act; j++) {
        const JobSlot *a = &e->active[j];
        SlackEvent key = {a->deadline, j,
                          snap_nonneg(a->work - a->executed)};
        Py_ssize_t k = j;
        while (k > 0 && act[k - 1].d > key.d) {
            act[k] = act[k - 1];
            k--;
        }
        act[k] = key;
    }
    const FutureJob *fj = e->fj;
    const long *next_index = e->next_index;
    Py_ssize_t len = e->fj_len, f = e->fj_head;
    while (f < len && fj[f].k < next_index[fj[f].task])
        f++;
    e->fj_head = f;
    IntensitySweep s;
    intensity_start(&s, t, window_end);
    Py_ssize_t a = 0;
    for (;;) {
        while (f < len && fj[f].d <= fence &&
               fj[f].k < next_index[fj[f].task])
            f++;   /* released: active, or done */
        int future = f < len && fj[f].d <= fence;
        if (a < n_act && (!future || act[a].d <= fj[f].d)) {
            intensity_visit(&s, act[a].d, act[a].w);
            a++;
        }
        else if (future) {
            intensity_visit(&s, fj[f].d, fj[f].w);
            f++;
        }
        else {
            break;
        }
    }
    intensity_visit(&s, INFINITY, 0.0);
    *out = py_max(e->dk_min_speed, py_min(1.0, s.best));
    return 0;
}

/* SafetyGovernor.select_speed over the inner decide's speed *out:
 * feasibility_floor (the exact walk on margin-inflated budgets, with
 * exact_slack's window rule), then the clamp.  An inflated task's WCET
 * is the governor's budget (the same product factor * wcet), and it
 * keeps the task set's deadline and period (PeriodicTask.scaled), so
 * the walk reads the engine's own. */
static int
decide_governor(CoreEngine *e, const JobSlot *s, double *out)
{
    double desired = *out, floor = 0.0;
    e->gv_dispatches++;
    double remaining = e->gv_wcet[s->task] - s->executed;
    remaining = (remaining > 0.0) ? remaining : 0.0;
    /* at or below 1e-12 the job outran the margin: floor 0.0 */
    if (remaining > 1e-12) {
        double lo, hi, slack;
        ce_fill_state(e, e->gv_wcet, 1.0, &lo, &hi);
        if (!isnan(e->gv_cap))
            hi = py_max(hi, e->now + e->gv_cap * e->dk_max_period);
        if (ce_slack(e, 1, lo, hi, e->gv_wcet, e->gv_util, e->gv_corr,
                     &slack) < 0)
            return -1;
        if (e->tele) {
            PyObject *v = PyFloat_FromDouble(slack);
            if (v == NULL || ce_call_void(e->m_gov_slack, v) < 0) {
                Py_XDECREF(v);
                return -1;
            }
            Py_DECREF(v);
        }
        /* stretch_speed(remaining, slack) */
        floor = py_max(0.0, remaining / (remaining + slack));
    }
    if (floor > desired + 1e-9) {
        e->gv_interventions++;
        e->gv_max_clamp = py_max(e->gv_max_clamp, floor - desired);
        if (ce_note(e, RK_GOVERNOR, e->now, s->task, s->index, desired,
                    floor) < 0)
            return -1;
        if (e->tele) {
            PyObject *r = PyObject_CallFunction(
                e->m_gov_clamp, "Nddd",
                PyUnicode_FromFormat("%U#%ld",
                                     PyTuple_GET_ITEM(e->names, s->task),
                                     s->index),
                e->now, desired, floor);
            if (r == NULL)
                return -1;
            Py_DECREF(r);
        }
        *out = py_min(1.0, floor);
    }
    else
        *out = py_min(1.0, py_max(desired, floor));
    return 0;
}

/* The policy's speed for dispatching slot idx, inside the profiler
 * region the interpreted dispatch opens when profiling is on. */
static int
ce_decide(CoreEngine *e, Py_ssize_t idx, double *out)
{
    if (ce_reserve_buffers(e) < 0)
        return -1;
    int prof = e->m_prof_push != Py_None;
    if (prof && ce_call_void(e->m_prof_push, e->decide_label) < 0)
        return -1;
    const JobSlot *s = &e->active[idx];
    int rc;
    switch (e->dk) {
    case DK_LPSTA:
    case DK_LPSEH:
        rc = decide_slack(e, s, out);
        break;
    case DK_LAEDF:
        rc = decide_laedf(e, s, out);
        break;
    case DK_FEEDBACK:
        rc = decide_feedback(e, s, out);
        break;
    case DK_DRA:
        rc = decide_dra(e, s, out);
        break;
    case DK_CONST:   /* none, static */
        *out = e->dk_baseline;
        rc = 0;
        break;
    case DK_CCEDF:
        decide_ccedf(e, out);
        rc = 0;
        break;
    case DK_LPPS:
        decide_lpps(e, s, out);
        rc = 0;
        break;
    default:
        rc = decide_clairvoyant(e, out);
        break;
    }
    if (rc == 0 && e->gov)
        rc = decide_governor(e, s, out);
    if (prof && rc < 0) {
        /* close the region as a finally would, keeping the error */
        PyObject *etype, *eval, *etb;
        PyErr_Fetch(&etype, &eval, &etb);
        if (ce_call_void(e->m_prof_pop, NULL) < 0)
            PyErr_Clear();
        PyErr_Restore(etype, eval, etb);
    }
    else if (prof && ce_call_void(e->m_prof_pop, NULL) < 0) {
        rc = -1;
    }
    return rc;
}

static int
ce_process_releases(CoreEngine *e)
{
    double top = ce_release_min(e);
    if (top > e->now + K_TIME_EPS)
        return ce_check_misses(e);
    for (Py_ssize_t i = 0; i < e->n_tasks; i++) {
        PyObject *task = PyTuple_GET_ITEM(e->tasks, i);
        while (e->next_release[i] <= e->now + K_TIME_EPS &&
               e->next_release[i] < e->horizon - K_TIME_EPS) {
            long index = e->next_index[i];
            double release = e->next_release[i];
            PyObject *draw = NULL;
            double work;
            if (e->tables != NULL) {
                /* in (0, wcet] by construction */
                if (demand_at(e->tables[i], index, &work) < 0)
                    return -1;
            }
            else {
                PyObject *idx_obj = PyLong_FromLong(index);
                if (idx_obj == NULL)
                    return -1;
                draw = PyObject_CallFunctionObjArgs(e->m_work, task, idx_obj,
                                                    NULL);
                Py_DECREF(idx_obj);
                if (draw == NULL)
                    return -1;
                work = PyFloat_AsDouble(draw);
                if (work == -1.0 && PyErr_Occurred()) {
                    Py_DECREF(draw);
                    return -1;
                }
            }
            double wcet = e->t_wcet[i];
            PyObject *job = NULL;
            if (work <= 0 || (!e->allow_overrun && work > wcet + K_TIME_EPS)) {
                /* outside Job.from_task's range: let it raise */
                PyObject *iobj = PyLong_FromLong(index);
                PyObject *rel = PyFloat_FromDouble(release);
                job = (iobj == NULL || rel == NULL) ? NULL :
                    PyObject_CallFunctionObjArgs(
                        e->h_mk_job, task, iobj, draw, rel,
                        e->allow_overrun ? Py_True : Py_False, NULL);
                Py_XDECREF(iobj);
                Py_XDECREF(rel);
                if (job == NULL) {
                    Py_XDECREF(draw);
                    return -1;
                }
            }
            /* Job.from_task: work clamped to the WCET unless overruns
             * are allowed; deadline = release + task.deadline */
            double jwork = e->allow_overrun ? work : py_min(work, wcet);
            JobSlot slot = {job, draw, release + e->t_rel_deadline[i],
                            release, jwork, 0.0, 0.0, i, index, 0,
                            e->jobs_released, 0, 0};
            if (ce_active_append(e, slot) < 0) {
                Py_XDECREF(job);
                Py_XDECREF(draw);
                return -1;
            }
            /* the slot owns both references from here on */
            Py_ssize_t at = e->n_active - 1;
            /* job.overrun: work > task.wcet + TIME_EPS; the note names
             * the job from its task and index, no Job needed */
            if (jwork > wcet + K_TIME_EPS) {
                e->overruns++;
                if (ce_note(e, RK_OVERRUN, e->now, i, index, work,
                            wcet) < 0)
                    return -1;
            }
            e->jobs_released++;
            e->st_released[i]++;
            e->last_arrival[i] = release;
            e->next_index[i] = index + 1;
            double next_rel;
            if (e->periodic_inline) {
                /* arrival prefix sums are repeated addition */
                next_rel = release + e->t_period[i];
            }
            else {
                PyObject *i2 = PyLong_FromLong(index + 1);
                if (i2 == NULL)
                    return -1;
                PyObject *nr = PyObject_CallFunctionObjArgs(
                    e->m_arrival, task, i2, NULL);
                Py_DECREF(i2);
                if (nr == NULL)
                    return -1;
                next_rel = PyFloat_AsDouble(nr);
                Py_DECREF(nr);
                if (next_rel == -1.0 && PyErr_Occurred())
                    return -1;
            }
            e->next_release[i] = next_rel;
            e->mirror_stale[i] = 1;
            e->mirrors_stale = 1;
            e->release_version++;
            if (e->dk == DK_DRA) {
                if (dra_release(e, &e->active[at]) < 0)
                    return -1;
            }
            else if (e->dk == DK_CCEDF) {
                e->cc_util[i] = e->fu_util[i];
            }
            else if (e->m_on_release != Py_None) {
                PyObject *jobj = ce_sync_mirrors(e) < 0 ? NULL
                    : ce_job(e, at);
                PyObject *r = jobj == NULL ? NULL :
                    PyObject_CallFunctionObjArgs(e->m_on_release, jobj,
                                                 e->ctx, NULL);
                if (r == NULL)
                    return -1;
                Py_DECREF(r);
            }
        }
    }
    return ce_check_misses(e);
}

/* processor.quantize through the exactly-typed inline fast paths. */
static int
ce_quantize(CoreEngine *e, double speed, double *out)
{
    if (e->quant_kind == 0 && !isnan(speed)) {
        /* ContinuousScale: min(1.0, max(min_speed, speed)) */
        double m = (speed > e->q_min) ? speed : e->q_min;
        *out = (m < 1.0) ? m : 1.0;
        return 0;
    }
    if (e->quant_kind == 1 && !isnan(speed)) {
        if (speed >= 1.0) {
            *out = 1.0;
            return 0;
        }
        double key = speed - 1e-12;
        /* bisect_left: first level >= key */
        Py_ssize_t lo = 0, hi = e->q_nlevels;
        while (lo < hi) {
            Py_ssize_t mid = (lo + hi) / 2;
            if (e->q_levels[mid] < key)
                lo = mid + 1;
            else
                hi = mid;
        }
        *out = (lo >= e->q_nlevels) ? 1.0 : e->q_levels[lo];
        return 0;
    }
    /* custom scale, or NaN (quantize raises ConfigurationError) */
    PyObject *arg = PyFloat_FromDouble(speed);
    if (arg == NULL)
        return -1;
    PyObject *r = PyObject_CallFunctionObjArgs(e->m_quantize, arg, NULL);
    Py_DECREF(arg);
    if (r == NULL)
        return -1;
    *out = PyFloat_AsDouble(r);
    Py_DECREF(r);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

static int
ce_active_energy(CoreEngine *e, double speed, double duration, double *out)
{
    if (e->power_kind == 0) {
        /* PolynomialPowerModel: (dynamic * s**alpha + static) * dt */
        *out = (e->p_dynamic * pow(speed, e->p_alpha) + e->p_static)
               * duration;
        return 0;
    }
    PyObject *s = PyFloat_FromDouble(speed);
    PyObject *d = PyFloat_FromDouble(duration);
    if (s == NULL || d == NULL) {
        Py_XDECREF(s); Py_XDECREF(d);
        return -1;
    }
    PyObject *r = PyObject_CallFunctionObjArgs(e->m_active_energy, s, d,
                                               NULL);
    Py_DECREF(s); Py_DECREF(d);
    if (r == NULL)
        return -1;
    *out = PyFloat_AsDouble(r);
    Py_DECREF(r);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

/* One (kind) segment through the recorder; only called when the
 * recorder actually keeps segments. */
static int
ce_trace_segment(CoreEngine *e, const char *method, double start,
                 double end, double energy)
{
    PyObject *r = PyObject_CallMethod(e->trace, method, "ddd",
                                      start, end, energy);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

static int
ce_idle_until(CoreEngine *e, double until)
{
    if (until <= e->now + K_TIME_EPS) {
        /* max(now, until) */
        if (until > e->now)
            e->now = until;
        return 0;
    }
    double duration = until - e->now;
    double energy = e->idle_power * duration;
    e->idle_energy += energy;
    e->idle_time += duration;
    e->idle_episodes++;
    if (e->record_trace &&
        ce_trace_segment(e, "idle", e->now, until, energy) < 0)
        return -1;
    e->last_running = -1;
    e->now = until;
    return ce_check_misses(e);
}

static int
ce_sleep_until(CoreEngine *e, double until)
{
    double duration = until - e->now;
    double energy = e->sleep_power * duration + e->wakeup_energy;
    e->sleep_energy += energy;
    e->sleep_time += duration;
    e->sleep_episodes++;
    if (e->record_trace &&
        ce_trace_segment(e, "sleep", e->now, until, energy) < 0)
        return -1;
    e->last_running = -1;
    e->now = until;
    return ce_check_misses(e);
}

static int
ce_handle_empty(CoreEngine *e)
{
    double next_release = ce_next_release_global(e);
    if (e->horizon < next_release)
        next_release = e->horizon;
    if (!e->has_idle_policy)
        return ce_idle_until(e, next_release);
    if (ce_sync_mirrors(e) < 0)
        return -1;
    PyObject *now_obj = PyFloat_FromDouble(e->now);
    PyObject *nr_obj = PyFloat_FromDouble(next_release);
    if (now_obj == NULL || nr_obj == NULL) {
        Py_XDECREF(now_obj); Py_XDECREF(nr_obj);
        return -1;
    }
    PyObject *plan = PyObject_CallFunctionObjArgs(
        e->m_plan_idle, e->ctx, now_obj, nr_obj, NULL);
    Py_DECREF(now_obj); Py_DECREF(nr_obj);
    if (plan == NULL)
        return -1;
    PyObject *sleep_obj = PyObject_GetAttr(plan, s_sleep);
    if (sleep_obj == NULL) {
        Py_DECREF(plan);
        return -1;
    }
    int do_sleep = PyObject_IsTrue(sleep_obj);
    Py_DECREF(sleep_obj);
    double wake_time;
    if (do_sleep < 0 || attr_as_double(plan, s_wake_time, &wake_time) < 0) {
        Py_DECREF(plan);
        return -1;
    }
    Py_DECREF(plan);
    /* min(max(plan.wake_time, now), horizon) */
    double wake = (e->now > wake_time) ? e->now : wake_time;
    if (e->horizon < wake)
        wake = e->horizon;
    if (!do_sleep)
        return ce_idle_until(e, wake);
    if (wake <= e->now + K_TIME_EPS)
        return ce_idle_until(e, next_release);
    return ce_sleep_until(e, wake);
}

static int
ce_speed_time_add(CoreEngine *e, double speed, double duration)
{
    double key;
    if (round12(speed, &key) < 0)
        return -1;
    Records *rs = e->records;
    Py_ssize_t k = dmap_get(&e->spd_keyed, key);
    if (k < 0) {
        if (rs->n_spd == rs->cap_spd) {
            Py_ssize_t cap = rs->cap_spd * 2;
            double *pk = PyMem_Realloc(rs->spd_key,
                                       (size_t)cap * sizeof(double));
            if (pk == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            rs->spd_key = pk;
            double *pd = PyMem_Realloc(rs->spd_dur,
                                       (size_t)cap * sizeof(double));
            if (pd == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            rs->spd_dur = pd;
            rs->cap_spd = cap;
        }
        k = rs->n_spd;
        if (dmap_put(&e->spd_keyed, key, k) < 0)
            return -1;
        rs->spd_key[k] = key;
        rs->spd_dur[k] = 0.0;
        rs->n_spd++;
    }
    rs->spd_dur[k] += duration;
    return 0;
}

/* Simulator._apply_speed for a desired speed d that is not NaN. */
static int
ce_apply_speed(CoreEngine *e, double d, double *out)
{
    double speed;
    if (ce_quantize(e, d, &speed) < 0)
        return -1;
    if (speed <= 0.0 || speed > 1.0 + K_TIME_EPS) {
        PyObject *s = PyFloat_FromDouble(speed);
        if (s != NULL) {
            PyObject *r = PyObject_CallFunctionObjArgs(e->h_bad_quant, s,
                                                       NULL);
            Py_XDECREF(r);
            Py_DECREF(s);
        }
        return -1;
    }
    if (fabs(speed - e->current_speed) <= K_SPEED_EPS) {
        *out = e->current_speed;
        return 0;
    }
    double extra_dt = 0.0;
    if (e->faults_transitions) {
        PyObject *att = PyLong_FromLong(e->switch_attempts);
        PyObject *cur = PyFloat_FromDouble(e->current_speed);
        PyObject *tgt = PyFloat_FromDouble(speed);
        if (att == NULL || cur == NULL || tgt == NULL) {
            Py_XDECREF(att); Py_XDECREF(cur); Py_XDECREF(tgt);
            return -1;
        }
        PyObject *outcome = PyObject_CallFunctionObjArgs(
            e->m_transition_outcome, att, cur, tgt, NULL);
        Py_DECREF(att); Py_DECREF(cur); Py_DECREF(tgt);
        if (outcome == NULL)
            return -1;
        e->switch_attempts++;
        PyObject *faulted = PyObject_GetAttr(outcome, s_faulted);
        if (faulted == NULL) {
            Py_DECREF(outcome);
            return -1;
        }
        int is_faulted = PyObject_IsTrue(faulted);
        Py_DECREF(faulted);
        double achieved, extra;
        if (is_faulted < 0 ||
            attr_as_double(outcome, s_achieved, &achieved) < 0 ||
            attr_as_double(outcome, s_extra_time, &extra) < 0) {
            Py_DECREF(outcome);
            return -1;
        }
        Py_DECREF(outcome);
        if (is_faulted)
            e->transition_faults++;
        if (fabs(achieved - e->current_speed) <= K_SPEED_EPS) {
            if (ce_note(e, RK_STUCK, e->now, -1, 0, e->current_speed,
                        speed) < 0 ||
                ce_check_misses(e) < 0)
                return -1;
            *out = e->current_speed;
            return 0;
        }
        if (fabs(achieved - speed) > K_SPEED_EPS &&
            ce_note(e, RK_QUANTIZED, e->now, -1, 0, speed, achieved) < 0)
            return -1;
        /* quantize(min(1.0, achieved)) */
        double clamped = (achieved < 1.0) ? achieved : 1.0;
        if (ce_quantize(e, clamped, &speed) < 0)
            return -1;
        extra_dt = extra;
        if (fabs(speed - e->current_speed) <= K_SPEED_EPS) {
            if (ce_check_misses(e) < 0)
                return -1;
            *out = e->current_speed;
            return 0;
        }
    }
    double dt = 0.0, de = 0.0;
    if (!e->trans_none) {
        PyObject *cur = PyFloat_FromDouble(e->current_speed);
        PyObject *tgt = PyFloat_FromDouble(speed);
        if (cur == NULL || tgt == NULL) {
            Py_XDECREF(cur); Py_XDECREF(tgt);
            return -1;
        }
        PyObject *pair = PyObject_CallFunctionObjArgs(e->m_transition,
                                                      cur, tgt, NULL);
        Py_DECREF(cur); Py_DECREF(tgt);
        if (pair == NULL)
            return -1;
        if (!PyArg_ParseTuple(pair, "dd", &dt, &de)) {
            Py_DECREF(pair);
            return -1;
        }
        Py_DECREF(pair);
    }
    dt += extra_dt;
    e->switch_count++;
    e->switch_energy += de;
    if (dt > 0.0) {
        double end = e->now + dt;
        if (e->horizon < end)
            end = e->horizon;
        e->switch_time += end - e->now;
        if (e->record_trace) {
            PyObject *r = PyObject_CallMethod(e->trace, "switch", "dddd",
                                              e->now, end, de, speed);
            if (r == NULL)
                return -1;
            Py_DECREF(r);
        }
        e->now = end;
    }
    e->current_speed = speed;
    if (ce_check_misses(e) < 0)
        return -1;
    *out = speed;
    return 0;
}

static int
ce_complete(CoreEngine *e, Py_ssize_t idx)
{
    JobSlot *s = &e->active[idx];
    /* met_deadline(eps=DEADLINE_EPS) on the completion time set now */
    int late = !(e->now <= s->deadline + K_DEADLINE_EPS) && !s->missed;
    int hook = e->dk == DK_PYTHON && e->m_on_completion != Py_None;
    if (hook && ce_job(e, idx) == NULL)
        return -1;
    if (s->job != NULL) {
        /* Job.complete(now): its checks hold by construction here */
        PyObject *work = PyObject_GetAttr(s->job, s_work);
        if (job_set(s->job, s_executed, work) < 0 ||
            job_set(s->job, s_completion_time,
                    PyFloat_FromDouble(e->now)) < 0)
            return -1;
    }
    JobSlot slot = *s;   /* takes over the references */
    memmove(&e->active[idx], &e->active[idx + 1],
            (size_t)(e->n_active - idx - 1) * sizeof(JobSlot));
    e->n_active--;
    e->jobs_completed++;
    e->st_completed[slot.task]++;
    double response = e->now - slot.release;
    if (response == 0.0)
        response = 0.0;   /* `or 0.0` canonicalizes -0.0 */
    e->st_resp[slot.task] += response;
    if (response > e->st_maxresp[slot.task])
        e->st_maxresp[slot.task] = response;
    int status = 0;
    if (late)
        status = ce_miss(e, &slot, e->now);
    if (status == 0) {
        e->last_running = -1;
        if (e->dk == DK_FEEDBACK) {
            feedback_complete(e, &slot);
        }
        else if (e->dk == DK_DRA) {
            dra_complete(e, slot.uid);
        }
        else if (e->dk == DK_CCEDF) {
            /* job.executed / task.period: a completed job executed its
             * work */
            e->cc_util[slot.task] = slot.work / e->t_period[slot.task];
        }
        else if (hook) {
            PyObject *h = ce_sync_mirrors(e) < 0 ? NULL
                : PyObject_CallFunctionObjArgs(e->m_on_completion,
                                               slot.job, e->ctx, NULL);
            if (h == NULL)
                status = -1;
            else
                Py_DECREF(h);
        }
    }
    Py_XDECREF(slot.job);
    Py_XDECREF(slot.draw);
    return status;
}

/* The policy's desired speed from its Python select_speed, validated
 * as Simulator._apply_speed does (None or NaN raise PolicyError). */
static int
ce_select_speed(CoreEngine *e, Py_ssize_t idx, double *out)
{
    PyObject *job = ce_sync_mirrors(e) < 0 ? NULL : ce_job(e, idx);
    if (job == NULL)
        return -1;
    PyObject *desired = PyObject_CallFunctionObjArgs(e->m_select_speed,
                                                     job, e->ctx, NULL);
    if (desired == NULL)
        return -1;
    int rc = 0;
    if (e->tele) {
        rc = ce_call_void(e->m_observe, desired);
    }
    double d = 0.0;
    if (rc == 0 && desired != Py_None) {
        d = PyFloat_AsDouble(desired);
        if (d == -1.0 && PyErr_Occurred())
            rc = -1;
    }
    if (rc == 0 && (desired == Py_None || isnan(d))) {
        PyObject *r = PyObject_CallFunctionObjArgs(
            e->h_bad_speed, e->result, desired, NULL);
        Py_XDECREF(r);
        rc = -1;
    }
    Py_DECREF(desired);
    *out = d;
    return rc;
}

/* The compiled decide's desired speed, observed and validated like a
 * returned one. */
static int
ce_decide_speed(CoreEngine *e, Py_ssize_t idx, double *out)
{
    if (ce_decide(e, idx, out) < 0)
        return -1;
    if (!e->tele && !isnan(*out))
        return 0;
    PyObject *desired = PyFloat_FromDouble(*out);
    if (desired == NULL)
        return -1;
    int rc = e->tele ? ce_call_void(e->m_observe, desired) : 0;
    if (rc == 0 && isnan(*out)) {
        PyObject *r = PyObject_CallFunctionObjArgs(
            e->h_bad_speed, e->result, desired, NULL);
        Py_XDECREF(r);
        rc = -1;
    }
    Py_DECREF(desired);
    return rc;
}

static int
ce_dispatch(CoreEngine *e, Py_ssize_t idx)
{
    long uid = e->active[idx].uid;
    if (e->last_running >= 0 && e->last_running != uid) {
        /* the engine invariant guarantees last_running is incomplete */
        Py_ssize_t li = ce_find_slot(e, e->last_running);
        if (li >= 0) {
            JobSlot *ls = &e->active[li];
            ls->preempt++;
            e->st_preempt[ls->task]++;
            if (ce_sync(e, li, s_preemption_count, (double)ls->preempt,
                        1) < 0)
                return -1;
        }
    }
    if (!e->active[idx].dispatched) {
        e->active[idx].dispatched = 1;
        e->active[idx].first_dispatch = e->now;
        if (ce_sync(e, idx, s_first_dispatch_time, e->now, 0) < 0)
            return -1;
    }
    e->dispatches++;
    double desired, speed;
    if ((e->dk == DK_PYTHON ? ce_select_speed(e, idx, &desired)
                            : ce_decide_speed(e, idx, &desired)) < 0)
        return -1;
    if (ce_apply_speed(e, desired, &speed) < 0)
        return -1;

    if (e->now >= e->horizon - K_TIME_EPS) {
        e->last_running = uid;
        return 0;
    }
    /* a release during a timed switch may change the best job */
    if (ce_process_releases(e) < 0)
        return -1;
    Py_ssize_t best = ce_pick(e);
    if (best < 0 || e->active[best].uid != uid) {
        e->last_running = uid;
        return 0;
    }
    JobSlot *s = &e->active[idx];
    double remaining = snap_nonneg(s->work - s->executed);
    double completion = e->now + remaining / speed;
    double fence = ce_next_release_global(e);
    if (e->horizon < fence)
        fence = e->horizon;
    double next_point, retired;
    if (completion <= fence) {
        next_point = completion;
        retired = remaining;
    }
    else {
        next_point = fence;
        double cap = speed * (next_point - e->now);
        retired = (cap < remaining) ? cap : remaining;
    }
    double duration = next_point - e->now;
    if (duration <= 0.0) {
        PyObject *r = PyObject_CallFunction(e->h_no_progress, "dd",
                                            e->now, next_point);
        Py_XDECREF(r);
        return -1;
    }
    /* job.execute(retired), with a materialized job kept in step */
    if (retired < -K_TIME_EPS) {
        PyObject *job = ce_job(e, idx);
        PyObject *r = job == NULL ? NULL : PyObject_CallFunction(
            e->h_neg_exec, "Od", job, retired);
        Py_XDECREF(r);
        return -1;
    }
    double inc = (retired > 0.0) ? retired : 0.0;
    double new_total = s->executed + inc;
    if (new_total > s->work + 1e-6) {
        PyObject *job = ce_job(e, idx);
        PyObject *r = job == NULL ? NULL : PyObject_CallFunction(
            e->h_overexec, "Od", job, new_total);
        Py_XDECREF(r);
        return -1;
    }
    s->executed = (new_total < s->work) ? new_total : s->work;
    if (ce_sync(e, idx, s_executed, s->executed, 0) < 0)
        return -1;
    double energy;
    if (ce_active_energy(e, speed, duration, &energy) < 0)
        return -1;
    e->busy_energy += energy;
    e->busy_time += duration;
    if (ce_speed_time_add(e, speed, duration) < 0)
        return -1;
    e->st_exec[s->task] += retired;
    if (e->record_trace) {
        PyObject *job = ce_job(e, idx);
        PyObject *r = job == NULL ? NULL : PyObject_CallFunction(
            e->h_trace_run, "OddOdd", e->trace, e->now, next_point, job,
            speed, energy);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
    }
    e->now = next_point;
    e->last_running = uid;
    if (snap_nonneg(s->work - s->executed) <= K_WORK_EPS) {
        if (ce_complete(e, idx) < 0)
            return -1;
    }
    return ce_process_releases(e);
}

static int
ce_final_check(CoreEngine *e)
{
    for (Py_ssize_t i = 0; i < e->n_active; i++) {
        if (e->active[i].deadline <= e->horizon + K_TIME_EPS &&
            !e->active[i].missed) {
            if (ce_miss(e, &e->active[i], e->horizon) < 0)
                return -1;
        }
    }
    return 0;
}

/* Write the C accumulators into the SimulationResult, and the release
 * mirrors into their dicts.  Called on both the success and the error
 * path, so partially-run state is visible exactly as the interpreted
 * engine would have left it. */
static int
ce_flush(CoreEngine *e)
{
    PyObject *res = e->result;
    if (ce_sync_mirrors(e) < 0)
        return -1;
#define SETF(name, val) do { \
        PyObject *obj_ = PyFloat_FromDouble(val); \
        if (set_named(res, name, obj_) < 0) { \
            Py_XDECREF(obj_); return -1; } \
        Py_DECREF(obj_); } while (0)
#define SETI(name, val) do { \
        PyObject *obj_ = PyLong_FromLong(val); \
        if (set_named(res, name, obj_) < 0) { \
            Py_XDECREF(obj_); return -1; } \
        Py_DECREF(obj_); } while (0)
    SETF("busy_energy", e->busy_energy);
    SETF("idle_energy", e->idle_energy);
    SETF("switch_energy", e->switch_energy);
    SETF("sleep_energy", e->sleep_energy);
    SETF("busy_time", e->busy_time);
    SETF("idle_time", e->idle_time);
    SETF("switch_time", e->switch_time);
    SETF("sleep_time", e->sleep_time);
    SETI("switch_count", e->switch_count);
    SETI("sleep_episodes", e->sleep_episodes);
    SETI("idle_episodes", e->idle_episodes);
    SETI("dispatches", e->dispatches);
    SETI("jobs_released", e->jobs_released);
    SETI("jobs_completed", e->jobs_completed);
    SETI("overrun_jobs", e->overruns);
    SETI("transition_faults", e->transition_faults);
#undef SETF
#undef SETI
    /* the records and speed_time stay in the store (fastcore hands it
     * to the result); every note Python added so far precedes the end */
    e->records->py_at_end = PyList_GET_SIZE(e->notes);
    for (Py_ssize_t i = 0; i < e->n_tasks; i++) {
        PyObject *ts = PyTuple_GET_ITEM(e->task_stats, i);
#define TSETI(name, val) do { \
            PyObject *obj_ = PyLong_FromLong(val); \
            if (obj_ == NULL || \
                set_named(ts, name, obj_) < 0) { \
                Py_XDECREF(obj_); return -1; } \
            Py_DECREF(obj_); } while (0)
#define TSETF(name, val) do { \
            PyObject *obj_ = PyFloat_FromDouble(val); \
            if (obj_ == NULL || \
                set_named(ts, name, obj_) < 0) { \
                Py_XDECREF(obj_); return -1; } \
            Py_DECREF(obj_); } while (0)
        TSETI("released", e->st_released[i]);
        TSETI("completed", e->st_completed[i]);
        TSETI("preemptions", e->st_preempt[i]);
        TSETI("missed", e->st_missed[i]);
        TSETF("total_executed", e->st_exec[i]);
        TSETF("total_response", e->st_resp[i]);
        TSETF("max_response", e->st_maxresp[i]);
#undef TSETI
#undef TSETF
    }
    return 0;
}

static PyObject *
CoreEngine_run(CoreEngine *self, PyObject *args)
{
    PyObject *ctx;
    if (!PyArg_ParseTuple(args, "O", &ctx))
        return NULL;
    Py_INCREF(ctx);
    Py_XDECREF(self->ctx);
    self->ctx = ctx;

    int status = ce_process_releases(self);
    while (status == 0 && self->now < self->horizon - K_TIME_EPS) {
        Py_ssize_t idx = ce_pick(self);
        if (idx < 0) {
            status = ce_handle_empty(self);
            if (status == 0)
                status = ce_process_releases(self);
            continue;
        }
        status = ce_dispatch(self, idx);
    }
    if (status == 0)
        status = ce_final_check(self);

    /* flush even when aborting (deadline miss, policy error) so the
     * partial result matches the interpreted engine's */
    if (status < 0) {
        PyObject *etype, *eval, *etb;
        PyErr_Fetch(&etype, &eval, &etb);
        (void)ce_flush(self);
        PyErr_Restore(etype, eval, etb);
    }
    else {
        status = ce_flush(self);
    }
    Py_CLEAR(self->ctx);
    if (status < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* SimContext surface                                                  */
/* ------------------------------------------------------------------ */

static PyObject *
CoreEngine_pessimistic_next_release(CoreEngine *self, PyObject *args)
{
    PyObject *name;
    if (!PyArg_ParseTuple(args, "U", &name))
        return NULL;
    PyObject *idx_obj = PyDict_GetItemWithError(self->name2idx, name);
    if (idx_obj == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, name);
        return NULL;
    }
    Py_ssize_t i = PyLong_AsSsize_t(idx_obj);
    if (i == -1 && PyErr_Occurred())
        return NULL;
    return PyFloat_FromDouble(ce_release_view(self, i));
}

static PyObject *
CoreEngine_next_release_global_py(CoreEngine *self,
                                  PyObject *Py_UNUSED(ignored))
{
    return PyFloat_FromDouble(ce_next_release_global(self));
}

/* slack_columns(baseline_speed) -> (active_deadlines, active_budgets),
 * the columns SimContext.slack_state builds from the Job objects: each
 * budget is wcet - executed clamped at zero, divided by the baseline
 * only when it is not exactly 1.0. */
static PyObject *
CoreEngine_slack_columns(CoreEngine *self, PyObject *arg)
{
    double baseline = PyFloat_AsDouble(arg);
    if (baseline == -1.0 && PyErr_Occurred())
        return NULL;
    if (baseline == 0.0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
        return NULL;
    }
    Py_ssize_t n = self->n_active;
    PyObject *deadlines = PyTuple_New(n);
    PyObject *budgets = PyTuple_New(n);
    if (deadlines == NULL || budgets == NULL)
        goto fail;
    for (Py_ssize_t i = 0; i < n; i++) {
        const JobSlot *s = &self->active[i];
        double w = self->t_wcet[s->task] - s->executed;
        if (!(w > 0.0))
            w = 0.0;
        if (baseline != 1.0)
            w = w / baseline;
        PyObject *d = PyFloat_FromDouble(s->deadline);
        PyObject *b = PyFloat_FromDouble(w);
        if (d == NULL || b == NULL) {
            Py_XDECREF(d);
            Py_XDECREF(b);
            goto fail;
        }
        PyTuple_SET_ITEM(deadlines, i, d);
        PyTuple_SET_ITEM(budgets, i, b);
    }
    return Py_BuildValue("(NN)", deadlines, budgets);
fail:
    Py_XDECREF(deadlines);
    Py_XDECREF(budgets);
    return NULL;
}

/* The active jobs in slot order, each materialized once. */
static PyObject *
ce_jobs(CoreEngine *self, int as_list)
{
    Py_ssize_t n = self->n_active;
    PyObject *out = as_list ? PyList_New(n) : PyTuple_New(n);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *job = ce_job(self, i);
        if (job == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        Py_INCREF(job);
        if (as_list)
            PyList_SET_ITEM(out, i, job);
        else
            PyTuple_SET_ITEM(out, i, job);
    }
    return out;
}

/* active_jobs() -> tuple of the active Job objects, slot order. */
static PyObject *
CoreEngine_active_jobs(CoreEngine *self, PyObject *Py_UNUSED(ignored))
{
    return ce_jobs(self, 0);
}

static PyObject *
CoreEngine_get_active(CoreEngine *self, void *Py_UNUSED(closure))
{
    return ce_jobs(self, 1);
}

/* decide_state() -> (analysis_calls, pid, canonical_now, alpha, util,
 * interventions, dispatches, max_clamp): what the compiled decide
 * leaves behind, for the policy to take back.  pid is one (prediction,
 * integral, last_error) per task, feedback's only; alpha one (task,
 * index, deadline, release, budget, done) per entry, in order (DRA's
 * only); util ccEDF's utilization estimate per task, ccEDF's only; the
 * last three the governor stage's counters.  A kind's empty fields are
 * ones its policy does not read. */
static PyObject *
CoreEngine_decide_state(CoreEngine *self, PyObject *Py_UNUSED(ignored))
{
    Py_ssize_t n_pid = self->dk == DK_FEEDBACK ? self->n_tasks : 0;
    Py_ssize_t n_util = self->dk == DK_CCEDF ? self->n_tasks : 0;
    PyObject *pid = PyTuple_New(n_pid);
    PyObject *alpha = pid == NULL ? NULL : PyTuple_New(self->n_alpha);
    PyObject *util = alpha == NULL ? NULL : PyTuple_New(n_util);
    if (util == NULL) {
        Py_XDECREF(pid);
        Py_XDECREF(alpha);
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n_pid; i++) {
        PyObject *row = Py_BuildValue("(ddd)", self->pid_pred[i],
                                      self->pid_int[i], self->pid_last[i]);
        if (row == NULL)
            goto fail;
        PyTuple_SET_ITEM(pid, i, row);
    }
    for (Py_ssize_t k = 0; k < self->n_alpha; k++) {
        const AlphaEntry *a = &self->alpha[k];
        PyObject *row = Py_BuildValue("(nldddO)", a->task, a->index,
                                      a->deadline, a->release, a->budget,
                                      a->done ? Py_True : Py_False);
        if (row == NULL)
            goto fail;
        PyTuple_SET_ITEM(alpha, k, row);
    }
    for (Py_ssize_t i = 0; i < n_util; i++) {
        PyObject *u = PyFloat_FromDouble(self->cc_util[i]);
        if (u == NULL)
            goto fail;
        PyTuple_SET_ITEM(util, i, u);
    }
    return Py_BuildValue("(lNdNNlld)", self->analysis_calls, pid,
                         self->canonical_now, alpha, util,
                         self->gv_interventions, self->gv_dispatches,
                         self->gv_max_clamp);
fail:
    Py_DECREF(pid);
    Py_DECREF(alpha);
    Py_DECREF(util);
    return NULL;
}

static PyObject *
CoreEngine_get_now(CoreEngine *self, void *Py_UNUSED(closure))
{
    return PyFloat_FromDouble(self->now);
}

static PyObject *
CoreEngine_get_current_speed(CoreEngine *self, void *Py_UNUSED(closure))
{
    return PyFloat_FromDouble(self->current_speed);
}

static PyObject *
CoreEngine_get_horizon(CoreEngine *self, void *Py_UNUSED(closure))
{
    return PyFloat_FromDouble(self->horizon);
}

static PyObject *
CoreEngine_get_release_version(CoreEngine *self, void *Py_UNUSED(closure))
{
    return PyLong_FromLong(self->release_version);
}

#define OBJ_GETTER(field) \
    static PyObject * \
    CoreEngine_get_##field(CoreEngine *self, void *Py_UNUSED(closure)) \
    { \
        Py_INCREF(self->field); \
        return self->field; \
    }
OBJ_GETTER(taskset)
OBJ_GETTER(processor)
OBJ_GETTER(execution_model)
OBJ_GETTER(arrival_model)
OBJ_GETTER(trace)
#undef OBJ_GETTER

static PyObject *
CoreEngine_get_records(CoreEngine *self, void *Py_UNUSED(closure))
{
    Py_INCREF(self->records);
    return (PyObject *)self->records;
}

/* _next_release / _next_index: the live dicts, brought up to date */
#define MIRROR_GETTER(field) \
    static PyObject * \
    CoreEngine_get_##field(CoreEngine *self, void *Py_UNUSED(closure)) \
    { \
        if (ce_sync_mirrors(self) < 0) \
            return NULL; \
        Py_INCREF(self->field); \
        return self->field; \
    }
MIRROR_GETTER(next_release_dict)
MIRROR_GETTER(next_index_dict)
#undef MIRROR_GETTER

static PyGetSetDef CoreEngine_getset[] = {
    {"_now", (getter)CoreEngine_get_now, NULL, NULL, NULL},
    {"_current_speed", (getter)CoreEngine_get_current_speed, NULL, NULL,
     NULL},
    {"horizon", (getter)CoreEngine_get_horizon, NULL, NULL, NULL},
    {"_release_version", (getter)CoreEngine_get_release_version, NULL,
     NULL, NULL},
    {"_active", (getter)CoreEngine_get_active, NULL, NULL, NULL},
    {"taskset", (getter)CoreEngine_get_taskset, NULL, NULL, NULL},
    {"processor", (getter)CoreEngine_get_processor, NULL, NULL, NULL},
    {"execution_model", (getter)CoreEngine_get_execution_model, NULL,
     NULL, NULL},
    {"arrival_model", (getter)CoreEngine_get_arrival_model, NULL, NULL,
     NULL},
    {"_trace", (getter)CoreEngine_get_trace, NULL, NULL, NULL},
    {"records", (getter)CoreEngine_get_records, NULL,
     "The run's Records store.", NULL},
    {"_next_release", (getter)CoreEngine_get_next_release_dict, NULL,
     NULL, NULL},
    {"_next_index", (getter)CoreEngine_get_next_index_dict, NULL, NULL,
     NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMethodDef CoreEngine_methods[] = {
    {"run", (PyCFunction)CoreEngine_run, METH_VARARGS,
     "Drive the full event loop; fills the bound SimulationResult."},
    {"_pessimistic_next_release",
     (PyCFunction)CoreEngine_pessimistic_next_release, METH_VARARGS,
     NULL},
    {"_next_release_global",
     (PyCFunction)CoreEngine_next_release_global_py, METH_NOARGS, NULL},
    {"slack_columns", (PyCFunction)CoreEngine_slack_columns, METH_O,
     "(active_deadlines, active_budgets) of the slack snapshot."},
    {"active_jobs", (PyCFunction)CoreEngine_active_jobs, METH_NOARGS,
     "The active jobs as a tuple, slot order."},
    {"decide_state", (PyCFunction)CoreEngine_decide_state, METH_NOARGS,
     "The compiled decide's policy state after the run."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject CoreEngineType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._fastcore.CoreEngine",
    .tp_basicsize = sizeof(CoreEngine),
    .tp_dealloc = (destructor)CoreEngine_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Compiled mirror of Simulator's event loop.",
    .tp_methods = CoreEngine_methods,
    .tp_getset = CoreEngine_getset,
    .tp_init = (initproc)CoreEngine_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* slack kernels                                                       */
/* ------------------------------------------------------------------ */

/* Parse sequences of floats into fresh arrays; each count goes to the
 * matching slot of n (NULL entries skip).  On failure frees what it
 * built and returns -1. */
static int
parse_columns(Py_ssize_t count, PyObject **seqs, double **arrs,
              Py_ssize_t *n)
{
    for (Py_ssize_t k = 0; k < count; k++) {
        arrs[k] = seq_as_doubles(seqs[k], &n[k]);
        if (arrs[k] == NULL) {
            for (Py_ssize_t j = 0; j < k; j++)
                PyMem_Free(arrs[j]);
            return -1;
        }
    }
    return 0;
}

/* exact_slack_walk(t, d_first, window_end, active_d, active_w,
 *                  rel, rdl, per, wcet, util, corr) -> float */
static PyObject *
fastcore_exact_slack_walk(PyObject *Py_UNUSED(module), PyObject *args)
{
    double t, d_first, window_end;
    PyObject *seqs[8];
    if (!PyArg_ParseTuple(args, "dddOOOOOOOO", &t, &d_first, &window_end,
                          &seqs[0], &seqs[1], &seqs[2], &seqs[3], &seqs[4],
                          &seqs[5], &seqs[6], &seqs[7]))
        return NULL;
    double *c[8];
    Py_ssize_t n[8];
    if (parse_columns(8, seqs, c, n) < 0)
        return NULL;
    PyObject *out = NULL;
    WalkBuffers ws = {0};
    if (walk_buffers_reserve(&ws, n[0], n[2]) == 0)
        out = PyFloat_FromDouble(exact_walk_core(
            t, d_first, window_end, n[0], c[0], c[1], n[2], c[2], c[3],
            c[4], c[5], c[6], c[7], &ws));
    walk_buffers_free(&ws);
    for (int k = 0; k < 8; k++)
        PyMem_Free(c[k]);
    return out;
}

/* heuristic_slack_walk(t, d_first, active_d, active_w, rel, util, corr)
 * -> float */
static PyObject *
fastcore_heuristic_slack_walk(PyObject *Py_UNUSED(module), PyObject *args)
{
    double t, d_first;
    PyObject *seqs[5];
    if (!PyArg_ParseTuple(args, "ddOOOOO", &t, &d_first, &seqs[0],
                          &seqs[1], &seqs[2], &seqs[3], &seqs[4]))
        return NULL;
    double *c[5];
    Py_ssize_t n[5];
    if (parse_columns(5, seqs, c, n) < 0)
        return NULL;
    PyObject *out = PyFloat_FromDouble(heuristic_walk_core(
        t, d_first, n[0], c[0], c[1], n[2], c[2], c[3], c[4]));
    for (int k = 0; k < 5; k++)
        PyMem_Free(c[k]);
    return out;
}

/* bisect_right over a list of numbers: first index whose value > x */
static int
bisect_right_list(PyObject *lst, double x, Py_ssize_t *out)
{
    Py_ssize_t lo = 0, hi = PyList_GET_SIZE(lst);
    while (lo < hi) {
        Py_ssize_t mid = lo + (hi - lo) / 2;
        double v = PyFloat_AsDouble(PyList_GET_ITEM(lst, mid));
        if (v == -1.0 && PyErr_Occurred())
            return -1;
        if (x < v)
            hi = mid;
        else
            lo = mid + 1;
    }
    *out = lo;
    return 0;
}

/* intensity_sweep(t, window_end, active_d, active_w, streams, k0s)
 * -> float: the clairvoyant policy's demand-event gather plus
 * peak_intensity.  streams[i] is task i's cached (deadlines, works)
 * list pair and k0s[i] its next job index; the events of each stream
 * are [k0, bisect_right(deadlines, window_end + 1e-12)).  Events are
 * visited in stable deadline order, so h accumulates in the
 * interpreted order. */
static PyObject *
fastcore_intensity_sweep(PyObject *Py_UNUSED(module), PyObject *args)
{
    double t, window_end;
    PyObject *o_ad, *o_aw, *o_streams, *o_k0;
    if (!PyArg_ParseTuple(args, "ddOOOO", &t, &window_end, &o_ad, &o_aw,
                          &o_streams, &o_k0))
        return NULL;
    Py_ssize_t n_active, nx, n_tasks;
    double *ad = NULL, *aw = NULL;
    long *k0 = NULL;
    Py_ssize_t *lo = NULL, *hi = NULL, *bounds = NULL;
    SlackEvent *events = NULL;
    PyObject *streams = NULL, *out = NULL;
    if ((ad = seq_as_doubles(o_ad, &n_active)) == NULL ||
        (aw = seq_as_doubles(o_aw, &nx)) == NULL ||
        (k0 = seq_as_longs(o_k0, &nx)) == NULL)
        goto cleanup;
    streams = PySequence_Fast(o_streams, "streams must be a sequence");
    if (streams == NULL)
        goto cleanup;
    n_tasks = PySequence_Fast_GET_SIZE(streams);
    if (nx != n_tasks) {
        PyErr_SetString(PyExc_ValueError, "one k0 per stream expected");
        goto cleanup;
    }
    /* lo/hi: each stream's slice, then the merge's cursors (lo);
     * bounds: where each source starts in the event array */
    lo = PyMem_Malloc((size_t)(n_tasks + 1) * sizeof(Py_ssize_t));
    hi = PyMem_Malloc((size_t)(n_tasks + 1) * sizeof(Py_ssize_t));
    bounds = PyMem_Malloc((size_t)(n_tasks + 2) * sizeof(Py_ssize_t));
    if (lo == NULL || hi == NULL || bounds == NULL) {
        PyErr_NoMemory();
        goto cleanup;
    }
    double fence = window_end + 1e-12;
    Py_ssize_t n = n_active;
    for (Py_ssize_t i = 0; i < n_tasks; i++) {
        PyObject *pair = PySequence_Fast_GET_ITEM(streams, i);
        if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2 ||
            !PyList_Check(PyTuple_GET_ITEM(pair, 0)) ||
            !PyList_Check(PyTuple_GET_ITEM(pair, 1))) {
            PyErr_SetString(PyExc_TypeError,
                            "each stream must be a (list, list) tuple");
            goto cleanup;
        }
        if (bisect_right_list(PyTuple_GET_ITEM(pair, 0), fence,
                              &hi[i]) < 0)
            goto cleanup;
        Py_ssize_t n_works = PyList_GET_SIZE(PyTuple_GET_ITEM(pair, 1));
        if (hi[i] > n_works)
            hi[i] = n_works;    /* zip stops at the shorter list */
        lo[i] = (k0[i] > 0) ? (Py_ssize_t)k0[i] : 0;
        if (hi[i] > lo[i])
            n += hi[i] - lo[i];
    }
    events = PyMem_Malloc((size_t)(2 * n + 1) * sizeof(SlackEvent));
    if (events == NULL) {
        PyErr_NoMemory();
        goto cleanup;
    }
    n = 0;
    bounds[0] = 0;
    for (Py_ssize_t i = 0; i < n_active; i++) {
        events[n].d = ad[i];
        events[n].w = aw[i];
        n++;
    }
    for (Py_ssize_t i = 0; i < n_tasks; i++) {
        PyObject *pair = PySequence_Fast_GET_ITEM(streams, i);
        PyObject *dl = PyTuple_GET_ITEM(pair, 0);
        PyObject *wl = PyTuple_GET_ITEM(pair, 1);
        bounds[i + 1] = n;
        for (Py_ssize_t k = lo[i]; k < hi[i]; k++) {
            double d = PyFloat_AsDouble(PyList_GET_ITEM(dl, k));
            double w = PyFloat_AsDouble(PyList_GET_ITEM(wl, k));
            if ((d == -1.0 || w == -1.0) && PyErr_Occurred())
                goto cleanup;
            events[n].d = d;
            events[n].w = w;
            n++;
        }
    }
    bounds[n_tasks + 1] = n;
    out = PyFloat_FromDouble(intensity_core(t, window_end, events, bounds,
                                            n_tasks + 1, lo, events + n));
cleanup:
    PyMem_Free(ad); PyMem_Free(aw); PyMem_Free(k0);
    PyMem_Free(lo); PyMem_Free(hi); PyMem_Free(bounds);
    PyMem_Free(events);
    Py_XDECREF(streams);
    return out;
}

/* fault_table(inner, key, factor, probability) -> DemandTable: the
 * demands of a FaultyExecution over the model whose table is inner;
 * key is f"{plan.seed ^ _OVERRUN_SALT}:{task}:" as UTF-8. */
static PyObject *
fastcore_fault_table(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *inner;
    const char *key;
    Py_ssize_t key_len;
    double factor, probability;
    if (!PyArg_ParseTuple(args, "O!y#dd", &DemandTableType, &inner, &key,
                          &key_len, &factor, &probability))
        return NULL;
    DemandTable *in = (DemandTable *)inner;
    if (in->key == NULL) {
        PyErr_SetString(PyExc_TypeError, "inner DemandTable not initialized");
        return NULL;
    }
    DemandTable *t = (DemandTable *)PyType_GenericNew(&DemandTableType,
                                                      NULL, NULL);
    if (t == NULL)
        return NULL;
    if (table_set_key(t, key, key_len) < 0) {
        Py_DECREF(t);
        return NULL;
    }
    t->low = in->low;
    t->high = in->high;
    t->wcet = in->wcet;
    t->bcet = in->bcet;
    t->min_ratio = in->min_ratio;
    Py_INCREF(inner);
    t->inner = in;
    t->factor = factor;
    t->probability = probability;
    return (PyObject *)t;
}

/* blake2b64(data) -> int: step 1 of the demand draw */
static PyObject *
fastcore_blake2b64(PyObject *Py_UNUSED(module), PyObject *arg)
{
    char *data;
    Py_ssize_t len;
    if (PyBytes_AsStringAndSize(arg, &data, &len) < 0)
        return NULL;
    return PyLong_FromUnsignedLongLong(
        blake2b64((const uint8_t *)data, (size_t)len));
}

/* entropy_uniform(entropy, low, high) -> float: steps 2-4 */
static PyObject *
fastcore_entropy_uniform(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *o_entropy;
    double low, high;
    if (!PyArg_ParseTuple(args, "O!dd", &PyLong_Type, &o_entropy, &low,
                          &high))
        return NULL;
    unsigned long long entropy = PyLong_AsUnsignedLongLong(o_entropy);
    if (entropy == (unsigned long long)-1 && PyErr_Occurred())
        return NULL;
    return PyFloat_FromDouble(entropy_uniform(entropy, low, high));
}

/* ------------------------------------------------------------------ */
/* module                                                              */
/* ------------------------------------------------------------------ */

static PyMethodDef fastcore_methods[] = {
    {"blake2b64", fastcore_blake2b64, METH_O,
     "blake2b(data, digest_size=8) read little-endian."},
    {"fault_table", fastcore_fault_table, METH_VARARGS,
     "A DemandTable of FaultyExecution's demands over an inner table."},
    {"entropy_uniform", fastcore_entropy_uniform, METH_VARARGS,
     "float(numpy.random.default_rng(entropy).uniform(low, high))."},
    {"exact_slack_walk", fastcore_exact_slack_walk, METH_VARARGS,
     "Compiled exact slack event walk (flattened state)."},
    {"heuristic_slack_walk", fastcore_heuristic_slack_walk, METH_VARARGS,
     "Compiled heuristic slack walk (flattened state)."},
    {"intensity_sweep", fastcore_intensity_sweep, METH_VARARGS,
     "Compiled clairvoyant intensity sweep (flattened state)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef fastcore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._fastcore",
    .m_doc = "Compiled scalar engine core (built by repro.sim.fastcore).",
    .m_size = -1,
    .m_methods = fastcore_methods,
};

PyMODINIT_FUNC
PyInit__fastcore(void)
{
    if (intern_names() < 0 || records_intern_kinds() < 0)
        return NULL;
    PyObject *m = PyModule_Create(&fastcore_module);
    if (m == NULL)
        return NULL;
    if (PyType_Ready(&CoreEngineType) < 0 ||
        PyType_Ready(&DemandTableType) < 0 ||
        PyType_Ready(&RecordsType) < 0 ||
        PyModule_AddObjectRef(m, "CoreEngine",
                              (PyObject *)&CoreEngineType) < 0 ||
        PyModule_AddObjectRef(m, "DemandTable",
                              (PyObject *)&DemandTableType) < 0 ||
        PyModule_AddIntConstant(m, "COMPILED", 1) < 0 ||
        PyModule_AddStringConstant(m, "BACKEND", "c-extension") < 0 ||
        PyModule_AddStringConstant(m, "SOURCE_SHA256",
                                   REPRO_FASTCORE_SHA256) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
