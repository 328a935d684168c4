/* The compiled scalar engine core (DESIGN.md section 13).
 *
 * A hand-written CPython extension mirroring Simulator's event loop,
 * plus the exact/heuristic slack walks, under the byte-identity
 * contract: every float expression reproduces the interpreted
 * engine's operation order exactly, and every polymorphic boundary
 * (policy hooks, execution/arrival models, fault plans, non-default
 * scales/power/transition models, idle planners) stays a Python
 * callback, so stochastic draws, caches and error messages are the
 * interpreted ones by construction.  Rare events (deadline misses,
 * overrun notes, transition-fault notes, engine errors) are delegated
 * to repro.sim.fastcore helpers so string formatting and exception
 * types never fork from the Python implementation.
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

static PyObject *s_complete, *s_executed, *s_first_dispatch_time,
    *s_preemption_count, *s_enabled, *s_sleep, *s_wake_time,
    *s_achieved, *s_extra_time, *s_faulted, *s_deadline, *s_work;

static int
intern_names(void)
{
#define MK(var, text) \
    if ((var = PyUnicode_InternFromString(text)) == NULL) return -1;
    MK(s_complete, "complete")
    MK(s_executed, "executed")
    MK(s_first_dispatch_time, "first_dispatch_time")
    MK(s_preemption_count, "preemption_count")
    MK(s_enabled, "enabled")
    MK(s_sleep, "sleep")
    MK(s_wake_time, "wake_time")
    MK(s_achieved, "achieved")
    MK(s_extra_time, "extra_time")
    MK(s_faulted, "faulted")
    MK(s_deadline, "deadline")
    MK(s_work, "work")
#undef MK
    return 0;
}

/* ------------------------------------------------------------------ */
/* small helpers                                                       */
/* ------------------------------------------------------------------ */

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
/* CoreEngine                                                          */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject *job;      /* strong ref */
    double deadline;
    double release;
    double work;
    double executed;
    Py_ssize_t task;    /* index into the task arrays */
    long index;
    long preempt;
    int missed;
    int dispatched;
} JobSlot;

typedef struct {
    PyObject_HEAD

    /* configuration objects (strong refs; surfaced to SimContext) */
    PyObject *taskset, *processor, *scheduler, *execution_model,
        *arrival_model, *trace, *result, *telemetry;
    PyObject *next_release_dict, *next_index_dict;  /* live dicts */
    PyObject *tasks;        /* tuple of PeriodicTask */
    PyObject *names;        /* tuple of str */
    PyObject *name2idx;     /* dict name -> int */
    PyObject *task_stats;   /* tuple of TaskStats, task order */

    /* bound methods / callables */
    PyObject *m_select_speed, *m_on_release, *m_on_completion,
        *m_observe, *m_plan_idle, *m_work, *m_arrival, *m_quantize,
        *m_active_energy, *m_transition, *m_transition_outcome;
    /* fastcore rare-event helpers */
    PyObject *h_mk_job, *h_miss, *h_overrun_note, *h_stuck_note,
        *h_requant_note, *h_bad_speed, *h_bad_quant, *h_no_progress,
        *h_overexec, *h_neg_exec, *h_round_key, *h_trace_run;

    PyObject *ctx;          /* set for the duration of run() only */

    /* per-task static data */
    Py_ssize_t n_tasks;
    double *t_period, *t_rel_deadline, *t_wcet;
    long *t_rank;

    /* per-task run state */
    double *next_release;   /* mirrors next_release_dict */
    long *next_index;       /* mirrors next_index_dict */
    double *last_arrival;   /* NAN == no arrival yet */

    /* per-task stat accumulators (missed stays owned by Python) */
    long *st_released, *st_completed, *st_preempt;
    double *st_exec, *st_resp, *st_maxresp;

    /* active jobs */
    JobSlot *active;
    Py_ssize_t n_active, cap_active;

    /* run state */
    double now, current_speed, horizon;
    long release_version, switch_attempts;
    PyObject *last_running;  /* strong ref or NULL */

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

    /* speed_time: chronological first-occurrence accumulation */
    double *spd_exact, *spd_dur;
    PyObject **spd_key;     /* strong refs: round(speed, 12) floats */
    Py_ssize_t n_spd, cap_spd;
} CoreEngine;

static void
CoreEngine_dealloc(CoreEngine *self)
{
    Py_XDECREF(self->taskset); Py_XDECREF(self->processor);
    Py_XDECREF(self->scheduler); Py_XDECREF(self->execution_model);
    Py_XDECREF(self->arrival_model); Py_XDECREF(self->trace);
    Py_XDECREF(self->result); Py_XDECREF(self->telemetry);
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
    Py_XDECREF(self->h_overrun_note); Py_XDECREF(self->h_stuck_note);
    Py_XDECREF(self->h_requant_note); Py_XDECREF(self->h_bad_speed);
    Py_XDECREF(self->h_bad_quant); Py_XDECREF(self->h_no_progress);
    Py_XDECREF(self->h_overexec); Py_XDECREF(self->h_neg_exec);
    Py_XDECREF(self->h_round_key); Py_XDECREF(self->h_trace_run);
    Py_XDECREF(self->ctx); Py_XDECREF(self->last_running);
    for (Py_ssize_t i = 0; i < self->n_active; i++)
        Py_XDECREF(self->active[i].job);
    for (Py_ssize_t i = 0; i < self->n_spd; i++)
        Py_XDECREF(self->spd_key[i]);
    PyMem_Free(self->active);
    PyMem_Free(self->t_period); PyMem_Free(self->t_rel_deadline);
    PyMem_Free(self->t_wcet); PyMem_Free(self->t_rank);
    PyMem_Free(self->next_release); PyMem_Free(self->next_index);
    PyMem_Free(self->last_arrival);
    PyMem_Free(self->st_released); PyMem_Free(self->st_completed);
    PyMem_Free(self->st_preempt); PyMem_Free(self->st_exec);
    PyMem_Free(self->st_resp); PyMem_Free(self->st_maxresp);
    PyMem_Free(self->spd_exact); PyMem_Free(self->spd_dur);
    PyMem_Free(self->spd_key);
    PyMem_Free((void *)self->q_levels);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Pull one attribute off the config namespace into a strong ref. */
static int
ns_get(PyObject *ns, const char *name, PyObject **slot)
{
    PyObject *val = PyObject_GetAttrString(ns, name);
    if (val == NULL)
        return -1;
    *slot = val;
    return 0;
}

static int
ns_get_double(PyObject *ns, const char *name, double *out)
{
    PyObject *val = PyObject_GetAttrString(ns, name);
    if (val == NULL)
        return -1;
    *out = PyFloat_AsDouble(val);
    Py_DECREF(val);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

static int
ns_get_int(PyObject *ns, const char *name, int *out)
{
    PyObject *val = PyObject_GetAttrString(ns, name);
    if (val == NULL)
        return -1;
    long v = PyLong_AsLong(val);
    Py_DECREF(val);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = (int)v;
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
    GET(taskset) GET(processor) GET(scheduler) GET(execution_model)
    GET(arrival_model) GET(trace) GET(result) GET(telemetry)
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
    GETM(h_mk_job) GETM(h_miss) GETM(h_overrun_note) GETM(h_stuck_note)
    GETM(h_requant_note) GETM(h_bad_speed) GETM(h_bad_quant)
    GETM(h_no_progress) GETM(h_overexec) GETM(h_neg_exec)
    GETM(h_round_key) GETM(h_trace_run)
#undef GETM

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
    seq = PyObject_GetAttrString(ns, attr); \
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

    seq = PyObject_GetAttrString(ns, "q_levels");
    if (seq == NULL)
        return -1;
    self->q_levels = seq_as_doubles(seq, &self->q_nlevels);
    Py_DECREF(seq);
    if (self->q_levels == NULL)
        return -1;

    self->next_index = PyMem_Malloc((size_t)(n > 0 ? n : 1) * sizeof(long));
    self->last_arrival = PyMem_Malloc((size_t)(n > 0 ? n : 1) * sizeof(double));
    self->st_released = PyMem_Calloc((size_t)(n > 0 ? n : 1), sizeof(long));
    self->st_completed = PyMem_Calloc((size_t)(n > 0 ? n : 1), sizeof(long));
    self->st_preempt = PyMem_Calloc((size_t)(n > 0 ? n : 1), sizeof(long));
    self->st_exec = PyMem_Calloc((size_t)(n > 0 ? n : 1), sizeof(double));
    self->st_resp = PyMem_Calloc((size_t)(n > 0 ? n : 1), sizeof(double));
    self->st_maxresp = PyMem_Calloc((size_t)(n > 0 ? n : 1), sizeof(double));
    if (self->next_index == NULL || self->last_arrival == NULL ||
        self->st_released == NULL || self->st_completed == NULL ||
        self->st_preempt == NULL || self->st_exec == NULL ||
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
    self->cap_spd = 8;
    self->spd_exact = PyMem_Malloc((size_t)self->cap_spd * sizeof(double));
    self->spd_dur = PyMem_Malloc((size_t)self->cap_spd * sizeof(double));
    self->spd_key = PyMem_Malloc((size_t)self->cap_spd * sizeof(PyObject *));
    if (self->active == NULL || self->spd_exact == NULL ||
        self->spd_dur == NULL || self->spd_key == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->n_active = 0;
    self->n_spd = 0;
    self->now = 0.0;
    self->current_speed = 1.0;
    self->release_version = 0;
    self->switch_attempts = 0;
    self->last_running = NULL;
    self->ctx = NULL;
    return 0;
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
ce_find_slot(CoreEngine *e, PyObject *job)
{
    for (Py_ssize_t i = 0; i < e->n_active; i++)
        if (e->active[i].job == job)
            return i;
    return -1;
}

static void
ce_set_last_running(CoreEngine *e, PyObject *job)
{
    Py_XINCREF(job);
    Py_XDECREF(e->last_running);
    e->last_running = job;
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

/* Register a miss through the Python helper (formats the note and
 * raises DeadlineMissError when misses abort the run). */
static int
ce_register_miss(CoreEngine *e, Py_ssize_t idx, double detected_at)
{
    e->active[idx].missed = 1;
    PyObject *t = PyFloat_FromDouble(detected_at);
    if (t == NULL)
        return -1;
    PyObject *r = PyObject_CallFunctionObjArgs(
        e->h_miss, e->result, e->trace, e->active[idx].job, t,
        e->allow_misses ? Py_True : Py_False, NULL);
    Py_DECREF(t);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

static int
ce_check_misses(CoreEngine *e)
{
    double fence = e->now - K_DEADLINE_EPS;
    for (Py_ssize_t i = 0; i < e->n_active; i++) {
        if (e->active[i].deadline < fence && !e->active[i].missed) {
            if (ce_register_miss(e, i, e->now) < 0)
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

static int
ce_process_releases(CoreEngine *e)
{
    double top = ce_release_min(e);
    if (top > e->now + K_TIME_EPS)
        return ce_check_misses(e);
    for (Py_ssize_t i = 0; i < e->n_tasks; i++) {
        PyObject *task = PyTuple_GET_ITEM(e->tasks, i);
        PyObject *name = PyTuple_GET_ITEM(e->names, i);
        while (e->next_release[i] <= e->now + K_TIME_EPS &&
               e->next_release[i] < e->horizon - K_TIME_EPS) {
            long index = e->next_index[i];
            double release = e->next_release[i];
            PyObject *idx_obj = PyLong_FromLong(index);
            if (idx_obj == NULL)
                return -1;
            PyObject *work_obj = PyObject_CallFunctionObjArgs(
                e->m_work, task, idx_obj, NULL);
            Py_DECREF(idx_obj);
            if (work_obj == NULL)
                return -1;
            double work_in = PyFloat_AsDouble(work_obj);
            if (work_in == -1.0 && PyErr_Occurred()) {
                Py_DECREF(work_obj);
                return -1;
            }
            PyObject *rel_obj = PyFloat_FromDouble(release);
            PyObject *iobj = PyLong_FromLong(index);
            if (rel_obj == NULL || iobj == NULL) {
                Py_XDECREF(rel_obj); Py_XDECREF(iobj);
                Py_DECREF(work_obj);
                return -1;
            }
            PyObject *job = PyObject_CallFunctionObjArgs(
                e->h_mk_job, task, iobj, work_obj, rel_obj,
                e->allow_overrun ? Py_True : Py_False, NULL);
            Py_DECREF(rel_obj);
            Py_DECREF(iobj);
            if (job == NULL) {
                Py_DECREF(work_obj);
                return -1;
            }
            double jdl, jwork;
            if (attr_as_double(job, s_deadline, &jdl) < 0 ||
                attr_as_double(job, s_work, &jwork) < 0) {
                Py_DECREF(work_obj);
                Py_DECREF(job);
                return -1;
            }
            /* job.overrun: work > task.wcet + TIME_EPS */
            if (jwork > e->t_wcet[i] + K_TIME_EPS) {
                e->overruns++;
                PyObject *now_obj = PyFloat_FromDouble(e->now);
                PyObject *r = now_obj == NULL ? NULL :
                    PyObject_CallFunctionObjArgs(
                        e->h_overrun_note, e->trace, now_obj, job,
                        work_obj, NULL);
                Py_XDECREF(now_obj);
                if (r == NULL) {
                    Py_DECREF(work_obj);
                    Py_DECREF(job);
                    return -1;
                }
                Py_DECREF(r);
            }
            Py_DECREF(work_obj);
            JobSlot slot = {job, jdl, release, jwork, 0.0, i, index,
                            0, 0, 0};
            if (ce_active_append(e, slot) < 0) {
                Py_DECREF(job);
                return -1;
            }
            /* the slot owns the job reference from here on */
            e->jobs_released++;
            e->st_released[i]++;
            e->last_arrival[i] = release;
            e->next_index[i] = index + 1;
            PyObject *ni = PyLong_FromLong(index + 1);
            if (ni == NULL ||
                PyDict_SetItem(e->next_index_dict, name, ni) < 0) {
                Py_XDECREF(ni);
                return -1;
            }
            Py_DECREF(ni);
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
            PyObject *nrobj = PyFloat_FromDouble(next_rel);
            if (nrobj == NULL ||
                PyDict_SetItem(e->next_release_dict, name, nrobj) < 0) {
                Py_XDECREF(nrobj);
                return -1;
            }
            Py_DECREF(nrobj);
            e->release_version++;
            PyObject *r = PyObject_CallFunctionObjArgs(
                e->m_on_release, job, e->ctx, NULL);
            if (r == NULL)
                return -1;
            Py_DECREF(r);
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
    ce_set_last_running(e, NULL);
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
    ce_set_last_running(e, NULL);
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
    for (Py_ssize_t i = 0; i < e->n_spd; i++) {
        if (e->spd_exact[i] == speed) {
            e->spd_dur[i] += duration;
            return 0;
        }
    }
    PyObject *s = PyFloat_FromDouble(speed);
    if (s == NULL)
        return -1;
    PyObject *key = PyObject_CallFunctionObjArgs(e->h_round_key, s, NULL);
    Py_DECREF(s);
    if (key == NULL)
        return -1;
    if (e->n_spd == e->cap_spd) {
        Py_ssize_t cap = e->cap_spd * 2;
        double *ex = PyMem_Realloc(e->spd_exact,
                                   (size_t)cap * sizeof(double));
        double *du = PyMem_Realloc(ex ? e->spd_dur : NULL,
                                   (size_t)cap * sizeof(double));
        PyObject **ke = PyMem_Realloc(du ? e->spd_key : NULL,
                                      (size_t)cap * sizeof(PyObject *));
        if (ex != NULL)
            e->spd_exact = ex;
        if (du != NULL)
            e->spd_dur = du;
        if (ke != NULL)
            e->spd_key = ke;
        if (ex == NULL || du == NULL || ke == NULL) {
            Py_DECREF(key);
            PyErr_NoMemory();
            return -1;
        }
        e->cap_spd = cap;
    }
    e->spd_exact[e->n_spd] = speed;
    e->spd_dur[e->n_spd] = duration;
    e->spd_key[e->n_spd] = key;    /* steal */
    e->n_spd++;
    return 0;
}

static int
ce_apply_speed(CoreEngine *e, PyObject *desired, double *out)
{
    double d = 0.0;
    int invalid = (desired == Py_None);
    if (!invalid) {
        d = PyFloat_AsDouble(desired);
        if (d == -1.0 && PyErr_Occurred())
            return -1;
        invalid = isnan(d);
    }
    if (invalid) {
        PyObject *r = PyObject_CallFunctionObjArgs(
            e->h_bad_speed, e->result, desired, NULL);
        Py_XDECREF(r);
        return -1;
    }
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
            PyObject *r = PyObject_CallFunction(
                e->h_stuck_note, "Oddd", e->trace, e->now,
                e->current_speed, speed);
            if (r == NULL)
                return -1;
            Py_DECREF(r);
            if (ce_check_misses(e) < 0)
                return -1;
            *out = e->current_speed;
            return 0;
        }
        if (fabs(achieved - speed) > K_SPEED_EPS) {
            PyObject *r = PyObject_CallFunction(
                e->h_requant_note, "Oddd", e->trace, e->now, speed,
                achieved);
            if (r == NULL)
                return -1;
            Py_DECREF(r);
        }
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
    JobSlot slot = e->active[idx];   /* takes over the job reference */
    PyObject *now_obj = PyFloat_FromDouble(e->now);
    if (now_obj == NULL)
        return -1;
    PyObject *r = PyObject_CallMethodObjArgs(slot.job, s_complete,
                                             now_obj, NULL);
    Py_DECREF(now_obj);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
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
    /* met_deadline(eps=DEADLINE_EPS) on the just-set completion time */
    if (!(e->now <= slot.deadline + K_DEADLINE_EPS) && !slot.missed) {
        PyObject *t = PyFloat_FromDouble(e->now);
        PyObject *m = t == NULL ? NULL : PyObject_CallFunctionObjArgs(
            e->h_miss, e->result, e->trace, slot.job, t,
            e->allow_misses ? Py_True : Py_False, NULL);
        Py_XDECREF(t);
        if (m == NULL)
            status = -1;
        else
            Py_DECREF(m);
    }
    if (status == 0) {
        ce_set_last_running(e, NULL);
        PyObject *h = PyObject_CallFunctionObjArgs(e->m_on_completion,
                                                   slot.job, e->ctx, NULL);
        if (h == NULL)
            status = -1;
        else
            Py_DECREF(h);
    }
    Py_DECREF(slot.job);
    return status;
}

static int
ce_dispatch(CoreEngine *e, Py_ssize_t idx)
{
    PyObject *job = e->active[idx].job;
    Py_INCREF(job);
    int status = -1;

    if (e->last_running != NULL && e->last_running != job) {
        /* the engine invariant guarantees last_running is incomplete */
        Py_ssize_t li = ce_find_slot(e, e->last_running);
        if (li >= 0) {
            JobSlot *ls = &e->active[li];
            ls->preempt++;
            PyObject *pc = PyLong_FromLong(ls->preempt);
            if (pc == NULL ||
                PyObject_SetAttr(ls->job, s_preemption_count, pc) < 0) {
                Py_XDECREF(pc);
                goto done;
            }
            Py_DECREF(pc);
            e->st_preempt[ls->task]++;
        }
    }
    if (!e->active[idx].dispatched) {
        e->active[idx].dispatched = 1;
        PyObject *t = PyFloat_FromDouble(e->now);
        if (t == NULL ||
            PyObject_SetAttr(job, s_first_dispatch_time, t) < 0) {
            Py_XDECREF(t);
            goto done;
        }
        Py_DECREF(t);
    }
    e->dispatches++;
    PyObject *desired = PyObject_CallFunctionObjArgs(e->m_select_speed,
                                                     job, e->ctx, NULL);
    if (desired == NULL)
        goto done;
    PyObject *enabled = PyObject_GetAttr(e->telemetry, s_enabled);
    if (enabled == NULL) {
        Py_DECREF(desired);
        goto done;
    }
    int tele = PyObject_IsTrue(enabled);
    Py_DECREF(enabled);
    if (tele < 0) {
        Py_DECREF(desired);
        goto done;
    }
    if (tele) {
        PyObject *r = PyObject_CallFunctionObjArgs(e->m_observe, desired,
                                                   NULL);
        if (r == NULL) {
            Py_DECREF(desired);
            goto done;
        }
        Py_DECREF(r);
    }
    double speed;
    int rc = ce_apply_speed(e, desired, &speed);
    Py_DECREF(desired);
    if (rc < 0)
        goto done;

    if (e->now >= e->horizon - K_TIME_EPS) {
        ce_set_last_running(e, job);
        status = 0;
        goto done;
    }
    /* a release during a timed switch may change the best job */
    if (ce_process_releases(e) < 0)
        goto done;
    Py_ssize_t best = ce_pick(e);
    if (best < 0 || e->active[best].job != job) {
        ce_set_last_running(e, job);
        status = 0;
        goto done;
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
        goto done;
    }
    /* job.execute(retired), with slot state kept in lockstep */
    if (retired < -K_TIME_EPS) {
        PyObject *r = PyObject_CallFunction(e->h_neg_exec, "Od", job,
                                            retired);
        Py_XDECREF(r);
        goto done;
    }
    double inc = (retired > 0.0) ? retired : 0.0;
    double new_total = s->executed + inc;
    if (new_total > s->work + 1e-6) {
        PyObject *r = PyObject_CallFunction(e->h_overexec, "Od", job,
                                            new_total);
        Py_XDECREF(r);
        goto done;
    }
    s->executed = (new_total < s->work) ? new_total : s->work;
    PyObject *ex = PyFloat_FromDouble(s->executed);
    if (ex == NULL || PyObject_SetAttr(job, s_executed, ex) < 0) {
        Py_XDECREF(ex);
        goto done;
    }
    Py_DECREF(ex);
    double energy;
    if (ce_active_energy(e, speed, duration, &energy) < 0)
        goto done;
    e->busy_energy += energy;
    e->busy_time += duration;
    if (ce_speed_time_add(e, speed, duration) < 0)
        goto done;
    e->st_exec[s->task] += retired;
    if (e->record_trace) {
        PyObject *r = PyObject_CallFunction(
            e->h_trace_run, "OddOdd", e->trace, e->now, next_point, job,
            speed, energy);
        if (r == NULL)
            goto done;
        Py_DECREF(r);
    }
    e->now = next_point;
    ce_set_last_running(e, job);
    if (snap_nonneg(s->work - s->executed) <= K_WORK_EPS) {
        if (ce_complete(e, idx) < 0)
            goto done;
    }
    if (ce_process_releases(e) < 0)
        goto done;
    status = 0;
done:
    Py_DECREF(job);
    return status;
}

static int
ce_final_check(CoreEngine *e)
{
    for (Py_ssize_t i = 0; i < e->n_active; i++) {
        if (e->active[i].deadline <= e->horizon + K_TIME_EPS &&
            !e->active[i].missed) {
            if (ce_register_miss(e, i, e->horizon) < 0)
                return -1;
        }
    }
    return 0;
}

/* Write the C accumulators into the SimulationResult.  Called on both
 * the success and the error path, so partially-run state is visible
 * exactly as the interpreted engine would have left it. */
static int
ce_flush(CoreEngine *e)
{
    PyObject *res = e->result;
#define SETF(name, val) do { \
        PyObject *obj_ = PyFloat_FromDouble(val); \
        if (obj_ == NULL || PyObject_SetAttrString(res, name, obj_) < 0) { \
            Py_XDECREF(obj_); return -1; } \
        Py_DECREF(obj_); } while (0)
#define SETI(name, val) do { \
        PyObject *obj_ = PyLong_FromLong(val); \
        if (obj_ == NULL || PyObject_SetAttrString(res, name, obj_) < 0) { \
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
    /* speed_time: a fresh dict in chronological key-first-seen order;
     * exact speeds that round to the same key accumulate in place. */
    PyObject *st = PyDict_New();
    if (st == NULL)
        return -1;
    for (Py_ssize_t i = 0; i < e->n_spd; i++) {
        PyObject *key = e->spd_key[i];
        PyObject *prev = PyDict_GetItemWithError(st, key);
        if (prev == NULL && PyErr_Occurred()) {
            Py_DECREF(st);
            return -1;
        }
        double total = e->spd_dur[i];
        if (prev != NULL)
            total += PyFloat_AsDouble(prev);
        PyObject *val = PyFloat_FromDouble(total);
        if (val == NULL || PyDict_SetItem(st, key, val) < 0) {
            Py_XDECREF(val);
            Py_DECREF(st);
            return -1;
        }
        Py_DECREF(val);
    }
    if (PyObject_SetAttrString(res, "speed_time", st) < 0) {
        Py_DECREF(st);
        return -1;
    }
    Py_DECREF(st);
    for (Py_ssize_t i = 0; i < e->n_tasks; i++) {
        PyObject *ts = PyTuple_GET_ITEM(e->task_stats, i);
#define TSETI(name, val) do { \
            PyObject *obj_ = PyLong_FromLong(val); \
            if (obj_ == NULL || \
                PyObject_SetAttrString(ts, name, obj_) < 0) { \
                Py_XDECREF(obj_); return -1; } \
            Py_DECREF(obj_); } while (0)
#define TSETF(name, val) do { \
            PyObject *obj_ = PyFloat_FromDouble(val); \
            if (obj_ == NULL || \
                PyObject_SetAttrString(ts, name, obj_) < 0) { \
                Py_XDECREF(obj_); return -1; } \
            Py_DECREF(obj_); } while (0)
        TSETI("released", e->st_released[i]);
        TSETI("completed", e->st_completed[i]);
        TSETI("preemptions", e->st_preempt[i]);
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
    if (self->is_periodic)
        return PyFloat_FromDouble(self->next_release[i]);
    double v;
    if (isnan(self->last_arrival[i]))
        v = self->next_release[i];
    else
        v = self->last_arrival[i] + self->t_period[i];
    /* max(now, v) */
    return PyFloat_FromDouble((v > self->now) ? v : self->now);
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

/* active_jobs() -> tuple of the active Job objects, slot order. */
static PyObject *
CoreEngine_active_jobs(CoreEngine *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *tup = PyTuple_New(self->n_active);
    if (tup == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < self->n_active; i++) {
        Py_INCREF(self->active[i].job);
        PyTuple_SET_ITEM(tup, i, self->active[i].job);
    }
    return tup;
}

static PyObject *
CoreEngine_get_active(CoreEngine *self, void *Py_UNUSED(closure))
{
    PyObject *lst = PyList_New(self->n_active);
    if (lst == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < self->n_active; i++) {
        Py_INCREF(self->active[i].job);
        PyList_SET_ITEM(lst, i, self->active[i].job);
    }
    return lst;
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
OBJ_GETTER(scheduler)
OBJ_GETTER(execution_model)
OBJ_GETTER(arrival_model)
OBJ_GETTER(trace)
OBJ_GETTER(next_release_dict)
OBJ_GETTER(next_index_dict)
#undef OBJ_GETTER

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
    {"scheduler", (getter)CoreEngine_get_scheduler, NULL, NULL, NULL},
    {"execution_model", (getter)CoreEngine_get_execution_model, NULL,
     NULL, NULL},
    {"arrival_model", (getter)CoreEngine_get_arrival_model, NULL, NULL,
     NULL},
    {"_trace", (getter)CoreEngine_get_trace, NULL, NULL, NULL},
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

/* exact_slack_walk(t, d_first, window_end, active_d, active_w,
 *                  rel, rdl, per, wcet, util, corr) -> float */
static PyObject *
fastcore_exact_slack_walk(PyObject *Py_UNUSED(module), PyObject *args)
{
    double t, d_first, window_end;
    PyObject *o_ad, *o_aw, *o_rel, *o_rdl, *o_per, *o_wcet, *o_util,
        *o_corr;
    if (!PyArg_ParseTuple(args, "dddOOOOOOOO", &t, &d_first, &window_end,
                          &o_ad, &o_aw, &o_rel, &o_rdl, &o_per, &o_wcet,
                          &o_util, &o_corr))
        return NULL;
    Py_ssize_t n_active, n_tasks, nx;
    double *ad = NULL, *aw = NULL, *rel = NULL, *rdl = NULL, *per = NULL,
        *wcet = NULL, *util = NULL, *corr = NULL;
    SlackEvent *events = NULL;
    PyObject *out = NULL;
    if ((ad = seq_as_doubles(o_ad, &n_active)) == NULL ||
        (aw = seq_as_doubles(o_aw, &nx)) == NULL ||
        (rel = seq_as_doubles(o_rel, &n_tasks)) == NULL ||
        (rdl = seq_as_doubles(o_rdl, &nx)) == NULL ||
        (per = seq_as_doubles(o_per, &nx)) == NULL ||
        (wcet = seq_as_doubles(o_wcet, &nx)) == NULL ||
        (util = seq_as_doubles(o_util, &nx)) == NULL ||
        (corr = seq_as_doubles(o_corr, &nx)) == NULL)
        goto cleanup;

    double fence = window_end + 1e-12;
    /* count events to size the array */
    Py_ssize_t cap = n_active;
    for (Py_ssize_t i = 0; i < n_tasks; i++) {
        double deadline = rel[i] + rdl[i];
        if (deadline <= fence && per[i] > 0.0)
            cap += (Py_ssize_t)floor((fence - deadline) / per[i]) + 2;
    }
    events = PyMem_Malloc((size_t)(cap > 0 ? cap : 1)
                          * sizeof(SlackEvent));
    if (events == NULL) {
        PyErr_NoMemory();
        goto cleanup;
    }
    Py_ssize_t n = 0;
    for (Py_ssize_t i = 0; i < n_active; i++) {
        events[n].d = ad[i];
        events[n].w = aw[i];
        events[n].idx = n;
        n++;
    }
    for (Py_ssize_t i = 0; i < n_tasks; i++) {
        double deadline = rel[i] + rdl[i];
        while (deadline <= fence) {
            if (n >= cap) {   /* defensive; the count above is exact */
                Py_ssize_t grown = cap * 2 + 8;
                SlackEvent *ge = PyMem_Realloc(
                    events, (size_t)grown * sizeof(SlackEvent));
                if (ge == NULL) {
                    PyErr_NoMemory();
                    goto cleanup;
                }
                events = ge;
                cap = grown;
            }
            events[n].d = deadline;
            events[n].w = wcet[i];
            events[n].idx = n;
            n++;
            deadline += per[i];
        }
    }
    qsort(events, (size_t)n, sizeof(SlackEvent), event_cmp);

    double best = INFINITY;
    double h = 0.0;
    Py_ssize_t i = 0;
    while (i < n) {
        double d_k = events[i].d;
        while (i < n && events[i].d <= d_k + 1e-12) {
            h += events[i].w;
            i++;
        }
        if (d_k >= d_first - 1e-12) {
            double g = d_k - t - h;
            if (g < best)
                best = g;
        }
    }
    /* _tail_guard: active budgets + linear future demand at the edge */
    double total = 0.0;
    for (Py_ssize_t j = 0; j < n_active; j++)
        total += aw[j];
    for (Py_ssize_t j = 0; j < n_tasks; j++) {
        double head = window_end - rel[j];
        total += util[j] * ((head > 0.0) ? head : 0.0);
        if (rdl[j] < per[j])
            total += corr[j];
    }
    double tail = window_end - t - total;
    if (tail < best)
        best = tail;
    out = PyFloat_FromDouble((best > 0.0) ? best : 0.0);
cleanup:
    PyMem_Free(ad); PyMem_Free(aw); PyMem_Free(rel); PyMem_Free(rdl);
    PyMem_Free(per); PyMem_Free(wcet); PyMem_Free(util);
    PyMem_Free(corr); PyMem_Free(events);
    return out;
}

/* heuristic_slack_walk(t, d_first, active_d, active_w, rel, util, corr)
 * -> float.  Candidates: active deadlines, d_first, releases >= d_first
 * (duplicates harmless: identical g).  Demand accumulation order is
 * actives in state order, then tasks in task order — matching the
 * interpreted loop bit for bit. */
static PyObject *
fastcore_heuristic_slack_walk(PyObject *Py_UNUSED(module), PyObject *args)
{
    double t, d_first;
    PyObject *o_ad, *o_aw, *o_rel, *o_util, *o_corr;
    if (!PyArg_ParseTuple(args, "ddOOOOO", &t, &d_first, &o_ad, &o_aw,
                          &o_rel, &o_util, &o_corr))
        return NULL;
    Py_ssize_t n_active, n_tasks, nx;
    double *ad = NULL, *aw = NULL, *rel = NULL, *util = NULL,
        *corr = NULL;
    PyObject *out = NULL;
    if ((ad = seq_as_doubles(o_ad, &n_active)) == NULL ||
        (aw = seq_as_doubles(o_aw, &nx)) == NULL ||
        (rel = seq_as_doubles(o_rel, &n_tasks)) == NULL ||
        (util = seq_as_doubles(o_util, &nx)) == NULL ||
        (corr = seq_as_doubles(o_corr, &nx)) == NULL)
        goto cleanup;

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
        if (g < best)
            best = g;
    }
    out = PyFloat_FromDouble((best > 0.0) ? best : 0.0);
cleanup:
    PyMem_Free(ad); PyMem_Free(aw); PyMem_Free(rel); PyMem_Free(util);
    PyMem_Free(corr);
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
    SlackEvent *ordered = events + n;
    stable_deadline_order(events, bounds, n_tasks + 1, lo, ordered);

    /* peak_intensity: a group is every event within 1e-12 of its first
     * deadline, evaluated when the next group opens (the final group
     * is closed by an infinite sentinel deadline). */
    double edge = window_end + 1e-9;
    double best = 0.0;
    double h = 0.0;
    double d_k = -INFINITY, group_end = -INFINITY;
    for (Py_ssize_t i = 0; i <= n; i++) {
        double d = (i < n) ? ordered[i].d : INFINITY;
        if (d > group_end) {
            double span = d_k - t;
            if (span > 1e-12 && d_k <= edge) {
                double ratio = h / span;
                if (ratio > best)
                    best = ratio;
            }
            d_k = d;
            group_end = d + 1e-12;
        }
        if (i < n)
            h += ordered[i].w;
    }
    out = PyFloat_FromDouble(best);
cleanup:
    PyMem_Free(ad); PyMem_Free(aw); PyMem_Free(k0);
    PyMem_Free(lo); PyMem_Free(hi); PyMem_Free(bounds);
    PyMem_Free(events);
    Py_XDECREF(streams);
    return out;
}

/* ------------------------------------------------------------------ */
/* module                                                              */
/* ------------------------------------------------------------------ */

static PyMethodDef fastcore_methods[] = {
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
    if (intern_names() < 0)
        return NULL;
    PyObject *m = PyModule_Create(&fastcore_module);
    if (m == NULL)
        return NULL;
    if (PyType_Ready(&CoreEngineType) < 0 ||
        PyModule_AddObjectRef(m, "CoreEngine",
                              (PyObject *)&CoreEngineType) < 0 ||
        PyModule_AddIntConstant(m, "COMPILED", 1) < 0 ||
        PyModule_AddStringConstant(m, "BACKEND", "c-extension") < 0 ||
        PyModule_AddStringConstant(m, "SOURCE_SHA256",
                                   REPRO_FASTCORE_SHA256) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
