/* C kernels for the restricted-search hot paths.
 *
 * This file implements the restricted searches of the traversal stack
 * — the parent-producing canonical BFS and its distance-only sweep,
 * and multi-pair bidirectional point queries — as plain C over the
 * same flat CSR arrays the python kernel reads (`indptr` int64,
 * `nbr`/`arc_eid` narrowed to int32).  It removes the per-arc
 * interpretation cost of the python kernel (see docs/kernels.md).
 *
 * repro_bfs is a direct port of CSRGraph.bfs / bfs_dists: a FIFO
 * search over the sorted CSR rows keeping the first discoverer as
 * parent, which is the lex-minimal canonical tree (argument in the
 * docstring of repro/core/csr.py), stopping at the target's discovery.
 *
 * The multi-pair kernels port the scalar reference
 * (CSRGraph.bidir_distance):
 *
 *  - meet-in-the-middle search growing the smaller frontier (ties to
 *    the source side), stopping at the end of the first expansion
 *    round that produces a cross-labeled vertex and returning that
 *    round's minimum dist_s + 1 + dist_t candidate — the exactness
 *    argument (first-discovery finality + completed-round minimum)
 *    never depends on the growth schedule, so distances are
 *    bit-identical to the python kernel's;
 *  - generation-stamped scratch owned by the caller: visit/ban tables
 *    are never cleared, an entry is live iff it carries the current
 *    generation, and the caller advances its counter past the
 *    generations consumed here (`gen_base + query index + 1`), so the
 *    ban-stamp semantics match the python kernel's exactly;
 *  - -1 for pairs cut by the restriction, including vertex-banned
 *    endpoints; 0 for source == target.
 *
 * The library is deliberately free of Python.h so one source serves
 * two build paths: setup.py builds it as an importable (empty) module
 * whose shared object is then opened with ctypes, and source checkouts
 * compile it on demand with the system compiler (repro/core/ckernel.py).
 */

#include <stdint.h>

#ifndef _WIN32
/* The threaded multi-pair entry point (repro_multi_pair_dists_mt)
 * partitions one batch across a pthread worker pool; Windows builds
 * fall back to running the same range loop serially. */
#include <pthread.h>
#endif

#ifdef REPRO_CKERNEL_PYMODULE
/* setup.py builds this file as the importable extension module
 * repro.core._ckernel; the module body is an empty shell — the loader
 * opens the module's shared object with ctypes and calls the exported
 * plain-C symbols below, so no CPython glue is needed per function. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

static struct PyModuleDef repro_ckernel_module = {
    PyModuleDef_HEAD_INIT,
    "_ckernel",
    "C batch kernels; symbols are consumed via ctypes "
    "(see repro.core.ckernel).",
    -1,
    NULL,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    return PyModule_Create(&repro_ckernel_module);
}
#endif /* REPRO_CKERNEL_PYMODULE */

#if defined(_MSC_VER)
#define REPRO_EXPORT __declspec(dllexport)
#else
#define REPRO_EXPORT __attribute__((visibility("default")))
#endif

/* Bumped whenever an exported signature changes; the ctypes wrapper
 * refuses a library whose ABI tag it does not recognize (stale cached
 * build of an older source). */
#define REPRO_CKERNEL_ABI 5

REPRO_EXPORT int64_t
repro_ckernel_abi(void)
{
    return REPRO_CKERNEL_ABI;
}

/* One restricted BFS from `source`: FIFO over the sorted CSR rows, the
 * first discoverer kept as parent (the canonical lex-minimal tree).
 * bans[0 .. ne) are banned edge ids and bans[ne .. ne + nv) banned
 * vertices; both are stamped with `gen` into the caller-owned eban /
 * vban tables, so a restriction costs O(|F|) and nothing is cleared.
 * dist (and parent, unless NULL, which gives the distance-only sweep)
 * are rewritten in full: -1 for every vertex the search did not
 * discover, parent[source] == source.  With 0 <= target < n the search
 * stops at the target's *discovery*, exactly like CSRGraph.bfs, so the
 * discovered set (and with it every output entry) is identical to the
 * python kernel's.  Returns the target's distance, or -1 when there is
 * no target or the restriction cuts it off.  queue holds n entries. */
REPRO_EXPORT int64_t
repro_bfs(const int64_t *indptr, const int32_t *nbr, const int32_t *arc_eid,
          int64_t n, int32_t source, int64_t target,
          int64_t ne, int64_t nv, const int32_t *bans, int64_t gen,
          int64_t *eban, int64_t *vban, int32_t *queue,
          int32_t *dist, int32_t *parent)
{
    for (int64_t i = 0; i < n; i++)
        dist[i] = -1;
    if (parent)
        for (int64_t i = 0; i < n; i++)
            parent[i] = -1;
    int have_e = ne > 0;
    int have_v = nv > 0;
    for (int64_t i = 0; i < ne; i++)
        eban[bans[i]] = gen;
    for (int64_t i = ne; i < ne + nv; i++)
        vban[bans[i]] = gen;
    if (have_v && vban[source] == gen)
        return -1;
    dist[source] = 0;
    if (parent)
        parent[source] = source;
    if (target == source)
        return 0;
    int64_t head = 0, tail = 0;
    queue[tail++] = source;
    while (head < tail) {
        int32_t u = queue[head++];
        int32_t du = dist[u] + 1;
        int64_t p_end = indptr[u + 1];
        for (int64_t p = indptr[u]; p < p_end; p++) {
            int32_t w = nbr[p];
            if (dist[w] >= 0)
                continue;
            if (have_e && eban[arc_eid[p]] == gen)
                continue;
            if (have_v && vban[w] == gen)
                continue;
            dist[w] = du;
            if (parent)
                parent[w] = u;
            if (w == target)
                return du;
            queue[tail++] = w;
        }
    }
    return -1;
}

/* One meet-in-the-middle restricted point query (see file header for
 * the exactness contract).  All scratch is caller-owned and stamped
 * with `gen`; frontier buffers hold at most n entries each because a
 * vertex enters a side's frontier at most once per search. */
static int64_t
bidir_one(const int64_t *indptr, const int32_t *nbr, const int32_t *arc_eid,
          int32_t source, int32_t target, int64_t gen,
          int have_e, int have_v,
          int64_t *visit_s, int32_t *dist_s,
          int64_t *visit_t, int32_t *dist_t,
          const int64_t *eban, const int64_t *vban,
          int32_t *fs, int32_t *fs_next, int32_t *ft, int32_t *ft_next)
{
    if (have_v && (vban[source] == gen || vban[target] == gen))
        return -1;
    if (source == target)
        return 0;
    visit_s[source] = gen;
    dist_s[source] = 0;
    visit_t[target] = gen;
    dist_t[target] = 0;
    fs[0] = source;
    ft[0] = target;
    int64_t ns = 1, nt = 1;
    int64_t best = -1;
    while (ns > 0 && nt > 0) {
        /* Grow the cheaper side; ties expand the source ball, matching
         * the scalar kernel (any schedule is exact regardless). */
        int expand_s = ns <= nt;
        int32_t *fr = expand_s ? fs : ft;
        int64_t cnt = expand_s ? ns : nt;
        int32_t *nx = expand_s ? fs_next : ft_next;
        int64_t *visit_a = expand_s ? visit_s : visit_t;
        int32_t *dist_a = expand_s ? dist_s : dist_t;
        int64_t *visit_b = expand_s ? visit_t : visit_s;
        int32_t *dist_b = expand_s ? dist_t : dist_s;
        int32_t depth = dist_a[fr[0]] + 1;
        int64_t nn = 0;
        for (int64_t i = 0; i < cnt; i++) {
            int32_t u = fr[i];
            int64_t p_end = indptr[u + 1];
            for (int64_t p = indptr[u]; p < p_end; p++) {
                int32_t w = nbr[p];
                if (visit_a[w] == gen)
                    continue;
                if (have_e && eban[arc_eid[p]] == gen)
                    continue;
                if (have_v && vban[w] == gen)
                    continue;
                visit_a[w] = gen;
                dist_a[w] = depth;
                if (visit_b[w] == gen) {
                    /* Cross-label contact: candidate checked only at
                     * first discovery (depth + other-side distance is
                     * parent-independent). */
                    int64_t cand = (int64_t)depth + (int64_t)dist_b[w];
                    if (best < 0 || cand < best)
                        best = cand;
                } else {
                    nx[nn++] = w;
                }
            }
        }
        if (best >= 0)
            return best;
        if (expand_s) {
            int32_t *tmp = fs;
            fs = nx;
            fs_next = tmp;
            ns = nn;
        } else {
            int32_t *tmp = ft;
            ft = nx;
            ft_next = tmp;
            nt = nn;
        }
    }
    return -1;
}

/* The shared strided loop behind both multi-pair entry points:
 * queries q_start, q_start + q_step, ... below nq, each stamping its
 * bans at generation gen_base + q + 1 into the caller-supplied
 * scratch.  The generation is a function of the *global* query index,
 * not the stride, so a batch interleaved across threads with disjoint
 * scratch stamps exactly the generations the serial loop would —
 * results are bit-identical for any (start, step) partition.  The
 * interleaving (vs the old contiguous range split) is what keeps a
 * skewed batch from idling cores: expensive queries cluster (one
 * fault-set group's probes arrive adjacent), and a round-robin deal
 * spreads each cluster across every thread. */
static void
pair_range(const int64_t *indptr, const int32_t *nbr,
           const int32_t *arc_eid, int64_t nq,
           const int32_t *q_src, const int32_t *q_tgt,
           const int64_t *eb_off, const int32_t *eb_ids,
           const int64_t *vb_off, const int32_t *vb_ids,
           int64_t gen_base, int64_t q_start, int64_t q_step,
           int64_t *visit_s, int32_t *dist_s,
           int64_t *visit_t, int32_t *dist_t,
           int64_t *eban, int64_t *vban,
           int32_t *fs, int32_t *fs_next,
           int32_t *ft, int32_t *ft_next,
           int32_t *out)
{
    for (int64_t q = q_start; q < nq; q += q_step) {
        int64_t gen = gen_base + q + 1;
        int have_e = 0, have_v = 0;
        for (int64_t i = eb_off[q]; i < eb_off[q + 1]; i++) {
            eban[eb_ids[i]] = gen;
            have_e = 1;
        }
        for (int64_t i = vb_off[q]; i < vb_off[q + 1]; i++) {
            vban[vb_ids[i]] = gen;
            have_v = 1;
        }
        out[q] = (int32_t)bidir_one(indptr, nbr, arc_eid, q_src[q], q_tgt[q],
                                    gen, have_e, have_v, visit_s, dist_s,
                                    visit_t, dist_t, eban, vban, fs, fs_next,
                                    ft, ft_next);
    }
}

/* Many independent restricted point queries, each with its own
 * restriction.  Per-query bans arrive concatenated with offset tables
 * (eb_ids[eb_off[q] .. eb_off[q+1]) are query q's banned edge ids,
 * likewise vb_*); query q runs under generation gen_base + q + 1.
 * out[q] is the exact hop distance or -1. */
REPRO_EXPORT void
repro_multi_pair_dists(const int64_t *indptr, const int32_t *nbr,
                       const int32_t *arc_eid, int64_t nq,
                       const int32_t *q_src, const int32_t *q_tgt,
                       const int64_t *eb_off, const int32_t *eb_ids,
                       const int64_t *vb_off, const int32_t *vb_ids,
                       int64_t gen_base,
                       int64_t *visit_s, int32_t *dist_s,
                       int64_t *visit_t, int32_t *dist_t,
                       int64_t *eban, int64_t *vban,
                       int32_t *fs, int32_t *fs_next,
                       int32_t *ft, int32_t *ft_next,
                       int32_t *out)
{
    pair_range(indptr, nbr, arc_eid, nq, q_src, q_tgt, eb_off, eb_ids,
               vb_off, vb_ids, gen_base, 0, 1, visit_s, dist_s, visit_t,
               dist_t, eban, vban, fs, fs_next, ft, ft_next, out);
}

/* One thread's interleaved share of a threaded multi-pair batch: its
 * (start, step) stride plus pointers to that thread's private scratch
 * slabs. */
typedef struct {
    const int64_t *indptr;
    const int32_t *nbr;
    const int32_t *arc_eid;
    int64_t nq;
    const int32_t *q_src;
    const int32_t *q_tgt;
    const int64_t *eb_off;
    const int32_t *eb_ids;
    const int64_t *vb_off;
    const int32_t *vb_ids;
    int64_t gen_base;
    int64_t q_start;
    int64_t q_step;
    int64_t *visit_s;
    int32_t *dist_s;
    int64_t *visit_t;
    int32_t *dist_t;
    int64_t *eban;
    int64_t *vban;
    int32_t *fr; /* 4 frontier buffers of n entries each */
    int64_t n;
    int32_t *out;
} pair_job;

static void
pair_job_run(pair_job *j)
{
    pair_range(j->indptr, j->nbr, j->arc_eid, j->nq, j->q_src, j->q_tgt,
               j->eb_off, j->eb_ids, j->vb_off, j->vb_ids, j->gen_base,
               j->q_start, j->q_step, j->visit_s, j->dist_s, j->visit_t,
               j->dist_t, j->eban, j->vban, j->fr, j->fr + j->n,
               j->fr + 2 * j->n, j->fr + 3 * j->n, j->out);
}

#ifndef _WIN32
static void *
pair_job_thread(void *arg)
{
    pair_job_run((pair_job *)arg);
    return NULL;
}
#endif

/* Threaded variant of repro_multi_pair_dists: thread t serves the
 * interleaved queries t, t + nthreads, t + 2*nthreads, ... against its
 * own scratch slabs (slab t starts at offset t*n — or t*m for eban,
 * t*4*n for the frontier block; m is the caller's per-thread eban
 * stride, its edge-id address bound).  The round-robin deal replaces
 * the old contiguous range split, which left cores idle on skewed
 * batches where expensive queries cluster.  Queries never share
 * scratch, each writes only out[q], and generations are a function of
 * the global query index (see pair_range), so results are
 * bit-identical to the serial entry point for any thread count.  The
 * caller holds no lock during the call (ctypes releases the GIL); it
 * only promises the scratch slabs are not used concurrently by
 * anything else.  Thread-creation failure degrades that stride to
 * inline execution — slower, never wrong. */
REPRO_EXPORT void
repro_multi_pair_dists_mt(const int64_t *indptr, const int32_t *nbr,
                          const int32_t *arc_eid, int64_t nq,
                          const int32_t *q_src, const int32_t *q_tgt,
                          const int64_t *eb_off, const int32_t *eb_ids,
                          const int64_t *vb_off, const int32_t *vb_ids,
                          int64_t gen_base, int64_t nthreads,
                          int64_t n, int64_t m,
                          int64_t *visit_s, int32_t *dist_s,
                          int64_t *visit_t, int32_t *dist_t,
                          int64_t *eban, int64_t *vban,
                          int32_t *frontiers,
                          int32_t *out)
{
    enum { MT_MAX_THREADS = 64 };
    if (nthreads > nq)
        nthreads = nq;
    if (nthreads > MT_MAX_THREADS)
        nthreads = MT_MAX_THREADS;
    if (nthreads < 1)
        nthreads = 1;
    pair_job jobs[MT_MAX_THREADS];
    for (int64_t t = 0; t < nthreads; t++) {
        pair_job *j = &jobs[t];
        j->indptr = indptr;
        j->nbr = nbr;
        j->arc_eid = arc_eid;
        j->nq = nq;
        j->q_src = q_src;
        j->q_tgt = q_tgt;
        j->eb_off = eb_off;
        j->eb_ids = eb_ids;
        j->vb_off = vb_off;
        j->vb_ids = vb_ids;
        j->gen_base = gen_base;
        j->q_start = t;
        j->q_step = nthreads;
        j->visit_s = visit_s + t * n;
        j->dist_s = dist_s + t * n;
        j->visit_t = visit_t + t * n;
        j->dist_t = dist_t + t * n;
        j->eban = eban + t * m;
        j->vban = vban + t * n;
        j->fr = frontiers + t * 4 * n;
        j->n = n;
        j->out = out;
    }
#ifndef _WIN32
    pthread_t tids[MT_MAX_THREADS];
    int started[MT_MAX_THREADS];
    /* Slice 0 runs on the calling thread; failed spawns run inline
     * afterwards (correctness never depends on parallelism). */
    for (int64_t t = 1; t < nthreads; t++)
        started[t] = pthread_create(&tids[t], NULL, pair_job_thread,
                                    &jobs[t]) == 0;
    pair_job_run(&jobs[0]);
    for (int64_t t = 1; t < nthreads; t++) {
        if (started[t])
            pthread_join(tids[t], NULL);
        else
            pair_job_run(&jobs[t]);
    }
#else
    for (int64_t t = 0; t < nthreads; t++)
        pair_job_run(&jobs[t]);
#endif
}
