/* C kernels for the restricted-search hot paths.
 *
 * This file implements the restricted searches of the traversal stack
 * — the parent-producing canonical BFS and its distance-only sweep,
 * the one-pair bidirectional point query and its multi-pair batch —
 * as plain C over the same flat CSR arrays the python kernel reads
 * (`indptr` int64, `nbr`/`arc_eid` narrowed to int32).  It removes the
 * per-arc interpretation cost of the python kernel (see
 * docs/kernels.md).
 *
 * repro_bfs is a direct port of CSRGraph.bfs / bfs_dists: a FIFO
 * search over the sorted CSR rows keeping the first discoverer as
 * parent, which is the lex-minimal canonical tree (argument in the
 * docstring of repro/core/csr.py), stopping at the target's discovery.
 *
 * repro_point and repro_multi_pair_dists port the scalar reference
 * (CSRGraph.bidir_distance) through one shared search, bidir_one:
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
#define REPRO_CKERNEL_ABI 7

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

/* The arguments of repro_point that never change for one snapshot: the
 * CSR topology and the pair scratch.  The caller fills it once per
 * kernel, so a one-pair query passes one pointer instead of thirteen
 * (ctypes converts every argument on every call). */
typedef struct {
    const int64_t *indptr;
    const int32_t *nbr;
    const int32_t *arc_eid;
    int64_t *visit_s;
    int32_t *dist_s;
    int64_t *visit_t;
    int32_t *dist_t;
    int64_t *eban;
    int64_t *vban;
    int32_t *fs;
    int32_t *fs_next;
    int32_t *ft;
    int32_t *ft_next;
} point_ctx;

/* One restricted point query: bans[0 .. ne) are banned edge ids and
 * bans[ne .. ne + nv) banned vertices, stamped with `gen` like
 * repro_bfs's.  Returns the exact hop distance, -1 when the
 * restriction cuts the pair (a banned endpoint included), 0 for
 * source == target. */
REPRO_EXPORT int64_t
repro_point(const point_ctx *c, int32_t source, int32_t target,
            int64_t ne, int64_t nv, const int32_t *bans, int64_t gen)
{
    for (int64_t i = 0; i < ne; i++)
        c->eban[bans[i]] = gen;
    for (int64_t i = ne; i < ne + nv; i++)
        c->vban[bans[i]] = gen;
    return bidir_one(c->indptr, c->nbr, c->arc_eid, source, target, gen,
                     ne > 0, nv > 0, c->visit_s, c->dist_s, c->visit_t,
                     c->dist_t, c->eban, c->vban, c->fs, c->fs_next, c->ft,
                     c->ft_next);
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
    for (int64_t q = 0; q < nq; q++) {
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
