"""Loader + ctypes wrapper for the compiled C kernel (``_ckernel.c``).

The upper rung of the two-rung kernel ladder (python CSR kernel → C;
see ``docs/kernels.md``): the restricted canonical search and its
distance-only sweep (:meth:`CKernel.bfs`, behind ``CSRGraph.bfs`` /
``bfs_dists``), the one-pair point query (:meth:`CKernel.point`,
behind ``CSRGraph.bidir_distance`` once the snapshot holds a kernel)
and the batch hot path of the point-query pipeline
(:meth:`CKernel.multi_pair_dists`, behind
``CSRGraph.multi_pair_dists``), implemented in plain C over the same
flat CSR arrays the python kernel reads.  The C tier removes the
python kernel's per-arc interpretation cost.  Results are
bit-identical to the python kernel (same FIFO first-discoverer order,
same exactness argument, same ban-stamp semantics, same ``-1``
conventions); the only thing that changes is the wall clock.  The
wrapper needs nothing beyond the standard library: buffers are
:mod:`array` objects handed to C as ctypes pointers.

**Loading.**  ``_ckernel.c`` carries no CPython dependency, so one
source serves two build paths, tried in order by :func:`load_c_library`:

1. the extension module ``repro.core._ckernel`` built by ``setup.py``
   (its shared object is opened with :mod:`ctypes` — the module itself
   is an empty shell that exists so setuptools builds and ships it);
2. an on-demand build for source checkouts: the bundled C file is
   compiled once with the system compiler into a content-addressed
   cache (``~/.cache/repro-parter15`` or ``REPRO_C_KERNEL_CACHE``) and
   reused across processes.

Both paths failing is not an error: the load outcome is memoized and
the python kernel keeps serving every query, so pure-python installs
and compiler-less hosts are unaffected (guaranteed by the
fallback tests in ``tests/test_query_batch.py``).

Environment knobs (see ``docs/tuning.md``):

``REPRO_C_KERNEL``
    ``auto`` (default) uses the C kernel whenever it loads, silently
    degrading otherwise; ``on`` makes load failures raise instead of
    degrade (CI's tier guard); ``off`` never touches it.  The library
    loads on the first search, never at import.
``REPRO_C_KERNEL_CC``
    Compiler for the on-demand build (default: ``$CC``, then the
    interpreter's configured compiler, then ``cc``).
``REPRO_C_KERNEL_CACHE``
    Directory for on-demand build artifacts (default:
    ``~/.cache/repro-parter15``, falling back to the temp dir).
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import os
import pathlib
import subprocess
import sys
import sysconfig
import tempfile
from array import array
from typing import List, Optional, Sequence, Tuple

from repro.core.errors import GraphError

#: ABI tag the wrapper expects; must match the ABI macro in
#: ``_ckernel.c`` (a mismatched cached build is rejected and rebuilt).
ABI = 7

_P64 = ctypes.POINTER(ctypes.c_int64)
_P32 = ctypes.POINTER(ctypes.c_int32)


class _PointCtx(ctypes.Structure):
    """``point_ctx`` in ``_ckernel.c``: what :meth:`CKernel.point` never changes."""

    _fields_ = [
        ("indptr", _P64),
        ("nbr", _P32),
        ("arc_eid", _P32),
        ("visit_s", _P64),
        ("dist_s", _P32),
        ("visit_t", _P64),
        ("dist_t", _P32),
        ("eban", _P64),
        ("vban", _P64),
        ("fs", _P32),
        ("fs_next", _P32),
        ("ft", _P32),
        ("ft_next", _P32),
    ]

#: Memoized load outcome: ``None`` until the first attempt, then
#: ``(library or None, detail string)``.  Tests simulate a broken or
#: missing extension by monkeypatching this.
_load_state: Optional[Tuple[Optional[ctypes.CDLL], str]] = None


def c_kernel_mode() -> str:
    """The ``REPRO_C_KERNEL`` dispatch mode: ``auto`` / ``on`` / ``off``.

    Unknown values fall back to ``auto`` (the safe default: use the C
    kernel when it loads, degrade silently when it does not).
    """
    mode = os.environ.get("REPRO_C_KERNEL", "auto").strip().lower()
    return mode if mode in ("auto", "on", "off") else "auto"


def _source_path() -> pathlib.Path:
    return pathlib.Path(__file__).with_name("_ckernel.c")


def _compiler() -> str:
    cc = os.environ.get("REPRO_C_KERNEL_CC") or os.environ.get("CC")
    if cc:
        return cc
    cc = sysconfig.get_config_var("CC")
    if cc:
        return cc.split()[0]  # the compiler, without its configured flags
    return "cc"


def _cache_dir() -> pathlib.Path:
    override = os.environ.get("REPRO_C_KERNEL_CACHE")
    if override:
        return pathlib.Path(override)
    base = os.environ.get("XDG_CACHE_HOME")
    if not base:
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return pathlib.Path(base) / "repro-parter15"


def _configure(lib: ctypes.CDLL) -> Tuple[Optional[ctypes.CDLL], str]:
    """Check the ABI tag and declare argtypes; rejects stale builds."""
    try:
        lib.repro_ckernel_abi.restype = ctypes.c_int64
        abi = int(lib.repro_ckernel_abi())
    except AttributeError:
        return None, "library lacks the repro_ckernel_abi symbol"
    if abi != ABI:
        return None, f"library ABI {abi} != expected {ABI} (stale build)"
    c64 = ctypes.c_int64
    c32 = ctypes.c_int32
    lib.repro_bfs.restype = c64
    lib.repro_bfs.argtypes = [
        _P64, _P32, _P32,  # indptr, nbr, arc_eid
        c64, c32, c64,  # n, source, target (-1 = none)
        c64, c64, _P32,  # ne, nv, bans (edge ids then vertices)
        c64,  # gen
        _P64, _P64, _P32,  # eban, vban, queue
        _P32, _P32,  # dist, parent (NULL = distances only)
    ]
    lib.repro_point.restype = c64
    lib.repro_point.argtypes = [
        ctypes.POINTER(_PointCtx),
        c32, c32,  # source, target
        c64, c64, _P32,  # ne, nv, bans (edge ids then vertices)
        c64,  # gen
    ]
    lib.repro_multi_pair_dists.restype = None
    lib.repro_multi_pair_dists.argtypes = [
        _P64, _P32, _P32,  # indptr, nbr, arc_eid
        c64, _P32, _P32,  # nq, q_src, q_tgt
        _P64, _P32, _P64, _P32,  # eb_off, eb_ids, vb_off, vb_ids
        c64,  # gen_base
        _P64, _P32, _P64, _P32,  # visit_s, dist_s, visit_t, dist_t
        _P64, _P64,  # eban, vban
        _P32, _P32, _P32, _P32,  # four frontier buffers
        _P32,  # out
    ]
    return lib, "ok"


def _open(path: os.PathLike) -> Tuple[Optional[ctypes.CDLL], str]:
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as err:
        return None, f"could not load {path}: {err}"
    return _configure(lib)


def _find_prebuilt() -> Optional[str]:
    """The shared object of the setup.py-built extension, if installed."""
    try:
        spec = importlib.util.find_spec("repro.core._ckernel")
    except (ImportError, ValueError):
        return None
    if spec is None or not spec.origin:
        return None
    if not spec.origin.endswith((".so", ".dylib", ".pyd", ".dll")):
        return None
    return spec.origin


#: Compile failures memoized per content tag: a process pool routinely
#: retries the load (workers, benchmark arms flipping REPRO_C_KERNEL),
#: and re-running a compiler that already failed on identical input
#: would pay the failure once per retry instead of once per process.
_build_failures: dict = {}


def _build_on_demand() -> Tuple[Optional[ctypes.CDLL], str]:
    """Compile the bundled C source into the cache dir and load it.

    Concurrency-safe by construction: each builder writes a private
    pid-tagged temp file and installs it with an atomic
    :func:`os.replace`, so two processes (routine under the
    :mod:`repro.core.parallel` pool) racing on the same
    content-addressed path both end up loading a complete build —
    never a partially written one.  Compile failures are memoized per
    content tag; install failures fall through to the next cache base.
    """
    src = _source_path()
    if not src.is_file():
        return None, "bundled C source _ckernel.c is missing"
    if sys.platform == "win32":
        return None, (
            "on-demand builds are not supported on Windows; install the "
            "package so setup.py builds the extension"
        )
    cc = _compiler()
    source = src.read_bytes()
    tag = hashlib.sha256(
        b"\x00".join((source, cc.encode(), sys.platform.encode()))
    ).hexdigest()[:16]
    last_detail = "no writable cache directory for the on-demand build"
    for base in (_cache_dir(), pathlib.Path(tempfile.gettempdir()) / "repro-parter15"):
        try:
            base.mkdir(parents=True, exist_ok=True)
        except OSError:
            continue
        cached = base / f"_ckernel-{tag}.so"
        if cached.is_file():
            lib, detail = _open(cached)
            if lib is not None:
                return lib, f"on-demand build {cached} (cached)"
            last_detail = detail
            continue
        if tag in _build_failures:
            return None, _build_failures[tag]
        tmp = base / f"_ckernel-{tag}.{os.getpid()}.tmp.so"
        cmd = [
            *cc.split(), "-O2", "-shared", "-fPIC", "-o", str(tmp), str(src),
        ]
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=180
            )
        except (OSError, subprocess.TimeoutExpired) as err:
            detail = f"C kernel build failed ({cc!r}): {err}"
            _build_failures[tag] = detail
            return None, detail
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout or "").strip()
            detail = f"C kernel build failed ({' '.join(cmd)}): {detail[:400]}"
            _build_failures[tag] = detail
            tmp.unlink(missing_ok=True)
            return None, detail
        try:
            os.replace(tmp, cached)  # atomic vs concurrent builders
        except OSError as err:
            tmp.unlink(missing_ok=True)
            last_detail = f"could not install built kernel: {err}"
            continue
        lib, detail = _open(cached)
        if lib is not None:
            return lib, f"on-demand build {cached}"
        return lib, detail
    return None, last_detail


def _load_uncached() -> Tuple[Optional[ctypes.CDLL], str]:
    prebuilt = _find_prebuilt()
    if prebuilt is not None:
        lib, detail = _open(prebuilt)
        if lib is not None:
            return lib, f"prebuilt extension {prebuilt}"
        # fall through: a broken installed build should not poison
        # source checkouts that can compile on demand
    return _build_on_demand()


def load_c_library() -> Tuple[Optional[ctypes.CDLL], str]:
    """The loaded C kernel library (or ``None``) plus a detail string.

    The first call attempts the prebuilt extension, then the on-demand
    build; the outcome — success or the failure reason — is memoized
    for the life of the process, so compiler-less hosts pay the probe
    exactly once.
    """
    global _load_state
    if _load_state is None:
        _load_state = _load_uncached()
    return _load_state


def c_kernel_status() -> Tuple[bool, str]:
    """``(available, detail)`` — triggers the (memoized) load attempt."""
    lib, detail = load_c_library()
    return lib is not None, detail


def c_kernel_available() -> bool:
    """True iff the dispatch mode allows the C kernel and it loads."""
    if c_kernel_mode() == "off":
        return False
    return c_kernel_status()[0]


def _ptr(buf: array, ptype):
    """A typed ctypes pointer to ``buf``'s storage (kept alive by the caller)."""
    return ctypes.cast(buf.buffer_info()[0], ptype)


def _int64_copy(values) -> array:
    """An ``array('q')`` copy of an int64 buffer, made by one memcpy.

    ``values`` is an ``array('q')`` or a cast :class:`memoryview` (an
    adopted artifact snapshot's mmap-backed section); either way the
    copy owns its memory, so no view pins the mapping.
    """
    out = array("q")
    out.frombytes(memoryview(values).cast("B"))
    return out


def _ids(values: List[int], bound: int, what: str) -> array:
    """``values`` as a C id array, after checking each lies in ``[0, bound)``.

    The C side indexes its scratch tables with these ids unchecked, so
    an out-of-range id must be rejected here, never passed on.  The
    check runs on python ints, before narrowing, so an id too wide for
    int32 raises :class:`GraphError` too, never ``OverflowError``.
    """
    if values and (min(values) < 0 or max(values) >= bound):
        raise GraphError(f"{what} outside [0, {bound})")
    return array("i", values)


def _filled(code: str, value: int, count: int) -> array:
    """A fresh ``count``-item array of ``value`` (one memcpy-based repeat)."""
    return array(code, [value]) * count


class CKernel:
    """Per-snapshot scratch + entry points for the compiled C kernels.

    Owned by a CSR snapshot (:meth:`repro.core.csr.CSRGraph.c_kernel`).
    The flat topology is copied once into :mod:`array` buffers, the
    stamped visit/ban tables are allocated once and recycled with the
    same generation discipline as the python kernel — the C side never
    clears anything, it only compares stamps against the generation the
    wrapper hands it and the wrapper advances its counter past every
    generation consumed.  The ctypes pointers of every persistent
    buffer are built once as well: a pointer cast per call costs more
    than a small search.
    """

    __slots__ = (
        "_lib",
        "n",
        "m",
        "_indptr",
        "_nbr",
        "_arc_eid",
        "_visit_s",
        "_dist_s",
        "_visit_t",
        "_dist_t",
        "_eban",
        "_vban",
        "_fr",
        "_queue",
        "_dist",
        "_parent",
        "_bans",
        "_gen",
        "_p_topo",
        "_p_pair",
        "_p_bfs",
        "_p_dist",
        "_p_parent",
        "_p_point",
    )

    def __init__(
        self,
        lib: ctypes.CDLL,
        n: int,
        m: int,
        indptr,
        nbr,
        arc_eid,
    ) -> None:
        self._lib = lib
        self.n = n
        self.m = max(m, 1)
        # Copies, never views: an adopted (artifact) snapshot's flat
        # arrays are mmap-backed memoryviews, and a view kept here would
        # pin the mapping (Artifact.close() would then raise BufferError).
        self._indptr = _int64_copy(indptr)
        # The CSR ids all lie in [0, 2**31), so narrowing is exact.
        self._nbr = array("i", nbr)
        self._arc_eid = array("i", arc_eid)
        # Stamped scratch (python-kernel pooling invariants 1-3 apply):
        # generations start at 1, every table starts below any stamp.
        size = max(n, 1)
        self._visit_s = _filled("q", -1, size)
        self._dist_s = _filled("i", 0, size)
        self._visit_t = _filled("q", -1, size)
        self._dist_t = _filled("i", 0, size)
        self._eban = _filled("q", -1, self.m)
        self._vban = _filled("q", -1, size)
        self._fr = [_filled("i", 0, size) for _ in range(4)]
        self._queue = _filled("i", 0, size)
        # repro_bfs outputs, rewritten in full by every search.
        self._dist = _filled("i", 0, n)
        self._parent = _filled("i", 0, n)
        self._bans = (ctypes.c_int32 * 8)()
        self._gen = 0
        self._p_topo = (
            _ptr(self._indptr, _P64),
            _ptr(self._nbr, _P32),
            _ptr(self._arc_eid, _P32),
        )
        self._p_pair = (
            _ptr(self._visit_s, _P64),
            _ptr(self._dist_s, _P32),
            _ptr(self._visit_t, _P64),
            _ptr(self._dist_t, _P32),
            _ptr(self._eban, _P64),
            _ptr(self._vban, _P64),
            *(_ptr(fr, _P32) for fr in self._fr),
        )
        self._p_bfs = (
            _ptr(self._eban, _P64),
            _ptr(self._vban, _P64),
            _ptr(self._queue, _P32),
        )
        self._p_dist = _ptr(self._dist, _P32)
        self._p_parent = _ptr(self._parent, _P32)
        # The pointer keeps its struct alive; the struct's pointers are
        # the buffers above, which live as long as this kernel.
        self._p_point = ctypes.pointer(_PointCtx(*self._p_topo, *self._p_pair))

    # ------------------------------------------------------------------
    # restricted canonical search
    # ------------------------------------------------------------------
    def bfs(
        self,
        source: int,
        target: Optional[int],
        eids: Sequence[int],
        verts: Sequence[int],
        parents: bool = True,
    ) -> int:
        """One restricted canonical BFS (``repro_bfs`` in ``_ckernel.c``).

        The C execution of :meth:`repro.core.csr.CSRGraph.bfs` (and,
        with ``parents=False``, of its distance-only sweep
        ``bfs_dists``) under the restriction ``eids`` (resolved banned
        edge ids) / ``verts`` (banned vertices).  With a target the
        search stops at the target's discovery.  The result stays
        readable through :meth:`distances` / :meth:`parents` /
        :meth:`distance` until the next search on this kernel.
        Returns the hop distance to ``target`` (``-1`` when there is no
        target or the restriction cuts it off).
        """
        n = self.n
        if not 0 <= source < n:
            raise GraphError(f"source {source} outside [0, {n})")
        bans = self._fill_bans(eids, verts)
        ne = len(eids)
        gen = self._gen + 1
        self._gen = gen
        if target is None or not 0 <= target < n:
            target = -1  # never discovered: the search runs to exhaustion
        return self._lib.repro_bfs(
            *self._p_topo,
            n,
            source,
            target,
            ne,
            len(verts),
            bans,
            gen,
            *self._p_bfs,
            self._p_dist,
            self._p_parent if parents else None,
        )

    def _fill_bans(self, eids: Sequence[int], verts: Sequence[int]):
        """Copy a restriction into the reused ``bans`` buffer, edge ids
        first, after range-checking every id as a Python int."""
        n = self.n
        m = self.m
        k = len(eids) + len(verts)
        bans = self._bans
        if k > len(bans):
            bans = self._bans = (ctypes.c_int32 * (2 * k))()
        i = 0
        for e in eids:
            if not 0 <= e < m:
                raise GraphError(f"banned edge id {e} outside [0, {m})")
            bans[i] = e
            i += 1
        for v in verts:
            if not 0 <= v < n:
                raise GraphError(f"banned vertex {v} outside [0, {n})")
            bans[i] = v
            i += 1
        return bans

    def point(
        self,
        source: int,
        target: int,
        eids: Sequence[int],
        verts: Sequence[int],
    ) -> int:
        """One restricted point query (``repro_point`` in ``_ckernel.c``).

        The C execution of :meth:`repro.core.csr.CSRGraph.bidir_distance`
        under the restriction ``eids`` (resolved banned edge ids) /
        ``verts`` (banned vertices): the same meet-in-the-middle search
        as one query of :meth:`multi_pair_dists`, without the batch
        marshalling.  Returns the exact hop distance, ``-1`` when the
        restriction cuts the pair or bans an endpoint.
        """
        n = self.n
        if not 0 <= source < n:
            raise GraphError(f"query source {source} outside [0, {n})")
        if not 0 <= target < n:
            raise GraphError(f"query target {target} outside [0, {n})")
        bans = self._fill_bans(eids, verts)
        gen = self._gen + 1
        self._gen = gen
        return self._lib.repro_point(
            self._p_point, source, target, len(eids), len(verts), bans, gen
        )

    def distances(self) -> List[int]:
        """The last :meth:`bfs`'s distance vector (``-1`` = unreached)."""
        return self._dist.tolist()

    def parents(self) -> array:
        """The last :meth:`bfs`'s parents (``-1`` = unreached).

        A compact ``array('i')`` copy (one memcpy): a list would
        allocate an int object for every parent id above 256.
        """
        return self._parent[:]

    def distance(self, v: int) -> int:
        """Distance of ``v`` in the last :meth:`bfs` (``-1`` if unreached)."""
        return self._dist[v]

    # ------------------------------------------------------------------
    # batch point queries
    # ------------------------------------------------------------------
    def multi_pair_dists(
        self,
        queries: Sequence[Tuple[int, int, Sequence[int], Sequence[int]]],
    ) -> List[int]:
        """Exact hops for many independent restricted point queries.

        ``(source, target, banned_edge_ids, banned_vertices)`` per
        query, ``-1`` where the restriction cuts the pair — the C
        execution of :meth:`repro.core.csr.CSRGraph.multi_pair_dists`.
        The whole batch is one C call (``repro_multi_pair_dists``): the
        per-query fixed cost is a function call.
        """
        nq = len(queries)
        if nq == 0:
            return []
        q_src: List[int] = []
        q_tgt: List[int] = []
        eb_off: List[int] = [0]
        vb_off: List[int] = [0]
        eb_ids: List[int] = []
        vb_ids: List[int] = []
        for source, target, eids, verts in queries:
            q_src.append(source)
            q_tgt.append(target)
            eb_ids.extend(eids)
            vb_ids.extend(verts)
            eb_off.append(len(eb_ids))
            vb_off.append(len(vb_ids))
        n = self.n
        bufs = (
            (_ids(q_src, n, "query source"), _P32),
            (_ids(q_tgt, n, "query target"), _P32),
            (array("q", eb_off), _P64),
            (_ids(eb_ids, self.m, "banned edge id"), _P32),
            (array("q", vb_off), _P64),
            (_ids(vb_ids, n, "banned vertex"), _P32),
        )
        batch = (nq, *(_ptr(buf, ptype) for buf, ptype in bufs))
        out = _filled("i", 0, nq)
        gen_base = self._gen
        self._gen = gen_base + nq
        self._lib.repro_multi_pair_dists(
            *self._p_topo, *batch, gen_base, *self._p_pair, _ptr(out, _P32)
        )
        return out.tolist()
