"""Persistent oracle artifacts: build once, ``mmap`` everywhere.

Every builder run so far recomputed its FT-BFS structure from scratch
and threw it away at process exit — the opposite of the paper's
economics, where the *construction* is the expensive precomputation
and queries are the cheap, hot path.  This module closes that gap with
a versioned, content-addressed, flat-array **artifact** file:

* **Layout.**  An 8-byte magic, an 8-byte little-endian header length,
  a small JSON header, then 64-byte-aligned raw ``int64`` array
  sections.  The header records format/ABI versions, the byte order,
  a SHA-256 of the whole payload region, the structure metadata
  (``n``, sources, fault budget, builder name, JSON-able stats) and an
  offset/count table for every array section.

* **Arrays.**  The host graph's sorted edge list, the structure edge
  ids (indices into that list), the CSR snapshot of ``H``
  (``indptr``/``nbr``/``arc_eid``, exactly the flat vectors
  :class:`~repro.core.csr.CSRGraph` runs on) and the per-source
  canonical base-tree label arrays (distance + parent per source).
  Everything the query path needs is already flat in memory at build
  time; the artifact is those arrays written down.

* **Loading.**  :class:`Artifact` maps the file with
  ``mmap.ACCESS_COPY`` (demand-paged, copy-on-write — kernel pages are
  shared until written, and the buffers stay writable for downstream
  consumers) and *adopts* the stored arrays instead of recomputing
  them: :meth:`CSRGraph.adopt <repro.core.csr.CSRGraph.adopt>` wraps
  the mapped sections directly and :meth:`Artifact.oracle` preseeds
  the process-wide snapshot cache with the stored base-tree labels, so
  fault-free queries on a freshly loaded artifact run zero traversals.
  Experiment E17 (``benchmarks/bench_e17_serve.py``) measures the
  resulting cold-load-vs-rebuild gap.

* **Validation.**  Magic, format version, ABI version, byte order and
  the content hash are all checked on open and raise a loud
  :class:`~repro.core.errors.GraphError` on mismatch — a stale or
  corrupt artifact must never serve silently wrong distances.
  :func:`load_or_build` is the graceful path: try the artifact, and on
  *any* validation failure rebuild from source and re-save (falling
  back to an unlinked temp file when the target location is
  read-only).  ``REPRO_ARTIFACT_VERIFY=0`` skips only the (linear-time)
  checksum for trusted local files; the structural checks always run.

Format spec and operational guidance live in ``docs/serving.md``.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import sys
import tempfile
from array import array
from pathlib import Path as FsPath
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.canonical import SearchResult
from repro.core.csr import CSRGraph, csr_of
from repro.core.errors import GraphError
from repro.core.graph import Graph
from repro.core.io import _jsonable_stats, resolve_in, resolve_out
from repro.core.snapshot_cache import shared_cache
from repro.ftbfs.structures import FTStructure, make_structure

PathLike = Union[str, FsPath]

#: First 8 bytes of every artifact file.
MAGIC = b"RPROART\n"
#: Bumped on any change to the container layout (header framing,
#: alignment, hashing).  Readers refuse other values.
FORMAT_VERSION = 1
#: Bumped on any change to the *array set* or their encodings (what
#: sections exist, what their ints mean).  Readers refuse other values.
#: v2: ``edge_weight`` section added (per-edge float64 weights aligned
#: with ``graph_edges``; all-ones for unweighted hosts).
ABI_VERSION = 2
#: Array sections, in file order.  Part of the ABI.
ARRAY_NAMES = (
    "graph_edges",  # 2m ints: sorted host-graph edge list, flattened
    "edge_weight",  # m float64: weight per graph_edges pair (1.0 = unit)
    "structure_eids",  # |H| ints: sorted indices into graph_edges pairs
    "h_indptr",  # n+1 ints: CSR row pointers of H
    "h_nbr",  # 2|H| ints: CSR neighbor vector of H
    "h_arc_eid",  # 2|H| ints: CSR arc -> H-local edge id
    "label_dist",  # sigma*n ints: per-source base-tree distances (-1 = unreached)
    "label_parent",  # sigma*n ints: per-source canonical parents (-1 = unreached)
)
#: Element typecode per section (``array``/``memoryview`` codes);
#: everything is 8 bytes wide, so the offset math is uniform.
ARRAY_TYPECODES = {"edge_weight": "d"}
#: Array sections start on this boundary (cache-line friendly, and
#: safely over-aligned for int64 memoryview casts).
ALIGN = 64

_HEAD = struct.Struct("<Q")


def _verify_default() -> bool:
    """Whether to checksum payloads on load (``REPRO_ARTIFACT_VERIFY``)."""
    return os.environ.get("REPRO_ARTIFACT_VERIFY", "on").lower() not in (
        "0",
        "off",
        "false",
        "no",
    )


def _align(offset: int) -> int:
    return (offset + ALIGN - 1) & ~(ALIGN - 1)


def is_artifact(path: PathLike) -> bool:
    """True iff ``path`` starts with the artifact magic bytes."""
    try:
        with open(resolve_in(path), "rb") as fh:
            return fh.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def _structure_arrays(structure: FTStructure) -> Tuple[Dict[str, array], Dict]:
    """Flatten a structure into the artifact's array sections + metadata."""
    g = structure.graph
    g.finalize()
    g_edges = sorted(g.edges())
    wmap = g.edge_weights()
    gid = {e: i for i, e in enumerate(g_edges)}
    eids = sorted(gid[e] for e in structure.edges)
    h = structure.subgraph()
    csr = csr_of(h)
    label_dist: List[int] = []
    label_parent: List[int] = []
    for s in structure.sources:
        csr.bfs(s, csr.stamp_bans())
        dist, parent = csr.collect()
        label_dist.extend(dist)
        label_parent.extend(parent)
    arrays = {
        "graph_edges": array("q", [c for e in g_edges for c in e]),
        "edge_weight": array("d", [float(wmap[e]) for e in g_edges]),
        "structure_eids": array("q", eids),
        "h_indptr": array("q", csr.indptr),
        "h_nbr": array("q", csr.nbr),
        "h_arc_eid": array("q", csr.arc_eid),
        "label_dist": array("q", label_dist),
        "label_parent": array("q", label_parent),
    }
    meta = {
        "n": g.n,
        "m": g.m,
        "weighted": g.weighted,
        "sources": list(structure.sources),
        "max_faults": structure.max_faults,
        "builder": structure.builder,
        "stats": _jsonable_stats(structure.stats),
    }
    return arrays, meta


def save_artifact(structure: FTStructure, path: PathLike) -> FsPath:
    """Write ``structure`` as a flat-array artifact file; returns the path.

    The write is atomic (temp file + ``os.replace`` in the target
    directory), so a crash mid-write leaves either the old artifact or
    none — never a torn file that :class:`Artifact` would have to
    reject at load time.
    """
    path = resolve_out(path)
    arrays, meta = _structure_arrays(structure)
    payload = bytearray()
    sections = {}
    for name in ARRAY_NAMES:
        arr = arrays[name]
        offset = _align(len(payload))
        payload.extend(b"\x00" * (offset - len(payload)))
        sections[name] = {"offset": offset, "count": len(arr)}
        payload.extend(arr.tobytes())
    header = {
        "format": "repro-ftbfs-artifact",
        "format_version": FORMAT_VERSION,
        "abi_version": ABI_VERSION,
        "byteorder": sys.byteorder,
        "itemsize": 8,
        "content_hash": "sha256:" + hashlib.sha256(payload).hexdigest(),
        "payload_bytes": len(payload),
        "arrays": sections,
        "meta": meta,
    }
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    prefix = MAGIC + _HEAD.pack(len(hjson)) + hjson
    body = bytearray(prefix)
    body.extend(b"\x00" * (_align(len(prefix)) - len(prefix)))
    body.extend(payload)
    fd, tmp = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(path.parent or ".")
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


class Artifact:
    """A mmap-loaded oracle artifact (see module docstring).

    Opening validates the container (magic, versions, byte order,
    section bounds) and — unless checksum verification is disabled —
    the SHA-256 content hash of the payload region, raising
    :class:`~repro.core.errors.GraphError` with a specific message on
    any mismatch.  The array sections are exposed as ``int64``
    memoryviews over the mapping: nothing is parsed or copied until
    :meth:`structure` / :meth:`oracle` ask for it.
    """

    def __init__(self, path: PathLike, verify: Optional[bool] = None) -> None:
        self.path = resolve_in(path)
        if verify is None:
            verify = _verify_default()
        with open(self.path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size < len(MAGIC) + _HEAD.size:
                raise GraphError(f"artifact {self.path}: file too short")
            self._mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
        try:
            self._parse(size, verify)
        except BaseException:
            self._mm.close()
            raise
        self._structure: Optional[FTStructure] = None
        self._subgraph: Optional[Graph] = None
        self._h_edges: Optional[List[Tuple[int, int]]] = None

    def _parse(self, size: int, verify: bool) -> None:
        mm = self._mm
        if mm[: len(MAGIC)] != MAGIC:
            raise GraphError(
                f"artifact {self.path}: bad magic (not an artifact file)"
            )
        (hlen,) = _HEAD.unpack_from(mm, len(MAGIC))
        head_end = len(MAGIC) + _HEAD.size + hlen
        if head_end > size:
            raise GraphError(f"artifact {self.path}: truncated header")
        try:
            header = json.loads(mm[len(MAGIC) + _HEAD.size : head_end])
        except ValueError as err:
            raise GraphError(
                f"artifact {self.path}: unreadable header ({err})"
            ) from None
        if header.get("format_version") != FORMAT_VERSION:
            raise GraphError(
                f"artifact {self.path}: format version "
                f"{header.get('format_version')!r} (this build reads "
                f"{FORMAT_VERSION}) — rebuild the artifact"
            )
        if header.get("abi_version") != ABI_VERSION:
            raise GraphError(
                f"artifact {self.path}: array ABI version "
                f"{header.get('abi_version')!r} (this build reads "
                f"{ABI_VERSION}) — rebuild the artifact"
            )
        if header.get("byteorder") != sys.byteorder:
            raise GraphError(
                f"artifact {self.path}: written on a "
                f"{header.get('byteorder')}-endian host, this host is "
                f"{sys.byteorder}-endian — rebuild the artifact"
            )
        payload_off = _align(head_end)
        payload_bytes = header.get("payload_bytes", 0)
        if payload_off + payload_bytes > size:
            raise GraphError(f"artifact {self.path}: truncated payload")
        if verify:
            digest = hashlib.sha256(
                memoryview(mm)[payload_off : payload_off + payload_bytes]
            ).hexdigest()
            if "sha256:" + digest != header.get("content_hash"):
                raise GraphError(
                    f"artifact {self.path}: content hash mismatch "
                    "(corrupt or tampered payload) — rebuild the artifact"
                )
        sections = header.get("arrays", {})
        views: Dict[str, memoryview] = {}
        base = memoryview(mm)
        for name in ARRAY_NAMES:
            sec = sections.get(name)
            if sec is None:
                raise GraphError(
                    f"artifact {self.path}: missing array section {name!r}"
                )
            start = payload_off + sec["offset"]
            nbytes = 8 * sec["count"]
            if sec["offset"] + nbytes > payload_bytes:
                raise GraphError(
                    f"artifact {self.path}: array section {name!r} "
                    "overruns the payload"
                )
            code = ARRAY_TYPECODES.get(name, "q")
            views[name] = base[start : start + nbytes].cast(code)
        self.header = header
        self.meta = header["meta"]
        self.nbytes = size
        self.content_hash = header["content_hash"]
        self._views = views

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the mapping.

        Invalidates every view handed out; oracles constructed from
        this artifact must not be used afterwards (a live consumer
        still holding a buffer makes this raise ``BufferError`` rather
        than pull the memory out from under it).
        """
        for view in self._views.values():
            view.release()
        self._views = {}
        self._mm.close()

    def __enter__(self) -> "Artifact":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _view(self, name: str) -> memoryview:
        return self._views[name]

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------
    def structure(self) -> FTStructure:
        """The stored :class:`~repro.ftbfs.structures.FTStructure` (cached).

        Host-graph reconstruction re-validates that every structure
        edge exists in ``G`` (so even with checksum verification
        disabled, index garbage fails loudly instead of querying a
        phantom graph).
        """
        if self._structure is None:
            ge = self._view("graph_edges")
            edges = list(zip(ge[0::2], ge[1::2]))
            meta = self.meta
            g_edges = edges
            if meta.get("weighted"):
                # Integer weights were stored as exact float64s; fold
                # them back to ``int`` so the rebuilt graph is
                # bit-identical to the source (Dial-queue eligibility
                # and report bodies both depend on the exact type).
                ws = [
                    int(w) if w.is_integer() else w
                    for w in self._view("edge_weight")
                ]
                if len(ws) != len(edges):
                    raise GraphError(
                        f"artifact {self.path}: edge_weight count "
                        f"{len(ws)} != edge count {len(edges)}"
                    )
                g_edges = [e + (w,) for e, w in zip(edges, ws)]
            graph = Graph(meta["n"], g_edges).finalize()
            try:
                h_edges = [edges[i] for i in self._view("structure_eids")]
            except IndexError:
                raise GraphError(
                    f"artifact {self.path}: structure edge id out of range"
                ) from None
            self._h_edges = h_edges
            self._structure = make_structure(
                graph,
                meta["sources"],
                meta["max_faults"],
                h_edges,
                meta["builder"],
                stats=meta.get("stats", {}),
            )
        return self._structure

    def subgraph(self) -> Graph:
        """``H`` with its CSR snapshot adopted from the mapped arrays.

        :func:`repro.core.csr.csr_of` on the returned graph yields a
        snapshot whose ``indptr``/``nbr``/``arc_eid`` are the mmap
        sections themselves — the near-zero-copy load path every
        engine and oracle binds to.
        """
        if self._subgraph is None:
            h = self.structure().subgraph()
            csr = CSRGraph.adopt(
                h,
                self._view("h_indptr"),
                self._view("h_nbr"),
                self._view("h_arc_eid"),
                self._h_edges,
            )
            h._csr_cache = csr
            self._subgraph = h
        return self._subgraph

    def oracle(self, engine=None, preseed: bool = True):
        """A ready-to-serve :class:`~repro.ftbfs.oracle.FTQueryOracle`.

        Binds the oracle to the adopted CSR snapshot and (by default)
        preseeds the process-wide snapshot cache with the stored
        per-source base-tree labels — unfaulted distance/path queries
        then run zero traversals straight off the artifact.
        """
        from repro.ftbfs.oracle import FTQueryOracle

        oracle = FTQueryOracle(
            self.structure(), engine=engine, subgraph=self.subgraph()
        )
        if preseed:
            self._preseed(oracle)
        return oracle

    def _preseed(self, oracle) -> None:
        """Install the stored labels into the engine/oracle memo caches.

        Uses the same namespaces and keys the engine families use for
        an unrestricted search (``(source, (), ())``), so the first
        fault-free query is a cache hit.  Engine families without a
        snapshot-cache memo (the legacy ``lex`` tier) are skipped.
        """
        csr = csr_of(self.subgraph())
        meta = self.meta
        n = meta["n"]
        ld = self._view("label_dist")
        lp = self._view("label_parent")
        engine = oracle._paths
        dist_oracle = oracle._dist
        for i, s in enumerate(meta["sources"]):
            dist = list(ld[i * n : (i + 1) * n])
            key = (s, (), ())
            if hasattr(engine, "_search_ns"):
                parent = list(lp[i * n : (i + 1) * n])
                engine._cache.put(
                    csr,
                    engine._search_ns,
                    key,
                    (SearchResult(s, dist, parent), True),
                    limit=engine.SEARCH_CACHE_LIMIT,
                    weight=2 * n,
                    weight_limit=engine.SEARCH_CACHE_INTS,
                )
            if hasattr(dist_oracle, "_VEC_NS"):
                dist_oracle._cache.put(
                    csr,
                    dist_oracle._VEC_NS,
                    key,
                    dist,
                    limit=dist_oracle.VEC_CACHE_LIMIT,
                    weight=n,
                    weight_limit=dist_oracle.VEC_CACHE_INTS,
                )
            if hasattr(dist_oracle, "_PT_NS"):
                # Per-pair point memo: bulk-inserted through the raw
                # namespace dict (one lock acquisition, not n), so an
                # unfaulted served point query is a straight cache hit.
                cache = dist_oracle._cache
                ns = cache.namespace(csr, dist_oracle._PT_NS)
                cache.bulk_evict(ns, limit=dist_oracle.PT_CACHE_LIMIT)
                ns.update(
                    ((s, t, (), ()), dist[t]) for t in range(n)
                )

    def summary(self) -> Dict[str, object]:
        """Header facts for ``repro info`` and the serve banner."""
        return {
            "path": str(self.path),
            "nbytes": self.nbytes,
            "format_version": self.header["format_version"],
            "abi_version": self.header["abi_version"],
            "content_hash": self.content_hash,
            "arrays": {
                name: self.header["arrays"][name]["count"]
                for name in ARRAY_NAMES
            },
            "meta": dict(self.meta),
        }


def load_artifact(path: PathLike, verify: Optional[bool] = None) -> Artifact:
    """Open and validate an artifact file (see :class:`Artifact`)."""
    return Artifact(path, verify=verify)


def load_or_build(
    path: PathLike, build: Callable[[], FTStructure]
) -> Tuple[Artifact, bool]:
    """Load ``path``, rebuilding via ``build()`` when it cannot be used.

    Returns ``(artifact, rebuilt)``.  Any load failure — missing file,
    corrupt payload, stale format/ABI — falls back to calling
    ``build()`` and re-saving the fresh artifact over ``path``
    (atomic, see :func:`save_artifact`).  When ``path``'s location is
    not writable, the rebuilt artifact is written to an unlinked
    temporary file instead, so read-only checkouts still get a served
    artifact — just not a persisted one.
    """
    try:
        return load_artifact(path), False
    except (GraphError, OSError):
        pass
    structure = build()
    try:
        save_artifact(structure, path)
        return load_artifact(path), True
    except OSError:
        pass
    fd, tmp = tempfile.mkstemp(suffix=".repro-artifact")
    os.close(fd)
    try:
        save_artifact(structure, tmp)
        artifact = load_artifact(tmp)
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass
    return artifact, True
