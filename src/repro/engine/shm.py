"""Zero-copy shared-memory arenas for cross-process column and cache arrays.

A :class:`ShmArena` owns a set of named POSIX shared-memory slabs and packs
numpy arrays into them with a bump allocator.  Registering an array copies
its bytes into a slab exactly once (memoized by object identity, the same
pinning discipline as :meth:`repro.engine.session.EvalSession.array_key`)
and yields a tiny picklable :class:`ShmRef` token; any process that can see
the segment — in practice the forked workers of a
:class:`~repro.engine.parallel.ParallelSweep` — turns the token back into a
**read-only zero-copy view** of the very same physical pages with
:func:`attach_ref`.  Content digests are preserved by construction (the
bytes are the bytes), so every content-keyed session cache treats a view
exactly like the array it mirrors.

Two call sites use the arena:

* :func:`repro.engine.snapshot.export_snapshot` swaps the large ndarray
  payloads of a session snapshot (predicate/conjunction masks, sort
  orderings, bucket expansions, detached CM entry/posting arrays) for
  refs, so the payload that crosses a process boundary shrinks from
  megabytes of array bytes to a handful of tokens;
* :meth:`repro.storage.layout.HeapFile.share_columns` rebinds a heap
  file's column arrays to arena-backed views, so forked workers read the
  parent's pages directly (``MAP_SHARED`` — never copy-on-write faulted,
  never duplicated) when they rebuild or scan session-cached files.

Ownership and cleanup are strictly parent-sided, fork-safe by pid guard:

* the creating process — and only it — may :meth:`ShmArena.dispose`,
  which unlinks every segment name (the ``/dev/shm`` entry disappears
  immediately; the memory itself lives until the last mapping closes) and
  closes every mapping no view still reads.  A :mod:`weakref` finalizer
  unlinks on garbage collection as a safety net, and the stdlib resource
  tracker covers hard crashes;
* forked children inherit the arena object but every mutating entry point
  no-ops or raises for them;
* on both sides a mapping is a plain refcounted ``mmap`` that every view
  over it pins through a buffer export: it cannot be closed under a live
  view and it outlives the arena that made it, so parent-side heap-file
  columns stay readable after the sweep's arena is collected and worker
  exit cleans up without unlink races or tracker double-accounting.

Platform matrix: zero-copy engages on platforms with both ``fork`` and a
file-backed POSIX shm mount (Linux: ``/dev/shm``).  Elsewhere
:func:`shm_available` is False and every caller falls back to plain
picklable snapshots — same results, just copied instead of shared.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import secrets
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Sequence

import numpy as np

from repro.engine import faults
from repro.obs import metrics as obs_metrics

#: Arrays smaller than this are cheaper to pickle than to reference.
SHARE_MIN_BYTES = 1024

#: Default slab size; arrays larger than a slab get a dedicated segment.
DEFAULT_SLAB_BYTES = 4 << 20

#: Slab offsets are aligned so attached views keep natural array alignment.
_ALIGN = 64

_SHM_DIR = "/dev/shm"

#: Segment names embed the owning pid so :func:`sweep_orphan_segments` can
#: tell a crashed parent's leftovers from a live sibling's working set.
_SEG_PREFIX = "repro-shm"


@dataclass(frozen=True)
class ShmRef:
    """A picklable token for one array inside a shared-memory slab.

    ``digest`` is a 128-bit blake2b of the registered bytes; attachers verify
    it so a truncated or recycled segment surfaces as a typed
    :class:`ShmAttachError` instead of silently corrupt cache entries.
    """

    segment: str
    offset: int
    dtype: str
    shape: tuple
    nbytes: int
    digest: str = ""


class ShmAttachError(RuntimeError):
    """A ref could not be attached: segment missing, truncated, or failing
    its content-digest check.  Carries the segment name and expected digest
    so supervisors can log the failure and fall back to pickled payloads."""

    def __init__(self, ref: ShmRef, reason: str):
        super().__init__(
            f"cannot attach shm ref (segment={ref.segment!r}, "
            f"nbytes={ref.nbytes}, digest={ref.digest or '<none>'}): {reason}"
        )
        self.segment = ref.segment
        self.digest = ref.digest
        self.reason = reason


def shm_available() -> bool:
    """Whether this platform supports the zero-copy arena path: POSIX
    shared memory reachable as plain files (Linux ``/dev/shm``), which is
    what lets workers attach read-only without resource-tracker
    double-accounting."""
    return os.path.isdir(_SHM_DIR) and os.access(_SHM_DIR, os.W_OK)


def _bytes_digest(arr: np.ndarray) -> str:
    """128-bit blake2b over an array's raw bytes — the integrity check
    attachers replay (dtype/shape ride the ref itself, so only bytes are
    hashed)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(arr.tobytes() if not arr.flags.c_contiguous else arr)
    return h.hexdigest()


def _map_file(name: str, writable: bool = False) -> mmap.mmap:
    """Map the whole of segment ``name``; the descriptor is not kept."""
    fd = os.open(
        os.path.join(_SHM_DIR, name), os.O_RDWR if writable else os.O_RDONLY
    )
    try:
        return mmap.mmap(
            fd, 0, prot=mmap.PROT_READ | (mmap.PROT_WRITE if writable else 0)
        )
    finally:
        os.close(fd)


def _view_of(mapped: mmap.mmap, ref: ShmRef) -> np.ndarray:
    """The array ``ref`` describes, as a view of ``mapped``.  The view's
    base holds a buffer export of the mapping, which is what ties the
    mapping's lifetime to its views'."""
    return np.frombuffer(
        mapped, dtype=np.dtype(ref.dtype), count=int(np.prod(ref.shape)),
        offset=ref.offset,
    ).reshape(ref.shape)


def _unlink_segments(names: Sequence[str], pid: int) -> None:
    """Finalizer body: unlink segments, parent process only (a forked child
    inheriting the finalizer must never tear down segments the parent and
    its siblings still use)."""
    if os.getpid() != pid:
        return
    for name in names:
        try:
            seg = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        try:
            seg.close()
        finally:
            try:
                seg.unlink()
            except FileNotFoundError:
                pass


class _Slab:
    """One shared-memory segment, the parent's mapping of it, and the
    bump-allocation cursor.

    ``shm`` is kept for its name, its ``unlink()`` and its resource-tracker
    registration only.  Its own mapping is closed at once and replaced by a
    plain ``mmap`` of the same file: ``SharedMemory`` unmaps when *it* is
    collected, whoever still reads the pages, whereas views built with
    :func:`_view_of` export the ``mmap``'s buffer and so keep it mapped for
    exactly as long as one of them lives.  The segment's pages are never
    touched through the first mapping, so they are resident once."""

    __slots__ = ("shm", "mapped", "cursor")

    def __init__(self, shm: shared_memory.SharedMemory) -> None:
        self.shm = shm
        self.mapped = _map_file(shm.name, writable=True)
        shm.close()
        self.cursor = 0

    @property
    def capacity(self) -> int:
        return self.shm.size


class ShmArena:
    """Parent-owned shared-memory slabs packing registered arrays.

    One arena per fan-out scope (a :meth:`ParallelSweep.map
    <repro.engine.parallel.ParallelSweep.map>` call): the parent registers,
    forked workers attach, and the parent disposes after the pool has
    drained.  Registration is memoized by array identity and the array is
    pinned, so repeated exports of the same session cache copy each array
    at most once per arena.
    """

    def __init__(self, slab_bytes: int = DEFAULT_SLAB_BYTES) -> None:
        self._pid = os.getpid()
        self._slab_bytes = int(slab_bytes)
        self._slabs: list[_Slab] = []
        self._names: list[str] = []  # shared with the finalizer, grown in place
        self._refs: dict[int, ShmRef] = {}
        self._pinned: list[np.ndarray] = []
        self._disposed = False
        self.bytes_registered = 0
        self._finalizer = weakref.finalize(
            self, _unlink_segments, self._names, self._pid
        )

    # ------------------------------------------------------------ allocation

    @property
    def segments(self) -> int:
        return len(self._slabs)

    @property
    def segment_names(self) -> list[str]:
        return list(self._names)

    def _new_segment(self, size: int) -> shared_memory.SharedMemory:
        """Create a segment named ``repro-shm-<pid>-<seq>-<token>`` so the
        orphan sweep can attribute it to this process, retrying on the
        (vanishingly unlikely) name collision."""
        for _ in range(8):
            name = (
                f"{_SEG_PREFIX}-{self._pid}-{len(self._names)}-"
                f"{secrets.token_hex(4)}"
            )
            try:
                return shared_memory.SharedMemory(name=name, create=True, size=size)
            except FileExistsError:
                continue
        return shared_memory.SharedMemory(create=True, size=size)

    def _alloc(self, nbytes: int) -> tuple[_Slab, int]:
        slab = self._slabs[-1] if self._slabs else None
        if slab is None or slab.cursor + nbytes > slab.capacity:
            size = max(self._slab_bytes, nbytes)
            slab = _Slab(self._new_segment(size))
            self._slabs.append(slab)
            self._names.append(slab.shm.name)
        offset = slab.cursor
        slab.cursor = -(-(offset + nbytes) // _ALIGN) * _ALIGN
        return slab, offset

    # ---------------------------------------------------------- registration

    def register(self, arr: np.ndarray) -> ShmRef:
        """Copy ``arr`` into a slab (once per array object) and return its
        ref.  Parent-side only: children attach, they never grow slabs."""
        if os.getpid() != self._pid:
            raise RuntimeError(
                "ShmArena is owned by the parent process; forked children "
                "attach refs instead of registering arrays"
            )
        if self._disposed:
            raise RuntimeError("cannot register into a disposed ShmArena")
        ref = self._refs.get(id(arr))
        if ref is not None:
            return ref
        contiguous = np.ascontiguousarray(arr)
        if contiguous.nbytes == 0:
            ref = ShmRef("", 0, contiguous.dtype.str, tuple(contiguous.shape), 0)
        else:
            slab, offset = self._alloc(contiguous.nbytes)
            ref = ShmRef(
                slab.shm.name, offset, contiguous.dtype.str,
                tuple(contiguous.shape), contiguous.nbytes,
                _bytes_digest(contiguous),
            )
            _view_of(slab.mapped, ref)[...] = contiguous
        self._refs[id(arr)] = ref
        self._pinned.append(arr)  # keep id() stable for the memo's lifetime
        self.bytes_registered += contiguous.nbytes
        return ref

    def register_view(self, arr: np.ndarray) -> np.ndarray:
        """Register ``arr`` and return the parent-side read-only view of
        its slab bytes — what :meth:`HeapFile.share_columns` rebinds column
        arrays to, so forked children share the physical pages."""
        ref = self.register(arr)
        if ref.nbytes == 0:
            return _empty_view(ref)
        slab = next(s for s in self._slabs if s.shm.name == ref.segment)
        view = _view_of(slab.mapped, ref)
        view.setflags(write=False)
        return view

    # -------------------------------------------------------------- disposal

    def dispose(self) -> None:
        """Unlink every segment name (idempotent, parent-only) and close
        the mappings nothing reads any more.  A mapping with live views
        refuses to close and is released with the last of them, so
        parent-side views stay valid.  A forked child calling this is a
        no-op: cleanup is the parent's job."""
        if os.getpid() != self._pid or self._disposed:
            return
        self._disposed = True
        self._finalizer.detach()
        for slab in self._slabs:
            try:
                slab.shm.unlink()
            except FileNotFoundError:
                pass
            try:
                slab.mapped.close()
            except BufferError:  # pinned by a live view
                pass


# -------------------------------------------------------------- attach side

#: name -> mmap of segments this process attached (refs resolve through it).
#: Views hold the mmap via their buffer base, so lifetime is refcounted —
#: a worker exiting with live views tears down in reference order, no
#: unlink, no resource-tracker churn.
_ATTACHED: dict[str, mmap.mmap] = {}


def _empty_view(ref: ShmRef) -> np.ndarray:
    arr = np.empty(ref.shape, dtype=np.dtype(ref.dtype))
    arr.setflags(write=False)
    return arr


def _map_segment(name: str) -> mmap.mmap:
    mapped = _ATTACHED.get(name)
    if mapped is None:
        mapped = _ATTACHED[name] = _map_file(name)
        obs_metrics.count("engine.shm.attach_segments")
    return mapped


def attach_ref(ref: ShmRef, verify: bool = True) -> np.ndarray:
    """A read-only zero-copy view of a registered array, in any process
    that can see the segment (the parent itself, or its forked workers).

    Raises :class:`ShmAttachError` when the segment is gone (a parent
    disposed early, or the mount was cleaned under us), when the mapping is
    too short for the ref, or when ``verify`` is on and the bytes fail the
    ref's content digest — callers treat any of these as "shared memory is
    poisoned" and fall back to pickled payloads.
    """
    spec = faults.fire("shm.attach", key=ref.segment)
    if spec is not None and spec.kind == "corrupt":
        obs_metrics.count("engine.shm.attach_errors")
        raise ShmAttachError(ref, "injected corruption")
    obs_metrics.count("engine.shm.attaches")
    obs_metrics.count("engine.shm.attach_bytes", ref.nbytes)
    if ref.nbytes == 0:
        return _empty_view(ref)
    try:
        mapped = _map_segment(ref.segment)
    except OSError as exc:
        obs_metrics.count("engine.shm.attach_errors")
        raise ShmAttachError(ref, f"segment unavailable: {exc}") from exc
    if ref.offset + ref.nbytes > len(mapped):
        obs_metrics.count("engine.shm.attach_errors")
        raise ShmAttachError(
            ref,
            f"segment truncated: need bytes [{ref.offset}, "
            f"{ref.offset + ref.nbytes}) of {len(mapped)}",
        )
    view = _view_of(mapped, ref)
    if verify and ref.digest and _bytes_digest(view) != ref.digest:
        obs_metrics.count("engine.shm.attach_errors")
        raise ShmAttachError(ref, "content digest mismatch")
    return view


def forget_attachments() -> None:
    """Drop this process's attach cache (fork-safe worker init: inherited
    parent-side entries are stale bookkeeping for a child — live views keep
    their own mappings alive regardless)."""
    _ATTACHED.clear()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


def sweep_orphan_segments() -> list[str]:
    """Unlink ``repro-shm-*`` segments whose owning process is dead.

    The normal lifecycle (dispose / finalizer / resource tracker) already
    covers clean exits and most crashes; this sweep is the backstop for a
    SIGKILLed parent whose tracker died with it.  Only segments carrying our
    name prefix with a dead embedded pid are touched — live sweeps in
    sibling processes keep their segments.  Returns the unlinked names.
    """
    removed: list[str] = []
    if not os.path.isdir(_SHM_DIR):
        return removed
    for entry in os.listdir(_SHM_DIR):
        if not entry.startswith(_SEG_PREFIX + "-"):
            continue
        parts = entry.split("-")
        try:
            pid = int(parts[2])
        except (IndexError, ValueError):
            continue
        if _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(_SHM_DIR, entry))
        except FileNotFoundError:
            continue
        removed.append(entry)
    if removed:
        obs_metrics.count("engine.shm.orphans_swept", len(removed))
    return removed


def shareable(value) -> bool:
    """Whether a cache value is worth moving into the arena."""
    return isinstance(value, np.ndarray) and value.nbytes >= SHARE_MIN_BYTES
