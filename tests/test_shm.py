"""ShmArena: zero-copy shared-memory registration, attach, and cleanup.

The arena's contract is that sharing is observationally invisible: an
attached view has the very same bytes (hence the same content digest, hence
the same session cache keys) as the array it mirrors, segments never
outlive their ``map()`` scope in ``/dev/shm``, and forked children can
attach but never mutate or tear down parent-owned state.
"""

from __future__ import annotations

import gc
import multiprocessing
import os

import numpy as np
import pytest

from repro.engine import EvalSession
from repro.engine.shm import (
    DEFAULT_SLAB_BYTES,
    SHARE_MIN_BYTES,
    ShmArena,
    ShmRef,
    attach_ref,
    shareable,
    shm_available,
)

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="platform has no file-backed POSIX shm mount"
)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="platform cannot fork worker processes",
)


def _shm_entries() -> set[str]:
    return set(os.listdir("/dev/shm"))


@needs_shm
class TestRoundTrip:
    def test_register_attach_round_trip(self):
        arena = ShmArena()
        try:
            for arr in (
                np.arange(10_000, dtype=np.int64),
                np.linspace(0.0, 1.0, 5_000),
                (np.arange(6_000) % 7 == 0),
                np.arange(8_000, dtype=np.int32).reshape(2_000, 4),
            ):
                ref = arena.register(arr)
                view = attach_ref(ref)
                assert view.dtype == arr.dtype
                assert view.shape == arr.shape
                assert np.array_equal(view, arr)
        finally:
            arena.dispose()

    def test_refs_are_tiny_and_picklable(self):
        import pickle

        arena = ShmArena()
        try:
            arr = np.arange(100_000, dtype=np.int64)
            ref = arena.register(arr)
            assert isinstance(ref, ShmRef)
            assert ref.nbytes == arr.nbytes
            # The whole point: the token that crosses the process boundary
            # is O(100) bytes however large the array is.
            assert len(pickle.dumps(ref)) < 500
            clone = pickle.loads(pickle.dumps(ref))
            assert np.array_equal(attach_ref(clone), arr)
        finally:
            arena.dispose()

    def test_zero_length_arrays_travel_by_value(self):
        arena = ShmArena()
        try:
            ref = arena.register(np.empty(0, dtype=np.float64))
            assert ref.segment == "" and ref.nbytes == 0
            view = attach_ref(ref)
            assert view.shape == (0,) and view.dtype == np.float64
        finally:
            arena.dispose()

    def test_registration_is_memoized_by_identity(self):
        arena = ShmArena()
        try:
            arr = np.arange(50_000)
            ref1 = arena.register(arr)
            ref2 = arena.register(arr)
            assert ref1 is ref2
            assert arena.bytes_registered == arr.nbytes
            # An equal-content but distinct array is a distinct registration
            # (identity memo, same discipline as EvalSession.array_key).
            ref3 = arena.register(arr.copy())
            assert ref3 is not ref1
        finally:
            arena.dispose()

    def test_small_slabs_pack_one_segment(self):
        arena = ShmArena()
        try:
            for _ in range(8):
                arena.register(np.random.default_rng(1).integers(0, 9, 2_048))
            assert arena.segments == 1
            # An oversized array gets its own dedicated segment.
            arena.register(np.zeros(DEFAULT_SLAB_BYTES + 1, dtype=np.uint8))
            assert arena.segments == 2
        finally:
            arena.dispose()


@needs_shm
class TestDigestIdentity:
    def test_views_share_the_content_key(self):
        """Attached views digest to the same content key as the source —
        what makes every content-keyed session cache treat them as the
        same array."""
        session = EvalSession()
        arena = ShmArena()
        try:
            arr = np.arange(25_000, dtype=np.int64)
            ref = arena.register(arr)
            attached = attach_ref(ref)
            vended = arena.register_view(arr)
            assert session.array_key(arr) == session.array_key(attached)
            assert session.array_key(arr) == session.array_key(vended)
        finally:
            arena.dispose()

    def test_vended_views_are_read_only(self):
        arena = ShmArena()
        try:
            view = arena.register_view(np.arange(10_000))
            with pytest.raises(ValueError):
                view[0] = 99
        finally:
            arena.dispose()


@needs_shm
class TestCleanup:
    def test_dispose_leaves_no_leaked_segments(self):
        before = _shm_entries()
        arena = ShmArena()
        names = []
        arr = np.arange(200_000, dtype=np.int64)
        arena.register(arr)
        names = arena.segment_names
        assert names and all(n.lstrip("/") in _shm_entries() for n in names)
        arena.dispose()
        after = _shm_entries()
        assert after - before == set()

    def test_dispose_is_idempotent_and_blocks_registration(self):
        arena = ShmArena()
        arena.register(np.arange(5_000))
        arena.dispose()
        arena.dispose()
        with pytest.raises(RuntimeError):
            arena.register(np.arange(5_000))

    def test_vended_views_survive_dispose(self):
        """Unlink removes the name; the pages live until the last mapping
        drops — so parent-side heap-file columns rebound to arena views
        stay valid after the sweep disposes the arena, and after the arena
        itself is collected: the views own their mapping."""
        before = _shm_entries()
        arena = ShmArena()
        arr = np.arange(100_000, dtype=np.int64)
        view = arena.register_view(arr)
        arena.dispose()
        assert _shm_entries() - before == set()
        del arena
        gc.collect()
        assert np.array_equal(view, arr)

    def test_finalizer_unlinks_on_garbage_collection(self):
        before = _shm_entries()
        arena = ShmArena()
        arena.register(np.arange(100_000, dtype=np.int64))
        del arena
        assert _shm_entries() - before == set()


@needs_shm
@needs_fork
class TestForkSafety:
    def test_child_cannot_register_or_dispose(self):
        ctx = multiprocessing.get_context("fork")
        arena = ShmArena()
        try:
            ref = arena.register(np.arange(50_000, dtype=np.int64))
            names = arena.segment_names

            def child(queue):
                try:
                    arena.register(np.arange(10))
                    queue.put(("register", "no error"))
                except RuntimeError:
                    queue.put(("register", "raised"))
                arena.dispose()  # must be a silent no-op in the child
                queue.put(("alive", all(
                    n.lstrip("/") in os.listdir("/dev/shm") for n in names
                )))
                view = attach_ref(ref)
                queue.put(("sum", int(view.sum())))

            queue = ctx.SimpleQueue()
            proc = ctx.Process(target=child, args=(queue,))
            proc.start()
            results = dict(queue.get() for _ in range(3))
            proc.join()
            assert proc.exitcode == 0
            assert results["register"] == "raised"
            assert results["alive"] is True  # child dispose tore nothing down
            assert results["sum"] == int(np.arange(50_000, dtype=np.int64).sum())
        finally:
            arena.dispose()


class TestShareable:
    def test_threshold(self):
        assert not shareable(np.zeros(1))
        assert not shareable([1, 2, 3])
        assert not shareable(b"x" * SHARE_MIN_BYTES)
        assert shareable(np.zeros(SHARE_MIN_BYTES, dtype=np.uint8))
