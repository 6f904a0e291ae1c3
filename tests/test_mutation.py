"""Mutation invalidation: inserts/deletes through every cache tier.

The contract under test: after ``HeapFile.insert`` / ``delete_source`` /
``compact`` — applied through a :class:`~repro.storage.update.
RefreshExecutor` — every plan on every object returns post-mutation-correct
results, with or without an :class:`~repro.engine.EvalSession`; the
session observes mutations as content-key bumps (never stale hits); and the
buffer-pool analytic model tracks the simulation it abstracts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.design.designer import CoraddDesigner, DesignerConfig
from repro.engine import EvalSession, use_session
from repro.relational.query import EqPredicate, Query, RangePredicate
from repro.storage.bufferpool import (
    estimate_insert_io,
    estimate_insert_seconds,
    simulate_insert_workload,
)
from repro.storage.disk import DiskModel
from repro.storage.layout import HeapFile
from repro.storage.update import RefreshExecutor
from repro.workloads.registry import make

CONFIG = dict(t0=1, alphas=(0.0, 0.25), use_feedback=False)


@pytest.fixture(scope="module")
def inst():
    return make(
        "ssb-refresh",
        lineorder_rows=6_000,
        seed=3,
        rounds=3,
        insert_fraction=0.05,
        delete_fraction=0.02,
    )


def _materialized(inst, session):
    designer = CoraddDesigner(
        inst.flat_tables,
        inst.workload,
        inst.primary_keys,
        inst.fk_attrs,
        config=DesignerConfig(**CONFIG),
    )
    design = designer.design(int(inst.total_base_bytes() * 0.6))
    return design, design.materialize(session)


def _logical_rows(db, fact, query):
    """Ground truth: source row ids matching ``query`` over the live rows
    of the base fact object (which carries every flat column)."""
    base = db.object(fact).heapfile
    mask = query.mask(base.table)
    if base.live is not None:
        mask = mask & base.live
    return set(base.source_rowids[mask].tolist())


def _answers(inst, db):
    """(plan, cost, result mask) of every workload query on ``db``."""
    return {
        q.name: (
            db.run(q).plan,
            db.run(q).result.cost,
            db.run(q).result.mask.tobytes(),
        )
        for q in inst.workload
    }


def _apply_stream(inst, db, session, **kwargs):
    executor = RefreshExecutor(db, pool_pages=2_048, session=session, **kwargs)
    total = 0.0
    for batch in inst.refresh:
        total += executor.apply(batch).seconds
    total += executor.flush()
    return executor, total


# ------------------------------------------------------------------ heap file


def _small_file(nrows=500, seed=0):
    from repro.relational.schema import Column, TableSchema
    from repro.relational.table import Table
    from repro.relational.types import INT32

    rng = np.random.default_rng(seed)
    schema = TableSchema(
        "t", [Column("k", INT32), Column("v", INT32)], primary_key=("k",)
    )
    table = Table(
        schema,
        {
            "k": rng.permutation(nrows).astype(np.int64),
            "v": rng.integers(0, 50, nrows),
        },
    )
    return table, HeapFile(table, ("k",), DiskModel(), name="t")


class TestHeapFileMutation:
    def _file(self, nrows=500, seed=0):
        return _small_file(nrows, seed)

    def test_insert_appends_to_tail(self):
        _, hf = self._file()
        before = hf.nrows
        pages = hf.insert({"k": np.array([1000, 1001]), "v": np.array([1, 2])})
        assert hf.nrows == before + 2
        assert hf.tail_rows == 2
        assert hf.sorted_rows == before
        assert len(pages) == 2
        # Sorted region untouched: prefix ranges still valid.
        assert hf.prefix_distinct_count(1) == before
        assert hf.version == 1

    def test_file_on_a_key_ordered_table_shares_its_columns(self):
        """A table already in key order (a fact clustered on its primary
        key) is aliased, not copied, and no mutator writes through to it."""
        table, _ = self._file()
        ordered = table.select(table.sort_permutation(("k",)))
        before = {n: ordered.column(n).copy() for n in ordered.column_names}
        hf = HeapFile(ordered, ("k",), DiskModel(), name="t")
        for name in ordered.column_names:
            assert np.shares_memory(hf.table.column(name), ordered.column(name))
        hf.insert({"k": np.array([250, 10_000]), "v": np.array([1, 2])})
        hf.delete_rows(np.arange(5))
        hf.tail_merge()
        hf.insert({"k": np.array([-1]), "v": np.array([3])})
        hf.compact()
        for name, column in before.items():
            assert np.array_equal(ordered.column(name), column)

    def test_insert_target_pages_follow_cluster_position(self):
        _, hf = self._file()
        lo = hf.insert({"k": np.array([-1]), "v": np.array([0])})
        hi = hf.insert({"k": np.array([10_000]), "v": np.array([0])})
        assert lo[0] == 0  # smallest key lands on the first page
        assert hi[0] >= lo[0]

    def test_delete_tombstones_and_preserves_pages(self):
        _, hf = self._file()
        npages = hf.npages
        doomed = hf.delete_rows(np.arange(10))
        assert len(doomed) == 10
        assert hf.live_rows == hf.nrows - 10
        assert hf.npages == npages  # space reclaimed only at compaction
        again = hf.delete_rows(np.arange(10))
        assert len(again) == 0  # already dead

    def test_delete_source_propagates_to_projection(self):
        table, hf = self._file()
        proj = HeapFile(
            table.project(["v", "k"], new_name="p"), ("v",), DiskModel(), name="p"
        )
        victim_sources = hf.source_rowids[:5]
        rowids = proj.delete_source(victim_sources)
        assert len(rowids) == 5
        assert set(proj.source_rowids[rowids].tolist()) == set(
            victim_sources.tolist()
        )

    def test_compact_restores_invariants(self):
        _, hf = self._file()
        hf.insert({"k": np.array([7_000, 6_000]), "v": np.array([1, 2])})
        hf.delete_rows(np.array([0, 1, 2]))
        live = hf.live_rows
        stats = hf.compact()
        assert stats.rows_merged == 2
        assert stats.rows_reclaimed == 3
        assert hf.tail_rows == 0
        assert hf.live is None
        assert hf.nrows == live
        ks = hf.table.column("k")
        assert np.all(ks[1:] >= ks[:-1])  # clustered order restored

    def test_mutable_copy_isolates(self):
        _, hf = self._file()
        hf.shared = True
        clone = hf.mutable_copy()
        clone.insert({"k": np.array([9_999]), "v": np.array([0])})
        clone.delete_rows(np.array([0]))
        assert hf.tail_rows == 0 and hf.live is None and hf.version == 0
        assert clone.tail_rows == 1 and clone.live is not None
        assert hf.lineage == b"" and len(clone.lineage) == 16

    def test_lineage_records_what_was_done_in_order(self):
        """Same root, same mutations in the same order: same chain.  Any
        other batch, order or mutation: another chain."""
        _, hf = self._file()
        first = {"k": np.array([900, 901]), "v": np.array([1, 2])}
        second = {"k": np.array([902]), "v": np.array([3])}

        def chain(*steps):
            clone = hf.mutable_copy()
            seen = [clone.lineage]
            for step in steps:
                step(clone)
                seen.append(clone.lineage)
            assert len(set(seen)) == len(seen)  # every mutation moves it
            return clone

        def insert(batch):
            return lambda f: f.insert(batch, np.arange(len(batch["k"])) + 5_000)

        def delete(f):
            f.delete_rows(np.array([3, 4]))

        a = chain(insert(first), delete, insert(second), HeapFile.tail_merge)
        b = chain(insert(first), delete, insert(second), HeapFile.tail_merge)
        assert a.lineage == b.lineage
        for name in ("k", "v"):
            assert np.array_equal(a.table.column(name), b.table.column(name))
        assert a.mutable_copy().lineage == a.lineage  # a copy carries it
        others = [
            chain(insert(second), delete, insert(first), HeapFile.tail_merge),
            chain(insert(first), insert(second), delete, HeapFile.tail_merge),
            chain(insert(first), delete, insert(second), HeapFile.compact),
            chain(insert(first), delete, insert(second)),
            chain(
                insert({**first, "v": np.array([1, 9])}), delete,
                insert(second), HeapFile.tail_merge,
            ),
            chain(
                insert(first), lambda f: f.delete_rows(np.array([3, 5])),
                insert(second), HeapFile.tail_merge,
            ),
        ]
        chains = {a.lineage, *(o.lineage for o in others)}
        assert len(chains) == 1 + len(others)
        # A no-op (an empty batch, no rows to delete) is not a mutation.
        before = (a.version, a.lineage)
        nothing = np.array([], dtype=np.int64)
        a.insert({"k": nothing, "v": nothing})
        a.delete_rows(nothing)
        assert (a.version, a.lineage) == before


# ------------------------------------------------------- end-to-end invalidation


class TestMutationInvalidation:
    def test_all_plans_correct_after_refresh_stream(self, inst):
        session = EvalSession()
        with use_session(session):
            _, db = _materialized(inst, session)
            _, _ = _apply_stream(inst, db, session)
            for query in inst.workload:
                want = _logical_rows(db, "lineorder", query)
                for obj in db.covering_objects(query):
                    for res in db.plans_for(query, obj):
                        got = set(
                            obj.heapfile.source_rowids[res.mask].tolist()
                        )
                        assert got == want, (query.name, obj.name, res.plan)

    def test_plan_memo_invalidated_by_mutation(self, inst):
        session = EvalSession()
        with use_session(session):
            _, db = _materialized(inst, session)
            query = list(inst.workload)[0]
            before = db.run(query)
            _apply_stream(inst, db, session)
            after = db.run(query)
            # The memo must not replay the pre-mutation execution: the base
            # fact grew, so any full/clustered scan costs more now.
            assert after.result.cost != before.result.cost or (
                after.result.mask.sum() != before.result.mask.sum()
            )

    def test_no_session_agrees_with_session(self, inst):
        def run(with_session):
            session = EvalSession() if with_session else None
            ctx = use_session(session) if session is not None else None
            db = None
            if ctx is not None:
                with ctx:
                    _, db = _materialized(inst, session)
                    _apply_stream(inst, db, session)
                    return _answers(inst, db)
            _, db = _materialized(inst, None)
            _apply_stream(inst, db, None)
            return _answers(inst, db)

        assert run(True) == run(False)

    def test_session_key_bumps_on_mutation(self, inst):
        session = EvalSession()
        with use_session(session):
            _, db = _materialized(inst, session)
            obj = db.object("lineorder")
            executor = RefreshExecutor(db, pool_pages=512, session=session)
            batch = inst.refresh.batches()[0]
            executor.apply(batch)
            mutated = db.object("lineorder").heapfile
            key_after = session.heapfile_key(mutated)
            assert key_after is not None
            executor.apply(inst.refresh.batches()[1])
            assert session.heapfile_key(mutated) != key_after

    def test_shared_file_stays_pristine_for_other_databases(self, inst):
        session = EvalSession()
        with use_session(session):
            design, db_a = _materialized(inst, session)
            db_b = design.materialize(session)
            rows_before = db_b.object("lineorder").heapfile.nrows
            _apply_stream(inst, db_a, session)
            # db_b shares the session-cached pristine files; db_a mutated
            # private copies.
            assert db_b.object("lineorder").heapfile.nrows == rows_before
            assert db_a.object("lineorder").heapfile.nrows != rows_before


# ----------------------------------------------------------- lineage keys


def _count_content_keys(monkeypatch) -> list:
    calls = []
    original = EvalSession._content_key_for

    def counting(self, heapfile):
        calls.append(heapfile.name)
        return original(self, heapfile)

    monkeypatch.setattr(EvalSession, "_content_key_for", counting)
    return calls


class TestLineageKeys:
    """A mutated file is keyed by what was done to it, not by re-reading
    it: equal keys imply equal content, and twins keep sharing."""

    BATCHES = [
        {"k": np.array([900, 901]), "v": np.array([1, 2])},
        {"k": np.array([902]), "v": np.array([3])},
    ]

    def _adopted_copies(self, session, n, seed=0):
        _, hf = _small_file(seed=seed)
        copies = [hf.mutable_copy() for _ in range(n)]
        keys = {session.adopt_heapfile(copy) for copy in copies}
        assert len(keys) == 1  # unmutated copies of one file: one content key
        return copies

    def test_twins_share_a_key_and_a_cm_build(self, monkeypatch):
        session = EvalSession()
        a, b, other_batch, other_order = self._adopted_copies(session, 4)
        (other_root,) = self._adopted_copies(session, 1, seed=1)
        digested = _count_content_keys(monkeypatch)
        for hf in (a, b, other_root):
            for batch in self.BATCHES:
                hf.insert(batch)
            hf.delete_rows(np.array([0, 1]))
            hf.tail_merge()
        other_batch.insert(self.BATCHES[0])
        other_batch.insert({"k": np.array([903]), "v": np.array([3])})
        for batch in reversed(self.BATCHES):
            other_order.insert(batch)
        for hf in (other_batch, other_order):
            hf.delete_rows(np.array([0, 1]))
            hf.tail_merge()
        key = session.heapfile_key(a)
        assert key[0] == "hf-lineage" and key == session.heapfile_key(b)
        assert key == session.adopt_heapfile(b)  # re-adoption re-keys too
        distinct = {
            session.heapfile_key(hf)
            for hf in (a, other_batch, other_order, other_root)
        }
        assert len(distinct) == 4
        assert not digested  # nothing was read to tell them apart
        with use_session(session):
            cm_a = session.correlation_map(a, ("v",), (1,), 1)
            assert session.correlation_map(b, ("v",), (1,), 1) is cm_a
            assert session.stats["cm_build_misses"] == 1
            assert session.stats["cm_build_hits"] == 1
            for hf in (other_batch, other_order, other_root):
                assert session.correlation_map(hf, ("v",), (1,), 1) is not cm_a
            assert session.stats["cm_build_misses"] == 4
        # Keys move with every further mutation, for each twin alike.
        a.insert(self.BATCHES[0])
        assert session.heapfile_key(a) != key == session.heapfile_key(b)
        b.insert(self.BATCHES[0])
        assert session.heapfile_key(a) == session.heapfile_key(b)

    def test_session_built_file_mutated_in_place(self):
        session = EvalSession()
        table, _ = _small_file()
        hf = session.heapfile(table, None, ("k",), DiskModel(), "t")
        built_key = session.heapfile_key(hf)
        hf.insert(self.BATCHES[0])
        assert session.heapfile_key(hf) == (
            "hf-lineage", built_key, b"", hf.lineage
        )
        # The mutated object no longer answers for its build inputs.
        rebuilt = session.heapfile(table, None, ("k",), DiskModel(), "t")
        assert rebuilt is not hf and rebuilt.nrows == table.nrows

    def test_file_first_seen_mutated_is_read_once(self, monkeypatch):
        digested = _count_content_keys(monkeypatch)
        session = EvalSession()
        _, hf = _small_file()
        hf.insert(self.BATCHES[0])
        seen_at = hf.lineage
        adopted = session.adopt_heapfile(hf)
        assert adopted[0] == "hf-content" and digested == ["t"]
        hf.insert(self.BATCHES[1])
        assert session.heapfile_key(hf) == (
            "hf-lineage", adopted, seen_at, hf.lineage
        )
        assert digested == ["t"]

    def test_refresh_stream_reads_each_file_once_and_pins_nothing(
        self, inst, monkeypatch
    ):
        digested = _count_content_keys(monkeypatch)
        session = EvalSession()
        with use_session(session):
            _, db = _materialized(inst, session)
            executor = RefreshExecutor(db, pool_pages=512, session=session)
            batches = inst.refresh.batches()
            executor.apply(batches[0])  # privatizes: each file digested once
            objects = db.objects_for_fact("lineorder")
            assert sorted(digested) == sorted(obj.name for obj in objects)
            pinned = len(session._pinned)
            keys = {session.heapfile_key(obj.heapfile) for obj in objects}
            for batch in batches[1:]:
                executor.apply(batch)
            assert len(session._pinned) == pinned
            assert len(digested) == len(objects)
            moved = {session.heapfile_key(obj.heapfile) for obj in objects}
            assert len(moved) == len(objects) and not moved & keys

    def test_twin_databases_share_caches_and_answer_as_without(
        self, inst, monkeypatch
    ):
        """Two materializations of one design take the same stream on one
        session (the shape of ``experiments/refresh_design.py``): each
        privatized file is read once however many batches land, the second
        database's CM builds and scans are hits under the twins' shared
        lineage keys, and every answer equals the sessionless one."""
        from repro.cm.designer import CMDesigner

        def design_cms(design, db, budget_bytes):
            """``CMDesigner.design`` per object, under the ambient session."""
            designer = CMDesigner(budget_bytes=budget_bytes)
            for spec in design.object_specs():
                obj, queries = db.object(spec.name), design.spec_queries(spec)
                if spec.cluster_key and queries:
                    obj.cms = designer.design(obj.heapfile, queries)
            db.invalidate_plans()

        digested = _count_content_keys(monkeypatch)
        session = EvalSession()
        with use_session(session):
            design, db_a = _materialized(inst, session)
            db_b = design.materialize(session)
            for db in (db_a, db_b):
                _apply_stream(inst, db, session, compaction="tail-merge")
            assert len(digested) == len(db_a.objects) + len(db_b.objects)
            budget = design.cm_budget_bytes
            design_cms(design, db_a, budget)
            built = session.stats["cm_build_misses"]
            reused = session.stats["cm_build_hits"]
            # Another designer knob: the per-query CM tier misses, the
            # builds underneath must not.
            design_cms(design, db_b, budget + 1)
            assert session.stats["cm_build_misses"] == built > 0
            assert session.stats["cm_build_hits"] > reused
            first = _answers(inst, db_a)
            hits = session.stats["scan_hits"]
            assert _answers(inst, db_b) == first
            assert session.stats["scan_hits"] > hits
            assert len(digested) == len(db_a.objects) + len(db_b.objects)
        design, bare = _materialized(inst, None)
        _apply_stream(inst, bare, None, compaction="tail-merge")
        design_cms(design, bare, budget)
        assert _answers(inst, bare) == first


# --------------------------------------------------------------- CM refresh


class TestCMRefresh:
    def test_tail_insert_is_noop_and_compact_rebuilds(self, inst):
        session = EvalSession()
        with use_session(session):
            _, db = _materialized(inst, session)
            executor = RefreshExecutor(
                db, pool_pages=2_048, session=session, compact_threshold=0.0
            )
            cm_objs = [o for o in db.objects.values() if o.cms]
            assert cm_objs, "fixture must materialize at least one CM"
            executor.apply(inst.refresh.batches()[0])
            obj = cm_objs[0]
            hf = obj.heapfile
            assert hf.tail_rows > 0
            cm = obj.cms[0]
            assert cm.refresh(hf) is False  # tail insert: no rebuild
            entries_before = cm.n_entries
            hf.compact()
            assert cm.refresh(hf) is True  # compaction: rank space moved
            assert cm._entry_rows_built == hf.nrows
            assert cm.n_entries >= 1
            # The rebuilt CM still answers correctly.
            for query in inst.workload:
                from repro.storage.access import cm_scan

                res = cm_scan(hf, query, cm)
                if res is None:
                    continue
                want_mask = query.mask(hf.table)
                if hf.live is not None:
                    want_mask = want_mask & hf.live
                assert np.array_equal(res.mask, want_mask), query.name


# ------------------------------------------------------- analytic pool model


class TestAnalyticInsertModel:
    DISK = DiskModel()

    def test_wider_objects_cost_more(self):
        costs = [
            estimate_insert_seconds(5_000, pages, 64, 1_024, 0.0, self.DISK)
            for pages in (256, 1_024, 8_192)
        ]
        assert costs[0] < costs[1] < costs[2]

    def test_locality_is_cheaper(self):
        costs = [
            estimate_insert_seconds(5_000, 4_096, 64, 1_024, loc, self.DISK)
            for loc in (0.0, 0.5, 1.0)
        ]
        assert costs[0] > costs[1] > costs[2]

    def test_matches_simulation_order_of_magnitude(self):
        n, pages, pool, rpp = 20_000, 4_096, 1_024, 64
        for locality in (0.0, 0.9):
            sim = simulate_insert_workload(
                n_inserts=n,
                base_table_pages=16,
                extra_object_pages=[pages],
                pool_pages=pool,
                disk=self.DISK,
                rows_per_page=rpp,
                object_localities=[locality],
            )
            est_reads, est_writes = estimate_insert_io(
                n, pages, rpp, pool, locality
            )
            est = est_reads + est_writes
            measured = sim.page_reads + sim.page_writes
            assert measured > 0
            # The closed form is an abstraction of the sim (which also
            # carries the base table's appends): demand agreement within 3x.
            assert est / measured < 3.0 and measured / est < 3.0, (
                locality, est, measured,
            )

    def test_estimate_monotone_in_inserts(self):
        a = estimate_insert_seconds(1_000, 2_048, 64, 512, 0.2, self.DISK)
        b = estimate_insert_seconds(10_000, 2_048, 64, 512, 0.2, self.DISK)
        assert 0.0 < a < b


# ------------------------------------------------------------------ tail merge


class TestTailMerge:
    """Incremental compaction: ``tail_merge`` must be bit-identical to the
    full rewrite while touching only the affected suffix, and the CM's
    ``refresh_merged`` must keep lookups exact (supersets at worst) without
    a from-scratch rebuild when the merge boundary is high."""

    def _file(self, nrows=3_000, seed=0):
        from repro.relational.schema import Column, TableSchema
        from repro.relational.table import Table
        from repro.relational.types import INT32

        rng = np.random.default_rng(seed)
        schema = TableSchema(
            "t", [Column("k", INT32), Column("v", INT32)], primary_key=("k",)
        )
        table = Table(
            schema,
            {
                "k": rng.permutation(nrows).astype(np.int64),
                "v": rng.integers(0, 60, nrows),
            },
        )
        return table, HeapFile(table, ("k",), DiskModel(), name="t")

    def _twin(self, mutate, seed=0, nrows=3_000):
        """Apply ``mutate`` to two identical files; tail-merge one, fully
        compact the other."""
        table_a, a = self._file(nrows=nrows, seed=seed)
        table_b, b = self._file(nrows=nrows, seed=seed)
        mutate(a)
        mutate(b)
        return a, a.tail_merge(), b, b.compact()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bit_identical_to_compact(self, seed):
        rng = np.random.default_rng(seed + 100)

        def mutate(hf):
            n = hf.nrows
            hf.insert(
                {
                    "k": rng.integers(0, n, size=80).astype(np.int64),
                    "v": rng.integers(0, 60, size=80),
                }
            )
            hf.delete_rows(rng.choice(n, size=40, replace=False))

        rng_state = rng.bit_generator.state
        a, _, b, _ = self._twin(
            lambda hf: (
                rng.bit_generator.__setstate__(rng_state),
                mutate(hf),
            )[-1],
            seed=seed,
        )
        for col in a.table.column_names:
            assert np.array_equal(a.table.column(col), b.table.column(col))
        assert np.array_equal(a.source_rowids, b.source_rowids)
        assert a.live is None and a.tail_rows == 0
        assert a.sorted_rows == a.nrows

    def test_recent_inserts_touch_only_suffix(self):
        # Tail keys above the whole sorted region: the boundary is the old
        # sorted extent and the merge touches a handful of pages where the
        # rewrite touches them all.
        def mutate(hf):
            n = hf.nrows
            hf.insert(
                {
                    "k": np.arange(n, n + 64).astype(np.int64),
                    "v": np.arange(64, dtype=np.int64) % 60,
                }
            )

        a, stats_a, b, stats_b = self._twin(mutate, nrows=30_000)
        assert stats_a.merged_from_row == 30_000
        merge_io = stats_a.pages_read + stats_a.pages_written
        rewrite_io = stats_b.pages_read + stats_b.pages_written
        assert merge_io < rewrite_io / 4
        for col in a.table.column_names:
            assert np.array_equal(a.table.column(col), b.table.column(col))

    def test_cm_incremental_refresh_is_exact(self):
        from repro.cm.correlation_map import CorrelationMap

        _, hf = self._file()
        cm = CorrelationMap(hf, ("v",), depth=1, cluster_width=4)
        n = hf.nrows
        hf.insert(
            {
                "k": np.arange(n, n + 200).astype(np.int64),
                "v": (np.arange(200, dtype=np.int64) * 7) % 60,
            }
        )
        stats = hf.tail_merge()
        outcome = cm.refresh_merged(hf, merged_from_row=stats.merged_from_row)
        assert outcome == "incremental"
        fresh = CorrelationMap(hf, ("v",), depth=1, cluster_width=4)
        # Every incremental lookup covers the fresh map's buckets: plans
        # built on it read at most a few extra pages, never miss rows.
        for lo, hi in ((0, 10), (25, 40), (50, 59)):
            probe = Query(
                "probe", "t", [RangePredicate("v", float(lo), float(hi))]
            )
            assert np.isin(fresh.lookup(probe), cm.lookup(probe)).all()

    def test_cm_refresh_merged_noop_and_rebuild(self):
        from repro.cm.correlation_map import CorrelationMap

        _, hf = self._file()
        cm = CorrelationMap(hf, ("v",), depth=1, cluster_width=4)
        assert cm.refresh_merged(hf, merged_from_row=0) == "noop"
        # Low-boundary merges leave most entry rows stale: amortization
        # demands a rebuild, not an ever-growing posting superset.
        rng = np.random.default_rng(2)
        hf.insert(
            {
                "k": rng.integers(0, 100, size=150).astype(np.int64),
                "v": rng.integers(0, 60, size=150),
            }
        )
        stats = hf.tail_merge()
        assert stats.merged_from_row < hf.nrows // 2
        assert (
            cm.refresh_merged(hf, merged_from_row=stats.merged_from_row)
            == "rebuild"
        )

    def test_executor_modes_agree_and_count(self, inst, monkeypatch):
        from repro.cm.correlation_map import CorrelationMap
        from tests.test_design_units import count_calls

        def run(compaction):
            merges = count_calls(monkeypatch, HeapFile, "tail_merge")
            refreshes = count_calls(
                monkeypatch, CorrelationMap, "refresh_merged"
            )
            session = EvalSession()
            with use_session(session):
                _, db = _materialized(inst, session)
                executor, _ = _apply_stream(
                    inst,
                    db,
                    session,
                    compaction=compaction,
                    compact_threshold=0.02,
                )
                out = {}
                for query in inst.workload:
                    choice = db.run(query)
                    out[query.name] = (
                        choice.result.mask.sum(),
                        set(
                            db.object(choice.object_name)
                            .heapfile.source_rowids[choice.result.mask]
                            .tolist()
                        ),
                    )
            monkeypatch.undo()
            return executor, out, len(merges), len(refreshes)

        # Same stream, same threshold: both modes compact, both answer
        # identically; only the I/O path differs.
        rewrite_ex, rewrite_out, rewrite_merges, rewrite_refreshes = run(
            "rewrite"
        )
        merge_ex, merge_out, merges, _ = run("tail-merge")
        assert rewrite_ex.compactions > 0
        assert merge_ex.compactions > 0
        assert merge_out == rewrite_out
        assert (rewrite_merges, rewrite_refreshes) == (0, 0)
        assert merges > 0

    def test_invalid_compaction_mode_raises(self, inst):
        session = EvalSession()
        with use_session(session):
            _, db = _materialized(inst, session)
            with pytest.raises(ValueError, match="compaction"):
                RefreshExecutor(db, session=session, compaction="vacuum")
