"""Sharded heap files: pruning soundness, bit-identity, routing, design."""

import numpy as np
import pytest

from repro.design.ilp_formulation import DesignProblem, choose_candidates
from repro.design.mv import CandidateSet, MVCandidate, mv_size_bytes
from repro.design.shard_candidates import ShardCandidateEnumerator
from repro.costmodel.base import ObjectGeometry
from repro.costmodel.correlation_aware import CorrelationAwareCostModel
from repro.engine.parallel import ParallelSweep
from repro.engine.session import EvalSession, use_session
from repro.obs import observed
from repro.relational.query import (
    Aggregate,
    EqPredicate,
    InPredicate,
    Query,
    RangePredicate,
)
from repro.stats.collector import TableStatistics
from repro.storage.access import full_scan
from repro.storage.disk import DiskModel
from repro.storage.executor import PhysicalDatabase, PhysicalObject
from repro.storage.layout import HeapFile
from repro.storage.sharded import (
    HASH,
    RANGE,
    ShardSpec,
    ShardedHeapFile,
    choose_shard_key,
    run_workload_shard_parallel,
    sharded_fact_object,
    sharded_scan,
)
from repro.storage.update import RefreshExecutor
from tests.conftest import make_people


@pytest.fixture(scope="module")
def disk():
    return DiskModel()


@pytest.fixture(scope="module")
def people():
    return make_people(n=12_000, seed=3)


def random_query(rng, name="q"):
    """A random conjunctive query over the people columns (eq/range/in)."""
    preds = []
    picks = rng.choice(["state", "region", "city", "salary"],
                       size=rng.integers(1, 3), replace=False)
    for attr in picks:
        hi = {"state": 50, "region": 5, "city": 1020, "salary": 200}[attr]
        kind = rng.integers(0, 3)
        if kind == 0:
            preds.append(EqPredicate(attr, float(rng.integers(0, hi + 1))))
        elif kind == 1:
            lo = int(rng.integers(0, hi))
            preds.append(RangePredicate(
                attr, float(lo), float(rng.integers(lo, hi + 1))
            ))
        else:
            vals = rng.integers(0, hi + 1, size=int(rng.integers(1, 4)))
            preds.append(InPredicate(attr, tuple(float(v) for v in vals)))
    return Query(name, "people", preds,
                 aggregates=[Aggregate("sum", ("salary",))])


def selected_sources(hf, result):
    return np.sort(np.asarray(hf.source_rowids)[result.mask])


def test_pruning_never_drops_rows(people, disk):
    """Property: a pruned shard holds zero live rows matching the query."""
    rng = np.random.default_rng(7)
    for scheme in (RANGE, HASH):
        shf = ShardedHeapFile(
            people, ("state",), disk, ShardSpec(5, "state", scheme),
            name="people",
        )
        for i in range(40):
            q = random_query(rng, f"p{i}")
            survivors = set(int(s) for s in shf.shards_for_query(q))
            for s, shard in enumerate(shf.shards):
                if s in survivors:
                    continue
                mask = q.mask(shard.table)
                if shard.live is not None:
                    mask &= shard.live
                assert mask.sum() == 0, (
                    f"{scheme}: pruned shard {s} holds matches for {q}"
                )


@pytest.mark.parametrize("scheme", [RANGE, HASH])
@pytest.mark.parametrize("with_session", [False, True])
def test_bit_identity_fuzz(people, disk, scheme, with_session):
    """Sharded answers == unsharded answers (selected rows and aggregates),
    across mutations: pristine, with an insert tail, with tombstones."""
    rng = np.random.default_rng(11)
    shf = ShardedHeapFile(
        people, ("state", "city"), disk, ShardSpec(4, "city", scheme),
        name="people",
    )
    hf = HeapFile(people, ("state", "city"), disk, name="people")
    ctx = use_session(EvalSession()) if with_session else None
    if ctx is not None:
        ctx.__enter__()
    try:
        def check(tag):
            for i in range(25):
                q = random_query(rng, f"{tag}{i}")
                res_s = sharded_scan(shf, q)
                res_u = full_scan(hf, q)
                assert np.array_equal(
                    selected_sources(shf, res_s), selected_sources(hf, res_u)
                ), f"{tag}: rows differ for {q}"
                sal_s = np.sort(shf.table.column("salary")[res_s.mask])
                sal_u = np.sort(hf.table.column("salary")[res_u.mask])
                assert np.array_equal(sal_s, sal_u)

        check("pristine")
        # Insert a tail (values beyond the build distribution widen zones).
        batch = {
            "state": rng.integers(0, 51, 400),
            "region": rng.integers(0, 6, 400),
            "city": rng.integers(0, 1021, 400),
            "salary": rng.integers(20, 220, 400),
        }
        ids = np.arange(people.nrows, people.nrows + 400, dtype=np.int64)
        shf.insert(batch, ids)
        hf.insert(batch, ids)
        check("tail")
        # Tombstone a slice by provenance.
        doomed = rng.choice(people.nrows + 400, size=600, replace=False)
        shf.delete_source(doomed.astype(np.int64))
        hf.delete_source(doomed.astype(np.int64))
        check("tombstoned")
    finally:
        if ctx is not None:
            ctx.__exit__(None, None, None)


def test_cost_charges_only_surviving_shards(people, disk):
    shf = ShardedHeapFile(
        people, ("state",), disk, ShardSpec(4, "state"), name="people"
    )
    hf = HeapFile(people, ("state",), disk, name="people")
    q = Query("q", "people", [EqPredicate("city", 205.0)],
              aggregates=[Aggregate("sum", ("salary",))])
    res = sharded_scan(shf, q)
    survivors = set(int(s) for s in shf.shards_for_query(q))
    assert len(survivors) < shf.spec.shards  # pruning fired
    assert {d.shard for d in res.shard_details} == survivors
    # The total cost is exactly the sum of the surviving shards' costs.
    total = sum((d.cost for d in res.shard_details),
                start=type(res.cost)(0.0, 0, 0, 0))
    assert total == res.cost
    # Only surviving pages are charged; pages_avoided is the complement.
    assert res.cost.pages_read < hf.npages
    pruned_pages = sum(
        shard.npages for s, shard in enumerate(shf.shards)
        if s not in survivors
    )
    assert res.pages_avoided == pruned_pages > 0


def test_refresh_routing_conservation(people, disk):
    """RefreshExecutor routes every batch row to exactly one shard, lands it
    inside that shard's key interval, and deletes match the unsharded
    reference."""
    rng = np.random.default_rng(5)
    db = PhysicalDatabase(
        [sharded_fact_object(people, "people", ("state",),
                             ShardSpec(4, "state"), disk)]
    )
    ref = PhysicalDatabase(
        [PhysicalObject(HeapFile(people, ("state",), disk, name="people"))]
    )
    ex = RefreshExecutor(db, disk=disk, session=None, compact_threshold=0.05)
    ex_ref = RefreshExecutor(ref, disk=disk, session=None,
                             compact_threshold=0.05)
    shf = db.object("people").heapfile
    before = [s.nrows for s in shf.shards]
    n = 800
    batch = {
        "state": rng.integers(0, 51, n),
        "region": rng.integers(0, 6, n),
        "city": rng.integers(0, 1021, n),
        "salary": rng.integers(20, 220, n),
    }
    out = ex.apply_insert("people", batch)
    out_ref = ex_ref.apply_insert("people", batch)
    assert out.rows == out_ref.rows == n
    shf = db.object("people").heapfile  # may have been privatized
    deltas = {
        s: shf.shards[s].nrows - before[s]
        for s in range(4) if shf.shards[s].nrows != before[s]
    }
    # Conservation: every row landed in exactly one shard.
    assert sum(deltas.values()) == n
    assert deltas == shf.last_route
    # Routing correctness: the batch rows in each shard route back to it.
    expected = shf.shard_map.route(batch["state"])
    for s, count in deltas.items():
        assert int((expected == s).sum()) == count
    # Deletes: same doomed rows as the unsharded reference.
    removed = ex.apply_delete("people", [RangePredicate("state", 0, 7)])
    removed_ref = ex_ref.apply_delete("people", [RangePredicate("state", 0, 7)])
    assert removed.rows == removed_ref.rows > 0
    assert shf.live_rows == ref.object("people").heapfile.live_rows


def test_refresh_hot_shard_compaction(people, disk):
    """A hot shard's churn triggers per-shard compaction; cold shards keep
    their layout, and answers survive the reorganization."""
    db = PhysicalDatabase(
        [sharded_fact_object(people, "people", ("state",),
                             ShardSpec(4, "state"), disk)]
    )
    ex = RefreshExecutor(db, disk=disk, session=None, compact_threshold=0.1)
    shf = db.object("people").heapfile
    hot = int(shf.shard_map.route(np.asarray([3.0]))[0])
    cold_epochs = [
        s.sorted_epoch for i, s in enumerate(shf.shards) if i != hot
    ]
    n = max(600, int(0.2 * shf.shards[hot].nrows))
    rng = np.random.default_rng(9)
    batch = {
        "state": np.full(n, 3),
        "region": np.zeros(n, dtype=np.int64),
        "city": np.full(n, 65),
        "salary": rng.integers(20, 220, n),
    }
    ex.apply_insert("people", batch)
    shf = db.object("people").heapfile
    assert ex.compactions >= 1
    assert shf.shards[hot].tail_rows == 0  # hot shard was reorganized
    assert [
        s.sorted_epoch for i, s in enumerate(shf.shards) if i != hot
    ] == cold_epochs  # cold shards untouched
    q = Query("q", "people", [EqPredicate("state", 3.0)],
              aggregates=[Aggregate("count", ("state",))])
    ref = HeapFile(people, ("state",), disk, name="people")
    ref.insert(batch, np.arange(people.nrows, people.nrows + n,
                                dtype=np.int64))
    res_s = sharded_scan(shf, q)
    res_u = full_scan(ref, q)
    assert np.array_equal(
        selected_sources(shf, res_s), selected_sources(ref, res_u)
    )


def test_shard_parallel_matches_serial(people, disk):
    queries = [
        Query("q1", "people", [EqPredicate("city", 105.0)],
              aggregates=[Aggregate("sum", ("salary",))]),
        Query("q2", "people", [RangePredicate("state", 10, 20)],
              aggregates=[Aggregate("count", ("state",))]),
        Query("q3", "people", [RangePredicate("salary", 100, 150)],
              aggregates=[Aggregate("sum", ("salary",))]),
        Query("q4", "people", [InPredicate("state", (2.0, 44.0))],
              aggregates=[Aggregate("sum", ("salary",))]),
    ]
    with use_session(EvalSession()) as session:
        db = PhysicalDatabase(
            [sharded_fact_object(people, "people", ("state",),
                                 ShardSpec(4, "state"), disk)]
        )
        serial = {q.name: db.run(q) for q in queries}
        sweep = ParallelSweep(workers=2)
        parallel = run_workload_shard_parallel(db, queries, sweep,
                                               session=session)
    assert set(parallel) == set(serial)
    for name, s in serial.items():
        p = parallel[name]
        assert p.object_name == s.object_name
        assert p.plan == s.plan
        assert p.result.cost == s.result.cost  # bit-identical, not approx
        assert np.array_equal(p.result.mask, s.result.mask)


def test_choose_shard_key_prefers_correlated(people):
    stats = TableStatistics(people, synopsis_rows=2048, seed=0)
    queries = [
        Query("a", "people", [EqPredicate("state", 3.0)], frequency=5.0),
        Query("b", "people", [RangePredicate("region", 1, 2)], frequency=3.0),
    ]
    key = choose_shard_key(stats, queries, 4)
    # state/city/region form a hierarchy; salary is uncorrelated with the
    # predicates, so the key must come from the hierarchy.
    assert key in ("state", "city")


def test_ilp_shard_candidates_no_worse_and_strictly_better(people, disk):
    stats = TableStatistics(people, synopsis_rows=2048, seed=0)
    queries = [
        Query("hot1", "people",
              [EqPredicate("state", 3.0), RangePredicate("salary", 50, 80)],
              aggregates=[Aggregate("sum", ("salary",))], frequency=10.0),
        Query("hot2", "people", [EqPredicate("state", 5.0)],
              aggregates=[Aggregate("sum", ("salary",))], frequency=8.0),
        Query("cold", "people", [RangePredicate("city", 400, 900)],
              aggregates=[Aggregate("count", ("city",))], frequency=1.0),
    ]
    shf = ShardedHeapFile(people, ("city",), disk, ShardSpec(4, "city"),
                          name="people")
    enum = ShardCandidateEnumerator("people", shf, queries, disk)
    base = enum.base_seconds()
    model = CorrelationAwareCostModel(stats, disk)

    def add_global(cands):
        for q in queries:
            key = tuple(p.attr for p in
                        sorted(q.predicates, key=lambda p: p.kind))
            attrs = key + tuple(a for a in q.attributes() if a not in key)
            c = MVCandidate(
                cands.next_id("gmv"), "people", frozenset([q.name]),
                attrs, key, mv_size_bytes(stats, disk, attrs, key),
            )
            g = ObjectGeometry.from_attrs(stats, disk, attrs, key)
            for q2 in queries:
                if c.covers(q2):
                    c.runtimes[q2.name] = model.query_seconds(g, q2)
            cands.add(c)

    global_only = CandidateSet()
    add_global(global_only)
    with_shards = CandidateSet()
    add_global(with_shards)
    enum.add_shard_candidates(with_shards)
    assert len(with_shards) > len(global_only)
    sizes = sorted(c.size_bytes for c in global_only)
    budgets = [sizes[0] // 2, sizes[0], sum(sizes) // 2, sum(sizes)]
    strict_win = False
    for budget in budgets:
        dg = choose_candidates(DesignProblem(global_only, queries, base,
                                             budget))
        ds = choose_candidates(DesignProblem(with_shards, queries, base,
                                             budget))
        assert ds.objective <= dg.objective + 1e-9, (
            f"budget {budget}: shard candidates made the design worse"
        )
        if ds.objective < dg.objective - 1e-9:
            strict_win = True
    assert strict_win, "no budget where shard-local candidates won"


def test_ssb_sharded_correlated_suite_reads_three_times_fewer_pages():
    """``ssb-sharded`` on 8 range shards of the correlation-chosen key:
    every query answers as the unsharded heap file does, and the queries
    pruning localizes read >= 3x fewer modeled pages.  Pruning shows in
    each result's ``shards_scanned`` and in the ``shard.prune`` spans, on
    the serial path and on the shard-parallel one."""
    from repro.workloads.registry import make

    inst = make("ssb-sharded", scale=0.02, seed=7, shards=8)
    fact = "lineorder"
    flat, pk = inst.flat_tables[fact], tuple(inst.primary_keys[fact])
    disk = DiskModel()
    db = PhysicalDatabase(
        [sharded_fact_object(flat, fact, pk, inst.sharding[fact], disk)]
    )
    ref = PhysicalDatabase([PhysicalObject(HeapFile(flat, pk, disk, name=fact))])
    shf, ref_hf = db.object(fact).heapfile, ref.object(fact).heapfile
    pages_sharded = pages_unsharded = 0
    scanned = {}
    with observed("sharded") as obs:
        for q in inst.workload:
            res, res_ref = db.run(q).result, ref.run(q).result
            assert np.array_equal(
                selected_sources(shf, res), selected_sources(ref_hf, res_ref)
            ), q.name
            scanned[q.name] = res.shards_scanned
            if res.shards_scanned < res.shards_total:
                pages_sharded += res.cost.pages_read
                pages_unsharded += res_ref.cost.pages_read
        serial_spans = _prune_spans(obs.tracer.spans)
        with use_session(EvalSession()) as session:
            run_workload_shard_parallel(
                db, inst.workload, ParallelSweep(workers=2), session=session
            )
        parallel_spans = _prune_spans(obs.tracer.spans)[len(serial_spans):]
    assert pages_sharded > 0
    assert pages_unsharded >= 3 * pages_sharded
    # Both paths prune each query to the shards its result scanned.
    for spans in (serial_spans, parallel_spans):
        assert {s.attrs["query"]: s.attrs["scanned"] for s in spans} == scanned
        assert any(s.attrs["scanned"] < s.attrs["shards"] for s in spans)


def _prune_spans(spans) -> list:
    """Every ``shard.prune`` span in a forest, depth first."""
    out = []
    for s in spans:
        if s.name == "shard.prune":
            out.append(s)
        out.extend(_prune_spans(s.children))
    return out


def test_registry_sharded_variants():
    from repro.workloads.registry import make

    inst = make("ssb-sharded", scale=0.02)
    assert inst.sharding is not None
    spec = inst.sharding["lineorder"]
    assert spec.shards == 4 and spec.scheme == RANGE
    assert inst.flat_tables["lineorder"].has_column(spec.key)
    inst2 = make("tpch-sharded", scale=0.02, shards=6,
                 shard_key="l_orderkey", shard_scheme="hash")
    assert inst2.sharding["lineitem"] == ShardSpec(6, "l_orderkey", HASH)


def test_refresh_and_shard_paths_sort_instead_of_hashing(
    people, disk, monkeypatch
):
    """An insert batch into a plain object with a dense B+Tree and into a
    sharded one, a ``catch_up`` of an object built after the batch, a
    sharded delete, IN / equality queries over range and hash shards, and
    a dimension join: none of it calls a plain (hashing) ``np.unique``."""
    from repro.relational.schema import Column, TableSchema
    from repro.relational.table import Table, hash_join
    from repro.relational.types import INT16
    from tests.test_design_units import plain_unique_callers

    plain = PhysicalObject(
        HeapFile(people, ("state",), disk, name="people"),
        btree_keys=[("city",)],
    )
    ranged = sharded_fact_object(
        people, "people", ("state",), ShardSpec(4, "state"), disk
    )
    hashed_shards = sharded_fact_object(
        people, "people", ("state",), ShardSpec(4, "state", HASH), disk
    ).heapfile
    late = PhysicalObject(
        HeapFile(people, ("city",), disk, name="people_by_city"),
        fact="people",
    )
    states = Table(
        TableSchema("states", [Column("state", INT16), Column("zone", INT16)]),
        {"state": np.arange(51), "zone": np.arange(51) % 4},
    )
    rng = np.random.default_rng(11)
    n = 300
    batch = {
        "state": rng.integers(0, 51, n),
        "region": rng.integers(0, 6, n),
        "city": rng.integers(0, 1021, n),
        "salary": rng.integers(20, 220, n),
    }
    queries = [
        Query("in", "people", [InPredicate("state", (2.0, 44.0, 44.0))],
              aggregates=[Aggregate("sum", ("salary",))]),
        Query("eq", "people", [EqPredicate("state", 7.0)],
              aggregates=[Aggregate("count", ("state",))]),
    ]

    hashed = plain_unique_callers(monkeypatch)
    for db in (PhysicalDatabase([plain]), PhysicalDatabase([ranged])):
        ex = RefreshExecutor(db, disk=disk, session=None)
        assert ex.apply_insert("people", batch).rows == n
    ex.apply_delete("people", [RangePredicate("state", 0, 3)])
    db.add(late)
    assert ex.catch_up(late) > 0
    for q in queries:
        for shf in (db.object("people").heapfile, hashed_shards):
            assert sharded_scan(shf, q).shards_scanned < shf.spec.shards
    assert hash_join(people, states, "state", "state").nrows == people.nrows
    assert hashed == []
