"""Workload compression: dedup, clustering, streaming top-k.

The contract under test: the log front-end is *lossless in weight* — every
event's count lands in exactly one representative's frequency, to the
float64 ulp — and *deterministic in shape* — fingerprints, cluster
assignments and representative order depend only on (templates, spec,
code), never on log seed or iteration order.  With a representative budget
at or above the unique-query count, compression is the identity and the
designer produces a bit-identical design; well below it, the design still
runs the full deduped workload within 5% of the full-dedup design.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.design.designer import CoraddDesigner, DesignerConfig
from repro.engine import EvalSession, use_session
from repro.relational.query import Workload
from repro.stats.collector import TableStatistics
from repro.workloads.compress import (
    StreamingCompressor,
    compress_workload,
    dedup_log,
    generate_log,
    materialize_code,
)
from repro.workloads.registry import make

CONFIG = dict(t0=1, alphas=(0.0, 0.25), use_feedback=False)


@pytest.fixture(scope="module")
def inst():
    return make(
        "ssb-log",
        lineorder_rows=6_000,
        seed=3,
        log_queries=50_000,
        log_slots=8,
    )


@pytest.fixture(scope="module")
def deduped(inst):
    return dedup_log(inst.log)


@pytest.fixture(scope="module")
def stats(inst):
    return {
        fact: TableStatistics(inst.flat_tables[fact])
        for fact in inst.workload.fact_tables()
    }


@pytest.fixture(scope="module")
def small_log(inst):
    """(design function, deduped 5k-event log, its full-dedup design)."""
    log = generate_log(
        inst.workload, inst.log.spec, n_queries=5_000, n_slots=4, seed=5
    )
    deduped = dedup_log(log)

    def design(workload: Workload):
        designer = CoraddDesigner(
            inst.flat_tables,
            workload,
            inst.primary_keys,
            inst.fk_attrs,
            config=DesignerConfig(**CONFIG),
        )
        return designer.design(int(inst.total_base_bytes() * 0.6))

    return design, deduped, design(deduped.workload)


# ------------------------------------------------------------------- dedup


class TestDedup:
    def test_weight_conserved_exactly(self, inst, deduped):
        # Integer event counts summed in float64: exact, not approximate.
        assert deduped.total_weight == float(len(inst.log))
        assert deduped.n_entries == len(inst.log)

    def test_ratio_reflects_folding(self, inst, deduped):
        assert len(deduped.workload) <= deduped.n_unique_codes
        assert deduped.ratio == len(inst.log) / len(deduped.workload)
        assert deduped.ratio >= 50.0

    def test_fingerprints_stable_across_log_seeds(self, inst):
        # Different log seeds draw different mixes, but a given code always
        # materializes to the same fingerprint — so the deduped workloads
        # agree wherever their logs overlap.
        log_a = generate_log(
            inst.workload, inst.log.spec, n_queries=20_000, n_slots=8, seed=1
        )
        log_b = generate_log(
            inst.workload, inst.log.spec, n_queries=20_000, n_slots=8, seed=2
        )
        by_name_a = {
            q.name: q.fingerprint() for q in dedup_log(log_a).workload
        }
        by_name_b = {
            q.name: q.fingerprint() for q in dedup_log(log_b).workload
        }
        shared = set(by_name_a) & set(by_name_b)
        assert shared
        for name in shared:
            assert by_name_a[name] == by_name_b[name]

    def test_dedup_deterministic(self, inst, deduped):
        again = dedup_log(inst.log)
        assert [q.name for q in again.workload] == [
            q.name for q in deduped.workload
        ]
        assert [q.frequency for q in again.workload] == [
            q.frequency for q in deduped.workload
        ]

    def test_materialize_slot_zero_is_template(self, inst):
        n_slots = inst.log.n_slots
        template = inst.workload.queries[2]
        q = materialize_code(
            inst.workload, inst.log.spec, 2 * n_slots, n_slots, frequency=7.0
        )
        assert q.name == template.name
        assert q.fingerprint() == template.fingerprint()
        assert q.frequency == 7.0

    def test_entries_match_codes(self, inst):
        log = inst.log
        codes = log.codes()
        for i in (0, len(log) // 2, len(log) - 1):
            q = log.entry(i)
            expected = materialize_code(
                log.templates, log.spec, int(codes[i]), log.n_slots
            )
            assert q.fingerprint() == expected.fingerprint()


# -------------------------------------------------------------- clustering


class TestCompressWorkload:
    def test_weight_conserved_exactly(self, inst, deduped, stats):
        compressed = compress_workload(
            deduped.workload, stats, max_representatives=12
        )
        assert compressed.total_weight == float(len(inst.log))
        assert compressed.n_representatives <= 12

    def test_deterministic(self, deduped, stats):
        a = compress_workload(deduped.workload, stats, max_representatives=10)
        b = compress_workload(deduped.workload, stats, max_representatives=10)
        assert [q.name for q in a.workload] == [q.name for q in b.workload]
        assert [q.frequency for q in a.workload] == [
            q.frequency for q in b.workload
        ]
        assert a.assignment == b.assignment
        # Pinned: a change that moves the representatives changes this.
        assert a.fingerprint() == b.fingerprint() == "bb306803bf3a36f4"

    def test_assignment_covers_every_input(self, deduped, stats):
        compressed = compress_workload(
            deduped.workload, stats, max_representatives=10
        )
        rep_names = {q.name for q in compressed.workload}
        assert set(compressed.assignment) == {
            q.name for q in deduped.workload
        }
        assert set(compressed.assignment.values()) == rep_names
        # Weight flows along the assignment: each representative's
        # frequency is the exact sum of its members'.
        by_rep: dict[str, float] = {}
        for q in deduped.workload:
            by_rep[compressed.assignment[q.name]] = (
                by_rep.get(compressed.assignment[q.name], 0.0) + q.frequency
            )
        for rep in compressed.workload:
            assert rep.frequency == pytest.approx(by_rep[rep.name], rel=1e-12)

    def test_heavy_hitters_pinned_verbatim(self, deduped, stats):
        compressed = compress_workload(
            deduped.workload, stats, max_representatives=12, head_share=0.5
        )
        by_weight = sorted(
            deduped.workload, key=lambda q: -q.frequency
        )
        reps = {q.name: q for q in compressed.workload}
        # The heaviest input query survives under its own name with its own
        # weight folded in (it may also absorb tail members as a medoid).
        heaviest = by_weight[0]
        assert compressed.assignment[heaviest.name] == heaviest.name
        assert reps[heaviest.name].frequency >= heaviest.frequency

    def test_identity_when_budget_covers(self, deduped, stats):
        n = len(deduped.workload)
        compressed = compress_workload(
            deduped.workload, stats, max_representatives=n
        )
        assert [q.name for q in compressed.workload] == [
            q.name for q in deduped.workload
        ]
        assert [q.frequency for q in compressed.workload] == [
            q.frequency for q in deduped.workload
        ]

    def test_design_parity_on_small_log(self, small_log, stats):
        # A budget >= the unique-query count makes compression the
        # identity, so the designer must produce a bit-identical design.
        design, deduped, full = small_log
        compressed = compress_workload(
            deduped.workload, stats, max_representatives=len(deduped.workload)
        )
        comp = design(compressed.workload)
        assert comp.fingerprint() == full.fingerprint()
        assert comp.ilp.chosen_ids == full.ilp.chosen_ids
        assert comp.ilp.assignment == full.ilp.assignment
        assert comp.total_expected_seconds == pytest.approx(
            full.total_expected_seconds, rel=1e-12
        )

    def test_top_k_quality_within_5_percent_of_full_dedup(
        self, small_log, stats
    ):
        # Measured, not modeled: both designs run the *full* deduped
        # workload on their materialized databases.
        design, deduped, full = small_log
        compressed = compress_workload(
            deduped.workload, stats, max_representatives=16
        )
        assert 7 * compressed.n_representatives <= len(deduped.workload)
        with use_session(EvalSession()) as session:
            full_s, top_k_s = (
                d.materialize(session).total_seconds(deduped.workload)
                for d in (full, design(compressed.workload))
            )
        assert top_k_s <= 1.05 * full_s

    def test_rejects_bad_knobs(self, deduped, stats):
        with pytest.raises(ValueError):
            compress_workload(deduped.workload, stats, max_representatives=0)
        with pytest.raises(ValueError):
            compress_workload(
                deduped.workload, stats, max_representatives=4, head_share=1.5
            )


# --------------------------------------------------------------- streaming


class TestStreamingCompressor:
    def _mix(self, inst, template_ids, n, seed=0):
        rng = np.random.default_rng(seed)
        tids = rng.choice(np.asarray(template_ids), size=n)
        slots = np.zeros(n, dtype=np.int64)
        return tids, slots

    def test_first_poll_emits_full_mix(self, inst):
        comp = StreamingCompressor.for_log(inst.log, capacity=8)
        tids, slots = self._mix(inst, [0, 1, 2], 5_000)
        comp.observe(tids, slots)
        delta = comp.poll()
        assert delta is not None
        assert len(delta.added) == 3
        assert not delta.removed
        assert comp.emissions == 1

    def test_steady_mix_stays_quiet(self, inst):
        comp = StreamingCompressor.for_log(inst.log, capacity=8)
        tids, slots = self._mix(inst, [0, 1, 2], 5_000)
        comp.observe(tids, slots)
        assert comp.poll() is not None
        for seed in (1, 2, 3):
            more_t, more_s = self._mix(inst, [0, 1, 2], 5_000, seed=seed)
            comp.observe(more_t, more_s)
            assert comp.poll() is None

    def test_shift_emits_delta_and_decay_evicts(self, inst):
        comp = StreamingCompressor.for_log(
            inst.log, capacity=3, half_life=2_000.0
        )
        tids, slots = self._mix(inst, [0, 1, 2], 6_000)
        comp.observe(tids, slots)
        assert comp.poll() is not None
        before = {q.name for q in comp.current_workload()}
        # A hard pivot to disjoint templates: after several half-lives the
        # old mix's decayed weights fall out of the top-k entirely.
        tids2, slots2 = self._mix(inst, [3, 4, 5], 20_000, seed=9)
        comp.observe(tids2, slots2)
        delta = comp.poll()
        assert delta is not None
        after = {q.name for q in comp.current_workload()}
        assert after.isdisjoint(before)
        assert {q.name for q in delta.added} == after
        assert set(delta.removed) == before

    def test_reweight_not_churn_on_same_mix(self, inst):
        # The same codes at shifted proportions re-emit as reweights (and
        # possibly additions), never as remove+add churn of live names.
        comp = StreamingCompressor.for_log(
            inst.log, capacity=4, half_life=1_000.0, shift_threshold=0.1
        )
        tids, slots = self._mix(inst, [0, 1], 4_000)
        comp.observe(tids, slots)
        assert comp.poll() is not None
        rng = np.random.default_rng(7)
        skewed = rng.choice(np.array([0, 1]), size=8_000, p=[0.95, 0.05])
        comp.observe(skewed, np.zeros(8_000, dtype=np.int64))
        delta = comp.poll()
        assert delta is not None
        assert not delta.removed
        assert not delta.added
        assert delta.reweighted

    def test_decay_batch_matches_event_at_a_time(self, inst):
        batch = StreamingCompressor.for_log(inst.log, half_life=100.0)
        single = StreamingCompressor.for_log(inst.log, half_life=100.0)
        rng = np.random.default_rng(11)
        tids = rng.integers(0, 6, size=300)
        slots = rng.integers(0, inst.log.n_slots, size=300)
        batch.observe(tids, slots)
        for t, s in zip(tids, slots):
            single.observe(np.array([t]), np.array([s]))
        np.testing.assert_allclose(
            batch._weights, single._weights, rtol=1e-10, atol=1e-12
        )

    def test_observe_log_slice(self, inst):
        comp = StreamingCompressor.for_log(inst.log)
        comp.observe_log(inst.log, start=0, end=10_000)
        assert comp.events == 10_000
        workload = comp.current_workload()
        assert 0 < len(workload) <= comp.capacity
