"""Tests for the observability subsystem (repro.obs) and its integration.

Covers the tracer/counters primitives, the export sinks, the traced
``slice_line`` pipeline, priority-evaluation accounting, per-toggle pruning
counter coverage, and counter reconciliation against the brute-force
lattice oracle.
"""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from repro.baselines import enumerate_all_slices
from repro.core import PruningConfig, SliceLineConfig, slice_line
from repro.obs import (
    NULL_TRACER,
    SCHEMA,
    CounterRegistry,
    LevelCounters,
    NullTracer,
    Tracer,
    counters_table,
    format_trace,
    resolve_tracer,
    run_to_dict,
    write_json,
)


class TestTracer:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner.a"):
                pass
            with tracer.span("inner.b"):
                pass
        assert [s.name for s in tracer.spans] == ["outer"]
        outer = tracer.spans[0]
        assert [c.name for c in outer.children] == ["inner.a", "inner.b"]
        assert tracer.num_spans == 3

    def test_spans_time_and_carry_attrs(self):
        tracer = Tracer()
        with tracer.span("work", items=7) as span:
            span.annotate(result="ok")
        assert span.elapsed_seconds > 0
        assert span.attrs == {"items": 7, "result": "ok"}

    def test_current_tracks_the_open_span(self):
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("a"):
            assert tracer.current.name == "a"
            with tracer.span("b"):
                assert tracer.current.name == "b"
            assert tracer.current.name == "a"
        assert tracer.current is None

    def test_find_and_iter(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("deep"):
                with tracer.span("deeper"):
                    pass
        assert tracer.find("deeper").name == "deeper"
        assert tracer.find("missing") is None
        assert [s.name for s in tracer.iter_spans()] == ["root", "deep", "deeper"]

    def test_to_dict_and_json(self):
        tracer = Tracer()
        with tracer.span("root", n=1):
            with tracer.span("child"):
                pass
        doc = tracer.to_dict()
        assert doc["spans"][0]["name"] == "root"
        assert doc["spans"][0]["attrs"] == {"n": 1}
        assert doc["spans"][0]["children"][0]["name"] == "child"
        json.loads(tracer.to_json())  # must be valid JSON

    def test_memory_tracking_records_high_water(self):
        tracer = Tracer(track_memory=True)
        try:
            with tracer.span("alloc") as span:
                _ = np.zeros(200_000)
            assert span.mem_peak_bytes is not None
            assert span.mem_peak_bytes > 0
        finally:
            tracer.close()
        assert not tracemalloc.is_tracing()

    def test_null_tracer_is_inert_and_shared(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.num_spans == 0
        # the disabled path allocates nothing: span() returns one shared obj
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")
        with NULL_TRACER.span("a", x=1) as span:
            span.annotate(y=2)
        assert NULL_TRACER.to_dict() == {"spans": []}
        assert NULL_TRACER.find("a") is None
        assert list(NULL_TRACER.iter_spans()) == []

    def test_resolve_tracer_variants(self):
        assert resolve_tracer(None) is NULL_TRACER
        assert resolve_tracer(False) is NULL_TRACER
        assert isinstance(resolve_tracer(True), Tracer)
        mem = resolve_tracer("memory")
        try:
            assert mem.track_memory
        finally:
            mem.close()
        tracer = Tracer()
        assert resolve_tracer(tracer) is tracer
        assert resolve_tracer(NULL_TRACER) is NULL_TRACER
        with pytest.raises(TypeError):
            resolve_tracer(42)


class TestCounters:
    def test_add_and_properties(self):
        c = LevelCounters(level=2)
        c.add("pairs_generated", 10)
        c.add("pairs_generated", 5)
        c.pruned_by_size = 2
        c.pruned_by_score = 3
        c.pruned_by_parents = 1
        c.candidates_before_dedup = 9
        c.deduplicated = 7
        assert c.pairs_generated == 15
        assert c.pruned_total == 6
        assert c.dedup_removed == 2
        as_dict = c.to_dict()
        assert as_dict["dedup_removed"] == 2
        assert as_dict["pruned_total"] == 6

    def test_registry_levels_on_demand_and_sorted(self):
        reg = CounterRegistry()
        reg.level(3).evaluated = 30
        reg.level(1).evaluated = 10
        assert reg.level(3) is reg.level(3)
        assert [c.level for c in reg.levels] == [1, 3]
        assert len(reg) == 2
        assert [c.level for c in reg] == [1, 3]
        assert reg.total("evaluated") == 40
        assert reg.totals()["evaluated"] == 40
        assert "level" not in reg.totals()
        doc = reg.to_dict()
        assert len(doc["levels"]) == 2
        assert doc["totals"]["evaluated"] == 40

    def test_reconcile_catches_violations(self):
        reg = CounterRegistry()
        c = reg.level(2)
        c.pairs_generated = 10
        c.invalid_feature_pairs = 1
        c.candidates_before_dedup = 5  # 1 + 0 + 5 != 10 -> violation
        violations = reg.reconcile()
        assert violations and "level 2" in violations[0]

    def test_reconcile_passes_consistent_level(self):
        reg = CounterRegistry()
        c = reg.level(2)
        c.pairs_generated = 10
        c.invalid_feature_pairs = 2
        c.pruned_by_score_pairs = 3
        c.candidates_before_dedup = 5
        c.deduplicated = 4
        c.pruned_by_size = 1
        c.candidates_emitted = 3
        c.evaluated = 2
        c.skipped_by_priority = 1
        assert reg.reconcile() == []
        assert reg.reconcile(start_level=3) == []


class TestTracedRun:
    @pytest.fixture
    def traced(self, planted_dataset):
        x0, errors, _ = planted_dataset
        return slice_line(
            x0, errors, SliceLineConfig(k=4, sigma=10), trace=True
        )

    def test_trace_has_the_pipeline_spans(self, traced):
        tracer = traced.trace
        assert tracer is not None and tracer.enabled
        for name in ("encode", "level1.basic", "level2", "level2.pairs",
                     "level2.evaluate", "pairs.join", "pairs.dedup",
                     "pairs.prune", "evaluate.blocks", "decode"):
            assert tracer.find(name) is not None, name
        # nesting: the join span sits under level2.pairs under level2
        level2 = tracer.find("level2")
        assert level2.find("pairs.join") is not None
        assert level2.attrs["level"] == 2
        assert "evaluated" in level2.attrs  # annotated at level end

    def test_counters_populated_and_consistent(self, traced):
        counters = traced.counters
        assert counters is not None
        assert counters.reconcile() == []
        level1 = counters.level(1)
        assert level1.evaluated == traced.num_onehot_columns
        assert level1.indicator_nnz > 0
        level2 = counters.level(2)
        assert level2.pairs_generated > 0
        assert level2.evaluated > 0
        assert level2.candidates_nnz == level2.candidates_emitted * 2
        # level_stats is the same records the registry owns (alias API)
        assert traced.level_stats == counters.levels

    def test_untraced_run_still_counts(self, planted_dataset):
        x0, errors, _ = planted_dataset
        res = slice_line(x0, errors, SliceLineConfig(k=4, sigma=10))
        assert res.trace is None
        assert res.counters is not None
        assert res.counters.reconcile() == []

    def test_memory_mode_attaches_high_water_marks(self, planted_dataset):
        x0, errors, _ = planted_dataset
        res = slice_line(
            x0, errors, SliceLineConfig(k=4, sigma=10), trace="memory"
        )
        try:
            marks = [s.mem_peak_bytes for s in res.trace.iter_spans()]
            assert marks and all(m is not None for m in marks)
        finally:
            res.trace.close()

    def test_run_to_dict_schema(self, traced):
        doc = run_to_dict(traced)
        assert doc["schema"] == SCHEMA == "repro.obs/v1"
        assert doc["run"]["num_rows"] == 500
        assert doc["counters"]["levels"][0]["level"] == 1
        assert doc["trace"]["spans"]
        json.dumps(doc)  # fully JSON-serializable
        assert traced.to_obs_dict() == doc

    def test_write_json_roundtrip(self, traced, tmp_path):
        path = tmp_path / "obs.json"
        doc = write_json(traced, str(path))
        assert json.loads(path.read_text()) == doc
        with open(tmp_path / "obs2.json", "w") as handle:
            write_json(traced, handle)
        assert json.loads((tmp_path / "obs2.json").read_text()) == doc

    def test_text_sinks_render(self, traced):
        table = counters_table(traced.counters, title="per-level")
        assert "evaluated" in table and "pr_size" in table
        outline = format_trace(traced.trace)
        assert "encode" in outline and "level2.pairs" in outline
        assert counters_table(CounterRegistry()).endswith("<no levels recorded>")
        assert format_trace(Tracer()) == "<no spans recorded>"
        shallow = format_trace(traced.trace, max_depth=0)
        assert "pairs.join" not in shallow

    def test_shared_tracer_collects_multiple_runs(self, planted_dataset):
        x0, errors, _ = planted_dataset
        tracer = Tracer()
        cfg = SliceLineConfig(k=4, sigma=10, max_level=2)
        slice_line(x0, errors, cfg, trace=tracer)
        slice_line(x0, errors, cfg, trace=tracer)
        assert [s.name for s in tracer.spans].count("encode") == 2


class TestPriorityAccounting:
    """Satellite: priority evaluation must account for every candidate and
    must never change the reported top-K (skips are bound-dominated)."""

    @pytest.fixture
    def configs(self):
        base = dict(k=1, sigma=10, alpha=0.95)
        priority = SliceLineConfig(
            **base, priority_evaluation=True, priority_chunk=4
        )
        plain = SliceLineConfig(**base, priority_evaluation=False)
        return priority, plain

    def test_every_candidate_is_accounted_for(self, planted_dataset, configs):
        x0, errors, _ = planted_dataset
        priority, _ = configs
        res = slice_line(x0, errors, priority)
        assert res.counters.reconcile() == []
        skipped_somewhere = False
        for c in res.counters.levels:
            if c.level == 1:
                continue
            assert c.candidates_emitted == c.evaluated + c.skipped_by_priority
            skipped_somewhere |= c.skipped_by_priority > 0
        # tiny chunks + k=1 must actually exercise the skip path
        assert skipped_somewhere

    def test_priority_never_changes_topk(self, planted_dataset, configs):
        x0, errors, _ = planted_dataset
        priority, plain = configs
        res_priority = slice_line(x0, errors, priority)
        res_plain = slice_line(x0, errors, plain)
        np.testing.assert_array_equal(
            res_priority.top_stats, res_plain.top_stats
        )
        np.testing.assert_array_equal(
            res_priority.top_slices_encoded, res_plain.top_slices_encoded
        )
        assert all(
            c.skipped_by_priority == 0 for c in res_plain.counters.levels
        )

    def test_cut_mid_level_never_evaluates_skipped_candidates(self):
        """A chunk after a priority cut stops at the cut, not a full chunk.

        Candidates past the cut are counted as skipped; evaluating them
        anyway would double-count them and break flow conservation.
        """
        gen = np.random.default_rng(1)
        x0 = np.column_stack(
            [gen.integers(1, 5, size=600) for _ in range(7)]
        ).astype(np.int64)
        errors = (gen.random(600) < 0.2).astype(np.float64)
        errors[(x0[:, 0] == 1) & (x0[:, 1] == 2)] = 1.0
        priority = SliceLineConfig(k=8, sigma=8, priority_chunk=64)
        res = slice_line(x0, errors, priority)
        assert res.counters.reconcile() == []
        assert res.counters.total("skipped_by_priority") > 0
        plain = slice_line(
            x0, errors, priority.with_overrides(priority_evaluation=False)
        )
        np.testing.assert_array_equal(res.top_stats, plain.top_stats)
        np.testing.assert_array_equal(
            res.top_slices_encoded, plain.top_slices_encoded
        )


class TestPruningCounterCoverage:
    """Satellite: disabling one pruning toggle zeroes exactly its counter."""

    def _run(self, planted_dataset, pruning, **overrides):
        x0, errors, _ = planted_dataset
        cfg = SliceLineConfig(
            k=4, sigma=10, pruning=pruning,
            priority_evaluation=overrides.pop("priority_evaluation", False),
            **overrides,
        )
        res = slice_line(x0, errors, cfg)
        assert res.counters.reconcile() == []
        return res.counters

    def test_all_enabled_exercises_the_counters(self, planted_dataset):
        counters = self._run(planted_dataset, PruningConfig.all_enabled())
        assert counters.total("pairs_generated") > 0
        assert counters.total("invalid_feature_pairs") > 0
        assert counters.total("pruned_total") > 0

    def test_no_size_pruning_zeroes_its_counter(self, planted_dataset):
        counters = self._run(planted_dataset, PruningConfig(by_size=False))
        assert counters.total("pruned_by_size") == 0

    def test_no_score_pruning_zeroes_all_score_counters(self, planted_dataset):
        counters = self._run(planted_dataset, PruningConfig(by_score=False))
        assert counters.total("pruned_by_score") == 0
        assert counters.total("pruned_by_score_pairs") == 0
        assert counters.total("pruned_by_score_groups") == 0

    def test_no_parent_handling_zeroes_its_counter(self, planted_dataset):
        counters = self._run(
            planted_dataset, PruningConfig(handle_missing_parents=False)
        )
        assert counters.total("pruned_by_parents") == 0

    def test_no_dedup_zeroes_dedup_removed(self, planted_dataset):
        counters = self._run(
            planted_dataset,
            PruningConfig(deduplicate=False, handle_missing_parents=False),
        )
        assert counters.total("dedup_removed") == 0

    def test_no_input_filter_zeroes_its_counter(self, planted_dataset):
        counters = self._run(
            planted_dataset, PruningConfig(filter_input_slices=False)
        )
        assert counters.total("input_filtered") == 0

    def test_no_priority_zeroes_skips(self, planted_dataset):
        counters = self._run(
            planted_dataset, PruningConfig.all_enabled(),
            priority_evaluation=False,
        )
        assert counters.total("skipped_by_priority") == 0


class TestOracleReconciliation:
    """Satellite: with pruning off, per-level evaluated counts must equal
    the lattice node counts of the brute-force oracle."""

    @pytest.fixture
    def full_factorial(self):
        # every (value...) combination appears (3 copies), so every lattice
        # node is non-empty and the enumeration must visit all of them
        domains = (2, 3, 2)
        rows = np.array(
            list(itertools.product(*[range(1, d + 1) for d in domains])),
            dtype=np.int64,
        )
        x0 = np.tile(rows, (3, 1))
        gen = np.random.default_rng(7)
        errors = gen.uniform(0.1, 1.0, size=x0.shape[0])
        return x0, errors

    def test_evaluated_matches_lattice_node_counts(self, full_factorial):
        x0, errors = full_factorial
        cfg = SliceLineConfig(
            k=4, sigma=1, alpha=0.95,
            pruning=PruningConfig(
                by_size=False, by_score=False,
                handle_missing_parents=False, filter_input_slices=False,
            ),
            priority_evaluation=False,
        )
        res = slice_line(x0, errors, cfg)
        assert res.counters.reconcile() == []

        oracle_counts: dict[int, int] = {}
        for node in enumerate_all_slices(x0, errors, alpha=0.95):
            oracle_counts[node.level] = oracle_counts.get(node.level, 0) + 1
        sliceline_counts = {
            c.level: c.evaluated for c in res.counters.levels if c.evaluated
        }
        assert sliceline_counts == oracle_counts


class TestDisabledOverheadSmoke:
    """Cheap CI-friendly bound; the strict 2% end-to-end assertion lives in
    benchmarks/bench_obs_overhead.py."""

    def test_noop_span_is_cheap_and_allocation_free(self):
        import time

        iterations = 50_000
        start = time.perf_counter()
        for _ in range(iterations):
            with NULL_TRACER.span("probe"):
                pass
        per_span = (time.perf_counter() - start) / iterations
        # a no-op span is two method calls; 5us leaves ~20x headroom
        assert per_span < 5e-6
        assert isinstance(NULL_TRACER, NullTracer)
        assert NULL_TRACER.num_spans == 0
