"""Tests for the Eq. (3)-(8) metrics and the design-point evaluator."""

import pytest

from repro.mapping import Mapping, MappingEvaluator
from repro.mapping.metrics import (
    core_execution_cycles,
    core_register_bits,
    expected_seus,
    per_core_execution_cycles,
    per_core_register_bits,
    pooled_makespan_s,
    total_register_bits,
)
from repro.taskgraph import TaskGraph
from repro.taskgraph.registers import Register


def shared_pair_graph() -> TaskGraph:
    """a -> b sharing one 100-bit block, with private blocks and comm."""
    g = TaskGraph(name="pair")
    shared = Register("shared", 100)
    g.add_task("a", 1000, registers=[shared], private_register_bits=10)
    g.add_task("b", 2000, registers=[shared], private_register_bits=20)
    g.add_edge("a", "b", 500)
    return g


class TestRegisterMetrics:
    def test_co_located_counts_shared_once(self):
        g = shared_pair_graph()
        together = Mapping({"a": 0, "b": 0}, 2)
        assert core_register_bits(g, together, 0) == 130
        assert core_register_bits(g, together, 1) == 0
        assert total_register_bits(g, together) == 130

    def test_split_duplicates_shared(self):
        g = shared_pair_graph()
        split = Mapping({"a": 0, "b": 1}, 2)
        assert per_core_register_bits(g, split) == (110, 120)
        assert total_register_bits(g, split) == 230

    def test_duplication_delta_is_shared_size(self):
        # The Section III mechanism: split - together == shared bits.
        g = shared_pair_graph()
        split = total_register_bits(g, Mapping({"a": 0, "b": 1}, 2))
        together = total_register_bits(g, Mapping({"a": 0, "b": 0}, 2))
        assert split - together == 100


class TestExecutionCycles:
    def test_same_core_no_comm(self):
        g = shared_pair_graph()
        together = Mapping({"a": 0, "b": 0}, 2)
        assert core_execution_cycles(g, together, 0) == 3000

    def test_cross_core_charges_receive(self):
        g = shared_pair_graph()
        split = Mapping({"a": 0, "b": 1}, 2)
        assert per_core_execution_cycles(g, split) == (1000, 2500)

    def test_pooled_makespan(self):
        g = shared_pair_graph()
        split = Mapping({"a": 0, "b": 1}, 2)
        # 3500 total cycles over 2 cores at 1 MHz each.
        assert pooled_makespan_s(g, split, [1e6, 1e6]) == pytest.approx(3500 / 2e6)

    def test_pooled_makespan_validates(self):
        g = shared_pair_graph()
        split = Mapping({"a": 0, "b": 1}, 2)
        with pytest.raises(ValueError):
            pooled_makespan_s(g, split, [1e6])


class TestExpectedSeus:
    def test_formula(self):
        # Gamma = sum R_i * T_i * lambda_i.
        assert expected_seus([100, 200], [10, 20], [0.1, 0.01]) == pytest.approx(
            100 * 10 * 0.1 + 200 * 20 * 0.01
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            expected_seus([1], [1, 2], [0.1, 0.1])

    def test_zero_everything(self):
        assert expected_seus([], [], []) == 0.0


class TestMappingEvaluator:
    def test_design_point_fields(self, mpeg2_evaluator, rr_mapping4):
        point = mpeg2_evaluator.evaluate(rr_mapping4, (1, 1, 1, 1))
        assert point.power_mw > 0
        assert point.register_bits_total == sum(point.register_bits_per_core)
        assert point.makespan_s > 0
        assert point.expected_seus > 0
        assert len(point.activities) == 4
        assert all(0 <= a <= 1 for a in point.activities)
        assert point.meets_deadline is not None
        schedule = mpeg2_evaluator.schedule_of(point)
        assert schedule is not None
        assert schedule.makespan_s() == point.makespan_s

    def test_gamma_scale_invariant_in_frequency(self, mpeg2_evaluator, rr_mapping4):
        # Full-window exposure in own cycles: Gamma depends on scaling
        # only through lambda(V), so uniform rescaling multiplies Gamma
        # by the lambda ratio (2.5x at s=2 per the Fig. 3 calibration).
        p1 = mpeg2_evaluator.evaluate(rr_mapping4, (1, 1, 1, 1))
        p2 = mpeg2_evaluator.evaluate(rr_mapping4, (2, 2, 2, 2))
        assert p2.expected_seus / p1.expected_seus == pytest.approx(2.5, rel=0.02)

    def test_makespan_doubles_at_half_speed(self, mpeg2_evaluator, rr_mapping4):
        p1 = mpeg2_evaluator.evaluate(rr_mapping4, (1, 1, 1, 1))
        p2 = mpeg2_evaluator.evaluate(rr_mapping4, (2, 2, 2, 2))
        assert p2.makespan_s / p1.makespan_s == pytest.approx(2.0, rel=1e-6)

    def test_deadline_flag(self, mpeg2_evaluator, rr_mapping4):
        fast = mpeg2_evaluator.evaluate(rr_mapping4, (1, 1, 1, 1))
        slow = mpeg2_evaluator.evaluate(rr_mapping4, (3, 3, 3, 3))
        assert fast.meets_deadline is True
        assert slow.meets_deadline is False

    def test_cache_hit_returns_same_object(self, mpeg2_evaluator, rr_mapping4):
        a = mpeg2_evaluator.evaluate(rr_mapping4, (1, 1, 1, 1))
        b = mpeg2_evaluator.evaluate(rr_mapping4, (1, 1, 1, 1))
        assert a is b
        assert mpeg2_evaluator.evaluations == 2
        assert mpeg2_evaluator.cache_entries >= 1

    def test_clear_cache(self, mpeg2_evaluator, rr_mapping4):
        mpeg2_evaluator.evaluate(rr_mapping4, (1, 1, 1, 1))
        mpeg2_evaluator.clear_cache()
        assert mpeg2_evaluator.cache_entries == 0

    def test_hit_miss_counters(self, mpeg2_evaluator, rr_mapping4):
        mpeg2_evaluator.evaluate(rr_mapping4, (1, 1, 1, 1))
        mpeg2_evaluator.evaluate(rr_mapping4, (1, 1, 1, 1))
        mpeg2_evaluator.evaluate(rr_mapping4, (2, 2, 2, 2))
        assert mpeg2_evaluator.cache_hits == 1
        assert mpeg2_evaluator.cache_misses == 2
        info = mpeg2_evaluator.cache_info
        assert info["hits"] == 1 and info["misses"] == 2
        assert info["entries"] == 2

    def test_cache_key_is_canonical_across_equal_mappings(
        self, mpeg2, mpeg2_evaluator
    ):
        names = list(mpeg2.task_names())
        forward = Mapping({name: i % 4 for i, name in enumerate(names)}, 4)
        backward = Mapping(
            {name: i % 4 for i, name in reversed(list(enumerate(names)))}, 4
        )
        first = mpeg2_evaluator.evaluate(forward, (1, 1, 1, 1))
        second = mpeg2_evaluator.evaluate(backward, (1, 1, 1, 1))
        assert first is second  # same canonical signature -> cache hit
        assert mpeg2_evaluator.cache_hits == 1

    def test_cache_hit_cannot_mask_core_count_mismatch(self, mpeg2, platform4):
        # Regression: same per-task assignment, wider num_cores — the
        # cache must miss so the scheduler's width check still fires.
        evaluator = MappingEvaluator(mpeg2, platform4)
        assignment = {name: i % 4 for i, name in enumerate(mpeg2.task_names())}
        evaluator.evaluate(Mapping(assignment, 4), (1, 1, 1, 1))
        with pytest.raises(ValueError, match="cores"):
            evaluator.evaluate(Mapping(assignment, 8), (1, 1, 1, 1))

    def test_true_lru_eviction(self, mpeg2, platform4):
        evaluator = MappingEvaluator(mpeg2, platform4, cache_size=2)
        mapping = Mapping.round_robin(mpeg2, 4)
        evaluator.evaluate(mapping, (1, 1, 1, 1))  # A
        evaluator.evaluate(mapping, (2, 2, 2, 2))  # B
        evaluator.evaluate(mapping, (1, 1, 1, 1))  # touch A -> B is now LRU
        evaluator.evaluate(mapping, (3, 3, 3, 3))  # C evicts B, not A
        assert evaluator.cache_entries == 2
        hits_before = evaluator.cache_hits
        evaluator.evaluate(mapping, (1, 1, 1, 1))  # A still cached
        assert evaluator.cache_hits == hits_before + 1
        misses_before = evaluator.cache_misses
        evaluator.evaluate(mapping, (2, 2, 2, 2))  # B was evicted
        assert evaluator.cache_misses == misses_before + 1

    def test_cache_never_exceeds_size(self, mpeg2, platform4):
        evaluator = MappingEvaluator(mpeg2, platform4, cache_size=3)
        mapping = Mapping.round_robin(mpeg2, 4)
        for level in (1, 2, 3):
            for uniform in ((level,) * 4, (level, 1, level, 1)):
                evaluator.evaluate(mapping, uniform)
        assert evaluator.cache_entries <= 3

    def test_default_scaling_is_platform_state(self, mpeg2_evaluator, rr_mapping4):
        explicit = mpeg2_evaluator.evaluate(
            rr_mapping4, mpeg2_evaluator.platform.scaling_vector()
        )
        implicit = mpeg2_evaluator.evaluate(rr_mapping4)
        assert implicit.scaling == explicit.scaling

    def test_rejects_wrong_scaling_length(self, mpeg2_evaluator, rr_mapping4):
        with pytest.raises(ValueError):
            mpeg2_evaluator.evaluate(rr_mapping4, (1, 1))

    def test_rejects_incomplete_mapping(self, mpeg2_evaluator):
        partial = Mapping({"t1": 0}, 4)
        with pytest.raises(ValueError):
            mpeg2_evaluator.evaluate(partial, (1, 1, 1, 1))

    def test_register_kbits_unit(self, mpeg2_evaluator, rr_mapping4):
        point = mpeg2_evaluator.evaluate(rr_mapping4, (1, 1, 1, 1))
        assert point.register_kbits_total == pytest.approx(
            point.register_bits_total / 1000.0
        )

    def test_summary_mentions_deadline(self, mpeg2_evaluator, rr_mapping4):
        point = mpeg2_evaluator.evaluate(rr_mapping4, (3, 3, 3, 3))
        assert "MISSED" in point.summary()

    def test_localized_mapping_reduces_registers(self, mpeg2_evaluator, mpeg2):
        localized = Mapping.all_on_core(mpeg2, 4, 0)
        spread = Mapping.round_robin(mpeg2, 4)
        r_localized = total_register_bits(mpeg2, localized)
        r_spread = total_register_bits(mpeg2, spread)
        assert r_localized < r_spread  # the Section III trade-off

    def test_localized_mapping_increases_makespan(self, mpeg2_evaluator, mpeg2):
        localized = Mapping.all_on_core(mpeg2, 4, 0)
        spread = Mapping.round_robin(mpeg2, 4)
        tm_localized = mpeg2_evaluator.evaluate(localized, (1, 1, 1, 1)).makespan_s
        tm_spread = mpeg2_evaluator.evaluate(spread, (1, 1, 1, 1)).makespan_s
        assert tm_localized > tm_spread
