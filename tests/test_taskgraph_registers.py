"""Tests for the register-sharing model (Eq. 8 foundations)."""

import pytest

from repro.taskgraph import pipeline_graph
from repro.taskgraph.registers import Register, RegisterMap
from repro.taskgraph.serialize import graph_from_dict, graph_to_dict


def simple_map() -> RegisterMap:
    """Two tasks sharing one 100-bit block plus private blocks."""
    shared = Register("shared", 100)
    return RegisterMap(
        {
            "a": [shared, Register("a.private", 10)],
            "b": [shared, Register("b.private", 20)],
            "c": [Register("c.private", 30)],
        }
    )


class TestRegister:
    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            Register("", 1)

    @pytest.mark.parametrize("bits", [0, -8])
    def test_rejects_non_positive_size(self, bits):
        with pytest.raises(ValueError):
            Register("r", bits)

    @pytest.mark.parametrize("bits", [1200.5, 8.0, True, False, "8", None])
    def test_rejects_non_int_size(self, bits):
        with pytest.raises(ValueError, match="must be an int"):
            Register("r", bits)

    def test_graph_payload_fails_at_the_boundary(self):
        payload = graph_to_dict(pipeline_graph(3))
        payload["registers"][next(iter(payload["registers"]))] = 1200.5
        with pytest.raises(ValueError, match="must be an int"):
            graph_from_dict(payload)

    def test_value_semantics(self):
        assert Register("r", 8) == Register("r", 8)
        assert len({Register("r", 8), Register("r", 8)}) == 1


class TestRegisterMap:
    def test_task_bits(self):
        m = simple_map()
        assert m.task_bits("a") == 110
        assert m.task_bits("b") == 120
        assert m.task_bits("c") == 30

    def test_union_counts_shared_once(self):
        m = simple_map()
        # a + b co-located: shared counted once.
        assert m.union_bits(["a", "b"]) == 100 + 10 + 20

    def test_union_separated_duplicates(self):
        m = simple_map()
        # Separated, each core re-hosts the shared block.
        separated = m.union_bits(["a"]) + m.union_bits(["b"])
        together = m.union_bits(["a", "b"])
        assert separated - together == 100  # exactly the shared block

    def test_shared_bits(self):
        m = simple_map()
        assert m.shared_bits("a", "b") == 100
        assert m.shared_bits("a", "c") == 0

    def test_total_bits(self):
        assert simple_map().total_bits() == 100 + 10 + 20 + 30

    def test_unknown_task(self):
        with pytest.raises(KeyError):
            simple_map().registers_of("ghost")

    def test_conflicting_sizes_rejected(self):
        with pytest.raises(ValueError):
            RegisterMap(
                {
                    "a": [Register("r", 10)],
                    "b": [Register("r", 20)],
                }
            )

    def test_restricted_to(self):
        m = simple_map().restricted_to(["a", "c"])
        assert set(m.tasks()) == {"a", "c"}
        with pytest.raises(KeyError):
            m.registers_of("b")

    def test_from_bit_sizes(self):
        m = RegisterMap.from_bit_sizes(
            {"a": ["r1", "r2"], "b": ["r2"]}, {"r1": 5, "r2": 7}
        )
        assert m.task_bits("a") == 12
        assert m.shared_bits("a", "b") == 7

    def test_from_bit_sizes_undeclared_register(self):
        with pytest.raises(KeyError):
            RegisterMap.from_bit_sizes({"a": ["ghost"]}, {})

    def test_private_only(self):
        m = RegisterMap.private_only({"a": 5, "b": 7})
        assert m.shared_bits("a", "b") == 0
        assert m.total_bits() == 12

    def test_container_protocol(self):
        m = simple_map()
        assert "a" in m
        assert "ghost" not in m
        assert len(m) == 3
        assert set(iter(m)) == {"a", "b", "c"}

    def test_empty_union(self):
        assert simple_map().union_bits([]) == 0
