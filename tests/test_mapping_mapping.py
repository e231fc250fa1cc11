"""Tests for the Mapping value type."""

import pickle
import random
import sys
import threading

import pytest

from repro.mapping import Mapping

NAMES = tuple(f"t{i}" for i in range(12))


def _eager(names, signature, num_cores, template=None):
    """The assignment ``from_signature`` stands for, built eagerly."""
    if template is None:
        return Mapping(dict(zip(names, signature)), num_cores)
    position = {name: i for i, name in enumerate(names)}
    return Mapping(
        {name: signature[position[name]] for name in template.as_dict()},
        num_cores,
    )


class TestConstruction:
    def test_basic(self):
        m = Mapping({"a": 0, "b": 1}, num_cores=2)
        assert m.core_of("a") == 0
        assert m.core_of("b") == 1
        assert m.num_tasks == 2
        assert m.num_cores == 2

    def test_rejects_out_of_range_core(self):
        with pytest.raises(ValueError):
            Mapping({"a": 2}, num_cores=2)
        with pytest.raises(ValueError):
            Mapping({"a": -1}, num_cores=2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Mapping({}, num_cores=2)

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            Mapping({"a": 0}, num_cores=0)

    def test_from_groups(self):
        m = Mapping.from_groups([["a", "b"], ["c"]])
        assert m.tasks_on(0) == ("a", "b")
        assert m.tasks_on(1) == ("c",)

    def test_from_groups_duplicate_task(self):
        with pytest.raises(ValueError):
            Mapping.from_groups([["a"], ["a"]])

    def test_round_robin(self, pipeline6):
        m = Mapping.round_robin(pipeline6, 3)
        assert m.core_of("t1") == 0
        assert m.core_of("t2") == 1
        assert m.core_of("t3") == 2
        assert m.core_of("t4") == 0

    def test_all_on_core(self, pipeline6):
        m = Mapping.all_on_core(pipeline6, 4, core_index=2)
        assert set(m.used_cores()) == {2}


class TestValueSemantics:
    def test_equality_order_independent(self):
        a = Mapping({"x": 0, "y": 1}, 2)
        b = Mapping({"y": 1, "x": 0}, 2)
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_on_core_count(self):
        assert Mapping({"x": 0}, 1) != Mapping({"x": 0}, 2)

    def test_usable_in_sets(self):
        mappings = {Mapping({"x": 0}, 2), Mapping({"x": 0}, 2), Mapping({"x": 1}, 2)}
        assert len(mappings) == 2


class TestQueries:
    def test_core_groups(self):
        m = Mapping({"a": 0, "b": 1, "c": 0}, 3)
        assert m.core_groups() == (("a", "c"), ("b",), ())

    def test_used_cores(self):
        m = Mapping({"a": 0, "b": 2}, 3)
        assert m.used_cores() == (0, 2)

    def test_same_core(self):
        m = Mapping({"a": 0, "b": 0, "c": 1}, 2)
        assert m.same_core("a", "b")
        assert not m.same_core("a", "c")

    def test_unknown_task(self):
        m = Mapping({"a": 0}, 1)
        with pytest.raises(KeyError):
            m.core_of("ghost")

    def test_tasks_on_invalid_core(self):
        m = Mapping({"a": 0}, 1)
        with pytest.raises(ValueError):
            m.tasks_on(5)

    def test_as_dict_is_copy(self):
        m = Mapping({"a": 0}, 1)
        d = m.as_dict()
        d["a"] = 99
        assert m.core_of("a") == 0

    def test_container_protocol(self):
        m = Mapping({"a": 0, "b": 1}, 2)
        assert "a" in m
        assert len(m) == 2
        assert set(iter(m)) == {"a", "b"}


class TestNeighbours:
    def test_move_returns_new_mapping(self):
        m = Mapping({"a": 0, "b": 1}, 2)
        moved = m.move("a", 1)
        assert moved.core_of("a") == 1
        assert m.core_of("a") == 0  # original untouched

    def test_swap(self):
        m = Mapping({"a": 0, "b": 1}, 2)
        swapped = m.swap("a", "b")
        assert swapped.core_of("a") == 1
        assert swapped.core_of("b") == 0

    def test_swap_is_involution(self):
        m = Mapping({"a": 0, "b": 1, "c": 1}, 3)
        assert m.swap("a", "b").swap("a", "b") == m

    def test_move_unknown_task(self):
        with pytest.raises(KeyError):
            Mapping({"a": 0}, 2).move("ghost", 1)


class TestValidation:
    def test_validate_against_graph(self, pipeline6):
        good = Mapping.round_robin(pipeline6, 2)
        good.validate_against(pipeline6)

    def test_missing_task_detected(self, pipeline6):
        partial = Mapping({"t1": 0}, 2)
        with pytest.raises(ValueError, match="misses"):
            partial.validate_against(pipeline6)

    def test_extra_task_detected(self, pipeline6):
        assignment = {name: 0 for name in pipeline6.task_names()}
        assignment["ghost"] = 1
        with pytest.raises(ValueError, match="unknown"):
            Mapping(assignment, 2).validate_against(pipeline6)


class TestFromSignature:
    """Lazily built signature mappings behave as eagerly built ones."""

    def _templates(self, rng):
        shuffled = list(NAMES)
        rng.shuffle(shuffled)
        lazy = Mapping.from_signature(NAMES[::-1], (0,) * len(NAMES), 2)
        return [
            None,
            Mapping({name: 0 for name in NAMES}, 1),
            Mapping({name: 0 for name in shuffled}, 1),
            lazy,
        ]

    def test_matches_eager_mapping(self):
        rng = random.Random(5)
        for template in self._templates(rng):
            for _ in range(20):
                num_cores = rng.randrange(1, 5)
                signature = tuple(rng.randrange(num_cores) for _ in NAMES)
                lazy = Mapping.from_signature(
                    NAMES, signature, num_cores, template=template
                )
                eager = _eager(NAMES, signature, num_cores, template)
                assert lazy == eager and eager == lazy
                assert hash(lazy) == hash(eager)
                assert pickle.dumps(lazy) == pickle.dumps(eager)
                assert lazy.core_groups() == eager.core_groups()
                assert pickle.loads(pickle.dumps(lazy)) == eager

    def test_each_read_builds_the_same_assignment(self):
        signature = (1, 0, 2) * 4
        template = Mapping({name: 0 for name in reversed(NAMES)}, 1)
        eager = _eager(NAMES, signature, 3, template)
        reads = (
            lambda m: m.core_groups(),
            lambda m: m.as_dict(),
            lambda m: list(m),
            len,
            hash,
            repr,
            lambda m: m.core_of("t5"),
            lambda m: m.move("t0", 2),
            lambda m: m.core_index_list(NAMES),
        )
        for read in reads:
            lazy = Mapping.from_signature(NAMES, signature, 3, template=template)
            assert read(lazy) == read(eager)
            assert lazy.num_cores == 3
        with pytest.raises(AttributeError, match="no attribute 'ghost'"):
            lazy.ghost

    def test_concurrent_first_reads_agree(self):
        signature = (2, 0, 1) * 4
        template = Mapping({name: 0 for name in reversed(NAMES)}, 1)
        eager = _eager(NAMES, signature, 3, template)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(200):
                lazy = Mapping.from_signature(NAMES, signature, 3, template=template)
                seen = []
                barrier = threading.Barrier(8)

                def read(lazy=lazy, seen=seen, barrier=barrier):
                    barrier.wait(timeout=10)
                    seen.append(lazy.core_groups())

                threads = [threading.Thread(target=read) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                assert seen == [eager.core_groups()] * 8
        finally:
            sys.setswitchinterval(interval)

    def test_template_order_reused_across_calls(self):
        template = Mapping({name: 0 for name in reversed(NAMES)}, 1)
        first = Mapping.from_signature(NAMES, (0,) * 12, 2, template=template)
        second = Mapping.from_signature(NAMES, (1,) * 12, 2, template=template)
        assert list(first) == list(second) == list(reversed(NAMES))
        # A names sequence the template does not cover fails at call time.
        with pytest.raises(KeyError):
            Mapping.from_signature(NAMES[:-1], (0,) * 11, 2, template=template)

    @pytest.mark.parametrize(
        "names, signature, num_cores",
        [
            ((), (), 2),
            (NAMES[:3], (0, -1, 1), 2),
            (NAMES[:3], (0, 2, 1), 2),
            (NAMES[:3], (3, 7, 1), 2),
            (NAMES[:3], (0, 0, 0), 0),
        ],
    )
    @pytest.mark.parametrize("with_template", [False, True])
    def test_invalid_signature_raises_like_constructor(
        self, names, signature, num_cores, with_template
    ):
        template = (
            Mapping({name: 0 for name in reversed(names)}, 1)
            if with_template and names
            else None
        )
        with pytest.raises(ValueError) as expected:
            _eager(names, signature, num_cores, template)
        with pytest.raises(ValueError) as raised:
            Mapping.from_signature(names, signature, num_cores, template=template)
        assert str(raised.value) == str(expected.value)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="signature has 2 entries for 3"):
            Mapping.from_signature(NAMES[:3], (0, 1), 2)
