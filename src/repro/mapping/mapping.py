"""Task-to-core mapping.

A :class:`Mapping` assigns every task of a graph to one of ``C``
processing cores.  Mappings are hashable and treated as values: the
optimizers derive neighbours with :meth:`Mapping.move` and
:meth:`Mapping.swap` rather than mutating in place, which keeps search
bookkeeping (best-so-far, tabu sets, caches) trivially correct.

Mappings built by :meth:`Mapping.from_signature` (the evaluator's
cache-miss path) are *lazy*: they keep the dense signature and build
the task-name assignment dict only when something reads it.  The
search loop never does, so a miss costs a range check instead of an
O(N) dict build; equality, hashing, pickling and ``core_groups()``
order are those of the eagerly built mapping.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    Iterator,
    Mapping as TMapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.taskgraph.graph import TaskGraph


class Mapping:
    """An assignment of task names to core indices.

    Parameters
    ----------
    assignment:
        Task name -> 0-based core index.
    num_cores:
        Number of cores in the platform; every index must be within
        ``[0, num_cores)``.
    """

    __slots__ = (
        "_assignment",
        "_num_cores",
        "_hash",
        "_sig_memo",
        "_pending",
        "_order_memo",
    )

    def __init__(self, assignment: TMapping[str, int], num_cores: int) -> None:
        if num_cores <= 0:
            raise ValueError(f"num_cores must be positive, got {num_cores}")
        frozen: Dict[str, int] = {}
        for task_name, core_index in assignment.items():
            if not 0 <= core_index < num_cores:
                raise ValueError(
                    f"task {task_name!r} mapped to core {core_index}, outside "
                    f"0..{num_cores - 1}"
                )
            frozen[task_name] = core_index
        if not frozen:
            raise ValueError("a mapping must assign at least one task")
        self._assignment = frozen
        self._num_cores = num_cores
        self._hash: Optional[int] = None
        self._sig_memo: Optional[Tuple[object, Tuple[int, ...], int]] = None
        self._pending = None
        self._order_memo = None

    def __getattr__(self, name: str):
        # Only reached for unset slots: a from_signature mapping's
        # assignment, built here on first use.  ``_pending`` is never
        # cleared, so threads racing on the first read each build the
        # same dict instead of one of them finding it gone.
        if name != "_assignment":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        assignment = self._build_assignment(*self._pending)
        self._assignment = assignment
        return assignment

    @staticmethod
    def _build_assignment(
        keys: Tuple[str, ...],
        signature: Tuple[int, ...],
        order: Optional[Tuple[int, ...]],
    ) -> Dict[str, int]:
        """``keys[j] -> signature[order[j]]`` (``signature[j]`` when
        ``order`` is ``None``), in ``keys`` order."""
        if order is not None:
            signature = map(signature.__getitem__, order)
        return dict(zip(keys, signature))

    def __reduce__(self):
        # Pickle only the assignment + core count: the signature memo
        # holds a compiled-graph reference that must not ride along
        # into process-pool workers (they rebuild their own views).
        return (type(self), (self._assignment, self._num_cores))

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return (
            self._num_cores == other._num_cores
            and self._assignment == other._assignment
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self._num_cores, tuple(sorted(self._assignment.items())))
            )
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        groups = ", ".join(
            f"core{core}: {sorted(tasks)}" for core, tasks in enumerate(self.core_groups())
        )
        return f"Mapping({groups})"

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._assignment)

    def __contains__(self, task_name: str) -> bool:
        return task_name in self._assignment

    def __iter__(self) -> Iterator[str]:
        return iter(self._assignment)

    # -- queries ----------------------------------------------------------

    @property
    def num_cores(self) -> int:
        """Number of cores this mapping targets."""
        return self._num_cores

    @property
    def num_tasks(self) -> int:
        """Number of mapped tasks."""
        return len(self._assignment)

    def core_of(self, task_name: str) -> int:
        """The core a task is mapped to."""
        try:
            return self._assignment[task_name]
        except KeyError:
            raise KeyError(f"task {task_name!r} not in mapping") from None

    def tasks_on(self, core_index: int) -> Tuple[str, ...]:
        """Tasks mapped to ``core_index`` (insertion order)."""
        if not 0 <= core_index < self._num_cores:
            raise ValueError(f"core index {core_index} outside 0..{self._num_cores - 1}")
        return tuple(
            name for name, core in self._assignment.items() if core == core_index
        )

    def core_groups(self) -> Tuple[Tuple[str, ...], ...]:
        """Per-core task tuples, indexed by core."""
        groups: Tuple[list, ...] = tuple([] for _ in range(self._num_cores))
        for name, core in self._assignment.items():
            groups[core].append(name)
        return tuple(tuple(group) for group in groups)

    def used_cores(self) -> Tuple[int, ...]:
        """Indices of cores with at least one task."""
        return tuple(
            core for core, tasks in enumerate(self.core_groups()) if tasks
        )

    def as_dict(self) -> Dict[str, int]:
        """A plain-dict copy of the assignment."""
        return dict(self._assignment)

    def same_core(self, task_a: str, task_b: str) -> bool:
        """Whether two tasks are co-located."""
        return self.core_of(task_a) == self.core_of(task_b)

    def core_index_list(self, task_names: Sequence[str]) -> list:
        """Cores of ``task_names``, in order — the compiled hot path.

        Requires the mapping to cover *exactly* these tasks and raises
        the same ``ValueError`` wording as :meth:`validate_against`
        otherwise, so compiled and reference code paths fail alike.
        """
        assignment = self._assignment
        if len(assignment) == len(task_names):
            try:
                return [assignment[name] for name in task_names]
            except KeyError:
                pass
        missing = sorted(name for name in task_names if name not in assignment)
        if missing:
            raise ValueError(f"mapping misses tasks: {missing}")
        extra = sorted(set(assignment) - set(task_names))
        raise ValueError(f"mapping has unknown tasks: {extra}")

    def signature_info(self, compiled) -> Tuple[Tuple[int, ...], int]:
        """Canonical signature + hash of this mapping under ``compiled``.

        The signature is the core of every task in compiled index
        order (the evaluator's cache key); the hash is the compiled
        view's Zobrist-style :meth:`~repro.taskgraph.compiled.
        CompiledTaskGraph.signature_hash`.  Memoized on the mapping
        (keyed by compiled-view identity) — search loops and
        benchmarks re-present the same mapping object many times, and
        the O(N) signature walk was the dominant cost of a cache hit.
        """
        memo = self._sig_memo
        if memo is not None and memo[0] is compiled:
            return memo[1], memo[2]
        signature = tuple(self.core_index_list(compiled.names))
        sig_hash = compiled.signature_hash(signature, self._num_cores)
        self._sig_memo = (compiled, signature, sig_hash)
        return signature, sig_hash

    # -- validation -----------------------------------------------------------

    def validate_against(self, graph: TaskGraph) -> None:
        """Check this mapping covers exactly the tasks of ``graph``."""
        graph_tasks = set(graph.task_names())
        mapped_tasks = set(self._assignment)
        missing = graph_tasks - mapped_tasks
        if missing:
            raise ValueError(f"mapping misses tasks: {sorted(missing)}")
        extra = mapped_tasks - graph_tasks
        if extra:
            raise ValueError(f"mapping has unknown tasks: {sorted(extra)}")

    # -- neighbour constructors -------------------------------------------------

    def move(self, task_name: str, core_index: int) -> "Mapping":
        """A copy with ``task_name`` moved to ``core_index``."""
        self.core_of(task_name)  # raise on unknown task
        assignment = dict(self._assignment)
        assignment[task_name] = core_index
        return Mapping(assignment, self._num_cores)

    def swap(self, task_a: str, task_b: str) -> "Mapping":
        """A copy with the cores of two tasks exchanged."""
        core_a, core_b = self.core_of(task_a), self.core_of(task_b)
        assignment = dict(self._assignment)
        assignment[task_a], assignment[task_b] = core_b, core_a
        return Mapping(assignment, self._num_cores)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_groups(
        cls, groups: Iterable[Iterable[str]], num_cores: Optional[int] = None
    ) -> "Mapping":
        """Build a mapping from per-core task groups.

        ``groups[i]`` lists the tasks on core ``i``.  ``num_cores``
        defaults to the number of groups.
        """
        groups = [list(group) for group in groups]
        cores = num_cores if num_cores is not None else len(groups)
        assignment: Dict[str, int] = {}
        for core_index, group in enumerate(groups):
            for task_name in group:
                if task_name in assignment:
                    raise ValueError(f"task {task_name!r} appears in two groups")
                assignment[task_name] = core_index
        return cls(assignment, cores)

    @classmethod
    def from_signature(
        cls,
        names: Sequence[str],
        signature: Sequence[int],
        num_cores: int,
        template: Optional["Mapping"] = None,
    ) -> "Mapping":
        """Build a mapping from a dense core signature over ``names``.

        ``signature[i]`` is the core of ``names[i]`` (the evaluator's
        canonical order).  When ``template`` is given, the assignment
        dict reuses *its* task insertion order — neighbour mappings
        derived via :meth:`move`/:meth:`swap` preserve their ancestor's
        order, and rendered artifacts (``core_groups`` listings) must
        not depend on whether a mapping came from the descriptor or
        the Mapping-based search loop.

        Only the length and core range are checked here (C-level
        ``min``/``max``); a valid signature yields a lazy mapping whose
        assignment dict is built on first read.  An empty or
        out-of-range signature goes through the constructor, so the
        ``ValueError`` wording is the constructor's.
        """
        if len(signature) != len(names):
            raise ValueError(
                f"signature has {len(signature)} entries for {len(names)} tasks"
            )
        signature = tuple(signature)
        names = tuple(names)
        if template is None:
            keys, order = names, None
        else:
            keys, order = template._order_under(names)
        if not signature or min(signature) < 0 or max(signature) >= num_cores:
            # The constructor raises with its usual wording.
            return cls(cls._build_assignment(keys, signature, order), num_cores)
        mapping = cls.__new__(cls)
        mapping._num_cores = num_cores
        mapping._hash = None
        mapping._sig_memo = None
        mapping._pending = (keys, signature, order)
        mapping._order_memo = None
        return mapping

    def _order_under(
        self, names: Tuple[str, ...]
    ) -> Tuple[Tuple[str, ...], Optional[Tuple[int, ...]]]:
        """This mapping's task order and its positions in ``names``.

        Returns ``(keys, order)``: ``keys`` are this mapping's tasks in
        insertion order and ``order[j]`` is the position of ``keys[j]``
        in ``names`` (``None`` when the two orders agree).  Memoized
        per ``names`` object, so a template pays the O(N) index walk
        once, not on every :meth:`from_signature` call.
        """
        memo = self._order_memo
        if memo is not None and memo[0] is names:
            return memo[1], memo[2]
        keys = tuple(self._assignment)
        order: Optional[Tuple[int, ...]] = None
        if keys != names:
            index = {name: i for i, name in enumerate(names)}
            order = tuple([index[name] for name in keys])
        self._order_memo = (names, keys, order)
        return keys, order

    @classmethod
    def round_robin(cls, graph: TaskGraph, num_cores: int) -> "Mapping":
        """Tasks dealt to cores in topological order (a simple baseline)."""
        assignment = {
            name: index % num_cores
            for index, name in enumerate(graph.topological_order())
        }
        return cls(assignment, num_cores)

    @classmethod
    def all_on_core(cls, graph: TaskGraph, num_cores: int, core_index: int = 0) -> "Mapping":
        """Every task on a single core (minimum register duplication)."""
        return cls({name: core_index for name in graph.task_names()}, num_cores)
