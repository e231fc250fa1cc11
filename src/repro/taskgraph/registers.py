"""Register model: named register sets shared between tasks.

Section II-B / III of the paper: each task occupies a set of registers
(processor, cache and memory registers); related tasks *share* register
sets (e.g. in the MPEG-2 decoder, tasks t5 and t6 share ~6.4 kbit and
t6, t7, t8 share ~8 kbit).  When tasks that share a set are mapped to
*different* cores, each core keeps its own copy — the set is duplicated
and total register usage grows.  When they are co-located the set is
counted once.  Eq. (8) formalizes this: the register usage of core *i*
is the cardinality (in bits) of the union of the register sets of the
tasks mapped on it.

:class:`Register` is a named block of bits; :class:`RegisterMap`
associates each task with the registers it touches and answers the
set-union queries the metrics need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Set, Tuple


@dataclass(frozen=True, order=True)
class Register:
    """A named block of register bits.

    Attributes
    ----------
    name:
        Unique identifier (e.g. ``"r4"`` or ``"mpeg.idct_coeff"``).
    bits:
        Size of the block in bits: a positive ``int`` (``bool`` and
        non-integral sizes are rejected, so graph payloads fail here
        rather than inside the compiled bit planes).
    """

    name: str
    bits: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("register name must be non-empty")
        if isinstance(self.bits, bool) or not isinstance(self.bits, int):
            raise ValueError(
                f"register size must be an int, got {self.bits!r}"
            )
        if self.bits <= 0:
            raise ValueError(f"register size must be positive, got {self.bits}")


class RegisterMap:
    """Task-to-register association with set-union size queries.

    Parameters
    ----------
    task_registers:
        Mapping from task name to the registers that task occupies.
        The same :class:`Register` object (same name) may appear under
        several tasks — that is what sharing means.

    Notes
    -----
    Registers are identified by *name*; two registers with the same
    name must have the same size (a ``ValueError`` is raised
    otherwise), because they denote the same physical block.
    """

    def __init__(self, task_registers: Mapping[str, Iterable[Register]]) -> None:
        self._by_task: Dict[str, FrozenSet[Register]] = {}
        sizes: Dict[str, int] = {}
        for task_name, registers in task_registers.items():
            frozen = frozenset(registers)
            for register in frozen:
                previous = sizes.setdefault(register.name, register.bits)
                if previous != register.bits:
                    raise ValueError(
                        f"register {register.name!r} declared with conflicting "
                        f"sizes {previous} and {register.bits}"
                    )
            self._by_task[task_name] = frozen

    # -- container protocol -------------------------------------------------

    def __contains__(self, task_name: str) -> bool:
        return task_name in self._by_task

    def __iter__(self) -> Iterator[str]:
        return iter(self._by_task)

    def __len__(self) -> int:
        return len(self._by_task)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegisterMap):
            return NotImplemented
        return self._by_task == other._by_task

    # -- queries ---------------------------------------------------------

    def registers_of(self, task_name: str) -> FrozenSet[Register]:
        """The register set occupied by ``task_name``."""
        try:
            return self._by_task[task_name]
        except KeyError:
            raise KeyError(f"unknown task {task_name!r} in register map") from None

    def task_bits(self, task_name: str) -> int:
        """Total bits occupied by one task (its local usage, j=k in Eq. 8)."""
        return sum(register.bits for register in self.registers_of(task_name))

    def union_bits(self, task_names: Iterable[str]) -> int:
        """Bits of the union of the register sets of ``task_names``.

        This is Eq. (8): the register usage ``R_i`` of a core holding
        exactly these tasks.  Shared registers are counted once.
        """
        union: Set[Register] = set()
        for name in task_names:
            union.update(self.registers_of(name))
        return sum(register.bits for register in union)

    def shared_bits(self, task_a: str, task_b: str) -> int:
        """Bits shared between two tasks (intersection of their sets)."""
        shared = self.registers_of(task_a) & self.registers_of(task_b)
        return sum(register.bits for register in shared)

    def all_registers(self) -> FrozenSet[Register]:
        """Every register referenced by any task."""
        union: Set[Register] = set()
        for registers in self._by_task.values():
            union.update(registers)
        return frozenset(union)

    def total_bits(self) -> int:
        """Bits of the union over all tasks (single-core usage)."""
        return sum(register.bits for register in self.all_registers())

    def tasks(self) -> Tuple[str, ...]:
        """Task names covered by this map."""
        return tuple(self._by_task)

    def restricted_to(self, task_names: Iterable[str]) -> "RegisterMap":
        """A sub-map covering only ``task_names``."""
        names = list(task_names)
        return RegisterMap({name: self.registers_of(name) for name in names})

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_bit_sizes(
        cls,
        task_register_names: Mapping[str, Iterable[str]],
        register_bits: Mapping[str, int],
    ) -> "RegisterMap":
        """Build a map from name-based descriptions.

        Parameters
        ----------
        task_register_names:
            Task name -> iterable of register names it occupies.
        register_bits:
            Register name -> size in bits.
        """
        registry = {
            name: Register(name=name, bits=bits) for name, bits in register_bits.items()
        }
        mapping: Dict[str, Set[Register]] = {}
        for task_name, reg_names in task_register_names.items():
            registers: Set[Register] = set()
            for reg_name in reg_names:
                try:
                    registers.add(registry[reg_name])
                except KeyError:
                    raise KeyError(
                        f"task {task_name!r} references undeclared register "
                        f"{reg_name!r}"
                    ) from None
            mapping[task_name] = registers
        return cls(mapping)

    @classmethod
    def private_only(cls, task_bits: Mapping[str, int]) -> "RegisterMap":
        """A map where every task has a private, unshared register block."""
        return cls(
            {
                task_name: [Register(name=f"{task_name}.private", bits=bits)]
                for task_name, bits in task_bits.items()
            }
        )
