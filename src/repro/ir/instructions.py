"""Instruction classes of the intermediate representation.

The set of instructions mirrors the subset of LLVM that the paper's analyses
care about:

* integer arithmetic (``add``, ``sub``, ``mul``, ``div``, ``rem``),
* integer comparisons (``icmp``) and conditional/unconditional branches,
* φ-functions,
* memory: ``alloca`` (stack allocation), ``malloc`` (heap allocation),
  ``load``, ``store``,
* ``getelementptr`` for pointer arithmetic (a base pointer plus an index),
* ``copy`` — the parallel copies introduced by the e-SSA transformation
  (live-range splits; they are not real machine instructions and are removed
  before code generation, exactly as the paper describes),
* function ``call`` and ``ret``.

Instructions are also :class:`~repro.ir.values.Value` instances, so the
result of an instruction can be used directly as an operand of another.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.ir.types import BOOL, BoolType, IntType, PointerType, Type, VoidType
from repro.ir.values import Constant, ConstantInt, Value

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.basicblock import BasicBlock
    from repro.ir.function import Function


class Instruction(Value):
    """Base class of all instructions.

    Operand storage is uniform: ``self._operands`` is a list of values, and
    every mutation goes through :meth:`set_operand` so that use lists stay
    consistent.
    """

    #: mnemonic used by the printer; subclasses override it.
    opcode = "instr"

    def __init__(self, ty: Type, operands: Sequence[Value] = (), name: str = "") -> None:
        super().__init__(ty, name)
        self._operands: List[Value] = []
        self.parent: Optional["BasicBlock"] = None
        for operand in operands:
            self.append_operand(operand)

    # -- operand management --------------------------------------------------
    @property
    def operands(self) -> Tuple[Value, ...]:
        return tuple(self._operands)

    def append_operand(self, value: Value) -> None:
        index = len(self._operands)
        self._operands.append(value)
        value.add_use(self, index)

    def set_operand(self, index: int, value: Value) -> None:
        old = self._operands[index]
        old.remove_use(self, index)
        self._operands[index] = value
        value.add_use(self, index)

    def drop_operands(self) -> None:
        """Detach this instruction from all of its operands' use lists."""
        for index, operand in enumerate(self._operands):
            operand.remove_use(self, index)
        self._operands = []

    # -- structural helpers ---------------------------------------------------
    @property
    def function(self) -> Optional["Function"]:
        return self.parent.parent if self.parent is not None else None

    def is_terminator(self) -> bool:
        return isinstance(self, (Branch, Jump, Return))

    def produces_value(self) -> bool:
        return not isinstance(self.type, VoidType)

    def erase_from_parent(self) -> None:
        """Remove this instruction from its basic block and drop its operands."""
        if self.parent is not None:
            self.parent.remove_instruction(self)
        self.drop_operands()

    def __repr__(self) -> str:
        return "<{} %{}>".format(type(self).__name__, self.short_name())


# ---------------------------------------------------------------------------
# Arithmetic and comparison
# ---------------------------------------------------------------------------

class BinaryOp(Instruction):
    """Integer arithmetic: ``add``, ``sub``, ``mul``, ``div``, ``rem``."""

    VALID_OPS = ("add", "sub", "mul", "div", "rem")

    def __init__(self, op: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if op not in self.VALID_OPS:
            raise ValueError("unknown binary operator: {!r}".format(op))
        super().__init__(lhs.type, (lhs, rhs), name)
        self.op = op

    @property
    def opcode(self) -> str:  # type: ignore[override]
        return self.op

    @property
    def lhs(self) -> Value:
        return self._operands[0]

    @property
    def rhs(self) -> Value:
        return self._operands[1]

    def constant_operand(self) -> Optional[ConstantInt]:
        """Return the constant operand if exactly one operand is a constant."""
        lhs_const = isinstance(self.lhs, ConstantInt)
        rhs_const = isinstance(self.rhs, ConstantInt)
        if lhs_const and not rhs_const:
            return self.lhs  # type: ignore[return-value]
        if rhs_const and not lhs_const:
            return self.rhs  # type: ignore[return-value]
        return None


class ICmp(Instruction):
    """Integer / pointer comparison producing a boolean.

    Predicates follow LLVM: ``eq``, ``ne``, ``slt``, ``sle``, ``sgt``, ``sge``.
    """

    VALID_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge")

    #: predicate obtained by swapping the operands
    SWAPPED: Dict[str, str] = {
        "eq": "eq",
        "ne": "ne",
        "slt": "sgt",
        "sle": "sge",
        "sgt": "slt",
        "sge": "sle",
    }

    #: predicate that holds on the false branch (negation)
    NEGATED: Dict[str, str] = {
        "eq": "ne",
        "ne": "eq",
        "slt": "sge",
        "sle": "sgt",
        "sgt": "sle",
        "sge": "slt",
    }

    opcode = "icmp"

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if predicate not in self.VALID_PREDICATES:
            raise ValueError("unknown icmp predicate: {!r}".format(predicate))
        super().__init__(BOOL, (lhs, rhs), name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self._operands[0]

    @property
    def rhs(self) -> Value:
        return self._operands[1]


# ---------------------------------------------------------------------------
# Control flow
# ---------------------------------------------------------------------------

class Jump(Instruction):
    """Unconditional branch to a single successor block."""

    opcode = "br"

    def __init__(self, target: "BasicBlock") -> None:
        super().__init__(VoidType(), ())
        self.target = target

    def successors(self) -> List["BasicBlock"]:
        return [self.target]

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        if self.target is old:
            self.target = new


class Branch(Instruction):
    """Conditional branch: ``br cond, true_block, false_block``."""

    opcode = "br"

    def __init__(self, condition: Value, true_block: "BasicBlock", false_block: "BasicBlock") -> None:
        super().__init__(VoidType(), (condition,))
        self.true_block = true_block
        self.false_block = false_block

    @property
    def condition(self) -> Value:
        return self._operands[0]

    def successors(self) -> List["BasicBlock"]:
        return [self.true_block, self.false_block]

    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        if self.true_block is old:
            self.true_block = new
        if self.false_block is old:
            self.false_block = new


class Return(Instruction):
    """Return from the current function, optionally with a value."""

    opcode = "ret"

    def __init__(self, value: Optional[Value] = None) -> None:
        operands = (value,) if value is not None else ()
        super().__init__(VoidType(), operands)

    @property
    def value(self) -> Optional[Value]:
        return self._operands[0] if self._operands else None

    def successors(self) -> List["BasicBlock"]:
        return []


class Phi(Instruction):
    """SSA φ-function: selects a value according to the incoming CFG edge."""

    opcode = "phi"

    def __init__(self, ty: Type, name: str = "") -> None:
        super().__init__(ty, (), name)
        self.incoming_blocks: List["BasicBlock"] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        self.append_operand(value)
        self.incoming_blocks.append(block)

    def incoming(self) -> List[Tuple[Value, "BasicBlock"]]:
        return list(zip(self._operands, self.incoming_blocks))

    def incoming_value_for(self, block: "BasicBlock") -> Optional[Value]:
        for value, pred in self.incoming():
            if pred is block:
                return value
        return None

    def remove_incoming(self, block: "BasicBlock") -> None:
        """Drop the incoming entry for ``block`` (no effect if absent)."""
        for i, pred in enumerate(self.incoming_blocks):
            if pred is block:
                # Rebuild operand list without index i.
                values = [v for j, v in enumerate(self._operands) if j != i]
                self.drop_operands()
                for v in values:
                    self.append_operand(v)
                del self.incoming_blocks[i]
                return


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

class Alloca(Instruction):
    """Stack allocation of one object of ``allocated_type``.

    The result is a pointer to the allocated storage.  Each ``alloca`` is a
    distinct allocation site, which the basic alias analysis exploits.
    """

    opcode = "alloca"

    def __init__(self, allocated_type: Type, name: str = "",
                 array_size: Optional[Value] = None) -> None:
        operands = (array_size,) if array_size is not None else ()
        super().__init__(PointerType(allocated_type), operands, name)
        self.allocated_type = allocated_type

    @property
    def array_size(self) -> Optional[Value]:
        return self._operands[0] if self._operands else None


class Malloc(Instruction):
    """Heap allocation returning a fresh object of ``allocated_type``.

    Modelled as its own instruction (rather than a call) so that allocation
    sites are first-class, as they are for LLVM's ``noalias`` return
    attributes on allocation functions.
    """

    opcode = "malloc"

    def __init__(self, allocated_type: Type, size: Optional[Value] = None, name: str = "") -> None:
        operands = (size,) if size is not None else ()
        super().__init__(PointerType(allocated_type), operands, name)
        self.allocated_type = allocated_type

    @property
    def size(self) -> Optional[Value]:
        return self._operands[0] if self._operands else None


class Load(Instruction):
    """Read the value stored at ``pointer``."""

    opcode = "load"

    def __init__(self, pointer: Value, name: str = "") -> None:
        if not isinstance(pointer.type, PointerType):
            raise TypeError("load requires a pointer operand, got {}".format(pointer.type))
        super().__init__(pointer.type.pointee, (pointer,), name)

    @property
    def pointer(self) -> Value:
        return self._operands[0]


class Store(Instruction):
    """Write ``value`` to the location designated by ``pointer``."""

    opcode = "store"

    def __init__(self, value: Value, pointer: Value) -> None:
        if not isinstance(pointer.type, PointerType):
            raise TypeError("store requires a pointer operand, got {}".format(pointer.type))
        super().__init__(VoidType(), (value, pointer))

    @property
    def value(self) -> Value:
        return self._operands[0]

    @property
    def pointer(self) -> Value:
        return self._operands[1]


class GetElementPtr(Instruction):
    """Pointer arithmetic: ``result = base + index`` (in elements).

    This models the common single-index form of LLVM's ``getelementptr``:
    the result is a *derived pointer* obtained by offsetting ``base`` by
    ``index`` elements.  Definition 3.11(2) of the paper compares derived
    pointers through the less-than sets of their indices.
    """

    opcode = "gep"

    def __init__(self, base: Value, index: Value, name: str = "") -> None:
        if not isinstance(base.type, PointerType):
            raise TypeError("gep requires a pointer base, got {}".format(base.type))
        super().__init__(base.type, (base, index), name)

    @property
    def base(self) -> Value:
        return self._operands[0]

    @property
    def index(self) -> Value:
        return self._operands[1]

    def constant_index(self) -> Optional[int]:
        index = self.index
        if isinstance(index, ConstantInt):
            return index.value
        return None


# ---------------------------------------------------------------------------
# Copies, calls
# ---------------------------------------------------------------------------

class Copy(Instruction):
    """``x' = x`` — a live-range split introduced by the e-SSA transformation.

    The ``kind`` attribute records why the copy exists: ``"sigma"`` for
    copies placed at the outgoing edges of a conditional branch, ``"split"``
    for copies placed next to subtractions, and ``"plain"`` otherwise.
    """

    opcode = "copy"

    def __init__(self, source: Value, name: str = "", kind: str = "plain") -> None:
        super().__init__(source.type, (source,), name)
        self.kind = kind

    @property
    def source(self) -> Value:
        return self._operands[0]


class Call(Instruction):
    """Direct call to another function in the module."""

    opcode = "call"

    def __init__(self, callee: "Function", args: Iterable[Value], name: str = "") -> None:
        args = tuple(args)
        super().__init__(callee.return_type, args, name)
        self.callee = callee

    @property
    def arguments(self) -> Tuple[Value, ...]:
        return self.operands
