"""Values: the SSA entities that instructions consume and produce.

Every operand of an instruction is a :class:`Value`.  Values track their
uses, which gives the analyses cheap access to def-use chains and lets
transformation passes (SSA and e-SSA construction) rewrite operands
through them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.ir.types import IntType, PointerType, Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.ir.instructions import Instruction


class Use:
    """A single (user, operand index) pair recording one use of a value."""

    __slots__ = ("user", "index")

    def __init__(self, user: "Instruction", index: int) -> None:
        self.user = user
        self.index = index

    def __repr__(self) -> str:
        return "Use({!r}, {})".format(getattr(self.user, "name", self.user), self.index)


class Value:
    """Base class for everything that can appear as an operand.

    Parameters
    ----------
    ty:
        The type of the value.
    name:
        An optional textual name.  Instructions get unique names when they
        are inserted into a function.
    """

    def __init__(self, ty: Type, name: str = "") -> None:
        self.type = ty
        self.name = name
        self.uses: List[Use] = []

    # -- use bookkeeping ----------------------------------------------------
    def add_use(self, user: "Instruction", index: int) -> None:
        self.uses.append(Use(user, index))

    def remove_use(self, user: "Instruction", index: int) -> None:
        for i, use in enumerate(self.uses):
            if use.user is user and use.index == index:
                del self.uses[i]
                return

    def users(self) -> Iterator["Instruction"]:
        """Iterate over the instructions that use this value (with repeats)."""
        for use in self.uses:
            yield use.user

    def replace_all_uses_with(self, other: "Value") -> None:
        """Rewrite every use of ``self`` to use ``other`` instead."""
        if other is self:
            return
        for use in list(self.uses):
            use.user.set_operand(use.index, other)

    # -- classification helpers ---------------------------------------------
    def is_constant(self) -> bool:
        return isinstance(self, Constant)

    def is_pointer(self) -> bool:
        return self.type.is_pointer()

    def is_integer(self) -> bool:
        return self.type.is_int()

    def short_name(self) -> str:
        return self.name if self.name else "<unnamed>"

    def __repr__(self) -> str:
        return "<{} {}:{}>".format(type(self).__name__, self.short_name(), self.type)


class Constant(Value):
    """Base class for compile-time constants."""


class ConstantInt(Constant):
    """An integer literal."""

    def __init__(self, value: int, ty: Optional[Type] = None) -> None:
        super().__init__(ty if ty is not None else IntType(64), name=str(value))
        self.value = int(value)

    def __repr__(self) -> str:
        return "<ConstantInt {}>".format(self.value)


class NullPointer(Constant):
    """The null pointer constant of a given pointer type."""

    def __init__(self, ty: PointerType) -> None:
        super().__init__(ty, name="null")


class Undef(Constant):
    """An undefined value, used by SSA construction for uninitialised reads."""

    def __init__(self, ty: Type) -> None:
        super().__init__(ty, name="undef")


class Argument(Value):
    """A formal parameter of a function."""

    def __init__(self, ty: Type, name: str, index: int) -> None:
        super().__init__(ty, name)
        self.index = index
        self.function = None  # set by Function

    def __repr__(self) -> str:
        return "<Argument %{}:{}>".format(self.name, self.type)


class GlobalVariable(Value):
    """A module-level variable.  Its value is the *address* of the storage.

    ``value_type`` is the type of the stored object; the type of the global
    as a value is a pointer to it, matching LLVM semantics.
    """

    def __init__(self, value_type: Type, name: str, initializer: Optional[Constant] = None) -> None:
        super().__init__(PointerType(value_type), name)
        self.value_type = value_type
        self.initializer = initializer
        self.module = None  # set by Module

    def __repr__(self) -> str:
        return "<GlobalVariable @{}:{}>".format(self.name, self.type)
