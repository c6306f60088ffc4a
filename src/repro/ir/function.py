"""Functions: argument lists plus a control-flow graph of basic blocks."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence

from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import Instruction
from repro.ir.types import Type, VoidType
from repro.ir.values import Argument, Value

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.module import Module


class Function:
    """A function: name, typed arguments and an ordered list of basic blocks.

    The first block added to the function is its entry block.  The function
    owns a name counter so every value it contains gets a unique textual
    name, which keeps printed IR readable and makes analyses deterministic.
    """

    def __init__(self, name: str, return_type: Type,
                 arg_types: Sequence[Type] = (), arg_names: Optional[Sequence[str]] = None) -> None:
        self.name = name
        self.return_type = return_type
        self.parent: Optional["Module"] = None
        self.blocks: List[BasicBlock] = []
        self.arguments: List[Argument] = []
        self._value_counter = 0
        self._block_counter = 0
        if arg_names is None:
            arg_names = ["arg{}".format(i) for i in range(len(arg_types))]
        if len(arg_names) != len(arg_types):
            raise ValueError("arg_names and arg_types must have the same length")
        for index, (ty, arg_name) in enumerate(zip(arg_types, arg_names)):
            argument = Argument(ty, arg_name, index)
            argument.function = self
            self.arguments.append(argument)

    # -- naming ----------------------------------------------------------------
    def next_value_name(self) -> str:
        name = "v{}".format(self._value_counter)
        self._value_counter += 1
        return name

    def next_block_name(self, hint: str = "bb") -> str:
        name = "{}{}".format(hint, self._block_counter)
        self._block_counter += 1
        return name

    # -- block management -------------------------------------------------------
    def append_block(self, block: Optional[BasicBlock] = None, name: str = "") -> BasicBlock:
        if block is None:
            block = BasicBlock(name or self.next_block_name())
        elif not block.name:
            block.name = self.next_block_name()
        block.parent = self
        self.blocks.append(block)
        # Name any instructions that were added before attachment.
        for inst in block.instructions:
            if inst.produces_value() and not inst.name:
                inst.name = self.next_value_name()
        return block

    def remove_block(self, block: BasicBlock) -> None:
        self.blocks.remove(block)
        block.parent = None

    @property
    def entry_block(self) -> Optional[BasicBlock]:
        return self.blocks[0] if self.blocks else None

    def is_declaration(self) -> bool:
        return not self.blocks

    # -- traversal ---------------------------------------------------------------
    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            for inst in block.instructions:
                yield inst

    def values(self) -> Iterator[Value]:
        """All SSA values defined in the function: arguments then results."""
        for argument in self.arguments:
            yield argument
        for inst in self.instructions():
            if inst.produces_value():
                yield inst

    def block_by_name(self, name: str) -> Optional[BasicBlock]:
        for block in self.blocks:
            if block.name == name:
                return block
        return None

    def value_by_name(self, name: str) -> Optional[Value]:
        for value in self.values():
            if value.name == name:
                return value
        return None

    def instruction_count(self) -> int:
        return sum(len(block) for block in self.blocks)

    def __repr__(self) -> str:
        return "<Function {} ({} blocks)>".format(self.name, len(self.blocks))
