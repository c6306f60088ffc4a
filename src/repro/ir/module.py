"""Modules: the top-level container of functions and global variables."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.ir.function import Function
from repro.ir.instructions import Branch, Call, Jump, Phi
from repro.ir.types import Type
from repro.ir.values import Constant, GlobalVariable


class Module:
    """A translation unit: named functions and global variables."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: List[Function] = []
        self.globals: List[GlobalVariable] = []

    # -- functions ---------------------------------------------------------------
    def add_function(self, function: Function) -> Function:
        if self.get_function(function.name) is not None:
            raise ValueError("duplicate function name: {}".format(function.name))
        function.parent = self
        self.functions.append(function)
        return function

    def create_function(self, name: str, return_type: Type,
                        arg_types: Sequence[Type] = (),
                        arg_names: Optional[Sequence[str]] = None) -> Function:
        return self.add_function(Function(name, return_type, arg_types, arg_names))

    def get_function(self, name: str) -> Optional[Function]:
        for function in self.functions:
            if function.name == name:
                return function
        return None

    # -- globals -----------------------------------------------------------------
    def add_global(self, value_type: Type, name: str,
                   initializer: Optional[Constant] = None) -> GlobalVariable:
        if self.get_global(name) is not None:
            raise ValueError("duplicate global name: {}".format(name))
        gv = GlobalVariable(value_type, name, initializer)
        gv.module = self
        self.globals.append(gv)
        return gv

    def get_global(self, name: str) -> Optional[GlobalVariable]:
        for gv in self.globals:
            if gv.name == name:
                return gv
        return None

    # -- aggregate queries ---------------------------------------------------------
    def instruction_count(self) -> int:
        return sum(f.instruction_count() for f in self.functions)

    def defined_functions(self) -> Iterator[Function]:
        for function in self.functions:
            if not function.is_declaration():
                yield function

    # -- lifetime ----------------------------------------------------------------
    def release(self) -> None:
        """End the module's life: drop every link inside its IR.

        The IR is a web of cycles — instruction ↔ block parent links, value
        ↔ ``Use`` links, branch targets, φ incoming blocks, call callees — so
        without this only the cycle collector can free a module.  Once the
        links are gone reference counting frees every object as soon as its
        last outside reference goes.  The module is empty afterwards; call
        this only on a module no one else holds, once everything drawn from
        it is plain data.
        """
        for gv in self.globals:
            gv.uses = []
            gv.module = None
        for function in self.functions:
            for argument in function.arguments:
                argument.uses = []
                argument.function = None
            for block in function.blocks:
                for inst in block.instructions:
                    inst._operands = []
                    inst.uses = []
                    inst.parent = None
                    if isinstance(inst, Branch):
                        inst.true_block = inst.false_block = None
                    elif isinstance(inst, Jump):
                        inst.target = None
                    elif isinstance(inst, Phi):
                        inst.incoming_blocks = []
                    elif isinstance(inst, Call):
                        inst.callee = None
                block.instructions = []
                block.parent = None
            function.blocks = []
            function.arguments = []
            function.parent = None
        self.functions = []
        self.globals = []

    def __repr__(self) -> str:
        return "<Module {} ({} functions, {} globals)>".format(
            self.name, len(self.functions), len(self.globals)
        )
