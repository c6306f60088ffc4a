"""Lowering mini-C ASTs to the SSA IR.

Control flow becomes explicit basic blocks.  A local scalar whose address
is never taken (found by one walk over the function before it is lowered)
goes straight to SSA values: the lowering records its writes per block and
hands its reads' reaching definitions to the SSA step of
:mod:`repro.ir.ssa`, which places the φ-functions once the CFG is complete.
Arrays and address-taken locals live in ``alloca`` slots accessed through
loads and stores.  The analyses thus see the shape of code Clang + LLVM
``-mem2reg`` would produce for the paper's C programs, and no slot is built
only to be promoted away.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.frontend import ast
from repro.frontend.lexer import FrontendError
from repro.frontend.parser import parse_program
from repro.ir import (
    BasicBlock,
    Function,
    INT,
    IRBuilder,
    Module,
    VOID,
    pointer_to,
)
from repro.ir.cfg import remove_unreachable_blocks
from repro.ir.ssa import PromotedScalars, Scalar, promote_memory_to_registers
from repro.ir.types import Type
from repro.ir.values import NullPointer, Value
from repro.ir.verifier import verify_module
from repro.obs import TRACER

_COMPARISONS = {"<": "slt", "<=": "sle", ">": "sgt", ">=": "sge", "==": "eq", "!=": "ne"}
_ARITHMETIC = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "rem"}

#: where a variable lives: the ``alloca`` slot of an array or address-taken
#: local, or the :class:`Scalar` of a promoted one.
Storage = Union[Value, Scalar]


class LoweringError(FrontendError):
    """Raised when the program uses a construct outside the supported subset."""


def _lower_type(spec: ast.TypeSpec, extra_depth: int = 0) -> Type:
    depth = spec.pointer_depth + extra_depth
    if spec.base == "void":
        if depth == 0:
            return VOID
        return pointer_to(INT, depth)
    if spec.base == "int":
        if depth == 0:
            return INT
        return pointer_to(INT, depth)
    raise LoweringError("unknown type name {!r}".format(spec.base))


def _converts(value_type: Type, expected: Type) -> bool:
    """Whether a value of ``value_type`` may be returned or passed as ``expected``.

    A comparison's ``i1`` widens to ``int`` as in C; anything else must match.
    """
    return value_type == expected or (value_type.is_bool() and expected.is_int())


class _Scope:
    """A lexical scope mapping names to what they are bound to."""

    def __init__(self, parent: Optional["_Scope"] = None) -> None:
        self.parent = parent
        self.slots: Dict[str, object] = {}

    def declare(self, name: str, entry: object) -> None:
        self.slots[name] = entry

    def lookup(self, name: str) -> Optional[object]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.slots:
                return scope.slots[name]
            scope = scope.parent
        return None


def _address_taken(definition: ast.FunctionDef) -> Set[int]:
    """``id`` of every parameter and declarator of ``definition`` under ``&``.

    One walk over the body, in source order, with the lowering's scope
    rules: a scope per block, per ``if`` branch and loop body, and one per
    ``for`` header, and a declarator visible from its own initialiser on.
    So ``&x`` marks the declaration the lowering resolves that ``x`` to.
    Names the lowering will reject are skipped; it reports them.
    """
    taken: Set[int] = set()
    parameters = _Scope()
    for parameter in definition.parameters:
        parameters.declare(parameter.name, parameter)
    # Statements (and the expressions of a ``for`` header) on an explicit
    # stack, children pushed in reverse, so the walk visits them in source
    # order and no nesting depth exhausts Python's stack.
    stack: List[Tuple[Any, _Scope]] = [(definition.body, parameters)]
    while stack:
        node, scope = stack.pop()
        kind = type(node)
        if kind is ast.ExpressionStmt:
            _mark_address_taken(node.expression, scope, taken)
        elif kind is ast.DeclarationStmt:
            for declarator in node.declarators:
                scope.declare(declarator.name, declarator)
                if declarator.initializer is not None:
                    _mark_address_taken(declarator.initializer, scope, taken)
        elif kind is ast.BlockStmt:
            inner = _Scope(scope)
            stack.extend((statement, inner) for statement in reversed(node.statements))
        elif kind is ast.IfStmt:
            _mark_address_taken(node.condition, scope, taken)
            if node.else_branch is not None:
                stack.append((node.else_branch, _Scope(scope)))
            stack.append((node.then_branch, _Scope(scope)))
        elif kind is ast.WhileStmt:
            _mark_address_taken(node.condition, scope, taken)
            stack.append((node.body, _Scope(scope)))
        elif kind is ast.ForStmt:
            header = _Scope(scope)
            for part, part_scope in ((node.step, header), (node.body, _Scope(header)),
                                     (node.condition, header), (node.init, header)):
                if part is not None:
                    stack.append((part, part_scope))
        elif kind is ast.ReturnStmt:
            if node.value is not None:
                _mark_address_taken(node.value, scope, taken)
        elif isinstance(node, ast.Expression):
            _mark_address_taken(node, scope, taken)
    return taken


def _mark_address_taken(expression: ast.Expression, scope: _Scope, taken: Set[int]) -> None:
    """Add to ``taken`` what each ``&x`` in ``expression`` resolves to in ``scope``."""
    nodes: List[Any] = [expression]
    while nodes:
        node = nodes.pop()
        kind = type(node)
        if kind is ast.BinaryExpr:
            nodes.append(node.lhs)
            nodes.append(node.rhs)
        elif kind is ast.AssignExpr:
            nodes.append(node.target)
            nodes.append(node.value)
        elif kind is ast.IndexExpr:
            nodes.append(node.base)
            nodes.append(node.index)
        elif kind is ast.UnaryExpr:
            operand = node.operand
            if node.op == "&" and type(operand) is ast.VariableRef:
                declaration = scope.lookup(operand.name)
                if declaration is not None:
                    taken.add(id(declaration))
            else:
                nodes.append(operand)
        elif kind is ast.CallExpr:
            nodes.extend(node.arguments)


class _FunctionLowering:
    """Lowers the body of one function.

    With ``promote`` (the default) every non-array local whose address is
    never taken is a promoted :class:`Scalar`; without it every local gets
    an ``alloca`` slot.
    """

    def __init__(self, module: Module, function: Function, definition: ast.FunctionDef,
                 promote: bool = True) -> None:
        self.module = module
        self.function = function
        self.definition = definition
        self.builder = IRBuilder()
        self.scope = _Scope()
        self.loop_stack: List[Tuple[BasicBlock, BasicBlock]] = []  # (continue, break)
        self._name_counts: Dict[str, int] = {}
        self.scalars = PromotedScalars()
        self._address_taken = _address_taken(definition) if promote else None

    def _fresh(self, hint: str) -> str:
        """Readable value names, made unique per function."""
        count = self._name_counts.get(hint, 0)
        self._name_counts[hint] = count + 1
        return hint if count == 0 else "{}.{}".format(hint, count)

    def _reserve(self, hint: str) -> None:
        """Take the name :meth:`_fresh` would give, for a value never built.

        A promoted local keeps the names of its slot and loads reserved, so
        every later name is the one the slot-based lowering gives it.
        """
        self._name_counts[hint] = self._name_counts.get(hint, 0) + 1

    def _promoted(self, declaration: ast.Node) -> bool:
        return self._address_taken is not None and id(declaration) not in self._address_taken

    # -- plumbing --------------------------------------------------------------------
    def _new_block(self, hint: str) -> BasicBlock:
        return self.function.append_block(name=self.function.next_block_name(hint))

    def _current_block_terminated(self) -> bool:
        block = self.builder.block
        return block is not None and block.terminator is not None

    def _ensure_open_block(self, hint: str = "dead") -> None:
        """Statements after a return/break land in a fresh (unreachable) block."""
        if self._current_block_terminated():
            self.builder.set_insert_point(self._new_block(hint))

    # -- entry point -------------------------------------------------------------------
    def run(self) -> None:
        entry = self._new_block("entry")
        self.builder.set_insert_point(entry)
        for argument, parameter in zip(self.function.arguments, self.definition.parameters):
            storage: Storage
            if self._promoted(parameter):
                self._reserve(parameter.name + ".addr")
                storage = self.scalars.declare(argument.type, entry)
                self.scalars.write(entry, storage, argument)
            else:
                storage = self.builder.alloca(argument.type, self._fresh(parameter.name + ".addr"))
                self.builder.store(argument, storage)
            self.scope.declare(parameter.name, (storage, argument.type, False))
        self.lower_block(self.definition.body, _Scope(self.scope))
        if not self._current_block_terminated():
            return_type = self.function.return_type
            if return_type.is_void():
                self.builder.ret(None)
            elif return_type.is_pointer():
                self.builder.ret(NullPointer(return_type))  # type: ignore[arg-type]
            else:
                self.builder.ret(self.builder.const(0))

    # -- statements ------------------------------------------------------------------------
    def lower_statement(self, statement: ast.Statement, scope: _Scope) -> None:
        self._ensure_open_block()
        if isinstance(statement, ast.BlockStmt):
            self.lower_block(statement, _Scope(scope))
        elif isinstance(statement, ast.DeclarationStmt):
            self.lower_declaration(statement, scope)
        elif isinstance(statement, ast.ExpressionStmt):
            self.lower_expression(statement.expression, scope)
        elif isinstance(statement, ast.IfStmt):
            self.lower_if(statement, scope)
        elif isinstance(statement, ast.WhileStmt):
            self.lower_while(statement, scope)
        elif isinstance(statement, ast.ForStmt):
            self.lower_for(statement, scope)
        elif isinstance(statement, ast.ReturnStmt):
            self.lower_return(statement, scope)
        elif isinstance(statement, ast.BreakStmt):
            if not self.loop_stack:
                raise LoweringError("break outside of a loop (line {})".format(statement.line))
            self.builder.jump(self.loop_stack[-1][1])
        elif isinstance(statement, ast.ContinueStmt):
            if not self.loop_stack:
                raise LoweringError("continue outside of a loop (line {})".format(statement.line))
            self.builder.jump(self.loop_stack[-1][0])
        else:
            raise LoweringError("unsupported statement {!r}".format(statement))

    def lower_block(self, block: ast.BlockStmt, scope: _Scope) -> None:
        for statement in block.statements:
            self.lower_statement(statement, scope)

    def lower_return(self, statement: ast.ReturnStmt, scope: _Scope) -> None:
        return_type = self.function.return_type
        if statement.value is None:
            if not return_type.is_void():
                raise LoweringError("function {!r} must return a value (line {})".format(
                    self.function.name, statement.line))
            self.builder.ret(None)
            return
        value = self.lower_expression(statement.value, scope)
        if return_type.is_void():
            raise LoweringError("void function {!r} cannot return a value (line {})".format(
                self.function.name, statement.line))
        if not _converts(value.type, return_type):
            raise LoweringError("cannot return {} from function {!r} returning {} (line {})".format(
                value.type, self.function.name, return_type, statement.line))
        self.builder.ret(value)

    def lower_declaration(self, declaration: ast.DeclarationStmt, scope: _Scope) -> None:
        for declarator in declaration.declarators:
            value_type = _lower_type(declaration.type_spec, declarator.pointer_depth)
            if value_type.is_void():
                raise LoweringError("cannot declare a void variable (line {})".format(declarator.line))
            if declarator.array_size is not None:
                slot = self.builder.alloca(value_type, self._fresh(declarator.name),
                                           array_size=self.builder.const(declarator.array_size))
                scope.declare(declarator.name, (slot, value_type, True))
                continue
            storage: Storage
            if self._promoted(declarator):
                self._reserve(declarator.name)
                storage = self.scalars.declare(value_type, self.builder.block)
            else:
                storage = self.builder.alloca(value_type, self._fresh(declarator.name))
            scope.declare(declarator.name, (storage, value_type, False))
            if declarator.initializer is not None:
                value = self.lower_expression(declarator.initializer, scope)
                self._store(value, storage, declarator.line)

    def lower_if(self, statement: ast.IfStmt, scope: _Scope) -> None:
        then_block = self._new_block("if.then")
        merge_block = self._new_block("if.end")
        else_block = self._new_block("if.else") if statement.else_branch is not None else merge_block
        self.lower_condition(statement.condition, then_block, else_block, scope)
        self.builder.set_insert_point(then_block)
        self.lower_statement(statement.then_branch, _Scope(scope))
        if not self._current_block_terminated():
            self.builder.jump(merge_block)
        if statement.else_branch is not None:
            self.builder.set_insert_point(else_block)
            self.lower_statement(statement.else_branch, _Scope(scope))
            if not self._current_block_terminated():
                self.builder.jump(merge_block)
        self.builder.set_insert_point(merge_block)

    def lower_while(self, statement: ast.WhileStmt, scope: _Scope) -> None:
        header = self._new_block("while.cond")
        body = self._new_block("while.body")
        exit_block = self._new_block("while.end")
        self.builder.jump(header)
        self.builder.set_insert_point(header)
        self.lower_condition(statement.condition, body, exit_block, scope)
        self.builder.set_insert_point(body)
        self.loop_stack.append((header, exit_block))
        self.lower_statement(statement.body, _Scope(scope))
        self.loop_stack.pop()
        if not self._current_block_terminated():
            self.builder.jump(header)
        self.builder.set_insert_point(exit_block)

    def lower_for(self, statement: ast.ForStmt, scope: _Scope) -> None:
        for_scope = _Scope(scope)
        if statement.init is not None:
            self.lower_statement(statement.init, for_scope)
        header = self._new_block("for.cond")
        body = self._new_block("for.body")
        step_block = self._new_block("for.step")
        exit_block = self._new_block("for.end")
        self.builder.jump(header)
        self.builder.set_insert_point(header)
        if statement.condition is not None:
            self.lower_condition(statement.condition, body, exit_block, for_scope)
        else:
            self.builder.jump(body)
        self.builder.set_insert_point(body)
        self.loop_stack.append((step_block, exit_block))
        self.lower_statement(statement.body, _Scope(for_scope))
        self.loop_stack.pop()
        if not self._current_block_terminated():
            self.builder.jump(step_block)
        self.builder.set_insert_point(step_block)
        if statement.step is not None:
            self.lower_expression(statement.step, for_scope)
        self.builder.jump(header)
        self.builder.set_insert_point(exit_block)

    # -- conditions ----------------------------------------------------------------------------
    def lower_condition(self, expression: ast.Expression, true_block: BasicBlock,
                        false_block: BasicBlock, scope: _Scope) -> None:
        if isinstance(expression, ast.BinaryExpr) and expression.op == "&&":
            middle = self._new_block("land")
            self.lower_condition(expression.lhs, middle, false_block, scope)
            self.builder.set_insert_point(middle)
            self.lower_condition(expression.rhs, true_block, false_block, scope)
            return
        if isinstance(expression, ast.BinaryExpr) and expression.op == "||":
            middle = self._new_block("lor")
            self.lower_condition(expression.lhs, true_block, middle, scope)
            self.builder.set_insert_point(middle)
            self.lower_condition(expression.rhs, true_block, false_block, scope)
            return
        if isinstance(expression, ast.UnaryExpr) and expression.op == "!":
            self.lower_condition(expression.operand, false_block, true_block, scope)
            return
        if isinstance(expression, ast.BinaryExpr) and expression.op in _COMPARISONS:
            lhs = self.lower_expression(expression.lhs, scope)
            rhs = self.lower_expression(expression.rhs, scope)
            condition = self.builder.icmp(_COMPARISONS[expression.op], lhs, rhs)
            self.builder.branch(condition, true_block, false_block)
            return
        if isinstance(expression, ast.IntLiteral):
            self.builder.jump(true_block if expression.value != 0 else false_block)
            return
        value = self.lower_expression(expression, scope)
        condition = self.builder.icmp_ne(value, self.builder.const(0))
        self.builder.branch(condition, true_block, false_block)

    # -- expressions -----------------------------------------------------------------------------
    def lower_expression(self, expression: ast.Expression, scope: _Scope) -> Value:
        if isinstance(expression, ast.VariableRef):
            return self._load_variable(expression, scope)
        if isinstance(expression, ast.IntLiteral):
            return self.builder.const(expression.value)
        if isinstance(expression, ast.BinaryExpr):
            return self.lower_binary(expression, scope)
        if isinstance(expression, ast.AssignExpr):
            return self.lower_assignment(expression, scope)
        if isinstance(expression, ast.UnaryExpr):
            return self.lower_unary(expression, scope)
        if isinstance(expression, ast.IndexExpr):
            address = self.lower_address(expression, scope)
            return self.builder.load(address)  # type: ignore[arg-type]
        if isinstance(expression, ast.CallExpr):
            return self.lower_call(expression, scope)
        raise LoweringError("unsupported expression {!r}".format(expression))

    def _load_variable(self, reference: ast.VariableRef, scope: _Scope) -> Value:
        entry = scope.lookup(reference.name)
        if entry is None:
            raise LoweringError("use of undeclared variable {!r} (line {})".format(
                reference.name, reference.line))
        storage, _value_type, is_array = entry  # type: ignore[misc]
        if is_array:
            # Arrays decay to a pointer to their first element.
            return storage
        if isinstance(storage, Scalar):
            self._reserve(reference.name + ".val")
            return self.scalars.read(self.builder.block, storage)
        return self.builder.load(storage, self._fresh(reference.name + ".val"))

    def _load(self, storage: Storage) -> Value:
        """An unnamed read of ``storage``."""
        if isinstance(storage, Scalar):
            # No load is built, but its value number stays taken, so every
            # later number is the one the slot-based lowering gives.
            self.function.next_value_name()
            return self.scalars.read(self.builder.block, storage)
        return self.builder.load(storage)

    def lower_address(self, expression: ast.Expression, scope: _Scope) -> Storage:
        """Lower an lvalue expression to the address it designates.

        A promoted local has no address: its :class:`Scalar` is returned.
        """
        if isinstance(expression, ast.VariableRef):
            entry = scope.lookup(expression.name)
            if entry is None:
                raise LoweringError("use of undeclared variable {!r} (line {})".format(
                    expression.name, expression.line))
            storage, _value_type, is_array = entry  # type: ignore[misc]
            if is_array:
                raise LoweringError("cannot assign to an array name (line {})".format(expression.line))
            return storage
        if isinstance(expression, ast.IndexExpr):
            base = self.lower_expression(expression.base, scope)
            if not base.type.is_pointer():
                raise LoweringError("indexing a non-pointer value (line {})".format(expression.line))
            index = self.lower_expression(expression.index, scope)
            return self.builder.gep(base, index)
        if isinstance(expression, ast.UnaryExpr) and expression.op == "*":
            pointer = self.lower_expression(expression.operand, scope)
            if not pointer.type.is_pointer():
                raise LoweringError("dereferencing a non-pointer value (line {})".format(expression.line))
            return pointer
        raise LoweringError("expression is not assignable (line {})".format(expression.line))

    def lower_assignment(self, assignment: ast.AssignExpr, scope: _Scope) -> Value:
        target = self.lower_address(assignment.target, scope)
        value = self.lower_expression(assignment.value, scope)
        if assignment.op != "=":
            current = self._load(target)
            op = _ARITHMETIC[assignment.op[0]]
            value = self._arith(op, current, value)
        self._store(value, target, assignment.line)
        return value

    def _store(self, value: Value, target: Storage, line: int) -> None:
        promoted = isinstance(target, Scalar)
        slot_type = target.type if promoted else target.type.pointee  # type: ignore[attr-defined]
        if value.type != slot_type:
            raise LoweringError("cannot assign {} to {} (line {})".format(
                value.type, slot_type, line))
        if promoted:
            self.scalars.write(self.builder.block, target, value)  # type: ignore[arg-type]
        else:
            self.builder.store(value, target)  # type: ignore[arg-type]

    def lower_binary(self, expression: ast.BinaryExpr, scope: _Scope) -> Value:
        # Left-associative chains (``a + b + ... + z``) nest down their left
        # operands; walk that spine with a loop instead of recursing, so the
        # chain's length is not bounded by the interpreter's stack.
        spine: List[ast.BinaryExpr] = []
        node: ast.Expression = expression
        while isinstance(node, ast.BinaryExpr):
            if node.op in ("&&", "||"):
                raise LoweringError(
                    "logical operators are only supported in conditions (line {})".format(node.line))
            spine.append(node)
            node = node.lhs
        value = self.lower_expression(node, scope)
        for node in reversed(spine):
            rhs = self.lower_expression(node.rhs, scope)
            if node.op == ",":
                value = rhs
            elif node.op in _COMPARISONS:
                value = self.builder.icmp(_COMPARISONS[node.op], value, rhs)
            elif node.op in _ARITHMETIC:
                value = self._arith(_ARITHMETIC[node.op], value, rhs)
            else:
                raise LoweringError("unsupported binary operator {!r} (line {})".format(
                    node.op, node.line))
        return value

    def _arith(self, op: str, lhs: Value, rhs: Value) -> Value:
        # Pointer arithmetic becomes gep; everything else is plain arithmetic.
        if lhs.type.is_pointer() and rhs.type.is_int():
            if op == "add":
                return self.builder.gep(lhs, rhs)
            if op == "sub":
                negated = self.builder.sub(self.builder.const(0), rhs)
                return self.builder.gep(lhs, negated)
            raise LoweringError("unsupported pointer arithmetic {!r}".format(op))
        if rhs.type.is_pointer() and lhs.type.is_int() and op == "add":
            return self.builder.gep(rhs, lhs)
        return self.builder.binary(op, lhs, rhs)

    def lower_unary(self, expression: ast.UnaryExpr, scope: _Scope) -> Value:
        if expression.op == "-":
            operand = self.lower_expression(expression.operand, scope)
            return self.builder.sub(self.builder.const(0), operand)
        if expression.op == "*":
            pointer = self.lower_expression(expression.operand, scope)
            if not pointer.type.is_pointer():
                raise LoweringError("dereferencing a non-pointer value (line {})".format(expression.line))
            return self.builder.load(pointer)
        if expression.op == "!":
            operand = self.lower_expression(expression.operand, scope)
            return self.builder.icmp_eq(operand, self.builder.const(0))
        if expression.op == "&":
            # Address-of: the operand's slot/element address becomes a value.
            # A local under ``&`` is never promoted (see _address_taken),
            # exactly as a C compiler keeps an escaping local in memory.
            address = self.lower_address(expression.operand, scope)
            assert not isinstance(address, Scalar), "address of a promoted local"
            return address
        raise LoweringError("unsupported unary operator {!r}".format(expression.op))

    def lower_call(self, call: ast.CallExpr, scope: _Scope) -> Value:
        if call.callee == "malloc":
            if len(call.arguments) != 1:
                raise LoweringError("malloc takes exactly one argument (line {})".format(call.line))
            size = self.lower_expression(call.arguments[0], scope)
            return self.builder.malloc(INT, size)
        callee = self.module.get_function(call.callee)
        if callee is None:
            raise LoweringError("call to undefined function {!r} (line {})".format(
                call.callee, call.line))
        arguments = [self.lower_expression(argument, scope) for argument in call.arguments]
        if len(arguments) != len(callee.arguments):
            raise LoweringError("wrong number of arguments in call to {!r} (line {})".format(
                call.callee, call.line))
        for position, (argument, parameter) in enumerate(zip(arguments, callee.arguments), 1):
            if not _converts(argument.type, parameter.type):
                raise LoweringError("cannot pass {} as argument {} of {!r}, which expects {} "
                                    "(line {})".format(argument.type, position, call.callee,
                                                       parameter.type, call.line))
        return self.builder.call(callee, arguments)


def lower_program(program: ast.Program, module_name: str = "program",
                  promote: bool = True, verify: bool = True) -> Module:
    """Lower a parsed program to an IR module.

    ``promote`` lowers the locals whose address is never taken straight to
    SSA values (recommended: the analyses expect SSA scalars); without it
    every local lives in an ``alloca`` slot.  ``verify`` runs the IR
    verifier on the result.
    """
    module = Module(module_name)
    # First pass: declare every function so calls can be resolved.
    for definition in program.functions:
        if module.get_function(definition.name) is not None:
            raise LoweringError("redefinition of function {!r} (line {})".format(
                definition.name, definition.line))
        return_type = _lower_type(definition.return_type)
        arg_types = [_lower_type(p.type_spec) for p in definition.parameters]
        arg_names = [p.name for p in definition.parameters]
        for index, parameter in enumerate(definition.parameters):
            if parameter.name in arg_names[:index]:
                raise LoweringError("duplicate parameter {!r} of function {!r} (line {})".format(
                    parameter.name, definition.name, parameter.line))
        module.create_function(definition.name, return_type, arg_types, arg_names)
    # Second pass: lower bodies, then place each function's φs.
    for definition in program.functions:
        function = module.get_function(definition.name)
        assert function is not None
        lowering = _FunctionLowering(module, function, definition, promote)
        lowering.run()
        remove_unreachable_blocks(function)
        promote_memory_to_registers(function, lowering.scalars)
    if verify:
        with TRACER.span("ir.verify", module=module_name):
            verify_module(module)
    return module


def compile_source(source: str, module_name: str = "program",
                   promote: bool = True, verify: bool = True) -> Module:
    """Parse and lower mini-C ``source`` text to an IR module.

    A :class:`FrontendError` leaves with ``unit`` set to ``module_name``.
    """
    try:
        with TRACER.span("frontend.parse", module=module_name):
            program = parse_program(source)
        with TRACER.span("frontend.lower", module=module_name,
                         functions=len(program.functions)):
            return lower_program(program, module_name, promote, verify)
    except FrontendError as error:
        error.unit = module_name
        raise
    except RecursionError:
        # Nesting (parentheses, unary operators, right-associative
        # assignments, nested statements) deeper than the interpreter's
        # stack: a rejected source like any other, not a crash.
        error = FrontendError("nesting too deep to compile")
        error.unit = module_name
        raise error from None
