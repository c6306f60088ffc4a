"""Lowering mini-C ASTs to the SSA IR.

The translation is the textbook one: every local variable becomes an
``alloca`` slot accessed through loads and stores, control flow becomes
explicit basic blocks, and a final mem2reg pass promotes the scalar slots to
SSA registers so that the analyses see the same shape of code Clang + LLVM
``-mem2reg`` would produce for the paper's C programs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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
from repro.ir.instructions import Jump, Return
from repro.ir.ssa import promote_memory_to_registers
from repro.ir.types import Type
from repro.ir.values import ConstantInt, Value
from repro.ir.verifier import verify_module
from repro.obs import TRACER

_COMPARISONS = {"<": "slt", "<=": "sle", ">": "sgt", ">=": "sge", "==": "eq", "!=": "ne"}
_ARITHMETIC = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "rem"}


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


class _Scope:
    """A lexical scope mapping names to their alloca slot and element type."""

    def __init__(self, parent: Optional["_Scope"] = None) -> None:
        self.parent = parent
        self.slots: Dict[str, Tuple[Value, Type, bool]] = {}

    def declare(self, name: str, slot: Value, value_type: Type, is_array: bool) -> None:
        self.slots[name] = (slot, value_type, is_array)

    def lookup(self, name: str) -> Optional[Tuple[Value, Type, bool]]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.slots:
                return scope.slots[name]
            scope = scope.parent
        return None


class _FunctionLowering:
    """Lowers the body of one function."""

    def __init__(self, module: Module, function: Function, definition: ast.FunctionDef) -> None:
        self.module = module
        self.function = function
        self.definition = definition
        self.builder = IRBuilder()
        self.scope = _Scope()
        self.loop_stack: List[Tuple[BasicBlock, BasicBlock]] = []  # (continue, break)
        self._name_counts: Dict[str, int] = {}

    def _fresh(self, hint: str) -> str:
        """Readable value names, made unique per function."""
        count = self._name_counts.get(hint, 0)
        self._name_counts[hint] = count + 1
        return hint if count == 0 else "{}.{}".format(hint, count)

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
            slot = self.builder.alloca(argument.type, self._fresh(parameter.name + ".addr"))
            self.builder.store(argument, slot)
            self.scope.declare(parameter.name, slot, argument.type, is_array=False)
        self.lower_block(self.definition.body, _Scope(self.scope))
        if not self._current_block_terminated():
            if self.function.return_type.is_void():
                self.builder.ret(None)
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
            value = None
            if statement.value is not None:
                value = self.lower_expression(statement.value, scope)
            self.builder.ret(value)
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

    def lower_declaration(self, declaration: ast.DeclarationStmt, scope: _Scope) -> None:
        for declarator in declaration.declarators:
            value_type = _lower_type(declaration.type_spec, declarator.pointer_depth)
            if value_type.is_void():
                raise LoweringError("cannot declare a void variable (line {})".format(declarator.line))
            if declarator.array_size is not None:
                slot = self.builder.alloca(value_type, self._fresh(declarator.name),
                                           array_size=self.builder.const(declarator.array_size))
                scope.declare(declarator.name, slot, value_type, is_array=True)
            else:
                slot = self.builder.alloca(value_type, self._fresh(declarator.name))
                scope.declare(declarator.name, slot, value_type, is_array=False)
                if declarator.initializer is not None:
                    value = self.lower_expression(declarator.initializer, scope)
                    self._store(value, slot, declarator.line)

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
        if isinstance(expression, ast.IntLiteral):
            return self.builder.const(expression.value)
        if isinstance(expression, ast.VariableRef):
            return self._load_variable(expression, scope)
        if isinstance(expression, ast.AssignExpr):
            return self.lower_assignment(expression, scope)
        if isinstance(expression, ast.BinaryExpr):
            return self.lower_binary(expression, scope)
        if isinstance(expression, ast.UnaryExpr):
            return self.lower_unary(expression, scope)
        if isinstance(expression, ast.IndexExpr):
            address = self.lower_address(expression, scope)
            return self.builder.load(address)
        if isinstance(expression, ast.CallExpr):
            return self.lower_call(expression, scope)
        raise LoweringError("unsupported expression {!r}".format(expression))

    def _load_variable(self, reference: ast.VariableRef, scope: _Scope) -> Value:
        entry = scope.lookup(reference.name)
        if entry is None:
            raise LoweringError("use of undeclared variable {!r} (line {})".format(
                reference.name, reference.line))
        slot, value_type, is_array = entry
        if is_array:
            # Arrays decay to a pointer to their first element.
            return slot
        return self.builder.load(slot, self._fresh(reference.name + ".val"))

    def lower_address(self, expression: ast.Expression, scope: _Scope) -> Value:
        """Lower an lvalue expression to the address it designates."""
        if isinstance(expression, ast.VariableRef):
            entry = scope.lookup(expression.name)
            if entry is None:
                raise LoweringError("use of undeclared variable {!r} (line {})".format(
                    expression.name, expression.line))
            slot, _value_type, is_array = entry
            if is_array:
                raise LoweringError("cannot assign to an array name (line {})".format(expression.line))
            return slot
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
        address = self.lower_address(assignment.target, scope)
        value = self.lower_expression(assignment.value, scope)
        if assignment.op != "=":
            current = self.builder.load(address)
            op = _ARITHMETIC[assignment.op[0]]
            value = self._arith(op, current, value)
        self._store(value, address, assignment.line)
        return value

    def _store(self, value: Value, address: Value, line: int) -> None:
        slot_type = address.type.pointee
        if value.type != slot_type:
            raise LoweringError("cannot assign {} to {} (line {})".format(
                value.type, slot_type, line))
        self.builder.store(value, address)

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
            # The touched alloca is no longer promotable, which is exactly
            # what a C compiler does when a local's address escapes.
            return self.lower_address(expression.operand, scope)
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
        return self.builder.call(callee, arguments)


def lower_program(program: ast.Program, module_name: str = "program",
                  promote: bool = True, verify: bool = True) -> Module:
    """Lower a parsed program to an IR module.

    ``promote`` runs mem2reg after lowering (recommended: the analyses expect
    SSA scalars).  ``verify`` runs the IR verifier on the result.
    """
    module = Module(module_name)
    # First pass: declare every function so calls can be resolved.
    for definition in program.functions:
        return_type = _lower_type(definition.return_type)
        arg_types = [_lower_type(p.type_spec) for p in definition.parameters]
        arg_names = [p.name for p in definition.parameters]
        module.create_function(definition.name, return_type, arg_types, arg_names)
    # Second pass: lower bodies.
    for definition in program.functions:
        function = module.get_function(definition.name)
        assert function is not None
        _FunctionLowering(module, function, definition).run()
        remove_unreachable_blocks(function)
        if promote:
            promote_memory_to_registers(function)
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
