"""Recursive-descent parser for the mini-C language."""

from __future__ import annotations

from typing import List, Optional

from repro.frontend import ast
from repro.frontend.lexer import FrontendError, Token, tokenize


class ParseError(FrontendError):
    """Raised when the token stream does not form a valid program."""

    def __init__(self, message: str, token: Token) -> None:
        super().__init__("{} at line {}, column {} (near {!r})".format(
            message, token.line, token.column, token.text or "<eof>"))
        self.message = message
        self.token = token

    def __reduce__(self):
        # Pool workers ship exceptions by pickle; the default reduction
        # replays ``args`` (the formatted text) and misses ``token``.
        return (type(self), (self.message, self.token), vars(self))


#: binary operator precedence (larger binds tighter); assignment is handled
#: separately because it is right-associative and restricted to lvalues.
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}

_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=")


class Parser:
    """Parses a token list into an :class:`repro.frontend.ast.Program`."""

    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.position = 0

    # -- token helpers ----------------------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.current
        if token.kind != "eof":
            self.position += 1
        return token

    def check_op(self, text: str) -> bool:
        return self.current.is_op(text)

    def accept_op(self, text: str) -> bool:
        if self.check_op(text):
            self.advance()
            return True
        return False

    def expect_op(self, text: str) -> Token:
        if not self.check_op(text):
            raise ParseError("expected {!r}".format(text), self.current)
        return self.advance()

    def expect_ident(self) -> Token:
        if self.current.kind != "ident":
            raise ParseError("expected an identifier", self.current)
        return self.advance()

    def at_type_keyword(self) -> bool:
        return self.current.is_keyword("int") or self.current.is_keyword("void")

    # -- top level --------------------------------------------------------------------
    def parse_program(self) -> ast.Program:
        functions: List[ast.FunctionDef] = []
        while self.current.kind != "eof":
            functions.append(self.parse_function())
        return ast.Program(functions)

    def parse_type_spec(self) -> ast.TypeSpec:
        token = self.current
        if not self.at_type_keyword():
            raise ParseError("expected a type name", token)
        self.advance()
        depth = 0
        while self.accept_op("*"):
            depth += 1
        return ast.TypeSpec(token.text, depth, token.line)

    def parse_function(self) -> ast.FunctionDef:
        return_type = self.parse_type_spec()
        name = self.expect_ident()
        self.expect_op("(")
        parameters: List[ast.Parameter] = []
        if not self.check_op(")"):
            while True:
                if self.current.is_keyword("void") and self.tokens[self.position + 1].is_op(")"):
                    self.advance()
                    break
                param_type = self.parse_type_spec()
                param_name = self.expect_ident()
                parameters.append(ast.Parameter(param_type, param_name.text, param_name.line))
                if not self.accept_op(","):
                    break
        self.expect_op(")")
        body = self.parse_block()
        return ast.FunctionDef(return_type, name.text, parameters, body, name.line)

    # -- statements ----------------------------------------------------------------------
    def parse_block(self) -> ast.BlockStmt:
        open_brace = self.expect_op("{")
        statements: List[ast.Statement] = []
        while not self.check_op("}"):
            if self.current.kind == "eof":
                raise ParseError("unterminated block", self.current)
            statements.append(self.parse_statement())
        self.expect_op("}")
        return ast.BlockStmt(statements, open_brace.line)

    def parse_statement(self) -> ast.Statement:
        token = self.current
        if token.is_op("{"):
            return self.parse_block()
        if self.at_type_keyword():
            return self.parse_declaration()
        if token.is_keyword("if"):
            return self.parse_if()
        if token.is_keyword("while"):
            return self.parse_while()
        if token.is_keyword("for"):
            return self.parse_for()
        if token.is_keyword("return"):
            self.advance()
            value: Optional[ast.Expression] = None
            if not self.check_op(";"):
                value = self.parse_expression()
            self.expect_op(";")
            return ast.ReturnStmt(value, token.line)
        if token.is_keyword("break"):
            self.advance()
            self.expect_op(";")
            return ast.BreakStmt(token.line)
        if token.is_keyword("continue"):
            self.advance()
            self.expect_op(";")
            return ast.ContinueStmt(token.line)
        if token.is_op(";"):
            self.advance()
            return ast.BlockStmt([], token.line)
        expression = self.parse_expression()
        self.expect_op(";")
        return ast.ExpressionStmt(expression, token.line)

    def parse_declaration(self) -> ast.DeclarationStmt:
        type_spec = self.parse_type_spec()
        declarators: List[ast.Declarator] = []
        while True:
            depth = 0
            while self.accept_op("*"):
                depth += 1
            name = self.expect_ident()
            array_size: Optional[int] = None
            if self.accept_op("["):
                size_token = self.current
                if size_token.kind != "int":
                    raise ParseError("array sizes must be integer literals", size_token)
                self.advance()
                array_size = int(size_token.text)
                self.expect_op("]")
            initializer: Optional[ast.Expression] = None
            if self.accept_op("="):
                initializer = self.parse_expression()
            declarators.append(ast.Declarator(name.text, array_size, initializer, depth, name.line))
            if not self.accept_op(","):
                break
        self.expect_op(";")
        return ast.DeclarationStmt(type_spec, declarators, type_spec.line)

    def parse_if(self) -> ast.IfStmt:
        token = self.advance()
        self.expect_op("(")
        condition = self.parse_expression()
        self.expect_op(")")
        then_branch = self.parse_statement()
        else_branch: Optional[ast.Statement] = None
        if self.current.is_keyword("else"):
            self.advance()
            else_branch = self.parse_statement()
        return ast.IfStmt(condition, then_branch, else_branch, token.line)

    def parse_while(self) -> ast.WhileStmt:
        token = self.advance()
        self.expect_op("(")
        condition = self.parse_expression()
        self.expect_op(")")
        body = self.parse_statement()
        return ast.WhileStmt(condition, body, token.line)

    def parse_for(self) -> ast.ForStmt:
        token = self.advance()
        self.expect_op("(")
        init: Optional[ast.Statement] = None
        if not self.check_op(";"):
            if self.at_type_keyword():
                init = self.parse_declaration()
            else:
                expression = self.parse_comma_expression()
                self.expect_op(";")
                init = ast.ExpressionStmt(expression, token.line)
        else:
            self.expect_op(";")
        condition: Optional[ast.Expression] = None
        if not self.check_op(";"):
            condition = self.parse_expression()
        self.expect_op(";")
        step: Optional[ast.Expression] = None
        if not self.check_op(")"):
            step = self.parse_comma_expression()
        self.expect_op(")")
        body = self.parse_statement()
        return ast.ForStmt(init, condition, step, body, token.line)

    # -- expressions -----------------------------------------------------------------------
    def parse_comma_expression(self) -> ast.Expression:
        """Comma-separated expressions (used in for-headers); evaluates left
        to right, value of the last one."""
        expression = self.parse_expression()
        while self.accept_op(","):
            right = self.parse_expression()
            # Represent the sequence as a right-leaning "," binary node so the
            # lowering can emit both sides for their side effects.
            expression = ast.BinaryExpr(",", expression, right, right.line)
        return expression

    def parse_expression(self) -> ast.Expression:
        return self.parse_assignment()

    def parse_assignment(self) -> ast.Expression:
        left = self.parse_binary(0)
        token = self.current
        if token.kind == "op" and token.text in _ASSIGN_OPS:
            self.advance()
            value = self.parse_assignment()
            return ast.AssignExpr(left, value, token.text, token.line)
        return left

    def parse_binary(self, min_precedence: int) -> ast.Expression:
        left = self.parse_unary()
        while True:
            token = self.current
            if token.kind != "op" or token.text not in _PRECEDENCE:
                return left
            precedence = _PRECEDENCE[token.text]
            if precedence < min_precedence:
                return left
            self.advance()
            right = self.parse_binary(precedence + 1)
            left = ast.BinaryExpr(token.text, left, right, token.line)

    def parse_unary(self) -> ast.Expression:
        token = self.current
        if token.is_op("-"):
            self.advance()
            return ast.UnaryExpr("-", self.parse_unary(), token.line)
        if token.is_op("!"):
            self.advance()
            return ast.UnaryExpr("!", self.parse_unary(), token.line)
        if token.is_op("*"):
            self.advance()
            return ast.UnaryExpr("*", self.parse_unary(), token.line)
        if token.is_op("&"):
            self.advance()
            return ast.UnaryExpr("&", self.parse_unary(), token.line)
        if token.is_op("++") or token.is_op("--"):
            # Pre-increment / pre-decrement sugar: ++x  =>  x += 1.
            self.advance()
            operand = self.parse_unary()
            op = "+=" if token.text == "++" else "-="
            return ast.AssignExpr(operand, ast.IntLiteral(1, token.line), op, token.line)
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expression:
        expression = self.parse_primary()
        while True:
            token = self.current
            if token.is_op("["):
                self.advance()
                index = self.parse_expression()
                self.expect_op("]")
                expression = ast.IndexExpr(expression, index, token.line)
            elif token.is_op("++") or token.is_op("--"):
                # Post-increment in statement position behaves like the
                # pre-form for our purposes (the value is not used).
                self.advance()
                op = "+=" if token.text == "++" else "-="
                expression = ast.AssignExpr(expression, ast.IntLiteral(1, token.line), op, token.line)
            else:
                return expression

    def parse_primary(self) -> ast.Expression:
        token = self.current
        if token.kind == "int":
            self.advance()
            return ast.IntLiteral(int(token.text), token.line)
        if token.kind == "ident":
            self.advance()
            if self.check_op("("):
                self.advance()
                arguments: List[ast.Expression] = []
                if not self.check_op(")"):
                    while True:
                        arguments.append(self.parse_expression())
                        if not self.accept_op(","):
                            break
                self.expect_op(")")
                return ast.CallExpr(token.text, arguments, token.line)
            return ast.VariableRef(token.text, token.line)
        if token.is_op("("):
            self.advance()
            expression = self.parse_expression()
            self.expect_op(")")
            return expression
        raise ParseError("expected an expression", token)


def parse_program(source: str) -> ast.Program:
    """Parse mini-C ``source`` text into an AST."""
    return Parser(tokenize(source)).parse_program()
