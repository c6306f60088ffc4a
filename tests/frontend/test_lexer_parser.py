"""Tests for the mini-C lexer and parser."""

import pytest

from repro.frontend import LexerError, ParseError, ast, parse_program, tokenize


def test_tokenize_basic_program():
    tokens = tokenize("int f(int x) { return x + 1; }")
    kinds = [t.kind for t in tokens]
    texts = [t.text for t in tokens]
    assert kinds[0] == "keyword" and texts[0] == "int"
    assert "ident" in kinds
    assert texts[-2] == "}"
    assert kinds[-1] == "eof"


def test_tokenize_multicharacter_operators():
    tokens = tokenize("a <= b && c != d || e >= f")
    ops = [t.text for t in tokens if t.kind == "op"]
    assert ops == ["<=", "&&", "!=", "||", ">="]


def test_tokenize_comments_and_lines():
    tokens = tokenize("int a; // comment\n/* block\ncomment */ int b;")
    idents = [t.text for t in tokens if t.kind == "ident"]
    assert idents == ["a", "b"]


@pytest.mark.parametrize("source, line, column", [
    ("int /* c */ x;", 1, 13),
    ("int /* a\nb */ x;", 2, 6),
], ids=["single-line", "multi-line"])
def test_token_column_after_block_comment(source, line, column):
    token = next(t for t in tokenize(source) if t.text == "x")
    assert (token.line, token.column) == (line, column)


def test_lexer_error_column_after_block_comment():
    with pytest.raises(LexerError) as raised:
        tokenize("int /* c */ @;")
    assert (raised.value.line, raised.value.column) == (1, 13)


def test_tokenize_rejects_garbage():
    with pytest.raises(LexerError):
        tokenize("int a = @;")
    with pytest.raises(LexerError):
        tokenize("/* never closed")


def test_parse_function_with_parameters():
    program = parse_program("void ins(int* v, int N) { }")
    assert len(program.functions) == 1
    function = program.functions[0]
    assert function.name == "ins"
    assert function.return_type.base == "void"
    assert [p.name for p in function.parameters] == ["v", "N"]
    assert function.parameters[0].type_spec.pointer_depth == 1


def test_parse_declarations_and_loops():
    source = """
    int sum(int* v, int n) {
        int i, total = 0;
        for (i = 0; i < n; i++) {
            total += v[i];
        }
        return total;
    }
    """
    program = parse_program(source)
    body = program.functions[0].body
    assert isinstance(body.statements[0], ast.DeclarationStmt)
    assert len(body.statements[0].declarators) == 2
    assert isinstance(body.statements[1], ast.ForStmt)
    assert isinstance(body.statements[2], ast.ReturnStmt)


def test_parse_if_else_and_while():
    source = """
    int f(int a, int b) {
        while (a < b) {
            if (a > 0) { a = a - 1; } else { b = b - 1; }
        }
        return a;
    }
    """
    program = parse_program(source)
    loop = program.functions[0].body.statements[0]
    assert isinstance(loop, ast.WhileStmt)
    branch = loop.body.statements[0]
    assert isinstance(branch, ast.IfStmt)
    assert branch.else_branch is not None


def test_parse_operator_precedence():
    program = parse_program("int f() { return 1 + 2 * 3 < 10; }")
    expr = program.functions[0].body.statements[0].value
    # (1 + (2*3)) < 10
    assert isinstance(expr, ast.BinaryExpr) and expr.op == "<"
    assert isinstance(expr.lhs, ast.BinaryExpr) and expr.lhs.op == "+"
    assert isinstance(expr.lhs.rhs, ast.BinaryExpr) and expr.lhs.rhs.op == "*"


def test_parse_index_deref_and_calls():
    program = parse_program("int f(int* p) { return p[2] + *p + g(p, 1); }")
    expr = program.functions[0].body.statements[0].value
    assert isinstance(expr, ast.BinaryExpr)
    assert isinstance(expr.rhs, ast.CallExpr)
    assert expr.rhs.callee == "g"
    assert len(expr.rhs.arguments) == 2


def test_parse_for_with_comma_and_increments():
    source = "void f(int N) { int i; int j; for (i = 0, j = N; i < j; i++, j--) { } }"
    program = parse_program(source)
    loop = program.functions[0].body.statements[2]
    assert isinstance(loop, ast.ForStmt)
    assert isinstance(loop.init, ast.ExpressionStmt)
    assert isinstance(loop.init.expression, ast.BinaryExpr)
    assert loop.init.expression.op == ","
    assert isinstance(loop.step, ast.BinaryExpr)


def test_parse_prefix_increment_desugars_to_compound_assignment():
    program = parse_program("void f(int x) { ++x; --x; x++; }")
    statements = program.functions[0].body.statements
    for statement in statements:
        assert isinstance(statement.expression, ast.AssignExpr)
    assert statements[0].expression.op == "+="
    assert statements[1].expression.op == "-="


def test_parse_errors_are_reported_with_position():
    with pytest.raises(ParseError, match="line"):
        parse_program("int f( { }")
    with pytest.raises(ParseError):
        parse_program("int f() { return 1 }")
    with pytest.raises(ParseError):
        parse_program("int f() { int a[n]; }")
    with pytest.raises(ParseError):
        parse_program("int 3() { }")


def test_program_function_lookup():
    program = parse_program("int a() { return 1; } int b() { return 2; }")
    assert program.function("a") is not None
    assert program.function("missing") is None
