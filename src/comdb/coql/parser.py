"""Recursive descent parser for queries, product definitions and schemas.

Predicate recursion is depth-limited so arbitrarily nested input fails with
a ParseError instead of exhausting the interpreter stack.
"""

from __future__ import annotations

from ..errors import ParseError
from ..model import Concept, FieldSpec
from . import ast
from .lexer import Token, tokenize

MAX_DEPTH = 150

_CMP_KINDS = {"EQ": "==", "NE": "!=", "LT": "<", "LE": "<=", "GT": ">", "GE": ">="}
_LITERAL_KINDS = ("STRING", "INTEGER", "DECIMAL", "NULL")
_STEP_KINDS = ("ARROW", "LARROW", "STAR_ARROW", "LSTAR", "INFER")


def _show(tok: Token) -> str:
    return "end of input" if tok.kind == "EOF" else repr(tok.value)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    # --- token plumbing ---

    def peek(self, k: int = 0) -> Token:
        j = self.i + k
        if j >= len(self.tokens):
            j = len(self.tokens) - 1
        return self.tokens[j]

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def accept(self, kind: str) -> Token | None:
        if self.at(kind):
            tok = self.tokens[self.i]
            self.i += 1
            return tok
        return None

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {_show(tok)}", tok.line, tok.column)
        self.i += 1
        return tok

    def width(self, what: str) -> int:
        """A declared width: an INTEGER with no minus sign."""
        tok = self.peek()
        if tok.kind == "INTEGER" and tok.value < 0:
            raise ParseError(f"expected {what}, found {_show(tok)}", tok.line, tok.column)
        return self.expect("INTEGER", what).value

    def pos(self) -> tuple[int, int]:
        tok = self.peek()
        return (tok.line, tok.column)

    def _enter(self) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            tok = self.peek()
            raise ParseError("nesting too deep", tok.line, tok.column)

    def _leave(self) -> None:
        self.depth -= 1

    def done(self) -> None:
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected {_show(tok)} after statement", tok.line, tok.column)

    # --- queries ---

    def parse_query(self) -> ast.Query:
        pos = self.pos()
        if self.at("GIVEN"):
            return self._given_get()
        if self.at("LPAREN"):
            anchor: ast.SetExpr | tuple = self.set_expr()
        elif self.peek().kind in _LITERAL_KINDS:
            lits = [self.literal()]
            while self.accept("COMMA"):
                lits.append(self.literal())
            anchor = tuple(lits)
        else:
            tok = self.peek()
            raise ParseError(
                "a query starts with a set expression or constants",
                tok.line, tok.column,
            )
        return ast.Query(anchor, tuple(self.steps()), pos=pos)

    def _given_get(self) -> ast.Query:
        pos = self.pos()
        self.expect("GIVEN", "'GIVEN'")
        anchor = self.set_expr()
        get_pos = self.pos()
        self.expect("GET", "'GET'")
        target = self.set_expr()
        steps = [ast.InferStep(target, pos=get_pos)]
        steps.extend(self.steps())
        return ast.Query(anchor, tuple(steps), pos=pos)

    def steps(self) -> list[ast.Step]:
        out: list[ast.Step] = []
        while self.peek().kind in _STEP_KINDS:
            out.append(self.step())
        return out

    def step(self) -> ast.Step:
        pos = self.pos()
        if self.accept("STAR_ARROW"):
            return ast.StarProjectStep(self.set_expr(), pos=pos)
        if self.accept("LSTAR"):
            return ast.StarDeprojectStep(self.set_expr(), pos=pos)
        if self.accept("INFER"):
            return ast.InferStep(self.set_expr(), pos=pos)
        if self.accept("ARROW"):
            dims, target = self._hop_tail("ARROW")
            return ast.ProjectStep(dims, target, pos=pos)
        self.expect("LARROW", "a step")
        dims, target = self._hop_tail("LARROW")
        return ast.DeprojectStep(dims, target, pos=pos)

    def _hop_tail(self, arrow: str) -> tuple[tuple[str, ...], ast.SetExpr | None]:
        """After '->' or '<-': dimension names joined by the same arrow,
        optionally finished by a parenthesized set expression."""
        if self.at("LPAREN"):
            return (), self.set_expr()
        dims = [self.expect("IDENT", "a dimension name or '('").value]
        while self.at(arrow):
            nxt = self.peek(1).kind
            if nxt == "IDENT":
                self.i += 1
                dims.append(self.expect("IDENT", "a dimension name").value)
            elif nxt == "LPAREN":
                self.i += 1
                return tuple(dims), self.set_expr()
            else:
                break
        return tuple(dims), None

    def set_expr(self) -> ast.SetExpr:
        pos = self.pos()
        self.expect("LPAREN", "'('")
        factors = [self.factor()]
        while self.accept("COMMA"):
            factors.append(self.factor())
        predicate = None
        if self.accept("PIPE") or self.accept("WHERE"):
            predicate = self.or_expr()
        self.expect("RPAREN", "')'")
        return ast.SetExpr(tuple(factors), predicate, pos=pos)

    def factor(self) -> ast.Factor:
        pos = self.pos()
        name = self.expect("IDENT", "a collection name").value
        alias = None
        if self.at("IDENT"):
            alias = self.accept("IDENT").value
        return ast.Factor(name, alias, pos=pos)

    # --- predicates ---

    def or_expr(self) -> ast.Node:
        self._enter()
        try:
            items = [self.and_expr()]
            while self.accept("OR"):
                items.append(self.and_expr())
        finally:
            self._leave()
        if len(items) == 1:
            return items[0]
        return ast.Or(tuple(items), pos=(0, 0))

    def and_expr(self) -> ast.Node:
        items = [self.not_expr()]
        while self.accept("AND"):
            items.append(self.not_expr())
        if len(items) == 1:
            return items[0]
        return ast.And(tuple(items), pos=(0, 0))

    def not_expr(self) -> ast.Node:
        self._enter()
        try:
            pos = self.pos()
            if self.accept("NOT"):
                return ast.Not(self.not_expr(), pos=pos)
            return self.primary()
        finally:
            self._leave()

    def primary(self) -> ast.Node:
        if self.accept("LPAREN"):
            node = self.or_expr()
            self.expect("RPAREN", "')'")
            return node
        return self.comparison()

    def comparison(self) -> ast.Comparison:
        pos = self.pos()
        left = self.term()
        tok = self.peek()
        op = _CMP_KINDS.get(tok.kind)
        if op is None:
            raise ParseError("expected a comparison operator", tok.line, tok.column)
        self.i += 1
        right = self.term()
        return ast.Comparison(op, left, right, pos=pos)

    def term(self) -> ast.Node:
        tok = self.peek()
        if tok.kind in _LITERAL_KINDS:
            return self.literal()
        if tok.kind in ("COUNT", "SUM"):
            return self.agg()
        if tok.kind == "IDENT":
            return self.path_term()
        raise ParseError(
            f"expected a value, found {_show(tok)}", tok.line, tok.column
        )

    def literal(self) -> ast.Literal:
        tok = self.peek()
        if tok.kind == "NULL":
            self.i += 1
            return ast.Literal(None, pos=(tok.line, tok.column))
        if tok.kind in ("STRING", "INTEGER", "DECIMAL"):
            self.i += 1
            return ast.Literal(tok.value, pos=(tok.line, tok.column))
        raise ParseError(f"expected a constant, found {_show(tok)}", tok.line, tok.column)

    def path_term(self) -> ast.PathTerm:
        pos = self.pos()
        parts = [self.expect("IDENT", "a field name").value]
        while self.accept("DOT"):
            parts.append(self.expect("IDENT", "a field name").value)
        return ast.PathTerm(tuple(parts), pos=pos)

    def agg(self) -> ast.AggTerm:
        pos = self.pos()
        func = self.peek().kind
        self.i += 1
        self.expect("LPAREN", "'('")
        dim = self.expect("IDENT", "a dimension name").value
        self.expect("LARROW", "'<-'")
        self.expect("LPAREN", "'('")
        coll = self.expect("IDENT", "a collection name").value
        predicate = None
        if self.accept("PIPE") or self.accept("WHERE"):
            predicate = self.or_expr()
        self.expect("RPAREN", "')'")
        path = None
        if self.accept("DOT"):
            parts = [self.expect("IDENT", "a field name").value]
            while self.accept("DOT"):
                parts.append(self.expect("IDENT", "a field name").value)
            path = tuple(parts)
        self.expect("RPAREN", "')'")
        return ast.AggTerm(func, dim, coll, predicate, path, pos=pos)

    # --- statements ---

    def parse_statement(self) -> ast.Query | ast.ProductDef:
        if self.at("IDENT") and self.peek(1).kind == "EQ":
            pos = self.pos()
            name = self.accept("IDENT").value
            self.i += 1  # '='
            body = self.set_expr()
            return ast.ProductDef(name, body, pos=pos)
        return self.parse_query()

    # --- concept definitions ---

    def parse_schema(self) -> list[Concept]:
        concepts: list[Concept] = []
        while not self.at("EOF"):
            concepts.append(self.concept_def())
            self.accept("SEMI")
        return concepts

    def concept_def(self) -> Concept:
        self.expect("CONCEPT", "'CONCEPT'")
        name = self.expect("IDENT", "a concept name").value
        self.expect("IDENTITY", "'IDENTITY'")
        identity = self.field_list(identity=True)
        entity: list[FieldSpec] = []
        if self.accept("ENTITY"):
            entity = self.field_list(identity=False)
        return Concept(name, tuple(identity), tuple(entity))

    def field_list(self, identity: bool) -> list[FieldSpec]:
        fields = [self.field_def(identity)]
        while self.accept("COMMA"):
            fields.append(self.field_def(identity))
        return fields

    def field_def(self, identity: bool) -> FieldSpec:
        name = self.expect("IDENT", "a field name").value
        tok = self.expect("IDENT", "a type or concept name")
        word = tok.value
        upper = word.upper()
        length = None
        if upper == "CHAR":
            self.expect("LPAREN", "'('")
            length = self.width("a length")
            self.expect("RPAREN", "')'")
            ftype = "string"
        elif upper in ("INT", "INTEGER"):
            ftype = "integer"
        elif upper == "DECIMAL":
            if self.accept("LPAREN"):
                self.width("a precision")
                self.expect("COMMA", "','")
                self.width("a scale")
                self.expect("RPAREN", "')'")
            ftype = "decimal"
        elif upper == "DATE":
            ftype = "date"
        else:
            if self.at("LPAREN"):
                raise ParseError(
                    f"reference type '{word}' takes no parameters",
                    self.peek().line, self.peek().column,
                )
            ftype = word
        nullable = not identity
        if self.accept("NOT"):
            self.expect("NULL", "'NULL'")
            nullable = False
        elif self.at("NULL"):
            tok = self.accept("NULL")
            if identity:
                raise ParseError("identity fields cannot be NULL", tok.line, tok.column)
            nullable = True
        return FieldSpec(name, ftype, nullable, length)


def parse_query(text: str) -> ast.Query:
    p = _Parser(tokenize(text))
    q = p.parse_query()
    p.done()
    return q


def parse_statement(text: str) -> ast.Query | ast.ProductDef:
    p = _Parser(tokenize(text))
    stmt = p.parse_statement()
    p.done()
    return stmt


def parse_schema(text: str) -> list[Concept]:
    p = _Parser(tokenize(text))
    return p.parse_schema()
