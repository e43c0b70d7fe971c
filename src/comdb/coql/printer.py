"""Canonical text for syntax trees; reparsing the output gives an equal tree."""

from __future__ import annotations

from . import ast


def print_literal(lit: ast.Literal) -> str:
    v = lit.value
    if v is None:
        return "NULL"
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    return str(v)


def _term(node) -> str:
    if isinstance(node, ast.Literal):
        return print_literal(node)
    if isinstance(node, ast.PathTerm):
        return ".".join(node.parts)
    if isinstance(node, ast.AggTerm):
        inner = node.collection
        if node.predicate is not None:
            inner += " | " + print_predicate(node.predicate)
        tail = "." + ".".join(node.path) if node.path else ""
        return f"{node.func}({node.dim} <- ({inner}){tail})"
    raise TypeError(f"not a term: {node!r}")


def print_predicate(node) -> str:
    if isinstance(node, ast.Comparison):
        return f"{_term(node.left)} {node.op} {_term(node.right)}"
    if isinstance(node, ast.Not):
        inner = print_predicate(node.item)
        if isinstance(node.item, (ast.And, ast.Or)):
            inner = f"({inner})"
        return f"NOT {inner}"
    if isinstance(node, ast.And):
        parts = []
        for item in node.items:
            text = print_predicate(item)
            if isinstance(item, (ast.And, ast.Or)):
                text = f"({text})"
            parts.append(text)
        return " AND ".join(parts)
    if isinstance(node, ast.Or):
        parts = []
        for item in node.items:
            text = print_predicate(item)
            if isinstance(item, ast.Or):
                text = f"({text})"
            parts.append(text)
        return " OR ".join(parts)
    raise TypeError(f"not a predicate: {node!r}")


def print_set_expr(se: ast.SetExpr) -> str:
    factors = ", ".join(
        f.collection if f.alias is None else f"{f.collection} {f.alias}"
        for f in se.factors
    )
    if se.predicate is not None:
        return f"({factors} | {print_predicate(se.predicate)})"
    return f"({factors})"


def _step(step) -> str:
    if isinstance(step, ast.ProjectStep):
        parts = list(step.dims)
        if step.target is not None:
            parts.append(print_set_expr(step.target))
        return " -> " + " -> ".join(parts)
    if isinstance(step, ast.DeprojectStep):
        parts = list(step.dims)
        if step.target is not None:
            parts.append(print_set_expr(step.target))
        return " <- " + " <- ".join(parts)
    if isinstance(step, ast.StarProjectStep):
        return " *-> " + print_set_expr(step.target)
    if isinstance(step, ast.StarDeprojectStep):
        return " <-* " + print_set_expr(step.target)
    if isinstance(step, ast.InferStep):
        return " <-*-> " + print_set_expr(step.target)
    raise TypeError(f"not a step: {step!r}")


def print_query(q: ast.Query) -> str:
    if isinstance(q.anchor, ast.SetExpr):
        head = print_set_expr(q.anchor)
    else:
        head = ", ".join(print_literal(lit) for lit in q.anchor)
    return head + "".join(_step(s) for s in q.steps)


def print_statement(stmt) -> str:
    if isinstance(stmt, ast.ProductDef):
        return f"{stmt.name} = {print_set_expr(stmt.body)}"
    return print_query(stmt)
