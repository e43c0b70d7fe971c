"""Query language front end: lexer, syntax tree, parser, resolver."""

from .lexer import LexError, Token, split_statements, tokenize
from .parser import parse_query, parse_schema, parse_statement
from .printer import print_predicate, print_query, print_set_expr
from .resolver import QueryPlan, explain, resolve, resolve_product

__all__ = [
    "LexError",
    "Token",
    "split_statements",
    "tokenize",
    "parse_query",
    "parse_schema",
    "parse_statement",
    "print_predicate",
    "print_query",
    "print_set_expr",
    "QueryPlan",
    "explain",
    "resolve",
    "resolve_product",
]
