"""Random syntax trees, two ways: a seeded plain generator for counted
round-trip runs, and hypothesis strategies for property exploration."""

from __future__ import annotations

import operator
import random
import string
from decimal import Decimal

import hypothesis.strategies as st

from comdb.coql import ast
from comdb.coql.lexer import KEYWORDS

_FIRST = string.ascii_letters + "_"
_REST = string.ascii_letters + string.digits + "_"
_TEXT_POOL = string.ascii_letters + string.digits + " '\"\n\t,.<>*|()->=_éλ汉"

CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


# --- plain seeded generator -----------------------------------------------------


def rand_ident(rng: random.Random) -> str:
    s = rng.choice(_FIRST) + "".join(
        rng.choice(_REST) for _ in range(rng.randint(0, 8))
    )
    while s.upper() in KEYWORDS:
        s += "_"
    return s


def rand_literal(rng: random.Random) -> ast.Literal:
    r = rng.random()
    if r < 0.12:
        return ast.Literal(None)
    if r < 0.45:
        return ast.Literal(rng.randint(-10**6, 10**6))
    if r < 0.70:
        sign = rng.choice(("", "-"))
        d = Decimal(f"{sign}{rng.randint(0, 999)}.{rng.randint(0, 9999)}")
        return ast.Literal(d.scaleb(rng.randint(-9, 9)) if rng.random() < 0.3 else d)
    n = rng.randint(0, 12)
    return ast.Literal("".join(rng.choice(_TEXT_POOL) for _ in range(n)))


def rand_path(rng: random.Random) -> ast.PathTerm:
    return ast.PathTerm(tuple(rand_ident(rng) for _ in range(rng.randint(1, 3))))


def rand_agg(rng: random.Random) -> ast.AggTerm:
    func = rng.choice(("COUNT", "SUM"))
    predicate = rand_comparison(rng) if rng.random() < 0.4 else None
    path = None
    if rng.random() < 0.5:
        path = tuple(rand_ident(rng) for _ in range(rng.randint(1, 2)))
    return ast.AggTerm(func, rand_ident(rng), rand_ident(rng), predicate, path)


def rand_term(rng: random.Random):
    r = rng.random()
    if r < 0.4:
        return rand_literal(rng)
    if r < 0.85:
        return rand_path(rng)
    return rand_agg(rng)


def rand_comparison(rng: random.Random) -> ast.Comparison:
    return ast.Comparison(rng.choice(CMP_OPS), rand_term(rng), rand_term(rng))


def rand_predicate(rng: random.Random, depth: int = 0):
    r = rng.random()
    if depth >= 3 or r < 0.5:
        return rand_comparison(rng)
    if r < 0.65:
        return ast.Not(rand_predicate(rng, depth + 1))
    items = tuple(rand_predicate(rng, depth + 1) for _ in range(rng.randint(2, 3)))
    return ast.And(items) if r < 0.85 else ast.Or(items)


def rand_factor(rng: random.Random) -> ast.Factor:
    alias = rand_ident(rng) if rng.random() < 0.4 else None
    return ast.Factor(rand_ident(rng), alias)


def rand_set_expr(rng: random.Random) -> ast.SetExpr:
    factors = tuple(rand_factor(rng) for _ in range(rng.randint(1, 3)))
    predicate = rand_predicate(rng) if rng.random() < 0.6 else None
    return ast.SetExpr(factors, predicate)


def rand_step(rng: random.Random):
    r = rng.random()
    if r < 0.3:
        dims = tuple(rand_ident(rng) for _ in range(rng.randint(0, 3)))
        target = rand_set_expr(rng) if (not dims or rng.random() < 0.6) else None
        return ast.ProjectStep(dims, target)
    if r < 0.6:
        dims = tuple(rand_ident(rng) for _ in range(rng.randint(0, 3)))
        target = rand_set_expr(rng) if (not dims or rng.random() < 0.6) else None
        return ast.DeprojectStep(dims, target)
    if r < 0.75:
        return ast.StarProjectStep(rand_set_expr(rng))
    if r < 0.9:
        return ast.StarDeprojectStep(rand_set_expr(rng))
    return ast.InferStep(rand_set_expr(rng))


def normalize_steps(steps) -> tuple:
    # Adjacent same-direction hops fuse in the grammar ('-> a' then '-> (C)'
    # is one step), so canonical trees must carry them pre-fused.
    out: list = []
    for s in steps:
        if out and isinstance(s, (ast.ProjectStep, ast.DeprojectStep)):
            prev = out[-1]
            if type(prev) is type(s) and prev.target is None:
                out[-1] = type(s)(prev.dims + s.dims, s.target)
                continue
        out.append(s)
    return tuple(out)


def rand_query(rng: random.Random) -> ast.Query:
    if rng.random() < 0.75:
        anchor = rand_set_expr(rng)
    else:
        anchor = tuple(rand_literal(rng) for _ in range(rng.randint(1, 3)))
    steps = normalize_steps(rand_step(rng) for _ in range(rng.randint(0, 4)))
    return ast.Query(anchor, steps)


def rand_statement(rng: random.Random):
    if rng.random() < 0.15:
        return ast.ProductDef(rand_ident(rng), rand_set_expr(rng))
    return rand_query(rng)


# --- hypothesis strategies --------------------------------------------------------

# [A-Za-z_][A-Za-z0-9_]{0,9}, built from two draws: far cheaper than from_regex
idents = st.builds(operator.add, st.sampled_from(_FIRST), st.text(_REST, max_size=9)).filter(
    lambda s: s.upper() not in KEYWORDS
)

# signed, and with an exponent when scaled (str(Decimal("1.5").scaleb(4)) is '1.5E+4')
decimals = st.builds(
    lambda sign, a, b, e: Decimal(f"{sign}{a}.{b}").scaleb(e),
    st.sampled_from(("", "-")),
    st.integers(0, 9999),
    st.integers(0, 9999),
    st.integers(-9, 9),
)

literals = st.builds(
    ast.Literal,
    st.one_of(
        st.none(),
        st.integers(-10**9, 10**9),
        decimals,
        st.text(max_size=15),
    ),
)

path_terms = st.builds(
    lambda parts: ast.PathTerm(tuple(parts)),
    st.lists(idents, min_size=1, max_size=3),
)

_shallow_cmp = st.builds(
    ast.Comparison, st.sampled_from(CMP_OPS), path_terms, literals
)

agg_terms = st.builds(
    ast.AggTerm,
    st.sampled_from(("COUNT", "SUM")),
    idents,
    idents,
    st.one_of(st.none(), _shallow_cmp),
    st.one_of(st.none(), st.builds(lambda p: tuple(p), st.lists(idents, min_size=1, max_size=2))),
)

terms = st.one_of(literals, path_terms, agg_terms)

comparisons = st.builds(ast.Comparison, st.sampled_from(CMP_OPS), terms, terms)

predicates = st.recursive(
    comparisons,
    lambda inner: st.one_of(
        st.builds(ast.Not, inner),
        st.builds(lambda items: ast.And(tuple(items)), st.lists(inner, min_size=2, max_size=3)),
        st.builds(lambda items: ast.Or(tuple(items)), st.lists(inner, min_size=2, max_size=3)),
    ),
    max_leaves=10,
)

factors = st.builds(ast.Factor, idents, st.one_of(st.none(), idents))

set_exprs = st.builds(
    lambda fs, p: ast.SetExpr(tuple(fs), p),
    st.lists(factors, min_size=1, max_size=3),
    st.one_of(st.none(), predicates),
)


def _hop(cls):
    return st.one_of(
        st.builds(lambda t: cls((), t), set_exprs),
        st.builds(
            lambda dims, t: cls(tuple(dims), t),
            st.lists(idents, min_size=1, max_size=3),
            st.one_of(st.none(), set_exprs),
        ),
    )


steps = st.one_of(
    _hop(ast.ProjectStep),
    _hop(ast.DeprojectStep),
    st.builds(ast.StarProjectStep, set_exprs),
    st.builds(ast.StarDeprojectStep, set_exprs),
    st.builds(ast.InferStep, set_exprs),
)

queries = st.builds(
    lambda anchor, ss: ast.Query(anchor, normalize_steps(ss)),
    st.one_of(
        set_exprs,
        st.builds(tuple, st.lists(literals, min_size=1, max_size=3)),
    ),
    st.lists(steps, max_size=4),
)

statements = st.one_of(queries, st.builds(ast.ProductDef, idents, set_exprs))
