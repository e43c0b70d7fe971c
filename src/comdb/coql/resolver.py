"""Name resolution and planning: a parsed query becomes an executable plan.

Resolution binds collection, dimension and field names against a schema,
compiles predicates into evaluable closures, stores on each motion step
the route the algebra's router chose for it, and records any
warnings (such as the full-target fallback for unconnected collections)
before anything runs.

A set expression binds one way wherever it stands, as the anchor or as a
step's target (_resolve_set): to a collection and its compiled
predicate, or to a product.  resolve walks the steps in one loop: it
rejects a step that cannot start from the chain's domain, lets the
step's resolver append its motions, then appends the target's predicate
as a filter.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, Mapping

from ..algebra import (
    FieldPath,
    Leg,
    PrimitiveDomain,
    ProductCollection,
    Route,
    domain_name,
    make_product,
    route_infer,
    route_path,
    route_star_deproject,
    route_star_project,
    _folded_sums,
    _sum_rows,
    _value_at,
)
from ..errors import (
    AmbiguousPath,
    NonNumericPath,
    NoPath,
    ResolveError,
    UnknownAlias,
    UnknownCollection,
    UnknownDimension,
)
from ..model import Dimension, DimensionPath, FieldSpec, Schema, _iso_date
from . import ast
from .printer import print_literal, print_predicate, print_query, print_set_expr


def _raise(cls, msg: str, pos: tuple[int, int]):
    if pos and pos != (0, 0):
        raise cls(msg, pos[0], pos[1])
    raise cls(msg)


# --- predicate compilation ----------------------------------------------------

_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass(frozen=True)
class PathValue:
    """A path term: a reader (db, subject) -> value, and what the path reads.

    The subject is a row of the path's collection, or {alias: row} for a
    product member.

    value_type is the primitive type name, or None when the endpoint is a
    reference (ref_to then names the destination concept); a literal
    compared with the path is typed against them.
    """

    read: Callable
    value_type: str | None
    ref_to: str | None
    text: str


@dataclass(frozen=True)
class AggValue:
    """COUNT or SUM over the one-hop de-projection of the subject row."""

    read: Callable
    func: str


@dataclass(frozen=True)
class _Ctx:
    """What predicate paths may start from: one concept or product factors."""

    schema: Schema
    concept: str | None = None           # element subject
    alias: str | None = None             # its optional alias
    aliases: Mapping[str, str] | None = None  # product subject: alias -> concept


def _field_path(schema: Schema, start: str, parts, pos):
    """Walk a dotted field path from start.

    Returns the dimensions the inner parts name, the concept the last part
    belongs to, and the field it names (None when parts is empty).
    """
    dims: list[Dimension] = []
    cur = start
    last = len(parts) - 1
    for k, part in enumerate(parts):
        got = schema.fields.get((cur, part))
        if got is None:
            _raise(ResolveError, f"no field '{part}' on concept '{cur}'", pos)
        f, dim = got
        if k == last:
            return tuple(dims), cur, f
        if dim is None:
            _raise(ResolveError, f"'{cur}.{part}' is primitive; only the last path part may be", pos)
        dims.append(dim)
        cur = dim.destination
    return (), cur, None


def _compile_path(ctx: _Ctx, node: ast.PathTerm) -> PathValue:
    parts = list(node.parts)
    text = ".".join(node.parts)
    alias = None
    if ctx.aliases is not None:
        if not parts or parts[0] not in ctx.aliases:
            known = ", ".join(sorted(ctx.aliases))
            _raise(UnknownAlias, f"path '{text}' must start with a factor alias ({known})", node.pos)
        alias = parts.pop(0)
        start = ctx.aliases[alias]
    else:
        start = ctx.concept
        if parts and ctx.alias is not None and parts[0] == ctx.alias:
            parts.pop(0)

    dims, owner, f = _field_path(ctx.schema, start, parts, node.pos)
    if f is None or f.is_primitive:
        name = None if f is None else f.name
    else:  # a reference reads the identity of the element it names, one hop on
        dims, name = dims + (ctx.schema.dimension(owner, f.name),), None
    # a field of the subject itself is read off its column; _value_at walks the rest
    if dims or name is None:
        def at(db, row):
            return _value_at(db, start, row, dims, name)

        read = at if alias is None else (lambda db, subject: at(db, subject[alias]))
    elif alias is None:
        def read(db, row):
            return db.collections[start].columns[name][row]
    else:
        def read(db, subject):
            return db.collections[start].columns[name][subject[alias]]
    if f is None:
        return PathValue(read, None, start, text)
    if f.is_primitive:
        return PathValue(read, f.type, None, text)
    return PathValue(read, None, f.type, text)


def _coerce_literal(value, value_type: str, pos) -> object:
    """Fit a literal to the primitive type it is compared with."""
    if value is None:
        return None
    if value_type == "string":
        if not isinstance(value, str):
            _raise(ResolveError, f"expected a string, found {value!r}", pos)
    elif value_type in ("integer", "decimal"):
        if not isinstance(value, (int, Decimal)):
            _raise(ResolveError, f"expected a number, found {value!r}", pos)
    elif value_type == "date":
        if not isinstance(value, str):
            _raise(ResolveError, f"expected an ISO date string, found {value!r}", pos)
        try:
            return _iso_date(value)
        except ValueError:
            _raise(ResolveError, f"'{value}' is not an ISO date", pos)
    return value


def _type_literal_against(term, lit: ast.Literal, schema: Schema):
    """The value a literal compared with term stands for (term None: another literal)."""
    value = lit.value
    if isinstance(term, AggValue):
        if value is not None and not isinstance(value, (int, Decimal)):
            _raise(ResolveError, f"{term.func} compares against numbers, found {value!r}", lit.pos)
    elif isinstance(term, PathValue):
        if term.value_type is not None:
            return _coerce_literal(value, term.value_type, lit.pos)
        if value is not None:
            # literal against a reference endpoint: wrap into an identity
            # tuple when the destination identity has a single field
            concept = schema.concept(term.ref_to)
            if len(concept.identity_fields) == 1:
                return (_coerce_literal(value, concept.identity_fields[0].type, lit.pos),)
            _raise(
                ResolveError,
                f"cannot compare '{term.text}' with a constant: "
                f"'{term.ref_to}' has a composite identity",
                lit.pos,
            )
    return value


def _compile_term(ctx: _Ctx, node):
    if isinstance(node, ast.PathTerm):
        return _compile_path(ctx, node)
    if isinstance(node, ast.AggTerm):
        return _compile_agg(ctx, node)
    raise TypeError(f"not a term: {node!r}")


def _compile_agg(ctx: _Ctx, node: ast.AggTerm) -> AggValue:
    if ctx.aliases is not None:
        _raise(ResolveError, "aggregates are not allowed in product predicates", node.pos)
    subject = ctx.concept
    if node.collection not in ctx.schema.concepts:
        _raise(UnknownCollection, f"unknown collection '{node.collection}'", node.pos)
    dim = ctx.schema.dimension(node.collection, node.dim)
    if dim is None or dim.destination != subject:
        _raise(
            UnknownDimension,
            f"'{node.dim}' is not a dimension of '{node.collection}' into '{subject}'",
            node.pos,
        )
    inner = None
    if node.predicate is not None:
        inner = compile_predicate(_Ctx(ctx.schema, concept=node.collection), node.predicate)
    sum_path = None
    if node.func == "SUM":
        if node.path is None:
            raise NonNumericPath(
                "SUM needs a numeric field path, like SUM(dim <- (Coll).field); "
                "COUNT counts elements without one"
            )
        dims, owner, f = _field_path(ctx.schema, node.collection, node.path, node.pos)
        if f is None:
            _raise(ResolveError, "empty field path", node.pos)
        if not f.is_primitive:
            _raise(ResolveError, f"'{owner}.{f.name}' is not a primitive field", node.pos)
        if f.type not in ("integer", "decimal"):
            raise NonNumericPath(f"cannot sum over '{f.name}' of type {f.type}")
        sum_path = FieldPath(node.collection, dims, f)
    elif node.path is not None:
        _raise(ResolveError, "COUNT takes no field path", node.pos)
    collection = node.collection
    if sum_path is not None and inner is None:
        # a SUM with no inner predicate reads the sums folded once per stored
        # lesser row; COUNT and a SUM with one walk the reverse list below.
        # The key is the SUM's names, which hash faster than dim and sum_path.
        key = (collection, node.dim, tuple(node.path))

        def read(db, row):
            return _folded_sums(db, key, dim, sum_path)[row]

        return AggValue(read, node.func)

    def read(db, row):
        # the subject's reverse list, read in place: it lists each lesser once
        members = db.collections[subject].reverse[dim][row]
        if inner is not None:
            members = [r for r in members if inner(db, r)]
        if sum_path is None:
            return len(members)
        return _sum_rows(db, members, sum_path)

    return AggValue(read, node.func)


def _reader(term, other, node, schema: Schema) -> Callable:
    """A compiled term's reader; a literal reads as its value typed against other."""
    if term is not None:
        return term.read
    value = _type_literal_against(other, node, schema)
    return lambda db, subject: value


def compile_predicate(ctx: _Ctx, node) -> Callable:
    """Compile a predicate into one closure (db, subject) -> bool.

    The subject is a row of the collection, or {alias: row} for a product
    member.
    A comparison touching NULL is false, and so is one that raises
    TypeError; NOT applies after that.
    """
    if isinstance(node, ast.Comparison):
        op = _OPS[node.op]
        # compile paths first so literals can be typed against them
        cl = None if isinstance(node.left, ast.Literal) else _compile_term(ctx, node.left)
        cr = None if isinstance(node.right, ast.Literal) else _compile_term(ctx, node.right)
        left = _reader(cl, cr, node.left, ctx.schema)
        right = _reader(cr, cl, node.right, ctx.schema)

        def holds(db, subject):
            a = left(db, subject)
            if a is None:
                return False
            b = right(db, subject)
            if b is None:
                return False
            try:
                return bool(op(a, b))
            except TypeError:
                return False

        return holds
    if isinstance(node, ast.Not):
        item = compile_predicate(ctx, node.item)
        return lambda db, subject: not item(db, subject)
    if isinstance(node, (ast.And, ast.Or)):
        items = tuple(compile_predicate(ctx, i) for i in node.items)
        stop = isinstance(node, ast.Or)  # the first item giving this decides

        def decided(db, subject):
            for p in items:
                if p(db, subject) is stop:
                    return stop
            return not stop

        return decided
    raise TypeError(f"not a predicate: {node!r}")


# --- plans ---------------------------------------------------------------------


@dataclass(frozen=True)
class CollectionAnchor:
    """(C | p): every element of C that p holds for.

    seeks are the plans of the de-projections equal to the `path ==
    constant` conjuncts of p; when there are any, the predicate runs only
    on the elements they all reach.
    """

    collection: str
    predicate: object | None
    text: str
    seeks: tuple = ()


@dataclass(frozen=True)
class ProductAnchor:
    product: ProductCollection
    text: str


@dataclass(frozen=True)
class LiteralAnchor:
    domain: PrimitiveDomain
    values: tuple
    text: str


@dataclass(frozen=True)
class PlanFilter:
    predicate: object
    text: str


@dataclass(frozen=True)
class PlanProjectField:
    """The last hop of a projection: read one primitive field."""

    field: FieldSpec
    text: str


@dataclass(frozen=True)
class PlanDeprojectValues:
    """First hop of a constant-anchored chain: the owners of the values."""

    owner: str
    field: FieldSpec
    text: str


@dataclass(frozen=True)
class PlanRoute:
    """A motion ('->', '<-', '*->', '<-*', '<-*->'): the route it runs."""

    route: Route
    text: str


@dataclass(frozen=True)
class QueryPlan:
    anchor: object
    steps: tuple
    warnings: tuple[str, ...]
    text: str


# --- resolution -----------------------------------------------------------------


def _product_from_set_expr(se: ast.SetExpr, schema: Schema) -> ProductCollection:
    factors = []
    for f in se.factors:
        if f.collection not in schema.concepts:
            _raise(UnknownCollection, f"unknown collection '{f.collection}'", f.pos)
        factors.append((f.alias or f.collection, f.collection))
    predicate = None
    if se.predicate is not None:
        aliases = {a: c for a, c in factors}
        predicate = compile_predicate(_Ctx(schema, aliases=aliases), se.predicate)
    text = print_set_expr(se)
    return make_product(text, factors, predicate, text)


def _conjuncts(node) -> list:
    """The items of a predicate's top-level AND, nested ANDs flattened."""
    if isinstance(node, ast.And):
        return [c for item in node.items for c in _conjuncts(item)]
    return [node]


def _seek(schema: Schema, one: ast.Factor, node) -> QueryPlan | None:
    """The plan of the de-projection equal to `path == constant`, or None.

    (C | p.f == v) holds the elements of v <- f <- p... <- (C).  A path
    ending at a reference, or the bare alias, compares a single-field
    identity, so its constant de-projects through that identity field.
    """
    if not isinstance(node, ast.Comparison) or node.op != "==":
        return None
    path, lit = node.left, node.right
    if isinstance(path, ast.Literal):
        path, lit = lit, path
    if not isinstance(path, ast.PathTerm) or not isinstance(lit, ast.Literal) or lit.value is None:
        return None
    parts = list(path.parts)
    if parts and parts[0] == one.alias:
        parts.pop(0)
    dims, owner, f = _field_path(schema, one.collection, parts, path.pos)
    names = [d.name for d in dims]
    if f is None or not f.is_primitive:
        if f is not None:
            names.append(f.name)
            owner = f.type
        f = schema.concept(owner).identity_fields[0]
    target = ast.SetExpr((ast.Factor(one.collection),))
    return resolve(ast.Query((lit,), (ast.DeprojectStep((f.name, *reversed(names)), target),)),
                   schema)


def _resolve_set(se: ast.SetExpr, schema: Schema, products: Mapping):
    """Bind a set expression: (collection, compiled predicate or None) or (product, None).

    A registered product takes the expression's predicate on top of its own.
    """
    if len(se.factors) != 1:
        return _product_from_set_expr(se, schema), None
    (one,) = se.factors
    if one.collection in schema.concepts:
        if se.predicate is None:
            return one.collection, None
        ctx = _Ctx(schema, concept=one.collection, alias=one.alias)
        return one.collection, compile_predicate(ctx, se.predicate)
    if one.collection not in products:
        _raise(UnknownCollection, f"unknown collection '{one.collection}'", one.pos)
    if one.alias is not None:
        _raise(ResolveError, "a product collection cannot take an alias", one.pos)
    product = products[one.collection]
    if se.predicate is None:
        return product, None
    extra = compile_predicate(_Ctx(schema, aliases=dict(product.factors)), se.predicate)
    inner = product.predicate

    def both(db, subject):
        return (inner is None or inner(db, subject)) and extra(db, subject)

    return ProductCollection(product.name, product.factors, both, print_set_expr(se)), None


def _set_anchor(se: ast.SetExpr, schema: Schema, products: Mapping):
    """The anchor a set expression starts a chain with, and the domain it holds."""
    domain, predicate = _resolve_set(se, schema, products)
    if isinstance(domain, ProductCollection):
        return ProductAnchor(domain, print_set_expr(se)), domain
    seeks = ()
    if predicate is not None:
        seeks = tuple(filter(None, (_seek(schema, se.factors[0], c)
                                    for c in _conjuncts(se.predicate))))
    return CollectionAnchor(domain, predicate, print_set_expr(se), seeks), domain


def _collection_target(se: ast.SetExpr, schema: Schema, products: Mapping, pos):
    """The target of '->' or '<-', which must be a collection, and its predicate."""
    target, post = _resolve_set(se, schema, products)
    if isinstance(target, ProductCollection):
        _raise(ResolveError, "use '<-*' to reach a product collection", pos)
    return target, post


def _two_up_paths(schema: Schema, lower: str, upper: str) -> list[DimensionPath]:
    """The first two paths from lower up to upper, in name order.

    Only branches that still reach upper are walked, so this stops after
    two paths however many there are.
    """
    paths: list[DimensionPath] = []
    prefix: list[Dimension] = []

    def walk(at: str) -> None:
        for d in schema.dimensions_from(at):
            if len(paths) == 2:
                return
            prefix.append(d)
            if d.destination == upper:
                paths.append(DimensionPath(tuple(prefix)))
            elif upper in schema.above(d.destination):
                walk(d.destination)
            prefix.pop()

    walk(lower)
    return paths


def _unique_up_path(schema: Schema, lower: str, upper: str, pos) -> DimensionPath:
    paths = _two_up_paths(schema, lower, upper)
    if not paths:
        _raise(NoPath, f"no path between '{lower}' and '{upper}'; "
               "'<-*->' routes through common lesser collections", pos)
    if len(paths) > 1:
        listing = " and ".join(p.dotted() for p in paths)
        _raise(
            AmbiguousPath,
            f"multiple paths between '{lower}' and '{upper}', such as {listing}; "
            "name the dimensions",
            pos,
        )
    return paths[0]


def _path_route(schema: Schema, domain, segs, down: bool, text: str) -> PlanRoute:
    """A '->' or '<-' step along the dimensions segs, given in path order."""
    return PlanRoute(route_path(schema, domain, DimensionPath(tuple(segs)), down), text)


def _resolve_project(step: ast.ProjectStep, domain, schema: Schema, products: Mapping, out: list):
    # explicit dimensions, possibly starting with a product factor alias
    segs: list[Dimension] = []
    cur = domain
    dims = list(step.dims)
    if isinstance(domain, ProductCollection):
        if not dims:
            _raise(ResolveError, "projection from a product names a factor alias first", step.pos)
        first = dims.pop(0)
        if first not in domain.alias_index:
            known = ", ".join(sorted(domain.alias_index))
            _raise(UnknownDimension, f"'{first}' is not a factor alias ({known})", step.pos)
        segs.append(Dimension(first, domain.label, domain.collection_of(first)))
        cur = domain.collection_of(first)
        if not dims and step.target is None:
            out.append(_path_route(schema, domain, segs, False, f"-> {first} -> ({cur})"))
            return cur, None

    if not dims and step.target is not None and not segs:
        target, post = _collection_target(step.target, schema, products, step.pos)
        path = _unique_up_path(schema, cur, target, step.pos)
        out.append(_path_route(schema, cur, path.segments, False, f"-> ({target})"))
        return target, post

    for k, name in enumerate(dims):
        got = schema.fields.get((cur, name))
        last = k == len(dims) - 1
        if got is None:
            if len(step.dims) == 1 and step.target is None and name in schema.concepts:
                # bare '-> Coll' reads as '-> (Coll)' when no dimension matches
                path = _unique_up_path(schema, cur, name, step.pos)
                out.append(_path_route(schema, cur, path.segments, False, f"-> ({name})"))
                return name, None
            _raise(UnknownDimension, f"no dimension or field '{name}' on '{cur}'", step.pos)
        f, dim = got
        if dim is None:
            if not last or step.target is not None:
                _raise(
                    ResolveError,
                    f"'{cur}.{name}' is primitive and ends the chain",
                    step.pos,
                )
            if segs:
                out.append(_path_route(schema, domain, segs, False,
                                       "-> " + " -> ".join(step.dims[:-1])))
            out.append(PlanProjectField(f, f"-> {name}"))
            return PrimitiveDomain(cur, name, f.type), None
        segs.append(dim)
        cur = dim.destination

    text = "-> " + " -> ".join(step.dims)
    post = None
    if step.target is not None:
        target, post = _collection_target(step.target, schema, products, step.pos)
        if target != cur:
            dotted = ".".join(step.dims)
            _raise(ResolveError, f"'{dotted}' arrives at '{cur}', not '{target}'", step.pos)
        text += f" -> ({cur})"
    out.append(_path_route(schema, domain, segs, False, text))
    return cur, post


def _down_path(schema: Schema, target: str, names, pos) -> tuple[list[Dimension], str]:
    """Walk '<- a <- b <- (target)' up from target.

    Returns the dimensions in path order and the collection they arrive at.
    """
    segs: list[Dimension] = []
    walk = target
    for name in reversed(names):
        d = schema.dimension(walk, name)
        if d is None:
            _raise(UnknownDimension, f"no dimension '{name}' on '{walk}'", pos)
        segs.append(d)
        walk = d.destination
    return segs, walk


def _resolve_deproject(step: ast.DeprojectStep, domain, schema: Schema,
                       products: Mapping, out: list):
    if step.target is not None:
        target, post = _collection_target(step.target, schema, products, step.pos)
        if not step.dims:
            path = _unique_up_path(schema, target, domain, step.pos)
            out.append(_path_route(schema, domain, path.segments, True, f"<- ({target})"))
            return target, post
        segs, walk = _down_path(schema, target, step.dims, step.pos)
        if walk != domain:
            dotted = " <- ".join(step.dims)
            _raise(ResolveError, f"'{dotted} <- ({target})' arrives at '{walk}', not '{domain}'",
                   step.pos)
        out.append(_path_route(schema, domain, segs, True,
                               "<- " + " <- ".join(step.dims) + f" <- ({target})"))
        return target, post

    # no explicit source collection: walk down one dimension name at a time
    segs_down: list[Dimension] = []
    walk = domain
    for name in step.dims:
        cands = [d for d in schema.dimensions_into(walk) if d.name == name]
        if not cands:
            _raise(UnknownDimension, f"no dimension '{name}' arrives at '{walk}'", step.pos)
        if len(cands) > 1:
            sources = ", ".join(sorted(d.source for d in cands))
            _raise(
                AmbiguousPath,
                f"dimension '{name}' arrives at '{walk}' from several collections "
                f"({sources}); finish with one in parentheses",
                step.pos,
            )
        segs_down.append(cands[0])
        walk = cands[0].source
    out.append(_path_route(schema, domain, segs_down[::-1], True, "<- " + " <- ".join(step.dims)))
    return walk, None


def _resolve_literal_anchor(lits, first: ast.DeprojectStep, schema: Schema,
                            products: Mapping, out: list):
    if not first.dims:
        _raise(ResolveError, "constants de-project through a field name first", first.pos)
    field_name = first.dims[0]
    rest = first.dims[1:]

    post = None
    if first.target is not None:
        target, post = _collection_target(first.target, schema, products, first.pos)
        segs, owner = _down_path(schema, target, rest, first.pos)
    else:
        if rest:
            _raise(ResolveError, "finish the de-projection with a collection in parentheses",
                   first.pos)
        owners = sorted(
            c.name for c in schema.concepts.values()
            if c.field(field_name) is not None and c.field(field_name).is_primitive
        )
        if not owners:
            _raise(ResolveError, f"no collection has a primitive field '{field_name}'", first.pos)
        if len(owners) > 1:
            _raise(
                AmbiguousPath,
                f"field '{field_name}' exists on several collections "
                f"({', '.join(owners)}); name one in parentheses",
                first.pos,
            )
        owner = owners[0]
        target = owner
        segs = []

    fld = schema.concept(owner).field(field_name)
    if fld is None or not fld.is_primitive:
        _raise(ResolveError, f"'{owner}.{field_name}' is not a primitive field", first.pos)
    values = []
    for lit in lits:
        if lit.value is None:
            continue  # de-projection never matches NULL
        values.append(_coerce_literal(lit.value, fld.type, lit.pos))
    domain = PrimitiveDomain(owner, field_name, fld.type)
    anchor = LiteralAnchor(domain, tuple(values), ", ".join(print_literal(l) for l in lits))
    out.append(PlanDeprojectValues(owner, fld, f"<- {field_name} <- ({owner})"))
    if segs:
        out.append(_path_route(schema, owner, segs, True,
                               "<- " + " <- ".join(rest) + f" <- ({target})"))
    return anchor, target, post


# each kind of step's arrow, and the router of each star form
_ARROWS = {ast.ProjectStep: "->", ast.DeprojectStep: "<-", ast.StarProjectStep: "*->",
           ast.StarDeprojectStep: "<-*", ast.InferStep: "<-*->"}
_ROUTERS = {"*->": route_star_project, "<-*": route_star_deproject, "<-*->": route_infer}


def _resolve_star(step, arrow: str, domain, schema: Schema, products: Mapping,
                  out: list, warnings: list):
    """'*->', '<-*' or '<-*->': the route its router chose to the target."""
    target, post = _resolve_set(step.target, schema, products)
    if arrow == "*->" and isinstance(target, ProductCollection):
        _raise(ResolveError, "'*->' cannot arrive at a product; use '<-*'", step.pos)
    route = _ROUTERS[arrow](schema, domain, target)
    if route.warning is not None:
        warnings.append(route.warning)
    out.append(PlanRoute(route, f"{arrow} ({domain_name(target)})"))
    return target, post


def resolve(query: ast.Query, schema: Schema, products: Mapping | None = None) -> QueryPlan:
    """Bind a parsed query against a schema; returns the executable plan.

    Each step appends the motions it makes and returns the domain it
    arrives at and its target's predicate, which filters after them.
    """
    products = products or {}
    warnings: list[str] = []
    out: list = []

    if isinstance(query.anchor, ast.SetExpr):
        anchor, domain = _set_anchor(query.anchor, schema, products)
    elif not query.steps or not isinstance(query.steps[0], ast.DeprojectStep):
        _raise(ResolveError, "constants must be followed by a de-projection ('<-')", query.pos)
    else:
        anchor = None  # the first step de-projects the constants

    for st in query.steps:
        arrow = _ARROWS[type(st)]
        if anchor is None:
            anchor, domain, post = _resolve_literal_anchor(query.anchor, st, schema, products, out)
        elif isinstance(domain, PrimitiveDomain):
            _raise(ResolveError, f"the chain already ended at primitive values '{domain}'", st.pos)
        elif isinstance(domain, ProductCollection) and arrow in ("<-", "<-*"):
            _raise(ResolveError, f"'{arrow}' cannot start from product '{domain.name}'", st.pos)
        elif arrow == "->":
            domain, post = _resolve_project(st, domain, schema, products, out)
        elif arrow == "<-":
            domain, post = _resolve_deproject(st, domain, schema, products, out)
        else:
            domain, post = _resolve_star(st, arrow, domain, schema, products, out, warnings)
        if post is not None:
            out.append(PlanFilter(post, print_predicate(st.target.predicate)))

    return QueryPlan(anchor, tuple(out), tuple(warnings), print_query(query))


def resolve_product(pd: ast.ProductDef, schema: Schema,
                    products: Mapping | None = None) -> ProductCollection:
    """Bind a product definition; the result can be registered under its name."""
    if pd.name in schema.concepts:
        _raise(ResolveError, f"'{pd.name}' is already a collection", pd.pos)
    if len(pd.body.factors) < 2:
        _raise(ResolveError, "a product needs at least two factors", pd.pos)
    product = _product_from_set_expr(pd.body, schema)
    return ProductCollection(pd.name, product.factors, product.predicate,
                             print_set_expr(pd.body))


# --- explain --------------------------------------------------------------------


def _hops(leg: Leg) -> list[tuple[str, str]]:
    """(where the hop starts, the hop) for each edge of a leg, in running order."""
    if leg.down:
        return [(d.destination, f"<- {d.name} <- ({d.source})") for d in leg.edges + leg.factors]
    return [(d.source, f"-> {d.name} -> ({d.destination})") for d in leg.factors + leg.edges]


def _explain_route(step: PlanRoute) -> list[str]:
    """Hop by hop when every leg is one path; else the sub-DAG's edges in order."""
    route = step.route
    if route.warning is not None:
        return [step.text]
    legs = [leg for way in route.ways for leg in way[1:] if leg is not None]
    if len(route.ways) <= 1 and all(leg.paths == 1 for leg in legs):
        return [hop for leg in legs for _, hop in _hops(leg)]
    if len(route.ways) == 1 and route.ways[0][0] is None:
        (leg,) = legs
        lines = [f"{step.text} over {leg.paths} paths:"]
        return lines + [f"  ({domain_name(start)}) {hop}" for start, hop in _hops(leg)]
    lines = [f"{step.text} over {len(route.ways)} routes:"]
    for via, down, up in route.ways:
        lines.append(f"via {domain_name(via)}:" if via is not None else "direct:")
        for label, leg in (("down", down), ("up", up)):
            if leg is not None:
                lines.extend(f"  {label}: ({domain_name(start)}) {hop}" for start, hop in _hops(leg))
    return lines


def _explain_step(step) -> list[str]:
    if isinstance(step, PlanFilter):
        return [f"| {step.text}"]
    if isinstance(step, (PlanProjectField, PlanDeprojectValues)):
        return [step.text]
    if isinstance(step, PlanRoute):
        return _explain_route(step)
    raise TypeError(f"not a plan step: {step!r}")


def explain(plan: QueryPlan) -> str:
    """Human-readable listing of the motions a plan will make, one hop per line."""
    lines = [plan.anchor.text]
    for step in plan.steps:
        lines.extend(_explain_step(step))
    for w in plan.warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines)
