"""Name resolution and planning: a parsed query becomes an executable plan.

Resolution binds collection, dimension and field names against a schema,
splits predicates into plain records that algebra runs and compiles what
is left into closures, stores on each motion step the route the algebra's
router chose for it, and records any warnings (such as the full-target
fallback for unconnected collections) before anything runs.  It prints
nothing: explain derives every line it lists from the plan and the parsed
query the plan keeps.

A set expression binds to a collection, or to a product that folds in
its predicate (_resolve_set).  A collection's predicate is split by
access path into one CollectionAnchor, as a chain's anchor, as a step's
target and as an aggregate's inner predicate alike: seeks, identity
bounds, aggregate cuts and a residual (_access_paths).  Constants that
start a chain are one more seek on the record of the collection they
reach (_constants_anchor).  resolve walks the steps in one loop: it
rejects a step that cannot start from the chain's domain, lets the
step's resolver append its motions, then appends the target's record.

Each value a literal gives the plan takes a slot, numbered in the order
resolution types the literals (_slot).  resolve makes the plan's
template, with slot numbers in place of those values and a maker in
place of each residual, and binds it to the values (_bound).  A later
text of the same shape, the same tokens but for literal values, binds
its own literals to that template without being parsed or resolved
(_bind).  A literal inside a product's predicate takes no slot: the
product's closures hold its value, so a shape holding one cannot bind.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from decimal import Decimal
from functools import partial
from typing import Callable, Mapping

from ..algebra import (
    FieldPath,
    Leg,
    PrimitiveDomain,
    ProductCollection,
    Route,
    make_product,
    route_infer,
    route_path,
    route_star_deproject,
    route_star_project,
    _aggregate,
    _OPS,
    _value_at,
)
from ..errors import (
    AmbiguousPath,
    DuplicateAlias,
    NonNumericPath,
    NoPath,
    ResolveError,
    UnknownAlias,
    UnknownCollection,
    UnknownDimension,
)
from ..model import Dimension, DimensionPath, FieldSpec, Schema, _iso_date
from . import ast
from .printer import print_literal, print_predicate, print_set_expr


def _raise(cls, msg: str, pos: tuple[int, int]):
    if pos and pos != (0, 0):
        raise cls(msg, pos[0], pos[1])
    raise cls(msg)


# --- predicate compilation ----------------------------------------------------

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
    """COUNT or SUM(dim <- (L | q).path) at a row of dim's destination: over
    the lessers of the row through dim that q holds for.

    Plain data that algebra._aggregate reads for a set of rows.  inner is
    (L | q)'s record, None without q; path is SUM's, None for COUNT; key
    names a SUM without q in the derived state of dim's destination
    (algebra._folded_sums), and is None otherwise.
    """

    func: str
    dim: Dimension
    inner: CollectionAnchor | None
    path: FieldPath | None
    key: tuple | None


@dataclass(frozen=True)
class _Ctx:
    """What predicate paths may start from: one concept or product factors;
    and the slots the predicate's literals take (_slot)."""

    schema: Schema
    slots: list
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


def _coerce_literal(value_type: str, value, pos) -> object:
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


def _type_literal_against(term, value, pos, schema: Schema):
    """The value a literal at pos compared with term stands for (term None: another literal)."""
    if isinstance(term, AggValue):
        if value is not None and not isinstance(value, (int, Decimal)):
            _raise(ResolveError, f"{term.func} compares against numbers, found {value!r}", pos)
    elif isinstance(term, PathValue):
        if term.value_type is not None:
            return _coerce_literal(term.value_type, value, pos)
        if value is not None:
            # literal against a reference endpoint: wrap into an identity
            # tuple when the destination identity has a single field
            concept = schema.concept(term.ref_to)
            if len(concept.identity_fields) == 1:
                return (_coerce_literal(concept.identity_fields[0].type, value, pos),)
            _raise(
                ResolveError,
                f"cannot compare '{term.text}' with a constant: "
                f"'{term.ref_to}' has a composite identity",
                pos,
            )
    return value


def _seek_value(term: PathValue, value, pos, schema: Schema):
    """As _type_literal_against, but a single-field identity reads as its one field."""
    typed = _type_literal_against(term, value, pos, schema)
    return typed if term.value_type is not None else typed[0]


def _slot(slots: list, lit: ast.Literal, typer: Callable) -> int:
    """The number of a new slot holding lit's value, typed by typer(value, pos).

    The slot keeps lit's position and typer, and the value typer gives
    now, so literals are typed in the order resolution meets them.
    """
    slots.append((lit.pos, typer, typer(lit.value, lit.pos)))
    return len(slots) - 1


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
        inner = _access_paths(ctx.schema, ctx.slots, ast.Factor(node.collection), node.predicate)
    sum_path = None
    if node.func == "SUM":
        if node.path is None:
            _raise(NonNumericPath, "SUM needs a numeric field path, like "
                   "SUM(dim <- (Coll).field); COUNT counts elements without one", node.pos)
        dims, owner, f = _field_path(ctx.schema, node.collection, node.path, node.pos)
        if f is None:
            _raise(ResolveError, "empty field path", node.pos)
        if not f.is_primitive:
            _raise(ResolveError, f"'{owner}.{f.name}' is not a primitive field", node.pos)
        if f.type not in ("integer", "decimal"):
            _raise(NonNumericPath, f"cannot sum over '{f.name}' of type {f.type}", node.pos)
        sum_path = FieldPath(node.collection, dims, f)
    elif node.path is not None:
        _raise(ResolveError, "COUNT takes no field path", node.pos)
    # a SUM with no inner predicate reads the sums folded once per stored
    # lesser row, under its names, which hash faster than dim and sum_path
    key = (node.collection, node.dim, node.path) if sum_path is not None and inner is None else None
    return AggValue(node.func, dim, inner, sum_path, key)


def _reader(term) -> Callable:
    """A compiled term's reader maker: values -> reader (db, subject) -> value.

    A path reads its own way; an aggregate, its inner record bound to
    values, runs algebra._aggregate on one row.
    """
    if isinstance(term, AggValue):
        def aggregate(values):
            agg = _bound_agg(term, values)
            return lambda db, row: _aggregate(db, agg, (row,))[0]

        return aggregate
    read = term.read
    return lambda values: read


def _literal(ctx: _Ctx, other, lit: ast.Literal) -> int | None:
    """The slot of a literal compared with other, typed against it; None
    for NULL, a keyword of the shape, which takes no slot."""
    if lit.value is None:
        return None
    return _slot(ctx.slots, lit, partial(_type_literal_against, other, schema=ctx.schema))


def _constant(slot: int | None) -> Callable:
    """The reader maker of the value in slot (None: NULL)."""
    return lambda values: lambda db, subject, value=None if slot is None else values[slot]: value


def compile_predicate(ctx: _Ctx, node) -> Callable:
    """Compile a predicate into a maker: make(values) is the closure
    (db, subject) -> bool that reads each literal's value from values,
    by the number of its slot in ctx.slots.

    The subject is a row of the collection, or {alias: row} for a product
    member.
    A comparison touching NULL is false, and so is one that raises
    TypeError; NOT applies after that.  A literal compared with a term
    is read when the closure is made, never per subject: `c < p` is read
    as `p > c`.
    """
    if isinstance(node, ast.Comparison):
        op, left, right = node.op, node.left, node.right
        if isinstance(left, ast.Literal) and not isinstance(right, ast.Literal):
            op, left, right = _FLIPPED[op], right, left
        op = _OPS[op]
        if isinstance(left, ast.Literal):
            return partial(_against_term, op, _constant(_literal(ctx, None, left)),
                           _constant(_literal(ctx, None, right)))
        # compile terms first so literals can be typed against them
        term = _compile_term(ctx, left)
        if isinstance(right, ast.Literal):
            return partial(_against_value, op, _reader(term), _literal(ctx, term, right))
        return partial(_against_term, op, _reader(term), _reader(_compile_term(ctx, right)))
    if isinstance(node, ast.Not):
        make_item = compile_predicate(ctx, node.item)

        def make(values):
            item = make_item(values)
            return lambda db, subject: not item(db, subject)

        return make
    if isinstance(node, (ast.And, ast.Or)):
        return _decided([compile_predicate(ctx, i) for i in node.items], isinstance(node, ast.Or))
    raise TypeError(f"not a predicate: {node!r}")


def _against_term(op, make_left, make_right, values) -> Callable:
    """`left op right` over two reader makers, bound to values."""
    left, right = make_left(values), make_right(values)

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


def _against_value(op, make_left, slot: int | None, values) -> Callable:
    """`left op c` for a term's reader maker and the value in slot, bound to values."""
    left = make_left(values)
    b = None if slot is None else values[slot]
    if b is None:
        return lambda db, subject: False

    def holds(db, subject):
        a = left(db, subject)
        if a is None:
            return False
        try:
            return bool(op(a, b))
        except TypeError:
            return False

    return holds


def _decided(makers: list, stop: bool) -> Callable:
    """The maker of the AND (stop False) or OR (stop True) of compiled predicates.

    The first item giving stop decides.
    """
    makers = tuple(makers)
    if len(makers) == 1:
        return makers[0]

    def make(values):
        items = tuple(m(values) for m in makers)

        def decided(db, subject):
            for p in items:
                if p(db, subject) is stop:
                    return stop
            return not stop

        return decided

    return make


def _closed(schema: Schema, aliases: Mapping[str, str], node) -> Callable:
    """A product predicate's closure, holding its literals' values: they take
    no slot of the query's, since the product is made afresh for each text."""
    slots: list = []
    make = compile_predicate(_Ctx(schema, slots, aliases=aliases), node)
    return make([value for _, _, value in slots])


# --- plans ---------------------------------------------------------------------


@dataclass(frozen=True)
class Seek:
    """An access path: the rows of the anchored collection whose path dims,
    then owner's primitive field, reads one of values.

    dims lead from the anchored collection up to owner (none: owner is it),
    and route is the de-projection down them (None without dims).
    algebra._select runs it from owner's side, the rows of owner moved
    down route, or reads the path at each of a few rows.
    """

    owner: str
    field: str
    values: tuple
    dims: tuple[Dimension, ...]
    route: Route | None


@dataclass(frozen=True)
class CollectionAnchor:
    """(C | p): every element of C that p holds for, split by access path.

    The one record of (C | p), as a chain's anchor, as a step's target and
    as an aggregate's inner (L | q); algebra._select runs it.  Each
    top-level conjunct of p goes to one of four groups.  seeks hold one
    Seek per `path == constant` conjunct.  bounds are (operator, constant)
    pairs, one per conjunct comparing C's single identity field with a
    constant by `<`, `<=`, `>` or `>=`, read as `identity op constant`.
    cuts are (AggValue, operator, constant) triples, one per conjunct
    comparing COUNT or SUM with a constant, read as `aggregate op
    constant`.  An operator is its text, such as '<='.  residual is the
    rest, compiled into one predicate, or None when nothing is left; it
    runs only on the rows the others keep, and is the record's one
    callable.  A chain starting from constants, `v <- f <- ... <- (C | q)`,
    is q's record with one more seek first.  predicate is the parsed p (q
    for a constants chain), or None without one; explain lists a step's as
    `| p`.
    """

    collection: str
    predicate: object | None = None
    residual: object | None = None
    seeks: tuple = ()
    bounds: tuple = ()
    cuts: tuple = ()


@dataclass(frozen=True)
class PlanRoute:
    """A motion and the route it runs; arrow is '->', '<-', '*->', '<-*' or '<-*->'.

    explain lists a route's hops; a star form whose route holds several
    paths, or none, or ends with a warning, is headed by its arrow and target.
    """

    route: Route
    arrow: str


@dataclass(frozen=True)
class QueryPlan:
    """The plan of query: a CollectionAnchor or ProductCollection anchor, then
    steps, each a CollectionAnchor, a PlanRoute or, last, a FieldSpec to read.

    shape is what the plan was bound from (_Shape).  literals are, in text
    order, the literals of the text a plan was bound for, when that is not
    query's own text; explain prints them in place of query's.
    """

    query: ast.Query
    anchor: object
    steps: tuple
    warnings: tuple[str, ...]
    shape: object = dataclasses.field(default=None, compare=False, repr=False)
    literals: tuple | None = dataclasses.field(default=None, compare=False)


@dataclass(frozen=True)
class _Shape:
    """What resolving one text leaves for binding every text of its shape.

    template is the text's plan with each value a literal gives replaced
    by the number of its slot: in Seek.values, bounds and cuts, however
    deep inside an aggregate's inner record.  Its residuals are the makers
    compile_predicate returns.  slots holds, per slot, in the order
    resolution typed them, the index of its literal in text order and its
    typer; positions are the slots' positions in the template's text, in
    text order.  A slot's index is good only when every literal has a
    slot, as it has unless a product's predicate holds one.
    """

    template: QueryPlan
    slots: tuple
    positions: tuple


# --- resolution -----------------------------------------------------------------


def _product_from_set_expr(se: ast.SetExpr, schema: Schema, name=None) -> ProductCollection:
    factors = []
    for f in se.factors:
        if f.collection not in schema.concepts:
            _raise(UnknownCollection, f"unknown collection '{f.collection}'", f.pos)
        factors.append((f.alias or f.collection, f.collection))
    predicate = None
    if se.predicate is not None:
        predicate = _closed(schema, dict(factors), se.predicate)
    text = print_set_expr(se)
    for k, (f, (alias, _)) in enumerate(zip(se.factors, factors)):
        if alias in dict(factors[:k]):
            _raise(DuplicateAlias, f"alias '{alias}' used twice in product '{text}'", f.pos)
    return make_product(name or text, factors, predicate)


def _conjuncts(node) -> list:
    """The items of a predicate's top-level AND, nested ANDs flattened."""
    if isinstance(node, ast.And):
        return [c for item in node.items for c in _conjuncts(item)]
    return [node]


# a comparison read with its sides swapped: `c < id` is `id > c`
_FLIPPED = {"==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _against_constant(node, alias: str | None):
    """(op, term, constant, a path term's parts past the alias) when node
    compares a path or an aggregate with a non-NULL constant, read as
    `term op constant`; else None.  An aggregate has no parts (None)."""
    if not isinstance(node, ast.Comparison):
        return None
    op, term, lit = node.op, node.left, node.right
    if isinstance(term, ast.Literal):
        op, term, lit = _FLIPPED[op], lit, term
    if isinstance(term, ast.Literal) or not isinstance(lit, ast.Literal) or lit.value is None:
        return None
    if isinstance(term, ast.AggTerm):
        return op, term, lit, None
    return op, term, lit, term.parts[1:] if term.parts[:1] == (alias,) else term.parts


def _seek(schema: Schema, owner: str, field_name: str, values: tuple, dims: tuple) -> Seek:
    """The seek of the rows whose path dims, then owner's field_name, reads one of values."""
    route = route_path(schema, owner, DimensionPath(dims), True) if dims else None
    return Seek(owner, field_name, values, dims, route)


def _equal_seek(schema: Schema, collection: str, path: ast.PathTerm, parts, slot: int) -> Seek:
    """The access path equal to `path == value`, value in slot.

    (C | p.f == v) holds the elements of v <- f <- p... <- (C).  A path
    ending at a reference, or the bare alias, compares a single-field
    identity, so its constant, that identity's one field (_seek_value),
    de-projects through that identity field.
    """
    dims, owner, f = _field_path(schema, collection, parts, path.pos)
    if f is None or not f.is_primitive:
        if f is not None:
            dims += (schema.dimension(owner, f.name),)
            owner = f.type
        f = schema.concept(owner).identity_fields[0]
    return _seek(schema, owner, f.name, (slot,), dims)


def _access_paths(schema: Schema, slots: list, one: ast.Factor, predicate) -> CollectionAnchor:
    """The record of (C | p): p's conjuncts split by access path, each value
    a literal gives held as its slot's number.

    Every conjunct is compiled once, in order, so each raises what
    compiling the whole predicate would.
    """
    identity = schema.concepts[one.collection].identity_fields
    # the parts of a path to the identity, when it has a single field
    key = (identity[0].name,) if len(identity) == 1 else None
    ctx = _Ctx(schema, slots, concept=one.collection, alias=one.alias)
    seeks, bounds, cuts, residual = [], [], [], []
    for c in _conjuncts(predicate):
        op, term, lit, parts = _against_constant(c, one.alias) or (None,) * 4
        if isinstance(term, ast.AggTerm):
            agg = _compile_agg(ctx, term)
            cuts.append((agg, op, _slot(slots, lit, partial(_type_literal_against, agg,
                                                             schema=schema))))
        elif op == "==":
            typer = partial(_seek_value, _compile_path(ctx, term), schema=schema)
            seeks.append(_equal_seek(schema, one.collection, term, parts, _slot(slots, lit, typer)))
        elif op in ("<", "<=", ">", ">=") and parts == key:
            typer = partial(_type_literal_against, _compile_path(ctx, term), schema=schema)
            bounds.append((op, _slot(slots, lit, typer)))
        else:
            residual.append(compile_predicate(ctx, c))
    return CollectionAnchor(one.collection, predicate,
                            _decided(residual, False) if residual else None,
                            tuple(seeks), tuple(bounds), tuple(cuts))


def _resolve_set(se: ast.SetExpr, schema: Schema, products: Mapping, slots: list):
    """Bind a set expression: (its domain, the CollectionAnchor narrowing it, or None).

    A collection's predicate gives its record (_access_paths); a product,
    registered or not, takes the expression's predicate on top of its own
    and has none.
    """
    if len(se.factors) != 1:
        return _product_from_set_expr(se, schema), None
    (one,) = se.factors
    if one.collection in schema.concepts:
        if se.predicate is None:
            return one.collection, None
        return one.collection, _access_paths(schema, slots, one, se.predicate)
    if one.collection not in products:
        _raise(UnknownCollection, f"unknown collection '{one.collection}'", one.pos)
    if one.alias is not None:
        _raise(ResolveError, "a product collection cannot take an alias", one.pos)
    product = products[one.collection]
    if se.predicate is None:
        return product, None
    extra = _closed(schema, dict(product.factors), se.predicate)
    inner = product.predicate

    def both(db, subject):
        return (inner is None or inner(db, subject)) and extra(db, subject)

    return ProductCollection(product.name, product.factors, both), None


def _collection_target(se: ast.SetExpr, schema: Schema, products: Mapping, slots: list, pos):
    """The target of '->' or '<-', which must be a collection, and its record."""
    target, post = _resolve_set(se, schema, products, slots)
    if isinstance(target, ProductCollection):
        _raise(ResolveError, "use '<-*' to reach a product collection", pos)
    return target, post


def _two_up_paths(schema: Schema, lower: str, upper: str) -> list[DimensionPath]:
    """The first two paths from lower up to upper, in name order.

    Only branches that still reach upper are walked, so this stops after
    two paths however many there are.  prefix is the path walked so far,
    and stack holds the dimensions left to try from lower and from the end
    of each dimension in prefix.
    """
    paths: list[DimensionPath] = []
    prefix: list[Dimension] = []
    stack = [iter(schema.dimensions_from(lower))]
    while stack and len(paths) < 2:
        d = next(stack[-1], None)
        if d is None:
            stack.pop()
            if prefix:
                prefix.pop()
        elif d.destination == upper:
            paths.append(DimensionPath((*prefix, d)))
        elif upper in schema.above(d.destination):
            prefix.append(d)
            stack.append(iter(schema.dimensions_from(d.destination)))
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


def _path_route(schema: Schema, domain, segs, down: bool) -> PlanRoute:
    """A '->' or '<-' step along the dimensions segs, given in path order."""
    return PlanRoute(route_path(schema, domain, DimensionPath(tuple(segs)), down),
                     "<-" if down else "->")


def _resolve_project(step: ast.ProjectStep, domain, schema: Schema, products: Mapping,
                     slots: list, out: list):
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
        segs.append(Dimension(first, domain.name, domain.collection_of(first)))
        cur = domain.collection_of(first)
        if not dims and step.target is None:
            out.append(_path_route(schema, domain, segs, False))
            return cur, None

    if not dims and step.target is not None and not segs:
        target, post = _collection_target(step.target, schema, products, slots, step.pos)
        path = _unique_up_path(schema, cur, target, step.pos)
        out.append(_path_route(schema, cur, path.segments, False))
        return target, post

    for k, name in enumerate(dims):
        got = schema.fields.get((cur, name))
        last = k == len(dims) - 1
        if got is None:
            if len(step.dims) == 1 and step.target is None and name in schema.concepts:
                # bare '-> Coll' reads as '-> (Coll)' when no dimension matches
                path = _unique_up_path(schema, cur, name, step.pos)
                out.append(_path_route(schema, cur, path.segments, False))
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
                out.append(_path_route(schema, domain, segs, False))
            out.append(f)
            return PrimitiveDomain(cur, name, f.type), None
        segs.append(dim)
        cur = dim.destination

    post = None
    if step.target is not None:
        target, post = _collection_target(step.target, schema, products, slots, step.pos)
        if target != cur:
            dotted = ".".join(step.dims)
            _raise(ResolveError, f"'{dotted}' arrives at '{cur}', not '{target}'", step.pos)
    out.append(_path_route(schema, domain, segs, False))
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
                       products: Mapping, slots: list, out: list):
    if step.target is not None:
        target, post = _collection_target(step.target, schema, products, slots, step.pos)
        if not step.dims:
            path = _unique_up_path(schema, target, domain, step.pos)
            out.append(_path_route(schema, domain, path.segments, True))
            return target, post
        segs, walk = _down_path(schema, target, step.dims, step.pos)
        if walk != domain:
            dotted = " <- ".join(step.dims)
            _raise(ResolveError, f"'{dotted} <- ({target})' arrives at '{walk}', not '{domain}'",
                   step.pos)
        out.append(_path_route(schema, domain, segs, True))
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
    out.append(_path_route(schema, domain, segs_down[::-1], True))
    return walk, None


def _constants_anchor(lits, first: ast.DeprojectStep, schema: Schema, products: Mapping,
                      slots: list):
    """`v1, v2 <- f <- p... <- (C | q)`: the record of (C | q) with one more seek.

    Without a collection in parentheses, f names the one collection that
    owns it.
    """
    if not first.dims:
        _raise(ResolveError, "constants de-project through a field name first", first.pos)
    field_name = first.dims[0]
    rest = first.dims[1:]

    sel = None
    if first.target is not None:
        target, sel = _collection_target(first.target, schema, products, slots, first.pos)
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
    # de-projection never matches NULL
    values = tuple(_slot(slots, lit, partial(_coerce_literal, fld.type)) for lit in lits
                   if lit.value is not None)
    sel = sel or CollectionAnchor(target)
    return CollectionAnchor(target, sel.predicate, sel.residual,
                            (_seek(schema, owner, field_name, values, tuple(segs)), *sel.seeks),
                            sel.bounds, sel.cuts), target


# each kind of step's arrow, and the router of each star form
_ARROWS = {ast.ProjectStep: "->", ast.DeprojectStep: "<-", ast.StarProjectStep: "*->",
           ast.StarDeprojectStep: "<-*", ast.InferStep: "<-*->"}
_ROUTERS = {"*->": route_star_project, "<-*": route_star_deproject, "<-*->": route_infer}


def _resolve_star(step, arrow: str, domain, schema: Schema, products: Mapping,
                  slots: list, out: list, warnings: list):
    """'*->', '<-*' or '<-*->': the route its router chose to the target."""
    target, post = _resolve_set(step.target, schema, products, slots)
    if arrow == "*->" and isinstance(target, ProductCollection):
        _raise(ResolveError, "'*->' cannot arrive at a product; use '<-*'", step.pos)
    try:
        route = _ROUTERS[arrow](schema, domain, target)
    except NoPath as e:
        _raise(NoPath, str(e), step.pos)
    if route.warning is not None:
        warnings.append(route.warning)
    out.append(PlanRoute(route, arrow))
    return target, post


def resolve(query: ast.Query, schema: Schema, products: Mapping | None = None) -> QueryPlan:
    """Bind a parsed query against a schema; returns the executable plan.

    Each step appends the motions it makes and returns the domain it
    arrives at and its target's record, which narrows after them.  The
    plan is its shape's template bound to the values its literals took.
    """
    products = products or {}
    slots: list = []
    warnings: list[str] = []
    out: list = []

    steps = query.steps
    if isinstance(query.anchor, ast.SetExpr):
        domain, anchor = _resolve_set(query.anchor, schema, products, slots)
        if anchor is None:
            anchor = domain if isinstance(domain, ProductCollection) else CollectionAnchor(domain)
    elif not steps or not isinstance(steps[0], ast.DeprojectStep):
        _raise(ResolveError, "constants must be followed by a de-projection ('<-')", query.pos)
    else:  # the first step de-projects the constants
        anchor, domain = _constants_anchor(query.anchor, steps[0], schema, products, slots)
        steps = steps[1:]

    for st in steps:
        arrow = _ARROWS[type(st)]
        if isinstance(domain, PrimitiveDomain):
            _raise(ResolveError, f"the chain already ended at primitive values '{domain}'", st.pos)
        elif isinstance(domain, ProductCollection) and arrow in ("<-", "<-*"):
            _raise(ResolveError, f"'{arrow}' cannot start from product '{domain.name}'", st.pos)
        elif arrow == "->":
            domain, post = _resolve_project(st, domain, schema, products, slots, out)
        elif arrow == "<-":
            domain, post = _resolve_deproject(st, domain, schema, products, slots, out)
        else:
            domain, post = _resolve_star(st, arrow, domain, schema, products, slots, out, warnings)
        if post is not None:
            out.append(post)

    positions = sorted(pos for pos, _, _ in slots)
    index = {pos: i for i, pos in enumerate(positions)}
    shape = _Shape(QueryPlan(query, anchor, tuple(out), tuple(warnings)),
                   tuple((index[pos], typer) for pos, typer, _ in slots), tuple(positions))
    return _bound(shape, [value for _, _, value in slots])


def _bind(shape: _Shape, literals: list, positions: list) -> QueryPlan:
    """The plan of a text of shape, given its literals and their positions in text order.

    The values are typed slot by slot, in the order resolution typed
    them, so a literal that does not type raises what resolving the text
    would, at its own position.
    """
    values = [typer(literals[i], positions[i]) for i, typer in shape.slots]
    return _bound(shape, values, tuple(literals))


def _bound(shape: _Shape, values: list, literals: tuple | None = None) -> QueryPlan:
    """shape's template with each slot's number replaced by its value in values."""
    template = shape.template
    return QueryPlan(template.query, _bound_record(template.anchor, values),
                     tuple([_bound_record(step, values) for step in template.steps]),
                     template.warnings, shape, literals)


def _bound_record(record, values: list):
    """A template's record with its slots' values, and its residual made from them."""
    if not isinstance(record, CollectionAnchor):
        return record
    return CollectionAnchor(
        record.collection, record.predicate,
        None if record.residual is None else record.residual(values),
        tuple([Seek(s.owner, s.field, tuple(map(values.__getitem__, s.values)), s.dims, s.route)
               for s in record.seeks]),
        tuple([(op, values[k]) for op, k in record.bounds]),
        tuple([(_bound_agg(agg, values), op, values[k]) for agg, op, k in record.cuts]))


def _bound_agg(agg: AggValue, values: list) -> AggValue:
    """A template's aggregate with its inner record bound to values."""
    if agg.inner is None:
        return agg
    return AggValue(agg.func, agg.dim, _bound_record(agg.inner, values), agg.path, agg.key)


def resolve_product(pd: ast.ProductDef, schema: Schema) -> ProductCollection:
    """Bind a product definition; the result can be registered under its name."""
    if pd.name in schema.concepts:
        _raise(ResolveError, f"'{pd.name}' is already a collection", pd.pos)
    if len(pd.body.factors) < 2:
        _raise(ResolveError, "a product needs at least two factors", pd.pos)
    return _product_from_set_expr(pd.body, schema, pd.name)


# --- explain --------------------------------------------------------------------


def _domain(name) -> str:
    """A domain's name in parentheses; an inline product's, its printed set expression, has them."""
    return str(name) if str(name).startswith("(") else f"({name})"


def _hops(leg: Leg) -> list[tuple[str, str]]:
    """(where the hop starts, the hop) for each edge of a leg, in running order."""
    if leg.down:
        return [(_domain(d.destination), f"<- {d.name} <- {_domain(d.source)}")
                for d in leg.edges + leg.factors]
    return [(_domain(d.source), f"-> {d.name} -> {_domain(d.destination)}")
            for d in leg.factors + leg.edges]


def _explain_route(step: PlanRoute) -> list[str]:
    """Hop by hop when every leg is one path, the header alone with a warning
    or no hop; else the sub-DAG's edges in order."""
    route = step.route
    header = f"{step.arrow} {_domain(route.target)}"
    if route.warning is not None:
        return [header]
    legs = [leg for way in route.ways for leg in way[1:] if leg is not None]
    if len(route.ways) <= 1 and all(leg.paths == 1 for leg in legs):
        return [hop for leg in legs for _, hop in _hops(leg)] or [header]
    if len(route.ways) == 1 and route.ways[0][0] is None:
        (leg,) = legs
        lines = [f"{header} over {leg.paths} paths:"]
        return lines + [f"  {start} {hop}" for start, hop in _hops(leg)]
    lines = [f"{header} over {len(route.ways)} routes:"]
    for via, down, up in route.ways:
        lines.append(f"via {via}:" if via is not None else "direct:")
        for label, leg in (("down", down), ("up", up)):
            if leg is not None:
                lines.extend(f"  {label}: {start} {hop}" for start, hop in _hops(leg))
    return lines


def _with_literals(node, at: dict):
    """node with each literal at a position that at maps holding the value it maps to."""
    if not at:
        return node
    if isinstance(node, ast.Literal):
        return ast.Literal(at.get(node.pos, node.value), pos=node.pos)
    if isinstance(node, tuple):
        return tuple(_with_literals(item, at) for item in node)
    if isinstance(node, ast.Node):
        return dataclasses.replace(node, **{f.name: _with_literals(getattr(node, f.name), at)
                                            for f in dataclasses.fields(node)})
    return node


def explain(plan: QueryPlan) -> str:
    """Human-readable listing of the motions a plan will make, one hop per line.

    The anchor as the query writes it, or constants with the hops of their
    seek; each step's record; a registered product target's folded `| p`.
    A plan bound for a text other than its query's prints that text's
    literals.
    """
    at = {} if plan.literals is None else dict(zip(plan.shape.positions, plan.literals))
    query = _with_literals(plan.query, at)

    def narrowed(predicate) -> str:
        return f"| {print_predicate(_with_literals(predicate, at))}"

    if isinstance(query.anchor, ast.SetExpr):
        lines = [print_set_expr(query.anchor)]
    else:
        seek = plan.anchor.seeks[0]
        lines = [", ".join(map(print_literal, query.anchor)), f"<- {seek.field} <- ({seek.owner})"]
        if seek.route is not None:
            lines += [hop for _, hop in _hops(seek.route.ways[0][1])]
        if plan.anchor.predicate is not None:
            lines.append(narrowed(plan.anchor.predicate))
    targets = (st.target for st in query.steps if _ARROWS[type(st)] in _ROUTERS)
    for step in plan.steps:
        if isinstance(step, CollectionAnchor):
            lines.append(narrowed(step.predicate))
        elif isinstance(step, FieldSpec):
            lines.append(f"-> {step.name}")
        else:
            lines.extend(_explain_route(step))
            if step.arrow in _ROUTERS:
                se = next(targets)  # the star step's target
                registered = len(se.factors) == 1 and isinstance(step.route.target, ProductCollection)
                if registered and se.predicate is not None:
                    lines.append(f"| {print_predicate(se.predicate)}")
    lines.extend(f"warning: {w}" for w in plan.warnings)
    return "\n".join(lines)
