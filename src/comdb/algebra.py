"""Set operations over collections: projection, de-projection, inference.

All public operations take and return ElementSet values: an immutable set
of identities tagged with the domain they belong to.  A domain is a
collection name, a primitive domain (the values of one primitive field) or
a product collection built from several factor collections and a
membership predicate.  Inside, a set over a collection is a set of its int
rows (model.Collection), a field is read off its column by row, and a
product member is the tuple of its factor rows in factor order.  The
public operations convert identities to rows on the way in and back on the
way out (_to_rows, _to_set), and the engine runs whole plans on rows.
Primitive values are never converted.

Projection moves up the partial order and deduplicates; de-projection moves
down and fans out.  NULL references contribute nothing in either direction.

The star forms answer the union over every dimension path between two
collections, and infer routes a constraint through common lesser
collections when the source and target are incomparable.  Every motion is
decided in one place, the router (route_path, route_star_project,
route_star_deproject, route_infer), which keeps for each leg the sub-DAG of
dimensions lying on some path between its ends, and for each way the
hops the runner takes (_plan_way).  A route between two collections is
made once per schema.  Projection and de-projection along one named path
are legs holding that one path.  The runner (_run_route, on rows;
run_route converts around it) visits the sub-DAG of a way, its down leg
and its up leg, in topological order,
pushes the set along each dimension once and unites where dimensions
meet.  Image and preimage distribute over union, so this equals the union
over paths at a cost of one pass per dimension, however many paths there
are.  Two things cut a way short, neither of which changes its answer: a
node with one dimension in and one out is streamed through, never built,
and a push stops once its image holds every row it could (the rows
referenced along that dimension, _referenced).  _value_at is the one walk
of a single element's row up a path to a field's column.

A predicate's SUM along a de-projection with no inner predicate is not
added up per query: _folded_sums keeps, on the greater collection, the sum
for every greater row, folded once per stored lesser row.  It and the
referenced counts are derived state (model.Collection.derived): a
watermark, the number of lesser rows folded in, is all the invalidation
they need, because the store is insert-only and a stored row never
changes.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from itertools import chain, compress, islice
from operator import itemgetter
from dataclasses import dataclass, field
from decimal import Decimal, getcontext
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    DuplicateAlias,
    NoPath,
    PathNotComposable,
    ProductTooLarge,
    ViaNotCommonLesser,
)
from .model import ROW, Dimension, DimensionPath, FieldSpec, Schema

INDEPENDENT_WARNING = "independent collections: full target returned"

# The most combinations iter_members may enumerate: seconds at 1-2.5 us each.
MAX_PRODUCT_PAIRS = 2_000_000


@dataclass(frozen=True)
class PrimitiveDomain:
    """The value space of one primitive field, e.g. the countries of Addresses."""

    concept: str
    field: str
    type: str

    def __str__(self) -> str:
        return f"{self.concept}.{self.field}"


@dataclass(eq=False)
class ProductCollection:
    """Cartesian product of factor collections restricted by a predicate.

    Factors are (alias, collection name) pairs; members are tuples with one
    coordinate per factor, in factor order: the factor's row in the runner,
    its identity in an ElementSet or a ResultSet.  The predicate is an opaque
    callable taking (db, {alias: row}), each factor's row in its collection,
    so background knowledge can be expressed in any form the caller likes
    (model.Element is a view of a row).  Members are enumerated lazily.
    """

    name: str
    factors: tuple[tuple[str, str], ...]
    predicate: Callable | None = None
    alias_index: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.factors = tuple(self.factors)
        idx: dict[str, int] = {}
        for i, (alias, _) in enumerate(self.factors):
            if alias in idx:
                raise DuplicateAlias(f"alias '{alias}' used twice in product '{self.name}'")
            idx[alias] = i
        self.alias_index = idx

    def collection_of(self, alias: str) -> str:
        return self.factors[self.alias_index[alias]][1]

    def __str__(self) -> str:
        return self.name


#: Where an element set lives: a collection name, a field's value space,
#: or a product collection.
Domain = str | PrimitiveDomain | ProductCollection


@dataclass(frozen=True)
class ElementSet:
    """An immutable set of members tagged with their domain.

    Members are identity tuples for collection domains, primitive values for
    primitive domains, and tuples of factor identities for product domains.
    """

    domain: Domain
    members: frozenset

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, item) -> bool:
        return item in self.members


@dataclass(frozen=True)
class FieldPath:
    """Zero or more dimensions followed by one field, read off an element."""

    source: str
    dims: tuple[Dimension, ...]
    field: FieldSpec


def full_set(db, collection: str) -> ElementSet:
    return _to_set(db, collection, range(len(db.collections[collection])))


def make_product(name: str, factors: Sequence[tuple[str, str]],
                 predicate: Callable | None = None) -> ProductCollection:
    if len(factors) < 2:
        raise PathNotComposable(f"product '{name}' needs at least two factors")
    return ProductCollection(name=name, factors=tuple(factors), predicate=predicate)


def iter_members(db, product: ProductCollection,
                 restrict: Mapping[str, Iterable[int]] | None = None) -> Iterator[tuple]:
    """Enumerate members as tuples of factor rows, predicate applied, in no particular order.

    restrict optionally narrows individual factors to given sets of rows
    before the cross product is formed, which keeps de-projections into
    large products from enumerating everything.  The predicate sees each
    combination as {alias: row}; no view is built per pair.  Raises
    ProductTooLarge, before enumerating, when the factors' sizes multiply
    to more than MAX_PRODUCT_PAIRS.
    """
    axes = [restrict[alias] if restrict and alias in restrict else range(len(db.collections[c]))
            for alias, c in product.factors]  # each factor's rows
    pairs = math.prod(map(len, axes))
    if pairs > MAX_PRODUCT_PAIRS:
        factors = " x ".join(f"{c} {a} ({len(axis):,})"
                             for (a, c), axis in zip(product.factors, axes))
        raise ProductTooLarge(f"product '{product.name}' of {factors} would examine "
                              f"{pairs:,} pairs, more than the {MAX_PRODUCT_PAIRS:,} allowed")
    predicate = product.predicate
    if predicate is None:
        yield from itertools.product(*axes)
        return
    aliases = [a for a, _ in product.factors]
    for combo in itertools.product(*axes):
        if predicate(db, dict(zip(aliases, combo))):
            yield combo


def product_members(db, product: ProductCollection) -> ElementSet:
    return _to_set(db, product, iter_members(db, product))


# --- projection -------------------------------------------------------------


def project(db, eset: ElementSet, path: DimensionPath) -> ElementSet:
    """Move a set up along one dimension path, deduplicating as it goes."""
    return run_route(db, eset, route_path(db.schema, eset.domain, path, down=False))


def project_values(db, eset: ElementSet, dims: Sequence[Dimension],
                   fld: FieldSpec) -> ElementSet:
    """Project and finish by reading one primitive field; NULLs contribute nothing."""
    if dims:
        eset = project(db, eset, DimensionPath(tuple(dims)))
    coll = db.collections[eset.domain]
    return ElementSet(PrimitiveDomain(coll.name, fld.name, fld.type),
                      frozenset(_field_values(coll, _to_rows(db, coll.name, eset.members), fld)))


def _field_values(coll, rows, fld: FieldSpec) -> set:
    """The values one primitive field takes over some rows of a collection, without NULL."""
    values = set(map(coll.columns[fld.name].__getitem__, rows))
    values.discard(None)
    return values


# --- de-projection ----------------------------------------------------------


def deproject(db, eset: ElementSet, path: DimensionPath) -> ElementSet:
    """Move a set down along one dimension path; NULL references never match."""
    return run_route(db, eset, route_path(db.schema, eset.domain, path, down=True))


def deproject_values(db, collection: str, field_name: str, values: Iterable) -> ElementSet:
    """Select the elements of a collection whose field takes one of the values.

    This is the first hop of a constraint anchored at primitive values; a
    NULL field never matches.
    """
    return _to_set(db, collection, _owner_rows(db.collections[collection], field_name, values))


def _owner_rows(coll, field_name: str, values: Iterable) -> set:
    """The rows of a collection whose primitive field takes one of the values."""
    concept = coll.concept
    fld = concept.field(field_name)
    if fld is None or not fld.is_primitive:
        raise PathNotComposable(f"'{concept.name}.{field_name}' is not a primitive field")
    wanted = {v for v in values if v is not None}
    if concept.identity_fields == (fld,):  # the whole identity: look each value up
        return coll.rows_of(zip(wanted))
    column = coll.columns[field_name]
    return set(compress(range(len(column)), map(wanted.__contains__, column)))


def intersect_deprojections(esets: Sequence[ElementSet]) -> ElementSet:
    """Combine constraints arriving at the same domain: set intersection."""
    if not esets:
        raise ValueError("nothing to intersect")
    first = esets[0]
    for e in esets[1:]:
        if str(e.domain) != str(first.domain):
            raise PathNotComposable(
                f"cannot intersect sets over '{first.domain}' and '{e.domain}'")
    members = frozenset.intersection(*(e.members for e in esets))
    return ElementSet(first.domain, members)


# --- routing and running star and inference steps ------------------------------


@dataclass(frozen=True)
class Leg:
    """One motion between two domains, as a sub-DAG of the schema.

    edges are the dimensions lying on some path between the ends, in the
    order the runner visits them: topological in the direction of travel.
    When one end is a product, factors holds one pseudo-dimension from the
    product to each factor collection that lies on such a path.  paths
    counts the distinct paths the sub-DAG holds.
    """

    down: bool
    source: Domain
    target: Domain
    factors: tuple[Dimension, ...]
    edges: tuple[Dimension, ...]
    paths: int


@dataclass(frozen=True)
class Route:
    """How a step moves a set: the union over its ways.

    A way is (via, down leg, up leg); via names the common lesser domain
    an inference passes through (None when it needs none), and either leg
    may be None.  No ways and no warning leaves the set where it is; a
    warning means nothing connects the ends, and the answer is the whole
    target.  plans holds, for each way, the hops _run_way runs, worked out
    once when the route is made.
    """

    target: Domain
    ways: tuple[tuple[Domain | None, Leg | None, Leg | None], ...]
    warning: str | None = None
    plans: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "plans", tuple(_plan_way(down, up) for _, down, up in self.ways))


def _leg(schema: Schema, lower: Domain, upper: str, down: bool) -> Leg | None:
    """Every dimension on a path from lower up to upper; None when there is no path.

    lower may be a product, whose factors start the paths.  A concept is on
    a path when it is at or above a start and at or below upper, so the
    edges are found in one pass over those concepts, never path by path.
    """
    if isinstance(lower, ProductCollection):
        factors = tuple(Dimension(alias, lower.name, cname) for alias, cname in lower.factors
                        if cname == upper or upper in schema.above(cname))
        starts = [d.destination for d in factors]
    else:
        factors = ()
        starts = [lower] if lower == upper or upper in schema.above(lower) else []
    if not starts:
        return None
    nodes = {upper}
    for s in starts:
        nodes.add(s)
        nodes.update(c for c in schema.above(s) if upper in schema.above(c))
    # a lesser concept has strictly more concepts above it: a topological order
    edges = sorted((d for n in nodes for d in schema.dimensions_from(n) if d.destination in nodes),
                   key=lambda d: (-len(schema.above(d.source)), d.source, d.name))
    count = dict.fromkeys(nodes, 0)
    for s in starts:
        count[s] += 1
    for d in edges:
        count[d.destination] += count[d.source]
    if down:
        edges.sort(key=lambda d: (-len(schema.below(d.destination)), d.destination,
                                  d.source, d.name))
        return Leg(True, upper, lower, factors, tuple(edges), count[upper])
    return Leg(False, lower, upper, factors, tuple(edges), count[upper])


def _in_schema(schema: Schema, d: Dimension) -> bool:
    return schema.has(d.source) and schema.dimension(d.source, d.name) == d


def route_path(schema: Schema, domain: Domain, path: DimensionPath, down: bool) -> Route:
    """The route of '->' (up from where path starts) or '<-' (down from where it ends).

    One leg holding one path.  Up from a product, the path's first segment
    is the pseudo-dimension from the product to one of its factors.
    """
    segments = path.segments
    if down:
        if not isinstance(domain, str):
            raise PathNotComposable(f"cannot de-project from '{domain}' along '{path}'")
        if path.destination != domain:
            raise PathNotComposable(f"path '{path}' does not arrive at collection '{domain}'")
        for seg in segments:
            if not _in_schema(schema, seg):
                raise PathNotComposable(
                    f"'{seg}' is not a dimension arriving at '{seg.destination}'")
        leg = Leg(True, domain, path.source, (), segments[::-1], 1)
        return Route(path.source, ((None, leg, None),))
    if isinstance(domain, PrimitiveDomain):
        raise PathNotComposable("cannot project a set of primitive values")
    factors: tuple[Dimension, ...] = ()
    if isinstance(domain, ProductCollection):
        first = segments[0]
        if (first.source != domain.name or first.name not in domain.alias_index
                or first.destination != domain.collection_of(first.name)):
            raise PathNotComposable(f"'{first}' does not start at product '{domain.name}'")
        factors, segments = (first,), segments[1:]
    elif path.source != domain:
        raise PathNotComposable(f"path '{path}' does not start at collection '{domain}'")
    for seg in segments:
        if not _in_schema(schema, seg):
            raise PathNotComposable(f"'{seg}' does not start at collection '{seg.source}'")
    leg = Leg(False, domain, path.destination, factors, segments, 1)
    return Route(path.destination, ((None, None, leg),))


def _kept(router):
    """A router whose routes between two collections are made once per schema.

    Such a route depends on the schema and the two names alone, and a Route
    never changes, so every plan can share it, hop plans and all.  A route
    with a product end, or through a given via, is made on every call.
    """
    @functools.wraps(router)
    def routed(schema: Schema, source: Domain, target: Domain, *via) -> Route:
        if any(via) or not (isinstance(source, str) and isinstance(target, str)):
            return router(schema, source, target, *via)
        key = (router.__name__, source, target)
        route = schema.routes.get(key)
        if route is None:
            route = schema.routes[key] = router(schema, source, target)
        return route

    return routed


@_kept
def route_star_project(schema: Schema, source: Domain, target: str) -> Route:
    """The route of '*->': up from a collection or product to a greater collection."""
    if isinstance(source, PrimitiveDomain):
        raise PathNotComposable("cannot project a set of primitive values")
    leg = _leg(schema, source, target, down=False)
    if leg is None:
        if isinstance(source, ProductCollection):
            raise NoPath(f"no factor of product '{source.name}' reaches '{target}'")
        raise NoPath(
            f"no upward path from '{source}' to '{target}'; "
            "'<-*->' routes through common lesser collections"
        )
    return Route(target, ((None, None, leg),))


@_kept
def route_star_deproject(schema: Schema, source: Domain, target: Domain) -> Route:
    """The route of '<-*': down from a collection to a lesser collection or product."""
    if not isinstance(source, str):
        if source is target:
            return Route(target, ())
        raise NoPath(f"cannot de-project from '{source}'")
    leg = _leg(schema, target, source, down=True)
    if leg is None:
        if isinstance(target, ProductCollection):
            raise NoPath(f"no factor of product '{target.name}' reaches '{source}'")
        raise NoPath(
            f"no downward path from '{source}' to '{target}'; "
            "'<-*->' routes through common lesser collections"
        )
    return Route(target, ((None, leg, None),))


@_kept
def route_infer(schema: Schema, source: Domain, target: Domain, via=None) -> Route:
    """The route of '<-*->' between any two domains.

    Comparable ends take one star leg.  Incomparable ones go down to each
    maximal common lesser collection and up again, or through `via` alone
    when it is given, which must lie at or below both ends.  With no
    connection at all the route carries the independence warning.
    """
    if isinstance(source, PrimitiveDomain):
        raise PathNotComposable("cannot infer from a set of primitive values")
    if target == source:
        return Route(target, ())
    if via is not None:
        ends = []
        for end, down in ((source, True), (target, False)):
            leg = _leg(schema, via, end, down) if isinstance(end, str) else None
            if leg is None and via is not end:
                which = "source" if down else "target"
                raise ViaNotCommonLesser(f"'{via}' is not at or below {which} '{end}'")
            ends.append(leg)
        return Route(target, ((via, *ends),))
    if isinstance(target, ProductCollection):
        if not isinstance(source, str):
            raise NoPath("cannot infer between two different products")
        leg = _leg(schema, target, source, down=True)
        ways = ((None, leg, None),) if leg else ()
    elif isinstance(source, ProductCollection):
        leg = _leg(schema, source, target, down=False)
        ways = ((None, None, leg),) if leg else ()
    elif target in schema.above(source):
        ways = ((None, None, _leg(schema, source, target, down=False)),)
    elif target in schema.below(source):
        ways = ((None, _leg(schema, target, source, down=True), None),)
    else:
        ways = tuple(
            (c, _leg(schema, c, source, down=True), _leg(schema, c, target, down=False))
            for c in common_lesser_collections(schema, source, target)
        )
    return Route(target, ways, None if ways else INDEPENDENT_WARNING)


# The kinds of hop a way takes: along a dimension down (reverse lists) or up
# (reference columns), which stream rows, or from factors into a product and out.
_DOWN, _UP, _INTO, _OUT = "down", "up", "into", "out"
_ROWS = (_DOWN, _UP)
# rows a batch of a streamed hop aims to produce between two checks of its cap
_BATCH = 1024


def _plan_way(down: Leg | None, up: Leg | None) -> tuple:
    """How _run_way moves a set down one leg and up the other: (start, end, runs).

    Members are rows, or tuples of factor rows at a product end.  A
    hop is (from node, to node, dimension, kind), and a node is (leg,
    domain): a collection both legs pass through holds a set per leg, but
    the up leg starts from the down leg's set at the via.  Hops run in
    order, topological in the direction of travel, uniting where they
    meet; image and preimage distribute over union, so this equals the
    union over every path at a cost of one pass per hop.  A node with one
    row hop in and one out is fused: its set is never built, and the rows
    arriving through the hop in stream on through the hop out.  A node
    with two or more hops in is never fused, since each path through it
    would then be walked on its own.

    Each run is (from node, to node, kind, what, capped).  A product hop's
    what is its dimension.  A row hop's what is the chain of hops its rows
    stream through, up to the first node that is not fused, and capped is
    the last hop's dimension when its image can hold no more than the rows
    referenced along it (an up hop that alone arrives there), else None.
    """
    hops: list = []
    start = end = None
    if down is not None:
        start, end = (0, down.source), (0, down.target)
        hops += [((0, d.destination), (0, d.source), d, _DOWN) for d in down.edges]
        hops += [((0, f.destination), end, f, _INTO) for f in down.factors]
    if up is not None:
        first = end or (1, up.source)  # the via, where the down leg ends

        def node(n):
            return first if n == up.source else (1, n)

        start = start or first
        hops += [(node(up.source), node(f.destination), f, _OUT) for f in up.factors]
        hops += [(node(d.source), node(d.destination), d, _UP) for d in up.edges]
        end = node(up.target)
    ins = Counter(hop[1] for hop in hops)
    outs = Counter(hop[0] for hop in hops)
    into = {hop[1]: hop for hop in hops}
    through = {hop[0]: hop for hop in hops if ins[hop[0]] == outs[hop[0]] == 1
               and hop[3] in _ROWS and into[hop[0]][3] in _ROWS}
    runs = []
    for hop in hops:
        a, b, d, kind = hop
        if a in through:  # a fused node's hop out runs with its hop in
            continue
        if kind not in _ROWS:
            runs.append((a, b, kind, d, None))
            continue
        steps = [hop]
        while b in through:
            steps.append(through[b])
            b = steps[-1][1]
        last = steps[-1]
        capped = last[2] if ins[b] == 1 and last[3] is _UP else None
        runs.append((a, b, kind, tuple(steps), capped))
    return start, end, tuple(runs)


def _run_way(db, members, plan: tuple):
    """Move members along one way of a route, as _plan_way planned it."""
    start, end, runs = plan
    colls = db.collections
    at = {start: members}
    for a, b, kind, what, capped in runs:
        cur = at.get(a)
        if not cur:
            continue
        if kind is _INTO:
            at.setdefault(b, set()).update(iter_members(db, b[1], restrict={what.name: cur}))
        elif kind is _OUT:
            at.setdefault(b, set()).update(map(itemgetter(a[1].alias_index[what.name]), cur))
        else:
            # no image along the last hop holds more than its cap: the rows
            # referenced along it, or every row where other hops arrive too
            cap = len(colls[b[1]]) if capped is None else _referenced(colls, capped)
            _stream(colls, cur, what, at.setdefault(b, set()), cap)
    return at.get(end, ())


def _stream(colls, rows, steps, out: set, cap: int) -> None:
    """Add to out the rows that row hops lead to from rows, until out holds cap rows.

    Rows go through all the hops a batch at a time, so no node in between
    holds a set, and out is checked against its cap after each batch.
    """
    if len(out) >= cap:
        return
    d, kind = steps[0][2:]
    if kind is _UP and len(rows) == len(colls[d.source]):
        # the whole collection: its image is every row referenced along
        # d, which is every row whose reverse list is not empty
        lessers = colls[d.destination].reverse[d]
        rows, steps = compress(range(len(lessers)), lessers), steps[1:]
    hops, fanout = [], 1
    for _, _, d, kind in steps:
        if kind is _DOWN:
            lesser, greater = colls[d.source], colls[d.destination]
            hops.append((greater.reverse[d].__getitem__, True, False))
            fanout *= max(1, len(lesser) // max(1, len(greater)))
        else:
            hops.append((colls[d.source].columns[d.name].__getitem__, False, d.nullable))
    rows, size = iter(rows), max(1, _BATCH // fanout)
    while len(out) < cap:
        batch = list(islice(rows, size))
        if not batch:
            return
        for get, down, nullable in hops:
            batch = chain.from_iterable(map(get, batch)) if down else map(get, batch)
            if nullable:
                batch = filter(ROW, batch)
        out.update(batch)


def _referenced(colls, d: Dimension) -> int:
    """How many rows of d's destination the rows of d's source reference along d.

    This is the cap on any image along d.  Reverse lists hold rows in
    ascending order, so a greater row g is referenced from the first row
    its list holds on: a fold over lesser rows [lo, hi) counts the rows
    they reference whose list starts at lo or later.
    """
    return colls[d.destination]._derived((d.source, d.name), None, _referenced_fold, colls, d)[0]


def _referenced_fold(colls, d: Dimension):
    """A new referenced count's source, fold and state."""
    forward, reverse = colls[d.source].columns[d.name], colls[d.destination].reverse[d]

    def fold(count: list, lo: int, hi: int) -> None:
        fresh = set(forward[lo:hi])
        fresh.discard(-1)
        count[0] += sum(reverse[g][0] >= lo for g in fresh)

    return colls[d.source], fold, [0]


def _run_route(db, members, route: Route):
    """Move members along a route: rows of a collection, tuples of factor rows of a product.

    The one runner; run_route and the engine both call it.  Once the
    target holds every row, the ways left can add nothing and are skipped.
    """
    target = route.target
    if route.warning is not None:
        if isinstance(target, ProductCollection):
            return set(iter_members(db, target))
        return range(len(db.collections[target]))
    if not route.ways:
        return members
    if len(route.plans) == 1:
        return _run_way(db, members, route.plans[0])
    every = len(db.collections[target]) if isinstance(target, str) else -1
    got: set = set()
    for plan in route.plans:
        got.update(_run_way(db, members, plan))
        if len(got) == every:
            break
    return got


def _to_rows(db, domain: Domain, members):
    """An ElementSet's members as the runner holds them.

    A collection's identities become rows, and a product's members tuples
    of factor rows.  An identity that is not stored has no row, so a member
    holding one is dropped.  Primitive values stay as they are.
    """
    if isinstance(domain, str):
        return db.collections[domain].rows_of(members)
    if isinstance(domain, ProductCollection):
        stores = [db.collections[c].elements for _, c in domain.factors]
        rows = {tuple(map(dict.get, stores, m)) for m in members}
        return {m for m in rows if None not in m}
    return members


def _to_set(db, domain: Domain, members) -> ElementSet:
    """The ElementSet of members held as the runner holds them; see _to_rows."""
    if isinstance(domain, str):
        members = map(db.collections[domain].ids.__getitem__, members)
    elif isinstance(domain, ProductCollection):
        ids = [db.collections[c].ids for _, c in domain.factors]
        members = (tuple(map(list.__getitem__, ids, m)) for m in members)
    return ElementSet(domain, frozenset(members))


def run_route(db, eset: ElementSet, route: Route) -> ElementSet:
    """Move a set along a route planned for its domain; no routing happens here."""
    if not route.ways and route.warning is None:
        return eset
    return _to_set(db, route.target,
                   _run_route(db, _to_rows(db, eset.domain, eset.members), route))


def star_project(db, eset: ElementSet, target: str) -> ElementSet:
    """The union of the projections along every path up to target."""
    return run_route(db, eset, route_star_project(db.schema, eset.domain, target))


def star_deproject(db, eset: ElementSet, target) -> ElementSet:
    """The union of the de-projections along every path down to target.

    target may be a collection name or a ProductCollection; a product is
    below a collection whenever one of its factors is at or below it.
    """
    return run_route(db, eset, route_star_deproject(db.schema, eset.domain, target))


# --- inference --------------------------------------------------------------


def common_lesser_collections(schema: Schema, a: str, b: str) -> list[str]:
    """Maximal collections below both a and b, sorted by name."""
    common = schema.below(a) & schema.below(b)
    return sorted(c for c in common if not (schema.above(c) & common))


def infer(db, eset: ElementSet, target, via=None,
          warnings: list | None = None) -> ElementSet:
    """Propagate a constraint from its source to an arbitrary target.

    The route is route_infer's: comparable collections take one star leg,
    incomparable ones the union over their maximal common lesser
    collections, or `via` alone.  With no connection at all the whole
    target is returned and a warning is recorded.
    """
    route = route_infer(db.schema, eset.domain, target, via)
    if route.warning is not None and warnings is not None:
        warnings.append(route.warning)
    return run_route(db, eset, route)


# --- values and aggregates ---------------------------------------------------


def _value_at(db, collection: str, row: int, dims: Sequence[Dimension], name: str | None):
    """Follow dimensions from one element's row, then read a field; NULL propagates.

    name is a primitive field of the concept the dimensions arrive at; with
    name None the value is the identity of the endpoint element.
    """
    colls = db.collections
    for seg in dims:
        row = colls[collection].columns[seg.name][row]
        if row < 0:
            return None
        collection = seg.destination
    coll = colls[collection]
    return (coll.ids if name is None else coll.columns[name])[row]


def _path_values(db, rows, path: FieldPath):
    """The values path reads off some rows of path.source, in order; NULL reads None."""
    if path.dims:
        return (_value_at(db, path.source, r, path.dims, path.field.name) for r in rows)
    # a field of the set's own elements is read off its column
    return map(db.collections[path.source].columns[path.field.name].__getitem__, rows)


def _sum_rows(db, rows, path: FieldPath):
    """The sum of a numeric path over rows of path.source; NULL contributes zero."""
    # filter drops each NULL, and the zeros it drops too add nothing
    return sum(filter(None, _path_values(db, rows, path)), _zero(path))


def _folded_sums(db, key, dim: Dimension, path: FieldPath) -> list:
    """_sum_rows over each greater row's lessers through dim, by greater row.

    key names the pair (dim, path) in the greater collection's derived
    state, which folds the lesser rows in under the decimal context of the
    read, and folds them again from row 0 when that context changes.
    Lesser rows are folded in ascending order, the order of every reverse
    list, skipping what _sum_rows' filter skips, so each sum makes the same
    additions from the same zero and is the identical value, exponent and
    all.
    """
    greater = db.collections[dim.destination]
    context = getcontext()
    sums = greater._derived(key, (context.prec, context.rounding), _sums_fold, db, greater, dim, path)
    if len(sums) < len(greater):  # greater rows that no folded lesser row references
        sums.extend([_zero(path)] * (len(greater) - len(sums)))
    return sums


def _zero(path: FieldPath):
    return Decimal(0) if path.field.type == "decimal" else 0


def _sums_fold(db, greater, dim: Dimension, path: FieldPath):
    """A new folded SUM's source, fold and state: the sum by greater row."""
    lesser = db.collections[path.source]
    forward = lesser.columns[dim.name]

    def fold(sums: list, lo: int, hi: int) -> None:
        sums.extend([_zero(path)] * (len(greater) - len(sums)))
        for g, v in zip(forward[lo:hi], _path_values(db, range(lo, hi), path)):
            if v and g >= 0:
                sums[g] += v

    return lesser, fold, []
