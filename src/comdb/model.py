"""Concepts, dimensions, the schema poset, collections and elements.

A schema is a set of concepts partially ordered by their reference fields
(dimensions): the concept a reference points at is greater than the concept
declaring the reference.  A database instance mirrors the same shape one
level down.  Every element references the greater elements it names, each
collection keeps a per-dimension reverse index, and the type constraint
keeps every reference inside its destination collection.

Identities are plain tuples of primitive values.  They double as the
by-value references a user gives and reads, so two elements are related
exactly when one names the identity of the other (directly or transitively).

The store is a column store.  Inside a collection each element is a dense
int row, its place in the order of arrival; the store is insert-only, so a
row never changes.  Every field is one list by row: an identity or
primitive field holds its values, and a reference field, seen as the
dimension it is, a function from the lesser collection to the greater,
holds the referenced element's row (-1 for NULL).  A reverse list per
arriving dimension holds, for each row of the greater collection, the rows
of the lesser elements referencing it.  Identities stay the keys a user
sees: each collection keeps its stored identity tuples by row and a dict
from identity to row, and an Element is a view of one row built on demand.

Rows reach the store in two steps: a Batch checks them and holds the good
ones in columns, and commit extends the collection's columns and reverse
lists.  Batch.check_row is the one check that decides a row's error;
insert_element runs it on its row.  Batch.add checks a chunk a column at a
time (duplicate identities, NOT NULL, references), which only flags rows,
and sends the flagged rows alone through the row check.  A batch that is
never committed leaves nothing behind.
"""

from __future__ import annotations

import datetime
import heapq
import re
from collections import Counter
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from itertools import compress, islice, repeat
from operator import eq, is_, itemgetter, lt
from typing import Callable, Iterable, Mapping

from .errors import (
    CyclicSchema,
    DanglingReference,
    DataError,
    DuplicateConcept,
    DuplicateField,
    DuplicateIdentity,
    NestedIdentity,
    NullViolation,
    PathNotComposable,
    SchemaError,
    TypeMismatch,
    UnknownCollection,
    UnknownConcept,
)

PRIMITIVE_TYPES = ("string", "integer", "decimal", "date")

#: Flat tuple of primitive values; identities double as references.
Identity = tuple

#: A row, not the NULL marker -1 that a reference column holds for NULL.
ROW = (-1).__lt__


@dataclass(frozen=True)
class FieldSpec:
    """One field of a concept: a primitive value or a reference to a greater concept."""

    name: str
    type: str                  # primitive type name or referenced concept name
    nullable: bool = True
    length: int | None = None  # declared width, kept for display only

    @property
    def is_primitive(self) -> bool:
        return self.type in PRIMITIVE_TYPES


@dataclass(frozen=True)
class Concept:
    """A named pair of field lists; the identity part is the by-value reference.

    fields holds both lists, identity first.
    """

    name: str
    identity_fields: tuple[FieldSpec, ...]
    entity_fields: tuple[FieldSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "identity_fields", tuple(self.identity_fields))
        object.__setattr__(self, "entity_fields", tuple(self.entity_fields))
        object.__setattr__(self, "fields", self.identity_fields + self.entity_fields)
        object.__setattr__(self, "_by_name", {f.name: f for f in self.fields})
        object.__setattr__(self, "entity_names", tuple(f.name for f in self.entity_fields))

    @property
    def reference_fields(self) -> tuple[FieldSpec, ...]:
        return tuple(f for f in self.entity_fields if not f.is_primitive)

    def field(self, name: str) -> FieldSpec | None:
        return self._by_name.get(name)


@dataclass(frozen=True)
class Dimension:
    """A reference field seen as an edge of the schema poset (source < destination)."""

    name: str
    source: str
    destination: str
    nullable: bool = True

    def __str__(self) -> str:
        return f"{self.source}.{self.name}"


@dataclass(frozen=True)
class DimensionPath:
    """A composable sequence of dimensions; rank is the number of segments."""

    segments: tuple[Dimension, ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise PathNotComposable("a dimension path needs at least one segment")
        for prev, nxt in zip(self.segments, self.segments[1:]):
            if nxt.source != prev.destination:
                raise PathNotComposable(f"'{nxt}' does not start where '{prev}' ends")

    @property
    def rank(self) -> int:
        return len(self.segments)

    @property
    def source(self) -> str:
        return self.segments[0].source

    @property
    def destination(self) -> str:
        return self.segments[-1].destination

    def dotted(self) -> str:
        return ".".join(d.name for d in self.segments)

    def __str__(self) -> str:
        return f"{self.source}.{self.dotted()}"


@dataclass
class Schema:
    """A validated set of concepts plus the derived dimension DAG.

    Instances come from build_schema, which enforces the invariants; the
    derived lookup tables are computed here.  One pass places the concepts
    in order and builds their strict closures, above and below, or raises
    CyclicSchema.  order lists each concept after every concept greater
    than it, taking the first by name of those that could go next: a load
    stores collections in this order, so references point at stored data.
    fields maps (concept, field name) to the field and, for a reference, its
    dimension, so a field path resolves with one lookup per part.  routes
    keeps the routes the algebra's router made between collections, which
    depend on the schema alone.
    """

    concepts: dict[str, Concept]
    dimensions: tuple[Dimension, ...]
    routes: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    fields: dict[tuple[str, str], tuple[FieldSpec, Dimension | None]] = field(
        init=False, repr=False)
    order: tuple[str, ...] = field(init=False, repr=False)
    _by_source: dict[str, tuple[Dimension, ...]] = field(init=False, repr=False)
    _by_destination: dict[str, tuple[Dimension, ...]] = field(init=False, repr=False)
    _above: dict[str, frozenset[str]] = field(init=False, repr=False)
    _below: dict[str, frozenset[str]] = field(init=False, repr=False)

    def __post_init__(self):
        by_src: dict[str, list[Dimension]] = {name: [] for name in self.concepts}
        by_dst: dict[str, list[Dimension]] = {name: [] for name in self.concepts}
        for d in self.dimensions:
            by_src[d.source].append(d)
            by_dst[d.destination].append(d)
        self._by_source = {k: tuple(sorted(v, key=lambda d: d.name)) for k, v in by_src.items()}
        self._by_destination = {
            k: tuple(sorted(v, key=lambda d: (d.source, d.name))) for k, v in by_dst.items()
        }
        dims = {(d.source, d.name): d for d in self.dimensions}
        self.fields = {(c.name, f.name): (f, dims.get((c.name, f.name)))
                       for c in self.concepts.values() for f in c.fields}
        # Kahn's pass from the greater side; parallel dimensions are one edge
        greater = {k: {d.destination for d in v} for k, v in self._by_source.items()}
        lesser = {k: {d.source for d in v} for k, v in self._by_destination.items()}
        waiting = {k: len(v) for k, v in greater.items()}
        ready = [k for k, n in waiting.items() if n == 0]
        heapq.heapify(ready)
        above: dict[str, frozenset[str]] = {}
        while ready:
            name = heapq.heappop(ready)
            above[name] = frozenset(greater[name].union(*map(above.get, greater[name])))
            for s in lesser[name]:
                waiting[s] -= 1
                if waiting[s] == 0:
                    heapq.heappush(ready, s)
        if len(above) < len(self.concepts):  # what is on a cycle or below one is never placed
            stuck = sorted(self.concepts.keys() - above.keys())
            raise CyclicSchema(f"dimension cycle through concepts: {', '.join(stuck)}")
        self.order = tuple(above)
        self._above = above
        self._below = {}
        for name in reversed(self.order):  # the lesser ones come later in the order
            self._below[name] = frozenset(lesser[name].union(*map(self._below.get, lesser[name])))

    def concept(self, name: str) -> Concept:
        got = self.concepts.get(name)
        if got is None:
            raise UnknownConcept(f"unknown concept '{name}'")
        return got

    def has(self, name: str) -> bool:
        return name in self.concepts

    def dimensions_from(self, name: str) -> tuple[Dimension, ...]:
        self.concept(name)
        return self._by_source[name]

    def dimensions_into(self, name: str) -> tuple[Dimension, ...]:
        self.concept(name)
        return self._by_destination[name]

    def dimension(self, source: str, name: str) -> Dimension | None:
        got = self.fields.get((source, name))
        if got is None:
            self.concept(source)
            return None
        return got[1]

    def above(self, name: str) -> frozenset[str]:
        """Concepts strictly greater than name."""
        self.concept(name)
        return self._above[name]

    def below(self, name: str) -> frozenset[str]:
        """Concepts strictly lesser than name."""
        self.concept(name)
        return self._below[name]

    def path(self, source: str, *names: str) -> DimensionPath:
        """Resolve a left-to-right chain of dimension names into a path."""
        segments = []
        current = source
        for n in names:
            d = self.dimension(current, n)
            if d is None:
                raise PathNotComposable(f"no dimension '{n}' on concept '{current}'")
            segments.append(d)
            current = d.destination
        return DimensionPath(tuple(segments))


def build_schema(definitions: Iterable[Concept]) -> Schema:
    """Validate concept definitions and derive the dimension DAG.

    Rejects duplicate concepts and fields, field names starting with '_'
    (reserved for the "_identity" key of JSON rows), references to unknown
    concepts, non-primitive or nullable identity fields, and any cycle
    among dimensions (including self-references).
    """
    concepts: dict[str, Concept] = {}
    for c in definitions:
        if c.name in concepts:
            raise DuplicateConcept(f"concept '{c.name}' defined twice")
        if c.name in PRIMITIVE_TYPES:
            raise SchemaError(f"concept name '{c.name}' collides with a primitive type")
        concepts[c.name] = c

    dims: list[Dimension] = []
    for c in concepts.values():
        seen: set[str] = set()
        for f in c.fields:
            if f.name in seen:
                raise DuplicateField(f"field '{f.name}' defined twice in concept '{c.name}'")
            if f.name.startswith("_"):
                raise SchemaError(f"field {c.name}.{f.name} starts with '_', which is reserved")
            seen.add(f.name)
        if not c.identity_fields:
            raise SchemaError(f"concept '{c.name}' has an empty identity part")
        for f in c.identity_fields:
            if not f.is_primitive:
                raise NestedIdentity(
                    f"identity field {c.name}.{f.name} has type '{f.type}': "
                    "identities must be flat primitive tuples"
                )
            if f.nullable:
                raise SchemaError(f"identity field {c.name}.{f.name} cannot be nullable")
        for f in c.entity_fields:
            if f.is_primitive:
                continue
            if f.type not in concepts:
                raise UnknownConcept(
                    f"field {c.name}.{f.name} references unknown concept '{f.type}'"
                )
            if f.type == c.name:
                raise CyclicSchema(f"dimension {c.name}.{f.name} references its own concept")
            dims.append(Dimension(f.name, c.name, f.type, f.nullable))

    return Schema(concepts=concepts, dimensions=tuple(dims))


# --- elements and collections ---------------------------------------------


class Element:
    """A view of one stored element: its collection and its row, read on demand.

    Nothing is stored per element but the row: identity is the stored
    identity tuple, values the entity values in the order of the concept's
    entity_fields (a reference as the referenced element's stored identity
    tuple, NULL as None), and entity the same values by field name.  Two
    views of the same row are equal.
    """

    __slots__ = ("store", "row")

    def __init__(self, store: Collection, row: int):
        self.store = store
        self.row = row

    @property
    def concept(self) -> Concept:
        return self.store.concept

    @property
    def collection(self) -> str:
        """The name of the element's collection, which is its concept's."""
        return self.store.name

    @property
    def identity(self) -> Identity:
        return self.store.ids[self.row]

    @property
    def names(self) -> tuple:
        """The entity field names, the keys of values."""
        return self.store.concept.entity_names

    @property
    def values(self) -> tuple:
        store, row = self.store, self.row
        cells = []
        for name in store.concept.entity_names:
            v = store.columns[name][row]
            link = store.refs.get(name)
            if link is not None:
                v = None if v < 0 else link[0].ids[v]
            cells.append(v)
        return tuple(cells)

    @property
    def entity(self) -> dict:
        """The entity values by field name, as a new dict."""
        return dict(zip(self.names, self.values))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.store is other.store and self.row == other.row

    def __hash__(self) -> int:
        return hash((id(self.store), self.row))

    def __repr__(self) -> str:
        return (f"Element(collection={self.collection!r}, identity={self.identity!r}, "
                f"values={self.values!r}, row={self.row!r})")


@dataclass(eq=False)
class Collection:
    """All elements of one concept, one list by row per field, plus row indexes.

    A row is an element's place in the order of arrival.  ids holds the
    stored identity tuple of each row, and elements maps each identity to
    its row.  columns maps every field name, identity fields first, to the
    list of that field's values by row, None for NULL.  A reference field's
    column holds the referenced element's row in the destination collection,
    or -1 for NULL.  reverse maps each dimension arriving here to a list
    holding, for each row of this collection, the rows of the lesser
    elements referencing it, each listed once and in ascending order.
    ordered holds while every row was stored with a greater identity than
    the row before, so that row order is identity order.  No element is
    stored as an object: Element is a view of (collection, row).

    derived holds state computed from the stored rows, which commit never
    writes.  Each entry, under its key, keeps a watermark (how many rows of
    its source collection are folded in), the context the state depends on
    (such as the decimal context, or None), a fold(state, lo, hi) that folds
    the source's rows [lo, hi) in, and the state.  The store only appends
    and a stored row never changes, so _derived, the one reader, folds in
    only the rows past the watermark, and starts again from row 0 when the
    context has changed.  Two kinds are kept on the collection their source
    references: the sum per row of a predicate SUM (algebra._folded_sums)
    and the number of rows referenced along an arriving dimension
    (algebra._referenced).  A read that folds writes here, so reads, like
    inserts, take one thread at a time.

    checks lists (field, destination's identity -> row, or None for a
    primitive field) for each entity field in order, and refs maps
    each reference field to (destination collection, the destination's
    reverse list of the field's dimension).
    """

    name: str
    concept: Concept
    ids: list = field(default_factory=list)
    columns: dict = field(default_factory=dict)
    elements: dict = field(default_factory=dict)
    reverse: dict = field(default_factory=dict)
    ordered: bool = True
    derived: dict = field(default_factory=dict)
    checks: tuple = ()
    refs: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.ids)

    def element(self, identity: Identity) -> Element:
        """The view of the element stored under an identity; KeyError when there is none."""
        return Element(self, self.elements[identity])

    def rows_of(self, identities) -> set:
        """The rows of the given identities; an identity not stored has none."""
        rows = set(map(self.elements.get, identities))
        rows.discard(None)
        return rows

    def _derived(self, key, context, start, *args):
        """The state of derived[key] with every stored row of its source folded in.

        A missing entry, or one made under another context, is made again
        at watermark 0 from start(*args), which returns (source collection,
        fold, empty state).
        """
        entry = self.derived.get(key)
        if entry is None or entry.context != context:
            entry = self.derived[key] = _Derived(0, context, *start(*args))
        seen, n = entry.seen, len(entry.source)
        if seen < n:
            entry.fold(entry.state, seen, n)
            entry.seen = n
        return entry.state


@dataclass(eq=False, slots=True)
class _Derived:
    """One entry of Collection.derived: source rows [0, seen) are folded into state."""

    seen: int
    context: object
    source: Collection
    fold: Callable
    state: object


def create_collections(schema: Schema) -> dict[str, Collection]:
    """One collection per concept, carrying the same name, with empty columns and indexes."""
    colls = {name: Collection(name, c, columns={f.name: [] for f in c.fields})
             for name, c in schema.concepts.items()}
    for d in schema.dimensions:
        colls[d.destination].reverse[d] = []
    for d in schema.dimensions:
        dest = colls[d.destination]
        colls[d.source].refs[d.name] = (dest, dest.reverse[d])
    for coll in colls.values():
        coll.checks = tuple((f, None if f.is_primitive else colls[f.type].elements)
                            for f in coll.concept.entity_fields)
    return colls


_DATE_TEXT = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _iso_date(text: str) -> datetime.date:
    """The date of a DATE text, which is YYYY-MM-DD; ValueError for any other text.

    date.fromisoformat reads more forms on later Pythons ('20240101',
    '2024-W01-1' on 3.11), so the form is checked first: the same text is a
    date, or not, on every supported Python.
    """
    if _DATE_TEXT.fullmatch(text) is None:
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return datetime.date.fromisoformat(text)


def coerce_primitive(value, ftype: str, where: str):
    """Check or convert a python value against a primitive type name."""
    if ftype == "string":
        if isinstance(value, str):
            return value
    elif ftype == "integer":
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif ftype == "decimal":
        if isinstance(value, int) and not isinstance(value, bool):
            return Decimal(value)
        if isinstance(value, str):
            try:
                value = Decimal(value)
            except InvalidOperation:
                raise TypeMismatch(f"{where}: '{value}' is not a decimal") from None
        if isinstance(value, Decimal):
            # a stored value must equal itself and hash, as NaN and sNaN do not
            if not value.is_finite():
                raise TypeMismatch(f"{where}: '{value}' is not a finite decimal")
            return value
    elif ftype == "date":
        if isinstance(value, datetime.date) and not isinstance(value, datetime.datetime):
            return value
        if isinstance(value, str):
            try:
                return _iso_date(value)
            except ValueError:
                raise TypeMismatch(f"{where}: '{value}' is not an ISO date") from None
    raise TypeMismatch(f"{where}: expected {ftype}, got {type(value).__name__} {value!r}")


def make_identity(concept: Concept, values) -> Identity:
    """Build a typed identity tuple for a concept; a bare value means arity one."""
    if not isinstance(values, (tuple, list)):
        values = (values,)
    if len(values) != len(concept.identity_fields):
        raise TypeMismatch(
            f"identity of '{concept.name}' has {len(concept.identity_fields)} "
            f"field(s), got {len(values)} value(s)"
        )
    out = []
    for f, v in zip(concept.identity_fields, values):
        if v is None:
            raise NullViolation(f"identity field {concept.name}.{f.name} cannot be NULL")
        out.append(_coerce(v, f, concept))
    return tuple(out)


# the type a value of each primitive type is stored as
_STORED = {"string": str, "integer": int, "decimal": Decimal, "date": datetime.date}


def _coerce(value, f: FieldSpec, concept: Concept):
    """coerce_primitive for a field of a concept; a value stored as it is skips the checks."""
    if type(value) is _STORED[f.type] and (f.type != "decimal" or value.is_finite()):
        return value
    return coerce_primitive(value, f.type, f"{concept.name}.{f.name}")


def insert_element(db, collection: str, identity, entity_values: Mapping | None = None) -> Element:
    """Insert one element; identity must be fresh and references must exist.

    Entity values may omit nullable fields.  Reference values may be given
    as identity tuples or as a bare value when the destination identity has
    a single field.  The row goes through Batch.check_row, so a row that
    raises leaves nothing behind.  Returns the view of the stored element.
    """
    coll = db.collections.get(collection)
    if coll is None:
        raise UnknownCollection(f"unknown collection '{collection}'")
    entity_values = entity_values or {}
    staged: dict = {}
    batch = Batch(coll, staged)
    ident, cells = batch.check_row(identity, entity_values, ())
    extra = entity_values.keys() - coll.concept.entity_names
    if extra:
        raise TypeMismatch(
            f"unknown entity field(s) for '{collection}': {', '.join(sorted(extra))}")
    batch.stage([ident], [[cell] for cell in cells])
    commit(staged)
    return coll.element(ident)


class Batch:
    """Checked rows of one collection, held back from the store until commit.

    ids holds the staged identity tuples and elements maps each to the row
    it will take; parts holds, for each chunk staged, one list per field of
    the collection's columns, in their order.  A new batch registers itself
    in staged.  Each reference field resolves through one dict over its
    destination's store plus the batch staged for it, so a greater
    collection's batch is staged first.
    """

    def __init__(self, coll: Collection, staged: dict):
        self.coll = coll
        self.ids: list = []
        self.elements: dict = {}
        self.parts: list = []
        self.checks = coll.checks
        if staged:
            self.checks = tuple((f, _lookup(store, staged.get(f.type)))
                                for f, store in coll.checks)
        staged[coll.name] = self

    def add(self, ids: list, values: list, flagged: set, explain: Callable) -> list:
        """Stage the good rows of a chunk, in order; return the others as (index, error).

        ids are the rows' identity tuples and values the entity columns in
        field order, a reference as an identity tuple or None; flagged holds
        the rows already suspect, whose cells may read None.  Each check
        runs on a whole column and only adds rows to flagged: duplicates by
        one set against the store and the batch, NOT NULL by a scan for
        None, references by one lookup per cell.  Then explain(i, claimed)
        decides each flagged row, in order: it raises the row's DataError,
        or returns the row's identity and cells as stored, as check_row
        does, which are staged in its place.  claimed holds the identities
        of the flagged rows kept before it.  A kept error drops its
        traceback and the error it replaced, whose frames would hold it in
        a cycle.
        """
        coll = self.coll
        unique = set(ids)
        if (len(unique) < len(ids) or not coll.elements.keys().isdisjoint(unique)
                or not self.elements.keys().isdisjoint(unique)):
            counts = Counter(ids)
            flagged.update(i for i, ident in enumerate(ids) if counts[ident] > 1
                           or ident in coll.elements or ident in self.elements)
        columns = list(values)  # as they are stored: a reference as its destination row
        for j, (f, lookup) in enumerate(self.checks):
            cells = values[j]
            if lookup is None:
                if not f.nullable and None in cells:
                    flagged.update(_nones(cells))
                continue
            column = columns[j] = list(map(lookup.get, cells))
            if None in column:
                for i in _nones(column):
                    column[i] = -1
                    if cells[i] is not None or not f.nullable:
                        flagged.add(i)
        rejected = []
        if flagged:
            claimed: set = set()
            for i in sorted(flagged):
                try:
                    ident, stored = explain(i, claimed)
                except DataError as e:
                    e.__context__ = None
                    rejected.append((i, e.with_traceback(None)))
                    continue
                claimed.add(ident)
                ids[i] = ident
                for column, cell in zip(columns, stored):
                    column[i] = cell
            if rejected:
                keep = [True] * len(ids)
                for i, _ in rejected:
                    keep[i] = False
                ids = list(compress(ids, keep))
                columns = [list(compress(column, keep)) for column in columns]
        self.stage(ids, columns)
        return rejected

    def check_row(self, identity, entity: Mapping, claimed) -> tuple:
        """One row's identity tuple and entity cells as stored, or its first DataError.

        In this order: make_identity; a duplicate of the store, of the batch
        or of an identity in claimed; then field by field NULL in a NOT NULL
        field, the value's type, the identity a reference names, a dangling
        reference.  A reference is stored as its destination row, -1 for NULL.
        """
        coll = self.coll
        ident = make_identity(coll.concept, identity)
        if ident in coll.elements or ident in self.elements or ident in claimed:
            raise DuplicateIdentity(f"element {ident!r} already exists in '{coll.name}'")
        cells = []
        for f, lookup in self.checks:
            v = entity.get(f.name)
            if v is None:
                if not f.nullable:
                    raise NullViolation(f"field {coll.name}.{f.name} cannot be NULL")
                if lookup is not None:
                    v = -1
            elif lookup is None:
                v = _coerce(v, f, coll.concept)
            else:
                ref = make_identity(coll.refs[f.name][0].concept, v)
                v = lookup.get(ref)
                if v is None:
                    raise DanglingReference(f"{coll.name}.{f.name} references missing "
                                            f"element {ref!r} of '{f.type}'")
            cells.append(v)
        return ident, cells

    def stage(self, ids: list, columns: list) -> None:
        """Hold checked rows for commit: their identity tuples and entity columns as stored."""
        if not ids:
            return
        coll = self.coll
        keys = [list(map(itemgetter(k), ids)) for k in range(len(coll.concept.identity_fields))]
        start = len(coll.ids) + len(self.ids)
        rows = range(start, start + len(ids))
        if coll.concept.identity_fields[0].type == "integer" and all(map(eq, keys[0], rows)):
            rows = keys[0]  # INT keys equal to their rows lend the rows their int objects
        self.ids += ids
        self.elements.update(zip(ids, rows))
        self.parts.append(keys + columns)


def _nones(column) -> list:
    """The indexes at which a column holds None."""
    return list(compress(range(len(column)), map(is_, column, repeat(None))))


def _lookup(store, batch):
    """One dict over a store's elements and a staged batch's: identity -> row."""
    if batch is None or not batch.elements:
        return store
    return {**store, **batch.elements} if store else batch.elements


def commit(staged: dict) -> None:
    """Store staged batches, greater collections first: ids, columns, reverse lists.

    Each batch's rows follow the rows stored before them, as the batch
    numbered them.  Every reverse list of the collection grows by one empty
    list per row, and each row is appended to the reverse list of the row
    each of its references names, which a batch staged before this one has
    already been given.  Each step is one pass over whole columns.
    """
    for batch in staged.values():
        coll, ids = batch.coll, batch.ids
        if not ids:
            continue
        if coll.ordered:  # each identity must be greater than the one stored before it
            coll.ordered = ((not coll.ids or coll.ids[-1] < ids[0])
                            and all(map(lt, ids, islice(ids, 1, None))))
        start = len(coll.ids)
        coll.ids += ids
        columns = coll.columns.values()
        for part in batch.parts:
            for column, cells in zip(columns, part):
                column += cells
        coll.elements.update(batch.elements)
        rows = list(batch.elements.values())
        for lessers in coll.reverse.values():
            lessers += [[] for _ in rows]
        for name, (_, reverse) in coll.refs.items():
            greater, sources = coll.columns[name][start:], rows
            if -1 in greater:  # NULL references no row
                keep = list(map(ROW, greater))
                greater, sources = compress(greater, keep), compress(rows, keep)
            # list.append returns None, so any() runs every append
            any(map(list.append, map(reverse.__getitem__, greater), sources))
