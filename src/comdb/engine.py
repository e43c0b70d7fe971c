"""Database instances: schema loading, CSV ingest, execution and rendering.

A Database owns one schema, one collection per concept, and a registry of
named product collections.  Mutation is insert-only and bumps a version
counter.  Nothing is locked or pinned: a query reads the live storage, so
an insert made while a query runs can leave its answer inconsistent.
execute runs a plan on the rows of collections and turns rows into
identities only in the result.  Query results come back as ResultSet
values held column-wise: the sorted member identities and, for a
collection, the slice of each stored column at the members' rows; rows
are built as dicts only when read.  build_result picks one encoder per
column from the schema, and the render_* functions map each column
through it.
"""

from __future__ import annotations

import csv
import datetime
import gc
import io
import operator
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from decimal import Decimal
from functools import partial
from itertools import chain, compress, repeat
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable

from . import algebra, model
from .algebra import ElementSet, PrimitiveDomain, ProductCollection
from .coql import ast as coql_ast
from .coql import parser as coql_parser
from .coql.resolver import (
    CollectionAnchor,
    PlanProjectField,
    PlanRoute,
    ProductAnchor,
    QueryPlan,
    explain,
    resolve,
    resolve_product,
)
from .errors import (
    FileError,
    HeaderMismatch,
    ResolveError,
    SchemaError,
    TypeMismatch,
    UnknownCollection,
)


@dataclass(frozen=True)
class SchemaSummary:
    concepts: int
    dimensions: int
    warnings: tuple[str, ...] = ()


@dataclass
class IngestReport:
    collection: str
    path: str
    inserted: int = 0
    rejected: list = field(default_factory=list)  # (line number, message) pairs


class Database:
    def __init__(self, schema: model.Schema | None = None):
        self.schema: model.Schema | None = None
        self.collections: dict[str, model.Collection] = {}
        self.products: dict[str, ProductCollection] = {}
        self.version = 0
        if schema is not None:
            self._attach(schema)

    def _attach(self, schema: model.Schema) -> None:
        if self.schema is not None:
            raise SchemaError("a schema is already loaded")
        self.schema = schema
        self.collections = model.create_collections(schema)

    # --- mutation ---

    def insert(self, collection: str, identity, entity=None) -> model.Element:
        el = model.insert_element(self, collection, identity, entity)
        self.version += 1
        return el

    def register_product(self, product: ProductCollection) -> None:
        """Name a product for queries; a later product of the same name replaces it."""
        if self.schema is not None and self.schema.has(product.name):
            raise ResolveError(f"'{product.name}' is already a collection")
        self.products[product.name] = product

    # --- reading ---

    def query(self, text: str) -> "ResultSet":
        plan = self.plan(text)
        return execute(self, plan)

    def plan(self, text: str) -> QueryPlan:
        if self.schema is None:
            raise SchemaError("no schema loaded")
        q = coql_parser.parse_query(text)
        return resolve(q, self.schema, self.products)

    def explain(self, text: str) -> str:
        return explain(self.plan(text))


def load_schema(db: Database, text: str) -> SchemaSummary:
    """Parse concept definitions and attach them to an empty database."""
    concepts = coql_parser.parse_schema(text)
    schema = model.build_schema(concepts)
    db._attach(schema)
    warnings = ()
    if not schema.concepts:
        warnings = ("schema defines no concepts",)
    return SchemaSummary(len(schema.concepts), len(schema.dimensions), warnings)


# --- CSV ingest -----------------------------------------------------------------


CHUNK_ROWS = 4096  # CSV rows read, typed and checked at a time

# the one converter per primitive type for CSV text, and what a bad cell is not
_CONVERTERS = {"string": str, "integer": int, "decimal": Decimal, "date": model._iso_date}
_TYPE_NAMES = {"integer": "an integer", "decimal": "a decimal", "date": "an ISO date"}


def _parse_scalar(text: str, ftype: str, where: str):
    try:
        return _CONVERTERS[ftype](text)
    except (ValueError, ArithmeticError):  # decimal.InvalidOperation is an ArithmeticError
        raise TypeMismatch(f"{where}: '{text}' is not {_TYPE_NAMES[ftype]}") from None


def _typed_column(cells, ftype: str, bad: set) -> list:
    """A column of CSV cells through its type's converter, None for a NULL cell.

    A cell that does not convert, or converts to a DECIMAL that is not
    finite, reads None too, and its row goes to bad.
    """
    convert = _CONVERTERS[ftype]
    if ftype == "string":
        if "" not in cells and "NULL" not in cells:
            return list(cells)
    else:
        try:  # only str accepts an empty or NULL cell
            values = list(map(convert, cells))
        except (ValueError, ArithmeticError):
            pass
        else:
            if ftype != "decimal" or all(map(Decimal.is_finite, values)):
                return values
    out = []
    for i, text in enumerate(cells):
        value = None
        if text not in ("", "NULL"):
            try:
                value = convert(text)
            except (ValueError, ArithmeticError):  # InvalidOperation is an ArithmeticError
                pass
            if value is None or ftype == "decimal" and not value.is_finite():
                value = None
                bad.add(i)
        out.append(value)
    return out


def encode_scalar(v) -> str:
    if isinstance(v, datetime.date):
        return v.isoformat()
    return str(v)


def encode_identity(ident: tuple) -> str:
    """Single-field identities print bare; composite ones as '(v1,v2)'.

    Inside the parentheses the components form one CSV record (RFC 4180):
    a component holding a comma, a double quote or a line break is quoted,
    with its quotes doubled.  Parentheses inside components are doubled.
    """
    if len(ident) == 1:
        return encode_scalar(ident[0])
    buf = io.StringIO()
    csv.writer(buf).writerow(encode_scalar(v).replace("(", "((").replace(")", "))")
                             for v in ident)
    return "(" + buf.getvalue()[:-2] + ")"  # without the record's \r\n


def decode_identity(concept: model.Concept, text: str) -> tuple:
    fields = concept.identity_fields
    if len(fields) == 1:
        return (_parse_scalar(text, fields[0].type, f"{concept.name}.{fields[0].name}"),)
    if not (text.startswith("(") and text.endswith(")")):
        raise TypeMismatch(
            f"reference to '{concept.name}' must look like (v1,v2), got '{text}'"
        )
    records = list(csv.reader(io.StringIO(text[1:-1], newline="")))
    if len(records) > 1:
        raise TypeMismatch(f"reference to '{concept.name}' has a line break outside quotes")
    raw = records[0] if records else []
    if len(raw) != len(fields):
        raise TypeMismatch(
            f"reference to '{concept.name}' needs {len(fields)} components, got {len(raw)}"
        )
    out = []
    for f, comp in zip(fields, raw):
        comp = comp.replace("((", "(").replace("))", ")")
        out.append(_parse_scalar(comp, f.type, f"{concept.name}.{f.name}"))
    return tuple(out)


def load_csv(db: Database, collection: str, path, strict: bool = False) -> IngestReport:
    """Load one collection from a CSV file (RFC 4180, UTF-8, BOM tolerated).

    The header must name exactly the concept's fields, in any order.  Empty
    cells and the literal NULL read as NULL.  Bad rows are reported and
    skipped, or abort the load under strict.  The file is read and checked
    before anything is stored, so a load that raises stores nothing.  The
    cyclic garbage collector is paused for the whole process while the
    load runs, so other threads' cycles wait until it ends.
    """
    return _load(db, [(collection, path)], strict)[0]


def _load(db: Database, files, strict: bool) -> list[IngestReport]:
    """Stage (collection, path) files in order, then store them all at once.

    The cyclic garbage collector is paused meanwhile.  A load links its
    objects into no cycle (a bad cell's error is kept without its
    traceback), so a collection would free nothing, while each of the
    several full ones a large load sets off walks every object the
    process holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        staged: dict = {}
        reports = [_stage_csv(db, name, path, strict, staged) for name, path in files]
        model.commit(staged)
    finally:
        if enabled:
            gc.enable()
    db.version += sum(1 for r in reports if r.inserted)
    return reports


def _stage_csv(db: Database, collection: str, path, strict: bool, staged: dict) -> IngestReport:
    """Read, type and check one CSV file into a batch in staged, CHUNK_ROWS rows at a time."""
    if db.schema is None:
        raise SchemaError("no schema loaded")
    coll = db.collections.get(collection)
    if coll is None:
        raise UnknownCollection(f"unknown collection '{collection}'")
    concept = coll.concept
    report = IngestReport(collection, str(path))
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as e:
        raise FileError(f"cannot read {path}: {e}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise HeaderMismatch(f"{path}: empty file, expected a header row")
            expected = {f.name for f in concept.fields}
            if len(set(header)) != len(header) or set(header) != expected:
                raise HeaderMismatch(
                    f"{path}: header {sorted(header)} does not match the fields of "
                    f"'{collection}' {sorted(expected)}"
                )
            batch = model.Batch(coll, staged)
            width = len(header)
            blank = [""] * width
            rows, lines, ragged = [], [], {}
            for row in reader:
                if not row:
                    continue  # csv.reader reads a blank line as []
                if len(row) != width:
                    ragged[len(rows)] = row
                    row = blank
                rows.append(row)
                lines.append(reader.line_num)
                if len(rows) == CHUNK_ROWS:
                    _check_chunk(db, batch, header, rows, lines, ragged, report, strict)
                    rows, lines, ragged = [], [], {}
            if rows:
                _check_chunk(db, batch, header, rows, lines, ragged, report, strict)
        except UnicodeDecodeError:
            raise _utf8_error(path) from None
        except csv.Error as e:
            raise FileError(f"{path}:{reader.line_num}: {e}") from None
    return report


def _check_chunk(db, batch: model.Batch, header, rows, lines, ragged, report, strict) -> None:
    """Type rows column by column, stage the good ones and report the bad ones.

    The column passes only flag rows: a row of the wrong width (ragged maps
    its index to its texts, and rows holds it blank), an empty identity
    cell, a cell that does not type.  model.Batch.add flags more, and
    _check_texts decides the error of every flagged row.
    """
    concept = batch.coll.concept
    # one C-level pass per column: zip(*rows) would make an iterator per row
    cells = {name: list(map(operator.itemgetter(k), rows)) for k, name in enumerate(header)}
    flagged = set(ragged)
    keys = [_typed_column(cells[f.name], f.type, flagged) for f in concept.identity_fields]
    for key in keys:
        if None in key:
            flagged.update(model._nones(key))
    columns = [_typed_column(cells[f.name], f.type, flagged) if f.is_primitive
               else _typed_references(db.schema.concepts[f.type], cells[f.name], flagged)
               for f in concept.entity_fields]
    rejected = batch.add(list(zip(*keys)), columns, flagged, lambda i, claimed:
                         _check_texts(db, batch, header, ragged.get(i, rows[i]), claimed))
    report.inserted += len(rows) - len(rejected)
    if strict and rejected:
        i, e = rejected[0]
        raise FileError(f"{report.path}:{lines[i]}: {e}")
    report.rejected.extend((lines[i], str(e)) for i, e in rejected)


def _check_texts(db, batch: model.Batch, header, texts, claimed) -> tuple:
    """One CSV row checked as the row-at-a-time loader checks it; see model.Batch.check_row.

    In this order: the row's width, each identity cell (empty, or not of
    its type), each entity cell's type, then check_row.
    """
    if len(texts) != len(header):
        raise TypeMismatch(f"row has {len(texts)} values, expected {len(header)}")
    concept = batch.coll.concept
    given = {name: text for name, text in zip(header, texts) if text not in ("", "NULL")}
    ident = []
    for f in concept.identity_fields:
        if f.name not in given:
            raise TypeMismatch(f"identity field {f.name} is empty")
        ident.append(_parse_scalar(given[f.name], f.type, f"{concept.name}.{f.name}"))
    entity = {f.name: _parse_scalar(given[f.name], f.type, f"{concept.name}.{f.name}")
              if f.is_primitive else decode_identity(db.schema.concepts[f.type], given[f.name])
              for f in concept.entity_fields if f.name in given}
    return batch.check_row(tuple(ident), entity, claimed)


def _typed_references(dest: model.Concept, cells, bad: set) -> list:
    """A reference column as identities of dest, None for a NULL cell.

    A cell that is not an identity of dest, or names one with a DECIMAL
    that is not finite, reads None too, and its row goes to bad.
    """
    fields = dest.identity_fields
    if len(fields) == 1:
        values = _typed_column(cells, fields[0].type, bad)
        if None not in values:
            return list(zip(values))
        return [None if v is None else (v,) for v in values]
    idents = []
    for i, text in enumerate(cells):
        ident = None
        if text not in ("", "NULL"):
            try:
                ident = model.make_identity(dest, decode_identity(dest, text))
            except TypeMismatch:
                bad.add(i)
        idents.append(ident)
    return idents


def _utf8_error(path) -> FileError:
    """Where a file first stops being UTF-8, as path:line: message."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
        return FileError(f"{path}: not UTF-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        return FileError(f"{path}:{line}: byte {data[e.start]:#04x} is not UTF-8 ({e.reason})")


def load_data_dir(db: Database, directory, strict: bool = False):
    """Load every <Collection>.csv in a directory, greater collections first.

    Returns (reports, unmatched file names).  Every file is read and checked,
    its references resolved against the store plus the files staged before
    it, and only then are all of them stored, so a load that raises stores
    nothing.  As in load_csv, the cyclic garbage collector is paused for the
    whole process while the load runs.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileError(f"not a directory: {directory}")
    files = {p.stem: p for p in sorted(directory.glob("*.csv"))}
    order = [(name, files.pop(name)) for name in db.schema.order if name in files]
    return _load(db, order, strict), sorted(files)


# --- execution --------------------------------------------------------------------


# how a bound `identity op c` cuts rows sorted by identity: (a lower bound?, the cut)
_CUTS = {operator.gt: (True, bisect_right), operator.ge: (True, bisect_left),
         operator.lt: (False, bisect_left), operator.le: (False, bisect_right)}


def _select(db, sel: CollectionAnchor, rows):
    """The rows among rows, all of C's or those a step arrives with, that (C | p) keeps.

    While C is ordered its rows are sorted by identity, so the bounds are
    one interval of rows found by bisection and intersected with rows;
    otherwise each row's identity is compared with each bound, after the
    seeks.  The seeks run cheapest first: one scans its owner while the
    rows left number at least its cost (_seek_cost), and otherwise its
    check runs on each row left, so no column larger than the rows left is
    scanned.  Each cut then reads its aggregate once for all the rows
    left, and the residual runs on each row the cuts keep.
    """
    coll = db.collections[sel.collection]
    ids = coll.ids
    bounds = sel.bounds
    if bounds and coll.ordered:
        lo, hi = 0, len(ids)
        for op, value in bounds:
            lower, cut = _CUTS[op]
            if lower:
                lo = max(lo, cut(ids, (value,)))
            else:
                hi = min(hi, cut(ids, (value,)))
        interval = range(lo, max(lo, hi))
        rows, bounds = interval if len(rows) == len(ids) else [r for r in rows if r in interval], ()
    checks = []
    for cost, seek in sorted(((_seek_cost(db, s), s) for s in sel.seeks), key=_FIRST):
        if len(rows) < cost:
            checks.append(seek.check)
            continue
        got = algebra._owner_rows(db.collections[seek.owner], seek.field, seek.values)
        if seek.route is not None:
            got = algebra._run_route(db, got, seek.route)
        rows = set(got) if len(rows) == len(ids) else set(got).intersection(rows)
    for check in checks:
        rows = [r for r in rows if check(db, r)]
    for op, value in bounds:
        rows = [r for r in rows if op(ids[r][0], value)]
    for agg, op, value in sel.cuts:
        rows = list(compress(rows, map(op, _aggregate(db, agg, rows), repeat(value))))
    residual = sel.residual
    if residual is not None:
        rows = {r for r in rows if residual(db, r)}
    return rows


def _seek_cost(db, seek) -> int:
    """The rows scanning a seek reads: a lookup per constant when its field
    is its owner's whole identity, else its owner's column."""
    owner = db.collections[seek.owner]
    if [f.name for f in owner.concept.identity_fields] == [seek.field]:
        return len(seek.values)
    return len(owner)


def _aggregate(db, agg, rows) -> list:
    """The value of an aggregate (resolver.AggValue) at each of rows, in their order.

    With no inner predicate, COUNT is the length of each row's reverse
    list and SUM its folded total.  Otherwise the inner record runs once
    on the union of the rows' reverse lists, and each row counts the
    lessers it keeps, or sums them in reverse-list order as _sum_rows
    adds, so each total is the one its reverse list alone would give.
    """
    reverse = db.collections[agg.dim.destination].reverse[agg.dim]
    if agg.inner is None:
        if agg.path is None:
            return list(map(len, map(reverse.__getitem__, rows)))
        return list(map(algebra._folded_sums(db, agg.key, agg.dim, agg.path).__getitem__, rows))
    lessers = list(map(reverse.__getitem__, rows))
    kept = set(_select(db, agg.inner, set(chain.from_iterable(lessers))))
    if agg.path is None:
        return [sum(map(kept.__contains__, own)) for own in lessers]
    return [algebra._sum_rows(db, [r for r in own if r in kept], agg.path) for own in lessers]


def execute(db, plan: QueryPlan) -> "ResultSet":
    """Run a resolved plan against a database: the set its anchor stands for,
    moved through its steps in order.

    Members are in algebra's runner form: rows, or tuples of factor rows.
    _select narrows every (C | p), an anchor from all of C's rows and a
    step's target from the rows the step arrives with.
    """
    anchor = plan.anchor
    if isinstance(anchor, CollectionAnchor):
        domain = anchor.collection
        members = _select(db, anchor, range(len(db.collections[domain])))
    elif isinstance(anchor, ProductAnchor):
        domain = anchor.product
        members = set(algebra.iter_members(db, domain))
    else:
        raise TypeError(f"not an anchor: {anchor!r}")

    for step in plan.steps:
        if isinstance(step, CollectionAnchor):
            members = _select(db, step, members)
        elif isinstance(step, PlanProjectField):
            coll = db.collections[domain]
            members = algebra._field_values(coll, members, step.field)
            domain = PrimitiveDomain(domain, step.field.name, step.field.type)
        elif isinstance(step, PlanRoute):
            members = algebra._run_route(db, members, step.route)
            domain = step.route.target
        else:
            raise TypeError(f"not a plan step: {step!r}")
    return build_result(db, domain, members, tuple(dict.fromkeys(plan.warnings)))


def execute_statement(db: Database, text: str):
    """Run one statement: ('product', ProductCollection) or ('result', ResultSet)."""
    if db.schema is None:
        raise SchemaError("no schema loaded")
    stmt = coql_parser.parse_statement(text)
    if isinstance(stmt, coql_ast.ProductDef):
        product = resolve_product(stmt, db.schema, db.products)
        db.register_product(product)
        return ("product", product)
    plan = resolve(stmt, db.schema, db.products)
    return ("result", execute(db, plan))


# --- results and rendering ---------------------------------------------------------

# the text of a primitive value, by field type
_TEXT = {"integer": str, "string": str, "decimal": str, "date": datetime.date.isoformat}
_FIRST = operator.itemgetter(0)


def _encoder(schema: model.Schema, ftype: str):
    """The encoder of a column holding values of a primitive type or references to a concept.

    It maps a column of non-NULL cells to their texts.
    """
    text = _TEXT.get(ftype)
    if text is not None:
        return partial(map, text)
    fields = schema.concepts[ftype].identity_fields
    if len(fields) > 1:
        return partial(map, encode_identity)
    text = _TEXT[fields[0].type]
    return lambda column: map(text, map(_FIRST, column))


def _json_encoder(schema: model.Schema, ftype: str):
    """As _encoder, but to JSON text: an INT is a JSON number, any other value a JSON string."""
    text = _encoder(schema, ftype)
    if ftype == "integer":
        return text
    return lambda column: map(encode_basestring, text(column))


class _Rows(Sequence):
    """A result's rows as {column: value} dicts, each built when it is read."""

    def __init__(self, rs: "ResultSet"):
        self._rs = rs

    def __len__(self) -> int:
        return len(self._rs.identities)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        rs = self._rs
        if rs.kind == "collection":
            cells = [column[k] for column in rs.values]
        elif rs.kind == "primitive":
            cells = (rs.identities[k],)
        else:
            cells = rs.identities[k]
        return dict(zip(rs.columns, cells))

    def __eq__(self, other) -> bool:
        return list(self) == other

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class ResultSet:
    """The answer to a query, held column-wise.

    identities are the sorted members: identity tuples of a collection,
    primitive values, or tuples of factor identities of a product.  A
    collection result also holds, in values, one list per column: the
    slice of the stored column in the members' order, a reference as the
    referenced element's stored identity tuple.  build_result picks one
    encoder per column; rows builds its dicts only when read.
    """

    kind: str                  # collection | primitive | product
    tag: str                   # name of the domain the members live in
    columns: tuple[str, ...]
    identities: list
    domain: algebra.Domain
    warnings: tuple[str, ...] = ()
    values: list | None = None  # collection: each column's cells, in the members' order
    # per column, as _encoder and _json_encoder; of the identities, None for a product
    encoders: tuple = field(default=(), compare=False)
    json_encoders: tuple = field(default=(), compare=False)
    identity_encoder: Callable | None = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.identities)

    @property
    def rows(self) -> Sequence[dict]:
        return _Rows(self)

    @property
    def members(self) -> ElementSet:
        return ElementSet(self.domain, frozenset(self.identities))


def build_result(db, domain, members, warnings: tuple[str, ...] = ()) -> ResultSet:
    """The result of members of a domain, as the runner holds them: rows, or tuples of them.

    Rows turn back into the stored identity tuples here, sorted.
    """
    schema = db.schema
    if isinstance(domain, PrimitiveDomain):
        encoder = _encoder(schema, domain.type)
        return ResultSet("primitive", str(domain), (domain.field,), sorted(members), domain,
                         warnings, None, (encoder,), (_json_encoder(schema, domain.type),),
                         encoder)
    if isinstance(domain, ProductCollection):
        aliases = tuple(a for a, _ in domain.factors)
        encoders = tuple(_encoder(schema, c) for _, c in domain.factors)
        identities = sorted(algebra._to_set(db, domain, members).members)
        return ResultSet("product", domain.name, aliases, identities, domain, warnings,
                         None, encoders, tuple(map(_json_encoder, repeat(schema),
                                                   (c for _, c in domain.factors))))
    coll = db.collections[domain]
    # row order is identity order while the collection is ordered: sort the ints
    rows = sorted(members) if coll.ordered else sorted(members, key=coll.ids.__getitem__)
    identities = [None] * len(rows)
    # sized exactly: a kept answer holds no spare slots
    identities[:] = map(coll.ids.__getitem__, rows)
    fields = coll.concept.fields
    return ResultSet("collection", domain, tuple(f.name for f in fields),
                     identities, domain, warnings, [_cells(coll, f, rows) for f in fields],
                     tuple(_encoder(schema, f.type) for f in fields),
                     tuple(_json_encoder(schema, f.type) for f in fields),
                     _encoder(schema, domain))


def _cells(coll: model.Collection, f: model.FieldSpec, rows) -> list:
    """One field's values at some rows of a collection, a reference as the stored identity."""
    cells = list(map(coll.columns[f.name].__getitem__, rows))
    link = coll.refs.get(f.name)
    if link is None:
        return cells
    ids = link[0].ids
    if -1 not in cells:
        return list(map(ids.__getitem__, cells))
    return [ids[g] if g >= 0 else None for g in cells]


def _columns(rs: ResultSet) -> list:
    """The result's cells column by column, in the order of rs.columns.

    A collection result holds them already.  Otherwise one itemgetter pass
    per column: zip(*rows) would make an iterator per row.
    """
    if rs.kind == "primitive":
        return [rs.identities]
    if rs.kind == "collection":
        return rs.values
    return [list(map(operator.itemgetter(k), rs.identities)) for k in range(len(rs.columns))]


def _encode(column, encoder, null) -> list:
    """A column through its encoder, NULL cells reading null."""
    if not any(map(operator.is_, column, repeat(None))):  # `in` would call __eq__
        return list(encoder(column))
    cells = iter(encoder([v for v in column if v is not None]))
    return [null if v is None else next(cells) for v in column]


def _texts(rs: ResultSet, null: str) -> list[list[str]]:
    return [_encode(c, e, null) for c, e in zip(_columns(rs), rs.encoders)]


def render_table(rs: ResultSet) -> str:
    padded = []
    for name, cells in zip(rs.columns, _texts(rs, "NULL")):
        w = max(len(name), max(map(len, cells), default=0))
        padded.append([name.ljust(w), "-" * w, *map(str.ljust, cells, repeat(w))])
    lines = list(map(str.rstrip, map("  ".join, zip(*padded))))
    n = len(rs)
    lines.append(f"({n} row{'' if n == 1 else 's'})")
    return "\n".join(lines)


def render_csv(rs: ResultSet) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(rs.columns)
    w.writerows(zip(*_texts(rs, "")))
    return buf.getvalue().rstrip("\n")


def render_json(rs: ResultSet) -> str:
    """One JSON object per row, plus the member's text under "_identity".

    Each column is encoded to JSON text once and each line joined from the
    fragments, as json.dumps would print the row's dict.
    """
    columns = [_encode(c, e, "null") for c, e in zip(_columns(rs), rs.json_encoders)]
    if rs.identity_encoder is None:  # a product: every cell is a factor identity's text
        keys = map("({})".format, map(",".join, zip(*_texts(rs, ""))))
    else:
        keys = rs.identity_encoder(rs.identities)
    columns.append(list(map(encode_basestring, keys)))  # no field name starts with '_'
    names = (*rs.columns, "_identity")
    cells = [list(map((encode_basestring(n) + ": ").__add__, c)) for n, c in zip(names, columns)]
    return "\n".join(["{" + ", ".join(row) + "}" for row in zip(*cells)])


def render(rs: ResultSet, fmt: str) -> str:
    if fmt == "table":
        return render_table(rs)
    if fmt == "csv":
        return render_csv(rs)
    if fmt == "json":
        return render_json(rs)
    raise ValueError(f"unknown format '{fmt}'")


# --- introspection -----------------------------------------------------------------


def schema_outline(schema: model.Schema) -> str:
    """Indented listing of the order: maximal concepts at the margin, each
    lesser concept under its greater, annotated with the dimension name.

    A concept reached a second time gets its line again, but its lessers
    are listed only under its first line, so the outline has one line per
    maximal concept and one per dimension.
    """
    lines: list[str] = []
    listed: set[str] = set()
    stack = [(name, 0, None) for name in sorted(schema.concepts, reverse=True)
             if not schema.dimensions_from(name)]
    while stack:
        name, depth, via = stack.pop()
        lines.append("  " * depth + (name if via is None else f"{name} ({via})"))
        if name not in listed:
            listed.add(name)
            stack.extend((d.source, depth + 1, d.name)
                         for d in reversed(schema.dimensions_into(name)))
    return "\n".join(lines)


def collections_outline(db: Database) -> str:
    lines = []
    for name in sorted(db.collections):
        lines.append(f"{name}: {len(db.collections[name])} elements")
    for name in sorted(db.products):
        p = db.products[name]
        factors = ", ".join(f"{c} {a}" for a, c in p.factors)
        lines.append(f"{name} = product of ({factors})")
    return "\n".join(lines)
