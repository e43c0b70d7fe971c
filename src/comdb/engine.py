"""Database instances: schema loading, CSV ingest, execution and rendering.

A Database owns one schema, one collection per concept, and a registry of
named product collections.  Mutation is insert-only and bumps a version
counter.  Nothing is locked or pinned: a query reads the live storage, so
an insert made while a query runs can leave its answer inconsistent.
Query results come back as ResultSet values holding raw python values;
the render_* functions turn them into text.
"""

from __future__ import annotations

import csv
import datetime
import io
import itertools
import json
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from pathlib import Path

from . import algebra, model
from .algebra import ElementSet, PrimitiveDomain, ProductCollection
from .coql import ast as coql_ast
from .coql import parser as coql_parser
from .coql.resolver import (
    CollectionAnchor,
    LiteralAnchor,
    PlanDeprojectValues,
    PlanFilter,
    PlanProjectField,
    PlanRoute,
    ProductAnchor,
    QueryPlan,
    explain,
    resolve,
    resolve_product,
)
from .errors import (
    DataError,
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
    rejected: list = None  # (line number, message) pairs

    def __post_init__(self):
        if self.rejected is None:
            self.rejected = []


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


def _parse_scalar(text: str, ftype: str, where: str):
    if ftype == "string":
        return text
    if ftype == "integer":
        try:
            return int(text)
        except ValueError:
            raise TypeMismatch(f"{where}: '{text}' is not an integer") from None
    if ftype == "decimal":
        try:
            return Decimal(text)
        except InvalidOperation:
            raise TypeMismatch(f"{where}: '{text}' is not a decimal") from None
    try:
        return datetime.date.fromisoformat(text)
    except ValueError:
        raise TypeMismatch(f"{where}: '{text}' is not an ISO date") from None


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
    skipped, or abort the load under strict.  A load that raises leaves the
    collection as it was: the rows it inserted are removed again.
    """
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
            header = next(reader)
        except StopIteration:
            raise HeaderMismatch(f"{path}: empty file, expected a header row") from None
        expected = {f.name for f in concept.fields}
        if len(set(header)) != len(header) or set(header) != expected:
            raise HeaderMismatch(
                f"{path}: header {sorted(header)} does not match the fields of "
                f"'{collection}' {sorted(expected)}"
            )
        inserted = []  # rolled back when the load raises
        try:
            for row in reader:
                line = reader.line_num
                if not row:
                    continue
                if len(row) != len(header):
                    msg = f"row has {len(row)} values, expected {len(header)}"
                    if strict:
                        raise FileError(f"{path}:{line}: {msg}")
                    report.rejected.append((line, msg))
                    continue
                cells = {h: (None if v in ("", "NULL") else v) for h, v in zip(header, row)}
                try:
                    ident = []
                    for f in concept.identity_fields:
                        v = cells[f.name]
                        if v is None:
                            raise TypeMismatch(f"identity field {f.name} is empty")
                        ident.append(_parse_scalar(v, f.type, f"{collection}.{f.name}"))
                    entity = {}
                    for f in concept.entity_fields:
                        v = cells[f.name]
                        if v is None:
                            continue
                        if f.is_primitive:
                            entity[f.name] = _parse_scalar(v, f.type, f"{collection}.{f.name}")
                        else:
                            entity[f.name] = decode_identity(db.schema.concept(f.type), v)
                    inserted.append(model.insert_element(db, collection, tuple(ident), entity))
                    report.inserted += 1
                except DataError as e:
                    if strict:
                        raise FileError(f"{path}:{line}: {e}") from None
                    report.rejected.append((line, str(e)))
        except BaseException:
            for el in reversed(inserted):
                model.remove_element(db, collection, el.identity)
            raise
    if report.inserted:
        db.version += 1
    return report


def load_order(schema: model.Schema) -> list[str]:
    """Collections ordered so references always point at already loaded data."""
    remaining = {c: 0 for c in schema.concepts}
    dependents: dict[str, list[str]] = {c: [] for c in schema.concepts}
    for d in schema.dimensions:
        remaining[d.source] += 1
        dependents[d.destination].append(d.source)
    ready = sorted((c for c, k in remaining.items() if k == 0), reverse=True)
    order: list[str] = []
    while ready:
        c = ready.pop()
        order.append(c)
        changed = False
        for s in dependents[c]:
            remaining[s] -= 1
            if remaining[s] == 0:
                ready.append(s)
                changed = True
        if changed:
            ready.sort(reverse=True)
    return order


def load_data_dir(db: Database, directory, strict: bool = False):
    """Load every <Collection>.csv in a directory, greater collections first.

    Returns (reports, unmatched file names).  A load that raises leaves the
    database as it was: the files loaded before the failing one are removed
    again, in reverse load order.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileError(f"not a directory: {directory}")
    files = {p.stem: p for p in sorted(directory.glob("*.csv"))}
    reports = []
    version = db.version
    try:
        for name in load_order(db.schema):
            if name in files:
                reports.append(load_csv(db, name, files.pop(name), strict=strict))
    except BaseException:
        # the store is insert-only and keeps insertion order, so a file's
        # rows are the last ones of its collection
        for report in reversed(reports):
            elements = db.collections[report.collection].elements
            for ident in list(itertools.islice(reversed(elements), report.inserted)):
                model.remove_element(db, report.collection, ident)
        db.version = version
        raise
    return reports, sorted(files)


# --- execution --------------------------------------------------------------------


def _filter_collection(db, eset: ElementSet, predicate) -> ElementSet:
    elements = db.collections[eset.domain].elements
    return ElementSet(eset.domain, frozenset(i for i in eset.members if predicate(db, elements[i])))


def _run(db, anchor, steps) -> ElementSet:
    """The set an anchor stands for, moved through the steps in order."""
    if isinstance(anchor, CollectionAnchor):
        if anchor.seeks:
            eset = algebra.intersect_deprojections(
                [_run(db, seek.anchor, seek.steps) for seek in anchor.seeks])
        else:
            eset = algebra.full_set(db, anchor.collection)
        if anchor.predicate is not None:
            eset = _filter_collection(db, eset, anchor.predicate)
    elif isinstance(anchor, ProductAnchor):
        eset = algebra.product_members(db, anchor.product)
    elif isinstance(anchor, LiteralAnchor):
        eset = ElementSet(anchor.domain, frozenset(anchor.values))
    else:
        raise TypeError(f"not an anchor: {anchor!r}")

    for step in steps:
        if isinstance(step, PlanFilter):
            eset = _filter_collection(db, eset, step.predicate)
        elif isinstance(step, PlanProjectField):
            eset = algebra.project_values(db, eset, (), step.field)
        elif isinstance(step, PlanDeprojectValues):
            eset = algebra.deproject_values(db, step.owner, step.field.name, eset.members)
        elif isinstance(step, PlanRoute):
            eset = algebra.run_route(db, eset, step.route)
        else:
            raise TypeError(f"not a plan step: {step!r}")
    return eset


def execute(db, plan: QueryPlan) -> "ResultSet":
    """Run a resolved plan against a database.

    A collection anchor with seeks starts from the intersection of what
    they reach, and its predicate still decides which of those belong.
    """
    eset = _run(db, plan.anchor, plan.steps)
    return build_result(db, eset, tuple(dict.fromkeys(plan.warnings)))


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


@dataclass
class ResultSet:
    kind: str                  # collection | primitive | product
    tag: str                   # name of the domain the members live in
    columns: tuple[str, ...]
    rows: list[dict]
    identities: list
    members: ElementSet
    warnings: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.rows)


def build_result(db, eset: ElementSet, warnings: tuple[str, ...] = ()) -> ResultSet:
    domain = eset.domain
    if isinstance(domain, PrimitiveDomain):
        values = sorted(eset.members)
        rows = [{domain.field: v} for v in values]
        return ResultSet("primitive", str(domain), (domain.field,), rows, values,
                         eset, warnings)
    if isinstance(domain, ProductCollection):
        members = sorted(eset.members)
        aliases = tuple(a for a, _ in domain.factors)
        rows = [dict(zip(aliases, m)) for m in members]
        return ResultSet("product", domain.name, aliases, rows, members, eset, warnings)
    elements = db.collections[domain].elements
    columns = tuple(f.name for f in db.schema.concept(domain).fields)
    identities = sorted(eset.members)
    rows = [dict(zip(columns, ident + elements[ident].values)) for ident in identities]
    return ResultSet("collection", domain, columns, rows, identities, eset, warnings)


def _cell(v, null: str) -> str:
    if v is None:
        return null
    if isinstance(v, tuple):
        return encode_identity(v)
    return encode_scalar(v)


def render_table(rs: ResultSet) -> str:
    header = list(rs.columns)
    body = [[_cell(row[c], "NULL") for c in rs.columns] for row in rs.rows]
    widths = [len(h) for h in header]
    for line in body:
        for k, cell in enumerate(line):
            widths[k] = max(widths[k], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(header), fmt("-" * w for w in widths)]
    lines.extend(fmt(line) for line in body)
    n = len(rs.rows)
    lines.append(f"({n} row{'' if n == 1 else 's'})")
    return "\n".join(lines)


def render_csv(rs: ResultSet) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(rs.columns)
    for row in rs.rows:
        w.writerow([_cell(row[c], "") for c in rs.columns])
    return buf.getvalue().rstrip("\n")


def _json_value(v):
    if v is None or isinstance(v, (str, int)):
        return v
    if isinstance(v, tuple):
        return encode_identity(v)
    return encode_scalar(v)  # Decimal and date render as strings


def render_json(rs: ResultSet) -> str:
    lines = []
    for row, ident in zip(rs.rows, rs.identities):
        obj = {c: _json_value(row[c]) for c in rs.columns}
        if rs.kind == "collection":
            obj["_identity"] = encode_identity(ident)
        elif rs.kind == "product":
            obj["_identity"] = "(" + ",".join(encode_identity(i) for i in ident) + ")"
        else:
            obj["_identity"] = encode_scalar(ident)
        lines.append(json.dumps(obj, ensure_ascii=False))
    return "\n".join(lines)


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
    lesser concept under its greater, annotated with the dimension name."""
    lines: list[str] = []

    def walk(name: str, depth: int, via: str | None) -> None:
        label = name if via is None else f"{name} ({via})"
        lines.append("  " * depth + label)
        for d in schema._by_destination[name]:
            walk(d.source, depth + 1, d.name)

    maximal = sorted(c for c in schema.concepts if not schema.dimensions_from(c))
    for name in maximal:
        walk(name, 0, None)
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
