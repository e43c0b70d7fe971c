"""Brute-force reference implementation the engine is checked against.

Everything here works from one primitive: the element-level reachability
closure (which greater elements an element can reach through its
references, transitively).  Star operations and inference are answered by
scanning those closures, never by enumerating dimension paths, so a defect
in the engine's path machinery cannot hide in the oracle.

Predicates are checked the same way: o_holds evaluates the parsed syntax
tree on one element, reading values by following the references the
elements hold, never through the resolver or the reference columns.

Elements are read through model.Element, the view of one stored row.

Also holds the seeded random schema/instance generator used by the
randomized comparison tests, and the earlier row-at-a-time loader,
renderers and character-at-a-time tokenizer that the staged loader, the
column-wise renderers and the regular-expression lexer must match.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
import operator
import random
import re
from decimal import Decimal, InvalidOperation

from comdb import algebra, engine, model
from comdb.coql import ast
from comdb.coql.lexer import KEYWORDS, OPERATORS
from comdb.errors import (DanglingReference, DataError, DuplicateIdentity, FileError,
                          HeaderMismatch, LexError, NullViolation, TypeMismatch)

Key = tuple  # (collection name, identity)


def views(db, collection: str) -> dict:
    """{identity: Element} over every stored element of a collection, in row order."""
    coll = db.collections[collection]
    return {ident: model.Element(coll, row) for ident, row in coll.elements.items()}


def reach_closure(db) -> dict:
    """For every element key, the set of strictly greater element keys."""
    memo: dict[Key, frozenset] = {}

    def walk(key: Key) -> frozenset:
        got = memo.get(key)
        if got is not None:
            return got
        memo[key] = frozenset()  # DAG: placeholder never observed on a cycle
        cname, ident = key
        el = db.collections[cname].element(ident)
        acc: set = set()
        for f in db.collections[cname].concept.reference_fields:
            ref = el.entity[f.name]
            if ref is None:
                continue
            up = (f.type, ref)
            acc.add(up)
            acc |= walk(up)
        memo[key] = frozenset(acc)
        return memo[key]

    for cname, coll in db.collections.items():
        for ident in coll.elements:
            walk((cname, ident))
    return memo


def concept_below(db) -> dict:
    """Strict lesser-than over a database's concepts; see o_closures."""
    return o_closures(db.schema.concepts.values())


def o_closures(concepts) -> dict:
    """Strict order over concepts, by transitive closure of references.

    {"above": ..., "below": ...}, each mapping a concept name to a set: the
    concepts it reaches through references, to a fixpoint, and the concepts
    reaching it.  On a cycle a concept reaches itself.
    """
    names = [c.name for c in concepts]
    less = {a: set() for a in names}  # less[a] = concepts strictly greater than a
    for c in concepts:
        for f in c.reference_fields:
            less[c.name].add(f.type)
    changed = True
    while changed:
        changed = False
        for a in names:
            extra = set()
            for b in less[a]:
                extra |= less[b]
            if not extra <= less[a]:
                less[a] |= extra
                changed = True
    below = {a: {b for b in names if a in less[b]} for a in names}
    return {"above": less, "below": below}


def load_order(above: dict) -> list[str]:
    """Concepts in the order a load stores them, by rescanning for each one placed.

    Of the concepts not yet placed whose greater ones all are, the first by
    name goes next, until none can: a concept on a cycle or below one is
    never placed.  above is o_closures' "above".
    """
    order: list[str] = []
    while True:
        placed = set(order)
        ready = [c for c in above if c not in placed and above[c] <= placed]
        if not ready:
            return order
        order.append(min(ready))


def o_star_project(db, reach, source: str, members, target: str) -> frozenset:
    if source == target:
        return frozenset(members)
    out = set()
    for ident in members:
        for cname, up in reach[(source, ident)]:
            if cname == target:
                out.add(up)
    return frozenset(out)


def o_star_deproject(db, reach, source: str, members, target: str) -> frozenset:
    if source == target:
        return frozenset(members)
    wanted = {(source, i) for i in members}
    out = set()
    for ident in db.collections[target].elements:
        if reach[(target, ident)] & wanted:
            out.add(ident)
    return frozenset(out)


def o_project(db, source: str, members, dim_names) -> tuple[str, frozenset]:
    """Naive per-element chase along named dimensions."""
    out = set()
    for ident in members:
        cur = ident
        coll = source
        ok = True
        for name in dim_names:
            el = db.collections[coll].element(cur)
            ref = el.entity[name]
            if ref is None:
                ok = False
                break
            coll = db.collections[coll].concept.field(name).type
            cur = ref
        if ok:
            out.add(cur)
    dest = source
    for name in dim_names:
        dest = db.schema.concepts[dest].field(name).type
    return dest, frozenset(out)


def o_deproject(db, source: str, members, dim_names, target: str) -> frozenset:
    """All target elements whose chase along dim_names lands in members."""
    out = set()
    for ident in db.collections[target].elements:
        cur = ident
        coll = target
        ok = True
        for name in dim_names:
            el = db.collections[coll].element(cur)
            ref = el.entity[name]
            if ref is None:
                ok = False
                break
            coll = db.collections[coll].concept.field(name).type
            cur = ref
        if ok and cur in members:
            out.add(ident)
    return frozenset(out)


def o_common_lessers(db, a: str, b: str) -> list[str]:
    rel = concept_below(db)
    common = rel["below"][a] & rel["below"][b]
    return sorted(c for c in common if not (rel["above"][c] & common))


def o_infer(db, reach, source: str, members, target: str):
    """The routing contract, answered through closures.

    Returns (members, warned) where warned marks the full-target fallback.
    """
    if source == target:
        return frozenset(members), False
    rel = concept_below(db)
    if target in rel["above"][source]:
        return o_star_project(db, reach, source, members, target), False
    if target in rel["below"][source]:
        return o_star_deproject(db, reach, source, members, target), False
    commons = o_common_lessers(db, source, target)
    if not commons:
        return frozenset(db.collections[target].elements), True
    out = set()
    for via in commons:
        down = o_star_deproject(db, reach, source, members, via)
        out |= o_star_project(db, reach, via, down, target)
    return frozenset(out), False


# --- predicates ------------------------------------------------------------------

_CMP = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def o_holds(db, el, pred, alias: str | None = None) -> bool:
    """Evaluate a parsed predicate on one element.

    Two-valued: a comparison touching NULL, or one Python cannot make, is
    false, and NOT applies after that.  A literal is read as _o_literal
    reads it.  A path may start with the element's alias; the bare alias is
    the element's identity.
    """
    if isinstance(pred, ast.Not):
        return not o_holds(db, el, pred.item, alias)
    if isinstance(pred, ast.And):
        return all(o_holds(db, el, p, alias) for p in pred.items)
    if isinstance(pred, ast.Or):
        return any(o_holds(db, el, p, alias) for p in pred.items)
    a, a_ref = _o_term(db, el, pred.left, alias)
    b, b_ref = _o_term(db, el, pred.right, alias)
    if isinstance(pred.left, ast.Literal):
        a = _o_literal(a, b, b_ref)
    if isinstance(pred.right, ast.Literal):
        b = _o_literal(b, a, a_ref)
    if a is None or b is None:
        return False
    try:
        return bool(_CMP[pred.op](a, b))
    except TypeError:
        return False


def _o_literal(value, other, other_ref: bool):
    """A literal's value as compared with the other side's value.

    Compared with a reference it stands for the single-field identity it
    names; an ISO date string compared with a DATE stands for that date.
    """
    if value is None:
        return None
    if isinstance(value, str) and isinstance(other[0] if other_ref and other else other,
                                             datetime.date):
        value = _o_date(value)
    return (value,) if other_ref else value


def _o_date(text: str) -> datetime.date:
    """A DATE text is YYYY-MM-DD, on every Python; ValueError for any other."""
    if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
        raise ValueError(text)
    return datetime.date.fromisoformat(text)


def _o_term(db, el, term, alias=None):
    """(value, whether the value is a reference) of one side of a comparison."""
    if isinstance(term, ast.Literal):
        return term.value, False
    if isinstance(term, ast.AggTerm):
        lessers = [m for m in views(db, term.collection).values()
                   if m.entity[term.dim] == el.identity
                   and (term.predicate is None or o_holds(db, m, term.predicate))]
        if term.func == "COUNT":
            return len(lessers), False
        values = (o_path(db, m, term.path)[0] for m in lessers)
        return sum(v for v in values if v is not None), False
    parts = term.parts
    if alias is not None and parts[0] == alias:
        parts = parts[1:]
    return o_path(db, el, parts)


def o_path(db, el, parts):
    """(value, whether it is a reference) of a field path read off el."""
    concept = db.schema.concept(el.collection)
    at = el  # the element reached so far; None (and value None) after a NULL hop
    value, ref = el.identity, True
    for part in parts:
        f = concept.field(part)
        keys = [k.name for k in concept.identity_fields]
        if at is not None:
            value = at.identity[keys.index(part)] if part in keys else at.entity[part]
        ref = not f.is_primitive
        if ref:
            concept = db.schema.concept(f.type)
            at = None if value is None else db.collections[f.type].element(value)
    return value, ref


# --- random schemas and instances ---------------------------------------------


def ladder_db(rungs: int, paths_apart: bool = False,
              rng: random.Random | None = None, size: int = 6) -> engine.Database:
    """A diamond ladder: N0 < L0, R0 < N1 < ... < N{rungs}, plus N0.s into S.

    Each rung doubles the dimension paths from N0 up to N{rungs}, and S meets
    N{rungs} only at N0, so '<-*->' between them needs the whole ladder.
    With paths_apart, element k of every concept exists for each of the
    2^rungs paths, and N0's element k holds only the references along path
    k (bit i of k picks r at rung i), so every path links a different
    bottom element to a different top element.  Otherwise each concept gets
    `size` elements with references drawn from rng, about one in ten NULL.
    """
    parts = [f"CONCEPT N{rungs} IDENTITY id INT;", "CONCEPT S IDENTITY id INT;"]
    for i in range(rungs - 1, -1, -1):
        for side in "LR":
            parts.append(f"CONCEPT {side}{i} IDENTITY id INT ENTITY n N{i + 1};")
        extra = ", s S" if i == 0 else ""
        parts.append(f"CONCEPT N{i} IDENTITY id INT ENTITY l L{i}, r R{i}{extra};")
    db = engine.Database()
    engine.load_schema(db, "\n".join(parts))
    n = 2 ** rungs if paths_apart else size

    def pick():
        k = rng.randrange(n)
        return None if rng.random() < 0.1 else k

    for k in range(n):
        db.insert(f"N{rungs}", k)
        db.insert("S", k)
    for i in range(rungs - 1, -1, -1):
        for k in range(n):
            for side in "LR":
                db.insert(f"{side}{i}", k, {"n": k if paths_apart else pick()})
        for k in range(n):
            if paths_apart:
                entity = {"r" if (k >> i) & 1 else "l": k, "s": k}
            else:
                entity = {"l": pick(), "r": pick(), "s": pick()}
            if i > 0:
                del entity["s"]
            db.insert(f"N{i}", k, entity)
    return db



RICH_IDENTITIES = ("id INT", "id DECIMAL", "id INT, k CHAR(6)", "id INT, d DATE",
                   "id INT, x DECIMAL")
RICH_VALUES = ("INT", "DECIMAL", "DATE", "CHAR(8)")


def random_schema_text(rng: random.Random, max_concepts: int = 6,
                       max_dims: int = 4, nullable_refs: bool = True,
                       value_type: str = "INT", rich: bool = False) -> str:
    """A random DAG schema: concept Ci may only reference Cj with j > i.

    Some concepts get a field v of value_type (INT or DECIMAL).  With rich,
    an identity may be DECIMAL or composite (RICH_IDENTITIES), and a concept
    may get fields w0, w1 of RICH_VALUES types, some NOT NULL; without it,
    rng is drawn from exactly as before rich existed.
    """
    n = rng.randint(2, max_concepts)
    parts = []
    for i in range(n):
        fields = []
        higher = list(range(i + 1, n))
        k = rng.randint(0, min(max_dims, len(higher))) if higher else 0
        for d in range(k):
            dest = rng.choice(higher)
            null = " NOT NULL" if (not nullable_refs or rng.random() < 0.5) else ""
            fields.append(f"d{d} C{dest}{null}")
        if rng.random() < 0.5:
            fields.append(f"v {value_type}")
        identity = "id INT"
        if rich:
            identity = rng.choice(RICH_IDENTITIES)
            for w, t in enumerate(rng.sample(RICH_VALUES, rng.randint(0, 2))):
                fields.append(f"w{w} {t}{' NOT NULL' if rng.random() < 0.3 else ''}")
        entity = f" ENTITY {', '.join(fields)}" if fields else ""
        parts.append(f"CONCEPT C{i} IDENTITY {identity}{entity};")
    return "\n".join(parts)


def rich_value(ftype: str, v: int):
    """A value of a primitive type made from an int; distinct ints give distinct values."""
    if ftype == "integer":
        return v
    if ftype == "decimal":
        return Decimal(v) / 4
    if ftype == "date":
        return datetime.date.fromordinal(730_000 + v)
    return f"s{v},\n\"(" if v % 7 == 3 else f"s{v}"  # now and then a comma, break and quote


def random_db(rng: random.Random, max_concepts: int = 6, max_dims: int = 4,
              max_elements: int = 200, nullable_refs: bool = True,
              value_type: str = "INT", rich: bool = False) -> engine.Database:
    """A random_schema_text instance; a DECIMAL v holds halves of 0..50.

    value_type draws nothing from rng, so a seed gives the same shapes
    and references with INT and DECIMAL values.  With rich, element k's
    identity is rich_value(type, k) in each identity field.
    """
    db = engine.Database()
    engine.load_schema(db, random_schema_text(rng, max_concepts, max_dims, nullable_refs,
                                              value_type, rich))
    names = list(db.schema.concepts)
    budget = rng.randint(len(names), max_elements)
    sizes = {c: 1 for c in names}  # non-empty so NOT NULL refs always resolve
    for _ in range(budget - len(names)):
        sizes[rng.choice(names)] += 1
    # higher-indexed concepts are greater; load them first
    for cname in sorted(names, key=lambda s: -int(s[1:])):
        concept = db.schema.concepts[cname]
        for i in range(sizes[cname]):
            entity = {}
            for f in concept.entity_fields:
                if not f.is_primitive:
                    pool = list(db.collections[f.type].elements)
                    if f.nullable and rng.random() < 0.25:
                        continue
                    entity[f.name] = rng.choice(pool)
                elif not f.nullable or rng.random() < 0.8:
                    v = rng.randint(0, 50)
                    entity[f.name] = rich_value(f.type, v) if rich else (
                        v if f.type == "integer" else Decimal(v) / 2)
            ident = i
            if rich:
                ident = tuple(rich_value(f.type, i) for f in concept.identity_fields)
            db.insert(cname, ident, entity)
    return db


def random_members(rng: random.Random, db, collection: str) -> frozenset:
    pool = list(db.collections[collection].elements)
    if not pool:
        return frozenset()
    k = rng.randint(0, len(pool))
    return frozenset(rng.sample(pool, k))


# --- the row-at-a-time loader ---------------------------------------------------------
#
# CSV ingest as it was before loads were staged: each row is parsed and
# inserted as it is read, and written into the columns one cell at a time.
# The staged loader must agree with it on every file: rows inserted,
# rejected lines and messages, a strict load's error, and what is stored
# (compared by stored, which decodes the column layout into identity-keyed
# maps, and by layout, which copies it row by row).  It keeps no rollback:
# after a failed strict load only the error text is compared.


def o_parse_scalar(text: str, ftype: str, where: str):
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
        return _o_date(text)
    except ValueError:
        raise TypeMismatch(f"{where}: '{text}' is not an ISO date") from None


def o_insert(db, collection: str, identity, entity_values) -> None:
    """Check one row and write it straight into the store, one cell at a time."""
    coll = db.collections[collection]
    concept = coll.concept
    ident = model.make_identity(concept, identity)
    if ident in coll.elements:
        raise DuplicateIdentity(f"element {ident!r} already exists in '{collection}'")
    cells = {}
    for f in concept.entity_fields:
        raw = entity_values.get(f.name)
        if raw is None:
            if not f.nullable:
                raise NullViolation(f"field {concept.name}.{f.name} cannot be NULL")
            cells[f.name] = None if f.is_primitive else -1
        elif f.is_primitive:
            cells[f.name] = model.coerce_primitive(raw, f.type, f"{concept.name}.{f.name}")
        else:
            ref = model.make_identity(db.schema.concept(f.type), raw)
            greater = db.collections[f.type].elements.get(ref)
            if greater is None:
                raise DanglingReference(
                    f"{concept.name}.{f.name} references missing element {ref!r} of '{f.type}'"
                )
            cells[f.name] = greater
    row = len(coll.ids)
    if row and not ident > coll.ids[-1]:
        coll.ordered = False
    coll.ids.append(ident)
    for f, v in zip(concept.identity_fields, ident):
        coll.columns[f.name].append(v)
    for name, v in cells.items():
        coll.columns[name].append(v)
    coll.elements[ident] = row
    for lessers in coll.reverse.values():
        lessers.append([])
    for f in concept.reference_fields:
        if cells[f.name] >= 0:
            dim = db.schema.dimension(concept.name, f.name)
            db.collections[f.type].reverse[dim][cells[f.name]].append(row)


def o_decode_identity(concept, text: str) -> tuple:
    fields = concept.identity_fields
    if len(fields) == 1:
        return (o_parse_scalar(text, fields[0].type, f"{concept.name}.{fields[0].name}"),)
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
    return tuple(o_parse_scalar(comp.replace("((", "(").replace("))", ")"), f.type,
                                f"{concept.name}.{f.name}")
                 for f, comp in zip(fields, raw))


def o_load_csv(db, collection: str, path, strict: bool = False) -> engine.IngestReport:
    coll = db.collections[collection]
    concept = coll.concept
    report = engine.IngestReport(collection, str(path))
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
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
                    ident.append(o_parse_scalar(v, f.type, f"{collection}.{f.name}"))
                entity = {}
                for f in concept.entity_fields:
                    v = cells[f.name]
                    if v is None:
                        continue
                    if f.is_primitive:
                        entity[f.name] = o_parse_scalar(v, f.type, f"{collection}.{f.name}")
                    else:
                        entity[f.name] = o_decode_identity(db.schema.concept(f.type), v)
                o_insert(db, collection, tuple(ident), entity)
                report.inserted += 1
            except DataError as e:
                if strict:
                    raise FileError(f"{path}:{line}: {e}") from None
                report.rejected.append((line, str(e)))
    if report.inserted:
        db.version += 1
    return report


def o_load_data_dir(db, directory, strict: bool = False):
    files = {p.stem: p for p in sorted(directory.glob("*.csv"))}
    reports = []
    for name in db.schema.order:
        if name in files:
            reports.append(o_load_csv(db, name, files.pop(name), strict=strict))
    return reports, sorted(files)


def stored(db) -> dict:
    """Everything a load writes, per collection, keyed by identity whatever the rows.

    Elements as {identity: values}, forward maps as {identity: referenced
    identity or None} and reverse indexes as {greater identity: (set of
    lesser identities, list length)}, holding only referenced elements.
    Checks the column layout on the way: identity -> row is each identity's
    place in ids, every column and reverse list is as long as the
    collection, an identity field's column holds that component of ids,
    and ordered holds exactly when the identities ascend row by row.
    """
    out = {}
    for name, coll in db.collections.items():
        concept, idents = coll.concept, coll.ids
        assert coll.elements == {ident: row for row, ident in enumerate(idents)}, name
        assert coll.ordered == all(a < b for a, b in zip(idents, idents[1:])), name
        assert list(coll.columns) == [f.name for f in concept.fields], name
        assert all(len(column) == len(idents) for column in coll.columns.values()), name
        for k, f in enumerate(concept.identity_fields):
            assert coll.columns[f.name] == [ident[k] for ident in idents], (name, f.name)
        forward = {}
        for f in concept.reference_fields:
            dest = db.collections[f.type].ids
            forward[f.name] = {i: None if g < 0 else dest[g]
                               for i, g in zip(idents, coll.columns[f.name])}
        reverse = {}
        for d, lessers in coll.reverse.items():
            assert len(lessers) == len(idents), (name, d)
            source = db.collections[d.source].ids
            reverse[d] = {i: (frozenset(source[r] for r in ls), len(ls))
                          for i, ls in zip(idents, lessers) if ls}
        values = {ident: tuple(forward[f.name][ident] if f.name in forward
                               else coll.columns[f.name][row] for f in concept.entity_fields)
                  for row, ident in enumerate(idents)}
        out[name] = (values, forward, reverse)
    return out


def layout(db) -> dict:
    """The store as it lies, row by row, and every Element view read back.

    Per collection: ids, every column, the reverse lists,
    identity -> row and ordered, copied; and for each row its view's
    collection, identity, values, entity and row.  Two databases given the
    same writes in the same order lay them out equally.
    """
    out = {}
    for name, coll in db.collections.items():
        seen = [model.Element(coll, row) for row in range(len(coll))]
        out[name] = {
            "ids": list(coll.ids),
            "columns": {k: list(column) for k, column in coll.columns.items()},
            "reverse": {d: [list(ls) for ls in lessers] for d, lessers in coll.reverse.items()},
            "elements": dict(coll.elements),
            "ordered": coll.ordered,
            "views": [(el.collection, el.identity, el.values, el.entity, el.row) for el in seen],
        }
    return out


# --- the row-at-a-time renderers ------------------------------------------------------
#
# Rendering as it was before results were held column-wise: every row is a
# dict, and every cell picks its encoding from its python type.  The
# column-wise renderers must print the same text, byte for byte.


def _o_cell(v, null: str) -> str:
    if v is None:
        return null
    if isinstance(v, tuple):
        return engine.encode_identity(v)
    return engine.encode_scalar(v)


def o_render_table(rs) -> str:
    header = list(rs.columns)
    body = [[_o_cell(row[c], "NULL") for c in rs.columns] for row in rs.rows]
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


def o_render_csv(rs) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(rs.columns)
    for row in rs.rows:
        w.writerow([_o_cell(row[c], "") for c in rs.columns])
    return buf.getvalue().rstrip("\n")


def _o_json_value(v):
    if v is None or isinstance(v, (str, int)):
        return v
    if isinstance(v, tuple):
        return engine.encode_identity(v)
    return engine.encode_scalar(v)  # Decimal and date render as strings


def o_render_json(rs) -> str:
    lines = []
    for row, ident in zip(rs.rows, rs.identities):
        obj = {c: _o_json_value(row[c]) for c in rs.columns}
        if rs.kind == "collection":
            obj["_identity"] = engine.encode_identity(ident)
        elif rs.kind == "product":
            obj["_identity"] = "(" + ",".join(engine.encode_identity(i) for i in ident) + ")"
        else:
            obj["_identity"] = engine.encode_scalar(ident)
        lines.append(json.dumps(obj, ensure_ascii=False))
    return "\n".join(lines)


def o_rows(db, eset) -> list[dict]:
    """A result's rows built eagerly, as build_result built them."""
    domain = eset.domain
    members = sorted(eset.members)
    if isinstance(domain, str):
        concept = db.schema.concept(domain)
        names = [f.name for f in concept.fields]
        coll = db.collections[domain]
        return [dict(zip(names, ident + coll.element(ident).values)) for ident in members]
    if isinstance(domain, algebra.ProductCollection):
        return [dict(zip((a for a, _ in domain.factors), m)) for m in members]
    return [{domain.field: v} for v in members]


# --- the character-at-a-time tokenizer ------------------------------------------------
#
# The lexer as it was before it became one regular expression: it walks the
# text one character at a time and counts lines and columns as it goes.  The
# lexer must give the same (kind, value, line, column) tuples or raise the
# same error, and split the same statements, on every text.

_O_DIGITS = "0123456789"


def _o_digit_at(text: str, i: int) -> bool:
    return i < len(text) and text[i] in _O_DIGITS


def _o_digits(text: str, i: int) -> int:
    while _o_digit_at(text, i):
        i += 1
    return i


def o_tokenize(text: str) -> list[tuple]:
    tokens: list[tuple] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                advance(1)
            continue
        if ch in "'\"":
            quote = ch
            start_line, start_col = line, col
            advance(1)
            chunks: list[str] = []
            while True:
                if i >= n:
                    raise LexError("unterminated string", start_line, start_col)
                if text[i] == quote:
                    if i + 1 < n and text[i + 1] == quote:
                        chunks.append(quote)
                        advance(2)
                        continue
                    advance(1)
                    break
                chunks.append(text[i])
                advance(1)
            tokens.append(("STRING", "".join(chunks), start_line, start_col))
            continue
        if ch in _O_DIGITS or (ch == "-" and _o_digit_at(text, i + 1)):
            start_line, start_col = line, col
            j = _o_digits(text, i + 1)
            kind = "INTEGER"
            if text.startswith(".", j) and _o_digit_at(text, j + 1):
                j, kind = _o_digits(text, j + 1), "DECIMAL"
            if text[j:j + 1] in ("e", "E"):
                k = j + 1 + text.startswith(("+", "-"), j + 1)
                if _o_digit_at(text, k):
                    j, kind = _o_digits(text, k), "DECIMAL"
            try:
                value: object = int(text[i:j]) if kind == "INTEGER" else Decimal(text[i:j])
            except (ValueError, ArithmeticError):
                raise LexError("number literal out of range", line, col) from None
            advance(j - i)
            tokens.append((kind, value, start_line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start_line, start_col = line, col
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            advance(j - i)
            upper = word.upper()
            if word.isascii() and upper in KEYWORDS:
                tokens.append((upper, upper, start_line, start_col))
            else:
                tokens.append(("IDENT", word, start_line, start_col))
            continue
        for op, kind, canon in OPERATORS:
            if text.startswith(op, i):
                tokens.append((kind, canon, line, col))
                advance(len(op))
                break
        else:
            raise LexError(f"unexpected character {ch!r}", line, col)
    tokens.append(("EOF", None, line, col))
    return tokens


def o_split_statements(text: str) -> list[str]:
    parts: list[str] = []
    buf: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in "'\"":
            quote = ch
            buf.append(ch)
            i += 1
            while i < n:
                buf.append(text[i])
                if text[i] == quote:
                    if i + 1 < n and text[i + 1] == quote:
                        buf.append(text[i + 1])
                        i += 2
                        continue
                    i += 1
                    break
                i += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                buf.append(text[i])
                i += 1
            continue
        if ch == ";":
            parts.append("".join(buf))
            buf = []
            i += 1
            continue
        buf.append(ch)
        i += 1
    parts.append("".join(buf))
    return [p for p in (s.strip() for s in parts) if not _o_only_comments(p)]


def _o_only_comments(fragment: str) -> bool:
    i, n = 0, len(fragment)
    while i < n:
        if fragment[i].isspace():
            i += 1
        elif fragment.startswith("//", i):
            while i < n and fragment[i] != "\n":
                i += 1
        else:
            return False
    return True
