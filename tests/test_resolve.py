"""Resolution outcomes pinned by statement, and resolution that never fails bare.

The table pins, for each way the resolver rejects a chain, the error class
and its full text with line and column, including which error wins when a
query has several faults; the plans pin what explain lists, such as where
a target's filter lands.  The seeded sweep builds statements from each
fixture's own names and checks that every one either plans or raises a
ComdbError, and that a plan bound to a kept shape explains, answers and
raises as one resolved afresh.
"""

import collections
import dataclasses
import datetime
import random

import pytest

from conftest import load_fixture
from comdb import engine
from comdb.algebra import ProductCollection
from comdb.coql import ast, lexer, resolver
from comdb.coql.resolver import resolve
from comdb.coql.parser import parse_query
from comdb.errors import ComdbError, ResolveError, SchemaError, UnknownCollection
from comdb.model import FieldSpec

PRODUCTS = {
    "catalog": "D = (Books b, Addresses a)",
    "colors": "D = (X x, Y y)",
    "dated": "D = (Days d, Rooms r)",
    "library": "D = (Writers w, Publishers p)",
    "market": "D = (Writers w, Shops s)",
}

# DATE fields, as an identity, an entity field and through a reference
_DATED = """
    CONCEPT Days IDENTITY day DATE ENTITY note CHAR(8);
    CONCEPT Rooms IDENTITY name CHAR(8) ENTITY opened DATE;
    CONCEPT Slots IDENTITY id INT ENTITY day Days, room Rooms, ends DATE;
"""


def _db(name: str) -> engine.Database:
    if name == "parallel":
        db = engine.Database()
        engine.load_schema(db, """
            CONCEPT Grades IDENTITY g CHAR(1);
            CONCEPT Reviews IDENTITY id INT ENTITY first Grades, second Grades;
        """)
        return db
    if name == "dated":
        db = engine.Database()
        engine.load_schema(db, _DATED)
        for k, day in enumerate(("2001-01-01", "2001-01-02", "2024-02-29")):
            db.insert("Days", day, {"note": "x"})
            db.insert("Rooms", f"r{k}", {"opened": day})
            db.insert("Slots", k, {"day": day, "room": f"r{k}", "ends": day})
    else:
        db = load_fixture(name)
    engine.execute_statement(db, PRODUCTS[name])
    return db


def outcome(db, text: str) -> tuple[str, str]:
    """(error class, its text) for a rejected query, ("plan", explain text) for one that plans."""
    try:
        return ("plan", db.explain(text))
    except ComdbError as e:
        return (type(e).__name__, str(e))


_UNIQUE_PATH_NOTE = "'<-*->' routes through common lesser collections"
_UNKNOWN_ALIAS = "line 1, column {}: path 'nope' must start with a factor alias (p, w)"

# (fixture, statement, error class or "plan", error text or explain text)
OUTCOMES = [
    # the anchor
    ("library", "(D w)", "ResolveError", "line 1, column 2: a product collection cannot take an alias"),
    ("library", "(Nope)", "UnknownCollection", "line 1, column 2: unknown collection 'Nope'"),
    ("library", "(Books b, Nope n)", "UnknownCollection", "line 1, column 11: unknown collection 'Nope'"),
    ("library", "(Books b, Writers b)", "DuplicateAlias",
     "line 1, column 11: alias 'b' used twice in product '(Books b, Writers b)'"),
    ("library", "(Books b, Writers b | b.title == 'x')", "ResolveError",
     "line 1, column 23: no field 'title' on concept 'Writers'"),
    ("library", "(Nope | x == 1) -> nope", "UnknownCollection", "line 1, column 2: unknown collection 'Nope'"),
    ("library", "(Books | nope == 1) -> (Nope)", "ResolveError", "line 1, column 10: no field 'nope' on concept 'Books'"),
    # '->'
    ("library", "(Books) -> (D)", "ResolveError", "line 1, column 9: use '<-*' to reach a product collection"),
    ("library", "(Books) -> publisher -> (D)", "ResolveError",
     "line 1, column 9: use '<-*' to reach a product collection"),
    ("library", "(Books) -> (D | nope == 1)", "UnknownAlias", _UNKNOWN_ALIAS.format(17)),
    ("library", "(Books) -> (Nope)", "UnknownCollection", "line 1, column 13: unknown collection 'Nope'"),
    ("library", "(Books) -> publisher -> (Nope)", "UnknownCollection", "line 1, column 26: unknown collection 'Nope'"),
    ("library", "(Books) -> nope", "UnknownDimension", "line 1, column 9: no dimension or field 'nope' on 'Books'"),
    ("library", "(Books) -> nope -> (Nope)", "UnknownDimension",
     "line 1, column 9: no dimension or field 'nope' on 'Books'"),
    ("library", "(Books) -> title -> address", "ResolveError",
     "line 1, column 9: 'Books.title' is primitive and ends the chain"),
    ("library", "(Books) -> title -> (Nope)", "ResolveError",
     "line 1, column 9: 'Books.title' is primitive and ends the chain"),
    ("library", "(Books) -> publisher -> (Books)", "ResolveError",
     "line 1, column 9: 'publisher' arrives at 'Publishers', not 'Books'"),
    ("library", "(D) -> (Books)", "ResolveError", "line 1, column 5: projection from a product names a factor alias first"),
    ("library", "(D) -> x", "UnknownDimension", "line 1, column 5: 'x' is not a factor alias (p, w)"),
    ("library", "(D) -> w -> nope", "UnknownDimension", "line 1, column 5: no dimension or field 'nope' on 'Writers'"),
    ("library", "(Books) -> (Writers)", "NoPath",
     f"line 1, column 9: no path between 'Books' and 'Writers'; {_UNIQUE_PATH_NOTE}"),
    ("library", "(Books) -> Writers", "NoPath",
     f"line 1, column 9: no path between 'Books' and 'Writers'; {_UNIQUE_PATH_NOTE}"),
    ("parallel", "(Reviews) -> (Grades)", "AmbiguousPath",
     "line 1, column 11: multiple paths between 'Reviews' and 'Grades', such as first and second; "
     "name the dimensions"),
    ("parallel", "(Reviews) -> Grades", "AmbiguousPath",
     "line 1, column 11: multiple paths between 'Reviews' and 'Grades', such as first and second; "
     "name the dimensions"),
    # '<-'
    ("library", "(D) <- book", "ResolveError", "line 1, column 5: '<-' cannot start from product 'D'"),
    ("library", "(D) <- (Books)", "ResolveError", "line 1, column 5: '<-' cannot start from product 'D'"),
    ("library", "(D) <- nope <- (Nope)", "ResolveError", "line 1, column 5: '<-' cannot start from product 'D'"),
    ("library", "(Publishers) <- (D)", "ResolveError", "line 1, column 14: use '<-*' to reach a product collection"),
    ("library", "(Publishers) <- publisher <- (D)", "ResolveError",
     "line 1, column 14: use '<-*' to reach a product collection"),
    ("library", "(Publishers) <- publisher <- (D x)", "ResolveError",
     "line 1, column 31: a product collection cannot take an alias"),
    ("library", "(Publishers) <- (Nope)", "UnknownCollection", "line 1, column 18: unknown collection 'Nope'"),
    ("library", "(Addresses) <- nope <- (Nope)", "UnknownCollection", "line 1, column 25: unknown collection 'Nope'"),
    ("library", "(Publishers) <- nope <- (Books)", "UnknownDimension", "line 1, column 14: no dimension 'nope' on 'Books'"),
    ("library", "(Addresses) <- publisher <- (Books)", "ResolveError",
     "line 1, column 13: 'publisher <- (Books)' arrives at 'Publishers', not 'Addresses'"),
    ("library", "(Publishers) <- nope", "UnknownDimension",
     "line 1, column 14: no dimension 'nope' arrives at 'Publishers'"),
    ("library", "(Books) <- title", "UnknownDimension", "line 1, column 9: no dimension 'title' arrives at 'Books'"),
    ("market", "(Books) <- book", "AmbiguousPath",
     "line 1, column 9: dimension 'book' arrives at 'Books' from several collections (Sellers, WriterBooks); "
     "finish with one in parentheses"),
    ("library", "(Publishers) <- (Writers)", "NoPath",
     f"line 1, column 14: no path between 'Writers' and 'Publishers'; {_UNIQUE_PATH_NOTE}"),
    ("parallel", "(Grades) <- (Reviews)", "AmbiguousPath",
     "line 1, column 10: multiple paths between 'Reviews' and 'Grades', such as first and second; "
     "name the dimensions"),
    # a chain that already ended, for every kind of step
    ("library", "(Books) -> title -> title", "ResolveError",
     "line 1, column 9: 'Books.title' is primitive and ends the chain"),
    ("library", "(Books) -> title <- title", "ResolveError",
     "line 1, column 18: the chain already ended at primitive values 'Books.title'"),
    ("library", "(Books) -> title <- (Nope)", "ResolveError",
     "line 1, column 18: the chain already ended at primitive values 'Books.title'"),
    ("library", "(Books) -> title *-> (Books)", "ResolveError",
     "line 1, column 18: the chain already ended at primitive values 'Books.title'"),
    ("library", "(Books) -> title <-* (Nope)", "ResolveError",
     "line 1, column 18: the chain already ended at primitive values 'Books.title'"),
    ("library", "(Books) -> title <-*-> (Books)", "ResolveError",
     "line 1, column 18: the chain already ended at primitive values 'Books.title'"),
    ("library", "'x' <- title <- (Books) -> title -> (Books)", "ResolveError",
     "line 1, column 25: 'Books.title' is primitive and ends the chain"),
    ("library", "'x' <- title <- (Books) -> title -> publisher", "ResolveError",
     "line 1, column 25: 'Books.title' is primitive and ends the chain"),
    ("library", "'x' <- title <- (Books) -> title <-* (D)", "ResolveError",
     "line 1, column 34: the chain already ended at primitive values 'Books.title'"),
    # the star forms
    ("library", "(Books) *-> (D)", "ResolveError", "line 1, column 9: '*->' cannot arrive at a product; use '<-*'"),
    ("library", "(Books) *-> (D | nope == 1)", "UnknownAlias", _UNKNOWN_ALIAS.format(18)),
    ("library", "(Books) *-> (Nope)", "UnknownCollection", "line 1, column 14: unknown collection 'Nope'"),
    ("library", "(Books) *-> (Nope | x == 1)", "UnknownCollection", "line 1, column 14: unknown collection 'Nope'"),
    ("library", "(Books) *-> (Books b, Nope n)", "UnknownCollection", "line 1, column 23: unknown collection 'Nope'"),
    ("library", "(Books) *-> (Writers)", "NoPath",
     f"line 1, column 9: no upward path from 'Books' to 'Writers'; {_UNIQUE_PATH_NOTE}"),
    ("library", "(D) *-> (Books)", "NoPath", "line 1, column 5: no factor of product 'D' reaches 'Books'"),
    ("library", "(D) <-* (WriterBooks)", "ResolveError", "line 1, column 5: '<-*' cannot start from product 'D'"),
    ("library", "(D) <-* (Nope)", "ResolveError", "line 1, column 5: '<-*' cannot start from product 'D'"),
    ("library", "(Books) <-* (D x)", "ResolveError", "line 1, column 14: a product collection cannot take an alias"),
    ("library", "(Books) <-* (Writers)", "NoPath",
     f"line 1, column 9: no downward path from 'Books' to 'Writers'; {_UNIQUE_PATH_NOTE}"),
    ("library", "(Books) <-* (D)", "NoPath", "line 1, column 9: no factor of product 'D' reaches 'Books'"),
    ("library", "(Books) <-*-> (Nope)", "UnknownCollection", "line 1, column 16: unknown collection 'Nope'"),
    ("library", "(Books) <-*-> (Books b, Nope n)", "UnknownCollection", "line 1, column 25: unknown collection 'Nope'"),
    ("library", "(D) <-*-> (Books w, Writers p)", "NoPath",
     "line 1, column 5: cannot infer between two different products"),
    # constants
    ("library", "'x'", "ResolveError", "line 1, column 1: constants must be followed by a de-projection ('<-')"),
    ("library", "'x' -> title", "ResolveError",
     "line 1, column 1: constants must be followed by a de-projection ('<-')"),
    ("library", "'x' <- (Books)", "ResolveError", "line 1, column 5: constants de-project through a field name first"),
    ("library", "'x' <- (Nope)", "ResolveError", "line 1, column 5: constants de-project through a field name first"),
    ("library", "'x' <- title <- (Nope)", "UnknownCollection", "line 1, column 18: unknown collection 'Nope'"),
    ("library", "'DE' <- countries <- (Nope)", "UnknownCollection", "line 1, column 23: unknown collection 'Nope'"),
    ("library", "'x' <- nope <- (Nope)", "UnknownCollection", "line 1, column 17: unknown collection 'Nope'"),
    ("library", "'x' <- title <- (Books b, Nope w)", "UnknownCollection", "line 1, column 27: unknown collection 'Nope'"),
    ("library", "'x' <- title <- (D)", "ResolveError", "line 1, column 5: use '<-*' to reach a product collection"),
    ("library", "'x' <- title <- (Books b, Writers w)", "ResolveError",
     "line 1, column 5: use '<-*' to reach a product collection"),
    ("library", "'x' <- title <- (D x)", "ResolveError", "line 1, column 18: a product collection cannot take an alias"),
    ("library", "'x' <- title <- (D | nope == 1)", "UnknownAlias", _UNKNOWN_ALIAS.format(22)),
    ("library", "'x' <- title <- (Books | nope == 1)", "ResolveError",
     "line 1, column 26: no field 'nope' on concept 'Books'"),
    ("library", "'x' <- title <- nope <- (Books)", "UnknownDimension", "line 1, column 5: no dimension 'nope' on 'Books'"),
    ("library", "'x' <- countries <- address", "ResolveError",
     "line 1, column 5: finish the de-projection with a collection in parentheses"),
    ("library", "'x' <- nope", "ResolveError", "line 1, column 5: no collection has a primitive field 'nope'"),
    ("library", "'x' <- publisher", "ResolveError", "line 1, column 5: no collection has a primitive field 'publisher'"),
    ("library", "'x' <- name", "AmbiguousPath",
     "line 1, column 5: field 'name' exists on several collections (Publishers, Writers); name one in parentheses"),
    ("library", "'x' <- publisher <- (Books)", "ResolveError",
     "line 1, column 5: 'Books.publisher' is not a primitive field"),
    ("library", "1 <- title", "ResolveError", "line 1, column 1: expected a string, found 1"),
    ("library", "'x' <- age", "ResolveError", "line 1, column 1: expected a number, found 'x'"),
    # an anchor's predicate: aggregates, and identity bounds typed like any comparison
    ("catalog", "(Publishers | SUM(publisher <- (Books)) > 1)", "NonNumericPath",
     "line 1, column 15: SUM needs a numeric field path, like SUM(dim <- (Coll).field); "
     "COUNT counts elements without one"),
    ("catalog", "(Publishers | SUM(publisher <- (Books).title) > 1)", "NonNumericPath",
     "line 1, column 15: cannot sum over 'title' of type string"),
    ("catalog", "(Publishers | COUNT(publisher <- (Books).title) > 1)", "ResolveError",
     "line 1, column 15: COUNT takes no field path"),
    ("catalog", "(Publishers | name < 3)", "ResolveError", "line 1, column 22: expected a string, found 3"),
    ("catalog", "(Publishers p | 3 > p.name AND nope == 1)", "ResolveError",
     "line 1, column 17: expected a string, found 3"),
    ("catalog", "(Publishers | name < 'x' AND nope == 1)", "ResolveError",
     "line 1, column 30: no field 'nope' on concept 'Publishers'"),
    ("catalog", "(Publishers | COUNT(publisher <- (Books)) > 'x')", "ResolveError",
     "line 1, column 45: COUNT compares against numbers, found 'x'"),
    # anchors: products, constants, and an aggregate's inner predicate
    ("library", "(D)", "plan", "(D)"),
    ("library", "(D | w.age > 30)", "plan", "(D | w.age > 30)"),
    ("library", "(D) -> w -> age", "plan", "(D)\n-> w -> (Writers)\n-> age"),
    ("catalog", "1, NULL, 3 <- id <- (Addresses)", "plan", "1, NULL, 3\n<- id <- (Addresses)"),
    ("catalog", "'DE' <- country", "plan", "'DE'\n<- country <- (Addresses)"),
    ("catalog", "(Publishers | COUNT(publisher <- (Books | price < 10)) > 1)", "plan",
     "(Publishers | COUNT(publisher <- (Books | price < 10)) > 1)"),
    ("market", "(Writers) <-*-> (Shops)", "plan",
     "(Writers)\n<-*-> (Shops)\nwarning: independent collections: full target returned"),
    ("library", "GIVEN (Writers | age < 30) GET (Publishers)", "plan",
     "(Writers | age < 30)\n<- writer <- (WriterBooks)\n-> book -> (Books)\n"
     "-> publisher -> (Publishers)"),
    # a target's predicate runs after the step's route
    ("library", "'DE' <- countries <- (Addresses | id > 0)", "plan",
     "'DE'\n<- countries <- (Addresses)\n| id > 0"),
    ("library", "'DE' <- countries <- address <- (Publishers | name != 'x')", "plan",
     "'DE'\n<- countries <- (Addresses)\n<- address <- (Publishers)\n| name != 'x'"),
    ("library", "(Books) -> publisher -> (Publishers | name == 'x')", "plan",
     "(Books)\n-> publisher -> (Publishers)\n| name == 'x'"),
    ("library", "(Books) -> (Addresses | id > 1)", "plan",
     "(Books)\n-> publisher -> (Publishers)\n-> address -> (Addresses)\n| id > 1"),
    ("library", "(Publishers) <- (Books | title == 'x') -> title", "plan",
     "(Publishers)\n<- publisher <- (Books)\n| title == 'x'\n-> title"),
    ("library", "(Addresses) <- address <- (Publishers p | p.name == 'x')", "plan",
     "(Addresses)\n<- address <- (Publishers)\n| p.name == 'x'"),
    ("library", "(Books) *-> (Addresses | id > 1)", "plan",
     "(Books)\n-> publisher -> (Publishers)\n-> address -> (Addresses)\n| id > 1"),
    ("library", "(Addresses) <-* (Books | title == 'x')", "plan",
     "(Addresses)\n<- address <- (Publishers)\n<- publisher <- (Books)\n| title == 'x'"),
    ("library", "(Writers) <-*-> (Publishers | name == 'x')", "plan",
     "(Writers)\n<- writer <- (WriterBooks)\n-> book -> (Books)\n-> publisher -> (Publishers)\n"
     "| name == 'x'"),
    # a registered product folds a target's predicate into its own, and it is listed all the same
    ("library", "(Writers) <-* (D | p.name != 'x')", "plan", "(Writers)\n<- w <- (D)\n| p.name != 'x'"),
    # an inline product's name is its printed set expression, parentheses included
    ("library", "(Writers) <-* (Writers w, Publishers p | w.age > 30)", "plan",
     "(Writers)\n<- w <- (Writers w, Publishers p | w.age > 30)"),
    ("library", "(Addresses) <-* (Books b, Writers w)", "plan",
     "(Addresses)\n<- address <- (Publishers)\n<- publisher <- (Books)\n<- b <- (Books b, Writers w)"),
    ("market", "(Books) <-* (WriterBooks wb, Sellers s)", "plan",
     "(Books)\n<-* (WriterBooks wb, Sellers s) over 2 paths:\n  (Books) <- book <- (Sellers)\n"
     "  (Books) <- book <- (WriterBooks)\n  (WriterBooks) <- wb <- (WriterBooks wb, Sellers s)\n"
     "  (Sellers) <- s <- (WriterBooks wb, Sellers s)"),
    ("market", "(Shops) <-*-> (Writers w, Books b)", "plan",
     "(Shops)\n<-*-> (Writers w, Books b)\nwarning: independent collections: full target returned"),
    # a star step that moves along no dimension lists its header
    ("catalog", "(Books) <-*-> (Books | price < 10)", "plan", "(Books)\n<-*-> (Books)\n| price < 10"),
    ("catalog", "(Books) *-> (Books)", "plan", "(Books)\n*-> (Books)"),
]


@pytest.mark.parametrize("fixture, text, cls, message", OUTCOMES, ids=[row[1] for row in OUTCOMES])
def test_resolution_outcome(fixture, text, cls, message):
    assert outcome(_db(fixture), text) == (cls, message)


@pytest.mark.parametrize("fixture, text", [
    ("catalog", "(Books b | b.price < 10 AND isbn == 'b1')"),
    ("library", "(Publishers) <- (Books | title == 'x') *-> (Addresses | id > 1)"),
    ("library", "'DE', NULL <- countries <- address <- (Publishers | name != 'x')"),
    ("catalog", "(Publishers | COUNT(publisher <- (Books | price < 10)) > 1)"),
])
def test_planning_prints_nothing(monkeypatch, fixture, text):
    """A plan holds what runs; only explain prints the query back."""
    db = _db(fixture)

    def refuse(*args):
        raise AssertionError("a printer was called while planning")

    for name in ("print_predicate", "print_set_expr", "print_literal"):
        monkeypatch.setattr(resolver, name, refuse)
    db.plan(text)


def test_a_product_definition_places_a_duplicate_alias():
    with pytest.raises(ComdbError) as exc:
        engine.execute_statement(_db("library"), "P = (Books b, Writers w, Addresses b)")
    assert (type(exc.value).__name__, str(exc.value)) == (
        "DuplicateAlias",
        "line 1, column 26: alias 'b' used twice in product '(Books b, Writers w, Addresses b)'")


@pytest.mark.parametrize("statement, message", [
    ("Deals = (WriterBooks wb)", "line 1, column 1: a product needs at least two factors"),
    ("Books = (WriterBooks wb, Sellers s)", "line 1, column 1: 'Books' is already a collection"),
])
def test_a_product_definition_error_names_its_line(statement, message):
    with pytest.raises(ResolveError) as exc:
        engine.execute_statement(_db("market"), statement)
    assert type(exc.value) is ResolveError and str(exc.value) == message


_AFTER_A_FIELD = [
    ast.ProjectStep(("title",)),
    ast.DeprojectStep(("publisher",)),
    ast.StarProjectStep(ast.SetExpr((ast.Factor("Books"),))),
    ast.StarDeprojectStep(ast.SetExpr((ast.Factor("Books"),))),
    ast.InferStep(ast.SetExpr((ast.Factor("Books"),))),
]


@pytest.mark.parametrize("step", _AFTER_A_FIELD, ids=lambda s: type(s).__name__)
def test_no_step_follows_primitive_values(library_db, step):
    # text groups '-> title -> title' into one step, so a second '->' step after a
    # field is only reachable through the syntax tree
    query = ast.Query(ast.SetExpr((ast.Factor("Books"),)), (ast.ProjectStep(("title",)), step))
    with pytest.raises(ResolveError) as exc:
        resolve(query, library_db.schema)
    assert str(exc.value) == "the chain already ended at primitive values 'Books.title'"


# --- seeded statements --------------------------------------------------------

_CONSTANTS = ("'DE'", "'b1'", "'x'", "1", "2.5", "NULL", "'2001-01-01'")
_TYPED = {"string": ("'DE'", "'b1'", "'x'", "NULL"), "integer": ("1", "30", "NULL"),
          "decimal": ("2.5", "10", "NULL"), "date": ("'2001-01-01'", "NULL")}
_OPS = ("==", "!=", "<", ">=")
_ODD = 0.04  # the share of slots that draw a name, alias or constant that may not fit


def statements(db, rng: random.Random, n: int) -> list[tuple[str, list]]:
    """n query texts over db's own collection, dimension, field and product
    names, each with the types of the fields its literals are compared
    with, in text order.

    Each slot mostly draws what fits where the chain stands: a field of the
    collection it has reached, a dimension into that collection, a
    collection above or below it, a constant of the field's type.  Now and
    then (_ODD) a slot draws any name of the database, the unknown name
    'Nope' or 'nope', a repeated alias or an untyped constant instead.  The
    texts mix registered and inline products, aliases, predicates,
    aggregates and constants.  A reference field's type is the type of its
    destination's identity, when that is one field.
    """
    schema = db.schema
    concepts = sorted(schema.concepts)
    names = concepts + sorted(db.products)
    fields = sorted({f.name for c in schema.concepts.values() for f in c.fields})
    specs = [f for c in concepts for f in schema.concept(c).fields] + [FieldSpec("nope", "string")]
    aliases = ["a", "b"] + sorted({a for p in db.products.values() for a, _ in p.factors})
    pick = rng.choice
    types: list = []  # the current text's, one per literal

    def literal(value: str, ftype: str) -> str:
        if value != "NULL":  # a keyword, not a literal
            identity = schema.concept(ftype).identity_fields if ftype in schema.concepts else ()
            types.append(identity[0].type if len(identity) == 1 else ftype)
        return value

    def odd() -> bool:
        return rng.random() < _ODD

    def name(fit) -> str:
        return pick(names + ["Nope"]) if odd() or not fit else pick(sorted(fit))

    def field(concept, primitive=None) -> FieldSpec:
        """A field of concept, primitive or a reference as asked, or any field."""
        fit = [] if concept not in schema.concepts else [
            f for f in schema.concept(concept).fields if primitive in (None, f.is_primitive)]
        return pick(fit) if fit and not odd() else pick(specs)

    def const(f: FieldSpec) -> str:
        return literal(pick(_TYPED[f.type] if f.type in _TYPED and not odd() else _CONSTANTS), f.type)

    def into(concept):
        return schema.dimensions_into(concept) if concept in schema.concepts else ()

    def path(scope):
        """(text, field) of a path over scope, a list of (alias or '', concept)."""
        alias, concept = pick(scope)
        head = f"{alias}." if alias else ""
        f = field(concept)
        if not f.is_primitive and rng.random() < 0.7:
            g = field(f.type, primitive=True)
            return f"{head}{f.name}.{g.name}", g
        return f"{head}{f.name}", f

    def predicate(scope, aggregates: bool) -> str:
        k = rng.random()
        if k < 0.6 or not aggregates and k < 0.8:
            text, f = path(scope)
            return f"{text} {pick(_OPS)} {const(f)}"
        if k < 0.8:
            concept = scope[0][1]
            dims = into(concept)
            d = pick(dims) if dims and not odd() else None
            dim, lesser = (d.name, d.source) if d else (pick(fields), name(concepts))
            if k < 0.7:
                return f"COUNT({dim} <- ({lesser})) > {literal('0', 'integer')}"
            sums = [f.name for f in schema.concept(lesser).fields
                    if f.type in ("integer", "decimal")] if lesser in schema.concepts else []
            total = pick(sums) if sums and not odd() else pick(fields)
            return f"SUM({dim} <- ({lesser}).{total}) > {literal('1', 'integer')}"
        if k < 0.9:
            return f"{path(scope)[0]} == {path(scope)[0]}"
        (p1, f1), (p2, f2) = path(scope), path(scope)
        return f"NOT {p1} == {const(f1)} AND {p2} != {const(f2)}"

    def set_expr(fit):
        """(text, the collection it names or None) for a set expression drawn from fit."""
        if rng.random() < 0.75:
            n1 = name(fit)
            concept = n1 if n1 in schema.concepts else None
            alias = pick(aliases) if (concept or odd()) and rng.random() < 0.3 else None
            text = n1 + (f" {alias}" if alias else "")
            scope = ([(alias or "", concept)] if concept else
                     list(db.products[n1].factors) if n1 in db.products else [("", n1)])
        else:
            n1, n2 = name(concepts), name(concepts)
            a1 = pick(aliases)
            a2 = a1 if odd() else pick([a for a in aliases if a != a1])
            text, concept, scope = f"{n1} {a1}, {n2} {a2}", None, [(a1, n1), (a2, n2)]
        if rng.random() < 0.35:
            return f"({text} | {predicate(scope, concept is not None)})", concept
        return f"({text})", concept

    def above(c):
        return schema.above(c) if c in schema.concepts else ()

    def below(c):
        return schema.below(c) if c in schema.concepts else ()

    def step(at):
        """(text, where the chain stands after it) for one step from collection at."""
        k = rng.randrange(13)
        if k < 3:
            f = field(at)
            ref = None if f.is_primitive else f.type
            if k == 0 or ref is None:
                return f"-> {f.name}", ref
            if k == 1:
                g = field(ref)
                return f"-> {f.name} -> {g.name}", None if g.is_primitive else g.type
            target, to = set_expr([ref])
            return f"-> {f.name} -> {target}", to
        if k == 3:
            target, to = set_expr(above(at))
            return f"-> {target}", to
        if k == 4:
            to = name(above(at))
            return f"-> {to}", to
        if k < 9:
            dims = into(at)
            if not dims or odd():
                return f"<- {pick(fields)}", None
            d = pick(dims)
            if k == 5:
                return f"<- {d.name}", d.source
            if k == 6:
                target, to = set_expr([d.source])
                return f"<- {d.name} <- {target}", to
            if k == 7:
                e = pick(into(d.source) or (d,))
                return f"<- {d.name} <- {e.name}", e.source
            e = pick(into(d.source) or (d,))
            target, to = set_expr([e.source])
            return f"<- {d.name} <- {e.name} <- {target}", to
        if k == 9:
            target, to = set_expr(below(at))
            return f"<- {target}", to
        if k == 10:
            target, to = set_expr(above(at))
            return f"*-> {target}", to
        if k == 11:
            target, to = set_expr([*below(at), *db.products])
            return f"<-* {target}", to
        target, to = set_expr(names)
        return f"<-*-> {target}", to

    out = []
    for _ in range(n):
        if rng.random() < 0.25:
            owner = pick(concepts)
            f = field(owner, primitive=True)
            consts = ", ".join(const(f) for _ in range(rng.randint(1, 2)))
            chain = [f"{consts} <- {f.name}"]
            at = owner
            if rng.random() < 0.6:
                target, at = set_expr([owner])
                chain.append(f"<- {target}")
        else:
            anchor, at = set_expr(names)
            chain = [anchor]
        for _ in range(rng.randint(0, 3)):
            if at is None and not odd():
                break
            text, at = step(at)
            chain.append(text)
        out.append((" ".join(chain), types))
        types = []
    return out


def _answered(rs) -> tuple:
    """What a ResultSet answers; an inline product's domain is made afresh by each plan."""
    return rs.kind, rs.tag, rs.columns, rs.identities, rs.values, rs.warnings


# the only callables a plan may hold: (C | p)'s residual, a product's predicate,
# and its shape's typers, which type the literals of the next text bound to it
_CALLABLE_FIELDS = {(resolver.CollectionAnchor, "residual"), (ProductCollection, "predicate"),
                    (resolver._Shape, "slots")}


def _callables(obj, where: str):
    """Where obj, a plan or a part of one, holds a callable other than those allowed."""
    if callable(obj):
        yield where
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            if (type(obj), f.name) not in _CALLABLE_FIELDS:
                yield from _callables(getattr(obj, f.name), f"{where}.{f.name}")
    elif isinstance(obj, (tuple, list)):
        for k, item in enumerate(obj):
            yield from _callables(item, f"{where}[{k}]")


# each literal kind by the mark it leaves in a shape
_KINDS = {mark: kind for kind, mark in lexer._MARKS.items()}


def _relit(text: str, draw) -> str:
    """text with each literal replaced by draw(k, its kind), where that is not None.

    k counts literals in text order; a text the generator makes is one line.
    """
    key, _, positions = lexer._shape(text)
    kinds = [_KINDS[mark] for mark in key if mark in _KINDS]
    out, end = [], 0
    for k, (kind, (_, column)) in enumerate(zip(kinds, positions)):
        new = draw(k, kind)
        if new is not None:
            m = lexer._TOKEN.match(text, column - 1)
            out += [text[end:m.start()], new]
            end = m.end()
    return "".join(out) + text[end:]


def _redrawn(rng: random.Random, kind: str, ftype: str) -> str:
    """A literal of kind whose value fits a field of type ftype, where a literal of kind can."""
    if kind == "INTEGER":
        return str(rng.randint(-3, 40))
    if kind == "DECIMAL":
        return rng.choice(("0.5", "2.50", "-1.25", "1E+1", "9.75"))
    if ftype == "date":
        return f"'{datetime.date(2001, 1, 1) + datetime.timedelta(rng.randrange(-3, 40))}'"
    return rng.choice(("'DE'", "'b1'", "'x'", "''", "'it''s'", "'r1'", "'Springer'"))


def _mistyped(rng: random.Random, kind: str, ftype: str) -> str:
    """A literal that does not fit a field of type ftype: an invalid date, or one of another kind."""
    if ftype == "date" and kind == "STRING":
        return rng.choice(("'2001-02-30'", "'2001-1-1'", "'01/02/2001'", "1"))
    return "1" if kind == "STRING" else "'x'"


def _as_fresh(db, text: str) -> tuple[bool, str]:
    """Plan text in db and check that its plan explains and answers, or its
    error reads (class, message, position), as a fresh resolve's.

    Returns whether db bound the text to a kept shape, and "plan" or "raise".
    """
    bound = text not in db._plans and lexer._shape(text)[0] in db._plans
    try:
        fresh = resolve(parse_query(text), db.schema, db.products)
    except ComdbError as e:
        with pytest.raises(ComdbError) as got:
            db.plan(text)
        assert (type(got.value), str(got.value)) == (type(e), str(e)), text
        return bound, "raise"
    plan = db.plan(text)
    assert resolver.explain(plan) == db.explain(text) == resolver.explain(fresh), text
    assert _answered(engine.execute(db, plan)) == _answered(engine.execute(db, fresh)), text
    return bound, "plan"


@pytest.mark.parametrize("fixture", sorted(PRODUCTS))
def test_resolution_raises_only_comdb_errors(fixture):
    """Every statement plans or raises a ComdbError, and at least a third
    plan.  A kept plan explains and answers as one resolved afresh, and the
    text's next plan is the same object; a text that raised raises the same
    error again and is not kept.  A plan is data but for residuals and
    product predicates: no seek, bound, cut or aggregate, however deep
    inside an aggregate's inner record, holds a callable.

    Each text that plans is planned twice more: with its literals redrawn
    from their fields' types, and with one literal of the wrong type.  Most
    of these bind to the shape the text left, and each explains, answers
    and raises as a fresh resolve; on DATE fields some raise while binding.
    """
    db = _db(fixture)
    rng = random.Random(fixture)
    drawn = statements(db, rng, 3000)
    planned = 0
    records = collections.Counter()
    replanned = collections.Counter()
    for text, types in drawn:
        assert len(types) == len(lexer._shape(text)[1]), text
        try:
            plan = db.plan(text)
        except ComdbError as e:
            with pytest.raises(ComdbError) as again:
                db.plan(text)
            assert (type(again.value), str(again.value)) == (type(e), str(e)), text
            assert text not in db._plans, text
            continue
        planned += 1
        assert list(_callables(plan, "plan")) == [], text
        for record in (plan.anchor, *plan.steps):
            for group in ("seeks", "bounds", "cuts"):
                records[group] += bool(getattr(record, group, ()))
        fresh = resolve(parse_query(text), db.schema, db.products)
        assert db.plan(text) is plan, text
        assert resolver.explain(plan) == resolver.explain(fresh), text
        assert _answered(engine.execute(db, plan)) == _answered(engine.execute(db, fresh)), text
        if types:
            wrong = rng.randrange(len(types))
            replanned[_as_fresh(db, _relit(text, lambda k, kind: _redrawn(rng, kind, types[k])))] += 1
            replanned[_as_fresh(db, _relit(text, lambda k, kind: _mistyped(rng, kind, types[k])
                                           if k == wrong else None))] += 1
    assert planned >= len(drawn) / 3, planned
    assert min(records[g] for g in ("seeks", "bounds", "cuts")) > 0, records
    assert replanned[True, "plan"] >= planned / 8, replanned
    assert fixture != "dated" or replanned[True, "raise"] > 0, replanned


@pytest.mark.parametrize("fixture, first, text, message", [
    # the target's predicate is typed before the constants de-projected into it
    ("library", "'x', 'y' <- name <- (Writers | age < 1)", "'x', 5 <- name <- (Writers | age < 'y')",
     "line 1, column 36: expected a number, found 'y'"),
    ("dated", "'2001-01-01' <- ends <- (Slots | day == '2001-01-02')",
     "'2001-13-01' <- ends <- (Slots | day == '2001-02-30')",
     "line 1, column 41: '2001-02-30' is not an ISO date"),
    # conjuncts are typed in order
    ("library", "(Writers | name == 'a' AND age == 1)", "(Writers | name == 5 AND age == 'x')",
     "line 1, column 20: expected a string, found 5"),
    ("dated", "(Rooms | opened == '2001-01-01' AND name == 'r1')",
     "(Rooms | opened == '2001-1-1' AND name == 'r1')", "line 1, column 20: '2001-1-1' is not an ISO date"),
])
def test_a_literal_that_does_not_type_raises_where_a_fresh_resolve_does(fixture, first, text, message):
    """A text's literals are typed in the order resolution types them, so the
    first one it meets that does not fit raises, at its own position, whether
    the text binds to the shape another text left or is resolved afresh."""
    db = _db(fixture)
    db.plan(first)
    assert (lexer._shape(text)[0] in db._plans) == (fixture == "dated")
    for plan in (db.plan, lambda t: resolve(parse_query(t), db.schema, db.products)):
        with pytest.raises(ResolveError) as exc:
            plan(text)
        assert type(exc.value) is ResolveError and str(exc.value) == message


# --- kept plans -----------------------------------------------------------------


def test_a_text_naming_an_undefined_product_plans_once_it_is_defined():
    db = load_fixture("library")
    with pytest.raises(UnknownCollection):
        db.plan("(E)")
    engine.execute_statement(db, "E = (Writers w, Books b)")
    assert len(db.query("(E)")) == len(db.collections["Writers"]) * len(db.collections["Books"])


def test_a_query_before_the_schema_plans_after_it():
    db = engine.Database()
    for _ in range(2):
        with pytest.raises(SchemaError):
            db.plan("(Books)")
    engine.load_schema(db, "CONCEPT Books IDENTITY isbn CHAR(13);")
    db.insert("Books", "b1")
    assert db.query("(Books)").identities == [("b1",)]


def test_the_oldest_plan_makes_room_for_a_new_one():
    """A database keeps PLANS entries: plans by text and shapes by key.  A
    text resolved afresh keeps its plan and its shape, each entry looked up
    becomes the newest, and each entry past PLANS drops the least recently
    used one."""
    db = load_fixture("catalog")
    # 257 shapes, told apart by the operators of their nine conjuncts
    texts = ["(Books | " + " AND ".join("price >= 0" if i >> b & 1 else "price > 0" for b in range(9))
             + ")" for i in range(engine.PLANS + 1)]
    keys = [lexer._shape(t)[0] for t in texts]
    half = engine.PLANS // 2
    plans = [db.plan(t) for t in texts[:half]]
    assert len(db._plans) == engine.PLANS
    assert db.plan(texts[0]) is plans[0]
    newest = db.plan(texts[half])  # drops the shapes of the first two texts
    assert len(db._plans) == engine.PLANS
    assert [k in db._plans for k in keys[:3]] == [False, False, True]
    assert db.plan(texts[0]) is plans[0] and db.plan(texts[1]) is plans[1]
    assert db.plan(texts[half]) is newest
    for t in texts:
        db.plan(t)
    assert len(db._plans) == engine.PLANS
    assert [t for t in texts if t in db._plans] == texts[-half:]


def test_texts_of_a_few_shapes_resolve_once_per_shape(monkeypatch):
    """2,000 texts of three shapes, drawn with fresh literals, resolve three
    times in all, although one-off texts in between make more than PLANS
    entries: a shape a text binds to becomes the newest entry.  A literal in
    a product's predicate takes no slot, so each such text resolves."""
    db = load_fixture("catalog")
    resolved = []
    monkeypatch.setattr(engine, "resolve", lambda *args: resolved.append(args) or resolve(*args))
    shapes = ("(Books | price < {d} AND isbn != '{s}') -> publisher",
              "(Publishers | COUNT(publisher <- (Books | price > {d})) > {i})",
              "{i}, {i} <- id <- (Addresses) <-* (Books | title == '{s}')")
    rng = random.Random(2000)
    one_offs = 0
    for n in range(2000):
        if n % 3 == 2:
            text = f"(Books b, Publishers p | b.price < {n})"
            one_offs += 1
        else:
            text = rng.choice(shapes).format(i=rng.randint(-9, 99), d=rng.randint(0, 999) / 100,
                                             s=rng.choice("ab") * rng.randint(0, 2))
        plan = db.plan(text)
    assert len(resolved) == len(shapes) + one_offs
    fresh = resolve(parse_query(text), db.schema, db.products)
    assert resolver.explain(plan) == resolver.explain(fresh)
    assert _answered(engine.execute(db, plan)) == _answered(engine.execute(db, fresh))


def test_a_kept_plan_reads_rows_stored_after_it(tmp_path):
    """Inserts and loads keep the plans, and a kept plan answers as a fresh one."""
    db = load_fixture("library")
    texts = ["(Writers | age > 30)", "(Publishers) <- (Books | title == 'Dune')",
             "'DE' <- countries <- address <- (Publishers)", "(Writers) <-*-> (Addresses)"]
    before = {t: db.query(t) for t in texts}
    plans = {t: db.plan(t) for t in texts}

    def check():
        for t in texts:
            assert db.plan(t) is plans[t]
            assert db.query(t) == engine.execute(db, resolve(parse_query(t), db.schema)), t

    db.insert("Writers", "Zed", {"age": 70})
    db.insert("Addresses", 99, {"countries": "DE"})
    db.insert("Publishers", "Nova", {"address": 99})
    db.insert("Books", "b99", {"title": "Dune", "publisher": "Nova"})
    db.insert("WriterBooks", 99, {"writer": "Zed", "book": "b99"})
    check()
    (tmp_path / "Writers.csv").write_text("name,age\nYan,80\n")
    assert engine.load_csv(db, "Writers", tmp_path / "Writers.csv").inserted == 1
    check()
    assert all(db.query(t) != before[t] for t in texts)
