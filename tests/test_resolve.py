"""Resolution outcomes pinned by statement, and resolution that never fails bare.

The table pins, for each way the resolver rejects a chain, the error class
and its full text with line and column, including which error wins when a
query has several faults; the plans pin what explain lists, such as where
a target's filter lands.  The seeded sweep builds statements from each
fixture's own names and checks that every one either plans or raises a
ComdbError.
"""

import random

import pytest

from conftest import load_fixture
from comdb import engine
from comdb.coql import ast, resolver
from comdb.coql.resolver import resolve
from comdb.errors import ComdbError, ResolveError

PRODUCTS = {
    "catalog": "D = (Books b, Addresses a)",
    "colors": "D = (X x, Y y)",
    "library": "D = (Writers w, Publishers p)",
    "market": "D = (Writers w, Shops s)",
}


def _db(name: str) -> engine.Database:
    if name == "parallel":
        db = engine.Database()
        engine.load_schema(db, """
            CONCEPT Grades IDENTITY g CHAR(1);
            CONCEPT Reviews IDENTITY id INT ENTITY first Grades, second Grades;
        """)
        return db
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
_OPS = ("==", "!=", "<", ">=")


def statements(db, rng: random.Random, n: int) -> list[str]:
    """n query texts over db's own collection, dimension, field and product names.

    Each name slot may also draw the one unknown name; the texts mix
    registered and inline products, aliases, predicates and constants.
    """
    schema = db.schema
    names = sorted(schema.concepts) + sorted(db.products) + ["Nope"]
    fields = sorted({f.name for c in schema.concepts.values() for f in c.fields}) + ["nope"]
    aliases = ["a", "b"] + sorted({a for p in db.products.values() for a, _ in p.factors})
    pick = rng.choice

    def path():
        k = rng.random()
        if k < 0.4:
            return pick(fields)
        if k < 0.8:
            return f"{pick(aliases)}.{pick(fields)}"
        return f"{pick(fields)}.{pick(fields)}"

    def predicate():
        k = rng.random()
        if k < 0.6:
            return f"{path()} {pick(_OPS)} {pick(_CONSTANTS)}"
        if k < 0.7:
            return f"COUNT({pick(fields)} <- ({pick(names)})) > 0"
        if k < 0.8:
            return f"SUM({pick(fields)} <- ({pick(names)}).{pick(fields)}) > 1"
        if k < 0.9:
            return f"{path()} == {path()}"
        return f"NOT {path()} == {pick(_CONSTANTS)} AND {path()} != {pick(_CONSTANTS)}"

    def set_expr():
        k = rng.random()
        if k < 0.75:
            factors = pick(names) + (f" {pick(aliases)}" if rng.random() < 0.3 else "")
        else:
            factors = f"{pick(names)} {pick(aliases)}, {pick(names)} {pick(aliases)}"
        if rng.random() < 0.35:
            return f"({factors} | {predicate()})"
        return f"({factors})"

    steps = (
        lambda: f"-> {pick(fields)}",
        lambda: f"-> {pick(fields)} -> {pick(fields)}",
        lambda: f"-> {pick(fields)} -> {set_expr()}",
        lambda: f"-> {set_expr()}",
        lambda: f"-> {pick(names)}",
        lambda: f"<- {pick(fields)}",
        lambda: f"<- {pick(fields)} <- {pick(fields)}",
        lambda: f"<- {pick(fields)} <- {set_expr()}",
        lambda: f"<- {pick(fields)} <- {pick(fields)} <- {set_expr()}",
        lambda: f"<- {set_expr()}",
        lambda: f"*-> {set_expr()}",
        lambda: f"<-* {set_expr()}",
        lambda: f"<-*-> {set_expr()}",
    )
    out = []
    for _ in range(n):
        if rng.random() < 0.25:
            anchor = ", ".join(pick(_CONSTANTS) for _ in range(rng.randint(1, 2)))
        else:
            anchor = set_expr()
        chain = [pick(steps)() for _ in range(rng.randint(0, 3))]
        out.append(" ".join([anchor, *chain]))
    return out


@pytest.mark.parametrize("fixture", sorted(PRODUCTS))
def test_resolution_raises_only_comdb_errors(fixture):
    db = _db(fixture)
    planned = 0
    for text in statements(db, random.Random(fixture), 3000):
        try:
            db.plan(text)
            planned += 1
        except ComdbError:
            pass
    assert planned > 0
