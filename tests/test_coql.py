"""Lexing, parsing, printing, and name resolution for the query language."""

import random
import time
from decimal import Decimal

import pytest

import oracle
from comdb import engine
from comdb.coql import ast
from comdb.coql.lexer import LexError, split_statements, tokenize
from comdb.coql.parser import parse_query, parse_schema, parse_statement
from comdb.coql.printer import print_predicate, print_query, print_statement
from comdb.errors import (
    AmbiguousPath,
    NonNumericPath,
    ParseError,
    ResolveError,
    UnknownCollection,
    UnknownDimension,
)


def kinds(text: str) -> list[str]:
    return [t.kind for t in tokenize(text)][:-1]  # drop EOF


# --- lexer -------------------------------------------------------------------


def test_longest_match_on_arrows():
    assert kinds("<-*-*>") == ["INFER"]
    assert kinds("<-*->") == ["INFER"]
    assert kinds("<-*") == ["LSTAR"]
    assert kinds("*->") == ["STAR_ARROW"]
    assert kinds("<- ->") == ["LARROW", "ARROW"]
    assert kinds("<= < >= > == != =") == ["LE", "LT", "GE", "GT", "EQ", "NE", "EQ"]


def test_equals_canonicalizes():
    a, b = tokenize("=")[0], tokenize("==")[0]
    assert a.kind == b.kind == "EQ"
    assert a.value == b.value == "=="


def test_keywords_are_case_insensitive():
    toks = tokenize("given Where AND or NoT null")
    assert [t.kind for t in toks[:-1]] == ["GIVEN", "WHERE", "AND", "OR", "NOT", "NULL"]
    ident = tokenize("Wherever")[0]
    assert ident.kind == "IDENT" and ident.value == "Wherever"


def test_only_ascii_words_are_keywords():
    # 'ſ' (long s) upper-cases to 'S' and dotless 'ı' to 'I'
    toks = tokenize("ſum gıven ſUM")
    assert [(t.kind, t.value) for t in toks[:-1]] == [
        ("IDENT", "ſum"), ("IDENT", "gıven"), ("IDENT", "ſUM")]
    (concept,) = parse_schema("CONCEPT A IDENTITY ſum INT;")
    assert [f.name for f in concept.identity_fields] == ["ſum"]
    db = engine.Database()
    engine.load_schema(db, "CONCEPT A IDENTITY ſum INT ENTITY gıven INT;")
    db.insert("A", 1, {"gıven": 5})
    db.insert("A", 2, {"gıven": 7})
    assert db.query("(A | gıven > 6 AND ſum >= 1)").identities == [(2,)]


def test_numbers_and_strings():
    toks = tokenize("42 9.50 'it''s' \"a\"\"b\"")
    assert toks[0].kind == "INTEGER" and toks[0].value == 42
    assert toks[1].kind == "DECIMAL" and toks[1].value == Decimal("9.50")
    assert toks[2].kind == "STRING" and toks[2].value == "it's"
    assert toks[3].kind == "STRING" and toks[3].value == 'a"b'


def test_line_and_column_tracking():
    toks = tokenize("a\n  b")
    assert (toks[0].line, toks[0].column) == (1, 1)
    assert (toks[1].line, toks[1].column) == (2, 3)


def test_comments_are_skipped():
    assert kinds("a // rest of line\nb") == ["IDENT", "IDENT"]


def test_unterminated_string_is_an_error():
    with pytest.raises(LexError) as exc:
        tokenize("  'oops")
    assert "line 1" in str(exc.value)


def test_bare_minus_is_an_error():
    with pytest.raises(LexError):
        tokenize("a - b")


def test_signed_and_exponent_numbers():
    values = [(t.kind, t.value) for t in tokenize("-3 -1.5 1e4 1E+4 2.5e-3 -0")[:-1]]
    assert values == [("INTEGER", -3), ("DECIMAL", Decimal("-1.5")), ("DECIMAL", Decimal("1E+4")),
                      ("DECIMAL", Decimal("1E+4")), ("DECIMAL", Decimal("0.0025")),
                      ("INTEGER", 0)]
    assert str(tokenize("1e4")[0].value) == "1E+4"
    # no digit after the 'e' or the sign: the number ends before it
    assert kinds("3e x") == ["INTEGER", "IDENT", "IDENT"]
    with pytest.raises(LexError):
        tokenize("3e+")
    for text in ("1e999999999999999999999", "9" * 5000):
        with pytest.raises(LexError, match="out of range"):
            tokenize(text)


def test_the_arrow_wins_over_a_minus_sign():
    # '<-3' is the arrow and 3, so a negative literal after '<' prints with a space
    assert kinds("x <-3") == ["IDENT", "LARROW", "INTEGER"]
    assert kinds("x < -3") == ["IDENT", "LT", "INTEGER"]
    less = ast.Comparison("<", ast.PathTerm(("x",)), ast.Literal(-3))
    assert print_predicate(less) == "x < -3"
    query = ast.Query(ast.SetExpr((ast.Factor("A", None),), less), ())
    assert print_query(query) == "(A | x < -3)"
    assert parse_query(print_query(query)) == query
    anchor = ast.Query((ast.Literal(-3), ast.Literal(Decimal("-1.5E+4"))),
                       (ast.DeprojectStep(("v",), ast.SetExpr((ast.Factor("A", None),), None)),))
    assert print_query(anchor) == "-3, -1.5E+4 <- v <- (A)"
    assert parse_query(print_query(anchor)) == anchor
    with pytest.raises(ParseError):
        parse_query("(A | x <-3)")


def test_declared_widths_take_no_sign():
    with pytest.raises(ParseError, match="expected a length"):
        parse_schema("CONCEPT A IDENTITY id INT ENTITY c CHAR(-2);")
    with pytest.raises(ParseError, match="expected a scale"):
        parse_schema("CONCEPT A IDENTITY id INT ENTITY c DECIMAL(4,-1);")


def test_split_statements_respects_strings_and_comments():
    text = "(X) -> x; // first\n(Y | name == 'a;b'); // trailing only"
    parts = split_statements(text)
    assert len(parts) == 2
    assert parts[0] == "(X) -> x"
    # a comment glued to the next statement is fine, the lexer skips it
    q = parse_query(parts[1])
    assert q.anchor.factors == (ast.Factor("Y"),)
    assert q.anchor.predicate.right == ast.Literal("a;b")


def test_comment_only_fragment_is_no_statement():
    assert split_statements("// nothing here\n   // still nothing") == []


def lexed(lex, text: str):
    """A tokenizer's (kind, value, line, column) tuples, or its error's class and text."""
    try:
        return [tuple(t) for t in lex(text)]
    except LexError as e:
        return type(e), str(e)


# rich in the characters where tokens start, end or fail
LEX_ALPHABET = (
    "'", '"', "''", "//", "/", "\n", "\r", "\t", " ", "-", "+", "e", "E", ".", "0", "7", "9",
    "é", "²", "½", "\xa0", "\f", "ı", "_", "x", "Q", ";", ",", "(", ")", "|", "*", "<", ">",
    "=", "!", "<-", "->", "<-*", "*->", "<-*->", "<-*-*>", "and", "NULL", "Given",
)


def test_tokenizer_matches_the_character_at_a_time_oracle():
    rng = random.Random(15)
    for _ in range(100_000):
        text = "".join(rng.choices(LEX_ALPHABET, k=rng.randint(0, 14)))
        assert lexed(tokenize, text) == lexed(oracle.o_tokenize, text), text
        assert split_statements(text) == oracle.o_split_statements(text), text


@pytest.mark.parametrize("text, expected", [
    # a doubled quote cannot close the string it opens
    ("'''<-", (LexError, "line 1, column 1: unterminated string")),
    ("'a'''", [("STRING", "a'", 1, 1), ("EOF", None, 1, 6)]),
    ("'one\ntwo' x", [("STRING", "one\ntwo", 1, 1), ("IDENT", "x", 2, 6), ("EOF", None, 2, 7)]),
    ("x\r\ny", [("IDENT", "x", 1, 1), ("IDENT", "y", 2, 1), ("EOF", None, 2, 2)]),
    ("a//c", [("IDENT", "a", 1, 1), ("EOF", None, 1, 5)]),
    ("1.", [("INTEGER", 1, 1, 1), ("DOT", ".", 1, 2), ("EOF", None, 1, 3)]),
    ("1e", [("INTEGER", 1, 1, 1), ("IDENT", "e", 1, 2), ("EOF", None, 1, 3)]),
    ("3e+", (LexError, "line 1, column 3: unexpected character '+'")),
])
def test_tokenizer_edge_cases(text, expected):
    assert lexed(tokenize, text) == expected
    assert lexed(oracle.o_tokenize, text) == expected


@pytest.mark.parametrize("text", [
    "'" * 100_001,
    "'" + "''" * 50_000,
    "// " + "c" * 99_997,
    "//" * 50_000 + "\nx",
    "a." * 50_000 + "a",
    "'a;" * 30_000,
], ids=["quotes", "doubled quotes", "comment", "slashes", "dotted path", "quoted semicolons"])
def test_lexing_takes_linear_time(text):
    for lex in (tokenize, split_statements):
        start = time.perf_counter()
        try:
            lex(text)
        except LexError:
            pass
        assert time.perf_counter() - start < 2.0, lex.__name__


# --- parser ------------------------------------------------------------------


def test_parse_star_projection_query():
    q = parse_query("(X | name == 'red') <-*-> (Y)")
    assert q.anchor.factors == (ast.Factor("X"),)
    assert q.anchor.predicate == ast.Comparison("==", ast.PathTerm(("name",)), ast.Literal("red"))
    (step,) = q.steps
    assert isinstance(step, ast.InferStep)
    assert step.target.factors == (ast.Factor("Y"),)


def test_given_get_is_plain_inference():
    sugar = parse_query("GIVEN (X | name == 'red') GET (Y)")
    plain = parse_query("(X | name == 'red') <-*-> (Y)")
    assert sugar == plain


def test_where_and_pipe_are_the_same():
    assert parse_query("(X WHERE a == 1)") == parse_query("(X | a == 1)")
    assert parse_query("(X | a = 1)") == parse_query("(X | a == 1)")


def test_hop_chain_groups_into_one_step():
    q = parse_query("(Z) -> a -> b -> (C)")
    (step,) = q.steps
    assert step == ast.ProjectStep(("a", "b"), ast.SetExpr((ast.Factor("C"),)))


def test_direction_change_starts_a_new_step():
    q = parse_query("(Z) -> a <- b")
    assert q.steps == (
        ast.ProjectStep(("a",), None),
        ast.DeprojectStep(("b",), None),
    )


def test_omitted_dimension_hop():
    q = parse_query("(X) <- (Z)")
    (step,) = q.steps
    assert step == ast.DeprojectStep((), ast.SetExpr((ast.Factor("Z"),)))


def test_literal_anchor_list():
    q = parse_query("'DE', 'US' <- country <- (Addresses)")
    assert q.anchor == (ast.Literal("DE"), ast.Literal("US"))
    (step,) = q.steps
    assert step == ast.DeprojectStep(("country",), ast.SetExpr((ast.Factor("Addresses"),)))


def test_predicate_precedence():
    q = parse_query("(X | a == 1 OR b == 2 AND NOT c == 3)")
    p = q.anchor.predicate
    assert isinstance(p, ast.Or)
    left, right = p.items
    assert isinstance(left, ast.Comparison)
    assert isinstance(right, ast.And)
    assert isinstance(right.items[1], ast.Not)


def test_parens_override_precedence():
    q = parse_query("(X | (a == 1 OR b == 2) AND c == 3)")
    p = q.anchor.predicate
    assert isinstance(p, ast.And)
    assert isinstance(p.items[0], ast.Or)


def test_aggregate_terms():
    q = parse_query("(Publishers | COUNT(publisher <- (Books)) > 10)")
    cmp = q.anchor.predicate
    assert cmp.left == ast.AggTerm("COUNT", "publisher", "Books")
    q2 = parse_query("(Publishers | SUM(publisher <- (Books | price > 10).price) > 50)")
    agg = q2.anchor.predicate.left
    assert agg.func == "SUM" and agg.path == ("price",)
    assert isinstance(agg.predicate, ast.Comparison)


def test_product_definition_statement():
    stmt = parse_statement("Deals = (WriterBooks wb, Sellers s | wb.book == s.book)")
    assert isinstance(stmt, ast.ProductDef)
    assert stmt.name == "Deals"
    assert stmt.body.factors == (
        ast.Factor("WriterBooks", "wb"),
        ast.Factor("Sellers", "s"),
    )


def test_deep_nesting_is_bounded():
    text = "(X | " + "NOT (" * 200 + "a == 1" + ")" * 200 + ")"
    with pytest.raises(ParseError) as exc:
        parse_query(text)
    assert "nesting too deep" in str(exc.value)


def test_error_messages_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_query("(X | a == )")
    msg = str(exc.value)
    assert "line 1" in msg and "column" in msg


def test_end_of_input_is_named():
    with pytest.raises(ParseError) as exc:
        parse_query("(X | a ==")
    assert "end of input" in str(exc.value)


# --- schema DDL -----------------------------------------------------------------


def test_parse_schema_types_and_nullability():
    defs = parse_schema(
        """
        CONCEPT Addresses IDENTITY id INT ENTITY country CHAR(2) NOT NULL;
        CONCEPT Publishers IDENTITY name CHAR(40)
          ENTITY address Addresses, founded DATE, rating DECIMAL(3,1);
        """
    )
    addr, pub = defs
    assert addr.identity_fields[0].type == "integer"
    country = addr.entity_fields[0]
    assert (country.type, country.length, country.nullable) == ("string", 2, False)
    by_name = {f.name: f for f in pub.entity_fields}
    assert by_name["address"].type == "Addresses"
    assert by_name["founded"].type == "date"
    assert by_name["rating"].type == "decimal"
    # entity fields default to nullable, identity fields to NOT NULL
    assert by_name["address"].nullable
    assert not pub.identity_fields[0].nullable


def test_identity_field_cannot_be_declared_null():
    with pytest.raises(ParseError):
        parse_schema("CONCEPT A IDENTITY id INT NULL;")


def test_reference_type_takes_no_parameters():
    with pytest.raises(ParseError) as exc:
        parse_schema(
            "CONCEPT A IDENTITY id INT;"
            "CONCEPT B IDENTITY id INT ENTITY a A(3);"
        )
    assert "takes no parameters" in str(exc.value)


# --- printer ---------------------------------------------------------------------

CANONICAL = [
    "(X | name == 'red') <-*-> (Y)",
    "(Z) -> x -> (X)",
    "(X) <- x <- (Z) -> y -> (Y)",
    "(Books | price < 10 AND NOT title == 'Alpha')",
    "(Books | (price < 10 OR price > 20) AND publisher == 'Springer')",
    "'DE', 'US' <- country <- (Addresses)",
    "(Writers | age < 30) <-* (Deals) *-> (Shops)",
    "(Publishers | COUNT(publisher <- (Books)) > 10)",
    "(Publishers | SUM(publisher <- (Books | price > 10).price) >= 50)",
    "(WriterBooks wb, Sellers s | wb.book == s.book)",
    "(Books) -> publisher -> address -> (Addresses)",
]


@pytest.mark.parametrize("text", CANONICAL)
def test_print_is_canonical(text):
    assert print_query(parse_query(text)) == text


def test_print_canonicalizes_sugar():
    assert print_query(parse_query("GIVEN (X) GET (Y)")) == "(X) <-*-> (Y)"
    assert print_query(parse_query("(X <-*-*> (Y))".replace("(X", "(X)").replace("(Y))", "(Y)"))) == "(X) <-*-> (Y)"
    assert print_query(parse_query("(X WHERE a = 1)")) == "(X | a == 1)"


def test_print_statement_for_products():
    stmt = parse_statement("Deals = (WriterBooks wb, Sellers s | wb.book == s.book)")
    assert print_statement(stmt) == "Deals = (WriterBooks wb, Sellers s | wb.book == s.book)"


def test_print_nested_boolean_grouping():
    p = ast.Or((
        ast.And((
            ast.Comparison("==", ast.PathTerm(("a",)), ast.Literal(1)),
            ast.Or((
                ast.Comparison("==", ast.PathTerm(("b",)), ast.Literal(2)),
                ast.Comparison("==", ast.PathTerm(("c",)), ast.Literal(3)),
            )),
        )),
        ast.Not(ast.And((
            ast.Comparison("==", ast.PathTerm(("d",)), ast.Literal(4)),
            ast.Comparison("==", ast.PathTerm(("e",)), ast.Literal(5)),
        ))),
    ))
    text = print_predicate(p)
    assert text == "a == 1 AND (b == 2 OR c == 3) OR NOT (d == 4 AND e == 5)"


def test_strings_print_with_doubled_quotes():
    lit = ast.Literal("it's")
    assert print_predicate(ast.Comparison("==", ast.PathTerm(("a",)), lit)) == "a == 'it''s'"


# --- resolver ----------------------------------------------------------------------


def test_unknown_collection_reported_with_position(colors_db):
    with pytest.raises(UnknownCollection) as exc:
        colors_db.plan("(Nope)")
    assert "Nope" in str(exc.value) and "line 1" in str(exc.value)


def test_unknown_dimension_reported(colors_db):
    with pytest.raises(UnknownDimension):
        colors_db.plan("(Z) -> nope -> (X)")


def test_wrong_arrival_collection_is_reported(colors_db):
    with pytest.raises(ResolveError) as exc:
        colors_db.plan("(Z) -> x -> (Y)")
    assert "arrives at" in str(exc.value)


def test_omitted_dimension_must_be_unique(parallel_db):
    with pytest.raises(AmbiguousPath):
        parallel_db.plan("(Grades) <- (Reviews)")
    with pytest.raises(AmbiguousPath) as exc:
        parallel_db.plan("(Reviews) -> (Grades)")
    assert "such as first and second;" in str(exc.value)


def test_ambiguous_path_names_two_of_many():
    # 2^20 paths lead from N0 up to N20; the error stops at the second
    db = oracle.ladder_db(20, rng=random.Random(0), size=1)
    for text in ("(N0) -> (N20)", "(N20) <- (N0)"):
        with pytest.raises(AmbiguousPath) as exc:
            db.plan(text)
        assert " and " in str(exc.value)
        assert len(str(exc.value)) < 300


def test_bare_name_prefers_dimension_then_collection(colors_db):
    # x is a dimension of Z; X is a collection reached by it
    up = colors_db.query("(Z) -> x")
    assert up.tag == "X"
    up2 = colors_db.query("(Z) -> X")
    assert up2.tag == "X"


def test_projection_to_a_primitive_field(catalog_db):
    rs = catalog_db.query("(Books | isbn == 'b1') -> publisher -> address -> country")
    assert rs.kind == "primitive"
    assert [r["country"] for r in rs.rows] == ["DE"]


def test_count_with_a_path_is_rejected(catalog_db):
    with pytest.raises(ResolveError):
        catalog_db.plan("(Publishers | COUNT(publisher <- (Books).price) > 1)")


def test_sum_without_a_path_names_count(catalog_db):
    with pytest.raises(NonNumericPath) as exc:
        catalog_db.plan("(Publishers | SUM(publisher <- (Books)) > 1)")
    assert "COUNT" in str(exc.value)


def test_sum_needs_a_numeric_field(catalog_db):
    with pytest.raises(NonNumericPath) as exc:
        catalog_db.plan("(Publishers | SUM(publisher <- (Books).title) > 1)")
    assert str(exc.value) == "line 1, column 15: cannot sum over 'title' of type string"


def test_aggregates_forbidden_in_product_predicates(market_db):
    from comdb.engine import execute_statement

    with pytest.raises(ResolveError):
        execute_statement(
            market_db,
            "Deals = (WriterBooks wb, Sellers s | COUNT(book <- (Sellers)) > 0)",
        )


def test_date_literals_are_typed_against_the_path(library_db):
    # comparing a date field against a string literal parses the literal
    rs = library_db.query("(Writers | age >= 25)")
    assert rs.kind == "collection"


def test_reference_equality_accepts_bare_literal(catalog_db):
    rs = catalog_db.query("(Books | publisher == 'Springer')")
    assert sorted(i[0] for i in rs.identities) == ["b1", "b2"]
    # a path may end in a reference after a hop: it reads the identity there
    rs = catalog_db.query("(Books | publisher.address == 3)")
    assert [i[0] for i in rs.identities] == ["b5"]


def test_composite_reference_literal_is_rejected(market_db):
    # single-field endpoints accept bare literals
    market_db.plan("(Sellers | book == 'b1' AND shop == 's1')")
    # composite endpoints cannot be matched by one literal
    from comdb import engine

    db2 = engine.Database()
    engine.load_schema(db2, """
        CONCEPT P IDENTITY x INT, y INT;
        CONCEPT Q IDENTITY id INT ENTITY p P;
    """)
    with pytest.raises(ResolveError):
        db2.plan("(Q | p == 1)")


def test_null_comparisons_are_false(catalog_db):
    rs = catalog_db.query("(Books | publisher == NULL)")
    assert rs.identities == []
    rs2 = catalog_db.query("(Books | NOT publisher == NULL)")
    assert len(rs2.identities) == 5


def test_literals_are_checked_against_field_types(catalog_db):
    with pytest.raises(ResolveError):
        catalog_db.plan("(Books | title > 5)")


def test_mixed_type_path_comparisons_are_false(catalog_db):
    # title is a string, price a decimal; the comparison quietly fails
    rs = catalog_db.query("(Books | title > price)")
    assert rs.identities == []


def test_predicate_paths_walk_dimensions(catalog_db):
    rs = catalog_db.query("(Books | publisher.address.country == 'DE')")
    assert sorted(i[0] for i in rs.identities) == ["b1", "b2", "b5"]
    # b4 has no publisher: its path reads NULL, so both comparisons are false
    rs = catalog_db.query("(Books | publisher.address.country != 'DE')")
    assert [i[0] for i in rs.identities] == ["b3"]
    rs = catalog_db.query("(Books | NOT publisher.name == 'Wiley')")
    assert sorted(i[0] for i in rs.identities) == ["b1", "b2", "b4", "b5"]


def test_product_predicate_paths_need_alias(market_db):
    from comdb.errors import UnknownAlias
    from comdb.engine import execute_statement

    with pytest.raises(UnknownAlias):
        execute_statement(market_db, "Deals = (WriterBooks wb, Sellers s | book == book)")


def test_literal_anchor_unique_owner(catalog_db):
    rs = catalog_db.query("'DE' <- country <- (Addresses)")
    assert sorted(i[0] for i in rs.identities) == [1, 3]


def test_literal_anchor_bare_field_with_unique_owner(catalog_db):
    rs = catalog_db.query("'DE' <- country")
    assert sorted(i[0] for i in rs.identities) == [1, 3]


def test_literal_anchor_chain_requires_terminal_collection(catalog_db):
    with pytest.raises(ResolveError) as exc:
        catalog_db.plan("'DE' <- country <- address")
    assert "parentheses" in str(exc.value)


def test_literal_anchor_ambiguous_field_is_rejected(colors_db):
    # X and Y both carry a field called name
    with pytest.raises(AmbiguousPath):
        colors_db.plan("'red' <- name")
