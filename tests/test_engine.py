"""Ingest, identity encoding, execution, and rendering."""

import collections
import copy
import csv
import dataclasses
import datetime
import decimal
import gc
import io
import itertools
import json
import operator
import random
import re
from decimal import Decimal
from pathlib import Path

import pytest

import oracle
from conftest import every
from comdb import algebra, engine, model
from comdb.algebra import ElementSet
from comdb.coql.parser import parse_query, parse_schema
from comdb.coql.printer import print_set_expr
from comdb.errors import (ComdbError, FileError, HeaderMismatch, ProductTooLarge, ResolveError,
                          SchemaError, TypeMismatch, UnknownCollection)

SCHEMA = """
CONCEPT Addresses IDENTITY id INT ENTITY country CHAR(2) NOT NULL;
CONCEPT Publishers IDENTITY name CHAR(40) ENTITY address Addresses;
"""

COMPOSITE = """
CONCEPT Slots IDENTITY day DATE, room CHAR(8);
CONCEPT Talks IDENTITY id INT ENTITY slot Slots NOT NULL;
"""


def fresh(text: str = SCHEMA) -> engine.Database:
    db = engine.Database()
    engine.load_schema(db, text)
    return db


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


# --- identity encoding -------------------------------------------------------


def test_scalar_encoding_round_trip():
    assert engine.encode_scalar(Decimal("9.50")) == "9.50"
    assert engine.encode_scalar(datetime.date(2021, 5, 3)) == "2021-05-03"
    assert engine.encode_scalar(7) == "7"


def test_single_field_identity_encodes_bare():
    assert engine.encode_identity((5,)) == "5"
    db = fresh()
    addr = db.schema.concept("Addresses")
    assert engine.decode_identity(addr, "5") == (5,)


def test_composite_identity_parenthesizes_and_escapes():
    enc = engine.encode_identity((1, "x(y)"))
    assert enc == "(1,x((y)))"
    db = fresh(COMPOSITE)
    slots = db.schema.concept("Slots")
    assert engine.decode_identity(slots, "(2021-05-03,r(1))") == (
        datetime.date(2021, 5, 3),
        "r(1)",
    )


def test_composite_decode_rejects_bad_shapes():
    db = fresh(COMPOSITE)
    slots = db.schema.concept("Slots")
    with pytest.raises(model.TypeMismatch):
        engine.decode_identity(slots, "2021-05-03")  # missing parentheses
    with pytest.raises(model.TypeMismatch):
        engine.decode_identity(slots, "(2021-05-03)")  # wrong arity


def test_composite_identity_round_trips_any_text(tmp_path):
    db = fresh("CONCEPT K IDENTITY s CHAR(8), n INT, t CHAR(8), d DATE, x DECIMAL;")
    k = db.schema.concept("K")
    rng = random.Random(31)

    def text():
        return "".join(rng.choice(',()"a \n\r') for _ in range(rng.randint(0, 5)))

    for _ in range(500):
        ident = (text(), rng.randint(-10**6, 10**6), text(),
                 datetime.date.fromordinal(rng.randint(700_000, 740_000)),
                 Decimal(rng.randint(-10**5, 10**5)).scaleb(-2))
        assert engine.decode_identity(k, engine.encode_identity(ident)) == ident
    assert engine.encode_identity(("x,y", "z")) == '("x,y",z)'
    assert engine.decode_identity(k, '(,0,"(,)""",2021-05-03,1.5)') == (
        "", 0, '(,)"', datetime.date(2021, 5, 3), Decimal("1.5"))

    # and through a data file, where the encoded identity is one CSV cell
    db = fresh(COMPOSITE)
    slot = (datetime.date(2021, 5, 3), 'r,1 "(a)"')
    db.insert("Slots", slot)
    f = tmp_path / "Talks.csv"
    with f.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([("id", "slot"), (1, engine.encode_identity(slot))])
    assert engine.load_csv(db, "Talks", f, strict=True).inserted == 1
    assert db.collections["Talks"].element((1,)).entity["slot"] == slot


# --- CSV ingest ---------------------------------------------------------------


def test_load_csv_happy_path(tmp_path):
    db = fresh()
    f = write(tmp_path / "Addresses.csv", "id,country\n1,DE\n2,US\n")
    report = engine.load_csv(db, "Addresses", f)
    assert report.inserted == 2 and report.rejected == []
    assert db.collections["Addresses"].element((2,)).entity["country"] == "US"


def test_load_csv_tolerates_bom_and_any_column_order(tmp_path):
    db = fresh()
    f = tmp_path / "Addresses.csv"
    f.write_bytes("﻿country,id\nDE,1\n".encode("utf-8"))
    report = engine.load_csv(db, "Addresses", f)
    assert report.inserted == 1


def test_load_csv_reads_empty_and_null_as_null(tmp_path):
    db = fresh()
    write(tmp_path / "Addresses.csv", "id,country\n1,DE\n")
    engine.load_csv(db, "Addresses", tmp_path / "Addresses.csv")
    f = write(tmp_path / "Publishers.csv", "name,address\nSpringer,1\nWiley,\nHanser,NULL\n")
    engine.load_csv(db, "Publishers", f)
    assert db.collections["Publishers"].element(("Wiley",)).entity["address"] is None
    assert db.collections["Publishers"].element(("Hanser",)).entity["address"] is None


def test_load_csv_rejects_bad_rows_with_line_numbers(tmp_path):
    db = fresh()
    f = write(
        tmp_path / "Addresses.csv",
        "id,country\n1,DE\nnope,US\n1,US\n2\n2,FR\n",
    )
    report = engine.load_csv(db, "Addresses", f)
    assert report.inserted == 2  # rows 1,DE and 2,FR
    lines = [line for line, _ in report.rejected]
    assert lines == [3, 4, 5]
    messages = " | ".join(msg for _, msg in report.rejected)
    assert "integer" in messages          # nope is not an integer
    assert "already exists" in messages   # duplicate identity
    assert "expected 2" in messages       # short row


def test_load_csv_strict_aborts_on_first_bad_row(tmp_path):
    db = fresh()
    f = write(tmp_path / "Addresses.csv", "id,country\n1,DE\nnope,US\n")
    with pytest.raises(FileError) as exc:
        engine.load_csv(db, "Addresses", f, strict=True)
    assert ":3:" in str(exc.value)


def test_a_load_leaves_no_cycles_and_restores_the_collector(tmp_path):
    # loads pause the cyclic collector, so they must not build cycles: a bad
    # cell's error would otherwise hold its traceback's frames, and them
    db = fresh(COMPOSITE + "CONCEPT M IDENTITY id INT ENTITY d DATE, x DECIMAL;")
    db.insert("Slots", ("2024-05-01", "A"))
    write(tmp_path / "Talks.csv",
          'id,slot\n1,"(2024-05-01,A)"\n2,(2024-05-01)\n3,"(x,A)"\n4,nope\nz,"(2024-05-01,A)"\n')
    write(tmp_path / "M.csv", "id,d,x\n1,2024-13-01,1.5\n2,2024-01-01,NaN\n3,,1.5x\n4,,x\n")
    gc.collect()
    reports = [engine.load_csv(db, "Talks", tmp_path / "Talks.csv"),
               engine.load_csv(db, "M", tmp_path / "M.csv")]
    assert [(r.inserted, len(r.rejected)) for r in reports] == [(1, 4), (0, 4)]
    assert gc.collect() == 0
    assert gc.isenabled()
    with pytest.raises(FileError):
        engine.load_csv(db, "M", tmp_path / "M.csv", strict=True)
    assert gc.isenabled()
    gc.disable()
    try:  # a caller's paused collector stays paused
        engine.load_csv(db, "M", tmp_path / "M.csv")
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_load_csv_strict_failure_rolls_back_the_file(tmp_path):
    db = fresh("CONCEPT A IDENTITY id INT; CONCEPT P IDENTITY id INT ENTITY a A;")
    for i in (1, 2):
        db.insert("A", i)
    db.insert("P", 0, {"a": 1})
    f = write(tmp_path / "P.csv", "id,a\n1,2\n2,2\n3,9\n")
    with pytest.raises(FileError) as exc:
        engine.load_csv(db, "P", f, strict=True)
    assert ":4:" in str(exc.value)
    assert db.collections["P"].ids == [(0,)] and db.collections["A"].ids == [(1,), (2,)]
    assert [r["id"] for r in db.query("(P)").rows] == [0]
    assert db.query("(A) <-* (P)").identities == [(0,)]
    # the whole-collection image reads the reverse index's keys
    assert db.query("(P) *-> (A)").identities == [(1,)]
    assert db.query("(P) -> a").identities == [(1,)]
    write(tmp_path / "P.csv", "id,a\n1,2\n2,2\n")
    assert engine.load_csv(db, "P", f, strict=True).inserted == 2
    assert db.query("(P) *-> (A)").identities == [(1,), (2,)]


def test_failed_load_data_dir_rolls_back_every_file(tmp_path):
    db = fresh("CONCEPT A IDENTITY id INT; CONCEPT P IDENTITY id INT ENTITY a A NOT NULL;")
    db.insert("A", 0)
    db.insert("P", 0, {"a": 0})
    write(tmp_path / "A.csv", "id\n1\n2\n")
    write(tmp_path / "P.csv", "id,a\n1,1\n2,9\n")
    with pytest.raises(FileError) as exc:
        engine.load_data_dir(db, tmp_path, strict=True)
    assert "P.csv:3" in str(exc.value)
    assert db.collections["A"].ids == [(0,)] and db.collections["P"].ids == [(0,)]
    assert db.query("(A)").identities == [(0,)]
    assert db.query("(P)").identities == [(0,)]
    assert db.query("(P) *-> (A)").identities == [(0,)]
    write(tmp_path / "P.csv", "id,a\n1,1\n2,2\n")
    reports, _ = engine.load_data_dir(db, tmp_path, strict=True)
    assert [r.inserted for r in reports] == [2, 2]
    assert db.query("(A) <-* (P)").identities == [(0,), (1,), (2,)]


@pytest.mark.parametrize("cell", ["NaN", "sNaN", "-nan", "Infinity", "-Inf"])
def test_decimal_rejects_non_finite_values(tmp_path, cell):
    db = fresh("CONCEPT A IDENTITY id INT ENTITY amount DECIMAL(8,2);")
    f = write(tmp_path / "A.csv", f"id,amount\n1,2.5\n2,{cell}\n")
    with pytest.raises(FileError, match="not a finite decimal"):
        engine.load_csv(db, "A", f, strict=True)
    report = engine.load_csv(db, "A", f)
    assert report.inserted == 1 and "not a finite decimal" in report.rejected[0][1]
    for value in (cell, Decimal(cell)):
        with pytest.raises(TypeMismatch, match="not a finite decimal"):
            db.insert("A", 3, {"amount": value})
    assert db.query("(A | amount < 5)").identities == [(1,)]
    assert db.query("(A) -> amount").identities == [Decimal("2.5")]


@pytest.mark.parametrize("text", ["20240101", "2024-W01-1"])
def test_date_text_is_yyyy_mm_dd_on_every_python(tmp_path, text):
    """date.fromisoformat reads these on Python 3.11 but not on 3.10: insert, CSV
    load and a COQL literal reject them everywhere, each with the error 3.10 gives."""
    db = fresh("CONCEPT A IDENTITY id INT ENTITY d DATE;")
    db.insert("A", 1, {"d": "2024-01-01"})
    with pytest.raises(TypeMismatch, match=f"A.d: '{text}' is not an ISO date"):
        db.insert("A", 2, {"d": text})
    f = write(tmp_path / "A.csv", f"id,d\n3,2024-01-02\n4,{text}\n")
    report = engine.load_csv(db, "A", f)
    assert report.inserted == 1
    assert report.rejected == [(3, f"A.d: '{text}' is not an ISO date")]
    with pytest.raises(FileError, match=f"'{text}' is not an ISO date"):
        engine.load_csv(db, "A", write(tmp_path / "B.csv", f"id,d\n5,{text}\n"), strict=True)
    with pytest.raises(ResolveError, match=f"'{text}' is not an ISO date"):
        db.query(f"(A | d == '{text}')")
    assert db.query("(A | d == '2024-01-02')").identities == [(3,)]


def test_signed_and_exponent_literals_reach_stored_values():
    db = fresh("CONCEPT A IDENTITY id INT ENTITY v DECIMAL, n INT;"
               "CONCEPT B IDENTITY id INT ENTITY a A;")
    for i, (v, n) in enumerate((("-1.5", -3), ("1E+3", 0), ("2.5", 7))):
        db.insert("A", i - 1, {"v": v, "n": n})
        db.insert("B", i, {"a": i - 1})
    assert db.query("(A | id == -1)").identities == [(-1,)]  # a seek on the identity
    assert db.query("(A | n == -3)").identities == [(-1,)]
    assert db.query("(A | v < -1)").identities == [(-1,)]
    assert db.query("(A | v == 1e3 AND n > -1)").identities == [(0,)]
    assert db.query("(A | v >= 1E+3)").identities == [(0,)]
    assert db.query("(A | SUM(a <- (B).id) > -1 AND v <= 25e-1)").identities == [(-1,), (1,)]
    assert db.query("-3, 7 <- n <- (A)").identities == [(-1,), (1,)]


@pytest.mark.parametrize("strict", [False, True])
def test_load_csv_reports_a_byte_that_is_not_utf8(tmp_path, strict):
    db = fresh()
    f = tmp_path / "Addresses.csv"
    f.write_bytes(b"id,country\n1,DE\n2,\xff\n3,FR\n")
    with pytest.raises(FileError, match=r"Addresses.csv:3: byte 0xff is not UTF-8"):
        engine.load_csv(db, "Addresses", f, strict=strict)
    assert db.collections["Addresses"].ids == []


@pytest.mark.parametrize("strict", [False, True])
def test_load_csv_reports_a_cell_past_the_field_limit(tmp_path, strict):
    db = fresh()
    f = write(tmp_path / "Addresses.csv", "id,country\n1,DE\n2,US\n3," + "x" * 131_073 + "\n")
    with pytest.raises(FileError, match=r"Addresses.csv:4: field larger than field limit"):
        engine.load_csv(db, "Addresses", f, strict=strict)
    assert db.collections["Addresses"].ids == []


def test_load_csv_header_must_match_fields(tmp_path):
    db = fresh()
    for body in (
        "id\n1\n",                     # missing field
        "id,country,extra\n1,DE,x\n",  # unknown field
        "id,country,id\n1,DE,1\n",     # duplicated header
    ):
        f = write(tmp_path / "Addresses.csv", body)
        with pytest.raises(HeaderMismatch):
            engine.load_csv(db, "Addresses", f)


def test_load_csv_empty_file_is_a_header_error(tmp_path):
    db = fresh()
    f = write(tmp_path / "Addresses.csv", "")
    with pytest.raises(HeaderMismatch):
        engine.load_csv(db, "Addresses", f)


def test_load_csv_unknown_collection(tmp_path):
    db = fresh()
    f = write(tmp_path / "Nope.csv", "id\n1\n")
    with pytest.raises(UnknownCollection):
        engine.load_csv(db, "Nope", f)


def test_load_csv_of_a_path_that_cannot_be_opened(tmp_path):
    path = tmp_path / "missing.csv"
    with pytest.raises(FileError) as exc:
        engine.load_csv(fresh(), "Addresses", path)
    assert str(exc.value).startswith(f"cannot read {path}: ")


def test_a_database_without_a_schema_says_so(tmp_path):
    db = engine.Database()
    write(tmp_path / "Addresses.csv", "id,country\n1,DE\n")
    calls = {
        "load_csv": lambda: engine.load_csv(db, "Addresses", tmp_path / "Addresses.csv"),
        "load_data_dir": lambda: engine.load_data_dir(db, tmp_path),
        "plan": lambda: db.plan("(Addresses)"),
        "execute_statement": lambda: engine.execute_statement(db, "(Addresses)"),
    }
    for name, call in calls.items():
        with pytest.raises(SchemaError) as exc:
            call()
        assert (type(exc.value), str(exc.value)) == (SchemaError, "no schema loaded"), name


def test_a_database_takes_one_schema():
    db = engine.Database(model.build_schema(parse_schema(SCHEMA)))
    db.insert("Addresses", 1, {"country": "DE"})
    assert db.query("(Addresses | country == 'DE')").identities == [(1,)]
    with pytest.raises(SchemaError) as exc:
        engine.load_schema(db, SCHEMA)
    assert str(exc.value) == "a schema is already loaded"
    assert engine.load_schema(engine.Database(), "") == engine.SchemaSummary(
        0, 0, ("schema defines no concepts",))


def test_a_composite_reference_with_a_line_break_outside_quotes_is_rejected(tmp_path):
    db = fresh(COMPOSITE)
    write(tmp_path / "Slots.csv", "day,room\n2021-05-03,r1\n")
    engine.load_csv(db, "Slots", tmp_path / "Slots.csv")
    # the cell is quoted, but the line break is outside quotes inside the reference
    f = write(tmp_path / "Talks.csv", 'id,slot\n1,"(2021-05-03,r\n1)"\n2,"(2021-05-03,r1)"\n')
    report = engine.load_csv(db, "Talks", f)
    assert report.inserted == 1
    assert report.rejected == [(3, "reference to 'Slots' has a line break outside quotes")]


def test_load_csv_composite_references(tmp_path):
    db = fresh(COMPOSITE)
    write(tmp_path / "Slots.csv", "day,room\n2021-05-03,r1\n")
    engine.load_csv(db, "Slots", tmp_path / "Slots.csv")
    f = write(tmp_path / "Talks.csv", "id,slot\n1,\"(2021-05-03,r1)\"\n")
    report = engine.load_csv(db, "Talks", f)
    assert report.inserted == 1
    talk = db.collections["Talks"].element((1,))
    assert talk.entity["slot"] == (datetime.date(2021, 5, 3), "r1")


def test_load_order_visits_greater_collections_first(market_db):
    order = market_db.schema.order
    assert order == ("Books", "Shops", "Sellers", "Writers", "WriterBooks")
    pos = {name: i for i, name in enumerate(order)}
    for d in market_db.schema.dimensions:
        assert pos[d.destination] < pos[d.source]


def test_load_data_dir_reports_and_unmatched(tmp_path):
    db = fresh()
    write(tmp_path / "Addresses.csv", "id,country\n1,DE\n")
    write(tmp_path / "Publishers.csv", "name,address\nSpringer,1\n")
    write(tmp_path / "Readme.csv", "a\n1\n")
    reports, unmatched = engine.load_data_dir(db, tmp_path)
    assert [r.collection for r in reports] == ["Addresses", "Publishers"]
    assert unmatched == ["Readme"]
    with pytest.raises(FileError):
        engine.load_data_dir(db, tmp_path / "missing")


# --- statement execution ----------------------------------------------------------


def test_execute_statement_routes_products_and_queries(market_db):
    kind, pc = engine.execute_statement(
        market_db, "Deals = (WriterBooks wb, Sellers s | wb.book == s.book)"
    )
    assert kind == "product" and pc.name == "Deals"
    market_db.register_product(pc)
    kind2, rs = engine.execute_statement(market_db, "(Deals)")
    assert kind2 == "result"
    assert rs.kind == "product" and rs.columns == ("wb", "s")
    assert rs.identities == [((1,), (10,)), ((2,), (20,))]


PAIRS = """
CONCEPT A IDENTITY id INT;
CONCEPT B IDENTITY id INT;
CONCEPT C IDENTITY id INT;
"""


def test_a_product_past_the_pair_bound_raises_before_enumerating(monkeypatch):
    db = fresh(PAIRS)
    for i in range(4):
        db.insert("A", i)
    for i in range(3):
        db.insert("B", i)
        db.insert("C", i)
    engine.execute_statement(db, "P = (A a, B b)")
    monkeypatch.setattr(algebra, "MAX_PRODUCT_PAIRS", 11)
    with pytest.raises(ProductTooLarge, match=r"^product '\(A a, B b\)' of A a \(4\) x "
                       r"B b \(3\) would examine 12 pairs, more than the 11 allowed$"):
        db.query("(A a, B b)")
    calls = []
    db.register_product(algebra.make_product(
        "Q", [("a", "A"), ("b", "B")], lambda db, subject: calls.append(subject) or True))
    for query in ("(P)", "(Q)", "(A a, B b | a.id == b.id)",
                  "(C) <-*-> (P)"):  # independent: the whole product would be the answer
        with pytest.raises(ProductTooLarge, match="12 pairs"):
            db.query(query)
    assert calls == []  # no pair was examined
    # a restricted factor counts its restriction: 2 x 3 pairs
    assert len(db.query("(A | id < 2) <-* (P)")) == 6
    monkeypatch.setattr(algebra, "MAX_PRODUCT_PAIRS", 12)
    assert len(db.query("(A a, B b)")) == 12


def test_register_product_rejects_a_collection_name(market_db):
    clash = algebra.make_product("Shops", [("wb", "WriterBooks"), ("s", "Sellers")])
    with pytest.raises(ResolveError, match="'Shops' is already a collection"):
        market_db.register_product(clash)
    assert "Shops" not in market_db.products
    assert market_db.query("(Shops)").kind == "collection"


def test_register_product_rejects_an_unknown_factor_collection(market_db):
    unknown = algebra.make_product("P", [("x", "Nope"), ("s", "Sellers")])
    with pytest.raises(UnknownCollection, match="^unknown collection 'Nope'$"):
        market_db.register_product(unknown)
    assert "P" not in market_db.products
    with pytest.raises(UnknownCollection, match="unknown collection 'P'$"):
        market_db.query("(P)")


def test_a_registered_product_narrowed_by_a_query(market_db):
    """(P | q) holds the members of P registered with q conjoined to its own
    predicate, or with q alone when P has none; as an anchor and as a '<-*'
    target."""
    db = market_db
    for own in (" | wb.book == s.book", ""):
        both = f"{own} AND s.shop == 's1'" if own else " | s.shop == 's1'"
        engine.execute_statement(db, f"P = (WriterBooks wb, Sellers s{own})")
        engine.execute_statement(db, f"Q = (WriterBooks wb, Sellers s{both})")
        for text in ("({})", "(Writers) <-* ({})"):
            got = db.query(text.format("P | s.shop == 's1'")).identities
            assert got == db.query(text.format("Q")).identities, (own, text)
            assert 0 < len(got) < len(db.query(text.format("P"))), (own, text)


def test_a_product_predicate_reads_a_factors_own_field(library_db):
    """(Writers w, Publishers p | w.age > 30) is (Writers | age > 30) times
    every Publishers, as an anchor and as a '<-*' target."""
    older = library_db.query("(Writers | age > 30)").identities
    assert 0 < len(older) < len(library_db.query("(Writers)"))
    want = [(w, p) for w in older for p in library_db.query("(Publishers)").identities]
    product = "(Writers w, Publishers p | w.age > 30)"
    for text in (product, f"(Writers) <-* {product}"):
        assert library_db.query(text).identities == want, text


def test_identical_warnings_are_deduplicated(market_db):
    rs = market_db.query("(Writers | age < 30) <-*-> (Shops) <-*-> (Writers)")
    assert rs.warnings == (algebra.INDEPENDENT_WARNING,)


def test_results_are_sorted_by_identity(catalog_db):
    rs = catalog_db.query("(Books)")
    assert [i[0] for i in rs.identities] == ["b1", "b2", "b3", "b4", "b5"]


def test_results_sort_by_identity_whatever_the_row_order(tmp_path):
    # rows sort as ints only while row order is identity order: a CSV in
    # descending order, and an insert below a sorted load, both end that
    db = fresh("CONCEPT A IDENTITY id INT ENTITY n INT;"
               "CONCEPT B IDENTITY k CHAR(4), id INT ENTITY a A;")
    write(tmp_path / "A.csv", "id,n\n" + "".join(f"{i},{i % 3}\n" for i in range(19, -1, -1)))
    write(tmp_path / "B.csv", "k,id,a\n" + "".join(
        f"{k},{i},{(7 * i) % 20 if i % 4 else ''}\n" for k in ("m", "p") for i in range(12)))
    engine.load_data_dir(db, tmp_path, strict=True)
    coll_a, coll_b = db.collections["A"], db.collections["B"]
    assert not coll_a.ordered and coll_b.ordered

    def check():
        reach = oracle.reach_closure(db)
        every_a, every_b = frozenset(coll_a.elements), frozenset(coll_b.elements)
        some_a = frozenset(i for i in every_a if i[0] < 9)
        some_b = frozenset(i for i in every_b if i[1] > 4)
        for query, want in [
            ("(A)", every_a),
            ("(A | id < 9)", some_a),
            ("(A | n == 1)", frozenset(i for i in every_a if i[0] % 3 == 1)),
            ("(B)", every_b),
            ("(B | id > 4)", some_b),
            ("(B | id > 4) *-> (A)", oracle.o_star_project(db, reach, "B", some_b, "A")),
            ("(A | id < 9) <-* (B)", oracle.o_star_deproject(db, reach, "A", some_a, "B")),
        ]:
            rs = db.query(query)
            assert rs.identities == sorted(want), query
            assert rs.rows == oracle.o_rows(db, ElementSet(rs.tag, want)), query

    check()
    db.insert("B", ("a", 3), {"a": 5})  # below every stored B
    assert not coll_b.ordered and coll_b.ids[-1] == ("a", 3)
    check()
    db.insert("A", 20)  # an A above the rest leaves A unordered
    assert not coll_a.ordered
    check()


def _random_path(rng, db, concept: str, hops: int = 0) -> str:
    """id, v or a reference of concept, or a dotted path through a reference."""
    c = db.schema.concept(concept)
    refs = oracle.o_references(c)
    if refs and hops < 2 and rng.random() < 0.35:
        f = rng.choice(refs)
        return f"{f.name}.{_random_path(rng, db, f.type, hops + 1)}"
    return rng.choice(["id"] + [f.name for f in c.entity_fields])


def _random_term(rng, db, concept: str, depth: int) -> str:
    r = rng.random()
    if r < 0.3:
        return "NULL" if rng.random() < 0.15 else str(rng.randint(0, 52))
    into = db.schema.dimensions_into(concept)
    if r < 0.45 and into and depth < 2:
        d = rng.choice(into)
        inner = ""
        if rng.random() < 0.5:
            inner = f" | {_random_predicate(rng, db, d.source, depth + 1)}"
        if db.schema.concept(d.source).field("v") and rng.random() < 0.5:
            return f"SUM({d.name} <- ({d.source}{inner}).v)"
        return f"COUNT({d.name} <- ({d.source}{inner}))"
    return _random_path(rng, db, concept)


def _random_predicate(rng, db, concept: str, depth: int = 0) -> str:
    r = rng.random()
    if depth < 3 and r < 0.15:
        return f"NOT ({_random_predicate(rng, db, concept, depth + 1)})"
    if depth < 3 and r < 0.35:
        items = [_random_predicate(rng, db, concept, depth + 1)
                 for _ in range(rng.randint(2, 3))]
        return "(" + rng.choice([" AND ", " OR "]).join(items) + ")"
    op = rng.choice(["==", "!=", "<", "<=", ">", ">="])
    return (f"{_random_term(rng, db, concept, depth)} {op} "
            f"{_random_term(rng, db, concept, depth)}")


def test_filter_predicates_match_the_oracle():
    """(C | p) selects exactly the elements o_holds accepts, on random data."""
    rng = random.Random(4711)
    seen = dict.fromkeys(("COUNT(", "SUM(", "NULL", "NOT", " AND ", " OR ", "."), 0)
    partial = 0
    for _ in range(80):
        db = oracle.random_db(rng, max_elements=80)
        for _ in range(10):
            concept = rng.choice(list(db.schema.concepts))
            query = f"({concept} | {_random_predicate(rng, db, concept)})"
            pred = parse_query(query).anchor.predicate
            elements = oracle.views(db, concept)
            want = sorted(i for i, el in elements.items() if oracle.o_holds(db, el, pred))
            assert db.query(query).identities == want, query
            partial += 0 < len(want) < len(elements)
            for k in seen:
                seen[k] += k in query
    assert min(seen.values()) >= 20, seen
    assert partial >= 200


def _literal(value) -> str:
    """COQL text of a stored value; a reference reads as its single-field identity."""
    return str(value[0] if isinstance(value, tuple) else value)


def _random_equality(rng, db, el, alias: str | None):
    """`path == constant` on el's concept, the constant mostly the value el has.

    Returns the comparison's text and the kind of path it compares.
    """
    concept = el.collection
    c = db.schema.concept(concept)
    if alias is not None and rng.random() < 0.2:
        path = alias
    else:
        path = _random_path(rng, db, concept)
    parts = [p for p in path.split(".") if p != alias]
    value, _ = oracle.o_path(db, el, parts)
    if value is None or rng.random() < 0.15:
        text = str(rng.randint(0, 52))
    else:
        text = _literal(value)
    if alias is not None and parts and rng.random() < 0.5:
        path = f"{alias}.{path}"
    if not parts:
        kind = "alias"
    elif "." in path.removeprefix(f"{alias}."):
        kind = "dotted"
    elif parts[0] == "id":
        kind = "identity"
    elif c.field(parts[0]).is_primitive:
        kind = "entity"
    else:
        kind = "reference"
    if isinstance(value, Decimal) and "." not in text:
        kind += "+decimal-int"
    pair = (path, text) if rng.random() < 0.7 else (text, path)
    return f"{pair[0]} == {pair[1]}", kind


def test_equality_seeks_match_the_oracle():
    """(C | path == constant AND ...) answers as the oracle does, and its seeks
    alone reach exactly the elements the equalities hold for."""
    rng = random.Random(2718)
    seen: dict = {}
    found = 0
    for n in range(80):
        db = oracle.random_db(rng, max_elements=80, value_type="DECIMAL" if n % 2 else "INT")
        for _ in range(10):
            concept = rng.choice(list(db.schema.concepts))
            alias = "a" if rng.random() < 0.4 else None
            el = rng.choice(list(oracle.views(db, concept).values()))
            equalities = []
            for _ in range(rng.choice((1, 1, 2, 3))):
                text, kind = _random_equality(rng, db, el, alias)
                equalities.append(text)
                seen[kind] = seen.get(kind, 0) + 1
            seen["two or more"] = seen.get("two or more", 0) + (len(equalities) > 1)
            rest = [f"NOT ({_random_predicate(rng, db, concept)})"] if rng.random() < 0.6 else []
            head = f"({concept} a | " if alias else f"({concept} | "
            query = head + " AND ".join(equalities + rest) + ")"
            elements = oracle.views(db, concept)

            def oracle_says(q):
                pred = parse_query(q).anchor.predicate
                return sorted(i for i, el in elements.items()
                              if oracle.o_holds(db, el, pred, alias))

            plan = db.plan(query)
            assert len(plan.anchor.seeks) == len(equalities), query
            want = oracle_says(query)
            assert engine.execute(db, plan).identities == want, query
            seeks_alone = dataclasses.replace(plan.anchor, residual=None)
            got = engine.execute(db, dataclasses.replace(plan, anchor=seeks_alone)).identities
            assert got == oracle_says(head + " AND ".join(equalities) + ")"), query
            found += bool(want)
    for kind in ("identity", "entity", "dotted", "reference", "alias", "two or more"):
        assert seen.get(kind, 0) >= 20, seen
    assert sum(v for k, v in seen.items() if k.endswith("+decimal-int")) >= 20, seen
    assert found >= 300


# identity types of the access-path test, and how a constant of each is written
_BOUND_TYPES = ("INT", "DECIMAL", "CHAR(12)", "DATE")
_ORDERINGS = ("<", "<=", ">", ">=")


def _bound_db(rng, id_type: str):
    """G (tags) above C (identity of id_type, a reference to G, an INT v).

    C's elements arrive in identity order, so C is ordered; now and then
    one more with a smaller identity arrives after them and C is not.
    Returns the database and C's identity values, as rich_value makes them
    from their ints.
    """
    db = engine.Database()
    engine.load_schema(db, f"""
        CONCEPT G IDENTITY id INT ENTITY tag CHAR(4);
        CONCEPT C IDENTITY id {id_type} ENTITY g G, v INT;
    """)
    for k in range(6):
        db.insert("G", k, {"tag": f"t{k % 3}"})
    ftype = db.schema.concept("C").identity_fields[0].type
    keys = {k: oracle.rich_value(ftype, k) for k in rng.sample(range(60), rng.randint(0, 40))}

    def entity():
        return {"g": None if rng.random() < 0.15 else rng.randrange(6),
                "v": None if rng.random() < 0.15 else rng.randrange(8)}

    for k in sorted(keys, key=keys.get):
        db.insert("C", keys[k], entity())
    if keys and rng.random() < 0.4:
        k = -rng.randint(1, 9)
        keys[k] = oracle.rich_value(ftype, k)
        db.insert("C", keys[k], entity())
    return db, ftype, keys


def _bound_constant(rng, ftype: str, keys: dict) -> tuple[str, object, str]:
    """COQL text of a constant to bound C's identity by, its value, and its kind.

    Mostly a stored identity, so `<` and `<=` differ; else one between or
    past them.  An INT identity gets now and then a DECIMAL constant, and
    a DECIMAL identity an INT one.
    """
    k = rng.choice(list(keys)) if keys and rng.random() < 0.6 else rng.randint(-12, 70)
    value = oracle.rich_value(ftype, k)
    if ftype == "integer" and rng.random() < 0.3:
        text = f"{k}.{rng.choice((0, 5))}"
        return text, Decimal(text), "decimal constant"
    if ftype == "decimal" and value == value.to_integral_value() and rng.random() < 0.5:
        return str(int(value)), value, "int constant"
    if ftype in ("string", "date"):
        return "'" + str(value).replace("'", "''") + "'", value, "constant"
    return str(value), value, "constant"


def _access_conjunct(rng, ftype: str, keys: dict, ident: str) -> tuple[str, str]:
    """A conjunct over C and which access path should answer it: a bound
    (by the kind of its constant), a seek or the residual."""
    r = rng.random()
    op = rng.choice(_ORDERINGS)
    c, _, kind = _bound_constant(rng, ftype, keys)
    if r < 0.45:
        text = f"{ident} {op} {c}" if rng.random() < 0.5 else f"{c} {op} {ident}"
        return text, f"bound, {kind}"
    if r < 0.6:
        return rng.choice((f"g.tag == 't{rng.randrange(4)}'", f"v == {rng.randrange(9)}",
                           f"g == {rng.randrange(7)}", f"{ident} == {c}")), "seek"
    return rng.choice((f"NOT ({ident} {op} {c})", f"({ident} {op} {c} OR v == {rng.randrange(8)})",
                       f"NOT (v < {rng.randrange(8)})", f"{ident} != {c}", f"{ident} {op} NULL",
                       f"(g.tag == 't1' OR {ident} {op} {c})", f"v {op} {rng.randrange(8)}")), \
        "residual"


def test_access_paths_match_the_oracle():
    """(C | p) answers as the oracle does when p's conjuncts split into seeks,
    identity bounds and a residual, on INT, DECIMAL, CHAR and DATE identities,
    with C ordered (bounds bisect the rows) and not (each row is compared)."""
    rng = random.Random(1979)
    seen = collections.Counter()
    for n in range(160):
        db, ftype, keys = _bound_db(rng, _BOUND_TYPES[n % 4])
        coll = db.collections["C"]
        elements = oracle.views(db, "C")
        for _ in range(12):
            alias = "c" if rng.random() < 0.3 else None
            ident = "c.id" if alias and rng.random() < 0.7 else "id"
            parts = [_access_conjunct(rng, ftype, keys, ident) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.2:  # an interval, `id > a AND id < b`, often inverted
                a, lo, kind_a = _bound_constant(rng, ftype, keys)
                b, hi, kind_b = _bound_constant(rng, ftype, keys)
                parts += [(f"{ident} > {a}", f"bound, {kind_a}"),
                          (f"{b} > {ident}", f"bound, {kind_b}")]
                seen["inverted interval" if lo >= hi else "interval"] += 1
            texts = [t for t, _ in parts]
            if len(texts) > 2 and rng.random() < 0.3:  # a nested AND is still top level
                texts = [f"({texts[0]} AND {texts[1]})", *texts[2:]]
            query = f"(C {alias} | " if alias else "(C | "
            query += " AND ".join(texts) + ")"
            pred = parse_query(query).anchor.predicate
            want = sorted(i for i, el in elements.items() if oracle.o_holds(db, el, pred, alias))
            plan = db.plan(query)
            kinds = collections.Counter(k.partition(",")[0] for _, k in parts)
            assert len(plan.anchor.bounds) == kinds["bound"], query
            assert len(plan.anchor.seeks) == kinds["seek"], query
            assert (plan.anchor.residual is None) == (not kinds["residual"]), query
            assert engine.execute(db, plan).identities == want, query
            if plan.anchor.bounds:
                seen["ordered" if coll.ordered else "unordered"] += 1
                seen[ftype] += 1
                seen["bounds and seeks"] += bool(plan.anchor.seeks)
                seen["bounds and residual"] += plan.anchor.residual is not None
                seen["empty"] += not want
                seen["partial"] += 0 < len(want) < len(elements)
                seen.update(k for _, k in parts if k.endswith(("decimal constant", "int constant")))
    assert min(seen.values()) >= 20, seen


def _rich_literal(value) -> str | None:
    """COQL text of a stored value of a rich database, or None: NULL and a
    composite identity get none; a date is its ISO string."""
    if value is None:
        return None
    if isinstance(value, tuple):
        if len(value) != 1:
            return None
        value = value[0]
    if isinstance(value, datetime.date):
        value = value.isoformat()
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return str(value)


def _rich_anchor(rng, db, concept: str) -> str:
    """(concept | ...) with `path == value` conjuncts (seeks) taking one element's
    values, and now and then a random predicate; one that does not resolve
    against the rich types is drawn again, then left out."""
    el = rng.choice(list(oracle.views(db, concept).values()))
    conjuncts = []
    for _ in range(rng.choice((0, 1, 1, 2))):
        path = _random_path(rng, db, concept)
        text = _rich_literal(oracle.o_path(db, el, path.split("."))[0])
        if text is not None:
            conjuncts.append(f"{path} == {text}")
    for _ in range(5 if rng.random() < 0.5 else 0):
        extra = _random_predicate(rng, db, concept)
        try:
            db.plan(f"({concept} | {extra})")
        except ResolveError:
            continue
        conjuncts.append(extra)
        break
    return f"({concept} | {' AND '.join(conjuncts)})" if conjuncts else f"({concept})"


def _insert_more(rng, db) -> int:
    """Insert a few fresh elements, identities above and below the stored ones."""
    done = 0
    for cname in sorted(db.schema.concepts, key=lambda s: -int(s[1:])):
        concept = db.schema.concepts[cname]
        for _ in range(rng.randint(0, 3)):
            k = rng.choice((rng.randint(300, 400), -rng.randint(1, 50)))
            ident = tuple(oracle.rich_value(f.type, k) for f in concept.identity_fields)
            if ident in db.collections[cname].elements:
                continue
            entity = {}
            for f in concept.entity_fields:
                if not f.is_primitive:
                    if not f.nullable or rng.random() < 0.75:
                        entity[f.name] = rng.choice(list(db.collections[f.type].elements))
                elif not f.nullable or rng.random() < 0.8:
                    entity[f.name] = oracle.rich_value(f.type, rng.randint(0, 50))
            db.insert(cname, ident, entity)
            done += 1
    return done


def test_row_runner_matches_the_oracle():
    """Queries run on rows answer as the oracle's closures do, on rich random
    databases: NULL references, composite identities, seeks, filters, product
    legs both ways, and inserts after a first query."""
    rng = random.Random(5150)
    seen = collections.Counter()
    for n in range(40):
        db = oracle.random_db(rng, max_concepts=5, max_elements=50, rich=True)
        names = sorted(db.schema.concepts)
        pa, pb = rng.sample(names, 2)
        modulus = rng.choice((2, 3))

        def pair(db, m):
            a, b = db.collections[pa].ids[m["a"]], db.collections[pb].ids[m["b"]]
            return (len(str(a)) + len(str(b))) % modulus == 0

        db.register_product(algebra.make_product("P", [("a", pa), ("b", pb)], pair))
        seen["null refs"] += any(-1 in c.columns[name] for c in db.collections.values()
                                 for name in c.refs)
        seen["composite"] += any(len(c.concept.identity_fields) > 1
                                 for c in db.collections.values())
        for phase in range(2):
            if phase:
                seen["inserted"] += _insert_more(rng, db)
                seen["unordered"] += not all(c.ordered for c in db.collections.values())
            reach = oracle.reach_closure(db)
            rel = oracle.concept_below(db)
            els = {c: db.collections[c].elements for c in (pa, pb)}
            product = frozenset((x, y) for x in els[pa] for y in els[pb]
                                if pair(db, {"a": els[pa][x], "b": els[pb][y]}))
            for _ in range(12):
                src = rng.choice(names)
                anchor = _rich_anchor(rng, db, src)
                seen["seek"] += "==" in anchor
                seen["date seek"] += bool(re.search(r"== '\d{4}-\d\d-\d\d'", anchor))
                pred = parse_query(anchor).anchor.predicate
                elements = oracle.views(db, src)
                members = frozenset(i for i, el in elements.items()
                                    if pred is None or oracle.o_holds(db, el, pred))
                assert db.query(anchor).identities == sorted(members), anchor
                target = rng.choice(names)
                want, _ = oracle.o_infer(db, reach, src, members, target)
                got = db.query(f"{anchor} <-*-> ({target})")
                assert got.identities == sorted(want), (anchor, target)
                assert algebra.infer(db, ElementSet(src, members), target).members == want
                seen["nonempty"] += bool(want)
                # down into the product from src, then up again to target
                ways = [k for k, c in enumerate((pa, pb)) if c == src or c in rel["below"][src]]
                if ways:
                    low = {c: oracle.o_star_deproject(db, reach, src, members, c)
                           for c in (pa, pb)}
                    down = frozenset(m for m in product
                                     if any(m[k] in low[(pa, pb)[k]] for k in ways))
                else:
                    down = product
                got = db.query(f"{anchor} <-*-> (P)")
                assert got.identities == sorted(down), anchor
                assert bool(ways) != bool(got.warnings), anchor
                seen["product down"] += 0 < len(down) < len(product)
                ups = [k for k, c in enumerate((pa, pb)) if c == target or target in rel["above"][c]]
                if ups:
                    up = frozenset().union(*(oracle.o_star_project(
                        db, reach, (pa, pb)[k], {m[k] for m in down}, target) for k in ups))
                else:
                    up = frozenset(db.collections[target].elements)
                got = db.query(f"{anchor} <-*-> (P) <-*-> ({target})")
                assert got.identities == sorted(up), (anchor, target)
                seen["product up"] += bool(ups) and bool(up)
    assert min(seen.values()) >= 10, seen


def _rich_conjunct(rng, db, concept: str, depth: int = 0) -> str:
    """A conjunct on concept: a path equal to one element's value, a bound on
    its identity field id, or now and then an OR or a NOT of such."""
    r = rng.random()
    if depth == 0 and r < 0.15:
        return f"NOT ({_rich_conjunct(rng, db, concept, 1)})"
    if depth == 0 and r < 0.3:
        return f"({_rich_conjunct(rng, db, concept, 1)} OR {_rich_conjunct(rng, db, concept, 1)})"
    if r < 0.6:
        path = _random_path(rng, db, concept)
        el = rng.choice(list(oracle.views(db, concept).values()))
        return f"{path} == {_rich_literal(oracle.o_path(db, el, path.split('.'))[0]) or 'NULL'}"
    return f"id {rng.choice(_ORDERINGS)} {rng.randint(-3, 60)}"


def test_constant_anchored_chains_match_the_oracle():
    """`c1, c2 <- f <- p2 <- p1 <- (C | q)` holds the elements of C whose
    p1.p2.f is one of the constants and that q holds for, as the oracle reads
    them, on rich random databases: several constants and NULL, DATE and
    DECIMAL fields, owners found by the field name alone, and targets whose
    predicates hold equalities, identity bounds, OR and NOT."""
    rng = random.Random(1066)
    seen = collections.Counter()
    for n in range(60):
        db = oracle.random_db(rng, max_concepts=5, max_elements=60, rich=True,
                              value_type="DECIMAL" if n % 2 else "INT")
        schema = db.schema
        for _ in range(10):
            lesser = sorted(c.name for c in schema.concepts.values() if oracle.o_references(c))
            target = owner = rng.choice(lesser if lesser and rng.random() < 0.8
                                        else sorted(schema.concepts))
            refs = []  # the references from target to owner, in path order
            while (len(refs) < 2 and oracle.o_references(schema.concept(owner))
                   and rng.random() < 0.7):
                f = rng.choice(oracle.o_references(schema.concept(owner)))
                refs.append(f.name)
                owner = f.type
            fld = rng.choice([f for f in schema.concept(owner).fields if f.is_primitive])
            stored = [oracle.o_path(db, el, [fld.name])[0]
                      for el in oracle.views(db, owner).values()]
            values = [rng.choice(stored) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.3:
                values.append(oracle.rich_value(fld.type, rng.randint(51, 99)))  # not stored
            if rng.random() < 0.3:
                values.insert(rng.randrange(len(values) + 1), None)
            head = ", ".join(_rich_literal(v) or "NULL" for v in values) + f" <- {fld.name}"
            owners = [c for c in schema.concepts.values()
                      if c.field(fld.name) is not None and c.field(fld.name).is_primitive]
            where = ""
            if not refs and len(owners) == 1 and rng.random() < 0.6:
                query = head  # the one owner of the field is found by its name
                seen["owner by name"] += 1
            else:
                where = " AND ".join(_rich_conjunct(rng, db, target)
                                     for _ in range(rng.choice((0, 1, 2))))
                query = head + "".join(f" <- {r}" for r in reversed(refs)) + (
                    f" <- ({target} | {where})" if where else f" <- ({target})")
            pred = parse_query(f"({target} | {where})").anchor.predicate if where else None
            elements = oracle.views(db, target)
            wanted = {v for v in values if v is not None}
            reached = {i for i, el in elements.items()
                       if oracle.o_path(db, el, [*refs, fld.name])[0] in wanted}
            want = sorted(i for i in reached
                          if pred is None or oracle.o_holds(db, elements[i], pred))
            assert db.query(query).identities == want, query
            seen[f"{len(refs)} hops"] += 1
            seen[fld.type] += 1
            seen["NULL constant"] += None in values
            seen["several constants"] += len(values) > 1
            seen["target predicate keeps some"] += 0 < len(want) < len(reached)
            seen["nonempty"] += bool(want)
            for k in ("==", " OR ", "NOT", "id <", "id >"):
                seen[k] += k in where
    assert min(seen.values()) >= 20, seen


def _target_conjunct(rng, db, concept: str) -> str:
    """A conjunct on concept: one of _rich_conjunct's, or a path ordered
    against one element's value, which bounds an identity field id and is a
    residual otherwise."""
    if rng.random() < 0.7:
        return _rich_conjunct(rng, db, concept)
    path = _random_path(rng, db, concept)
    el = rng.choice(list(oracle.views(db, concept).values()))
    text = _rich_literal(oracle.o_path(db, el, path.split("."))[0]) or "NULL"
    return f"{path} {rng.choice(('!=', '<', '<=', '>', '>='))} {text}"


def _up_refs(rng, schema, concept: str, hops: int) -> tuple[list, str]:
    """Up to hops references walked up from concept, and the concept they reach."""
    refs = []
    while len(refs) < hops and oracle.o_references(schema.concept(concept)):
        f = rng.choice(oracle.o_references(schema.concept(concept)))
        refs.append(f.name)
        concept = f.type
    return refs, concept


def _insert_below(rng, db, cname: str) -> None:
    """Store one element of cname with an identity below every stored one:
    the collection is no longer ordered."""
    concept = db.schema.concepts[cname]
    k = -rng.randint(1, 9)
    entity = {}
    for f in concept.entity_fields:
        if not f.nullable or rng.random() < 0.8:
            entity[f.name] = (rng.choice(list(db.collections[f.type].elements))
                              if not f.is_primitive else oracle.rich_value(f.type, rng.randint(0, 50)))
    db.insert(cname, tuple(oracle.rich_value(f.type, k) for f in concept.identity_fields), entity)


def test_step_targets_narrow_by_access_path_as_the_oracle_does():
    """(T | p) after `->`, `<-`, `<-*` and `<-*->`, and as the target of a
    chain from constants, keeps the elements the step reaches that p holds
    for, as the oracle reads them: p's conjuncts split into seeks, identity
    bounds and a residual, alone and mixed, over INT, DECIMAL, DATE and CHAR
    values, NULL, OR and NOT; T ordered, and left unordered by one insert
    with a smaller identity; the step arriving with all of T or with part."""
    rng = random.Random(1979)
    seen = collections.Counter()
    for n in range(50):
        db = oracle.random_db(rng, max_concepts=5, max_elements=60, rich=True,
                              value_type="DECIMAL" if n % 2 else "INT")
        schema = db.schema
        names = sorted(schema.concepts)
        lesser = [c for c in names if oracle.o_references(schema.concept(c))]
        for phase in range(2):
            if phase:
                for cname in names:
                    if rng.random() < 0.7:
                        _insert_below(rng, db, cname)
            reach = oracle.reach_closure(db)
            for _ in range(12):
                form = rng.choice(("->", "<-", "<-*", "<-*->", "constants"))
                if form in ("->", "<-") and not lesser:
                    form = "<-*->"
                if form == "->":
                    source = rng.choice(lesser)
                    refs, target = _up_refs(rng, schema, source, rng.randint(1, 2))
                elif form == "<-":
                    target = rng.choice(lesser)
                    refs, source = _up_refs(rng, schema, target, rng.randint(1, 2))
                else:
                    target = rng.choice(names)
                    source = rng.choice([target, *sorted(schema.above(target))] if form == "<-*"
                                        else names)
                where = " AND ".join(_target_conjunct(rng, db, target)
                                     for _ in range(rng.randint(1, 3)))
                tail = f"({target} | {where})"
                elements = oracle.views(db, target)
                if form == "constants":
                    refs, owner = _up_refs(rng, schema, target, rng.randint(0, 2))
                    fld = rng.choice([f for f in schema.concept(owner).fields if f.is_primitive])
                    stored = [oracle.o_path(db, el, [fld.name])[0]
                              for el in oracle.views(db, owner).values()]
                    values = {rng.choice(stored) for _ in range(rng.randint(1, 3))}
                    query = ", ".join(_rich_literal(v) or "NULL" for v in values) + "".join(
                        f" <- {r}" for r in reversed([*refs, fld.name])) + f" <- {tail}"
                    reached = {i for i, el in elements.items()
                               if oracle.o_path(db, el, [*refs, fld.name])[0] in values - {None}}
                else:
                    anchor = f"({source})" if rng.random() < 0.4 else _rich_anchor(rng, db, source)
                    pred = parse_query(anchor).anchor.predicate
                    members = frozenset(i for i, el in oracle.views(db, source).items()
                                        if pred is None or oracle.o_holds(db, el, pred))
                    if form == "->":
                        query = f"{anchor} -> {' -> '.join(refs)} -> {tail}"
                        reached = oracle.o_project(db, source, members, refs)[1]
                    elif form == "<-":
                        query = f"{anchor} <- {' <- '.join(reversed(refs))} <- {tail}"
                        reached = oracle.o_deproject(db, source, members, refs, target)
                    elif form == "<-*":
                        query = f"{anchor} <-* {tail}"
                        reached = oracle.o_star_deproject(db, reach, source, members, target)
                    else:
                        query = f"{anchor} <-*-> {tail}"
                        reached = oracle.o_infer(db, reach, source, members, target)[0]
                pred = parse_query(tail).anchor.predicate
                want = sorted(i for i in reached if oracle.o_holds(db, elements[i], pred))
                plan = db.plan(query)
                record = plan.anchor if form == "constants" else plan.steps[-1]
                assert db.query(query).identities == want, query
                groups = ("seeks" * bool(record.seeks[form == "constants":]),
                          "bounds" * bool(record.bounds), "residual" * (record.residual is not None))
                seen[" and ".join(g for g in groups if g)] += 1
                seen[form] += 1
                seen["some kept, some not"] += 0 < len(want) < len(reached)
                if form != "constants":
                    seen["all of T" if len(reached) == len(elements) else "part of T"] += 1
                    if record.bounds:
                        seen["ordered" if db.collections[target].ordered else "unordered"] += 1
                for k in (" OR ", "NOT", "NULL"):
                    seen[k] += k in where
                seen["DATE"] += bool(re.search(r"'\d{4}-\d\d-\d\d'", where))
                seen["DECIMAL"] += any(f.type == "decimal" for f in schema.concept(target).fields)
    assert min(seen.values()) >= 20, seen


def test_filters_and_their_negations_split_what_they_narrow():
    """(C | p) and (C | NOT (p)) split (C) exactly, and so do `... <-* (T | p)`
    and `... <-* (T | NOT (p))` split `... <-* (T)`, over _rich_anchor's
    predicates, before and after inserts.  No oracle is needed."""
    rng = random.Random(2020)
    seen = collections.Counter()
    for n in range(40):
        db = oracle.random_db(rng, max_concepts=5, max_elements=60, rich=True,
                              value_type="DECIMAL" if n % 2 else "INT")
        names = sorted(db.schema.concepts)
        for phase in range(2):
            if phase:
                seen["inserted"] += _insert_more(rng, db)
            for _ in range(10):
                target = rng.choice(names)
                anchor = _rich_anchor(rng, db, target)
                # the anchor's predicate, now and then with one more conjunct, often a bound
                p = [anchor[len(target) + 4:-1]] if anchor != f"({target})" else []
                if not p or rng.random() < 0.5:
                    p.append(_target_conjunct(rng, db, target))
                p = " AND ".join(p)
                source = rng.choice([target, *sorted(db.schema.above(target))])
                for head in ("", f"{_rich_anchor(rng, db, source)} <-* "):
                    every = db.query(f"{head}({target})").identities
                    kept = db.query(f"{head}({target} | {p})").identities
                    rest = db.query(f"{head}({target} | NOT ({p}))").identities
                    assert sorted(kept + rest) == every, (head, p)
                    plan = db.plan(f"{head}({target} | {p})")
                    record = plan.steps[-1] if head else plan.anchor
                    where = "step" if head else "anchor"
                    seen[f"{where} seeks"] += bool(record.seeks)
                    seen[f"{where} bounds"] += bool(record.bounds)
                    seen[f"{where} residual"] += record.residual is not None
                    seen[f"{where} both sides"] += bool(kept) and bool(rest)
    assert min(seen.values()) >= 20, seen


def _agg_conjunct(rng, db, concept: str, depth: int = 0) -> str | None:
    """`COUNT(d <- (L | q)) op c` or `SUM(d <- (L | q).path) op c` on concept,
    the constant on either side and mostly one element's own total, or None
    when no dimension arrives at concept.  q is left out now and then, and
    otherwise holds _target_conjunct's seeks, bounds and residuals and, at
    depth 0, now and then an aggregate of its own."""
    into = db.schema.dimensions_into(concept)
    if not into:
        return None
    d = rng.choice(into)
    lesser = db.schema.concept(d.source)
    q = []
    if rng.random() < 0.6:
        q = [_target_conjunct(rng, db, d.source) for _ in range(rng.randint(1, 2))]
        nested = _agg_conjunct(rng, db, d.source, 1) if depth == 0 and rng.random() < 0.5 else None
        if nested is not None:
            q.insert(rng.randrange(len(q) + 1), nested)
    hops = [("", lesser)] + [(f"{r.name}.", db.schema.concept(r.type))
                             for r in oracle.o_references(lesser)]
    sums = [prefix + f.name for prefix, owner in hops for f in owner.fields
            if f.type in ("integer", "decimal")]
    inner = f" | {' AND '.join(q)}" if q else ""
    term = (f"SUM({d.name} <- ({d.source}{inner}).{rng.choice(sums)})"
            if sums and rng.random() < 0.5 else f"COUNT({d.name} <- ({d.source}{inner}))")
    el = rng.choice(list(oracle.views(db, concept).values()))
    total, _ = oracle._o_term(db, el, parse_query(f"({concept} | {term} == 0)").anchor.predicate.left)
    c = total if rng.random() < 0.7 else total + rng.choice((-1, 1))
    op = rng.choice(("==", "!=", "<", "<=", ">", ">="))
    return f"{term} {op} {c}" if rng.random() < 0.5 else f"{c} {op} {term}"


def test_aggregate_cuts_match_the_oracle():
    """(T | ... AND COUNT or SUM op c AND ...) keeps the elements the oracle
    keeps, as an anchor and after `->`, `<-*` and `<-*->`, with all of T and
    with part of it: the aggregate compared with a constant is a cut, read
    once for all the rows left, and its inner (L | q) is split as any
    filter is.  COUNT and SUM, with q and without, q holding seeks, bounds,
    residuals and aggregates; constants on either side, every operator, INT
    and DECIMAL totals, NULL references; and inserts after a SUM was folded."""
    rng = random.Random(2005)
    seen = collections.Counter()
    for n in range(50):
        db = oracle.random_db(rng, max_concepts=5, max_elements=40, rich=True,
                              value_type="DECIMAL" if n % 2 else "INT")
        schema = db.schema
        targets = [c for c in sorted(schema.concepts) if schema.dimensions_into(c)]
        if not targets:
            continue
        folded = set()
        for phase in range(2):
            if phase:
                inserted = _insert_more(rng, db)
                seen["inserted after a fold"] += bool(folded) and inserted > 0
            reach = oracle.reach_closure(db)
            for _ in range(10):
                target = rng.choice(targets)
                cuts = [_agg_conjunct(rng, db, target) for _ in range(rng.choice((1, 1, 2)))]
                where = cuts + [_target_conjunct(rng, db, target)
                                for _ in range(rng.choice((0, 0, 1, 2)))]
                rng.shuffle(where)
                tail = f"({target} | {' AND '.join(where)})"
                elements = oracle.views(db, target)
                form = rng.choice(("anchor", "->", "<-*", "<-*->"))
                d = rng.choice(schema.dimensions_into(target))
                source = {"anchor": target, "->": d.source,
                          "<-*": rng.choice([target, *sorted(schema.above(target))]),
                          "<-*->": rng.choice(sorted(schema.concepts))}[form]
                anchor = f"({source})" if rng.random() < 0.4 else _rich_anchor(rng, db, source)
                pred = parse_query(anchor).anchor.predicate
                members = frozenset(i for i, el in oracle.views(db, source).items()
                                    if pred is None or oracle.o_holds(db, el, pred))
                if form == "anchor":
                    query, reached = tail, frozenset(elements)
                elif form == "->":
                    query = f"{anchor} -> {d.name} -> {tail}"
                    reached = oracle.o_project(db, source, members, [d.name])[1]
                elif form == "<-*":
                    query = f"{anchor} <-* {tail}"
                    reached = oracle.o_star_deproject(db, reach, source, members, target)
                else:
                    query = f"{anchor} <-*-> {tail}"
                    reached = oracle.o_infer(db, reach, source, members, target)[0]
                pred = parse_query(tail).anchor.predicate
                want = sorted(i for i in reached if oracle.o_holds(db, elements[i], pred))
                plan = db.plan(query)
                record = plan.anchor if form == "anchor" else plan.steps[-1]
                assert len(record.cuts) == len(cuts), query
                assert db.query(query).identities == want, query
                seen[form] += 1
                if form != "anchor":
                    seen["all of T" if len(reached) == len(elements) else "part of T"] += 1
                seen["some kept, some not"] += 0 < len(want) < len(reached)
                for agg, op, _ in record.cuts:
                    seen[agg.func] += 1
                    seen[op] += 1
                    seen["with q" if agg.inner else "without q"] += 1
                    inner = agg.inner
                    if inner is not None:
                        seen["q seeks"] += bool(inner.seeks)
                        seen["q bounds"] += bool(inner.bounds)
                        seen["q residual"] += inner.residual is not None
                        seen["q cuts"] += bool(inner.cuts)
                    if agg.path is not None:
                        seen[f"{agg.path.field.type} total"] += 1
                        values = {v for v in algebra._path_values(
                            db, range(len(db.collections[agg.path.source])), agg.path)
                            if isinstance(v, Decimal)}
                        seen["mixed exponents"] += len({v.as_tuple().exponent for v in values}) > 1
                        if agg.key is not None:
                            folded.add(agg.key)
                    seen["NULL references"] += -1 in db.collections[agg.dim.source].columns[agg.dim.name]
                seen["constant first"] += any(re.match(r"-?\d", c) for c in cuts)
    assert min(seen.values()) >= 20, seen
    assert len(seen) == 27, seen


def test_a_conjunction_narrows_to_the_intersection_of_its_conjuncts():
    """(C | p AND q) is (C | p) ∩ (C | q), and `... <-* (T | p AND q)` is
    `... <-* (T | p)` ∩ `... <-* (T | q)`, over _rich_anchor's predicates
    with one more _target_conjunct or, now and then, an aggregate compared
    with a constant, before and after inserts.  No oracle is needed."""
    rng = random.Random(1979)
    seen = collections.Counter()
    for n in range(40):
        db = oracle.random_db(rng, max_concepts=5, max_elements=60, rich=True,
                              value_type="DECIMAL" if n % 2 else "INT")
        names = sorted(db.schema.concepts)
        for phase in range(2):
            if phase:
                seen["inserted"] += _insert_more(rng, db)
            for _ in range(10):
                target = rng.choice(names)
                anchor = _rich_anchor(rng, db, target)
                p = anchor[len(target) + 4:-1] if anchor != f"({target})" else \
                    _target_conjunct(rng, db, target)
                q = (rng.random() < 0.4 and _agg_conjunct(rng, db, target)
                     or _target_conjunct(rng, db, target))
                source = rng.choice([target, *sorted(db.schema.above(target))])
                for head in ("", f"{_rich_anchor(rng, db, source)} <-* "):
                    both = db.query(f"{head}({target} | {p} AND {q})").identities
                    left = db.query(f"{head}({target} | {p})").identities
                    right = db.query(f"{head}({target} | {q})").identities
                    assert both == sorted(set(left) & set(right)), (head, p, q)
                    plan = db.plan(f"{head}({target} | {p} AND {q})")
                    record = plan.steps[-1] if head else plan.anchor
                    where = "step" if head else "anchor"
                    seen[f"{where} seeks"] += bool(record.seeks)
                    seen[f"{where} bounds"] += bool(record.bounds)
                    seen[f"{where} cuts"] += bool(record.cuts)
                    seen[f"{where} residual"] += record.residual is not None
                    seen[f"{where} p and q differ"] += left != right
                    seen[f"{where} kept some"] += bool(both)
    assert min(seen.values()) >= 20, seen


_FACT_SCHEMA = """
CONCEPT X2 IDENTITY id INT ENTITY tag CHAR(8);
CONCEPT Y2 IDENTITY id INT ENTITY tag CHAR(8);
CONCEPT X1 IDENTITY id INT ENTITY x2 X2 NOT NULL;
CONCEPT Y1 IDENTITY id INT ENTITY y2 Y2 NOT NULL;
CONCEPT Facts IDENTITY id INT ENTITY x1 X1 NOT NULL, y1 Y1 NOT NULL, amount DECIMAL(10,2);
"""


def _add_fact(rng, db, f: int) -> None:
    """One fact under random X1 and Y1; one amount in 50 is NULL."""
    amount = None if rng.random() < 0.02 else Decimal(rng.randrange(100_000)) / 100
    db.insert("Facts", f, {"x1": rng.randrange(1000), "y1": rng.randrange(1000), "amount": amount})


def _fact_db(rng, facts: int) -> engine.Database:
    """A database shaped as the fact_olap benchmark's: facts Facts under 1,000
    X1 and Y1, under 100 X2 and Y2 tagged t0 to t9."""
    db = fresh(_FACT_SCHEMA)
    for side in "XY":
        for i in range(100):
            db.insert(f"{side}2", i, {"tag": f"t{rng.randrange(10)}"})
        for i in range(1000):
            db.insert(f"{side}1", i, {f"{side.lower()}2": rng.randrange(100)})
    for f in range(facts):
        _add_fact(rng, db, f)
    return db


def _fact_conjunct(rng, target: str, facts: int) -> str:
    """A conjunct on Facts (a dotted tag seek, an amount comparison, an
    identity bound or seek) or on X1 (a COUNT or SUM cut, with an inner
    predicate now and then, a tag seek or an identity bound), or now and then
    an OR of two."""
    if rng.random() < 0.1:
        return f"({_fact_conjunct(rng, target, facts)} OR {_fact_conjunct(rng, target, facts)})"
    k = rng.randrange(4)
    op = rng.choice(_ORDERINGS + ("==", "!="))
    if target == "Facts":
        if k == 0:
            return f"{rng.choice(('x1.x2', 'y1.y2'))}.tag == 't{rng.randrange(10)}'"
        if k == 1:
            return f"amount {op} {Decimal(rng.randrange(100_000)) / 100}"
        if k == 2:
            return f"id {rng.choice(_ORDERINGS)} {rng.randrange(-100, facts + 100)}"
        return f"id == {rng.randrange(facts)}"
    if k == 0:
        inner = f" | amount < {rng.randrange(1000)}" if rng.random() < 0.4 else ""
        return f"COUNT(x1 <- (Facts{inner})) {op} {rng.randrange(facts // 1000 + 4)}"
    if k == 1:
        return f"SUM(x1 <- (Facts).amount) {op} {rng.randrange(facts // 2, facts)}"
    if k == 2:
        return f"x2.tag == 't{rng.randrange(10)}'"
    return f"id {rng.choice(_ORDERINGS)} {rng.randrange(-10, 1010)}"


def test_partitions_hold_on_a_fact_olap_shaped_database():
    """Both partition relations at the benchmark's shape, 10k facts: (C | p)
    and (C | NOT (p)) split (C), and (C | p AND q) is (C | p) ∩ (C | q), as
    anchors and as `<-*` targets, over dotted tag seeks, amount comparisons,
    identity bounds and seeks, and COUNT and SUM cuts, before and after
    inserts that leave Facts unordered.  No oracle is needed."""
    facts = 10_000
    rng = random.Random(facts)
    db = _fact_db(rng, facts)
    seen = collections.Counter()
    heads = ("", "(X2 | id < 30) <-* ", "'t3' <- tag <- (X2) <-* ", "(Y1 | id >= 100 AND id < 300) <-* ")
    for phase in range(2):
        if phase:
            for f in [*rng.sample(range(-500, 0), 50), *range(facts, facts + 100)]:
                _add_fact(rng, db, f)
            assert not db.collections["Facts"].ordered
        for _ in range(40):
            target = rng.choice(("Facts", "X1"))
            p = " AND ".join(_fact_conjunct(rng, target, facts) for _ in range(rng.randint(1, 2)))
            q = _fact_conjunct(rng, target, facts)
            for head in ("", rng.choice(heads[1:3] if target == "X1" else heads[1:])):
                every, kept, rest, both, right = (
                    db.query(f"{head}({target}{where})").identities
                    for where in ("", f" | {p}", f" | NOT ({p})", f" | {p} AND {q}", f" | {q}"))
                assert sorted(kept + rest) == every, (head, p)
                assert both == sorted(set(kept) & set(right)), (head, p, q)
                plan = db.plan(f"{head}({target} | {p} AND {q})")
                record = plan.steps[-1] if head else plan.anchor
                where = "step" if head else "anchor"
                seen[f"{where} dotted seeks"] += any(s.route is not None for s in record.seeks)
                seen[f"{where} bounds"] += bool(record.bounds)
                seen[f"{where} residual"] += record.residual is not None
                seen[f"{where} both sides"] += bool(kept) and bool(rest)
                seen[f"{where} p and q differ"] += kept != right
                seen.update(f"{where} {agg.func}" for agg, _, _ in record.cuts)
    assert min(seen.values()) >= 10, seen
    assert len(seen) == 14, seen


def test_a_seek_scans_only_what_the_rows_left_can_pay_for(monkeypatch):
    """The seeks run cheapest first, and one scans its owner's column only
    while the rows left number at least that column's length: after an
    identity interval, or after a cheaper seek, an equality on Facts.amount
    runs on each row left instead of scanning the column."""
    db = fresh("CONCEPT X2 IDENTITY id INT ENTITY tag CHAR(4);"
               "CONCEPT X1 IDENTITY id INT ENTITY x2 X2;"
               "CONCEPT Facts IDENTITY id INT ENTITY x1 X1, amount DECIMAL;")
    for i in range(20):
        db.insert("X2", i, {"tag": f"t{i % 5}"})
    for i in range(100):
        db.insert("X1", i, {"x2": i % 20})
    for i in range(2000):
        db.insert("Facts", i, {"x1": i % 100, "amount": Decimal(i % 37) / 4})
    scanned = []
    owner_rows = algebra._owner_rows

    def recorded(coll, field_name, values):
        scanned.append((coll.name, field_name))
        return owner_rows(coll, field_name, values)

    monkeypatch.setattr(algebra, "_owner_rows", recorded)
    for query, want, scans in [
        ("(Facts | amount == 2.25 AND id < 500)", [i for i in range(500) if i % 37 == 9], []),
        ("'t1' <- tag <- x2 <- x1 <- (Facts | amount == 2.25)",
         [i for i in range(2000) if i % 37 == 9 and i % 5 == 1], [("X2", "tag")]),
        ("(Facts | amount == 2.25 AND x1.x2.tag == 't1')",
         [i for i in range(2000) if i % 37 == 9 and i % 5 == 1], [("X2", "tag")]),
        ("(Facts | amount == 2.25 AND id == 46)", [(46,)], [("Facts", "id")]),
        ("(Facts | amount == 2.25)", [i for i in range(2000) if i % 37 == 9],
         [("Facts", "amount")]),
    ]:
        scanned.clear()
        assert db.query(query).identities == [i if isinstance(i, tuple) else (i,) for i in want]
        assert scanned == scans, query


# --- saturating, fused routes --------------------------------------------------------


def _add_rows(rng, db, cname: str, ids, share: float) -> None:
    """Insert elements of cname with int identities ids.  A reference picks one of
    the first share of its destination's elements, or, now and then, NULL."""
    concept = db.schema.concepts[cname]
    for i in ids:
        entity = {}
        for f in concept.entity_fields:
            if f.is_primitive:
                entity[f.name] = rng.randint(0, 9)
            elif not f.nullable or rng.random() < 0.8:
                pool = list(db.collections[f.type].elements)
                entity[f.name] = rng.choice(pool[:max(1, int(len(pool) * share))])
        db.insert(cname, i, entity)


def _skewed_db(rng) -> engine.Database:
    """A random DAG schema in which greater concepts hold few elements and lesser
    ones many, and references leave a third of each destination unreferenced:
    images fill up long before their sources run out."""
    db = engine.Database()
    engine.load_schema(db, oracle.random_schema_text(rng, max_concepts=6, max_dims=3))
    for k, cname in enumerate(sorted(db.schema.concepts, key=lambda s: -int(s[1:]))):
        _add_rows(rng, db, cname, range(rng.randint(2, 4) * (1 + 4 * k)), 2 / 3)
    return db


def _referenced_rows(db, d) -> set:
    return {g for g in db.collections[d.source].columns[d.name] if g >= 0}


def test_saturating_fused_routes_match_the_oracle(monkeypatch):
    """Inference and star routes that stop once an image holds every row it can
    hold, and that stream through nodes with one dimension in and one out,
    answer as the oracle's closures do: saturated or not, through NULL
    references and diamonds, and after inserts that reference rows nothing
    referenced when the counts were taken.  Every row is a batch of its own,
    so the caps are checked as often as they can be."""
    monkeypatch.setattr(algebra, "_BATCH", 1)
    streams = []
    stream = algebra._stream

    def spy(colls, rows, steps, out, cap):
        stream(colls, rows, steps, out, cap)
        streams.append((len(steps), len(out), cap))

    monkeypatch.setattr(algebra, "_stream", spy)
    rng = random.Random(8128)
    seen = collections.Counter()
    for _ in range(50):
        db = _skewed_db(rng)
        names = sorted(db.schema.concepts)
        seen["null refs"] += any(-1 in c.columns[name] for c in db.collections.values()
                                 for name in c.refs)
        for phase in range(2):
            if phase:
                counted = {d: _referenced_rows(db, d) for d in db.schema.dimensions}
                for cname in sorted(names, key=lambda s: -int(s[1:])):
                    _add_rows(rng, db, cname, range(1000, 1000 + rng.randint(0, 4)), 1)
                seen["newly referenced after a count"] += sum(
                    _referenced_rows(db, d) > rows for d, rows in counted.items())
            reach = oracle.reach_closure(db)
            for _ in range(15):
                src, target = rng.sample(names, 2)
                k = rng.randint(0, len(db.collections[src]))
                op, anchor = rng.choice(((operator.lt, f"({src} | id < {k})"),
                                         (operator.ge, f"({src} | id >= {k})"),
                                         (None, f"({src})")))
                members = frozenset(i for i in db.collections[src].elements
                                    if op is None or op(i[0], k))
                want, _ = oracle.o_infer(db, reach, src, members, target)
                query = f"{anchor} <-*-> ({target})"
                streams.clear()
                assert db.query(query).identities == sorted(want), query
                assert algebra.infer(db, ElementSet(src, members), target).members == want
                seen["fused"] += any(steps > 1 for steps, _, _ in streams)
                seen["saturated"] += any(0 < cap <= out for _, out, cap in streams)
                seen["unsaturated"] += any(out < cap for _, out, cap in streams)
                for _, down, up in db.plan(query).steps[-1].route.ways:
                    for leg in filter(None, (down, up)):
                        ins = collections.Counter(d.source if leg.down else d.destination
                                                  for d in leg.edges)
                        outs = collections.Counter(d.destination if leg.down else d.source
                                                   for d in leg.edges)
                        seen["two in, one out"] += any(ins[c] > 1 and outs[c] == 1 for c in ins)
            for d in db.schema.dimensions:
                assert algebra._referenced(db.collections, d) == len(_referenced_rows(db, d))
    assert min(seen.values()) >= 10, seen
    assert len(seen) == 6, seen


# --- predicate SUMs folded once per stored row ---------------------------------------


def _sum_paths(schema) -> list:
    """(dimension, path names, FieldPath) of every SUM(d <- (L).path) whose path
    reads a numeric field of L, or of a concept one more hop up."""
    out = []
    for d in schema.dimensions:
        lesser = schema.concepts[d.source]
        hops = [((), (), lesser)] + [((r.name,), (schema.dimension(d.source, r.name),),
                                      schema.concepts[r.type]) for r in oracle.o_references(lesser)]
        for names, dims, owner in hops:
            out += [(d, names + (f.name,), algebra.FieldPath(d.source, dims, f))
                    for f in owner.fields if f.type in ("integer", "decimal")]
    return out


def _sum_value(rng, f):
    """A value for field f: for INT and DECIMAL, NULL, zeros of several exponents
    and signed numbers; for the other types a rich_value."""
    r = rng.random()
    if r < 0.15 and f.nullable:
        return None
    if f.type == "integer":
        return 0 if r < 0.3 else rng.randint(-20, 50)
    if f.type == "decimal":
        whole = 0 if r < 0.35 else rng.randint(-300, 300)
        return Decimal(whole).scaleb(-rng.randint(0, 2))
    return oracle.rich_value(f.type, rng.randint(0, 50))


def _fresh_rows(rng, db, cname: str, fresh, count: int) -> list:
    """count rows (identity, entity) for cname with unused identities taken from
    fresh; references pick a stored element or, when nullable, NULL."""
    concept = db.schema.concepts[cname]
    rows = []
    for _ in range(count):
        k = next(fresh)
        ident = tuple(oracle.rich_value(f.type, k) for f in concept.identity_fields)
        entity = {}
        for f in concept.entity_fields:
            if f.is_primitive:
                entity[f.name] = _sum_value(rng, f)
            elif not f.nullable or rng.random() < 0.75:
                entity[f.name] = rng.choice(list(db.collections[f.type].elements))
        rows.append((ident, entity))
    return rows


def _write_rows(path: Path, concept, rows) -> Path:
    """A CSV file of (identity, entity) rows; NULL is an empty cell."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([f.name for f in concept.fields])
    for ident, entity in rows:
        cells = [engine.encode_scalar(v) for v in ident]
        for f in concept.entity_fields:
            v = entity.get(f.name)
            cells.append("" if v is None else engine.encode_identity(v) if not f.is_primitive
                         else engine.encode_scalar(v))
        writer.writerow(cells)
    path.write_text(buf.getvalue(), encoding="utf-8")
    return path


def test_folded_sums_follow_every_write(tmp_path):
    """(G | SUM(d <- (L).path) op c) answers as o_holds does, and every folded sum
    is the very value _sum_rows adds up over the row's reverse list, exponent
    and all: on rich random databases, then after inserts into lesser, greater
    and intermediate collections, a CSV batch with a rejected row, and a strict
    load that fails."""
    rng = random.Random(6174)
    seen = collections.Counter()
    for n in range(60):
        db = oracle.random_db(rng, max_concepts=5, max_elements=40, rich=True,
                              value_type="DECIMAL" if n % 2 else "INT")
        paths = _sum_paths(db.schema)
        if not paths:
            continue
        picked = rng.sample(paths, min(4, len(paths)))
        # fresh identities, now and then below every stored one
        fresh = (k if k % 3 else -k for k in itertools.count(1000))

        def check():
            for d, names, path in picked:
                greater, lesser = db.collections[d.destination], db.collections[d.source]
                reverse = greater.reverse[d]
                row = rng.choice(range(len(greater)))
                c = algebra._sum_rows(db, reverse[row], path)
                term = f"SUM({d.name} <- ({d.source}).{'.'.join(names)})"
                for op in (">", "=="):
                    query = f"({d.destination} | {term} {op} {c})"
                    pred = parse_query(query).anchor.predicate
                    want = sorted(i for i, m in oracle.views(db, d.destination).items()
                                  if oracle.o_holds(db, m, pred))
                    assert db.query(query).identities == want, query
                key = (d.source, d.name, names)
                assert key in greater.derived, key
                sums = algebra._folded_sums(db, key, d, path)
                assert len(sums) == len(greater)
                for r in range(len(greater)):
                    want = algebra._sum_rows(db, reverse[r], path)
                    assert (sums[r], str(sums[r])) == (want, str(want)), (key, r)
                seen["dotted" if path.dims else "one-hop"] += 1
                seen[path.field.type] += 1
                seen["null ref"] += -1 in lesser.columns[d.name]
                values = list(algebra._path_values(db, range(len(lesser)), path))
                seen["zero"] += any(v == 0 for v in values if v is not None)
                seen["zero exponent"] += any(v == 0 and str(v) != "0" for v in values
                                             if isinstance(v, Decimal))

        check()
        before = {name: len(c) for name, c in db.collections.items()}
        for cname in sorted(db.schema.concepts, key=lambda s: -int(s[1:])):
            for ident, entity in _fresh_rows(rng, db, cname, fresh, rng.randint(0, 3)):
                db.insert(cname, ident, entity)
        for d, _, path in picked:
            seen["new greater rows"] += len(db.collections[d.destination]) > before[d.destination]
            seen["new intermediate rows"] += any(
                len(db.collections[s.destination]) > before[s.destination] for s in path.dims)
        check()
        d = rng.choice(picked)[0]
        concept = db.schema.concepts[d.source]
        rows = _fresh_rows(rng, db, d.source, fresh, rng.randint(1, 8))
        stored = rng.choice(list(db.collections[d.source].elements))
        rows.insert(rng.randrange(len(rows) + 1), (stored, {}))  # rejected: already stored
        report = engine.load_csv(db, d.source, _write_rows(tmp_path / f"{n}.csv", concept, rows))
        assert (report.inserted, len(report.rejected)) == (len(rows) - 1, 1)
        check()
        sizes = {name: len(c) for name, c in db.collections.items()}
        rows = _fresh_rows(rng, db, d.source, fresh, rng.randint(1, 8)) + [(stored, {})]
        with pytest.raises(FileError):
            engine.load_csv(db, d.source, _write_rows(tmp_path / f"{n}s.csv", concept, rows),
                            strict=True)
        assert {name: len(c) for name, c in db.collections.items()} == sizes
        check()
    assert min(seen.values()) >= 10, seen
    assert len(seen) == 9, seen


def test_referenced_counts_follow_every_write(tmp_path, monkeypatch):
    """A saturated inference answers as the oracle does, and every referenced
    count equals a count over the reference column, after: an insert that references
    a row nothing referenced, new greater rows that nothing references, a CSV
    batch with a rejected row, and a strict load that fails and changes nothing."""
    monkeypatch.setattr(algebra, "_BATCH", 1)  # a cap checked after every row
    db = fresh("CONCEPT G IDENTITY id INT; CONCEPT H IDENTITY id INT;"
               "CONCEPT L IDENTITY id INT ENTITY g G NOT NULL, h H;")
    for i in range(8):
        db.insert("G", i)
    for i in range(6):
        db.insert("H", i)
    for i in range(24):  # G 0-3 reach H 0-3 between them, so the stream stops after G 3
        db.insert("L", i, {"g": i % 8, "h": None if i % 5 == 4 else i % 4})
    query = "(G | id < 8) <-*-> (H)"
    dims = db.schema.dimensions

    def check(want):
        reach = oracle.reach_closure(db)
        got, _ = oracle.o_infer(db, reach, "G", frozenset((i,) for i in range(8)), "H")
        assert sorted(got) == want
        assert db.query(query).identities == want
        for d in dims:
            assert algebra._referenced(db.collections, d) == len(_referenced_rows(db, d)), d

    def counts():
        return {(name, key): (e.seen, list(e.state))
                for name, c in db.collections.items() for key, e in c.derived.items()}

    check([(0,), (1,), (2,), (3,)])
    db.insert("L", 100, {"g": 7, "h": 4})  # H 4: referenced for the first time
    check([(0,), (1,), (2,), (3,), (4,)])
    db.insert("H", 6)
    db.insert("G", 9)
    check([(0,), (1,), (2,), (3,), (4,)])
    rows = "id,g,h\n101,6,6\n102,9,6\n103,7,99\n"  # 103 is rejected: no H 99
    report = engine.load_csv(db, "L", write(tmp_path / "L.csv", rows))
    assert (report.inserted, len(report.rejected)) == (2, 1)
    check([(0,), (1,), (2,), (3,), (4,), (6,)])
    before = counts()
    with pytest.raises(FileError):
        engine.load_csv(db, "L", write(tmp_path / "S.csv", "id,g,h\n104,5,5\n100,5,5\n"),
                        strict=True)
    assert counts() == before
    check([(0,), (1,), (2,), (3,), (4,), (6,)])
    assert counts() == before


def test_folded_sums_fold_again_when_the_decimal_context_changes():
    """Sums added under another precision or rounding are folded again."""
    db = fresh("CONCEPT G IDENTITY id INT; CONCEPT L IDENTITY id INT ENTITY g G, a DECIMAL;")
    db.insert("G", 1)
    for i, a in enumerate(("1.25", "2.5", "0.00", None, "7.07")):
        db.insert("L", i, {"g": 1, "a": a})  # a NULL adds nothing
    query = "(G | SUM(g <- (L).a) == {})"
    assert db.query(query.format("10.82")).identities == [(1,)]
    assert db.query("(G | SUM(g <- (L | id >= 0).a) == 10.82)").identities == [(1,)]
    with decimal.localcontext() as ctx:
        ctx.prec = 3
        assert db.query(query.format("10.8")).identities == [(1,)]
        ctx.rounding = decimal.ROUND_UP
        assert db.query(query.format("10.9")).identities == [(1,)]
    assert db.query(query.format("10.82")).identities == [(1,)]


@pytest.mark.parametrize("query, seeks", [
    ("(Books | isbn == 'b1')", ["'b1' <- isbn <- (Books)"]),
    ("(Books | 'Springer' == publisher)", ["'Springer' <- name <- publisher <- (Books)"]),
    ("(Books | publisher.address.country == 'DE' AND (price > 5 AND isbn == 'b1'))",
     ["'DE' <- country <- address <- publisher <- (Books)", "'b1' <- isbn <- (Books)"]),
    ("(Books b | b == 'b2')", ["'b2' <- isbn <- (Books)"]),
    ("(Books b | b.price = 8)", ["8 <- price <- (Books)"]),
    ("(Books | isbn != 'b1')", []),
    ("(Books | price < 8)", []),
    ("(Books | isbn == 'b1' OR isbn == 'b2')", []),
    ("(Books | NOT (isbn == 'b1'))", []),
    ("(Books | publisher == NULL)", []),
    ("(Books | title == isbn)", []),
    ("(Publishers | COUNT(publisher <- (Books)) == 2)", []),
])
def test_only_equalities_with_a_constant_seek(catalog_db, query, seeks):
    plan = catalog_db.plan(query)
    # each seek is the one access path its constants query is anchored on
    assert list(plan.anchor.seeks) == [catalog_db.plan(s).anchor.seeks[0] for s in seeks]
    assert catalog_db.explain(query) == print_set_expr(parse_query(query).anchor)  # seeks are not listed
    anchor = parse_query(query).anchor
    elements = oracle.views(catalog_db, anchor.factors[0].collection)
    want = sorted(i for i, el in elements.items()
                  if oracle.o_holds(catalog_db, el, anchor.predicate, anchor.factors[0].alias))
    assert catalog_db.query(query).identities == want


@pytest.mark.parametrize("query, bounds, residual", [
    ("(Books | isbn < 'b3')", [("<", "b3")], False),
    ("(Books b | 'b2' <= b.isbn AND price > 5)", [(">=", "b2")], True),
    ("(Addresses | id > 1 AND id <= 2.5)", [(">", 1), ("<=", Decimal("2.5"))], False),
    ("(Addresses | id > 2 AND 1 > id)", [(">", 2), ("<", 1)], False),
    ("(Addresses | country == 'DE' AND id >= 1)", [(">=", 1)], False),
    ("(Addresses | NOT (id > 1))", [], True),
    ("(Addresses | id > 1 OR id < 0)", [], True),
    ("(Addresses | id > NULL)", [], True),
    ("(Addresses | id != 1)", [], True),
    ("(Books | price < 8)", [], True),
    ("(Books b | b > 'b2')", [], True),
])
def test_only_identity_orderings_with_a_constant_bound(catalog_db, query, bounds, residual):
    anchor = catalog_db.plan(query).anchor
    assert list(anchor.bounds) == bounds
    assert (anchor.residual is not None) == residual
    assert catalog_db.explain(query) == print_set_expr(parse_query(query).anchor)  # bounds are not listed
    parsed = parse_query(query).anchor
    elements = oracle.views(catalog_db, parsed.factors[0].collection)
    want = sorted(i for i, el in elements.items()
                  if oracle.o_holds(catalog_db, el, parsed.predicate, parsed.factors[0].alias))
    assert catalog_db.query(query).identities == want


def test_a_composite_identity_is_not_bounded():
    db = fresh(COMPOSITE)
    db.insert("Slots", ("2024-01-02", "a"))
    db.insert("Slots", ("2024-01-01", "b"))
    anchor = db.plan("(Slots | day < '2024-01-02')").anchor
    assert anchor.bounds == () and anchor.residual is not None
    assert db.query("(Slots | day < '2024-01-02')").identities == [(datetime.date(2024, 1, 1), "b")]


# --- rendering ---------------------------------------------------------------------


def test_render_table_golden(catalog_db):
    rs = catalog_db.query("(Books | price < 10)")
    assert engine.render_table(rs) == (
        "isbn  title  price  publisher\n"
        "----  -----  -----  ---------\n"
        "b1    Alpha  9.50   Springer\n"
        "b3    Gamma  8      Wiley\n"
        "b4    Delta  5      NULL\n"
        "(3 rows)"
    )


def test_render_table_singular_row(catalog_db):
    rs = catalog_db.query("(Books | isbn == 'b1') -> publisher -> address -> country")
    assert engine.render_table(rs) == "country\n-------\nDE\n(1 row)"


def test_render_csv_golden(catalog_db):
    rs = catalog_db.query("(Books | price < 10)")
    assert engine.render_csv(rs) == (
        "isbn,title,price,publisher\n"
        "b1,Alpha,9.50,Springer\n"
        "b3,Gamma,8,Wiley\n"
        "b4,Delta,5,"
    )


def test_render_json_golden(catalog_db):
    rs = catalog_db.query("(Books | price < 10)")
    lines = engine.render_json(rs).splitlines()
    rows = [json.loads(line) for line in lines]
    assert rows[0] == {
        "isbn": "b1", "title": "Alpha", "price": "9.50",
        "publisher": "Springer", "_identity": "b1",
    }
    assert rows[2]["publisher"] is None


def test_render_dispatch_rejects_unknown_format(catalog_db):
    rs = catalog_db.query("(Books)")
    assert engine.render(rs, "csv") == engine.render_csv(rs)
    with pytest.raises(ValueError):
        engine.render(rs, "yaml")


# CHAR values that quoting, padding and NULL handling must keep apart
TRICKY = ("a,b", 'say "hi"', "(x)", "x))(", "pad  ", "NULL", "", " ", "l1\nl2 ", "é,(")


def tricky_db(rng: random.Random) -> engine.Database:
    """A random_db(rich=True) database plus, in each collection, elements
    whose CHAR values, identity ones included, are the TRICKY texts."""
    db = oracle.random_db(rng, max_elements=60, rich=True)
    for name, coll in sorted(db.collections.items()):
        concept = coll.concept
        pools = {f.name: list(db.collections[f.type].elements)
                 for f in concept.entity_fields if not f.is_primitive}
        for k, text in enumerate(TRICKY):
            ident = tuple(text if f.type == "string" else oracle.rich_value(f.type, 900 + k)
                          for f in concept.identity_fields)
            entity = {}
            for j, f in enumerate(concept.entity_fields):
                if f.nullable and rng.random() < 0.3:
                    continue
                if not f.is_primitive:
                    entity[f.name] = rng.choice(pools[f.name])
                elif f.type == "string":
                    entity[f.name] = TRICKY[(k + j) % len(TRICKY)]
                else:
                    entity[f.name] = oracle.rich_value(f.type, rng.randrange(60))
            db.insert(name, ident, entity)
    return db


def _result(db, eset):
    """build_result of an identity ElementSet, converted to the runner's form."""
    return engine.build_result(db, eset.domain, algebra._to_rows(db, eset.domain, eset.members))


def random_results(rng: random.Random, db):
    """(ResultSet, ElementSet) pairs: random subsets of every collection, of
    every primitive field's values, and of products of two collections."""
    names = sorted(db.collections)
    for name in names:
        eset = algebra.ElementSet(name, oracle.random_members(rng, db, name))
        yield _result(db, eset), eset
        for f in db.schema.concepts[name].fields:
            if f.is_primitive:
                values = algebra.project_values(db, every(db, name), (), f)
                eset = algebra.ElementSet(values.domain, frozenset(
                    v for v in values.members if rng.random() < 0.6))
                yield _result(db, eset), eset
    for _ in range(3):
        a, b = rng.choice(names), rng.choice(names)
        product = algebra.make_product("P", [("a", a), ("b", b)])
        pairs = itertools.product(oracle.random_members(rng, db, a),
                                  oracle.random_members(rng, db, b))
        eset = algebra.ElementSet(product, frozenset(p for p in pairs if rng.random() < 0.2))
        yield _result(db, eset), eset


def test_renderers_match_the_row_at_a_time_renderers():
    """Table, CSV and JSON text equal the oracle's, byte for byte, on random typed results."""
    seen = collections.Counter()
    for seed in range(40):
        rng = random.Random(seed)
        db = tricky_db(rng)
        for rs, eset in random_results(rng, db):
            assert engine.render_table(rs) == oracle.o_render_table(rs), (seed, rs.tag)
            assert engine.render_csv(rs) == oracle.o_render_csv(rs), (seed, rs.tag)
            assert engine.render_json(rs) == oracle.o_render_json(rs), (seed, rs.tag)
            seen[rs.kind] += 1
            seen["empty"] += not rs.identities
            for row in oracle.o_rows(db, eset):
                for v in row.values():
                    seen["null" if v is None else "composite" if isinstance(v, tuple) and
                         len(v) > 1 else type(v).__name__] += 1
                    if v in TRICKY:
                        seen[v] += 1
    for case in ("collection", "primitive", "product", "empty", "null", "composite",
                 "date", "Decimal", "int", *TRICKY):
        assert seen[case] >= 5, (case, seen)


def test_a_field_name_starting_with_an_underscore_is_rejected():
    """JSON rows key the member's identity "_identity", so no field may take a
    name starting with '_' and hide it; the error names Concept.field."""
    for text, name in (
        ("CONCEPT A IDENTITY id INT ENTITY _identity CHAR(4), n INT;", "A._identity"),
        ("CONCEPT B IDENTITY _identity INT, k CHAR(2);", "B._identity"),
        ("CONCEPT A IDENTITY id INT; CONCEPT B IDENTITY id INT ENTITY _a A;", "B._a"),
    ):
        with pytest.raises(SchemaError, match=re.escape(f"field {name} starts with '_'")):
            fresh(text)


def test_rows_are_built_when_read_and_slice_into_plain_lists():
    for seed in range(12):
        rng = random.Random(seed)
        db = tricky_db(rng)
        for rs, eset in random_results(rng, db):
            want = oracle.o_rows(db, eset)
            rows = rs.rows
            assert rs.identities == sorted(eset.members)
            assert len(rows) == len(rs) == len(want)
            assert rows == want and want == rows and list(rows) == want
            n = len(want)
            if n:
                assert rows[0] == want[0] and rows[-1] == want[-1] and rows[-n] == want[0]
            with pytest.raises(IndexError):
                rows[n]
            with pytest.raises(IndexError):
                rows[-n - 1]
            if rs.kind == "collection":
                arity = len(db.collections[rs.tag].concept.identity_fields)
                assert [tuple(r.values())[:arity] for r in rows] == rs.identities
            head = rs.rows[:1]
            assert type(head) is list and head == want[:1]
            assert all(type(row) is dict for row in head)
            held = gc.get_referents(head) + [x for row in head for x in gc.get_referents(row)]
            assert not any(x is rs or x is rs.values or x is rs.identities for x in held)


def test_every_result_holds_its_columns_and_an_identity_encoder(catalog_db):
    """A primitive result's one column is its values; a product's columns are
    its factor identities, and its members read `(f1,f2)`."""
    rs = catalog_db.query("(Books | price < 10) -> price")
    assert rs.kind == "primitive" and rs.values == [rs.identities]
    assert repr(rs.rows) == (
        "[{'price': Decimal('5')}, {'price': Decimal('8')}, {'price': Decimal('9.50')}]")
    assert list(rs.identity_encoder(rs.identities)) == ["5", "8", "9.50"]
    rs = catalog_db.query("(Books b, Addresses a | b.price < 9 AND a.country == 'DE')")
    assert rs.kind == "product" and rs.identities == [
        (("b3",), (1,)), (("b3",), (3,)), (("b4",), (1,)), (("b4",), (3,))]
    assert rs.values == [[("b3",), ("b3",), ("b4",), ("b4",)], [(1,), (3,), (1,), (3,)]]
    assert list(rs.identity_encoder(rs.identities)) == ["(b3,1)", "(b3,3)", "(b4,1)", "(b4,3)"]


# --- outlines -----------------------------------------------------------------------


def test_schema_outline_golden(colors_db):
    assert engine.schema_outline(colors_db.schema) == (
        "X\n"
        "  Z (x)\n"
        "Y\n"
        "  Z (y)"
    )


def test_collections_outline_golden(colors_db):
    assert engine.collections_outline(colors_db) == (
        "X: 3 elements\n"
        "Y: 3 elements\n"
        "Z: 4 elements"
    )
    engine.execute_statement(colors_db, "P = (X a, X b)")
    assert engine.collections_outline(colors_db).splitlines()[-1] == "P = product of (X a, X b)"


def test_explain_is_exposed_on_the_database(colors_db):
    text = colors_db.explain("(X | name == 'red') <-*-> (Y)")
    assert "(X | name == 'red')" in text
    assert "<- x <- (Z)" in text
    assert "-> y -> (Y)" in text


@pytest.mark.parametrize("fixture, text, lines, identities", [
    ("catalog_db", "(Books | isbn == 'b1') -> publisher -> address -> country",
     ["(Books | isbn == 'b1')", "-> publisher -> (Publishers)", "-> address -> (Addresses)",
      "-> country"],
     ["DE"]),
    ("catalog_db", "(Books) -> (Addresses)",
     ["(Books)", "-> publisher -> (Publishers)", "-> address -> (Addresses)"],
     [(1,), (2,), (3,)]),
    ("catalog_db", "(Addresses) <- address <- publisher",
     ["(Addresses)", "<- address <- (Publishers)", "<- publisher <- (Books)"],
     [("b1",), ("b2",), ("b3",), ("b5",)]),
    ("catalog_db", "'DE' <- country <- address <- publisher <- (Books | price < 20)",
     ["'DE'", "<- country <- (Addresses)", "<- address <- (Publishers)", "<- publisher <- (Books)",
      "| price < 20"],
     [("b1",), ("b5",)]),
    ("market_db", "(WriterBooks wb, Sellers s | wb.book == s.book) -> wb -> book",
     ["(WriterBooks wb, Sellers s | wb.book == s.book)", "-> wb -> (WriterBooks)",
      "-> book -> (Books)"],
     [("b1",), ("b2",)]),
])
def test_single_path_steps_explain_hop_by_hop(request, fixture, text, lines, identities):
    db = request.getfixturevalue(fixture)
    assert db.explain(text).splitlines() == lines
    assert db.query(text).identities == identities


def test_explain_lists_the_edges_of_a_multi_path_step(parallel_db):
    assert parallel_db.explain("(Reviews) *-> (Grades)").splitlines() == [
        "(Reviews)",
        "*-> (Grades) over 2 paths:",
        "  (Reviews) -> first -> (Grades)",
        "  (Reviews) -> second -> (Grades)",
    ]
    assert parallel_db.explain("(Grades | g == 'b') <-* (Reviews)").splitlines() == [
        "(Grades | g == 'b')",
        "<-* (Reviews) over 2 paths:",
        "  (Grades) <- first <- (Reviews)",
        "  (Grades) <- second <- (Reviews)",
    ]


def test_explain_lists_a_ladder_edge_by_edge():
    db = oracle.ladder_db(2, paths_apart=True)
    assert db.explain("(N0) *-> (N2)").splitlines() == [
        "(N0)",
        "*-> (N2) over 4 paths:",
        "  (N0) -> l -> (L0)",
        "  (N0) -> r -> (R0)",
        "  (L0) -> n -> (N1)",
        "  (R0) -> n -> (N1)",
        "  (N1) -> l -> (L1)",
        "  (N1) -> r -> (R1)",
        "  (L1) -> n -> (N2)",
        "  (R1) -> n -> (N2)",
    ]


def test_explain_lists_each_inference_route(royalties_db):
    text = royalties_db.explain("(Writers | age < 30) <-*-> (Publishers)")
    assert text.splitlines() == [
        "(Writers | age < 30)",
        "<-*-> (Publishers) over 2 routes:",
        "via Royalties:",
        "  down: (Writers) <- writer <- (Royalties)",
        "  up: (Royalties) -> publisher -> (Publishers)",
        "via WriterBooks:",
        "  down: (Writers) <- writer <- (WriterBooks)",
        "  up: (WriterBooks) -> book -> (Books)",
        "  up: (Books) -> publisher -> (Publishers)",
    ]


# --- staged ingest against the row-at-a-time loader ---------------------------------


BAD_CELLS = {
    "integer": ("x1", "1.5", " ", "9" * 5000),
    "decimal": ("NaN", "sNaN", "-nan", "Infinity", "-Inf", "1e", "abc"),
    "date": ("2021-02-30", "03.05.2021", "x"),
    "string": (),
}


def random_cell(rng: random.Random, db, f, file_identities: dict) -> str:
    """A cell for field f: mostly valid, else NULL, badly typed or dangling."""
    r = rng.random()
    if r < 0.08:
        return rng.choice(("", "NULL"))
    if f.is_primitive:
        if r < 0.16 and BAD_CELLS[f.type]:
            return rng.choice(BAD_CELLS[f.type])
        return engine.encode_scalar(oracle.rich_value(f.type, rng.randrange(60)))
    dest = db.schema.concepts[f.type]
    if r < 0.14:  # dangling, or a malformed composite
        ident = tuple(oracle.rich_value(g.type, 500 + rng.randrange(9))
                      for g in dest.identity_fields)
        text = engine.encode_identity(ident)
        if len(ident) > 1 and rng.random() < 0.5:
            text = rng.choice((text[1:-1], text[:-1] + ",1)", "(1)", "()"))
        return text
    if r < 0.18:  # a non-finite component
        text = engine.encode_identity(tuple(oracle.rich_value(g.type, 1)
                                            for g in dest.identity_fields))
        return text.replace("0.25", rng.choice(("NaN", "sNaN", "Inf")))
    pool = list(db.collections[f.type].elements) + file_identities.get(f.type, [])
    return engine.encode_identity(rng.choice(pool))


def random_csv(rng: random.Random, db, name: str, path: Path, file_identities: dict) -> None:
    """A CSV file for one collection: fresh rows and duplicates of the store and
    of earlier rows, with bad cells, short and long rows, blank lines, quoted
    line breaks and now and then a BOM."""
    concept = db.schema.concepts[name]
    header = [f.name for f in concept.fields]
    rng.shuffle(header)
    stored_ids = list(db.collections[name].elements)
    mine = file_identities.setdefault(name, [])
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for _ in range(rng.randint(0, 30)):
        r = rng.random()
        if r < 0.15 and stored_ids:
            ident = rng.choice(stored_ids)
        elif r < 0.3 and mine:
            ident = rng.choice(mine)
        else:
            ident = tuple(oracle.rich_value(f.type, 100 + rng.randrange(40))
                          for f in concept.identity_fields)
        mine.append(ident)
        cells = dict(zip((f.name for f in concept.identity_fields),
                         map(engine.encode_scalar, ident)))
        for f in concept.identity_fields:
            if rng.random() < 0.05:
                cells[f.name] = rng.choice(("", "NULL", *BAD_CELLS[f.type]))
        for f in concept.entity_fields:
            cells[f.name] = random_cell(rng, db, f, file_identities)
        row = [cells[h] for h in header]
        if rng.random() < 0.05:
            row = row[:-1] if rng.random() < 0.5 else row + ["extra"]
        writer.writerow(row)
        if rng.random() < 0.05:
            buf.write(rng.choice(("\r\n", "\n")))
    bom = "\ufeff" if rng.random() < 0.3 else ""
    path.write_bytes((bom + buf.getvalue()).encode("utf-8"))


SMALL_RICH = dict(max_concepts=4, max_dims=2, max_elements=12, rich=True)


def load_both(seed: int, load, oracle_load, *args):
    """Run the staged loader and the row-at-a-time one on two copies of a
    seeded database; compare what they report, raise and store."""
    new = oracle.random_db(random.Random(seed), **SMALL_RICH)
    old = oracle.random_db(random.Random(seed), **SMALL_RICH)
    before = oracle.stored(new)
    try:
        want = oracle_load(old, *args)
    except FileError as e:
        with pytest.raises(FileError) as got:
            load(new, *args)
        assert str(got.value) == str(e), seed
        assert oracle.stored(new) == before, seed
        return str(e)
    got = load(new, *args)
    assert oracle.stored(new) == oracle.stored(old), seed
    return got, want


def test_staged_load_matches_the_row_at_a_time_loader(tmp_path):
    messages = []
    for seed in range(120):
        rng = random.Random(seed)
        shape = oracle.random_db(random.Random(seed), **SMALL_RICH)
        data = tmp_path / f"s{seed}"
        data.mkdir()
        names = [n for n in shape.schema.order if rng.random() < 0.7]
        file_identities: dict = {}
        for name in names:
            random_csv(rng, shape, name, data / f"{name}.csv", file_identities)
        for strict in (False, True):
            if names:  # the last file alone, its references checked against the store
                out = load_both(seed, engine.load_csv, oracle.o_load_csv,
                                names[-1], data / f"{names[-1]}.csv", strict)
                if isinstance(out, tuple):
                    got, want = out
                    assert (got.inserted, got.rejected) == (want.inserted, want.rejected), seed
                    messages += [m for _, m in got.rejected]
                else:
                    messages.append(out)
            out = load_both(seed, engine.load_data_dir, oracle.o_load_data_dir, data, strict)
            if isinstance(out, tuple):
                (got, got_unmatched), (want, want_unmatched) = out
                assert got_unmatched == want_unmatched
                assert [(r.collection, r.inserted, r.rejected) for r in got] == [
                    (r.collection, r.inserted, r.rejected) for r in want], seed
    # every kind of bad row turned up
    for kind in ("is not an integer", "is not a decimal", "not a finite decimal",
                 "is not an ISO date", "is empty", "cannot be NULL", "references missing",
                 "already exists", "values, expected", "components", "must look like"):
        assert any(kind in m for m in messages), kind


# --- the column store against the row-at-a-time writer --------------------------------


def _random_row(rng: random.Random, db, name: str) -> tuple:
    """(identity, entity) for db.insert: mostly good, else a duplicate identity,
    a missing NOT NULL value, a dangling reference or a badly typed value."""
    concept = db.schema.concepts[name]
    stored_ids = list(db.collections[name].elements)
    if stored_ids and rng.random() < 0.15:
        ident = rng.choice(stored_ids)
    else:
        ident = tuple(oracle.rich_value(f.type, 200 + rng.randrange(60))
                      for f in concept.identity_fields)
    entity = {}
    for f in concept.entity_fields:
        r = rng.random()
        if r < 0.1:
            continue  # NULL
        if f.is_primitive:
            bad = r < 0.14 and f.type != "string"
            entity[f.name] = "x" if bad else oracle.rich_value(f.type, rng.randrange(60))
        elif r < 0.2 or not db.collections[f.type].elements:
            entity[f.name] = tuple(oracle.rich_value(g.type, 500 + rng.randrange(9))
                                   for g in db.schema.concepts[f.type].identity_fields)
        else:
            entity[f.name] = rng.choice(list(db.collections[f.type].elements))
    return ident, entity


def _outcome(write, *args):
    """What a write returns, or the type and text of the error it raises."""
    try:
        return write(*args)
    except ComdbError as e:
        return type(e), str(e)


def _check_views(db) -> None:
    """Every Element view reads what oracle.stored decodes from the columns."""
    for name, (values, forward, _) in oracle.stored(db).items():
        coll = db.collections[name]
        for ident, row in coll.elements.items():
            el = coll.element(ident)
            assert (el.row, el.identity, el.collection) == (row, ident, name)
            assert el.values == values[ident] and el == model.Element(coll, row)
            assert el.entity == dict(zip(coll.concept.entity_names, values[ident]))
            for dim, greater in forward.items():
                assert el.entity[dim] == greater[ident]


def test_column_layout_matches_the_row_at_a_time_writer(tmp_path):
    """After CSV loads with bad rows, strict loads that fail, directory loads,
    inserts and failed inserts, the store holds, cell for cell, what the
    oracle's row-at-a-time writer holds after the same writes: ids, every
    column, the reverse lists, identity -> row, ordered, and every
    Element view."""
    seen = collections.Counter()
    for seed in range(60):
        rng = random.Random(seed)
        new = oracle.random_db(random.Random(seed), **SMALL_RICH)
        old = oracle.random_db(random.Random(seed), **SMALL_RICH)
        names = new.schema.order
        file_identities: dict = {}
        for step in range(8):
            r = rng.random()
            if r < 0.3:
                name = rng.choice(names)
                path = tmp_path / f"{seed}-{step}.csv"
                random_csv(rng, new, name, path, file_identities)
                strict = rng.random() < 0.3
                before, kept = oracle.layout(new), copy.deepcopy(old)
                got = _outcome(engine.load_csv, new, name, path, strict)
                want = _outcome(oracle.o_load_csv, old, name, path, strict)
                if isinstance(want, tuple):  # the oracle keeps what it wrote before the error
                    assert got == want and oracle.layout(new) == before, seed
                    old = kept
                    seen["strict load failed"] += 1
                    continue
                assert (got.inserted, got.rejected) == (want.inserted, want.rejected), seed
                seen["rejected rows"] += len(got.rejected)
                seen["loaded rows"] += got.inserted
            elif r < 0.4:
                data = tmp_path / f"{seed}-{step}"
                data.mkdir()
                for name in names:
                    if rng.random() < 0.6:
                        random_csv(rng, new, name, data / f"{name}.csv", file_identities)
                got = _outcome(engine.load_data_dir, new, data)
                want = _outcome(oracle.o_load_data_dir, old, data)
                assert [(g.inserted, g.rejected) for g in got[0]] == [
                    (w.inserted, w.rejected) for w in want[0]], seed
                seen["directory loads"] += 1
            else:
                name = rng.choice(names)
                ident, entity = _random_row(rng, new, name)
                got = _outcome(new.insert, name, ident, entity)
                want = _outcome(oracle.o_insert, old, name, ident, entity)
                if isinstance(want, tuple):
                    assert got == want, (seed, ident, entity)
                    seen["failed inserts"] += 1
                else:
                    assert got == new.collections[name].element(got.identity), seed
                    seen["inserts"] += 1
            assert oracle.layout(new) == oracle.layout(old), (seed, step)
        _check_views(new)
        seen["unordered"] += not all(c.ordered for c in new.collections.values())
        seen["null refs"] += any(-1 in c.columns[name] for c in new.collections.values()
                                 for name in c.refs)
        seen["composite"] += any(len(c.concept.identity_fields) > 1
                                 for c in new.collections.values())
    assert min(seen.values()) >= 10, seen
    assert len(seen) == 9, seen


def test_a_failed_strict_load_leaves_every_column_as_it_was(tmp_path):
    db = fresh(COMPOSITE)
    db.insert("Slots", ("2021-05-03", "r1"))
    db.insert("Talks", 1, {"slot": ("2021-05-03", "r1")})
    write(tmp_path / "Slots.csv", "day,room\n2021-05-04,r2\n2021-05-05,r3\n")
    write(tmp_path / "Talks.csv",
          "id,slot\n2,\"(2021-05-04,r2)\"\n3,\"(2021-05-05,r3)\"\n4,\"(2021-05-06,r9)\"\n")
    before = oracle.layout(db)
    lengths = {name: {k: len(c) for k, c in coll.columns.items()}
               for name, coll in db.collections.items()}
    with pytest.raises(FileError, match=r"Talks.csv:4: .*references missing"):
        engine.load_data_dir(db, tmp_path, strict=True)
    again = write(tmp_path / "again.csv", "day,room\n2021-05-07,r4\n2021-05-03,r1\n")
    with pytest.raises(FileError, match=r"again.csv:3: .*already exists"):
        engine.load_csv(db, "Slots", again, strict=True)
    assert {name: {k: len(c) for k, c in coll.columns.items()}
            for name, coll in db.collections.items()} == lengths
    assert oracle.layout(db) == before
    assert [len(ls) for ls in db.collections["Slots"].reverse.values()] == [1]


def test_a_bad_row_among_clean_ones_is_reported_as_row_at_a_time(tmp_path):
    """One bad row, or a few, at any place among clean rows of a chunk: the
    rows rejected, each with its line and error, are those the row-at-a-time
    loader rejects, and every other row is stored.  A row that fails claims no
    identity, so a later row with the same identity is stored."""
    schema = ("CONCEPT A IDENTITY id INT ENTITY n INT;"
              "CONCEPT B IDENTITY id INT ENTITY a A NOT NULL, b A, v DECIMAL, w INT NOT NULL;")
    planted = {
        "duplicate of the store": "3,1,,1.5,1",
        "duplicate in the chunk": "{dup},1,,1.5,1",
        "dangling": "{id},99,,1.5,1",
        "dangling nullable": "{id},1,77,1.5,1",
        "NULL reference": "{id},,,1.5,1",
        "NULL value": "{id},1,,1.5,",
        "bad cell": "{id},1,,1.5,x",
        "not finite": "{id},1,,NaN,1",
        "short row": "{id},1",
        # two faults in one row: the error reported is the first a row-at-a-time check meets
        "bad cell and duplicate": "3,1,,1.5,x",
        "duplicate and NULL value": "3,1,,1.5,",
        "dangling and not finite": "{id},99,,NaN,1",
        "not finite and NULL value": "{id},1,,NaN,",
        "NULL reference and bad cell": "{id},,,1.5,x",
        "dangling nullable and NULL value": "{id},1,77,1.5,",
    }
    first = {
        "bad cell and duplicate": "B.w: 'x' is not an integer",
        "duplicate and NULL value": "element (3,) already exists in 'B'",
        "dangling and not finite": "B.a references missing",
        "not finite and NULL value": "B.v: 'NaN' is not a finite decimal",
        "NULL reference and bad cell": "B.w: 'x' is not an integer",
        "dangling nullable and NULL value": "B.b references missing",
    }
    cases = 0
    for k, (kind, text) in enumerate(planted.items()):
        for place in (0, 7, 19):
            dbs = []
            for _ in range(2):
                db = fresh(schema)
                for i in range(5):
                    db.insert("A", i, {"n": i})
                db.insert("B", 3, {"a": 0, "w": 0})
                dbs.append(db)
            lines = [f"{100 + i},{i % 5},{'' if i % 3 else 2},{i}.25,{i}" for i in range(20)]
            # a duplicate of the row before it; at the top, the row after it is the duplicate
            lines.insert(place, text.format(id=900 + k, dup=100 + max(place - 1, 0)))
            if kind == "dangling":  # the failed row claims nothing: a later one takes its id
                lines.append(f"{900 + k},1,,1.5,1")
            path = write(tmp_path / f"{k}-{place}.csv", "id,a,b,v,w\n" + "\n".join(lines) + "\n")
            got = engine.load_csv(dbs[0], "B", path)
            want = oracle.o_load_csv(dbs[1], "B", path)
            assert (got.inserted, got.rejected) == (want.inserted, want.rejected), (kind, place)
            assert len(got.rejected) == 1 and got.inserted == len(lines) - 1, (kind, got.rejected)
            line = 3 if kind == "duplicate in the chunk" and place == 0 else place + 2
            assert got.rejected[0][0] == line, (kind, place)
            assert got.rejected[0][1].startswith(first.get(kind, "")), (kind, got.rejected)
            assert oracle.layout(dbs[0]) == oracle.layout(dbs[1]), (kind, place)
            cases += 1
    assert cases == 45


def test_bad_rows_across_chunk_boundaries_load_as_row_at_a_time(tmp_path, monkeypatch):
    """Three rows to a chunk, and bad rows on both sides of its boundaries: a
    duplicate of a row in an earlier chunk, a ragged row, a badly typed cell,
    a dangling reference and NULL in a NOT NULL field.  Loads of one file and
    of a directory report the lines and errors the row-at-a-time loader
    reports, raise what it raises under strict, and store what it stores.
    Quoted line breaks and blank lines keep lines apart from row numbers."""
    monkeypatch.setattr(engine, "CHUNK_ROWS", 3)
    schema = ("CONCEPT A IDENTITY id INT ENTITY n INT;"
              "CONCEPT B IDENTITY id INT ENTITY a A NOT NULL, v DECIMAL, w INT NOT NULL, "
              "s CHAR(8);")
    bad = {"100,1,1.5,1,x": "element (100,) already exists in 'B'",
           "901,1": "row has 2 values, expected 5",
           "902,1,1.5,x,x": "B.w: 'x' is not an integer",
           "903,99,1.5,1,x": "B.a references missing element (99,) of 'A'",
           "904,1,1.5,,x": "field B.w cannot be NULL"}
    for shift in range(3):  # each bad row falls at each place in a chunk
        rows = [f'{100 + i},{i % 8},{i}.25,{i},"{i}\n{i}"' for i in range(shift + 2)]
        for k, text in enumerate(bad):
            rows.append(text)
            rows.append(f"{200 + k},{k},,{k},")
            if k % 2:
                rows.append("")  # a blank line is no row
        data = tmp_path / str(shift)
        data.mkdir()
        write(data / "A.csv", "id,n\n" + "".join(f"{i},{i}\n" for i in range(8)))
        path = write(data / "B.csv", "id,a,v,w,s\n" + "\n".join(rows) + "\n")
        for strict in (False, True):
            dbs = [fresh(schema), fresh(schema)]
            want = _outcome(oracle.o_load_data_dir, dbs[1], data, strict)
            got = _outcome(engine.load_data_dir, dbs[0], data, strict)
            if strict:  # the duplicate is the first bad row; the oracle keeps what it wrote
                assert got == want and got[0] is FileError, shift
                assert got[1].startswith(f"{path}:{2 * shift + 6}: element (100,)"), got
                assert oracle.layout(dbs[0]) == oracle.layout(fresh(schema))
                continue
            (a, b), _ = got
            assert [(r.inserted, r.rejected) for r in got[0]] == [
                (r.inserted, r.rejected) for r in want[0]], shift
            assert (a.inserted, a.rejected, b.inserted) == (8, [], shift + 7)
            assert b.rejected == [(2 * shift + line, message)
                                  for line, message in zip((6, 8, 11, 13, 16), bad.values())]
            assert oracle.layout(dbs[0]) == oracle.layout(dbs[1]), shift
            # one file on its own, its references checked against the store
            dbs = [fresh(schema), fresh(schema)]
            for db in dbs:
                for i in range(8):
                    db.insert("A", i, {"n": i})
            want = oracle.o_load_csv(dbs[1], "B", path)
            got = engine.load_csv(dbs[0], "B", path)
            assert (got.inserted, got.rejected) == (want.inserted, want.rejected), shift
            assert oracle.layout(dbs[0]) == oracle.layout(dbs[1]), shift
