"""Schema construction, typed identities, insertion invariants, poset order."""

import collections
import datetime
import random
from decimal import Decimal

import pytest

import oracle
from comdb import engine, model
from comdb.coql.parser import parse_schema
from comdb.errors import (
    CyclicSchema,
    DanglingReference,
    DuplicateConcept,
    DuplicateField,
    DuplicateIdentity,
    NestedIdentity,
    NullViolation,
    SchemaError,
    TypeMismatch,
    UnknownCollection,
    UnknownConcept,
)


def db_from(text: str) -> engine.Database:
    db = engine.Database()
    engine.load_schema(db, text)
    return db


# --- primitive coercion ---------------------------------------------------


def test_coerce_string_and_integer():
    assert model.coerce_primitive("abc", "string", "t") == "abc"
    assert model.coerce_primitive(7, "integer", "t") == 7
    with pytest.raises(TypeMismatch):
        model.coerce_primitive(True, "integer", "t")
    with pytest.raises(TypeMismatch):
        model.coerce_primitive(7, "string", "t")


def test_coerce_decimal():
    assert model.coerce_primitive(Decimal("9.50"), "decimal", "t") == Decimal("9.50")
    assert model.coerce_primitive(3, "decimal", "t") == Decimal(3)
    assert model.coerce_primitive("4.25", "decimal", "t") == Decimal("4.25")
    with pytest.raises(TypeMismatch):
        model.coerce_primitive("not-a-number", "decimal", "t")


def test_coerce_date():
    d = datetime.date(2021, 5, 3)
    assert model.coerce_primitive(d, "date", "t") == d
    assert model.coerce_primitive("2021-05-03", "date", "t") == d
    with pytest.raises(TypeMismatch):
        model.coerce_primitive("2021-13-01", "date", "t")
    for text in ("20210503", "2021-W18-1", "2021-05-03T00:00"):  # read by fromisoformat on 3.11
        with pytest.raises(TypeMismatch, match="is not an ISO date"):
            model.coerce_primitive(text, "date", "t")
    with pytest.raises(TypeMismatch):
        model.coerce_primitive(datetime.datetime(2021, 5, 3), "date", "t")


# --- schema building ------------------------------------------------------


def test_build_schema_basic_shape():
    db = db_from(
        """
        CONCEPT A IDENTITY id INT;
        CONCEPT B IDENTITY id INT ENTITY a A NOT NULL, note CHAR(10);
        """
    )
    s = db.schema
    assert set(s.concepts) == {"A", "B"}
    (dim,) = s.dimensions
    assert (dim.name, dim.source, dim.destination, dim.nullable) == ("a", "B", "A", False)
    assert s.concept("B").field("note").length == 10
    assert s.above("B") == {"A"}
    assert s.below("A") == {"B"}


def test_duplicate_concept_rejected():
    with pytest.raises(DuplicateConcept):
        db_from("CONCEPT A IDENTITY id INT; CONCEPT A IDENTITY id INT;")


def test_concept_named_like_a_primitive_type_rejected():
    with pytest.raises(SchemaError) as exc:
        db_from("CONCEPT integer IDENTITY id INT;")
    assert type(exc.value) is SchemaError
    assert str(exc.value) == "concept name 'integer' collides with a primitive type"


def test_duplicate_field_rejected():
    with pytest.raises(DuplicateField):
        db_from("CONCEPT A IDENTITY id INT ENTITY id CHAR(5);")


def test_reference_to_unknown_concept_rejected():
    with pytest.raises(UnknownConcept):
        db_from("CONCEPT A IDENTITY id INT ENTITY b B;")


def test_reference_in_identity_rejected():
    with pytest.raises(NestedIdentity):
        db_from(
            "CONCEPT A IDENTITY id INT;"
            "CONCEPT B IDENTITY a A;"
        )


def test_cycles_rejected():
    with pytest.raises(CyclicSchema):
        db_from(
            "CONCEPT A IDENTITY id INT ENTITY b B;"
            "CONCEPT B IDENTITY id INT ENTITY a A;"
        )
    with pytest.raises(CyclicSchema):
        db_from("CONCEPT A IDENTITY id INT ENTITY a A;")


def test_a_cycle_names_the_concepts_on_it_and_below_it():
    # Top is above the cycle and is placed; Low, below it, never can be
    with pytest.raises(CyclicSchema) as e:
        db_from(
            "CONCEPT Top IDENTITY id INT;"
            "CONCEPT A IDENTITY id INT ENTITY b B, top Top;"
            "CONCEPT B IDENTITY id INT ENTITY a A;"
            "CONCEPT Low IDENTITY id INT ENTITY a A;"
        )
    assert str(e.value) == "dimension cycle through concepts: A, B, Low"


def test_order_and_closures_match_the_oracle():
    """Schema.order, above and below equal the rescanning load order and the
    brute-force closure on random schemas, some given back references that
    close cycles; a cyclic one raises CyclicSchema naming every concept the
    rescanning order never places."""
    seen = collections.Counter()
    for seed in range(300):
        rng = random.Random(seed)
        concepts = parse_schema(oracle.random_schema_text(rng, max_concepts=8, max_dims=3))
        for k in range(rng.choice((0, 0, 1, 2))):
            lo, hi = sorted(rng.sample(range(len(concepts)), 2))
            c = concepts[hi]
            back = model.FieldSpec(f"back{k}", concepts[lo].name)
            concepts[hi] = model.Concept(c.name, c.identity_fields, c.entity_fields + (back,))
        want = oracle.o_closures(concepts)
        order = oracle.load_order(want["above"])
        if len(order) < len(concepts):
            stuck = sorted(c.name for c in concepts if c.name not in order)
            with pytest.raises(CyclicSchema) as e:
                model.build_schema(concepts)
            assert str(e.value) == f"dimension cycle through concepts: {', '.join(stuck)}", seed
            seen["cyclic"] += 1
            seen["below a cycle"] += any(name not in want["above"][name] for name in stuck)
            continue
        s = model.build_schema(concepts)
        assert s.order == tuple(order), seed
        for name in order:
            assert s.above(name) == want["above"][name], (seed, name)
            assert s.below(name) == want["below"][name], (seed, name)
        seen["acyclic"] += 1
        seen["parallel"] += len({(d.source, d.destination) for d in s.dimensions}) < len(
            s.dimensions)
    assert min(seen[k] for k in ("cyclic", "below a cycle", "acyclic", "parallel")) >= 20, seen


def test_single_concept_schema_is_fine():
    db = db_from("CONCEPT Only IDENTITY name CHAR(20) ENTITY note CHAR(50);")
    assert db.schema.dimensions == ()
    assert db.schema.above("Only") == set()


# --- poset queries on the schema ------------------------------------------

DIAMOND = """
CONCEPT Top IDENTITY id INT;
CONCEPT Left IDENTITY id INT ENTITY up Top NOT NULL;
CONCEPT Right IDENTITY id INT ENTITY up Top NOT NULL;
CONCEPT Bottom IDENTITY id INT ENTITY l Left NOT NULL, r Right NOT NULL;
"""


def test_diamond_closures():
    s = db_from(DIAMOND).schema
    assert s.above("Bottom") == {"Left", "Right", "Top"}
    assert s.below("Top") == {"Left", "Right", "Bottom"}


def test_dimension_path_composability():
    s = db_from(DIAMOND).schema
    d1 = s.dimension("Bottom", "l")
    d2 = s.dimension("Left", "up")
    p = model.DimensionPath((d1, d2))
    assert p.source == "Bottom" and p.destination == "Top"
    assert p.dotted() == "l.up"
    assert p.rank == 2
    with pytest.raises(model.PathNotComposable):
        model.DimensionPath((d2, d1))


def test_enumerate_paths_via_schema_path():
    s = db_from(DIAMOND).schema
    p = s.path("Bottom", "l", "up")
    assert [d.name for d in p.segments] == ["l", "up"]
    with pytest.raises(model.PathNotComposable):
        s.path("Bottom", "up")


# --- insertion -------------------------------------------------------------


def test_insert_and_lookup():
    db = db_from("CONCEPT A IDENTITY id INT ENTITY note CHAR(10);")
    e = db.insert("A", 1, {"note": "hi"})
    assert e.identity == (1,)
    assert db.collections["A"].elements[(1,)] == e.row and db.collections["A"].element((1,)) == e
    assert db.version == 1


def test_duplicate_identity_rejected_and_version_unchanged():
    db = db_from("CONCEPT A IDENTITY id INT;")
    db.insert("A", 1)
    v = db.version
    with pytest.raises(DuplicateIdentity):
        db.insert("A", 1)
    assert db.version == v


def test_identity_may_not_contain_null():
    db = db_from("CONCEPT A IDENTITY x INT, y CHAR(3);")
    with pytest.raises(NullViolation):
        db.insert("A", (1, None))
    with pytest.raises(TypeMismatch):
        db.insert("A", (1,))


def test_reference_must_resolve():
    db = db_from(
        "CONCEPT A IDENTITY id INT;"
        "CONCEPT B IDENTITY id INT ENTITY a A NOT NULL;"
    )
    with pytest.raises(DanglingReference):
        db.insert("B", 1, {"a": 99})
    db.insert("A", 99)
    db.insert("B", 1, {"a": 99})


def test_not_null_reference_enforced():
    db = db_from(
        "CONCEPT A IDENTITY id INT;"
        "CONCEPT B IDENTITY id INT ENTITY a A NOT NULL;"
    )
    db.insert("A", 1)
    with pytest.raises(NullViolation):
        db.insert("B", 1)


def test_nullable_reference_may_be_omitted():
    db = db_from(
        "CONCEPT A IDENTITY id INT;"
        "CONCEPT B IDENTITY id INT ENTITY a A;"
    )
    e = db.insert("B", 1)
    assert e.entity["a"] is None


def test_failed_insert_leaves_no_partial_state():
    # second entity value is bad, so nothing of the row may stick
    db = db_from(
        "CONCEPT A IDENTITY id INT;"
        "CONCEPT B IDENTITY id INT ENTITY a A NOT NULL, n INT;"
    )
    db.insert("A", 1)
    with pytest.raises(TypeMismatch):
        db.insert("B", 5, {"a": 1, "n": "oops"})
    coll = db.collections["B"]
    assert len(coll) == 0 and coll.ids == [] and coll.elements == {}
    assert coll.columns == {"id": [], "a": [], "n": []}
    dim = db.schema.dimension("B", "a")
    assert db.collections["A"].reverse[dim] == [[]]  # A's one row, referenced by nothing


def test_bare_reference_value_for_single_field_identity():
    db = db_from(
        "CONCEPT A IDENTITY id INT;"
        "CONCEPT B IDENTITY id INT ENTITY a A NOT NULL;"
    )
    db.insert("A", 3)
    e = db.insert("B", 1, {"a": 3})
    assert e.entity["a"] == (3,)


def test_composite_reference_requires_full_tuple():
    db = db_from(
        "CONCEPT A IDENTITY x INT, y INT;"
        "CONCEPT B IDENTITY id INT ENTITY a A NOT NULL;"
    )
    db.insert("A", (1, 2))
    e = db.insert("B", 1, {"a": (1, 2)})
    assert e.entity["a"] == (1, 2)
    with pytest.raises(TypeMismatch):
        db.insert("B", 2, {"a": 1})


def test_insert_into_an_unknown_collection_rejected():
    db = db_from("CONCEPT A IDENTITY id INT;")
    with pytest.raises(UnknownCollection) as exc:
        db.insert("Nope", 1)
    assert str(exc.value) == "unknown collection 'Nope'"
    assert db.version == 0


def test_unknown_entity_field_rejected():
    db = db_from("CONCEPT A IDENTITY id INT;")
    with pytest.raises(TypeMismatch):
        db.insert("A", 1, {"nope": 3})


def test_decimal_identity_equality():
    # 2 and 2.0 are the same decimal identity
    db = db_from("CONCEPT A IDENTITY amount DECIMAL(8,2);")
    db.insert("A", Decimal("2"))
    with pytest.raises(DuplicateIdentity):
        db.insert("A", Decimal("2.0"))


def test_char_width_is_declarative_only(tmp_path):
    # declared widths, CHAR(n) and DECIMAL(p,s), are not enforced on insert or
    # load: checking them would be a deliberate change of this behaviour
    db = db_from("CONCEPT A IDENTITY id INT ENTITY code CHAR(3), d DECIMAL(3,1);")
    assert db.schema.concept("A").field("code").length == 3
    db.insert("A", 1, {"code": "abc"})
    db.insert("A", 2, {"code": "abcdefgh", "d": "12345.678"})
    assert db.collections["A"].element((2,)).entity == {"code": "abcdefgh",
                                                         "d": Decimal("12345.678")}
    (tmp_path / "A.csv").write_text("id,code,d\n3,abcdefgh,-98765.4321\n", encoding="utf-8")
    engine.load_csv(db, "A", tmp_path / "A.csv", strict=True)
    assert db.collections["A"].element((3,)).values == ("abcdefgh", Decimal("-98765.4321"))
