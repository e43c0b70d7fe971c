import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from comdb import algebra, engine
from comdb.algebra import ElementSet

FIXTURES = Path(__file__).parent / "fixtures"


def every(db, domain) -> ElementSet:
    """Every member of a collection, or of a product (its predicate applied), as identities."""
    if isinstance(domain, str):
        return ElementSet(domain, frozenset(db.collections[domain].ids))
    ids = [db.collections[c].ids for _, c in domain.factors]
    return ElementSet(domain, frozenset(tuple(map(list.__getitem__, ids, m))
                                        for m in algebra.iter_members(db, domain)))


def load_fixture(name: str, strict: bool = True) -> engine.Database:
    db = engine.Database()
    engine.load_schema(db, (FIXTURES / f"{name}.ddl").read_text())
    data = FIXTURES / f"{name}_data"
    if data.is_dir():
        engine.load_data_dir(db, data, strict=strict)
    return db


@pytest.fixture
def colors_db():
    return load_fixture("colors")


@pytest.fixture
def catalog_db():
    return load_fixture("catalog")


@pytest.fixture
def library_db():
    return load_fixture("library")


@pytest.fixture
def market_db():
    return load_fixture("market")


@pytest.fixture
def royalties_db():
    """Writers and Publishers joined by two distinct lesser collections."""
    db = engine.Database()
    engine.load_schema(db, """
        CONCEPT Writers IDENTITY name CHAR(20) ENTITY age INT;
        CONCEPT Publishers IDENTITY name CHAR(40);
        CONCEPT Books IDENTITY isbn CHAR(13) ENTITY publisher Publishers;
        CONCEPT WriterBooks IDENTITY id INT
          ENTITY writer Writers NOT NULL, book Books NOT NULL;
        CONCEPT Royalties IDENTITY id INT
          ENTITY writer Writers NOT NULL, publisher Publishers NOT NULL;
    """)
    db.insert("Writers", "w1", {"age": 25})
    db.insert("Writers", "w2", {"age": 45})
    db.insert("Publishers", "p1")
    db.insert("Publishers", "p2")
    db.insert("Publishers", "p3")
    db.insert("Books", "b1", {"publisher": "p1"})
    db.insert("Books", "b2", {"publisher": "p2"})
    db.insert("WriterBooks", 1, {"writer": "w1", "book": "b1"})
    db.insert("WriterBooks", 2, {"writer": "w2", "book": "b2"})
    db.insert("Royalties", 1, {"writer": "w1", "publisher": "p3"})
    return db


@pytest.fixture
def parallel_db():
    """Two parallel dimensions between the same pair of collections."""
    db = engine.Database()
    engine.load_schema(db, """
        CONCEPT Grades IDENTITY g CHAR(1);
        CONCEPT Reviews IDENTITY id INT
          ENTITY first Grades, second Grades;
    """)
    for g in ("a", "b", "c"):
        db.insert("Grades", g)
    db.insert("Reviews", 1, {"first": "a", "second": "b"})
    db.insert("Reviews", 2, {"first": "b", "second": "b"})
    db.insert("Reviews", 3, {"first": "c"})
    return db
