"""Loader fuzz: whatever schema text or CSV directory a user hands over, loading
it and reading the result raises nothing but ComdbError.

Each seeded case mutates the schema text or the CSV files of a random
database, then sends what loads through load_schema, load_data_dir (strict
and not), schema_outline, explain and a query rendered in all three formats.
Two shapes that are deep rather than wrong are checked too: a chain of
1,200 concepts, loaded, planned, run and outlined, and an 18-rung ladder,
whose outline would double with each rung if a concept reached twice were
listed again in full.
"""

import collections
import random
import re
from pathlib import Path

import oracle
from comdb import engine
from comdb.cli import main
from comdb.errors import ComdbError

# what a mutation may insert: the grammar's words and marks, a BOM, NUL and a non-ASCII letter
_PIECES = ("CONCEPT ", "IDENTITY ", "ENTITY ", " NOT NULL", "INT", "DECIMAL", "DATE",
           "CHAR(3)", "C0", "C1", "C2", ";", ",", "(", ")", "'", '"', "\n", "\r", " ", "-",
           "0", "1.5", "NULL", "\ufeff", "\x00", "é")
_QUERIES = ("({a})", "({a} | id > 1)", "({a}) -> ({b})", "({a}) <- ({b})", "({a}) *-> ({b})",
            "({a}) <-* ({b})", "({a}) <-*-> ({b})", "({a}, {b})")


def _mutate(rng: random.Random, text: str) -> str:
    """text with one or two of its words dropped, copied or replaced.

    Half the time the word is a concept name.  A concept name is replaced by
    another, which can close a cycle; any other word by another word of the
    text, or by one of _PIECES.
    """
    parts = re.split(r"(\W)", text)  # words at even places, marks at odd
    spots = [i for i in range(0, len(parts), 2) if parts[i]] or [0]
    words = [parts[i] for i in spots]
    names = re.findall(r"CONCEPT (\w+)", text) or words
    named = [i for i in spots if parts[i] in names]
    for _ in range(rng.randint(1, 2)):
        i = rng.choice(named if named and rng.random() < 0.5 else spots)
        r = rng.random()
        if r < 0.2:
            parts[i] = ""
        elif r < 0.3:
            parts[i] += " " + parts[i]
        elif parts[i] in names:
            parts[i] = rng.choice(names)
        else:
            parts[i] = rng.choice(words if r < 0.8 else _PIECES)
    return "".join(parts)


def _read_everything(rng: random.Random, db: engine.Database) -> None:
    """The outline, and a random query over the schema explained, run and rendered."""
    engine.schema_outline(db.schema)
    names = sorted(db.schema.concepts) or ["C0"]
    text = rng.choice(_QUERIES).format(a=rng.choice(names), b=rng.choice(names))
    try:
        db.explain(text)
        rs = db.query(text)
    except ComdbError:
        return
    for fmt in ("table", "csv", "json"):
        engine.render(rs, fmt)


def _load(schema_text: str, data: Path | None, strict: bool):
    """A database with the schema and the directory loaded, or the ComdbError raised."""
    db = engine.Database()
    try:
        engine.load_schema(db, schema_text)
        if data is not None:
            engine.load_data_dir(db, data, strict=strict)
    except ComdbError as e:
        return e
    return db


def test_mutated_schemas_and_csv_directories_raise_only_comdb_errors(tmp_path):
    seen = collections.Counter()
    for seed in range(200):
        rng = random.Random(seed)
        # random_db draws its schema first, so a copy of rng gives random_db's schema text
        schema_text = oracle.random_schema_text(random.Random(seed), 5, 3, rich=True)
        source = oracle.random_db(random.Random(seed), 5, 3, max_elements=20, rich=True)
        got = _load(_mutate(rng, schema_text), None, False)
        seen["schema", type(got).__name__] += 1
        if isinstance(got, engine.Database):
            _read_everything(rng, got)
        data = tmp_path / str(seed)
        data.mkdir()
        for name in source.schema.order:
            if rng.random() < 0.8:
                text = engine.render(source.query(f"({name})"), "csv")
                encoded = _mutate(rng, text).encode()
                if rng.random() < 0.1:  # a byte that is not UTF-8
                    k = rng.randint(0, len(encoded))
                    encoded = encoded[:k] + b"\xff" + encoded[k:]
                (data / f"{name}.csv").write_bytes(encoded)
        for strict in (False, True):
            got = _load(schema_text, data, strict)
            seen["data", isinstance(got, engine.Database)] += 1
            if isinstance(got, engine.Database):
                _read_everything(rng, got)
    assert min(seen["schema", "Database"], seen["schema", "CyclicSchema"] * 4,
               seen["data", True], seen["data", False]) >= 20, seen


def _chain(n: int) -> str:
    """C0 -> C1 -> ... -> Cn: each concept references the next."""
    return "\n".join([f"CONCEPT C{n} IDENTITY id INT;"]
                     + [f"CONCEPT C{i} IDENTITY id INT ENTITY up C{i + 1};" for i in range(n)])


def test_a_1200_concept_chain_loads_plans_and_runs(tmp_path, capsys):
    n = 1200
    (tmp_path / "chain.ddl").write_text(_chain(n))
    data = tmp_path / "data"
    data.mkdir()
    (data / f"C{n}.csv").write_text("id\n7\n")
    (data / f"C{n - 1}.csv").write_text("id,up\n3,7\n")
    db = engine.Database()
    engine.load_schema(db, _chain(n))
    (reports, unmatched) = engine.load_data_dir(db, data, strict=True)
    assert [r.collection for r in reports] == [f"C{n}", f"C{n - 1}"] and not unmatched
    assert db.schema.order == tuple(f"C{i}" for i in range(n, -1, -1))
    hops = db.explain(f"(C0) -> (C{n})").splitlines()
    assert len(hops) == n + 1 and hops[-1] == f"-> up -> (C{n})"
    assert db.explain(f"(C0) *-> (C{n})").splitlines()[1:] == hops[1:]
    assert db.query(f"(C{n - 1}) -> (C{n})").identities == [(7,)]
    outline = engine.schema_outline(db.schema).splitlines()
    assert len(outline) == n + 1 and outline[-1] == "  " * n + "C0 (up)"
    code = main(["--schema", str(tmp_path / "chain.ddl"), "--data", str(data),
                 "--query", f"(C{n - 1}) -> (C{n})", "--format", "csv"])
    assert (code, capsys.readouterr().out) == (0, "id\n7\n")
    assert main(["--schema", str(tmp_path / "chain.ddl"), "--query", f"(C0) -> (C{n})"]) == 0


def test_a_ladder_outline_lists_each_dimension_once():
    rungs = 18
    parts = [f"CONCEPT L{rungs} IDENTITY id INT;", f"CONCEPT R{rungs} IDENTITY id INT;"]
    parts += [f"CONCEPT {side}{i} IDENTITY id INT ENTITY l L{i + 1}, r R{i + 1};"
              for i in range(rungs) for side in "LR"]
    db = engine.Database()
    engine.load_schema(db, "\n".join(parts))
    outline = engine.schema_outline(db.schema).splitlines()
    assert len(outline) == 74
    assert sorted(line.strip() for line in outline) == sorted(
        [f"L{rungs}", f"R{rungs}"] + [f"{d.source} ({d.name})" for d in db.schema.dimensions])
    assert outline[:4] == [f"L{rungs}", f"  L{rungs - 1} (l)", f"    L{rungs - 2} (l)",
                           f"      L{rungs - 3} (l)"]
