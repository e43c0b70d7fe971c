"""Every COQL statement in README.md's code blocks runs against a test fixture.

A `sql` block that starts with CONCEPT loads as a schema; in any other
`sql` block each line is one statement.  The Python examples' query and
explain strings and the command line's `--query` texts count too.  Each
statement runs on the first fixture whose schema names every collection
it names, and the statements of one block run on one database in order,
so a product a block defines serves its later lines.
"""

import re
from pathlib import Path

from conftest import load_fixture
from comdb import engine
from comdb.coql.lexer import KEYWORDS, split_statements

README = Path(__file__).parent.parent / "README.md"
FIXTURES = ("catalog", "colors", "library", "market")


def _blocks() -> list[list[str]]:
    """The COQL statements of each code block, in order; a schema block is one statement."""
    blocks = []
    for lang, body in re.findall(r"```(\w*)\n(.*?)```", README.read_text(), re.DOTALL):
        if lang == "sql" and body.lstrip().startswith("CONCEPT"):
            blocks.append([body])
        elif lang == "sql":
            blocks.append([s for line in body.splitlines() for s in split_statements(line)])
        elif lang == "python":
            blocks.append(re.findall(r"\.(?:query|explain)\(\"([^\"]*)\"\)", body))
        elif lang == "sh":
            blocks.append(re.findall(r"--query '([^']*)'", body))
    return [b for b in blocks if b]


def _names(statement: str) -> set[str]:
    """The capitalized words of a statement outside its strings that are not
    keywords, without the name a product definition gives."""
    words = re.findall(r"\b[A-Z]\w*", re.sub(r"^\w+ = |'[^']*'", "", statement))
    return {w for w in words if w not in KEYWORDS}


def test_readme_statements_run_on_the_fixtures():
    schemas = {name: load_fixture(name).schema for name in FIXTURES}
    ran = 0
    for block in _blocks():
        if block[0].lstrip().startswith("CONCEPT"):
            summary = engine.load_schema(engine.Database(), block[0])
            assert summary.concepts == block[0].count("CONCEPT"), block[0]
            continue
        dbs: dict = {}
        products: set = set()
        for statement in block:
            names = _names(statement) - products
            fixture = next((f for f in FIXTURES if names <= set(schemas[f].concepts)), None)
            assert fixture is not None, f"no fixture names all of {sorted(names)}: {statement}"
            if fixture not in dbs:
                dbs[fixture] = load_fixture(fixture)
            kind, value = engine.execute_statement(dbs[fixture], statement)
            if kind == "product":
                products.add(value.name)
            ran += 1
    assert ran >= 13
