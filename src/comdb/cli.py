"""Command line front end: one-shot queries, script files, or a REPL.

stdout carries query results only; prompts, banners, load reports and
errors all go to stderr, so output can be piped or compared directly.
Exit codes: 0 success, 2 query parse/resolution/execution error, 3 schema
or data loading error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import engine
from .coql.lexer import split_statements
from .errors import ComdbError

FORMATS = ("table", "csv", "json")


def build_argparser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="comdb",
        description="In-memory concept database: load a schema plus CSV data "
                    "and answer projection, de-projection and inference queries.",
    )
    p.add_argument("--schema", required=True, help="concept definition file")
    p.add_argument("--data", help="directory holding one <Collection>.csv per collection")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--query", help="run one statement and exit")
    mode.add_argument("--script", help="run ;-separated statements from a file")
    mode.add_argument("--repl", action="store_true", help="interactive session")
    p.add_argument("--format", choices=FORMATS, default="table", help="result format")
    p.add_argument("--strict", action="store_true",
                   help="abort loading on the first bad data row")
    return p


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_database(args) -> engine.Database:
    try:
        text = Path(args.schema).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as e:
        raise ComdbError(f"cannot read schema file: {e}") from None
    db = engine.Database()
    summary = engine.load_schema(db, text)
    for w in summary.warnings:
        _say(f"warning: {w}")
    _say(f"loaded schema: {summary.concepts} concepts, {summary.dimensions} dimensions")
    if args.data:
        reports, unmatched = engine.load_data_dir(db, args.data, strict=args.strict)
        for r in reports:
            _say(f"loaded {r.collection}: {r.inserted} rows")
            for line, msg in r.rejected:
                _say(f"warning: {r.path}:{line}: {msg}")
        for name in unmatched:
            _say(f"warning: {name}.csv does not match any collection, skipped")
    return db


def _print_result(result, fmt: str) -> None:
    for w in result.warnings:
        _say(f"warning: {w}")
    print(engine.render(result, fmt))


def _run_statement(db: engine.Database, text: str, fmt: str) -> None:
    kind, payload = engine.execute_statement(db, text)
    if kind == "product":
        _say(f"registered product '{payload.name}'")
    else:
        _print_result(payload, fmt)


def run_query(db: engine.Database, text: str, fmt: str) -> int:
    try:
        _run_statement(db, text, fmt)
    except ComdbError as e:
        _say(f"error: {e}")
        return 2
    return 0


def run_script(db: engine.Database, path: str, fmt: str) -> int:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as e:
        _say(f"error: cannot read script: {e}")
        return 3
    for stmt in split_statements(text):
        try:
            _run_statement(db, stmt, fmt)
        except ComdbError as e:
            _say(f"error: {e}")
            return 2
    return 0


REPL_HELP = """\
.help                 this message
.schema               the order of collections (greater above lesser)
.collections          collection sizes and registered products
.explain <statement>  show the hops a query will take, without running it
.format <fmt>         switch output format: table, csv, json
.reload               reload schema and data from the original paths
.quit                 leave"""


def run_repl(db: engine.Database, args, fmt: str) -> int:
    _say("comdb interactive: statements end at end of line, .help for commands")
    while True:
        print("comdb> ", end="", file=sys.stderr, flush=True)
        try:
            line = input()
        except EOFError:
            _say("")
            return 0
        line = line.strip().rstrip(";").strip()
        if not line:
            continue
        if line.startswith("."):
            cmd, _, rest = line.partition(" ")
            rest = rest.strip()
            if cmd == ".quit":
                return 0
            if cmd == ".help":
                _say(REPL_HELP)
            elif cmd == ".schema":
                print(engine.schema_outline(db.schema))
            elif cmd == ".collections":
                print(engine.collections_outline(db))
            elif cmd == ".explain":
                try:
                    print(db.explain(rest))
                except ComdbError as e:
                    _say(f"error: {e}")
            elif cmd == ".format":
                if rest in FORMATS:
                    fmt = rest
                    _say(f"format is now {fmt}")
                else:
                    _say(f"error: pick one of {', '.join(FORMATS)}")
            elif cmd == ".reload":
                try:
                    db = _load_database(args)
                    _say("reloaded; registered products were dropped")
                except ComdbError as e:
                    _say(f"error: {e}")
            else:
                _say(f"error: unknown command {cmd}; .help lists them")
            continue
        try:
            _run_statement(db, line, fmt)
        except ComdbError as e:
            _say(f"error: {e}")
    return 0


def main(argv=None) -> int:
    args = build_argparser().parse_args(argv)
    try:
        db = _load_database(args)
    except ComdbError as e:
        _say(f"error: {e}")
        return 3
    if args.query is not None:
        return run_query(db, args.query, args.format)
    if args.script is not None:
        return run_script(db, args.script, args.format)
    return run_repl(db, args, args.format)


if __name__ == "__main__":
    sys.exit(main())
