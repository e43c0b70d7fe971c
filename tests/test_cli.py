"""Command line behaviour: exit codes, stream separation, REPL commands."""

import io
import json

import pytest

from comdb.cli import main
from conftest import FIXTURES

SCHEMA = FIXTURES / "catalog.ddl"
DATA = FIXTURES / "catalog_data"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def base_args(*extra):
    return ("--schema", str(SCHEMA), "--data", str(DATA)) + extra


# --- one-shot queries -----------------------------------------------------------


def test_query_result_goes_to_stdout_only(capsys):
    code, out, err = run(capsys, *base_args("--query", "(Books | price < 10)"))
    assert code == 0
    assert "b1    Alpha  9.50   Springer" in out
    assert "(3 rows)" in out
    # everything else lands on stderr
    assert "loaded schema" in err
    assert "loaded Books: 5 rows" in err
    for line in out.splitlines():
        assert not line.startswith(("loaded", "warning", "error"))


def test_query_json_format(capsys):
    code, out, err = run(
        capsys, *base_args("--format", "json", "--query", "(Books | isbn == 'b1')")
    )
    assert code == 0
    row = json.loads(out.splitlines()[0])
    assert row["title"] == "Alpha" and row["_identity"] == "b1"


def test_query_warnings_go_to_stderr(capsys, tmp_path):
    schema = tmp_path / "s.ddl"
    schema.write_text(
        "CONCEPT A IDENTITY id INT;\nCONCEPT B IDENTITY id INT;\n", encoding="utf-8"
    )
    code, out, err = run(
        capsys, "--schema", str(schema), "--query", "(A) <-*-> (B)"
    )
    assert code == 0
    assert "warning: independent collections: full target returned" in err
    assert "warning" not in out


def test_an_empty_schema_and_an_unmatched_csv_are_warned_of(capsys, tmp_path):
    schema = tmp_path / "s.ddl"
    schema.write_text("", encoding="utf-8")
    code, out, err = run(capsys, "--schema", str(schema), "--query", "(A)")
    assert code == 2 and out == ""
    assert err.splitlines()[0] == "warning: schema defines no concepts"
    schema.write_text("CONCEPT A IDENTITY id INT;\n", encoding="utf-8")
    data = tmp_path / "data"
    data.mkdir()
    (data / "A.csv").write_text("id\n1\n", encoding="utf-8")
    (data / "Notes.csv").write_text("text\nhello\n", encoding="utf-8")
    code, out, err = run(capsys, "--schema", str(schema), "--data", str(data), "--query", "(A)")
    assert code == 0 and "(1 row)" in out
    assert "warning: Notes.csv does not match any collection, skipped" in err.splitlines()


def test_bad_query_exits_2(capsys):
    code, out, err = run(capsys, *base_args("--query", "(Books | price <"))
    assert code == 2
    assert out == ""
    assert "error:" in err and "end of input" in err


def test_unknown_collection_exits_2(capsys):
    code, out, err = run(capsys, *base_args("--query", "(Nope)"))
    assert code == 2
    assert "Nope" in err


def test_product_past_the_pair_bound_exits_2(capsys, tmp_path):
    schema = tmp_path / "s.ddl"
    schema.write_text("CONCEPT A IDENTITY id INT;\n", encoding="utf-8")
    data = tmp_path / "data"
    data.mkdir()
    (data / "A.csv").write_text("id\n" + "".join(f"{i}\n" for i in range(127)),
                                encoding="utf-8")
    code, out, err = run(capsys, "--schema", str(schema), "--data", str(data),
                         "--query", "(A a, A b, A c)")
    assert code == 2 and out == ""
    assert ("error: product '(A a, A b, A c)' of A a (127) x A b (127) x A c (127) "
            "would examine 2,048,383 pairs, more than the 2,000,000 allowed") in err


def test_unreadable_schema_exits_3(capsys, tmp_path):
    code, out, err = run(
        capsys, "--schema", str(tmp_path / "none.ddl"), "--query", "(X)"
    )
    assert code == 3
    assert "error:" in err


def test_bad_data_dir_exits_3(capsys, tmp_path):
    code, out, err = run(
        capsys,
        "--schema", str(SCHEMA),
        "--data", str(tmp_path / "missing"),
        "--query", "(Books)",
    )
    assert code == 3


def test_strict_load_failure_exits_3(capsys, tmp_path):
    schema = tmp_path / "s.ddl"
    schema.write_text("CONCEPT A IDENTITY id INT;\n", encoding="utf-8")
    data = tmp_path / "data"
    data.mkdir()
    (data / "A.csv").write_text("id\n1\nnope\n", encoding="utf-8")
    args = ("--schema", str(schema), "--data", str(data), "--query", "(A)")
    code, out, err = run(capsys, *args)
    assert code == 0  # permissive load skips the bad row
    assert "warning" in err
    code, out, err = run(capsys, *args, "--strict")
    assert code == 3
    assert "nope" in err


def one_file_db(tmp_path, data: bytes):
    schema = tmp_path / "s.ddl"
    schema.write_text("CONCEPT A IDENTITY id INT ENTITY note CHAR(8);\n", encoding="utf-8")
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "A.csv").write_bytes(data)
    return ("--schema", str(schema), "--data", str(tmp_path / "data"), "--query", "(A)")


def test_csv_byte_that_is_not_utf8_exits_3(capsys, tmp_path):
    code, out, err = run(capsys, *one_file_db(tmp_path, b"id,note\n1,ok\n2,\xe9t\xe9\n"))
    assert code == 3 and out == ""
    assert "error:" in err and "A.csv:3: byte 0xe9 is not UTF-8" in err


def test_csv_cell_past_the_field_limit_exits_3(capsys, tmp_path):
    big = b"id,note\n1," + b"x" * 200_000 + b"\n"
    code, out, err = run(capsys, *one_file_db(tmp_path, big))
    assert code == 3 and out == ""
    assert "error:" in err and "A.csv:2: field larger than field limit" in err


def test_schema_that_is_not_utf8_exits_3(capsys, tmp_path):
    schema = tmp_path / "s.ddl"
    schema.write_bytes(b"CONCEPT \xc3 IDENTITY id INT;\n")
    code, out, err = run(capsys, "--schema", str(schema), "--query", "(A)")
    assert code == 3 and out == ""
    assert "error: cannot read" in err


def test_script_that_is_not_utf8_exits_3(capsys, tmp_path):
    script = tmp_path / "q.coql"
    script.write_bytes(b"(Books);\n(\xff);\n")
    code, out, err = run(capsys, *base_args("--script", str(script)))
    assert code == 3 and out == ""
    assert "error: cannot read" in err


def test_schema_file_may_start_with_a_bom(capsys, tmp_path):
    schema = tmp_path / "s.ddl"
    schema.write_text("CONCEPT A IDENTITY id INT;\n", encoding="utf-8-sig")
    assert schema.read_bytes().startswith(b"\xef\xbb\xbf")
    code, out, err = run(capsys, "--schema", str(schema), "--query", "(A)")
    assert code == 0 and "error" not in err
    assert "loaded schema: 1 concepts" in err


def test_script_file_may_start_with_a_bom(capsys, tmp_path):
    script = tmp_path / "q.coql"
    script.write_text("(Books | price < 10);\n", encoding="utf-8-sig")
    assert script.read_bytes().startswith(b"\xef\xbb\xbf")
    code, out, err = run(capsys, *base_args("--script", str(script)))
    assert code == 0 and "error" not in err
    assert "(3 rows)" in out


def test_mode_is_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--schema", str(SCHEMA)])
    assert exc.value.code == 2


# --- scripts ----------------------------------------------------------------------


def test_script_runs_statements_in_order(capsys, tmp_path):
    script = tmp_path / "q.coql"
    script.write_text(
        "// price scan\n"
        "(Books | price < 10);\n"
        "(Books | isbn == 'b1') -> publisher -> address -> country;\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, *base_args("--script", str(script)))
    assert code == 0
    assert "(3 rows)" in out and "(1 row)" in out
    assert out.index("3 rows") < out.index("1 row")


def test_script_registers_products_for_later_statements(capsys, tmp_path):
    market_schema = FIXTURES / "market.ddl"
    market_data = FIXTURES / "market_data"
    script = tmp_path / "q.coql"
    script.write_text(
        "Deals = (WriterBooks wb, Sellers s | wb.book == s.book);\n"
        "(Writers | age < 30) <-* (Deals) *-> (Shops);\n",
        encoding="utf-8",
    )
    code, out, err = run(
        capsys,
        "--schema", str(market_schema),
        "--data", str(market_data),
        "--script", str(script),
    )
    assert code == 0
    assert "registered product 'Deals'" in err
    assert "s1" in out and "s2" not in out


def test_script_that_redefines_a_product_answers_from_the_new_one(capsys, tmp_path):
    script = tmp_path / "q.coql"
    script.write_text(
        "D = (Books b, Addresses a);\n(D);\n"
        "D = (Books b, Addresses a | b.price < 10);\n(D);\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, *base_args("--script", str(script)))
    assert code == 0
    assert err.count("registered product 'D'") == 2
    assert out.index("(15 rows)") < out.index("(9 rows)")


def test_script_stops_at_first_error(capsys, tmp_path):
    script = tmp_path / "q.coql"
    script.write_text("(Books);\n(Nope);\n(Books);\n", encoding="utf-8")
    code, out, err = run(capsys, *base_args("--script", str(script)))
    assert code == 2
    assert out.count("(5 rows)") == 1


def test_missing_script_exits_3(capsys):
    code, out, err = run(capsys, *base_args("--script", "/nonexistent.coql"))
    assert code == 3


# --- REPL --------------------------------------------------------------------------


def repl(capsys, monkeypatch, lines, *extra):
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(l + "\n" for l in lines)))
    return run(capsys, *base_args("--repl", *extra))


def test_repl_prompt_and_banner_stay_off_stdout(capsys, monkeypatch):
    code, out, err = repl(capsys, monkeypatch, ["(Books | price < 10);", ".quit"])
    assert code == 0
    assert "comdb>" in err and "interactive" in err
    assert "comdb>" not in out
    assert "(3 rows)" in out


def test_repl_eof_is_a_clean_exit(capsys, monkeypatch):
    code, out, err = repl(capsys, monkeypatch, [])
    assert code == 0


def test_repl_meta_commands(capsys, monkeypatch):
    code, out, err = repl(
        capsys, monkeypatch,
        [".help", ".schema", ".collections", ".explain (Books) -> publisher", ".quit"],
    )
    assert code == 0
    assert ".explain" in err            # help text
    assert "Books (publisher)" in out   # schema outline
    assert "Books: 5 elements" in out
    assert "-> publisher -> (Publishers)" in out


def test_repl_format_switch(capsys, monkeypatch):
    code, out, err = repl(
        capsys, monkeypatch,
        [".format json", "(Books | isbn == 'b1')", ".format yaml", ".quit"],
    )
    assert code == 0
    assert json.loads(out.splitlines()[0])["title"] == "Alpha"
    assert "format is now json" in err
    assert "error: pick one of" in err


def test_repl_reload_drops_products(capsys, monkeypatch):
    market_schema = FIXTURES / "market.ddl"
    market_data = FIXTURES / "market_data"
    monkeypatch.setattr("sys.stdin", io.StringIO(
        "Deals = (WriterBooks wb, Sellers s | wb.book == s.book)\n"
        "(Deals)\n"
        ".reload\n"
        "(Deals)\n"
        ".quit\n"
    ))
    code, out, err = run(
        capsys,
        "--schema", str(market_schema),
        "--data", str(market_data),
        "--repl",
    )
    assert code == 0
    assert "(2 rows)" in out
    assert "registered products were dropped" in err
    assert "unknown collection 'Deals'" in err


def test_repl_explain_and_reload_report_errors(capsys, monkeypatch, tmp_path):
    schema = tmp_path / "s.ddl"
    schema.write_text(SCHEMA.read_text(), encoding="utf-8")
    lines = iter([".explain (Nope)", ".reload", ".explain (Books)", ".quit"])

    def read_line():
        line = next(lines)
        if line == ".reload":  # the schema file breaks while the session runs
            schema.write_text("CONCEPT Books;", encoding="utf-8")
        return line

    monkeypatch.setattr("builtins.input", read_line)
    code, out, err = run(capsys, "--schema", str(schema), "--data", str(DATA), "--repl")
    assert code == 0
    errors = [line for line in err.replace("comdb> ", "").splitlines() if line.startswith("error")]
    assert errors[0] == "error: line 1, column 2: unknown collection 'Nope'"
    assert errors[1:] == ["error: line 1, column 14: expected 'IDENTITY', found ';'"]
    assert out == "(Books)\n"  # the database loaded first is kept


def test_repl_survives_errors(capsys, monkeypatch):
    code, out, err = repl(
        capsys, monkeypatch,
        ["(Nope)", ".bogus", "(Books | isbn == 'b1')", ".quit"],
    )
    assert code == 0
    assert "unknown collection 'Nope'" in err
    assert "unknown command .bogus" in err
    assert "(1 row)" in out
