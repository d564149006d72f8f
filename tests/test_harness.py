"""PGSolver text round-trips, the benchmark table and the command line."""

import csv
import io
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritylab import (
    BenchRecord,
    FamilyLabel,
    NotLeftTotal,
    ParityGame,
    ParseError,
    SolverConfig,
    VARIANTS,
    gen_core,
    gen_random,
    gen_scc,
    parse_pgsolver,
    run_bench,
    solve,
    write_csv,
    write_pgsolver,
)
from paritylab.harness import _config, main

DATA = Path(__file__).parent / "data"

MINIMAL = "parity 1; 0 2 0 1; 1 1 1 0;"


def test_parse_minimal_one_liner():
    g = parse_pgsolver(MINIMAL)
    assert g.n == 2
    assert g.owners == (0, 1)
    assert g.priorities == (2, 1)
    assert g.successors == ((1,), (0,))
    assert g.source_ids == (0, 1)
    assert g.labels is None


def test_parse_header_is_optional():
    g = parse_pgsolver("0 2 0 1;\n1 1 1 0;\n")
    assert g.n == 2


def test_parse_sparse_ids_are_reindexed():
    g = parse_pgsolver("parity 9; 5 1 0 9; 9 2 1 5,9;")
    assert g.n == 2
    assert g.source_ids == (5, 9)
    assert g.successors == ((1,), (0, 1))
    # writing preserves the original numbering
    assert "9 2 1 5,9;" in write_pgsolver(g)


def test_parse_revives_role_labels_and_keeps_strings():
    g = parse_pgsolver('0 2 0 1 "a0"; 1 1 1 0 "start";')
    assert g.labels[0] == FamilyLabel.alpha(0)
    assert g.labels[1] == "start"


@pytest.mark.parametrize(
    "text,line",
    [
        ("parity 1; 0 2 0 1; 0 1 1 0;", 1),  # duplicate id
        ("0 2 0 3;\n1 1 1 0;", 1),  # undeclared successor, reported where used
        ("0 2 0 1;\n1 1 2 0;", 2),  # owner out of range
        ("0 2 0 1;\n1 1 1 0", 2),  # missing terminator
        ("parity 1 2; 0 2 0 0;", 1),  # malformed header
        ("0 2 0 1,,1;\n1 1 1 0;", 1),  # empty successor entry
        ("0 2 0 x;\n1 1 1 0;", 1),  # non-numeric field
        ("parity 3;", 1),  # no positions at all
        # fields are ASCII decimal digits only; int() would take these
        pytest.param("0 \u0663 0 0;", 1, id="non-ascii-digit-field"),
        pytest.param("0 1_0 0 0;", 1, id="underscore-field"),
        pytest.param("0 +1 0 0;", 1, id="plus-sign-field"),
        pytest.param("0 -1 0 0;", 1, id="negative-field"),
        # a statement is blamed at the line of its first character outside
        # " \t\r\n"; other whitespace does not separate statements
        pytest.param("0 2 0 1;\n1 1\n 1 x;", 2, id="statement-spans-lines"),
        pytest.param("\r\n\r\n0 2 0 x;", 3, id="crlf-before-statement"),
        pytest.param("0 2 0 0;\n\n  junk", 3, id="missing-terminator-after-blank-lines"),
        pytest.param("\x0c\n0 2 0 x;", 1, id="form-feed-starts-statement"),
        pytest.param("0 2 0 0;\x0c", 1, id="form-feed-needs-terminator"),
        pytest.param("parity 0;\nparity 0;", 2, id="header-only-first"),
        pytest.param("0 2 0 1;\n\n1 1\n1 7;", 3, id="undeclared-successor-of-split-statement"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as exc:
        parse_pgsolver(text)
    assert exc.value.line == line


def test_parse_flags_positions_without_moves():
    with pytest.raises(NotLeftTotal) as exc:
        parse_pgsolver("0 2 0 1;\n1 1 1;")
    assert exc.value.line == 2
    # several statements on one line still blame the right one
    with pytest.raises(NotLeftTotal) as exc:
        parse_pgsolver("parity 1; 0 2 0 1; 1 1 1;")
    assert exc.value.line == 1


_PG_PIECES = st.sampled_from(
    ["parity", " ", "\n", ";", ",", '"', "0", "1", "2", "7", "-1", "x", "a", "d", "_", "\u0663", "\t"]
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(max_size=60), st.lists(_PG_PIECES, max_size=40).map("".join)))
def test_parse_fails_only_with_parse_error(text):
    try:
        g = parse_pgsolver(text)
    except ParseError:
        return
    assert g.n >= 1


# the only characters that separate statements; runs of them may go
# anywhere a space may, and also around ';' and ','
_SEPARATORS = " \t\r\n"


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10**6), st.data())
def test_parse_reads_valid_text_in_any_layout(n, seed, data):
    game = gen_random(n, seed)
    tokens = re.findall(r"[;,]|[^\s;,]+", write_pgsolver(game))
    pieces = []
    for prev, tok in zip([";"] + tokens, tokens):
        # two words need at least one separator between them
        gap = prev not in ";," and tok not in ";,"
        pieces += [data.draw(st.text(_SEPARATORS, min_size=gap, max_size=4)), tok]
    pieces.append(data.draw(st.text(_SEPARATORS, max_size=4)))
    g = parse_pgsolver("".join(pieces))
    assert g.owners == game.owners
    assert g.priorities == game.priorities
    assert g.successors == game.successors
    assert g.source_ids == tuple(range(n))


@pytest.mark.parametrize(
    "name",
    [
        "a" + "1" * 5000,  # past int()'s 4,300-digit limit
        "a\u0663",  # ARABIC-INDIC DIGIT THREE is not an ASCII digit
        "a3\n",  # a trailing newline is part of the name
        "a01",  # leading zeros would be written back as "a1"
        "g00",
        "d0_01_1",
    ],
    ids=["huge-index", "non-ascii-digit", "trailing-newline", "leading-zero", "double-zero", "delta-leading-zero"],
)
def test_parse_keeps_near_miss_role_names_as_strings(name):
    text = f'parity 0;\n0 1 0 0 "{name}";\n'
    g = parse_pgsolver(text)
    assert g.labels == (name,)
    assert write_pgsolver(g) == text


def test_write_matches_golden_file():
    got = write_pgsolver(gen_scc(1))
    assert got == (DATA / "scc_k1.pg").read_text(encoding="utf-8")


@pytest.mark.parametrize("gen", [gen_core, gen_scc], ids=["core", "scc"])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_round_trip_preserves_everything(gen, k):
    g = gen(k)
    back = parse_pgsolver(write_pgsolver(g))
    assert back.owners == g.owners
    assert back.priorities == g.priorities
    assert back.successors == g.successors
    assert back.labels == g.labels
    # a second trip is textually stable
    assert write_pgsolver(back) == write_pgsolver(g)


def test_round_trip_without_labels():
    g = parse_pgsolver(MINIMAL)
    text = write_pgsolver(g)
    assert '"' not in text
    assert parse_pgsolver(text).labels is None


@pytest.mark.parametrize("name", ["a b", "a\tb", "a\nb"], ids=["space", "tab", "newline"])
def test_round_trip_keeps_whitespace_in_labels(name):
    g = ParityGame([0, 1], [0, 1], [[1], [0]], labels=[name, None])
    text = write_pgsolver(g)
    assert parse_pgsolver(text).labels == (name, None)


@pytest.mark.parametrize("name", ["a;b", 'a"b'], ids=["semicolon", "quote"])
def test_write_refuses_labels_it_cannot_quote(name):
    # the reader ends a statement at ';' and a name at '"'
    g = ParityGame([0, 1], [0, 1], [[1], [0]], labels=[None, name])
    with pytest.raises(ValueError, match="position 1"):
        write_pgsolver(g)


def _strip_wall_time(csv_text):
    rows = list(csv.reader(io.StringIO(csv_text)))
    drop = rows[0].index("wall_time_ms")
    return [row[:drop] + row[drop + 1 :] for row in rows]


def test_run_bench_rows_and_csv_shape():
    records = run_bench(["core"], range(1, 3), ["plain", "memo"])
    assert len(records) == 4
    assert [r.variant for r in records] == ["plain", "memo"] * 2
    assert all(r.won_by_0 for r in records)
    assert records[0].bound_3_2k1 == 9 and records[2].bound_3_2k1 == 21

    buf = io.StringIO()
    write_csv(records, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == [
        "family", "k", "n", "m", "variant", "total_calls",
        "distinct_subgames", "memo_hits", "max_depth", "dominion_probes",
        "dominion_replays", "wall_time_ms", "won_by_0", "bound_3_2k1",
    ]
    assert len(rows) == 5
    assert rows[1][0] == "core" and rows[1][12] == "true"
    assert rows[1][8:11] == ["7", "0", "0"]  # max_depth, dominion_probes, dominion_replays
    wall = rows[1][11]
    assert "." in wall and len(wall.split(".")[1]) == 3


BAD_NAMES = ["turbo", "scc+memo", "memo+memo", ""]


def test_each_configuration_has_exactly_one_name():
    names = ["plain", "memo", "scc", "memo+scc", "dom", "memo+dom", "scc+dom", "memo+scc+dom"]
    configs = [_config(name) for name in names]
    # the flag order of itertools.product((False, True), repeat=3) is dom, scc, memo
    assert configs == [
        SolverConfig(memoization=memo, scc_decomposition=scc, dominion_decomposition=dom)
        for dom, scc, memo in itertools.product((False, True), repeat=3)
    ]
    assert all(_config(name) is None for name in BAD_NAMES + ["plain+memo", "memo+", "dominion"])


def test_named_variants_are_the_five_grid_configs():
    assert list(VARIANTS) == ["plain", "memo", "scc", "memo+scc", "memo+scc+dom"]
    assert VARIANTS == {
        "plain": SolverConfig(),
        "memo": SolverConfig(memoization=True),
        "scc": SolverConfig(scc_decomposition=True),
        "memo+scc": SolverConfig(memoization=True, scc_decomposition=True),
        "memo+scc+dom": SolverConfig(
            memoization=True, scc_decomposition=True, dominion_decomposition=True
        ),
    }


def test_run_bench_names_every_unknown_variant():
    with pytest.raises(ValueError, match="unknown variants: turbo, scc\\+memo;"):
        run_bench(["core"], [1], ["plain", "turbo", "scc+memo"])


def test_bench_output_is_deterministic_apart_from_timing():
    def snapshot():
        buf = io.StringIO()
        write_csv(run_bench(["scc"], [1], list(("plain", "memo+scc"))), buf)
        return _strip_wall_time(buf.getvalue())

    assert snapshot() == snapshot()


def test_write_csv_to_path(tmp_path):
    out = tmp_path / "bench.csv"
    write_csv(run_bench(["core"], [1], ["plain"]), str(out))
    rows = out.read_text(encoding="utf-8").splitlines()
    assert rows[0].startswith("family,") and len(rows) == 2


# -- command line -----------------------------------------------------------


def test_cli_requires_a_command(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_cli_gen_to_stdout(capsys):
    assert main(["gen", "--family", "core", "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("parity 8;")
    assert out.count(";") == 10  # header plus one statement per position


def test_cli_gen_rejects_bad_k(capsys):
    assert main(["gen", "--family", "core", "--k", "0"]) == 2
    assert "k must be >= 1" in capsys.readouterr().err


def test_cli_solve_round_trip(tmp_path, capsys):
    game_file = tmp_path / "g.pg"
    assert main(["gen", "--family", "scc", "--k", "1", "--out", str(game_file)]) == 0
    stats_file = tmp_path / "stats.json"
    code = main(
        ["solve", "--in", str(game_file), "--variant", "memo+scc", "--stats", str(stats_file)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "n=14" in out and "won_by_0=true" in out and "w1_size=0" in out
    assert "distinct_subgames=12" in out and "max_depth=7" in out and "dominion_replays=0" in out
    w0_line = next(l for l in out.splitlines() if l.startswith("W0:"))
    assert len(w0_line.split()) == 15  # every position listed by source id
    stats = json.loads(stats_file.read_text(encoding="utf-8"))
    assert stats["won_by_0"] is True and stats["n"] == 14
    assert stats["max_depth"] == 7 and stats["dominion_replays"] == 0


def test_cli_solve_missing_file(capsys):
    assert main(["solve", "--in", "/nonexistent/x.pg"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_solve_rejects_non_utf8_input(tmp_path, capsys):
    bad = tmp_path / "bad.pg"
    bad.write_bytes(b"\xff\xfeparity 0;\n")
    assert main(["solve", "--in", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_solve_rejects_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.pg"
    bad.write_text("0 2 0 1;\n", encoding="utf-8")
    assert main(["solve", "--in", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_cli_verify_tree_size(capsys):
    assert main(["verify", "--family", "core", "--k", "4", "--check", "tree-size"]) == 0
    assert "93 distinct subgames (expected 93)" in capsys.readouterr().out


def test_cli_verify_lemmas_and_correspondence(capsys):
    assert main(["verify", "--family", "scc", "--k", "2", "--check", "lemmas"]) == 0
    assert "lemmas: ok" in capsys.readouterr().out
    assert main(["verify", "--family", "core", "--k", "2", "--check", "correspondence"]) == 0
    assert "correspondence: ok" in capsys.readouterr().out


def test_cli_verify_single_scc_reports_failures(capsys):
    code = main(["verify", "--family", "scc", "--k", "1", "--check", "single-scc"])
    assert code == 1
    out = capsys.readouterr().out
    assert "single-scc: FAILED" in out
    assert "G[R]" in out


def test_cli_verify_min_dominion(capsys):
    assert main(["verify", "--family", "scc", "--k", "1", "--check", "min-dominion"]) == 0
    assert "= 4 (expected 4)" in capsys.readouterr().out
    assert main(["verify", "--family", "core", "--k", "2", "--check", "min-dominion"]) == 0
    assert "= 2 (expected 2)" in capsys.readouterr().out


def test_cli_verify_core_extension(capsys):
    assert main(["verify", "--family", "scc", "--k", "2", "--check", "core-extension"]) == 0
    assert "core-extension: ok" in capsys.readouterr().out


def test_cli_bench_to_file(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = main(
        [
            "bench", "--family", "core", "--k-min", "1", "--k-max", "3",
            "--variants", "plain,memo+scc", "--csv", str(out),
        ]
    )
    assert code == 0
    assert "wrote 6 rows" in capsys.readouterr().out
    rows = out.read_text(encoding="utf-8").splitlines()
    assert len(rows) == 7


def test_cli_bench_keeps_rows_solved_before_a_failure(tmp_path, monkeypatch, capsys):
    def failing_on_k2(sub, cfg):
        if sub.game.n > gen_core(1).n:
            raise ValueError("solver broke")
        return solve(sub, cfg)

    monkeypatch.setattr("paritylab.harness.solve", failing_on_k2)
    out = tmp_path / "t.csv"
    argv = ["bench", "--family", "core", "--k-min", "1", "--k-max", "2",
            "--variants", "plain,memo", "--csv", str(out)]
    assert main(argv) == 2
    assert "solver broke" in capsys.readouterr().err
    rows = list(csv.reader(io.StringIO(out.read_text(encoding="utf-8"))))
    assert rows[0][:2] == ["family", "k"]
    assert [(r[1], r[4]) for r in rows[1:]] == [("1", "plain"), ("1", "memo")]


def test_cli_bench_to_stdout(capsys):
    assert main(["bench", "--family", "scc", "--k-min", "1", "--k-max", "1", "--variants", "plain"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("family,") and "scc,1,14," in out


def test_cli_bench_rejects_unknown_variant(capsys):
    code = main(["bench", "--family", "core", "--k-min", "1", "--k-max", "2", "--variants", "turbo"])
    assert code == 2
    assert "unknown variants: turbo" in capsys.readouterr().err


@pytest.mark.parametrize("name", BAD_NAMES)
@pytest.mark.parametrize("command", ["solve", "bench"])
def test_cli_rejects_names_outside_the_grammar(command, name, tmp_path, capsys):
    game_file = str(DATA / "scc_k1.pg")
    out = tmp_path / "t.csv"
    argv = {
        "solve": ["solve", "--in", game_file, "--variant", name],
        "bench": ["bench", "--family", "core", "--k-min", "1", "--k-max", "1",
                  "--variants", name, "--csv", str(out)],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["gen", "--family", "core", "--k", "1"]])
def test_python_m_paritylab_runs_the_cli(argv, tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "paritylab", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0 and done.stderr == ""
    if argv[0] == "gen":
        assert done.stdout == write_pgsolver(gen_core(1))


def test_cli_bench_rejects_bad_range(capsys):
    code = main(["bench", "--family", "core", "--k-min", "3", "--k-max", "1", "--variants", "plain"])
    assert code == 2
    assert "k-min" in capsys.readouterr().err


def test_import_leaves_the_cli_modules_unloaded(tmp_path):
    # argparse, csv and json serve only the command line and write_csv,
    # which import them when they run
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, paritylab; print(*(m in sys.modules for m in ('argparse', 'csv', 'json')))"
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.split() == ["False", "False", "False"]
