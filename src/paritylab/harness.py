"""PGSolver-format I/O, benchmark records and the command-line driver.

The text format is the usual one-line-per-position interchange format:
an optional ``parity <max-id>;`` header, then statements

    <id> <priority> <owner> <succ>(,<succ>)* ("name")? ;

Ids may be sparse; parsing re-indexes them densely and keeps the
original numbering in ``source_ids``.  Quoted names that look like
generated role tags are revived as ``FamilyLabel`` so a written family
game survives a round trip with its structure intact.

``run_bench`` solves family games under named enhancement variants and
returns flat records ready for CSV; ``main`` is the console entry point
(``gen``, ``solve``, ``verify``, ``bench``).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from dataclasses import dataclass, fields
from typing import Iterable, List, Optional, Sequence, TextIO, Union

from .analyzer import (
    build_induced_tree,
    min_core_dominion,
    verify_algorithm_correspondence,
    verify_distinctness,
    verify_single_scc,
    verify_tree_invariants,
)
from .core import GameError, ParityGame, Subgame
from .families import BadIndex, FamilyLabel, check_core_extension, gen_core, gen_scc
from .solver import SolveStats, SolverConfig, solve

__all__ = [
    "ParseError",
    "NotLeftTotal",
    "parse_pgsolver",
    "write_pgsolver",
    "BenchRecord",
    "write_csv",
    "VARIANTS",
    "run_bench",
    "main",
]


class ParseError(GameError):
    """Malformed PGSolver text; ``line`` is 1-based."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class NotLeftTotal(ParseError):
    """A position was declared without any successor."""


_NAME_RE = re.compile(r'"([^"]*)"\s*$')
_DIGITS_RE = re.compile(r"[0-9]+")

_GENERATORS = {"core": gen_core, "scc": gen_scc}


def _statements(text: str):
    # ';'-terminated statements; several may share a line
    line = 1
    idx = 0
    while idx < len(text):
        ch = text[idx]
        if ch in " \t\r\n":
            line += ch == "\n"
            idx += 1
            continue
        end = text.find(";", idx)
        if end == -1:
            raise ParseError(line, "missing ';'")
        stmt = text[idx:end]
        yield line, stmt.strip()
        line += stmt.count("\n")
        idx = end + 1


def _int_field(line_no: int, token: str, what: str) -> int:
    # ASCII decimal digits only: int() also takes other digits, '_' and '+',
    # which a written game would not give back
    if _DIGITS_RE.fullmatch(token):
        try:
            return int(token)
        except ValueError:  # past int()'s digit limit
            pass
    raise ParseError(line_no, f"{what} must be a non-negative integer, got {token!r}")


def parse_pgsolver(text: str) -> ParityGame:
    """Parse PGSolver text into a game (see the module grammar).

    Raises ``ParseError`` (with the offending line number) on malformed
    input, duplicate or undeclared ids, and ``NotLeftTotal`` when a
    position has no successors.
    """
    ids: List[int] = []
    prs: List[int] = []
    owners: List[int] = []
    succ_ids: List[List[int]] = []
    names: List[Optional[str]] = []
    decl_line: List[int] = []
    index_of: dict[int, int] = {}
    seen_header = False
    first = True

    for line_no, stmt in _statements(text):
        if first and stmt.split()[:1] == ["parity"]:
            parts = stmt.split()
            if len(parts) != 2:
                raise ParseError(line_no, "header must be 'parity <max-id>'")
            _int_field(line_no, parts[1], "header max-id")
            seen_header = True
            first = False
            continue
        first = False

        m = _NAME_RE.search(stmt)
        name = m.group(1) if m else None
        head = stmt[: m.start()].strip() if m else stmt
        parts = head.split()
        if len(parts) < 3:
            raise ParseError(line_no, f"expected id, priority, owner, successors; got {stmt!r}")
        pid = _int_field(line_no, parts[0], "id")
        pr = _int_field(line_no, parts[1], "priority")
        owner = _int_field(line_no, parts[2], "owner")
        if owner not in (0, 1):
            raise ParseError(line_no, f"owner must be 0 or 1, got {owner}")
        succ_text = "".join(parts[3:])
        if not succ_text:
            raise NotLeftTotal(line_no, f"position {pid} has no successors")
        succ = []
        for tok in succ_text.split(","):
            if not tok:
                raise ParseError(line_no, "empty successor entry")
            succ.append(_int_field(line_no, tok, "successor"))
        if pid in index_of:
            raise ParseError(line_no, f"duplicate id {pid}")
        index_of[pid] = len(ids)
        ids.append(pid)
        prs.append(pr)
        owners.append(owner)
        succ_ids.append(succ)
        names.append(name)
        decl_line.append(line_no)

    if not ids:
        what = "no positions declared" + (" after header" if seen_header else "")
        raise ParseError(1, what)

    successors: List[List[int]] = []
    for v, row in enumerate(succ_ids):
        try:
            successors.append([index_of[s] for s in row])
        except KeyError as exc:
            raise ParseError(
                decl_line[v], f"successor {exc.args[0]} of position {ids[v]} is not declared"
            ) from None

    labels: Optional[List[object]] = None
    if any(n is not None for n in names):
        labels = [
            (FamilyLabel.parse(n) or n) if n is not None else None for n in names
        ]
    return ParityGame(owners, prs, successors, labels=labels, source_ids=ids)


def write_pgsolver(g: ParityGame) -> str:
    """Render a game in PGSolver text form (header plus one line each)."""
    ids = g.source_ids if g.source_ids is not None else tuple(range(g.n))
    out = [f"parity {max(ids)};"]
    for v in range(g.n):
        succ = ",".join(str(ids[s]) for s in g.successors[v])
        label = g.label_of(v)
        tail = f' "{label}";' if label is not None else ";"
        out.append(f"{ids[v]} {g.priorities[v]} {g.owners[v]} {succ}{tail}")
    return "\n".join(out) + "\n"


# benchmark plumbing


VARIANTS = {
    "plain": SolverConfig(),
    "memo": SolverConfig(memoization=True),
    "scc": SolverConfig(scc_decomposition=True),
    "memo+scc": SolverConfig(memoization=True, scc_decomposition=True),
    "memo+scc+dom": SolverConfig(
        memoization=True, scc_decomposition=True, dominion_decomposition=True
    ),
}


@dataclass
class BenchRecord:
    family: str
    k: int
    n: int
    m: int
    variant: str
    total_calls: int
    distinct_subgames: int
    memo_hits: int
    max_depth: int
    dominion_probes: int
    dominion_replays: int
    wall_time_ms: float
    won_by_0: bool
    bound_3_2k1: int


def _counters(stats: SolveStats) -> dict[str, int]:
    # every counter of ``stats`` by name, in field order; ``wall_time`` is
    # reported separately, in milliseconds
    return {f.name: getattr(stats, f.name) for f in fields(stats) if f.name != "wall_time"}


def run_bench(
    families: Sequence[str],
    ks: Iterable[int],
    variants: Sequence[str],
) -> List[BenchRecord]:
    """Solve every (family, k, variant) cell and collect one record each.

    Cells are independent; they run serially here and rows come out in
    the loop order family > k > variant, which keeps the CSV
    deterministic apart from ``wall_time_ms``.
    """
    records = []
    for family in families:
        gen = _GENERATORS[family]
        for k in ks:
            game = gen(k)
            whole = Subgame.whole(game)
            for variant in variants:
                regions, stats = solve(whole, VARIANTS[variant])
                records.append(
                    BenchRecord(
                        family=family,
                        k=k,
                        n=game.n,
                        m=game.move_count,
                        variant=variant,
                        **_counters(stats),
                        wall_time_ms=stats.wall_time * 1000.0,
                        won_by_0=not regions.w1,
                        bound_3_2k1=3 * (2 ** (k + 1) - 1),
                    )
                )
    return records


def write_csv(records: Iterable[BenchRecord], dest: Union[str, TextIO]) -> None:
    """Write records as CSV, header always, columns in field order."""
    own = isinstance(dest, str)
    handle = open(dest, "w", newline="", encoding="utf-8") if own else dest
    try:
        names = [f.name for f in fields(BenchRecord)]
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(names)
        for rec in records:
            row = []
            for name in names:
                value = getattr(rec, name)
                if isinstance(value, bool):
                    value = str(value).lower()
                elif isinstance(value, float):
                    value = f"{value:.3f}"
                row.append(value)
            writer.writerow(row)
    finally:
        if own:
            handle.close()


# the command line


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paritylab",
        description="Generate, solve and structurally verify worst-case parity games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a family game in PGSolver text form")
    gen.add_argument("--family", choices=("core", "scc"), required=True)
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--out", help="output file (default: stdout)")

    slv = sub.add_parser("solve", help="solve a PGSolver file and print a summary")
    slv.add_argument("--in", dest="infile", required=True)
    slv.add_argument("--memo", action="store_true", help="memoize solved subgames")
    slv.add_argument("--scc", action="store_true", help="split into components first")
    slv.add_argument("--dominion", action="store_true", help="search small dominions first")
    slv.add_argument("--stats", help="also dump counters as JSON to this file")

    ver = sub.add_parser("verify", help="run one structural check on a family game")
    ver.add_argument("--family", choices=("core", "scc"), required=True)
    ver.add_argument("--k", type=int, required=True)
    ver.add_argument(
        "--check",
        choices=(
            "tree-size",
            "lemmas",
            "correspondence",
            "single-scc",
            "min-dominion",
            "core-extension",
        ),
        required=True,
    )

    ben = sub.add_parser("bench", help="solve family games under variants, emit CSV")
    ben.add_argument("--family", choices=("core", "scc"), required=True)
    ben.add_argument("--k-min", type=int, required=True)
    ben.add_argument("--k-max", type=int, required=True)
    ben.add_argument("--variants", required=True, help="comma-separated variant names")
    ben.add_argument("--csv", help="output file (default: stdout)")
    return parser


def _cmd_gen(args: argparse.Namespace) -> int:
    game = _GENERATORS[args.family](args.k)
    text = write_pgsolver(game)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    with open(args.infile, "r", encoding="utf-8") as handle:
        game = parse_pgsolver(handle.read())
    cfg = SolverConfig(
        memoization=args.memo,
        scc_decomposition=args.scc,
        dominion_decomposition=args.dominion,
    )
    regions, stats = solve(Subgame.whole(game), cfg)
    summary = {
        "n": game.n,
        "m": game.move_count,
        "w0_size": len(regions.w0),
        "w1_size": len(regions.w1),
        "won_by_0": not regions.w1,
        **_counters(stats),
        "wall_time_ms": round(stats.wall_time * 1000.0, 3),
    }
    for key, value in summary.items():
        print(f"{key}={str(value).lower() if isinstance(value, bool) else value}")
    ids = game.source_ids or range(game.n)
    print("W0:", " ".join(str(ids[v]) for v in regions.w0.indices()))
    print("W1:", " ".join(str(ids[v]) for v in regions.w1.indices()))
    if args.stats:
        with open(args.stats, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
            handle.write("\n")
    return 0


def _report_outcome(name: str, failures: Sequence[str]) -> int:
    for line in failures:
        print(line)
    verdict = "ok" if not failures else f"FAILED ({len(failures)} items)"
    print(f"{name}: {verdict}")
    return 0 if not failures else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    game = _GENERATORS[args.family](args.k)
    k = args.k

    if args.check == "core-extension":
        report = check_core_extension(game, k)
        return _report_outcome("core-extension", [str(i) for i in report.failures])

    if args.check == "min-dominion":
        expected = 2 if args.family == "core" else 2 * (k + 1)
        found = min_core_dominion(Subgame.whole(game), k, size_cap=expected)
        print(f"min-dominion: smallest core-meeting dominion = {found} (expected {expected})")
        return 0 if found == expected else 1

    tree = build_induced_tree(game, k)
    if args.check == "tree-size":
        want = 3 * (2 ** (k + 1) - 1)
        count, witness_fails = verify_distinctness(tree)
        print(f"tree-size: {count} distinct subgames (expected {want})")
        ok = count == want and not witness_fails
        for line in witness_fails:
            print(f"  witness: {line}")
        return 0 if ok else 1

    if args.check == "lemmas":
        report = verify_tree_invariants(tree)
        _, witness_fails = verify_distinctness(tree)
        failures = [str(i) for i in report.failures]
        failures += [f"[FAIL] witness: {w}" for w in witness_fails]
        return _report_outcome("lemmas", failures)

    if args.check == "correspondence":
        report = verify_algorithm_correspondence(tree)
        return _report_outcome("correspondence", [str(i) for i in report.failures])

    report = verify_single_scc(tree)
    return _report_outcome("single-scc", [str(i) for i in report.failures])


def _cmd_bench(args: argparse.Namespace) -> int:
    names = [v.strip() for v in args.variants.split(",") if v.strip()]
    unknown = [v for v in names if v not in VARIANTS]
    if unknown or not names:
        what = ", ".join(unknown) if unknown else "(none given)"
        print(f"unknown variants: {what}; choose from {', '.join(VARIANTS)}", file=sys.stderr)
        return 2
    if args.k_min < 1 or args.k_max < args.k_min:
        print("need 1 <= k-min <= k-max", file=sys.stderr)
        return 2
    records = run_bench([args.family], range(args.k_min, args.k_max + 1), names)
    if args.csv:
        write_csv(records, args.csv)
        print(f"wrote {len(records)} rows to {args.csv}")
    else:
        buf = io.StringIO()
        write_csv(records, buf)
        sys.stdout.write(buf.getvalue())
    return 0


_HANDLERS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _HANDLERS[args.command](args)
    except (ParseError, BadIndex) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
