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
(``gen``, ``solve``, ``verify``, ``bench``), which ``python -m paritylab``
also runs.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, List, Optional, Sequence, TextIO, Union

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

_GENERATORS = {"core": gen_core, "scc": gen_scc}


def _int_field(line_no: int, token: str, what: str) -> int:
    # ASCII decimal digits only: int() also takes other digits, '_' and '+',
    # which a written game would not give back
    if token.isascii() and token.isdigit():
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
    # ';'-terminated statements, several may share a line; only " \t\r\n"
    # separates them, and a statement's line is that of its first other
    # character
    *stmts, tail = text.split(";")
    rows = []  # (line, id, priority, owner, successor ids, name)
    index_of: dict[int, int] = {}
    seen_header = False
    line = 1
    for i, piece in enumerate(stmts):
        lead = len(piece) - len(piece.lstrip(" \t\r\n"))
        line_no = line + piece.count("\n", 0, lead)
        line += piece.count("\n")
        stmt = piece.strip()
        if i == 0 and stmt.split()[:1] == ["parity"]:
            parts = stmt.split()
            if len(parts) != 2:
                raise ParseError(line_no, "header must be 'parity <max-id>'")
            _int_field(line_no, parts[1], "header max-id")
            seen_header = True
            continue

        m = _NAME_RE.search(stmt)
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
        index_of[pid] = len(rows)
        rows.append((line_no, pid, pr, owner, succ, m.group(1) if m else None))

    # after the statements, so that a fault in one of them is reported first
    body = tail.lstrip(" \t\r\n")
    if body:
        raise ParseError(line + tail.count("\n", 0, len(tail) - len(body)), "missing ';'")
    if not rows:
        what = "no positions declared" + (" after header" if seen_header else "")
        raise ParseError(1, what)

    successors = []
    for line_no, pid, _, _, succ, _ in rows:
        try:
            successors.append([index_of[s] for s in succ])
        except KeyError as exc:
            raise ParseError(
                line_no, f"successor {exc.args[0]} of position {pid} is not declared"
            ) from None

    _, ids, prs, owners, _, names = zip(*rows)
    labels: Optional[List[object]] = None
    if any(n is not None for n in names):
        labels = [
            (FamilyLabel.parse(n) or n) if n is not None else None for n in names
        ]
    return ParityGame(owners, prs, successors, labels=labels, source_ids=ids)


def write_pgsolver(g: ParityGame) -> str:
    """Render a game in PGSolver text form (header plus one line each).

    Raises ``ValueError`` for a label whose text holds ``;`` or ``"``,
    which the format cannot quote and ``parse_pgsolver`` would reject.
    """
    ids = g.source_ids if g.source_ids is not None else tuple(range(g.n))
    out = [f"parity {max(ids)};"]
    for v in range(g.n):
        succ = ",".join(str(ids[s]) for s in g.successors[v])
        label = g.label_of(v)
        tail = ";"
        if label is not None:
            label = str(label)
            if ";" in label or '"' in label:
                raise ValueError(f"label {label!r} of position {ids[v]} holds ';' or '\"'")
            tail = f' "{label}";'
        out.append(f"{ids[v]} {g.priorities[v]} {g.owners[v]} {succ}{tail}")
    return "\n".join(out) + "\n"


# benchmark plumbing


_LAYERS = ("memo", "scc", "dom")
_NAME_RULE = "a variant is plain, or memo, scc and dom joined by '+' in that order"


def _config(name: str) -> Optional[SolverConfig]:
    """The solver configuration that a variant name spells, else ``None``.

    Each configuration has exactly one name: ``plain`` for none of the
    layers, or the enabled ones of ``memo``, ``scc`` and ``dom`` joined by
    ``+`` in that order (``memo+scc``, not ``scc+memo``).
    """
    on = [layer in name.split("+") for layer in _LAYERS]
    if name != ("+".join(layer for layer, o in zip(_LAYERS, on) if o) or "plain"):
        return None
    memo, scc, dom = on
    return SolverConfig(memoization=memo, scc_decomposition=scc, dominion_decomposition=dom)


VARIANTS = {name: _config(name) for name in ("plain", "memo", "scc", "memo+scc", "memo+scc+dom")}


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


def _configs(variants: Sequence[str]) -> List[SolverConfig]:
    # each name's configuration; a ValueError names every unknown one
    configs = [_config(v) for v in variants]
    unknown = [v for v, cfg in zip(variants, configs) if cfg is None]
    if unknown:
        raise ValueError(f"unknown variants: {', '.join(unknown)}; {_NAME_RULE}")
    return configs


def _bench_rows(
    families: Sequence[str],
    ks: Iterable[int],
    variants: Sequence[str],
    configs: Sequence[SolverConfig],
) -> Iterator[BenchRecord]:
    # one record per cell, yielded as soon as the cell is solved
    for family in families:
        gen = _GENERATORS[family]
        for k in ks:
            game = gen(k)
            whole = Subgame.whole(game)
            for variant, cfg in zip(variants, configs):
                regions, stats = solve(whole, cfg)
                yield BenchRecord(
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


def run_bench(
    families: Sequence[str],
    ks: Iterable[int],
    variants: Sequence[str],
) -> List[BenchRecord]:
    """Solve every (family, k, variant) cell and collect one record each.

    ``variants`` are names: ``plain``, or ``memo``, ``scc`` and ``dom``
    joined by ``+`` in that order.  A ``ValueError`` naming every other
    one is raised before anything is solved.  Cells
    are independent; they run serially here and rows come out in the
    loop order family > k > variant, which keeps the CSV deterministic
    apart from ``wall_time_ms``.
    """
    return list(_bench_rows(families, ks, variants, _configs(variants)))


def write_csv(records: Iterable[BenchRecord], dest: Union[str, TextIO]) -> None:
    """Write records as CSV, header always, columns in field order.

    Each row is flushed once written, so rows that a generator yields
    reach ``dest`` as they come.
    """
    import csv

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
            handle.flush()
    finally:
        if own:
            handle.close()


# the command line


def _build_parser() -> argparse.ArgumentParser:
    import argparse

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
    slv.add_argument("--variant", default="plain", metavar="NAME", help=_NAME_RULE)
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
    ben.add_argument("--variants", required=True, help=f"comma-separated names; {_NAME_RULE}")
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
    cfg = _config(args.variant)
    if cfg is None:
        raise ValueError(f"unknown variant {args.variant!r}; {_NAME_RULE}")
    with open(args.infile, "r", encoding="utf-8") as handle:
        game = parse_pgsolver(handle.read())
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
        import json

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
    if not names:
        raise ValueError(f"no variants given; {_NAME_RULE}")
    if args.k_min < 1 or args.k_max < args.k_min:
        raise ValueError("need 1 <= k-min <= k-max")
    ks = range(args.k_min, args.k_max + 1)
    # names are checked before the output file is opened; rows are then
    # written as their cells are solved
    rows = _bench_rows([args.family], ks, names, _configs(names))
    if args.csv:
        write_csv(rows, args.csv)
        print(f"wrote {len(ks) * len(names)} rows to {args.csv}")
    else:
        write_csv(rows, sys.stdout)
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
    except (ParseError, BadIndex, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
