"""Run one paritylab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload family-grid --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One process, one thread: each workload is a closed loop with
a single caller.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced rounds
over the workload's cells, reports the per-layer metrics of the traced
ones and the tracing overhead, and writes the recorded spans under
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report.  Metric names and units are those listed in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import paritylab; print(time.perf_counter() - t)"
)

# per-layer self times of layers that run on one workload only; printed
# in the report but left out of the JSON, whose metrics every workload has
REPORT_ONLY = ("analyzer.build_tree.self_s", "analyzer.verify.self_s")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_program() -> float:
    """Import paritylab from the checkout; returns the import time."""
    if not (SRC / "paritylab" / "__init__.py").is_file():
        raise SystemExit(f"error: no paritylab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import paritylab

    elapsed = perf_counter() - t0
    if Path(paritylab.__file__).resolve().parent != SRC / "paritylab":
        raise SystemExit(f"error: imported paritylab from {paritylab.__file__}, not {SRC}")
    return elapsed


def _fresh_import_s() -> float:
    # the import, timed again in a fresh interpreter
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip())


def measure(workload, cells, golden, seconds: float, tracer=None) -> dict:
    """Run whole rounds over the cells for about ``seconds``.

    A round runs every cell once; with a tracer, every second round is
    traced.  After the first round (two with a tracer) a round starts
    only while the previous round of its kind still fits in the time
    left, so every traced count covers whole passes.  ``rel`` holds, for
    each untraced round, its operations' time over the median time of the
    reference task sampled between them.
    """
    from workloads import Tally

    tally = Tally()
    op_times = {False: {}, True: {}}
    round_s = {False: [], True: []}
    rel = []
    first_rounds = 2 if tracer is not None else 1
    start = perf_counter()
    rnd = 0
    while True:
        traced = tracer is not None and rnd % 2 == 1
        if rnd >= first_rounds:
            previous = round_s[traced] or round_s[not traced]
            if perf_counter() - start + previous[-1] > seconds:
                break
        tally.times = op_times[traced]
        tally.refs = None if traced else []
        op_s = tally.op_s
        gc.collect()
        t0 = perf_counter()
        for cell in cells:
            with tracer.patched() if traced else nullcontext():
                workload.run_cell(tally, cell, golden)
        round_s[traced].append(perf_counter() - t0)
        if not traced:
            rel.append((tally.op_s - op_s) / statistics.median(tally.refs))
        rnd += 1
    return {
        "tally": tally,
        "untraced": op_times[False],
        "traced": op_times[True],
        "rel": rel,
        "traced_passes": len(round_s[True]),
        "measured_s": perf_counter() - start,
    }


def pass_s(op_times: dict) -> float:
    """One pass over every cell: the sum of each operation's fastest time.

    Each operation repeats once per round.  Interference from other work
    on the machine only adds time, so the fastest repeat is the steadiest
    estimate of the operation's own cost.
    """
    return sum(min(t) for t in op_times.values())


def end_to_end(setup_s: float, run: dict) -> dict:
    return {
        "wall_rel": (statistics.median(run["rel"]), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(tracer, run: dict) -> dict:
    from tracing import unit_of

    values = tracer.layer_metrics(run["traced_passes"])
    values["trace.overhead_s"] = pass_s(run["traced"]) - pass_s(run["untraced"])
    return {name: (value, unit_of(name)) for name, value in values.items()}


def _report(args, run: dict, metrics: dict) -> None:
    from workloads import VARIANTS

    tally = run["tally"]
    untraced = run["untraced"]
    repeats = [len(t) for t in untraced.values()]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(
        f"{len(untraced)} operations per pass, each timed {min(repeats)} to {max(repeats)} times untraced; "
        f"{run['traced_passes']} traced passes; {run['measured_s']:.2f} s measured"
    )
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"attempted {tally.attempted}  failed {tally.failed}  failed_ratio {ratio:.6f}")
    for message in tally.errors:
        print(f"  FAILED {message}")
    print(f"  wall_s {pass_s(untraced):.6f} s  (per pass, each operation's fastest time)")
    print("  wall_rel per untraced round: " + " ".join(f"{r:.1f}" for r in run["rel"]))
    for variant in VARIANTS:
        solves = {k: t for k, t in untraced.items() if k.endswith("/" + variant)}
        if solves:
            print(f"  solve_s.{variant:<21} {pass_s(solves):.6f} s  (per pass)")
    if args.workload == "random-files":
        per_game = {}
        for k, t in untraced.items():
            if not k.endswith(" load"):
                game = k.split("/")[0]
                per_game[game] = per_game.get(game, 0.0) + min(t) * 1000.0
        per_game = list(per_game.values())
        if len(per_game) >= 10:
            p90 = statistics.quantiles(per_game, n=10)[8]
            print(
                f"  solve_ms.p50 {statistics.median(per_game):.6f} ms  solve_ms.p90 {p90:.6f} ms  "
                f"(one game under all five variants, {len(per_game)} games)"
            )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:.6f} {unit}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    import_s = [_import_program()]
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    golden = workloads.load_golden()

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        cells = workload.setup(args.seed)
        setup_times.append(perf_counter() - t0)

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        run = measure(workload, cells, golden, args.seconds, tracer)
        layers = per_layer(tracer, run)
        spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans)
        traced, untraced = pass_s(run["traced"]), pass_s(run["untraced"])
        _report(args, run, layers)
        print(
            f"tracing overhead: traced wall_s {traced:.6f} - untraced wall_s {untraced:.6f} "
            f"= {traced - untraced:.6f} s ({(traced / untraced - 1) * 100:.1f}%)"
        )
        print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}, {tracer.dropped} beyond the cap")
        metrics = {k: v for k, v in layers.items() if k not in REPORT_ONLY}
    else:
        import_s += [_fresh_import_s() for _ in range(SETUP_REPEATS - 1)]
        setup_s = statistics.median(import_s) + statistics.median(setup_times)
        run = measure(workload, cells, golden, args.seconds)
        metrics = end_to_end(setup_s, run)
        _report(args, run, metrics)

    if args.workload == "random-files" and str(args.seed) not in golden["random-files"]:
        print(f"seed {args.seed} has no recorded regions: only the consensus of the variants was checked")
    tally = run["tally"]
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
