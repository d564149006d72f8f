"""Tests of the benchmark itself.

    python3 -m pytest perfbench

An injected wrong region, a drifted counter and a raised exception must
each raise the failed ratio; every metric the runner prints must carry
the name and unit ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import paritylab as pl  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = workloads.load_golden()


def small(cls, **sizes):
    w = cls()
    for name, value in sizes.items():
        setattr(w, name, value)
    return w


SMALL = {
    "family-grid": lambda: small(workloads.FamilyGrid, cells=[("core", 2), ("scc", 2)]),
    "deep-chain": lambda: small(workloads.DeepChain, sizes=(300,)),
    "random-files": lambda: small(workloads.RandomFiles, files=2),
    "induced-tree": lambda: small(workloads.InducedTree, cells=[("core", 2), ("scc", 2)]),
}


def one_pass_each(name: str, seed: int = 7) -> workloads.Tally:
    w = SMALL[name]()
    tally = workloads.Tally()
    for cell in w.setup(seed):
        w.run_cell(tally, cell, GOLDEN)
    return tally


def failed_ratio(tally: workloads.Tally) -> float:
    return tally.failed / tally.attempted


@pytest.mark.parametrize("name", sorted(SMALL))
def test_clean_pass_has_no_failures(name):
    tally = one_pass_each(name)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.errors


def _patch_solve(monkeypatch, change):
    # apply ``change`` to the result of the first solve only
    real = pl.solve
    calls = []

    def solve(*args, **kwargs):
        calls.append(1)
        out = real(*args, **kwargs)
        return change(out) if len(calls) == 1 else out

    monkeypatch.setattr(pl, "solve", solve)


def _swap_regions(out):
    regions, stats = out
    return pl.Regions(regions.w1, regions.w0), stats


def _drift(out):
    stats = out[1]
    stats.total_calls += 1
    return out


def _raise(out):
    raise RuntimeError("injected")


@pytest.mark.parametrize("name", ["family-grid", "deep-chain", "random-files"])
@pytest.mark.parametrize("change", [_swap_regions, _raise])
def test_wrong_region_or_exception_fails_one_operation(monkeypatch, name, change):
    clean = one_pass_each(name)
    _patch_solve(monkeypatch, change)
    tally = one_pass_each(name)
    assert tally.attempted == clean.attempted
    assert tally.failed == 1, tally.errors
    assert failed_ratio(tally) > failed_ratio(clean)


def test_shared_wrong_answer_fails_against_recorded_regions(monkeypatch):
    # W0 = every position passes the trap check and the consensus of the
    # variants; only the recorded regions of a golden seed catch it
    assert "1" in GOLDEN["random-files"]
    assert one_pass_each("random-files", seed=1).failed == 0
    real = pl.solve

    def everything_to_0(g, cfg):
        return pl.Regions(g.alive, pl.PositionSet(g.game, 0)), real(g, cfg)[1]

    monkeypatch.setattr(pl, "solve", everything_to_0)
    tally = one_pass_each("random-files", seed=1)
    assert tally.failed == 2 * len(workloads.VARIANTS), tally.errors
    assert all("golden record" in e for e in tally.errors)


@pytest.mark.parametrize("name", ["family-grid", "deep-chain"])
def test_drifted_counter_fails(monkeypatch, name):
    _patch_solve(monkeypatch, _drift)
    tally = one_pass_each(name)
    assert tally.failed == 1
    assert "golden" in tally.errors[0]


def test_drifted_suite_count_and_raising_suite_fail(monkeypatch):
    real = pl.verify_single_scc

    def one_more_failure(tree):
        report = real(tree)
        report.add("G[eps]", "injected", False)
        return report

    monkeypatch.setattr(pl, "verify_single_scc", one_more_failure)
    assert one_pass_each("induced-tree").failed == 2  # one per tree

    def broken(tree):
        raise RuntimeError("injected")

    monkeypatch.setattr(pl, "verify_distinctness", broken)
    tally = one_pass_each("induced-tree")
    assert tally.failed == 4
    assert any("raised" in e for e in tally.errors)


def test_a_cell_missing_from_the_golden_record_fails():
    w = small(workloads.FamilyGrid, cells=[("core", 1)])
    tally = workloads.Tally()
    for cell in w.setup(0):
        w.run_cell(tally, cell, {"family-grid": {}})
    assert tally.failed == 5


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCH[kind]}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_metric_names_and_units_match_benchmark_json(name):
    w = SMALL[name]()
    cells = w.setup(3)
    measured = run.measure(w, cells, GOLDEN, seconds=0.0)
    printed = run.end_to_end(0.5, measured)
    assert {k: u for k, (_, u) in printed.items()} == _declared("end_to_end")
    assert all(v > 0 for v, _ in printed.values())

    tracer = tracing.Tracer()
    measured = run.measure(w, cells, GOLDEN, seconds=0.0, tracer=tracer)
    printed = {k: v for k, v in run.per_layer(tracer, measured).items() if k not in run.REPORT_ONLY}
    assert {k: u for k, (_, u) in printed.items()} == _declared("per_layer")
    assert measured["tally"].failed == 0


def test_traced_counts_cover_whole_passes():
    w = SMALL["family-grid"]()
    want = sum(GOLDEN["family-grid"][f"{f}/{k}/{v}"][0] for f, k in w.cells for v in workloads.VARIANTS)
    for seconds in (0.0, 0.5):
        tracer = tracing.Tracer()
        measured = run.measure(w, w.setup(1), GOLDEN, seconds=seconds, tracer=tracer)
        assert measured["traced_passes"] >= 1
        assert tracer.layer_metrics(measured["traced_passes"])["solver.recursion.calls"] == want


def test_left_and_right_steps_count_in_the_core_layer():
    tree = pl.build_induced_tree(pl.gen_core(2), 2)
    tracer = tracing.Tracer()
    with tracer.patched():
        pl.verify_algorithm_correspondence(tree)
    assert tracer.calls[tracing.ATTRACTOR] > 0
    assert tracer.calls[tracing.MAX_PRIORITY] > 0


def test_tracing_restores_every_binding():
    names = ("_attractor_mask", "_scc_masks", "attractor", "max_priority")
    before = {name: getattr(pl.solver, name) for name in names}
    before["solve"] = pl.solve
    tracer = tracing.Tracer()
    with tracer.patched():
        assert pl.solve is not before["solve"]
        pl.solve(pl.Subgame.whole(pl.gen_core(2)), pl.VARIANTS["memo+scc"])
    assert pl.solve is before["solve"]
    assert all(getattr(pl.solver, n) is f for n, f in before.items() if n != "solve")
    assert tracer.calls[tracing.ATTRACTOR] > 0
    assert tracer.counters["memo.lookups"] > 0
    # spans are stored as they close, so every parent is stored too
    ids = {s[0] for s in tracer.spans}
    assert all(parent == -1 or parent in ids for _, parent, *_ in tracer.spans)


def test_inputs_are_deterministic_and_canonical():
    assert inputs.random_file_set(2, 5, 100) == inputs.random_file_set(2, 5, 100)
    assert inputs.random_file_set(1, 5, 100) != inputs.random_file_set(1, 6, 100)
    for text in (inputs.chain_text(9), inputs.random_text(100, 1)):
        assert pl.write_pgsolver(pl.parse_pgsolver(text)) == text


def test_random_games_follow_gen_random():
    for n, seed in ((1, 3), (200, 7)):
        assert inputs.random_text(n, seed) == pl.write_pgsolver(pl.gen_random(n, seed))


def test_cli_prints_declared_metrics_as_last_line(tmp_path):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "induced-tree", "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _declared("end_to_end")


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep-chain", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
