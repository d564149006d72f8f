"""The four benchmark workloads and the checks on every answer.

Each workload is a closed loop with one caller: ``setup`` builds its
inputs as a list of cells, then the cells run again and again, each
call into the program starting only after the previous one returned.
Every operation is checked; a wrong region, a counter that differs from
the golden record or an exception fails that operation once, and the
loop goes on.

Only the random files depend on the seed; the other workloads have
fixed inputs, run in a fixed order.

The program is reached only through attributes of the ``paritylab``
package looked up at call time, so the traced run can rebind them.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

import paritylab as pl

import inputs

VARIANTS = ("plain", "memo", "scc", "memo+scc", "memo+scc+dom")
GOLDEN_PATH = Path(__file__).with_name("golden.json")


def counters(stats) -> list[int]:
    """The solver counters that must stay bit-identical across changes."""
    return [
        stats.total_calls,
        stats.distinct_subgames,
        stats.memo_hits,
        stats.max_depth,
        stats.dominion_probes,
    ]


def family_text(family: str, k: int) -> str:
    gen = {"core": pl.gen_core, "scc": pl.gen_scc}[family]
    return pl.write_pgsolver(gen(k))


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# how often the reference task is timed between operations
REF_EVERY_S = 0.05


def reference_s() -> float:
    """Time one run of a fixed pure-Python task that does not use the program.

    Its bit, list and dict work is of the kind the solver does, so
    interference from other work on the machine slows both alike.
    """
    t0 = perf_counter()
    mask, acc, seen = 0, 0, {}
    for i in range(3000):
        mask |= 1 << (i * 7919 % 1000)
        acc ^= mask.bit_length() + (i * 2654435761 & 0xFFFF)
        seen[acc & 1023] = i
    sorted(seen.items())
    return perf_counter() - t0


class Tally:
    """Operations attempted and failed, and the time of each operation.

    ``times`` maps an operation's name, unique within one pass, to its
    durations; the caller may swap in another dict between passes.
    ``op_s`` is the total time of every timed operation so far.  While
    ``refs`` is a list, the reference task is timed into it before an
    operation whenever ``REF_EVERY_S`` have passed since its last sample.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.times: dict[str, list[float]] = {}
        self.op_s = 0.0
        self.refs: list[float] | None = None
        self._last_ref = 0.0

    def op(self, what: str, fn, *args, check=None):
        """Run, time and check one operation; returns its result, or None if it raised.

        Only the call into the program is timed.  ``check`` maps the result
        to a problem description or None.  An operation fails at most once.
        """
        self.attempted += 1
        if self.refs is not None and (not self.refs or perf_counter() - self._last_ref >= REF_EVERY_S):
            self.refs.append(reference_s())
            self._last_ref = perf_counter()
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a raising operation is a failed one; the loop goes on
            self.fail(f"{what}: raised {exc!r}")
            return None
        elapsed = perf_counter() - t0
        self.op_s += elapsed
        self.times.setdefault(what, []).append(elapsed)
        problem = check(result) if check is not None else None
        if problem:
            self.fail(f"{what}: {problem}")
        return result

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def load(self, what: str, text: str):
        """Parse PGSolver text and write the game back; the text must survive."""

        def round_trip():
            game = pl.parse_pgsolver(text)
            return game, pl.write_pgsolver(game)

        def lossless(out):
            return None if out[1] == text else "PGSolver round trip changed the text"

        out = self.op(f"{what} load", round_trip, check=lossless)
        return None if out is None else out[0]


def _golden_check(golden, what: str, answer_problem):
    # first the answer, then the counters; ``golden`` is None while recording
    def check(out):
        problem = answer_problem(out[0])
        if problem or golden is None:
            return problem
        got, want = counters(out[1]), golden.get(what)
        return None if got == want else f"counters {got} != golden {want}"

    return check


class Workload:
    """A list of cells built by ``setup``; one pass runs every cell once."""

    name = ""

    def run_cell(self, tally: Tally, cell, golden: dict) -> None:
        self.observe(tally, cell, golden.get(self.name, {}))


class FamilyGrid(Workload):
    """Both worst-case families over a k range, all five variants.

    The lab's headline experiment: player 0 must win every position,
    and every solve's counters must equal the golden record.
    """

    name = "family-grid"
    cells = [("core", k) for k in range(1, 9)] + [("scc", k) for k in range(1, 7)]

    def setup(self, seed: int):
        return [(f, k, family_text(f, k)) for f, k in self.cells]

    def observe(self, tally: Tally, cell, want=None) -> dict:
        family, k, text = cell
        game = tally.load(f"{family} k={k}", text)
        if game is None:
            return {}

        def everything_to_0(regions):
            if regions.w1 or regions.w0.mask != game.full_mask:
                return "player 0 does not win every position"
            return None

        return _solve_variants(tally, game, f"{family}/{k}", everything_to_0, want)


class DeepChain(Workload):
    """The deep chain at two sizes under all five variants.

    Known answer: W0 is the set of even positions.
    """

    name = "deep-chain"
    sizes = (300, 600)

    def setup(self, seed: int):
        return [(n, inputs.chain_text(n)) for n in self.sizes]

    def observe(self, tally: Tally, cell, want=None) -> dict:
        n, text = cell
        game = tally.load(f"chain n={n}", text)
        if game is None:
            return {}
        evens = sum(1 << v for v in range(0, n, 2))

        def evens_to_0(regions):
            if regions.w0.mask != evens or regions.w1.mask != game.full_mask & ~evens:
                return "W0 is not the set of even positions"
            return None

        return _solve_variants(tally, game, str(n), evens_to_0, want)


def _solve_variants(tally, game, cell: str, answer_problem, want) -> dict:
    whole = pl.Subgame.whole(game)
    seen = {}
    for variant in VARIANTS:
        what = f"{cell}/{variant}"
        check = _golden_check(want, what, answer_problem)
        out = tally.op(what, pl.solve, whole, pl.VARIANTS[variant], check=check)
        if out is not None:
            seen[what] = counters(out[1])
    return seen


def _trap_problem(game, w0: int, w1: int) -> str | None:
    # each region must be a trap for the player who loses it: the winner
    # can stay inside, the loser cannot leave
    if w0 & w1 or w0 | w1 != game.full_mask:
        return "regions do not partition the game"
    owners, succ = game.owners, game.succ_masks
    for v in range(game.n):
        winner = 0 if w0 >> v & 1 else 1
        mine, other = (w0, w1) if winner == 0 else (w1, w0)
        if owners[v] == winner:
            if not succ[v] & mine:
                return f"the winner cannot stay in its region at position {v}"
        elif succ[v] & other:
            return f"the loser can leave its region at position {v}"
    return None


def region_digest(w0: int, w1: int) -> str:
    """A short digest of a pair of winning regions, as golden.json keeps it."""
    return hashlib.sha256(f"{w0:x}/{w1:x}".encode()).hexdigest()[:8]


class RandomFiles(Workload):
    """Seeded random PGSolver files: parse, write back, solve five ways.

    For the seeds in the golden record, every variant's regions must
    match the recorded digest of each file.  For any other seed, every
    variant must give the regions most variants give.  Either way those
    regions must be mutual traps.
    """

    name = "random-files"
    files = 600
    positions = 100

    def setup(self, seed: int):
        texts = inputs.random_file_set(self.files, seed, self.positions)
        return [(seed, i, text) for i, text in enumerate(texts)]

    def observe(self, tally: Tally, cell, want=None) -> dict:
        seed, i, text = cell
        game = tally.load(f"file {i}", text)
        if game is None:
            return {}
        whole = pl.Subgame.whole(game)
        answers = {}
        for variant in VARIANTS:
            out = tally.op(f"file {i}/{variant}", pl.solve, whole, pl.VARIANTS[variant])
            if out is not None:
                answers[variant] = (out[0].w0.mask, out[0].w1.mask)
        if not answers:
            return {}
        majority = Counter(answers.values()).most_common(1)[0][0]
        record = (want or {}).get(str(seed), [])
        if i < len(record):
            expected, reference = record[i], "the golden record"
        else:
            expected, reference = region_digest(*majority), "the other variants'"
        problems = {answer: _trap_problem(game, *answer) for answer in set(answers.values())}
        for variant, answer in answers.items():
            if region_digest(*answer) != expected:
                tally.fail(f"file {i}/{variant}: regions differ from {reference}")
            elif problems[answer]:
                tally.fail(f"file {i}/{variant}: {problems[answer]}")
        return {i: region_digest(*majority)}


class InducedTree(Workload):
    """Tree construction and the structural suites on both families.

    Checks node counts of 3(2^(k+1) - 1), and the pass/fail counts of
    every suite, known failures included, against the golden record.
    """

    name = "induced-tree"
    cells = [("core", k) for k in range(1, 8)] + [("scc", k) for k in range(1, 7)]

    def setup(self, seed: int):
        return [(f, k, family_text(f, k)) for f, k in self.cells]

    def observe(self, tally: Tally, cell, want=None) -> dict:
        family, k, text = cell
        cell_key = f"{family}/{k}"
        want = None if want is None else want.get(cell_key, {})
        seen = {}

        def step(key, fn, *args, summary):
            def check(result):
                seen[key] = summary(result)
                if key == "nodes" and seen[key] != 3 * (2 ** (k + 1) - 1):
                    return f"{seen[key]} nodes, not 3(2^(k+1)-1)"
                if want is not None and seen[key] != want.get(key):
                    return f"{key} {seen[key]} != golden {want.get(key)}"
                return None

            return tally.op(f"{cell_key} {key}", fn, *args, check=check)

        game = tally.load(cell_key, text)
        if game is None:
            return {}
        step("extension_failures", pl.check_core_extension, game, k, summary=lambda r: len(r.failures))
        tree = step("nodes", pl.build_induced_tree, game, k, summary=len)
        if tree is None:
            return {cell_key: seen}
        for suite in ("verify_tree_invariants", "verify_algorithm_correspondence", "verify_single_scc"):
            step(suite, getattr(pl, suite), tree, summary=_pass_fail)
        step("verify_distinctness", pl.verify_distinctness, tree, summary=lambda r: [r[0], len(r[1])])
        step("small_dominion_nodes", _small_dominion_nodes, tree, k, summary=int)
        return {cell_key: seen}


def _pass_fail(report) -> list[int]:
    failed = len(report.failures)
    return [len(report.items) - failed, failed]


def _small_dominion_nodes(tree, k: int) -> int:
    # nodes holding a core-meeting dominion of at most two positions
    return sum(1 for label in tree if pl.min_core_dominion(tree[label], k, size_cap=2) is not None)


WORKLOADS = {w.name: w for w in (FamilyGrid, DeepChain, RandomFiles, InducedTree)}

