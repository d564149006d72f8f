"""Outside-in tracing of the solver layers, for the traced benchmark run.

Nothing under ``src/`` is edited.  ``Tracer.patched()`` rebinds the
names the program resolves at call time and restores them on exit:

* in ``paritylab.solver``: ``_attractor_mask``, ``_max_priority_mask``,
  ``_scc_masks`` and ``_find_dominion_mask``, which the recursion looks
  up as module globals on every call, and ``attractor`` and
  ``max_priority``, which ``left_step`` and ``right_step`` use;
* in ``paritylab.analyzer``: ``attractor``, ``solve`` and
  ``_search_dominion``, which tree construction and the suites use;
* in the ``paritylab`` package: the entry points the benchmark itself
  calls (``solve``, the PGSolver reader and writer, tree construction and
  the suites).

Each wrapped call records a span (name, start, end, parent span).  Spans
are kept in memory, up to ``SPAN_CAP`` of them, and written out when the run
ends; self time (a span's duration minus the time its child spans
cover) and the per-layer counters are accumulated as spans close, so
they cover every call even when the stored spans are capped.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

import paritylab
import paritylab.analyzer
import paritylab.solver

# layer names, in report order
ATTRACTOR = "core.attractor"
MAX_PRIORITY = "core.max_priority"
RECURSION = "solver.recursion"
SCC = "solver.scc"
DOMINION = "solver.dominion"
PARSE = "harness.parse"
WRITE = "harness.write"
BUILD_TREE = "analyzer.build_tree"
VERIFY = "analyzer.verify"
LAYERS = (ATTRACTOR, MAX_PRIORITY, RECURSION, SCC, DOMINION, PARSE, WRITE, BUILD_TREE, VERIFY)

# spans stored for writing out; later ones are only counted
SPAN_CAP = 50_000

# the counters each layer keeps besides its call count and self time
_COUNTERS = (
    "recursion.calls",
    "recursion.distinct",
    "recursion.max_depth",
    "memo.lookups",
    "memo.hits",
    "scc.splits",
    "dominion.hits",
    "dominion.probes",
    "parse.bytes",
    "build_tree.nodes",
)

_SUITES = (
    "check_core_extension",
    "verify_tree_invariants",
    "verify_algorithm_correspondence",
    "verify_distinctness",
    "verify_single_scc",
    "min_core_dominion",
)


class Tracer:
    """Span recorder plus per-layer accumulators for one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.dropped = 0
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counters = dict.fromkeys(_COUNTERS, 0)
        # open spans: [span id, name, start, time covered by children]
        self._open: list[list] = []
        self._next_id = 0

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, 0.0, 0.0]
        self._next_id += 1
        self._open.append(frame)
        frame[2] = perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        self._open.pop()
        span_id, name, start, covered = frame
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - covered
        parent = -1
        if self._open:
            up = self._open[-1]
            up[3] += dur
            parent = up[0]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent, name, start, end))
        else:
            self.dropped += 1

    def _span(self, name: str, fn, after=None):
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # counters read at the layer boundaries

    def _after_solve(self, args, kwargs, result) -> None:
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        stats = result[1]
        c = self.counters
        c["recursion.distinct"] += stats.distinct_subgames
        c["recursion.max_depth"] = max(c["recursion.max_depth"], stats.max_depth)
        c["recursion.calls"] += stats.total_calls
        if cfg is not None and cfg.memoization:
            c["memo.lookups"] += stats.total_calls
            c["memo.hits"] += stats.memo_hits

    def _after_scc(self, args, kwargs, result) -> None:
        if len(result) > 1:
            self.counters["scc.splits"] += 1

    def _after_parse(self, args, kwargs, result) -> None:
        self.counters["parse.bytes"] += len(args[0])

    def _after_build(self, args, kwargs, result) -> None:
        self.counters["build_tree.nodes"] += len(result)

    def _dominion(self, fn, stats_at: int):
        # probes are read from the stats object the search is handed
        traced = self._span(DOMINION, fn)
        counters = self.counters

        def search(*args):
            stats = args[stats_at]
            before = stats.dominion_probes
            result = traced(*args)
            counters["dominion.probes"] += stats.dominion_probes - before
            if result is not None:
                counters["dominion.hits"] += 1
            return result

        return search

    @contextmanager
    def patched(self):
        """Rebind every traced entry point; restore the originals on exit."""
        solver, analyzer = paritylab.solver, paritylab.analyzer
        plan = [
            (solver, "_attractor_mask", lambda f: self._span(ATTRACTOR, f)),
            (solver, "_max_priority_mask", lambda f: self._span(MAX_PRIORITY, f)),
            (solver, "_scc_masks", lambda f: self._span(SCC, f, self._after_scc)),
            (solver, "_find_dominion_mask", lambda f: self._dominion(f, 4)),
            (solver, "attractor", lambda f: self._span(ATTRACTOR, f)),
            (solver, "max_priority", lambda f: self._span(MAX_PRIORITY, f)),
            (analyzer, "_search_dominion", lambda f: self._dominion(f, 5)),
            (analyzer, "attractor", lambda f: self._span(ATTRACTOR, f)),
            (analyzer, "solve", lambda f: self._span(RECURSION, f, self._after_solve)),
            (paritylab, "solve", lambda f: self._span(RECURSION, f, self._after_solve)),
            (paritylab, "parse_pgsolver", lambda f: self._span(PARSE, f, self._after_parse)),
            (paritylab, "write_pgsolver", lambda f: self._span(WRITE, f)),
            (paritylab, "build_induced_tree", lambda f: self._span(BUILD_TREE, f, self._after_build)),
        ]
        plan += [(paritylab, name, lambda f: self._span(VERIFY, f)) for name in _SUITES]
        saved = []
        try:
            for module, attr, wrap in plan:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, wrap(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass layer metrics: totals over ``passes`` traced passes."""
        per = 1.0 / passes
        c = self.counters
        scc_calls = self.calls[SCC]
        searches = self.calls[DOMINION]
        return {
            "core.attractor.calls": self.calls[ATTRACTOR] * per,
            "core.attractor.self_s": self.self_s[ATTRACTOR] * per,
            "core.max_priority.calls": self.calls[MAX_PRIORITY] * per,
            "core.max_priority.self_s": self.self_s[MAX_PRIORITY] * per,
            "solver.recursion.calls": c["recursion.calls"] * per,
            "solver.recursion.distinct": c["recursion.distinct"] * per,
            "solver.recursion.max_depth": c["recursion.max_depth"],
            "solver.recursion.self_s": self.self_s[RECURSION] * per,
            "solver.memo.lookups": c["memo.lookups"] * per,
            "solver.memo.hits": c["memo.hits"] * per,
            "solver.memo.hit_ratio": _ratio(c["memo.hits"], c["memo.lookups"]),
            "solver.scc.calls": scc_calls * per,
            "solver.scc.splits": c["scc.splits"] * per,
            "solver.scc.split_ratio": _ratio(c["scc.splits"], scc_calls),
            "solver.scc.self_s": self.self_s[SCC] * per,
            "solver.dominion.searches": searches * per,
            "solver.dominion.hits": c["dominion.hits"] * per,
            "solver.dominion.hit_ratio": _ratio(c["dominion.hits"], searches),
            "solver.dominion.probes": c["dominion.probes"] * per,
            "solver.dominion.self_s": self.self_s[DOMINION] * per,
            "harness.parse.calls": self.calls[PARSE] * per,
            "harness.parse.bytes": c["parse.bytes"] * per,
            "harness.parse.self_s": self.self_s[PARSE] * per,
            "harness.write.self_s": self.self_s[WRITE] * per,
            "analyzer.build_tree.nodes": c["build_tree.nodes"] * per,
            "analyzer.build_tree.self_s": self.self_s[BUILD_TREE] * per,
            "analyzer.verify.self_s": self.self_s[VERIFY] * per,
        }

    def write_spans(self, path) -> None:
        """Write the stored spans as JSON lines, after one summary line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for span_id, parent, name, start, end in self.spans:
                out.write(
                    json.dumps({"id": span_id, "parent": parent, "name": name, "start": start, "end": end})
                    + "\n"
                )


def _ratio(useful: float, attempts: float) -> float:
    return useful / attempts if attempts else 0.0


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"
