"""Exact distinct-subgame counts of every layer mix on both families.

A guard against regressions in the evidence that no mix of memoization,
SCC splitting and dominion search escapes the exponential, not a gate:
each count below is the one the solver gives today.  ``EVIDENCE.csv``
holds the same counts with every other counter, k = 1..10.
"""

import csv
from pathlib import Path

from paritylab import run_bench

MIXES = ["plain", "memo", "scc", "memo+scc", "dom", "memo+dom", "scc+dom", "memo+scc+dom"]
DOMINION_MIXES = {"dom", "memo+dom", "scc+dom", "memo+scc+dom"}
EVIDENCE = Path(__file__).resolve().parent.parent / "EVIDENCE.csv"

# memo never changes the count of the mix it joins
WITHOUT_MEMO = {mix: mix.removeprefix("memo+") if mix != "memo" else "plain" for mix in MIXES}

# gen_scc(k), k = 1..7, by mix without memo
SCC_COUNTS = {
    "plain": [12, 41, 124, 356, 992, 2713, 7328],
    "scc": [12, 43, 133, 383, 1066, 2914, 7878],
    "dom": [5, 9, 14, 20, 83, 626, 1875],
    "scc+dom": [5, 9, 14, 20, 84, 638, 1912],
}


def _distinct(family, ks):
    return {(r.variant, r.k): r.distinct_subgames for r in run_bench([family], ks, MIXES)}


def _bound(k):
    return 3 * (2 ** (k + 1) - 1)


def test_every_layer_mix_has_its_exact_count():
    core = _distinct("core", range(1, 11))
    for k in range(1, 11):
        dom = k + 4 if k >= 2 else 4
        want = {"plain": 13 * 2**k - k * k - 4 * k - 10, "scc": 10 * k, "dom": dom, "scc+dom": dom}
        for mix in MIXES:
            assert core[mix, k] == want[WITHOUT_MEMO[mix]], ("core", mix, k)

    connector = _distinct("scc", range(1, 8))
    for mix in MIXES:
        counts = [connector[mix, k] for k in range(1, 8)]
        assert counts == SCC_COUNTS[WITHOUT_MEMO[mix]], ("scc", mix)
        for k, count in enumerate(counts, start=1):
            if mix in DOMINION_MIXES:
                # below the paper's bound up to k = 5, above it from k = 6
                assert (count < _bound(k)) == (k <= 5), (mix, k)
            else:
                assert count >= _bound(k), (mix, k)


def test_committed_evidence_matches_the_solver():
    with EVIDENCE.open(encoding="utf-8") as handle:
        rows = [row for row in csv.DictReader(handle) if int(row["k"]) <= 5]
    assert len(rows) == 2 * 5 * len(MIXES)
    fresh = {
        (r.family, r.k, r.variant): r
        for family in ("core", "scc")
        for r in run_bench([family], range(1, 6), MIXES)
    }
    counters = ["n", "m", "total_calls", "distinct_subgames", "memo_hits", "max_depth",
                "dominion_probes", "dominion_replays", "bound_3_2k1"]
    for row in rows:
        r = fresh[row["family"], int(row["k"]), row["variant"]]
        assert [int(row[c]) for c in counters] == [getattr(r, c) for c in counters], row
