"""Golden solver counters on the family grid.

``data/grid_counters.json`` holds ``[total_calls, distinct_subgames,
memo_hits, max_depth, dominion_probes]`` for ``gen_core`` k=1..6 and
``gen_scc`` k=1..4 under every variant.  A speed-up must reproduce every
entry: a change that moves a counter changes the algorithm.

Re-record (only for a deliberate change of algorithm) with
``PYTHONPATH=src python tests/test_grid_counters.py``.
"""

import json
from pathlib import Path

import pytest

from paritylab import Subgame, gen_core, gen_scc, solve
from paritylab.harness import VARIANTS

GOLDEN = Path(__file__).parent / "data" / "grid_counters.json"
GRID = [("core", gen_core, k) for k in range(1, 7)] + [("scc", gen_scc, k) for k in range(1, 5)]


def _counters(gen, k, variant):
    _, s = solve(Subgame.whole(gen(k)), VARIANTS[variant])
    return [s.total_calls, s.distinct_subgames, s.memo_hits, s.max_depth, s.dominion_probes]


@pytest.mark.parametrize("fam,gen,k", GRID, ids=[f"{fam}-k{k}" for fam, _, k in GRID])
def test_grid_counters_match_golden(fam, gen, k):
    golden = json.loads(GOLDEN.read_text())[f"{fam} k={k}"]
    assert {v: _counters(gen, k, v) for v in VARIANTS} == golden


if __name__ == "__main__":
    table = {f"{fam} k={k}": {v: _counters(gen, k, v) for v in VARIANTS} for fam, gen, k in GRID}
    rows = ",\n".join(f" {json.dumps(key)}: {json.dumps(row)}" for key, row in table.items())
    GOLDEN.write_text("{\n" + rows + "\n}\n")
