"""Rewrite golden.json from the program as it is in this checkout.

    python3 perfbench/record_golden.py

The golden file pins the solver counters of every family-grid and
deep-chain cell, the node and suite pass/fail counts of every
induced-tree cell, and a digest of the winning regions of every
random-files game of the seeds in ``RANDOM_SEEDS``; the benchmark fails
any operation that disagrees.
Re-record only for a change that is meant to alter the algorithm, and
say so in the change.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

# the seeds whose random files get recorded regions
RANDOM_SEEDS = range(1, 11)


def record_golden() -> dict:
    """Observe every golden cell once, at the default workload sizes."""
    out = {}
    tally = workloads.Tally()
    for cls in (workloads.FamilyGrid, workloads.DeepChain, workloads.InducedTree):
        w = cls()
        seen = {}
        for cell in w.setup(0):
            seen.update(w.observe(tally, cell))
        out[w.name] = dict(sorted(seen.items(), key=lambda kv: _cell_key(kv[0])))
    w = workloads.RandomFiles()
    out[w.name] = {}
    for seed in RANDOM_SEEDS:
        # each file's regions are those all five variants agree on
        seen = {}
        for cell in w.setup(seed):
            seen.update(w.observe(tally, cell))
        out[w.name][str(seed)] = [seen[i] for i in range(w.files)]
    if tally.failed:
        raise RuntimeError(f"golden cells failed their checks: {tally.errors}")
    return out


def _cell_key(key: str):
    return tuple(int(p) if p.isdigit() else p for p in key.split("/"))


if __name__ == "__main__":
    golden = record_golden()
    # one cell per line, so a re-recording diffs cell by cell
    lines = []
    for name, cells in golden.items():
        rows = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in cells.items()]
        lines.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {workloads.GOLDEN_PATH.name}: " + ", ".join(f"{k} {len(v)} cells" for k, v in golden.items()))
