"""Input generators of the benchmark, written as PGSolver text.

The program under test only ever sees the text these functions return
(or the family games its own generators build), so a change to the
program cannot change the inputs.  Every generator is deterministic in
its arguments; the text is in the canonical form ``write_pgsolver``
emits, so a lossless round trip reproduces it byte for byte.
"""

from __future__ import annotations

import random


def _render(owners, priorities, successors) -> str:
    lines = [f"parity {len(owners) - 1};"]
    for v, (o, p, row) in enumerate(zip(owners, priorities, successors)):
        lines.append(f"{v} {p} {o} {','.join(map(str, row))};")
    return "\n".join(lines) + "\n"


def chain_text(n: int) -> str:
    """The deep chain: position v has owner v mod 2, priority v, a
    self-loop and (for v > 0) a move to v - 1.

    Every position is won by its owner through the self-loop, so the
    known answer is W0 = the even positions.  The recursion descends one
    priority at a time, so it is n calls deep, and every subgame splits
    into n singleton components.
    """
    if n < 1:
        raise ValueError(f"chain needs n >= 1, got {n}")
    return _render(
        [v % 2 for v in range(n)],
        list(range(n)),
        [[v, v - 1] if v else [v] for v in range(n)],
    )


def random_text(n: int, seed: int) -> str:
    """A seeded uniform random game of ``n`` positions.

    The distribution of ``paritylab.gen_random`` with its defaults, drawn
    in the same order: random owners, priorities drawn from ``range(n)``,
    and one to three distinct successors drawn from all positions.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = random.Random(seed)
    owners = [rng.randrange(2) for _ in range(n)]
    prs = [rng.randrange(n) for _ in range(n)]
    successors = [rng.sample(range(n), rng.randint(1, min(3, n))) for _ in range(n)]
    return _render(owners, prs, successors)


def random_file_set(count: int, seed: int, n: int) -> list[str]:
    """``count`` random games whose per-game seeds derive from ``seed``."""
    rng = random.Random(seed)
    return [random_text(n, rng.getrandbits(32)) for _ in range(count)]
