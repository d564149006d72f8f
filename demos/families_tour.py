"""Generate the two benchmark families and watch the solver counters.

The bare core blows up the plain recursion but collapses once the
solver splits components; the connector-extended family keeps the
blow-up alive through every enhancement.

Run: python demos/families_tour.py
"""

from paritylab import VARIANTS, Subgame, gen_core, gen_scc, solve

NAMES = ("plain", "memo", "memo+scc")

for name, gen in (("core", gen_core), ("connector", gen_scc)):
    print(f"\n{name} family")
    print(f"{'k':>3} {'n':>5}" + "".join(f" {c:>12}" for c in NAMES))
    for k in range(1, 7):
        game = gen(k)
        counts = []
        for variant in NAMES:
            _, stats = solve(Subgame.whole(game), VARIANTS[variant])
            counts.append(stats.distinct_subgames)
        bound = 3 * (2 ** (k + 1) - 1)
        row = f"{k:>3} {game.n:>5}" + "".join(f" {c:>12}" for c in counts)
        print(row + f"   (tree bound {bound})")
