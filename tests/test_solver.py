"""Recursive solver, its enhancement layers and the bounded dominion search."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritylab import (
    CallLimitExceeded,
    ParityGame,
    Player,
    PositionSet,
    SolveStats,
    SolverConfig,
    Subgame,
    default_dominion_bound,
    find_dominion,
    gen_core,
    gen_random,
    gen_scc,
    is_dominion,
    left_step,
    oracle_solve,
    right_step,
    scc_split,
    solve,
    solver,
)
from paritylab.harness import VARIANTS

from conftest import mk, names


def test_solve_hand_game():
    # 2 is an even self-loop sink; everyone can and will reach it
    g = mk([0, 1, 1], [2, 1, 0], [[1, 2], [0, 2], [2]])
    regions, stats = solve(Subgame.whole(g))
    assert regions.of(0).mask == 0b111
    assert not regions.of(1)
    assert stats.total_calls >= 1
    assert stats.wall_time >= 0.0


def test_solve_hand_game_split_regions():
    # 0: odd self-loop; 1 (owner 1) may stay on 0 forever; 2 escapes to 1
    g = mk([1, 1, 0], [1, 0, 2], [[0, 1], [0], [1, 2]])
    regions, _ = solve(Subgame.whole(g))
    assert regions.of(1).mask == 0b011
    assert regions.of(0).mask == 0b100


def test_left_step_on_core_root(whole_core1, core1):
    sub, player, removed = left_step(whole_core1)
    assert player is Player.ODD  # top priority 5 is odd
    assert names(core1, removed) == ["a2"]
    assert len(sub) == 8


def test_left_step_after_one_removal():
    # one level further down the recursion the parity flips
    g = gen_core(2)
    first, _, _ = left_step(Subgame.whole(g))
    sub, player, removed = left_step(first)
    assert player is Player.EVEN
    assert names(g, removed) == ["a3", "b4"]
    assert len(sub) == len(first) - 2


def test_right_step_reproduces_sibling(whole_core1, core1):
    left, _, _ = left_step(whole_core1)
    regions, _ = solve(left)
    sibling = right_step(whole_core1, regions.of(0), Player.EVEN)
    assert names(core1, sibling) == ["a0", "a1", "b0", "b1", "g0"]


def test_all_variants_agree():
    for g in (gen_core(2), gen_scc(1)):
        sub = Subgame.whole(g)
        answers = {name: solve(sub, cfg)[0] for name, cfg in VARIANTS.items()}
        baseline = answers["plain"]
        assert all(r == baseline for r in answers.values())
        assert not baseline.of(1)  # both families are fully won by player 0


def test_memoization_hits_and_distinct_counts():
    sub = Subgame.whole(gen_core(2))
    _, plain = solve(sub)
    _, memo = solve(sub, SolverConfig(memoization=True))
    assert plain.distinct_subgames == memo.distinct_subgames == 30
    assert memo.memo_hits > 0
    assert memo.total_calls < plain.total_calls


def test_scc_decomposition_collapses_core_counts():
    sub = Subgame.whole(gen_core(2))
    _, stats = solve(sub, VARIANTS["memo+scc"])
    assert stats.distinct_subgames == 20  # linear in k instead of exponential


def test_scc_split_terminal_first():
    # 0 -> 1, both self-looped: {1} must come out before {0}
    g = mk([0, 0], [0, 1], [[0, 1], [1]])
    comps = scc_split(Subgame.whole(g))
    assert [c.mask for c in comps] == [0b10, 0b01]


def test_scc_split_disjoint_loops():
    g = mk([0, 1], [0, 1], [[0], [1]])
    comps = scc_split(Subgame.whole(g))
    assert sorted(c.mask for c in comps) == [0b01, 0b10]


def test_scc_split_on_recursion_remainder(core1):
    # three max-priority removals leave {b0, g0, g1, g2}: the hub
    # chain snaps into a 2-cycle and two isolated self-loops
    sub = Subgame.whole(core1)
    for _ in range(3):
        sub, _, _ = left_step(sub)
    assert names(core1, sub) == ["b0", "g0", "g1", "g2"]
    comps = scc_split(sub)
    assert sorted(names(core1, c) for c in comps) == [["b0", "g0"], ["g1"], ["g2"]]


def test_find_dominion_single_even_loop():
    g = mk([0], [2], [[0]])
    found = find_dominion(Subgame.whole(g), 1)
    assert found is not None
    d, player = found
    assert d.mask == 0b1 and player is Player.EVEN


def test_find_dominion_top_gadget_pair():
    g = gen_core(2)
    sub = Subgame.whole(g)
    assert find_dominion(sub, 1) is None
    found = find_dominion(sub, 2)
    assert found is not None
    d, player = found
    assert names(g, d) == ["b4", "g4"] and player is Player.EVEN


def test_find_dominion_player_filter():
    g = gen_core(2)
    sub = Subgame.whole(g)
    # the whole game is won by player 0, so player 1 owns no dominion
    assert find_dominion(sub, g.n, players=(1,)) is None
    probes = SolveStats()
    found = find_dominion(sub, 2, probes, players=(0,))
    assert found is not None and probes.dominion_probes > 0


def test_find_dominion_rejects_bad_size(whole_core1):
    with pytest.raises(ValueError):
        find_dominion(whole_core1, 0)


def test_call_limit_carries_partial_stats():
    sub = Subgame.whole(gen_core(2))
    with pytest.raises(CallLimitExceeded) as exc:
        solve(sub, SolverConfig(call_limit=5))
    assert exc.value.limit == 5
    assert exc.value.stats.total_calls == 6
    # with the memo, the in-flight calls count as distinct subgames
    with pytest.raises(CallLimitExceeded) as exc:
        solve(sub, SolverConfig(memoization=True, call_limit=40))
    s = exc.value.stats
    assert (s.total_calls, s.distinct_subgames, s.memo_hits, s.max_depth) == (41, 30, 10, 11)


def test_default_dominion_bound_is_sqrt_ceiling():
    cases = [(1, 1), (2, 2), (4, 2), (5, 3), (9, 3), (10, 4), (16, 4), (17, 5)]
    assert [(n, default_dominion_bound(n)) for n, _ in cases] == cases


def _chain(n):
    # position v: owner v mod 2, priority v, a self-loop and a move to v-1;
    # player 0 wins exactly the even positions
    return mk([v % 2 for v in range(n)], list(range(n)), [[v, v - 1] if v else [v] for v in range(n)])


@pytest.mark.parametrize("variant", ["plain", "memo+scc+dom"])
def test_deep_chain_leaves_recursion_limit_alone(variant):
    n = 1500
    g = _chain(n)
    limit = sys.getrecursionlimit()
    regions, stats = solve(Subgame.whole(g), VARIANTS[variant])
    assert regions.of(0).indices() == tuple(range(0, n, 2))
    assert stats.max_depth == n + 1
    assert sys.getrecursionlimit() == limit


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(0, 10_000), st.data())
def test_first_scc_matches_tarjan(n, seed, data):
    # any non-empty alive set, not only attractor complements: the
    # subgame need not be left-total
    g = gen_random(n, seed)
    alive = data.draw(st.integers(1, g.full_mask))
    assert solver._first_scc(g, alive) == solver._scc_masks(g, alive)[0]


def test_scc_layer_runs_no_tarjan_on_a_chain(monkeypatch):
    # each lowest alive position is a one-position terminal component,
    # which the closure check finds without Tarjan
    n = 300
    g = _chain(n)
    runs = []
    tarjan = solver._scc_masks
    monkeypatch.setattr(solver, "_scc_masks", lambda game, alive: runs.append(alive) or tarjan(game, alive))
    regions, stats = solve(Subgame.whole(g), VARIANTS["scc"])
    assert runs == []
    assert regions.of(0).indices() == tuple(range(0, n, 2))
    assert (stats.total_calls, stats.distinct_subgames, stats.max_depth) == (2 * n + 1, n + 2, 3)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.integers(0, 10_000), st.integers(1, 6), st.data())
def test_dominion_replay_matches_a_fresh_scan(n, seed, fixed, data):
    # a chain of nested alive sets, as the recursion makes them; each set
    # is scanned with the bound its size gives and with a fixed bound, so
    # later scans meet records of earlier ones under the same key
    g = gen_random(n, seed)
    record = {}
    alive = g.full_mask
    while alive:
        for bound in (default_dominion_bound(alive.bit_count()), fixed):
            shared, fresh = SolveStats(), SolveStats()
            got = solver._find_dominion_mask(g, alive, bound, (0, 1), shared, record)
            want = solver._find_dominion_mask(g, alive, bound, (0, 1), fresh, {})
            assert got == want
            assert shared.dominion_probes == fresh.dominion_probes
        members = [v for v in range(g.n) if alive >> v & 1]
        for v in data.draw(st.lists(st.sampled_from(members), min_size=1, max_size=3)):
            alive &= ~(1 << v)


def test_dominion_record_is_per_solve():
    sub = Subgame.whole(gen_scc(3))
    first, second = (solve(sub, VARIANTS["memo+scc+dom"])[1] for _ in range(2))
    first.wall_time = second.wall_time = 0.0
    assert first == second
    assert first.dominion_replays > 0
    for name, cfg in VARIANTS.items():
        if name != "memo+scc+dom":
            assert solve(sub, cfg)[1].dominion_replays == 0


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 7))
def test_variants_agree_on_random_games(seed, n):
    sub = Subgame.whole(gen_random(n, seed))
    baseline, _ = solve(sub)
    for cfg in VARIANTS.values():
        regions, _ = solve(sub, cfg)
        assert regions.of(0).isdisjoint(regions.of(1))
        assert (regions.of(0) | regions.of(1)) == sub.alive
        assert regions == baseline


def test_solver_is_deterministic():
    g = gen_scc(2)
    sub = Subgame.whole(g)
    a = solve(sub, VARIANTS["memo+scc"])
    b = solve(sub, VARIANTS["memo+scc"])
    assert a[0] == b[0]
    assert a[1].total_calls == b[1].total_calls
    assert a[1].distinct_subgames == b[1].distinct_subgames


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 30),
    st.integers(0, 10_000),
    st.integers(1, 6),
    st.sampled_from([(0, 1), (1, 0), (0,), (1,)]),
)
def test_found_dominions_are_traps_the_oracle_agrees_on(n, seed, bound, players):
    # the search's certifier against the trap check and the oracle
    g = gen_random(n, seed)
    sub = Subgame.whole(g)
    found = find_dominion(sub, bound, players=players)
    if found is None:
        return
    d, p = found
    assert len(d) <= bound  # so within the oracle's 12 positions
    assert is_dominion(sub, d, p)
    assert oracle_solve(Subgame(g, d)).of(p) == d
