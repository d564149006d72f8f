"""Recursive solver, its enhancement layers and the bounded dominion search."""

import itertools
import json
import os
import random
import re
import shutil
import signal
import struct
import subprocess
import sys
import sysconfig
from pathlib import Path

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
    core,
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


def _kernels():
    # the values of ``solver._kernel`` a check runs under: None for the
    # Python path, then the loaded kernel where it builds
    kernel = solver._kernel if solver._kernel is not False else solver._load_kernel()
    return [None] if kernel is None else [None, kernel]


def test_component_children_skip_their_scc_check(monkeypatch):
    # m disjoint 2-cycles: each component the split yields is strongly
    # connected already, so only the split itself runs the check, counted
    # through the twin on the Python path and through the kernel's
    # ``first_scc`` on the compiled one
    m = 5
    g = mk([v % 2 for v in range(2 * m)], list(range(2 * m)), [[v ^ 1] for v in range(2 * m)])
    check = solver._first_scc_py
    for kernel in _kernels():
        calls = []
        if kernel is None:
            monkeypatch.setattr(solver, "_kernel", None)
            monkeypatch.setattr(solver, "_first_scc_py", lambda *args: calls.append("first_scc") or check(*args))
        else:
            monkeypatch.setattr(solver, "_first_scc_py", check)
            monkeypatch.setattr(solver, "_kernel", _Counted(kernel, calls))
        regions, stats = solve(Subgame.whole(g), VARIANTS["scc"])
        assert calls.count("first_scc") == m, kernel
        assert (stats.total_calls, stats.distinct_subgames) == (11, 7)
        assert regions.of(1).mask == g.full_mask


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


@pytest.mark.parametrize("players", [(2,), (-1,), (0, 2), ("0",)])
def test_find_dominion_rejects_bad_players(whole_core1, players, monkeypatch):
    # before any scan, which both backends run through ``_find_dominion_mask``
    monkeypatch.setattr(solver, "_find_dominion_mask", lambda *args: pytest.fail("searched"))
    for kernel in _kernels():
        monkeypatch.setattr(solver, "_kernel", kernel)
        with pytest.raises(ValueError, match="player must be 0 or 1"):
            find_dominion(whole_core1, 2, players=players)


@pytest.mark.parametrize("p", [2, -1])
def test_is_dominion_rejects_bad_players(whole_core1, p):
    with pytest.raises(ValueError, match="player must be 0 or 1"):
        is_dominion(whole_core1, whole_core1.alive, p)


@pytest.mark.parametrize("backend", ["python", "kernel"])
def test_the_search_has_no_depth_limit(backend, monkeypatch):
    # one branch point per position of a 3,000-cycle, all on one path: at
    # budget n the kernel fills its frame stack exactly, n + 1 frames, and
    # a budget past every int64 is cut to n
    if backend == "python":
        monkeypatch.setattr(solver, "_kernel", None)
    else:
        _compiled()
    n = 3000
    g = mk([0] * n, [0] * n, [[(v + 1) % n] for v in range(n)])
    for budget in (n, 2**70):
        found = find_dominion(Subgame.whole(g), budget)
        assert found is not None
        d, player = found
        assert d.mask == g.full_mask and player is Player.EVEN


@pytest.mark.parametrize("backend", ["python", "kernel"])
def test_the_certificate_stops_at_the_first_bad_cycle(backend, monkeypatch):
    # player 1 forces the whole 3,000-cycle of player-0 positions in one
    # probe, and every position heads its even cycle: the certificate
    # needs one closure, not one per head
    n = 3000
    g = mk([0] * n, [0] * n, [[(v + 1) % n] for v in range(n)])
    calls = []
    if backend == "python":
        monkeypatch.setattr(solver, "_kernel", None)
        closure = core._closure
        monkeypatch.setattr(core, "_closure", lambda *args: calls.append(args) or closure(*args))
    else:
        _compiled()
    assert _searcher(backend)(g, g.full_mask, 0, 1, n) == (None, g.full_mask, 1)
    assert len(calls) == (backend == "python")


def _solve_on(backend, monkeypatch):
    # ``solve`` on one backend: the Python loop with the kernel set to
    # None, or the kernel's whole recursion
    if backend == "python":
        monkeypatch.setattr(solver, "_kernel", None)
    else:
        _compiled()


def _counters(stats):
    return [
        stats.total_calls,
        stats.distinct_subgames,
        stats.memo_hits,
        stats.max_depth,
        stats.dominion_probes,
        stats.dominion_replays,
    ]


def _stop(sub, cfg):
    # total calls, distinct subgames, memo hits and depth of a solve that
    # its call limit stops
    with pytest.raises(CallLimitExceeded) as exc:
        solve(sub, cfg)
    assert exc.value.limit == cfg.call_limit
    return _counters(exc.value.stats)[:4]


@pytest.mark.parametrize("backend", ["python", "kernel"])
def test_call_limit_carries_partial_stats(backend, monkeypatch):
    _solve_on(backend, monkeypatch)
    sub = Subgame.whole(gen_core(2))
    assert _stop(sub, SolverConfig(call_limit=5))[0] == 6
    # with the memo, the in-flight calls count as distinct subgames
    assert _stop(sub, SolverConfig(memoization=True, call_limit=40)) == [41, 30, 10, 11]
    # the root is counted but not entered
    assert _stop(sub, SolverConfig(call_limit=0)) == [1, 0, 0, 1]
    # stops deep inside memo solves
    assert _stop(Subgame.whole(gen_core(4)), SolverConfig(memoization=True, call_limit=200)) == [201, 143, 57, 19]
    assert _stop(Subgame.whole(_chain(1500)), SolverConfig(memoization=True, call_limit=1000)) == [1001, 1000, 0, 1001]
    # the empty subgame is one call on one distinct subgame
    g = gen_core(2)
    for cfg in (SolverConfig(), SolverConfig(memoization=True, call_limit=1)):
        regions, stats = solve(Subgame(g, PositionSet(g, 0)), cfg)
        assert not regions.of(0) and not regions.of(1)
        assert _counters(stats) == [1, 1, 0, 1, 0, 0]
    # nothing of a stopped solve reaches the next one
    regions, stats = solve(sub, SolverConfig(memoization=True))
    assert regions.of(0).mask == sub.alive.mask
    assert _counters(stats) == [42, 30, 12, 11, 0, 0]


def test_call_limit_is_checked_once_in_the_config():
    for limit in (-1, -(2**70)):
        with pytest.raises(ValueError, match="call_limit"):
            SolverConfig(call_limit=limit)
    for limit in (2.5, True, False, "3"):
        with pytest.raises(TypeError, match="call_limit"):
            SolverConfig(call_limit=limit)


@pytest.mark.parametrize("backend", ["python", "kernel"])
def test_a_call_limit_past_every_int64_never_binds(backend, monkeypatch):
    _solve_on(backend, monkeypatch)
    sub = Subgame.whole(gen_core(2))
    for limit in (42, 2**63 - 1, 2**63, 2**70):
        regions, stats = solve(sub, SolverConfig(memoization=True, call_limit=limit))
        assert regions.of(0).mask == sub.alive.mask
        assert _counters(stats) == [42, 30, 12, 11, 0, 0]


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


def _counting(items, reads):
    # a tuple that counts the items read from it into ``reads[0]``
    class Counting(tuple):
        def __getitem__(self, i):
            reads[0] += 1
            return tuple.__getitem__(self, i)

        def __iter__(self):
            for item in tuple.__iter__(self):
                reads[0] += 1
                yield item

    return Counting(items)


@pytest.mark.parametrize("backend", ["python", "kernel"])
@pytest.mark.parametrize("variant", ["plain", "scc"])
def test_chain_calls_read_constant_work(backend, variant, monkeypatch):
    # each call reads a bounded number of predecessor masks and priority
    # levels, not a number that grows with the chain; the kernel reads
    # the levels once, to pack the arena
    _solve_on(backend, monkeypatch)
    n = 400
    g = _chain(n)
    reads = [0]
    for name in ("pred_masks", "priority_levels"):
        object.__setattr__(g, name, _counting(getattr(g, name), reads))
    regions, _ = solve(Subgame.whole(g), VARIANTS[variant])
    assert regions.of(0).indices() == tuple(range(0, n, 2))
    assert reads[0] <= 8 * n


def _tarjan(game, alive):
    # textbook recursive Tarjan (SIAM J. Comput. 1972), successors in
    # ascending order: the components of the alive part as masks, in
    # emission order
    index, low, stack, on_stack, comps = {}, {}, [], set(), []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        for s in sorted(game.successors[v]):
            if alive >> s & 1:
                if s not in index:
                    visit(s)
                    low[v] = min(low[v], low[s])
                elif s in on_stack:
                    low[v] = min(low[v], index[s])
        if low[v] == index[v]:
            comp = 0
            while not comp >> v & 1:
                u = stack.pop()
                on_stack.discard(u)
                comp |= 1 << u
            comps.append(comp)

    for v in range(game.n):
        if alive >> v & 1 and v not in index:
            visit(v)
    return comps


@st.composite
def _scc_cases(draw):
    # a game and any non-empty alive set, not only attractor complements:
    # the subgame need not be left-total.  Half the games are gen_random's
    # (out-degree at most 3), half have drawn successor sets, dense ones
    # included; masks cross the 64- and 128-bit word edges
    n = draw(st.integers(1, 150))
    if draw(st.booleans()):
        g = gen_random(n, draw(st.integers(0, 10_000)))
    else:
        succ = [draw(st.integers(1, (1 << n) - 1)) for _ in range(n)]
        g = mk([0] * n, [0] * n, [[s for s in range(n) if m >> s & 1] for m in succ])
    return g, draw(st.integers(1, g.full_mask))


def _first_scc_backend(backend):
    # one backend's closure check, (game, alive) -> (f, strong)
    if backend == "python":
        return solver._first_scc_py
    kernel = _compiled()
    return lambda g, alive: kernel.first_scc(g.packed or solver._pack(g), alive)


def _first_component(first_scc, g, alive):
    # the first component, from the closure check as the SCC layer takes it
    f, strong = first_scc(g, alive)
    return f if strong else solver._scc_masks(g, f)[0]


@pytest.mark.parametrize("backend", ["python", "kernel"])
@settings(max_examples=400, deadline=None)
@given(_scc_cases())
def test_first_scc_matches_tarjan(backend, case):
    # the forward closure of the lowest alive position, and whether it is
    # the first component already
    first_scc = _first_scc_backend(backend)
    g, alive = case
    comps = _tarjan(g, alive)
    assert solver._scc_masks(g, alive) == comps
    f, strong = first_scc(g, alive)
    assert f == core._closure(g.succ_masks, alive, alive & -alive)
    assert strong == (f == comps[0])
    assert _first_component(first_scc, g, alive) == comps[0]


@pytest.mark.parametrize("backend", ["python", "kernel"])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 129])
def test_first_scc_at_word_edges(backend, n):
    # every third position's only move is a self-loop; each alive set is
    # cut down one first component at a time, as the SCC layer does, so
    # most of them are not left-total
    first_scc = _first_scc_backend(backend)
    rng = random.Random(n)
    successors = [[v] if v % 3 == 0 else rng.sample(range(n), min(n, 3)) for v in range(n)]
    g = mk([rng.randrange(2) for _ in range(n)], list(range(n)), successors)
    for alive in (g.full_mask, rng.randint(1, g.full_mask), g.full_mask & ~1):
        while alive:
            comp = _first_component(first_scc, g, alive)
            assert comp == _tarjan(g, alive)[0], (n, alive)
            alive &= ~comp


@pytest.mark.parametrize("backend", ["python", "kernel"])
def test_first_scc_of_nothing_reads_nothing(backend):
    # an empty alive set has no lowest position, so no mask is read
    first_scc = _first_scc_backend(backend)
    g = gen_random(5, 5)
    reads = [0]
    for name in ("succ_masks", "pred_masks"):
        object.__setattr__(g, name, _counting(getattr(g, name), reads))
    assert first_scc(g, 0) == (0, True)
    assert reads == [0]


def test_scc_layer_decomposes_nothing_on_a_chain(monkeypatch):
    # each lowest alive position is a one-position terminal component,
    # which the closure check finds without decomposing
    n = 300
    g = _chain(n)
    runs = []
    decompose = solver._scc_masks
    monkeypatch.setattr(solver, "_scc_masks", lambda game, alive: runs.append(alive) or decompose(game, alive))
    regions, stats = solve(Subgame.whole(g), VARIANTS["scc"])
    assert runs == []
    assert regions.of(0).indices() == tuple(range(0, n, 2))
    assert (stats.total_calls, stats.distinct_subgames, stats.max_depth) == (2 * n + 1, n + 2, 3)


def _new_record(backend):
    # one backend's record maker: the kernel's record, or the Python dict
    if backend == "python":
        return dict
    return _compiled().record


def _scan_both(g, alive, bound, players, records):
    # one scan through ``_find_dominion_mask`` on the record ``records[0]``
    # and one through the Python twin on the dict ``records[1]``: both
    # answers, probes and replays must agree
    got = SolveStats()
    found = solver._find_dominion_mask(g, alive, bound, players, got, records[0])
    want = solver._find_dominion_mask_py(g, records[1], alive, bound, players)
    assert (*(found or (None, None)), got.dominion_probes, got.dominion_replays) == want, (alive, bound, players)
    return found, got


@pytest.mark.parametrize("backend", ["python", "kernel"])
@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.integers(0, 10_000), st.integers(1, 6), st.data())
def test_dominion_replay_matches_a_fresh_scan(backend, n, seed, fixed, data):
    # a chain of nested alive sets, as the recursion makes them; each set
    # is scanned with the bound its size gives and with a fixed bound, so
    # later scans meet records of earlier ones under the same key.  The
    # backend's record must answer as a fresh one and replay exactly as
    # the Python dict record does over the same alive sets
    new_record = _new_record(backend)
    g = gen_random(n, seed)
    records = (new_record(), {})
    alive = g.full_mask
    while alive:
        for bound in (default_dominion_bound(alive.bit_count()), fixed):
            found, shared = _scan_both(g, alive, bound, (0, 1), records)
            fresh = SolveStats()
            assert solver._find_dominion_mask(g, alive, bound, (0, 1), fresh, new_record()) == found
            assert (fresh.dominion_probes, fresh.dominion_replays) == (shared.dominion_probes, 0)
        members = [v for v in range(g.n) if alive >> v & 1]
        for v in data.draw(st.lists(st.sampled_from(members), min_size=1, max_size=3)):
            alive &= ~(1 << v)


@st.composite
def _scan_cases(draw):
    # a game and a chain of nested alive sets.  Half the games have at
    # most 9 positions; the other half have 63, 64, 65, 128 or 129, with
    # at most 9 spots on both sides of the word edges that every move
    # leads into, so the Python search stays cheap at budgets up to n
    if draw(st.booleans()):
        n = draw(st.integers(1, 9))
        g = gen_random(n, draw(st.integers(0, 10_000)))
        spots = list(range(n))
    else:
        n = draw(st.sampled_from([63, 64, 65, 128, 129]))
        edges = [v for v in (0, 1, 62, 63, 64, 65, 126, 127, 128) if v < n]
        spots = draw(st.lists(st.sampled_from(edges), min_size=1, max_size=9, unique=True))
        successors = [draw(st.lists(st.sampled_from(spots), min_size=1, max_size=3, unique=True)) for _ in range(n)]
        owners = [draw(st.integers(0, 1)) for _ in range(n)]
        g = mk(owners, [draw(st.integers(0, 2 * n)) for _ in range(n)], successors)
    extra = draw(st.lists(st.integers(0, n - 1), max_size=3))
    alive = sum(1 << v for v in {*spots, *extra})
    chain = [alive]
    while alive:
        members = [v for v in range(n) if alive >> v & 1]
        alive &= ~sum(1 << v for v in draw(st.lists(st.sampled_from(members), min_size=1, max_size=3, unique=True)))
        chain.append(alive)
    return g, chain[:-1]


@settings(max_examples=150, deadline=None)
@given(_scan_cases())
def test_kernel_scan_matches_the_python_scan(case):
    # one kernel record and one dict record over the same alive sets:
    # every budget the key rule distinguishes or folds (n, n + 1 and 2**70
    # all key as n), and every player order, repeats and none included
    kernel = _compiled()
    g, chain = case
    records = (kernel.record(), {})
    for alive in chain:
        for bound in (default_dominion_bound(alive.bit_count()), *range(1, 7), g.n, g.n + 1, 2**70):
            for players in ((0, 1), (1, 0), (0,), (1,), (0, 0), ()):
                _scan_both(g, alive, bound, players, records)


def test_a_dict_record_scan_calls_no_kernel_function(monkeypatch):
    # with the kernel loaded, a scan on a dict record runs the Python
    # search, so the Python side of the scan checks above is all Python;
    # a kernel record's scan is one kernel call
    calls = []
    monkeypatch.setattr(solver, "_kernel", _Counted(_compiled(), calls))
    g = gen_scc(2)
    for record in ({}, solver._kernel.record()):
        del calls[:]
        for bound in (1, 2, g.n):
            stats = SolveStats()
            solver._find_dominion_mask(g, g.full_mask, bound, (0, 1), stats, record)
            assert stats.dominion_probes > 0
        assert calls == ([] if isinstance(record, dict) else ["scan"] * 3)


def test_kernel_record_grows_replays_and_overwrites():
    # a 200-cycle of player-0 positions of priority 1 has no dominion of
    # size 1, so a scan at budget 1 keeps 400 entries, far past the
    # record's first slots, and a second scan replays all of them.  With
    # position 100 gone, seeds 0..98 replay; seed 99's two entries touched
    # 100, so both are searched again and overwritten, and position 99,
    # left without a move, is player 1's
    kernel = _compiled()
    n = 200
    g = mk([0] * n, [1] * n, [[(v + 1) % n] for v in range(n)])
    records = (kernel.record(), {})
    for alive, found, replays in (
        (g.full_mask, None, 0),
        (g.full_mask, None, 2 * n),
        (g.full_mask & ~(1 << 100), (1 << 99, 1), 2 * 99),
    ):
        got, stats = _scan_both(g, alive, 1, (0, 1), records)
        assert (got, stats.dominion_replays) == (found, replays)


def _searcher(backend):
    # one backend's search, (game, alive, seed, p, budget) -> (result, touched, probes)
    if backend == "python":
        return solver._search_py
    kernel = _compiled()
    return lambda g, *args: kernel.search(g.packed or solver._pack(g), *args)


@pytest.mark.parametrize("backend", ["python", "kernel"])
@settings(max_examples=300, deadline=None)
@given(st.integers(1, 30), st.integers(0, 10_000), st.integers(0, 1), st.integers(1, 6), st.data())
def test_search_is_fixed_by_alive_on_touched(backend, n, game_seed, p, budget, data):
    # the replay rests on this: alive bits outside ``touched`` change
    # neither the result nor the probe count; the alive set need not be
    # left-total
    search = _searcher(backend)
    g = gen_random(n, game_seed)
    alive = data.draw(st.integers(1, g.full_mask))
    seed = data.draw(st.sampled_from([v for v in range(n) if alive >> v & 1]))
    found, touched, probes = search(g, alive, seed, p, budget)
    flip = data.draw(st.integers(0, g.full_mask)) & ~touched
    again, _, again_probes = search(g, alive ^ flip, seed, p, budget)
    assert (again, again_probes) == (found, probes)


@pytest.mark.parametrize("backend", ["python", "kernel"])
def test_search_finds_every_small_dominion(backend):
    # completeness: the prunes never cut off a winning strategy, so for
    # every dominion D the search seeded at min(D) succeeds within |D|
    search = _searcher(backend)
    for seed in range(600):
        g = gen_random(seed % 9 + 1, seed)
        whole = Subgame.whole(g)
        for dm in range(1, g.full_mask + 1):
            for p in (0, 1):
                if not is_dominion(whole, PositionSet(g, dm), p):
                    continue
                low = (dm & -dm).bit_length() - 1
                for budget in (dm.bit_count(), dm.bit_count() + 1):
                    found = search(g, g.full_mask, low, p, budget)[0]
                    assert found is not None, (seed, dm, p, budget)


def test_dominion_replays_on_the_families():
    # replays drop silently, answers intact, if ``touched`` grows too wide
    want = {
        gen_core: [5, 26, 34, 34, 80, 80, 150, 150],
        gen_scc: [4, 68, 242, 563, 3847, 36098],
    }
    for gen, replays in want.items():
        got = [
            solve(Subgame.whole(gen(k)), VARIANTS["memo+scc+dom"])[1].dominion_replays
            for k in range(1, len(replays) + 1)
        ]
        assert got == replays


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
    # every mix of the three layers, not only the named variants
    sub = Subgame.whole(gen_random(n, seed))
    baseline, _ = solve(sub)
    for memo, scc, dom in itertools.product((False, True), repeat=3):
        cfg = SolverConfig(memoization=memo, scc_decomposition=scc, dominion_decomposition=dom)
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


# ---------------------------------------------------------------------------
# the compiled search against ``_search_py``


def _compiled():
    # the kernel as the solver loads it; without one there is nothing to compare
    kernel = solver._kernel if solver._kernel is not False else solver._load_kernel()
    if kernel is None:
        pytest.skip("the compiled search did not build or load here")
    return kernel


def _agree(kernel, g, alive, seed, p, budget):
    got = kernel.search(g.packed or solver._pack(g), alive, seed, p, budget)
    assert got == solver._search_py(g, alive, seed, p, budget), (alive, seed, p, budget)


def _python_include():
    # the directory of Python.h, where gcc can compile against it
    include = sysconfig.get_paths()["include"]
    if shutil.which("gcc") is None or not Path(include, "Python.h").is_file():
        pytest.skip("no gcc or no Python headers here")
    return include


def test_the_kernel_builds_where_gcc_runs():
    # where the build can work, a failure must not hide behind the fallback
    _python_include()
    assert _compiled() is not None


def test_the_kernel_compiles_without_warnings(tmp_path):
    source = Path(solver.__file__).with_name("_kernel.c")
    flags = ["-O2", "-shared", "-fPIC", "-Wall", "-Wextra", "-Werror", "-I" + _python_include()]
    cmd = ["gcc", *flags, "-o", str(tmp_path / "kernel.so"), str(source)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# loads the build named by argv[1] and checks every kernel function
# against the Python references: word-edge games with each alive seed,
# both players and budgets from -1 up, every valid level cursor, alive
# masks with bits only past n, and a 3,000-cycle whose search fills the
# frame stack; the scans run one record over nested alive sets, so its
# entries are replayed, overwritten and outgrow the first slots.  Whole
# solves run against the Python loop, in full and stopped by their
# call limit: on the word-edge games, on cores whose tables double past
# their first slots, on a 1,500-chain whose stacks grow with its depth,
# and one that a signal handler interrupts
_SANITIZED_RUN = """
import random, signal, sys
from importlib.machinery import ExtensionFileLoader, ModuleSpec
from paritylab import CallLimitExceeded, ParityGame, SolverConfig, Subgame, core, gen_core, solver

loader = ExtensionFileLoader("paritylab._kernel", sys.argv[1])
kernel = loader.create_module(ModuleSpec("paritylab._kernel", loader, origin=sys.argv[1]))
loader.exec_module(kernel)
solver._kernel = None  # solver.solve runs the Python loop
searches = 0


def whole(g, limits):
    global searches
    arena = solver._pack(g)
    for memo in (False, True):
        for limit in (None, *limits):
            try:
                regions, s = solver.solve(Subgame.whole(g), SolverConfig(memoization=memo, call_limit=limit))
                w0 = regions.of(0).mask
            except CallLimitExceeded as stop:
                w0, s = None, stop.stats
            want = (w0, s.total_calls, s.distinct_subgames, s.memo_hits, s.max_depth, w0 is None)
            assert kernel.solve(arena, g.full_mask, memo, limit) == want, (g.n, memo, limit)
            searches += 1


def check(g, alive, seeds, players, budgets):
    global searches
    arena = solver._pack(g)
    r = alive & -alive
    f = core._closure(g.succ_masks, alive, r)
    assert kernel.first_scc(arena, alive) == (f, core._closure(g.pred_masks, f, r) == f)
    want = solver._left_mask(g, alive, 0)
    for lo in range(want[1] + 1):
        assert kernel.left(arena, alive, lo) == want, (g.n, alive, lo)
    p, _, holders, a = want
    for w_opp in (alive & ~a, alive, alive & -alive):
        if w_opp:
            for q in (0, 1):
                assert kernel.right(arena, alive, holders, w_opp, q) == solver._right_mask(g, alive, holders, w_opp, q)
    past = (1 << 64 * ((g.n + 63) // 64)) - 1 & ~g.full_mask
    if past:
        assert kernel.first_scc(arena, past) == (0, True)
        assert kernel.right(arena, past, past, past, 0) is past
        try:
            kernel.left(arena, past, 0)
        except ValueError:
            pass
        else:
            raise AssertionError("left took a bit past n as a position")
    for seed in seeds:
        for p in players:
            for budget in budgets:
                got = kernel.search(arena, alive, seed, p, budget)
                assert got == solver._search_py(g, alive, seed, p, budget), (g.n, alive, seed, p, budget)
                searches += 1
    if past:
        assert kernel.scan(arena, kernel.record(), past, 3, (0, 1)) == (None, None, 0, 0)


def scan(g, chain, budgets, orders):
    # one kernel record and one dict record over the same alive sets
    global searches
    arena = solver._pack(g)
    records = (kernel.record(), {})
    for alive in chain:
        for budget in budgets:
            for players in orders:
                want = solver._find_dominion_mask_py(g, records[1], alive, budget, players)
                assert kernel.scan(arena, records[0], alive, budget, players) == want, (g.n, alive, budget, players)
                searches += 1


def nested(g, alive, rng):
    # alive, then ever smaller subsets of it, as the recursion makes them
    chain = []
    while alive:
        chain.append(alive)
        members = [v for v in range(g.n) if alive >> v & 1]
        alive &= ~sum(1 << v for v in rng.sample(members, len(members) // 5 + 1))
    return chain


for n in (1, 9, 63, 64, 65, 128, 129):
    rng = random.Random(n)
    successors = [[v] if v % 3 == 0 else rng.sample(range(n), min(n, 3)) for v in range(n)]
    g = ParityGame([rng.randrange(2) for _ in range(n)], [rng.randrange(2 * n) for _ in range(n)], successors)
    budgets = (-1, 0, 1, 3, n, n + 1, 2**70) if n <= 9 else (-1, 0, 1, 3)
    for alive in (g.full_mask, rng.randint(1, g.full_mask)):
        seeds = [v for v in range(n) if alive >> v & 1]
        check(g, alive, seeds, (0, 1), budgets)
        scan(g, nested(g, alive, rng), budgets, ((0, 1), (1, 0), (0, 0), ()))
    whole(g, (0, 1, 5))
for k in range(1, 6):
    whole(gen_core(k), (7, 100, 300))
whole(ParityGame([v % 2 for v in range(1500)], list(range(1500)), [[v, v - 1] if v else [v] for v in range(1500)]), (1000,))


def interrupt(signum, frame):
    raise KeyboardInterrupt


g = gen_core(15)
signal.signal(signal.SIGALRM, interrupt)
signal.setitimer(signal.ITIMER_REAL, 0.1)
try:
    kernel.solve(solver._pack(g), g.full_mask, False, None)
except KeyboardInterrupt:
    pass
else:
    raise AssertionError("a plain solve of gen_core(15) outran the timer")
n = 3000
g = ParityGame([0] * n, [0] * n, [[(v + 1) % n] for v in range(n)])
check(g, g.full_mask, [0], [0], [n, 2**70])
scan(g, nested(g, g.full_mask, rng), [n, 2**70], [(0,)])
# seed 0's entry first spans one word; with 2 and n - 1 alive too, its
# search reads n - 1, so the entry is overwritten over all W words, 3 W
# words in all, more than a chunk holds, and then replayed
n = 64 * 1400
g = ParityGame([0] * n, [0] * n, [[1], [2], [n - 1]] + [[2]] * (n - 3))
scan(g, [0b11, 0b111 | 1 << n - 1, 0b111 | 1 << n - 1], [5], [(1,)])
print(searches)
"""


def test_the_kernel_is_clean_under_address_sanitizer(tmp_path):
    # out-of-bounds reads and writes of the blocks a call allocates, the
    # frame stack at its bound included, abort the run; a block of the
    # kernel's still allocated at exit is reported as a leak from
    # ``_kernel.c``, whatever the interpreter itself leaves behind
    include = _python_include()
    libasan = subprocess.run(["gcc", "-print-file-name=libasan.so"], capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(libasan) or not os.path.isfile(libasan):
        pytest.skip("no libasan for gcc here")
    build = tmp_path / "kernel-asan.so"
    flags = ["-O1", "-g", "-fsanitize=address", "-fno-omit-frame-pointer", "-shared", "-fPIC", "-I" + include]
    source = Path(solver.__file__).with_name("_kernel.c")
    done = subprocess.run(["gcc", *flags, "-o", str(build), str(source)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    env = dict(
        os.environ,
        LD_PRELOAD=libasan,
        ASAN_OPTIONS="detect_leaks=1",
        LSAN_OPTIONS="exitcode=0",
        PYTHONPATH=str(Path(solver.__file__).parents[1]),
    )
    out = subprocess.run(
        [sys.executable, "-c", _SANITIZED_RUN, str(build)], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert "_kernel.c" not in out.stderr, out.stderr
    assert int(out.stdout) > 5000


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 150), st.integers(0, 10_000), st.integers(1, 8), st.data())
def test_kernel_matches_the_python_search(n, game_seed, budget, data):
    # every alive seed and both players, on alive sets that need not be
    # left-total, over masks that cross word boundaries; small games also
    # take the budgets that bound the kernel's frame stack from below and
    # above (a huge one makes ``_search_py`` exponential on big games)
    kernel = _compiled()
    g = gen_random(n, game_seed)
    alive = data.draw(st.integers(1, g.full_mask))
    budgets = (budget, -1, 0, 2**70) if n <= 9 else (budget,)
    for seed in range(n):
        if alive >> seed & 1:
            for p in (0, 1):
                for b in budgets:
                    _agree(kernel, g, alive, seed, p, b)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 129])
def test_kernel_matches_at_word_edges_with_huge_priorities(n):
    # priorities past 2**64 reach the kernel only as ranks and parities;
    # every third position's only move is a self-loop
    kernel = _compiled()
    rng = random.Random(n)
    owners = [rng.randrange(2) for _ in range(n)]
    priorities = [2**64 + rng.randrange(2 * n) for _ in range(n)]
    successors = [[v] if v % 3 == 0 else rng.sample(range(n), min(n, 3)) for v in range(n)]
    g = ParityGame(owners, priorities, successors)
    for alive in (g.full_mask, rng.randint(1, g.full_mask)):
        for seed in range(n):
            if alive >> seed & 1:
                for p in (0, 1):
                    for budget in (1, 3, 6):
                        _agree(kernel, g, alive, seed, p, budget)


def _agree_on_the_plain_step(kernel, g, alive, w_opps):
    # ``left`` from every valid cursor, then ``right`` on each w_opp for
    # both players, against their Python twins; when nothing joins, both
    # hand back the seed object they were given
    arena = g.packed or solver._pack(g)
    want = solver._left_mask(g, alive, 0)
    for lo in range(want[1] + 1):
        got = kernel.left(arena, alive, lo)
        assert got == want, (alive, lo)
        assert (got[3] is got[2]) == (got[3] == got[2])
    p, _, holders, a = got
    for w_opp in w_opps:
        for q in (p, 1 - p):
            b = kernel.right(arena, alive, holders, w_opp, q)
            assert b == solver._right_mask(g, alive, holders, w_opp, q), (alive, w_opp, q)
            assert (b is w_opp) == (b == w_opp)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 150), st.integers(0, 10_000), st.data())
def test_kernel_matches_the_python_plain_step(n, game_seed, data):
    # alive sets that need not be left-total, w_opp inside what the left
    # step leaves (as in the solver) and anywhere in alive
    kernel = _compiled()
    g = gen_random(n, game_seed)
    alive = data.draw(st.integers(1, g.full_mask))
    rest = alive & ~solver._left_mask(g, alive, 0)[3]
    w_opps = [rest, data.draw(st.integers(0, g.full_mask)) & rest, data.draw(st.integers(0, g.full_mask)) & alive]
    _agree_on_the_plain_step(kernel, g, alive, [w for w in w_opps if w])


@pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 129])
def test_kernel_plain_step_at_word_edges_with_huge_priorities(n):
    # priorities past 2**64 reach the kernel only as ranks and parities;
    # every third position's only move is a self-loop, and each alive set
    # is cut down by the left step's attractor, as the recursion does
    kernel = _compiled()
    rng = random.Random(n)
    owners = [rng.randrange(2) for _ in range(n)]
    priorities = [2**64 + rng.randrange(2 * n) for _ in range(n)]
    successors = [[v] if v % 3 == 0 else rng.sample(range(n), min(n, 3)) for v in range(n)]
    g = ParityGame(owners, priorities, successors)
    for alive in (g.full_mask, rng.randint(1, g.full_mask), g.full_mask & ~1, 1 << n - 1):
        while alive:
            a = solver._left_mask(g, alive, 0)[3]
            w_opps = [alive & ~a, rng.randint(0, g.full_mask) & alive, 1 << (alive.bit_length() - 1)]
            _agree_on_the_plain_step(kernel, g, alive, [w for w in w_opps if w])
            alive &= ~a


def test_the_plain_step_runs_in_the_kernel_when_it_loads(monkeypatch):
    # a solve takes both halves of its plain step from the kernel; with
    # the kernel set to None, from the Python twins, to the same answer
    _compiled()
    g = gen_core(3)
    calls = []
    for name in ("_left_mask", "_right_mask"):
        twin = getattr(solver, name)
        monkeypatch.setattr(solver, name, lambda *args, name=name, twin=twin: calls.append(name) or twin(*args))
    regions, stats = solve(Subgame.whole(g))
    assert calls == []
    monkeypatch.setattr(solver, "_kernel", None)
    again, python_stats = solve(Subgame.whole(g))
    assert again == regions and python_stats.total_calls == stats.total_calls
    assert calls.count("_left_mask") > calls.count("_right_mask") > 0


class _Counted:
    # the kernel, counting each call of its functions by name
    def __init__(self, kernel, calls):
        self._kernel, self._calls = kernel, calls

    def __getattr__(self, name):
        fn = getattr(self._kernel, name)
        return lambda *args: self._calls.append(name) or fn(*args)


@pytest.mark.parametrize("variant", ["plain", "memo"])
def test_a_plain_or_memo_solve_is_one_kernel_call(variant, monkeypatch):
    calls = []
    monkeypatch.setattr(solver, "_kernel", _Counted(_compiled(), calls))
    g = gen_core(3)
    regions, stats = solve(Subgame.whole(g), VARIANTS[variant])
    assert calls == ["solve"]
    assert regions.of(0).mask == g.full_mask
    assert _counters(stats)[:5] == _GRID["core k=3"][variant]


def _on_both_backends(sub, cfg):
    # (regions, or None when the call limit stopped it, and the six
    # counters) of the kernel's solve, then of the Python loop's
    out = []
    for kernel in (_compiled(), None):
        saved, solver._kernel = solver._kernel, kernel
        try:
            regions, stats = solve(sub, cfg)
        except CallLimitExceeded as stop:
            regions, stats = None, stop.stats
        finally:
            solver._kernel = saved
        out.append((regions, _counters(stats)))
    return out


def _agree_on_the_solve(g, alive, below):
    # plain and memo, in full and stopped at a limit ``below(total calls)``
    sub = Subgame(g, PositionSet(g, alive))
    for memo in (False, True):
        kernel, python = _on_both_backends(sub, SolverConfig(memoization=memo))
        assert kernel == python, (g.n, alive, memo)
        limit = below(python[1][0])
        kernel, python = _on_both_backends(sub, SolverConfig(memoization=memo, call_limit=limit))
        assert kernel == python and python[0] is None, (g.n, alive, memo, limit)


def _trap(g, alive, seed, p):
    # what is left of alive once p attracts seed: a subgame again
    return alive & ~core._attractor_mask(g, alive, seed & alive, p)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 150), st.integers(0, 10_000), st.data())
def test_kernel_solve_matches_the_python_loop(n, game_seed, data):
    g = gen_random(n, game_seed)
    alive = g.full_mask
    for _ in range(data.draw(st.integers(0, 2))):
        alive = _trap(g, alive, data.draw(st.integers(0, g.full_mask)), data.draw(st.integers(0, 1)))
    _agree_on_the_solve(g, alive, lambda total: data.draw(st.integers(0, total - 1)))


@pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 129])
def test_kernel_solve_at_word_edges_with_huge_priorities(n):
    # priorities past 2**64 reach the kernel only as ranks and parities;
    # every third position's only move is a self-loop
    rng = random.Random(n)
    owners = [rng.randrange(2) for _ in range(n)]
    priorities = [2**64 + rng.randrange(2 * n) for _ in range(n)]
    successors = [[v] if v % 3 == 0 else rng.sample(range(n), min(n, 3)) for v in range(n)]
    g = ParityGame(owners, priorities, successors)
    for alive in (g.full_mask, _trap(g, g.full_mask, rng.randint(1, g.full_mask), 0), _trap(g, g.full_mask, 1, 1)):
        _agree_on_the_solve(g, alive, rng.randrange)


class _Interrupted(Exception):
    pass


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no interval timer here")
@pytest.mark.parametrize("backend", ["python", "kernel"])
def test_a_long_solve_stays_interruptible(backend, monkeypatch):
    # a plain solve of gen_core(16) takes seconds on either backend; a
    # signal handler that raises stops it, and the next solve is whole
    _solve_on(backend, monkeypatch)
    g = gen_core(16)
    solve(Subgame(g, PositionSet(g, 0)))  # loads the kernel and packs the arena first

    def interrupt(signum, frame):
        raise _Interrupted

    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        with pytest.raises(_Interrupted):
            solve(Subgame.whole(g))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    g = gen_core(3)
    regions, stats = solve(Subgame.whole(g))
    assert regions.of(0).mask == g.full_mask
    assert _counters(stats)[:5] == _GRID["core k=3"]["plain"]


@pytest.mark.parametrize("n", [1, 3, 64, 70])
def test_kernel_rejects_alive_masks_outside_its_words(n):
    # in every kernel function a mask is W = ceil(n / 64) words: bits past
    # n inside them are cleared as the mask is read, so they are never
    # read as positions, and an int that does not fit is refused, not cut
    # off
    kernel = _compiled()
    g = gen_random(n, n)
    arena = g.packed or solver._pack(g)
    top = 2 ** (64 * ((n + 63) // 64))
    full = g.full_mask
    past = (top - 1) & ~full
    assert kernel.search(arena, top - 1, 0, 0, 2) == solver._search_py(g, full, 0, 0, 2)
    assert kernel.first_scc(arena, top - 1)[0] == core._closure(g.succ_masks, full, 1)
    p, _, holders, a = want = solver._left_mask(g, full, 0)
    assert kernel.left(arena, top - 1, 0) == want
    w_opp = full & ~a or full
    assert kernel.right(arena, top - 1, holders | past, w_opp, p) == solver._right_mask(g, full, holders, w_opp, p)
    if past:
        # only bits past n: nothing is alive (first_scc used to take such
        # a bit as its start position and read offsets past the arena)
        assert kernel.first_scc(arena, past) == (0, True)
        assert kernel.search(arena, past, 0, 0, 2) == solver._search_py(g, 0, 0, 0, 2)
        assert kernel.scan(arena, kernel.record(), past, 2, (0, 1)) == (None, None, 0, 0)
        with pytest.raises(ValueError, match="no position"):
            kernel.left(arena, past, 0)
        assert kernel.right(arena, past, past, past, 0) is past
    with pytest.raises(ValueError, match="cursor"):
        kernel.left(arena, full, -1)
    with pytest.raises(ValueError, match="player"):
        kernel.right(arena, full, 1, 1, 2)
    assert kernel.scan(arena, kernel.record(), top - 1, 2, (0, 1)) == kernel.scan(arena, kernel.record(), full, 2, (0, 1))
    for memo in (False, True):
        assert kernel.solve(arena, top - 1, memo, None) == kernel.solve(arena, full, memo, None)
        if past:
            assert kernel.solve(arena, past, memo, None) == (0, 1, 1, 0, 1, False)
    calls = (
        lambda mask: kernel.search(arena, mask, 0, 0, 1),
        lambda mask: kernel.scan(arena, kernel.record(), mask, 1, (0, 1)),
        lambda mask: kernel.first_scc(arena, mask),
        lambda mask: kernel.left(arena, mask, 0),
        lambda mask: kernel.right(arena, mask, 1, 1, 0),
        lambda mask: kernel.right(arena, full, mask, 1, 0),
        lambda mask: kernel.right(arena, full, 1, mask, 0),
        lambda mask: kernel.solve(arena, mask, True, None),
    )
    for call in calls:
        for mask in (-1, -top, top, top | 1, 2 * top):
            with pytest.raises(OverflowError):
                call(mask)
        for mask in (1.0, "1", None):
            with pytest.raises(TypeError):
                call(mask)


def test_kernel_scan_rejects_bad_arguments():
    # a player other than 0 or 1, a record that is not the kernel's or
    # was first used on an arena of another size, and a budget no key
    # holds; a budget past every int64 is keyed as n
    kernel = _compiled()
    g, other = gen_random(9, 9), gen_random(10, 10)
    arena = solver._pack(g)
    record = kernel.record()
    for players in ((2,), (0, -1), ("0",), (2**70,)):
        with pytest.raises((ValueError, OverflowError)):
            kernel.scan(arena, record, g.full_mask, 3, players)
    with pytest.raises(TypeError):
        kernel.scan(arena, record, g.full_mask, 3, 0)
    with pytest.raises(TypeError):
        kernel.scan(arena, {}, g.full_mask, 3, (0, 1))
    kernel.scan(arena, record, g.full_mask, 3, (0, 1))
    with pytest.raises(ValueError, match="another size"):
        kernel.scan(solver._pack(other), record, other.full_mask, 3, (0, 1))
    with pytest.raises(OverflowError):
        kernel.scan(arena, record, g.full_mask, -(2**70), (0, 1))
    assert kernel.scan(arena, record, g.full_mask, 2**70, (0, 1)) == kernel.scan(arena, kernel.record(), g.full_mask, 9, (0, 1))


def test_kernel_solve_rejects_bad_limits():
    # a negative limit or one that is not an int; None and a limit past
    # every int64 never bind
    kernel = _compiled()
    g = gen_core(2)
    arena = solver._pack(g)
    for limit in (-1, -(2**70)):
        with pytest.raises(ValueError, match="call limit"):
            kernel.solve(arena, g.full_mask, True, limit)
    for limit in (2.5, "3"):
        with pytest.raises(TypeError):
            kernel.solve(arena, g.full_mask, True, limit)
    full = kernel.solve(arena, g.full_mask, True, None)
    assert full == (g.full_mask, 42, 30, 12, 11, False)
    assert kernel.solve(arena, g.full_mask, True, 2**70) == full
    assert kernel.solve(arena, g.full_mask, True, 41) == (None, 42, 30, 11, 11, True)


def _arena(g):
    # ``_pack(g)`` decoded: n, m, then each of the arena's sections by
    # name; the level count L comes before the level lists
    packed = solver._pack(g)
    words = struct.unpack(f"={len(packed) // 4}i", packed)
    n, m = words[:2]
    sizes = [("off", n + 1), ("tgt", m), ("rank", n), ("par", n), ("own", n), ("poff", n + 1), ("ptgt", m)]
    sizes += [("L", 1), ("loff", None), ("lpos", n)]
    sections, at = {}, 2
    for name, size in sizes:
        size = sections["L"][0] + 1 if size is None else size
        sections[name] = words[at : at + size]
        at += size
    assert at == len(words)
    return n, m, sections


@pytest.mark.parametrize("n", [1, 7, 64, 65, 130])
def test_the_arena_holds_both_move_lists(n):
    g = gen_random(n, n)
    size, m, a = _arena(g)
    assert (size, m) == (n, sum(map(len, g.successors)))
    assert a["rank"] == g.level_of
    assert a["par"] == tuple(q & 1 for q in g.priorities)
    assert a["own"] == g.owners
    for v in range(n):
        assert a["tgt"][a["off"][v] : a["off"][v + 1]] == g.successors[v]
        preds = a["ptgt"][a["poff"][v] : a["poff"][v + 1]]
        assert len(preds) == len(set(preds)) and sum(1 << u for u in preds) == g.pred_masks[v]
    # and the positions of each priority level, ascending
    assert a["L"] == (len(g.priority_levels),)
    for i, (_, holders) in enumerate(g.priority_levels):
        assert a["lpos"][a["loff"][i] : a["loff"][i + 1]] == tuple(v for v in range(n) if holders >> v & 1)


def test_both_kernel_functions_reject_a_short_arena():
    # every entry that reads an arena, on one cut short or whose level
    # count L (the first int after the predecessor lists) disagrees with
    # its size
    kernel = _compiled()
    g = gen_random(9, 9)
    packed = g.packed or solver._pack(g)
    n, m, a = _arena(g)
    at = 4 * (2 + 2 * (n + 1) + 2 * m + 3 * n)
    bad = [packed[:-4], packed[:-1], packed[:at], packed + bytes(4)]
    bad += [packed[:at] + struct.pack("=i", L) + packed[at + 4 :] for L in (0, a["L"][0] + 1, n + 1, -1)]
    for arena in bad:
        for call in (
            lambda: kernel.search(arena, g.full_mask, 0, 0, 3),
            lambda: kernel.first_scc(arena, g.full_mask),
            lambda: kernel.left(arena, g.full_mask, 0),
            lambda: kernel.right(arena, g.full_mask, 1, 2, 0),
            lambda: kernel.scan(arena, kernel.record(), g.full_mask, 3, (0, 1)),
            lambda: kernel.solve(arena, g.full_mask, False, None),
        ):
            with pytest.raises(ValueError, match="^malformed packed arena$"):
                call()


def test_kernel_comments_name_only_what_exists():
    # every ``_name`` the kernel's comments and its method and module doc
    # strings cite is a solver or core attribute, so renaming a Python
    # twin fails here
    source = Path(solver.__file__).with_name("_kernel.c").read_text()
    comments = re.findall(r"/\*.*?\*/", source, re.S)
    tables = source[source.index("static PyMethodDef methods[]") :]
    docs = re.findall(r'"((?:[^"\\]|\\.)*)"', tables)
    assert any("solver._left_mask" in doc for doc in docs)
    cited = set(re.findall(r"\b_[a-z]\w*", " ".join(comments + docs)))
    assert cited
    missing = {name for name in cited if not hasattr(solver, name) and not hasattr(core, name)}
    assert missing == set()


_GRID = json.loads((Path(__file__).parent / "data" / "grid_counters.json").read_text())


@pytest.mark.parametrize("cell", list(_GRID))
def test_kernel_solves_the_grid_like_the_python_path(cell, monkeypatch):
    # all eight layer mixes: the same regions and every counter
    _compiled()
    family, k = cell.split(" k=")
    g = {"core": gen_core, "scc": gen_scc}[family](int(k))
    sub = Subgame.whole(g)

    def run(cfg):
        regions, stats = solve(sub, cfg)
        return regions, _counters(stats)

    mixes = [SolverConfig(*mix) for mix in itertools.product((False, True), repeat=3)]
    compiled = [run(cfg) for cfg in mixes]
    monkeypatch.setattr(solver, "_kernel", None)
    assert compiled == [run(cfg) for cfg in mixes]


def _count_builds(monkeypatch):
    # every compiler run: the build imports ``subprocess`` and calls its ``run``
    runs = []
    real = subprocess.run
    monkeypatch.setattr(subprocess, "run", lambda cmd, **kw: runs.append(cmd) or real(cmd, **kw))
    return runs


def test_without_a_compiler_the_python_search_runs(monkeypatch, tmp_path):
    # the first solve tries the build, then plain steps, SCC checks and
    # dominion scans follow: one build attempt serves every kernel
    # function
    cache = tmp_path / "cache"
    monkeypatch.setenv("PATH", str(tmp_path / "no-gcc-here"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    monkeypatch.setattr(solver, "_kernel", False)
    builds = _count_builds(monkeypatch)
    for variant in ("memo+scc", "memo+scc+dom"):
        for k in (1, 2, 3):
            g = gen_scc(k)
            regions, s = solve(Subgame.whole(g), VARIANTS[variant])
            assert regions.of(0).mask == g.full_mask
            counters = [s.total_calls, s.distinct_subgames, s.memo_hits, s.max_depth, s.dominion_probes]
            assert counters == _GRID[f"scc k={k}"][variant]
            assert len(builds) == 1 and solver._kernel is None
    # the failed build takes away both directories it made
    assert not cache.exists()


def test_the_build_is_cached_per_source(monkeypatch, tmp_path):
    # a build of another source, as another checkout sharing the cache
    # leaves it, stays beside the new one
    _compiled()
    cache = tmp_path / "paritylab"
    cache.mkdir()
    other = cache / "_kernel-0000.so"
    other.write_bytes(b"")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(solver, "_kernel", False)
    builds = _count_builds(monkeypatch)
    assert solver._load_kernel() is not None
    built = sorted(f.name for f in cache.iterdir())
    assert len(builds) == 1 and len(built) == 2 and other.name in built
    assert all(name.startswith("_kernel-") for name in built)
    monkeypatch.setattr(solver, "_kernel", False)
    assert solver._load_kernel() is not None
    assert len(builds) == 1
    assert sorted(f.name for f in cache.iterdir()) == built


def _fresh(code, cache):
    env = dict(os.environ, XDG_CACHE_HOME=str(cache), PYTHONPATH=str(Path(solver.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0 and out.stderr == "", out.stderr
    return out.stdout.split()


def test_import_builds_and_loads_nothing(tmp_path):
    code = "import sys, paritylab; print(paritylab.solver._kernel is False, 'paritylab._kernel' in sys.modules)"
    assert _fresh(code, tmp_path) == ["True", "False"]
    assert list(tmp_path.iterdir()) == []


def test_loading_the_kernel_imports_no_ctypes_or_hashlib(tmp_path):
    _compiled()
    code = (
        "import sys, paritylab as pl; pl.solve(pl.Subgame.whole(pl.gen_scc(1)), pl.VARIANTS['memo+scc+dom']); "
        "print(pl.solver._kernel is not None, *(m in sys.modules for m in ('ctypes', 'hashlib')))"
    )
    _fresh(code, tmp_path)  # builds
    assert _fresh(code, tmp_path) == ["True", "False", "False"]
