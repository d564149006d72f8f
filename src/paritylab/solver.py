"""The recursive attractor-based solver and its optional enhancements.

The baseline procedure is the classic divide-and-conquer one: remove the
attractor of the maximal-priority positions, solve the rest, and either
conclude directly or cut the opponent's winning part and recurse once
more.  Three independently switchable layers wrap it:

* memoization caches the winning partition of every alive set solved
  within one top-level call;
* SCC decomposition splits the current subgame into strongly connected
  components at every entry and solves terminal components first; the
  first component comes from two of core's ``_closure`` reachability
  sweeps, with Tarjan only as a fallback;
* dominion decomposition brute-force searches each entered subgame of
  ``n`` positions for a dominion of at most ⌈√n⌉ positions before doing
  anything else.  Each completed candidate is certified by core's
  cycle-parity rule, ``_cycle_heads``.  A search reads the alive set
  only at the successors of the positions it visits, so one solve
  keeps, per seed, player and size bound, the last search it ran and
  replays it (its result, plus its probes on the counter) when the
  alive set has not changed there.  ``is_dominion`` certifies a given
  candidate: a trap for the opponent under core's one-step forcing rule
  that a plain solve of it gives to the player.

None of the layers ever changes the returned regions, only the shape and
amount of work, which the returned ``SolveStats`` makes observable.

Everything here is mask-based: the recursion carries plain integers and
only converts to ``PositionSet`` at the public boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from time import perf_counter
from typing import Generator, Optional

from .core import (
    EmptyGame,
    GameError,
    ParityGame,
    Player,
    PositionSet,
    Regions,
    Subgame,
    _attractor_mask,
    _closure,
    _cycle_heads,
    _max_priority_mask,
    _predecessor_mask,
    _require_inside,
    attractor,
    max_priority,
    remove,
)


class CallLimitExceeded(GameError):
    """The configured cap on recursive calls was hit.

    Carries the counters gathered so far in ``stats``.
    """

    def __init__(self, limit: int, stats: "SolveStats") -> None:
        super().__init__(f"solver exceeded the call limit of {limit}")
        self.limit = limit
        self.stats = stats


def default_dominion_bound(n: int) -> int:
    """Ceiling of the square root, the usual preprocessing search bound."""
    return isqrt(n - 1) + 1 if n >= 1 else 1


@dataclass(frozen=True)
class SolverConfig:
    """Which enhancement layers to enable, and an optional cap on calls.

    The dominion preprocessing searches every entered subgame of ``n``
    positions for a dominion of at most ``default_dominion_bound(n)``
    positions.
    """

    memoization: bool = False
    scc_decomposition: bool = False
    dominion_decomposition: bool = False
    call_limit: Optional[int] = None


@dataclass
class SolveStats:
    """Instrumentation counters for one top-level solve.

    ``dominion_probes`` counts the search states the dominion layer
    examined, replayed searches included; ``dominion_replays`` counts the
    searches (one per seed and player) answered from the solve's record
    of earlier searches instead of run again.
    """

    total_calls: int = 0
    distinct_subgames: int = 0
    memo_hits: int = 0
    max_depth: int = 0
    dominion_probes: int = 0
    dominion_replays: int = 0
    wall_time: float = 0.0


# ---------------------------------------------------------------------------
# single steps, exposed for the structural checks in the analyzer


def left_step(g: Subgame) -> tuple[Subgame, Player, PositionSet]:
    """Remove the attractor of the maximal-priority positions.

    Returns the remaining subgame, the player attracting (the parity of
    the maximal priority) and the removed set.
    """
    pr, holders = max_priority(g)
    p = Player(pr & 1)
    removed = attractor(g, holders, p)
    return remove(g, removed), p, removed


def right_step(g: Subgame, w_opp: PositionSet, opp: Player | int) -> Subgame:
    """Remove the opponent's attractor of their already-won part."""
    return remove(g, attractor(g, w_opp, opp))


# ---------------------------------------------------------------------------
# strongly connected components (iterative Tarjan on masks)


def _scc_masks(game: ParityGame, alive: int) -> list[int]:
    # Iterative Tarjan on masks.  Emission order is reverse topological:
    # every component only reaches components emitted before it, so the
    # first one is terminal.
    succ_masks = game.succ_masks
    n = game.n
    index = [0] * n
    low = [0] * n
    on = bytearray(n)
    stack: list[int] = []
    comps: list[int] = []
    counter = 1
    wv: list[int] = []  # DFS node stack
    wm: list[int] = []  # unexplored-successor masks, parallel to wv
    roots = alive
    while roots:
        rl = roots & -roots
        roots ^= rl
        root = rl.bit_length() - 1
        if index[root]:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on[root] = 1
        wv.append(root)
        wm.append(succ_masks[root] & alive)
        while wv:
            v = wv[-1]
            m = wm[-1]
            lv = low[v]
            descended = False
            while m:
                sl = m & -m
                m ^= sl
                s = sl.bit_length() - 1
                si = index[s]
                if not si:
                    wm[-1] = m
                    low[v] = lv
                    index[s] = low[s] = counter
                    counter += 1
                    stack.append(s)
                    on[s] = 1
                    wv.append(s)
                    wm.append(succ_masks[s] & alive)
                    descended = True
                    break
                if si < lv and on[s]:
                    lv = si
            if descended:
                continue
            low[v] = lv
            wv.pop()
            wm.pop()
            if wv:
                u = wv[-1]
                if lv < low[u]:
                    low[u] = lv
            if lv == index[v]:
                mcomp = 0
                while True:
                    w = stack.pop()
                    on[w] = 0
                    mcomp |= 1 << w
                    if w == v:
                        break
                comps.append(mcomp)
    return comps


def _first_scc(game: ParityGame, alive: int) -> int:
    # ``_scc_masks(game, alive)[0]``, mostly without running Tarjan.
    # Tarjan's first DFS tree starts at the lowest alive position r and
    # covers exactly its forward closure F, so the first component
    # emitted lies in F and is found by Tarjan on F alone (F is closed
    # under alive moves).  When every position of F reaches r, F is that
    # component.
    r = alive & -alive
    f = _closure(game.succ_masks, alive, r)
    if _closure(game.pred_masks, f, r) == f:
        return f
    return _scc_masks(game, f)[0]


def scc_split(g: Subgame) -> list[PositionSet]:
    """Strongly connected components of the alive part, terminal first.

    The emitted order is reverse topological, so the first component has
    no moves into any other and can be solved as a standalone game.
    """
    return [PositionSet(g.game, m) for m in _scc_masks(g.game, g.alive.mask)]


# ---------------------------------------------------------------------------
# bounded dominion search
#
# A candidate grows as a closure: positions of the searched player pick
# one successor each (a branch point), opponent positions pull in all
# their alive successors.  A completed closure is certified exactly by
# core's cycle rule (no cycle of the chosen-move graph has a maximum of
# the opponent's parity), so anything returned really is a dominion; the
# search is complete because the closure following a winning strategy
# never trips a prune.


class _Search:
    # what the probes of one search share; ``touched`` grows as they run
    __slots__ = (
        "game", "alive", "p", "budget", "forbidden", "opp_mask", "edge", "stats", "touched",
    )

    def __init__(
        self, game: ParityGame, alive: int, seed: int, p: int, budget: int, stats: SolveStats
    ) -> None:
        self.game = game
        self.alive = alive
        self.p = p
        self.budget = budget
        self.forbidden = (1 << seed) - 1
        self.opp_mask = game.owner_masks[1 - p] & alive
        self.edge: dict[int, int] = {}
        self.stats = stats
        self.touched = 1 << seed


def _bad_edge(prs: tuple[int, ...], p: int, edge: dict[int, int], u: int, targets: int) -> bool:
    # a cycle already present in the partial graph can never go away
    if targets >> u & 1 and prs[u] & 1 != p:
        return True
    t = targets
    while t:
        low = t & -t
        s = low.bit_length() - 1
        if edge.get(s, 0) >> u & 1:
            m = prs[u] if prs[u] >= prs[s] else prs[s]
            if m & 1 != p:
                return True
        t ^= low
    return False


def _grow(st: _Search, members: int, processed: int, committed: int) -> Optional[int]:
    # one probe: force every opponent member, then branch on the lowest
    # unprocessed member, which belongs to the searched player
    st.stats.dominion_probes += 1
    game = st.game
    prs = game.priorities
    succ_masks = game.succ_masks
    alive = st.alive
    p = st.p
    budget = st.budget
    forbidden = st.forbidden
    opp_mask = st.opp_mask
    edge = st.edge
    touched = 0
    found = None
    mine: list[int] = []
    viable = True
    while viable:
        forced = members & ~processed & opp_mask
        if not forced:
            break
        low = forced & -forced
        u = low.bit_length() - 1
        sm = succ_masks[u]
        touched |= sm
        t = sm & alive
        if t & forbidden or _bad_edge(prs, p, edge, u, t):
            viable = False
            break
        fresh = t & ~members
        members |= t
        processed |= low
        edge[u] = t
        mine.append(u)
        committed |= t
        nb = fresh & opp_mask
        while nb:
            l2 = nb & -nb
            sm = succ_masks[l2.bit_length() - 1]
            touched |= sm
            committed |= sm & alive
            nb ^= l2
        if committed & forbidden or committed.bit_count() > budget:
            viable = False
    if viable:
        unproc = members & ~processed
        if not unproc:
            if not _cycle_heads(prs, edge, members, 1 - p):
                found = members
        else:
            low = unproc & -unproc
            u = low.bit_length() - 1
            touched |= succ_masks[u]
            nproc = processed | low
            pu = prs[u]
            u_loop_ok = pu & 1 == p
            for s in game.successors[u]:
                t = 1 << s
                if not alive & t or t & forbidden:
                    continue
                if s == u:
                    if not u_loop_ok:
                        continue
                elif edge.get(s, 0) >> u & 1:
                    m = pu if pu >= prs[s] else prs[s]
                    if m & 1 != p:
                        continue
                ncom = committed | t
                if t & ~members and t & opp_mask:
                    sm = succ_masks[s]
                    touched |= sm
                    ncom |= sm & alive
                if ncom & forbidden or ncom.bit_count() > budget:
                    continue
                edge[u] = t
                found = _grow(st, members | t, nproc, ncom)
                del edge[u]
                if found is not None:
                    break
    for x in mine:
        del edge[x]
    st.touched |= touched
    return found


def _search(
    game: ParityGame,
    alive: int,
    seed: int,
    p: int,
    budget: int,
    stats: SolveStats,
) -> tuple[Optional[int], int]:
    """First closure of size <= budget whose minimum member is ``seed``,
    and the search's ``touched`` mask.

    Restricting each seed to sets it is the minimum of partitions the
    candidate space, so enumerating seeds in ascending order never
    revisits a candidate.  The search is depth-first in successor-list
    order, branching only at positions of player ``p``; opponent
    positions pull in all their alive successors at once.  ``committed``
    tracks members plus everything opponent members will force in later,
    which cuts oversized branches before they unfold.

    ``touched`` is the seed bit plus the successor masks of every
    position whose alive successors the search read.  Every bit of
    ``alive`` the search reads lies in ``touched``, so its result and
    probe count are fixed by ``(seed, p, budget)`` and ``alive & touched``.
    """
    st = _Search(game, alive, seed, p, budget, stats)
    committed = 1 << seed
    if committed & st.opp_mask:
        sm = game.succ_masks[seed]
        st.touched |= sm
        committed |= sm & alive
        if committed & st.forbidden or committed.bit_count() > budget:
            return None, st.touched
    found = _grow(st, 1 << seed, 0, committed)
    return found, st.touched


def _search_dominion(
    game: ParityGame,
    alive: int,
    seed: int,
    p: int,
    budget: int,
    stats: SolveStats,
) -> Optional[int]:
    """The closure ``_search`` finds, without its ``touched`` mask."""
    return _search(game, alive, seed, p, budget, stats)[0]


def _find_dominion_mask(
    game: ParityGame,
    alive: int,
    max_size: int,
    players: tuple[int, ...],
    stats: SolveStats,
    record: dict[int, tuple[int, int, Optional[int], int]],
) -> Optional[tuple[int, int]]:
    # ``record`` maps (seed, p, budget), packed into one int, to the last
    # search run for it: (touched, alive & touched, result, probes).
    # When this scan's alive set agrees with that one on ``touched``, the
    # search would repeat step for step, so its result is reused and its
    # probes are added.  A fresh ``{}`` makes every search run.
    base = max_size * game.n
    m = alive
    while m:
        low = m & -m
        seed = low.bit_length() - 1
        for p in players:
            key = (base + seed) << 1 | p
            entry = record.get(key)
            if entry is not None and alive & entry[0] == entry[1]:
                res = entry[2]
                stats.dominion_probes += entry[3]
                stats.dominion_replays += 1
            else:
                before = stats.dominion_probes
                res, touched = _search(game, alive, seed, p, max_size, stats)
                record[key] = (touched, alive & touched, res, stats.dominion_probes - before)
            if res is not None:
                return res, p
        m ^= low
    return None


def find_dominion(
    g: Subgame,
    max_size: int,
    stats: Optional[SolveStats] = None,
    players: tuple[int, ...] = (0, 1),
) -> Optional[tuple[PositionSet, Player]]:
    """Search for a dominion of at most ``max_size`` positions.

    Candidates are enumerated deterministically (seed position ascending,
    then player order as given); the first certified one is returned.
    ``stats.dominion_probes`` counts the examined search states.
    """
    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    if stats is None:
        stats = SolveStats()
    found = _find_dominion_mask(g.game, g.alive.mask, max_size, players, stats, {})
    if found is None:
        return None
    d, p = found
    return PositionSet(g.game, d), Player(p)


def is_dominion(g: Subgame, d: PositionSet, p: Player | int) -> bool:
    """Whether ``d`` is a dominion for player ``p`` inside ``g``.

    Two conditions: ``d`` is a trap for the opponent that ``p`` can stay
    in, that is every position of ``d`` lies in ``p``'s one-step forcing
    set of ``d`` (an opponent position has every alive move in ``d``, a
    ``p`` position some), and ``p`` wins the whole subgame induced by
    ``d``.
    """
    _require_inside(g, d, "candidate dominion")
    if not d:
        raise EmptyGame("a dominion must be non-empty")
    p = int(p)
    game = g.game
    dm = d.mask
    if dm & ~_predecessor_mask(game, g.alive.mask, dm, p):
        return False
    regions, _ = solve(Subgame(game, d))
    return regions.of(p).mask == dm


# ---------------------------------------------------------------------------
# the solver proper


def solve(g: Subgame, cfg: SolverConfig = SolverConfig()) -> tuple[Regions, SolveStats]:
    """Winning regions of ``g`` plus instrumentation counters.

    The answer does not depend on ``cfg``; the counters do.  Raises
    ``CallLimitExceeded`` (carrying the partial stats) when
    ``cfg.call_limit`` is hit.

    The recursion runs on an explicit stack, so its depth is bounded by
    memory rather than by the interpreter's recursion limit: each call is
    a generator that yields the alive mask of every child it needs and is
    sent back the child's ``(w0, w1)`` masks.
    """
    game = g.game
    stats = SolveStats()
    memo = cfg.memoization
    # every entered alive mask; with memoization, mapped to its (w0, w1)
    # once solved.  A running call's entry is still None, but no call
    # meets it again: every child is strictly smaller than its parent.
    seen: dict[int, Optional[tuple[int, int]]] = {}
    limit = cfg.call_limit
    dom_on = cfg.dominion_decomposition
    scc_on = cfg.scc_decomposition
    # the dominion searches already run, for replaying (see _find_dominion_mask)
    record: dict[int, tuple[int, int, Optional[int], int]] = {}

    def call(alive: int) -> Generator[int, tuple[int, int], tuple[int, int]]:
        # one call on a non-empty alive set
        if dom_on:
            bound = default_dominion_bound(alive.bit_count())
            found = _find_dominion_mask(game, alive, bound, (0, 1), stats, record)
            if found is not None:
                d, p = found
                a = _attractor_mask(game, alive, d, p)
                r0, r1 = yield alive & ~a
                return (r0 | a, r1) if p == 0 else (r0, r1 | a)
        if scc_on:
            comp = _first_scc(game, alive)
            if comp != alive:
                # solve a terminal component, attract both of its regions
                # within what is left, and repeat on the rest
                rem = alive
                w0 = w1 = 0
                while True:
                    c0, c1 = yield comp
                    a0 = _attractor_mask(game, rem, c0, 0) if c0 else 0
                    rem &= ~a0
                    a1 = _attractor_mask(game, rem, c1, 1) if c1 else 0
                    rem &= ~a1
                    w0 |= a0
                    w1 |= a1
                    if not rem:
                        return w0, w1
                    comp = _first_scc(game, rem)
        pr, holders = _max_priority_mask(game, alive)
        p = pr & 1
        a = _attractor_mask(game, alive, holders, p)
        l0, l1 = yield alive & ~a
        w_opp = l1 if p == 0 else l0
        b = _attractor_mask(game, alive, w_opp, 1 - p) if w_opp else 0
        if b == w_opp:
            wp = alive & ~w_opp
            return (wp, w_opp) if p == 0 else (w_opp, wp)
        r0, r1 = yield alive & ~b
        wp = r0 if p == 0 else r1
        return (wp, alive & ~wp) if p == 0 else (alive & ~wp, wp)

    frames: list[Generator[int, tuple[int, int], tuple[int, int]]] = []
    masks: list[int] = []  # alive mask of each frame
    child = g.alive.mask
    t0 = perf_counter()
    try:
        while True:
            # enter a call on ``child``, one level below the top frame
            stats.total_calls += 1
            if len(frames) >= stats.max_depth:
                stats.max_depth = len(frames) + 1
            if limit is not None and stats.total_calls > limit:
                raise CallLimitExceeded(limit, stats)
            result = seen.setdefault(child)
            if result is not None:
                stats.memo_hits += 1
            elif child:
                frames.append(call(child))
                masks.append(child)
            else:
                result = (0, 0)
                if memo:
                    seen[0] = result
            # run the top frame until it asks for a child, handing each
            # finished call's result to the frame below
            while frames:
                try:
                    child = frames[-1].send(result)
                    break
                except StopIteration as done:
                    frames.pop()
                    result = done.value
                    done_mask = masks.pop()
                    if memo:
                        seen[done_mask] = result
            else:
                break
    finally:
        stats.distinct_subgames = len(seen)
        stats.wall_time = perf_counter() - t0
    w0, w1 = result
    return Regions(PositionSet(game, w0), PositionSet(game, w1)), stats
