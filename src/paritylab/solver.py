"""The recursive attractor-based solver and its optional enhancements.

The baseline procedure is the classic divide-and-conquer one: remove the
attractor of the maximal-priority positions, solve the rest, and either
conclude directly or cut the opponent's winning part and recurse once
more.  Each half of that plain step is one call: the max-priority lookup
with its attractor, ``_left_mask``, and the opponent's attractor,
``_right_mask``.  Three independently switchable layers wrap it:

* memoization caches the winning partition of every alive set solved
  within one top-level call;
* SCC decomposition splits the current subgame into strongly connected
  components at every entry and solves terminal components first; the
  first component, ``_first_scc_py``, comes from two reachability
  sweeps, with a lowlink-free depth-first search, ``_scc_masks``, only
  when they do not close it;
* dominion decomposition brute-force searches each entered subgame of
  ``n`` positions for a dominion of at most ⌈√n⌉ positions before doing
  anything else.  The search keeps its branch points on an explicit
  list, so its depth is bounded by memory, and every probe starts from
  the invariant stated in the bounded-search comment block.  Each
  completed candidate is certified by core's cycle-parity rule,
  ``_cycle_heads``, which stops at the first bad cycle.  One solve
  keeps, per seed, player and size bound, the last search it ran and
  replays it (its result, plus its probes on the counter) when the
  alive set has not changed on that search's ``touched`` mask: the scan
  and replay loop is ``_find_dominion_mask_py``, one search
  ``_search_py``.
  ``is_dominion`` certifies a given candidate: a trap for the
  opponent under core's one-step forcing rule that a plain solve of it
  gives to the player.

Where the system gcc can build it, a compiled kernel (``_kernel.c``)
runs ``_left_mask``, ``_right_mask``, ``_first_scc_py``, ``_search_py``
and ``_find_dominion_mask_py``, and the whole recursion, every layer
included, in one call per solve for every mix but ``scc`` and
``memo+scc``, which run ``solve``'s own loop on the compiled steps.
Each of those Python functions, and that loop, is its compiled twin's
reference and fallback, and each function keeps its twin's contract:
the same arguments, with the game in place of the packed arena, and the
same return values.  ``solve`` chooses the backend once per solve.

None of the layers ever changes the returned regions, only the shape and
amount of work, which the returned ``SolveStats`` makes observable.

Everything here is mask-based: the recursion carries plain integers and
only converts to ``PositionSet`` at the public boundary.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from itertools import accumulate, chain
from math import isqrt
from time import perf_counter
from typing import Generator, Iterator, Optional, Sequence

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

    def __post_init__(self) -> None:
        limit = self.call_limit
        if limit is not None and (not isinstance(limit, int) or isinstance(limit, bool)):
            raise TypeError(f"call_limit must be an int or None, got {limit!r}")
        if limit is not None and limit < 0:
            raise ValueError(f"call_limit must not be negative, got {limit}")


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
# strongly connected components (depth-first search without lowlinks)


def _scc_masks(game: ParityGame, alive: int) -> list[int]:
    # Depth-first search from the lowest alive position, successors in
    # ascending order.  When v finishes, S = seen & alive & ~before is what
    # the search found since entering v, minus the components emitted.  If
    # v is the first position of its component C, Tarjan's stack above v is
    # C, so S = C, and every move out of C goes to an emitted component, no
    # longer alive.  If not, C holds an open ancestor of v outside S that v
    # reaches inside C, so some move leaves S.  So "no move leaves S" is
    # Tarjan's low[v] == index[v], and components come out in Tarjan's
    # order: reverse topological, the first one terminal.
    succ_masks = game.succ_masks
    comps: list[int] = []
    seen = 0
    path: list[tuple[int, int, int]] = []  # (before, moves, unexplored successors) of each ancestor
    while alive:
        v = alive & -alive
        before = seen
        seen |= v
        moves = succs = succ_masks[v.bit_length() - 1] & alive
        while True:
            succs &= ~seen
            if succs:
                s = succs & -succs
                path.append((before, moves, succs ^ s))
                before = seen
                seen |= s
                moves = succs = succ_masks[s.bit_length() - 1] & alive
                continue
            comp = seen & alive & ~before
            out = moves & alive & ~comp
            if not out:
                comps.append(comp)
                alive ^= comp
            if not path:
                break
            before, moves, succs = path.pop()
            moves |= out
    return comps


def _first_scc_py(game: ParityGame, alive: int) -> int:
    # the kernel's ``first_scc``: the first component ``_scc_masks(game,
    # alive)`` emits.  Its first tree starts at the lowest alive position
    # r and covers exactly r's forward closure F, so the component lies in
    # F and is ``_scc_masks(game, F)[0]`` (F is closed under alive moves);
    # when every position of F reaches r inside F, it is F itself
    r = alive & -alive
    f = _closure(game.succ_masks, alive, r)
    return f if _closure(game.pred_masks, f, r) == f else _scc_masks(game, f)[0]


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
#
# Invariant at the start of every probe: ``committed`` holds the members
# plus the alive successors of every opponent member, ``touched``
# already holds those successors' masks, and ``committed`` has no
# forbidden position (below the seed) and fits the budget.  So forcing
# an opponent member adds nothing to ``committed`` or ``touched`` but
# the successors of the opponent members it pulls in.
#
# Each search, compiled or not, keeps one chosen-move table: a forced
# position's every alive successor, a branch position's one successor
# tried.  An entry is valid only on the current probe's processed
# positions, and only those are read.  A probe writes entries only of
# positions it has not processed, so going back up undoes nothing.


def _bad_targets(prs: tuple[int, ...], p: int, edge: dict[int, int], processed: int, u: int, targets: int) -> int:
    # the targets whose edge from ``u``, not processed yet, closes a cycle
    # of the opponent's parity in the partial graph, a self-loop on ``u``
    # or a 2-cycle with a processed target's chosen edge; such a cycle can
    # never go away
    bad = targets & 1 << u if prs[u] & 1 != p else 0
    t = targets & processed
    while t:
        low = t & -t
        s = low.bit_length() - 1
        if edge[s] >> u & 1:
            m = prs[u] if prs[u] >= prs[s] else prs[s]
            if m & 1 != p:
                bad |= low
        t ^= low
    return bad


def _search_py(game: ParityGame, alive: int, seed: int, p: int, budget: int) -> tuple[Optional[int], int, int]:
    """First closure of size <= budget whose minimum member is ``seed``,
    the search's ``touched`` mask and its probe count.

    Restricting each seed to sets it is the minimum of partitions the
    candidate space, so enumerating seeds in ascending order never
    revisits a candidate.  The search is depth-first in successor-list
    order, branching only at positions of player ``p``; opponent
    positions pull in all their alive successors at once.

    ``touched`` is the seed bit plus the successor masks of every
    position whose alive successors the search read.  Every bit of
    ``alive`` the search reads lies in ``touched``, so its result and
    probe count are fixed by ``(seed, p, budget)`` and ``alive & touched``.
    """
    prs = game.priorities
    succ_masks = game.succ_masks
    forbidden = (1 << seed) - 1
    opp_mask = game.owner_masks[1 - p] & alive
    touched = members = committed = 1 << seed
    if members & opp_mask:
        sm = succ_masks[seed]
        touched |= sm
        committed |= sm & alive
        if committed & forbidden or committed.bit_count() > budget:
            return None, touched, 0
    probes = 0
    edge: dict[int, int] = {}  # the chosen-move table
    # the branch points on the current path, each with its position, its
    # successors not yet tried, the mask of allowed ones, and its probe's
    # members, processed positions (itself included) and committed
    # positions
    path: list[tuple[int, Iterator[int], int, int, int, int]] = []
    probe: Optional[tuple[int, int, int]] = (members, 0, committed)
    while probe:
        # one probe: force every opponent member, then branch on the
        # lowest unprocessed member, which belongs to the searched player
        members, processed, committed = probe
        probes += 1
        while forced := members & ~processed & opp_mask:
            low = forced & -forced
            u = low.bit_length() - 1
            t = succ_masks[u] & alive
            if _bad_targets(prs, p, edge, processed, u, t):
                break
            fresh = t & ~members
            members |= t
            processed |= low
            edge[u] = t
            nb = fresh & opp_mask
            while nb:
                l2 = nb & -nb
                sm = succ_masks[l2.bit_length() - 1]
                touched |= sm
                committed |= sm & alive
                nb ^= l2
            if committed & forbidden or committed.bit_count() > budget:
                break
        else:
            unproc = members & ~processed
            if not unproc:
                if not any(_cycle_heads(prs, edge, members, 1 - p)):
                    return members, touched, probes
            else:
                low = unproc & -unproc
                u = low.bit_length() - 1
                touched |= succ_masks[u]
                ok = succ_masks[u] & alive & ~forbidden
                ok &= ~_bad_targets(prs, p, edge, processed, u, ok)
                path.append((u, iter(game.successors[u]), ok, members, processed | low, committed))
        # the next child of the deepest branch point that has one left
        probe = None
        while path and not probe:
            u, succs, ok, members, processed, committed = path[-1]
            for s in succs:
                t = 1 << s
                if not ok & t:
                    continue
                ncom = committed | t
                if t & ~members and t & opp_mask:
                    sm = succ_masks[s]
                    touched |= sm
                    ncom |= sm & alive
                if ncom & forbidden or ncom.bit_count() > budget:
                    continue
                probe = members | t, processed, ncom
                edge[u] = t
                break
            else:
                path.pop()
    return None, touched, probes


# ---------------------------------------------------------------------------
# the compiled kernel
#
# ``_kernel.c`` runs ``_left_mask``, ``_right_mask``, ``_first_scc_py``
# (its ``_scc_masks`` fallback too), ``_search_py``,
# ``_find_dominion_mask_py`` on a record it owns, and the whole of
# ``solve``'s loop with its seen table, memo and dominion record, every
# layer's step included, all on W-word bitsets.  Each compiled function
# takes its twin's arguments, the packed arena in place of the game, and
# returns its twin's values, so a caller picks a backend by picking the
# function: ``solve`` picks once, for every step of one solve,
# ``_search_dominion`` by whether the kernel loads, and
# ``_find_dominion_mask`` by the record it is handed.
# The kernel is built with the system gcc on the first solve of a
# process, never at import, and cached under $XDG_CACHE_HOME/paritylab
# (~/.cache/paritylab) as ``_kernel-<sha256 of the source><extension
# suffix>``.  ``_kernel`` is False until that first use, then the loaded
# module, or None when the build or the load failed: one attempt per
# process, and the Python functions run from then on.  Tests set it to
# None to force the Python path.

_kernel: object = False


def _load_kernel() -> object:
    global _kernel
    _kernel = None
    try:
        _kernel = _kernel_module()
    except (OSError, ImportError):
        pass
    return _kernel


def _kernel_module() -> object:
    from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, ModuleSpec

    try:
        from _sha2 import sha256
    except ImportError:  # before Python 3.12
        from _sha256 import sha256

    source = os.path.join(os.path.dirname(__file__), "_kernel.c")
    with open(source, "rb") as fh:
        digest = sha256(fh.read()).hexdigest()
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "paritylab")
    path = os.path.join(cache, f"_kernel-{digest}{EXTENSION_SUFFIXES[0]}")
    if not os.path.exists(path):
        _build_kernel(source, path)
    loader = ExtensionFileLoader("paritylab._kernel", path)
    module = loader.create_module(ModuleSpec("paritylab._kernel", loader, origin=path))
    loader.exec_module(module)
    return module


def _build_kernel(source: str, path: str) -> None:
    # compile into a temporary file beside ``path`` and move it into place;
    # builds of other sources stay, since another checkout sharing the
    # cache may load them.  A failed build takes away the directories it
    # made, innermost first
    import subprocess
    import sysconfig
    import tempfile
    from contextlib import suppress

    cache = os.path.dirname(os.path.abspath(path))
    made = []
    missing = cache
    while not os.path.isdir(missing):
        made.append(missing)
        missing = os.path.dirname(missing)
    try:
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".build-", dir=cache)
        os.close(fd)
        try:
            cmd = ["gcc", "-O2", "-shared", "-fPIC", "-I" + sysconfig.get_paths()["include"], "-o", tmp, source]
            done = subprocess.run(cmd, capture_output=True)
            if done.returncode:
                raise OSError(f"gcc exited with {done.returncode}: {done.stderr.decode(errors='replace').strip()}")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except BaseException:
        for directory in made:
            with suppress(OSError):  # not empty: another process built into it
                os.rmdir(directory)
        raise


def _pack(game: ParityGame) -> bytes:
    # the arena the kernel reads, native int32s kept in the game's
    # ``packed`` slot: n, the move count, the successor lists in game
    # order as offsets and targets, ``level_of`` ranks, priority
    # parities, owners, then the predecessor lists the same way, and
    # last the level count and each level's positions the same way
    def csr(rows: Sequence[Sequence[int]]) -> list[int]:
        return [*accumulate(map(len, rows), initial=0), *chain.from_iterable(rows)]

    preds: list[list[int]] = [[] for _ in range(game.n)]
    for v, row in enumerate(game.successors):
        for s in row:
            preds[s].append(v)
    levels: list[list[int]] = [[] for _ in game.priority_levels]
    for v, i in enumerate(game.level_of):
        levels[i].append(v)
    words = [game.n, sum(map(len, game.successors)), *csr(game.successors), *game.level_of]
    words += [q & 1 for q in game.priorities]
    words += game.owners
    words += csr(preds)
    words += [len(levels), *csr(levels)]
    packed = struct.pack(f"={len(words)}i", *words)
    object.__setattr__(game, "packed", packed)
    return packed


def _search_dominion(
    game: ParityGame,
    alive: int,
    seed: int,
    p: int,
    budget: int,
    stats: SolveStats,
) -> Optional[int]:
    """``_search_py``'s closure, from the compiled kernel's ``search`` when
    it loads and from ``_search_py`` when not, with its probes added to
    ``stats``."""
    kernel = _kernel if _kernel is not False else _load_kernel()
    if kernel is None:
        found, _, probes = _search_py(game, alive, seed, p, budget)
    else:
        found, _, probes = kernel.search(game.packed or _pack(game), alive, seed, p, budget)
    stats.dominion_probes += probes
    return found


def _find_dominion_mask(
    game: ParityGame,
    alive: int,
    max_size: int,
    players: tuple[int, ...],
    stats: SolveStats,
    record: object,
) -> Optional[tuple[int, int]]:
    """The first dominion of at most ``max_size`` positions, with its
    player, by the compiled kernel's ``scan`` when ``record`` is the
    kernel's and by ``_find_dominion_mask_py`` when it is a dict, with
    the scan's probes and replays added to ``stats``.  A fresh record makes
    every search run."""
    if isinstance(record, dict):
        found, p, probes, replays = _find_dominion_mask_py(game, record, alive, max_size, players)
    else:
        found, p, probes, replays = _kernel.scan(game.packed or _pack(game), record, alive, max_size, players)
    stats.dominion_probes += probes
    stats.dominion_replays += replays
    return None if found is None else (found, p)


def _find_dominion_mask_py(
    game: ParityGame,
    record: dict[int, tuple[int, int, Optional[int], int]],
    alive: int,
    budget: int,
    players: tuple[int, ...],
) -> tuple[Optional[int], Optional[int], int, int]:
    # the kernel's ``scan``: the first dominion of at most ``budget``
    # positions and its player (both None when there is none), the probes
    # and the replays.  ``record`` maps (seed, p, budget), packed into one
    # int, to the last search run for it: (touched, alive & touched,
    # result, probes).  An entry whose alive bits still agree on
    # ``touched`` is replayed: its result is reused and its probes are
    # added.  A budget of n or more is keyed as n, as the kernel keys it:
    # no probe commits more than n positions, so such a budget never
    # prunes and searches cannot tell those budgets apart.
    base = min(budget, game.n) * game.n
    probes = replays = 0
    m = alive
    while m:
        low = m & -m
        seed = low.bit_length() - 1
        for p in players:
            key = (base + seed) << 1 | p
            entry = record.get(key)
            if entry is not None and alive & entry[0] == entry[1]:
                replays += 1
            else:
                res, touched, cost = _search_py(game, alive, seed, p, budget)
                entry = record[key] = (touched, alive & touched, res, cost)
            probes += entry[3]
            if entry[2] is not None:
                return entry[2], p, probes, replays
        m ^= low
    return None, None, probes, replays


def _require_player(p: Player | int) -> None:
    if p not in (0, 1):
        raise ValueError(f"player must be 0 or 1, got {p!r}")


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
    for p in players:
        _require_player(p)
    if stats is None:
        stats = SolveStats()
    kernel = _kernel if _kernel is not False else _load_kernel()
    record = {} if kernel is None else kernel.record()
    found = _find_dominion_mask(g.game, g.alive.mask, max_size, players, stats, record)
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
    _require_player(p)
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


def _left_mask(game: ParityGame, alive: int, lo: int) -> tuple[int, int, int, int]:
    """The plain step's first half on a non-empty ``alive`` that no level
    before ``lo`` meets: the parity ``p`` of the highest alive priority,
    its index in ``priority_levels``, its alive holders and their
    attractor for ``p``.  The reference for the kernel's ``left``."""
    pr, holders, i = _max_priority_mask(game, alive, lo)
    p = pr & 1
    return p, i, holders, _attractor_mask(game, alive, holders, p)


def _right_mask(game: ParityGame, alive: int, holders: int, w_opp: int, p: int) -> int:
    """The plain step's second half: the attractor for ``1 - p`` of
    ``w_opp``, the opponent's region of ``alive & ~a``, where ``a`` is
    the attractor of ``holders`` that ``_left_mask`` gave.  The reference
    for the kernel's ``right``."""
    # w_opp is a trap for p in alive & ~a, so whatever joins its
    # attractor first lies in a and moves into w_opp.  Each
    # position of a outside holders has a move into a (all its
    # moves, if 1 - p owns it), so it cannot join first either:
    # the first layer needs only the part of w_opp that holders
    # move into
    succ_masks = game.succ_masks
    front = 0
    m = holders
    while m:
        low = m & -m
        front |= succ_masks[low.bit_length() - 1]
        m ^= low
    return _attractor_mask(game, alive, w_opp, 1 - p, front & w_opp)


def solve(g: Subgame, cfg: SolverConfig = SolverConfig()) -> tuple[Regions, SolveStats]:
    """Winning regions of ``g`` plus instrumentation counters.

    The answer does not depend on ``cfg``; the counters do.  Raises
    ``CallLimitExceeded`` (carrying the partial stats) when
    ``cfg.call_limit`` is hit.

    The recursion runs on an explicit stack, so its depth is bounded by
    memory rather than by the interpreter's recursion limit: each call is
    a generator that yields the alive mask of every child it needs, with
    the child's priority cursor and whether the child is known to be
    strongly connected, and is sent back the child's player-0 region.  A
    call's regions partition its alive set, so that one mask carries both
    (``w1`` is ``alive & ~w0``), and each call returns its own ``w0``.
    The cursor is an index into ``priority_levels`` before which no level
    meets the child: the left child starts below the level just removed,
    the right child at it, and the others at their parent's.  A child
    known to be strongly connected, a component from the SCC split,
    skips its own SCC check, which would give it back unchanged.  When
    the kernel loads, it runs this loop in one call, with the same
    counters, for every configuration but ``scc`` and ``memo+scc``.
    """
    game = g.game
    kernel = _kernel if _kernel is not False else _load_kernel()
    arena = game if kernel is None else game.packed or _pack(game)
    # ``scc`` and ``memo+scc`` keep the loop below with the kernel's steps:
    # perfbench's test_tracing_restores_every_binding counts the Python
    # attractor calls of a memo+scc solve
    if kernel is not None and (cfg.dominion_decomposition or not cfg.scc_decomposition):
        # the whole recursion, the loop below with its seen table, memo and record, in one kernel call
        t0 = perf_counter()
        result, *counts, stopped = kernel.solve(
            arena, g.alive.mask, cfg.memoization, cfg.scc_decomposition, cfg.dominion_decomposition, cfg.call_limit
        )
        stats = SolveStats(*counts, wall_time=perf_counter() - t0)
        if stopped:
            raise CallLimitExceeded(cfg.call_limit, stats)
        return Regions(PositionSet(game, result), PositionSet(game, g.alive.mask & ~result)), stats
    # the backend, once per solve: both halves of the plain step and the
    # SCC layer's first component from the kernel on the packed arena, or
    # their Python twins on the game; the dominion layer runs here only
    # without the kernel, on a dict record (see _find_dominion_mask)
    if kernel is None:
        left, right, first_scc = _left_mask, _right_mask, _first_scc_py
    else:
        left, right, first_scc = kernel.left, kernel.right, kernel.first_scc
    record: dict = {}
    stats = SolveStats()
    memo = cfg.memoization
    # every entered alive mask; with memoization, mapped to its w0 once
    # solved.  A running call's entry is still None, but no call meets it
    # again: every child is strictly smaller than its parent.
    seen: dict[int, Optional[int]] = {}
    limit = cfg.call_limit
    dom_on = cfg.dominion_decomposition
    scc_on = cfg.scc_decomposition

    def call(alive: int, lo: int, strong: bool) -> Generator[tuple[int, int, bool], int, int]:
        # one call on a non-empty alive set that no priority level before
        # ``lo`` meets, strongly connected if ``strong``; it yields each
        # child with the child's own cursor and strength
        if dom_on:
            bound = default_dominion_bound(alive.bit_count())
            found = _find_dominion_mask(game, alive, bound, (0, 1), stats, record)
            if found is not None:
                d, p = found
                a = _attractor_mask(game, alive, d, p)
                r0 = yield alive & ~a, lo, False
                return r0 | a if p == 0 else r0
        if scc_on and not strong:
            comp = first_scc(arena, alive)
            if comp != alive:
                # solve a terminal component, attract both of its regions
                # within what is left, and repeat on the rest
                rem = alive
                w0 = 0
                while True:
                    c0 = yield comp, lo, True
                    c1 = comp & ~c0
                    a0 = _attractor_mask(game, rem, c0, 0) if c0 else 0
                    w0 |= a0
                    rem &= ~a0
                    if c1:
                        rem &= ~_attractor_mask(game, rem, c1, 1)
                    if not rem:
                        return w0
                    comp = first_scc(arena, rem)
        p, i, holders, a = left(arena, alive, lo)
        rest = alive & ~a
        l0 = yield rest, i + 1, False
        w_opp = rest & ~l0 if p == 0 else l0
        b = right(arena, alive, holders, w_opp, p) if w_opp else 0
        if b == w_opp:
            return alive & ~w_opp if p == 0 else w_opp
        r0 = yield alive & ~b, i, False
        return r0 if p == 0 else r0 | b

    # each running call, and beside it its alive set, under which it is
    # memoized
    frames: list[Generator[tuple[int, int, bool], int, int]] = []
    alives: list[int] = []
    child = g.alive.mask
    lo = 0
    strong = False
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
                frames.append(call(child, lo, strong))
                alives.append(child)
            else:
                result = 0
                if memo:
                    seen[0] = 0
            # run the top frame until it asks for a child, handing each
            # finished call's w0 to the frame below
            while frames:
                try:
                    child, lo, strong = frames[-1].send(result)
                    break
                except StopIteration as done:
                    frames.pop()
                    result = done.value
                    alive = alives.pop()
                    if memo:
                        seen[alive] = result
            else:
                break
    finally:
        stats.distinct_subgames = len(seen)
        stats.wall_time = perf_counter() - t0
    w1 = g.alive.mask & ~result
    return Regions(PositionSet(game, result), PositionSet(game, w1)), stats
