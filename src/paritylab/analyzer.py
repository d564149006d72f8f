"""Subgame-tree construction, structural checks and brute-force oracles.

The recursive solver, run on a family game, descends through a binary
tree of subgames: at each node it carves out a left child by removing a
one-player attractor around the highest-priority entry, solves it, and
carves out a right child by removing the zero-attractor of the left
child's winning region.  ``build_induced_tree`` materializes exactly
that tree from the game alone, without running the solver, so the two
can be compared.

The ``verify_*`` functions then check, node by node, the structural
claims that make the families worst cases: which entries and hubs each
node retains, how the winning regions look, that the solver's own steps
reproduce the tree, that all nodes are pairwise distinct (witnessed by a
single hub position per branch), and that connector-extended games never
fall apart into multiple strongly connected components.

Everything here is desk-scale instrumentation.  ``oracle_solve`` and
``min_core_dominion`` trade speed for independence: the former solves by
enumerating positional strategies and searching each one's move graph
for cycles of odd maximum priority, the latter finds smallest dominions
by exhaustive bounded closure search.  The oracle shares only core's
cycle-parity rule with the solver's dominion certifier, and that rule
has its own definition-level test; it calls nothing from ``solve``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from .core import (
    GameError,
    ParityGame,
    Player,
    PositionSet,
    Regions,
    Subgame,
    attractor,
    remove,
)
from .core import _closure, _cycle_heads, _left_total_violation
from .families import FamilyIndex, check_core_extension
from .report import Report
from .solver import (
    SolveStats,
    SolverConfig,
    _search_dominion,
    left_step,
    right_step,
    scc_split,
    solve,
)

__all__ = [
    "TooLarge",
    "NotCoreExtension",
    "TreeLabel",
    "InducedTree",
    "build_induced_tree",
    "verify_tree_invariants",
    "verify_algorithm_correspondence",
    "verify_distinctness",
    "verify_single_scc",
    "min_core_dominion",
    "oracle_solve",
]


class TooLarge(GameError):
    """Game exceeds the brute-force enumeration bound."""


class NotCoreExtension(GameError):
    """Game failed the structural checks required for tree construction."""


_ORACLE_BOUND = 12


@dataclass(frozen=True)
class TreeLabel:
    """Address of one tree node: a word over ``{'L', 'R'}`` plus a kind.

    ``plain`` nodes exist for words of length at most ``k``; ``hat``
    nodes for non-empty words of length at most ``k + 1``.  The hat node
    is the intermediate subgame out of which the plain node with the
    same word is carved.
    """

    word: str
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("plain", "hat"):
            raise ValueError(f"kind must be 'plain' or 'hat', got {self.kind!r}")
        if any(c not in "LR" for c in self.word):
            raise ValueError(f"word must be over 'L'/'R', got {self.word!r}")
        if self.kind == "hat" and not self.word:
            raise ValueError("hat nodes require a non-empty word")

    def __str__(self) -> str:
        mark = "^" if self.kind == "hat" else ""
        return f"G{mark}[{self.word or 'eps'}]"

    @classmethod
    def plain(cls, word: str) -> "TreeLabel":
        return cls(word, "plain")

    @classmethod
    def hat(cls, word: str) -> "TreeLabel":
        return cls(word, "hat")


@dataclass(frozen=True, slots=True, eq=False)
class InducedTree:
    """The subgames a recursive descent pins down for one family game.

    ``nodes`` maps each :class:`TreeLabel` to its :class:`Subgame`.
    ``w0_of`` gives the winning region of player 0 that construction
    computed for each hat node whose word ends in ``L``, the only nodes
    the checks ask about; it raises ``KeyError`` for any other node.
    Trees compare and hash by identity, since their dicts cannot hash.
    """

    game: ParityGame
    k: int
    index: FamilyIndex
    nodes: Dict[TreeLabel, Subgame]
    _w0: Dict[TreeLabel, PositionSet]

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[TreeLabel]:
        return iter(self.nodes)

    def __getitem__(self, label: TreeLabel) -> Subgame:
        return self.nodes[label]

    def w0_of(self, label: TreeLabel) -> PositionSet:
        """Winning region of player 0 in a hat node whose word ends in ``L``."""
        return self._w0[label]

    def __repr__(self) -> str:
        return f"InducedTree(k={self.k}, nodes={len(self.nodes)})"


def _words(max_len: int) -> Iterator[str]:
    for length in range(max_len + 1):
        for tup in itertools.product("LR", repeat=length):
            yield "".join(tup)


def build_induced_tree(game: ParityGame, k: int, validate: bool = True) -> InducedTree:
    """Materialize all plain and hat subgames down to depth ``k``.

    From each plain node ``G_w`` (with ``z = 2(k - |w|)``): the left hat
    child removes the player-1 attractor of the entry ``a_z``; the right
    hat child removes the player-0 attractor of the left child's winning
    region, computed here with the bare solver so the tree does not
    depend on any enhancement under test.  A hat node at depth at most
    ``k`` yields its plain node by removing the player-0 attractor of
    the next entry up, ``a_{z+1}`` for its own ``z``.

    With ``validate`` (the default) the game must first pass
    ``check_core_extension``; otherwise construction proceeds on any
    labelled game and the ``verify_*`` checks report what broke.
    """
    if validate:
        report = check_core_extension(game, k)
        if not report.passed:
            raise NotCoreExtension(
                "; ".join(str(item) for item in report.failures[:3])
            )
    index = FamilyIndex(game)
    bare = SolverConfig()
    nodes: Dict[TreeLabel, Subgame] = {}
    w0: Dict[TreeLabel, PositionSet] = {}
    root = Subgame.whole(game)
    nodes[TreeLabel.plain("")] = root

    def entry_seed(sub: Subgame, i: int) -> PositionSet:
        # tolerate a missing entry so mutated games still build a tree
        v = index.alpha.get(i)
        mask = 0 if v is None else (1 << v) & sub.alive.mask
        return PositionSet(game, mask)

    def descend(w: str, sub: Subgame) -> None:
        z = 2 * (k - len(w))
        hat_l = remove(sub, attractor(sub, entry_seed(sub, z), 1))
        label_l = TreeLabel.hat(w + "L")
        nodes[label_l] = hat_l
        regions, _ = solve(hat_l, bare)
        w0[label_l] = regions.w0
        hat_r = remove(sub, attractor(sub, regions.w0, 0))
        nodes[TreeLabel.hat(w + "R")] = hat_r
        if len(w) < k:
            for side, hat in (("L", hat_l), ("R", hat_r)):
                plain = remove(hat, attractor(hat, entry_seed(hat, z - 1), 0))
                nodes[TreeLabel.plain(w + side)] = plain
                descend(w + side, plain)

    descend("", root)
    return InducedTree(game, k, index, nodes, w0)


def _role_mask(table: Dict[int, int], i: int) -> int:
    v = table.get(i)
    return 0 if v is None else 1 << v


def verify_tree_invariants(t: InducedTree) -> Report:
    """Per-node structural report on entry windows, hub floors and wins.

    Checks, for every node with ``z = 2(k - |w|)``:

    * ``is-subgame``: the alive set is left-total within the master game;
    * ``entry-window``: entry ``a_j`` is present exactly for ``j`` up to
      ``z`` (plain) or ``z + 1`` (hat);
    * ``hub-floor``: hubs ``g_0 .. g_z`` are all present; a node whose
      word ends in ``L`` additionally keeps ``g_{z+1}``, except at the
      deepest hat level where it keeps ``g_0``;
    * ``left-win-core``: in a hat node ending in ``L``, the winning
      region of player 0 restricted to the core is exactly the surviving
      relay/hub pairs ``b_i, g_i`` for even ``i`` above ``z``.
    """
    rep = Report()
    k, idx = t.k, t.index
    game = t.game
    for label in sorted(t.nodes, key=lambda l: (len(l.word), l.word, l.kind)):
        sub = t.nodes[label]
        alive = sub.alive.mask
        node = str(label)
        w = label.word
        z = 2 * (k - len(w))

        bad = _left_total_violation(game, alive)
        rep.add(
            node,
            "is-subgame",
            bad is None and not alive & ~game.full_mask,
            None if bad is None else f"position {bad} has no alive successor",
        )

        top = z if label.kind == "plain" else z + 1
        wrong = [
            j
            for j in range(2 * k + 1)
            if bool(_role_mask(idx.alpha, j) & alive) != (j <= top)
        ]
        rep.add(
            node,
            "entry-window",
            not wrong,
            f"entries {wrong} break the window [0, {top}]" if wrong else None,
        )

        need = [j for j in range(max(0, z + 1)) if not _role_mask(idx.gamma, j) & alive]
        if w.endswith("L"):
            extra = 0 if (label.kind == "hat" and len(w) == k + 1) else z + 1
            if not _role_mask(idx.gamma, extra) & alive:
                need.append(extra)
        rep.add(
            node,
            "hub-floor",
            not need,
            f"hubs {sorted(set(need))} are missing" if need else None,
        )

        if label.kind == "hat" and w.endswith("L"):
            want = 0
            for i in range(max(0, z + 2), 2 * k + 1, 2):
                want |= (_role_mask(idx.beta, i) | _role_mask(idx.gamma, i)) & alive
            got = t.w0_of(label).mask & idx.core_mask
            diff = PositionSet(game, got ^ want)
            rep.add(
                node,
                "left-win-core",
                got == want,
                None
                if got == want
                else "winning core mismatch at "
                + " ".join(str(game.label_of(v)) for v in diff),
            )
    return rep


def verify_algorithm_correspondence(t: InducedTree) -> Report:
    """Check that solver steps reproduce the constructed tree.

    For every plain node: one left step must yield the left hat child
    and report player 1; one right step fed with the left child's
    winning region must yield the right hat child.  For every hat node
    above the deepest level, one left step must yield its plain node and
    report player 0.
    """
    rep = Report()
    k = t.k
    for w in _words(k):
        sub = t.nodes[TreeLabel.plain(w)]
        hat_l = t.nodes[TreeLabel.hat(w + "L")]
        hat_r = t.nodes[TreeLabel.hat(w + "R")]
        try:
            child, player, _ = left_step(sub)
            ok = child == hat_l and player == 1
            witness = None if ok else f"left step gave {len(child)} positions, player {int(player)}"
        except GameError as exc:
            ok, witness = False, f"left step failed: {exc}"
        rep.add(str(TreeLabel.plain(w)), "left-step", ok, witness)

        try:
            child = right_step(sub, t.w0_of(TreeLabel.hat(w + "L")), 0)
            ok = child == hat_r
            witness = None if ok else f"right step gave {len(child)} positions"
        except GameError as exc:
            ok, witness = False, f"right step failed: {exc}"
        rep.add(str(TreeLabel.plain(w)), "right-step", ok, witness)

    for w in _words(k):
        if not w:
            continue
        hat = t.nodes[TreeLabel.hat(w)]
        plain = t.nodes[TreeLabel.plain(w)]
        try:
            child, player, _ = left_step(hat)
            ok = child == plain and player == 0
            witness = None if ok else f"left step gave {len(child)} positions, player {int(player)}"
        except GameError as exc:
            ok, witness = False, f"left step failed: {exc}"
        rep.add(str(TreeLabel.hat(w)), "hat-left-step", ok, witness)
    return rep


def verify_distinctness(t: InducedTree) -> tuple[int, list[str]]:
    """Count distinct alive sets and check the separating hub witness.

    Returns the number of pairwise-distinct node subgames together with
    a list of witness violations.  The witness: branching below the
    plain node at ``w``, the hub ``g_{2(k - |w|) - 1}`` stays in every
    subgame of the left subtree and in none of the right subtree, which
    keeps the two subtrees disjoint; at the deepest branching the same
    role falls to ``g_0``, separating the two leaf-level hat children.
    """
    failures: list[str] = []
    k, idx = t.k, t.index
    masks = {sub.alive.mask for sub in t.nodes.values()}

    def present(label: TreeLabel, bit: int) -> bool:
        return bool(t.nodes[label].alive.mask & bit)

    for w in _words(k):
        hub = 0 if len(w) == k else 2 * (k - len(w)) - 1
        bit = _role_mask(idx.gamma, hub)
        for side, wanted in (("L", True), ("R", False)):
            base = w + side
            for v in _words(k + 1 - len(base)):
                word = base + v
                targets = [TreeLabel.hat(word)]
                if len(word) <= k:
                    targets.append(TreeLabel.plain(word))
                for label in targets:
                    if present(label, bit) != wanted:
                        state = "missing from" if wanted else "present in"
                        failures.append(f"g{hub} {state} {label}")
    return len(masks), failures


def verify_single_scc(t: InducedTree) -> Report:
    """Check that every node is one strongly connected component.

    Also checks connector pairing: a connector between hub levels ``i``
    and ``j`` survives in a node exactly when both hubs do.  Bare-core
    trees have no connectors, so only the component count can fail
    there.
    """
    rep = Report()
    idx = t.index
    for label in sorted(t.nodes, key=lambda l: (len(l.word), l.word, l.kind)):
        sub = t.nodes[label]
        comps = scc_split(sub)
        # the all-R leaf is empty; nothing to decompose there
        ok = len(comps) == 1 or not sub.alive
        rep.add(
            str(label),
            "single-component",
            ok,
            None if ok else f"{len(comps)} components",
        )
        alive = sub.alive.mask
        mismatch = None
        for (i, j, p), d in idx.delta.items():
            both = bool(_role_mask(idx.gamma, i) & alive) and bool(
                _role_mask(idx.gamma, j) & alive
            )
            if bool(alive >> d & 1) != both:
                mismatch = f"d{i}_{j}_{p} {'dead' if both else 'alive'} but hubs g{i},g{j} say otherwise"
                break
        rep.add(str(label), "connector-pairing", mismatch is None, mismatch)
    return rep


# min_core_dominion is called once per node of a tree, so on one game many
# times over; the index of the last game is kept (games hash by identity)
_family_index = functools.lru_cache(maxsize=1)(FamilyIndex)


def min_core_dominion(g: Subgame, k: int, size_cap: int) -> Optional[int]:
    """Size of the smallest dominion meeting the labelled core.

    Exhaustive search by iterative deepening on the size budget, so the
    first hit is minimal; returns ``None`` when every core-meeting
    dominion (of either player) needs more than ``size_cap`` positions.
    Seeds are restricted to core positions, which loses nothing because
    the generators lay the core out at the lowest indices: the minimum
    member of any core-meeting set is itself a core position.
    """
    if size_cap < 1:
        raise ValueError(f"size_cap must be >= 1, got {size_cap}")
    idx = _family_index(g.game)
    if max(idx.alpha) != 2 * k:
        raise GameError(f"game is labelled for index {max(idx.alpha) // 2}, not {k}")
    ext = idx.extension_mask
    if ext and (ext & -ext).bit_length() <= idx.core_mask.bit_length() - 1:
        raise GameError("core labels must occupy the lowest position indices")
    alive = g.alive.mask
    stats = SolveStats()
    for budget in range(1, size_cap + 1):
        seeds = idx.core_mask & alive
        while seeds:
            low = seeds & -seeds
            seed = low.bit_length() - 1
            for p in (0, 1):
                if _search_dominion(g.game, alive, seed, p, budget, stats) is not None:
                    return budget
            seeds ^= low
    return None


def oracle_solve(g: Subgame) -> Regions:
    """Reference solution by brute force, for cross-checking the solver.

    Enumerates every positional strategy of player 0 over the alive
    positions.  Under one strategy the move graph keeps a single choice
    at player-0 positions and every alive move at player-1 positions; a
    position is winning for that strategy when no cycle of odd maximum
    priority is reachable from it.  Player 0 wins wherever some strategy
    does, player 1 wins the rest.  Shares nothing with ``solve`` but two
    rules of core: the cycle-parity rule (``_cycle_heads``, which finds
    the odd cycles), which has its own definition-level test, and the
    closure (``_closure``, which finds what reaches them).

    Raises ``TooLarge`` beyond 12 alive positions.
    """
    game = g.game
    alive = g.alive.mask
    positions = g.alive.indices()
    if len(positions) > _ORACLE_BOUND:
        raise TooLarge(
            f"{len(positions)} positions exceed the oracle bound {_ORACLE_BOUND}"
        )
    if not positions:
        return Regions(PositionSet.empty(game), PositionSet.empty(game))
    succ = {
        v: [s for s in game.successors[v] if alive >> s & 1] for v in positions
    }
    moves = {v: game.succ_masks[v] & alive for v in positions}
    # the moves reversed, player 1's only: every strategy keeps them all
    theirs = {v: game.pred_masks[v] & alive & game.owner_masks[1] for v in positions}
    mine = [v for v in positions if game.owners[v] == 0]
    w0 = 0
    for choice in itertools.product(*(succ[v] for v in mine)):
        edge = dict(moves)
        back = dict(theirs)
        for v, s in zip(mine, choice):
            edge[v] = 1 << s
            back[s] |= 1 << v
        # the heads of core's cycle rule for parity 1 are the maxima of the
        # cycles of odd maximum priority; a position loses under this
        # strategy when it reaches one, that is lies in their closure
        # along the reversed moves
        w0 |= alive & ~_closure(back, alive, _cycle_heads(game.priorities, edge, alive, 1))
        if w0 == alive:
            break
    return Regions(PositionSet(game, w0), PositionSet(game, alive & ~w0))
