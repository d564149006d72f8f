"""Game arenas, position sets, and the primitive set operators.

The model is deliberately small.  A game is a finite directed graph whose
positions carry an owner (player 0 or player 1) and a natural priority,
with the guarantee that every position has at least one outgoing move.
A play follows moves forever, the owner of the current position choosing
the next one; player 0 wins a play exactly when the highest priority seen
infinitely often is even.

Everything else in the library works on *subgames*: one fixed master game
plus the set of positions still alive.  Removing an attractor always
leaves a valid subgame, so alive sets are closed under the operators
defined here and double as cheap, exact cache keys.

Positions are dense integer indices into the master game.  Position sets
are immutable bit masks over those indices; iteration is always in
ascending index order, which keeps every computation in the library
deterministic.  All classes are immutable after construction and all
functions are pure, so instances can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Iterator, Mapping, Optional, Sequence


class GameError(Exception):
    """Base class for all errors raised by this package."""


class EmptyGame(GameError):
    """An operation that needs at least one alive position got none."""


class OutOfSubgame(GameError):
    """A position set strays outside the alive part of its subgame."""


class NotAGame(GameError):
    """A position set does not induce a playable game (it has dead ends)."""


class Player(IntEnum):
    """One of the two players.  Even priorities favour player ``EVEN``."""

    EVEN = 0
    ODD = 1

    @property
    def opponent(self) -> "Player":
        return Player(1 - self._value_)


def _bits(mask: int) -> Iterator[int]:
    # ascending-index iteration over the set bits of a mask
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ParityGame:
    """An immutable master arena.

    Construction precomputes per-position successor and predecessor masks
    (``succ_masks``, ``pred_masks``) and a priority-descending index used
    by ``max_priority``: ``priority_levels`` holds one ``(priority,
    holders mask)`` pair per distinct priority, highest first, and
    ``level_of[v]`` is the index of ``v``'s own priority in it.  So the
    solver can run on raw masks without touching Python-level sets.

    Successor lists keep their given order (deduplicated); that order is
    part of the deterministic behaviour of everything built on top.

    ``packed`` is None until the game is first solved (or searched for a
    dominion) with the compiled kernel loaded; it then holds the arena
    packed for the kernel (``solver._pack``), which lives as long as the
    game.
    """

    __slots__ = (
        "n",
        "owners",
        "priorities",
        "successors",
        "succ_masks",
        "pred_masks",
        "priority_levels",
        "level_of",
        "owner_masks",
        "labels",
        "source_ids",
        "full_mask",
        "packed",
    )

    def __init__(
        self,
        owners: Sequence[int],
        priorities: Sequence[int],
        successors: Sequence[Sequence[int]],
        labels: Optional[Sequence[object]] = None,
        source_ids: Optional[Sequence[int]] = None,
    ) -> None:
        n = len(owners)
        if len(priorities) != n or len(successors) != n:
            raise ValueError("owners, priorities and successors must have equal length")
        for name, given in (("labels", labels), ("source_ids", source_ids)):
            if given is not None and len(given) != n:
                raise ValueError(f"{name} must have one entry per position: {len(given)} for {n}")
        owners_t = tuple(map(int, owners))
        priorities_t = tuple(map(int, priorities))
        succ_t = []
        masks = []
        pred_masks = [0] * n
        owner_masks = [0, 0]
        by_pr: dict[int, int] = {}
        # one pass, faults reported per position in index order
        for v, (o, p, raw) in enumerate(zip(owners_t, priorities_t, successors)):
            if o not in (0, 1):
                raise ValueError(f"position {v}: owner must be 0 or 1, got {o!r}")
            if p < 0:
                raise ValueError(f"position {v}: priority must be non-negative")
            bit = 1 << v
            row = []
            m = 0
            for s in raw:
                s = int(s)
                if not 0 <= s < n:
                    raise ValueError(f"position {v}: successor {s} out of range")
                sb = 1 << s
                if not m & sb:
                    m |= sb
                    row.append(s)
                    pred_masks[s] |= bit
            if not row:
                raise NotAGame(f"position {v} has no moves")
            succ_t.append(tuple(row))
            masks.append(m)
            owner_masks[o] |= bit
            by_pr[p] = by_pr.get(p, 0) | bit
        levels = tuple(sorted(by_pr.items(), reverse=True))
        rank = {pr: i for i, (pr, _) in enumerate(levels)}
        # ids must be writable as PGSolver identifiers: non-negative, distinct
        ids = tuple(map(int, source_ids)) if source_ids is not None else None
        first: dict[int, int] = {}
        for v, i in enumerate(ids or ()):
            if i < 0 or first.setdefault(i, v) != v:
                why = "is negative" if i < 0 else f"is also position {first[i]}'s"
                raise ValueError(f"position {v}: source id {i} {why}")

        object.__setattr__(self, "n", n)
        object.__setattr__(self, "owners", owners_t)
        object.__setattr__(self, "priorities", priorities_t)
        object.__setattr__(self, "successors", tuple(succ_t))
        object.__setattr__(self, "succ_masks", tuple(masks))
        object.__setattr__(self, "pred_masks", tuple(pred_masks))
        object.__setattr__(self, "priority_levels", levels)
        object.__setattr__(self, "level_of", tuple(map(rank.__getitem__, priorities_t)))
        object.__setattr__(self, "owner_masks", (owner_masks[0], owner_masks[1]))
        object.__setattr__(self, "labels", tuple(labels) if labels is not None else None)
        object.__setattr__(self, "source_ids", ids)
        object.__setattr__(self, "full_mask", (1 << n) - 1)
        object.__setattr__(self, "packed", None)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("ParityGame is immutable")

    def __delattr__(self, name):  # pragma: no cover - defensive
        raise AttributeError("ParityGame is immutable")

    def __len__(self) -> int:
        return self.n

    @property
    def move_count(self) -> int:
        return sum(len(row) for row in self.successors)

    def label_of(self, v: int) -> Optional[object]:
        return self.labels[v] if self.labels is not None else None

    def __repr__(self) -> str:
        return f"ParityGame(n={self.n}, moves={self.move_count})"


@dataclass(frozen=True, slots=True)
class PositionSet:
    """An immutable subset of the positions of one master game.

    Supports membership, boolean algebra, ascending iteration, equality
    and hashing, which makes it directly usable as a memo key.  Two sets
    are equal when they hold the same mask of the very same game object.
    """

    game: ParityGame
    mask: int

    def __post_init__(self) -> None:
        if self.mask & ~self.game.full_mask:
            raise OutOfSubgame(f"mask {bin(self.mask)} has bits outside the game")

    @classmethod
    def empty(cls, game: ParityGame) -> "PositionSet":
        return cls(game, 0)

    @classmethod
    def full(cls, game: ParityGame) -> "PositionSet":
        return cls(game, game.full_mask)

    @classmethod
    def of(cls, game: ParityGame, indices: Iterable[int]) -> "PositionSet":
        m = 0
        for i in indices:
            if not 0 <= i < game.n:
                raise OutOfSubgame(f"position {i} out of range")
            m |= 1 << i
        return cls(game, m)

    def _same(self, other: "PositionSet") -> None:
        if self.game is not other.game:
            raise ValueError("position sets belong to different master games")

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.game.n and bool(self.mask >> i & 1)

    def __iter__(self) -> Iterator[int]:
        return _bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __or__(self, other: "PositionSet") -> "PositionSet":
        self._same(other)
        return PositionSet(self.game, self.mask | other.mask)

    def __and__(self, other: "PositionSet") -> "PositionSet":
        self._same(other)
        return PositionSet(self.game, self.mask & other.mask)

    def __sub__(self, other: "PositionSet") -> "PositionSet":
        self._same(other)
        return PositionSet(self.game, self.mask & ~other.mask)

    def issubset(self, other: "PositionSet") -> bool:
        self._same(other)
        return not (self.mask & ~other.mask)

    def isdisjoint(self, other: "PositionSet") -> bool:
        self._same(other)
        return not (self.mask & other.mask)

    def indices(self) -> tuple[int, ...]:
        return tuple(_bits(self.mask))

    def __repr__(self) -> str:
        idx = self.indices()
        shown = ", ".join(map(str, idx[:12]))
        if len(idx) > 12:
            shown += f", ... ({len(idx)} total)"
        return f"PositionSet{{{shown}}}"


@dataclass(frozen=True, slots=True)
class Subgame:
    """A master game restricted to an alive set of positions.

    Construction validates that every alive position keeps at least one
    alive successor, so a ``Subgame`` is always a playable game.
    """

    game: ParityGame
    alive: PositionSet

    def __post_init__(self) -> None:
        if self.alive.game is not self.game:
            raise ValueError("alive set belongs to a different master game")
        bad = _left_total_violation(self.game, self.alive.mask)
        if bad is not None:
            raise NotAGame(f"position {bad} would have no alive successor")

    @classmethod
    def whole(cls, game: ParityGame) -> "Subgame":
        return cls(game, PositionSet.full(game))

    def __len__(self) -> int:
        return len(self.alive)

    @property
    def is_empty(self) -> bool:
        return not self.alive

    def __repr__(self) -> str:
        return f"Subgame({len(self.alive)}/{self.game.n} alive)"


@dataclass(frozen=True, slots=True)
class Regions:
    """The two winning regions of a solved subgame (a partition of alive)."""

    w0: PositionSet
    w1: PositionSet

    def of(self, p: int) -> PositionSet:
        return self.w0 if p == 0 else self.w1

    def __repr__(self) -> str:
        return f"Regions(w0={len(self.w0)}, w1={len(self.w1)})"


# ---------------------------------------------------------------------------
# mask-level internals, shared by the public operators and the solver


def _left_total_violation(game: ParityGame, alive: int) -> Optional[int]:
    succ_masks = game.succ_masks
    m = alive
    while m:
        low = m & -m
        v = low.bit_length() - 1
        if not succ_masks[v] & alive:
            return v
        m ^= low
    return None


def _max_priority_mask(game: ParityGame, alive: int, lo: int = 0) -> tuple[int, int, int]:
    # the highest alive priority, its alive holders and its index in
    # ``priority_levels``.  The caller promises that no level before
    # ``lo`` meets ``alive`` (the solver's cursor only moves down).  The
    # scan from ``lo`` stops after as many levels as ``alive`` has
    # positions; then the positions give the level themselves, so one
    # call reads at most about twice that many items
    if not alive:
        raise EmptyGame("empty subgame has no maximal priority")
    levels = game.priority_levels
    for i in range(lo, min(lo + alive.bit_count(), len(levels))):
        pr, mask = levels[i]
        hit = mask & alive
        if hit:
            return pr, hit, i
    level_of = game.level_of
    i = min(level_of[v] for v in _bits(alive))
    pr, mask = levels[i]
    return pr, mask & alive, i


def _predecessor_mask(game: ParityGame, alive: int, target: int, p: int) -> int:
    # positions whose owner can force the next move into `target`
    owners = game.owners
    succ_masks = game.succ_masks
    res = 0
    m = alive
    while m:
        low = m & -m
        v = low.bit_length() - 1
        sm = succ_masks[v] & alive
        if owners[v] == p:
            if sm & target:
                res |= low
        elif not sm & ~target:
            res |= low
        m ^= low
    return res


def _attractor_mask(
    game: ParityGame, alive: int, seed: int, p: int, front: Optional[int] = None
) -> int:
    # grow one layer of predecessors at a time; ``free`` holds the alive
    # positions not attracted yet.  The first layer grows from ``front``
    # (by default ``seed``), so a caller may pass any part of the seed
    # such that every free position that can join in the first layer
    # has a move into ``front``.  After the first layer nothing changes:
    # the next front is what joined
    pred_masks = game.pred_masks
    succ_masks = game.succ_masks
    own = game.owner_masks[p]
    rest = free = alive & ~seed
    if front is None:
        front = seed
    while front:
        cand = 0
        while front:
            low = front & -front
            cand |= pred_masks[low.bit_length() - 1]
            front ^= low
        cand &= free
        front = cand & own
        free ^= front
        opp = cand ^ front
        while opp:
            low = opp & -opp
            if not succ_masks[low.bit_length() - 1] & free:
                front |= low
                free ^= low
            opp ^= low
    # hand back ``seed`` itself when nothing joined, so callers that keep
    # both masks keep one int
    return seed if free == rest else seed | alive & ~free


def _closure(step: Mapping[int, int] | Sequence[int], within: int, start: int) -> int:
    # positions of ``within`` reachable from ``start`` along ``step``, a
    # successor (or predecessor) mask per position of ``within``
    reach = front = start
    while front:
        nxt = 0
        while front:
            low = front & -front
            nxt |= step[low.bit_length() - 1]
            front ^= low
        front = nxt & within & ~reach
        reach |= front
    return reach


def _cycle_heads(
    prs: Sequence[int], step: Mapping[int, int] | Sequence[int], within: int, parity: int
) -> Iterator[int]:
    # The cycle-parity rule.  The heads are the positions x of ``within``
    # whose priority q has ``parity`` and that reach themselves along
    # ``step`` through positions of ``within`` of priority <= q.  Such an
    # x is the maximum of a cycle, so the graph ``step`` induces on
    # ``within`` has a cycle whose maximum priority has ``parity``
    # exactly when some head exists.  Yields each head's bit as it finds
    # it, one closure per candidate, so ``any`` stops at the first head
    # and ``sum`` gives the mask of all of them.
    levels: dict[int, int] = {}
    for v in _bits(within):
        levels[prs[v]] = levels.get(prs[v], 0) | 1 << v
    below = 0
    for q in sorted(levels):
        below |= levels[q]
        if q & 1 == parity:
            for x in _bits(levels[q]):
                if _closure(step, below, step[x] & below) >> x & 1:
                    yield 1 << x


def _require_inside(g: Subgame, s: PositionSet, what: str) -> None:
    if s.game is not g.game:
        raise ValueError(f"{what} belongs to a different master game")
    if s.mask & ~g.alive.mask:
        raise OutOfSubgame(f"{what} contains positions outside the subgame")


# ---------------------------------------------------------------------------
# public operators


def max_priority(g: Subgame) -> tuple[int, PositionSet]:
    """Highest priority among alive positions and the set of its holders."""
    pr, mask, _ = _max_priority_mask(g.game, g.alive.mask)
    return pr, PositionSet(g.game, mask)


def predecessor(g: Subgame, target: PositionSet, p: Player | int) -> PositionSet:
    """One-step forcing set for player ``p``.

    Alive positions of ``p`` with some alive move into ``target``, plus
    alive positions of the opponent whose every alive move lands in
    ``target``.  By left-totality the predecessor of the empty set is
    empty.
    """
    _require_inside(g, target, "target")
    return PositionSet(
        g.game, _predecessor_mask(g.game, g.alive.mask, target.mask, int(p))
    )


def attractor(g: Subgame, seed: PositionSet, p: Player | int) -> PositionSet:
    """Least superset of ``seed`` closed under ``predecessor`` for ``p``.

    Grown one layer of predecessors at a time over the precomputed
    predecessor masks: a position of ``p`` joins when it has a move into
    the last layer, an opponent position when none of its alive moves
    leads outside the attractor.
    """
    _require_inside(g, seed, "seed")
    return PositionSet(
        g.game, _attractor_mask(g.game, g.alive.mask, seed.mask, int(p))
    )


def remove(g: Subgame, a: PositionSet) -> Subgame:
    """Subgame induced by the alive positions outside ``a``.

    Raises ``NotAGame`` if some surviving position loses all its moves;
    complements of attractors never do.
    """
    _require_inside(g, a, "removed set")
    return Subgame(g.game, PositionSet(g.game, g.alive.mask & ~a.mask))

