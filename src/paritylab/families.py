"""Benchmark game families and their structural checks.

Two generator families share a labelled backbone of indexed position
roles, here called the *core*:

* ``gen_core(k)`` builds the bare core: for each level ``i`` in
  ``[0, 2k]`` a high-priority entry position ``a_i``, a relay ``b_i`` and
  a hub ``g_i`` wired into a chain of gadgets.  The game is completely
  won by player 0, yet drives the recursive solver through an
  exponential number of distinct subgames.
* ``gen_scc(k)`` extends the core with low-priority connector positions
  ``d{i}_{j}_{p}`` between hubs.  The connectors keep every subgame the
  solver encounters strongly connected and push the size of the smallest
  dominion up with ``k``, which defeats SCC decomposition and
  small-dominion preprocessing as shortcuts.

``check_core_extension`` verifies the four structural conditions under
which a game containing the labelled core inherits the worst-case
behaviour; ``build_induced_tree`` in :mod:`paritylab.analyzer` relies on
it before constructing anything.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .core import GameError, ParityGame
from .report import Report


class BadIndex(GameError):
    """Raised when a family parameter is outside its domain."""


_NUM = r"(0|[1-9][0-9]*)"  # canonical decimals only, so a parsed label writes back as its text
_LABEL_RE = re.compile(rf"([abg]){_NUM}|d{_NUM}_{_NUM}_([01])")


@dataclass(frozen=True)
class FamilyLabel:
    """Structured role tag for generated positions.

    ``role`` is one of ``"alpha"``, ``"beta"``, ``"gamma"`` (core, index
    ``i``) or ``"delta"`` (connector between hub levels ``i < j``, owned
    by player ``p``).  Connectors between same-parity levels exist only
    for ``p`` matching that parity.
    """

    role: str
    i: int
    j: Optional[int] = None
    p: Optional[int] = None

    def __post_init__(self) -> None:
        if self.role in ("alpha", "beta", "gamma"):
            if self.i < 0 or self.j is not None or self.p is not None:
                raise BadIndex(f"malformed core label {self!r}")
        elif self.role == "delta":
            if self.j is None or self.p is None:
                raise BadIndex("delta labels need i, j and p")
            if not 0 <= self.i < self.j:
                raise BadIndex("delta labels require 0 <= i < j")
            if self.p not in (0, 1):
                raise BadIndex("delta owner must be 0 or 1")
            if self.i % 2 == self.j % 2 and self.p != self.i % 2:
                raise BadIndex("same-parity connector must match the level parity")
        else:
            raise BadIndex(f"unknown role {self.role!r}")

    def __str__(self) -> str:
        if self.role == "delta":
            return f"d{self.i}_{self.j}_{self.p}"
        return {"alpha": "a", "beta": "b", "gamma": "g"}[self.role] + str(self.i)

    @classmethod
    def parse(cls, name: str) -> Optional["FamilyLabel"]:
        m = _LABEL_RE.fullmatch(name)
        if not m:
            return None
        try:
            if m.group(1):
                role = {"a": "alpha", "b": "beta", "g": "gamma"}[m.group(1)]
                return cls(role, int(m.group(2)))
            return cls("delta", int(m.group(3)), int(m.group(4)), int(m.group(5)))
        except (BadIndex, ValueError):  # ValueError: past int()'s digit limit
            return None

    @classmethod
    def alpha(cls, i: int) -> "FamilyLabel":
        return cls("alpha", i)

    @classmethod
    def beta(cls, i: int) -> "FamilyLabel":
        return cls("beta", i)

    @classmethod
    def gamma(cls, i: int) -> "FamilyLabel":
        return cls("gamma", i)

    @classmethod
    def delta(cls, i: int, j: int, p: int) -> "FamilyLabel":
        return cls("delta", i, j, p)


def gen_core(k: int) -> ParityGame:
    """The bare chain-of-gadgets core with ``6k + 3`` positions.

    Index layout: ``a_i -> 3i``, ``b_i -> 3i + 1``, ``g_i -> 3i + 2``.
    Level ``i`` carries priorities ``2k + i + 1`` (entry) and ``i``
    (relay and hub); entries and relays are owned by ``i mod 2``, hubs by
    the other player.  Moves: ``a_i -> b_i``; ``b_i -> g_i`` and, for
    ``i > 0``, ``b_i -> a_{i-1}``; ``g_i -> b_i``, ``g_i -> g_i`` and,
    for ``i < 2k``, ``g_i -> a_{i+1}``.
    """
    if k < 1:
        raise BadIndex(f"k must be >= 1, got {k}")
    owners: list[int] = []
    priorities: list[int] = []
    successors: list[list[int]] = []
    labels: list[FamilyLabel] = []

    def a(i: int) -> int:
        return 3 * i

    def b(i: int) -> int:
        return 3 * i + 1

    def g(i: int) -> int:
        return 3 * i + 2

    for i in range(2 * k + 1):
        owners.append(i % 2)
        priorities.append(2 * k + i + 1)
        successors.append([b(i)])
        labels.append(FamilyLabel.alpha(i))

        owners.append(i % 2)
        priorities.append(i)
        successors.append([g(i)] + ([a(i - 1)] if i > 0 else []))
        labels.append(FamilyLabel.beta(i))

        owners.append((i + 1) % 2)
        priorities.append(i)
        successors.append([b(i), g(i)] + ([a(i + 1)] if i < 2 * k else []))
        labels.append(FamilyLabel.gamma(i))

    return ParityGame(owners, priorities, successors, labels=labels)


def gen_scc(k: int) -> ParityGame:
    """The core plus hub connectors; ``3k^2 + 8k + 3`` positions.

    For every pair of levels ``i < j`` there is one connector per player
    ``p`` with ``p = i mod 2 = j mod 2`` when the parities agree, and two
    mutually linked connectors (one per player) when they differ.  A
    connector for player ``p`` is owned by ``p``, has priority 0 and is
    linked back and forth with each hub ``g_l`` (``l`` in ``{i, j}``)
    whose level parity equals ``p``.  Connectors are appended after the
    core in lexicographic ``(i, j, p)`` order.
    """
    if k < 1:
        raise BadIndex(f"k must be >= 1, got {k}")
    core = gen_core(k)
    owners = list(core.owners)
    priorities = list(core.priorities)
    successors = [list(row) for row in core.successors]
    labels = list(core.labels or ())
    hub = {lab.i: v for v, lab in enumerate(labels) if lab.role == "gamma"}

    n = len(owners)
    for i in range(2 * k + 1):
        for j in range(i + 1, 2 * k + 1):
            ps = (i % 2,) if i % 2 == j % 2 else (0, 1)
            idx_of = {}
            for p in ps:
                idx_of[p] = n
                owners.append(p)
                priorities.append(0)
                hubs = [hub[l] for l in (i, j) if l % 2 == p]
                successors.append(hubs)
                for h in hubs:
                    successors[h].append(n)
                labels.append(FamilyLabel.delta(i, j, p))
                n += 1
            if len(ps) == 2:
                successors[idx_of[0]].append(idx_of[1])
                successors[idx_of[1]].append(idx_of[0])

    return ParityGame(owners, priorities, successors, labels=labels)


def gen_random(n: int, seed: int) -> ParityGame:
    """Small uniform random game with a fixed seed (test plumbing).

    Owners are uniform, priorities uniform below ``n``, and each position
    gets one to three distinct successors.
    """
    if n < 1:
        raise BadIndex(f"n must be >= 1, got {n}")
    rng = random.Random(seed)
    owners = [rng.randrange(2) for _ in range(n)]
    priorities = [rng.randrange(n) for _ in range(n)]
    successors = []
    for _ in range(n):
        deg = rng.randint(1, min(3, n))
        successors.append(rng.sample(range(n), deg))
    return ParityGame(owners, priorities, successors)


class FamilyIndex:
    """Label-to-index lookup for a game whose positions carry labels."""

    __slots__ = ("k", "alpha", "beta", "gamma", "delta", "core_mask", "extension_mask")

    def __init__(self, game: ParityGame) -> None:
        if game.labels is None:
            raise BadIndex("game carries no labels")
        alpha: dict[int, int] = {}
        beta: dict[int, int] = {}
        gamma: dict[int, int] = {}
        delta: dict[tuple[int, int, int], int] = {}
        core_mask = 0
        extension_mask = 0
        for v, lab in enumerate(game.labels):
            if isinstance(lab, FamilyLabel):
                if lab.role == "alpha":
                    alpha[lab.i] = v
                    core_mask |= 1 << v
                elif lab.role == "beta":
                    beta[lab.i] = v
                    core_mask |= 1 << v
                elif lab.role == "gamma":
                    gamma[lab.i] = v
                    core_mask |= 1 << v
                else:
                    delta[(lab.i, lab.j, lab.p)] = v
                    extension_mask |= 1 << v
            else:
                extension_mask |= 1 << v
        if not alpha:
            raise BadIndex("game has no entry labels")
        object.__setattr__(self, "k", max(alpha) // 2)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "core_mask", core_mask)
        object.__setattr__(self, "extension_mask", extension_mask)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("FamilyIndex is immutable")

    def __delattr__(self, name):  # pragma: no cover - defensive
        raise AttributeError("FamilyIndex is immutable")


def check_core_extension(game: ParityGame, k: int) -> Report:
    """Check the four conditions for a labelled game to extend the core.

    1. the core-labelled positions match ``gen_core(k)`` position by
       position under the label mapping: the same labels, each once, with
       the same owner, priority and set of core successors, so removing
       the non-core positions leaves exactly ``gen_core(k)``;
    2. every non-core position has priority below the lowest entry
       priority ``2k + 1``;
    3. no moves connect non-core positions with entries or relays in
       either direction;
    4. every non-core successor ``q`` of a hub ``g_i`` is owned by
       ``i mod 2``, moves back to ``g_i`` and has priority at most ``i``.
    """
    if k < 1:
        raise BadIndex(f"k must be >= 1, got {k}")
    rep = Report()
    ref = gen_core(k)
    # one scan finds the core: every position with an alpha, beta or gamma label
    core: dict[int, FamilyLabel] = {}
    core_mask = ab_mask = 0  # ab_mask: the entries and relays
    hubs: list[tuple[int, int]] = []  # (position, level)
    for v, lab in enumerate(game.labels or ()):
        if isinstance(lab, FamilyLabel) and lab.role != "delta":
            core[v] = lab
            core_mask |= 1 << v
            if lab.role == "gamma":
                hubs.append((v, lab.i))
            else:
                ab_mask |= 1 << v
    if Counter(core.values()) != Counter(ref.labels):
        rep.add("game", "core-intact", False, f"core labels differ from gen_core({k})'s")
        return rep

    ref_index = {lab: r for r, lab in enumerate(ref.labels)}
    witness = None
    for v, lab in core.items():
        r = ref_index[lab]
        got = {game.labels[s] for s in game.successors[v] if core_mask >> s & 1}
        if game.owners[v] != ref.owners[r] or game.priorities[v] != ref.priorities[r]:
            witness = f"{lab}: owner/priority differ from gen_core({k})"
        elif got != {ref.labels[s] for s in ref.successors[r]}:
            witness = f"{lab}: core moves differ from gen_core({k})"
        if witness is not None:
            break
    rep.add("game", "core-intact", witness is None, witness)

    ext_mask = game.full_mask & ~core_mask

    floor = 2 * k + 1
    bad = [v for v in range(game.n) if (1 << v) & ext_mask and game.priorities[v] >= floor]
    rep.add(
        "game",
        "extension-priorities-low",
        not bad,
        f"position {bad[0]} has priority {game.priorities[bad[0]]}" if bad else None,
    )

    offenders = []
    for v in range(game.n):
        bit = 1 << v
        if bit & ext_mask and game.succ_masks[v] & ab_mask:
            offenders.append(v)
        if bit & ab_mask and game.succ_masks[v] & ext_mask:
            offenders.append(v)
    rep.add(
        "game",
        "no-entry-relay-moves",
        not offenders,
        f"position {offenders[0]} crosses between extension and entry/relay" if offenders else None,
    )

    guard_witness = None
    for gi, i in hubs:
        for q in game.successors[gi]:
            if not (1 << q) & ext_mask:
                continue
            if game.owners[q] != i % 2:
                guard_witness = f"successor {q} of g{i} has the wrong owner"
            elif not game.succ_masks[q] >> gi & 1:
                guard_witness = f"successor {q} of g{i} has no move back"
            elif game.priorities[q] > i:
                guard_witness = f"successor {q} of g{i} has priority above {i}"
            if guard_witness is not None:
                break
        if guard_witness is not None:
            break
    rep.add("game", "hub-neighbour-guard", guard_witness is None, guard_witness)
    return rep
