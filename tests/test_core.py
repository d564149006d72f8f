"""Arena construction and the mask-set operators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritylab import (
    EmptyGame,
    NotAGame,
    OutOfSubgame,
    ParityGame,
    Player,
    PositionSet,
    Subgame,
    attractor,
    gen_core,
    gen_random,
    is_dominion,
    max_priority,
    predecessor,
    remove,
)

from paritylab.core import _attractor_mask, _cycle_heads, _predecessor_mask

from conftest import mk


# a small arena used throughout:
#   0 (owner 0, pr 2) -> 1, 2
#   1 (owner 1, pr 1) -> 0, 2
#   2 (owner 1, pr 0) -> 2
TRIANGLE = ([0, 1, 1], [2, 1, 0], [[1, 2], [0, 2], [2]])


def test_rejects_bad_owner():
    with pytest.raises(ValueError, match="owner"):
        mk([2], [0], [[0]])


def test_rejects_negative_priority():
    with pytest.raises(ValueError, match="priority"):
        mk([0], [-1], [[0]])


def test_rejects_successor_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        mk([0, 1], [0, 1], [[1], [2]])


def test_rejects_position_without_moves():
    with pytest.raises(NotAGame):
        mk([0, 1], [0, 1], [[1], []])


def test_successors_deduplicated_in_order():
    g = mk([0], [0], [[0, 0, 0]])
    assert g.successors == ((0,),)
    g2 = mk([0, 0], [0, 0], [[1, 0, 1], [0]])
    assert g2.successors[0] == (1, 0)


def test_game_is_immutable():
    g = mk(*TRIANGLE)
    with pytest.raises(AttributeError):
        g.n = 5


def test_move_count_and_masks():
    g = mk(*TRIANGLE)
    assert g.n == 3
    assert g.move_count == 5
    assert g.full_mask == 0b111
    assert g.owner_masks == (0b001, 0b110)
    assert g.succ_masks[0] == 0b110


def test_position_set_algebra():
    g = mk(*TRIANGLE)
    a = PositionSet(g, 0b011)
    b = PositionSet(g, 0b110)
    assert (a | b).mask == 0b111
    assert (a & b).mask == 0b010
    assert (a - b).mask == 0b001
    assert a.indices() == (0, 1)
    assert 1 in a and 2 not in a
    assert len(a) == 2 and bool(a)
    assert not PositionSet(g, 0)
    assert PositionSet.full(g).mask == g.full_mask


def test_position_set_rejects_foreign_bits():
    g = mk(*TRIANGLE)
    with pytest.raises(Exception):
        PositionSet(g, 0b1000)


def test_subgame_validates_left_totality():
    g = mk(*TRIANGLE)
    Subgame(g, PositionSet(g, 0b011))  # 0 and 1 feed each other
    Subgame(g, PositionSet(g, 0b100))  # the self-loop alone
    with pytest.raises(NotAGame):
        Subgame(g, PositionSet(g, 0b001))  # 0 alone has nowhere to go


def test_empty_subgame_is_allowed():
    g = mk(*TRIANGLE)
    sub = Subgame(g, PositionSet(g, 0))
    assert sub.is_empty and len(sub) == 0


def test_max_priority_holders():
    g = mk(*TRIANGLE)
    pr, holders = max_priority(Subgame.whole(g))
    assert pr == 2 and holders.indices() == (0,)
    pr2, holders2 = max_priority(Subgame(g, PositionSet(g, 0b110)))
    assert pr2 == 1 and holders2.indices() == (1,)


def test_max_priority_empty_raises():
    g = mk(*TRIANGLE)
    with pytest.raises(EmptyGame):
        max_priority(Subgame(g, PositionSet(g, 0)))


def test_predecessor_owner_some_vs_opponent_all():
    g = mk(*TRIANGLE)
    sub = Subgame.whole(g)
    target = PositionSet(g, 0b100)  # just the sink
    # player 1: position 1 (owner 1) has some move to 2; position 0 is
    # owner 0 and can escape to 1, so it is not forced
    assert predecessor(sub, target, 1).indices() == (1, 2)
    # player 0: position 0 chooses into the target; 1 (opponent) keeps
    # the escape to 0
    assert predecessor(sub, target, 0).indices() == (0, 2)


def test_predecessor_of_empty_is_empty():
    g = mk(*TRIANGLE)
    sub = Subgame.whole(g)
    assert not predecessor(sub, PositionSet(g, 0), 0)


def test_attractor_simple_chain():
    g = mk(*TRIANGLE)
    sub = Subgame.whole(g)
    # the sink pulls in everyone: 1 jumps in, then 0 is surrounded
    assert attractor(sub, PositionSet(g, 0b100), 1).mask == 0b111
    assert attractor(sub, PositionSet(g, 0b100), 0).mask == 0b111
    # {1} discriminates: 0 walks in for player 0 but escapes to 2
    # against player 1, and no player-1 position reaches 1 at all
    assert attractor(sub, PositionSet(g, 0b010), 0).mask == 0b011
    assert attractor(sub, PositionSet(g, 0b010), 1).mask == 0b010


def test_attractor_contains_seed_and_requires_inside():
    g = gen_core(1)
    sub = Subgame.whole(g)
    seed = PositionSet(g, 1 << 4)
    assert seed.issubset(attractor(sub, seed, 0))
    inner = remove(sub, attractor(sub, seed, 0))
    with pytest.raises(OutOfSubgame):
        attractor(inner, seed, 0)


def test_remove_complement_of_attractor_is_valid(whole_core1, core1):
    seed = PositionSet(core1, 1 << 6)  # a2
    sub = remove(whole_core1, attractor(whole_core1, seed, 1))
    assert len(sub) == 8  # the worked 8-position left child


def test_remove_can_raise_not_a_game():
    g = mk(*TRIANGLE)
    sub = Subgame.whole(g)
    with pytest.raises(NotAGame):
        remove(sub, PositionSet(g, 0b110))  # strands 0 with no moves


def test_is_dominion_relay_hub_pair():
    g = gen_core(2)
    sub = Subgame.whole(g)
    b4 = next(v for v in range(g.n) if str(g.labels[v]) == "b4")
    g4 = next(v for v in range(g.n) if str(g.labels[v]) == "g4")
    pair = PositionSet(g, 1 << b4 | 1 << g4)
    assert is_dominion(sub, pair, 0)
    assert not is_dominion(sub, pair, 1)
    # the hub alone is not one: its owner exits to the relay
    assert not is_dominion(sub, PositionSet(g, 1 << g4), 0)


def test_is_dominion_rejects_empty():
    g = mk(*TRIANGLE)
    with pytest.raises(EmptyGame):
        is_dominion(Subgame.whole(g), PositionSet(g, 0), 0)


def test_player_enum():
    assert Player.EVEN.opponent is Player.ODD
    assert Player.ODD.opponent is Player.EVEN
    assert int(Player.EVEN) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 9), st.integers(0, 1))
def test_attractor_is_a_closure(seed, n, p):
    g = gen_random(n, seed)
    sub = Subgame.whole(g)
    target = PositionSet(g, (seed % g.full_mask) or 1)
    a = attractor(sub, target, p)
    assert target.issubset(a)
    assert attractor(sub, a, p) == a  # idempotent
    assert predecessor(sub, a, p).issubset(a)  # a fixpoint of one-step forcing
    remove(sub, a)  # the complement always stays a playable game


def _least_fixpoint(g, alive, seed, p):
    # the attractor by its definition: iterate one-step forcing from seed
    a = seed
    while True:
        nxt = a | _predecessor_mask(g, alive, a, p)
        if nxt == a:
            return a
        a = nxt


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(1, 40),
    st.booleans(),
    st.integers(0, 2**40 - 1),
    st.integers(0, 1),
    st.integers(0, 2**40 - 1),
    st.integers(0, 1),
)
def test_attractor_is_the_least_fixpoint(game_seed, n, whole, cut, q, pick, p):
    g = gen_random(n, game_seed)
    alive = g.full_mask
    if not whole:
        # the complement of an attractor is a subgame
        alive &= ~_least_fixpoint(g, alive, cut & alive, q)
    seed = pick & alive
    assert _attractor_mask(g, alive, seed, p) == _least_fixpoint(g, alive, seed, p)


def _heads_by_simple_cycles(prs, step, within, parity):
    # the cycle rule by its definition: x is a head when some simple
    # cycle through x, inside ``within``, has maximum priority prs[x] of
    # the given parity
    n = len(prs)
    heads = 0
    for x in range(n):
        if not within >> x & 1 or prs[x] & 1 != parity:
            continue
        stack = [(x, 1 << x, prs[x])]  # (end of path, path, max on path)
        while stack and not heads >> x & 1:
            v, path, top = stack.pop()
            for s in range(n):
                if not (step[v] >> s & 1 and within >> s & 1):
                    continue
                if s == x:
                    if top == prs[x]:
                        heads |= 1 << x
                elif not path >> s & 1:
                    stack.append((s, path | 1 << s, max(top, prs[s])))
    return heads


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 7), st.data())
def test_cycle_heads_match_simple_cycles(n, data):
    prs = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    step = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    within = data.draw(st.integers(0, (1 << n) - 1))
    for parity in (0, 1):
        want = _heads_by_simple_cycles(prs, step, within, parity)
        assert _cycle_heads(prs, step, within, parity) == want
        # the certifier hands in one step mask per position of ``within``
        only = {v: step[v] for v in range(n) if within >> v & 1}
        assert _cycle_heads(prs, only, within, parity) == want
