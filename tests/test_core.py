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
    Regions,
    Subgame,
    attractor,
    gen_core,
    gen_random,
    is_dominion,
    max_priority,
    predecessor,
    remove,
    solve,
)

from paritylab.core import _attractor_mask, _cycle_heads, _max_priority_mask, _predecessor_mask

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


@pytest.mark.parametrize(
    "args,message",
    [
        (([0, 5], [-1, 0], [[0], [1]]), "position 0: priority"),
        (([0, 5], [0, 0], [[2], [1]]), "position 0: successor 2 out of range"),
    ],
    ids=["priority-before-later-owner", "successor-before-later-owner"],
)
def test_faults_are_reported_in_position_order(args, message):
    # each position is checked in full before the next one
    with pytest.raises(ValueError, match=message):
        mk(*args)


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"labels": ["a"]}, "labels must have one entry per position"),
        ({"source_ids": [7]}, "source_ids must have one entry per position"),
        ({"source_ids": [7, 8, 9]}, "source_ids must have one entry per position"),
        ({"source_ids": [5, 5]}, "position 1: source id 5 is also position 0's"),
        ({"source_ids": [-1, 3]}, "position 0: source id -1 is negative"),
    ],
    ids=["extra0", "extra1", "extra2", "repeated-id", "negative-id"],
)
def test_rejects_labels_or_source_ids_of_the_wrong_length(extra, message):
    # a game built with them would fail later, in write_pgsolver or
    # label_of, or in parse_pgsolver on the text write_pgsolver gives
    with pytest.raises(ValueError, match=message):
        ParityGame([0, 1], [0, 1], [[1], [0]], **extra)


def test_successors_deduplicated_in_order():
    g = mk([0], [0], [[0, 0, 0]])
    assert g.successors == ((0,),)
    g2 = mk([0, 0], [0, 0], [[1, 0, 1], [0]])
    assert g2.successors[0] == (1, 0)


def test_game_is_immutable():
    g = mk(*TRIANGLE)
    with pytest.raises(AttributeError):
        g.n = 5
    for attr in ("n", "packed"):
        with pytest.raises(AttributeError, match="ParityGame is immutable"):
            delattr(g, attr)
    with pytest.raises(AttributeError):
        g.packed = b""
    assert len(g) == 3 and g.packed is None


@pytest.mark.parametrize(
    "make, attr",
    [
        (lambda g: PositionSet(g, 0b011), "mask"),
        (lambda g: Subgame.whole(g), "alive"),
        (lambda g: Regions(PositionSet(g, 0b011), PositionSet(g, 0b100)), "w0"),
    ],
    ids=["PositionSet", "Subgame", "Regions"],
)
def test_values_are_immutable(make, attr):
    value = make(mk(*TRIANGLE))
    before = getattr(value, attr)
    with pytest.raises(AttributeError):
        setattr(value, attr, before)
    assert getattr(value, attr) is before


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
    with pytest.raises(OutOfSubgame, match="mask 0b1000 has bits outside the game"):
        PositionSet(g, 0b1000)


def test_subgame_validates_left_totality():
    g = mk(*TRIANGLE)
    Subgame(g, PositionSet(g, 0b011))  # 0 and 1 feed each other
    Subgame(g, PositionSet(g, 0b100))  # the self-loop alone
    with pytest.raises(NotAGame, match="position 0 would have no alive successor"):
        Subgame(g, PositionSet(g, 0b001))  # 0 alone has nowhere to go
    with pytest.raises(ValueError, match="alive set belongs to a different master game"):
        Subgame(g, PositionSet(mk(*TRIANGLE), 0b100))


def test_values_compare_by_game_identity_and_mask():
    g, twin = mk(*TRIANGLE), mk(*TRIANGLE)
    a, b = PositionSet(g, 0b011), PositionSet(g, 0b011)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != PositionSet(g, 0b001)
    # the same mask on a structurally identical game is another set
    assert a != PositionSet(twin, 0b011)
    assert len({a, b, PositionSet(twin, 0b011)}) == 2

    s, t = Subgame(g, a), Subgame(g, b)
    assert s == t and hash(s) == hash(t)
    assert s != Subgame(g, PositionSet(g, 0b100))
    assert s != Subgame(twin, PositionSet(twin, 0b011))

    w1 = PositionSet(g, 0b100)
    r = Regions(a, w1)
    assert r == Regions(b, w1) and hash(r) == hash(Regions(b, w1))
    assert r != Regions(w1, a)
    assert r != Regions(a, PositionSet(g, 0))
    assert r != Regions(PositionSet(twin, 0b011), PositionSet(twin, 0b100))


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


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 40), st.integers(1, 2**40 - 1))
def test_priority_cursor_matches_a_full_scan(game_seed, n, pick):
    g = gen_random(n, game_seed)
    assert all(g.priority_levels[g.level_of[v]][0] == g.priorities[v] for v in range(n))
    alive = pick & g.full_mask or 1 << pick % n
    pr, holders, i = want = _max_priority_mask(g, alive)
    assert g.priority_levels[i][0] == pr == max(g.priorities[v] for v in range(n) if alive >> v & 1)
    for lo in range(i + 1):
        assert _max_priority_mask(g, alive, lo) == want


def test_priority_cursor_falls_back_on_the_positions():
    # one alive position of the lowest of six levels: a scan of one level
    # from any cursor short of it misses, so the position gives the level
    g = mk([0] * 6, list(range(6)), [[v] for v in range(6)])
    assert g.level_of == (5, 4, 3, 2, 1, 0)
    for lo in range(6):
        assert _max_priority_mask(g, 0b1, lo) == (0, 0b1, 5)
    assert _max_priority_mask(g, 0b101, 1) == (2, 0b100, 3)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 40), st.booleans(), st.integers(0, 2**40 - 1), st.integers(0, 1))
def test_right_attractor_grows_from_what_the_holders_move_into(game_seed, n, whole, cut, q):
    # the front ``solve`` hands the right step's attractor: the part of
    # the opponent's region that the max-priority holders move into
    g = gen_random(n, game_seed)
    alive = g.full_mask
    if not whole:
        alive &= ~_least_fixpoint(g, alive, cut & alive, q)
    if not alive:
        return
    pr, holders, _ = _max_priority_mask(g, alive)
    p = pr & 1
    a = _attractor_mask(g, alive, holders, p)
    if a == alive:
        return
    regions, _ = solve(Subgame(g, PositionSet(g, alive & ~a)))
    w_opp = regions.of(1 - p).mask
    front = 0
    for v in range(n):
        if holders >> v & 1:
            front |= g.succ_masks[v]
    got = _attractor_mask(g, alive, w_opp, 1 - p, front & w_opp)
    assert got == _least_fixpoint(g, alive, w_opp, 1 - p)


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
        heads = list(_cycle_heads(prs, step, within, parity))
        # distinct single bits, so their sum is their union
        assert all(h & h - 1 == 0 < h for h in heads) and len(set(heads)) == len(heads)
        assert sum(heads) == want
        # the certifier hands in one step mask per position of ``within``
        only = {v: step[v] for v in range(n) if within >> v & 1}
        assert sum(_cycle_heads(prs, only, within, parity)) == want
