"""Induced subgame tree construction and the structural verification suites."""

import pytest

from paritylab import (
    GameError,
    NotCoreExtension,
    ParityGame,
    Subgame,
    TooLarge,
    TreeLabel,
    build_induced_tree,
    gen_core,
    gen_random,
    gen_scc,
    is_dominion,
    min_core_dominion,
    oracle_solve,
    solve,
    verify_algorithm_correspondence,
    verify_distinctness,
    verify_single_scc,
    verify_tree_invariants,
)

from conftest import mk, names


def test_tree_label_validation():
    assert str(TreeLabel.plain("")) == "G[eps]"
    assert str(TreeLabel.hat("LR")) == "G^[LR]"
    with pytest.raises(ValueError):
        TreeLabel("L", "root")
    with pytest.raises(ValueError):
        TreeLabel.plain("LX")
    with pytest.raises(ValueError):
        TreeLabel.hat("")


def test_tree_shape():
    t = build_induced_tree(gen_core(1), 1)
    assert len(t) == 9
    words = {(l.word, l.kind) for l in t}
    assert words == {
        ("", "plain"), ("L", "plain"), ("R", "plain"),
        ("L", "hat"), ("R", "hat"),
        ("LL", "hat"), ("LR", "hat"), ("RL", "hat"), ("RR", "hat"),
    }
    assert repr(t) == "InducedTree(k=1, nodes=9)"


def test_tree_is_frozen_and_compares_by_identity():
    t = build_induced_tree(gen_core(1), 1)
    with pytest.raises(AttributeError):
        t.k = 2
    assert t.k == 1
    twin = build_induced_tree(t.game, 1)
    assert t == t and t != twin and len({t, twin}) == 2


CORE1_TREE = {
    ("", "plain"): ["a0", "a1", "a2", "b0", "b1", "b2", "g0", "g1", "g2"],
    ("L", "hat"): ["a0", "a1", "b0", "b1", "b2", "g0", "g1", "g2"],
    ("L", "plain"): ["a0", "b0", "b1", "g0", "g1", "g2"],
    ("R", "hat"): ["a0", "a1", "b0", "b1", "g0"],
    ("R", "plain"): ["a0", "b0", "b1", "g0"],
    ("LL", "hat"): ["b0", "g0", "g1", "g2"],
    ("LR", "hat"): ["b1", "g1"],
    ("RL", "hat"): ["b0", "g0"],
    ("RR", "hat"): [],
}

SCC1_TREE = {
    ("", "plain"): [
        "a0", "a1", "a2", "b0", "b1", "b2",
        "d0_1_0", "d0_1_1", "d0_2_0", "d1_2_0", "d1_2_1",
        "g0", "g1", "g2",
    ],
    ("L", "hat"): [
        "a0", "a1", "b0", "b1", "b2",
        "d0_1_0", "d0_1_1", "d0_2_0", "d1_2_0", "d1_2_1",
        "g0", "g1", "g2",
    ],
    ("L", "plain"): [
        "a0", "b0", "b1",
        "d0_1_0", "d0_1_1", "d0_2_0", "d1_2_0", "d1_2_1",
        "g0", "g1", "g2",
    ],
    ("R", "hat"): ["a0", "a1", "b0", "b1", "d0_1_0", "d0_1_1", "g0"],
    ("R", "plain"): ["a0", "b0", "b1", "d0_1_0", "d0_1_1", "g0"],
    ("LL", "hat"): [
        "b0", "d0_1_0", "d0_1_1", "d0_2_0", "d1_2_0", "d1_2_1",
        "g0", "g1", "g2",
    ],
    ("LR", "hat"): ["b1", "d0_1_1", "d1_2_1", "g1"],
    ("RL", "hat"): ["b0", "d0_1_0", "d0_1_1", "g0"],
    ("RR", "hat"): [],
}


@pytest.mark.parametrize(
    "gen,expected", [(gen_core, CORE1_TREE), (gen_scc, SCC1_TREE)], ids=["core", "scc"]
)
def test_tree_alive_sets_at_k1(gen, expected):
    g = gen(1)
    t = build_induced_tree(g, 1)
    got = {(l.word, l.kind): names(g, t[l]) for l in t}
    assert got == expected


def test_right_hat_child_removals(core1):
    t = build_induced_tree(core1, 1)
    root = t[TreeLabel.plain("")].alive
    hat_r = t[TreeLabel.hat("R")].alive
    assert names(core1, root - hat_r) == ["a2", "b2", "g1", "g2"]


def test_left_hat_win_region_is_frozen(scc1):
    t = build_induced_tree(scc1, 1)
    w0 = t.w0_of(TreeLabel.hat("L"))
    assert names(scc1, w0) == ["b2", "d0_2_0", "d1_2_0", "g2"]


def test_left_hat_win_region_is_certified(scc1):
    # both halves of the split are dominions of their winners, which
    # pins the region exactly (no smaller or larger set qualifies)
    t = build_induced_tree(scc1, 1)
    hat_l = t[TreeLabel.hat("L")]
    w0 = t.w0_of(TreeLabel.hat("L"))
    assert is_dominion(hat_l, w0, 0)
    assert is_dominion(hat_l, hat_l.alive - w0, 1)


@pytest.mark.parametrize("gen", [gen_core, gen_scc], ids=["core", "scc"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_invariants_and_correspondence_pass(gen, k):
    t = build_induced_tree(gen(k), k)
    inv = verify_tree_invariants(t)
    assert inv.passed, str(inv)
    cor = verify_algorithm_correspondence(t)
    assert cor.passed, str(cor)


@pytest.mark.parametrize("gen", [gen_core, gen_scc], ids=["core", "scc"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_all_tree_nodes_are_distinct(gen, k):
    t = build_induced_tree(gen(k), k)
    count, witness_failures = verify_distinctness(t)
    assert count == 3 * (2 ** (k + 1) - 1)
    assert count == len(t)
    assert witness_failures == []


def test_build_rejects_unlabelled_games():
    with pytest.raises(NotCoreExtension):
        build_induced_tree(gen_random(9, seed=1), 1)


def _drop_move(game, frm, to):
    succ = [list(r) for r in game.successors]
    succ[frm].remove(to)
    return ParityGame(game.owners, game.priorities, succ, labels=game.labels)


def test_mutated_hub_is_rejected_up_front():
    g = gen_core(2)
    g3 = next(v for v in range(g.n) if str(g.labels[v]) == "g3")
    with pytest.raises(NotCoreExtension):
        build_induced_tree(_drop_move(g, g3, g3), 2)


def test_mutated_hub_breaks_distinctness_not_invariants():
    # with validation off the tree still builds; the damage shows up as
    # collapsed subgames and failed hub witnesses, while the per-node
    # invariants (windows, floors, win shapes) all still hold
    g = gen_core(2)
    g3 = next(v for v in range(g.n) if str(g.labels[v]) == "g3")
    t = build_induced_tree(_drop_move(g, g3, g3), 2, validate=False)
    assert verify_tree_invariants(t).passed
    count, witness_failures = verify_distinctness(t)
    assert count == 20  # one pair of nodes collapsed, down from 21
    assert witness_failures  # and the separating hub witness names it


def test_lost_hub_label_shows_up_as_witnesses():
    # a hub whose label is gone is reported missing, not raised as KeyError
    g = gen_core(2)
    labels = ["x" if str(label) == "g3" else label for label in g.labels]
    lost = ParityGame(g.owners, g.priorities, g.successors, labels=labels)
    t = build_induced_tree(lost, 2, validate=False)
    count, witness_failures = verify_distinctness(t)
    assert count == 21
    assert "g3 missing from G^[L]" in witness_failures
    assert all(w.startswith("g3 missing from ") for w in witness_failures)


def test_single_scc_fails_on_bare_core(core1):
    t = build_induced_tree(core1, 1)
    rep = verify_single_scc(t)
    broken = {f.node: f.witness for f in rep.failures if f.item == "single-component"}
    assert broken["G^[LL]"] == "3 components"
    # no connectors in the bare core, so pairing is vacuously fine
    assert all(f.passed for f in rep.items if f.item == "connector-pairing")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_single_scc_failure_shape_on_connector_family(k):
    # the construction strands connectors whose partner hubs die in a
    # right step: exactly the plain nodes at words ending in R split,
    # and every pairing violation names a connector at level pair (0, odd)
    t = build_induced_tree(gen_scc(k), k)
    rep = verify_single_scc(t)
    split = {f.node for f in rep.failures if f.item == "single-component"}
    assert split == {f"G[{w.word}]" for w in _plain_trailing_r(k)}
    assert len(split) == 2 ** k - 1
    pairing = [f for f in rep.failures if f.item == "connector-pairing"]
    assert pairing
    assert all(f.witness.startswith("d0_") for f in pairing)
    hats = [f for f in rep.items if f.item == "single-component" and "^" in f.node]
    assert all(f.passed for f in hats)


def _plain_trailing_r(k):
    from itertools import product

    out = []
    for length in range(1, k + 1):
        for tup in product("LR", repeat=length - 1):
            out.append(TreeLabel.plain("".join(tup) + "R"))
    return out


def test_min_core_dominion_values(core1, scc1):
    assert min_core_dominion(Subgame.whole(core1), 1, 3) == 2
    assert min_core_dominion(Subgame.whole(scc1), 1, 5) == 4
    assert min_core_dominion(Subgame.whole(scc1), 1, 3) is None


def test_min_core_dominion_grows_with_k():
    assert min_core_dominion(Subgame.whole(gen_scc(2)), 2, 7) == 6


def test_min_core_dominion_guards(core1):
    with pytest.raises(ValueError):
        min_core_dominion(Subgame.whole(core1), 1, 0)
    with pytest.raises(GameError):
        min_core_dominion(Subgame.whole(core1), 2, 3)  # labelled for k=1


def test_oracle_on_tiny_games():
    g = mk([0], [2], [[0]])
    regions = oracle_solve(Subgame.whole(g))
    assert regions.of(0).mask == 0b1
    g = mk([1], [1], [[0]])
    regions = oracle_solve(Subgame.whole(g))
    assert regions.of(1).mask == 0b1


def test_oracle_rejects_large_games():
    with pytest.raises(TooLarge):
        oracle_solve(Subgame.whole(gen_random(13, seed=0)))


def test_oracle_agrees_with_solver_on_tree_nodes(core1, scc1):
    for g in (core1, scc1):
        t = build_induced_tree(g, 1)
        for label in t:
            sub = t[label]
            if len(sub) > 12:
                continue
            assert oracle_solve(sub) == solve(sub)[0], str(label)


def test_oracle_agrees_on_random_batch():
    for seed in range(25):
        sub = Subgame.whole(gen_random(7, seed=seed))
        assert oracle_solve(sub) == solve(sub)[0], f"seed {seed}"
