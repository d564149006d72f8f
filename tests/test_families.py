"""Generators, role labels and the extension checker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritylab import (
    BadIndex,
    FamilyIndex,
    FamilyLabel,
    ParityGame,
    check_core_extension,
    gen_core,
    gen_random,
    gen_scc,
)


def test_core_shape():
    for k in (1, 2, 3, 5):
        g = gen_core(k)
        assert g.n == 6 * k + 3
        assert g.move_count == 12 * k + 4


def test_core_wiring_spot_checks(core1):
    g = core1
    idx = FamilyIndex(g)
    assert idx.k == 1
    # entry priorities sit above everything else, ascending with level
    assert [g.priorities[idx.alpha[i]] for i in range(3)] == [3, 4, 5]
    assert [g.priorities[idx.beta[i]] for i in range(3)] == [0, 1, 2]
    # the entry has a single move to its relay
    assert g.successors[idx.alpha[2]] == (idx.beta[2],)
    # relays move down, hubs move up
    assert set(g.successors[idx.beta[1]]) == {idx.gamma[1], idx.alpha[0]}
    assert set(g.successors[idx.gamma[0]]) == {idx.beta[0], idx.gamma[0], idx.alpha[1]}
    # owners alternate; hubs belong to the other player
    assert g.owners[idx.alpha[1]] == 1
    assert g.owners[idx.beta[1]] == 1
    assert g.owners[idx.gamma[1]] == 0


def test_scc_shape():
    for k in (1, 2, 3, 4):
        g = gen_scc(k)
        assert g.n == 3 * k * k + 8 * k + 3


def test_scc_connector_wiring():
    g = gen_scc(2)
    idx = FamilyIndex(g)
    # same-parity levels share one connector owned by that parity
    assert (0, 2, 0) in idx.delta and (0, 2, 1) not in idx.delta
    assert (1, 3, 1) in idx.delta and (1, 3, 0) not in idx.delta
    # mixed-parity levels get a mutually linked pair
    d0 = idx.delta[(0, 1, 0)]
    d1 = idx.delta[(0, 1, 1)]
    assert d1 in g.successors[d0] and d0 in g.successors[d1]
    # each connector talks only to hubs of its own parity, both ways
    assert set(g.successors[d0]) == {idx.gamma[0], d1}
    assert set(g.successors[d1]) == {idx.gamma[1], d0}
    both = idx.delta[(0, 2, 0)]
    assert set(g.successors[both]) == {idx.gamma[0], idx.gamma[2]}
    assert g.owners[both] == 0 and g.priorities[both] == 0
    # hub side of the link exists too
    assert both in g.successors[idx.gamma[0]] and both in g.successors[idx.gamma[2]]


def test_scc_core_prefix_is_the_core_game():
    core, ext = gen_core(2), gen_scc(2)
    assert ext.owners[: core.n] == core.owners
    assert ext.priorities[: core.n] == core.priorities
    for v in range(core.n):
        kept = tuple(s for s in ext.successors[v] if s < core.n)
        assert kept == core.successors[v]


def test_core_growth_only_lifts_entry_priorities():
    # going from k to k+1 shifts every entry up by two and leaves the
    # shared relays and hubs untouched
    for k in (1, 2, 3):
        small, big = gen_core(k), gen_core(k + 1)
        si, bi = FamilyIndex(small), FamilyIndex(big)
        for i in range(2 * k + 1):
            assert big.priorities[bi.alpha[i]] == small.priorities[si.alpha[i]] + 2
            assert big.priorities[bi.beta[i]] == small.priorities[si.beta[i]]
            assert big.priorities[bi.gamma[i]] == small.priorities[si.gamma[i]]


def test_gen_rejects_bad_k():
    with pytest.raises(BadIndex):
        gen_core(0)
    with pytest.raises(BadIndex):
        gen_scc(-1)


def test_label_str_and_parse_roundtrip():
    cases = [
        FamilyLabel.alpha(0),
        FamilyLabel.beta(12),
        FamilyLabel.gamma(3),
        FamilyLabel.delta(0, 1, 1),
        FamilyLabel.delta(2, 4, 0),
    ]
    for label in cases:
        assert FamilyLabel.parse(str(label)) == label
    assert FamilyLabel.parse("x7") is None
    assert FamilyLabel.parse("d1_1_0") is None  # i == j never exists


def test_label_validation():
    with pytest.raises(BadIndex):
        FamilyLabel("alpha", -1)
    with pytest.raises(BadIndex):
        FamilyLabel("delta", 2, 1, 0)  # needs i < j
    with pytest.raises(BadIndex):
        FamilyLabel("delta", 0, 2, 1)  # same parity pair must match it
    with pytest.raises(BadIndex):
        FamilyLabel("omega", 1)


def test_gen_random_is_seeded_and_left_total():
    a = gen_random(8, seed=5)
    b = gen_random(8, seed=5)
    assert a.successors == b.successors
    assert a.priorities == b.priorities
    assert gen_random(8, seed=6).successors != a.successors
    assert all(len(r) >= 1 for r in a.successors)


def test_family_index_masks(scc1):
    idx = FamilyIndex(scc1)
    assert idx.core_mask == (1 << 9) - 1
    assert idx.extension_mask == scc1.full_mask ^ idx.core_mask
    assert len(idx.delta) == 5  # pairs (0,1)x2, (0,2), (1,2)x2


def test_family_index_is_immutable(core1):
    idx = FamilyIndex(core1)
    gamma = idx.gamma
    with pytest.raises(AttributeError, match="FamilyIndex is immutable"):
        idx.gamma = {}
    with pytest.raises(AttributeError, match="FamilyIndex is immutable"):
        del idx.gamma
    assert idx.gamma is gamma


def test_check_core_extension_accepts_families():
    for k in (1, 2, 3):
        assert check_core_extension(gen_core(k), k).passed
        assert check_core_extension(gen_scc(k), k).passed


def _rebuild(game, owners=None, priorities=None, successors=None, labels=None):
    return ParityGame(
        owners or game.owners,
        priorities or game.priorities,
        successors or [list(r) for r in game.successors],
        labels=labels or game.labels,
    )


def _edit(seq, changes):
    # a list copy of ``seq`` with the entries at the given positions replaced
    out = list(seq)
    for v, value in changes.items():
        out[v] = value
    return out


def test_check_core_extension_flags_high_extension_priority(scc1):
    prs = list(scc1.priorities)
    prs[9] = 9  # connector outranks every entry
    report = check_core_extension(_rebuild(scc1, priorities=prs), 1)
    assert not report.passed
    assert any(i.item == "extension-priorities-low" for i in report.failures)


def test_check_core_extension_flags_extension_move_to_relay(scc1):
    succ = [list(r) for r in scc1.successors]
    succ[9].append(1)  # connector reaches a relay
    report = check_core_extension(_rebuild(scc1, successors=succ), 1)
    assert not report.passed
    assert any(i.item == "no-entry-relay-moves" for i in report.failures)


def test_check_core_extension_flags_hub_escape_without_return(scc1):
    succ = [list(r) for r in scc1.successors]
    succ[9].remove(2)  # g0 -> d0_1_0 stays, the way back is gone
    report = check_core_extension(_rebuild(scc1, successors=succ), 1)
    assert not report.passed


def test_check_core_extension_flags_core_tampering(core1):
    # core1 positions: a0 b0 g0 a1 b1 g1 a2 b2 g2 = 0..8
    g = core1
    succ = [list(r) for r in g.successors]
    labs = g.labels
    cases = {
        "self-loop-dropped": _rebuild(g, successors=_edit(succ, {5: [4, 6]})),
        "owner-flipped": _rebuild(g, owners=_edit(g.owners, {4: 0})),
        "priority-changed": _rebuild(g, priorities=_edit(g.priorities, {5: 3})),
        "labels-swapped": _rebuild(g, labels=_edit(labs, {0: labs[1], 1: labs[0]})),
        "non-family-label": _rebuild(g, labels=_edit(labs, {8: "x8"})),
        "label-duplicated": _rebuild(g, labels=_edit(labs, {7: labs[6]})),
        "extra-core-move": _rebuild(g, successors=_edit(succ, {0: [1, 2]})),
    }
    for name, game in cases.items():
        report = check_core_extension(game, 1)
        assert "core-intact" in {i.item for i in report.failures}, name


def test_check_core_extension_stops_at_a_wrong_label_set(core1):
    # when the core labels are not gen_core(k)'s, the report is one
    # failed core-intact item and nothing else
    g = core1
    labs = g.labels
    cases = {
        "unlabelled": ParityGame(g.owners, g.priorities, g.successors),
        "label-dropped": _rebuild(g, labels=_edit(labs, {4: None})),
        "level-beyond-2k": _rebuild(g, labels=_edit(labs, {8: FamilyLabel.gamma(3)})),
        "k-too-small": gen_core(2),
    }
    for name, game in cases.items():
        report = check_core_extension(game, 1)
        assert [(i.item, i.passed) for i in report.items] == [("core-intact", False)], name


def test_check_core_extension_item_names():
    report = check_core_extension(gen_scc(2), 2)
    assert [i.item for i in report.items] == [
        "core-intact",
        "extension-priorities-low",
        "no-entry-relay-moves",
        "hub-neighbour-guard",
    ]


def test_check_core_extension_ignores_connector_labels():
    # the core is checked under its labels; connector labels play no part
    g = gen_scc(2)
    idx = FamilyIndex(g)
    u, v = idx.delta[(0, 1, 0)], idx.delta[(1, 3, 1)]
    labels = _edit(g.labels, {u: g.labels[v], v: g.labels[u]})
    report = check_core_extension(_rebuild(g, labels=labels), 2)
    assert ("core-intact", True) in [(i.item, i.passed) for i in report.items]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5))
def test_scc_games_are_core_extensions_property(k):
    assert check_core_extension(gen_scc(k), k).passed
