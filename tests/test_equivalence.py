"""Game equivalences, the implication hierarchy and model bisimulations."""

import sys
from itertools import product
from random import Random

import pytest

from gamepowers.equivalence import (
    POWER,
    SEMI,
    STRATEGIC,
    STRONG,
    EquivalenceVerdict,
    InvalidModelError,
    _bisimulation,
    hierarchy_audit,
    instantial_bisimilar,
    power_bisimilar,
    power_equivalent,
    semi_strongly_equivalent,
    strategic_form_equivalent,
    strongly_equivalent,
)
from gamepowers.algebra import op_dual, op_plus, op_times, random_game
from gamepowers.games import StrategicGame, game, leaf, node, to_strategic_form
from gamepowers.models import (
    GAME_FRAME,
    INSTANTIAL_FRAME,
    NeighborhoodModel,
    encode_game_as_model,
    random_model,
)
from helpers import (
    double_move_then_b_choice,
    doubled_model,
    one_then_two_or_three,
    oracle_profile_bisimulation,
    outcome_valuation,
    reference_bisimulation,
    renamed_model,
    single_move_then_b_choice,
    strategy_bisimulation_check,
    two_or_three_after_one,
    zero_one_matrix_2x3,
    zero_one_matrix_3x3,
    with_valuation,
)


def test_three_outcome_pair_power_equal_but_not_strong_or_semi():
    g1, g2 = one_then_two_or_three(), two_or_three_after_one()
    assert power_equivalent(g1, g2)
    strong = strongly_equivalent(g1, g2)
    assert not strong
    assert strong.witness == {
        "player": "A",
        "member": ["1", "2"],
        "only_in": "second",
    }
    semi = semi_strongly_equivalent(g1, g2)
    assert not semi
    assert semi.witness["player"] == "A"


def test_b_choice_pair_strong_fails_with_exact_witness():
    g1, g2 = single_move_then_b_choice(), double_move_then_b_choice()
    strong = strongly_equivalent(g1, g2)
    assert not strong
    assert strong.witness == {
        "player": "B",
        "member": ["x", "y"],
        "only_in": "second",
    }
    assert semi_strongly_equivalent(g1, g2)
    assert power_equivalent(g1, g2)


def test_identical_games_equivalent_at_every_level():
    g = one_then_two_or_three()
    for fn in (
        power_equivalent,
        strongly_equivalent,
        semi_strongly_equivalent,
        strategic_form_equivalent,
    ):
        assert fn(g, g)


def test_mismatched_outcomes_rejected():
    with pytest.raises(ValueError):
        power_equivalent(one_then_two_or_three(), single_move_then_b_choice())


def test_matrix_pair_strong_but_not_strategic():
    g1, g2 = zero_one_matrix_3x3(), zero_one_matrix_2x3()
    assert strongly_equivalent(g1, g2)
    verdict = strategic_form_equivalent(g1, g2)
    assert not verdict
    assert verdict.witness["game"] in (1, 2)
    assert len(verdict.witness["profile"]) == 2


def test_strategic_equivalence_tolerates_duplicated_rows():
    g1 = StrategicGame(["0", "1"], ["a0"], ["b0", "b1"], [["0", "1"]])
    g2 = StrategicGame(
        ["0", "1"], ["a0", "a1"], ["b0", "b1"], [["0", "1"], ["0", "1"]]
    )
    verdict = strategic_form_equivalent(g1, g2)
    assert verdict
    pairs = {tuple(p) for p in verdict.witness["bisimulation"]}
    assert ("a0", "b0", "a1", "b0") in pairs


def _seeded_game_pairs(n):
    # a small max_cost keeps the strategic forms small enough for the oracle
    for seed in range(n):
        outcomes = ("0", "1", "2") if seed % 3 == 0 else ("0", "1")
        a = random_game(seed, max_cost=8, outcomes=outcomes)
        b = random_game(seed + 5000, max_cost=8, outcomes=outcomes)
        yield a, b
        yield op_plus(a, b), op_plus(b, a)
        yield op_times(a, b), op_times(b, a)
        yield op_dual(op_dual(a)), a


def test_strategic_equivalence_matches_the_definition():
    seen = {True: 0, False: 0}
    for g1, g2 in _seeded_game_pairs(75):
        verdict = strategic_form_equivalent(g1, g2)
        total, relation = oracle_profile_bisimulation(
            to_strategic_form(g1), to_strategic_form(g2)
        )
        assert verdict.verdict == total
        if verdict:
            assert {tuple(p) for p in verdict.witness["bisimulation"]} == relation
        else:
            side = 2 * (verdict.witness["game"] - 1)
            covered = {r[side:side + 2] for r in relation}
            assert tuple(verdict.witness["profile"]) not in covered
        seen[total] += 1
    assert seen[True] >= 150 and seen[False] >= 40


def test_strategic_equivalence_accepts_extensive_inputs():
    g = single_move_then_b_choice()
    assert strategic_form_equivalent(g, g)


def test_strategy_bisimulation_identity_relation():
    g = two_or_three_after_one()
    ident = [(o, o) for o in g.outcomes]
    assert strategy_bisimulation_check(g, g, ident)


def test_strategy_bisimulation_respects_renaming():
    g1 = game(["1", "2"], node("A", [leaf("1"), leaf("2")]))
    g2 = game(["x", "y"], node("A", [leaf("x"), leaf("y")]))
    assert strategy_bisimulation_check(g1, g2, [("1", "x"), ("2", "y")])
    verdict = strategy_bisimulation_check(g1, g2, [("1", "x"), ("2", "x")])
    assert not verdict
    assert verdict.witness["side"] == "second"


def test_verdict_json_shape():
    v = strongly_equivalent(
        single_move_then_b_choice(), double_move_then_b_choice()
    )
    data = v.to_json()
    assert data["relation"] == STRONG
    assert data["verdict"] is False
    assert data["witness"]["member"] == ["x", "y"]
    assert bool(EquivalenceVerdict("x", True)) is True


# -- model bisimulations ----------------------------------------------------------


def _encoded(g, kind):
    m, root = encode_game_as_model(g, kind)
    return with_valuation(m, outcome_valuation(g.outcomes)), root


def test_power_bisimilar_plain_encodings_of_power_equal_pair():
    m1, r1 = _encoded(one_then_two_or_three(), "plain")
    m2, r2 = _encoded(two_or_three_after_one(), "plain")
    verdict = power_bisimilar(m1, r1, m2, r2)
    assert verdict
    assert [r1, r2] in verdict.witness["bisimulation"]


def test_power_bisimilar_fails_across_different_outcomes():
    m1, r1 = _encoded(one_then_two_or_three(), "plain")
    m2, r2 = _encoded(single_move_then_b_choice(), "plain")
    verdict = power_bisimilar(m1, r1, m2, r2)
    assert not verdict
    assert verdict.witness == {"w1": r1, "w2": r2}


def test_instantial_bisimilar_separates_basic_encodings():
    m1, r1 = _encoded(single_move_then_b_choice(), "basic")
    m2, r2 = _encoded(double_move_then_b_choice(), "basic")
    assert not instantial_bisimilar(m1, r1, m2, r2)


def test_instantial_bisimilar_on_relational_encodings():
    m1, r1 = _encoded(single_move_then_b_choice(), "relational")
    m2, r2 = _encoded(double_move_then_b_choice(), "relational")
    assert instantial_bisimilar(m1, r1, m2, r2)


def test_bisimulation_rejects_invalid_frames():
    bad = NeighborhoodModel(
        ["w", "u"],
        [("w", ["w"]), ("u", ["u"])],
        [("w", ["w"]), ("u", ["u"])],
        {},
    )
    with pytest.raises(InvalidModelError):
        power_bisimilar(bad, "w", bad, "w")
    # the same model is a perfectly good instantial frame
    assert instantial_bisimilar(bad, "w", bad, "w")


def test_bisimulation_rejects_unknown_worlds():
    m, r = _encoded(one_then_two_or_three(), "basic")
    with pytest.raises(ValueError):
        instantial_bisimilar(m, "nope", m, r)


def test_atomic_disagreement_blocks_bisimilarity():
    m1 = NeighborhoodModel(["w"], [("w", ["w"])], [("w", ["w"])], {"p": ["w"]})
    m2 = NeighborhoodModel(["v"], [("v", ["v"])], [("v", ["v"])], {"p": []})
    assert not instantial_bisimilar(m1, "w", m2, "v")
    m3 = NeighborhoodModel(["v"], [("v", ["v"])], [("v", ["v"])], {"p": ["v"]})
    assert instantial_bisimilar(m1, "w", m3, "v")


# -- hierarchy ---------------------------------------------------------------------


def test_hierarchy_audit_on_fixture_pairs():
    pairs = [
        (one_then_two_or_three(), two_or_three_after_one()),
        (single_move_then_b_choice(), double_move_then_b_choice()),
        (zero_one_matrix_3x3(), zero_one_matrix_2x3()),
        (one_then_two_or_three(), one_then_two_or_three()),
    ]
    for g1, g2 in pairs:
        report = hierarchy_audit(g1, g2)
        assert report.consistent
        assert set(report.verdicts) == {POWER, STRONG, SEMI, STRATEGIC}


def test_hierarchy_audit_expected_verdicts():
    report = hierarchy_audit(one_then_two_or_three(), two_or_three_after_one())
    flags = {k: bool(v) for k, v in report.verdicts.items()}
    assert flags == {POWER: True, STRONG: False, SEMI: False, STRATEGIC: False}
    data = report.to_json()
    assert data["consistent"] is True
    assert data["violations"] == []


def test_hierarchy_audit_random_pairs_stay_consistent():
    from gamepowers.powers import random_family_pair  # noqa: F401  (import check)

    rng = Random(99)
    fixtures = [
        one_then_two_or_three(),
        two_or_three_after_one(),
    ]
    for _ in range(10):
        g1, g2 = rng.choice(fixtures), rng.choice(fixtures)
        assert hierarchy_audit(g1, g2).consistent


def test_hierarchy_audit_builds_basic_powers_once_per_player(monkeypatch):
    # the package-level name powers is the function, not the module
    powers_module = sys.modules["gamepowers.powers"]
    calls = []
    tree_powers = powers_module._tree_powers

    def counted(g, p, relational):
        calls.append(relational)
        return tree_powers(g, p, relational)

    monkeypatch.setattr(powers_module, "_tree_powers", counted)
    g = random_game(Random(5), 3, 2, ("x", "y", "z"))
    assert hierarchy_audit(g, g).consistent
    # basic and relational powers of two games for two players; building the
    # plain powers anew from the tree made 12
    assert len(calls) == 8
    assert calls.count(True) == 4


@pytest.mark.parametrize("frame", [GAME_FRAME, INSTANTIAL_FRAME])
def test_model_bisimulations_match_the_pair_fixpoint(frame):
    # each model against a random model and against a renamed or doubled
    # copy: the whole relation must equal the reference's, and both
    # verdicts must occur
    instantial = frame == INSTANTIAL_FRAME
    bisimilar = power_bisimilar if frame == GAME_FRAME else instantial_bisimilar
    verdicts = set()
    for seed in range(60):
        atoms = ("p", "q")[: 1 + seed % 2]
        m1 = random_model(seed, frame, max_worlds=3 + seed % 2, atoms=atoms)
        if seed % 2:
            copy, name = renamed_model(m1)
            copied = {(w, name[w]) for w in m1.worlds}
        else:
            copy = doubled_model(m1, plain=not instantial)
            copied = {(w, v) for w in m1.worlds for v in (w, w + "'")}
        other = random_model(1000 + seed, frame, max_worlds=4, atoms=atoms)
        for m2 in (copy, other):
            relation = _bisimulation(m1, m2, instantial)
            assert relation == reference_bisimulation(m1, m2, instantial)
            for w1, w2 in product(m1.worlds, m2.worlds):
                verdict = bisimilar(m1, w1, m2, w2)
                assert verdict.verdict == ((w1, w2) in relation)
                verdicts.add(verdict.verdict)
                if verdict:
                    pairs = [list(p) for p in sorted(relation)]
                    assert verdict.witness["bisimulation"] == pairs
        assert copied <= _bisimulation(m1, copy, instantial)
    assert verdicts == {True, False}
