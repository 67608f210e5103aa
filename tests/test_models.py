"""Neighborhood models: frames, model checking, game encodings."""

import pytest
from random import Random

from gamepowers.axioms import countermodel_search
from gamepowers.formulas import parse_formula
from gamepowers.games import Player
from gamepowers.models import (
    GAME_FRAME,
    INSTANTIAL_FRAME,
    ModelFormatError,
    NeighborhoodModel,
    encode_game_as_model,
    model_check,
    random_model,
    validate_frame,
)
from gamepowers.powers import (
    CONSISTENCY,
    INSTANTIATEDNESS,
    MONOTONICITY,
    NON_EMPTINESS,
    POWER_KINDS,
)
from helpers import (
    double_move_then_b_choice,
    forgetful_chooser,
    model_check_boxes_exact,
    one_then_two_or_three,
    oracle_frame_conditions,
    outcome_valuation,
    reference_frame_report,
    single_move_then_b_choice,
    two_or_three_after_one,
    with_valuation,
)


def tiny_model():
    return NeighborhoodModel(
        ["w"], [("w", ["w"])], [("w", ["w"])], {"p": ["w"]}
    )


def test_singleton_reflexive_model_is_valid_both_ways():
    m = tiny_model()
    assert validate_frame(m, GAME_FRAME).all_hold
    assert validate_frame(m, INSTANTIAL_FRAME).all_hold


def test_empty_neighborhood_breaks_consistency():
    m = NeighborhoodModel(["w"], [("w", [])], [("w", ["w"])], {})
    prof = validate_frame(m, INSTANTIAL_FRAME)
    assert not prof[CONSISTENCY].holds
    assert prof[CONSISTENCY].witness == {"world": "w", "A": [], "B": ["w"]}
    # nothing on the A side contains w, so B's neighborhood fails too
    assert not prof[INSTANTIATEDNESS].holds


def test_instantiatedness_violation_witness():
    m = NeighborhoodModel(
        ["w", "u"],
        [("w", ["u"]), ("u", ["u"])],
        [("w", ["w"]), ("u", ["u"])],
        {},
    )
    prof = validate_frame(m, INSTANTIAL_FRAME)
    assert not prof[INSTANTIATEDNESS].holds
    assert prof[INSTANTIATEDNESS].witness == {
        "world": "w",
        "player": "A",
        "neighborhood": ["u"],
        "element": "u",
    }


def test_missing_neighborhoods_break_non_emptiness():
    m = NeighborhoodModel(["w", "u"], [("w", ["w"])], [("w", ["w"])], {})
    prof = validate_frame(m, GAME_FRAME)
    assert not prof[NON_EMPTINESS].holds
    assert prof[NON_EMPTINESS].witness["world"] == "u"


def test_monotonicity_checked_within_world_set():
    m = NeighborhoodModel(
        ["w", "u"],
        [("w", ["w"]), ("u", ["u"])],
        [("w", ["w"]), ("u", ["u"])],
        {},
    )
    prof = validate_frame(m, GAME_FRAME)
    assert not prof[MONOTONICITY].holds
    assert prof[MONOTONICITY].witness["superset"] == ["u", "w"]


def test_monotonicity_witness_names_the_smallest_missing_superset():
    # supersets are tried by size, then by label
    worlds = ["w0", "w1", "w2"]
    ra = [(u, worlds) for u in worlds]
    rb = [("w0", []), ("w0", ["w0"]), ("w0", ["w1"])]
    rb += [(u, worlds) for u in worlds[1:]]
    prof = validate_frame(NeighborhoodModel(worlds, ra, rb, {}), GAME_FRAME)
    assert prof[MONOTONICITY].witness == {
        "world": "w0",
        "player": "B",
        "neighborhood": [],
        "superset": ["w2"],
    }


def test_frame_conditions_match_their_definitions():
    rng = Random(2024)
    for _ in range(500):
        worlds = [f"w{i}" for i in range(rng.randint(1, 4))]

        def relation():
            return [
                (u, [w for w in worlds if rng.random() < 0.6])
                for u in worlds
                for _ in range(rng.randint(0, 3))
            ]

        m = NeighborhoodModel(worlds, relation(), relation(), {})
        for kind in (GAME_FRAME, INSTANTIAL_FRAME):
            prof = validate_frame(m, kind)
            got = {name: prof[name].holds for name in prof.names()}
            assert got == oracle_frame_conditions(m, kind)
            # the witnesses too, as the per-world family profiles place them
            assert validate_frame(m, kind).to_json() == reference_frame_report(m, kind)


def test_unknown_frame_kind_rejected():
    with pytest.raises(ValueError):
        validate_frame(tiny_model(), "modal")
    with pytest.raises(ValueError, match="unknown frame kind 'bogus'"):
        random_model(1, "bogus")


def test_model_json_roundtrip():
    m = NeighborhoodModel(
        ["w", "u"],
        [("w", ["w", "u"]), ("u", ["u"])],
        [("w", ["w"]), ("u", ["u"])],
        {"p": ["w"], "q": []},
    )
    assert NeighborhoodModel.from_json(m.to_json()) == m


def test_model_json_rejects_garbage():
    with pytest.raises(ModelFormatError):
        NeighborhoodModel.from_json({"worlds": []})
    with pytest.raises(ModelFormatError):
        NeighborhoodModel.from_json({"worlds": ["w", "w"]})
    with pytest.raises(ModelFormatError):
        NeighborhoodModel.from_json({"worlds": ["w"], "RA": [["v", ["w"]]]})
    with pytest.raises(ModelFormatError):
        NeighborhoodModel.from_json({"worlds": ["w"], "RA": [["w", ["v"]]]})
    with pytest.raises(ModelFormatError):
        NeighborhoodModel.from_json({"worlds": ["w"], "val": {"p": ["v"]}})
    for val in (["p"], {"p": "w"}, {"p": [["w"]]}):
        with pytest.raises(ModelFormatError):
            NeighborhoodModel.from_json({"worlds": ["w"], "val": val})
    for worlds in ([["w"]], [{"w": 1}]):
        with pytest.raises(ModelFormatError):
            NeighborhoodModel.from_json({"worlds": worlds})
    for entry in ([["w"], ["w"]], [{}, ["w"]], ["w", [["w"]]], ["w", "w"]):
        with pytest.raises(ModelFormatError):
            NeighborhoodModel.from_json({"worlds": ["w"], "RB": [entry]})


def test_model_check_basics():
    m = tiny_model()
    assert model_check(m, parse_formula("p")) == {"w"}
    assert model_check(m, parse_formula("!p")) == frozenset()
    assert model_check(m, parse_formula("[A]true")) == {"w"}
    assert model_check(m, parse_formula("[B](p; p)")) == {"w"}
    # an unsatisfiable side condition empties the box
    assert model_check(m, parse_formula("[A](false; true)")) == frozenset()
    assert model_check(m, parse_formula("q")) == frozenset()


def test_model_check_instantial_distinctions():
    left, _ = encode_game_as_model(single_move_then_b_choice(), "basic")
    right, _ = encode_game_as_model(double_move_then_b_choice(), "basic")
    val = outcome_valuation(["x", "y"])
    left = with_valuation(left, val)
    right = with_valuation(right, val)
    probe = parse_formula("[B](px, py; px | py)")
    assert "root" in model_check(right, probe)
    assert "root" not in model_check(left, probe)


def test_encode_one_then_two_or_three_supports_formula():
    g = one_then_two_or_three()
    m, root = encode_game_as_model(g, "basic")
    m = with_valuation(m, outcome_valuation(g.outcomes))
    assert root == "root"
    assert validate_frame(m, INSTANTIAL_FRAME).all_hold
    probe = parse_formula("[A](p2; p2 | p3)")
    assert root in model_check(m, probe)


def test_encode_plain_kind_yields_valid_game_frame():
    for g in (one_then_two_or_three(), two_or_three_after_one()):
        m, root = encode_game_as_model(g, "plain")
        prof = validate_frame(m, GAME_FRAME)
        assert prof.all_hold
        # root's neighborhoods include every superset within the world set
        za = m.neigh(Player.A, root)
        assert frozenset(m.worlds) in za


def test_encode_basic_and_relational_kinds_are_valid_instantial_frames():
    for g in (single_move_then_b_choice(), two_or_three_after_one()):
        for kind in ("basic", "relational"):
            m, _ = encode_game_as_model(g, kind)
            assert validate_frame(m, INSTANTIAL_FRAME).all_hold


@pytest.mark.parametrize("kind", sorted(POWER_KINDS))
def test_encoded_root_neighborhoods_are_the_games_powers(kind):
    # A's shared cell keeps {1} and {4} relational powers without {1,4}, so
    # the root family must not be closed beyond what the game realizes
    g = forgetful_chooser()
    m, root = encode_game_as_model(g, kind)
    for p in (Player.A, Player.B):
        got = set(m.neigh(p, root))
        if kind == "plain":
            # closed upward over the world set, which adds the root itself
            got = {z for z in got if root not in z}
        assert got == set(POWER_KINDS[kind](g, p).member_sets())


def test_encode_root_label_avoids_collisions():
    from gamepowers.games import game, leaf, node

    g = game(["root", "z"], node("A", [leaf("root"), leaf("z")]))
    _, root = encode_game_as_model(g, "basic")
    assert root == "_root"


def test_exact_box_reading_agrees_on_monotone_frames():
    rng = Random(4242)
    for _ in range(25):
        m = random_model(rng, kind=GAME_FRAME, max_worlds=4)
        for text in ("[A]p", "[B](p & q)", "[A]!q", "![B]p | [A]true"):
            f = parse_formula(text)
            assert model_check(m, f) == model_check_boxes_exact(m, f)


def test_exact_box_reading_rejects_side_conditions():
    with pytest.raises(ValueError):
        model_check_boxes_exact(tiny_model(), parse_formula("[A](p; p)"))


def test_random_model_validity_and_determinism():
    for kind in (GAME_FRAME, INSTANTIAL_FRAME):
        m1 = random_model(7, kind=kind, max_worlds=5)
        m2 = random_model(7, kind=kind, max_worlds=5)
        assert m1 == m2
        assert validate_frame(m1, kind).all_hold


@pytest.mark.parametrize("kind", [GAME_FRAME, INSTANTIAL_FRAME])
def test_random_model_rejects_a_world_cap_out_of_range(kind):
    # the same bound and message as countermodel_search, checked before
    # any draw
    for cap in (-1, 0, 9, 40):
        with pytest.raises(ValueError) as got:
            random_model(1, kind, max_worlds=cap)
        with pytest.raises(ValueError) as search:
            countermodel_search("p", max_worlds=cap)
        assert str(got.value) == str(search.value) == (
            f"max_worlds must be between 1 and 8, got {cap}")
    assert validate_frame(random_model(3, kind, max_worlds=8), kind).all_hold


def test_neighborhoods_deduplicate():
    m = NeighborhoodModel(
        ["w"], [("w", ["w"]), ("w", ["w"])], [("w", ["w"])], {}
    )
    assert m.neigh(Player.A, "w") == (frozenset({"w"}),)


def _relation(m, p):
    return [(u, z) for u in m.worlds for z in m.neigh(p, u)]


@pytest.mark.parametrize("kind", [GAME_FRAME, INSTANTIAL_FRAME])
def test_with_valuation_equals_a_model_built_afresh(kind):
    for seed in range(40):
        m = random_model(seed, kind)
        rng = Random(seed)
        val = {a: [w for w in m.worlds if rng.random() < 0.5] for a in ("p", "s")}
        fresh = NeighborhoodModel(
            m.worlds, _relation(m, Player.A), _relation(m, Player.B), val
        )
        swapped = with_valuation(m, val)
        assert swapped == fresh
        assert swapped.to_json() == fresh.to_json()


def test_with_valuation_rejects_worlds_outside_the_model():
    m = random_model(3, INSTANTIAL_FRAME)
    with pytest.raises(ModelFormatError):
        with_valuation(m, {"p": [m.worlds[0], "elsewhere"]})
