"""Tree structure, strategies, matches and strategic-form conversions."""

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamepowers.games import (
    ExtensiveGame,
    FunctionalStrategy,
    GameFormatError,
    InputError,
    Player,
    RelationalStrategy,
    StrategicGame,
    enumerate_strategies,
    game,
    game_from_json,
    game_to_json,
    guided_matches,
    joint_match,
    leaf,
    load_game,
    node,
    outcome_set,
    strategic_from_json,
    strategic_to_json,
    to_strategic_form,
    validate_game,
)
from helpers import (
    alternating_tree,
    check_strategy,
    double_move_then_b_choice,
    forgetful_chooser,
    is_perfect_information,
    one_then_two_or_three,
    single_move_then_b_choice,
    strategic_isomorphic,
    strategic_to_extensive,
    two_or_three_after_one,
    zero_one_matrix_2x3,
)


def test_valid_fixture_games_pass_validation():
    for g in (
        one_then_two_or_three(),
        two_or_three_after_one(),
        single_move_then_b_choice(),
        double_move_then_b_choice(),
    ):
        assert validate_game(g) == []
        assert is_perfect_information(g)


def test_sibling_downward_closure_violation():
    g = ExtensiveGame(
        ("x",),
        frozenset([(), (0,), (0, 1)]),
        {(): Player.A, (0,): Player.B},
        {(0, 1): "x"},
        (((),), ((0,),)),
    )
    rules = {v.rule for v in validate_game(g)}
    assert "sibling-downward-closure" in rules


def test_prefix_closure_violation():
    g = ExtensiveGame(
        ("x",),
        frozenset([(), (0, 0)]),
        {(): Player.A},
        {(0, 0): "x"},
        (((),),),
    )
    rules = {v.rule for v in validate_game(g)}
    assert "prefix-closure" in rules


# specs game() must refuse, with the rule validate_game flags for each
MALFORMED_SPECS = (
    # two internal nodes with different child counts forced into one cell
    (("x", "y"), node("A", [
        node("A", [leaf("x")], info="i"),
        node("A", [leaf("x"), leaf("y")], info="i"),
    ]), "cell-mixed-child-count"),
    (("x", "y"), node("A", [
        node("A", [leaf("x"), leaf("y")], info="i"),
        node("B", [leaf("x"), leaf("y")], info="i"),
    ]), "cell-mixed-turn"),
    (("x",), node("A", [leaf("z")]), "unknown-outcome-label"),
    (("w",), leaf("zz"), "unknown-outcome-label"),
    (("x", "x"), leaf("x"), "duplicate-outcome-labels"),
)


def test_cell_constraints_checked():
    a, b = Player.A, Player.B
    g = ExtensiveGame(
        ("x", "y"),
        frozenset([(), (0,), (1,), (0, 0), (1, 0), (1, 1)]),
        {(): a, (0,): a, (1,): a},
        {(0, 0): "x", (1, 0): "x", (1, 1): "y"},
        (((),), ((0,), (1,))),
    )
    rules = {v.rule for v in validate_game(g)}
    assert "cell-mixed-child-count" in rules
    g2 = ExtensiveGame(
        ("x", "y"),
        frozenset([(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]),
        {(): a, (0,): a, (1,): b},
        {(0, 0): "x", (0, 1): "y", (1, 0): "x", (1, 1): "y"},
        (((),), ((0,), (1,))),
    )
    assert "cell-mixed-turn" in {v.rule for v in validate_game(g2)}


def test_turn_and_outcome_totality_checks():
    g = ExtensiveGame(
        ("x",),
        frozenset([(), (0,), (1,)]),
        {},
        {(0,): "x"},
        (((),),),
    )
    rules = {v.rule for v in validate_game(g)}
    assert "turn-missing" in rules
    assert "outcome-missing" in rules


def test_unknown_outcome_label_flagged():
    g = ExtensiveGame(
        ("x",),
        frozenset([(), (0,)]),
        {(): Player.A},
        {(0,): "z"},
        (((),),),
    )
    assert "unknown-outcome-label" in {v.rule for v in validate_game(g)}


def test_rootless_games_and_outcomes_on_internal_nodes_flagged():
    # no tree spec builds these: a spec always has a root, and a node with
    # an outcome is a leaf
    rootless = ExtensiveGame(
        ("x",), frozenset([(0,)]), {}, {(0,): "x"}, ()
    )
    assert "missing-root" in {v.rule for v in validate_game(rootless)}
    labelled = ExtensiveGame(
        ("x",),
        frozenset([(), (0,)]),
        {(): Player.A},
        {(): "x", (0,): "x"},
        (((),),),
    )
    assert [str(v) for v in validate_game(labelled)] == ["outcome-on-internal at ε"]


@pytest.mark.parametrize("outcomes,spec,rule", MALFORMED_SPECS)
def test_game_rejects_what_validation_flags(outcomes, spec, rule):
    with pytest.raises(GameFormatError, match=rule):
        game(outcomes, spec)
    with pytest.raises(GameFormatError, match=rule):
        game_from_json({"outcomes": list(outcomes), "tree": spec})


def test_strategy_enumeration_counts():
    g = double_move_then_b_choice()
    assert len(enumerate_strategies(g, Player.B)) == 4
    assert len(enumerate_strategies(g, Player.B, relational=True)) == 9
    assert len(enumerate_strategies(g, Player.A)) == 2
    # a player without nodes still has exactly one (empty) strategy
    solo = game(["x", "y"], node("A", [leaf("x"), leaf("y")]))
    only = enumerate_strategies(solo, Player.B)
    assert len(only) == 1 and only[0].choice == {}
    assert len(enumerate_strategies(solo, Player.B, relational=True)) == 1


def test_strategy_enumeration_is_deterministic_and_valid():
    g = two_or_three_after_one()
    first = enumerate_strategies(g, Player.A)
    second = enumerate_strategies(g, Player.A)
    assert first == second
    for s in first:
        assert check_strategy(g, s) == []
    rel = enumerate_strategies(g, Player.A, relational=True)
    assert rel == enumerate_strategies(g, Player.A, relational=True)
    for s in rel:
        assert check_strategy(g, s) == []


def test_strategies_constant_on_cells():
    g = strategic_to_extensive(zero_one_matrix_2x3())
    for s in enumerate_strategies(g, Player.B):
        assert len({s.choice[n] for n in s.choice}) <= 1
    assert len(enumerate_strategies(g, Player.B)) == 3


def test_guided_matches_functional_profile_unique():
    g = two_or_three_after_one()
    for sa in enumerate_strategies(g, Player.A):
        for sb in enumerate_strategies(g, Player.B):
            both = set(guided_matches(g, sa)) & set(guided_matches(g, sb))
            assert len(both) == 1
            assert joint_match(g, sa, sb) in both


def test_guided_matches_respect_strategy():
    g = one_then_two_or_three()
    take_one = FunctionalStrategy(Player.A, {(): 0})
    assert guided_matches(g, take_one) == ((0,),)
    hand_over = FunctionalStrategy(Player.A, {(): 1})
    assert guided_matches(g, hand_over) == ((1, 0), (1, 1))
    assert outcome_set(g, hand_over) == {"2", "3"}


def test_relational_matches_refine_functional():
    g = one_then_two_or_three()
    wide = RelationalStrategy(Player.A, {(): (0, 1)})
    narrow = FunctionalStrategy(Player.A, {(): 0})
    assert set(guided_matches(g, narrow)) <= set(guided_matches(g, wide))
    assert outcome_set(g, wide) == {"1", "2", "3"}


def test_strategic_form_of_worked_games():
    sg = to_strategic_form(one_then_two_or_three())
    assert sg.matrix == (("1", "1"), ("2", "3"))
    sg2 = to_strategic_form(two_or_three_after_one())
    assert sorted(sg2.matrix) == [
        ("1", "1"),
        ("1", "3"),
        ("2", "1"),
        ("2", "3"),
    ]
    reference = StrategicGame(
        ["1", "2", "3"],
        ["s0", "s1", "s2", "s3"],
        ["t0", "t1"],
        [["1", "1"], ["2", "1"], ["1", "3"], ["2", "3"]],
    )
    assert strategic_isomorphic(sg2, reference)


def test_strategic_isomorphism_negative():
    a = StrategicGame(["0", "1"], ["r"], ["c"], [["0"]])
    b = StrategicGame(["0", "1"], ["r"], ["c"], [["1"]])
    assert not strategic_isomorphic(a, b)
    c = StrategicGame(["0", "1"], ["r0", "r1"], ["c"], [["0"], ["1"]])
    assert not strategic_isomorphic(a, c)


def test_strategic_roundtrip_isomorphic():
    sg = zero_one_matrix_2x3()
    back = to_strategic_form(strategic_to_extensive(sg))
    assert back.matrix == sg.matrix
    assert strategic_isomorphic(back, sg)


def test_a_strategic_form_past_its_bound_is_refused_before_a_strategy_is_listed(monkeypatch):
    # the depth-8 tree: 2^85 strategies for A and 2^170 for B
    with pytest.raises(InputError) as caught:
        to_strategic_form(alternating_tree(8))
    assert str(caught.value) == f"strategy profiles must be between 0 and 262144, got {2**255}"
    # the depth-3 tree has 32 x 4 profiles: at the bound they are tabulated,
    # one past it they are refused
    games = sys.modules["gamepowers.games"]
    monkeypatch.setattr(games, "_MAX_CLOSURE", 128)
    assert len(to_strategic_form(alternating_tree(3)).rows) == 32
    monkeypatch.setattr(games, "_MAX_CLOSURE", 127)
    with pytest.raises(InputError, match="between 0 and 127, got 128$"):
        to_strategic_form(alternating_tree(3))
    # a shared cell's moves count once: A's three nodes are two cells
    monkeypatch.setattr(games, "_MAX_CLOSURE", 4)
    assert len(to_strategic_form(forgetful_chooser()).rows) == 4


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 3))
    labels = ["u", "v", "w"]
    matrix = [
        [labels[draw(st.integers(0, 2))] for _ in range(cols)]
        for _ in range(rows)
    ]
    return StrategicGame(
        labels, [f"r{i}" for i in range(rows)], [f"c{j}" for j in range(cols)],
        matrix,
    )


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_strategic_roundtrip_property(sg):
    g = strategic_to_extensive(sg)
    assert validate_game(g) == []
    back = to_strategic_form(g)
    assert back.matrix == sg.matrix


def test_game_json_roundtrip():
    for g in (
        one_then_two_or_three(),
        strategic_to_extensive(zero_one_matrix_2x3()),
    ):
        assert game_from_json(game_to_json(g)) == g


def test_game_json_shared_cells_preserved():
    g = game(
        ["x", "y"],
        node(
            "B",
            [
                node("A", [leaf("x"), leaf("y")], info="k"),
                node("A", [leaf("y"), leaf("x")], info="k"),
            ],
        ),
    )
    clone = game_from_json(game_to_json(g))
    assert clone == g
    assert any(len(c) == 2 for c in clone.cells)


def test_bad_game_json_rejected():
    with pytest.raises(GameFormatError):
        game_from_json({"outcomes": ["x"]})
    with pytest.raises(GameFormatError):
        game_from_json({"outcomes": ["x"], "tree": {"player": "C", "children": []}})
    with pytest.raises(GameFormatError):
        game_from_json({"outcomes": ["x"], "tree": {"player": "A", "children": []}})
    with pytest.raises(GameFormatError):
        # leaf label outside the declared outcome set
        game_from_json({"outcomes": ["x"], "tree": {"outcome": "y"}})


def test_load_game_sniffs_layout(tmp_path):
    p1 = tmp_path / "g.json"
    p1.write_text(json.dumps(game_to_json(one_then_two_or_three())))
    assert isinstance(load_game(str(p1)), ExtensiveGame)
    p2 = tmp_path / "m.json"
    p2.write_text(json.dumps(strategic_to_json(zero_one_matrix_2x3())))
    assert isinstance(load_game(str(p2)), StrategicGame)
    p3 = tmp_path / "bad.json"
    p3.write_text("{notjson")
    with pytest.raises(GameFormatError):
        load_game(str(p3))
    p4 = tmp_path / "odd.json"
    p4.write_text(json.dumps({"outcomes": []}))
    with pytest.raises(GameFormatError):
        load_game(str(p4))


def test_strategic_from_json_validates():
    with pytest.raises(GameFormatError):
        strategic_from_json(
            {"outcomes": ["0"], "rows": ["r"], "cols": ["c"], "matrix": [["1"]]}
        )
    with pytest.raises(GameFormatError):
        strategic_from_json(
            {"outcomes": ["0"], "rows": [], "cols": ["c"], "matrix": []}
        )
