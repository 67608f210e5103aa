"""Game operations, terms, and the equation/congruence checkers."""

import math
import pytest
from random import Random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gamepowers.algebra as algebra
from gamepowers import InputError, sample_legal_families
from gamepowers.algebra import (
    OPERATIONS,
    Comp,
    DynamicGame,
    Dual,
    Plus,
    TermParseError,
    Times,
    Var,
    check_congruence,
    check_equation,
    composed_power_relation,
    evaluate,
    format_term,
    identity_dynamic,
    op_dual,
    op_plus,
    op_times,
    parse_term,
    random_dynamic_game,
    random_game,
    relational_power_map,
    seq_compose,
    term_uses_composition,
    term_variables,
)
from gamepowers.equivalence import (
    EquivalenceVerdict,
    semi_strongly_equivalent,
    strongly_equivalent,
)
from gamepowers.formulas import ParseError
from gamepowers.games import (
    GameFormatError,
    Player,
    enumerate_strategies,
    game,
    game_from_json,
    game_to_spec,
    leaf,
    node,
    validate_game,
)
from gamepowers.powers import (
    COMBINE,
    POWER_KINDS,
    PowerFamily,
    _join,
    basic_powers,
    random_family_pair,
    relational_basic_powers,
    upward_closure,
)
from helpers import (
    double_move_then_b_choice,
    is_perfect_information,
    joins,
    one_then_two_or_three,
    reference_term_powers,
    single_move_then_b_choice,
    two_or_three_after_one,
)

O3 = ("1", "2", "3")


def leaf_game(o, outcomes=O3):
    return game(outcomes, leaf(o))


def test_plus_times_rebuild_the_fixture_games():
    l1, l2, l3 = (leaf_game(o) for o in O3)
    assert op_plus(l1, op_times(l2, l3)) == one_then_two_or_three()
    assert op_times(op_plus(l1, l2), op_plus(l1, l3)) == two_or_three_after_one()


def test_plus_unions_basic_powers_of_the_chooser():
    rng = Random(2)
    for _ in range(20):
        g1 = random_game(rng, 3, 2, O3)
        g2 = random_game(rng, 3, 2, O3)
        combined = basic_powers(op_plus(g1, g2), Player.A)
        expected = set(basic_powers(g1, Player.A)) | set(basic_powers(g2, Player.A))
        assert set(combined) == expected


def test_dual_swaps_powers_and_is_an_involution():
    rng = Random(3)
    for _ in range(20):
        g = random_game(rng, 3, 2, ("x", "y"))
        assert op_dual(op_dual(g)) == g
        assert basic_powers(op_dual(g), Player.A) == basic_powers(g, Player.B)


def test_de_morgan_is_exact_on_representations():
    l1, l2, _ = (leaf_game(o) for o in O3)
    assert op_dual(op_plus(l1, l2)) == op_times(op_dual(l1), op_dual(l2))
    assert op_dual(op_times(l1, l2)) == op_plus(op_dual(l1), op_dual(l2))


def test_plus_rejects_mismatched_outcomes():
    with pytest.raises(ValueError):
        op_plus(leaf_game("1"), game(["x"], leaf("x")))


# -- dynamic games -----------------------------------------------------------------


def b_choice_dynamic(states=("x", "y")):
    games = {u: game(states, leaf(u)) for u in states}
    games[states[0]] = game(
        states, node(Player.B, [leaf(states[0]), leaf(states[1])])
    )
    return DynamicGame(states, games)


def test_dynamic_game_validation():
    states = ("x", "y")
    with pytest.raises(ValueError):
        DynamicGame((), {})
    with pytest.raises(ValueError):
        DynamicGame(states, {"x": game(states, leaf("x"))})
    with pytest.raises(ValueError):
        DynamicGame(
            states,
            {
                "x": game(states, leaf("x")),
                "y": game(states, leaf("y")),
                "z": game(states, leaf("x")),
            },
        )
    with pytest.raises(ValueError):
        DynamicGame(states, {"x": game(["z"], leaf("z")), "y": game(states, leaf("y"))})


def test_dynamic_game_json_roundtrip():
    d = b_choice_dynamic()
    assert DynamicGame.from_json(d.to_json()) == d


def test_malformed_dynamic_game_json_is_a_format_error():
    good = b_choice_dynamic().to_json()
    for bad in (
        {"states": ["a"], "games": []},
        {"states": [["a"]], "games": {}},
        {**good, "states": ["x", "x"]},
        {**good, "states": ["x"]},
    ):
        with pytest.raises(GameFormatError):
            DynamicGame.from_json(bad)


def test_identity_is_a_two_sided_unit_for_composition():
    d = random_dynamic_game(9, ("x", "y", "z"))
    ident = identity_dynamic(("x", "y", "z"))
    assert seq_compose(d, ident) == d
    assert seq_compose(ident, d) == d


def test_composition_is_exactly_associative():
    states = ("x", "y")
    d1 = random_dynamic_game(1, states)
    d2 = random_dynamic_game(2, states)
    d3 = random_dynamic_game(3, states)
    assert seq_compose(seq_compose(d1, d2), d3) == seq_compose(
        d1, seq_compose(d2, d3)
    )


def test_one_move_factors_compose_to_the_b_choice_pair():
    states = ("x", "y")
    idle = {u: game(states, leaf(u)) for u in states}
    single = DynamicGame(
        states, {**idle, "x": game(states, node(Player.A, [leaf("x")]))}
    )
    double = DynamicGame(
        states, {**idle, "x": game(states, node(Player.A, [leaf("x"), leaf("x")]))}
    )
    cont = b_choice_dynamic(states)
    assert strongly_equivalent(single.games["x"], double.games["x"])
    left = seq_compose(single, cont).games["x"]
    right = seq_compose(double, cont).games["x"]
    assert left == single_move_then_b_choice()
    assert right == double_move_then_b_choice()
    assert not strongly_equivalent(left, right)
    assert semi_strongly_equivalent(left, right)


def test_composed_power_relation_unit():
    states = ("x", "y")
    d = b_choice_dynamic(states)
    r1 = relational_power_map(d, Player.B)
    ident = {u: PowerFamily(states, [[u]]) for u in states}
    assert composed_power_relation(r1, ident, "x") == r1["x"]


def test_composed_power_relation_matches_brute_force():
    states = ("0", "1", "2")
    rng = Random(17)
    for _ in range(10):
        d1 = random_dynamic_game(rng, states)
        d2 = random_dynamic_game(rng, states)
        composed = seq_compose(d1, d2)
        for p in (Player.A, Player.B):
            r1 = relational_power_map(d1, p)
            r2 = relational_power_map(d2, p)
            for u in states:
                assert composed_power_relation(r1, r2, u) == relational_basic_powers(
                    composed.games[u], p
                )


def test_composed_power_relation_rejects_bad_states():
    d = b_choice_dynamic()
    r = relational_power_map(d, Player.A)
    with pytest.raises(ValueError):
        composed_power_relation(r, {"x": r["x"]}, "x")
    with pytest.raises(ValueError):
        composed_power_relation(r, r, "nope")


# -- terms -------------------------------------------------------------------------


def test_term_precedence_and_associativity():
    t = parse_term("x + y * z o -w")
    assert t == Plus(Var("x"), Times(Var("y"), Comp(Var("z"), Dual(Var("w")))))
    assert parse_term("x o y o z") == Comp(Comp(Var("x"), Var("y")), Var("z"))
    assert parse_term("x + y + z") == Plus(Plus(Var("x"), Var("y")), Var("z"))
    assert parse_term("-(x + y)") == Dual(Plus(Var("x"), Var("y")))
    assert parse_term("--x") == Dual(Dual(Var("x")))


@pytest.mark.parametrize("opening, closing", [("-(", ")"), ("-", "")])
def test_dual_chains_nest_to_the_bound(opening, closing):
    # the parser's own recursion must not end a chain before the bound does
    t = parse_term(opening * 200 + "x" + closing * 200)
    for _ in range(200):
        t = t.sub
    assert t == Var("x")
    with pytest.raises(TermParseError, match="nested more than 200 levels"):
        parse_term(opening * 201 + "x" + closing * 201)


def test_term_format_roundtrip():
    for text in (
        "x + y * z o -w",
        "(x + y) * z",
        "-(x * y)",
        "x o (y o z)",
        "-x + -y",
    ):
        t = parse_term(text)
        assert parse_term(format_term(t)) == t


def _terms():
    # every operation of the table, nested at any precedence; "oo" is a
    # variable, "o" is the composition symbol
    def compound(sub):
        return st.one_of([
            sub.map(op) if op is Dual else st.tuples(sub, sub).map(lambda lr, op=op: op(*lr))
            for op, _ in OPERATIONS.values()
        ])

    return st.recursive(st.sampled_from(["x", "y", "z1", "oo"]).map(Var), compound,
                        max_leaves=10)


@settings(max_examples=400, deadline=None)
@given(_terms())
def test_every_formatted_term_parses_back(t):
    assert parse_term(format_term(t)) == t


def test_term_parse_errors():
    assert issubclass(TermParseError, ParseError)
    for bad in ("x +", "(x", "x)", "o + x", "x ? y", "", "x - y"):
        with pytest.raises(TermParseError):
            parse_term(bad)
    # a bad term names where it fails and which tokens would have fit there
    for bad, pos, expected in (
        ("x +", 3, ("'('", "'-'", "identifier")),
        ("o + x", 0, ("'('", "'-'", "identifier")),
        ("(x", 2, ("')'",)),
        ("x z1", 2, ("end of input",)),
        ("x  ? y", 3, ()),
    ):
        with pytest.raises(TermParseError) as err:
            parse_term(bad)
        assert (err.value.pos, err.value.expected) == (pos, expected)


def test_term_variables_excludes_the_composition_symbol():
    assert term_variables(parse_term("x o y + zed")) == {"x", "y", "zed"}


def test_evaluate_plain_environment():
    l1, l2, _ = (leaf_game(o) for o in O3)
    env = {"x": l1, "y": l2}
    assert evaluate(parse_term("x + y"), env) == op_plus(l1, l2)
    assert evaluate(parse_term("-x * y"), env) == op_times(op_dual(l1), l2)
    with pytest.raises(ValueError):
        evaluate(parse_term("x o y"), env)
    with pytest.raises(ValueError):
        evaluate(parse_term("x + w"), env)


def test_evaluate_dynamic_environment():
    states = ("x", "y")
    d1 = random_dynamic_game(5, states)
    d2 = random_dynamic_game(6, states)
    env = {"a": d1, "b": d2}
    assert evaluate(parse_term("a o b"), env) == seq_compose(d1, d2)
    # + and - act state by state
    assert evaluate(parse_term("a + b"), env) == DynamicGame(
        states, {u: op_plus(d1.games[u], d2.games[u]) for u in states})
    assert evaluate(parse_term("-a"), env) == DynamicGame(
        states, {u: op_dual(d1.games[u]) for u in states})


def test_evaluate_rejects_mixed_and_mismatched_operands():
    states = ("0", "1")
    env = {"a": identity_dynamic(states), "b": game(states, leaf("0")),
           "c": identity_dynamic(("0", "1", "2"))}
    for text in ("a + b", "b + a", "a * b", "a o b", "a + c", "a o c"):
        with pytest.raises(ValueError):
            evaluate(parse_term(text), env)


def _plus_chain(depth):
    t = Var("x")
    for _ in range(depth):
        t = Plus(t, Var("x"))
    return t


def test_term_objects_are_held_to_the_nesting_bound():
    # a term built in Python skips the parser, so the checks bound it themselves
    deep = _plus_chain(600)
    with pytest.raises(ValueError, match="nested more than 200 levels"):
        check_equation(deep, "x", "power", samples=2)
    with pytest.raises(ValueError, match="nested more than 200 levels"):
        evaluate(deep, {"x": leaf_game(O3[0])})
    assert check_equation(_plus_chain(200), "x", "power", samples=2).verdict == "holds-on-sample"


def test_evaluating_a_long_composition_chain_is_bounded():
    # each o grafts a two-leaf choice at every leaf, so the tree doubles;
    # check_equation decides the same chain without building it
    states = ("0", "1", "2")
    choice = node(Player.A, [leaf("0"), leaf("1")])
    branching = DynamicGame(states, {u: game(states, choice) for u in states})
    chain = parse_term(" o ".join(["x"] * 17))
    with pytest.raises(ValueError, match="more than 16384$"):
        evaluate(chain, {"x": branching})


# -- seeded generation -------------------------------------------------------------


def test_random_game_is_deterministic_and_valid():
    for seed in range(30):
        g1 = random_game(seed, 4, 3, ("0", "1", "2"))
        g2 = random_game(seed, 4, 3, ("0", "1", "2"))
        assert g1 == g2
        assert validate_game(g1) == []


def _built_games(seed):
    rng = Random(seed)
    outcomes = ("0", "1", "2")[: 2 + seed % 2]
    a = random_game(rng, 4, 3, outcomes)
    b = random_game(rng, 4, 2, outcomes, perfect_info=True)
    # deep enough that merged cells join nodes of different depths
    c = random_game(rng, 5, 2, outcomes)
    d1 = random_dynamic_game(rng, outcomes, 2, 3)
    d2 = random_dynamic_game(rng, outcomes, 3, 2, perfect_info=True)
    composed = seq_compose(d1, d2)
    yield from (a, b, c, op_plus(a, b), op_times(c, a), op_dual(c))
    for d in (d1, d2, composed, seq_compose(composed, d1)):
        yield from d.games.values()


def test_builders_hand_the_constructor_canonical_parts():
    # every builder's game equals its spec rebuilt by game(), part for part
    # and in the same order, so no builder needs the constructor to sort
    for seed in range(40):
        for g in _built_games(seed):
            h = game(g.outcomes, game_to_spec(g))
            assert (g.outcomes, g.nodes, g.turn, g.outcome) == (
                h.outcomes, h.nodes, h.turn, h.outcome)
            assert g.cells == h.cells
            assert g.internal_nodes == h.internal_nodes
            assert g.leaves == h.leaves
            for w in g.nodes:
                assert g.children(w) == h.children(w)
                assert type(g.children(w)) is tuple


def test_random_game_perfect_info_flag():
    for seed in range(10):
        g = random_game(seed, 4, 3, ("0", "1"), perfect_info=True)
        assert is_perfect_information(g)


def test_random_game_depth_one_is_a_leaf():
    g = random_game(0, 1, 3, ("0", "1"))
    assert g.nodes == {()}


def test_random_game_rejects_bad_caps():
    with pytest.raises(ValueError):
        random_game(0, 0, 2)
    with pytest.raises(ValueError, match="max_depth"):
        random_game(0, 13, 2)
    assert random_game(0, 12, 2).nodes
    # every game costs at least one strategy per player
    with pytest.raises(ValueError, match="max_cost"):
        random_game(0, max_cost=1)


def test_an_empty_outcome_set_is_an_input_error():
    for lhs in ("x + y", "x o y"):
        with pytest.raises(InputError, match="outcomes must be nonempty"):
            check_equation(lhs, "y", "power", seed=0, outcomes=())
    with pytest.raises(InputError, match="outcomes must be nonempty"):
        random_game(1, outcomes=())
    with pytest.raises(InputError, match="states must be nonempty"):
        random_dynamic_game(1, ())


def test_a_bound_message_names_the_bound_and_the_value():
    with pytest.raises(InputError) as got:
        random_game(0, 2, 0)
    assert str(got.value) == "max_branch must be at least 1, got 0"
    with pytest.raises(InputError) as got:
        random_game(0, 13)
    assert str(got.value) == "max_depth must be between 1 and 12, got 13"
    with pytest.raises(InputError) as got:
        sample_legal_families(0, seed=0)
    assert str(got.value) == "o_size must be at least 1, got 0"


def _cell_product(g, cells) -> int:
    # the nonempty move sets of each cell, multiplied over the cells
    return math.prod(2 ** g.num_children(cell[0]) - 1 for cell in cells)


@pytest.mark.parametrize("depth, branch, max_cost", [(4, 3, 4096), (12, 2, 4096), (3, 2, 64)])
def test_drawn_games_keep_their_relational_strategies_within_max_cost(depth, branch, max_cost):
    rng = Random(depth * branch)
    for _ in range(30):
        g = random_game(rng, depth, branch, ("0", "1", "2"), max_cost=max_cost)
        strategies = [_cell_product(g, g.player_cells(p)) for p in Player]
        # basic and relational powers make one pass per assignment to shared cells
        assignments = [
            _cell_product(g, [c for c in g.player_cells(p) if len(c) > 1]) for p in Player
        ]
        assert sum(assignments) <= sum(strategies) <= max_cost
        if max_cost <= 64:
            for p, count in zip(Player, strategies):
                assert len(enumerate_strategies(g, p, relational=True)) == count


def test_random_dynamic_game_deterministic():
    d1 = random_dynamic_game(4, ("a", "b"))
    d2 = random_dynamic_game(4, ("a", "b"))
    assert d1 == d2
    for u in d1.states:
        assert validate_game(d1.games[u]) == []


# -- law checking ------------------------------------------------------------------


def test_commutativity_holds_on_samples():
    r = check_equation("x + y", "y + x", "strong", seed=3, samples=20)
    assert r
    assert r.verdict == "holds-on-sample"
    assert r.samples > 20


def test_times_idempotence_fails_with_the_choice_game():
    r = check_equation("x * x", "x", "strong", seed=1, samples=0, outcomes=("0", "1"))
    assert r.verdict == "counterexample"
    witness_game = game_from_json(r.counterexample["binding"]["x"])
    assert witness_game == game(("0", "1"), node(Player.A, [leaf("0"), leaf("1")]))
    # replay re-verifies: basic {0,1} appears for A only after squaring
    squared = op_times(witness_game, witness_game)
    assert ("0", "1") in basic_powers(squared, Player.A).members
    assert ("0", "1") not in basic_powers(witness_game, Player.A).members


def test_plus_idempotence_depends_on_the_equivalence():
    strong = check_equation("x + x", "x", "strong", seed=1, samples=0, outcomes=("0", "1"))
    assert strong.verdict == "counterexample"
    semi = check_equation("x + x", "x", "semi", seed=1, samples=15, outcomes=("0", "1"))
    assert semi.verdict == "holds-on-sample"


def test_distribution_fails_under_semi():
    r = check_equation("x * (y + z)", "(x * y) + (x * z)", "semi", seed=2, samples=0)
    assert r.verdict == "counterexample"
    binding = {k: game_from_json(v) for k, v in r.counterexample["binding"].items()}
    lhs = evaluate(parse_term("x * (y + z)"), binding)
    rhs = evaluate(parse_term("(x * y) + (x * z)"), binding)
    assert not semi_strongly_equivalent(lhs, rhs)


def test_equation_reports_replay_identically():
    a = check_equation("x * x", "x", "strong", seed=9, samples=5)
    b = check_equation("x * x", "x", "strong", seed=9, samples=5)
    assert a == b
    assert a.to_json() == b.to_json()


def test_dynamic_laws_hold_on_samples():
    for lhs, rhs in (
        ("x o (y o z)", "(x o y) o z"),
        ("-(x o y)", "(-x) o (-y)"),
        ("(x + y) o z", "(x o z) + (y o z)"),
    ):
        assert check_equation(lhs, rhs, "semi", seed=11, samples=15)


def test_equation_rejects_unknown_equivalence():
    with pytest.raises(ValueError):
        check_equation("x", "x", "weak", seed=0)
    with pytest.raises(ValueError):
        check_equation("x", "x", "strategic", seed=0)


def test_negative_sample_counts_are_rejected():
    with pytest.raises(ValueError):
        check_equation("x", "x", "semi", seed=0, samples=-1)
    with pytest.raises(ValueError):
        check_congruence("+", "strong", seed=0, samples=-1)
    assert check_equation("x", "x", "semi", seed=0, samples=0).samples == 5
    assert check_congruence("+", "strong", seed=0, samples=0).samples == 0
    # the pool's 5^5 bindings are cut at 2048, then the 3 random ones follow
    assert check_equation("a + b + c + d + e", "e + d + c + b + a", "power",
                          seed=0, samples=3).samples == 2051


@pytest.mark.parametrize("max_depth", [0, 13])
def test_depth_caps_are_checked_before_the_pool(max_depth):
    # the pool alone refutes x * x = x, and composition draws at depth 2
    # whatever the cap, so only an up-front check sees the bad argument
    for lhs, rhs in (("x * x", "x"), ("x o y", "y o x")):
        with pytest.raises(ValueError, match="max_depth"):
            check_equation(lhs, rhs, "strong", seed=1, samples=0,
                           outcomes=("0", "1"), max_depth=max_depth)


# -- the power domain against the tree oracle ----------------------------------

DIFFERENTIAL_TERMS = (
    "x + y",
    "x * y",
    "-x",
    "-(x + y) * z",
    "x + (y * -z)",
    "(x * y) + (x * z)",
    "x o y",
    "-(x o y)",
    "(x + y) o z",
    "x o (y * -z)",
    "(x o y) o z",
    "-x o (y + z)",
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(DIFFERENTIAL_TERMS),
    st.sampled_from(sorted(POWER_KINDS)),
    st.integers(0, 10**6),
    st.sampled_from([2, 3]),
    st.booleans(),
)
def test_term_powers_match_the_powers_of_the_evaluated_tree(
    text, kind, seed, n, perfect_info
):
    term = parse_term(text)
    dynamic = term_uses_composition(term)
    rng = Random(seed)
    outcomes = ("0", "1", "2")[:n]
    binding = {
        name: random_dynamic_game(rng, outcomes, 2, 2, perfect_info)
        if dynamic
        else random_game(rng, 3, 2, outcomes, perfect_info)
        for name in sorted(term_variables(term))
    }
    fn = POWER_KINDS[kind]
    env = {name: (v, algebra._value_powers(fn, v)) for name, v in binding.items()}
    got = algebra._term_fold(term, kind, dynamic)(env, None)
    tree = evaluate(term, binding)
    if dynamic:
        assert set(got) == set(outcomes)
        cases = [(got[u], tree.games[u]) for u in outcomes]
    else:
        cases = [(got, tree)]
    for pair, g in cases:
        assert pair == tuple(set(fn(g, p).member_sets()) for p in Player)


def _random_entry(rng, kind, outcomes, dynamic, source):
    # a value's power pair, per state when dynamic: the pair of a pool game,
    # or a random family pair of the kind's conditions
    def pair(pool):
        if source == "pool":
            return algebra._value_powers(POWER_KINDS[kind], rng.choice(pool))
        return tuple(f._index for f in random_family_pair(rng, outcomes, kind))

    if dynamic:
        pool = [g for d in algebra._pool(outcomes, True) for g in d.games.values()]
        return {u: pair(pool) for u in outcomes}
    return pair(algebra._pool(outcomes, False))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(DIFFERENTIAL_TERMS),
    st.sampled_from(sorted(POWER_KINDS)),
    st.booleans(),
    st.sampled_from(["pool", "families"]),
    st.integers(0, 10**6),
    st.sampled_from([2, 3]),
)
def test_compiled_fold_matches_the_reference_fold(text, kind, dynamic, source, seed, n):
    term = parse_term(text)
    # a basic variable before a continuation is folded again from its games,
    # which these entries lack; the tree test above covers that case
    assume(not (kind == "basic" and term_uses_composition(term)))
    dynamic = dynamic or term_uses_composition(term)
    rng = Random(seed)
    outcomes = ("0", "1", "2")[:n]
    env = {
        name: _random_entry(rng, kind, outcomes, dynamic, source)
        for name in sorted(term_variables(term))
    }
    entries = {name: (None, pair) for name, pair in env.items()}
    got = algebra._term_fold(term, kind, dynamic)(entries, None)
    want = reference_term_powers(term, env, kind)
    assert got == want
    if dynamic:
        # witnesses name the first differing state, so the order must agree
        assert list(got) == list(want)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.integers(0, 2**n - 1), max_size=4),
                         min_size=2, max_size=3))))
def test_meet_of_upward_closed_families_is_their_joins(drawn):
    n, masks = drawn
    outcomes = tuple(str(i) for i in range(n))
    families = [
        upward_closure(PowerFamily(
            outcomes, [[o for i, o in enumerate(outcomes) if m >> i & 1] for m in fam]
        ))._index
        for fam in masks
    ]
    assert families[0].intersection(*families[1:]) == joins(families)


def _joins_calls(monkeypatch, *check):
    # the binary joins that the law fold takes from its own reading of
    # COMBINE; the powers of the bound games read the table in powers
    calls = []

    def counted(f, g):
        calls.append(None)
        return _join(f, g)

    table = {kind: tuple(counted if op is _join else op for op in ops)
             for kind, ops in COMBINE.items()}
    monkeypatch.setattr(algebra, "COMBINE", table)
    assert check_equation(*check)
    return len(calls)


def test_law_checks_join_each_continuation_set_once(monkeypatch):
    # joining each continuation set anew for every state that lists it makes
    # 1,184 and 796 calls
    assert _joins_calls(
        monkeypatch, "(x + y) o z", "(x o z) + (y o z)", "semi", 3, 2) == 668
    assert _joins_calls(
        monkeypatch, "x o (y o z)", "(x o y) o z", "semi", 0, 2) == 280
    # plain powers are upward closed, so their joins are intersections
    # (joining them as sets instead makes 540 and 2,229 calls)
    assert _joins_calls(
        monkeypatch, "x + (y + z)", "(x + y) + z", "power", 0, 10) == 0
    assert _joins_calls(
        monkeypatch, "x o (y o z)", "(x o y) o z", "power", 0, 2) == 0


def test_law_checks_build_no_composed_trees(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    for fn in (op_plus, op_times, op_dual, seq_compose):
        monkeypatch.setattr(algebra, fn.__name__, counted(fn))
    for equiv in ("power", "semi", "strong"):
        assert check_equation("-(x o y)", "(-x) o (-y)", equiv, seed=1, samples=2)
        assert check_equation("x o (y o z)", "(x o y) o z", equiv, seed=1, samples=2)
        assert check_equation("-(x + y)", "-x * -y", equiv, seed=1, samples=2)
        # congruences decide their pairs and contexts the same way
        assert check_congruence("+", equiv, seed=0, samples=2)
        assert check_congruence("-", equiv, seed=0, samples=2)
    assert check_congruence("o", "semi", seed=0, samples=2)
    assert calls == []


def test_strong_congruence_of_composition_reports_the_trees_it_decided(monkeypatch):
    calls = []

    def counted(d1, d2):
        calls.append(None)
        return seq_compose(d1, d2)

    monkeypatch.setattr(algebra, "seq_compose", counted)
    for seed in range(3):
        calls.clear()
        report = check_congruence("o", "strong", seed=seed, samples=3)
        assert report.verdict == "counterexample"
        # one composed tree per side of the refuted context, built once
        assert len(calls) == 2


def test_law_checks_build_no_verdict_per_binding(monkeypatch):
    # bindings, composed trees included, are compared as member-set pairs
    calls = []
    init = EquivalenceVerdict.__init__

    def counted(self, *args):
        calls.append(None)
        init(self, *args)

    monkeypatch.setattr(EquivalenceVerdict, "__init__", counted)
    g = random_game(0)
    assert strongly_equivalent(g, g) and len(calls) == 1
    calls.clear()
    assert check_equation("x * (y * z)", "(x * y) * z", "strong", seed=0, samples=20)
    assert check_equation("x o (y o z)", "(x o y) o z", "strong", seed=0, samples=2)
    assert calls == []


def test_congruence_of_plus_under_strong():
    report = check_congruence("+", "strong", seed=0, samples=3)
    assert report
    assert report.verdict == "congruent-on-sample"


def test_congruence_of_dual_under_semi():
    assert check_congruence("-", "semi", seed=0, samples=3)


def test_composition_breaks_strong_congruence():
    report = check_congruence("o", "strong", seed=0, samples=1)
    assert report.verdict == "counterexample"
    ce = report.counterexample
    assert ce["context"] == "left-of-branching"
    assert ce["witness"] == {
        "state": "x",
        "player": "B",
        "member": ["x", "y"],
        "only_in": "second",
    }
    left = DynamicGame.from_json(ce["composed"][0]).games["x"]
    right = DynamicGame.from_json(ce["composed"][1]).games["x"]
    assert left == single_move_then_b_choice()
    assert right == double_move_then_b_choice()


def test_composition_keeps_semi_congruence():
    assert check_congruence("o", "semi", seed=0, samples=2)


def test_congruence_rejects_unknown_inputs():
    with pytest.raises(ValueError):
        check_congruence("%", "strong", seed=0)
    with pytest.raises(ValueError):
        check_congruence("+", "weak", seed=0)
    with pytest.raises(ValueError):
        check_congruence("+", "strategic", seed=0)


def test_law_settings_are_checked_before_the_outcomes_are_read():
    # a bad equivalence is reported even when the outcomes are unusable too
    with pytest.raises(ValueError, match="unknown equivalence 'weak'"):
        check_equation("x", "x", "weak", seed=0, outcomes=5)
