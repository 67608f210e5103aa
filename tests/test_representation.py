"""Realizing power families as matrix games and checking the round trip."""

import json

import pytest

from gamepowers.games import Player
from gamepowers.powers import (
    CONSISTENCY,
    INSTANTIATEDNESS,
    POWER_KINDS,
    UNION_CLOSURE,
    PowerFamily,
    basic_powers,
    check_conditions,
    family_conditions,
)
from gamepowers.equivalence import strongly_equivalent
from gamepowers.representation import (
    IllegalFamilies,
    RepresentationInput,
    check_input,
    construct_game,
    construction_cost,
    load_representation_input,
    sample_legal_families,
    verify_roundtrip,
)
from helpers import (
    choice_map_columns,
    choice_map_game,
    claim_witness,
    oracle_union_closure,
    subsets,
    two_or_three_after_one,
)


def two_singletons_vs_pair():
    outcomes = ["0", "1"]
    fa = PowerFamily(outcomes, [["0"], ["1"]])
    fb = PowerFamily(outcomes, [["0", "1"]])
    return RepresentationInput(outcomes, fa, fb)


def legal_pairs(n: int, mode: str):
    """Every legal pair of the mode's families over n outcomes."""
    outcomes = tuple("abc"[:n])
    families = [
        PowerFamily(outcomes, f)
        for f in subsets(s for s in subsets(outcomes) if s)
        if f
    ]
    required = family_conditions(mode)
    for fa in families:
        for fb in families:
            pa, pb = check_conditions(fa, fb)
            if pa.holds(*required) and pb.holds(*required):
                yield RepresentationInput(outcomes, fa, fb, mode)


def test_two_outcome_example_shape():
    sg = construct_game(two_singletons_vs_pair())
    # 2 sum|X| rows and 2 sum|Z| columns
    assert len(sg.rows) == 4
    assert len(sg.cols) == 4
    assert [set(row) for row in sg.matrix] == [{"0"}, {"0"}, {"1"}, {"1"}]
    assert sg.rows == ("(0,0,0)", "(0,0,1)", "(1,1,0)", "(1,1,1)")
    assert sg.cols[0] == "(0+1,0,0)"


def test_two_outcome_example_roundtrip():
    report = verify_roundtrip(two_singletons_vs_pair())
    assert report.ok
    assert report.fa_ok and report.fb_ok and report.strategies_ok
    assert report.to_json()["ok"] is True


@pytest.mark.parametrize("mode", ["basic", "relational"])
def test_roundtrip_of_a_game_already_built_matches_a_fresh_one(mode):
    for seed in range(12):
        inp = sample_legal_families(3, seed, mode)
        given = verify_roundtrip(inp, construct_game(inp))
        assert given == verify_roundtrip(inp)
        assert given.to_json() == verify_roundtrip(inp).to_json()


def test_single_outcome_trivial_families():
    outcomes = ["o"]
    fam = PowerFamily(outcomes, [["o"]])
    inp = RepresentationInput(outcomes, fam, fam)
    sg = construct_game(inp)
    assert len(sg.rows) == 2
    assert len(sg.cols) == 2
    assert verify_roundtrip(inp).ok


def test_realizes_families_of_a_known_game():
    g = two_or_three_after_one()
    fa = basic_powers(g, Player.A)
    fb = basic_powers(g, Player.B)
    inp = RepresentationInput(g.outcomes, fa, fb)
    built = construct_game(inp)
    assert verify_roundtrip(inp).ok
    assert strongly_equivalent(built, g)


@pytest.mark.parametrize("mode", ["basic", "relational"])
def test_direct_matrix_realizes_every_small_legal_pair(mode):
    counts = []
    for n in (1, 2, 3):
        pairs = list(legal_pairs(n, mode))
        counts.append(len(pairs))
        for inp in pairs:
            sg = construct_game(inp)
            rows = {sg.row_set(i) for i in range(len(sg.rows))}
            cols = {sg.col_set(j) for j in range(len(sg.cols))}
            if mode == "relational":
                rows, cols = oracle_union_closure(rows), oracle_union_closure(cols)
            assert {frozenset(m) for m in rows} == set(inp.fa.member_sets())
            assert {frozenset(m) for m in cols} == set(inp.fb.member_sets())
    assert counts == ([1, 13, 845] if mode == "basic" else [1, 11, 384])


@pytest.mark.parametrize("mode", ["basic", "relational"])
def test_direct_matrix_agrees_with_the_choice_map_reference(mode):
    kind = POWER_KINDS[mode]
    inputs = [inp for n in (1, 2, 3) for inp in legal_pairs(n, mode)]
    inputs += [sample_legal_families(4, s, mode, max_cost=2000) for s in range(20)]
    compared = 0
    for inp in inputs:
        if construction_cost(inp) > 2000:
            continue
        direct, reference = construct_game(inp), choice_map_game(inp)
        for p, fam in ((Player.A, inp.fa), (Player.B, inp.fb)):
            assert kind(direct, p) == kind(reference, p) == fam
        compared += 1
    assert compared >= 100


def test_claim_witness_constant_map():
    inp = two_singletons_vs_pair()
    witness = claim_witness(inp, {"0"})
    assert set(witness.values()) == {"0"}
    assert len(witness) == 4


def test_claim_witness_image_is_exact_and_playable():
    g = two_or_three_after_one()
    fa = basic_powers(g, Player.A)
    fb = basic_powers(g, Player.B)
    inp = RepresentationInput(g.outcomes, fa, fb)
    sg = choice_map_game(inp)
    for z in fa.member_sets():
        witness = claim_witness(inp, z)
        assert set(witness.values()) == set(z)
        # the witness map is one of the reference construction's rows
        row = tuple(witness[t] for t in choice_map_columns(inp))
        assert row in sg.matrix


def test_claim_witness_rejects_non_members():
    inp = two_singletons_vs_pair()
    with pytest.raises(ValueError):
        claim_witness(inp, {"0", "1"})


def test_every_column_offers_its_whole_member():
    inp = two_singletons_vs_pair()
    sg = construct_game(inp)
    for j in range(len(sg.cols)):
        assert sg.col_set(j) == {"0", "1"}


def test_inconsistent_families_rejected():
    outcomes = ["0", "1"]
    fa = PowerFamily(outcomes, [["0"]])
    fb = PowerFamily(outcomes, [["1"]])
    with pytest.raises(IllegalFamilies) as exc:
        construct_game(RepresentationInput(outcomes, fa, fb))
    assert CONSISTENCY in str(exc.value)
    assert not exc.value.profile_a[CONSISTENCY].holds


def test_uninstantiated_families_rejected():
    outcomes = ["0", "1"]
    fa = PowerFamily(outcomes, [["0", "1"]])
    fb = PowerFamily(outcomes, [["0"]])
    with pytest.raises(IllegalFamilies) as exc:
        check_input(RepresentationInput(outcomes, fa, fb))
    assert INSTANTIATEDNESS in str(exc.value)


def test_relational_mode_requires_union_closure():
    outcomes = ["0", "1"]
    fa = PowerFamily(outcomes, [["0"], ["1"]])
    fb = PowerFamily(outcomes, [["0", "1"]])
    check_input(RepresentationInput(outcomes, fa, fb, "basic"))
    with pytest.raises(IllegalFamilies) as exc:
        check_input(RepresentationInput(outcomes, fa, fb, "relational"))
    assert UNION_CLOSURE in str(exc.value)


def test_relational_roundtrip():
    outcomes = ["x", "y"]
    fa = PowerFamily(outcomes, [["x", "y"]])
    fb = PowerFamily(outcomes, [["x"], ["y"], ["x", "y"]])
    inp = RepresentationInput(outcomes, fa, fb, "relational")
    assert verify_roundtrip(inp).ok


def test_construction_cost_counts_candidate_maps():
    assert construction_cost(two_singletons_vs_pair()) == 2
    outcomes = ["o"]
    fam = PowerFamily(outcomes, [["o"]])
    assert construction_cost(RepresentationInput(outcomes, fam, fam)) == 1


def test_bad_mode_and_mismatched_outcomes_rejected():
    outcomes = ["0", "1"]
    fam = PowerFamily(outcomes, [["0", "1"]])
    with pytest.raises(ValueError):
        RepresentationInput(outcomes, fam, fam, "plain")
    other = PowerFamily(["a"], [["a"]])
    with pytest.raises(ValueError):
        RepresentationInput(outcomes, fam, other)
    with pytest.raises(ValueError, match="duplicate"):
        RepresentationInput(["0", "0", "1"], fam, fam)


def test_json_roundtrip(tmp_path):
    inp = two_singletons_vs_pair()
    data = inp.to_json()
    assert data == {
        "outcomes": ["0", "1"],
        "FA": [["0"], ["1"]],
        "FB": [["0", "1"]],
        "mode": "basic",
    }
    assert RepresentationInput.from_json(data) == inp
    path = tmp_path / "families.json"
    path.write_text(json.dumps(data))
    assert load_representation_input(path) == inp
    path.write_text("{nope")
    with pytest.raises(ValueError):
        load_representation_input(path)
    path.write_text(json.dumps({"outcomes": ["0"]}))
    with pytest.raises(ValueError):
        load_representation_input(path)


def test_sampler_is_deterministic_and_legal():
    for mode in ("basic", "relational"):
        a = sample_legal_families(3, 11, mode)
        b = sample_legal_families(3, 11, mode)
        assert a == b
        assert a.mode == mode
        pa, pb = check_conditions(a.fa, a.fb)
        required = family_conditions(mode)
        assert pa.holds(*required) and pb.holds(*required)


def test_sampler_single_outcome_is_forced():
    inp = sample_legal_families(1, 5)
    assert inp.fa.members == (("0",),)
    assert inp.fb.members == (("0",),)


def test_sampled_inputs_roundtrip():
    for seed in range(8):
        for mode in ("basic", "relational"):
            inp = sample_legal_families(3, seed, mode)
            assert verify_roundtrip(inp).ok
