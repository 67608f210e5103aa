"""Power families, closures, lifting and the structural conditions."""

import hashlib
import json
import sys
from functools import reduce
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamepowers.algebra import (
    check_equation,
    op_dual,
    op_plus,
    op_times,
    random_dynamic_game,
    random_game,
    seq_compose,
)
from gamepowers.axioms import _FAMILY_CAPS
from gamepowers.equivalence import hierarchy_audit, power_equivalent, semi_strongly_equivalent
from gamepowers.games import InputError, Player, game, leaf, node
from gamepowers.models import FRAME_KINDS, GAME_FRAME, INSTANTIAL_FRAME, random_model
from gamepowers.powers import (
    COMBINE,
    CONSISTENCY,
    DETERMINACY,
    INSTANTIATEDNESS,
    MONOTONICITY,
    NON_EMPTINESS,
    POWER_KINDS,
    UNION_CLOSURE,
    ConditionProfile,
    PowerFamily,
    _CLOSURES,
    _partner_pool,
    _subsets,
    _tree_powers,
    basic_powers,
    check_conditions,
    family_conditions,
    legal_pairs,
    powers,
    random_family_pair,
    relational_basic_powers,
    union_closure,
    upward_closure,
)
from helpers import (
    REFERENCE_COMBINE,
    EagerFamily,
    _lift,
    double_move_then_b_choice,
    eager_conditions,
    family,
    forgetful_chooser,
    one_then_two_or_three,
    oracle_outcome_sets,
    oracle_plain_powers,
    oracle_union_closure,
    reference_family_pair,
    single_move_then_b_choice,
    strategic_to_extensive,
    subsets,
    twin_chains,
    two_or_three_after_one,
    zero_one_matrix_2x3,
    zero_one_matrix_3x3,
)


def members(f: PowerFamily):
    return set(f.members)


def test_power_family_canonical_order():
    f = PowerFamily(["2", "1", "3"], [["3", "1"], ["1", "3"], ["2"]])
    assert f.members == (("1", "3"), ("2",))
    assert ["1", "3"] in f
    assert ["3", "1"] in f
    assert ["1"] not in f


def test_power_family_json_roundtrip():
    f = PowerFamily(["a", "b"], [["b", "a"], ["a"]])
    assert PowerFamily(**f.to_json()) == f


def test_basic_powers_of_worked_games():
    g1 = one_then_two_or_three()
    assert members(basic_powers(g1, Player.A)) == family([{"1"}, {"2", "3"}])
    assert members(basic_powers(g1, Player.B)) == family([{"1", "2"}, {"1", "3"}])
    g2 = two_or_three_after_one()
    assert members(basic_powers(g2, Player.A)) == family(
        [{"1"}, {"1", "2"}, {"1", "3"}, {"2", "3"}]
    )
    assert members(basic_powers(g2, Player.B)) == family([{"1", "2"}, {"1", "3"}])


def test_plain_powers_of_worked_games():
    g1, g2 = one_then_two_or_three(), two_or_three_after_one()
    expected_a = family(
        [{"1"}, {"1", "2"}, {"1", "3"}, {"2", "3"}, {"1", "2", "3"}]
    )
    assert members(powers(g1, Player.A)) == expected_a
    assert members(powers(g2, Player.A)) == expected_a
    expected_b = family([{"1", "2"}, {"1", "3"}, {"1", "2", "3"}])
    assert members(powers(g1, Player.B)) == expected_b
    assert members(powers(g2, Player.B)) == expected_b


def test_plain_powers_match_direct_oracle():
    for g in (
        one_then_two_or_three(),
        two_or_three_after_one(),
        single_move_then_b_choice(),
        double_move_then_b_choice(),
    ):
        for p in (Player.A, Player.B):
            assert members(powers(g, p)) == oracle_plain_powers(g, p)


def test_relational_powers_of_b_choice_games():
    left, right = single_move_then_b_choice(), double_move_then_b_choice()
    assert members(basic_powers(left, Player.B)) == family([{"x"}, {"y"}])
    assert members(basic_powers(right, Player.B)) == family(
        [{"x"}, {"y"}, {"x", "y"}]
    )
    both = family([{"x"}, {"y"}, {"x", "y"}])
    assert members(relational_basic_powers(left, Player.B)) == both
    assert members(relational_basic_powers(right, Player.B)) == both
    assert members(relational_basic_powers(left, Player.A)) == family([{"x", "y"}])
    assert members(relational_basic_powers(right, Player.A)) == family([{"x", "y"}])


def test_relational_powers_of_strategic_game_match_realization():
    for sg in (zero_one_matrix_2x3(), zero_one_matrix_3x3()):
        realized = strategic_to_extensive(sg)
        for p in (Player.A, Player.B):
            assert relational_basic_powers(sg, p) == relational_basic_powers(
                realized, p
            )
            assert basic_powers(sg, p) == basic_powers(realized, p)


def test_matrix_basic_powers_are_rows_and_columns():
    sg = zero_one_matrix_3x3()
    assert members(basic_powers(sg, Player.A)) == family([{"0", "1"}, {"0"}])
    assert members(basic_powers(sg, Player.B)) == family([{"0", "1"}, {"0"}])


def test_trivial_player_has_singleton_relational_family():
    g = single_move_then_b_choice()
    fam = relational_basic_powers(g, Player.A)
    assert len(fam) == 1


def test_upward_closure():
    f = PowerFamily(["1", "2", "3"], [["1"]])
    assert members(upward_closure(f)) == family(
        [{"1"}, {"1", "2"}, {"1", "3"}, {"1", "2", "3"}]
    )
    # already-closed family is a fixpoint
    assert upward_closure(upward_closure(f)) == upward_closure(f)


def test_an_upward_closure_past_its_bound_is_refused_before_it_is_built(monkeypatch):
    # A choosing among 20 outcomes: 20 singletons with 2^19 supersets each
    outcomes = [f"o{i}" for i in range(20)]
    g = game(outcomes, node("A", [leaf(o) for o in outcomes]))
    refusals = [
        lambda: upward_closure(basic_powers(g, Player.A)),
        lambda: powers(g, Player.A),
        lambda: power_equivalent(g, g),
        lambda: hierarchy_audit(g, g),
    ]
    for refused in refusals:
        with pytest.raises(InputError) as caught:
            refused()
        assert str(caught.value) == (
            "upward closure candidates must be between 0 and 262144, got 10485760"
        )
    # a law check over as many outcomes is refused before it draws a game,
    # whose closures stay far below the bound on the 6 outcomes it allows
    with pytest.raises(InputError, match="outcomes must be between 1 and 6, got 20"):
        check_equation("x + y", "y + x", "power", seed=1, outcomes=outcomes)
    # a family at the bound closes, one candidate more is refused
    monkeypatch.setattr(sys.modules["gamepowers.powers"], "_MAX_CLOSURE", 8)
    assert len(upward_closure(PowerFamily("0123", ["0"]))) == 8
    with pytest.raises(InputError, match="between 0 and 8, got 9"):
        upward_closure(PowerFamily("0123", ["0", "0123"]))


def test_nonempty_joins_past_their_bound_are_refused_before_they_are_built(monkeypatch):
    # A choosing among 20 outcomes relationally: 2^20 - 1 nonempty unions
    outcomes = [f"o{i}" for i in range(20)]
    g = game(outcomes, node("A", [leaf(o) for o in outcomes]))
    refusals = [
        lambda: relational_basic_powers(g, Player.A),
        lambda: semi_strongly_equivalent(g, g),
        lambda: union_closure(basic_powers(g, Player.A)),
    ]
    for refused in refusals:
        with pytest.raises(InputError) as caught:
            refused()
        assert str(caught.value) == "nonempty unions must be between 0 and 262144, got 1048575"
    # B answers at A's node with a join of singletons, which is never refused
    assert members(relational_basic_powers(g, Player.B)) == {tuple(sorted(outcomes))}
    # a count at the bound is built, one more is refused; the count is the
    # fewer of prod(|F| + 1) - 1 and 2^n - 1
    monkeypatch.setattr(sys.modules["gamepowers.powers"], "_MAX_CLOSURE", 7)
    three = game("abc", node("A", [leaf("a"), leaf("b"), leaf("c")]))
    assert len(relational_basic_powers(three, Player.A)) == 7
    assert len(union_closure(PowerFamily("abc", ["a", "b", "c", "ab", "abc"]))) == 7
    with pytest.raises(InputError, match="between 0 and 7, got 15"):
        relational_basic_powers(game("abcd", node("A", [leaf(o) for o in "abcd"])), Player.A)


def test_shared_cell_passes_past_their_bound_are_refused_before_the_first(monkeypatch):
    # 24 A cells shared by two chains: one pass for each of 2^24 assignments,
    # 3^24 relational ones; B's one node is a cell of its own
    g = twin_chains(24)
    for refused, passes in ((basic_powers, 2**24), (relational_basic_powers, 3**24)):
        with pytest.raises(InputError) as caught:
            refused(g, Player.A)
        assert str(caught.value) == f"shared-cell passes must be between 0 and 262144, got {passes}"
    with pytest.raises(InputError, match="got 16777216"):
        hierarchy_audit(g, g)
    assert len(basic_powers(g, Player.B)) == 1
    # a count at the bound is passed over, one more is refused
    monkeypatch.setattr(sys.modules["gamepowers.powers"], "_MAX_CLOSURE", 8)
    three = twin_chains(3)
    assert members(basic_powers(three, Player.A)) == oracle_outcome_sets(three, Player.A)
    with pytest.raises(InputError, match="between 0 and 8, got 16"):
        basic_powers(twin_chains(4), Player.A)
    with pytest.raises(InputError, match="between 0 and 8, got 9"):
        relational_basic_powers(twin_chains(2), Player.A)


def test_union_closure_matches_subfamily_oracle():
    f = PowerFamily(["1", "2", "3"], [["1"], ["2"], ["2", "3"]])
    assert members(union_closure(f)) == oracle_union_closure(f.members)
    assert union_closure(union_closure(f)) == union_closure(f)


@settings(max_examples=60, deadline=None)
@given(
    st.sets(
        st.frozensets(st.sampled_from(["1", "2", "3", "4"]), min_size=1),
        min_size=1,
        max_size=5,
    )
)
def test_union_closure_property(ms):
    f = PowerFamily(["1", "2", "3", "4"], ms)
    closed = union_closure(f)
    assert members(closed) == oracle_union_closure(f.members)
    assert set(f.members) <= members(closed)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(COMBINE)),
    st.lists(
        st.sets(st.frozensets(st.sampled_from(["1", "2", "3"])), max_size=4),
        min_size=1,
        max_size=4,
    ),
)
def test_each_kinds_binary_rules_fold_to_the_reference_rules(kind, fams):
    if kind == "plain":
        fams = [upward_closure(PowerFamily(["1", "2", "3"], f))._index for f in fams]
    for rule, reference in zip(COMBINE[kind], REFERENCE_COMBINE[kind]):
        assert reduce(rule, fams) == reference(fams)


def test_relational_equals_union_closure_of_basic_on_perfect_info():
    for g in (
        one_then_two_or_three(),
        two_or_three_after_one(),
        double_move_then_b_choice(),
    ):
        for p in (Player.A, Player.B):
            assert relational_basic_powers(g, p) == union_closure(
                basic_powers(g, p)
            )


def test_shared_cell_couples_the_owners_choices():
    g = forgetful_chooser()
    assert members(basic_powers(g, Player.A)) == family(
        [{"1"}, {"2"}, {"3"}, {"4"}]
    )
    relational = members(relational_basic_powers(g, Player.A))
    assert relational == family(
        [
            {"1"}, {"2"}, {"3"}, {"4"}, {"1", "2"}, {"3", "4"},
            {"1", "3"}, {"2", "4"}, {"1", "2", "3", "4"},
        ]
    )
    # {1} and {4} are realizable, their union is not: it would need the
    # shared cell to pick the left move on one side and the right on the other
    assert ("1", "4") not in relational
    assert relational != members(union_closure(basic_powers(g, Player.A)))
    assert members(relational_basic_powers(g, Player.B)) == family(
        [{"1", "2", "3", "4"}]
    )


def _seeded_game(kind, seed, perfect_info):
    outcomes = ("0", "1", "2")
    if kind == "seq":
        states = ("u", "v")
        d1 = random_dynamic_game(seed, states, perfect_info=perfect_info)
        d2 = random_dynamic_game(seed + 1, states, perfect_info=perfect_info)
        return seq_compose(d1, d2).games["u"]
    g1 = random_game(seed, 4, 2, outcomes, perfect_info)
    if kind == "one":
        return g1
    if kind == "dual":
        return op_dual(g1)
    g2 = random_game(seed + 1, 3, 3, outcomes, perfect_info)
    return (op_plus if kind == "plus" else op_times)(g1, g2)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["one", "plus", "times", "dual", "seq"]),
    st.integers(0, 10**6),
    st.booleans(),
)
def test_tree_powers_match_strategy_enumeration(kind, seed, perfect_info):
    g = _seeded_game(kind, seed, perfect_info)
    for p in (Player.A, Player.B):
        assert members(basic_powers(g, p)) == oracle_outcome_sets(g, p)
        assert members(relational_basic_powers(g, p)) == oracle_outcome_sets(
            g, p, relational=True
        )


@settings(max_examples=150, deadline=None)
@given(st.booleans(), st.integers(0, 10**6), st.sampled_from([2, 3]), st.booleans())
def test_leaf_families_give_the_powers_of_the_composed_game(relational, seed, n, perfect_info):
    # a game with a continuation's families at its leaves has the powers of
    # the game with the continuation grafted at every leaf
    states = ("u", "v", "w")[:n]
    rng = Random(seed)
    first, then = (random_dynamic_game(rng, states, 3, 2, perfect_info) for _ in range(2))
    composed = seq_compose(first, then)
    fn = relational_basic_powers if relational else basic_powers
    for u in states:
        for p in Player:
            leaves = {y: fn(then.games[y], p)._index for y in states}
            got = _tree_powers(first.games[u], p, relational, leaves)
            assert got == fn(composed.games[u], p)


def test_egli_milner():
    r = [("1", "1"), ("2", "2")]
    assert _lift(r, {"1", "2"}, {"1", "2"})
    assert not _lift(r, {"1"}, {"1", "2"})
    assert not _lift(r, {"1", "2"}, {"1"})
    assert _lift([("1", "2")], {"1"}, {"2"})
    assert not _lift([], {"1"}, {"2"})
    assert _lift([], set(), set())


def test_condition_profiles_on_basic_families():
    g = one_then_two_or_three()
    fa = basic_powers(g, Player.A)
    fb = basic_powers(g, Player.B)
    pa, pb = check_conditions(fa, fb)
    assert pa.holds(NON_EMPTINESS, CONSISTENCY, INSTANTIATEDNESS)
    assert pb.holds(NON_EMPTINESS, CONSISTENCY, INSTANTIATEDNESS)
    # basic families are not upward closed here
    assert not pa[MONOTONICITY].holds
    assert pa[MONOTONICITY].witness is not None


def test_condition_profiles_on_plain_families():
    g = two_or_three_after_one()
    pa, pb = check_conditions(powers(g, Player.A), powers(g, Player.B))
    for prof in (pa, pb):
        assert prof.holds(NON_EMPTINESS, MONOTONICITY, CONSISTENCY, DETERMINACY)


def test_determinacy_witness():
    fa = PowerFamily(["0", "1"], [["0"]])
    fb = PowerFamily(["0", "1"], [["0"]])
    pa, _ = check_conditions(fa, fb)
    assert not pa[DETERMINACY].holds
    w = pa[DETERMINACY].witness["subset"]
    assert tuple(w) not in fa.members
    assert tuple(sorted(set(["0", "1"]) - set(w))) not in fb.members


def test_consistency_witness():
    fa = PowerFamily(["0", "1"], [["0"]])
    fb = PowerFamily(["0", "1"], [["1"]])
    pa, pb = check_conditions(fa, fb)
    assert not pa[CONSISTENCY].holds
    assert pa[CONSISTENCY].witness == {"A": ["0"], "B": ["1"]}
    assert not pb[CONSISTENCY].holds


def test_instantiatedness_witness():
    fa = PowerFamily(["0", "1"], [["0", "1"]])
    fb = PowerFamily(["0", "1"], [["0"]])
    pa, pb = check_conditions(fa, fb)
    assert not pa[INSTANTIATEDNESS].holds
    assert pa[INSTANTIATEDNESS].witness == {"member": ["0", "1"], "element": "1"}
    assert pb[INSTANTIATEDNESS].holds


def test_a_profile_runs_each_search_once_and_only_when_read():
    calls = []

    def counting(name, witness):
        def search(*args):
            calls.append((name, args))
            return witness
        return search

    table = {"a": counting("a", None), "b": counting("b", {"x": 1}), "c": counting("c", None)}
    profile = ConditionProfile(table, ("fam", "other"))
    assert calls == []
    # holds stops at the first failure, so c is never searched
    assert not profile.holds("a", "b", "c")
    assert calls == [("a", ("fam", "other")), ("b", ("fam", "other"))]
    # a decided check is kept: reading it again searches nothing
    assert not profile.holds("a", "b")
    assert profile["a"].holds and profile["b"].witness == {"x": 1}
    assert len(calls) == 2


def test_union_closure_flag():
    f = PowerFamily(["0", "1"], [["0"], ["1"]])
    closed = union_closure(f)
    pa, _ = check_conditions(f, closed)
    assert not pa[UNION_CLOSURE].holds
    assert pa[UNION_CLOSURE].witness["union"] == ["0", "1"]
    pc, _ = check_conditions(closed, closed)
    assert pc[UNION_CLOSURE].holds


def test_empty_family_flagged():
    fa = PowerFamily(["0"], [])
    fb = PowerFamily(["0"], [["0"]])
    pa, pb = check_conditions(fa, fb)
    assert not pa[NON_EMPTINESS].holds
    assert pb[NON_EMPTINESS].holds


def test_mismatched_outcome_sets_rejected():
    with pytest.raises(ValueError):
        check_conditions(
            PowerFamily(["0"], [["0"]]), PowerFamily(["1"], [["1"]])
        )


def test_profile_json():
    fa = PowerFamily(["0", "1"], [["0"], ["0", "1"]])
    pa, _ = check_conditions(fa, fa)
    blob = pa.to_json()
    assert set(blob) == {
        NON_EMPTINESS,
        MONOTONICITY,
        CONSISTENCY,
        DETERMINACY,
        INSTANTIATEDNESS,
        UNION_CLOSURE,
    }
    assert blob[NON_EMPTINESS]["holds"] is True


@st.composite
def family_pairs(draw):
    """Member lists over 1-4 outcomes, some closed under unions or supersets
    and some of those thinned by one member: most pairs are illegal, a few
    only just."""
    outcomes = draw(st.permutations("abcd"[: draw(st.integers(1, 4))]))
    member = st.lists(st.sampled_from(outcomes), max_size=4)

    def members_():
        ms = draw(st.lists(member, max_size=6))
        closure = draw(st.sampled_from(["none", "unions", "supersets"]))
        if closure == "unions":
            ms = [list(m) for m in oracle_union_closure(ms)]
        elif closure == "supersets":
            ms = [list(s) for s in subsets(outcomes) if any(set(m) <= set(s) for m in ms)]
        if ms and draw(st.booleans()):
            del ms[draw(st.integers(0, len(ms) - 1))]
        return ms

    return outcomes, members_(), members_()


@settings(max_examples=400, deadline=None)
@given(family_pairs())
def test_verdicts_and_witnesses_match_the_eager_checks(case):
    outcomes, ma, mb = case
    expected = eager_conditions(EagerFamily(outcomes, ma), EagerFamily(outcomes, mb))
    # one profile pair, its verdicts read first on families never put in
    # canonical order, then its whole report
    profiles = check_conditions(PowerFamily(outcomes, ma), PowerFamily(outcomes, mb))
    for profile, want in zip(profiles, expected):
        assert profile.names() == tuple(want)
        for name in want:
            assert profile.holds(name) == want[name]["holds"]
        assert profile.to_json() == want


@settings(max_examples=200, deadline=None)
@given(family_pairs())
def test_lazily_ordered_families_read_like_eagerly_sorted_ones(case):
    outcomes, ma, mb = case
    for members_ in (ma, mb):
        lazy, eager = PowerFamily(outcomes, members_), EagerFamily(outcomes, members_)
        assert len(lazy) == len(eager.members)
        assert all(m in lazy for m in members_)
        assert repr(lazy) == repr(eager) and lazy.to_json() == eager.to_json()
        assert lazy.members == eager.members
        assert lazy.member_sets() == eager.sets and tuple(lazy) == eager.sets
    fa, fb = PowerFamily(outcomes, ma), PowerFamily(outcomes, mb)
    same = PowerFamily(outcomes[::-1], [m[::-1] for m in ma[::-1]])
    assert (fa == fb) == (EagerFamily(outcomes, ma) == EagerFamily(outcomes, mb))
    assert fa == same and hash(fa) == hash(same)
    assert len({fa, fb, same}) == (1 if fa == fb else 2)


# -- legal pairs --------------------------------------------------------------------


@pytest.mark.parametrize("kind, counts", [
    ("plain", [1, 9, 129]),
    ("basic", [1, 13, 845]),
    ("relational", [1, 11, 384]),
])
def test_legal_pairs_of_each_kind_on_up_to_three_outcomes(kind, counts):
    for n, count in zip((1, 2, 3), counts):
        outcomes = tuple("abc"[:n])
        pairs = legal_pairs(outcomes, kind)
        assert len(pairs) == len(set(pairs)) == count
        # a cap keeps the uncapped order, and 0 members is a cap, not None
        for cap in (0, 1, 2):
            capped = tuple(p for p in pairs if max(map(len, p)) <= cap)
            assert legal_pairs(outcomes, kind, cap) == capped



def test_legal_pairs_keep_the_types_of_their_labels():
    # 1 == 1.0, so neither legal_pairs' cache nor the sampler's cache of
    # subsets may answer one of these outcome tuples with the other's sets
    random_family_pair(Random(0), (1.0, 2.0), "basic")
    for outcomes in ((1, 2), (1.0, 2.0)):
        pairs = legal_pairs(outcomes, "basic", 1)
        assert pairs
        for fam in (f for pair in pairs for f in pair):
            assert [type(o) for o in fam.outcomes] == [type(outcomes[0])] * 2
            assert {type(o) for m in fam.member_sets() for o in m} == {type(outcomes[0])}


def test_the_searchs_frame_tables_are_unchanged():
    # countermodel_search reads these three tables; their order fixes the
    # order of its frames, so every search digest rests on this one
    kind = FRAME_KINDS[INSTANTIAL_FRAME]
    tables = [
        legal_pairs(tuple(f"w{i}" for i in range(k)), kind, _FAMILY_CAPS[k])
        for k in (1, 2, 3)
    ]
    assert [len(t) for t in tables] == [1, 11, 7]
    members = [[[fa.to_json()["members"], fb.to_json()["members"]] for fa, fb in t] for t in tables]
    digest = hashlib.sha256(json.dumps(members).encode()).hexdigest()
    assert digest.startswith("460e9144e54228fa")


# -- rejection sampling ------------------------------------------------------------


class CountingRandom(Random):
    """A generator that counts its ``randint`` calls: each try of
    ``random_family_pair`` makes two, and ``random_model`` one more."""

    def __init__(self, seed):
        super().__init__(seed)
        self.randints = 0

    def randint(self, a, b):
        self.randints += 1
        return super().randint(a, b)


@pytest.mark.parametrize("mode", list(POWER_KINDS))
def test_sampled_pairs_are_those_of_closing_every_proposal(mode, monkeypatch):
    # the sampler decides each try on the raw proposals, guaranteeing all but
    # B's reach by how it proposes, and closes only the pair it keeps; a plain
    # loop that closes every proposal and checks every condition must give
    # the same legal pair and leave the generator in the same state
    required = family_conditions(mode)
    seeds = {1: 200, 2: 200, 3: 200, 4: 200, 5: 40, 6: 24, 7: 12, 8: 12}
    for n, count in seeds.items():
        for seed in range(count):
            outcomes = [f"w{i}" for i in range(n)]
            if seed % 2:
                Random(seed).shuffle(outcomes)
            fast, slow = Random(seed), Random(seed)
            cap = 1 + seed % 4
            monkeypatch.setattr(sys.modules["gamepowers.powers"], "_MAX_MEMBERS", cap)
            got = random_family_pair(fast, outcomes, mode)
            want = reference_family_pair(slow, outcomes, mode, max_members=cap)
            assert [f.to_json() for f in got] == [f.to_json() for f in want]
            assert got == want
            assert fast.random() == slow.random()
            assert all(side.holds(*required) for side in check_conditions(*got))


@pytest.mark.parametrize("mode", list(POWER_KINDS))
def test_every_small_legal_pair_can_still_be_proposed(mode):
    # B's members are drawn only from the partner pool of A's family; every
    # member of a legal B family must lie in it, or that pair could never
    # be drawn
    instantiated = INSTANTIATEDNESS in family_conditions(mode)
    for n in (1, 2, 3):
        outcomes = tuple(f"w{i}" for i in range(n))
        pool = [frozenset(s) for s in _subsets(outcomes) if s]
        pairs = legal_pairs(outcomes, mode, 3)
        assert pairs
        for fa, fb in pairs:
            reach = frozenset().union(*fa)
            partners = _partner_pool(fa.member_sets(), pool, reach if instantiated else None)
            assert set(fb.member_sets()) <= set(partners)


def test_a_plain_draw_is_kept_on_its_first_try(monkeypatch):
    # every proposed B member meets all of A's, and plain asks nothing of
    # the reaches, so the first try is the only one
    for seed in range(200):
        rng = CountingRandom(seed)
        outcomes = tuple(f"w{i}" for i in range(1 + seed % 5))
        monkeypatch.setattr(sys.modules["gamepowers.powers"], "_MAX_MEMBERS", 1 + seed % 4)
        random_family_pair(rng, outcomes, "plain")
        assert rng.randints == 2


def test_few_model_draws_need_a_second_try():
    # B's members come from the sets that meet all of A's, inside A's reach
    # for basic, so 250 draws over 80 models take 323 tries
    draws = tries = 0
    for seed in range(40):
        for kind in (GAME_FRAME, INSTANTIAL_FRAME):
            rng = CountingRandom(seed)
            model = random_model(rng, kind)
            draws += len(model.worlds)
            tries += (rng.randints - 1) // 2
    assert (draws, tries) == (250, 323)


@st.composite
def proposal_pairs(draw):
    """Pairs of 1-4 nonempty subsets of 1-4 outcomes, as the sampler
    proposes them before any closure."""
    outcomes = draw(st.permutations("abcd"[: draw(st.integers(1, 4))]))
    member = st.sets(st.sampled_from(outcomes), min_size=1)
    proposal = st.lists(member, min_size=1, max_size=4)
    return outcomes, draw(proposal), draw(proposal)


@settings(max_examples=300, deadline=None)
@given(proposal_pairs(), st.sampled_from(list(POWER_KINDS)))
def test_a_kinds_closure_keeps_the_verdicts_its_sampler_reads(case, mode):
    # NonEmptiness and Consistency survive both closures and Instantiatedness
    # survives union closure, so a try may be decided on the raw proposals;
    # each closure makes its own condition hold
    outcomes, ma, mb = case
    required = family_conditions(mode)
    made = [c for c in required if c in _CLOSURES]
    read = [c for c in required if c not in _CLOSURES]
    raw = closed = PowerFamily(outcomes, ma), PowerFamily(outcomes, mb)
    for c in made:
        closed = _CLOSURES[c](closed[0]), _CLOSURES[c](closed[1])
    for before, after in zip(check_conditions(*raw), check_conditions(*closed)):
        assert [before.holds(c) for c in read] == [after.holds(c) for c in read]
        assert after.holds(*made)


def test_upward_closure_can_change_instantiatedness():
    # why the plain sampler, which never reads Instantiatedness, is the only
    # kind whose closure may not keep it
    fa, fb = PowerFamily("ab", [["a"]]), PowerFamily("ab", [["b"]])
    assert not check_conditions(fa, fb)[0].holds(INSTANTIATEDNESS)
    closed = check_conditions(upward_closure(fa), upward_closure(fb))
    assert closed[0].holds(INSTANTIATEDNESS)
    assert INSTANTIATEDNESS not in family_conditions("plain")
