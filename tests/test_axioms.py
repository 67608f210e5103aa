"""Schema instantiation, soundness sweeps, and countermodel search."""

import tracemalloc
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamepowers.axioms import (
    ALL_SCHEMATA,
    SoundnessReport,
    axiom_soundness_suite,
    countermodel_search,
    schema_instance,
)
from gamepowers.formulas import FALSUM, TOP, And, Atom, Box, Not, Top, lor, parse_formula
from gamepowers.games import Player
from gamepowers.models import (
    GAME_FRAME,
    INSTANTIAL_FRAME,
    NeighborhoodModel,
    model_check,
    random_model,
    validate_frame,
)
from helpers import reference_countermodel_search, schema_frame_kind


def small_model():
    worlds = ("u", "v")
    ra = [("u", {"u", "v"}), ("v", {"v"})]
    rb = [("u", {"u"}), ("u", {"u", "v"}), ("v", {"v"})]
    return NeighborhoodModel(worlds, ra, rb, {"p": {"u"}, "q": {"v"}})


def test_schema_registry():
    # the 8 instantial schemata come first, then the 3 plain ones
    kinds = [schema_frame_kind(name) for name in ALL_SCHEMATA]
    assert kinds == [INSTANTIAL_FRAME] * 8 + [GAME_FRAME] * 3
    with pytest.raises(ValueError):
        schema_instance("modus-ponens", 0)
    with pytest.raises(ValueError):
        schema_frame_kind("modus-ponens")


def test_schema_instances_are_deterministic():
    for name in ALL_SCHEMATA:
        assert schema_instance(name, 5) == schema_instance(name, 5)


def test_non_emptiness_instance_shape():
    f = schema_instance("non-emptiness", 1)
    assert isinstance(f, Box)
    assert f.instants == frozenset()
    assert isinstance(f.scope, Top)


def test_every_schema_instance_holds_on_random_valid_models():
    rng = Random(13)
    for name in ALL_SCHEMATA:
        kind = schema_frame_kind(name)
        for _ in range(5):
            f = schema_instance(name, rng)
            m = random_model(rng, kind, max_worlds=4)
            assert model_check(m, f) == frozenset(m.worlds), name


def test_consistency_instance_on_hand_model():
    m = small_model()
    assert model_check(m, parse_formula("[A]p -> ![B]!p")) == frozenset(m.worlds)


def test_falsum_side_instance_holds_everywhere():
    m = small_model()
    assert model_check(m, parse_formula("![A](false;p)")) == frozenset(m.worlds)


def test_suite_counts_cycle_and_replay():
    rep = axiom_soundness_suite(42, samples=220)
    assert rep
    assert sum(rep.counts.values()) == 220
    assert set(rep.counts) == set(ALL_SCHEMATA)
    assert rep.counts["monotonicity"] == 20
    assert rep.violations == ()
    again = axiom_soundness_suite(42, samples=220)
    assert rep.to_json() == again.to_json()


def test_report_flags_violations():
    bad = SoundnessReport(0, 1, {"monotonicity": 1}, ({"schema": "monotonicity"},))
    assert not bad
    assert bad.to_json()["violations"] == [{"schema": "monotonicity"}]


def test_search_refutes_side_strengthening():
    r = countermodel_search("[A](p;p|q) -> [A](p;p)", max_worlds=5, seed=1)
    assert r
    assert r.phase == "exhaustive"
    assert len(r.model.worlds) <= 2
    assert validate_frame(r.model, INSTANTIAL_FRAME).all_hold
    f = parse_formula("[A](p;p|q) -> [A](p;p)")
    assert r.world not in model_check(r.model, f)


# three pairwise disjoint A-neighbourhoods at one world, which no frame
# under the exhaustive phase's family-size caps holds
THREE_DISJOINT = "!([A](p; p) & [A](q; q) & ![A](p, q; true) & [A](!p & !q; true))"


def test_random_phase_refutes_what_the_exhaustive_caps_cannot_build():
    r = countermodel_search(THREE_DISJOINT, seed=1, budget_ms=4000)
    assert r and r.phase == "random"
    assert (r.world, len(r.model.worlds), r.evaluations) == ("w0", 4, 24213)
    assert r.world not in model_check(r.model, parse_formula(THREE_DISJOINT))
    assert validate_frame(r.model, INSTANTIAL_FRAME).all_hold
    want = reference_countermodel_search(THREE_DISJOINT, seed=1, budget_ms=4000)
    assert r.to_json() == want.to_json()


def test_search_leaves_tautologies_alone():
    r = countermodel_search("p | !p", max_worlds=4, seed=1, budget_ms=100)
    assert not r
    assert r.model is None and r.world is None
    assert r.phase == "budget"
    assert r.evaluations == r.budget == 1000


def test_search_refutes_a_bare_atom_immediately():
    r = countermodel_search("p", max_worlds=3, seed=0, budget_ms=50)
    assert r
    assert len(r.model.worlds) == 1
    assert r.evaluations <= 2


def test_search_finds_nothing_for_schema_instances():
    for name in ("monotonicity", "case-split", "instantiatedness", "plain-consistency"):
        f = schema_instance(name, 3)
        r = countermodel_search(f, max_worlds=4, seed=2, budget_ms=200)
        assert not r, name


def test_search_accepts_formula_objects_and_replays():
    f = parse_formula("[B]p -> p")
    a = countermodel_search(f, max_worlds=4, seed=5, budget_ms=100)
    b = countermodel_search("[B]p -> p", max_worlds=4, seed=5, budget_ms=100)
    assert a == b
    assert a.found  # a box offers no reflexivity
    assert a.to_json() == b.to_json()


def test_search_rejects_bad_world_cap():
    # the cap is checked before any model is built
    for cap in (0, 9, 40):
        with pytest.raises(ValueError, match="between 1 and 8"):
            countermodel_search("p", max_worlds=cap, seed=0)


def test_search_respects_budget():
    r = countermodel_search("p | !p", max_worlds=5, seed=3, budget_ms=7)
    assert r.evaluations <= r.budget == 70


def test_search_result_json_shape():
    r = countermodel_search("[A](p;p|q) -> [A](p;p)", max_worlds=3, seed=1)
    obj = r.to_json()
    assert set(obj) == {
        "formula",
        "found",
        "model",
        "world",
        "phase",
        "evaluations",
        "budget",
    }
    assert obj["found"] is True
    assert obj["model"]["worlds"]


def formulas(depth):
    """Formulas over p, q and r (or none of them) nested at most depth deep."""
    leaf = st.sampled_from([Atom("p"), Atom("q"), Atom("r"), TOP, FALSUM])
    if depth == 0:
        return leaf
    sub = formulas(depth - 1)
    return st.one_of(
        leaf,
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(lor, sub, sub),
        st.builds(Box, st.sampled_from(Player), st.frozensets(sub, max_size=2), sub),
    )


@settings(max_examples=200, deadline=None)
@given(formulas(3), st.sampled_from((1, 2, 3, 4)), st.integers(0, 2**16), st.integers(1, 80))
def test_search_matches_one_model_per_valuation_row(f, max_worlds, seed, budget_ms):
    got = countermodel_search(f, max_worlds=max_worlds, seed=seed, budget_ms=budget_ms)
    want = reference_countermodel_search(f, max_worlds, seed, budget_ms)
    assert got.to_json() == want.to_json()


@pytest.mark.parametrize("name", ALL_SCHEMATA)
def test_schema_searches_match_one_model_per_valuation_row(name):
    # drawn formulas are mostly refuted in the first frames; schema
    # instances are valid, so their searches read every frame the budget allows
    for seed in range(4):
        f = schema_instance(name, seed)
        got = countermodel_search(f, max_worlds=3, seed=seed, budget_ms=80)
        assert got.to_json() == reference_countermodel_search(f, 3, seed, 80).to_json()


def _count_models_built(monkeypatch):
    built = []
    build = NeighborhoodModel._from_families.__func__

    def counted(cls, *args):
        built.append(args)
        return build(cls, *args)

    monkeypatch.setattr(NeighborhoodModel, "_from_families", classmethod(counted))
    return built


@pytest.mark.parametrize(
    "text, max_worlds, budget_ms",
    [("p | !p", 3, 7), ("p | !p", 2, 40), ("[A]p -> [A](p;p)", 3, 100)],
)
def test_exhaustive_phase_builds_no_model_when_the_budget_runs_out(
    monkeypatch, text, max_worlds, budget_ms
):
    built = _count_models_built(monkeypatch)
    r = countermodel_search(text, max_worlds=max_worlds, seed=0, budget_ms=budget_ms)
    assert (r.found, r.phase, r.evaluations) == (False, "budget", r.budget)
    assert built == []


@pytest.mark.parametrize(
    "text", ["[A](p;p|q) -> [A](p;p)", "[A]p -> p", "p -> [B]p", "[A](p;q) -> [A](q;p)"]
)
def test_exhaustive_phase_builds_only_the_refuting_model(monkeypatch, text):
    built = _count_models_built(monkeypatch)
    r = countermodel_search(text, max_worlds=5, seed=0)
    assert r.phase == "exhaustive"
    assert r.evaluations > 1
    assert len(built) == 1
    assert r.world not in model_check(r.model, parse_formula(text))


def test_row_table_is_bounded_by_the_budget():
    # 10 atoms give 2^20 valuation rows per two-world frame; the budget
    # reads 1,030 of them in all
    text = " & ".join(f"p{i}" for i in range(10)) + " -> p0"
    tracemalloc.start()
    try:
        r = countermodel_search(text, max_worlds=3, seed=0, budget_ms=103)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (r.found, r.phase, r.evaluations, r.budget) == (False, "budget", 1030, 1030)
    assert peak < 5 * 2**20
