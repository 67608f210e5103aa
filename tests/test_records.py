"""Record classes behave as the frozen dataclasses they replaced, and the six
core value classes compare as they did when each spelled out its equality."""

import copy
import dataclasses
import importlib
import os
import pickle
import subprocess
import sys
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gamepowers
from gamepowers.algebra import (
    Comp,
    Dual,
    DynamicGame,
    Plus,
    Times,
    Var,
    op_dual,
    random_dynamic_game,
    random_game,
)
from gamepowers.axioms import SoundnessReport
from gamepowers.equivalence import EquivalenceVerdict
from gamepowers.formulas import TOP, And, Atom, Not
from gamepowers.games import (
    ExtensiveGame,
    FunctionalStrategy,
    Player,
    Record,
    RelationalStrategy,
    StrategicGame,
    to_strategic_form,
)
from gamepowers.models import GAME_FRAME, INSTANTIAL_FRAME, NeighborhoodModel, random_model
from gamepowers.powers import ConditionCheck, PowerFamily, random_family_pair
from gamepowers.representation import RepresentationInput
from helpers import RECORD_TWINS, REFERENCE_EQUALITY

# positional arguments for one instance of each record class
EXAMPLES = {
    "Var": ("x",),
    "Plus": (Var("x"), Var("y")),
    "Times": (Var("x"), Dual(Var("y"))),
    "Comp": (Plus(Var("x"), Var("y")), Var("z")),
    "Dual": (Var("x"),),
    "EquationReport": ("x + y", "y + x", "semi", 3, 40, "counterexample", {"x": 1}),
    "CongruenceReport": ("+", "strong", 12, "counterexample", {"pair": [1, 2]}),
    "SoundnessReport": (0, 5, {"monotonicity": 2}, ({"schema": "monotonicity"},)),
    "SearchResult": ("[A]p", True, None, "w0", "random", 17, 600),
    "EquivalenceVerdict": ("strong", False, ("A", ("1",))),
    "HierarchyReport": ({"power": EquivalenceVerdict("power", True)}, ("strong",)),
    "Atom": ("p",),
    "Top": (),
    "Not": (Atom("p"),),
    "And": (Atom("p"), Not(Atom("q"))),
    "Box": (Player.B, frozenset({Atom("p"), TOP, Not(Atom("q"))}), Not(Atom("q"))),
    "Violation": ("turn-missing", ((0,), (1, 0)), "no mover"),
    "FunctionalStrategy": (Player.A, {(): 0, (1,): 1}),
    "RelationalStrategy": (Player.B, {(): (0, 1)}),
    "ConditionCheck": ("Consistency", False, ("a",)),
    "RoundTripReport": ("basic", True, False, True, 4, 6),
}

RECORDS = {
    name: getattr(importlib.import_module(f"gamepowers.{module}"), name)
    for module, name in RECORD_TWINS
}
TWINS = {name: twin for (_, name), twin in RECORD_TWINS.items()}
CASES = [pytest.param(RECORDS[n], TWINS[n], EXAMPLES[n], id=n) for n in RECORDS]


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


def _required(twin) -> int:
    missing = dataclasses.MISSING
    return sum(
        f.default is missing and f.default_factory is missing
        for f in dataclasses.fields(twin)
    )


def test_every_record_class_has_a_twin_and_an_example():
    assert len(RECORD_TWINS) == 21
    assert sorted(name for _, name in RECORD_TWINS) == sorted(EXAMPLES)


@pytest.mark.parametrize("cls, twin, args", CASES)
def test_construction_equality_hash_and_repr_match_the_twin(cls, twin, args):
    names = [f.name for f in dataclasses.fields(twin)]
    assert list(cls.__slots__) == names
    record, reference = cls(*args), twin(*args)
    assert repr(record) == repr(reference)
    assert _hash_or_error(record) == _hash_or_error(reference)
    assert record == cls(*args) and not record != cls(*args)
    assert [getattr(record, n) for n in names] == list(args)
    by_name = dict(zip(names, args))
    assert cls(**by_name) == record
    assert repr(cls(**by_name)) == repr(twin(**by_name))
    if names:
        assert cls(args[0], **dict(list(by_name.items())[1:])) == record
        assert cls(*("other",) * len(names)) != record
    required = _required(twin)
    assert repr(cls(*args[:required])) == repr(twin(*args[:required]))
    assert repr(cls(**dict(list(by_name.items())[:required]))) == repr(
        twin(**dict(list(by_name.items())[:required]))
    )


@pytest.mark.parametrize("cls, twin, args", CASES)
def test_records_are_immutable(cls, twin, args):
    record = cls(*args)
    for name in list(cls.__slots__) + ["extra"]:
        for target in (record, twin(*args)):
            with pytest.raises(AttributeError):
                setattr(target, name, None)
            with pytest.raises(AttributeError):
                delattr(target, name)
    assert repr(record) == repr(twin(*args))


@pytest.mark.parametrize("cls, twin, args", CASES)
def test_bad_constructor_calls_fail_as_the_twin_does(cls, twin, args):
    names = list(cls.__slots__)
    calls = [((*args, "surplus"), {}), (args, {"surplus": 1})]
    if names:
        calls += [((), {}), (args, {names[0]: args[0]})]
    if len(names) > 1:
        calls.append((args[:-1], {names[0]: args[0]}))
    for a, kw in calls:
        with pytest.raises(TypeError):
            twin(*a, **kw)
        with pytest.raises(TypeError):
            cls(*a, **kw)


@pytest.mark.parametrize("cls, twin, args", CASES)
def test_records_copy_and_pickle(cls, twin, args):
    record = cls(*args)
    copies = (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record)))
    for other in copies:
        # a rebuilt frozenset field may list its members in another order
        assert type(other) is cls
        assert other == record


def test_soundness_report_defaults_are_fresh():
    first, second = SoundnessReport(0, 1), SoundnessReport(0, 1)
    assert first.counts == {} and first.violations == ()
    assert first.counts is not second.counts


def test_equal_fields_in_different_types_are_unequal():
    x, y = Var("x"), Var("y")
    pairs = [
        (Plus(x, y), Times(x, y)),
        (Plus(x, y), Comp(x, y)),
        (Times(x, y), Comp(x, y)),
        (Atom("p"), Var("p")),
        (Not(Atom("p")), Dual(Atom("p"))),
        (And(x, y), Plus(x, y)),
        (EquivalenceVerdict("k", True), ConditionCheck("k", True)),
        (FunctionalStrategy(Player.A, {}), RelationalStrategy(Player.A, {})),
        (Atom("p"), ("p",)),
        (Plus(x, y), (x, y)),
    ]
    for a, b in pairs:
        assert a != b and b != a
        assert not a == b and not b == a


# -- drawn formulas and terms --------------------------------------------------

FORMULA_SPECS = st.recursive(
    st.one_of(st.tuples(st.just("Atom"), st.sampled_from("pqr")), st.just(("Top",))),
    lambda sub: st.one_of(
        st.tuples(st.just("Not"), sub),
        st.tuples(st.just("And"), sub, sub),
        st.tuples(
            st.just("Box"), st.sampled_from(Player), st.lists(sub, max_size=2), sub
        ),
    ),
    max_leaves=8,
)

TERM_SPECS = st.recursive(
    st.tuples(st.just("Var"), st.sampled_from("xyz")),
    lambda sub: st.one_of(
        st.tuples(st.just("Dual"), sub),
        st.tuples(st.sampled_from(["Plus", "Times", "Comp"]), sub, sub),
    ),
    max_leaves=8,
)


def build(spec, classes):
    head, *rest = spec
    if head == "Box":
        player, sides, scope = rest
        instants = frozenset(build(s, classes) for s in sides)
        return classes["Box"](player, instants, build(scope, classes))
    if head in ("Atom", "Var"):
        return classes[head](*rest)
    return classes[head](*(build(s, classes) for s in rest))


@settings(max_examples=300, deadline=None)
@given(st.one_of(FORMULA_SPECS, TERM_SPECS), st.one_of(FORMULA_SPECS, TERM_SPECS))
def test_drawn_formulas_and_terms_match_their_twins(a, b):
    ra, rb = build(a, RECORDS), build(b, RECORDS)
    ta, tb = build(a, TWINS), build(b, TWINS)
    assert repr(ra) == repr(ta) and repr(rb) == repr(tb)
    assert hash(ra) == hash(ta) and hash(rb) == hash(tb)
    assert ra == build(a, RECORDS) and hash(ra) == hash(build(a, RECORDS))
    assert (ra == rb) == (ta == tb)
    assert (ra != rb) == (ta != tb)
    assert len({ra, rb}) == len({ta, tb})
    assert pickle.loads(pickle.dumps(ra)) == ra


def test_player_hashes_by_identity():
    assert Player.__hash__ is object.__hash__
    assert {Player.A: 1, Player.B: 2}[Player("A")] == 1


def test_the_command_line_imports_neither_dataclasses_nor_inspect():
    # a fresh interpreter, without site's .pth imports, loads the package
    code = (
        "import sys, gamepowers.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    src = os.path.dirname(os.path.dirname(gamepowers.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


# -- the six core value classes --------------------------------------------------

def _game(rng: Random) -> ExtensiveGame:
    return random_game(rng, rng.randint(1, 3), 2, ("0", "1", "2")[: rng.randint(1, 3)])


def _shuffled(rng: Random, items) -> tuple:
    items = list(items)
    rng.shuffle(items)
    return tuple(items)


def _game_pair(rng, variant):
    g = _game(rng)
    if variant == "rebuilt":
        turn, outcome = (dict(reversed(d.items())) for d in (g.turn, g.outcome))
        return g, ExtensiveGame(g.outcomes, frozenset(g.nodes), turn, outcome, g.cells)
    if variant == "permuted":
        return g, ExtensiveGame(_shuffled(rng, g.outcomes), g.nodes, g.turn, g.outcome, g.cells)
    if variant == "changed":
        return g, op_dual(g)
    return g, _game(rng)


def _strategic_pair(rng, variant):
    g, h = _game_pair(rng, variant)
    return to_strategic_form(g), to_strategic_form(h)


def _family(rng, outcomes) -> PowerFamily:
    members = [[o for o in outcomes if rng.random() < 0.5] for _ in range(rng.randint(0, 3))]
    return PowerFamily(outcomes, members)


def _family_pair(rng, variant):
    outcomes = ("a", "b", "c")[: rng.randint(1, 3)]
    f = _family(rng, outcomes)
    if variant == "rebuilt":
        return f, PowerFamily(outcomes, _shuffled(rng, f.members))
    if variant == "permuted":
        return f, PowerFamily(_shuffled(rng, outcomes), f.member_sets())
    if variant == "changed":
        return f, PowerFamily((*outcomes, "d"), f.members)
    return f, _family(rng, outcomes)


def _dynamic_pair(rng, variant):
    states = ("s0", "s1", "s2")[: rng.randint(1, 3)]
    d = random_dynamic_game(rng, states)
    if variant == "rebuilt":
        return d, DynamicGame(states, dict(reversed(d.games.items())))
    if variant == "permuted":
        return d, DynamicGame(_shuffled(rng, states), d.games)
    if variant == "changed":
        u = rng.choice(states)
        return d, DynamicGame(states, {**d.games, u: op_dual(d.games[u])})
    return d, random_dynamic_game(rng, states)


def _model_pair(rng, variant):
    kind = rng.choice([GAME_FRAME, INSTANTIAL_FRAME])
    m = random_model(rng, kind, max_worlds=3, atoms=("p",))
    data = m.to_json()
    if variant == "rebuilt":
        data["RA"].reverse()
    elif variant == "permuted":
        data["worlds"] = list(_shuffled(rng, data["worlds"]))
    elif variant == "changed":
        data["val"] = {}
    else:
        return m, random_model(rng, kind, max_worlds=3, atoms=("p",))
    return m, NeighborhoodModel.from_json(data)


def _input_pair(rng, variant):
    outcomes = ("a", "b", "c")[: rng.randint(1, 3)]
    mode = rng.choice(["basic", "relational"])
    inp = RepresentationInput(outcomes, *random_family_pair(rng, outcomes, mode), mode)
    if variant == "rebuilt":
        fa, fb = (PowerFamily(outcomes, _shuffled(rng, f.members)) for f in (inp.fa, inp.fb))
        return inp, RepresentationInput(outcomes, fa, fb, mode)
    if variant == "permuted":
        shuffled = _shuffled(rng, outcomes)
        fa, fb = (PowerFamily(shuffled, f.member_sets()) for f in (inp.fa, inp.fb))
        return inp, RepresentationInput(shuffled, fa, fb, mode)
    if variant == "changed":
        return inp, RepresentationInput(outcomes, inp.fb, inp.fa, mode)
    fa, fb = random_family_pair(rng, outcomes, mode)
    return inp, RepresentationInput(outcomes, fa, fb, mode)


# two values of one class from a seeded generator, after a variant: rebuilt
# from reordered parts, over permuted outcomes or states, changed in one part,
# or drawn independently
PAIRS = {
    "ExtensiveGame": _game_pair,
    "StrategicGame": _strategic_pair,
    "PowerFamily": _family_pair,
    "DynamicGame": _dynamic_pair,
    "NeighborhoodModel": _model_pair,
    "RepresentationInput": _input_pair,
}
VARIANTS = ("rebuilt", "permuted", "changed", "drawn")
CORE = [ExtensiveGame, StrategicGame, PowerFamily, DynamicGame, NeighborhoodModel,
        RepresentationInput]


def _core_value(cls):
    return PAIRS[cls.__name__](Random(7), "rebuilt")[0]


def _check_pair(name, a, b):
    same = REFERENCE_EQUALITY[name](a, b)
    assert same == REFERENCE_EQUALITY[name](b, a)
    assert (a == b) is same and (b == a) is same and (a != b) is not same
    assert a == a and not a != a
    if name == "NeighborhoodModel":
        for value in (a, b):
            with pytest.raises(TypeError):
                hash(value)
    elif same:
        assert hash(a) == hash(b)
    return same


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(PAIRS)), st.integers(0, 10**6), st.sampled_from(VARIANTS))
def test_core_equality_matches_the_reference(name, seed, variant):
    a, b = PAIRS[name](Random(seed), variant)
    assert type(a) is type(b)
    _check_pair(name, a, b)


def test_core_pairs_draw_both_verdicts_under_each_variant():
    # families and representation inputs range over an outcome set; games,
    # strategic games, dynamic games and models keep the order they were given
    for name, pair in PAIRS.items():
        verdicts = {
            variant: {_check_pair(name, *pair(Random(seed), variant)) for seed in range(40)}
            for variant in VARIANTS
        }
        assert verdicts["rebuilt"] == {True}, name
        unordered = name in ("PowerFamily", "RepresentationInput")
        assert verdicts["permuted"] == ({True} if unordered else {True, False}), name
        assert False in verdicts["changed"] and False in verdicts["drawn"], name


@pytest.mark.parametrize("cls", CORE, ids=lambda c: c.__name__)
def test_core_values_are_immutable_records(cls):
    value = _core_value(cls)
    assert issubclass(cls, Record)
    for method in ("__eq__", "__hash__", "__setattr__", "__delattr__"):
        assert getattr(cls, method).__qualname__.startswith("Record."), method
    for name in (*cls.__slots__, "extra"):
        for change in (lambda: setattr(value, name, None), lambda: delattr(value, name)):
            with pytest.raises(AttributeError) as info:
                change()
            assert str(info.value) == f"{cls.__name__} is immutable"
    assert value == _core_value(cls)


@pytest.mark.parametrize("cls", CORE, ids=lambda c: c.__name__)
def test_core_values_copy_and_pickle(cls):
    value = _core_value(cls)
    for lazy in ("leaves", "members"):
        getattr(value, lazy, None)  # fills the cache of a game or a family
    copies = (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value)))
    for other in copies:
        assert type(other) is cls and other == value and repr(other) == repr(value)
        if cls is NeighborhoodModel:
            with pytest.raises(TypeError):
                hash(other)
        else:
            assert hash(other) == hash(value)
