"""Record classes behave as the frozen dataclasses they replaced."""

import copy
import dataclasses
import importlib
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gamepowers
from gamepowers.algebra import Comp, Dual, Plus, Times, Var
from gamepowers.axioms import SoundnessReport
from gamepowers.equivalence import EquivalenceVerdict
from gamepowers.formulas import TOP, And, Atom, Not
from gamepowers.games import FunctionalStrategy, Player, RelationalStrategy
from gamepowers.powers import ConditionCheck
from helpers import RECORD_TWINS

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
