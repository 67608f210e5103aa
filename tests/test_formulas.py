"""Formula syntax: parsing, printing, normalization, generation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamepowers.formulas import (
    FALSUM,
    TOP,
    And,
    Atom,
    Box,
    Not,
    ParseError,
    Player,
    atoms,
    format_formula,
    implies,
    iff,
    lor,
    parse_formula,
    random_formula,
)
from random import Random

from helpers import big_or, depth, read_formula_file


def test_derived_connectives_normalize():
    p, q = Atom("p"), Atom("q")
    assert parse_formula("p | q") == Not(And(Not(p), Not(q)))
    assert parse_formula("p -> q") == Not(And(p, Not(q)))
    assert parse_formula("false") == Not(TOP)
    assert parse_formula("[A](;true)") == parse_formula("[A]true")
    assert parse_formula("[A](;true)") == Box(Player.A, frozenset(), TOP)


def test_precedence_and_associativity():
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    assert parse_formula("!p & q") == And(Not(p), q)
    assert parse_formula("p & q | r") == lor(And(p, q), r)
    assert parse_formula("p -> q -> r") == implies(p, implies(q, r))
    assert parse_formula("p | q -> r") == implies(lor(p, q), r)
    assert parse_formula("[A]p & q") == And(Box(Player.A, frozenset(), p), q)
    assert parse_formula("(p & q) & r") == And(And(p, q), r)
    assert parse_formula("p & (q & r)") == And(p, And(q, r))


def test_instantial_box_parsing():
    got = parse_formula("[B](p, q; p | q)")
    assert got == Box(
        Player.B,
        frozenset([Atom("p"), Atom("q")]),
        lor(Atom("p"), Atom("q")),
    )
    # parenthesized plain scope is not an instantial group
    assert parse_formula("[A](p & q)") == Box(
        Player.A, frozenset(), And(Atom("p"), Atom("q"))
    )
    # empty side-formula list
    assert parse_formula("[A](; p)") == Box(Player.A, frozenset(), Atom("p"))
    # duplicates in the side list collapse
    assert parse_formula("[A](p, p; q)") == parse_formula("[A](p; q)")


def test_parse_errors_carry_position_and_expectations():
    with pytest.raises(ParseError) as err:
        parse_formula("[C]p")
    assert err.value.pos == 1
    assert "'A'" in err.value.expected
    with pytest.raises(ParseError) as err:
        parse_formula("p & ")
    assert err.value.pos == 4
    with pytest.raises(ParseError) as err:
        parse_formula("[A](p, q)")
    assert "';'" in err.value.expected
    with pytest.raises(ParseError):
        parse_formula("p # q")
    with pytest.raises(ParseError):
        parse_formula("")


def test_printer_emits_parseable_canonical_text():
    f = parse_formula("[A](q, p; p | q) -> ![B]false")
    text = format_formula(f)
    assert parse_formula(text) == f
    # side formulas print sorted
    assert text.index("p") < text.index("q")


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 4))
def test_parse_print_roundtrip(seed, max_depth):
    f = random_formula(Random(seed), max_depth)
    assert parse_formula(format_formula(f)) == f


def test_atoms_and_depth():
    f = parse_formula("[A](p; q -> [B]r)")
    assert atoms(f) == {"p", "q", "r"}
    assert depth(f) == 2
    assert depth(parse_formula("p & !q")) == 0
    assert depth(parse_formula("[B]true")) == 1


def test_big_or():
    assert big_or([]) == FALSUM
    p, q = Atom("p"), Atom("q")
    assert big_or([p]) == p
    assert big_or([q, p]) == big_or([p, q])


def test_iff_unfolds():
    p, q = Atom("p"), Atom("q")
    assert iff(p, q) == And(implies(p, q), implies(q, p))


def test_read_formula_file(tmp_path):
    path = tmp_path / "formulas.txt"
    path.write_text("[A]true\n\np -> q\n")
    fs = read_formula_file(str(path))
    assert len(fs) == 2
    assert fs[0] == parse_formula("[A]true")
    bad = tmp_path / "bad.txt"
    bad.write_text("p &&& q\n")
    with pytest.raises(ParseError):
        read_formula_file(str(bad))


def test_random_formula_determinism():
    a = random_formula(Random(99), 3)
    b = random_formula(Random(99), 3)
    assert a == b
