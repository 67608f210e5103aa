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
    Formula,
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

from gamepowers.algebra import (
    OPERATIONS,
    Comp,
    Dual,
    Plus,
    TermParseError,
    Times,
    Var,
    format_term,
    parse_term,
)
from gamepowers.axioms import countermodel_search
from gamepowers.models import model_check, random_model
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


ATOM_STARTS = ("'!'", "'('", "'['", "'false'", "'true'", "identifier")


def test_parse_errors_carry_position_and_expectations():
    # (text, message, pos, expected): the parser's exact report for each
    cases = [
        ("p # q", "unexpected character '#' at position 2", 2, ()),
        ("  p\t$", "unexpected character '$' at position 4", 4, ()),
        ("p q", "trailing input 'q' at position 2; expected one of end of input",
         2, ("end of input",)),
        ("[C]p", "unexpected 'C' at position 1; expected one of 'A', 'B'",
         1, ("'A'", "'B'")),
        ("[A p", "unexpected 'p' at position 3; expected one of ']'", 3, ("']'",)),
        ("[A](p, q)", "unexpected ')' at position 8; expected one of ';'", 8, ("';'",)),
        ("(p & q", "unexpected end of input at position 6; expected one of ')'",
         6, ("')'",)),
        ("[A](p; q", "unexpected end of input at position 8; expected one of ')'",
         8, ("')'",)),
        ("", "unexpected end of input at position 0; expected one of "
         "'!', '(', '[', 'false', 'true', identifier", 0, ATOM_STARTS),
        ("p & ", "unexpected end of input at position 4; expected one of "
         "'!', '(', '[', 'false', 'true', identifier", 4, ATOM_STARTS),
        ("p -> )", "unexpected ')' at position 5; expected one of "
         "'!', '(', '[', 'false', 'true', identifier", 5, ATOM_STARTS),
        ("!" * 201 + "p", "formula nested more than 200 levels deep at position 0", 0, ()),
        # a box group is a scope in parentheses or a list of side formulas
        ("[A](q", "unexpected end of input at position 5; expected one of "
         "')', ',', ';'", 5, ("')'", "','", "';'")),
        ("[A](p q; r)", "unexpected 'q' at position 6; expected one of "
         "')', ',', ';'", 6, ("')'", "','", "';'")),
    ]
    for text, message, pos, expected in cases:
        with pytest.raises(ParseError) as err:
            parse_formula(text)
        assert (str(err.value), err.value.pos, err.value.expected) == (message, pos, expected)


def test_box_groups_nest_to_the_bound():
    p, q = Atom("p"), Atom("q")
    assert parse_formula("[A](p) & q") == And(Box(Player.A, frozenset(), p), q)
    f = parse_formula("[A](" * 200 + "p" + ")" * 200)
    for _ in range(200):
        assert f.player == Player.A and not f.instants
        f = f.scope
    assert f == p
    with pytest.raises(ParseError, match="nested more than 200 levels"):
        parse_formula("[A](" * 201 + "p" + ")" * 201)


@pytest.mark.parametrize("opening, closing", [("!(", ")"), ("!", "")])
def test_negation_chains_nest_to_the_bound(opening, closing):
    # the parser's own recursion must not end a chain before the bound does
    f = parse_formula(opening * 200 + "p" + closing * 200)
    for _ in range(200):
        f = f.sub
    assert f == Atom("p")
    with pytest.raises(ParseError, match="nested more than 200 levels"):
        parse_formula(opening * 201 + "p" + closing * 201)


def test_formula_objects_past_the_stack_are_a_value_error():
    # a formula built in Python skips the parser; what the stack cannot hold
    # is refused as too deep instead of ending in RecursionError
    deep = Atom("p")
    for _ in range(3000):
        deep = Not(deep)
    calls = (format_formula, lambda f: countermodel_search(f, seed=1),
             lambda f: model_check(random_model(Random(0)), f))
    for call in calls:
        with pytest.raises(ValueError, match="formula nested more than 200 levels deep"):
            call(deep)


def test_parentheses_add_no_level():
    # a run of parentheses is read without a parser frame per pair
    assert parse_formula("(" * 1000 + "p" + ")" * 1000) == Atom("p")
    assert parse_term("(" * 1000 + "x" + ")" * 1000) == Var("x")
    assert parse_formula("(" * 1000 + "p) & q" + ")" * 999) == And(Atom("p"), Atom("q"))
    assert parse_term("((" * 150 + "x" + ") + y)" * 150) == parse_term("x" + " + y" * 150)


P, Q, R = Atom("p"), Atom("q"), Atom("r")
X, Y, Z = Var("x"), Var("y"), Var("z")


@pytest.mark.parametrize("tree, text", [
    (And(And(P, Q), R), "p & q & r"),
    (And(P, And(Q, R)), "p & (q & r)"),
    (Not(And(P, Q)), "!(p & q)"),
    (lor(P, Q), "!(!p & !q)"),
    (implies(P, implies(Q, R)), "!(p & !!(q & !r))"),
    (And(TOP, FALSUM), "true & false"),
    (Not(FALSUM), "!false"),
    (Box(Player.A, frozenset(), And(P, Q)), "[A](p & q)"),
    (Box(Player.B, frozenset([Q, P]), lor(P, Q)), "[B](p, q; !(!p & !q))"),
    (And(Box(Player.A, frozenset(), Box(Player.B, frozenset(), P)), Q), "[A][B]p & q"),
    (Box(Player.A, frozenset([FALSUM, implies(P, Q)]), TOP), "[A](!(p & !q), false; true)"),
    (Dual(Dual(X)), "--x"),
    (Times(Plus(X, Y), Z), "(x + y) * z"),
    (Comp(X, Comp(Y, Z)), "x o (y o z)"),
    (Dual(Plus(X, Y)), "-(x + y)"),
    (Plus(Plus(X, Dual(Y)), Times(Y, Comp(Z, X))), "x + -y + y * z o x"),
])
def test_printed_text_is_pinned(tree, text):
    # a printer that changed its text could still round-trip
    fmt = format_formula if isinstance(tree, Formula) else format_term
    assert fmt(tree) == text


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


# each grammar's parser, printer, error class and own symbols
GRAMMARS = {
    "formula": (parse_formula, format_formula, ParseError,
                ["!", "&", "|", "->", "[", "]", ",", ";", "A", "B", "true", "false"]),
    "term": (parse_term, format_term, TermParseError, [*OPERATIONS, "oo"]),
}
SOUP = ["(", ")", "p", "x1", "_", " ", "\t", "-", ">", "#", "?", "=", "\u00e9"]


@pytest.mark.parametrize("grammar", GRAMMARS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_string_gets_a_tree_or_a_parse_error(grammar, data):
    parse, fmt, error, symbols = GRAMMARS[grammar]
    text = "".join(data.draw(st.lists(st.sampled_from(symbols + SOUP), max_size=16)))
    try:
        tree = parse(text)
    except error:
        return
    assert parse(fmt(tree)) == tree


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
