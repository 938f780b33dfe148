import random

import pytest

from slowprov.modal.formula import (
    MAX_FORMULA_DEPTH,
    And,
    Bot,
    Box,
    Diamond,
    Iff,
    Implies,
    Nabla,
    Not,
    Or,
    ParseError,
    Top,
    Triangle,
    Var,
    modal_depth,
    parse_formula,
    render_formula,
    subformulas,
    uses_triangle,
    variables_of,
)
from modal_corpus import NESTINGS, nested, random_formula

P, Q = Var("p"), Var("q")


def test_parse_basic_shapes():
    assert parse_formula("[]p -> [.]p") == Implies(Box(P), Triangle(P))
    assert parse_formula("~<>true") == Not(Diamond(Top()))
    lob = parse_formula("[]([]p->p)->[]p")
    assert lob == Implies(Box(Implies(Box(P), P)), Box(P))


def test_parse_precedence_and_associativity():
    assert parse_formula("p -> q -> p") == Implies(P, Implies(Q, P))
    assert parse_formula("p & q | r") == Or(And(P, Q), Var("r"))
    assert parse_formula("p | q & r") == Or(P, And(Q, Var("r")))
    assert parse_formula("~[]p") == Not(Box(P))
    assert parse_formula("[.]p & q") == And(Triangle(P), Q)
    assert parse_formula("p <-> q <-> p") == Iff(Iff(P, Q), P)
    assert parse_formula("<.>~p") == Nabla(Not(P))
    assert parse_formula("[](p -> p)") != parse_formula("[]p -> p")


def test_roundtrip_on_fixed_strings():
    for text in ["[]p -> [.]p", "~<>true", "[]([]p -> p) -> []p",
                 "p & (q | r)", "<.>p <-> ~[.]~p", "false -> true"]:
        f = parse_formula(text)
        assert parse_formula(render_formula(f)) == f


@pytest.mark.parametrize("bad", [
    "", "p ->", "(p", "[p", "p q", "P", "~", "p <- q", "[]()", "p & & q",
])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_formula(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_formula("p & ")
    assert exc.value.pos == 4


@pytest.mark.parametrize("shape", NESTINGS)
def test_nesting_limit_on_both_sides(shape):
    f = parse_formula(nested(shape, MAX_FORMULA_DEPTH))
    assert parse_formula(render_formula(f)) == f
    assert subformulas(f)[-1] is f
    for n in (MAX_FORMULA_DEPTH + 1, 2000):
        with pytest.raises(ParseError, match="deeper than"):
            parse_formula(nested(shape, n))


def test_subformulas_ordering():
    assert subformulas(P) == (P,)
    assert subformulas(Box(P)) == (P, Box(P))
    f = Implies(Box(P), Triangle(P))
    assert subformulas(f) == (P, Box(P), Triangle(P), f)


def test_subformulas_dedup():
    f = And(Box(P), Box(P))
    subs = subformulas(f)
    assert subs.count(Box(P)) == 1
    assert subs[-1] is f


def test_measures():
    assert modal_depth(P) == 0
    assert modal_depth(Box(P)) == 1
    assert modal_depth(parse_formula("[]([]p->p)->[]p")) == 2
    assert variables_of(parse_formula("[]p -> (q & true)")) == {"p", "q"}
    assert not uses_triangle(parse_formula("[]p -> <>q"))
    assert uses_triangle(parse_formula("<.>p"))
    assert uses_triangle(parse_formula("~[.]false"))


def test_ast_roundtrip_fixed_sample():
    rng = random.Random(411)
    for _ in range(1000):
        f = random_formula(rng, depth=8)
        assert parse_formula(render_formula(f)) == f


def test_rendering_is_readable():
    assert render_formula(parse_formula("[]([]p->p)->[]p")) == "[]([]p -> p) -> []p"
    assert render_formula(And(P, Or(Q, Var("r")))) == "p & (q | r)"
    assert render_formula(Or(And(P, Q), Var("r"))) == "p & q | r"
