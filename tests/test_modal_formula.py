import copy
import gc
import pickle
import random

import pytest

from slowprov.modal import formula as formula_module
from slowprov.modal.formula import (
    MAX_FORMULA_DEPTH,
    And,
    Bot,
    Box,
    Diamond,
    FormulaError,
    Iff,
    Implies,
    Nabla,
    Not,
    Or,
    ParseError,
    Top,
    UNARY,
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


def test_equal_formulas_are_the_same_object():
    for text in ["[]p -> [.]p", "~<>true", "[]([]p -> p) -> []p", "p <-> q <-> p"]:
        assert parse_formula(text) is parse_formula(text)
    assert Var("p") is Var("p")
    assert Bot() is Bot() and Top() is not Bot()
    assert And(P, Q) is parse_formula("p & q") and And(P, Q) is not And(Q, P)
    assert Not(P) is not Box(P)


def test_copies_are_the_same_object():
    rng = random.Random(5)
    sample = [random_formula(rng, depth=6) for _ in range(50)]
    sample += [parse_formula(nested(shape, MAX_FORMULA_DEPTH)) for shape in NESTINGS]
    for f in sample:
        assert pickle.loads(pickle.dumps(f)) is f
        assert copy.copy(f) is f
        assert copy.deepcopy(f) is f


def test_intern_table_drops_what_nothing_holds():
    gc.collect()
    before = len(formula_module._table)
    f = parse_formula(" & ".join(f"[.]x{i}" for i in range(50)))
    assert len(formula_module._table) == before + 149
    del f
    gc.collect()
    assert len(formula_module._table) == before


_LEVEL_IFF, _LEVEL_IMP, _LEVEL_OR, _LEVEL_AND, _LEVEL_UN = 1, 2, 3, 4, 5


def _level(f):
    if isinstance(f, Iff):
        return _LEVEL_IFF
    if isinstance(f, Implies):
        return _LEVEL_IMP
    if isinstance(f, Or):
        return _LEVEL_OR
    if isinstance(f, And):
        return _LEVEL_AND
    if isinstance(f, UNARY):
        return _LEVEL_UN
    return 6


def _render_by_cases(f, floor=_LEVEL_IFF):
    """The printer as one case per node type, kept to check the table-driven one."""
    if isinstance(f, Bot):
        s = "false"
    elif isinstance(f, Top):
        s = "true"
    elif isinstance(f, Var):
        s = f.name
    elif isinstance(f, Not):
        s = "~" + _render_by_cases(f.body, _LEVEL_UN)
    elif isinstance(f, Box):
        s = "[]" + _render_by_cases(f.body, _LEVEL_UN)
    elif isinstance(f, Diamond):
        s = "<>" + _render_by_cases(f.body, _LEVEL_UN)
    elif isinstance(f, Triangle):
        s = "[.]" + _render_by_cases(f.body, _LEVEL_UN)
    elif isinstance(f, Nabla):
        s = "<.>" + _render_by_cases(f.body, _LEVEL_UN)
    elif isinstance(f, And):
        s = _render_by_cases(f.left, _LEVEL_AND) + " & " + _render_by_cases(f.right, _LEVEL_UN)
    elif isinstance(f, Or):
        s = _render_by_cases(f.left, _LEVEL_OR) + " | " + _render_by_cases(f.right, _LEVEL_AND)
    elif isinstance(f, Implies):
        s = _render_by_cases(f.left, _LEVEL_OR) + " -> " + _render_by_cases(f.right, _LEVEL_IMP)
    else:
        s = _render_by_cases(f.left, _LEVEL_IFF) + " <-> " + _render_by_cases(f.right, _LEVEL_IMP)
    return "(" + s + ")" if _level(f) < floor else s


def test_printer_matches_the_case_by_case_printer():
    rng = random.Random(1019)
    sample = [random_formula(rng, depth=rng.choice((1, 4, 8))) for _ in range(5000)]
    sample += [parse_formula(nested(shape, MAX_FORMULA_DEPTH)) for shape in NESTINGS]
    for f in sample:
        assert render_formula(f) == _render_by_cases(f)


def test_printer_rejects_what_is_not_a_formula():
    with pytest.raises(FormulaError, match="not a formula: 5"):
        render_formula(Not(5))
