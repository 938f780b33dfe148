import json
import random

import pytest

from slowprov.modal.formula import Box, Diamond, Nabla, Not, Triangle, Var, parse_formula
from slowprov.modal.kripke import (
    GL,
    GL2,
    GLT,
    KripkeModel,
    ModelError,
    Ok,
    SemanticsMismatch,
    Violation,
    eval_formula,
    first_failing_world,
    model_from_dict,
    model_to_dict,
    random_a_sound_model,
    valid_on_model,
    validate_model,
)
from modal_corpus import random_formula

CHAIN2 = KripkeModel(worlds=("a", "b"), root="a", prec=(("a", "b"),),
                     val={"p": ("b",)})
CHAIN3 = KripkeModel(worlds=("a", "b", "c"), root="a",
                     prec=(("a", "b"), ("a", "c"), ("b", "c")))


def test_model_normalization():
    m = KripkeModel(worlds=("b", "a"), root="a", prec=[("a", "b")],
                    val={"p": ["b", "b"]})
    assert m.worlds == ("b", "a")
    assert m.prec == (("a", "b"),)
    assert m.val["p"] == ("b",)
    with pytest.raises(AttributeError):
        m.root = "b"


@pytest.mark.parametrize("kwargs", [
    dict(worlds=(), root="a"),
    dict(worlds=("a", "a"), root="a"),
    dict(worlds=("a",), root="b"),
    dict(worlds=("a",), root="a", prec=(("a", "z"),)),
    dict(worlds=("a",), root="a", val={"p": ("z",)}),
    dict(worlds=("a", 3), root="a"),
])
def test_model_shape_errors(kwargs):
    with pytest.raises(ModelError):
        KripkeModel(**kwargs)


def test_validate_chain_is_sound_for_anything():
    for text in ["[.]p", "[]p -> [.]p", "p"]:
        assert validate_model(CHAIN2, parse_formula(text)) == Ok()


def test_validate_condition_numbers():
    a = parse_formula("[.]p")
    cases = [
        (KripkeModel(worlds=("a", "b"), root="a",
                     prec=(("a", "a"), ("a", "b"))),
         1, "a precedes itself"),
        (KripkeModel(worlds=("a", "b", "c"), root="a",
                     prec=(("a", "b"), ("b", "c"))),
         1, "missing transitive pair (a, c)"),
        (KripkeModel(worlds=("a", "b"), root="a"),
         1, "root does not reach b"),
        # d sits above both b and c
        (KripkeModel(worlds=("a", "b", "c", "d"), root="a",
                     prec=(("a", "b"), ("a", "c"), ("a", "d"),
                           ("b", "d"), ("c", "d"))),
         1, "d has 2 immediate predecessors"),
        (KripkeModel(worlds=("a", "b"), root="a",
                     prec=(("a", "b"),), precR=(("b", "a"),)),
         2, "auxiliary pair ('b', 'a') outside the tree order"),
        (KripkeModel(worlds=("a", "b", "c"), root="a",
                     prec=(("a", "b"), ("a", "c"), ("b", "c")),
                     precR=(("b", "c"),), val={"p": ("c",)}),
         3, "(a, c) missing"),
        (KripkeModel(worlds=("a", "b", "c"), root="a",
                     prec=(("a", "b"), ("a", "c"), ("b", "c")),
                     precR=(("a", "b"),), val={"p": ("b", "c")}),
         4, "(a, c) missing"),
        # a precR pair whose target has no reflexive witness for [.]p
        (KripkeModel(worlds=("a", "b"), root="a", prec=(("a", "b"),),
                     precR=(("a", "b"),), val={"p": ()}),
         5, "no reflexive witness for (a, b)"),
    ]
    for model, condition, detail in cases:
        assert validate_model(model, a) == Violation(condition, detail)


def test_eval_fixed_cases():
    assert eval_formula(CHAIN2, "a", parse_formula("[.]p"), GLT) is True
    assert eval_formula(CHAIN2, "a", parse_formula("[]p"), GLT) is True
    m = KripkeModel(worlds=("a", "b", "c"), root="a",
                    prec=(("a", "b"), ("a", "c"), ("b", "c")),
                    val={"p": ("b",)})
    assert eval_formula(m, "a", parse_formula("[]p"), GL2) is False


def test_gl_semantics_is_box_only():
    assert eval_formula(CHAIN2, "a", parse_formula("[]p"), GL) is True
    with pytest.raises(SemanticsMismatch):
        eval_formula(CHAIN2, "a", parse_formula("[.]p"), GL)


def test_glt_requires_a_sound_model():
    broken = KripkeModel(worlds=("a", "b"), root="a", prec=(("a", "b"),),
                         precR=(("a", "b"),), val={"p": ()})
    with pytest.raises(SemanticsMismatch):
        eval_formula(broken, "a", parse_formula("[.]p"), GLT)


def test_eval_unknown_world():
    with pytest.raises(ModelError):
        eval_formula(CHAIN2, "zz", parse_formula("p"), GL)


def test_prec2_changes_box_reach():
    assert eval_formula(CHAIN3, "a", parse_formula("[]false"), GL2) is False
    assert eval_formula(CHAIN3, "b", parse_formula("[]false"), GL2) is True


def test_duality_on_random_models():
    rng = random.Random(77)
    for _ in range(200):
        body = random_formula(rng, depth=3)
        size = rng.randint(1, 5)
        names = tuple(f"w{i}" for i in range(size))
        parents = [rng.randrange(i) for i in range(1, size)]
        pairs = set()
        for child in range(1, size):
            a = parents[child - 1]
            while True:
                pairs.add((names[a], names[child]))
                if a == 0:
                    break
                a = parents[a - 1]
        val = {v: tuple(w for w in names if rng.random() < 0.5)
               for v in ("p", "q", "r")}
        m = KripkeModel(worlds=names, root=names[0], prec=tuple(sorted(pairs)),
                        val=val)
        w = rng.choice(names)
        dia = eval_formula(m, w, Diamond(body), GL2)
        assert dia == eval_formula(m, w, Not(Box(Not(body))), GL2)
        nab = eval_formula(m, w, Nabla(body), GL2)
        assert nab == eval_formula(m, w, Not(Triangle(Not(body))), GL2)


def test_first_failing_world_order():
    m = KripkeModel(worlds=("a", "b"), root="a", prec=(("a", "b"),))
    # p fails at both; the first world in model order is reported
    assert first_failing_world(m, Var("p"), GL) == "a"
    assert first_failing_world(m, parse_formula("p -> p"), GL) is None


def test_valid_on_model():
    assert valid_on_model(CHAIN2, parse_formula("[.]p -> []p"), GLT)
    assert not valid_on_model(CHAIN2, parse_formula("p"), GLT)


def test_dict_roundtrip():
    d = model_to_dict(CHAIN2)
    back = model_from_dict(json.loads(json.dumps(d)))
    assert back == CHAIN2


@pytest.mark.parametrize("doc", [
    {"worlds": ["a"], "root": "a", "prec": [], "precR": [], "val": {}, "x": 1},
    {"worlds": ["a"], "root": "a", "prec": [], "precR": []},
    {"worlds": ["a"], "root": "a", "prec": [["a"]], "precR": [], "val": {}},
    {"worlds": "a", "root": "a", "prec": [], "precR": [], "val": {}},
    {"worlds": ["a"], "root": "a", "prec": [], "precR": [], "val": {"p": "a"}},
])
def test_dict_rejects(doc):
    with pytest.raises(ModelError):
        model_from_dict(doc)


AXIOM_INSTANCES = [
    "[.](p -> q) -> ([.]p -> [.]q)",
    "[.]([.]p -> p) -> [.]p",
    "[](p -> q) -> ([]p -> []q)",
    "[.]p -> []p",
    "[]p -> [.][]p",
    "[]p -> [][.]p",
    "[][.]p -> []p",
]


def test_axiom_validity_on_seeded_models():
    """Every GLT axiom instance holds everywhere on 500 generated models."""
    for text in AXIOM_INSTANCES:
        a = parse_formula(text)
        rng = random.Random(20260822)
        for _ in range(500):
            m = random_a_sound_model(rng, a, max_size=8)
            assert validate_model(m, a) == Ok()
            assert valid_on_model(m, a, GLT), (text, m)


def test_random_model_generator_is_deterministic():
    a = parse_formula("[.]p -> []p")
    m1 = random_a_sound_model(random.Random(5), a)
    m2 = random_a_sound_model(random.Random(5), a)
    assert m1 == m2
