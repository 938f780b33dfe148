import json
import random

import pytest

from slowprov.modal import kripke
from slowprov.modal.formula import (
    And,
    Bot,
    Box,
    Diamond,
    Iff,
    Implies,
    Nabla,
    Not,
    Or,
    Top,
    Triangle,
    Var,
    modal_depth,
    parse_formula,
    variables_of,
)
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
from slowprov.oracles import TreeFrame, enumerate_a_sound_extensions, enumerate_tree_frames
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


# Each malformed argument set, with a well-formed one over a nearly identical
# frame. The unhashable entries once ended in TypeError, not ModelError.
SHAPE_ERRORS = [
    (dict(worlds=(), root="a"), dict(worlds=("a",), root="a")),
    (dict(worlds=("a", "a"), root="a"), dict(worlds=("a", "b"), root="a")),
    (dict(worlds=("a",), root="b"), dict(worlds=("a", "b"), root="b")),
    (dict(worlds=("a",), root="a", prec=(("a", "z"),)),
     dict(worlds=("a", "z"), root="a", prec=(("a", "z"),))),
    (dict(worlds=("a",), root="a", val={"p": ("z",)}),
     dict(worlds=("a",), root="a", val={"p": ("a",)})),
    (dict(worlds=("a", 3), root="a"), dict(worlds=("a", "3"), root="a")),
    (dict(worlds=("a", ["x"]), root="a"), dict(worlds=("a", "x"), root="a")),
    (dict(worlds=("a",), root={}), dict(worlds=("a",), root="a")),
    (dict(worlds=("a",), root="a", prec=((["a"], "a"),)),
     dict(worlds=("a",), root="a", prec=(("a", "a"),))),
    (dict(worlds=("a",), root="a", precR=(("a", {}),)),
     dict(worlds=("a",), root="a", precR=(("a", "a"),))),
    (dict(worlds=("a",), root="a", val={"p": [["a"]]}),
     dict(worlds=("a",), root="a", val={"p": ["a"]})),
    (dict(worlds=("a",), root="a", val={"p": ["a", 3]}),
     dict(worlds=("a",), root="a", val={"p": ["a"]})),
]


@pytest.mark.parametrize("kwargs", [bad for bad, _ in SHAPE_ERRORS])
def test_model_shape_errors(kwargs):
    with pytest.raises(ModelError):
        KripkeModel(**kwargs)


def _forget_last_frame(monkeypatch):
    monkeypatch.setattr(kripke, "_last", (None, None))


@pytest.mark.parametrize("bad, good", SHAPE_ERRORS)
def test_shape_errors_after_a_model_over_a_near_frame(monkeypatch, bad, good):
    _forget_last_frame(monkeypatch)
    with pytest.raises(ModelError) as alone:
        KripkeModel(**bad)
    KripkeModel(**good)
    with pytest.raises(ModelError) as after:
        KripkeModel(**bad)
    assert str(after.value) == str(alone.value)


def test_frame_memo_sees_arguments_changed_in_place():
    worlds, prec = ["a", "b"], [["a", "b"]]
    assert KripkeModel(worlds, "a", prec).prec == (("a", "b"),)
    prec[0][1] = "a"
    assert KripkeModel(worlds, "a", prec).prec == (("a", "a"),)
    worlds[1] = "c"
    with pytest.raises(ModelError, match="prec pair"):
        KripkeModel(worlds, "a", [["a", "b"]])


def test_frame_memo_hit_equals_a_fresh_build(monkeypatch):
    args = (("w0", "w1", "w2"), "w0", (("w0", "w1"), ("w0", "w2"), ("w1", "w2")),
            (("w0", "w2"),))
    KripkeModel(*args, val={"q": ("w1",)})
    hit = KripkeModel(*args, val={"p": ("w2", "w1")})
    _forget_last_frame(monkeypatch)
    fresh = KripkeModel(*args, val={"p": ["w1", "w2"]})
    assert hit._frame is not fresh._frame
    assert hit == fresh
    assert repr(hit) == repr(fresh)
    assert model_to_dict(hit) == model_to_dict(fresh)
    a = parse_formula("[]p -> [.][.]p")
    for sem in (GL2, GLT):
        assert first_failing_world(hit, a, sem) == first_failing_world(fresh, a, sem)


def _counting_frames(monkeypatch):
    """The snapshot every frame is built from, in order of building."""
    built, real = [], kripke._Frame

    def frame(*snapshot):
        built.append(snapshot)
        return real(*snapshot)
    monkeypatch.setattr(kripke, "_Frame", frame)
    _forget_last_frame(monkeypatch)
    return built


def test_a_sweep_builds_its_frame_once(monkeypatch):
    built = _counting_frames(monkeypatch)
    frame = TreeFrame(4, (0, 1, 1))
    names = frame.world_names()
    prec = [(names[x], names[y]) for x, y in frame.ancestor_pairs()]
    a = parse_formula("[]([]p -> p) -> []q")
    failing = 0
    for mask in range(1 << 8):
        val = {v: [w for j, w in enumerate(names) if mask >> (i * 4 + j) & 1]
               for i, v in enumerate("pq")}
        m = KripkeModel(names, names[0], prec, (), val)
        failing += first_failing_world(m, a, GL) is not None
        failing += first_failing_world(m, a, GL2) is not None
    assert failing > 0
    assert built == [(names, "w0", tuple(prec), ())]


def test_extensions_build_one_frame_per_relation(monkeypatch):
    built = _counting_frames(monkeypatch)
    validated = []
    real = kripke.validate_model
    monkeypatch.setattr(kripke, "validate_model",
                        lambda m, a: validated.append(m.precR) or real(m, a))
    a = parse_formula("[.]p -> []q")
    for frame in enumerate_tree_frames(3):
        del built[:], validated[:]
        list(enumerate_a_sound_extensions(frame, a, 2))
        relations = [snapshot[3] for snapshot in built]
        assert len(set(relations)) == len(relations) > 1
        assert set(validated) == set(relations)
        assert len(validated) == len(relations) << 6


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


def _reference_holds(m, semantics):
    """Truth of a formula at a world, by recursion on the formula and the
    definitions of the readings: no masks, no compiled programs."""
    tree = {w: [v for v in m.worlds if (w, v) in m.prec] for w in m.worlds}
    if semantics == GL:
        box = tree
    elif semantics == GL2:
        box = {w: [v for v in m.worlds if any(v in tree[u] for u in tree[w])]
               for w in m.worlds}
    else:
        box = {w: [v for v in m.worlds if (w, v) in m.precR] for w in m.worlds}

    def holds(w, f):
        t = type(f)
        if t is Var:
            return w in m.val.get(f.name, ())
        if t in (Top, Bot):
            return t is Top
        if t is Not:
            return not holds(w, f.body)
        if t in (Box, Diamond, Triangle, Nabla):
            seen = [holds(v, f.body) for v in (box if t in (Box, Diamond) else tree)[w]]
            return all(seen) if t in (Box, Triangle) else any(seen)
        x, y = holds(w, f.left), holds(w, f.right)
        return {And: x and y, Or: x or y, Implies: not x or y, Iff: x == y}[t]
    return holds


def _agrees_with_reference(m, a, semantics):
    holds = _reference_holds(m, semantics)
    truth = [holds(w, a) for w in m.worlds]
    assert [eval_formula(m, w, a, semantics) for w in m.worlds] == truth, (m, a)
    first = next((w for w, t in zip(m.worlds, truth) if not t), None)
    assert first_failing_world(m, a, semantics) == first, (m, a)


SWEEP_FORMULAS = ["[]([]p -> p) -> []p", "[]p -> [][]p", "[]p <-> [.][.]p", "[.]p -> []p"]


def _seeded_formulas(seed, box_only, count=6):
    """Seeded random ASTs of depth 4 over two variables, with nested modalities."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        f = random_formula(rng, depth=4, box_only=box_only)
        if len(variables_of(f)) == 2 and modal_depth(f) >= 2 and f not in out:
            out.append(f)
    return out


@pytest.mark.parametrize("semantics", [GL, GL2])
def test_evaluation_matches_a_recursive_reference(semantics):
    formulas = [parse_formula(t) for t in SWEEP_FORMULAS]
    if semantics == GL:
        formulas = formulas[:2]
    formulas += _seeded_formulas(31, box_only=semantics == GL)
    for size in range(1, 5):
        for frame in enumerate_tree_frames(size):
            names = frame.world_names()
            prec = tuple((names[x], names[y]) for x, y in frame.ancestor_pairs())
            for a in formulas:
                vs = sorted(variables_of(a))
                for mask in range(1 << len(vs) * size):
                    val = {v: [w for j, w in enumerate(names) if mask >> (i * size + j) & 1]
                           for i, v in enumerate(vs)}
                    _agrees_with_reference(KripkeModel(names, names[0], prec, (), val),
                                           a, semantics)


def test_glt_evaluation_matches_a_recursive_reference():
    formulas = [parse_formula(t) for t in AXIOM_INSTANCES] + _seeded_formulas(32, False)
    checked = 0
    for size in range(1, 4):
        for frame in enumerate_tree_frames(size):
            for a in formulas:
                for m in enumerate_a_sound_extensions(frame, a, 2):
                    _agrees_with_reference(m, a, GLT)
                    checked += bool(m.precR)
    assert checked > 500
