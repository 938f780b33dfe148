import pytest

from slowprov.modal.decide import (
    Countermodel,
    Inconclusive,
    Theorem,
    ValidOnAllEnumerated,
    gl_decide,
    gl2_decide,
    glt_decide,
    rooted_trees,
)
from slowprov.modal.formula import parse_formula, variables_of
from slowprov.modal.kripke import (
    GL,
    GL2,
    GLT,
    KripkeModel,
    SemanticsMismatch,
    eval_formula,
    first_failing_world,
    valid_on_model,
)
from slowprov.modal.proofs import Ok, ProofObject, check_proof
from slowprov.oracles import enumerate_a_sound_extensions, enumerate_tree_frames
import modal_corpus

pf = parse_formula


# --- gl_decide ---------------------------------------------------------------

def test_gl_lob_is_theorem():
    out = gl_decide(pf("[]([]p->p)->[]p"))
    assert isinstance(out, Theorem)
    assert isinstance(out.evidence, ValidOnAllEnumerated)
    assert out.evidence.models_checked > 0


def test_gl_k_is_theorem():
    assert isinstance(gl_decide(pf("[](p->q)->([]p->[]q)")), Theorem)


def test_gl_diamond_true_has_singleton_countermodel():
    out = gl_decide(pf("<>true"))
    assert isinstance(out, Countermodel)
    assert out.model.worlds == ("w0",) and out.world == "w0"


def test_gl_rejects_triangle_fragment():
    with pytest.raises(SemanticsMismatch):
        gl_decide(pf("[.]p -> p"))


def test_gl_needs_branching_beyond_one():
    out = gl_decide(pf("[](p|q) -> ([]p | []q)"))
    assert isinstance(out, Countermodel)
    assert len(out.model.worlds) == 3


def test_gl_bound_counts_every_admissible_tree():
    # the 301 trees of height <= 3 and outdegree <= 4 with at most 10 nodes
    # fit under the guard, and the 206 of size 11 would take the count past it
    out = gl_decide(pf("[][][]true | <>true"), combo_guard=500)
    assert out == Inconclusive(10, 0)


def test_gl_guard_reports_inconclusive():
    out = gl_decide(pf("[](p|q) -> ([]p | []q)"), combo_guard=10)
    assert isinstance(out, Inconclusive)
    assert out.max_proof_depth == 0


# --- glt_decide --------------------------------------------------------------

def test_glt_t1_t2_are_proved():
    for text in ["[.]p -> []p", "[]p -> [.][]p"]:
        out = glt_decide(pf(text))
        assert isinstance(out, Theorem)
        assert isinstance(out.evidence, ProofObject)
        assert check_proof(out.evidence) == Ok()


def test_glt_box_to_triangle_fails_on_two_chain():
    out = glt_decide(pf("[]p -> [.]p"))
    assert isinstance(out, Countermodel)
    m = out.model
    assert len(m.worlds) == 2 and m.precR == ()
    assert m.val.get("p", ()) == ()
    assert out.world == "w0"


def test_glt_boxed_false_example():
    out = glt_decide(pf("[]false -> [.]false"))
    assert isinstance(out, Countermodel)
    assert len(out.model.worlds) == 2


def test_glt_inconclusive_on_stress_input():
    out = glt_decide(pf("<.>p -> <.>true"), max_model_size=2)
    assert out == Inconclusive(max_model_size=2, max_proof_depth=4)


# --- gl2_decide --------------------------------------------------------------

def test_gl2_collapse_axiom_and_consequence():
    for text in ["[]p <-> [.][.]p", "[.]p -> []p"]:
        out = gl2_decide(pf(text))
        assert isinstance(out, Theorem)
        assert isinstance(out.evidence, ProofObject)
        assert check_proof(out.evidence) == Ok()


def test_gl2_box_to_triangle_countermodel():
    out = gl2_decide(pf("[]p -> [.]p"))
    assert isinstance(out, Countermodel)
    assert len(out.model.worlds) == 2 and out.world == "w0"


# --- shared properties -------------------------------------------------------

def _decider_for(name):
    return {"GL": (gl_decide, GL), "GLT": (glt_decide, GLT),
            "GL2": (gl2_decide, GL2)}[name]


@pytest.mark.parametrize("system", ["GL", "GLT", "GL2"])
def test_corpus_coherence(system):
    """Neither decider may ever contradict the curated labels."""
    decide, semantics = _decider_for(system)
    theorems = getattr(modal_corpus, f"{system}_THEOREMS")
    nons = getattr(modal_corpus, f"{system}_NON_THEOREMS")
    assert len(theorems) == 20 and len(nons) == 20
    for text in theorems:
        out = decide(pf(text))
        assert isinstance(out, Theorem), (system, text, out)
    for text in nons:
        out = decide(pf(text))
        assert isinstance(out, Countermodel), (system, text, out)


@pytest.mark.parametrize("system", ["GL", "GLT", "GL2"])
def test_countermodel_replay(system):
    decide, semantics = _decider_for(system)
    for text in getattr(modal_corpus, f"{system}_NON_THEOREMS"):
        out = decide(pf(text))
        assert eval_formula(out.model, out.world, pf(text), semantics) is False


@pytest.mark.parametrize("system", ["GL", "GLT", "GL2"])
def test_decisions_are_deterministic(system):
    decide, _ = _decider_for(system)
    for text in list(getattr(modal_corpus, f"{system}_NON_THEOREMS"))[:5]:
        assert decide(pf(text)) == decide(pf(text))


def test_theorem_proofs_conclude_the_input():
    for text in modal_corpus.GLT_THEOREMS:
        out = glt_decide(pf(text))
        if isinstance(out.evidence, ProofObject):
            assert out.evidence.lines[-1].formula == pf(text)


# --- frame sweeps ------------------------------------------------------------

def _frames_to(size_cap):
    for size in range(1, size_cap + 1):
        for frame in enumerate_tree_frames(size):
            names = frame.world_names()
            prec = tuple((names[x], names[y]) for x, y in frame.ancestor_pairs())
            yield names, prec


def test_gl_soundness_sweep():
    """Loeb and K hold at every world of every frame up to size 6."""
    lob = pf("[]([]p -> p) -> []p")
    k = pf("[](p -> p) -> ([]p -> []p)")
    models = 0
    for names, prec in _frames_to(6):
        for mask in range(1 << len(names)):
            val = {"p": tuple(w for i, w in enumerate(names) if mask >> i & 1)}
            m = KripkeModel(worlds=names, root=names[0], prec=prec, val=val)
            assert valid_on_model(m, lob, GL)
            assert valid_on_model(m, k, GL)
            models += 1
    assert models > 80_000


def test_gl2_collapse_soundness_sweep():
    """The two-step collapse axiom holds on every frame up to size 6."""
    ax2 = pf("[]p <-> [.][.]p")
    for names, prec in _frames_to(6):
        for mask in range(1 << len(names)):
            val = {"p": tuple(w for i, w in enumerate(names) if mask >> i & 1)}
            m = KripkeModel(worlds=names, root=names[0], prec=prec, val=val)
            assert valid_on_model(m, ax2, GL2)


# --- rooted trees ------------------------------------------------------------

def _parents(levels):
    """Parent index of each non-root node of a level sequence."""
    last_at = {}
    parents = []
    for i, depth in enumerate(levels):
        if i:
            parents.append(last_at[depth - 1])
        last_at[depth] = i
    return tuple(parents)


def _code(parents):
    """A canonical string for the unlabeled rooted tree (AHU encoding)."""
    children = {}
    for child, parent in enumerate(parents, start=1):
        children.setdefault(parent, []).append(child)

    def code(node):
        return "(" + "".join(sorted(code(c) for c in children.get(node, ()))) + ")"
    return code(0)


def test_tree_counts_match_a000081():
    counts = [sum(1 for _ in rooted_trees(n)) for n in range(1, 10)]
    assert counts == [1, 1, 2, 4, 9, 20, 48, 115, 286]


def test_bounds_equal_filtering():
    for n in range(1, 9):
        every = list(rooted_trees(n))
        for height in range(5):
            for degree in range(1, 5):
                want = [t for t in every if max(t) <= height
                        and max(_parents(t).count(i) for i in range(n)) <= degree]
                assert list(rooted_trees(n, height, degree)) == want, (n, height, degree)


def test_every_labeled_frame_has_one_shape():
    for n in range(1, 8):
        shapes = list(rooted_trees(n))
        assert all(t[0] == 0 and all(0 < d <= t[i - 1] + 1 for i, d in enumerate(t) if i)
                   for t in shapes)
        codes = {_code(_parents(t)) for t in shapes}
        assert len(codes) == len(shapes), n
        labeled = {_code(frame.parents) for frame in enumerate_tree_frames(n)}
        assert labeled == codes, n


def _oracle_least_size(a, semantics, max_size):
    """Least labeled countermodel size, by brute force, or None."""
    names = sorted(variables_of(a))
    for size in range(1, max_size + 1):
        for frame in enumerate_tree_frames(size):
            if semantics == GLT:
                models = enumerate_a_sound_extensions(frame, a, len(names))
            else:
                worlds = frame.world_names()
                prec = [(worlds[x], worlds[y]) for x, y in frame.ancestor_pairs()]
                models = (KripkeModel(worlds, worlds[0], prec, (), {
                    v: [w for j, w in enumerate(worlds) if mask >> (i * size + j) & 1]
                    for i, v in enumerate(names)}) for mask in range(1 << len(names) * size))
            if any(first_failing_world(m, a, semantics) is not None for m in models):
                return size
    return None


@pytest.mark.parametrize("system", ["GLT", "GL2"])
def test_least_countermodel_size_matches_labeled_search(system):
    decide, semantics = _decider_for(system)
    for text in getattr(modal_corpus, f"{system}_NON_THEOREMS"):
        a = pf(text)
        want = _oracle_least_size(a, semantics, 4)
        out = decide(a, max_model_size=4)
        if want is None:
            assert isinstance(out, Inconclusive), text
        else:
            assert isinstance(out, Countermodel) and len(out.model.worlds) == want, text
