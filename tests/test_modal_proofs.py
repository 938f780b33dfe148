import itertools
import json
import random
import time

import pytest

from slowprov.modal.formula import (BINARY, And, Bot, Iff, Implies, Not, Or, Top,
                                    Triangle, Var, parse_formula)
from slowprov.modal.proofs import (
    AXIOMS,
    SYSTEM_RULES,
    ErrorAt,
    Ok,
    ProofError,
    ProofLine,
    ProofObject,
    check_proof,
    conclusion,
    instantiate,
    is_tautology,
    match,
    proof_from_dict,
    proof_to_dict,
    truth_masks,
)
from slowprov.modal.prover import _TEMPLATES, prove
from modal_corpus import random_formula

pf = parse_formula


def line(text, rule, *refs):
    return ProofLine(pf(text), rule, tuple(refs))


class TestChecker:
    def test_three_line_glt_derivation(self):
        # T1 at p, weakening tautology, MP: the shape from the axioms
        p = ProofObject("GLT", (
            line("[.]p -> []p", "AxT1"),
            line("([.]p -> []p) -> ([.]p -> ([.]p -> []p))", "Taut"),
            line("[.]p -> ([.]p -> []p)", "MP", 1, 2),
        ))
        assert check_proof(p) == Ok()

    def test_nec_box_is_rejected(self):
        p = ProofObject("GLT", (
            line("p -> p", "Taut"),
            line("[](p -> p)", "Nec_box", 1),
        ))
        got = check_proof(p)
        assert isinstance(got, ErrorAt) and got.line == 2
        assert "not a primitive" in got.reason

    def test_mp_mismatch(self):
        p = ProofObject("GL", (
            line("p -> p", "Taut"),
            line("(q -> q) -> (p -> p)", "Taut"),
            line("q -> q", "MP", 1, 2),
        ))
        got = check_proof(p)
        assert isinstance(got, ErrorAt)
        assert got.line == 3 and "MP mismatch" in got.reason

    def test_nec_tri(self):
        p = ProofObject("GL", (
            line("p -> p", "Taut"),
            line("[.](p -> p)", "Nec_tri", 1),
        ))
        assert check_proof(p) == Ok()

    def test_system_gates_axioms(self):
        assert check_proof(ProofObject("GLT", (line("[.]p -> []p", "AxT1"),))) == Ok()
        got = check_proof(ProofObject("GL", (line("[.]p -> []p", "AxT1"),)))
        assert isinstance(got, ErrorAt) and "not part of GL" in got.reason
        got = check_proof(ProofObject("GLT", (line("[]p <-> [.][.]p", "Ax2"),)))
        assert isinstance(got, ErrorAt)
        assert check_proof(ProofObject("GL2", (line("[]p <-> [.][.]p", "Ax2"),))) == Ok()

    def test_unknown_rule_and_system(self):
        got = check_proof(ProofObject("GL", (line("p", "Hunch"),)))
        assert isinstance(got, ErrorAt) and "unknown rule" in got.reason
        got = check_proof(ProofObject("S4", (line("p -> p", "Taut"),)))
        assert got.line == 0

    def test_bool_reference_rejected(self):
        p = ProofObject("GL", (
            line("p -> p", "Taut"),
            line("[.](p -> p)", "Nec_tri", True),
        ))
        got = check_proof(p)
        assert got.line == 2 and "earlier line" in got.reason

    def test_forward_reference(self):
        p = ProofObject("GL", (line("[.]p", "Nec_tri", 1),))
        got = check_proof(p)
        assert got.line == 1 and "earlier line" in got.reason

    def test_axiom_instance_mismatch(self):
        got = check_proof(ProofObject("GL", (
            line("[.](p -> q) -> ([.]p -> [.]p)", "AxK_tri"),)))
        assert isinstance(got, ErrorAt) and "not an instance" in got.reason

    def test_taut_line_must_be_tautology(self):
        got = check_proof(ProofObject("GL", (line("p -> q", "Taut"),)))
        assert got == ErrorAt(1, "not a tautology")

    def test_refs_on_axiom_rejected(self):
        p = ProofObject("GL", (
            line("p -> p", "Taut"),
            line("[.]([.]p -> p) -> [.]p", "AxL_tri", 1),
        ))
        got = check_proof(p)
        assert got.line == 2 and "no references" in got.reason


@pytest.mark.parametrize("tag", sorted(AXIOMS))
def test_axiom_instances_match_back(tag):
    env = {"a": pf("[.]p"), "b": pf("q -> p")}
    f = instantiate(AXIOMS[tag], env)
    got = {}
    assert match(AXIOMS[tag], f, got)
    assert got and got.items() <= env.items()
    for system, rules in SYSTEM_RULES.items():
        if tag in rules:
            assert check_proof(ProofObject(system, (ProofLine(f, tag),))) == Ok()


def test_tautology_checker():
    assert is_tautology(pf("((p -> q) -> p) -> p"))
    assert is_tautology(pf("[]p | ~[]p"))
    assert not is_tautology(pf("[]p | ~[]q"))
    assert not is_tautology(pf("[](p | ~p)"))
    many = " | ".join(f"a{i}" for i in range(17))
    with pytest.raises(ProofError):
        is_tautology(pf(many))


def _truth(f, env):
    """The reference: f's truth value in one row, modal subformulas opaque."""
    if isinstance(f, (Top, Bot)):
        return isinstance(f, Top)
    if isinstance(f, Not):
        return not _truth(f.body, env)
    if isinstance(f, BINARY):
        x, y = _truth(f.left, env), _truth(f.right, env)
        return {And: x and y, Or: x or y, Implies: not x or y, Iff: x == y}[type(f)]
    return env[f]


def _atoms(f, acc):
    if isinstance(f, Not):
        _atoms(f.body, acc)
    elif isinstance(f, BINARY):
        _atoms(f.left, acc)
        _atoms(f.right, acc)
    elif not isinstance(f, (Top, Bot)):
        acc[f] = None
    return list(acc)


def test_tautology_checker_matches_row_by_row_reference():
    rng = random.Random(11)
    seen = 0
    for _ in range(1500):
        f = random_formula(rng, rng.randint(1, 5))
        if rng.random() < 0.3:
            f = Implies(f, Or(f, random_formula(rng, 2)))
        atoms = _atoms(f, {})
        want = all(_truth(f, dict(zip(atoms, row)))
                   for row in itertools.product((False, True), repeat=len(atoms)))
        assert is_tautology(f) == want, f
        seen += want
    assert seen > 300


FULL = (1 << 64) - 1


def test_truth_masks_match_row_by_row_reference():
    # up to six shared atoms, row r sets atom i to bit i of r, on all 64 rows
    rng = random.Random(12)
    seen = 0
    for _ in range(400):
        fs = [random_formula(rng, rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
        acc = {}
        for f in fs:
            atoms = _atoms(f, acc)
        if len(atoms) > 6:
            continue
        seen += 1
        masks = truth_masks(fs)
        for r in range(64):
            env = {a: bool(r >> i & 1) for i, a in enumerate(atoms)}
            assert [m >> r & 1 for m in masks] == [_truth(f, env) for f in fs], (fs, r)
    assert seen > 200


def _combination(rng, atoms):
    """A random boolean formula in which each of atoms occurs."""
    order = rng.sample(atoms, len(atoms))
    f = order[0]
    for a in order[1:]:
        ctor = rng.choice((And, Or, Implies, Iff))
        f = ctor(f, a) if rng.random() < 0.5 else ctor(a, f)
        if rng.random() < 0.2:
            f = Not(f)
    return f


def test_truth_masks_keep_every_tautology_past_six_atoms():
    # past six atoms the rows are a sample, so the filter is sound only if a
    # tautology's mask stays full wherever its atoms are numbered
    rng = random.Random(13)
    ruled_out = 0
    for k in range(7, 17):
        atoms = [Var(f"a{i}") if i % 2 else Triangle(Var(f"a{i}")) for i in range(k)]
        for _ in range(10):
            g, h = _combination(rng, atoms), _combination(rng, atoms[:rng.randint(1, k)])
            tautologies = (Implies(g, g), Implies(And(g, h), g), Implies(g, Or(h, g)),
                           Implies(g, Implies(h, g)), Or(Not(g), g), Iff(Not(Not(h)), h))
            for t in tautologies:
                assert is_tautology(t)
                assert truth_masks([t]) == [FULL]
                assert truth_masks([h, g, t])[2] == FULL
            # the closure's two tests: f -> goal and f -> (g -> goal)
            mg, mh, mgh = truth_masks([g, h, And(g, h)])
            assert not mgh & ~mg and not mg & mh & ~mgh
            ruled_out += truth_masks([g])[0] != FULL and not is_tautology(g)
    assert ruled_out > 50


@pytest.mark.parametrize("text", ["[.]" * 60 + "p -> p", "~" * 60 + "[.]q -> q"])
def test_deep_glt_non_theorem_gives_up_within_a_second(text):
    # the last closure round once tested a tautology per pair of proved lines
    goal = pf(text)
    start = time.perf_counter()
    assert prove(goal, "GLT") is None
    assert time.perf_counter() - start < 1.0


def test_dict_roundtrip():
    p = ProofObject("GLT", (
        line("[.]p -> []p", "AxT1"),
        line("[.]([.]p -> []p)", "Nec_tri", 1),
    ))
    doc = json.loads(json.dumps(proof_to_dict(p)))
    assert proof_from_dict(doc) == p


@pytest.mark.parametrize("doc", [
    {"system": "GL"},
    {"system": "GL", "lines": [{"rule": "Taut"}]},
    {"system": "GL", "lines": [{"formula": "p", "rule": "Taut", "refs": "1"}]},
    {"system": "GL", "lines": [], "junk": True},
    "not even a dict",
    {"system": "GL", "lines": [{"formula": "p -> p", "rule": "Taut"},
                               {"formula": "[.](p -> p)", "rule": "Nec_tri", "refs": [True]}]},
])
def test_dict_rejects(doc):
    with pytest.raises(ProofError):
        proof_from_dict(doc)


PROVABLE = [
    ("p -> p", "GL"),
    ("[.](p -> q) -> ([.]p -> [.]q)", "GL"),
    ("[.]([.]p -> p) -> [.]p", "GL"),
    ("[.]p -> [.][.]p", "GL"),
    ("[.](p & q) -> [.]p", "GL"),
    ("[.](p -> p)", "GL"),
    ("[.]p -> []p", "GLT"),
    ("[]([]p -> p) -> []p", "GLT"),
    ("[]p -> [][]p", "GLT"),
    ("[](p & q) -> []q", "GLT"),
    ("[](p -> p)", "GLT"),
    ("[]p <-> [.][.]p", "GL2"),
    ("[.]p -> []p", "GL2"),
    ("[.][.]p -> []p", "GL2"),
    ("[]p -> [.][.]p", "GL2"),
    ("[]p -> [][]p", "GL2"),
    ("[](p -> p)", "GL2"),
]


@pytest.mark.parametrize("text,system", PROVABLE)
def test_prover_finds_checked_proofs(text, system):
    goal = pf(text)
    proof = prove(goal, system)
    assert proof is not None
    assert proof.system == system
    assert check_proof(proof) == Ok()
    assert conclusion(proof) == goal


@pytest.mark.parametrize("row", range(len(_TEMPLATES)))
def test_every_template_row_proves_its_goal(row):
    schema, systems, _ = _TEMPLATES[row]
    for system in systems:
        for body in ("p", "[.]q", "p -> []q"):
            goal = instantiate(schema, {"a": pf(body)})
            proof = prove(goal, system)
            assert proof is not None and conclusion(proof) == goal
            assert check_proof(proof) == Ok()


@pytest.mark.parametrize("text,system", [
    ("p", "GL"),
    ("false", "GL"),
    ("[.]p -> p", "GL"),
    ("[]p -> p", "GLT"),
    ("[]p -> [.]p", "GLT"),
    ("p -> []p", "GL2"),
    ("[]p -> [.]p", "GL2"),
])
def test_prover_stays_silent_on_non_theorems(text, system):
    assert prove(pf(text), system) is None


def test_prover_rejects_unknown_system():
    with pytest.raises(ProofError):
        prove(pf("p -> p"), "KD45")


def test_proofs_are_pruned():
    proof = prove(pf("[](p & q) -> []p"), "GLT")
    # every line must be reachable from the conclusion
    used = set()
    stack = [len(proof.lines)]
    while stack:
        n = stack.pop()
        if n in used:
            continue
        used.add(n)
        stack.extend(proof.lines[n - 1].refs)
    assert used == set(range(1, len(proof.lines) + 1))
