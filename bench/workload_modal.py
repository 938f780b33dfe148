"""modal: the three deciders, model evaluation and the frame oracle.

Per round:
- `gl_decide`, `glt_decide` and `gl2_decide` on the hand-written corpus in
  corpus.py, 40 formulas per system, one operation per decision;
- two stress searches on valid formulas: `glt_decide("<.>p -> <.>true",
  max_model_size=4)` and `gl_decide("[][]p -> [][][]p")` under a combo guard
  of 20,000 models;
- `first_failing_world` over every labeled tree frame and every valuation of
  sizes 1 to 5, for four one-variable theorems, one operation per size;
- `validate_model` and then `valid_on_model` on 112 seeded
  `random_a_sound_model` models: for each of seven axiom instances, two of
  each size from 1 to 8 worlds.
"""

from __future__ import annotations

import random
from dataclasses import replace

from corpus import CORPUS
from harness import Op
from slowprov.modal.decide import (
    Countermodel,
    Inconclusive,
    Theorem,
    ValidOnAllEnumerated,
    gl2_decide,
    gl_decide,
    glt_decide,
)
from slowprov.modal.formula import parse_formula, variables_of
from slowprov.modal.kripke import (
    GL,
    GL2,
    GLT,
    KripkeModel,
    Ok,
    eval_formula,
    first_failing_world,
    random_a_sound_model,
    valid_on_model,
    validate_model,
)
from slowprov.modal.proofs import Ok as ProofOk
from slowprov.modal.proofs import ProofObject, check_proof, conclusion
from slowprov.oracles import enumerate_tree_frames

SEMANTICS = {"gl": GL, "glt": GLT, "gl2": GL2}
STRESS = (("glt", "<.>p -> <.>true", {"max_model_size": 4}),
          ("gl", "[][]p -> [][][]p", {"combo_guard": 20_000}))
SWEEPS = (("gl", "[]([]p -> p) -> []p"), ("gl", "[]p -> [][]p"),
          ("gl2", "[]p <-> [.][.]p"), ("gl2", "[.]p -> []p"))
SWEEP_SIZES = range(1, 6)
AXIOM_INSTANCES = (
    "[.](p -> q) -> ([.]p -> [.]q)",
    "[.]([.]p -> p) -> [.]p",
    "[](p -> q) -> ([]p -> []q)",
    "[.]p -> []p",
    "[.]p -> [.][.]p",
    "[.]p -> [][.]p",
    "[]p -> [.][]p",
)
MODELS_PER_SIZE = 2
MAX_MODEL_SIZE = 8


def generate(seed: int) -> dict:
    """Seeded A-sound models, the same number of each size for every instance.

    Fixing the sizes keeps the cost of the model operations the same from seed
    to seed; the seed still picks the frames, relations and valuations.
    """
    rng = random.Random(seed)
    models = []
    for text in AXIOM_INSTANCES:
        a = parse_formula(text)
        by_size = {n: [] for n in range(1, MAX_MODEL_SIZE + 1)}
        while any(len(ms) < MODELS_PER_SIZE for ms in by_size.values()):
            m = random_a_sound_model(rng, a, max_size=MAX_MODEL_SIZE)
            if len(by_size[len(m.worlds)]) < MODELS_PER_SIZE:
                by_size[len(m.worlds)].append(m)
        models += [(text, m) for ms in by_size.values() for m in ms]
    return {"models": models}


def _sweep(a, semantics: str, size: int):
    """(models evaluated, models with a failing world) over one frame size."""
    vs = sorted(variables_of(a))
    models = failing = 0
    for frame in enumerate_tree_frames(size):
        names = frame.world_names()
        prec = tuple((names[x], names[y]) for x, y in frame.ancestor_pairs())
        for mask in range(1 << (len(vs) * size)):
            val = {v: tuple(w for j, w in enumerate(names) if mask >> (i * size + j) & 1)
                   for i, v in enumerate(vs)}
            m = KripkeModel(worlds=names, root=names[0], prec=prec, precR=(), val=val)
            models += 1
            if first_failing_world(m, a, semantics) is not None:
                failing += 1
    return models, failing


def _decide(system: str, a, **bounds):
    # looked up at call time, so that a traced run sees the wrapped deciders
    return {"gl": gl_decide, "glt": glt_decide, "gl2": gl2_decide}[system](a, **bounds)


def build_ops(inputs: dict) -> list:
    ops = []
    for system, (theorems, non_theorems) in CORPUS.items():
        for entries, valid in ((theorems, True), (non_theorems, False)):
            for text, _ in entries:
                a = parse_formula(text)
                ops.append(Op("decide", (system, text, valid),
                              lambda s=system, a=a: _decide(s, a)))
    for system, text, bounds in STRESS:
        a = parse_formula(text)
        ops.append(Op("stress", (system, text, True),
                      lambda s=system, a=a, k=bounds: _decide(s, a, **k)))
    for system, text in SWEEPS:
        a = parse_formula(text)
        for size in SWEEP_SIZES:
            ops.append(Op("sweep", (system, text, size),
                          lambda a=a, s=SEMANTICS[system], n=size: _sweep(a, s, n)))
    for text, m in inputs["models"]:
        a = parse_formula(text)
        ops.append(Op("validate", (text, m), lambda m=m, a=a: validate_model(m, a)))
        ops.append(Op("valid", (text, m), lambda m=m, a=a: valid_on_model(m, a, GLT)))
    return ops


# --- checks ------------------------------------------------------------------

_DECISIONS = ("decide", "stress")


def check_theorem_evidence(ops, outs):
    bad = []
    for op, out in _pairs(ops, outs, _DECISIONS):
        if not isinstance(out, Theorem):
            continue
        system, text, _ = op.args
        ev = out.evidence
        if isinstance(ev, ValidOnAllEnumerated):
            if ev.models_checked < 1:
                bad.append(f"{system} {text!r}: THEOREM on no models")
        elif (not isinstance(ev, ProofObject) or not isinstance(check_proof(ev), ProofOk)
              or conclusion(ev) != parse_formula(text)):
            bad.append(f"{system} {text!r}: the proof does not replay to the input")
    return bad


def check_countermodels(ops, outs):
    bad = []
    for op, out in _pairs(ops, outs, _DECISIONS):
        if not isinstance(out, Countermodel):
            continue
        system, text, _ = op.args
        a = parse_formula(text)
        if system == "glt" and not isinstance(validate_model(out.model, a), Ok):
            bad.append(f"glt {text!r}: the countermodel fails validation")
        elif eval_formula(out.model, out.world, a, SEMANTICS[system]):
            bad.append(f"{system} {text!r}: the countermodel satisfies it at {out.world}")
    return bad


def check_corpus_status(ops, outs):
    bad = []
    for op, out in _pairs(ops, outs, ("decide",)):
        system, text, valid = op.args
        if isinstance(out, Countermodel if valid else Theorem):
            bad.append(f"{system} {text!r}: {type(out).__name__} for a "
                       f"{'theorem' if valid else 'non-theorem'}")
        elif not isinstance(out, (Theorem, Countermodel, Inconclusive)):
            bad.append(f"{system} {text!r}: not a decision: {out!r}")
    return bad


def check_stress(ops, outs):
    return [f"{op.args[0]} {op.args[1]!r}: {type(out).__name__}"
            for op, out in _pairs(ops, outs, ("stress",))
            if not isinstance(out, (Theorem, Inconclusive))]


def check_sweeps(ops, outs):
    bad = []
    for op, (models, failing) in _pairs(ops, outs, ("sweep",)):
        system, text, size = op.args
        nvars = len(variables_of(parse_formula(text)))
        # labeled trees on `size` nodes with root w0: size^(size-2) (Cayley)
        frames = size ** (size - 2) if size > 1 else 1
        want = frames << (nvars * size)
        if failing or models != want:
            bad.append(f"{system} {text!r} size {size}: {failing} failing of {models}, want 0 of {want}")
    return bad


def check_random_models(ops, outs):
    bad = []
    for op, out in _pairs(ops, outs, ("validate", "valid")):
        if out != (Ok() if op.kind == "validate" else True):
            bad.append(f"{op.kind} {op.args[0]!r} on a sampled model: {out}")
    return bad


CHECKS = (
    ("theorem_evidence", check_theorem_evidence),
    ("countermodels", check_countermodels),
    ("corpus_status", check_corpus_status),
    ("stress", check_stress),
    ("sweeps", check_sweeps),
    ("random_models", check_random_models),
)


def _pairs(ops, outs, kinds):
    return [(op, out) for op, out in zip(ops, outs) if op.kind in kinds]


# --- one corrupted output per check, for the self-test ---

def _index(ops, outs, kind, cls):
    return next(i for i, (op, o) in enumerate(zip(ops, outs))
                if op.kind == kind and isinstance(o, cls)
                and (cls is not Theorem or isinstance(o.evidence, ProofObject)))


def _corrupt_proof(ops, outs):
    i = _index(ops, outs, "decide", Theorem)
    proof = outs[i].evidence
    last = replace(proof.lines[-1], formula=parse_formula("p -> q"))
    outs[i] = Theorem(ProofObject(proof.system, proof.lines[:-1] + (last,)))


def _corrupt_countermodel(ops, outs):
    i = next(i for i, op in enumerate(ops) if op.kind == "decide" and op.args[:2] == ("gl", "p"))
    m = outs[i].model
    outs[i] = Countermodel(KripkeModel(m.worlds, m.root, m.prec, m.precR, {"p": m.worlds}),
                           outs[i].world)


def _corrupt_status(ops, outs):
    i = next(i for i, op in enumerate(ops) if op.kind == "decide" and not op.args[2])
    outs[i] = Theorem(ValidOnAllEnumerated(1))


def _corrupt_stress(ops, outs):
    i = next(i for i, op in enumerate(ops) if op.kind == "stress")
    outs[i] = outs[_index(ops, outs, "decide", Countermodel)]


def _corrupt_sweep(ops, outs):
    i = next(i for i, op in enumerate(ops) if op.kind == "sweep" and op.args[2] == 3)
    models, _ = outs[i]
    outs[i] = (models, 1)


def _corrupt_random_model(ops, outs):
    i = next(i for i, op in enumerate(ops) if op.kind == "valid")
    outs[i] = False


CORRUPTIONS = {
    "theorem_evidence": _corrupt_proof,
    "countermodels": _corrupt_countermodel,
    "corpus_status": _corrupt_status,
    "stress": _corrupt_stress,
    "sweeps": _corrupt_sweep,
    "random_models": _corrupt_random_model,
}
