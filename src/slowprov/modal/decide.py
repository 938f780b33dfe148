"""Bounded decision procedures for the three systems.

All three share one countermodel search: size by size, the trees of
`rooted_trees` (worlds w0, w1, ... in preorder); on each, the relations []
reads (the tree order for gl, its two steps for gl2, every mixing-closed
auxiliary relation for glt, the empty one first); on each, the valuations
as one mask counted up from 0, bit i*size + j making the i-th variable by
name true at w_j. The first countermodel met has the least size. gl_decide
bounds tree height by the modal depth and outdegree by the count of modal
subformulas, and certifies validity by exhaustion; glt_decide and
gl2_decide run proof search first. Past the bounds the honest answer is
Inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import (
    Box,
    Diamond,
    Formula,
    modal_depth,
    subformulas,
    uses_triangle,
    variables_of,
)
from .kripke import (
    GL,
    GL2,
    GLT,
    KripkeModel,
    SemanticsMismatch,
    _compile,
    _pairs,
    _reflexive,
    _relation,
    _run,
    _two_step,
)
from .prover import prove


@dataclass(frozen=True)
class ValidOnAllEnumerated:
    models_checked: int


@dataclass(frozen=True)
class Theorem:
    evidence: object


@dataclass(frozen=True)
class Countermodel:
    model: KripkeModel
    world: str


@dataclass(frozen=True)
class Inconclusive:
    max_model_size: int
    max_proof_depth: int


DecisionOutcome = Theorem | Countermodel | Inconclusive


# --- rooted trees -----------------------------------------------------------

def rooted_trees(size: int, height: int | None = None, degree: int | None = None):
    """Every rooted unlabeled tree on `size` nodes, once, as its level
    sequence: the depth of each node in preorder, the root's 0 first.

    Trees deeper than `height` or with more than `degree` children at a
    node are never built. Subtrees come largest first, those of one size in
    the order they are yielded, and trees in the order of their subtree
    lists: the path first, the star last."""
    if size < 1:
        raise ValueError("size must be positive")
    height = size - 1 if height is None else height
    degree = size - 1 if degree is None else degree
    trees = {}  # (size, level of the root) -> every such subtree, in order

    def forests(m, level, k, top, first):
        # m nodes in at most k trees rooted at `level`, none ahead of the
        # `first` tree of size `top`
        if m == 0:
            yield ()
            return
        room = sum(degree ** i for i in range(height - level + 1))  # nodes that fit
        for s in range(min(m, top, room), 0, -1):
            if s * k < m:
                return
            if (s, level) not in trees:
                trees[s, level] = [(level,) + f
                                   for f in forests(s - 1, level + 1, degree, s - 1, 0)]
            ts = trees[s, level]
            for j in range(first if s == top else 0, len(ts)):
                for rest in forests(m - s, level, k - 1, s, j):
                    yield ts[j] + rest

    return ((0,) + f for f in forests(size - 1, 1, degree, size - 1, 0))


def _below(levels) -> list:
    """For each node of a level sequence, the nodes below it, root first."""
    path, out = [], []
    for i, depth in enumerate(levels):
        del path[depth:]
        out.append(tuple(path))
        path.append(i)
    return out


def _thresholds(levels, below, t=(0,)):
    """Every t with t[w] from t of the parent of w up to the depth of w, the
    zero vector first: one per closed auxiliary relation (see _relation)."""
    if len(t) == len(levels):
        yield t
        return
    for v in range(t[below[len(t)][-1]], levels[len(t)] + 1):
        yield from _thresholds(levels, below, t + (v,))


def _search(a: Formula, reading, max_size, height=None, degree=None, guard=None):
    """The first countermodel up to max_size worlds; else the count of models
    checked, or Inconclusive at the last size done once guard would be passed."""
    prog = _compile(a)
    names = sorted(variables_of(a))
    checked = 0
    for size in range(1, max_size + 1):
        worlds = tuple(f"w{i}" for i in range(size))
        full = (1 << size) - 1
        nvals = 1 << len(names) * size
        for levels in rooted_trees(size, height, degree):
            if guard is not None and checked + nvals > guard:
                return Inconclusive(max_model_size=size - 1, max_proof_depth=0)
            below = _below(levels)
            tri = _relation(below, levels)
            if reading == GLT:
                relations = (_relation(below, t) for t in _thresholds(levels, below))
            else:
                relations = [tri if reading == GL else _two_step(tri)]
            for box in relations:
                # the witnesses of validation condition 5 for each GLT pair
                witnesses = [box[x] & (1 << y | sum(1 << c for c in below[y]))
                             for y in range(size) for x in below[y]
                             if box[x] >> y & 1] if reading == GLT else ()
                for v in range(nvals):
                    checked += 1
                    val = {name: v >> i * size & full for i, name in enumerate(names)}
                    rows = _run(prog, full, val, None if reading == GL else tri, box)
                    # only the root is tested: above any failing world is a
                    # countermodel, smaller unless that world is the root
                    if rows[-1] & 1:
                        continue
                    if witnesses:
                        refl = _reflexive(rows, tri, full)
                        if not all(wm & refl for wm in witnesses):
                            continue
                    truth = {name: [w for j, w in enumerate(worlds) if val[name] >> j & 1]
                             for name in names}
                    return Countermodel(KripkeModel(
                        worlds, "w0", _pairs(worlds, tri),
                        _pairs(worlds, box) if reading == GLT else (), truth), "w0")
    return checked


def _prove_or_search(a, reading, max_model_size, max_proof_depth):
    proof = prove(a, reading, rounds=max_proof_depth)
    if proof is not None:
        return Theorem(proof)
    out = _search(a, reading, max_model_size)
    return Inconclusive(max_model_size, max_proof_depth) if isinstance(out, int) else out


def gl_decide(a: Formula, combo_guard: int = 200_000) -> DecisionOutcome:
    """Decide the box-only fragment by exhausting small tree models, or
    Inconclusive at the last size done once combo_guard would be passed."""
    if uses_triangle(a):
        raise SemanticsMismatch("gl_decide covers the box-only fragment")
    depth = modal_depth(a)
    branch = max(1, sum(isinstance(f, (Box, Diamond)) for f in subformulas(a)))
    out = _search(a, GL, sum(branch ** i for i in range(depth + 1)),
                  height=depth, degree=branch, guard=combo_guard)
    return Theorem(ValidOnAllEnumerated(out)) if isinstance(out, int) else out


def glt_decide(a: Formula, max_model_size: int = 5,
               max_proof_depth: int = 4) -> DecisionOutcome:
    """Proof search, then exhaustive A-sound countermodel search by size."""
    return _prove_or_search(a, GLT, max_model_size, max_proof_depth)


def gl2_decide(a: Formula, max_model_size: int = 5,
               max_proof_depth: int = 4) -> DecisionOutcome:
    """Proof search in GL(tri)+K box+collapse, then two-step model search."""
    return _prove_or_search(a, GL2, max_model_size, max_proof_depth)
