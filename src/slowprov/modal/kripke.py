"""Kripke models on finite tree orders, model validation, and evaluation.

A model carries the strict tree order (used by `[.]`), an auxiliary strict
relation (used by `[]` in the two-relation reading), and a valuation. The
same structure serves three readings: the one-modality reading interprets
`[]` over the tree order itself; the two-relation reading interprets `[]`
over the auxiliary relation, subject to the five soundness conditions below;
the composed reading interprets `[]` over two-step reachability in the tree
order and ignores the auxiliary relation entirely. Evaluation reads world
masks: successor masks kept on the model's frame, built once and shared by
the models built one after another over it, and one mask per variable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .formula import (
    BINARY,
    UNARY,
    And,
    Bot,
    Box,
    Diamond,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Top,
    Triangle,
    Var,
    subformulas,
    variables_of,
)


class ModelError(Exception):
    """Malformed model data: wrong shapes, unknown worlds, bad types."""


class SemanticsMismatch(Exception):
    """The model/formula pair does not meet the chosen reading's premises."""


GL = "GL"
GLT = "GLT"
GL2 = "GL2"
SEMANTICS = (GL, GLT, GL2)


class _Frame:
    """A validated frame: worlds, root, sorted pair tuples, the world index, and
    the successor masks of prec (tri), precR (aux) and GL2's two steps (lazy)."""

    __slots__ = ("worlds", "root", "prec", "precR", "idx", "tri", "aux", "two")

    def __init__(self, worlds, root, prec, precR):
        if not worlds:
            raise ModelError("a model needs at least one world")
        for w in worlds:
            if not isinstance(w, str) or not w:
                raise ModelError(f"world names are nonempty strings, got {w!r}")
        idx = {w: i for i, w in enumerate(worlds)}
        if len(idx) != len(worlds):
            raise ModelError("duplicate world names")
        if not isinstance(root, str) or root not in idx:
            raise ModelError(f"root {root!r} is not a world")
        self.worlds, self.root, self.idx, self.two = worlds, root, idx, None
        self.prec, self.tri = self._pairs(prec, idx, "prec")
        self.precR, self.aux = self._pairs(precR, idx, "precR")

    @staticmethod
    def _pairs(rel, idx, label):
        succ = [0] * len(idx)
        for pair in rel:
            if len(pair) != 2:
                raise ModelError(f"{label} entries are pairs, got {pair!r}")
            a, b = pair
            if not (isinstance(a, str) and a in idx and isinstance(b, str) and b in idx):
                raise ModelError(f"{label} pair {pair!r} names unknown worlds")
            succ[idx[a]] |= 1 << idx[b]
        return tuple(sorted(set(rel))), succ


# the last frame built, under the snapshot of the arguments it was built from
_last = (None, None)


class KripkeModel:
    """Finite rooted model. `prec` and `precR` are strict relations given as
    pair collections; the valuation maps variable names to world collections.
    Everything is normalized to sorted tuples on construction. The model
    keeps a validated frame (worlds, root, relations and their successor
    masks) and its valuation, also as one world mask per variable. A model
    whose frame arguments equal, as a snapshot, the last built model's
    shares that frame instead of validating and indexing it again."""

    __slots__ = ("_frame", "val", "_val_masks")

    def __init__(self, worlds, root, prec=(), precR=(), val=None):
        global _last
        key = (tuple(worlds), root, tuple(map(tuple, prec)), tuple(map(tuple, precR)))
        last_key, frame = _last
        if key != last_key:
            frame = _Frame(*key)
            _last = key, frame
        idx = frame.idx
        norm_val, masks = {}, {}
        for var in sorted(val or {}):
            if not isinstance(var, str) or not var:
                raise ModelError(f"variable names are nonempty strings, got {var!r}")
            ws = tuple(val[var])
            mask = 0
            for w in ws:
                if not isinstance(w, str) or w not in idx:
                    bad = [u for u in ws if not isinstance(u, str)] or sorted(set(ws) - idx.keys())
                    raise ModelError(f"valuation of {var!r} names unknown world {bad[0]!r}")
                mask |= 1 << idx[w]
            norm_val[var], masks[var] = tuple(sorted(set(ws))), mask
        object.__setattr__(self, "_frame", frame)
        object.__setattr__(self, "val", norm_val)
        object.__setattr__(self, "_val_masks", masks)

    worlds = property(lambda self: self._frame.worlds)
    root = property(lambda self: self._frame.root)
    prec = property(lambda self: self._frame.prec)
    precR = property(lambda self: self._frame.precR)

    def __setattr__(self, name, value):
        raise AttributeError("KripkeModel is immutable")

    def __eq__(self, other):
        if not isinstance(other, KripkeModel):
            return NotImplemented
        return (self.worlds == other.worlds and self.root == other.root
                and self.prec == other.prec and self.precR == other.precR
                and self.val == other.val)

    def __repr__(self):
        return (f"KripkeModel(worlds={self.worlds!r}, root={self.root!r}, "
                f"prec={self.prec!r}, precR={self.precR!r}, val={self.val!r})")


# --- validation -------------------------------------------------------------

@dataclass(frozen=True)
class Ok:
    pass


@dataclass(frozen=True)
class Violation:
    condition: int
    detail: str


def validate_model(m: KripkeModel, a: Formula):
    """Check the five soundness conditions in order; first failure wins.

    1. the tree order is a strict order, the root sees every other world,
       and every non-root world has exactly one immediate predecessor;
    2. the auxiliary relation sits inside the tree order;
    3. prefixing a tree step to an auxiliary step stays auxiliary;
    4. appending a tree step to an auxiliary step stays auxiliary;
    5. every auxiliary pair has a witness at or below its target at which
       [.]B -> B holds for each subformula B of the formula under test.
    """
    ps = set(m.prec)
    for w in m.worlds:
        if (w, w) in ps:
            return Violation(1, f"{w} precedes itself")
    for a1, b1 in m.prec:
        for c, d in m.prec:
            if c == b1 and (a1, d) not in ps:
                return Violation(1, f"missing transitive pair ({a1}, {d})")
    for w in m.worlds:
        if w == m.root:
            continue
        if (m.root, w) not in ps:
            return Violation(1, f"root does not reach {w}")
        preds = [u for u in m.worlds if (u, w) in ps]
        immediate = [u for u in preds
                     if not any((u, v) in ps and (v, w) in ps for v in preds)]
        if len(immediate) != 1:
            return Violation(1, f"{w} has {len(immediate)} immediate predecessors")
    rs = set(m.precR)
    for pair in m.precR:
        if pair not in ps:
            return Violation(2, f"auxiliary pair {pair} outside the tree order")
    for x, y in m.prec:
        for c, d in m.precR:
            if c == y and (x, d) not in rs:
                return Violation(3, f"({x}, {d}) missing")
    for c, d in m.precR:
        for x, y in m.prec:
            if x == d and (c, y) not in rs:
                return Violation(4, f"({c}, {y}) missing")
    if rs:
        idx, tri, box = m._frame.idx, m._frame.tri, m._frame.aux
        full = (1 << len(idx)) - 1
        refl = _reflexive(_run(_compile(a), full, m._val_masks, tri, box), tri, full)
        for x, y in m.precR:
            j = idx[y]
            below = sum(1 << c for c, succ in enumerate(tri) if succ >> j & 1)
            if not box[idx[x]] & (below | 1 << j) & refl:
                return Violation(5, f"no reflexive witness for ({x}, {y})")
    return Ok()


# --- evaluation on world masks ----------------------------------------------
#
# Bit i of a mask stands for the i-th world; a relation is a list of
# successor masks, one per world.


def _compile(a: Formula) -> tuple:
    """a as (node type, x, y) steps, one per distinct subformula, a's own
    last; x and y are the steps of its parts, or a variable's name. The
    program is kept on the node, so a formula compiles once while it lives."""
    prog = getattr(a, "_prog", None)
    if prog is not None:
        return prog
    subs = subformulas(a)
    step = {f: i for i, f in enumerate(subs)}
    prog = []
    for f in subs:
        if isinstance(f, Var):
            prog.append((Var, f.name, None))
        elif isinstance(f, UNARY):
            prog.append((type(f), step[f.body], None))
        elif isinstance(f, BINARY):
            prog.append((type(f), step[f.left], step[f.right]))
        elif isinstance(f, (Top, Bot)):
            prog.append((type(f), None, None))
        else:
            raise SemanticsMismatch(f"cannot evaluate {f!r}")
    prog = tuple(prog)
    object.__setattr__(a, "_prog", prog)
    return prog


def _run(prog, full, val, tri, box) -> list:
    """The mask of every program step. val maps variables to masks; tri
    and box are the relations of [.] and [], tri None under GL."""
    out = []
    push = out.append
    for op, x, y in prog:
        if op is Var:
            push(val.get(x, 0))
        elif op is Implies:
            push(full ^ out[x] | out[y])
        elif op is Box:
            push(_box(box, full ^ out[x]))
        elif op is And:
            push(out[x] & out[y])
        elif op is Or:
            push(out[x] | out[y])
        elif op is Not:
            push(full ^ out[x])
        elif op is Iff:
            push(full ^ out[x] ^ out[y])
        elif op is Diamond:
            push(full ^ _box(box, out[x]))
        elif op is Top:
            push(full)
        elif op is Bot:
            push(0)
        elif tri is None:
            raise SemanticsMismatch("the one-modality reading has no [.] or <.>")
        elif op is Triangle:
            push(_box(tri, full ^ out[x]))
        else:
            push(full ^ _box(tri, out[x]))
    return out


def _box(succ, bad) -> int:
    """The worlds none of whose successors lies in bad."""
    out = 0
    bit = 1
    for s in succ:
        if not s & bad:
            out |= bit
        bit <<= 1
    return out


def _two_step(succ) -> list:
    out = []
    for s in succ:
        two = 0
        while s:
            two |= succ[(s & -s).bit_length() - 1]
            s &= s - 1
        out.append(two)
    return out


def _reflexive(rows, tri, full) -> int:
    """The worlds at which [.]B -> B holds for every row B."""
    ok = full
    for row in rows:
        ok &= row | full ^ _box(tri, full ^ row)
    return ok


def _relation(below, t) -> list:
    """The relation in which the worlds below w (below[w], root first) at
    depth under t[w] see w; t the depths gives the tree order. Inside the
    tree order, the relations closed under conditions 3 and 4 of
    validate_model are exactly those with t nondecreasing up the tree."""
    succ = [0] * len(below)
    for w, chain in enumerate(below):
        for x in chain[:t[w]]:
            succ[x] |= 1 << w
    return succ


def _pairs(worlds, succ) -> list:
    return [(worlds[x], worlds[y]) for x, s in enumerate(succ)
            for y in range(len(worlds)) if s >> y & 1]


def _rows_for(m: KripkeModel, a: Formula, semantics: str) -> list:
    """The masks of a's program on m under the chosen reading."""
    if semantics == GLT:
        verdict = validate_model(m, a)
        if not isinstance(verdict, Ok):
            raise SemanticsMismatch(
                f"model fails condition {verdict.condition}: {verdict.detail}")
    f = m._frame
    if semantics == GL:
        tri, box = None, f.tri
    elif semantics == GL2:
        if f.two is None:
            f.two = _two_step(f.tri)
        tri, box = f.tri, f.two
    elif semantics == GLT:
        tri, box = f.tri, f.aux
    else:
        raise SemanticsMismatch(f"unknown semantics {semantics!r}")
    return _run(_compile(a), (1 << len(f.worlds)) - 1, m._val_masks, tri, box)


def eval_formula(m: KripkeModel, w, a: Formula, semantics: str) -> bool:
    """Truth of a at w under the chosen reading.

    GL: one modality only, [] over the tree order. GLT: [.] over the tree
    order, [] over the auxiliary relation; the model must pass validation
    relative to a. GL2: [.] over the tree order, [] over its two-step
    composition; the auxiliary relation is ignored.
    """
    if w not in m.worlds:
        raise ModelError(f"{w!r} is not a world")
    return bool(_rows_for(m, a, semantics)[-1] >> m.worlds.index(w) & 1)


def valid_on_model(m: KripkeModel, a: Formula, semantics: str) -> bool:
    """True at every world; validation and evaluation are shared across worlds."""
    return _rows_for(m, a, semantics)[-1] == (1 << len(m.worlds)) - 1


def first_failing_world(m: KripkeModel, a: Formula, semantics: str):
    """The first world (in model order) where a fails, or None."""
    bad = ~_rows_for(m, a, semantics)[-1] & ((1 << len(m.worlds)) - 1)
    return m.worlds[(bad & -bad).bit_length() - 1] if bad else None


# --- JSON-facing dict form --------------------------------------------------

def model_to_dict(m: KripkeModel) -> dict:
    return {
        "worlds": list(m.worlds),
        "root": m.root,
        "prec": [list(p) for p in m.prec],
        "precR": [list(p) for p in m.precR],
        "val": {var: list(ws) for var, ws in m.val.items()},
    }


def model_from_dict(d) -> KripkeModel:
    if not isinstance(d, dict):
        raise ModelError("model document must be an object")
    required = {"worlds", "root", "prec", "precR", "val"}
    missing = required - set(d)
    if missing:
        raise ModelError(f"missing fields: {', '.join(sorted(missing))}")
    extra = set(d) - required
    if extra:
        raise ModelError(f"unknown fields: {', '.join(sorted(extra))}")
    if not isinstance(d["worlds"], list):
        raise ModelError("worlds must be a list")
    for key in ("prec", "precR"):
        if not isinstance(d[key], list):
            raise ModelError(f"{key} must be a list of pairs")
        for pair in d[key]:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ModelError(f"{key} entries are two-element lists, got {pair!r}")
    if not isinstance(d["val"], dict):
        raise ModelError("val must map variables to world lists")
    for var, ws in d["val"].items():
        if not isinstance(ws, list):
            raise ModelError(f"val[{var!r}] must be a list of worlds")
    return KripkeModel(worlds=d["worlds"], root=d["root"], prec=d["prec"],
                       precR=d["precR"], val=d["val"])


# --- seeded random models sound for a given formula -------------------------

def random_a_sound_model(rng: random.Random, a: Formula, max_size: int = 8) -> KripkeModel:
    """A random tree model passing validation relative to a.

    The frame is a uniform random parent vector; the auxiliary relation is
    the closure of a random subset of the tree order under the two mixing
    conditions; then every auxiliary pair gets its witness by forcing all
    variables of a true on the upward cone of the pair's target. For
    formulas free of negation and falsum (all the axiom instances the suite
    feeds in) every subformula comes out true on such a cone, so the target
    itself is a reflexive witness and validation passes.
    """
    size = rng.randint(1, max_size)
    parents = tuple(rng.randrange(i) for i in range(1, size))
    names = tuple(f"w{i}" for i in range(size))
    idx = {w: i for i, w in enumerate(names)}
    below = [()]
    for p in parents:
        below.append(below[p] + (p,))
    tree = _relation(below, [len(chain) for chain in below])
    prec = tuple(sorted(_pairs(names, tree)))
    # the least thresholds (see _relation) whose relation holds the subset
    t = [0] * size
    for x, y in prec:
        if rng.random() < 0.4:
            t[idx[y]] = max(t[idx[y]], len(below[idx[x]]) + 1)
    for w, p in enumerate(parents, start=1):
        t[w] = max(t[w], t[p])
    vars_ = sorted(variables_of(a))
    val = {v: {w for w in names if rng.random() < 0.5} for v in vars_}
    for y in range(size):
        if t[y]:
            for v in vars_:
                val[v] |= {names[y]} | {names[d] for d in range(size) if tree[y] >> d & 1}
    model = KripkeModel(worlds=names, root=names[0], prec=prec,
                        precR=_pairs(names, _relation(below, t)), val=val)
    verdict = validate_model(model, a)
    if not isinstance(verdict, Ok):
        raise ModelError(f"generator produced an invalid model: {verdict}")
    return model
