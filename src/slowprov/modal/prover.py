"""Proof search for the three systems.

Two tables drive it. Every axiom line instantiates a schema of
proofs.AXIOMS through `_Builder.axiom`. `_TEMPLATES` lists derivation
templates as rows of goal schema, the systems the derivation is sound in,
and the derived move that proves the goal's instance (transitivity of
`[.]`, box transitivity, the boxed Loeb principle, collapse lemmas for the
two-step box).

Strategy, in order: tautology check on the goal, a match against the
system's axiom schemas, the first template row that matches the goal,
then a bounded forward closure over the goal's subformulas using modus
ponens, triangle necessitation, monotonicity and syllogism steps. Its
candidate tautologies are checked in a fixed order, each after a filter on
`truth_masks` rows that no tautology fails, so the filter changes no proof.
Every proof that comes out is re-validated with check_proof before it is
returned, so a None result is the only unverified outcome.
"""

from __future__ import annotations

from .formula import (And, Box, Formula, Iff, Implies, Triangle,
                      parse_formula, subformulas)
from .proofs import (
    AXIOMS,
    Ok,
    ProofError,
    ProofLine,
    ProofObject,
    SYSTEM_RULES,
    check_proof,
    instantiate,
    is_tautology,
    match,
    truth_masks,
)

# The forward closure stops once the builder holds more lines than this.
LINE_CAP = 400


def _taut(f: Formula) -> bool:
    try:
        return is_tautology(f)
    except ProofError:
        return False


class _Builder:
    """Accumulates proof lines with structural deduplication."""

    def __init__(self, system: str):
        self.system = system
        self.lines: list[ProofLine] = []
        self.index: dict[Formula, int] = {}

    def overflow(self) -> bool:
        return len(self.lines) > LINE_CAP

    def have(self, f: Formula):
        return self.index.get(f)

    def add(self, f: Formula, rule: str, refs: tuple = ()) -> int:
        got = self.index.get(f)
        if got is not None:
            return got
        self.lines.append(ProofLine(f, rule, refs))
        no = len(self.lines)
        self.index[f] = no
        return no

    def taut(self, f: Formula) -> int:
        return self.add(f, "Taut")

    def mp(self, minor: int, major: int) -> int:
        """major must hold Implies(minor's formula, result)."""
        concl = self.lines[major - 1].formula.right
        return self.add(concl, "MP", (minor, major))

    def nec(self, line: int) -> int:
        return self.add(Triangle(self.lines[line - 1].formula), "Nec_tri", (line,))

    def axiom(self, tag: str, a: Formula, b: Formula = None) -> int:
        """The instance of AXIOMS[tag] at a (and b, for the K schemas)."""
        return self.add(instantiate(AXIOMS[tag], {"a": a, "b": b}), tag)

    # -- derived moves -------------------------------------------------

    def chain(self, first: int, second: int) -> int:
        """From X->Y and Y->Z conclude X->Z by a syllogism tautology."""
        xy = self.lines[first - 1].formula
        yz = self.lines[second - 1].formula
        xz = Implies(xy.left, yz.right)
        syl = self.taut(Implies(xy, Implies(yz, xz)))
        step = self.mp(first, syl)
        return self.mp(second, step)

    def mono_tri(self, imp: int) -> int:
        """From X->Y conclude [.]X -> [.]Y."""
        f = self.lines[imp - 1].formula
        necd = self.nec(imp)
        k = self.axiom("AxK_tri", f.left, f.right)
        return self.mp(necd, k)

    def tri_tri_to_box(self, a: Formula) -> int:
        ax = self.axiom("Ax2", a)
        fwd = self.taut(Implies(self.lines[ax - 1].formula,
                                Implies(Triangle(Triangle(a)), Box(a))))
        return self.mp(ax, fwd)

    def box_to_tri_tri(self, a: Formula) -> int:
        ax = self.axiom("Ax2", a)
        fwd = self.taut(Implies(self.lines[ax - 1].formula,
                                Implies(Box(a), Triangle(Triangle(a)))))
        return self.mp(ax, fwd)

    def mono_box(self, imp: int) -> int:
        """From X->Y conclude []X -> []Y (needs a box-capable system)."""
        f = self.lines[imp - 1].formula
        x, y = f.left, f.right
        if self.system == "GL2":
            step1 = self.mono_tri(imp)
            step2 = self.mono_tri(step1)
            open_x = self.box_to_tri_tri(x)
            close_y = self.tri_tri_to_box(y)
            half = self.chain(open_x, step2)
            return self.chain(half, close_y)
        necd = self.nec(imp)
        lift = self.axiom("AxT1", f)
        boxed = self.mp(necd, lift)
        k = self.axiom("AxK_box", x, y)
        return self.mp(boxed, k)

    def nec_box(self, line: int) -> int:
        """From X conclude []X (derived; Nec_box is not primitive)."""
        f = self.lines[line - 1].formula
        if self.system == "GL2":
            twice = self.nec(self.nec(line))
            coll = self.tri_tri_to_box(f)
            return self.mp(twice, coll)
        necd = self.nec(line)
        lift = self.axiom("AxT1", f)
        return self.mp(necd, lift)

    def four_tri(self, a: Formula) -> int:
        """[.]A -> [.][.]A, via the conjunction A & [.]A."""
        c = And(a, Triangle(a))
        l1 = self.taut(Implies(c, a))
        l4 = self.mp(self.nec(l1), self.axiom("AxK_tri", c, a))
        l5 = self.taut(Implies(self.lines[l4 - 1].formula,
                               Implies(a, Implies(Triangle(c), c))))
        l6 = self.mp(l4, l5)
        l9 = self.mp(self.nec(l6),
                     self.axiom("AxK_tri", a, Implies(Triangle(c), c)))
        l10 = self.axiom("AxL_tri", c)
        l13 = self.chain(l9, l10)
        l14 = self.taut(Implies(c, Triangle(a)))
        l17 = self.mp(self.nec(l14), self.axiom("AxK_tri", c, Triangle(a)))
        return self.chain(l13, l17)

    def four_box(self, a: Formula) -> int:
        """[]A -> [][]A."""
        if self.system == "GL2":
            base = self.four_tri(a)
            shift = self.four_tri(Triangle(a))
            deeper = self.mono_tri(self.mono_tri(base))
            quad = self.chain(shift, deeper)
            coll = self.tri_tri_to_box(a)
            deep_coll = self.mono_tri(self.mono_tri(coll))
            open_a = self.box_to_tri_tri(a)
            close_box = self.tri_tri_to_box(Box(a))
            part = self.chain(open_a, quad)
            part = self.chain(part, deep_coll)
            return self.chain(part, close_box)
        first = self.axiom("AxT2", a)
        second = self.axiom("AxT1", Box(a))
        return self.chain(first, second)

    def box_lob(self, a: Formula) -> int:
        """[]([]A -> A) -> []A, from the triangle Loeb axiom."""
        t1a = self.axiom("AxT1", a)
        weak = self.taut(Implies(self.lines[t1a - 1].formula,
                                 Implies(Implies(Box(a), a),
                                         Implies(Triangle(a), a))))
        inner = self.mp(t1a, weak)
        lifted = self.mono_box(inner)
        lob = self.axiom("AxL_tri", a)
        shifted = self.mono_box(lob)
        t3i = self.axiom("AxT3", Implies(Triangle(a), a))
        t4i = self.axiom("AxT4", a)
        part = self.chain(lifted, t3i)
        part = self.chain(part, shifted)
        return self.chain(part, t4i)

    def tri_to_box(self, a: Formula) -> int:
        """[.]A -> []A in the two-step system."""
        base = self.four_tri(a)
        coll = self.tri_tri_to_box(a)
        return self.chain(base, coll)


def _axiom_rule_for(f: Formula, system: str):
    for tag, schema in AXIOMS.items():
        if tag in SYSTEM_RULES[system] and match(schema, f, {}):
            return tag
    return None


# Goal schema, the systems it is offered in, and the derivation of its
# instance at a; tried in this order. box_lob uses AxT1, AxT3 and AxT4, so
# it is GLT's alone.
_TEMPLATES = tuple((parse_formula(text), systems, derive)
                   for text, systems, derive in (
    ("[.]a -> [.][.]a", ("GL", "GLT", "GL2"), _Builder.four_tri),
    ("[]a -> [][]a", ("GLT", "GL2"), _Builder.four_box),
    ("[]([]a -> a) -> []a", ("GLT",), _Builder.box_lob),
    ("[.]a -> []a", ("GL2",), _Builder.tri_to_box),
    ("[.][.]a -> []a", ("GL2",), _Builder.tri_tri_to_box),
    ("[]a -> [.][.]a", ("GL2",), _Builder.box_to_tri_tri),
))


def _try_templates(b: _Builder, goal: Formula) -> bool:
    for schema, systems, derive in _TEMPLATES:
        env = {}
        if b.system in systems and match(schema, goal, env):
            derive(b, env["a"])
            return True
    return False


def _seed(b: _Builder, pool):
    sysname = b.system
    allowed = SYSTEM_RULES[sysname]
    for f in pool:
        if _taut(f):
            b.taut(f)
        for tag in ("AxL_tri", "AxT1", "AxT2", "AxT3", "AxT4", "Ax2"):
            if tag in allowed:
                b.axiom(tag, f)
        if isinstance(f, Implies):
            for tag in ("AxK_tri", "AxK_box"):
                if tag in allowed:
                    b.axiom(tag, f.left, f.right)
    tri_bodies = [f.body for f in pool if isinstance(f, Triangle)]
    box_bodies = [f.body for f in pool if isinstance(f, Box)]
    for bodies, mono in ((tri_bodies, b.mono_tri),
                         (box_bodies, b.mono_box) if sysname != "GL" else ((), None)):
        masks = truth_masks(bodies)
        for x, mx in zip(bodies, masks):
            for y, my in zip(bodies, masks):
                if x != y and not mx & ~my and _taut(Implies(x, y)):
                    mono(b.taut(Implies(x, y)))


def _closure_round(b: _Builder, parts, goal: Formula, last: bool) -> bool:
    proved = list(b.index.items())
    boxed = b.system != "GL"
    for f, line in proved:
        if b.overflow():
            return goal in b.index
        if isinstance(f, Implies):
            minor = b.have(f.left)
            if minor is not None:
                b.mp(minor, line)
            if (Triangle, f.left) in parts and (Triangle, f.right) in parts:
                b.mono_tri(line)
            if boxed and (Box, f.left) in parts and (Box, f.right) in parts:
                b.mono_box(line)
        if (Triangle, f) in parts:
            b.nec(line)
        if boxed and (Box, f) in parts:
            b.nec_box(line)
    if goal in b.index:
        return True
    proved = list(b.index.items())
    imps = [(f, n) for f, n in proved if isinstance(f, Implies)]
    for f, n in imps:
        for g, m in imps:
            if f.right == g.left and (Implies, f.left, g.right) in parts:
                b.chain(n, m)
                if goal in b.index:
                    return True
    if isinstance(goal, Iff):
        fwd = b.have(Implies(goal.left, goal.right))
        back = b.have(Implies(goal.right, goal.left))
        if fwd is not None and back is not None:
            glue = b.taut(Implies(b.lines[fwd - 1].formula,
                                  Implies(b.lines[back - 1].formula, goal)))
            b.mp(back, b.mp(fwd, glue))
            return True
    # a row where f holds and the goal fails rules f -> goal out
    proved = list(b.index.items())
    goal_mask, *masks = truth_masks([goal] + [f for f, _ in proved])
    for (f, n), mf in zip(proved, masks):
        if not mf & ~goal_mask and _taut(Implies(f, goal)):
            b.mp(n, b.taut(Implies(f, goal)))
            return True
    if last:
        for (f, n), mf in zip(proved, masks):
            rest = mf & ~goal_mask
            for (g, m), mg in zip(proved, masks):
                if not rest & mg and _taut(Implies(f, Implies(g, goal))):
                    step = b.taut(Implies(f, Implies(g, goal)))
                    b.mp(m, b.mp(n, step))
                    return True
    return goal in b.index


def _prune(b: _Builder, goal: Formula) -> ProofObject:
    target = b.index[goal]
    keep = set()
    stack = [target]
    while stack:
        n = stack.pop()
        if n in keep:
            continue
        keep.add(n)
        stack.extend(b.lines[n - 1].refs)
    order = sorted(keep)
    renumber = {old: new for new, old in enumerate(order, start=1)}
    lines = tuple(ProofLine(b.lines[old - 1].formula, b.lines[old - 1].rule,
                            tuple(renumber[r] for r in b.lines[old - 1].refs))
                  for old in order)
    return ProofObject(b.system, lines)


def prove(goal: Formula, system: str, rounds: int = 4):
    """Search for a proof of goal; returns a checked ProofObject or None."""
    if system not in SYSTEM_RULES:
        raise ProofError(f"unknown system {system!r}")
    b = _Builder(system)
    tag = "Taut" if _taut(goal) else _axiom_rule_for(goal, system)
    if tag is not None:
        b.add(goal, tag)
    elif not (_try_templates(b, goal) and goal in b.index):
        pool = subformulas(goal)
        # each subformula by its intern key: a lookup builds no formula
        parts = {(type(f), *map(f.__getattribute__, f.__slots__)) for f in pool}
        _seed(b, pool)
        for i in range(rounds):
            if _closure_round(b, parts, goal, last=(i == rounds - 1)) or b.overflow():
                break
    if goal not in b.index:
        return None
    proof = _prune(b, goal)
    verdict = check_proof(proof)
    if not isinstance(verdict, Ok):
        raise ProofError(f"internal search produced an invalid proof: {verdict}")
    return proof
