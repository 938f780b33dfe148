"""Hilbert-style proof objects and the line-by-line checker.

Proofs are flat line lists. Each line carries a formula, a rule tag, and
back-references. Tautologies are decided by truth-tabling over the maximal
non-boolean subformulas, and `truth_masks` tables many formulas on 64
shared rows; each axiom tag is matched against its schema,
written once as a formula in AXIOMS; the two rules check their cited
lines. Necessitation is primitive for `[.]` only; the boxed form is
derivable and deliberately rejected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .formula import (
    BINARY,
    UNARY,
    And,
    Bot,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    Top,
    Triangle,
    Var,
    parse_formula,
    render_formula,
)


class ProofError(Exception):
    """Malformed proof data (not a failed check; those are diagnostics)."""


@dataclass(frozen=True)
class ProofLine:
    formula: Formula
    rule: str
    refs: tuple = ()


@dataclass(frozen=True)
class ProofObject:
    system: str
    lines: tuple


@dataclass(frozen=True)
class Ok:
    pass


@dataclass(frozen=True)
class ErrorAt:
    line: int
    reason: str


_GL_RULES = frozenset({"Taut", "AxK_tri", "AxL_tri", "MP", "Nec_tri"})
SYSTEM_RULES = {
    "GL": _GL_RULES,
    "GLT": _GL_RULES | {"AxK_box", "AxT1", "AxT2", "AxT3", "AxT4"},
    "GL2": _GL_RULES | {"AxK_box", "Ax2"},
}
ALL_RULES = frozenset().union(*SYSTEM_RULES.values())

TAUT_ATOM_CAP = 16


# --- truth tables -----------------------------------------------------------

# the connectives a truth table reads, with their arity, and the constants
# as indices into the row masks: -1 is every row, -2 none
_ARITY = {Not: 1, And: 2, Or: 2, Implies: 2, Iff: 2}
_CONSTANT = {Top: -1, Bot: -2}


def _masks(fs, width):
    """The truth mask of each formula of fs, and the mask of every row. The
    atoms are the maximal non-boolean subformulas, numbered by first
    occurrence. The 2^width rows are the bits of one int: atom i < width is
    true in the rows whose bit i is set, and later atoms get seeded columns.
    Width None is the whole truth table, up to the atom cap."""
    atoms = {}
    prog = []   # fs in prefix order: connectives, and row indices for the rest
    todo = list(reversed(fs))
    while todo:
        g = todo.pop()
        arity = _ARITY.get(type(g))
        if arity is None:
            index = _CONSTANT.get(type(g))
            prog.append(atoms.setdefault(g, len(atoms)) if index is None else index)
            continue
        prog.append(type(g))
        if arity == 2:
            todo.append(g.right)
            todo.append(g.left)
        else:
            todo.append(g.body)
    if width is None:
        if len(atoms) > TAUT_ATOM_CAP:
            raise ProofError(f"{len(atoms)} distinct atoms exceeds the "
                             f"{TAUT_ATOM_CAP}-atom tautology cap")
        width = len(atoms)
    full = (1 << (1 << width)) - 1
    seeded = len(atoms) > width and random.Random(0)
    rows = [full ^ full // ((1 << (1 << i)) + 1) if i < width else seeded.getrandbits(1 << width)
            for i in range(len(atoms))] + [0, full]
    vals = []
    push, pop = vals.append, vals.pop
    for op in reversed(prog):
        if op.__class__ is int:
            push(rows[op])
        elif op is Not:
            push(full ^ pop())
        else:
            x, y = pop(), pop()
            if op is And:
                push(x & y)
            elif op is Or:
                push(x | y)
            elif op is Implies:
                push(full ^ x | y)
            else:
                push(full ^ x ^ y)
    return vals[::-1], full


def truth_masks(fs) -> list:
    """Each formula of fs as a mask of 64 rows that assign every atom: the
    whole table of the first six, seeded columns for the rest. So a -> b is
    a tautology only if b's mask has every row of a's."""
    return _masks(fs, 6)[0]


def is_tautology(f: Formula) -> bool:
    """Propositional validity with modal subformulas opaque. Raises
    ProofError past the atom cap; callers decide how to report it."""
    (mask,), full = _masks((f,), None)
    return mask == full


# --- axiom schemas ----------------------------------------------------------
#
# Each schema is written once; its variables a and b stand for any formula.

AXIOMS = {tag: parse_formula(text) for tag, text in (
    ("AxK_tri", "[.](a -> b) -> [.]a -> [.]b"),
    ("AxK_box", "[](a -> b) -> []a -> []b"),
    ("AxL_tri", "[.]([.]a -> a) -> [.]a"),
    ("AxT1", "[.]a -> []a"),
    ("AxT2", "[]a -> [.][]a"),
    ("AxT3", "[]a -> [][.]a"),
    ("AxT4", "[][.]a -> []a"),
    ("Ax2", "[]a <-> [.][.]a"),
)}


def match(schema: Formula, f: Formula, env: dict) -> bool:
    """Whether f is an instance of schema, binding each schema variable in
    env to the one formula it stands for wherever it occurs."""
    if isinstance(schema, Var):
        return env.setdefault(schema.name, f) == f
    if type(schema) is not type(f):
        return False
    if isinstance(schema, UNARY):
        return match(schema.body, f.body, env)
    if isinstance(schema, BINARY):
        return (match(schema.left, f.left, env)
                and match(schema.right, f.right, env))
    return True


def instantiate(schema: Formula, env: dict) -> Formula:
    """schema with each variable replaced by its formula in env."""
    if isinstance(schema, Var):
        return env[schema.name]
    if isinstance(schema, UNARY):
        return type(schema)(instantiate(schema.body, env))
    if isinstance(schema, BINARY):
        return type(schema)(instantiate(schema.left, env),
                            instantiate(schema.right, env))
    return schema


# --- the checker ------------------------------------------------------------

def check_proof(p: ProofObject):
    allowed = SYSTEM_RULES.get(p.system)
    if allowed is None:
        return ErrorAt(0, f"unknown system {p.system!r}")
    for no, line in enumerate(p.lines, start=1):
        rule = line.rule
        if rule == "Nec_box":
            return ErrorAt(no, "Nec_box is not a primitive rule; derive it "
                               "from Nec_tri and AxT1")
        if rule not in ALL_RULES:
            return ErrorAt(no, f"unknown rule {rule!r}")
        if rule not in allowed:
            return ErrorAt(no, f"{rule} is not part of {p.system}")
        if rule in AXIOMS or rule == "Taut":
            if line.refs:
                return ErrorAt(no, f"{rule} takes no references")
            if rule == "Taut":
                try:
                    if not is_tautology(line.formula):
                        return ErrorAt(no, "not a tautology")
                except ProofError as e:
                    return ErrorAt(no, str(e))
            elif not match(AXIOMS[rule], line.formula, {}):
                return ErrorAt(no, f"not an instance of {rule}")
            continue
        for ref in line.refs:
            if type(ref) is not int or not 1 <= ref < no:
                return ErrorAt(no, f"reference {ref} is not an earlier line")
        if rule == "MP":
            if len(line.refs) != 2:
                return ErrorAt(no, "MP takes two references")
            minor = p.lines[line.refs[0] - 1].formula
            major = p.lines[line.refs[1] - 1].formula
            if (not isinstance(major, Implies) or major.left != minor
                    or major.right != line.formula):
                return ErrorAt(no, "MP mismatch")
        elif rule == "Nec_tri":
            if len(line.refs) != 1:
                return ErrorAt(no, "Nec_tri takes one reference")
            prem = p.lines[line.refs[0] - 1].formula
            if line.formula != Triangle(prem):
                return ErrorAt(no, "Nec_tri conclusion must prefix [.] to "
                                   "the cited line")
    return Ok()


def conclusion(p: ProofObject) -> Formula:
    if not p.lines:
        raise ProofError("empty proof has no conclusion")
    return p.lines[-1].formula


# --- JSON-facing dict form --------------------------------------------------

def proof_to_dict(p: ProofObject) -> dict:
    lines = []
    for line in p.lines:
        entry = {"formula": render_formula(line.formula), "rule": line.rule}
        if line.refs:
            entry["refs"] = list(line.refs)
        lines.append(entry)
    return {"system": p.system, "lines": lines}


def proof_from_dict(d) -> ProofObject:
    if not isinstance(d, dict):
        raise ProofError("proof document must be an object")
    if set(d) - {"system", "lines"} or "system" not in d or "lines" not in d:
        raise ProofError("proof document has fields 'system' and 'lines' only")
    if not isinstance(d["lines"], list):
        raise ProofError("'lines' must be a list")
    lines = []
    for i, entry in enumerate(d["lines"], start=1):
        if not isinstance(entry, dict) or "formula" not in entry or "rule" not in entry:
            raise ProofError(f"line {i} needs 'formula' and 'rule'")
        text, rule, refs = entry["formula"], entry["rule"], entry.get("refs", [])
        if not isinstance(text, str) or not isinstance(rule, str):
            raise ProofError(f"line {i}: 'formula' and 'rule' must be strings")
        if not isinstance(refs, list) or not all(type(r) is int for r in refs):
            raise ProofError(f"line {i}: refs must be a list of integers")
        try:
            formula = parse_formula(text)
        except ParseError as e:
            raise ProofError(f"line {i}: bad formula {text!r}: {e}")
        lines.append(ProofLine(formula, rule, tuple(refs)))
    return ProofObject(str(d["system"]), tuple(lines))
