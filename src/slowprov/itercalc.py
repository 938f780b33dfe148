"""Rewrite calculus for stacked provability operators.

An expression is an atom under a stack of operator powers: B (ordinary
provability), S1 and S2 (the one- and two-fold slow variants), and R (the
square-root variant, finite powers only). Powers compose by the addition
law with the inner exponent first, so adjacent entries of the same
operator always fuse. Normalization orients the known equivalences into
rules and applies them in one pass over the stack, innermost entry first:

    R^(2k+m)       ->  B^k over R^m          (m is 0 or 1)
    S2^(w*q+m)     ->  S2^m over B^q         (q, m finite, q >= 1)
    S1^(epsilon_0) ->  B

The second rule keeps B on the inside: peeling S2^w = B off the bottom of
the power uses the addition law w*q+m = w*q + m with w*q innermost, so
the derived boxes sit under the leftover S2^m, not above it. Entailment
compares normal forms positionwise and answers Yes or Unknown only; the
rule set is not complete, so a missing derivation never justifies No.

An entry is rewritten until no rule fires, and fused with the kept entry
below it, before it is kept. The pass ends: a rewrite leaves only entries
that no rule rewrites, and each fusion removes an entry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .ordinal import (
    Cmp,
    ONE,
    Ordinal,
    OrdinalError,
    ZERO,
    add,
    compare,
    from_int,
    parse_ordinal,
    render_ordinal,
)


class IterError(Exception):
    """Base for this module's failures."""


class ParseError(IterError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at token {pos})")
        self.pos = pos


class ExponentOverflow(IterError):
    """A merge would push an exponent past epsilon_0."""


OPS = ("B", "S1", "S2", "R")
_ATOM_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


@dataclass(frozen=True)
class IterExpr:
    """atom under stack, stack listed innermost-first."""
    atom: str
    stack: tuple = ()

    def __post_init__(self):
        if not _ATOM_RE.match(self.atom):
            raise IterError(f"bad atom {self.atom!r}")
        prev_op = None
        for entry in self.stack:
            op, exp = entry
            if op not in OPS:
                raise IterError(f"unknown operator {op!r}")
            if not isinstance(exp, Ordinal):
                raise IterError("exponents must be ordinals")
            if exp == ZERO:
                raise IterError("zero exponent")
            if op == "R" and not _is_finite(exp):
                raise IterError("R only takes finite powers")
            if op == prev_op:
                raise IterError(f"adjacent {op} entries must be merged")
            prev_op = op


def _is_finite(x: Ordinal) -> bool:
    return x is ZERO or x.lead_exp is ZERO


def _merged(stack) -> tuple:
    """Fuse adjacent same-op runs; inner exponent goes first in the sum."""
    out = []
    for op, exp in stack:
        if out and out[-1][0] == op:
            inner = out[-1][1]
            if inner.eps:
                raise ExponentOverflow(
                    f"{op}^epsilon_0 cannot sit under more {op}")
            # a smaller power under an epsilon_0 one is absorbed by it
            out[-1] = (op, exp if exp.eps else add(inner, exp))
        else:
            out.append((op, exp))
    return tuple(out)


# --- parsing and printing ---------------------------------------------------

def parse_iter(text: str) -> IterExpr:
    """Whitespace-separated operator tokens ending in an atom.

    Each operator token is an op name with an optional caret exponent in
    the ordinal grammar, written without spaces: "B^w+2 S1 p".
    """
    tokens = text.split()
    if not tokens:
        raise ParseError("empty expression", 0)
    atom = tokens[-1]
    if not _ATOM_RE.match(atom):
        raise ParseError(f"expected an atom, found {atom!r}", len(tokens))
    entries = []
    for pos, tok in enumerate(tokens[:-1], start=1):
        op, caret, exptext = tok.partition("^")
        if op not in OPS:
            raise ParseError(f"unknown operator {op!r}", pos)
        if caret and not exptext:
            raise ParseError("caret without exponent", pos)
        if exptext:
            try:
                exp = parse_ordinal(exptext)
            except OrdinalError as e:
                raise ParseError(f"bad exponent {exptext!r}: {e}", pos) from None
        else:
            exp = ONE
        if exp == ZERO:
            raise ParseError("zero exponent", pos)
        if op == "R" and not _is_finite(exp):
            raise ParseError("R only takes finite powers", pos)
        entries.append((op, exp))
    entries.reverse()
    try:
        return IterExpr(atom, _merged(tuple(entries)))
    except ExponentOverflow as e:
        raise ParseError(str(e), 0) from None


def render_iter(e: IterExpr) -> str:
    parts = []
    for op, exp in reversed(e.stack):
        if exp == ONE:
            parts.append(op)
        else:
            parts.append(f"{op}^{render_ordinal(exp).replace(' ', '')}")
    parts.append(e.atom)
    return " ".join(parts)


# --- normalization ----------------------------------------------------------

def _rewrite_entry(op: str, exp: Ordinal):
    """One rule application to a single entry, or None. Innermost-first."""
    if op == "R" and exp.coeff >= 2:
        boxes = ("B", from_int(exp.coeff // 2))
        return [("R", ONE), boxes] if exp.coeff % 2 else [boxes]
    if op == "S2" and exp.lead_exp is ONE:
        # exp is w*q + m: q is its leading coefficient, m its finite last term
        boxes = ("B", from_int(exp.lead_coeff))
        return [boxes, ("S2", from_int(exp.coeff))] if exp.exp is ZERO else [boxes]
    if op == "S1" and exp.eps:
        return [("B", ONE)]
    return None


def normalize(e: IterExpr, collapse_under_box: bool = False) -> IterExpr:
    """Apply the directed rules in one pass, innermost entry first.

    Each entry is rewritten until no rule fires, fused with the kept entry
    below it when the two share an operator, and only then kept; a rewrite
    or a fusion sends its result back through these steps. The pass ends:
    a rewrite leaves entries that no rule rewrites, so only a fused entry
    can need one again, and each fusion or erasure removes an entry.

    collapse_under_box additionally erases an S1 power that sits directly
    under a B (sound for powers below epsilon_0, but it inspects the
    neighboring entry, so it is opt-in).
    """
    todo = list(reversed(e.stack))
    kept = []
    while todo:
        op, exp = todo.pop()
        out = _rewrite_entry(op, exp)
        if out is not None:
            todo.extend(reversed(out))
        elif kept and kept[-1][0] == op:
            todo.extend(_merged((kept.pop(), (op, exp))))
        elif collapse_under_box and op == "B" and kept and kept[-1][0] == "S1":
            # a kept S1 power is below epsilon_0: S1^e0 was rewritten to B
            kept.pop()
            todo.append((op, exp))
        else:
            kept.append((op, exp))
    return IterExpr(e.atom, tuple(kept))


# --- entailment -------------------------------------------------------------

class Entailment(Enum):
    YES = "YES"
    UNKNOWN = "UNKNOWN"


def entails(e1: IterExpr, e2: IterExpr) -> Entailment:
    """Conservative strength comparison of normal forms.

    Yes when every position pairs the same operator, or a slow or root
    operator on the left against plain B on the right, with the left
    exponent not above the right one. Anything else is Unknown.
    """
    a, b = normalize(e1), normalize(e2)
    if a.atom != b.atom or len(a.stack) != len(b.stack):
        return Entailment.UNKNOWN
    for (op1, x1), (op2, x2) in zip(a.stack, b.stack):
        if op1 != op2 and op2 != "B":
            return Entailment.UNKNOWN
        if compare(x1, x2) == Cmp.GREATER:
            return Entailment.UNKNOWN
    return Entailment.YES
