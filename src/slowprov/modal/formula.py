"""Bimodal formula AST with a tokenizing parser and a canonical printer.

Two modalities: `[]` (read over the second accessibility relation where one
exists) and `[.]` (read over the tree order). `<>` and `<.>` are their duals,
kept distinct in the AST but evaluated through the negation translation.
"""

from __future__ import annotations

from dataclasses import dataclass


class FormulaError(Exception):
    pass


class ParseError(FormulaError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Bot(Formula):
    __slots__ = ()


@dataclass(frozen=True)
class Top(Formula):
    __slots__ = ()


@dataclass(frozen=True)
class Var(Formula):
    __slots__ = ("name",)
    name: str


@dataclass(frozen=True)
class Not(Formula):
    __slots__ = ("body",)
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Box(Formula):
    __slots__ = ("body",)
    body: Formula


@dataclass(frozen=True)
class Diamond(Formula):
    __slots__ = ("body",)
    body: Formula


@dataclass(frozen=True)
class Triangle(Formula):
    __slots__ = ("body",)
    body: Formula


@dataclass(frozen=True)
class Nabla(Formula):
    __slots__ = ("body",)
    body: Formula


UNARY = (Not, Box, Diamond, Triangle, Nabla)
MODAL = (Box, Diamond, Triangle, Nabla)
BINARY = (And, Or, Implies, Iff)


# --- analysis ---------------------------------------------------------------

def subformulas(a: Formula) -> tuple:
    """Every subformula of a, children before parents, first occurrence kept."""
    seen = {}

    def walk(f):
        if f in seen:
            return
        if isinstance(f, UNARY):
            walk(f.body)
        elif isinstance(f, BINARY):
            walk(f.left)
            walk(f.right)
        seen[f] = None

    walk(a)
    return tuple(seen)


def variables_of(a: Formula) -> set:
    return {f.name for f in subformulas(a) if isinstance(f, Var)}


def modal_depth(a: Formula) -> int:
    if isinstance(a, MODAL):
        return 1 + modal_depth(a.body)
    if isinstance(a, Not):
        return modal_depth(a.body)
    if isinstance(a, BINARY):
        return max(modal_depth(a.left), modal_depth(a.right))
    return 0


def uses_triangle(a: Formula) -> bool:
    return any(isinstance(f, (Triangle, Nabla)) for f in subformulas(a))


# --- parser -----------------------------------------------------------------

_SYMBOLS = ["<->", "<.>", "<>", "->", "[.]", "[]", "~", "&", "|", "(", ")"]


def _tokenize(text: str):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append((sym, i))
                i += len(sym)
                break
        else:
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                if word != word.lower():
                    raise ParseError(f"identifiers are lowercase, got {word!r}", i)
                toks.append((word, i))
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("", n))
    return toks


# A formula nests at most this deep: in connectives and modalities on any path
# of its syntax tree, and in parentheses. Every recursive walk of a formula
# stays inside Python's recursion limit at this depth.
MAX_FORMULA_DEPTH = 100

_PREFIX = {"~": Not, "[]": Box, "<>": Diamond, "[.]": Triangle, "<.>": Nabla}
# binary connective -> (binding strength, node type, groups to the right)
_INFIX = {"<->": (1, Iff, False), "->": (2, Implies, True),
          "|": (3, Or, False), "&": (4, And, False)}


class _Parser:
    """Operator precedence over explicit stacks; each rule returns a formula
    and its depth. Only a parenthesis recurses, two frames a level."""

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.parens = 0

    def peek(self):
        return self.toks[self.i][0]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def formula(self):
        parts = [self.unary()]
        ops = []    # (strength, node type, position) of pending connectives
        while True:
            tok, pos = self.toks[self.i]
            strength, cls, right = _INFIX.get(tok, (0, None, False))
            # join the parts under every pending connective that binds harder
            while ops and (ops[-1][0] > strength or ops[-1][0] == strength and not right):
                _, op, at = ops.pop()
                (g, e), (f, d) = parts.pop(), parts.pop()
                parts.append((op(f, g), _deeper(max(d, e), at)))
            if cls is None:
                return parts[0]
            self.i += 1
            ops.append((strength, cls, pos))
            parts.append(self.unary())

    def unary(self):
        wraps = []
        while self.peek() in _PREFIX:
            wraps.append(self.next())
        tok, pos = self.next()
        if tok == "(":
            self.parens += 1
            if self.parens > MAX_FORMULA_DEPTH:
                raise ParseError(f"parentheses nest deeper than {MAX_FORMULA_DEPTH}", pos)
            f, d = self.formula()
            tok, pos = self.next()
            if tok != ")":
                raise ParseError("expected ')'", pos)
            self.parens -= 1
        elif tok == "true":
            f, d = Top(), 0
        elif tok == "false":
            f, d = Bot(), 0
        elif tok and (tok[0].isalpha() or tok[0] == "_"):
            f, d = Var(tok), 0
        else:
            raise ParseError("expected a formula", pos)
        for tok, pos in reversed(wraps):
            f, d = _PREFIX[tok](f), _deeper(d, pos)
        return f, d


def _deeper(depth: int, pos: int) -> int:
    """The depth of a node over a part of this depth, within the limit."""
    if depth >= MAX_FORMULA_DEPTH:
        raise ParseError(f"formula nests deeper than {MAX_FORMULA_DEPTH}", pos)
    return depth + 1


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    f = p.formula()[0]
    tok, pos = p.next()
    if tok != "":
        raise ParseError("trailing input", pos)
    return f


# --- printer ----------------------------------------------------------------

_LEVEL_IFF, _LEVEL_IMP, _LEVEL_OR, _LEVEL_AND, _LEVEL_UN = 1, 2, 3, 4, 5


def _level(f: Formula) -> int:
    if isinstance(f, Iff):
        return _LEVEL_IFF
    if isinstance(f, Implies):
        return _LEVEL_IMP
    if isinstance(f, Or):
        return _LEVEL_OR
    if isinstance(f, And):
        return _LEVEL_AND
    if isinstance(f, UNARY):
        return _LEVEL_UN
    return 6


def render_formula(f: Formula) -> str:
    return _render(f, _LEVEL_IFF)


def _render(f: Formula, floor: int) -> str:
    lvl = _level(f)
    if isinstance(f, Bot):
        s = "false"
    elif isinstance(f, Top):
        s = "true"
    elif isinstance(f, Var):
        s = f.name
    elif isinstance(f, Not):
        s = "~" + _render(f.body, _LEVEL_UN)
    elif isinstance(f, Box):
        s = "[]" + _render(f.body, _LEVEL_UN)
    elif isinstance(f, Diamond):
        s = "<>" + _render(f.body, _LEVEL_UN)
    elif isinstance(f, Triangle):
        s = "[.]" + _render(f.body, _LEVEL_UN)
    elif isinstance(f, Nabla):
        s = "<.>" + _render(f.body, _LEVEL_UN)
    elif isinstance(f, And):
        s = _render(f.left, _LEVEL_AND) + " & " + _render(f.right, _LEVEL_UN)
    elif isinstance(f, Or):
        s = _render(f.left, _LEVEL_OR) + " | " + _render(f.right, _LEVEL_AND)
    elif isinstance(f, Implies):
        s = _render(f.left, _LEVEL_OR) + " -> " + _render(f.right, _LEVEL_IMP)
    elif isinstance(f, Iff):
        s = _render(f.left, _LEVEL_IFF) + " <-> " + _render(f.right, _LEVEL_IMP)
    else:
        raise FormulaError(f"not a formula: {f!r}")
    if lvl < floor:
        return "(" + s + ")"
    return s
