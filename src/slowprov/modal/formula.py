"""Bimodal formula AST with a tokenizing parser and a canonical printer.

Two modalities: `[]` (read over the second accessibility relation where one
exists) and `[.]` (read over the tree order). `<>` and `<.>` are their duals,
kept distinct in the AST but evaluated through the negation translation.

Nodes are interned: every constructor looks its type and parts up in a
table that holds its nodes weakly, so equal formulas are the same object.
Identity is the one equality and the one hash, neither walks the tree, and
a formula nothing refers to leaves the table. Pickle and copy rebuild
through the constructors and return the original node.
"""

from __future__ import annotations

import weakref


class FormulaError(Exception):
    pass


class ParseError(FormulaError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class Formula:
    """A node of the syntax tree. Each subclass names its parts in
    `__slots__`; `Var("p")`, `Box(a)`, `And(a, b)` and the other
    constructors return the one live node with that type and those parts."""

    __slots__ = ("_prog", "__weakref__")    # _prog: kripke's compiled program, once set

    def __new__(cls, *parts):
        key = (cls, *parts)
        ref = _table.get(key)
        node = ref and ref()
        if node is None:
            if len(parts) != len(cls.__slots__):
                raise TypeError(f"{cls.__name__} has parts {cls.__slots__}, got {parts!r}")
            node = object.__new__(cls)
            for name, part in zip(cls.__slots__, parts):
                object.__setattr__(node, name, part)
            # the entry leaves the table as the node dies
            _table[key] = weakref.ref(
                node, lambda ref, key=key: _table.get(key) is ref and _table.pop(key))
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # rebuilt through the interning constructor, so a copy is the original
        return type(self), tuple(map(self.__getattribute__, self.__slots__))

    def __repr__(self):
        parts = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({parts})"


# a weak reference to every live node, keyed by its type and parts; a node
# keeps its parts alive, so a key names one node while it lives
_table = {}


# the node types and the names of their parts
class Bot(Formula): __slots__ = ()
class Top(Formula): __slots__ = ()
class Var(Formula): __slots__ = ("name",)
class Not(Formula): __slots__ = ("body",)
class And(Formula): __slots__ = ("left", "right")
class Or(Formula): __slots__ = ("left", "right")
class Implies(Formula): __slots__ = ("left", "right")
class Iff(Formula): __slots__ = ("left", "right")
class Box(Formula): __slots__ = ("body",)
class Diamond(Formula): __slots__ = ("body",)
class Triangle(Formula): __slots__ = ("body",)
class Nabla(Formula): __slots__ = ("body",)


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
# of its syntax tree, and in parentheses. Equality and hash walk nothing; the
# recursive walks (subformulas, modal_depth, proofs.match, proofs.instantiate,
# _render) stay inside Python's recursion limit at this depth.
MAX_FORMULA_DEPTH = 100

_CONSTANT = {"true": Top, "false": Bot}
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
        elif tok in _CONSTANT:
            f, d = _CONSTANT[tok](), 0
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

_WORD = {cls: word for word, cls in (*_PREFIX.items(), *_CONSTANT.items())}
# node type -> (symbol, binding strength, groups to the right)
_CONNECTIVE = {cls: (sym, strength, right) for sym, (strength, cls, right) in _INFIX.items()}
# a prefix operator binds tighter than every connective
_PREFIX_STRENGTH = 1 + max(strength for strength, _, _ in _INFIX.values())


def render_formula(f: Formula) -> str:
    return _render(f, 0)


def _render(f: Formula, floor: int) -> str:
    """f's text, in parentheses if its connective binds weaker than floor."""
    cls = type(f)
    if cls in _CONNECTIVE:
        sym, strength, right = _CONNECTIVE[cls]
        s = f"{_render(f.left, strength + right)} {sym} {_render(f.right, strength + (not right))}"
        return s if strength >= floor else f"({s})"
    if cls in UNARY:
        return _WORD[cls] + _render(f.body, _PREFIX_STRENGTH)
    if cls is Var:
        return f.name
    if cls in _WORD:
        return _WORD[cls]
    raise FormulaError(f"not a formula: {f!r}")
