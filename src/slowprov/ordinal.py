"""Exact ordinal arithmetic below epsilon_0 in Cantor normal form.

Ordinals are sums of omega-powers with positive integer coefficients and
strictly decreasing exponents. The value epsilon_0 exists as a distinguished
constant so it can index hierarchies and fundamental sequences, but it takes
no part in arithmetic.

An ordinal is a node of a persistent snoc list: `prefix + w^exp * coeff`,
where `prefix` is the ordinal of all terms but the last, `exp` and `coeff`
are the last term, `length` counts the terms and `lead_exp` and `lead_coeff`
are the leading term. ZERO is the empty list; EPSILON0 is a separate
singleton. One builder, `_snoc`, interns every node in a table keyed by
its prefix, exponent and coefficient that holds its nodes weakly, so equal
ordinals are the same object: identity is the one equality and the one
hash, and an ordinal nothing refers to leaves the table. The public
`Ordinal(...)` validates its input and returns the interned node.

The last-term operations (`classify`, `fund_seq`, `stepdown_one`) rebuild
only the chain of last exponents, so a descent step costs O(nesting depth),
not O(size of the ordinal). `terms` is a read-only tuple view of the
(exponent, coefficient) pairs, built on demand in O(length). `compare`,
`render_ordinal` and `parse_ordinal` loop over explicit stacks, so no nesting
depth exhausts Python's recursion limit.
"""

from __future__ import annotations

import sys
import weakref
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter


class OrdinalError(Exception):
    pass


class ParseError(OrdinalError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class ArithmeticWithEpsilonZero(OrdinalError):
    """epsilon_0 is a marker, not an arithmetic citizen."""


class NotALimit(OrdinalError):
    pass


class ZeroInput(OrdinalError):
    pass


class Cmp(Enum):
    LESS = "LT"
    EQUAL = "EQ"
    GREATER = "GT"


class Ordinal:
    """An ordinal <= epsilon_0, interned: equal ordinals are one object, so
    `==` and `hash` are those of the object itself.

    A nonzero ordinal below epsilon_0 is `prefix + w^exp * coeff` with
    `length` terms, the first of which is `w^lead_exp * lead_coeff`. ZERO and
    EPSILON0 have length 0, coefficients 0 and no prefix or exponents;
    `eps` tells EPSILON0 apart. These are read-only properties over private
    slots, which only this module writes, as it builds a node; `_text`
    keeps a text of at most `_KEPT` characters once a render built it.
    `Ordinal(terms)` checks a tuple of (exponent, coefficient) pairs for
    normal form and returns the interned node; `Ordinal(eps=True)` returns
    EPSILON0.
    """

    __slots__ = ("_prefix", "_exp", "_coeff", "_length", "_lead_exp", "_lead_coeff",
                 "_text", "__weakref__")

    prefix = property(attrgetter("_prefix"))
    exp = property(attrgetter("_exp"))
    coeff = property(attrgetter("_coeff"))
    length = property(attrgetter("_length"))
    lead_exp = property(attrgetter("_lead_exp"))
    lead_coeff = property(attrgetter("_lead_coeff"))

    def __new__(cls, terms=(), eps: bool = False):
        terms = tuple(terms)
        if eps:
            if terms:
                raise OrdinalError("epsilon_0 carries no terms")
            return EPSILON0
        node = ZERO
        for exp, coeff in terms:
            node = _snoc_checked(node, exp, coeff)
        return node

    def __reduce__(self):
        # rebuilt through the interning constructor, so a copy is the original
        if self is EPSILON0:
            return Ordinal, ((), True)
        return _from_rows, (_rows(self),)

    @property
    def terms(self) -> tuple:
        """The (exponent, coefficient) pairs, leading term first; O(length)."""
        out = []
        node = self
        while node._length:
            out.append((node._exp, node._coeff))
            node = node._prefix
        out.reverse()
        return tuple(out)

    @property
    def eps(self) -> bool:
        return self is EPSILON0

    def is_zero(self) -> bool:
        return self is ZERO

    def __lt__(self, other):
        return compare(self, other) is Cmp.LESS

    def __le__(self, other):
        return compare(self, other) is not Cmp.GREATER

    def __gt__(self, other):
        return compare(self, other) is Cmp.GREATER

    def __ge__(self, other):
        return compare(self, other) is not Cmp.LESS

    def __repr__(self):
        return f"Ordinal({render_ordinal(self)!r})"


_new = object.__new__


def _constant() -> Ordinal:
    o = _new(Ordinal)
    o._prefix = o._exp = o._lead_exp = o._text = None
    o._coeff = o._length = o._lead_coeff = 0
    return o


ZERO = _constant()
EPSILON0 = _constant()


class _Entry(weakref.ref):
    """The intern table's weak reference to a node, with the node's key."""

    __slots__ = ("key",)


def _drop(entry: _Entry):
    # called as the node dies: the entry leaves the table with it
    if _lookup(entry.key) is entry:
        del _table[entry.key]


# every node but ZERO and EPSILON0, keyed by its prefix, exponent and
# coefficient. A node keeps its children alive, so a key names one node
# while it lives. The table takes no lock: slowprov builds ordinals from
# one thread.
_table = {}
_lookup = _table.get


def _snoc(prefix: Ordinal, exp: Ordinal, coeff: int) -> Ordinal:
    """The one builder: prefix + w^exp * coeff, interned, unchecked.

    The caller guarantees normal form (coeff >= 1, exp below epsilon_0 and
    below the last exponent of prefix); input from outside goes through the
    validating `Ordinal`.
    """
    key = (prefix, exp, coeff)
    entry = _lookup(key)
    if entry is not None:
        node = entry()
        if node is not None:
            return node
    node = _new(Ordinal)
    node._prefix = prefix
    node._exp = exp
    node._coeff = coeff
    if prefix is ZERO:
        node._length = 1
        node._lead_exp = exp
        node._lead_coeff = coeff
    else:
        node._length = prefix._length + 1
        node._lead_exp = prefix._lead_exp
        node._lead_coeff = prefix._lead_coeff
    node._text = None
    entry = _Entry(node, _drop)
    entry.key = key
    _table[key] = entry
    return node


def _snoc_checked(prefix: Ordinal, exp: Ordinal, coeff: int) -> Ordinal:
    if not isinstance(exp, Ordinal) or exp is EPSILON0:
        raise OrdinalError("exponents must be ordinals below epsilon_0")
    if not isinstance(coeff, int) or coeff < 1:
        raise OrdinalError("coefficients must be positive integers")
    if prefix._length and compare(prefix._exp, exp) is not Cmp.GREATER:
        raise OrdinalError("exponents must strictly decrease")
    return _snoc(prefix, exp, coeff)


def _extend(prefix: Ordinal, terms) -> Ordinal:
    for exp, coeff in terms:
        prefix = _snoc(prefix, exp, coeff)
    return prefix


def _lower(a: Ordinal) -> Ordinal:
    """a with its last coefficient lowered by one (the last term dropped at 1)."""
    if a._coeff > 1:
        return _snoc(a._prefix, a._exp, a._coeff - 1)
    return a._prefix


def _rows(a: Ordinal) -> tuple:
    """The distinct nodes under a, children first, as (prefix, exp, coeff) rows.

    Row i+1 describes the i-th node; index 0 stands for ZERO.
    """
    index = {ZERO: 0}
    rows = []
    stack = [a]
    while stack:
        x = stack[-1]
        if x in index:
            stack.pop()
            continue
        missing = [c for c in (x._prefix, x._exp) if c not in index]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        rows.append((index[x._prefix], index[x._exp], x._coeff))
        index[x] = len(rows)
    return tuple(rows)


def _from_rows(rows) -> Ordinal:
    built = [ZERO]
    for p, e, c in rows:
        built.append(_snoc_checked(built[p], built[e], c))
    return built[-1]


ONE = _snoc(ZERO, ZERO, 1)
OMEGA = _snoc(ZERO, ONE, 1)


def from_int(n: int) -> Ordinal:
    if n < 0:
        raise OrdinalError("ordinals are nonnegative")
    if n == 0:
        return ZERO
    return Ordinal(((ZERO, n),))


def compare(a: Ordinal, b: Ordinal) -> Cmp:
    """Three-way comparison; total on all representable ordinals.

    The first term where a and b differ decides. Equal ordinals are one
    object, so the terms before it are one shared prefix node, and where
    its exponents differ they decide alone: the loop moves into them
    instead of recursing.
    """
    while True:
        if a is b:
            return Cmp.EQUAL
        if a is EPSILON0 or b is EPSILON0:
            return Cmp.GREATER if a is EPSILON0 else Cmp.LESS
        la, lb = a._length, b._length
        if not la or not lb:
            return Cmp.GREATER if la else Cmp.LESS
        if a._lead_exp is not b._lead_exp:
            a, b = a._lead_exp, b._lead_exp
            continue
        if a._lead_coeff != b._lead_coeff:
            return Cmp.GREATER if a._lead_coeff > b._lead_coeff else Cmp.LESS
        # equal leading terms: cut both to the shorter length, then walk
        # back to the first term where they differ
        x, y = a, b
        for _ in range(la - lb):
            x = x._prefix
        for _ in range(lb - la):
            y = y._prefix
        if x is y:
            return Cmp.GREATER if la > lb else Cmp.LESS
        while x._prefix is not y._prefix:
            x, y = x._prefix, y._prefix
        if x._exp is y._exp:
            return Cmp.GREATER if x._coeff > y._coeff else Cmp.LESS
        a, b = x._exp, y._exp


def _reject_eps(*os: Ordinal):
    for o in os:
        if o is EPSILON0:
            raise ArithmeticWithEpsilonZero("arithmetic on epsilon_0 is not defined here")


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    _reject_eps(a, b)
    if b is ZERO:
        return a
    lead = b._lead_exp
    # the terms of a below b's leading exponent are absorbed
    kept = a
    while kept is not ZERO and compare(kept._exp, lead) is Cmp.LESS:
        kept = kept._prefix
    if kept is ZERO:
        return b
    rest = b.terms
    if kept._exp is lead:
        kept = _snoc(kept._prefix, lead, kept._coeff + b._lead_coeff)
        rest = rest[1:]
    return _extend(kept, rest)


def mul(a: Ordinal, b: Ordinal) -> Ordinal:
    _reject_eps(a, b)
    if a is ZERO or b is ZERO:
        return ZERO
    lead_exp, lead_coeff = a._lead_exp, a._lead_coeff
    tail = a.terms[1:]
    acc = ZERO
    for exp, coeff in b.terms:
        if exp is ZERO:
            part = _extend(_snoc(ZERO, lead_exp, lead_coeff * coeff), tail)
        else:
            part = _snoc(ZERO, add(lead_exp, exp), coeff)
        acc = add(acc, part)
    return acc


def omega_pow(a: Ordinal) -> Ordinal:
    """omega raised to a. Rejects epsilon_0 (the result would leave CNF)."""
    _reject_eps(a)
    return _snoc(ZERO, a, 1)


def omega_tower(base: Ordinal, height: int) -> Ordinal:
    """Iterated omega-power: height 0 is the base itself."""
    if height < 0:
        raise OrdinalError("tower height must be nonnegative")
    r = base
    for _ in range(height):
        r = omega_pow(r)
    return r


class OrdKind(Enum):
    ZERO = "zero"
    SUCCESSOR = "successor"
    LIMIT = "limit"


def classify(a: Ordinal):
    """Return (kind, predecessor); predecessor is None except for successors."""
    if a is EPSILON0:
        return OrdKind.LIMIT, None
    if a is ZERO:
        return OrdKind.ZERO, None
    if a._exp is not ZERO:
        return OrdKind.LIMIT, None
    return OrdKind.SUCCESSOR, _lower(a)


def fund_seq(lam: Ordinal, n: int) -> Ordinal:
    """The n-th member of the canonical sequence converging to the limit lam.

    For a last term omega^(d+1)*c the last power is traded for omega^d*(n+1);
    for a limit last exponent the sequence recurses into that exponent;
    epsilon_0 steps down to the omega-tower of height n+1. Always < lam.
    """
    if not isinstance(n, int) or n < 0:
        raise OrdinalError("sequence index must be a nonnegative integer")
    if lam is EPSILON0:
        return omega_tower(ONE, n + 1)
    if lam is ZERO or lam._exp is ZERO:
        raise NotALimit(f"{render_ordinal(lam)} is not a limit ordinal")
    # walk down the chain of last exponents to the first successor one, then
    # rebuild that chain alone; every prefix is shared with lam
    chain = []
    cur = lam
    while cur._exp._exp is not ZERO:
        chain.append(cur)
        cur = cur._exp
    val = _snoc(_lower(cur), _lower(cur._exp), n + 1)
    for cur in reversed(chain):
        val = _snoc(_lower(cur), val, 1)
    return val


def stepdown_one(a: Ordinal, n: int) -> Ordinal:
    """One step of the descent: predecessor at successors, fund_seq at limits."""
    if a is ZERO:
        raise ZeroInput("cannot step below zero")
    return _lower(a) if a._exp is ZERO else fund_seq(a, n)


@dataclass(frozen=True)
class Reached:
    steps: int
    path: tuple


@dataclass(frozen=True)
class NotOnPath:
    steps: int
    undershoot: Ordinal


@dataclass(frozen=True)
class StepBudgetExceeded:
    steps: int
    partial_path: tuple


PathResult = Reached | NotOnPath | StepBudgetExceeded


def stepdown_path(a: Ordinal, n: int, target: Ordinal, step_budget: int) -> PathResult:
    """Walk the deterministic descent from a with parameter n until target.

    The walk is strictly decreasing, so the search stops as soon as the
    current ordinal falls below the target.
    """
    if step_budget < 1:
        raise OrdinalError("step budget must be positive")
    if not isinstance(n, int) or n < 0:
        raise OrdinalError("sequence index must be a nonnegative integer")
    path = [a]
    cur = a
    while True:
        c = compare(cur, target)
        if c is Cmp.EQUAL:
            return Reached(len(path) - 1, tuple(path))
        if c is Cmp.LESS:
            return NotOnPath(len(path) - 1, cur)
        if len(path) > step_budget:
            return StepBudgetExceeded(step_budget, tuple(path))
        # cur is above the target, so it is not ZERO
        cur = _lower(cur) if cur._exp is ZERO else fund_seq(cur, n)
        path.append(cur)


# ---------------------------------------------------------------------------
# text form
#
#   ord  := term ("+" term)* | "0" | "e0"
#   term := "w" ("^" atom)? ("*" nat)? | nat
#   atom := "w" | nat | "(" ord ")"
#   nat  := [1-9][0-9]*


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise ParseError(f"expected {ch!r}", self.pos)

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a number", start)
        digits = self.text[start:self.pos]
        if digits[0] == "0":
            raise ParseError("numbers start from 1 here; 0 is a whole ordinal only", start)
        try:
            return int(digits)
        except ValueError:
            # int() refuses a text past sys.get_int_max_str_digits()
            raise ParseError(f"a number of more than {sys.get_int_max_str_digits()} "
                             "digits cannot be read", start) from None


def parse_ordinal(text: str) -> Ordinal:
    s = _Scanner(text)
    result = _parse_ord(s)
    s.skip_ws()
    if s.pos != len(s.text):
        raise ParseError("trailing input", s.pos)
    return result


def _parse_ord(s: _Scanner) -> Ordinal:
    """Read one ord. A "w^(" pushes the sum read so far around it and starts
    the inner ord; its ")" pops that sum and finishes the term."""
    sums = []
    while True:
        # the start of an ord
        ch = s.peek()
        value = None
        if ch == "0":
            s.pos += 1
            value = ZERO
        elif ch == "e":
            if sums:
                raise ParseError("e0 may only stand alone", s.pos)
            s.pos += 1
            s.expect("0")
            return EPSILON0
        acc = ZERO
        while True:
            if value is None:
                term = _parse_term(s)
                if term is None:
                    sums.append(acc)
                    break
                acc = add(acc, term)
            elif not sums:
                return value
            else:
                s.expect(")")
                acc = add(sums.pop(), _power(s, value))
            value = None if s.take("+") else acc


def _parse_term(s: _Scanner):
    """One term, or None once "w^(" is read and an inner ord is due."""
    ch = s.peek()
    if ch == "w":
        s.pos += 1
        exp = ONE
        if s.take("^"):
            ch = s.peek()
            if ch == "(":
                s.pos += 1
                return None
            if ch == "w":
                s.pos += 1
                exp = OMEGA
            elif ch.isdigit():
                exp = from_int(s.nat())
            else:
                raise ParseError("expected an exponent", s.pos)
        return _power(s, exp)
    if ch.isdigit():
        return from_int(s.nat())
    raise ParseError("expected a term", s.pos)


def _power(s: _Scanner, exp: Ordinal) -> Ordinal:
    """w^exp with the optional "*" nat that follows it."""
    coeff = s.nat() if s.take("*") else 1
    return _snoc(ZERO, exp, coeff)


# a node whose text has at most this many characters keeps it once built,
# but not the node render_ordinal is asked for: a walk would keep them all
_KEPT = 128


def _term_text(exp: Ordinal, coeff: int):
    """The text of the term w^exp * coeff, or None if exp needs parentheses."""
    if exp is ZERO:
        return str(coeff)
    # bare forms in exponent position: w itself and plain naturals
    if exp is ONE:
        head = "w"
    elif exp is OMEGA:
        head = "w^w"
    elif exp._length == 1 and exp._exp is ZERO:
        head = "w^" + str(exp._coeff)
    else:
        return None
    return head if coeff == 1 else f"{head}*{coeff}"


def _short_text(x: Ordinal, room: int, failed: set):
    """x's text if it has at most room characters, else None, in O(room) work.

    The prefix and the exponents share the room. Every node whose text this
    builds keeps it, x too; every exponent it gives up on goes into failed.
    """
    chain = []
    node = x
    while node is not ZERO and node._text is None:
        if 4 * len(chain) >= room:
            return None     # one more term and its " + " would not fit
        chain.append(node)
        node = node._prefix
    text = node._text or ""
    if len(text) > room:
        return None
    for node in reversed(chain):
        exp, coeff = node._exp, node._coeff
        term = _term_text(exp, coeff)
        if term is None:
            inner = _short_text(exp, room - len(text) - 4, failed)  # at most room/4 deep
            if inner is None:
                failed.add(exp)
                return None
            term = f"w^({inner})" if coeff == 1 else f"w^({inner})*{coeff}"
        text = f"{text} + {term}" if text else term
        if len(text) > room:
            return None
        node._text = text
    return text


def render_ordinal(a: Ordinal) -> str:
    """The text form, which parse_ordinal reads back.

    The text is written out in pieces from an explicit stack, so no nesting
    depth exhausts the recursion limit, and an exponent's text is never
    copied into each enclosing level. A node met under two different nodes
    (an exponent used twice, or a prefix that two sums share, as along a
    long descent) is written out once and its text reused, so Python work
    follows the number of distinct nodes, not the length of the output.
    A node of at most _KEPT characters but the one asked for keeps its text,
    so a descent's element, whose prefix kept its text, costs O(1) work.
    A coefficient past Python's int-to-string limit raises OrdinalError.
    """
    try:
        if a is EPSILON0:
            return "e0"
        if a is ZERO:
            return "0"
        # exponents a search gave up on: the stack renders them without searching
        failed = set()
        text = a._text
        if text is None:
            text = _short_text(a, _KEPT, failed)
            a._text = None
        if text is not None:
            return text
        out = []
        texts = {}      # node -> text, for nodes met under two nodes
        met = {}        # node -> the node it was first met under
        starts = {}     # node -> where in out a node met twice begins
        # the root counts as met under ZERO, which no other node is met under
        stack = [(a, ZERO)]
        while stack:
            item = stack.pop()
            if item.__class__ is str:
                out.append(item)
                continue
            x, under = item
            if under is None:
                # the end of a node met twice: join its pieces and keep them
                start = starts.pop(x)
                text = "".join(out[start:])
                del out[start:]
                out.append(text)
                texts[x] = text
                continue
            text = texts.get(x)
            if text is not None:
                out.append(text)
                continue
            if met.setdefault(x, under) is not under:
                starts[x] = len(out)
                stack.append((x, None))
            # push x's terms from the last one back, so that they pop in order
            node = x
            while True:
                exp, coeff = node._exp, node._coeff
                term = _term_text(exp, coeff)
                if term is not None:
                    stack.append(term)
                else:
                    stack.append(")" if coeff == 1 else f")*{coeff}")
                    text = exp._text or exp not in failed and _short_text(exp, _KEPT, failed)
                    stack.append(text or (exp, node))
                    stack.append("w^(")
                prefix = node._prefix
                if prefix is ZERO:
                    break
                stack.append(" + ")
                text = prefix._text or texts.get(prefix)
                if text is not None:
                    stack.append(text)
                    break
                if met.setdefault(prefix, node) is not node:
                    stack.append((prefix, node))
                    break
                node = prefix
        return "".join(out)
    except ValueError:
        # str() refuses an int past sys.get_int_max_str_digits()
        raise OrdinalError(f"a coefficient of more than {sys.get_int_max_str_digits()} "
                           "digits cannot be printed") from None
