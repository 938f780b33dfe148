"""A reference for ordinal text below epsilon_0, written apart from slowprov.

The checks use it to read what the program printed. An ordinal is a tuple of
(exponent, coefficient) pairs, largest exponent first, and the exponent is
again such a tuple; () is zero and the string "e0" stands for epsilon_0.
The grammar is the one `slowprov ord` reads and prints:

    ord  := term ("+" term)* | "0" | "e0"
    term := "w" ("^" atom)? ("*" nat)? | nat
    atom := "w" | nat | "(" ord ")"
"""

from __future__ import annotations

ZERO = ()
ONE = (((), 1),)
OMEGA = ((ONE, 1),)
EPS0 = "e0"


def cmp(a, b) -> int:
    """-1, 0 or 1 by the order of the ordinals (e0 above everything else)."""
    if a == EPS0 or b == EPS0:
        return (a == EPS0) - (b == EPS0)
    for (ea, ca), (eb, cb) in zip(a, b):
        c = cmp(ea, eb)
        if c:
            return c
        if ca != cb:
            return 1 if ca > cb else -1
    return (len(a) > len(b)) - (len(a) < len(b))


def from_coeffs(coeffs: dict) -> tuple:
    """The ordinal sum of w^k * c over {k: c} with finite exponents k."""
    return tuple((_nat(k), c) for k, c in sorted(coeffs.items(), reverse=True) if c)


def _nat(k: int) -> tuple:
    return ((ZERO, k),) if k else ZERO


def omega_pow(a) -> tuple:
    return ((a, 1),)


def steps_to_zero(coeffs: dict, n: int) -> int:
    """Length of the descent of sum w^k*c_k at parameter n down to 0.

    Dropping one w^k costs S_k = sum of (n+1)^i for i <= k steps: w^k steps
    to w^(k-1)*(n+1) and each of those n+1 copies then costs S_(k-1).
    """
    return sum(c * sum((n + 1) ** i for i in range(k + 1)) for k, c in coeffs.items())


def parse(text: str):
    p = _Reader(text.replace(" ", ""))
    if p.text == "e0":
        return EPS0
    a = p.ord()
    if p.i != len(p.text):
        raise ValueError(f"trailing input in {text!r}")
    return a


class _Reader:
    def __init__(self, text: str):
        self.text = text
        self.i = 0

    def peek(self) -> str:
        return self.text[self.i] if self.i < len(self.text) else ""

    def nat(self) -> int:
        j = self.i
        while self.peek().isdigit():
            self.i += 1
        if j == self.i or self.text[j] == "0":
            raise ValueError(f"bad number at {j} in {self.text!r}")
        return int(self.text[j:self.i])

    def ord(self):
        if self.peek() == "0":
            self.i += 1
            return ZERO
        terms = [self.term()]
        while self.peek() == "+":
            self.i += 1
            terms.append(self.term())
        for (e1, _), (e2, _) in zip(terms, terms[1:]):
            if cmp(e1, e2) <= 0:
                raise ValueError(f"not in normal form: {self.text!r}")
        return tuple(terms)

    def term(self):
        if self.peek() != "w":
            return (ZERO, self.nat())
        self.i += 1
        exp = ONE
        if self.peek() == "^":
            self.i += 1
            exp = self.atom()
        coeff = 1
        if self.peek() == "*":
            self.i += 1
            coeff = self.nat()
        return (exp, coeff)

    def atom(self):
        ch = self.peek()
        if ch == "w":
            self.i += 1
            return OMEGA
        if ch == "(":
            self.i += 1
            inner = self.ord()
            if self.peek() != ")":
                raise ValueError(f"missing ')' in {self.text!r}")
            self.i += 1
            return inner
        return _nat(self.nat())


def render(a, sep: str = " + ") -> str:
    """The program's printed form; sep "+" gives the compact form of `ord stepdown`."""
    if a == EPS0:
        return "e0"
    if not a:
        return "0"
    return sep.join(_term(e, c, sep) for e, c in a)


def _term(e, c, sep) -> str:
    if not e:
        return str(c)
    head = "w" if e == ONE else "w^" + _atom(e, sep)
    return head + (f"*{c}" if c > 1 else "")


def _atom(e, sep) -> str:
    if e == OMEGA:
        return "w"
    if len(e) == 1 and not e[0][0]:
        return str(e[0][1])
    return "(" + render(e, sep) + ")"
