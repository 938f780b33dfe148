"""Independent brute-force references used to validate the main modules.

Everything here favors obviousness over speed. The hierarchy oracle keeps
closed forms only for the three bottom levels (the raw unfolding variant
below certifies those at small inputs); the ordinal oracles work on
repeated-term lists instead of coefficient form; frame enumeration is a
plain filtered product over parent vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .ordinal import (
    Cmp,
    OrdKind,
    Ordinal,
    ZERO,
    classify,
    compare,
    from_int,
    fund_seq,
    omega_pow,
)


class HardCapExceeded(Exception):
    def __init__(self, bits_needed: int, cap: int):
        super().__init__(f"needs about {bits_needed} bits, cap is {cap}")
        self.bits_needed = bits_needed
        self.cap = cap


_ONE_I = from_int(1)
_TWO_I = from_int(2)

ORACLE_BIT_CAP = 2 ** 30


def oracle_F(alpha: Ordinal, n: int, bit_cap: int = ORACLE_BIT_CAP) -> int:
    """Direct recursion on the hierarchy definition.

    F_0, F_1, F_2 are primitives here (x+1, 2x+1, 2^(x+1)*(x+1)-1); the
    closed forms are certified against oracle_F_raw by the test suite.
    Aborts with HardCapExceeded before materializing anything wider than
    bit_cap bits.
    """
    if n < 0:
        raise ValueError("argument must be nonnegative")
    if alpha == ZERO:
        _cap_check(n.bit_length() + 1, bit_cap)
        return n + 1
    if alpha == _ONE_I:
        _cap_check(n.bit_length() + 2, bit_cap)
        return 2 * n + 1
    if alpha == _TWO_I:
        _cap_check(n + 1 + (n + 1).bit_length(), bit_cap)
        return ((n + 1) << (n + 1)) - 1
    kind, pred = classify(alpha)
    if kind is OrdKind.SUCCESSOR:
        x = n
        for _ in range(n + 1):
            x = oracle_F(pred, x, bit_cap)
        return x
    return oracle_F(fund_seq(alpha, n), n, bit_cap)


def _cap_check(bits: int, cap: int):
    if bits > cap:
        raise HardCapExceeded(bits, cap)


class RawBudgetExceeded(Exception):
    pass


def oracle_F_raw(alpha: Ordinal, n: int, max_ops: int = 10 ** 7) -> int:
    """Clause-by-clause unfolding with no shortcuts of any kind.

    Every single application of some F_beta costs one op. Feasible only for
    tiny values; exists to certify the closed forms the faster routes rely
    on. The pending-work list stores (ordinal, multiplicity) pairs purely to
    bound memory; multiplicities are still consumed one application at a
    time.
    """
    if n < 0:
        raise ValueError("argument must be nonnegative")
    stack = [(alpha, 1)]
    v = n
    ops = 0
    while stack:
        ops += 1
        if ops > max_ops:
            raise RawBudgetExceeded(f"exceeded {max_ops} raw applications")
        a, count = stack.pop()
        if count > 1:
            stack.append((a, count - 1))
        kind, pred = classify(a)
        if kind is OrdKind.ZERO:
            v += 1
        elif kind is OrdKind.SUCCESSOR:
            stack.append((pred, v + 1))
        else:
            stack.append((fund_seq(a, v), 1))
    return v


# ---------------------------------------------------------------------------
# ordinal arithmetic on repeated-term lists


def _to_repeated(a: Ordinal) -> list:
    """Exponent list of the sum form with unit coefficients, largest first."""
    out = []
    for exp, coeff in a.terms:
        out.extend([exp] * coeff)
    return out


def _from_repeated(exps: list) -> Ordinal:
    terms = []
    for e in exps:
        if terms and terms[-1][0] == e:
            terms[-1] = (e, terms[-1][1] + 1)
        else:
            terms.append((e, 1))
    return Ordinal(tuple(terms))


def oracle_ord_cmp(a: Ordinal, b: Ordinal) -> Cmp:
    if a.eps or b.eps:
        return compare(a, b)
    xs, ys = _to_repeated(a), _to_repeated(b)
    for x, y in zip(xs, ys):
        c = oracle_ord_cmp(x, y)
        if c is not Cmp.EQUAL:
            return c
    if len(xs) != len(ys):
        return Cmp.GREATER if len(xs) > len(ys) else Cmp.LESS
    return Cmp.EQUAL


def oracle_ord_add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Sum by concatenation, then drop terms a later greater term absorbs."""
    merged = _to_repeated(a) + _to_repeated(b)
    kept = []
    ceiling = None
    for e in reversed(merged):
        if ceiling is None or oracle_ord_cmp(e, ceiling) is not Cmp.LESS:
            kept.append(e)
            ceiling = e
    kept.reverse()
    return _from_repeated(kept)


def oracle_ord_mul(a: Ordinal, b: Ordinal) -> Ordinal:
    """Product as iterated sum over b's unit terms."""
    if a.is_zero() or b.is_zero():
        return ZERO
    acc = ZERO
    lead = a.terms[0][0]
    for e in _to_repeated(b):
        if e.is_zero():
            acc = oracle_ord_add(acc, a)
        else:
            acc = oracle_ord_add(acc, omega_pow(oracle_ord_add(lead, e)))
    return acc


# ---------------------------------------------------------------------------
# labeled rooted tree frames


@dataclass(frozen=True)
class TreeFrame:
    """A labeled rooted tree on worlds w0..w_{size-1}, root w0.

    `parents[i]` is the parent of node i+1. prec is strict ancestorship.
    """

    size: int
    parents: tuple

    def world_names(self) -> tuple:
        return tuple(f"w{i}" for i in range(self.size))

    def ancestor_pairs(self) -> tuple:
        """All (ancestor, descendant) index pairs, lexicographically sorted."""
        pairs = []
        for child in range(1, self.size):
            a = self.parents[child - 1]
            while True:
                pairs.append((a, child))
                if a == 0:
                    break
                a = self.parents[a - 1]
        return tuple(sorted(pairs))


def enumerate_tree_frames(size: int):
    """Every labeled rooted tree of the given size exactly once.

    Order is parent-vector lexicographic. The size is checked here, before
    the first frame is asked for.
    """
    if size < 1:
        raise ValueError("size must be positive")
    if size > 8:
        raise ValueError("frame enumeration is only supported up to size 8")
    return _frames(size)


def _frames(size: int):
    for parents in product(range(size), repeat=size - 1):
        if all(_reaches_root(parents, child) for child in range(1, size)):
            yield TreeFrame(size, parents)


def _reaches_root(parents, child) -> bool:
    """Following parents up from child ends at node 0, not in a cycle."""
    seen = set()
    while child != 0:
        if child in seen:
            return False
        seen.add(child)
        child = parents[child - 1]
    return True


def enumerate_a_sound_extensions(frame: TreeFrame, a, var_limit: int):
    """All (precR, valuation) extensions of the frame that validate against a.

    precR runs over ascending bitmasks of the sorted ancestor pairs, the
    valuation over ascending bitmasks of (variable, world) in sorted order,
    and only models passing the full model check (tree conditions plus the
    reflexive-witness condition for a) are yielded.
    """
    from .modal.formula import variables_of
    from .modal.kripke import KripkeModel, Ok, validate_model

    names = frame.world_names()
    prec = tuple((names[x], names[y]) for x, y in frame.ancestor_pairs())
    vars_sorted = sorted(variables_of(a))[:var_limit]
    for rmask in range(1 << len(prec)):
        precR = tuple(p for i, p in enumerate(prec) if rmask >> i & 1)
        if not _closed_under_mixing(frame, precR, names):
            continue
        for vmask in range(1 << len(vars_sorted) * frame.size):
            val = {var: [w for j, w in enumerate(names) if vmask >> (i * frame.size + j) & 1]
                   for i, var in enumerate(vars_sorted)}
            model = KripkeModel(worlds=names, root=names[0], prec=prec, precR=precR, val=val)
            if isinstance(validate_model(model, a), Ok):
                yield model


def _closed_under_mixing(frame: TreeFrame, precR, names) -> bool:
    """Check prec;precR and precR;prec land inside precR (cheap pre-filter)."""
    prec = {(names[x], names[y]) for x, y in frame.ancestor_pairs()}
    rset = set(precR)
    for (a, b) in prec:
        for (c, d) in rset:
            if c == b and (a, d) not in rset:
                return False
            if d == a and (c, b) not in rset:
                return False
    return True
