"""hierarchy: the FGH machine, big integers, and the slow functions l and r.

Per round:
- `eval_F` at every element of a descent below w^w, one operation per
  descent: 40 seeded descents at n = 0 and the ten starts at n = 1..3 whose
  value fits the default budget, up to F_3(2) = F_w(2) at 402,653,213 bits;
- `compare_F_to` on a grid of eight indices, n = 1..3 and four seeded
  thresholds of up to 64 bits each;
- `eval_F(4, 3)`, which must stop on the default budget;
- one fresh `SlowFunctions` session filled with l(n) for n = 1..258, one
  operation per n, then r(1) and r(2);
- `eval_F(e0, 3)` under a 10^4-step budget, which stops on that budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import ordref
from harness import Op
from slowprov import oracles
from slowprov.fgh import (
    DEFAULT_BUDGET,
    GT,
    LE,
    EvalBudget,
    SlowFunctions,
    Value,
    compare_F_to,
    eval_F,
)
from slowprov.ordinal import EPSILON0, ZERO, parse_ordinal, render_ordinal, stepdown_path

ZERO_WALKS = 40
ZERO_WALK_BAND = (15, 40)
# every start below w^w whose F value at n >= 1 fits the default budget
FIXED_WALKS = (("1", 1), ("2", 1), ("3", 1), ("w", 1), ("1", 2), ("2", 2), ("3", 2), ("w", 2),
               ("1", 3), ("2", 3))
GRID_INDICES = ("0", "1", "2", "3", "w", "w+1", "w*2", "w^2")
GRID_THRESHOLDS = 4
L_TOP = 258
E0_BUDGET = EvalBudget(max_bit_length=DEFAULT_BUDGET.max_bit_length, max_steps=10_000)
F3_2_BITS = 402_653_213
ORACLE_GRID_CAP = 4096
# Digests keep an integer exactly up to this width; wider values keep their
# bit length, top 64 bits and residue modulo a Mersenne prime.
EXACT_BITS = 256
PRIME = (1 << 61) - 1


@dataclass(frozen=True)
class BigInt:
    bits: int
    top: int
    residue: int


def digest_int(v: int):
    if v.bit_length() <= EXACT_BITS:
        return v
    b = v.bit_length()
    return BigInt(b, v >> (b - 64), v % PRIME)


def int_key(d):
    """Order key for a digested nonnegative integer (exact below EXACT_BITS)."""
    if isinstance(d, BigInt):
        return (d.bits, d.top)
    return (d.bit_length(), d >> max(0, d.bit_length() - 64))


def generate(seed: int) -> dict:
    rng = random.Random(seed)
    zero_walks = []
    while len(zero_walks) < ZERO_WALKS:
        degrees = rng.sample(range(9), rng.randint(1, 3))
        coeffs = {k: rng.randint(1, 9) for k in degrees}
        if ZERO_WALK_BAND[0] <= ordref.steps_to_zero(coeffs, 0) <= ZERO_WALK_BAND[1]:
            zero_walks.append(ordref.render(ordref.from_coeffs(coeffs)))
    grid = []
    for text in GRID_INDICES:
        for n in (1, 2, 3):
            for _ in range(GRID_THRESHOLDS):
                bits = rng.randint(1, 64)
                grid.append((text, n, rng.getrandbits(bits) | 1 << (bits - 1)))
    return {"walks": [(t, 0) for t in zero_walks] + list(FIXED_WALKS), "grid": grid}


def _digest_result(res):
    if isinstance(res, Value):
        return ("VALUE", digest_int(res.v))
    if isinstance(res, LE):
        return ("LE", digest_int(res.v))
    if isinstance(res, GT):
        return ("GT",)
    return ("BUDGET", res.steps_used, res.largest_intermediate_bit_length)


def _values_along(a, n):
    path = stepdown_path(a, n, ZERO, 10_000).path
    return path, [eval_F(b, n) for b in path]


def _digest_walk(raw):
    path, results = raw
    return [render_ordinal(b) for b in path], [_digest_result(r) for r in results]


class _Session:
    """Holds the SlowFunctions session of the current round."""

    def __init__(self):
        self.s = None

    def first(self):
        self.s = SlowFunctions()
        return self.s.l(1)


def build_ops(inputs: dict) -> list:
    ops = []
    for text, n in inputs["walks"]:
        a = parse_ordinal(text)
        ops.append(Op("fwalk", (text, n), lambda a=a, n=n: _values_along(a, n), _digest_walk))
    for text, n, thr in inputs["grid"]:
        a = parse_ordinal(text)
        ops.append(Op("cmpto", (text, n, thr), lambda a=a, n=n, t=thr: compare_F_to(a, n, t),
                      _digest_result))
    four = parse_ordinal("4")
    ops.append(Op("budget", ("4", 3, DEFAULT_BUDGET.max_steps),
                  lambda: eval_F(four, 3), _digest_result))
    box = _Session()
    ops.append(Op("l", (1,), box.first))
    for n in range(2, L_TOP + 1):
        ops.append(Op("l", (n,), lambda n=n: box.s.l(n)))
    for n in (1, 2):
        ops.append(Op("r", (n,), lambda n=n: box.s.r(n), _digest_result))
    ops.append(Op("budget", ("e0", 3, E0_BUDGET.max_steps),
                  lambda: eval_F(EPSILON0, 3, E0_BUDGET), _digest_result))
    return ops


# --- checks ------------------------------------------------------------------

def _closed_form(k: int, x: int):
    """F_0, F_1, F_2 at x in closed form, or None above index 2."""
    if k == 0:
        return x + 1
    if k == 1:
        return 2 * x + 1
    if k == 2:
        return ((x + 1) << (x + 1)) - 1
    return None


def check_values_agree(ops, outs):
    bad = []
    oracle = {}
    for op, (texts, results) in _pairs(ops, outs, ("fwalk",)):
        n = op.args[1]
        for text, res in zip(texts, results):
            if res[0] != "VALUE":
                bad.append(f"F_{text}({n}) = {res}, want a value")
                continue
            ref = ordref.parse(text)
            if len(ref) <= 1 and (not ref or not ref[0][0]):
                k = ref[0][1] if ref else 0
                want = _closed_form(k, n)
                if want is not None and res[1] != digest_int(want):
                    bad.append(f"F_{k}({n}) = {res[1]}, closed form {want}")
            key = (text, n)
            if key not in oracle:
                oracle[key] = digest_int(oracles.oracle_F(parse_ordinal(text), n))
            if res[1] != oracle[key]:
                bad.append(f"F_{text}({n}) = {res[1]}, oracle {oracle[key]}")
    return bad


def check_f3_2_width(ops, outs):
    bad = []
    for op, (texts, results) in _pairs(ops, outs, ("fwalk",)):
        if op.args in (("3", 2), ("w", 2)):
            got = results[0][1]
            if not isinstance(got, BigInt) or got.bits != F3_2_BITS:
                bad.append(f"F_{op.args[0]}(2) has {getattr(got, 'bits', got)} bits")
    return bad


def check_values_decrease(ops, outs):
    bad = []
    for op, (texts, results) in _pairs(ops, outs, ("fwalk",)):
        keys = [int_key(r[1]) for r in results if r[0] == "VALUE"]
        if any(x < y for x, y in zip(keys, keys[1:])):
            bad.append(f"values along the descent of {op.args} increase")
    return bad


def check_thresholds(ops, outs):
    bad = []
    for op, res in _pairs(ops, outs, ("cmpto",)):
        text, n, thr = op.args
        try:
            true = oracles.oracle_F(parse_ordinal(text), n, bit_cap=ORACLE_GRID_CAP)
        except oracles.HardCapExceeded:
            true = None   # wider than the cap, so far above any 64-bit threshold
        if res[0] == "LE":
            if true is None or res[1] != true or res[1] > thr:
                bad.append(f"F_{text}({n}) vs {thr}: LE {res[1]}, value {true}")
        elif res[0] == "GT":
            if true is not None and true <= thr:
                bad.append(f"F_{text}({n}) vs {thr}: GT, value {true}")
        else:
            bad.append(f"F_{text}({n}) vs {thr}: {res} on the default budget")
    return bad


def check_slow_functions(ops, outs):
    bad = []
    for op, out in _pairs(ops, outs, ("l",)):
        n = op.args[0]
        want = 0 if n <= 2 else 1 if n <= 4 else 2
        if out != want:
            bad.append(f"l({n}) = {out}, want {want}")
    for op, out in _pairs(ops, outs, ("r",)):
        want = {1: 3, 2: 5}[op.args[0]]
        if out != ("VALUE", want):
            bad.append(f"r({op.args[0]}) = {out}, want {want}")
    return bad


def check_budget_stops(ops, outs):
    bad = []
    for op, out in _pairs(ops, outs, ("budget",)):
        cap = op.args[2]
        if out[0] != "BUDGET" or out[1] > cap:
            bad.append(f"F_{op.args[0]}({op.args[1]}) under {cap} steps: {out}")
    return bad


CHECKS = (
    ("values_agree", check_values_agree),
    ("f3_2_width", check_f3_2_width),
    ("values_decrease", check_values_decrease),
    ("thresholds", check_thresholds),
    ("slow_functions", check_slow_functions),
    ("budget_stops", check_budget_stops),
)


def _pairs(ops, outs, kinds):
    return [(op, out) for op, out in zip(ops, outs) if op.kind in kinds]


# --- one corrupted output per check, for the self-test ---

def _index(ops, kind, args=None):
    return next(i for i, op in enumerate(ops)
                if op.kind == kind and (args is None or op.args == args))


def _corrupt_value(ops, outs):
    i = _index(ops, "fwalk", ("2", 3))
    texts, results = outs[i]
    outs[i] = (texts, [("VALUE", 64)] + results[1:])


def _corrupt_width(ops, outs):
    i = _index(ops, "fwalk", ("3", 2))
    texts, results = outs[i]
    b = results[0][1]
    outs[i] = (texts, [("VALUE", BigInt(b.bits - 1, b.top, b.residue))] + results[1:])


def _corrupt_decrease(ops, outs):
    i = _index(ops, "fwalk", ("w", 1))
    texts, results = outs[i]
    outs[i] = (texts, results[-1:] + results[1:-1] + results[:1])


def _corrupt_threshold(ops, outs):
    i = next(i for i, (op, o) in enumerate(zip(ops, outs)) if op.kind == "cmpto" and o[0] == "GT")
    outs[i] = ("LE", ops[i].args[2])


def _corrupt_l(ops, outs):
    i = _index(ops, "l", (100,))
    outs[i] += 1


def _corrupt_budget(ops, outs):
    i = _index(ops, "budget")
    outs[i] = ("BUDGET", ops[i].args[2] + 1, outs[i][2])


CORRUPTIONS = {
    "values_agree": _corrupt_value,
    "f3_2_width": _corrupt_width,
    "values_decrease": _corrupt_decrease,
    "thresholds": _corrupt_threshold,
    "slow_functions": _corrupt_l,
    "budget_stops": _corrupt_budget,
}
