"""descent: the ordinal kernel and the iteration calculus, no big integers.

Per round:
- 1,200 walks by `stepdown_path` to 0 from seeded CNF ordinals below w^w,
  each rendered element by element as `slowprov ord stepdown` prints it;
- five fixed tower walks (w^w at 3 up to w^(w^2) at 2, about 33,000 steps);
- twelve exponent-transport pairs: the walk of a and the walk of w^a at n;
- compare, add and mul on 100 seeded pairs, 100 parse round trips;
- `itercalc.normalize` on 100 seeded expressions and on 20 powers R^n p,
  and `entails(x, x)` on the 100 expressions.
"""

from __future__ import annotations

import functools
import random

import ordref
from harness import Op
from slowprov import itercalc, oracles
from slowprov.itercalc import ExponentOverflow, entails, normalize, parse_iter, render_iter
from slowprov.itercalc import ParseError as IterParseError
from slowprov.ordinal import (
    ZERO,
    add,
    compare,
    mul,
    omega_pow,
    parse_ordinal,
    render_ordinal,
    stepdown_path,
)

WALKS = 1200
STEP_BAND = (40, 160)
TOWERS = (("w^w", 3), ("w^(w+1)", 3), ("w^(w*2)", 2), ("w^(w^w)", 1), ("w^(w^2)", 2))
LIFT_BASES = ("2", "3", "w", "w+1", "w+2", "w*2")
PAIRS = 100
ROUNDTRIPS = 100
ITER_EXPRS = 100
ROOT_POWERS = 20
STEP_CAP = 100_000

_ITER_EXPS = ("", "^2", "^3", "^5", "^w", "^w+1", "^w*2+3", "^w*4", "^w^2", "^w^2+w*2+1", "^e0")
_ITER_FINITE = ("", "^2", "^3", "^5", "^9")


def _random_below_w_w(rng: random.Random, n: int) -> dict:
    """Coefficients {k: c} of a seeded ordinal whose descent at n fits STEP_BAND."""
    top = 8 if n == 0 else 6
    while True:
        degrees = rng.sample(range(top + 1), rng.randint(1, 3))
        coeffs = {k: rng.randint(1, 9 if n == 0 else 3) for k in degrees}
        if STEP_BAND[0] <= ordref.steps_to_zero(coeffs, n) <= STEP_BAND[1]:
            return coeffs


def _random_ordinal(rng: random.Random, depth: int, top: int):
    """A seeded ordinal of nesting depth <= depth, coefficients below top."""
    if depth == 0 or rng.random() < 0.35:
        k = rng.randrange(top)
        return ((ordref.ZERO, k),) if k else ordref.ZERO
    exps = []
    for _ in range(rng.randint(1, 3)):
        e = _random_ordinal(rng, depth - 1, top)
        if e not in exps:
            exps.append(e)
    exps.sort(key=functools.cmp_to_key(ordref.cmp), reverse=True)
    return tuple((e, rng.randint(1, top - 1)) for e in exps)


def _random_iter_text(rng: random.Random) -> str:
    while True:
        parts = []
        for _ in range(rng.randrange(6)):
            op = rng.choice(itercalc.OPS)
            parts.append(op + rng.choice(_ITER_FINITE if op == "R" else _ITER_EXPS))
        parts.append(rng.choice("pqr"))
        text = " ".join(parts)
        try:
            normalize(parse_iter(text))
        except (IterParseError, ExponentOverflow):
            continue
        return text


def generate(seed: int) -> dict:
    rng = random.Random(seed)
    walks = []
    for _ in range(WALKS):
        n = rng.randrange(4)
        walks.append((_random_below_w_w(rng, n), n))
    return {
        "walks": walks,
        "pairs": [(ordref.render(_random_ordinal(rng, 2, 5)), ordref.render(_random_ordinal(rng, 2, 5)))
                  for _ in range(PAIRS)],
        "roundtrips": [ordref.render(_random_ordinal(rng, 3, 40)) for _ in range(ROUNDTRIPS)],
        "iter": [_random_iter_text(rng) for _ in range(ITER_EXPRS)],
        "roots": [rng.randint(1, 60) for _ in range(ROOT_POWERS)],
    }


def _walk(a, n):
    w = stepdown_path(a, n, ZERO, STEP_CAP)
    path = getattr(w, "path", None) or getattr(w, "partial_path", ())
    return type(w).__name__, w.steps, [render_ordinal(x).replace(" ", "") for x in path]


def build_ops(inputs: dict) -> list:
    ops = []
    for coeffs, n in inputs["walks"]:
        a = parse_ordinal(ordref.render(ordref.from_coeffs(coeffs)))
        ops.append(Op("walk", (coeffs, n), lambda a=a, n=n: _walk(a, n)))
    for text, n in TOWERS:
        a = parse_ordinal(text)
        ops.append(Op("tower", (text, n), lambda a=a, n=n: _walk(a, n)))
    for n in (1, 2):
        for text in LIFT_BASES:
            a = parse_ordinal(text)
            lifted = omega_pow(a)
            ops.append(Op("lift_base", (text, n), lambda a=a, n=n: _walk(a, n)))
            ops.append(Op("lift_top", (text, n), lambda a=lifted, n=n: _walk(a, n)))
    for ta, tb in inputs["pairs"]:
        a, b = parse_ordinal(ta), parse_ordinal(tb)
        ops.append(Op("cmp", (a, b), lambda a=a, b=b: compare(a, b), lambda c: c.value))
        ops.append(Op("add", (a, b), lambda a=a, b=b: add(a, b), render_ordinal))
        ops.append(Op("mul", (a, b), lambda a=a, b=b: mul(a, b), render_ordinal))
    for text in inputs["roundtrips"]:
        ops.append(Op("roundtrip", (text, parse_ordinal(text)),
                      lambda t=text: parse_ordinal(t)))
    exprs = [parse_iter(t) for t in inputs["iter"]]
    for e in exprs:
        ops.append(Op("normalize", (render_iter(e),), lambda e=e: normalize(e), render_iter))
    for k in inputs["roots"]:
        e = parse_iter(f"R^{k} p")
        ops.append(Op("root", (k,), lambda e=e: normalize(e), render_iter))
    for e in exprs:
        ops.append(Op("entails", (render_iter(e),), lambda e=e: entails(e, e), lambda r: r.value))
    return ops


# --- checks: each returns a list of complaints, empty when the outputs hold ---

_WALK_KINDS = ("walk", "tower", "lift_base", "lift_top")


def check_walks_descend(ops, outs):
    bad = []
    parsed = {}
    for op, (verdict, steps, texts) in _pairs(ops, outs, _WALK_KINDS):
        if verdict != "Reached" or texts[-1] != "0" or len(texts) != steps + 1:
            bad.append(f"{op.kind} {op.args}: {verdict} after {steps} steps at {texts[-1]}")
            continue
        for t in texts:
            if t not in parsed:
                parsed[t] = ordref.parse(t)
        chain = [parsed[t] for t in texts]
        if any(ordref.cmp(x, y) <= 0 for x, y in zip(chain, chain[1:])):
            bad.append(f"{op.kind} {op.args}: not strictly decreasing")
    return bad


def check_walk_lengths(ops, outs):
    bad = []
    for op, (_, steps, _) in _pairs(ops, outs, ("walk",)):
        coeffs, n = op.args
        want = ordref.steps_to_zero(coeffs, n)
        if steps != want:
            bad.append(f"walk {coeffs} at {n}: {steps} steps, want {want}")
    return bad


def check_exponent_transport(ops, outs):
    base = {op.args: o[2] for op, o in _pairs(ops, outs, ("lift_base",))}
    bad = []
    for op, (_, _, texts) in _pairs(ops, outs, ("lift_top",)):
        on_path = set(texts)
        for b in base.get(op.args, ()):
            want = ordref.render(ordref.omega_pow(ordref.parse(b)), "+")
            if want not in on_path:
                bad.append(f"w^({op.args[0]}) at {op.args[1]} misses {want}")
    return bad


def check_arithmetic(ops, outs):
    bad = []
    for op, out in _pairs(ops, outs, ("cmp", "add", "mul")):
        a, b = op.args
        if op.kind == "cmp":
            want = oracles.oracle_ord_cmp(a, b).value
        else:
            ref = oracles.oracle_ord_add if op.kind == "add" else oracles.oracle_ord_mul
            want = render_ordinal(ref(a, b))
        if out != want:
            bad.append(f"{op.kind} {render_ordinal(a)} , {render_ordinal(b)}: {out}, oracle {want}")
    return bad


def check_roundtrips(ops, outs):
    bad = []
    for op, out in _pairs(ops, outs, ("roundtrip",)):
        text, original = op.args
        if out != original or ordref.render(ordref.parse(text)) != text:
            bad.append(f"parse({text!r}) gave {render_ordinal(out)}")
    return bad


def check_normal_forms(ops, outs):
    bad = []
    for op, out in _pairs(ops, outs, ("normalize",)):
        again = render_iter(normalize(parse_iter(out)))
        if again != out:
            bad.append(f"normalize({op.args[0]!r}) = {out!r} is not a fixpoint: {again!r}")
    for op, out in _pairs(ops, outs, ("root",)):
        k = op.args[0]
        want = ([f"B^{k // 2}" if k // 2 > 1 else "B"] if k >= 2 else []) + (["R"] if k % 2 else [])
        if out != " ".join(want + ["p"]):
            bad.append(f"normalize(R^{k} p) = {out!r}")
    for op, out in _pairs(ops, outs, ("entails",)):
        if out != "YES":
            bad.append(f"entails({op.args[0]!r}, itself) = {out}")
    return bad


CHECKS = (
    ("walks_descend", check_walks_descend),
    ("walk_lengths", check_walk_lengths),
    ("exponent_transport", check_exponent_transport),
    ("arithmetic", check_arithmetic),
    ("roundtrips", check_roundtrips),
    ("normal_forms", check_normal_forms),
)


def _pairs(ops, outs, kinds):
    return [(op, out) for op, out in zip(ops, outs) if op.kind in kinds]


# --- one corrupted output per check, for the self-test ---

def _first(ops, kind):
    return next(i for i, op in enumerate(ops) if op.kind == kind)


def _corrupt_descend(ops, outs):
    i = _first(ops, "tower")
    verdict, steps, texts = outs[i]
    outs[i] = (verdict, steps, [texts[0], texts[2], texts[1]] + texts[3:])


def _corrupt_length(ops, outs):
    i = _first(ops, "walk")
    verdict, steps, texts = outs[i]
    outs[i] = (verdict, steps - 1, texts[:-2] + ["0"])


def _corrupt_transport(ops, outs):
    i = _first(ops, "lift_top")
    verdict, steps, texts = outs[i]
    outs[i] = (verdict, steps, [t for t in texts if t != "w"])


def _corrupt_arithmetic(ops, outs):
    i = _first(ops, "cmp")
    outs[i] = {"LT": "GT", "GT": "LT", "EQ": "LT"}[outs[i]]


def _corrupt_roundtrip(ops, outs):
    i = _first(ops, "roundtrip")
    outs[i] = add(outs[i], parse_ordinal("1"))


def _corrupt_normal_form(ops, outs):
    i = _first(ops, "root")
    outs[i] = "R R " + outs[i]


CORRUPTIONS = {
    "walks_descend": _corrupt_descend,
    "walk_lengths": _corrupt_length,
    "exponent_transport": _corrupt_transport,
    "arithmetic": _corrupt_arithmetic,
    "roundtrips": _corrupt_roundtrip,
    "normal_forms": _corrupt_normal_form,
}
