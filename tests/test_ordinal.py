"""Ordinal arithmetic, text form, fundamental sequences, stepdown walks."""

import copy
import gc
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from slowprov.ordinal import (
    EPSILON0,
    OMEGA,
    ONE,
    ZERO,
    ArithmeticWithEpsilonZero,
    Cmp,
    NotALimit,
    NotOnPath,
    OrdKind,
    Ordinal,
    OrdinalError,
    ParseError,
    Reached,
    StepBudgetExceeded,
    ZeroInput,
    add,
    classify,
    compare,
    from_int,
    fund_seq,
    mul,
    omega_pow,
    omega_tower,
    parse_ordinal,
    render_ordinal,
    stepdown_one,
    stepdown_path,
)
from slowprov import ordinal as ordinal_module
from slowprov.oracles import oracle_ord_add, oracle_ord_cmp, oracle_ord_mul

p = parse_ordinal
r = render_ordinal


# fixed sample below w^w*3, used by the order/associativity sweeps
SAMPLE = [p(s) for s in [
    "0", "1", "2", "3", "7", "19",
    "w", "w+1", "w+5", "w*2", "w*2+3", "w*3+1", "w*7",
    "w^2", "w^2+w", "w^2+1", "w^2*3+w*2+1", "w^2*5", "w^2+w*4+9",
    "w^3", "w^3+w^2*2+4", "w^3*9+w", "w^4+w^2",
    "w^5+w^4+w^3+w^2+w+1",
    "w^4", "w^4+1", "w^4+w^3*3", "w^6", "w^6*2+w*8", "w^w+w^2+w",
    "w^w", "w^w+1", "w^w+w^3*2", "w^w*2", "w^w*2+w^5*3+2",
]] + [
    add(add(mul(p("w^2"), from_int(a)) if a else ZERO,
            mul(OMEGA, from_int(b)) if b else ZERO), from_int(c))
    for a, b, c in itertools.product(range(3), repeat=3)
]


def test_sample_is_big_enough_and_bounded():
    assert len(set(SAMPLE)) >= 50
    cap = p("w^w*3")
    for a in SAMPLE:
        assert compare(a, cap) is Cmp.LESS


# --- construction and canonicity -------------------------------------------

def test_canonicity_enforced():
    with pytest.raises(OrdinalError):
        Ordinal(((ZERO, 0),))          # zero coefficient
    with pytest.raises(OrdinalError):
        Ordinal(((ZERO, 1), (ONE, 1)))  # increasing exponents
    with pytest.raises(OrdinalError):
        Ordinal(((EPSILON0, 1),))       # eps as exponent


def test_immutability_and_hash():
    a = p("w^2+3")
    with pytest.raises(AttributeError):
        a.terms = ()
    assert hash(a) == hash(p("w^2 + 3"))
    assert a == p("w^2+3")
    assert a != p("w^2+4")


def test_constants():
    assert ZERO.is_zero()
    assert from_int(1) == ONE
    assert omega_pow(ONE) == OMEGA
    assert EPSILON0.eps


# --- parse / render ---------------------------------------------------------

def test_parse_worked_examples():
    assert p("0") == ZERO
    assert p("w^w + w*2 + 3").terms == ((OMEGA, 1), (ONE, 2), (ZERO, 3))
    assert p("w + w") == mul(OMEGA, from_int(2))  # normalized on input


@pytest.mark.parametrize("text", [
    "0", "5", "w", "w*3", "w^2", "w^w", "w^w*2 + w*4 + 1",
    "w^(w + 1)*4 + w^3 + 7", "w^(w^w)", "e0",
])
def test_render_parse_roundtrip(text):
    assert r(p(text)) == text


def test_noncanonical_input_is_normalized_not_rejected():
    assert r(p("1 + w")) == "w"
    assert r(p("w + w + w")) == "w*3"
    assert r(p("w^2 + w + w^2")) == "w^2*2"


@pytest.mark.parametrize("bad", [
    "", "w^", "3+", "+w", "w*0", "01", "w*01", "(w", "w w", "w^()",
    "e0+1", "e1", "w^e0", "w^(e0)", "-1", "w^w^w",
])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        p(bad)


def test_parse_error_carries_position():
    try:
        p("w^2 + !")
    except ParseError as e:
        assert e.pos == 6
    else:
        pytest.fail("expected ParseError")


# --- compare ----------------------------------------------------------------

def test_compare_worked_examples():
    assert compare(OMEGA, OMEGA) is Cmp.EQUAL
    assert compare(p("w+1"), OMEGA) is Cmp.GREATER
    assert compare(p("w^w"), p("w*9+7")) is Cmp.GREATER


def test_epsilon0_strictly_greatest():
    for a in SAMPLE:
        assert compare(a, EPSILON0) is Cmp.LESS
    assert compare(EPSILON0, EPSILON0) is Cmp.EQUAL


def test_total_order_on_sample():
    for a, b in itertools.product(SAMPLE, repeat=2):
        c, cr = compare(a, b), compare(b, a)
        if c is Cmp.EQUAL:
            assert cr is Cmp.EQUAL and a == b
        elif c is Cmp.LESS:
            assert cr is Cmp.GREATER
        else:
            assert cr is Cmp.LESS


def test_transitivity_on_sample():
    # <= as a number makes the scan cheap
    rank = {o: i for i, o in enumerate(sorted(set(SAMPLE)))}
    for a, b in itertools.product(SAMPLE, repeat=2):
        assert (compare(a, b) is not Cmp.GREATER) == (rank[a] <= rank[b])


def test_rich_comparisons():
    assert p("w") < p("w+1") <= p("w+1") < p("w*2")
    assert p("w^3") > p("w^2*9+w*5")
    assert not (ZERO > ZERO)


# --- add / mul / omega_pow --------------------------------------------------

def test_add_worked_examples():
    assert add(OMEGA, ONE) == p("w+1")
    assert add(ONE, OMEGA) == OMEGA
    assert add(p("w^2+w"), p("w^2")) == p("w^2*2")


def test_mul_worked_examples():
    assert mul(OMEGA, ZERO) == ZERO
    assert mul(p("w+1"), from_int(2)) == p("w*2+1")
    assert mul(p("w^2"), OMEGA) == p("w^3")


def test_omega_pow_and_tower():
    assert omega_pow(ZERO) == ONE
    assert omega_pow(ONE) == OMEGA
    assert omega_pow(OMEGA) == p("w^w")
    assert omega_tower(from_int(2), 0) == from_int(2)
    assert omega_tower(ONE, 2) == p("w^w")
    assert omega_tower(ONE, 3) == p("w^(w^w)")


def test_epsilon0_rejected_by_arithmetic():
    for f in (lambda: add(EPSILON0, ONE), lambda: add(ONE, EPSILON0),
              lambda: mul(EPSILON0, OMEGA), lambda: omega_pow(EPSILON0)):
        with pytest.raises(ArithmeticWithEpsilonZero):
            f()


def test_add_associative_on_sample():
    for a, b, c in itertools.product(SAMPLE, repeat=3):
        assert add(add(a, b), c) == add(a, add(b, c))


def test_add_mul_monotone_on_sample():
    small = SAMPLE[:20]
    for a, b in itertools.product(small, repeat=2):
        if compare(a, b) is Cmp.LESS:
            for c in small[:8]:
                assert compare(add(c, a), add(c, b)) is Cmp.LESS
                assert compare(add(a, c), add(b, c)) is not Cmp.GREATER
                if not c.is_zero():
                    assert compare(mul(c, a), mul(c, b)) is Cmp.LESS
                    assert compare(mul(a, c), mul(b, c)) is not Cmp.GREATER
            assert compare(omega_pow(a), omega_pow(b)) is Cmp.LESS


def test_omega_pow_multiplies_by_adding_exponents():
    exps = [ZERO, ONE, from_int(3), OMEGA, p("w+1"), p("w*2"), p("w^2+w"), p("w^w")]
    for a, b in itertools.product(exps, repeat=2):
        assert mul(omega_pow(a), omega_pow(b)) == omega_pow(add(a, b))


def test_left_distributivity():
    for a, b, c in itertools.product(SAMPLE[:14], repeat=3):
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


# --- agreement with the repeated-term oracles -------------------------------

def test_ops_agree_with_oracles_on_sample():
    small = SAMPLE[:24]
    for a, b in itertools.product(small, repeat=2):
        assert oracle_ord_cmp(a, b) is compare(a, b)
        assert oracle_ord_add(a, b) == add(a, b)
    for a, b in itertools.product(SAMPLE[:12], repeat=2):
        assert oracle_ord_mul(a, b) == mul(a, b)


# --- hypothesis strategies --------------------------------------------------

def _fold_terms(pairs):
    acc = ZERO
    for e, c in pairs:
        acc = add(acc, mul(omega_pow(e), from_int(c)))
    return acc


def ordinals(depth=2):
    base = st.integers(0, 6).map(from_int)
    if depth == 0:
        return base
    sub = ordinals(depth - 1)
    built = st.lists(st.tuples(sub, st.integers(1, 4)), min_size=1, max_size=3).map(_fold_terms)
    return st.one_of(base, built)


@given(ordinals())
def test_roundtrip_any(a):
    assert p(r(a)) == a


@given(ordinals(), ordinals(), ordinals())
@settings(max_examples=60)
def test_add_associative_any(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))


@given(ordinals(), ordinals())
@settings(max_examples=60)
def test_add_upper_bounds_operands(a, b):
    s = add(a, b)
    assert compare(s, a) is not Cmp.LESS
    assert compare(s, b) is not Cmp.LESS


@given(ordinals(1), ordinals(1))
@settings(max_examples=60)
def test_oracle_agreement_any(a, b):
    assert oracle_ord_cmp(a, b) is compare(a, b)
    assert oracle_ord_add(a, b) == add(a, b)
    assert oracle_ord_mul(a, b) == mul(a, b)


# --- classify / fund_seq ----------------------------------------------------

def test_classify():
    assert classify(ZERO) == (OrdKind.ZERO, None)
    assert classify(p("w+3")) == (OrdKind.SUCCESSOR, p("w+2"))
    assert classify(p("w^w")) == (OrdKind.LIMIT, None)
    assert classify(EPSILON0) == (OrdKind.LIMIT, None)
    assert classify(from_int(1)) == (OrdKind.SUCCESSOR, ZERO)


def test_fund_seq_worked_examples():
    assert fund_seq(EPSILON0, 0) == OMEGA
    assert fund_seq(OMEGA, 3) == from_int(4)
    assert fund_seq(p("w^w"), 2) == p("w^3")


def test_fund_seq_more_cases():
    assert fund_seq(p("w*2"), 4) == p("w+5")
    assert fund_seq(p("w^2"), 1) == p("w*2")
    assert fund_seq(p("w^2+w"), 2) == p("w^2+3")
    assert fund_seq(p("w^(w^w)"), 1) == p("w^(w^2)")
    assert fund_seq(p("w^(w+1)"), 2) == p("w^w*3")
    assert fund_seq(EPSILON0, 2) == omega_tower(ONE, 3)


def test_fund_seq_rejects_non_limits():
    for a in (ZERO, ONE, p("w+3")):
        with pytest.raises(NotALimit):
            fund_seq(a, 1)


LIMITS = [p(s) for s in [
    "w", "w*2", "w^2", "w^2+w", "w^3*4", "w^w", "w^w*2+w^3",
    "w^(w+1)", "w^(w*2+1)*4+w^5", "w^(w^w)",
]] + [EPSILON0]


def test_fund_seq_strictly_monotone_below_limit():
    for lam in LIMITS:
        prev = None
        for n in range(21):
            x = fund_seq(lam, n)
            assert compare(x, lam) is Cmp.LESS
            if prev is not None:
                assert compare(prev, x) is Cmp.LESS
            prev = x


def _revalidated(a):
    """Ordinal(a.terms) at every level: a rebuilt by the checking constructor."""
    if a.eps:
        return Ordinal(eps=True)
    return Ordinal(tuple((_revalidated(e), c) for e, c in a.terms))


def test_internal_results_pass_validation():
    # classify, fund_seq, add and mul build their results unchecked
    results = []
    for a in SAMPLE:
        results.append(classify(a)[1])
    for lam in LIMITS:
        results.extend(fund_seq(lam, n) for n in range(6))
    for a, b in itertools.product(SAMPLE, repeat=2):
        results.append(add(a, b))
        results.append(mul(a, b))
    for x in results:
        if x is not None:
            assert _revalidated(x) == x


# --- stepdown ---------------------------------------------------------------

def test_stepdown_one():
    assert stepdown_one(OMEGA, 2) == from_int(3)
    assert stepdown_one(from_int(5), 9) == from_int(4)
    assert stepdown_one(p("w^w"), 1) == p("w^2")
    with pytest.raises(ZeroInput):
        stepdown_one(ZERO, 1)


def test_stepdown_path_worked_examples():
    got = stepdown_path(OMEGA, 2, ZERO, 100)
    assert got == Reached(4, tuple(p(s) for s in ["w", "3", "2", "1", "0"]))
    assert stepdown_path(p("w^2"), 1, p("w*2"), 10) == Reached(1, (p("w^2"), p("w*2")))
    got = stepdown_path(OMEGA, 2, from_int(5), 100)
    assert isinstance(got, NotOnPath)


def test_stepdown_path_checks_the_index_on_any_walk():
    # a walk through no limit never reads n, and once accepted n = -1
    for a in (from_int(3), OMEGA, EPSILON0):
        with pytest.raises(OrdinalError, match="sequence index must be a nonnegative integer"):
            stepdown_path(a, -1, ZERO, 10)
    assert stepdown_path(from_int(3), 0, ZERO, 10) == Reached(3, tuple(map(from_int, (3, 2, 1, 0))))


def test_stepdown_path_budget_and_trivial():
    assert stepdown_path(OMEGA, 2, OMEGA, 5) == Reached(0, (OMEGA,))
    got = stepdown_path(p("w^w"), 3, ZERO, 10)
    assert isinstance(got, StepBudgetExceeded)
    assert got.steps == 10
    assert len(got.partial_path) == 11


def test_stepdown_deterministic_and_decreasing():
    for a, n in [(p("w^2"), 2), (p("w*3"), 1), (p("w^w"), 1)]:
        one = stepdown_path(a, n, ZERO, 10_000)
        two = stepdown_path(a, n, ZERO, 10_000)
        assert one == two
        assert isinstance(one, Reached)
        for x, y in zip(one.path, one.path[1:]):
            assert compare(y, x) is Cmp.LESS
            assert stepdown_one(x, n) == y


def test_stepdown_exp_instance():
    # if w^a walks to 0 and a walks through b, then w^a walks through w^b
    for a_txt, b_txt, n in [("2", "1", 2), ("3", "1", 1), ("w", "2", 2)]:
        a, b = p(a_txt), p(b_txt)
        assert isinstance(stepdown_path(a, n, b, 10_000), Reached)
        assert isinstance(stepdown_path(omega_pow(a), n, ZERO, 100_000), Reached)
        assert isinstance(stepdown_path(omega_pow(a), n, omega_pow(b), 100_000), Reached)


# --- representation: interning, nesting depth, copies -----------------------

DEPTH = 5000


def _tower_text(height):
    """The text of omega_tower(ONE, height) for height >= 2."""
    return "w^(" * (height - 2) + "w^w" + ")" * (height - 2)


def test_equal_ordinals_are_one_object():
    assert p("w^2 + 3") is Ordinal(((from_int(2), 1), (ZERO, 3)))
    assert add(OMEGA, ONE) is p("w+1")
    assert Ordinal(eps=True) is EPSILON0
    assert p("w^w + w*2 + 3").terms == ((OMEGA, 1), (ONE, 2), (ZERO, 3))


def test_operations_at_depth_5000():
    a = omega_tower(ONE, DEPTH)
    b = omega_tower(ONE, DEPTH)
    assert a is b and a == b and hash(a) == hash(b)
    assert compare(a, omega_tower(ONE, DEPTH + 1)) is Cmp.LESS
    # the towers differ only at the bottom, DEPTH levels down
    assert compare(omega_tower(from_int(2), DEPTH), a) is Cmp.GREATER
    assert compare(add(a, ONE), a) is Cmp.GREATER
    assert a < EPSILON0
    assert fund_seq(EPSILON0, DEPTH - 1) is a
    assert classify(a) == (OrdKind.LIMIT, None)
    assert fund_seq(a, 2) is omega_tower(from_int(3), DEPTH - 1)
    walk = stepdown_path(EPSILON0, DEPTH, ZERO, 3)
    assert isinstance(walk, StepBudgetExceeded) and walk.partial_path[1] is omega_tower(ONE, DEPTH + 1)


def test_render_parse_roundtrip_at_depth_5000():
    a = omega_tower(ONE, DEPTH)
    text = _tower_text(DEPTH)
    assert r(a) == text
    assert p(text) is a
    # sums at every level, so each exponent in parentheses has several terms
    b = ONE
    for k in range(DEPTH):
        b = add(omega_pow(b), from_int(k % 3 + 1))
    assert p(r(b)) is b
    assert repr(b).startswith("Ordinal('w^(w^(")


def test_render_gives_up_on_each_deep_exponent_once(monkeypatch):
    # the search for a short text walks about _KEPT / 4 levels down before it
    # gives up; were each level searched again as the stack renders it, a
    # tower would cost about 33 searches per level
    calls = 0
    search = ordinal_module._short_text

    def counting(*args):
        nonlocal calls
        calls += 1
        return search(*args)

    monkeypatch.setattr(ordinal_module, "_short_text", counting)
    a = omega_tower(from_int(7), DEPTH)
    assert r(a) == "w^(" * (DEPTH - 1) + "w^7" + ")" * (DEPTH - 1)
    assert calls <= 2 * DEPTH


def test_render_shares_exponent_prefixes():
    # the exponents of a long descent share their prefixes; the text must be
    # the plain sum of each exponent's text all the same
    walk = stepdown_path(p("w^(w^w)"), 12, ZERO, 400)
    for x in walk.partial_path[::40]:
        assert r(x) == " + ".join(_render_term_plainly(e, c) for e, c in x.terms)
        assert p(r(x)) is x


def test_render_keeps_no_text_per_nesting_level():
    # e0 at 300 nests about 300 levels deep, each one exponent used once; a
    # text kept per level would hold the output about 300 times over
    last = stepdown_path(EPSILON0, 300, ZERO, 1000).partial_path[-1]
    text = r(last)
    assert len(text) > 10 ** 6
    kept = [ref() for ref in list(ordinal_module._table.values())]
    assert sum(len(x._text) for x in kept if x is not None and x._text) < len(text)


def _render_term_plainly(exp, coeff):
    if exp is ZERO:
        return str(coeff)
    if exp is ONE:
        head = "w"
    elif exp is OMEGA or (exp.length == 1 and exp.exp is ZERO):
        head = "w^" + r(exp)
    else:
        head = "w^(" + " + ".join(_render_term_plainly(e, c) for e, c in exp.terms) + ")"
    return head if coeff == 1 else f"{head}*{coeff}"


def _render_plainly(x):
    return " + ".join(_render_term_plainly(e, c) for e, c in x.terms) or "0"


# the five tower walks of the benchmark's descent workload, 33,000 elements
TOWERS = (("w^w", 3), ("w^(w+1)", 3), ("w^(w*2)", 2), ("w^(w^w)", 1), ("w^(w^2)", 2))


def _render_inputs():
    """Every element of the towers' walks, then 500 seeded ordinals of depth <= 4."""
    rng = random.Random(15)
    walks = [stepdown_path(p(text), n, ZERO, 10 ** 5).path for text, n in TOWERS]
    return [x for w in walks for x in w] + [_random_ordinal(rng, 4) for _ in range(500)]


def _random_ordinal(rng, depth):
    """A seeded ordinal of nesting depth at most depth."""
    if depth == 0 or rng.random() < 0.3:
        return from_int(rng.randrange(6))
    exps = {_random_ordinal(rng, depth - 1) for _ in range(rng.randint(1, 4))}
    return Ordinal((e, rng.randint(1, 5)) for e in sorted(exps, reverse=True))


def test_render_matches_the_plain_reference_in_any_order():
    # which nodes kept their texts depends on what was rendered before, so
    # render in a shuffled order, then again in another, and compare both
    rng = random.Random(15)
    xs = _render_inputs()
    rng.shuffle(xs)
    first = [r(x) for x in xs]
    # some texts are too long to keep, and go through the stack renderer
    assert sum(len(text) > ordinal_module._KEPT for text in first) > 100
    for x, text in zip(xs, first):
        assert text == _render_plainly(x)
        assert p(text) is x
    order = list(range(len(xs)))
    rng.shuffle(order)
    assert all(r(xs[i]) == first[i] for i in order)


def test_kept_texts_stay_short():
    # a node keeps a text of at most _KEPT characters, and the node handed to
    # render_ordinal keeps none, or a walk would keep the text of every element
    xs = _render_inputs() + [stepdown_path(EPSILON0, 300, ZERO, 1000).partial_path[-1]]
    for x in xs:
        had = x._text
        r(x)
        assert x._text is had
    kept = [ref() for ref in list(ordinal_module._table.values())]
    lengths = [len(x._text) for x in kept if x is not None and x._text is not None]
    assert len(lengths) > 1000
    assert max(lengths) <= ordinal_module._KEPT


def test_copies_are_the_same_object():
    deep = omega_tower(ONE, DEPTH)
    for a in SAMPLE + [EPSILON0, ZERO, deep, p("w^(w^w + 1)*3 + w^w + 2")]:
        assert pickle.loads(pickle.dumps(a)) is a
        assert copy.copy(a) is a
        assert copy.deepcopy(a) is a
    walk = stepdown_path(p("w^2"), 2, ZERO, 100)
    assert copy.deepcopy(walk) == walk
    assert all(x is y for x, y in zip(copy.deepcopy(walk).path, walk.path))


class _Forged:
    """Pickles as an ordinal's rows, which may be out of normal form."""

    def __init__(self, rows):
        self.rows = rows

    def __reduce__(self):
        return ordinal_module._from_rows, (self.rows,)


def test_unpickling_checks_normal_form():
    assert pickle.loads(pickle.dumps(_Forged(((0, 0, 1), (0, 1, 2))))) is p("w*2")
    for rows in [((0, 0, 1), (0, 1, 0)),    # zero coefficient
                 ((0, 0, 1), (1, 0, 1))]:   # 1 + 1 is not in normal form
        with pytest.raises(OrdinalError):
            pickle.loads(pickle.dumps(_Forged(rows)))


def test_intern_table_drops_what_nothing_holds():
    gc.collect()
    before = len(ordinal_module._table)
    walk = stepdown_path(EPSILON0, 3, ZERO, 10 ** 4)
    assert len(ordinal_module._table) > before + 10 ** 4
    del walk
    gc.collect()
    assert len(ordinal_module._table) <= before + 100
