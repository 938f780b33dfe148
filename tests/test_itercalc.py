import random

import pytest

from slowprov.itercalc import (
    Entailment,
    ExponentOverflow,
    IterError,
    IterExpr,
    ParseError,
    _merged,
    _rewrite_entry,
    entails,
    normalize,
    parse_iter,
    render_iter,
)
from slowprov.ordinal import EPSILON0, ONE, OMEGA, from_int, parse_ordinal

YES, UNKNOWN = Entailment.YES, Entailment.UNKNOWN


def norm_text(text):
    return render_iter(normalize(parse_iter(text)))


def test_parse_shapes():
    e = parse_iter("S2^w p")
    assert e.atom == "p" and e.stack == (("S2", OMEGA),)
    assert parse_iter("B B p").stack == (("B", from_int(2)),)
    assert parse_iter("p").stack == ()
    assert parse_iter("B^2 B^w p").stack == (("B", parse_ordinal("w + 2")),)


def test_parse_merges_are_rendered_back():
    assert render_iter(parse_iter("B^2 B^w p")) == "B^w+2 p"
    assert render_iter(parse_iter("S1 q")) == "S1 q"
    assert render_iter(parse_iter("R R R p")) == "R^3 p"


@pytest.mark.parametrize("bad", [
    "", "B", "B^ p", "Q p", "B^0 p", "R^w p", "R^e0 p", "B^w B p q",
    "b p", "B^x p",
])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_iter(bad)


def test_parse_rejects_unrepresentable_merge():
    with pytest.raises(ParseError):
        parse_iter("B B^e0 p")


def test_epsilon_exponent_absorbs_smaller_inner_power():
    assert render_iter(parse_iter("B^e0 B^2 p")) == "B^e0 p"


def test_expr_validation():
    with pytest.raises(IterError):
        IterExpr("p", (("B", ONE), ("B", ONE)))
    with pytest.raises(IterError):
        IterExpr("P")
    with pytest.raises(IterError):
        IterExpr("p", (("R", OMEGA),))
    with pytest.raises(IterError):
        IterExpr("p", (("Z", ONE),))


class TestNormalize:
    def test_two_fold_slow_collapses_at_omega(self):
        assert norm_text("S2^w p") == "B p"

    def test_root_squares_to_box(self):
        assert norm_text("R R p") == "B p"

    def test_one_fold_slow_collapses_at_epsilon(self):
        assert norm_text("S1^e0 p") == "B p"

    def test_addition_keeps_inner_exponent_first(self):
        assert norm_text("B^2 B^w p") == "B^w+2 p"

    def test_root_powers_split(self):
        assert norm_text("R^7 p") == "B^3 R p"
        assert norm_text("R^6 p") == "B^3 p"

    def test_linear_two_fold_powers_split(self):
        # w*3+2 peels to three boxes under a finite two-fold remainder
        assert norm_text("S2^w*3+2 p") == "S2^2 B^3 p"
        assert norm_text("S2^w*2 q") == "B^2 q"

    def test_high_two_fold_powers_stay_put(self):
        assert norm_text("S2^w^2 p") == "S2^w^2 p"
        assert norm_text("S2^e0 p") == "S2^e0 p"

    def test_rewrites_fire_under_outer_entries(self):
        assert norm_text("S1 R R p") == "S1 B p"
        assert norm_text("B^3 S2^w p") == "B^4 p"

    def test_cascaded_merge(self):
        # the rewritten boxes fuse with boxes already on both sides
        assert norm_text("B S2^w+1 B^2 p") == "B S2 B^3 p"
        assert norm_text("B S2^w B^2 p") == "B^4 p"

    def test_collapse_under_box_flag(self):
        e = parse_iter("B S1^w p")
        assert render_iter(normalize(e)) == "B S1^w p"
        assert render_iter(normalize(e, collapse_under_box=True)) == "B p"
        stacked = parse_iter("B S1^2 B S1^3 p")
        assert render_iter(normalize(stacked, collapse_under_box=True)) == "B^2 p"

    def test_collapse_flag_can_overflow(self):
        e = parse_iter("B S1^2 B^e0 p")
        assert render_iter(normalize(e)) == "B S1^2 B^e0 p"
        with pytest.raises(ExponentOverflow):
            normalize(e, collapse_under_box=True)


EXP_TEXTS = ["", "^2", "^3", "^5", "^w", "^w+1", "^w*2+3", "^w*4",
             "^w^2", "^w^2+w*2+1", "^e0"]
FINITE_EXP_TEXTS = ["", "^2", "^3", "^5", "^9"]


def random_iter_text(rng: random.Random) -> str:
    parts = []
    depth = rng.randrange(6)
    for _ in range(depth):
        op = rng.choice(("B", "S1", "S2", "R"))
        pool = FINITE_EXP_TEXTS if op == "R" else EXP_TEXTS
        parts.append(op + rng.choice(pool))
    parts.append(rng.choice(("p", "q", "r")))
    return " ".join(parts)


def _parse_lenient(text):
    try:
        return parse_iter(text)
    except ParseError:
        return None


def _normalizable(rng):
    """Random expression whose normal form stays below epsilon_0.

    Rewrites can push a composite exponent past the ceiling (e.g. R R over
    B^e0 wants B^e0+1); those raise ExponentOverflow and are skipped here.
    """
    while True:
        e = _parse_lenient(random_iter_text(rng))
        if e is None:
            continue
        try:
            normalize(e)
        except ExponentOverflow:
            continue
        return e


def test_normalize_overflows_past_the_ordinal_ceiling():
    with pytest.raises(ExponentOverflow):
        normalize(parse_iter("R R B^e0 p"))


def test_normalize_is_idempotent():
    rng = random.Random(1009)
    for _ in range(1000):
        e = _normalizable(rng)
        n1 = normalize(e)
        assert normalize(n1) == n1


def test_roundtrip_parse_render():
    rng = random.Random(88)
    for _ in range(500):
        e = _normalizable(rng)
        assert parse_iter(render_iter(e)) == e
        n = normalize(e)
        assert parse_iter(render_iter(n)) == n


def _stepwise_normalize(e: IterExpr, collapse_under_box: bool = False) -> IterExpr:
    """Different strategy: one innermost step at a time, merging eagerly."""
    stack = list(e.stack)
    while True:
        for i, (op, exp) in enumerate(stack):
            out = _rewrite_entry(op, exp)
            if out is not None:
                stack[i:i + 1] = out
                break
            if (collapse_under_box and op == "S1" and not exp.eps
                    and stack[i + 1:i + 2] and stack[i + 1][0] == "B"):
                del stack[i]
                break
        else:
            return IterExpr(e.atom, tuple(stack))
        stack = list(_merged(tuple(stack)))


def _outcome(normalizer, e, collapse_under_box):
    try:
        return normalizer(e, collapse_under_box)
    except IterError as err:
        return type(err), str(err)


def test_confluence_sample():
    # overflows included: they must match in type and message
    rng = random.Random(427)
    seen = set()
    for _ in range(1500):
        e = _parse_lenient(random_iter_text(rng))
        if e is None:
            continue
        for collapse in (False, True):
            got = _outcome(normalize, e, collapse)
            assert got == _outcome(_stepwise_normalize, e, collapse), (render_iter(e), collapse)
            seen.add((collapse, type(got).__name__))
        if isinstance(got, IterExpr) and got != normalize(e):
            seen.add("collapsed")
    assert seen >= {(False, "IterExpr"), (True, "IterExpr"), (False, "tuple"),
                    (True, "tuple"), "collapsed"}


def test_addition_order_on_sampled_pairs():
    rng = random.Random(5)
    ords = [from_int(rng.randrange(1, 30)) for _ in range(6)]
    ords += [OMEGA, parse_ordinal("w+4"), parse_ordinal("w^2"), EPSILON0]
    from slowprov.ordinal import add
    for outer in ords:
        for inner in ords:
            if inner.eps:
                continue
            expect = outer if outer.eps else add(inner, outer)
            built = IterExpr("p", _merged((("B", inner), ("B", outer))))
            assert built.stack == (("B", expect),)


class TestEntails:
    def test_slow_entails_ordinary(self):
        assert entails(parse_iter("S1 p"), parse_iter("B p")) == YES

    def test_ordinary_does_not_entail_slow(self):
        assert entails(parse_iter("B p"), parse_iter("S1 p")) == UNKNOWN

    def test_exponent_monotone(self):
        assert entails(parse_iter("B p"), parse_iter("B^w p")) == YES
        assert entails(parse_iter("B^w p"), parse_iter("B p")) == UNKNOWN

    def test_normalization_feeds_the_check(self):
        assert entails(parse_iter("R R p"), parse_iter("B^2 p")) == YES
        assert entails(parse_iter("S2^w p"), parse_iter("B^w p")) == YES

    def test_atom_and_arity_must_agree(self):
        assert entails(parse_iter("B p"), parse_iter("B q")) == UNKNOWN
        assert entails(parse_iter("B p"), parse_iter("S1 B p")) == UNKNOWN
        assert entails(parse_iter("p"), parse_iter("p")) == YES

    def test_mixed_position_rules(self):
        assert entails(parse_iter("S2^2 R p"), parse_iter("S2^3 B p")) == YES
        assert entails(parse_iter("S2 R p"), parse_iter("R S2 p")) == UNKNOWN

    def test_reflexive_on_sample(self):
        rng = random.Random(64)
        sample = [_normalizable(rng) for _ in range(50)]
        for e in sample:
            assert entails(e, e) == YES

    def test_transitive_on_sample(self):
        rng = random.Random(65)
        sample = [_normalizable(rng) for _ in range(50)]
        yes_pairs = [(a, b) for a in sample for b in sample
                     if entails(a, b) == YES]
        related = {}
        for a, b in yes_pairs:
            related.setdefault(id(a), []).append(b)
        for a, b in yes_pairs:
            for c in related.get(id(b), ()):
                assert entails(a, c) == YES
