"""Hierarchy evaluation: closed forms, budgets, threshold mode, l and r."""

import random
import sys
import time

import pytest

from slowprov.ordinal import (
    EPSILON0,
    OMEGA,
    ONE,
    ZERO,
    Reached,
    from_int,
    fund_seq,
    omega_tower,
    parse_ordinal,
    stepdown_path,
)
from slowprov import ordinal as ordinal_module
from slowprov.fgh import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    EvalBudget,
    GT,
    LE,
    SlowFunctions,
    Undecided,
    Value,
    compare_F_to,
    eval_F,
    eval_F_iter,
    eval_F_shifted,
    slow_l,
    slow_r,
    _plainly_above,
    _shift_bits,
)
from slowprov.oracles import HardCapExceeded, oracle_F

p = parse_ordinal

TINY = EvalBudget(max_bit_length=2 ** 29, max_steps=10 ** 4)


def f2(x):
    return 2 ** (x + 1) * (x + 1) - 1


# --- point values -----------------------------------------------------------

def test_bottom_levels():
    assert eval_F(ZERO, 5) == Value(6)
    assert eval_F(ONE, 4) == Value(9)
    assert eval_F(ONE, 5) == Value(11)
    assert eval_F(p("2"), 2) == Value(23)
    assert eval_F(p("2"), 23) == Value(402653183)


def test_limit_levels():
    assert eval_F(OMEGA, 1) == Value(7)
    assert eval_F(EPSILON0, 0) == Value(1)
    assert eval_F(omega_tower(ONE, 1), 2) == eval_F(p("3"), 2)


def test_f3_of_2_exact_size():
    got = eval_F(p("3"), 2)
    assert isinstance(got, Value)
    assert got.v.bit_length() == 402653213


def test_f4_of_3_rejected():
    got = eval_F(p("4"), 3)
    assert isinstance(got, BudgetExceeded)
    # the first oversized intermediate is F_2 of F_3(2), whose size is known
    assert got.largest_intermediate_bit_length > DEFAULT_BUDGET.max_bit_length


def test_successor_guard_reports_a_small_lower_bound():
    # both go on to apply an index >= 2 to F_3(2) (F_w at w+1, F_3 at 4);
    # the run stops without arithmetic on the 402,653,213-bit argument and
    # reports a lower bound on the refused width
    for a_txt in ["w+1", "4"]:
        got = eval_F(p(a_txt), 2)
        assert isinstance(got, BudgetExceeded)
        assert got.largest_intermediate_bit_length > DEFAULT_BUDGET.max_bit_length
        assert got.largest_intermediate_bit_length.bit_length() <= 64


def test_limit_step_is_one_step_then_its_fundamental_sequence():
    # a limit ending in w*c steps to a successor with a nonzero predecessor;
    # once the argument reaches the bit cap the machine stops there without
    # building that successor, and must agree with running the member itself
    capped = EvalBudget(max_bit_length=3, max_steps=100)
    for lam_txt in ["w", "w*2", "w^2+w", "w^3*2+w*4", "w^w+w", "w^2", "w^w"]:
        lam = p(lam_txt)
        for n in range(1, 9):
            got = eval_F(lam, n, capped)
            member = eval_F(fund_seq(lam, n), n, capped)
            if isinstance(member, Value):
                assert got == member
            else:
                assert got == BudgetExceeded(member.steps_used + 1,
                                             member.largest_intermediate_bit_length)
    # the step cap is checked first, as on the expanded path
    assert eval_F(p("w*2"), 5, EvalBudget(max_bit_length=3, max_steps=1)) \
        == BudgetExceeded(1, 3)


def test_step_cost_does_not_grow_with_the_ordinal(monkeypatch):
    # F at e0 of 3 builds an ordinal of thousands of terms; a step rebuilds
    # only its chain of last exponents, so four times the steps build about
    # four times the nodes (about 26 times when each step copied the ordinal).
    # Nodes are counted, not timed, so a busy machine cannot fail this.
    built = 0
    new = ordinal_module._new

    def counting_new(cls):
        nonlocal built
        built += 1
        return new(cls)

    monkeypatch.setattr(ordinal_module, "_new", counting_new)

    def nodes(steps):
        nonlocal built
        built = 0
        got = eval_F(EPSILON0, 3, EvalBudget(2 ** 29, steps))
        assert got == BudgetExceeded(steps, 2)
        return built

    small, large = nodes(10 ** 4), nodes(4 * 10 ** 4)
    assert small > 10 ** 4
    assert large / small < 8


def test_shift_bits_matches_its_definition():
    for v in range(5000):
        for k in range(12):
            assert _shift_bits(v, k) == (((v + 1) << k) - 1).bit_length()


def test_closed_forms():
    """F_1 is doubling plus one, F_2 is the shifted-by-itself form."""
    for x in range(65):
        assert eval_F(ONE, x) == Value(2 * x + 1)
    for x in range(13):
        assert eval_F(p("2"), x) == Value(f2(x))


def test_iterated():
    assert eval_F_iter(ONE, 0, 9) == Value(9)
    assert eval_F_iter(ONE, 2, 1) == Value(7)
    assert eval_F_iter(ZERO, 10, 0) == Value(10)
    assert eval_F_iter(ONE, 3, 2) == Value(23)


def test_bad_arguments():
    with pytest.raises(ValueError):
        eval_F(ZERO, -1)
    with pytest.raises(ValueError):
        eval_F_iter(ONE, -1, 0)
    with pytest.raises(ValueError):
        EvalBudget(max_bit_length=0, max_steps=1)


# --- threshold mode ---------------------------------------------------------

def test_compare_known_points():
    assert compare_F_to(ONE, 4, 9) == LE(9)
    assert compare_F_to(ZERO, 5, 5) == GT()
    assert compare_F_to(OMEGA, 3, 10, TINY) == GT()


def test_compare_at_the_edge():
    v = 402653183
    assert compare_F_to(p("2"), 23, v) == LE(v)
    assert compare_F_to(p("2"), 23, v - 1) == GT()
    assert compare_F_to(p("3"), 2, 10 ** 9) == GT()


def test_compare_le_matches_eval():
    for a_txt, n in [("0", 7), ("1", 12), ("2", 6), ("w", 2)]:
        exact = eval_F(p(a_txt), n)
        assert isinstance(exact, Value)
        assert compare_F_to(p(a_txt), n, exact.v) == LE(exact.v)
        assert compare_F_to(p(a_txt), n, exact.v + 1) == LE(exact.v)
        assert compare_F_to(p(a_txt), n, exact.v - 1) == GT()


def test_compare_budget_exceeded_only_on_steps():
    # value stays microscopic for a long time, so only the step cap can fire;
    # the threshold lies past the a-priori bound (F_2(F_2(7)) has 2,059 bits)
    got = compare_F_to(p("w^w"), 7, 2 ** 4096, TINY)
    assert isinstance(got, BudgetExceeded)


def test_compare_decides_far_above_threshold_without_stepping():
    # these would take ~n^n steps if the machine had to walk the descent
    assert compare_F_to(p("w^w"), 7, 8) == GT()
    assert compare_F_to(p("w^(w^w)"), 9, 1000) == GT()
    assert compare_F_to(EPSILON0, 5, 100) == GT()


PLAIN_GRID_INDICES = ["2", "3", "w", "w+1", "w*2", "w^2", "w^w"]
PLAIN_GRID_THRESHOLDS = [t for t in sorted({*range(64), 159, 2046, 2047,
                                            *(2 ** k + d for k in range(65) for d in (-1, 0, 1))})
                         if t <= 2 ** 64]


def _deep_oracle_F(alpha, n):
    # the oracle recurses once per descent step, and w^w at 4 goes deeper
    # than the default limit of 1,000 frames
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))
    try:
        return oracle_F(alpha, n, bit_cap=4096)
    finally:
        sys.setrecursionlimit(limit)


def test_plainly_above_is_sound_against_the_oracle():
    # every a-priori GT must agree with the definition; a value wider than
    # the oracle's cap is far above any threshold of the grid
    decided = 0
    for a_txt in PLAIN_GRID_INDICES:
        for n in range(5):
            try:
                true = _deep_oracle_F(p(a_txt), n)
            except HardCapExceeded:
                true = None
            for thr in PLAIN_GRID_THRESHOLDS:
                if _plainly_above(p(a_txt), n, thr):
                    decided += 1
                    assert true is None or true > thr, (a_txt, n, thr, true)
    assert decided > 1000


def test_plainly_above_f3_bound_edges():
    # F_3(1) = F_2(F_2(1)) = 2047 has 11 bits: the bound settles 10 bits only
    assert _plainly_above(p("3"), 1, 2 ** 10 - 1)
    assert not _plainly_above(p("3"), 1, 2 ** 10)
    # F_w(1) = F_2(1) = 7, so the F_3 bound must not apply to w at n = 1
    assert not _plainly_above(OMEGA, 1, 100)
    # F at w^w of 5 against every n from 256 up to 2^392 needs no machine run
    for thr in (256, 10 ** 6, 2 ** 64, 2 ** 392 - 1):
        assert _plainly_above(p("w^w"), 5, thr)
    assert not _plainly_above(p("w^w"), 5, 2 ** 392)


def test_shifted():
    assert eval_F_shifted(1, 0) == Value(1)
    assert eval_F_shifted(5, 3) == Value(1)
    assert eval_F_shifted(0, 0) == Value(1)
    assert isinstance(eval_F_shifted(2, 3), BudgetExceeded)


# --- hierarchy lemmas on feasible samples -----------------------------------

FEASIBLE = [("0", 4), ("0", 9), ("1", 6), ("1", 30), ("2", 3), ("2", 8),
            ("3", 1), ("w", 2), ("w+1", 0), ("w*2", 0), ("w^2", 0), ("e0", 0)]


def test_monotone_in_argument():
    for a_txt in ["0", "1", "2"]:
        prev = None
        for n in range(10):
            got = eval_F(p(a_txt), n)
            assert isinstance(got, Value)
            assert got.v > n  # strict growth
            if prev is not None:
                assert got.v > prev
            prev = got.v


def test_strict_growth_of_iterates():
    for a_txt, i, n in [("0", 1, 5), ("0", 7, 3), ("1", 2, 4), ("1", 5, 2), ("2", 2, 2)]:
        got = eval_F_iter(p(a_txt), i, n)
        assert isinstance(got, Value)
        assert got.v > n


def test_value_on_stepdown_path_never_grows():
    """Walking down the index can only shrink the value at a fixed argument."""
    for a_txt, n in FEASIBLE:
        a = p(a_txt)
        top = eval_F(a, n)
        if not isinstance(top, Value):
            continue
        walk = stepdown_path(a, n, ZERO, 10_000)
        assert isinstance(walk, Reached)
        for b in walk.path:
            below = eval_F(b, n)
            assert isinstance(below, Value)
            assert below.v <= top.v


def test_terminating_values_have_descents():
    for a_txt, n in FEASIBLE:
        got = eval_F(p(a_txt), n)
        if isinstance(got, Value):
            walk = stepdown_path(p(a_txt), n, ZERO, max(got.v, 64))
            assert isinstance(walk, Reached)


# --- l and r ----------------------------------------------------------------

def test_l_table():
    s = SlowFunctions()
    assert [s.l(n) for n in range(1, 13)] == [0, 0, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2]


def test_l_monotone_nondecreasing():
    s = SlowFunctions()
    vals = [s.l(n) for n in range(13)]
    assert all(x <= y for x, y in zip(vals, vals[1:]))


def test_r_small_points():
    s = SlowFunctions()
    assert s.r(1) == Value(3)
    assert s.r(2) == Value(5)
    assert isinstance(s.r(3), BudgetExceeded)


def test_l_r_interplay():
    s = SlowFunctions()
    for n in (1, 2):
        rn = s.r(n)
        assert isinstance(rn, Value)
        assert s.l(rn.v) == n
    # r after l comes back below n whenever l(n) is positive
    for n in range(3, 13):
        ln = s.l(n)
        if ln >= 1:
            rl = s.r(ln)
            assert isinstance(rl, Value)
            assert rl.v <= n
    # strict growth of r on the decided range
    assert s.r(1).v < s.r(2).v


def test_l_undecided_under_starved_budget():
    # 2^69 is the first n at which the candidate m=3 (index omega) escapes
    # the a-priori bounds (F_2(F_2(3)) has 70 bits, as many as n) and three
    # machine steps cannot settle it either
    starved = EvalBudget(max_bit_length=2 ** 29, max_steps=3)
    assert slow_l(2 ** 69 - 1, starved) == 2
    with pytest.raises(Undecided) as exc:
        slow_l(2 ** 69, starved)
    assert exc.value.m == 3


class ScanReference:
    """l as computed before the pointer: a descending scan for every n."""

    def __init__(self, budget: EvalBudget = DEFAULT_BUDGET):
        self.budget = budget
        self._memo = {0: 0}

    def l(self, n: int) -> int:
        for k in range(1, n + 1):
            if k in self._memo:
                continue
            self._memo[k] = self._compute_l(k)
        return self._memo[n]

    def _compute_l(self, n: int) -> int:
        # descending scan: the first qualifying m is the maximum
        for m in range(n - 1, 0, -1):
            tower = omega_tower(ONE, self._memo[m])
            res = compare_F_to(tower, m, n, self.budget)
            if isinstance(res, LE):
                return m
            if isinstance(res, BudgetExceeded):
                raise Undecided(n, m)
        return 0


@pytest.fixture(scope="module")
def scan_table():
    ref = ScanReference()
    return [ref.l(n) for n in range(256)]


def test_l_matches_the_scan_in_increasing_order(scan_table):
    s = SlowFunctions()
    assert [s.l(n) for n in range(256)] == scan_table


def test_l_matches_the_scan_in_shuffled_order(scan_table):
    order = list(range(256))
    random.Random(5).shuffle(order)
    s = SlowFunctions()
    assert {n: s.l(n) for n in order} == dict(enumerate(scan_table))


def test_l_matches_the_scan_on_fresh_sessions(scan_table):
    assert [SlowFunctions().l(n) for n in range(256)] == scan_table


def test_r_first_points_unchanged():
    big = BudgetExceeded  # r(3) and r(4) stop at the successor guard
    s = SlowFunctions()
    assert [s.r(n) for n in range(5)] == [
        Value(1), Value(3), Value(5),
        big(7, DEFAULT_BUDGET.max_bit_length + 1),
        big(8, DEFAULT_BUDGET.max_bit_length + 1),
    ]


def test_r_nondecreasing_on_decided_points():
    # r(m) against 2^64 for the session's l(m): exact where it fits, GT
    # beyond; a nondecreasing r never fits again once it exceeds
    s = SlowFunctions()
    seen = []
    for m in range(1, 300):
        res = compare_F_to(omega_tower(ONE, s.l(m)), m, 2 ** 64)
        assert not isinstance(res, BudgetExceeded)
        seen.append(res.v if isinstance(res, LE) else 2 ** 64 + 1)
    assert seen[:3] == [3, 5, 2 ** 64 + 1]
    assert seen == sorted(seen)
    assert [s.r(m) for m in (1, 2)] == [Value(3), Value(5)]


@pytest.mark.parametrize("n", [10 ** 6, 2 ** 64])
def test_l_far_out_is_a_few_tests(n):
    start = time.perf_counter()
    assert SlowFunctions().l(n) == 2
    assert time.perf_counter() - start < 1.0


def test_module_level_wrappers():
    assert slow_l(8) == 2
    assert isinstance(slow_r(3), BudgetExceeded)
    s = SlowFunctions()
    assert slow_l(5, session=s) == 2
    assert slow_r(2, session=s) == Value(5)
