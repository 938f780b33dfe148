"""Budgeted exact evaluation of the fast-growing hierarchy.

F_0(n) = n+1, F_{a+1}(n) = the (n+1)-fold composition of F_a at n, and at
limits F_lam(n) = F_{lam[n]}(n). Values explode almost immediately, so every
entry point takes a budget and returns budget exhaustion as an ordinary
result. On top of the evaluator sit the slow provability functions l and r.

The evaluator is a work-stack machine over run-length-encoded pending
compositions. Runs of F_0 collapse to one addition and runs of F_1 to one
shift, each charged a single step; that accounting is what lets the default
budget admit F_3(2) (which needs 402,653,184 F_1 applications) while still
cutting off anything genuinely out of reach. The bit length of a shift result
is predicted exactly before materializing, so the bit cap can refuse a value
without ever building it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .ordinal import (
    EPSILON0,
    ONE,
    ZERO,
    OrdKind,
    Ordinal,
    classify,
    fund_seq,
    omega_tower,
)


@dataclass(frozen=True)
class EvalBudget:
    max_bit_length: int
    max_steps: int

    def __post_init__(self):
        if self.max_bit_length < 1 or self.max_steps < 1:
            raise ValueError("budget caps must be positive")


DEFAULT_BUDGET = EvalBudget(max_bit_length=2 ** 29, max_steps=10 ** 7)


@dataclass(frozen=True)
class Value:
    v: int


@dataclass(frozen=True)
class BudgetExceeded:
    """A cap was hit before the value was known.

    `largest_intermediate_bit_length` is the widest value built or refused.
    When the successor guard in `_run` stops the run (the argument v already
    reaches the bit cap, so the next run is at least v+1+bits(v) bits wide)
    it is a lower bound on the refused width, max_bits+1, not the width
    itself.
    """

    steps_used: int
    largest_intermediate_bit_length: int


EvalResult = Value | BudgetExceeded


@dataclass(frozen=True)
class LE:
    v: int


@dataclass(frozen=True)
class GT:
    pass


ThresholdResult = LE | GT | BudgetExceeded


class Undecided(Exception):
    """A membership test for l hit the budget; the value is not guessed.

    `m` is the candidate whose r(m) could not be compared with n.
    """

    def __init__(self, n: int, m: int):
        super().__init__(f"l({n}) undecided: membership test at m={m} exceeded budget")
        self.n = n
        self.m = m


def _shift_bits(v: int, k: int) -> int:
    """Exact bit length of 2^k * (v+1) - 1 without computing it.

    For v >= 0 this is k + bits(v): if v+1 = 2^j then v is j ones and the
    result is j+k ones; otherwise v and v+1 share their bit length m and
    2^k * (v+1) - 1 lies in [2^(k+m-1), 2^(k+m)).
    """
    return k + v.bit_length()


def _run(stack, v: int, budget: EvalBudget, threshold=None):
    """Drive the machine to completion or to a budget wall.

    `stack` holds [ordinal, count] pairs, applied from the end. In threshold
    mode the bit cap is ignored (a collapsed shift that would overshoot the
    threshold is answered GT before materializing, which is sound because
    every later application only grows the value), and only the step cap can
    produce BudgetExceeded.
    """
    steps = 0
    biggest = v.bit_length()
    max_steps = budget.max_steps
    max_bits = budget.max_bit_length
    thr_bits = threshold.bit_length() if threshold is not None else None

    if threshold is not None and v > threshold:
        return GT()

    while stack:
        if steps >= max_steps:
            return BudgetExceeded(steps, biggest)
        top = stack[-1]
        alpha, count = top
        kind, pred = classify(alpha)

        if kind is OrdKind.ZERO:
            stack.pop()
            steps += 1
            v = v + count
            bits = v.bit_length()
            if bits > biggest:
                biggest = bits
            if threshold is not None:
                if v > threshold:
                    return GT()
            elif bits > max_bits:
                return BudgetExceeded(steps, biggest)

        elif alpha is ONE:
            stack.pop()
            steps += 1
            bits = _shift_bits(v, count)
            if threshold is not None:
                if bits > thr_bits:
                    if bits > biggest:
                        biggest = bits
                    return GT()
            elif bits > max_bits:
                return BudgetExceeded(steps, max(biggest, bits))
            v = ((v + 1) << count) - 1
            if bits > biggest:
                biggest = bits
            if threshold is not None and v > threshold:
                return GT()

        elif kind is OrdKind.SUCCESSOR:
            if pred is not ZERO:
                # the run about to be pushed applies an index >= 1 at least
                # v+1 times, so the result is at least the F_1 tower
                # 2^(v+1)*(v+1)-1 of v+1+bits(v) bits. Once v itself reaches
                # the caps that width settles the outcome, and expanding
                # instead would grow the stack by one giant pair per step
                # until memory ran out. Both tests look at v >= cap first so
                # that no arithmetic is done on a v that may be huge; the
                # budget stop reports max_bits+1 as a lower bound on the
                # refused width.
                if threshold is not None:
                    if v >= thr_bits or _shift_bits(v, v + 1) > thr_bits:
                        return GT()
                elif v >= max_bits:
                    return BudgetExceeded(steps, max(biggest, max_bits + 1))
            if count == 1:
                stack.pop()
            else:
                top[1] = count - 1
            steps += 1
            stack.append([pred, v + 1])

        else:
            # limit clause; expanding eps0 builds a tower of height v+1 and
            # is charged accordingly, which also guards against building a
            # tower the remaining budget could never consume
            cost = v + 1 if alpha is EPSILON0 else 1
            if steps + cost > max_steps:
                return BudgetExceeded(steps, biggest)
            if count == 1:
                stack.pop()
            else:
                top[1] = count - 1
            steps += cost
            if threshold is None and v >= max_bits and alpha.exp is ONE:
                # fund_seq ends this limit in +(v+1), a successor with a
                # nonzero predecessor, so the next step is the successor
                # guard; stop as it would, without building v+1
                if steps >= max_steps:
                    return BudgetExceeded(steps, biggest)
                return BudgetExceeded(steps, max(biggest, max_bits + 1))
            stack.append([fund_seq(alpha, v), 1])

    if threshold is not None:
        return LE(v)
    return Value(v)


def eval_F(alpha: Ordinal, n: int, budget: EvalBudget = DEFAULT_BUDGET) -> EvalResult:
    """Exact F_alpha(n), or BudgetExceeded with diagnostics."""
    if n < 0:
        raise ValueError("argument must be nonnegative")
    return _run([[alpha, 1]], n, budget)


def eval_F_iter(alpha: Ordinal, i: int, n: int, budget: EvalBudget = DEFAULT_BUDGET) -> EvalResult:
    """i-fold composition of F_alpha applied to n; i = 0 is n itself."""
    if i < 0 or n < 0:
        raise ValueError("arguments must be nonnegative")
    if i == 0:
        return Value(n)
    return _run([[alpha, i]], n, budget)


def _plainly_above(alpha: Ordinal, n: int, threshold: int) -> bool:
    """Cheap sound lower bound: F_alpha(n) > threshold without any stepping.

    At a fixed argument n the machine walks a descent: a limit lam gives way
    to lam[n] at equal value, and a successor b+1 to b applied n+1 times, so
    values weakly decrease along the descent (majorization along descents).
    Every descent from an index >= omega passes through omega itself (the
    only limit whose fundamental sequence leaves the infinite ordinals), and
    F_omega(n) = F_{n+1}(n). F_2 and F_3 are monotone in their argument, so:

    - for a finite index >= 2, or an index >= omega, with n >= 1,
      F_alpha(n) >= F_2(n) = 2^(n+1)*(n+1)-1, which has n+1+bits(n) bits;
    - for a finite index >= 3 with n >= 1, or an index >= omega with n >= 2
      (where n+1 >= 3), F_alpha(n) >= F_3(n) >= F_2(F_2(n)), since F_3
      applies F_2 at least twice. With y = F_2(n), F_2(y) has y+1+bits(y)
      bits.

    If a bound outgrows the threshold's bit length, the comparison is
    settled. y is built only once the F_2 bound has failed, so it is no wider
    than the threshold, and y >= bits(threshold) settles it at once. Without
    these bounds F at omega^omega of 7 against threshold 8 would need ~8^8
    machine steps before the value first moves, and F at omega^omega of 5
    against any threshold from 256 up to 2^392 a full run of the step cap.
    """
    if n < 1 or alpha.is_zero():
        return False
    finite = alpha.length == 1 and alpha.exp is ZERO
    if finite and alpha.lead_coeff < 2:
        return False
    thr_bits = threshold.bit_length()
    if _shift_bits(n, n + 1) > thr_bits:
        return True
    if (alpha.lead_coeff < 3) if finite else (n < 2):
        return False
    y = ((n + 1) << (n + 1)) - 1
    return y >= thr_bits or _shift_bits(y, y + 1) > thr_bits


def compare_F_to(alpha: Ordinal, n: int, threshold: int,
                 budget: EvalBudget = DEFAULT_BUDGET) -> ThresholdResult:
    """Decide F_alpha(n) <= threshold without necessarily finishing the value.

    GT fires as soon as any intermediate exceeds the threshold, or already
    up front when the F_2 or F_3 lower bound settles it; LE carries the exact
    value; BudgetExceeded only on the step cap.
    """
    if n < 0 or threshold < 0:
        raise ValueError("arguments must be nonnegative")
    if _plainly_above(alpha, n, threshold):
        return GT()
    return _run([[alpha, 1]], n, budget, threshold=threshold)


def eval_F_shifted(z: int, x: int, budget: EvalBudget = DEFAULT_BUDGET) -> EvalResult:
    """F at epsilon_0 of (x minus z), with truncated subtraction."""
    if x < 0:
        raise ValueError("argument must be nonnegative")
    return eval_F(EPSILON0, max(x - z, 0), budget)


class SlowFunctions:
    """One evaluation session for l and r, kept as one inverse pair.

    l(n) is the largest m below n whose tower-indexed F value at m stays
    within n (or 0 when no m qualifies); r(m) = F_{tower(l(m))}(m) applies
    the tower indexed by l(m) back to m. So l(n) is the largest m < n with
    r(m) <= n, and the two are monotone:

    - l is nondecreasing: r(m) does not depend on n, so the set of m < n
      with r(m) <= n only grows with n, and l(n) is its maximum;
    - r is nondecreasing: F at a fixed index is monotone in its argument, so
      r(m) <= F_{tower(l(m))}(m+1); the descent of tower(l(m+1)) at m+1
      passes through the lower tower tower(l(m)), and values weakly decrease
      along descents, so that is at most F_{tower(l(m+1))}(m+1) = r(m+1).

    Hence the m with r(m) <= n form a prefix 1..p that only grows with n.
    The session keeps the exact r(1..p), sorted because r is nondecreasing,
    and a proven lower bound on r(p+1). Since r(m) > m, every m counted by
    bisecting at n lies below n, and l(n) is that count, in any query order.
    The pointer p moves only when a query n reaches the bound, so l(n)
    costs O(1) threshold tests amortized. Every stored value is exact
    regardless of budget; a membership test that hits the budget raises
    Undecided, never guessed around, and leaves the session as it was.
    """

    def __init__(self, budget: EvalBudget = DEFAULT_BUDGET):
        self.budget = budget
        self._r = []        # exact r(1..p)
        self._r_floor = 0   # proven lower bound on r(p+1)

    def l(self, n: int) -> int:
        if n < 0:
            raise ValueError("argument must be nonnegative")
        return self._compute_l(n)

    def _compute_l(self, n: int) -> int:
        r = self._r
        # advance the pointer to the candidate m = p+1 while r(m) <= n is
        # still possible; every m' < m is in the prefix, so l(m) is a bisection
        while len(r) + 1 < n and self._r_floor <= n:
            m = len(r) + 1
            res =compare_F_to(omega_tower(ONE, bisect_right(r, m)), m, n, self.budget)
            if isinstance(res, LE):
                r.append(res.v)
                self._r_floor = res.v
            elif isinstance(res, GT):
                self._r_floor = n + 1
            else:
                raise Undecided(n, m)
        return bisect_right(r, n)

    def r(self, n: int) -> EvalResult:
        ln = self.l(n)
        return eval_F(omega_tower(ONE, ln), n, self.budget)


def slow_l(n: int, budget: EvalBudget = DEFAULT_BUDGET,
           session: SlowFunctions | None = None) -> int:
    if session is None:
        session = SlowFunctions(budget)
    return session.l(n)


def slow_r(n: int, budget: EvalBudget = DEFAULT_BUDGET,
           session: SlowFunctions | None = None) -> EvalResult:
    if session is None:
        session = SlowFunctions(budget)
    return session.r(n)
