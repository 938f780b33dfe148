"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py [--seed N]

Runs one round of every workload, expects every check to accept the real
outputs, then hands each check a copy with one output corrupted (an l value
off by one, a swapped compare verdict, a countermodel that does not falsify
its formula, ...) and expects that check to reject it. Exits 1 if a check
accepts a corrupted output or rejects a real one.
"""

from __future__ import annotations

import argparse
import sys

import run


def selftest(name: str, seed: int) -> list:
    from harness import run_round

    mod = run._workload(name)
    ops = mod.build_ops(mod.generate(seed))
    _, outs, _ = run_round(ops)
    problems = []
    if set(mod.CORRUPTIONS) != {n for n, _ in mod.CHECKS}:
        problems.append(f"{name}: checks without a corruption, or the other way round")
    for check_name, check in mod.CHECKS:
        complaints = check(ops, outs)
        if complaints:
            problems.append(f"{name}.{check_name} rejects real outputs: {complaints[:3]}")
        corrupted = list(outs)
        mod.CORRUPTIONS[check_name](ops, corrupted)
        caught = check(ops, corrupted)
        status = "rejects" if caught else "ACCEPTS"
        print(f"{name}.{check_name}: {status} the corrupted output"
              + (f" ({caught[0]})" if caught else ""))
        if not caught:
            problems.append(f"{name}.{check_name} accepts a corrupted output")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    seed = ap.parse_args().seed
    sys.path[:0] = [str(run.SRC), str(run.HERE)]
    problems = []
    for name in run.WORKLOADS:
        problems += selftest(name, seed)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "every check rejects its corrupted output")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
