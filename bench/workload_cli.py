"""cli: real `python -m slowprov.cli` processes, one after another.

Per round, 36 calls across `ord`, `fgh`, `modal`, `iter` and `dev`, with and
without `--json`; ten of them take seeded arguments whose answers follow
from closed forms or from the program's own oracles. Twenty-nine are light:
interpreter start and import are nearly all of their time. Seven are heavy,
each doing 0.3-0.6 s of work after start (2 cores, Python 3.11.7): a
step-capped `eval_F(e0, 3)`, 200 oracle rounds, a `glt` countermodel search
to size 4 and l(256). The heavy calls are a fifth of a round, so the 90th
percentile falls among them, on work the program does, and not on the
start-up jitter of the light calls.

Three calls fail today: `fgh eval 2 -- -3`, `fgh l -- -1` and
`fgh cmpto 2 3 -- -1` under `--json` should exit 2 with one error record,
but end in an uncaught ValueError traceback. A call counts as failed when it
exits with a code other than the documented 0, 2, 3 and 4.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import slowprov.cli  # noqa: F401  -- so that setup_s counts the program's import
from harness import Failed, Op

SRC = Path(__file__).resolve().parent.parent / "src"
DOCUMENTED_EXITS = (0, 2, 3, 4)
E0_STEPCAP = 7000           # step budget on which eval_F(e0, 3) stops
ORACLE_COUNT = 200          # rounds of `dev oracles`, 7 checks each
STRESS = "<.>p -> <.>true"  # valid in glt, so no countermodel up to size 4


class Crash(Exception):
    """The process ended outside the documented exit codes."""


def _text(s: str):
    return ("text", s)


def _record(d: dict):
    return ("json", d)


def _steps_w_times(c: int, n: int) -> int:
    # w*c at n: each w costs one limit step to n+1, then n+1 successor steps
    return c * (n + 2)


def _normal_root(k: int) -> str:
    parts = ([f"B^{k // 2}" if k // 2 > 1 else "B"] if k >= 2 else []) + (["R"] if k % 2 else [])
    return " ".join(parts + ["p"])


def generate(seed: int) -> list:
    """(argv, expected exit code, expected output) for every call of a round."""
    rng = random.Random(seed)
    x, y, n, t = rng.randint(4, 12), rng.randint(5, 60), rng.randint(5, 40), rng.randint(1, 62)
    ca = [rng.randint(1, 3) for _ in range(3)]
    cb = [rng.randint(1, 3) for _ in range(3)]
    wc, wn, k, s = rng.randint(2, 5), rng.randint(1, 3), rng.randint(2, 40), rng.randint(0, 999)
    s2, s3 = rng.randint(0, 999), rng.randint(0, 999)

    def poly(c):
        return f"w^2*{c[0]}+w*{c[1]}+{c[2]}"

    word = "GT" if ca > cb else "LT" if ca < cb else "EQ"
    fy = 2 * y + 1
    calls = [
        (["fgh", "eval", "2", "3"], 0, _text("63")),
        (["fgh", "eval", "2", str(x)], 0, _text(str(((x + 1) << (x + 1)) - 1))),
        (["--json", "fgh", "eval", "1", str(y)], 0,
         _record({"verdict": "VALUE", "bits": fy.bit_length(), "decimal": str(fy)})),
        (["fgh", "l", "8"], 0, _text("2")),
        (["--json", "fgh", "l", str(n)], 0, _record({"verdict": "VALUE", "value": 2})),
        (["fgh", "r", "2"], 0, _text("5")),
        (["fgh", "cmpto", "2", "3", "100"], 0, _text("LE 63")),
        (["--json", "fgh", "cmpto", "2", "3", str(t)], 0, _record({"verdict": "GT"})),
        (["--json", "fgh", "eval", "4", "3"], 0, ("json-verdict", "BUDGET")),
        (["--strict", "fgh", "eval", "4", "3"], 3, _text("BUDGET")),
        (["ord", "cmp", "w^2+w", "w*3"], 0, _text("GT")),
        (["--json", "ord", "cmp", poly(ca), poly(cb)], 0, _record({"result": word})),
        (["ord", "add", "w+1", "w"], 0, _text("w*2")),
        (["ord", "mul", "w+1", "w"], 0, _text("w^2")),
        (["ord", "fundseq", "w^2", "3"], 0, _text("w*4")),
        (["ord", "stepdown", "w+1", "1"], 0, _text("REACHED r=4: w+1,w,2,1,0")),
        (["--json", "ord", "stepdown", f"w*{wc}", str(wn)], 0,
         ("stepdown", (f"w*{wc}", _steps_w_times(wc, wn)))),
        (["iter", "normalize", "R^7 p"], 0, _text("B^3 R p")),
        (["--json", "iter", "normalize", f"R^{k} p"], 0, _record({"result": _normal_root(k)})),
        (["iter", "entails", "S1 p", "B p"], 0, _text("YES")),
        (["iter", "entails", "B p", "S1 p"], 0, _text("UNKNOWN")),
        (["modal", "decide", "gl", "[]p -> [][]p"], 0, _text("THEOREM")),
        (["--json", "modal", "decide", "glt", "[]p -> [.]p"], 0, _record(
            {"verdict": "COUNTERMODEL", "world": "w0",
             "model": {"worlds": ["w0", "w1"], "root": "w0", "prec": [["w0", "w1"]],
                       "precR": [], "val": {"p": []}}})),
        (["modal", "decide", "gl2", "[]p <-> [.][.]p"], 0, _text("THEOREM")),
        (["dev", "oracles", "--count", "3"], 0, _text("OK checked=21")),
        (["--json", "--seed", str(s), "dev", "oracles", "--count", "2"], 0,
         _record({"verdict": "OK", "checked": 14})),
        (["--json", "fgh", "eval", "2", "--", "-3"], 2, ("json-error", 2)),
        (["--json", "fgh", "l", "--", "-1"], 2, ("json-error", 2)),
        (["--json", "fgh", "cmpto", "2", "3", "--", "-1"], 2, ("json-error", 2)),
        # heavy calls
        (["--stepcap", str(E0_STEPCAP), "fgh", "eval", "e0", "3"], 0, _text("BUDGET")),
        (["--json", "--stepcap", str(E0_STEPCAP), "fgh", "eval", "e0", "3"], 0,
         ("budget", E0_STEPCAP)),
        (["--seed", str(s2), "dev", "oracles", "--count", str(ORACLE_COUNT)], 0,
         _text(f"OK checked={7 * ORACLE_COUNT}")),
        (["--json", "--seed", str(s3), "dev", "oracles", "--count", str(ORACLE_COUNT)], 0,
         _record({"verdict": "OK", "checked": 7 * ORACLE_COUNT})),
        (["--max-model-size", "4", "modal", "decide", "glt", STRESS], 0, ("valid", 4)),
        (["--json", "--max-model-size", "4", "modal", "decide", "glt", STRESS], 0,
         ("valid", 4)),
        (["fgh", "l", "256"], 0, _text("2")),
    ]
    return calls


class Runner:
    """Runs slowprov processes and keeps the largest child peak RSS."""

    def __init__(self):
        self.peak_kb = 0
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("SLOWPROV_")}
        self.env["PYTHONPATH"] = str(SRC)

    def run(self, argv):
        """(exit code, stdout) of one process; Crash outside the documented codes."""
        cmd = [sys.executable, "-m", "slowprov.cli", *argv]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              env=self.env) as p:
            out = p.stdout.read().decode()
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        if p.returncode not in DOCUMENTED_EXITS:
            raise Crash(f"exit {p.returncode}")
        return p.returncode, out


def build_ops(calls: list, runner: Runner | None = None) -> list:
    runner = runner or Runner()
    return [Op("call", (argv, code, want), lambda a=argv: runner.run(a)) for argv, code, want in calls]


# --- checks ------------------------------------------------------------------

def _json_lines(out: str):
    lines = out.splitlines()
    if len(lines) != 1:
        return None
    try:
        rec = json.loads(lines[0])
    except ValueError:
        return None
    return rec if isinstance(rec, dict) else None


def _matches(want, out: str) -> bool:
    kind, value = want
    if kind == "text":
        return out == value + "\n"
    if kind == "valid" and not out.startswith("{"):
        # a valid formula: a theorem, or no countermodel up to the size bound
        return out in ("THEOREM\n", f"INCONCLUSIVE bound={value}\n")
    rec = _json_lines(out)
    if rec is None:
        return False
    if kind == "json":
        return rec == value
    if kind == "json-verdict":
        return rec.get("verdict") == value
    if kind == "json-error":
        return rec.get("exit") == value and isinstance(rec.get("error"), str)
    if kind == "valid":
        return (rec.get("verdict") == "THEOREM"
                or (rec.get("verdict") == "INCONCLUSIVE" and rec.get("max_model_size") == value))
    if kind == "budget":
        steps = rec.get("steps_used")
        return (rec.get("verdict") == "BUDGET" and isinstance(steps, int)
                and 0 < steps <= value)
    start, steps = value     # stepdown: the walk from start to 0 in `steps` steps
    path = rec.get("path", [])
    return (rec.get("verdict") == "REACHED" and rec.get("steps") == steps
            and len(path) == steps + 1 and path[0] == start and path[-1] == "0")


def check_outputs(ops, outs):
    bad = []
    for op, out in zip(ops, outs):
        argv, code, want = op.args
        if isinstance(out, Failed):     # a failed call has no verdict to check
            continue
        if out[0] != code or not _matches(want, out[1]):
            bad.append(f"slowprov {' '.join(argv)}: exit {out[0]}, {out[1]!r}")
    return bad


def check_json_records(ops, outs):
    return [f"slowprov {' '.join(op.args[0])}: not one JSON record: {out[1]!r}"
            for op, out in zip(ops, outs)
            if "--json" in op.args[0] and not isinstance(out, Failed)
            and _json_lines(out[1]) is None]


CHECKS = (
    ("outputs", check_outputs),
    ("json_records", check_json_records),
)


def _corrupt_output(ops, outs):
    outs[0] = (0, "64\n")


def _corrupt_record(ops, outs):
    i = next(i for i, op in enumerate(ops) if op.args[0][:2] == ["--json", "fgh"])
    outs[i] = (outs[i][0], outs[i][1] * 2)


CORRUPTIONS = {
    "outputs": _corrupt_output,
    "json_records": _corrupt_record,
}
