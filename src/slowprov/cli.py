"""Command-line front end.

One orchestration thread; every command resolves its configuration as
flags over environment variables over defaults, prints plain text by
default or exactly one JSON record with --json, and exits with:

  0  normal output, including negative verdicts (UNKNOWN, VIOLATION, ...)
  2  unparseable or out-of-range input
  3  budget exhausted while --strict is set
  4  invalid model file, or a model/semantics mismatch

Budget caps respect SLOWPROV_BITCAP and SLOWPROV_STEPCAP; the glt and
gl2 model search size respects SLOWPROV_MODELSIZE.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from os import environ

from .fgh import (
    LE,
    GT,
    BudgetExceeded,
    EvalBudget,
    DEFAULT_BUDGET,
    Undecided,
    Value,
    compare_F_to,
    eval_F,
    eval_F_shifted,
    slow_l,
    slow_r,
)
from .itercalc import IterError, entails, normalize, parse_iter, render_iter
from .itercalc import ParseError as IterParseError
from .ordinal import (
    Cmp,
    NotOnPath,
    OrdinalError,
    Reached,
    StepBudgetExceeded,
    ZERO,
    compare,
    fund_seq,
    add as ord_add,
    mul as ord_mul,
    parse_ordinal,
    render_ordinal,
    stepdown_path,
)

# The modal engine is imported by the functions of the modal and dev
# commands, not here: the ord, fgh and iter commands then start without
# loading it, which is most of the import time of this module.

# decimal printing cutoff: 2^13288 is just above 10^4000
_DECIMAL_BIT_CUTOFF = 13288


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class GlobalConfig:
    bitcap: int
    stepcap: int
    model_size: int
    proof_depth: int
    seed: int
    json: bool
    strict: bool
    bits: bool

    def budget(self) -> EvalBudget:
        try:
            return EvalBudget(max_bit_length=self.bitcap, max_steps=self.stepcap)
        except ValueError as e:
            raise CliError(2, str(e))


def _env_int(name: str):
    raw = environ.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise CliError(2, f"{name} must be an integer, got {raw!r}")


def _resolve_config(ns) -> GlobalConfig:
    def pick(flag, env_name, fallback):
        if flag is not None:
            return flag
        env = _env_int(env_name) if env_name else None
        return env if env is not None else fallback

    return GlobalConfig(
        bitcap=pick(ns.bitcap, "SLOWPROV_BITCAP", DEFAULT_BUDGET.max_bit_length),
        stepcap=pick(ns.stepcap, "SLOWPROV_STEPCAP", DEFAULT_BUDGET.max_steps),
        model_size=pick(ns.max_model_size, "SLOWPROV_MODELSIZE", 5),
        proof_depth=pick(ns.max_proof_depth, None, 4),
        seed=ns.seed if ns.seed is not None else 0,
        json=ns.json,
        strict=ns.strict,
        bits=ns.bits,
    )


def _emit(cfg: GlobalConfig, record: dict, lines) -> None:
    if cfg.json:
        print(json.dumps(record, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _compact(o) -> str:
    return render_ordinal(o).replace(" ", "")


def _parse_ord(text: str):
    try:
        return parse_ordinal(text)
    except OrdinalError as e:
        raise CliError(2, f"bad ordinal {text!r}: {e}")


def _parse_modal(text: str):
    from .modal.formula import ParseError as FormulaParseError, parse_formula
    try:
        return parse_formula(text)
    except FormulaParseError as e:
        raise CliError(2, f"bad formula {text!r}: {e}")


def _load_model(path: str):
    from .modal.kripke import ModelError, model_from_dict
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise CliError(4, f"cannot read model file: {e}")
    except json.JSONDecodeError as e:
        raise CliError(4, f"model file is not JSON: {e}")
    try:
        return model_from_dict(raw)
    except ModelError as e:
        raise CliError(4, f"invalid model file: {e}")


# ---------------------------------------------------------------------------
# ord


def _cmd_ord(cfg: GlobalConfig, ns) -> int:
    if ns.sub in ("cmp", "add", "mul"):
        a, b = _parse_ord(ns.a), _parse_ord(ns.b)
        if ns.sub == "cmp":
            word = {Cmp.GREATER: "GT", Cmp.LESS: "LT", Cmp.EQUAL: "EQ"}[compare(a, b)]
            _emit(cfg, {"result": word}, [word])
            return 0
        op = ord_add if ns.sub == "add" else ord_mul
        text = render_ordinal(op(a, b))
        _emit(cfg, {"result": text}, [text])
        return 0

    if ns.sub == "fundseq":
        text = render_ordinal(fund_seq(_parse_ord(ns.limit), ns.n))
        _emit(cfg, {"result": text}, [text])
        return 0

    # stepdown
    start = _parse_ord(ns.a)
    target = _parse_ord(ns.target) if ns.target is not None else ZERO
    res = stepdown_path(start, ns.n, target, ns.max_steps)
    if isinstance(res, Reached):
        path = [_compact(o) for o in res.path]
        _emit(cfg, {"verdict": "REACHED", "steps": res.steps, "path": path},
              [f"REACHED r={res.steps}: {','.join(path)}"])
    elif isinstance(res, NotOnPath):
        below = _compact(res.undershoot)
        _emit(cfg, {"verdict": "NOT-ON-PATH", "steps": res.steps, "below": below},
              [f"NOT-ON-PATH r={res.steps}: {below}"])
    else:
        assert isinstance(res, StepBudgetExceeded)
        last = _compact(res.partial_path[-1])
        _emit(cfg, {"verdict": "STOPPED", "steps": res.steps, "at": last},
              [f"STOPPED r={res.steps}: {last}"])
    return 0


# ---------------------------------------------------------------------------
# fgh


def _decimal(v: int):
    """v in decimal; None past the cutoff or past Python's int-to-string limit."""
    try:
        return str(v) if v.bit_length() <= _DECIMAL_BIT_CUTOFF else None
    except ValueError:
        # str() refuses an int past sys.get_int_max_str_digits()
        return None


def _value_text(cfg: GlobalConfig, v: int) -> str:
    text = None if cfg.bits else _decimal(v)
    return f"bits={v.bit_length()}" if text is None else text


def _value_record(cfg: GlobalConfig, v: int) -> dict:
    rec = {"verdict": "VALUE", "bits": v.bit_length()}
    text = _decimal(v)
    if text is not None:
        rec["decimal"] = text
    return rec


def _emit_eval_result(cfg: GlobalConfig, res) -> int:
    if isinstance(res, Value):
        _emit(cfg, _value_record(cfg, res.v), [_value_text(cfg, res.v)])
        return 0
    assert isinstance(res, BudgetExceeded)
    # largest_intermediate_bit_length is the widest value built or refused;
    # when the successor guard stops the run it is only a lower bound on the
    # refused width (the bit cap plus one). A width that does not print in
    # decimal, reachable only under a huge --bitcap, falls back to its own
    # bit length instead of serializing the raw integer.
    largest = res.largest_intermediate_bit_length
    if _decimal(largest) is not None:
        largest_field = largest
    else:
        largest_field = f"bits={largest.bit_length()}"
    _emit(cfg, {"verdict": "BUDGET", "steps_used": res.steps_used,
                "largest_bits": largest_field},
          ["BUDGET"])
    return 3 if cfg.strict else 0


def _cmd_fgh(cfg: GlobalConfig, ns) -> int:
    for name in {"cmpto": ("n", "threshold"), "shift": ("x",)}.get(ns.sub, ("n",)):
        if getattr(ns, name) < 0:
            raise CliError(2, f"{name} must be nonnegative, got {getattr(ns, name)}")
    budget = cfg.budget()
    if ns.sub == "eval":
        return _emit_eval_result(cfg, eval_F(_parse_ord(ns.a), ns.n, budget))

    if ns.sub == "shift":
        return _emit_eval_result(cfg, eval_F_shifted(ns.z, ns.x, budget))

    if ns.sub == "cmpto":
        res = compare_F_to(_parse_ord(ns.a), ns.n, ns.threshold, budget)
        if isinstance(res, GT):
            _emit(cfg, {"verdict": "GT"}, ["GT"])
            return 0
        if isinstance(res, LE):
            _emit(cfg, {"verdict": "LE", "value": _value_record(cfg, res.v)},
                  [f"LE {_value_text(cfg, res.v)}"])
            return 0
        return _emit_eval_result(cfg, res)

    if ns.sub == "l":
        try:
            value = slow_l(ns.n, budget)
        except Undecided:
            _emit(cfg, {"verdict": "BUDGET"}, ["BUDGET"])
            return 3 if cfg.strict else 0
        _emit(cfg, {"verdict": "VALUE", "value": value}, [str(value)])
        return 0

    # r
    try:
        return _emit_eval_result(cfg, slow_r(ns.n, budget))
    except Undecided:
        _emit(cfg, {"verdict": "BUDGET"}, ["BUDGET"])
        return 3 if cfg.strict else 0


# ---------------------------------------------------------------------------
# modal


def _cmd_modal(cfg: GlobalConfig, ns) -> int:
    from .modal.decide import (Countermodel, Inconclusive, Theorem, ValidOnAllEnumerated,
                               gl2_decide, gl_decide, glt_decide)
    from .modal.kripke import (GL, GL2, GLT, ModelError, Ok, SemanticsMismatch, eval_formula,
                               model_to_dict, validate_model)
    from .modal.proofs import (Ok as ProofOk, ProofError, check_proof, proof_from_dict,
                               proof_to_dict)
    if ns.sub == "decide":
        for name, bound in (("model size", cfg.model_size), ("proof depth", cfg.proof_depth)):
            if ns.system != "gl" and bound < 0:
                raise CliError(2, f"{name} must be nonnegative, got {bound}")
        a = _parse_modal(ns.formula)
        try:
            if ns.system == "gl":
                outcome = gl_decide(a)
            elif ns.system == "glt":
                outcome = glt_decide(a, max_model_size=cfg.model_size,
                                     max_proof_depth=cfg.proof_depth)
            else:
                outcome = gl2_decide(a, max_model_size=cfg.model_size,
                                     max_proof_depth=cfg.proof_depth)
        except SemanticsMismatch as e:
            raise CliError(4, str(e))
        if isinstance(outcome, Theorem):
            ev = outcome.evidence
            if isinstance(ev, ValidOnAllEnumerated):
                rec = {"verdict": "THEOREM", "models_checked": ev.models_checked}
            else:
                rec = {"verdict": "THEOREM", "proof": proof_to_dict(ev)}
            _emit(cfg, rec, ["THEOREM"])
        elif isinstance(outcome, Countermodel):
            dump = model_to_dict(outcome.model)
            _emit(cfg, {"verdict": "COUNTERMODEL", "world": outcome.world,
                        "model": dump},
                  ["COUNTERMODEL", f"world={outcome.world}",
                   json.dumps(dump, sort_keys=True, indent=2)])
        else:
            assert isinstance(outcome, Inconclusive)
            _emit(cfg, {"verdict": "INCONCLUSIVE",
                        "max_model_size": outcome.max_model_size,
                        "max_proof_depth": outcome.max_proof_depth},
                  [f"INCONCLUSIVE bound={outcome.max_model_size}"])
        return 0

    if ns.sub == "eval":
        m = _load_model(ns.modelfile)
        a = _parse_modal(ns.formula)
        try:
            value = eval_formula(m, ns.world, a, {"gl": GL, "glt": GLT, "gl2": GL2}[ns.sem])
        except (ModelError, SemanticsMismatch) as e:
            raise CliError(4, str(e))
        _emit(cfg, {"result": value}, ["true" if value else "false"])
        return 0

    if ns.sub == "checkmodel":
        m = _load_model(ns.modelfile)
        a = _parse_modal(ns.formula)
        verdict = validate_model(m, a)
        if isinstance(verdict, Ok):
            _emit(cfg, {"verdict": "OK"}, ["OK"])
        else:
            _emit(cfg, {"verdict": "VIOLATION", "condition": verdict.condition,
                        "detail": verdict.detail},
                  [f"VIOLATION condition={verdict.condition}: {verdict.detail}"])
        return 0

    # checkproof
    try:
        with open(ns.prooffile, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise CliError(2, f"cannot read proof file: {e}")
    except json.JSONDecodeError as e:
        raise CliError(2, f"proof file is not JSON: {e}")
    try:
        proof = proof_from_dict(raw)
        verdict = check_proof(proof)
    except ProofError as e:
        raise CliError(2, str(e))
    if isinstance(verdict, ProofOk):
        _emit(cfg, {"verdict": "OK"}, ["OK"])
    else:
        _emit(cfg, {"verdict": "ERROR", "line": verdict.line,
                    "reason": verdict.reason},
              [f"ERROR line={verdict.line} {verdict.reason}"])
    return 0


# ---------------------------------------------------------------------------
# iter


def _cmd_iter(cfg: GlobalConfig, ns) -> int:
    try:
        if ns.sub == "normalize":
            text = render_iter(normalize(parse_iter(ns.expr),
                                         collapse_under_box=ns.collapse_under_box))
            _emit(cfg, {"result": text}, [text])
        else:
            word = entails(parse_iter(ns.e1), parse_iter(ns.e2)).value
            _emit(cfg, {"result": word}, [word])
    except IterParseError as e:
        raise CliError(2, f"bad expression: {e}")
    return 0


# ---------------------------------------------------------------------------
# dev


_SELF_CHECK_INSTANCES = (
    "[.](p -> q) -> ([.]p -> [.]q)",
    "[.]([.]p -> p) -> [.]p",
    "[](p -> q) -> ([]p -> []q)",
    "[.]p -> []p",
    "[.]p -> [.][.]p",
    "[.]p -> [][.]p",
    "[]p -> [.][]p",
)


def _cmd_dev(cfg: GlobalConfig, ns) -> int:
    from .modal.kripke import GLT, ModelError, model_to_dict, random_a_sound_model, valid_on_model
    if cfg.model_size < 1:
        raise CliError(2, f"model size must be at least 1, got {cfg.model_size}")
    rng = random.Random(cfg.seed)
    checked = 0
    for text in _SELF_CHECK_INSTANCES:
        a = _parse_modal(text)
        for _ in range(ns.count):
            try:
                m = random_a_sound_model(rng, a, max_size=min(cfg.model_size, 8))
            except ModelError:
                _emit(cfg, {"verdict": "FAIL", "instance": text,
                            "reason": "generator produced an invalid model"},
                      [f"FAIL {text!r}: generator produced an invalid model"])
                return 1
            if not valid_on_model(m, a, GLT):
                _emit(cfg, {"verdict": "FAIL", "instance": text,
                            "model": model_to_dict(m)},
                      [f"FAIL {text!r}: instance false on a sampled model"])
                return 1
            checked += 1
    _emit(cfg, {"verdict": "OK", "checked": checked}, [f"OK checked={checked}"])
    return 0


# ---------------------------------------------------------------------------
# parser wiring


class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser
        self.message = message


class _Parser(argparse.ArgumentParser):
    """Hands usage errors to `main`, which reports them the way --json asks;
    subparsers inherit the class."""

    def error(self, message):
        raise _UsageError(self, message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="slowprov",
        description="ordinal arithmetic, slow-growing provability functions, "
                    "bimodal deciders, and the iterated-operator calculus")
    p.add_argument("--bitcap", type=int, default=None,
                   help="value-size cap in bits (env SLOWPROV_BITCAP)")
    p.add_argument("--stepcap", type=int, default=None,
                   help="evaluation step cap (env SLOWPROV_STEPCAP)")
    p.add_argument("--max-model-size", type=int, default=None,
                   help="countermodel search bound for glt and gl2; gl sizes "
                        "its search from the formula (env SLOWPROV_MODELSIZE)")
    p.add_argument("--max-proof-depth", type=int, default=None,
                   help="proof search round bound")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for randomized subcommands")
    p.add_argument("--json", action="store_true",
                   help="emit one JSON record instead of plain text")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when a budget is exhausted")
    p.add_argument("--bits", action="store_true",
                   help="always print bit lengths instead of decimals")

    groups = p.add_subparsers(dest="group", required=True)

    g = groups.add_parser("ord", help="ordinal arithmetic below epsilon_0")
    subs = g.add_subparsers(dest="sub", required=True)
    for name in ("cmp", "add", "mul"):
        s = subs.add_parser(name)
        s.add_argument("a")
        s.add_argument("b")
    s = subs.add_parser("fundseq")
    s.add_argument("limit")
    s.add_argument("n", type=int)
    s = subs.add_parser("stepdown")
    s.add_argument("a")
    s.add_argument("n", type=int)
    s.add_argument("--target", default=None)
    s.add_argument("--max-steps", type=int, default=10_000)

    g = groups.add_parser("fgh", help="budgeted fast-growing hierarchy")
    subs = g.add_subparsers(dest="sub", required=True)
    s = subs.add_parser("eval")
    s.add_argument("a")
    s.add_argument("n", type=int)
    s = subs.add_parser("cmpto")
    s.add_argument("a")
    s.add_argument("n", type=int)
    s.add_argument("threshold", type=int)
    s = subs.add_parser("shift")
    s.add_argument("z", type=int)
    s.add_argument("x", type=int)
    for name in ("l", "r"):
        s = subs.add_parser(name)
        s.add_argument("n", type=int)

    g = groups.add_parser("modal", help="bimodal provability logics")
    subs = g.add_subparsers(dest="sub", required=True)
    s = subs.add_parser("decide")
    s.add_argument("system", choices=("gl", "glt", "gl2"))
    s.add_argument("formula")
    s = subs.add_parser("eval")
    s.add_argument("modelfile")
    s.add_argument("world")
    s.add_argument("formula")
    s.add_argument("--sem", choices=("gl", "glt", "gl2"), default="glt")
    s = subs.add_parser("checkmodel")
    s.add_argument("modelfile")
    s.add_argument("formula")
    s = subs.add_parser("checkproof")
    s.add_argument("prooffile")

    g = groups.add_parser("iter", help="iterated operator calculus")
    subs = g.add_subparsers(dest="sub", required=True)
    s = subs.add_parser("normalize")
    s.add_argument("expr")
    s.add_argument("--collapse-under-box", action="store_true")
    s = subs.add_parser("entails")
    s.add_argument("e1")
    s.add_argument("e2")

    g = groups.add_parser("dev", help="development self-checks")
    subs = g.add_subparsers(dest="sub", required=True)
    s = subs.add_parser("oracles")
    s.add_argument("--count", type=int, default=25)

    return p


_DISPATCH = {
    "ord": _cmd_ord,
    "fgh": _cmd_fgh,
    "modal": _cmd_modal,
    "iter": _cmd_iter,
    "dev": _cmd_dev,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        ns = build_parser().parse_args(argv)
    except _UsageError as e:
        head = argv[:argv.index("--")] if "--" in argv else argv
        if "--json" not in head:
            # argparse's own report: usage and message on stderr, exit 2
            argparse.ArgumentParser.error(e.parser, e.message)
        print(json.dumps({"error": e.message, "exit": 2}, sort_keys=True))
        return 2
    try:
        cfg = _resolve_config(ns)
        return _DISPATCH[ns.group](cfg, ns)
    except (CliError, OrdinalError, IterError) as e:
        # the kernel's and the calculus's own errors are out-of-range input
        code = e.code if isinstance(e, CliError) else 2
        if getattr(ns, "json", False):
            print(json.dumps({"error": str(e), "exit": code}, sort_keys=True))
        else:
            print(f"error: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
