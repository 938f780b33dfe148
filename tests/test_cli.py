import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from slowprov.cli import _SELF_CHECK_INSTANCES, main
from slowprov.modal import kripke
from slowprov.modal.formula import MAX_FORMULA_DEPTH, render_formula
from slowprov.modal.kripke import model_from_dict
from slowprov.modal.proofs import proof_from_dict
from modal_corpus import NESTINGS, nested, random_formula


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


VALID_MODEL = {
    "worlds": ["a", "b"],
    "root": "a",
    "prec": [["a", "b"]],
    "precR": [],
    "val": {"p": ["b"]},
}


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(VALID_MODEL))
    return str(path)


class TestOrd:
    def test_fundseq(self, capsys):
        assert run(capsys, "ord", "fundseq", "e0", "0") == (0, "w\n", "")

    def test_cmp(self, capsys):
        assert run(capsys, "ord", "cmp", "w^w", "w*9+7") == (0, "GT\n", "")
        assert run(capsys, "ord", "cmp", "1", "w")[1] == "LT\n"
        assert run(capsys, "ord", "cmp", "w+w", "w*2")[1] == "EQ\n"

    def test_add_mul(self, capsys):
        assert run(capsys, "ord", "add", "1", "w")[1] == "w\n"
        assert run(capsys, "ord", "mul", "w", "w")[1] == "w^2\n"

    def test_stepdown_reached(self, capsys):
        code, out, _ = run(capsys, "ord", "stepdown", "w", "2", "--target", "0")
        assert code == 0
        assert out == "REACHED r=4: w,3,2,1,0\n"

    def test_stepdown_stopped(self, capsys):
        code, out, _ = run(capsys, "ord", "stepdown", "w*2", "1",
                           "--max-steps", "2")
        assert code == 0
        assert out.startswith("STOPPED r=2:")

    def test_stepdown_not_on_path(self, capsys):
        # descending from w at n=2 passes through 3, never 4
        code, out, _ = run(capsys, "ord", "stepdown", "w", "2", "--target", "4")
        assert code == 0
        assert out.startswith("NOT-ON-PATH")

    def test_parse_error_is_exit_2(self, capsys):
        code, out, err = run(capsys, "ord", "cmp", "w^", "w")
        assert code == 2 and out == "" and "bad ordinal" in err

    def test_epsilon_arithmetic_is_exit_2(self, capsys):
        code, _, err = run(capsys, "ord", "add", "e0", "1")
        assert code == 2 and "epsilon_0" in err


class TestFgh:
    def test_eval_closed_form(self, capsys):
        assert run(capsys, "fgh", "eval", "1", "4") == (0, "9\n", "")

    def test_l_and_r(self, capsys):
        assert run(capsys, "fgh", "l", "5")[1] == "2\n"
        assert run(capsys, "fgh", "r", "1")[1] == "3\n"

    def test_l_far_out(self, capsys):
        assert run(capsys, "fgh", "l", "1000000") == (0, "2\n", "")

    def test_r_budget_is_success_by_default(self, capsys):
        assert run(capsys, "fgh", "r", "3") == (0, "BUDGET\n", "")

    def test_r_budget_strict(self, capsys):
        code, out, _ = run(capsys, "--strict", "fgh", "r", "3")
        assert code == 3 and out == "BUDGET\n"

    def test_budget_record_reports_guard_lower_bound(self, capsys):
        # the successor guard refuses F at w of F_3(2) and reports the bit
        # cap plus one, a lower bound on the refused width
        code, out, _ = run(capsys, "--json", "fgh", "eval", "w+1", "2")
        assert code == 0
        assert json.loads(out) == {"verdict": "BUDGET", "steps_used": 10,
                                   "largest_bits": 2 ** 29 + 1}

    def test_bits_flag(self, capsys):
        assert run(capsys, "--bits", "fgh", "eval", "2", "12")[1] == "bits=17\n"

    def test_cmpto(self, capsys):
        assert run(capsys, "fgh", "cmpto", "w", "3", "100")[1] == "GT\n"
        assert run(capsys, "fgh", "cmpto", "2", "3", "100000")[1] == "LE 63\n"

    def test_shift_truncates_at_zero(self, capsys):
        assert run(capsys, "fgh", "shift", "3", "3") == (0, "1\n", "")

    def test_env_bitcap(self, capsys, monkeypatch):
        monkeypatch.setenv("SLOWPROV_BITCAP", "10")
        assert run(capsys, "fgh", "eval", "2", "12")[1] == "BUDGET\n"

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SLOWPROV_BITCAP", "10")
        assert run(capsys, "--bitcap", "1000000", "fgh", "eval", "2", "12")[1] == "106495\n"
        monkeypatch.setenv("SLOWPROV_BITCAP", "1000000")
        assert run(capsys, "--bitcap", "10", "fgh", "eval", "2", "12")[1] == "BUDGET\n"

    def test_env_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("SLOWPROV_STEPCAP", "lots")
        code, _, err = run(capsys, "fgh", "eval", "1", "1")
        assert code == 2 and "SLOWPROV_STEPCAP" in err


class TestModal:
    def test_decide_theorem(self, capsys):
        assert run(capsys, "modal", "decide", "glt", "[.]p -> []p")[1] == "THEOREM\n"
        assert run(capsys, "modal", "decide", "gl2", "[]p <-> [.][.]p")[1] == "THEOREM\n"
        assert run(capsys, "modal", "decide", "gl",
                   "[]([]p -> p) -> []p")[1] == "THEOREM\n"

    def test_decide_countermodel_dump_loads_back(self, capsys):
        code, out, _ = run(capsys, "modal", "decide", "glt", "[]p -> [.]p")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "COUNTERMODEL"
        assert lines[1].startswith("world=")
        m = model_from_dict(json.loads("\n".join(lines[2:])))
        assert len(m.worlds) <= 2

    def test_decide_inconclusive_prints_bound(self, capsys):
        code, out, _ = run(capsys, "--max-model-size", "2", "modal", "decide",
                           "glt", "<.>p -> <.>true")
        assert code == 0 and out == "INCONCLUSIVE bound=2\n"

    def test_triangle_under_gl_is_exit_4(self, capsys):
        code, _, err = run(capsys, "modal", "decide", "gl", "[.]p")
        assert code == 4 and "box-only" in err

    def test_bad_formula_is_exit_2(self, capsys):
        assert run(capsys, "modal", "decide", "gl", "p & ")[0] == 2

    def test_eval(self, capsys, model_file):
        assert run(capsys, "modal", "eval", model_file, "a", "[]p",
                   "--sem", "glt")[1] == "true\n"
        assert run(capsys, "modal", "eval", model_file, "a", "p",
                   "--sem", "gl")[1] == "false\n"

    def test_eval_unknown_world_is_exit_4(self, capsys, model_file):
        assert run(capsys, "modal", "eval", model_file, "zz", "p")[0] == 4

    def test_bad_model_file_is_exit_4(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert run(capsys, "modal", "eval", str(path), "a", "p")[0] == 4
        path.write_text(json.dumps({"worlds": ["a"]}))
        assert run(capsys, "modal", "checkmodel", str(path), "p")[0] == 4

    @pytest.mark.parametrize("field, value", [
        ("worlds", ["a", ["x"]]),
        ("root", {}),
        ("prec", [[["a"], "b"]]),
        ("precR", [["a", {}]]),
        ("val", {"p": [["b"]]}),
        ("val", {"p": ["b", 3]}),
    ])
    def test_malformed_model_entry_is_one_exit_4(self, capsys, tmp_path, field, value):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(dict(VALID_MODEL, **{field: value})))
        for args in (("modal", "checkmodel", str(path), "p"),
                     ("modal", "eval", str(path), "a", "p", "--sem", "glt")):
            code, out, err = run(capsys, *args)
            assert (code, out) == (4, "")
            assert err.startswith("error: invalid model file: ") and err.count("\n") == 1
            code, out, err = run(capsys, "--json", *args)
            assert code == 4 and out.count("\n") == 1
            record = json.loads(out)
            assert record["exit"] == 4
            assert record["error"].startswith("invalid model file: ")

    def test_checkmodel_ok(self, capsys, model_file):
        assert run(capsys, "modal", "checkmodel", model_file, "p") == (0, "OK\n", "")

    def test_checkmodel_violation(self, capsys, tmp_path):
        bad = dict(VALID_MODEL, precR=[["a", "b"]], val={"p": []})
        path = tmp_path / "m.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run(capsys, "modal", "checkmodel", str(path), "[.]p -> p")
        assert code == 0
        assert out.startswith("VIOLATION condition=")

    def test_checkproof_ok(self, capsys, tmp_path):
        path = tmp_path / "pf.json"
        path.write_text(json.dumps({
            "system": "GLT",
            "lines": [{"formula": "[.]p -> []p", "rule": "AxT1"}],
        }))
        assert run(capsys, "modal", "checkproof", str(path)) == (0, "OK\n", "")

    def test_checkproof_error_line(self, capsys, tmp_path):
        path = tmp_path / "pf.json"
        path.write_text(json.dumps({
            "system": "GL",
            "lines": [{"formula": "p", "rule": "Nec_box"}],
        }))
        code, out, _ = run(capsys, "modal", "checkproof", str(path))
        assert code == 0
        assert out.startswith("ERROR line=1 ")

    def test_checkproof_unloadable_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "pf.json"
        path.write_text(json.dumps({"system": "GL"}))
        assert run(capsys, "modal", "checkproof", str(path))[0] == 2


class TestIter:
    def test_normalize_examples(self, capsys):
        assert run(capsys, "iter", "normalize", "S2^w p") == (0, "B p\n", "")
        assert run(capsys, "iter", "normalize", "R R p")[1] == "B p\n"
        assert run(capsys, "iter", "normalize", "S1^e0 p")[1] == "B p\n"
        assert run(capsys, "iter", "normalize", "B^2 B^w p")[1] == "B^w+2 p\n"

    def test_collapse_flag(self, capsys):
        out = run(capsys, "iter", "normalize", "B S1^w p",
                  "--collapse-under-box")[1]
        assert out == "B p\n"

    def test_entails(self, capsys):
        assert run(capsys, "iter", "entails", "B p", "S1 p")[1] == "UNKNOWN\n"
        assert run(capsys, "iter", "entails", "S1 p", "B p")[1] == "YES\n"

    def test_bad_expression_is_exit_2(self, capsys):
        assert run(capsys, "iter", "normalize", "R^w p")[0] == 2
        assert run(capsys, "iter", "normalize", "B B^e0 p")[0] == 2


class TestJsonMode:
    def single_record(self, capsys, *args):
        code, out, _ = run(capsys, "--json", *args)
        lines = out.splitlines()
        assert len(lines) == 1
        return code, json.loads(lines[0])

    # each nesting level once cost Python recursion frames in the parser,
    # compare and render, so these ended in a RecursionError traceback
    @staticmethod
    def tower(height):
        return "w^(" * (height - 2) + "w^w" + ")" * (height - 2)

    @pytest.mark.parametrize("n", [330, 5000])
    def test_deep_fundseq(self, capsys, n):
        code, rec = self.single_record(capsys, "ord", "fundseq", "e0", str(n))
        assert code == 0 and rec == {"result": self.tower(n + 1)}

    @pytest.mark.parametrize("n", [400, 5000])
    def test_deep_stepdown(self, capsys, n):
        code, rec = self.single_record(capsys, "ord", "stepdown", "e0", str(n), "--max-steps", "2")
        assert code == 0 and rec["verdict"] == "STOPPED" and rec["steps"] == 2

    @pytest.mark.parametrize("height", [400, 5000])
    def test_deep_cmp(self, capsys, height):
        code, rec = self.single_record(capsys, "ord", "cmp", self.tower(height), "w")
        assert code == 0 and rec == {"result": "GT"}

    def test_eval_record(self, capsys):
        code, rec = self.single_record(capsys, "fgh", "eval", "2", "4")
        assert code == 0
        assert rec == {"verdict": "VALUE", "bits": 8, "decimal": "159"}

    def test_countermodel_record_roundtrips(self, capsys):
        code, rec = self.single_record(capsys, "modal", "decide", "gl", "<>true")
        assert code == 0 and rec["verdict"] == "COUNTERMODEL"
        m = model_from_dict(rec["model"])
        assert rec["world"] in m.worlds

    def test_boxed_loeb_under_gl2_is_one_record(self, capsys):
        code, rec = self.single_record(capsys, "modal", "decide", "gl2",
                                       "[]([]p -> p) -> []p")
        assert code == 0 and rec["verdict"] == "INCONCLUSIVE"

    def test_theorem_record_carries_replayable_proof(self, capsys):
        code, rec = self.single_record(capsys, "modal", "decide", "glt",
                                       "[.]p -> []p")
        assert code == 0 and rec["verdict"] == "THEOREM"
        proof_from_dict(rec["proof"])

    @pytest.mark.parametrize("formula", ["p ->", 5], ids=["unparsable", "not-a-string"])
    def test_malformed_proof_formula_is_exit_2(self, capsys, tmp_path, formula):
        path = tmp_path / "pf.json"
        path.write_text(json.dumps({
            "system": "GL", "lines": [{"formula": formula, "rule": "Taut"}]}))
        code, rec = self.single_record(capsys, "modal", "checkproof", str(path))
        assert code == 2
        assert rec["exit"] == 2 and rec["error"].startswith("line 1: ")

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_oracles_below_one_world_is_exit_2(self, capsys, monkeypatch, size):
        code, rec = self.single_record(capsys, "--max-model-size", size, "dev", "oracles")
        assert code == 2 and rec == {"error": f"model size must be at least 1, got {size}",
                                     "exit": 2}
        monkeypatch.setenv("SLOWPROV_MODELSIZE", size)
        assert self.single_record(capsys, "dev", "oracles") == (code, rec)

    @pytest.mark.parametrize("system", ["glt", "gl2"])
    @pytest.mark.parametrize("flag, env, name", [
        ("--max-model-size", "SLOWPROV_MODELSIZE", "model size"),
        ("--max-proof-depth", None, "proof depth"),
    ])
    def test_negative_modal_bound_is_exit_2(self, capsys, monkeypatch, system, flag, env, name):
        args = ("modal", "decide", system, "p")
        message = f"{name} must be nonnegative, got -1"
        assert run(capsys, flag, "-1", *args) == (2, "", f"error: {message}\n")
        code, rec = self.single_record(capsys, flag, "-1", *args)
        assert code == 2 and rec == {"error": message, "exit": 2}
        if env:
            monkeypatch.setenv(env, "-1")
            assert self.single_record(capsys, *args) == (code, rec)
        # 0 is a bound: proof search only, or no closure rounds
        assert run(capsys, flag, "0", *args)[0] == 0

    @pytest.mark.parametrize("start", ["3", "w"])
    def test_negative_stepdown_index_is_exit_2(self, capsys, start):
        # from 3 the walk meets no limit, and once printed REACHED with exit 0
        message = "sequence index must be a nonnegative integer"
        assert run(capsys, "ord", "stepdown", start, "-1") == (2, "", f"error: {message}\n")
        code, rec = self.single_record(capsys, "ord", "stepdown", start, "-1")
        assert code == 2 and rec == {"error": message, "exit": 2}

    @pytest.mark.parametrize("shape, n", [("not", 2000), ("parens", 300)])
    def test_too_deep_formula_is_exit_2(self, capsys, shape, n):
        code, rec = self.single_record(capsys, "modal", "decide", "glt", nested(shape, n))
        assert code == 2 and f"deeper than {MAX_FORMULA_DEPTH}" in rec["error"]

    @pytest.mark.parametrize("shape", NESTINGS)
    def test_formula_at_the_nesting_limit(self, capsys, tmp_path, model_file, shape):
        text = nested(shape, MAX_FORMULA_DEPTH)
        proof = tmp_path / "pf.json"
        proof.write_text(json.dumps({"system": "GLT", "lines": [{"formula": text, "rule": "Taut"}]}))
        runs = [("--max-model-size", "1", "modal", "decide", system, text)
                for system in ("gl", "glt", "gl2")]
        runs += [("modal", "eval", model_file, "a", text, "--sem", sem) for sem in ("gl", "glt", "gl2")]
        runs += [("modal", "checkmodel", model_file, text), ("modal", "checkproof", str(proof))]
        for args in runs:
            code, rec = self.single_record(capsys, *args)
            assert code == (4 if shape == "triangle" and "gl" in args else 0), (args, rec)

    def test_error_record(self, capsys):
        code, rec = self.single_record(capsys, "ord", "cmp", "w^", "w")
        assert code == 2
        assert rec["exit"] == 2 and "bad ordinal" in rec["error"]

    @pytest.mark.parametrize("args", [
        ("eval", "2", "--", "-3"),
        ("l", "--", "-1"),
        ("r", "--", "-1"),
        ("cmpto", "2", "--", "-3", "5"),
        ("cmpto", "2", "3", "--", "-1"),
        ("shift", "2", "--", "-3"),
    ])
    def test_negative_fgh_argument_is_exit_2(self, capsys, args):
        code, rec = self.single_record(capsys, "fgh", *args)
        assert code == 2
        assert rec["exit"] == 2 and "must be nonnegative" in rec["error"]

    def test_l_far_out_record(self, capsys):
        assert self.single_record(capsys, "fgh", "l", "1000000") == \
            (0, {"value": 2, "verdict": "VALUE"})

    @pytest.mark.parametrize("args, message", [
        (("fgh", "eval", "w", "x"), "argument n: invalid int value: 'x'"),
        (("fgh", "foo"), "argument sub: invalid choice: 'foo'"),
        (("fgh", "eval", "w"), "the following arguments are required: n"),
    ], ids=["bad-int", "unknown-subcommand", "missing-argument"])
    def test_usage_error_record(self, capsys, args, message):
        code, out, err = run(capsys, "--json", *args)
        assert code == 2 and err == ""
        rec = json.loads(out)
        assert out.count("\n") == 1
        assert rec["exit"] == 2 and rec["error"].startswith(message)
        assert set(rec) == {"error", "exit"}

    def test_stepdown_record(self, capsys):
        code, rec = self.single_record(capsys, "ord", "stepdown", "w", "2")
        assert rec == {"verdict": "REACHED", "steps": 4,
                       "path": ["w", "3", "2", "1", "0"]}

    def test_iter_and_entails_records(self, capsys):
        assert self.single_record(capsys, "iter", "normalize", "S2^w p")[1] == \
            {"result": "B p"}
        assert self.single_record(capsys, "iter", "entails", "B p", "B^w p")[1] == \
            {"result": "YES"}

    # Python reads and prints ints of at most 4,300 digits; these once ended
    # in a ValueError traceback and exit 1
    READ, PRINT = "a number of more than 4300 digits cannot be read", \
        "a coefficient of more than 4300 digits cannot be printed"

    @pytest.mark.parametrize("args, message", [
        (("ord", "cmp", "w*" + "9" * 4301, "w"), READ),
        (("fgh", "eval", "w^" + "1" * 5000, "2"), READ),
        (("ord", "mul", "9" * 3000, "9" * 3000), PRINT),
        (("ord", "fundseq", "w", "9" * 4300), PRINT),
        (("iter", "normalize", f"B^w*{'9' * 4300} B^w*{'9' * 4300} p"), PRINT),
        (("ord", "stepdown", "w", "9" * 4300, "--target", "9" * 4300), PRINT),
    ], ids=["parse-cmp", "parse-fgh", "render-mul", "render-fundseq", "render-iter",
            "render-stepdown"])
    def test_number_past_the_digit_limit_is_exit_2(self, capsys, args, message):
        code, rec = self.single_record(capsys, *args)
        assert code == 2 and set(rec) == {"error", "exit"} and rec["exit"] == 2
        assert message in rec["error"]
        code, out, err = run(capsys, *args)
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err.startswith("error: ") and message in err


class TestUsageErrorsWithoutJson:
    def test_usage_text_on_stderr(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fgh", "eval", "w", "x"])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert out.err == ("usage: slowprov fgh eval [-h] a n\n"
                           "slowprov fgh eval: error: argument n: invalid int value: 'x'\n")

    def test_json_after_double_dash_is_not_a_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fgh", "eval", "w", "--", "--json", "3"])
        assert exc.value.code == 2 and capsys.readouterr().out == ""

    def test_help_is_unchanged_under_json(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--json", "--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0 and out.startswith("usage: slowprov")


# --- argv fuzz --------------------------------------------------------------

# A step of the machine or of a stepdown costs time in the nesting depth of
# the ordinal, not its size, but e0 at n still nests n levels deep and its
# steps render long ordinals; the caps keep every example within a second.
_BAD_INTS = ["x", "", "1.5", "0x1f", "7e2", "-", "-3"]
_NUMS = st.one_of(st.integers(0, 300).map(str), st.sampled_from(_BAD_INTS))
_ORDS = st.sampled_from(["0", "1", "2", "3", "w", "w+1", "w*2", "w^2", "w^w",
                         "w^(w^w)", "e0", "w^", "", "x", "e0+1", "ww"])
_POWER = st.one_of(st.just(""), _ORDS.map(lambda t: "^" + t))
_ITER = st.builds(
    lambda ops, atom: " ".join(ops + [atom]),
    st.lists(st.builds(lambda op, pw: op + pw,
                       st.sampled_from(["B", "S1", "S2", "R", "Q"]), _POWER), max_size=4),
    st.sampled_from(["p", "q1", "P", "^"]))

_MODEL = "MODEL"    # the fuzz model file, swapped in by the test
_FORMULAS = st.one_of(
    st.sampled_from(["p", "[]p -> [.]p", "[]([]p -> p) -> []p", "<.>p -> <.>true",
                     "p ->", "", "(p", "P", "5", nested("parens", MAX_FORMULA_DEPTH),
                     nested("implies", MAX_FORMULA_DEPTH), nested("not", 2000),
                     nested("parens", 300)]
                    + [nested(shape, MAX_FORMULA_DEPTH + 1) for shape in NESTINGS]),
    st.lists(st.sampled_from(["p", "q", "true", "false", "~", "[]", "<>", "[.]", "<.>",
                              "&", "|", "->", "<->", "(", ")"]), max_size=12).map(" ".join),
    st.integers(0, 2 ** 32).map(lambda seed: render_formula(random_formula(random.Random(seed), 3))))

_COMMANDS = st.one_of(
    st.tuples(st.just("ord"), st.sampled_from(["cmp", "add", "mul"]), _ORDS, _ORDS),
    st.tuples(st.just("ord"), st.just("fundseq"), _ORDS, _NUMS),
    st.tuples(st.just("ord"), st.just("stepdown"), _ORDS, _NUMS, st.just("--target"), _ORDS,
              st.just("--max-steps"), st.one_of(st.integers(0, 1000).map(str),
                                                st.sampled_from(_BAD_INTS))),
    st.tuples(st.just("fgh"), st.just("eval"), _ORDS, _NUMS),
    st.tuples(st.just("fgh"), st.just("cmpto"), _ORDS, _NUMS,
              st.one_of(_NUMS, st.integers(0, 2 ** 64).map(str))),
    st.tuples(st.just("fgh"), st.just("shift"), _NUMS, _NUMS),
    st.tuples(st.just("fgh"), st.sampled_from(["l", "r"]), _NUMS),
    st.tuples(st.just("iter"), st.just("normalize"), _ITER),
    st.tuples(st.just("iter"), st.just("normalize"), _ITER, st.just("--collapse-under-box")),
    st.tuples(st.just("iter"), st.just("entails"), _ITER, _ITER),
    # gl sizes its search from the formula and ignores --max-model-size
    st.tuples(st.just("modal"), st.just("decide"), st.sampled_from(["glt", "gl2"]), _FORMULAS),
    st.tuples(st.just("modal"), st.just("eval"), st.sampled_from([_MODEL, "missing.json"]),
              st.sampled_from(["a", "b", "zz"]), _FORMULAS, st.just("--sem"),
              st.sampled_from(["gl", "glt", "gl2", "x"])),
    st.tuples(st.just("modal"), st.just("checkmodel"), st.just(_MODEL), _FORMULAS),
    st.tuples(st.just("dev"), st.just("oracles"), st.just("--count"), st.integers(0, 3).map(str)),
    st.tuples(st.sampled_from(["ord", "fgh", "iter", "nope"]),
              st.sampled_from(["foo", "eval", "cmp", "normalize"])),
).map(list)


@st.composite
def _argvs(draw):
    flags = draw(st.lists(st.sampled_from(["--json", "--strict", "--bits"]), unique=True))
    caps = ["--stepcap", draw(st.one_of(st.integers(1, 2000).map(str), st.sampled_from(_BAD_INTS))),
            "--bitcap", draw(st.one_of(st.integers(1, 2 ** 16).map(str), st.sampled_from(_BAD_INTS))),
            "--max-model-size", draw(st.integers(-1, 2).map(str))]
    command = draw(_COMMANDS)
    keep = draw(st.integers(0, len(command)))
    if draw(st.booleans()):
        command = command[:keep]
    return flags + caps + command


@pytest.fixture(scope="module")
def fuzz_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "m.json"
    path.write_text(json.dumps(VALID_MODEL))
    return str(path)


@given(_argvs())
@settings(max_examples=150, deadline=None)
def test_every_argv_ends_in_a_documented_exit(fuzz_model, argv):
    argv = [fuzz_model if a == _MODEL else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    if "--json" in argv:
        lines = out.getvalue().splitlines()
        assert len(lines) == 1, (argv, lines)
        rec = json.loads(lines[0])
        assert isinstance(rec, dict)
        if code == 2:
            assert set(rec) == {"error", "exit"} and rec["exit"] == 2


SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(*args, **env):
    """stdout of python with these arguments in a fresh process that imports
    slowprov from this tree, under the environment plus env."""
    path = os.pathsep.join(filter(None, (str(SRC),
                                         os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path, **env)
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout


def run_hash_seeded(seed, *args):
    """stdout of slowprov in a fresh process under PYTHONHASHSEED=seed."""
    return run_fresh("-m", "slowprov.cli", *args, PYTHONHASHSEED=str(seed))


def test_cli_import_loads_no_modal_engine():
    # the ord, fgh and iter commands start without the modal engine, and
    # the deciders run without the oracles
    listing = ("import sys; print(sorted(m for m in sys.modules "
               "if m.startswith(('slowprov.modal', 'slowprov.oracles'))))")
    assert run_fresh("-c", "import slowprov.cli; " + listing) == "[]\n"
    loaded = run_fresh("-c", "import slowprov.modal.decide; " + listing)
    assert "'slowprov.modal.decide'" in loaded and "oracles" not in loaded


def test_value_past_a_lowered_int_digit_limit_prints_its_bit_length():
    # F_2(2200) has 2213 bits and 667 digits, under the decimal cutoff but
    # past a 640-digit int-to-string limit; this once ended in a ValueError
    # traceback and exit 1
    args = ("-m", "slowprov.cli", "fgh", "eval", "2", "2200")
    lines = run_fresh(*args[:2], "--json", *args[2:], PYTHONINTMAXSTRDIGITS="640").splitlines()
    assert [json.loads(line) for line in lines] == [{"bits": 2213, "verdict": "VALUE"}]
    assert run_fresh(*args, PYTHONINTMAXSTRDIGITS="640") == "bits=2213\n"


# the shared truth masks of the subformulas of seeded random formulas, four
# formulas at a time, and prove() on each under each system; argv[1] is the
# tests directory
PROVE_DUMP = """
import random, sys
sys.path.insert(0, sys.argv[1])
from modal_corpus import random_formula
from slowprov.modal.formula import render_formula, subformulas
from slowprov.modal.proofs import proof_to_dict, truth_masks
from slowprov.modal.prover import prove
rng = random.Random(5)
fs = [random_formula(rng, rng.randint(2, 4)) for _ in range(120)]
for i in range(0, len(fs), 4):
    print(truth_masks([g for f in fs[i:i + 4] for g in subformulas(f)]))
for f in fs:
    for system in ("GL", "GLT", "GL2"):
        p = prove(f, system)
        print(render_formula(f), system, p and proof_to_dict(p))
"""


class TestHashSeedIndependence:
    # Seeds 0 and 1 are a pair under which iterating sets of these strings
    # changes both outputs.
    def test_proof_lines(self):
        args = ("--json", "modal", "decide", "glt", "[.][.]p -> []p")
        first = run_hash_seeded(0, *args)
        assert json.loads(first)["verdict"] == "THEOREM"
        assert run_hash_seeded(1, *args) == first

    def test_prover_on_random_formulas(self):
        # the truth masks' columns past six atoms are seeded, never hash()
        args = ("-c", PROVE_DUMP, str(Path(__file__).resolve().parent))
        first = run_fresh(*args, PYTHONHASHSEED="0")
        assert first.count("'lines'") >= 30
        assert run_fresh(*args, PYTHONHASHSEED="1") == first

    def test_validation_detail(self, tmp_path):
        # a four-world chain missing three pairs that condition 3 demands
        worlds = ["w0", "w1", "w2", "w3"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "worlds": worlds, "root": "w0",
            "prec": [[x, y] for i, x in enumerate(worlds)
                     for y in worlds[i + 1:]],
            "precR": [["w1", "w2"], ["w2", "w3"]], "val": {}}))
        args = ("modal", "checkmodel", str(path), "p")
        first = run_hash_seeded(0, *args)
        assert first == "VIOLATION condition=3: (w0, w2) missing\n"
        assert run_hash_seeded(1, *args) == first


class TestDev:
    def test_oracles_selfcheck(self, capsys):
        code, out, _ = run(capsys, "dev", "oracles", "--count", "3")
        assert code == 0 and out == "OK checked=21\n"

    def test_seeded_runs_are_deterministic(self, capsys):
        first = run(capsys, "--seed", "9", "--json", "dev", "oracles",
                    "--count", "2")
        second = run(capsys, "--seed", "9", "--json", "dev", "oracles",
                     "--count", "2")
        assert first == second

    def test_generator_failure_is_one_fail_record(self, capsys, monkeypatch):
        def invalid(rng, a, max_size):
            raise kripke.ModelError("generator produced an invalid model: Violation")
        monkeypatch.setattr(kripke, "random_a_sound_model", invalid)
        first = _SELF_CHECK_INSTANCES[0]
        assert run(capsys, "--json", "dev", "oracles") == (1, json.dumps(
            {"instance": first, "reason": "generator produced an invalid model",
             "verdict": "FAIL"}, sort_keys=True) + "\n", "")
        assert run(capsys, "dev", "oracles") == (
            1, f"FAIL {first!r}: generator produced an invalid model\n", "")

    def test_false_instance_is_one_fail_record(self, capsys, monkeypatch):
        monkeypatch.setattr(kripke, "valid_on_model", lambda m, a, semantics: False)
        first = _SELF_CHECK_INSTANCES[0]
        code, out, _ = run(capsys, "--json", "dev", "oracles")
        rec = json.loads(out)
        assert code == 1 and out.count("\n") == 1
        assert set(rec) == {"instance", "model", "verdict"}
        assert rec["verdict"] == "FAIL" and rec["instance"] == first
        model_from_dict(rec["model"])
        assert run(capsys, "dev", "oracles") == (
            1, f"FAIL {first!r}: instance false on a sampled model\n", "")
