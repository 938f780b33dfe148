"""The slowprov benchmark: four workloads, checked outputs, traced layers.

    python3 bench/run.py --workload descent --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                      # every workload, default seed

Run from anywhere; the program is imported from ../src. One process drives
the load, one operation at a time (a closed loop with one client). With
--trace 0 it runs whole rounds of the workload's operations for about
--seconds, then checks every output and prints the end-to-end metrics. With
--trace 1 it runs untraced rounds for half of --seconds and then one traced
round, and prints the per-layer metrics of that round. The last line of
standard output is one JSON object; the exit code is 0 only when every
check passed. Result and trace files go to bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORKLOADS = ("descent", "hierarchy", "modal", "cli")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
SETUP_PROBES = 7
START_PROBES = 7

UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def _workload(name: str):
    return importlib.import_module("workload_" + name)


def setup_once(name: str, seed: int) -> float:
    """Seconds to import the workload (and so slowprov) and build its inputs."""
    t0 = time.perf_counter()
    mod = _workload(name)
    mod.build_ops(mod.generate(seed))
    return time.perf_counter() - t0


def _probe(argv) -> float:
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    return float(out.strip().splitlines()[-1])


def setup_seconds(name: str, seed: int) -> float:
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name,
            "--seed", str(seed)]
    return statistics.median(_probe(argv) for _ in range(SETUP_PROBES))


def run_checks(mod, ops, outputs) -> list:
    bad = []
    for name, check in mod.CHECKS:
        bad += [f"{name}: {msg}" for msg in check(ops, outputs)]
    return bad


def _per_kind(ops, rounds) -> dict:
    """Median time and share of a round per operation kind, for the result file."""
    n = len(ops)
    kinds = {}
    for i, op in enumerate(ops):
        kinds.setdefault(op.kind, []).extend(rounds.op_times[i::n])
    nrounds = len(rounds.round_walls)
    return {k: {"ops_per_round": len(v) // nrounds, "median_ms": statistics.median(v) * 1e3,
                "seconds_per_round": sum(v) / nrounds} for k, v in kinds.items()}


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    from harness import Failed, percentile, run_rounds, self_peak_rss_mb

    setup = setup_seconds(name, seed)
    mod = _workload(name)
    if name == "cli":
        runner = mod.Runner()
        ops = mod.build_ops(mod.generate(seed), runner)
    else:
        ops = mod.build_ops(mod.generate(seed))
    rounds = run_rounds(ops, seconds)
    peak = runner.peak_kb / 1024 if name == "cli" else self_peak_rss_mb()
    errors = run_checks(mod, ops, rounds.outputs)
    errors += [f"round {r} gave other outputs than round 1" for r in rounds.mismatches]
    metrics = {
        "setup_s": setup,
        "wall_s": statistics.median(rounds.round_walls),
        "op_p50_ms": statistics.median(rounds.op_times) * 1e3,
        "op_p90_ms": percentile(rounds.op_times, 90) * 1e3,
        "peak_rss_mb": peak,
    }
    detail = {"rounds": len(rounds.round_walls), "round_walls_s": rounds.round_walls,
              "per_kind": _per_kind(ops, rounds),
              "failed_ops": sorted({str(op.args[0]) for op, o in zip(ops, rounds.outputs)
                                    if isinstance(o, Failed)})}
    return _result(errors, rounds.attempted, rounds.failed,
                   {k: (v, UNITS[k]) for k, v in metrics.items()}, detail)


def _result(errors, attempted, failed, metrics, detail) -> dict:
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "errors": errors[:50], "detail": detail}


def _cli_main_list(calls) -> float:
    """Seconds for cli.main on every argv of a round, in this process."""
    import slowprov.cli as cli

    t0 = time.perf_counter()
    for argv, _, _ in calls:
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                cli.main(argv)
            except ValueError:   # the known uncaught errors of the failing calls
                pass
    return time.perf_counter() - t0


def _start_seconds(code: str) -> float:
    from workload_cli import Runner

    env = Runner().env
    times = []
    for _ in range(START_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def traced(name: str, seed: int, seconds: float) -> dict:
    from harness import run_round, run_rounds
    from tracer import Tracer

    mod = _workload(name)
    inputs = mod.generate(seed)
    ops = mod.build_ops(inputs)
    tracer = Tracer()
    cli = {}
    if name == "cli":
        rounds = run_rounds(ops, seconds / 2)
        errors = run_checks(mod, ops, rounds.outputs)
        _cli_main_list(inputs)    # warm up: first calls pay for lazy set-up
        untraced = statistics.median(_cli_main_list(inputs) for _ in range(3))
        tracer.install()
        try:
            traced_wall = _cli_main_list(inputs)
        finally:
            tracer.uninstall()
        start = _start_seconds("pass")
        cli = {"cli.import_s": _start_seconds("import slowprov.cli") - start,
               "cli.python_start_s": start, "cli.main_s": untraced}
    else:
        rounds = run_rounds(ops, seconds / 2)
        untraced = statistics.median(rounds.round_walls)
        tracer.install(extra_modules=[mod])
        try:
            times, outs, _ = run_round(ops)
        finally:
            tracer.uninstall()
        traced_wall = sum(times)
        errors = run_checks(mod, ops, rounds.outputs)
        if outs != rounds.outputs:
            errors.append("the traced round gave other outputs than the untraced ones")
    layers = tracer.layer_metrics()
    layers.update({k: cli.get(k, 0.0) for k in ("cli.import_s", "cli.python_start_s", "cli.main_s")})
    layers.update({"trace.untraced_wall_s": untraced, "trace.traced_wall_s": traced_wall,
                   "trace.overhead_s": traced_wall - untraced})
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{name}-seed{seed}-spans.json", "w") as fh:
        json.dump(tracer.dump(), fh)
    units = per_layer_units()
    return _result(errors, rounds.attempted, rounds.failed,
                   {k: (layers[k], units[k]) for k in units}, {})


def per_layer_units() -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def report(name: str, res: dict):
    for key, m in res["metrics"].items():
        print(f"{name}: {key} = {m['value']:.6g} {m['unit']}")
    print(f"{name}: ops attempted = {res['attempted']}, failed = {res['failed']}, "
          f"correct = {res['correct']}")
    for e in res["errors"]:
        print(f"{name}: CHECK FAILED {e}")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    res = traced(name, seed, seconds) if trace else end_to_end(name, seed, seconds)
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(res, fh, indent=1, default=str)
    report(name, res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if res["correct"] else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, so that each has its own peak RSS."""
    combined, code = {}, 0
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        p = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write("".join(line + "\n" for line in p.stdout.splitlines()[:-1]))
        code = code or p.returncode
        if p.returncode not in (0, 1):
            print(f"{name}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
            continue
        combined[name] = json.loads(p.stdout.splitlines()[-1])
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "slowprov" / "__init__.py").is_file():
        print(f"error: no slowprov sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_probe:
        print(setup_once(args.workload, args.seed))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
