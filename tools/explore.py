"""Solve generated EC2 problems and log every call that exits 1 or raises.

    PYTHONPATH=src python3 tools/explore.py --problems 2000 --log explore.jsonl

Run from the root of a checkout. Draws problems from the ``_ec2_problem``
strategy of tests/test_valid_inputs.py (all four objectives, not
derandomized unless --seed is given) and solves each in-process with
``cli.main`` by PASS (eps 0.1), PASS-M (when every D is finite), PASS-T,
GREEDY and EXACT. Exit 0 and exit 2 (infeasible) are answers. Every other
outcome is appended to the log as one JSON line: the algorithm, the exit
code or exception, the last stderr line, the seconds and the problem.
Ctrl-C stops the run; either way it ends by printing its counts.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import tempfile
import time
from pathlib import Path

from hypothesis import HealthCheck, given, seed, settings

from delayflow.cli import main as solve_main

VALID_INPUTS = Path(__file__).resolve().parent.parent / "tests" / "test_valid_inputs.py"


def _problems():
    spec = importlib.util.spec_from_file_location("valid_inputs", VALID_INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._ec2_problem()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--problems", type=int, default=1000, help="problems to draw")
    p.add_argument("--seed", type=int, help="Hypothesis seed (default: random)")
    p.add_argument("--log", default="explore.jsonl", help="JSON lines appended here")
    args = p.parse_args(argv)
    problems = calls = findings = 0
    with tempfile.TemporaryDirectory() as work, open(args.log, "a") as log:
        problem = Path(work) / "problem.json"

        @settings(max_examples=args.problems, deadline=None, database=None,
                  suppress_health_check=list(HealthCheck))
        @given(doc=_problems())
        def explore(doc):
            nonlocal problems, calls, findings
            problems += 1
            problem.write_text(json.dumps(doc))
            algos = [["pass", "--eps", "0.1"], ["pass-t"], ["greedy"], ["exact"]]
            if all(c["D"] != "inf" and math.isfinite(c["D"]) for c in doc["commodities"]):
                algos.insert(1, ["pass-m"])
            for algo in algos:
                err = io.StringIO()
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                        code = solve_main(
                            ["solve", "--topo", "ec2", "--problem", str(problem), "--algo", *algo]
                        )
                except Exception as e:  # a raise is a finding, logged, not re-raised
                    code = f"{type(e).__name__}: {e}"
                calls += 1
                if code not in (0, 2):
                    findings += 1
                    lines = err.getvalue().splitlines() or [""]
                    log.write(json.dumps({
                        "algo": algo, "exit": code, "stderr": lines[-1],
                        "seconds": time.perf_counter() - t0, "problem": doc,
                    }) + "\n")
                    log.flush()

        try:
            (explore if args.seed is None else seed(args.seed)(explore))()
        except KeyboardInterrupt:
            print("interrupted")
    print(f"{problems} problems, {calls} calls, {findings} logged to {args.log}")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
